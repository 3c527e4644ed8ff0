//! Property tests for the ternary match algebra.
//!
//! Each property is checked on a seeded corpus of random 8-bit cubes and
//! policies, with the claim verified *exhaustively* over all 256 packets
//! of the width — so a passing run is a proof on the sampled structures,
//! not a statistical argument. The harness is the in-tree seeded RNG
//! (the workspace is dependency-free; no proptest/quickcheck).
//!
//! Properties:
//!
//! 1. **Cube difference is exact**: after subtracting cubes `B₁..Bₖ`
//!    from `A`, the cube list contains exactly the packets of
//!    `A \ (B₁ ∪ … ∪ Bₖ)`, and its reported cardinality matches.
//! 2. **Every `CubeList` operation matches a packet-set model**: lists
//!    built by `insert` or `collect` hold exactly the union of their
//!    cubes, as pairwise-disjoint cubes with the right cardinality, and
//!    `contains_cube`, `intersection_with_cube` and `subtract_all` agree
//!    with the same operations on plain packet sets.
//! 3. **`Rule::overlaps` is symmetric and exact**: it returns true iff
//!    some packet matches both rules, in either argument order.
//! 4. **Redundancy removal preserves packet semantics**: the reduced
//!    policy gives every packet the same first-match decision, and a
//!    second pass removes nothing (the fixpoint claim).

use flowplace_acl::{redundancy, Action, CubeList, Packet, Policy, Rule, Ternary};
use flowplace_rng::{Rng, StdRng};

const WIDTH: u32 = 8;
const CASES: usize = 64;

fn wmask() -> u128 {
    (1u128 << WIDTH) - 1
}

fn random_cube(rng: &mut StdRng) -> Ternary {
    let care = rng.gen::<u64>() as u128 & wmask();
    let value = rng.gen::<u64>() as u128 & care;
    Ternary::new(WIDTH, care, value)
}

fn all_packets() -> impl Iterator<Item = Packet> {
    (0..(1u128 << WIDTH)).map(|bits| Packet::from_bits(bits, WIDTH))
}

fn random_policy(rng: &mut StdRng) -> Policy {
    let n = rng.gen_range(1usize..13);
    let specs: Vec<(Ternary, Action)> = (0..n)
        .map(|_| {
            let action = if rng.gen_bool(0.5) {
                Action::Permit
            } else {
                Action::Drop
            };
            (random_cube(rng), action)
        })
        .collect();
    Policy::from_ordered(specs).expect("generated priorities are strict")
}

#[test]
fn cube_difference_is_exact() {
    let mut rng = StdRng::seed_from_u64(0xA1_6EB6A);
    for case in 0..CASES {
        let a = random_cube(&mut rng);
        let k = rng.gen_range(0usize..5);
        let subtracted: Vec<Ternary> = (0..k).map(|_| random_cube(&mut rng)).collect();

        let mut list = CubeList::from_cube(a);
        for b in &subtracted {
            list.subtract(b);
        }

        let mut expected_cardinality: u128 = 0;
        for p in all_packets() {
            let expected = a.matches(&p) && !subtracted.iter().any(|b| b.matches(&p));
            assert_eq!(
                list.contains_packet(&p),
                expected,
                "case {case}: packet {p} membership wrong after subtracting {subtracted:?} \
                 from {a}",
            );
            expected_cardinality += expected as u128;
        }
        assert_eq!(
            list.cardinality(),
            expected_cardinality,
            "case {case}: cardinality of {a} minus {subtracted:?}"
        );
        // The cubes of the difference must be disjoint, or cardinality
        // would double-count.
        let cubes = list.cubes();
        for (i, x) in cubes.iter().enumerate() {
            for y in &cubes[i + 1..] {
                assert!(
                    !x.intersects(y),
                    "case {case}: difference cubes {x} and {y} overlap"
                );
            }
        }
    }
}

/// A cube with each bit cared for with probability 1/4, so a handful of
/// them overlap often and cover each other's fragments.
fn wide_cube(rng: &mut StdRng) -> Ternary {
    let care = rng.gen::<u64>() as u128 & rng.gen::<u64>() as u128 & wmask();
    let value = rng.gen::<u64>() as u128 & care;
    Ternary::new(WIDTH, care, value)
}

/// The packet-set model of a cube: one flag per packet of the width.
fn model_of(cube: &Ternary) -> Vec<bool> {
    all_packets().map(|p| cube.matches(&p)).collect()
}

/// Checks `list` against `model` on all 256 packets, its cardinality,
/// and that its cubes are pairwise disjoint.
fn assert_matches_model(list: &CubeList, model: &[bool], what: &str) {
    for (p, &want) in all_packets().zip(model) {
        assert_eq!(
            list.contains_packet(&p),
            want,
            "{what}: packet {p} in {list}"
        );
    }
    let want = model.iter().filter(|&&m| m).count() as u128;
    assert_eq!(list.cardinality(), want, "{what}: cardinality of {list}");
    let cubes = list.cubes();
    for (i, x) in cubes.iter().enumerate() {
        for y in &cubes[i + 1..] {
            assert!(
                !x.intersects(y),
                "{what}: cubes {x} and {y} of {list} overlap"
            );
        }
    }
}

/// A random list of up to five wide cubes, built by `insert` or by
/// `collect`, with its packet-set model.
fn random_list(rng: &mut StdRng) -> (CubeList, Vec<bool>, Vec<Ternary>) {
    let cubes: Vec<Ternary> = (0..rng.gen_range(0usize..6))
        .map(|_| wide_cube(rng))
        .collect();
    let list = if rng.gen_bool(0.5) {
        cubes.iter().copied().collect()
    } else {
        let mut list = CubeList::new();
        for c in &cubes {
            list.insert(c);
        }
        list
    };
    let mut model = vec![false; 1 << WIDTH];
    for c in &cubes {
        for (m, hit) in model.iter_mut().zip(model_of(c)) {
            *m |= hit;
        }
    }
    (list, model, cubes)
}

#[test]
fn cube_list_operations_match_a_packet_set_model() {
    let mut rng = StdRng::seed_from_u64(0x0C0B_E115);
    let (mut contained, mut not_contained, mut emptied) = (0, 0, 0);
    for case in 0..CASES {
        let (list, model, members) = random_list(&mut rng);
        assert_matches_model(&list, &model, &format!("case {case}: {members:?}"));

        // Each inserted cube is contained; random cubes mostly are not.
        let probes: Vec<Ternary> = (members.iter().copied())
            .chain((0..4).map(|_| random_cube(&mut rng)))
            .collect();
        for c in &probes {
            let cube = model_of(c);
            let want = cube.iter().zip(&model).all(|(&p, &m)| !p || m);
            assert_eq!(
                list.contains_cube(c),
                want,
                "case {case}: contains_cube({c}) on {list}"
            );
            if want {
                contained += 1;
            } else {
                not_contained += 1;
            }
            let meet: Vec<bool> = cube.iter().zip(&model).map(|(&p, &m)| p && m).collect();
            let what = format!("case {case}: {list} intersected with {c}");
            assert_matches_model(&list.intersection_with_cube(c), &meet, &what);
        }

        let (other, other_model, _) = random_list(&mut rng);
        let mut diff = list.clone();
        diff.subtract_all(&other);
        let want: Vec<bool> = (model.iter().zip(&other_model))
            .map(|(&m, &o)| m && !o)
            .collect();
        emptied += usize::from(!list.is_empty() && diff.is_empty());
        let what = format!("case {case}: {list} minus {other}");
        assert_matches_model(&diff, &want, &what);
    }
    // Guard against a vacuous corpus: both answers of `contains_cube`
    // and a `subtract_all` that empties the list must all occur.
    assert!(contained > 0 && not_contained > 0 && emptied > 0);
}

#[test]
fn rule_overlaps_is_symmetric_and_exact() {
    let mut rng = StdRng::seed_from_u64(0x0E7_1A95);
    for case in 0..CASES {
        let a = Rule::new(random_cube(&mut rng), Action::Permit, 2);
        let b = Rule::new(random_cube(&mut rng), Action::Drop, 1);
        let exhaustive =
            all_packets().any(|p| a.match_field().matches(&p) && b.match_field().matches(&p));
        assert_eq!(
            a.overlaps(&b),
            exhaustive,
            "case {case}: overlaps({}, {}) disagrees with packet enumeration",
            a.match_field(),
            b.match_field()
        );
        assert_eq!(
            a.overlaps(&b),
            b.overlaps(&a),
            "case {case}: overlaps is asymmetric for {} / {}",
            a.match_field(),
            b.match_field()
        );
    }
}

#[test]
fn redundancy_removal_preserves_packet_semantics() {
    let mut rng = StdRng::seed_from_u64(0x5EED_AC15);
    let mut total_removed = 0usize;
    for case in 0..CASES {
        let policy = random_policy(&mut rng);
        let report = redundancy::remove_redundant(&policy);
        total_removed += report.removed_count();
        for p in all_packets() {
            assert_eq!(
                policy.evaluate(&p),
                report.policy.evaluate(&p),
                "case {case}: packet {p} decided differently after removing \
                 {} rules from {policy:?}",
                report.removed_count()
            );
        }
        // Fixpoint: the reduced policy contains no redundant rule.
        let again = redundancy::remove_redundant(&report.policy);
        assert_eq!(
            again.removed_count(),
            0,
            "case {case}: second pass still removed {:?}",
            again.removed
        );
    }
    // Guard against a vacuous corpus: random policies with wide cubes
    // must exhibit *some* redundancy across 64 cases.
    assert!(
        total_removed > 0,
        "corpus produced no redundant rule at all — property checked nothing"
    );
}
