//! Randomized property tests over the whole stack.
//!
//! Seeded-RNG generated small instances exercise the invariants the
//! paper's correctness argument rests on:
//!
//! * ternary algebra laws against exhaustive bit-vector enumeration;
//! * redundancy removal preserves first-match semantics;
//! * the MILP solver matches brute-force enumeration on tiny 0/1 models;
//! * the CDCL PB solver matches brute-force truth tables;
//! * any feasible placement (ILP or SAT engine, merging on or off)
//!   passes the golden-model verifier;
//! * the model's edit methods equal the whole-model rebuilds they
//!   replaced, and the named §IV-E operations are those edits in front
//!   of the one restricted re-solve;
//! * a reroute's greedy tier keeps only placements that verify, and the
//!   restricted re-solve it skips never places more entries;
//! * the copy-on-write `Placement` and `Instance` read as their flat
//!   models under any sequence of their edits, and a clone never sees a
//!   later edit;
//! * a table diff sent op by op is the staged transaction;
//! * emitted tables never hold a reserved-bank entry, and are numbered in
//!   per-ingress bands, so a one-rule edit renumbers only the entries
//!   above it in its own run.
//!
//! Each test draws a fixed number of cases from a fixed-seed
//! [`StdRng`], so runs are deterministic; failure messages carry the
//! case number so a regression reproduces by construction.

use flowplace::acl::{redundancy, Action, CubeList, Packet, Policy, Ternary};
use flowplace::core::incremental::{self, IncrementalOutcome};
use flowplace::core::merge::MergeGroup;
use flowplace::core::{fingerprint_instance, verify, InstanceError};
use flowplace::prelude::*;
use flowplace::rng::{Rng, StdRng};

const WIDTH: u32 = 6;

fn rand_ternary(rng: &mut StdRng) -> Ternary {
    let care = rng.gen_range(0u128..(1 << WIDTH));
    let value = rng.gen_range(0u128..(1 << WIDTH));
    Ternary::new(WIDTH, care, value)
}

fn rand_action(rng: &mut StdRng) -> Action {
    if rng.gen_bool(0.5) {
        Action::Permit
    } else {
        Action::Drop
    }
}

fn rand_policy(rng: &mut StdRng, max_rules: usize) -> Policy {
    let n = rng.gen_range(0..=max_rules);
    let specs: Vec<(Ternary, Action)> = (0..n)
        .map(|_| (rand_ternary(rng), rand_action(rng)))
        .collect();
    Policy::from_ordered(specs).expect("ordered priorities are strict")
}

fn all_packets() -> impl Iterator<Item = Packet> {
    (0u128..(1 << WIDTH)).map(|b| Packet::from_bits(b, WIDTH))
}

#[test]
fn ternary_intersection_is_exact() {
    let mut rng = StdRng::seed_from_u64(0xA11CE);
    for case in 0..64 {
        let a = rand_ternary(&mut rng);
        let b = rand_ternary(&mut rng);
        for p in all_packets() {
            let in_both = a.matches(&p) && b.matches(&p);
            match a.intersection(&b) {
                None => assert!(!in_both, "case {case}: missed intersection at {p}"),
                Some(i) => assert_eq!(
                    i.matches(&p),
                    in_both,
                    "case {case}: {a} ∩ {b} wrong at {p}"
                ),
            }
        }
    }
}

#[test]
fn ternary_subsumption_is_exact() {
    let mut rng = StdRng::seed_from_u64(0xB0B);
    for case in 0..64 {
        let a = rand_ternary(&mut rng);
        let b = rand_ternary(&mut rng);
        let claimed = a.subsumes(&b);
        let actual = all_packets().all(|p| !b.matches(&p) || a.matches(&p));
        assert_eq!(claimed, actual, "case {case}: {a} subsumes {b}");
    }
}

#[test]
fn cubelist_subtract_is_exact() {
    let mut rng = StdRng::seed_from_u64(0xC0DE);
    for case in 0..64 {
        let base = rand_ternary(&mut rng);
        let nsubs = rng.gen_range(0..5usize);
        let subs: Vec<Ternary> = (0..nsubs).map(|_| rand_ternary(&mut rng)).collect();
        let mut list = CubeList::from_cube(base);
        for s in &subs {
            list.subtract(s);
        }
        for p in all_packets() {
            let expected = base.matches(&p) && subs.iter().all(|s| !s.matches(&p));
            assert_eq!(
                list.contains_packet(&p),
                expected,
                "case {case}: packet {p}"
            );
        }
        // Cubes remain pairwise disjoint.
        let cubes = list.cubes();
        for (i, a) in cubes.iter().enumerate() {
            for b in &cubes[i + 1..] {
                assert!(!a.intersects(b), "case {case}: overlapping cubes");
            }
        }
    }
}

#[test]
fn redundancy_removal_preserves_semantics() {
    let mut rng = StdRng::seed_from_u64(0xDEED);
    for case in 0..64 {
        let policy = rand_policy(&mut rng, 10);
        let report = redundancy::remove_redundant(&policy);
        assert!(report.policy.len() <= policy.len());
        for p in all_packets() {
            assert_eq!(
                policy.evaluate(&p),
                report.policy.evaluate(&p),
                "case {case}: packet {p}"
            );
        }
    }
}

#[test]
fn redundancy_removal_is_idempotent() {
    let mut rng = StdRng::seed_from_u64(0xFEED);
    for case in 0..64 {
        let policy = rand_policy(&mut rng, 10);
        let once = redundancy::remove_redundant(&policy).policy;
        let twice = redundancy::remove_redundant(&once);
        assert_eq!(
            twice.removed_count(),
            0,
            "case {case}: second pass found more redundancy"
        );
    }
}

#[test]
fn milp_matches_brute_force() {
    use flowplace::milp::{solve_mip, Cmp, MipOptions, Model, Sense};
    let mut rng = StdRng::seed_from_u64(0x111);
    for case in 0..48 {
        let n = rng.gen_range(4..=8usize);
        let costs: Vec<u32> = (0..n).map(|_| rng.gen_range(1u32..6)).collect();
        let ncovers = rng.gen_range(1..5usize);
        let covers: Vec<Vec<usize>> = (0..ncovers)
            .map(|_| {
                let len = rng.gen_range(1..4usize);
                (0..len).map(|_| rng.gen_range(0..8usize)).collect()
            })
            .collect();
        let cap = rng.gen_range(1u32..8);

        let mut model = Model::new(Sense::Minimize);
        let vars: Vec<_> = (0..n).map(|i| model.add_binary(format!("x{i}"))).collect();
        for (v, c) in vars.iter().zip(&costs) {
            model.set_objective(*v, *c as f64);
        }
        for (r, cover) in covers.iter().enumerate() {
            let terms: Vec<_> = cover
                .iter()
                .filter(|&&i| i < n)
                .map(|&i| (vars[i], 1.0))
                .collect();
            if !terms.is_empty() {
                model.add_constraint(format!("c{r}"), terms, Cmp::Ge, 1.0);
            }
        }
        model.add_constraint(
            "cap",
            vars.iter().map(|&v| (v, 1.0)).collect(),
            Cmp::Le,
            cap as f64,
        );

        let out = solve_mip(&model, &MipOptions::default());

        // Brute force.
        let mut best: Option<f64> = None;
        for mask in 0u32..(1 << n) {
            let vals: Vec<f64> = (0..n).map(|i| ((mask >> i) & 1) as f64).collect();
            if model.check_feasible(&vals, 1e-9).is_ok() {
                let obj = model.objective_value(&vals);
                best = Some(best.map_or(obj, |b: f64| b.min(obj)));
            }
        }
        match best {
            None => assert!(
                out.is_infeasible(),
                "case {case}: solver found {:?}",
                out.status
            ),
            Some(b) => {
                let sol = out
                    .solution()
                    .unwrap_or_else(|| panic!("case {case}: solver missed a feasible point"));
                assert!(
                    (sol.objective - b).abs() < 1e-6,
                    "case {case}: solver {} vs brute force {}",
                    sol.objective,
                    b
                );
            }
        }
    }
}

#[test]
fn pbsat_matches_brute_force() {
    use flowplace::pbsat::{Lit, Solver, Var};
    let mut rng = StdRng::seed_from_u64(0x222);
    for case in 0..48 {
        let nclauses = rng.gen_range(1..8usize);
        let clauses: Vec<Vec<(u32, bool)>> = (0..nclauses)
            .map(|_| {
                let len = rng.gen_range(1..4usize);
                (0..len)
                    .map(|_| (rng.gen_range(0u32..6), rng.gen_bool(0.5)))
                    .collect()
            })
            .collect();
        let k = rng.gen_range(0u64..4);

        let nv = 6u32;
        let mut s = Solver::new();
        let vars: Vec<Var> = (0..nv).map(|_| s.new_var()).collect();
        let mut ok = true;
        for clause in &clauses {
            let lits: Vec<Lit> = clause
                .iter()
                .map(|&(v, pos)| {
                    if pos {
                        Lit::positive(vars[v as usize])
                    } else {
                        Lit::negative(vars[v as usize])
                    }
                })
                .collect();
            ok &= s.add_clause(&lits);
        }
        let card: Vec<Lit> = vars.iter().take(4).map(|&v| Lit::positive(v)).collect();
        ok &= s.add_at_most_k(&card, k);
        let got = ok && s.solve().is_sat();

        let mut expected = false;
        'outer: for mask in 0u32..(1 << nv) {
            let val = |v: u32, pos: bool| (((mask >> v) & 1) == 1) == pos;
            for clause in &clauses {
                if !clause.iter().any(|&(v, pos)| val(v, pos)) {
                    continue 'outer;
                }
            }
            if (0..4).filter(|&v| val(v, true)).count() as u64 > k {
                continue;
            }
            expected = true;
            break;
        }
        assert_eq!(got, expected, "case {case}");
    }
}

/// Builds a random small placement instance on a star topology.
fn rand_instance(rng: &mut StdRng) -> Instance {
    let npolicies = rng.gen_range(2..=3usize);
    let policies: Vec<Policy> = (0..npolicies).map(|_| rand_policy(rng, 6)).collect();
    let capacity = rng.gen_range(2..=12usize);
    let mut topo = Topology::star(policies.len() + 1);
    topo.set_uniform_capacity(capacity);
    let mut routes = RouteSet::new();
    let egress = EntryPortId(policies.len());
    let egress_switch = topo.entry_port(egress).switch;
    for (i, _) in policies.iter().enumerate() {
        let ingress_switch = topo.entry_port(EntryPortId(i)).switch;
        routes.push(Route::new(
            EntryPortId(i),
            egress,
            vec![ingress_switch, SwitchId(0), egress_switch],
        ));
    }
    let attached: Vec<(EntryPortId, Policy)> = policies
        .into_iter()
        .enumerate()
        .map(|(i, p)| (EntryPortId(i), p))
        .collect();
    Instance::new(topo, routes, attached).expect("valid instance")
}

#[test]
fn any_feasible_ilp_placement_verifies() {
    let mut rng = StdRng::seed_from_u64(0x333);
    for case in 0..32 {
        let instance = rand_instance(&mut rng);
        let outcome = par::solve(
            &instance,
            Objective::TotalRules,
            &PlacementOptions::default(),
            None,
        );
        if let Some(p) = outcome.placement {
            // Exhaustive: a pass is a proof over the full packet space.
            let result = verify::verify_placement_exhaustive(&instance, &p);
            assert!(result.is_ok(), "case {case}: violation: {:?}", result.err());
        }
    }
}

#[test]
fn any_feasible_sat_placement_verifies() {
    let mut rng = StdRng::seed_from_u64(0x444);
    for case in 0..32 {
        let instance = rand_instance(&mut rng);
        let options = PlacementOptions {
            engine: PlacerEngine::Sat,
            ..PlacementOptions::default()
        };
        let outcome = par::solve(&instance, Objective::TotalRules, &options, None);
        if let Some(p) = outcome.placement {
            let result = verify::verify_placement(&instance, &p, 64, 98);
            assert!(result.is_ok(), "case {case}: violation: {:?}", result.err());
        }
    }
}

#[test]
fn merged_placement_verifies_and_never_costs_more() {
    let mut rng = StdRng::seed_from_u64(0x555);
    for case in 0..32 {
        let instance = rand_instance(&mut rng);
        let plain = par::solve(
            &instance,
            Objective::TotalRules,
            &PlacementOptions::default(),
            None,
        );
        let merged = par::solve(
            &instance,
            Objective::TotalRules,
            &PlacementOptions {
                merging: true,
                ..PlacementOptions::default()
            },
            None,
        );
        match (plain.placement, merged.placement) {
            (Some(p0), Some(p1)) => {
                assert!(p1.total_rules() <= p0.total_rules(), "case {case}");
                let result = verify::verify_placement(&instance, &p1, 64, 97);
                assert!(result.is_ok(), "case {case}: violation: {:?}", result.err());
            }
            (None, Some(p1)) => {
                // Merging can rescue infeasible instances, never the
                // other way around.
                let result = verify::verify_placement(&instance, &p1, 64, 96);
                assert!(result.is_ok(), "case {case}: violation: {:?}", result.err());
            }
            (Some(_), None) => panic!("case {case}: merging lost feasibility"),
            (None, None) => {}
        }
    }
}

/// The priority band formula, restated here as the oracle: an entry of
/// ingress `l` that has `k` entries of its own ingress below it on a
/// merge-free switch is numbered `(0xFFFE − l) << 16 | (k + 1)`.
fn band_priority(l: EntryPortId, below_in_run: usize) -> u32 {
    ((0xFFFE - l.0 as u32) << 16) | (below_in_run as u32 + 1)
}

/// Every emitted table's priorities strictly descend and none is
/// reserved (0 or `u32::MAX`): nothing `emit_tables` yields can pass for
/// a safe-mode fence or a delegation stub. On a merge-free switch each
/// entry carries its ingress's band and its rank from the bottom of its
/// run; on a switch holding a merged entry they run `len` down to 1.
/// Drawn from the ILP (plain) and merging generator seeds above.
#[test]
fn emitted_entries_are_never_reserved() {
    use flowplace::core::tables::emit_tables;

    let mut merged_switches = 0;
    for (seed, merging) in [(0x333, false), (0x555, true)] {
        let mut rng = StdRng::seed_from_u64(seed);
        for case in 0..32 {
            let instance = rand_instance(&mut rng);
            let outcome = par::solve(
                &instance,
                Objective::TotalRules,
                &PlacementOptions {
                    merging,
                    ..PlacementOptions::default()
                },
                None,
            );
            let Some(p) = outcome.placement else {
                continue;
            };
            for (s, table) in emit_tables(&instance, &p).unwrap().iter().enumerate() {
                let entries = table.entries();
                let is_merged = p.merge_groups().iter().any(|g| g.switch == SwitchId(s));
                merged_switches += usize::from(is_merged);
                for (pos, e) in entries.iter().enumerate() {
                    let why = format!("seed {seed:#x} case {case}: s{s} emitted {e}");
                    assert!(
                        !e.is_reserved() && e.priority != 0 && e.priority != u32::MAX,
                        "{why}"
                    );
                    if let Some(next) = entries.get(pos + 1) {
                        assert!(e.priority > next.priority, "{why} above {next}");
                    }
                    let want = if is_merged {
                        (entries.len() - pos) as u32
                    } else {
                        let l = *e.tags.iter().next().unwrap();
                        assert_eq!(e.tags.len(), 1, "{why}");
                        let below = entries[pos + 1..].iter();
                        band_priority(l, below.filter(|x| x.tags.contains(&l)).count())
                    };
                    assert_eq!(e.priority, want, "{why}");
                }
            }
        }
    }
    assert!(merged_switches > 0, "no merged switch drawn");
}

/// Over random merge-free instances, a one-rule greedy add or a rule
/// removal on one ingress leaves every entry of every other ingress in
/// `emit_tables` byte-identical, priority included, and on each switch
/// the edited ingress's entries below the edit keep their numbers: an
/// edit renumbers only the entries above it in its own run.
#[test]
fn one_rule_edits_renumber_only_above_them_in_their_run() {
    use flowplace::core::tables::{emit_tables, SwitchTable, TableEntry};

    let mut rng = StdRng::seed_from_u64(0xBA2D);
    let (mut adds, mut removes, mut kept_below) = (0, 0, 0);
    for case in 0..64 {
        // Priorities 4 apart, so an added rule can land between any two.
        let drawn = rand_instance(&mut rng);
        let spread = drawn.policies().map(|(l, q)| {
            let rules = q
                .rules()
                .iter()
                .map(|r| r.with_priority(4 * r.priority() + 4));
            (l, Policy::from_rules(rules.collect()).unwrap())
        });
        let topology = drawn.topology().clone();
        let instance = Instance::new(topology, drawn.routes().clone(), spread.collect()).unwrap();
        let options = PlacementOptions::default();
        let solved = par::solve(&instance, Objective::TotalRules, &options, None);
        let Some(p) = solved.placement else {
            continue;
        };
        let l = EntryPortId(rng.gen_range(0..instance.policies().count()));
        let len = instance.policy(l).unwrap().len();
        let edited = if len > 0 && rng.gen_bool(0.5) {
            removes += 1;
            incremental::remove_rule(&instance, &p, l, RuleId(rng.gen_range(0..len)))
        } else {
            adds += 1;
            let priority = 4 * rng.gen_range(0..=len as u32 + 1) + 2;
            let rule = Rule::new(rand_ternary(&mut rng), rand_action(&mut rng), priority);
            incremental::add_rule_greedy(&instance, &p, l, rule)
        };
        let IncrementalOutcome {
            instance: next,
            placement: Some(q),
            ..
        } = edited.unwrap()
        else {
            continue;
        };
        let before = emit_tables(&instance, &p).unwrap();
        let after = emit_tables(&next, &q).unwrap();
        let of = |t: &SwitchTable, mine: bool| -> Vec<TableEntry> {
            let entries = t.entries().iter();
            entries
                .filter(|e| e.tags.contains(&l) == mine)
                .cloned()
                .collect()
        };
        for (s, (b, a)) in before.iter().zip(&after).enumerate() {
            assert_eq!(of(b, false), of(a, false), "case {case}: s{s}, edit on {l}");
            let (b, a) = (of(b, true), of(a, true));
            let same = |(x, y): (&TableEntry, &TableEntry)| {
                (x.match_field, x.action) == (y.match_field, y.action)
            };
            let below = b
                .iter()
                .rev()
                .zip(a.iter().rev())
                .take_while(|&xy| same(xy));
            let below = below.count();
            assert_eq!(
                b[b.len() - below..],
                a[a.len() - below..],
                "case {case}: s{s}, {l}'s entries below its edit"
            );
            kept_below += below;
        }
    }
    assert!(
        adds > 8 && removes > 8 && kept_below > 0,
        "{adds} adds, {removes} removes, {kept_below} kept below"
    );
}

#[test]
fn greedy_placement_verifies_when_it_succeeds() {
    let mut rng = StdRng::seed_from_u64(0x666);
    for case in 0..32 {
        let instance = rand_instance(&mut rng);
        if let Some(p) = flowplace::core::greedy::greedy_place(&instance) {
            let result = verify::verify_placement(&instance, &p, 64, 95);
            assert!(result.is_ok(), "case {case}: violation: {:?}", result.err());
            // Greedy success implies the exact engines also find solutions.
            let ilp = par::solve(
                &instance,
                Objective::TotalRules,
                &PlacementOptions::default(),
                None,
            );
            assert!(
                ilp.placement.is_some(),
                "case {case}: ILP missed a greedy-feasible instance"
            );
            if let Some(opt) = ilp.placement {
                assert!(
                    opt.total_rules() <= p.total_rules(),
                    "case {case}: optimal exceeds greedy: {} > {}",
                    opt.total_rules(),
                    p.total_rules()
                );
            }
        }
    }
}

/// Applies `edit` to a clone of `before` and requires what the rebuild
/// it replaced gives: the same instance, or the same error with the
/// instance left as it was.
fn assert_edit_is_rebuild(
    case: usize,
    before: &Instance,
    edit: impl FnOnce(&mut Instance) -> Result<(), InstanceError>,
    rebuilt: Result<Instance, InstanceError>,
) {
    let mut edited = before.clone();
    let got = edit(&mut edited);
    match rebuilt {
        Ok(want) => {
            assert_eq!(got, Ok(()), "case {case}");
            assert_eq!(format!("{edited:?}"), format!("{want:?}"), "case {case}");
            let fp = |i| fingerprint_instance(i, &Objective::TotalRules, &Default::default());
            assert_eq!(fp(&edited), fp(&want), "case {case}");
        }
        Err(e) => {
            assert_eq!(got, Err(e), "case {case}");
            assert_eq!(format!("{edited:?}"), format!("{before:?}"), "case {case}");
        }
    }
}

#[test]
fn instance_edits_are_the_rebuilds() {
    let mut rng = StdRng::seed_from_u64(0x777);
    for case in 0..64 {
        let inst = rand_instance(&mut rng);
        let topo = inst.topology().clone();
        let ports = topo.entry_port_count();
        let others = |l: EntryPortId| -> Vec<(EntryPortId, Policy)> {
            let kept = inst.policies().filter(|(k, _)| *k != l);
            kept.map(|(k, q)| (k, q.clone())).collect()
        };
        let all = others(EntryPortId(usize::MAX));

        // set_policy: a replacement or a first policy (the egress port
        // holds none), an unknown ingress, a width the others do not share.
        let narrow = Policy::from_ordered(vec![(Ternary::new(4, 0, 0), Action::Drop)]).unwrap();
        for (l, q) in [
            (rng.gen_range(0..ports), rand_policy(&mut rng, 6)),
            (ports + rng.gen_range(0..3usize), rand_policy(&mut rng, 6)),
            (rng.gen_range(0..ports), narrow),
        ] {
            let l = EntryPortId(l);
            let mut parts = others(l);
            parts.push((l, q.clone()));
            let want = Instance::new(topo.clone(), inst.routes().clone(), parts);
            assert_edit_is_rebuild(case, &inst, |i| i.set_policy(l, q), want);
        }

        // set_routes_from: fresh routes (of a policy-free port too), a
        // route of another ingress, a route through an unknown switch.
        // The rebuild validated them against the one policy first.
        let l = EntryPortId(rng.gen_range(0..ports));
        let other = EntryPortId((l.0 + 1) % ports);
        let via = |from, s| Route::new(from, EntryPortId(0), vec![SwitchId(s), SwitchId(0)]);
        let fresh = (0..rng.gen_range(0..3usize))
            .map(|_| via(l, rng.gen_range(0..topo.switch_count())))
            .collect();
        for routes in [fresh, vec![via(l, 1), via(other, 1)], vec![via(l, 99)]] {
            let own = inst.policy(l).map(|q| (l, q.clone())).into_iter().collect();
            let want =
                Instance::new(topo.clone(), routes.iter().cloned().collect(), own).and_then(|_| {
                    let kept = inst.routes().iter().filter(|r| r.ingress != l);
                    let merged = kept.chain(&routes).cloned().collect();
                    Instance::new(topo.clone(), merged, all.clone())
                });
            assert_edit_is_rebuild(case, &inst, |i| i.set_routes_from(l, routes), want);
        }

        // set_capacity.
        let s = SwitchId(rng.gen_range(0..topo.switch_count()));
        let capacity = rng.gen_range(0..20usize);
        let mut shrunk = topo.clone();
        shrunk.set_capacity(s, capacity);
        let want = Instance::new(shrunk, inst.routes().clone(), all.clone());
        let edit = |i: &mut Instance| {
            i.set_capacity(s, capacity);
            Ok(())
        };
        assert_edit_is_rebuild(case, &inst, edit, want);
    }
}

/// The entry-by-entry rebuild `incremental::add_rule_greedy` and
/// `remove_rule` did before `Placement::renumber`, over a total `map` of
/// `ingress`'s rule ids (`None` drops the rule).
fn renumber_by_rebuild(
    placement: &Placement,
    ingress: EntryPortId,
    map: impl Fn(RuleId) -> Option<RuleId>,
) -> Placement {
    let mut shifted = Placement::new();
    for ((l, r), switches) in placement.iter() {
        let nr = if l == ingress { map(r) } else { Some(r) };
        let Some(nr) = nr else { continue };
        for s in switches {
            shifted.place(l, nr, s);
        }
    }
    for g in placement.merge_groups() {
        let gone = |&(l, r): &(EntryPortId, RuleId)| l == ingress && map(r).is_none();
        if g.members.iter().any(gone) {
            continue; // dissolve groups containing the removed rule
        }
        let mut g = g.clone();
        for (l, r) in &mut g.members {
            if *l == ingress {
                *r = map(*r).expect("kept");
            }
        }
        shifted.record_merge(g);
    }
    shifted
}

#[test]
fn placement_renumber_is_the_rebuild() {
    let mut rng = StdRng::seed_from_u64(0x888);
    for case in 0..64 {
        let rules = rng.gen_range(1..=6usize);
        let ingress = EntryPortId(rng.gen_range(0..3usize));
        let mut placement = Placement::new();
        for l in 0..3 {
            for r in 0..rules {
                for s in 0..4 {
                    if rng.gen_bool(0.4) {
                        placement.place(EntryPortId(l), RuleId(r), SwitchId(s));
                    }
                }
            }
        }
        // Merge groups over all three ingresses, so every removal from
        // `ingress` below meets groups with and without the removed rule.
        for r in 0..rules {
            placement.record_merge(MergeGroup {
                switch: SwitchId(rng.gen_range(0..4usize)),
                match_field: rand_ternary(&mut rng),
                action: Action::Drop,
                members: (0..3)
                    .map(|l| (EntryPortId(l), RuleId((r + l) % rules)))
                    .collect(),
            });
        }
        for k in 0..=rules {
            let at = RuleId(k);
            // Insertion at `k`: ids from `k` up shift by one.
            let up = |r: RuleId| Some(RuleId(r.0 + 1));
            let mut renumbered = placement.clone();
            renumbered.renumber(ingress, at, up);
            let want =
                renumber_by_rebuild(
                    &placement,
                    ingress,
                    |r| if r < at { Some(r) } else { up(r) },
                );
            assert_eq!(renumbered, want, "case {case}: insert at {k}");
            if k == rules {
                continue;
            }
            // Removal of `k`: its entries go, ids above shift down.
            let down = |r: RuleId| (r != at).then(|| RuleId(r.0 - 1));
            let mut renumbered = placement.clone();
            renumbered.renumber(ingress, at, down);
            let want =
                renumber_by_rebuild(
                    &placement,
                    ingress,
                    |r| if r < at { Some(r) } else { down(r) },
                );
            assert_eq!(renumbered, want, "case {case}: remove {k}");
            assert!(renumbered.merge_groups().len() < placement.merge_groups().len());
        }
    }
}

/// The flat model a [`Placement`] must behave as: one ordered
/// `(ingress, rule) → switches` map plus the merge groups. Its derived
/// `Debug` is the text `Placement`'s own must print.
mod flat {
    use super::*;
    use std::collections::{BTreeMap, BTreeSet};

    #[derive(Clone, Debug, Default)]
    pub struct Placement {
        pub placed: BTreeMap<(EntryPortId, RuleId), BTreeSet<SwitchId>>,
        pub merged: Vec<MergeGroup>,
    }

    impl Placement {
        /// `(ingress, rule, switch)` triples already in a merge group.
        pub fn grouped(&self) -> BTreeSet<(EntryPortId, RuleId, SwitchId)> {
            let groups = self.merged.iter();
            groups
                .flat_map(|g| g.members.iter().map(move |&(l, r)| (l, r, g.switch)))
                .collect()
        }
    }
}

/// The flat model an [`Instance`] must behave as: every part owned
/// outright. Its derived `Debug` is the text `Instance`'s own must print.
mod flat_instance {
    use super::*;
    use std::collections::BTreeMap;

    #[derive(Clone, Debug)]
    pub struct Instance {
        pub topology: Topology,
        pub routes: RouteSet,
        pub policies: BTreeMap<EntryPortId, Policy>,
    }

    impl Instance {
        /// What [`Instance::new`](super::Instance::new) makes of the model.
        pub fn rebuild(&self) -> Result<super::Instance, InstanceError> {
            let policies = self.policies.iter().map(|(l, q)| (*l, q.clone()));
            let routes = self.routes.clone();
            super::Instance::new(self.topology.clone(), routes, policies.collect())
        }
    }
}

/// Asserts that `p` reads exactly as the flat model `m` through every
/// accessor and its `Debug` text.
fn assert_instance_reads_as(p: &Instance, m: &flat_instance::Instance, what: &str) {
    let debug = |x: &dyn std::fmt::Debug| format!("{x:?}");
    assert_eq!(
        debug(p.topology()),
        debug(&m.topology),
        "{what}: topology()"
    );
    assert_eq!(debug(p.routes()), debug(&m.routes), "{what}: routes()");
    for l in (0..=m.topology.entry_port_count()).map(EntryPortId) {
        let want = m.policies.get(&l);
        assert_eq!(debug(&p.policy(l)), debug(&want), "{what}: policy({l})");
        let want: Vec<RouteId> = m
            .routes
            .iter_with_ids()
            .filter(|(_, r)| r.ingress == l)
            .map(|(id, _)| id)
            .collect();
        let got = p.routes().paths_from(l);
        assert_eq!(got, &want[..], "{what}: paths_from({l})");
    }
    let got: Vec<_> = p.policies().map(|(l, q)| (l, q.clone())).collect();
    let want: Vec<_> = m.policies.iter().map(|(l, q)| (*l, q.clone())).collect();
    assert_eq!(debug(&got), debug(&want), "{what}: policies()");
    let rules: usize = m.policies.values().map(Policy::len).sum();
    assert_eq!(p.total_policy_rules(), rules, "{what}: total_policy_rules");
    assert_eq!(format!("{p:?}"), format!("{m:?}"), "{what}: Debug");
    assert_eq!(format!("{p:#?}"), format!("{m:#?}"), "{what}: pretty Debug");
}

/// Model-based check of the copy-on-write [`Instance`]: seeded random
/// sequences of its edits against the flat model, with a clone taken
/// before every edit that must not see it. An edit is accepted exactly
/// when [`Instance::new`] accepts the edited model.
#[test]
fn instance_behaves_as_the_flat_instance() {
    let mut rng = StdRng::seed_from_u64(0x1A57);
    let narrow = Policy::from_ordered(vec![(Ternary::new(4, 0, 0), Action::Drop)]).unwrap();
    for case in 0..32 {
        let mut p = rand_instance(&mut rng);
        let mut m = flat_instance::Instance {
            topology: p.topology().clone(),
            routes: p.routes().clone(),
            policies: p.policies().map(|(l, q)| (l, q.clone())).collect(),
        };
        let ports = m.topology.entry_port_count();
        let switches = m.topology.switch_count();
        // A one-hop route from `l`; one in ten visits a switch the
        // topology lacks.
        let route = |rng: &mut StdRng, l: EntryPortId| {
            let s = if rng.gen_bool(0.1) {
                switches
            } else {
                rng.gen_range(0..switches)
            };
            Route::new(l, EntryPortId(0), vec![SwitchId(s)])
        };
        for step in 0..24 {
            let before = (p.clone(), m.clone());
            let mut edited = m.clone();
            let (op, got) = match rng.gen_range(0..4u32) {
                0 => {
                    let s = SwitchId(rng.gen_range(0..switches));
                    let capacity = rng.gen_range(0..20usize);
                    p.set_capacity(s, capacity);
                    edited.topology.set_capacity(s, capacity);
                    ("set_capacity", Ok(()))
                }
                1 => {
                    // Now and then an unknown ingress or a width the
                    // others do not share.
                    let l = EntryPortId(rng.gen_range(0..=ports));
                    let q = if rng.gen_bool(0.1) {
                        narrow.clone()
                    } else {
                        rand_policy(&mut rng, 6)
                    };
                    edited.policies.insert(l, q.clone());
                    ("set_policy", p.set_policy(l, q))
                }
                2 => {
                    // The egress port holds no policy until one is set.
                    let l = EntryPortId(rng.gen_range(0..ports));
                    let n = rng.gen_range(0..3usize);
                    let routes: Vec<Route> = (0..n).map(|_| route(&mut rng, l)).collect();
                    let kept = m.routes.iter().filter(|r| r.ingress != l);
                    edited.routes = kept.chain(&routes).cloned().collect();
                    ("set_routes_from", p.set_routes_from(l, routes))
                }
                _ => {
                    let ingresses: Vec<EntryPortId> = m.policies.keys().copied().collect();
                    let routes: RouteSet = (0..rng.gen_range(0..4usize))
                        .map(|_| {
                            let l = if rng.gen_bool(0.9) {
                                ingresses[rng.gen_range(0..ingresses.len())]
                            } else {
                                EntryPortId(ports - 1)
                            };
                            route(&mut rng, l)
                        })
                        .collect();
                    edited.routes = routes.clone();
                    let got = p.with_routes(routes).map(|rerouted| p = rerouted);
                    let want = edited.rebuild().err();
                    let what = format!("case {case} step {step} with_routes");
                    assert_eq!(got.clone().err(), want, "{what}: error");
                    ("with_routes", got)
                }
            };
            let what = format!("case {case} step {step} {op}");
            assert_eq!(got.is_ok(), edited.rebuild().is_ok(), "{what}: accepted");
            if got.is_ok() {
                m = edited;
            }
            assert_instance_reads_as(&p, &m, &what);
            assert_instance_reads_as(&before.0, &before.1, &format!("{what}: clone"));
        }
    }
}

/// Asserts that `p` reads exactly as the flat model `m` through every
/// accessor, its `==` and its `Debug` text.
fn assert_reads_as(p: &Placement, m: &flat::Placement, instance: &Instance, what: &str) {
    let got: Vec<_> = p.iter().map(|(k, v)| (k, v.collect())).collect();
    let want: Vec<_> = m.placed.iter().map(|(k, v)| (*k, v.clone())).collect();
    assert_eq!(got, want, "{what}: iter()");
    assert_eq!(p.merge_groups(), &m.merged[..], "{what}: merge groups");
    let raw: usize = m.placed.values().map(|s| s.len()).sum();
    let saved: usize = m.merged.iter().map(|g| g.members.len() - 1).sum();
    assert_eq!(p.total_rules(), raw - saved, "{what}: total_rules");
    let mut load = vec![0usize; instance.topology().switch_count()];
    for s in m.placed.values().flatten() {
        load[s.0] += 1;
    }
    for g in &m.merged {
        load[g.switch.0] -= g.members.len() - 1;
    }
    assert_eq!(p.per_switch_load(instance), load, "{what}: per_switch_load");
    for l in (0..5).map(EntryPortId) {
        for r in (0..16).map(RuleId) {
            let want = m.placed.get(&(l, r)).cloned().unwrap_or_default();
            let got: std::collections::BTreeSet<_> = p.switches_of(l, r).collect();
            assert_eq!(got, want, "{what}: switches_of({l}, {r})");
            for s in (0..instance.topology().switch_count()).map(SwitchId) {
                let placed = want.contains(&s);
                assert_eq!(
                    p.is_placed(l, r, s),
                    placed,
                    "{what}: is_placed({l}, {r}, {s})"
                );
            }
        }
    }
    // Built afresh from the model: an ingress whose every rule was
    // dropped must compare equal to one that never existed.
    let mut fresh = Placement::new();
    for (&(l, r), switches) in &m.placed {
        for &s in switches {
            fresh.place(l, r, s);
        }
    }
    for g in &m.merged {
        fresh.record_merge(g.clone());
    }
    assert_eq!(*p, fresh, "{what}: ==");
    assert_eq!(format!("{p:?}"), format!("{m:?}"), "{what}: Debug");
    assert_eq!(format!("{p:#?}"), format!("{m:#?}"), "{what}: pretty Debug");
}

/// A merge group on a random switch over placed entries of distinct
/// ingresses that no existing group holds, when there are two such.
fn rand_merge(rng: &mut StdRng, m: &flat::Placement) -> Option<MergeGroup> {
    let switch = SwitchId(rng.gen_range(0..4usize));
    let grouped = m.grouped();
    let mut members: Vec<(EntryPortId, RuleId)> = Vec::new();
    for (&(l, r), switches) in &m.placed {
        let fresh = switches.contains(&switch) && !grouped.contains(&(l, r, switch));
        if fresh && members.iter().all(|(k, _)| *k != l) && rng.gen_bool(0.7) {
            members.push((l, r));
        }
    }
    (members.len() >= 2).then(|| MergeGroup {
        switch,
        match_field: rand_ternary(rng),
        action: Action::Drop,
        members,
    })
}

/// Model-based check of the copy-on-write [`Placement`]: seeded random
/// sequences of its edits against the flat model, with a clone taken
/// before every edit that must not see it.
#[test]
fn placement_behaves_as_the_flat_map() {
    // Six switches, of which the edits touch four: per-ingress counts
    // stop short of the topology, each at its own length.
    let mut topo = Topology::star(5);
    topo.set_uniform_capacity(64);
    let instance = Instance::new(topo, RouteSet::new(), Vec::new()).expect("valid instance");
    let mut rng = StdRng::seed_from_u64(0xC0C0);
    for case in 0..48 {
        let mut p = Placement::new();
        let mut m = flat::Placement::default();
        for step in 0..40 {
            let before = (p.clone(), m.clone());
            let l = EntryPortId(rng.gen_range(0..4usize));
            let k = RuleId(rng.gen_range(0..6usize));
            let op = match rng.gen_range(0..10u32) {
                0..=3 => {
                    let s = SwitchId(rng.gen_range(0..4usize));
                    p.place(l, k, s);
                    m.placed.entry((l, k)).or_default().insert(s);
                    "place"
                }
                4 | 5 => {
                    // Shift (an insertion at `k`) or drop (a removal of
                    // `k`), as the greedy add and remove renumber, or a
                    // map that is not monotone: it reverses `k..=top`,
                    // which holds every placed rule of `l` from `k` up.
                    let kind = rng.gen_range(0..3u32);
                    let rules = m.placed.keys().filter(|&&(il, _)| il == l);
                    let top = rules.map(|&(_, r)| r.0).max().unwrap_or(0).max(k.0);
                    let map = move |r: RuleId| match (kind, r == k) {
                        (0, true) => None,
                        (0, false) => Some(RuleId(r.0 - 1)),
                        (1, _) => Some(RuleId(r.0 + 1)),
                        _ => Some(RuleId(k.0 + top - r.0)),
                    };
                    p.renumber(l, k, map);
                    let moved = |(il, r): (EntryPortId, RuleId)| {
                        if il == l && r >= k {
                            map(r).map(|r| (il, r))
                        } else {
                            Some((il, r))
                        }
                    };
                    let placed = std::mem::take(&mut m.placed).into_iter();
                    m.placed = placed
                        .filter_map(|(key, s)| moved(key).map(|key| (key, s)))
                        .collect();
                    m.merged = std::mem::take(&mut m.merged)
                        .into_iter()
                        .filter_map(|mut g| {
                            let members: Option<Vec<_>> =
                                g.members.iter().map(|&key| moved(key)).collect();
                            g.members = members?;
                            Some(g)
                        })
                        .collect();
                    ["renumber (drop)", "renumber (shift)", "renumber (reverse)"][kind as usize]
                }
                6 => {
                    p.remove_ingress(l);
                    m.placed.retain(|&(il, _), _| il != l);
                    m.merged
                        .retain(|g| g.members.iter().all(|&(il, _)| il != l));
                    "remove_ingress"
                }
                7 | 8 => {
                    // A sub-solution over one or two ingresses; it brings
                    // merge groups only over ingresses this one lacks, as
                    // a restricted re-solve's graft does.
                    let mut other = Placement::new();
                    let mut o = flat::Placement::default();
                    for _ in 0..rng.gen_range(1..8usize) {
                        let ol = if rng.gen_bool(0.5) { l } else { EntryPortId(4) };
                        let (r, s) = (
                            RuleId(rng.gen_range(0..6usize)),
                            SwitchId(rng.gen_range(0..4usize)),
                        );
                        other.place(ol, r, s);
                        o.placed.entry((ol, r)).or_default().insert(s);
                    }
                    let vacant = |g: &MergeGroup| {
                        let mut members = g.members.iter();
                        members.all(|&(gl, _)| m.placed.keys().all(|&(ml, _)| ml != gl))
                    };
                    if let Some(g) = rand_merge(&mut rng, &o).filter(vacant) {
                        other.record_merge(g.clone());
                        o.merged.push(g);
                    }
                    p.absorb(other);
                    for (key, s) in o.placed {
                        m.placed.entry(key).or_default().extend(s);
                    }
                    m.merged.extend(o.merged);
                    "absorb"
                }
                _ => {
                    if let Some(g) = rand_merge(&mut rng, &m) {
                        p.record_merge(g.clone());
                        m.merged.push(g);
                    }
                    "record_merge"
                }
            };
            let what = format!("case {case} step {step} {op} {l} {k}");
            assert_reads_as(&p, &m, &instance, &what);
            assert_reads_as(&before.0, &before.1, &instance, &format!("{what}: clone"));
        }
    }
    // The emptied-ingress case, spelled out.
    let mut p = Placement::new();
    p.place(EntryPortId(1), RuleId(0), SwitchId(2));
    p.renumber(EntryPortId(1), RuleId(0), |_| None);
    assert_eq!(p, Placement::new());
    assert_eq!(format!("{p:?}"), format!("{:?}", Placement::new()));
}

#[test]
fn named_medium_operations_are_an_edit_then_the_restricted_resolve() {
    let mut rng = StdRng::seed_from_u64(0x999);
    let options = PlacementOptions::default();
    let same = |case: usize, out: IncrementalOutcome, want: IncrementalOutcome| {
        let (got, want) = (
            (
                format!("{:?}", out.instance),
                out.placement,
                out.status,
                out.stats,
            ),
            (
                format!("{:?}", want.instance),
                want.placement,
                want.status,
                want.stats,
            ),
        );
        assert_eq!(got, want, "case {case}");
    };
    for case in 0..64 {
        let inst = rand_instance(&mut rng);
        let placed = par::solve(&inst, Objective::TotalRules, &options, None);
        let placement = placed.placement.unwrap_or_default();
        let hub = SwitchId(0);
        let leaf = |l: EntryPortId| inst.topology().entry_port(l).switch;

        // Install a policy on the one port without one (the egress).
        let l = EntryPortId(inst.policy_count());
        let q = rand_policy(&mut rng, 6);
        let routes = vec![Route::new(l, EntryPortId(0), vec![leaf(l), hub])];
        let mut edited = inst.clone();
        edited.set_policy(l, q.clone()).unwrap();
        edited.set_routes_from(l, routes.clone()).unwrap();
        let out = incremental::install_policies(
            &inst,
            &placement,
            vec![(l, q, routes)],
            &options,
            Objective::TotalRules,
        );
        let want = incremental::replace_ingresses(
            &edited,
            &placement,
            &[l],
            &options,
            Objective::TotalRules,
        );
        same(case, out.unwrap(), want.unwrap());

        // Reroute one ingress onto a shorter and a longer path.
        let l = EntryPortId(rng.gen_range(0..inst.policy_count()));
        let routes = vec![
            Route::new(l, EntryPortId(0), vec![leaf(l), hub]),
            Route::new(l, EntryPortId(0), vec![leaf(l), hub, leaf(EntryPortId(0))]),
        ];
        let mut edited = inst.clone();
        edited.set_routes_from(l, routes.clone()).unwrap();
        let out = incremental::reroute_policy(
            &inst,
            &placement,
            l,
            routes,
            &options,
            Objective::TotalRules,
        );
        let want = incremental::replace_ingresses(
            &edited,
            &placement,
            &[l],
            &options,
            Objective::TotalRules,
        );
        same(case, out.unwrap(), want.unwrap());
    }
}

/// The greedy tier of a routing change keeps the deployed placement
/// only where it is a correct placement of the rerouted instance. Over
/// chains of random reroutes — flow-sliced routes, now and then a
/// switch shrunk, the first placement solved with merging on in half
/// the cases — every placement `reroute_greedy` keeps is the input,
/// passes the exhaustive verifier on the edited instance, holds entries
/// of the rerouted ingress only on its new routes and within capacity —
/// so its share solves the restricted sub-problem — and is never smaller
/// than the restricted re-solve it stands in for. Both outcomes occur;
/// the largest gap between the two is printed.
#[test]
fn reroute_greedy_keeps_only_correct_placements() {
    let mut rng = StdRng::seed_from_u64(0x4E40);
    let options = PlacementOptions::default();
    let (mut kept, mut declined, mut gap) = (0, 0, 0);
    for case in 0..64 {
        let mut inst = rand_instance(&mut rng);
        let first = PlacementOptions {
            merging: rng.gen_bool(0.5),
            ..options.clone()
        };
        let solved = par::solve(&inst, Objective::TotalRules, &first, None);
        let Some(mut placement) = solved.placement else {
            continue;
        };
        let ports = inst.topology().entry_port_count();
        for step in 0..4 {
            let at = format!("case {case} step {step}");
            if rng.gen_bool(0.25) {
                let s = SwitchId(rng.gen_range(0..inst.topology().switch_count()));
                inst.set_capacity(s, rng.gen_range(0..=inst.topology().capacity(s)));
            }
            let l = EntryPortId(rng.gen_range(0..inst.policy_count()));
            let leaf = |p: EntryPortId| inst.topology().entry_port(p).switch;
            let routes: Vec<Route> = (0..rng.gen_range(0..=2usize))
                .map(|_| {
                    let e = EntryPortId(rng.gen_range(0..ports));
                    let mut hops = vec![leaf(l), SwitchId(0)];
                    if e != l {
                        hops.push(leaf(e));
                    }
                    let route = Route::new(l, e, hops);
                    if rng.gen_bool(0.3) {
                        route.with_flow(rand_ternary(&mut rng))
                    } else {
                        route
                    }
                })
                .collect();
            let out = incremental::reroute_greedy(&inst, &placement, l, routes).unwrap();
            inst = out.instance;
            let resolved = incremental::replace_ingresses(
                &inst,
                &placement,
                &[l],
                &options,
                Objective::TotalRules,
            )
            .unwrap();
            let Some(p) = out.placement else {
                declined += 1;
                let full = || par::solve(&inst, Objective::TotalRules, &options, None);
                match resolved.placement.or_else(|| full().placement) {
                    Some(next) => placement = next,
                    None => break,
                }
                continue;
            };
            kept += 1;
            assert_eq!(p, placement, "{at}: the kept placement moved");
            verify::verify_placement_exhaustive(&inst, &p)
                .unwrap_or_else(|e| panic!("{at}: kept placement fails verify: {e}"));
            // The kept share fits the restricted sub-problem: on the new
            // routes, within capacity.
            let (routes, load) = (inst.routes(), p.per_switch_load(&inst));
            for ((_, _), held) in p.iter().filter(|((m, _), _)| *m == l) {
                for s in held {
                    let on_route = routes.paths_from(l).iter();
                    assert!(
                        on_route.map(|&id| routes.route(id)).any(|r| r.contains(s)),
                        "{at}: {l} kept an entry on {s}, off its routes"
                    );
                    let capacity = inst.topology().capacity(s);
                    assert!(load[s.0] <= capacity, "{at}: {s} over capacity");
                }
            }
            assert_eq!(resolved.status, SolveStatus::Optimal, "{at}");
            let resolved = resolved.placement.expect("optimal");
            assert!(
                resolved.total_rules() <= p.total_rules(),
                "{at}: the re-solve placed {} entries, the kept placement {}",
                resolved.total_rules(),
                p.total_rules()
            );
            gap = gap.max(p.total_rules() - resolved.total_rules());
        }
    }
    assert!(kept > 0 && declined > 0, "kept {kept}, declined {declined}");
    eprintln!("reroute_greedy: kept {kept}, declined {declined}, largest gap {gap} entries");
}

/// The controller sends a diff op by op; `DataPlane::apply` is the same
/// transition as one staged transaction. Over random current / target
/// table sets drawn from a small pool — so the two overlap, hold
/// duplicates, collide on priority, and carry fences and stubs — the
/// ops of `diff_to`, sent through `install` / `remove` in diff order,
/// reach the dump and the peak occupancy `apply` reaches, and the
/// target-side capacity check refuses exactly the targets `apply`'s
/// commit check refuses, with the same error.
#[test]
fn op_by_op_apply_is_the_staged_transaction() {
    use flowplace::core::tables::{TableEntry, Tags};
    use flowplace::ctrl::DataPlane;

    fn rand_entry(rng: &mut StdRng) -> TableEntry {
        let tags = Tags::one(EntryPortId(rng.gen_range(0..2usize)));
        let (priority, match_field, action) = match rng.gen_range(0..8u32) {
            0 => (u32::MAX, Ternary::new(WIDTH, 0, 0), Action::Drop),
            1 => (0, Ternary::new(WIDTH, 0, 0), Action::Permit),
            _ => (
                rng.gen_range(1..4u32),
                Ternary::new(WIDTH, 0b11, rng.gen_range(0..4u128)),
                rand_action(rng),
            ),
        };
        TableEntry {
            priority,
            tags,
            match_field,
            action,
        }
    }
    fn rand_tables(rng: &mut StdRng, switches: usize) -> Vec<Vec<TableEntry>> {
        (0..switches)
            .map(|_| {
                (0..rng.gen_range(0..7usize))
                    .map(|_| rand_entry(rng))
                    .collect()
            })
            .collect()
    }

    let mut rng = StdRng::seed_from_u64(0x0B_0B_0B);
    let (mut committed, mut refused, mut reserved) = (0, 0, 0);
    for case in 0..256 {
        let switches = rng.gen_range(1..4usize);
        let capacities: Vec<usize> = (0..switches).map(|_| rng.gen_range(1..7usize)).collect();
        let current = rand_tables(&mut rng, switches);
        let target = rand_tables(&mut rng, switches);
        reserved += target.iter().flatten().filter(|e| e.is_reserved()).count();

        let mut staged = DataPlane::new(capacities.clone());
        for (s, entries) in current.iter().enumerate() {
            for e in entries {
                staged.install(SwitchId(s), e).expect("online switch");
            }
        }
        let mut stepped = staged.clone();
        let before = staged.dump();
        let diff = staged.diff_to(&target).expect("same switch count");
        let fits = DataPlane::check_capacities(
            target.iter().map(Vec::as_slice),
            capacities.iter().copied(),
        );
        match staged.apply(&diff) {
            Err(e) => {
                assert_eq!(fits, Err(e), "case {case}: the two checks disagree");
                assert_eq!(staged.dump(), before, "case {case}: refused, yet moved");
                refused += 1;
            }
            Ok(report) => {
                assert_eq!(fits, Ok(()), "case {case}: the two checks disagree");
                let occupancy = |dp: &DataPlane, s: usize| dp.switch(SwitchId(s)).occupancy();
                let mut peak = (0..switches).map(|s| occupancy(&stepped, s)).max();
                for (s, e) in &diff.install {
                    stepped.install(*s, e).expect("online switch");
                    peak = peak.max(Some(occupancy(&stepped, s.0)));
                }
                for (s, e) in &diff.remove {
                    stepped
                        .remove(*s, e)
                        .expect("the diff removes what is there");
                }
                assert_eq!(stepped.dump(), staged.dump(), "case {case}");
                assert_eq!(peak, Some(report.peak_occupancy), "case {case}");
                assert!(stepped.diff_to(&target).unwrap().is_empty(), "case {case}");
                committed += 1;
            }
        }
    }
    assert!(committed >= 32 && refused >= 32, "{committed} / {refused}");
    assert!(reserved >= 64, "only {reserved} fences and stubs drawn");
}

#[test]
fn port_range_expansion_covers_exactly() {
    use flowplace::acl::fivetuple::{FiveTuple, Ports, Prefix, Protocol};
    let mut rng = StdRng::seed_from_u64(0x777);
    for case in 0..64 {
        let lo = rng.gen_range(0u32..=u16::MAX as u32) as u16;
        let span = rng.gen_range(0u32..1000) as u16;
        let hi = lo.saturating_add(span);
        let spec = FiveTuple {
            src: Prefix::any(),
            dst: Prefix::any(),
            src_ports: Ports::Any,
            dst_ports: Ports::Range(lo, hi),
            protocol: Protocol::Any,
        };
        let cubes = spec.to_ternaries();
        // Sample the boundary and a few interior/exterior ports.
        let mut probes = vec![lo, hi, lo.saturating_sub(1), hi.saturating_add(1)];
        probes.push(lo / 2);
        probes.push(hi.saturating_add(1000));
        for port in probes {
            let bits = FiveTuple::pack_concrete(
                std::net::Ipv4Addr::new(1, 2, 3, 4),
                std::net::Ipv4Addr::new(5, 6, 7, 8),
                9,
                port,
                6,
            );
            let pkt = Packet::from_bits(bits, 104);
            let matched = cubes.iter().filter(|c| c.matches(&pkt)).count();
            let expected = usize::from(port >= lo && port <= hi);
            assert_eq!(matched, expected, "case {case}: port {port}");
        }
    }
}

#[test]
fn policy_text_round_trips() {
    use flowplace::acl::textfmt;
    let mut rng = StdRng::seed_from_u64(0x888);
    for case in 0..64 {
        let policy = rand_policy(&mut rng, 8);
        let text = textfmt::format_policy(&policy);
        let reparsed = textfmt::parse_policy(&text).unwrap();
        assert_eq!(&policy, &reparsed, "case {case}");
    }
}

#[test]
fn ecmp_paths_are_shortest_and_distinct() {
    use flowplace::routing::kshortest;
    let mut rng = StdRng::seed_from_u64(0x999);
    let topo = Topology::fat_tree(4);
    for case in 0..64 {
        let src = rng.gen_range(0usize..16);
        let dst = rng.gen_range(0usize..16);
        if src == dst {
            continue;
        }
        let paths = kshortest::all_shortest_paths(&topo, EntryPortId(src), EntryPortId(dst), 64);
        assert!(!paths.is_empty(), "case {case}");
        let src_sw = topo.entry_port(EntryPortId(src)).switch;
        let dst_sw = topo.entry_port(EntryPortId(dst)).switch;
        let dist = topo.distances_from(src_sw);
        let mut sigs = Vec::new();
        for p in &paths {
            assert_eq!(
                p.switches.len(),
                dist[dst_sw.0] + 1,
                "case {case}: length minimal"
            );
            assert_eq!(*p.switches.first().unwrap(), src_sw);
            assert_eq!(*p.switches.last().unwrap(), dst_sw);
            for w in p.switches.windows(2) {
                assert!(topo.neighbors(w[0]).contains(&w[1]), "case {case}");
            }
            sigs.push(p.switches.clone());
        }
        sigs.sort();
        sigs.dedup();
        assert_eq!(
            sigs.len(),
            paths.len(),
            "case {case}: paths pairwise distinct"
        );
    }
}
