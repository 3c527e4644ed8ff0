//! Property test for `RouteSet`'s per-ingress index.
//!
//! Seeded random sequences of the set's edits (`push`, `extend`,
//! `from_routes`, `collect` and `replace_ingress`) run against a flat
//! `Vec<Route>` model. After every step the set must read as the model:
//! `paths_from` and `loc` as a filter scan over the list computes them,
//! and `==` and `Debug` as a set freshly collected from the same routes.
//! The harness is the in-tree seeded RNG (the workspace is
//! dependency-free; no proptest/quickcheck).

use flowplace_rng::{Rng, StdRng};
use flowplace_routing::{Route, RouteId, RouteSet};
use flowplace_topo::{EntryPortId, SwitchId};

const PORTS: usize = 5;
const SWITCHES: usize = 8;
const CASES: u64 = 64;
const STEPS: usize = 32;

fn random_route(rng: &mut StdRng, ingress: EntryPortId) -> Route {
    let hops = rng.gen_range(1..=4usize);
    let switches = (0..hops)
        .map(|_| SwitchId(rng.gen_range(0..SWITCHES)))
        .collect();
    Route::new(ingress, EntryPortId(rng.gen_range(0..PORTS)), switches)
}

fn random_routes(rng: &mut StdRng, max: usize) -> Vec<Route> {
    (0..rng.gen_range(0..=max))
        .map(|_| {
            let l = EntryPortId(rng.gen_range(0..PORTS));
            random_route(rng, l)
        })
        .collect()
}

/// Asserts that `set` reads exactly as the flat list `model`.
fn assert_reads_as(set: &RouteSet, model: &[Route], what: &str) {
    let listed: Vec<&Route> = set.iter().collect();
    assert_eq!(listed, model.iter().collect::<Vec<_>>(), "{what}: iter()");
    for l in (0..=PORTS).map(EntryPortId) {
        let want: Vec<RouteId> = (0..model.len())
            .filter(|&i| model[i].ingress == l)
            .map(RouteId)
            .collect();
        assert_eq!(set.paths_from(l), &want[..], "{what}: paths_from({l})");
        for s in (0..=SWITCHES).map(SwitchId) {
            let want = model
                .iter()
                .filter(|r| r.ingress == l)
                .filter_map(|r| r.position_of(s))
                .min();
            assert_eq!(set.loc(l, s), want, "{what}: loc({l}, {s})");
        }
    }
    let fresh: RouteSet = model.iter().cloned().collect();
    assert_eq!(*set, fresh, "{what}: ==");
    assert_eq!(format!("{set:?}"), format!("{fresh:?}"), "{what}: Debug");
    assert_eq!(
        format!("{set:#?}"),
        format!("{fresh:#?}"),
        "{what}: pretty Debug"
    );
    assert_eq!(
        format!("{set:?}"),
        format!("RouteSet {{ routes: {model:?} }}"),
        "{what}: Debug prints the route list alone"
    );
}

#[test]
fn index_matches_a_filter_scan() {
    let mut rng = StdRng::seed_from_u64(0x1D3);
    for case in 0..CASES {
        let mut model: Vec<Route> = random_routes(&mut rng, 6);
        let mut set = RouteSet::from_routes(model.clone());
        assert_reads_as(&set, &model, &format!("case {case} start"));
        for step in 0..STEPS {
            let op = match rng.gen_range(0..5u32) {
                0 => {
                    let l = EntryPortId(rng.gen_range(0..PORTS));
                    let route = random_route(&mut rng, l);
                    let id = set.push(route.clone());
                    assert_eq!(id, RouteId(model.len()), "case {case} step {step}: push id");
                    model.push(route);
                    "push"
                }
                1 => {
                    let routes = random_routes(&mut rng, 3);
                    set.extend(routes.clone());
                    model.extend(routes);
                    "extend"
                }
                2 => {
                    model = random_routes(&mut rng, 6);
                    set = RouteSet::from_routes(model.clone());
                    "from_routes"
                }
                3 => {
                    model.retain(|_| rng.gen_bool(0.8));
                    set = model.iter().cloned().collect();
                    "collect"
                }
                _ => {
                    // Half the time the highest ingress with a route,
                    // which then gets none half the time.
                    let highest = model.iter().map(|r| r.ingress).max();
                    let (l, n) = match highest {
                        Some(l) if rng.gen_bool(0.5) => (l, rng.gen_range(0..2usize)),
                        _ => (
                            EntryPortId(rng.gen_range(0..PORTS)),
                            rng.gen_range(0..3usize),
                        ),
                    };
                    let routes: Vec<Route> = (0..n).map(|_| random_route(&mut rng, l)).collect();
                    set.replace_ingress(l, routes.clone());
                    model.retain(|r| r.ingress != l);
                    model.extend(routes);
                    "replace_ingress"
                }
            };
            assert_reads_as(&set, &model, &format!("case {case} step {step} {op}"));
        }
    }
}

#[test]
fn replacing_the_highest_ingress_by_none_reads_as_never_having_it() {
    let l0 = random_route(&mut StdRng::seed_from_u64(1), EntryPortId(0));
    let l4 = random_route(&mut StdRng::seed_from_u64(2), EntryPortId(4));
    let mut set = RouteSet::from_routes(vec![l4.clone(), l0.clone(), l4]);
    set.replace_ingress(EntryPortId(4), Vec::new());
    assert_eq!(set.paths_from(EntryPortId(4)), []);
    assert_eq!(set.paths_from(EntryPortId(0)), [RouteId(0)]);
    assert_reads_as(&set, &[l0], "l4 replaced by none");
}
