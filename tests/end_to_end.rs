//! End-to-end integration tests: the full pipeline (topology → routing →
//! policies → encode → solve → emit tables → verify) through the public
//! `flowplace` facade, across engines, encodings, and features.

use flowplace::classbench::{Generator, PolicySuite, Profile};
use flowplace::core::{tables, verify};
use flowplace::prelude::*;
use flowplace::routing::shortest;

fn small_fat_tree_instance(
    ingresses: usize,
    rules: usize,
    shared: usize,
    capacity: usize,
    seed: u64,
) -> Instance {
    let mut topo = Topology::fat_tree(4);
    topo.set_uniform_capacity(capacity);
    let routes: RouteSet = shortest::routes_per_ingress(&topo, 2, seed)
        .iter()
        .filter(|r| r.ingress.0 < ingresses)
        .cloned()
        .collect();
    let generator = Generator::new(Profile::Firewall, 16).with_seed(seed);
    let suite = PolicySuite::generate(&generator, rules, ingresses, shared);
    let policies: Vec<(EntryPortId, Policy)> = suite
        .policies
        .into_iter()
        .enumerate()
        .map(|(i, p)| (EntryPortId(i), p))
        .collect();
    Instance::new(topo, routes, policies).expect("valid instance")
}

fn options(engine: PlacerEngine, merging: bool, dep: DependencyEncoding) -> PlacementOptions {
    PlacementOptions {
        engine,
        merging,
        dependency: dep,
        greedy_warm_start: true,
        ..PlacementOptions::default()
    }
}

#[test]
fn ilp_placement_verifies_on_fat_tree() {
    let instance = small_fat_tree_instance(6, 10, 0, 60, 42);
    let outcome = par::solve(
        &instance,
        Objective::TotalRules,
        &options(PlacerEngine::Ilp, false, DependencyEncoding::Pairwise),
        None,
    );
    assert_eq!(outcome.status, SolveStatus::Optimal);
    let placement = outcome.placement.unwrap();
    verify::verify_placement(&instance, &placement, 128, 1).expect("semantics preserved");
}

#[test]
fn sat_placement_verifies_on_fat_tree() {
    let instance = small_fat_tree_instance(6, 10, 0, 60, 42);
    let outcome = par::solve(
        &instance,
        Objective::TotalRules,
        &options(PlacerEngine::Sat, false, DependencyEncoding::Pairwise),
        None,
    );
    assert_eq!(outcome.status, SolveStatus::Feasible);
    let placement = outcome.placement.unwrap();
    verify::verify_placement(&instance, &placement, 128, 2).expect("semantics preserved");
}

#[test]
fn all_dependency_encodings_reach_same_objective() {
    let instance = small_fat_tree_instance(5, 8, 0, 25, 7);
    let mut objectives = Vec::new();
    for dep in [DependencyEncoding::Pairwise, DependencyEncoding::Lazy] {
        let outcome = par::solve(
            &instance,
            Objective::TotalRules,
            &options(PlacerEngine::Ilp, false, dep),
            None,
        );
        assert_eq!(outcome.status, SolveStatus::Optimal, "encoding {dep:?}");
        objectives.push(outcome.objective.unwrap());
    }
    assert!((objectives[0] - objectives[1]).abs() < 1e-6);
}

#[test]
fn merging_never_increases_total_rules_and_verifies() {
    let instance = small_fat_tree_instance(6, 8, 4, 40, 9);
    let plain = par::solve(
        &instance,
        Objective::TotalRules,
        &options(PlacerEngine::Ilp, false, DependencyEncoding::Lazy),
        None,
    );
    let merged = par::solve(
        &instance,
        Objective::TotalRules,
        &options(PlacerEngine::Ilp, true, DependencyEncoding::Lazy),
        None,
    );
    let p0 = plain.placement.expect("plain feasible");
    let p1 = merged.placement.expect("merged feasible");
    assert!(
        p1.total_rules() <= p0.total_rules(),
        "merging must not cost entries: {} > {}",
        p1.total_rules(),
        p0.total_rules()
    );
    verify::verify_placement(&instance, &p1, 128, 3).expect("merged semantics preserved");
}

#[test]
fn sat_and_ilp_agree_on_feasibility() {
    // Sweep capacity through the transition; the two engines must agree
    // on feasible vs infeasible at every point.
    for capacity in [2usize, 4, 8, 16, 48] {
        let instance = small_fat_tree_instance(4, 8, 0, capacity, 11);
        let ilp = par::solve(
            &instance,
            Objective::TotalRules,
            &options(PlacerEngine::Ilp, false, DependencyEncoding::Pairwise),
            None,
        );
        let sat = par::solve(
            &instance,
            Objective::TotalRules,
            &options(PlacerEngine::Sat, false, DependencyEncoding::Pairwise),
            None,
        );
        let ilp_feasible = ilp.placement.is_some();
        let sat_feasible = sat.placement.is_some();
        assert_eq!(
            ilp_feasible, sat_feasible,
            "engines disagree at capacity {capacity}"
        );
    }
}

#[test]
fn emitted_tables_respect_capacity() {
    let instance = small_fat_tree_instance(6, 12, 2, 30, 17);
    let outcome = par::solve(
        &instance,
        Objective::TotalRules,
        &options(PlacerEngine::Ilp, true, DependencyEncoding::Lazy),
        None,
    );
    let Some(placement) = outcome.placement else {
        panic!("expected feasible at capacity 30");
    };
    let tables = tables::emit_tables(&instance, &placement).unwrap();
    for (i, t) in tables.iter().enumerate() {
        assert!(
            t.len() <= instance.topology().capacity(SwitchId(i)),
            "switch {i} exceeds capacity: {} > {}",
            t.len(),
            instance.topology().capacity(SwitchId(i))
        );
    }
    // The placement's load accounting matches the emitted tables.
    let load = placement.per_switch_load(&instance);
    for (i, t) in tables.iter().enumerate() {
        assert_eq!(t.len(), load[i], "load accounting for switch {i}");
    }
}

#[test]
fn distance_weighted_prefers_upstream() {
    let instance = small_fat_tree_instance(4, 8, 0, 200, 23);
    let total = par::solve(
        &instance,
        Objective::TotalRules,
        &options(PlacerEngine::Ilp, false, DependencyEncoding::Pairwise),
        None,
    )
    .placement
    .unwrap();
    let upstream = par::solve(
        &instance,
        Objective::DistanceWeighted,
        &options(PlacerEngine::Ilp, false, DependencyEncoding::Pairwise),
        None,
    )
    .placement
    .unwrap();
    // Mean hop distance of placed rules must not increase.
    let mean_loc = |p: &Placement| -> f64 {
        let mut sum = 0usize;
        let mut count = 0usize;
        for ((ingress, _), switches) in p.iter() {
            for s in switches {
                sum += instance.routes().loc(ingress, s).unwrap_or(0);
                count += 1;
            }
        }
        sum as f64 / count.max(1) as f64
    };
    assert!(
        mean_loc(&upstream) <= mean_loc(&total) + 1e-9,
        "distance-weighted placement sits further downstream"
    );
    verify::verify_placement(&instance, &upstream, 64, 4).expect("verified");
}

#[test]
fn redundancy_removal_pre_pass_preserves_outcome_feasibility() {
    // Fig. 4 optional pre-pass: solving the reduced policies must stay
    // feasible and verified against the *reduced* policies.
    let instance = small_fat_tree_instance(4, 12, 0, 60, 31);
    let reduced: Vec<(EntryPortId, Policy)> = instance
        .policies()
        .map(|(l, q)| (l, flowplace::acl::redundancy::remove_redundant(q).policy))
        .collect();
    let reduced_instance = Instance::new(
        instance.topology().clone(),
        instance.routes().clone(),
        reduced,
    )
    .unwrap();
    let outcome = par::solve(
        &reduced_instance,
        Objective::TotalRules,
        &options(PlacerEngine::Ilp, false, DependencyEncoding::Lazy),
        None,
    );
    let placement = outcome.placement.expect("reduced instance feasible");
    verify::verify_placement(&reduced_instance, &placement, 128, 5).expect("verified");
    // And the deployment of the reduced policy equals the original
    // policy's semantics (since reduction is equivalence-preserving).
    let tables = tables::emit_tables(&reduced_instance, &placement).unwrap();
    for route in instance.routes().iter() {
        let original = instance.policy(route.ingress).unwrap();
        for rule in original.rules() {
            let pkt = rule.match_field().sample_packet();
            let expected = original.evaluate(&pkt);
            let actual = verify::evaluate_route(&tables, route, &pkt);
            assert_eq!(expected, actual, "packet {pkt} on {route}");
        }
    }
}

#[test]
fn placement_over_full_ecmp_path_set_verifies() {
    use flowplace::routing::kshortest;
    let mut topo = Topology::fat_tree(4);
    topo.set_uniform_capacity(6);
    let routes = kshortest::ecmp_routes(&topo, &[(EntryPortId(0), EntryPortId(15))], 100);
    assert_eq!(routes.len(), 4, "(k/2)^2 equal-cost paths across pods");
    let policy = Policy::from_ordered(vec![
        (Ternary::parse("1100").unwrap(), Action::Permit),
        (Ternary::parse("1***").unwrap(), Action::Drop),
    ])
    .unwrap();
    let instance = Instance::new(topo, routes, vec![(EntryPortId(0), policy)]).unwrap();
    let outcome = par::solve(
        &instance,
        Objective::TotalRules,
        &PlacementOptions::default(),
        None,
    );
    let p = outcome.placement.expect("feasible");
    // The shared ingress edge switch covers all four paths with one pair.
    assert_eq!(p.total_rules(), 2);
    flowplace::core::verify::verify_placement_exhaustive(&instance, &p).unwrap();
}
