//! Regression tests pinning the paper's worked examples, end to end
//! through the public API.

use flowplace::core::{tables, verify};
use flowplace::prelude::*;
use flowplace::topo::TopologyBuilder;

/// The Figure 3 instance: ingress l1, paths s1-s2-s3 and s1-s2-s4-s5,
/// policy {r11 PERMIT 1100, r12 DROP 11**, r13 DROP 0***}.
fn figure3(capacity: usize) -> (Instance, EntryPortId) {
    let mut b = TopologyBuilder::new();
    let s: Vec<SwitchId> = (1..=5)
        .map(|i| b.add_switch(format!("s{i}"), capacity))
        .collect();
    b.add_link(s[0], s[1]).unwrap();
    b.add_link(s[1], s[2]).unwrap();
    b.add_link(s[1], s[3]).unwrap();
    b.add_link(s[3], s[4]).unwrap();
    let l1 = b.add_entry_port("l1", s[0]).unwrap();
    let l2 = b.add_entry_port("l2", s[2]).unwrap();
    let l3 = b.add_entry_port("l3", s[4]).unwrap();
    let topo = b.build();
    let mut routes = RouteSet::new();
    routes.push(Route::new(l1, l2, vec![s[0], s[1], s[2]]));
    routes.push(Route::new(l1, l3, vec![s[0], s[1], s[3], s[4]]));
    let policy = Policy::from_ordered(vec![
        (Ternary::parse("1100").unwrap(), Action::Permit),
        (Ternary::parse("11**").unwrap(), Action::Drop),
        (Ternary::parse("0***").unwrap(), Action::Drop),
    ])
    .unwrap();
    (Instance::new(topo, routes, vec![(l1, policy)]).unwrap(), l1)
}

#[test]
fn figure3_loose_capacity_shares_everything() {
    let (instance, _) = figure3(10);
    let outcome = par::solve(
        &instance,
        Objective::TotalRules,
        &PlacementOptions::default(),
        None,
    );
    let p = outcome.placement.unwrap();
    assert_eq!(p.total_rules(), 3, "everything fits on the shared prefix");
    verify::verify_placement(&instance, &p, 256, 0).unwrap();
}

#[test]
fn figure3_capacity_one_replicates_r13_like_the_paper() {
    // The paper's drawn solution (capacity-constrained): the (r11, r12)
    // pair on one switch and r13 replicated on both branches. With
    // capacity 2 everything still fits in 3 entries via the shared
    // prefix; with per-switch capacity 2 but s1 and s2 capped at 1 the
    // pair is forced to one switch and r13 must replicate.
    let (instance, l1) = figure3(2);
    let mut topo = instance.topology().clone();
    topo.set_capacity(SwitchId(0), 0); // s1: no ACL slots at all
    topo.set_capacity(SwitchId(1), 2); // s2 takes exactly the pair
    topo.set_capacity(SwitchId(2), 1); // s3
    topo.set_capacity(SwitchId(3), 1); // s4
    topo.set_capacity(SwitchId(4), 1); // s5
    let instance = Instance::new(
        topo,
        instance.routes().clone(),
        instance.policies().map(|(l, q)| (l, q.clone())).collect(),
    )
    .unwrap();
    let outcome = par::solve(
        &instance,
        Objective::TotalRules,
        &PlacementOptions::default(),
        None,
    );
    let p = outcome.placement.expect("feasible");
    // r13 (RuleId(2)) must appear on both branches: once for the s3 path
    // and once for the s4/s5 path (it cannot fit on shared s1/s2 next to
    // the pair).
    let r13: Vec<SwitchId> = p.switches_of(l1, RuleId(2)).collect();
    assert!(r13.len() >= 2, "r13 replicated: {r13:?}");
    assert_eq!(p.total_rules(), 4, "pair + two copies of r13");
    verify::verify_placement(&instance, &p, 256, 1).unwrap();
}

#[test]
fn figure3_distance_weighted_places_at_ingress() {
    let (instance, l1) = figure3(10);
    let outcome = par::solve(
        &instance,
        Objective::DistanceWeighted,
        &PlacementOptions::default(),
        None,
    );
    let p = outcome.placement.unwrap();
    for r in 0..3 {
        assert_eq!(
            p.switches_of(l1, RuleId(r)).collect::<Vec<_>>(),
            vec![SwitchId(0)],
            "rule {r} sits on the ingress switch"
        );
    }
}

/// Figure 6: two routes with disjoint destination flows only need the
/// rules overlapping their flow.
#[test]
fn figure6_path_slicing_drops_irrelevant_rules() {
    let mut b = TopologyBuilder::new();
    let s0 = b.add_switch("ingress", 10);
    let s1 = b.add_switch("red", 10);
    let s2 = b.add_switch("blue", 10);
    b.add_link(s0, s1).unwrap();
    b.add_link(s0, s2).unwrap();
    let l0 = b.add_entry_port("l0", s0).unwrap();
    let red = b.add_entry_port("red-host", s1).unwrap();
    let blue = b.add_entry_port("blue-host", s2).unwrap();
    let topo = b.build();
    let mut routes = RouteSet::new();
    // Red route carries dst=01 packets; blue carries dst=10.
    routes.push(Route::new(l0, red, vec![s0, s1]).with_flow(Ternary::parse("**01").unwrap()));
    routes.push(Route::new(l0, blue, vec![s0, s2]).with_flow(Ternary::parse("**10").unwrap()));
    // Rule 1 matches only red traffic, rule 2 only blue, rule 3 both.
    let policy = Policy::from_ordered(vec![
        (Ternary::parse("1*01").unwrap(), Action::Drop),
        (Ternary::parse("1*10").unwrap(), Action::Drop),
        (Ternary::parse("0***").unwrap(), Action::Drop),
    ])
    .unwrap();
    let instance = Instance::new(topo, routes, vec![(l0, policy)]).unwrap();
    let outcome = par::solve(
        &instance,
        Objective::TotalRules,
        &PlacementOptions::default(),
        None,
    );
    let p = outcome.placement.unwrap();
    // Optimal: rule 3 once at the shared ingress, rules 1 and 2 once
    // each (anywhere on their own route) = 3 entries; without slicing it
    // would need rule1+rule2 considered on both routes.
    assert_eq!(p.total_rules(), 3);
    verify::verify_placement(&instance, &p, 256, 2).unwrap();
}

/// §IV-A5: rules of different policies are isolated by tags inside a
/// shared switch — a packet entering at l1 never hits l0's rules.
#[test]
fn tag_isolation_between_policies() {
    let mut b = TopologyBuilder::new();
    let mid = b.add_switch("mid", 10);
    let a = b.add_switch("a", 10);
    let c = b.add_switch("c", 10);
    b.add_link(a, mid).unwrap();
    b.add_link(mid, c).unwrap();
    let l0 = b.add_entry_port("l0", a).unwrap();
    let l1 = b.add_entry_port("l1", c).unwrap();
    let topo = b.build();
    let mut routes = RouteSet::new();
    routes.push(Route::new(l0, l1, vec![a, mid, c]));
    routes.push(Route::new(l1, l0, vec![c, mid, a]));
    // l0 drops everything 1***; l1 permits everything (empty policy).
    let q0 = Policy::from_ordered(vec![(Ternary::parse("1***").unwrap(), Action::Drop)]).unwrap();
    let q1 = Policy::from_rules(vec![]).unwrap();
    let instance = Instance::new(topo, routes, vec![(l0, q0), (l1, q1)]).unwrap();
    let outcome = par::solve(
        &instance,
        Objective::TotalRules,
        &PlacementOptions::default(),
        None,
    );
    let p = outcome.placement.unwrap();
    let tables = tables::emit_tables(&instance, &p).unwrap();
    let pkt = Packet::from_bits(0b1010, 4);
    // l0's traffic is dropped...
    let r0 = instance.routes().route(RouteId(0));
    assert_eq!(verify::evaluate_route(&tables, r0, &pkt), Action::Drop);
    // ...but the same header entering at l1 passes (tag isolation).
    let r1 = instance.routes().route(RouteId(1));
    assert_eq!(verify::evaluate_route(&tables, r1, &pkt), Action::Permit);
}

/// The paper's tag allocator covers every policy with distinct VLANs.
#[test]
fn vlan_tags_are_distinct() {
    let (instance, _) = figure3(10);
    let tags = flowplace::core::tags::allocate_tags(&instance).unwrap();
    assert_eq!(tags.len(), 1);
    let mut topo = Topology::star(5);
    topo.set_uniform_capacity(10);
    let qs: Vec<(EntryPortId, Policy)> = (0..5)
        .map(|i| {
            (
                EntryPortId(i),
                Policy::from_ordered(vec![(Ternary::parse("1*").unwrap(), Action::Drop)]).unwrap(),
            )
        })
        .collect();
    let inst = Instance::new(topo, RouteSet::new(), qs).unwrap();
    let tags = flowplace::core::tags::allocate_tags(&inst).unwrap();
    let mut values: Vec<u16> = tags.values().map(|t| t.0).collect();
    values.sort_unstable();
    values.dedup();
    assert_eq!(values.len(), 5);
}
