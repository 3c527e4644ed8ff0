//! A datacenter lifecycle scenario: initial deployment, then a chain of
//! incremental updates (tenants joining, reroutes, urgent rules), with
//! golden-model verification and capacity accounting after every step —
//! the §IV-E workflow end to end.

use flowplace::classbench::{Generator, Profile};
use flowplace::core::{incremental, verify};
use flowplace::prelude::*;
use flowplace::routing::shortest;
use flowplace_rng::StdRng;

fn options() -> PlacementOptions {
    PlacementOptions {
        greedy_warm_start: true,
        ..PlacementOptions::default()
    }
}

fn assert_capacity_respected(instance: &Instance, placement: &Placement) {
    let load = placement.per_switch_load(instance);
    for (i, l) in load.iter().enumerate() {
        assert!(
            *l <= instance.topology().capacity(SwitchId(i)),
            "switch {i} over capacity: {} > {}",
            l,
            instance.topology().capacity(SwitchId(i))
        );
    }
}

#[test]
fn lifecycle_with_rolling_updates() {
    let mut topo = Topology::fat_tree(4);
    topo.set_uniform_capacity(60);
    let generator = Generator::new(Profile::Acl, 16).with_seed(5);
    let mut rng = StdRng::seed_from_u64(55);

    // Day 0: four tenants.
    let mut routes = RouteSet::new();
    let mut policies = Vec::new();
    for i in 0..4usize {
        let ingress = EntryPortId(i);
        for egress in [EntryPortId(12 + i), EntryPortId(8 + i)] {
            routes.push(
                shortest::shortest_path(&topo, ingress, egress, &mut rng).expect("connected"),
            );
        }
        policies.push((ingress, generator.policy(12, i as u64)));
    }
    let mut instance = Instance::new(topo, routes, policies).unwrap();
    let outcome = RulePlacer::new(options()).place(&instance, Objective::TotalRules);
    let mut placement = outcome.placement.expect("day 0 feasible");
    verify::verify_placement(&instance, &placement, 64, 100).unwrap();
    assert_capacity_respected(&instance, &placement);
    let day0 = outcome.stats;

    // Weeks 1..3: one new tenant each, via restricted sub-solves.
    for week in 0..3usize {
        let ingress = EntryPortId(4 + week);
        let route = shortest::shortest_path(
            instance.topology(),
            ingress,
            EntryPortId(15 - week),
            &mut rng,
        )
        .expect("connected");
        let out = incremental::install_policies(
            &instance,
            &placement,
            vec![(
                ingress,
                generator.policy(12, 100 + week as u64),
                vec![route],
            )],
            &options(),
            Objective::TotalRules,
        )
        .unwrap();
        assert_eq!(out.status, SolveStatus::Optimal, "week {week} install");
        instance = out.instance;
        placement = out.placement.unwrap();
        verify::verify_placement(&instance, &placement, 64, 101 + week as u64).unwrap();
        assert_capacity_respected(&instance, &placement);
        // The sub-problem models one tenant, not the whole network.
        assert!(
            out.stats.variables < day0.variables,
            "week {week}: incremental {} vars vs full {}",
            out.stats.variables,
            day0.variables
        );
    }

    // A maintenance reroute for tenant 1.
    let mut new_routes = Vec::new();
    for egress in [EntryPortId(10), EntryPortId(11)] {
        new_routes.push(
            shortest::shortest_path(instance.topology(), EntryPortId(1), egress, &mut rng)
                .expect("connected"),
        );
    }
    let out = incremental::reroute_policy(
        &instance,
        &placement,
        EntryPortId(1),
        new_routes,
        &options(),
        Objective::TotalRules,
    )
    .unwrap();
    assert_eq!(out.status, SolveStatus::Optimal);
    instance = out.instance;
    placement = out.placement.unwrap();
    verify::verify_placement(&instance, &placement, 64, 200).unwrap();
    assert_capacity_respected(&instance, &placement);

    // An urgent blacklist rule for every tenant, greedily.
    let urgent = Ternary::parse("1111000011110000").unwrap();
    let ingresses: Vec<EntryPortId> = instance.policies().map(|(l, _)| l).collect();
    for (i, ingress) in ingresses.into_iter().enumerate() {
        let top = instance
            .policy(ingress)
            .unwrap()
            .rules()
            .first()
            .map(|r| r.priority() + 1)
            .unwrap_or(1);
        let out = incremental::add_rule_greedy(
            &instance,
            &placement,
            ingress,
            Rule::new(urgent, Action::Drop, top),
        )
        .unwrap();
        assert_eq!(
            out.status,
            SolveStatus::Feasible,
            "urgent rule for {ingress}"
        );
        instance = out.instance;
        placement = out.placement.unwrap();
        verify::verify_placement(&instance, &placement, 32, 300 + i as u64).unwrap();
        assert_capacity_respected(&instance, &placement);
    }

    // Final sanity: the network now blacklists `urgent` from every
    // covered ingress.
    let tables = flowplace::core::tables::emit_tables(&instance, &placement).unwrap();
    for route in instance.routes().iter() {
        let policy = instance.policy(route.ingress).unwrap();
        let pkt = urgent.sample_packet();
        assert_eq!(policy.evaluate(&pkt), Action::Drop);
        assert_eq!(
            verify::evaluate_route(&tables, route, &pkt),
            Action::Drop,
            "urgent traffic must die on {route}"
        );
    }
}
