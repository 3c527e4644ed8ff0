//! Incremental deployment: tenants join, routes change, rules arrive.
//!
//! Reproduces the paper's §IV-E workflow: solve the initial configuration
//! with the full ILP, then handle updates in milliseconds against the
//! spare capacity — new tenant policies via a restricted sub-ILP, a
//! routing change via per-policy re-placement, and a single security rule
//! via the ingress-first greedy heuristic.
//!
//! Run with: `cargo run --release --example incremental_update`

use flowplace::classbench::{Generator, Profile};
use flowplace::core::{incremental, verify};
use flowplace::prelude::*;
use flowplace::routing::shortest;
use flowplace_rng::StdRng;
use std::time::Instant;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut topo = Topology::fat_tree(4);
    topo.set_uniform_capacity(30);
    let n_hosts = topo.entry_port_count();

    // Initial configuration: half the hosts are active tenants.
    let generator = Generator::new(Profile::Acl, 16).with_seed(3);
    let mut routes = RouteSet::new();
    let mut rng = StdRng::seed_from_u64(21);
    let mut policies = Vec::new();
    for i in 0..n_hosts / 2 {
        let ingress = EntryPortId(i);
        for egress in [EntryPortId(n_hosts - 1 - i), EntryPortId(n_hosts - 2 - i)] {
            if let Some(r) = shortest::shortest_path(&topo, ingress, egress, &mut rng) {
                routes.push(r);
            }
        }
        policies.push((ingress, generator.policy(10, i as u64)));
    }
    let instance = Instance::new(topo, routes, policies)?;

    let options = PlacementOptions {
        greedy_warm_start: true,
        ..PlacementOptions::default()
    };
    let placer = RulePlacer::new(options.clone());
    let t = Instant::now();
    let outcome = placer.place(&instance, Objective::TotalRules);
    let took = t.elapsed();
    let placement = outcome.placement.expect("initial configuration feasible");
    println!(
        "initial solve: {} rules in {took:?} (full ILP)",
        placement.total_rules()
    );

    // --- Update 1: a new tenant joins (restricted sub-problem). ---
    let new_ingress = EntryPortId(n_hosts - 1);
    let new_policy = generator.policy(10, 999);
    let mut new_routes = Vec::new();
    for egress in [EntryPortId(0), EntryPortId(1)] {
        if let Some(r) = shortest::shortest_path(instance.topology(), new_ingress, egress, &mut rng)
        {
            new_routes.push(r);
        }
    }
    let t = Instant::now();
    let out = incremental::install_policies(
        &instance,
        &placement,
        vec![(new_ingress, new_policy, new_routes)],
        &options,
        Objective::TotalRules,
    )?;
    println!(
        "tenant join: {} in {:?} (sub-problem only)",
        out.status,
        t.elapsed()
    );
    let (instance, placement) = (out.instance, out.placement.expect("tenant fits"));
    verify::verify_placement(&instance, &placement, 32, 9)?;

    // --- Update 2: a routing change for one tenant. ---
    let moved = EntryPortId(0);
    let mut rerouted = Vec::new();
    for egress in [EntryPortId(n_hosts / 2), EntryPortId(n_hosts / 2 + 1)] {
        if let Some(r) = shortest::shortest_path(instance.topology(), moved, egress, &mut rng) {
            rerouted.push(r);
        }
    }
    let t = Instant::now();
    let out = incremental::reroute_policy(
        &instance,
        &placement,
        moved,
        rerouted,
        &options,
        Objective::TotalRules,
    )?;
    println!("route change: {} in {:?}", out.status, t.elapsed());
    let (instance, placement) = (out.instance, out.placement.expect("reroute fits"));
    verify::verify_placement(&instance, &placement, 32, 10)?;

    // --- Update 3: an urgent blacklist rule via the greedy heuristic. ---
    let urgent = Rule::new(Ternary::parse("1111111100000000")?, Action::Drop, 0);
    let t = Instant::now();
    let out = incremental::add_rule_greedy(&instance, &placement, moved, urgent)?;
    println!(
        "urgent rule: {} in {:?} (greedy, no solver)",
        out.status,
        t.elapsed()
    );
    let placement = out.placement.expect("one rule fits");
    verify::verify_placement(&out.instance, &placement, 32, 11)?;
    println!("all incremental updates verified");
    Ok(())
}
