//! Multi-tenant datacenter ACL deployment on a fat-tree.
//!
//! The scenario from the paper's introduction: a k=4 fat-tree datacenter
//! where every host (tenant ingress) carries its own ClassBench-style
//! firewall policy plus a network-wide blacklist shared by all tenants.
//! The optimizer places all policies at once, sharing blacklist rules
//! across tenants (§IV-B merging), and the result is verified end-to-end.
//!
//! Run with: `cargo run --release --example datacenter_acl`

use std::time::Instant;

use flowplace::classbench::{Generator, PolicySuite, Profile};
use flowplace::core::verify;
use flowplace::prelude::*;
use flowplace::routing::shortest;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let k = 4;
    let mut topo = Topology::fat_tree(k);
    topo.set_uniform_capacity(40);
    println!("{topo}");

    // Shortest-path routes: 2 destinations per tenant ingress (tenants
    // occupy the first half of the host ports).
    let tenants = topo.entry_port_count() / 2;
    let mut routes: RouteSet = shortest::routes_per_ingress(&topo, 2, 7)
        .iter()
        .filter(|r| r.ingress.0 < tenants)
        .cloned()
        .collect();
    flowplace::routing::assign_destination_flows(&mut routes, 16, 4);
    println!("routing: {} paths", routes.len());

    // Per-tenant policies (8 own rules each) + 3 shared blacklist rules.
    let generator = Generator::new(Profile::Firewall, 16).with_seed(11);
    let suite = PolicySuite::generate(&generator, 8, tenants, 3);
    println!(
        "policies: {} tenants x {} rules ({} shared blacklist rules)",
        suite.policies.len(),
        suite.policies[0].len(),
        suite.shared.len()
    );

    let policies: Vec<(EntryPortId, Policy)> = suite
        .policies
        .iter()
        .enumerate()
        .map(|(i, p)| (EntryPortId(i), p.clone()))
        .collect();
    let instance = Instance::new(topo, routes, policies)?;

    for (label, merging) in [("without merging", false), ("with merging", true)] {
        let placer = RulePlacer::new(PlacementOptions {
            merging,
            greedy_warm_start: true,
            ..PlacementOptions::default()
        });
        let t = Instant::now();
        let outcome = placer.place(&instance, Objective::TotalRules);
        let took = t.elapsed();
        match &outcome.placement {
            None => println!("{label}: {}", outcome.status),
            Some(placement) => {
                println!(
                    "{label}: {} — {} rules installed, {:.1}% duplication overhead, \
                     {} merge groups, solved in {took:?}",
                    outcome.status,
                    placement.total_rules(),
                    placement.duplication_overhead(&instance) * 100.0,
                    placement.merge_groups().len()
                );
                verify::verify_placement(&instance, placement, 64, 5)?;
                println!("{label}: verification passed");
            }
        }
    }
    Ok(())
}
