//! Placement over full ECMP path sets, with 5-tuple rules.
//!
//! A realistic deployment combining two library features beyond the
//! paper's core evaluation:
//!
//! * policies written as IPv4 5-tuples (`flowplace::acl::fivetuple`),
//! * routing over *every* equal-cost shortest path (ECMP,
//!   `flowplace::routing::kshortest`) instead of one random path.
//!
//! Run with: `cargo run --release --example fivetuple_ecmp`

use std::net::Ipv4Addr;

use flowplace::acl::fivetuple::{FiveTuple, Ports, Prefix, Protocol, FIVE_TUPLE_WIDTH};
use flowplace::acl::Rule;
use flowplace::core::verify;
use flowplace::prelude::*;
use flowplace::routing::kshortest;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut topo = Topology::fat_tree(4);
    topo.set_uniform_capacity(50);

    // ECMP: all equal-cost paths for four tenant→service pairs.
    let pairs: Vec<(EntryPortId, EntryPortId)> = (0..4)
        .map(|i| (EntryPortId(i), EntryPortId(12 + i)))
        .collect();
    let routes = kshortest::ecmp_routes(&topo, &pairs, 16);
    println!(
        "routing: {} ECMP paths across {} tenant pairs",
        routes.len(),
        pairs.len()
    );

    // Policies written as 5-tuples: permit HTTPS to the service subnet,
    // drop everything else toward it, and blacklist a bad /16.
    let service = Prefix::new(Ipv4Addr::new(203, 0, 113, 0), 24);
    let bad_actor = Prefix::new(Ipv4Addr::new(198, 51, 0, 0), 16);
    let mut policies = Vec::new();
    for i in 0..4 {
        let permit_https = FiveTuple {
            src: Prefix::any(),
            dst: service,
            src_ports: Ports::Any,
            dst_ports: Ports::Exact(443),
            protocol: Protocol::Tcp,
        };
        let drop_bad = FiveTuple {
            src: bad_actor,
            dst: Prefix::any(),
            src_ports: Ports::Any,
            dst_ports: Ports::Any,
            protocol: Protocol::Any,
        };
        let drop_rest = FiveTuple {
            src: Prefix::any(),
            dst: service,
            src_ports: Ports::Any,
            dst_ports: Ports::Range(0, 1023), // privileged ports only
            protocol: Protocol::Any,
        };
        let mut rules = Vec::new();
        let mut priority = 1000u32;
        for (spec, action) in [
            (permit_https, Action::Permit),
            (drop_bad, Action::Drop),
            (drop_rest, Action::Drop),
        ] {
            // A 5-tuple expands to one or more ternary TCAM cubes.
            for cube in spec.to_ternaries() {
                rules.push(Rule::new(cube, action, priority));
                priority -= 1;
            }
        }
        policies.push((EntryPortId(i), Policy::from_rules(rules)?));
    }
    println!(
        "policies: {} tenants, {} TCAM-expanded rules each (width {FIVE_TUPLE_WIDTH})",
        policies.len(),
        policies[0].1.len()
    );

    let instance = Instance::new(topo, routes, policies)?;
    let placer = RulePlacer::new(PlacementOptions {
        greedy_warm_start: true,
        ..PlacementOptions::default()
    });
    let outcome = placer.place(&instance, Objective::TotalRules);
    match outcome.placement {
        None => println!("{}", outcome.status),
        Some(p) => {
            verify::verify_placement(&instance, &p, 64, 3)?;
            println!(
                "{}: {} rules installed over every ECMP path, verified",
                outcome.status,
                p.total_rules()
            );
        }
    }
    Ok(())
}
