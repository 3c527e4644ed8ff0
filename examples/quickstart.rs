//! Quickstart: the paper's Figure 3 worked example.
//!
//! One ingress `l1` with a three-rule policy; packets route to `l2` via
//! `s1,s2,s3` and to `l3` via `s1,s2,s4,s5`. The optimizer places the
//! rules within per-switch capacity, the tables are emitted, and the
//! golden-model verifier replays packets to prove the deployment matches
//! the policy.
//!
//! Run with: `cargo run --example quickstart`

use flowplace::core::{tables, verify};
use flowplace::prelude::*;
use flowplace::topo::TopologyBuilder;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Figure 3 topology: s1-s2-s3 and s2-s4-s5 branches.
    let mut b = TopologyBuilder::new();
    let s: Vec<SwitchId> = (1..=5).map(|i| b.add_switch(format!("s{i}"), 2)).collect();
    b.add_link(s[0], s[1])?;
    b.add_link(s[1], s[2])?;
    b.add_link(s[1], s[3])?;
    b.add_link(s[3], s[4])?;
    let l1 = b.add_entry_port("l1", s[0])?;
    let l2 = b.add_entry_port("l2", s[2])?;
    let l3 = b.add_entry_port("l3", s[4])?;
    let topo = b.build();

    let mut routes = RouteSet::new();
    routes.push(Route::new(l1, l2, vec![s[0], s[1], s[2]]));
    routes.push(Route::new(l1, l3, vec![s[0], s[1], s[3], s[4]]));

    // The policy Q1 attached to ingress l1 (priorities: top rule wins).
    let policy = Policy::from_ordered(vec![
        (Ternary::parse("1100")?, Action::Permit), // r_{1,1}
        (Ternary::parse("11**")?, Action::Drop),   // r_{1,2}
        (Ternary::parse("0***")?, Action::Drop),   // r_{1,3}
    ])?;

    let instance = Instance::new(topo, routes, vec![(l1, policy)])?;
    println!("{instance}");

    let t = std::time::Instant::now();
    let outcome = par::solve(
        &instance,
        Objective::TotalRules,
        &PlacementOptions::default(),
        None,
    );
    println!(
        "solve: {} in {:?} ({} vars, {} rows, {} nodes)",
        outcome.status,
        t.elapsed(),
        outcome.stats.variables,
        outcome.stats.constraints,
        outcome.stats.nodes
    );
    let placement = outcome.placement.expect("Figure 3 is feasible");
    println!(
        "total rules installed: {} (policies hold {})",
        placement.total_rules(),
        instance.total_policy_rules()
    );
    for ((ingress, rule), switches) in placement.iter() {
        let names: Vec<String> = switches
            .iter()
            .map(|s| instance.topology().switch(*s).name.clone())
            .collect();
        println!("  {ingress} {rule} -> {}", names.join(", "));
    }

    // Emit the concrete per-switch TCAM tables.
    let tables = tables::emit_tables(&instance, &placement)?;
    for (i, t) in tables.iter().enumerate() {
        if !t.is_empty() {
            println!("table of {}:", instance.topology().switch(SwitchId(i)).name);
            print!("{t}");
        }
    }

    // Golden-model check: the deployment behaves exactly like the policy.
    verify::verify_placement(&instance, &placement, 256, 42)?;
    println!("verification passed: deployment matches the policy on every path");
    Ok(())
}
