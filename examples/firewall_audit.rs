//! Firewall policy audit: redundancy removal, dependency analysis,
//! path-slicing statistics.
//!
//! The optional pre-passes of the paper's Figure 4 flow chart as a
//! standalone tool: generate (or imagine importing) a firewall policy,
//! strip redundant rules with an exact equivalence-preserving pass,
//! inspect the permit/drop dependency graph that drives placement, and
//! measure how much §IV-C path slicing shrinks the problem.
//!
//! Run with: `cargo run --example firewall_audit`

use flowplace::acl::redundancy;
use flowplace::classbench::{Generator, Profile};
use flowplace::core::{depgraph::DependencyGraph, slicing};
use flowplace::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let generator = Generator::new(Profile::Firewall, 16).with_seed(17);
    let policy = generator.policy(40, 0);
    println!("generated policy: {} rules", policy.len());

    // Exact redundancy removal (all-match, refs [7-9] of the paper).
    let report = redundancy::remove_redundant(&policy);
    println!(
        "redundancy removal: {} rules removed, {} kept",
        report.removed_count(),
        report.policy.len()
    );
    for (id, rule, kind) in &report.removed {
        println!("  removed {id} {rule} ({kind:?})");
    }
    let policy = report.policy;

    // Dependency graph: what placing each DROP drags along.
    let graph = DependencyGraph::build(&policy);
    println!("{graph}");
    let mut heaviest: Vec<(RuleId, usize)> = policy
        .drop_rules()
        .map(|w| (w, graph.permits_required_by(w).len()))
        .collect();
    heaviest.sort_by_key(|(_, n)| std::cmp::Reverse(*n));
    for (w, n) in heaviest.iter().take(5) {
        println!("  {} drags {} permit shield(s)", policy.rule(*w), n);
    }

    // Graphviz export for documentation / review.
    let dot = graph.to_dot(&policy);
    println!(
        "dependency graph DOT export: {} bytes (pipe to `dot -Tsvg`)",
        dot.len()
    );

    // Path slicing: how many rules each route actually needs.
    let flows = ["0000", "0001", "0010", "0011"];
    println!("path slicing on destination sub-flows (low 4 bits):");
    for f in flows {
        let flow = Ternary::parse(&format!("************{f}"))?;
        let route = Route::new(EntryPortId(0), EntryPortId(1), vec![SwitchId(0)]).with_flow(flow);
        let kept = slicing::sliced_rules(&policy, &route).count();
        println!(
            "  flow dst={f}: {kept}/{} rules needed ({:.0}% sliced away)",
            policy.len(),
            100.0 * (1.0 - kept as f64 / policy.len() as f64)
        );
    }
    Ok(())
}
