//! Fault tolerance: the controller versus a hostile dataplane.
//!
//! Where `controller_loop` assumes every TCAM write lands, this example
//! turns on the deterministic fault injector: installs bounce and are
//! retried with exponential backoff on a virtual clock, a switch
//! crashes mid-run and its ingresses are re-placed around it, a
//! persistent failure trips the circuit breaker into quarantine — and
//! through all of it the fail-closed audit stays green: a packet the
//! policy drops never crosses a live route un-dropped.
//!
//! The second scenario is a capacity-revocation storm on a star: the
//! hub loses its whole TCAM mid-run, and the delegation rung
//! (DESIGN.md §14) detours the pressured ingress through an off-route
//! leaf with spare capacity instead of dropping it — the same storm
//! with `--delegation off` ends fail-closed in drop-all safe mode.
//!
//! Run with: `cargo run --release --example fault_tolerance`

use flowplace::ctrl::{parse_fault_schedule, DelegationConfig, FaultPlan, RetryPolicy};
use flowplace::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut topo = Topology::linear(4);
    topo.set_uniform_capacity(12);

    // Scripted faults fire at epoch boundaries; probabilistic rates
    // (seeded, liveness-independent draws) layer on top. Same plan +
    // same trace => byte-identical run, every time.
    let schedule = parse_fault_schedule(
        "\
@2 fault install-reject s0 2
@3 fault crash s2
@4 fault recover s2
@4 fault install-reject s0 9
",
    )?;
    let options = CtrlOptions {
        batch_size: 4,
        faults: FaultPlan {
            seed: 7,
            install_reject_rate: 0.05,
            schedule,
            ..FaultPlan::default()
        },
        retry: RetryPolicy { max_attempts: 3 },
        quarantine_after: 2,
        ..CtrlOptions::default()
    };
    let mut ctrl = Controller::new(topo, options);

    let trace = "\
# two tenants, routed in opposite directions
install-policy l0 via l1:s0-s1-s2-s3 rules 10**:drop:2,****:permit:1
install-policy l1 via l0:s3-s2-s1-s0 rules 01**:drop:2,****:permit:1

# blacklist churn rides through the scripted install-rejects
add-rule l0 1111 drop 5
add-rule l1 0000 drop 5
add-rule l0 1100 drop 6
add-rule l1 0011 drop 6

# more churn while s2 is down, then after it recovers
add-rule l0 1010 drop 7
add-rule l1 0101 drop 7
add-rule l0 1001 drop 8
add-rule l1 0110 drop 8

# the re-solve that finally trips s0's breaker into quarantine
add-rule l0 1011 drop 9
add-rule l1 0100 drop 9
solve
";

    let reports = ctrl.replay_trace(trace)?;
    for r in &reports {
        print!(
            "epoch {}: {} events, +{} -{} entries, {} faults",
            r.epoch,
            r.outcomes.len(),
            r.installed,
            r.removed,
            r.injected
        );
        if !r.quarantined.is_empty() {
            print!(", out of service {:?}", r.quarantined);
        }
        println!();
    }

    println!("\n{}", ctrl.stats());
    println!(
        "virtual time spent backing off: {}ms",
        ctrl.virtual_time_ms()
    );
    println!("dataplane after replay:\n{}", ctrl.dataplane().dump());

    // The whole point: whatever the dataplane did, the deployed state
    // never under-drops on a live route.
    ctrl.fail_closed_audit()
        .map_err(|e| format!("fail-closed audit: {e}"))?;
    assert_eq!(ctrl.stats().failclosed_violations, 0);
    println!("fail-closed audit: ok");

    capacity_storm_delegation()
}

/// A TCAM capacity storm the escalation ladder cannot absorb on-route:
/// the star's hub drops to zero entries, leaving the tenant's ten drop
/// rules with eight slots across its two remaining route switches. The
/// delegation rung parks the overflow on an idle off-route leaf behind
/// a reserved redirect stub; the identical storm with the rung disabled
/// degrades to drop-all instead. Both endings are fail-closed.
fn capacity_storm_delegation() -> Result<(), Box<dyn std::error::Error>> {
    println!("\n=== capacity storm: delegation vs drop-all ===");
    let mut topo = Topology::star(4);
    topo.set_uniform_capacity(4);

    // One tenant routed leaf1 -> hub -> leaf2; leaves s3/s4 stay idle
    // off-route — exactly the spare TCAM delegation can borrow.
    let trace = "\
install-policy l0 via l1:s1-s0-s2 rules \
0000:drop:2,0001:drop:3,0010:drop:4,0011:drop:5,0100:drop:6,\
0101:drop:7,0110:drop:8,0111:drop:9,1000:drop:10,1001:drop:11,\
****:permit:1

# the storm: the hub's TCAM bank is revoked outright
capacity s0 0
";

    let mut delegated = Controller::new(topo.clone(), CtrlOptions::default());
    let reports = delegated.replay_trace(trace)?;
    for r in reports.iter().filter(|r| !r.delegated.is_empty()) {
        println!("epoch {}: delegated ingresses {:?}", r.epoch, r.delegated);
    }
    println!(
        "with the rung: {} delegation(s), {} entries parked off-route, \
         {} redirect stub(s), safe-mode ingresses {:?}",
        delegated.stats().delegations,
        delegated.delegated_entries(),
        delegated.stats().delegation_stub_entries,
        delegated.safe_mode_ingresses()
    );

    let without = CtrlOptions {
        delegation: DelegationConfig { enabled: false },
        ..CtrlOptions::default()
    };
    let mut baseline = Controller::new(topo, without);
    baseline.replay_trace(trace)?;
    println!(
        "without it:    safe-mode (drop-all) ingresses {:?}",
        baseline.safe_mode_ingresses()
    );

    // Both arms are fail-closed; only one of them still forwards.
    delegated
        .fail_closed_audit()
        .map_err(|e| format!("delegated fail-closed audit: {e}"))?;
    baseline
        .fail_closed_audit()
        .map_err(|e| format!("baseline fail-closed audit: {e}"))?;
    assert!(delegated.safe_mode_ingresses().is_empty());
    assert!(!baseline.safe_mode_ingresses().is_empty());
    println!("fail-closed audit: ok in both arms");
    Ok(())
}
