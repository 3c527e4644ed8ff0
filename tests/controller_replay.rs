//! End-to-end tests of the controller runtime on the shipped demo
//! trace: the escalation ladder fires greedy → restricted → full as
//! capacity tightens, every epoch passes golden-model verification, and
//! replay is byte-for-byte deterministic.

use flowplace::core::tables::emit_tables;
use flowplace::ctrl::{parse_trace, Controller, CtrlOptions, CtrlStats, EpochReport, Tier};
use flowplace::prelude::*;

const TRACE: &str = include_str!("../traces/controller_demo.trace");

fn fresh_controller() -> Controller {
    // Mirrors the `flowplace ctrl replay` CLI defaults.
    let mut topo = Topology::linear(4);
    topo.set_uniform_capacity(16);
    Controller::new(topo, CtrlOptions::default())
}

fn replay_demo() -> (Vec<EpochReport>, String, CtrlStats, Controller) {
    let mut ctrl = fresh_controller();
    let reports = ctrl.replay_trace(TRACE).expect("demo trace replays");
    let dump = ctrl.dataplane().dump();
    let stats = ctrl.stats().clone();
    (reports, dump, stats, ctrl)
}

#[test]
fn demo_trace_is_big_enough() {
    let events = parse_trace(TRACE).expect("demo trace parses");
    assert!(
        events.len() >= 50,
        "demo trace has only {} events",
        events.len()
    );
}

#[test]
fn every_epoch_verifies_and_every_event_applies() {
    let (reports, _, stats, ctrl) = replay_demo();
    assert!(!reports.is_empty());
    assert_eq!(stats.verify_failures, 0, "an epoch failed verification");
    assert_eq!(
        stats.events_failed, 0,
        "an event was rejected: {reports:#?}"
    );
    assert_eq!(ctrl.pending(), 0, "queue drained");
    // The dataplane never exceeds the final capacities.
    for (i, cap) in ctrl.instance().topology().capacities().iter().enumerate() {
        let occ = ctrl.dataplane().switch(SwitchId(i)).occupancy();
        assert!(occ <= *cap, "s{i}: {occ} entries exceed capacity {cap}");
    }
}

#[test]
fn tiers_escalate_as_capacity_tightens() {
    let (reports, _, stats, _) = replay_demo();

    // All three tiers fire over the trace.
    assert!(stats.greedy_ok >= 20, "greedy tier underused: {stats:?}");
    assert!(
        stats.restricted_ok >= 2,
        "restricted tier never fired: {stats:?}"
    );
    assert!(stats.full_ok >= 2, "full tier never fired: {stats:?}");

    // And they first fire in ladder order: the rule burst settles
    // greedily before anything needs a restricted re-place, and the
    // full re-solves only start once capacity tightens.
    let tiers: Vec<Tier> = reports.iter().flat_map(|r| r.tiers()).collect();
    let first = |t: Tier| tiers.iter().position(|&x| x == t);
    let (g, r, f) = (
        first(Tier::Greedy).expect("a greedy event"),
        first(Tier::Restricted).expect("a restricted event"),
        first(Tier::Full).expect("a full event"),
    );
    assert!(r < f, "restricted fired at {r}, after full at {f}");
    assert!(g < f, "greedy fired at {g}, after full at {f}");

    // The identical event kind lands on different rungs depending on
    // how tight capacity is: `capacity s1 16` keeps the deployed
    // placement (greedy), `capacity s0 4` forces a global re-solve.
    let outcome_of = |needle: &str| {
        reports
            .iter()
            .flat_map(|r| &r.outcomes)
            .find(|(e, _)| e.to_string() == needle)
            .map(|(_, o)| o.clone())
            .unwrap_or_else(|| panic!("event `{needle}` not found"))
    };
    use flowplace::ctrl::EventOutcome;
    assert_eq!(
        outcome_of("capacity s1 16"),
        EventOutcome::Applied(Tier::Greedy),
        "a loose capacity change must not re-solve"
    );
    assert_eq!(
        outcome_of("capacity s0 4"),
        EventOutcome::Applied(Tier::Full),
        "shrinking the hot ingress switch must force a full re-solve"
    );
    assert_eq!(outcome_of("solve"), EventOutcome::Applied(Tier::Full));
}

#[test]
fn replaying_twice_is_byte_identical() {
    let (_, dump_a, stats_a, _) = replay_demo();
    let (_, dump_b, stats_b, _) = replay_demo();
    assert_eq!(dump_a, dump_b, "dataplane dumps diverged between runs");
    assert_eq!(stats_a, stats_b, "stats diverged between runs");
    assert!(!dump_a.is_empty());
}

#[test]
fn tiny_batches_commit_more_epochs_but_converge_identically() {
    let (_, dump_default, _, _) = replay_demo();

    let mut topo = Topology::linear(4);
    topo.set_uniform_capacity(16);
    let mut ctrl = Controller::new(
        topo,
        CtrlOptions {
            batch_size: 1,
            ..CtrlOptions::default()
        },
    );
    let reports = ctrl.replay_trace(TRACE).expect("unbatched replay works");
    let events = parse_trace(TRACE).unwrap().len();
    assert_eq!(reports.len(), events, "batch_size 1 => one epoch per event");
    assert_eq!(ctrl.stats().verify_failures, 0);
    assert_eq!(
        ctrl.dataplane().dump(),
        dump_default,
        "batching must not change the converged dataplane"
    );
}

/// Op-by-op installs keep each TCAM in the emitter's order: after every
/// epoch of the fault-free demo replay (cache tier off), each switch's
/// deployed entries equal the tables emitted from the committed
/// placement, element for element.
#[test]
fn installs_leave_every_table_in_emitter_order() {
    let mut ctrl = fresh_controller();
    for event in parse_trace(TRACE).expect("demo trace parses") {
        ctrl.submit(event).expect("queue has room");
    }
    let mut epochs = 0;
    while ctrl.run_epoch().expect("epoch commits").is_some() {
        epochs += 1;
        let tables = emit_tables(ctrl.instance(), ctrl.placement()).expect("tables emit");
        for (s, table) in tables.iter().enumerate() {
            assert_eq!(
                ctrl.dataplane().switch(SwitchId(s)).entries(),
                table.entries(),
                "epoch {epochs}: s{s} differs from the emitted table"
            );
        }
    }
    assert!(epochs >= 7, "only {epochs} epochs ran");
}
