//! End-to-end tests of the controller runtime on the shipped demo
//! trace: the escalation ladder fires greedy → restricted → full as
//! capacity tightens, every epoch passes golden-model verification, and
//! replay is byte-for-byte deterministic.

use flowplace::core::tables::emit_tables;
use flowplace::ctrl::{
    parse_trace, CacheConfig, Controller, CtrlOptions, CtrlStats, EpochReport, Tier,
};
use flowplace::prelude::*;
use flowplace::traffic::{generate, TrafficConfig};

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

/// Appended to the demo trace by the merging test: both tenants take
/// the same DROP, which a §IV-B merging re-solve can install once.
const SHARED_RULE: &str = "add-rule l0 011110 drop 30\nadd-rule l1 011110 drop 30\nsolve\n";

/// Op-by-op installs keep each TCAM in the emitter's order: after every
/// epoch of the fault-free demo replay, each switch's deployed entries
/// equal the tables emitted from the committed placement, element for
/// element, and the cache tier's audits pass. Once as the CLI runs it
/// (merging and cache tier off), once with §IV-B merging and the cache
/// tier on, where the closing re-solve installs [`SHARED_RULE`] as one
/// entry tagged with both ingresses and a flow stream then runs
/// through the cache that holds it.
#[test]
fn installs_leave_every_table_in_emitter_order() {
    let merging_and_cache = CtrlOptions {
        placement: PlacementOptions {
            merging: true,
            ..PlacementOptions::default()
        },
        cache: CacheConfig {
            enabled: true,
            capacity: 8,
            ..CacheConfig::default()
        },
        ..CtrlOptions::default()
    };
    for options in [CtrlOptions::default(), merging_and_cache] {
        let merging = options.placement.merging;
        let mut topo = Topology::linear(4);
        topo.set_uniform_capacity(16);
        let mut ctrl = Controller::new(topo, options);
        for event in parse_trace(&format!("{TRACE}{SHARED_RULE}")).expect("trace parses") {
            ctrl.submit(event).expect("queue has room");
        }
        let (mut epochs, mut multi_tag) = (0, 0);
        while ctrl.run_epoch().expect("epoch commits").is_some() {
            epochs += 1;
            let why = format!("merging {merging}, epoch {epochs}");
            let tables = emit_tables(ctrl.instance(), ctrl.placement()).expect("tables emit");
            for (s, table) in tables.iter().enumerate() {
                let installed = ctrl.dataplane().switch(SwitchId(s)).entries();
                assert_eq!(
                    installed,
                    table.entries(),
                    "{why}: s{s} differs from the emitted table"
                );
                multi_tag += installed.iter().filter(|e| e.tags.len() >= 2).count();
            }
            ctrl.cache().audit().expect(&why);
            ctrl.cache_fail_closed_audit().expect(&why);
        }
        assert!(epochs >= 7, "merging {merging}: only {epochs} epochs ran");
        let flows = generate(&TrafficConfig {
            seed: 5,
            ingresses: 2,
            width: 6,
            ..TrafficConfig::default()
        });
        ctrl.process_flows(&flows);
        ctrl.cache().audit().expect("after the flows");
        ctrl.cache_fail_closed_audit().expect("after the flows");
        assert_eq!(multi_tag > 0, merging, "{multi_tag} multi-tag entries");
    }
}
