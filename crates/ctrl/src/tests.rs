use super::*;
use flowplace_acl::{Action, Policy, Rule, RuleId, Ternary};
use flowplace_routing::Route;
use flowplace_topo::SwitchId;

fn t(bits: &str) -> Ternary {
    Ternary::parse(bits).unwrap()
}

fn small_controller(capacity: usize) -> Controller {
    linear_controller(capacity, CtrlOptions::default())
}

fn linear_controller(capacity: usize, options: CtrlOptions) -> Controller {
    let mut topo = Topology::linear(3);
    topo.set_uniform_capacity(capacity);
    Controller::new(topo, options)
}

/// A controller with a 4-slot cache tier and one policy deployed.
fn cached_controller() -> Controller {
    let cache = CacheConfig::parse_spec("4").unwrap();
    let options = CtrlOptions {
        cache,
        ..CtrlOptions::default()
    };
    let mut ctrl = linear_controller(10, options);
    ctrl.submit(install(0, 2, &[0, 1, 2])).unwrap();
    ctrl.run_to_idle().unwrap();
    ctrl
}

/// An install of `rules` as `ingress`'s policy over one route.
fn install_rules(ingress: usize, egress: usize, switches: &[usize], rules: Vec<Rule>) -> Event {
    let (ingress, egress) = (EntryPortId(ingress), EntryPortId(egress));
    let hops = switches.iter().map(|&s| SwitchId(s)).collect();
    Event::InstallPolicy {
        ingress,
        policy: Policy::from_rules(rules).unwrap(),
        routes: vec![Route::new(ingress, egress, hops)],
    }
}

fn install(ingress: usize, egress: usize, switches: &[usize]) -> Event {
    let rules = vec![
        Rule::new(t("10**"), Action::Drop, 2),
        Rule::new(t("****"), Action::Permit, 1),
    ];
    install_rules(ingress, egress, switches, rules)
}

#[test]
fn install_then_add_rule_greedy() {
    let mut ctrl = small_controller(10);
    ctrl.submit(install(0, 2, &[0, 1, 2])).unwrap();
    ctrl.submit(Event::AddRule {
        ingress: EntryPortId(0),
        rule: Rule::new(t("01**"), Action::Drop, 3),
    })
    .unwrap();
    let reports = ctrl.run_to_idle().unwrap();
    assert_eq!(reports.len(), 1, "both events coalesce into one epoch");
    assert_eq!(
        reports[0].tiers(),
        vec![Tier::Restricted, Tier::Greedy],
        "install settles restricted, add settles greedy"
    );
    assert_eq!(ctrl.epoch(), 1);
    // Both DROP rules are deployed somewhere (the trailing PERMIT is
    // the default action and costs no TCAM entry).
    assert!(ctrl.dataplane().total_occupancy() >= 2);
    assert_eq!(ctrl.stats().verify_failures, 0);
    ctrl.cache_fail_closed_audit().unwrap();
}

/// The emitter's cost follows the change: a bring-up builds every
/// ingress's runs, and a one-rule add or remove rebuilds one ingress's,
/// digesting one slice per switch that holds its entries.
#[test]
fn one_rule_epochs_rebuild_one_ingress() {
    let mut topo = Topology::star(4);
    topo.set_uniform_capacity(16);
    let (ls, leaf) = (|l: usize| EntryPortId(l), |l: usize| SwitchId(l + 1));
    let routes = (0..3).map(|l| {
        let far = (l + 2) % 4;
        Route::new(ls(l), ls(far), vec![leaf(l), SwitchId(0), leaf(far)])
    });
    let policies = (0..3).map(|l| {
        let mut rules: Vec<Rule> = (0..5)
            .map(|i| Rule::new(t(&format!("{:04b}", 3 * i + l)), Action::Drop, i as u32 + 2))
            .collect();
        rules.push(Rule::new(t("****"), Action::Permit, 1));
        (ls(l), Policy::from_rules(rules).unwrap())
    });
    let instance = Instance::new(topo, routes.collect(), policies.collect()).unwrap();
    let mut ctrl = Controller::with_instance(instance, CtrlOptions::default()).unwrap();
    let holding = |ctrl: &Controller, l: EntryPortId| {
        let dp = ctrl.dataplane();
        let tcams = (0..dp.switch_count()).map(|s| dp.switch(SwitchId(s)));
        tcams
            .filter(|tcam| tcam.entries().iter().any(|e| e.tags.contains(&l)))
            .count() as u64
    };
    let emitter = ctrl.emitter();
    assert_eq!(emitter.ingresses_rebuilt(), 3);
    let slices: u64 = (0..3).map(|l| holding(&ctrl, ls(l))).sum();
    assert_eq!(emitter.slices_digested(), slices);
    let add = Event::AddRule {
        ingress: ls(1),
        rule: Rule::new(t("1111"), Action::Drop, 20),
    };
    let remove = Event::RemoveRule {
        ingress: ls(1),
        rule: RuleId(0),
    };
    for event in [add, remove] {
        let emitter = ctrl.emitter();
        let before = (emitter.ingresses_rebuilt(), emitter.slices_digested());
        ctrl.submit(event).unwrap();
        let reports = ctrl.run_to_idle().unwrap();
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].tiers(), vec![Tier::Greedy]);
        let emitter = ctrl.emitter();
        assert_eq!(emitter.ingresses_rebuilt() - before.0, 1);
        assert_eq!(emitter.slices_digested() - before.1, holding(&ctrl, ls(1)));
    }
}

/// A star controller (hub s0, ingress `li` on leaf `s(i+1)`) with the
/// [`install`] policy of l0 deployed over s1-s0-s3; `capacities`
/// (`s0..=s3`) leave its one DROP a single switch to sit on.
fn star_with_l0(capacities: [usize; 4]) -> Controller {
    let mut topo = Topology::star(3);
    for (s, capacity) in capacities.into_iter().enumerate() {
        topo.set_capacity(SwitchId(s), capacity);
    }
    let mut ctrl = Controller::new(topo, CtrlOptions::default());
    ctrl.submit(install(0, 2, &[1, 0, 3])).unwrap();
    ctrl.run_to_idle().unwrap();
    ctrl
}

/// l0 rerouted onto s1-s0-s2.
fn reroute_l0_via_s2() -> Event {
    let hops = vec![SwitchId(1), SwitchId(0), SwitchId(2)];
    Event::Reroute {
        ingress: EntryPortId(0),
        routes: vec![Route::new(EntryPortId(0), EntryPortId(1), hops)],
    }
}

/// The hub holds l0's DROP and stays on the new route: the reroute
/// settles at the greedy tier, keeps the placement, rebuilds no
/// emitter run and writes no TCAM entry.
#[test]
fn a_covered_reroute_commits_without_a_tcam_write() {
    let mut ctrl = star_with_l0([4, 0, 4, 0]);
    let (placement, before) = (ctrl.placement().clone(), ctrl.stats().clone());
    let rebuilt = ctrl.emitter().ingresses_rebuilt();
    ctrl.submit(reroute_l0_via_s2()).unwrap();
    let reports = ctrl.run_to_idle().unwrap();
    assert_eq!(reports.len(), 1);
    assert_eq!(reports[0].tiers(), vec![Tier::Greedy]);
    assert_eq!((reports[0].installed, reports[0].removed), (0, 0));
    assert_eq!(ctrl.stats().greedy_ok, before.greedy_ok + 1);
    assert_eq!(ctrl.stats().restricted_ok, before.restricted_ok);
    assert_eq!(ctrl.placement(), &placement);
    assert_eq!(ctrl.emitter().ingresses_rebuilt(), rebuilt);
    let routes = ctrl.instance().routes();
    let [id] = routes.paths_from(EntryPortId(0)) else {
        panic!("l0 has one route");
    };
    assert!(
        routes.route(*id).contains(SwitchId(2)),
        "the reroute committed"
    );
    assert_eq!(ctrl.stats().verify_failures, 0);
}

/// The egress leaf s3 holds l0's DROP and leaves the routes: the
/// greedy tier declines and the restricted re-solve moves it to s2.
#[test]
fn an_uncovered_reroute_lands_on_the_restricted_tier() {
    let mut ctrl = star_with_l0([0, 0, 4, 4]);
    let held = |ctrl: &Controller| {
        ctrl.placement()
            .held_switches()
            .next()
            .map(|(_, sw)| sw.to_vec())
    };
    assert_eq!(held(&ctrl), Some(vec![SwitchId(3)]));
    let before = ctrl.stats().clone();
    ctrl.submit(reroute_l0_via_s2()).unwrap();
    let reports = ctrl.run_to_idle().unwrap();
    assert_eq!(reports[0].tiers(), vec![Tier::Restricted]);
    assert_eq!((reports[0].installed, reports[0].removed), (1, 1));
    assert_eq!(ctrl.stats().greedy_ok, before.greedy_ok);
    assert_eq!(held(&ctrl), Some([SwitchId(2)].into()));
    assert_eq!(ctrl.stats().verify_failures, 0);
}

#[test]
fn batching_coalesces_to_one_diff() {
    let mut ctrl = small_controller(16);
    ctrl.submit(install(0, 2, &[0, 1, 2])).unwrap();
    for p in 3..7 {
        ctrl.submit(Event::AddRule {
            ingress: EntryPortId(0),
            rule: Rule::new(t(&format!("{:02b}**", p % 4)), Action::Drop, p),
        })
        .unwrap();
    }
    let reports = ctrl.run_to_idle().unwrap();
    assert_eq!(reports.len(), 1, "5 events, batch_size 8, one epoch");
    assert_eq!(ctrl.stats().epochs, 1);
    assert_eq!(ctrl.stats().diffs_applied, 1);
}

#[test]
fn flows_warm_the_cache_and_audits_stay_green() {
    let mut ctrl = cached_controller();
    let flows = flowplace_traffic::generate(&flowplace_traffic::TrafficConfig {
        seed: 3,
        rate: 2000,
        duration_ms: 40,
        ingresses: 1,
        width: 4,
        flows_per_ingress: 8,
        ..flowplace_traffic::TrafficConfig::default()
    });
    ctrl.attach_obs(Obs::new());
    let cold = ctrl.process_flows(&flows);
    assert_eq!(cold.flows, flows.len() as u64);
    assert_eq!(cold.unrouted, 0);
    assert!(cold.misses > 0, "cold cache must punt: {cold:?}");
    assert!(cold.miss_latency_ms > 0, "punt latency hits the clock");
    // Same stream again: everything missable is resident now.
    let warm = ctrl.process_flows(&flows);
    let solves = ctrl
        .obs()
        .unwrap()
        .metrics
        .counter_value("pipeline.solves", &[("provenance", "single:ilp")]);
    assert_eq!(solves, 0, "no solver ran");
    assert_eq!(warm.misses, 0, "warmed cache serves repeats: {warm:?}");
    assert!(warm.hits >= cold.misses);
    assert_eq!(ctrl.stats().cache_dep_violations, 0);
    ctrl.cache().audit().unwrap();
    ctrl.cache_fail_closed_audit().unwrap();
    assert_eq!(ctrl.stats().cache_hits, cold.hits + warm.hits);
}

#[test]
fn flows_from_an_ingress_without_routes_are_unrouted() {
    let mut ctrl = cached_controller();
    let flow = |l: usize| flowplace_traffic::FlowEvent {
        at_ms: 0,
        ingress: EntryPortId(l),
        packet: flowplace_acl::Packet::from_bits(0b1000, 4),
    };
    // `10**` drops at the first hop: one lookup.
    let routed = ctrl.process_flows(&[flow(0)]);
    assert_eq!((routed.unrouted, routed.lookups), (0, 1), "{routed:?}");
    let unrouted = |ctrl: &mut Controller, l: usize, what: &str| {
        let before = *ctrl.cache().counters();
        let report = ctrl.process_flows(&[flow(l)]);
        assert_eq!(
            (report.flows, report.unrouted),
            (1, 1),
            "{what}: {report:?}"
        );
        assert_eq!(*ctrl.cache().counters(), before, "{what}: cache untouched");
    };
    unrouted(&mut ctrl, 1, "l1 never had a route");
    ctrl.submit(Event::Reroute {
        ingress: EntryPortId(0),
        routes: Vec::new(),
    })
    .unwrap();
    ctrl.run_to_idle().unwrap();
    assert_eq!(ctrl.instance().routes().paths_from(EntryPortId(0)), []);
    unrouted(&mut ctrl, 0, "l0 rerouted onto no route");
}

#[test]
fn cache_survives_epoch_resync() {
    let mut ctrl = cached_controller();
    let flows = flowplace_traffic::generate(&flowplace_traffic::TrafficConfig {
        seed: 3,
        rate: 500,
        duration_ms: 20,
        ingresses: 1,
        width: 4,
        flows_per_ingress: 4,
        ..flowplace_traffic::TrafficConfig::default()
    });
    ctrl.process_flows(&flows);
    // A policy change re-solves and re-syncs the cache target.
    ctrl.submit(Event::AddRule {
        ingress: EntryPortId(0),
        rule: Rule::new(t("01**"), Action::Drop, 3),
    })
    .unwrap();
    ctrl.run_to_idle().unwrap();
    ctrl.cache().audit().unwrap();
    ctrl.cache_fail_closed_audit().unwrap();
    assert_eq!(ctrl.stats().cache_dep_violations, 0);
}

#[test]
fn backpressure_rejects_past_capacity() {
    let mut ctrl = Controller::new(
        Topology::linear(2),
        CtrlOptions {
            queue_capacity: 2,
            ..CtrlOptions::default()
        },
    );
    ctrl.submit(Event::Solve).unwrap();
    ctrl.submit(Event::Solve).unwrap();
    assert!(matches!(
        ctrl.submit(Event::Solve),
        Err(CtrlError::QueueFull { capacity: 2 })
    ));
    assert_eq!(ctrl.stats().events_rejected, 1);
    assert_eq!(ctrl.stats().max_queue_depth, 2);
}

#[test]
fn checkpoint_rollback_restores_state() {
    let mut ctrl = small_controller(10);
    ctrl.submit(install(0, 2, &[0, 1, 2])).unwrap();
    ctrl.run_to_idle().unwrap();
    let dump_before = ctrl.dataplane().dump();

    ctrl.submit(Event::Checkpoint).unwrap();
    ctrl.submit(Event::AddRule {
        ingress: EntryPortId(0),
        rule: Rule::new(t("11**"), Action::Drop, 5),
    })
    .unwrap();
    ctrl.submit(Event::Rollback).unwrap();
    ctrl.run_to_idle().unwrap();

    assert_eq!(ctrl.dataplane().dump(), dump_before);
    assert_eq!(ctrl.stats().checkpoints, 1);
    assert_eq!(ctrl.stats().rollbacks, 1);
    assert_eq!(ctrl.instance().policy(EntryPortId(0)).unwrap().len(), 2);
}

#[test]
fn rollback_without_checkpoint_is_rejected() {
    let mut ctrl = small_controller(10);
    ctrl.submit(Event::Rollback).unwrap();
    let reports = ctrl.run_to_idle().unwrap();
    assert!(matches!(
        reports[0].outcomes[0].1,
        EventOutcome::Rejected { .. }
    ));
    assert_eq!(ctrl.stats().events_failed, 1);
}

#[test]
fn capacity_change_keeps_placement_when_it_fits() {
    let mut ctrl = small_controller(10);
    ctrl.submit(install(0, 2, &[0, 1, 2])).unwrap();
    ctrl.run_to_idle().unwrap();
    let before = ctrl.placement().clone();
    ctrl.submit(Event::CapacityChange {
        switch: SwitchId(1),
        capacity: 9,
    })
    .unwrap();
    let reports = ctrl.run_to_idle().unwrap();
    assert_eq!(reports[0].tiers(), vec![Tier::Greedy]);
    assert_eq!(*ctrl.placement(), before);
}

#[test]
fn infeasible_event_is_rejected_not_fatal() {
    let mut ctrl = small_controller(1);
    // The DROP drags its overlapping higher-priority PERMIT shield
    // onto the same switch: 2 entries cannot fit capacity 1.
    let rules = vec![
        Rule::new(t("10**"), Action::Permit, 2),
        Rule::new(t("1***"), Action::Drop, 1),
    ];
    ctrl.submit(install_rules(0, 2, &[0, 1, 2], rules)).unwrap();
    let reports = ctrl.run_to_idle().unwrap();
    assert!(matches!(
        reports[0].outcomes[0].1,
        EventOutcome::Rejected { .. }
    ));
    assert_eq!(ctrl.stats().events_failed, 1);
    assert_eq!(ctrl.dataplane().total_occupancy(), 0);
}

#[test]
fn obs_attachment_is_effect_free_and_records() {
    let mut plain = small_controller(10);
    let mut observed = small_controller(10);
    observed.attach_obs(Obs::new());
    for ctrl in [&mut plain, &mut observed] {
        ctrl.submit(install(0, 2, &[0, 1, 2])).unwrap();
        ctrl.submit(Event::AddRule {
            ingress: EntryPortId(0),
            rule: Rule::new(t("01**"), Action::Drop, 3),
        })
        .unwrap();
        // The full tier runs the observed solver pipeline.
        ctrl.submit(Event::Solve).unwrap();
        ctrl.run_to_idle().unwrap();
    }
    // Telemetry is strictly effect-free.
    assert_eq!(plain.placement(), observed.placement());
    assert_eq!(plain.dataplane().dump(), observed.dataplane().dump());
    assert_eq!(plain.stats(), observed.stats());

    let obs = observed.obs().unwrap();
    assert_eq!(obs.spans.open_count(), 0);
    assert_eq!(obs.spans.mis_nested(), 0);
    let spans = obs.spans.doc().spans;
    for expected in ["ctrl.epoch", "ctrl.event", "ctrl.commit", "pipeline"] {
        assert!(
            spans.iter().any(|s| s.name == expected),
            "missing span {expected}"
        );
    }
    assert_eq!(obs.metrics.counter_value("ctrl.epochs", &[]), 1);
    assert_eq!(
        obs.metrics
            .counter_value("ctrl.events", &[("kind", "install-policy")]),
        1
    );
    assert_eq!(
        obs.metrics
            .counter_value("ctrl.events", &[("kind", "add-rule")]),
        1
    );
    assert!(obs
        .metrics
        .gauge_value("tcam.occupancy", &[("switch", "s0")])
        .is_some());
    assert_dumps_round_trip(obs);
}

/// Both dumps of `obs` validate back to exactly what it recorded.
fn assert_dumps_round_trip(obs: &Obs) {
    use flowplace_obs::{validate_obs_json, ObsDoc};
    let trace = validate_obs_json(&obs.trace_json());
    assert_eq!(trace, Ok(ObsDoc::Trace(obs.spans.doc())));
    let metrics = validate_obs_json(&obs.metrics_json());
    assert_eq!(metrics, Ok(ObsDoc::Metrics(obs.metrics.doc())));
}

fn fault_options(schedule: &str) -> CtrlOptions {
    CtrlOptions {
        faults: FaultPlan {
            schedule: parse_fault_schedule(schedule).unwrap(),
            ..FaultPlan::default()
        },
        ..CtrlOptions::default()
    }
}

#[test]
fn switch_crash_degrades_and_recovers() {
    let mut ctrl = linear_controller(10, fault_options("@2 fault crash s1"));
    ctrl.submit(install(0, 2, &[0, 1, 2])).unwrap();
    ctrl.run_to_idle().unwrap();

    // Epoch 2: s1 crashes; the placement is rebuilt around it.
    ctrl.submit(Event::AddRule {
        ingress: EntryPortId(0),
        rule: Rule::new(t("01**"), Action::Drop, 3),
    })
    .unwrap();
    let reports = ctrl.run_to_idle().unwrap();
    assert!(reports[0]
        .outcomes
        .iter()
        .any(|(_, o)| matches!(o, EventOutcome::SwitchFailed { switch } if switch.0 == 1)));
    assert_eq!(ctrl.stats().switch_crashes, 1);
    assert!(!ctrl.dataplane().is_online(SwitchId(1)));
    assert_eq!(ctrl.out_of_service(), vec![SwitchId(1)]);
    // Nothing may live on the dead switch; the invariant holds.
    assert_eq!(ctrl.dataplane().switch(SwitchId(1)).occupancy(), 0);
    ctrl.fail_closed_audit().expect("fail-closed after crash");
    assert_eq!(ctrl.stats().failclosed_violations, 0);

    // Recovery brings the switch back and the controller re-uses it.
    ctrl.submit(Event::SwitchRecover {
        switch: SwitchId(1),
    })
    .unwrap();
    let reports = ctrl.run_to_idle().unwrap();
    assert!(reports[0]
        .outcomes
        .iter()
        .any(|(_, o)| matches!(o, EventOutcome::SwitchRecovered { .. })));
    assert!(ctrl.out_of_service().is_empty());
    assert_eq!(ctrl.stats().switch_recoveries, 1);
    ctrl.fail_closed_audit()
        .expect("fail-closed after recovery");
}

#[test]
fn transient_rejects_are_retried_through() {
    let mut ctrl = linear_controller(10, fault_options("fault install-reject s0 2"));
    ctrl.submit(install(0, 2, &[0, 1, 2])).unwrap();
    ctrl.run_to_idle().unwrap();
    // Two rejects fit inside one op's retry budget (4 attempts).
    assert_eq!(ctrl.stats().faults_injected, 2);
    assert!(ctrl.stats().install_retries >= 2);
    assert!(ctrl.stats().backoff_ms > 0);
    assert!(ctrl.virtual_time_ms() > 0);
    assert_eq!(ctrl.stats().quarantines, 0);
    assert!(ctrl.dataplane().total_occupancy() >= 1);
    ctrl.fail_closed_audit().expect("fail-closed after retries");
}

#[test]
fn persistent_rejects_quarantine_and_replace() {
    let options = CtrlOptions {
        quarantine_after: 2,
        retry: RetryPolicy { max_attempts: 2 },
        ..fault_options("fault install-reject s0 10000")
    };
    let mut ctrl = linear_controller(10, options);
    ctrl.submit(install(0, 2, &[0, 1, 2])).unwrap();
    let reports = ctrl.run_to_idle().unwrap();
    assert_eq!(ctrl.stats().quarantines, 1);
    assert_eq!(ctrl.quarantined_switches(), vec![SwitchId(0)]);
    assert!(reports[0].quarantined.contains(&SwitchId(0)));
    // s0 still forwards but holds nothing; rules live on s1/s2.
    assert!(ctrl.dataplane().is_online(SwitchId(0)));
    assert_eq!(ctrl.dataplane().switch(SwitchId(0)).occupancy(), 0);
    assert!(ctrl.dataplane().total_occupancy() >= 1);
    assert!(ctrl.safe_mode_ingresses().is_empty());
    ctrl.fail_closed_audit()
        .expect("fail-closed after quarantine");
    assert_eq!(ctrl.stats().failclosed_violations, 0);
}

#[test]
fn unplaceable_ingress_goes_safe_mode_and_lifts() {
    // Single-switch network: once s0 is quarantined nothing can be
    // placed, so the ingress must go fail-closed, fenced at the
    // entry port (no manageable switch can hold the drop-all). One
    // armed reject + a hair-trigger breaker quarantines immediately,
    // and the fault is spent by the time the switch recovers.
    let mut topo = Topology::linear(1);
    topo.set_uniform_capacity(10);
    let options = CtrlOptions {
        quarantine_after: 1,
        retry: RetryPolicy { max_attempts: 1 },
        ..fault_options("fault install-reject s0 1")
    };
    let mut ctrl = Controller::new(topo, options);
    ctrl.submit(install(0, 1, &[0])).unwrap();
    let reports = ctrl.run_to_idle().unwrap();
    assert_eq!(ctrl.quarantined_switches(), vec![SwitchId(0)]);
    assert_eq!(ctrl.safe_mode_ingresses(), vec![EntryPortId(0)]);
    assert_eq!(reports[0].safe_mode, vec![EntryPortId(0)]);
    ctrl.fail_closed_audit().expect("fenced route is exempt");

    // Events against a safe-mode ingress are refused.
    ctrl.submit(Event::AddRule {
        ingress: EntryPortId(0),
        rule: Rule::new(t("01**"), Action::Drop, 3),
    })
    .unwrap();
    let reports = ctrl.run_to_idle().unwrap();
    match &reports[0].outcomes[0].1 {
        EventOutcome::Rejected { reason } => assert!(reason.contains("safe mode")),
        other => panic!("expected safe-mode rejection, got {other:?}"),
    }

    // Recovery lifts the fence: the policy is re-placed for real.
    ctrl.submit(Event::SwitchRecover {
        switch: SwitchId(0),
    })
    .unwrap();
    ctrl.run_to_idle().unwrap();
    assert!(ctrl.safe_mode_ingresses().is_empty());
    assert!(ctrl.dataplane().total_occupancy() >= 1);
    ctrl.fail_closed_audit().expect("fail-closed after lift");
}

#[test]
fn capacity_revoke_fault_evicts_and_reconciles() {
    let mut ctrl = linear_controller(10, fault_options("@2 fault capacity s1 1"));
    ctrl.submit(install(0, 2, &[0, 1, 2])).unwrap();
    ctrl.run_to_idle().unwrap();
    ctrl.submit(Event::AddRule {
        ingress: EntryPortId(0),
        rule: Rule::new(t("01**"), Action::Drop, 3),
    })
    .unwrap();
    let reports = ctrl.run_to_idle().unwrap();
    // The fault surfaced as a synthesized capacity event.
    assert!(reports[0].outcomes.iter().any(
        |(e, _)| matches!(e, Event::CapacityChange { switch, capacity }
            if switch.0 == 1 && *capacity == 1)
    ));
    assert!(reports[0].injected >= 1);
    assert!(ctrl.dataplane().switch(SwitchId(1)).occupancy() <= 1);
    ctrl.fail_closed_audit().expect("fail-closed after revoke");
    assert_eq!(ctrl.stats().failclosed_violations, 0);
}

#[test]
fn faulty_replay_is_deterministic() {
    let trace = "\
install-policy l0 via l2:s0-s1-s2 rules 10**:drop:2,****:permit:1
add-rule l0 01** drop 3
add-rule l0 11** drop 4
solve
add-rule l0 00** drop 5
";
    let run = || {
        let options = CtrlOptions {
            batch_size: 2,
            faults: FaultPlan {
                seed: 7,
                install_reject_rate: 0.3,
                crash_rate: 0.1,
                recover_rate: 0.5,
                schedule: parse_fault_schedule("@2 fault install-reject s1 2").unwrap(),
            },
            ..CtrlOptions::default()
        };
        let mut ctrl = linear_controller(8, options);
        let reports = ctrl.replay_trace(trace).unwrap();
        (
            format!("{reports:?}"),
            ctrl.dataplane().dump(),
            ctrl.stats().clone(),
            ctrl.virtual_time_ms(),
        )
    };
    assert_eq!(run(), run());
}

#[test]
fn replay_is_deterministic() {
    let trace = "\
install-policy l0 via l2:s0-s1-s2 rules 10**:drop:2,****:permit:1
add-rule l0 01** drop 3
capacity s1 6
add-rule l0 11** drop 4
";
    let run = |_: usize| {
        let mut ctrl = small_controller(8);
        ctrl.replay_trace(trace).unwrap();
        (ctrl.dataplane().dump(), ctrl.stats().clone())
    };
    let (dump_a, stats_a) = run(0);
    let (dump_b, stats_b) = run(1);
    assert_eq!(dump_a, dump_b);
    assert_eq!(stats_a, stats_b);
}

#[test]
fn tier_all_is_complete() {
    // Compile-time exhaustiveness: adding a Tier variant breaks
    // this match, forcing ALL (and CtrlStats::tier_counter, which
    // matches exhaustively too) to follow.
    let index = |t: Tier| match t {
        Tier::Greedy => 0usize,
        Tier::Restricted => 1,
        Tier::Full => 2,
        Tier::Delegated => 3,
    };
    assert_eq!(Tier::ALL.len(), 4);
    for (i, t) in Tier::ALL.iter().enumerate() {
        assert_eq!(index(*t), i, "Tier::ALL out of order at {i}");
    }
}

#[test]
fn event_outcome_labels_are_complete() {
    // One sample per variant; a new variant without a label breaks
    // the exhaustive match inside label() first, then this count.
    let samples = [
        EventOutcome::Applied(Tier::Greedy),
        EventOutcome::Applied(Tier::Restricted),
        EventOutcome::Applied(Tier::Full),
        EventOutcome::Applied(Tier::Delegated),
        EventOutcome::Checkpoint,
        EventOutcome::RolledBack { to_epoch: 0 },
        EventOutcome::Rejected {
            reason: String::new(),
        },
        EventOutcome::SwitchFailed {
            switch: SwitchId(0),
        },
        EventOutcome::SwitchRecovered {
            switch: SwitchId(0),
        },
    ];
    assert_eq!(samples.len(), EventOutcome::ALL_LABELS.len());
    for s in &samples {
        assert!(EventOutcome::ALL_LABELS.contains(&s.label()), "{s:?}");
    }
    let distinct: BTreeSet<&str> = EventOutcome::ALL_LABELS.into_iter().collect();
    assert_eq!(distinct.len(), EventOutcome::ALL_LABELS.len());
}

/// Hub s0, leaves s1..=s4; routes through the hub leave s3/s4 as
/// off-route delegation candidates.
fn star_controller(capacity: usize, options: CtrlOptions) -> Controller {
    let mut topo = Topology::star(4);
    topo.set_uniform_capacity(capacity);
    Controller::new(topo, options)
}

/// An install whose policy carries `drops` disjoint exact-match
/// DROP rules (each one a billable TCAM entry) over one route.
fn install_drops(ingress: usize, egress: usize, switches: &[usize], drops: usize) -> Event {
    assert!(drops < 16);
    let mut rules: Vec<Rule> = (0..drops)
        .map(|i| Rule::new(t(&format!("{i:04b}")), Action::Drop, (i + 2) as u32))
        .collect();
    rules.push(Rule::new(t("****"), Action::Permit, 1));
    install_rules(ingress, egress, switches, rules)
}

/// 10 entries fit the on-route 12 slots of s1-s0-s2; revoking the
/// hub to zero leaves 8, forcing the shrink through delegation.
fn delegation_pressure(ctrl: &mut Controller) -> Vec<EpochReport> {
    ctrl.submit(install_drops(0, 2, &[1, 0, 2], 10)).unwrap();
    ctrl.run_to_idle().unwrap();
    assert!(ctrl.delegations().is_empty());
    ctrl.submit(Event::CapacityChange {
        switch: SwitchId(0),
        capacity: 0,
    })
    .unwrap();
    ctrl.run_to_idle().unwrap()
}

#[test]
fn capacity_shrink_delegates_instead_of_failing_closed() {
    let mut ctrl = star_controller(4, CtrlOptions::default());
    let reports = delegation_pressure(&mut ctrl);
    assert_eq!(
        reports.last().unwrap().tiers(),
        vec![Tier::Delegated],
        "the shrink settles via the delegation rung"
    );
    let delegations = ctrl.delegations();
    assert_eq!(delegations.len(), 1);
    assert_eq!(delegations[0].0, EntryPortId(0));
    assert_eq!(
        delegations[0].1.delegate,
        SwitchId(3),
        "smallest off-route neighbor wins"
    );
    assert_eq!(delegations[0].1.anchors, BTreeSet::from([SwitchId(0)]));
    assert_eq!(reports.last().unwrap().delegated, vec![EntryPortId(0)]);
    // The overflow lives on the delegate; the anchor carries a
    // reserved-bank redirect stub.
    assert!(
        ctrl.delegated_entries() >= 2,
        "{}",
        ctrl.delegated_entries()
    );
    assert!(ctrl
        .dataplane()
        .switch(SwitchId(0))
        .entries()
        .iter()
        .any(|e| e.is_delegation_stub()));
    assert_eq!(ctrl.stats().delegations, 1);
    assert_eq!(ctrl.stats().delegated_ok, 1);
    assert!(ctrl.stats().delegation_stub_entries >= 1);
    assert!(ctrl.safe_mode_ingresses().is_empty());
    assert_eq!(ctrl.stats().failclosed_violations, 0);
    ctrl.fail_closed_audit().unwrap();
}

#[test]
fn delegation_off_fails_closed_under_the_same_shrink() {
    let mut ctrl = star_controller(
        4,
        CtrlOptions {
            delegation: DelegationConfig { enabled: false },
            ..CtrlOptions::default()
        },
    );
    let reports = delegation_pressure(&mut ctrl);
    // Without the rung the shrink is rejected, still committed, and
    // the overflowing ingress settles drop-all.
    assert_eq!(
        reports.last().unwrap().safe_mode,
        vec![EntryPortId(0)],
        "no rung: fail closed"
    );
    assert!(ctrl.delegations().is_empty());
    assert_eq!(ctrl.stats().delegations, 0);
    assert!(ctrl.stats().safe_mode_entries >= 1);
    assert_eq!(ctrl.stats().failclosed_violations, 0);
    ctrl.fail_closed_audit().unwrap();
}

#[test]
fn delegate_crash_tears_down_and_rehomes() {
    let mut ctrl = star_controller(4, CtrlOptions::default());
    delegation_pressure(&mut ctrl);
    ctrl.submit(Event::SwitchFail {
        switch: SwitchId(3),
    })
    .unwrap();
    ctrl.run_to_idle().unwrap();
    assert_eq!(ctrl.stats().delegation_teardowns, 1);
    assert_eq!(ctrl.stats().delegation_rehomes, 1);
    let delegations = ctrl.delegations();
    assert_eq!(delegations.len(), 1);
    assert_eq!(
        delegations[0].1.delegate,
        SwitchId(4),
        "re-homed on the surviving neighbor"
    );
    assert!(ctrl.safe_mode_ingresses().is_empty());
    assert_eq!(ctrl.stats().failclosed_violations, 0);
    ctrl.fail_closed_audit().unwrap();
}

#[test]
fn capacity_return_undelegates_opportunistically() {
    let mut ctrl = star_controller(4, CtrlOptions::default());
    delegation_pressure(&mut ctrl);
    ctrl.submit(Event::CapacityChange {
        switch: SwitchId(0),
        capacity: 4,
    })
    .unwrap();
    ctrl.run_to_idle().unwrap();
    assert!(ctrl.delegations().is_empty(), "capacity came back");
    assert_eq!(ctrl.stats().undelegations, 1);
    assert_eq!(ctrl.dataplane().switch(SwitchId(3)).occupancy(), 0);
    assert!(!ctrl
        .dataplane()
        .switch(SwitchId(0))
        .entries()
        .iter()
        .any(|e| e.is_delegation_stub()));
    assert_eq!(ctrl.stats().failclosed_violations, 0);
    ctrl.fail_closed_audit().unwrap();
}

/// Eq. 3 is checked on the target before the first op, fault plan or
/// none. `degrade` re-places what the placement's own load says is
/// over budget, so only a load that lies gets this far: a merge group
/// on the hub claiming l1's rule, which sits on s2, counts the hub as
/// 1 − (2 − 1) = 0 entries while its table holds one.
#[test]
fn over_capacity_target_is_refused_with_the_hardware_untouched() {
    let (l0, l1, r0) = (EntryPortId(0), EntryPortId(1), flowplace_acl::RuleId(0));
    for options in [CtrlOptions::default(), fault_options("@99 fault crash s4")] {
        let mut ctrl = star_controller(1, options);
        ctrl.submit(install(0, 2, &[1, 0, 3])).unwrap();
        ctrl.submit(install(1, 3, &[2, 0, 4])).unwrap();
        ctrl.run_to_idle().unwrap();
        let before = ctrl.dataplane().dump();
        ctrl.placement = Placement::new();
        ctrl.placement.place(l0, r0, SwitchId(0));
        ctrl.placement.place(l1, r0, SwitchId(2));
        ctrl.placement
            .record_merge(flowplace_core::merge::MergeGroup {
                switch: SwitchId(0),
                match_field: t("10**"),
                action: Action::Drop,
                members: vec![(l0, r0), (l1, r0)],
            });
        let (switch, capacity) = (SwitchId(0), 0);
        ctrl.submit(Event::CapacityChange { switch, capacity })
            .unwrap();
        let refused = DataPlaneError::OverCapacity {
            switch,
            occupancy: 1,
            capacity,
        };
        assert_eq!(ctrl.run_epoch().unwrap_err(), CtrlError::DataPlane(refused));
        assert_eq!(ctrl.dataplane().dump(), before, "ops sent before the check");
    }
}

/// A detour the re-solve fits without is rolled back unrecorded, on
/// both rungs that plan one. Crash: s1 fails under l0 and l1, whose
/// routes' spare cannot take both; alone, l0 fits on s0 + s2 without
/// its detour through s3, and l1 fails closed. Shrink: the hub drops to
/// zero under both on one route; the rescue detours both through s3
/// and the joint re-solve uses only l1's.
#[test]
fn ignored_detours_roll_back_unrecorded() {
    let (l0, l1) = (EntryPortId(0), EntryPortId(1));
    let crash = Event::SwitchFail {
        switch: SwitchId(1),
    };
    let shrink = Event::CapacityChange {
        switch: SwitchId(0),
        capacity: 0,
    };
    for (l1_route, drops, event, safe, delegated) in [
        (&[1, 0, 3][..], (3, 4), crash, vec![l1], vec![]),
        (&[1, 0, 2], (1, 4), shrink, vec![], vec![(l1, SwitchId(3))]),
    ] {
        let mut ctrl = star_controller(2, CtrlOptions::default());
        ctrl.submit(install_drops(0, 2, &[1, 0, 2], drops.0))
            .unwrap();
        ctrl.submit(install_drops(1, 3, l1_route, drops.1)).unwrap();
        ctrl.run_to_idle().unwrap();
        let l0_routes = |ctrl: &Controller| -> Vec<Route> {
            let routes = ctrl.instance().routes().iter();
            routes.filter(|r| r.ingress == l0).cloned().collect()
        };
        let before = l0_routes(&ctrl);
        ctrl.submit(event).unwrap();
        ctrl.run_to_idle().unwrap();
        assert_eq!(l0_routes(&ctrl), before, "l0's detour is rolled back");
        assert!(ctrl.placement().held_switches().any(|(l, _)| l == l0));
        assert_eq!(ctrl.safe_mode_ingresses(), safe);
        let recorded: Vec<_> = ctrl
            .delegations()
            .into_iter()
            .map(|(l, d)| (l, d.delegate))
            .collect();
        assert_eq!(recorded, delegated);
        assert_eq!(ctrl.stats().delegations, delegated.len() as u64);
        ctrl.fail_closed_audit().unwrap();
    }
}

#[test]
fn delegation_lifecycle_mirrors_through_obs() {
    let mut ctrl = star_controller(4, CtrlOptions::default());
    ctrl.attach_obs(Obs::new());
    delegation_pressure(&mut ctrl);
    let obs = ctrl.obs().unwrap();
    assert_eq!(
        obs.metrics
            .counter_value("ctrl.outcomes", &[("outcome", "applied:delegated")]),
        1
    );
    assert_eq!(
        obs.metrics
            .counter_value("ctrl.delegate.events", &[("kind", "created")]),
        1
    );
    assert!(obs
        .spans
        .doc()
        .spans
        .iter()
        .any(|s| s.name == "ctrl.delegate.rescue"));
    assert_dumps_round_trip(obs);
}
