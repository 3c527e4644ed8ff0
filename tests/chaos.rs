//! Chaos tests for the fault-tolerant controller.
//!
//! Three layers of assurance, all fully deterministic:
//!
//! * a seeded property test: hundreds of randomized event streams, each
//!   under a randomized fault plan (install rejects, crashes,
//!   recoveries, capacity revocations), must end with the fail-closed
//!   audit green — no packet a policy drops may cross a live route
//!   un-dropped, no matter what the dataplane did;
//! * byte-identical replay of the committed chaos trace + fault
//!   schedule (`traces/chaos.trace` / `traces/chaos.faults`), pinning
//!   the same seed the CI `make chaos` target uses;
//! * queue-overflow backpressure stays observable and recoverable under
//!   load.

use flowplace::acl::{Action, Policy, Rule, Ternary};
use flowplace::ctrl::{
    parse_fault_schedule, Controller, CtrlOptions, CtrlStats, DelegationConfig, Event, FaultKind,
    FaultPlan, RetryPolicy, ScheduledFault,
};
use flowplace::prelude::*;
use flowplace::rng::{Rng, StdRng};

const WIDTH: u32 = 4;

fn rand_rule(rng: &mut StdRng, priority: u32) -> Rule {
    let care = rng.gen_range(0u128..(1 << WIDTH));
    let value = rng.gen_range(0u128..(1 << WIDTH));
    let action = if rng.gen_bool(0.7) {
        Action::Drop
    } else {
        Action::Permit
    };
    Rule::new(Ternary::new(WIDTH, care, value), action, priority)
}

fn install(rng: &mut StdRng, ingress: usize, switches: Vec<usize>) -> Event {
    let egress = if ingress == 0 { 2 } else { 0 };
    let n = rng.gen_range(1..=4usize);
    let mut rules: Vec<Rule> = (0..n).map(|p| rand_rule(rng, p as u32 + 2)).collect();
    rules.push(Rule::new(Ternary::new(WIDTH, 0, 0), Action::Permit, 1));
    Event::InstallPolicy {
        ingress: EntryPortId(ingress),
        policy: Policy::from_rules(rules).expect("distinct priorities"),
        routes: vec![Route::new(
            EntryPortId(ingress),
            EntryPortId(egress),
            switches.into_iter().map(SwitchId).collect(),
        )],
    }
}

fn rand_event(rng: &mut StdRng, priority: &mut u32) -> Event {
    *priority += 1;
    let ingress = EntryPortId(rng.gen_range(0..2usize));
    let switch = SwitchId(rng.gen_range(0..3usize));
    match rng.gen_range(0..10u32) {
        0..=3 => Event::AddRule {
            ingress,
            rule: rand_rule(rng, *priority),
        },
        4 => Event::RemoveRule {
            ingress,
            rule: flowplace::acl::RuleId(rng.gen_range(0..4usize)),
        },
        5 => Event::CapacityChange {
            switch,
            capacity: rng.gen_range(2..10usize),
        },
        6 => Event::SwitchFail { switch },
        7 => Event::SwitchRecover { switch },
        8 => Event::Solve,
        _ => Event::Checkpoint,
    }
}

fn rand_plan(rng: &mut StdRng, seed: u64) -> FaultPlan {
    let mut schedule = Vec::new();
    for _ in 0..rng.gen_range(0..4usize) {
        let switch = SwitchId(rng.gen_range(0..3usize));
        let kind = match rng.gen_range(0..4u32) {
            0 => FaultKind::Crash { switch },
            1 => FaultKind::Recover { switch },
            2 => FaultKind::InstallReject {
                switch,
                count: rng.gen_range(1..6u64),
            },
            _ => FaultKind::CapacityRevoke {
                switch,
                capacity: rng.gen_range(0..6usize),
            },
        };
        schedule.push(ScheduledFault {
            epoch: rng.gen_range(1..5u64),
            kind,
        });
    }
    FaultPlan {
        seed,
        install_reject_rate: rng.gen_range(0..40u32) as f64 / 100.0,
        crash_rate: rng.gen_range(0..15u32) as f64 / 100.0,
        recover_rate: rng.gen_range(30..90u32) as f64 / 100.0,
        schedule,
    }
}

/// The tentpole property: whatever the dataplane does, a completed run
/// leaves zero DROP-coverage violations on every live route (safe-mode
/// drop-alls count as coverage).
#[test]
fn chaos_never_breaks_fail_closed() {
    for seed in 0..224u64 {
        let mut rng = StdRng::seed_from_u64(0xC4A0_5000 ^ seed);
        let mut topo = Topology::linear(3);
        topo.set_uniform_capacity(rng.gen_range(4..10usize));
        let options = CtrlOptions {
            batch_size: 4,
            verify_packets: 4,
            faults: rand_plan(&mut rng, seed),
            retry: RetryPolicy {
                max_attempts: rng.gen_range(1..4u32),
            },
            quarantine_after: rng.gen_range(1..4u32),
            ..CtrlOptions::default()
        };
        let mut ctrl = Controller::new(topo, options);

        ctrl.submit(install(&mut rng, 0, vec![0, 1, 2]))
            .expect("queue has room");
        ctrl.submit(install(&mut rng, 1, vec![2, 1, 0]))
            .expect("queue has room");
        let mut priority = 10;
        for _ in 0..rng.gen_range(4..9usize) {
            ctrl.submit(rand_event(&mut rng, &mut priority))
                .expect("queue has room");
        }

        let reports = ctrl
            .run_to_idle()
            .unwrap_or_else(|e| panic!("seed {seed}: run failed: {e}"));
        assert!(!reports.is_empty(), "seed {seed}: no epochs ran");
        assert_eq!(
            ctrl.stats().failclosed_violations,
            0,
            "seed {seed}: a commit left a fail-closed violation"
        );
        ctrl.fail_closed_audit()
            .unwrap_or_else(|e| panic!("seed {seed}: final audit failed: {e}"));
    }
}

const TRACE: &str = include_str!("../traces/chaos.trace");
const FAULTS: &str = include_str!("../traces/chaos.faults");

/// Mirrors the `make chaos` CLI invocation documented in the trace
/// header.
fn chaos_controller() -> Controller {
    let mut topo = Topology::linear(4);
    topo.set_uniform_capacity(16);
    let options = CtrlOptions {
        batch_size: 4,
        faults: FaultPlan {
            seed: 42,
            install_reject_rate: 0.1,
            crash_rate: 0.02,
            recover_rate: 0.5,
            schedule: parse_fault_schedule(FAULTS).expect("committed schedule parses"),
        },
        ..CtrlOptions::default()
    };
    Controller::new(topo, options)
}

fn replay_chaos() -> (String, String, String, u64) {
    let mut ctrl = chaos_controller();
    let reports = ctrl.replay_trace(TRACE).expect("chaos trace replays");
    ctrl.fail_closed_audit().expect("audit green after chaos");
    assert_eq!(ctrl.stats().failclosed_violations, 0);
    (
        format!("{reports:?}"),
        ctrl.dataplane().dump(),
        ctrl.stats().to_string(),
        ctrl.virtual_time_ms(),
    )
}

/// The committed chaos replay is byte-for-byte deterministic: same
/// trace, same schedule, same seed — identical epoch reports, dataplane
/// dump, counters, and virtual clock.
#[test]
fn chaos_trace_replay_is_byte_identical() {
    let first = replay_chaos();
    let second = replay_chaos();
    assert_eq!(first.0, second.0, "epoch report sequences diverged");
    assert_eq!(first.1, second.1, "dataplane dumps diverged");
    assert_eq!(first.2, second.2, "stats diverged");
    assert_eq!(first.3, second.3, "virtual clocks diverged");
}

/// The committed chaos run actually exercises the machinery it claims
/// to: faults fire, installs retry, a breaker trips, and reconciliation
/// repairs the dataplane.
#[test]
fn chaos_trace_is_a_real_workout() {
    let mut ctrl = chaos_controller();
    ctrl.replay_trace(TRACE).expect("chaos trace replays");
    let stats = ctrl.stats();
    assert!(stats.faults_injected >= 10, "too tame: {stats:?}");
    assert!(stats.install_retries >= 1, "no retries fired: {stats:?}");
    assert!(stats.quarantines >= 1, "no breaker tripped: {stats:?}");
    assert!(stats.switch_crashes >= 1, "no crash seen: {stats:?}");
    assert!(stats.switch_recoveries >= 1, "no recovery seen: {stats:?}");
    assert!(stats.reconcile_runs >= 1, "nothing reconciled: {stats:?}");
}

/// Cache tier under fire: a switch crashes in the middle of a warmed
/// flow stream (mid-eviction churn, tiny cache), recovers, and the
/// stream resumes. Degradation must be fail-closed the whole way —
/// flows across the crashed switch count as unrouted rather than
/// consulting a dead cache, the dependency audit stays green through
/// the safe-mode fencing and the recovery re-sync, and no eviction ever
/// strands a shield.
#[test]
fn cache_stays_dependency_safe_across_switch_crash() {
    use flowplace::ctrl::{CacheConfig, CachePolicy};
    use flowplace::traffic::{generate, TrafficConfig};

    for seed in 0..8u64 {
        let mut rng = StdRng::seed_from_u64(0xCAC4E ^ seed);
        let mut topo = Topology::linear(3);
        topo.set_uniform_capacity(8);
        let policy = if seed % 2 == 0 {
            CachePolicy::Lru
        } else {
            CachePolicy::DepFreq
        };
        let mut ctrl = Controller::new(
            topo,
            CtrlOptions {
                cache: CacheConfig {
                    enabled: true,
                    // 2–3 entries: eviction churn on every phase.
                    capacity: 2 + (seed % 2) as usize,
                    policy,
                    ..CacheConfig::default()
                },
                ..CtrlOptions::default()
            },
        );
        ctrl.submit(install(&mut rng, 0, vec![0, 1, 2])).unwrap();
        ctrl.submit(install(&mut rng, 1, vec![2, 1, 0])).unwrap();
        ctrl.run_to_idle()
            .unwrap_or_else(|e| panic!("seed {seed}: install failed: {e}"));

        let stream = |s: u64| {
            generate(&TrafficConfig {
                seed: s,
                rate: 1_000,
                duration_ms: 50,
                ingresses: 2,
                width: WIDTH,
                flows_per_ingress: 16,
                ..TrafficConfig::default()
            })
        };

        // Warm phase, then the crash lands mid-churn.
        let warm = ctrl.process_flows(&stream(seed));
        assert!(warm.lookups > 0, "seed {seed}: stream never looked up");
        let victim = SwitchId(rng.gen_range(0..3usize));
        ctrl.submit(Event::SwitchFail { switch: victim }).unwrap();
        ctrl.run_to_idle()
            .unwrap_or_else(|e| panic!("seed {seed}: crash epoch failed: {e}"));

        // Degraded phase: flows whose route crosses the dead switch
        // must be unrouted, never served from a stale cache.
        let degraded = ctrl.process_flows(&stream(seed ^ 0xBEEF));
        assert_eq!(
            degraded.dep_violations, 0,
            "seed {seed}: violation while degraded"
        );
        ctrl.cache()
            .audit()
            .unwrap_or_else(|e| panic!("seed {seed}: degraded structural audit: {e}"));
        ctrl.cache_fail_closed_audit()
            .unwrap_or_else(|e| panic!("seed {seed}: degraded fail-closed audit: {e}"));

        // Recovery re-syncs the cache target; the invariant must hold
        // again with traffic flowing.
        ctrl.submit(Event::SwitchRecover { switch: victim })
            .unwrap();
        ctrl.run_to_idle()
            .unwrap_or_else(|e| panic!("seed {seed}: recovery epoch failed: {e}"));
        let recovered = ctrl.process_flows(&stream(seed ^ 0xF00D));
        assert_eq!(recovered.dep_violations, 0, "seed {seed}");
        assert_eq!(ctrl.stats().cache_dep_violations, 0, "seed {seed}");
        ctrl.cache()
            .audit()
            .unwrap_or_else(|e| panic!("seed {seed}: recovered structural audit: {e}"));
        ctrl.cache_fail_closed_audit()
            .unwrap_or_else(|e| panic!("seed {seed}: recovered fail-closed audit: {e}"));
        ctrl.fail_closed_audit()
            .unwrap_or_else(|e| panic!("seed {seed}: final audit failed: {e}"));
    }
}

/// One cell of the fault × pressure matrix: a star topology (hub s0,
/// leaves s1..s4 — so s3/s4 are off-route delegation candidates), two
/// ingresses routed through the hub, then a seed-selected combination
/// of capacity-revocation storm intensity, delegate crash/recover, and
/// cache-enabled traffic replay. Returns a replay fingerprint plus the
/// final counters and safe-mode census.
fn matrix_run(seed: u64, delegation_on: bool) -> (String, CtrlStats, usize) {
    let storm = seed % 3; // revocation intensity
    let crash = (seed / 3) % 2 == 1; // crash/recover the delegate
    let cache_on = (seed / 6) % 2 == 1; // cache-enabled traffic replay
    let mut rng = StdRng::seed_from_u64(0xDE1E_6000 ^ seed);

    let mut topo = Topology::star(4);
    topo.set_uniform_capacity(4);
    let mut options = CtrlOptions {
        batch_size: 4,
        verify_packets: 4,
        delegation: DelegationConfig {
            enabled: delegation_on,
        },
        ..CtrlOptions::default()
    };
    if cache_on {
        options.cache = flowplace::ctrl::CacheConfig {
            enabled: true,
            capacity: 2,
            ..flowplace::ctrl::CacheConfig::default()
        };
    }
    let mut ctrl = Controller::new(topo, options);
    let mut reports = Vec::new();

    // Five billable DROP entries per ingress: 10 total against the 12
    // on-route slots of s1-s0-s2 — tight, not yet over.
    let pressure_install = |ingress: usize, switches: Vec<usize>| {
        let mut rules: Vec<Rule> = (0..5)
            .map(|i| {
                Rule::new(
                    Ternary::new(WIDTH, (1 << WIDTH) - 1, i as u128 + 8),
                    Action::Drop,
                    i as u32 + 2,
                )
            })
            .collect();
        rules.push(Rule::new(Ternary::new(WIDTH, 0, 0), Action::Permit, 1));
        Event::InstallPolicy {
            ingress: EntryPortId(ingress),
            policy: Policy::from_rules(rules).expect("distinct priorities"),
            routes: vec![Route::new(
                EntryPortId(ingress),
                EntryPortId(ingress ^ 1),
                switches.into_iter().map(SwitchId).collect(),
            )],
        }
    };
    ctrl.submit(pressure_install(0, vec![1, 0, 2])).unwrap();
    ctrl.submit(pressure_install(1, vec![2, 0, 1])).unwrap();
    reports.extend(ctrl.run_to_idle().expect("install epoch"));

    // Revocation storm on the shared hub (and a leaf when harsh).
    let revocations: &[(usize, usize)] = match storm {
        0 => &[(0, 2)],
        1 => &[(0, 0)],
        _ => &[(0, 0), (1, 2)],
    };
    for &(switch, capacity) in revocations {
        ctrl.submit(Event::CapacityChange {
            switch: SwitchId(switch),
            capacity,
        })
        .unwrap();
        reports.extend(
            ctrl.run_to_idle()
                .unwrap_or_else(|e| panic!("seed {seed}: storm epoch: {e}")),
        );
    }

    if crash {
        // s3 is the deterministic first-choice delegate; killing it
        // forces a re-home (or clean teardown) when delegation is on,
        // and is a harmless off-route crash when it is off.
        ctrl.submit(Event::SwitchFail {
            switch: SwitchId(3),
        })
        .unwrap();
        reports.extend(
            ctrl.run_to_idle()
                .unwrap_or_else(|e| panic!("seed {seed}: crash epoch: {e}")),
        );
        ctrl.submit(Event::SwitchRecover {
            switch: SwitchId(3),
        })
        .unwrap();
        reports.extend(
            ctrl.run_to_idle()
                .unwrap_or_else(|e| panic!("seed {seed}: recover epoch: {e}")),
        );
    }

    if cache_on {
        let flows = flowplace::traffic::generate(&flowplace::traffic::TrafficConfig {
            seed: rng.gen_range(0..1_000u64),
            rate: 1_000,
            duration_ms: 30,
            ingresses: 2,
            width: WIDTH,
            flows_per_ingress: 8,
            ..flowplace::traffic::TrafficConfig::default()
        });
        ctrl.process_flows(&flows);
        ctrl.cache()
            .audit()
            .unwrap_or_else(|e| panic!("seed {seed}: cache audit: {e}"));
        ctrl.cache_fail_closed_audit()
            .unwrap_or_else(|e| panic!("seed {seed}: cache fail-closed audit: {e}"));
    }

    assert_eq!(
        ctrl.stats().failclosed_violations,
        0,
        "seed {seed}: fail-closed violated (delegation={delegation_on})"
    );
    ctrl.fail_closed_audit()
        .unwrap_or_else(|e| panic!("seed {seed}: final audit (delegation={delegation_on}): {e}"));

    let fingerprint = format!(
        "{reports:?}\n{}\n{}\n{}",
        ctrl.dataplane().dump(),
        ctrl.stats(),
        ctrl.virtual_time_ms()
    );
    let safe = ctrl.safe_mode_ingresses().len();
    (fingerprint, ctrl.stats().clone(), safe)
}

/// The fault × pressure chaos matrix: 36 seeds spanning revocation
/// storms × delegate crash/recover × cache traffic replay. Every cell
/// must stay fail-closed and replay byte-identically; delegation must
/// actually fire across the matrix and never fail more closed than the
/// rung-less baseline under the identical schedule — strictly less in
/// aggregate.
#[test]
fn delegation_matrix_is_fail_closed_and_deterministic() {
    let mut delegations_total = 0u64;
    let mut safe_with = 0usize;
    let mut safe_without = 0usize;
    for seed in 0..36u64 {
        let (fp_a, stats_on, safe_on) = matrix_run(seed, true);
        let (fp_b, _, _) = matrix_run(seed, true);
        assert_eq!(fp_a, fp_b, "seed {seed}: replay is not byte-identical");
        let (_, _, safe_off) = matrix_run(seed, false);
        assert!(
            safe_on <= safe_off,
            "seed {seed}: delegation made degradation worse ({safe_on} > {safe_off})"
        );
        delegations_total += stats_on.delegations;
        safe_with += safe_on;
        safe_without += safe_off;
    }
    assert!(
        delegations_total > 0,
        "the matrix never exercised the delegation rung"
    );
    assert!(
        safe_with < safe_without,
        "delegation should strictly reduce drop-all across the matrix \
         ({safe_with} vs {safe_without})"
    );
}

/// Capacity-revocation edge cases (each settles fail-closed and replays
/// byte-identically): revoke-to-zero mid-epoch, revoke landing in the
/// same batch as a staged-but-uncommitted install, and revoke on a
/// quarantined switch.
#[test]
fn capacity_revocation_edge_cases_settle_fail_closed() {
    let run = |scenario: usize| {
        let mut rng = StdRng::seed_from_u64(0xCA9_0000 ^ scenario as u64);
        let mut topo = Topology::linear(3);
        topo.set_uniform_capacity(4);
        let mut ctrl = Controller::new(
            topo,
            CtrlOptions {
                batch_size: 4,
                verify_packets: 4,
                ..CtrlOptions::default()
            },
        );
        let mut reports = Vec::new();
        match scenario {
            0 => {
                // Revoke-to-zero mid-epoch: the shrink lands in the
                // middle of a batch, between two rule adds.
                ctrl.submit(install(&mut rng, 0, vec![0, 1, 2])).unwrap();
                reports.extend(ctrl.run_to_idle().unwrap());
                ctrl.submit(Event::AddRule {
                    ingress: EntryPortId(0),
                    rule: rand_rule(&mut rng, 20),
                })
                .unwrap();
                ctrl.submit(Event::CapacityChange {
                    switch: SwitchId(1),
                    capacity: 0,
                })
                .unwrap();
                ctrl.submit(Event::AddRule {
                    ingress: EntryPortId(0),
                    rule: rand_rule(&mut rng, 21),
                })
                .unwrap();
            }
            1 => {
                // Revoke during a staged-but-uncommitted transaction:
                // the install stages entries in the same epoch's
                // working state, then the revoke yanks the capacity
                // before anything commits.
                ctrl.submit(install(&mut rng, 0, vec![0, 1, 2])).unwrap();
                ctrl.submit(Event::CapacityChange {
                    switch: SwitchId(1),
                    capacity: 0,
                })
                .unwrap();
            }
            _ => {
                // Revoke on a quarantined switch: the crash makes s1
                // unmanageable, the revoke must park in saved_capacity
                // and apply on recovery, never resurrecting the old
                // bank.
                ctrl.submit(install(&mut rng, 0, vec![0, 1, 2])).unwrap();
                reports.extend(ctrl.run_to_idle().unwrap());
                ctrl.submit(Event::SwitchFail {
                    switch: SwitchId(1),
                })
                .unwrap();
                reports.extend(ctrl.run_to_idle().unwrap());
                ctrl.submit(Event::CapacityChange {
                    switch: SwitchId(1),
                    capacity: 1,
                })
                .unwrap();
                reports.extend(ctrl.run_to_idle().unwrap());
                ctrl.submit(Event::SwitchRecover {
                    switch: SwitchId(1),
                })
                .unwrap();
            }
        }
        reports.extend(ctrl.run_to_idle().unwrap());
        assert_eq!(
            ctrl.stats().failclosed_violations,
            0,
            "scenario {scenario}: violation"
        );
        ctrl.fail_closed_audit()
            .unwrap_or_else(|e| panic!("scenario {scenario}: audit: {e}"));
        format!("{reports:?}\n{}\n{}", ctrl.dataplane().dump(), ctrl.stats())
    };
    for scenario in 0..3usize {
        assert_eq!(
            run(scenario),
            run(scenario),
            "scenario {scenario}: replay diverged"
        );
    }
}

/// A commit-time verify violation fails the one ingress closed and
/// commits the rest, on a controller with no fault plan and nothing
/// fenced as on any other. The visible case is bringing up an
/// infeasible instance: `l0` needs 5 entries on a 2-slot switch, so the
/// solve is rejected, the empty placement leaks both policies' DROPs,
/// and the controller comes back with both ingresses fenced instead of
/// an `Err` — then lifts each fence as soon as its ingress fits.
#[test]
fn infeasible_bring_up_fails_closed_then_lifts() {
    let drops = |n: u32| -> Policy {
        let mut rules: Vec<Rule> = (0..n)
            .map(|i| Rule::new(Ternary::new(WIDTH, 0xF, i as u128), Action::Drop, i + 2))
            .collect();
        rules.push(Rule::new(Ternary::new(WIDTH, 0, 0), Action::Permit, 1));
        Policy::from_rules(rules).expect("distinct priorities")
    };
    let route = |l, egress, hops: &[usize]| {
        Route::new(
            EntryPortId(l),
            EntryPortId(egress),
            hops.iter().copied().map(SwitchId).collect(),
        )
    };
    let (l0, l1) = (EntryPortId(0), EntryPortId(1));
    let mut topo = Topology::linear(3);
    topo.set_uniform_capacity(2);
    let instance = Instance::new(
        topo,
        RouteSet::from_routes(vec![route(0, 1, &[0]), route(1, 0, &[1, 2])]),
        vec![(l0, drops(5)), (l1, drops(2))],
    )
    .expect("valid instance");

    let mut ctrl = Controller::with_instance(instance, CtrlOptions::default())
        .expect("an infeasible instance comes up fenced, not refused");
    assert_eq!(ctrl.safe_mode_ingresses(), vec![l0, l1]);
    assert_eq!(ctrl.stats().verify_failures, 2);
    assert_eq!(ctrl.placement().total_rules(), 0);
    ctrl.fail_closed_audit().expect("fenced is fail-closed");
    assert_eq!(ctrl.stats().failclosed_violations, 0);

    // Any further epoch tries the fences: l1 fits on its own.
    ctrl.submit(Event::Checkpoint).unwrap();
    ctrl.run_to_idle().unwrap();
    assert_eq!(ctrl.safe_mode_ingresses(), vec![l0]);
    ctrl.fail_closed_audit()
        .expect("half-lifted is fail-closed");

    // Room on s0 lifts l0; nothing is fenced and the deployment is exact.
    ctrl.submit(Event::CapacityChange {
        switch: SwitchId(0),
        capacity: 8,
    })
    .unwrap();
    ctrl.run_to_idle().unwrap();
    assert!(ctrl.safe_mode_ingresses().is_empty());
    flowplace::core::verify::verify_placement(ctrl.instance(), ctrl.placement(), 8, ctrl.epoch())
        .expect("lifted deployment is exact");
    let fence = format!("[{}]", u32::MAX);
    assert!(
        !ctrl.dataplane().dump().contains(&fence),
        "a drop-all fence outlived its safe mode:\n{}",
        ctrl.dataplane().dump()
    );
    assert_eq!(ctrl.stats().failclosed_violations, 0);
}

/// Backpressure under overload stays observable (counted, reported) and
/// recoverable: once the queue drains, new submissions are accepted
/// again and the run still ends fail-closed.
#[test]
fn backpressure_is_observable_and_recoverable() {
    let mut topo = Topology::linear(3);
    topo.set_uniform_capacity(8);
    let mut ctrl = Controller::new(
        topo,
        CtrlOptions {
            queue_capacity: 3,
            batch_size: 2,
            ..CtrlOptions::default()
        },
    );
    let mut rng = StdRng::seed_from_u64(9);
    ctrl.submit(install(&mut rng, 0, vec![0, 1, 2])).unwrap();
    ctrl.submit(Event::Solve).unwrap();
    ctrl.submit(Event::Checkpoint).unwrap();
    // Queue full: the next submissions bounce, visibly.
    for expected in 1..=3u64 {
        assert!(ctrl.submit(Event::Solve).is_err(), "overflow accepted");
        assert_eq!(ctrl.stats().events_rejected, expected);
    }
    assert_eq!(ctrl.pending(), 3, "rejected events must not enqueue");

    // Draining restores service; rejects are a counter, not a latch.
    ctrl.run_to_idle().unwrap();
    assert_eq!(ctrl.pending(), 0);
    ctrl.submit(Event::Solve)
        .expect("queue drained, room again");
    ctrl.run_to_idle().unwrap();
    assert_eq!(ctrl.stats().events_rejected, 3);
    assert_eq!(ctrl.stats().failclosed_violations, 0);
}

// ---------------------------------------------------------------------
// Per-tenant fault isolation
// ---------------------------------------------------------------------

/// One tenant's placement slice, as comparable owned data.
fn placement_slice(
    ctrl: &Controller,
    ingress: EntryPortId,
) -> Vec<(flowplace::acl::RuleId, std::collections::BTreeSet<SwitchId>)> {
    ctrl.placement()
        .iter()
        .filter(|((l, _), _)| *l == ingress)
        .map(|((_, r), switches)| (*r, switches.clone()))
        .collect()
}

/// Builds the two-tenant fixture: `l0` routed `s0-s1-s2`, `l1` routed
/// `s3-s4-s5` on `linear(6)`. `s0` is kept tiny so tenant 0 spills onto
/// `s1` — the switch the fault schedule targets — and the fault provably
/// moves entries.
fn isolation_run(schedule: Vec<flowplace::ctrl::ScheduledFault>) -> Controller {
    let mut topo = Topology::linear(6);
    topo.set_uniform_capacity(32);
    topo.set_capacity(SwitchId(0), 2);
    let options = CtrlOptions {
        batch_size: 2,
        verify_packets: 4,
        faults: FaultPlan {
            schedule,
            ..FaultPlan::default()
        },
        ..CtrlOptions::default()
    };
    let mut ctrl = Controller::new(topo, options);

    let mut rng = StdRng::seed_from_u64(0x150);
    let mut events = vec![
        install(&mut rng, 0, vec![0, 1, 2]),
        install(&mut rng, 1, vec![3, 4, 5]),
    ];
    for i in 0..8u32 {
        events.push(Event::AddRule {
            ingress: EntryPortId((i % 2) as usize),
            rule: rand_rule(&mut rng, 40 + i),
        });
    }
    events.push(Event::Solve);
    events.push(Event::Checkpoint);
    ctrl.replay(events)
        .expect("isolation fixture replays clean");
    ctrl
}

/// The tenant isolation property: a switch crash (or an install-reject
/// storm that ends in quarantine) on tenant 0's route moves tenant 0's
/// entries but never perturbs tenant 1's placement slice — and the
/// faulty run replays byte-identically.
#[test]
fn fault_on_one_tenants_switch_never_perturbs_the_other() {
    let calm = isolation_run(vec![]);
    let calm_l0 = placement_slice(&calm, EntryPortId(0));
    let calm_l1 = placement_slice(&calm, EntryPortId(1));
    assert!(
        calm_l0.iter().any(|(_, sw)| sw.contains(&SwitchId(1))),
        "fixture must park tenant-0 entries on s1 for the fault to bite"
    );

    for (label, schedule) in [
        (
            "crash s1",
            vec![ScheduledFault {
                epoch: 3,
                kind: FaultKind::Crash {
                    switch: SwitchId(1),
                },
            }],
        ),
        (
            "install-reject storm on s1",
            vec![ScheduledFault {
                epoch: 3,
                kind: FaultKind::InstallReject {
                    switch: SwitchId(1),
                    count: 64,
                },
            }],
        ),
    ] {
        let faulty = isolation_run(schedule.clone());
        assert_ne!(
            calm_l0,
            placement_slice(&faulty, EntryPortId(0)),
            "{label}: the fault must actually move tenant 0's entries"
        );
        assert_eq!(
            calm_l1,
            placement_slice(&faulty, EntryPortId(1)),
            "{label}: tenant 1's slice must be untouched by a fault on tenant 0's route"
        );

        // Faults and all, the run is deterministic: replaying the
        // identical schedule reproduces every observable byte.
        let again = isolation_run(schedule);
        assert_eq!(
            format!("{:?}", faulty.placement()),
            format!("{:?}", again.placement()),
            "{label}: placement replay diverged"
        );
        assert_eq!(
            faulty.stats().to_string(),
            again.stats().to_string(),
            "{label}: stats replay diverged"
        );
        assert_eq!(
            faulty.dataplane().dump(),
            again.dataplane().dump(),
            "{label}: dataplane replay diverged"
        );
    }
}
