//! Scoped ≡ full verification, on event streams.
//!
//! Every commit of a [`Controller`] verifies in full only the routes
//! whose inputs changed since its last passing verify
//! (`flowplace::core::verify::VerifiedRoutes`). That is a pure
//! accelerator: over 32 randomized seeds (cache tier enabled, fault
//! events included), replayed once with no fault plan and once under
//! one that rejects installs all the way through, every
//! committed epoch must also pass the full reference sweep
//! `verify_placement`, two runs of a seed must agree byte for byte on
//! every observable, and the memo must actually skip routes on both
//! arms — a key that never matched would pass everything else and
//! silently lose the speed.

use flowplace::acl::{Action, Policy, Rule, RuleId, Ternary};
use flowplace::core::verify::verify_placement;
use flowplace::ctrl::{CacheConfig, Controller, CtrlOptions, Event, FaultPlan};
use flowplace::obs::Obs;
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
    let egress = ingress + 4;
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

/// A randomized event stream over four tenants on `linear(4)`: rule
/// churn, reroutes, capacity changes, faults, snapshots — everything
/// the controller accepts, so the commit runs with and without outages,
/// fences and capacity pressure.
fn rand_events(rng: &mut StdRng) -> Vec<Event> {
    let mut events = vec![
        install(rng, 0, vec![0, 1]),
        install(rng, 1, vec![1, 2]),
        install(rng, 2, vec![2, 3]),
        install(rng, 3, vec![3, 2, 1, 0]),
    ];
    let mut priority = 10;
    for _ in 0..rng.gen_range(8..20usize) {
        priority += 1;
        let ingress = EntryPortId(rng.gen_range(0..4usize));
        let switch = SwitchId(rng.gen_range(0..4usize));
        events.push(match rng.gen_range(0..12u32) {
            0..=4 => Event::AddRule {
                ingress,
                rule: rand_rule(rng, priority),
            },
            5..=6 => Event::RemoveRule {
                ingress,
                rule: RuleId(rng.gen_range(0..4usize)),
            },
            7 => Event::CapacityChange {
                switch,
                capacity: rng.gen_range(4..16usize),
            },
            8 => Event::SwitchFail { switch },
            9 => Event::SwitchRecover { switch },
            10 => Event::Solve,
            _ => Event::Checkpoint,
        });
    }
    events
}

fn options(faults: FaultPlan) -> CtrlOptions {
    CtrlOptions {
        batch_size: 4,
        verify_packets: 4,
        faults,
        // The differential must hold with the cache tier enabled.
        cache: CacheConfig {
            enabled: true,
            capacity: 4,
            ..CacheConfig::default()
        },
        ..CtrlOptions::default()
    }
}

/// Every observable of a finished run, as comparable strings.
fn observables(ctrl: &Controller) -> [String; 6] {
    let obs = ctrl.obs().expect("obs attached");
    [
        format!("{:?}", ctrl.placement()),
        ctrl.stats().to_string(),
        ctrl.dataplane().dump(),
        format!("{}/{}", ctrl.epoch(), ctrl.virtual_time_ms()),
        obs.trace_json(),
        obs.metrics_json(),
    ]
}

/// Replays `events` with [`Controller::replay`]'s backpressure rule, one
/// epoch at a time, checking every committed epoch that left no
/// safe-mode ingress (those are fenced by a drop-all, deliberately
/// stricter than their policy) against the full reference sweep.
fn replay_checked(seed: u64, events: &[Event], faults: &FaultPlan) -> Controller {
    fn drain(seed: u64, ctrl: &mut Controller) {
        while let Some(report) = ctrl
            .run_epoch()
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"))
        {
            if report.safe_mode.is_empty() {
                let packets = ctrl.options().verify_packets;
                verify_placement(ctrl.instance(), ctrl.placement(), packets, report.epoch)
                    .unwrap_or_else(|e| panic!("seed {seed} epoch {}: {e}", report.epoch));
            }
        }
    }
    let mut topo = Topology::linear(4);
    topo.set_uniform_capacity(12);
    let mut ctrl = Controller::new(topo, options(faults.clone()));
    ctrl.attach_obs(Obs::new());
    for event in events {
        if ctrl.pending() >= ctrl.options().queue_capacity {
            drain(seed, &mut ctrl);
        }
        ctrl.submit(event.clone()).expect("queue has room");
    }
    drain(seed, &mut ctrl);
    ctrl
}

#[test]
fn scoped_commits_equal_the_full_sweep_over_32_seeds() {
    let arms = |seed| {
        let rejecting = FaultPlan {
            seed,
            install_reject_rate: 0.1,
            ..FaultPlan::default()
        };
        [
            ("fault-free", FaultPlan::default()),
            ("rejecting", rejecting),
        ]
    };
    let (mut skipped, mut injected) = ([0, 0], [0, 0]);
    for seed in 0..32u64 {
        let events = rand_events(&mut StdRng::seed_from_u64(0x5AAD_0000 ^ seed));
        for (arm, (label, faults)) in arms(seed).iter().enumerate() {
            let first = replay_checked(seed, &events, faults);
            let again = replay_checked(seed, &events, faults);
            for (name, (w, g)) in [
                "placement",
                "stats",
                "dataplane",
                "clock",
                "trace",
                "metrics",
            ]
            .iter()
            .zip(observables(&first).iter().zip(observables(&again).iter()))
            {
                assert_eq!(
                    w, g,
                    "seed {seed} {label}: {name} diverged between two runs"
                );
            }
            assert_eq!(
                first.stats().failclosed_violations,
                0,
                "seed {seed} {label}"
            );
            skipped[arm] += first.verified_routes().routes_skipped();
            injected[arm] += first.stats().faults_injected;
        }
    }
    assert!(skipped[0] > 0, "no route ever rode the memo");
    assert!(skipped[1] > 0, "no route ever rode the memo under faults");
    assert!(injected[0] == 0 && injected[1] > 0, "arms mislabelled");
}
