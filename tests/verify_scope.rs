//! Scoped ≡ full verification and reused ≡ fresh emission, on event
//! streams.
//!
//! Every commit of a [`Controller`] verifies in full only the routes
//! whose inputs changed since its last passing verify
//! (`flowplace::core::verify::VerifiedRoutes`), and re-emits only the
//! ingresses whose policy or placement share moved since its last emit
//! (`flowplace::core::tables::Emitter`). Both are pure accelerators:
//! over 32 randomized seeds (cache tier enabled, fault events included),
//! replayed with no fault plan, under one that rejects installs all the
//! way through, and with §IV-B merging on, every committed epoch must
//! also pass the full reference sweep `verify_placement`, and its
//! verdict, the dataplane, the stats and the memo's counts must equal
//! those of the same stream through a controller whose emitter is reset
//! every epoch. Two runs of a seed must agree byte for byte on every
//! observable, and the memo must actually skip routes and the emitter
//! reuse runs on every arm — a key that never matched would pass
//! everything else and silently lose the speed.

use flowplace::acl::{Action, Policy, Rule, RuleId, Ternary};
use flowplace::core::verify::verify_placement;
use flowplace::ctrl::{CacheConfig, Controller, CtrlOptions, Event, FaultPlan};
use flowplace::obs::Obs;
use flowplace::prelude::*;
use flowplace::rng::{Rng, StdRng};

const WIDTH: u32 = 4;

/// A random rule; `pooled` draws its match from four 2-bit prefixes,
/// so tenants share rules and §IV-B merging has something to merge.
fn rand_rule(rng: &mut StdRng, priority: u32, pooled: bool) -> Rule {
    let (care, value) = if pooled {
        (0b1100, rng.gen_range(0u128..4) << 2)
    } else {
        (
            rng.gen_range(0u128..(1 << WIDTH)),
            rng.gen_range(0u128..(1 << WIDTH)),
        )
    };
    let action = if rng.gen_bool(0.7) {
        Action::Drop
    } else {
        Action::Permit
    };
    Rule::new(Ternary::new(WIDTH, care, value), action, priority)
}

fn install(rng: &mut StdRng, ingress: usize, switches: Vec<usize>, pooled: bool) -> Event {
    let egress = ingress + 4;
    let n = rng.gen_range(1..=4usize);
    let mut rules: Vec<Rule> = (0..n)
        .map(|p| rand_rule(rng, p as u32 + 2, pooled))
        .collect();
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
/// fences and capacity pressure. `pooled` as in [`rand_rule`].
fn rand_events(rng: &mut StdRng, pooled: bool) -> Vec<Event> {
    let mut events = vec![
        install(rng, 0, vec![0, 1], pooled),
        install(rng, 1, vec![1, 2], pooled),
        install(rng, 2, vec![2, 3], pooled),
        install(rng, 3, vec![3, 2, 1, 0], pooled),
    ];
    let mut priority = 10;
    for _ in 0..rng.gen_range(8..20usize) {
        priority += 1;
        let ingress = EntryPortId(rng.gen_range(0..4usize));
        let switch = SwitchId(rng.gen_range(0..4usize));
        events.push(match rng.gen_range(0..12u32) {
            0..=4 => Event::AddRule {
                ingress,
                rule: rand_rule(rng, priority, pooled),
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

fn options(faults: FaultPlan, merging: bool) -> CtrlOptions {
    let mut options = CtrlOptions {
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
    };
    options.placement.merging = merging;
    options
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

/// What a run saw beyond its final observables.
#[derive(Default)]
struct Seen {
    /// Committed epochs whose dataplane held a merged (multi-tag) entry.
    merged_epochs: u64,
    /// Ingresses the reset emitter rebuilt, summed over epochs.
    fresh_rebuilt: u64,
}

/// The state after an epoch that a fresh emission must reproduce.
fn epoch_state(ctrl: &Controller) -> [String; 3] {
    let memo = ctrl.verified_routes();
    [
        ctrl.dataplane().dump(),
        ctrl.stats().to_string(),
        format!("{}/{}", memo.routes_full(), memo.routes_skipped()),
    ]
}

/// Replays `events` with [`Controller::replay`]'s backpressure rule, one
/// epoch at a time, beside a controller fed the same events whose
/// emitter is reset before every epoch: each epoch's verdict and state
/// must be the same on both. Every committed epoch that left no
/// safe-mode ingress (those are fenced by a drop-all, deliberately
/// stricter than their policy) is checked against the full reference
/// sweep.
fn replay_checked(seed: u64, events: &[Event], options: &CtrlOptions) -> (Controller, Seen) {
    fn drain(seed: u64, ctrl: &mut Controller, fresh: &mut Controller, seen: &mut Seen) {
        loop {
            fresh.reset_emitter();
            let want = fresh.run_epoch();
            let got = ctrl.run_epoch();
            assert_eq!(
                format!("{got:?}"),
                format!("{want:?}"),
                "seed {seed}: a reused emission changed the verdict"
            );
            let Some(report) = got.unwrap_or_else(|e| panic!("seed {seed}: {e}")) else {
                break;
            };
            let epoch = report.epoch;
            seen.fresh_rebuilt += fresh.emitter().ingresses_rebuilt();
            for (name, (w, g)) in ["dataplane", "stats", "memo"]
                .iter()
                .zip(epoch_state(fresh).iter().zip(epoch_state(ctrl).iter()))
            {
                assert_eq!(
                    w, g,
                    "seed {seed} epoch {epoch}: {name} diverged from a fresh emit"
                );
            }
            let dataplane = ctrl.dataplane();
            let tcams = (0..dataplane.switch_count()).map(|s| dataplane.switch(SwitchId(s)));
            if tcams.flat_map(|t| t.entries()).any(|e| e.tags.len() > 1) {
                seen.merged_epochs += 1;
            }
            if report.safe_mode.is_empty() {
                let packets = ctrl.options().verify_packets;
                verify_placement(ctrl.instance(), ctrl.placement(), packets, epoch)
                    .unwrap_or_else(|e| panic!("seed {seed} epoch {epoch}: {e}"));
            }
        }
    }
    let controller = || {
        let mut topo = Topology::linear(4);
        topo.set_uniform_capacity(12);
        let mut ctrl = Controller::new(topo, options.clone());
        ctrl.attach_obs(Obs::new());
        ctrl
    };
    let (mut ctrl, mut fresh, mut seen) = (controller(), controller(), Seen::default());
    for event in events {
        if ctrl.pending() >= ctrl.options().queue_capacity {
            drain(seed, &mut ctrl, &mut fresh, &mut seen);
        }
        ctrl.submit(event.clone()).expect("queue has room");
        fresh.submit(event.clone()).expect("queue has room");
    }
    drain(seed, &mut ctrl, &mut fresh, &mut seen);
    let observables = observables(&ctrl).into_iter().zip(observables(&fresh));
    for (name, (g, w)) in OBSERVABLES.iter().zip(observables) {
        assert_eq!(w, g, "seed {seed}: {name} diverged from a fresh emit");
    }
    (ctrl, seen)
}

const OBSERVABLES: [&str; 6] = [
    "placement",
    "stats",
    "dataplane",
    "clock",
    "trace",
    "metrics",
];

#[test]
fn scoped_commits_equal_the_full_sweep_over_32_seeds() {
    let arms = |seed| {
        let rejecting = FaultPlan {
            seed,
            install_reject_rate: 0.1,
            ..FaultPlan::default()
        };
        [
            ("fault-free", options(FaultPlan::default(), false), false),
            ("rejecting", options(rejecting, false), false),
            ("merging", options(FaultPlan::default(), true), true),
        ]
    };
    let (mut skipped, mut injected, mut reused, mut merged) = ([0; 3], [0; 3], [0; 3], [0; 3]);
    for seed in 0..32u64 {
        for (arm, (label, options, pooled)) in arms(seed).iter().enumerate() {
            let events = rand_events(&mut StdRng::seed_from_u64(0x5AAD_0000 ^ seed), *pooled);
            let (first, seen) = replay_checked(seed, &events, options);
            let (again, _) = replay_checked(seed, &events, options);
            let observables = observables(&first).into_iter().zip(observables(&again));
            for (name, (w, g)) in OBSERVABLES.iter().zip(observables) {
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
            reused[arm] += seen.fresh_rebuilt - first.emitter().ingresses_rebuilt();
            merged[arm] += seen.merged_epochs;
        }
    }
    assert!(
        skipped.iter().all(|&s| s > 0),
        "a memo never skipped: {skipped:?}"
    );
    assert!(
        reused.iter().all(|&r| r > 0),
        "an emitter never reused: {reused:?}"
    );
    assert!(
        injected[0] == 0 && injected[1] > 0 && injected[2] == 0,
        "arms mislabelled"
    );
    assert!(
        merged[2] > 0 && merged[0] == 0,
        "merged epochs per arm: {merged:?}"
    );
}
