//! Differential test for the warm path: a controller with the warm
//! caches enabled (the default) must stay byte-identical to a cold
//! controller over randomized §IV-E update streams — rule adds,
//! removes, modifies, and reroutes — including across checkpoint /
//! rollback, where the placement memo answers the replayed epoch.
//!
//! Both controllers see the exact same event sequence, one event per
//! epoch, and after every epoch the working placement and the emitted
//! dataplane tables must match exactly.

use std::collections::BTreeMap;

use flowplace::acl::{Action, Policy, Rule, RuleId, Ternary};
use flowplace::core::{par, WarmCache, WarmConfig};
use flowplace::ctrl::EventOutcome;
use flowplace::milp::MipOptions;
use flowplace::prelude::*;
use flowplace::rng::{Rng, StdRng};

const WIDTH: u32 = 4;
const SEEDS: u64 = 32;
/// Simplex iterations per solve in the budgeted arm: short of what the
/// session streams' larger instances need, enough for the smaller ones.
const BUDGET: usize = 20;

fn rand_rule(rng: &mut StdRng, priority: u32) -> Rule {
    let care = rng.gen_range(0u128..(1 << WIDTH));
    let value = rng.gen_range(0u128..(1 << WIDTH));
    let action = if rng.gen_bool(0.6) {
        Action::Drop
    } else {
        Action::Permit
    };
    Rule::new(Ternary::new(WIDTH, care, value), action, priority)
}

fn install(rng: &mut StdRng, ingress: usize) -> Event {
    let (egress, switches) = if ingress == 0 {
        (2, vec![0, 1, 2])
    } else {
        (0, vec![2, 1, 0])
    };
    let n = rng.gen_range(2..=5usize);
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

fn reroute(rng: &mut StdRng, ingress: usize) -> Event {
    let (egress, long, short) = if ingress == 0 {
        (2, vec![0, 1, 2], vec![0, 2])
    } else {
        (0, vec![2, 1, 0], vec![2, 0])
    };
    let switches = if rng.gen_bool(0.5) { long } else { short };
    Event::Reroute {
        ingress: EntryPortId(ingress),
        routes: vec![Route::new(
            EntryPortId(ingress),
            EntryPortId(egress),
            switches.into_iter().map(SwitchId).collect(),
        )],
    }
}

/// One §IV-E update, with occasional checkpoint / rollback / re-solve
/// events mixed in so the memo path fires on replayed instances.
fn rand_event(rng: &mut StdRng, priority: &mut u32) -> Event {
    *priority += 1;
    let ingress = EntryPortId(rng.gen_range(0..2usize));
    match rng.gen_range(0..12u32) {
        0..=3 => Event::AddRule {
            ingress,
            rule: rand_rule(rng, *priority),
        },
        4..=5 => Event::RemoveRule {
            ingress,
            rule: RuleId(rng.gen_range(0..4usize)),
        },
        6..=7 => Event::ModifyRule {
            ingress,
            rule: RuleId(rng.gen_range(0..4usize)),
            replacement: rand_rule(rng, *priority),
        },
        8..=9 => reroute(rng, ingress.0),
        10 => Event::Checkpoint,
        _ => Event::Rollback,
    }
}

fn controller(capacity: usize, warm: WarmConfig) -> Controller {
    let mut topo = Topology::linear(3);
    topo.set_uniform_capacity(capacity);
    Controller::new(
        topo,
        CtrlOptions {
            batch_size: 1,
            warm,
            ..CtrlOptions::default()
        },
    )
}

/// Drives a cold and a warm controller through the same event stream
/// and checks the placement and dataplane tables after every epoch.
#[test]
fn warm_path_is_byte_identical_to_cold() {
    let cold_cfg = WarmConfig {
        enabled: false,
        ..WarmConfig::default()
    };
    let mut total_memo_hits = 0;
    for seed in 0..SEEDS {
        let mut rng = StdRng::seed_from_u64(0x11CE_0000 ^ seed);
        let capacity = rng.gen_range(6..12usize);
        let mut cold = controller(capacity, cold_cfg.clone());
        let mut warm = controller(capacity, WarmConfig::default());

        let mut events = vec![install(&mut rng, 0), install(&mut rng, 1)];
        // A checkpoint → burst → rollback → re-solve core guarantees
        // the rolled-back instance is replayed verbatim each seed.
        events.push(Event::Checkpoint);
        let mut priority = 10;
        for _ in 0..rng.gen_range(8..14usize) {
            events.push(rand_event(&mut rng, &mut priority));
        }
        events.push(Event::Rollback);
        events.push(Event::Solve);

        for (step, event) in events.into_iter().enumerate() {
            cold.submit(event.clone()).expect("cold queue has room");
            warm.submit(event).expect("warm queue has room");
            cold.run_to_idle()
                .unwrap_or_else(|e| panic!("seed {seed} step {step}: cold run failed: {e}"));
            warm.run_to_idle()
                .unwrap_or_else(|e| panic!("seed {seed} step {step}: warm run failed: {e}"));
            assert_eq!(
                warm.placement(),
                cold.placement(),
                "seed {seed} step {step}: placements diverged"
            );
            assert_eq!(
                warm.dataplane().dump(),
                cold.dataplane().dump(),
                "seed {seed} step {step}: dataplane tables diverged"
            );
        }
        assert_eq!(warm.stats().events_in, cold.stats().events_in);
        assert_eq!(warm.stats().events_failed, cold.stats().events_failed);
        assert_eq!(warm.stats().epochs, cold.stats().epochs);
        total_memo_hits += warm.stats().warm_memo_hits;
        assert_eq!(cold.stats().warm_memo_hits, 0, "cold controller cached");
    }
    assert!(
        total_memo_hits > 0,
        "the memo never fired across {SEEDS} rollback streams"
    );
}

/// A 2-entry placement memo under churn: FIFO eviction must fire, the
/// lookup ledger must balance (`hits + misses == lookups`, evictions
/// bounded by misses), and the rollback *error* path (nothing to roll
/// back) must reject cleanly on both sides — all while the warm
/// controller stays byte-identical to the cold one.
#[test]
fn memo_eviction_and_rollback_error_path_stay_identical() {
    let cold_cfg = WarmConfig {
        enabled: false,
        ..WarmConfig::default()
    };
    let tiny = WarmConfig {
        memo_capacity: 2,
        ..WarmConfig::default()
    };
    let mut total_evictions = 0;
    for seed in 0..SEEDS {
        let mut rng = StdRng::seed_from_u64(0xE71C_0000 ^ seed);
        let capacity = rng.gen_range(6..12usize);
        let mut cold = controller(capacity, cold_cfg.clone());
        let mut warm = controller(capacity, tiny.clone());

        // Leading rollback with no checkpoint: the per-event error path
        // must reject identically on both controllers.
        let mut events = vec![
            Event::Rollback,
            install(&mut rng, 0),
            install(&mut rng, 1),
            Event::Checkpoint,
        ];
        let mut priority = 10;
        // Enough distinct full solves to overflow a 2-entry memo, then
        // a rollback + re-solve whose memoized instance may or may not
        // have survived eviction — both answers must match cold.
        for _ in 0..rng.gen_range(6..10usize) {
            events.push(rand_event(&mut rng, &mut priority));
            if rng.gen_bool(0.4) {
                events.push(Event::Solve);
            }
        }
        events.push(Event::Rollback);
        events.push(Event::Solve);

        for (step, event) in events.into_iter().enumerate() {
            cold.submit(event.clone()).expect("cold queue has room");
            warm.submit(event).expect("warm queue has room");
            cold.run_to_idle()
                .unwrap_or_else(|e| panic!("seed {seed} step {step}: cold run failed: {e}"));
            warm.run_to_idle()
                .unwrap_or_else(|e| panic!("seed {seed} step {step}: warm run failed: {e}"));
            assert_eq!(
                warm.placement(),
                cold.placement(),
                "seed {seed} step {step}: placements diverged"
            );
            assert_eq!(
                warm.dataplane().dump(),
                cold.dataplane().dump(),
                "seed {seed} step {step}: dataplane tables diverged"
            );
        }
        let stats = warm.stats();
        assert!(
            stats.events_failed >= 1,
            "seed {seed}: the empty rollback was not rejected"
        );
        assert_eq!(stats.events_failed, cold.stats().events_failed);
        assert_eq!(
            stats.warm_memo_lookups,
            stats.warm_memo_hits + stats.warm_memo_misses,
            "seed {seed}: memo ledger out of balance"
        );
        assert!(
            stats.warm_memo_evictions <= stats.warm_memo_misses,
            "seed {seed}: more evictions than inserting misses"
        );
        assert_eq!(
            cold.stats().warm_memo_lookups,
            0,
            "seed {seed}: cold controller touched the memo"
        );
        total_evictions += stats.warm_memo_evictions;
    }
    assert!(
        total_evictions > 0,
        "the 2-entry memo never evicted across {SEEDS} streams"
    );
}

/// A session is one controller's replayed stream, interleaved `Solve`s
/// included. On both engines, and on the ILP engine under an iteration
/// budget that cuts its searches short, a warm controller and a cold
/// one, fed the same session, stay equal step by step — verdicts,
/// placement, tables — and every placement passes the reference
/// verifier. This is the one root test that drives a `Controller` on the
/// SAT engine.
#[test]
fn session_solves_are_deterministic_and_verified() {
    for (engine, iteration_limit) in [
        (PlacerEngine::Ilp, None),
        (PlacerEngine::Ilp, Some(BUDGET)),
        (PlacerEngine::Sat, None),
    ] {
        let arm = format!("{engine:?} budget {iteration_limit:?}");
        let (mut memo_hits, mut tiers, mut cut) = (0, [0; 3], 0);
        for seed in 0..SEEDS {
            let mut rng = StdRng::seed_from_u64(0x5E55_0000 ^ seed);
            let capacity = rng.gen_range(6..12usize);
            let build = |enabled| {
                let mut topo = Topology::linear(3);
                topo.set_uniform_capacity(capacity);
                let options = CtrlOptions {
                    batch_size: 1,
                    warm: WarmConfig {
                        enabled,
                        ..WarmConfig::default()
                    },
                    placement: PlacementOptions {
                        engine,
                        mip: MipOptions {
                            iteration_limit,
                            ..MipOptions::default()
                        },
                        ..PlacementOptions::default()
                    },
                    ..CtrlOptions::default()
                };
                Controller::new(topo, options)
            };
            let (mut warm, mut cold) = (build(true), build(false));

            let mut events = vec![
                install(&mut rng, 0),
                install(&mut rng, 1),
                Event::Checkpoint,
            ];
            let mut priority = 10;
            for _ in 0..rng.gen_range(8..14usize) {
                events.push(rand_event(&mut rng, &mut priority));
                if rng.gen_bool(0.3) {
                    events.push(Event::Solve);
                }
            }
            events.push(Event::Rollback);
            events.push(Event::Solve);

            for (step, event) in events.into_iter().enumerate() {
                let at = format!("{arm} seed {seed} step {step}");
                warm.submit(event.clone()).expect("queue has room");
                cold.submit(event).expect("queue has room");
                assert_eq!(
                    format!("{:?}", warm.run_to_idle()),
                    format!("{:?}", cold.run_to_idle()),
                    "{at}: verdicts diverged"
                );
                assert_eq!(
                    warm.placement(),
                    cold.placement(),
                    "{at}: placements diverged"
                );
                assert_eq!(
                    warm.dataplane().dump(),
                    cold.dataplane().dump(),
                    "{at}: dataplane tables diverged"
                );
                flowplace::core::verify::verify_placement(
                    warm.instance(),
                    warm.placement(),
                    8,
                    step as u64,
                )
                .unwrap_or_else(|e| panic!("{at}: placement fails verify: {e}"));
            }
            // A memo hit is the cold outcome, field for field: effort
            // statistics included, and nothing in it is a clock reading.
            let (options, objective) = (&warm.options().placement, &warm.options().objective);
            let solve = |ctx| par::solve(warm.instance(), objective.clone(), options, ctx);
            let cache = WarmCache::default();
            let ctx = SolveCtx {
                warm: Some(&cache),
                obs: None,
            };
            let cold_solve = solve(SolveCtx::default());
            solve(ctx);
            let hit = solve(ctx);
            assert_eq!(hit.provenance, Provenance::Memo, "{arm} seed {seed}");
            assert_eq!(hit.outcome, cold_solve.outcome, "{arm} seed {seed}");
            let proven = matches!(
                hit.outcome.status,
                SolveStatus::Optimal | SolveStatus::Infeasible
            );
            cut += usize::from(engine == PlacerEngine::Ilp && !proven);

            let (s, failed) = (warm.stats(), cold.stats().events_failed);
            assert_eq!(s.events_failed, failed, "{arm} seed {seed}");
            memo_hits += s.warm_memo_hits;
            let ok = [s.greedy_ok, s.restricted_ok, s.full_ok];
            tiers = std::array::from_fn(|i| tiers[i] + ok[i]);
        }
        assert!(memo_hits > 0, "{arm}: the memo never fired");
        assert!(
            tiers.iter().all(|&n| n > 0),
            "{arm} never reached one of greedy / restricted / full: {tiers:?}"
        );
        assert_eq!(cut > 0, iteration_limit.is_some(), "{arm}: {cut} cut");
    }
}

/// Runs `event` as one epoch of `tight` and, if it was applied, of the
/// roomy `twin`, and returns `tight`'s outcome; `tight`'s placement must
/// verify and both must hold the same policies and routes afterwards. A
/// `CapacityChange` only sizes `tight`, and one that no re-solve absorbs
/// returns `None`: it still commits, behind a delegation detour or a
/// fail-closed fence, which is the degradation ladder's ground
/// (`tests/chaos.rs`).
fn settle(
    tight: &mut Controller,
    twin: &mut Controller,
    event: Event,
    at: &str,
) -> Option<EventOutcome> {
    tight.submit(event.clone()).expect("queue has room");
    let reports = tight
        .run_to_idle()
        .unwrap_or_else(|e| panic!("{at}: tight run failed: {e}"));
    let outcome = reports[0].outcomes[0].1.clone();
    let sizing = matches!(event, Event::CapacityChange { .. });
    if sizing && !matches!(outcome, EventOutcome::Applied(Tier::Greedy | Tier::Full)) {
        return None;
    }
    if !sizing && !matches!(outcome, EventOutcome::Rejected { .. }) {
        twin.submit(event).expect("queue has room");
        let mirrored = twin.run_to_idle().expect("twin run");
        assert!(
            !matches!(mirrored[0].outcomes[0].1, EventOutcome::Rejected { .. }),
            "{at}: the roomy twin rejected it"
        );
    }
    flowplace::core::verify::verify_placement(
        tight.instance(),
        tight.placement(),
        8,
        tight.epoch(),
    )
    .unwrap_or_else(|e| panic!("{at}: placement fails verify: {e}"));
    let model = |c: &Controller| {
        let policies: Vec<_> = c.instance().policies().collect();
        format!("{policies:?} {:?}", c.instance().routes())
    };
    assert_eq!(
        model(tight),
        model(twin),
        "{at}: the edit depended on the rung"
    );
    Some(outcome)
}

/// Every rung of the one escalation ladder is reached by every event
/// kind that can reach it, and the edit an event makes does not depend
/// on the rung that placed it: a tight controller (capacity 3..=8, with
/// capacity changes in the stream) keeps the policies and routes of a
/// roomy twin that is fed only the events the tight one applied.
#[test]
fn every_event_kind_reaches_every_rung_with_the_same_edit() {
    let mut reached: BTreeMap<(&str, Tier), usize> = BTreeMap::new();
    let mut tally = |kind: &'static str, outcome: &EventOutcome| {
        if let EventOutcome::Applied(tier) = outcome {
            *reached.entry((kind, *tier)).or_default() += 1;
        }
    };
    for seed in 0..SEEDS {
        let mut rng = StdRng::seed_from_u64(0x1ADD_0000 ^ seed);
        let mut tight = controller(rng.gen_range(3..=8usize), WarmConfig::default());
        let mut twin = controller(64, WarmConfig::default());

        let mut events = vec![install(&mut rng, 0), install(&mut rng, 1)];
        let mut priority = 10;
        for _ in 0..rng.gen_range(16..24usize) {
            events.push(if rng.gen_bool(0.2) {
                Event::CapacityChange {
                    switch: SwitchId(rng.gen_range(0..3usize)),
                    capacity: rng.gen_range(3..=8usize),
                }
            } else {
                rand_event(&mut rng, &mut priority)
            });
        }
        for (step, event) in events.into_iter().enumerate() {
            let (kind, at) = (event.label(), format!("seed {seed} step {step} ({event})"));
            match settle(&mut tight, &mut twin, event, &at) {
                Some(outcome) => tally(kind, &outcome),
                None => break,
            }
        }
    }

    // The streams install into spare room only. Hand-built: two drops of
    // l0 hold a switch that l1's one-hop route needs whole, so the
    // restricted install finds no spare and the full re-solve moves l0.
    let drops = |bits: [u128; 2]| {
        let rule = |(i, b)| Rule::new(Ternary::new(WIDTH, 0xF, b), Action::Drop, i as u32 + 1);
        Policy::from_rules(bits.into_iter().enumerate().map(rule).collect()).unwrap()
    };
    let install_on = |l: usize, bits, hops: Vec<SwitchId>| Event::InstallPolicy {
        ingress: EntryPortId(l),
        policy: drops(bits),
        routes: vec![Route::new(EntryPortId(l), EntryPortId(1 - l), hops)],
    };
    let mut tight = controller(2, WarmConfig::default());
    let mut twin = controller(64, WarmConfig::default());
    let first = install_on(0, [0b0000, 0b1111], (0..3).map(SwitchId).collect());
    settle(&mut tight, &mut twin, first, "hand-built l0").expect("not a capacity change");
    let (_, held) = tight.placement().iter().next().expect("l0 is placed");
    let second = install_on(1, [0b0101, 0b1010], vec![*held.iter().next().unwrap()]);
    let outcome = settle(&mut tight, &mut twin, second, "hand-built l1").unwrap();
    assert_eq!(outcome, EventOutcome::Applied(Tier::Full));
    tally("install-policy", &outcome);

    let all = [Tier::Greedy, Tier::Restricted, Tier::Full];
    let expected = [
        ("add-rule", &all[..]),
        ("modify-rule", &all[..]),
        ("install-policy", &all[1..]),
        ("reroute", &all[1..]),
        ("capacity", &[Tier::Greedy, Tier::Full][..]),
        ("remove-rule", &all[..1]),
    ];
    for (kind, tiers) in expected {
        for tier in tiers {
            assert!(
                reached.contains_key(&(kind, *tier)),
                "{kind} never settled at {tier} across {SEEDS} streams: {reached:?}"
            );
        }
    }
}
