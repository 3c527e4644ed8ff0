//! Randomized §IV-E update streams — rule adds, removes, modifies and
//! reroutes, with checkpoints and rollbacks — driven through the
//! controller one event per epoch: two identically built controllers
//! stay equal step by step, a rolled-back burst re-applies to the same
//! state, and every event kind reaches every rung of the escalation
//! ladder with the same edit.

use std::collections::BTreeMap;

use flowplace::acl::{Action, Policy, Rule, RuleId, Ternary};
use flowplace::core::par;
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

/// One §IV-E update, with occasional checkpoint / rollback events mixed
/// in.
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

fn controller(capacity: usize, engine: PlacerEngine) -> Controller {
    let mut topo = Topology::linear(3);
    topo.set_uniform_capacity(capacity);
    Controller::new(
        topo,
        CtrlOptions {
            batch_size: 1,
            placement: PlacementOptions {
                engine,
                ..PlacementOptions::default()
            },
            ..CtrlOptions::default()
        },
    )
}

/// The counters a run added to `before`, by field name, high-water marks
/// left out: the `CtrlStats` fields are all integers, so its `Debug`
/// text lists them all.
fn counted(before: &CtrlStats, after: &CtrlStats) -> Vec<(String, u64)> {
    let fields = |s: &CtrlStats| -> Vec<(String, u64)> {
        let text = format!("{s:?}");
        let inner = text
            .strip_prefix("CtrlStats { ")
            .and_then(|t| t.strip_suffix(" }"))
            .expect("CtrlStats Debug shape");
        inner
            .split(", ")
            .map(|kv| {
                let (k, v) = kv.split_once(": ").expect("field: value");
                (k.to_string(), v.parse().expect("integer counter"))
            })
            .collect()
    };
    fields(before)
        .into_iter()
        .zip(fields(after))
        .filter(|((k, _), _)| k != "peak_tcam_occupancy" && k != "max_queue_depth")
        .map(|((k, b), (_, a))| (k, a - b))
        .collect()
}

/// Runs `events` one epoch each and returns the reports with their
/// epoch numbers blanked, which a replay after a rollback cannot match.
fn run(ctrl: &mut Controller, events: &[Event], at: &str) -> Vec<String> {
    let mut reports = Vec::new();
    for event in events {
        ctrl.submit(event.clone()).expect("queue has room");
        for mut r in ctrl
            .run_to_idle()
            .unwrap_or_else(|e| panic!("{at}: run failed: {e}"))
        {
            r.epoch = 0;
            reports.push(format!("{r:?}"));
        }
    }
    reports
}

/// Checkpoint → burst → rollback → the same burst again: with no solve
/// memoised anywhere, the replay runs every rung afresh, and it must land
/// where the first run did — same epoch reports, placement and tables,
/// and the same counters added — on both engines.
#[test]
fn rollback_then_reapply_repeats_the_burst() {
    for engine in [PlacerEngine::Ilp, PlacerEngine::Sat] {
        for seed in 0..SEEDS {
            let at = format!("{engine:?} seed {seed}");
            let mut rng = StdRng::seed_from_u64(0x8E9A_0000 ^ seed);
            let mut ctrl = controller(rng.gen_range(6..12usize), engine);
            let setup = [
                install(&mut rng, 0),
                install(&mut rng, 1),
                Event::Checkpoint,
            ];
            run(&mut ctrl, &setup, &at);

            let (len, mut priority) = (rng.gen_range(6..12usize), 10);
            let burst: Vec<Event> = std::iter::repeat_with(|| rand_event(&mut rng, &mut priority))
                .filter(|e| !matches!(e, Event::Checkpoint | Event::Rollback))
                .take(len)
                .collect();
            let checkpointed = ctrl.stats().clone();
            let first = run(&mut ctrl, &burst, &at);
            let (placement, tables) = (ctrl.placement().clone(), ctrl.dataplane().dump());
            let first_counted = counted(&checkpointed, ctrl.stats());

            run(&mut ctrl, &[Event::Rollback], &at);
            assert_eq!(ctrl.stats().rollbacks, 1, "{at}: nothing rolled back");
            let rolled_back = ctrl.stats().clone();
            let again = run(&mut ctrl, &burst, &at);
            assert_eq!(again, first, "{at}: epoch reports diverged");
            assert_eq!(ctrl.placement(), &placement, "{at}: placements diverged");
            assert_eq!(ctrl.dataplane().dump(), tables, "{at}: tables diverged");
            assert_eq!(
                counted(&rolled_back, ctrl.stats()),
                first_counted,
                "{at}: counters diverged"
            );
        }
    }
}

/// A session is one controller's replayed stream, interleaved `Solve`s
/// included. On both engines, and on the ILP engine under an iteration
/// budget that cuts its searches short, two identically built
/// controllers, fed the same session, stay equal step by step —
/// verdicts, placement, tables — and every placement passes the
/// reference verifier.
#[test]
fn session_solves_are_deterministic_and_verified() {
    for (engine, iteration_limit) in [
        (PlacerEngine::Ilp, None),
        (PlacerEngine::Ilp, Some(BUDGET)),
        (PlacerEngine::Sat, None),
    ] {
        let arm = format!("{engine:?} budget {iteration_limit:?}");
        let (mut tiers, mut cut) = ([0; 3], 0);
        for seed in 0..SEEDS {
            let mut rng = StdRng::seed_from_u64(0x5E55_0000 ^ seed);
            let capacity = rng.gen_range(6..12usize);
            let build = || {
                let mut topo = Topology::linear(3);
                topo.set_uniform_capacity(capacity);
                let options = CtrlOptions {
                    batch_size: 1,
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
            let (mut ctrl, mut twin) = (build(), build());

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
                ctrl.submit(event.clone()).expect("queue has room");
                twin.submit(event).expect("queue has room");
                assert_eq!(
                    format!("{:?}", ctrl.run_to_idle()),
                    format!("{:?}", twin.run_to_idle()),
                    "{at}: verdicts diverged"
                );
                assert_eq!(
                    ctrl.placement(),
                    twin.placement(),
                    "{at}: placements diverged"
                );
                assert_eq!(
                    ctrl.dataplane().dump(),
                    twin.dataplane().dump(),
                    "{at}: dataplane tables diverged"
                );
                flowplace::core::verify::verify_placement(
                    ctrl.instance(),
                    ctrl.placement(),
                    8,
                    step as u64,
                )
                .unwrap_or_else(|e| panic!("{at}: placement fails verify: {e}"));
            }
            // A re-solve of the final instance repeats field for field:
            // effort statistics included, and nothing in it is a clock
            // reading.
            let (options, objective) = (&ctrl.options().placement, ctrl.options().objective);
            let solve = || par::solve(ctrl.instance(), objective, options, None);
            let outcome = solve();
            assert_eq!(solve(), outcome, "{arm} seed {seed}");
            let proven = matches!(
                outcome.status,
                SolveStatus::Optimal | SolveStatus::Infeasible
            );
            cut += usize::from(engine == PlacerEngine::Ilp && !proven);

            assert_eq!(ctrl.stats(), twin.stats(), "{arm} seed {seed}");
            let s = ctrl.stats();
            let ok = [s.greedy_ok, s.restricted_ok, s.full_ok];
            tiers = std::array::from_fn(|i| tiers[i] + ok[i]);
        }
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
        let mut tight = controller(rng.gen_range(3..=8usize), PlacerEngine::Ilp);
        let mut twin = controller(64, PlacerEngine::Ilp);

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
    let mut tight = controller(2, PlacerEngine::Ilp);
    let mut twin = controller(64, PlacerEngine::Ilp);
    let first = install_on(0, [0b0000, 0b1111], (0..3).map(SwitchId).collect());
    settle(&mut tight, &mut twin, first, "hand-built l0").expect("not a capacity change");
    let (_, held) = tight.placement().iter().next().expect("l0 is placed");
    let second = install_on(1, [0b0101, 0b1010], vec![held.min().unwrap()]);
    let outcome = settle(&mut tight, &mut twin, second, "hand-built l1").unwrap();
    assert_eq!(outcome, EventOutcome::Applied(Tier::Full));
    tally("install-policy", &outcome);

    let all = [Tier::Greedy, Tier::Restricted, Tier::Full];
    let expected = [
        ("add-rule", &all[..]),
        ("modify-rule", &all[..]),
        ("install-policy", &all[1..]),
        ("reroute", &all[..]),
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

/// A rollback to a checkpoint taken before a switch failed keeps the
/// dead switch at zero capacity, so a shrink in that epoch that the
/// dispatch ladder rejects reaches the delegation rescue without it. On a
/// star, ten drops of l0 ride s1-s0-s2 (capacities 5, 5, 3) and stay
/// on s1 + s0 when s2 dies. Shrinking the hub to 0 after the rollback
/// leaves s1 + s2 = 8 on route, so dispatch rejects it; the delegate s3
/// adds 3, which rescues it only if the dead s2 still counts. It must
/// not: the shrink stays rejected and settles fail-closed.
#[test]
fn rescue_after_a_rollback_across_an_outage_counts_the_outage() {
    let mut topo = Topology::star(4);
    for (s, capacity) in [5, 5, 3, 3, 0].into_iter().enumerate() {
        topo.set_capacity(SwitchId(s), capacity);
    }
    let mut ctrl = Controller::new(
        topo,
        CtrlOptions {
            batch_size: 2,
            ..CtrlOptions::default()
        },
    );
    let drop = |i: u32| Rule::new(Ternary::new(WIDTH, 0xF, i.into()), Action::Drop, i + 2);
    let mut rules: Vec<Rule> = (0..10).map(drop).collect();
    rules.push(Rule::new(Ternary::new(WIDTH, 0, 0), Action::Permit, 1));
    let install = Event::InstallPolicy {
        ingress: EntryPortId(0),
        policy: Policy::from_rules(rules).expect("distinct priorities"),
        routes: vec![Route::new(
            EntryPortId(0),
            EntryPortId(1),
            vec![SwitchId(1), SwitchId(0), SwitchId(2)],
        )],
    };
    let fail = Event::SwitchFail {
        switch: SwitchId(2),
    };
    let shrink = Event::CapacityChange {
        switch: SwitchId(0),
        capacity: 0,
    };
    let mut outcomes = Vec::new();
    for epoch in [
        vec![install],
        vec![Event::Checkpoint, fail],
        vec![Event::Rollback, shrink],
    ] {
        for event in epoch {
            ctrl.submit(event).expect("queue has room");
        }
        for r in ctrl.run_to_idle().expect("run") {
            outcomes.extend(r.outcomes.into_iter().map(|(_, o)| o));
        }
    }
    assert!(ctrl.delegations().is_empty(), "{outcomes:?}");
    assert!(
        matches!(outcomes.last(), Some(EventOutcome::Rejected { .. })),
        "{outcomes:?}"
    );
    assert_eq!(ctrl.stats().delegated_ok, 0);
    ctrl.fail_closed_audit().expect("fail-closed audit");
}

/// A rollback restores policies, routes and placement, never the
/// hardware: rolled back across a recovery, the recovered switch keeps
/// the capacity it came back with. Here s1 fails, a checkpoint is taken
/// during the outage, s1 recovers, and the rollback returns to that
/// checkpoint; s1 must stay in service at its full capacity.
#[test]
fn rollback_across_a_recovery_keeps_the_recovered_capacity() {
    let mut topo = Topology::linear(3);
    topo.set_uniform_capacity(5);
    let mut ctrl = Controller::new(
        topo,
        CtrlOptions {
            batch_size: 1,
            ..CtrlOptions::default()
        },
    );
    let reports = ctrl
        .replay_trace(
            "install-policy l0 via l1:s0-s1-s2 rules 10**:drop:2,****:permit:1\n\
             switch-fail s1\ncheckpoint\nswitch-recover s1\nrollback\nsolve\n",
        )
        .expect("trace parses");
    assert_eq!(reports.len(), 6);
    assert!(ctrl.out_of_service().is_empty());
    assert_eq!(ctrl.instance().topology().capacities(), [5, 5, 5]);
    assert_eq!(ctrl.dataplane().switch(SwitchId(1)).capacity(), 5);
    ctrl.fail_closed_audit().expect("fail-closed audit");
}
