//! Property tests for the observability layer over seeded controller
//! runs: telemetry must be structurally sound no matter what event
//! stream the controller chews through.
//!
//! Invariants checked per seed:
//!
//! * spans nest properly — no span ever partially overlaps another, a
//!   child lies strictly inside its parent, and the recorder ends with
//!   zero open spans and zero mis-nestings;
//! * the sum of child span durations never exceeds the parent's (a
//!   structural consequence of the one-tick-per-edge clock, pinned here
//!   against regressions);
//! * after every epoch, each per-switch `tcam.occupancy` gauge is at
//!   most its `tcam.capacity` gauge;
//! * both canonical dumps pass the `flowplace.obs.v1` validator.

use flowplace::acl::{Action, Policy, Rule, RuleId, Ternary};
use flowplace::obs::{validate_obs_json, Obs, ObsDoc, SpanData};
use flowplace::prelude::*;
use flowplace::rng::{Rng, StdRng};

const WIDTH: u32 = 4;
const SEEDS: u64 = 8;

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
    let n = rng.gen_range(2..=4usize);
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
    match rng.gen_range(0..10u32) {
        0..=3 => Event::AddRule {
            ingress,
            rule: rand_rule(rng, *priority),
        },
        4..=5 => Event::RemoveRule {
            ingress,
            rule: RuleId(rng.gen_range(0..4usize)),
        },
        6 => Event::ModifyRule {
            ingress,
            rule: RuleId(rng.gen_range(0..4usize)),
            replacement: rand_rule(rng, *priority),
        },
        7 => Event::Checkpoint,
        8 => Event::Rollback,
        _ => Event::Solve,
    }
}

/// Drives one seeded event stream through an observed controller,
/// checking the per-epoch gauge invariant along the way, and returns
/// the controller for post-hoc trace/metric checks.
fn drive(seed: u64) -> Controller {
    let mut rng = StdRng::seed_from_u64(0x0B5E_0000 ^ seed);
    let mut topo = Topology::linear(3);
    let capacity = rng.gen_range(6..12usize);
    topo.set_uniform_capacity(capacity);
    let mut ctrl = Controller::new(
        topo,
        CtrlOptions {
            batch_size: 2,
            ..CtrlOptions::default()
        },
    );
    ctrl.attach_obs(Obs::new());

    let mut events = vec![install(&mut rng, 0), install(&mut rng, 1)];
    let mut priority = 10;
    for _ in 0..rng.gen_range(6..10usize) {
        events.push(rand_event(&mut rng, &mut priority));
    }
    for (step, event) in events.into_iter().enumerate() {
        ctrl.submit(event).expect("queue has room");
        while let Some(_report) = ctrl
            .run_epoch()
            .unwrap_or_else(|e| panic!("seed {seed} step {step}: epoch failed: {e}"))
        {
            let obs = ctrl.obs().expect("obs attached");
            for i in 0..3usize {
                let tag = format!("s{i}");
                let labels = [("switch", tag.as_str())];
                let occ = obs
                    .metrics
                    .gauge_value("tcam.occupancy", &labels)
                    .unwrap_or_else(|| panic!("seed {seed}: no occupancy gauge for {tag}"));
                let cap = obs
                    .metrics
                    .gauge_value("tcam.capacity", &labels)
                    .unwrap_or_else(|| panic!("seed {seed}: no capacity gauge for {tag}"));
                assert!(
                    occ <= cap,
                    "seed {seed} step {step}: switch {tag} occupancy {occ} > capacity {cap}"
                );
            }
        }
    }
    ctrl
}

/// Closed-interval endpoints of a span (every recorded span must be
/// closed once the controller is idle).
fn interval(s: &SpanData) -> (u64, u64) {
    (s.start_tick, s.end_tick.expect("span closed at idle"))
}

#[test]
fn spans_nest_and_never_overlap_cross() {
    for seed in 0..SEEDS {
        let ctrl = drive(seed);
        let obs = ctrl.obs().expect("obs attached");
        assert_eq!(obs.spans.open_count(), 0, "seed {seed}: spans left open");
        assert_eq!(obs.spans.mis_nested(), 0, "seed {seed}: mis-nested ends");
        let spans = obs.spans.doc().spans;
        assert!(!spans.is_empty(), "seed {seed}: nothing recorded");

        for (i, s) in spans.iter().enumerate() {
            let (start, end) = interval(s);
            assert!(start < end, "seed {seed}: span {i} has an empty interval");
            if let Some(parent) = s.parent {
                let p = &spans[parent.0 as usize];
                let (ps, pe) = interval(p);
                assert!(
                    ps < start && end < pe,
                    "seed {seed}: span {i} ({}) escapes its parent {}",
                    s.name,
                    p.name
                );
                assert_eq!(s.depth, p.depth + 1, "seed {seed}: span {i} depth");
            } else {
                assert_eq!(s.depth, 0, "seed {seed}: root span {i} at depth > 0");
            }
        }
        // No partial overlap between any two spans: intervals are
        // either disjoint or strictly nested.
        for (i, a) in spans.iter().enumerate() {
            let (a0, a1) = interval(a);
            for (j, b) in spans.iter().enumerate().skip(i + 1) {
                let (b0, b1) = interval(b);
                let disjoint = a1 < b0 || b1 < a0;
                let nested = (a0 < b0 && b1 < a1) || (b0 < a0 && a1 < b1);
                assert!(
                    disjoint || nested,
                    "seed {seed}: spans {i} ({}) and {j} ({}) overlap-cross",
                    a.name,
                    b.name
                );
            }
        }
    }
}

#[test]
fn child_durations_sum_within_parent() {
    for seed in 0..SEEDS {
        let ctrl = drive(seed);
        let spans = ctrl.obs().expect("obs attached").spans.doc().spans;
        for (i, parent) in spans.iter().enumerate() {
            let parent_ticks = parent.duration_ticks().expect("closed at idle");
            let child_sum: u64 = spans
                .iter()
                .filter(|s| s.parent.map(|p| p.0 as usize) == Some(i))
                .map(|s| s.duration_ticks().expect("closed at idle"))
                .sum();
            assert!(
                child_sum <= parent_ticks,
                "seed {seed}: children of span {i} ({}) total {child_sum} ticks > parent {parent_ticks}",
                parent.name
            );
        }
    }
}

#[test]
fn dumps_validate_against_the_schema() {
    for seed in 0..SEEDS {
        let ctrl = drive(seed);
        let obs = ctrl.obs().expect("obs attached");
        let trace = validate_obs_json(&obs.trace_json())
            .unwrap_or_else(|e| panic!("seed {seed}: trace dump invalid: {e}"));
        assert_eq!(trace, ObsDoc::Trace(obs.spans.doc()), "seed {seed}");
        let metrics = validate_obs_json(&obs.metrics_json())
            .unwrap_or_else(|e| panic!("seed {seed}: metrics dump invalid: {e}"));
        assert_eq!(metrics, ObsDoc::Metrics(obs.metrics.doc()), "seed {seed}");
    }
}
