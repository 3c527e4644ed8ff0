//! The four workloads. Each is a closed loop with one caller.
//!
//! A workload owns `lanes` independent seeded instances. One *round*
//! clones every lane's post-set-up state and replays the lane's
//! pre-generated ops, lane after lane, so all rounds of a run do
//! byte-identical work. Several lanes — not one large instance —
//! because how the solver happened to spread one instance's rules over
//! the switches moves every number of that instance by 5–50 %; the
//! mean over lanes is what repeats from seed to seed.
//!
//! Every solve is single-threaded and carries no wall-clock budget
//! (`parallel.threads = 1`, `portfolio = false`, `mip.time_limit =
//! None`, `lp.deadline = None` — the defaults), so outputs do not
//! depend on the machine.

use std::time::{Duration, Instant};

use flowplace_acl::thread_arena_stats;
use flowplace_core::verify::verify_placement_exhaustive;
use flowplace_core::{Instance, PlacementOptions, PlacerEngine};
use flowplace_ctrl::{CacheConfig, CachePolicy, Controller, CtrlOptions, CtrlStats, Event};
use flowplace_traffic::FlowEvent;

use crate::inputs::{
    build_instance, churn_events, flow_stream, reroute_events, sub_seed, GenTimes, InputPrint,
    Shape,
};
use crate::shadow::{self, FlowShadow};
use crate::trace::Tracer;

/// How much one workload runs.
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    /// Independent seeded instances.
    pub lanes: usize,
    /// Length of a lane's op list, in the workload's own unit
    /// (bring-ups, epochs, events, timed calls' worth of flows).
    pub per_lane: usize,
    /// Set-ups from scratch; `setup_s` is the fastest.
    pub setups: usize,
}

/// What one round did.
pub struct Round {
    /// First op to last op, driver overhead included.
    pub wall: Duration,
    /// Wall time of each timed call, in call order.
    pub calls: Vec<Duration>,
    /// Ops attempted (bring-ups, events, flows).
    pub ops: u64,
    /// Events rejected or failed, calls returning `Err`, unrouted flows.
    pub failed: u64,
    /// `Placement::total_rules()` summed over the lanes' final states.
    pub rules_placed: u64,
    /// TCAM entries installed + removed, or cache inserts + evictions.
    pub tcam_writes: u64,
    /// Every lane's final controller.
    pub finals: Vec<Controller>,
}

impl Round {
    /// Rounds replay the same ops on clones of the same state: they
    /// must end byte-identical and count the same.
    pub fn same_as(&self, other: &Round) -> Result<(), String> {
        let counts = |r: &Round| {
            (
                r.ops,
                r.failed,
                r.rules_placed,
                r.tcam_writes,
                r.calls.len(),
                r.finals.len(),
            )
        };
        let same = counts(self) == counts(other)
            && self.finals.iter().zip(&other.finals).all(|(x, y)| {
                x.placement() == y.placement()
                    && x.stats() == y.stats()
                    && x.dataplane().dump() == y.dataplane().dump()
                    && x.cache().dump() == y.cache().dump()
            });
        if same {
            Ok(())
        } else {
            Err("two rounds of the same ops ended in different states".into())
        }
    }
}

fn rules_placed(finals: &[Controller]) -> u64 {
    finals
        .iter()
        .map(|c| c.placement().total_rules() as u64)
        .sum()
}

pub trait Workload: Sized {
    const NAME: &'static str;
    /// FNV-1a fingerprint of the inputs of the default seed at full
    /// size; a run on that seed fails if its inputs hash differently.
    const PIN: u64;

    fn sizes(smoke: bool) -> Sizes;

    /// Generates the inputs from `seed` and brings the lanes up cold,
    /// untimed warm-up included. Timed as a whole as the set-up.
    fn setup(seed: u64, sizes: Sizes, gen: &mut GenTimes) -> Result<Self, String>;

    fn fingerprint(&self) -> u64;

    /// Every lane's controller counters as set-up left them; what a
    /// round counted is the difference to its final states.
    fn base_stats(&self) -> Vec<CtrlStats>;

    /// One round. With a tracer, every real call is preceded by the
    /// same steps taken through the layers' public functions.
    fn round(&self, tracer: Option<&mut Tracer>) -> Round;
}

fn sat_options() -> CtrlOptions {
    CtrlOptions {
        placement: PlacementOptions {
            engine: PlacerEngine::Sat,
            ..PlacementOptions::default()
        },
        ..CtrlOptions::default()
    }
}

fn bring_up(instance: Instance, options: &CtrlOptions) -> Result<Controller, String> {
    Controller::with_instance(instance, options.clone()).map_err(|e| format!("bring-up: {e}"))
}

/// Counters of the real calls of a traced round that only the calling
/// thread can see: the cube arena is thread-local and the shadow steps
/// use it too, so the delta is taken around each real call.
fn arena_delta<R>(tracer: &mut Tracer, f: impl FnOnce() -> R) -> R {
    let before = thread_arena_stats();
    let out = f();
    let after = thread_arena_stats();
    tracer.add(
        "acl.arena.allocations",
        after.allocations - before.allocations,
    );
    tracer.add("acl.arena.reuse_hits", after.reuse_hits - before.reuse_hits);
    out
}

/// Times one real call; in a traced round also records it and the
/// arena counters around it.
fn timed<R>(
    calls: &mut Vec<Duration>,
    tracer: &mut Option<&mut Tracer>,
    f: impl FnOnce() -> R,
) -> R {
    let started = Instant::now();
    let out = match tracer {
        Some(t) => arena_delta(t, f),
        None => f(),
    };
    let took = started.elapsed();
    calls.push(took);
    if let Some(t) = tracer {
        t.call(started, took);
    }
    out
}

/// Events the controller refused or failed between two stats reads.
fn failed_events(ctrl: &Controller, base: &Controller) -> u64 {
    let (now, then) = (ctrl.stats(), base.stats());
    (now.events_failed - then.events_failed) + (now.events_rejected - then.events_rejected)
}

/// The correctness gate on a round's final states: on every lane the
/// controller's own safety counters are zero and its audits pass; on
/// the first lane, a proof instead of a sample — every packet of the
/// 16-bit header space on every route decides as the policy does.
pub fn gate(finals: &[Controller]) -> Result<(), String> {
    for (lane, ctrl) in finals.iter().enumerate() {
        let s = ctrl.stats();
        if s.verify_failures + s.failclosed_violations + s.cache_dep_violations != 0 {
            return Err(format!(
                "lane {lane}: {} verify failures, {} fail-closed violations, {} cache dependency violations",
                s.verify_failures, s.failclosed_violations, s.cache_dep_violations
            ));
        }
        ctrl.fail_closed_audit()
            .map_err(|e| format!("lane {lane}: fail-closed audit: {e}"))?;
        ctrl.cache_fail_closed_audit()
            .map_err(|e| format!("lane {lane}: cache fail-closed audit: {e}"))?;
        ctrl.cache()
            .audit()
            .map_err(|e| format!("lane {lane}: cache audit: {e}"))?;
    }
    let first = finals.first().ok_or("a round ended without a lane")?;
    verify_placement_exhaustive(first.instance(), first.placement())
        .map_err(|e| format!("exhaustive verification: {e}"))
}

// ---- deploy-4k -----------------------------------------------------------

/// Cold bring-up of distinct 4k-rule instances on the SAT engine: the
/// paper's headline measurement (Fig. 7–9). One op is one
/// `Controller::with_instance` — one `Solve` event through encode,
/// solve, emit, verify and install. Capacity 1000: at 500 one
/// instance in ten, and at 700 still one in a hundred, sends the
/// solver into seconds of search, and the round time is then that one
/// instance.
pub struct Deploy {
    instances: Vec<Instance>,
    options: CtrlOptions,
}

const SHAPE_4K: Shape = Shape {
    ingresses: 16,
    rules_per_policy: 256,
    capacity: 1_000,
};

impl Workload for Deploy {
    const NAME: &'static str = "deploy-4k";
    const PIN: u64 = 0xb74f_cbe9_05b6_9916;

    fn sizes(smoke: bool) -> Sizes {
        Sizes {
            lanes: if smoke { 1 } else { 8 },
            per_lane: 1,
            setups: if smoke { 1 } else { 5 },
        }
    }

    fn setup(seed: u64, sizes: Sizes, gen: &mut GenTimes) -> Result<Deploy, String> {
        let instances: Vec<Instance> = (0..sizes.lanes)
            .map(|lane| build_instance(SHAPE_4K, sub_seed(seed, Self::NAME, lane as u64), gen))
            .collect();
        let options = sat_options();
        // Untimed warm-up: the first bring-up of a process pays for
        // page faults and a cold allocator.
        bring_up(instances[0].clone(), &options)?;
        Ok(Deploy { instances, options })
    }

    fn fingerprint(&self) -> u64 {
        let mut print = InputPrint::default();
        for instance in &self.instances {
            print.instance(instance, &self.options.placement);
        }
        print.finish()
    }

    fn base_stats(&self) -> Vec<CtrlStats> {
        vec![CtrlStats::default(); self.instances.len()]
    }

    fn round(&self, mut tracer: Option<&mut Tracer>) -> Round {
        let instances = self.instances.clone();
        let mut calls = Vec::with_capacity(instances.len());
        let mut finals = Vec::with_capacity(instances.len());
        let mut failed = 0;
        let started = Instant::now();
        for instance in instances {
            if let Some(t) = tracer.as_deref_mut() {
                shadow::bring_up(t, &instance, &self.options);
            }
            let options = self.options.clone();
            match timed(&mut calls, &mut tracer, || {
                Controller::with_instance(instance, options)
            }) {
                Ok(ctrl) => finals.push(ctrl),
                Err(_) => failed += 1,
            }
        }
        let wall = started.elapsed();
        Round {
            wall,
            ops: calls.len() as u64,
            calls,
            failed: failed
                + finals
                    .iter()
                    .map(|c| c.stats().events_failed + c.stats().events_rejected)
                    .sum::<u64>(),
            rules_placed: rules_placed(&finals),
            tcam_writes: finals.iter().map(|c| c.stats().rules_churned()).sum(),
            finals,
        }
    }
}

// ---- lanes with a controller brought up in set-up ------------------------

/// One lane of an update or flow workload: the controller as set-up
/// left it, and the ops every round replays on a clone of it.
struct Lane<Op> {
    base: Controller,
    ops: Vec<Op>,
}

fn lane_stats<Op>(lanes: &[Lane<Op>]) -> Vec<CtrlStats> {
    lanes.iter().map(|l| l.base.stats().clone()).collect()
}

/// What replaying one lane's ops did.
struct LaneOut {
    ops: u64,
    /// Failures the controller's event counters do not see.
    failed: u64,
    tcam_writes: u64,
}

fn lane_round<Op>(
    lanes: &[Lane<Op>],
    tracer: &mut Option<&mut Tracer>,
    mut replay: impl FnMut(
        &mut Controller,
        &Lane<Op>,
        &mut Vec<Duration>,
        &mut Option<&mut Tracer>,
    ) -> LaneOut,
) -> Round {
    let mut finals: Vec<Controller> = lanes.iter().map(|l| l.base.clone()).collect();
    let mut calls = Vec::new();
    let mut outs = Vec::with_capacity(lanes.len());
    let started = Instant::now();
    for (ctrl, lane) in finals.iter_mut().zip(lanes) {
        outs.push(replay(ctrl, lane, &mut calls, tracer));
    }
    let wall = started.elapsed();
    Round {
        wall,
        calls,
        ops: outs.iter().map(|o| o.ops).sum(),
        failed: outs.iter().map(|o| o.failed).sum::<u64>()
            + finals
                .iter()
                .zip(lanes)
                .map(|(c, l)| failed_events(c, &l.base))
                .sum::<u64>(),
        rules_placed: rules_placed(&finals),
        tcam_writes: outs.iter().map(|o| o.tcam_writes).sum(),
        finals,
    }
}

/// Replays a lane of epochs, each a batch of events.
fn replay_epochs<'a>(
    ctrl: &mut Controller,
    base: &Controller,
    epochs: impl Iterator<Item = &'a [Event]>,
    calls: &mut Vec<Duration>,
    tracer: &mut Option<&mut Tracer>,
) -> LaneOut {
    let mut out = LaneOut {
        ops: 0,
        failed: 0,
        tcam_writes: 0,
    };
    for events in epochs {
        out.ops += events.len() as u64;
        out.failed += run_events(ctrl, events, calls, tracer);
    }
    out.tcam_writes = ctrl.stats().rules_churned() - base.stats().rules_churned();
    out
}

/// Submits one epoch's events and commits them as one timed call.
/// Returns the events that did not get in or the epoch that failed.
fn run_events(
    ctrl: &mut Controller,
    events: &[Event],
    calls: &mut Vec<Duration>,
    tracer: &mut Option<&mut Tracer>,
) -> u64 {
    // A refused submission is counted by the controller's own stats.
    for event in events {
        let _ = ctrl.submit(event.clone());
    }
    if let Some(t) = tracer.as_deref_mut() {
        shadow::epoch(t, ctrl, events);
    }
    match timed(calls, tracer, || ctrl.run_epoch()) {
        Ok(_) => 0,
        Err(_) => events.len() as u64,
    }
}

// ---- churn-1k ------------------------------------------------------------

/// The §IV-E small-update stream: epochs of four rule removals and
/// four rule additions on a rotating ingress of a deployed 1k-rule
/// instance. Capacity 300 leaves head-room, so every event settles on
/// the greedy tier and the solver does nothing: the time is the fixed
/// per-epoch chain (incremental placement, table emission,
/// verification, diff, install). One op is one event; the timed call
/// is `run_epoch` over a batch of eight.
pub struct Churn {
    lanes: Vec<Lane<Vec<Event>>>,
}

const SHAPE_1K: Shape = Shape {
    ingresses: 16,
    rules_per_policy: 64,
    capacity: 300,
};
/// Add/remove pairs per epoch; `batch_size` is twice this.
const CHURN_PAIRS: usize = 4;

impl Workload for Churn {
    const NAME: &'static str = "churn-1k";
    const PIN: u64 = 0xc910_73c8_31a2_4019;

    fn sizes(smoke: bool) -> Sizes {
        Sizes {
            lanes: if smoke { 1 } else { 16 },
            per_lane: if smoke { 16 } else { 48 },
            setups: if smoke { 1 } else { 2 },
        }
    }

    fn setup(seed: u64, sizes: Sizes, gen: &mut GenTimes) -> Result<Churn, String> {
        let mut options = sat_options();
        options.batch_size = 2 * CHURN_PAIRS;
        let lanes = (0..sizes.lanes as u64)
            .map(|lane| {
                let instance = build_instance(SHAPE_1K, sub_seed(seed, Self::NAME, lane), gen);
                // The first rotation only adds; it runs here, untimed,
                // so every timed epoch removes four rules and adds four.
                let warm_up = instance.policy_count();
                let mut epochs = churn_events(
                    &instance,
                    warm_up + sizes.per_lane,
                    CHURN_PAIRS,
                    sub_seed(seed, "churn-ops", lane),
                    gen,
                );
                let ops = epochs.split_off(warm_up);
                let mut base = bring_up(instance, &options)?;
                for events in &epochs {
                    if run_events(&mut base, events, &mut Vec::new(), &mut None) != 0 {
                        return Err("a warm-up epoch failed".into());
                    }
                }
                Ok(Lane { base, ops })
            })
            .collect::<Result<_, String>>()?;
        Ok(Churn { lanes })
    }

    fn fingerprint(&self) -> u64 {
        let mut print = InputPrint::default();
        for lane in &self.lanes {
            print.instance(lane.base.instance(), &lane.base.options().placement);
            for events in &lane.ops {
                print.events(events);
            }
        }
        print.finish()
    }

    fn base_stats(&self) -> Vec<CtrlStats> {
        lane_stats(&self.lanes)
    }

    fn round(&self, mut tracer: Option<&mut Tracer>) -> Round {
        lane_round(&self.lanes, &mut tracer, |ctrl, lane, calls, tracer| {
            let epochs = lane.ops.iter().map(Vec::as_slice);
            replay_epochs(ctrl, &lane.base, epochs, calls, tracer)
        })
    }
}

// ---- reroute-512 ---------------------------------------------------------

/// The paper's Experiment 5 on the default (ILP) engine. Set-up is
/// its first part: sixteen 32-rule policies installed one by one on an
/// empty network, each placed optimally against the capacity the
/// earlier ones left. The rounds are its second part, the §IV-E medium
/// update: `Reroute` events, each moving one ingress onto two fresh
/// paths. Every op re-solves a restricted sub-problem, so
/// `core.encode_ilp` and `milp` do here what `pbsat` does in
/// `deploy-4k`, and the warm memo misses on every op. (Bringing all 512
/// rules up in one ILP takes 0.7–1.3 s and 44–75 MB depending on the
/// seed — its LP basis is dense — which leaves room for two lanes and
/// makes `peak_rss_mb` the seed's, not the program's.)
pub struct Reroute {
    lanes: Vec<Lane<Event>>,
}

const SHAPE_512: Shape = Shape {
    ingresses: 16,
    rules_per_policy: 32,
    capacity: 100,
};

impl Workload for Reroute {
    const NAME: &'static str = "reroute-512";
    const PIN: u64 = 0x0955_6085_3b8f_a00c;

    fn sizes(smoke: bool) -> Sizes {
        Sizes {
            lanes: if smoke { 1 } else { 8 },
            per_lane: if smoke { 32 } else { 272 },
            setups: if smoke { 1 } else { 12 },
        }
    }

    fn setup(seed: u64, sizes: Sizes, gen: &mut GenTimes) -> Result<Reroute, String> {
        let options = CtrlOptions {
            batch_size: 1,
            ..CtrlOptions::default()
        };
        let lanes = (0..sizes.lanes as u64)
            .map(|lane| {
                let instance = build_instance(SHAPE_512, sub_seed(seed, Self::NAME, lane), gen);
                let ops = reroute_events(
                    &instance,
                    sizes.per_lane,
                    sub_seed(seed, "reroute-ops", lane),
                    gen,
                );
                let mut base = Controller::new(instance.topology().clone(), options.clone());
                for (ingress, policy) in instance.policies() {
                    let install = Event::InstallPolicy {
                        ingress,
                        policy: policy.clone(),
                        routes: instance
                            .routes()
                            .iter()
                            .filter(|r| r.ingress == ingress)
                            .cloned()
                            .collect(),
                    };
                    if run_events(&mut base, &[install], &mut Vec::new(), &mut None) != 0 {
                        return Err(format!("installing the policy of {ingress} failed"));
                    }
                }
                let stats = base.stats();
                if stats.restricted_ok != instance.policy_count() as u64 {
                    return Err(format!(
                        "{} of {} policies installed on the restricted tier",
                        stats.restricted_ok,
                        instance.policy_count()
                    ));
                }
                Ok(Lane { base, ops })
            })
            .collect::<Result<_, String>>()?;
        Ok(Reroute { lanes })
    }

    fn fingerprint(&self) -> u64 {
        let mut print = InputPrint::default();
        for lane in &self.lanes {
            print.instance(lane.base.instance(), &lane.base.options().placement);
            print.events(&lane.ops);
        }
        print.finish()
    }

    fn base_stats(&self) -> Vec<CtrlStats> {
        lane_stats(&self.lanes)
    }

    fn round(&self, mut tracer: Option<&mut Tracer>) -> Round {
        lane_round(&self.lanes, &mut tracer, |ctrl, lane, calls, tracer| {
            let epochs = lane.ops.iter().map(std::slice::from_ref);
            replay_epochs(ctrl, &lane.base, epochs, calls, tracer)
        })
    }
}

// ---- flows-1k ------------------------------------------------------------

/// Reads the tables the other three write: a Zipf(1.1) flow stream
/// (after FDRC, arXiv 1803.04270) through the TCAM-as-cache tier of a
/// deployed 1k-rule instance. One op is one flow; the timed call is
/// `process_flows` on 20 000 flows. The cache holds half the TCAM
/// (75 entries per switch), which the hot set fits: at a quarter the
/// miss rate swings between 0.4 % and 6 % with the seed and the run
/// measures that swing. Every pass over the stream starts from a cold
/// cache, so every round pays the same cold misses, each batch of them
/// answered by the warm placement memo — the layers `reroute-512`
/// uses, the opposite way.
pub struct Flows {
    lanes: Vec<Lane<FlowEvent>>,
}

const FLOWS_PER_CALL: usize = 20_000;
/// Passes over a lane's stream per round, each from a cold cache.
const FLOW_PASSES: usize = 16;
const CACHE_ENTRIES: usize = 75;

fn cache_config() -> CacheConfig {
    CacheConfig {
        enabled: true,
        capacity: CACHE_ENTRIES,
        policy: CachePolicy::Lru,
        ..CacheConfig::default()
    }
}

impl Workload for Flows {
    const NAME: &'static str = "flows-1k";
    const PIN: u64 = 0x4570_3afa_92c7_4c85;

    fn sizes(smoke: bool) -> Sizes {
        Sizes {
            lanes: if smoke { 1 } else { 8 },
            per_lane: if smoke { 2 } else { 6 },
            setups: if smoke { 1 } else { 4 },
        }
    }

    fn setup(seed: u64, sizes: Sizes, gen: &mut GenTimes) -> Result<Flows, String> {
        let mut options = sat_options();
        options.cache = cache_config();
        let shape = Shape {
            capacity: 2 * CACHE_ENTRIES,
            ..SHAPE_1K
        };
        let lanes = (0..sizes.lanes as u64)
            .map(|lane| {
                let instance = build_instance(shape, sub_seed(seed, Self::NAME, lane), gen);
                let ops = flow_stream(
                    shape.ingresses,
                    sizes.per_lane * FLOWS_PER_CALL,
                    sub_seed(seed, "flows-ops", lane),
                    gen,
                );
                let mut base = bring_up(instance, &options)?;
                // Untimed warm-up: one call's worth of flows.
                base.process_flows(&ops[..FLOWS_PER_CALL]);
                Ok(Lane { base, ops })
            })
            .collect::<Result<_, String>>()?;
        Ok(Flows { lanes })
    }

    fn fingerprint(&self) -> u64 {
        let mut print = InputPrint::default();
        for lane in &self.lanes {
            print.instance(lane.base.instance(), &lane.base.options().placement);
            print.flows(&lane.ops);
        }
        print.finish()
    }

    fn base_stats(&self) -> Vec<CtrlStats> {
        lane_stats(&self.lanes)
    }

    fn round(&self, mut tracer: Option<&mut Tracer>) -> Round {
        lane_round(&self.lanes, &mut tracer, |ctrl, lane, calls, tracer| {
            let shadow = tracer.as_ref().map(|_| FlowShadow::new(ctrl));
            let mut out = LaneOut {
                ops: (lane.ops.len() * FLOW_PASSES) as u64,
                failed: 0,
                tcam_writes: 0,
            };
            for _ in 0..FLOW_PASSES {
                // Cold restart. It also zeroes the cache's counters
                // (and their mirror in the stats), so the writes are
                // summed from the per-call reports.
                ctrl.set_cache_config(cache_config());
                for flows in lane.ops.chunks(FLOWS_PER_CALL) {
                    let expected = match (tracer.as_deref_mut(), &shadow) {
                        (Some(t), Some(s)) => Some(s.flows(t, ctrl, flows)),
                        _ => None,
                    };
                    let report = timed(calls, tracer, || ctrl.process_flows(flows));
                    out.failed += report.unrouted;
                    out.tcam_writes += report.inserts + report.evictions;
                    if let (Some(t), Some(e)) = (tracer.as_deref_mut(), expected) {
                        // The shadow walked the same flows through a
                        // copy of the cache; it must have seen what
                        // the controller saw.
                        assert_eq!(
                            (e.lookups, e.hits, e.misses, e.inserts, e.evictions),
                            (
                                report.lookups,
                                report.hits,
                                report.misses,
                                report.inserts,
                                report.evictions
                            ),
                            "the flow shadow diverged from process_flows"
                        );
                        t.add("ctrl.cache.lookups", report.lookups);
                        t.add("ctrl.cache.hits", report.hits);
                        t.add("ctrl.cache.misses", report.misses);
                        t.add("ctrl.cache.inserts", report.inserts);
                        t.add("ctrl.cache.evictions", report.evictions);
                        t.add("ctrl.cache.resolves", report.resolves);
                    }
                }
            }
            out
        })
    }
}
