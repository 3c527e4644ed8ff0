//! # flowplace-ctrl — the placement controller runtime
//!
//! The solver crates answer one-shot questions; this crate runs
//! placement as a long-lived controller. A [`Controller`] owns the
//! deployed [`Instance`] + [`Placement`] pair and a simulated
//! [`DataPlane`], consumes a bounded queue of typed [`Event`]s, and
//! commits them in batched *epochs*.
//!
//! ## Escalation ladder
//!
//! Every mutating event is dispatched through up to three tiers,
//! stopping at the first that succeeds:
//!
//! 1. **Greedy** — the §IV-E incremental operations from
//!    [`flowplace_core::incremental`] (constant-ish work, no solver).
//! 2. **Restricted** — re-solve only the affected ingress's policy
//!    against the spare capacity left by every frozen placement.
//! 3. **Full** — re-solve the entire instance from scratch.
//!
//! The ladder is written once: the first tier is the event's own §IV-E
//! operation, which hands back the edited instance whether or not it
//! placed it, and the two re-solves below run on that instance. A
//! policy install or a reroute starts at the restricted tier — that
//! *is* its §IV-E operation.
//!
//! ## The commit pipeline
//!
//! At the end of each epoch every controller runs the same chain,
//! looping until desired and actual TCAM state converge: degrade around
//! outages, emit the target tables for the working placement once,
//! verify them against the golden model ([`flowplace_core::verify`]),
//! check the target against Eq. 3 capacity, and send the table diff to
//! the dataplane op by op with make-before-break semantics — installs
//! land before deletes, so the §IV-A no-false-negative guarantee holds
//! during the transition. The controller remembers which routes its last
//! passing verify covered ([`VerifiedRoutes`]), so a verify pays the
//! full packet set only for routes whose policy, hops or tagged table
//! entries changed; the verdict is that of the full sweep. With nothing
//! fenced and no op failing, every fault-tolerance step below is a
//! no-op and the first round converges.
//!
//! - An ingress whose tables fail verification fails **closed**, alone:
//!   it enters safe mode (below) and the rest of the epoch commits. An
//!   `Err` is left for what no fence can repair — tables that cannot be
//!   emitted, or a target over capacity, which is refused before the
//!   first op with the hardware untouched.
//! - Rejected TCAM installs are retried with bounded exponential
//!   backoff on a [`faults::VirtualClock`]; a run of consecutive
//!   failures trips a per-switch circuit breaker and **quarantines**
//!   the switch (alive and forwarding, but unmanageable — its entries
//!   are treated as absent, which is pessimal-safe because a stale
//!   entry can only add drops, never permits, along a route).
//! - Crashed switches ([`Event::SwitchFail`]) lose their TCAM and
//!   forward nothing; routes through them carry no traffic.
//! - Placement degrades gracefully around outages: a restricted §IV-E
//!   re-solve of the affected ingresses, then a full re-solve, then —
//!   if an ingress cannot be placed at all — **safe mode**: an explicit
//!   maximum-priority drop-all entry fencing that ingress's traffic at
//!   the first manageable switch of each route. Degraded is never
//!   permissive. Safe-mode routes deliberately violate exact
//!   equivalence, so the verify leaves them out (and forgets them: a
//!   lifted ingress is verified in full).
//! - After partial-apply failures and switch restarts an anti-entropy
//!   reconciliation loop re-diffs desired against actual TCAM state
//!   until it converges (or quarantines the switches that prevent it).
//!
//! Every fault is drawn from a seeded RNG or a scripted schedule and
//! all time is virtual, so chaos runs replay byte-identically.

#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod cache;
pub mod dataplane;
pub mod delegate;
pub mod epoch;
pub mod event;
pub mod faults;
pub mod stats;

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;

use flowplace_acl::{Action, Ternary};
use flowplace_core::tables::{emit_tables, SwitchTable, TableEntry};
use flowplace_core::verify::{VerifiedRoutes, VerifyMode};
use flowplace_core::{incremental, par, verify, Instance, Objective, Placement, PlacementOptions};
use flowplace_fasthash::{FnvHashMap, FnvHashSet};
use flowplace_obs::{AttrValue, Obs, SpanId};
use flowplace_routing::{Route, RouteId, RouteSet};
use flowplace_topo::{EntryPortId, SwitchId, Topology};
use flowplace_traffic::FlowEvent;

pub use cache::{CacheConfig, CacheCounters, CacheLookup, CachePolicy, RuleCache};
pub use dataplane::{ApplyReport, DataPlane, DataPlaneError, RuleDiff, SwitchTcam};
pub use delegate::{Delegation, DelegationConfig};
pub use epoch::{EpochLog, Snapshot};
pub use event::{format_trace, parse_trace, Event, TraceError};
pub use faults::{
    format_fault_schedule, parse_fault_schedule, CircuitBreaker, FaultInjector, FaultKind,
    FaultPlan, RetryPolicy, ScheduledFault, VirtualClock,
};
pub use stats::CtrlStats;

/// Which rung of the escalation ladder settled an event.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Tier {
    /// Greedy incremental deployment (§IV-E), no solver run.
    Greedy,
    /// Restricted sub-problem re-solve against spare capacity.
    Restricted,
    /// Full re-solve of the whole instance.
    Full,
    /// Delegation rung: routes detoured through an off-route delegate
    /// with spare TCAM, then re-solved (see [`delegate`]).
    Delegated,
}

impl Tier {
    /// Every rung, in escalation order. Kept exhaustive by
    /// `tier_all_is_complete` in the tests: adding a variant without
    /// extending this array (and the [`CtrlStats`] counter mapping)
    /// fails the build or the completeness tests.
    pub const ALL: [Tier; 4] = [Tier::Greedy, Tier::Restricted, Tier::Full, Tier::Delegated];
}

impl fmt::Display for Tier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Tier::Greedy => write!(f, "greedy"),
            Tier::Restricted => write!(f, "restricted"),
            Tier::Full => write!(f, "full"),
            Tier::Delegated => write!(f, "delegated"),
        }
    }
}

/// What happened to one event inside an epoch.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EventOutcome {
    /// The event was applied at the given tier.
    Applied(Tier),
    /// A checkpoint was taken.
    Checkpoint,
    /// The working state was rolled back to the snapshot taken at the
    /// given epoch.
    RolledBack {
        /// Epoch counter of the restored snapshot.
        to_epoch: u64,
    },
    /// The event could not be applied; the working state is unchanged.
    Rejected {
        /// Human-readable reason.
        reason: String,
    },
    /// A switch crashed; the commit pipeline re-placed around it or
    /// degraded fail-closed.
    SwitchFailed {
        /// The crashed switch.
        switch: SwitchId,
    },
    /// A switch came back under control.
    SwitchRecovered {
        /// The recovered switch.
        switch: SwitchId,
    },
}

impl EventOutcome {
    /// Stable keyword for traces and metric labels (e.g.
    /// `"applied:greedy"`, `"rejected"`).
    pub fn label(&self) -> &'static str {
        match self {
            EventOutcome::Applied(Tier::Greedy) => "applied:greedy",
            EventOutcome::Applied(Tier::Restricted) => "applied:restricted",
            EventOutcome::Applied(Tier::Full) => "applied:full",
            EventOutcome::Applied(Tier::Delegated) => "applied:delegated",
            EventOutcome::Checkpoint => "checkpoint",
            EventOutcome::RolledBack { .. } => "rolled-back",
            EventOutcome::Rejected { .. } => "rejected",
            EventOutcome::SwitchFailed { .. } => "switch-failed",
            EventOutcome::SwitchRecovered { .. } => "switch-recovered",
        }
    }

    /// Every label [`label`](EventOutcome::label) can produce. The
    /// match above is exhaustive (a new variant fails to compile
    /// without a label); the completeness test pins that each label
    /// also reaches the `ctrl.outcomes` metrics mirror.
    pub const ALL_LABELS: [&'static str; 9] = [
        "applied:greedy",
        "applied:restricted",
        "applied:full",
        "applied:delegated",
        "checkpoint",
        "rolled-back",
        "rejected",
        "switch-failed",
        "switch-recovered",
    ];
}

/// The result of committing one epoch.
#[derive(Clone, Debug)]
pub struct EpochReport {
    /// The committed epoch number.
    pub epoch: u64,
    /// Each processed event with its outcome, in order.
    pub outcomes: Vec<(Event, EventOutcome)>,
    /// TCAM entries installed by this epoch's diff.
    pub installed: usize,
    /// TCAM entries removed by this epoch's diff.
    pub removed: usize,
    /// Peak per-switch occupancy during the transition.
    pub peak_occupancy: usize,
    /// Switches newly quarantined while committing this epoch.
    pub quarantined: Vec<SwitchId>,
    /// Ingresses in safe mode (fail-closed drop-all fence) after this
    /// epoch.
    pub safe_mode: Vec<EntryPortId>,
    /// Ingresses with an active delegation (routes detoured through an
    /// off-route delegate) after this epoch.
    pub delegated: Vec<EntryPortId>,
    /// Dataplane faults injected during this epoch.
    pub injected: usize,
}

impl EpochReport {
    /// Tiers of the applied events, in order.
    pub fn tiers(&self) -> Vec<Tier> {
        self.outcomes
            .iter()
            .filter_map(|(_, o)| match o {
                EventOutcome::Applied(t) => Some(*t),
                _ => None,
            })
            .collect()
    }
}

/// The result of running one flow-event stream through the cache tier
/// (see [`Controller::process_flows`]). All counters are deltas for
/// that one call, except `dep_violations`, which mirrors the
/// controller's cumulative [`CtrlStats::cache_dep_violations`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FlowReport {
    /// Flow events processed.
    pub flows: u64,
    /// Flows whose every on-path lookup was a hit (or no-match).
    pub hit_flows: u64,
    /// Flows that punted to the controller at least once.
    pub miss_flows: u64,
    /// Flows skipped: no route from the ingress, or a crashed switch
    /// on the chosen path.
    pub unrouted: u64,
    /// Per-switch cache lookups.
    pub lookups: u64,
    /// Lookups answered by a resident entry.
    pub hits: u64,
    /// Lookups punted to the controller.
    pub misses: u64,
    /// Entries made resident (dependency pulls included).
    pub inserts: u64,
    /// Entries evicted (cascades included).
    pub evictions: u64,
    /// Always 0: miss batches trigger no solve. Only the benchmark
    /// reads it.
    pub resolves: u64,
    /// Miss batches flushed.
    pub miss_batches: u64,
    /// Virtual milliseconds of punt latency charged.
    pub miss_latency_ms: u64,
    /// Cumulative dependency-safety violations on the controller (must
    /// stay zero).
    pub dep_violations: u64,
}

impl FlowReport {
    /// Share of the lookups the cache could have answered — those that
    /// matched a deployed entry — that it did answer, in `[0, 1]` (`1.0`
    /// when nothing matched).
    pub fn hit_rate(&self) -> f64 {
        let matched = self.hits + self.misses;
        if matched == 0 {
            1.0
        } else {
            self.hits as f64 / matched as f64
        }
    }

    /// Lookups that matched no deployed entry on their switch
    /// ([`CacheLookup::NoMatch`]): every lookup is a hit, a miss or one
    /// of these.
    pub fn no_match(&self) -> u64 {
        self.lookups - self.hits - self.misses
    }
}

/// Controller configuration.
#[derive(Clone, Debug)]
pub struct CtrlOptions {
    /// Maximum events coalesced into one epoch.
    pub batch_size: usize,
    /// Bounded queue size; submissions past it are rejected
    /// (backpressure).
    pub queue_capacity: usize,
    /// Random packets per route in the commit-time verification, on top
    /// of the deterministic rule-corner packets.
    pub verify_packets: usize,
    /// Solver configuration for restricted and full tiers.
    pub placement: PlacementOptions,
    /// Objective for restricted and full tiers.
    pub objective: Objective,
    /// Dataplane fault plan. The default plan injects nothing: the
    /// commit pipeline is the same, and none of its ops fail.
    pub faults: FaultPlan,
    /// Retry/backoff policy for rejected TCAM installs.
    pub retry: RetryPolicy,
    /// Consecutive failed operations on one switch before its circuit
    /// breaker trips and the switch is quarantined.
    pub quarantine_after: u32,
    /// TCAM-as-cache tier configuration (see [`cache`]). Disabled by
    /// default: the dataplane then *is* the physical TCAM, exactly as
    /// before the cache tier existed.
    pub cache: CacheConfig,
    /// Delegation rung configuration (see [`delegate`]). Enabled by
    /// default; on topologies whose routes span every reachable switch
    /// (no off-route neighbors) the rung is inert.
    pub delegation: DelegationConfig,
}

impl Default for CtrlOptions {
    fn default() -> Self {
        CtrlOptions {
            batch_size: 8,
            queue_capacity: 1024,
            verify_packets: 8,
            placement: PlacementOptions::default(),
            objective: Objective::default(),
            faults: FaultPlan::default(),
            retry: RetryPolicy::default(),
            quarantine_after: 3,
            cache: CacheConfig::default(),
            delegation: DelegationConfig::default(),
        }
    }
}

/// Controller-level error. Event-level failures (an infeasible add, a
/// bad rule id) do *not* surface here — they are recorded per event in
/// the [`EpochReport`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CtrlError {
    /// The event queue is full; the event was not accepted.
    QueueFull {
        /// The configured queue capacity.
        capacity: usize,
    },
    /// A trace file failed to parse.
    Trace(TraceError),
    /// The epoch's tables could not be emitted for verification; the epoch
    /// was discarded. (A violating ingress fails closed; the epoch commits.)
    VerifyFailed {
        /// The epoch that was discarded.
        epoch: u64,
        /// The verifier's report.
        detail: String,
    },
    /// The dataplane refused the diff.
    DataPlane(DataPlaneError),
}

impl fmt::Display for CtrlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CtrlError::QueueFull { capacity } => {
                write!(f, "event queue full (capacity {capacity})")
            }
            CtrlError::Trace(e) => write!(f, "{e}"),
            CtrlError::VerifyFailed { epoch, detail } => {
                write!(f, "epoch {epoch} failed verification: {detail}")
            }
            CtrlError::DataPlane(e) => write!(f, "dataplane: {e}"),
        }
    }
}

impl std::error::Error for CtrlError {}

impl From<TraceError> for CtrlError {
    fn from(e: TraceError) -> Self {
        CtrlError::Trace(e)
    }
}

impl From<DataPlaneError> for CtrlError {
    fn from(e: DataPlaneError) -> Self {
        CtrlError::DataPlane(e)
    }
}

/// Why a switch is out of the controller's reach.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum OutageKind {
    /// Down: not forwarding, TCAM lost. Routes through it are
    /// traffic-dead.
    Crashed,
    /// Alive and forwarding, but its control channel is broken (circuit
    /// breaker tripped). Its entries are stale and treated as absent —
    /// pessimal-safe, since a stale entry can only add drops.
    Quarantined,
}

/// Controller-side bookkeeping for one out-of-service switch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Outage {
    kind: OutageKind,
    /// The hardware capacity to restore when the switch recovers (the
    /// working instance's capacity is zeroed while it is out).
    saved_capacity: usize,
}

/// All mutable fault-tolerance state of a controller.
#[derive(Clone, Debug)]
struct FaultRuntime {
    injector: FaultInjector,
    clock: VirtualClock,
    breakers: BTreeMap<SwitchId, CircuitBreaker>,
    unmanageable: BTreeMap<SwitchId, Outage>,
    safe_mode: BTreeSet<EntryPortId>,
    /// Active delegations, keyed by the detoured ingress.
    delegations: BTreeMap<EntryPortId, Delegation>,
}

/// The single-threaded, deterministic placement controller.
#[derive(Clone, Debug)]
pub struct Controller {
    instance: Instance,
    placement: Placement,
    dataplane: DataPlane,
    epochs: EpochLog,
    queue: VecDeque<Event>,
    options: CtrlOptions,
    stats: CtrlStats,
    faults: FaultRuntime,
    cache: RuleCache,
    obs: Option<Obs>,
    /// The routes the last passing commit-time verify covered.
    verified: VerifiedRoutes,
}

/// The ingress an event targets, for the safe-mode gate.
fn event_ingress(event: &Event) -> Option<EntryPortId> {
    match event {
        Event::AddRule { ingress, .. }
        | Event::RemoveRule { ingress, .. }
        | Event::ModifyRule { ingress, .. }
        | Event::InstallPolicy { ingress, .. }
        | Event::Reroute { ingress, .. } => Some(*ingress),
        _ => None,
    }
}

/// Snapshots retained for rollback.
const CHECKPOINT_DEPTH: usize = 8;

impl Controller {
    /// Creates a controller managing a bare topology: no routes, no
    /// policies, an empty dataplane. Policies arrive later via
    /// [`Event::InstallPolicy`].
    pub fn new(topology: Topology, options: CtrlOptions) -> Controller {
        let capacities = topology.capacities();
        let switch_count = capacities.len();
        let instance = Instance::new(topology, RouteSet::new(), Vec::new())
            .expect("an instance with no routes or policies is always valid");
        Controller {
            instance,
            placement: Placement::default(),
            dataplane: DataPlane::new(capacities),
            epochs: EpochLog::new(CHECKPOINT_DEPTH),
            queue: VecDeque::new(),
            faults: FaultRuntime {
                injector: FaultInjector::new(options.faults.clone()),
                clock: VirtualClock::default(),
                breakers: BTreeMap::new(),
                unmanageable: BTreeMap::new(),
                safe_mode: BTreeSet::new(),
                delegations: BTreeMap::new(),
            },
            cache: RuleCache::new(options.cache.clone(), switch_count),
            options,
            stats: CtrlStats::default(),
            obs: None,
            verified: VerifiedRoutes::default(),
        }
    }

    /// Creates a controller around an existing instance, solving and
    /// deploying it as epoch 1.
    ///
    /// An infeasible instance is not an error: the controller comes back
    /// with every ingress it could not place fenced fail-closed
    /// ([`safe_mode_ingresses`](Controller::safe_mode_ingresses)), and
    /// each later epoch tries to lift the fences.
    ///
    /// # Errors
    ///
    /// [`CtrlError::VerifyFailed`] / [`CtrlError::DataPlane`] if the
    /// deployment's tables cannot be emitted or exceed a capacity.
    pub fn with_instance(
        instance: Instance,
        options: CtrlOptions,
    ) -> Result<Controller, CtrlError> {
        let mut ctrl = Controller::new(instance.topology().clone(), options);
        ctrl.instance = instance;
        ctrl.submit(Event::Solve)
            .expect("fresh queue accepts one event");
        ctrl.run_to_idle()?;
        Ok(ctrl)
    }

    /// The deployed instance.
    pub fn instance(&self) -> &Instance {
        &self.instance
    }

    /// The deployed placement.
    pub fn placement(&self) -> &Placement {
        &self.placement
    }

    /// The simulated dataplane.
    pub fn dataplane(&self) -> &DataPlane {
        &self.dataplane
    }

    /// Cumulative counters.
    pub fn stats(&self) -> &CtrlStats {
        &self.stats
    }

    /// The verified-route memo of the commit-time verify, with its
    /// full / skipped route counts (kept out of [`CtrlStats`], whose
    /// export is byte-pinned).
    pub fn verified_routes(&self) -> &VerifiedRoutes {
        &self.verified
    }

    /// Attaches an observability context: epoch/event/commit spans and
    /// controller/solver metrics are recorded onto it from now on.
    /// Telemetry never feeds back into control decisions, so a
    /// controller behaves identically with and without a sink attached.
    pub fn attach_obs(&mut self, obs: Obs) {
        self.obs = Some(obs);
    }

    /// The attached observability context, if any.
    pub fn obs(&self) -> Option<&Obs> {
        self.obs.as_ref()
    }

    /// Opens a span on the attached sink (no-op without one), syncing
    /// the recorder's virtual clock from the fault clock first.
    fn span_begin(&self, name: &str) -> Option<SpanId> {
        let o = self.obs.as_ref()?;
        o.spans.set_virtual_ms(self.faults.clock.now_ms());
        Some(o.spans.begin(name))
    }

    /// Attaches an attribute to a span opened by
    /// [`span_begin`](Controller::span_begin).
    fn span_attr(&self, span: Option<SpanId>, key: &str, value: impl Into<AttrValue>) {
        if let (Some(o), Some(id)) = (&self.obs, span) {
            o.spans.attr(id, key, value);
        }
    }

    /// Ends a span opened by [`span_begin`](Controller::span_begin),
    /// syncing the virtual clock so backoff spent inside it is visible
    /// in the span's duration.
    fn span_end(&self, span: Option<SpanId>) {
        if let (Some(o), Some(id)) = (&self.obs, span) {
            o.spans.set_virtual_ms(self.faults.clock.now_ms());
            o.spans.end(id);
        }
    }

    /// The last committed epoch.
    pub fn epoch(&self) -> u64 {
        self.epochs.current()
    }

    /// The controller's configuration.
    pub fn options(&self) -> &CtrlOptions {
        &self.options
    }

    /// Queued events not yet consumed by an epoch.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Switches currently out of service (crashed or quarantined).
    pub fn out_of_service(&self) -> Vec<SwitchId> {
        self.faults.unmanageable.keys().copied().collect()
    }

    /// Switches currently quarantined by a tripped circuit breaker
    /// (alive and forwarding, but unmanageable).
    pub fn quarantined_switches(&self) -> Vec<SwitchId> {
        self.faults
            .unmanageable
            .iter()
            .filter(|(_, o)| o.kind == OutageKind::Quarantined)
            .map(|(s, _)| *s)
            .collect()
    }

    /// Ingresses currently degraded to the safe-mode drop-all fence.
    pub fn safe_mode_ingresses(&self) -> Vec<EntryPortId> {
        self.faults.safe_mode.iter().copied().collect()
    }

    /// Active delegations: each detoured ingress with its delegate and
    /// anchors.
    pub fn delegations(&self) -> Vec<(EntryPortId, Delegation)> {
        self.faults
            .delegations
            .iter()
            .map(|(l, d)| (*l, d.clone()))
            .collect()
    }

    /// TCAM entries currently offloaded onto delegate switches (the
    /// delegated-rule overhead on top of the redirect stubs).
    pub fn delegated_entries(&self) -> usize {
        self.faults
            .delegations
            .iter()
            .map(|(l, d)| {
                self.placement
                    .iter()
                    .filter(|((pl, _), switches)| pl == l && switches.contains(&d.delegate))
                    .count()
            })
            .sum()
    }

    /// Toggles the delegation rung, so one deployment can be run with
    /// and without delegation (`examples/fault_tolerance.rs`). Disabling
    /// does not tear down active delegations; they unwind through the
    /// normal lift rounds.
    pub fn set_delegation_enabled(&mut self, enabled: bool) {
        self.options.delegation.enabled = enabled;
    }

    /// Current virtual time in milliseconds (advanced only by retry
    /// backoff, never by wall time — replays are deterministic).
    pub fn virtual_time_ms(&self) -> u64 {
        self.faults.clock.now_ms()
    }

    /// Enqueues an event.
    ///
    /// # Errors
    ///
    /// [`CtrlError::QueueFull`] when the bounded queue is at capacity;
    /// the rejection is counted in [`CtrlStats::events_rejected`].
    pub fn submit(&mut self, event: Event) -> Result<(), CtrlError> {
        if self.queue.len() >= self.options.queue_capacity {
            self.stats.events_rejected += 1;
            return Err(CtrlError::QueueFull {
                capacity: self.options.queue_capacity,
            });
        }
        self.queue.push_back(event);
        self.stats.events_in += 1;
        self.stats.max_queue_depth = self.stats.max_queue_depth.max(self.queue.len());
        Ok(())
    }

    /// Processes one batch of queued events (up to `batch_size`) as a
    /// single epoch: dispatch each event through the escalation ladder,
    /// verify the resulting placement, and commit the coalesced diff to
    /// the dataplane.
    ///
    /// Returns `Ok(None)` when the queue is empty. Event-level failures
    /// are recorded in the report; an `Err` means the whole epoch was
    /// discarded: the deployed instance and placement are unchanged, and
    /// the TCAMs too unless an earlier reconcile round had sent ops.
    ///
    /// # Errors
    ///
    /// See [`CtrlError`].
    pub fn run_epoch(&mut self) -> Result<Option<EpochReport>, CtrlError> {
        if self.queue.is_empty() {
            return Ok(None);
        }
        let epoch = self.epochs.next();
        let span = self.span_begin("ctrl.epoch");
        self.span_attr(span, "epoch", epoch);
        let result = self.run_epoch_inner(epoch);
        match &result {
            Ok(report) => {
                self.span_attr(span, "events", report.outcomes.len());
                self.span_attr(span, "installed", report.installed);
                self.span_attr(span, "removed", report.removed);
            }
            Err(e) => self.span_attr(span, "error", e.to_string()),
        }
        self.span_end(span);
        result.map(Some)
    }

    /// The body of [`run_epoch`](Controller::run_epoch), with the epoch
    /// number already drawn (extracted so the `ctrl.epoch` span closes
    /// on the error path too).
    fn run_epoch_inner(&mut self, epoch: u64) -> Result<EpochReport, CtrlError> {
        let faults_before = self.stats.faults_injected;

        // Faults due at this epoch's start are synthesized as events at
        // the head of the batch, so they show up in the report (and the
        // trace of record) like any other input.
        let mut batch = self.inject_due_faults(epoch);
        let take = self.options.batch_size.max(1).min(self.queue.len());
        batch.extend(self.queue.drain(..take));

        // Working copy: events mutate this; the deployed pair is only
        // replaced if the commit below succeeds.
        let mut instance = self.instance.clone();
        let mut placement = self.placement.clone();
        let mut outcomes = Vec::with_capacity(batch.len());

        for event in batch {
            let event_span = self.span_begin("ctrl.event");
            self.span_attr(event_span, "kind", event.label());
            if let Some(o) = &self.obs {
                o.metrics
                    .counter_add_with("ctrl.events", &[("kind", event.label())], 1);
            }
            let outcome = match &event {
                Event::Checkpoint => {
                    self.epochs.checkpoint(instance.clone(), placement.clone());
                    self.stats.checkpoints += 1;
                    EventOutcome::Checkpoint
                }
                Event::Rollback => match self.epochs.rollback() {
                    Some(snap) => {
                        instance = snap.instance;
                        placement = snap.placement;
                        self.stats.rollbacks += 1;
                        EventOutcome::RolledBack {
                            to_epoch: snap.epoch,
                        }
                    }
                    None => {
                        self.stats.events_failed += 1;
                        EventOutcome::Rejected {
                            reason: "nothing to roll back".into(),
                        }
                    }
                },
                Event::SwitchFail { switch } => self.on_switch_fail(*switch, &mut instance),
                Event::SwitchRecover { switch } => self.on_switch_recover(*switch, &mut instance),
                Event::CapacityChange { switch, capacity }
                    if self.faults.unmanageable.contains_key(switch) =>
                {
                    // The switch is out of reach: remember the hardware
                    // capacity for its recovery, keep the working
                    // instance's capacity at zero.
                    self.dataplane.revoke_capacity(*switch, *capacity);
                    self.faults
                        .unmanageable
                        .get_mut(switch)
                        .expect("guard checked membership")
                        .saved_capacity = *capacity;
                    self.stats.greedy_ok += 1;
                    EventOutcome::Applied(Tier::Greedy)
                }
                _ => match event_ingress(&event) {
                    Some(l) if self.faults.safe_mode.contains(&l) => {
                        self.stats.events_failed += 1;
                        EventOutcome::Rejected {
                            reason: format!("ingress {l} is in safe mode (degraded)"),
                        }
                    }
                    _ => match self.dispatch(&instance, &placement, &event) {
                        Ok((ni, np, tier)) => {
                            instance = ni;
                            placement = np;
                            match tier {
                                Tier::Greedy => self.stats.greedy_ok += 1,
                                Tier::Restricted => self.stats.restricted_ok += 1,
                                Tier::Full => self.stats.full_ok += 1,
                                Tier::Delegated => self.stats.delegated_ok += 1,
                            }
                            EventOutcome::Applied(tier)
                        }
                        Err(reason) => match self.rescue_rejected(&event, &instance, &placement) {
                            Some((ni, np)) => {
                                instance = ni;
                                placement = np;
                                self.stats.delegated_ok += 1;
                                EventOutcome::Applied(Tier::Delegated)
                            }
                            None => {
                                // A capacity shrink is committed even
                                // when re-placement fails: the hardware
                                // has already lost the bank, so the old
                                // capacity must not be resurrected. The
                                // commit degrades the overloaded
                                // ingresses fail-closed.
                                if let Event::CapacityChange { switch, capacity } = &event {
                                    if switch.0 < instance.topology().switch_count() {
                                        instance.set_capacity(*switch, *capacity);
                                    }
                                }
                                self.stats.events_failed += 1;
                                EventOutcome::Rejected { reason }
                            }
                        },
                    },
                },
            };
            self.span_attr(event_span, "outcome", outcome.label());
            if let Some(o) = &self.obs {
                o.metrics
                    .counter_add_with("ctrl.outcomes", &[("outcome", outcome.label())], 1);
            }
            self.span_end(event_span);
            outcomes.push((event, outcome));
        }

        // Read before the commit, which can relieve the pressure, and
        // again after it, which can fence an ingress or quarantine a switch.
        let audit = self.audit_owed(&instance, &placement);

        let commit_span = self.span_begin("ctrl.commit");
        let committed = self.commit(epoch, &mut instance, &mut placement);
        match &committed {
            Ok((report, quarantined)) => {
                self.span_attr(commit_span, "installed", report.installed);
                self.span_attr(commit_span, "removed", report.removed);
                self.span_attr(commit_span, "quarantined", quarantined.len());
            }
            Err(e) => self.span_attr(commit_span, "error", e.to_string()),
        }
        self.span_end(commit_span);
        let (report, quarantined) = committed?;

        self.instance = instance;
        self.placement = placement;
        self.epochs.advance();
        self.stats.epochs += 1;
        self.stats.entries_installed += report.installed as u64;
        self.stats.entries_removed += report.removed as u64;
        self.stats.peak_tcam_occupancy = self.stats.peak_tcam_occupancy.max(report.peak_occupancy);
        self.resync_cache();

        if (audit || self.audit_owed(&self.instance, &self.placement))
            && self.fail_closed_audit().is_err()
        {
            self.stats.failclosed_violations += 1;
        }
        self.record_epoch_metrics();

        Ok(EpochReport {
            epoch,
            outcomes,
            installed: report.installed,
            removed: report.removed,
            peak_occupancy: report.peak_occupancy,
            quarantined,
            safe_mode: self.faults.safe_mode.iter().copied().collect(),
            delegated: self.faults.delegations.keys().copied().collect(),
            injected: (self.stats.faults_injected - faults_before) as usize,
        })
    }

    /// Post-commit metrics sweep onto the attached sink (no-op without
    /// one): per-switch TCAM occupancy and capacity gauges, queue
    /// depth, §IV-B merge-saving gauges, and an absolute-value export
    /// of every [`CtrlStats`] counter.
    fn record_epoch_metrics(&self) {
        let Some(o) = &self.obs else { return };
        for i in 0..self.dataplane.switch_count() {
            let tcam = self.dataplane.switch(SwitchId(i));
            let tag = format!("s{i}");
            let labels = [("switch", tag.as_str())];
            o.metrics
                .gauge_set_with("tcam.occupancy", &labels, tcam.occupancy() as i64);
            o.metrics
                .gauge_set_with("tcam.capacity", &labels, tcam.capacity() as i64);
        }
        o.metrics
            .gauge_set("ctrl.queue_depth", self.queue.len() as i64);
        let groups = self.placement.merge_groups();
        let saved: usize = groups
            .iter()
            .map(|g| g.members.len().saturating_sub(1))
            .sum();
        o.metrics.gauge_set("merge.groups", groups.len() as i64);
        o.metrics.gauge_set("merge.entries_saved", saved as i64);
        self.stats.export(&o.metrics);
    }

    /// Runs epochs until the queue drains.
    ///
    /// # Errors
    ///
    /// See [`run_epoch`](Controller::run_epoch).
    pub fn run_to_idle(&mut self) -> Result<Vec<EpochReport>, CtrlError> {
        let mut reports = Vec::new();
        while let Some(report) = self.run_epoch()? {
            reports.push(report);
        }
        Ok(reports)
    }

    /// Feeds a stream of events through the controller, draining the
    /// queue whenever backpressure would reject a submission.
    ///
    /// # Errors
    ///
    /// See [`run_epoch`](Controller::run_epoch).
    pub fn replay(
        &mut self,
        events: impl IntoIterator<Item = Event>,
    ) -> Result<Vec<EpochReport>, CtrlError> {
        let mut reports = Vec::new();
        for event in events {
            if self.queue.len() >= self.options.queue_capacity {
                reports.extend(self.run_to_idle()?);
            }
            self.submit(event)?;
        }
        reports.extend(self.run_to_idle()?);
        Ok(reports)
    }

    /// Parses a text trace (see [`event`]) and replays it.
    ///
    /// # Errors
    ///
    /// [`CtrlError::Trace`] on parse failure, otherwise as
    /// [`replay`](Controller::replay).
    pub fn replay_trace(&mut self, text: &str) -> Result<Vec<EpochReport>, CtrlError> {
        let events = parse_trace(text)?;
        self.replay(events)
    }

    /// Dispatches one mutating event through the escalation ladder: the
    /// event's own §IV-E operation first — it hands back the edited
    /// instance whether or not it placed it — then a restricted re-solve
    /// of the touched ingress, then a full re-solve, both on that
    /// instance. Returns the updated working state and the tier that
    /// settled it, or a rejection reason (working state untouched).
    fn dispatch(
        &self,
        instance: &Instance,
        placement: &Placement,
        event: &Event,
    ) -> Result<(Instance, Placement, Tier), String> {
        let options = &self.options.placement;
        let (ingress, first, out) = match event {
            Event::AddRule { ingress, rule } => (
                *ingress,
                Tier::Greedy,
                incremental::add_rule_greedy(instance, placement, *ingress, *rule),
            ),
            Event::RemoveRule { ingress, rule } => (
                *ingress,
                Tier::Greedy,
                incremental::remove_rule(instance, placement, *ingress, *rule),
            ),
            Event::ModifyRule {
                ingress,
                rule,
                replacement,
            } => (
                *ingress,
                Tier::Greedy,
                incremental::modify_rule(instance, placement, *ingress, *rule, *replacement),
            ),
            Event::InstallPolicy {
                ingress,
                policy,
                routes,
            } => (
                *ingress,
                Tier::Restricted,
                incremental::install_policies(
                    instance,
                    placement,
                    vec![(*ingress, policy.clone(), routes.clone())],
                    options,
                    self.options.objective.clone(),
                ),
            ),
            Event::Reroute { ingress, routes } => (
                *ingress,
                Tier::Restricted,
                incremental::reroute_policy(
                    instance,
                    placement,
                    *ingress,
                    routes.clone(),
                    options,
                    self.options.objective.clone(),
                ),
            ),
            Event::CapacityChange { switch, capacity } => {
                if switch.0 >= instance.topology().switch_count() {
                    return Err(format!("unknown switch {switch}"));
                }
                let mut updated = instance.clone();
                updated.set_capacity(*switch, *capacity);
                if placement.per_switch_load(instance)[switch.0] <= *capacity {
                    // The deployed placement still fits: no solver run.
                    return Ok((updated, placement.clone(), Tier::Greedy));
                }
                let solved = self.full_solve(&updated)?;
                return Ok((updated, solved, Tier::Full));
            }
            Event::Solve => {
                let solved = self.full_solve(instance)?;
                return Ok((instance.clone(), solved, Tier::Full));
            }
            Event::Checkpoint
            | Event::Rollback
            | Event::SwitchFail { .. }
            | Event::SwitchRecover { .. } => {
                unreachable!("handled in run_epoch")
            }
        };
        let out = out.map_err(|e| e.to_string())?;
        if let Some(p) = out.placement {
            return Ok((out.instance, p, first));
        }
        if first == Tier::Greedy {
            // The original placement serves: the re-solve discards this
            // ingress's entries, the only ones the edit renumbered.
            let sub = incremental::replace_ingresses(
                &out.instance,
                placement,
                &[ingress],
                &[],
                options,
                self.options.objective.clone(),
            )
            .map_err(|e| e.to_string())?;
            if let Some(p) = sub.placement {
                return Ok((out.instance, p, Tier::Restricted));
            }
        }
        let solved = self.full_solve(&out.instance)?;
        Ok((out.instance, solved, Tier::Full))
    }

    /// Full re-solve of `instance`, observed on the attached sink (the
    /// restricted sub-solves of the restricted tier, salvage and
    /// delegation record no spans); error if no feasible placement
    /// exists.
    fn full_solve(&self, instance: &Instance) -> Result<Placement, String> {
        let outcome = par::solve(
            instance,
            self.options.objective.clone(),
            &self.options.placement,
            self.obs.as_ref(),
        );
        outcome
            .placement
            .ok_or_else(|| format!("full re-solve failed: {}", outcome.status))
    }

    // ---- TCAM-as-cache tier ----------------------------------------------

    /// The cache tier's state (residency, counters, audit hooks).
    pub fn cache(&self) -> &RuleCache {
        &self.cache
    }

    /// Mutable cache access for negative-control tests (pairs with
    /// [`RuleCache::force_evict_unsafe`]). Not part of the public API.
    #[doc(hidden)]
    pub fn cache_mut(&mut self) -> &mut RuleCache {
        &mut self.cache
    }

    /// Swaps in a new cache-tier configuration: residency restarts cold
    /// against the currently deployed tables. Lets one solved
    /// deployment be swept across capacities and policies (the cache
    /// benchmark) without paying the solve again.
    pub fn set_cache_config(&mut self, config: CacheConfig) {
        self.options.cache = config.clone();
        self.cache = RuleCache::new(config, self.dataplane.switch_count());
        self.resync_cache();
    }

    /// Re-synchronizes the cache tier with the freshly committed
    /// dataplane tables (no-op while the tier is disabled). Residency
    /// survives for entries the commit kept; the dependency closure is
    /// re-pulled and the capacity re-enforced.
    fn resync_cache(&mut self) {
        if !self.options.cache.enabled {
            return;
        }
        let dataplane = &self.dataplane;
        self.cache.set_target(
            (0..dataplane.switch_count()).map(|i| dataplane.switch(SwitchId(i)).entries()),
        );
        if self.cache.audit().is_err() {
            self.stats.cache_dep_violations += 1;
        }
        self.sync_cache_stats();
    }

    /// Copies the cache tier's cumulative counters into [`CtrlStats`]
    /// (absolute-value sync).
    fn sync_cache_stats(&mut self) {
        let c = *self.cache.counters();
        self.stats.cache_lookups = c.lookups;
        self.stats.cache_hits = c.hits;
        self.stats.cache_misses = c.misses;
        self.stats.cache_inserts = c.inserts;
        self.stats.cache_evictions = c.evictions;
        self.stats.cache_closure_pulls = c.closure_pulls;
        self.stats.cache_uncacheable = c.uncacheable;
    }

    /// Runs a flow-event stream (see [`flowplace_traffic`]) against the
    /// cache tier: each flow picks one of its ingress's routes
    /// deterministically (header-hash ECMP), every on-path switch looks
    /// the packet up in its cached TCAM, and misses punt to the
    /// controller, which batches them (per [`CacheConfig::miss_batch`]),
    /// inserts the missed entries dependency-closed and charges the punt
    /// latency to the virtual clock. Controller load is the punts
    /// themselves, counted in miss batches; no solver runs. The tier is
    /// audited after every batch and at the end; violations land in
    /// [`CtrlStats::cache_dep_violations`] (and must stay zero).
    ///
    /// Flows over ingresses with no routes, or whose route crosses a
    /// crashed switch, count as `unrouted` and touch nothing.
    pub fn process_flows(&mut self, flows: &[FlowEvent]) -> FlowReport {
        let span = self.span_begin("cache.flows");
        self.span_attr(span, "flows", flows.len());
        let before = *self.cache.counters();
        let mut report = FlowReport {
            flows: flows.len() as u64,
            ..FlowReport::default()
        };
        let mut pending: Vec<(SwitchId, usize)> = Vec::new();
        let mut punts_since_flush: u64 = 0;
        // Each ingress's routes in route order, listed once: no flow
        // changes the instance.
        let mut paths_from: FnvHashMap<EntryPortId, Vec<RouteId>> = FnvHashMap::default();
        for (id, route) in self.instance.routes().iter_with_ids() {
            paths_from.entry(route.ingress).or_default().push(id);
        }
        // The picked route's switches, copied out so the loop below can
        // borrow the controller mutably; one buffer for the whole call.
        let mut hops: Vec<SwitchId> = Vec::new();
        for ev in flows {
            let delta = ev.at_ms.saturating_sub(self.faults.clock.now_ms());
            if delta > 0 {
                self.faults.clock.advance(delta);
            }
            let Some(paths) = paths_from.get(&ev.ingress) else {
                report.unrouted += 1;
                continue;
            };
            let pick = (ev.packet.bits() % paths.len() as u128) as usize;
            hops.clear();
            hops.extend_from_slice(&self.instance.routes().route(paths[pick]).switches);
            if !hops.iter().all(|&s| self.dataplane.is_online(s)) {
                report.unrouted += 1;
                continue;
            }
            let mut missed = false;
            for &s in &hops {
                match self.cache.lookup(s, ev.ingress, &ev.packet) {
                    CacheLookup::Hit(action) => {
                        if action.is_drop() {
                            break;
                        }
                    }
                    CacheLookup::Miss { action, slot } => {
                        missed = true;
                        punts_since_flush += 1;
                        if !pending.contains(&(s, slot)) {
                            pending.push((s, slot));
                        }
                        if punts_since_flush >= self.options.cache.miss_batch.max(1) as u64 {
                            self.flush_miss_batch(&mut pending, punts_since_flush, &mut report);
                            punts_since_flush = 0;
                        }
                        if action.is_drop() {
                            break;
                        }
                    }
                    CacheLookup::NoMatch => {}
                }
            }
            if missed {
                report.miss_flows += 1;
            } else {
                report.hit_flows += 1;
            }
        }
        self.flush_miss_batch(&mut pending, punts_since_flush, &mut report);
        if self.cache.audit().is_err() {
            self.stats.cache_dep_violations += 1;
        }
        let after = *self.cache.counters();
        report.lookups = after.lookups - before.lookups;
        report.hits = after.hits - before.hits;
        report.misses = after.misses - before.misses;
        report.inserts = after.inserts - before.inserts;
        report.evictions = after.evictions - before.evictions;
        report.dep_violations = self.stats.cache_dep_violations;
        self.sync_cache_stats();
        self.record_epoch_metrics();
        self.span_attr(span, "hits", report.hits);
        self.span_attr(span, "misses", report.misses);
        self.span_end(span);
        report
    }

    /// Flushes one batch of cache misses: inserts the missed entries
    /// (dependency-closed, policy-evicted), charges the punt latency
    /// (`MISS_PENALTY_MS` per punt), counts the batch, and audits the
    /// tier. The instance is unchanged, so there is nothing to re-solve.
    fn flush_miss_batch(
        &mut self,
        pending: &mut Vec<(SwitchId, usize)>,
        punts: u64,
        report: &mut FlowReport,
    ) {
        /// Virtual milliseconds of controller punt latency charged per
        /// missed packet.
        const MISS_PENALTY_MS: u64 = 1;
        if pending.is_empty() {
            return;
        }
        let span = self.span_begin("cache.miss_batch");
        self.span_attr(span, "misses", punts);
        self.span_attr(span, "entries", pending.len());
        for (s, slot) in pending.drain(..) {
            self.cache.insert(s, slot);
        }
        let penalty = MISS_PENALTY_MS * punts.max(1);
        self.faults.clock.advance(penalty);
        report.miss_latency_ms += penalty;
        self.stats.cache_miss_latency_ms += penalty;
        report.miss_batches += 1;
        self.stats.cache_miss_batches += 1;
        if self.cache.audit().is_err() {
            self.stats.cache_dep_violations += 1;
        }
        self.span_end(span);
    }

    /// Audits the cache tier's *resident* TCAM state against the
    /// fail-closed invariant, with the punt path modelled as a drop
    /// (see [`RuleCache::audit_tables`]): on every live route, any
    /// packet the ingress policy drops is dropped — or punted — by the
    /// resident entries alone. Trivially green while the tier is
    /// disabled.
    ///
    /// # Errors
    ///
    /// A description of the first leaking packet.
    pub fn cache_fail_closed_audit(&self) -> Result<(), String> {
        if !self.options.cache.enabled {
            return Ok(());
        }
        let tables = self.cache.audit_tables();
        verify::verify_tables(
            &self.instance,
            &tables,
            self.options.verify_packets,
            self.epochs.current(),
            VerifyMode::NoFalseNegatives,
            |route| self.carries_traffic(route),
        )
        .map_err(|e| e.to_string())
    }

    /// Whether the fail-closed audits must cover `route`: not when a
    /// crashed switch on its path makes it traffic-dead, nor when it is
    /// a safe-mode route with no manageable switch, which is fenced at
    /// the controller-owned entry port.
    fn carries_traffic(&self, route: &Route) -> bool {
        let unmanageable = &self.faults.unmanageable;
        route.switches.iter().all(|&s| self.dataplane.is_online(s))
            && !(self.faults.safe_mode.contains(&route.ingress)
                && route.switches.iter().all(|s| unmanageable.contains_key(s)))
    }

    // ---- fault tolerance -------------------------------------------------

    /// Whether an epoch over this state owes a
    /// [`fail_closed_audit`](Controller::fail_closed_audit), the TCAMs
    /// being liable to differ from the emitted tables: faults can fire, a
    /// switch is out of reach, an ingress fenced, a route detoured, or a
    /// placed load exceeds its switch's capacity (after a committed-anyway
    /// shrink, until the ladder re-places or fences the overflow).
    fn audit_owed(&self, instance: &Instance, placement: &Placement) -> bool {
        let capacities = instance.topology().capacities();
        self.faults.injector.plan().is_active()
            || !self.faults.unmanageable.is_empty()
            || !self.faults.safe_mode.is_empty()
            || !self.faults.delegations.is_empty()
            || (placement.per_switch_load(instance).iter().zip(capacities)).any(|(l, c)| *l > c)
    }

    /// Pulls the faults due at `epoch`'s start: scripted rejects are
    /// armed inside the injector, crash/recover/capacity faults become
    /// synthesized events at the head of the batch.
    fn inject_due_faults(&mut self, epoch: u64) -> Vec<Event> {
        if !self.faults.injector.plan().is_active() {
            return Vec::new();
        }
        let switch_count = self.instance.topology().switch_count();
        let runtime = &mut self.faults;
        let unmanageable = &runtime.unmanageable;
        let due = runtime
            .injector
            .due_at_epoch(epoch, switch_count, |s| unmanageable.contains_key(&s));
        let mut events = Vec::new();
        for kind in due {
            self.stats.faults_injected += 1;
            if let Some(o) = &self.obs {
                o.metrics
                    .counter_add_with("faults.injected", &[("kind", kind.label())], 1);
            }
            match kind {
                FaultKind::Crash { switch } => events.push(Event::SwitchFail { switch }),
                FaultKind::Recover { switch } => events.push(Event::SwitchRecover { switch }),
                FaultKind::CapacityRevoke { switch, capacity } => {
                    if switch.0 < self.dataplane.switch_count() {
                        // The hardware loses the excess entries now; the
                        // synthesized event updates the instance model.
                        self.dataplane.revoke_capacity(switch, capacity);
                        events.push(Event::CapacityChange { switch, capacity });
                    }
                }
                FaultKind::InstallReject { .. } => {
                    unreachable!("install-rejects are armed inside the injector")
                }
            }
        }
        events
    }

    /// Handles [`Event::SwitchFail`]: the switch goes down, its TCAM is
    /// lost, and its capacity is zeroed in the working instance so every
    /// solver tier avoids it.
    fn on_switch_fail(&mut self, switch: SwitchId, instance: &mut Instance) -> EventOutcome {
        if switch.0 >= instance.topology().switch_count() {
            self.stats.events_failed += 1;
            return EventOutcome::Rejected {
                reason: format!("unknown switch {switch}"),
            };
        }
        self.stats.switch_crashes += 1;
        self.dataplane.crash(switch);
        let saved_capacity = match self.faults.unmanageable.get(&switch) {
            Some(outage) => outage.saved_capacity,
            None => instance.topology().capacities()[switch.0],
        };
        self.faults.unmanageable.insert(
            switch,
            Outage {
                kind: OutageKind::Crashed,
                saved_capacity,
            },
        );
        self.faults.breakers.entry(switch).or_default().reset();
        instance.set_capacity(switch, 0);
        EventOutcome::SwitchFailed { switch }
    }

    /// Handles [`Event::SwitchRecover`]: the switch comes back under
    /// control (blank TCAM if it crashed; stale-but-reconciled TCAM if
    /// it was quarantined) and its saved capacity is restored.
    fn on_switch_recover(&mut self, switch: SwitchId, instance: &mut Instance) -> EventOutcome {
        match self.faults.unmanageable.remove(&switch) {
            None => {
                self.stats.events_failed += 1;
                EventOutcome::Rejected {
                    reason: format!("{switch} is not out of service"),
                }
            }
            Some(outage) => {
                self.stats.switch_recoveries += 1;
                self.dataplane.restore(switch);
                self.faults.breakers.entry(switch).or_default().reset();
                instance.set_capacity(switch, outage.saved_capacity);
                EventOutcome::SwitchRecovered { switch }
            }
        }
    }

    /// Marks a switch unmanageable with the breaker-tripped outage kind.
    fn quarantine(&mut self, switch: SwitchId) {
        if self.faults.unmanageable.contains_key(&switch) {
            return;
        }
        self.stats.quarantines += 1;
        if let Some(o) = &self.obs {
            let tag = format!("s{}", switch.0);
            o.metrics.counter_add_with(
                "ctrl.quarantine_transitions",
                &[("switch", tag.as_str())],
                1,
            );
        }
        self.faults.unmanageable.insert(
            switch,
            Outage {
                kind: OutageKind::Quarantined,
                saved_capacity: self.dataplane.switch(switch).capacity(),
            },
        );
    }

    /// Re-zeroes the working instance's capacity for every out-of-service
    /// switch (a rollback can restore a pre-outage topology).
    fn enforce_outage_capacities(&self, instance: &mut Instance) {
        for &s in self.faults.unmanageable.keys() {
            instance.set_capacity(s, 0);
        }
    }

    /// Moves an ingress into safe mode: its placed entries are stripped
    /// (the drop-all fence replaces them in the dataplane target).
    fn enter_safe_mode(&mut self, ingress: EntryPortId, placement: &mut Placement) {
        placement.remove_ingress(ingress);
        self.faults.safe_mode.insert(ingress);
    }

    /// Graceful-degradation ladder: re-place every ingress touching an
    /// out-of-service or over-budget switch (and, on the first round of
    /// an epoch, every safe-mode ingress, attempting to lift the fence)
    /// via a batched restricted re-solve → full re-solve → per-ingress
    /// delegation → per-ingress salvage; what cannot be placed at all
    /// goes (or stays) fail-closed in safe mode.
    ///
    /// Delegation maintenance runs first: a delegation whose delegate
    /// or anchor went out of service — quarantine treats delegated
    /// entries pessimally — whose routes no longer visit the delegate,
    /// or whose ingress went fail-closed is torn down (routes restored,
    /// entries stripped) and the ingress re-enters the ladder, which
    /// may re-home it on a new delegate or fail it closed. Lift rounds
    /// probe opportunistic undelegation instead: a shadow re-solve
    /// without the detour, committed only when it fits, so a still-
    /// necessary delegation is left untouched.
    fn degrade(&mut self, instance: &mut Instance, placement: &mut Placement, lift: bool) {
        let mut seeded: BTreeSet<EntryPortId> = BTreeSet::new();
        let mut torn: BTreeSet<EntryPortId> = BTreeSet::new();
        for (l, d) in self.faults.delegations.clone() {
            let faulted = self.faults.unmanageable.contains_key(&d.delegate)
                || !self.dataplane.is_online(d.delegate)
                || d.anchors
                    .iter()
                    .any(|a| self.faults.unmanageable.contains_key(a));
            let detached = !instance
                .routes()
                .iter()
                .any(|r| r.ingress == l && r.contains(d.delegate));
            if faulted || detached || self.faults.safe_mode.contains(&l) {
                *instance = delegate::restore_instance(instance, l, d.delegate);
                self.faults.delegations.remove(&l);
                placement.remove_ingress(l);
                seeded.insert(l);
                self.stats.delegation_teardowns += 1;
                torn.insert(l);
                self.note_delegate_event("torn-down");
            } else if lift {
                self.try_undelegate(instance, placement, l, &d);
            }
        }
        self.degrade_inner(instance, placement, lift, seeded, &torn);
    }

    /// Opportunistic undelegation: re-solve `ingress` against its
    /// original (detour-free) routes and commit only if it fits —
    /// capacity came back, the delegation is no longer needed.
    fn try_undelegate(
        &mut self,
        instance: &mut Instance,
        placement: &mut Placement,
        ingress: EntryPortId,
        d: &Delegation,
    ) {
        let restored = delegate::restore_instance(instance, ingress, d.delegate);
        let excluded: Vec<SwitchId> = self.faults.unmanageable.keys().copied().collect();
        if let Some(state) = self.restricted(&restored, placement, &[ingress], &excluded) {
            (*instance, *placement) = state;
            self.faults.delegations.remove(&ingress);
            self.stats.undelegations += 1;
            self.note_delegate_event("undelegated");
        }
    }

    /// The ladder proper; `seeded` carries the ingresses the delegation
    /// maintenance pass already stripped.
    fn degrade_inner(
        &mut self,
        instance: &mut Instance,
        placement: &mut Placement,
        lift: bool,
        seeded: BTreeSet<EntryPortId>,
        torn: &BTreeSet<EntryPortId>,
    ) {
        let excluded: Vec<SwitchId> = self.faults.unmanageable.keys().copied().collect();
        let mut affected: BTreeSet<EntryPortId> = seeded;
        for ((ingress, _), switches) in placement.iter() {
            if switches
                .iter()
                .any(|s| self.faults.unmanageable.contains_key(s))
            {
                affected.insert(*ingress);
            }
        }
        // Invariant: a safe-mode ingress has no placed entries (a
        // rollback can resurrect some).
        for l in &self.faults.safe_mode {
            placement.remove_ingress(*l);
        }
        // Capacity pressure: a committed shrink (or cache resync) can
        // leave a switch's placed load over budget; those ingresses
        // must re-place before the commit check would reject the epoch.
        let load = placement.per_switch_load(instance);
        let capacities = instance.topology().capacities();
        for ((ingress, _), switches) in placement.iter() {
            if switches
                .iter()
                .any(|s| load.get(s.0).copied().unwrap_or(0) > capacities[s.0])
            {
                affected.insert(*ingress);
            }
        }
        if lift {
            affected.extend(self.faults.safe_mode.iter().copied());
        }
        if affected.is_empty() {
            return;
        }
        // Strip every affected ingress up front so no frozen entry sits
        // on a zero-capacity switch during the restricted sub-solves.
        for l in &affected {
            placement.remove_ingress(*l);
        }
        let targets: Vec<EntryPortId> = affected.iter().copied().collect();
        // Tier 1: one batched restricted re-solve of the affected set.
        if let Some(state) = self.restricted(instance, placement, &targets, &excluded) {
            (*instance, *placement) = state;
            for l in &targets {
                self.faults.safe_mode.remove(l);
            }
            return;
        }
        // Tier 2: full re-solve (outaged capacities are already zero).
        if let Ok(solved) = self.full_solve(instance) {
            *placement = solved;
            self.faults.safe_mode.clear();
            return;
        }
        // Tier 3: the delegation rung — detour through an off-route
        // neighbor with spare TCAM — then salvage; the rest go
        // fail-closed.
        for l in targets {
            if self.try_delegate(instance, placement, l, &excluded, torn) {
                self.faults.safe_mode.remove(&l);
            } else if let Some(state) = self.restricted(instance, placement, &[l], &excluded) {
                (*instance, *placement) = state;
                self.faults.safe_mode.remove(&l);
            } else {
                self.enter_safe_mode(l, placement);
            }
        }
    }

    /// The §IV-E restricted re-solve of `targets` on `instance` (every
    /// other placement frozen, `excluded` switches barred), or `None`
    /// when it is rejected or finds no placement.
    fn restricted(
        &self,
        instance: &Instance,
        placement: &Placement,
        targets: &[EntryPortId],
        excluded: &[SwitchId],
    ) -> Option<(Instance, Placement)> {
        let out = incremental::replace_ingresses(
            instance,
            placement,
            targets,
            excluded,
            &self.options.placement,
            self.options.objective.clone(),
        )
        .ok()?;
        Some((out.instance, out.placement?))
    }

    /// Picks a delegate for `ingress` against the load of `placement`
    /// and detours its routes through it: the delegation and the
    /// detoured instance, or `None` when no neighbor qualifies.
    fn plan_detour(
        &self,
        instance: &Instance,
        placement: &Placement,
        ingress: EntryPortId,
    ) -> Option<(Delegation, Instance)> {
        let load = placement.per_switch_load(instance);
        let capacities = instance.topology().capacities();
        let usable =
            |s: SwitchId| !self.faults.unmanageable.contains_key(&s) && self.dataplane.is_online(s);
        let spare =
            |s: SwitchId| usable(s) && load.get(s.0).copied().unwrap_or(0) < capacities[s.0];
        let d = delegate::plan_delegation(instance, ingress, &usable, &spare)?;
        let detoured = delegate::detour_instance(instance, ingress, &d)?;
        Some((d, detoured))
    }

    /// The delegation rung: detour `ingress`'s routes through an
    /// off-route neighbor with spare TCAM (the delegate) and re-solve
    /// just that ingress against the detoured instance, reaching
    /// capacity the on-route solver never could. Returns whether the
    /// ingress ended up placed. The delegation is only recorded when
    /// the solution actually uses the delegate; a solution that ignores
    /// it keeps the placement but drops the detour.
    fn try_delegate(
        &mut self,
        instance: &mut Instance,
        placement: &mut Placement,
        ingress: EntryPortId,
        excluded: &[SwitchId],
        torn: &BTreeSet<EntryPortId>,
    ) -> bool {
        if !self.options.delegation.enabled {
            return false;
        }
        let Some((d, detoured)) = self.plan_detour(instance, placement, ingress) else {
            return false;
        };
        let span = self.span_begin("ctrl.delegate");
        self.span_attr(span, "ingress", ingress.to_string());
        self.span_attr(span, "delegate", d.delegate.to_string());
        let solved = self.restricted(&detoured, placement, &[ingress], excluded);
        let placed = solved.is_some();
        if let Some((detoured, p)) = solved {
            if delegate::uses(&p, ingress, d.delegate) {
                *instance = detoured;
                self.stats.delegations += 1;
                if torn.contains(&ingress) {
                    self.stats.delegation_rehomes += 1;
                    self.note_delegate_event("rehomed");
                } else {
                    self.note_delegate_event("created");
                }
                self.faults.delegations.insert(ingress, d);
            } else {
                // The solver fit without the delegate: keep the
                // placement, roll the detour back unrecorded.
                *instance = delegate::restore_instance(&detoured, ingress, d.delegate);
            }
            *placement = p;
        }
        self.span_attr(
            span,
            "recorded",
            self.faults.delegations.contains_key(&ingress),
        );
        self.span_end(span);
        placed
    }

    /// Event-level delegation rescue: when a `CapacityChange` shrink is
    /// rejected by the dispatch ladder, delegate the victims (the
    /// ingresses placed on the shrunk switch, ascending) one by one
    /// until the shrunk instance fits again. `None` leaves the event
    /// rejected — the shrink still commits and the degradation ladder
    /// settles the overflow fail-closed.
    fn rescue_rejected(
        &mut self,
        event: &Event,
        instance: &Instance,
        placement: &Placement,
    ) -> Option<(Instance, Placement)> {
        let Event::CapacityChange { switch, capacity } = *event else {
            return None;
        };
        if !self.options.delegation.enabled
            || switch.0 >= instance.topology().switch_count()
            || self.faults.unmanageable.contains_key(&switch)
        {
            return None;
        }
        let excluded: Vec<SwitchId> = self.faults.unmanageable.keys().copied().collect();
        let mut inst = instance.clone();
        inst.set_capacity(switch, capacity);
        let mut p = placement.clone();
        // Victims: ingresses with entries on the shrunk switch, minus
        // the already-delegated (their detours are live in `inst`).
        let victims: BTreeSet<EntryPortId> = p
            .iter()
            .filter(|(_, sw)| sw.contains(&switch))
            .map(|((l, _), _)| *l)
            .filter(|l| !self.faults.delegations.contains_key(l))
            .collect();
        if victims.is_empty() {
            return None;
        }
        let span = self.span_begin("ctrl.delegate.rescue");
        self.span_attr(span, "switch", switch.to_string());
        let mut planned: Vec<(EntryPortId, Delegation)> = Vec::new();
        let mut rescued: Option<(Instance, Placement)> = None;
        for l in victims {
            // Plan against the still-placed state: the delegate is off
            // the victim's routes, so its headroom is what matters.
            let Some((d, detoured)) = self.plan_detour(&inst, &p, l) else {
                continue;
            };
            inst = detoured;
            p.remove_ingress(l);
            planned.push((l, d));
            let targets: Vec<EntryPortId> = planned.iter().map(|(l, _)| *l).collect();
            if let Some((mut ni, np)) = self.restricted(&inst, &p, &targets, &excluded) {
                // It fits again: record the delegations the solution
                // uses, roll back the detours it ignored.
                for (l, d) in &planned {
                    if delegate::uses(&np, *l, d.delegate) {
                        self.faults.delegations.insert(*l, d.clone());
                        self.stats.delegations += 1;
                        self.note_delegate_event("created");
                    } else {
                        ni = delegate::restore_instance(&ni, *l, d.delegate);
                    }
                }
                rescued = Some((ni, np));
                break;
            }
        }
        self.span_attr(span, "rescued", rescued.is_some());
        self.span_end(span);
        rescued
    }

    /// Bumps the `ctrl.delegate.events` obs counter for one lifecycle
    /// transition (`created`, `rehomed`, `torn-down`, `undelegated`).
    fn note_delegate_event(&self, kind: &str) {
        if let Some(o) = &self.obs {
            o.metrics
                .counter_add_with("ctrl.delegate.events", &[("kind", kind)], 1);
        }
    }

    /// Builds the dataplane target from the working placement's emitted
    /// (and verified) `tables` under the current outages: out-of-service
    /// switches keep their actual contents (no ops can reach them) and
    /// every safe-mode ingress gets a maximum-priority drop-all fence at
    /// the first manageable switch of each of its routes. A route with
    /// no manageable switch is fenced at the controller-owned entry port
    /// instead (no TCAM entry).
    fn build_target(&self, instance: &Instance, tables: &[SwitchTable]) -> Vec<Vec<TableEntry>> {
        let mut target = DataPlane::target_from_tables(tables);
        target.resize(self.dataplane.switch_count(), Vec::new());
        for s in self.faults.unmanageable.keys() {
            target[s.0] = self.dataplane.switch(*s).entries().to_vec();
        }
        // Membership-only dedup (never iterated): unordered FNV set.
        let mut fenced: FnvHashSet<(SwitchId, EntryPortId)> = FnvHashSet::default();
        for route in instance.routes().iter() {
            if !self.faults.safe_mode.contains(&route.ingress) {
                continue;
            }
            let Some(&s) = route
                .switches
                .iter()
                .find(|s| !self.faults.unmanageable.contains_key(s))
            else {
                continue; // fenced at the entry port
            };
            if !fenced.insert((s, route.ingress)) {
                continue;
            }
            let width = instance
                .policy(route.ingress)
                .map(|p| p.width())
                .unwrap_or(1)
                .max(1);
            target[s.0].push(TableEntry {
                priority: u32::MAX,
                tags: BTreeSet::from([route.ingress]),
                match_field: Ternary::new(width, 0, 0),
                action: Action::Drop,
            });
        }
        // Delegation stubs: a low-priority match-all PERMIT on each
        // manageable anchor models the TCAM slot the hardware redirect
        // rule occupies. A PERMIT forwards exactly like no-match, so a
        // stale stub can never flip a packet's fate, and the reserved
        // bank keeps it outside billable capacity.
        for (l, d) in &self.faults.delegations {
            let width = instance.policy(*l).map(|p| p.width()).unwrap_or(1).max(1);
            for a in &d.anchors {
                if self.faults.unmanageable.contains_key(a) || a.0 >= target.len() {
                    continue;
                }
                let stub = TableEntry {
                    priority: 0,
                    tags: BTreeSet::from([*l]),
                    match_field: Ternary::new(width, 0, 0),
                    action: Action::Permit,
                };
                if !target[a.0].contains(&stub) {
                    target[a.0].push(stub);
                }
            }
        }
        target
    }

    /// The commit pipeline of every epoch: degrade → emit → verify
    /// (failing an un-verifiable ingress closed instead of discarding the
    /// epoch) → capacity check on the target → fault-aware op-by-op apply
    /// → anti-entropy reconcile, looping until desired and actual state
    /// converge; with nothing fenced and no op failing the first round
    /// does. Termination is guaranteed: every round either converges,
    /// quarantines a switch (bounded by the switch count), or burns
    /// bounded patience before force-quarantining whatever still fails.
    fn commit(
        &mut self,
        epoch: u64,
        instance: &mut Instance,
        placement: &mut Placement,
    ) -> Result<(ApplyReport, Vec<SwitchId>), CtrlError> {
        /// Reconcile rounds tolerated without progress before the
        /// still-failing switches are force-quarantined.
        const RECONCILE_ROUNDS: usize = 3;
        let mut total = ApplyReport::default();
        let mut newly_quarantined: Vec<SwitchId> = Vec::new();
        let mut patience = RECONCILE_ROUNDS;
        let mut rounds = 0usize;
        loop {
            rounds += 1;
            self.enforce_outage_capacities(instance);
            self.degrade(instance, placement, rounds == 1);
            // Emit once per verify iteration; the tables that pass are
            // the ones the target is built from.
            let tables = loop {
                let safe_mode = &self.faults.safe_mode;
                let verdict = emit_tables(instance, placement)
                    .map_err(verify::VerifyError::from)
                    .and_then(|tables| {
                        self.verified.verify(
                            instance,
                            &tables,
                            self.options.verify_packets,
                            epoch,
                            |r| !safe_mode.contains(&r.ingress),
                        )?;
                        Ok(tables)
                    });
                match verdict {
                    Ok(tables) => break tables,
                    Err(verify::VerifyError::Violation(v)) => {
                        self.stats.verify_failures += 1;
                        self.enter_safe_mode(v.ingress, placement);
                    }
                    Err(e) => {
                        self.stats.verify_failures += 1;
                        return Err(CtrlError::VerifyFailed {
                            epoch,
                            detail: e.to_string(),
                        });
                    }
                }
            };
            let target = self.build_target(instance, &tables);
            let mut capacities = instance.topology().capacities();
            for (s, outage) in &self.faults.unmanageable {
                // A switch that froze mid-transaction may hold
                // make-before-break overshoot we cannot clean up until
                // it is manageable again; tolerate the frozen
                // occupancy. `saved_capacity` keeps the true hardware
                // number for restore-on-recover.
                capacities[s.0] = outage
                    .saved_capacity
                    .max(self.dataplane.switch(*s).billable_occupancy());
            }
            // Eq. 3 before the first op: an over-capacity target is
            // refused with the hardware untouched.
            DataPlane::check_capacities(
                target.iter().map(Vec::as_slice),
                capacities.iter().copied(),
            )?;
            self.dataplane.set_capacities(&capacities);
            let diff = self.dataplane.diff_to(&target)?;
            if diff.is_empty() {
                return Ok((total, newly_quarantined));
            }
            if rounds == 1 {
                self.stats.diffs_applied += 1;
            } else {
                self.stats.reconcile_runs += 1;
                self.stats.reconcile_churn += diff.churn() as u64;
            }
            let (applied, tripped, failing) = self.apply_with_faults(&diff);
            total.installed += applied.installed;
            total.removed += applied.removed;
            total.peak_occupancy = total.peak_occupancy.max(applied.peak_occupancy);
            if tripped.is_empty() && failing.is_empty() {
                // Every op of a diff computed against the target landed:
                // converged by construction.
                return Ok((total, newly_quarantined));
            }
            if !tripped.is_empty() {
                newly_quarantined.extend(tripped);
                patience = RECONCILE_ROUNDS;
            } else {
                patience -= 1;
                if patience == 0 {
                    for s in failing {
                        self.quarantine(s);
                        newly_quarantined.push(s);
                    }
                    patience = RECONCILE_ROUNDS;
                }
            }
        }
    }

    /// Applies a diff op-by-op with retry/backoff and circuit breaking.
    /// Returns what was applied, the switches quarantined mid-apply, and
    /// the switches that failed ops without (yet) tripping the breaker.
    fn apply_with_faults(
        &mut self,
        diff: &RuleDiff,
    ) -> (ApplyReport, Vec<SwitchId>, Vec<SwitchId>) {
        let mut report = ApplyReport {
            installed: 0,
            removed: 0,
            peak_occupancy: (0..self.dataplane.switch_count())
                .map(|i| self.dataplane.switch(SwitchId(i)).occupancy())
                .max()
                .unwrap_or(0),
        };
        let mut tripped: Vec<SwitchId> = Vec::new();
        let mut failing: BTreeSet<SwitchId> = BTreeSet::new();
        // Make-before-break: every install is sent before any remove.
        let installs = diff.install.iter().map(|op| (op, true));
        let removes = diff.remove.iter().map(|op| (op, false));
        for ((s, e), install) in installs.chain(removes) {
            if self.faults.unmanageable.contains_key(s) {
                continue; // quarantined mid-apply: reconcile later
            }
            let landed = if install {
                self.install_with_retry(*s, e)
            } else {
                self.dataplane.remove(*s, e).is_ok()
            };
            let breaker = self.faults.breakers.entry(*s).or_default();
            if !landed {
                failing.insert(*s);
                if breaker.record_failure(self.options.quarantine_after) {
                    self.quarantine(*s);
                    tripped.push(*s);
                }
                continue;
            }
            breaker.record_success();
            if install {
                report.installed += 1;
                report.peak_occupancy = report
                    .peak_occupancy
                    .max(self.dataplane.switch(*s).occupancy());
                if e.is_safe_mode() {
                    self.stats.safe_mode_entries += 1;
                }
                if e.is_delegation_stub() {
                    self.stats.delegation_stub_entries += 1;
                }
            } else {
                report.removed += 1;
            }
        }
        let failing: Vec<SwitchId> = failing
            .into_iter()
            .filter(|s| !self.faults.unmanageable.contains_key(s))
            .collect();
        (report, tripped, failing)
    }

    /// One TCAM install with bounded-exponential-backoff retries on a
    /// virtual clock. Returns whether the entry landed.
    fn install_with_retry(&mut self, s: SwitchId, e: &TableEntry) -> bool {
        let retry = self.options.retry;
        for attempt in 0..retry.max_attempts.max(1) {
            if attempt > 0 {
                let delay = retry.delay_ms(attempt - 1);
                self.faults.clock.advance(delay);
                self.stats.backoff_ms += delay;
                self.stats.install_retries += 1;
                if let Some(o) = &self.obs {
                    o.metrics.observe("dataplane.backoff_ms", delay);
                }
            }
            if !self.faults.injector.install_allowed(s) {
                self.stats.faults_injected += 1;
                if let Some(o) = &self.obs {
                    o.metrics
                        .counter_add_with("faults.injected", &[("kind", "install-reject")], 1);
                }
                continue;
            }
            return self.dataplane.install(s, e).is_ok();
        }
        false
    }

    /// Audits the deployed dataplane against the fail-closed invariant:
    /// on every live route, any packet the ingress policy drops is also
    /// dropped by the *actual* TCAM contents — stale entries on
    /// quarantined switches included, since those still forward. Routes
    /// through crashed switches carry no traffic, and a safe-mode route
    /// with no manageable switch is fenced at the controller-owned entry
    /// port; both are exempt. Extra drops are fine (degraded, never
    /// permissive); only a drop that leaks as a permit is a violation.
    ///
    /// # Errors
    ///
    /// A description of the first leaking packet.
    pub fn fail_closed_audit(&self) -> Result<(), String> {
        let tables: Vec<SwitchTable> = (0..self.dataplane.switch_count())
            .map(|i| {
                SwitchTable::from_entries(self.dataplane.switch(SwitchId(i)).entries().to_vec())
            })
            .collect();
        verify::verify_tables(
            &self.instance,
            &tables,
            self.options.verify_packets,
            self.epochs.current(),
            VerifyMode::NoFalseNegatives,
            |route| self.carries_traffic(route),
        )
        .map_err(|e| e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowplace_acl::{Action, Policy, Rule, Ternary};
    use flowplace_topo::SwitchId;

    fn t(bits: &str) -> Ternary {
        Ternary::parse(bits).unwrap()
    }

    fn small_controller(capacity: usize) -> Controller {
        let mut topo = Topology::linear(3);
        topo.set_uniform_capacity(capacity);
        Controller::new(topo, CtrlOptions::default())
    }

    fn install(ingress: usize, egress: usize, switches: &[usize]) -> Event {
        Event::InstallPolicy {
            ingress: EntryPortId(ingress),
            policy: Policy::from_rules(vec![
                Rule::new(t("10**"), Action::Drop, 2),
                Rule::new(t("****"), Action::Permit, 1),
            ])
            .unwrap(),
            routes: vec![Route::new(
                EntryPortId(ingress),
                EntryPortId(egress),
                switches.iter().map(|&s| SwitchId(s)).collect(),
            )],
        }
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
        let mut topo = Topology::linear(3);
        topo.set_uniform_capacity(10);
        let mut ctrl = Controller::new(
            topo,
            CtrlOptions {
                cache: CacheConfig::parse_spec("4").unwrap(),
                ..CtrlOptions::default()
            },
        );
        ctrl.submit(install(0, 2, &[0, 1, 2])).unwrap();
        ctrl.run_to_idle().unwrap();
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
    fn cache_survives_epoch_resync() {
        let mut topo = Topology::linear(3);
        topo.set_uniform_capacity(10);
        let mut ctrl = Controller::new(
            topo,
            CtrlOptions {
                cache: CacheConfig::parse_spec("4").unwrap(),
                ..CtrlOptions::default()
            },
        );
        ctrl.submit(install(0, 2, &[0, 1, 2])).unwrap();
        ctrl.run_to_idle().unwrap();
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
        ctrl.submit(Event::InstallPolicy {
            ingress: EntryPortId(0),
            policy: Policy::from_rules(vec![
                Rule::new(t("10**"), Action::Permit, 2),
                Rule::new(t("1***"), Action::Drop, 1),
            ])
            .unwrap(),
            routes: vec![Route::new(
                EntryPortId(0),
                EntryPortId(2),
                vec![SwitchId(0), SwitchId(1), SwitchId(2)],
            )],
        })
        .unwrap();
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
        let spans = obs.spans.spans();
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
        flowplace_obs::validate_obs_json(&obs.trace_json()).expect("trace validates");
        flowplace_obs::validate_obs_json(&obs.metrics_json()).expect("metrics validate");
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
        let mut topo = Topology::linear(3);
        topo.set_uniform_capacity(10);
        let mut ctrl = Controller::new(topo, fault_options("@2 fault crash s1"));
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
        let mut topo = Topology::linear(3);
        topo.set_uniform_capacity(10);
        let mut ctrl = Controller::new(topo, fault_options("fault install-reject s0 2"));
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
        let mut topo = Topology::linear(3);
        topo.set_uniform_capacity(10);
        let options = CtrlOptions {
            quarantine_after: 2,
            retry: RetryPolicy {
                max_attempts: 2,
                ..RetryPolicy::default()
            },
            ..fault_options("fault install-reject s0 10000")
        };
        let mut ctrl = Controller::new(topo, options);
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
            retry: RetryPolicy {
                max_attempts: 1,
                ..RetryPolicy::default()
            },
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
        let mut topo = Topology::linear(3);
        topo.set_uniform_capacity(10);
        let mut ctrl = Controller::new(topo, fault_options("@2 fault capacity s1 1"));
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
            let mut topo = Topology::linear(3);
            topo.set_uniform_capacity(8);
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
            let mut ctrl = Controller::new(topo, options);
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
        Event::InstallPolicy {
            ingress: EntryPortId(ingress),
            policy: Policy::from_rules(rules).unwrap(),
            routes: vec![Route::new(
                EntryPortId(ingress),
                EntryPortId(egress),
                switches.iter().map(|&s| SwitchId(s)).collect(),
            )],
        }
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
            .spans()
            .iter()
            .any(|s| s.name == "ctrl.delegate.rescue"));
        flowplace_obs::validate_obs_json(&obs.trace_json()).expect("trace validates");
        flowplace_obs::validate_obs_json(&obs.metrics_json()).expect("metrics validate");
    }
}
