//! # flowplace-ctrl — the placement controller runtime
//!
//! The solver crates answer one-shot questions; this crate runs
//! placement as a long-lived controller. A [`Controller`] owns the
//! deployed [`Instance`] + [`Placement`] pair and a simulated
//! [`DataPlane`], consumes a bounded queue of typed [`Event`]s, and
//! commits them in batched *epochs*.
//!
//! One `impl Controller` block per stage of an epoch, each in its own
//! module: `ingest` (queue, epoch loop, fault injection), `ladder` (the
//! up to four [`Tier`]s an event climbs — greedy, restricted, full,
//! delegated — and degradation around outages), `commit` (the commit
//! pipeline and the fail-closed audit) and `flows` (the cache tier's
//! flow path).
//!
//! Every fault is drawn from a seeded RNG or a scripted schedule and
//! all time is virtual, so chaos runs replay byte-identically.

#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod cache;
mod commit;
pub mod dataplane;
pub mod delegate;
pub mod epoch;
pub mod event;
pub mod faults;
mod flows;
mod ingest;
mod ladder;
pub mod stats;
#[cfg(test)]
mod tests;

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;

use flowplace_core::tables::Emitter;
use flowplace_core::verify::VerifiedRoutes;
use flowplace_core::{Instance, Objective, Placement, PlacementOptions};
use flowplace_obs::{Obs, SpanId};
use flowplace_routing::RouteSet;
use flowplace_topo::{EntryPortId, SwitchId, Topology};

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
    /// The runs of the last commit-time emit, per ingress.
    emitter: Emitter,
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
            emitter: Emitter::default(),
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

    /// The emitter of the commit-time tables, with its rebuilt-ingress
    /// and digested-slice counts (kept out of [`CtrlStats`], whose
    /// export is byte-pinned).
    pub fn emitter(&self) -> &Emitter {
        &self.emitter
    }

    /// Drops the emitter's runs, so the next commit builds every
    /// ingress's from scratch. The tables, verdicts and every other
    /// observable stay what they would have been: runs are reused only
    /// on content they equal.
    pub fn reset_emitter(&mut self) {
        self.emitter = Emitter::default();
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
    fn span_attr(&self, span: Option<SpanId>, key: &str, value: impl fmt::Display) {
        if let (Some(o), Some(id)) = (&self.obs, span) {
            o.spans.attr(id, key, value);
        }
    }

    /// Adds one to the counter `name` labelled `key` = `value` on the
    /// attached sink (no-op without one).
    fn count(&self, name: &str, key: &str, value: &str) {
        if let Some(o) = &self.obs {
            o.metrics.counter_add(name, &[(key, value)], 1);
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
                let entries = self.placement.iter().filter(|((pl, _), _)| pl == l);
                entries
                    .filter(|(_, sw)| sw.clone().any(|s| s == d.delegate))
                    .count()
            })
            .sum()
    }

    /// Current virtual time in milliseconds (advanced only by retry
    /// backoff, never by wall time — replays are deterministic).
    pub fn virtual_time_ms(&self) -> u64 {
        self.faults.clock.now_ms()
    }
}
