//! Sharded multi-tenant controller runtime.
//!
//! A [`ShardedController`] partitions ingress policies (tenants) across
//! `N` shards and runs the controller's epoch/event loop over the
//! partition, with a deterministic cross-shard coordination step after
//! every epoch. The headline contract is *byte-identity*: for any event
//! stream, the sharded controller's placements, [`CtrlStats`], and obs
//! dumps are byte-identical to the unsharded [`Controller`] on the same
//! stream, at any shard count (`tests/shard_differential.rs` pins this
//! over 32 seeds × N ∈ {1, 2, 4, 8}, chaos matrix included).
//!
//! ## Determinism recipe
//!
//! The recipe extends `flowplace_core::par`'s spawn-order merge rule
//! from solve fan-out to the control plane:
//!
//! 1. **Partition** — an ingress's shard is a pure function of the
//!    [`ShardSpec`]: an explicit override, else a stable FNV hash of
//!    the ingress id modulo the shard count. No load balancing, no
//!    arrival-order dependence.
//! 2. **Authoritative interleaving** — events execute in global arrival
//!    order through the *same* controller code path as unsharded;
//!    intra-shard order is arrival order, and cross-shard interleaving
//!    is resolved by the global sequence, never by shard readiness.
//! 3. **Coordination in shard-id order** — after each epoch the
//!    coordinator bills TCAM capacity and cross-shard merge savings by
//!    walking shards in ascending shard id (the arbiter below).
//!
//! ## Where sharding pays: slice-scoped verification
//!
//! Each epoch ends with a golden-model verification sweep, which is the
//! dominant per-epoch cost on realistic tenancies (the deterministic
//! packet set is quadratic in policy size). The shard runtime scopes
//! that sweep: a route is re-verified in full only when its
//! *verification inputs* changed — an event touched its shard, the
//! epoch ran the resilient pipeline, the shard's policies/routes
//! fingerprint moved, or the emitted table of a switch that route
//! traverses changed (a foreign update on a shared downstream switch
//! pulls exactly the routes through it back in, not the whole shard).
//! Clean routes are checked against only their per-epoch
//! seeded random packets ([`flowplace_core::verify::verify_tables_scoped`]);
//! the deterministic verdict is implied by purity, so the result —
//! including which violation would be reported first — is byte-identical
//! to the full sweep. Finer partitions invalidate less per event, which
//! is why event throughput scales with the shard count, up to the
//! tenant count, even on one core (DESIGN.md §17).
//!
//! ## Capacity arbiter
//!
//! Every epoch the coordinator computes each shard's per-switch TCAM
//! *bid* (the entries its tenants occupy, with each cross-shard merged
//! entry billed once to the owner shard — the minimum shard id among
//! the group's members, the same rule as
//! [`flowplace_core::merge::shard_buckets`]) and grants bids in
//! shard-id order against the switch capacities. Two invariants hold on
//! every consistent epoch and are property-tested: the grants of all
//! shards sum to exactly the unsharded per-switch bill, and no switch
//! is ever granted beyond its capacity. A bid exceeding the remaining
//! budget means the placement itself over-subscribed a switch — the
//! condition [`capacity_pressure`](crate) already routes through the
//! resilient commit and the escalation ladder (restricted → full →
//! delegation → safe mode); the arbiter records it as an overgrant
//! alarm rather than granting it.

use std::collections::BTreeMap;
use std::time::Instant;

use flowplace_core::merge::{shard_buckets, ShardBucket};
use flowplace_core::tables::SwitchTable;
use flowplace_core::verify::{self, VerifyError, VerifyMode};
use flowplace_core::warm::{fingerprint_ingress, shard_fingerprint, Fingerprint};
use flowplace_core::{Instance, Placement};
use flowplace_fasthash::Fnv64;
use flowplace_obs::{Obs, ShardLabels};
use flowplace_topo::{EntryPortId, SwitchId, Topology};

use crate::{event_ingress, Controller, CtrlError, CtrlOptions, CtrlStats, EpochReport, Event};

/// How ingress policies map to shards: a stable FNV hash of the ingress
/// id modulo the shard count, overridable per ingress.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardSpec {
    shards: u32,
    overrides: BTreeMap<EntryPortId, u32>,
}

impl ShardSpec {
    /// A hash-partitioned spec with no overrides.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn new(shards: u32) -> ShardSpec {
        assert!(shards > 0, "shard count must be positive");
        ShardSpec {
            shards,
            overrides: BTreeMap::new(),
        }
    }

    /// Pins one ingress to an explicit shard.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range for this spec.
    pub fn with_override(mut self, ingress: EntryPortId, shard: u32) -> ShardSpec {
        assert!(
            shard < self.shards,
            "override shard {shard} out of range for {} shards",
            self.shards
        );
        self.overrides.insert(ingress, shard);
        self
    }

    /// The shard count.
    pub fn shards(&self) -> u32 {
        self.shards
    }

    /// The explicit overrides, in ingress order.
    pub fn overrides(&self) -> impl Iterator<Item = (EntryPortId, u32)> + '_ {
        self.overrides.iter().map(|(&l, &s)| (l, s))
    }

    /// The shard owning `ingress`: its override if pinned, else the
    /// stable FNV hash of the ingress id modulo the shard count.
    pub fn shard_of(&self, ingress: EntryPortId) -> u32 {
        if let Some(&s) = self.overrides.get(&ingress) {
            return s;
        }
        let mut h = Fnv64::new();
        h.usize(ingress.0);
        (h.finish() % u64::from(self.shards)) as u32
    }

    /// Parses a CLI shard spec: `N` (hash partition over N shards) or
    /// `N:l0=2,l7=0` with explicit per-ingress overrides (ingresses
    /// accept both the `l3` display form and bare indices).
    ///
    /// # Errors
    ///
    /// A human-readable reason naming the offending token and the whole
    /// spec (the `--cache` parse_spec convention).
    pub fn parse_spec(spec: &str) -> Result<ShardSpec, String> {
        if spec.is_empty() {
            return Err("empty shards spec (want N or N:l0=2,l7=0)".into());
        }
        let (count, overrides) = match spec.split_once(':') {
            None => (spec, ""),
            Some((count, overrides)) => (count, overrides),
        };
        // Reject zero before parsing so "0" and "00" get the positivity
        // message, not a generic parse failure.
        if !count.is_empty() && count.bytes().all(|b| b == b'0') {
            return Err(format!(
                "shard count must be positive, got {count:?} in {spec:?}"
            ));
        }
        let shards: u32 = count.parse().map_err(|_| {
            format!("bad shard count {count:?} in {spec:?} (want a positive integer)")
        })?;
        if shards == 0 {
            return Err(format!(
                "shard count must be positive, got {count:?} in {spec:?}"
            ));
        }
        let mut parsed = ShardSpec::new(shards);
        if overrides.is_empty() {
            return Ok(parsed);
        }
        for token in overrides.split(',') {
            let Some((ingress, shard)) = token.split_once('=') else {
                return Err(format!(
                    "bad override {token:?} in {spec:?} (want INGRESS=SHARD)"
                ));
            };
            let digits = ingress.strip_prefix('l').unwrap_or(ingress);
            let ingress: usize = digits
                .parse()
                .map_err(|_| format!("bad override ingress {token:?} in {spec:?}"))?;
            let shard: u32 = shard
                .parse()
                .map_err(|_| format!("bad override shard {token:?} in {spec:?}"))?;
            if shard >= shards {
                return Err(format!(
                    "override shard out of range in {token:?} (spec {spec:?} has {shards} shards)"
                ));
            }
            parsed.overrides.insert(EntryPortId(ingress), shard);
        }
        Ok(parsed)
    }
}

/// Cumulative slice-scoped verification accounting, exposed for tests
/// and the shard benchmark. These counters live *outside* [`CtrlStats`]
/// — the whole point is that the inner controller's observables stay
/// byte-identical to an unsharded run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShardVerifyCounters {
    /// Scoped verification sweeps run (atomic commits).
    pub sweeps: u64,
    /// Slice-epochs verified in full (dirty or fingerprint-moved).
    pub slices_full: u64,
    /// Slice-epochs passed on the random-packet check only.
    pub slices_clean: u64,
    /// Routes whose deterministic packet set was skipped.
    pub routes_skipped: u64,
    /// Routes verified in full.
    pub routes_full: u64,
}

/// Per-shard verification-input state: conservative dirty flags plus
/// the fingerprints of the last verified pass.
#[derive(Clone, Debug)]
pub(crate) struct ShardVerifyState {
    spec: ShardSpec,
    /// An event touched the shard (or a global event / resilient epoch
    /// touched everything) since the last verified pass.
    dirty: Vec<bool>,
    /// Per-switch emitted-table fingerprints at the last verified pass.
    verified_tables: BTreeMap<SwitchId, u64>,
    /// Per-shard policy+route slice fingerprints at the last verified
    /// pass (salted per shard, see `warm::shard_fingerprint`).
    verified_slices: Vec<Option<Fingerprint>>,
    counters: ShardVerifyCounters,
}

/// FNV over one emitted switch table: tags, match, action, priority,
/// and contributors of every entry, in the emitter's deterministic
/// order.
fn table_fingerprint(table: &SwitchTable) -> u64 {
    let mut h = Fnv64::new();
    h.usize(table.len());
    for e in table.entries() {
        h.usize(e.tags.len());
        for t in &e.tags {
            h.usize(t.0);
        }
        h.u128(e.match_field.care());
        h.u128(e.match_field.value());
        h.bool(e.action.is_drop());
        h.u64(u64::from(e.priority));
        h.usize(e.contributors.len());
        for (l, r) in &e.contributors {
            h.usize(l.0);
            h.usize(r.0);
        }
    }
    h.finish()
}

impl ShardVerifyState {
    pub(crate) fn new(spec: ShardSpec) -> ShardVerifyState {
        let n = spec.shards() as usize;
        ShardVerifyState {
            spec,
            dirty: vec![true; n],
            verified_tables: BTreeMap::new(),
            verified_slices: vec![None; n],
            counters: ShardVerifyCounters::default(),
        }
    }

    pub(crate) fn counters(&self) -> ShardVerifyCounters {
        self.counters
    }

    /// Marks the shard an event touches dirty; events without an
    /// ingress (solve, capacity, faults, checkpoint/rollback) dirty
    /// every shard — their effects are not slice-local.
    pub(crate) fn note_event(&mut self, event: &Event) {
        match event_ingress(event) {
            Some(l) => {
                let s = self.spec.shard_of(l) as usize;
                self.dirty[s] = true;
            }
            None => self.dirty_all(),
        }
    }

    /// Conservative reset: the resilient pipeline mutates placement and
    /// instance outside the event stream (degradation, delegation,
    /// reconciliation), so nothing may be skipped afterwards.
    pub(crate) fn dirty_all(&mut self) {
        self.dirty.iter_mut().for_each(|d| *d = true);
    }

    /// The per-shard policy+route slice fingerprint of `instance`.
    fn slice_fingerprints(&self, instance: &Instance) -> Vec<Fingerprint> {
        let n = self.spec.shards() as usize;
        let mut hashers: Vec<Fnv64> = (0..n).map(|_| Fnv64::new()).collect();
        for (l, _) in instance.policies() {
            let s = self.spec.shard_of(l) as usize;
            hashers[s].u64(fingerprint_ingress(instance, l).0);
        }
        hashers
            .into_iter()
            .enumerate()
            .map(|(s, h)| shard_fingerprint(Fingerprint(h.finish()), s as u32))
            .collect()
    }

    /// The scoped equivalent of `verify::verify_placement` for the
    /// atomic commit gate, reusing the epoch's already-emitted tables.
    /// Byte-identical verdict to the full sweep (see the module docs);
    /// on success the pass's fingerprints become the next epoch's
    /// baseline.
    pub(crate) fn verify(
        &mut self,
        instance: &Instance,
        tables: &[SwitchTable],
        random_per_route: usize,
        seed: u64,
    ) -> Result<(), VerifyError> {
        let n = self.spec.shards() as usize;
        let table_fps: Vec<u64> = tables.iter().map(table_fingerprint).collect();
        let slice_fps = self.slice_fingerprints(instance);

        // A shard's slice is clean iff no event or resilient epoch
        // touched it and its policies and routes fingerprint-match the
        // last verified pass; a *route* may additionally skip only if
        // every switch table it traverses is byte-identical to that
        // pass (a foreign tenant's update can re-emit a table on a
        // shared downstream switch, which must pull exactly the routes
        // through it back into the full sweep — not the whole shard).
        let clean_shard: Vec<bool> = (0..n)
            .map(|s| !self.dirty[s] && self.verified_slices[s] == Some(slice_fps[s]))
            .collect();
        let clean_route: Vec<bool> = instance
            .routes()
            .iter()
            .map(|r| {
                clean_shard[self.spec.shard_of(r.ingress) as usize]
                    && r.switches
                        .iter()
                        .all(|&sw| self.verified_tables.get(&sw).copied() == Some(table_fps[sw.0]))
            })
            .collect();

        let result = verify::verify_tables_scoped(
            instance,
            tables,
            random_per_route,
            seed,
            VerifyMode::Exact,
            |_| true,
            |i, _| clean_route[i],
        );

        self.counters.sweeps += 1;
        for &clean in &clean_shard {
            if clean {
                self.counters.slices_clean += 1;
            } else {
                self.counters.slices_full += 1;
            }
        }
        let skipped = clean_route.iter().filter(|&&c| c).count() as u64;
        self.counters.routes_skipped += skipped;
        self.counters.routes_full += clean_route.len() as u64 - skipped;

        if result.is_ok() {
            self.verified_tables = table_fps
                .iter()
                .enumerate()
                .map(|(i, &fp)| (SwitchId(i), fp))
                .collect();
            self.verified_slices = slice_fps.into_iter().map(Some).collect();
            self.dirty.iter_mut().for_each(|d| *d = false);
        }
        result
    }
}

/// Per-epoch output of the deterministic capacity arbiter.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ShardArbiterReport {
    /// The committed epoch this report describes.
    pub epoch: u64,
    /// Per-shard, per-switch billable TCAM bids (cross-shard merged
    /// entries billed once, to the owner shard).
    pub bids: Vec<Vec<usize>>,
    /// Per-shard, per-switch grants, issued in shard-id order against
    /// the switch capacities.
    pub grants: Vec<Vec<usize>>,
    /// Bids that exceeded the remaining capacity budget (granted only
    /// up to the budget; the excess is the overgrant alarm).
    pub overgrants: u64,
}

impl ShardArbiterReport {
    /// Total entries granted per switch (sum over shards).
    pub fn granted_per_switch(&self) -> Vec<usize> {
        let switches = self.grants.first().map_or(0, Vec::len);
        let mut total = vec![0usize; switches];
        for shard in &self.grants {
            for (s, g) in shard.iter().enumerate() {
                total[s] += g;
            }
        }
        total
    }

    /// Total entries granted to one shard across all switches.
    pub fn granted_to(&self, shard: u32) -> usize {
        self.grants
            .get(shard as usize)
            .map_or(0, |v| v.iter().sum())
    }
}

/// Cumulative coordination-step accounting.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ShardCoordStats {
    /// Coordination steps run (one per committed epoch).
    pub epochs: u64,
    /// Events routed to a tenant shard, per shard.
    pub events_routed: Vec<u64>,
    /// Events without a tenant (solve, capacity, faults, snapshots) —
    /// these belong to the coordinator and dirty every slice.
    pub global_events: u64,
    /// Cumulative overgrant alarms (0 on every consistent run).
    pub overgrants: u64,
    /// Merge groups whose members span more than one shard, as of the
    /// last epoch.
    pub cross_shard_groups: usize,
    /// TCAM entries those cross-shard groups save, as of the last
    /// epoch.
    pub cross_shard_entries_saved: usize,
}

/// The sharded controller runtime: a deterministic partition of tenants
/// over an authoritative [`Controller`], plus the per-epoch
/// coordination step (capacity arbiter, cross-shard merge accounting,
/// per-shard telemetry). See the module docs for the determinism
/// recipe and the byte-identity contract.
#[derive(Clone, Debug)]
pub struct ShardedController {
    inner: Controller,
    spec: ShardSpec,
    labels: ShardLabels,
    coord: ShardCoordStats,
    last_arbiter: Option<ShardArbiterReport>,
    shard_obs: Option<Obs>,
    wall_telemetry: bool,
    /// Accumulated wall time driven into the shard obs virtual clock
    /// (microseconds) when wall telemetry is on.
    wall_us: u64,
}

impl ShardedController {
    /// Creates a sharded controller over a bare topology (the
    /// [`Controller::new`] analogue).
    pub fn new(topology: Topology, options: CtrlOptions, spec: ShardSpec) -> ShardedController {
        Self::from_controller(Controller::new(topology, options), spec)
    }

    /// Creates a sharded controller over a pre-built instance, solving
    /// and deploying it as epoch 1 (the [`Controller::with_instance`]
    /// analogue). The deploy runs *through* the shard runtime: its full
    /// verification pass seeds the fingerprint baselines, so the first
    /// post-deploy epoch already scopes verification to the shards its
    /// events touched instead of redundantly re-sweeping every route.
    ///
    /// # Errors
    ///
    /// See [`Controller::with_instance`].
    pub fn with_instance(
        instance: Instance,
        options: CtrlOptions,
        spec: ShardSpec,
    ) -> Result<ShardedController, CtrlError> {
        let inner = Controller::new(instance.topology().clone(), options);
        let mut sharded = Self::from_controller(inner, spec);
        sharded.inner.instance = instance;
        sharded
            .submit(Event::Solve)
            .expect("fresh queue accepts one event");
        sharded.run_to_idle()?;
        Ok(sharded)
    }

    /// Wraps an existing controller in the shard runtime. All slices
    /// start dirty, so the first epoch verifies everything in full.
    pub fn from_controller(mut inner: Controller, spec: ShardSpec) -> ShardedController {
        inner.shard_verify = Some(ShardVerifyState::new(spec.clone()));
        let n = spec.shards();
        ShardedController {
            inner,
            labels: ShardLabels::new(n),
            coord: ShardCoordStats {
                events_routed: vec![0; n as usize],
                ..ShardCoordStats::default()
            },
            spec,
            last_arbiter: None,
            shard_obs: None,
            wall_telemetry: false,
            wall_us: 0,
        }
    }

    /// The partition spec.
    pub fn spec(&self) -> &ShardSpec {
        &self.spec
    }

    /// The authoritative controller (placements, stats, dumps — the
    /// byte-identity surface).
    pub fn inner(&self) -> &Controller {
        &self.inner
    }

    /// Unwraps the authoritative controller.
    pub fn into_inner(self) -> Controller {
        self.inner
    }

    /// The deployed placement (delegates to the inner controller).
    pub fn placement(&self) -> &Placement {
        self.inner.placement()
    }

    /// The deployed instance (delegates to the inner controller).
    pub fn instance(&self) -> &Instance {
        self.inner.instance()
    }

    /// Controller statistics (delegates to the inner controller; these
    /// are byte-identical to an unsharded run).
    pub fn stats(&self) -> &CtrlStats {
        self.inner.stats()
    }

    /// Attaches an obs sink to the *inner* controller. The standard
    /// dumps stay byte-identical to an unsharded observed run; shard
    /// telemetry goes to [`attach_shard_obs`](Self::attach_shard_obs)
    /// instead.
    pub fn attach_obs(&mut self, obs: Obs) {
        self.inner.attach_obs(obs);
    }

    /// Attaches a separate sink for per-shard telemetry (`ctrl.shard*`
    /// spans, counters, and gauges). Kept apart from the inner sink so
    /// shard labels never perturb the standard dumps.
    pub fn attach_shard_obs(&mut self, obs: Obs) {
        self.shard_obs = Some(obs);
    }

    /// The shard telemetry sink, if attached.
    pub fn shard_obs(&self) -> Option<&Obs> {
        self.shard_obs.as_ref()
    }

    /// Drives wall-clock epoch latency into the shard obs virtual
    /// clock, in **microseconds** (`ctrl.shard.epoch` span durations
    /// become real latencies). Off by default: wall time is
    /// non-deterministic, so replay byte-identity tests leave this
    /// alone and the benchmark turns it on.
    pub fn set_wall_telemetry(&mut self, enabled: bool) {
        self.wall_telemetry = enabled;
    }

    /// Cumulative coordination accounting.
    pub fn coord_stats(&self) -> &ShardCoordStats {
        &self.coord
    }

    /// The last epoch's arbiter report, if any epoch has committed.
    pub fn last_arbiter(&self) -> Option<&ShardArbiterReport> {
        self.last_arbiter.as_ref()
    }

    /// Cumulative slice-scoped verification counters.
    pub fn verify_counters(&self) -> ShardVerifyCounters {
        self.inner
            .shard_verify
            .as_ref()
            .map(ShardVerifyState::counters)
            .unwrap_or_default()
    }

    /// Cross-shard merge buckets of the deployed placement, in shard-id
    /// order.
    pub fn merge_buckets(&self) -> Vec<ShardBucket> {
        shard_buckets(
            self.inner.placement().merge_groups(),
            self.spec.shards(),
            |l| self.spec.shard_of(l),
        )
    }

    /// Routes an event to its shard and enqueues it on the
    /// authoritative queue (global arrival order is the execution
    /// order, so queue accounting is byte-identical to unsharded).
    ///
    /// # Errors
    ///
    /// See [`Controller::submit`].
    pub fn submit(&mut self, event: Event) -> Result<(), CtrlError> {
        let shard = event_ingress(&event).map(|l| self.spec.shard_of(l));
        self.inner.submit(event)?;
        match shard {
            Some(s) => self.coord.events_routed[s as usize] += 1,
            None => self.coord.global_events += 1,
        }
        Ok(())
    }

    /// Runs one epoch through the authoritative loop, then the
    /// cross-shard coordination step.
    ///
    /// # Errors
    ///
    /// See [`Controller::run_epoch`].
    pub fn run_epoch(&mut self) -> Result<Option<EpochReport>, CtrlError> {
        let start = Instant::now();
        let result = self.inner.run_epoch();
        let elapsed_us = u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX);
        if let Ok(Some(report)) = &result {
            self.coordinate(report, elapsed_us);
        }
        result
    }

    /// Runs epochs until the queue drains.
    ///
    /// # Errors
    ///
    /// See [`Controller::run_epoch`].
    pub fn run_to_idle(&mut self) -> Result<Vec<EpochReport>, CtrlError> {
        let mut reports = Vec::new();
        while let Some(report) = self.run_epoch()? {
            reports.push(report);
        }
        Ok(reports)
    }

    /// Feeds a stream of events through the sharded controller,
    /// draining whenever backpressure would reject a submission (the
    /// [`Controller::replay`] semantics).
    ///
    /// # Errors
    ///
    /// See [`Controller::run_epoch`].
    pub fn replay(
        &mut self,
        events: impl IntoIterator<Item = Event>,
    ) -> Result<Vec<EpochReport>, CtrlError> {
        let mut reports = Vec::new();
        let capacity = self.inner.options().queue_capacity;
        for event in events {
            if self.inner.pending() >= capacity {
                reports.extend(self.run_to_idle()?);
            }
            self.submit(event)?;
        }
        reports.extend(self.run_to_idle()?);
        Ok(reports)
    }

    /// Parses a text trace (see [`crate::event`]) and replays it.
    ///
    /// # Errors
    ///
    /// See [`Controller::replay_trace`].
    pub fn replay_trace(&mut self, text: &str) -> Result<Vec<EpochReport>, CtrlError> {
        let events = crate::parse_trace(text)?;
        self.replay(events)
    }

    /// The deterministic cross-shard coordination step: capacity bids
    /// and grants in shard-id order, cross-shard merge accounting, and
    /// per-shard telemetry.
    fn coordinate(&mut self, report: &EpochReport, elapsed_us: u64) {
        let n = self.spec.shards() as usize;
        let instance = self.inner.instance();
        let placement = self.inner.placement();
        let switch_count = instance.topology().switch_count();

        // Billable bids: every placed (rule, switch) pair bills its
        // ingress's shard; each merge group then credits back all
        // members but one, keeping the single shared entry on the owner
        // shard (minimum shard id, first member in sorted order). By
        // construction the bids sum to `Placement::per_switch_load`.
        let mut bids: Vec<Vec<usize>> = vec![vec![0; switch_count]; n];
        for (&(l, _), switches) in placement.iter() {
            let shard = self.spec.shard_of(l) as usize;
            for s in switches {
                bids[shard][s.0] += 1;
            }
        }
        for g in placement.merge_groups() {
            let mut members: Vec<(u32, EntryPortId)> = g
                .members
                .iter()
                .map(|&(l, _)| (self.spec.shard_of(l), l))
                .collect();
            members.sort_unstable();
            for &(shard, _) in &members[1..] {
                bids[shard as usize][g.switch.0] -= 1;
            }
        }

        // Grants in shard-id order against the switch capacities.
        let capacities = instance.topology().capacities();
        let mut remaining = capacities.clone();
        let mut grants: Vec<Vec<usize>> = vec![vec![0; switch_count]; n];
        let mut overgrants = 0u64;
        for shard in 0..n {
            for s in 0..switch_count {
                let bid = bids[shard][s];
                let grant = bid.min(remaining[s]);
                if bid > remaining[s] {
                    overgrants += 1;
                }
                remaining[s] -= grant;
                grants[shard][s] = grant;
            }
        }

        let buckets = self.merge_buckets();
        self.coord.epochs += 1;
        self.coord.overgrants += overgrants;
        self.coord.cross_shard_groups = buckets.iter().map(|b| b.cross_shard_groups).sum();
        self.coord.cross_shard_entries_saved =
            buckets.iter().map(|b| b.cross_shard_entries_saved).sum();

        // Per-shard event counts for this epoch, from the report's
        // outcome list (injected fault events included).
        let mut epoch_events = vec![0u64; n];
        let mut epoch_global = 0u64;
        for (event, _) in &report.outcomes {
            match event_ingress(event) {
                Some(l) => epoch_events[self.spec.shard_of(l) as usize] += 1,
                None => epoch_global += 1,
            }
        }

        let arbiter = ShardArbiterReport {
            epoch: report.epoch,
            bids,
            grants,
            overgrants,
        };

        if let Some(o) = &self.shard_obs {
            let start_us = self.wall_us;
            if self.wall_telemetry {
                self.wall_us += elapsed_us;
            }
            o.spans.set_virtual_ms(start_us);
            let span = o.spans.begin("ctrl.shard.epoch");
            o.spans.attr(span, "epoch", report.epoch);
            o.spans.attr(span, "events", report.outcomes.len());
            o.spans.attr(span, "overgrants", overgrants);
            o.spans.set_virtual_ms(self.wall_us);
            o.spans.end(span);
            for (s, &routed) in epoch_events.iter().enumerate().take(n) {
                let labels = [("shard", self.labels.value(s as u32))];
                if routed > 0 {
                    o.metrics
                        .counter_add_with("ctrl.shard.events", &labels, routed);
                }
                o.metrics.gauge_set_with(
                    "ctrl.shard.granted",
                    &labels,
                    arbiter.granted_to(s as u32) as i64,
                );
            }
            if epoch_global > 0 {
                o.metrics
                    .counter_add("ctrl.shard.global_events", epoch_global);
            }
            o.metrics.gauge_set(
                "ctrl.shard.cross_groups",
                self.coord.cross_shard_groups as i64,
            );
            if overgrants > 0 {
                o.metrics.counter_add("ctrl.shard.overgrants", overgrants);
            }
        }

        self.last_arbiter = Some(arbiter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowplace_acl::{Action, Policy, Rule, Ternary};
    use flowplace_routing::Route;

    fn t(s: &str) -> Ternary {
        Ternary::parse(s).unwrap()
    }

    fn install(ingress: usize, switches: &[usize], rules: &[(&str, Action, u32)]) -> Event {
        Event::InstallPolicy {
            ingress: EntryPortId(ingress),
            policy: Policy::from_rules(
                rules
                    .iter()
                    .map(|&(m, a, p)| Rule::new(t(m), a, p))
                    .collect(),
            )
            .unwrap(),
            routes: vec![Route::new(
                EntryPortId(ingress),
                EntryPortId(ingress + 8),
                switches.iter().map(|&s| SwitchId(s)).collect(),
            )],
        }
    }

    fn sharded(shards: u32) -> ShardedController {
        let mut topo = Topology::linear(4);
        topo.set_uniform_capacity(16);
        ShardedController::new(topo, CtrlOptions::default(), ShardSpec::new(shards))
    }

    #[test]
    fn spec_parses_count_and_overrides() {
        let spec = ShardSpec::parse_spec("4").unwrap();
        assert_eq!(spec.shards(), 4);
        assert_eq!(spec.overrides().count(), 0);

        let spec = ShardSpec::parse_spec("4:l0=2,7=1").unwrap();
        assert_eq!(spec.shards(), 4);
        assert_eq!(spec.shard_of(EntryPortId(0)), 2);
        assert_eq!(spec.shard_of(EntryPortId(7)), 1);
    }

    #[test]
    fn spec_hash_partition_is_stable_and_in_range() {
        let spec = ShardSpec::new(4);
        for i in 0..64 {
            let s = spec.shard_of(EntryPortId(i));
            assert!(s < 4);
            assert_eq!(s, spec.shard_of(EntryPortId(i)), "hash must be pure");
        }
        // The FNV partition actually spreads tenants around.
        let used: std::collections::BTreeSet<u32> =
            (0..64).map(|i| spec.shard_of(EntryPortId(i))).collect();
        assert!(used.len() > 1, "all 64 tenants landed on one shard");
    }

    #[test]
    fn spec_parse_errors_name_the_offending_token() {
        for (spec, needle) in [
            ("", "empty shards spec"),
            ("0", "shard count must be positive"),
            ("00", "shard count must be positive"),
            ("nope", "bad shard count \"nope\""),
            ("4294967296", "bad shard count \"4294967296\""),
            ("-1", "bad shard count \"-1\""),
            ("4:l0", "bad override \"l0\""),
            ("4:l0=x", "bad override shard \"l0=x\""),
            ("4:lx=1", "bad override ingress \"lx=1\""),
            ("4:l0=9", "override shard out of range in \"l0=9\""),
        ] {
            let err = ShardSpec::parse_spec(spec).unwrap_err();
            assert!(
                err.contains(needle),
                "spec {spec:?}: error {err:?} should contain {needle:?}"
            );
            if !spec.is_empty() {
                assert!(
                    err.contains(&format!("{spec:?}")) || spec == "4:l0=9",
                    "spec {spec:?}: error {err:?} should quote the spec"
                );
            }
        }
    }

    #[test]
    fn arbiter_grants_sum_to_the_unsharded_bill() {
        let mut ctrl = sharded(2);
        ctrl.submit(install(
            0,
            &[0, 1],
            &[("11**", Action::Drop, 2), ("****", Action::Permit, 1)],
        ))
        .unwrap();
        ctrl.submit(install(
            1,
            &[2, 3],
            &[("00**", Action::Drop, 2), ("****", Action::Permit, 1)],
        ))
        .unwrap();
        ctrl.run_to_idle().unwrap();

        let arbiter = ctrl.last_arbiter().expect("an epoch committed");
        assert_eq!(arbiter.overgrants, 0);
        let bill = ctrl.placement().per_switch_load(ctrl.instance());
        assert_eq!(arbiter.granted_per_switch(), bill);
        let capacities = ctrl.instance().topology().capacities();
        for (granted, cap) in arbiter.granted_per_switch().iter().zip(&capacities) {
            assert!(granted <= cap, "arbiter granted beyond capacity");
        }
        assert!(ctrl.coord_stats().epochs > 0);
        assert_eq!(ctrl.coord_stats().events_routed, vec![1, 1]);
    }

    #[test]
    fn slice_scoped_verify_skips_untouched_shards() {
        let mut ctrl = sharded(2);
        // Pin the two tenants to different shards regardless of the
        // hash partition.
        let spec = ShardSpec::new(2)
            .with_override(EntryPortId(0), 0)
            .with_override(EntryPortId(1), 1);
        ctrl = ShardedController::from_controller(ctrl.into_inner(), spec);
        ctrl.submit(install(
            0,
            &[0, 1],
            &[("11**", Action::Drop, 2), ("****", Action::Permit, 1)],
        ))
        .unwrap();
        ctrl.submit(install(
            1,
            &[2, 3],
            &[("00**", Action::Drop, 2), ("****", Action::Permit, 1)],
        ))
        .unwrap();
        ctrl.run_to_idle().unwrap();
        let after_setup = ctrl.verify_counters();

        // Touch only tenant 0: tenant 1's slice is clean next epoch.
        ctrl.submit(Event::AddRule {
            ingress: EntryPortId(0),
            rule: Rule::new(t("1010"), Action::Drop, 3),
        })
        .unwrap();
        ctrl.run_to_idle().unwrap();
        let after_touch = ctrl.verify_counters();
        assert_eq!(
            after_touch.slices_clean - after_setup.slices_clean,
            1,
            "exactly tenant 1's slice should ride the clean path"
        );
        assert_eq!(after_touch.routes_skipped - after_setup.routes_skipped, 1);
    }

    #[test]
    fn sharded_replay_matches_unsharded_bytes() {
        let trace = "\
install-policy l0 via l2:s0-s1 rules 11**:drop:2,****:permit:1
install-policy l1 via l3:s2-s3 rules 00**:drop:2,****:permit:1
add-rule l0 1010 drop 3
add-rule l1 0101 drop 3
remove-rule l0 r0
solve
";
        let mut topo = Topology::linear(4);
        topo.set_uniform_capacity(16);
        let mut plain = Controller::new(topo.clone(), CtrlOptions::default());
        plain.attach_obs(Obs::new());
        plain.replay_trace(trace).unwrap();

        for shards in [1u32, 2, 4, 8] {
            let mut sharded = ShardedController::new(
                topo.clone(),
                CtrlOptions::default(),
                ShardSpec::new(shards),
            );
            sharded.attach_obs(Obs::new());
            sharded.attach_shard_obs(Obs::new());
            sharded.replay_trace(trace).unwrap();
            assert_eq!(plain.placement(), sharded.placement(), "N={shards}");
            assert_eq!(plain.stats(), sharded.stats(), "N={shards}");
            assert_eq!(
                plain.dataplane().dump(),
                sharded.inner().dataplane().dump(),
                "N={shards}"
            );
            let (po, so) = (plain.obs().unwrap(), sharded.inner().obs().unwrap());
            assert_eq!(po.trace_json(), so.trace_json(), "N={shards}");
            assert_eq!(po.metrics_json(), so.metrics_json(), "N={shards}");
        }
    }

    #[test]
    fn overgrant_fires_exactly_on_capacity_pressure() {
        let mut ctrl = sharded(2);
        ctrl.submit(install(
            0,
            &[0, 1],
            &[("11**", Action::Drop, 2), ("****", Action::Permit, 1)],
        ))
        .unwrap();
        ctrl.run_to_idle().unwrap();
        assert_eq!(ctrl.coord_stats().overgrants, 0);

        // Shrink s0 below the deployed load: the shrink is committed
        // anyway (hardware lost the bank) and the ladder degrades
        // around it; any epoch that still sees load > capacity is
        // exactly an arbiter overgrant alarm.
        ctrl.submit(Event::CapacityChange {
            switch: SwitchId(0),
            capacity: 0,
        })
        .unwrap();
        ctrl.run_to_idle().unwrap();
        // After the ladder settles, grants are within capacity again.
        let arbiter = ctrl.last_arbiter().unwrap();
        let capacities = ctrl.instance().topology().capacities();
        for (granted, cap) in arbiter.granted_per_switch().iter().zip(&capacities) {
            assert!(granted <= cap);
        }
    }
}
