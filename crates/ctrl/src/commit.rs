//! The commit pipeline and the fail-closed audit.
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
//! during the transition. The controller keeps the runs of its last
//! emit ([`Emitter`](flowplace_core::tables::Emitter)), so an emit
//! rebuilds only the ingresses whose policy or placement share moved,
//! whatever moved them, and hands verify each table slice and its digest
//! without a re-index. It remembers which routes its last passing verify
//! covered ([`VerifiedRoutes`](flowplace_core::verify::VerifiedRoutes)),
//! so a verify pays the full packet set only for routes whose policy,
//! hops or tagged table entries changed; the verdict is that of the full
//! sweep. The diff still compares every switch's target with its
//! installed entries. With nothing fenced and no op failing, every
//! fault-tolerance step below is a no-op and the first round converges.
//!
//! - An ingress whose tables fail verification fails **closed**, alone:
//!   it enters safe mode (below) and the rest of the epoch commits. An
//!   `Err` is left for what no fence can repair — tables that cannot be
//!   emitted, or a target over capacity, which is refused before the
//!   first op with the hardware untouched.
//! - Rejected TCAM installs are retried with bounded exponential
//!   backoff on a [`faults::VirtualClock`](crate::faults::VirtualClock);
//!   a run of consecutive failures trips a per-switch circuit breaker and **quarantines**
//!   the switch (alive and forwarding, but unmanageable — its entries
//!   are treated as absent, which is pessimal-safe because a stale
//!   entry can only add drops, never permits, along a route).
//! - Crashed switches ([`Event::SwitchFail`](crate::Event::SwitchFail))
//!   lose their TCAM and forward nothing; routes through them carry no traffic.
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

use std::collections::BTreeSet;

use flowplace_core::tables::{Emission, SwitchTable, TableEntry};
use flowplace_core::verify::{self, VerifyMode};
use flowplace_core::{Instance, Placement};
use flowplace_fasthash::WordHashSet;
use flowplace_routing::Route;
use flowplace_topo::{EntryPortId, SwitchId};

use crate::{ApplyReport, Controller, CtrlError, DataPlane, Outage, OutageKind, RuleDiff};

impl Controller {
    /// Whether an epoch over this state owes a
    /// [`fail_closed_audit`](Controller::fail_closed_audit), the TCAMs
    /// being liable to differ from the emitted tables: faults can fire, a
    /// switch is out of reach, an ingress fenced, a route detoured, or a
    /// placed load exceeds its switch's capacity (after a committed-anyway
    /// shrink, until the ladder re-places or fences the overflow).
    pub(crate) fn audit_owed(&self, instance: &Instance, placement: &Placement) -> bool {
        let capacities = instance.topology().capacities();
        self.faults.injector.plan().is_active()
            || !self.faults.unmanageable.is_empty()
            || !self.faults.safe_mode.is_empty()
            || !self.faults.delegations.is_empty()
            || (placement.per_switch_load(instance).iter().zip(capacities)).any(|(l, c)| *l > c)
    }

    /// Marks a switch unmanageable with the breaker-tripped outage kind.
    fn quarantine(&mut self, switch: SwitchId) {
        if self.faults.unmanageable.contains_key(&switch) {
            return;
        }
        self.stats.quarantines += 1;
        self.count("ctrl.quarantine_transitions", "switch", &switch.to_string());
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
    pub(crate) fn enforce_outage_capacities(&self, instance: &mut Instance) {
        for &s in self.faults.unmanageable.keys() {
            instance.set_capacity(s, 0);
        }
    }

    /// Builds the dataplane target from the working placement's emitted
    /// (and verified) tables under the current outages, moving the
    /// entries out of `emission` rather than copying them: out-of-service
    /// switches keep their actual contents (no ops can reach them) and
    /// every safe-mode ingress gets a maximum-priority drop-all fence at
    /// the first manageable switch of each of its routes. A route with
    /// no manageable switch is fenced at the controller-owned entry port
    /// instead (no TCAM entry).
    fn build_target(&self, instance: &Instance, emission: Emission) -> Vec<Vec<TableEntry>> {
        let tables = emission.into_tables().into_iter();
        let mut target: Vec<Vec<TableEntry>> = tables.map(SwitchTable::into_entries).collect();
        target.resize(self.dataplane.switch_count(), Vec::new());
        for s in self.faults.unmanageable.keys() {
            target[s.0] = self.dataplane.switch(*s).entries().to_vec();
        }
        let width = |l: EntryPortId| instance.policy(l).map_or(1, |p| p.width()).max(1);
        // Membership-only dedup (never iterated): unordered word-hashed set.
        let mut fenced: WordHashSet<(SwitchId, EntryPortId)> = WordHashSet::default();
        // Whole set in `routes()` order: fences sharing a switch keep that order.
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
            let fence = TableEntry::safe_mode_fence(route.ingress, width(route.ingress));
            target[s.0].push(fence);
        }
        // Delegation stubs: a low-priority match-all PERMIT on each
        // manageable anchor models the TCAM slot the hardware redirect
        // rule occupies. A PERMIT forwards exactly like no-match, so a
        // stale stub can never flip a packet's fate, and the reserved
        // bank keeps it outside billable capacity.
        for (l, d) in &self.faults.delegations {
            for a in &d.anchors {
                if self.faults.unmanageable.contains_key(a) || a.0 >= target.len() {
                    continue;
                }
                let stub = TableEntry::delegation_stub(*l, width(*l));
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
    pub(crate) fn commit(
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
            let emission = loop {
                let safe_mode = &self.faults.safe_mode;
                let verdict = (self.emitter.emit(instance, placement))
                    .map_err(verify::VerifyError::from)
                    .and_then(|emission| {
                        self.verified.verify(
                            instance,
                            &emission,
                            self.options.verify_packets,
                            epoch,
                            |r| !safe_mode.contains(&r.ingress),
                        )?;
                        Ok(emission)
                    });
                match verdict {
                    Ok(emission) => break emission,
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
            let target = self.build_target(instance, emission);
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
                    o.metrics.observe("dataplane.backoff_ms", &[], delay);
                }
            }
            if !self.faults.injector.install_allowed(s) {
                self.stats.faults_injected += 1;
                self.count("faults.injected", "kind", "install-reject");
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
        self.audit_fail_closed(&tables)
    }

    /// Both fail-closed audits: `tables` checked one-sided on every route
    /// that carries traffic — not one a crashed switch on its path makes
    /// traffic-dead, nor a safe-mode route with no manageable switch,
    /// which is fenced at the controller-owned entry port.
    pub(crate) fn audit_fail_closed(&self, tables: &[SwitchTable]) -> Result<(), String> {
        let unmanageable = &self.faults.unmanageable;
        let carries_traffic = |route: &Route| {
            route.switches.iter().all(|&s| self.dataplane.is_online(s))
                && !(self.faults.safe_mode.contains(&route.ingress)
                    && route.switches.iter().all(|s| unmanageable.contains_key(s)))
        };
        verify::verify_tables(
            &self.instance,
            tables,
            self.options.verify_packets,
            self.epochs.current(),
            VerifyMode::NoFalseNegatives,
            carries_traffic,
        )
        .map_err(|e| e.to_string())
    }
}
