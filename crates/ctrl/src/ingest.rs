//! Ingest: the bounded event queue, the epoch loop that drains it, and
//! the faults and switch events synthesized at an epoch's head.

use flowplace_core::Instance;
use flowplace_topo::{EntryPortId, SwitchId};

use crate::{
    parse_trace, Controller, CtrlError, EpochReport, Event, EventOutcome, FaultKind, Outage,
    OutageKind, Tier,
};

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

impl Controller {
    /// Enqueues an event.
    ///
    /// # Errors
    ///
    /// [`CtrlError::QueueFull`] when the bounded queue is at capacity;
    /// the rejection is counted in [`CtrlStats::events_rejected`](crate::CtrlStats::events_rejected).
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
            Err(e) => self.span_attr(span, "error", e),
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
            self.count("ctrl.events", "kind", event.label());
            let outcome = match &event {
                Event::Checkpoint => {
                    self.epochs.checkpoint(instance.clone(), placement.clone());
                    self.stats.checkpoints += 1;
                    EventOutcome::Checkpoint
                }
                Event::Rollback => match self.epochs.rollback() {
                    Some(snap) => {
                        // Policies, routes and placement come from the
                        // snapshot; capacities are the hardware's, so
                        // every switch keeps the one it has now.
                        let capacities = instance.topology().capacities();
                        instance = snap.instance;
                        for (s, capacity) in capacities.into_iter().enumerate() {
                            instance.set_capacity(SwitchId(s), capacity);
                        }
                        placement = snap.placement;
                        self.stats.rollbacks += 1;
                        EventOutcome::RolledBack {
                            to_epoch: snap.epoch,
                        }
                    }
                    None => self.reject("nothing to roll back".into()),
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
                        self.reject(format!("ingress {l} is in safe mode (degraded)"))
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
                                self.reject(reason)
                            }
                        },
                    },
                },
            };
            self.span_attr(event_span, "outcome", outcome.label());
            self.count("ctrl.outcomes", "outcome", outcome.label());
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
            Err(e) => self.span_attr(commit_span, "error", e),
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
    pub(crate) fn record_epoch_metrics(&self) {
        let Some(o) = &self.obs else { return };
        for i in 0..self.dataplane.switch_count() {
            let tcam = self.dataplane.switch(SwitchId(i));
            let tag = format!("s{i}");
            let labels = [("switch", tag.as_str())];
            o.metrics
                .gauge_set("tcam.occupancy", &labels, tcam.occupancy() as i64);
            o.metrics
                .gauge_set("tcam.capacity", &labels, tcam.capacity() as i64);
        }
        o.metrics
            .gauge_set("ctrl.queue_depth", &[], self.queue.len() as i64);
        let groups = self.placement.merge_groups();
        let saved: usize = groups
            .iter()
            .map(|g| g.members.len().saturating_sub(1))
            .sum();
        o.metrics
            .gauge_set("merge.groups", &[], groups.len() as i64);
        o.metrics
            .gauge_set("merge.entries_saved", &[], saved as i64);
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

    /// Parses a text trace (see [`event`](crate::event)) and replays it.
    ///
    /// # Errors
    ///
    /// [`CtrlError::Trace`] on parse failure, otherwise as
    /// [`replay`](Controller::replay).
    pub fn replay_trace(&mut self, text: &str) -> Result<Vec<EpochReport>, CtrlError> {
        let events = parse_trace(text)?;
        self.replay(events)
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
            self.count("faults.injected", "kind", kind.label());
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

    /// Refuses an event: counts it as failed and reports `reason`.
    fn reject(&mut self, reason: String) -> EventOutcome {
        self.stats.events_failed += 1;
        EventOutcome::Rejected { reason }
    }

    /// Handles [`Event::SwitchFail`]: the switch goes down, its TCAM is
    /// lost, and its capacity is zeroed in the working instance so every
    /// solver tier avoids it.
    fn on_switch_fail(&mut self, switch: SwitchId, instance: &mut Instance) -> EventOutcome {
        if switch.0 >= instance.topology().switch_count() {
            return self.reject(format!("unknown switch {switch}"));
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
            None => self.reject(format!("{switch} is not out of service")),
            Some(outage) => {
                self.stats.switch_recoveries += 1;
                self.dataplane.restore(switch);
                self.faults.breakers.entry(switch).or_default().reset();
                instance.set_capacity(switch, outage.saved_capacity);
                EventOutcome::SwitchRecovered { switch }
            }
        }
    }
}
