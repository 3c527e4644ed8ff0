//! The ladders: per-event escalation and per-epoch degradation.
//!
//! ## Escalation ladder
//!
//! Every mutating event is dispatched through up to four tiers,
//! stopping at the first that succeeds:
//!
//! 1. **Greedy** — the §IV-E incremental operations from
//!    [`flowplace_core::incremental`] (constant-ish work, no solver).
//! 2. **Restricted** — re-solve only the affected ingress's policy
//!    against the spare capacity left by every frozen placement.
//! 3. **Full** — re-solve the entire instance from scratch.
//! 4. **Delegated** — a capacity shrink the first three reject detours
//!    the shrunk switch's ingresses through off-route delegates.
//!
//! The ladder is written once: the first tier is the event's own §IV-E
//! operation, which hands back the edited instance whether or not it
//! placed it, and the two re-solves below run on that instance. A
//! policy install or a reroute starts at the restricted tier — that
//! *is* its §IV-E operation.

use std::collections::BTreeSet;

use flowplace_core::{incremental, par, Instance, Placement};
use flowplace_topo::{EntryPortId, SwitchId};

use crate::delegate::{self, Delegation};
use crate::{Controller, Event, Tier};

impl Controller {
    /// Dispatches one mutating event through the escalation ladder: the
    /// event's own §IV-E operation first — it hands back the edited
    /// instance whether or not it placed it — then a restricted re-solve
    /// of the touched ingress, then a full re-solve, both on that
    /// instance. Returns the updated working state and the tier that
    /// settled it, or a rejection reason (working state untouched).
    pub(crate) fn dispatch(
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
                    self.options.objective,
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
                    self.options.objective,
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
            if let Some((i, p)) = self.restricted(&out.instance, placement, &[ingress]) {
                return Ok((i, p, Tier::Restricted));
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
            self.options.objective,
            &self.options.placement,
            self.obs.as_ref(),
        );
        outcome
            .placement
            .ok_or_else(|| format!("full re-solve failed: {}", outcome.status))
    }

    /// Moves an ingress into safe mode: its placed entries are stripped
    /// (the drop-all fence replaces them in the dataplane target).
    pub(crate) fn enter_safe_mode(&mut self, ingress: EntryPortId, placement: &mut Placement) {
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
    pub(crate) fn degrade(
        &mut self,
        instance: &mut Instance,
        placement: &mut Placement,
        lift: bool,
    ) {
        // Torn-down ingresses seed the affected set; delegating one again
        // below counts as a re-home.
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
                self.stats.delegation_teardowns += 1;
                torn.insert(l);
                self.count("ctrl.delegate.events", "kind", "torn-down");
            } else if lift {
                let restored = delegate::restore_instance(instance, l, d.delegate);
                if let Some(state) = self.restricted(&restored, placement, &[l]) {
                    (*instance, *placement) = state;
                    self.faults.delegations.remove(&l);
                    self.stats.undelegations += 1;
                    self.count("ctrl.delegate.events", "kind", "undelegated");
                }
            }
        }
        let mut affected = torn.clone();
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
        if let Some(state) = self.restricted(instance, placement, &targets) {
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
            if self.try_delegate(instance, placement, l, &torn) {
                self.faults.safe_mode.remove(&l);
            } else if let Some(state) = self.restricted(instance, placement, &[l]) {
                (*instance, *placement) = state;
                self.faults.safe_mode.remove(&l);
            } else {
                self.enter_safe_mode(l, placement);
            }
        }
    }

    /// The §IV-E restricted re-solve of `targets` on `instance` (every
    /// other placement frozen), or `None` when it is rejected or finds
    /// no placement.
    fn restricted(
        &self,
        instance: &Instance,
        placement: &Placement,
        targets: &[EntryPortId],
    ) -> Option<(Instance, Placement)> {
        let out = incremental::replace_ingresses(
            instance,
            placement,
            targets,
            &self.options.placement,
            self.options.objective,
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
        torn: &BTreeSet<EntryPortId>,
    ) -> bool {
        if !self.options.delegation.enabled {
            return false;
        }
        let Some((d, detoured)) = self.plan_detour(instance, placement, ingress) else {
            return false;
        };
        let span = self.span_begin("ctrl.delegate");
        self.span_attr(span, "ingress", ingress);
        self.span_attr(span, "delegate", d.delegate);
        let solved = self.restricted(&detoured, placement, &[ingress]);
        let placed = solved.is_some();
        if let Some((detoured, p)) = solved {
            *instance = detoured;
            self.adopt_or_unwind(instance, &p, ingress, d, torn.contains(&ingress));
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
    pub(crate) fn rescue_rejected(
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
        self.span_attr(span, "switch", switch);
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
            if let Some((mut ni, np)) = self.restricted(&inst, &p, &targets) {
                // It fits again: record the delegations the solution
                // uses, roll back the detours it ignored.
                for (l, d) in planned {
                    self.adopt_or_unwind(&mut ni, &np, l, d, false);
                }
                rescued = Some((ni, np));
                break;
            }
        }
        self.span_attr(span, "rescued", rescued.is_some());
        self.span_end(span);
        rescued
    }

    /// Settles one planned delegation against the solved `placement`:
    /// when the solution uses the delegate, the delegation is recorded
    /// and counted (as a re-home if `rehome`); when the solver fit
    /// without it, the detour is rolled back out of `instance`
    /// unrecorded.
    fn adopt_or_unwind(
        &mut self,
        instance: &mut Instance,
        placement: &Placement,
        ingress: EntryPortId,
        d: Delegation,
        rehome: bool,
    ) {
        if !delegate::uses(placement, ingress, d.delegate) {
            *instance = delegate::restore_instance(instance, ingress, d.delegate);
            return;
        }
        self.stats.delegations += 1;
        if rehome {
            self.stats.delegation_rehomes += 1;
        }
        let kind = if rehome { "rehomed" } else { "created" };
        self.count("ctrl.delegate.events", "kind", kind);
        self.faults.delegations.insert(ingress, d);
    }
}
