//! Simulated per-switch TCAM dataplane with transactional updates.
//!
//! Each epoch the controller emits the *target* tables for the new
//! placement, diffs them against what is deployed, and sends the
//! [`RuleDiff`] in diff order: all installs land before any delete
//! (make-before-break), so the no-false-negative guarantee of §IV-A
//! holds at every instant of the transition — a packet that should be
//! dropped is never permitted because its DROP rule (or a shield above
//! it) was momentarily absent. The price is transient occupancy above
//! the committed load, which the dataplane tracks as `peak_occupancy`;
//! only the *final* state must respect each switch's capacity. The
//! controller sends the ops one by one ([`DataPlane::install`] /
//! [`DataPlane::remove`]) once [`DataPlane::check_capacities`] has
//! passed the target; [`DataPlane::apply`] is the same transition as one
//! staged transaction, the reference the op-by-op form is tested against.
//!
//! Switches can also *fail*: [`DataPlane::crash`] takes a switch down
//! (it stops forwarding and its TCAM is lost) and [`DataPlane::restore`]
//! brings it back with a blank table. Control operations against a down
//! switch fail with [`DataPlaneError::SwitchDown`]. Safe-mode drop-all
//! entries (see [`TableEntry::is_safe_mode`]) occupy a reserved system
//! slot and are exempt from the capacity check, so the controller's
//! fail-closed fallback can never itself be infeasible.

use std::cmp::Ordering;
use std::fmt;

use flowplace_core::tables::{table_order, SwitchTable, TableEntry};
use flowplace_topo::SwitchId;

/// The table of one switch, kept in [`table_order`] so dumps are
/// deterministic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SwitchTcam {
    capacity: usize,
    entries: Vec<TableEntry>,
    online: bool,
}

impl Default for SwitchTcam {
    fn default() -> Self {
        SwitchTcam {
            capacity: 0,
            entries: Vec::new(),
            online: true,
        }
    }
}

impl SwitchTcam {
    /// Current number of installed entries (safe-mode slots included).
    pub fn occupancy(&self) -> usize {
        self.entries.len()
    }

    /// Entries that count against capacity (reserved system slots —
    /// safe-mode fences and delegation stubs — excluded).
    pub fn billable_occupancy(&self) -> usize {
        self.entries.iter().filter(|e| !e.is_reserved()).count()
    }

    /// Capacity in entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// False while the switch is crashed (not forwarding, TCAM lost).
    pub fn is_online(&self) -> bool {
        self.online
    }

    /// The installed entries, highest priority first.
    pub fn entries(&self) -> &[TableEntry] {
        &self.entries
    }
}

/// The delta between the deployed dataplane and a target table set.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RuleDiff {
    /// Entries to add, per switch.
    pub install: Vec<(SwitchId, TableEntry)>,
    /// Entries to delete, per switch.
    pub remove: Vec<(SwitchId, TableEntry)>,
}

impl RuleDiff {
    /// True when the diff changes nothing.
    pub fn is_empty(&self) -> bool {
        self.install.is_empty() && self.remove.is_empty()
    }

    /// Total entries touched (installs + removes) — the churn of the
    /// transition.
    pub fn churn(&self) -> usize {
        self.install.len() + self.remove.len()
    }
}

/// What a committed transaction did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ApplyReport {
    /// Entries installed.
    pub installed: usize,
    /// Entries removed.
    pub removed: usize,
    /// Highest per-switch occupancy reached *during* the transition
    /// (installs land before removes, so this can exceed the final
    /// occupancy and even the capacity).
    pub peak_occupancy: usize,
}

/// Error applying a [`RuleDiff`]; the dataplane is rolled back to its
/// pre-transaction state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DataPlaneError {
    /// A remove referenced an entry that is not installed.
    MissingEntry {
        /// The switch the delete targeted.
        switch: SwitchId,
        /// Rendered form of the missing entry.
        entry: String,
    },
    /// The *final* state of a switch exceeds its capacity.
    OverCapacity {
        /// The overfull switch.
        switch: SwitchId,
        /// Entries after the transaction.
        occupancy: usize,
        /// The switch's capacity.
        capacity: usize,
    },
    /// A diff referenced a switch the dataplane does not have.
    UnknownSwitch(SwitchId),
    /// A control operation targeted a crashed switch.
    SwitchDown(SwitchId),
    /// The dataplane (scripted or probabilistic fault) rejected an
    /// install. Retryable.
    InstallRejected {
        /// The switch that rejected the install.
        switch: SwitchId,
        /// Rendered form of the rejected entry.
        entry: String,
    },
}

impl fmt::Display for DataPlaneError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataPlaneError::MissingEntry { switch, entry } => {
                write!(f, "delete of absent entry on {switch}: {entry}")
            }
            DataPlaneError::OverCapacity {
                switch,
                occupancy,
                capacity,
            } => write!(
                f,
                "{switch} over capacity after commit: {occupancy}/{capacity}"
            ),
            DataPlaneError::UnknownSwitch(s) => write!(f, "diff references unknown switch {s}"),
            DataPlaneError::SwitchDown(s) => write!(f, "{s} is down"),
            DataPlaneError::InstallRejected { switch, entry } => {
                write!(f, "{switch} rejected install: {entry}")
            }
        }
    }
}

impl std::error::Error for DataPlaneError {}

/// The simulated network dataplane: one TCAM per switch.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DataPlane {
    switches: Vec<SwitchTcam>,
}

impl DataPlane {
    /// Creates an empty dataplane with the given per-switch capacities.
    pub fn new(capacities: Vec<usize>) -> Self {
        DataPlane {
            switches: capacities
                .into_iter()
                .map(|capacity| SwitchTcam {
                    capacity,
                    entries: Vec::new(),
                    online: true,
                })
                .collect(),
        }
    }

    /// Number of switches.
    pub fn switch_count(&self) -> usize {
        self.switches.len()
    }

    /// The TCAM of one switch.
    ///
    /// # Panics
    ///
    /// Panics if `s` is out of range.
    pub fn switch(&self, s: SwitchId) -> &SwitchTcam {
        &self.switches[s.0]
    }

    /// Total entries installed across all switches.
    pub fn total_occupancy(&self) -> usize {
        self.switches.iter().map(|s| s.entries.len()).sum()
    }

    /// Re-synchronizes per-switch capacities (after a `capacity` event).
    pub fn set_capacities(&mut self, capacities: &[usize]) {
        for (tcam, &c) in self.switches.iter_mut().zip(capacities) {
            tcam.capacity = c;
        }
    }

    /// Converts emitted [`SwitchTable`]s into target TCAM contents.
    pub fn target_from_tables(tables: &[SwitchTable]) -> Vec<Vec<TableEntry>> {
        tables.iter().map(|t| t.entries().to_vec()).collect()
    }

    /// Computes the diff that turns the deployed state into `target`.
    /// Entries are compared as multisets per switch. A switch whose
    /// target is its installed entries in the same order — every switch
    /// an epoch did not touch, since both sides are kept in
    /// [`table_order`] — is skipped with one slice comparison; equal
    /// sequences are equal multisets, so it adds no op either way.
    /// Any other switch merges its installed entries with its target
    /// sorted into [`table_order`], so its installs and removes come in
    /// table order and each install lands at the end of
    /// [`DataPlane::install`]'s table.
    ///
    /// # Errors
    ///
    /// [`DataPlaneError::UnknownSwitch`] if `target` has more switches
    /// than the dataplane.
    pub fn diff_to(&self, target: &[Vec<TableEntry>]) -> Result<RuleDiff, DataPlaneError> {
        if target.len() > self.switches.len() {
            return Err(DataPlaneError::UnknownSwitch(SwitchId(self.switches.len())));
        }
        let mut diff = RuleDiff::default();
        for (i, tcam) in self.switches.iter().enumerate() {
            let want = target.get(i).map(Vec::as_slice).unwrap_or(&[]);
            if want == tcam.entries {
                continue;
            }
            debug_assert!(tcam.entries.is_sorted_by(|a, b| table_order(a, b).is_le()));
            let mut want: Vec<&TableEntry> = want.iter().collect();
            want.sort_by(|a, b| table_order(a, b));
            let have = &tcam.entries;
            let (mut w, mut h) = (0, 0);
            while w < want.len() || h < have.len() {
                let order = match (want.get(w), have.get(h)) {
                    (Some(a), Some(b)) => table_order(a, b),
                    (Some(_), None) => Ordering::Less,
                    _ => Ordering::Greater,
                };
                if order.is_lt() {
                    diff.install.push((SwitchId(i), want[w].clone()));
                } else if order.is_gt() {
                    diff.remove.push((SwitchId(i), have[h].clone()));
                }
                w += usize::from(order.is_le());
                h += usize::from(order.is_ge());
            }
        }
        Ok(diff)
    }

    /// Applies a diff as one atomic transaction: every install lands
    /// before any delete, per-switch peak occupancy is recorded, and the
    /// final state must respect capacities. The transaction is *staged*
    /// — the ops run through [`DataPlane::install`] and
    /// [`DataPlane::remove`] on a copy of the dataplane, which is swapped
    /// in only after every operation and the commit check succeed, so a
    /// failure can never leave the dataplane half-applied.
    ///
    /// # Errors
    ///
    /// See [`DataPlaneError`]. On error the deployed state is untouched.
    pub fn apply(&mut self, diff: &RuleDiff) -> Result<ApplyReport, DataPlaneError> {
        let mut staged = self.clone();
        // Phase 1: install everything (make-before-break).
        for (s, e) in &diff.install {
            staged.install(*s, e)?;
        }
        let peak_occupancy = staged
            .switches
            .iter()
            .map(|t| t.entries.len())
            .max()
            .unwrap_or(0);
        // Phase 2: delete the obsolete entries.
        for (s, e) in &diff.remove {
            staged.remove(*s, e)?;
        }
        // Commit check: the final state must fit.
        Self::check_capacities(
            staged.switches.iter().map(|t| t.entries.as_slice()),
            staged.switches.iter().map(|t| t.capacity),
        )?;
        *self = staged;
        Ok(ApplyReport {
            installed: diff.install.len(),
            removed: diff.remove.len(),
            peak_occupancy,
        })
    }

    /// Installs one entry on one switch (fault-aware op-by-op path).
    /// No capacity check: transient over-occupancy is legal
    /// mid-transition; run [`DataPlane::check_capacities`] on the target
    /// before the first op.
    ///
    /// # Errors
    ///
    /// [`DataPlaneError::UnknownSwitch`] or [`DataPlaneError::SwitchDown`].
    pub fn install(&mut self, s: SwitchId, e: &TableEntry) -> Result<(), DataPlaneError> {
        let tcam = self
            .switches
            .get_mut(s.0)
            .ok_or(DataPlaneError::UnknownSwitch(s))?;
        if !tcam.online {
            return Err(DataPlaneError::SwitchDown(s));
        }
        // Where a sort would leave it: the table is kept in order.
        let at = tcam.entries.partition_point(|x| table_order(x, e).is_le());
        tcam.entries.insert(at, e.clone());
        Ok(())
    }

    /// Removes one entry from one switch (fault-aware op-by-op path).
    ///
    /// # Errors
    ///
    /// [`DataPlaneError::UnknownSwitch`], [`DataPlaneError::SwitchDown`],
    /// or [`DataPlaneError::MissingEntry`].
    pub fn remove(&mut self, s: SwitchId, e: &TableEntry) -> Result<(), DataPlaneError> {
        let tcam = self
            .switches
            .get_mut(s.0)
            .ok_or(DataPlaneError::UnknownSwitch(s))?;
        if !tcam.online {
            return Err(DataPlaneError::SwitchDown(s));
        }
        // The table is kept in `table_order`, a total order consistent
        // with `==`, so a binary search finds the entry itself.
        debug_assert!(tcam.entries.is_sorted_by(|a, b| table_order(a, b).is_le()));
        let Ok(pos) = tcam.entries.binary_search_by(|x| table_order(x, e)) else {
            return Err(DataPlaneError::MissingEntry {
                switch: s,
                entry: e.to_string(),
            });
        };
        tcam.entries.remove(pos);
        Ok(())
    }

    /// The Eq. 3 check on a table set, switch by switch in order: the
    /// entries that count against capacity (reserved slots do not) may
    /// not outnumber it. [`DataPlane::apply`] runs it on the staged
    /// result; an op-by-op commit, on the target before the first op.
    ///
    /// # Errors
    ///
    /// [`DataPlaneError::OverCapacity`] for the first overfull switch.
    pub fn check_capacities<'a>(
        tables: impl IntoIterator<Item = &'a [TableEntry]>,
        capacities: impl IntoIterator<Item = usize>,
    ) -> Result<(), DataPlaneError> {
        for (i, (entries, capacity)) in tables.into_iter().zip(capacities).enumerate() {
            let occupancy = entries.iter().filter(|e| !e.is_reserved()).count();
            if occupancy > capacity {
                return Err(DataPlaneError::OverCapacity {
                    switch: SwitchId(i),
                    occupancy,
                    capacity,
                });
            }
        }
        Ok(())
    }

    /// Crashes a switch: it goes offline and its TCAM contents are lost.
    /// Idempotent. Returns the number of entries lost.
    ///
    /// # Panics
    ///
    /// Panics if `s` is out of range.
    pub fn crash(&mut self, s: SwitchId) -> usize {
        let tcam = &mut self.switches[s.0];
        tcam.online = false;
        let lost = tcam.entries.len();
        tcam.entries.clear();
        lost
    }

    /// Brings a crashed switch back online with a blank TCAM.
    /// Idempotent.
    ///
    /// # Panics
    ///
    /// Panics if `s` is out of range.
    pub fn restore(&mut self, s: SwitchId) {
        self.switches[s.0].online = true;
    }

    /// True while switch `s` is online (not crashed).
    ///
    /// # Panics
    ///
    /// Panics if `s` is out of range.
    pub fn is_online(&self, s: SwitchId) -> bool {
        self.switches[s.0].online
    }

    /// TCAM bank failure: shrinks `s`'s capacity to `capacity` and
    /// evicts the lowest-priority entries that no longer fit (safe-mode
    /// fences and delegation stubs are in the reserved bank and always
    /// survive). Returns the number of entries lost.
    ///
    /// # Panics
    ///
    /// Panics if `s` is out of range.
    pub fn revoke_capacity(&mut self, s: SwitchId, capacity: usize) -> usize {
        let tcam = &mut self.switches[s.0];
        tcam.capacity = capacity;
        // Entries are sorted by descending priority, so survivors are
        // the reserved slots plus the first `capacity` billable ones.
        let mut kept = 0usize;
        let before = tcam.entries.len();
        tcam.entries.retain(|e| {
            if e.is_reserved() {
                return true;
            }
            kept += 1;
            kept <= capacity
        });
        before - tcam.entries.len()
    }

    /// Deterministic text dump of the whole dataplane. Identical
    /// deployed state always renders to identical bytes.
    pub fn dump(&self) -> String {
        use fmt::Write as _;
        let mut out = String::new();
        for (i, tcam) in self.switches.iter().enumerate() {
            let _ = writeln!(
                out,
                "{} cap={} occ={}{}",
                SwitchId(i),
                tcam.capacity,
                tcam.entries.len(),
                if tcam.online { "" } else { " down" }
            );
            for e in &tcam.entries {
                let _ = writeln!(out, "  {e}");
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowplace_acl::{Action, Ternary};
    use flowplace_core::tables::Tags;
    use flowplace_rng::{Rng, StdRng};
    use flowplace_topo::EntryPortId;
    use std::collections::BTreeMap;

    fn entry(priority: u32, bits: &str, action: Action) -> TableEntry {
        TableEntry {
            priority,
            tags: Tags::one(EntryPortId(0)),
            match_field: Ternary::parse(bits).unwrap(),
            action,
        }
    }

    #[test]
    fn diff_then_apply_reaches_target() {
        let mut dp = DataPlane::new(vec![4, 4]);
        let target = vec![
            vec![
                entry(2, "10**", Action::Drop),
                entry(1, "****", Action::Permit),
            ],
            vec![entry(1, "****", Action::Permit)],
        ];
        let diff = dp.diff_to(&target).unwrap();
        assert_eq!(diff.install.len(), 3);
        assert_eq!(diff.remove.len(), 0);
        let report = dp.apply(&diff).unwrap();
        assert_eq!(report.installed, 3);
        assert_eq!(dp.total_occupancy(), 3);
        // Applying the same target again is a no-op.
        let diff2 = dp.diff_to(&target).unwrap();
        assert!(diff2.is_empty());
    }

    /// Two switches deployed from `target`, which is returned.
    fn deployed() -> (DataPlane, Vec<Vec<TableEntry>>) {
        let mut dp = DataPlane::new(vec![4, 4]);
        let target = vec![
            vec![
                entry(3, "11**", Action::Drop),
                entry(2, "10**", Action::Permit),
                entry(1, "1***", Action::Drop),
            ],
            vec![entry(1, "0***", Action::Drop)],
        ];
        dp.apply(&dp.diff_to(&target).unwrap()).unwrap();
        (dp, target)
    }

    /// `remove` finds its entry by binary search: among entries of one
    /// priority side by side, it takes out exactly the one named, and
    /// an entry the table lacks is an error with the table untouched.
    #[test]
    fn remove_takes_the_named_entry_among_equal_priorities() {
        let mut dp = DataPlane::new(vec![16]);
        let s = SwitchId(0);
        let mut tagged = entry(2, "1***", Action::Drop);
        tagged.tags = Tags::one(EntryPortId(1));
        let same: Vec<TableEntry> = vec![
            entry(2, "0***", Action::Drop),
            entry(2, "1***", Action::Drop),
            entry(2, "1***", Action::Permit),
            tagged,
            entry(2, "10**", Action::Drop),
        ];
        let all: Vec<TableEntry> = (same.iter().cloned())
            .chain([
                entry(3, "1***", Action::Drop),
                entry(1, "1***", Action::Drop),
            ])
            .collect();
        for e in &all {
            dp.install(s, e).unwrap();
        }
        for gone in &all {
            let mut dp = dp.clone();
            dp.remove(s, gone).unwrap();
            let mut want = all.clone();
            want.retain(|e| e != gone);
            want.sort_by(table_order);
            assert_eq!(dp.switch(s).entries(), &want[..], "removing {gone}");
        }
        let missing = entry(2, "11**", Action::Drop);
        let mut kept = dp.clone();
        let err = kept.remove(s, &missing).unwrap_err();
        assert!(matches!(err, DataPlaneError::MissingEntry { .. }));
        assert_eq!(kept.switch(s).entries(), dp.switch(s).entries());
    }

    #[test]
    fn diff_to_the_installed_entries_is_empty_in_any_order() {
        let (dp, mut target) = deployed();
        assert_eq!(dp.switch(SwitchId(0)).entries(), &target[0][..]);
        assert!(dp.diff_to(&target).unwrap().is_empty());
        // The same multiset out of table order takes the merge path.
        target[0].reverse();
        assert!(dp.diff_to(&target).unwrap().is_empty());
    }

    #[test]
    fn one_entry_change_on_one_switch_is_one_op() {
        let (dp, target) = deployed();
        let extra = entry(2, "00**", Action::Permit);
        let mut grown = target.clone();
        grown[1].insert(0, extra.clone());
        let diff = dp.diff_to(&grown).unwrap();
        assert_eq!(diff.install, vec![(SwitchId(1), extra)]);
        assert!(diff.remove.is_empty());
        let mut shrunk = target;
        let gone = shrunk[0].remove(1);
        let diff = dp.diff_to(&shrunk).unwrap();
        assert!(diff.install.is_empty());
        assert_eq!(diff.remove, vec![(SwitchId(0), gone)]);
    }

    #[test]
    fn installs_land_before_deletes() {
        let mut dp = DataPlane::new(vec![2]);
        let old = vec![vec![entry(1, "0***", Action::Drop)]];
        dp.apply(&dp.diff_to(&old).unwrap()).unwrap();
        // Replace the single entry: transiently 2 entries, finally 1.
        let new = vec![vec![entry(1, "1***", Action::Drop)]];
        let report = dp.apply(&dp.diff_to(&new).unwrap()).unwrap();
        assert_eq!(report.peak_occupancy, 2);
        assert_eq!(dp.switch(SwitchId(0)).occupancy(), 1);
    }

    #[test]
    fn over_capacity_commit_rolls_back() {
        let mut dp = DataPlane::new(vec![1]);
        let one = vec![vec![entry(1, "0***", Action::Drop)]];
        dp.apply(&dp.diff_to(&one).unwrap()).unwrap();
        let two = vec![vec![
            entry(1, "0***", Action::Drop),
            entry(2, "1***", Action::Drop),
        ]];
        let err = dp.apply(&dp.diff_to(&two).unwrap()).unwrap_err();
        assert!(matches!(err, DataPlaneError::OverCapacity { .. }));
        // Rolled back: still exactly the old entry.
        assert_eq!(dp.switch(SwitchId(0)).occupancy(), 1);
    }

    #[test]
    fn missing_delete_rolls_back() {
        let mut dp = DataPlane::new(vec![4]);
        let diff = RuleDiff {
            install: vec![],
            remove: vec![(SwitchId(0), entry(1, "0***", Action::Drop))],
        };
        assert!(matches!(
            dp.apply(&diff),
            Err(DataPlaneError::MissingEntry { .. })
        ));
        assert_eq!(dp.total_occupancy(), 0);
    }

    #[test]
    fn failed_transaction_leaves_no_half_applied_state() {
        // The remove in this diff is bogus, but the installs before it
        // are fine — staging must discard them too, not just roll back
        // the failing op.
        let mut dp = DataPlane::new(vec![4, 4]);
        let seeded = vec![vec![entry(1, "0***", Action::Permit)]];
        dp.apply(&dp.diff_to(&seeded).unwrap()).unwrap();
        let before = dp.dump();
        let diff = RuleDiff {
            install: vec![
                (SwitchId(0), entry(3, "11**", Action::Drop)),
                (SwitchId(1), entry(2, "10**", Action::Drop)),
            ],
            remove: vec![(SwitchId(0), entry(9, "0101", Action::Drop))],
        };
        let err = dp.apply(&diff).unwrap_err();
        assert!(matches!(err, DataPlaneError::MissingEntry { .. }));
        assert_eq!(dp.dump(), before, "no install from the failed txn leaked");
    }

    #[test]
    fn crashed_switch_rejects_ops_and_loses_tcam() {
        let mut dp = DataPlane::new(vec![4]);
        let target = vec![vec![
            entry(2, "10**", Action::Drop),
            entry(1, "****", Action::Permit),
        ]];
        dp.apply(&dp.diff_to(&target).unwrap()).unwrap();
        assert_eq!(dp.crash(SwitchId(0)), 2, "both entries lost");
        assert!(!dp.is_online(SwitchId(0)));
        assert_eq!(dp.switch(SwitchId(0)).occupancy(), 0);
        assert!(dp.dump().contains(" down"));
        let e = entry(1, "0***", Action::Drop);
        assert_eq!(
            dp.install(SwitchId(0), &e),
            Err(DataPlaneError::SwitchDown(SwitchId(0)))
        );
        assert_eq!(
            dp.remove(SwitchId(0), &e),
            Err(DataPlaneError::SwitchDown(SwitchId(0)))
        );
        assert!(matches!(
            dp.apply(&RuleDiff {
                install: vec![(SwitchId(0), e.clone())],
                remove: vec![],
            }),
            Err(DataPlaneError::SwitchDown(_))
        ));
        dp.restore(SwitchId(0));
        assert!(dp.is_online(SwitchId(0)));
        assert_eq!(dp.switch(SwitchId(0)).occupancy(), 0, "blank after restore");
        dp.install(SwitchId(0), &e).unwrap();
        dp.remove(SwitchId(0), &e).unwrap();
    }

    #[test]
    fn capacity_revoke_evicts_lowest_priority_but_keeps_safe_mode() {
        let mut dp = DataPlane::new(vec![4]);
        let safe = TableEntry::safe_mode_fence(EntryPortId(0), 4);
        assert!(safe.is_safe_mode());
        dp.install(SwitchId(0), &safe).unwrap();
        dp.install(SwitchId(0), &entry(3, "11**", Action::Drop))
            .unwrap();
        dp.install(SwitchId(0), &entry(2, "10**", Action::Drop))
            .unwrap();
        dp.install(SwitchId(0), &entry(1, "****", Action::Permit))
            .unwrap();
        let lost = dp.revoke_capacity(SwitchId(0), 1);
        assert_eq!(lost, 2, "two lowest-priority billable entries evicted");
        let survivors = dp.switch(SwitchId(0)).entries();
        assert_eq!(survivors.len(), 2);
        assert!(survivors[0].is_safe_mode());
        assert_eq!(survivors[1].priority, 3);
    }

    #[test]
    fn safe_mode_slot_is_exempt_from_capacity() {
        let mut dp = DataPlane::new(vec![1]);
        let safe = TableEntry::safe_mode_fence(EntryPortId(0), 4);
        let diff = RuleDiff {
            install: vec![
                (SwitchId(0), safe),
                (SwitchId(0), entry(1, "0***", Action::Drop)),
            ],
            remove: vec![],
        };
        dp.apply(&diff).unwrap();
        assert_eq!(dp.switch(SwitchId(0)).occupancy(), 2);
        assert_eq!(dp.switch(SwitchId(0)).billable_occupancy(), 1);
    }

    #[test]
    fn delegation_stub_is_reserved_and_survives_revocation() {
        let stub = TableEntry::delegation_stub(EntryPortId(0), 4);
        assert!(stub.is_delegation_stub());
        assert!(stub.is_reserved());
        assert!(!stub.is_safe_mode());
        // A priority-0 wildcard DROP is a fence candidate, not a stub.
        let drop = TableEntry {
            action: Action::Drop,
            ..stub.clone()
        };
        assert!(!drop.is_delegation_stub());
        let mut dp = DataPlane::new(vec![1]);
        dp.install(SwitchId(0), &stub).unwrap();
        dp.install(SwitchId(0), &entry(2, "10**", Action::Drop))
            .unwrap();
        assert_eq!(dp.switch(SwitchId(0)).occupancy(), 2);
        assert_eq!(dp.switch(SwitchId(0)).billable_occupancy(), 1);
        // Revoking to zero evicts the billable entry but keeps the stub.
        assert_eq!(dp.revoke_capacity(SwitchId(0), 0), 1);
        let survivors = dp.switch(SwitchId(0)).entries();
        assert_eq!(survivors.len(), 1);
        assert!(survivors[0].is_delegation_stub());
    }

    /// The diff as a per-switch multiset count, `Ord` order within a
    /// switch: the reference the table-order merge must agree with.
    fn counting_diff(dp: &DataPlane, target: &[Vec<TableEntry>]) -> RuleDiff {
        let mut diff = RuleDiff::default();
        for i in 0..dp.switch_count() {
            let want = target.get(i).map(Vec::as_slice).unwrap_or(&[]);
            let mut counts: BTreeMap<&TableEntry, isize> = BTreeMap::new();
            for e in want {
                *counts.entry(e).or_default() += 1;
            }
            for e in dp.switch(SwitchId(i)).entries() {
                *counts.entry(e).or_default() -= 1;
            }
            for (e, n) in counts {
                let ops = if n > 0 {
                    &mut diff.install
                } else {
                    &mut diff.remove
                };
                ops.extend((0..n.abs()).map(|_| (SwitchId(i), e.clone())));
            }
        }
        diff
    }

    #[test]
    fn diff_to_merges_in_table_order() {
        let mut pool: Vec<TableEntry> = Vec::new();
        for priority in 1..4 {
            for bits in ["0***", "1***", "10**"] {
                for action in [Action::Drop, Action::Permit] {
                    pool.push(entry(priority, bits, action));
                }
            }
        }
        for ingress in [EntryPortId(0), EntryPortId(1)] {
            pool.push(TableEntry::safe_mode_fence(ingress, 4));
            pool.push(TableEntry::delegation_stub(ingress, 4));
        }
        let mut rng = StdRng::seed_from_u64(7);
        let table = |rng: &mut StdRng| -> Vec<TableEntry> {
            let len = rng.gen_range(0..12);
            (0..len)
                .map(|_| pool[rng.gen_range(0..pool.len())].clone())
                .collect()
        };
        for case in 0..300 {
            let mut dp = DataPlane::new(vec![64; 3]);
            let deployed: Vec<Vec<TableEntry>> = (0..3).map(|_| table(&mut rng)).collect();
            dp.apply(&dp.diff_to(&deployed).unwrap()).unwrap();
            let target: Vec<Vec<TableEntry>> =
                (0..rng.gen_range(0..4)).map(|_| table(&mut rng)).collect();
            let diff = dp.diff_to(&target).unwrap();
            for ops in [&diff.install, &diff.remove] {
                for pair in ops.windows(2) {
                    let ((s, a), (t, b)) = (&pair[0], &pair[1]);
                    assert!(
                        s < t || (s == t && table_order(a, b).is_le()),
                        "case {case}"
                    );
                }
            }
            let reference = counting_diff(&dp, &target);
            for (mut got, mut want) in [
                (diff.install.clone(), reference.install),
                (diff.remove.clone(), reference.remove),
            ] {
                got.sort();
                want.sort();
                assert_eq!(got, want, "case {case}");
            }
            let mut op_by_op = dp.clone();
            for (s, e) in &diff.install {
                op_by_op.install(*s, e).unwrap();
            }
            for (s, e) in &diff.remove {
                op_by_op.remove(*s, e).unwrap();
            }
            dp.apply(&diff).unwrap();
            assert_eq!(op_by_op.dump(), dp.dump(), "case {case}");
        }
    }

    #[test]
    fn dump_is_deterministic() {
        let mut a = DataPlane::new(vec![4]);
        let mut b = DataPlane::new(vec![4]);
        let target = vec![vec![
            entry(2, "10**", Action::Drop),
            entry(1, "****", Action::Permit),
        ]];
        // Same target through different diff orders.
        a.apply(&a.diff_to(&target).unwrap()).unwrap();
        let step = vec![vec![entry(1, "****", Action::Permit)]];
        b.apply(&b.diff_to(&step).unwrap()).unwrap();
        b.apply(&b.diff_to(&target).unwrap()).unwrap();
        assert_eq!(a.dump(), b.dump());
    }
}
