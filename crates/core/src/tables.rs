//! Per-switch rule table emission.
//!
//! Turns a [`Placement`] into concrete prioritized switch tables. Each
//! entry matches a *tag set* (which ingress policies it applies to — one
//! ingress for ordinary rules, several for merged rules) plus the rule's
//! ternary header match. Within a switch:
//!
//! * rules of one policy keep their policy's relative priority order;
//! * rules of different policies may interleave freely (tags make their
//!   match spaces disjoint, §IV-A5);
//! * merged entries must satisfy *every* member policy's order — possible
//!   because [`crate::merge`] broke circular priority dependencies before
//!   encoding.
//!
//! The final order is a deterministic topological sort of those
//! constraints; discovering a cycle here would indicate an encoder bug
//! and is reported as an error rather than a panic.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use flowplace_acl::{Action, RuleId, Ternary};
use flowplace_topo::{EntryPortId, SwitchId};

use crate::placement::Placement;
use crate::Instance;

/// One tagged TCAM entry: what the emitter writes, the dataplane
/// deploys and the cache tier holds. Identity is the full tuple — two
/// entries that differ only in priority are distinct dataplane state —
/// and the derived `Ord` compares `(priority, tags, match_field,
/// action)` in that order.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TableEntry {
    /// Table priority (larger wins), assigned by the emitter.
    pub priority: u32,
    /// The ingress policies this entry applies to (≥ 2 for merged rules;
    /// §IV-D disjointness).
    pub tags: BTreeSet<EntryPortId>,
    /// The header match field.
    pub match_field: Ternary,
    /// PERMIT or DROP.
    pub action: Action,
}

impl TableEntry {
    /// True for the controller's reserved safe-mode drop-all entry: a
    /// maximum-priority all-wildcard DROP. These live in a reserved
    /// system slot and do not count against TCAM capacity.
    pub fn is_safe_mode(&self) -> bool {
        self.priority == u32::MAX && self.match_field.care() == 0 && self.action == Action::Drop
    }

    /// True for a delegation redirect stub: a minimum-priority
    /// all-wildcard PERMIT. Semantically neutral in the pipeline model —
    /// a PERMIT forwards, exactly like no-match — it models the TCAM slot
    /// the hardware redirect rule occupies while a delegation is active.
    pub fn is_delegation_stub(&self) -> bool {
        self.priority == 0 && self.match_field.care() == 0 && self.action == Action::Permit
    }

    /// True for any reserved-system-bank entry (the safe-mode fence or
    /// a delegation redirect stub): exempt from the capacity check and
    /// surviving capacity revocations, so the controller's fail-closed
    /// fallbacks can never themselves be infeasible. [`emit_tables`]
    /// never yields one: its priorities run `1..=total`.
    pub fn is_reserved(&self) -> bool {
        self.is_safe_mode() || self.is_delegation_stub()
    }
}

impl fmt::Display for TableEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] tags={{", self.priority)?;
        for (i, t) in self.tags.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{t}")?;
        }
        write!(f, "}} {} {}", self.match_field, self.action)
    }
}

/// Table order, the one every table in the system is kept in:
/// descending priority, ties by the entry's full ordering so the result
/// is deterministic.
pub fn table_order(a: &TableEntry, b: &TableEntry) -> std::cmp::Ordering {
    b.priority.cmp(&a.priority).then_with(|| a.cmp(b))
}

/// The emitted ACL table of one switch, in [`table_order`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SwitchTable {
    entries: Vec<TableEntry>,
}

impl SwitchTable {
    /// Builds a table from entries not emitted from a placement — e.g.
    /// a fault-tolerant controller handing the dataplane's surviving
    /// TCAM contents to [`crate::verify::verify_tables`] — sorting them
    /// into [`table_order`].
    pub fn from_entries(mut entries: Vec<TableEntry>) -> Self {
        entries.sort_by(table_order);
        SwitchTable { entries }
    }

    /// Entries in descending priority order.
    pub fn entries(&self) -> &[TableEntry] {
        &self.entries
    }

    /// Number of TCAM entries consumed.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if the table is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// First-match lookup for a packet entering at `ingress`: the action
    /// of the highest-priority entry whose tag set contains `ingress` and
    /// whose match field matches, if any.
    pub fn lookup(&self, ingress: EntryPortId, packet: &flowplace_acl::Packet) -> Option<Action> {
        self.entries
            .iter()
            .find(|e| e.tags.contains(&ingress) && e.match_field.matches(packet))
            .map(|e| e.action)
    }
}

impl fmt::Display for SwitchTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for e in &self.entries {
            writeln!(f, "{e}")?;
        }
        Ok(())
    }
}

/// Error from [`emit_tables`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TableError {
    /// The priority constraints on a switch are cyclic (merge
    /// cycle-breaking should make this impossible).
    CircularPriority(SwitchId),
}

impl fmt::Display for TableError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TableError::CircularPriority(s) => {
                write!(f, "circular priority constraints on {s}")
            }
        }
    }
}

impl std::error::Error for TableError {}

/// Emits one table per switch (indexed by `SwitchId`).
///
/// # Errors
///
/// Returns [`TableError::CircularPriority`] if the per-policy order
/// constraints cannot be linearized — which [`crate::merge`]'s
/// cycle-breaking is designed to prevent.
pub fn emit_tables(
    instance: &Instance,
    placement: &Placement,
) -> Result<Vec<SwitchTable>, TableError> {
    let n = instance.topology().switch_count();
    let mut tables = vec![SwitchTable::default(); n];

    // Group raw entries per switch.
    struct Draft {
        tags: BTreeSet<EntryPortId>,
        match_field: Ternary,
        action: Action,
        contributors: Vec<(EntryPortId, RuleId)>,
    }
    let mut drafts: Vec<Vec<Draft>> = (0..n).map(|_| Vec::new()).collect();

    // Merged entries first; remember which (ingress, rule, switch) they
    // absorb.
    let mut absorbed: BTreeSet<(EntryPortId, RuleId, SwitchId)> = BTreeSet::new();
    for g in placement.merge_groups() {
        for &(l, r) in &g.members {
            absorbed.insert((l, r, g.switch));
        }
        drafts[g.switch.0].push(Draft {
            tags: g.members.iter().map(|(l, _)| *l).collect(),
            match_field: g.match_field,
            action: g.action,
            contributors: g.members.clone(),
        });
    }
    // Ordinary entries.
    for (&(ingress, rule), switches) in placement.iter() {
        let r = instance
            .policy(ingress)
            .expect("placement refers to existing policy")
            .rule(rule);
        for &s in switches {
            if absorbed.contains(&(ingress, rule, s)) {
                continue;
            }
            drafts[s.0].push(Draft {
                tags: [ingress].into(),
                match_field: *r.match_field(),
                action: r.action(),
                contributors: vec![(ingress, rule)],
            });
        }
    }

    // Order each switch's entries.
    for (si, mut ds) in drafts.into_iter().enumerate() {
        if ds.is_empty() {
            continue;
        }
        // Constraint edges: for each ingress, chain its entries in
        // descending policy priority.
        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); ds.len()];
        let mut indeg = vec![0usize; ds.len()];
        let mut per_ingress: BTreeMap<EntryPortId, Vec<(u32, usize)>> = BTreeMap::new();
        for (ei, d) in ds.iter().enumerate() {
            for &(l, r) in &d.contributors {
                let prio = instance
                    .policy(l)
                    .expect("contributor policy exists")
                    .rule(r)
                    .priority();
                per_ingress.entry(l).or_default().push((prio, ei));
            }
        }
        for (_, mut list) in per_ingress {
            list.sort_by_key(|&(prio, _)| std::cmp::Reverse(prio)); // descending priority
            for w in list.windows(2) {
                adj[w[0].1].push(w[1].1);
                indeg[w[1].1] += 1;
            }
        }
        // Deterministic Kahn (lowest index first).
        let mut order: Vec<usize> = Vec::with_capacity(ds.len());
        let mut ready: BTreeSet<usize> = indeg
            .iter()
            .enumerate()
            .filter(|(_, &d)| d == 0)
            .map(|(i, _)| i)
            .collect();
        while let Some(&e) = ready.iter().next() {
            ready.remove(&e);
            order.push(e);
            for &next in &adj[e] {
                indeg[next] -= 1;
                if indeg[next] == 0 {
                    ready.insert(next);
                }
            }
        }
        if order.len() != ds.len() {
            return Err(TableError::CircularPriority(SwitchId(si)));
        }
        let total = order.len() as u32;
        let entries = order
            .iter()
            .enumerate()
            .map(|(pos, &ei)| TableEntry {
                tags: std::mem::take(&mut ds[ei].tags),
                match_field: ds[ei].match_field,
                action: ds[ei].action,
                priority: total - pos as u32,
            })
            .collect();
        tables[si] = SwitchTable { entries };
    }
    Ok(tables)
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowplace_acl::{Packet, Policy};
    use flowplace_routing::{Route, RouteSet};
    use flowplace_topo::Topology;

    fn t(s: &str) -> Ternary {
        Ternary::parse(s).unwrap()
    }

    fn one_policy_instance() -> Instance {
        let mut topo = Topology::linear(2);
        topo.set_uniform_capacity(10);
        let mut routes = RouteSet::new();
        routes.push(Route::new(
            EntryPortId(0),
            EntryPortId(1),
            vec![SwitchId(0), SwitchId(1)],
        ));
        let policy =
            Policy::from_ordered(vec![(t("11**"), Action::Permit), (t("1***"), Action::Drop)])
                .unwrap();
        Instance::new(topo, routes, vec![(EntryPortId(0), policy)]).unwrap()
    }

    #[test]
    fn preserves_policy_priority_order() {
        let inst = one_policy_instance();
        let mut p = Placement::new();
        p.place(EntryPortId(0), RuleId(0), SwitchId(0));
        p.place(EntryPortId(0), RuleId(1), SwitchId(0));
        let tables = emit_tables(&inst, &p).unwrap();
        let table = &tables[0];
        assert_eq!(table.len(), 2);
        // The permit (rule 0) must outrank the drop (rule 1).
        assert_eq!(table.entries()[0].match_field, t("11**"));
        assert!(table.entries()[0].priority > table.entries()[1].priority);
        // Lookup honors first-match.
        assert_eq!(
            table.lookup(EntryPortId(0), &Packet::from_bits(0b1100, 4)),
            Some(Action::Permit)
        );
        assert_eq!(
            table.lookup(EntryPortId(0), &Packet::from_bits(0b1000, 4)),
            Some(Action::Drop)
        );
        assert_eq!(
            table.lookup(EntryPortId(0), &Packet::from_bits(0b0000, 4)),
            None
        );
    }

    #[test]
    fn lookup_respects_tags() {
        let inst = one_policy_instance();
        let mut p = Placement::new();
        p.place(EntryPortId(0), RuleId(1), SwitchId(0));
        let tables = emit_tables(&inst, &p).unwrap();
        // A packet from a different ingress never matches.
        assert_eq!(
            tables[0].lookup(EntryPortId(1), &Packet::from_bits(0b1000, 4)),
            None
        );
    }

    #[test]
    fn merged_entry_has_union_tags() {
        use crate::merge::MergeGroup;
        let mut topo = Topology::star(2);
        topo.set_uniform_capacity(10);
        let mut routes = RouteSet::new();
        routes.push(Route::new(
            EntryPortId(0),
            EntryPortId(1),
            vec![SwitchId(1), SwitchId(0), SwitchId(2)],
        ));
        routes.push(Route::new(
            EntryPortId(1),
            EntryPortId(0),
            vec![SwitchId(2), SwitchId(0), SwitchId(1)],
        ));
        let q = Policy::from_ordered(vec![(t("1111"), Action::Drop)]).unwrap();
        let inst = Instance::new(
            topo,
            routes,
            vec![(EntryPortId(0), q.clone()), (EntryPortId(1), q)],
        )
        .unwrap();
        let mut p = Placement::new();
        p.place(EntryPortId(0), RuleId(0), SwitchId(0));
        p.place(EntryPortId(1), RuleId(0), SwitchId(0));
        p.record_merge(MergeGroup {
            switch: SwitchId(0),
            match_field: t("1111"),
            action: Action::Drop,
            members: vec![(EntryPortId(0), RuleId(0)), (EntryPortId(1), RuleId(0))],
        });
        let tables = emit_tables(&inst, &p).unwrap();
        assert_eq!(tables[0].len(), 1, "merged rules share one entry");
        let entry = &tables[0].entries()[0];
        assert_eq!(entry.tags.len(), 2);
        // Both ingresses hit the shared entry.
        let pkt = Packet::from_bits(0b1111, 4);
        assert_eq!(tables[0].lookup(EntryPortId(0), &pkt), Some(Action::Drop));
        assert_eq!(tables[0].lookup(EntryPortId(1), &pkt), Some(Action::Drop));
    }

    #[test]
    fn interleaves_policies_without_constraint() {
        // Two policies on the same switch: any order works; emission must
        // produce all entries with distinct priorities.
        let mut topo = Topology::linear(1);
        topo.set_uniform_capacity(10);
        let mut routes = RouteSet::new();
        routes.push(Route::new(
            EntryPortId(0),
            EntryPortId(1),
            vec![SwitchId(0)],
        ));
        routes.push(Route::new(
            EntryPortId(1),
            EntryPortId(0),
            vec![SwitchId(0)],
        ));
        let q0 = Policy::from_ordered(vec![(t("1***"), Action::Drop)]).unwrap();
        let q1 = Policy::from_ordered(vec![(t("0***"), Action::Drop)]).unwrap();
        let inst = Instance::new(
            topo,
            routes,
            vec![(EntryPortId(0), q0), (EntryPortId(1), q1)],
        )
        .unwrap();
        let mut p = Placement::new();
        p.place(EntryPortId(0), RuleId(0), SwitchId(0));
        p.place(EntryPortId(1), RuleId(0), SwitchId(0));
        let tables = emit_tables(&inst, &p).unwrap();
        assert_eq!(tables[0].len(), 2);
        let prios: BTreeSet<u32> = tables[0].entries().iter().map(|e| e.priority).collect();
        assert_eq!(prios.len(), 2);
    }

    #[test]
    fn conflicting_merge_groups_report_cycle() {
        use crate::merge::MergeGroup;
        // Hand-build two merge groups with contradictory priority votes
        // (bypassing find_merge_groups, which would have broken the
        // cycle) to exercise the CircularPriority error path.
        let mut topo = Topology::linear(1);
        topo.set_uniform_capacity(10);
        let mut routes = RouteSet::new();
        routes.push(Route::new(
            EntryPortId(0),
            EntryPortId(1),
            vec![SwitchId(0)],
        ));
        routes.push(Route::new(
            EntryPortId(1),
            EntryPortId(0),
            vec![SwitchId(0)],
        ));
        // Policy A: permit (high), drop (low); policy B: reversed.
        let qa = Policy::from_ordered(vec![(t("10**"), Action::Permit), (t("1***"), Action::Drop)])
            .unwrap();
        let qb = Policy::from_ordered(vec![(t("1***"), Action::Drop), (t("10**"), Action::Permit)])
            .unwrap();
        let inst = Instance::new(
            topo,
            routes,
            vec![(EntryPortId(0), qa), (EntryPortId(1), qb)],
        )
        .unwrap();
        let mut p = Placement::new();
        // A: permit is rule 0, drop is rule 1; B: drop is 0, permit is 1.
        p.place(EntryPortId(0), RuleId(0), SwitchId(0));
        p.place(EntryPortId(0), RuleId(1), SwitchId(0));
        p.place(EntryPortId(1), RuleId(0), SwitchId(0));
        p.place(EntryPortId(1), RuleId(1), SwitchId(0));
        p.record_merge(MergeGroup {
            switch: SwitchId(0),
            match_field: t("10**"),
            action: Action::Permit,
            members: vec![(EntryPortId(0), RuleId(0)), (EntryPortId(1), RuleId(1))],
        });
        p.record_merge(MergeGroup {
            switch: SwitchId(0),
            match_field: t("1***"),
            action: Action::Drop,
            members: vec![(EntryPortId(0), RuleId(1)), (EntryPortId(1), RuleId(0))],
        });
        let err = emit_tables(&inst, &p).unwrap_err();
        assert_eq!(err, TableError::CircularPriority(SwitchId(0)));
        assert!(err.to_string().contains("circular"));
    }

    #[test]
    fn table_display_lists_entries() {
        let inst = one_policy_instance();
        let mut p = Placement::new();
        p.place(EntryPortId(0), RuleId(0), SwitchId(0));
        let tables = emit_tables(&inst, &p).unwrap();
        let text = tables[0].to_string();
        assert!(text.contains("11**"));
        assert!(text.contains("PERMIT"));
        assert!(text.contains("tags={l0}"));
    }

    #[test]
    fn empty_placement_empty_tables() {
        let inst = one_policy_instance();
        let tables = emit_tables(&inst, &Placement::new()).unwrap();
        assert!(tables.iter().all(SwitchTable::is_empty));
    }
}
