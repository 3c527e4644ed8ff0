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
//!
//! Only a switch that holds a merged entry builds the constraint graph.
//! On a merge-free switch the entries arrive in [`Placement::iter`]
//! order — ingress, then rule — and a [`flowplace_acl::Policy`] keeps its
//! rules in strictly descending priority with `RuleId` = index. So each
//! ingress's chain runs over consecutive entries in index order, and the
//! lowest-index-first topological sort of disjoint chains like that is
//! the identity: the table is its entries as they came, numbered
//! `total − pos`, the same bytes the graph would give.

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
    /// The safe-mode fence [`is_safe_mode`](TableEntry::is_safe_mode)
    /// recognises, for `ingress` over `width` header bits. Panics on a
    /// `width` [`Ternary::any`] refuses.
    pub fn safe_mode_fence(ingress: EntryPortId, width: u32) -> TableEntry {
        TableEntry {
            priority: u32::MAX,
            tags: BTreeSet::from([ingress]),
            match_field: Ternary::any(width),
            action: Action::Drop,
        }
    }

    /// The redirect stub [`is_delegation_stub`](TableEntry::is_delegation_stub)
    /// recognises, for `ingress` over `width` header bits. Panics on a
    /// `width` [`Ternary::any`] refuses.
    pub fn delegation_stub(ingress: EntryPortId, width: u32) -> TableEntry {
        TableEntry {
            priority: 0,
            tags: BTreeSet::from([ingress]),
            match_field: Ternary::any(width),
            action: Action::Permit,
        }
    }

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

    // Merged entries first, on the switches that hold one; remember
    // which (ingress, rule, switch) they absorb.
    let mut merged: Vec<Option<Vec<Draft>>> = (0..n).map(|_| None).collect();
    let mut absorbed: BTreeSet<(EntryPortId, RuleId, SwitchId)> = BTreeSet::new();
    for g in placement.merge_groups() {
        absorbed.extend(g.members.iter().map(|&(l, r)| (l, r, g.switch)));
        merged[g.switch.0].get_or_insert_with(Vec::new).push(Draft {
            entry: TableEntry {
                priority: 0,
                tags: g.members.iter().map(|(l, _)| *l).collect(),
                match_field: g.match_field,
                action: g.action,
            },
            contributors: g.members.clone(),
        });
    }
    // Ordinary entries, in (ingress, rule) order. A merge-free switch
    // takes them as they come (the module docs say why that is its
    // constraint order); a merged one drafts them for the graph.
    let mut plain: Vec<Vec<TableEntry>> = vec![Vec::new(); n];
    for (&(ingress, rule), switches) in placement.iter() {
        let r = instance
            .policy(ingress)
            .expect("placement refers to existing policy")
            .rule(rule);
        for &s in switches {
            let entry = TableEntry {
                priority: 0,
                tags: [ingress].into(),
                match_field: *r.match_field(),
                action: r.action(),
            };
            match &mut merged[s.0] {
                None => plain[s.0].push(entry),
                Some(_) if absorbed.contains(&(ingress, rule, s)) => {}
                Some(drafts) => drafts.push(Draft {
                    entry,
                    contributors: vec![(ingress, rule)],
                }),
            }
        }
    }

    let mut tables = Vec::with_capacity(n);
    for (si, (mut entries, drafts)) in plain.into_iter().zip(merged).enumerate() {
        if let Some(drafts) = drafts {
            let order = constraint_order(instance, &drafts)
                .ok_or(TableError::CircularPriority(SwitchId(si)))?;
            let mut slots: Vec<Option<TableEntry>> =
                drafts.into_iter().map(|d| Some(d.entry)).collect();
            entries = order
                .iter()
                .map(|&ei| slots[ei].take().expect("the sort visits each draft once"))
                .collect();
        }
        let total = entries.len() as u32;
        for (pos, e) in entries.iter_mut().enumerate() {
            e.priority = total - pos as u32;
        }
        tables.push(SwitchTable { entries });
    }
    Ok(tables)
}

/// One entry of a switch holding a merged entry, before ordering, with
/// the `(ingress, rule)` pairs it carries (≥ 2 for the merged one).
struct Draft {
    entry: TableEntry,
    contributors: Vec<(EntryPortId, RuleId)>,
}

/// The order of one switch's drafts: each ingress's entries chained in
/// descending policy priority, sorted topologically taking the lowest
/// draft index first. `None` if the chains form a cycle.
fn constraint_order(instance: &Instance, drafts: &[Draft]) -> Option<Vec<usize>> {
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); drafts.len()];
    let mut indeg = vec![0usize; drafts.len()];
    let mut per_ingress: BTreeMap<EntryPortId, Vec<(u32, usize)>> = BTreeMap::new();
    for (ei, d) in drafts.iter().enumerate() {
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
    let mut order: Vec<usize> = Vec::with_capacity(drafts.len());
    let mut ready: BTreeSet<usize> = indeg
        .iter()
        .enumerate()
        .filter(|(_, &d)| d == 0)
        .map(|(i, _)| i)
        .collect();
    while let Some(e) = ready.pop_first() {
        order.push(e);
        for &next in &adj[e] {
            indeg[next] -= 1;
            if indeg[next] == 0 {
                ready.insert(next);
            }
        }
    }
    (order.len() == drafts.len()).then_some(order)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::merge::MergeGroup;
    use flowplace_acl::{Packet, Policy};
    use flowplace_rng::{Rng, StdRng};
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

    /// A switch holding one merged entry still goes through the graph:
    /// the merged DROP is drafted first, but tenant A's PERMIT ranks
    /// above it, so the order is not the draft order.
    #[test]
    fn merged_switch_goes_through_the_constraint_graph() {
        let (a, b) = (EntryPortId(0), EntryPortId(1));
        let mut topo = Topology::linear(1);
        topo.set_uniform_capacity(10);
        let routes = RouteSet::from_routes(vec![
            Route::new(a, b, vec![SwitchId(0)]),
            Route::new(b, a, vec![SwitchId(0)]),
        ]);
        let qa = Policy::from_ordered(vec![(t("10**"), Action::Permit), (t("1***"), Action::Drop)])
            .unwrap();
        let qb = Policy::from_ordered(vec![(t("1***"), Action::Drop)]).unwrap();
        let inst = Instance::new(topo, routes, vec![(a, qa), (b, qb)]).unwrap();
        let mut p = Placement::new();
        p.place(a, RuleId(0), SwitchId(0));
        p.place(a, RuleId(1), SwitchId(0));
        p.place(b, RuleId(0), SwitchId(0));
        p.record_merge(MergeGroup {
            switch: SwitchId(0),
            match_field: t("1***"),
            action: Action::Drop,
            members: vec![(a, RuleId(1)), (b, RuleId(0))],
        });
        let drafts = all_drafts(&inst, &p).swap_remove(0);
        assert_eq!(constraint_order(&inst, &drafts), Some(vec![1, 0]));
        let tables = emit_tables(&inst, &p).unwrap();
        let top = &tables[0].entries()[0];
        assert_eq!((top.match_field, top.action), (t("10**"), Action::Permit));
        assert_eq!(tables[0].entries()[1].tags, BTreeSet::from([a, b]));
    }

    /// What the constraint graph is fed on every switch: merged entries
    /// first, then each placed `(ingress, rule)` no merge absorbed, in
    /// [`Placement::iter`] order.
    fn all_drafts(inst: &Instance, p: &Placement) -> Vec<Vec<Draft>> {
        let n = inst.topology().switch_count();
        let mut drafts: Vec<Vec<Draft>> = (0..n).map(|_| Vec::new()).collect();
        let entry = |tags, match_field, action| TableEntry {
            priority: 0,
            tags,
            match_field,
            action,
        };
        for g in p.merge_groups() {
            drafts[g.switch.0].push(Draft {
                entry: entry(
                    g.members.iter().map(|m| m.0).collect(),
                    g.match_field,
                    g.action,
                ),
                contributors: g.members.clone(),
            });
        }
        for (&(l, r), switches) in p.iter() {
            let rule = inst.policy(l).unwrap().rule(r);
            for &s in switches {
                let absorbs = |g: &MergeGroup| g.switch == s && g.members.contains(&(l, r));
                if p.merge_groups().iter().any(absorbs) {
                    continue;
                }
                drafts[s.0].push(Draft {
                    entry: entry([l].into(), *rule.match_field(), rule.action()),
                    contributors: vec![(l, r)],
                });
            }
        }
        drafts
    }

    /// Two or three tenants on `star(k + 1)`, every route crossing the
    /// hub `s0` to the last leaf. Policies draw from one pool of five
    /// 4-bit rules, so identical rules recur across tenants and merging
    /// has something to merge.
    fn random_instance(rng: &mut StdRng) -> Instance {
        let pool: Vec<(Ternary, Action)> = (0..5)
            .map(|_| {
                let cube = Ternary::new(4, rng.gen_range(0u128..16), rng.gen_range(0u128..16));
                let action = if rng.gen_bool(0.5) {
                    Action::Drop
                } else {
                    Action::Permit
                };
                (cube, action)
            })
            .collect();
        let k = rng.gen_range(2..=3usize);
        let mut topo = Topology::star(k + 1);
        topo.set_uniform_capacity(rng.gen_range(3..=8usize));
        let egress = EntryPortId(k);
        let egress_switch = topo.entry_port(egress).switch;
        let mut routes = RouteSet::new();
        let mut policies = Vec::new();
        for i in 0..k {
            let l = EntryPortId(i);
            let hops = vec![topo.entry_port(l).switch, SwitchId(0), egress_switch];
            routes.push(Route::new(l, egress, hops));
            let mut picks: Vec<usize> = (0..pool.len()).collect();
            for j in (1..picks.len()).rev() {
                picks.swap(j, rng.gen_range(0..=j));
            }
            picks.truncate(rng.gen_range(1..=pool.len()));
            let specs = picks.iter().map(|&j| pool[j]).collect();
            policies.push((l, Policy::from_ordered(specs).unwrap()));
        }
        Instance::new(topo, routes, policies).unwrap()
    }

    /// On every merge-free switch of 32 seeded solved instances, merging
    /// off and on, the constraint graph's order is the identity the fast
    /// path assumes, and on every switch the emitted table is the drafts
    /// in the graph's order.
    #[test]
    fn merge_free_switches_emit_the_constraint_order() {
        use crate::{par, Objective, PlacementOptions};
        let mut rng = StdRng::seed_from_u64(0x7AB1E5);
        let (mut free, mut merged) = (0, 0);
        for merging in [false, true] {
            let options = PlacementOptions {
                merging,
                ..PlacementOptions::default()
            };
            for case in 0..32 {
                let inst = random_instance(&mut rng);
                let Some(p) = par::solve(&inst, Objective::TotalRules, &options, None).placement
                else {
                    continue;
                };
                let tables = emit_tables(&inst, &p).unwrap();
                for (s, drafts) in all_drafts(&inst, &p).into_iter().enumerate() {
                    let why = format!("merging {merging}, case {case}, s{s}");
                    let order = constraint_order(&inst, &drafts).expect(&why);
                    if p.merge_groups().iter().any(|g| g.switch.0 == s) {
                        merged += 1;
                    } else {
                        assert!(order.iter().copied().eq(0..drafts.len()), "{why}");
                        free += 1;
                    }
                    let total = drafts.len() as u32;
                    let want: Vec<TableEntry> = (order.iter().enumerate())
                        .map(|(pos, &i)| TableEntry {
                            priority: total - pos as u32,
                            ..drafts[i].entry.clone()
                        })
                        .collect();
                    assert_eq!(tables[s].entries(), want, "{why}");
                }
            }
        }
        assert!(free > 0 && merged > 0, "{free} merge-free, {merged} merged");
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
