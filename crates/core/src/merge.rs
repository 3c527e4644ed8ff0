//! Rule merging across ingress policies (§IV-B of the paper).
//!
//! Network-wide blacklist rules appear verbatim in many ingress policies.
//! When several policies could place the *same* rule (identical match
//! field and action) on the *same* switch, a single shared TCAM entry
//! tagged with the union of the policies suffices. The ILP models this
//! with a merge variable `v^m` that is 1 iff every member is placed
//! (Equations 4–5), discounting the duplicates from the capacity
//! constraint and the objective.
//!
//! # Circular dependencies
//!
//! A shared entry must sit at one position in the switch's priority order,
//! consistent with *every* member policy. If policy A orders rule `x`
//! above rule `y` while policy C orders them the other way (the paper's
//! Figure 5), merging both rules for all three policies is impossible.
//! The paper breaks the cycle by giving C a dummy copy of `y` below `x`
//! and merging that (the dominated copy never matches); the net effect is
//! that C keeps its own unmerged `y` and is excluded from `y`'s merge
//! group. [`find_merge_groups`] performs exactly that exclusion;
//! [`add_dummy_rules`] exposes the paper's literal transformation for
//! auditing.

use std::collections::BTreeMap;
use std::fmt;

use flowplace_fasthash::WordHashMap;

use flowplace_acl::{Action, Policy, Rule, RuleId, Ternary};
use flowplace_topo::{EntryPortId, SwitchId};

use crate::candidates::CandidateMap;
use crate::Instance;

/// A set of identical rules from different policies that may share one
/// TCAM entry on one switch.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MergeGroup {
    /// The switch the shared entry would live on.
    pub switch: SwitchId,
    /// The shared match field.
    pub match_field: Ternary,
    /// The shared action.
    pub action: Action,
    /// `(ingress, rule)` members, at most one per policy, ≥ 2 entries.
    pub members: Vec<(EntryPortId, RuleId)>,
}

impl fmt::Display for MergeGroup {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "merge@{}: {} {} x{}",
            self.switch,
            self.match_field,
            self.action,
            self.members.len()
        )
    }
}

/// Finds all merge groups of an instance, already free of circular
/// priority dependencies (conflicting members are excluded, see the
/// module docs).
///
/// A rule participates at a switch only if that switch is among its
/// placement candidates. Policies contributing several identical copies
/// of a rule contribute only the highest-priority copy.
pub fn find_merge_groups(instance: &Instance, candidates: &CandidateMap) -> Vec<MergeGroup> {
    // Bucket candidate rules by (switch, match, action). The bucket map
    // is insert-hot and probed per candidate×switch, so it is unordered
    // (word-hashed); group emission order is semantic, so the buckets are sorted
    // by key before iteration (the DESIGN.md §16 hasher policy).
    type BucketKey = (SwitchId, Ternary, Action);
    let mut buckets: WordHashMap<BucketKey, Vec<(EntryPortId, RuleId)>> = WordHashMap::default();
    for (&(ingress, rule_id), entry) in candidates {
        let rule = instance
            .policy(ingress)
            .expect("candidate refers to existing policy")
            .rule(rule_id);
        for &s in &entry.switches {
            buckets
                .entry((s, *rule.match_field(), rule.action()))
                .or_default()
                .push((ingress, rule_id));
        }
    }
    let mut bucketed: Vec<(BucketKey, Vec<(EntryPortId, RuleId)>)> = buckets.into_iter().collect();
    bucketed.sort_unstable_by_key(|e| e.0);
    let mut groups: Vec<MergeGroup> = Vec::new();
    for ((switch, match_field, action), mut members) in bucketed {
        // One member per policy: keep the highest-priority copy.
        members.sort();
        members.dedup_by_key(|(l, _)| *l);
        if members.len() >= 2 {
            groups.push(MergeGroup {
                switch,
                match_field,
                action,
                members,
            });
        }
    }
    break_circular_dependencies(instance, groups)
}

/// Removes members from merge groups until the cross-policy priority
/// relation between groups on each switch is acyclic.
///
/// For each pair of groups on a switch, member policies "vote" on their
/// relative order (by the priorities of their own copies). Pairwise
/// conflicts are resolved for the majority; dissenting policies are
/// excluded from the group whose rule they rank higher (the dummy-rule
/// equivalence). Remaining longer cycles are broken by excluding one
/// member along a back edge until a topological order exists.
fn break_circular_dependencies(
    instance: &Instance,
    mut groups: Vec<MergeGroup>,
) -> Vec<MergeGroup> {
    // Work per switch.
    let mut by_switch: BTreeMap<SwitchId, Vec<usize>> = BTreeMap::new();
    for (gi, g) in groups.iter().enumerate() {
        by_switch.entry(g.switch).or_default().push(gi);
    }

    for (_switch, idxs) in by_switch {
        // Pairwise conflict resolution by majority.
        for a_pos in 0..idxs.len() {
            for b_pos in a_pos + 1..idxs.len() {
                let (ga, gb) = (idxs[a_pos], idxs[b_pos]);
                let (a_over_b, b_over_a) = votes(instance, &groups[ga], &groups[gb]);
                if a_over_b.is_empty() || b_over_a.is_empty() {
                    continue; // unanimous or unrelated
                }
                // Minority side loses its members; ties favor a-over-b.
                let (losers, loser_ranks_higher) = if a_over_b.len() >= b_over_a.len() {
                    (b_over_a, gb) // these policies rank b higher: drop from b
                } else {
                    (a_over_b, ga)
                };
                groups[loser_ranks_higher]
                    .members
                    .retain(|(l, _)| !losers.contains(l));
            }
        }

        // Break residual longer cycles: repeatedly topo-sort; when stuck,
        // drop one member from some group still in the cyclic core.
        loop {
            let live: Vec<usize> = idxs
                .iter()
                .copied()
                .filter(|&g| groups[g].members.len() >= 2)
                .collect();
            let mut indeg: BTreeMap<usize, usize> = live.iter().map(|&g| (g, 0)).collect();
            let mut edges: Vec<(usize, usize)> = Vec::new();
            for &ga in &live {
                for &gb in &live {
                    if ga >= gb {
                        continue;
                    }
                    let (a_over_b, b_over_a) = votes(instance, &groups[ga], &groups[gb]);
                    debug_assert!(a_over_b.is_empty() || b_over_a.is_empty());
                    if !a_over_b.is_empty() {
                        edges.push((ga, gb));
                        *indeg.get_mut(&gb).expect("live node") += 1;
                    } else if !b_over_a.is_empty() {
                        edges.push((gb, ga));
                        *indeg.get_mut(&ga).expect("live node") += 1;
                    }
                }
            }
            // Kahn's algorithm.
            let mut queue: Vec<usize> = indeg
                .iter()
                .filter(|(_, &d)| d == 0)
                .map(|(&g, _)| g)
                .collect();
            let mut seen = 0;
            let mut indeg_work = indeg.clone();
            while let Some(g) = queue.pop() {
                seen += 1;
                for &(a, b) in &edges {
                    if a == g {
                        let d = indeg_work.get_mut(&b).expect("live node");
                        *d -= 1;
                        if *d == 0 {
                            queue.push(b);
                        }
                    }
                }
            }
            if seen == live.len() {
                break; // acyclic
            }
            // Some group in the cyclic core: drop its lowest member.
            let stuck = *indeg_work
                .iter()
                .filter(|(_, &d)| d > 0)
                .map(|(g, _)| g)
                .next()
                .expect("cycle implies a stuck node");
            groups[stuck].members.pop();
        }
    }

    groups.retain(|g| g.members.len() >= 2);
    groups
}

/// For two groups on one switch, the policies voting `a` above `b` and
/// `b` above `a`. Every policy that is a member of both groups votes with
/// the priority order of its own copies.
///
/// Voting on *all* shared pairs (not only overlapping opposite-action
/// pairs) is deliberately conservative: it guarantees that any ordering a
/// policy forces transitively through its interior rules is already
/// captured by a direct group-to-group edge, so the acyclicity we
/// establish here extends to the full per-switch table ordering used by
/// [`crate::tables`].
fn votes(
    instance: &Instance,
    a: &MergeGroup,
    b: &MergeGroup,
) -> (Vec<EntryPortId>, Vec<EntryPortId>) {
    let mut a_over_b = Vec::new();
    let mut b_over_a = Vec::new();
    for &(l, ra) in &a.members {
        let Some(&(_, rb)) = b.members.iter().find(|(lb, _)| *lb == l) else {
            continue;
        };
        let policy = instance.policy(l).expect("member policy exists");
        if policy.rule(ra).priority() > policy.rule(rb).priority() {
            a_over_b.push(l);
        } else {
            b_over_a.push(l);
        }
    }
    (a_over_b, b_over_a)
}

/// The paper's literal Figure 5 transformation: for each `(ingress,
/// rule)` pair excluded from merging by a priority conflict, append a
/// dummy copy of the rule at a priority just below the conflicting
/// higher-priority rule. The dummy is dominated by the original (it can
/// never be the first match), so policy semantics are unchanged, and the
/// dummy *is* mergeable.
///
/// Returns the transformed policy. Exposed for auditing and tests; the
/// optimizer itself uses the equivalent exclusion rule in
/// [`find_merge_groups`].
///
/// # Panics
///
/// Panics if `rule` is out of range for `policy`.
pub fn add_dummy_rules(policy: &Policy, rule: RuleId) -> Policy {
    let original = *policy.rule(rule);
    // Renumber priorities to open a slot at the very bottom.
    let mut rules: Vec<Rule> = policy
        .rules()
        .iter()
        .map(|r| r.with_priority(r.priority() + 1))
        .collect();
    let min_priority = rules.iter().map(|r| r.priority()).min().unwrap_or(1);
    rules.push(Rule::new(
        *original.match_field(),
        original.action(),
        min_priority - 1,
    ));
    Policy::from_rules(rules).expect("shifted priorities remain strict")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidates::build_candidates;
    use flowplace_routing::{Route, RouteSet};
    use flowplace_topo::Topology;

    fn t(s: &str) -> Ternary {
        Ternary::parse(s).unwrap()
    }

    fn shared_rule_instance() -> Instance {
        // Two ingresses routing through a common middle switch; both
        // policies contain the identical blacklist DROP.
        let topo = Topology::star(3); // hub s0, leaves s1..s3
        let mut routes = RouteSet::new();
        routes.push(Route::new(
            EntryPortId(0),
            EntryPortId(2),
            vec![SwitchId(1), SwitchId(0), SwitchId(3)],
        ));
        routes.push(Route::new(
            EntryPortId(1),
            EntryPortId(2),
            vec![SwitchId(2), SwitchId(0), SwitchId(3)],
        ));
        let q0 = Policy::from_ordered(vec![
            (t("1111"), Action::Drop), // shared blacklist
            (t("00**"), Action::Drop),
        ])
        .unwrap();
        let q1 = Policy::from_ordered(vec![
            (t("1111"), Action::Drop), // shared blacklist
            (t("01**"), Action::Drop),
        ])
        .unwrap();
        Instance::new(
            topo,
            routes,
            vec![(EntryPortId(0), q0), (EntryPortId(1), q1)],
        )
        .unwrap()
    }

    #[test]
    fn identical_rules_grouped_on_shared_switches() {
        let inst = shared_rule_instance();
        let cand = build_candidates(&inst);
        let groups = find_merge_groups(&inst, &cand);
        // The blacklist rule is shared on the two switches both routes
        // traverse: s0 (hub) and s3 (egress leaf).
        let switches: Vec<SwitchId> = groups.iter().map(|g| g.switch).collect();
        assert_eq!(switches, vec![SwitchId(0), SwitchId(3)]);
        for g in &groups {
            assert_eq!(g.match_field, t("1111"));
            assert_eq!(g.members.len(), 2);
        }
    }

    #[test]
    fn different_actions_not_grouped() {
        let topo = Topology::linear(1);
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
        let q0 = Policy::from_ordered(vec![(t("11**"), Action::Permit), (t("1***"), Action::Drop)])
            .unwrap();
        // Same match 11** but DROP here.
        let q1 = Policy::from_ordered(vec![(t("11**"), Action::Drop)]).unwrap();
        let inst = Instance::new(
            topo,
            routes,
            vec![(EntryPortId(0), q0), (EntryPortId(1), q1)],
        )
        .unwrap();
        let cand = build_candidates(&inst);
        let groups = find_merge_groups(&inst, &cand);
        assert!(groups.is_empty(), "permit and drop copies must not merge");
    }

    #[test]
    fn figure5_circular_dependency_broken() {
        // Three ingress policies through one switch; r1 (PERMIT) and r2
        // (DROP) overlap. A and B order r1 > r2; C orders r2 > r1.
        let topo = Topology::star(4);
        let mut routes = RouteSet::new();
        for i in 0..3 {
            routes.push(Route::new(
                EntryPortId(i),
                EntryPortId(3),
                vec![SwitchId(i + 1), SwitchId(0), SwitchId(4)],
            ));
        }
        // r1: src 10.../16-style narrow permit; r2: wider drop. 8-bit toy:
        let r1 = (t("10**11**"), Action::Permit);
        let r2 = (t("1***1***"), Action::Drop);
        let qa = Policy::from_ordered(vec![r1, r2]).unwrap();
        let qb = Policy::from_ordered(vec![r1, r2]).unwrap();
        let qc = Policy::from_ordered(vec![r2, r1]).unwrap(); // reversed!
        let inst = Instance::new(
            topo,
            routes,
            vec![
                (EntryPortId(0), qa),
                (EntryPortId(1), qb),
                (EntryPortId(2), qc),
            ],
        )
        .unwrap();
        let cand = build_candidates(&inst);
        let groups = find_merge_groups(&inst, &cand);
        // On each shared switch, C must be excluded from one of the two
        // groups; the remaining relation must be acyclic.
        for g in &groups {
            assert!(g.members.len() >= 2);
        }
        // C (EntryPortId(2)) appears in at most one group per switch.
        let mut per_switch: BTreeMap<SwitchId, usize> = BTreeMap::new();
        for g in &groups {
            if g.members.iter().any(|(l, _)| *l == EntryPortId(2)) {
                *per_switch.entry(g.switch).or_default() += 1;
            }
        }
        for (_, n) in per_switch {
            assert!(n <= 1, "conflicting policy must be excluded from one group");
        }
        // A and B still merge both rules somewhere.
        assert!(groups
            .iter()
            .any(|g| g.action == Action::Permit && g.members.len() >= 2));
        assert!(groups
            .iter()
            .any(|g| g.action == Action::Drop && g.members.len() >= 2));
    }

    #[test]
    fn dummy_rule_transformation_preserves_semantics() {
        let p = Policy::from_ordered(vec![(t("1***"), Action::Drop), (t("11**"), Action::Permit)])
            .unwrap();
        let q = add_dummy_rules(&p, RuleId(0));
        assert_eq!(q.len(), 3);
        assert!(p.equivalent_by_enumeration(&q));
        // The dummy is the lowest-priority rule and copies rule 0.
        let last = q.rules().last().unwrap();
        assert_eq!(last.match_field(), &t("1***"));
        assert_eq!(last.action(), Action::Drop);
    }

    #[test]
    fn groups_deduplicate_copies_within_one_policy() {
        // One policy containing the same rule twice (at different
        // priorities) must contribute a single member.
        let topo = Topology::linear(1);
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
        let q0 = Policy::from_ordered(vec![
            (t("11**"), Action::Drop),
            (t("0***"), Action::Drop),
            (t("11**"), Action::Drop), // duplicate copy
        ])
        .unwrap();
        let q1 = Policy::from_ordered(vec![(t("11**"), Action::Drop)]).unwrap();
        let inst = Instance::new(
            topo,
            routes,
            vec![(EntryPortId(0), q0), (EntryPortId(1), q1)],
        )
        .unwrap();
        let cand = build_candidates(&inst);
        let groups = find_merge_groups(&inst, &cand);
        let g = groups
            .iter()
            .find(|g| g.match_field == t("11**"))
            .expect("group exists");
        assert_eq!(g.members.len(), 2);
        let policies: Vec<EntryPortId> = g.members.iter().map(|(l, _)| *l).collect();
        assert_eq!(policies, vec![EntryPortId(0), EntryPortId(1)]);
    }
}
