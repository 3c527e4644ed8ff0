//! Candidate placement locations for every rule (stage 2 of
//! [`crate::par::solve`]).
//!
//! The candidate map is everything the encoders read of the policies'
//! dependency graphs: each DROP's entry carries the PERMIT rules Eq. 1
//! places beside it, copied from the graph stage 1 built, so no encoder
//! builds a graph of its own.
//!
//! Per ingress, each rule's switch set is built as a bitset one bit per
//! switch, so a union is a word-wise OR, and read out at the end as a
//! sorted list; the map is then built in one pass in key order.

use std::collections::BTreeMap;

use flowplace_acl::RuleId;
use flowplace_topo::{EntryPortId, SwitchId};

use crate::depgraph::DependencyGraph;
use crate::slicing;
use crate::Instance;

/// One rule's entry in a [`CandidateMap`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Candidates {
    /// Switches the rule may be placed on, sorted ascending, no duplicates.
    pub switches: Vec<SwitchId>,
    /// For a DROP rule, the PERMIT rules that must sit wherever it does
    /// ([`DependencyGraph::permits_required_by`]); empty for a PERMIT.
    pub permits: Vec<RuleId>,
}

/// For each `(ingress, rule)`, the switches it may be placed on and, for
/// a DROP, its dependency list.
///
/// DROP rules are candidates on every switch of every route they are
/// sliced into; PERMIT rules on every switch where some dependent DROP is
/// a candidate (Equation 1 only ever forces a PERMIT where its DROP
/// lands). PERMIT rules with no dependent DROP never need placement — the
/// default switch action is already PERMIT.
pub type CandidateMap = BTreeMap<(EntryPortId, RuleId), Candidates>;

/// Builds the candidate map for an instance, honoring path slicing:
/// stages 1–2 of [`crate::par::solve`].
pub fn build_candidates(instance: &Instance) -> CandidateMap {
    let graphs = crate::par::build_depgraphs(instance, 1);
    crate::par::build_candidates_par(instance, &graphs, 1)
}

/// Candidates for the rules of one ingress policy, ascending by rule
/// id; the caller keys them under `(ingress, rule)`.
///
/// Each rule's switch set is a bitset of `switch_count().div_ceil(64)`
/// words: each route's mask is ORed into every DROP sliced onto it, then
/// each DROP's set into each of its PERMITs', and every set is read out
/// lowest bit first, so its list comes out sorted and distinct.
pub(crate) fn candidates_for_ingress(
    instance: &Instance,
    ingress: EntryPortId,
    graph: &DependencyGraph,
) -> Vec<(RuleId, Candidates)> {
    let policy = instance
        .policy(ingress)
        .expect("ingress must carry a policy");
    let words = instance.topology().switch_count().div_ceil(64);
    let mut bits = vec![0u64; policy.len() * words];
    let mut present = vec![false; policy.len()];
    let mut mask = vec![0u64; words];
    // DROP rules: switches of every route the rule is sliced into.
    for &rid in instance.routes().paths_from(ingress) {
        let route = instance.routes().route(rid);
        mask.fill(0);
        for s in &route.switches {
            mask[s.0 / 64] |= 1 << (s.0 % 64);
        }
        for w in slicing::sliced_drop_rules(policy, route) {
            present[w.0] = true;
            for (a, b) in bits[w.0 * words..][..words].iter_mut().zip(&mask) {
                *a |= b;
            }
        }
    }
    // PERMIT rules: union of their dependents' candidate switches. No
    // PERMIT is a DROP, so every DROP's set is final when it is read.
    for w in policy.drop_rules() {
        if !present[w.0] {
            continue; // drop rule sliced out of every route
        }
        for &u in graph.permits_required_by(w) {
            present[u.0] = true;
            for k in 0..words {
                bits[u.0 * words + k] |= bits[w.0 * words + k];
            }
        }
    }
    let rules = (0..policy.len()).filter(|&r| present[r]).map(RuleId);
    rules
        .map(|r| {
            let set = &bits[r.0 * words..][..words];
            let mut switches =
                Vec::with_capacity(set.iter().map(|w| w.count_ones() as usize).sum());
            for (i, mut word) in set.iter().copied().enumerate() {
                while word != 0 {
                    switches.push(SwitchId(i * 64 + word.trailing_zeros() as usize));
                    word &= word - 1;
                }
            }
            let permits = if policy.rule(r).action().is_drop() {
                graph.permits_required_by(r).to_vec()
            } else {
                Vec::new()
            };
            (r, Candidates { switches, permits })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    use flowplace_acl::{Action, Policy, Ternary};
    use flowplace_rng::{Rng, StdRng};
    use flowplace_routing::shortest::shortest_path;
    use flowplace_routing::{Route, RouteSet};
    use flowplace_topo::Topology;

    fn t(s: &str) -> Ternary {
        Ternary::parse(s).unwrap()
    }

    #[test]
    fn drops_on_route_switches_permits_follow() {
        let topo = Topology::linear(3);
        let mut routes = RouteSet::new();
        routes.push(Route::new(
            EntryPortId(0),
            EntryPortId(1),
            vec![SwitchId(0), SwitchId(1), SwitchId(2)],
        ));
        let policy = Policy::from_ordered(vec![
            (t("11**"), Action::Permit),
            (t("1***"), Action::Drop),
            (t("00**"), Action::Permit), // no dependent drop: no candidates
        ])
        .unwrap();
        let inst = Instance::new(topo, routes, vec![(EntryPortId(0), policy)]).unwrap();
        let cand = build_candidates(&inst);
        let all = [SwitchId(0), SwitchId(1), SwitchId(2)];
        assert_eq!(cand[&(EntryPortId(0), RuleId(1))].switches, all);
        assert_eq!(cand[&(EntryPortId(0), RuleId(0))].switches, all);
        // The DROP carries its dependency list; the PERMIT carries none.
        assert_eq!(cand[&(EntryPortId(0), RuleId(1))].permits, [RuleId(0)]);
        assert!(cand[&(EntryPortId(0), RuleId(0))].permits.is_empty());
        assert!(!cand.contains_key(&(EntryPortId(0), RuleId(2))));
    }

    #[test]
    fn slicing_restricts_candidates() {
        let topo = Topology::linear(3);
        let mut routes = RouteSet::new();
        routes.push(
            Route::new(
                EntryPortId(0),
                EntryPortId(1),
                vec![SwitchId(0), SwitchId(1)],
            )
            .with_flow(t("**01")),
        );
        let policy = Policy::from_ordered(vec![
            (t("1*01"), Action::Drop), // overlaps flow
            (t("1*10"), Action::Drop), // sliced out
        ])
        .unwrap();
        let inst = Instance::new(topo, routes, vec![(EntryPortId(0), policy)]).unwrap();
        let cand = build_candidates(&inst);
        assert!(cand.contains_key(&(EntryPortId(0), RuleId(0))));
        assert!(!cand.contains_key(&(EntryPortId(0), RuleId(1))));
    }

    #[test]
    fn permit_union_over_multiple_paths() {
        // Drop covered on two disjoint paths: its permit must be a
        // candidate on both.
        let topo = Topology::star(3);
        let mut routes = RouteSet::new();
        routes.push(Route::new(
            EntryPortId(0),
            EntryPortId(1),
            vec![SwitchId(1), SwitchId(0), SwitchId(2)],
        ));
        routes.push(Route::new(
            EntryPortId(0),
            EntryPortId(2),
            vec![SwitchId(1), SwitchId(0), SwitchId(3)],
        ));
        let policy =
            Policy::from_ordered(vec![(t("11**"), Action::Permit), (t("1***"), Action::Drop)])
                .unwrap();
        let inst = Instance::new(topo, routes, vec![(EntryPortId(0), policy)]).unwrap();
        let cand = build_candidates(&inst);
        let permits = &cand[&(EntryPortId(0), RuleId(0))].switches;
        assert!(permits.contains(&SwitchId(2)));
        assert!(permits.contains(&SwitchId(3)));
    }

    /// The `BTreeSet` construction the sorted lists replaced: per rule,
    /// its switch set and dependency list.
    fn reference(
        instance: &Instance,
        ingress: EntryPortId,
        graph: &DependencyGraph,
    ) -> BTreeMap<RuleId, (BTreeSet<SwitchId>, Vec<RuleId>)> {
        let policy = instance.policy(ingress).unwrap();
        let mut map: BTreeMap<RuleId, (BTreeSet<SwitchId>, Vec<RuleId>)> = BTreeMap::new();
        for &rid in instance.routes().paths_from(ingress) {
            let route = instance.routes().route(rid);
            for w in slicing::sliced_drop_rules(policy, route) {
                map.entry(w)
                    .or_default()
                    .0
                    .extend(route.switches.iter().copied());
            }
        }
        for w in policy.drop_rules() {
            let Some(drop) = map.get_mut(&w) else {
                continue;
            };
            let permits = graph.permits_required_by(w);
            drop.1 = permits.to_vec();
            let w_switches = drop.0.clone();
            for &u in permits {
                map.entry(u).or_default().0.extend(&w_switches);
            }
        }
        map
    }

    /// What the seeded cases exercised, summed over them.
    #[derive(Default)]
    struct Seen {
        shared_permits: usize,
        sliced_out: usize,
        /// Switch sets holding ids on both sides of 64, a word boundary.
        across_words: usize,
    }

    /// A policy of three to nine random 4-bit rules, dense enough that
    /// PERMITs serve several DROPs and some DROPs miss a route's flow.
    fn random_policy(rng: &mut StdRng) -> Policy {
        let specs = (0..rng.gen_range(3..=9))
            .map(|_| {
                let action = [Action::Permit, Action::Drop][rng.gen_range(0..2usize)];
                (cube(rng), action)
            })
            .collect();
        Policy::from_ordered(specs).unwrap()
    }

    fn cube(rng: &mut StdRng) -> Ternary {
        Ternary::new(4, rng.gen_range(0u128..16), rng.gen_range(0u128..16))
    }

    /// Asserts that the candidate map of `inst` equals the reference and
    /// that every list is sorted with no duplicates.
    fn assert_equals_reference(inst: &Instance, case: usize, seen: &mut Seen) {
        let graphs = crate::par::build_depgraphs(inst, 1);
        let cand = build_candidates(inst);
        let mut want = BTreeMap::new();
        for (&ingress, graph) in &graphs {
            let policy = inst.policy(ingress).unwrap();
            let entries = reference(inst, ingress, graph);
            seen.sliced_out += policy
                .drop_rules()
                .filter(|w| !entries.contains_key(w))
                .count();
            let mut dependents = BTreeMap::<RuleId, usize>::new();
            for (_, permits) in entries.values() {
                permits
                    .iter()
                    .for_each(|&u| *dependents.entry(u).or_default() += 1);
            }
            seen.shared_permits += dependents.values().filter(|&&n| n > 1).count();
            want.extend(entries.into_iter().map(|(r, e)| ((ingress, r), e)));
        }
        assert!(cand.keys().eq(want.keys()), "case {case}: rule sets differ");
        for (key, entry) in &cand {
            let (switches, permits) = &want[key];
            assert!(
                entry.switches.windows(2).all(|p| p[0] < p[1]),
                "case {case} {key:?}: {:?} not sorted and distinct",
                entry.switches
            );
            assert!(entry.switches.iter().eq(switches), "case {case} {key:?}");
            assert_eq!(&entry.permits, permits, "case {case} {key:?}");
            let ids = || entry.switches.iter().map(|s| s.0);
            seen.across_words += usize::from(ids().any(|s| s < 64) && ids().any(|s| s >= 64));
        }
    }

    /// Seeded instances on `star(5)`: two or three tenants, two to four
    /// routes each (some flow-sliced, some to the same egress), random
    /// policies. The map equals the reference.
    #[test]
    fn sorted_lists_equal_the_btreeset_construction() {
        let mut rng = StdRng::seed_from_u64(0xCA4D_5E75);
        let (mut seen, mut flows) = (Seen::default(), 0);
        for case in 0..64 {
            let mut routes = RouteSet::new();
            let mut policies = Vec::new();
            for i in 0..rng.gen_range(2..=3usize) {
                let l = EntryPortId(i);
                for _ in 0..rng.gen_range(2..=4) {
                    let e = (i + rng.gen_range(1..5usize)) % 5;
                    let hops = vec![SwitchId(i + 1), SwitchId(0), SwitchId(e + 1)];
                    let mut route = Route::new(l, EntryPortId(e), hops);
                    if rng.gen_bool(0.5) {
                        route = route.with_flow(cube(&mut rng));
                        flows += 1;
                    }
                    routes.push(route);
                }
                policies.push((l, random_policy(&mut rng)));
            }
            let inst = Instance::new(Topology::star(5), routes, policies).unwrap();
            assert_equals_reference(&inst, case, &mut seen);
        }
        assert!(seen.shared_permits > 0 && seen.sliced_out > 0 && flows > 0);
    }

    /// Seeded instances on `fat_tree(8)`, 80 switches: the switch sets
    /// span two bitset words. Two or three random ingresses, two to four
    /// shortest paths each to random egresses (pods 6 and 7 hold switches
    /// 64 to 79, so routes into them cross the word boundary), random
    /// policies. The map equals the reference.
    #[test]
    fn switch_sets_across_a_word_boundary_equal_the_reference() {
        let topo = Topology::fat_tree(8);
        assert_eq!(topo.switch_count(), 80);
        let ports = topo.entry_port_count();
        let mut rng = StdRng::seed_from_u64(0x80_5717);
        let mut seen = Seen::default();
        for case in 0..32 {
            let mut routes = RouteSet::new();
            let mut policies = Vec::new();
            let mut ingresses = BTreeSet::new();
            while ingresses.len() < rng.gen_range(2..=3usize) {
                ingresses.insert(EntryPortId(rng.gen_range(0..ports)));
            }
            for &l in &ingresses {
                for _ in 0..rng.gen_range(2..=4) {
                    let e = EntryPortId(rng.gen_range(0..ports));
                    let Some(mut route) = (e != l)
                        .then(|| shortest_path(&topo, l, e, &mut rng))
                        .flatten()
                    else {
                        continue;
                    };
                    if rng.gen_bool(0.5) {
                        route = route.with_flow(cube(&mut rng));
                    }
                    routes.push(route);
                }
                policies.push((l, random_policy(&mut rng)));
            }
            let inst = Instance::new(topo.clone(), routes, policies).unwrap();
            assert_equals_reference(&inst, case, &mut seen);
        }
        assert!(seen.across_words > 0 && seen.shared_permits > 0 && seen.sliced_out > 0);
    }
}
