//! Candidate placement locations for every rule (stage 2 of
//! [`crate::par::solve`]).
//!
//! The candidate map is everything the encoders read of the policies'
//! dependency graphs: each DROP's entry carries the PERMIT rules Eq. 1
//! places beside it, copied from the graph stage 1 built, so no encoder
//! builds a graph of its own.

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

/// Candidates for the rules of one ingress policy. Output is keyed by
/// rule id only; the caller re-keys under `(ingress, rule)`.
pub(crate) fn candidates_for_ingress(
    instance: &Instance,
    ingress: EntryPortId,
    graph: &DependencyGraph,
) -> BTreeMap<RuleId, Candidates> {
    let policy = instance
        .policy(ingress)
        .expect("ingress must carry a policy");
    let mut map: BTreeMap<RuleId, Candidates> = BTreeMap::new();
    // DROP rules: switches of every route the rule is sliced into.
    for rid in instance.routes().paths_from(ingress) {
        let route = instance.routes().route(rid);
        for w in slicing::sliced_drop_rules(policy, route) {
            union_into(&mut map.entry(w).or_default().switches, &route.switches);
        }
    }
    // PERMIT rules: union of their dependents' candidate switches. No
    // PERMIT is a DROP, so the two maps share no key.
    let mut permits: BTreeMap<RuleId, Candidates> = BTreeMap::new();
    for w in policy.drop_rules() {
        let Some(drop) = map.get_mut(&w) else {
            continue; // drop rule sliced out of every route
        };
        drop.permits = graph.permits_required_by(w).to_vec();
        for &u in &drop.permits {
            union_into(&mut permits.entry(u).or_default().switches, &drop.switches);
        }
    }
    map.append(&mut permits);
    map
}

/// Adds each of `switches` to the sorted, duplicate-free `into`.
fn union_into(into: &mut Vec<SwitchId>, switches: &[SwitchId]) {
    for &s in switches {
        if let Err(at) = into.binary_search(&s) {
            into.insert(at, s);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    use flowplace_acl::{Action, Policy, Ternary};
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
        for rid in instance.routes().paths_from(ingress) {
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

    /// Seeded instances on `star(5)`: two or three tenants, two to four
    /// routes each (some flow-sliced, some to the same egress), 4-bit
    /// policies dense enough that PERMITs serve several DROPs and some
    /// DROPs miss every route's flow. The map equals the reference, and
    /// every list is sorted with no duplicates.
    #[test]
    fn sorted_lists_equal_the_btreeset_construction() {
        use flowplace_rng::{Rng, StdRng};
        let mut rng = StdRng::seed_from_u64(0xCA4D_5E75);
        let cube =
            |rng: &mut StdRng| Ternary::new(4, rng.gen_range(0u128..16), rng.gen_range(0u128..16));
        let (mut shared_permits, mut sliced_out, mut flows) = (0, 0, 0);
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
                let specs = (0..rng.gen_range(3..=9))
                    .map(|_| {
                        let action = [Action::Permit, Action::Drop][rng.gen_range(0..2usize)];
                        (cube(&mut rng), action)
                    })
                    .collect();
                policies.push((l, Policy::from_ordered(specs).unwrap()));
            }
            let inst = Instance::new(Topology::star(5), routes, policies).unwrap();
            let graphs = crate::par::build_depgraphs(&inst, 1);
            let cand = build_candidates(&inst);
            let mut want = BTreeMap::new();
            for (&ingress, graph) in &graphs {
                let policy = inst.policy(ingress).unwrap();
                let entries = reference(&inst, ingress, graph);
                sliced_out += policy
                    .drop_rules()
                    .filter(|w| !entries.contains_key(w))
                    .count();
                let mut dependents = BTreeMap::<RuleId, usize>::new();
                for (_, permits) in entries.values() {
                    permits
                        .iter()
                        .for_each(|&u| *dependents.entry(u).or_default() += 1);
                }
                shared_permits += dependents.values().filter(|&&n| n > 1).count();
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
            }
        }
        assert!(shared_permits > 0 && sliced_out > 0 && flows > 0);
    }
}
