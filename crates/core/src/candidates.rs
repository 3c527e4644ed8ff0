//! Candidate placement locations for every rule (stage 2 of
//! [`crate::par::solve`]).
//!
//! The candidate map is everything the encoders read of the policies'
//! dependency graphs: each DROP's entry carries the PERMIT rules Eq. 1
//! places beside it, copied from the graph stage 1 built, so no encoder
//! builds a graph of its own.

use std::collections::{BTreeMap, BTreeSet};

use flowplace_acl::RuleId;
use flowplace_topo::{EntryPortId, SwitchId};

use crate::depgraph::DependencyGraph;
use crate::slicing;
use crate::Instance;

/// One rule's entry in a [`CandidateMap`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Candidates {
    /// The switches the rule may be placed on.
    pub switches: BTreeSet<SwitchId>,
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
            map.entry(w)
                .or_default()
                .switches
                .extend(route.switches.iter().copied());
        }
    }
    // PERMIT rules: union of their dependents' candidate switches.
    for w in policy.drop_rules() {
        let Some(drop) = map.get_mut(&w) else {
            continue; // drop rule sliced out of every route
        };
        let permits = graph.permits_required_by(w);
        drop.permits = permits.to_vec();
        let w_switches = drop.switches.clone();
        for &u in permits {
            map.entry(u).or_default().switches.extend(&w_switches);
        }
    }
    map
}

#[cfg(test)]
mod tests {
    use super::*;
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
        let all: BTreeSet<SwitchId> = [SwitchId(0), SwitchId(1), SwitchId(2)].into();
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
}
