//! Ingress-first greedy placement heuristic (§IV-E, small-scale updates).
//!
//! "If a new rule is added to the policy, we can try to place the rules as
//! close to the ingress as possible. Such a simple heuristic may be enough
//! to obtain a satisfying solution." The same heuristic over the whole
//! instance doubles as a fast warm-start incumbent for the ILP and as a
//! non-optimizing baseline in the benchmarks.
//!
//! For every DROP rule on every path (honoring path slicing), walk the
//! path from the ingress and install the rule — together with whatever
//! higher-priority PERMIT shields (its dependency set) are still missing —
//! at the first switch with enough spare capacity. The heuristic is
//! complete only in the sense that success yields a correct placement;
//! failure does not prove infeasibility (that is the ILP's job).

use flowplace_acl::RuleId;
use flowplace_topo::EntryPortId;

use crate::depgraph::DependencyGraph;
use crate::placement::Placement;
use crate::slicing;
use crate::Instance;

/// Greedily places all policies of `instance`. Returns `None` if some
/// rule could not be placed on some path within capacity.
pub fn greedy_place(instance: &Instance) -> Option<Placement> {
    let mut remaining: Vec<usize> = instance.topology().capacities();
    let mut placement = Placement::new();
    for (ingress, _) in instance.policies() {
        place_policy(instance, ingress, &mut remaining, &mut placement, None)?;
    }
    Some(placement)
}

/// Greedily places a single policy against per-switch spare capacity,
/// extending `placement`. When `only_rule` is given, only that rule (plus
/// missing dependencies) is placed — the §IV-E single-rule update.
/// Returns `None` on failure (`placement` may then be partially extended).
pub fn place_policy(
    instance: &Instance,
    ingress: EntryPortId,
    remaining: &mut [usize],
    placement: &mut Placement,
    only_rule: Option<RuleId>,
) -> Option<()> {
    let policy = instance.policy(ingress)?;
    let graph = DependencyGraph::build(policy);
    for &rid in instance.routes().paths_from(ingress) {
        let route = instance.routes().route(rid);
        for w in slicing::sliced_drop_rules(policy, route) {
            if let Some(only) = only_rule {
                if w != only {
                    continue;
                }
            }
            // Already covered on this path?
            if route
                .switches
                .iter()
                .any(|s| placement.is_placed(ingress, w, *s))
            {
                continue;
            }
            // Find the first switch that can take the drop plus its
            // missing permit shields.
            let mut done = false;
            for &s in &route.switches {
                let mut needed: Vec<RuleId> = Vec::new();
                if !placement.is_placed(ingress, w, s) {
                    needed.push(w);
                }
                for &u in graph.permits_required_by(w) {
                    if !placement.is_placed(ingress, u, s) {
                        needed.push(u);
                    }
                }
                if needed.len() <= remaining[s.0] {
                    remaining[s.0] -= needed.len();
                    for r in needed {
                        placement.place(ingress, r, s);
                    }
                    done = true;
                    break;
                }
            }
            if !done {
                return None;
            }
        }
    }
    Some(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowplace_acl::{Action, Policy, Ternary};
    use flowplace_routing::{Route, RouteSet};
    use flowplace_topo::{SwitchId, Topology};

    fn t(s: &str) -> Ternary {
        Ternary::parse(s).unwrap()
    }

    fn chain_instance(capacity: usize) -> Instance {
        let mut topo = Topology::linear(3);
        topo.set_uniform_capacity(capacity);
        let mut routes = RouteSet::new();
        routes.push(Route::new(
            flowplace_topo::EntryPortId(0),
            flowplace_topo::EntryPortId(1),
            vec![SwitchId(0), SwitchId(1), SwitchId(2)],
        ));
        let policy = Policy::from_ordered(vec![
            (t("11**"), Action::Permit),
            (t("1***"), Action::Drop),
            (t("01**"), Action::Drop),
        ])
        .unwrap();
        Instance::new(topo, routes, vec![(EntryPortId(0), policy)]).unwrap()
    }

    #[test]
    fn places_at_ingress_when_room() {
        let inst = chain_instance(10);
        let p = greedy_place(&inst).expect("fits");
        // All three rules (drop 1 + its permit shield + drop 2) at s0.
        for r in 0..3 {
            let s = p.switches_of(EntryPortId(0), RuleId(r));
            assert_eq!(s.iter().copied().collect::<Vec<_>>(), vec![SwitchId(0)]);
        }
    }

    #[test]
    fn spills_downstream_when_tight() {
        let inst = chain_instance(2);
        let p = greedy_place(&inst).expect("fits across switches");
        // Pair (permit, drop) at s0; second drop spills to s1.
        assert!(p.is_placed(EntryPortId(0), RuleId(0), SwitchId(0)));
        assert!(p.is_placed(EntryPortId(0), RuleId(1), SwitchId(0)));
        assert!(p.is_placed(EntryPortId(0), RuleId(2), SwitchId(1)));
    }

    #[test]
    fn fails_when_capacity_too_small() {
        // Capacity 1 everywhere: the (permit, drop) pair can never fit.
        let inst = chain_instance(1);
        assert!(greedy_place(&inst).is_none());
    }

    #[test]
    fn shares_rules_across_paths() {
        // Two paths sharing a prefix: coverage on the shared switch
        // should not double-place.
        let mut b = flowplace_topo::TopologyBuilder::new();
        let s0 = b.add_switch("s0", 10);
        let s1 = b.add_switch("s1", 10);
        let s2 = b.add_switch("s2", 10);
        b.add_link(s0, s1).unwrap();
        b.add_link(s0, s2).unwrap();
        let l0 = b.add_entry_port("l0", s0).unwrap();
        let l1 = b.add_entry_port("l1", s1).unwrap();
        let l2 = b.add_entry_port("l2", s2).unwrap();
        let topo = b.build();
        let mut routes = RouteSet::new();
        routes.push(Route::new(l0, l1, vec![s0, s1]));
        routes.push(Route::new(l0, l2, vec![s0, s2]));
        let policy = Policy::from_ordered(vec![(t("1***"), Action::Drop)]).unwrap();
        let inst = Instance::new(topo, routes, vec![(l0, policy)]).unwrap();
        let p = greedy_place(&inst).unwrap();
        assert_eq!(p.total_rules(), 1, "one shared entry at s0 covers both");
    }

    #[test]
    fn single_rule_update_mode() {
        let inst = chain_instance(10);
        let mut remaining = inst.topology().capacities();
        let mut placement = Placement::new();
        place_policy(
            &inst,
            EntryPortId(0),
            &mut remaining,
            &mut placement,
            Some(RuleId(2)),
        )
        .expect("fits");
        // Only the requested drop is placed (its shields don't apply).
        assert_eq!(placement.total_rules(), 1);
        assert!(placement.is_placed(EntryPortId(0), RuleId(2), SwitchId(0)));
    }
}
