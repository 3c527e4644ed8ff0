//! Ingress-first greedy placement (§IV-E, small-scale updates).
//!
//! "If a new rule is added to the policy, we can try to place the rules as
//! close to the ingress as possible." [`place_rule`] is that update, and
//! reads only the added rule's own Eq. 1 pairs. [`greedy_place`] runs the
//! same cover step for every DROP of an instance: it is the ILP's warm
//! start ([`crate::PlacementOptions::greedy_warm_start`]) and the `greedy`
//! arm of the differential tests.
//!
//! A DROP is covered on each route it is sliced onto at the switch nearest
//! the ingress with room for it and its missing PERMIT shields; a PERMIT
//! is co-placed with the lower-priority DROPs it overlaps. Success yields
//! a correct placement; failure proves nothing (that is the ILP's job).

use flowplace_acl::RuleId;
use flowplace_routing::Route;
use flowplace_topo::{EntryPortId, SwitchId};

use crate::depgraph::DependencyGraph;
use crate::placement::Placement;
use crate::slicing;
use crate::Instance;

/// Greedily places all policies of `instance`. Returns `None` if some
/// rule could not be placed on some path within capacity.
pub fn greedy_place(instance: &Instance) -> Option<Placement> {
    let mut remaining: Vec<usize> = instance.topology().capacities();
    let mut placement = Placement::new();
    for (ingress, policy) in instance.policies() {
        let graph = DependencyGraph::build(policy);
        for &rid in instance.routes().paths_from(ingress) {
            let route = instance.routes().route(rid);
            for w in slicing::sliced_drop_rules(policy, route) {
                let shields = graph.permits_required_by(w);
                cover(ingress, w, shields, route, &mut remaining, &mut placement)?;
            }
        }
    }
    Some(placement)
}

/// Places rule `rule` of `ingress`'s policy, just added to `placement`,
/// against per-switch spare capacity `remaining`: a DROP with the
/// higher-priority PERMITs it overlaps, a PERMIT on the switches of the
/// lower-priority DROPs it overlaps. `None` if the ingress has no policy
/// or the rule does not fit (`placement` may then be partially extended).
pub fn place_rule(
    instance: &Instance,
    ingress: EntryPortId,
    rule: RuleId,
    remaining: &mut [usize],
    placement: &mut Placement,
) -> Option<()> {
    let policy = instance.policy(ingress)?;
    let (rules, added) = (policy.rules(), policy.rule(rule));
    if added.action().is_drop() {
        let shields: Vec<RuleId> = (0..rule.0)
            .filter(|&u| rules[u].action().is_permit() && rules[u].overlaps(added))
            .map(RuleId)
            .collect();
        for &rid in instance.routes().paths_from(ingress) {
            let route = instance.routes().route(rid);
            if slicing::on_route(added, route) {
                cover(ingress, rule, &shields, route, remaining, placement)?;
            }
        }
        return Some(());
    }
    let mut needed: Vec<SwitchId> = (rule.0 + 1..rules.len())
        .filter(|&w| rules[w].action().is_drop() && added.overlaps(&rules[w]))
        .flat_map(|w| placement.switches_of(ingress, RuleId(w)))
        .copied()
        .filter(|&s| !placement.is_placed(ingress, rule, s))
        .collect();
    needed.sort_unstable();
    needed.dedup();
    for s in needed {
        remaining[s.0] = remaining[s.0].checked_sub(1)?;
        placement.place(ingress, rule, s);
    }
    Some(())
}

/// Covers DROP `w` on `route` unless a switch of it already holds `w`:
/// at the first switch with room for `w` and its missing `shields`.
/// `None` if no switch has room.
fn cover(
    ingress: EntryPortId,
    w: RuleId,
    shields: &[RuleId],
    route: &Route,
    remaining: &mut [usize],
    placement: &mut Placement,
) -> Option<()> {
    let switches = &route.switches;
    if switches.iter().any(|&s| placement.is_placed(ingress, w, s)) {
        return Some(());
    }
    for &s in switches {
        let needed: Vec<RuleId> = std::iter::once(w)
            .chain(shields.iter().copied())
            .filter(|&r| !placement.is_placed(ingress, r, s))
            .collect();
        if needed.len() <= remaining[s.0] {
            remaining[s.0] -= needed.len();
            for r in needed {
                placement.place(ingress, r, s);
            }
            return Some(());
        }
    }
    None
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
        place_rule(
            &inst,
            EntryPortId(0),
            RuleId(2),
            &mut remaining,
            &mut placement,
        )
        .expect("fits");
        // Only the requested drop is placed: no PERMIT overlaps `01**`,
        // so it needs no shield.
        assert_eq!(placement.total_rules(), 1);
        assert!(placement.is_placed(EntryPortId(0), RuleId(2), SwitchId(0)));
    }

    /// The single-rule add as it was before [`place_rule`]: the whole
    /// policy's dependency graph, then for a DROP the greedy route scan
    /// filtered to the one rule, for a PERMIT the graph's shield lists.
    fn reference_place_rule(
        instance: &Instance,
        ingress: EntryPortId,
        rule: RuleId,
        remaining: &mut [usize],
        placement: &mut Placement,
    ) -> Option<()> {
        let policy = instance.policy(ingress)?;
        let graph = DependencyGraph::build(policy);
        if policy.rule(rule).action().is_drop() {
            for &rid in instance.routes().paths_from(ingress) {
                let route = instance.routes().route(rid);
                for w in slicing::sliced_drop_rules(policy, route) {
                    if w != rule
                        || (route.switches.iter()).any(|s| placement.is_placed(ingress, w, *s))
                    {
                        continue;
                    }
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
            return Some(());
        }
        let mut needed: Vec<SwitchId> = Vec::new();
        for (w, r) in policy.iter() {
            if r.action().is_drop() && graph.permits_required_by(w).contains(&rule) {
                needed.extend(placement.switches_of(ingress, w).iter().copied());
            }
        }
        needed.sort_unstable();
        needed.dedup();
        for s in needed {
            if placement.is_placed(ingress, rule, s) {
                continue;
            }
            if remaining[s.0] == 0 {
                return None;
            }
            remaining[s.0] -= 1;
            placement.place(ingress, rule, s);
        }
        Some(())
    }

    /// [`place_rule`] against [`reference_place_rule`] on seeded random
    /// streams of DROP and PERMIT adds to two tenants on `star(5)`, some
    /// routes flow-sliced, capacities tight: after every add both return
    /// the same `Option`, `Placement` and spare capacities. An add that
    /// fits is kept, one that does not is undone, as a controller would.
    #[test]
    fn place_rule_matches_the_dependency_graph_reference() {
        use crate::incremental::spare_capacities;
        use flowplace_acl::Rule;
        use flowplace_rng::{Rng, StdRng};
        fn cube(rng: &mut StdRng) -> Ternary {
            Ternary::new(4, rng.gen_range(0u128..16), rng.gen_range(0u128..16))
        }
        let mut rng = StdRng::seed_from_u64(0x6EED_1E00);
        let (mut drops, mut permits, mut infeasible, mut shielded, mut sliced_off) =
            (0, 0, 0, 0, 0);
        for case in 0..48 {
            // Hub s0; tenant l{i} enters at leaf s{i + 1}.
            let mut topo = Topology::star(5);
            topo.set_uniform_capacity(rng.gen_range(2..=5usize));
            let mut routes = RouteSet::new();
            let mut policies = Vec::new();
            for l in [EntryPortId(0), EntryPortId(1)] {
                for e in (2..5).map(EntryPortId) {
                    let hops = vec![SwitchId(l.0 + 1), SwitchId(0), SwitchId(e.0 + 1)];
                    let mut route = Route::new(l, e, hops);
                    if rng.gen_bool(0.5) {
                        route = route.with_flow(cube(&mut rng));
                    }
                    routes.push(route);
                }
                let spec = (cube(&mut rng), Action::Drop);
                policies.push((l, Policy::from_ordered(vec![spec]).unwrap()));
            }
            let mut inst = Instance::new(topo, routes, policies).unwrap();
            let mut placement = greedy_place(&inst).unwrap_or_default();
            for step in 0..16 {
                let l = EntryPortId(rng.gen_range(0..2usize));
                let action = if rng.gen_bool(0.5) {
                    Action::Drop
                } else {
                    Action::Permit
                };
                let rule = Rule::new(cube(&mut rng), action, rng.gen_range(0..64u32));
                let Ok(policy) = inst.policy(l).unwrap().with_rule(rule) else {
                    continue; // duplicate priority
                };
                let id = policy.iter().find(|(_, r)| **r == rule).unwrap().0;
                let mut next = inst.clone();
                next.set_policy(l, policy).unwrap();
                let mut before = placement.clone();
                before.renumber(l, id, |r| Some(RuleId(r.0 + 1)));
                let spare = spare_capacities(&next, &before);
                let (mut got, mut got_spare) = (before.clone(), spare.clone());
                let (mut want, mut want_spare) = (before.clone(), spare);
                let got_ok = place_rule(&next, l, id, &mut got_spare, &mut got);
                let want_ok = reference_place_rule(&next, l, id, &mut want_spare, &mut want);
                let why = format!("case {case}, step {step}: {l} r{} {action:?}", id.0);
                assert_eq!(got_ok, want_ok, "{why}");
                assert_eq!(got, want, "{why}");
                assert_eq!(got_spare, want_spare, "{why}");
                if action.is_drop() {
                    drops += 1;
                    let flows = next.routes().paths_from(l).iter();
                    let flows = flows.filter_map(|&rid| next.routes().route(rid).flow);
                    sliced_off += flows.filter(|f| !rule.match_field().intersects(f)).count();
                } else {
                    permits += 1;
                }
                if want_ok.is_none() {
                    infeasible += 1;
                    continue;
                }
                // Only the DROP's shields sit below its id.
                let shield_added = if action.is_drop() {
                    (0..id.0)
                        .any(|u| want.switches_of(l, RuleId(u)) != before.switches_of(l, RuleId(u)))
                } else {
                    !want.switches_of(l, id).is_empty()
                };
                shielded += usize::from(shield_added);
                (inst, placement) = (next, want);
            }
        }
        let tally = [drops, permits, infeasible, shielded, sliced_off];
        assert!(tally.iter().all(|&n| n > 0), "{tally:?}");
    }
}
