//! Incremental deployment (§IV-E of the paper).
//!
//! Solving the full ILP takes seconds to minutes — fine for the initial
//! configuration, too slow for routine updates. The paper's strategy,
//! implemented here:
//!
//! * **Small scale** (a rule added to one policy): the ingress-first
//!   greedy heuristic against spare capacity — [`add_rule_greedy`].
//!   A routing change is small too when the deployed placement already
//!   serves the new routes: [`reroute_greedy`] checks that coverage and
//!   keeps the placement as it is, moving no entry.
//! * **Medium scale** (tenant policies added, routes changed): one
//!   *restricted re-solve* — [`replace_ingresses`]: a sub-problem over
//!   only the affected policies, with every other placement frozen and
//!   switch capacities reduced to their spare, solved by [`par::solve`]
//!   with the ILP or (faster, feasibility-only) PB-SAT engine. The paper's two named operations
//!   are an [`Instance`] edit in front of it: [`install_policies`]
//!   attaches the new policies and routes, [`reroute_policy`] swaps one
//!   ingress's routes (the re-solve [`reroute_greedy`] escalates to).
//!   Restriction is conservative: the sub-problem can be infeasible even
//!   when a from-scratch solve is not; the caller can always fall back.
//! * **Large scale**: re-run [`par::solve`] from scratch.
//!
//! Every operation hands back the edited instance whether or not it
//! found a placement, so the caller escalates on that instance.

use flowplace_acl::{Policy, PolicyError, Rule, RuleId};
use flowplace_routing::{Route, RouteSet};
use flowplace_topo::{EntryPortId, SwitchId};

use crate::greedy;
use crate::par;
use crate::placement::{Placement, PlacementOptions, PlacementStats, SolveStatus};
use crate::slicing;
use crate::{Instance, InstanceError, Objective};

/// Result of an incremental operation.
#[derive(Clone, Debug)]
pub struct IncrementalOutcome {
    /// The updated instance (topology unchanged; routes/policies updated).
    pub instance: Instance,
    /// The updated placement, when the operation succeeded.
    pub placement: Option<Placement>,
    /// Status of the restricted sub-solve.
    pub status: SolveStatus,
    /// Effort of the restricted sub-solve (the default, all zero, for
    /// the greedy operations, which build no model).
    pub stats: PlacementStats,
}

/// Error from incremental operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IncrementalError {
    /// The updated inputs do not form a valid instance.
    Instance(InstanceError),
    /// The ingress already has / does not have a policy, as required.
    BadIngress(EntryPortId),
    /// The ingress's policy has no rule with this id.
    BadRule {
        /// The ingress whose policy was addressed.
        ingress: EntryPortId,
        /// The out-of-range rule id.
        rule: RuleId,
    },
    /// The edited rule list is not a valid policy.
    Policy(PolicyError),
}

impl std::fmt::Display for IncrementalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IncrementalError::Instance(e) => write!(f, "{e}"),
            IncrementalError::BadIngress(l) => write!(f, "ingress {l} not usable here"),
            IncrementalError::BadRule { ingress, rule } => {
                write!(f, "{ingress} has no rule {rule}")
            }
            IncrementalError::Policy(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for IncrementalError {}

impl From<InstanceError> for IncrementalError {
    fn from(e: InstanceError) -> Self {
        IncrementalError::Instance(e)
    }
}

/// Per-switch capacity left over by `placement` (the paper's Experiment 5
/// setup: the spare capacity becomes the capacity of the sub-problem).
pub fn spare_capacities(instance: &Instance, placement: &Placement) -> Vec<usize> {
    let load = placement.per_switch_load(instance);
    instance
        .topology()
        .capacities()
        .into_iter()
        .zip(load)
        .map(|(c, l)| c.saturating_sub(l))
        .collect()
}

/// The restricted re-solve behind every medium-scale operation: the
/// placements of `ingresses` are discarded, every other placement stays
/// frozen, and their policies are re-solved on their routes in
/// `instance` against the spare capacity.
fn restricted(
    instance: Instance,
    placement: &Placement,
    ingresses: &[EntryPortId],
    options: &PlacementOptions,
    objective: Objective,
) -> Result<IncrementalOutcome, IncrementalError> {
    let mut policies: Vec<(EntryPortId, Policy)> = Vec::new();
    for &l in ingresses {
        let Some(q) = instance.policy(l) else {
            return Err(IncrementalError::BadIngress(l));
        };
        policies.push((l, q.clone()));
    }
    let mut frozen = placement.clone();
    for &l in ingresses {
        frozen.remove_ingress(l);
    }
    // Whole set in `routes()` order: the walk's rows, and so the search, follow it.
    let sub_routes: RouteSet = instance
        .routes()
        .iter()
        .filter(|r| ingresses.contains(&r.ingress))
        .cloned()
        .collect();
    let mut topo = instance.topology().clone();
    for (i, c) in spare_capacities(&instance, &frozen).into_iter().enumerate() {
        topo.set_capacity(SwitchId(i), c);
    }
    let sub = Instance::new(topo, sub_routes, policies)?;
    let outcome = par::solve(&sub, objective, options, None);
    let placement = outcome.placement.map(|sub_placement| {
        frozen.absorb(sub_placement);
        frozen
    });
    Ok(IncrementalOutcome {
        instance,
        placement,
        status: outcome.status,
        stats: outcome.stats,
    })
}

/// Installs new ingress policies (with their routes) against the spare
/// capacity, leaving every existing placement untouched (§IV-E "Ingress
/// Policy Installation" / Experiment 5 part 1).
///
/// # Errors
///
/// [`IncrementalError::BadIngress`] if an addition targets an ingress
/// that already has a policy; instance-validation failures otherwise.
/// A `SolveStatus::Infeasible` outcome is *not* an error — it reports
/// that the restricted problem has no solution (a from-scratch solve
/// might).
pub fn install_policies(
    instance: &Instance,
    placement: &Placement,
    additions: Vec<(EntryPortId, Policy, Vec<Route>)>,
    options: &PlacementOptions,
    objective: Objective,
) -> Result<IncrementalOutcome, IncrementalError> {
    let mut edited = instance.clone();
    let mut ingresses = Vec::with_capacity(additions.len());
    for (l, q, routes) in additions {
        if edited.policy(l).is_some() {
            return Err(IncrementalError::BadIngress(l));
        }
        edited.set_policy(l, q)?;
        edited.set_routes_from(l, routes)?;
        ingresses.push(l);
    }
    restricted(edited, placement, &ingresses, options, objective)
}

/// Re-places a single policy after its routes changed (§IV-E "Routing
/// Policy Change" / Experiment 5 part 2): the old placement of `ingress`
/// is discarded, all other placements stay frozen, and the policy is
/// re-solved against the spare capacity on its new routes.
///
/// # Errors
///
/// [`IncrementalError::BadIngress`] if `ingress` has no policy;
/// instance-validation failures otherwise.
pub fn reroute_policy(
    instance: &Instance,
    placement: &Placement,
    ingress: EntryPortId,
    new_routes: Vec<Route>,
    options: &PlacementOptions,
    objective: Objective,
) -> Result<IncrementalOutcome, IncrementalError> {
    let edited = rerouted(instance, ingress, new_routes)?;
    restricted(edited, placement, &[ingress], options, objective)
}

/// `instance` with `ingress`'s routes replaced by `new_routes`: the
/// edit in front of both reroute operations.
fn rerouted(
    instance: &Instance,
    ingress: EntryPortId,
    new_routes: Vec<Route>,
) -> Result<Instance, IncrementalError> {
    if instance.policy(ingress).is_none() {
        return Err(IncrementalError::BadIngress(ingress));
    }
    let mut edited = instance.clone();
    edited.set_routes_from(ingress, new_routes)?;
    Ok(edited)
}

/// Swaps one ingress's routes and keeps the deployed placement when it
/// already serves them — the greedy tier of a routing change, named
/// after [`add_rule_greedy`]: no solve, no entry moved. The placement
/// is kept only if the ingress is in no merge group, every switch
/// holding one of its entries lies on a new route and is within its
/// capacity in the edited instance (an out-of-service switch has
/// capacity 0 there), and on every new route each sliced DROP sits on
/// some switch together with its Eq. 1 shields — every higher-priority
/// PERMIT it overlaps, as [`greedy::place_rule`] picks them — and on no
/// switch of the route without them.
///
/// Of the placement's entries only the ingress's own share is read,
/// beside the merge groups and the per-switch load counts. A kept
/// placement is a clone of `placement`, sharing every ingress's map,
/// so nothing downstream sees a changed entry.
/// `SolveStatus::Infeasible` (with `placement: None`) says the
/// placement does not serve the new routes; the caller should escalate
/// to a [`replace_ingresses`] sub-solve of the returned instance, which
/// is what [`reroute_policy`] computes.
///
/// # Errors
///
/// Same as [`reroute_policy`].
pub fn reroute_greedy(
    instance: &Instance,
    placement: &Placement,
    ingress: EntryPortId,
    new_routes: Vec<Route>,
) -> Result<IncrementalOutcome, IncrementalError> {
    let edited = rerouted(instance, ingress, new_routes)?;
    let kept = serves(&edited, placement, ingress).then(|| placement.clone());
    let status = if kept.is_some() {
        SolveStatus::Feasible
    } else {
        SolveStatus::Infeasible
    };
    Ok(IncrementalOutcome {
        instance: edited,
        placement: kept,
        status,
        stats: PlacementStats::default(),
    })
}

/// Whether `placement`'s entries of `ingress` are a correct placement
/// of its policy on its routes in `instance`: the checks of
/// [`reroute_greedy`].
fn serves(instance: &Instance, placement: &Placement, ingress: EntryPortId) -> bool {
    let merged = placement.merge_groups().iter();
    if merged.flat_map(|g| &g.members).any(|(l, _)| *l == ingress) {
        return false;
    }
    let (routes, topology) = (instance.routes(), instance.topology());
    let paths = routes.paths_from(ingress);
    if let Some(share) = placement.share(ingress) {
        let load = placement.per_switch_load(instance);
        for &s in share.switches() {
            let on_route = paths.iter().any(|&id| routes.route(id).contains(s));
            if !on_route || load[s.0] > topology.capacity(s) {
                return false;
            }
        }
    }
    let policy = instance.policy(ingress).expect("checked by the caller");
    let rules = policy.rules();
    paths.iter().all(|&id| {
        let route = routes.route(id);
        slicing::sliced_drop_rules(policy, route).all(|w| {
            let mut holding = route
                .switches
                .iter()
                .filter(|&&s| placement.is_placed(ingress, w, s))
                .peekable();
            if holding.peek().is_none() {
                return false;
            }
            let shields: Vec<RuleId> = (0..w.0)
                .filter(|&u| rules[u].action().is_permit() && rules[u].overlaps(&rules[w.0]))
                .map(RuleId)
                .collect();
            holding.all(|&s| shields.iter().all(|&u| placement.is_placed(ingress, u, s)))
        })
    })
}

/// Re-places the policies of a set of ingresses on their *existing*
/// routes — the §IV-E restricted re-solve a fault-tolerant controller
/// runs when a switch is quarantined or crashes: the controller zeroes
/// the dead switch's capacity in `instance`, every other ingress's
/// placement stays frozen, and the affected policies are re-solved
/// against what spare remains.
///
/// Routes are not changed; a route through a zero-capacity switch
/// simply cannot host rules there, so coverage must land on its
/// surviving hops.
///
/// # Errors
///
/// [`IncrementalError::BadIngress`] if any ingress has no policy;
/// instance-validation failures otherwise. A `SolveStatus::Infeasible`
/// outcome is *not* an error — the caller escalates (full re-solve, then
/// fail-closed safe mode).
pub fn replace_ingresses(
    instance: &Instance,
    placement: &Placement,
    ingresses: &[EntryPortId],
    options: &PlacementOptions,
    objective: Objective,
) -> Result<IncrementalOutcome, IncrementalError> {
    restricted(instance.clone(), placement, ingresses, options, objective)
}

/// Adds one rule to an existing policy and places it with the ingress-
/// first greedy heuristic against spare capacity (§IV-E small-scale
/// update, [`greedy::place_rule`]). Existing placements are untouched: a
/// new DROP brings its missing PERMIT shields, a new PERMIT is co-placed
/// with the placed DROPs it shields.
///
/// Returns `SolveStatus::Infeasible` (with `placement: None`) when the
/// greedy heuristic cannot fit the rule — the caller should escalate to
/// a [`replace_ingresses`] sub-solve of the returned instance or a full
/// re-solve.
///
/// # Errors
///
/// [`IncrementalError::BadIngress`] if `ingress` has no policy;
/// [`IncrementalError::Policy`] if the policy cannot take the rule
/// (duplicate priority, mixed widths); instance validation otherwise.
pub fn add_rule_greedy(
    instance: &Instance,
    placement: &Placement,
    ingress: EntryPortId,
    rule: Rule,
) -> Result<IncrementalOutcome, IncrementalError> {
    let Some(policy) = instance.policy(ingress) else {
        return Err(IncrementalError::BadIngress(ingress));
    };
    let new_policy = policy.with_rule(rule).map_err(IncrementalError::Policy)?;
    // Index of the new rule in the updated priority order.
    let new_id = new_policy
        .iter()
        .find(|(_, r)| **r == rule)
        .map(|(id, _)| id)
        .expect("rule was just inserted");
    let mut updated = instance.clone();
    updated.set_policy(ingress, new_policy)?;

    // Rule ids at or above the insertion point shift by one.
    let mut result = placement.clone();
    result.renumber(ingress, new_id, |r| Some(RuleId(r.0 + 1)));

    let mut remaining = spare_capacities(&updated, &result);
    let placement =
        greedy::place_rule(&updated, ingress, new_id, &mut remaining, &mut result).map(|()| result);
    let status = if placement.is_some() {
        SolveStatus::Feasible
    } else {
        SolveStatus::Infeasible
    };
    Ok(IncrementalOutcome {
        instance: updated,
        placement,
        status,
        stats: PlacementStats::default(),
    })
}

/// Removes one rule from a policy and from the deployed placement
/// (§IV-E: "rule deletion is relatively easy"). Existing placements of
/// other rules are untouched; freed capacity becomes spare. Merge groups
/// containing the rule are dissolved (remaining members keep their own
/// entries, which never exceeds capacity since the shared entry already
/// accounted one slot and members were placed individually in the
/// placement map).
///
/// # Errors
///
/// [`IncrementalError::BadIngress`] if `ingress` has no policy,
/// [`IncrementalError::BadRule`] if `rule` is out of range.
pub fn remove_rule(
    instance: &Instance,
    placement: &Placement,
    ingress: EntryPortId,
    rule: RuleId,
) -> Result<IncrementalOutcome, IncrementalError> {
    let Some(policy) = instance.policy(ingress) else {
        return Err(IncrementalError::BadIngress(ingress));
    };
    if rule.0 >= policy.len() {
        return Err(IncrementalError::BadRule { ingress, rule });
    }
    let mut updated = instance.clone();
    updated.set_policy(ingress, policy.without_rule(rule))?;
    // Drop the removed rule's entries; ids above it shift down by one.
    let mut shifted = placement.clone();
    shifted.renumber(ingress, rule, |r| (r != rule).then(|| RuleId(r.0 - 1)));
    Ok(IncrementalOutcome {
        instance: updated,
        placement: Some(shifted),
        status: SolveStatus::Feasible,
        stats: PlacementStats::default(),
    })
}

/// Replaces one rule of a policy — modeled, as the paper suggests, as a
/// deletion followed by an insertion placed by the greedy heuristic.
///
/// # Errors
///
/// Same as [`remove_rule`] / [`add_rule_greedy`].
pub fn modify_rule(
    instance: &Instance,
    placement: &Placement,
    ingress: EntryPortId,
    rule: RuleId,
    replacement: Rule,
) -> Result<IncrementalOutcome, IncrementalError> {
    let removed = remove_rule(instance, placement, ingress, rule)?;
    let mid_placement = removed.placement.expect("removal always succeeds");
    add_rule_greedy(&removed.instance, &mid_placement, ingress, replacement)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::verify_placement;
    use flowplace_acl::{Action, Ternary};
    use flowplace_topo::{SwitchId, Topology};

    fn t(s: &str) -> Ternary {
        Ternary::parse(s).unwrap()
    }

    /// Star topology: two leaf ingresses, hub, one egress leaf.
    fn base() -> (Instance, Placement) {
        let mut topo = Topology::star(3);
        topo.set_uniform_capacity(6);
        let mut routes = RouteSet::new();
        routes.push(Route::new(
            EntryPortId(0),
            EntryPortId(2),
            vec![SwitchId(1), SwitchId(0), SwitchId(3)],
        ));
        let q0 = Policy::from_ordered(vec![(t("11**"), Action::Permit), (t("1***"), Action::Drop)])
            .unwrap();
        let inst = Instance::new(topo, routes, vec![(EntryPortId(0), q0)]).unwrap();
        let placement = par::solve(
            &inst,
            Objective::TotalRules,
            &PlacementOptions::default(),
            None,
        )
        .placement
        .unwrap();
        (inst, placement)
    }

    #[test]
    fn spare_capacity_accounts_for_load() {
        let (inst, p) = base();
        let spare = spare_capacities(&inst, &p);
        let total_spare: usize = spare.iter().sum();
        assert_eq!(total_spare, 4 * 6 - p.total_rules());
    }

    #[test]
    fn install_policy_on_new_ingress() {
        let (inst, p) = base();
        let q1 = Policy::from_ordered(vec![(t("0***"), Action::Drop)]).unwrap();
        let route = Route::new(
            EntryPortId(1),
            EntryPortId(2),
            vec![SwitchId(2), SwitchId(0), SwitchId(3)],
        );
        let out = install_policies(
            &inst,
            &p,
            vec![(EntryPortId(1), q1, vec![route])],
            &PlacementOptions::default(),
            Objective::TotalRules,
        )
        .unwrap();
        assert_eq!(out.status, SolveStatus::Optimal);
        let full = out.placement.unwrap();
        verify_placement(&out.instance, &full, 64, 1).expect("combined placement correct");
        assert!(full.total_rules() > p.total_rules());
    }

    #[test]
    fn install_rejects_existing_ingress() {
        let (inst, p) = base();
        let q = Policy::from_ordered(vec![(t("0***"), Action::Drop)]).unwrap();
        let e = install_policies(
            &inst,
            &p,
            vec![(EntryPortId(0), q, vec![])],
            &PlacementOptions::default(),
            Objective::TotalRules,
        )
        .unwrap_err();
        assert_eq!(e, IncrementalError::BadIngress(EntryPortId(0)));
    }

    #[test]
    fn install_infeasible_when_no_spare() {
        let (mut inst, _) = base();
        // Shrink capacities to zero spare.
        for s in 0..inst.topology().switch_count() {
            inst.set_capacity(SwitchId(s), 0);
        }
        let q1 = Policy::from_ordered(vec![(t("0***"), Action::Drop)]).unwrap();
        let route = Route::new(
            EntryPortId(1),
            EntryPortId(2),
            vec![SwitchId(2), SwitchId(0), SwitchId(3)],
        );
        let out = install_policies(
            &inst,
            &Placement::new(),
            vec![(EntryPortId(1), q1, vec![route])],
            &PlacementOptions::default(),
            Objective::TotalRules,
        )
        .unwrap();
        assert_eq!(out.status, SolveStatus::Infeasible);
        assert!(out.placement.is_none());
    }

    #[test]
    fn reroute_policy_moves_rules() {
        let (inst, p) = base();
        // New route through the other leaf (switch 2).
        let new_route = Route::new(
            EntryPortId(0),
            EntryPortId(1),
            vec![SwitchId(1), SwitchId(0), SwitchId(2)],
        );
        let out = reroute_policy(
            &inst,
            &p,
            EntryPortId(0),
            vec![new_route],
            &PlacementOptions::default(),
            Objective::TotalRules,
        )
        .unwrap();
        assert_eq!(out.status, SolveStatus::Optimal);
        let full = out.placement.unwrap();
        verify_placement(&out.instance, &full, 64, 2).expect("rerouted placement correct");
    }

    #[test]
    fn replace_ingresses_avoids_zero_capacity_switches() {
        let (inst, p) = base();
        // The deployed placement put ingress 0's rules somewhere on its
        // route s1-s0-s3; zero whichever switches it used and re-place.
        let used: Vec<SwitchId> = (0..4)
            .map(SwitchId)
            .filter(|s| {
                p.held_switches()
                    .any(|(l, held)| l == EntryPortId(0) && held.contains(s))
            })
            .collect();
        assert!(!used.is_empty());
        let mut zeroed = inst.clone();
        for &s in &used {
            zeroed.set_capacity(s, 0);
        }
        let out = replace_ingresses(
            &zeroed,
            &p,
            &[EntryPortId(0)],
            &PlacementOptions::default(),
            Objective::TotalRules,
        )
        .unwrap();
        assert_eq!(out.status, SolveStatus::Optimal);
        let q = out.placement.unwrap();
        for ((_, _), switches) in q.iter() {
            for s in switches {
                assert!(!used.contains(&s), "rule still on zeroed {s}");
            }
        }
        verify_placement(&out.instance, &q, 64, 11).expect("re-placed placement correct");
    }

    #[test]
    fn replace_ingresses_infeasible_when_every_capacity_is_zero() {
        let (inst, p) = base();
        let mut zeroed = inst.clone();
        for s in 0..4 {
            zeroed.set_capacity(SwitchId(s), 0);
        }
        let out = replace_ingresses(
            &zeroed,
            &p,
            &[EntryPortId(0)],
            &PlacementOptions::default(),
            Objective::TotalRules,
        )
        .unwrap();
        assert_eq!(out.status, SolveStatus::Infeasible);
        assert!(out.placement.is_none());
        assert!(replace_ingresses(
            &inst,
            &p,
            &[EntryPortId(3)],
            &PlacementOptions::default(),
            Objective::TotalRules,
        )
        .is_err());
    }

    #[test]
    fn add_drop_rule_greedily() {
        let (inst, p) = base();
        let out = add_rule_greedy(
            &inst,
            &p,
            EntryPortId(0),
            Rule::new(t("00**"), Action::Drop, 0),
        )
        .unwrap();
        assert_eq!(out.status, SolveStatus::Feasible);
        let full = out.placement.unwrap();
        verify_placement(&out.instance, &full, 64, 3).expect("rule added correctly");
    }

    #[test]
    fn add_permit_rule_shields_existing_drops() {
        let (inst, p) = base();
        // New top-priority PERMIT overlapping the existing DROP 1***.
        let top = inst.policy(EntryPortId(0)).unwrap().rules()[0].priority() + 1;
        let out = add_rule_greedy(
            &inst,
            &p,
            EntryPortId(0),
            Rule::new(t("10**"), Action::Permit, top),
        )
        .unwrap();
        assert_eq!(out.status, SolveStatus::Feasible);
        let full = out.placement.unwrap();
        verify_placement(&out.instance, &full, 64, 4).expect("permit shields correctly");
    }

    #[test]
    fn remove_rule_frees_capacity_and_stays_correct() {
        let (inst, p) = base();
        let before = p.total_rules();
        // Remove the DROP (rule 1): its PERMIT shield (rule 0) becomes
        // removable by a later redundancy pass, but placement-wise only
        // the drop's entries disappear now.
        let out = remove_rule(&inst, &p, EntryPortId(0), RuleId(1)).unwrap();
        let q = out.placement.unwrap();
        assert!(q.total_rules() < before);
        verify_placement(&out.instance, &q, 64, 7).expect("still correct");
        assert_eq!(out.instance.policy(EntryPortId(0)).unwrap().len(), 1);
    }

    #[test]
    fn remove_rule_bad_ids_rejected() {
        let (inst, p) = base();
        assert_eq!(
            remove_rule(&inst, &p, EntryPortId(3), RuleId(0)).unwrap_err(),
            IncrementalError::BadIngress(EntryPortId(3))
        );
        let e = remove_rule(&inst, &p, EntryPortId(0), RuleId(9)).unwrap_err();
        assert_eq!(e.to_string(), "l0 has no rule r9");
    }

    #[test]
    fn modify_rule_swaps_semantics() {
        let (inst, p) = base();
        // Narrow the DROP from 1*** to 10**.
        let prio = inst
            .policy(EntryPortId(0))
            .unwrap()
            .rule(RuleId(1))
            .priority();
        let out = modify_rule(
            &inst,
            &p,
            EntryPortId(0),
            RuleId(1),
            Rule::new(t("10**"), Action::Drop, prio),
        )
        .unwrap();
        assert_eq!(out.status, SolveStatus::Feasible);
        let q = out.placement.unwrap();
        verify_placement(&out.instance, &q, 64, 8).expect("modified policy deployed");
        // 11** packets are now permitted end to end.
        let tables = crate::tables::emit_tables(&out.instance, &q).unwrap();
        let route = out.instance.routes().route(flowplace_routing::RouteId(0));
        let pkt = flowplace_acl::Packet::from_bits(0b1100, 4);
        assert_eq!(
            crate::verify::evaluate_route(&tables, route, &pkt),
            Action::Permit
        );
    }

    #[test]
    fn add_rule_infeasible_with_no_capacity() {
        let (mut inst, p) = base();
        // Exhaust capacity.
        for (i, l) in p.per_switch_load(&inst).into_iter().enumerate() {
            inst.set_capacity(SwitchId(i), l);
        }
        let out = add_rule_greedy(
            &inst,
            &p,
            EntryPortId(0),
            Rule::new(t("00**"), Action::Drop, 0),
        )
        .unwrap();
        assert_eq!(out.status, SolveStatus::Infeasible);
    }

    /// `l0`'s entries `(rule, switch)` on the [`base`] instance, by hand,
    /// so each case below states exactly what the check reads.
    fn held(entries: &[(usize, usize)]) -> Placement {
        let mut p = Placement::new();
        for &(r, s) in entries {
            p.place(EntryPortId(0), RuleId(r), SwitchId(s));
        }
        p
    }

    /// `l0` onto leaf `l(egress)` through the hub.
    fn via_hub(egress: usize) -> Route {
        let hops = vec![SwitchId(1), SwitchId(0), SwitchId(egress + 1)];
        Route::new(EntryPortId(0), EntryPortId(egress), hops)
    }

    /// Reroutes `l0` with [`reroute_greedy`], checks that the returned
    /// instance carries the new routes either way, and returns the kept
    /// placement.
    fn reroute_kept(inst: &Instance, p: &Placement, routes: Vec<Route>) -> Option<Placement> {
        let out = reroute_greedy(inst, p, EntryPortId(0), routes.clone()).unwrap();
        let now = out.instance.routes();
        let now: Vec<Route> = (now.paths_from(EntryPortId(0)).iter())
            .map(|&id| now.route(id).clone())
            .collect();
        assert_eq!(now, routes, "the edited instance carries the new routes");
        let want = if out.placement.is_some() {
            SolveStatus::Feasible
        } else {
            SolveStatus::Infeasible
        };
        assert_eq!(out.status, want);
        out.placement
    }

    #[test]
    fn covered_reroute_keeps_the_placement() {
        let (inst, _) = base();
        // DROP r1 and its shield r0 on the hub, which both routes cross.
        let p = held(&[(0, 0), (1, 0)]);
        assert_eq!(reroute_kept(&inst, &p, vec![via_hub(1)]).as_ref(), Some(&p));
        let out = reroute_greedy(&inst, &p, EntryPortId(0), vec![via_hub(1)]).unwrap();
        verify_placement(&out.instance, &p, 64, 21).expect("kept placement correct");
        assert_eq!(
            reroute_greedy(&inst, &p, EntryPortId(3), vec![]).unwrap_err(),
            IncrementalError::BadIngress(EntryPortId(3))
        );
    }

    #[test]
    fn reroute_greedy_declines_an_uncovered_sliced_drop() {
        let (inst, _) = base();
        // On leaf s2, which the second new route does not cross.
        let p = held(&[(0, 2), (1, 2)]);
        assert!(reroute_kept(&inst, &p, vec![via_hub(1)]).is_some());
        assert_eq!(reroute_kept(&inst, &p, vec![via_hub(1), via_hub(2)]), None);
    }

    #[test]
    fn reroute_greedy_declines_an_entry_off_the_new_routes() {
        let (inst, _) = base();
        // The hub covers the new route; the copy on s3 left the routes.
        let p = held(&[(0, 0), (1, 0), (0, 3), (1, 3)]);
        assert_eq!(reroute_kept(&inst, &p, vec![via_hub(1)]), None);
    }

    #[test]
    fn reroute_greedy_declines_a_drop_without_its_shield() {
        let (inst, _) = base();
        // r1 on the hub, its shield r0 one hop earlier.
        let p = held(&[(0, 1), (1, 0)]);
        assert_eq!(reroute_kept(&inst, &p, vec![via_hub(1)]), None);
    }

    #[test]
    fn reroute_greedy_declines_a_merged_ingress() {
        let (inst, _) = base();
        let mut p = held(&[(0, 0), (1, 0)]);
        assert!(reroute_kept(&inst, &p, vec![via_hub(1)]).is_some());
        p.place(EntryPortId(1), RuleId(0), SwitchId(0));
        p.record_merge(crate::merge::MergeGroup {
            switch: SwitchId(0),
            match_field: t("1***"),
            action: Action::Drop,
            members: vec![(EntryPortId(0), RuleId(1)), (EntryPortId(1), RuleId(0))],
        });
        assert_eq!(reroute_kept(&inst, &p, vec![via_hub(1)]), None);
    }

    #[test]
    fn reroute_greedy_declines_a_switch_without_capacity() {
        let (mut inst, _) = base();
        let p = held(&[(0, 0), (1, 0)]);
        inst.set_capacity(SwitchId(0), 0);
        assert_eq!(reroute_kept(&inst, &p, vec![via_hub(1)]), None);
        inst.set_capacity(SwitchId(0), 2);
        assert!(reroute_kept(&inst, &p, vec![via_hub(1)]).is_some());
    }

    #[test]
    fn reroute_greedy_onto_no_route() {
        let (inst, _) = base();
        // Placed entries have no route left to serve.
        let p = held(&[(0, 0), (1, 0)]);
        assert_eq!(reroute_kept(&inst, &p, vec![]), None);
        // Nothing placed, nothing to cover: the (empty) placement stays.
        assert_eq!(
            reroute_kept(&inst, &Placement::new(), vec![]),
            Some(Placement::new())
        );
    }
}
