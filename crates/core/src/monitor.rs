//! Monitor-aware placement — the paper's §VII future-work extension.
//!
//! > "we plan to explore more complex rule placement constraints, e.g. if
//! > the network wants to monitor certain packets, we do not want to let
//! > firewall rules block the packets before they reach the monitoring
//! > rules."
//!
//! A [`MonitorRequirement`] names a switch carrying monitoring rules and
//! the flow it must observe. Placement must then ensure that packets of
//! that flow are not dropped *upstream* of the monitor on any path that
//! passes through it — the DROP still happens (policy semantics are never
//! weakened), just at or after the monitoring switch.
//!
//! Implementation: a DROP rule whose match field intersects the monitored
//! flow loses its placement candidates on switches that precede the
//! monitor on any route traversing it. The coverage constraints then
//! force the drop onto the suffix (or prove the combination infeasible,
//! which the solver reports rather than silently violating either
//! requirement).

use flowplace_acl::Ternary;
use flowplace_topo::SwitchId;

use crate::candidates::CandidateMap;
use crate::Instance;

/// "Packets of `flow` must reach `switch` before being dropped."
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MonitorRequirement {
    /// The switch hosting the monitoring rules.
    pub switch: SwitchId,
    /// The monitored packet set.
    pub flow: Ternary,
}

impl MonitorRequirement {
    /// Creates a requirement.
    pub fn new(switch: SwitchId, flow: Ternary) -> Self {
        MonitorRequirement { switch, flow }
    }
}

/// Removes placement candidates that would let a DROP rule kill monitored
/// packets upstream of their monitor. Returns the number of `(rule,
/// switch)` candidates removed.
///
/// A candidate `(ingress, drop rule w, switch k)` is removed when some
/// route of `ingress` visits `k` strictly before a monitor's switch and
/// `w` intersects that monitor's flow (and, when the route carries a flow
/// descriptor, the route's flow also intersects the monitored flow — a
/// route that never carries monitored packets imposes nothing).
pub fn restrict_candidates(
    instance: &Instance,
    candidates: &mut CandidateMap,
    monitors: &[MonitorRequirement],
) -> usize {
    if monitors.is_empty() {
        return 0;
    }
    let mut removed = 0;
    for (&(ingress, rule_id), switches) in candidates.iter_mut() {
        let policy = instance
            .policy(ingress)
            .expect("candidate refers to existing policy");
        let rule = policy.rule(rule_id);
        if !rule.action().is_drop() {
            continue; // PERMIT rules never block packets
        }
        let mut prohibited: Vec<SwitchId> = Vec::new();
        for m in monitors {
            if !rule.match_field().intersects(&m.flow) {
                continue;
            }
            for rid in instance.routes().paths_from(ingress) {
                let route = instance.routes().route(rid);
                if let Some(rf) = &route.flow {
                    if !rf.intersects(&m.flow) {
                        continue;
                    }
                }
                let Some(mpos) = route.position_of(m.switch) else {
                    continue;
                };
                prohibited.extend(route.switches.iter().take(mpos).copied());
            }
        }
        for p in prohibited {
            if switches.remove(&p) {
                removed += 1;
            }
        }
    }
    candidates.retain(|_, switches| !switches.is_empty());
    removed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidates::build_candidates;
    use crate::{Instance, Objective, PlacementOptions, RulePlacer};
    use flowplace_acl::{Action, Policy, RuleId};
    use flowplace_routing::{Route, RouteSet};
    use flowplace_topo::{EntryPortId, Topology};

    fn t(s: &str) -> Ternary {
        Ternary::parse(s).unwrap()
    }

    fn chain() -> Instance {
        let mut topo = Topology::linear(4);
        topo.set_uniform_capacity(10);
        let mut routes = RouteSet::new();
        routes.push(Route::new(
            EntryPortId(0),
            EntryPortId(1),
            (0..4).map(SwitchId).collect(),
        ));
        let policy = Policy::from_ordered(vec![
            (t("11**"), Action::Permit),
            (t("1***"), Action::Drop),
            (t("0***"), Action::Drop),
        ])
        .unwrap();
        Instance::new(topo, routes, vec![(EntryPortId(0), policy)]).unwrap()
    }

    #[test]
    fn removes_upstream_candidates_for_overlapping_drops() {
        let inst = chain();
        let mut cand = build_candidates(&inst);
        // Monitor 10** at switch 2: DROP 1*** overlaps, loses s0 and s1.
        let removed = restrict_candidates(
            &inst,
            &mut cand,
            &[MonitorRequirement::new(SwitchId(2), t("10**"))],
        );
        assert_eq!(removed, 2);
        let drop1 = &cand[&(EntryPortId(0), RuleId(1))];
        assert!(!drop1.contains(&SwitchId(0)));
        assert!(!drop1.contains(&SwitchId(1)));
        assert!(drop1.contains(&SwitchId(2)));
        assert!(drop1.contains(&SwitchId(3)));
        // The disjoint DROP 0*** keeps every candidate.
        let drop2 = &cand[&(EntryPortId(0), RuleId(2))];
        assert_eq!(drop2.len(), 4);
    }

    #[test]
    fn permits_are_never_restricted() {
        let inst = chain();
        let mut cand = build_candidates(&inst);
        restrict_candidates(
            &inst,
            &mut cand,
            &[MonitorRequirement::new(SwitchId(3), t("****"))],
        );
        // The PERMIT keeps all candidates (it shields, never blocks).
        assert_eq!(cand[&(EntryPortId(0), RuleId(0))].len(), 4);
    }

    #[test]
    fn monitored_placement_lands_at_or_after_monitor() {
        let inst = chain();
        let monitors = vec![MonitorRequirement::new(SwitchId(2), t("1***"))];
        let placer = RulePlacer::new(PlacementOptions {
            monitors: monitors.clone(),
            ..PlacementOptions::default()
        });
        let outcome = placer.place(&inst, Objective::TotalRules);
        let p = outcome.placement.expect("feasible");
        for &s in p.switches_of(EntryPortId(0), RuleId(1)) {
            assert!(s.0 >= 2, "drop placed upstream of monitor: {s}");
        }
        crate::verify::verify_placement(&inst, &p, 64, 1).unwrap();
    }

    #[test]
    fn impossible_monitoring_is_reported_infeasible() {
        // Monitor at the LAST switch while capacity there is zero: the
        // overlapping drop has nowhere legal to go.
        let inst = chain();
        let mut topo = inst.topology().clone();
        topo.set_capacity(SwitchId(3), 0);
        let inst = Instance::new(
            topo,
            inst.routes().clone(),
            inst.policies().map(|(l, q)| (l, q.clone())).collect(),
        )
        .unwrap();
        let placer = RulePlacer::new(PlacementOptions {
            monitors: vec![MonitorRequirement::new(SwitchId(3), t("1***"))],
            ..PlacementOptions::default()
        });
        let outcome = placer.place(&inst, Objective::TotalRules);
        assert_eq!(outcome.status, crate::SolveStatus::Infeasible);
    }

    #[test]
    fn route_flow_disjoint_from_monitor_imposes_nothing() {
        // The route carries only 0*** packets; a monitor for 1*** on it
        // never sees matching traffic, so drops keep their candidates.
        let mut topo = Topology::linear(3);
        topo.set_uniform_capacity(10);
        let mut routes = RouteSet::new();
        routes.push(
            Route::new(
                EntryPortId(0),
                EntryPortId(1),
                (0..3).map(SwitchId).collect(),
            )
            .with_flow(t("0***")),
        );
        let policy = Policy::from_ordered(vec![(t("0***"), Action::Drop)]).unwrap();
        let inst = Instance::new(topo, routes, vec![(EntryPortId(0), policy)]).unwrap();
        let mut cand = build_candidates(&inst);
        let removed = restrict_candidates(
            &inst,
            &mut cand,
            &[MonitorRequirement::new(SwitchId(2), t("1***"))],
        );
        assert_eq!(removed, 0);
    }

    #[test]
    fn sat_engine_honors_monitors_too() {
        let inst = chain();
        let placer = RulePlacer::new(PlacementOptions {
            engine: crate::PlacerEngine::Sat,
            monitors: vec![MonitorRequirement::new(SwitchId(2), t("1***"))],
            ..PlacementOptions::default()
        });
        let outcome = placer.place(&inst, Objective::TotalRules);
        assert_eq!(outcome.status, crate::SolveStatus::Feasible);
        let p = outcome.placement.expect("satisfiable");
        for &s in p.switches_of(EntryPortId(0), RuleId(1)) {
            assert!(s.0 >= 2, "drop placed upstream of monitor: {s}");
        }
    }
}
