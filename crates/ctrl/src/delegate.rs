//! Flow delegation: the escalation rung between the full re-solve and
//! per-ingress salvage.
//!
//! The solver can only place rules on switches that lie on an ingress's
//! routes (§IV-A candidates are strictly on-route), so once every
//! on-route TCAM is saturated — or shrunk by a `capacity` fault — the
//! ladder used to fall straight through to salvage and the drop-all
//! safe mode. Flow delegation (Bauer & Zitterbart, arXiv 2109.08482)
//! relieves exactly this bottleneck: the controller *detours* the
//! affected ingress's routes through an off-route neighbor with spare
//! TCAM (the **delegate**), inserted directly after an on-route
//! **anchor** adjacent to it, and re-solves just that ingress against
//! the detoured instance. The detour taps capacity the solver could
//! never otherwise reach; the hop back from the delegate to the
//! anchor's successor is implicit in the route model (routes are
//! ordered switch lists, not link walks).
//!
//! Semantics are preserved by construction: the delegated entries sit
//! on a switch every packet of the detoured route traverses, so the
//! post-commit fail-closed audit proves no-false-negative over the
//! detoured routes exactly as it does over the originals. On the
//! anchor itself the controller installs a low-priority match-all
//! PERMIT *redirect stub* — semantically neutral in the pipeline model
//! (a PERMIT forwards, exactly like no-match) — that models the TCAM
//! slot the hardware redirect rule occupies; like the safe-mode fence
//! it lives in the reserved system bank
//! (see [`TableEntry::is_delegation_stub`](flowplace_core::tables::TableEntry::is_delegation_stub)).
//!
//! This module only plans and edits: `plan_delegation` picks the
//! delegate, `detour_instance` / `restore_instance` put it on and take
//! it off the routes, `uses` tells whether a solution took the detour
//! (one it ignored is rolled back unrecorded). The re-solve in between
//! is the controller's one restricted sub-solve — the call the
//! degradation ladder's batched rung and salvage make — whether the
//! rung runs for one ingress or as the capacity-shrink rescue.
//!
//! Delegated state is first-class in the fault model: the controller
//! tears a delegation down (restoring the original routes) whenever
//! the delegate or an anchor crashes or is quarantined, re-homing the
//! ingress through the ladder — which may pick a new delegate or go
//! fail-closed — and probes opportunistic undelegation on every lift
//! round by re-solving without the detour first.

use std::collections::BTreeSet;

use flowplace_core::{Instance, Placement};
use flowplace_routing::{Route, RouteSet};
use flowplace_topo::{EntryPortId, SwitchId};

/// Configuration for the delegation rung.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DelegationConfig {
    /// Master switch. Disabled, the ladder behaves exactly as before
    /// the rung existed: restricted → full → salvage → drop-all.
    pub enabled: bool,
}

impl Default for DelegationConfig {
    fn default() -> Self {
        DelegationConfig { enabled: true }
    }
}

impl DelegationConfig {
    /// Parses a `--delegation` CLI value (`on` or `off`).
    ///
    /// # Errors
    ///
    /// A message naming the offending token.
    pub fn parse_spec(spec: &str) -> Result<DelegationConfig, String> {
        match spec {
            "on" => Ok(DelegationConfig { enabled: true }),
            "off" => Ok(DelegationConfig { enabled: false }),
            other => Err(format!("bad delegation mode {other:?} (want on|off)")),
        }
    }
}

/// One active delegation: the keyed ingress's routes are detoured
/// through `delegate`, inserted after the per-route anchor drawn from
/// `anchors` (the first on-route switch adjacent to the delegate).
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Delegation {
    /// The off-route neighbor holding the offloaded entries.
    pub delegate: SwitchId,
    /// The on-route switches the detour branches from (one per route);
    /// each carries a redirect stub while the delegation is active.
    pub anchors: BTreeSet<SwitchId>,
}

/// Picks a delegate for `ingress` deterministically: the
/// smallest-id switch that is off every route of the ingress, passes
/// `spare` (manageable, online, TCAM headroom), and is adjacent to a
/// `usable` on-route switch of *every* route (the per-route anchors).
/// Returns `None` when the ingress has no routes or no such neighbor
/// exists (e.g. full-span routes on a linear topology).
pub(crate) fn plan_delegation(
    instance: &Instance,
    ingress: EntryPortId,
    usable: &dyn Fn(SwitchId) -> bool,
    spare: &dyn Fn(SwitchId) -> bool,
) -> Option<Delegation> {
    let routes = instance.routes();
    let paths = routes.paths_from(ingress);
    if paths.is_empty() {
        return None;
    }
    let on_route: BTreeSet<SwitchId> = paths
        .iter()
        .flat_map(|&id| routes.route(id).switches.iter().copied())
        .collect();
    let topology = instance.topology();
    let mut candidates: BTreeSet<SwitchId> = BTreeSet::new();
    for &s in &on_route {
        if !usable(s) {
            continue;
        }
        for &n in topology.neighbors(s) {
            if !on_route.contains(&n) && spare(n) {
                candidates.insert(n);
            }
        }
    }
    for delegate in candidates {
        let mut anchors = BTreeSet::new();
        let reachable = paths.iter().all(|&id| {
            match routes
                .route(id)
                .switches
                .iter()
                .copied()
                .find(|&s| usable(s) && topology.neighbors(s).contains(&delegate))
            {
                Some(anchor) => {
                    anchors.insert(anchor);
                    true
                }
                None => false,
            }
        });
        if reachable {
            return Some(Delegation { delegate, anchors });
        }
    }
    None
}

/// Rebuilds `instance` with `ingress`'s routes detoured through the
/// delegation's delegate (inserted after the first anchor on each
/// route). Routes already visiting the delegate are left alone;
/// `None` if no route changed.
pub(crate) fn detour_instance(
    instance: &Instance,
    ingress: EntryPortId,
    delegation: &Delegation,
) -> Option<Instance> {
    let mut changed = false;
    // Whole set in `routes()` order: the rebuilt set keeps every route in place.
    let routes: Vec<Route> = instance
        .routes()
        .iter()
        .map(|r| {
            if r.ingress != ingress || r.contains(delegation.delegate) {
                return r.clone();
            }
            let Some(pos) = r
                .switches
                .iter()
                .position(|s| delegation.anchors.contains(s))
            else {
                return r.clone();
            };
            let mut detoured = r.clone();
            detoured.switches.insert(pos + 1, delegation.delegate);
            changed = true;
            detoured
        })
        .collect();
    if !changed {
        return None;
    }
    instance.with_routes(RouteSet::from_routes(routes)).ok()
}

/// Rebuilds `instance` with the delegate removed from every route of
/// `ingress` — the teardown / undelegation inverse of
/// [`detour_instance`].
pub(crate) fn restore_instance(
    instance: &Instance,
    ingress: EntryPortId,
    delegate: SwitchId,
) -> Instance {
    // Whole set in `routes()` order: the rebuilt set keeps every route in place.
    let routes: Vec<Route> = instance
        .routes()
        .iter()
        .map(|r| {
            if r.ingress != ingress || !r.contains(delegate) {
                return r.clone();
            }
            let mut restored = r.clone();
            restored.switches.retain(|&s| s != delegate);
            restored
        })
        .collect();
    instance
        .with_routes(RouteSet::from_routes(routes))
        .expect("removing a detour switch keeps the instance valid")
}

/// Whether `placement` puts any rule of `ingress` on `delegate` — a
/// detour the solution ignores is rolled back unrecorded.
pub(crate) fn uses(placement: &Placement, ingress: EntryPortId, delegate: SwitchId) -> bool {
    let mut held = placement.held_switches();
    held.any(|(l, switches)| l == ingress && switches.contains(&delegate))
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowplace_acl::{Action, Policy, Rule, Ternary};
    use flowplace_topo::Topology;

    fn star_instance() -> Instance {
        // hub = s0, leaves = s1..=s4; one route l0: s1 -> s0 -> s2.
        let mut topology = Topology::star(4);
        topology.set_uniform_capacity(4);
        let routes = RouteSet::from_routes(vec![Route::new(
            EntryPortId(0),
            EntryPortId(1),
            vec![SwitchId(1), SwitchId(0), SwitchId(2)],
        )]);
        let policy = Policy::from_rules(vec![
            Rule::new(Ternary::parse("10**").unwrap(), Action::Drop, 2),
            Rule::new(Ternary::parse("****").unwrap(), Action::Permit, 1),
        ])
        .unwrap();
        Instance::new(topology, routes, vec![(EntryPortId(0), policy)]).unwrap()
    }

    #[test]
    fn plans_smallest_offroute_neighbor_with_spare_capacity() {
        let instance = star_instance();
        let d = plan_delegation(&instance, EntryPortId(0), &|_| true, &|_| true)
            .expect("the hub has off-route leaf neighbors");
        // s3 and s4 are off-route; smallest id wins, anchored at the hub.
        assert_eq!(d.delegate, SwitchId(3));
        assert_eq!(d.anchors, BTreeSet::from([SwitchId(0)]));
    }

    #[test]
    fn plan_respects_eligibility_filters() {
        let instance = star_instance();
        // s3 has no spare capacity: s4 is picked instead.
        let d = plan_delegation(&instance, EntryPortId(0), &|_| true, &|s| s != SwitchId(3))
            .expect("s4 remains eligible");
        assert_eq!(d.delegate, SwitchId(4));
        // No usable anchor at all: no delegation.
        assert!(
            plan_delegation(&instance, EntryPortId(0), &|s| s != SwitchId(0), &|_| true).is_none()
        );
        // Unknown ingress: no routes, no delegation.
        assert!(plan_delegation(&instance, EntryPortId(7), &|_| true, &|_| true).is_none());
    }

    #[test]
    fn plan_finds_nothing_on_full_span_linear_routes() {
        // Every neighbor of an on-route switch is itself on-route.
        let mut topology = Topology::linear(3);
        topology.set_uniform_capacity(4);
        let routes = RouteSet::from_routes(vec![Route::new(
            EntryPortId(0),
            EntryPortId(1),
            vec![SwitchId(0), SwitchId(1), SwitchId(2)],
        )]);
        let policy = Policy::from_rules(vec![Rule::new(
            Ternary::parse("****").unwrap(),
            Action::Permit,
            1,
        )])
        .unwrap();
        let instance = Instance::new(topology, routes, vec![(EntryPortId(0), policy)]).unwrap();
        assert!(plan_delegation(&instance, EntryPortId(0), &|_| true, &|_| true).is_none());
    }

    #[test]
    fn detour_and_restore_round_trip() {
        let instance = star_instance();
        let d = plan_delegation(&instance, EntryPortId(0), &|_| true, &|_| true).unwrap();
        let detoured = detour_instance(&instance, EntryPortId(0), &d).expect("route changes");
        let route = detoured.routes().iter().next().unwrap();
        assert_eq!(
            route.switches,
            vec![SwitchId(1), SwitchId(0), SwitchId(3), SwitchId(2)],
            "delegate inserted right after its anchor"
        );
        // Detouring again is a no-op (the delegate is already on-route).
        assert!(detour_instance(&detoured, EntryPortId(0), &d).is_none());
        let restored = restore_instance(&detoured, EntryPortId(0), d.delegate);
        assert_eq!(
            restored.routes().iter().next().unwrap().switches,
            instance.routes().iter().next().unwrap().switches
        );
    }

    #[test]
    fn parse_spec_accepts_on_off_and_names_bad_tokens() {
        assert!(DelegationConfig::parse_spec("on").unwrap().enabled);
        assert!(!DelegationConfig::parse_spec("off").unwrap().enabled);
        let err = DelegationConfig::parse_spec("maybe").unwrap_err();
        assert!(err.contains("\"maybe\""), "{err}");
    }
}
