//! The rule-placement problem instance: `(N, P, Q)`.
//!
//! [`Instance::new`] establishes the cross-reference invariants (every
//! route's ingress carries a policy, ingresses and switches exist, one
//! match width); the edit methods — [`Instance::set_capacity`],
//! [`Instance::set_policy`], [`Instance::set_routes_from`] — change one
//! part in place and keep them, validating only what they change.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use flowplace_acl::Policy;
use flowplace_routing::{Route, RouteSet};
use flowplace_topo::{EntryPortId, SwitchId, Topology};

/// Error constructing an [`Instance`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InstanceError {
    /// A policy references an entry port the topology does not have.
    UnknownIngress(EntryPortId),
    /// A route's ingress has no policy attached.
    RouteWithoutPolicy(EntryPortId),
    /// A route visits a switch the topology does not have.
    UnknownSwitch(SwitchId),
    /// Two policies use different match-field widths.
    MixedWidths {
        /// Width of the first nonempty policy seen.
        expected: u32,
        /// The conflicting width.
        found: u32,
    },
    /// The same ingress was given two policies.
    DuplicatePolicy(EntryPortId),
}

impl fmt::Display for InstanceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InstanceError::UnknownIngress(l) => write!(f, "unknown ingress {l}"),
            InstanceError::RouteWithoutPolicy(l) => {
                write!(f, "route from {l} has no policy attached")
            }
            InstanceError::UnknownSwitch(s) => write!(f, "route visits unknown switch {s}"),
            InstanceError::MixedWidths { expected, found } => {
                write!(f, "policies use mixed widths: {expected} vs {found}")
            }
            InstanceError::DuplicatePolicy(l) => write!(f, "two policies for ingress {l}"),
        }
    }
}

impl std::error::Error for InstanceError {}

/// A complete rule-placement problem: the network `N` (switches with
/// capacities), the routing `P` (paths per ingress), and the distributed
/// firewall `{Q_i}` (one prioritized policy per ingress).
///
/// Construct with [`Instance::new`], which validates cross-references.
///
/// Copy-on-write: a clone shares the topology, the routes and every
/// policy, and an edit copies only the part it changes, so a §IV-E
/// working copy that edits one policy costs that policy.
#[derive(Clone, Debug)]
pub struct Instance {
    topology: Arc<Topology>,
    routes: Arc<RouteSet>,
    policies: BTreeMap<EntryPortId, Arc<Policy>>,
}

impl Instance {
    /// Builds and validates an instance.
    ///
    /// Every route's ingress must carry a policy; ingresses and switches
    /// must exist; all nonempty policies must share one match width.
    /// Policies for ingresses without routes are allowed (they simply
    /// place no rules).
    ///
    /// # Errors
    ///
    /// See [`InstanceError`].
    pub fn new(
        topology: Topology,
        routes: RouteSet,
        policies: Vec<(EntryPortId, Policy)>,
    ) -> Result<Self, InstanceError> {
        let mut map = BTreeMap::new();
        let mut width: Option<u32> = None;
        for (l, q) in policies {
            if l.0 >= topology.entry_port_count() {
                return Err(InstanceError::UnknownIngress(l));
            }
            if !q.is_empty() {
                match width {
                    None => width = Some(q.width()),
                    Some(w) if w != q.width() => {
                        return Err(InstanceError::MixedWidths {
                            expected: w,
                            found: q.width(),
                        })
                    }
                    Some(_) => {}
                }
            }
            if map.insert(l, Arc::new(q)).is_some() {
                return Err(InstanceError::DuplicatePolicy(l));
            }
        }
        Instance {
            topology: Arc::new(topology),
            routes: Arc::new(routes),
            policies: map,
        }
        .checked()
    }

    /// `self` if every route is valid, else the first route's error.
    fn checked(self) -> Result<Self, InstanceError> {
        for route in self.routes.iter() {
            self.check_route(route)?;
        }
        Ok(self)
    }

    /// A route is valid when its ingress carries a policy and every
    /// switch it visits exists.
    fn check_route(&self, route: &Route) -> Result<(), InstanceError> {
        if !self.policies.contains_key(&route.ingress) {
            return Err(InstanceError::RouteWithoutPolicy(route.ingress));
        }
        match route
            .switches
            .iter()
            .find(|s| s.0 >= self.topology.switch_count())
        {
            Some(&s) => Err(InstanceError::UnknownSwitch(s)),
            None => Ok(()),
        }
    }

    /// Sets one switch's capacity. Capacity never affects validity.
    ///
    /// # Panics
    ///
    /// Panics if `switch` is out of range, as
    /// [`Topology::set_capacity`] does.
    pub fn set_capacity(&mut self, switch: SwitchId, capacity: usize) {
        Arc::make_mut(&mut self.topology).set_capacity(switch, capacity);
    }

    /// Attaches `policy` to `ingress`, replacing the one it holds.
    ///
    /// # Errors
    ///
    /// What [`Instance::new`] returns for the other policies followed by
    /// this one: [`InstanceError::UnknownIngress`], or
    /// [`InstanceError::MixedWidths`] against the width they share. The
    /// instance is untouched on error.
    pub fn set_policy(
        &mut self,
        ingress: EntryPortId,
        policy: Policy,
    ) -> Result<(), InstanceError> {
        if ingress.0 >= self.topology.entry_port_count() {
            return Err(InstanceError::UnknownIngress(ingress));
        }
        let mut others = self.policies.iter().filter(|(l, _)| **l != ingress);
        if let Some((_, q)) = others.find(|(_, q)| !q.is_empty()) {
            if !policy.is_empty() && q.width() != policy.width() {
                return Err(InstanceError::MixedWidths {
                    expected: q.width(),
                    found: policy.width(),
                });
            }
        }
        self.policies.insert(ingress, Arc::new(policy));
        Ok(())
    }

    /// Replaces every route of `ingress` with `routes`, which go after
    /// every other ingress's routes, in the order given.
    ///
    /// # Errors
    ///
    /// [`InstanceError::RouteWithoutPolicy`] for a route of another
    /// ingress (or when `ingress` has no policy),
    /// [`InstanceError::UnknownSwitch`] as in [`Instance::new`]. The
    /// instance is untouched on error.
    pub fn set_routes_from(
        &mut self,
        ingress: EntryPortId,
        routes: Vec<Route>,
    ) -> Result<(), InstanceError> {
        for route in &routes {
            if route.ingress != ingress {
                return Err(InstanceError::RouteWithoutPolicy(route.ingress));
            }
            self.check_route(route)?;
        }
        Arc::make_mut(&mut self.routes).replace_ingress(ingress, routes);
        Ok(())
    }

    /// The network topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The routing input.
    pub fn routes(&self) -> &RouteSet {
        &self.routes
    }

    /// The policy attached to an ingress, if any.
    pub fn policy(&self, ingress: EntryPortId) -> Option<&Policy> {
        self.policies.get(&ingress).map(|q| &**q)
    }

    /// Iterates over `(ingress, policy)` pairs in ingress order.
    pub fn policies(&self) -> impl Iterator<Item = (EntryPortId, &Policy)> {
        self.policies.iter().map(|(l, q)| (*l, &**q))
    }

    /// Every policy's shared `Arc`, in ingress order. A policy is never
    /// mutated in place (an edit attaches a new `Arc`), so two equal
    /// pointers mean equal content while either is held.
    pub(crate) fn policy_arcs(&self) -> impl Iterator<Item = (EntryPortId, &Arc<Policy>)> {
        self.policies.iter().map(|(l, q)| (*l, q))
    }

    /// Number of attached policies.
    pub fn policy_count(&self) -> usize {
        self.policies.len()
    }

    /// Total rules across all policies (the paper's quantity `A`, against
    /// which duplication overhead is measured).
    pub fn total_policy_rules(&self) -> usize {
        self.policies.values().map(|q| q.len()).sum()
    }

    /// Replaces the route set (used by incremental deployment when routes
    /// change). The new routes are validated against existing policies;
    /// the result shares the topology and the policies with `self`.
    ///
    /// # Errors
    ///
    /// Same as [`Instance::new`].
    pub fn with_routes(&self, routes: RouteSet) -> Result<Instance, InstanceError> {
        Instance {
            topology: Arc::clone(&self.topology),
            routes: Arc::new(routes),
            policies: self.policies.clone(),
        }
        .checked()
    }
}

impl fmt::Display for Instance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "instance: {} switches, {} routes, {} policies, {} rules",
            self.topology.switch_count(),
            self.routes.len(),
            self.policies.len(),
            self.total_policy_rules()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowplace_acl::{Action, Ternary};
    use flowplace_routing::Route;

    fn policy() -> Policy {
        Policy::from_ordered(vec![(Ternary::parse("1*").unwrap(), Action::Drop)]).unwrap()
    }

    #[test]
    fn valid_instance() {
        let topo = Topology::linear(3);
        let mut routes = RouteSet::new();
        routes.push(Route::new(
            EntryPortId(0),
            EntryPortId(1),
            vec![SwitchId(0), SwitchId(1), SwitchId(2)],
        ));
        let inst = Instance::new(topo, routes, vec![(EntryPortId(0), policy())]).unwrap();
        assert_eq!(inst.policy_count(), 1);
        assert_eq!(inst.total_policy_rules(), 1);
        assert!(inst.policy(EntryPortId(0)).is_some());
        assert!(inst.policy(EntryPortId(1)).is_none());
    }

    #[test]
    fn route_without_policy_rejected() {
        let topo = Topology::linear(3);
        let mut routes = RouteSet::new();
        routes.push(Route::new(
            EntryPortId(1),
            EntryPortId(0),
            vec![SwitchId(2)],
        ));
        let e = Instance::new(topo, routes, vec![(EntryPortId(0), policy())]).unwrap_err();
        assert_eq!(e, InstanceError::RouteWithoutPolicy(EntryPortId(1)));
    }

    #[test]
    fn unknown_ingress_rejected() {
        let topo = Topology::linear(2);
        let e = Instance::new(topo, RouteSet::new(), vec![(EntryPortId(9), policy())]).unwrap_err();
        assert_eq!(e, InstanceError::UnknownIngress(EntryPortId(9)));
    }

    #[test]
    fn unknown_switch_rejected() {
        let topo = Topology::linear(2);
        let mut routes = RouteSet::new();
        routes.push(Route::new(
            EntryPortId(0),
            EntryPortId(1),
            vec![SwitchId(9)],
        ));
        let e = Instance::new(topo, routes, vec![(EntryPortId(0), policy())]).unwrap_err();
        assert_eq!(e, InstanceError::UnknownSwitch(SwitchId(9)));
    }

    #[test]
    fn duplicate_policy_rejected() {
        let topo = Topology::linear(2);
        let e = Instance::new(
            topo,
            RouteSet::new(),
            vec![(EntryPortId(0), policy()), (EntryPortId(0), policy())],
        )
        .unwrap_err();
        assert_eq!(e, InstanceError::DuplicatePolicy(EntryPortId(0)));
    }

    #[test]
    fn mixed_width_rejected() {
        let topo = Topology::linear(2);
        let wide =
            Policy::from_ordered(vec![(Ternary::parse("1***").unwrap(), Action::Drop)]).unwrap();
        let e = Instance::new(
            topo,
            RouteSet::new(),
            vec![(EntryPortId(0), policy()), (EntryPortId(1), wide)],
        )
        .unwrap_err();
        assert!(matches!(e, InstanceError::MixedWidths { .. }));
    }

    /// The copy-on-write contract the controller's per-event working
    /// copies rely on: after a clone and a one-policy edit, the topology,
    /// the routes and every other policy are still shared.
    #[test]
    fn clone_then_edit_copies_one_policy() {
        let route = |l: usize| Route::new(EntryPortId(l), EntryPortId(0), vec![SwitchId(l + 1)]);
        let routes = RouteSet::from_routes((0..4).map(route).collect());
        let policies = (0..4).map(|l| (EntryPortId(l), policy())).collect();
        let inst = Instance::new(Topology::star(4), routes, policies).unwrap();
        let mut edited = inst.clone();
        edited.set_policy(EntryPortId(2), policy()).unwrap();
        assert!(Arc::ptr_eq(&inst.topology, &edited.topology));
        assert!(Arc::ptr_eq(&inst.routes, &edited.routes));
        for l in 0..4 {
            let same = Arc::ptr_eq(
                &inst.policies[&EntryPortId(l)],
                &edited.policies[&EntryPortId(l)],
            );
            assert_eq!(same, l != 2, "l{l}");
        }
        let rerouted = inst
            .with_routes(RouteSet::from_routes(vec![route(1)]))
            .unwrap();
        assert!(Arc::ptr_eq(&inst.topology, &rerouted.topology));
        assert!((0..4).all(|l| Arc::ptr_eq(
            &inst.policies[&EntryPortId(l)],
            &rerouted.policies[&EntryPortId(l)]
        )));
        edited.set_capacity(SwitchId(0), 7);
        assert!(!Arc::ptr_eq(&inst.topology, &edited.topology));
        assert_eq!(inst.topology().capacities()[0], usize::MAX);
    }
}
