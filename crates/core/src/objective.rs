//! Objective functions for the placement ILP (§IV-A4 of the paper).

use flowplace_topo::{EntryPortId, SwitchId};

use crate::Instance;

/// What the ILP minimizes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Objective {
    /// Total number of rules placed in the network (the paper's primary
    /// objective — maximizes slack for future rules).
    #[default]
    TotalRules,
    /// `Σ v·loc(s, P_i)`: weight each placement by its hop distance from
    /// the ingress, pushing DROP rules upstream to minimize the traffic
    /// that dropped packets consume before dying.
    DistanceWeighted,
}

impl Objective {
    /// The objective coefficient of placing one rule of ingress `i` on
    /// switch `s`.
    pub fn coefficient(&self, instance: &Instance, ingress: EntryPortId, s: SwitchId) -> f64 {
        match self {
            Objective::TotalRules => 1.0,
            Objective::DistanceWeighted => {
                // `loc` is computable for every candidate switch (it lies
                // on some path of the ingress); +1 keeps the coefficient
                // positive so unnecessary placements still cost.
                let loc = instance.routes().loc(ingress, s).unwrap_or(0);
                1.0 + loc as f64
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowplace_acl::{Action, Policy, Ternary};
    use flowplace_routing::{Route, RouteSet};
    use flowplace_topo::Topology;

    fn instance() -> Instance {
        let topo = Topology::linear(3);
        let mut routes = RouteSet::new();
        routes.push(Route::new(
            EntryPortId(0),
            EntryPortId(1),
            vec![SwitchId(0), SwitchId(1), SwitchId(2)],
        ));
        let policy =
            Policy::from_ordered(vec![(Ternary::parse("1*").unwrap(), Action::Drop)]).unwrap();
        Instance::new(topo, routes, vec![(EntryPortId(0), policy)]).unwrap()
    }

    #[test]
    fn total_rules_is_unit() {
        let inst = instance();
        let o = Objective::TotalRules;
        assert_eq!(o.coefficient(&inst, EntryPortId(0), SwitchId(2)), 1.0);
    }

    #[test]
    fn distance_weight_grows_downstream() {
        let inst = instance();
        let o = Objective::DistanceWeighted;
        assert_eq!(o.coefficient(&inst, EntryPortId(0), SwitchId(0)), 1.0);
        assert_eq!(o.coefficient(&inst, EntryPortId(0), SwitchId(1)), 2.0);
        assert_eq!(o.coefficient(&inst, EntryPortId(0), SwitchId(2)), 3.0);
    }
}
