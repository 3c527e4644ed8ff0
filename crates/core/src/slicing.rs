//! Path-sliced policy rules (§IV-C of the paper).
//!
//! When a route carries a flow descriptor (the set of packets the routing
//! module actually sends along it), only the policy rules whose match
//! fields overlap that flow need to be placed on the route — the paper's
//! Figure 6 optimization. Routes without a descriptor conservatively keep
//! the whole policy.

use flowplace_acl::{Policy, Rule, RuleId};
use flowplace_routing::Route;

/// Whether `rule` must be considered on `route`: always if the route has
/// no flow descriptor, otherwise exactly when its match field intersects
/// the flow.
pub fn on_route(rule: &Rule, route: &Route) -> bool {
    route.flow.is_none_or(|f| rule.match_field().intersects(&f))
}

/// The rules of `policy` that must be considered for `route` (those
/// [`on_route`]), ascending by rule id (i.e. descending priority).
pub fn sliced_rules<'a>(policy: &'a Policy, route: &'a Route) -> impl Iterator<Item = RuleId> + 'a {
    policy
        .iter()
        .filter(|(_, r)| on_route(r, route))
        .map(|(id, _)| id)
}

/// The DROP rules of `policy` that must be covered on `route`
/// (the sliced subset of [`Policy::drop_rules`]), ascending by rule id.
pub fn sliced_drop_rules<'a>(
    policy: &'a Policy,
    route: &'a Route,
) -> impl Iterator<Item = RuleId> + 'a {
    policy
        .iter()
        .filter(|(_, r)| r.action().is_drop() && on_route(r, route))
        .map(|(id, _)| id)
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowplace_acl::{Action, Ternary};
    use flowplace_routing::Route;
    use flowplace_topo::{EntryPortId, SwitchId};

    fn pol() -> Policy {
        // Mirrors Figure 6: dst in the low two bits.
        Policy::from_ordered(vec![
            (Ternary::parse("1*01").unwrap(), Action::Drop), // dst 01 only
            (Ternary::parse("1*10").unwrap(), Action::Drop), // dst 10 only
            (Ternary::parse("0***").unwrap(), Action::Permit), // both
        ])
        .unwrap()
    }

    fn route(flow: Option<&str>) -> Route {
        let mut r = Route::new(EntryPortId(0), EntryPortId(1), vec![SwitchId(0)]);
        if let Some(f) = flow {
            r = r.with_flow(Ternary::parse(f).unwrap());
        }
        r
    }

    #[test]
    fn no_flow_keeps_everything() {
        let p = pol();
        let ids: Vec<_> = sliced_rules(&p, &route(None)).collect();
        assert_eq!(ids, vec![RuleId(0), RuleId(1), RuleId(2)]);
    }

    #[test]
    fn flow_filters_disjoint_rules() {
        let p = pol();
        // Route carries only dst=01 packets.
        let ids: Vec<_> = sliced_rules(&p, &route(Some("**01"))).collect();
        assert_eq!(ids, vec![RuleId(0), RuleId(2)]);
        let other: Vec<_> = sliced_rules(&p, &route(Some("**10"))).collect();
        assert_eq!(other, vec![RuleId(1), RuleId(2)]);
    }

    #[test]
    fn sliced_drops_only() {
        let p = pol();
        let ids: Vec<_> = sliced_drop_rules(&p, &route(Some("**01"))).collect();
        assert_eq!(ids, vec![RuleId(0)]);
    }
}
