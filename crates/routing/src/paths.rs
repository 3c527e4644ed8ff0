//! Routes and route sets.

use std::fmt;

use flowplace_acl::Ternary;
use flowplace_topo::{EntryPortId, SwitchId};

/// Identifier of a route within a [`RouteSet`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct RouteId(pub usize);

impl fmt::Display for RouteId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// One routing path `p_{i,j}`: the ordered set of switches packets traverse
/// from an ingress entry port to an egress entry port.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Route {
    /// The ingress entry port `l_i` whose policy applies to this path.
    pub ingress: EntryPortId,
    /// The egress entry port where packets leave the network.
    pub egress: EntryPortId,
    /// Switches in traversal order, starting at the ingress switch.
    pub switches: Vec<SwitchId>,
    /// The set of packets the routing module sends along this path, if
    /// known. `None` means "any packet entering at `ingress` may use this
    /// path", which disables §IV-C path slicing for it.
    pub flow: Option<Ternary>,
}

impl Route {
    /// Creates a route with no flow descriptor.
    pub fn new(ingress: EntryPortId, egress: EntryPortId, switches: Vec<SwitchId>) -> Self {
        Route {
            ingress,
            egress,
            switches,
            flow: None,
        }
    }

    /// Sets the flow descriptor (builder style).
    pub fn with_flow(mut self, flow: Ternary) -> Self {
        self.flow = Some(flow);
        self
    }

    /// Number of hops between the ingress and the given switch along this
    /// path (the paper's `loc(s_k, P_i)` ingredient), or `None` if the
    /// switch is not on the path.
    pub fn position_of(&self, switch: SwitchId) -> Option<usize> {
        self.switches.iter().position(|&s| s == switch)
    }

    /// True if the path visits the switch.
    pub fn contains(&self, switch: SwitchId) -> bool {
        self.switches.contains(&switch)
    }
}

impl fmt::Display for Route {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} -> {}: ", self.ingress, self.egress)?;
        for (i, s) in self.switches.iter().enumerate() {
            if i > 0 {
                write!(f, " -> ")?;
            }
            write!(f, "{s}")?;
        }
        Ok(())
    }
}

/// The full routing input to rule placement: every path in one ordered
/// list, and beside it the ids of each ingress's paths in that order.
///
/// In the paper's notation, `paths_from(l_i)` is `P_i` and `loc(l_i, s_k)`
/// is `loc(s_k, P_i)`. `==` and `Debug` read the route list alone: the
/// per-ingress lists follow from it.
#[derive(Clone, Default)]
pub struct RouteSet {
    routes: Vec<Route>,
    /// `by_ingress[l]`: the ids of the routes from `l`, ascending. Indexed
    /// by port number, up to the largest ingress a route was added for.
    by_ingress: Vec<Vec<RouteId>>,
}

impl RouteSet {
    /// Creates an empty route set.
    pub fn new() -> Self {
        RouteSet::default()
    }

    /// Creates a route set from a list of routes.
    pub fn from_routes(routes: Vec<Route>) -> Self {
        routes.into_iter().collect()
    }

    /// Lists the routes from position `start` on under their ingresses.
    fn index_from(&mut self, start: usize) {
        for (i, r) in self.routes.iter().enumerate().skip(start) {
            let l = r.ingress.0;
            if l >= self.by_ingress.len() {
                self.by_ingress.resize_with(l + 1, Vec::new);
            }
            self.by_ingress[l].push(RouteId(i));
        }
    }

    /// Adds a route, returning its id.
    pub fn push(&mut self, route: Route) -> RouteId {
        let id = RouteId(self.routes.len());
        self.routes.push(route);
        self.index_from(id.0);
        id
    }

    /// Number of routes.
    pub fn len(&self) -> usize {
        self.routes.len()
    }

    /// True if there are no routes.
    pub fn is_empty(&self) -> bool {
        self.routes.is_empty()
    }

    /// The route with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn route(&self, id: RouteId) -> &Route {
        &self.routes[id.0]
    }

    /// Iterates over all routes.
    pub fn iter(&self) -> impl Iterator<Item = &Route> {
        self.routes.iter()
    }

    /// Iterates over `(RouteId, &Route)`.
    pub fn iter_with_ids(&self) -> impl Iterator<Item = (RouteId, &Route)> {
        self.routes.iter().enumerate().map(|(i, r)| (RouteId(i), r))
    }

    /// The ids of all routes originating at `ingress` (`P_i`), ascending;
    /// empty for an ingress with no route.
    pub fn paths_from(&self, ingress: EntryPortId) -> &[RouteId] {
        self.by_ingress.get(ingress.0).map_or(&[], Vec::as_slice)
    }

    /// Minimum hop distance from `ingress` to `switch` over this ingress's
    /// paths: the paper's `loc(s_k, P_i)` used by the distance-weighted
    /// objective. Returns `None` if no path from `ingress` visits `switch`.
    pub fn loc(&self, ingress: EntryPortId, switch: SwitchId) -> Option<usize> {
        self.paths_from(ingress)
            .iter()
            .filter_map(|&id| self.route(id).position_of(switch))
            .min()
    }

    /// Replaces every route of `ingress` with `routes`: the other routes
    /// keep their order (and are re-numbered past the removed ones), and
    /// `routes` go after them in the order given.
    pub fn replace_ingress(&mut self, ingress: EntryPortId, routes: Vec<Route>) {
        if !self.paths_from(ingress).is_empty() {
            self.routes.retain(|r| r.ingress != ingress);
            self.by_ingress.iter_mut().for_each(Vec::clear);
            self.index_from(0);
        }
        self.extend(routes);
    }
}

impl PartialEq for RouteSet {
    fn eq(&self, other: &Self) -> bool {
        self.routes == other.routes
    }
}

impl Eq for RouteSet {}

impl fmt::Debug for RouteSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RouteSet")
            .field("routes", &self.routes)
            .finish()
    }
}

impl FromIterator<Route> for RouteSet {
    fn from_iter<I: IntoIterator<Item = Route>>(iter: I) -> Self {
        let mut set = RouteSet::new();
        set.extend(iter);
        set
    }
}

impl Extend<Route> for RouteSet {
    fn extend<I: IntoIterator<Item = Route>>(&mut self, iter: I) {
        let start = self.routes.len();
        self.routes.extend(iter);
        self.index_from(start);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn route(i: usize, e: usize, sw: &[usize]) -> Route {
        Route::new(
            EntryPortId(i),
            EntryPortId(e),
            sw.iter().map(|&s| SwitchId(s)).collect(),
        )
    }

    #[test]
    fn paths_from_filters_by_ingress() {
        let rs = RouteSet::from_routes(vec![
            route(0, 1, &[0, 1, 2]),
            route(1, 0, &[2, 1, 0]),
            route(0, 2, &[0, 1, 3]),
        ]);
        assert_eq!(rs.paths_from(EntryPortId(0)), [RouteId(0), RouteId(2)]);
        assert_eq!(rs.paths_from(EntryPortId(1)), [RouteId(1)]);
        assert_eq!(rs.paths_from(EntryPortId(7)), []);
    }

    #[test]
    fn loc_is_min_over_paths() {
        let rs = RouteSet::from_routes(vec![route(0, 1, &[0, 1, 2]), route(0, 2, &[2, 3])]);
        assert_eq!(rs.loc(EntryPortId(0), SwitchId(2)), Some(0));
        assert_eq!(rs.loc(EntryPortId(0), SwitchId(1)), Some(1));
        assert_eq!(rs.loc(EntryPortId(0), SwitchId(9)), None);
    }

    #[test]
    fn replace_ingress_appends_after_the_rest() {
        let mut rs = RouteSet::from_routes(vec![
            route(0, 1, &[0]),
            route(1, 2, &[1]),
            route(2, 3, &[2]),
        ]);
        rs.replace_ingress(EntryPortId(1), vec![route(1, 0, &[3]), route(1, 2, &[4])]);
        let order: Vec<_> = rs.iter().map(|r| r.switches[0].0).collect();
        assert_eq!(order, [0, 2, 3, 4]);
        assert_eq!(rs.paths_from(EntryPortId(1)), [RouteId(2), RouteId(3)]);
        assert_eq!(rs.paths_from(EntryPortId(2)), [RouteId(1)]);
    }

    #[test]
    fn position_and_contains() {
        let r = route(0, 1, &[4, 7, 9]);
        assert_eq!(r.position_of(SwitchId(7)), Some(1));
        assert_eq!(r.position_of(SwitchId(5)), None);
        assert!(r.contains(SwitchId(9)));
    }

    #[test]
    fn display_formats_path() {
        let r = route(0, 1, &[4, 7]);
        assert_eq!(r.to_string(), "l0 -> l1: s4 -> s7");
    }
}
