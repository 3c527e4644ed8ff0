//! Flow descriptors for path slicing (§IV-C).
//!
//! When the routing library also specifies *which* packets traverse each
//! route (e.g. "packets for this route are destined to 10.0.1.0/24"), the
//! optimizer only needs to place the policy rules that overlap the route's
//! flow set. This module attaches destination-prefix flow descriptors to
//! routes, mirroring the paper's Figure 6 example.

use flowplace_acl::Ternary;

use crate::RouteSet;

/// Assigns each route a flow descriptor that constrains the packet's
/// destination-address bits to identify the route's egress port.
///
/// The destination field is modeled as the low `dst_bits` bits of the
/// match space (header width `width`); egress port `e` owns the destination
/// value `e` (mod `2^dst_bits`). Each route's flow becomes
/// `*...*<dst bits fixed to its egress>`.
///
/// This mirrors the Figure 6 setup where one route carries packets to
/// `10.0.1.0/24` and another to `10.0.2.0/24`: policies sliced per path
/// keep only the rules whose match fields overlap the route's flow.
///
/// # Panics
///
/// Panics if `dst_bits` is zero or exceeds `width`, or `width` exceeds
/// [`flowplace_acl::MAX_WIDTH`].
pub fn assign_destination_flows(routes: &mut RouteSet, width: u32, dst_bits: u32) {
    assert!(
        dst_bits >= 1 && dst_bits <= width,
        "dst_bits must be in 1..=width"
    );
    let care = if dst_bits >= 128 {
        u128::MAX
    } else {
        (1u128 << dst_bits) - 1
    };
    *routes = routes
        .iter()
        .map(|r| {
            let value = (r.egress.0 as u128) & care;
            r.clone().with_flow(Ternary::new(width, care, value))
        })
        .collect();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Route;
    use flowplace_acl::Packet;
    use flowplace_topo::{EntryPortId, SwitchId};

    #[test]
    fn flows_identify_egress() {
        let mut rs = RouteSet::from_routes(vec![
            Route::new(EntryPortId(0), EntryPortId(1), vec![SwitchId(0)]),
            Route::new(EntryPortId(0), EntryPortId(2), vec![SwitchId(0)]),
        ]);
        assign_destination_flows(&mut rs, 8, 4);
        let f1 = rs.route(crate::RouteId(0)).flow.unwrap();
        let f2 = rs.route(crate::RouteId(1)).flow.unwrap();
        assert!(f1.matches(&Packet::from_bits(0b0000_0001, 8)));
        assert!(!f1.matches(&Packet::from_bits(0b0000_0010, 8)));
        assert!(f2.matches(&Packet::from_bits(0b1111_0010, 8)));
        assert!(
            !f1.intersects(&f2),
            "different egresses carry disjoint flows"
        );
    }

    #[test]
    fn egress_ids_wrap_modulo_dst_space() {
        let mut rs = RouteSet::from_routes(vec![Route::new(
            EntryPortId(0),
            EntryPortId(17),
            vec![SwitchId(0)],
        )]);
        assign_destination_flows(&mut rs, 8, 4);
        let f = rs.route(crate::RouteId(0)).flow.unwrap();
        assert!(f.matches(&Packet::from_bits(17 % 16, 8)));
    }

    #[test]
    #[should_panic(expected = "dst_bits")]
    fn zero_dst_bits_panics() {
        let mut rs = RouteSet::new();
        assign_destination_flows(&mut rs, 8, 0);
    }
}
