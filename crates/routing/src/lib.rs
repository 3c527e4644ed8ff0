//! Routing module for `flowplace`.
//!
//! The paper assumes routing is produced by an external module ("it may run
//! shortest-path routing ... or it may simply be a static routing library")
//! and consumed by the rule-placement optimizer as a set of routing paths.
//! This crate is that module:
//!
//! * [`Route`] — one path: an ingress entry port, an egress entry port, the
//!   ordered switches between them, and an optional flow descriptor (the
//!   set of packets the routing module sends down this path, used for the
//!   paper's §IV-C path slicing).
//! * [`RouteSet`] — all routes, indexed by ingress (`P_i` / `S_i` in the
//!   paper's notation).
//! * [`shortest`] — seeded randomized shortest-path generation, the routing
//!   policy used in the paper's experiments.
//!
//! # Example
//!
//! ```
//! use flowplace_topo::Topology;
//! use flowplace_routing::shortest;
//!
//! let topo = Topology::fat_tree(4);
//! let routes = shortest::random_routes(&topo, 32, 7);
//! assert_eq!(routes.len(), 32);
//! for r in routes.iter() {
//!     assert!(!r.switches.is_empty());
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod flowset;
pub mod kshortest;
mod paths;
pub mod shortest;

pub use flowset::assign_destination_flows;
pub use paths::{Route, RouteId, RouteSet};
