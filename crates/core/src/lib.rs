//! ACL rule placement for software-defined networks.
//!
//! This crate implements the rule-placement optimizer of *"An Adaptable
//! Rule Placement for Software-Defined Networks"* (DSN 2014): given a
//! network topology, a routing (one set of paths per ingress), and one
//! prioritized firewall policy per ingress, place every policy's rules
//! onto switches so that
//!
//! * packets are dropped/permitted exactly as each ingress policy
//!   specifies (first-match semantics along every path),
//! * no switch holds more rules than its TCAM capacity `C_k`,
//! * an objective — total rules installed, or distance-weighted placement
//!   that pushes DROP rules upstream — is minimized.
//!
//! # Architecture
//!
//! Mirroring the paper's Figure 4 flow chart:
//!
//! 1. (optional) redundancy removal — [`flowplace_acl::redundancy`];
//! 2. the **rule dependency graph** ([`DependencyGraph`]): a DROP rule
//!    placed on a switch drags its higher-priority overlapping PERMIT
//!    rules onto the same switch (Eq. 1);
//! 3. **mergeable-rule discovery** across policies with circular-
//!    dependency breaking ([`merge`], §IV-B, Eq. 4–5);
//! 4. the **ILP encoding** ([`encode_ilp`]) solved by
//!    [`flowplace_milp`], or the **satisfiability encoding**
//!    ([`encode_sat`], Eq. 6–8) solved by [`flowplace_pbsat`];
//! 5. **tagging** ([`tags`], §IV-A5) and per-switch table emission
//!    ([`tables`]);
//! 6. **incremental deployment** ([`incremental`], §IV-E) for policy
//!    additions and route changes against spare capacity.
//!
//! The [`verify`] module provides a golden-model checker that replays
//! packets through the emitted switch tables along every route and
//! compares with the original policy — used pervasively in tests.
//!
//! # Quickstart
//!
//! ```
//! use flowplace_acl::{Action, Policy, Ternary};
//! use flowplace_core::{Instance, Objective, PlacementOptions, RulePlacer};
//! use flowplace_routing::{Route, RouteSet};
//! use flowplace_topo::{EntryPortId, Topology};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // A 3-switch chain with one policy at the left ingress.
//! let mut topo = Topology::linear(3);
//! topo.set_uniform_capacity(4);
//! let mut routes = RouteSet::new();
//! routes.push(Route::new(
//!     EntryPortId(0),
//!     EntryPortId(1),
//!     topo.switches().map(|(id, _)| id).collect(),
//! ));
//! let policy = Policy::from_ordered(vec![
//!     (Ternary::parse("11**")?, Action::Permit),
//!     (Ternary::parse("1***")?, Action::Drop),
//! ])?;
//! let instance = Instance::new(topo, routes, vec![(EntryPortId(0), policy)])?;
//! let outcome = RulePlacer::new(PlacementOptions::default())
//!     .place(&instance, Objective::TotalRules);
//! let placement = outcome.placement.expect("feasible");
//! assert_eq!(placement.total_rules(), 2); // the DROP and its PERMIT shield
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod arena_obs;
pub mod candidates;
pub mod depgraph;
pub mod encode_ilp;
pub mod encode_sat;
mod fingerprint;
pub mod greedy;
pub mod incremental;
mod instance;
pub mod merge;
mod objective;
pub mod par;
mod placement;
pub mod slicing;
pub mod tables;
pub mod tags;
pub mod verify;
mod walk;

pub use depgraph::DependencyGraph;
pub use encode_ilp::MergeLinking;
pub use fingerprint::{fingerprint_instance, fingerprint_policy, Fingerprint};
pub use instance::{Instance, InstanceError};
pub use objective::Objective;
pub use placement::{
    DependencyEncoding, Placement, PlacementOptions, PlacementOutcome, PlacementStats,
    PlacerEngine, RulePlacer, SolveStatus,
};
