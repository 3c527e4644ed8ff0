//! # flowplace — adaptable ACL rule placement for SDNs
//!
//! A faithful, self-contained reproduction of *"An Adaptable Rule
//! Placement for Software-Defined Networks"* (Zhang, Ivančić, Lumezanu,
//! Yuan, Gupta, Malik — DSN 2014): an ILP/pseudo-Boolean optimizer that
//! compiles per-ingress firewall policies of a "Big Switch" network
//! specification down to per-switch TCAM tables, respecting rule
//! priorities, per-path coverage, and switch capacities while minimizing
//! the total number of installed rules.
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`acl`] — ternary match algebra, prioritized policies, redundancy
//!   removal;
//! * [`topo`] — topology model and fat-tree generator;
//! * [`routing`] — shortest-path routing module with per-route flow sets;
//! * [`classbench`] — ClassBench-style synthetic policy generation;
//! * [`milp`] — the 0/1 ILP solver (bounded simplex + branch & bound);
//! * [`pbsat`] — the CDCL pseudo-Boolean SAT solver;
//! * [`core`] — the placement optimizer itself (dependency graphs,
//!   encodings, merging, incremental deployment, verification);
//! * [`ctrl`] — the event-driven controller runtime (batched updates,
//!   greedy→restricted→full escalation, transactional TCAM dataplane);
//! * [`obs`] — deterministic observability: hierarchical spans on a
//!   virtual clock plus a typed metrics registry, dumped as canonical
//!   `flowplace.obs.v1` JSON;
//! * [`rng`] — seedable, registry-free pseudo-random number generation;
//! * [`traffic`] — deterministic Zipf-skewed flow-arrival generation
//!   driving the TCAM rule-caching tier.
//!
//! The most common entry points are re-exported at the root:
//! [`Instance`], [`RulePlacer`], [`PlacementOptions`], [`Objective`].
//!
//! ```
//! use flowplace::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut topo = Topology::linear(2);
//! topo.set_uniform_capacity(8);
//! let mut routes = RouteSet::new();
//! routes.push(Route::new(
//!     EntryPortId(0),
//!     EntryPortId(1),
//!     vec![SwitchId(0), SwitchId(1)],
//! ));
//! let policy = Policy::from_ordered(vec![
//!     (Ternary::parse("01**")?, Action::Permit),
//!     (Ternary::parse("0***")?, Action::Drop),
//! ])?;
//! let instance = Instance::new(topo, routes, vec![(EntryPortId(0), policy)])?;
//! let outcome =
//!     RulePlacer::new(PlacementOptions::default()).place(&instance, Objective::TotalRules);
//! assert!(outcome.placement.is_some());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use flowplace_acl as acl;
pub use flowplace_classbench as classbench;
pub use flowplace_core as core;
pub use flowplace_ctrl as ctrl;
pub use flowplace_milp as milp;
pub use flowplace_obs as obs;
pub use flowplace_pbsat as pbsat;
pub use flowplace_rng as rng;
pub use flowplace_routing as routing;
pub use flowplace_topo as topo;
pub use flowplace_traffic as traffic;

pub use flowplace_core::{
    DependencyEncoding, Instance, Objective, Placement, PlacementOptions, PlacementOutcome,
    PlacerEngine, RulePlacer, SolveStatus,
};

/// Convenient glob-import of the types most programs need.
pub mod prelude {
    pub use flowplace_acl::{Action, Packet, Policy, Rule, RuleId, Ternary};
    pub use flowplace_core::{
        DependencyEncoding, Instance, Objective, Placement, PlacementOptions, PlacementOutcome,
        PlacerEngine, RulePlacer, SolveStatus,
    };
    pub use flowplace_ctrl::{Controller, CtrlOptions, CtrlStats, Event, Tier};
    pub use flowplace_obs::Obs;
    pub use flowplace_routing::{Route, RouteId, RouteSet};
    pub use flowplace_topo::{EntryPortId, SwitchId, Topology, TopologyBuilder};
}
