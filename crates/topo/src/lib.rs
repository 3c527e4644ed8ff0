//! Network topology model and generators for `flowplace`.
//!
//! Provides the data-plane graph the rule-placement optimizer works over:
//! switches with TCAM rule capacities, links, and network entry (ingress /
//! egress) ports. Includes the Fat-Tree generator used by the paper's
//! evaluation (Al-Fares et al., SIGCOMM'08) plus simple linear / star / tree
//! topologies for testing.
//!
//! # Example
//!
//! ```
//! use flowplace_topo::Topology;
//!
//! let topo = Topology::fat_tree(4);
//! assert_eq!(topo.switch_count(), 20);      // 5k²/4
//! assert_eq!(topo.entry_port_count(), 16);  // k³/4 hosts
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod builder;
pub mod fattree;
mod graph;

pub use builder::TopologyBuilder;
pub use graph::{EntryPort, EntryPortId, Switch, SwitchId, Topology, TopologyError};
