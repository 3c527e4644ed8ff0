//! Ternary match algebra and prioritized ACL policies.
//!
//! This crate provides the packet-classification substrate used by the
//! `flowplace` rule-placement optimizer:
//!
//! * [`Ternary`] — a fixed-width ternary match field over `{0, 1, *}`,
//!   the matching language of OpenFlow TCAM rules.
//! * [`Packet`] — a concrete packet header (a fully specified bit vector).
//! * [`Rule`] and [`Action`] — a single prioritized ACL rule
//!   (match field, PERMIT/DROP decision, priority).
//! * [`Policy`] — a strictly prioritized rule list with first-match
//!   semantics and a default-PERMIT fallthrough.
//! * [`CubeList`] — a union of ternary cubes supporting exact set
//!   difference, used for redundancy analysis.
//! * [`thread_arena_stats`] — counters of the per-thread scratch-buffer
//!   pool behind the cube algebra (steady-state epochs allocate ~zero).
//! * [`classify`] — a batched first-match classification kernel
//!   ([`classify::classify_batch`]) with a structure-of-arrays layout.
//! * [`redundancy`] — exact (all-match) redundancy removal, the optional
//!   pre-pass from the paper's Figure 4 flow chart.
//!
//! # Example
//!
//! ```
//! use flowplace_acl::{Action, Packet, Policy, Rule, Ternary};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let policy = Policy::from_rules(vec![
//!     Rule::new(Ternary::parse("10**")?, Action::Permit, 3),
//!     Rule::new(Ternary::parse("1***")?, Action::Drop, 2),
//! ])?;
//! assert_eq!(policy.evaluate(&Packet::from_bits(0b1010, 4)), Action::Permit);
//! assert_eq!(policy.evaluate(&Packet::from_bits(0b1110, 4)), Action::Drop);
//! // Default action for unmatched packets is PERMIT.
//! assert_eq!(policy.evaluate(&Packet::from_bits(0b0000, 4)), Action::Permit);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod classify;
pub mod fivetuple;

mod arena;
mod cube;
mod packet;
mod policy;
pub mod redundancy;
mod rule;
mod ternary;
pub mod textfmt;

pub use arena::ArenaStats;
pub use cube::{thread_arena_stats, CubeList};
pub use packet::Packet;
pub use policy::{Policy, PolicyError, PolicyId};
pub use rule::{Action, Rule, RuleId};
pub use ternary::{ParseTernaryError, Ternary, MAX_WIDTH};
