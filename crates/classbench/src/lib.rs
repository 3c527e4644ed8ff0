//! ClassBench-style synthetic firewall policy generation.
//!
//! The paper's benchmarks generate one firewall policy per network ingress
//! with ClassBench (Taylor & Turner, INFOCOM'05). ClassBench's property
//! that matters for rule placement is *structured overlap*: real filter
//! sets combine a modest pool of popular source/destination prefixes, so
//! rules overlap each other and permit/drop priority dependencies arise.
//! This crate reproduces that structure with a seeded generator:
//!
//! * a header split into source and destination prefix fields,
//! * per-profile pools of popular prefixes with skewed prefix lengths,
//! * a configurable DROP fraction,
//! * global blacklist rules shared verbatim across policies (the
//!   mergeable rules of the paper's §IV-B / Experiment 3).
//!
//! # Example
//!
//! ```
//! use flowplace_classbench::{Generator, Profile};
//!
//! let gen = Generator::new(Profile::Firewall, 16).with_seed(7);
//! let policy = gen.policy(30, 0);
//! assert_eq!(policy.len(), 30);
//! assert!(policy.drop_rules().count() > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod gen;
mod profiles;

pub use gen::{Generator, PolicySuite};
pub use profiles::Profile;
