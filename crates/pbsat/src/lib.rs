//! A CDCL pseudo-Boolean satisfiability solver.
//!
//! The paper's §IV-D gives a satisfiability-only encoding of the rule
//! placement problem (Equations 6–8) intended for SMT or Pseudo-Boolean
//! solvers; this crate is the from-scratch PB solver it runs on:
//!
//! * conflict-driven clause learning (1UIP) with two-watched-literal
//!   propagation,
//! * native pseudo-Boolean constraints `Σ wᵢ·litᵢ ≤ k` with counter-based
//!   propagation (weighted occurrence lists, an O(1) skip for rows with
//!   slack) and clausal reasons expanded only on demand,
//! * VSIDS-style variable activity over a two-tier decision order (a
//!   heap, then a bitset of the variables at 0), and phase saving,
//! * LBD (glue) scoring of learnt clauses with periodic learnt-DB
//!   reduction (glue and locked clauses are never deleted),
//! * recursive clause minimization of every learnt clause,
//! * glucose-style adaptive restarts with trail-size blocking, built on
//!   deterministic integer fixed-point EMAs,
//! * solving under assumptions (used by the incremental-deployment path).
//!
//! # Example
//!
//! ```
//! use flowplace_pbsat::{Lit, SatResult, Solver};
//!
//! let mut s = Solver::new();
//! let a = s.new_var();
//! let b = s.new_var();
//! let c = s.new_var();
//! s.add_clause(&[Lit::positive(a), Lit::positive(b)]); // a ∨ b
//! s.add_clause(&[Lit::negative(a), Lit::positive(c)]); // a → c
//! // At most one of {a, b, c}:
//! s.add_at_most_k(&[Lit::positive(a), Lit::positive(b), Lit::positive(c)], 1);
//! match s.solve() {
//!     SatResult::Sat(model) => {
//!         assert!(model.value(b)); // a forces c, breaking the cardinality
//!     }
//!     SatResult::Unsat => unreachable!(),
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod heap;
mod list;
mod lit;
pub mod opb;
mod pb;
mod solver;

pub use lit::{Lit, Var};
pub use pb::PbConstraint;
pub use solver::{Model, SatResult, Solver, SolverOptions, SolverStats};
