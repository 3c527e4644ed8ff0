//! A self-contained 0/1 mixed-integer linear programming solver.
//!
//! The paper solves its rule-placement encoding with CPLEX; this crate is
//! the from-scratch substitute. It provides:
//!
//! * [`Model`] — variables with bounds (continuous or binary), linear
//!   constraints, and a linear objective;
//! * [`solve_lp`] — a bounded-variable, two-phase revised primal simplex
//!   for the LP relaxation;
//! * [`solve_mip`] — branch & bound over the LP relaxation with
//!   most-fractional branching, depth-first dives, rounding incumbents,
//!   warm incumbents, a budget counted in simplex iterations (never in
//!   seconds, so a cut search is repeatable), and optional
//!   lazy-constraint callbacks (used by the placement encoder to generate
//!   dependency rows on demand).
//!
//! # Example
//!
//! ```
//! use flowplace_milp::{Cmp, MipOptions, Model, Sense};
//!
//! // minimize x + y  s.t.  x + y >= 1,  binaries
//! let mut m = Model::new(Sense::Minimize);
//! let x = m.add_binary("x");
//! let y = m.add_binary("y");
//! m.set_objective(x, 1.0);
//! m.set_objective(y, 1.0);
//! m.add_constraint("cover", vec![(x, 1.0), (y, 1.0)], Cmp::Ge, 1.0);
//! let sol = flowplace_milp::solve_mip(&m, &MipOptions::default());
//! let sol = sol.solution().expect("feasible");
//! assert!((sol.objective - 1.0).abs() < 1e-6);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod branch;
mod lpformat;
mod model;
mod simplex;
mod status;

pub use branch::{
    solve_mip, solve_mip_lazy, LazyCallback, MipOptions, ABSOLUTE_GAP, INTEGRALITY_TOL,
};
pub use lpformat::to_lp_format;
pub use model::{Cmp, Constraint, Model, Sense, VarId, VarKind};
pub use simplex::{solve_lp, LP_MAX_ITERATIONS, LP_TOLERANCE};
pub use status::{LpOutcome, LpSolution, LpStatus, MipOutcome, MipSolution, MipStatus, SolveError};
