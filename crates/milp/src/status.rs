//! Solve outcomes for LP and MIP.

use std::fmt;

/// A malformed model or a broken solver invariant, surfaced as data
/// instead of a panic so a long-running caller (e.g. the controller
/// loop) can reject the offending request and keep serving.
#[derive(Clone, Debug, PartialEq)]
pub enum SolveError {
    /// A variable's bounds are unusable: NaN, `lower > upper`, lower at
    /// `+inf`, or upper at `-inf`.
    BadBound {
        /// Variable index.
        var: usize,
        /// Offending lower bound.
        lower: f64,
        /// Offending upper bound.
        upper: f64,
    },
    /// A variable's objective coefficient is NaN or infinite.
    BadObjective {
        /// Variable index.
        var: usize,
        /// Offending coefficient.
        value: f64,
    },
    /// A constraint coefficient is NaN or infinite.
    BadCoefficient {
        /// Constraint index.
        constraint: usize,
        /// Variable index of the offending term.
        var: usize,
        /// Offending coefficient.
        value: f64,
    },
    /// A constraint right-hand side is NaN or infinite.
    BadRhs {
        /// Constraint index.
        constraint: usize,
        /// Offending right-hand side.
        value: f64,
    },
    /// An internal invariant broke (e.g. a basic variable was asked for
    /// its nonbasic bound value).
    Internal(&'static str),
}

impl fmt::Display for SolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolveError::BadBound { var, lower, upper } => {
                write!(f, "variable {var} has unusable bounds [{lower}, {upper}]")
            }
            SolveError::BadObjective { var, value } => {
                write!(f, "variable {var} has non-finite objective {value}")
            }
            SolveError::BadCoefficient {
                constraint,
                var,
                value,
            } => write!(
                f,
                "constraint {constraint} has non-finite coefficient {value} on variable {var}"
            ),
            SolveError::BadRhs { constraint, value } => {
                write!(f, "constraint {constraint} has non-finite rhs {value}")
            }
            SolveError::Internal(what) => write!(f, "solver invariant broken: {what}"),
        }
    }
}

impl std::error::Error for SolveError {}

/// Status of an LP solve.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LpStatus {
    /// An optimal basic solution was found.
    Optimal,
    /// The constraints admit no solution.
    Infeasible,
    /// The objective is unbounded in the optimization direction.
    Unbounded,
    /// The iteration limit was hit before convergence.
    IterationLimit,
    /// The model was malformed or a solver invariant broke.
    Error,
}

/// A solved LP: status plus (when solved) the primal point.
#[derive(Clone, Debug)]
pub struct LpSolution {
    /// Primal values, indexed by [`VarId`](crate::VarId) order.
    pub values: Vec<f64>,
    /// Objective value at `values` (in the model's own sense).
    pub objective: f64,
    /// Simplex iterations used across both phases.
    pub iterations: usize,
}

/// Outcome of [`solve_lp`](crate::solve_lp).
#[derive(Clone, Debug)]
pub enum LpOutcome {
    /// Optimal solution found.
    Optimal(LpSolution),
    /// No feasible point exists.
    Infeasible,
    /// Objective unbounded.
    Unbounded,
    /// Iteration limit reached; no solution reported.
    IterationLimit,
    /// The model was malformed or a solver invariant broke.
    Error(SolveError),
}

impl LpOutcome {
    /// The solution if the solve was optimal.
    pub fn solution(&self) -> Option<&LpSolution> {
        match self {
            LpOutcome::Optimal(s) => Some(s),
            _ => None,
        }
    }

    /// The corresponding status code.
    pub fn status(&self) -> LpStatus {
        match self {
            LpOutcome::Optimal(_) => LpStatus::Optimal,
            LpOutcome::Infeasible => LpStatus::Infeasible,
            LpOutcome::Unbounded => LpStatus::Unbounded,
            LpOutcome::IterationLimit => LpStatus::IterationLimit,
            LpOutcome::Error(_) => LpStatus::Error,
        }
    }
}

/// Status of a MIP solve.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MipStatus {
    /// Proven optimal integer solution.
    Optimal,
    /// Proven that no integer solution exists.
    Infeasible,
    /// A feasible solution was found but optimality was not proven before
    /// an iteration limit (the budget, or one LP's cap) was reached.
    Feasible,
    /// A limit was reached before any feasible solution was found; the
    /// instance may or may not be feasible.
    Unknown,
    /// The model was malformed or a solver invariant broke; the search
    /// was aborted.
    Error,
}

impl fmt::Display for MipStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MipStatus::Optimal => write!(f, "optimal"),
            MipStatus::Infeasible => write!(f, "infeasible"),
            MipStatus::Feasible => write!(f, "feasible"),
            MipStatus::Unknown => write!(f, "unknown"),
            MipStatus::Error => write!(f, "error"),
        }
    }
}

/// An integer-feasible MIP solution.
#[derive(Clone, Debug, PartialEq)]
pub struct MipSolution {
    /// Primal values, indexed by [`VarId`](crate::VarId) order; binary
    /// variables are exactly 0.0 or 1.0.
    pub values: Vec<f64>,
    /// Objective value at `values`.
    pub objective: f64,
}

/// Outcome of [`solve_mip`](crate::solve_mip).
#[derive(Clone, Debug, PartialEq)]
pub struct MipOutcome {
    /// Final status.
    pub status: MipStatus,
    /// Best integer solution found, if any.
    pub best: Option<MipSolution>,
    /// Best proven bound on the optimum (lower bound when minimizing).
    pub bound: f64,
    /// Branch-and-bound nodes processed.
    pub nodes: usize,
    /// Simplex iterations of every LP solved, whatever its outcome:
    /// what [`MipOptions::iteration_limit`](crate::MipOptions) budgets.
    pub lp_iterations: usize,
    /// Lazy-constraint rows added during the solve.
    pub lazy_rows_added: usize,
}

impl MipOutcome {
    /// The best solution if one was found.
    pub fn solution(&self) -> Option<&MipSolution> {
        self.best.as_ref()
    }

    /// True if the solve proved optimality.
    pub fn is_optimal(&self) -> bool {
        self.status == MipStatus::Optimal
    }

    /// True if the solve proved infeasibility.
    pub fn is_infeasible(&self) -> bool {
        self.status == MipStatus::Infeasible
    }
}

impl fmt::Display for MipOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({} nodes", self.status, self.nodes)?;
        if let Some(b) = &self.best {
            write!(f, ", objective {}", b.objective)?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcome_accessors() {
        let o = LpOutcome::Infeasible;
        assert!(o.solution().is_none());
        assert_eq!(o.status(), LpStatus::Infeasible);
        let s = LpOutcome::Optimal(LpSolution {
            values: vec![1.0],
            objective: 2.0,
            iterations: 3,
        });
        assert_eq!(s.status(), LpStatus::Optimal);
        assert_eq!(s.solution().unwrap().objective, 2.0);
    }

    #[test]
    fn mip_outcome_display() {
        let o = MipOutcome {
            status: MipStatus::Optimal,
            best: Some(MipSolution {
                values: vec![],
                objective: 5.0,
            }),
            bound: 5.0,
            nodes: 3,
            lp_iterations: 10,
            lazy_rows_added: 0,
        };
        assert!(o.is_optimal());
        assert!(o.to_string().contains("optimal"));
        assert!(o.to_string().contains("objective 5"));
    }
}
