//! OPB export — the pseudo-Boolean competition input format.
//!
//! Writes a solver's constraint database in the OPB format consumed by
//! Sat4j, RoundingSat, NaPS, and the other PB-competition solvers, so any
//! formula built here (in particular the paper's Eq. 6–8 placement
//! encoding) can be cross-checked against an external PB solver — the
//! evaluation the paper lists as future work.
//!
//! OPB conventions: variables are `x1, x2, …` (1-indexed); a negated
//! literal is `~xN`; every constraint is `Σ wᵢ lᵢ >= d ;`. Our internal
//! `≤` constraints are exported via negation of the weights' complement:
//! `Σ w·l ≤ k  ⇔  Σ w·~l ≥ Σw − k`.

use std::fmt;
use std::fmt::Write as _;

use crate::{Lit, PbConstraint, Var};

/// Why a formula could not be rendered as OPB.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum OpbError {
    /// A constraint mentions the same variable more than once. OPB sums
    /// coefficients term by term, so a repeated variable would silently
    /// change the constraint's meaning (e.g. a hand-built
    /// `+2 x1 +2 x1 ≥ d` is `4·x1 ≥ d`, not two independent supports);
    /// the exporter refuses instead.
    DuplicateLiteral {
        /// 0-based constraint index, counting clauses first and then PB
        /// constraints — the order the lines would appear in the file.
        constraint: usize,
        /// The variable that occurs more than once.
        var: Var,
    },
}

impl fmt::Display for OpbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OpbError::DuplicateLiteral { constraint, var } => write!(
                f,
                "duplicate literal over variable {var} in constraint {constraint}: \
                 OPB would mis-sum its coefficients"
            ),
        }
    }
}

impl std::error::Error for OpbError {}

/// Returns the first variable repeated in `vars`, if any.
fn first_duplicate(vars: impl Iterator<Item = Var>) -> Option<Var> {
    let mut seen: Vec<Var> = Vec::new();
    for v in vars {
        if seen.contains(&v) {
            return Some(v);
        }
        seen.push(v);
    }
    None
}

/// A snapshot of a formula for export: clauses plus PB constraints over
/// `num_vars` variables.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Formula {
    /// Number of variables.
    pub num_vars: usize,
    /// Disjunctive clauses.
    pub clauses: Vec<Vec<Lit>>,
    /// `Σ w·l ≤ bound` constraints.
    pub pb_le: Vec<PbConstraint>,
}

impl Formula {
    /// Renders the formula in OPB format.
    ///
    /// # Errors
    ///
    /// Returns [`OpbError::DuplicateLiteral`] if any clause or PB
    /// constraint mentions the same variable twice — OPB's term-sum
    /// semantics would silently merge the coefficients, changing the
    /// constraint (`Solver`-built formulas never contain duplicates, but
    /// [`Formula`]'s fields are public and can be hand-assembled).
    pub fn to_opb(&self) -> Result<String, OpbError> {
        for (i, clause) in self.clauses.iter().enumerate() {
            if let Some(var) = first_duplicate(clause.iter().map(|l| l.var())) {
                return Err(OpbError::DuplicateLiteral { constraint: i, var });
            }
        }
        for (i, pb) in self.pb_le.iter().enumerate() {
            if let Some(var) = first_duplicate(pb.terms.iter().map(|(_, l)| l.var())) {
                return Err(OpbError::DuplicateLiteral {
                    constraint: self.clauses.len() + i,
                    var,
                });
            }
        }
        let mut out = String::new();
        let n_constraints = self.clauses.len() + self.pb_le.len();
        let _ = writeln!(
            out,
            "* #variable= {} #constraint= {}",
            self.num_vars, n_constraints
        );
        let _ = writeln!(out, "* exported by flowplace-pbsat");
        for clause in &self.clauses {
            // A clause is Σ l ≥ 1.
            let mut line = String::new();
            for &l in clause {
                let _ = write!(line, "+1 {} ", opb_lit(l));
            }
            let _ = writeln!(out, "{line}>= 1 ;");
        }
        for pb in &self.pb_le {
            // Σ w·l ≤ k  ⇔  Σ w·~l ≥ Σw − k.
            let total: u64 = pb.total_weight();
            let mut line = String::new();
            for &(w, l) in &pb.terms {
                let _ = write!(line, "+{w} {} ", opb_lit(!l));
            }
            let _ = writeln!(out, "{line}>= {} ;", total.saturating_sub(pb.bound));
        }
        Ok(out)
    }
}

fn opb_lit(l: Lit) -> String {
    if l.is_positive() {
        format!("x{}", l.var().0 + 1)
    } else {
        format!("~x{}", l.var().0 + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Var;

    #[test]
    fn clause_and_pb_lines() {
        let a = Lit::positive(Var(0));
        let b = Lit::negative(Var(1));
        let f = Formula {
            num_vars: 2,
            clauses: vec![vec![a, b]],
            pb_le: vec![PbConstraint::new(vec![(2, a), (3, !b)], 3)],
        };
        let opb = f.to_opb().expect("no duplicates");
        assert!(opb.contains("* #variable= 2 #constraint= 2"));
        assert!(opb.contains("+1 x1 +1 ~x2 >= 1 ;"));
        // 2a + 3(b) <= 3  →  2~a + 3~b >= 2.
        assert!(opb.contains("+2 ~x1 +3 ~x2 >= 2 ;"), "{opb}");
    }

    #[test]
    fn empty_formula_headers() {
        let f = Formula {
            num_vars: 0,
            ..Formula::default()
        };
        let opb = f.to_opb().expect("no duplicates");
        assert!(opb.contains("#variable= 0 #constraint= 0"));
    }

    #[test]
    fn duplicate_literal_in_clause_rejected() {
        let a = Lit::positive(Var(0));
        let f = Formula {
            num_vars: 1,
            clauses: vec![vec![a, !a]],
            pb_le: vec![],
        };
        let err = f.to_opb().expect_err("duplicate must be rejected");
        assert_eq!(
            err,
            OpbError::DuplicateLiteral {
                constraint: 0,
                var: Var(0)
            }
        );
        assert!(err.to_string().contains("duplicate literal"), "{err}");
    }

    #[test]
    fn duplicate_literal_in_pb_rejected_with_offset_index() {
        let a = Lit::positive(Var(0));
        let b = Lit::positive(Var(1));
        // Hand-assembled PB with a repeated variable (PbConstraint::new
        // would panic, but the struct fields are public).
        let dup = PbConstraint {
            terms: vec![(2, b), (2, !b)],
            bound: 1,
        };
        let f = Formula {
            num_vars: 2,
            clauses: vec![vec![a]],
            pb_le: vec![dup],
        };
        let err = f.to_opb().expect_err("duplicate must be rejected");
        // Constraint indices count clauses first.
        assert_eq!(
            err,
            OpbError::DuplicateLiteral {
                constraint: 1,
                var: Var(1)
            }
        );
    }
}
