//! Pseudo-Boolean constraints.

use std::fmt;

use crate::{Lit, Var};

/// A pseudo-Boolean less-than-or-equal constraint: `Σ wᵢ·litᵢ ≤ bound`,
/// where a literal contributes its weight when true.
///
/// Weights must be positive (the solver normalizes constraints with
/// negated weights before construction).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PbConstraint {
    /// `(weight, literal)` terms with `weight ≥ 1`.
    pub terms: Vec<(u64, Lit)>,
    /// Inclusive upper bound on the weighted sum of true literals.
    pub bound: u64,
}

impl PbConstraint {
    /// Creates a constraint after dropping zero-weight terms.
    ///
    /// # Panics
    ///
    /// Panics if the same variable appears twice among the kept terms,
    /// naming the lowest such variable (the solver's public `add_pb_le`
    /// merges duplicates before reaching here). The check sorts a copy
    /// of the variables, so it is `O(n log n)`.
    pub fn new(terms: Vec<(u64, Lit)>, bound: u64) -> Self {
        let terms: Vec<(u64, Lit)> = terms.into_iter().filter(|(w, _)| *w > 0).collect();
        let mut vars: Vec<Var> = terms.iter().map(|(_, l)| l.var()).collect();
        vars.sort_unstable();
        if let Some(pair) = vars.windows(2).find(|p| p[0] == p[1]) {
            panic!("duplicate variable {} in PB", pair[0]);
        }
        PbConstraint { terms, bound }
    }

    /// Sum of all weights (the maximum possible left-hand side).
    pub fn total_weight(&self) -> u64 {
        self.terms.iter().map(|(w, _)| w).sum()
    }

    /// True if the constraint can never be violated.
    pub fn is_trivial(&self) -> bool {
        self.total_weight() <= self.bound
    }

    /// Evaluates the constraint under a complete assignment
    /// (`assign[v]` = value of variable `v`).
    pub fn is_satisfied(&self, assign: &[bool]) -> bool {
        let lhs: u64 = self
            .terms
            .iter()
            .filter(|(_, l)| assign[l.var().0 as usize] == l.is_positive())
            .map(|(w, _)| w)
            .sum();
        lhs <= self.bound
    }
}

impl fmt::Display for PbConstraint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, (w, l)) in self.terms.iter().enumerate() {
            if i > 0 {
                write!(f, " + ")?;
            }
            write!(f, "{w}·{l}")?;
        }
        write!(f, " <= {}", self.bound)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trivial_detection() {
        let a = Lit::positive(Var(0));
        let b = Lit::positive(Var(1));
        assert!(PbConstraint::new(vec![(1, a), (1, b)], 2).is_trivial());
        assert!(!PbConstraint::new(vec![(1, a), (2, b)], 2).is_trivial());
    }

    #[test]
    fn zero_weights_dropped() {
        let a = Lit::positive(Var(0));
        let b = Lit::positive(Var(1));
        let pb = PbConstraint::new(vec![(0, a), (3, b)], 2);
        assert_eq!(pb.terms, vec![(3, b)]);
        // A dropped term is not a duplicate.
        let pb = PbConstraint::new(vec![(0, a), (2, !a)], 1);
        assert_eq!(pb.terms, vec![(2, !a)]);
    }

    #[test]
    fn satisfied_counts_true_literals() {
        let a = Lit::positive(Var(0));
        let nb = Lit::negative(Var(1));
        let pb = PbConstraint::new(vec![(2, a), (3, nb)], 3);
        assert!(pb.is_satisfied(&[false, false])); // nb true: 3 <= 3
        assert!(pb.is_satisfied(&[true, true])); // a true: 2 <= 3
        assert!(!pb.is_satisfied(&[true, false])); // both true: 5 > 3
    }

    #[test]
    #[should_panic(expected = "duplicate variable")]
    fn duplicate_var_panics() {
        let a = Lit::positive(Var(0));
        PbConstraint::new(vec![(1, a), (1, !a)], 1);
    }

    #[test]
    #[should_panic(expected = "duplicate variable v2 in PB")]
    fn duplicate_panic_names_the_lowest_repeated_var() {
        let l = |v| Lit::positive(Var(v));
        PbConstraint::new(vec![(1, l(5)), (1, l(2)), (1, l(5)), (1, !l(2))], 1);
    }

    #[test]
    fn display() {
        let pb = PbConstraint::new(vec![(2, Lit::positive(Var(0)))], 1);
        assert_eq!(pb.to_string(), "2·v0 <= 1");
    }
}
