//! Model construction: variables, constraints, objective.

use std::fmt;

/// Identifier of a model variable.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct VarId(pub usize);

impl fmt::Display for VarId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{}", self.0)
    }
}

/// The integrality class of a variable.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum VarKind {
    /// Real-valued within its bounds.
    Continuous,
    /// Must take value 0 or 1 in a MIP solution.
    Binary,
}

/// Optimization direction.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Sense {
    /// Minimize the objective.
    Minimize,
    /// Maximize the objective.
    Maximize,
}

/// Comparison operator of a linear constraint.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Cmp {
    /// `Σ aᵢxᵢ ≤ b`
    Le,
    /// `Σ aᵢxᵢ ≥ b`
    Ge,
    /// `Σ aᵢxᵢ = b`
    Eq,
}

impl fmt::Display for Cmp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Cmp::Le => write!(f, "<="),
            Cmp::Ge => write!(f, ">="),
            Cmp::Eq => write!(f, "="),
        }
    }
}

#[derive(Clone, Debug)]
pub(crate) struct Variable {
    pub name: String,
    pub kind: VarKind,
    pub lower: f64,
    pub upper: f64,
    pub objective: f64,
}

/// A linear constraint `Σ aᵢxᵢ  cmp  rhs`.
#[derive(Clone, Debug, PartialEq)]
pub struct Constraint {
    /// Diagnostic name.
    pub name: String,
    /// Sparse terms `(variable, coefficient)`; duplicate variables are
    /// summed by [`Model::add_constraint`].
    pub terms: Vec<(VarId, f64)>,
    /// Comparison operator.
    pub cmp: Cmp,
    /// Right-hand side.
    pub rhs: f64,
}

/// A mixed 0/1 linear program.
///
/// Variables are continuous within `[lower, upper]` or binary; constraints
/// are sparse linear rows; the objective is a linear function optimized in
/// the model's [`Sense`].
#[derive(Clone, Debug)]
pub struct Model {
    pub(crate) vars: Vec<Variable>,
    pub(crate) constraints: Vec<Constraint>,
    pub(crate) sense: Sense,
}

impl Model {
    /// Creates an empty model.
    pub fn new(sense: Sense) -> Self {
        Model {
            vars: Vec::new(),
            constraints: Vec::new(),
            sense,
        }
    }

    /// The optimization sense.
    pub fn sense(&self) -> Sense {
        self.sense
    }

    /// Adds a binary (0/1) variable with zero objective coefficient.
    pub fn add_binary(&mut self, name: impl Into<String>) -> VarId {
        let id = VarId(self.vars.len());
        self.vars.push(Variable {
            name: name.into(),
            kind: VarKind::Binary,
            lower: 0.0,
            upper: 1.0,
            objective: 0.0,
        });
        id
    }

    /// Adds a continuous variable with the given bounds
    /// (use `f64::NEG_INFINITY` / `f64::INFINITY` for free directions)
    /// and zero objective coefficient.
    ///
    /// # Panics
    ///
    /// Panics if `lower > upper` or either bound is NaN.
    pub fn add_continuous(&mut self, name: impl Into<String>, lower: f64, upper: f64) -> VarId {
        assert!(!lower.is_nan() && !upper.is_nan(), "NaN variable bound");
        assert!(lower <= upper, "empty variable domain [{lower}, {upper}]");
        let id = VarId(self.vars.len());
        self.vars.push(Variable {
            name: name.into(),
            kind: VarKind::Continuous,
            lower,
            upper,
            objective: 0.0,
        });
        id
    }

    /// Sets the objective coefficient of a variable.
    ///
    /// # Panics
    ///
    /// Panics if `var` is out of range.
    pub fn set_objective(&mut self, var: VarId, coefficient: f64) {
        self.vars[var.0].objective = coefficient;
    }

    /// Adds a linear constraint; duplicate variables in `terms` are summed
    /// and zero coefficients dropped. Returns the row index.
    ///
    /// # Panics
    ///
    /// Panics if any referenced variable is out of range or any
    /// coefficient/rhs is NaN.
    pub fn add_constraint(
        &mut self,
        name: impl Into<String>,
        terms: Vec<(VarId, f64)>,
        cmp: Cmp,
        rhs: f64,
    ) -> usize {
        assert!(!rhs.is_nan(), "NaN rhs");
        let mut merged: std::collections::BTreeMap<usize, f64> = std::collections::BTreeMap::new();
        for (v, c) in terms {
            assert!(v.0 < self.vars.len(), "unknown variable {v}");
            assert!(!c.is_nan(), "NaN coefficient");
            *merged.entry(v.0).or_insert(0.0) += c;
        }
        let terms: Vec<(VarId, f64)> = merged
            .into_iter()
            .filter(|(_, c)| *c != 0.0)
            .map(|(v, c)| (VarId(v), c))
            .collect();
        self.constraints.push(Constraint {
            name: name.into(),
            terms,
            cmp,
            rhs,
        });
        self.constraints.len() - 1
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.vars.len()
    }

    /// Number of constraints.
    pub fn num_constraints(&self) -> usize {
        self.constraints.len()
    }

    /// Lower bound of a variable.
    ///
    /// # Panics
    ///
    /// Panics if `var` is out of range.
    pub fn lower(&self, var: VarId) -> f64 {
        self.vars[var.0].lower
    }

    /// Upper bound of a variable.
    ///
    /// # Panics
    ///
    /// Panics if `var` is out of range.
    pub fn upper(&self, var: VarId) -> f64 {
        self.vars[var.0].upper
    }

    /// The integrality kind of a variable.
    ///
    /// # Panics
    ///
    /// Panics if `var` is out of range.
    pub fn kind(&self, var: VarId) -> VarKind {
        self.vars[var.0].kind
    }

    /// The objective coefficient of a variable.
    ///
    /// # Panics
    ///
    /// Panics if `var` is out of range.
    pub fn objective_coefficient(&self, var: VarId) -> f64 {
        self.vars[var.0].objective
    }

    /// The name of a variable.
    ///
    /// # Panics
    ///
    /// Panics if `var` is out of range.
    pub fn var_name(&self, var: VarId) -> &str {
        &self.vars[var.0].name
    }

    /// Overwrites a variable's bounds (callers fix variables with it;
    /// branching narrows them).
    ///
    /// # Panics
    ///
    /// Panics if `var` is out of range or the new domain is empty/NaN.
    pub fn set_bounds(&mut self, var: VarId, lower: f64, upper: f64) {
        assert!(!lower.is_nan() && !upper.is_nan(), "NaN variable bound");
        assert!(lower <= upper, "empty variable domain [{lower}, {upper}]");
        self.vars[var.0].lower = lower;
        self.vars[var.0].upper = upper;
    }

    /// The constraints of the model.
    pub fn constraints(&self) -> &[Constraint] {
        &self.constraints
    }

    /// The objective value of an assignment.
    ///
    /// # Panics
    ///
    /// Panics if `values.len() != num_vars()`.
    pub fn objective_value(&self, values: &[f64]) -> f64 {
        assert_eq!(values.len(), self.vars.len());
        self.vars
            .iter()
            .zip(values)
            .map(|(v, x)| v.objective * x)
            .sum()
    }

    /// Checks that an assignment satisfies every constraint, bound, and
    /// integrality requirement within `tol`. Returns the first violation
    /// description, or `Ok(())`.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violated
    /// bound, integrality requirement, or constraint.
    ///
    /// # Panics
    ///
    /// Panics if `values.len() != num_vars()`.
    pub fn check_feasible(&self, values: &[f64], tol: f64) -> Result<(), String> {
        assert_eq!(values.len(), self.vars.len());
        for (i, (v, &x)) in self.vars.iter().zip(values).enumerate() {
            if x < v.lower - tol || x > v.upper + tol {
                return Err(format!(
                    "variable {} = {x} outside [{}, {}]",
                    VarId(i),
                    v.lower,
                    v.upper
                ));
            }
            if v.kind == VarKind::Binary && (x - x.round()).abs() > tol {
                return Err(format!("variable {} = {x} not integral", VarId(i)));
            }
        }
        for c in &self.constraints {
            let lhs: f64 = c.terms.iter().map(|(v, a)| a * values[v.0]).sum();
            let ok = match c.cmp {
                Cmp::Le => lhs <= c.rhs + tol,
                Cmp::Ge => lhs >= c.rhs - tol,
                Cmp::Eq => (lhs - c.rhs).abs() <= tol,
            };
            if !ok {
                return Err(format!(
                    "constraint {}: {lhs} {} {} violated",
                    c.name, c.cmp, c.rhs
                ));
            }
        }
        Ok(())
    }

    /// Ids of all binary variables.
    pub fn binary_vars(&self) -> Vec<VarId> {
        self.vars
            .iter()
            .enumerate()
            .filter(|(_, v)| v.kind == VarKind::Binary)
            .map(|(i, _)| VarId(i))
            .collect()
    }
}

impl fmt::Display for Model {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "model: {} vars ({} binary), {} constraints, {:?}",
            self.num_vars(),
            self.binary_vars().len(),
            self.num_constraints(),
            self.sense
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_query_vars() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_binary("x");
        let y = m.add_continuous("y", -1.0, 5.0);
        assert_eq!(m.num_vars(), 2);
        assert_eq!(m.kind(x), VarKind::Binary);
        assert_eq!(m.kind(y), VarKind::Continuous);
        assert_eq!(m.lower(y), -1.0);
        assert_eq!(m.upper(y), 5.0);
        assert_eq!(m.var_name(x), "x");
        assert_eq!(m.binary_vars(), vec![x]);
    }

    #[test]
    fn constraint_merges_duplicates_and_drops_zeros() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_binary("x");
        let y = m.add_binary("y");
        m.add_constraint("c", vec![(x, 1.0), (x, 2.0), (y, 0.0)], Cmp::Le, 4.0);
        assert_eq!(m.constraints()[0].terms, vec![(x, 3.0)]);
    }

    #[test]
    fn objective_value_and_check() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_binary("x");
        let y = m.add_binary("y");
        m.set_objective(x, 2.0);
        m.set_objective(y, 3.0);
        m.add_constraint("c", vec![(x, 1.0), (y, 1.0)], Cmp::Ge, 1.0);
        assert_eq!(m.objective_value(&[1.0, 0.0]), 2.0);
        assert!(m.check_feasible(&[1.0, 0.0], 1e-9).is_ok());
        assert!(m.check_feasible(&[0.0, 0.0], 1e-9).is_err());
        assert!(m.check_feasible(&[0.5, 1.0], 1e-9).is_err()); // not integral
    }

    #[test]
    #[should_panic(expected = "empty variable domain")]
    fn bad_bounds_panic() {
        let mut m = Model::new(Sense::Minimize);
        m.add_continuous("y", 2.0, 1.0);
    }

    #[test]
    fn display_mentions_shape() {
        let mut m = Model::new(Sense::Maximize);
        m.add_binary("x");
        let s = m.to_string();
        assert!(s.contains("1 vars"));
        assert!(s.contains("Maximize"));
    }
}
