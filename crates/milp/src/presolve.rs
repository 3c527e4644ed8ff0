//! Conservative presolve reductions.
//!
//! A standalone pass a caller may run on a model before handing it to
//! [`crate::solve_mip`] — no solve path calls it. It shrinks the model
//! without changing its solution set (projected to the original
//! variables):
//!
//! * **Duplicate rows** — identical `(terms, cmp, rhs)` rows are removed.
//! * **Singleton rows** — a row with one variable becomes a bound update.
//! * **Empty rows** — constant rows are checked and dropped (an
//!   unsatisfiable constant row makes the whole model trivially
//!   infeasible).
//!
//! Variables are never removed, so solutions map back index-for-index.

use std::collections::HashSet;

use crate::model::{Cmp, Model};

/// Result of [`presolve`].
#[derive(Clone, Debug)]
pub struct Presolved {
    /// The reduced model (same variable ids as the input).
    pub model: Model,
    /// True if presolve proved the model infeasible outright.
    pub infeasible: bool,
    /// Rows removed (duplicates, singletons, empties).
    pub rows_removed: usize,
    /// Variable bounds tightened by singleton rows.
    pub bounds_tightened: usize,
}

/// Applies the reductions described in the module docs.
pub fn presolve(model: &Model) -> Presolved {
    let mut out = Model::new(model.sense);
    out.vars = model.vars.clone();
    let mut infeasible = false;
    let mut rows_removed = 0;
    let mut bounds_tightened = 0;
    let mut seen: HashSet<String> = HashSet::new();
    let tol = 1e-9;

    for c in &model.constraints {
        // Empty row: constant comparison.
        if c.terms.is_empty() {
            let ok = match c.cmp {
                Cmp::Le => 0.0 <= c.rhs + tol,
                Cmp::Ge => 0.0 >= c.rhs - tol,
                Cmp::Eq => c.rhs.abs() <= tol,
            };
            if !ok {
                infeasible = true;
            }
            rows_removed += 1;
            continue;
        }
        // Singleton row: becomes a bound.
        if c.terms.len() == 1 {
            let (v, a) = c.terms[0];
            let bound = c.rhs / a;
            let (mut lo, mut hi): (f64, f64) = (out.vars[v.0].lower, out.vars[v.0].upper);
            match (c.cmp, a > 0.0) {
                (Cmp::Le, true) | (Cmp::Ge, false) => hi = hi.min(bound),
                (Cmp::Ge, true) | (Cmp::Le, false) => lo = lo.max(bound),
                (Cmp::Eq, _) => {
                    lo = lo.max(bound);
                    hi = hi.min(bound);
                }
            }
            // Binary domains stay integral: x >= 0.5 means x = 1.
            if out.vars[v.0].kind == crate::model::VarKind::Binary {
                lo = if lo > tol { lo.ceil() } else { lo.max(0.0) };
                hi = if hi < 1.0 - tol {
                    hi.floor()
                } else {
                    hi.min(1.0)
                };
            }
            if lo > hi + tol {
                infeasible = true;
            } else {
                out.vars[v.0].lower = lo;
                out.vars[v.0].upper = hi.max(lo);
                bounds_tightened += 1;
            }
            rows_removed += 1;
            continue;
        }
        // Duplicate detection via a canonical key.
        let mut key = String::with_capacity(c.terms.len() * 12);
        for (v, a) in &c.terms {
            key.push_str(&format!("{}:{a};", v.0));
        }
        key.push_str(&format!("{:?}{}", c.cmp, c.rhs));
        if !seen.insert(key) {
            rows_removed += 1;
            continue;
        }
        out.constraints.push(c.clone());
    }

    Presolved {
        model: out,
        infeasible,
        rows_removed,
        bounds_tightened,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Sense;

    #[test]
    fn removes_duplicates() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_binary("x");
        let y = m.add_binary("y");
        m.add_constraint("a", vec![(x, 1.0), (y, 1.0)], Cmp::Ge, 1.0);
        m.add_constraint("b", vec![(x, 1.0), (y, 1.0)], Cmp::Ge, 1.0);
        m.add_constraint("c", vec![(x, 1.0), (y, 1.0)], Cmp::Le, 1.0); // different cmp
        let p = presolve(&m);
        assert_eq!(p.rows_removed, 1);
        assert_eq!(p.model.num_constraints(), 2);
    }

    #[test]
    fn singleton_tightens_bounds() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_continuous("x", 0.0, 10.0);
        m.add_constraint("a", vec![(x, 2.0)], Cmp::Le, 6.0); // x <= 3
        m.add_constraint("b", vec![(x, -1.0)], Cmp::Le, -1.0); // x >= 1
        let p = presolve(&m);
        assert!(!p.infeasible);
        assert_eq!(p.model.num_constraints(), 0);
        assert_eq!(p.model.lower(x), 1.0);
        assert_eq!(p.model.upper(x), 3.0);
        assert_eq!(p.bounds_tightened, 2);
    }

    #[test]
    fn singleton_conflict_is_infeasible() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_binary("x");
        m.add_constraint("a", vec![(x, 1.0)], Cmp::Ge, 2.0);
        let p = presolve(&m);
        assert!(p.infeasible);
    }

    #[test]
    fn empty_row_checked() {
        let mut m = Model::new(Sense::Minimize);
        let _ = m.add_binary("x");
        m.add_constraint("bad", vec![], Cmp::Ge, 1.0);
        let p = presolve(&m);
        assert!(p.infeasible);

        let mut m2 = Model::new(Sense::Minimize);
        let _ = m2.add_binary("x");
        m2.add_constraint("fine", vec![], Cmp::Le, 1.0);
        let p2 = presolve(&m2);
        assert!(!p2.infeasible);
        assert_eq!(p2.model.num_constraints(), 0);
    }

    #[test]
    fn equality_singleton_fixes_var() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_continuous("x", 0.0, 10.0);
        m.add_constraint("fix", vec![(x, 2.0)], Cmp::Eq, 8.0);
        let p = presolve(&m);
        assert_eq!(p.model.lower(x), 4.0);
        assert_eq!(p.model.upper(x), 4.0);
    }
}
