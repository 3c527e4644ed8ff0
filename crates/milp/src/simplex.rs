//! Bounded-variable two-phase revised primal simplex.
//!
//! Solves the LP relaxation of a [`Model`]: all variables are treated as
//! continuous within their bounds. The implementation keeps an explicit
//! dense basis inverse (suitable for the few-thousand-row models produced
//! by the placement encoder), sparse constraint columns, Dantzig pricing
//! with a Bland's-rule fallback for degeneracy, and bound-flip ("long
//! step") handling for boxed variables.
#![allow(clippy::needless_range_loop)] // dense kernels index several arrays at once

use crate::model::{Cmp, Model, Sense};
use crate::status::{LpOutcome, LpSolution, SolveError};

/// Hard cap on total simplex iterations (both phases) of one LP solve.
pub const LP_MAX_ITERATIONS: usize = 200_000;
/// Reduced-cost / pivot tolerance of the simplex.
pub const LP_TOLERANCE: f64 = 1e-9;

/// Solves the LP relaxation of `model`.
pub fn solve_lp(model: &Model) -> LpOutcome {
    solve_lp_with(model, LP_MAX_ITERATIONS).0
}

/// Solves the LP relaxation of `model` in at most `max_iterations`
/// simplex iterations; one more reports [`LpOutcome::IterationLimit`].
/// Also returns the iterations spent, whatever the outcome.
pub(crate) fn solve_lp_with(model: &Model, max_iterations: usize) -> (LpOutcome, usize) {
    if let Err(e) = validate_model(model) {
        return (LpOutcome::Error(e), 0);
    }
    let mut s = match Simplex::build(model, max_iterations) {
        Ok(s) => s,
        Err(e) => return (LpOutcome::Error(e), 0),
    };
    let outcome = s.solve(model);
    (outcome, s.iterations)
}

/// Rejects models the simplex cannot meaningfully process: NaN or
/// reversed variable bounds, a lower bound of `+inf` / upper of `-inf`,
/// and non-finite objective, constraint, or right-hand-side
/// coefficients.
pub(crate) fn validate_model(model: &Model) -> Result<(), SolveError> {
    for (j, v) in model.vars.iter().enumerate() {
        let bad = v.lower.is_nan()
            || v.upper.is_nan()
            || v.lower == f64::INFINITY
            || v.upper == f64::NEG_INFINITY
            || v.lower > v.upper;
        if bad {
            return Err(SolveError::BadBound {
                var: j,
                lower: v.lower,
                upper: v.upper,
            });
        }
        if !v.objective.is_finite() {
            return Err(SolveError::BadObjective {
                var: j,
                value: v.objective,
            });
        }
    }
    for (i, c) in model.constraints.iter().enumerate() {
        for &(v, a) in &c.terms {
            if !a.is_finite() {
                return Err(SolveError::BadCoefficient {
                    constraint: i,
                    var: v.0,
                    value: a,
                });
            }
        }
        if !c.rhs.is_finite() {
            return Err(SolveError::BadRhs {
                constraint: i,
                value: c.rhs,
            });
        }
    }
    Ok(())
}

#[derive(Clone, Copy, PartialEq, Debug)]
enum VStat {
    Basic(usize),
    AtLower,
    AtUpper,
    /// Nonbasic free variable parked at value zero.
    FreeZero,
}

enum PhaseResult {
    Converged,
    Unbounded,
    IterationLimit,
    Error(SolveError),
}

struct Simplex {
    /// Number of rows.
    m: usize,
    /// Number of structural variables (a prefix of the columns).
    n_struct: usize,
    /// Sparse columns: `cols[j]` lists `(row, coefficient)`.
    cols: Vec<Vec<(usize, f64)>>,
    lower: Vec<f64>,
    upper: Vec<f64>,
    /// Phase-2 (true) objective, already negated for maximization.
    cost2: Vec<f64>,
    /// Active-phase objective.
    cost: Vec<f64>,
    status: Vec<VStat>,
    /// `basis[i]` = column basic in row `i`.
    basis: Vec<usize>,
    /// Dense row-major basis inverse, `m × m`.
    binv: Vec<f64>,
    /// Values of basic variables, by row.
    xb: Vec<f64>,
    iterations: usize,
    /// Cap on `iterations`, both phases together.
    max_iterations: usize,
    /// Consecutive (near-)degenerate pivots; triggers Bland's rule.
    degenerate_streak: usize,
    /// First artificial column index (columns `>= art_start` are
    /// artificial), or `cols.len()` when there are none.
    art_start: usize,
}

impl Simplex {
    fn build(model: &Model, max_iterations: usize) -> Result<Simplex, SolveError> {
        let m = model.constraints.len();
        let n = model.vars.len();
        let sense_mul = match model.sense {
            Sense::Minimize => 1.0,
            Sense::Maximize => -1.0,
        };

        let mut cols: Vec<Vec<(usize, f64)>> = vec![Vec::new(); n];
        let mut lower: Vec<f64> = model.vars.iter().map(|v| v.lower).collect();
        let mut upper: Vec<f64> = model.vars.iter().map(|v| v.upper).collect();
        let mut cost2: Vec<f64> = model.vars.iter().map(|v| v.objective * sense_mul).collect();
        let mut rhs = Vec::with_capacity(m);
        for (i, c) in model.constraints.iter().enumerate() {
            for &(v, a) in &c.terms {
                cols[v.0].push((i, a));
            }
            rhs.push(c.rhs);
        }
        // Slack columns.
        for (i, c) in model.constraints.iter().enumerate() {
            cols.push(vec![(i, 1.0)]);
            let (lo, hi) = match c.cmp {
                Cmp::Le => (0.0, f64::INFINITY),
                Cmp::Ge => (f64::NEG_INFINITY, 0.0),
                Cmp::Eq => (0.0, 0.0),
            };
            lower.push(lo);
            upper.push(hi);
            cost2.push(0.0);
        }

        // Initial nonbasic statuses for structural variables: the finite
        // bound closest to zero, or free at zero.
        let mut status = Vec::with_capacity(cols.len());
        for j in 0..n {
            status.push(initial_status(lower[j], upper[j]));
        }
        // Residual each slack must absorb.
        let mut resid = rhs;
        for j in 0..n {
            let v = nb_value(lower[j], upper[j], status[j])?;
            if v != 0.0 {
                for &(i, a) in &cols[j] {
                    resid[i] -= a * v;
                }
            }
        }

        let mut basis = vec![usize::MAX; m];
        let mut xb = vec![0.0; m];
        let mut binv = vec![0.0; m * m];
        // First pass: slack statuses, keeping status indices aligned with
        // the slack columns n..n+m. Rows whose slack cannot absorb the
        // residual are deferred to the artificial pass.
        let mut needs_artificial: Vec<(usize, f64, f64)> = Vec::new(); // (row, r, sb)
        for i in 0..m {
            let sj = n + i;
            let (sl, su) = (lower[sj], upper[sj]);
            let r = resid[i];
            if r >= sl - LP_TOLERANCE && r <= su + LP_TOLERANCE {
                status.push(VStat::Basic(i));
                basis[i] = sj;
                xb[i] = r;
                binv[i * m + i] = 1.0;
            } else {
                // Park the slack at its nearest (finite) bound.
                let sb = if r < sl { sl } else { su };
                status.push(if sb == sl {
                    VStat::AtLower
                } else {
                    VStat::AtUpper
                });
                needs_artificial.push((i, r, sb));
            }
        }
        let art_candidate = cols.len();
        // Second pass: artificial columns, appended after every slack so
        // statuses stay aligned with columns.
        for (i, r, sb) in needs_artificial {
            let g: f64 = if r - sb > 0.0 { 1.0 } else { -1.0 };
            let aj = cols.len();
            cols.push(vec![(i, g)]);
            lower.push(0.0);
            upper.push(f64::INFINITY);
            cost2.push(0.0);
            status.push(VStat::Basic(i));
            basis[i] = aj;
            xb[i] = (r - sb) * g; // = |r - sb| > 0
            binv[i * m + i] = g;
        }
        debug_assert_eq!(status.len(), cols.len());

        let ncols = cols.len();
        Ok(Simplex {
            m,
            n_struct: n,
            cols,
            lower,
            upper,
            cost2,
            cost: vec![0.0; ncols],
            status,
            basis,
            binv,
            xb,
            iterations: 0,
            max_iterations,
            degenerate_streak: 0,
            art_start: art_candidate,
        })
    }

    fn solve(&mut self, model: &Model) -> LpOutcome {
        // Phase 1: minimize the sum of artificials, if any.
        if self.art_start < self.cols.len() {
            self.cost = vec![0.0; self.cols.len()];
            for j in self.art_start..self.cols.len() {
                self.cost[j] = 1.0;
            }
            match self.optimize() {
                PhaseResult::IterationLimit => return LpOutcome::IterationLimit,
                PhaseResult::Unbounded => {
                    return LpOutcome::Error(SolveError::Internal(
                        "phase-1 objective diverged below zero",
                    ))
                }
                PhaseResult::Error(e) => return LpOutcome::Error(e),
                PhaseResult::Converged => {}
            }
            let infeas: f64 = (0..self.m)
                .filter(|&i| self.basis[i] >= self.art_start)
                .map(|i| self.xb[i])
                .sum();
            if infeas > 1e-6 {
                return LpOutcome::Infeasible;
            }
            if let Err(e) = self.drive_out_artificials() {
                return LpOutcome::Error(e);
            }
            // Freeze artificials at zero so phase 2 cannot use them.
            for j in self.art_start..self.cols.len() {
                self.lower[j] = 0.0;
                self.upper[j] = 0.0;
            }
        }

        // Phase 2: true objective.
        self.cost = self.cost2.clone();
        match self.optimize() {
            PhaseResult::IterationLimit => LpOutcome::IterationLimit,
            PhaseResult::Unbounded => LpOutcome::Unbounded,
            PhaseResult::Error(e) => LpOutcome::Error(e),
            PhaseResult::Converged => {
                let mut values = vec![0.0; self.n_struct];
                for (j, value) in values.iter_mut().enumerate() {
                    *value = match self.status[j] {
                        VStat::Basic(i) => self.xb[i],
                        st => match nb_value(self.lower[j], self.upper[j], st) {
                            Ok(v) => v,
                            Err(e) => return LpOutcome::Error(e),
                        },
                    };
                }
                let objective = model.objective_value(&values);
                LpOutcome::Optimal(LpSolution {
                    values,
                    objective,
                    iterations: self.iterations,
                })
            }
        }
    }

    /// Pivots basic zero-valued artificials out of the basis where a
    /// non-artificial column can replace them; rows where none can are
    /// linearly redundant and keep their artificial pinned at zero.
    fn drive_out_artificials(&mut self) -> Result<(), SolveError> {
        for row in 0..self.m {
            if self.basis[row] < self.art_start {
                continue;
            }
            // Find a replacement column with a usable pivot in this row.
            let mut found = None;
            for j in 0..self.art_start {
                if matches!(self.status[j], VStat::Basic(_)) {
                    continue;
                }
                let alpha: f64 = self.cols[j]
                    .iter()
                    .map(|&(r, a)| self.binv[row * self.m + r] * a)
                    .sum();
                if alpha.abs() > 1e-7 {
                    found = Some(j);
                    break;
                }
            }
            let Some(q) = found else { continue };
            // Degenerate pivot: the artificial sits at zero, so the basis
            // exchange keeps all values unchanged except bookkeeping.
            let w = self.ftran(q);
            let old = self.basis[row];
            let enter_val = nb_value(self.lower[q], self.upper[q], self.status[q])?;
            self.pivot(row, q, w);
            self.xb[row] = enter_val;
            self.status[old] = VStat::AtLower;
        }
        Ok(())
    }

    /// `Binv * A_q` for a sparse column.
    fn ftran(&self, q: usize) -> Vec<f64> {
        let mut w = vec![0.0; self.m];
        for &(r, a) in &self.cols[q] {
            if a == 0.0 {
                continue;
            }
            let col_of_binv = r;
            for i in 0..self.m {
                w[i] += self.binv[i * self.m + col_of_binv] * a;
            }
        }
        w
    }

    /// Basis exchange: column `q` becomes basic in `row`.
    fn pivot(&mut self, row: usize, q: usize, w: Vec<f64>) {
        let piv = w[row];
        debug_assert!(piv.abs() > 1e-12, "pivot too small: {piv}");
        let m = self.m;
        let inv_piv = 1.0 / piv;
        for k in 0..m {
            self.binv[row * m + k] *= inv_piv;
        }
        for i in 0..m {
            if i == row {
                continue;
            }
            let f = w[i];
            if f == 0.0 {
                continue;
            }
            for k in 0..m {
                self.binv[i * m + k] -= f * self.binv[row * m + k];
            }
        }
        self.basis[row] = q;
        self.status[q] = VStat::Basic(row);
    }

    fn optimize(&mut self) -> PhaseResult {
        loop {
            #[cfg(debug_assertions)]
            for j in 0..self.cols.len() {
                match self.status[j] {
                    VStat::Basic(_) => {}
                    st => {
                        let v = nb_value(self.lower[j], self.upper[j], st)
                            .expect("nonbasic status always has a bound value");
                        assert!(
                            v.is_finite(),
                            "iter {}: column {j} nonbasic at non-finite bound {v} ({st:?}, [{}, {}])",
                            self.iterations, self.lower[j], self.upper[j]
                        );
                    }
                }
            }
            if self.iterations >= self.max_iterations {
                return PhaseResult::IterationLimit;
            }
            self.iterations += 1;
            let use_bland = self.degenerate_streak > 200;

            // Pricing: y = c_B' * Binv.
            let m = self.m;
            let mut y = vec![0.0; m];
            for i in 0..m {
                let cb = self.cost[self.basis[i]];
                if cb == 0.0 {
                    continue;
                }
                for k in 0..m {
                    y[k] += cb * self.binv[i * m + k];
                }
            }

            // Entering variable selection.
            let mut best: Option<(usize, f64, f64)> = None; // (col, |d|, sigma)
            for j in 0..self.cols.len() {
                let st = self.status[j];
                if matches!(st, VStat::Basic(_)) {
                    continue;
                }
                // Fixed columns (incl. frozen artificials) can never move.
                if self.upper[j] - self.lower[j] <= 0.0 {
                    continue;
                }
                let d = self.cost[j] - self.cols[j].iter().map(|&(r, a)| y[r] * a).sum::<f64>();
                let (eligible, sigma) = match st {
                    VStat::AtLower => (d < -LP_TOLERANCE, 1.0),
                    VStat::AtUpper => (d > LP_TOLERANCE, -1.0),
                    VStat::FreeZero => (d.abs() > LP_TOLERANCE, if d < 0.0 { 1.0 } else { -1.0 }),
                    VStat::Basic(_) => unreachable!(),
                };
                if !eligible {
                    continue;
                }
                if use_bland {
                    best = Some((j, d.abs(), sigma));
                    break;
                }
                if best.map(|(_, bd, _)| d.abs() > bd).unwrap_or(true) {
                    best = Some((j, d.abs(), sigma));
                }
            }
            let Some((q, _, sigma)) = best else {
                return PhaseResult::Converged;
            };

            // Ratio test.
            let w = self.ftran(q);
            let span = self.upper[q] - self.lower[q]; // may be inf
            let mut t_best = f64::INFINITY;
            let mut leave: Option<usize> = None;
            let mut leave_w: f64 = 0.0;
            for i in 0..m {
                let wi = w[i];
                if wi.abs() <= 1e-10 {
                    continue;
                }
                let bvar = self.basis[i];
                let rate = sigma * wi; // xb[i] moves at -rate per unit t
                let t_i = if rate > 0.0 {
                    let lo = self.lower[bvar];
                    if lo == f64::NEG_INFINITY {
                        continue;
                    }
                    (self.xb[i] - lo) / rate
                } else {
                    let hi = self.upper[bvar];
                    if hi == f64::INFINITY {
                        continue;
                    }
                    (self.xb[i] - hi) / rate
                };
                let t_i = t_i.max(0.0);
                if t_i < t_best - 1e-12 || (t_i < t_best + 1e-12 && wi.abs() > leave_w.abs()) {
                    t_best = t_i;
                    leave = Some(i);
                    leave_w = wi;
                }
            }

            let flip = span.is_finite() && span <= t_best;
            let t = if flip { span } else { t_best };
            if t == f64::INFINITY {
                return PhaseResult::Unbounded;
            }
            self.degenerate_streak = if t <= 1e-10 {
                self.degenerate_streak + 1
            } else {
                0
            };

            // Move basic values.
            if t != 0.0 {
                for i in 0..m {
                    self.xb[i] -= sigma * t * w[i];
                }
            }

            if flip {
                self.status[q] = match self.status[q] {
                    VStat::AtLower => VStat::AtUpper,
                    VStat::AtUpper => VStat::AtLower,
                    other => other, // free vars never flip (span infinite)
                };
            } else {
                let Some(row) = leave else {
                    return PhaseResult::Error(SolveError::Internal(
                        "bounded step has no leaving row",
                    ));
                };
                let leaving = self.basis[row];
                let rate = sigma * w[row];
                let enter_val = match nb_value(self.lower[q], self.upper[q], self.status[q]) {
                    Ok(v) => v + sigma * t,
                    Err(e) => return PhaseResult::Error(e),
                };
                self.status[leaving] = if rate > 0.0 {
                    debug_assert!(
                        self.lower[leaving].is_finite(),
                        "leaving {leaving} to -inf lower (rate {rate}, w {})",
                        w[row]
                    );
                    VStat::AtLower
                } else {
                    debug_assert!(
                        self.upper[leaving].is_finite(),
                        "leaving {leaving} to +inf upper (rate {rate}, w {})",
                        w[row]
                    );
                    VStat::AtUpper
                };
                // A leaving free variable parks wherever it ended; model it
                // as a fixed bound at its final value to stay consistent.
                if self.lower[leaving] == f64::NEG_INFINITY && self.upper[leaving] == f64::INFINITY
                {
                    let v = self.xb[row];
                    self.lower[leaving] = v;
                    self.upper[leaving] = v;
                    self.status[leaving] = VStat::AtLower;
                }
                self.pivot(row, q, w);
                self.xb[row] = enter_val;
            }
        }
    }
}

fn initial_status(lower: f64, upper: f64) -> VStat {
    match (lower.is_finite(), upper.is_finite()) {
        (true, true) => {
            if lower.abs() <= upper.abs() {
                VStat::AtLower
            } else {
                VStat::AtUpper
            }
        }
        (true, false) => VStat::AtLower,
        (false, true) => VStat::AtUpper,
        (false, false) => VStat::FreeZero,
    }
}

/// The resting value of a *nonbasic* variable. Asking for a basic
/// variable's bound value is a solver invariant violation and surfaces
/// as [`SolveError::Internal`] rather than a panic, so a malformed
/// model cannot abort a long-running caller.
fn nb_value(lower: f64, upper: f64, status: VStat) -> Result<f64, SolveError> {
    match status {
        VStat::AtLower => Ok(lower),
        VStat::AtUpper => Ok(upper),
        VStat::FreeZero => Ok(0.0),
        VStat::Basic(_) => Err(SolveError::Internal("basic variable has no bound value")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Cmp, Model, Sense, VarId};

    /// Audit helper: solve and then recompute, from scratch, the basis
    /// inverse and the reduced costs, reporting any inconsistency between
    /// the converged state and exact linear algebra.
    fn audit(model: &Model) -> (LpSolution, Vec<String>) {
        let mut s = Simplex::build(model, LP_MAX_ITERATIONS).expect("audit models are well-formed");
        let out = s.solve(model);
        let sol = match out {
            LpOutcome::Optimal(ref sol) => sol.clone(),
            ref other => panic!("expected optimal, got {:?}", other.status()),
        };
        let mut problems = Vec::new();
        let m = s.m;
        // Exact basis inverse via Gauss-Jordan on [B | I].
        let mut aug = vec![0.0f64; m * 2 * m];
        for (i, &bj) in s.basis.iter().enumerate() {
            for &(r, a) in &s.cols[bj] {
                aug[r * 2 * m + i] = a;
            }
        }
        for i in 0..m {
            aug[i * 2 * m + m + i] = 1.0;
        }
        for col in 0..m {
            let mut piv = col;
            for r in col + 1..m {
                if aug[r * 2 * m + col].abs() > aug[piv * 2 * m + col].abs() {
                    piv = r;
                }
            }
            if aug[piv * 2 * m + col].abs() < 1e-12 {
                problems.push(format!("basis singular at column {col}"));
                return (sol, problems);
            }
            if piv != col {
                for k in 0..2 * m {
                    aug.swap(col * 2 * m + k, piv * 2 * m + k);
                }
            }
            let d = aug[col * 2 * m + col];
            for k in 0..2 * m {
                aug[col * 2 * m + k] /= d;
            }
            for r in 0..m {
                if r != col {
                    let f = aug[r * 2 * m + col];
                    if f != 0.0 {
                        for k in 0..2 * m {
                            aug[r * 2 * m + k] -= f * aug[col * 2 * m + k];
                        }
                    }
                }
            }
        }
        let exact_binv: Vec<f64> = (0..m)
            .flat_map(|r| (0..m).map(move |k| (r, k)))
            .map(|(r, k)| aug[r * 2 * m + m + k])
            .collect();
        for i in 0..m * m {
            if (exact_binv[i] - s.binv[i]).abs() > 1e-6 {
                problems.push(format!(
                    "binv drift at {i}: maintained {} vs exact {}",
                    s.binv[i], exact_binv[i]
                ));
                break;
            }
        }
        // Exact basic values: xb = Binv (b - N x_N).
        let mut rhs_adj: Vec<f64> = model.constraints.iter().map(|c| c.rhs).collect();
        for j in 0..s.cols.len() {
            let val = match s.status[j] {
                VStat::Basic(_) => continue,
                st => nb_value(s.lower[j], s.upper[j], st).expect("nonbasic"),
            };
            if !val.is_finite() {
                problems.push(format!(
                    "column {j} nonbasic at infinite bound: status {:?} bounds [{}, {}]",
                    s.status[j], s.lower[j], s.upper[j]
                ));
            }
            if val != 0.0 {
                for &(r, a) in &s.cols[j] {
                    rhs_adj[r] -= a * val;
                }
            }
        }
        for i in 0..m {
            let exact: f64 = (0..m).map(|k| exact_binv[i * m + k] * rhs_adj[k]).sum();
            if (exact - s.xb[i]).abs() > 1e-6 {
                problems.push(format!(
                    "xb drift at row {i}: maintained {} vs exact {}",
                    s.xb[i], exact
                ));
            }
        }
        // Exact reduced costs.
        let mut y = vec![0.0; m];
        for i in 0..m {
            let cb = s.cost[s.basis[i]];
            for k in 0..m {
                y[k] += cb * exact_binv[i * m + k];
            }
        }
        for j in 0..s.cols.len() {
            if matches!(s.status[j], VStat::Basic(_)) || s.upper[j] - s.lower[j] <= 0.0 {
                continue;
            }
            let d = s.cost[j] - s.cols[j].iter().map(|&(r, a)| y[r] * a).sum::<f64>();
            let bad = match s.status[j] {
                VStat::AtLower => d < -1e-6,
                VStat::AtUpper => d > 1e-6,
                VStat::FreeZero => d.abs() > 1e-6,
                VStat::Basic(_) => false,
            };
            if bad {
                problems.push(format!(
                    "column {j} status {:?} has improving reduced cost {d}",
                    s.status[j]
                ));
            }
        }
        (sol, problems)
    }

    #[test]
    fn audit_seed3_cover_model() {
        // Regression: a random covering model where the simplex once
        // stopped at 8.6 although the optimum is 8.0.
        let mut m = Model::new(Sense::Minimize);
        let v: Vec<VarId> = (0..12)
            .map(|i| m.add_continuous(format!("x{i}"), 0.0, 1.0))
            .collect();
        let costs = [1.0, 2.0, 3.0, 2.0, 1.0, 2.0, 3.0, 3.0, 3.0, 1.0, 4.0, 3.0];
        for (x, c) in v.iter().zip(costs) {
            m.set_objective(*x, c);
        }
        let ge: &[(&[(usize, f64)], f64)] = &[
            (&[(7, 1.0), (11, 1.0)], 1.0),
            (&[(0, 1.0), (9, 1.0)], 1.0),
            (&[(5, 1.0), (8, 1.0), (11, 2.0)], 1.0),
            (&[(1, 1.0), (4, 2.0), (11, 1.0)], 1.0),
            (&[(2, 1.0), (8, 1.0)], 1.0),
            (&[(4, 1.0), (8, 2.0), (11, 1.0)], 1.0),
            (&[(5, 1.0), (8, 1.0), (11, 1.0)], 1.0),
            (&[(1, 1.0), (2, 1.0), (3, 1.0), (11, 1.0)], 1.0),
        ];
        for (i, (terms, rhs)) in ge.iter().enumerate() {
            m.add_constraint(
                format!("c{i}"),
                terms.iter().map(|&(j, a)| (v[j], a)).collect(),
                Cmp::Ge,
                *rhs,
            );
        }
        m.add_constraint("cap", v.iter().map(|&x| (x, 1.0)).collect(), Cmp::Le, 8.0);
        let (sol, problems) = audit(&m);
        assert!(problems.is_empty(), "audit: {problems:?}");
        assert!(
            sol.objective <= 8.0 + 1e-6,
            "LP bound {} exceeds integer optimum 8",
            sol.objective
        );
    }

    fn lp(model: &Model) -> LpSolution {
        match solve_lp(model) {
            LpOutcome::Optimal(s) => s,
            other => panic!("expected optimal, got {:?}", other.status()),
        }
    }

    #[test]
    fn malformed_models_error_instead_of_panicking() {
        // Model constructors assert on NaN inputs; validation catches
        // what slips past them: infinite pins, and NaN set after the
        // fact. A lower bound pinned at +inf is unusable.
        let mut m = Model::new(Sense::Minimize);
        m.add_continuous("x", f64::INFINITY, f64::INFINITY);
        assert!(matches!(
            solve_lp(&m),
            LpOutcome::Error(SolveError::BadBound { var: 0, .. })
        ));
        // Non-finite constraint coefficient.
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_continuous("x", 0.0, 1.0);
        m.add_constraint("c", vec![(x, f64::INFINITY)], Cmp::Le, 1.0);
        assert!(matches!(
            solve_lp(&m),
            LpOutcome::Error(SolveError::BadCoefficient { .. })
        ));
        // Non-finite rhs.
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_continuous("x", 0.0, 1.0);
        m.add_constraint("c", vec![(x, 1.0)], Cmp::Le, f64::INFINITY);
        assert!(matches!(
            solve_lp(&m),
            LpOutcome::Error(SolveError::BadRhs { .. })
        ));
        // Non-finite objective.
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_continuous("x", 0.0, 1.0);
        m.set_objective(x, f64::NAN);
        assert!(matches!(
            solve_lp(&m),
            LpOutcome::Error(SolveError::BadObjective { .. })
        ));
    }

    #[test]
    fn error_outcome_has_error_status() {
        let e = LpOutcome::Error(SolveError::Internal("test"));
        assert_eq!(e.status(), crate::status::LpStatus::Error);
        assert!(e.solution().is_none());
    }

    #[test]
    fn trivial_bounds_only() {
        // minimize x, 2 <= x <= 5 → x = 2.
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_continuous("x", 2.0, 5.0);
        m.set_objective(x, 1.0);
        let s = lp(&m);
        assert!((s.values[x.0] - 2.0).abs() < 1e-7);
        assert!((s.objective - 2.0).abs() < 1e-7);
    }

    #[test]
    fn classic_two_var_max() {
        // maximize 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18 → (2, 6), 36.
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_continuous("x", 0.0, f64::INFINITY);
        let y = m.add_continuous("y", 0.0, f64::INFINITY);
        m.set_objective(x, 3.0);
        m.set_objective(y, 5.0);
        m.add_constraint("c1", vec![(x, 1.0)], Cmp::Le, 4.0);
        m.add_constraint("c2", vec![(y, 2.0)], Cmp::Le, 12.0);
        m.add_constraint("c3", vec![(x, 3.0), (y, 2.0)], Cmp::Le, 18.0);
        let s = lp(&m);
        assert!(
            (s.objective - 36.0).abs() < 1e-6,
            "objective {}",
            s.objective
        );
        assert!((s.values[x.0] - 2.0).abs() < 1e-6);
        assert!((s.values[y.0] - 6.0).abs() < 1e-6);
    }

    #[test]
    fn ge_constraints_need_phase_one() {
        // minimize x + y s.t. x + y >= 3, x - y >= -1 → e.g. (1,2), obj 3.
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_continuous("x", 0.0, f64::INFINITY);
        let y = m.add_continuous("y", 0.0, f64::INFINITY);
        m.set_objective(x, 1.0);
        m.set_objective(y, 1.0);
        m.add_constraint("c1", vec![(x, 1.0), (y, 1.0)], Cmp::Ge, 3.0);
        m.add_constraint("c2", vec![(x, 1.0), (y, -1.0)], Cmp::Ge, -1.0);
        let s = lp(&m);
        assert!((s.objective - 3.0).abs() < 1e-6);
    }

    #[test]
    fn equality_constraints() {
        // minimize 2x + 3y s.t. x + y = 4, x - y = 0 → (2,2), obj 10.
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_continuous("x", 0.0, f64::INFINITY);
        let y = m.add_continuous("y", 0.0, f64::INFINITY);
        m.set_objective(x, 2.0);
        m.set_objective(y, 3.0);
        m.add_constraint("c1", vec![(x, 1.0), (y, 1.0)], Cmp::Eq, 4.0);
        m.add_constraint("c2", vec![(x, 1.0), (y, -1.0)], Cmp::Eq, 0.0);
        let s = lp(&m);
        assert!((s.objective - 10.0).abs() < 1e-6);
        assert!((s.values[x.0] - 2.0).abs() < 1e-6);
    }

    #[test]
    fn detects_infeasible() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_continuous("x", 0.0, 1.0);
        m.add_constraint("c1", vec![(x, 1.0)], Cmp::Ge, 2.0);
        assert!(matches!(solve_lp(&m), LpOutcome::Infeasible));
    }

    #[test]
    fn detects_infeasible_between_rows() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_continuous("x", f64::NEG_INFINITY, f64::INFINITY);
        m.add_constraint("c1", vec![(x, 1.0)], Cmp::Ge, 2.0);
        m.add_constraint("c2", vec![(x, 1.0)], Cmp::Le, 1.0);
        assert!(matches!(solve_lp(&m), LpOutcome::Infeasible));
    }

    #[test]
    fn detects_unbounded() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_continuous("x", 0.0, f64::INFINITY);
        m.set_objective(x, 1.0);
        m.add_constraint("c1", vec![(x, -1.0)], Cmp::Le, 0.0);
        assert!(matches!(solve_lp(&m), LpOutcome::Unbounded));
    }

    #[test]
    fn free_variables() {
        // minimize x s.t. x >= -7 (free var) → -7.
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_continuous("x", f64::NEG_INFINITY, f64::INFINITY);
        m.set_objective(x, 1.0);
        m.add_constraint("c1", vec![(x, 1.0)], Cmp::Ge, -7.0);
        let s = lp(&m);
        assert!((s.objective + 7.0).abs() < 1e-6);
    }

    #[test]
    fn negative_rhs_and_bounds() {
        // maximize x + y, -3 <= x <= -1, y <= 0, x + y >= -5.
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_continuous("x", -3.0, -1.0);
        let y = m.add_continuous("y", f64::NEG_INFINITY, 0.0);
        m.set_objective(x, 1.0);
        m.set_objective(y, 1.0);
        m.add_constraint("c", vec![(x, 1.0), (y, 1.0)], Cmp::Ge, -5.0);
        let s = lp(&m);
        assert!((s.objective - (-1.0)).abs() < 1e-6, "obj {}", s.objective);
    }

    #[test]
    fn bound_flip_path() {
        // maximize x + 2y with x,y in [0,1] and x + y <= 2 — both to upper.
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_continuous("x", 0.0, 1.0);
        let y = m.add_continuous("y", 0.0, 1.0);
        m.set_objective(x, 1.0);
        m.set_objective(y, 2.0);
        m.add_constraint("c", vec![(x, 1.0), (y, 1.0)], Cmp::Le, 2.0);
        let s = lp(&m);
        assert!((s.objective - 3.0).abs() < 1e-6);
    }

    #[test]
    fn degenerate_cover_lp() {
        // Fractional set-cover LP: x+y>=1, y+z>=1, x+z>=1, minimize sum →
        // 1.5 at x=y=z=0.5.
        let mut m = Model::new(Sense::Minimize);
        let v: Vec<VarId> = (0..3)
            .map(|i| m.add_continuous(format!("x{i}"), 0.0, 1.0))
            .collect();
        for x in &v {
            m.set_objective(*x, 1.0);
        }
        m.add_constraint("a", vec![(v[0], 1.0), (v[1], 1.0)], Cmp::Ge, 1.0);
        m.add_constraint("b", vec![(v[1], 1.0), (v[2], 1.0)], Cmp::Ge, 1.0);
        m.add_constraint("c", vec![(v[0], 1.0), (v[2], 1.0)], Cmp::Ge, 1.0);
        let s = lp(&m);
        assert!((s.objective - 1.5).abs() < 1e-6, "obj {}", s.objective);
    }

    #[test]
    fn redundant_equalities_ok() {
        // x + y = 2 duplicated; minimize x → x=0, y=2.
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_continuous("x", 0.0, f64::INFINITY);
        let y = m.add_continuous("y", 0.0, f64::INFINITY);
        m.set_objective(x, 1.0);
        m.add_constraint("c1", vec![(x, 1.0), (y, 1.0)], Cmp::Eq, 2.0);
        m.add_constraint("c2", vec![(x, 1.0), (y, 1.0)], Cmp::Eq, 2.0);
        let s = lp(&m);
        assert!(s.objective.abs() < 1e-6);
        assert!((s.values[y.0] - 2.0).abs() < 1e-6);
    }

    #[test]
    fn solution_is_feasible_for_model() {
        let mut m = Model::new(Sense::Minimize);
        let v: Vec<VarId> = (0..6)
            .map(|i| m.add_continuous(format!("x{i}"), 0.0, 1.0))
            .collect();
        for (i, x) in v.iter().enumerate() {
            m.set_objective(*x, 1.0 + (i as f64) * 0.3);
        }
        m.add_constraint("r1", vec![(v[0], 1.0), (v[3], 1.0)], Cmp::Ge, 1.0);
        m.add_constraint("r2", vec![(v[1], 1.0), (v[4], 1.0)], Cmp::Ge, 1.0);
        m.add_constraint("r3", vec![(v[2], 1.0), (v[5], 1.0)], Cmp::Ge, 1.0);
        m.add_constraint("cap", v.iter().map(|&x| (x, 1.0)).collect(), Cmp::Le, 4.0);
        let s = lp(&m);
        assert!(m.check_feasible(&s.values, 1e-6).is_ok());
        // Cheapest cover: x0 (1.0) + x1 (1.3) + x2 (1.6) = 3.9.
        assert!((s.objective - 3.9).abs() < 1e-6, "obj {}", s.objective);
    }
}
