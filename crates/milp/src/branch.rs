//! Branch & bound over the LP relaxation.

use crate::model::{Cmp, Model, Sense, VarId};
use crate::simplex::{solve_lp_with, LP_MAX_ITERATIONS};
use crate::status::{LpOutcome, MipOutcome, MipSolution, MipStatus};

/// A lazy-constraint callback.
///
/// Invoked whenever an integral candidate solution is found (by the LP or
/// by a heuristic). It must return every constraint the candidate violates
/// (empty = accept the candidate). Returned rows are added to the model
/// permanently, so they also cut off future candidates. This is how the
/// placement encoder generates its quadratic-size dependency rows only
/// when actually violated.
pub type LazyCallback<'a> = dyn FnMut(&[f64]) -> Vec<crate::model::Constraint> + 'a;

/// Integrality tolerance on binary variables.
pub const INTEGRALITY_TOL: f64 = 1e-6;
/// Nodes whose LP bound is within this of the incumbent are pruned.
pub const ABSOLUTE_GAP: f64 = 1e-6;

/// Options controlling a MIP solve.
#[derive(Clone, Debug, Default)]
pub struct MipOptions {
    /// Budget in simplex iterations, summed over every LP of the
    /// search; `None` = unlimited. A search that spends it stops with
    /// what it has ([`MipStatus::Feasible`] or [`MipStatus::Unknown`]):
    /// the same model and budget stop at the same point on any machine.
    pub iteration_limit: Option<usize>,
    /// Optional warm-start solution; used as the initial incumbent if it
    /// is feasible for the model (and accepted by the lazy callback).
    pub initial_solution: Option<Vec<f64>>,
}

/// Solves `model` to integer optimality (or a limit) without lazy rows.
pub fn solve_mip(model: &Model, options: &MipOptions) -> MipOutcome {
    solve_mip_lazy(model, options, &mut |_| Vec::new())
}

/// Rounds an LP point to binaries and repairs violated rows: covering
/// (`≥`) rows by raising the highest-LP-value zero variable, packing
/// (`≤`) rows by raising zero variables with negative coefficients (how
/// merge discounts enter capacity rows). Returns a feasible point or
/// `None`.
fn round_and_repair(model: &Model, lp_values: &[f64], binaries: &[VarId]) -> Option<Vec<f64>> {
    let mut vals = lp_values.to_vec();
    for &b in binaries {
        vals[b.0] = if vals[b.0] >= 0.5 { 1.0 } else { 0.0 };
    }
    // Repair >= rows by setting additional variables to 1.
    for c in model.constraints() {
        if !matches!(c.cmp, Cmp::Ge) {
            continue;
        }
        let mut lhs: f64 = c.terms.iter().map(|(v, a)| a * vals[v.0]).sum();
        while lhs < c.rhs - 1e-9 {
            let pick = c
                .terms
                .iter()
                .filter(|(v, a)| *a > 0.0 && vals[v.0] < 0.5 && model.upper(*v) >= 1.0)
                .max_by(|(v1, _), (v2, _)| {
                    lp_values[v1.0]
                        .partial_cmp(&lp_values[v2.0])
                        .unwrap_or(std::cmp::Ordering::Equal)
                });
            match pick {
                None => return None,
                Some(&(v, a)) => {
                    vals[v.0] = 1.0;
                    lhs += a;
                }
            }
        }
    }
    // Repair <= rows via negative-coefficient variables (e.g. merge vars).
    for c in model.constraints() {
        if !matches!(c.cmp, Cmp::Le) {
            continue;
        }
        let mut lhs: f64 = c.terms.iter().map(|(v, a)| a * vals[v.0]).sum();
        if lhs <= c.rhs + 1e-9 {
            continue;
        }
        for &(v, a) in &c.terms {
            if a < 0.0 && vals[v.0] < 0.5 && model.upper(v) >= 1.0 {
                vals[v.0] = 1.0;
                lhs += a;
                if lhs <= c.rhs + 1e-9 {
                    break;
                }
            }
        }
    }
    // Honor current node bounds and verify everything.
    for &b in binaries {
        if vals[b.0] < model.lower(b) || vals[b.0] > model.upper(b) {
            return None;
        }
    }
    model.check_feasible(&vals, 1e-6).ok().map(|_| vals)
}

struct Node {
    /// `(var, lower, upper)` overrides accumulated from the root.
    bounds: Vec<(VarId, f64, f64)>,
    /// LP bound inherited from the parent (in minimize-space).
    parent_bound: f64,
}

/// Solves `model` with a lazy-constraint callback (see [`LazyCallback`]).
///
/// The search is depth-first (dive on the branch closer to the LP value)
/// with best-bound pruning against the incumbent. Works for pure-binary and
/// mixed models; only binary variables are branched on.
pub fn solve_mip_lazy(
    model: &Model,
    options: &MipOptions,
    lazy: &mut LazyCallback<'_>,
) -> MipOutcome {
    // Internal bound/prune logic is written for minimization.
    let mul = match model.sense {
        Sense::Minimize => 1.0,
        Sense::Maximize => -1.0,
    };
    // Reject malformed models up front: every node would fail the same
    // way, so surface the error once instead of searching.
    if crate::simplex::validate_model(model).is_err() {
        return MipOutcome {
            status: MipStatus::Error,
            best: None,
            bound: f64::NEG_INFINITY * mul,
            nodes: 0,
            lp_iterations: 0,
            lazy_rows_added: 0,
        };
    }
    let mut work = model.clone();
    let binaries = work.binary_vars();
    // With an all-integer objective over binaries, any improving solution
    // beats the incumbent by >= 1, so nodes within 1 of it can be pruned.
    let integral_objective = binaries.len() == work.num_vars()
        && (0..work.num_vars()).all(|v| work.objective_coefficient(VarId(v)).fract() == 0.0);
    let prune_slack = |inc: f64| {
        if integral_objective {
            inc - 1.0 + 1e-6
        } else {
            inc - ABSOLUTE_GAP
        }
    };

    let mut nodes = 0usize;
    let mut lp_iterations = 0usize;
    let mut lazy_rows_added = 0usize;
    let mut incumbent: Option<(f64, Vec<f64>)> = None; // (min-space obj, values)
    let mut hit_limit = false;
    let mut solver_broke = false;

    // Warm start.
    if let Some(init) = &options.initial_solution {
        if work.check_feasible(init, 1e-6).is_ok() {
            let cuts = lazy(init);
            if cuts.is_empty() {
                incumbent = Some((work.objective_value(init) * mul, init.clone()));
            } else {
                for c in cuts {
                    work.add_constraint(c.name, c.terms, c.cmp, c.rhs);
                    lazy_rows_added += 1;
                }
            }
        }
    }

    let mut stack = vec![Node {
        bounds: Vec::new(),
        parent_bound: f64::NEG_INFINITY,
    }];
    // Bound over pruned/open space for gap reporting (minimize-space).
    let mut open_bound_floor = f64::INFINITY;

    'search: while let Some(node) = stack.pop() {
        if options
            .iteration_limit
            .is_some_and(|limit| lp_iterations >= limit)
        {
            hit_limit = true;
            open_bound_floor = open_bound_floor.min(node.parent_bound);
            for rest in &stack {
                open_bound_floor = open_bound_floor.min(rest.parent_bound);
            }
            break 'search;
        }
        nodes += 1;

        // Parent-bound pruning (the incumbent may have improved since the
        // node was pushed).
        if let Some((inc, _)) = &incumbent {
            if node.parent_bound >= prune_slack(*inc) {
                continue;
            }
        }

        // Apply node bounds.
        let saved: Vec<(VarId, f64, f64)> = node
            .bounds
            .iter()
            .map(|&(v, _, _)| (v, work.lower(v), work.upper(v)))
            .collect();
        for &(v, lo, hi) in &node.bounds {
            work.set_bounds(v, lo, hi);
        }

        // Solve this node (re-solving when lazy rows get added).
        let node_result = loop {
            // What is left of the budget caps each LP, so one oversized
            // LP cannot overshoot it.
            let cap = options.iteration_limit.map_or(LP_MAX_ITERATIONS, |limit| {
                LP_MAX_ITERATIONS.min(limit - lp_iterations)
            });
            let (outcome, spent) = solve_lp_with(&work, cap);
            lp_iterations += spent;
            match outcome {
                LpOutcome::Infeasible => break None,
                // A bounded-binary placement model can never be
                // unbounded unless continuous vars are; like an LP cut
                // by its cap, a node we cannot reason about: it stays
                // open at its parent's bound.
                LpOutcome::Unbounded | LpOutcome::IterationLimit => {
                    hit_limit = true;
                    open_bound_floor = open_bound_floor.min(node.parent_bound);
                    break None;
                }
                LpOutcome::Error(_) => {
                    // A solver invariant broke mid-search (the model
                    // itself validated above): abort rather than risk an
                    // incorrect bound.
                    solver_broke = true;
                    break None;
                }
                LpOutcome::Optimal(sol) => {
                    let bound = sol.objective * mul;
                    if let Some((inc, _)) = &incumbent {
                        if bound >= prune_slack(*inc) {
                            break None; // pruned by bound
                        }
                    }
                    // Find the most fractional binary.
                    let mut frac: Option<(VarId, f64)> = None;
                    for &b in &binaries {
                        let x = sol.values[b.0];
                        let dist = (x - x.round()).abs();
                        if dist > INTEGRALITY_TOL && frac.map(|(_, d)| dist > d).unwrap_or(true) {
                            frac = Some((b, dist));
                        }
                    }
                    match frac {
                        None => {
                            // Integral: round exactly, then let the lazy
                            // callback veto / cut.
                            let mut values = sol.values.clone();
                            for &b in &binaries {
                                values[b.0] = values[b.0].round();
                            }
                            let cuts = lazy(&values);
                            if cuts.is_empty() {
                                break Some((bound, values, None));
                            }
                            for c in cuts {
                                work.add_constraint(c.name, c.terms, c.cmp, c.rhs);
                                lazy_rows_added += 1;
                            }
                            continue; // re-solve the same node
                        }
                        Some((var, _)) => {
                            // Try a cheap rounding incumbent before
                            // committing to a branch.
                            if let Some(heur) = round_and_repair(&work, &sol.values, &binaries) {
                                let hobj = work.objective_value(&heur) * mul;
                                let better = incumbent
                                    .as_ref()
                                    .map(|(inc, _)| hobj < inc - ABSOLUTE_GAP)
                                    .unwrap_or(true);
                                if better {
                                    let cuts = lazy(&heur);
                                    if cuts.is_empty() {
                                        incumbent = Some((hobj, heur));
                                    } else {
                                        for c in cuts {
                                            work.add_constraint(c.name, c.terms, c.cmp, c.rhs);
                                            lazy_rows_added += 1;
                                        }
                                    }
                                }
                            }
                            break Some((bound, sol.values.clone(), Some(var)));
                        }
                    }
                }
            }
        };

        // Restore bounds before queueing children (children re-apply the
        // full override chain from the root).
        for &(v, lo, hi) in saved.iter().rev() {
            work.set_bounds(v, lo, hi);
        }

        if solver_broke {
            break 'search;
        }
        let Some((bound, values, branch_var)) = node_result else {
            continue;
        };
        match branch_var {
            None => {
                let better = incumbent
                    .as_ref()
                    .map(|(inc, _)| bound < inc - ABSOLUTE_GAP)
                    .unwrap_or(true);
                if better {
                    incumbent = Some((bound, values));
                }
            }
            Some(var) => {
                let x = values[var.0];
                // Children must stay within the variable's standing bounds
                // (the caller may have tightened them with `set_bounds`);
                // a branch value outside them is simply pruned.
                type Child = (f64, Vec<(VarId, f64, f64)>);
                let mut children: Vec<Child> = Vec::new();
                for value in [0.0, 1.0] {
                    if value < work.lower(var) - 1e-9 || value > work.upper(var) + 1e-9 {
                        continue;
                    }
                    let mut bounds = node.bounds.clone();
                    bounds.push((var, value, value));
                    children.push((value, bounds));
                }
                // DFS: push the less-likely child first so the dive
                // follows the LP value.
                children.sort_by(|a, b| {
                    let da = (a.0 - x).abs();
                    let db = (b.0 - x).abs();
                    db.partial_cmp(&da).unwrap_or(std::cmp::Ordering::Equal)
                });
                for (_, bounds) in children {
                    stack.push(Node {
                        bounds,
                        parent_bound: bound,
                    });
                }
            }
        }
    }

    let status = if solver_broke {
        MipStatus::Error
    } else {
        match (&incumbent, hit_limit) {
            (Some(_), false) => MipStatus::Optimal,
            (Some(_), true) => MipStatus::Feasible,
            (None, false) => MipStatus::Infeasible,
            (None, true) => MipStatus::Unknown,
        }
    };
    let best = incumbent.map(|(obj, values)| MipSolution {
        objective: obj * mul,
        values,
    });
    let bound = match status {
        MipStatus::Optimal => best.as_ref().map(|b| b.objective).unwrap_or(0.0),
        MipStatus::Infeasible => f64::INFINITY * mul,
        _ => {
            let floor = if open_bound_floor.is_finite() {
                open_bound_floor
            } else {
                f64::NEG_INFINITY
            };
            floor * mul
        }
    };
    MipOutcome {
        status,
        best,
        bound,
        nodes,
        lp_iterations,
        lazy_rows_added,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Cmp, Sense};

    #[test]
    fn malformed_model_yields_error_status() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_binary("x");
        m.set_objective(x, f64::NAN);
        let out = crate::solve_mip(&m, &MipOptions::default());
        assert_eq!(out.status, MipStatus::Error);
        assert!(out.best.is_none());
        assert_eq!(out.nodes, 0);
    }

    #[test]
    fn knapsack_small() {
        // max 10a + 6b + 4c s.t. a+b+c <= 2 (binaries) → 16.
        let mut m = Model::new(Sense::Maximize);
        let a = m.add_binary("a");
        let b = m.add_binary("b");
        let c = m.add_binary("c");
        m.set_objective(a, 10.0);
        m.set_objective(b, 6.0);
        m.set_objective(c, 4.0);
        m.add_constraint("cap", vec![(a, 1.0), (b, 1.0), (c, 1.0)], Cmp::Le, 2.0);
        let out = solve_mip(&m, &MipOptions::default());
        assert!(out.is_optimal());
        let sol = out.solution().unwrap();
        assert!((sol.objective - 16.0).abs() < 1e-6);
        assert_eq!(sol.values[a.0], 1.0);
        assert_eq!(sol.values[b.0], 1.0);
        assert_eq!(sol.values[c.0], 0.0);
    }

    /// max 5a + 4b + 3c s.t. 2a + 3b + c <= 4. Optimum 8 (a = c = 1);
    /// the LP relaxation is fractional (b = 1/3), forcing a branch.
    fn weighted_knapsack() -> Model {
        let mut m = Model::new(Sense::Maximize);
        let a = m.add_binary("a");
        let b = m.add_binary("b");
        let c = m.add_binary("c");
        m.set_objective(a, 5.0);
        m.set_objective(b, 4.0);
        m.set_objective(c, 3.0);
        m.add_constraint("cap", vec![(a, 2.0), (b, 3.0), (c, 1.0)], Cmp::Le, 4.0);
        m
    }

    #[test]
    fn weighted_knapsack_needs_branching() {
        let out = solve_mip(&weighted_knapsack(), &MipOptions::default());
        let sol = out.solution().unwrap();
        assert!((sol.objective - 8.0).abs() < 1e-6, "obj {}", sol.objective);
        assert!(out.is_optimal());
    }

    #[test]
    fn infeasible_binaries() {
        // a + b >= 3 with two binaries.
        let mut m = Model::new(Sense::Minimize);
        let a = m.add_binary("a");
        let b = m.add_binary("b");
        m.add_constraint("c", vec![(a, 1.0), (b, 1.0)], Cmp::Ge, 3.0);
        let out = solve_mip(&m, &MipOptions::default());
        assert!(out.is_infeasible());
        assert!(out.solution().is_none());
    }

    #[test]
    fn set_cover_with_dependencies() {
        // Minimize placed rules: cover two "paths" and respect an
        // implication u >= w (the shape of the placement model).
        let mut m = Model::new(Sense::Minimize);
        let w1 = m.add_binary("w_s1");
        let w2 = m.add_binary("w_s2");
        let u1 = m.add_binary("u_s1");
        for v in [w1, w2, u1] {
            m.set_objective(v, 1.0);
        }
        m.add_constraint("cover_p1", vec![(w1, 1.0), (w2, 1.0)], Cmp::Ge, 1.0);
        m.add_constraint("dep_s1", vec![(u1, 1.0), (w1, -1.0)], Cmp::Ge, 0.0);
        m.add_constraint("cap_s1", vec![(w1, 1.0), (u1, 1.0)], Cmp::Le, 1.0);
        let out = solve_mip(&m, &MipOptions::default());
        let sol = out.solution().unwrap();
        // Cheapest: place w2 alone (s1 can't hold both w1 and its dep).
        assert!((sol.objective - 1.0).abs() < 1e-6);
        assert_eq!(sol.values[w2.0], 1.0);
    }

    #[test]
    fn integral_equality_mix() {
        // x + y + z = 2, minimize 3x + 2y + z → y = z = 1.
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_binary("x");
        let y = m.add_binary("y");
        let z = m.add_binary("z");
        m.set_objective(x, 3.0);
        m.set_objective(y, 2.0);
        m.set_objective(z, 1.0);
        m.add_constraint("eq", vec![(x, 1.0), (y, 1.0), (z, 1.0)], Cmp::Eq, 2.0);
        let out = solve_mip(&m, &MipOptions::default());
        let sol = out.solution().unwrap();
        assert!((sol.objective - 3.0).abs() < 1e-6);
    }

    #[test]
    fn warm_start_used_as_incumbent() {
        let mut m = Model::new(Sense::Minimize);
        let a = m.add_binary("a");
        let b = m.add_binary("b");
        m.set_objective(a, 1.0);
        m.set_objective(b, 1.0);
        m.add_constraint("cover", vec![(a, 1.0), (b, 1.0)], Cmp::Ge, 1.0);
        let opts = MipOptions {
            initial_solution: Some(vec![1.0, 1.0]),
            ..MipOptions::default()
        };
        let out = solve_mip(&m, &opts);
        // Still proves the better optimum 1.0.
        assert!(out.is_optimal());
        assert!((out.solution().unwrap().objective - 1.0).abs() < 1e-6);
    }

    /// Minimum vertex cover of an odd cycle: the LP optimum is
    /// all-halves, so the root must branch.
    fn odd_cycle(n: usize) -> Model {
        let mut m = Model::new(Sense::Minimize);
        let vars: Vec<_> = (0..n).map(|i| m.add_binary(format!("x{i}"))).collect();
        for (i, &v) in vars.iter().enumerate() {
            m.set_objective(v, 1.0);
            let next = vars[(i + 1) % n];
            m.add_constraint(format!("c{i}"), vec![(v, 1.0), (next, 1.0)], Cmp::Ge, 1.0);
        }
        m
    }

    fn budget(iterations: usize) -> MipOptions {
        MipOptions {
            iteration_limit: Some(iterations),
            ..MipOptions::default()
        }
    }

    #[test]
    fn iteration_limit_zero_reports_unknown() {
        let out = solve_mip(&odd_cycle(9), &budget(0));
        assert_eq!(out.status, MipStatus::Unknown);
        assert_eq!(out.nodes, 0);
        assert_eq!(out.lp_iterations, 0);
    }

    #[test]
    fn iteration_limit_cuts_mid_search_at_the_same_point_every_time() {
        let m = odd_cycle(11);
        let full = solve_mip(&m, &MipOptions::default());
        assert!(full.is_optimal());
        // One iteration short: the cut falls inside a child's LP, after
        // the root's rounding incumbent.
        let limit = full.lp_iterations - 1;
        let cut = solve_mip(&m, &budget(limit));
        assert_eq!(cut.status, MipStatus::Feasible);
        assert!(cut.nodes > 1, "{cut}");
        assert_eq!(cut.lp_iterations, limit);
        assert!(cut.bound <= full.bound);
        assert_eq!(solve_mip(&m, &budget(limit)), cut);
    }

    #[test]
    fn lp_cut_by_the_budget_leaves_its_node_in_the_bound() {
        // The root LP rounds to the optimum, child b = 0 confirms it,
        // child b = 1 is the last open node. One iteration short of the
        // full search cuts that node's LP; it is still open, at the
        // root's bound.
        let m = weighted_knapsack();
        let root = crate::solve_lp(&m).solution().unwrap().objective;
        let full = solve_mip(&m, &MipOptions::default());
        assert_eq!((full.status, full.nodes), (MipStatus::Optimal, 3));
        let cut = solve_mip(&m, &budget(full.lp_iterations - 1));
        assert_eq!((cut.status, cut.nodes), (MipStatus::Feasible, 3));
        assert_eq!(cut.lp_iterations, full.lp_iterations - 1);
        assert_eq!(cut.best, full.best);
        assert!((cut.bound - root).abs() < 1e-9, "bound {}", cut.bound);
    }

    #[test]
    fn infeasible_warm_start_is_ignored() {
        let mut m = Model::new(Sense::Minimize);
        let a = m.add_binary("a");
        let b = m.add_binary("b");
        m.set_objective(a, 1.0);
        m.set_objective(b, 1.0);
        m.add_constraint("cover", vec![(a, 1.0), (b, 1.0)], Cmp::Ge, 1.0);
        let opts = MipOptions {
            initial_solution: Some(vec![0.0, 0.0]), // violates the cover
            ..MipOptions::default()
        };
        let out = solve_mip(&m, &opts);
        assert!(out.is_optimal());
        assert!((out.solution().unwrap().objective - 1.0).abs() < 1e-6);
    }

    #[test]
    fn presolve_tightened_bounds_respected_by_branching() {
        // Regression: branching must intersect with standing bounds, not
        // overwrite them (a presolve-fixed variable stays fixed).
        let mut m = Model::new(Sense::Minimize);
        let a = m.add_binary("a");
        let b = m.add_binary("b");
        m.set_objective(a, 1.0);
        m.set_objective(b, 2.0);
        m.add_constraint("cover", vec![(a, 1.0), (b, 1.0)], Cmp::Ge, 1.0);
        m.set_bounds(a, 1.0, 1.0); // "presolve" fixed a = 1
        let out = solve_mip(&m, &MipOptions::default());
        let sol = out.solution().unwrap();
        assert_eq!(sol.values[a.0], 1.0);
        assert!((sol.objective - 1.0).abs() < 1e-6);
        // And fixing to the other side:
        m.set_bounds(a, 0.0, 0.0);
        let out = solve_mip(&m, &MipOptions::default());
        let sol = out.solution().unwrap();
        assert_eq!(sol.values[a.0], 0.0);
        assert_eq!(sol.values[b.0], 1.0);
    }

    #[test]
    fn lazy_cuts_are_respected() {
        // minimize a + b, cover a + b >= 1; lazy: forbid (a=1,b=0) by
        // requiring b >= a.
        let mut m = Model::new(Sense::Minimize);
        let a = m.add_binary("a");
        let b = m.add_binary("b");
        m.set_objective(a, 1.0);
        m.set_objective(b, 1.1);
        m.add_constraint("cover", vec![(a, 1.0), (b, 1.0)], Cmp::Ge, 1.0);
        let mut calls = 0;
        let out = solve_mip_lazy(&m, &MipOptions::default(), &mut |vals| {
            calls += 1;
            if vals[a.0] > 0.5 && vals[b.0] < 0.5 {
                vec![crate::model::Constraint {
                    name: "lazy_dep".into(),
                    terms: vec![(b, 1.0), (a, -1.0)],
                    cmp: Cmp::Ge,
                    rhs: 0.0,
                }]
            } else {
                Vec::new()
            }
        });
        let sol = out.solution().unwrap();
        assert!(calls >= 1);
        assert!(out.lazy_rows_added >= 1);
        // With the cut, the cheapest cover is b alone (1.1).
        assert!((sol.objective - 1.1).abs() < 1e-6, "obj {}", sol.objective);
        assert_eq!(sol.values[b.0], 1.0);
    }

    #[test]
    fn ten_var_assignment_exactness() {
        // Compare against brute force on a random-ish fixed instance.
        let costs = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0, 5.0, 3.0];
        let mut m = Model::new(Sense::Minimize);
        let vars: Vec<_> = (0..10).map(|i| m.add_binary(format!("x{i}"))).collect();
        for (v, c) in vars.iter().zip(costs) {
            m.set_objective(*v, c);
        }
        // Pair covers: x_{2i} + x_{2i+1} >= 1.
        for i in 0..5 {
            m.add_constraint(
                format!("pair{i}"),
                vec![(vars[2 * i], 1.0), (vars[2 * i + 1], 1.0)],
                Cmp::Ge,
                1.0,
            );
        }
        // Global cap: at most 6 picked.
        m.add_constraint(
            "cap",
            vars.iter().map(|&v| (v, 1.0)).collect(),
            Cmp::Le,
            6.0,
        );
        let out = solve_mip(&m, &MipOptions::default());
        let got = out.solution().unwrap().objective;

        // Brute force.
        let mut best = f64::INFINITY;
        for mask in 0u32..(1 << 10) {
            let vals: Vec<f64> = (0..10)
                .map(|i| if mask & (1 << i) != 0 { 1.0 } else { 0.0 })
                .collect();
            if m.check_feasible(&vals, 1e-9).is_ok() {
                best = best.min(m.objective_value(&vals));
            }
        }
        assert!((got - best).abs() < 1e-6, "got {got}, brute force {best}");
    }
}
