//! Cross-checks between the substrate solvers: the LP relaxation bounds
//! the MIP, and the MIP agrees with the PB-SAT solver on feasibility of
//! 0/1 models.

use flowplace::milp::{solve_lp, solve_mip, Cmp, LpOutcome, MipOptions, Model, Sense, VarId};
use flowplace::pbsat::{Lit, SatResult, Solver};
use flowplace_rng::{Rng, StdRng};

/// Builds a random covering/packing 0/1 model. Returns the model.
fn random_model(seed: u64, n: usize, covers: usize) -> Model {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut m = Model::new(Sense::Minimize);
    let vars: Vec<VarId> = (0..n).map(|i| m.add_binary(format!("x{i}"))).collect();
    for v in &vars {
        m.set_objective(*v, rng.gen_range(1..5u32) as f64);
    }
    for r in 0..covers {
        let k = rng.gen_range(2..5usize).min(n);
        let mut terms = Vec::new();
        for _ in 0..k {
            terms.push((vars[rng.gen_range(0..n)], 1.0));
        }
        m.add_constraint(format!("c{r}"), terms, Cmp::Ge, 1.0);
    }
    let cap = rng.gen_range(n / 2..n + 1) as f64;
    m.add_constraint(
        "cap",
        vars.iter().map(|&v| (v, 1.0)).collect(),
        Cmp::Le,
        cap,
    );
    m
}

/// Mirrors a 0/1 model with unit/integer coefficients into the PB solver.
/// Only supports the coefficient patterns `random_model` produces.
fn to_pbsat(m: &Model) -> Solver {
    let mut s = Solver::new();
    let vars: Vec<_> = (0..m.num_vars()).map(|_| s.new_var()).collect();
    for c in m.constraints() {
        match c.cmp {
            Cmp::Ge => {
                // Σ aᵢxᵢ ≥ r  ⇔  Σ aᵢ·¬xᵢ ≤ Σaᵢ − r.
                let total: f64 = c.terms.iter().map(|(_, a)| a).sum();
                let terms: Vec<(u64, Lit)> = c
                    .terms
                    .iter()
                    .map(|(v, a)| (*a as u64, Lit::negative(vars[v.0])))
                    .collect();
                s.add_pb_le(&terms, (total - c.rhs) as u64);
            }
            Cmp::Le => {
                let terms: Vec<(u64, Lit)> = c
                    .terms
                    .iter()
                    .map(|(v, a)| (*a as u64, Lit::positive(vars[v.0])))
                    .collect();
                s.add_pb_le(&terms, c.rhs as u64);
            }
            Cmp::Eq => unreachable!("random_model emits no equalities"),
        }
    }
    s
}

#[test]
fn lp_relaxation_bounds_mip_from_below() {
    for seed in 0..20 {
        let m = random_model(seed, 12, 8);
        let lp = solve_lp(&m);
        let mip = solve_mip(&m, &MipOptions::default());
        match (lp, mip.solution()) {
            (LpOutcome::Optimal(lp), Some(int)) => {
                assert!(
                    lp.objective <= int.objective + 1e-6,
                    "seed {seed}: LP {} > MIP {}",
                    lp.objective,
                    int.objective
                );
            }
            (LpOutcome::Infeasible, sol) => {
                assert!(sol.is_none(), "seed {seed}: LP infeasible but MIP solved");
            }
            (LpOutcome::Optimal(_), None) => {} // LP feasible, integers not
            (other, _) => panic!("seed {seed}: unexpected LP outcome {:?}", other.status()),
        }
    }
}

#[test]
fn mip_and_pbsat_agree_on_feasibility() {
    for seed in 20..45 {
        let m = random_model(seed, 10, 7);
        let mip = solve_mip(&m, &MipOptions::default());
        let mut sat = to_pbsat(&m);
        let sat_result = sat.solve();
        assert_eq!(
            mip.solution().is_some(),
            sat_result.is_sat(),
            "seed {seed}: MIP {:?} vs SAT {:?}",
            mip.status,
            sat_result.is_sat()
        );
        // When SAT, the SAT model is feasible for the MILP model too.
        if let SatResult::Sat(model) = sat_result {
            let values: Vec<f64> = model
                .values()
                .iter()
                .map(|&b| if b { 1.0 } else { 0.0 })
                .collect();
            assert!(m.check_feasible(&values, 1e-9).is_ok(), "seed {seed}");
        }
    }
}

#[test]
fn mip_solution_always_model_feasible() {
    for seed in 60..80 {
        let m = random_model(seed, 14, 10);
        let out = solve_mip(&m, &MipOptions::default());
        if let Some(sol) = out.solution() {
            m.check_feasible(&sol.values, 1e-6)
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        }
    }
}
