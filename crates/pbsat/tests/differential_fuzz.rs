//! Differential fuzzing of the CDCL solver against an exhaustive
//! brute-force oracle.
//!
//! 256 seeded random PB instances (≤ 14 variables — small enough that
//! every assignment can be enumerated), each solved with learnt-DB
//! reduction off and on. For each run the solver's SAT/UNSAT verdict
//! must agree with the oracle, and any model it returns must actually
//! satisfy every clause and PB constraint. A
//! single disagreement is a soundness or completeness bug in the modern
//! CDCL machinery (LBD bookkeeping, clause minimization, adaptive
//! restarts, or DB reduction), so this suite is the gate for all of it.

use flowplace_pbsat::{Lit, SatResult, Solver, SolverOptions, Var};

/// xorshift64 — deterministic, dependency-free.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        // Avoid the all-zero fixed point.
        Rng(seed.wrapping_mul(2685821657736338717).max(1))
    }

    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

/// A random instance: clauses plus weighted PB ≤ rows over `num_vars`
/// variables. Kept as plain data so the same instance can be fed to the
/// solver and evaluated by the oracle.
struct Instance {
    num_vars: usize,
    clauses: Vec<Vec<Lit>>,
    pbs: Vec<(Vec<(u64, Lit)>, u64)>,
}

fn random_lit(rng: &mut Rng, num_vars: usize) -> Lit {
    let v = Var(rng.below(num_vars as u64) as u32);
    if rng.next().is_multiple_of(2) {
        Lit::positive(v)
    } else {
        Lit::negative(v)
    }
}

fn random_instance(seed: u64) -> Instance {
    let mut rng = Rng::new(seed);
    let num_vars = 4 + rng.below(11) as usize; // 4..=14
    let num_clauses = 2 + rng.below(3 * num_vars as u64) as usize;
    let num_pbs = 1 + rng.below(4) as usize;

    let mut clauses = Vec::with_capacity(num_clauses);
    for _ in 0..num_clauses {
        let len = 1 + rng.below(4) as usize;
        let clause: Vec<Lit> = (0..len).map(|_| random_lit(&mut rng, num_vars)).collect();
        clauses.push(clause);
    }
    let mut pbs = Vec::with_capacity(num_pbs);
    for _ in 0..num_pbs {
        let len = 2 + rng.below(num_vars as u64 - 1) as usize;
        let terms: Vec<(u64, Lit)> = (0..len)
            .map(|_| (1 + rng.below(4), random_lit(&mut rng, num_vars)))
            .collect();
        let total: u64 = terms.iter().map(|(w, _)| w).sum();
        // Bounds across the whole range, skewed low so UNSAT happens.
        let bound = rng.below(total + 1);
        pbs.push((terms, bound));
    }
    Instance {
        num_vars,
        clauses,
        pbs,
    }
}

/// Evaluates the instance under the assignment encoded in `mask`
/// (bit v = value of variable v). PB rows are evaluated with the raw
/// term list — duplicate variables contribute each occurrence, matching
/// the merge `Solver::add_pb_le` performs.
fn satisfied(inst: &Instance, mask: u32) -> bool {
    let val = |l: Lit| {
        let b = mask & (1 << l.var().0) != 0;
        b == l.is_positive()
    };
    inst.clauses.iter().all(|c| c.iter().any(|&l| val(l)))
        && inst.pbs.iter().all(|(terms, bound)| {
            let lhs: u64 = terms.iter().filter(|(_, l)| val(*l)).map(|(w, _)| w).sum();
            lhs <= *bound
        })
}

/// Exhaustive oracle: is any assignment satisfying?
fn oracle_sat(inst: &Instance) -> bool {
    (0u32..(1 << inst.num_vars)).any(|mask| satisfied(inst, mask))
}

fn all_configs() -> [SolverOptions; 2] {
    [false, true].map(|db_reduction| SolverOptions { db_reduction })
}

fn solve_with(inst: &Instance, opts: SolverOptions) -> SatResult {
    let mut s = Solver::with_options(opts);
    for _ in 0..inst.num_vars {
        s.new_var();
    }
    let mut ok = true;
    for c in &inst.clauses {
        ok &= s.add_clause(c);
    }
    for (terms, bound) in &inst.pbs {
        ok &= s.add_pb_le(terms, *bound);
    }
    if !ok {
        // The database was refuted during construction; solve() agrees.
        assert_eq!(s.solve(), SatResult::Unsat);
        return SatResult::Unsat;
    }
    s.solve()
}

#[test]
fn fuzz_256_seeds_all_configs_match_brute_force() {
    let configs = all_configs();
    let mut sat_count = 0usize;
    let mut unsat_count = 0usize;
    for seed in 0..256u64 {
        let inst = random_instance(seed);
        let expected = oracle_sat(&inst);
        if expected {
            sat_count += 1;
        } else {
            unsat_count += 1;
        }
        for &opts in &configs {
            let got = solve_with(&inst, opts);
            assert_eq!(
                got.is_sat(),
                expected,
                "seed {seed} opts {opts:?}: solver said {} but oracle says {}",
                if got.is_sat() { "SAT" } else { "UNSAT" },
                if expected { "SAT" } else { "UNSAT" },
            );
            if let SatResult::Sat(model) = &got {
                // The model must encode a genuinely satisfying assignment.
                let mut mask = 0u32;
                for (v, &b) in model.values().iter().enumerate() {
                    if b {
                        mask |= 1 << v;
                    }
                }
                assert!(
                    satisfied(&inst, mask),
                    "seed {seed} opts {opts:?}: returned model is infeasible"
                );
            }
        }
    }
    // The generator must exercise both verdicts heavily, or the suite
    // is fuzzing only half the solver.
    assert!(sat_count >= 32, "only {sat_count} SAT instances generated");
    assert!(
        unsat_count >= 32,
        "only {unsat_count} UNSAT instances generated"
    );
}

#[test]
fn fuzz_configs_agree_with_each_other_under_assumptions() {
    // Beyond plain verdicts: for a smaller sweep, every configuration
    // must agree on assumption probes too (the persistent-session
    // machinery composed with reduction on and off).
    let configs = all_configs();
    for seed in 0..64u64 {
        let inst = random_instance(seed);
        let assume = vec![Lit::positive(Var(0)), Lit::negative(Var(1))];
        let mut verdicts: Vec<bool> = Vec::new();
        for &opts in &configs {
            let mut s = Solver::with_options(opts);
            for _ in 0..inst.num_vars {
                s.new_var();
            }
            let mut ok = true;
            for c in &inst.clauses {
                ok &= s.add_clause(c);
            }
            for (terms, bound) in &inst.pbs {
                ok &= s.add_pb_le(terms, *bound);
            }
            let sat = ok && s.solve_with_assumptions(&assume).is_sat();
            verdicts.push(sat);
        }
        assert!(
            verdicts.iter().all(|&v| v == verdicts[0]),
            "seed {seed}: configurations disagree under assumptions: {verdicts:?}"
        );
    }
}
