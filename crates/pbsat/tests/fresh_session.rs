//! Regression: [`Solver::solve_with_assumptions`] with an empty
//! assumption set is indistinguishable from [`Solver::solve`].
//!
//! On the same formula the two calls must give the same verdict and
//! the same model bytes, and the exported formula must not drift
//! between the two construction paths. A planned objective descent
//! (solve once, then tighten a bound on the same solver through
//! `solve_with_assumptions`) starts from that call, so a divergence
//! here would make its first step disagree with the plain solve the
//! differential oracle checks against.

use flowplace_pbsat::{Lit, SatResult, Solver};

/// Deterministic LCG so the instances are reproducible without any
/// external randomness.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

/// Builds a placement-flavoured PB instance: `rules` candidate
/// placements over `slots` switches, per-switch capacity constraints,
/// coverage clauses, and a few random implications. Both solvers in a
/// comparison are fed exactly this sequence.
fn build(s: &mut Solver, seed: u64, rules: usize, slots: usize, capacity: u64) {
    let mut rng = Lcg(seed ^ 0x9e3779b97f4a7c15);
    let vars: Vec<Vec<Lit>> = (0..rules)
        .map(|_| (0..slots).map(|_| Lit::positive(s.new_var())).collect())
        .collect();
    // Every rule is placed somewhere.
    for row in &vars {
        s.add_at_least_k(row, 1);
    }
    // Per-slot capacity.
    for slot in 0..slots {
        let column: Vec<(u64, Lit)> = vars.iter().map(|row| (1, row[slot])).collect();
        s.add_pb_le(&column, capacity);
    }
    // Random dependency edges: rule i in a slot drags rule j into it.
    for _ in 0..rules {
        let i = rng.below(rules as u64) as usize;
        let j = rng.below(rules as u64) as usize;
        let slot = rng.below(slots as u64) as usize;
        if i != j {
            s.add_implication(vars[i][slot], vars[j][slot]);
        }
    }
    // A conjunction witness, as the encoder's path variables use.
    let witness = Lit::positive(s.new_var());
    s.add_and_equiv(witness, &[vars[0][0], vars[rules - 1][slots - 1]]);
    // Mutual exclusion across the first rule's placements.
    s.add_at_most_k(&vars[0], 1);
}

/// Renders a result into comparable bytes: the verdict plus every model
/// bit in variable order.
fn result_bytes(r: &SatResult) -> String {
    match r {
        SatResult::Sat(model) => {
            let bits: String = model
                .values()
                .iter()
                .map(|&b| if b { '1' } else { '0' })
                .collect();
            format!("sat:{bits}")
        }
        SatResult::Unsat => "unsat".to_string(),
    }
}

#[test]
fn empty_assumptions_match_one_shot_solve_byte_for_byte() {
    let mut seen_sat = false;
    let mut seen_unsat = false;
    for seed in 0..16u64 {
        // Tight capacities on the later seeds force UNSAT instances so
        // both verdicts are exercised.
        let capacity = if seed % 4 == 3 { 1 } else { 3 };
        let (rules, slots) = (8, 3);

        let mut one_shot = Solver::new();
        build(&mut one_shot, seed, rules, slots, capacity);
        let mut session = Solver::new();
        build(&mut session, seed, rules, slots, capacity);

        // The constraint databases must match verbatim before solving.
        assert_eq!(
            one_shot.export_formula().to_opb().expect("no duplicates"),
            session.export_formula().to_opb().expect("no duplicates"),
            "seed {seed}: construction paths drifted before the solve"
        );

        let cold = one_shot.solve();
        let fresh = session.solve_with_assumptions(&[]);
        assert_eq!(
            result_bytes(&cold),
            result_bytes(&fresh),
            "seed {seed}: fresh session diverged from one-shot solve"
        );
        match cold {
            SatResult::Sat(_) => seen_sat = true,
            SatResult::Unsat => seen_unsat = true,
        }
    }
    assert!(seen_sat, "the sweep never produced a SAT instance");
    assert!(seen_unsat, "the sweep never produced an UNSAT instance");
}

#[test]
fn session_resolve_is_stable_after_assumption_probes() {
    for seed in [2u64, 5, 11] {
        let mut one_shot = Solver::new();
        build(&mut one_shot, seed, 6, 3, 2);
        let mut session = Solver::new();
        build(&mut session, seed, 6, 3, 2);

        let baseline = result_bytes(&one_shot.solve());

        // Probe the session with pinned placements (the warm path's
        // incremental pattern), then release the pins. Phase saving and
        // activity decay may steer the search to a *different* model
        // after the probes, but the verdict must never flip, and once
        // the session settles the empty-assumption answer must be
        // byte-stable across repeated calls.
        let pin = Lit::positive(flowplace_pbsat::Var(0));
        let _ = session.solve_with_assumptions(&[pin]);
        let _ = session.solve_with_assumptions(&[!pin]);
        let settled = result_bytes(&session.solve_with_assumptions(&[]));
        assert_eq!(
            baseline.split(':').next(),
            settled.split(':').next(),
            "seed {seed}: probing flipped the verdict"
        );
        for round in 0..3 {
            let again = result_bytes(&session.solve_with_assumptions(&[]));
            assert_eq!(
                settled, again,
                "seed {seed} round {round}: settled session drifted"
            );
        }
    }
}

#[test]
fn mid_session_db_reduction_is_deterministic_and_verdict_preserving() {
    // The warm path may now interleave learnt-DB reductions between
    // incremental solves. Two sessions driven through the identical
    // solve → reduce → solve(assumptions) sequence must stay
    // byte-identical to each other (reduction is part of the replayable
    // state machine), and every verdict must agree with a one-shot
    // solver that never reduced — deleted clauses are all implied, so
    // reduction can steer the search but never flip a verdict.
    for seed in 0..16u64 {
        let capacity = if seed % 4 == 3 { 1 } else { 3 };
        let (rules, slots) = (8, 3);
        let pin = Lit::positive(flowplace_pbsat::Var(seed as u32 % (rules * slots) as u32));
        let drive = |s: &mut Solver| {
            let first = result_bytes(&s.solve());
            s.reduce_learnts();
            let pinned = result_bytes(&s.solve_with_assumptions(&[pin]));
            s.reduce_learnts();
            let released = result_bytes(&s.solve_with_assumptions(&[]));
            (first, pinned, released, s.stats())
        };

        let mut a = Solver::new();
        build(&mut a, seed, rules, slots, capacity);
        let mut b = Solver::new();
        build(&mut b, seed, rules, slots, capacity);
        let run_a = drive(&mut a);
        let run_b = drive(&mut b);
        assert_eq!(
            run_a, run_b,
            "seed {seed}: reduce-interleaved sessions diverged"
        );

        // Verdicts match one-shot solvers that never reduced.
        let mut cold = Solver::new();
        build(&mut cold, seed, rules, slots, capacity);
        let cold_first = result_bytes(&cold.solve());
        assert_eq!(
            run_a.0.split(':').next(),
            cold_first.split(':').next(),
            "seed {seed}: reduction flipped the plain verdict"
        );
        let mut cold_pin = Solver::new();
        build(&mut cold_pin, seed, rules, slots, capacity);
        let cold_pinned = result_bytes(&cold_pin.solve_with_assumptions(&[pin]));
        assert_eq!(
            run_a.1.split(':').next(),
            cold_pinned.split(':').next(),
            "seed {seed}: reduction flipped the assumption verdict"
        );
        // The released solve must agree with the plain verdict again
        // (assumptions never persist, reduced or not).
        assert_eq!(
            run_a.2.split(':').next(),
            cold_first.split(':').next(),
            "seed {seed}: released session verdict drifted"
        );
    }
}
