//! Pinned search trace: the exact CDCL search, not only its verdicts.
//!
//! `differential_fuzz.rs` checks verdicts and model feasibility; this
//! suite pins *how* the solver gets there. It folds every solve's full
//! [`SolverStats`] and model into one FNV-1a hash, over the 256 fuzz
//! instances under both `db_reduction` arms, PHP(8,7), and PHP(6,5)
//! under assumptions. A data-structure change to the solver (decision
//! heap, occurrence lists, reasons) must leave every decision,
//! propagation, conflict, learnt clause and model as it was, so the
//! hash must not move. A change that means to alter the search re-pins
//! the constant in its own commit and says why.

use flowplace_pbsat::{Lit, SatResult, Solver, SolverOptions, SolverStats, Var};

/// The hash recorded on the solver before its data-structure rewrite.
const PINNED: u64 = 0xc701_c3dc_87c4_05ba;

/// FNV-1a 64 over the trace, fed one `u64` at a time.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// One solve: the verdict, every model bit, every counter.
    fn solve(&mut self, r: &SatResult, st: SolverStats) {
        match r {
            SatResult::Sat(m) => {
                self.word(1);
                for &b in m.values() {
                    self.word(u64::from(b));
                }
            }
            SatResult::Unsat => self.word(0),
        }
        for x in [
            st.decisions,
            st.conflicts,
            st.propagations,
            st.restarts,
            st.blocked_restarts,
            st.db_reductions,
            st.learnt_clauses,
            st.learnt_deleted,
            st.lbd_sum,
        ] {
            self.word(x);
        }
    }
}

// --- the `differential_fuzz.rs` generator, byte for byte -------------

/// xorshift64 — deterministic, dependency-free.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
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

fn random_lit(rng: &mut Rng, num_vars: usize) -> Lit {
    let v = Var(rng.below(num_vars as u64) as u32);
    if rng.next().is_multiple_of(2) {
        Lit::positive(v)
    } else {
        Lit::negative(v)
    }
}

/// Builds fuzz instance `seed` straight into a solver; `false` if the
/// database was refuted during construction.
fn build_fuzz(s: &mut Solver, seed: u64) -> bool {
    let mut rng = Rng::new(seed);
    let num_vars = 4 + rng.below(11) as usize;
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
        let bound = rng.below(total + 1);
        pbs.push((terms, bound));
    }
    for _ in 0..num_vars {
        s.new_var();
    }
    let mut ok = true;
    for c in &clauses {
        ok &= s.add_clause(c);
    }
    for (terms, bound) in &pbs {
        ok &= s.add_pb_le(terms, *bound);
    }
    ok
}

/// `pigeons × holes` placement grid: each pigeon somewhere, each hole
/// holding at most one (the PB side).
fn pigeonhole(s: &mut Solver, pigeons: usize, holes: usize) -> Vec<Vec<Lit>> {
    let p: Vec<Vec<Lit>> = (0..pigeons)
        .map(|_| (0..holes).map(|_| Lit::positive(s.new_var())).collect())
        .collect();
    for row in &p {
        s.add_clause(row);
    }
    for h in 0..holes {
        let col: Vec<Lit> = p.iter().map(|row| row[h]).collect();
        s.add_at_most_k(&col, 1);
    }
    p
}

fn trace_hash() -> u64 {
    let mut h = Fnv::new();
    for db_reduction in [false, true] {
        let opts = SolverOptions { db_reduction };
        for seed in 0..256u64 {
            let mut s = Solver::with_options(opts);
            h.word(u64::from(build_fuzz(&mut s, seed)));
            let r = s.solve();
            h.solve(&r, s.stats());
        }
    }

    // PHP(8,7): 2 992 conflicts, restarts and one DB reduction.
    let mut s = Solver::new();
    pigeonhole(&mut s, 8, 7);
    let r = s.solve();
    h.solve(&r, s.stats());

    // PHP(6,5) under assumptions: hole 5 of a 6×6 grid knocked out
    // (UNSAT, twice, the second on retained clauses), then pigeon 0
    // pinned to hole 5 (SAT), then no assumptions.
    let mut s = Solver::new();
    let p = pigeonhole(&mut s, 6, 6);
    let knock_out: Vec<Lit> = (0..6).map(|i| !p[i][5]).collect();
    let pin: Vec<Lit> = (0..5).map(|h| !p[0][h]).collect();
    for assume in [&knock_out[..], &knock_out, &pin, &[]] {
        let r = s.solve_with_assumptions(assume);
        h.solve(&r, s.stats());
    }
    h.0
}

#[test]
fn search_trace_matches_the_pinned_hash() {
    let got = trace_hash();
    assert_eq!(
        got, PINNED,
        "the CDCL search moved: got {got:#018x}, pinned {PINNED:#018x}"
    );
}
