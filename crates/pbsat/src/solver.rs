//! The CDCL search engine.
//!
//! Beyond the baseline CDCL loop (1UIP learning, two-watched-literal
//! propagation, VSIDS activity, phase saving), the solver carries the
//! modern-solver machinery of glucose/splr:
//!
//! * **LBD (glue) scoring** of learnt clauses — the number of distinct
//!   decision levels in a clause at learn time;
//! * **learnt-DB reduction**: once conflicts accumulate, the worst half
//!   of the learnt clauses (highest LBD) is deleted. Glue clauses
//!   (LBD ≤ 2) and *locked* clauses (currently the reason of an assigned
//!   variable) are never deleted;
//! * **recursive clause minimization** of every learnt clause before it
//!   is attached;
//! * **adaptive (glucose-style) restarts** with trail-size *blocking*:
//!   restart when the recent learnt-clause LBD (fast EMA) exceeds the
//!   long-term LBD (slow EMA) by 25%, *blocked* when the trail has grown
//!   well past its EMA (the solver is likely closing in on a model).
//!
//! A formula of known size is built without regrowing the solver's
//! arrays when [`Solver::reserve`] is called first, and
//! [`Solver::add_implication`] attaches a binary clause over two
//! unassigned variables directly, with none of `add_clause`'s
//! simplification, which would leave it as it is.
//!
//! A solve costs time in proportion to the assignments it makes:
//!
//! * decisions pop a heap of the variables of positive activity, then a
//!   bitset of those at 0 (`heap.rs`), in the order a linear first-maximum
//!   scan gives, dropping assigned variables lazily; backtracking
//!   re-inserts, bumping sifts up, and the `1e100` rescale re-sorts;
//! * clauses live in one literal arena, and a binary clause's watch
//!   entries carry its other literal, so propagating it never reads
//!   the arena;
//! * each literal's PB occurrence list carries its weight, so assigning
//!   or unassigning it updates every row sum without a term search;
//! * watch lists keep two entries inline and PB occurrence lists one
//!   (`list.rs`), so most literals allocate neither;
//! * a PB row whose slack covers its heaviest term forces nothing and is
//!   skipped without a scan;
//! * a PB-forced literal records only `Reason::Pb(row)`; its clause —
//!   the literal plus the negated row terms that precede it on the trail
//!   — is built only when conflict analysis asks.
//!
//! Everything is deterministic: the restart and blocking conditions use
//! integer fixed-point EMAs (no floats, no wall clock), so a solve is a
//! pure function of the database, the options, and the assumption list —
//! the property the byte-identical-replay and differential test suites
//! rely on. `tests/pinned_trace.rs` pins the search itself (every
//! counter and model over a fixed corpus).

use std::fmt;

use crate::heap::VarHeap;
use crate::list::InlineList;
use crate::pb::PbConstraint;
use crate::{Lit, Var};

/// A satisfying assignment.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Model {
    values: Vec<bool>,
}

impl Model {
    /// The value of a variable.
    ///
    /// # Panics
    ///
    /// Panics if `v` was not created by the solving [`Solver`].
    pub fn value(&self, v: Var) -> bool {
        self.values[v.0 as usize]
    }

    /// The value of a literal.
    ///
    /// # Panics
    ///
    /// Panics if the literal's variable is out of range.
    pub fn lit_value(&self, l: Lit) -> bool {
        self.value(l.var()) == l.is_positive()
    }

    /// All variable values indexed by variable number.
    pub fn values(&self) -> &[bool] {
        &self.values
    }
}

/// Result of a solve call.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SatResult {
    /// Satisfiable, with a model.
    Sat(Model),
    /// Proven unsatisfiable.
    Unsat,
}

impl SatResult {
    /// The model if satisfiable.
    pub fn model(&self) -> Option<&Model> {
        match self {
            SatResult::Sat(m) => Some(m),
            SatResult::Unsat => None,
        }
    }

    /// True if satisfiable.
    pub fn is_sat(&self) -> bool {
        matches!(self, SatResult::Sat(_))
    }
}

/// Tunables of the CDCL search. The default has learnt-DB reduction on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SolverOptions {
    /// Periodically delete the worst half of the learnt clauses
    /// (glue ≤ 2 and locked clauses are always kept).
    pub db_reduction: bool,
}

impl Default for SolverOptions {
    fn default() -> Self {
        SolverOptions { db_reduction: true }
    }
}

/// Search statistics of the last [`Solver::solve`] call (cumulative across
/// calls).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SolverStats {
    /// Decisions made.
    pub decisions: u64,
    /// Conflicts analyzed.
    pub conflicts: u64,
    /// Literals propagated.
    pub propagations: u64,
    /// Restarts performed.
    pub restarts: u64,
    /// Restarts suppressed by the glucose trail-size blocking rule.
    pub blocked_restarts: u64,
    /// Learnt-DB reductions performed.
    pub db_reductions: u64,
    /// Clauses learned.
    pub learnt_clauses: u64,
    /// Learnt clauses deleted by DB reduction.
    pub learnt_deleted: u64,
    /// Sum of learn-time LBDs over all learnt clauses (for mean LBD).
    pub lbd_sum: u64,
}

impl SolverStats {
    /// Learnt clauses currently alive (learned minus deleted).
    pub fn learnt_live(&self) -> u64 {
        self.learnt_clauses - self.learnt_deleted
    }

    /// Mean learn-time LBD over all learnt clauses (0 if none).
    pub fn mean_lbd(&self) -> f64 {
        if self.learnt_clauses == 0 {
            0.0
        } else {
            self.lbd_sum as f64 / self.learnt_clauses as f64
        }
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum LBool {
    True,
    False,
    Undef,
}

#[derive(Clone, Copy, Debug)]
enum Reason {
    None,
    Clause(usize),
    /// Forced by PB constraint `pi`; `reason_lits` expands it to a
    /// clause on demand.
    Pb(usize),
}

/// A clause: `len` literals of the solver's arena from `start`.
#[derive(Clone, Copy, Debug)]
struct Clause {
    start: u32,
    len: u32,
    /// Learnt by conflict analysis (problem clauses are never deleted).
    learnt: bool,
    /// Learn-time literal-block distance (0 for problem clauses).
    lbd: u32,
}

impl Clause {
    fn range(self) -> std::ops::Range<usize> {
        let start = self.start as usize;
        start..start + self.len as usize
    }
}

/// A watch-list entry. A binary clause's carries its other literal, so
/// propagation decides the clause without reading the arena.
#[derive(Clone, Copy, Debug, Default)]
struct Watch {
    clause: u32,
    /// The other literal's index, or [`NO_OTHER`] for a longer clause.
    other: u32,
}

/// Below every literal index: there are at most [`MAX_VARS`] variables.
const NO_OTHER: u32 = u32::MAX;
const MAX_VARS: usize = (1 << 31) - 1;

impl Watch {
    fn other(self) -> Option<Lit> {
        (self.other != NO_OTHER).then(|| Lit::from_index(self.other as usize))
    }
}

/// A literal's watches and `(PB row, weight)` occurrences. Each list
/// must stay no larger than the `Vec` it replaced: a wider one slows
/// `new_var` and the solver's drop more than it saves.
type Watches = InlineList<Watch, 2>;
type PbOccs = InlineList<(usize, u64), 1>;
const _: () = assert!(std::mem::size_of::<Watches>() <= std::mem::size_of::<Vec<Watch>>());
const _: () = assert!(std::mem::size_of::<PbOccs>() <= std::mem::size_of::<Vec<(usize, u64)>>());

#[derive(Clone, Debug)]
struct PbState {
    c: PbConstraint,
    /// Sum of weights of currently-true literals.
    sum_true: u64,
    /// The largest term weight: while `bound − sum_true ≥ max_w` the
    /// constraint forces nothing.
    max_w: u64,
}

// --- glucose fixed-point EMA constants -------------------------------
//
// EMAs are Q48.16 fixed point (samples shifted left by EMA_SHIFT); the
// update `ema += (sample − ema) >> α_shift` is exact integer arithmetic,
// so the restart schedule is identical on every platform and run.

/// Fixed-point scale shift of the restart EMAs.
const EMA_SHIFT: u32 = 16;
/// Fast LBD EMA smoothing (α = 1/32 ≈ the last ~50 conflicts).
const LBD_FAST_SHIFT: u32 = 5;
/// Slow LBD EMA smoothing (α = 1/1024 — the long-term average).
const LBD_SLOW_SHIFT: u32 = 10;
/// Trail-size EMA smoothing for restart blocking.
const TRAIL_SHIFT: u32 = 10;
/// Minimum conflicts between adaptive restarts (the glucose queue len).
const RESTART_MIN_CONFLICTS: u64 = 50;
/// Conflicts before the first learnt-DB reduction of a solve call.
const REDUCE_FIRST: u64 = 2000;
/// Cadence growth: each reduction pushes the next one this much further.
const REDUCE_INC: u64 = 300;

/// Per-solve-call restart/reduction state (reset on every `solve*` call
/// so a solve is a pure function of database + options + assumptions).
struct SearchPacing {
    /// Glucose EMAs (Q48.16; `None` until the first conflict seeds them).
    lbd_fast: i64,
    lbd_slow: i64,
    trail_ema: i64,
    seeded: bool,
    conflicts_since_restart: u64,
    /// Conflicts in this call (drives the reduction cadence).
    conflicts_this_call: u64,
    next_reduce: u64,
    reductions_this_call: u64,
}

impl SearchPacing {
    fn new() -> Self {
        SearchPacing {
            lbd_fast: 0,
            lbd_slow: 0,
            trail_ema: 0,
            seeded: false,
            conflicts_since_restart: 0,
            conflicts_this_call: 0,
            next_reduce: REDUCE_FIRST,
            reductions_this_call: 0,
        }
    }
}

/// A CDCL pseudo-Boolean solver. See the crate docs for an example.
#[derive(Clone, Debug)]
pub struct Solver {
    nvars: usize,
    options: SolverOptions,
    clauses: Vec<Clause>,
    /// Every clause's literals, back to back; the first two are its
    /// watches.
    arena: Vec<Lit>,
    /// `watches[l.index()]` = clauses currently watching literal `l`.
    watches: Vec<Watches>,
    /// Reused by [`Solver::add_clause`] to simplify a clause into.
    scratch: Vec<Lit>,
    pbs: Vec<PbState>,
    /// `pb_occ[l.index()]` = `(constraint, weight of l in it)` for every
    /// PB constraint containing literal `l`.
    pb_occ: Vec<PbOccs>,
    assign: Vec<LBool>,
    level: Vec<u32>,
    reason: Vec<Reason>,
    /// `trail_pos[v]` = index of `v`'s literal in `trail` (valid while
    /// `v` is assigned).
    trail_pos: Vec<usize>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    qhead: usize,
    activity: Vec<f64>,
    var_inc: f64,
    /// Decision order over `activity`; holds every unassigned variable
    /// (and possibly assigned ones, dropped lazily when they surface).
    order: VarHeap,
    phase: Vec<bool>,
    seen: Vec<bool>,
    /// False once the clause database is proven contradictory at level 0.
    ok: bool,
    stats: SolverStats,
}

// Deliberately `new()`, not a derived impl: a field-wise default would
// start with `ok: false` (permanently unsatisfiable) and `var_inc: 0.0`
// (no activity bumping).
impl Default for Solver {
    fn default() -> Self {
        Solver::new()
    }
}

impl Solver {
    /// Creates an empty solver with the default (modern) options.
    pub fn new() -> Self {
        Solver::with_options(SolverOptions::default())
    }

    /// Creates an empty solver with explicit search options.
    pub fn with_options(options: SolverOptions) -> Self {
        Solver {
            nvars: 0,
            options,
            clauses: Vec::new(),
            arena: Vec::new(),
            watches: Vec::new(),
            scratch: Vec::new(),
            pbs: Vec::new(),
            pb_occ: Vec::new(),
            assign: Vec::new(),
            level: Vec::new(),
            reason: Vec::new(),
            trail_pos: Vec::new(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            qhead: 0,
            activity: Vec::new(),
            var_inc: 1.0,
            order: VarHeap::default(),
            phase: Vec::new(),
            seen: Vec::new(),
            ok: true,
            stats: SolverStats::default(),
        }
    }

    /// The configured search options.
    pub fn options(&self) -> SolverOptions {
        self.options
    }

    /// Adds a fresh variable.
    ///
    /// # Panics
    ///
    /// Panics past `2^31 − 1` variables, where literal indices would no
    /// longer fit in a `u32`.
    pub fn new_var(&mut self) -> Var {
        assert!(self.nvars < MAX_VARS, "at most 2^31 - 1 variables");
        let v = Var(self.nvars as u32);
        self.nvars += 1;
        self.watches.push(Watches::default());
        self.watches.push(Watches::default());
        self.pb_occ.push(PbOccs::default());
        self.pb_occ.push(PbOccs::default());
        self.assign.push(LBool::Undef);
        self.level.push(0);
        self.reason.push(Reason::None);
        self.trail_pos.push(0);
        self.activity.push(0.0);
        self.order.new_var(&self.activity);
        self.phase.push(false);
        self.seen.push(false);
        v
    }

    /// Reserves room for `vars` more variables, `clauses` more clauses
    /// and `lits` more clause literals, so a formula of known size is
    /// built without regrowing the solver's arrays. Changes nothing else.
    pub fn reserve(&mut self, vars: usize, clauses: usize, lits: usize) {
        self.watches.reserve(2 * vars);
        self.pb_occ.reserve(2 * vars);
        self.assign.reserve(vars);
        self.level.reserve(vars);
        self.reason.reserve(vars);
        self.trail_pos.reserve(vars);
        self.activity.reserve(vars);
        self.order.reserve(vars);
        self.phase.reserve(vars);
        self.seen.reserve(vars);
        self.trail.reserve(vars);
        self.clauses.reserve(clauses);
        self.arena.reserve(lits);
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.nvars
    }

    /// Cumulative search statistics.
    pub fn stats(&self) -> SolverStats {
        self.stats
    }

    /// Snapshots the constraint database for [`crate::opb`] export.
    ///
    /// Clauses learnt by a previous [`Solver::solve`] call are included —
    /// they are implied by the original formula, so the export stays
    /// equisatisfiable — and a search may leave a binary clause's two
    /// literals in either order; export before solving for a verbatim
    /// formula.
    pub fn export_formula(&self) -> crate::opb::Formula {
        crate::opb::Formula {
            num_vars: self.nvars,
            clauses: (self.clauses.iter())
                .map(|c| self.arena[c.range()].to_vec())
                .collect(),
            pb_le: self.pbs.iter().map(|p| p.c.clone()).collect(),
        }
    }

    fn value_lit(&self, l: Lit) -> LBool {
        match self.assign[l.var().0 as usize] {
            LBool::Undef => LBool::Undef,
            LBool::True => {
                if l.is_positive() {
                    LBool::True
                } else {
                    LBool::False
                }
            }
            LBool::False => {
                if l.is_positive() {
                    LBool::False
                } else {
                    LBool::True
                }
            }
        }
    }

    fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    /// Adds a clause (a disjunction of literals). Returns `false` if the
    /// database became trivially unsatisfiable.
    ///
    /// # Panics
    ///
    /// Panics if called mid-search (internal use keeps the solver at
    /// decision level 0 between solves) or with an out-of-range literal.
    pub fn add_clause(&mut self, lits: &[Lit]) -> bool {
        assert_eq!(self.decision_level(), 0, "add_clause only at level 0");
        if !self.ok {
            return false;
        }
        // Simplify: dedupe, drop false literals, detect tautology/satisfied.
        self.scratch.clear();
        for &l in lits {
            assert!((l.var().0 as usize) < self.nvars, "unknown variable {l}");
            match self.value_lit(l) {
                LBool::True => return true, // already satisfied at level 0
                LBool::False => continue,
                LBool::Undef => {}
            }
            if self.scratch.contains(&!l) {
                return true; // tautology
            }
            if !self.scratch.contains(&l) {
                self.scratch.push(l);
            }
        }
        match self.scratch.len() {
            0 => self.ok = false,
            1 => {
                self.uncheck_enqueue(self.scratch[0], Reason::None);
                if self.propagate().is_some() {
                    self.ok = false;
                }
            }
            _ => {
                let ls = std::mem::take(&mut self.scratch);
                self.attach_clause(&ls, false, 0);
                self.scratch = ls;
            }
        }
        self.ok
    }

    fn attach_clause(&mut self, lits: &[Lit], learnt: bool, lbd: u32) -> usize {
        let ci = self.clauses.len();
        self.clauses.push(Clause {
            start: u32::try_from(self.arena.len()).expect("clause arena offsets fit in u32"),
            len: lits.len() as u32,
            learnt,
            lbd,
        });
        self.arena.extend_from_slice(lits);
        let clause = u32::try_from(ci).expect("clause indices fit in u32");
        for (l, other) in [(lits[0], lits[1]), (lits[1], lits[0])] {
            let other = (lits.len() == 2).then(|| other.index() as u32);
            let other = other.unwrap_or(NO_OTHER);
            self.watches[l.index()].push(Watch { clause, other });
        }
        ci
    }

    /// Adds `Σ wᵢ·litᵢ ≤ bound`. Duplicate literals are merged; a literal
    /// and its negation contribute a constant (folded into the bound).
    /// Returns `false` if the database became trivially unsatisfiable.
    ///
    /// # Panics
    ///
    /// Panics if called mid-search or with an out-of-range literal.
    pub fn add_pb_le(&mut self, terms: &[(u64, Lit)], bound: u64) -> bool {
        assert_eq!(self.decision_level(), 0, "add_pb_le only at level 0");
        if !self.ok {
            return false;
        }
        // Merge duplicate variables: w1·l + w2·l = (w1+w2)·l;
        // w1·l + w2·!l = min + |w1-w2|·(winner), with min folded as a
        // constant into the bound. Sorting by variable brings each
        // variable's terms together and emits the row in ascending
        // variable order.
        let mut acc: Vec<(u32, u64, u64)> = (terms.iter())
            .map(|&(w, l)| {
                assert!((l.var().0 as usize) < self.nvars, "unknown variable {l}");
                if l.is_positive() {
                    (l.var().0, w, 0)
                } else {
                    (l.var().0, 0, w)
                }
            })
            .collect();
        acc.sort_unstable_by_key(|&(v, ..)| v);
        let mut constant = 0u64;
        let mut ls: Vec<(u64, Lit)> = Vec::with_capacity(acc.len());
        for run in acc.chunk_by(|a, b| a.0 == b.0) {
            let var = Var(run[0].0);
            let (wp, wn) = (run.iter()).fold((0, 0), |(p, n), &(_, wp, wn)| (p + wp, n + wn));
            constant += wp.min(wn);
            if wp > wn {
                ls.push((wp - wn, Lit::positive(var)));
            } else if wn > wp {
                ls.push((wn - wp, Lit::negative(var)));
            }
        }
        if constant > bound {
            self.ok = false;
            return false;
        }
        let bound = bound - constant;
        // Fold in level-0 assignments.
        let mut fixed = 0u64;
        let mut live: Vec<(u64, Lit)> = Vec::new();
        for (w, l) in ls {
            match self.value_lit(l) {
                LBool::True => fixed += w,
                LBool::False => {}
                LBool::Undef => live.push((w, l)),
            }
        }
        if fixed > bound {
            self.ok = false;
            return false;
        }
        let bound = bound - fixed;
        let pb = PbConstraint::new(live, bound);
        if pb.is_trivial() {
            return true;
        }
        // Immediate implications: weights exceeding the bound force lits
        // false.
        for &(w, l) in &pb.terms {
            if w > pb.bound && self.value_lit(l) == LBool::Undef {
                self.uncheck_enqueue(!l, Reason::None);
            }
        }
        let idx = self.pbs.len();
        for &(w, l) in &pb.terms {
            self.pb_occ[l.index()].push((idx, w));
        }
        let max_w = pb.terms.iter().map(|&(w, _)| w).max().unwrap_or(0);
        self.pbs.push(PbState {
            c: pb,
            sum_true: 0,
            max_w,
        });
        if self.propagate().is_some() {
            self.ok = false;
        }
        self.ok
    }

    /// Adds "at most `k` of these literals are true".
    ///
    /// Returns `false` if the database became trivially unsatisfiable.
    pub fn add_at_most_k(&mut self, lits: &[Lit], k: u64) -> bool {
        self.add_pb_le(&lits.iter().map(|&l| (1, l)).collect::<Vec<_>>(), k)
    }

    /// Adds "at least `k` of these literals are true"
    /// (as `Σ ¬lit ≤ n − k`).
    ///
    /// Returns `false` if the database became trivially unsatisfiable
    /// (including `k > lits.len()`).
    pub fn add_at_least_k(&mut self, lits: &[Lit], k: u64) -> bool {
        let n = lits.len() as u64;
        if k > n {
            self.ok = false;
            return false;
        }
        if k == 1 {
            return self.add_clause(lits);
        }
        self.add_pb_le(&lits.iter().map(|&l| (1, !l)).collect::<Vec<_>>(), n - k)
    }

    /// Adds `a → b`: the clause `¬a ∨ b`.
    ///
    /// Returns `false` if the database became trivially unsatisfiable.
    pub fn add_implication(&mut self, a: Lit, b: Lit) -> bool {
        // Two distinct variables, both unassigned at level 0: the clause
        // simplifies to itself, so attach it as `add_clause` would.
        let (va, vb) = (a.var().0 as usize, b.var().0 as usize);
        if self.ok
            && self.decision_level() == 0
            && va != vb
            && va.max(vb) < self.nvars
            && self.assign[va] == LBool::Undef
            && self.assign[vb] == LBool::Undef
        {
            self.attach_clause(&[!a, b], false, 0);
            return true;
        }
        self.add_clause(&[!a, b])
    }

    /// Adds `target ↔ (l₁ ∧ l₂ ∧ … ∧ lₙ)` (the merge-rule linking
    /// constraint, Equation 8 of the paper).
    ///
    /// Returns `false` if the database became trivially unsatisfiable.
    pub fn add_and_equiv(&mut self, target: Lit, of: &[Lit]) -> bool {
        // target → each lᵢ
        for &l in of {
            if !self.add_clause(&[!target, l]) {
                return false;
            }
        }
        // (∧ lᵢ) → target
        let mut clause: Vec<Lit> = of.iter().map(|&l| !l).collect();
        clause.push(target);
        self.add_clause(&clause)
    }

    fn uncheck_enqueue(&mut self, l: Lit, reason: Reason) {
        debug_assert_eq!(self.value_lit(l), LBool::Undef);
        let v = l.var().0 as usize;
        self.assign[v] = if l.is_positive() {
            LBool::True
        } else {
            LBool::False
        };
        self.level[v] = self.decision_level();
        self.reason[v] = reason;
        self.trail_pos[v] = self.trail.len();
        self.trail.push(l);
        self.stats.propagations += 1;
        // PB bookkeeping: l just became true.
        for &(pi, w) in self.pb_occ[l.index()].iter() {
            self.pbs[pi].sum_true += w;
        }
    }

    /// Unit propagation over clauses and PB constraints. Returns a
    /// conflict clause (all literals false) or `None`.
    fn propagate(&mut self) -> Option<Vec<Lit>> {
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;

            // Clause propagation: clauses watching ¬p lost a support.
            let false_lit = !p;
            let mut i = 0;
            'clauses: while i < self.watches[false_lit.index()].len() {
                let watch = self.watches[false_lit.index()][i];
                let ci = watch.clause as usize;
                if let Some(other) = watch.other() {
                    // A binary `[other, false_lit]` has no replacement
                    // watch. Only `export_formula`, run before any search,
                    // reads its order, so only level 0 swaps it.
                    if self.trail_lim.is_empty() {
                        let at = self.clauses[ci].start as usize;
                        if self.arena[at] == false_lit {
                            self.arena.swap(at, at + 1);
                        }
                    }
                    match self.value_lit(other) {
                        LBool::True => {}
                        LBool::False => return Some(vec![other, false_lit]),
                        LBool::Undef => self.uncheck_enqueue(other, Reason::Clause(ci)),
                    }
                    i += 1;
                    continue;
                }
                let lits = self.clauses[ci].range();
                // Make lits[1] the false watch.
                if self.arena[lits.start] == false_lit {
                    self.arena.swap(lits.start, lits.start + 1);
                }
                debug_assert_eq!(self.arena[lits.start + 1], false_lit);
                let first = self.arena[lits.start];
                if self.value_lit(first) == LBool::True {
                    i += 1;
                    continue;
                }
                // Look for a replacement watch.
                for k in lits.start + 2..lits.end {
                    let l = self.arena[k];
                    if self.value_lit(l) != LBool::False {
                        self.arena.swap(lits.start + 1, k);
                        let w = self.watches[false_lit.index()].swap_remove(i);
                        self.watches[l.index()].push(w);
                        continue 'clauses;
                    }
                }
                // No replacement: unit or conflict.
                if self.value_lit(first) == LBool::False {
                    return Some(self.arena[lits].to_vec());
                }
                self.uncheck_enqueue(first, Reason::Clause(ci));
                i += 1;
            }

            // PB propagation: p true raised sums in its constraints.
            for k in 0..self.pb_occ[p.index()].len() {
                let pi = self.pb_occ[p.index()][k].0;
                let PbState {
                    sum_true, max_w, ..
                } = self.pbs[pi];
                let bound = self.pbs[pi].c.bound;
                if sum_true > bound {
                    // The true literals of an over-full PB cannot all hold.
                    return Some(self.pb_true_negations(pi, usize::MAX));
                }
                if bound - sum_true >= max_w {
                    continue; // even the heaviest term still fits
                }
                // Force false each unassigned literal that no longer
                // fits. A variable occurs once per constraint, so a
                // forcing never changes this row's sum or another
                // term's value.
                for t in 0..self.pbs[pi].c.terms.len() {
                    let (w, l) = self.pbs[pi].c.terms[t];
                    if sum_true + w > bound && self.value_lit(l) == LBool::Undef {
                        self.uncheck_enqueue(!l, Reason::Pb(pi));
                    }
                }
            }
        }
        None
    }

    /// Negations of the literals of PB `pi` that are true and sit on
    /// the trail before position `before`, in term order.
    fn pb_true_negations(&self, pi: usize, before: usize) -> Vec<Lit> {
        self.pbs[pi]
            .c
            .terms
            .iter()
            .filter(|&&(_, l)| {
                self.value_lit(l) == LBool::True && self.trail_pos[l.var().0 as usize] < before
            })
            .map(|&(_, l)| !l)
            .collect()
    }

    fn cancel_until(&mut self, target: u32) {
        if self.decision_level() <= target {
            return;
        }
        let lim = self.trail_lim[target as usize];
        for &l in &self.trail[lim..] {
            let v = l.var().0 as usize;
            self.phase[v] = self.assign[v] == LBool::True;
            self.assign[v] = LBool::Undef;
            self.reason[v] = Reason::None;
            for &(pi, w) in self.pb_occ[l.index()].iter() {
                self.pbs[pi].sum_true -= w;
            }
        }
        let unassigned = self.trail[lim..].iter().map(|l| l.var().0 as usize);
        self.order.insert_all(unassigned, &self.activity);
        self.trail.truncate(lim);
        self.trail_lim.truncate(target as usize);
        self.qhead = self.trail.len();
    }

    /// Reason clause of the *assigned* literal `l`, with `l` first.
    ///
    /// A PB reason is `l` plus the negations of the constraint's terms
    /// that were already true when it forced `l` — exactly its true
    /// terms that precede `l` on the trail — in term order.
    fn reason_lits(&self, l: Lit) -> Vec<Lit> {
        match self.reason[l.var().0 as usize] {
            Reason::Clause(ci) => {
                let mut lits = self.arena[self.clauses[ci].range()].to_vec();
                if lits[0] != l {
                    let pos = lits.iter().position(|&x| x == l).expect("lit in reason");
                    lits.swap(0, pos);
                }
                lits
            }
            Reason::Pb(pi) => {
                let mut lits = vec![l];
                lits.extend(self.pb_true_negations(pi, self.trail_pos[l.var().0 as usize]));
                lits
            }
            Reason::None => unreachable!("decision literal has no reason"),
        }
    }

    fn bump(&mut self, v: Var) {
        let v = v.0 as usize;
        self.activity[v] += self.var_inc;
        if self.activity[v] > 1e100 {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
            // Scaling can collapse distinct activities into ties, which
            // the index then orders: the whole heap is stale.
            self.order.rebuild(&self.activity);
        } else {
            self.order.increased(v, &self.activity);
        }
    }

    /// Literal-block distance: distinct decision levels among `lits`.
    fn clause_lbd(&self, lits: &[Lit]) -> u32 {
        let mut levels: Vec<u32> = lits
            .iter()
            .map(|l| self.level[l.var().0 as usize])
            .collect();
        levels.sort_unstable();
        levels.dedup();
        levels.len() as u32
    }

    /// True if learnt-clause literal `l` (false under the current
    /// assignment) is implied by the rest of the learnt clause plus
    /// level-0 facts — the MiniSat recursive-minimization check. `seen`
    /// marks "in the learnt clause or already proven redundant"; vars
    /// marked during a failed probe are unmarked again so the marks
    /// never over-approximate.
    fn lit_redundant(&mut self, l: Lit, to_clear: &mut Vec<Var>) -> bool {
        if matches!(self.reason[l.var().0 as usize], Reason::None) {
            return false;
        }
        let top = to_clear.len();
        let mut stack: Vec<Lit> = vec![l];
        while let Some(p) = stack.pop() {
            // `p` is false; the assigned literal is ¬p.
            let rlits = self.reason_lits(!p);
            for &q in &rlits[1..] {
                let vi = q.var().0 as usize;
                if self.seen[vi] || self.level[vi] == 0 {
                    continue;
                }
                if matches!(self.reason[vi], Reason::None) {
                    // Reached a decision outside the clause: not
                    // redundant. Roll back the speculative marks.
                    for v in to_clear.drain(top..) {
                        self.seen[v.0 as usize] = false;
                    }
                    return false;
                }
                self.seen[vi] = true;
                to_clear.push(q.var());
                stack.push(q);
            }
        }
        true
    }

    /// 1UIP conflict analysis with recursive minimization. Returns the
    /// learnt clause (asserting literal first), the backtrack level, and
    /// the clause's LBD.
    fn analyze(&mut self, conflict: Vec<Lit>) -> (Vec<Lit>, u32, u32) {
        let current = self.decision_level();
        let mut learnt: Vec<Lit> = Vec::new();
        let mut to_clear: Vec<Var> = Vec::new();
        let mut counter = 0usize;
        let mut p: Option<Lit> = None;
        let mut index = self.trail.len();
        let mut cls = conflict;

        loop {
            let start = usize::from(p.is_some());
            for &q in &cls[start..] {
                let v = q.var();
                let vi = v.0 as usize;
                if !self.seen[vi] && self.level[vi] > 0 {
                    self.seen[vi] = true;
                    to_clear.push(v);
                    self.bump(v);
                    if self.level[vi] >= current {
                        counter += 1;
                    } else {
                        learnt.push(q);
                    }
                }
            }
            // Walk back to the next marked trail literal.
            loop {
                index -= 1;
                if self.seen[self.trail[index].var().0 as usize] {
                    break;
                }
            }
            let pl = self.trail[index];
            self.seen[pl.var().0 as usize] = false;
            counter -= 1;
            if counter == 0 {
                p = Some(pl);
                break;
            }
            p = Some(pl);
            cls = self.reason_lits(pl);
        }
        // Recursive minimization: drop literals implied by the others
        // (plus level-0 facts). `seen` is still set exactly on the
        // non-asserting learnt literals here, which is what
        // `lit_redundant` keys on.
        let mut kept: Vec<Lit> = Vec::with_capacity(learnt.len());
        for &l in &learnt {
            if !self.lit_redundant(l, &mut to_clear) {
                kept.push(l);
            }
        }
        let mut learnt = kept;
        let asserting = !p.expect("1UIP exists");
        learnt.insert(0, asserting);
        for v in to_clear {
            self.seen[v.0 as usize] = false;
        }
        let lbd = self.clause_lbd(&learnt);
        // Backtrack to the second-highest level in the clause.
        let mut blevel = 0;
        let mut max_i = 1;
        for (i, l) in learnt.iter().enumerate().skip(1) {
            let lv = self.level[l.var().0 as usize];
            if lv > blevel {
                blevel = lv;
                max_i = i;
            }
        }
        if learnt.len() > 1 {
            learnt.swap(1, max_i);
        }
        (learnt, blevel, lbd)
    }

    /// Deletes the worst half of the deletable learnt clauses (highest
    /// LBD first; ties broken by length, then recency). Glue clauses
    /// (LBD ≤ 2), problem clauses, and *locked* clauses — those standing
    /// as the reason of a currently-assigned variable — are never
    /// deleted, so every reason index stays valid. The surviving clause
    /// database is compacted and all clause indices (watch lists and
    /// reasons) are remapped.
    ///
    /// Public so `tests/fresh_session.rs` can force a reduction at a
    /// deterministic point; the search loop calls it on its own
    /// cadence when [`SolverOptions::db_reduction`] is set.
    ///
    /// # Panics
    ///
    /// Panics if called mid-search (the solver is at decision level 0
    /// between solves; internally it reduces only after backtracking to
    /// level 0).
    pub fn reduce_learnts(&mut self) {
        assert_eq!(self.decision_level(), 0, "reduce_learnts only at level 0");
        // Locked = reason of an assigned variable (level-0 implications
        // included: their reasons must survive for conflict analysis and
        // the assumption machinery).
        let mut locked = vec![false; self.clauses.len()];
        for r in &self.reason {
            if let Reason::Clause(ci) = r {
                locked[*ci] = true;
            }
        }
        let mut cands: Vec<(u32, usize, usize)> = self
            .clauses
            .iter()
            .enumerate()
            .filter(|(ci, c)| c.learnt && c.lbd > 2 && !locked[*ci])
            .map(|(ci, c)| (c.lbd, c.len as usize, ci))
            .collect();
        // Worst last: ascending (lbd, len, index) then delete the upper
        // half. Index as the final key keeps the order total and the
        // deletion set deterministic.
        cands.sort_unstable();
        let keep = cands.len() - cands.len() / 2;
        let doomed = &cands[keep..];
        if doomed.is_empty() {
            self.stats.db_reductions += 1;
            return;
        }
        let mut delete = vec![false; self.clauses.len()];
        for &(_, _, ci) in doomed {
            delete[ci] = true;
        }
        // Re-attach the survivors in order, building old-index →
        // new-index; their watch lists are rebuilt as they go.
        for w in &mut self.watches {
            w.clear();
        }
        let mut remap: Vec<usize> = vec![usize::MAX; self.clauses.len()];
        let arena = std::mem::take(&mut self.arena);
        for (ci, c) in std::mem::take(&mut self.clauses).into_iter().enumerate() {
            if !delete[ci] {
                remap[ci] = self.attach_clause(&arena[c.range()], c.learnt, c.lbd);
            }
        }
        for r in &mut self.reason {
            if let Reason::Clause(ci) = r {
                debug_assert_ne!(remap[*ci], usize::MAX, "locked clause deleted");
                *r = Reason::Clause(remap[*ci]);
            }
        }
        self.stats.db_reductions += 1;
        self.stats.learnt_deleted += doomed.len() as u64;
    }

    /// The unassigned variable of highest activity, lowest index first
    /// among ties; pops assigned variables off the heap on the way.
    fn pick_branch_var(&mut self) -> Option<Var> {
        let mut pick = None;
        while let Some(v) = self.order.pop(&self.activity) {
            if self.assign[v] == LBool::Undef {
                pick = Some(Var(v as u32));
                break;
            }
        }
        #[cfg(debug_assertions)]
        assert_eq!(
            pick,
            self.scan_branch_var(),
            "decision heap disagrees with the scan"
        );
        pick
    }

    /// Debug oracle for [`Solver::pick_branch_var`]: the linear
    /// first-maximum scan the heap replaces.
    #[cfg(debug_assertions)]
    fn scan_branch_var(&self) -> Option<Var> {
        let mut best: Option<(usize, f64)> = None;
        for v in 0..self.nvars {
            if self.assign[v] == LBool::Undef {
                let a = self.activity[v];
                if best.map(|(_, ba)| a > ba).unwrap_or(true) {
                    best = Some((v, a));
                }
            }
        }
        best.map(|(v, _)| Var(v as u32))
    }

    /// Restart/blocking bookkeeping after one conflict. `lbd` is the new
    /// learnt clause's LBD; `trail_len` the trail size at conflict
    /// detection. Returns `true` if the search should restart now.
    fn after_conflict_pacing(
        &mut self,
        pacing: &mut SearchPacing,
        lbd: u32,
        trail_len: usize,
    ) -> bool {
        let lbd_fp = (lbd as i64) << EMA_SHIFT;
        let trail_fp = (trail_len as i64) << EMA_SHIFT;
        if !pacing.seeded {
            pacing.seeded = true;
            pacing.lbd_fast = lbd_fp;
            pacing.lbd_slow = lbd_fp;
            pacing.trail_ema = trail_fp;
        } else {
            pacing.lbd_fast += (lbd_fp - pacing.lbd_fast) >> LBD_FAST_SHIFT;
            pacing.lbd_slow += (lbd_fp - pacing.lbd_slow) >> LBD_SLOW_SHIFT;
            pacing.trail_ema += (trail_fp - pacing.trail_ema) >> TRAIL_SHIFT;
        }
        pacing.conflicts_since_restart += 1;
        if pacing.conflicts_since_restart < RESTART_MIN_CONFLICTS {
            return false;
        }
        // Restart when recent glue runs 25% above the long-term average
        // (the search degraded)…
        if 4 * pacing.lbd_fast > 5 * pacing.lbd_slow {
            pacing.conflicts_since_restart = 0;
            pacing.lbd_fast = pacing.lbd_slow;
            // …unless the trail is 40% above its average: the solver is
            // probably closing in on a model, so the restart is blocked.
            if 5 * trail_fp > 7 * pacing.trail_ema {
                self.stats.blocked_restarts += 1;
                return false;
            }
            return true;
        }
        false
    }

    /// Decides satisfiability of the current database.
    ///
    /// The solver is reusable: more clauses/constraints may be added after
    /// a solve, and `solve` called again.
    pub fn solve(&mut self) -> SatResult {
        self.solve_with_assumptions(&[])
    }

    /// Decides satisfiability under extra unit assumptions, without
    /// permanently constraining the solver.
    ///
    /// Assumptions are enqueued as pseudo-decisions (MiniSat style), so
    /// clauses learnt under them never mention the assumption context
    /// except as ordinary negated decision literals — every learnt clause
    /// stays implied by the database alone and is retained for later
    /// calls, with or without assumptions. `Unsat` here means
    /// *unsatisfiable under these assumptions*; the database itself is
    /// untouched and the solver stays reusable.
    ///
    /// # Panics
    ///
    /// Panics if an assumption names a variable the solver has not
    /// created.
    pub fn solve_with_assumptions(&mut self, assumptions: &[Lit]) -> SatResult {
        for &a in assumptions {
            assert!(
                (a.var().0 as usize) < self.nvars,
                "unknown assumption variable {a}"
            );
        }
        if !self.ok {
            return SatResult::Unsat;
        }
        self.cancel_until(0);
        if self.propagate().is_some() {
            self.ok = false;
            return SatResult::Unsat;
        }

        let mut pacing = SearchPacing::new();

        loop {
            match self.propagate() {
                Some(conflict) => {
                    self.stats.conflicts += 1;
                    pacing.conflicts_this_call += 1;
                    if self.decision_level() == 0 {
                        self.ok = false;
                        return SatResult::Unsat;
                    }
                    let trail_len = self.trail.len();
                    let (learnt, blevel, lbd) = self.analyze(conflict);
                    self.cancel_until(blevel);
                    let asserting = learnt[0];
                    if learnt.len() == 1 {
                        self.uncheck_enqueue(asserting, Reason::None);
                    } else {
                        let ci = self.attach_clause(&learnt, true, lbd);
                        self.stats.learnt_clauses += 1;
                        self.stats.lbd_sum += lbd as u64;
                        self.uncheck_enqueue(asserting, Reason::Clause(ci));
                    }
                    self.var_inc /= 0.95;
                    if self.after_conflict_pacing(&mut pacing, lbd, trail_len) {
                        self.stats.restarts += 1;
                        self.cancel_until(0);
                    }
                    if self.options.db_reduction && pacing.conflicts_this_call >= pacing.next_reduce
                    {
                        pacing.reductions_this_call += 1;
                        pacing.next_reduce = pacing.conflicts_this_call
                            + REDUCE_FIRST
                            + REDUCE_INC * pacing.reductions_this_call;
                        self.cancel_until(0);
                        self.reduce_learnts();
                    }
                }
                None => {
                    // (Re-)establish assumptions first: one pseudo-decision
                    // level per assumption, recreated here after every
                    // restart or deep backjump. An already-true assumption
                    // gets a dummy level (keeping level indices aligned);
                    // an already-false one means the database implies its
                    // negation under the earlier assumptions — UNSAT under
                    // assumptions, with `ok` left untouched.
                    if (self.decision_level() as usize) < assumptions.len() {
                        let a = assumptions[self.decision_level() as usize];
                        match self.value_lit(a) {
                            LBool::False => {
                                self.cancel_until(0);
                                return SatResult::Unsat;
                            }
                            LBool::True => {
                                self.trail_lim.push(self.trail.len());
                            }
                            LBool::Undef => {
                                self.trail_lim.push(self.trail.len());
                                self.uncheck_enqueue(a, Reason::None);
                            }
                        }
                        continue;
                    }
                    match self.pick_branch_var() {
                        None => {
                            // Full assignment: SAT.
                            let values: Vec<bool> =
                                self.assign.iter().map(|a| *a == LBool::True).collect();
                            let model = Model { values };
                            debug_assert!(self.model_consistent(&model));
                            self.cancel_until(0);
                            return SatResult::Sat(model);
                        }
                        Some(v) => {
                            self.stats.decisions += 1;
                            self.trail_lim.push(self.trail.len());
                            let l = if self.phase[v.0 as usize] {
                                Lit::positive(v)
                            } else {
                                Lit::negative(v)
                            };
                            self.uncheck_enqueue(l, Reason::None);
                        }
                    }
                }
            }
        }
    }

    /// Debug check: the model satisfies every clause and PB constraint.
    fn model_consistent(&self, model: &Model) -> bool {
        (self.clauses.iter()).all(|c| self.arena[c.range()].iter().any(|&l| model.lit_value(l)))
            && self.pbs.iter().all(|p| p.c.is_satisfied(model.values()))
    }
}

impl fmt::Display for Solver {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "solver: {} vars, {} clauses, {} PB constraints",
            self.nvars,
            self.clauses.len(),
            self.pbs.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lits(s: &mut Solver, n: usize) -> Vec<Lit> {
        (0..n).map(|_| Lit::positive(s.new_var())).collect()
    }

    /// Every solver configuration the differential suites cover.
    fn all_options() -> [SolverOptions; 2] {
        [false, true].map(|db_reduction| SolverOptions { db_reduction })
    }

    #[test]
    fn trivial_sat_and_unsat() {
        let mut s = Solver::new();
        let v = s.new_var();
        assert!(s.add_clause(&[Lit::positive(v)]));
        assert!(s.solve().is_sat());
        assert!(!s.add_clause(&[Lit::negative(v)]));
        assert_eq!(s.solve(), SatResult::Unsat);
    }

    #[test]
    fn unit_propagation_chain() {
        let mut s = Solver::new();
        let v = lits(&mut s, 5);
        s.add_clause(&[v[0]]);
        for i in 0..4 {
            s.add_clause(&[!v[i], v[i + 1]]); // vᵢ → vᵢ₊₁
        }
        let m = s.solve();
        let m = m.model().unwrap();
        for l in &v {
            assert!(m.lit_value(*l));
        }
    }

    #[test]
    fn simple_conflict_learning() {
        // (a ∨ b) ∧ (a ∨ ¬b) ∧ (¬a ∨ c) ∧ (¬a ∨ ¬c) is UNSAT.
        let mut s = Solver::new();
        let v = lits(&mut s, 3);
        let (a, b, c) = (v[0], v[1], v[2]);
        s.add_clause(&[a, b]);
        s.add_clause(&[a, !b]);
        s.add_clause(&[!a, c]);
        s.add_clause(&[!a, !c]);
        assert_eq!(s.solve(), SatResult::Unsat);
    }

    #[test]
    fn pigeonhole_3_into_2_unsat() {
        // 3 pigeons, 2 holes: p_{i,h}; each pigeon somewhere; holes hold
        // at most one pigeon (via PB).
        let mut s = Solver::new();
        let p: Vec<Vec<Lit>> = (0..3)
            .map(|_| (0..2).map(|_| Lit::positive(s.new_var())).collect())
            .collect();
        for row in &p {
            s.add_clause(row);
        }
        for h in 0..2 {
            let col: Vec<Lit> = p.iter().map(|row| row[h]).collect();
            s.add_at_most_k(&col, 1);
        }
        assert_eq!(s.solve(), SatResult::Unsat);
    }

    #[test]
    fn at_most_k_sat_boundary() {
        let mut s = Solver::new();
        let v = lits(&mut s, 4);
        s.add_at_most_k(&v, 2);
        s.add_at_least_k(&v, 2);
        let r = s.solve();
        let m = r.model().unwrap();
        let count = v.iter().filter(|&&l| m.lit_value(l)).count();
        assert_eq!(count, 2);
    }

    #[test]
    fn at_least_more_than_n_is_unsat() {
        let mut s = Solver::new();
        let v = lits(&mut s, 3);
        assert!(!s.add_at_least_k(&v, 4));
        assert_eq!(s.solve(), SatResult::Unsat);
    }

    #[test]
    fn weighted_pb_propagation() {
        // 3a + 2b + c <= 3 with a forced true → b false; c free.
        let mut s = Solver::new();
        let v = lits(&mut s, 3);
        let (a, b, c) = (v[0], v[1], v[2]);
        s.add_pb_le(&[(3, a), (2, b), (1, c)], 3);
        s.add_clause(&[a]);
        let r = s.solve();
        let m = r.model().unwrap();
        assert!(m.lit_value(a));
        assert!(!m.lit_value(b));
        assert!(!m.lit_value(c));
    }

    /// Unsorted terms with a repeated literal and two complementary
    /// pairs come out as one row in ascending variable order: repeats
    /// summed, each complementary pair reduced to its heavier side with
    /// the lighter weight folded into the bound.
    #[test]
    fn add_pb_le_emits_the_merged_row_in_variable_order() {
        let mut s = Solver::new();
        let v = lits(&mut s, 5);
        let terms = [
            (2, v[3]),
            (1, !v[1]),
            (1, !v[4]),
            (2, v[2]),
            (3, v[0]),
            (4, v[3]),
            (5, v[1]),
            (2, !v[2]),
        ];
        // 3·v0 + (1 + 4·v1) + 2 + 6·v3 + 1·¬v4 ≤ 12.
        assert!(s.add_pb_le(&terms, 12));
        let f = s.export_formula();
        assert!(f.clauses.is_empty());
        let row = PbConstraint {
            terms: vec![(3, v[0]), (4, v[1]), (6, v[3]), (1, !v[4])],
            bound: 9,
        };
        assert_eq!(f.pb_le, [row]);
    }

    #[test]
    fn pb_with_negative_literals() {
        // 2·¬a + 2·¬b <= 2 means at least one of a, b is true.
        let mut s = Solver::new();
        let v = lits(&mut s, 2);
        s.add_pb_le(&[(2, !v[0]), (2, !v[1])], 2);
        s.add_clause(&[!v[0]]); // a false → b must be true
        let r = s.solve();
        let m = r.model().unwrap();
        assert!(m.lit_value(v[1]));
    }

    #[test]
    fn pb_duplicate_merging() {
        // a + a + ¬a <= 1 → constant 1 folded: a <= 0 → a false.
        let mut s = Solver::new();
        let a = Lit::positive(s.new_var());
        assert!(s.add_pb_le(&[(1, a), (1, a), (1, !a)], 1));
        let r = s.solve();
        assert!(!r.model().unwrap().lit_value(a));
    }

    #[test]
    fn pb_infeasible_constant() {
        // a + ¬a <= 0 is a contradiction (constant 1 > 0).
        let mut s = Solver::new();
        let a = Lit::positive(s.new_var());
        assert!(!s.add_pb_le(&[(1, a), (1, !a)], 0));
        assert_eq!(s.solve(), SatResult::Unsat);
    }

    #[test]
    fn and_equiv_links() {
        let mut s = Solver::new();
        let v = lits(&mut s, 3);
        let t = Lit::positive(s.new_var());
        s.add_and_equiv(t, &v);
        // Force all inputs true → t true.
        for &l in &v {
            s.add_clause(&[l]);
        }
        let r = s.solve();
        assert!(r.model().unwrap().lit_value(t));
    }

    #[test]
    fn and_equiv_blocks_partial() {
        let mut s = Solver::new();
        let v = lits(&mut s, 2);
        let t = Lit::positive(s.new_var());
        s.add_and_equiv(t, &v);
        s.add_clause(&[t]);
        s.add_clause(&[!v[0]]);
        assert_eq!(s.solve(), SatResult::Unsat);
    }

    #[test]
    fn assumptions_do_not_persist() {
        let mut s = Solver::new();
        let v = lits(&mut s, 2);
        s.add_clause(&[v[0], v[1]]);
        assert!(!s.solve_with_assumptions(&[!v[0], !v[1]]).is_sat());
        // Without assumptions it is still satisfiable.
        assert!(s.solve().is_sat());
        // And a different assumption set works.
        assert!(s.solve_with_assumptions(&[!v[0]]).is_sat());
    }

    #[test]
    fn repeated_assumption_solves_keep_stats_monotone_and_results_correct() {
        // Regression for the former clone-based implementation: every
        // solve_with_assumptions threw away the learnt clauses (and the
        // heuristic state) of the probe. The native implementation keeps
        // one cumulative stats counter and one clause database, so stats
        // must be non-decreasing across an interleaved mix of assumption
        // and plain solves, with every verdict correct.
        let mut s = Solver::new();
        let p: Vec<Vec<Lit>> = (0..4)
            .map(|_| (0..4).map(|_| Lit::positive(s.new_var())).collect())
            .collect();
        for row in &p {
            s.add_clause(row);
        }
        for h in 0..4 {
            let col: Vec<Lit> = p.iter().map(|row| row[h]).collect();
            s.add_at_most_k(&col, 1);
        }
        let mut prev = s.stats();
        for round in 0..4 {
            // Forbid pigeon 0 in holes 0..3: it must take hole 3.
            let assume: Vec<Lit> = (0..3).map(|h| !p[0][h]).collect();
            let r = s.solve_with_assumptions(&assume);
            let m = r.model().expect("4 pigeons fit 4 holes");
            assert!(m.lit_value(p[0][3]), "round {round}: pigeon 0 in hole 3");
            // Contradictory assumptions: pigeon 1 in no hole at all.
            let none: Vec<Lit> = (0..4).map(|h| !p[1][h]).collect();
            assert_eq!(s.solve_with_assumptions(&none), SatResult::Unsat);
            // Unconstrained solve still succeeds (the Unsat above was
            // only under assumptions — the database is untouched).
            assert!(s.solve().is_sat(), "round {round}: plain solve");

            let now = s.stats();
            assert!(now.decisions >= prev.decisions, "decisions monotone");
            assert!(now.conflicts >= prev.conflicts, "conflicts monotone");
            assert!(
                now.propagations > prev.propagations,
                "every solve propagates"
            );
            assert!(
                now.learnt_clauses >= prev.learnt_clauses,
                "learnt clauses monotone"
            );
            prev = now;
        }
    }

    #[test]
    fn assumption_solves_retain_learnt_clauses() {
        // Solving the same hard query twice must not repeat the work:
        // clauses learnt under assumptions are database-implied (the
        // assumptions enter the search as pseudo-decisions) and stay in
        // the database for the second call.
        let mut s = Solver::new();
        let p: Vec<Vec<Lit>> = (0..6)
            .map(|_| (0..6).map(|_| Lit::positive(s.new_var())).collect())
            .collect();
        for row in &p {
            s.add_clause(row);
        }
        for h in 0..6 {
            let col: Vec<Lit> = p.iter().map(|row| row[h]).collect();
            s.add_at_most_k(&col, 1);
        }
        // Knock out one hole via assumptions: 6 pigeons, 5 usable holes.
        let assume: Vec<Lit> = (0..6).map(|i| !p[i][5]).collect();

        let before = s.stats();
        assert_eq!(s.solve_with_assumptions(&assume), SatResult::Unsat);
        let mid = s.stats();
        let first_conflicts = mid.conflicts - before.conflicts;
        assert!(first_conflicts > 0, "the query is non-trivial");
        assert!(
            mid.learnt_clauses > before.learnt_clauses,
            "the first solve learns clauses"
        );

        assert_eq!(s.solve_with_assumptions(&assume), SatResult::Unsat);
        let after = s.stats();
        let second_conflicts = after.conflicts - mid.conflicts;
        assert!(
            second_conflicts <= first_conflicts,
            "retained clauses make the re-solve no harder: \
             {second_conflicts} vs {first_conflicts}"
        );

        // The database itself is still satisfiable.
        assert!(s.solve().is_sat());
    }

    #[test]
    fn assumptions_after_database_unsat() {
        let mut s = Solver::new();
        let v = s.new_var();
        s.add_clause(&[Lit::positive(v)]);
        assert!(!s.add_clause(&[Lit::negative(v)]));
        assert_eq!(
            s.solve_with_assumptions(&[Lit::positive(v)]),
            SatResult::Unsat
        );
    }

    #[test]
    fn pigeonhole_6_into_5_unsat_with_learning() {
        // Large enough to force clause learning and restarts.
        let mut s = Solver::new();
        let p: Vec<Vec<Lit>> = (0..6)
            .map(|_| (0..5).map(|_| Lit::positive(s.new_var())).collect())
            .collect();
        for row in &p {
            s.add_clause(row);
        }
        for h in 0..5 {
            let col: Vec<Lit> = p.iter().map(|row| row[h]).collect();
            s.add_at_most_k(&col, 1);
        }
        assert_eq!(s.solve(), SatResult::Unsat);
        assert!(s.stats().conflicts > 0, "learning exercised");
    }

    #[test]
    fn solver_reusable_after_sat() {
        let mut s = Solver::new();
        let v = lits(&mut s, 3);
        s.add_clause(&[v[0], v[1]]);
        assert!(s.solve().is_sat());
        // Add more constraints and solve again.
        s.add_clause(&[!v[0]]);
        s.add_clause(&[!v[1], v[2]]);
        let m = s.solve();
        let m = m.model().unwrap();
        assert!(!m.lit_value(v[0]));
        assert!(m.lit_value(v[1]));
        assert!(m.lit_value(v[2]));
    }

    #[test]
    fn exhaustive_equivalence_small_random() {
        // Compare against brute force on all assignments for a bundle of
        // deterministic pseudo-random 6-var instances — for every solver
        // configuration.
        for opts in all_options() {
            let mut seed = 0x12345678u64;
            let mut next = move || {
                seed ^= seed << 13;
                seed ^= seed >> 7;
                seed ^= seed << 17;
                seed
            };
            for _case in 0..40 {
                let nv = 6usize;
                let mut s = Solver::with_options(opts);
                let vars: Vec<Var> = (0..nv).map(|_| s.new_var()).collect();
                let mut clauses: Vec<Vec<Lit>> = Vec::new();
                let nc = 3 + (next() % 8) as usize;
                for _ in 0..nc {
                    let len = 1 + (next() % 3) as usize;
                    let mut cl = Vec::new();
                    for _ in 0..len {
                        let v = vars[(next() % nv as u64) as usize];
                        let l = if next() % 2 == 0 {
                            Lit::positive(v)
                        } else {
                            Lit::negative(v)
                        };
                        cl.push(l);
                    }
                    clauses.push(cl);
                }
                // One random at-most-k.
                let k = next() % 3;
                let sub: Vec<Lit> = vars.iter().take(4).map(|&v| Lit::positive(v)).collect();

                let mut ok = true;
                for cl in &clauses {
                    ok &= s.add_clause(cl);
                }
                ok &= s.add_at_most_k(&sub, k);

                // Brute force.
                let mut any = false;
                for mask in 0u32..(1 << nv) {
                    let val = |l: Lit| {
                        let b = mask & (1 << l.var().0) != 0;
                        b == l.is_positive()
                    };
                    let cls_ok = clauses.iter().all(|c| c.iter().any(|&l| val(l)));
                    let pb_ok = sub.iter().filter(|&&l| val(l)).count() as u64 <= k;
                    if cls_ok && pb_ok {
                        any = true;
                        break;
                    }
                }
                let got = if ok { s.solve().is_sat() } else { false };
                assert_eq!(got, any, "case with {nc} clauses k={k} opts={opts:?}");
            }
        }
    }

    #[test]
    fn stats_accumulate() {
        let mut s = Solver::new();
        let v = lits(&mut s, 8);
        for i in 0..7 {
            s.add_clause(&[v[i], v[i + 1]]);
        }
        s.add_at_most_k(&v, 4);
        assert!(s.solve().is_sat());
        assert!(s.stats().propagations > 0);
    }

    #[test]
    fn learnt_clauses_carry_lbd() {
        // Any instance that learns clauses must account their LBD: the
        // mean is at least 1 and at most the variable count.
        let mut s = Solver::new();
        let p: Vec<Vec<Lit>> = (0..5)
            .map(|_| (0..4).map(|_| Lit::positive(s.new_var())).collect())
            .collect();
        for row in &p {
            s.add_clause(row);
        }
        for h in 0..4 {
            let col: Vec<Lit> = p.iter().map(|row| row[h]).collect();
            s.add_at_most_k(&col, 1);
        }
        assert_eq!(s.solve(), SatResult::Unsat);
        let st = s.stats();
        assert!(st.learnt_clauses > 0);
        assert!(st.lbd_sum >= st.learnt_clauses, "every LBD is at least 1");
        assert!(st.mean_lbd() >= 1.0);
        assert!(st.mean_lbd() <= s.num_vars() as f64);
    }

    #[test]
    fn manual_reduction_preserves_verdicts_and_reasons() {
        // Learn clauses, force a reduction, and re-solve: verdicts must
        // be unchanged and the compaction must not have corrupted any
        // watch list or reason index (the re-solve would derail).
        let mut s = Solver::new();
        let p: Vec<Vec<Lit>> = (0..6)
            .map(|_| (0..5).map(|_| Lit::positive(s.new_var())).collect())
            .collect();
        for row in &p {
            s.add_clause(row);
        }
        for h in 0..5 {
            let col: Vec<Lit> = p.iter().map(|row| row[h]).collect();
            s.add_at_most_k(&col, 1);
        }
        assert_eq!(s.solve(), SatResult::Unsat);
        let learnt_before = s.stats().learnt_live();
        s.reduce_learnts();
        let st = s.stats();
        assert!(st.db_reductions >= 1);
        assert!(st.learnt_live() <= learnt_before);
        assert_eq!(s.solve(), SatResult::Unsat);
    }

    #[test]
    fn reduction_never_deletes_glue_or_locked() {
        // Build a satisfiable instance that learns clauses under
        // assumptions, reduce, and check the assumption solve still
        // works: locked (reason) clauses survived by construction, and
        // the solver state stayed coherent.
        let mut s = Solver::new();
        let p: Vec<Vec<Lit>> = (0..5)
            .map(|_| (0..5).map(|_| Lit::positive(s.new_var())).collect())
            .collect();
        for row in &p {
            s.add_clause(row);
        }
        for h in 0..5 {
            let col: Vec<Lit> = p.iter().map(|row| row[h]).collect();
            s.add_at_most_k(&col, 1);
        }
        let assume: Vec<Lit> = (0..4).map(|h| !p[0][h]).collect();
        assert!(s.solve_with_assumptions(&assume).is_sat());
        for _ in 0..3 {
            s.reduce_learnts();
            let r = s.solve_with_assumptions(&assume);
            assert!(r.model().expect("still satisfiable").lit_value(p[0][4]));
        }
        // Deleted clauses are implied by the database: a plain solve
        // still reaches the right verdict.
        assert!(s.solve().is_sat());
    }

    #[test]
    fn glucose_restarts_fire_on_hard_instances() {
        let mut s = Solver::new();
        let p: Vec<Vec<Lit>> = (0..8)
            .map(|_| (0..7).map(|_| Lit::positive(s.new_var())).collect())
            .collect();
        for row in &p {
            s.add_clause(row);
        }
        for h in 0..7 {
            let col: Vec<Lit> = p.iter().map(|row| row[h]).collect();
            s.add_at_most_k(&col, 1);
        }
        assert_eq!(s.solve(), SatResult::Unsat);
        let st = s.stats();
        assert!(st.conflicts > RESTART_MIN_CONFLICTS, "instance is hard");
        assert!(
            st.restarts + st.blocked_restarts > 0,
            "the adaptive schedule reacted: {st:?}"
        );
    }

    #[test]
    fn activity_rescale_rebuilds_the_decision_heap() {
        // PHP(8,7) stops at 2 992 conflicts, short of the ~4 500 that
        // take `var_inc` from 1 past 1e100. Start just below it so the
        // second conflict's bumps rescale; debug builds then check every
        // later pick against the linear scan.
        let mut s = Solver::new();
        let p: Vec<Vec<Lit>> = (0..6)
            .map(|_| (0..6).map(|_| Lit::positive(s.new_var())).collect())
            .collect();
        for row in &p {
            s.add_clause(row);
        }
        for h in 0..6 {
            let col: Vec<Lit> = p.iter().map(|row| row[h]).collect();
            s.add_at_most_k(&col, 1);
        }
        s.var_inc = 0.99e100;
        let knock_out: Vec<Lit> = (0..6).map(|i| !p[i][5]).collect();
        assert_eq!(s.solve_with_assumptions(&knock_out), SatResult::Unsat);
        assert!(s.var_inc < 1e50, "no rescale ran: var_inc {}", s.var_inc);
        assert!(s.solve().is_sat());
        assert!(
            (0..s.num_vars()).all(|v| s.assign[v] != LBool::Undef || s.order.contains(v)),
            "an unassigned variable fell out of the heap"
        );
    }

    #[test]
    fn same_options_solves_are_byte_identical() {
        // Determinism: two fresh solvers fed the same formula under the
        // same options produce identical stats and identical models.
        for opts in all_options() {
            let build = |opts: SolverOptions| {
                let mut s = Solver::with_options(opts);
                let p: Vec<Vec<Lit>> = (0..6)
                    .map(|_| (0..5).map(|_| Lit::positive(s.new_var())).collect())
                    .collect();
                for row in &p {
                    s.add_clause(row);
                }
                for h in 0..5 {
                    let col: Vec<Lit> = p.iter().map(|row| row[h]).collect();
                    s.add_at_most_k(&col, 1);
                }
                let r = s.solve();
                (r, s.stats())
            };
            let (r1, st1) = build(opts);
            let (r2, st2) = build(opts);
            assert_eq!(r1, r2, "verdict deterministic under {opts:?}");
            assert_eq!(st1, st2, "stats deterministic under {opts:?}");
        }
    }

    /// Every clause is watched by its first two literals, once each,
    /// and a binary clause's two entries carry its other literal.
    fn assert_watches(s: &Solver) {
        let mut count = vec![0; s.clauses.len()];
        for (li, list) in s.watches.iter().enumerate() {
            for w in list.iter() {
                let c = s.clauses[w.clause as usize];
                let lits = &s.arena[c.range()];
                let at = (lits[..2].iter())
                    .position(|&l| l == Lit::from_index(li))
                    .expect("watched by one of its first two literals");
                assert_eq!(w.other(), (c.len == 2).then_some(lits[1 - at]));
                count[w.clause as usize] += 1;
            }
        }
        assert!(count.iter().all(|&n| n == 2), "watch counts {count:?}");
    }

    /// The learnt clauses' literals, in database order.
    fn learnt_clauses(s: &Solver) -> Vec<Vec<Lit>> {
        (s.clauses.iter())
            .filter(|c| c.learnt)
            .map(|c| s.arena[c.range()].to_vec())
            .collect()
    }

    #[test]
    fn level_0_binary_propagation_keeps_the_exported_literal_order() {
        // ¬v0 propagates through (v0 ∨ v1) and then (¬v1 ∨ v2); a
        // visited clause lists its false watch second, binary or long.
        let mut s = Solver::new();
        let v = lits(&mut s, 5);
        assert!(s.add_clause(&[v[0], v[1]]));
        assert!(s.add_clause(&[!v[1], v[2]]));
        assert!(s.add_clause(&[v[0], v[3], v[4]]));
        assert!(s.add_clause(&[!v[0]]));
        assert_eq!(s.trail, [!v[0], v[1], v[2]]);
        assert_watches(&s);
        let opb = s.export_formula().to_opb().expect("no duplicates");
        assert_eq!(
            opb,
            "* #variable= 5 #constraint= 3\n\
             * exported by flowplace-pbsat\n\
             +1 x2 +1 x1 >= 1 ;\n\
             +1 x3 +1 ~x2 >= 1 ;\n\
             +1 x4 +1 x5 +1 x1 >= 1 ;\n"
        );
    }

    /// PHP(6, 6), one pigeon-in-some-hole clause per pigeon and one
    /// at-most-one row per hole; returns `p[pigeon][hole]`.
    fn php6(s: &mut Solver) -> Vec<Vec<Lit>> {
        let p: Vec<Vec<Lit>> = (0..6).map(|_| lits(s, 6)).collect();
        for row in &p {
            s.add_clause(row);
        }
        for h in 0..6 {
            let col: Vec<Lit> = p.iter().map(|row| row[h]).collect();
            s.add_at_most_k(&col, 1);
        }
        p
    }

    /// Six variables whose first conflict, after deciding ¬v0 and then
    /// ¬v1, is found on a binary watch and learns `v1 ∨ v0`: v4 and v5
    /// follow, then v2 from the long clause and v3 from `¬v5 ∨ v3`, and
    /// `¬v2 ∨ ¬v3` is false, found on ¬v2's watch list.
    fn binary_conflict_gadget(s: &mut Solver) -> Vec<Lit> {
        let v = lits(s, 6);
        s.add_clause(&[v[1], v[4]]);
        s.add_clause(&[v[1], v[5]]);
        s.add_clause(&[v[0], !v[4], v[2]]);
        s.add_clause(&[!v[5], v[3]]);
        s.add_clause(&[!v[2], !v[3]]);
        v
    }

    #[test]
    fn a_binary_watch_conflict_lists_the_other_literal_first() {
        let mut s = Solver::new();
        let v = binary_conflict_gadget(&mut s);
        for d in [!v[0], !v[1]] {
            s.trail_lim.push(s.trail.len());
            s.uncheck_enqueue(d, Reason::None);
        }
        assert_eq!(s.propagate(), Some(vec![!v[3], !v[2]]));
        // The search meets the same conflict first.
        let mut s = Solver::new();
        let v = binary_conflict_gadget(&mut s);
        assert!(s.solve().is_sat());
        assert_eq!(s.stats().conflicts, 1);
        assert_eq!(learnt_clauses(&s), [vec![v[1], v[0]]]);
        assert_watches(&s);
    }

    #[test]
    fn reduction_after_binary_and_long_learnts_resolves_like_a_fresh_solver() {
        let build = || {
            let mut s = Solver::new();
            let g = binary_conflict_gadget(&mut s);
            let p = php6(&mut s);
            (s, g, p)
        };
        let (mut s, g, p) = build();
        let hole_5_out: Vec<Lit> = (0..6).map(|i| !p[i][5]).collect();
        assert_eq!(s.solve_with_assumptions(&hole_5_out), SatResult::Unsat);
        let learnt = learnt_clauses(&s);
        assert!(learnt.iter().any(|c| c.len() == 2), "a binary learnt");
        assert!(learnt.iter().any(|c| c.len() > 2), "a long learnt");
        s.reduce_learnts();
        assert!(s.stats().learnt_deleted > 0, "the reduction deleted");
        assert_watches(&s);
        // Each query has one model: the gadget satisfied by its pin,
        // pigeon i < 5 in hole (i + shift) % 6, pigeon 5 in the hole
        // left over.
        let gadget_pin = [g[0], g[1], !g[2], !g[3], !g[4], !g[5]];
        for shift in 0..6 {
            let mut pin = gadget_pin.to_vec();
            for (i, row) in p.iter().enumerate().take(5) {
                let hole = (i + shift) % 6;
                pin.extend((0..6).filter(|&h| h != hole).map(|h| !row[h]));
            }
            let want = build().0.solve_with_assumptions(&pin);
            assert!(want.is_sat());
            assert_eq!(s.solve_with_assumptions(&pin), want, "shift {shift}");
            assert_eq!(s.solve_with_assumptions(&hole_5_out), SatResult::Unsat);
        }
        assert_watches(&s);
    }

    /// One step of a formula built in two ways.
    enum Step {
        Clause(Vec<Lit>),
        /// `a → b`: `add_implication(a, b)` or `add_clause(&[!a, b])`.
        Implies(Lit, Lit),
        Pb(Vec<(u64, Lit)>, u64),
    }

    /// Seeded random CNF + PB formulas, each built twice: as clauses
    /// alone, and with `reserve` called first (for nothing, for about
    /// what the formula needs, or for twice that) and every `¬a ∨ b`
    /// added by `add_implication`.
    /// The implications include `a` or `b` assigned at level 0 by earlier
    /// units, `a == b` and `a == ¬b`. Every step returns alike, and both
    /// solvers export the same formula, solve alike and count alike.
    #[test]
    fn reserve_and_implications_build_what_add_clause_builds() {
        let mut seed = 0x5EED_F0A7u64;
        let mut next = move |n: u64| {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed % n
        };
        // Implications with a side assigned, a == b, a == ¬b, neither.
        let mut kinds = [0usize; 4];
        for case in 0..300 {
            let nv = 3 + next(10) as usize;
            let lit = |next: &mut dyn FnMut(u64) -> u64| {
                let v = Var(next(nv as u64) as u32);
                [Lit::positive(v), Lit::negative(v)][next(2) as usize]
            };
            let mut steps = Vec::new();
            for _ in 0..4 + next(24) {
                steps.push(match next(10) {
                    0 => Step::Clause(vec![lit(&mut next)]),
                    1 | 2 => {
                        let len = 2 + next(3) as usize;
                        Step::Clause((0..len).map(|_| lit(&mut next)).collect())
                    }
                    3 => {
                        let terms = (0..2 + next(4)).map(|_| (1 + next(3), lit(&mut next)));
                        Step::Pb(terms.collect(), next(5))
                    }
                    _ => {
                        let a = lit(&mut next);
                        let b = [a, !a, lit(&mut next), lit(&mut next)][next(4) as usize];
                        Step::Implies(a, b)
                    }
                });
            }
            let opts = all_options()[case % 2];
            let mut plain = Solver::with_options(opts);
            let mut fast = Solver::with_options(opts);
            let clauses = steps.len() * [0, 1, 2][case % 3];
            fast.reserve(nv * [0, 1, 2][case % 3], clauses, 4 * clauses);
            for _ in 0..nv {
                plain.new_var();
                fast.new_var();
            }
            for (i, step) in steps.iter().enumerate() {
                let (p, f) = match step {
                    Step::Clause(c) => (plain.add_clause(c), fast.add_clause(c)),
                    Step::Pb(terms, bound) => (
                        plain.add_pb_le(terms, *bound),
                        fast.add_pb_le(terms, *bound),
                    ),
                    &Step::Implies(a, b) => {
                        let assigned = [a, b].iter().any(|&l| fast.value_lit(l) != LBool::Undef);
                        let kind = match () {
                            _ if assigned => 0,
                            _ if a == b => 1,
                            _ if a == !b => 2,
                            _ => 3,
                        };
                        kinds[kind] += usize::from(fast.ok);
                        (plain.add_clause(&[!a, b]), fast.add_implication(a, b))
                    }
                };
                assert_eq!(p, f, "case {case} step {i}");
            }
            assert_eq!(plain.export_formula(), fast.export_formula(), "case {case}");
            assert_eq!(plain.solve(), fast.solve(), "case {case}");
            assert_eq!(plain.stats(), fast.stats(), "case {case}");
        }
        assert!(kinds.iter().all(|&k| k > 0), "{kinds:?}");
    }

    #[test]
    #[should_panic(expected = "at most 2^31 - 1 variables")]
    fn new_var_stops_short_of_2_31() {
        let mut s = Solver::new();
        s.nvars = MAX_VARS;
        s.new_var();
    }

    #[test]
    fn display_mentions_counts() {
        let mut s = Solver::new();
        let v = lits(&mut s, 2);
        s.add_clause(&[v[0], v[1]]);
        assert!(s.to_string().contains("2 vars"));
    }
}
