//! Warm-path incremental solving: epoch-over-epoch reuse for the
//! placement pipeline (the §IV-E update stream, made cheap).
//!
//! A controller that re-solves after every small policy update repeats
//! almost all of its work: dependency graphs and candidate sets of
//! untouched ingresses are recomputed verbatim, and a rolled-back or
//! replayed epoch re-solves an instance that was already solved. This
//! module makes re-solves proportional to the *change*:
//!
//! 1. **Fingerprints.** A stable 64-bit hash ([`Fingerprint`]) over
//!    policy rules, routes, and slices identifies each ingress
//!    ([`fingerprint_ingress`]) and the whole instance
//!    ([`fingerprint_instance`]). Fingerprints are pure functions of the
//!    problem data — no addresses, no iteration-order dependence — so
//!    they are stable across processes and replays.
//! 2. **Structural caches.** [`WarmCache`] keeps dependency graphs keyed
//!    by policy fingerprint and per-ingress candidate sets keyed by
//!    ingress fingerprint. Stages 1/2 of the parallel pipeline
//!    ([`crate::par::solve`] given a [`crate::SolveCtx::warm`])
//!    recompute only dirty ingresses;
//!    cached entries are byte-identical to a cold build because the
//!    cached value *is* the output of the same pure function the cold
//!    path runs, keyed by a hash of that function's entire input.
//! 3. **Placement memo.** Solved instances are memoized under their full
//!    instance fingerprint (policies + routes + capacities + options +
//!    objective), so a checkpoint → rollback → re-apply cycle returns
//!    the cached placement in O(1) instead of re-solving.
//!
//! # Determinism contract
//!
//! With [`WarmConfig::sessions`] **off** (the default), the warm path is
//! **byte-identical** to the cold path for any deterministic
//! configuration (no wall-clock limits): every cache key covers every
//! input of the cached computation, and a memo hit returns exactly the
//! outcome the cold solve produced for the identical instance. The
//! differential suite asserts this over seeded §IV-E update streams,
//! including across rollback.
//!
//! With `sessions` **on**, solver state persists across epochs: the
//! PB-SAT engine keeps its learnt clauses and activates per-epoch deltas
//! through assumptions ([`flowplace_pbsat::Solver::solve_with_assumptions`]
//! with one activation literal per ingress group), and the ILP engine is
//! seeded with the previous epoch's placement as its incumbent plus
//! bound-fixed variables for untouched ingresses. Sessions preserve
//! *feasibility* and solve status semantics but not solution bytes: a
//! seeded incumbent can win objective ties differently, and fixing
//! untouched ingresses restricts the search (such solves report at most
//! [`SolveStatus::Feasible`], never a possibly-unsound `Optimal`).
//! Sessions are therefore opt-in.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::time::Instant;

use flowplace_acl::{Policy, RuleId};
use flowplace_pbsat::{Lit, SatResult, Solver, Var};
use flowplace_topo::{EntryPortId, SwitchId};

use crate::candidates::CandidateMap;
use crate::depgraph::DependencyGraph;
use crate::encode_ilp::{EncodeOptions, IlpEncoding};
use crate::placement::{
    place_ilp_with, place_sat_with, Placement, PlacementOptions, PlacementOutcome, PlacementStats,
};
use crate::slicing;
use crate::{Instance, Objective, PlacerEngine, SolveStatus};
use flowplace_fasthash::FnvHashMap;

/// A stable 64-bit content hash (FNV-1a over a canonical serialization).
///
/// Used as the cache key for every warm-path cache. Keys are pure
/// functions of problem data, so equal problems hash equal across
/// processes; distinct problems colliding is the usual 64-bit-hash
/// assumption (and the differential suite would catch a systematic
/// break).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug, Hash)]
pub struct Fingerprint(pub u64);

/// Incremental FNV-1a hasher over canonical little-endian words — the
/// shared implementation from `flowplace-fasthash`, re-aliased so the
/// fingerprint functions below read the same as ever. `finish` returns
/// the raw `u64`; wrap it in [`Fingerprint`] at the call site.
type Fnv = flowplace_fasthash::Fnv64;

/// Fingerprint of one policy: width plus `(care, value, action,
/// priority)` of every rule in priority order.
pub fn fingerprint_policy(policy: &Policy) -> Fingerprint {
    let mut h = Fnv::new();
    h.u64(policy.width() as u64);
    h.usize(policy.len());
    for (id, rule) in policy.iter() {
        h.usize(id.0);
        h.u128(rule.match_field().care());
        h.u128(rule.match_field().value());
        h.bool(rule.action().is_drop());
        h.u64(rule.priority() as u64);
    }
    Fingerprint(h.finish())
}

/// Fingerprint of one ingress: its policy plus every route from it
/// (egress, switch sequence, and flow slice). This is the dirty-ingress
/// key — candidate sets depend on exactly these inputs (capacities enter
/// only at solve time).
pub fn fingerprint_ingress(instance: &Instance, ingress: EntryPortId) -> Fingerprint {
    let mut h = Fnv::new();
    h.usize(ingress.0);
    let policy_fp = instance
        .policy(ingress)
        .map(fingerprint_policy)
        .unwrap_or(Fingerprint(0));
    h.u64(policy_fp.0);
    let paths = instance.routes().paths_from(ingress);
    h.usize(paths.len());
    for rid in paths {
        let route = instance.routes().route(rid);
        h.usize(route.egress.0);
        h.usize(route.switches.len());
        for s in &route.switches {
            h.usize(s.0);
        }
        hash_flow(&mut h, &route.flow);
    }
    Fingerprint(h.finish())
}

/// Absorbs a route's flow slice: a presence byte, then width, care and
/// value.
pub(crate) fn hash_flow(h: &mut Fnv, flow: &Option<flowplace_acl::Ternary>) {
    match flow {
        None => h.bool(false),
        Some(t) => {
            h.bool(true);
            h.u64(t.width() as u64);
            h.u128(t.care());
            h.u128(t.value());
        }
    }
}

/// Fingerprint of every solve-affecting option: engine, encoding knobs,
/// monitors, solver limits, and the objective. Thread count is *not*
/// hashed — it never changes the result (the pipeline's merge-order
/// rule). The byte stream is pinned (the benchmark's input PINs hash
/// through it), so two retired options still contribute a constant.
fn fingerprint_options(options: &PlacementOptions, objective: &Objective) -> Fingerprint {
    let mut h = Fnv::new();
    h.byte(match options.engine {
        PlacerEngine::Ilp => 0,
        PlacerEngine::Sat => 1,
    });
    h.byte(match options.dependency {
        crate::DependencyEncoding::Pairwise => 0,
        crate::DependencyEncoding::Aggregated => 1,
        crate::DependencyEncoding::Lazy => 2,
    });
    h.bool(options.merging);
    h.byte(match options.merge_linking {
        crate::MergeLinking::PerMember => 0,
        crate::MergeLinking::Aggregated => 1,
    });
    h.bool(options.greedy_warm_start);
    h.usize(options.monitors.len());
    for m in &options.monitors {
        h.usize(m.switch.0);
        h.u64(m.flow.width() as u64);
        h.u128(m.flow.care());
        h.u128(m.flow.value());
    }
    match options.mip.time_limit {
        None => h.bool(false),
        Some(d) => {
            h.bool(true);
            h.u128(d.as_nanos());
        }
    }
    match options.mip.node_limit {
        None => h.bool(false),
        Some(n) => {
            h.bool(true);
            h.usize(n);
        }
    }
    h.f64(options.mip.integrality_tol);
    h.f64(options.mip.absolute_gap);
    match &options.mip.initial_solution {
        None => h.bool(false),
        Some(v) => {
            h.bool(true);
            h.usize(v.len());
            for x in v {
                h.f64(*x);
            }
        }
    }
    h.usize(options.mip.lp.max_iterations);
    h.f64(options.mip.lp.tolerance);
    // Retired `parallel.portfolio`: pinned fingerprints were taken with it off.
    h.bool(false);
    // Retired `RestartStrategy::Glucose` (= 1), the only schedule left.
    h.byte(1);
    // CDCL options steer the SAT search (and thus which model a SAT solve
    // returns), so memo entries must not cross option boundaries.
    h.bool(options.sat.db_reduction);
    match objective {
        Objective::TotalRules => h.byte(0),
        Objective::DistanceWeighted => h.byte(1),
        Objective::WeightedSwitches(w) => {
            h.byte(2);
            h.usize(w.len());
            for (s, c) in w {
                h.usize(s.0);
                h.f64(*c);
            }
        }
    }
    Fingerprint(h.finish())
}

/// Fingerprint of the whole solve instance: every ingress fingerprint,
/// every switch capacity, the options, and the objective — the placement
/// memo key. Two epochs with equal instance fingerprints have
/// byte-identical cold solves (for deterministic configurations), so
/// the memoized outcome substitutes exactly.
pub fn fingerprint_instance(
    instance: &Instance,
    objective: &Objective,
    options: &PlacementOptions,
) -> Fingerprint {
    let mut h = Fnv::new();
    let policies: Vec<_> = instance.policies().collect();
    h.usize(policies.len());
    for (ingress, _) in policies {
        h.u64(fingerprint_ingress(instance, ingress).0);
    }
    let caps = instance.topology().capacities();
    h.usize(caps.len());
    for c in caps {
        h.usize(c);
    }
    h.u64(fingerprint_options(options, objective).0);
    Fingerprint(h.finish())
}

/// Warm-path configuration, carried in
/// [`crate::ctrl-level options`](WarmConfig) and consumed by
/// [`WarmCache`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WarmConfig {
    /// Master switch. Off = every solve is cold (the cache becomes a
    /// no-op pass-through).
    pub enabled: bool,
    /// Persistent solver sessions across epochs (SAT learnt-clause
    /// retention via assumptions, ILP incumbent seeding + bound fixing).
    /// Weaker determinism contract — see the module docs. Off by
    /// default.
    pub sessions: bool,
    /// Placement-memo capacity (entries, FIFO eviction).
    pub memo_capacity: usize,
}

impl Default for WarmConfig {
    fn default() -> Self {
        WarmConfig {
            enabled: true,
            sessions: false,
            memo_capacity: 64,
        }
    }
}

/// Cumulative warm-path counters (all monotone except the
/// `sat_learnt_retained` gauge).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WarmStats {
    /// Placement-memo lookups (`memo_hits + memo_misses` always equals
    /// this — the telemetry invariant `tests/obs_invariants.rs` pins).
    pub memo_lookups: u64,
    /// Placement-memo hits (re-solves answered in O(1)).
    pub memo_hits: u64,
    /// Placement-memo misses (full solves that went to stage 3).
    pub memo_misses: u64,
    /// Memo entries evicted by the FIFO capacity bound.
    pub memo_evictions: u64,
    /// Dependency graphs served from cache.
    pub depgraphs_reused: u64,
    /// Dependency graphs built cold.
    pub depgraphs_built: u64,
    /// Per-ingress candidate sets served from cache.
    pub candidates_reused: u64,
    /// Per-ingress candidate sets built cold.
    pub candidates_built: u64,
    /// Solves answered by the persistent SAT session.
    pub sat_session_solves: u64,
    /// Learnt clauses carried into the most recent session solve (gauge).
    pub sat_learnt_retained: u64,
    /// ILP solves seeded with the previous epoch's placement.
    pub ilp_incumbent_seeded: u64,
    /// Placement variables bound-fixed for untouched ingresses
    /// (cumulative).
    pub ilp_vars_fixed: u64,
}

/// Upper bound on structural-cache entries before the cache is dropped
/// wholesale (a crude but deterministic bound; entries are small and the
/// working set of live policies is far below this).
const STRUCTURAL_CAP: usize = 1024;

type IngressCandidates = BTreeMap<RuleId, BTreeSet<SwitchId>>;

/// The epoch cache: structural caches, the placement memo, and (when
/// enabled) persistent solver sessions.
///
/// Interior-mutable so it threads through the existing `&self` solve
/// paths; it is a single-thread object (the parallel pipeline consults
/// it only from the coordinating thread).
///
/// The structural caches are [`FnvHashMap`]s, not `BTreeMap`s: they are
/// probed by fingerprint and never iterated, so iteration order cannot
/// leak into placements or telemetry (the DESIGN.md §16 hasher policy;
/// the 32-seed warm/obs differential suites pin this).
#[derive(Clone, Debug)]
pub struct WarmCache {
    config: WarmConfig,
    depgraphs: RefCell<FnvHashMap<Fingerprint, DependencyGraph>>,
    candidates: RefCell<FnvHashMap<Fingerprint, IngressCandidates>>,
    memo: RefCell<VecDeque<(Fingerprint, PlacementOutcome)>>,
    stats: RefCell<WarmStats>,
    session: RefCell<SessionState>,
}

impl Default for WarmCache {
    fn default() -> Self {
        WarmCache::new(WarmConfig::default())
    }
}

impl WarmCache {
    /// Creates a cache with the given configuration.
    pub fn new(config: WarmConfig) -> Self {
        WarmCache {
            config,
            depgraphs: RefCell::new(FnvHashMap::default()),
            candidates: RefCell::new(FnvHashMap::default()),
            memo: RefCell::new(VecDeque::new()),
            stats: RefCell::new(WarmStats::default()),
            session: RefCell::new(SessionState::default()),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &WarmConfig {
        &self.config
    }

    /// True if the warm path is active at all.
    pub fn enabled(&self) -> bool {
        self.config.enabled
    }

    /// True if persistent solver sessions are active.
    pub fn sessions_enabled(&self) -> bool {
        self.config.enabled && self.config.sessions
    }

    /// A snapshot of the counters.
    pub fn stats(&self) -> WarmStats {
        *self.stats.borrow()
    }

    /// Drops every cached artifact (structural caches, memo, sessions).
    /// Counters are kept — they describe history, not contents.
    pub fn clear(&self) {
        self.depgraphs.borrow_mut().clear();
        self.candidates.borrow_mut().clear();
        self.memo.borrow_mut().clear();
        *self.session.borrow_mut() = SessionState::default();
    }

    /// Cached dependency graph for `fp`, if present.
    pub(crate) fn depgraph_lookup(&self, fp: Fingerprint) -> Option<DependencyGraph> {
        let hit = self.depgraphs.borrow().get(&fp).cloned();
        let mut stats = self.stats.borrow_mut();
        match hit {
            Some(g) => {
                stats.depgraphs_reused += 1;
                Some(g)
            }
            None => {
                stats.depgraphs_built += 1;
                None
            }
        }
    }

    /// Stores a freshly built dependency graph.
    pub(crate) fn depgraph_store(&self, fp: Fingerprint, graph: &DependencyGraph) {
        let mut map = self.depgraphs.borrow_mut();
        if map.len() >= STRUCTURAL_CAP {
            map.clear();
        }
        map.insert(fp, graph.clone());
    }

    /// Cached per-ingress candidate set for `fp`, if present.
    pub(crate) fn candidates_lookup(&self, fp: Fingerprint) -> Option<IngressCandidates> {
        let hit = self.candidates.borrow().get(&fp).cloned();
        let mut stats = self.stats.borrow_mut();
        match hit {
            Some(c) => {
                stats.candidates_reused += 1;
                Some(c)
            }
            None => {
                stats.candidates_built += 1;
                None
            }
        }
    }

    /// Stores a freshly built per-ingress candidate set.
    pub(crate) fn candidates_store(&self, fp: Fingerprint, cands: &IngressCandidates) {
        let mut map = self.candidates.borrow_mut();
        if map.len() >= STRUCTURAL_CAP {
            map.clear();
        }
        map.insert(fp, cands.clone());
    }

    /// The memoized outcome of a previously solved instance, if any.
    pub(crate) fn memo_get(&self, fp: Fingerprint) -> Option<PlacementOutcome> {
        let hit = self
            .memo
            .borrow()
            .iter()
            .find(|(k, _)| *k == fp)
            .map(|(_, o)| o.clone());
        let mut stats = self.stats.borrow_mut();
        stats.memo_lookups += 1;
        match hit {
            Some(o) => {
                stats.memo_hits += 1;
                Some(o)
            }
            None => {
                stats.memo_misses += 1;
                None
            }
        }
    }

    /// Memoizes a solved instance. Timeout outcomes are never stored —
    /// they depend on wall clock, not on the instance.
    pub(crate) fn memo_put(&self, fp: Fingerprint, outcome: &PlacementOutcome) {
        if outcome.status == SolveStatus::Unknown || self.config.memo_capacity == 0 {
            return;
        }
        let mut memo = self.memo.borrow_mut();
        if memo.iter().any(|(k, _)| *k == fp) {
            return;
        }
        while memo.len() >= self.config.memo_capacity {
            memo.pop_front();
            self.stats.borrow_mut().memo_evictions += 1;
        }
        memo.push_back((fp, outcome.clone()));
    }

    /// Stage-3 solve with persistent solver sessions (the caller already
    /// missed the memo). Falls back to the cold engines internally for
    /// unsupported shapes; always concludes.
    pub(crate) fn session_solve(
        &self,
        instance: &Instance,
        objective: &Objective,
        options: &PlacementOptions,
        candidates: &CandidateMap,
        ingress_fps: &BTreeMap<EntryPortId, Fingerprint>,
    ) -> PlacementOutcome {
        let mut session = self.session.borrow_mut();
        let outcome = match options.engine {
            PlacerEngine::Ilp => {
                session.solve_ilp(self, instance, objective, options, candidates, ingress_fps)
            }
            PlacerEngine::Sat => {
                session.solve_sat(self, instance, options, candidates, ingress_fps)
            }
        };
        // Remember the placement for next epoch's incumbent seeding.
        if let Some(p) = &outcome.placement {
            session.ilp_prev = Some(IlpMemory {
                ingress_fps: ingress_fps.clone(),
                placement: p.clone(),
            });
        }
        outcome
    }

    fn bump(&self, f: impl FnOnce(&mut WarmStats)) {
        f(&mut self.stats.borrow_mut());
    }
}

/// Previous-epoch memory for ILP incumbent seeding.
#[derive(Clone, Debug)]
struct IlpMemory {
    ingress_fps: BTreeMap<EntryPortId, Fingerprint>,
    placement: Placement,
}

/// Persistent solver state across epochs.
#[derive(Clone, Debug, Default)]
struct SessionState {
    sat: Option<SatSession>,
    ilp_prev: Option<IlpMemory>,
}

impl SessionState {
    fn solve_ilp(
        &mut self,
        cache: &WarmCache,
        instance: &Instance,
        objective: &Objective,
        options: &PlacementOptions,
        candidates: &CandidateMap,
        ingress_fps: &BTreeMap<EntryPortId, Fingerprint>,
    ) -> PlacementOutcome {
        let (out, report) = ilp_seeded_solve(
            options,
            instance,
            objective,
            candidates,
            ingress_fps,
            self.ilp_prev.as_ref(),
        );
        cache.bump(|s| {
            s.ilp_incumbent_seeded += report.seeded as u64;
            s.ilp_vars_fixed += report.vars_fixed;
        });
        out
    }

    fn solve_sat(
        &mut self,
        cache: &WarmCache,
        instance: &Instance,
        options: &PlacementOptions,
        candidates: &CandidateMap,
        ingress_fps: &BTreeMap<EntryPortId, Fingerprint>,
    ) -> PlacementOutcome {
        if !sat_session_supported(options) {
            return place_sat_with(options, instance, candidates);
        }
        let mut session = self
            .sat
            .take()
            .unwrap_or_else(|| SatSession::with_options(options.sat));
        let (out, report) = session.solve(instance, candidates, ingress_fps);
        self.sat = Some(session);
        cache.bump(|s| {
            s.sat_session_solves += 1;
            s.sat_learnt_retained = report.learnt_retained;
        });
        out
    }
}

/// True if the persistent SAT session can encode this configuration.
/// Merging introduces cross-policy variables the delta encoder does not
/// version; such solves fall back to the cold SAT encoder.
fn sat_session_supported(options: &PlacementOptions) -> bool {
    !options.merging
}

/// What the ILP seeding pass did (folded into [`WarmStats`]).
#[derive(Clone, Copy, Debug, Default)]
struct SeedReport {
    seeded: bool,
    vars_fixed: u64,
}

/// ILP solve seeded from the previous epoch: the old placement becomes
/// the initial incumbent when still feasible, and variables of
/// fingerprint-identical ingresses are bound-fixed to their previous
/// values. A fixed solve that comes back infeasible (the freeze was too
/// aggressive — e.g. a capacity cut elsewhere needs an untouched ingress
/// to move) is retried unfixed, so feasibility is never lost. Solves
/// with any fixed variable report at most [`SolveStatus::Feasible`]:
/// the restricted search cannot prove global optimality.
fn ilp_seeded_solve(
    options: &PlacementOptions,
    instance: &Instance,
    objective: &Objective,
    candidates: &CandidateMap,
    ingress_fps: &BTreeMap<EntryPortId, Fingerprint>,
    prev: Option<&IlpMemory>,
) -> (PlacementOutcome, SeedReport) {
    let mut report = SeedReport::default();
    let Some(prev) = prev else {
        return (
            place_ilp_with(options, instance, objective, candidates),
            report,
        );
    };

    let start = Instant::now();
    let mut enc = IlpEncoding::build_with_candidates(
        instance,
        objective,
        &EncodeOptions {
            dependency: options.dependency,
            merging: options.merging,
            merge_linking: options.merge_linking,
        },
        candidates,
    );

    // Freeze every variable of an untouched ingress to its previous
    // value; only dirty ingresses stay free. This is sound per-ingress:
    // an unchanged fingerprint means unchanged policy, routes, and
    // therefore candidates, so the old per-ingress assignment still
    // satisfies its coverage and dependency rows. Cross-ingress capacity
    // rows may still reject the freeze — handled by the infeasible
    // fallback below.
    for (&(ingress, rule), switches) in candidates {
        let untouched = prev
            .ingress_fps
            .get(&ingress)
            .is_some_and(|f| ingress_fps.get(&ingress) == Some(f));
        if !untouched {
            continue;
        }
        for &s in switches {
            if let Some(v) = enc.var(ingress, rule, s) {
                let val = if prev.placement.is_placed(ingress, rule, s) {
                    1.0
                } else {
                    0.0
                };
                enc.model.fix_var(v, val);
                report.vars_fixed += 1;
            }
        }
    }

    let mut mip = options.mip.clone();
    // Incumbent seeding needs the *whole* previous placement to still
    // decode into the new encoding and satisfy it (it fails when a dirty
    // policy changed its rule set, or capacities shrank under the old
    // load); variable fixing above works regardless.
    if let Some(ws) = enc
        .warm_start(&prev.placement)
        .filter(|ws| enc.model.check_feasible(ws, 1e-6).is_ok())
    {
        report.seeded = true;
        mip.initial_solution = Some(ws);
    }
    let lazy = options.dependency == crate::DependencyEncoding::Lazy;
    let out = flowplace_milp::solve_mip_lazy(&enc.model, &mip, &mut |vals| {
        if lazy {
            enc.violated_dependencies(vals)
        } else {
            Vec::new()
        }
    });
    let status = match out.status {
        flowplace_milp::MipStatus::Optimal => {
            if report.vars_fixed > 0 {
                // Optimal of the *restricted* problem only.
                SolveStatus::Feasible
            } else {
                SolveStatus::Optimal
            }
        }
        flowplace_milp::MipStatus::Feasible => SolveStatus::Feasible,
        flowplace_milp::MipStatus::Infeasible => {
            // The freeze over-constrained the model; retry unrestricted.
            return (
                place_ilp_with(options, instance, objective, candidates),
                report,
            );
        }
        flowplace_milp::MipStatus::Unknown | flowplace_milp::MipStatus::Error => {
            SolveStatus::Unknown
        }
    };
    let placement = out.best.as_ref().map(|b| enc.decode(&b.values));
    (
        PlacementOutcome {
            placement,
            status,
            objective: out.best.as_ref().map(|b| b.objective),
            stats: PlacementStats {
                variables: enc.num_placement_vars,
                constraints: enc.model.num_constraints(),
                nodes: out.nodes,
                lp_iterations: out.lp_iterations,
                lazy_rows: out.lazy_rows_added,
                elapsed: start.elapsed(),
                sat: None,
            },
        },
        report,
    )
}

/// What a SAT session solve did (folded into [`WarmStats`]).
#[derive(Clone, Copy, Debug, Default)]
struct SatReport {
    learnt_retained: u64,
}

/// One ingress group inside the persistent SAT session: the encoding
/// version it was built from, the activation literal gating its clauses,
/// and its placement variables.
#[derive(Clone, Debug)]
struct SatGroup {
    fp: Fingerprint,
    act: Lit,
    vars: BTreeMap<(RuleId, SwitchId), Var>,
}

/// The persistent PB-SAT session: one long-lived [`Solver`] whose clause
/// database accumulates ingress-group encodings gated by activation
/// literals. Each epoch asserts (via assumptions) the activation
/// literals of the *current* encoding versions; superseded versions are
/// permanently disabled with a level-0 unit clause. Capacity PB rows are
/// likewise gated per epoch (big-M slack on the gate literal), because
/// they span all live variables and change whenever any group does.
/// Learnt clauses survive across epochs — they are implied by the clause
/// database alone, since assumptions enter the search as
/// pseudo-decisions.
#[derive(Clone, Debug, Default)]
struct SatSession {
    solver: Solver,
    groups: BTreeMap<EntryPortId, SatGroup>,
    /// Current capacity-row generation: fingerprint of (live variables,
    /// capacities) plus the gate literal that activates those rows.
    capacity: Option<(Fingerprint, Lit)>,
}

impl SatSession {
    /// A fresh session whose long-lived solver uses the given CDCL
    /// options. (`Default` keeps the solver's own defaults and is only
    /// used by tests.)
    fn with_options(sat: flowplace_pbsat::SolverOptions) -> Self {
        SatSession {
            solver: Solver::with_options(sat),
            groups: BTreeMap::new(),
            capacity: None,
        }
    }

    /// Encodes this epoch's delta and solves under assumptions.
    fn solve(
        &mut self,
        instance: &Instance,
        candidates: &CandidateMap,
        ingress_fps: &BTreeMap<EntryPortId, Fingerprint>,
    ) -> (PlacementOutcome, SatReport) {
        let start = Instant::now();
        let report = SatReport {
            learnt_retained: self.solver.stats().learnt_clauses,
        };

        // Per-ingress candidates, grouped for the delta encoder. The
        // group key folds the candidate content in: monitors restrict
        // candidates after assembly, and those restrictions must version
        // the group encoding too.
        let mut by_ingress: BTreeMap<EntryPortId, BTreeMap<RuleId, Vec<SwitchId>>> =
            BTreeMap::new();
        for (&(ingress, rule), switches) in candidates {
            by_ingress
                .entry(ingress)
                .or_default()
                .insert(rule, switches.iter().copied().collect());
        }

        let live: BTreeMap<EntryPortId, Fingerprint> = instance
            .policies()
            .map(|(ingress, _)| {
                let mut h = Fnv::new();
                h.u64(ingress_fps.get(&ingress).map(|f| f.0).unwrap_or(0));
                if let Some(rules) = by_ingress.get(&ingress) {
                    h.usize(rules.len());
                    for (rule, switches) in rules {
                        h.usize(rule.0);
                        h.usize(switches.len());
                        for s in switches {
                            h.usize(s.0);
                        }
                    }
                }
                (ingress, Fingerprint(h.finish()))
            })
            .collect();

        // Retire groups whose encoding no longer matches (policy/route/
        // candidate change) or whose ingress vanished.
        let stale: Vec<EntryPortId> = self
            .groups
            .iter()
            .filter(|(ingress, g)| live.get(ingress) != Some(&g.fp))
            .map(|(&ingress, _)| ingress)
            .collect();
        for ingress in stale {
            let g = self.groups.remove(&ingress).expect("listed above");
            // Permanently disable the retired version's clauses.
            self.solver.add_clause(&[!g.act]);
        }

        // Encode missing groups under fresh activation literals.
        for (&ingress, &fp) in &live {
            if self.groups.contains_key(&ingress) {
                continue;
            }
            let group = self.encode_group(instance, ingress, fp, by_ingress.get(&ingress));
            self.groups.insert(ingress, group);
        }

        // Capacity rows: regenerate when the live variable set or the
        // capacities changed; gate each generation on its own literal.
        let mut cap_h = Fnv::new();
        for c in instance.topology().capacities() {
            cap_h.usize(c);
        }
        for g in self.groups.values() {
            cap_h.u64(g.fp.0);
        }
        let cap_fp = Fingerprint(cap_h.finish());
        if self.capacity.as_ref().map(|(fp, _)| *fp) != Some(cap_fp) {
            if let Some((_, old_gate)) = self.capacity.take() {
                self.solver.add_clause(&[!old_gate]);
            }
            let gate = Lit::positive(self.solver.new_var());
            self.encode_capacity_rows(instance, gate);
            self.capacity = Some((cap_fp, gate));
        }

        // Assumptions: activate every live group and this epoch's
        // capacity rows.
        let mut assumptions: Vec<Lit> = self.groups.values().map(|g| g.act).collect();
        if let Some((_, gate)) = &self.capacity {
            assumptions.push(*gate);
        }

        let (placement, status) = match self.solver.solve_with_assumptions(&assumptions) {
            SatResult::Sat(model) => {
                let mut p = Placement::new();
                for (&ingress, group) in &self.groups {
                    for (&(rule, s), &v) in &group.vars {
                        if model.value(v) {
                            p.place(ingress, rule, s);
                        }
                    }
                }
                (Some(p), SolveStatus::Optimal)
            }
            SatResult::Unsat => (None, SolveStatus::Infeasible),
        };
        let stats = self.solver.stats();
        (
            PlacementOutcome {
                placement,
                status,
                objective: None,
                stats: PlacementStats {
                    variables: self.groups.values().map(|g| g.vars.len()).sum(),
                    constraints: 0,
                    nodes: stats.conflicts as usize,
                    lp_iterations: 0,
                    lazy_rows: 0,
                    elapsed: start.elapsed(),
                    sat: Some(stats),
                },
            },
            report,
        )
    }

    /// Encodes one ingress group (Eq. 6 dependency implications and Eq. 7
    /// per-path coverage, mirroring the cold encoder with merging off),
    /// gated on a fresh activation literal: every clause carries `¬act`,
    /// so the group is inert unless its literal is assumed.
    fn encode_group(
        &mut self,
        instance: &Instance,
        ingress: EntryPortId,
        fp: Fingerprint,
        rules: Option<&BTreeMap<RuleId, Vec<SwitchId>>>,
    ) -> SatGroup {
        let act = Lit::positive(self.solver.new_var());
        let mut vars: BTreeMap<(RuleId, SwitchId), Var> = BTreeMap::new();
        let Some(rules) = rules else {
            return SatGroup { fp, act, vars };
        };
        for (&rule, switches) in rules {
            for &s in switches {
                vars.insert((rule, s), self.solver.new_var());
            }
        }
        let policy = instance
            .policy(ingress)
            .expect("live ingress carries a policy");

        // Eq. 7: every sliced DROP covered on each of its paths.
        let mut seen_rows: BTreeSet<Vec<Lit>> = BTreeSet::new();
        for rid in instance.routes().paths_from(ingress) {
            let route = instance.routes().route(rid);
            for w in slicing::sliced_drop_rules(policy, route) {
                let mut row: Vec<Lit> = route
                    .switches
                    .iter()
                    .filter_map(|s| vars.get(&(w, *s)).map(|&v| Lit::positive(v)))
                    .collect();
                row.sort_unstable_by_key(|l| l.index());
                row.dedup();
                if row.is_empty() || !seen_rows.insert(row.clone()) {
                    continue;
                }
                row.push(!act);
                self.solver.add_clause(&row);
            }
        }

        // Eq. 6: a DROP on a switch drags its shield PERMITs there.
        let graph = DependencyGraph::build(policy);
        for (id, rule) in policy.iter() {
            if !rule.action().is_drop() {
                continue;
            }
            let deps = graph.permits_required_by(id);
            if deps.is_empty() {
                continue;
            }
            let Some(w_switches) = rules.get(&id) else {
                continue;
            };
            for &s in w_switches {
                let vw = vars[&(id, s)];
                for &u in deps {
                    let vu = vars[&(u, s)];
                    self.solver
                        .add_clause(&[!act, !Lit::positive(vw), Lit::positive(vu)]);
                }
            }
        }
        SatGroup { fp, act, vars }
    }

    /// Encodes this epoch's capacity rows over every live variable,
    /// slack-gated: `Σ x + M·gate ≤ cap + M`. Assuming the gate *true*
    /// adds `M` on the left, so the row binds as `Σ x ≤ cap`; with the
    /// gate false (a retired generation, killed by a `¬gate` unit) the
    /// row is trivially satisfied.
    fn encode_capacity_rows(&mut self, instance: &Instance, gate: Lit) {
        let mut per_switch: BTreeMap<SwitchId, Vec<Lit>> = BTreeMap::new();
        for group in self.groups.values() {
            for (&(_, s), &v) in &group.vars {
                per_switch.entry(s).or_default().push(Lit::positive(v));
            }
        }
        for (s, lits) in per_switch {
            let cap = instance.topology().capacity(s) as u64;
            let m = lits.len() as u64;
            if cap >= m {
                continue; // can never bind
            }
            let mut terms: Vec<(u64, Lit)> = lits.into_iter().map(|l| (1, l)).collect();
            terms.push((m, gate));
            self.solver.add_pb_le(&terms, cap + m);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowplace_acl::{Action, Ternary};
    use flowplace_routing::{Route, RouteSet};
    use flowplace_topo::Topology;

    fn t(s: &str) -> Ternary {
        Ternary::parse(s).unwrap()
    }

    fn small_instance(capacity: usize) -> Instance {
        let mut topo = Topology::linear(3);
        topo.set_uniform_capacity(capacity);
        let mut routes = RouteSet::new();
        routes.push(Route::new(
            EntryPortId(0),
            EntryPortId(1),
            vec![SwitchId(0), SwitchId(1), SwitchId(2)],
        ));
        let policy =
            Policy::from_ordered(vec![(t("11**"), Action::Permit), (t("1***"), Action::Drop)])
                .unwrap();
        Instance::new(topo, routes, vec![(EntryPortId(0), policy)]).unwrap()
    }

    #[test]
    fn policy_fingerprint_sensitive_to_rules() {
        let a = Policy::from_ordered(vec![(t("1***"), Action::Drop)]).unwrap();
        let b = Policy::from_ordered(vec![(t("0***"), Action::Drop)]).unwrap();
        let c = Policy::from_ordered(vec![(t("1***"), Action::Permit)]).unwrap();
        assert_ne!(fingerprint_policy(&a), fingerprint_policy(&b));
        assert_ne!(fingerprint_policy(&a), fingerprint_policy(&c));
        assert_eq!(fingerprint_policy(&a), fingerprint_policy(&a.clone()));
    }

    #[test]
    fn ingress_fingerprint_sensitive_to_routes_not_capacity() {
        let inst = small_instance(4);
        let fp = fingerprint_ingress(&inst, EntryPortId(0));
        // Capacity change: same ingress fingerprint (candidates are
        // capacity-independent)…
        let recap = small_instance(2);
        assert_eq!(fp, fingerprint_ingress(&recap, EntryPortId(0)));
        // …but a different instance fingerprint (solves differ).
        let opts = PlacementOptions::default();
        let obj = Objective::TotalRules;
        assert_ne!(
            fingerprint_instance(&inst, &obj, &opts),
            fingerprint_instance(&recap, &obj, &opts)
        );
        // Route change: different ingress fingerprint.
        let mut routes = RouteSet::new();
        routes.push(Route::new(
            EntryPortId(0),
            EntryPortId(1),
            vec![SwitchId(0), SwitchId(1)],
        ));
        let rerouted = inst.with_routes(routes).unwrap();
        assert_ne!(fp, fingerprint_ingress(&rerouted, EntryPortId(0)));
    }

    #[test]
    fn instance_fingerprint_sensitive_to_options_and_objective() {
        let inst = small_instance(4);
        let base = PlacementOptions::default();
        let obj = Objective::TotalRules;
        let fp = fingerprint_instance(&inst, &obj, &base);
        let merged = PlacementOptions {
            merging: true,
            ..base.clone()
        };
        assert_ne!(fp, fingerprint_instance(&inst, &obj, &merged));
        assert_ne!(
            fp,
            fingerprint_instance(&inst, &Objective::DistanceWeighted, &base)
        );
        assert_eq!(fp, fingerprint_instance(&inst, &obj, &base.clone()));
    }

    #[test]
    fn memo_round_trip_and_eviction() {
        let cache = WarmCache::new(WarmConfig {
            memo_capacity: 2,
            ..WarmConfig::default()
        });
        let outcome = PlacementOutcome {
            placement: Some(Placement::new()),
            status: SolveStatus::Optimal,
            objective: Some(0.0),
            stats: PlacementStats::default(),
        };
        cache.memo_put(Fingerprint(1), &outcome);
        cache.memo_put(Fingerprint(2), &outcome);
        cache.memo_put(Fingerprint(3), &outcome); // evicts 1 (FIFO)
        assert!(cache.memo_get(Fingerprint(1)).is_none());
        assert!(cache.memo_get(Fingerprint(2)).is_some());
        assert!(cache.memo_get(Fingerprint(3)).is_some());
        let stats = cache.stats();
        assert_eq!(stats.memo_hits, 2);
        assert_eq!(stats.memo_misses, 1);
        assert_eq!(stats.memo_lookups, stats.memo_hits + stats.memo_misses);
        assert_eq!(stats.memo_evictions, 1);
    }

    #[test]
    fn memo_never_stores_timeouts() {
        let cache = WarmCache::default();
        let outcome = PlacementOutcome {
            placement: None,
            status: SolveStatus::Unknown,
            objective: None,
            stats: PlacementStats::default(),
        };
        cache.memo_put(Fingerprint(9), &outcome);
        assert!(cache.memo_get(Fingerprint(9)).is_none());
    }

    #[test]
    fn sat_session_matches_cold_verdicts_across_epochs() {
        let options = PlacementOptions::default();
        let mut session = SatSession::default();
        // Epoch 1: feasible instance.
        let inst = small_instance(4);
        let candidates = crate::candidates::build_candidates(&inst);
        let fps: BTreeMap<EntryPortId, Fingerprint> = inst
            .policies()
            .map(|(l, _)| (l, fingerprint_ingress(&inst, l)))
            .collect();
        let (out, report) = session.solve(&inst, &candidates, &fps);
        let p = out.placement.expect("feasible");
        let cold = place_sat_with(&options, &inst, &candidates);
        assert_eq!(out.status, cold.status);
        // Both are valid placements of the same instance.
        assert!(crate::verify::verify_placement(&inst, &p, 64, 0xBEEF).is_ok());

        // Epoch 2: capacity cut to zero — infeasible; groups are reused,
        // only capacity rows regenerate.
        let tight = small_instance(0);
        let candidates2 = crate::candidates::build_candidates(&tight);
        let fps2: BTreeMap<EntryPortId, Fingerprint> = tight
            .policies()
            .map(|(l, _)| (l, fingerprint_ingress(&tight, l)))
            .collect();
        assert_eq!(fps, fps2, "capacity does not dirty the ingress");
        let (out2, _) = session.solve(&tight, &candidates2, &fps2);
        assert_eq!(out2.status, SolveStatus::Infeasible);

        // Epoch 3: capacity restored — feasible again, with the learnt
        // clauses from both prior epochs still in the database.
        let (out3, report3) = session.solve(&inst, &candidates, &fps);
        assert!(out3.placement.is_some());
        assert!(report3.learnt_retained >= report.learnt_retained);
        assert!(
            crate::verify::verify_placement(&inst, &out3.placement.unwrap(), 64, 0xBEEF).is_ok()
        );
    }

    #[test]
    fn sat_session_tracks_policy_change() {
        let mut session = SatSession::default();
        let inst = small_instance(4);
        let candidates = crate::candidates::build_candidates(&inst);
        let fps: BTreeMap<EntryPortId, Fingerprint> = inst
            .policies()
            .map(|(l, _)| (l, fingerprint_ingress(&inst, l)))
            .collect();
        session.solve(&inst, &candidates, &fps);
        assert_eq!(session.groups.len(), 1);
        let old_act = session.groups[&EntryPortId(0)].act;

        // Swap the policy: the group must be retired and re-encoded.
        let mut topo = Topology::linear(3);
        topo.set_uniform_capacity(4);
        let mut routes = RouteSet::new();
        routes.push(Route::new(
            EntryPortId(0),
            EntryPortId(1),
            vec![SwitchId(0), SwitchId(1), SwitchId(2)],
        ));
        let policy =
            Policy::from_ordered(vec![(t("00**"), Action::Permit), (t("0***"), Action::Drop)])
                .unwrap();
        let changed = Instance::new(topo, routes, vec![(EntryPortId(0), policy)]).unwrap();
        let candidates2 = crate::candidates::build_candidates(&changed);
        let fps2: BTreeMap<EntryPortId, Fingerprint> = changed
            .policies()
            .map(|(l, _)| (l, fingerprint_ingress(&changed, l)))
            .collect();
        let (out, _) = session.solve(&changed, &candidates2, &fps2);
        assert_ne!(session.groups[&EntryPortId(0)].act, old_act);
        let p = out.placement.expect("feasible");
        assert!(crate::verify::verify_placement(&changed, &p, 64, 0xF00D).is_ok());
    }

    #[test]
    fn ilp_seeding_freezes_untouched_and_stays_feasible() {
        let inst = small_instance(4);
        let options = PlacementOptions::default();
        let obj = Objective::TotalRules;
        let candidates = crate::candidates::build_candidates(&inst);
        let fps: BTreeMap<EntryPortId, Fingerprint> = inst
            .policies()
            .map(|(l, _)| (l, fingerprint_ingress(&inst, l)))
            .collect();
        let cold = place_ilp_with(&options, &inst, &obj, &candidates);
        let prev = IlpMemory {
            ingress_fps: fps.clone(),
            placement: cold.placement.clone().unwrap(),
        };
        let (seeded, report) =
            ilp_seeded_solve(&options, &inst, &obj, &candidates, &fps, Some(&prev));
        assert!(report.seeded);
        assert!(report.vars_fixed > 0);
        // Everything untouched ⇒ the frozen solve returns the previous
        // placement verbatim, reported as Feasible (restricted search).
        assert_eq!(seeded.status, SolveStatus::Feasible);
        assert_eq!(seeded.placement, cold.placement);
        assert_eq!(seeded.objective, cold.objective);
    }

    #[test]
    fn ilp_seeding_falls_back_when_seed_infeasible() {
        let inst = small_instance(4);
        let options = PlacementOptions::default();
        let obj = Objective::TotalRules;
        let candidates = crate::candidates::build_candidates(&inst);
        let fps: BTreeMap<EntryPortId, Fingerprint> = inst
            .policies()
            .map(|(l, _)| (l, fingerprint_ingress(&inst, l)))
            .collect();
        let cold = place_ilp_with(&options, &inst, &obj, &candidates);

        // Capacity cut to 1 invalidates the old 2-rule-on-one-switch
        // placement; the seeder must detect it and solve cold.
        let tight = small_instance(1);
        let tight_c = crate::candidates::build_candidates(&tight);
        let prev = IlpMemory {
            ingress_fps: fps.clone(),
            placement: cold.placement.unwrap(),
        };
        let (out, report) = ilp_seeded_solve(&options, &tight, &obj, &tight_c, &fps, Some(&prev));
        assert!(!report.seeded, "stale seed rejected");
        let direct = place_ilp_with(&options, &tight, &obj, &tight_c);
        assert_eq!(out.status, direct.status);
        assert_eq!(out.placement, direct.placement);
    }
}
