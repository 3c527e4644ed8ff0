//! Deterministic parallel solve pipeline.
//!
//! The optimize path splits into three stages; the two construction
//! stages are parallelized with std scoped threads (no external
//! dependencies):
//!
//! 1. **Dependency graphs** — one [`DependencyGraph`] per ingress policy,
//!    built across worker threads ([`build_depgraphs`]).
//! 2. **Candidates** — per-ingress candidate switch sets, each DROP's
//!    with its dependency list copied from stage 1's graph, built across
//!    worker threads and merged into one [`CandidateMap`]
//!    ([`build_candidates_par`]).
//! 3. **Solve** — the engine named by [`PlacementOptions::engine`], run
//!    to its verdict on the calling thread ([`solve`]). Both encoders
//!    read the dependency lists from the candidates and build no graph.
//!
//! Given a warm cache, [`solve`] first looks the whole instance up in
//! the placement memo ([`crate::warm`]): a hit returns before stage 1,
//! a miss runs all three stages, exactly as without the cache.
//!
//! # Determinism contract
//!
//! The pipeline's output is byte-identical for any thread count, the
//! serial `threads: 1` included. Two rules make this hold:
//!
//! - **Merge-order rule.** Per-ingress partial results are merged by
//!   *ingress id* (into ordered `BTreeMap`s keyed by ingress), never by
//!   thread completion order. Worker scheduling can vary freely; the
//!   merged maps cannot.
//! - **One code path.** There is no separate serial solve: at one
//!   thread the stages iterate the same pure per-ingress functions in
//!   place, and stage 3 is the same encode/solve code, fed the
//!   (identical) merged candidates.

use std::collections::BTreeMap;

use flowplace_topo::EntryPortId;

use crate::candidates::{candidates_for_ingress, CandidateMap};
use crate::depgraph::DependencyGraph;
use crate::placement::{place_ilp_with, place_sat_with};
use crate::warm::{self, WarmCache};
use crate::{Instance, Objective, PlacementOptions, PlacementOutcome, PlacerEngine};
use flowplace_obs::Obs;

/// Parallel-pipeline configuration, carried in
/// [`PlacementOptions::parallel`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ParallelConfig {
    /// Worker threads for the construction stages. `0` means auto-detect
    /// ([`std::thread::available_parallelism`]); `1` (the default) is the
    /// serial path.
    pub threads: usize,
}

impl Default for ParallelConfig {
    fn default() -> Self {
        ParallelConfig { threads: 1 }
    }
}

impl ParallelConfig {
    /// The concrete worker count (`0` resolved to the machine's
    /// available parallelism, min 1).
    pub fn effective_threads(&self) -> usize {
        match self.threads {
            0 => std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            n => n,
        }
    }

    /// True if this configuration departs from the plain serial path.
    pub fn is_parallel(&self) -> bool {
        self.effective_threads() > 1
    }
}

/// Where the returned outcome came from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Provenance {
    /// The configured engine ran to its verdict.
    Single(PlacerEngine),
    /// No engine ran: the warm cache memoized an identical instance
    /// (same policies, routes, capacities, options, and objective) and
    /// the stored outcome was returned in O(1).
    Memo,
}

impl std::fmt::Display for Provenance {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = |e: &PlacerEngine| match e {
            PlacerEngine::Ilp => "ilp",
            PlacerEngine::Sat => "sat",
        };
        match self {
            Provenance::Single(e) => write!(f, "single:{}", name(e)),
            Provenance::Memo => write!(f, "memo"),
        }
    }
}

/// Result of the staged pipeline: the placement outcome plus provenance.
#[derive(Clone, Debug)]
pub struct ParOutcome {
    /// The placement outcome (same type the serial facade returns).
    pub outcome: PlacementOutcome,
    /// Which engine answered, or that the memo did.
    pub provenance: Provenance,
}

/// Splits `items` into at most `threads` contiguous chunks, maps each
/// chunk on its own scoped thread, and returns the per-item results
/// flattened back into *input order* — the merge-order rule: output
/// position is decided by input position, never by completion order.
fn map_chunked<T, R, F>(items: Vec<T>, threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    if threads <= 1 || items.len() <= 1 {
        return items.iter().map(&f).collect();
    }
    let chunk_len = items.len().div_ceil(threads);
    let mut results: Vec<R> = Vec::with_capacity(items.len());
    std::thread::scope(|s| {
        let handles: Vec<_> = items
            .chunks(chunk_len)
            .map(|chunk| s.spawn(|| chunk.iter().map(&f).collect::<Vec<R>>()))
            .collect();
        // Joining in spawn order reassembles input order regardless of
        // which worker finished first.
        for h in handles {
            results.extend(h.join().expect("pipeline worker panicked"));
        }
    });
    results
}

/// Stage 1: builds the dependency graph of every ingress policy across
/// `threads` workers. Keyed by ingress id, so the merged map is
/// independent of scheduling.
pub fn build_depgraphs(
    instance: &Instance,
    threads: usize,
) -> BTreeMap<EntryPortId, DependencyGraph> {
    let policies: Vec<_> = instance.policies().collect();
    let graphs = map_chunked(policies, threads, |&(ingress, policy)| {
        (ingress, DependencyGraph::build(policy))
    });
    graphs.into_iter().collect()
}

/// Stage 2: builds the candidate map from precomputed dependency graphs
/// across `threads` workers, merged in ingress-id order.
pub fn build_candidates_par(
    instance: &Instance,
    graphs: &BTreeMap<EntryPortId, DependencyGraph>,
    threads: usize,
) -> CandidateMap {
    let work: Vec<(EntryPortId, &DependencyGraph)> =
        graphs.iter().map(|(&ingress, g)| (ingress, g)).collect();
    let per_ingress = map_chunked(work, threads, |&(ingress, graph)| {
        (ingress, candidates_for_ingress(instance, ingress, graph))
    });
    let mut map = CandidateMap::new();
    for (ingress, rules) in per_ingress {
        for (rule, entry) in rules {
            map.insert((ingress, rule), entry);
        }
    }
    map
}

/// Records the deterministic solve telemetry for one pipeline run: the
/// per-provenance solve counter, the search-effort histogram (nodes for
/// ILP, conflicts for SAT — the reproducible latency proxy; see the
/// `flowplace-obs` determinism rules), and the cumulative engine-effort
/// counters.
fn record_solve_metrics(obs: &Obs, provenance: Provenance, outcome: &PlacementOutcome) {
    let tag = provenance.to_string();
    let labels: &[(&str, &str)] = &[("provenance", tag.as_str())];
    obs.metrics.counter_add_with("pipeline.solves", labels, 1);
    if provenance == Provenance::Memo {
        return;
    }
    let stats = &outcome.stats;
    obs.metrics
        .observe_with("pipeline.solve_cost", labels, stats.nodes as u64);
    obs.metrics
        .counter_add_with("solver.nodes", labels, stats.nodes as u64);
    obs.metrics
        .counter_add_with("solver.lp_iterations", labels, stats.lp_iterations as u64);
    obs.metrics
        .counter_add_with("solver.lazy_rows", labels, stats.lazy_rows as u64);
    obs.metrics
        .gauge_set_with("solver.variables", labels, stats.variables as i64);
    obs.metrics
        .gauge_set_with("solver.constraints", labels, stats.constraints as i64);
    // CDCL internals, present only for SAT-engine outcomes. Like
    // `solver.nodes` these mirror the outcome's stats verbatim; all are
    // derived from integer solver counters, so dumps stay
    // byte-reproducible.
    if let Some(sat) = stats.sat {
        obs.metrics
            .counter_add_with("solver.sat.conflicts", labels, sat.conflicts);
        obs.metrics
            .counter_add_with("solver.sat.restarts", labels, sat.restarts);
        obs.metrics
            .counter_add_with("solver.sat.blocked_restarts", labels, sat.blocked_restarts);
        obs.metrics
            .counter_add_with("solver.sat.db_reductions", labels, sat.db_reductions);
        obs.metrics
            .counter_add_with("solver.sat.learnt", labels, sat.learnt_clauses);
        obs.metrics
            .counter_add_with("solver.sat.learnt_deleted", labels, sat.learnt_deleted);
        obs.metrics.gauge_set_with(
            "solver.sat.mean_lbd_milli",
            labels,
            (sat.mean_lbd() * 1000.0) as i64,
        );
    }
}

/// What a solve may consult and report to besides its inputs;
/// `SolveCtx::default()` is the cold, unobserved solve.
#[derive(Clone, Copy, Default)]
pub struct SolveCtx<'a> {
    /// Warm cache to consult and fill (see [`crate::warm`]); `None` or a
    /// disabled cache is the cold path.
    pub warm: Option<&'a WarmCache>,
    /// Telemetry sink (see `flowplace-obs`).
    pub obs: Option<&'a Obs>,
}

/// Runs the full staged pipeline: dependency graphs, candidates, then
/// the solve by `options.engine`. This is the one solve entry point —
/// [`crate::RulePlacer::place`] and the [`crate::incremental`]
/// sub-solves all call it.
///
/// With `ctx.warm`, the whole solve is first looked up in the placement
/// memo (hit ⇒ [`Provenance::Memo`] in O(1)); a miss runs all three
/// stages, exactly as the cold path does, and memoizes the outcome. A
/// memo hit is byte-identical to a cold solve because the key covers
/// every input of the solve.
///
/// With `ctx.obs`, the pipeline records a `"pipeline"` span with one
/// child per stage (`pipeline.depgraphs`, `pipeline.candidates`,
/// `pipeline.solve`) plus the solve counters/histograms keyed by
/// [`Provenance`]. Only deterministic quantities (span ticks, search
/// effort) are recorded — never wall time, so dumps diff clean across
/// same-seed runs.
pub fn solve(
    instance: &Instance,
    objective: Objective,
    options: &PlacementOptions,
    ctx: SolveCtx<'_>,
) -> ParOutcome {
    let obs = ctx.obs;
    let cache = ctx.warm.filter(|c| c.enabled());
    let threads = options.parallel.effective_threads();

    let root = obs.map(|o| o.spans.enter("pipeline"));
    if let Some(span) = &root {
        span.attr("ingresses", instance.policies().count());
    }

    // O(1) short-circuit: an identical instance was already solved.
    let instance_fp = cache.map(|c| {
        let fp = warm::fingerprint_instance(instance, &objective, options);
        (c, fp)
    });
    if let Some((c, fp)) = instance_fp {
        if let Some(outcome) = c.memo_get(fp) {
            if let (Some(span), Some(o)) = (&root, obs) {
                span.attr("provenance", Provenance::Memo.to_string());
                record_solve_metrics(o, Provenance::Memo, &outcome);
            }
            return ParOutcome {
                outcome,
                provenance: Provenance::Memo,
            };
        }
    }

    let stage = obs.map(|o| o.spans.enter("pipeline.depgraphs"));
    let graphs = build_depgraphs(instance, threads);
    if let Some(span) = &stage {
        span.attr("graphs", graphs.len());
    }
    drop(stage);

    let stage = obs.map(|o| o.spans.enter("pipeline.candidates"));
    let candidates = build_candidates_par(instance, &graphs, threads);
    // The candidates carry every dependency list the encoders read.
    drop(graphs);
    if let Some(span) = &stage {
        span.attr("ingresses", candidates.len());
    }
    drop(stage);

    let stage = obs.map(|o| o.spans.enter("pipeline.solve"));
    let provenance = Provenance::Single(options.engine);
    let outcome = match options.engine {
        PlacerEngine::Ilp => place_ilp_with(options, instance, &objective, &candidates),
        PlacerEngine::Sat => place_sat_with(options, instance, &candidates),
    };
    if let Some(span) = &stage {
        span.attr("provenance", provenance.to_string());
        span.attr("status", outcome.status.to_string());
        span.attr("nodes", outcome.stats.nodes);
    }
    drop(stage);

    if let Some((c, fp)) = instance_fp {
        c.memo_put(fp, &outcome);
    }

    if let Some(span) = &root {
        span.attr("provenance", provenance.to_string());
    }
    if let Some(o) = obs {
        record_solve_metrics(o, provenance, &outcome);
    }

    ParOutcome {
        outcome,
        provenance,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidates::build_candidates;
    use crate::SolveStatus;
    use flowplace_acl::{Action, Policy, Ternary};
    use flowplace_routing::{Route, RouteSet};
    use flowplace_topo::{SwitchId, Topology};

    fn t(s: &str) -> Ternary {
        Ternary::parse(s).unwrap()
    }

    /// A small instance with several ingresses so the chunked stages
    /// actually split work.
    fn multi_ingress_instance() -> Instance {
        let mut topo = Topology::star(4);
        topo.set_uniform_capacity(16);
        let mut routes = RouteSet::new();
        let mut policies = Vec::new();
        for i in 0..4usize {
            let ingress = EntryPortId(i);
            let egress = EntryPortId((i + 1) % 4);
            routes.push(Route::new(
                ingress,
                egress,
                vec![SwitchId(i + 1), SwitchId(0), SwitchId((i + 1) % 4 + 1)],
            ));
            let policy = Policy::from_ordered(vec![
                (t("11**"), Action::Permit),
                (t("1***"), Action::Drop),
                (t("0101"), Action::Drop),
            ])
            .unwrap();
            policies.push((ingress, policy));
        }
        Instance::new(topo, routes, policies).unwrap()
    }

    #[test]
    fn parallel_stages_match_serial_construction() {
        let inst = multi_ingress_instance();
        for threads in [1, 2, 3, 8] {
            let graphs = build_depgraphs(&inst, threads);
            assert_eq!(graphs.len(), 4);
            for (ingress, policy) in inst.policies() {
                assert_eq!(graphs[&ingress], DependencyGraph::build(policy));
            }
            let cand = build_candidates_par(&inst, &graphs, threads);
            assert_eq!(cand, build_candidates(&inst), "threads={threads}");
        }
    }

    #[test]
    fn pipeline_matches_serial_place() {
        let inst = multi_ingress_instance();
        let serial =
            crate::RulePlacer::new(PlacementOptions::default()).place(&inst, Objective::TotalRules);
        let mut options = PlacementOptions {
            parallel: ParallelConfig { threads: 4 },
            ..PlacementOptions::default()
        };
        let par = solve(&inst, Objective::TotalRules, &options, SolveCtx::default());
        assert_eq!(par.provenance, Provenance::Single(PlacerEngine::Ilp));
        assert_eq!(par.outcome.placement, serial.placement);
        assert_eq!(par.outcome.status, serial.status);
        // The facade is the same pipeline at whatever thread count.
        options.parallel.threads = 3;
        let routed = crate::RulePlacer::new(options).place(&inst, Objective::TotalRules);
        assert_eq!(routed.placement, serial.placement);
    }

    #[test]
    fn effective_threads_resolves_auto() {
        let auto = ParallelConfig { threads: 0 };
        assert!(auto.effective_threads() >= 1);
        assert!(auto.is_parallel() || auto.effective_threads() == 1);
        assert!(!ParallelConfig::default().is_parallel());
    }

    #[test]
    fn provenance_display() {
        assert_eq!(
            Provenance::Single(PlacerEngine::Ilp).to_string(),
            "single:ilp"
        );
        assert_eq!(
            Provenance::Single(PlacerEngine::Sat).to_string(),
            "single:sat"
        );
        assert_eq!(Provenance::Memo.to_string(), "memo");
    }

    #[test]
    fn warm_pipeline_matches_cold_and_memoizes() {
        let inst = multi_ingress_instance();
        let options = PlacementOptions::default();
        let cold = solve(&inst, Objective::TotalRules, &options, SolveCtx::default());
        let cache = crate::WarmCache::default();
        let ctx = SolveCtx {
            warm: Some(&cache),
            obs: None,
        };

        // First warm solve: the memo misses, result identical to cold.
        let first = solve(&inst, Objective::TotalRules, &options, ctx);
        assert_eq!(first.outcome, cold.outcome);
        assert_eq!(first.provenance, cold.provenance);

        // Second warm solve of the identical instance: memo hit, O(1).
        let second = solve(&inst, Objective::TotalRules, &options, ctx);
        assert_eq!(second.provenance, Provenance::Memo);
        assert_eq!(second.outcome, cold.outcome);

        let stats = cache.stats();
        assert_eq!(stats.memo_hits, 1);
        assert_eq!(stats.memo_misses, 1);
    }

    #[test]
    fn budget_cut_ilp_outcome_is_memoized() {
        let inst = multi_ingress_instance();
        let cache = crate::WarmCache::default();
        let ctx = SolveCtx {
            warm: Some(&cache),
            obs: None,
        };
        // A zero budget stops branch & bound before its first node: with
        // the greedy warm start it returns that incumbent unproven,
        // without it nothing at all. Either cut is the instance's.
        for (greedy_warm_start, status) in
            [(true, SolveStatus::Feasible), (false, SolveStatus::Unknown)]
        {
            let mut options = PlacementOptions {
                greedy_warm_start,
                ..PlacementOptions::default()
            };
            options.mip.iteration_limit = Some(0);
            let cold = solve(&inst, Objective::TotalRules, &options, SolveCtx::default());
            assert_eq!(cold.outcome.status, status);
            let first = solve(&inst, Objective::TotalRules, &options, ctx);
            assert_eq!(first.provenance, Provenance::Single(PlacerEngine::Ilp));
            let again = solve(&inst, Objective::TotalRules, &options, ctx);
            assert_eq!(again.provenance, Provenance::Memo);
            assert_eq!(again.outcome, cold.outcome);
        }
    }
}
