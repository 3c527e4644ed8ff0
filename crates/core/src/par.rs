//! The solve pipeline: three stages, run in order on the calling thread.
//!
//! 1. **Dependency graphs** — one [`DependencyGraph`] per ingress policy
//!    ([`build_depgraphs`]).
//! 2. **Candidates** — per-ingress candidate switch sets, each DROP's
//!    with its dependency list copied from stage 1's graph, merged into
//!    one [`CandidateMap`] in ingress-id order ([`build_candidates_par`]).
//! 3. **Solve** — the engine named by [`PlacementOptions::engine`], run
//!    to its verdict ([`solve`]). Both encoders read the dependency lists
//!    from the candidates and build no graph.
//!
//! Every stage is a function of the instance and options alone, so a
//! solve repeats byte for byte.

use std::collections::BTreeMap;

use flowplace_topo::EntryPortId;

use crate::candidates::{candidates_for_ingress, CandidateMap};
use crate::depgraph::DependencyGraph;
use crate::placement::{place_ilp_with, place_sat_with};
use crate::{Instance, Objective, PlacementOptions, PlacementOutcome, PlacerEngine};
use flowplace_obs::Obs;

/// Stage 1: builds the dependency graph of every ingress policy, keyed
/// by ingress id. `_threads` is ignored — every stage runs on the
/// calling thread — and stays only until the system benchmark, which
/// passes one, stops doing so.
pub fn build_depgraphs(
    instance: &Instance,
    _threads: usize,
) -> BTreeMap<EntryPortId, DependencyGraph> {
    instance
        .policies()
        .map(|(ingress, policy)| (ingress, DependencyGraph::build(policy)))
        .collect()
}

/// Stage 2: builds the candidate map from stage 1's dependency graphs.
/// `_threads` is ignored, as in [`build_depgraphs`].
pub fn build_candidates_par(
    instance: &Instance,
    graphs: &BTreeMap<EntryPortId, DependencyGraph>,
    _threads: usize,
) -> CandidateMap {
    // Ingress by ingress, rule by rule: already in key order, so the map
    // is built in one pass.
    let entries = graphs.iter().flat_map(|(&ingress, graph)| {
        let per_rule = candidates_for_ingress(instance, ingress, graph).into_iter();
        per_rule.map(move |(rule, entry)| ((ingress, rule), entry))
    });
    entries.collect()
}

/// The `provenance` label of a solve's span and metrics: the engine that
/// answered.
fn provenance(engine: PlacerEngine) -> &'static str {
    match engine {
        PlacerEngine::Ilp => "single:ilp",
        PlacerEngine::Sat => "single:sat",
    }
}

/// Records the deterministic solve telemetry for one pipeline run: the
/// per-provenance solve counter, the search-effort histogram (nodes for
/// ILP, conflicts for SAT — the reproducible latency proxy; see the
/// `flowplace-obs` determinism rules), and the cumulative engine-effort
/// counters.
fn record_solve_metrics(obs: &Obs, engine: PlacerEngine, outcome: &PlacementOutcome) {
    let labels: &[(&str, &str)] = &[("provenance", provenance(engine))];
    obs.metrics.counter_add("pipeline.solves", labels, 1);
    let stats = &outcome.stats;
    obs.metrics
        .observe("pipeline.solve_cost", labels, stats.nodes as u64);
    obs.metrics
        .counter_add("solver.nodes", labels, stats.nodes as u64);
    obs.metrics
        .counter_add("solver.lp_iterations", labels, stats.lp_iterations as u64);
    obs.metrics
        .counter_add("solver.lazy_rows", labels, stats.lazy_rows as u64);
    obs.metrics
        .gauge_set("solver.variables", labels, stats.variables as i64);
    obs.metrics
        .gauge_set("solver.constraints", labels, stats.constraints as i64);
    // CDCL internals, present only for SAT-engine outcomes. Like
    // `solver.nodes` these mirror the outcome's stats verbatim; all are
    // derived from integer solver counters, so dumps stay
    // byte-reproducible.
    if let Some(sat) = stats.sat {
        obs.metrics
            .counter_add("solver.sat.conflicts", labels, sat.conflicts);
        obs.metrics
            .counter_add("solver.sat.restarts", labels, sat.restarts);
        obs.metrics
            .counter_add("solver.sat.blocked_restarts", labels, sat.blocked_restarts);
        obs.metrics
            .counter_add("solver.sat.db_reductions", labels, sat.db_reductions);
        obs.metrics
            .counter_add("solver.sat.learnt", labels, sat.learnt_clauses);
        obs.metrics
            .counter_add("solver.sat.learnt_deleted", labels, sat.learnt_deleted);
        obs.metrics.gauge_set(
            "solver.sat.mean_lbd_milli",
            labels,
            (sat.mean_lbd() * 1000.0) as i64,
        );
    }
}

/// Runs the staged pipeline: dependency graphs, candidates, then the
/// solve by `options.engine`, minimizing `objective` (the SAT engine
/// ignores it and returns any feasible placement). This is the one solve
/// entry point: whole-instance solves and the [`crate::incremental`]
/// sub-solves all call it. Infeasibility is reported via
/// [`PlacementOutcome::status`].
///
/// With `obs`, the pipeline records a `"pipeline"` span with one child
/// per stage (`pipeline.depgraphs`, `pipeline.candidates`,
/// `pipeline.solve`) plus the solve counters/histograms labelled with
/// the engine. Only deterministic quantities (span ticks, search effort)
/// are recorded — never wall time, so dumps diff clean across same-seed
/// runs.
pub fn solve(
    instance: &Instance,
    objective: Objective,
    options: &PlacementOptions,
    obs: Option<&Obs>,
) -> PlacementOutcome {
    let root = obs.map(|o| o.spans.enter("pipeline"));
    if let Some(span) = &root {
        span.attr("ingresses", instance.policies().count());
    }

    let stage = obs.map(|o| o.spans.enter("pipeline.depgraphs"));
    let graphs = build_depgraphs(instance, 1);
    if let Some(span) = &stage {
        span.attr("graphs", graphs.len());
    }
    drop(stage);

    let stage = obs.map(|o| o.spans.enter("pipeline.candidates"));
    let candidates = build_candidates_par(instance, &graphs, 1);
    // The candidates carry every dependency list the encoders read.
    drop(graphs);
    if let Some(span) = &stage {
        span.attr("ingresses", candidates.len());
    }
    drop(stage);

    let stage = obs.map(|o| o.spans.enter("pipeline.solve"));
    let outcome = match options.engine {
        PlacerEngine::Ilp => place_ilp_with(options, instance, &objective, &candidates),
        PlacerEngine::Sat => place_sat_with(options, instance, &candidates),
    };
    if let Some(span) = &stage {
        span.attr("provenance", provenance(options.engine));
        span.attr("status", outcome.status);
        span.attr("nodes", outcome.stats.nodes);
    }
    drop(stage);

    if let Some(span) = &root {
        span.attr("provenance", provenance(options.engine));
    }
    if let Some(o) = obs {
        record_solve_metrics(o, options.engine, &outcome);
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowplace_acl::{Action, Policy, Ternary};
    use flowplace_routing::{Route, RouteSet};
    use flowplace_topo::{SwitchId, Topology};

    fn t(s: &str) -> Ternary {
        Ternary::parse(s).unwrap()
    }

    /// A small instance with several ingresses.
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
    fn observed_solve_labels_its_engine() {
        let inst = multi_ingress_instance();
        let options = PlacementOptions::default();
        let obs = Obs::new();
        let observed = solve(&inst, Objective::TotalRules, &options, Some(&obs));
        assert_eq!(
            observed,
            solve(&inst, Objective::TotalRules, &options, None)
        );
        let labels: &[(&str, &str)] = &[("provenance", "single:ilp")];
        assert_eq!(obs.metrics.counter_value("pipeline.solves", labels), 1);
    }
}
