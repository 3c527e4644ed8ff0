//! The experiment generators (one per table/figure of §V).

use std::time::{Duration, Instant};

use flowplace_core::{
    incremental, verify, DependencyEncoding, MergeLinking, Objective, PlacementOptions,
    PlacerEngine, RulePlacer, SolveStatus,
};
use flowplace_milp::MipOptions;
use flowplace_rng::StdRng;

use flowplace_routing::shortest;
use flowplace_topo::EntryPortId;

use crate::scenario::{build_instance, ScenarioConfig};

/// Budget per individual solve in full runs, in simplex iterations:
/// what 25 s bought on the recording machine on A4's hardest row
/// (k = 4, C = 60, n = 45, seed 23). A larger model pays more per
/// iteration, a smaller one less; the cut itself is the same anywhere.
pub const FULL_ITERATION_LIMIT: usize = 130_000;
/// Budget per individual solve in quick (CI) runs: a fifth of the full.
pub const QUICK_ITERATION_LIMIT: usize = 26_000;

/// One measured solve.
#[derive(Clone, Debug)]
pub struct SolveRow {
    /// Series label (e.g. `k=4 C=60` or an encoding name).
    pub label: String,
    /// Rules per policy `n`.
    pub n: usize,
    /// Total paths `p`.
    pub paths: usize,
    /// Switch capacity `C`.
    pub capacity: usize,
    /// Instance seed.
    pub seed: u64,
    /// Outcome status.
    pub status: SolveStatus,
    /// Solve wall-clock time.
    pub elapsed: Duration,
    /// Objective (total rules) when solved.
    pub objective: Option<f64>,
    /// Placement variables in the model.
    pub vars: usize,
    /// Constraint rows.
    pub rows: usize,
    /// Branch-and-bound nodes (or SAT conflicts).
    pub nodes: usize,
}

/// Experiment-wide default placer options: lazy dependency rows (the
/// model would otherwise be dominated by Eq. 1 rows), a greedy warm
/// start, mirroring how one would drive a modern ILP solver, and the
/// quick or full per-solve budget.
pub fn default_options(quick: bool) -> PlacementOptions {
    PlacementOptions {
        dependency: DependencyEncoding::Lazy,
        greedy_warm_start: true,
        mip: MipOptions {
            iteration_limit: Some(if quick {
                QUICK_ITERATION_LIMIT
            } else {
                FULL_ITERATION_LIMIT
            }),
            ..MipOptions::default()
        },
        ..PlacementOptions::default()
    }
}

/// Runs one instance and measures it. Feasible outcomes are verified
/// against the golden model when `verify_solutions` is set.
pub fn run_point(
    label: impl Into<String>,
    cfg: &ScenarioConfig,
    options: &PlacementOptions,
    verify_solutions: bool,
) -> SolveRow {
    let instance = build_instance(cfg);
    let t = Instant::now();
    let outcome = RulePlacer::new(options.clone()).place(&instance, Objective::TotalRules);
    let elapsed = t.elapsed();
    if verify_solutions {
        if let Some(p) = &outcome.placement {
            verify::verify_placement(&instance, p, 8, cfg.seed)
                .expect("solver output must preserve policy semantics");
        }
    }
    SolveRow {
        label: label.into(),
        n: cfg.rules_per_policy + cfg.shared_rules,
        paths: cfg.total_paths(),
        capacity: cfg.capacity,
        seed: cfg.seed,
        status: outcome.status,
        elapsed,
        // The objective is always `TotalRules`; the SAT engine, which
        // optimises nothing, reports none of its own.
        objective: outcome
            .objective
            .or_else(|| outcome.placement.as_ref().map(|p| p.total_rules() as f64)),
        vars: outcome.stats.variables,
        rows: outcome.stats.constraints,
        nodes: outcome.stats.nodes,
    }
}

/// The three network sizes of Figures 7, 8, 9, scaled from the paper's
/// k ∈ {8, 16, 32} to k ∈ {4, 6, 8}: `(k, ingresses, paths_per_ingress,
/// C_small, C_large)`.
pub const EXP1_NETWORKS: [(usize, usize, usize, usize, usize); 3] =
    [(4, 8, 2, 60, 240), (6, 10, 2, 60, 260), (8, 12, 2, 60, 280)];

/// Figures 7/8/9: execution time vs rules per policy, for three network
/// sizes and a small/large capacity each.
pub fn exp1_rules(quick: bool) -> Vec<SolveRow> {
    let (networks, ns): (&[_], Vec<usize>) = if quick {
        (&EXP1_NETWORKS[..1], vec![8, 16])
    } else {
        (&EXP1_NETWORKS[..], (20..=110).step_by(10).collect())
    };
    let options = default_options(quick);
    let mut rows = Vec::new();
    for &(k, ingresses, ppi, c_small, c_large) in networks {
        for &capacity in &[c_small, c_large] {
            for &n in &ns {
                let cfg = ScenarioConfig {
                    k,
                    ingresses: if quick { 4 } else { ingresses },
                    paths_per_ingress: ppi,
                    rules_per_policy: n,
                    shared_rules: 0,
                    capacity,
                    seed: 7,
                };
                let label = format!("k={k} C={capacity}");
                rows.push(run_point(label, &cfg, &options, !quick));
            }
        }
    }
    rows
}

/// Figure 10: execution time vs number of paths (k=4 analog of the
/// paper's k=8, r=100), for a tight and a loose capacity.
pub fn exp2_paths(quick: bool) -> Vec<SolveRow> {
    let ppis: &[usize] = if quick {
        &[1, 2]
    } else {
        &[1, 2, 3, 4, 5, 6, 7, 8]
    };
    let options = default_options(quick);
    let mut rows = Vec::new();
    for &capacity in &[50usize, 150] {
        for &ppi in ppis {
            let cfg = ScenarioConfig {
                k: 4,
                ingresses: if quick { 4 } else { 8 },
                paths_per_ingress: ppi,
                rules_per_policy: if quick { 12 } else { 40 },
                shared_rules: 0,
                capacity,
                seed: 3,
            };
            rows.push(run_point(format!("C={capacity}"), &cfg, &options, !quick));
        }
    }
    rows
}

/// One Table II cell.
#[derive(Clone, Debug)]
pub struct MergeRow {
    /// Number of mergeable (shared blacklist) rules.
    pub shared: usize,
    /// Switch capacity.
    pub capacity: usize,
    /// Whether merging was enabled.
    pub merging: bool,
    /// Outcome status.
    pub status: SolveStatus,
    /// Total rules installed (`B`), when feasible.
    pub total_rules: Option<usize>,
    /// Duplication overhead `(B−A)/A`, when feasible.
    pub overhead: Option<f64>,
    /// Solve time.
    pub elapsed: Duration,
}

/// Table II capacities, scaled from the paper's 65/70/75.
pub const EXP3_CAPACITIES: [usize; 3] = [15, 16, 17];

/// Table II: rule merging — capacity vs duplication overhead, with and
/// without merging, as the number of shared blacklist rules grows.
pub fn exp3_merging(quick: bool) -> Vec<MergeRow> {
    let shared_counts: Vec<usize> = if quick { vec![2] } else { (1..=10).collect() };
    let mut rows = Vec::new();
    for &capacity in &EXP3_CAPACITIES {
        for &shared in &shared_counts {
            for merging in [false, true] {
                let cfg = ScenarioConfig {
                    k: 4,
                    ingresses: if quick { 4 } else { 8 },
                    paths_per_ingress: 2,
                    rules_per_policy: if quick { 6 } else { 10 }, // paper: 20, scaled
                    shared_rules: shared,
                    capacity,
                    seed: 11,
                };
                let mut options = default_options(quick);
                options.merging = merging;
                let instance = build_instance(&cfg);
                let t = Instant::now();
                let outcome = RulePlacer::new(options).place(&instance, Objective::TotalRules);
                let elapsed = t.elapsed();
                let placement = outcome.placement;
                if !quick {
                    if let Some(p) = &placement {
                        verify::verify_placement(&instance, p, 8, 11)
                            .expect("solver output must preserve policy semantics");
                    }
                }
                rows.push(MergeRow {
                    shared,
                    capacity,
                    merging,
                    status: outcome.status,
                    total_rules: placement.as_ref().map(|p| p.total_rules()),
                    overhead: placement
                        .as_ref()
                        .map(|p| p.duplication_overhead(&instance)),
                    elapsed,
                });
            }
        }
    }
    rows
}

/// Figure 11: execution time vs per-switch rule capacity
/// (the under/over-constrained phase transition).
pub fn exp4_capacity(quick: bool) -> Vec<SolveRow> {
    let capacities: &[usize] = if quick {
        &[10, 200]
    } else {
        &[10, 20, 30, 40, 50, 60, 70, 80, 100, 120, 160, 200, 240]
    };
    let options = default_options(quick);
    let mut rows = Vec::new();
    for &capacity in capacities {
        let cfg = ScenarioConfig {
            k: 4,
            ingresses: if quick { 4 } else { 8 },
            paths_per_ingress: 2,
            rules_per_policy: if quick { 12 } else { 40 },
            shared_rules: 0,
            capacity,
            seed: 5,
        };
        rows.push(run_point(format!("C={capacity}"), &cfg, &options, !quick));
    }
    rows
}

/// One incremental-deployment measurement.
#[derive(Clone, Debug)]
pub struct IncRow {
    /// Operation kind (`install` or `reroute`).
    pub op: &'static str,
    /// Scale (policies added / policies rerouted).
    pub scale: usize,
    /// Outcome of the restricted sub-solve.
    pub status: SolveStatus,
    /// Incremental solve time.
    pub elapsed: Duration,
    /// Time of the initial full solve (for comparison).
    pub full_solve: Duration,
}

/// Experiment 5: incremental deployment. Solve a base configuration,
/// compute spare capacity, then (a) install batches of new tenant
/// policies and (b) reroute batches of existing policies, measuring the
/// restricted solves against the full solve.
pub fn exp5_incremental(quick: bool) -> Vec<IncRow> {
    let options = default_options(quick);
    let base_cfg = ScenarioConfig {
        k: 4,
        ingresses: if quick { 4 } else { 8 },
        paths_per_ingress: 2,
        rules_per_policy: if quick { 8 } else { 35 },
        shared_rules: 0,
        capacity: 160,
        seed: 13,
    };
    let instance = build_instance(&base_cfg);
    let t0 = Instant::now();
    let outcome = RulePlacer::new(options.clone()).place(&instance, Objective::TotalRules);
    let full_solve = t0.elapsed();
    let placement = outcome.placement.expect("base configuration is feasible");

    let generator =
        flowplace_classbench::Generator::new(flowplace_classbench::Profile::Firewall, 16)
            .with_seed(77);
    let mut rows = Vec::new();

    // (a) Install new policies: paper adds 64/128/256 policies of 100
    // rules with one path each; scaled to 2/4/8 of 20 rules.
    let install_scales: &[usize] = if quick { &[2] } else { &[2, 4, 8] };
    for &scale in install_scales {
        let mut rng = StdRng::seed_from_u64(99);
        let mut additions = Vec::new();
        for j in 0..scale {
            let ingress = EntryPortId(base_cfg.ingresses + j);
            let egress = EntryPortId(15 - (j % 4));
            let route = shortest::shortest_path(instance.topology(), ingress, egress, &mut rng)
                .expect("fat-tree is connected");
            let rules = if quick { 8 } else { 35 };
            additions.push((
                ingress,
                generator.policy(rules, 1000 + j as u64),
                vec![route],
            ));
        }
        let t = Instant::now();
        let out = incremental::install_policies(
            &instance,
            &placement,
            additions,
            &options,
            Objective::TotalRules,
        )
        .expect("ingresses are fresh");
        rows.push(IncRow {
            op: "install",
            scale,
            status: out.status,
            elapsed: t.elapsed(),
            full_solve,
        });
    }

    // (b) Reroute existing policies: paper modifies 1/16/32, scaled to
    // 1/2/4.
    let reroute_scales: &[usize] = if quick { &[1] } else { &[1, 2, 4] };
    for &scale in reroute_scales {
        let mut inst = instance.clone();
        let mut plc = placement.clone();
        let mut total = Duration::ZERO;
        let mut status = SolveStatus::Optimal;
        let mut rng = StdRng::seed_from_u64(123);
        for j in 0..scale {
            let ingress = EntryPortId(j);
            let mut new_routes = Vec::new();
            for egress in [EntryPortId(12 + j % 4), EntryPortId(8 + j % 4)] {
                if let Some(r) = shortest::shortest_path(inst.topology(), ingress, egress, &mut rng)
                {
                    new_routes.push(r);
                }
            }
            let t = Instant::now();
            let out = incremental::reroute_policy(
                &inst,
                &plc,
                ingress,
                new_routes,
                &options,
                Objective::TotalRules,
            )
            .expect("ingress has a policy");
            total += t.elapsed();
            status = out.status;
            if let Some(p) = out.placement {
                inst = out.instance;
                plc = p;
            } else {
                break;
            }
        }
        rows.push(IncRow {
            op: "reroute",
            scale,
            status,
            elapsed: total,
            full_solve,
        });
    }
    rows
}

/// One rule-sharing measurement (§V closing claim: placed rules ≪ p·r).
#[derive(Clone, Debug)]
pub struct SharingRow {
    /// Paths in the instance.
    pub paths: usize,
    /// Rules per policy.
    pub n: usize,
    /// Rules actually installed (`B`).
    pub placed: usize,
    /// The naive all-rules-on-all-paths count (`p × r`).
    pub naive: usize,
}

/// §V sharing claim: the optimizer's total is a small fraction of the
/// `p × r` a placement-per-path scheme (the paper's description of its
/// reference \[1\]) would install.
pub fn exp6_sharing(quick: bool) -> Vec<SharingRow> {
    let ppis: &[usize] = if quick { &[2] } else { &[1, 2, 4, 8] };
    let options = default_options(quick);
    let mut rows = Vec::new();
    for &ppi in ppis {
        let cfg = ScenarioConfig {
            k: 4,
            ingresses: if quick { 4 } else { 8 },
            paths_per_ingress: ppi,
            rules_per_policy: if quick { 10 } else { 25 },
            shared_rules: 0,
            capacity: 150,
            seed: 19,
        };
        let instance = build_instance(&cfg);
        let outcome = RulePlacer::new(options.clone()).place(&instance, Objective::TotalRules);
        if let Some(p) = outcome.placement {
            rows.push(SharingRow {
                paths: cfg.total_paths(),
                n: cfg.rules_per_policy,
                placed: p.total_rules(),
                naive: cfg.total_paths() * cfg.rules_per_policy,
            });
        }
    }
    rows
}

/// Ablation A1: the three Equation 1 encodings on one instance family.
pub fn ablate_dependency(quick: bool) -> Vec<SolveRow> {
    let ns: &[usize] = if quick { &[8] } else { &[20, 40, 60] };
    let mut rows = Vec::new();
    for &n in ns {
        for (name, dep) in [
            ("pairwise", DependencyEncoding::Pairwise),
            ("aggregated", DependencyEncoding::Aggregated),
            ("lazy", DependencyEncoding::Lazy),
        ] {
            let cfg = ScenarioConfig {
                k: 4,
                ingresses: if quick { 4 } else { 8 },
                paths_per_ingress: 2,
                rules_per_policy: n,
                shared_rules: 0,
                capacity: 60,
                seed: 23,
            };
            let mut options = default_options(quick);
            options.dependency = dep;
            rows.push(run_point(name, &cfg, &options, false));
        }
    }
    rows
}

/// Ablation: ILP vs the PB-SAT engine for feasibility-only queries (the
/// paper's §IV-D future work, implemented and measured here).
pub fn ablate_sat_vs_ilp(quick: bool) -> Vec<SolveRow> {
    let ns: &[usize] = if quick { &[8] } else { &[20, 40, 60, 80] };
    let mut rows = Vec::new();
    for &n in ns {
        let cfg = ScenarioConfig {
            k: 4,
            ingresses: if quick { 4 } else { 8 },
            paths_per_ingress: 2,
            rules_per_policy: n,
            shared_rules: 0,
            capacity: 60,
            seed: 29,
        };
        // ILP (optimizing).
        rows.push(run_point("ilp", &cfg, &default_options(quick), false));
        // PB-SAT (feasibility only).
        let sat = PlacementOptions {
            engine: PlacerEngine::Sat,
            ..PlacementOptions::default()
        };
        rows.push(run_point("pbsat", &cfg, &sat, false));
    }
    rows
}

/// Ablation A3: merge-variable linking on the Table II family — the
/// per-member AND linearization against the paper's literal Eq. 5 — as
/// the number of shared (mergeable) rules grows.
pub fn ablate_merge_linking(quick: bool) -> Vec<SolveRow> {
    let shared_counts: &[usize] = if quick { &[2] } else { &[2, 4, 6] };
    let mut rows = Vec::new();
    for &shared in shared_counts {
        for (name, linking) in [
            ("per-member", MergeLinking::PerMember),
            ("eq5", MergeLinking::Aggregated),
        ] {
            let cfg = ScenarioConfig {
                k: 4,
                ingresses: if quick { 4 } else { 8 },
                paths_per_ingress: 2,
                rules_per_policy: if quick { 6 } else { 10 },
                shared_rules: shared,
                capacity: 34,
                seed: 23,
            };
            let mut options = default_options(quick);
            options.merging = true;
            options.merge_linking = linking;
            rows.push(run_point(name, &cfg, &options, !quick));
        }
    }
    rows
}

/// Ablation A4: the greedy warm-start incumbent on and off, on the
/// Figure 7 family around its hard band (k=4, C=60).
pub fn ablate_warm_start(quick: bool) -> Vec<SolveRow> {
    let (ns, seeds): (&[usize], &[u64]) = if quick {
        (&[8], &[7])
    } else {
        (&[20, 30, 35, 40, 45], &[7, 23, 29])
    };
    let mut rows = Vec::new();
    for &n in ns {
        for &seed in seeds {
            for (name, warm) in [("greedy-warm", true), ("cold", false)] {
                let cfg = ScenarioConfig {
                    k: 4,
                    ingresses: if quick { 4 } else { 8 },
                    paths_per_ingress: 2,
                    rules_per_policy: n,
                    shared_rules: 0,
                    capacity: 60,
                    seed,
                };
                let mut options = default_options(quick);
                options.greedy_warm_start = warm;
                rows.push(run_point(name, &cfg, &options, !quick));
            }
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_exp1_produces_rows() {
        let rows = exp1_rules(true);
        assert_eq!(rows.len(), 4); // 1 network × 2 capacities × 2 ns
        for r in &rows {
            assert!(r.vars > 0);
        }
    }

    #[test]
    fn quick_exp3_has_both_merge_arms() {
        let rows = exp3_merging(true);
        assert!(rows.iter().any(|r| r.merging));
        assert!(rows.iter().any(|r| !r.merging));
    }

    #[test]
    fn quick_exp5_reports_speedup_data() {
        let rows = exp5_incremental(true);
        assert_eq!(rows.len(), 2);
        for r in &rows {
            assert!(r.full_solve > Duration::ZERO);
        }
    }

    #[test]
    fn quick_exp6_sharing_below_naive() {
        let rows = exp6_sharing(true);
        assert!(!rows.is_empty());
        for r in &rows {
            assert!(r.placed < r.naive, "{} !< {}", r.placed, r.naive);
        }
    }

    #[test]
    fn quick_ablations_cover_all_arms() {
        let dep = ablate_dependency(true);
        assert_eq!(dep.len(), 3);
        let sat = ablate_sat_vs_ilp(true);
        assert_eq!(sat.len(), 2);
        for (rows, arms) in [
            (ablate_merge_linking(true), ["per-member", "eq5"]),
            (ablate_warm_start(true), ["greedy-warm", "cold"]),
        ] {
            for arm in arms {
                assert!(rows.iter().any(|r| r.label == arm), "no {arm} row");
            }
            for r in &rows {
                let solved = matches!(r.status, SolveStatus::Optimal | SolveStatus::Feasible);
                assert_eq!(r.objective.is_some(), solved, "{r:?}");
            }
        }
    }
}
