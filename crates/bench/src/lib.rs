//! Experiment harness reproducing the paper's evaluation (§V).
//!
//! Every table and figure in the paper has a generator here, exposed both
//! through the `repro` binary (full parameter sweeps, CSV + ASCII output)
//! and through Criterion benches (small representative points):
//!
//! | paper artifact | function | bench target |
//! |---|---|---|
//! | Fig. 7/8/9 (runtime vs #rules, three network sizes) | [`experiments::exp1_rules`] | `exp1_rules` |
//! | Fig. 10 (runtime vs #paths) | [`experiments::exp2_paths`] | `exp2_paths` |
//! | Table II (merging capacity vs overhead) | [`experiments::exp3_merging`] | `exp3_merging` |
//! | Fig. 11 (runtime vs switch capacity) | [`experiments::exp4_capacity`] | `exp4_capacity` |
//! | Experiment 5 (incremental deployment) | [`experiments::exp5_incremental`] | `exp5_incremental` |
//! | §V rule-sharing claim (`B ≪ p·r`) | [`experiments::exp6_sharing`] | — |
//! | ablation: dependency encodings | [`experiments::ablate_dependency`] | `ablate_dep_encoding` |
//! | ablation: ILP vs PB-SAT feasibility | [`experiments::ablate_sat_vs_ilp`] | `ablate_sat_vs_ilp` |
//!
//! Scaling: the paper drives CPLEX on fat-trees up to k=32 with 1024
//! paths (≈500K ILP variables); our from-scratch MILP substrate runs the
//! same model families at proportionally scaled sizes (see DESIGN.md §2
//! and EXPERIMENTS.md for the factor bookkeeping). The *shapes* the paper
//! reports — the over-constrained cliff, the capacity phase transition,
//! merging turning infeasible instances feasible — are reproduced.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod harness;
pub mod report;
pub mod scenario;

pub use scenario::{build_instance, ScenarioConfig};
