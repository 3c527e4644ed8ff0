//! Experiment harness reproducing the paper's evaluation (§V).
//!
//! Every table and figure in the paper has a generator here, run by the
//! `repro` binary (full parameter sweeps, CSV + ASCII output):
//!
//! | paper artifact | function |
//! |---|---|
//! | Fig. 7/8/9 (runtime vs #rules, three network sizes) | [`experiments::exp1_rules`] |
//! | Fig. 10 (runtime vs #paths) | [`experiments::exp2_paths`] |
//! | Table II (merging capacity vs overhead) | [`experiments::exp3_merging`] |
//! | Fig. 11 (runtime vs switch capacity) | [`experiments::exp4_capacity`] |
//! | Experiment 5 (incremental deployment) | [`experiments::exp5_incremental`] |
//! | §V rule-sharing claim (`B ≪ p·r`) | [`experiments::exp6_sharing`] |
//! | A1 ablation: dependency encodings | [`experiments::ablate_dependency`] |
//! | A2 ablation: ILP vs PB-SAT feasibility | [`experiments::ablate_sat_vs_ilp`] |
//! | A3 ablation: merge linking, per-member vs Eq. 5 | [`experiments::ablate_merge_linking`] |
//! | A4 ablation: greedy warm start on vs off | [`experiments::ablate_warm_start`] |
//!
//! Scaling: the paper drives CPLEX on fat-trees up to k=32 with 1024
//! paths (≈500K ILP variables); our from-scratch MILP substrate runs the
//! same model families at proportionally scaled sizes (see DESIGN.md §2
//! and EXPERIMENTS.md for the factor bookkeeping). The *shapes* the paper
//! reports — the over-constrained cliff, the capacity phase transition,
//! merging turning infeasible instances feasible — are reproduced.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod experiments;
pub mod report;
pub mod scenario;
