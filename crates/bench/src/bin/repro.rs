//! Regenerates every table and figure of the paper's evaluation.
//!
//! ```text
//! cargo run --release -p flowplace-bench --bin repro -- [<experiment>… | all] [--quick]
//! ```
//!
//! Experiments are the names in [`EXPERIMENTS`]; none, or `all`, runs
//! every one. Results are printed as ASCII tables and written as CSV
//! files under `results/` (`results/quick/` with `--quick`).

use std::fs;

use flowplace_bench::experiments::{self, SolveRow};
use flowplace_bench::report;

struct Experiment {
    /// Sub-command name.
    name: &'static str,
    heading: &'static str,
    /// File stem of the CSV under the results directory.
    csv: &'static str,
    /// Runs the sweep (`true` = quick) and renders its rows as
    /// (ASCII table, CSV).
    run: fn(bool) -> (String, String),
}

/// Every experiment, in the order `all` runs them.
const EXPERIMENTS: [Experiment; 10] = [
    Experiment {
        name: "exp1",
        heading: "Experiment 1 (Figures 7/8/9): runtime vs rules per policy",
        csv: "exp1_rules",
        run: |q| solve_rows(experiments::exp1_rules(q), "n"),
    },
    Experiment {
        name: "exp2",
        heading: "Experiment 2 (Figure 10): runtime vs number of paths",
        csv: "exp2_paths",
        run: |q| solve_rows(experiments::exp2_paths(q), "paths"),
    },
    Experiment {
        name: "exp3",
        heading: "Experiment 3 (Table II): capacity vs overhead in rule merging",
        csv: "exp3_merging",
        run: |q| {
            let rows = experiments::exp3_merging(q);
            (
                report::merge_rows_table(&rows),
                report::merge_rows_csv(&rows),
            )
        },
    },
    Experiment {
        name: "exp4",
        heading: "Experiment 4 (Figure 11): runtime vs per-switch capacity",
        csv: "exp4_capacity",
        run: |q| solve_rows(experiments::exp4_capacity(q), "capacity"),
    },
    Experiment {
        name: "exp5",
        heading: "Experiment 5: incremental deployment",
        csv: "exp5_incremental",
        run: |q| {
            let rows = experiments::exp5_incremental(q);
            (report::inc_rows_table(&rows), report::inc_rows_csv(&rows))
        },
    },
    Experiment {
        name: "exp6",
        heading: "Rule sharing (§V closing claim): placed rules vs p×r",
        csv: "exp6_sharing",
        run: |q| {
            let rows = experiments::exp6_sharing(q);
            (
                report::sharing_rows_table(&rows),
                report::sharing_rows_csv(&rows),
            )
        },
    },
    Experiment {
        name: "ablate-deps",
        heading: "Ablation: Equation 1 dependency encodings",
        csv: "ablate_deps",
        run: |q| solve_rows(experiments::ablate_dependency(q), "n"),
    },
    Experiment {
        name: "ablate-sat",
        heading: "Ablation: ILP vs PB-SAT feasibility",
        csv: "ablate_sat",
        run: |q| solve_rows(experiments::ablate_sat_vs_ilp(q), "n"),
    },
    Experiment {
        name: "ablate-merge-linking",
        heading: "Ablation: merge-variable linking, per-member vs Eq. 5",
        csv: "ablate_merge_linking",
        run: |q| solve_rows(experiments::ablate_merge_linking(q), "n"),
    },
    Experiment {
        name: "ablate-warm-start",
        heading: "Ablation: greedy warm start on vs off",
        csv: "ablate_warm_start",
        run: |q| solve_rows(experiments::ablate_warm_start(q), "n"),
    },
];

fn solve_rows(rows: Vec<SolveRow>, x_axis: &str) -> (String, String) {
    (
        report::solve_rows_table(&rows, x_axis),
        report::solve_rows_csv(&rows),
    )
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // Every token is checked before the first solve: a typo must not
    // cost a full sweep or overwrite a recorded CSV.
    let mut quick = false;
    let mut all = false;
    let mut chosen = Vec::new();
    for arg in &args {
        match arg.as_str() {
            "--quick" => quick = true,
            "all" => all = true,
            name => match EXPERIMENTS.iter().find(|e| e.name == name) {
                Some(e) => chosen.push(e),
                None => {
                    let names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
                    eprintln!("unknown argument `{name}`");
                    eprintln!("usage: repro [{} | all] [--quick]", names.join(" | "));
                    std::process::exit(2);
                }
            },
        }
    }
    if all || chosen.is_empty() {
        chosen = EXPERIMENTS.iter().collect();
    }
    // Quick (smoke-test) runs must not clobber a recorded full run.
    let out_dir = if quick { "results/quick" } else { "results" };
    fs::create_dir_all(out_dir).expect("can create results dir");

    for e in chosen {
        println!("== {} ==", e.heading);
        let (table, csv) = (e.run)(quick);
        print!("{table}");
        let path = format!("{out_dir}/{}.csv", e.csv);
        fs::write(&path, csv).expect("can write results file");
        println!("wrote {path}\n");
    }
}
