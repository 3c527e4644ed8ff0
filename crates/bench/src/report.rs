//! CSV and ASCII rendering of experiment results.

use std::fmt::Write as _;

use flowplace_core::SolveStatus;

use crate::experiments::{IncRow, MergeRow, SharingRow, SolveRow};

fn status_str(s: SolveStatus) -> &'static str {
    match s {
        SolveStatus::Optimal => "optimal",
        SolveStatus::Feasible => "feasible",
        SolveStatus::Infeasible => "infeasible",
        SolveStatus::Unknown => "limit",
    }
}

/// CSV for [`SolveRow`] sweeps (Figures 7–11 and the ablations).
pub fn solve_rows_csv(rows: &[SolveRow]) -> String {
    let mut out = String::from("label,n,paths,capacity,seed,status,ms,objective,vars,rows,nodes\n");
    for r in rows {
        let _ = writeln!(
            out,
            "{},{},{},{},{},{},{:.3},{},{},{},{}",
            r.label,
            r.n,
            r.paths,
            r.capacity,
            r.seed,
            status_str(r.status),
            r.elapsed.as_secs_f64() * 1000.0,
            r.objective.map(|o| o.to_string()).unwrap_or_default(),
            r.vars,
            r.rows,
            r.nodes
        );
    }
    out
}

/// ASCII summary of a [`SolveRow`] sweep: one line per (label, x) with
/// mean runtime over seeds — the textual form of the paper's log-scale
/// runtime plots.
pub fn solve_rows_table(rows: &[SolveRow], x_axis: &str) -> String {
    let mut out = format!(
        "{:<16} {:>6} {:>12} {:>12} {:>10}\n",
        "series", x_axis, "mean ms", "objective", "status"
    );
    // Group by (label, x) preserving insertion order.
    let mut keys: Vec<(String, usize)> = Vec::new();
    for r in rows {
        let x = x_of(r, x_axis);
        if !keys.contains(&(r.label.clone(), x)) {
            keys.push((r.label.clone(), x));
        }
    }
    for (label, x) in keys {
        let group: Vec<&SolveRow> = rows
            .iter()
            .filter(|r| r.label == label && x_of(r, x_axis) == x)
            .collect();
        let mean_ms = group
            .iter()
            .map(|r| r.elapsed.as_secs_f64() * 1000.0)
            .sum::<f64>()
            / group.len() as f64;
        let obj = group.iter().filter_map(|r| r.objective).next();
        let status = summarize_statuses(&group);
        let _ = writeln!(
            out,
            "{:<16} {:>6} {:>12.2} {:>12} {:>10}",
            label,
            x,
            mean_ms,
            obj.map(|o| format!("{o:.0}")).unwrap_or_else(|| "-".into()),
            status
        );
    }
    out
}

fn x_of(r: &SolveRow, x_axis: &str) -> usize {
    match x_axis {
        "paths" => r.paths,
        "capacity" => r.capacity,
        _ => r.n,
    }
}

fn summarize_statuses(group: &[&SolveRow]) -> String {
    let mut statuses: Vec<&str> = group.iter().map(|r| status_str(r.status)).collect();
    statuses.sort_unstable();
    statuses.dedup();
    statuses.join("/")
}

/// CSV for Table II.
pub fn merge_rows_csv(rows: &[MergeRow]) -> String {
    let mut out = String::from("shared,capacity,merging,status,total_rules,overhead_pct,ms\n");
    for r in rows {
        let _ = writeln!(
            out,
            "{},{},{},{},{},{},{:.3}",
            r.shared,
            r.capacity,
            r.merging,
            status_str(r.status),
            r.total_rules.map(|t| t.to_string()).unwrap_or_default(),
            r.overhead
                .map(|o| format!("{:.1}", o * 100.0))
                .unwrap_or_default(),
            r.elapsed.as_secs_f64() * 1000.0
        );
    }
    out
}

/// ASCII rendering of Table II in the paper's layout: one row per
/// mergeable-rule count, column pairs `C` / `C-MR` holding
/// `total_rules overhead%` or `Inf`.
pub fn merge_rows_table(rows: &[MergeRow]) -> String {
    let mut capacities: Vec<usize> = rows.iter().map(|r| r.capacity).collect();
    capacities.sort_unstable();
    capacities.dedup();
    let mut shared_counts: Vec<usize> = rows.iter().map(|r| r.shared).collect();
    shared_counts.sort_unstable();
    shared_counts.dedup();

    let mut out = format!("{:<5}", "#MR");
    for c in &capacities {
        let _ = write!(out, " | {:>12} | {:>12}", format!("{c}"), format!("{c}-MR"));
    }
    out.push('\n');
    for &s in &shared_counts {
        let _ = write!(out, "{s:<5}");
        for &c in &capacities {
            for merging in [false, true] {
                let cell = rows
                    .iter()
                    .find(|r| r.shared == s && r.capacity == c && r.merging == merging);
                let text = match cell {
                    Some(r) => match (r.status, r.total_rules, r.overhead) {
                        (SolveStatus::Infeasible, _, _) => "Inf".to_string(),
                        (SolveStatus::Unknown, _, _) => "lim".to_string(),
                        (_, Some(t), Some(o)) => {
                            format!("{t} {:+.0}%", o * 100.0)
                        }
                        _ => "-".to_string(),
                    },
                    None => "-".to_string(),
                };
                let _ = write!(out, " | {text:>12}");
            }
        }
        out.push('\n');
    }
    out
}

/// CSV for Experiment 5.
pub fn inc_rows_csv(rows: &[IncRow]) -> String {
    let mut out = String::from("op,scale,status,ms,full_solve_ms,speedup\n");
    for r in rows {
        let ms = r.elapsed.as_secs_f64() * 1000.0;
        let full = r.full_solve.as_secs_f64() * 1000.0;
        let _ = writeln!(
            out,
            "{},{},{},{:.3},{:.3},{:.1}",
            r.op,
            r.scale,
            status_str(r.status),
            ms,
            full,
            if ms > 0.0 { full / ms } else { f64::INFINITY }
        );
    }
    out
}

/// ASCII rendering of Experiment 5.
pub fn inc_rows_table(rows: &[IncRow]) -> String {
    let mut out = format!(
        "{:<10} {:>6} {:>12} {:>14} {:>10}\n",
        "operation", "scale", "inc ms", "full-solve ms", "status"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:<10} {:>6} {:>12.2} {:>14.2} {:>10}",
            r.op,
            r.scale,
            r.elapsed.as_secs_f64() * 1000.0,
            r.full_solve.as_secs_f64() * 1000.0,
            status_str(r.status)
        );
    }
    out
}

/// ASCII rendering of the sharing measurement.
pub fn sharing_rows_table(rows: &[SharingRow]) -> String {
    let mut out = format!(
        "{:<6} {:>4} {:>10} {:>10} {:>10}\n",
        "paths", "n", "placed B", "naive p*r", "B/(p*r)"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:<6} {:>4} {:>10} {:>10} {:>9.1}%",
            r.paths,
            r.n,
            r.placed,
            r.naive,
            100.0 * r.placed as f64 / r.naive as f64
        );
    }
    out
}

/// CSV for the sharing measurement.
pub fn sharing_rows_csv(rows: &[SharingRow]) -> String {
    let mut out = String::from("paths,n,placed,naive,ratio\n");
    for r in rows {
        let _ = writeln!(
            out,
            "{},{},{},{},{:.4}",
            r.paths,
            r.n,
            r.placed,
            r.naive,
            r.placed as f64 / r.naive as f64
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn row(label: &str, n: usize, status: SolveStatus) -> SolveRow {
        SolveRow {
            label: label.into(),
            n,
            paths: 16,
            capacity: 60,
            seed: 0,
            status,
            elapsed: Duration::from_millis(12),
            objective: Some(100.0),
            vars: 10,
            rows: 20,
            nodes: 3,
        }
    }

    #[test]
    fn csv_headers_and_rows() {
        let rows = vec![row("a", 20, SolveStatus::Optimal)];
        let csv = solve_rows_csv(&rows);
        assert!(csv.starts_with("label,n,"));
        assert!(csv.contains("a,20,16,60,0,optimal,12.000,100,10,20,3"));
    }

    #[test]
    fn table_groups_by_label_and_x() {
        let rows = vec![
            row("a", 20, SolveStatus::Optimal),
            row("a", 20, SolveStatus::Optimal),
            row("a", 30, SolveStatus::Infeasible),
        ];
        let t = solve_rows_table(&rows, "n");
        assert!(t.contains("optimal"));
        assert!(t.contains("infeasible"));
        assert_eq!(t.lines().count(), 3); // header + 2 groups
    }

    #[test]
    fn merge_table_layout() {
        let rows = vec![
            MergeRow {
                shared: 1,
                capacity: 30,
                merging: false,
                status: SolveStatus::Infeasible,
                total_rules: None,
                overhead: None,
                elapsed: Duration::from_millis(5),
            },
            MergeRow {
                shared: 1,
                capacity: 30,
                merging: true,
                status: SolveStatus::Optimal,
                total_rules: Some(300),
                overhead: Some(0.12),
                elapsed: Duration::from_millis(9),
            },
        ];
        let t = merge_rows_table(&rows);
        assert!(t.contains("30-MR"));
        assert!(t.contains("Inf"));
        assert!(t.contains("300 +12%"));
        let csv = merge_rows_csv(&rows);
        assert!(csv.contains("1,30,true,optimal,300,12.0"));
    }

    #[test]
    fn sharing_table_percentages() {
        let rows = vec![SharingRow {
            paths: 16,
            n: 25,
            placed: 80,
            naive: 400,
        }];
        let t = sharing_rows_table(&rows);
        assert!(t.contains("20.0%"));
    }
}
