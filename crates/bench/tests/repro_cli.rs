//! Drives the `repro` binary the way a user does, in a scratch
//! directory so no recorded `results/*.csv` is touched.

use std::fs;
use std::path::PathBuf;
use std::process::{Command, Output};

fn repro(test: &str, args: &[&str]) -> (PathBuf, Output) {
    let dir = std::env::temp_dir().join(format!("repro_cli_{}_{test}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("can create scratch dir");
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .current_dir(&dir)
        .output()
        .expect("repro runs");
    (dir, out)
}

#[test]
fn all_quick_writes_every_csv() {
    let (dir, out) = repro("all", &["all", "--quick"]);
    assert!(out.status.success(), "{out:?}");
    const SOLVE_ROWS: &str = "label,n,paths,capacity,seed,status,ms,objective,vars,rows,nodes";
    let expected = [
        ("ablate_deps.csv", SOLVE_ROWS),
        ("ablate_merge_linking.csv", SOLVE_ROWS),
        ("ablate_sat.csv", SOLVE_ROWS),
        ("ablate_warm_start.csv", SOLVE_ROWS),
        ("exp1_rules.csv", SOLVE_ROWS),
        ("exp2_paths.csv", SOLVE_ROWS),
        (
            "exp3_merging.csv",
            "shared,capacity,merging,status,total_rules,overhead_pct,ms",
        ),
        ("exp4_capacity.csv", SOLVE_ROWS),
        (
            "exp5_incremental.csv",
            "op,scale,status,ms,full_solve_ms,speedup",
        ),
        ("exp6_sharing.csv", "paths,n,placed,naive,ratio"),
    ];
    let quick = dir.join("results/quick");
    let mut files: Vec<_> = fs::read_dir(&quick)
        .expect("results/quick exists")
        .map(|e| e.expect("readable entry").file_name())
        .collect();
    files.sort();
    assert_eq!(files, expected.map(|(name, _)| name));
    for (name, header) in expected {
        let text = fs::read_to_string(quick.join(name)).expect("readable CSV");
        let mut lines = text.lines();
        assert_eq!(lines.next(), Some(header), "{name}");
        let columns = header.split(',').count();
        let data: Vec<_> = lines.collect();
        assert!(!data.is_empty(), "{name} has no data row");
        for row in data {
            assert_eq!(row.split(',').count(), columns, "{name}: {row}");
        }
    }
    // Nothing outside results/quick: a smoke run never sits beside a
    // recorded one.
    assert_eq!(fs::read_dir(dir.join("results")).unwrap().count(), 1);
    fs::remove_dir_all(dir).expect("scratch dir removable");
}

/// Budgets count simplex iterations, not seconds: two runs record the
/// same status, objective and effort in every row, cut or not.
#[test]
fn two_runs_agree_on_every_column_but_ms() {
    let run = |test| {
        let (dir, out) = repro(test, &["exp1", "ablate-sat", "--quick"]);
        assert!(out.status.success(), "{out:?}");
        let csvs = ["exp1_rules.csv", "ablate_sat.csv"].map(|name| {
            let text = fs::read_to_string(dir.join("results/quick").join(name)).expect("CSV");
            let header = text.lines().next().expect("header row");
            let ms = header
                .split(',')
                .position(|c| c == "ms")
                .expect("ms column");
            let untimed = |row: &str| {
                let mut cells: Vec<_> = row.split(',').collect();
                cells.remove(ms);
                cells.join(",")
            };
            text.lines().map(untimed).collect::<Vec<_>>()
        });
        fs::remove_dir_all(dir).expect("scratch dir removable");
        csvs
    };
    assert_eq!(run("twice_a"), run("twice_b"));
}

#[test]
fn unknown_tokens_are_rejected_before_anything_runs() {
    for (test, args, token) in [
        ("name", ["exp6", "nosuch", "--quick"].as_slice(), "nosuch"),
        ("flag", ["exp6", "--quikc"].as_slice(), "--quikc"),
    ] {
        let (dir, out) = repro(test, args);
        assert_eq!(out.status.code(), Some(2), "{out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(&format!("`{token}`")), "{stderr}");
        assert!(stderr.contains("ablate-warm-start"), "{stderr}");
        assert!(out.stdout.is_empty(), "{out:?}");
        assert_eq!(fs::read_dir(&dir).unwrap().count(), 0, "{args:?} wrote");
        fs::remove_dir_all(dir).expect("scratch dir removable");
    }
}
