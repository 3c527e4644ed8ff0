//! End-to-end tests of the `flowplace` command-line binary.

use std::process::Command;

fn flowplace(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_flowplace"))
        .args(args)
        .output()
        .expect("binary runs")
}

#[test]
fn help_lists_commands() {
    let out = flowplace(&["help"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    for cmd in ["place", "audit", "gen-policy"] {
        assert!(text.contains(cmd), "help mentions {cmd}");
    }
}

#[test]
fn unknown_command_fails() {
    let out = flowplace(&["frobnicate"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));
}

#[test]
fn gen_policy_audit_place_pipeline() {
    let dir = std::env::temp_dir().join(format!("flowplace-cli-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let policy_path = dir.join("tenant.txt");
    let dot_path = dir.join("deps.dot");

    // Generate a policy file.
    let out = flowplace(&["gen-policy", "--rules", "8", "--seed", "5"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    assert_eq!(text.lines().count(), 8);
    assert!(text
        .lines()
        .all(|l| l.starts_with("permit") || l.starts_with("drop")));
    std::fs::write(&policy_path, &text).unwrap();

    // Audit it with a DOT export.
    let out = flowplace(&[
        "audit",
        policy_path.to_str().unwrap(),
        "--dot",
        dot_path.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("8 rules"));
    let dot = std::fs::read_to_string(&dot_path).unwrap();
    assert!(dot.starts_with("digraph"));

    // Place it on a small topology with verification.
    let out = flowplace(&[
        "place",
        "--topo",
        "linear:3",
        "--capacity",
        "10",
        "--ingresses",
        "1",
        "--paths",
        "1",
        "--policy-file",
        policy_path.to_str().unwrap(),
        "--verify",
        "--tables",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("status: optimal"));
    assert!(text.contains("verification passed"));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn place_reports_infeasible_with_exit_code() {
    // An explicit policy with a reachable drop needs at least one TCAM
    // entry, so capacity 0 is infeasible regardless of RNG streams.
    let dir = std::env::temp_dir().join(format!("flowplace-cli-infeasible-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let policy_path = dir.join("deny.txt");
    std::fs::write(&policy_path, "drop   10** @ 2\npermit **** @ 1\n").unwrap();

    let out = flowplace(&[
        "place",
        "--topo",
        "linear:2",
        "--capacity",
        "0",
        "--ingresses",
        "1",
        "--paths",
        "1",
        "--policy-file",
        policy_path.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(1), "infeasible exits 1");
    assert!(String::from_utf8_lossy(&out.stdout).contains("infeasible"));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn rule_event_rejections_say_what_was_wrong() {
    // Four different mistakes against a healthy ingress: each reason
    // names its own cause, none blames the ingress.
    let dir = std::env::temp_dir().join(format!("flowplace-cli-reasons-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let trace_path = dir.join("mistakes.trace");
    let trace = "install-policy l0 via l1:s0-s1-s2-s3 rules 111111:drop:2,******:permit:1\n\
                 remove-rule l0 r99\n\
                 add-rule l0 0000 drop 7\n\
                 add-rule l0 000001 drop 2\n\
                 modify-rule l0 r42 000001 drop 9\n";
    std::fs::write(&trace_path, trace).unwrap();

    let out = flowplace(&["ctrl", "replay", trace_path.to_str().unwrap(), "--verbose"]);
    assert_eq!(out.status.code(), Some(1), "failed events exit 1");
    let text = String::from_utf8_lossy(&out.stdout);
    for reason in [
        "l0 has no rule r99",
        "mixed match-field widths in policy: 4 vs 6",
        "duplicate rule priority 2 in policy",
        "l0 has no rule r42",
    ] {
        let line = format!("Rejected {{ reason: \"{reason}\" }}");
        assert!(text.contains(&line), "missing {line:?} in:\n{text}");
    }
    assert!(!text.contains("not usable here"), "{text}");
    assert!(
        text.contains("events: 5 in, 0 rejected, 4 failed"),
        "{text}"
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn place_exports_lp_model() {
    let dir = std::env::temp_dir().join(format!("flowplace-cli-lp-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let lp_path = dir.join("model.lp");
    let out = flowplace(&[
        "place",
        "--topo",
        "leaf-spine:2,2,2",
        "--capacity",
        "20",
        "--ingresses",
        "2",
        "--rules",
        "5",
        "--export-lp",
        lp_path.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let lp = std::fs::read_to_string(&lp_path).unwrap();
    assert!(lp.contains("Minimize"));
    assert!(lp.contains("Subject To"));
    assert!(lp.trim_end().ends_with("End"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn sat_engine_flag() {
    let out = flowplace(&[
        "place",
        "--topo",
        "fat-tree:4",
        "--capacity",
        "30",
        "--ingresses",
        "2",
        "--rules",
        "6",
        "--engine",
        "sat",
        "--verify",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    // §IV-D finds a satisfying placement; it proves no optimum.
    assert!(stdout.contains("status: feasible"), "{stdout}");
    assert!(stdout.contains("verification passed"));
}

#[test]
fn bad_flags_reported() {
    let out = flowplace(&["place", "--topo", "moebius:9"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown topology"));
    let out = flowplace(&["place", "--capacity"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("needs a value"));
    let out = flowplace(&["audit"]);
    assert!(!out.status.success());
    // Sizes from outside are bounded before anything allocates for them
    // (usize::MAX flows used to abort with `capacity overflow`).
    for args in [
        ["traffic", "gen", "--flows", "18446744073709551615"],
        ["traffic", "gen", "--ingresses", "16777217"],
    ] {
        let out = flowplace(&args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.starts_with("error: ") && err.contains("at most"),
            "{err}"
        );
    }
    let out = flowplace(&["traffic", "gen", "--width", "4", "--flows", "17"]);
    assert_eq!(out.status.code(), Some(2));
    // A degenerate or absurd topology / width is a usage error here, not
    // a panic in the library constructor or an aborted allocation.
    for args in [
        &["place", "--topo", "fat-tree:0"][..],
        &["place", "--topo", "fat-tree:3"],
        &["place", "--topo", "linear:0"],
        &["place", "--topo", "leaf-spine:0,0,0"],
        &["place", "--topo", "linear:1000000000000"],
        &["place", "--topo", "fat-tree:4294967296"],
        &[
            "ctrl",
            "replay",
            "traces/controller_demo.trace",
            "--topo",
            "linear:0",
        ],
        &["gen-policy", "--width", "0"],
        &["gen-policy", "--width", "1"],
        &["gen-policy", "--width", "129"],
    ] {
        let out = flowplace(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.starts_with("error: ") && !err.contains("panicked"),
            "{args:?}: {err}"
        );
    }
    // A retired or misspelt flag is a usage error, not a silent run with
    // the default it meant to override; neither is a value that would
    // wrap when narrowed to the option's u32. (The retired flags are
    // spelt in halves so a grep of the tree for their names stays empty.)
    for (flag, value, needle) in [
        (concat!("--sh", "ards"), "4", "error: unknown flag --sh"),
        (concat!("--port", "folio"), "", "error: unknown flag --port"),
        (
            concat!("--sat-re", "start"),
            concat!("lu", "by"),
            "error: unknown flag --sat-re",
        ),
        ("--warm", "on", "error: unknown flag --warm"),
        ("--threads", "2", "error: unknown flag --threads"),
        ("--capcity", "2", "error: unknown flag --capcity"),
        ("--retries", "4294967297", "--retries: bad number"),
        (
            "--quarantine-after",
            "4294967297",
            "--quarantine-after: bad number",
        ),
    ] {
        let out = flowplace(&[
            "ctrl",
            "replay",
            "traces/controller_demo.trace",
            flag,
            value,
        ]);
        assert_eq!(out.status.code(), Some(2), "{flag} {value}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(needle), "{flag} {value}: {err}");
    }
    for (flag, value) in [
        (concat!("--port", "folio"), "x"),
        (concat!("--sat-re", "start"), "x"),
        ("--time-limit", "5"),
        ("--threads", "2"),
    ] {
        let out = flowplace(&["place", flag, value]);
        assert_eq!(out.status.code(), Some(2), "place {flag}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.starts_with(&format!("error: unknown flag {flag}")),
            "place {flag}: {err}"
        );
        assert!(out.stdout.is_empty(), "place {flag} ran: {out:?}");
    }
}

/// The ILP budget counts simplex pivots, so a search it cuts short stops
/// at the same point on every run: same status, same effort, same rules.
#[test]
fn iteration_limit_cuts_the_same_way_twice() {
    let run = || {
        let out = flowplace(&[
            "place",
            "--topo",
            "leaf-spine:2,2,2",
            "--capacity",
            "20",
            "--ingresses",
            "2",
            "--rules",
            "5",
            "--iteration-limit",
            "1",
        ]);
        assert!(out.status.success(), "{out:?}");
        // The one wall-clock reading on stdout is the status line's
        // "in <elapsed>".
        let stdout = String::from_utf8(out.stdout).unwrap();
        let (head, tail) = stdout.split_once(" in ").expect("status line");
        let (_, effort) = tail.split_once(" (").expect("effort counts");
        format!("{head} ({effort}")
    };
    let first = run();
    assert!(
        first.contains("status: feasible") || first.contains("status: unknown"),
        "{first}"
    );
    assert_eq!(first, run());
}

/// Every `--flag` a help section documents is accepted by that
/// section's subcommand. The dummy value is no number and names a file
/// in a directory that does not exist, so the run may fail on it — and
/// writes nothing — but never as an unknown flag.
#[test]
fn every_documented_flag_is_accepted() {
    let help = String::from_utf8(flowplace(&["help"]).stdout).unwrap();
    let mut checked = 0;
    for (section, command) in [
        ("place flags:", &["place"][..]),
        ("audit flags:", &["audit", "missing.txt"]),
        ("gen-policy flags:", &["gen-policy"]),
        ("ctrl replay flags:", &["ctrl", "replay", "missing.trace"]),
        ("traffic gen flags", &["traffic", "gen"]),
    ] {
        let start = help.find(section).expect("help has the section");
        let flags = help[start..]
            .lines()
            .skip(1)
            .take_while(|l| !l.is_empty())
            .filter(|l| l.starts_with("  --"))
            .map(|l| l.split_whitespace().next().unwrap());
        for flag in flags {
            let out = flowplace(&[command, &[flag, "no-such-dir/x"]].concat());
            let err = String::from_utf8_lossy(&out.stderr);
            assert!(!err.contains("unknown flag"), "{command:?} {flag}: {err}");
            checked += 1;
        }
    }
    let documented = help.lines().filter(|l| l.starts_with("  --")).count();
    assert_eq!(checked, documented, "a help section was parsed short");
}
