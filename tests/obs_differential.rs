//! Differential tests for observability: telemetry must be
//! deterministic (byte-identical dumps across same-seed chaos replays)
//! and strictly effect-free (attaching a sink changes no placement, no
//! dataplane byte, no counter).

use std::path::PathBuf;
use std::process::Command;

use flowplace::ctrl::{parse_fault_schedule, FaultPlan};
use flowplace::obs::{validate_obs_json, Obs, ObsDoc};
use flowplace::prelude::*;

fn chaos_options() -> CtrlOptions {
    let schedule_text =
        std::fs::read_to_string("traces/chaos.faults").expect("committed fault schedule");
    CtrlOptions {
        batch_size: 4,
        faults: FaultPlan {
            seed: 42,
            install_reject_rate: 0.1,
            crash_rate: 0.02,
            recover_rate: 0.5,
            schedule: parse_fault_schedule(&schedule_text).expect("schedule parses"),
        },
        ..CtrlOptions::default()
    }
}

fn chaos_controller(observed: bool) -> Controller {
    let mut topo = Topology::linear(4);
    topo.set_uniform_capacity(16);
    let mut ctrl = Controller::new(topo, chaos_options());
    if observed {
        ctrl.attach_obs(Obs::new());
    }
    let trace = std::fs::read_to_string("traces/chaos.trace").expect("committed chaos trace");
    ctrl.replay_trace(&trace).expect("chaos replay succeeds");
    ctrl
}

/// Attaching an obs sink must not change a single observable byte of
/// the chaos run: same placement, same dataplane dump, same counters,
/// same virtual clock.
#[test]
fn metrics_on_vs_off_is_effect_free() {
    let plain = chaos_controller(false);
    let observed = chaos_controller(true);
    assert_eq!(plain.placement(), observed.placement());
    assert_eq!(plain.dataplane().dump(), observed.dataplane().dump());
    assert_eq!(plain.stats(), observed.stats());
    assert_eq!(plain.epoch(), observed.epoch());
    assert_eq!(plain.virtual_time_ms(), observed.virtual_time_ms());
    assert_eq!(plain.out_of_service(), observed.out_of_service());
}

/// Both dumps of `obs` validate back to exactly what it recorded: the
/// writer serializes the document the validator returns.
fn assert_dumps_round_trip(obs: &Obs) {
    let trace = validate_obs_json(&obs.trace_json());
    assert_eq!(trace, Ok(ObsDoc::Trace(obs.spans.doc())));
    let metrics = validate_obs_json(&obs.metrics_json());
    assert_eq!(metrics, Ok(ObsDoc::Metrics(obs.metrics.doc())));
}

/// Two same-seed library replays produce byte-identical trace and
/// metrics dumps, and each dump reads back as the recorded document.
#[test]
fn same_seed_chaos_dumps_are_byte_identical() {
    let a = chaos_controller(true);
    let b = chaos_controller(true);
    let (oa, ob) = (a.obs().unwrap(), b.obs().unwrap());
    assert_eq!(oa.trace_json(), ob.trace_json(), "trace dumps diverged");
    assert_eq!(
        oa.metrics_json(),
        ob.metrics_json(),
        "metrics dumps diverged"
    );
    assert_dumps_round_trip(oa);
}

/// The fault-free demo replay under the `flowplace ctrl replay`
/// defaults writes the committed `OBS_demo_metrics.json`, and its dumps
/// read back as the recorded documents.
#[test]
fn demo_dumps_round_trip_and_match_committed_metrics() {
    let mut topo = Topology::linear(4);
    topo.set_uniform_capacity(16);
    let mut ctrl = Controller::new(topo, CtrlOptions::default());
    ctrl.attach_obs(Obs::new());
    let trace =
        std::fs::read_to_string("traces/controller_demo.trace").expect("committed demo trace");
    ctrl.replay_trace(&trace).expect("demo replay succeeds");
    let obs = ctrl.obs().unwrap();
    assert_dumps_round_trip(obs);
    let committed =
        std::fs::read_to_string("OBS_demo_metrics.json").expect("committed demo metrics dump");
    assert_eq!(
        obs.metrics_json(),
        committed,
        "demo metrics dump drifted from the committed artifact"
    );
}

/// The committed telemetry artifacts pin the dump bytes across
/// refactors of the hot-path data structures: swapping the controller's
/// internal hash maps (e.g. SipHash -> FNV -> the word hasher) must not reorder a
/// single span or metrics line. A diff here means an iteration-order
/// dependence leaked into telemetry — a determinism bug to fix, not an
/// artifact to regenerate.
#[test]
fn chaos_dumps_match_committed_artifacts() {
    let ctrl = chaos_controller(true);
    let obs = ctrl.obs().unwrap();
    let committed_trace = std::fs::read_to_string("OBS_trace.json").expect("committed trace dump");
    let committed_metrics =
        std::fs::read_to_string("OBS_metrics.json").expect("committed metrics dump");
    assert_eq!(
        obs.trace_json(),
        committed_trace,
        "trace dump drifted from the committed artifact"
    );
    assert_eq!(
        obs.metrics_json(),
        committed_metrics,
        "metrics dump drifted from the committed artifact"
    );
}

fn flowplace_chaos(extra: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_flowplace"))
        .args([
            "ctrl",
            "replay",
            "traces/chaos.trace",
            "--batch",
            "4",
            "--faults",
            "traces/chaos.faults",
            "--fault-seed",
            "42",
            "--reject-rate",
            "0.1",
            "--crash-rate",
            "0.02",
            "--recover-rate",
            "0.5",
        ])
        .args(extra)
        .output()
        .expect("binary runs")
}

fn temp_file(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("flowplace-obs-diff-{}-{name}", std::process::id()))
}

/// The CLI acceptance path: same-seed chaos replays with
/// `--trace-out`/`--metrics-out` write byte-identical, schema-valid
/// dumps on every run, and emitting them leaves stdout (epoch reports,
/// stats, dataplane dump, audit verdict) untouched vs a telemetry-free
/// run.
#[test]
fn cli_chaos_replay_dumps_are_byte_identical_and_effect_free() {
    let baseline = flowplace_chaos(&[]);
    assert!(
        baseline.status.success(),
        "{}",
        String::from_utf8_lossy(&baseline.stderr)
    );

    let mut dumps: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
    for run in 0..2 {
        let trace_path = temp_file(&format!("t{run}.json"));
        let metrics_path = temp_file(&format!("m{run}.json"));
        let out = flowplace_chaos(&[
            "--trace-out",
            trace_path.to_str().unwrap(),
            "--metrics-out",
            metrics_path.to_str().unwrap(),
        ]);
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert_eq!(
            out.stdout, baseline.stdout,
            "run {run}: telemetry flags changed the replay's stdout"
        );
        let trace = std::fs::read(&trace_path).expect("trace written");
        let metrics = std::fs::read(&metrics_path).expect("metrics written");
        validate_obs_json(std::str::from_utf8(&trace).unwrap()).expect("trace validates");
        validate_obs_json(std::str::from_utf8(&metrics).unwrap()).expect("metrics validates");
        std::fs::remove_file(&trace_path).ok();
        std::fs::remove_file(&metrics_path).ok();
        dumps.push((trace, metrics));
    }
    for (trace, metrics) in &dumps[1..] {
        assert_eq!(&dumps[0].0, trace, "trace dumps diverged across runs");
        assert_eq!(&dumps[0].1, metrics, "metrics dumps diverged across runs");
    }
}

/// `flowplace obs summarize` renders both dump kinds and re-validates
/// on read; a corrupted dump is rejected with a non-zero exit.
#[test]
fn cli_obs_summarize_renders_and_validates() {
    let trace_path = temp_file("sum-t.json");
    let metrics_path = temp_file("sum-m.json");
    let out = flowplace_chaos(&[
        "--trace-out",
        trace_path.to_str().unwrap(),
        "--metrics-out",
        metrics_path.to_str().unwrap(),
    ]);
    assert!(out.status.success());

    let out = Command::new(env!("CARGO_BIN_EXE_flowplace"))
        .args([
            "obs",
            "summarize",
            trace_path.to_str().unwrap(),
            metrics_path.to_str().unwrap(),
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("(trace)"), "summarize names the trace dump");
    assert!(
        text.contains("(metrics)"),
        "summarize names the metrics dump"
    );
    assert!(text.contains("ctrl.epoch"), "span table renders");
    assert!(text.contains("ctrl.epochs"), "counter table renders");

    // Corrupt the metrics dump: summarize must refuse it.
    let mut corrupted = std::fs::read_to_string(&metrics_path).unwrap();
    corrupted = corrupted.replace("flowplace.obs.v1", "flowplace.obs.v9");
    std::fs::write(&metrics_path, corrupted).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_flowplace"))
        .args(["obs", "summarize", metrics_path.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert!(!out.status.success(), "corrupted dump must be rejected");

    std::fs::remove_file(&trace_path).ok();
    std::fs::remove_file(&metrics_path).ok();
}
