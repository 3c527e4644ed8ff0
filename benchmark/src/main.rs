//! `flowplace-benchmark`: the repo's end-to-end benchmark.
//!
//! ```text
//! flowplace-benchmark [--workload W] [--seed N] [--seconds N]
//!                     [--trace [0|1]] [--smoke] [--out DIR]
//! ```
//!
//! Runs each workload (all four without `--workload`) as: `S` set-ups
//! from scratch, identical timed rounds until `--seconds` have passed
//! (never fewer than three), the correctness gate, and with `--trace`
//! one more, traced, round. Prints every metric as
//! `workload metric value unit` and then one JSON object per workload;
//! exits non-zero, printing no metrics for it, on a workload that
//! fails its gate. See `README.md` beside this package.

mod inputs;
mod metrics;
mod shadow;
mod stats;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use flowplace_ctrl::CtrlStats;

use inputs::GenTimes;
use metrics::{CACHE_LOOKUP, CALL_STEPS, CLASSIFY, END_TO_END, PER_LAYER, TRACED_COUNTS};
use stats::{cpu_time, fastest, ms, peak_rss_mb, percentile, spread};
use trace::Tracer;
use workloads::{gate, Churn, Deploy, Flows, Reroute, Round, Workload};

/// The seed whose inputs are pinned.
const DEFAULT_SEED: u64 = 1;
const WORKLOADS: [&str; 4] = [Deploy::NAME, Churn::NAME, Reroute::NAME, Flows::NAME];

struct Config {
    workloads: Vec<String>,
    seed: u64,
    /// Measuring budget of the timed rounds.
    seconds: u64,
    trace: bool,
    /// One set-up and two short rounds, traced unless `--trace 0`.
    smoke: bool,
    /// Where the trace files go.
    out: PathBuf,
}

fn parse_args(args: &[String]) -> Result<Config, String> {
    let mut config = Config {
        workloads: WORKLOADS.iter().map(|w| w.to_string()).collect(),
        seed: DEFAULT_SEED,
        seconds: 15,
        trace: false,
        smoke: false,
        out: PathBuf::from("benchmark/out"),
    };
    let mut trace = None;
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--workload" => {
                let w = value("--workload")?;
                if !WORKLOADS.contains(&w.as_str()) {
                    return Err(format!("unknown workload {w:?}; one of {WORKLOADS:?}"));
                }
                config.workloads = vec![w];
            }
            "--seed" => {
                let v = value("--seed")?;
                config.seed = v.parse().map_err(|_| format!("bad --seed {v:?}"))?;
            }
            "--seconds" => {
                let v = value("--seconds")?;
                config.seconds = v.parse().map_err(|_| format!("bad --seconds {v:?}"))?;
            }
            "--out" => config.out = PathBuf::from(value("--out")?),
            "--smoke" => config.smoke = true,
            // A bare flag, or the driver's `--trace 0|1`.
            "--trace" => {
                let explicit = it.next_if(|v| matches!(v.as_str(), "0" | "1"));
                trace = Some(explicit.is_none_or(|v| v == "1"));
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    // A smoke run is traced unless told otherwise.
    config.trace = trace.unwrap_or(config.smoke);
    Ok(config)
}

/// The result of one workload.
struct Report {
    attempted: u64,
    failed: u64,
    /// Notes for the reader, printed as `# …` lines.
    notes: Vec<String>,
    end_to_end: Vec<f64>,
    per_layer: Option<Vec<f64>>,
}

fn run<W: Workload>(config: &Config) -> Result<Report, String> {
    let sizes = W::sizes(config.smoke);
    let mut notes = Vec::new();

    // Set-up, from scratch each time. Noise only adds time, so the
    // fastest is the one to keep.
    let mut setups = Vec::with_capacity(sizes.setups);
    let mut gen = GenTimes::default();
    let mut prepared = None;
    for _ in 0..sizes.setups {
        drop(prepared.take());
        gen = GenTimes::default();
        let started = Instant::now();
        let workload = W::setup(config.seed, sizes, &mut gen)?;
        setups.push(started.elapsed());
        prepared = Some(workload);
    }
    let workload = prepared.ok_or("no set-up ran")?;

    let fingerprint = workload.fingerprint();
    notes.push(format!("input fingerprint {fingerprint:#018x}"));
    if config.seed == DEFAULT_SEED && !config.smoke && fingerprint != W::PIN {
        return Err(format!(
            "inputs of seed {DEFAULT_SEED} hash to {fingerprint:#018x}, pinned {:#018x}: \
             a generator changed the workload",
            W::PIN
        ));
    }

    // Identical timed rounds.
    let budget = Duration::from_secs(config.seconds);
    let min_rounds = if config.smoke { 2 } else { 3 };
    let cpu_before = cpu_time()?;
    let rounds_started = Instant::now();
    let first = workload.round(None);
    let mut walls = vec![first.wall];
    let mut calls = vec![first.calls.clone()];
    while walls.len() < min_rounds || (!config.smoke && rounds_started.elapsed() < budget) {
        let round = workload.round(None);
        first.same_as(&round)?;
        walls.push(round.wall);
        calls.push(round.calls);
    }
    let rounds_wall = rounds_started.elapsed();
    let cpu_share = (cpu_time()? - cpu_before).as_secs_f64() / rounds_wall.as_secs_f64();

    // Correctness, outside every timer.
    gate(&first.finals)?;

    // Every timing metric is read from the fastest round.
    let best = fastest(&walls);
    let mut best_calls = calls[best].clone();
    best_calls.sort_unstable();
    notes.push(format!(
        "{} rounds of {} ops, fastest {:.3} s, slowest {:.3} s; call_p50_ms over {} calls; cpu share {:.3}",
        walls.len(),
        first.ops,
        walls[best].as_secs_f64(),
        walls.iter().max().expect("rounds ran").as_secs_f64(),
        best_calls.len(),
        cpu_share,
    ));
    let e: BTreeMap<&str, f64> = BTreeMap::from([
        ("setup_s", setups[fastest(&setups)].as_secs_f64()),
        (
            "throughput_events_s",
            first.ops as f64 / walls[best].as_secs_f64(),
        ),
        ("call_p50_ms", ms(percentile(&best_calls, 50.0))),
        ("rules_placed", first.rules_placed as f64),
        ("peak_rss_mb", peak_rss_mb()?),
    ]);
    let end_to_end = END_TO_END.iter().map(|(name, _)| e[name]).collect();

    let per_layer = if config.trace {
        let mut tracer = Tracer::new();
        let traced = workload.round(Some(&mut tracer));
        first.same_as(&traced)?;
        let path = config.out.join(format!("trace-{}.json", W::NAME));
        std::fs::create_dir_all(&config.out)
            .and_then(|()| std::fs::write(&path, tracer.to_json(W::NAME, config.seed)))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        let mut v = layer_values(&tracer, &traced, &workload.base_stats());
        v.insert("classbench.generate_ms", ms(gen.classbench));
        v.insert("routing.routes_ms", ms(gen.routing));
        v.insert("traffic.generate_ms", ms(gen.traffic));
        v.insert(
            "ctrl.tcam_writes_per_event",
            first.tcam_writes as f64 / first.ops as f64,
        );
        v.insert("driver.round_spread", spread(&walls));
        v.insert("driver.setup_spread", spread(&setups));
        v.insert("driver.cpu_share", cpu_share);
        let traced_total: Duration = traced.calls.iter().sum();
        let untraced_total: Duration = calls[best].iter().sum();
        v.insert(
            "driver.trace_overhead_share",
            traced_total.as_secs_f64() / untraced_total.as_secs_f64() - 1.0,
        );
        Some(PER_LAYER.iter().map(|(name, _)| v[name]).collect())
    } else {
        None
    };

    Ok(Report {
        // Rounds are identical, so each failed what the first did.
        attempted: first.ops * walls.len() as u64,
        failed: first.failed * walls.len() as u64,
        notes,
        end_to_end,
        per_layer,
    })
}

/// The layer metrics the traced round itself yields: step times as
/// means per timed call, counts as totals.
fn layer_values(
    tracer: &Tracer,
    traced: &Round,
    base: &[CtrlStats],
) -> BTreeMap<&'static str, f64> {
    let n = traced.calls.len() as f64;
    let mut v: BTreeMap<&'static str, f64> = BTreeMap::new();
    for step in CALL_STEPS {
        v.insert(step, ms(tracer.total(step)) / n);
    }
    for name in TRACED_COUNTS {
        v.insert(name, tracer.count(name) as f64);
    }
    let each = |total: Duration, count: u64| match count {
        0 => 0.0,
        _ => total.as_nanos() as f64 / count as f64,
    };
    let lookup = tracer.total(CACHE_LOOKUP);
    v.insert(
        CACHE_LOOKUP,
        each(lookup, tracer.count("ctrl.cache.lookups")),
    );
    v.insert(
        CLASSIFY,
        each(tracer.total(CLASSIFY), tracer.count("acl.classify.packets")),
    );

    let moved = |field: fn(&CtrlStats) -> u64| -> f64 {
        traced
            .finals
            .iter()
            .zip(base)
            .map(|(c, b)| field(c.stats()) - field(b))
            .sum::<u64>() as f64
    };
    v.insert("core.warm.memo_hits", moved(|s| s.warm_memo_hits));
    v.insert("core.warm.memo_misses", moved(|s| s.warm_memo_misses));
    v.insert(
        "core.warm.depgraphs_reused",
        moved(|s| s.warm_depgraphs_reused),
    );
    v.insert(
        "core.warm.candidates_reused",
        moved(|s| s.warm_candidates_reused),
    );
    v.insert("ctrl.tier.greedy", moved(|s| s.greedy_ok));
    v.insert("ctrl.tier.restricted", moved(|s| s.restricted_ok));
    v.insert("ctrl.tier.full", moved(|s| s.full_ok));
    v.insert("ctrl.tier.delegated", moved(|s| s.delegated_ok));
    v.insert("ctrl.events_failed", moved(|s| s.events_failed));

    let mut call_times = traced.calls.clone();
    let call_mean = ms(call_times.iter().sum()) / n;
    call_times.sort_unstable();
    let steps: f64 = CALL_STEPS.iter().map(|step| v[step]).sum();
    v.insert("ctrl.call_mean_ms", call_mean);
    v.insert("ctrl.call_p99_ms", ms(percentile(&call_times, 99.0)));
    v.insert("ctrl.unattributed_ms", call_mean - steps - ms(lookup) / n);
    v
}

fn json_metrics(names: &[(&str, &str)], values: &[f64]) -> String {
    let fields: Vec<String> = names
        .iter()
        .zip(values)
        .map(|((name, unit), value)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

fn print_report(workload: &str, report: &Report) {
    for note in &report.notes {
        println!("# {workload}: {note}");
    }
    let lines = |names: &[(&str, &str)], values: &[f64]| {
        for ((name, unit), value) in names.iter().zip(values) {
            println!("{workload} {name} {value} {unit}");
        }
    };
    lines(&END_TO_END, &report.end_to_end);
    // With tracing on, the result object carries the layer metrics;
    // the end-to-end numbers above never come from the traced round.
    let metrics = match &report.per_layer {
        Some(values) => {
            lines(&PER_LAYER, values);
            json_metrics(&PER_LAYER, values)
        }
        None => json_metrics(&END_TO_END, &report.end_to_end),
    };
    println!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        report.attempted, report.failed
    );
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let config = match parse_args(&args) {
        Ok(config) => config,
        Err(e) => {
            eprintln!("flowplace-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    for name in &config.workloads {
        let result = match name.as_str() {
            Deploy::NAME => run::<Deploy>(&config),
            Churn::NAME => run::<Churn>(&config),
            Reroute::NAME => run::<Reroute>(&config),
            _ => run::<Flows>(&config),
        };
        let all_finite = |r: &Report| {
            let layers = r.per_layer.iter().flatten();
            r.end_to_end.iter().chain(layers).all(|v| v.is_finite())
        };
        match result {
            Ok(report) if all_finite(&report) => print_report(name, &report),
            Ok(_) => {
                eprintln!("flowplace-benchmark: {name}: a metric is not a finite number");
                return ExitCode::FAILURE;
            }
            Err(e) => {
                eprintln!("flowplace-benchmark: {name}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}
