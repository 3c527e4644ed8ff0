//! `flowplace` — command-line front end for the rule-placement optimizer.
//!
//! ```text
//! flowplace gen-policy --rules 20 --seed 7 > tenant.txt
//! flowplace audit tenant.txt --dot deps.dot
//! flowplace place --topo fat-tree:4 --capacity 40 --ingresses 8 \
//!                 --rules 12 --merging --verify --tables
//! ```
//!
//! Run `flowplace help` for the full flag reference.

use std::collections::BTreeMap;
use std::process::ExitCode;

use flowplace::acl::{redundancy, textfmt, Policy};
use flowplace::classbench::{Generator, Profile};
use flowplace::core::{depgraph::DependencyGraph, par, tables, verify};
use flowplace::milp::MipOptions;
use flowplace::prelude::*;
use flowplace::routing::shortest;

const HELP: &str = "\
flowplace — ACL rule placement for software-defined networks

USAGE:
  flowplace place [FLAGS]        solve a placement instance
  flowplace audit FILE [FLAGS]   analyze a policy file (redundancy, deps)
  flowplace gen-policy [FLAGS]   generate a synthetic policy to stdout
  flowplace ctrl replay FILE [FLAGS]   drive the controller from an event trace
  flowplace traffic gen [OUT] [FLAGS]  generate a replayable Zipf flow trace
  flowplace obs summarize FILE...      render obs trace/metrics dumps as tables
  flowplace help                 show this text

place flags:
  --topo SPEC          fat-tree:K | leaf-spine:S,L,H | linear:N  [fat-tree:4]
  --capacity N         TCAM slots per switch                     [40]
  --ingresses N        number of tenant policies                 [4]
  --paths N            shortest paths per ingress                [2]
  --rules N            generated rules per policy                [10]
  --policy-file FILE   use this policy text for every ingress (overrides --rules)
  --seed N             RNG seed for routing + generation         [7]
  --merging            enable cross-policy rule merging
  --engine ilp|sat     optimizing ILP or feasibility-only PB-SAT [ilp]
  --objective rules|distance   minimize total rules or push drops upstream
  --iteration-limit N  branch-and-bound budget in simplex pivots [32000]
                       (what 60 s bought on the development box at 8
                       ingresses x 90 rules; the cut is the same anywhere)
  --verify             golden-model check of the deployment
  --tables             print the emitted per-switch tables
  --export-lp FILE     also write the ILP in CPLEX LP format
  --trace-out FILE     write the solver span trace (flowplace.obs.v1 JSON)
  --metrics-out FILE   write the metrics registry dump (flowplace.obs.v1 JSON)

audit flags:
  --dot FILE           write the dependency graph in Graphviz DOT
  --metrics-out FILE   write the metrics dump (incl. arena.* gauges)

gen-policy flags:
  --rules N            rule count                                [20]
  --width N            match width in bits                       [16]
  --seed N             RNG seed                                  [1]
  --profile firewall|acl|ipchain                                 [firewall]

ctrl replay flags:
  --topo SPEC          fat-tree:K | leaf-spine:S,L,H | linear:N  [linear:4]
  --capacity N         TCAM slots per switch                     [16]
  --batch N            events coalesced per epoch                [8]
  --verbose            print every event outcome, not just epochs
  --faults FILE        scripted fault schedule (grammar below)
  --fault-seed N       seed for probabilistic fault draws        [0]
  --reject-rate P      per-install rejection probability (0..1)  [0]
  --crash-rate P       per-switch, per-epoch crash probability   [0]
  --recover-rate P     per-crashed-switch recovery probability   [0]
  --retries N          install attempts per op, first included   [4]
  --quarantine-after N consecutive failures before quarantine    [3]
  --trace-out FILE     write the epoch/event/commit span trace
                       (flowplace.obs.v1 JSON, byte-identical per seed)
  --metrics-out FILE   write the metrics registry dump (flowplace.obs.v1)
  --cache SPEC         enable the TCAM-as-cache tier: N | lru:N | depfreq:N
                       (per-switch resident entries; dependency-safe eviction)
  --delegation on|off  the flow-delegation rung: detour saturated
                       ingresses through a neighbor with spare TCAM
                       before falling back to drop-all             [on]
  --traffic FILE       after the replay, run this flow trace (see
                       `traffic gen`) through the cache tier; exits non-zero
                       if the dependency-safety audit detects a violating
                       eviction

traffic gen flags (writes to OUT, or stdout without OUT):
  --seed N             RNG seed                                  [7]
  --rate N             flow events per simulated second          [1000]
  --duration MS        stream length in virtual milliseconds     [1000]
  --zipf S             Zipf exponent (0 = uniform)               [1.1]
  --ingresses N        entry ports flows arrive on (l0..)        [4]
  --width N            header width in bits                      [16]
  --flows N            distinct flow headers per ingress         [64]
  --flowlet N          mean packets per flowlet                  [4]
  --burst P:A:M        every P ms, boost the rate xM for A ms

Trace files hold one event per line (# comments, blank lines ignored):
  install-policy l0 via l2:s0-s1-s2 rules 10**:drop:2,****:permit:1
  add-rule l0 01** drop 3 | modify-rule l0 r1 11** permit 4
  remove-rule l0 r0 | reroute l0 via l2:s0-s2 | capacity s1 4
  solve | checkpoint | rollback | switch-fail s1 | switch-recover s1

Fault schedules hold one fault per line (optional @EPOCH prefix, default 1):
  @2 fault install-reject s1 3 | @4 fault crash s1
  @6 fault recover s1 | @8 fault capacity s2 4

With any fault source active the replay exits 0 iff the fail-closed audit
passes; degraded event rejections are expected and do not fail the run.
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("place") => place(&args[1..]),
        Some("audit") => audit(&args[1..]),
        Some("gen-policy") => gen_policy(&args[1..]),
        Some("ctrl") => ctrl(&args[1..]),
        Some("traffic") => traffic_cmd(&args[1..]),
        Some("obs") => obs_cmd(&args[1..]),
        Some("help") | Some("--help") | Some("-h") | None => {
            print!("{HELP}");
            ExitCode::SUCCESS
        }
        Some(other) => {
            eprintln!("unknown command {other:?}; try `flowplace help`");
            ExitCode::from(2)
        }
    }
}

/// The flags each subcommand's help section documents; anything else is
/// a usage error, so a misspelt or retired flag cannot silently run with
/// the default it was meant to override.
const PLACE_FLAGS: &str = "topo capacity ingresses paths rules policy-file seed merging engine \
    objective iteration-limit verify tables export-lp trace-out metrics-out";
const AUDIT_FLAGS: &str = "dot metrics-out";
const GEN_POLICY_FLAGS: &str = "rules width seed profile";
const CTRL_REPLAY_FLAGS: &str = "topo capacity batch verbose faults fault-seed \
    reject-rate crash-rate recover-rate retries quarantine-after trace-out metrics-out cache \
    delegation traffic";
const TRAFFIC_GEN_FLAGS: &str = "seed rate duration zipf ingresses width flows flowlet burst";

/// Splits `args` into `--flag value` pairs and bare switches, rejecting
/// any flag not in the space-separated `known` list.
fn parse_flags(
    args: &[String],
    known: &str,
) -> Result<(BTreeMap<String, String>, Vec<String>), String> {
    const SWITCHES: &[&str] = &["--merging", "--verify", "--tables", "--verbose"];
    let mut flags = BTreeMap::new();
    let mut positional = Vec::new();
    let mut it = args.iter().peekable();
    while let Some(a) = it.next() {
        if let Some(name) = a.strip_prefix("--") {
            if !known.split_whitespace().any(|k| k == name) {
                return Err(format!("unknown flag {a}"));
            }
            if SWITCHES.contains(&a.as_str()) {
                flags.insert(name.to_string(), "true".to_string());
            } else {
                let v = it.next().ok_or_else(|| format!("flag {a} needs a value"))?;
                flags.insert(name.to_string(), v.clone());
            }
        } else {
            positional.push(a.clone());
        }
    }
    Ok((flags, positional))
}

/// A fresh [`Obs`](flowplace::obs::Obs) context when `--trace-out` or
/// `--metrics-out` was given, `None` otherwise (uninstrumented path).
fn obs_requested(flags: &BTreeMap<String, String>) -> Option<flowplace::obs::Obs> {
    if flags.contains_key("trace-out") || flags.contains_key("metrics-out") {
        Some(flowplace::obs::Obs::new())
    } else {
        None
    }
}

/// Writes the `--trace-out` / `--metrics-out` dumps, validating each
/// against the `flowplace.obs.v1` schema before touching the file.
fn write_obs_outputs(
    flags: &BTreeMap<String, String>,
    obs: Option<&flowplace::obs::Obs>,
) -> Result<(), String> {
    let Some(obs) = obs else { return Ok(()) };
    for (flag, text) in [
        ("trace-out", obs.trace_json()),
        ("metrics-out", obs.metrics_json()),
    ] {
        if let Some(path) = flags.get(flag) {
            flowplace::obs::validate_obs_json(&text)
                .map_err(|e| format!("--{flag}: invalid dump: {e}"))?;
            std::fs::write(path, &text).map_err(|e| format!("cannot write {path}: {e}"))?;
        }
    }
    Ok(())
}

fn get_usize(flags: &BTreeMap<String, String>, key: &str, default: usize) -> Result<usize, String> {
    match flags.get(key) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| format!("--{key}: bad number {v:?}")),
    }
}

/// [`get_usize`] for values stored as `u32`: out-of-range input is an
/// error here, not a silent `as` truncation downstream.
fn get_u32(flags: &BTreeMap<String, String>, key: &str, default: u32) -> Result<u32, String> {
    match flags.get(key) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| format!("--{key}: bad number {v:?}")),
    }
}

fn get_f64(flags: &BTreeMap<String, String>, key: &str, default: f64) -> Result<f64, String> {
    match flags.get(key) {
        None => Ok(default),
        Some(v) => match v.parse::<f64>() {
            Ok(p) if (0.0..=1.0).contains(&p) => Ok(p),
            _ => Err(format!("--{key}: bad probability {v:?} (want 0..=1)")),
        },
    }
}

/// Unclamped non-negative float parser (Zipf exponents and other
/// shape parameters; probabilities go through [`get_f64`]).
fn get_shape_f64(flags: &BTreeMap<String, String>, key: &str, default: f64) -> Result<f64, String> {
    match flags.get(key) {
        None => Ok(default),
        Some(v) => match v.parse::<f64>() {
            Ok(s) if s.is_finite() && s >= 0.0 => Ok(s),
            _ => Err(format!(
                "--{key}: bad value {v:?} (want a finite number >= 0)"
            )),
        },
    }
}

/// Largest `--topo` the CLI builds, in switches, links or entry ports.
/// A spec beyond it is a typo, and allocating for it aborts the process.
const MAX_TOPO_ELEMENTS: usize = 1 << 20;

/// Parses and validates a `--topo` spec here, so no input reaches the
/// documented panics of the `Topology` constructors.
fn build_topology(spec: &str) -> Result<Topology, String> {
    let (kind, params) = spec.split_once(':').unwrap_or((spec, ""));
    // `counts` of switches, links or entry ports; `None` is an overflow.
    let sized = |counts: &[Option<usize>]| {
        if counts
            .iter()
            .all(|c| c.is_some_and(|n| n <= MAX_TOPO_ELEMENTS))
        {
            Ok(())
        } else {
            Err(format!(
                "topology {spec:?} is too large (at most {MAX_TOPO_ELEMENTS} switches, links or entry ports)"
            ))
        }
    };
    match kind {
        "fat-tree" => {
            let k: usize = params
                .parse()
                .map_err(|_| format!("bad fat-tree arity {params:?}"))?;
            if k < 2 || !k.is_multiple_of(2) {
                return Err(format!("fat-tree arity {k} must be even and >= 2"));
            }
            // k³/2 links: more than its 5k²/4 switches or k³/4 ports.
            sized(&[k.checked_pow(3).map(|cube| cube / 2)])?;
            Ok(Topology::fat_tree(k))
        }
        "leaf-spine" => {
            let ps: Vec<usize> = params
                .split(',')
                .map(|p| {
                    p.parse()
                        .map_err(|_| format!("bad leaf-spine params {params:?}"))
                })
                .collect::<Result<_, _>>()?;
            let [spines, leaves, hosts] = ps[..] else {
                return Err("leaf-spine needs S,L,H".into());
            };
            if spines == 0 || leaves == 0 || hosts == 0 {
                return Err("leaf-spine S, L and H must be at least 1".into());
            }
            sized(&[
                spines.checked_add(leaves),
                spines.checked_mul(leaves),
                leaves.checked_mul(hosts),
            ])?;
            Ok(Topology::leaf_spine(spines, leaves, hosts))
        }
        "linear" => {
            let n: usize = params
                .parse()
                .map_err(|_| format!("bad linear length {params:?}"))?;
            if n == 0 {
                return Err("linear length must be at least 1".into());
            }
            sized(&[Some(n)])?;
            Ok(Topology::linear(n))
        }
        other => Err(format!("unknown topology kind {other:?}")),
    }
}

fn place(args: &[String]) -> ExitCode {
    match place_inner(args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

fn place_inner(args: &[String]) -> Result<ExitCode, String> {
    let (flags, positional) = parse_flags(args, PLACE_FLAGS)?;
    if !positional.is_empty() {
        return Err(format!("unexpected arguments: {positional:?}"));
    }
    let mut topo = build_topology(
        flags
            .get("topo")
            .map(String::as_str)
            .unwrap_or("fat-tree:4"),
    )?;
    let capacity = get_usize(&flags, "capacity", 40)?;
    topo.set_uniform_capacity(capacity);
    let ingresses = get_usize(&flags, "ingresses", 4)?;
    if ingresses > topo.entry_port_count() {
        return Err(format!(
            "{} ingresses exceed the topology's {} entry ports",
            ingresses,
            topo.entry_port_count()
        ));
    }
    let ppi = get_usize(&flags, "paths", 2)?;
    let seed = get_usize(&flags, "seed", 7)? as u64;

    let routes: RouteSet = shortest::routes_per_ingress(&topo, ppi, seed)
        .iter()
        .filter(|r| r.ingress.0 < ingresses)
        .cloned()
        .collect();

    let policies: Vec<(EntryPortId, Policy)> = match flags.get("policy-file") {
        Some(path) => {
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            let policy = textfmt::parse_policy(&text).map_err(|e| format!("{path}: {e}"))?;
            (0..ingresses)
                .map(|i| (EntryPortId(i), policy.clone()))
                .collect()
        }
        None => {
            let rules = get_usize(&flags, "rules", 10)?;
            let generator = Generator::new(Profile::Firewall, 16).with_seed(seed);
            (0..ingresses)
                .map(|i| (EntryPortId(i), generator.policy(rules, i as u64)))
                .collect()
        }
    };

    let instance =
        Instance::new(topo, routes, policies).map_err(|e| format!("invalid instance: {e}"))?;
    println!("{instance}");

    let engine = match flags.get("engine").map(String::as_str) {
        None | Some("ilp") => PlacerEngine::Ilp,
        Some("sat") => PlacerEngine::Sat,
        Some(other) => return Err(format!("unknown engine {other:?}")),
    };
    let objective = match flags.get("objective").map(String::as_str) {
        None | Some("rules") => Objective::TotalRules,
        Some("distance") => Objective::DistanceWeighted,
        Some(other) => return Err(format!("unknown objective {other:?}")),
    };
    let iteration_limit = get_usize(&flags, "iteration-limit", 32_000)?;
    let options = PlacementOptions {
        engine,
        merging: flags.contains_key("merging"),
        greedy_warm_start: true,
        mip: MipOptions {
            iteration_limit: Some(iteration_limit),
            ..MipOptions::default()
        },
        ..PlacementOptions::default()
    };

    if let Some(path) = flags.get("export-lp") {
        let enc = flowplace::core::encode_ilp::IlpEncoding::build(
            &instance,
            &objective,
            &flowplace::core::encode_ilp::EncodeOptions {
                merging: options.merging,
                ..Default::default()
            },
        );
        std::fs::write(path, flowplace::milp::to_lp_format(&enc.model))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("wrote LP model to {path}");
    }

    let obs = obs_requested(&flags);
    let started = std::time::Instant::now();
    let outcome = par::solve(&instance, objective, &options, obs.as_ref());
    let took = started.elapsed();
    write_obs_outputs(&flags, obs.as_ref())?;
    println!(
        "status: {} in {:?} ({} vars, {} rows, {} nodes)",
        outcome.status,
        took,
        outcome.stats.variables,
        outcome.stats.constraints,
        outcome.stats.nodes
    );
    let Some(placement) = outcome.placement else {
        return Ok(ExitCode::from(1));
    };
    println!(
        "installed {} rules (policies hold {}; duplication overhead {:+.1}%)",
        placement.total_rules(),
        instance.total_policy_rules(),
        placement.duplication_overhead(&instance) * 100.0
    );
    if !placement.merge_groups().is_empty() {
        println!("merge groups realized: {}", placement.merge_groups().len());
    }

    if flags.contains_key("tables") {
        let tabs = tables::emit_tables(&instance, &placement).map_err(|e| e.to_string())?;
        for (i, t) in tabs.iter().enumerate() {
            if !t.is_empty() {
                println!(
                    "-- {} ({} entries)",
                    instance.topology().switch(SwitchId(i)).name,
                    t.len()
                );
                print!("{t}");
            }
        }
    }
    if flags.contains_key("verify") {
        verify::verify_placement(&instance, &placement, 128, seed)
            .map_err(|e| format!("verification FAILED: {e}"))?;
        println!("verification passed");
    }
    Ok(ExitCode::SUCCESS)
}

fn audit(args: &[String]) -> ExitCode {
    match audit_inner(args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

fn audit_inner(args: &[String]) -> Result<(), String> {
    let (flags, positional) = parse_flags(args, AUDIT_FLAGS)?;
    let [path] = positional.as_slice() else {
        return Err("audit needs exactly one policy file".into());
    };
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let policy = textfmt::parse_policy(&text).map_err(|e| format!("{path}: {e}"))?;
    println!("{path}: {} rules", policy.len());

    let obs = obs_requested(&flags);
    let before = flowplace::acl::thread_arena_stats();
    let report = redundancy::remove_redundant(&policy);
    println!(
        "redundant rules: {} ({} kept)",
        report.removed_count(),
        report.policy.len()
    );
    for (id, rule, kind) in &report.removed {
        println!("  {id} {rule} ({kind:?})");
    }
    if let Some(obs) = obs.as_ref() {
        let mut stats = flowplace::acl::thread_arena_stats();
        stats.allocations -= before.allocations;
        stats.reuse_hits -= before.reuse_hits;
        flowplace::core::arena_obs::record_arena_gauges(obs, "redundancy", stats);
    }
    write_obs_outputs(&flags, obs.as_ref())?;

    let graph = DependencyGraph::build(&report.policy);
    println!("{graph}");
    if let Some(dot_path) = flags.get("dot") {
        std::fs::write(dot_path, graph.to_dot(&report.policy))
            .map_err(|e| format!("cannot write {dot_path}: {e}"))?;
        println!("wrote dependency graph to {dot_path}");
    }
    Ok(())
}

fn ctrl(args: &[String]) -> ExitCode {
    match args.first().map(String::as_str) {
        Some("replay") => match ctrl_replay_inner(&args[1..]) {
            Ok(code) => code,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::from(2)
            }
        },
        _ => {
            eprintln!("usage: flowplace ctrl replay FILE [FLAGS]; try `flowplace help`");
            ExitCode::from(2)
        }
    }
}

fn ctrl_replay_inner(args: &[String]) -> Result<ExitCode, String> {
    use flowplace::ctrl::{parse_fault_schedule, Controller, CtrlOptions, FaultPlan, RetryPolicy};

    let (flags, positional) = parse_flags(args, CTRL_REPLAY_FLAGS)?;
    let [path] = positional.as_slice() else {
        return Err("ctrl replay needs exactly one trace file".into());
    };
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;

    let mut topo = build_topology(flags.get("topo").map(String::as_str).unwrap_or("linear:4"))?;
    topo.set_uniform_capacity(get_usize(&flags, "capacity", 16)?);

    let mut faults = FaultPlan {
        seed: get_usize(&flags, "fault-seed", 0)? as u64,
        install_reject_rate: get_f64(&flags, "reject-rate", 0.0)?,
        crash_rate: get_f64(&flags, "crash-rate", 0.0)?,
        recover_rate: get_f64(&flags, "recover-rate", 0.0)?,
        ..FaultPlan::default()
    };
    if let Some(fpath) = flags.get("faults") {
        let ftext =
            std::fs::read_to_string(fpath).map_err(|e| format!("cannot read {fpath}: {e}"))?;
        faults.schedule = parse_fault_schedule(&ftext).map_err(|e| format!("{fpath}: {e}"))?;
    }
    let faulty = faults.is_active();

    let cache = match flags.get("cache") {
        None => flowplace::ctrl::CacheConfig::default(),
        Some(spec) => {
            flowplace::ctrl::CacheConfig::parse_spec(spec).map_err(|e| format!("--cache: {e}"))?
        }
    };
    let caching = cache.enabled;
    let delegation = match flags.get("delegation") {
        None => flowplace::ctrl::DelegationConfig::default(),
        Some(spec) => flowplace::ctrl::DelegationConfig::parse_spec(spec)
            .map_err(|e| format!("--delegation: {e}"))?,
    };
    let options = CtrlOptions {
        batch_size: get_usize(&flags, "batch", 8)?,
        cache,
        delegation,
        faults,
        retry: RetryPolicy {
            max_attempts: get_u32(&flags, "retries", 4)?,
            ..RetryPolicy::default()
        },
        quarantine_after: get_u32(&flags, "quarantine-after", 3)?,
        ..CtrlOptions::default()
    };
    let verbose = flags.contains_key("verbose");

    let mut ctrl = Controller::new(topo, options);
    if let Some(obs) = obs_requested(&flags) {
        ctrl.attach_obs(obs);
    }
    let reports = ctrl.replay_trace(&text).map_err(|e| e.to_string())?;

    for r in &reports {
        print!(
            "epoch {}: {} events, +{} -{} entries (peak {})",
            r.epoch,
            r.outcomes.len(),
            r.installed,
            r.removed,
            r.peak_occupancy
        );
        if r.injected > 0 {
            print!(", {} faults", r.injected);
        }
        if !r.quarantined.is_empty() {
            print!(", out of service {:?}", r.quarantined);
        }
        if !r.delegated.is_empty() {
            print!(", delegated {:?}", r.delegated);
        }
        if !r.safe_mode.is_empty() {
            print!(", safe mode {:?}", r.safe_mode);
        }
        println!();
        if verbose {
            for (event, outcome) in &r.outcomes {
                println!("  {event}  =>  {outcome:?}");
            }
        }
    }
    let mut cache_violation = false;
    if let Some(fpath) = flags.get("traffic") {
        if !caching {
            return Err("--traffic needs --cache (the flow stream drives the cache tier)".into());
        }
        let ftext =
            std::fs::read_to_string(fpath).map_err(|e| format!("cannot read {fpath}: {e}"))?;
        let flows = flowplace::traffic::parse_flows(&ftext).map_err(|e| format!("{fpath}: {e}"))?;
        let fr = ctrl.process_flows(&flows);
        println!(
            "flows: {} processed ({} hit, {} miss, {} unrouted), hit rate {:.1}% \
             ({} hits, {} misses, {} no-match)",
            fr.flows,
            fr.hit_flows,
            fr.miss_flows,
            fr.unrouted,
            fr.hit_rate() * 100.0,
            fr.hits,
            fr.misses,
            fr.no_match()
        );
        println!(
            "cache: {} lookups, {} inserts, {} evictions",
            fr.lookups, fr.inserts, fr.evictions
        );
        println!(
            "controller load: {} miss batches, {}ms punt latency",
            fr.miss_batches, fr.miss_latency_ms
        );
    }
    if caching {
        if let Err(e) = ctrl.cache().audit() {
            eprintln!("cache dependency audit FAILED: {e}");
            cache_violation = true;
        }
        if let Err(e) = ctrl.cache_fail_closed_audit() {
            eprintln!("cache fail-closed audit FAILED: {e}");
            cache_violation = true;
        }
        if ctrl.stats().cache_dep_violations > 0 {
            eprintln!(
                "cache dependency violations: {}",
                ctrl.stats().cache_dep_violations
            );
            cache_violation = true;
        }
        if !cache_violation {
            println!("cache audits: ok");
        }
    }
    println!("{}", ctrl.stats());
    print!("{}", ctrl.dataplane().dump());
    write_obs_outputs(&flags, ctrl.obs())?;

    if cache_violation {
        return Ok(ExitCode::from(1));
    }
    if faulty {
        // Under injected faults, individual events may legitimately be
        // rejected (degraded service); the pass/fail bar is the no-
        // false-negative invariant, checked by the fail-closed audit.
        match ctrl.fail_closed_audit() {
            Ok(()) => println!("fail-closed audit: ok"),
            Err(e) => {
                eprintln!("fail-closed audit FAILED: {e}");
                return Ok(ExitCode::from(1));
            }
        }
        if ctrl.stats().failclosed_violations > 0 {
            return Ok(ExitCode::from(1));
        }
    } else if ctrl.stats().verify_failures > 0 || ctrl.stats().events_failed > 0 {
        return Ok(ExitCode::from(1));
    }
    Ok(ExitCode::SUCCESS)
}

fn traffic_cmd(args: &[String]) -> ExitCode {
    match args.first().map(String::as_str) {
        Some("gen") => match traffic_gen_inner(&args[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::from(2)
            }
        },
        _ => {
            eprintln!("usage: flowplace traffic gen [OUT] [FLAGS]; try `flowplace help`");
            ExitCode::from(2)
        }
    }
}

fn traffic_gen_inner(args: &[String]) -> Result<(), String> {
    use flowplace::traffic::{format_flows, generate, BurstConfig, TrafficConfig};

    let (flags, positional) = parse_flags(args, TRAFFIC_GEN_FLAGS)?;
    let out = match positional.as_slice() {
        [] => None,
        [path] => Some(path.clone()),
        more => return Err(format!("unexpected arguments: {more:?}")),
    };
    let burst = match flags.get("burst") {
        None => None,
        Some(spec) => {
            let parts: Vec<u64> = spec
                .split(':')
                .map(|p| p.parse().map_err(|_| format!("--burst: bad spec {spec:?}")))
                .collect::<Result<_, _>>()?;
            let [period_ms, active_ms, multiplier] = parts.as_slice() else {
                return Err(format!("--burst: want PERIOD:ACTIVE:MULT, got {spec:?}"));
            };
            if *period_ms == 0 || *active_ms > *period_ms {
                return Err("--burst: need PERIOD > 0 and ACTIVE <= PERIOD".into());
            }
            Some(BurstConfig {
                period_ms: *period_ms,
                active_ms: *active_ms,
                multiplier: *multiplier,
            })
        }
    };
    let config = TrafficConfig {
        seed: get_usize(&flags, "seed", 7)? as u64,
        rate: get_usize(&flags, "rate", 1000)? as u64,
        duration_ms: get_usize(&flags, "duration", 1000)? as u64,
        zipf: get_shape_f64(&flags, "zipf", 1.1)?,
        ingresses: get_usize(&flags, "ingresses", 4)?,
        width: get_u32(&flags, "width", 16)?,
        flows_per_ingress: get_usize(&flags, "flows", 64)?,
        flowlet_len: get_usize(&flags, "flowlet", 4)? as u64,
        burst,
    };
    if config.ingresses == 0 || config.flows_per_ingress == 0 {
        return Err("--ingresses and --flows must be positive".into());
    }
    if config.width == 0 || config.width > 128 {
        return Err("--width must be in 1..=128".into());
    }
    // The samplers allocate one CDF slot per flow / ingress: bound both
    // by what --width can address and by a fixed ceiling.
    let limit = 1usize << config.width.min(24);
    if config.ingresses > limit || config.flows_per_ingress > limit {
        return Err(format!(
            "--ingresses and --flows must be at most {limit} (2^width, capped at 2^24)"
        ));
    }
    let flows = generate(&config);
    let text = format_flows(&flows);
    match out {
        Some(path) => {
            std::fs::write(&path, &text).map_err(|e| format!("cannot write {path}: {e}"))?;
            eprintln!("wrote {} flow events to {path}", flows.len());
        }
        None => print!("{text}"),
    }
    Ok(())
}

fn obs_cmd(args: &[String]) -> ExitCode {
    match args.first().map(String::as_str) {
        Some("summarize") => match obs_summarize_inner(&args[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::from(2)
            }
        },
        _ => {
            eprintln!("usage: flowplace obs summarize FILE...; try `flowplace help`");
            ExitCode::from(2)
        }
    }
}

fn obs_summarize_inner(args: &[String]) -> Result<(), String> {
    let (_flags, positional) = parse_flags(args, "")?;
    if positional.is_empty() {
        return Err("obs summarize needs at least one dump file".into());
    }
    for path in &positional {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        let doc = flowplace::obs::validate_obs_json(&text).map_err(|e| format!("{path}: {e}"))?;
        println!("== {path} ({}) ==", doc.kind());
        print!("{}", flowplace::obs::summary::summarize(&doc));
    }
    Ok(())
}

fn gen_policy(args: &[String]) -> ExitCode {
    match gen_policy_inner(args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

fn gen_policy_inner(args: &[String]) -> Result<(), String> {
    let (flags, positional) = parse_flags(args, GEN_POLICY_FLAGS)?;
    if !positional.is_empty() {
        return Err(format!("unexpected arguments: {positional:?}"));
    }
    let rules = get_usize(&flags, "rules", 20)?;
    let width = get_u32(&flags, "width", 16)?;
    if !(2..=128).contains(&width) {
        return Err("--width must be in 2..=128".into());
    }
    let seed = get_usize(&flags, "seed", 1)? as u64;
    let profile = match flags.get("profile").map(String::as_str) {
        None | Some("firewall") => Profile::Firewall,
        Some("acl") => Profile::Acl,
        Some("ipchain") => Profile::IpChain,
        Some(other) => return Err(format!("unknown profile {other:?}")),
    };
    let policy = Generator::new(profile, width)
        .with_seed(seed)
        .policy(rules, 0);
    print!("{}", textfmt::format_policy(&policy));
    Ok(())
}
