//! The benchmark's metric names and units, in output order. The same
//! lists are in `BENCHMARK.json`; `tests/smoke.rs` holds them equal.

/// What a user of the controller sees. Measured with tracing off.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("throughput_events_s", "1/s"),
    ("call_p50_ms", "ms"),
    ("rules_placed", "count"),
    ("peak_rss_mb", "MB"),
];

/// Single layers, named after their modules. Times are means per timed
/// call of the traced round; counts are totals over it. A layer a
/// workload never calls reads 0 there.
pub const PER_LAYER: [(&str, &str); 51] = [
    ("classbench.generate_ms", "ms"),
    ("routing.routes_ms", "ms"),
    ("traffic.generate_ms", "ms"),
    ("core.depgraph.build_ms", "ms"),
    ("core.candidates.build_ms", "ms"),
    ("core.encode_sat.build_ms", "ms"),
    ("core.encode_sat.vars", "count"),
    ("core.encode_sat.constraints", "count"),
    ("pbsat.solve_ms", "ms"),
    ("pbsat.conflicts", "count"),
    ("pbsat.propagations", "count"),
    ("pbsat.decisions", "count"),
    ("core.encode_ilp.build_ms", "ms"),
    ("core.encode_ilp.vars", "count"),
    ("core.encode_ilp.rows", "count"),
    ("milp.solve_ms", "ms"),
    ("milp.nodes", "count"),
    ("milp.lp_iterations", "count"),
    ("core.incremental.reroute_ms", "ms"),
    ("core.incremental.add_remove_ms", "ms"),
    ("core.tables.emit_ms", "ms"),
    ("core.verify.ms", "ms"),
    ("ctrl.dataplane.diff_ms", "ms"),
    ("ctrl.dataplane.apply_ms", "ms"),
    ("core.warm.memo_hits", "count"),
    ("core.warm.memo_misses", "count"),
    ("core.warm.depgraphs_reused", "count"),
    ("core.warm.candidates_reused", "count"),
    ("ctrl.cache.lookup_ns", "ns"),
    ("ctrl.cache.lookups", "count"),
    ("ctrl.cache.hits", "count"),
    ("ctrl.cache.misses", "count"),
    ("ctrl.cache.inserts", "count"),
    ("ctrl.cache.evictions", "count"),
    ("ctrl.cache.resolves", "count"),
    ("acl.classify.ns_per_packet", "ns"),
    ("acl.arena.allocations", "count"),
    ("acl.arena.reuse_hits", "count"),
    ("ctrl.call_mean_ms", "ms"),
    ("ctrl.call_p99_ms", "ms"),
    ("ctrl.unattributed_ms", "ms"),
    ("ctrl.tier.greedy", "count"),
    ("ctrl.tier.restricted", "count"),
    ("ctrl.tier.full", "count"),
    ("ctrl.tier.delegated", "count"),
    ("ctrl.events_failed", "count"),
    ("ctrl.tcam_writes_per_event", "count"),
    ("driver.round_spread", "ratio"),
    ("driver.setup_spread", "ratio"),
    ("driver.cpu_share", "ratio"),
    ("driver.trace_overhead_share", "ratio"),
];

/// The steps of a timed call. The shadow's spans carry these names;
/// their per-call means and `ctrl.unattributed_ms` add up to
/// `ctrl.call_mean_ms`.
pub const CALL_STEPS: [&str; 12] = [
    "core.depgraph.build_ms",
    "core.candidates.build_ms",
    "core.encode_sat.build_ms",
    "pbsat.solve_ms",
    "core.encode_ilp.build_ms",
    "milp.solve_ms",
    "core.incremental.reroute_ms",
    "core.incremental.add_remove_ms",
    "core.tables.emit_ms",
    "core.verify.ms",
    "ctrl.dataplane.diff_ms",
    "ctrl.dataplane.apply_ms",
];

/// The two spans of the flow path, measured per lookup and per probe
/// rather than per call. The classifier probe happens inside the cache
/// lookup (and inside the verifier), so only the lookup is a step.
pub const CACHE_LOOKUP: &str = "ctrl.cache.lookup_ns";
pub const CLASSIFY: &str = "acl.classify.ns_per_packet";

/// Counts the shadow steps and the flow reports add to the tracer
/// under the metric's own name.
pub const TRACED_COUNTS: [&str; 17] = [
    "core.encode_sat.vars",
    "core.encode_sat.constraints",
    "pbsat.conflicts",
    "pbsat.propagations",
    "pbsat.decisions",
    "core.encode_ilp.vars",
    "core.encode_ilp.rows",
    "milp.nodes",
    "milp.lp_iterations",
    "ctrl.cache.lookups",
    "ctrl.cache.hits",
    "ctrl.cache.misses",
    "ctrl.cache.inserts",
    "ctrl.cache.evictions",
    "ctrl.cache.resolves",
    "acl.arena.allocations",
    "acl.arena.reuse_hits",
];
