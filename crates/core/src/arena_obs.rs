//! Cube-arena allocation statistics as observability gauges.
//!
//! Bridges [`flowplace_acl::ArenaStats`] — the reuse counters of the
//! calling thread's cube arena, read with
//! [`flowplace_acl::thread_arena_stats`] — into `flowplace-obs` gauges
//! so dumps carry the allocator profile of the cube algebra. The
//! counters are deterministic integers, so a difference taken around
//! single-threaded work (the CLI's redundancy audit) keeps dumps
//! byte-reproducible; do **not** record them from parallel stages,
//! where the per-thread split of work is not deterministic.

use flowplace_acl::ArenaStats;
use flowplace_obs::Obs;

/// Records `stats` as `arena.allocations` / `arena.reuse_hits` /
/// `arena.peak_bytes` gauges labelled with `scope` (e.g. `redundancy`,
/// `micro`). Gauges are *set*, not added: each call publishes the
/// arena's cumulative counters as-of-now.
pub fn record_arena_gauges(obs: &Obs, scope: &str, stats: ArenaStats) {
    let labels: &[(&str, &str)] = &[("scope", scope)];
    obs.metrics
        .gauge_set("arena.allocations", labels, stats.allocations as i64);
    obs.metrics
        .gauge_set("arena.reuse_hits", labels, stats.reuse_hits as i64);
    obs.metrics
        .gauge_set("arena.peak_bytes", labels, stats.peak_bytes as i64);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gauges_are_recorded_with_scope_label() {
        let obs = Obs::new();
        let stats = ArenaStats {
            allocations: 3,
            reuse_hits: 40,
            peak_bytes: 1024,
        };
        record_arena_gauges(&obs, "redundancy", stats);
        let json = obs.metrics_json();
        assert!(json.contains("arena.allocations"));
        assert!(json.contains("arena.reuse_hits"));
        assert!(json.contains("arena.peak_bytes"));
        assert!(json.contains("redundancy"));
        // Same stats → identical dump bytes.
        let obs2 = Obs::new();
        record_arena_gauges(&obs2, "redundancy", stats);
        assert_eq!(json, obs2.metrics_json());
    }
}
