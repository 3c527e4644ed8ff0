//! Controller counters.

use crate::Tier;
use flowplace_obs::Registry;
use std::fmt;

/// Cumulative counters for one [`Controller`](crate::Controller).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CtrlStats {
    /// Events accepted into the queue.
    pub events_in: u64,
    /// Events refused at submission because the queue was full.
    pub events_rejected: u64,
    /// Events that failed during processing (infeasible after the full
    /// ladder, bad references, nothing to roll back).
    pub events_failed: u64,
    /// Epochs committed.
    pub epochs: u64,
    /// Non-empty diffs applied to the dataplane.
    pub diffs_applied: u64,
    /// TCAM entries installed, cumulative.
    pub entries_installed: u64,
    /// TCAM entries removed, cumulative.
    pub entries_removed: u64,
    /// Events settled at the greedy incremental tier.
    pub greedy_ok: u64,
    /// Events settled at the restricted re-solve tier.
    pub restricted_ok: u64,
    /// Events settled at the full re-solve tier.
    pub full_ok: u64,
    /// Events settled at the delegation rung (routes detoured through
    /// an off-route delegate with spare TCAM).
    pub delegated_ok: u64,
    /// Commits whose golden-model verification failed (the epoch is
    /// discarded, never deployed).
    pub verify_failures: u64,
    /// Checkpoints taken.
    pub checkpoints: u64,
    /// Rollbacks performed.
    pub rollbacks: u64,
    /// Highest per-switch occupancy ever reached, including transient
    /// make-before-break overshoot.
    pub peak_tcam_occupancy: usize,
    /// Deepest the event queue ever got.
    pub max_queue_depth: usize,
    /// Dataplane faults injected (scripted + probabilistic).
    pub faults_injected: u64,
    /// TCAM installs retried after a rejection.
    pub install_retries: u64,
    /// Virtual milliseconds spent in retry backoff.
    pub backoff_ms: u64,
    /// Switches quarantined by a tripped circuit breaker.
    pub quarantines: u64,
    /// Switch crashes observed (events + injected faults).
    pub switch_crashes: u64,
    /// Switch recoveries observed.
    pub switch_recoveries: u64,
    /// Safe-mode drop-all entries installed, cumulative.
    pub safe_mode_entries: u64,
    /// Delegations established (commit-level rung + event-level
    /// capacity rescues).
    pub delegations: u64,
    /// Delegations re-established for an ingress whose previous
    /// delegation was torn down in the same degradation pass
    /// (delegate/anchor crash or quarantine cascaded a re-home).
    pub delegation_rehomes: u64,
    /// Delegations torn down fail-closed because the delegate or an
    /// anchor left the controller's reach (or the routes moved away).
    pub delegation_teardowns: u64,
    /// Delegations retired opportunistically: a lift-round re-solve
    /// placed the ingress without the detour (capacity returned).
    pub undelegations: u64,
    /// Delegation redirect stubs installed, cumulative.
    pub delegation_stub_entries: u64,
    /// Anti-entropy reconciliation passes that applied repairs.
    pub reconcile_runs: u64,
    /// TCAM entries churned by reconciliation repairs.
    pub reconcile_churn: u64,
    /// Fail-closed audit violations ever observed after a commit. Must
    /// stay zero: a nonzero value means a packet that the policy drops
    /// could traverse a live route un-dropped.
    pub failclosed_violations: u64,
    /// Always 0: there is no placement memo. Only the benchmark reads
    /// it.
    pub warm_memo_hits: u64,
    /// Always 0: there is no placement memo. Only the benchmark reads
    /// it.
    pub warm_memo_misses: u64,
    /// Always 0: no solve reuses another's dependency graphs. Only the
    /// benchmark reads it.
    pub warm_depgraphs_reused: u64,
    /// Always 0: no solve reuses another's candidate sets. Only the
    /// benchmark reads it.
    pub warm_candidates_reused: u64,
    /// Cache-tier lookups (per-switch, per-flow).
    pub cache_lookups: u64,
    /// Cache lookups answered by a resident TCAM entry.
    pub cache_hits: u64,
    /// Cache lookups punted to the controller.
    pub cache_misses: u64,
    /// Entries made resident in the cache tier.
    pub cache_inserts: u64,
    /// Entries evicted from the cache tier (cascades included).
    pub cache_evictions: u64,
    /// Ancestor entries pulled resident to preserve the dependency
    /// closure invariant.
    pub cache_closure_pulls: u64,
    /// Insertions skipped because the dependency closure alone exceeds
    /// the cache capacity.
    pub cache_uncacheable: u64,
    /// Miss batches flushed through the controller (controller load).
    pub cache_miss_batches: u64,
    /// Virtual milliseconds of controller punt latency charged to
    /// cache misses.
    pub cache_miss_latency_ms: u64,
    /// Dependency-safety audit violations in the cache tier. Must stay
    /// zero: a nonzero value means an eviction stranded a dependent
    /// entry and the resident TCAM could invert a decision.
    pub cache_dep_violations: u64,
}

impl CtrlStats {
    /// Total TCAM entries churned (installed + removed).
    pub fn rules_churned(&self) -> u64 {
        self.entries_installed + self.entries_removed
    }

    /// Events that escalated past the greedy tier.
    pub fn escalations(&self) -> u64 {
        self.restricted_ok + self.full_ok + self.delegated_ok
    }

    /// The counter tracking events settled at `tier`. The match is
    /// exhaustive on purpose: adding a ladder rung without a counter
    /// fails to compile, and the completeness test pins each counter's
    /// presence in the [`export`](CtrlStats::export) mirror.
    pub fn tier_counter(&self, tier: Tier) -> u64 {
        match tier {
            Tier::Greedy => self.greedy_ok,
            Tier::Restricted => self.restricted_ok,
            Tier::Full => self.full_ok,
            Tier::Delegated => self.delegated_ok,
        }
    }

    /// Mirrors every counter but the four always-0 `warm_*` fields onto
    /// an observability registry under the `ctrl.*` / `cache.*`
    /// namespaces (absolute-value sync — the fields here stay the source
    /// of truth and all public accessors keep working; the registry is a
    /// read-only projection).
    pub fn export(&self, metrics: &Registry) {
        let counters: &[(&str, u64)] = &[
            ("ctrl.events_in", self.events_in),
            ("ctrl.events_rejected", self.events_rejected),
            ("ctrl.events_failed", self.events_failed),
            ("ctrl.epochs", self.epochs),
            ("ctrl.diffs_applied", self.diffs_applied),
            ("ctrl.entries_installed", self.entries_installed),
            ("ctrl.entries_removed", self.entries_removed),
            ("ctrl.greedy_ok", self.greedy_ok),
            ("ctrl.restricted_ok", self.restricted_ok),
            ("ctrl.full_ok", self.full_ok),
            ("ctrl.delegated_ok", self.delegated_ok),
            ("ctrl.verify_failures", self.verify_failures),
            ("ctrl.checkpoints", self.checkpoints),
            ("ctrl.rollbacks", self.rollbacks),
            ("faults.injected_total", self.faults_injected),
            ("dataplane.install_retries", self.install_retries),
            ("dataplane.backoff_ms_total", self.backoff_ms),
            ("ctrl.quarantines", self.quarantines),
            ("ctrl.switch_crashes", self.switch_crashes),
            ("ctrl.switch_recoveries", self.switch_recoveries),
            ("ctrl.safe_mode_entries", self.safe_mode_entries),
            ("ctrl.delegate.delegations", self.delegations),
            ("ctrl.delegate.rehomes", self.delegation_rehomes),
            ("ctrl.delegate.teardowns", self.delegation_teardowns),
            ("ctrl.delegate.undelegations", self.undelegations),
            ("ctrl.delegate.stub_entries", self.delegation_stub_entries),
            ("ctrl.reconcile_runs", self.reconcile_runs),
            ("ctrl.reconcile_churn", self.reconcile_churn),
            ("ctrl.failclosed_violations", self.failclosed_violations),
            ("cache.lookups", self.cache_lookups),
            ("cache.hits", self.cache_hits),
            ("cache.misses", self.cache_misses),
            ("cache.inserts", self.cache_inserts),
            ("cache.evictions", self.cache_evictions),
            ("cache.closure_pulls", self.cache_closure_pulls),
            ("cache.uncacheable", self.cache_uncacheable),
            ("cache.miss_batches", self.cache_miss_batches),
            ("cache.miss_latency_ms", self.cache_miss_latency_ms),
            ("cache.dep_violations", self.cache_dep_violations),
        ];
        for (name, value) in counters {
            metrics.counter_set(name, &[], *value);
        }
        metrics.gauge_set(
            "ctrl.peak_tcam_occupancy",
            &[],
            self.peak_tcam_occupancy as i64,
        );
        metrics.gauge_set("ctrl.max_queue_depth", &[], self.max_queue_depth as i64);
    }
}

impl fmt::Display for CtrlStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "events: {} in, {} rejected, {} failed",
            self.events_in, self.events_rejected, self.events_failed
        )?;
        writeln!(
            f,
            "tiers: {} greedy, {} restricted, {} full, {} delegated",
            self.greedy_ok, self.restricted_ok, self.full_ok, self.delegated_ok
        )?;
        writeln!(
            f,
            "epochs: {} committed, {} diffs, {} installed, {} removed ({} churned)",
            self.epochs,
            self.diffs_applied,
            self.entries_installed,
            self.entries_removed,
            self.rules_churned()
        )?;
        writeln!(
            f,
            "safety: {} verify failures, {} checkpoints, {} rollbacks",
            self.verify_failures, self.checkpoints, self.rollbacks
        )?;
        writeln!(
            f,
            "pressure: peak tcam occupancy {}, max queue depth {}",
            self.peak_tcam_occupancy, self.max_queue_depth
        )?;
        writeln!(
            f,
            "faults: {} injected, {} retries, {}ms backoff, {} quarantines, {} crashes, {} recoveries",
            self.faults_injected,
            self.install_retries,
            self.backoff_ms,
            self.quarantines,
            self.switch_crashes,
            self.switch_recoveries
        )?;
        writeln!(
            f,
            "degradation: {} safe-mode entries, {} reconcile runs ({} churned), {} fail-closed violations",
            self.safe_mode_entries,
            self.reconcile_runs,
            self.reconcile_churn,
            self.failclosed_violations
        )?;
        writeln!(
            f,
            "delegation: {} delegations ({} rehomed), {} teardowns, {} undelegations, {} stubs installed",
            self.delegations,
            self.delegation_rehomes,
            self.delegation_teardowns,
            self.undelegations,
            self.delegation_stub_entries
        )?;
        write!(
            f,
            "cache: {} hits / {} misses ({} lookups), {} inserts ({} pulled), {} evictions, {} uncacheable, {} miss batches ({}ms punt), {} dep violations",
            self.cache_hits,
            self.cache_misses,
            self.cache_lookups,
            self.cache_inserts,
            self.cache_closure_pulls,
            self.cache_evictions,
            self.cache_uncacheable,
            self.cache_miss_batches,
            self.cache_miss_latency_ms,
            self.cache_dep_violations
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_counters() {
        let stats = CtrlStats {
            entries_installed: 7,
            entries_removed: 3,
            restricted_ok: 2,
            full_ok: 1,
            ..CtrlStats::default()
        };
        assert_eq!(stats.rules_churned(), 10);
        assert_eq!(stats.escalations(), 3);
        let text = stats.to_string();
        assert!(text.contains("2 restricted"));
        assert!(text.contains("10 churned"));
    }

    #[test]
    fn fault_counters_render() {
        let stats = CtrlStats {
            faults_injected: 5,
            install_retries: 3,
            quarantines: 1,
            safe_mode_entries: 2,
            ..CtrlStats::default()
        };
        let text = stats.to_string();
        assert!(text.contains("5 injected"));
        assert!(text.contains("3 retries"));
        assert!(text.contains("1 quarantines"));
        assert!(text.contains("2 safe-mode entries"));
        assert!(text.contains("0 fail-closed violations"));
    }

    #[test]
    fn export_mirrors_onto_registry_idempotently() {
        let stats = CtrlStats {
            events_in: 5,
            quarantines: 2,
            peak_tcam_occupancy: 7,
            ..CtrlStats::default()
        };
        let reg = Registry::new();
        stats.export(&reg);
        assert_eq!(reg.counter_value("ctrl.events_in", &[]), 5);
        assert_eq!(reg.counter_value("ctrl.quarantines", &[]), 2);
        assert_eq!(reg.gauge_value("ctrl.peak_tcam_occupancy", &[]), Some(7));
        // Absolute-value sync: re-exporting must not double count.
        stats.export(&reg);
        assert_eq!(reg.counter_value("ctrl.events_in", &[]), 5);
    }

    #[test]
    fn every_tier_round_trips_through_the_metrics_mirror() {
        // Completeness guard: a new ladder rung must get a counter
        // (tier_counter's exhaustive match), an entry in Tier::ALL
        // (pinned in the lib tests), and an export line named after its
        // Display form — this test fails on a missing export line.
        let stats = CtrlStats {
            greedy_ok: 1,
            restricted_ok: 2,
            full_ok: 3,
            delegated_ok: 4,
            ..CtrlStats::default()
        };
        let reg = Registry::new();
        stats.export(&reg);
        for tier in Tier::ALL {
            let name = format!("ctrl.{tier}_ok");
            assert!(
                stats.tier_counter(tier) > 0,
                "test must give {tier} a distinct value"
            );
            assert_eq!(
                reg.counter_value(&name, &[]),
                stats.tier_counter(tier),
                "{name} missing from the export mirror"
            );
        }
    }

    #[test]
    fn delegation_counters_render_and_export() {
        let stats = CtrlStats {
            delegated_ok: 2,
            delegations: 5,
            delegation_rehomes: 1,
            delegation_teardowns: 3,
            undelegations: 2,
            delegation_stub_entries: 4,
            ..CtrlStats::default()
        };
        let text = stats.to_string();
        assert!(text.contains("2 delegated"), "{text}");
        assert!(
            text.contains("delegation: 5 delegations (1 rehomed), 3 teardowns, 2 undelegations, 4 stubs installed"),
            "{text}"
        );
        let reg = Registry::new();
        stats.export(&reg);
        assert_eq!(reg.counter_value("ctrl.delegated_ok", &[]), 2);
        assert_eq!(reg.counter_value("ctrl.delegate.delegations", &[]), 5);
        assert_eq!(reg.counter_value("ctrl.delegate.rehomes", &[]), 1);
        assert_eq!(reg.counter_value("ctrl.delegate.teardowns", &[]), 3);
        assert_eq!(reg.counter_value("ctrl.delegate.undelegations", &[]), 2);
        assert_eq!(reg.counter_value("ctrl.delegate.stub_entries", &[]), 4);
    }

    #[test]
    fn cache_counters_render_and_export() {
        let stats = CtrlStats {
            cache_lookups: 10,
            cache_hits: 7,
            cache_misses: 3,
            cache_inserts: 3,
            cache_closure_pulls: 1,
            cache_evictions: 2,
            cache_miss_batches: 1,
            cache_miss_latency_ms: 3,
            ..CtrlStats::default()
        };
        let text = stats.to_string();
        assert!(text.contains("cache: 7 hits / 3 misses (10 lookups)"));
        assert!(text.contains("3 inserts (1 pulled)"));
        assert!(text.contains("0 uncacheable, 1 miss batches (3ms punt)"));
        assert!(text.contains("0 dep violations"));
        let reg = Registry::new();
        stats.export(&reg);
        assert_eq!(reg.counter_value("cache.hits", &[]), 7);
        assert_eq!(reg.counter_value("cache.misses", &[]), 3);
        assert_eq!(reg.counter_value("cache.dep_violations", &[]), 0);
    }
}
