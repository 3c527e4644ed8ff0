//! The TCAM-as-cache tier's flow path: flow streams, miss batches,
//! cache resync and the cache's fail-closed audit.

use flowplace_fasthash::WordHashMap;
use flowplace_routing::RouteId;
use flowplace_topo::{EntryPortId, SwitchId};
use flowplace_traffic::FlowEvent;

use crate::{CacheConfig, CacheLookup, Controller, FlowReport, RuleCache};

impl Controller {
    /// The cache tier's state (residency, counters, audit hooks).
    pub fn cache(&self) -> &RuleCache {
        &self.cache
    }

    /// Mutable cache access for negative-control tests (pairs with
    /// [`RuleCache::force_evict_unsafe`]). Not part of the public API.
    #[doc(hidden)]
    pub fn cache_mut(&mut self) -> &mut RuleCache {
        &mut self.cache
    }

    /// Swaps in a new cache-tier configuration: residency restarts cold
    /// against the currently deployed tables, without paying the solve
    /// again. The benchmark's `flows-1k` workload restarts its cache
    /// this way before each flow pass.
    pub fn set_cache_config(&mut self, config: CacheConfig) {
        self.options.cache = config.clone();
        self.cache = RuleCache::new(config, self.dataplane.switch_count());
        self.resync_cache();
    }

    /// Re-synchronizes the cache tier with the freshly committed
    /// dataplane tables (no-op while the tier is disabled). Residency
    /// survives for entries the commit kept; the dependency closure is
    /// re-pulled and the capacity re-enforced.
    pub(crate) fn resync_cache(&mut self) {
        if !self.options.cache.enabled {
            return;
        }
        let dataplane = &self.dataplane;
        self.cache.set_target(
            (0..dataplane.switch_count()).map(|i| dataplane.switch(SwitchId(i)).entries()),
        );
        if self.cache.audit().is_err() {
            self.stats.cache_dep_violations += 1;
        }
        self.sync_cache_stats();
    }

    /// Copies the cache tier's cumulative counters into [`CtrlStats`]
    /// (absolute-value sync).
    fn sync_cache_stats(&mut self) {
        let c = *self.cache.counters();
        self.stats.cache_lookups = c.lookups;
        self.stats.cache_hits = c.hits;
        self.stats.cache_misses = c.misses;
        self.stats.cache_inserts = c.inserts;
        self.stats.cache_evictions = c.evictions;
        self.stats.cache_closure_pulls = c.closure_pulls;
        self.stats.cache_uncacheable = c.uncacheable;
    }

    /// Runs a flow-event stream (see [`flowplace_traffic`]) against the
    /// cache tier: each flow picks one of its ingress's routes
    /// deterministically (header-hash ECMP), every on-path switch looks
    /// the packet up in its cached TCAM, and misses punt to the
    /// controller, which batches them (per [`CacheConfig::miss_batch`]),
    /// inserts the missed entries dependency-closed and charges the punt
    /// latency to the virtual clock. Controller load is the punts
    /// themselves, counted in miss batches; no solver runs. The tier is
    /// audited after every batch and at the end; violations land in
    /// [`CtrlStats::cache_dep_violations`](crate::CtrlStats::cache_dep_violations) (and must stay zero).
    ///
    /// Flows over ingresses with no routes, or whose route crosses a
    /// crashed switch, count as `unrouted` and touch nothing.
    pub fn process_flows(&mut self, flows: &[FlowEvent]) -> FlowReport {
        let span = self.span_begin("cache.flows");
        self.span_attr(span, "flows", flows.len());
        let before = *self.cache.counters();
        let mut report = FlowReport {
            flows: flows.len() as u64,
            ..FlowReport::default()
        };
        let mut pending: Vec<(SwitchId, usize)> = Vec::new();
        let mut punts_since_flush: u64 = 0;
        // Each ingress's routes in route order, listed once: no flow
        // changes the instance.
        let mut paths_from: WordHashMap<EntryPortId, Vec<RouteId>> = WordHashMap::default();
        for (id, route) in self.instance.routes().iter_with_ids() {
            paths_from.entry(route.ingress).or_default().push(id);
        }
        // The picked route's switches, copied out so the loop below can
        // borrow the controller mutably; one buffer for the whole call.
        let mut hops: Vec<SwitchId> = Vec::new();
        for ev in flows {
            let delta = ev.at_ms.saturating_sub(self.faults.clock.now_ms());
            if delta > 0 {
                self.faults.clock.advance(delta);
            }
            let Some(paths) = paths_from.get(&ev.ingress) else {
                report.unrouted += 1;
                continue;
            };
            let pick = (ev.packet.bits() % paths.len() as u128) as usize;
            hops.clear();
            hops.extend_from_slice(&self.instance.routes().route(paths[pick]).switches);
            if !hops.iter().all(|&s| self.dataplane.is_online(s)) {
                report.unrouted += 1;
                continue;
            }
            let mut missed = false;
            for &s in &hops {
                match self.cache.lookup(s, ev.ingress, &ev.packet) {
                    CacheLookup::Hit(action) => {
                        if action.is_drop() {
                            break;
                        }
                    }
                    CacheLookup::Miss { action, slot } => {
                        missed = true;
                        punts_since_flush += 1;
                        if !pending.contains(&(s, slot)) {
                            pending.push((s, slot));
                        }
                        if punts_since_flush >= self.options.cache.miss_batch.max(1) as u64 {
                            self.flush_miss_batch(&mut pending, punts_since_flush, &mut report);
                            punts_since_flush = 0;
                        }
                        if action.is_drop() {
                            break;
                        }
                    }
                    CacheLookup::NoMatch => {}
                }
            }
            if missed {
                report.miss_flows += 1;
            } else {
                report.hit_flows += 1;
            }
        }
        self.flush_miss_batch(&mut pending, punts_since_flush, &mut report);
        if self.cache.audit().is_err() {
            self.stats.cache_dep_violations += 1;
        }
        let after = *self.cache.counters();
        report.lookups = after.lookups - before.lookups;
        report.hits = after.hits - before.hits;
        report.misses = after.misses - before.misses;
        report.inserts = after.inserts - before.inserts;
        report.evictions = after.evictions - before.evictions;
        report.dep_violations = self.stats.cache_dep_violations;
        self.sync_cache_stats();
        self.record_epoch_metrics();
        self.span_attr(span, "hits", report.hits);
        self.span_attr(span, "misses", report.misses);
        self.span_end(span);
        report
    }

    /// Flushes one batch of cache misses: inserts the missed entries
    /// (dependency-closed, policy-evicted), charges the punt latency
    /// (`MISS_PENALTY_MS` per punt), counts the batch, and audits the
    /// tier. The instance is unchanged, so there is nothing to re-solve.
    fn flush_miss_batch(
        &mut self,
        pending: &mut Vec<(SwitchId, usize)>,
        punts: u64,
        report: &mut FlowReport,
    ) {
        /// Virtual milliseconds of controller punt latency charged per
        /// missed packet.
        const MISS_PENALTY_MS: u64 = 1;
        if pending.is_empty() {
            return;
        }
        let span = self.span_begin("cache.miss_batch");
        self.span_attr(span, "misses", punts);
        self.span_attr(span, "entries", pending.len());
        for (s, slot) in pending.drain(..) {
            self.cache.insert(s, slot);
        }
        let penalty = MISS_PENALTY_MS * punts.max(1);
        self.faults.clock.advance(penalty);
        report.miss_latency_ms += penalty;
        self.stats.cache_miss_latency_ms += penalty;
        report.miss_batches += 1;
        self.stats.cache_miss_batches += 1;
        if self.cache.audit().is_err() {
            self.stats.cache_dep_violations += 1;
        }
        self.span_end(span);
    }

    /// Audits the cache tier's *resident* TCAM state against the
    /// fail-closed invariant, with the punt path modelled as a drop
    /// (see [`RuleCache::audit_tables`]): on every live route, any
    /// packet the ingress policy drops is dropped — or punted — by the
    /// resident entries alone. Trivially green while the tier is
    /// disabled.
    ///
    /// # Errors
    ///
    /// A description of the first leaking packet.
    pub fn cache_fail_closed_audit(&self) -> Result<(), String> {
        if !self.options.cache.enabled {
            return Ok(());
        }
        self.audit_fail_closed(&self.cache.audit_tables())
    }
}
