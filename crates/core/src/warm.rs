//! Warm-path incremental solving: epoch-over-epoch reuse for the
//! placement pipeline (the §IV-E update stream, made cheap).
//!
//! A controller that re-solves after every small policy update, or
//! replays a rolled-back epoch, solves again an instance it already
//! solved. This module answers those re-solves from memory:
//!
//! 1. **Fingerprints.** A stable 64-bit hash ([`Fingerprint`]) over
//!    policy rules, routes, and slices identifies each ingress
//!    ([`fingerprint_ingress`]) and the whole instance
//!    ([`fingerprint_instance`]). Fingerprints are pure functions of the
//!    problem data — no addresses, no iteration-order dependence — so
//!    they are stable across processes and replays.
//! 2. **Placement memo.** [`WarmCache`] memoizes solved instances under
//!    their full instance fingerprint (policies + routes + capacities +
//!    options + objective), so [`crate::par::solve`] given a
//!    [`crate::SolveCtx::warm`] answers a checkpoint → rollback →
//!    re-apply cycle with the cached outcome in O(1) instead of
//!    re-solving. A miss runs the whole pipeline, stages 1–2 included.
//!
//! # Determinism contract
//!
//! The warm path is **byte-identical** to the cold path: the memo key
//! covers every input of the solve, and a memo hit is the
//! cold outcome, field for field — placement, status, objective and
//! effort statistics; an outcome holds no clock reading. Nothing here
//! knows either encoding or keeps solver state — stage 3 is a function
//! of (instance, options, objective) alone, which is what makes the memo
//! sound, a search cut by its iteration budget included: the budget
//! counts work, not seconds. The differential suite asserts the contract
//! over seeded §IV-E update streams on both engines, including across
//! rollback.

use std::cell::RefCell;
use std::collections::VecDeque;

use flowplace_acl::Policy;
use flowplace_topo::EntryPortId;

use crate::placement::{PlacementOptions, PlacementOutcome};
use crate::{Instance, Objective, PlacerEngine};

/// A stable 64-bit content hash (FNV-1a over a canonical serialization).
///
/// The placement-memo key. Keys are pure functions of problem data, so
/// equal problems hash equal across processes; distinct problems
/// colliding is the usual 64-bit-hash assumption (and the differential
/// suite would catch a systematic break).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug, Hash)]
pub struct Fingerprint(pub u64);

/// Incremental FNV-1a hasher over canonical little-endian words — the
/// shared implementation from `flowplace-fasthash`, re-aliased so the
/// fingerprint functions below read the same as ever. `finish` returns
/// the raw `u64`; wrap it in [`Fingerprint`] at the call site.
type Fnv = flowplace_fasthash::Fnv64;

/// Fingerprint of one policy: width plus `(care, value, action,
/// priority)` of every rule in priority order.
pub fn fingerprint_policy(policy: &Policy) -> Fingerprint {
    let mut h = Fnv::new();
    h.u64(policy.width() as u64);
    h.usize(policy.len());
    for (id, rule) in policy.iter() {
        h.usize(id.0);
        h.u128(rule.match_field().care());
        h.u128(rule.match_field().value());
        h.bool(rule.action().is_drop());
        h.u64(rule.priority() as u64);
    }
    Fingerprint(h.finish())
}

/// Fingerprint of one ingress: its policy plus every route from it
/// (egress, switch sequence, and flow slice) — everything its candidate
/// sets depend on (capacities enter only at solve time).
pub fn fingerprint_ingress(instance: &Instance, ingress: EntryPortId) -> Fingerprint {
    let mut h = Fnv::new();
    h.usize(ingress.0);
    let policy_fp = instance
        .policy(ingress)
        .map(fingerprint_policy)
        .unwrap_or(Fingerprint(0));
    h.u64(policy_fp.0);
    let paths = instance.routes().paths_from(ingress);
    h.usize(paths.len());
    for rid in paths {
        let route = instance.routes().route(rid);
        h.usize(route.egress.0);
        h.usize(route.switches.len());
        for s in &route.switches {
            h.usize(s.0);
        }
        hash_flow(&mut h, &route.flow);
    }
    Fingerprint(h.finish())
}

/// Absorbs a route's flow slice: a presence byte, then width, care and
/// value.
pub(crate) fn hash_flow(h: &mut Fnv, flow: &Option<flowplace_acl::Ternary>) {
    match flow {
        None => h.bool(false),
        Some(t) => {
            h.bool(true);
            h.u64(t.width() as u64);
            h.u128(t.care());
            h.u128(t.value());
        }
    }
}

/// Fingerprint of every solve-affecting option: engine, encoding knobs,
/// solver limits, and the objective. Thread count is *not* hashed — it
/// never changes the result (the pipeline's merge-order rule). The byte
/// stream is pinned (the benchmark's input PINs hash through it), so
/// retired options still contribute a constant.
fn fingerprint_options(options: &PlacementOptions, objective: &Objective) -> Fingerprint {
    let mut h = Fnv::new();
    h.byte(match options.engine {
        PlacerEngine::Ilp => 0,
        PlacerEngine::Sat => 1,
    });
    h.byte(match options.dependency {
        crate::DependencyEncoding::Pairwise => 0,
        crate::DependencyEncoding::Aggregated => 1,
        crate::DependencyEncoding::Lazy => 2,
    });
    h.bool(options.merging);
    h.byte(match options.merge_linking {
        crate::MergeLinking::PerMember => 0,
        crate::MergeLinking::Aggregated => 1,
    });
    h.bool(options.greedy_warm_start);
    // Retired `monitors`: pinned fingerprints were taken with none.
    h.usize(0);
    match options.mip.iteration_limit {
        None => h.bool(false),
        Some(n) => {
            h.bool(true);
            h.usize(n);
        }
    }
    // Retired node budget of `mip`: pinned fingerprints were taken with none.
    h.bool(false);
    // Retired `mip.{integrality_tol, absolute_gap}`: constants now,
    // hashed where the fields were so pinned fingerprints hold.
    h.f64(flowplace_milp::INTEGRALITY_TOL);
    h.f64(flowplace_milp::ABSOLUTE_GAP);
    match &options.mip.initial_solution {
        None => h.bool(false),
        Some(v) => {
            h.bool(true);
            h.usize(v.len());
            for x in v {
                h.f64(*x);
            }
        }
    }
    // Retired `mip.lp.{max_iterations, tolerance}`, likewise.
    h.usize(flowplace_milp::LP_MAX_ITERATIONS);
    h.f64(flowplace_milp::LP_TOLERANCE);
    // Retired `parallel.portfolio`: pinned fingerprints were taken with it off.
    h.bool(false);
    // Retired `RestartStrategy::Glucose` (= 1), the only schedule left.
    h.byte(1);
    // CDCL options steer the SAT search (and thus which model a SAT solve
    // returns), so memo entries must not cross option boundaries.
    h.bool(options.sat.db_reduction);
    match objective {
        Objective::TotalRules => h.byte(0),
        Objective::DistanceWeighted => h.byte(1),
        Objective::WeightedSwitches(w) => {
            h.byte(2);
            h.usize(w.len());
            for (s, c) in w {
                h.usize(s.0);
                h.f64(*c);
            }
        }
    }
    Fingerprint(h.finish())
}

/// Fingerprint of the whole solve instance: every ingress fingerprint,
/// every switch capacity, the options, and the objective — the placement
/// memo key. Two epochs with equal instance fingerprints have
/// byte-identical cold solves (for deterministic configurations), so
/// the memoized outcome substitutes exactly.
pub fn fingerprint_instance(
    instance: &Instance,
    objective: &Objective,
    options: &PlacementOptions,
) -> Fingerprint {
    let mut h = Fnv::new();
    let policies: Vec<_> = instance.policies().collect();
    h.usize(policies.len());
    for (ingress, _) in policies {
        h.u64(fingerprint_ingress(instance, ingress).0);
    }
    let caps = instance.topology().capacities();
    h.usize(caps.len());
    for c in caps {
        h.usize(c);
    }
    h.u64(fingerprint_options(options, objective).0);
    Fingerprint(h.finish())
}

/// Warm-path configuration, carried in
/// [`crate::ctrl-level options`](WarmConfig) and consumed by
/// [`WarmCache`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WarmConfig {
    /// Master switch. Off = every solve is cold (the cache becomes a
    /// no-op pass-through).
    pub enabled: bool,
    /// Placement-memo capacity (entries, FIFO eviction).
    pub memo_capacity: usize,
}

impl Default for WarmConfig {
    fn default() -> Self {
        WarmConfig {
            enabled: true,
            memo_capacity: 64,
        }
    }
}

/// Cumulative warm-path counters (all monotone).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WarmStats {
    /// Placement-memo lookups (`memo_hits + memo_misses` always equals
    /// this — the telemetry invariant `tests/obs_invariants.rs` pins).
    pub memo_lookups: u64,
    /// Placement-memo hits (re-solves answered in O(1)).
    pub memo_hits: u64,
    /// Placement-memo misses (full solves that went to stage 3).
    pub memo_misses: u64,
    /// Memo entries evicted by the FIFO capacity bound.
    pub memo_evictions: u64,
}

/// The epoch cache: the placement memo.
///
/// Interior-mutable so it threads through the existing `&self` solve
/// paths; it is a single-thread object (the parallel pipeline consults
/// it only from the coordinating thread).
#[derive(Clone, Debug)]
pub struct WarmCache {
    config: WarmConfig,
    memo: RefCell<VecDeque<(Fingerprint, PlacementOutcome)>>,
    stats: RefCell<WarmStats>,
}

impl Default for WarmCache {
    fn default() -> Self {
        WarmCache::new(WarmConfig::default())
    }
}

impl WarmCache {
    /// Creates a cache with the given configuration.
    pub fn new(config: WarmConfig) -> Self {
        WarmCache {
            config,
            memo: RefCell::new(VecDeque::new()),
            stats: RefCell::new(WarmStats::default()),
        }
    }

    /// True if the warm path is active at all.
    pub fn enabled(&self) -> bool {
        self.config.enabled
    }

    /// A snapshot of the counters.
    pub fn stats(&self) -> WarmStats {
        *self.stats.borrow()
    }

    /// The memoized outcome of a previously solved instance, if any.
    pub(crate) fn memo_get(&self, fp: Fingerprint) -> Option<PlacementOutcome> {
        let hit = self
            .memo
            .borrow()
            .iter()
            .find(|(k, _)| *k == fp)
            .map(|(_, o)| o.clone());
        let mut stats = self.stats.borrow_mut();
        stats.memo_lookups += 1;
        match hit {
            Some(o) => {
                stats.memo_hits += 1;
                Some(o)
            }
            None => {
                stats.memo_misses += 1;
                None
            }
        }
    }

    /// Memoizes a solved instance, whatever the solve concluded: a
    /// search cut by its budget stops at the same point every time.
    pub(crate) fn memo_put(&self, fp: Fingerprint, outcome: &PlacementOutcome) {
        if self.config.memo_capacity == 0 {
            return;
        }
        let mut memo = self.memo.borrow_mut();
        if memo.iter().any(|(k, _)| *k == fp) {
            return;
        }
        while memo.len() >= self.config.memo_capacity {
            memo.pop_front();
            self.stats.borrow_mut().memo_evictions += 1;
        }
        memo.push_back((fp, outcome.clone()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::{Placement, PlacementStats};
    use crate::SolveStatus;
    use flowplace_acl::{Action, Ternary};
    use flowplace_routing::{Route, RouteSet};
    use flowplace_topo::{SwitchId, Topology};

    fn t(s: &str) -> Ternary {
        Ternary::parse(s).unwrap()
    }

    fn small_instance(capacity: usize) -> Instance {
        let mut topo = Topology::linear(3);
        topo.set_uniform_capacity(capacity);
        let mut routes = RouteSet::new();
        routes.push(Route::new(
            EntryPortId(0),
            EntryPortId(1),
            vec![SwitchId(0), SwitchId(1), SwitchId(2)],
        ));
        let policy =
            Policy::from_ordered(vec![(t("11**"), Action::Permit), (t("1***"), Action::Drop)])
                .unwrap();
        Instance::new(topo, routes, vec![(EntryPortId(0), policy)]).unwrap()
    }

    #[test]
    fn policy_fingerprint_sensitive_to_rules() {
        let a = Policy::from_ordered(vec![(t("1***"), Action::Drop)]).unwrap();
        let b = Policy::from_ordered(vec![(t("0***"), Action::Drop)]).unwrap();
        let c = Policy::from_ordered(vec![(t("1***"), Action::Permit)]).unwrap();
        assert_ne!(fingerprint_policy(&a), fingerprint_policy(&b));
        assert_ne!(fingerprint_policy(&a), fingerprint_policy(&c));
        assert_eq!(fingerprint_policy(&a), fingerprint_policy(&a.clone()));
    }

    #[test]
    fn ingress_fingerprint_sensitive_to_routes_not_capacity() {
        let inst = small_instance(4);
        let fp = fingerprint_ingress(&inst, EntryPortId(0));
        // Capacity change: same ingress fingerprint (candidates are
        // capacity-independent)…
        let recap = small_instance(2);
        assert_eq!(fp, fingerprint_ingress(&recap, EntryPortId(0)));
        // …but a different instance fingerprint (solves differ).
        let opts = PlacementOptions::default();
        let obj = Objective::TotalRules;
        assert_ne!(
            fingerprint_instance(&inst, &obj, &opts),
            fingerprint_instance(&recap, &obj, &opts)
        );
        // Route change: different ingress fingerprint.
        let mut routes = RouteSet::new();
        routes.push(Route::new(
            EntryPortId(0),
            EntryPortId(1),
            vec![SwitchId(0), SwitchId(1)],
        ));
        let rerouted = inst.with_routes(routes).unwrap();
        assert_ne!(fp, fingerprint_ingress(&rerouted, EntryPortId(0)));
    }

    #[test]
    fn instance_fingerprint_sensitive_to_options_and_objective() {
        let inst = small_instance(4);
        let base = PlacementOptions::default();
        let obj = Objective::TotalRules;
        let fp = fingerprint_instance(&inst, &obj, &base);
        let merged = PlacementOptions {
            merging: true,
            ..base.clone()
        };
        assert_ne!(fp, fingerprint_instance(&inst, &obj, &merged));
        assert_ne!(
            fp,
            fingerprint_instance(&inst, &Objective::DistanceWeighted, &base)
        );
        assert_eq!(fp, fingerprint_instance(&inst, &obj, &base.clone()));
    }

    #[test]
    fn memo_round_trip_and_eviction() {
        let cache = WarmCache::new(WarmConfig {
            memo_capacity: 2,
            ..WarmConfig::default()
        });
        let outcome = PlacementOutcome {
            placement: Some(Placement::new()),
            status: SolveStatus::Optimal,
            objective: Some(0.0),
            stats: PlacementStats::default(),
        };
        cache.memo_put(Fingerprint(1), &outcome);
        cache.memo_put(Fingerprint(2), &outcome);
        cache.memo_put(Fingerprint(3), &outcome); // evicts 1 (FIFO)
        assert!(cache.memo_get(Fingerprint(1)).is_none());
        assert!(cache.memo_get(Fingerprint(2)).is_some());
        assert!(cache.memo_get(Fingerprint(3)).is_some());
        let stats = cache.stats();
        assert_eq!(stats.memo_hits, 2);
        assert_eq!(stats.memo_misses, 1);
        assert_eq!(stats.memo_lookups, stats.memo_hits + stats.memo_misses);
        assert_eq!(stats.memo_evictions, 1);
    }
}
