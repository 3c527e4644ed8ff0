//! Content fingerprints of solve inputs.
//!
//! A stable 64-bit hash ([`Fingerprint`]) over policy rules, routes and
//! slices identifies a policy ([`fingerprint_policy`]) and a whole solve
//! — policies, routes, capacities, options and objective
//! ([`fingerprint_instance`]). Fingerprints are pure functions of the
//! problem data — no addresses, no iteration-order dependence — so they
//! are stable across processes and replays, and a benchmark can pin its
//! generated inputs with them. They are byte-wise FNV-1a, frozen so
//! that pins hold; nothing hashed only in process uses them (the
//! verified-route memo keys its routes with the word hasher of
//! `flowplace-fasthash`, see [`crate::verify::VerifiedRoutes`]).

use flowplace_acl::Policy;
use flowplace_topo::EntryPortId;

use crate::placement::PlacementOptions;
use crate::{Instance, Objective, PlacerEngine};

/// A stable 64-bit content hash (FNV-1a over a canonical serialization).
///
/// Equal problems hash equal across processes; distinct problems
/// colliding is the usual 64-bit-hash assumption.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug, Hash)]
pub struct Fingerprint(pub u64);

/// Incremental byte-wise FNV-1a hasher over canonical little-endian
/// serializations — the shared implementation from `flowplace-fasthash`,
/// re-aliased so the fingerprint functions below read the same as ever.
/// `finish` returns the raw `u64`; wrap it in [`Fingerprint`] at the
/// call site.
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
fn fingerprint_ingress(instance: &Instance, ingress: EntryPortId) -> Fingerprint {
    let mut h = Fnv::new();
    h.usize(ingress.0);
    let policy_fp = instance
        .policy(ingress)
        .map(fingerprint_policy)
        .unwrap_or(Fingerprint(0));
    h.u64(policy_fp.0);
    let paths = instance.routes().paths_from(ingress);
    h.usize(paths.len());
    for &rid in paths {
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
fn hash_flow(h: &mut Fnv, flow: &Option<flowplace_acl::Ternary>) {
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
/// solver limits, and the objective. The byte stream is pinned (the
/// benchmark's input PINs hash through it), so retired options still
/// contribute a constant.
fn fingerprint_options(options: &PlacementOptions, objective: &Objective) -> Fingerprint {
    let mut h = Fnv::new();
    h.byte(match options.engine {
        PlacerEngine::Ilp => 0,
        PlacerEngine::Sat => 1,
    });
    // Retired `Aggregated` was 1.
    h.byte(match options.dependency {
        crate::DependencyEncoding::Pairwise => 0,
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
    // returns), so they are part of what a solve is.
    h.bool(options.sat.db_reduction);
    h.byte(match objective {
        Objective::TotalRules => 0,
        Objective::DistanceWeighted => 1,
    });
    Fingerprint(h.finish())
}

/// Fingerprint of the whole solve instance: every ingress fingerprint,
/// every switch capacity, the options, and the objective. Two solves with
/// equal instance fingerprints return byte-identical outcomes.
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

#[cfg(test)]
mod tests {
    use super::*;
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
    fn option_bytes_are_pinned() {
        // The benchmark's input PINs hash every lane's instance through
        // `fingerprint_options`: the ILP defaults (reroute-512) and the
        // SAT engine with defaults (the other three workloads). A
        // retired option keeps hashing the constant it had, so retiring
        // one must not move these.
        let inst = small_instance(4);
        let sat = PlacementOptions {
            engine: PlacerEngine::Sat,
            ..PlacementOptions::default()
        };
        let got = [PlacementOptions::default(), sat]
            .map(|o| fingerprint_instance(&inst, &Objective::TotalRules, &o).0);
        assert_eq!(
            got,
            [0x5974_7782_e7d5_977e, 0x4f3b_9ac1_6c8b_03d8],
            "option bytes moved: {got:#018x?}"
        );
    }
}
