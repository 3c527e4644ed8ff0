//! Golden-model verification of deployed placements.
//!
//! A placement is correct iff for every route and every packet the route
//! can carry, the deployed switch tables drop the packet exactly when the
//! ingress policy's first-match decision is DROP. This module replays
//! packets through the emitted tables along each route and compares with
//! [`Policy::evaluate`](flowplace_acl::Policy::evaluate) — the executable
//! form of the paper's semantic-preservation requirement, used throughout
//! the test suite and available to library users as a deployment check.
//!
//! [`verify_tables`] is the general sweep, relaxed two ways for
//! fault-tolerant controllers: it checks an arbitrary table set (e.g. the
//! *actual* dataplane state reconstructed after faults, rather than the
//! tables emitted from a placement), restricted to the routes the caller
//! declares live (a safe-mode ingress is fenced by an explicit drop-all,
//! so its routes deliberately violate exact equivalence and are left
//! out), and it supports [`VerifyMode::NoFalseNegatives`] — the one-sided
//! §IV-A guarantee that no packet the policy DROPs is ever permitted,
//! which must survive degraded operation even when fail-closed drop-all
//! rules make the deployment stricter than the policy.
//!
//! # Packet sets
//!
//! Each route is checked on a deterministic adversarial set — the
//! corners of every rule and of every pairwise rule intersection,
//! restricted to the route's flow slice — followed by a few seeded
//! random packets. The deterministic set depends only on the policy and
//! the flow, so a sweep builds it once per `(ingress, flow)`, drops
//! repeated packets (keeping first occurrences in draw order), judges
//! it once with [`Policy::evaluate`](flowplace_acl::Policy::evaluate)
//! and replays it on every route with that key; the random packets stay
//! per route.
//!
//! # Verified-route memo
//!
//! A route's check reads exactly its policy, its flow slice, its hops,
//! and on each hop the entries *tagged with its ingress*, in table order
//! (the route walk reads nothing else: §IV-A5 tags isolate
//! each policy's rules inside a shared switch). The deterministic part of
//! the packet set — per-rule corners and pairwise intersections,
//! quadratic in policy size — is a pure function of those inputs, so
//! re-running it on unchanged inputs reproduces the verdict it already
//! gave. [`VerifiedRoutes`] remembers, as 64-bit content keys, the
//! routes that passed the last successful sweep and replays only the
//! per-epoch seeded random packets for a route whose key it holds; the
//! verdict, and the first violation reported, are byte-identical to the
//! full sweep. A one-rule update (§IV-E) moves the keys of one ingress's
//! routes; every other route rides the memo. Keys hash content, not
//! events, so nothing can leave them stale: after a rollback, a reroute
//! or a fault-driven re-placement a route's key simply is or is not in
//! the set.
//!
//! The memo verifies an [`Emission`], not bare tables: its slices (each
//! a stretch of a table, or a list of positions on a switch holding a
//! merged entry) and their digests come from the
//! [`Emitter`](crate::tables::Emitter)'s runs, and each ingress's
//! policy digest is kept with the runs while the policy's `Arc` stays
//! put. So a sweep neither re-indexes the tables nor re-digests the
//! policies; the walk still reads the entries that will be installed.
//! [`verify_tables`] checks arbitrary tables and scans them for their
//! slices. Debug builds check every emission that reused runs against a
//! from-scratch emit, its scan and the keys built from them.

use std::fmt;
use std::hash::{Hash, Hasher};

use flowplace_fasthash::{WordHashMap, WordHashSet, WordHasher};
use flowplace_rng::{Rng, StdRng};

use flowplace_acl::{Action, Packet, Ternary};
use flowplace_routing::Route;
use flowplace_topo::EntryPortId;

use crate::placement::Placement;
use crate::tables::{
    emit_tables, Emission, SliceEntries, SliceIndex, SwitchTable, TableEntry, TableError,
};
use crate::Instance;

/// A semantic violation found by [`verify_placement`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    /// The ingress whose policy was violated.
    pub ingress: EntryPortId,
    /// The offending packet.
    pub packet: Packet,
    /// What the policy says should happen.
    pub expected: Action,
    /// What the deployed tables actually do.
    pub actual: Action,
    /// Human-readable description of the route involved.
    pub route: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "packet {} on {} ({}): policy says {}, deployment does {}",
            self.packet, self.route, self.ingress, self.expected, self.actual
        )
    }
}

/// Error from [`verify_placement`]: either emission failed or a semantic
/// violation was found.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum VerifyError {
    /// Switch-table emission failed.
    Table(TableError),
    /// The deployment disagrees with a policy on some packet.
    Violation(Violation),
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyError::Table(e) => write!(f, "{e}"),
            VerifyError::Violation(v) => write!(f, "{v}"),
        }
    }
}

impl std::error::Error for VerifyError {}

impl From<TableError> for VerifyError {
    fn from(e: TableError) -> Self {
        VerifyError::Table(e)
    }
}

/// Walks `packet` along `route` through the deployed `tables`: dropped at
/// the first switch whose table's first match (for this route's ingress
/// tag) is a DROP; permitted entries forward to the next hop; matching
/// nothing forwards too (the ACL default is PERMIT — forwarding is the
/// routing module's job).
pub fn evaluate_route(tables: &[SwitchTable], route: &Route, packet: &Packet) -> Action {
    for &s in &route.switches {
        match tables[s.0].lookup(route.ingress, packet) {
            Some(Action::Drop) => return Action::Drop,
            Some(Action::Permit) | None => {}
        }
    }
    Action::Permit
}

/// [`evaluate_route`] over a route's hop slices: on each hop the first
/// entry of the packet's width whose cared bits agree with it decides,
/// and a DROP ends the walk; a PERMIT or no match goes on to the next
/// hop.
fn walk(hops: &[SliceEntries], packet: &Packet) -> Action {
    let (bits, w) = (packet.bits(), packet.width());
    let matches = |e: &&TableEntry| {
        let c = &e.match_field;
        c.width() == w && (bits ^ c.value()) & c.care() == 0
    };
    for hop in hops {
        let hit = match *hop {
            SliceEntries::Run(entries) => entries.iter().find(matches),
            SliceEntries::Picked(table, at) => at.iter().map(|&i| &table[i as usize]).find(matches),
        };
        if hit.is_some_and(|e| e.action == Action::Drop) {
            return Action::Drop;
        }
    }
    Action::Permit
}

/// How strictly [`verify_tables`] compares deployment with policy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VerifyMode {
    /// Exact semantic equivalence: the tables drop a packet iff the
    /// policy's first-match decision is DROP.
    Exact,
    /// One-sided fail-closed check: every packet the policy DROPs must
    /// be dropped by the tables; extra drops (safe-mode drop-alls,
    /// stale entries on fenced switches) are tolerated.
    NoFalseNegatives,
}

/// The deterministic adversarial packets of `policy` on a route carrying
/// `flow` (`None`: the whole header space): the two corners
/// (`sample_packet`, `max_packet`) of every rule's match field, then of
/// every pairwise rule intersection (the regions where priority matters),
/// each cube first restricted to `flow`. Every distinct packet appears
/// once, at its first occurrence in that draw order.
///
/// An intersection equal to either rule's own match field is skipped:
/// its corners are that rule's, which the per-rule loop drew before any
/// pair. Skipping it and dropping repeats leave the set of distinct
/// packets and their first-occurrence order as they were, and a repeat
/// has its first occurrence's verdict, so a sweep reports the same first
/// violation either way.
fn deterministic_packets(policy: &flowplace_acl::Policy, flow: Option<&Ternary>) -> Vec<Packet> {
    let rules = policy.rules();
    let mut packets: Vec<Packet> = Vec::with_capacity(4 * rules.len());
    let mut seen: WordHashSet<Packet> = WordHashSet::default();
    seen.reserve(4 * rules.len());
    let mut corners = |m: &Ternary| {
        let m = match flow {
            None => *m,
            Some(f) => match m.intersection(f) {
                Some(m) => m,
                None => return,
            },
        };
        for p in [m.sample_packet(), m.max_packet()] {
            if seen.insert(p) {
                packets.push(p);
            }
        }
    };
    for r in rules {
        corners(r.match_field());
    }
    for (i, a) in rules.iter().enumerate() {
        let a = a.match_field();
        for b in &rules[i + 1..] {
            let b = b.match_field();
            if let Some(m) = a.intersection(b) {
                if m != *a && m != *b {
                    corners(&m);
                }
            }
        }
    }
    packets
}

/// One policy's [`deterministic_packets`] for one flow slice, with the
/// policy's verdict on each.
struct Judged {
    packets: Vec<Packet>,
    expected: Vec<Action>,
}

/// A sweep's [`Judged`] sets, keyed by `(ingress, flow)`: built for the
/// first route checked in full with that key and replayed by every later
/// one. Probe-only, never iterated.
#[derive(Default)]
struct JudgedSets(WordHashMap<(EntryPortId, Option<Ternary>), Judged>);

impl JudgedSets {
    fn get(&mut self, policy: &flowplace_acl::Policy, route: &Route) -> &Judged {
        self.0
            .entry((route.ingress, route.flow))
            .or_insert_with(|| {
                let packets = deterministic_packets(policy, route.flow.as_ref());
                let expected = packets.iter().map(|p| policy.evaluate(p)).collect();
                Judged { packets, expected }
            })
    }
}

/// The seeded random packets a route replays after its
/// [`deterministic_packets`], drawing exactly
/// `2 × random_per_route` RNG words regardless of the policy's shape.
/// The fixed draw count is a load-bearing invariant: it decouples every
/// route's RNG stream position from the policies of earlier routes, so
/// a scoped verifier that skips a route's deterministic packet set can
/// still reproduce the identical random packets for all later routes.
fn route_random_packets(
    policy: &flowplace_acl::Policy,
    route: &Route,
    random_per_route: usize,
    rng: &mut StdRng,
    packets: &mut Vec<Packet>,
) {
    let width = if policy.is_empty() {
        route.flow.map(|f| f.width()).unwrap_or(4)
    } else {
        policy.width()
    };
    let wmask = if width >= 128 {
        u128::MAX
    } else {
        (1u128 << width) - 1
    };
    for _ in 0..random_per_route {
        let bits: u128 = ((rng.gen::<u64>() as u128) << 64) | rng.gen::<u64>() as u128;
        let bits = match &route.flow {
            None => bits & wmask,
            Some(f) => (bits & wmask & !f.care()) | f.value(),
        };
        packets.push(Packet::from_bits(bits, width));
    }
}

/// Checks a concrete table set against every ingress policy, route by
/// route. `route_live` filters which routes carry traffic (a route
/// through a crashed switch is dead and exempt); `mode` selects exact
/// equivalence or the one-sided fail-closed check.
///
/// Unlike [`verify_placement`] this does not emit tables itself, so it
/// can audit *actual* dataplane state — including state that diverged
/// from any placement after partial apply failures.
///
/// # Errors
///
/// The first violation found.
pub fn verify_tables(
    instance: &Instance,
    tables: &[SwitchTable],
    random_per_route: usize,
    seed: u64,
    mode: VerifyMode,
    mut route_live: impl FnMut(&Route) -> bool,
) -> Result<(), VerifyError> {
    verify_tables_scoped(
        instance,
        tables,
        &SliceIndex::new(tables),
        random_per_route,
        seed,
        mode,
        |_, route| route_live(route).then_some(false),
    )
}

/// [`verify_tables`] with a verification scope per route: `None` leaves
/// the route out, as `route_live` does there; `Some(true)` checks it
/// against only its seeded random packets, skipping the per-rule corner
/// and pairwise intersection packet sets (and their construction cost).
///
/// Sound only when the skipped route already passed against identical
/// inputs — which is why this is private and [`VerifiedRoutes`] is the
/// one caller that skips. The random packets change with `seed`, so they
/// are always re-evaluated; the per-route RNG draws are a fixed count
/// (see `route_random_packets`), so skipping one route's deterministic
/// set never perturbs another route's packet stream, and the result is
/// byte-identical to the unscoped walk, including which violation is
/// reported first (route order, then packet draw order).
///
/// A route checked in full replays its policy's [`deterministic_packets`]
/// for its flow, then its own random packets. The deterministic set and
/// the policy's verdicts on it are built once per `(ingress, flow)` in a
/// sweep and shared by every route with that key. The route's hop slices
/// are looked up once, then each packet is walked through them
/// ([`walk`]) in draw order and judged as it goes.
fn verify_tables_scoped(
    instance: &Instance,
    tables: &[SwitchTable],
    slices: &SliceIndex,
    random_per_route: usize,
    seed: u64,
    mode: VerifyMode,
    mut scope: impl FnMut(usize, &Route) -> Option<bool>,
) -> Result<(), VerifyError> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut judged = JudgedSets::default();
    let mut packets: Vec<Packet> = Vec::new();
    let mut hops: Vec<SliceEntries> = Vec::new();
    for (index, route) in instance.routes().iter().enumerate() {
        let policy = instance
            .policy(route.ingress)
            .expect("validated instance has a policy per route");
        let scope = scope(index, route);
        let shared = (scope == Some(false)).then(|| judged.get(policy, route));
        packets.clear();
        packets.extend_from_slice(shared.map_or(&[][..], |j| j.packets.as_slice()));
        // Draw packets unconditionally so the RNG stream (and therefore
        // every later route's packet set) does not depend on liveness
        // or scoping.
        route_random_packets(policy, route, random_per_route, &mut rng, &mut packets);
        if scope.is_none() {
            continue;
        }
        let shared_expected = shared.map_or(&[][..], |j| j.expected.as_slice());
        hops.clear();
        hops.extend(slices.hops(tables, route));
        for (i, &packet) in packets.iter().enumerate() {
            let actual = walk(&hops, &packet);
            let expected = match shared_expected.get(i) {
                Some(&e) => e,
                None => policy.evaluate(&packet),
            };
            let violated = match mode {
                VerifyMode::Exact => expected != actual,
                VerifyMode::NoFalseNegatives => {
                    expected == Action::Drop && actual == Action::Permit
                }
            };
            if violated {
                return Err(VerifyError::Violation(Violation {
                    ingress: route.ingress,
                    packet,
                    expected,
                    actual,
                    route: route.to_string(),
                }));
            }
        }
    }
    Ok(())
}

/// The word digest of a policy: its width and length, then per rule in
/// priority order its id, care, value, action and priority.
pub(crate) fn policy_key(policy: &flowplace_acl::Policy) -> u64 {
    let mut h = WordHasher::default();
    h.write_u32(policy.width());
    h.write_usize(policy.len());
    for (id, rule) in policy.iter() {
        h.write_usize(id.0);
        h.write_u128(rule.match_field().care());
        h.write_u128(rule.match_field().value());
        h.write_u8(u8::from(rule.action().is_drop()));
        h.write_u32(rule.priority());
    }
    h.finish()
}

/// The content key of every route's verification inputs, in route
/// order: `policy_key(ingress)`, the [`policy_key`] of the ingress's
/// policy; the ingress; the flow slice (presence, then width, care and
/// value); the hop sequence; and per hop the digest of the ordered
/// `(width, care, value, action)` of that switch's entries whose tags
/// contain the ingress. Priorities of entries are left out (renumbering a switch
/// keeps first-match order), and so are other tenants' entries and the
/// egress: the check reads neither.
fn route_keys(
    instance: &Instance,
    slices: &SliceIndex,
    policy_key: impl Fn(EntryPortId) -> u64,
) -> Vec<u64> {
    let absent = WordHasher::default().finish();
    instance
        .routes()
        .iter()
        .map(|route| {
            let mut h = WordHasher::default();
            h.write_u64(policy_key(route.ingress));
            h.write_usize(route.ingress.0);
            route.flow.hash(&mut h);
            h.write_usize(route.switches.len());
            for &s in &route.switches {
                h.write_usize(s.0);
                let slice = slices.get(s, route.ingress);
                h.write_u64(slice.map_or(absent, |span| span.digest));
            }
            h.finish()
        })
        .collect()
}

/// [`route_keys`] from scratch: `tables` scanned, every policy digested.
fn scanned_route_keys(instance: &Instance, tables: &[SwitchTable]) -> Vec<u64> {
    let policies: WordHashMap<EntryPortId, u64> = instance
        .policies()
        .map(|(l, q)| (l, policy_key(q)))
        .collect();
    route_keys(instance, &SliceIndex::new(tables), |l| policies[&l])
}

/// The debug-build cross-check of an [`Emitter`](crate::tables::Emitter)
/// that reused runs: its tables are those a from-scratch
/// [`emit_tables`] gives, its slices those a scan of them finds, and its
/// route keys those [`route_keys`] builds from that scan and freshly
/// digested policies.
pub(crate) fn assert_emitted_from_scratch(
    instance: &Instance,
    placement: &Placement,
    emitted: &Result<Emission, TableError>,
) {
    let scratch = emit_tables(instance, placement);
    let tables = emitted.as_ref().map(Emission::tables);
    assert!(
        tables == scratch.as_deref(),
        "reused runs emit other tables than a from-scratch emit"
    );
    if let Ok(emission) = emitted {
        let tables = emission.tables();
        assert!(
            emission.slices == SliceIndex::new(tables),
            "emitted slices differ from a scan of the tables"
        );
        assert!(
            route_keys(instance, &emission.slices, |l| emission.policy_key(l))
                == scanned_route_keys(instance, tables),
            "cached route keys differ from keys built from scratch"
        );
    }
}

/// The routes that passed the last successful sweep, as 64-bit content
/// keys of their verification inputs (see the module docs). A verifier
/// that owns one of these pays the quadratic deterministic packet set
/// only for routes whose inputs changed since then. The default is
/// empty: the first sweep verifies every route in full.
#[derive(Clone, Debug, Default)]
pub struct VerifiedRoutes {
    keys: WordHashSet<u64>,
    routes_full: u64,
    routes_skipped: u64,
}

impl VerifiedRoutes {
    /// [`verify_tables`] in [`VerifyMode::Exact`] on the emitted tables
    /// over the routes `route_live` admits, with the same verdict and
    /// the same first
    /// violation, skipping the deterministic packet set of each admitted
    /// route whose key is held. A filtered-out route is neither checked,
    /// remembered nor counted, so it is verified in full the first time
    /// the filter admits it. On `Ok` the held keys are replaced by this
    /// sweep's; on `Err` they stay (each still names inputs that passed).
    ///
    /// # Errors
    ///
    /// The first violation found, in route order then packet draw order.
    pub fn verify(
        &mut self,
        instance: &Instance,
        emission: &Emission,
        random_per_route: usize,
        seed: u64,
        route_live: impl FnMut(&Route) -> bool,
    ) -> Result<(), VerifyError> {
        let slices = &emission.slices;
        let keys = route_keys(instance, slices, |l| emission.policy_key(l));
        // Per route: filtered out, or admitted with its key held or not.
        let routes = instance.routes().iter().map(route_live);
        let held: Vec<Option<bool>> = routes
            .zip(&keys)
            .map(|(live, k)| live.then(|| self.keys.contains(k)))
            .collect();
        self.routes_skipped += held.iter().filter(|h| **h == Some(true)).count() as u64;
        self.routes_full += held.iter().filter(|h| **h == Some(false)).count() as u64;
        verify_tables_scoped(
            instance,
            emission.tables(),
            slices,
            random_per_route,
            seed,
            VerifyMode::Exact,
            |i, _| held[i],
        )?;
        let admitted = keys.into_iter().zip(held).filter(|(_, h)| h.is_some());
        self.keys = admitted.map(|(k, _)| k).collect();
        Ok(())
    }

    /// Routes verified in full so far, summed over sweeps.
    pub fn routes_full(&self) -> u64 {
        self.routes_full
    }

    /// Routes whose deterministic packet set was skipped so far, summed
    /// over sweeps.
    pub fn routes_skipped(&self) -> u64 {
        self.routes_skipped
    }
}

/// Emits switch tables for `placement` and checks semantic equivalence
/// with every ingress policy on every route, over a packet set combining
/// per-rule corners, pairwise rule intersections, and `random_per_route`
/// seeded random packets (all restricted to the route's flow when path
/// slicing is in use).
///
/// # Errors
///
/// The first violation found, or a table-emission failure.
pub fn verify_placement(
    instance: &Instance,
    placement: &Placement,
    random_per_route: usize,
    seed: u64,
) -> Result<(), VerifyError> {
    let tables = emit_tables(instance, placement)?;
    verify_tables(
        instance,
        &tables,
        random_per_route,
        seed,
        VerifyMode::Exact,
        |_| true,
    )
}

/// One-sided check of a placement: emits its tables and verifies that no
/// packet any ingress policy DROPs is permitted on any route
/// ([`VerifyMode::NoFalseNegatives`]). This is the paper's §IV-A
/// security guarantee in isolation — weaker than [`verify_placement`]
/// (extra drops are tolerated), so it is the right oracle for engines
/// that are only required to be fail-closed.
///
/// # Errors
///
/// The first false negative found, or a table-emission failure.
pub fn no_false_negatives(
    instance: &Instance,
    placement: &Placement,
    random_per_route: usize,
    seed: u64,
) -> Result<(), VerifyError> {
    let tables = emit_tables(instance, placement)?;
    verify_tables(
        instance,
        &tables,
        random_per_route,
        seed,
        VerifyMode::NoFalseNegatives,
        |_| true,
    )
}

/// Exhaustive variant of [`verify_placement`]: checks *every* packet of
/// the policies' match width on every route (restricted to the route's
/// flow when present). Complete — a passing result is a proof of
/// semantic preservation — but exponential in width; intended for tests
/// and small headers.
///
/// # Errors
///
/// The first violation found, or a table-emission failure.
///
/// # Panics
///
/// Panics if the match width exceeds 20 bits.
pub fn verify_placement_exhaustive(
    instance: &Instance,
    placement: &Placement,
) -> Result<(), VerifyError> {
    let tables = emit_tables(instance, placement)?;
    for route in instance.routes().iter() {
        let policy = instance
            .policy(route.ingress)
            .expect("validated instance has a policy per route");
        let width = if policy.is_empty() {
            route.flow.map(|f| f.width()).unwrap_or(1)
        } else {
            policy.width()
        };
        assert!(width <= 20, "width {width} too large for exhaustive check");
        for bits in 0..(1u128 << width) {
            let packet = Packet::from_bits(bits, width);
            if let Some(f) = &route.flow {
                if !f.matches(&packet) {
                    continue;
                }
            }
            let expected = policy.evaluate(&packet);
            let actual = evaluate_route(&tables, route, &packet);
            if expected != actual {
                return Err(VerifyError::Violation(Violation {
                    ingress: route.ingress,
                    packet,
                    expected,
                    actual,
                    route: route.to_string(),
                }));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowplace_acl::{Policy, Rule, RuleId};
    use flowplace_routing::RouteSet;
    use flowplace_topo::{SwitchId, Topology};

    fn t(s: &str) -> Ternary {
        Ternary::parse(s).unwrap()
    }

    fn chain_instance() -> Instance {
        let mut topo = Topology::linear(3);
        topo.set_uniform_capacity(10);
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
    fn correct_placement_verifies() {
        let inst = chain_instance();
        let mut p = Placement::new();
        p.place(EntryPortId(0), RuleId(0), SwitchId(1));
        p.place(EntryPortId(0), RuleId(1), SwitchId(1));
        verify_placement(&inst, &p, 64, 7).expect("placement is correct");
    }

    #[test]
    fn missing_drop_detected() {
        let inst = chain_instance();
        // Nothing placed: packets matching the DROP are permitted.
        let e = verify_placement(&inst, &Placement::new(), 0, 7).unwrap_err();
        match e {
            VerifyError::Violation(v) => {
                assert_eq!(v.expected, Action::Drop);
                assert_eq!(v.actual, Action::Permit);
            }
            other => panic!("expected violation, got {other}"),
        }
    }

    #[test]
    fn missing_permit_shield_detected() {
        let inst = chain_instance();
        // DROP placed without its higher-priority PERMIT: 11** packets
        // get wrongly dropped.
        let mut p = Placement::new();
        p.place(EntryPortId(0), RuleId(1), SwitchId(1));
        let e = verify_placement(&inst, &p, 0, 7).unwrap_err();
        match e {
            VerifyError::Violation(v) => {
                assert_eq!(v.expected, Action::Permit);
                assert_eq!(v.actual, Action::Drop);
            }
            other => panic!("expected violation, got {other}"),
        }
    }

    #[test]
    fn shield_on_wrong_switch_detected() {
        let inst = chain_instance();
        // PERMIT upstream, DROP downstream: the permit does NOT shield
        // (permits just forward), so behavior is still correct! The
        // shield must be on the same switch — verify that splitting them
        // the other way (drop upstream) is the failing case.
        let mut p = Placement::new();
        p.place(EntryPortId(0), RuleId(1), SwitchId(0)); // drop first
        p.place(EntryPortId(0), RuleId(0), SwitchId(1)); // permit later
        let e = verify_placement(&inst, &p, 0, 7).unwrap_err();
        assert!(matches!(e, VerifyError::Violation(_)));
    }

    #[test]
    fn permit_then_drop_downstream_is_fine() {
        // Permit upstream alone does not shield downstream drops — the
        // packet reaches the drop switch and must still be shielded
        // there. But placing BOTH on the downstream switch is correct
        // even with a stray permit upstream.
        let inst = chain_instance();
        let mut p = Placement::new();
        p.place(EntryPortId(0), RuleId(0), SwitchId(0)); // stray permit
        p.place(EntryPortId(0), RuleId(0), SwitchId(2));
        p.place(EntryPortId(0), RuleId(1), SwitchId(2));
        verify_placement(&inst, &p, 64, 3).expect("correct");
    }

    #[test]
    fn exhaustive_passes_and_fails_correctly() {
        let inst = chain_instance();
        let mut p = Placement::new();
        p.place(EntryPortId(0), RuleId(0), SwitchId(1));
        p.place(EntryPortId(0), RuleId(1), SwitchId(1));
        verify_placement_exhaustive(&inst, &p).expect("complete placement proves out");
        // Dropping the shield is caught by the exhaustive sweep too.
        let mut bad = Placement::new();
        bad.place(EntryPortId(0), RuleId(1), SwitchId(1));
        assert!(verify_placement_exhaustive(&inst, &bad).is_err());
    }

    /// [`walk`] over each of `packets`, the route's hop slices looked up
    /// once.
    fn walk_all(tables: &[SwitchTable], route: &Route, packets: &[Packet]) -> Vec<Action> {
        let slices = SliceIndex::new(tables);
        let hops: Vec<SliceEntries> = slices.hops(tables, route).collect();
        packets.iter().map(|p| walk(&hops, p)).collect()
    }

    #[test]
    fn walk_matches_scalar_exhaustively() {
        // Every 4-bit packet through several placements: the walk over
        // the indexed slices must agree with the scalar per-packet walk.
        let inst = chain_instance();
        let placements = [
            {
                let mut p = Placement::new();
                p.place(EntryPortId(0), RuleId(0), SwitchId(1));
                p.place(EntryPortId(0), RuleId(1), SwitchId(1));
                p
            },
            {
                let mut p = Placement::new();
                p.place(EntryPortId(0), RuleId(1), SwitchId(0)); // drop upstream
                p.place(EntryPortId(0), RuleId(0), SwitchId(1));
                p
            },
            Placement::new(), // empty tables
        ];
        let packets: Vec<Packet> = (0..16).map(|b| Packet::from_bits(b, 4)).collect();
        for placement in &placements {
            let tables = emit_tables(&inst, placement).unwrap();
            for route in inst.routes().iter() {
                let walked = walk_all(&tables, route, &packets);
                for (p, got) in packets.iter().zip(&walked) {
                    assert_eq!(*got, evaluate_route(&tables, route, p));
                }
            }
        }
    }

    /// Every 8-bit packet through 20-rule prefix tables — all on one hop,
    /// or eight PERMITs upstream and everything again on the last hop —
    /// in batches of several sizes over one index and over a fresh one:
    /// the walk must agree with the scalar `evaluate_route`.
    #[test]
    fn walk_matches_scalar_on_prefix_tables_exhaustively() {
        let mut specs = Vec::new();
        for b in 0..8u128 {
            specs.push((Ternary::new(8, 0b1111_1100, b << 2), Action::Permit)); // /6
            let action = if b % 3 == 0 {
                Action::Permit
            } else {
                Action::Drop
            };
            specs.push((Ternary::new(8, 0b1110_0000, b << 5), action)); // /3
        }
        for b in 0..4u128 {
            specs.push((Ternary::new(8, 0b1100_0000, b << 6), Action::Drop)); // /2
        }
        let policy = Policy::from_ordered(specs).unwrap();
        let mut topo = Topology::linear(3);
        topo.set_uniform_capacity(32);
        let hops = vec![SwitchId(0), SwitchId(1), SwitchId(2)];
        let routes = RouteSet::from_routes(vec![Route::new(EntryPortId(0), EntryPortId(1), hops)]);
        let inst = Instance::new(topo, routes, vec![(EntryPortId(0), policy)]).unwrap();
        let route = inst.routes().route(flowplace_routing::RouteId(0));
        let (mut all_on_s1, mut split) = (Placement::new(), Placement::new());
        for r in 0..20 {
            all_on_s1.place(EntryPortId(0), RuleId(r), SwitchId(1));
            // The /6 PERMITs upstream, without their DROPs; everything
            // again on the last hop.
            if r % 2 == 0 && r < 16 {
                split.place(EntryPortId(0), RuleId(r), SwitchId(0));
            }
            split.place(EntryPortId(0), RuleId(r), SwitchId(2));
        }
        let packets: Vec<Packet> = (0..256).map(|b| Packet::from_bits(b, 8)).collect();
        for (placement, slice_lens) in [(&all_on_s1, &[20][..]), (&split, &[8, 20])] {
            let tables = emit_tables(&inst, placement).unwrap();
            let scalar: Vec<Action> = (packets.iter())
                .map(|p| evaluate_route(&tables, route, p))
                .collect();
            assert!(scalar.contains(&Action::Drop) && scalar.contains(&Action::Permit));
            let slices = SliceIndex::new(&tables);
            let lens: Vec<usize> = (slices.hops(&tables, route))
                .map(|h| match h {
                    SliceEntries::Run(entries) => entries.len(),
                    SliceEntries::Picked(_, at) => at.len(),
                })
                .collect();
            assert_eq!(lens, slice_lens);
            for size in [1, 16, 63, 64, 256] {
                for (chunk, want) in packets.chunks(size).zip(scalar.chunks(size)) {
                    assert_eq!(walk_all(&tables, route, chunk), want, "batches of {size}");
                }
            }
        }
    }

    #[test]
    fn evaluate_route_walks_switches() {
        let inst = chain_instance();
        let mut p = Placement::new();
        p.place(EntryPortId(0), RuleId(0), SwitchId(2));
        p.place(EntryPortId(0), RuleId(1), SwitchId(2));
        let tables = emit_tables(&inst, &p).unwrap();
        let route = inst.routes().route(flowplace_routing::RouteId(0));
        assert_eq!(
            evaluate_route(&tables, route, &Packet::from_bits(0b1000, 4)),
            Action::Drop
        );
        assert_eq!(
            evaluate_route(&tables, route, &Packet::from_bits(0b1100, 4)),
            Action::Permit
        );
    }

    #[test]
    fn one_sided_mode_tolerates_extra_drops() {
        let inst = chain_instance();
        // Nothing placed at all: false negatives everywhere — both modes
        // must object.
        let tables = emit_tables(&inst, &Placement::new()).unwrap();
        assert!(
            verify_tables(&inst, &tables, 32, 7, VerifyMode::NoFalseNegatives, |_| {
                true
            })
            .is_err()
        );
        // A drop-all table is wrong under Exact but fine one-sided: it
        // never lets a to-be-dropped packet through.
        let fence = crate::tables::TableEntry::safe_mode_fence(EntryPortId(0), 4);
        let drop_all = SwitchTable::from_entries(vec![fence]);
        let tables = vec![drop_all, SwitchTable::default(), SwitchTable::default()];
        assert!(verify_tables(&inst, &tables, 32, 7, VerifyMode::Exact, |_| true).is_err());
        verify_tables(&inst, &tables, 32, 7, VerifyMode::NoFalseNegatives, |_| {
            true
        })
        .expect("drop-all is fail-closed");
    }

    #[test]
    fn dead_routes_are_exempt() {
        let inst = chain_instance();
        let tables = emit_tables(&inst, &Placement::new()).unwrap();
        // The only route is declared dead, so the (empty, violating)
        // deployment passes vacuously.
        verify_tables(&inst, &tables, 32, 7, VerifyMode::NoFalseNegatives, |_| {
            false
        })
        .expect("dead routes carry no traffic");
    }

    #[test]
    fn excluding_an_ingress_skips_its_routes() {
        let inst = chain_instance();
        // Empty placement: ingress 0's DROP is uncovered...
        assert!(verify_placement(&inst, &Placement::new(), 16, 7).is_err());
        // ...but excluding ingress 0 (e.g. it is in safe mode) passes.
        let tables = emit_tables(&inst, &Placement::new()).unwrap();
        verify_tables(&inst, &tables, 16, 7, VerifyMode::Exact, |r| {
            r.ingress != EntryPortId(0)
        })
        .expect("excluded ingress is not checked");
    }

    #[test]
    fn sliced_flow_restricts_verification() {
        // The drop rule is sliced out of the route (flow disjoint), so
        // not placing it is still correct *for that route*.
        let mut topo = Topology::linear(2);
        topo.set_uniform_capacity(10);
        let mut routes = RouteSet::new();
        routes.push(
            Route::new(
                EntryPortId(0),
                EntryPortId(1),
                vec![SwitchId(0), SwitchId(1)],
            )
            .with_flow(t("**00")),
        );
        let policy = Policy::from_ordered(vec![(t("1*11"), Action::Drop)]).unwrap();
        let inst = Instance::new(topo, routes, vec![(EntryPortId(0), policy)]).unwrap();
        verify_placement(&inst, &Placement::new(), 64, 5)
            .expect("rule is irrelevant to this route's flow");
    }

    /// Two routed ingresses on a shared chain, with a correct placement
    /// for both (each policy pinned on a switch of its route).
    fn two_ingress_instance() -> (Instance, Placement) {
        let mut topo = Topology::linear(4);
        topo.set_uniform_capacity(10);
        let mut routes = RouteSet::new();
        routes.push(Route::new(
            EntryPortId(0),
            EntryPortId(2),
            vec![SwitchId(0), SwitchId(1)],
        ));
        routes.push(Route::new(
            EntryPortId(1),
            EntryPortId(3),
            vec![SwitchId(2), SwitchId(3)],
        ));
        let p0 = Policy::from_ordered(vec![(t("11**"), Action::Permit), (t("1***"), Action::Drop)])
            .unwrap();
        let p1 = Policy::from_ordered(vec![(t("00**"), Action::Permit), (t("0***"), Action::Drop)])
            .unwrap();
        let inst = Instance::new(
            topo,
            routes,
            vec![(EntryPortId(0), p0), (EntryPortId(1), p1)],
        )
        .unwrap();
        let mut p = Placement::new();
        p.place(EntryPortId(0), RuleId(0), SwitchId(0));
        p.place(EntryPortId(0), RuleId(1), SwitchId(0));
        p.place(EntryPortId(1), RuleId(0), SwitchId(2));
        p.place(EntryPortId(1), RuleId(1), SwitchId(2));
        (inst, p)
    }

    /// The scoped walk with an all-false skip predicate is the plain
    /// walk (one code path; `verify_tables` is a thin wrapper).
    #[test]
    fn scoped_never_skip_matches_unscoped() {
        let (inst, p) = two_ingress_instance();
        let tables = emit_tables(&inst, &p).unwrap();
        let plain = verify_tables(&inst, &tables, 16, 9, VerifyMode::Exact, |_| true);
        let slices = SliceIndex::new(&tables);
        let scoped =
            verify_tables_scoped(&inst, &tables, &slices, 16, 9, VerifyMode::Exact, |_, _| {
                Some(false)
            });
        assert_eq!(plain, scoped);
    }

    /// Skipping one route's deterministic packets must not perturb a
    /// later route's seeded random stream: a violation only reachable
    /// via route 1's random packets is reported identically whether or
    /// not route 0 was scoped out.
    #[test]
    fn skip_preserves_later_route_rng_stream() {
        let (inst, _) = two_ingress_instance();
        // Break ingress 1 only: drop its DROP rule from the deployment.
        let mut broken = Placement::new();
        broken.place(EntryPortId(0), RuleId(0), SwitchId(0));
        broken.place(EntryPortId(0), RuleId(1), SwitchId(0));
        let tables = emit_tables(&inst, &broken).unwrap();
        let full = verify_tables(&inst, &tables, 16, 9, VerifyMode::Exact, |_| true).unwrap_err();
        let slices = SliceIndex::new(&tables);
        let scoped = verify_tables_scoped(
            &inst,
            &tables,
            &slices,
            16,
            9,
            VerifyMode::Exact,
            // Route 0 previously verified unchanged; route 1 is dirty.
            |i, _| Some(i == 0),
        )
        .unwrap_err();
        assert_eq!(full, scoped, "scoping route 0 changed route 1's verdict");
        // And the violating random packet itself is byte-identical even
        // when route 1's own deterministic set is (unsoundly, for the
        // purpose of this stream test) skipped too: the corner packets
        // of a 1-rule policy never catch this, the random ones do.
        let all_skipped =
            verify_tables_scoped(&inst, &tables, &slices, 64, 9, VerifyMode::Exact, |_, _| {
                Some(true)
            });
        assert!(all_skipped.is_err(), "random packets still catch the hole");
    }

    /// A clean skip of every route (placement verified before, inputs
    /// unchanged) still passes, and a deterministic-only violation is
    /// indeed invisible when skipped — the caller's fingerprint guard is
    /// what makes that sound.
    #[test]
    fn skip_elides_deterministic_packets_only() {
        let (inst, p) = two_ingress_instance();
        let tables = emit_tables(&inst, &p).unwrap();
        let slices = SliceIndex::new(&tables);
        verify_tables_scoped(&inst, &tables, &slices, 8, 3, VerifyMode::Exact, |_, _| {
            Some(true)
        })
        .expect("correct deployment passes under a full skip");
        // Zero random packets + full skip = no packets at all: even a
        // broken deployment "passes". This is exactly why the scoped
        // entry point is gated behind the byte-unchanged contract.
        let empty = Placement::new();
        let tables = emit_tables(&inst, &empty).unwrap();
        let slices = SliceIndex::new(&tables);
        verify_tables_scoped(&inst, &tables, &slices, 0, 3, VerifyMode::Exact, |_, _| {
            Some(true)
        })
        .expect("skip without the contract is vacuous by design");
        assert!(verify_tables(&inst, &tables, 0, 3, VerifyMode::Exact, |_| true).is_err());
    }

    // -----------------------------------------------------------------
    // One packet set per policy per sweep
    // -----------------------------------------------------------------

    /// The reference per-route packet list, built for one route alone
    /// with nothing skipped or deduplicated: every rule's corners, every
    /// pairwise intersection's corners (repeats included), all
    /// restricted to the route's flow, then the route's random packets.
    fn reference_route_packets(
        policy: &Policy,
        route: &Route,
        random_per_route: usize,
        rng: &mut StdRng,
    ) -> Vec<Packet> {
        let mut packets: Vec<Packet> = Vec::new();
        let rules = policy.rules();
        let restrict = |m: &Ternary| -> Option<Ternary> {
            match &route.flow {
                None => Some(*m),
                Some(f) => m.intersection(f),
            }
        };
        for r in rules {
            if let Some(m) = restrict(r.match_field()) {
                packets.push(m.sample_packet());
                packets.push(m.max_packet());
            }
        }
        for (i, a) in rules.iter().enumerate() {
            for b in &rules[i + 1..] {
                if let Some(m) = a.match_field().intersection(b.match_field()) {
                    if let Some(m) = restrict(&m) {
                        packets.push(m.sample_packet());
                        packets.push(m.max_packet());
                    }
                }
            }
        }
        route_random_packets(policy, route, random_per_route, rng, &mut packets);
        packets
    }

    /// A seeded ClassBench firewall policy: short, overlapping prefixes
    /// drawn from small pools, so its corner set repeats itself heavily.
    fn firewall(width: u32, rules: usize, seed: u64, index: u64) -> Policy {
        use flowplace_classbench::{Generator, Profile};
        Generator::new(Profile::Firewall, width)
            .with_seed(seed)
            .policy(rules, index)
    }

    /// Two policies at widths 8, 12 and 16, each on routes unsliced and
    /// on two flow slices, every key met twice and the ingresses
    /// interleaved: the set a route replays is the reference list's
    /// distinct packets in first-occurrence order, judged by
    /// `Policy::evaluate`, with no packet repeated.
    #[test]
    fn shared_sets_are_the_reference_distinct_packets() {
        let (mut listed, mut distinct) = (0, 0);
        for width in [8, 12, 16] {
            // The generator puts the source prefix in the high half and
            // the destination prefix in the low `dst` bits.
            let dst = width - width / 2;
            let src_high = Ternary::new(width, 1 << (width - 1), 1 << (width - 1));
            let dst_01 = Ternary::new(width, 0b11 << (dst - 2), 0b01 << (dst - 2));
            let flows = [None, Some(src_high), Some(dst_01)];
            for seed in 1..=3 {
                let policies = [firewall(width, 48, seed, 0), firewall(width, 48, seed, 1)];
                let mut sets = JudgedSets::default();
                let mut rng = StdRng::seed_from_u64(seed);
                for flow in flows.iter().chain(&flows) {
                    for (l, policy) in policies.iter().enumerate() {
                        let mut route =
                            Route::new(EntryPortId(l), EntryPortId(2), vec![SwitchId(0)]);
                        route.flow = *flow;
                        let why = format!("width {width}, seed {seed}, l{l}, flow {flow:?}");
                        let reference = reference_route_packets(policy, &route, 0, &mut rng);
                        let mut first = WordHashSet::default();
                        let want: Vec<Packet> = (reference.iter().copied())
                            .filter(|p| first.insert(*p))
                            .collect();
                        let got = sets.get(policy, &route);
                        assert_eq!(got.packets, want, "{why}");
                        let judged: Vec<Action> = want.iter().map(|p| policy.evaluate(p)).collect();
                        assert_eq!(got.expected, judged, "{why}");
                        let unique: WordHashSet<Packet> = got.packets.iter().copied().collect();
                        assert_eq!(unique.len(), got.packets.len(), "{why}: repeated packet");
                        listed += reference.len();
                        distinct += want.len();
                    }
                }
            }
        }
        assert!(2 * distinct < listed, "{distinct} of {listed} distinct");
    }

    /// The first violation a sweep over the reference lists finds, each
    /// packet judged by the scalar `evaluate_route`.
    fn reference_sweep(
        inst: &Instance,
        tables: &[SwitchTable],
        random_per_route: usize,
        seed: u64,
        mode: VerifyMode,
    ) -> Result<(), VerifyError> {
        let mut rng = StdRng::seed_from_u64(seed);
        for route in inst.routes().iter() {
            let policy = inst.policy(route.ingress).unwrap();
            for packet in reference_route_packets(policy, route, random_per_route, &mut rng) {
                let expected = policy.evaluate(&packet);
                let actual = evaluate_route(tables, route, &packet);
                let violated = match mode {
                    VerifyMode::Exact => expected != actual,
                    VerifyMode::NoFalseNegatives => {
                        expected == Action::Drop && actual == Action::Permit
                    }
                };
                if violated {
                    return Err(VerifyError::Violation(Violation {
                        ingress: route.ingress,
                        packet,
                        expected,
                        actual,
                        route: route.to_string(),
                    }));
                }
            }
        }
        Ok(())
    }

    /// Two width-8 ClassBench tenants on `star(4)`: `l0` enters at `s1`,
    /// `l1` at `s2`, each with two routes through the hub to the far
    /// leaves `s3` and `s4`. With `sliced`, an ingress's two routes carry
    /// disjoint flows. The solver places both policies under a capacity
    /// that spreads each over its hops; `None` if it finds no placement.
    fn two_route_deployment(seed: u64, sliced: bool) -> Option<(Instance, Vec<SwitchTable>)> {
        use crate::{par, PlacementOptions, PlacerEngine};
        let mut topo = Topology::star(4);
        topo.set_uniform_capacity(10);
        let flows = [t("****0***"), t("****1***")];
        let mut routes = RouteSet::new();
        for l in 0..2 {
            for (far, flow) in [3, 4].into_iter().zip(flows) {
                let hops = vec![SwitchId(l + 1), SwitchId(0), SwitchId(far)];
                let route = Route::new(EntryPortId(l), EntryPortId(far - 1), hops);
                routes.push(if sliced { route.with_flow(flow) } else { route });
            }
        }
        let policies = (0..2)
            .map(|l| (EntryPortId(l), firewall(8, 16, seed, l as u64)))
            .collect();
        let inst = Instance::new(topo, routes, policies).unwrap();
        let options = PlacementOptions {
            engine: PlacerEngine::Sat,
            ..PlacementOptions::default()
        };
        let placement = par::solve(&inst, crate::Objective::TotalRules, &options, None).placement?;
        let tables = emit_tables(&inst, &placement).unwrap();
        Some((inst, tables))
    }

    /// Every single-entry mutant of solved two-route deployments, sliced
    /// and not — a DROP site deleted, a PERMIT (the shield of the DROPs
    /// below it) deleted, or one entry's action flipped: in both modes,
    /// with and without random packets, `verify_tables` reports exactly
    /// the violation the reference sweep reports first, or passes where
    /// it passes.
    #[test]
    fn first_violation_matches_the_reference_sweep() {
        let mut caught = [0; 2];
        let mut solved = 0;
        for seed in 1..=3 {
            for sliced in [false, true] {
                let Some((inst, tables)) = two_route_deployment(seed, sliced) else {
                    continue;
                };
                solved += 1;
                verify_tables(&inst, &tables, 8, 5, VerifyMode::Exact, |_| true)
                    .expect("solved placement is correct");
                let mut mutants = vec![("none".to_string(), tables.clone())];
                for (s, table) in tables.iter().enumerate() {
                    let entries = table.entries();
                    for i in 0..entries.len() {
                        let mut deleted = entries.to_vec();
                        let gone = deleted.remove(i).action;
                        let mut flipped = entries.to_vec();
                        flipped[i].action = flipped[i].action.opposite();
                        for (what, mutant) in [
                            (format!("{gone} deleted"), deleted),
                            ("flipped".into(), flipped),
                        ] {
                            let mut mutated = tables.clone();
                            mutated[s] = SwitchTable::from_entries(mutant);
                            mutants.push((format!("s{s}[{i}] {what}"), mutated));
                        }
                    }
                }
                for (what, mutated) in &mutants {
                    for (m, mode) in [VerifyMode::Exact, VerifyMode::NoFalseNegatives]
                        .into_iter()
                        .enumerate()
                    {
                        for random in [0, 8] {
                            let why = format!(
                                "seed {seed}, sliced {sliced}, {what}, {mode:?}, {random} random"
                            );
                            let got = verify_tables(&inst, mutated, random, 5, mode, |_| true);
                            let want = reference_sweep(&inst, mutated, random, 5, mode);
                            assert_eq!(got, want, "{why}");
                            caught[m] += usize::from(got.is_err());
                        }
                    }
                }
            }
        }
        assert!(solved >= 4, "only {solved} deployments solved");
        assert!(
            caught.iter().all(|&c| c > 0),
            "violations caught per mode: {caught:?}"
        );
    }

    // -----------------------------------------------------------------
    // Verified-route memo: mutation harness
    // -----------------------------------------------------------------

    const A: EntryPortId = EntryPortId(0);
    const B: EntryPortId = EntryPortId(1);

    /// Two tenants on `star(3)` (hub `s0`; A enters at `s1`, B at `s2`),
    /// two routes each, all crossing the hub. The DROP both policies
    /// share is merged into one two-tag hub entry; A's PERMIT/DROP pair
    /// sits once per route on the far leaves `s2` and `s3`, B's on its
    /// own leaf `s2` — so `s2` holds both tenants' entries, A's route
    /// through `s3` never sees A's entries on `s2`, and both of B's
    /// routes cross a switch that holds A's.
    fn shared_switch_deployment() -> (Instance, Placement) {
        let mut topo = Topology::star(3);
        topo.set_uniform_capacity(8);
        let route = |l, egress, hops: [usize; 3]| {
            Route::new(l, EntryPortId(egress), hops.map(SwitchId).to_vec())
        };
        let routes = RouteSet::from_routes(vec![
            route(A, 1, [1, 0, 2]),
            route(A, 2, [1, 0, 3]),
            route(B, 0, [2, 0, 1]),
            route(B, 2, [2, 0, 3]),
        ]);
        let a = Policy::from_ordered(vec![
            (t("11**"), Action::Permit),
            (t("1***"), Action::Drop),
            (t("0101"), Action::Drop),
        ])
        .unwrap();
        let b = Policy::from_ordered(vec![
            (t("1111"), Action::Permit),
            (t("111*"), Action::Drop),
            (t("0101"), Action::Drop),
        ])
        .unwrap();
        let inst = Instance::new(topo, routes, vec![(A, a), (B, b)]).unwrap();
        let mut p = Placement::new();
        for (l, leaves) in [(A, &[2, 3][..]), (B, &[2])] {
            for &leaf in leaves {
                p.place(l, RuleId(0), SwitchId(leaf));
                p.place(l, RuleId(1), SwitchId(leaf));
            }
            p.place(l, RuleId(2), SwitchId(0));
        }
        p.record_merge(crate::merge::MergeGroup {
            switch: SwitchId(0),
            match_field: t("0101"),
            action: Action::Drop,
            members: vec![(A, RuleId(2)), (B, RuleId(2))],
        });
        (inst, p)
    }

    /// `inst` with tenant `l`'s policy and the route set replaced.
    fn rebuilt(inst: &Instance, l: EntryPortId, policy: Policy, routes: RouteSet) -> Instance {
        let other = if l == A { B } else { A };
        let policies = vec![(l, policy), (other, inst.policy(other).unwrap().clone())];
        Instance::new(inst.topology().clone(), routes, policies).unwrap()
    }

    /// One route's verification inputs spelled out, un-hashed — what a
    /// [`VerifiedRoutes`] key must be a faithful digest of.
    #[derive(PartialEq)]
    struct Inputs {
        policy: Policy,
        route: Route,
        slices: Vec<Vec<(Ternary, Action)>>,
    }

    fn inputs(inst: &Instance, tables: &[SwitchTable]) -> Vec<Inputs> {
        let slice = |s: &SwitchId, l| {
            let tagged = tables[s.0].entries().iter().filter(|e| e.tags.contains(&l));
            tagged.map(|e| (e.match_field, e.action)).collect()
        };
        let spell = |r: &Route| Inputs {
            policy: inst.policy(r.ingress).unwrap().clone(),
            // The egress is not an input of the check.
            route: Route {
                egress: EntryPortId(0),
                ..r.clone()
            },
            slices: r.switches.iter().map(|s| slice(s, r.ingress)).collect(),
        };
        inst.routes().iter().map(spell).collect()
    }

    /// Runs a copy of the warmed memo and the full sweep on the same
    /// inputs under the same live-route filter — everything, then each
    /// tenant filtered out — without random packets (so an unsound skip
    /// cannot be masked by a lucky draw) and with: the verdicts must be
    /// equal, and of the admitted routes exactly those whose spelled-out
    /// inputs the warm sweep `seen` must be counted skipped. A passing
    /// sweep holds no key of a filtered-out route: the next verifies it
    /// in full. Returns the unfiltered verdict without random packets.
    fn check(
        warm: &VerifiedRoutes,
        seen: &[Inputs],
        inst: &Instance,
        tables: &[SwitchTable],
    ) -> Result<(), VerifyError> {
        let now = inputs(inst, tables);
        let mut verdict = Ok(());
        for out in [None, Some(A), Some(B)] {
            let live = move |r: &Route| Some(r.ingress) != out;
            let routes = inst.routes().iter().zip(&now);
            let admitted = inst.routes().iter().filter(|r| live(r)).count() as u64;
            let unchanged = routes.filter(|(r, i)| live(r) && seen.contains(i)).count() as u64;
            for random in [4, 0] {
                let mut memo = warm.clone();
                let emission = Emission::scanned(inst, tables.to_vec());
                let scoped = memo.verify(inst, &emission, random, 11, live);
                let full = verify_tables(inst, tables, random, 11, VerifyMode::Exact, live);
                assert_eq!(scoped, full, "memo changed the verdict");
                assert_eq!(memo.routes_skipped() - warm.routes_skipped(), unchanged);
                assert_eq!(
                    memo.routes_full() - warm.routes_full(),
                    admitted - unchanged
                );
                if scoped.is_ok() {
                    let (full_before, skipped_before) = (memo.routes_full(), memo.routes_skipped());
                    let _ = memo.verify(inst, &emission, random, 11, |_| true);
                    assert_eq!(memo.routes_full() - full_before, 4 - admitted);
                    assert_eq!(memo.routes_skipped() - skipped_before, admitted);
                }
                if out.is_none() {
                    verdict = full;
                }
            }
        }
        verdict
    }

    #[test]
    fn memo_matches_the_full_sweep_under_every_mutation() {
        let (inst, placement) = shared_switch_deployment();
        let tables = emit_tables(&inst, &placement).unwrap();
        let all = || tables.iter().flat_map(|t| t.entries());
        assert!(all().any(|e| e.tags.len() == 2), "no merged entry");
        let mut warm = VerifiedRoutes::default();
        warm.verify(
            &inst,
            &Emission::scanned(&inst, tables.clone()),
            4,
            7,
            |_| true,
        )
        .expect("fixture is correct");
        assert_eq!((warm.routes_full(), warm.routes_skipped()), (4, 0));
        let seen = inputs(&inst, &tables);
        // Nothing changed: every route rides the memo.
        check(&warm, &seen, &inst, &tables).expect("still correct");

        // Every single-entry mutation of the emitted tables.
        for (s, table) in tables.iter().enumerate() {
            let entries = table.entries();
            let run = |mutant: Vec<crate::tables::TableEntry>| {
                let mut mutated = tables.clone();
                mutated[s] = SwitchTable::from_entries(mutant);
                check(&warm, &seen, &inst, &mutated)
            };
            for i in 0..entries.len() {
                let mut deleted = entries.to_vec();
                deleted.remove(i);
                assert!(run(deleted).is_err(), "s{s}[{i}] deleted, unflagged");
                let mut flipped = entries.to_vec();
                flipped[i].action = flipped[i].action.opposite();
                assert!(run(flipped).is_err(), "s{s}[{i}] flipped, unflagged");
                // Swap with the next entry sharing a tag (from_entries
                // orders by priority, so swapping those swaps places).
                let shares = |j: &usize| !entries[i].tags.is_disjoint(&entries[*j].tags);
                if let Some(j) = (i + 1..entries.len()).find(shares) {
                    let mut swapped = entries.to_vec();
                    swapped[i].priority = entries[j].priority;
                    swapped[j].priority = entries[i].priority;
                    let _ = run(swapped);
                }
            }
        }

        // One mutated policy rule: A's copy of the shared DROP becomes a
        // PERMIT while the hub entry still drops. B's routes ride.
        let a = inst.policy(A).unwrap();
        let shared = a.rule(RuleId(2));
        let permit = Rule::new(*shared.match_field(), Action::Permit, shared.priority());
        let a_flipped = a.without_rule(RuleId(2)).with_rule(permit).unwrap();
        let mutated = rebuilt(&inst, A, a_flipped, inst.routes().clone());
        assert!(check(&warm, &seen, &mutated, &tables).is_err());

        // One mutated hop sequence: A's first route stops short of the
        // leaf that holds its PERMIT/DROP pair.
        let mut routes: Vec<Route> = inst.routes().iter().cloned().collect();
        routes[0].switches.pop();
        let mutated = rebuilt(&inst, A, a.clone(), RouteSet::from_routes(routes));
        assert!(check(&warm, &seen, &mutated, &tables).is_err());

        // What a per-switch table fingerprint could not skip: B inserts a
        // rule on s0, the merged switch every route crosses. A merged
        // switch is numbered `total − pos`, so A's entries there renumber
        // — and A's routes still ride.
        let lowest = Rule::new(t("0010"), Action::Drop, 0);
        let b_grown = inst.policy(B).unwrap().with_rule(lowest).unwrap();
        let grown = rebuilt(&inst, B, b_grown, inst.routes().clone());
        let mut placement = placement;
        placement.place(B, RuleId(3), SwitchId(0));
        let regrown = emit_tables(&grown, &placement).unwrap();
        let a_priorities = |tables: &[SwitchTable]| -> Vec<u32> {
            let on_s0 = tables[0].entries().iter().filter(|e| e.tags.contains(&A));
            on_s0.map(|e| e.priority).collect()
        };
        assert_ne!(a_priorities(&tables), a_priorities(&regrown));
        let mut memo = warm.clone();
        memo.verify(
            &grown,
            &Emission::scanned(&grown, regrown.clone()),
            4,
            12,
            |_| true,
        )
        .expect("still correct");
        assert_eq!(memo.routes_skipped(), 2, "A's routes must ride the memo");
        check(&warm, &seen, &grown, &regrown).expect("still correct");
    }

    /// Each field a route key reads, changed alone, moves the key of a
    /// route that reads it and no key of the other tenant: a policy
    /// rule's care, value, action and priority; a tagged entry's width,
    /// care, value and action; the route's flow, a hop id and the hop
    /// count.
    #[test]
    fn route_keys_follow_every_field_they_read() {
        let (inst, placement) = shared_switch_deployment();
        let tables = emit_tables(&inst, &placement).unwrap();
        let keys = scanned_route_keys;
        let base = keys(&inst, &tables);
        // Routes 0 and 1 are A's, 2 and 3 B's. Every mutation below
        // reaches A's route 0.
        let moved = |why: &str, got: Vec<u64>| {
            assert_ne!(got[0], base[0], "{why}: A's route key did not move");
            assert_eq!(got[2..], base[2..], "{why}: B's route keys moved");
        };
        // On every field below bit 3 is cared and bit 0 is not, so
        // `care | 1` widens the care alone and `value ^ 8` flips one
        // cared value bit alone.
        let care = |m: Ternary| Ternary::new(m.width(), m.care() | 1, m.value());
        let value = |m: Ternary| Ternary::new(m.width(), m.care(), m.value() ^ 8);

        // A's first rule (`11**` PERMIT, priority 3); ids and order kept.
        let a = inst.policy(A).unwrap();
        let r = *a.rule(RuleId(0));
        let (m, action, priority) = (*r.match_field(), r.action(), r.priority());
        for (why, rule) in [
            ("rule care", Rule::new(care(m), action, priority)),
            ("rule value", Rule::new(value(m), action, priority)),
            ("rule action", Rule::new(m, action.opposite(), priority)),
            ("rule priority", Rule::new(m, action, priority + 5)),
        ] {
            let mut rules = a.rules().to_vec();
            rules[0] = rule;
            let policy = Policy::from_rules(rules).unwrap();
            moved(
                why,
                keys(&rebuilt(&inst, A, policy, inst.routes().clone()), &tables),
            );
        }

        // An entry on s2 tagged with A alone: route 0 crosses s2, and so
        // do both of B's routes, whose slice there excludes it.
        let i = tables[2]
            .entries()
            .iter()
            .position(|e| e.tags.len() == 1 && e.tags.contains(&A));
        let i = i.expect("A has an entry of its own on s2");
        let m = tables[2].entries()[i].match_field;
        let wider = Ternary::new(m.width() + 1, m.care(), m.value());
        for (why, field, flip) in [
            ("entry width", wider, false),
            ("entry care", care(m), false),
            ("entry value", value(m), false),
            ("entry action", m, true),
        ] {
            let mut entries = tables[2].entries().to_vec();
            entries[i].match_field = field;
            if flip {
                entries[i].action = entries[i].action.opposite();
            }
            let mut mutated = tables.clone();
            mutated[2] = SwitchTable::from_entries(entries);
            moved(why, keys(&inst, &mutated));
        }

        // A's route 0 (s1-s0-s2): a flow slice, the last hop moved to s3,
        // the last hop dropped.
        let route0 = |edit: &dyn Fn(&mut Route)| {
            let mut routes: Vec<Route> = inst.routes().iter().cloned().collect();
            edit(&mut routes[0]);
            let mutated = rebuilt(&inst, A, a.clone(), RouteSet::from_routes(routes));
            keys(&mutated, &tables)
        };
        moved("route flow", route0(&|r| r.flow = Some(t("1***"))));
        moved("hop id", route0(&|r| r.switches[2] = SwitchId(3)));
        moved("hop count", route0(&|r| r.switches.truncate(2)));
    }
}
