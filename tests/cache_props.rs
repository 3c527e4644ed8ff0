//! Property suite for the TCAM rule-caching tier.
//!
//! Four guarantees, each exercised across a seeded sweep:
//!
//! * **dependency safety** — whatever a Zipf flow stream makes the
//!   cache do (inserts, closure pulls, cascaded evictions, miss-batch
//!   re-solves), an eviction may never strand a resident entry whose
//!   higher-priority overlapping shield is gone: the structural audit,
//!   the punt-as-drop fail-closed audit, and the `dep_violations`
//!   counter all stay green for 32 seeds;
//! * **the audits are not vacuous** — a negative control that evicts a
//!   shield *without* the cascade (the bug class a naive cache ships)
//!   must trip both audits;
//! * **determinism** — the same seed replays byte-identically: flow
//!   reports, cache residency dump, and dataplane dump;
//! * **residency survives a commit** — a one-rule epoch on one ingress
//!   leaves every other ingress's resident entries resident.

use flowplace::acl::{Action, Policy, Rule, Ternary};
use flowplace::classbench::{Generator, Profile};
use flowplace::core::tables::{TableEntry, Tags};
use flowplace::ctrl::{CacheConfig, CachePolicy, Controller, CtrlOptions};
use flowplace::prelude::*;
use flowplace::traffic::{generate, TrafficConfig};

const WIDTH: u32 = 8;

/// A 3-switch line with two tenant ingresses carrying ClassBench
/// firewall policies, cache tier enabled at `capacity` entries per
/// switch.
fn build_controller(seed: u64, policy: CachePolicy, capacity: usize) -> Controller {
    let mut topo = Topology::linear(3);
    topo.set_uniform_capacity(30);
    let mut ctrl = Controller::new(
        topo,
        CtrlOptions {
            cache: CacheConfig {
                enabled: true,
                capacity,
                policy,
                ..CacheConfig::default()
            },
            ..CtrlOptions::default()
        },
    );
    let gen = Generator::new(Profile::Firewall, WIDTH).with_seed(seed);
    for ingress in 0..2usize {
        let egress = if ingress == 0 { 2 } else { 0 };
        let switches = if ingress == 0 {
            vec![SwitchId(0), SwitchId(1), SwitchId(2)]
        } else {
            vec![SwitchId(2), SwitchId(1), SwitchId(0)]
        };
        ctrl.submit(Event::InstallPolicy {
            ingress: EntryPortId(ingress),
            policy: gen.policy(5, ingress as u64),
            routes: vec![Route::new(
                EntryPortId(ingress),
                EntryPortId(egress),
                switches,
            )],
        })
        .expect("queue has room");
    }
    ctrl.run_to_idle()
        .unwrap_or_else(|e| panic!("seed {seed}: install failed: {e}"));
    ctrl
}

fn traffic(seed: u64) -> TrafficConfig {
    TrafficConfig {
        seed,
        rate: 2_000,
        duration_ms: 50,
        zipf: 0.8 + (seed % 5) as f64 * 0.2,
        ingresses: 2,
        width: WIDTH,
        flows_per_ingress: 24,
        flowlet_len: 4,
        ..TrafficConfig::default()
    }
}

/// The tentpole property: 32 seeds × both eviction policies, tight
/// caches forced into heavy eviction churn, and every run must end with
/// zero dependency violations and both audits green — the cache never
/// introduces a false negative (a packet the policy drops crossing a
/// live route un-dropped).
#[test]
fn eviction_is_dependency_safe_for_32_seeds() {
    for seed in 0..32u64 {
        for policy in [CachePolicy::Lru, CachePolicy::DepFreq] {
            // 2..=5 resident entries: small enough that closures collide
            // with capacity and cascades actually fire.
            let capacity = 2 + (seed % 4) as usize;
            let mut ctrl = build_controller(seed, policy, capacity);
            let flows = generate(&traffic(seed));
            let report = ctrl.process_flows(&flows);

            assert_eq!(report.flows, flows.len() as u64, "seed {seed}");
            // Every lookup is a hit, a miss or a no-match (the derived
            // count must not underflow), and the rate is over the first
            // two only.
            assert_eq!(
                report.hits + report.misses + report.no_match(),
                report.lookups,
                "seed {seed} {policy}: {report:?}"
            );
            assert!((0.0..=1.0).contains(&report.hit_rate()), "seed {seed}");
            assert_eq!(
                report.dep_violations, 0,
                "seed {seed} {policy} cap={capacity}: dependency violation: {report:?}"
            );
            ctrl.cache().audit().unwrap_or_else(|e| {
                panic!("seed {seed} {policy} cap={capacity}: structural audit: {e}")
            });
            ctrl.cache_fail_closed_audit().unwrap_or_else(|e| {
                panic!("seed {seed} {policy} cap={capacity}: fail-closed audit: {e}")
            });
            assert_eq!(ctrl.stats().cache_dep_violations, 0, "seed {seed}");
        }
    }
}

fn shield_entry(priority: u32, bits: &str, action: Action) -> TableEntry {
    TableEntry {
        priority,
        tags: Tags::one(EntryPortId(0)),
        match_field: Ternary::parse(bits).unwrap(),
        action,
    }
}

/// Negative control: the audits must actually catch the bug class the
/// invariant exists for. Evicting a higher-priority DROP while the
/// PERMIT it shadows stays resident turns a dropped packet into a
/// forwarded one — `force_evict_unsafe` plants exactly that state and
/// the structural audit must refuse it.
#[test]
fn audits_catch_a_stranded_shield() {
    use flowplace::ctrl::RuleCache;
    let mut cache = RuleCache::new(
        CacheConfig {
            enabled: true,
            capacity: 4,
            ..CacheConfig::default()
        },
        1,
    );
    cache.set_target(&[vec![
        shield_entry(2, "10**", Action::Drop),
        shield_entry(1, "****", Action::Permit),
    ]]);
    let s = SwitchId(0);
    let permit = cache
        .find_slot(s, |e| e.action == Action::Permit)
        .expect("permit slot exists");
    assert!(cache.insert(s, permit), "closure fits the capacity");
    cache.audit().expect("closure-pulled state is safe");

    let drop = cache
        .find_slot(s, |e| e.action == Action::Drop)
        .expect("drop slot exists");
    cache.force_evict_unsafe(s, drop);
    let err = cache.audit().expect_err("stranded PERMIT must be caught");
    assert!(
        err.contains("depends on evicted"),
        "unexpected reason: {err}"
    );
}

/// Controller-level negative control: the punt-as-drop fail-closed
/// audit (which re-runs the placement verifier over the materialized
/// cache tables) catches the same stranding end-to-end.
#[test]
fn fail_closed_audit_catches_unsafe_eviction_end_to_end() {
    let mut topo = Topology::linear(3);
    topo.set_uniform_capacity(10);
    let mut ctrl = Controller::new(
        topo,
        CtrlOptions {
            cache: CacheConfig::parse_spec("lru:4").unwrap(),
            ..CtrlOptions::default()
        },
    );
    // A genuine shielded pair in the *deployed* tables: the PERMIT
    // carves an exception out of the low DROP, so the optimizer must
    // install it, and it is only correct while the high DROP sits above
    // it (a trailing permit-all would be elided as default-forward).
    ctrl.submit(Event::InstallPolicy {
        ingress: EntryPortId(0),
        policy: Policy::from_rules(vec![
            Rule::new(Ternary::parse("100*").unwrap(), Action::Drop, 3),
            Rule::new(Ternary::parse("10**").unwrap(), Action::Permit, 2),
            Rule::new(Ternary::parse("1***").unwrap(), Action::Drop, 1),
        ])
        .unwrap(),
        routes: vec![Route::new(
            EntryPortId(0),
            EntryPortId(2),
            vec![SwitchId(0), SwitchId(1), SwitchId(2)],
        )],
    })
    .unwrap();
    ctrl.run_to_idle().unwrap();

    let flows = generate(&TrafficConfig {
        seed: 11,
        rate: 1_000,
        duration_ms: 100,
        ingresses: 1,
        width: 4,
        flows_per_ingress: 32,
        ..TrafficConfig::default()
    });
    ctrl.process_flows(&flows);
    ctrl.cache_fail_closed_audit()
        .expect("warmed state is safe");

    // Strand the PERMIT on every switch where the closure made the
    // shielded pair resident together (occupancy 2 = the DROP and the
    // PERMIT, safe-mode slots aside) by yanking just the DROP.
    let mut stranded = false;
    for s in 0..3 {
        let s = SwitchId(s);
        if ctrl.cache().occupancy(s) < 2 {
            continue;
        }
        if let Some(drop) = ctrl
            .cache()
            .find_slot(s, |e| e.action == Action::Drop && !e.is_safe_mode())
        {
            ctrl.cache_mut().force_evict_unsafe(s, drop);
            stranded = true;
        }
    }
    assert!(stranded, "the stream never warmed a shielded pair");
    assert!(
        ctrl.cache().audit().is_err() || ctrl.cache_fail_closed_audit().is_err(),
        "unsafe eviction slipped past both audits:\n{}",
        ctrl.cache().dump()
    );
}

/// Same seed, same stream, same bytes: the flow reports, the cache
/// residency dump, and the dataplane dump of two independent runs are
/// identical — the cache tier adds no hidden nondeterminism.
#[test]
fn same_seed_replays_byte_identically() {
    for seed in [0u64, 7, 19] {
        let run = |seed: u64| {
            let mut ctrl = build_controller(seed, CachePolicy::DepFreq, 3);
            let flows = generate(&traffic(seed));
            let first = ctrl.process_flows(&flows);
            let second = ctrl.process_flows(&flows);
            (
                format!("{first:?}|{second:?}"),
                ctrl.cache().dump(),
                ctrl.dataplane().dump(),
                ctrl.stats().to_string(),
            )
        };
        let a = run(seed);
        let b = run(seed);
        assert_eq!(a.0, b.0, "seed {seed}: flow reports diverged");
        assert_eq!(a.1, b.1, "seed {seed}: cache dumps diverged");
        assert_eq!(a.2, b.2, "seed {seed}: dataplane dumps diverged");
        assert_eq!(a.3, b.3, "seed {seed}: stats diverged");
    }
}

/// The resident dump lines of the entries not tagged `l`, per switch.
fn resident_lines_of_others(dump: &str, l: EntryPortId) -> Vec<(String, String)> {
    let (mut switch, mut lines) = (String::new(), Vec::new());
    let tag = format!("tags={{{l}}}");
    for line in dump.lines() {
        if let Some(header) = line.strip_prefix('s') {
            switch = header.split(' ').next().unwrap_or_default().to_string();
        } else if line.starts_with("  [R]") && !line.contains(&tag) {
            lines.push((switch.clone(), line.to_string()));
        }
    }
    lines
}

/// Residency is keyed on the whole entry, priority included, so a commit
/// keeps an entry resident only if it keeps its number. After a one-rule
/// epoch on l1 (an add above its top rule, then a removal of a middle
/// rule) every resident entry of l0 is still resident, byte for byte.
#[test]
fn a_one_rule_epoch_keeps_the_other_ingresses_resident() {
    let l1 = EntryPortId(1);
    let mut kept = 0;
    for seed in 0..8u64 {
        let mut ctrl = build_controller(seed, CachePolicy::Lru, 30);
        ctrl.process_flows(&generate(&traffic(seed)));
        let policy = ctrl.instance().policy(l1).unwrap().clone();
        let top = policy.rules()[0].priority();
        let edits = [
            Event::AddRule {
                ingress: l1,
                rule: Rule::new(Ternary::parse("1*1*0*1*").unwrap(), Action::Drop, top + 1),
            },
            Event::RemoveRule {
                ingress: l1,
                rule: RuleId(2),
            },
        ];
        for event in edits {
            let why = format!("seed {seed}: {event:?}");
            let before = resident_lines_of_others(&ctrl.cache().dump(), l1);
            ctrl.submit(event).expect("queue has room");
            ctrl.run_to_idle().expect("epoch commits");
            let after = resident_lines_of_others(&ctrl.cache().dump(), l1);
            assert_eq!(before, after, "{why}\n{}", ctrl.cache().dump());
            ctrl.cache().audit().expect("invariant holds");
            kept += after.len();
        }
    }
    assert!(kept > 0, "nothing of l0 was ever resident");
}
