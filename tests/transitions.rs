//! Every op of a commit, checked.
//!
//! A commit sends its diff to the switches one op at a time, every
//! install before any remove (make-before-break, DESIGN §8). Between
//! two ops the dataplane holds a mix of the old and the new tables, and
//! nothing but the final state is verified by the controller. This suite
//! replays event streams one epoch at a time and re-sends each epoch's
//! diff op by op on a clone of the dataplane it started from, using only
//! the public `DataPlane::diff_to` / `install` / `remove`. After every
//! op, every packet (all `2^WIDTH` of them) on every live route must get
//! the old policy's verdict or the new one's: per-packet consistency
//! (Reitblatt et al., "Abstractions for Network Update", SIGCOMM 2012).
//!
//! A route is live while traffic can take it. Installs run under the old
//! routes, the routes flip after the last install, and removes run under
//! the new ones; at the flip both sets are checked. A policy edit leaves
//! the routes as they are, so there every route is checked after every
//! op.
//!
//! Two streams: rule churn that inserts both inside a policy and above
//! its top rule, and removes rules anywhere; and reroutes that move
//! tenants between the spines of a leaf-spine fabric.

use flowplace::acl::{Action, Packet, Policy, Rule, RuleId, Ternary};
use flowplace::core::tables::SwitchTable;
use flowplace::core::verify::evaluate_route;
use flowplace::ctrl::{Controller, CtrlOptions, DataPlane, Event};
use flowplace::prelude::*;
use flowplace::rng::{Rng, StdRng};

const WIDTH: u32 = 8;

/// A rule whose match cares about each bit with probability 0.4, so
/// rules overlap often.
fn rand_rule(rng: &mut StdRng, priority: u32) -> Rule {
    let mut care = 0u128;
    for bit in 0..WIDTH {
        if rng.gen_bool(0.4) {
            care |= 1 << bit;
        }
    }
    let value = rng.gen_range(0u128..(1 << WIDTH)) & care;
    let action = if rng.gen_bool(0.6) {
        Action::Drop
    } else {
        Action::Permit
    };
    Rule::new(Ternary::new(WIDTH, care, value), action, priority)
}

/// `n` random rules, priorities 4 apart, so later adds fit between any
/// two of them.
fn rand_policy(rng: &mut StdRng, n: usize) -> Policy {
    let rules = (0..n).map(|i| rand_rule(rng, 4 * (i as u32 + 1))).collect();
    Policy::from_rules(rules).expect("distinct priorities")
}

/// What one stream's commits did, op by op.
#[derive(Debug, Default)]
struct Transitions {
    epochs: usize,
    ops: usize,
    /// Packets checked on live routes, summed over ops.
    packets: usize,
    /// The highest per-switch occupancy between two ops.
    peak_occupancy: usize,
}

/// The verdicts `packet` may get on a route of `ingress` mid-commit: the
/// old policy's and the new one's, where each exists.
fn allowed(
    old: &Instance,
    new: &Instance,
    ingress: EntryPortId,
    packet: &Packet,
) -> [Option<Action>; 2] {
    [old, new].map(|i| i.policy(ingress).map(|q| q.evaluate(packet)))
}

/// Checks every packet on `routes` against the dataplane `dp`.
fn check_routes(
    dp: &DataPlane,
    routes: &[Route],
    old: &Instance,
    new: &Instance,
    why: &str,
    seen: &mut Transitions,
) {
    let tables: Vec<SwitchTable> = (0..dp.switch_count())
        .map(|s| SwitchTable::from_entries(dp.switch(SwitchId(s)).entries().to_vec()))
        .collect();
    for route in routes {
        for bits in 0u128..(1 << WIDTH) {
            let packet = Packet::from_bits(bits, WIDTH);
            if route.flow.is_some_and(|f| !f.matches(&packet)) {
                continue;
            }
            let got = evaluate_route(&tables, route, &packet);
            let want = allowed(old, new, route.ingress, &packet);
            assert!(
                want.contains(&Some(got)),
                "{why}: {packet} on {route:?} got {got:?}, policies say {want:?}\n{}",
                dp.dump()
            );
            seen.packets += 1;
        }
    }
}

/// Submits `event` as one epoch and re-sends that epoch's diff op by op
/// on a clone of the dataplane it started from, checking every live
/// route after every op; the op-by-op result must be the dataplane the
/// controller committed.
fn commit_op_by_op(ctrl: &mut Controller, event: Event, why: &str, seen: &mut Transitions) {
    let (old, before) = (ctrl.instance().clone(), ctrl.dataplane().clone());
    ctrl.submit(event).expect("queue has room");
    let reports = ctrl.run_to_idle().expect("epoch commits");
    let new = ctrl.instance().clone();
    let after = ctrl.dataplane();
    let target: Vec<Vec<_>> = (0..after.switch_count())
        .map(|s| after.switch(SwitchId(s)).entries().to_vec())
        .collect();
    let diff = before.diff_to(&target).expect("same switch count");
    let installed: usize = reports.iter().map(|r| r.installed).sum();
    let removed: usize = reports.iter().map(|r| r.removed).sum();
    assert_eq!(
        (diff.install.len(), diff.remove.len()),
        (installed, removed),
        "{why}: the diff re-sent is the commit's"
    );
    let old_routes: Vec<Route> = old.routes().iter().cloned().collect();
    let new_routes: Vec<Route> = new.routes().iter().cloned().collect();
    let occupancy = |dp: &DataPlane| {
        let tcams = (0..dp.switch_count()).map(|s| dp.switch(SwitchId(s)).occupancy());
        tcams.max().unwrap_or(0)
    };
    let mut dp = before.clone();
    seen.peak_occupancy = seen.peak_occupancy.max(occupancy(&dp));
    for (i, (s, e)) in diff.install.iter().enumerate() {
        dp.install(*s, e).expect("install lands");
        seen.peak_occupancy = seen.peak_occupancy.max(occupancy(&dp));
        let why = format!("{why}, install {i} {e} on {s}");
        check_routes(&dp, &old_routes, &old, &new, &why, seen);
    }
    check_routes(
        &dp,
        &new_routes,
        &old,
        &new,
        &format!("{why}, at the flip"),
        seen,
    );
    for (i, (s, e)) in diff.remove.iter().enumerate() {
        dp.remove(*s, e).expect("remove lands");
        let why = format!("{why}, remove {i} {e} on {s}");
        check_routes(&dp, &new_routes, &old, &new, &why, seen);
    }
    assert_eq!(
        &dp,
        ctrl.dataplane(),
        "{why}: op by op ends where the commit did"
    );
    seen.epochs += 1;
    seen.ops += diff.churn();
}

/// Two tenants on `linear(4)`, one at each end of the chain, then 24
/// one-rule events drawn from the controller's current policies: adds
/// inside a policy (between two of its rules) and above its top rule,
/// and removals of any rule.
fn churn(seed: u64, seen: &mut Transitions) -> (usize, usize) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut topo = Topology::linear(4);
    topo.set_uniform_capacity(12);
    let mut ctrl = Controller::new(topo, CtrlOptions::default());
    let chain: Vec<SwitchId> = (0..4).map(SwitchId).collect();
    for l in 0..2 {
        let hops = if l == 0 {
            chain.clone()
        } else {
            chain.iter().rev().copied().collect()
        };
        let event = Event::InstallPolicy {
            ingress: EntryPortId(l),
            policy: rand_policy(&mut rng, 6),
            routes: vec![Route::new(EntryPortId(l), EntryPortId(1 - l), hops)],
        };
        commit_op_by_op(
            &mut ctrl,
            event,
            &format!("seed {seed}: install l{l}"),
            seen,
        );
    }
    let (mut inside, mut on_top) = (0, 0);
    for step in 0..24 {
        let l = EntryPortId(rng.gen_range(0..2usize));
        let policy = ctrl.instance().policy(l).expect("installed").clone();
        let taken: Vec<u32> = policy.rules().iter().map(Rule::priority).collect();
        let top = taken.iter().copied().max().unwrap_or(0);
        let event = match rng.gen_range(0..10u32) {
            0..=3 if taken.len() >= 2 => {
                let free: Vec<u32> = (taken.iter().copied().min().unwrap() + 1..top)
                    .filter(|p| !taken.contains(p))
                    .collect();
                if free.is_empty() {
                    continue;
                }
                inside += 1;
                let priority = free[rng.gen_range(0..free.len())];
                Event::AddRule {
                    ingress: l,
                    rule: rand_rule(&mut rng, priority),
                }
            }
            0..=6 => {
                on_top += 1;
                Event::AddRule {
                    ingress: l,
                    rule: rand_rule(&mut rng, top + 4),
                }
            }
            _ if policy.len() > 1 => Event::RemoveRule {
                ingress: l,
                rule: RuleId(rng.gen_range(0..policy.len())),
            },
            _ => continue,
        };
        let why = format!("seed {seed} step {step}: {event:?}");
        commit_op_by_op(&mut ctrl, event, &why, seen);
    }
    (inside, on_top)
}

/// Three tenants on a two-spine leaf-spine fabric, each routed to the
/// other two leaves over one spine; then 16 reroutes, each moving one
/// tenant's routes to a random spine per destination.
fn reroutes(seed: u64, seen: &mut Transitions) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut topo = Topology::leaf_spine(2, 3, 1);
    topo.set_uniform_capacity(8);
    let mut ctrl = Controller::new(topo, CtrlOptions::default());
    // Switches: spines s0, s1; leaf i is s(2 + i) with port li.
    let routes_of = |rng: &mut StdRng, l: usize| -> Vec<Route> {
        let dests = (0..3).filter(|&d| d != l);
        dests
            .map(|d| {
                let spine = SwitchId(rng.gen_range(0..2usize));
                let hops = vec![SwitchId(2 + l), spine, SwitchId(2 + d)];
                Route::new(EntryPortId(l), EntryPortId(d), hops)
            })
            .collect()
    };
    for l in 0..3 {
        let event = Event::InstallPolicy {
            ingress: EntryPortId(l),
            policy: rand_policy(&mut rng, 5),
            routes: routes_of(&mut rng, l),
        };
        commit_op_by_op(
            &mut ctrl,
            event,
            &format!("seed {seed}: install l{l}"),
            seen,
        );
    }
    for step in 0..16 {
        let l = rng.gen_range(0..3usize);
        let event = Event::Reroute {
            ingress: EntryPortId(l),
            routes: routes_of(&mut rng, l),
        };
        let why = format!("seed {seed} step {step}: {event:?}");
        commit_op_by_op(&mut ctrl, event, &why, seen);
    }
}

#[test]
fn every_op_of_a_churn_commit_keeps_each_packet_on_the_old_or_new_policy() {
    let mut seen = Transitions::default();
    let (mut inside, mut on_top) = (0, 0);
    for seed in 0..8 {
        let (i, t) = churn(seed, &mut seen);
        inside += i;
        on_top += t;
    }
    eprintln!("churn: {seen:?}");
    assert!(
        inside >= 20 && on_top >= 20,
        "{inside} inside, {on_top} on top"
    );
    assert!(seen.ops > seen.epochs, "{seen:?}");
}

#[test]
fn every_op_of_a_reroute_commit_keeps_each_packet_on_the_old_or_new_policy() {
    let mut seen = Transitions::default();
    for seed in 0..8 {
        reroutes(seed, &mut seen);
    }
    eprintln!("reroute: {seen:?}");
    assert!(seen.ops > seen.epochs, "{seen:?}");
}
