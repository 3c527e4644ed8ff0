//! Seeded input generation: instances, event streams, flow streams,
//! and the fingerprints that pin them.
//!
//! Instances follow the paper's §V set-up as `crates/bench` builds it
//! (fat-tree k=4, randomized shortest paths, ClassBench firewall
//! policies of width 16), but the construction is owned here so a
//! change to that harness cannot move the benchmark's inputs.

use std::time::{Duration, Instant};

use flowplace_acl::{Policy, Rule, RuleId};
use flowplace_classbench::{Generator, Profile};
use flowplace_core::{fingerprint_instance, Instance, Objective, PlacementOptions};
use flowplace_ctrl::{format_trace, Event};
use flowplace_fasthash::Fnv64;
use flowplace_rng::{Rng, StdRng};
use flowplace_routing::{shortest, Route, RouteSet};
use flowplace_topo::{EntryPortId, Topology};
use flowplace_traffic::{FlowEvent, TrafficConfig};

/// Fat-tree arity of every workload.
const FAT_TREE_K: usize = 4;
/// Shortest paths per ingress.
const PATHS_PER_INGRESS: usize = 2;
/// Header width of the ClassBench policies and the flow stream.
pub const WIDTH: u32 = 16;

/// Size of one generated instance.
#[derive(Clone, Copy, Debug)]
pub struct Shape {
    /// Ingress policies (tenants) on the first host ports.
    pub ingresses: usize,
    /// Rules per policy.
    pub rules_per_policy: usize,
    /// Uniform switch TCAM capacity.
    pub capacity: usize,
}

/// Wall time spent inside the input generators, for the
/// `classbench.generate_ms` / `routing.routes_ms` /
/// `traffic.generate_ms` layer metrics (all part of `setup_s`).
#[derive(Clone, Copy, Debug, Default)]
pub struct GenTimes {
    pub classbench: Duration,
    pub routing: Duration,
    pub traffic: Duration,
}

/// A sub-seed for one named stream of one run: the same `(seed, label,
/// index)` always gives the same value, and streams do not share RNG
/// state.
pub fn sub_seed(seed: u64, label: &str, index: u64) -> u64 {
    let mut h = Fnv64::new();
    h.u64(seed);
    h.bytes(label.as_bytes());
    h.u64(index);
    h.finish()
}

/// The ClassBench generator all policies and added rules come from.
fn generator(seed: u64) -> Generator {
    Generator::new(Profile::Firewall, WIDTH).with_seed(seed ^ 0xACE1)
}

/// Two randomized shortest paths from `ingress` to distinct hosts at
/// the largest hop distance (another pod of the fat-tree). Every route
/// then crosses edge, aggregation and core — five switches — so the
/// instances of different seeds differ in policies and path choice but
/// not in their mix of path lengths, which otherwise moves solve time
/// by ±15 % from one seed to the next.
fn far_routes(topo: &Topology, ingress: EntryPortId, rng: &mut StdRng) -> Vec<Route> {
    let distance = topo.distances_from(topo.entry_port(ingress).switch);
    let far = distance
        .iter()
        .copied()
        .filter(|&d| d != usize::MAX)
        .max()
        .expect("the ingress switch reaches itself");
    let ports = topo.entry_port_count();
    let mut routes: Vec<Route> = Vec::with_capacity(PATHS_PER_INGRESS);
    while routes.len() < PATHS_PER_INGRESS {
        let egress = EntryPortId(rng.gen_range(0..ports));
        if distance[topo.entry_port(egress).switch.0] != far
            || routes.iter().any(|r| r.egress == egress)
        {
            continue;
        }
        let route = shortest::shortest_path(topo, ingress, egress, rng)
            .expect("a switch at finite distance is reachable");
        routes.push(route);
    }
    routes
}

/// Builds one instance: the first `shape.ingresses` host ports of a
/// k=4 fat-tree each carry a ClassBench firewall policy and route to
/// two hosts in other pods over randomized shortest paths.
pub fn build_instance(shape: Shape, seed: u64, times: &mut GenTimes) -> Instance {
    let mut topo = Topology::fat_tree(FAT_TREE_K);
    topo.set_uniform_capacity(shape.capacity);
    assert!(shape.ingresses <= topo.entry_port_count());

    let t = Instant::now();
    let mut rng = StdRng::seed_from_u64(seed);
    let routes: RouteSet = (0..shape.ingresses)
        .flat_map(|i| far_routes(&topo, EntryPortId(i), &mut rng))
        .collect();
    times.routing += t.elapsed();

    let t = Instant::now();
    let generator = generator(seed);
    let policies: Vec<(EntryPortId, Policy)> = (0..shape.ingresses)
        .map(|i| {
            (
                EntryPortId(i),
                generator.policy(shape.rules_per_policy, i as u64),
            )
        })
        .collect();
    times.classbench += t.elapsed();

    Instance::new(topo, routes, policies).expect("generated instance is valid")
}

/// The §IV-E small-update stream: `epochs` epochs of `2 * pairs`
/// events on a rotating ingress. Each epoch first removes the `pairs`
/// rules the ingress gained at its previous visit, then adds `pairs`
/// fresh top-priority ClassBench rules, so after one warm-up rotation
/// every policy holds `pairs` extra rules and every epoch installs and
/// removes real TCAM entries.
pub fn churn_events(
    instance: &Instance,
    epochs: usize,
    pairs: usize,
    seed: u64,
    times: &mut GenTimes,
) -> Vec<Vec<Event>> {
    let ingresses = instance.policy_count();
    let top: Vec<u32> = instance
        .policies()
        .map(|(_, q)| q.rules().first().map_or(0, Rule::priority))
        .collect();
    let t = Instant::now();
    let generator = generator(seed);
    let stream = (0..epochs)
        .map(|e| {
            let l = e % ingresses;
            let ingress = EntryPortId(l);
            let mut events = Vec::with_capacity(2 * pairs);
            if e >= ingresses {
                // The rules added last visit sit at the top of the
                // priority order; each removal shifts the next one up.
                for _ in 0..pairs {
                    events.push(Event::RemoveRule {
                        ingress,
                        rule: RuleId(0),
                    });
                }
            }
            let fresh = generator.policy(pairs, (1_000 + e) as u64);
            for (i, rule) in fresh.rules().iter().rev().enumerate() {
                events.push(Event::AddRule {
                    ingress,
                    rule: rule.with_priority(top[l] + 1 + i as u32),
                });
            }
            events
        })
        .collect();
    times.classbench += t.elapsed();
    stream
}

/// The §IV-E medium-update stream: `count` `Reroute` events, each
/// moving one ingress (rotating) onto two fresh randomized shortest
/// paths drawn like the instance's own.
pub fn reroute_events(
    instance: &Instance,
    count: usize,
    seed: u64,
    times: &mut GenTimes,
) -> Vec<Event> {
    let ingresses = instance.policy_count();
    let t = Instant::now();
    let mut rng = StdRng::seed_from_u64(seed);
    let events = (0..count)
        .map(|e| {
            let ingress = EntryPortId(e % ingresses);
            Event::Reroute {
                ingress,
                routes: far_routes(instance.topology(), ingress, &mut rng),
            }
        })
        .collect();
    times.routing += t.elapsed();
    events
}

/// The Zipf(1.1) flow stream of `flows` arrivals over `ingresses`
/// ingress ports (64 flow headers per ingress, mean flowlet 4), after
/// FDRC's evaluation traffic.
pub fn flow_stream(
    ingresses: usize,
    flows: usize,
    seed: u64,
    times: &mut GenTimes,
) -> Vec<FlowEvent> {
    let t = Instant::now();
    let stream = flowplace_traffic::generate(&TrafficConfig {
        seed,
        // One flow per virtual microsecond.
        rate: 1_000_000,
        duration_ms: (flows / 1_000) as u64,
        zipf: 1.1,
        ingresses,
        width: WIDTH,
        flows_per_ingress: 64,
        flowlet_len: 4,
        burst: None,
    });
    times.traffic += t.elapsed();
    assert_eq!(stream.len(), flows);
    stream
}

/// Running FNV-1a fingerprint of a workload's inputs.
#[derive(Default)]
pub struct InputPrint(Fnv64);

impl InputPrint {
    pub fn instance(&mut self, instance: &Instance, options: &PlacementOptions) {
        self.0
            .u64(fingerprint_instance(instance, &Objective::default(), options).0);
    }

    pub fn events(&mut self, events: &[Event]) {
        self.0.bytes(format_trace(events).as_bytes());
    }

    pub fn flows(&mut self, flows: &[FlowEvent]) {
        for f in flows {
            self.0.u64(f.at_ms);
            self.0.usize(f.ingress.0);
            self.0.u128(f.packet.bits());
        }
    }

    pub fn finish(self) -> u64 {
        self.0.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Everything the workloads generate, at toy size, as one print.
    fn print_of(seed: u64) -> u64 {
        let mut times = GenTimes::default();
        let shape = Shape {
            ingresses: 4,
            rules_per_policy: 8,
            capacity: 50,
        };
        let instance = build_instance(shape, sub_seed(seed, "test", 0), &mut times);
        let mut print = InputPrint::default();
        print.instance(&instance, &PlacementOptions::default());
        for events in churn_events(&instance, 12, 2, sub_seed(seed, "churn", 0), &mut times) {
            print.events(&events);
        }
        print.events(&reroute_events(
            &instance,
            12,
            sub_seed(seed, "reroute", 0),
            &mut times,
        ));
        print.flows(&flow_stream(
            shape.ingresses,
            2_000,
            sub_seed(seed, "flows", 0),
            &mut times,
        ));
        print.finish()
    }

    #[test]
    fn equal_seeds_give_identical_inputs_and_other_seeds_other_inputs() {
        assert_eq!(print_of(7), print_of(7));
        assert_ne!(print_of(7), print_of(8));
    }

    #[test]
    fn every_route_crosses_the_core() {
        let mut times = GenTimes::default();
        let shape = Shape {
            ingresses: 16,
            rules_per_policy: 4,
            capacity: 50,
        };
        let instance = build_instance(shape, 3, &mut times);
        assert_eq!(instance.routes().len(), 32);
        assert!(instance.routes().iter().all(|r| r.switches.len() == 5));
        for event in reroute_events(&instance, 32, 5, &mut times) {
            let Event::Reroute { ingress, routes } = event else {
                panic!("not a reroute");
            };
            assert_eq!(routes.len(), 2);
            assert_ne!(routes[0].egress, routes[1].egress);
            assert!(routes
                .iter()
                .all(|r| r.ingress == ingress && r.switches.len() == 5));
        }
    }

    #[test]
    fn churn_epochs_remove_what_the_last_visit_added() {
        let mut times = GenTimes::default();
        let shape = Shape {
            ingresses: 3,
            rules_per_policy: 5,
            capacity: 50,
        };
        let instance = build_instance(shape, 11, &mut times);
        let epochs = churn_events(&instance, 9, 2, 13, &mut times);
        for (e, events) in epochs.iter().enumerate() {
            let removes = events
                .iter()
                .filter(|ev| matches!(ev, Event::RemoveRule { .. }))
                .count();
            let adds = events
                .iter()
                .filter(|ev| matches!(ev, Event::AddRule { .. }))
                .count();
            // The first rotation only adds.
            assert_eq!((removes, adds), (if e < 3 { 0 } else { 2 }, 2));
            assert!(events.iter().all(|ev| match ev {
                Event::AddRule { ingress, .. } | Event::RemoveRule { ingress, .. } =>
                    ingress.0 == e % 3,
                _ => false,
            }));
        }
    }
}
