//! Layer attribution from outside the program.
//!
//! In the traced round, before each real call, the driver takes the
//! call's steps itself — on clones of the controller's instance,
//! placement and dataplane, through the public functions of each layer
//! — with one span around each step. The program is deterministic, so
//! the shadow steps do the work the real call is about to do, and the
//! part of the real call's time no span accounts for is the
//! controller's own: cloning the working state, dispatch, the warm
//! cache's fingerprints, stats export, cache resync.
//!
//! Every span carries the name of the layer metric it feeds.

use std::collections::BTreeMap;

use flowplace_acl::classify::BatchClassifier;
use flowplace_acl::{Action, Ternary};
use flowplace_core::candidates::CandidateMap;
use flowplace_core::encode_ilp::{DependencyEncoding, EncodeOptions, IlpEncoding};
use flowplace_core::encode_sat::SatEncoding;
use flowplace_core::tables::emit_tables;
use flowplace_core::verify::{verify_tables, VerifyMode};
use flowplace_core::{incremental, par, Instance, Placement, PlacementOptions, PlacerEngine};
use flowplace_ctrl::{CacheCounters, CacheLookup, Controller, CtrlOptions, DataPlane, Event};
use flowplace_milp::solve_mip_lazy;
use flowplace_routing::{Route, RouteSet};
use flowplace_topo::{EntryPortId, SwitchId};
use flowplace_traffic::FlowEvent;

use crate::metrics::{CACHE_LOOKUP, CLASSIFY};
use crate::trace::Tracer;

/// Candidate switches of every rule, with the dependency graphs built
/// inside a span only when the real call builds them too (it reuses
/// them from the warm cache when the policies did not change).
fn candidates(t: &mut Tracer, instance: &Instance, graphs_cached: bool) -> CandidateMap {
    let graphs = if graphs_cached {
        par::build_depgraphs(instance, 1)
    } else {
        t.span("core.depgraph.build_ms", || {
            par::build_depgraphs(instance, 1)
        })
    };
    t.span("core.candidates.build_ms", || {
        par::build_candidates_par(instance, &graphs, 1)
    })
}

/// Encode, solve and decode on the configured engine, as
/// `RulePlacer` does for the serial path.
fn solve(
    t: &mut Tracer,
    instance: &Instance,
    candidates: &CandidateMap,
    options: &CtrlOptions,
) -> Option<Placement> {
    let placement: &PlacementOptions = &options.placement;
    match placement.engine {
        PlacerEngine::Sat => {
            let mut enc = t.span("core.encode_sat.build_ms", || {
                SatEncoding::build_with_candidates_opts(
                    instance,
                    placement.merging,
                    candidates,
                    placement.sat,
                )
            });
            t.add("core.encode_sat.vars", enc.num_placement_vars() as u64);
            t.add("core.encode_sat.constraints", enc.constraint_count() as u64);
            let solved = t.span("pbsat.solve_ms", || enc.solve());
            let stats = enc.solver_stats();
            t.add("pbsat.conflicts", stats.conflicts);
            t.add("pbsat.propagations", stats.propagations);
            t.add("pbsat.decisions", stats.decisions);
            solved
        }
        PlacerEngine::Ilp => {
            let enc = t.span("core.encode_ilp.build_ms", || {
                IlpEncoding::build_with_candidates(
                    instance,
                    &options.objective,
                    &EncodeOptions {
                        dependency: placement.dependency,
                        merging: placement.merging,
                        merge_linking: placement.merge_linking,
                    },
                    candidates,
                )
            });
            t.add("core.encode_ilp.vars", enc.num_placement_vars as u64);
            t.add("core.encode_ilp.rows", enc.model.num_constraints() as u64);
            let lazy = placement.dependency == DependencyEncoding::Lazy;
            let (solved, nodes, lp_iterations) = t.span("milp.solve_ms", || {
                let out = solve_mip_lazy(&enc.model, &placement.mip, &mut |values| {
                    if lazy {
                        enc.violated_dependencies(values)
                    } else {
                        Vec::new()
                    }
                });
                (
                    out.best.as_ref().map(|b| enc.decode(&b.values)),
                    out.nodes,
                    out.lp_iterations,
                )
            });
            t.add("milp.nodes", nodes as u64);
            t.add("milp.lp_iterations", lp_iterations as u64);
            solved
        }
    }
}

/// The atomic commit: emit tables, verify them against the policies,
/// diff against the deployed TCAMs, install.
fn commit(
    t: &mut Tracer,
    instance: &Instance,
    placement: &Placement,
    dataplane: &DataPlane,
    options: &CtrlOptions,
    epoch: u64,
) {
    let Ok(tables) = t.span("core.tables.emit_ms", || emit_tables(instance, placement)) else {
        return;
    };
    // `verify_placement` emits the tables a second time before it
    // replays packets through them.
    let Ok(again) = t.span("core.tables.emit_ms", || emit_tables(instance, placement)) else {
        return;
    };
    let _ = t.span("core.verify.ms", || {
        verify_tables(
            instance,
            &again,
            options.verify_packets,
            epoch,
            VerifyMode::Exact,
            |_| true,
        )
    });
    let mut dataplane = dataplane.clone();
    dataplane.set_capacities(&instance.topology().capacities());
    let Ok(diff) = t.span("ctrl.dataplane.diff_ms", || {
        dataplane.diff_to(&DataPlane::target_from_tables(&tables))
    }) else {
        return;
    };
    let _ = t.span("ctrl.dataplane.apply_ms", || dataplane.apply(&diff));
}

/// Shadow of `Controller::with_instance`: one full solve of a cold
/// instance, committed to an empty dataplane as epoch 1.
pub fn bring_up(t: &mut Tracer, instance: &Instance, options: &CtrlOptions) {
    let candidates = candidates(t, instance, false);
    let Some(placement) = solve(t, instance, &candidates, options) else {
        return;
    };
    let empty = DataPlane::new(instance.topology().capacities());
    commit(t, instance, &placement, &empty, options, 1);
}

/// Shadow of one `run_epoch` over `events` (rule additions and
/// removals on the greedy tier, or one reroute on the restricted
/// tier). Stops attributing at the first step that does not go the
/// way the workloads are built to go; the rest of that call then shows
/// as unattributed.
pub fn epoch(t: &mut Tracer, ctrl: &Controller, events: &[Event]) {
    let mut instance = ctrl.instance().clone();
    let mut placement = ctrl.placement().clone();
    for event in events {
        let next = match event {
            Event::AddRule { ingress, rule } => t
                .span("core.incremental.add_remove_ms", || {
                    incremental::add_rule_greedy(&instance, &placement, *ingress, *rule)
                })
                .ok()
                .and_then(|out| Some((out.instance, out.placement?))),
            Event::RemoveRule { ingress, rule } => t
                .span("core.incremental.add_remove_ms", || {
                    incremental::remove_rule(&instance, &placement, *ingress, *rule)
                })
                .ok()
                .and_then(|out| Some((out.instance, out.placement?))),
            Event::Reroute { ingress, routes } => {
                reroute(t, ctrl, &instance, &placement, *ingress, routes)
            }
            _ => None,
        };
        match next {
            Some(next) => (instance, placement) = next,
            None => return,
        }
    }
    commit(
        t,
        &instance,
        &placement,
        ctrl.dataplane(),
        ctrl.options(),
        ctrl.epoch() + 1,
    );
}

/// The restricted tier of a reroute, rebuilt from the public pieces of
/// `core::incremental`: freeze every other ingress, give the
/// sub-problem the spare capacity, solve it, merge it back.
fn reroute(
    t: &mut Tracer,
    ctrl: &Controller,
    instance: &Instance,
    placement: &Placement,
    ingress: EntryPortId,
    routes: &[Route],
) -> Option<(Instance, Placement)> {
    let (sub, mut merged) = t.span("core.incremental.reroute_ms", || {
        let mut frozen = placement.clone();
        frozen.remove_ingress(ingress);
        let mut topology = instance.topology().clone();
        for (i, spare) in incremental::spare_capacities(instance, &frozen)
            .into_iter()
            .enumerate()
        {
            topology.set_capacity(SwitchId(i), spare);
        }
        let policy = instance.policy(ingress)?.clone();
        let sub = Instance::new(
            topology,
            routes.iter().cloned().collect(),
            vec![(ingress, policy)],
        )
        .ok()?;
        Some((sub, frozen))
    })?;
    // The policy did not change, so the real call finds its dependency
    // graph in the warm cache.
    let candidates = candidates(t, &sub, true);
    let solved = solve(t, &sub, &candidates, ctrl.options())?;
    t.span("core.incremental.reroute_ms", || {
        let all: RouteSet = instance
            .routes()
            .iter()
            .filter(|r| r.ingress != ingress)
            .chain(routes)
            .cloned()
            .collect();
        let rerouted = instance.with_routes(all).ok()?;
        merged.absorb(solved);
        Some((rerouted, merged))
    })
}

/// Shadow of `process_flows` on one lane. The tables do not change
/// while flows run, so the per-tag classifiers are built once.
pub struct FlowShadow {
    /// Per (switch, ingress tag): the classifier over the tag's
    /// entries in table order, and each entry's action.
    classifiers: BTreeMap<(SwitchId, EntryPortId), (BatchClassifier, Vec<Action>)>,
}

impl FlowShadow {
    pub fn new(ctrl: &Controller) -> FlowShadow {
        let mut grouped: BTreeMap<(SwitchId, EntryPortId), (Vec<Ternary>, Vec<Action>)> =
            BTreeMap::new();
        let dataplane = ctrl.dataplane();
        for s in (0..dataplane.switch_count()).map(SwitchId) {
            let mut entries = dataplane.switch(s).entries().to_vec();
            entries.sort_by(|a, b| b.priority.cmp(&a.priority).then_with(|| a.cmp(b)));
            for e in &entries {
                for &tag in &e.tags {
                    let (cubes, actions) = grouped.entry((s, tag)).or_default();
                    cubes.push(e.match_field);
                    actions.push(e.action);
                }
            }
        }
        FlowShadow {
            classifiers: grouped
                .into_iter()
                .map(|(key, (cubes, actions))| (key, (BatchClassifier::new(&cubes), actions)))
                .collect(),
        }
    }

    /// Walks `flows` through a copy of the controller's cache as
    /// `process_flows` does — route pick, per-switch lookup, batched
    /// inserts — without the controller's part (memo re-solve, audits,
    /// stats); then through the bare classifiers. Returns the copy's
    /// counter deltas.
    pub fn flows(&self, t: &mut Tracer, ctrl: &Controller, flows: &[FlowEvent]) -> CacheCounters {
        let mut cache = ctrl.cache().clone();
        let before = *cache.counters();
        let batch = cache.config().miss_batch.max(1) as u64;
        let routes = ctrl.instance().routes();
        t.span(CACHE_LOOKUP, || {
            let mut pending: Vec<(SwitchId, usize)> = Vec::new();
            let mut punts = 0;
            for flow in flows {
                let paths = routes.paths_from(flow.ingress);
                if paths.is_empty() {
                    continue;
                }
                let pick = (flow.packet.bits() % paths.len() as u128) as usize;
                let route = routes.route(paths[pick]).clone();
                for &s in &route.switches {
                    match cache.lookup(s, flow.ingress, &flow.packet) {
                        CacheLookup::Hit(action) => {
                            if action.is_drop() {
                                break;
                            }
                        }
                        CacheLookup::Miss { action, slot } => {
                            punts += 1;
                            if !pending.contains(&(s, slot)) {
                                pending.push((s, slot));
                            }
                            if punts >= batch {
                                for (s, slot) in pending.drain(..) {
                                    cache.insert(s, slot);
                                }
                                punts = 0;
                            }
                            if action.is_drop() {
                                break;
                            }
                        }
                        CacheLookup::NoMatch => {}
                    }
                }
            }
            for (s, slot) in pending.drain(..) {
                cache.insert(s, slot);
            }
        });
        let after = *cache.counters();

        // The classifier probes alone, routes picked beforehand.
        let picked: Vec<Option<&Route>> = flows
            .iter()
            .map(|flow| {
                let paths = routes.paths_from(flow.ingress);
                let pick = (flow.packet.bits() % paths.len().max(1) as u128) as usize;
                paths.get(pick).map(|&id| routes.route(id))
            })
            .collect();
        let probes = t.span(CLASSIFY, || {
            let mut probes = 0u64;
            for (flow, route) in flows.iter().zip(&picked) {
                let Some(route) = route else { continue };
                for &s in &route.switches {
                    let Some((classifier, actions)) = self.classifiers.get(&(s, flow.ingress))
                    else {
                        continue;
                    };
                    probes += 1;
                    if let Some(i) = classifier.first_match(&flow.packet) {
                        if actions[i].is_drop() {
                            break;
                        }
                    }
                }
            }
            probes
        });
        t.add("acl.classify.packets", probes);

        CacheCounters {
            lookups: after.lookups - before.lookups,
            hits: after.hits - before.hits,
            misses: after.misses - before.misses,
            inserts: after.inserts - before.inserts,
            evictions: after.evictions - before.evictions,
            ..CacheCounters::default()
        }
    }
}
