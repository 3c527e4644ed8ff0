//! The satisfiability encoding (§IV-D, Equations 6–8).
//!
//! When only feasibility matters — e.g. fast re-placement after a routing
//! change — the placement constraints become a pseudo-Boolean formula:
//!
//! * Eq. 6: every dependency edge is an implication `v_{i,w,k} → v_{i,u,k}`;
//! * Eq. 7: every (path, DROP rule) pair is a clause `⋁_{s∈p} v_{i,j,s}`;
//! * Eq. 3: per-switch capacity is a PB constraint `Σ v ≤ C_k`;
//! * Eq. 8: each merge variable is `v^m ↔ ⋀_{v∈R} v`, and the capacity
//!   row discounts merged duplicates via the rewrite
//!   `Σv + (M−1)·¬v^m ≤ C + (M−1)` (PB weights must be positive).
//!
//! Any model of the formula is a semantics-preserving placement; nothing
//! is optimized.

use std::collections::BTreeMap;

use flowplace_fasthash::FnvHashSet;

use flowplace_acl::RuleId;
use flowplace_pbsat::{Lit, SatResult, Solver, SolverOptions, Var};
use flowplace_topo::{EntryPortId, SwitchId};

use crate::candidates::{build_candidates, CandidateMap};
use crate::depgraph::DependencyGraph;
use crate::merge::{find_merge_groups, MergeGroup};
use crate::placement::Placement;
use crate::slicing;
use crate::Instance;

/// Placement variables per `(ingress, rule)`: `(switch, var)` in switch
/// order, so iterating the map visits `(ingress, rule, switch)` in
/// lexicographic order — the order the variables are numbered in.
type SiteVars = BTreeMap<(EntryPortId, RuleId), Vec<(SwitchId, Var)>>;

/// The variable placing a rule on `s`, from that rule's site slice.
fn site_var(sites: &[(SwitchId, Var)], s: SwitchId) -> Option<Var> {
    sites
        .binary_search_by_key(&s, |&(sw, _)| sw)
        .ok()
        .map(|i| sites[i].1)
}

/// A built PB-SAT formula plus the variable maps to interpret models.
#[derive(Clone, Debug)]
pub struct SatEncoding {
    solver: Solver,
    vars: SiteVars,
    merge_vars: Vec<(Var, MergeGroup)>,
    constraint_count: usize,
    conflicts: u64,
    trivially_unsat: bool,
}

impl SatEncoding {
    /// Encodes `instance` (optionally with merging) into a PB formula.
    pub fn build(instance: &Instance, merging: bool) -> Self {
        let candidates = build_candidates(instance);
        Self::build_with_candidates_opts(instance, merging, &candidates, SolverOptions::default())
    }

    /// Like [`SatEncoding::build`] with a precomputed candidate map and
    /// explicit CDCL search options (learnt-DB reduction).
    pub fn build_with_candidates_opts(
        instance: &Instance,
        merging: bool,
        candidates: &CandidateMap,
        sat: SolverOptions,
    ) -> Self {
        let mut solver = Solver::with_options(sat);
        let mut ok = true;
        let mut constraint_count = 0usize;
        let vars: SiteVars = candidates
            .iter()
            .map(|(&key, switches)| {
                let sites = switches.iter().map(|&s| (s, solver.new_var())).collect();
                (key, sites)
            })
            .collect();

        // Eq. 7: per-path coverage clauses, deduplicated. Membership-only
        // (never iterated), so the unordered FNV set is safe here.
        let mut seen: FnvHashSet<Vec<Lit>> = FnvHashSet::default();
        for (ingress, policy) in instance.policies() {
            for rid in instance.routes().paths_from(ingress) {
                let route = instance.routes().route(rid);
                for w in slicing::sliced_drop_rules(policy, route) {
                    let Some(w_sites) = vars.get(&(ingress, w)) else {
                        continue;
                    };
                    let mut clause: Vec<Lit> = route
                        .switches
                        .iter()
                        .filter_map(|&s| site_var(w_sites, s))
                        .map(Lit::positive)
                        .collect();
                    clause.sort_unstable();
                    clause.dedup();
                    if clause.is_empty() {
                        continue;
                    }
                    if seen.insert(clause.clone()) {
                        ok &= solver.add_clause(&clause);
                        constraint_count += 1;
                    }
                }
            }
        }

        // Eq. 6: dependency implications. Each required PERMIT's site
        // slice is fetched once per DROP, not once per (switch, PERMIT).
        let mut permit_sites: Vec<&[(SwitchId, Var)]> = Vec::new();
        for (ingress, policy) in instance.policies() {
            let graph = DependencyGraph::build(policy);
            for (id, rule) in policy.iter() {
                if !rule.action().is_drop() {
                    continue;
                }
                let Some(w_sites) = vars.get(&(ingress, id)).filter(|s| !s.is_empty()) else {
                    continue;
                };
                permit_sites.clear();
                permit_sites.extend(
                    graph
                        .permits_required_by(id)
                        .iter()
                        .map(|&u| vars[&(ingress, u)].as_slice()),
                );
                for &(s, vw) in w_sites {
                    for u_sites in &permit_sites {
                        let vu = site_var(u_sites, s)
                            .expect("a PERMIT is a candidate wherever its DROP is");
                        ok &= solver.add_implication(Lit::positive(vw), Lit::positive(vu));
                        constraint_count += 1;
                    }
                }
            }
        }

        // Eq. 8 merge links + capacity bookkeeping.
        let mut merge_vars: Vec<(Var, MergeGroup)> = Vec::new();
        let mut cap_extra: BTreeMap<SwitchId, Vec<(u64, Lit)>> = BTreeMap::new();
        let mut cap_bonus: BTreeMap<SwitchId, u64> = BTreeMap::new();
        if merging {
            for group in find_merge_groups(instance, candidates) {
                let members: Vec<Lit> = group
                    .members
                    .iter()
                    .map(|&(l, r)| {
                        Lit::positive(
                            site_var(&vars[&(l, r)], group.switch).expect("merge member is a site"),
                        )
                    })
                    .collect();
                let m = members.len() as u64;
                let vm = solver.new_var();
                ok &= solver.add_and_equiv(Lit::positive(vm), &members);
                constraint_count += members.len() + 1;
                cap_extra
                    .entry(group.switch)
                    .or_default()
                    .push((m - 1, Lit::negative(vm)));
                *cap_bonus.entry(group.switch).or_default() += m - 1;
                merge_vars.push((vm, group));
            }
        }

        // Eq. 3: capacity PB rows.
        let mut per_switch: BTreeMap<SwitchId, Vec<(u64, Lit)>> = BTreeMap::new();
        for &(s, v) in vars.values().flatten() {
            per_switch.entry(s).or_default().push((1, Lit::positive(v)));
        }
        for (s, mut terms) in per_switch {
            let cap = instance.topology().capacity(s);
            if cap >= terms.len() {
                continue;
            }
            let mut bound = cap as u64;
            if let Some(extra) = cap_extra.get(&s) {
                terms.extend(extra.iter().copied());
                bound += cap_bonus[&s];
            }
            ok &= solver.add_pb_le(&terms, bound);
            constraint_count += 1;
        }

        SatEncoding {
            solver,
            vars,
            merge_vars,
            constraint_count,
            conflicts: 0,
            trivially_unsat: !ok,
        }
    }

    /// Number of placement variables.
    pub fn num_placement_vars(&self) -> usize {
        self.vars.values().map(Vec::len).sum()
    }

    /// Number of clauses and PB constraints added.
    pub fn constraint_count(&self) -> usize {
        self.constraint_count
    }

    /// Conflicts analyzed by the last [`SatEncoding::solve`] call.
    pub fn conflicts(&self) -> u64 {
        self.conflicts
    }

    /// Full CDCL search counters of the last
    /// [`SatEncoding::solve`] call (decisions, conflicts, propagations,
    /// restarts, learnt clauses) — the solver-side telemetry exported to
    /// the observability registry.
    pub fn solver_stats(&self) -> flowplace_pbsat::SolverStats {
        self.solver.stats()
    }

    /// Solves the formula; `Some(placement)` iff satisfiable.
    pub fn solve(&mut self) -> Option<Placement> {
        if self.trivially_unsat {
            return None;
        }
        let result = self.solver.solve();
        self.conflicts = self.solver.stats().conflicts;
        match result {
            SatResult::Unsat => None,
            SatResult::Sat(model) => {
                let mut placement = Placement::new();
                for (&(ingress, rule), sites) in &self.vars {
                    for &(s, v) in sites {
                        if model.value(v) {
                            placement.place(ingress, rule, s);
                        }
                    }
                }
                for (vm, group) in &self.merge_vars {
                    if model.value(*vm) {
                        placement.record_merge(group.clone());
                    }
                }
                Some(placement)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowplace_acl::{Action, Policy, Ternary};
    use flowplace_routing::{Route, RouteSet};
    use flowplace_topo::Topology;

    fn t(s: &str) -> Ternary {
        Ternary::parse(s).unwrap()
    }

    fn chain(capacity: usize) -> Instance {
        let mut topo = Topology::linear(3);
        topo.set_uniform_capacity(capacity);
        let mut routes = RouteSet::new();
        routes.push(Route::new(
            EntryPortId(0),
            EntryPortId(1),
            vec![SwitchId(0), SwitchId(1), SwitchId(2)],
        ));
        let policy = Policy::from_ordered(vec![
            (t("11**"), Action::Permit),
            (t("1***"), Action::Drop),
            (t("01**"), Action::Drop),
        ])
        .unwrap();
        Instance::new(topo, routes, vec![(EntryPortId(0), policy)]).unwrap()
    }

    #[test]
    fn satisfiable_when_capacity_allows() {
        let mut enc = SatEncoding::build(&chain(3), false);
        let p = enc.solve().expect("satisfiable");
        // The drop rules are covered somewhere on the path.
        assert!(!p.switches_of(EntryPortId(0), RuleId(1)).is_empty());
        assert!(!p.switches_of(EntryPortId(0), RuleId(2)).is_empty());
        // Dependency: wherever drop r1 sits, permit r0 sits too.
        for &s in p.switches_of(EntryPortId(0), RuleId(1)).clone().iter() {
            assert!(p.is_placed(EntryPortId(0), RuleId(0), s));
        }
    }

    #[test]
    fn unsat_when_pair_cannot_fit() {
        // Capacity 1: the (permit, drop) pair can fit nowhere.
        let mut enc = SatEncoding::build(&chain(1), false);
        assert!(enc.solve().is_none());
    }

    #[test]
    fn merging_rescues_tight_capacity() {
        // Two ingresses sharing one middle switch of capacity 1, both
        // needing the same DROP on it: only merging fits.
        let mut b = flowplace_topo::TopologyBuilder::new();
        let s0 = b.add_switch("s0", 0);
        let s1 = b.add_switch("mid", 1);
        let s2 = b.add_switch("s2", 0);
        b.add_link(s0, s1).unwrap();
        b.add_link(s1, s2).unwrap();
        let l0 = b.add_entry_port("l0", s0).unwrap();
        let l1 = b.add_entry_port("l1", s2).unwrap();
        let topo = b.build();
        let mut routes = RouteSet::new();
        routes.push(Route::new(l0, l1, vec![s0, s1, s2]));
        routes.push(Route::new(l1, l0, vec![s2, s1, s0]));
        let q = Policy::from_ordered(vec![(t("1111"), Action::Drop)]).unwrap();
        let inst = Instance::new(topo, routes, vec![(l0, q.clone()), (l1, q)]).unwrap();

        let mut plain = SatEncoding::build(&inst, false);
        assert!(
            plain.solve().is_none(),
            "two entries cannot fit in one slot"
        );

        let mut merged = SatEncoding::build(&inst, true);
        let p = merged.solve().expect("merging shares the single slot");
        assert_eq!(p.total_rules(), 1);
        assert_eq!(p.merge_groups().len(), 1);
    }

    #[test]
    fn stats_exposed() {
        let mut enc = SatEncoding::build(&chain(3), false);
        assert!(enc.num_placement_vars() > 0);
        assert!(enc.constraint_count() > 0);
        let _ = enc.solve();
    }
}
