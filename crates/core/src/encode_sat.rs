//! The satisfiability encoding (§IV-D, Equations 6–8): the Boolean form
//! of the model in `walk`, site `i` being [`Var`]`(i)`.
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

use flowplace_acl::RuleId;
use flowplace_pbsat::{Lit, SatResult, Solver, SolverOptions, Var};
use flowplace_routing::RouteId;
use flowplace_topo::{EntryPortId, SwitchId};

use crate::candidates::{build_candidates, CandidateMap};
use crate::merge::MergeGroup;
use crate::placement::Placement;
use crate::walk::{walk, Lowering, Sites};
use crate::Instance;

/// A built PB-SAT formula plus the sites to interpret models.
#[derive(Clone, Debug)]
pub struct SatEncoding {
    formula: PbFormula,
    sites: Sites,
}

/// The solver holding the formula, with the constraints added and
/// whether none was trivially unsatisfiable.
#[derive(Clone, Debug)]
struct PbFormula {
    solver: Solver,
    constraints: usize,
    ok: bool,
    /// Reused to build each cover clause in.
    clause: Vec<Lit>,
}

fn pos(v: u32) -> Lit {
    Lit::positive(Var(v))
}

impl Lowering for PbFormula {
    fn site(&mut self, _: EntryPortId, _: RuleId, _: SwitchId) -> u32 {
        self.solver.new_var().0
    }

    fn cover(&mut self, _: EntryPortId, _: RuleId, _: RouteId, sites: &[u32]) {
        self.clause.clear();
        self.clause.extend(sites.iter().map(|&v| pos(v)));
        self.ok &= self.solver.add_clause(&self.clause);
        self.constraints += 1;
    }

    fn depend(&mut self, _: (EntryPortId, RuleId, SwitchId), drop: u32, permits: &[u32]) {
        for &u in permits {
            self.ok &= self.solver.add_implication(pos(drop), pos(u));
        }
        self.constraints += permits.len();
    }

    fn merge(&mut self, _: usize, _: &MergeGroup, members: &[u32]) -> u32 {
        let members: Vec<Lit> = members.iter().map(|&v| pos(v)).collect();
        let vm = self.solver.new_var();
        self.ok &= self.solver.add_and_equiv(Lit::positive(vm), &members);
        self.constraints += members.len() + 1;
        vm.0
    }

    fn capacity(&mut self, _: SwitchId, cap: usize, sites: &[u32], merges: &[(u32, usize)]) {
        let mut terms: Vec<(u64, Lit)> = sites.iter().map(|&v| (1, pos(v))).collect();
        let mut bound = cap as u64;
        for &(vm, m) in merges {
            terms.push((m as u64 - 1, Lit::negative(Var(vm))));
            bound += m as u64 - 1;
        }
        self.ok &= self.solver.add_pb_le(&terms, bound);
        self.constraints += 1;
    }
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
        // Sized from the candidates: a variable per site, a binary
        // clause per (site, PERMIT) implication, and room for a cover
        // row over each candidate's sites. A `deploy-4k` instance has a
        // few more rows than candidates, so the clause list grows once
        // more near the end. Reserving the implications exactly, once
        // the cover rows were in, lowered `flows-1k` `peak_rss_mb` by
        // 0.6 MB but raised its `setup_s` 1.25–1.5× in paired runs.
        let (mut vars, mut clauses, mut lits) = (0, 0, 0);
        for entry in candidates.values() {
            let (n, implications) = (
                entry.switches.len(),
                entry.switches.len() * entry.permits.len(),
            );
            vars += n;
            clauses += implications + 1;
            lits += 2 * implications + n;
        }
        let mut solver = Solver::with_options(sat);
        solver.reserve(vars, clauses, lits);
        let mut formula = PbFormula {
            solver,
            constraints: 0,
            ok: true,
            clause: Vec::new(),
        };
        let sites = walk(instance, candidates, merging, &mut formula);
        SatEncoding { formula, sites }
    }

    /// Number of placement variables.
    pub fn num_placement_vars(&self) -> usize {
        self.sites.count()
    }

    /// Number of clauses and PB constraints added.
    pub fn constraint_count(&self) -> usize {
        self.formula.constraints
    }

    /// Full CDCL search counters of the last [`SatEncoding::solve`] call
    /// (decisions, conflicts, propagations, restarts, learnt clauses);
    /// all zero when the formula was trivially unsatisfiable.
    pub fn solver_stats(&self) -> flowplace_pbsat::SolverStats {
        self.formula.solver.stats()
    }

    /// The formula as built, for [`flowplace_pbsat::opb`] export. Unit
    /// clauses sit in the solver's level-0 assignment and do not appear;
    /// export before [`SatEncoding::solve`] to leave out learnt clauses.
    pub fn export_formula(&self) -> flowplace_pbsat::opb::Formula {
        self.formula.solver.export_formula()
    }

    /// Solves the formula; `Some(placement)` iff satisfiable.
    pub fn solve(&mut self) -> Option<Placement> {
        if !self.formula.ok {
            return None;
        }
        match self.formula.solver.solve() {
            SatResult::Unsat => None,
            SatResult::Sat(model) => Some(self.sites.decode(|v| model.value(Var(v)))),
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
        assert!(p.switches_of(EntryPortId(0), RuleId(1)).next().is_some());
        assert!(p.switches_of(EntryPortId(0), RuleId(2)).next().is_some());
        // Dependency: wherever drop r1 sits, permit r0 sits too.
        for s in p.switches_of(EntryPortId(0), RuleId(1)) {
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
