//! The ILP encoding of rule placement (§IV-A and §IV-B of the paper):
//! the linear form of the model in `walk`. Site `i` is the binary
//! [`VarId`]`(i)`, `v_{i,j,k}` = rule `j` of ingress policy `i` placed on
//! switch `k`, named `v_i_j_k`.
//!
//! * **Rule dependency** (Eq. 1): `v_{i,u,k} ≥ v_{i,w,k}` for every
//!   dependency edge `u → w` and candidate switch `k`, as rows up front
//!   or generated lazily (see [`DependencyEncoding`]).
//! * **Path dependency** (Eq. 2, per-path form): `Σ_{k∈p} v_{i,w,k} ≥ 1`
//!   for every DROP rule `w` sliced into path `p`.
//! * **Switch capacity** (Eq. 3): at most `C_k` rules per switch, with
//!   merged rules counted once (Eq. 4–5 linking constraints).
//!
//! The objective prices every placement via [`Objective`]; merge variables
//! carry the negative discount of sharing one entry.

use flowplace_acl::RuleId;
use flowplace_milp::{Cmp, Constraint, Model, Sense, VarId};
use flowplace_routing::RouteId;
use flowplace_topo::{EntryPortId, SwitchId};

use crate::candidates::{build_candidates, CandidateMap};
use crate::merge::MergeGroup;
use crate::placement::Placement;
use crate::walk::{walk, Lowering, Sites};
use crate::{Instance, Objective};

/// How Equation 1 (`v_u ≥ v_w` per dependency edge per switch) enters the
/// model. Both yield the same integer solutions; the lazy form adds only
/// the rows a candidate solution violates (ablation A1 of the
/// reproduction).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum DependencyEncoding {
    /// One row per `(permit, drop, switch)` triple, the paper's Eq. 1 —
    /// quadratically many rows.
    #[default]
    Pairwise,
    /// No rows up front; violated pairwise rows are generated by a lazy
    /// callback when the solver reaches an integral candidate.
    Lazy,
}

/// How the merge variable `v^m` is linked to its members.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum MergeLinking {
    /// `v^m ≤ v` for every member — the standard AND linearization.
    /// Same integer solutions as the paper's Eq. 5 but a strictly tighter
    /// LP relaxation (the default; Eq. 4 is kept unchanged).
    #[default]
    PerMember,
    /// The paper's literal Eq. 5: `v^m ≤ (1/M)·Σv`. One row instead of
    /// `M`, weaker relaxation — kept for the ablation benchmark.
    Aggregated,
}

/// Options controlling [`IlpEncoding::build`].
#[derive(Clone, Debug, Default)]
pub struct EncodeOptions {
    /// Dependency-row strategy.
    pub dependency: DependencyEncoding,
    /// Enable cross-policy rule merging (Eq. 4–5).
    pub merging: bool,
    /// Merge-variable linking strategy.
    pub merge_linking: MergeLinking,
}

/// A built ILP model plus the mappings needed to interpret solutions.
#[derive(Clone, Debug)]
pub struct IlpEncoding {
    /// The MILP model (minimization).
    pub model: Model,
    sites: Sites,
    /// `(v_u, v_w)` pairs for lazy dependency checking.
    dep_pairs: Vec<(VarId, VarId)>,
    /// Number of binary placement variables.
    pub num_placement_vars: usize,
}

/// The model under construction, with what prices and shapes its rows.
struct IlpLowering<'a> {
    model: Model,
    instance: &'a Instance,
    objective: &'a Objective,
    options: &'a EncodeOptions,
    dep_pairs: Vec<(VarId, VarId)>,
}

/// `Σ v` over `vars`, each with coefficient `c`.
fn sum(vars: &[u32], c: f64) -> Vec<(VarId, f64)> {
    vars.iter().map(|&v| (VarId(v as usize), c)).collect()
}

impl Lowering for IlpLowering<'_> {
    fn site(&mut self, ingress: EntryPortId, rule: RuleId, s: SwitchId) -> u32 {
        let model = &mut self.model;
        let v = model.add_binary(format!("v_{}_{}_{}", ingress.0, rule.0, s.0));
        model.set_objective(v, self.objective.coefficient(self.instance, ingress, s));
        u32::try_from(v.0).expect("fewer than 2^32 variables")
    }

    fn cover(&mut self, ingress: EntryPortId, rule: RuleId, route: RouteId, sites: &[u32]) {
        let name = format!("cover_{}_{}_{}", ingress.0, rule.0, route.0);
        self.model
            .add_constraint(name, sum(sites, 1.0), Cmp::Ge, 1.0);
    }

    fn depend(&mut self, at: (EntryPortId, RuleId, SwitchId), drop: u32, permits: &[u32]) {
        let vw = VarId(drop as usize);
        let permits = permits.iter().map(|&v| VarId(v as usize));
        self.dep_pairs.extend(permits.clone().map(|vu| (vu, vw)));
        if self.options.dependency == DependencyEncoding::Pairwise {
            let (ingress, rule, s) = at;
            let name = format!("dep_{}_{}_{}", ingress.0, rule.0, s.0);
            for vu in permits {
                let pair = vec![(vu, 1.0), (vw, -1.0)];
                self.model.add_constraint(name.clone(), pair, Cmp::Ge, 0.0);
            }
        }
    }

    fn merge(&mut self, g: usize, group: &MergeGroup, members: &[u32]) -> u32 {
        let (model, m) = (&mut self.model, members.len() as f64);
        let vm = model.add_binary(format!("vm_{}_{}", group.switch.0, g));
        // Eq. 4: Σv − v^m ≤ M − 1  (all placed ⇒ merged).
        let mut t4 = sum(members, 1.0);
        t4.push((vm, -1.0));
        model.add_constraint(format!("mrg4_{vm}"), t4, Cmp::Le, m - 1.0);
        // Eq. 5 (any member missing ⇒ not merged), in the chosen linking
        // form.
        match self.options.merge_linking {
            MergeLinking::PerMember => {
                for &v in members {
                    let pair = vec![(vm, 1.0), (VarId(v as usize), -1.0)];
                    model.add_constraint(format!("mrg5_{vm}"), pair, Cmp::Le, 0.0);
                }
            }
            MergeLinking::Aggregated => {
                let mut t5 = sum(members, -1.0);
                t5.push((vm, m));
                model.add_constraint(format!("mrg5_{vm}"), t5, Cmp::Le, 0.0);
            }
        }
        // Objective discount: members cost Σc individually; merged they
        // share one entry priced at the dearest member.
        let costs = group
            .members
            .iter()
            .map(|&(l, _)| self.objective.coefficient(self.instance, l, group.switch));
        let (total, max) = costs.fold((0.0, 0.0f64), |(t, m), c| (t + c, m.max(c)));
        model.set_objective(vm, max - total);
        u32::try_from(vm.0).expect("fewer than 2^32 variables")
    }

    fn capacity(&mut self, s: SwitchId, cap: usize, sites: &[u32], merges: &[(u32, usize)]) {
        let mut row = sum(sites, 1.0);
        for &(vm, m) in merges {
            // Merged, M entries collapse into one.
            row.push((VarId(vm as usize), -(m as f64 - 1.0)));
        }
        let name = format!("cap_{}", s.0);
        self.model.add_constraint(name, row, Cmp::Le, cap as f64);
    }
}

impl IlpEncoding {
    /// Encodes `instance` with the given objective.
    ///
    /// Candidate variables follow §IV-C path slicing: a rule gets a
    /// variable only on switches of routes it is sliced into (plus, for
    /// PERMIT rules, the candidate switches of their dependent DROPs).
    pub fn build(instance: &Instance, objective: &Objective, options: &EncodeOptions) -> Self {
        let candidates = build_candidates(instance);
        Self::build_with_candidates(instance, objective, options, &candidates)
    }

    /// Like [`IlpEncoding::build`] with a precomputed candidate map
    /// (shared with merging analysis or incremental solvers).
    pub fn build_with_candidates(
        instance: &Instance,
        objective: &Objective,
        options: &EncodeOptions,
        candidates: &CandidateMap,
    ) -> Self {
        let mut ilp = IlpLowering {
            model: Model::new(Sense::Minimize),
            instance,
            objective,
            options,
            dep_pairs: Vec::new(),
        };
        let sites = walk(instance, candidates, options.merging, &mut ilp);
        IlpEncoding {
            model: ilp.model,
            num_placement_vars: sites.count(),
            sites,
            dep_pairs: ilp.dep_pairs,
        }
    }

    /// Violated pairwise dependency rows for an integral candidate — the
    /// lazy-constraint callback body for [`DependencyEncoding::Lazy`].
    pub fn violated_dependencies(&self, values: &[f64]) -> Vec<Constraint> {
        self.dep_pairs
            .iter()
            .filter(|(vu, vw)| values[vw.0] > 0.5 && values[vu.0] < 0.5)
            .map(|&(vu, vw)| Constraint {
                name: "lazy_dep".into(),
                terms: vec![(vu, 1.0), (vw, -1.0)],
                cmp: Cmp::Ge,
                rhs: 0.0,
            })
            .collect()
    }

    /// Converts a solution vector into a [`Placement`].
    pub fn decode(&self, values: &[f64]) -> Placement {
        self.sites.decode(|v| values[v as usize] > 0.5)
    }

    /// Encodes a known [`Placement`] as a warm-start vector for the model
    /// (merge variables are set to the AND of their members, as Eq. 4–5
    /// require). Returns `None` if the placement uses a non-candidate
    /// location.
    pub fn warm_start(&self, placement: &Placement) -> Option<Vec<f64>> {
        let values = self.sites.encode(placement)?;
        Some(values.into_iter().map(f64::from).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowplace_acl::{Action, Policy, Ternary};
    use flowplace_milp::{solve_mip, MipOptions};
    use flowplace_routing::{Route, RouteSet};

    fn t(s: &str) -> Ternary {
        Ternary::parse(s).unwrap()
    }

    /// The Figure 3 instance: one ingress, two paths s1-s2-s3 and
    /// s1-s2-s4-s5, tight capacities forcing replication of the DROP.
    fn figure3() -> Instance {
        let mut b = flowplace_topo::TopologyBuilder::new();
        let s: Vec<SwitchId> = (1..=5).map(|i| b.add_switch(format!("s{i}"), 10)).collect();
        b.add_link(s[0], s[1]).unwrap();
        b.add_link(s[1], s[2]).unwrap();
        b.add_link(s[1], s[3]).unwrap();
        b.add_link(s[3], s[4]).unwrap();
        let l1 = b.add_entry_port("l1", s[0]).unwrap();
        let l2 = b.add_entry_port("l2", s[2]).unwrap();
        let l3 = b.add_entry_port("l3", s[4]).unwrap();
        let topo = b.build();
        let mut routes = RouteSet::new();
        routes.push(Route::new(l1, l2, vec![s[0], s[1], s[2]]));
        routes.push(Route::new(l1, l3, vec![s[0], s[1], s[3], s[4]]));
        let policy = Policy::from_ordered(vec![
            (t("1100"), Action::Permit), // r_{1,1}
            (t("11**"), Action::Drop),   // r_{1,2}
            (t("0***"), Action::Drop),   // r_{1,3}
        ])
        .unwrap();
        Instance::new(topo, routes, vec![(l1, policy)]).unwrap()
    }

    #[test]
    fn figure3_optimal_is_three_rules_on_shared_switch() {
        let inst = figure3();
        let enc = IlpEncoding::build(&inst, &Objective::TotalRules, &EncodeOptions::default());
        let out = solve_mip(&enc.model, &MipOptions::default());
        assert!(out.is_optimal());
        let sol = out.solution().unwrap();
        // Capacity 10 is loose: everything fits on a shared switch
        // (s1 or s2), so the optimum is exactly 3 rules.
        assert!((sol.objective - 3.0).abs() < 1e-6, "obj {}", sol.objective);
        let p = enc.decode(&sol.values);
        assert_eq!(p.total_rules(), 3);
    }

    #[test]
    fn figure3_tight_capacity_forces_replication() {
        // Give every switch capacity 1: the three rules cannot share a
        // switch; the dependent pair (r1 permit, r2 drop) cannot be
        // placed anywhere together → infeasible.
        let mut inst = figure3();
        let mut topo = inst.topology().clone();
        topo.set_uniform_capacity(1);
        inst = Instance::new(
            topo,
            inst.routes().clone(),
            inst.policies().map(|(l, q)| (l, q.clone())).collect(),
        )
        .unwrap();
        let enc = IlpEncoding::build(&inst, &Objective::TotalRules, &EncodeOptions::default());
        let out = solve_mip(&enc.model, &MipOptions::default());
        assert!(out.is_infeasible());
    }

    #[test]
    fn figure3_capacity_two_replicates_r13() {
        // Capacity 2 per switch: {r1,r2} pair on one switch; r3 must be
        // covered on both paths. The shared prefix s1,s2 has room for the
        // pair on one and r3 on the other → 3 rules total still possible.
        let mut inst = figure3();
        let mut topo = inst.topology().clone();
        topo.set_uniform_capacity(2);
        inst = Instance::new(
            topo,
            inst.routes().clone(),
            inst.policies().map(|(l, q)| (l, q.clone())).collect(),
        )
        .unwrap();
        let enc = IlpEncoding::build(&inst, &Objective::TotalRules, &EncodeOptions::default());
        let out = solve_mip(&enc.model, &MipOptions::default());
        let sol = out.solution().unwrap();
        assert!((sol.objective - 3.0).abs() < 1e-6);
    }

    #[test]
    fn all_encodings_agree() {
        let inst = figure3();
        let mut objectives = Vec::new();
        for dep in [DependencyEncoding::Pairwise, DependencyEncoding::Lazy] {
            let enc = IlpEncoding::build(
                &inst,
                &Objective::TotalRules,
                &EncodeOptions {
                    dependency: dep,
                    merging: false,
                    ..EncodeOptions::default()
                },
            );
            let out = if dep == DependencyEncoding::Lazy {
                flowplace_milp::solve_mip_lazy(&enc.model, &MipOptions::default(), &mut |vals| {
                    enc.violated_dependencies(vals)
                })
            } else {
                solve_mip(&enc.model, &MipOptions::default())
            };
            objectives.push(out.solution().unwrap().objective);
        }
        assert!((objectives[0] - objectives[1]).abs() < 1e-6);
    }

    #[test]
    fn distance_weighted_pushes_upstream() {
        let inst = figure3();
        let enc = IlpEncoding::build(
            &inst,
            &Objective::DistanceWeighted,
            &EncodeOptions::default(),
        );
        let out = solve_mip(&enc.model, &MipOptions::default());
        let p = enc.decode(&out.solution().unwrap().values);
        // With distance weighting everything lands on the ingress switch.
        for ((_, _), switches) in p.iter() {
            assert_eq!(
                switches.iter().copied().collect::<Vec<_>>(),
                vec![SwitchId(0)]
            );
        }
    }

    #[test]
    fn warm_start_round_trips() {
        let inst = figure3();
        let enc = IlpEncoding::build(&inst, &Objective::TotalRules, &EncodeOptions::default());
        let out = solve_mip(&enc.model, &MipOptions::default());
        let p = enc.decode(&out.solution().unwrap().values);
        let ws = enc.warm_start(&p).expect("placement uses candidates");
        assert!(enc.model.check_feasible(&ws, 1e-6).is_ok());
    }
}
