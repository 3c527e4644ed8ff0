//! Placements, solve options and outcomes, and the two engine arms of
//! [`crate::par::solve`].

use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::Arc;

use flowplace_acl::RuleId;
use flowplace_milp::{solve_mip_lazy, MipOptions, MipStatus};
use flowplace_topo::{EntryPortId, SwitchId};

use crate::candidates::CandidateMap;
use crate::encode_ilp::{EncodeOptions, IlpEncoding, MergeLinking};
use crate::encode_sat::SatEncoding;
use crate::greedy;
use crate::merge::MergeGroup;
use crate::{Instance, Objective};

pub use crate::encode_ilp::DependencyEncoding;

/// One ingress's share of a [`Placement`]: its rules keyed by the full
/// `(ingress, rule)` so the per-ingress maps chain into one ordered map,
/// and how many of its entries sit on each switch, kept in step with
/// the map so a switch load never walks it. `==` compares the map only;
/// the counts follow from it.
#[derive(Clone, Default)]
struct IngressRules {
    rules: BTreeMap<(EntryPortId, RuleId), BTreeSet<SwitchId>>,
    load: Vec<usize>,
}

impl IngressRules {
    /// Places `key` on `s`, counting the entry if it is new.
    fn insert(&mut self, key: (EntryPortId, RuleId), s: SwitchId) {
        if self.rules.entry(key).or_default().insert(s) {
            if self.load.len() <= s.0 {
                self.load.resize(s.0 + 1, 0);
            }
            self.load[s.0] += 1;
        }
    }
}

impl PartialEq for IngressRules {
    fn eq(&self, other: &Self) -> bool {
        self.rules == other.rules
    }
}

impl Eq for IngressRules {}

/// A solved mapping from rules to switches.
///
/// `(ingress, rule) → {switches}`, plus the merge groups realized (each
/// merged group occupies a single shared TCAM entry on its switch).
///
/// Copy-on-write per ingress: a clone shares every ingress's map, and an
/// edit copies only the one ingress it touches, so a §IV-E one-rule
/// update on a cloned working copy costs one ingress, not the whole
/// deployment. No ingress maps to an empty map, so `==` is content
/// equality.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct Placement {
    placed: BTreeMap<EntryPortId, Arc<IngressRules>>,
    merged: Vec<MergeGroup>,
}

impl Placement {
    /// An empty placement.
    pub fn new() -> Self {
        Placement::default()
    }

    /// Records rule `rule` of `ingress` on switch `s`.
    pub fn place(&mut self, ingress: EntryPortId, rule: RuleId, s: SwitchId) {
        Arc::make_mut(self.placed.entry(ingress).or_default()).insert((ingress, rule), s);
    }

    /// Records that a merge group is realized (all members placed on its
    /// switch and sharing one entry).
    pub fn record_merge(&mut self, group: MergeGroup) {
        self.merged.push(group);
    }

    /// The switches a rule is placed on (empty if unplaced).
    pub fn switches_of(&self, ingress: EntryPortId, rule: RuleId) -> &BTreeSet<SwitchId> {
        static EMPTY: BTreeSet<SwitchId> = BTreeSet::new();
        let rules = self.placed.get(&ingress);
        rules
            .and_then(|m| m.rules.get(&(ingress, rule)))
            .unwrap_or(&EMPTY)
    }

    /// True if the rule is placed on the switch.
    pub fn is_placed(&self, ingress: EntryPortId, rule: RuleId, s: SwitchId) -> bool {
        self.switches_of(ingress, rule).contains(&s)
    }

    /// Iterates over `((ingress, rule), switches)` entries.
    pub fn iter(&self) -> impl Iterator<Item = (&(EntryPortId, RuleId), &BTreeSet<SwitchId>)> {
        self.placed.values().flat_map(|m| m.rules.iter())
    }

    /// The realized merge groups.
    pub fn merge_groups(&self) -> &[MergeGroup] {
        &self.merged
    }

    /// Total TCAM entries consumed network-wide: every `(rule, switch)`
    /// pair counts one, except merged groups which share a single entry
    /// (the paper's quantity `B`).
    pub fn total_rules(&self) -> usize {
        let raw: usize = self.placed.values().flat_map(|m| &m.load).sum();
        let saved: usize = self.merged.iter().map(|g| g.members.len() - 1).sum();
        raw - saved
    }

    /// TCAM entries consumed on each switch of `instance`'s topology.
    pub fn per_switch_load(&self, instance: &Instance) -> Vec<usize> {
        let mut load = vec![0usize; instance.topology().switch_count()];
        for m in self.placed.values() {
            for (s, &n) in m.load.iter().enumerate().filter(|(_, &n)| n > 0) {
                load[s] += n;
            }
        }
        for g in &self.merged {
            load[g.switch.0] -= g.members.len() - 1;
        }
        load
    }

    /// Duplication overhead `(B − A)/A` (§V Experiment 3): how many more
    /// entries the network holds compared to the sum of policy sizes `A`.
    /// It goes negative when fewer entries are installed than the
    /// policies hold: rules that are never placed (PERMITs that no DROP
    /// needs as a shield, rules sliced off every route) count in `A` but
    /// not in `B`. Merging lowers the figure too.
    pub fn duplication_overhead(&self, instance: &Instance) -> f64 {
        let a = instance.total_policy_rules() as f64;
        if a == 0.0 {
            return 0.0;
        }
        (self.total_rules() as f64 - a) / a
    }

    /// Removes every entry of one ingress policy (used when its routes
    /// change). Merge groups containing the ingress are dissolved (their
    /// remaining members keep individual entries).
    pub fn remove_ingress(&mut self, ingress: EntryPortId) {
        self.placed.remove(&ingress);
        self.merged
            .retain(|g| g.members.iter().all(|(l, _)| *l != ingress));
    }

    /// Re-keys the rules of `ingress` numbered `from` and up after its
    /// policy gained or lost a rule: rule `r` becomes `map(r)`, or is
    /// dropped where `map` returns `None`, and a merge group holding a
    /// dropped rule is dissolved (its other members keep their own
    /// entries). `map` must not send two kept rules to one id. Only the
    /// one ingress's map is touched.
    pub fn renumber(
        &mut self,
        ingress: EntryPortId,
        from: RuleId,
        map: impl Fn(RuleId) -> Option<RuleId>,
    ) {
        if let Entry::Occupied(mut entry) = self.placed.entry(ingress) {
            let ingress_rules = Arc::make_mut(entry.get_mut());
            for ((l, r), switches) in ingress_rules.rules.split_off(&(ingress, from)) {
                match map(r) {
                    Some(r) => {
                        ingress_rules.rules.insert((l, r), switches);
                    }
                    None => switches.iter().for_each(|s| ingress_rules.load[s.0] -= 1),
                }
            }
            if ingress_rules.rules.is_empty() {
                entry.remove();
            }
        }
        self.merged.retain_mut(|g| {
            g.members.iter_mut().all(|(l, r)| {
                if *l == ingress && *r >= from {
                    match map(*r) {
                        Some(mapped) => *r = mapped,
                        None => return false,
                    }
                }
                true
            })
        });
    }

    /// Merges another placement into this one (used by incremental
    /// deployment to graft a sub-solution).
    pub fn absorb(&mut self, other: Placement) {
        for (l, theirs) in other.placed {
            match self.placed.entry(l) {
                Entry::Vacant(entry) => {
                    entry.insert(theirs);
                }
                Entry::Occupied(mut entry) => {
                    let ingress_rules = Arc::make_mut(entry.get_mut());
                    for (key, switches) in Arc::unwrap_or_clone(theirs).rules {
                        switches
                            .into_iter()
                            .for_each(|s| ingress_rules.insert(key, s));
                    }
                }
            }
        }
        self.merged.extend(other.merged);
    }
}

/// Prints the flat `(ingress, rule) → switches` map, exactly as a derived
/// impl over one map would: dumps compared across versions hash this text.
impl fmt::Debug for Placement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        struct Flat<'a>(&'a Placement);
        impl fmt::Debug for Flat<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.debug_map().entries(self.0.iter()).finish()
            }
        }
        f.debug_struct("Placement")
            .field("placed", &Flat(self))
            .field("merged", &self.merged)
            .finish()
    }
}

impl fmt::Display for Placement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "placement: {} entries ({} merge groups)",
            self.total_rules(),
            self.merged.len()
        )
    }
}

/// Which engine solves the encoded problem.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum PlacerEngine {
    /// ILP via branch & bound — optimizes the objective (§IV-A).
    #[default]
    Ilp,
    /// Pseudo-Boolean satisfiability — any feasible placement, no
    /// objective (§IV-D).
    Sat,
}

/// Outcome status of a placement solve.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SolveStatus {
    /// Proven optimal (ILP engine only).
    Optimal,
    /// A placement in hand, no bound proven on it: the ILP's iteration
    /// budget ran out, or the SAT engine (§IV-D asks only for *a*
    /// satisfying placement) or a greedy operation produced it.
    Feasible,
    /// Proven infeasible.
    Infeasible,
    /// Limits hit before any conclusion.
    Unknown,
}

impl fmt::Display for SolveStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolveStatus::Optimal => write!(f, "optimal"),
            SolveStatus::Feasible => write!(f, "feasible"),
            SolveStatus::Infeasible => write!(f, "infeasible"),
            SolveStatus::Unknown => write!(f, "unknown"),
        }
    }
}

/// Model/search statistics of a placement solve: what it cost in
/// effort, a function of (instance, options, objective) like the rest of
/// the outcome. A caller that wants seconds holds its own stopwatch.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PlacementStats {
    /// Binary placement variables in the model.
    pub variables: usize,
    /// Constraint rows (ILP) or clauses+PB constraints (SAT).
    pub constraints: usize,
    /// Branch-and-bound nodes (ILP) or conflicts (SAT).
    pub nodes: usize,
    /// Simplex iterations of every LP solved (ILP only): the unit of
    /// the `mip.iteration_limit` budget.
    pub lp_iterations: usize,
    /// Lazy dependency rows generated (ILP lazy mode only).
    pub lazy_rows: usize,
    /// Full CDCL statistics when the SAT engine produced this outcome
    /// (restarts, blocked restarts, DB reductions, learnt clauses, LBD
    /// accounting); `None` for ILP and greedy outcomes.
    pub sat: Option<flowplace_pbsat::SolverStats>,
}

/// The result of [`crate::par::solve`].
#[derive(Clone, Debug, PartialEq)]
pub struct PlacementOutcome {
    /// The placement, when one was found.
    pub placement: Option<Placement>,
    /// Solve status.
    pub status: SolveStatus,
    /// Objective value of the returned placement (ILP engine).
    pub objective: Option<f64>,
    /// Model and search statistics.
    pub stats: PlacementStats,
}

/// Options for [`crate::par::solve`].
#[derive(Clone, Debug, Default)]
pub struct PlacementOptions {
    /// Engine selection (ILP optimizing, or SAT feasibility-only).
    pub engine: PlacerEngine,
    /// Dependency-row strategy for the ILP engine.
    pub dependency: DependencyEncoding,
    /// Enable cross-policy rule merging (Eq. 4–5).
    pub merging: bool,
    /// Merge-variable linking strategy (ILP engine).
    pub merge_linking: MergeLinking,
    /// Seed the ILP incumbent with the ingress-first greedy heuristic.
    pub greedy_warm_start: bool,
    /// Branch-and-bound options (iteration budget, warm incumbent).
    pub mip: MipOptions,
    /// CDCL search options for the SAT engine (learnt-DB reduction, on
    /// by default).
    pub sat: flowplace_pbsat::SolverOptions,
}

/// ILP solve over already-built candidates: the ILP arm of stage 3 of
/// [`crate::par::solve`].
pub(crate) fn place_ilp_with(
    options: &PlacementOptions,
    instance: &Instance,
    objective: &Objective,
    candidates: &CandidateMap,
) -> PlacementOutcome {
    let enc = IlpEncoding::build_with_candidates(
        instance,
        objective,
        &EncodeOptions {
            dependency: options.dependency,
            merging: options.merging,
            merge_linking: options.merge_linking,
        },
        candidates,
    );
    let mut mip = options.mip.clone();
    if options.greedy_warm_start {
        if let Some(p) = greedy::greedy_place(instance) {
            mip.initial_solution = enc.warm_start(&p);
        }
    }
    let lazy = options.dependency == DependencyEncoding::Lazy;
    let out = solve_mip_lazy(&enc.model, &mip, &mut |vals| {
        if lazy {
            enc.violated_dependencies(vals)
        } else {
            Vec::new()
        }
    });
    let status = match out.status {
        MipStatus::Optimal => SolveStatus::Optimal,
        MipStatus::Feasible => SolveStatus::Feasible,
        MipStatus::Infeasible => SolveStatus::Infeasible,
        MipStatus::Unknown => SolveStatus::Unknown,
        // A malformed model / broken solver invariant proves nothing
        // about feasibility.
        MipStatus::Error => SolveStatus::Unknown,
    };
    let placement = out.best.as_ref().map(|b| enc.decode(&b.values));
    PlacementOutcome {
        placement,
        status,
        objective: out.best.as_ref().map(|b| b.objective),
        stats: PlacementStats {
            variables: enc.num_placement_vars,
            constraints: enc.model.num_constraints(),
            nodes: out.nodes,
            lp_iterations: out.lp_iterations,
            lazy_rows: out.lazy_rows_added,
            sat: None,
        },
    }
}

/// SAT solve over already-built candidates: the SAT arm of stage 3 of
/// [`crate::par::solve`].
pub(crate) fn place_sat_with(
    options: &PlacementOptions,
    instance: &Instance,
    candidates: &CandidateMap,
) -> PlacementOutcome {
    let mut enc =
        SatEncoding::build_with_candidates_opts(instance, options.merging, candidates, options.sat);
    let (placement, status) = match enc.solve() {
        // A model, with no bound proven on it.
        Some(p) => (Some(p), SolveStatus::Feasible),
        None => (None, SolveStatus::Infeasible),
    };
    let sat = enc.solver_stats();
    PlacementOutcome {
        placement,
        status,
        objective: None,
        stats: PlacementStats {
            variables: enc.num_placement_vars(),
            constraints: enc.constraint_count(),
            nodes: sat.conflicts as usize,
            lp_iterations: 0,
            lazy_rows: 0,
            sat: Some(sat),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowplace_acl::{Action, Ternary};

    fn group(switch: usize, n: usize) -> MergeGroup {
        MergeGroup {
            switch: SwitchId(switch),
            match_field: Ternary::parse("1*").unwrap(),
            action: Action::Drop,
            members: (0..n).map(|i| (EntryPortId(i), RuleId(0))).collect(),
        }
    }

    #[test]
    fn total_rules_counts_merges_once() {
        let mut p = Placement::new();
        p.place(EntryPortId(0), RuleId(0), SwitchId(1));
        p.place(EntryPortId(1), RuleId(0), SwitchId(1));
        p.place(EntryPortId(0), RuleId(1), SwitchId(2));
        assert_eq!(p.total_rules(), 3);
        p.record_merge(group(1, 2));
        assert_eq!(p.total_rules(), 2);
    }

    #[test]
    fn switches_of_unplaced_is_empty() {
        let p = Placement::new();
        assert!(p.switches_of(EntryPortId(0), RuleId(0)).is_empty());
        assert!(!p.is_placed(EntryPortId(0), RuleId(0), SwitchId(0)));
    }

    #[test]
    fn remove_ingress_dissolves_merges() {
        let mut p = Placement::new();
        p.place(EntryPortId(0), RuleId(0), SwitchId(1));
        p.place(EntryPortId(1), RuleId(0), SwitchId(1));
        p.record_merge(group(1, 2));
        p.remove_ingress(EntryPortId(0));
        assert_eq!(p.total_rules(), 1);
        assert!(p.merge_groups().is_empty());
    }

    #[test]
    fn absorb_unions() {
        let mut a = Placement::new();
        a.place(EntryPortId(0), RuleId(0), SwitchId(1));
        let mut b = Placement::new();
        b.place(EntryPortId(0), RuleId(0), SwitchId(2));
        b.place(EntryPortId(1), RuleId(0), SwitchId(1));
        a.absorb(b);
        assert_eq!(a.total_rules(), 3);
        assert!(a.is_placed(EntryPortId(0), RuleId(0), SwitchId(2)));
    }

    /// The copy-on-write contract the controller's per-event working
    /// copies rely on: after a clone and a one-ingress edit, every other
    /// ingress's map is still shared and only the edited one was copied.
    #[test]
    fn clone_then_edit_copies_one_ingress() {
        let mut p = Placement::new();
        for l in 0..4 {
            for r in 0..3 {
                p.place(EntryPortId(l), RuleId(r), SwitchId(l + r));
            }
        }
        let shared = |a: &Placement, b: &Placement, l: usize| {
            Arc::ptr_eq(&a.placed[&EntryPortId(l)], &b.placed[&EntryPortId(l)])
        };
        type Edit = fn(&mut Placement);
        let edits: [Edit; 3] = [
            |q| q.place(EntryPortId(2), RuleId(9), SwitchId(0)),
            |q| q.renumber(EntryPortId(2), RuleId(1), |r| Some(RuleId(r.0 + 1))),
            |q| {
                let mut other = Placement::new();
                other.place(EntryPortId(2), RuleId(0), SwitchId(7));
                q.absorb(other);
            },
        ];
        for edit in edits {
            let mut q = p.clone();
            assert!((0..4).all(|l| shared(&p, &q, l)));
            edit(&mut q);
            assert_ne!(p, q);
            assert!(!shared(&p, &q, 2), "the edited ingress must be copied");
            for l in [0, 1, 3] {
                assert!(shared(&p, &q, l), "l{l} was deep-copied");
            }
        }
    }

    #[test]
    fn display_mentions_entries() {
        let mut p = Placement::new();
        p.place(EntryPortId(0), RuleId(0), SwitchId(1));
        assert!(p.to_string().contains("1 entries"));
    }
}
