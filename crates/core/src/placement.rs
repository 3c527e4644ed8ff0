//! Placements, solve options and outcomes, and the two engine arms of
//! [`crate::par::solve`].

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
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

/// One ingress's share of a [`Placement`], switch-major: per switch
/// holding an entry of the ingress, in `SwitchId` order, a *run* of the
/// ids of the rules placed there, ascending. Run `k` is on `switches[k]`
/// and ends in `ids` at `ends[k]`, where run `k + 1` begins. Every run
/// is sorted, distinct and non-empty, so the derived `==` is content
/// equality and a switch's load is its run's length.
#[derive(Clone, Default, PartialEq, Eq)]
pub(crate) struct IngressRules {
    switches: Vec<SwitchId>,
    ends: Vec<u32>,
    ids: Vec<u32>,
}

/// The share of an ingress with nothing placed.
static NO_RULES: IngressRules = IngressRules {
    switches: Vec::new(),
    ends: Vec::new(),
    ids: Vec::new(),
};

/// A rule id as a run holds it.
fn id_of(rule: RuleId) -> u32 {
    u32::try_from(rule.0).expect("fewer than 2^32 rules per policy")
}

impl IngressRules {
    /// The share holding `entries`, `(rule, switch)` pairs in ascending
    /// rule order, each once: a pass counts each switch's entries, a
    /// second drops every id into its run.
    fn collect(entries: impl Iterator<Item = (RuleId, SwitchId)> + Clone) -> IngressRules {
        let mut next: Vec<u32> = Vec::new();
        for (_, s) in entries.clone() {
            if next.len() <= s.0 {
                next.resize(s.0 + 1, 0);
            }
            next[s.0] += 1;
        }
        let mut share = IngressRules::default();
        let mut end = 0;
        for (s, slot) in next.iter_mut().enumerate() {
            let n = std::mem::replace(slot, end);
            if n > 0 {
                end += n;
                share.switches.push(SwitchId(s));
                share.ends.push(end);
            }
        }
        share.ids = vec![0; end as usize];
        for (r, s) in entries {
            share.ids[next[s.0] as usize] = id_of(r);
            next[s.0] += 1;
        }
        share.debug_check();
        share
    }

    /// Where run `k` starts in `ids` (`k` may be one past the last run).
    fn start(&self, k: usize) -> usize {
        k.checked_sub(1).map_or(0, |j| self.ends[j] as usize)
    }

    /// Run `k`'s rule ids.
    fn run(&self, k: usize) -> &[u32] {
        &self.ids[self.start(k)..self.ends[k] as usize]
    }

    /// Each run's switch and rule ids, in switch order.
    pub(crate) fn runs(&self) -> impl Iterator<Item = (SwitchId, &[u32])> + Clone {
        (0..self.switches.len()).map(|k| (self.switches[k], self.run(k)))
    }

    /// The switches holding `rule`, ascending: a binary search per run.
    fn holding(&self, rule: u32) -> impl Iterator<Item = SwitchId> + Clone + '_ {
        let runs = self
            .runs()
            .filter(move |(_, run)| run.binary_search(&rule).is_ok());
        runs.map(|(s, _)| s)
    }

    /// The switches holding an entry, ascending.
    pub(crate) fn switches(&self) -> &[SwitchId] {
        &self.switches
    }

    /// The run on `s`, empty if `s` holds no entry.
    fn run_on(&self, s: SwitchId) -> &[u32] {
        self.switches.binary_search(&s).map_or(&[], |k| self.run(k))
    }

    /// Places `rule` on `s`, in its run, which it opens if `s` has none.
    fn insert(&mut self, rule: RuleId, s: SwitchId) {
        let k = self.switches.binary_search(&s).unwrap_or_else(|k| {
            self.ends.insert(k, self.start(k) as u32);
            self.switches.insert(k, s);
            k
        });
        let at = self.start(k);
        if let Err(i) = self.run(k).binary_search(&id_of(rule)) {
            self.ids.insert(at + i, id_of(rule));
            self.ends[k..].iter_mut().for_each(|end| *end += 1);
        }
        self.debug_check();
    }

    /// Sends every id from `from` up through `map` in one pass over
    /// `ids`, dropping the ids it maps to `None` and the runs left
    /// empty. A run is re-sorted only if `map` put it out of order.
    fn renumber(&mut self, from: u32, map: impl Fn(RuleId) -> Option<RuleId>) {
        let (mut w, mut lo, mut kept) = (0, 0, 0);
        for k in 0..self.switches.len() {
            let (start, hi) = (w, self.ends[k] as usize);
            for i in std::mem::replace(&mut lo, hi)..hi {
                let id = self.ids[i];
                let id = if id < from {
                    Some(id)
                } else {
                    map(RuleId(id as usize)).map(id_of)
                };
                if let Some(id) = id {
                    self.ids[w] = id;
                    w += 1;
                }
            }
            if !self.ids[start..w].is_sorted() {
                self.ids[start..w].sort_unstable();
            }
            if w > start {
                (self.switches[kept], self.ends[kept]) = (self.switches[k], w as u32);
                kept += 1;
            }
        }
        self.ids.truncate(w);
        self.switches.truncate(kept);
        self.ends.truncate(kept);
        self.debug_check();
    }

    /// The union of two shares.
    fn union(&self, other: &IngressRules) -> IngressRules {
        let runs = self.runs().chain(other.runs());
        let entries = runs.flat_map(|(s, ids)| ids.iter().map(move |&id| (id as usize, s)));
        let mut entries: Vec<(usize, SwitchId)> = entries.collect();
        entries.sort_unstable();
        entries.dedup();
        IngressRules::collect(entries.into_iter().map(|(r, s)| (RuleId(r), s)))
    }

    /// Debug builds check the layout after every edit: switches
    /// ascending, and every run sorted, distinct and non-empty.
    fn debug_check(&self) {
        if cfg!(debug_assertions) {
            assert!(self.switches.is_sorted_by(|a, b| a < b));
            assert_eq!(self.switches.len(), self.ends.len());
            assert_eq!(self.start(self.ends.len()), self.ids.len());
            for (s, run) in self.runs() {
                let canonical = !run.is_empty() && run.is_sorted_by(|a, b| a < b);
                assert!(
                    canonical,
                    "the run on {s} is empty, unsorted or repeats an id"
                );
            }
        }
    }
}

/// A solved mapping from rules to switches.
///
/// `(ingress, rule) → {switches}`, plus the merge groups realized (each
/// merged group occupies a single shared TCAM entry on its switch). Each
/// ingress's share is held switch-major: per switch, the sorted ids of
/// the ingress's rules placed there, all in one flat run list.
///
/// Copy-on-write per ingress: a clone shares every ingress's share, and
/// an edit copies only the one ingress it touches, so a §IV-E one-rule
/// update on a cloned working copy costs one ingress, not the whole
/// deployment. No ingress maps to an empty share, so `==` is content
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
        Arc::make_mut(self.placed.entry(ingress).or_default()).insert(rule, s);
    }

    /// Gives `ingress`, which has no entry yet, the `(rule, switch)`
    /// entries of `entries`, in ascending rule order and each once; the
    /// share is built in one counting pass, not entry by entry.
    pub(crate) fn place_share(
        &mut self,
        ingress: EntryPortId,
        entries: impl Iterator<Item = (RuleId, SwitchId)> + Clone,
    ) {
        let share = IngressRules::collect(entries);
        if !share.ids.is_empty() {
            let old = self.placed.insert(ingress, Arc::new(share));
            debug_assert!(old.is_none(), "{ingress} already had entries");
        }
    }

    /// Records that a merge group is realized (all members placed on its
    /// switch and sharing one entry).
    pub fn record_merge(&mut self, group: MergeGroup) {
        self.merged.push(group);
    }

    /// The share of `ingress`, empty if it has no entry.
    fn rules_of(&self, ingress: EntryPortId) -> &IngressRules {
        self.placed.get(&ingress).map_or(&NO_RULES, |m| m)
    }

    /// The switches a rule is placed on, ascending (none if unplaced).
    pub fn switches_of(
        &self,
        ingress: EntryPortId,
        rule: RuleId,
    ) -> impl Iterator<Item = SwitchId> + Clone + '_ {
        self.rules_of(ingress).holding(id_of(rule))
    }

    /// True if the rule is placed on the switch.
    pub fn is_placed(&self, ingress: EntryPortId, rule: RuleId, s: SwitchId) -> bool {
        let run = self.rules_of(ingress).run_on(s);
        run.binary_search(&id_of(rule)).is_ok()
    }

    /// Iterates over `((ingress, rule), switches)` entries in
    /// `(ingress, rule)` order, the switches ascending.
    pub fn iter(
        &self,
    ) -> impl Iterator<
        Item = (
            (EntryPortId, RuleId),
            impl Iterator<Item = SwitchId> + Clone + '_,
        ),
    > {
        self.placed.iter().flat_map(|(&l, share)| {
            let top = share.ids.iter().max().map_or(0, |&id| id + 1);
            (0..top).filter_map(move |rule| {
                let on = share.holding(rule);
                on.clone().next().map(|_| ((l, RuleId(rule as usize)), on))
            })
        })
    }

    /// Each ingress with an entry, in order, and the switches holding
    /// any of its entries, ascending.
    pub fn held_switches(&self) -> impl Iterator<Item = (EntryPortId, &[SwitchId])> {
        self.placed.iter().map(|(&l, m)| (l, m.switches()))
    }

    /// Every ingress's share, in ingress order. A share is never
    /// mutated while anything else holds a clone of its `Arc`, so two
    /// equal pointers mean equal content.
    pub(crate) fn shares(&self) -> impl Iterator<Item = (EntryPortId, &Arc<IngressRules>)> {
        self.placed.iter().map(|(l, m)| (*l, m))
    }

    /// The share of `ingress`, if it has a placed rule.
    pub(crate) fn share(&self, ingress: EntryPortId) -> Option<&Arc<IngressRules>> {
        self.placed.get(&ingress)
    }

    /// The realized merge groups.
    pub fn merge_groups(&self) -> &[MergeGroup] {
        &self.merged
    }

    /// Total TCAM entries consumed network-wide: every `(rule, switch)`
    /// pair counts one, except merged groups which share a single entry
    /// (the paper's quantity `B`).
    pub fn total_rules(&self) -> usize {
        let raw: usize = self.placed.values().map(|m| m.ids.len()).sum();
        let saved: usize = self.merged.iter().map(|g| g.members.len() - 1).sum();
        raw - saved
    }

    /// TCAM entries consumed on each switch of `instance`'s topology.
    pub fn per_switch_load(&self, instance: &Instance) -> Vec<usize> {
        let mut load = vec![0usize; instance.topology().switch_count()];
        for (s, run) in self.placed.values().flat_map(|m| m.runs()) {
            load[s.0] += run.len();
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
    /// one ingress's share is touched, in one pass over its ids.
    pub fn renumber(
        &mut self,
        ingress: EntryPortId,
        from: RuleId,
        map: impl Fn(RuleId) -> Option<RuleId>,
    ) {
        if let Entry::Occupied(mut entry) = self.placed.entry(ingress) {
            let ingress_rules = Arc::make_mut(entry.get_mut());
            ingress_rules.renumber(id_of(from), &map);
            if ingress_rules.ids.is_empty() {
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
                    *entry.get_mut() = Arc::new(entry.get().union(&theirs))
                }
            }
        }
        self.merged.extend(other.merged);
    }
}

/// Prints the flat `(ingress, rule) → {switches}` map, exactly as a
/// derived impl over a map of sets would: dumps compared across versions
/// hash this text.
impl fmt::Debug for Placement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        struct Flat<'a>(&'a Placement);
        struct Set<I>(I);
        impl fmt::Debug for Flat<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                let entries = self.0.iter().map(|(key, on)| (key, Set(on)));
                f.debug_map().entries(entries).finish()
            }
        }
        impl<I: Iterator<Item = SwitchId> + Clone> fmt::Debug for Set<I> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.debug_set().entries(self.0.clone()).finish()
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
        assert!(p.switches_of(EntryPortId(0), RuleId(0)).next().is_none());
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

    /// A share's switches, run ends and ids, as plain numbers.
    type Layout = (Vec<usize>, Vec<u32>, Vec<u32>);

    fn layout(p: &Placement, l: usize) -> Layout {
        let share = &p.placed[&EntryPortId(l)];
        let switches = share.switches.iter().map(|s| s.0).collect();
        (switches, share.ends.clone(), share.ids.clone())
    }

    /// The copy-on-write contract the controller's per-event working
    /// copies rely on: after a clone and a one-ingress edit, every other
    /// ingress's share is still shared, and only the edited one was
    /// copied, into the runs the edit calls for.
    #[test]
    fn clone_then_edit_copies_one_ingress() {
        let mut p = Placement::new();
        for l in 0..4 {
            for r in 0..3 {
                p.place(EntryPortId(l), RuleId(r), SwitchId(l + r));
            }
        }
        // l2: r0 on s2, r1 on s3, r2 on s4.
        assert_eq!(layout(&p, 2), (vec![2, 3, 4], vec![1, 2, 3], vec![0, 1, 2]));
        let shared = |a: &Placement, b: &Placement, l: usize| {
            Arc::ptr_eq(&a.placed[&EntryPortId(l)], &b.placed[&EntryPortId(l)])
        };
        type Edit = fn(&mut Placement);
        let edits: [(Edit, Layout); 3] = [
            (
                |q| q.place(EntryPortId(2), RuleId(9), SwitchId(0)),
                (vec![0, 2, 3, 4], vec![1, 2, 3, 4], vec![9, 0, 1, 2]),
            ),
            (
                |q| q.renumber(EntryPortId(2), RuleId(1), |r| Some(RuleId(r.0 + 1))),
                (vec![2, 3, 4], vec![1, 2, 3], vec![0, 2, 3]),
            ),
            (
                |q| {
                    let mut other = Placement::new();
                    other.place(EntryPortId(2), RuleId(0), SwitchId(7));
                    other.place(EntryPortId(2), RuleId(0), SwitchId(3));
                    q.absorb(other);
                },
                (vec![2, 3, 4, 7], vec![1, 3, 4, 5], vec![0, 0, 1, 2, 0]),
            ),
        ];
        for (edit, want) in edits {
            let mut q = p.clone();
            assert!((0..4).all(|l| shared(&p, &q, l)));
            edit(&mut q);
            assert_ne!(p, q);
            assert!(!shared(&p, &q, 2), "the edited ingress must be copied");
            assert_eq!(layout(&q, 2), want);
            for l in [0, 1, 3] {
                assert!(shared(&p, &q, l), "l{l} was deep-copied");
            }
        }
    }

    /// A share built in one counting pass equals one placed entry by
    /// entry, and reads back in `(ingress, rule)` order.
    #[test]
    fn place_share_equals_placing_one_by_one() {
        let entries = [(0, 4), (0, 1), (2, 1), (3, 0), (5, 4), (5, 1)];
        let entries = entries.map(|(r, s)| (RuleId(r), SwitchId(s)));
        let (mut built, mut placed) = (Placement::new(), Placement::new());
        built.place_share(EntryPortId(3), entries.iter().copied());
        for &(r, s) in entries.iter().rev() {
            placed.place(EntryPortId(3), r, s);
        }
        assert_eq!(built, placed);
        let rules: Vec<usize> = built.iter().map(|((_, r), _)| r.0).collect();
        assert_eq!(rules, [0, 2, 3, 5]);
        assert_eq!(format!("{built:?}").matches("SwitchId(1)").count(), 3);
        built.place_share(EntryPortId(4), std::iter::empty());
        assert_eq!(built.held_switches().count(), 1, "no empty share");
    }

    /// Debug builds reject a share whose runs are not sorted, distinct
    /// and non-empty.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "unsorted or repeats an id")]
    fn debug_check_rejects_an_unsorted_run() {
        let share = IngressRules {
            switches: vec![SwitchId(0)],
            ends: vec![2],
            ids: vec![3, 1],
        };
        share.debug_check();
    }

    #[test]
    fn display_mentions_entries() {
        let mut p = Placement::new();
        p.place(EntryPortId(0), RuleId(0), SwitchId(1));
        assert!(p.to_string().contains("1 entries"));
    }
}
