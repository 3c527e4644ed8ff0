//! The §IV placement model, walked once for both engines: the ILP
//! (Eq. 1–5) and the satisfiability encoding (Eq. 6–8) are two forms of
//! it. [`walk`] streams the model, row by row, to a [`Lowering`] and
//! returns the [`Sites`] that decode a solution. Its order fixes every
//! variable number and row of both encodings: placement variables in
//! candidate `(ingress, rule, switch)` order; coverage per ingress, route
//! and sliced DROP (a row per path, as the text and the Figure 3 example
//! require where the printed Eq. 2 sums over `S_i`; identical rows are
//! deduplicated); dependencies per DROP, site and PERMIT; merges;
//! capacity per switch.

use std::collections::BTreeMap;

use flowplace_acl::RuleId;
use flowplace_fasthash::FnvHashSet;
use flowplace_routing::RouteId;
use flowplace_topo::{EntryPortId, SwitchId};

use crate::candidates::CandidateMap;
use crate::merge::{find_merge_groups, MergeGroup};
use crate::placement::Placement;
use crate::slicing;
use crate::Instance;

/// One engine's form of the model. A site or merge group is named by
/// the variable number the engine returns for it.
pub(crate) trait Lowering {
    /// Allocates the variable placing `rule` of `ingress` on `s`.
    fn site(&mut self, ingress: EntryPortId, rule: RuleId, s: SwitchId) -> u32;
    /// Eq. 2 / 7: DROP `rule`, sliced into `route`, sits on one of
    /// `sites` (sorted and distinct; no row comes twice).
    fn cover(&mut self, ingress: EntryPortId, rule: RuleId, route: RouteId, sites: &[u32]);
    /// Eq. 1 / 6: site `drop`, the DROP `at.1` on `at.2`, implies each
    /// of `permits` (non-empty).
    fn depend(&mut self, at: (EntryPortId, RuleId, SwitchId), drop: u32, permits: &[u32]);
    /// Eq. 4–5 / 8: allocates the variable of merge group number `g`,
    /// true iff all of `members` are.
    fn merge(&mut self, g: usize, group: &MergeGroup, members: &[u32]) -> u32;
    /// Eq. 3: at most `cap` entries on `s` among `sites`; each
    /// `(merge, m)` of `merges` that holds saves `m − 1`. Only rows that
    /// can bind come.
    fn capacity(&mut self, s: SwitchId, cap: usize, sites: &[u32], merges: &[(u32, usize)]);
}

/// The variables of a walked model, for decoding.
#[derive(Clone, Debug)]
pub(crate) struct Sites {
    /// Per `(ingress, rule)`: `(switch, variable)` in switch order.
    slices: BTreeMap<(EntryPortId, RuleId), Vec<(SwitchId, u32)>>,
    /// Each merge group with its variable.
    merges: Vec<(u32, MergeGroup)>,
}

/// The variable placing a rule on `s`, from that rule's site slice.
fn site_on(sites: &[(SwitchId, u32)], s: SwitchId) -> Option<u32> {
    let i = sites.binary_search_by_key(&s, |&(sw, _)| sw).ok()?;
    Some(sites[i].1)
}

impl Sites {
    /// Number of placement variables.
    pub(crate) fn count(&self) -> usize {
        self.slices.values().map(Vec::len).sum()
    }

    fn site(&self, ingress: EntryPortId, rule: RuleId, s: SwitchId) -> Option<u32> {
        site_on(self.slices.get(&(ingress, rule))?, s)
    }

    /// The placement a solution describes, given each variable's value.
    pub(crate) fn decode(&self, value: impl Fn(u32) -> bool) -> Placement {
        let mut placement = Placement::new();
        for (&(ingress, rule), sites) in &self.slices {
            for &(s, _) in sites.iter().filter(|&&(_, v)| value(v)) {
                placement.place(ingress, rule, s);
            }
        }
        for (_, group) in self.merges.iter().filter(|&&(vm, _)| value(vm)) {
            placement.record_merge(group.clone());
        }
        placement
    }

    /// The inverse of [`Sites::decode`]: every variable's value, a merge
    /// variable true iff all its members are; `None` if `placement` uses
    /// a site that is not a candidate.
    pub(crate) fn encode(&self, placement: &Placement) -> Option<Vec<bool>> {
        let mut values = vec![false; self.count() + self.merges.len()];
        for (&(ingress, rule), switches) in placement.iter() {
            for &s in switches {
                values[self.site(ingress, rule, s)? as usize] = true;
            }
        }
        for (vm, group) in &self.merges {
            let placed = |&(l, r): &_| self.site(l, r, group.switch).map(|v| values[v as usize]);
            values[*vm as usize] = group.members.iter().all(|m| placed(m) == Some(true));
        }
        Some(values)
    }
}

/// Walks the model of `instance` over `candidates` (with merging when
/// `merging`), handing every site and row to `engine` in emission order.
pub(crate) fn walk(
    instance: &Instance,
    candidates: &CandidateMap,
    merging: bool,
    engine: &mut impl Lowering,
) -> Sites {
    let slices: BTreeMap<_, Vec<(SwitchId, u32)>> = candidates
        .iter()
        .map(|(&(ingress, rule), entry)| {
            let slice = entry
                .switches
                .iter()
                .map(|&s| (s, engine.site(ingress, rule, s)));
            ((ingress, rule), slice.collect())
        })
        .collect();

    // Eq. 2 / 7. Membership-only dedup (never iterated), so the
    // unordered FNV set is safe here.
    let mut seen: FnvHashSet<Vec<u32>> = FnvHashSet::default();
    for (ingress, policy) in instance.policies() {
        for rid in instance.routes().paths_from(ingress) {
            let route = instance.routes().route(rid);
            for w in slicing::sliced_drop_rules(policy, route) {
                let Some(w_sites) = slices.get(&(ingress, w)) else {
                    continue;
                };
                let mut row: Vec<u32> = route
                    .switches
                    .iter()
                    .filter_map(|&s| site_on(w_sites, s))
                    .collect();
                row.sort_unstable();
                row.dedup();
                if !row.is_empty() && !seen.contains(&row) {
                    engine.cover(ingress, w, rid, &row);
                    seen.insert(row);
                }
            }
        }
    }
    drop(seen);

    // Eq. 1 / 6. Each required PERMIT's site slice is fetched once per
    // DROP, not once per (switch, PERMIT).
    let mut permit_slices: Vec<&[(SwitchId, u32)]> = Vec::new();
    let mut permits: Vec<u32> = Vec::new();
    for ((&(ingress, w), entry), w_sites) in candidates.iter().zip(slices.values()) {
        if entry.permits.is_empty() {
            continue;
        }
        permit_slices.clear();
        permit_slices.extend(entry.permits.iter().map(|u| &slices[&(ingress, *u)][..]));
        for &(s, vw) in w_sites {
            permits.clear();
            permits.extend(permit_slices.iter().map(|u_sites| {
                site_on(u_sites, s).expect("a PERMIT is a candidate wherever its DROP is")
            }));
            engine.depend((ingress, w, s), vw, &permits);
        }
    }

    // Eq. 4–5 / 8, and per switch the `(merge, members)` of its groups.
    let switches = instance.topology().switch_count();
    let mut saving: Vec<Vec<(u32, usize)>> = vec![Vec::new(); switches];
    let mut merges: Vec<(u32, MergeGroup)> = Vec::new();
    let groups = merging.then(|| find_merge_groups(instance, candidates));
    for (g, group) in groups.into_iter().flatten().enumerate() {
        let member =
            |&(l, r): &_| site_on(&slices[&(l, r)], group.switch).expect("merge member is a site");
        let members: Vec<u32> = group.members.iter().map(member).collect();
        let vm = engine.merge(g, &group, &members);
        saving[group.switch.0].push((vm, members.len()));
        merges.push((vm, group));
    }

    // Eq. 3.
    let mut per_switch: Vec<Vec<u32>> = vec![Vec::new(); switches];
    for &(s, v) in slices.values().flatten() {
        per_switch[s.0].push(v);
    }
    for (k, on_k) in per_switch.iter().enumerate() {
        let cap = instance.topology().capacity(SwitchId(k));
        if cap < on_k.len() {
            engine.capacity(SwitchId(k), cap, on_k, &saving[k]);
        }
    }
    Sites { slices, merges }
}
