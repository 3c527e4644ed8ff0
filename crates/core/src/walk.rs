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
//!
//! The walk looks nothing up in a map. [`Sites`] keeps the sites in flat
//! vectors by candidate number (a key's position in the candidate map)
//! and finds a rule's number through a dense table over every policy's
//! rules; a cover row is checked for repeats against its own
//! candidate's earlier rows only, with no hashing.

use std::ops::Range;

use flowplace_acl::RuleId;
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

/// The variables of a walked model, for decoding: flat vectors indexed
/// by candidate number, the position of a key in the candidate map.
#[derive(Clone, Debug)]
pub(crate) struct Sites {
    /// Each candidate's `(ingress, rule)`, in candidate-map order.
    keys: Vec<(EntryPortId, RuleId)>,
    /// Candidate `c`'s sites are `pairs[offsets[c]..offsets[c + 1]]`.
    offsets: Vec<u32>,
    /// `(switch, variable)` per site, each candidate's in switch order.
    pairs: Vec<(SwitchId, u32)>,
    /// Per ingress id, the `(start, len)` of its policy's rules in
    /// `index`; `(0, 0)` for an ingress with no policy.
    ranges: Vec<(usize, usize)>,
    /// Per rule of every policy, its candidate number or [`NONE`].
    index: Vec<u32>,
    /// Each merge group with its variable.
    merges: Vec<(u32, MergeGroup)>,
}

/// `index` entry of a rule that is no candidate; the end of a row chain.
const NONE: u32 = u32::MAX;

/// The variable placing a rule on `s`, from that rule's site slice.
fn site_on(sites: &[(SwitchId, u32)], s: SwitchId) -> Option<u32> {
    let i = sites.binary_search_by_key(&s, |&(sw, _)| sw).ok()?;
    Some(sites[i].1)
}

impl Sites {
    /// Allocates every site of `candidates` in key and switch order, and
    /// indexes the candidates by `(ingress, rule)` over the policies of
    /// `instance`.
    fn new(instance: &Instance, candidates: &CandidateMap, engine: &mut impl Lowering) -> Self {
        let mut keys = Vec::with_capacity(candidates.len());
        let mut offsets = Vec::with_capacity(candidates.len() + 1);
        let mut pairs = Vec::with_capacity(candidates.values().map(|e| e.switches.len()).sum());
        offsets.push(0);
        for (&(ingress, rule), entry) in candidates {
            keys.push((ingress, rule));
            let site = |&s: &SwitchId| (s, engine.site(ingress, rule, s));
            pairs.extend(entry.switches.iter().map(site));
            offsets.push(u32::try_from(pairs.len()).expect("fewer than 2^32 sites"));
        }
        let mut ranges = Vec::new();
        let mut index = Vec::new();
        for (ingress, policy) in instance.policies() {
            if ranges.len() <= ingress.0 {
                ranges.resize(ingress.0 + 1, (0, 0));
            }
            ranges[ingress.0] = (index.len(), policy.len());
            index.resize(index.len() + policy.len(), NONE);
        }
        let mut sites = Sites {
            keys,
            offsets,
            pairs,
            ranges,
            index,
            merges: Vec::new(),
        };
        for c in 0..sites.keys.len() {
            let (ingress, rule) = sites.keys[c];
            if let Some(i) = sites.slot(ingress, rule) {
                sites.index[i] = c as u32;
            }
        }
        sites
    }

    /// The position of `rule` of `ingress` in `index`.
    fn slot(&self, ingress: EntryPortId, rule: RuleId) -> Option<usize> {
        let &(start, len) = self.ranges.get(ingress.0)?;
        (rule.0 < len).then_some(start + rule.0)
    }

    /// The candidate number of `rule` of `ingress`.
    fn candidate(&self, ingress: EntryPortId, rule: RuleId) -> Option<usize> {
        let c = self.index[self.slot(ingress, rule)?];
        (c != NONE).then_some(c as usize)
    }

    /// Candidate `c`'s `(switch, variable)` pairs.
    fn slice(&self, c: usize) -> &[(SwitchId, u32)] {
        &self.pairs[self.offsets[c] as usize..self.offsets[c + 1] as usize]
    }

    /// Number of placement variables.
    pub(crate) fn count(&self) -> usize {
        self.pairs.len()
    }

    fn site(&self, ingress: EntryPortId, rule: RuleId, s: SwitchId) -> Option<u32> {
        site_on(self.slice(self.candidate(ingress, rule)?), s)
    }

    /// The placement a solution describes, given each variable's value.
    pub(crate) fn decode(&self, value: impl Fn(u32) -> bool) -> Placement {
        let (mut placement, value) = (Placement::new(), &value);
        let mut c = 0;
        while c < self.keys.len() {
            // The ingress's candidates are keys `c..end`, in rule order.
            let ingress = self.keys[c].0;
            let end = c + self.keys[c..].partition_point(|&(l, _)| l == ingress);
            let entries = (c..end).flat_map(move |c| {
                let (rule, on) = (self.keys[c].1, self.slice(c).iter());
                on.filter(move |&&(_, v)| value(v))
                    .map(move |&(s, _)| (rule, s))
            });
            placement.place_share(ingress, entries);
            c = end;
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
        for (ingress, share) in placement.shares() {
            for (s, ids) in share.runs() {
                for &id in ids {
                    values[self.site(ingress, RuleId(id as usize), s)? as usize] = true;
                }
            }
        }
        for (vm, group) in &self.merges {
            let placed = |&(l, r): &_| self.site(l, r, group.switch).map(|v| values[v as usize]);
            values[*vm as usize] = group.members.iter().all(|m| placed(m) == Some(true));
        }
        Some(values)
    }
}

/// Eq. 2 / 7: a cover row per ingress, route and sliced DROP, in that
/// order, each row once. Rows of different candidates share no
/// variable, so a row can only repeat an earlier row of its own
/// candidate: each candidate's rows are chained from `last` through
/// `rows` (each row's span of `lits` and the candidate's previous row),
/// and a new row is compared with those alone.
fn cover(instance: &Instance, sites: &Sites, engine: &mut impl Lowering) {
    let mut last = vec![NONE; sites.keys.len()];
    let mut rows: Vec<(Range<usize>, u32)> = Vec::new();
    let mut lits: Vec<u32> = Vec::new();
    let mut row: Vec<u32> = Vec::new();
    for (ingress, policy) in instance.policies() {
        for &rid in instance.routes().paths_from(ingress) {
            let route = instance.routes().route(rid);
            for w in slicing::sliced_drop_rules(policy, route) {
                let Some(c) = sites.candidate(ingress, w) else {
                    continue;
                };
                let w_sites = sites.slice(c);
                row.clear();
                row.extend(route.switches.iter().filter_map(|&s| site_on(w_sites, s)));
                row.sort_unstable();
                row.dedup();
                let mut earlier = last[c];
                while earlier != NONE && lits[rows[earlier as usize].0.clone()] != row[..] {
                    earlier = rows[earlier as usize].1;
                }
                if !row.is_empty() && earlier == NONE {
                    engine.cover(ingress, w, rid, &row);
                    rows.push((lits.len()..lits.len() + row.len(), last[c]));
                    last[c] = (rows.len() - 1) as u32;
                    lits.extend_from_slice(&row);
                }
            }
        }
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
    let mut sites = Sites::new(instance, candidates, engine);

    cover(instance, &sites, engine);

    // Eq. 1 / 6. Each required PERMIT's site slice is fetched once per
    // DROP, not once per (switch, PERMIT).
    let mut permit_slices: Vec<&[(SwitchId, u32)]> = Vec::new();
    let mut permits: Vec<u32> = Vec::new();
    for (c, (&(ingress, w), entry)) in candidates.iter().enumerate() {
        if entry.permits.is_empty() {
            continue;
        }
        permit_slices.clear();
        permit_slices.extend(entry.permits.iter().map(|&u| {
            let u = sites.candidate(ingress, u);
            sites.slice(u.expect("a DROP's PERMITs are candidates"))
        }));
        for &(s, vw) in sites.slice(c) {
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
    let groups = merging.then(|| find_merge_groups(instance, candidates));
    for (g, group) in groups.into_iter().flatten().enumerate() {
        let member = |&(l, r): &_| {
            sites
                .site(l, r, group.switch)
                .expect("merge member is a site")
        };
        let members: Vec<u32> = group.members.iter().map(member).collect();
        let vm = engine.merge(g, &group, &members);
        saving[group.switch.0].push((vm, members.len()));
        sites.merges.push((vm, group));
    }

    // Eq. 3, each switch's sites in candidate order.
    let mut per_switch: Vec<Vec<u32>> = vec![Vec::new(); switches];
    for &(s, v) in &sites.pairs {
        per_switch[s.0].push(v);
    }
    for (k, on_k) in per_switch.iter().enumerate() {
        let cap = instance.topology().capacity(SwitchId(k));
        if cap < on_k.len() {
            engine.capacity(SwitchId(k), cap, on_k, &saving[k]);
        }
    }
    sites
}
