//! Per-switch rule table emission.
//!
//! Turns a [`Placement`] into concrete prioritized switch tables. Each
//! entry matches a *tag set* (which ingress policies it applies to — one
//! ingress for ordinary rules, several for merged rules) plus the rule's
//! ternary header match. Within a switch:
//!
//! * rules of one policy keep their policy's relative priority order;
//! * rules of different policies may interleave freely (tags make their
//!   match spaces disjoint, §IV-A5);
//! * merged entries must satisfy *every* member policy's order — possible
//!   because [`crate::merge`] broke circular priority dependencies before
//!   encoding.
//!
//! The final order is a deterministic topological sort of those
//! constraints; discovering a cycle here would indicate an encoder bug
//! and is reported as an error rather than a panic.
//!
//! Only a switch that holds a merged entry builds the constraint graph.
//! On a merge-free switch the entries arrive in [`Placement::iter`]
//! order — ingress, then rule — and a [`flowplace_acl::Policy`] keeps its
//! rules in strictly descending priority with `RuleId` = index. So each
//! ingress's chain runs over consecutive entries in index order, and the
//! lowest-index-first topological sort of disjoint chains like that is
//! the identity: the table is its entries as they came, numbered
//! `total − pos`, the same bytes the graph would give.
//!
//! # Runs
//!
//! A [`Placement`] holds each ingress's share as *runs*: the ingress's
//! rule ids on each switch, in policy order, one `u32` per entry. An
//! [`Emitter`] keeps, per ingress, the digest of each run's slice. On a
//! merge-free switch an ingress's run is one contiguous stretch of the
//! table, and the table is the runs in ingress order. The digests are
//! keyed by the `Arc` identity of the ingress's policy and placement
//! share, so a commit after a one-rule update re-digests one ingress's
//! runs and assembles the tables from the rest as they are.
//! [`emit_tables`] is a fresh emitter's first emit. The [`Emission`]
//! carries, beside the tables, where each `(switch, ingress)` slice
//! lies and its digest, which [`crate::verify::VerifiedRoutes`] reads
//! instead of re-indexing the tables; a table set not emitted here (the
//! dataplane's actual contents) is scanned for them.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Range;
use std::sync::Arc;

use flowplace_acl::{Action, Policy, RuleId, Ternary};
use flowplace_fasthash::WordHasher;
use flowplace_routing::Route;
use flowplace_topo::{EntryPortId, SwitchId};

use crate::placement::{IngressRules, Placement};
use crate::Instance;

/// The sorted, distinct ingress tags of one [`TableEntry`] (§IV-A5).
///
/// Every entry but a §IV-B merged one carries exactly one tag, so one
/// tag is held inline and only two or more are boxed: emitting,
/// diffing, installing and caching an ordinary entry allocate nothing
/// for it. Equality, order, hashing and `Debug` all go through the
/// sorted sequence, exactly as for the `BTreeSet<EntryPortId>` of the
/// same tags: [`table_order`] and every dump built on it do not depend
/// on the representation.
#[derive(Clone)]
pub struct Tags(TagsRepr);

/// `One` iff there is exactly one tag, else `Many`, sorted and
/// distinct (an empty box allocates nothing).
#[derive(Clone)]
enum TagsRepr {
    One(EntryPortId),
    Many(Box<[EntryPortId]>),
}

impl Tags {
    /// The tag set of an ordinary entry: just `ingress`.
    pub fn one(ingress: EntryPortId) -> Tags {
        Tags(TagsRepr::One(ingress))
    }

    fn as_slice(&self) -> &[EntryPortId] {
        match &self.0 {
            TagsRepr::One(tag) => std::slice::from_ref(tag),
            TagsRepr::Many(tags) => tags,
        }
    }

    /// The tags in ascending order.
    pub fn iter(&self) -> std::slice::Iter<'_, EntryPortId> {
        self.as_slice().iter()
    }

    /// Number of tags.
    pub fn len(&self) -> usize {
        self.as_slice().len()
    }

    /// True if there are no tags.
    pub fn is_empty(&self) -> bool {
        self.as_slice().is_empty()
    }

    /// True if `tag` is one of the tags.
    pub fn contains(&self, tag: &EntryPortId) -> bool {
        self.as_slice().binary_search(tag).is_ok()
    }

    /// True if the two sets share no tag.
    pub fn is_disjoint(&self, other: &Tags) -> bool {
        !self.iter().any(|t| other.contains(t))
    }
}

impl FromIterator<EntryPortId> for Tags {
    /// Sorts and deduplicates, like collecting into a `BTreeSet`.
    fn from_iter<I: IntoIterator<Item = EntryPortId>>(iter: I) -> Tags {
        let mut tags: Vec<EntryPortId> = iter.into_iter().collect();
        tags.sort_unstable();
        tags.dedup();
        match tags[..] {
            [tag] => Tags::one(tag),
            _ => Tags(TagsRepr::Many(tags.into_boxed_slice())),
        }
    }
}

impl<const N: usize> From<[EntryPortId; N]> for Tags {
    fn from(tags: [EntryPortId; N]) -> Tags {
        tags.into_iter().collect()
    }
}

impl<'a> IntoIterator for &'a Tags {
    type Item = &'a EntryPortId;
    type IntoIter = std::slice::Iter<'a, EntryPortId>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl PartialEq for Tags {
    fn eq(&self, other: &Tags) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Tags {}

impl PartialOrd for Tags {
    fn partial_cmp(&self, other: &Tags) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Tags {
    fn cmp(&self, other: &Tags) -> std::cmp::Ordering {
        self.as_slice().cmp(other.as_slice())
    }
}

impl Hash for Tags {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl fmt::Debug for Tags {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

/// One tagged TCAM entry: what the emitter writes, the dataplane
/// deploys and the cache tier holds. Identity is the full tuple — two
/// entries that differ only in priority are distinct dataplane state —
/// and the derived `Ord` compares `(priority, tags, match_field,
/// action)` in that order, `tags` as their sorted sequence.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TableEntry {
    /// Table priority (larger wins), assigned by the emitter.
    pub priority: u32,
    /// The ingress policies this entry applies to (≥ 2 for merged rules;
    /// §IV-D disjointness).
    pub tags: Tags,
    /// The header match field.
    pub match_field: Ternary,
    /// PERMIT or DROP.
    pub action: Action,
}

impl TableEntry {
    /// The safe-mode fence [`is_safe_mode`](TableEntry::is_safe_mode)
    /// recognises, for `ingress` over `width` header bits. Panics on a
    /// `width` [`Ternary::any`] refuses.
    pub fn safe_mode_fence(ingress: EntryPortId, width: u32) -> TableEntry {
        TableEntry {
            priority: u32::MAX,
            tags: Tags::one(ingress),
            match_field: Ternary::any(width),
            action: Action::Drop,
        }
    }

    /// The redirect stub [`is_delegation_stub`](TableEntry::is_delegation_stub)
    /// recognises, for `ingress` over `width` header bits. Panics on a
    /// `width` [`Ternary::any`] refuses.
    pub fn delegation_stub(ingress: EntryPortId, width: u32) -> TableEntry {
        TableEntry {
            priority: 0,
            tags: Tags::one(ingress),
            match_field: Ternary::any(width),
            action: Action::Permit,
        }
    }

    /// True for the controller's reserved safe-mode drop-all entry: a
    /// maximum-priority all-wildcard DROP. These live in a reserved
    /// system slot and do not count against TCAM capacity.
    pub fn is_safe_mode(&self) -> bool {
        self.priority == u32::MAX && self.match_field.care() == 0 && self.action == Action::Drop
    }

    /// True for a delegation redirect stub: a minimum-priority
    /// all-wildcard PERMIT. Semantically neutral in the pipeline model —
    /// a PERMIT forwards, exactly like no-match — it models the TCAM slot
    /// the hardware redirect rule occupies while a delegation is active.
    pub fn is_delegation_stub(&self) -> bool {
        self.priority == 0 && self.match_field.care() == 0 && self.action == Action::Permit
    }

    /// True for any reserved-system-bank entry (the safe-mode fence or
    /// a delegation redirect stub): exempt from the capacity check and
    /// surviving capacity revocations, so the controller's fail-closed
    /// fallbacks can never themselves be infeasible. [`emit_tables`]
    /// never yields one: its priorities run `1..=total`.
    pub fn is_reserved(&self) -> bool {
        self.is_safe_mode() || self.is_delegation_stub()
    }
}

impl fmt::Display for TableEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] tags={{", self.priority)?;
        for (i, t) in self.tags.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{t}")?;
        }
        write!(f, "}} {} {}", self.match_field, self.action)
    }
}

/// Table order, the one every table in the system is kept in:
/// descending priority, ties by the entry's full ordering so the result
/// is deterministic.
pub fn table_order(a: &TableEntry, b: &TableEntry) -> std::cmp::Ordering {
    b.priority.cmp(&a.priority).then_with(|| a.cmp(b))
}

/// The emitted ACL table of one switch, in [`table_order`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SwitchTable {
    entries: Vec<TableEntry>,
}

impl SwitchTable {
    /// Builds a table from entries not emitted from a placement — e.g.
    /// a fault-tolerant controller handing the dataplane's surviving
    /// TCAM contents to [`crate::verify::verify_tables`] — sorting them
    /// into [`table_order`].
    pub fn from_entries(mut entries: Vec<TableEntry>) -> Self {
        entries.sort_by(table_order);
        SwitchTable { entries }
    }

    /// Entries in descending priority order.
    pub fn entries(&self) -> &[TableEntry] {
        &self.entries
    }

    /// The entries in descending priority order, dropping the table.
    pub fn into_entries(self) -> Vec<TableEntry> {
        self.entries
    }

    /// Number of TCAM entries consumed.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if the table is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// First-match lookup for a packet entering at `ingress`: the action
    /// of the highest-priority entry whose tag set contains `ingress` and
    /// whose match field matches, if any.
    pub fn lookup(&self, ingress: EntryPortId, packet: &flowplace_acl::Packet) -> Option<Action> {
        self.entries
            .iter()
            .find(|e| e.tags.contains(&ingress) && e.match_field.matches(packet))
            .map(|e| e.action)
    }
}

impl fmt::Display for SwitchTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for e in &self.entries {
            writeln!(f, "{e}")?;
        }
        Ok(())
    }
}

/// Error from [`emit_tables`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TableError {
    /// The priority constraints on a switch are cyclic (merge
    /// cycle-breaking should make this impossible).
    CircularPriority(SwitchId),
}

impl fmt::Display for TableError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TableError::CircularPriority(s) => {
                write!(f, "circular priority constraints on {s}")
            }
        }
    }
}

impl std::error::Error for TableError {}

/// Emits one table per switch (indexed by `SwitchId`): the first emit
/// of a fresh [`Emitter`], with nothing to reuse.
///
/// # Errors
///
/// Returns [`TableError::CircularPriority`] if the per-policy order
/// constraints cannot be linearized — which [`crate::merge`]'s
/// cycle-breaking is designed to prevent.
pub fn emit_tables(
    instance: &Instance,
    placement: &Placement,
) -> Result<Vec<SwitchTable>, TableError> {
    Emitter::default()
        .emit(instance, placement)
        .map(Emission::into_tables)
}

/// The table emitter a controller keeps across commits.
///
/// The runs it emits are the placement share's own: per switch, the ids
/// of the ingress's rules placed there in policy order. For each
/// ingress it holds the digest of each run's slice and the ingress's
/// [policy key](crate::verify::VerifiedRoutes), keyed by the `Arc`
/// identity of the ingress's policy in the [`Instance`] and of its share
/// of the [`Placement`], and holds clones of both. Both are
/// copy-on-write: an edit to a shared `Arc` makes a new one, so while
/// the emitter holds a clone an equal pointer means equal content. An
/// emit re-digests the runs of the ingresses whose pointers moved —
/// whatever moved them: an event, degradation, safe mode, a rollback —
/// and assembles every table from the runs. A clone shares every
/// digest.
#[derive(Clone, Default)]
pub struct Emitter {
    ingresses: BTreeMap<EntryPortId, Arc<IngressRuns>>,
    ingresses_rebuilt: u64,
    slices_digested: u64,
}

/// One ingress's run digests and what they were built from. The runs
/// themselves are the share's.
struct IngressRuns {
    policy: Arc<Policy>,
    share: Option<Arc<IngressRules>>,
    policy_key: u64,
    /// The [`slice_digest`] of each of the share's runs, in switch order.
    digests: Vec<u64>,
}

impl IngressRuns {
    /// Digests each run of the share. `policy_key` is the key of
    /// `policy` when already known.
    fn build(
        policy: &Arc<Policy>,
        share: Option<&Arc<IngressRules>>,
        policy_key: Option<u64>,
    ) -> IngressRuns {
        let runs = share.into_iter().flat_map(|share| share.runs());
        let digests = runs.map(|(_, ids)| {
            let rules = ids.iter().map(|&id| policy.rule(RuleId(id as usize)));
            slice_digest(rules.map(|r| (r.match_field(), r.action())))
        });
        IngressRuns {
            policy: Arc::clone(policy),
            share: share.cloned(),
            policy_key: policy_key.unwrap_or_else(|| crate::verify::policy_key(policy)),
            digests: digests.collect(),
        }
    }

    /// Each run's switch, rule ids and digest, in switch order.
    fn runs(&self) -> impl Iterator<Item = (SwitchId, &[u32], u64)> {
        let runs = self.share.iter().flat_map(|share| share.runs());
        runs.zip(&self.digests)
            .map(|((s, ids), &digest)| (s, ids, digest))
    }
}

impl Emitter {
    /// Emits one table per switch (indexed by `SwitchId`), re-digesting
    /// only the runs of ingresses whose policy or placement share moved
    /// since the last emit. The tables are those of [`emit_tables`].
    ///
    /// # Errors
    ///
    /// As [`emit_tables`].
    pub fn emit(
        &mut self,
        instance: &Instance,
        placement: &Placement,
    ) -> Result<Emission, TableError> {
        for (l, _) in placement.shares() {
            instance
                .policy(l)
                .expect("placement refers to existing policy");
        }
        self.ingresses.retain(|&l, _| instance.policy(l).is_some());
        let mut reused = false;
        for (l, policy) in instance.policy_arcs() {
            let share = placement.share(l);
            let cached = self.ingresses.get(&l);
            let same_policy = cached.filter(|c| Arc::ptr_eq(&c.policy, policy));
            let same_share =
                |c: &Arc<IngressRuns>| c.share.as_ref().map(Arc::as_ptr) == share.map(Arc::as_ptr);
            if same_policy.is_some_and(same_share) {
                reused = true;
                continue;
            }
            let runs = IngressRuns::build(policy, share, same_policy.map(|c| c.policy_key));
            self.ingresses_rebuilt += 1;
            self.slices_digested += runs.digests.len() as u64;
            self.ingresses.insert(l, Arc::new(runs));
        }
        let emitted = self.assemble(instance, placement);
        if cfg!(debug_assertions) && reused {
            crate::verify::assert_emitted_from_scratch(instance, placement, &emitted);
        }
        emitted
    }

    /// The tables from the current runs. A switch that holds a merged
    /// entry goes through [`constraint_order`] and has its slices found
    /// by a scan; on every other switch each ingress's run is one slice.
    fn assemble(
        &mut self,
        instance: &Instance,
        placement: &Placement,
    ) -> Result<Emission, TableError> {
        let n = instance.topology().switch_count();
        // Merged entries first, on the switches that hold one; remember
        // which (ingress, rule, switch) they absorb.
        let mut merged: Vec<Option<Vec<Draft>>> = Vec::new();
        let mut absorbed: BTreeSet<(EntryPortId, RuleId, SwitchId)> = BTreeSet::new();
        for g in placement.merge_groups() {
            merged.resize_with(n, || None);
            absorbed.extend(g.members.iter().map(|&(l, r)| (l, r, g.switch)));
            merged[g.switch.0].get_or_insert_with(Vec::new).push(Draft {
                entry: TableEntry {
                    priority: 0,
                    tags: g.members.iter().map(|(l, _)| *l).collect(),
                    match_field: g.match_field,
                    action: g.action,
                },
                contributors: g.members.clone(),
            });
        }
        let mut sizes = vec![0; n];
        let mut runs = 0;
        for (s, ids, _) in self.ingresses.values().flat_map(|c| c.runs()) {
            sizes[s.0] += ids.len();
            runs += 1;
        }
        let mut tables: Vec<Vec<TableEntry>> =
            sizes.iter().map(|&k| Vec::with_capacity(k)).collect();
        let mut slices = SliceIndex::default();
        slices.spans.reserve_exact(runs);
        // Runs in (ingress, switch) order: each switch receives its
        // entries in (ingress, rule) order. A merge-free switch takes them
        // as they come (the module docs say why that is its constraint
        // order); a merged one drafts them for the graph.
        for (&l, cached) in &self.ingresses {
            for (s, ids, digest) in cached.runs() {
                let rules = ids.iter().map(|&id| RuleId(id as usize));
                let entry = |r: RuleId| {
                    let rule = cached.policy.rule(r);
                    TableEntry {
                        priority: 0,
                        tags: Tags::one(l),
                        match_field: *rule.match_field(),
                        action: rule.action(),
                    }
                };
                match merged.get_mut(s.0).and_then(Option::as_mut) {
                    None => {
                        let (lo, hi) = (tables[s.0].len(), tables[s.0].len() + ids.len());
                        tables[s.0].extend(rules.map(entry));
                        slices.push_run(l, s, lo..hi, digest);
                    }
                    Some(drafts) => {
                        let kept = rules.filter(|&r| !absorbed.contains(&(l, r, s)));
                        drafts.extend(kept.map(|r| Draft {
                            entry: entry(r),
                            contributors: vec![(l, r)],
                        }));
                    }
                }
            }
        }
        for (si, drafts) in merged.into_iter().enumerate() {
            let Some(drafts) = drafts else { continue };
            let order = constraint_order(instance, &drafts)
                .ok_or(TableError::CircularPriority(SwitchId(si)))?;
            let mut slots: Vec<Option<TableEntry>> =
                drafts.into_iter().map(|d| Some(d.entry)).collect();
            tables[si] = order
                .iter()
                .map(|&ei| slots[ei].take().expect("the sort visits each draft once"))
                .collect();
            self.slices_digested += slices.scan(SwitchId(si), &tables[si]) as u64;
        }
        slices.finish();
        let tables = tables
            .into_iter()
            .map(|mut entries| {
                let total = entries.len() as u32;
                for (pos, e) in entries.iter_mut().enumerate() {
                    e.priority = total - pos as u32;
                }
                SwitchTable { entries }
            })
            .collect();
        let policy_keys = self
            .ingresses
            .iter()
            .map(|(l, c)| (*l, c.policy_key))
            .collect();
        Ok(Emission {
            tables,
            slices,
            policy_keys,
        })
    }

    /// Ingresses whose runs were digested, summed over emits: every ingress
    /// on the first, then one per ingress whose policy or placement
    /// share moved.
    pub fn ingresses_rebuilt(&self) -> u64 {
        self.ingresses_rebuilt
    }

    /// Slices digested, summed over emits: one per run digested, and one per
    /// `(switch, ingress)` slice of a switch holding a merged entry,
    /// whose slices are scanned on every emit.
    pub fn slices_digested(&self) -> u64 {
        self.slices_digested
    }
}

impl fmt::Debug for Emitter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Emitter")
            .field("ingresses", &self.ingresses.len())
            .field("ingresses_rebuilt", &self.ingresses_rebuilt)
            .field("slices_digested", &self.slices_digested)
            .finish()
    }
}

/// One emit's tables, with what [`crate::verify::VerifiedRoutes`] reads
/// besides them: where each `(switch, ingress)` slice lies, its digest,
/// and each ingress's policy key.
#[derive(Clone, Debug)]
pub struct Emission {
    tables: Vec<SwitchTable>,
    pub(crate) slices: SliceIndex,
    /// In ingress order.
    pub(crate) policy_keys: Vec<(EntryPortId, u64)>,
}

impl Emission {
    /// One table per switch (indexed by `SwitchId`).
    pub fn tables(&self) -> &[SwitchTable] {
        &self.tables
    }

    /// The tables, dropping the rest.
    pub fn into_tables(self) -> Vec<SwitchTable> {
        self.tables
    }

    /// The emission an emitter would return with `tables`, found by a
    /// scan: for feeding arbitrary tables to
    /// [`VerifiedRoutes`](crate::verify::VerifiedRoutes) in tests.
    #[cfg(test)]
    pub(crate) fn scanned(instance: &Instance, tables: Vec<SwitchTable>) -> Emission {
        let policy_keys = instance
            .policies()
            .map(|(l, q)| (l, crate::verify::policy_key(q)))
            .collect();
        Emission {
            slices: SliceIndex::new(&tables),
            tables,
            policy_keys,
        }
    }

    /// The policy key of `ingress`, which has a policy.
    pub(crate) fn policy_key(&self, ingress: EntryPortId) -> u64 {
        let at = self.policy_keys.binary_search_by_key(&ingress, |(l, _)| *l);
        self.policy_keys[at.expect("every policy has a key")].1
    }
}

/// The digest of a slice, fed its entries' `(match, action)` in table
/// order: width, care and value, then the action, a word at a time.
fn slice_digest<'a>(entries: impl Iterator<Item = (&'a Ternary, Action)>) -> u64 {
    let mut h = WordHasher::default();
    for (m, a) in entries {
        m.hash(&mut h);
        a.hash(&mut h);
    }
    h.finish()
}

/// Where one `(switch, ingress)` slice of a table set lies: the entries
/// of the switch's table tagged with the ingress, in table order — one
/// run `lo..hi` of the table, or the positions `picks[lo..hi]` when
/// they are not contiguous — and their [`slice_digest`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct SliceSpan {
    ingress: EntryPortId,
    switch: SwitchId,
    lo: u32,
    hi: u32,
    picked: bool,
    pub(crate) digest: u64,
}

/// The entries of one slice, in table order.
#[derive(Clone, Copy)]
pub(crate) enum SliceEntries<'a> {
    /// A run of the table.
    Run(&'a [TableEntry]),
    /// The table and the positions in it.
    Picked(&'a [TableEntry], &'a [u32]),
}

/// Every `(switch, ingress)` slice of a table set, in `(ingress,
/// switch)` order. [`Emitter::emit`] lays it out as it assembles the
/// tables; [`SliceIndex::new`] scans arbitrary tables for it, with the
/// same result on emitted ones.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub(crate) struct SliceIndex {
    spans: Vec<SliceSpan>,
    picks: Vec<u32>,
    /// Whether a scan appended spans out of order.
    unsorted: bool,
}

impl SliceIndex {
    /// Scans `tables` for every slice.
    pub(crate) fn new(tables: &[SwitchTable]) -> SliceIndex {
        let mut index = SliceIndex::default();
        for (s, table) in tables.iter().enumerate() {
            index.scan(SwitchId(s), table.entries());
        }
        index.finish();
        index
    }

    /// Appends a slice that is the run `at` of its switch's table.
    fn push_run(&mut self, ingress: EntryPortId, switch: SwitchId, at: Range<usize>, digest: u64) {
        self.spans.push(SliceSpan {
            ingress,
            switch,
            lo: at.start as u32,
            hi: at.end as u32,
            picked: false,
            digest,
        });
    }

    /// Appends every slice of `switch`, whose table is `entries`, and
    /// returns how many there are.
    fn scan(&mut self, switch: SwitchId, entries: &[TableEntry]) -> usize {
        let mut tagged: Vec<(EntryPortId, u32)> = entries
            .iter()
            .enumerate()
            .flat_map(|(pos, e)| e.tags.iter().map(move |&l| (l, pos as u32)))
            .collect();
        tagged.sort_unstable();
        let before = self.spans.len();
        for slice in tagged.chunk_by(|a, b| a.0 == b.0) {
            let (first, last) = (slice[0].1, slice[slice.len() - 1].1);
            let digest = slice_digest(slice.iter().map(|&(_, pos)| {
                let e = &entries[pos as usize];
                (&e.match_field, e.action)
            }));
            if (last - first) as usize + 1 == slice.len() {
                self.push_run(
                    slice[0].0,
                    switch,
                    first as usize..last as usize + 1,
                    digest,
                );
            } else {
                let lo = self.picks.len() as u32;
                self.picks.extend(slice.iter().map(|&(_, pos)| pos));
                self.spans.push(SliceSpan {
                    ingress: slice[0].0,
                    switch,
                    lo,
                    hi: self.picks.len() as u32,
                    picked: true,
                    digest,
                });
            }
        }
        let count = self.spans.len() - before;
        self.unsorted |= count > 0;
        count
    }

    /// Sorts the spans into `(ingress, switch)` order after a scan.
    fn finish(&mut self) {
        if std::mem::take(&mut self.unsorted) {
            self.spans
                .sort_unstable_by_key(|sp| (sp.ingress, sp.switch));
        }
    }

    /// The slice of `ingress` on `switch`, if the switch holds an entry
    /// tagged with it.
    pub(crate) fn get(&self, switch: SwitchId, ingress: EntryPortId) -> Option<&SliceSpan> {
        let at = self
            .spans
            .binary_search_by_key(&(ingress, switch), |sp| (sp.ingress, sp.switch));
        at.ok().map(|i| &self.spans[i])
    }

    /// The slices `route` reads in `tables`, the table set indexed, hop
    /// by hop: a hop holding no entry tagged with the route's ingress has
    /// none and is left out.
    pub(crate) fn hops<'a>(
        &'a self,
        tables: &'a [SwitchTable],
        route: &'a Route,
    ) -> impl Iterator<Item = SliceEntries<'a>> + 'a {
        let spans = route.switches.iter();
        let spans = spans.filter_map(|&s| self.get(s, route.ingress));
        spans.map(|span| {
            let table = tables[span.switch.0].entries();
            let (lo, hi) = (span.lo as usize, span.hi as usize);
            if span.picked {
                SliceEntries::Picked(table, &self.picks[lo..hi])
            } else {
                SliceEntries::Run(&table[lo..hi])
            }
        })
    }
}

/// One entry of a switch holding a merged entry, before ordering, with
/// the `(ingress, rule)` pairs it carries (≥ 2 for the merged one).
struct Draft {
    entry: TableEntry,
    contributors: Vec<(EntryPortId, RuleId)>,
}

/// The order of one switch's drafts: each ingress's entries chained in
/// descending policy priority, sorted topologically taking the lowest
/// draft index first. `None` if the chains form a cycle.
fn constraint_order(instance: &Instance, drafts: &[Draft]) -> Option<Vec<usize>> {
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); drafts.len()];
    let mut indeg = vec![0usize; drafts.len()];
    let mut per_ingress: BTreeMap<EntryPortId, Vec<(u32, usize)>> = BTreeMap::new();
    for (ei, d) in drafts.iter().enumerate() {
        for &(l, r) in &d.contributors {
            let prio = instance
                .policy(l)
                .expect("contributor policy exists")
                .rule(r)
                .priority();
            per_ingress.entry(l).or_default().push((prio, ei));
        }
    }
    for (_, mut list) in per_ingress {
        list.sort_by_key(|&(prio, _)| std::cmp::Reverse(prio)); // descending priority
        for w in list.windows(2) {
            adj[w[0].1].push(w[1].1);
            indeg[w[1].1] += 1;
        }
    }
    // Deterministic Kahn (lowest index first).
    let mut order: Vec<usize> = Vec::with_capacity(drafts.len());
    let mut ready: BTreeSet<usize> = indeg
        .iter()
        .enumerate()
        .filter(|(_, &d)| d == 0)
        .map(|(i, _)| i)
        .collect();
    while let Some(e) = ready.pop_first() {
        order.push(e);
        for &next in &adj[e] {
            indeg[next] -= 1;
            if indeg[next] == 0 {
                ready.insert(next);
            }
        }
    }
    (order.len() == drafts.len()).then_some(order)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::merge::MergeGroup;
    use flowplace_acl::{Packet, Policy};
    use flowplace_rng::{Rng, StdRng};
    use flowplace_routing::{Route, RouteSet};
    use flowplace_topo::Topology;

    fn t(s: &str) -> Ternary {
        Ternary::parse(s).unwrap()
    }

    fn one_policy_instance() -> Instance {
        let mut topo = Topology::linear(2);
        topo.set_uniform_capacity(10);
        let mut routes = RouteSet::new();
        routes.push(Route::new(
            EntryPortId(0),
            EntryPortId(1),
            vec![SwitchId(0), SwitchId(1)],
        ));
        let policy =
            Policy::from_ordered(vec![(t("11**"), Action::Permit), (t("1***"), Action::Drop)])
                .unwrap();
        Instance::new(topo, routes, vec![(EntryPortId(0), policy)]).unwrap()
    }

    #[test]
    fn preserves_policy_priority_order() {
        let inst = one_policy_instance();
        let mut p = Placement::new();
        p.place(EntryPortId(0), RuleId(0), SwitchId(0));
        p.place(EntryPortId(0), RuleId(1), SwitchId(0));
        let tables = emit_tables(&inst, &p).unwrap();
        let table = &tables[0];
        assert_eq!(table.len(), 2);
        // The permit (rule 0) must outrank the drop (rule 1).
        assert_eq!(table.entries()[0].match_field, t("11**"));
        assert!(table.entries()[0].priority > table.entries()[1].priority);
        // Lookup honors first-match.
        assert_eq!(
            table.lookup(EntryPortId(0), &Packet::from_bits(0b1100, 4)),
            Some(Action::Permit)
        );
        assert_eq!(
            table.lookup(EntryPortId(0), &Packet::from_bits(0b1000, 4)),
            Some(Action::Drop)
        );
        assert_eq!(
            table.lookup(EntryPortId(0), &Packet::from_bits(0b0000, 4)),
            None
        );
    }

    #[test]
    fn lookup_respects_tags() {
        let inst = one_policy_instance();
        let mut p = Placement::new();
        p.place(EntryPortId(0), RuleId(1), SwitchId(0));
        let tables = emit_tables(&inst, &p).unwrap();
        // A packet from a different ingress never matches.
        assert_eq!(
            tables[0].lookup(EntryPortId(1), &Packet::from_bits(0b1000, 4)),
            None
        );
    }

    #[test]
    fn merged_entry_has_union_tags() {
        let mut topo = Topology::star(2);
        topo.set_uniform_capacity(10);
        let mut routes = RouteSet::new();
        routes.push(Route::new(
            EntryPortId(0),
            EntryPortId(1),
            vec![SwitchId(1), SwitchId(0), SwitchId(2)],
        ));
        routes.push(Route::new(
            EntryPortId(1),
            EntryPortId(0),
            vec![SwitchId(2), SwitchId(0), SwitchId(1)],
        ));
        let q = Policy::from_ordered(vec![(t("1111"), Action::Drop)]).unwrap();
        let inst = Instance::new(
            topo,
            routes,
            vec![(EntryPortId(0), q.clone()), (EntryPortId(1), q)],
        )
        .unwrap();
        let mut p = Placement::new();
        p.place(EntryPortId(0), RuleId(0), SwitchId(0));
        p.place(EntryPortId(1), RuleId(0), SwitchId(0));
        p.record_merge(MergeGroup {
            switch: SwitchId(0),
            match_field: t("1111"),
            action: Action::Drop,
            members: vec![(EntryPortId(0), RuleId(0)), (EntryPortId(1), RuleId(0))],
        });
        let tables = emit_tables(&inst, &p).unwrap();
        assert_eq!(tables[0].len(), 1, "merged rules share one entry");
        let entry = &tables[0].entries()[0];
        assert_eq!(entry.tags.len(), 2);
        // Both ingresses hit the shared entry.
        let pkt = Packet::from_bits(0b1111, 4);
        assert_eq!(tables[0].lookup(EntryPortId(0), &pkt), Some(Action::Drop));
        assert_eq!(tables[0].lookup(EntryPortId(1), &pkt), Some(Action::Drop));
    }

    #[test]
    fn interleaves_policies_without_constraint() {
        // Two policies on the same switch: any order works; emission must
        // produce all entries with distinct priorities.
        let mut topo = Topology::linear(1);
        topo.set_uniform_capacity(10);
        let mut routes = RouteSet::new();
        routes.push(Route::new(
            EntryPortId(0),
            EntryPortId(1),
            vec![SwitchId(0)],
        ));
        routes.push(Route::new(
            EntryPortId(1),
            EntryPortId(0),
            vec![SwitchId(0)],
        ));
        let q0 = Policy::from_ordered(vec![(t("1***"), Action::Drop)]).unwrap();
        let q1 = Policy::from_ordered(vec![(t("0***"), Action::Drop)]).unwrap();
        let inst = Instance::new(
            topo,
            routes,
            vec![(EntryPortId(0), q0), (EntryPortId(1), q1)],
        )
        .unwrap();
        let mut p = Placement::new();
        p.place(EntryPortId(0), RuleId(0), SwitchId(0));
        p.place(EntryPortId(1), RuleId(0), SwitchId(0));
        let tables = emit_tables(&inst, &p).unwrap();
        assert_eq!(tables[0].len(), 2);
        let prios: BTreeSet<u32> = tables[0].entries().iter().map(|e| e.priority).collect();
        assert_eq!(prios.len(), 2);
    }

    #[test]
    fn conflicting_merge_groups_report_cycle() {
        // Hand-build two merge groups with contradictory priority votes
        // (bypassing find_merge_groups, which would have broken the
        // cycle) to exercise the CircularPriority error path.
        let mut topo = Topology::linear(1);
        topo.set_uniform_capacity(10);
        let mut routes = RouteSet::new();
        routes.push(Route::new(
            EntryPortId(0),
            EntryPortId(1),
            vec![SwitchId(0)],
        ));
        routes.push(Route::new(
            EntryPortId(1),
            EntryPortId(0),
            vec![SwitchId(0)],
        ));
        // Policy A: permit (high), drop (low); policy B: reversed.
        let qa = Policy::from_ordered(vec![(t("10**"), Action::Permit), (t("1***"), Action::Drop)])
            .unwrap();
        let qb = Policy::from_ordered(vec![(t("1***"), Action::Drop), (t("10**"), Action::Permit)])
            .unwrap();
        let inst = Instance::new(
            topo,
            routes,
            vec![(EntryPortId(0), qa), (EntryPortId(1), qb)],
        )
        .unwrap();
        let mut p = Placement::new();
        // A: permit is rule 0, drop is rule 1; B: drop is 0, permit is 1.
        p.place(EntryPortId(0), RuleId(0), SwitchId(0));
        p.place(EntryPortId(0), RuleId(1), SwitchId(0));
        p.place(EntryPortId(1), RuleId(0), SwitchId(0));
        p.place(EntryPortId(1), RuleId(1), SwitchId(0));
        p.record_merge(MergeGroup {
            switch: SwitchId(0),
            match_field: t("10**"),
            action: Action::Permit,
            members: vec![(EntryPortId(0), RuleId(0)), (EntryPortId(1), RuleId(1))],
        });
        p.record_merge(MergeGroup {
            switch: SwitchId(0),
            match_field: t("1***"),
            action: Action::Drop,
            members: vec![(EntryPortId(0), RuleId(1)), (EntryPortId(1), RuleId(0))],
        });
        let err = emit_tables(&inst, &p).unwrap_err();
        assert_eq!(err, TableError::CircularPriority(SwitchId(0)));
        assert!(err.to_string().contains("circular"));
    }

    /// A switch holding one merged entry still goes through the graph:
    /// the merged DROP is drafted first, but tenant A's PERMIT ranks
    /// above it, so the order is not the draft order.
    #[test]
    fn merged_switch_goes_through_the_constraint_graph() {
        let (a, b) = (EntryPortId(0), EntryPortId(1));
        let mut topo = Topology::linear(1);
        topo.set_uniform_capacity(10);
        let routes = RouteSet::from_routes(vec![
            Route::new(a, b, vec![SwitchId(0)]),
            Route::new(b, a, vec![SwitchId(0)]),
        ]);
        let qa = Policy::from_ordered(vec![(t("10**"), Action::Permit), (t("1***"), Action::Drop)])
            .unwrap();
        let qb = Policy::from_ordered(vec![(t("1***"), Action::Drop)]).unwrap();
        let inst = Instance::new(topo, routes, vec![(a, qa), (b, qb)]).unwrap();
        let mut p = Placement::new();
        p.place(a, RuleId(0), SwitchId(0));
        p.place(a, RuleId(1), SwitchId(0));
        p.place(b, RuleId(0), SwitchId(0));
        p.record_merge(MergeGroup {
            switch: SwitchId(0),
            match_field: t("1***"),
            action: Action::Drop,
            members: vec![(a, RuleId(1)), (b, RuleId(0))],
        });
        let drafts = all_drafts(&inst, &p).swap_remove(0);
        assert_eq!(constraint_order(&inst, &drafts), Some(vec![1, 0]));
        let tables = emit_tables(&inst, &p).unwrap();
        let top = &tables[0].entries()[0];
        assert_eq!((top.match_field, top.action), (t("10**"), Action::Permit));
        assert_eq!(tables[0].entries()[1].tags, Tags::from([a, b]));
    }

    /// What the constraint graph is fed on every switch: merged entries
    /// first, then each placed `(ingress, rule)` no merge absorbed, in
    /// [`Placement::iter`] order.
    fn all_drafts(inst: &Instance, p: &Placement) -> Vec<Vec<Draft>> {
        let n = inst.topology().switch_count();
        let mut drafts: Vec<Vec<Draft>> = (0..n).map(|_| Vec::new()).collect();
        let entry = |tags, match_field, action| TableEntry {
            priority: 0,
            tags,
            match_field,
            action,
        };
        for g in p.merge_groups() {
            drafts[g.switch.0].push(Draft {
                entry: entry(
                    g.members.iter().map(|m| m.0).collect(),
                    g.match_field,
                    g.action,
                ),
                contributors: g.members.clone(),
            });
        }
        for ((l, r), switches) in p.iter() {
            let rule = inst.policy(l).unwrap().rule(r);
            for s in switches {
                let absorbs = |g: &MergeGroup| g.switch == s && g.members.contains(&(l, r));
                if p.merge_groups().iter().any(absorbs) {
                    continue;
                }
                drafts[s.0].push(Draft {
                    entry: entry([l].into(), *rule.match_field(), rule.action()),
                    contributors: vec![(l, r)],
                });
            }
        }
        drafts
    }

    /// Two or three tenants on `star(k + 1)`, every route crossing the
    /// hub `s0` to the last leaf. Policies draw from one pool of five
    /// 4-bit rules, so identical rules recur across tenants and merging
    /// has something to merge.
    fn random_instance(rng: &mut StdRng) -> Instance {
        let pool: Vec<(Ternary, Action)> = (0..5)
            .map(|_| {
                let cube = Ternary::new(4, rng.gen_range(0u128..16), rng.gen_range(0u128..16));
                let action = if rng.gen_bool(0.5) {
                    Action::Drop
                } else {
                    Action::Permit
                };
                (cube, action)
            })
            .collect();
        let k = rng.gen_range(2..=3usize);
        let mut topo = Topology::star(k + 1);
        topo.set_uniform_capacity(rng.gen_range(3..=8usize));
        let egress = EntryPortId(k);
        let egress_switch = topo.entry_port(egress).switch;
        let mut routes = RouteSet::new();
        let mut policies = Vec::new();
        for i in 0..k {
            let l = EntryPortId(i);
            let hops = vec![topo.entry_port(l).switch, SwitchId(0), egress_switch];
            routes.push(Route::new(l, egress, hops));
            let mut picks: Vec<usize> = (0..pool.len()).collect();
            for j in (1..picks.len()).rev() {
                picks.swap(j, rng.gen_range(0..=j));
            }
            picks.truncate(rng.gen_range(1..=pool.len()));
            let specs = picks.iter().map(|&j| pool[j]).collect();
            policies.push((l, Policy::from_ordered(specs).unwrap()));
        }
        Instance::new(topo, routes, policies).unwrap()
    }

    /// On every merge-free switch of 32 seeded solved instances, merging
    /// off and on, the constraint graph's order is the identity the fast
    /// path assumes, and on every switch the emitted table is the drafts
    /// in the graph's order.
    #[test]
    fn merge_free_switches_emit_the_constraint_order() {
        use crate::{par, Objective, PlacementOptions};
        let mut rng = StdRng::seed_from_u64(0x7AB1E5);
        let (mut free, mut merged) = (0, 0);
        for merging in [false, true] {
            let options = PlacementOptions {
                merging,
                ..PlacementOptions::default()
            };
            for case in 0..32 {
                let inst = random_instance(&mut rng);
                let Some(p) = par::solve(&inst, Objective::TotalRules, &options, None).placement
                else {
                    continue;
                };
                let tables = emit_tables(&inst, &p).unwrap();
                for (s, drafts) in all_drafts(&inst, &p).into_iter().enumerate() {
                    let why = format!("merging {merging}, case {case}, s{s}");
                    let order = constraint_order(&inst, &drafts).expect(&why);
                    if p.merge_groups().iter().any(|g| g.switch.0 == s) {
                        merged += 1;
                    } else {
                        assert!(order.iter().copied().eq(0..drafts.len()), "{why}");
                        free += 1;
                    }
                    let total = drafts.len() as u32;
                    let want: Vec<TableEntry> = (order.iter().enumerate())
                        .map(|(pos, &i)| TableEntry {
                            priority: total - pos as u32,
                            ..drafts[i].entry.clone()
                        })
                        .collect();
                    assert_eq!(tables[s].entries(), want, "{why}");
                }
            }
        }
        assert!(free > 0 && merged > 0, "{free} merge-free, {merged} merged");
    }

    /// [`Tags`] against the `BTreeSet<EntryPortId>` it stands in for,
    /// on seeded random sets of 0–4 tags drawn with repeats: the same
    /// order, equality, hash, `Debug`, entry `Display`, `contains`,
    /// `len`, `is_disjoint` and iteration, and the same [`table_order`]
    /// over random entry vectors.
    #[test]
    fn tags_behave_like_the_btreeset_they_replace() {
        use std::collections::hash_map::DefaultHasher;
        fn hash(x: &impl Hash) -> u64 {
            let mut h = DefaultHasher::new();
            x.hash(&mut h);
            h.finish()
        }
        fn draw(rng: &mut StdRng) -> (Tags, BTreeSet<EntryPortId>) {
            let tags: Vec<EntryPortId> = (0..rng.gen_range(0..=4usize))
                .map(|_| EntryPortId(rng.gen_range(0..6usize)))
                .collect();
            (tags.iter().copied().collect(), tags.into_iter().collect())
        }
        let mut rng = StdRng::seed_from_u64(0x7A65);
        for case in 0..2000 {
            let ((ta, sa), (tb, sb)) = (draw(&mut rng), draw(&mut rng));
            let why = format!("case {case}: {sa:?} vs {sb:?}");
            assert!(ta.iter().eq(&sa) && (&ta).into_iter().eq(&sa), "{why}");
            assert_eq!(ta.len(), sa.len(), "{why}");
            assert_eq!(ta.is_empty(), sa.is_empty(), "{why}");
            assert_eq!(format!("{ta:?}"), format!("{sa:?}"), "{why}");
            assert_eq!(ta.cmp(&tb), sa.cmp(&sb), "{why}");
            assert_eq!(ta.partial_cmp(&tb), sa.partial_cmp(&sb), "{why}");
            assert_eq!(ta == tb, sa == sb, "{why}");
            assert_eq!(hash(&ta), hash(&sa), "{why}");
            if ta == tb {
                assert_eq!(hash(&ta), hash(&tb), "{why}");
            }
            assert_eq!(ta.is_disjoint(&tb), sa.is_disjoint(&sb), "{why}");
            for tag in (0..6).map(EntryPortId) {
                assert_eq!(ta.contains(&tag), sa.contains(&tag), "{why}, {tag}");
            }
            let entry = TableEntry {
                priority: 7,
                tags: ta,
                match_field: t("1*0*"),
                action: Action::Drop,
            };
            let listed: Vec<String> = sa.iter().map(ToString::to_string).collect();
            let want = format!("[7] tags={{{}}} 1*0* DROP", listed.join(","));
            assert_eq!(entry.to_string(), want, "{why}");
        }
        // Entry vectors with many ties, so the tags often decide.
        for case in 0..300 {
            let entries: Vec<(TableEntry, BTreeSet<EntryPortId>)> = (0..rng.gen_range(0..12))
                .map(|_| {
                    let (tags, set) = draw(&mut rng);
                    let match_field = Ternary::new(2, rng.gen_range(0..4u128), 0);
                    let action = [Action::Drop, Action::Permit][rng.gen_range(0..2usize)];
                    let priority = rng.gen_range(0..3u32);
                    let entry = TableEntry {
                        priority,
                        tags,
                        match_field,
                        action,
                    };
                    (entry, set)
                })
                .collect();
            let mut by_tags: Vec<usize> = (0..entries.len()).collect();
            by_tags.sort_by(|&i, &j| table_order(&entries[i].0, &entries[j].0));
            let key = |(e, set): &(TableEntry, BTreeSet<EntryPortId>)| {
                (e.priority, set.clone(), e.match_field, e.action)
            };
            let mut by_set: Vec<usize> = (0..entries.len()).collect();
            by_set.sort_by(|&i, &j| {
                let (a, b) = (key(&entries[i]), key(&entries[j]));
                b.0.cmp(&a.0).then_with(|| a.cmp(&b))
            });
            assert_eq!(by_tags, by_set, "case {case}");
        }
    }

    #[test]
    fn table_display_lists_entries() {
        let inst = one_policy_instance();
        let mut p = Placement::new();
        p.place(EntryPortId(0), RuleId(0), SwitchId(0));
        let tables = emit_tables(&inst, &p).unwrap();
        let text = tables[0].to_string();
        assert!(text.contains("11**"));
        assert!(text.contains("PERMIT"));
        assert!(text.contains("tags={l0}"));
    }

    #[test]
    fn empty_placement_empty_tables() {
        let inst = one_policy_instance();
        let tables = emit_tables(&inst, &Placement::new()).unwrap();
        assert!(tables.iter().all(SwitchTable::is_empty));
    }
}
