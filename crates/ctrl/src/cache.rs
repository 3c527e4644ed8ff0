//! TCAM-as-cache overlay with dependency-safe eviction.
//!
//! Production SDN switches treat TCAM as a *cache* over a far larger
//! rule population. This module layers that semantics on top of the
//! existing transactional [`DataPlane`](crate::DataPlane): the dataplane
//! keeps holding the full per-switch *target* tables (the rule
//! population the controller has committed), while the [`RuleCache`]
//! tracks which of those entries are *resident* in the physical TCAM of
//! each switch, under a separate, smaller cache capacity.
//!
//! ## The eviction invariant
//!
//! First-match TCAM semantics make naive caching unsafe: evicting a
//! high-priority DROP while a lower-priority overlapping PERMIT stays
//! resident silently flips the decision for the overlap — a *false
//! negative*, the §IV-A failure class the whole system is built to
//! exclude. The fix reuses the §IV-A1 dependency relation at the table
//! level. The cache maintains the **upward-closure invariant**:
//!
//! > for every resident entry `e`, every higher-priority entry of the
//! > same switch table that shares an ingress tag and overlaps `e`'s
//! > match field is also resident.
//!
//! Inserting an entry therefore pulls its whole ancestor closure in;
//! evicting an entry cascades to its resident descendants. Under the
//! invariant a lookup is *exact*: the highest-priority resident match is
//! the full table's first match whenever that first match is resident,
//! and when it is not, **no** resident entry matches — the packet punts
//! to the controller (a miss) instead of being mis-decided. A cached
//! DROP keeps its overlapping shield PERMITs resident and vice versa;
//! the decision ladder never inverts.
//!
//! ## Auditability
//!
//! [`RuleCache::audit`] checks the structural invariant directly;
//! [`RuleCache::audit_tables`] materializes the resident state as
//! verifier tables in which the punt path is modelled as a
//! minimum-priority match-all DROP (pessimistic-safe: punted packets are
//! decided by the controller from the full table, which commit-time
//! verification already proved fail-closed). Running
//! `verify::no_false_negatives`-style checks over those tables catches
//! exactly the priority-inversion bug class a broken eviction would
//! introduce — see `Controller::cache_fail_closed_audit`.
//!
//! Safe-mode fence entries (see [`TableEntry::is_safe_mode`]) live in the
//! reserved system bank: they are always resident and never count
//! against the cache capacity, so fail-closed degradation survives
//! caching unchanged.

use std::collections::BTreeSet;
use std::fmt;

use flowplace_acl::classify::BatchClassifier;
use flowplace_acl::{Action, Packet};
use flowplace_core::tables::{table_order, SwitchTable, TableEntry, Tags};
use flowplace_fasthash::FnvHashMap;
use flowplace_topo::{EntryPortId, SwitchId};

/// Pluggable eviction policy.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum CachePolicy {
    /// Evict the least-recently-used resident entry.
    #[default]
    Lru,
    /// Dependency-aware frequency: evict the entry with the lowest
    /// `uses + resident-descendant count` — cold entries whose eviction
    /// cascades the least go first.
    DepFreq,
}

impl CachePolicy {
    /// Stable keyword (`lru` / `depfreq`) for flags and dumps.
    pub fn label(&self) -> &'static str {
        match self {
            CachePolicy::Lru => "lru",
            CachePolicy::DepFreq => "depfreq",
        }
    }
}

impl fmt::Display for CachePolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Cache-tier configuration.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CacheConfig {
    /// Master switch; when false the controller behaves exactly as
    /// before this tier existed.
    pub enabled: bool,
    /// Resident entries allowed per switch (safe-mode slots exempt).
    pub capacity: usize,
    /// Eviction policy.
    pub policy: CachePolicy,
    /// Misses batched per controller miss-handling round (each round
    /// inserts the missed entries and charges their punt latency).
    pub miss_batch: usize,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            enabled: false,
            capacity: 0,
            policy: CachePolicy::Lru,
            miss_batch: 8,
        }
    }
}

impl CacheConfig {
    /// Parses a CLI capacity spec: `N` (LRU with capacity N) or
    /// `POLICY:N` with `POLICY` ∈ `lru` | `depfreq`. The result is
    /// enabled.
    ///
    /// # Errors
    ///
    /// A human-readable reason for a malformed spec.
    pub fn parse_spec(spec: &str) -> Result<CacheConfig, String> {
        if spec.is_empty() {
            return Err("empty cache spec (want N or lru:N|depfreq:N)".into());
        }
        let (policy, cap) = match spec.split_once(':') {
            None => (CachePolicy::Lru, spec),
            Some(("lru", cap)) => (CachePolicy::Lru, cap),
            Some(("depfreq", cap)) => (CachePolicy::DepFreq, cap),
            Some((other, _)) => {
                return Err(format!(
                    "unknown cache policy {other:?} in {spec:?} (want lru|depfreq)"
                ))
            }
        };
        // Reject zero before parsing so "0", "00", "lru:0" all get the
        // positivity message, not a generic parse failure.
        if !cap.is_empty() && cap.bytes().all(|b| b == b'0') {
            return Err(format!(
                "cache capacity must be positive, got {cap:?} in {spec:?}"
            ));
        }
        let capacity: usize = cap.parse().map_err(|_| {
            format!("bad cache capacity {cap:?} in {spec:?} (want a positive integer)")
        })?;
        if capacity == 0 {
            return Err(format!(
                "cache capacity must be positive, got {cap:?} in {spec:?}"
            ));
        }
        Ok(CacheConfig {
            enabled: true,
            capacity,
            policy,
            ..CacheConfig::default()
        })
    }
}

/// What one cache lookup concluded.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CacheLookup {
    /// The full table's first match is resident; its action is exact.
    Hit(Action),
    /// The full table matches but the matching entry is not resident:
    /// the packet punts to the controller, which decides `action` from
    /// the full table. `slot` indexes the missed entry for insertion.
    Miss {
        /// The (oracle-correct) action of the full table's first match.
        action: Action,
        /// Slot index of the missed entry within its switch table.
        slot: usize,
    },
    /// No entry of the full table matches; default forward.
    NoMatch,
}

/// Cumulative cache-tier counters (monotone; deltas are taken by the
/// controller when building per-call reports).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheCounters {
    /// Per-switch lookups performed.
    pub lookups: u64,
    /// Lookups answered by a resident entry.
    pub hits: u64,
    /// Lookups punted to the controller.
    pub misses: u64,
    /// Entries made resident (closure pulls included).
    pub inserts: u64,
    /// Entries evicted (cascades included).
    pub evictions: u64,
    /// Extra ancestor entries pulled resident to keep the invariant.
    pub closure_pulls: u64,
    /// Insertions skipped because the dependency closure alone exceeds
    /// the cache capacity.
    pub uncacheable: u64,
}

/// One target entry plus its cache metadata.
#[derive(Clone, Debug)]
struct Slot {
    entry: TableEntry,
    resident: bool,
    /// Logical tick of the last hit or insert (LRU recency).
    last_use: u64,
    /// Hits served by this entry (DepFreq frequency).
    uses: u64,
    /// Higher-priority overlapping same-tag slots (must be resident
    /// whenever this slot is — the upward closure).
    parents: Vec<usize>,
    /// Reverse edges (evicting this slot cascades to resident children).
    children: Vec<usize>,
}

/// Structure-of-arrays matcher for one ingress tag's slots, built once
/// per [`RuleCache::set_target`]. Cubes keep slot order, so the kernel's
/// first match is exactly the first matching slot carrying this tag; the
/// kernel's width check mirrors the explicit width probe the scalar scan
/// performed.
#[derive(Clone, Debug)]
struct TagMatcher {
    classifier: BatchClassifier,
    /// Slot index behind each classifier cube.
    slots: Vec<u32>,
}

/// The cache tables of one switch, mirroring the dataplane's sorted
/// order (descending priority, ties by entry ordering).
#[derive(Clone, Debug, Default)]
struct CacheTable {
    slots: Vec<Slot>,
    /// Per-ingress-tag batched matchers over the slots. Probe-only map
    /// (never iterated), so the unordered FNV hasher is safe; the match
    /// data is immutable between target commits, so the matchers never
    /// go stale.
    matchers: FnvHashMap<EntryPortId, TagMatcher>,
}

impl CacheTable {
    /// Builds the per-tag matchers from the (already sorted) slots.
    fn from_slots(slots: Vec<Slot>) -> CacheTable {
        let mut grouped: FnvHashMap<EntryPortId, (Vec<flowplace_acl::Ternary>, Vec<u32>)> =
            FnvHashMap::default();
        for (i, slot) in slots.iter().enumerate() {
            for &tag in &slot.entry.tags {
                let (cubes, idx) = grouped.entry(tag).or_default();
                cubes.push(slot.entry.match_field);
                idx.push(i as u32);
            }
        }
        let matchers = grouped
            .into_iter()
            .map(|(tag, (cubes, idx))| {
                (
                    tag,
                    TagMatcher {
                        classifier: BatchClassifier::new(&cubes),
                        slots: idx,
                    },
                )
            })
            .collect();
        CacheTable { slots, matchers }
    }

    /// Index of the first slot matching `packet` for `ingress` — the
    /// batched-kernel replacement for the linear
    /// `tags.contains && width == && matches` scan.
    fn first_match(&self, ingress: EntryPortId, packet: &Packet) -> Option<usize> {
        let m = self.matchers.get(&ingress)?;
        m.classifier
            .first_match(packet)
            .map(|ci| m.slots[ci] as usize)
    }
}

impl CacheTable {
    /// Resident entries that count against capacity.
    fn billable_residents(&self) -> usize {
        self.slots
            .iter()
            .filter(|s| s.resident && !s.entry.is_safe_mode())
            .count()
    }
}

/// Per-switch TCAM-as-cache residency over the committed target tables.
#[derive(Clone, Debug)]
pub struct RuleCache {
    config: CacheConfig,
    tables: Vec<CacheTable>,
    counters: CacheCounters,
    tick: u64,
}

/// True when two target entries overlap for caching purposes: some
/// ingress tag in common and intersecting match fields (width mismatch
/// means disjoint header spaces, never an overlap).
fn overlaps(a: &TableEntry, b: &TableEntry) -> bool {
    a.match_field.width() == b.match_field.width()
        && !a.tags.is_disjoint(&b.tags)
        && a.match_field.intersects(&b.match_field)
}

impl RuleCache {
    /// Creates an empty cache over `switches` switch tables.
    pub fn new(config: CacheConfig, switches: usize) -> RuleCache {
        RuleCache {
            config,
            tables: (0..switches).map(|_| CacheTable::default()).collect(),
            counters: CacheCounters::default(),
            tick: 0,
        }
    }

    /// The configuration this cache runs under.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Cumulative counters.
    pub fn counters(&self) -> &CacheCounters {
        &self.counters
    }

    /// Resident entries on one switch (safe-mode slots included).
    ///
    /// # Panics
    ///
    /// Panics if `s` is out of range.
    pub fn occupancy(&self, s: SwitchId) -> usize {
        self.tables[s.0].slots.iter().filter(|x| x.resident).count()
    }

    /// Re-synchronizes the cache with new target tables, one entry
    /// slice per switch (after an epoch commit). Residency survives for
    /// entries that still exist in the target — identity is the full
    /// [`TableEntry`] tuple, matching the dataplane's identity rule —
    /// then the upward closure is re-pulled and the capacity
    /// re-enforced, so the invariant holds on exit no matter how the
    /// target moved.
    pub fn set_target<T: AsRef<[TableEntry]>>(&mut self, targets: impl IntoIterator<Item = T>) {
        let mut tables = Vec::with_capacity(self.tables.len());
        for (i, want) in targets.into_iter().enumerate() {
            let want = want.as_ref();
            let old = self.tables.get(i);
            // Index the previous slots by entry so the carry-over probe
            // is O(1) instead of a scan per target entry. First
            // occurrence wins on duplicate entries, matching the linear
            // `find` this replaces; the map is probe-only, so the
            // unordered FNV hasher cannot leak order anywhere.
            let mut prev_by_entry: FnvHashMap<&TableEntry, &Slot> = FnvHashMap::default();
            if let Some(t) = old {
                for s in &t.slots {
                    prev_by_entry.entry(&s.entry).or_insert(s);
                }
            }
            let mut slots: Vec<Slot> = want
                .iter()
                .map(|e| {
                    let prev = prev_by_entry.get(e).copied();
                    Slot {
                        entry: e.clone(),
                        resident: e.is_safe_mode() || prev.map(|p| p.resident).unwrap_or(false),
                        last_use: prev.map(|p| p.last_use).unwrap_or(0),
                        uses: prev.map(|p| p.uses).unwrap_or(0),
                        parents: Vec::new(),
                        children: Vec::new(),
                    }
                })
                .collect();
            // Mirror the dataplane's deterministic order.
            slots.sort_by(|a, b| table_order(&a.entry, &b.entry));
            // Rebuild the overlap adjacency: j runs strictly below i in
            // the sorted order, so i is j's higher-priority side.
            for i in 0..slots.len() {
                for j in (i + 1)..slots.len() {
                    if overlaps(&slots[i].entry, &slots[j].entry) {
                        slots[j].parents.push(i);
                        slots[i].children.push(j);
                    }
                }
            }
            tables.push(CacheTable::from_slots(slots));
        }
        // Keep table count in sync with the dataplane.
        let switches = self.tables.len().max(tables.len());
        tables.resize_with(switches, CacheTable::default);
        self.tables = tables;
        // Re-establish the invariant over the survivors, then shrink
        // back under capacity if closure pulls overshot it.
        for s in 0..self.tables.len() {
            let resident: Vec<usize> = self.tables[s]
                .slots
                .iter()
                .enumerate()
                .filter(|(_, x)| x.resident)
                .map(|(i, _)| i)
                .collect();
            for i in resident {
                let pulled = self.pull_closure(s, i);
                self.counters.closure_pulls += pulled;
            }
            self.enforce_capacity(s, &BTreeSet::new());
        }
    }

    /// Looks one packet up against one switch's cache.
    ///
    /// Under the invariant the answer is exact: the full table's first
    /// match decides between [`CacheLookup::Hit`] (resident) and
    /// [`CacheLookup::Miss`] (punt), and no resident entry can shadow a
    /// non-resident higher-priority one.
    ///
    /// # Panics
    ///
    /// Panics if `s` is out of range.
    pub fn lookup(&mut self, s: SwitchId, ingress: EntryPortId, packet: &Packet) -> CacheLookup {
        self.counters.lookups += 1;
        self.tick += 1;
        let tick = self.tick;
        let table = &mut self.tables[s.0];
        let first = table.first_match(ingress, packet);
        match first {
            None => CacheLookup::NoMatch,
            Some(i) if table.slots[i].resident => {
                let slot = &mut table.slots[i];
                slot.last_use = tick;
                slot.uses += 1;
                self.counters.hits += 1;
                CacheLookup::Hit(slot.entry.action)
            }
            Some(i) => {
                self.counters.misses += 1;
                CacheLookup::Miss {
                    action: table.slots[i].entry.action,
                    slot: i,
                }
            }
        }
    }

    /// Makes `slot` on switch `s` resident, pulling its ancestor closure
    /// in and evicting under the configured policy until the capacity
    /// holds again. The just-inserted closure is pinned against eviction
    /// within this call. Returns `false` (and counts `uncacheable`) when
    /// the closure alone cannot fit.
    ///
    /// # Panics
    ///
    /// Panics if `s` or `slot` is out of range.
    pub fn insert(&mut self, s: SwitchId, slot: usize) -> bool {
        let closure = self.ancestor_closure(s.0, slot);
        let billable = closure
            .iter()
            .filter(|&&i| !self.tables[s.0].slots[i].entry.is_safe_mode())
            .count();
        if billable > self.config.capacity {
            self.counters.uncacheable += 1;
            return false;
        }
        self.tick += 1;
        let tick = self.tick;
        let mut pulled = 0u64;
        for &i in &closure {
            let x = &mut self.tables[s.0].slots[i];
            if !x.resident {
                x.resident = true;
                x.last_use = tick;
                self.counters.inserts += 1;
                if i != slot {
                    pulled += 1;
                }
            }
        }
        self.counters.closure_pulls += pulled;
        self.enforce_capacity(s.0, &closure);
        true
    }

    /// The ancestor closure of `slot` (itself included): everything that
    /// must be resident for `slot` to be resident.
    fn ancestor_closure(&self, s: usize, slot: usize) -> BTreeSet<usize> {
        let mut closure = BTreeSet::new();
        let mut stack = vec![slot];
        while let Some(i) = stack.pop() {
            if closure.insert(i) {
                stack.extend(self.tables[s].slots[i].parents.iter().copied());
            }
        }
        closure
    }

    /// Pulls `slot`'s non-resident ancestors resident (used on resync).
    /// Returns how many were pulled.
    fn pull_closure(&mut self, s: usize, slot: usize) -> u64 {
        let closure = self.ancestor_closure(s, slot);
        let mut pulled = 0u64;
        for i in closure {
            let x = &mut self.tables[s].slots[i];
            if !x.resident {
                x.resident = true;
                pulled += 1;
                self.counters.inserts += 1;
            }
        }
        pulled
    }

    /// Evicts by policy until switch `s` fits its capacity, never
    /// touching `pinned` slots or safe-mode entries. Every eviction
    /// cascades downward to resident descendants so the invariant is
    /// preserved.
    fn enforce_capacity(&mut self, s: usize, pinned: &BTreeSet<usize>) {
        while self.tables[s].billable_residents() > self.config.capacity {
            let victim = self.pick_victim(s, pinned);
            let Some(v) = victim else { return };
            self.evict_cascading(s, v);
        }
    }

    /// The policy's next victim among evictable resident slots. Ties
    /// break toward the lower-priority (later) slot for determinism.
    fn pick_victim(&self, s: usize, pinned: &BTreeSet<usize>) -> Option<usize> {
        let table = &self.tables[s];
        let mut best: Option<(u64, usize)> = None;
        for (i, x) in table.slots.iter().enumerate() {
            if !x.resident || x.entry.is_safe_mode() || pinned.contains(&i) {
                continue;
            }
            let score = match self.config.policy {
                CachePolicy::Lru => x.last_use,
                CachePolicy::DepFreq => {
                    let dependents = x
                        .children
                        .iter()
                        .filter(|&&c| table.slots[c].resident)
                        .count() as u64;
                    x.uses.saturating_add(dependents)
                }
            };
            let better = match best {
                None => true,
                Some((bs, bi)) => score < bs || (score == bs && i > bi),
            };
            if better {
                best = Some((score, i));
            }
        }
        best.map(|(_, i)| i)
    }

    /// Evicts `slot` and every resident descendant (downward closure),
    /// keeping the invariant intact.
    fn evict_cascading(&mut self, s: usize, slot: usize) {
        let mut stack = vec![slot];
        while let Some(i) = stack.pop() {
            let x = &mut self.tables[s].slots[i];
            if !x.resident || x.entry.is_safe_mode() {
                continue;
            }
            x.resident = false;
            self.counters.evictions += 1;
            let children = self.tables[s].slots[i].children.clone();
            stack.extend(children);
        }
    }

    /// Structural audit of the eviction invariant: every resident slot's
    /// parents are resident.
    ///
    /// # Errors
    ///
    /// A description of the first dangling dependency.
    pub fn audit(&self) -> Result<(), String> {
        for (s, table) in self.tables.iter().enumerate() {
            for x in &table.slots {
                if !x.resident {
                    continue;
                }
                for &p in &x.parents {
                    if !table.slots[p].resident {
                        return Err(format!(
                            "s{s}: resident entry {} depends on evicted {}",
                            x.entry, table.slots[p].entry
                        ));
                    }
                }
            }
        }
        Ok(())
    }

    /// Materializes the resident state as verifier tables: resident
    /// entries verbatim, plus one minimum-priority match-all DROP per
    /// (switch, header width) carrying every tag that switch's full
    /// table serves — the punt path modelled pessimistically as a drop.
    /// Feeding these to `verify_tables` in no-false-negatives mode
    /// detects exactly the decision inversions a dependency-violating
    /// eviction would cause.
    pub fn audit_tables(&self) -> Vec<SwitchTable> {
        self.tables
            .iter()
            .map(|table| {
                let mut entries: Vec<TableEntry> = table
                    .slots
                    .iter()
                    .filter(|x| x.resident)
                    .map(|x| x.entry.clone())
                    .collect();
                // Punt fences: one per header width present in the full
                // table, tagged with every ingress that width serves.
                let mut widths: Vec<u32> = table
                    .slots
                    .iter()
                    .map(|x| x.entry.match_field.width())
                    .collect();
                widths.sort_unstable();
                widths.dedup();
                for width in widths {
                    let tags: Tags = table
                        .slots
                        .iter()
                        .filter(|x| x.entry.match_field.width() == width)
                        .flat_map(|x| x.entry.tags.iter().copied())
                        .collect();
                    entries.push(TableEntry {
                        tags,
                        match_field: flowplace_acl::Ternary::any(width),
                        action: Action::Drop,
                        priority: 0,
                    });
                }
                SwitchTable::from_entries(entries)
            })
            .collect()
    }

    /// Test/negative-control hook: evicts exactly one slot with **no**
    /// downward cascade, deliberately breaking the invariant the way a
    /// naive cache would. The audits exist to catch what this does.
    #[doc(hidden)]
    pub fn force_evict_unsafe(&mut self, s: SwitchId, slot: usize) {
        let x = &mut self.tables[s.0].slots[slot];
        if x.resident {
            x.resident = false;
            self.counters.evictions += 1;
        }
    }

    /// Slot index of the first entry on `s` matching `predicate`
    /// (tables are in descending-priority order). Test helper.
    #[doc(hidden)]
    pub fn find_slot(&self, s: SwitchId, predicate: impl Fn(&TableEntry) -> bool) -> Option<usize> {
        self.tables[s.0]
            .slots
            .iter()
            .position(|x| predicate(&x.entry))
    }

    /// Deterministic text dump: per switch, each target entry with its
    /// residency bit. Identical cache states render identically.
    pub fn dump(&self) -> String {
        use fmt::Write as _;
        let mut out = String::new();
        for (s, table) in self.tables.iter().enumerate() {
            let _ = writeln!(
                out,
                "s{s} cache {}/{} resident",
                table.slots.iter().filter(|x| x.resident).count(),
                table.slots.len()
            );
            for x in &table.slots {
                let _ = writeln!(
                    out,
                    "  [{}] {}",
                    if x.resident { 'R' } else { '-' },
                    x.entry
                );
            }
        }
        out
    }
}

#[cfg(test)]
mod tests;
