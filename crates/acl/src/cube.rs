//! Unions of ternary cubes with exact set operations.

use std::cell::RefCell;
use std::fmt;

use crate::arena::CubeArena;
use crate::{Packet, Ternary};

thread_local! {
    /// Pool behind [`CubeList::subtract`] and friends, so every caller
    /// amortises scratch allocations without threading an arena through
    /// its signature.
    static THREAD_ARENA: RefCell<CubeArena> = RefCell::new(CubeArena::new());
}

/// Runs `f` with this thread's scratch pool. Each [`CubeList`] operation
/// borrows it for its own duration, so `f` must not call another one.
fn with_thread_arena<R>(f: impl FnOnce(&mut CubeArena) -> R) -> R {
    THREAD_ARENA.with(|a| f(&mut a.borrow_mut()))
}

/// Snapshot of the thread-local arena's counters, for observability
/// gauges and the benchmark's `acl.arena.*` metrics.
pub fn thread_arena_stats() -> crate::ArenaStats {
    with_thread_arena(|a| a.stats())
}

/// A set of packets represented as a union of pairwise-disjoint ternary
/// cubes, supporting exact difference, intersection, and coverage queries.
///
/// This is the multi-dimensional packet-space machinery referenced by the
/// paper's redundancy-removal pre-pass (refs [7–9]); it powers the exact
/// all-match redundancy analysis in [`crate::redundancy`].
///
/// The mutating operations need scratch buffers for the TCAM "sharp"
/// split; they borrow a thread-local pool, so steady-state loops
/// allocate ~zero ([`thread_arena_stats`] has the counters).
///
/// # Example
///
/// ```
/// use flowplace_acl::{CubeList, Ternary};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut space = CubeList::from_cube(Ternary::parse("1***")?);
/// space.subtract(&Ternary::parse("10**")?);
/// assert!(space.contains_cube(&Ternary::parse("11**")?));
/// assert!(space.is_disjoint_from(&Ternary::parse("10**")?));
/// # Ok(())
/// # }
/// ```
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct CubeList {
    cubes: Vec<Ternary>,
}

impl CubeList {
    /// The empty set.
    pub fn new() -> Self {
        CubeList { cubes: Vec::new() }
    }

    /// A set holding exactly one cube.
    pub fn from_cube(cube: Ternary) -> Self {
        CubeList { cubes: vec![cube] }
    }

    /// Resets the set to exactly one cube, keeping the backing storage.
    /// The allocation-free way to restart a loop that re-seeds the same
    /// `CubeList` per iteration (see [`crate::redundancy`]).
    pub fn reset_to_cube(&mut self, cube: Ternary) {
        self.cubes.clear();
        self.cubes.push(cube);
    }

    /// The cubes of this set. Invariant: pairwise disjoint.
    pub fn cubes(&self) -> &[Ternary] {
        &self.cubes
    }

    /// True if the set is empty.
    pub fn is_empty(&self) -> bool {
        self.cubes.is_empty()
    }

    /// Total number of packets in the set (cubes are disjoint), saturating.
    pub fn cardinality(&self) -> u128 {
        self.cubes
            .iter()
            .fold(0u128, |acc, c| acc.saturating_add(c.cardinality()))
    }

    /// True if `packet` is in the set.
    pub fn contains_packet(&self, packet: &Packet) -> bool {
        self.cubes.iter().any(|c| c.matches(packet))
    }

    /// Removes every packet of `cube` from the set (the TCAM "sharp"
    /// operation, applied cube-wise). Scratch comes from the thread-local
    /// arena.
    pub fn subtract(&mut self, cube: &Ternary) {
        with_thread_arena(|arena| {
            let mut scratch = arena.take();
            self.subtract_with(cube, &mut scratch);
            arena.put(scratch);
        });
    }

    /// [`subtract`](Self::subtract) writing through a caller-owned scratch
    /// buffer, so a loop over many cubes reuses one allocation. After the
    /// call `scratch` holds the previous cube list's (cleared) storage.
    fn subtract_with(&mut self, cube: &Ternary, scratch: &mut Vec<Ternary>) {
        scratch.clear();
        for c in self.cubes.drain(..) {
            sharp_into(&c, cube, scratch);
        }
        std::mem::swap(&mut self.cubes, scratch);
    }

    /// Removes every packet of `other` from the set. Scratch comes from
    /// the thread-local arena.
    pub fn subtract_all(&mut self, other: &CubeList) {
        // One scratch buffer swapped back and forth across the loop —
        // this runs hot under candidate rebuilds, and a fresh Vec per
        // subtracted cube showed up as allocator churn.
        with_thread_arena(|arena| {
            let mut scratch = arena.take();
            for cube in &other.cubes {
                self.subtract_with(cube, &mut scratch);
                if self.cubes.is_empty() {
                    break;
                }
            }
            arena.put(scratch);
        });
    }

    /// The subset of this set that intersects `cube`, as a new set.
    ///
    /// Allocates the result; when only emptiness matters, use
    /// [`is_disjoint_from`](Self::is_disjoint_from) instead — it probes
    /// without allocating.
    pub fn intersection_with_cube(&self, cube: &Ternary) -> CubeList {
        CubeList {
            cubes: self
                .cubes
                .iter()
                .filter_map(|c| c.intersection(cube))
                .collect(),
        }
    }

    /// True if no packet of `cube` is in the set.
    pub fn is_disjoint_from(&self, cube: &Ternary) -> bool {
        self.cubes.iter().all(|c| !c.intersects(cube))
    }

    /// True if every packet of `cube` is in the set. Scratch comes from
    /// the thread-local arena.
    pub fn contains_cube(&self, cube: &Ternary) -> bool {
        // cube ⊆ self  ⇔  cube \ self = ∅. Ping-pong between two pooled
        // buffers instead of re-taking the remainder vector per fragment,
        // which reallocated on every iteration.
        with_thread_arena(|arena| {
            let mut cur = arena.take();
            let mut next = arena.take();
            cur.push(*cube);
            for c in &self.cubes {
                next.clear();
                for r in cur.drain(..) {
                    sharp_into(&r, c, &mut next);
                }
                std::mem::swap(&mut cur, &mut next);
                if cur.is_empty() {
                    break;
                }
            }
            let contained = cur.is_empty();
            arena.put(cur);
            arena.put(next);
            contained
        })
    }

    /// Adds `cube` to the set, keeping cubes disjoint by inserting only the
    /// part of `cube` not already covered. Scratch comes from the
    /// thread-local arena.
    pub fn insert(&mut self, cube: &Ternary) {
        with_thread_arena(|arena| {
            let mut fresh = arena.take();
            let mut scratch = arena.take();
            fresh.push(*cube);
            for existing in &self.cubes {
                scratch.clear();
                for f in fresh.drain(..) {
                    sharp_into(&f, existing, &mut scratch);
                }
                std::mem::swap(&mut fresh, &mut scratch);
                if fresh.is_empty() {
                    break;
                }
            }
            self.cubes.append(&mut fresh);
            arena.put(fresh);
            arena.put(scratch);
        });
    }
}

impl fmt::Display for CubeList {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, c) in self.cubes.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{c}")?;
        }
        write!(f, "}}")
    }
}

impl FromIterator<Ternary> for CubeList {
    fn from_iter<I: IntoIterator<Item = Ternary>>(iter: I) -> Self {
        let mut list = CubeList::new();
        list.extend(iter);
        list
    }
}

impl Extend<Ternary> for CubeList {
    fn extend<I: IntoIterator<Item = Ternary>>(&mut self, iter: I) {
        // One borrow per cube, never across `iter.next()`: the iterator
        // may itself run cube algebra on this thread.
        for c in iter {
            self.insert(&c);
        }
    }
}

/// Appends the disjoint cubes of `a \ b` to `out`.
///
/// Walks the bit positions where `b` cares but the running remainder of `a`
/// does not, splitting off the half that disagrees with `b` at each step.
fn sharp_into(a: &Ternary, b: &Ternary, out: &mut Vec<Ternary>) {
    debug_assert_eq!(a.width(), b.width());
    if !a.intersects(b) {
        out.push(*a);
        return;
    }
    let width = a.width();
    let mut cur = *a;
    for i in 0..width {
        let bit = 1u128 << i;
        if b.care() & bit != 0 && cur.care() & bit == 0 {
            // The half of `cur` that disagrees with `b` at position i is
            // disjoint from `b`; keep it and continue with the agreeing half.
            let keep = Ternary::new(width, cur.care() | bit, cur.value() | (!b.value() & bit));
            out.push(keep);
            cur = Ternary::new(width, cur.care() | bit, cur.value() | (b.value() & bit));
        }
    }
    // `cur` now agrees with `b` everywhere `b` cares: it is inside `b`.
    debug_assert!(b.subsumes(&cur));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: &str) -> Ternary {
        Ternary::parse(s).unwrap()
    }

    /// Brute-force membership over all packets of a small width.
    fn members(list: &CubeList, width: u32) -> Vec<u128> {
        (0..(1u128 << width))
            .filter(|&b| list.contains_packet(&Packet::from_bits(b, width)))
            .collect()
    }

    #[test]
    fn subtract_splits_correctly() {
        let mut s = CubeList::from_cube(t("****"));
        s.subtract(&t("10**"));
        let got = members(&s, 4);
        let want: Vec<u128> = (0..16).filter(|&b| (b >> 2) & 0b11 != 0b10).collect();
        assert_eq!(got, want);
        // Result cubes are pairwise disjoint.
        for (i, a) in s.cubes().iter().enumerate() {
            for b in &s.cubes()[i + 1..] {
                assert!(!a.intersects(b), "{a} intersects {b}");
            }
        }
    }

    #[test]
    fn subtract_disjoint_is_noop() {
        let mut s = CubeList::from_cube(t("0***"));
        s.subtract(&t("1***"));
        assert_eq!(s.cubes().len(), 1);
        assert_eq!(s.cardinality(), 8);
    }

    #[test]
    fn subtract_superset_empties() {
        let mut s = CubeList::from_cube(t("10*1"));
        s.subtract(&t("1***"));
        assert!(s.is_empty());
        assert_eq!(s.cardinality(), 0);
    }

    #[test]
    fn subtract_self_empties() {
        let mut s = CubeList::from_cube(t("1*0*"));
        s.subtract(&t("1*0*"));
        assert!(s.is_empty());
    }

    #[test]
    fn contains_cube_across_fragments() {
        // {00**} ∪ {01**} covers 0***
        let mut s = CubeList::new();
        s.insert(&t("00**"));
        s.insert(&t("01**"));
        assert!(s.contains_cube(&t("0***")));
        assert!(!s.contains_cube(&t("****")));
        assert!(s.contains_cube(&t("01*1")));
    }

    #[test]
    fn insert_keeps_disjoint_and_counts() {
        let mut s = CubeList::new();
        s.insert(&t("1***"));
        s.insert(&t("1*1*")); // fully covered
        assert_eq!(s.cardinality(), 8);
        s.insert(&t("**11")); // partially covered
        assert_eq!(s.cardinality(), 8 + 2); // adds 0011 and 0111
        assert_eq!(members(&s, 4).len(), 10);
        for (i, a) in s.cubes().iter().enumerate() {
            for b in &s.cubes()[i + 1..] {
                assert!(!a.intersects(b));
            }
        }
    }

    #[test]
    fn subtract_all_matches_sequential_subtract() {
        // The scratch-buffer loop must produce exactly what cube-by-cube
        // subtraction did, including cube order.
        let base = || {
            let mut s = CubeList::new();
            s.insert(&t("1***"));
            s.insert(&t("*1**"));
            s.insert(&t("**10"));
            s
        };
        let other: CubeList = vec![t("11**"), t("*011"), t("0*1*")].into_iter().collect();

        let mut batched = base();
        batched.subtract_all(&other);
        let mut sequential = base();
        for c in other.cubes() {
            sequential.subtract(c);
        }
        assert_eq!(batched, sequential);
        assert_eq!(members(&batched, 4), members(&sequential, 4));
    }

    #[test]
    fn subtract_all_empties_and_early_exits() {
        let mut s = CubeList::from_cube(t("10*1"));
        let all = CubeList::from_cube(t("****"));
        s.subtract_all(&all);
        assert!(s.is_empty());
        // A further subtraction on the empty set stays empty.
        s.subtract_all(&all);
        assert!(s.is_empty());
    }

    #[test]
    fn intersection_with_cube() {
        let mut s = CubeList::from_cube(t("1***"));
        s.subtract(&t("11**"));
        let i = s.intersection_with_cube(&t("***1"));
        let got = members(&i, 4);
        assert_eq!(got, vec![0b1001, 0b1011]);
    }

    #[test]
    fn from_iterator_collects_disjointly() {
        let s: CubeList = vec![t("1***"), t("*1**"), t("1***")].into_iter().collect();
        assert_eq!(members(&s, 4).len(), 12);
    }

    #[test]
    fn display_nonempty() {
        let s = CubeList::from_cube(t("1*"));
        assert_eq!(s.to_string(), "{1*}");
        assert_eq!(CubeList::new().to_string(), "{}");
    }

    #[test]
    fn arena_reuses_buffers_in_steady_state() {
        let mut s = CubeList::new();
        let round = |s: &mut CubeList| {
            s.reset_to_cube(t("****"));
            s.subtract(&t("10**"));
            s.subtract_all(&CubeList::from_cube(t("0***")));
            assert!(s.contains_cube(&t("111*")));
        };
        round(&mut s);
        let warm = thread_arena_stats();
        for _ in 0..100 {
            round(&mut s);
        }
        // Steady state: the warm pool serves every further request.
        let after = thread_arena_stats();
        assert_eq!(
            after.allocations, warm.allocations,
            "steady-state loop created fresh buffers: {after:?}"
        );
        assert!(after.reuse_hits - warm.reuse_hits >= 400);
    }

    #[test]
    fn reset_to_cube_keeps_capacity() {
        let mut s = CubeList::from_cube(t("****"));
        s.subtract(&t("1010"));
        let cap = s.cubes.capacity();
        assert!(cap >= 4);
        s.reset_to_cube(t("****"));
        assert_eq!(s.cubes().len(), 1);
        assert!(s.cubes.capacity() >= cap);
    }

    #[test]
    fn thread_arena_stats_accumulate() {
        let before = thread_arena_stats();
        let mut s = CubeList::from_cube(t("****"));
        s.subtract(&t("10**"));
        let after = thread_arena_stats();
        assert!(after.allocations + after.reuse_hits > before.allocations + before.reuse_hits);
    }
}
