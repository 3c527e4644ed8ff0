//! Reusable buffer pool backing the cube-list algebra.
//!
//! The exact set operations in [`crate::CubeList`] are built on one
//! primitive — the TCAM "sharp" split, which rewrites a cube list into a
//! fresh buffer. Redundancy removal ([`crate::redundancy`]) runs it for
//! every rule pair it subtracts, and a fresh `Vec` per call would make
//! the allocator the cost. [`CubeArena`] pools the scratch buffers: a buffer
//! is taken from the pool, used for one operation, cleared, and returned
//! with its capacity intact, so after the first few operations of a run
//! the pool serves every buffer.
//!
//! Nothing on the placement or controller path calls the cube algebra:
//! redundancy removal is reached from `flowplace audit` and from library
//! callers, so the `acl.arena.*` gauges read 0 on the system benchmark's
//! workloads.
//!
//! There is one arena per thread, behind every `CubeList` operation
//! (see [`crate::CubeList::subtract`]); callers never hold one. Its
//! counters are read with [`crate::thread_arena_stats`], and a
//! computation is accounted by the difference around it.

use crate::Ternary;

/// Counters describing how well the cube arena is amortising allocations.
///
/// Surfaced as observability gauges (`arena_*`); see DESIGN.md §16.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ArenaStats {
    /// Fresh buffers created because the pool was empty. In steady state
    /// this stops growing: the pool high-water mark has been reached.
    pub allocations: u64,
    /// Buffers served from the pool instead of the allocator.
    pub reuse_hits: u64,
    /// High-water mark, in bytes, of backing storage retained by the
    /// pool (measured at buffer return, when capacity is known).
    pub peak_bytes: u64,
}

impl ArenaStats {
    /// Fraction of buffer requests served from the pool, in `[0, 1]`.
    pub fn reuse_ratio(&self) -> f64 {
        let total = self.allocations + self.reuse_hits;
        if total == 0 {
            0.0
        } else {
            self.reuse_hits as f64 / total as f64
        }
    }
}

/// A pool of `Vec<Ternary>` scratch buffers with reuse accounting.
///
/// Buffers are handed out empty ([`take`](Self::take)) and returned
/// cleared but with capacity intact ([`put`](Self::put)), so repeated
/// cube algebra reuses the same backing storage.
#[derive(Debug, Default)]
pub(crate) struct CubeArena {
    pool: Vec<Vec<Ternary>>,
    pooled_bytes: u64,
    stats: ArenaStats,
}

impl CubeArena {
    /// An empty arena.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Counters accumulated since construction.
    pub(crate) fn stats(&self) -> ArenaStats {
        self.stats
    }

    /// Takes an empty scratch buffer, reusing pooled capacity when
    /// available.
    pub(crate) fn take(&mut self) -> Vec<Ternary> {
        match self.pool.pop() {
            Some(buf) => {
                debug_assert!(buf.is_empty());
                self.pooled_bytes = self.pooled_bytes.saturating_sub(capacity_bytes(&buf));
                self.stats.reuse_hits += 1;
                buf
            }
            None => {
                self.stats.allocations += 1;
                Vec::new()
            }
        }
    }

    /// Returns a buffer to the pool. The contents are discarded; the
    /// capacity is kept for the next [`take`](Self::take).
    pub(crate) fn put(&mut self, mut buf: Vec<Ternary>) {
        buf.clear();
        self.pooled_bytes += capacity_bytes(&buf);
        self.stats.peak_bytes = self.stats.peak_bytes.max(self.pooled_bytes);
        self.pool.push(buf);
    }
}

fn capacity_bytes(buf: &Vec<Ternary>) -> u64 {
    (buf.capacity() * std::mem::size_of::<Ternary>()) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_from_empty_pool_counts_allocation() {
        let mut arena = CubeArena::new();
        let buf = arena.take();
        assert!(buf.is_empty());
        assert_eq!(arena.stats().allocations, 1);
        assert_eq!(arena.stats().reuse_hits, 0);
        arena.put(buf);
    }

    #[test]
    fn take_after_put_reuses_capacity() {
        let mut arena = CubeArena::new();
        let mut buf = arena.take();
        buf.reserve(64);
        let cap = buf.capacity();
        arena.put(buf);
        let buf = arena.take();
        assert!(buf.capacity() >= cap, "pooled capacity was dropped");
        assert!(buf.is_empty(), "pooled buffer not cleared");
        assert_eq!(arena.stats().allocations, 1);
        assert_eq!(arena.stats().reuse_hits, 1);
    }

    #[test]
    fn peak_bytes_tracks_pool_high_water_mark() {
        let mut arena = CubeArena::new();
        let mut a = arena.take();
        let mut b = arena.take();
        a.reserve_exact(10);
        b.reserve_exact(20);
        let elem = std::mem::size_of::<Ternary>() as u64;
        arena.put(a);
        arena.put(b);
        let expected = 30 * elem;
        assert!(
            arena.stats().peak_bytes >= expected,
            "peak {} < expected {}",
            arena.stats().peak_bytes,
            expected
        );
        // Taking both back out does not lower the recorded peak.
        let peak = arena.stats().peak_bytes;
        let _a = arena.take();
        let _b = arena.take();
        assert_eq!(arena.stats().peak_bytes, peak);
    }

    #[test]
    fn reuse_ratio_bounds() {
        let mut arena = CubeArena::new();
        assert_eq!(arena.stats().reuse_ratio(), 0.0);
        let buf = arena.take();
        arena.put(buf);
        let buf = arena.take();
        arena.put(buf);
        let ratio = arena.stats().reuse_ratio();
        assert!((0.0..=1.0).contains(&ratio));
        assert!((ratio - 0.5).abs() < 1e-12);
    }
}
