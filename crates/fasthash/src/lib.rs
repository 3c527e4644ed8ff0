//! Zero-dependency FNV-1a hashing shared across the workspace.
//!
//! The workspace's default map is `BTreeMap`: iteration order is part of
//! the determinism contract wherever a map's contents reach output
//! (placements, tables, telemetry dumps). But several hot structures are
//! *lookup-only* — they are probed by key and never iterated (or their
//! iteration is explicitly sorted at the use site) — and for those the
//! tree's pointer-chasing and `Ord` comparisons are pure overhead. This
//! crate provides the drop-in alternative: `std::collections::HashMap`
//! with FNV-1a instead of the default SipHash, which is both faster on
//! the short fixed-width keys we use (fingerprints, ids, literal tuples)
//! and — unlike the std default — *unseeded*, so hash values are stable
//! across processes and runs.
//!
//! Two layers:
//!
//! - [`FnvHasher`] / [`FnvBuildHasher`] and the [`FnvHashMap`] /
//!   [`FnvHashSet`] aliases: the `std::hash` integration for container
//!   keys.
//! - [`Fnv64`]: the incremental word-wise writer used to build stable
//!   64-bit content fingerprints from canonical little-endian
//!   serializations (the placement-memo keys in `flowplace-core`).
//!
//! Both layers are the same FNV-1a core, verified against the published
//! test vectors in this crate's tests.
//!
//! # When is an unordered map safe?
//!
//! A `FnvHashMap` is safe exactly when no observable output depends on
//! its iteration order: pure key probes, membership/dedup sets, and maps
//! whose (rare) iteration is sorted before use. Anything that feeds
//! solver variable order, table emission, replay output, or telemetry
//! must stay on `BTreeMap` or sort at the iteration point — see
//! DESIGN.md §16 for the policy and the differential suites that
//! enforce it.

#![warn(unreachable_pub)]

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// The FNV-1a 64-bit offset basis.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// The FNV-1a 64-bit prime.
pub const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// A `std::hash::Hasher` computing 64-bit FNV-1a over the written bytes.
///
/// Deterministic (no per-process seed) and allocation-free; best on the
/// short keys this workspace uses (≤ a few dozen bytes). Not DoS
/// resistant — all keys here are internally generated, never
/// attacker-controlled.
#[derive(Clone, Copy, Debug)]
pub struct FnvHasher(u64);

impl Default for FnvHasher {
    fn default() -> Self {
        FnvHasher(FNV_OFFSET)
    }
}

impl Hasher for FnvHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        let mut h = self.0;
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(FNV_PRIME);
        }
        self.0 = h;
    }
}

/// `BuildHasher` for [`FnvHasher`] — plugs into `HashMap::with_hasher`
/// and the [`FnvHashMap`]/[`FnvHashSet`] aliases.
pub type FnvBuildHasher = BuildHasherDefault<FnvHasher>;

/// `HashMap` keyed with FNV-1a. Lookup-only use; see the crate docs for
/// the iteration-order policy.
pub type FnvHashMap<K, V> = HashMap<K, V, FnvBuildHasher>;

/// `HashSet` hashed with FNV-1a. Membership/dedup use; see the crate
/// docs for the iteration-order policy.
pub type FnvHashSet<T> = HashSet<T, FnvBuildHasher>;

/// Incremental FNV-1a writer over canonical little-endian words.
///
/// This is the fingerprint builder: callers feed a canonical
/// serialization of their data (fixed word sizes, explicit
/// presence/length markers) and take the 64-bit digest. Unlike
/// [`FnvHasher`] it is not tied to the `std::hash` traits, so digests
/// are a pure function of the written words — stable across processes,
/// replays, and std library versions.
#[derive(Clone, Copy, Debug)]
pub struct Fnv64(u64);

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64::new()
    }
}

impl Fnv64 {
    /// A fresh hasher at the FNV offset basis.
    pub fn new() -> Self {
        Fnv64(FNV_OFFSET)
    }

    /// Absorbs one byte.
    pub fn byte(&mut self, b: u8) {
        self.0 ^= b as u64;
        self.0 = self.0.wrapping_mul(FNV_PRIME);
    }

    /// Absorbs a byte slice.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.byte(b);
        }
    }

    /// Absorbs a `u64` as 8 little-endian bytes.
    pub fn u64(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }

    /// Absorbs a `u128` as 16 little-endian bytes (low word first).
    pub fn u128(&mut self, x: u128) {
        self.u64(x as u64);
        self.u64((x >> 64) as u64);
    }

    /// Absorbs a `usize` widened to `u64` (platform-independent digest).
    pub fn usize(&mut self, x: usize) {
        self.u64(x as u64);
    }

    /// Absorbs an `f64` by its IEEE-754 bit pattern.
    pub fn f64(&mut self, x: f64) {
        self.u64(x.to_bits());
    }

    /// Absorbs a `bool` as one byte.
    pub fn bool(&mut self, x: bool) {
        self.byte(x as u8);
    }

    /// The 64-bit digest of everything absorbed so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    /// Published FNV-1a 64-bit test vectors (Fowler/Noll/Vo reference
    /// implementation, draft-eastlake-fnv).
    const VECTORS: &[(&[u8], u64)] = &[
        (b"", 0xcbf2_9ce4_8422_2325),
        (b"a", 0xaf63_dc4c_8601_ec8c),
        (b"b", 0xaf63_df4c_8601_f1a5),
        (b"c", 0xaf63_de4c_8601_eff2),
        (b"foobar", 0x85944171f73967e8),
        (b"hello world", 0x779a65e7023cd2e7),
        (b"chongo was here!\n", 0x46810940eff5f915),
    ];

    #[test]
    fn hasher_matches_published_vectors() {
        for &(input, digest) in VECTORS {
            let mut h = FnvHasher::default();
            h.write(input);
            assert_eq!(h.finish(), digest, "input {input:?}");
        }
    }

    #[test]
    fn incremental_writer_matches_published_vectors() {
        for &(input, digest) in VECTORS {
            let mut h = Fnv64::new();
            h.bytes(input);
            assert_eq!(h.finish(), digest, "input {input:?}");
        }
    }

    #[test]
    fn byte_at_a_time_equals_one_shot() {
        let mut one = FnvHasher::default();
        one.write(b"split anywhere");
        let mut split = FnvHasher::default();
        split.write(b"split");
        split.write(b" any");
        split.write(b"where");
        assert_eq!(one.finish(), split.finish());
    }

    #[test]
    fn word_writers_use_little_endian() {
        let mut words = Fnv64::new();
        words.u64(0x0807_0605_0403_0201);
        let mut bytes = Fnv64::new();
        bytes.bytes(&[1, 2, 3, 4, 5, 6, 7, 8]);
        assert_eq!(words.finish(), bytes.finish());

        let mut wide = Fnv64::new();
        wide.u128(0x1);
        let mut low_then_high = Fnv64::new();
        low_then_high.u64(1);
        low_then_high.u64(0);
        assert_eq!(wide.finish(), low_then_high.finish());
    }

    #[test]
    fn build_hasher_is_unseeded_and_stable() {
        let b1 = FnvBuildHasher::default();
        let b2 = FnvBuildHasher::default();
        let h1 = b1.hash_one(0xdead_beef_u64);
        let h2 = b2.hash_one(0xdead_beef_u64);
        assert_eq!(h1, h2, "two builders must agree (no random seed)");
    }

    #[test]
    fn map_and_set_aliases_work() {
        let mut map: FnvHashMap<(usize, usize), u32> = FnvHashMap::default();
        map.insert((1, 2), 3);
        map.insert((4, 5), 6);
        assert_eq!(map.get(&(1, 2)), Some(&3));
        assert_eq!(map.len(), 2);

        let mut set: FnvHashSet<Vec<i32>> = FnvHashSet::default();
        assert!(set.insert(vec![1, -2, 3]));
        assert!(!set.insert(vec![1, -2, 3]));
        assert!(set.contains(&vec![1, -2, 3]));
    }

    #[test]
    fn derived_hash_routes_through_fnv() {
        // A struct's derived Hash must feed the same core: hashing the
        // same value twice through the alias map's builder is stable.
        #[derive(Hash)]
        struct Key {
            a: u64,
            b: bool,
        }
        let b = FnvBuildHasher::default();
        let k = Key { a: 7, b: true };
        assert_eq!(b.hash_one(&k), b.hash_one(&Key { a: 7, b: true }));
    }
}
