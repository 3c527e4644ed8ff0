//! Zero-dependency hashing shared across the workspace: one word-at-a-time
//! hasher for every key hashed in process, and byte-wise FNV-1a for the
//! fingerprints something persists or pins.
//!
//! The workspace's default map is `BTreeMap`: iteration order is part of
//! the determinism contract wherever a map's contents reach output
//! (placements, tables, telemetry dumps). But several hot structures are
//! *lookup-only* — they are probed by key and never iterated (or their
//! iteration is explicitly sorted at the use site) — and for those the
//! tree's pointer-chasing and `Ord` comparisons are pure overhead. This
//! crate provides the drop-in alternative: `std::collections::HashMap`
//! with [`WordHasher`] instead of the default SipHash, which is both
//! faster on the short fixed-width keys we use (ids, cubes, packets,
//! literal tuples) and — unlike the std default — *unseeded*, so hash
//! values are stable across processes and runs.
//!
//! Two hashers, each with one job:
//!
//! - [`WordHasher`], with [`WordBuildHasher`] and the [`WordHashMap`] /
//!   [`WordHashSet`] aliases: folds each 64-bit word in with one
//!   64×64→128-bit multiply. It keys the probe-only maps and digests
//!   in-process content keys (the verified-route memo in
//!   `flowplace-core`). Its values are never written anywhere, so they
//!   may change with the constants below.
//! - [`Fnv64`]: byte-wise FNV-1a 64 over a canonical little-endian
//!   serialization, for fingerprints that are persisted or pinned (the
//!   solve-input fingerprints in `flowplace-core::fingerprint` behind the
//!   benchmark's input PINs). Its bytes are frozen; it is checked
//!   against the published test vectors in this crate's tests.
//!
//! # When is an unordered map safe?
//!
//! A `WordHashMap` is safe exactly when no observable output depends on
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

/// [`WordHasher`]'s starting state (the fractional digits of π).
const WORD_SEED: u64 = 0x243f_6a88_85a3_08d3;
/// [`WordHasher`]'s multiplier (wyhash's first prime).
const WORD_MULTIPLIER: u64 = 0xa076_1d64_78bd_642f;

/// The full 128-bit product of `x` and `y`, its halves XORed together:
/// every input bit reaches the low output bits through the high half,
/// and the top bits through both.
#[inline]
fn folded_multiply(x: u64, y: u64) -> u64 {
    let full = u128::from(x) * u128::from(y);
    (full as u64) ^ ((full >> 64) as u64)
}

/// A `std::hash::Hasher` that absorbs one 64-bit word per
/// 64×64→128-bit folded multiply, as foldhash and wyhash do.
///
/// Every integer write mixes whole words (a `u128` is two, low word
/// first); [`write`](Hasher::write) takes 8-byte little-endian chunks
/// plus one final word holding the 0–7 leftover bytes and their count.
/// The constants are fixed, so values repeat from run to run, and high
/// input bits reach the low output bits (hashbrown picks buckets from
/// the low bits and its tag from the top 7). Not DoS resistant — all
/// keys here are internally generated, never attacker-controlled.
#[derive(Clone, Copy, Debug)]
pub struct WordHasher(u64);

impl Default for WordHasher {
    fn default() -> Self {
        WordHasher(WORD_SEED)
    }
}

impl WordHasher {
    #[inline]
    fn mix(&mut self, word: u64) {
        self.0 = folded_multiply(self.0 ^ word, WORD_MULTIPLIER);
    }
}

impl Hasher for WordHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.mix(u64::from_le_bytes(
                chunk.try_into().expect("chunks_exact yields 8 bytes"),
            ));
        }
        let tail = chunks.remainder();
        let mut last = [0u8; 8];
        last[..tail.len()].copy_from_slice(tail);
        // At most 7 bytes fill the low 56 bits: the count sits above them.
        self.mix(u64::from_le_bytes(last) | ((tail.len() as u64) << 56));
    }

    #[inline]
    fn write_u8(&mut self, x: u8) {
        self.mix(u64::from(x));
    }

    #[inline]
    fn write_u16(&mut self, x: u16) {
        self.mix(u64::from(x));
    }

    #[inline]
    fn write_u32(&mut self, x: u32) {
        self.mix(u64::from(x));
    }

    #[inline]
    fn write_u64(&mut self, x: u64) {
        self.mix(x);
    }

    #[inline]
    fn write_u128(&mut self, x: u128) {
        self.mix(x as u64);
        self.mix((x >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, x: usize) {
        self.mix(x as u64);
    }
}

/// `BuildHasher` for [`WordHasher`] — plugs into `HashMap::with_hasher`
/// and the [`WordHashMap`]/[`WordHashSet`] aliases.
pub type WordBuildHasher = BuildHasherDefault<WordHasher>;

/// `HashMap` keyed with [`WordHasher`]. Lookup-only use; see the crate
/// docs for the iteration-order policy.
pub type WordHashMap<K, V> = HashMap<K, V, WordBuildHasher>;

/// `HashSet` hashed with [`WordHasher`]. Membership/dedup use; see the
/// crate docs for the iteration-order policy.
pub type WordHashSet<T> = HashSet<T, WordBuildHasher>;

/// Incremental FNV-1a 64 writer: absorbs bytes, one multiply each.
///
/// This is the persisted-fingerprint builder: callers feed a canonical
/// serialization of their data (integers as little-endian bytes,
/// explicit presence/length markers) and take the 64-bit digest. It is
/// not tied to the `std::hash` traits, so digests are a pure function
/// of the absorbed bytes — stable across processes, replays, and std
/// library versions.
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
    fn incremental_writer_matches_published_vectors() {
        for &(input, digest) in VECTORS {
            let mut h = Fnv64::new();
            h.bytes(input);
            assert_eq!(h.finish(), digest, "input {input:?}");
        }
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

    fn word_hash(write: impl FnOnce(&mut WordHasher)) -> u64 {
        let mut h = WordHasher::default();
        write(&mut h);
        h.finish()
    }

    /// Known answers: a changed constant, word order or tail layout
    /// moves them.
    #[test]
    fn word_hasher_known_answers() {
        let got = [
            word_hash(|_| {}),
            word_hash(|h| h.write_u64(0)),
            word_hash(|h| h.write_u64(1)),
            word_hash(|h| h.write_u128(0x0123_4567_89ab_cdef_fedc_ba98_7654_3210)),
            word_hash(|h| h.write(b"")),
            word_hash(|h| h.write(b"hello world")),
            word_hash(|h| {
                h.write_usize(3);
                h.write_u32(104);
                h.write_u8(1);
            }),
        ];
        assert_eq!(
            got,
            [
                0x243f_6a88_85a3_08d3,
                0xb91a_09c9_734b_14af,
                0x1994_6f35_fc09_b89c,
                0xdf17_763f_50d1_25f1,
                0xb91a_09c9_734b_14af,
                0x01b7_f77e_983f_11fe,
                0xf4ce_3c97_dd66_d5c0,
            ],
            "known answers moved: {got:#018x?}"
        );
    }

    /// Every integer write is one word (two for `u128`, low first), and
    /// a byte write is its 8-byte chunks plus a tagged tail word: the
    /// tail's count tells `"ab"` from `"ab\0"`, and an empty tail still
    /// counts as a word.
    #[test]
    fn word_hasher_mixes_whole_words() {
        let one = |x: u64| word_hash(|h| h.write_u64(x));
        assert_eq!(word_hash(|h| h.write_u8(7)), one(7));
        assert_eq!(word_hash(|h| h.write_u16(7)), one(7));
        assert_eq!(word_hash(|h| h.write_u32(7)), one(7));
        assert_eq!(word_hash(|h| h.write_usize(7)), one(7));
        assert_eq!(
            word_hash(|h| h.write_u128(0x2_0000_0000_0000_0001)),
            word_hash(|h| {
                h.write_u64(1);
                h.write_u64(2);
            })
        );
        assert_eq!(
            word_hash(|h| h.write(&[1, 2, 3, 4, 5, 6, 7, 8, 9])),
            word_hash(|h| {
                h.write_u64(0x0807_0605_0403_0201);
                h.write_u64(9 | (1 << 56));
            })
        );
        assert_eq!(
            word_hash(|h| h.write(&[1, 2, 3, 4, 5, 6, 7, 8])),
            word_hash(|h| {
                h.write_u64(0x0807_0605_0403_0201);
                h.write_u64(0);
            })
        );
        assert_ne!(
            word_hash(|h| h.write(b"ab")),
            word_hash(|h| h.write(b"ab\0"))
        );
    }

    /// How many distinct values `n` uniformly random draws from `m`
    /// take, on average.
    fn random_distinct(n: usize, m: usize) -> f64 {
        m as f64 * (1.0 - (1.0 - 1.0 / m as f64).powi(n as i32))
    }

    /// Asserts that the low 12 bits of `hashes`, and separately the top
    /// 7, take at least 95 % as many distinct values as a random function
    /// of the same number of keys would.
    fn assert_spread(family: &str, hashes: &[u64]) {
        for (part, bits, of) in [("low 12", 12, 0), ("top 7", 7, 57)] {
            let distinct: HashSet<u64> = hashes
                .iter()
                .map(|h| (h >> of) & ((1 << bits) - 1))
                .collect();
            let expected = random_distinct(hashes.len(), 1 << bits);
            assert!(
                distinct.len() as f64 >= 0.95 * expected,
                "{family}: {part} bits take {} values, a random function ~{expected:.0}",
                distinct.len()
            );
        }
    }

    /// The key families the workspace's maps probe with, 4 096 keys
    /// each: `(switch, ingress)` pairs below 64, width-104 packets that
    /// differ only in bits 32–43 of the low word (a field in the middle
    /// of a 5-tuple), and `u128` masks that differ only in the high word.
    #[test]
    fn word_hasher_spreads_the_workspace_key_families() {
        let b = WordBuildHasher::default();
        let pairs: Vec<u64> = (0..64usize)
            .flat_map(|s| (0..64usize).map(move |l| (s, l)))
            .map(|k| b.hash_one(k))
            .collect();
        assert_spread("(switch, ingress)", &pairs);

        let base: u128 = 0x0000_00c0_a801_0a00_0000_501f_9000_0006;
        let packets: Vec<u64> = (0..4096u128)
            .map(|f| b.hash_one((base ^ (f << 32), 104u32)))
            .collect();
        assert_spread("width-104 packets", &packets);

        let masks: Vec<u64> = (0..4096u128)
            .map(|hi| b.hash_one((hi << 64) | 0xffff_ffff))
            .collect();
        assert_spread("high-word masks", &masks);
    }

    #[test]
    fn build_hasher_is_unseeded_and_stable() {
        let b1 = WordBuildHasher::default();
        let b2 = WordBuildHasher::default();
        let h1 = b1.hash_one(0xdead_beef_u64);
        let h2 = b2.hash_one(0xdead_beef_u64);
        assert_eq!(h1, h2, "two builders must agree (no random seed)");
    }

    #[test]
    fn map_and_set_aliases_work() {
        let mut map: WordHashMap<(usize, usize), u32> = WordHashMap::default();
        map.insert((1, 2), 3);
        map.insert((4, 5), 6);
        assert_eq!(map.get(&(1, 2)), Some(&3));
        assert_eq!(map.len(), 2);

        let mut set: WordHashSet<Vec<i32>> = WordHashSet::default();
        assert!(set.insert(vec![1, -2, 3]));
        assert!(!set.insert(vec![1, -2, 3]));
        assert!(set.contains(&vec![1, -2, 3]));
    }

    #[test]
    fn derived_hash_is_stable() {
        // A struct's derived Hash feeds the same core: hashing the same
        // value twice through the alias map's builder is stable.
        #[derive(Hash)]
        struct Key {
            a: u64,
            b: bool,
        }
        let b = WordBuildHasher::default();
        let k = Key { a: 7, b: true };
        assert_eq!(b.hash_one(&k), b.hash_one(&Key { a: 7, b: true }));
    }
}
