//! First-match classification of one packet against a fixed
//! priority-ordered rule list.
//!
//! The scalar matching path — [`Ternary::matches`] in a priority-ordered
//! scan — is exact but probes every cube for every packet. The
//! controller's TCAM cache asks the same rule list (one switch's entries
//! for one ingress tag) about packet after packet, so [`BatchClassifier`]
//! lays the list out once and answers
//! [`first_match`](BatchClassifier::first_match) from one of two layouts:
//!
//! * A structure-of-arrays scan: the `care`/`value` masks sit in separate
//!   contiguous vectors, so the loop streams two `u128` arrays instead of
//!   chasing struct fields.
//! * Rule lists whose cubes cluster on few distinct care masks — the
//!   shape ClassBench-style prefix rules produce — take a grouped
//!   *tuple-space* layout: cubes sharing a `(width, care)` mask collapse
//!   into one sorted value table, so a packet is classified with one
//!   masked binary search per distinct mask instead of one probe per
//!   cube, with an early exit once no remaining group can beat the best
//!   match found so far.
//! * The grouped layout carries a byte-index prefilter: per packet-byte
//!   elimination tables AND away every group with no entry agreeing on
//!   that byte, so a typical packet probes only the one or two groups
//!   that could actually match it (and a total miss probes none).
//!
//! Semantics are identical to the scalar scan with one deliberate
//! widening: a cube whose width differs from the packet's width simply
//! does not match (the scalar [`Ternary::matches`] `debug_assert`s equal
//! widths instead). This lets the cache, whose tables may mix widths,
//! use it without checking widths itself.

use flowplace_fasthash::WordHashMap;

use crate::{Packet, Ternary};

/// Per-group hot probe data, 32 bytes so the scan over all groups
/// streams one small contiguous array.
#[derive(Clone, Copy, Debug)]
struct GroupKey {
    care: u128,
    /// One bit per entry's folded masked value: a packet whose folded
    /// key misses the signature cannot match any entry, so the binary
    /// search is skipped — the common case for a total-miss packet,
    /// which otherwise pays a search in every group.
    sig: u64,
    /// Lowest cube index anywhere in the group — the best verdict this
    /// group can possibly produce, used for the cross-group early exit.
    min_index: u32,
    width: u32,
}

/// The tuple-space layout: cubes sharing a `(width, care)` mask collapse
/// into one value table mapping each distinct masked value to the
/// highest-priority (lowest) cube index carrying it. Groups are stored
/// in ascending `min_index` order; `spans[i]` is the `(offset, len)` of
/// group `i`'s sorted slice of `entries`.
///
/// Capped at 64 groups so one `u64` names a set of groups, which powers
/// the byte-index prefilter: for every packet-byte position `j` and byte
/// value `v`, `elim[j * 256 + v]` holds the groups that *cannot* match
/// any packet whose byte `j` equals `v` — a group lands there unless
/// `v` masked by the group's care byte equals some entry's byte at that
/// position. A packet ANDs away eliminated groups with one table load
/// per byte (branchless), and only the few surviving groups are
/// actually probed. This is exact per byte: a singleton group — the
/// bulk of a ClassBench-style mask distribution — survives only if the
/// packet matches it byte-for-byte on every indexed cared bit, so a
/// total-miss packet usually zeroes the candidate set in one or two
/// loads.
#[derive(Clone, Debug)]
struct TupleLayout {
    keys: Vec<GroupKey>,
    spans: Vec<(u32, u32)>,
    /// `(value & care, cube index)` per group, sorted by masked value.
    entries: Vec<(u128, u32)>,
    /// Byte-index elimination tables, `nbytes * 256` long: groups ruled
    /// out when packet byte `j` has value `v` sit in `elim[j * 256 + v]`.
    elim: Vec<u64>,
    /// Number of indexed byte positions: the widest group width in
    /// bytes, capped at 8 (bits past 64 simply go unindexed — sound,
    /// just unpruned).
    nbytes: u32,
    /// Bitmask naming every group.
    all_mask: u64,
}

/// One `u64` must name every group — layouts with more distinct masks
/// fall back to the linear scan.
const TUPLE_MAX_GROUPS: usize = 64;

/// Folds a masked value to one of 64 signature bits. Any mixer works as
/// long as it is deterministic and equal inputs fold equally (false
/// positives only cost a confirming search); one golden-ratio multiply
/// over the xor-folded halves spreads the top bits well enough.
fn sig_bit(v: u128) -> u64 {
    let h = ((v >> 64) as u64 ^ v as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    1u64 << (h >> 58)
}

/// Grouped layouts only pay off when masks are actually shared: below
/// this cube count, or when most masks are distinct, the linear scan's
/// two-array stream wins.
const TUPLE_MIN_CUBES: usize = 16;

fn build_tuple_layout(cubes: &[Ternary]) -> Option<TupleLayout> {
    if cubes.len() < TUPLE_MIN_CUBES {
        return None;
    }
    // Probe-only map (never iterated): group id per (width, care) mask.
    let mut by_mask: WordHashMap<(u32, u128), usize> = WordHashMap::default();
    let mut keys: Vec<GroupKey> = Vec::new();
    let mut tables: Vec<Vec<(u128, u32)>> = Vec::new();
    for (i, c) in cubes.iter().enumerate() {
        let gi = *by_mask.entry((c.width(), c.care())).or_insert_with(|| {
            keys.push(GroupKey {
                care: c.care(),
                sig: 0,
                min_index: i as u32,
                width: c.width(),
            });
            tables.push(Vec::new());
            keys.len() - 1
        });
        let masked = c.value() & c.care();
        // Cubes arrive in priority order, so the first index per masked
        // value is the winning one; shadowed duplicates are dropped.
        if !tables[gi].iter().any(|(v, _)| *v == masked) {
            tables[gi].push((masked, i as u32));
            keys[gi].sig |= sig_bit(masked);
        }
    }
    if keys.len() * 2 > cubes.len() || keys.len() > TUPLE_MAX_GROUPS {
        return None; // masks mostly distinct (or too many for the u64
                     // group-set prefilter): grouping buys nothing
    }
    // Groups in ascending best-possible-verdict order enables the early
    // exit in `tuple_first_match`.
    let mut order: Vec<usize> = (0..keys.len()).collect();
    order.sort_unstable_by_key(|&gi| keys[gi].min_index);
    let nbytes = keys
        .iter()
        .map(|k| k.width.min(64).div_ceil(8))
        .max()
        .unwrap_or(0);
    let n_groups = keys.len();
    let mut layout = TupleLayout {
        keys: Vec::with_capacity(n_groups),
        spans: Vec::with_capacity(n_groups),
        entries: Vec::new(),
        elim: vec![0; nbytes as usize * 256],
        nbytes,
        all_mask: if n_groups == 64 {
            u64::MAX
        } else {
            (1u64 << n_groups) - 1
        },
    };
    for gi in order {
        let mut table = std::mem::take(&mut tables[gi]);
        table.sort_unstable();
        let g = layout.keys.len();
        for j in 0..nbytes as usize {
            let care_b = (keys[gi].care >> (8 * j)) as usize & 0xff;
            // 256-bit set of entry bytes at position j (entries are
            // already masked, so these are the only bytes that can
            // equal a packet's cared byte).
            let mut allowed = [0u64; 4];
            for (v, _) in &table {
                let b = (*v >> (8 * j)) as usize & 0xff;
                allowed[b >> 6] |= 1u64 << (b & 63);
            }
            for v in 0..256 {
                let m = v & care_b;
                if allowed[m >> 6] >> (m & 63) & 1 == 0 {
                    layout.elim[j * 256 + v] |= 1u64 << g;
                }
            }
        }
        layout.keys.push(keys[gi]);
        layout
            .spans
            .push((layout.entries.len() as u32, table.len() as u32));
        layout.entries.extend(table);
    }
    Some(layout)
}

fn tuple_first_match(layout: &TupleLayout, packet: &Packet) -> Option<usize> {
    let bits = packet.bits();
    let w = packet.width();
    // Branchless byte-index pass: one elimination-table load per packet
    // byte ANDs away every group that has no entry agreeing with that
    // byte. A group of width > w is typically eliminated too (its cared
    // bits past w read the packet's zero bits); width < w groups can
    // survive the pass and are rejected by the width check below.
    let mut cand = layout.all_mask;
    for j in 0..layout.nbytes as usize {
        let b = (bits >> (8 * j)) as usize & 0xff;
        cand &= !layout.elim[(j << 8) | b];
    }
    if cand == 0 {
        return None;
    }
    // Surviving candidates ascend by group index = ascending `min_index`
    // (build order), so the first-match early exit still applies.
    let mut best = u32::MAX;
    while cand != 0 {
        let gi = cand.trailing_zeros() as usize;
        cand &= cand - 1;
        let g = &layout.keys[gi];
        if g.min_index >= best {
            break; // no later group can hold a higher-priority cube
        }
        if g.width != w {
            continue;
        }
        let key = bits & g.care;
        if g.sig & sig_bit(key) == 0 {
            continue;
        }
        let (off, len) = layout.spans[gi];
        let table = &layout.entries[off as usize..(off + len) as usize];
        if let Ok(pos) = table.binary_search_by(|e| e.0.cmp(&key)) {
            best = best.min(table[pos].1);
        }
    }
    if best == u32::MAX {
        None
    } else {
        Some(best as usize)
    }
}

/// A priority-ordered rule list laid out for repeated first-match
/// lookups. The name dates from when it also classified whole batches;
/// the system benchmark's shadow matcher (`benchmark/src/shadow.rs`)
/// still names it.
///
/// Index `i` of the constructor's cube slice becomes verdict `Some(i)`;
/// lower indices win, mirroring first-match semantics everywhere else in
/// the crate.
///
/// # Example
///
/// ```
/// use flowplace_acl::{classify::BatchClassifier, Packet, Ternary};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let classifier = BatchClassifier::new(&[
///     Ternary::parse("10**")?,
///     Ternary::parse("1***")?,
/// ]);
/// // The first cube wins; a packet it misses falls to the second.
/// assert_eq!(classifier.first_match(&Packet::from_bits(0b1011, 4)), Some(0));
/// assert_eq!(classifier.first_match(&Packet::from_bits(0b1111, 4)), Some(1));
/// // Matches nothing.
/// assert_eq!(classifier.first_match(&Packet::from_bits(0b0000, 4)), None);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct BatchClassifier {
    care: Vec<u128>,
    value: Vec<u128>,
    widths: Vec<u32>,
    /// Tuple-space layout, present when the cube list clusters on few
    /// distinct care masks (see [`build_tuple_layout`]).
    tuple: Option<TupleLayout>,
}

impl BatchClassifier {
    /// Builds a classifier over `cubes` in priority order (index 0 is the
    /// highest priority).
    pub fn new(cubes: &[Ternary]) -> Self {
        BatchClassifier {
            care: cubes.iter().map(Ternary::care).collect(),
            value: cubes.iter().map(Ternary::value).collect(),
            widths: cubes.iter().map(Ternary::width).collect(),
            tuple: build_tuple_layout(cubes),
        }
    }

    /// True when the cube list clustered on few enough distinct care
    /// masks that the tuple-space layout is active (exposed so tests can
    /// pin that both code paths are exercised).
    pub fn is_grouped(&self) -> bool {
        self.tuple.is_some()
    }

    /// Index of the highest-priority cube matching `packet`, or `None` on
    /// a total miss: one masked binary search per distinct care mask in
    /// the grouped layout, a structure-of-arrays scan otherwise.
    pub fn first_match(&self, packet: &Packet) -> Option<usize> {
        if let Some(layout) = &self.tuple {
            return tuple_first_match(layout, packet);
        }
        let bits = packet.bits();
        let w = packet.width();
        (0..self.care.len())
            .find(|&i| self.widths[i] == w && (bits ^ self.value[i]) & self.care[i] == 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: &str) -> Ternary {
        Ternary::parse(s).unwrap()
    }

    /// The scalar oracle: priority scan with `Ternary::matches`.
    fn scalar(packets: &[Packet], cubes: &[Ternary]) -> Vec<Option<usize>> {
        packets
            .iter()
            .map(|p| cubes.iter().position(|c| c.matches(p)))
            .collect()
    }

    /// [`BatchClassifier::first_match`] of each packet.
    fn first_matches(classifier: &BatchClassifier, packets: &[Packet]) -> Vec<Option<usize>> {
        packets.iter().map(|p| classifier.first_match(p)).collect()
    }

    #[test]
    fn empty_cube_list_misses() {
        let p = Packet::from_bits(0b10, 2);
        assert_eq!(BatchClassifier::new(&[]).first_match(&p), None);
        assert!(!BatchClassifier::new(&[]).is_grouped());
    }

    #[test]
    fn doc_example_priority_order() {
        let cubes = [t("10**"), t("1***")];
        let packets = [
            Packet::from_bits(0b1011, 4),
            Packet::from_bits(0b1111, 4),
            Packet::from_bits(0b0000, 4),
        ];
        assert_eq!(
            first_matches(&BatchClassifier::new(&cubes), &packets),
            vec![Some(0), Some(1), None]
        );
    }

    #[test]
    fn all_wildcard_cube_matches_everything_first() {
        let cubes = [t("****"), t("1***")];
        let packets: Vec<Packet> = (0..16).map(|b| Packet::from_bits(b, 4)).collect();
        let got = first_matches(&BatchClassifier::new(&cubes), &packets);
        assert!(got.iter().all(|v| *v == Some(0)));
    }

    #[test]
    fn width_mismatch_is_a_miss() {
        let cubes = [t("1*")];
        let packets = [Packet::from_bits(0b101, 3), Packet::from_bits(0b10, 2)];
        assert_eq!(
            first_matches(&BatchClassifier::new(&cubes), &packets),
            vec![None, Some(0)]
        );
    }

    #[test]
    fn exhaustive_width8_equivalence_with_scalar() {
        // Every 8-bit packet against a structured cube list: the
        // classifier must agree with the scalar priority scan everywhere.
        let cubes = [
            t("1010****"),
            t("10******"),
            t("*****111"),
            t("0*0*0*0*"),
            t("********"),
        ];
        let packets: Vec<Packet> = (0..256).map(|b| Packet::from_bits(b, 8)).collect();
        assert_eq!(
            first_matches(&BatchClassifier::new(&cubes), &packets),
            scalar(&packets, &cubes)
        );
    }

    #[test]
    fn exhaustive_width8_no_default_cube() {
        // Without a trailing all-wildcard cube some packets miss; the
        // classifier must report None exactly where the scalar scan does.
        let cubes = [t("11******"), t("**00****"), t("*******1")];
        let packets: Vec<Packet> = (0..256).map(|b| Packet::from_bits(b, 8)).collect();
        let got = first_matches(&BatchClassifier::new(&cubes), &packets);
        assert_eq!(got, scalar(&packets, &cubes));
        assert!(got.iter().any(|v| v.is_none()));
    }

    /// 32 prefix-style cubes over 4 distinct masks: enough sharing to
    /// activate the tuple-space layout, which must agree with the scalar
    /// scan on every 8-bit packet — including shadowed duplicates (same
    /// mask and value at a lower priority must never win).
    #[test]
    fn grouped_layout_exhaustive_width8_equivalence() {
        let mut cubes = Vec::new();
        for b in 0..8u128 {
            cubes.push(Ternary::new(8, 0b1110_0000, b << 5)); // /3 prefixes
            cubes.push(Ternary::new(8, 0b1111_1100, b << 2)); // /6 prefixes
        }
        for b in 0..4u128 {
            cubes.push(Ternary::new(8, 0b1100_0000, b << 6)); // /2 prefixes
        }
        cubes.push(Ternary::new(8, 0, 0)); // all-wildcard
        cubes.push(Ternary::new(8, 0b1110_0000, 0)); // shadows cube 0
        cubes.extend((0..2).map(|b| Ternary::new(8, 0b1100_0000, b << 6))); // shadowed /2s
        let classifier = BatchClassifier::new(&cubes);
        assert!(
            classifier.is_grouped(),
            "shared prefix masks must activate the tuple-space layout"
        );
        let packets: Vec<Packet> = (0..256).map(|b| Packet::from_bits(b, 8)).collect();
        assert_eq!(
            first_matches(&classifier, &packets),
            scalar(&packets, &cubes)
        );
    }

    #[test]
    fn grouped_layout_width_mismatch_is_a_miss() {
        let cubes: Vec<Ternary> = (0..16)
            .map(|b| Ternary::new(8, 0b1111_0000, b << 4))
            .collect();
        let classifier = BatchClassifier::new(&cubes);
        assert!(classifier.is_grouped());
        let packets = [Packet::from_bits(0b101, 3), Packet::from_bits(0, 8)];
        assert_eq!(first_matches(&classifier, &packets), vec![None, Some(0)]);
    }

    #[test]
    fn distinct_masks_keep_the_linear_layout() {
        // 16+ cubes but every mask unique: grouping would degenerate to
        // one entry per group, so the classifier must stay linear.
        let cubes: Vec<Ternary> = (0..20)
            .map(|i| Ternary::new(32, 1u128 << i, 1u128 << i))
            .collect();
        assert!(!BatchClassifier::new(&cubes).is_grouped());
        assert!(!BatchClassifier::new(&cubes[..4]).is_grouped());
    }

    /// The seeded property test below draws fully random masks, which
    /// almost never share — so it exercises the linear path. This twin
    /// draws masks from a small prefix pool, exercising the grouped path
    /// across the same seeds.
    #[test]
    fn seeded_property_equivalence_grouped_32_seeds() {
        let mut state: u64 = 0x243f_6a88_85a3_08d3;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for seed in 0..32u64 {
            let width = 8 + ((next() ^ seed) % 5) as u32; // 8..=12
            let mask_pool: Vec<u128> = (0..3)
                .map(|_| {
                    let len = next() % (width as u64 + 1);
                    if len == 0 {
                        0
                    } else {
                        let ones = (1u128 << len) - 1;
                        ones << (width as u64 - len)
                    }
                })
                .collect();
            let n_cubes = TUPLE_MIN_CUBES + (next() % 17) as usize;
            let full = if width == 128 {
                u128::MAX
            } else {
                (1u128 << width) - 1
            };
            let cubes: Vec<Ternary> = (0..n_cubes)
                .map(|_| {
                    let care = mask_pool[(next() as usize) % mask_pool.len()];
                    Ternary::new(width, care, (next() as u128) & full)
                })
                .collect();
            let packets: Vec<Packet> = (0..(next() % 33))
                .map(|_| Packet::from_bits((next() as u128) & full, width))
                .collect();
            let classifier = BatchClassifier::new(&cubes);
            assert!(
                classifier.is_grouped(),
                "seed {seed}: pooled masks must activate grouping"
            );
            assert_eq!(
                first_matches(&classifier, &packets),
                scalar(&packets, &cubes),
                "seed {seed} diverged (width {width}, {} cubes, {} packets)",
                cubes.len(),
                packets.len()
            );
        }
    }

    #[test]
    fn seeded_property_equivalence_32_seeds() {
        // Deterministic xorshift-style generator: random cube lists and
        // packets across 32 seeds, compared against the scalar oracle.
        // Covers empty cube lists, all-wildcard cubes, and priority
        // shadowing (duplicated/overlapping cubes).
        let mut state: u64 = 0x9e37_79b9_7f4a_7c15;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for seed in 0..32u64 {
            let width = 1 + ((next() ^ seed) % 12) as u32;
            let n_cubes = (next() % 9) as usize; // may be 0
            let mut cubes = Vec::with_capacity(n_cubes);
            for _ in 0..n_cubes {
                let mask = if width == 128 {
                    u128::MAX
                } else {
                    (1u128 << width) - 1
                };
                let care = if next() % 5 == 0 {
                    0 // all-wildcard cube
                } else {
                    (next() as u128) & mask
                };
                let value = (next() as u128) & mask;
                cubes.push(Ternary::new(width, care, value));
            }
            // Priority shadowing: sometimes duplicate an earlier cube at
            // a lower priority — it must never win a verdict.
            if !cubes.is_empty() && next() % 2 == 0 {
                let dup = cubes[(next() as usize) % cubes.len()];
                cubes.push(dup);
            }
            let n_packets = (next() % 33) as usize; // may be 0
            let mask = if width == 128 {
                u128::MAX
            } else {
                (1u128 << width) - 1
            };
            let packets: Vec<Packet> = (0..n_packets)
                .map(|_| Packet::from_bits((next() as u128) & mask, width))
                .collect();
            assert_eq!(
                first_matches(&BatchClassifier::new(&cubes), &packets),
                scalar(&packets, &cubes),
                "seed {seed} diverged (width {width}, {} cubes, {} packets)",
                cubes.len(),
                packets.len()
            );
        }
    }
}
