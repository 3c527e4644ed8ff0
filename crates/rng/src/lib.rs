//! Self-contained deterministic pseudo-random number generation.
//!
//! The workspace must build and test without a reachable crates.io
//! registry, so it cannot depend on the `rand` crate. This crate is the
//! substitute: a seedable xoshiro256++ generator behind a small
//! [`Rng`] trait whose surface mirrors the subset of `rand` the
//! workspace uses (`gen`, `gen_range`, `gen_bool`, `gen_ratio`).
//!
//! Everything here is deterministic in the seed — there is deliberately
//! no entropy source. Experiment sweeps, route generation, policy
//! generation, and verification packet sampling are all reproducible
//! bit-for-bit across runs and platforms.
//!
//! ```
//! use flowplace_rng::{Rng, StdRng};
//!
//! let mut a = StdRng::seed_from_u64(7);
//! let mut b = StdRng::seed_from_u64(7);
//! assert_eq!(a.gen::<u64>(), b.gen::<u64>());
//! let die = a.gen_range(1..=6u32);
//! assert!((1..=6).contains(&die));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

use std::ops::{Range, RangeInclusive};

/// A source of uniformly distributed random bits, with convenience
/// samplers layered on top (mirroring the subset of `rand::Rng` used in
/// this workspace).
pub trait Rng {
    /// The next 64 uniformly random bits.
    fn next_u64(&mut self) -> u64;

    /// The next 128 uniformly random bits.
    fn next_u128(&mut self) -> u128 {
        ((self.next_u64() as u128) << 64) | self.next_u64() as u128
    }

    /// Samples a uniformly distributed value of type `T`.
    fn gen<T: Sample>(&mut self) -> T
    where
        Self: Sized,
    {
        T::sample(self)
    }

    /// Samples uniformly from a half-open (`a..b`) or inclusive
    /// (`a..=b`) integer range.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    fn gen_range<R: SampleRange>(&mut self, range: R) -> R::Output
    where
        Self: Sized,
    {
        range.sample_from(self)
    }

    /// Returns `true` with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]`.
    fn gen_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        assert!((0.0..=1.0).contains(&p), "probability {p} not in [0, 1]");
        // 53 uniform mantissa bits, the exact precision of an f64 in [0,1).
        let unit = (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        unit < p
    }

    /// Returns `true` with probability `numerator / denominator`.
    ///
    /// # Panics
    ///
    /// Panics if `denominator` is zero or `numerator > denominator`.
    fn gen_ratio(&mut self, numerator: u32, denominator: u32) -> bool
    where
        Self: Sized,
    {
        assert!(denominator > 0, "zero denominator");
        assert!(
            numerator <= denominator,
            "ratio {numerator}/{denominator} exceeds 1"
        );
        uniform_u64(self, denominator as u64) < numerator as u64
    }
}

/// Uniform in `0..bound` by rejection sampling (unbiased).
fn uniform_u64<R: Rng + ?Sized>(rng: &mut R, bound: u64) -> u64 {
    debug_assert!(bound > 0);
    if bound.is_power_of_two() {
        return rng.next_u64() & (bound - 1);
    }
    // Reject the top partial block so every residue is equally likely.
    let zone = u64::MAX - (u64::MAX % bound) - 1;
    loop {
        let v = rng.next_u64();
        if v <= zone {
            return v % bound;
        }
    }
}

/// Uniform in `0..bound` over 128 bits by rejection sampling.
fn uniform_u128<R: Rng + ?Sized>(rng: &mut R, bound: u128) -> u128 {
    debug_assert!(bound > 0);
    if bound.is_power_of_two() {
        return rng.next_u128() & (bound - 1);
    }
    let zone = u128::MAX - (u128::MAX % bound) - 1;
    loop {
        let v = rng.next_u128();
        if v <= zone {
            return v % bound;
        }
    }
}

/// Types [`Rng::gen`] can sample uniformly.
pub trait Sample: Sized {
    /// Draws one uniformly distributed value from `rng`.
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self;
}

impl Sample for u64 {
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl Sample for u128 {
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
        rng.next_u128()
    }
}

impl Sample for u32 {
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 32) as u32
    }
}

impl Sample for usize {
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() as usize
    }
}

impl Sample for bool {
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl Sample for f64 {
    /// Uniform in `[0, 1)` with full 53-bit precision.
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Integer ranges [`Rng::gen_range`] can sample uniformly.
pub trait SampleRange {
    /// The element type of the range.
    type Output;
    /// Draws one value uniformly from the range.
    fn sample_from<R: Rng>(self, rng: &mut R) -> Self::Output;
}

macro_rules! impl_sample_range {
    ($($t:ty),*) => {$(
        impl SampleRange for Range<$t> {
            type Output = $t;
            fn sample_from<R: Rng>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "empty range");
                let span = (self.end as u128).wrapping_sub(self.start as u128);
                self.start + uniform_u128(rng, span) as $t
            }
        }
        impl SampleRange for RangeInclusive<$t> {
            type Output = $t;
            fn sample_from<R: Rng>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range");
                let span = (hi as u128) - (lo as u128) + 1;
                if span == 0 {
                    // Full-width inclusive range of a 128-bit type.
                    return rng.next_u128() as $t;
                }
                lo + uniform_u128(rng, span) as $t
            }
        }
    )*};
}

impl_sample_range!(u32, u64, usize, u128);

impl SampleRange for Range<i32> {
    type Output = i32;
    fn sample_from<R: Rng>(self, rng: &mut R) -> i32 {
        assert!(self.start < self.end, "empty range");
        let span = (self.end as i64 - self.start as i64) as u64;
        self.start + uniform_u64(rng, span) as i32
    }
}

impl SampleRange for RangeInclusive<i32> {
    type Output = i32;
    fn sample_from<R: Rng>(self, rng: &mut R) -> i32 {
        let (lo, hi) = (*self.start(), *self.end());
        assert!(lo <= hi, "empty range");
        let span = (hi as i64 - lo as i64 + 1) as u64;
        lo + uniform_u64(rng, span) as i32
    }
}

/// The workspace's standard generator: xoshiro256++, seeded through
/// SplitMix64 (the seeding procedure its authors recommend).
///
/// Fast, 256 bits of state, passes BigCrush; not cryptographic. The name
/// mirrors `rand::rngs::StdRng` so call sites read the same, but the
/// stream is this crate's own and stable across releases.
#[derive(Clone, Debug)]
pub struct StdRng {
    s: [u64; 4],
}

impl StdRng {
    /// Creates a generator from a 64-bit seed. Identical seeds yield
    /// identical streams, on every platform, forever.
    pub fn seed_from_u64(seed: u64) -> StdRng {
        // SplitMix64 expands the seed into the full 256-bit state.
        let mut sm = seed;
        let mut next = || {
            sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        StdRng {
            s: [next(), next(), next(), next()],
        }
    }
}

impl Rng for StdRng {
    fn next_u64(&mut self) -> u64 {
        // xoshiro256++ (Blackman & Vigna, 2019).
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }
}

impl<T: Rng + ?Sized> Rng for &mut T {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_in_seed() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        let mut c = StdRng::seed_from_u64(43);
        let xs: Vec<u64> = (0..32).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..32).map(|_| b.next_u64()).collect();
        let zs: Vec<u64> = (0..32).map(|_| c.next_u64()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
    }

    #[test]
    fn gen_range_stays_in_bounds() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..1000 {
            let v = rng.gen_range(3..17usize);
            assert!((3..17).contains(&v));
            let w = rng.gen_range(5..=5u32);
            assert_eq!(w, 5);
            let x = rng.gen_range(-4..7i32);
            assert!((-4..7).contains(&x));
            let y = rng.gen_range(1..=6u32);
            assert!((1..=6).contains(&y));
        }
    }

    #[test]
    fn gen_range_covers_every_value() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut seen = [false; 6];
        for _ in 0..500 {
            seen[rng.gen_range(0..6usize)] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues reachable: {seen:?}");
    }

    #[test]
    fn gen_bool_extremes() {
        let mut rng = StdRng::seed_from_u64(2);
        assert!((0..100).all(|_| !rng.gen_bool(0.0)));
        assert!((0..100).all(|_| rng.gen_bool(1.0)));
        let heads = (0..2000).filter(|_| rng.gen_bool(0.5)).count();
        assert!((800..1200).contains(&heads), "heads {heads}");
    }

    #[test]
    fn gen_ratio_matches_probability() {
        let mut rng = StdRng::seed_from_u64(3);
        let hits = (0..8000).filter(|_| rng.gen_ratio(1, 8)).count();
        assert!((700..1300).contains(&hits), "hits {hits}");
        assert!((0..100).all(|_| rng.gen_ratio(8, 8)));
        assert!((0..100).all(|_| !rng.gen_ratio(0, 8)));
    }

    #[test]
    fn u128_sampling_uses_both_halves() {
        let mut rng = StdRng::seed_from_u64(4);
        let v: u128 = rng.gen();
        assert_ne!(v >> 64, 0, "high half populated");
        assert_ne!(v & u128::from(u64::MAX), 0, "low half populated");
    }

    #[test]
    fn f64_unit_interval() {
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..1000 {
            let v: f64 = rng.gen();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn rng_trait_object_and_reborrow() {
        fn takes_impl(rng: &mut impl Rng) -> u64 {
            rng.next_u64()
        }
        let mut rng = StdRng::seed_from_u64(6);
        let a = takes_impl(&mut rng);
        let b = takes_impl(&mut rng);
        assert_ne!(a, b);
    }
}
