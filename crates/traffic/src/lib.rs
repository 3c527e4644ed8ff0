//! # flowplace-traffic — deterministic flow-arrival generation
//!
//! The paper treats every placed rule as pinned in TCAM; the caching
//! tier (see `flowplace-ctrl`) instead treats TCAM as a cache over the
//! full rule population, which makes the *traffic* hitting the cache the
//! experiment's independent variable. This crate generates that traffic:
//! a seeded, fully deterministic stream of [`FlowEvent`]s with
//!
//! * **Zipf-skewed popularity** over both the ingress space and each
//!   ingress's flow universe (the skew that makes caching work at all),
//! * a configurable **arrival rate** in flow events per simulated
//!   second — integer accumulator arithmetic, so rates from single
//!   digits up to millions of events per second land exactly on the
//!   virtual-millisecond clock the controller runtime already uses,
//! * **flowlets** — a drawn flow emits a short run of back-to-back
//!   packets before the next flow is drawn (temporal locality), and
//! * optional **burst phases** — periodic windows in which the arrival
//!   rate is multiplied, modelling diurnal spikes.
//!
//! Streams serialize to a line-oriented text format
//! ([`format_flows`] / [`parse_flows`], header tag
//! `flowplace.traffic.v1`) so a generated workload can be committed,
//! replayed through `flowplace ctrl replay --traffic`, and byte-compared
//! across runs. Identical [`TrafficConfig`]s always produce identical
//! streams on every platform: the only entropy source is the in-tree
//! xoshiro generator from `flowplace-rng`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

use std::fmt;

use flowplace_acl::Packet;
use flowplace_rng::{Rng, StdRng};
use flowplace_topo::EntryPortId;

/// Domain-separation constant folded into the seed so a traffic stream
/// never shares a raw RNG stream with scenario generation that happens
/// to use the same user-facing seed.
const SEED_SALT: u64 = 0x7AFF1C;

/// One flow arrival: a concrete packet header entering the network at an
/// ingress port at a virtual-clock timestamp.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct FlowEvent {
    /// Arrival time in virtual milliseconds since stream start.
    pub at_ms: u64,
    /// The entry port the flow arrives on.
    pub ingress: EntryPortId,
    /// The packet header (all packets of one flowlet share it).
    pub packet: Packet,
}

/// Periodic burst phases: for `active_ms` out of every `period_ms`, the
/// arrival rate is multiplied by `multiplier`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BurstConfig {
    /// Length of one burst cycle in virtual milliseconds.
    pub period_ms: u64,
    /// Leading portion of each cycle that runs at the boosted rate.
    pub active_ms: u64,
    /// Rate multiplier inside the burst window (1 = no burst).
    pub multiplier: u64,
}

/// Generator parameters. Every field is part of the deterministic
/// fingerprint of the stream: equal configs produce byte-identical
/// streams.
#[derive(Clone, Debug, PartialEq)]
pub struct TrafficConfig {
    /// RNG seed (salted internally; safe to share with scenario seeds).
    pub seed: u64,
    /// Flow events per simulated second (integer accumulator math keeps
    /// sub-millisecond rates exact; millions per second are fine).
    pub rate: u64,
    /// Stream length in virtual milliseconds.
    pub duration_ms: u64,
    /// Zipf exponent for both the ingress draw and the per-ingress flow
    /// draw. 0 = uniform; ~1 = classic Zipf; larger = more skew.
    pub zipf: f64,
    /// Number of ingress entry ports (`l0..l{n-1}`) flows arrive on.
    pub ingresses: usize,
    /// Packet header width in bits (must match the deployed policies).
    pub width: u32,
    /// Distinct flow headers per ingress (the cacheable universe).
    pub flows_per_ingress: usize,
    /// Mean packets per flowlet; each drawn flow emits a uniform
    /// `1..=2*flowlet_len-1` packet run (mean `flowlet_len`).
    pub flowlet_len: u64,
    /// Optional periodic burst phases.
    pub burst: Option<BurstConfig>,
}

impl Default for TrafficConfig {
    fn default() -> Self {
        TrafficConfig {
            seed: 7,
            rate: 1000,
            duration_ms: 1000,
            zipf: 1.1,
            ingresses: 4,
            width: 16,
            flows_per_ingress: 64,
            flowlet_len: 4,
            burst: None,
        }
    }
}

/// Zipf(s) sampler over ranks `0..n` via a precomputed CDF and binary
/// search. Rank 0 is the most popular.
#[derive(Clone, Debug)]
pub struct ZipfSampler {
    cdf: Vec<f64>,
}

impl ZipfSampler {
    /// Builds the sampler for `n` ranks with exponent `s`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or `s` is negative or non-finite.
    pub fn new(n: usize, s: f64) -> ZipfSampler {
        assert!(n > 0, "zipf sampler needs at least one rank");
        assert!(s >= 0.0 && s.is_finite(), "zipf exponent {s} invalid");
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0f64;
        for k in 1..=n {
            total += 1.0 / (k as f64).powf(s);
            cdf.push(total);
        }
        for c in &mut cdf {
            *c /= total;
        }
        ZipfSampler { cdf }
    }

    /// Number of ranks.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// True for the degenerate single-rank sampler. Never empty.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Draws one rank in `0..len()` (0 = most popular).
    pub fn sample<R: Rng>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.gen();
        // First rank whose CDF value exceeds u.
        match self
            .cdf
            .binary_search_by(|c| c.partial_cmp(&u).expect("cdf is finite"))
        {
            Ok(i) => (i + 1).min(self.cdf.len() - 1),
            Err(i) => i.min(self.cdf.len() - 1),
        }
    }
}

/// SplitMix64 finalizer — used to derive a stable pseudo-random header
/// for each (ingress, flow-rank) pair without consuming RNG stream.
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e3779b97f4a7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// The stable header bits of flow `rank` at `ingress` under `seed`.
fn flow_header(seed: u64, ingress: usize, rank: usize, width: u32) -> u128 {
    let hi = mix64(seed ^ SEED_SALT ^ ((ingress as u64) << 32) ^ rank as u64);
    let lo = mix64(hi ^ 0xD1B54A32D192ED03);
    let bits = ((hi as u128) << 64) | lo as u128;
    let mask = if width >= 128 {
        u128::MAX
    } else {
        (1u128 << width) - 1
    };
    bits & mask
}

/// Generates the deterministic flow stream for `config`.
///
/// # Panics
///
/// Panics on degenerate configs: zero ingresses, zero flows per
/// ingress, zero width, or a burst with `period_ms == 0`.
pub fn generate(config: &TrafficConfig) -> Vec<FlowEvent> {
    assert!(config.ingresses > 0, "traffic needs at least one ingress");
    assert!(
        config.flows_per_ingress > 0,
        "traffic needs a non-empty flow universe"
    );
    if let Some(b) = &config.burst {
        assert!(b.period_ms > 0, "burst period must be positive");
        assert!(b.active_ms <= b.period_ms, "burst window exceeds period");
    }
    let mut rng = StdRng::seed_from_u64(config.seed ^ SEED_SALT);
    let ingress_zipf = ZipfSampler::new(config.ingresses, config.zipf);
    let flow_zipf = ZipfSampler::new(config.flows_per_ingress, config.zipf);
    let flowlet_max = config.flowlet_len.max(1) * 2 - 1;

    let mut events = Vec::new();
    // Accumulator in thousandths of an event: adding `rate` each virtual
    // millisecond emits exactly `rate` events per simulated second with
    // no drift, at any rate.
    let mut acc: u64 = 0;
    let mut flowlet_left: u64 = 0;
    let mut current = (EntryPortId(0), Packet::from_bits(0, config.width));
    for t in 0..config.duration_ms {
        let multiplier = match &config.burst {
            Some(b) if t % b.period_ms < b.active_ms => b.multiplier.max(1),
            _ => 1,
        };
        acc += config.rate * multiplier;
        let due = acc / 1000;
        acc %= 1000;
        for _ in 0..due {
            if flowlet_left == 0 {
                let ingress = ingress_zipf.sample(&mut rng);
                let rank = flow_zipf.sample(&mut rng);
                let bits = flow_header(config.seed, ingress, rank, config.width);
                current = (EntryPortId(ingress), Packet::from_bits(bits, config.width));
                flowlet_left = if flowlet_max == 1 {
                    1
                } else {
                    rng.gen_range(1..=flowlet_max)
                };
            }
            flowlet_left -= 1;
            events.push(FlowEvent {
                at_ms: t,
                ingress: current.0,
                packet: current.1,
            });
        }
    }
    events
}

// ---------------------------------------------------------------------
// Replayable text serialization
// ---------------------------------------------------------------------

/// Header tag of the flow-trace text format.
pub const TRACE_SCHEMA: &str = "flowplace.traffic.v1";

/// A flow-trace parse failure, with the 1-based offending line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FlowTraceError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for FlowTraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "flow trace line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for FlowTraceError {}

/// Renders a flow stream as replayable text: the schema header followed
/// by one `AT_MS INGRESS BITS` line per event. Byte-identical for
/// identical streams.
pub fn format_flows(events: &[FlowEvent]) -> String {
    use fmt::Write as _;
    let mut out = String::with_capacity(events.len() * 24 + 32);
    let _ = writeln!(out, "# {TRACE_SCHEMA}");
    for e in events {
        let _ = writeln!(out, "{} {} {}", e.at_ms, e.ingress, e.packet);
    }
    out
}

/// Parses the [`format_flows`] text format. Blank lines and further
/// `#` comments are ignored; the schema header line is required first.
///
/// # Errors
///
/// [`FlowTraceError`] naming the first malformed line.
pub fn parse_flows(text: &str) -> Result<Vec<FlowEvent>, FlowTraceError> {
    let mut events = Vec::new();
    let mut saw_header = false;
    for (i, raw) in text.lines().enumerate() {
        let line = i + 1;
        let err = |message: String| FlowTraceError { line, message };
        let trimmed = raw.trim();
        if trimmed.is_empty() {
            continue;
        }
        if let Some(comment) = trimmed.strip_prefix('#') {
            if comment.trim() == TRACE_SCHEMA {
                saw_header = true;
            }
            continue;
        }
        if !saw_header {
            return Err(err(format!("missing `# {TRACE_SCHEMA}` header")));
        }
        let mut parts = trimmed.split_whitespace();
        let at_ms: u64 = parts
            .next()
            .ok_or_else(|| err("missing timestamp".into()))?
            .parse()
            .map_err(|_| err("bad timestamp".into()))?;
        let ingress = parts
            .next()
            .and_then(|s| s.strip_prefix('l'))
            .and_then(|s| s.parse::<usize>().ok())
            .ok_or_else(|| err("bad ingress (want lN)".into()))?;
        let bits_str = parts
            .next()
            .ok_or_else(|| err("missing header bits".into()))?;
        if parts.next().is_some() {
            return Err(err("trailing fields".into()));
        }
        let width = bits_str.len() as u32;
        if width == 0 || width > 128 {
            return Err(err(format!("bad header width {width}")));
        }
        let mut bits: u128 = 0;
        for c in bits_str.chars() {
            bits = (bits << 1)
                | match c {
                    '0' => 0,
                    '1' => 1,
                    _ => return Err(err(format!("bad header bit {c:?}"))),
                };
        }
        events.push(FlowEvent {
            at_ms,
            ingress: EntryPortId(ingress),
            packet: Packet::from_bits(bits, width),
        });
    }
    Ok(events)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_rank_zero_dominates() {
        let sampler = ZipfSampler::new(50, 1.2);
        let mut rng = StdRng::seed_from_u64(1);
        let mut counts = vec![0usize; 50];
        for _ in 0..10_000 {
            counts[sampler.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[1], "rank 0 beats rank 1");
        assert!(counts[1] > counts[10], "rank 1 beats rank 10");
        assert!(
            counts[0] > 10_000 / 10,
            "head rank carries well over uniform share: {}",
            counts[0]
        );
    }

    #[test]
    fn zipf_zero_exponent_is_roughly_uniform() {
        let sampler = ZipfSampler::new(4, 0.0);
        let mut rng = StdRng::seed_from_u64(2);
        let mut counts = vec![0usize; 4];
        for _ in 0..8000 {
            counts[sampler.sample(&mut rng)] += 1;
        }
        for &c in &counts {
            assert!((1600..=2400).contains(&c), "uniform-ish: {counts:?}");
        }
    }

    #[test]
    fn rate_is_exact_at_any_scale() {
        for (rate, duration, expect) in [
            (1000u64, 100u64, 100usize),
            (250, 1000, 250),
            (3, 2000, 6),
            (2_000_000, 5, 10_000), // millions per simulated second
        ] {
            let events = generate(&TrafficConfig {
                rate,
                duration_ms: duration,
                ..TrafficConfig::default()
            });
            assert_eq!(events.len(), expect, "rate {rate} over {duration}ms");
        }
    }

    #[test]
    fn timestamps_are_monotone_and_bounded() {
        let events = generate(&TrafficConfig::default());
        assert!(events.windows(2).all(|w| w[0].at_ms <= w[1].at_ms));
        assert!(events.iter().all(|e| e.at_ms < 1000));
    }

    #[test]
    fn burst_phase_multiplies_rate_inside_window() {
        let config = TrafficConfig {
            rate: 1000,
            duration_ms: 100,
            burst: Some(BurstConfig {
                period_ms: 20,
                active_ms: 10,
                multiplier: 3,
            }),
            ..TrafficConfig::default()
        };
        let events = generate(&config);
        // 50ms at 3x + 50ms at 1x = 150 + 50 events.
        assert_eq!(events.len(), 200);
        let in_burst = events.iter().filter(|e| e.at_ms % 20 < 10).count();
        assert_eq!(in_burst, 150);
    }

    #[test]
    fn flowlets_repeat_the_same_header() {
        let events = generate(&TrafficConfig {
            rate: 5000,
            duration_ms: 100,
            flowlet_len: 8,
            ..TrafficConfig::default()
        });
        let repeats = events
            .windows(2)
            .filter(|w| w[0].packet == w[1].packet && w[0].ingress == w[1].ingress)
            .count();
        // With mean flowlet length 8, most adjacent pairs share a flow.
        assert!(
            repeats * 2 > events.len(),
            "{repeats} repeats out of {} events",
            events.len()
        );
    }

    #[test]
    fn same_seed_is_byte_identical_and_seeds_differ() {
        let config = TrafficConfig::default();
        let a = format_flows(&generate(&config));
        let b = format_flows(&generate(&config));
        assert_eq!(a, b, "same config replays byte-identically");
        let c = format_flows(&generate(&TrafficConfig { seed: 8, ..config }));
        assert_ne!(a, c, "different seeds diverge");
    }

    #[test]
    fn trace_round_trips() {
        let events = generate(&TrafficConfig {
            rate: 500,
            duration_ms: 200,
            ..TrafficConfig::default()
        });
        let text = format_flows(&events);
        assert!(text.starts_with(&format!("# {TRACE_SCHEMA}\n")));
        let parsed = parse_flows(&text).expect("round trip parses");
        assert_eq!(parsed, events);
        assert_eq!(format_flows(&parsed), text);
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        assert!(parse_flows("1 l0 0101").is_err(), "header required");
        let head = format!("# {TRACE_SCHEMA}\n");
        for bad in [
            "x l0 0101",
            "1 s0 0101",
            "1 l0 01x1",
            "1 l0",
            "1 l0 0101 extra",
        ] {
            let doc = format!("{head}{bad}\n");
            let e = parse_flows(&doc).expect_err(bad);
            assert_eq!(e.line, 2, "{bad}");
        }
        assert!(parse_flows(&head).expect("empty stream ok").is_empty());
    }

    #[test]
    fn headers_fit_width_and_are_stable_per_flow() {
        let config = TrafficConfig {
            width: 8,
            ..TrafficConfig::default()
        };
        let events = generate(&config);
        assert!(events.iter().all(|e| e.packet.width() == 8));
        // The same (ingress, rank) always maps to the same header.
        assert_eq!(
            flow_header(7, 2, 5, 8),
            flow_header(7, 2, 5, 8),
            "stable headers"
        );
        assert_ne!(flow_header(7, 2, 5, 8), flow_header(7, 2, 6, 8));
    }

    #[test]
    fn ingress_popularity_is_skewed() {
        let events = generate(&TrafficConfig {
            rate: 20_000,
            duration_ms: 500,
            zipf: 1.3,
            ingresses: 8,
            ..TrafficConfig::default()
        });
        let mut counts = vec![0usize; 8];
        for e in &events {
            counts[e.ingress.0] += 1;
        }
        assert!(counts[0] > counts[7] * 2, "skewed ingresses: {counts:?}");
    }
}
