//! No byte sequence fed to a parser may panic the process.
//!
//! Every text surface that takes input from outside the program — event
//! traces, fault schedules, flow traces, the `--cache` / `--delegation`
//! specs, policy files, obs JSON dumps — is driven with
//! seeded byte mutants of a valid input. Each mutant must come back as
//! `Ok` or `Err`; an unwind fails the test and prints the mutant.
//!
//! Mutants are bytes, the parsers take `&str`: conversion is lossy, so an
//! invalid byte arrives as U+FFFD — a multi-byte character, which is
//! exactly what trips byte-offset slicing.

use std::panic::{catch_unwind, AssertUnwindSafe};

use flowplace::acl::textfmt;
use flowplace::classbench::{Generator, Profile};
use flowplace::ctrl::{parse_fault_schedule, parse_trace, CacheConfig, DelegationConfig};
use flowplace::obs::validate_obs_json;
use flowplace::rng::{Rng, StdRng};
use flowplace::traffic::{format_flows, generate, parse_flows, TrafficConfig};

/// Mutants per input.
const MUTANTS: usize = 512;

/// Applies 1–4 random edits (overwrite / delete / insert / truncate).
fn mutate(input: &[u8], rng: &mut StdRng) -> Vec<u8> {
    let mut bytes = input.to_vec();
    for _ in 0..rng.gen_range(1usize..=4) {
        if bytes.is_empty() {
            bytes.push(rng.next_u64() as u8);
            continue;
        }
        let at = rng.gen_range(0..bytes.len());
        match rng.gen_range(0u32..4) {
            0 => bytes[at] = rng.next_u64() as u8,
            1 => {
                bytes.remove(at);
            }
            2 => bytes.insert(at, rng.next_u64() as u8),
            _ => bytes.truncate(at),
        }
    }
    bytes
}

/// Feeds `MUTANTS` mutants of `input` to `parse` (which reports whether
/// the parser accepted); the pristine input itself must be accepted, or
/// the mutants would only ever exercise the first error path.
fn hammer(rng: &mut StdRng, name: &str, input: &str, parse: &dyn Fn(&str) -> bool) {
    assert!(parse(input), "{name}: pristine input rejected");
    for i in 0..MUTANTS {
        let mutant = mutate(input.as_bytes(), rng);
        let text = String::from_utf8_lossy(&mutant);
        if catch_unwind(AssertUnwindSafe(|| parse(&text))).is_err() {
            panic!("{name}: parser panicked on mutant {i}: {text:?}");
        }
    }
}

fn read(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"))
}

#[test]
fn no_mutant_panics_any_parser() {
    let rng = &mut StdRng::seed_from_u64(0x9E37_79B9_7F4A_7C15);
    for path in ["traces/controller_demo.trace", "traces/chaos.trace"] {
        hammer(rng, path, &read(path), &|t| parse_trace(t).is_ok());
    }
    hammer(
        rng,
        "traces/chaos.faults",
        &read("traces/chaos.faults"),
        &|t| parse_fault_schedule(t).is_ok(),
    );

    let flows = generate(&TrafficConfig {
        rate: 1000,
        duration_ms: 200,
        ..TrafficConfig::default()
    });
    assert_eq!(flows.len(), 200);
    hammer(rng, "flow trace", &format_flows(&flows), &|t| {
        parse_flows(t).is_ok()
    });

    for spec in ["64", "depfreq:64"] {
        hammer(rng, "--cache spec", spec, &|t| {
            CacheConfig::parse_spec(t).is_ok()
        });
    }
    hammer(rng, "--delegation spec", "on", &|t| {
        DelegationConfig::parse_spec(t).is_ok()
    });

    let policy = Generator::new(Profile::Firewall, 16)
        .with_seed(3)
        .policy(24, 0);
    let text = format!(
        "# tenant policy\n{}drop 0*************** @ 4000 # pinned\n",
        textfmt::format_policy(&policy)
    );
    hammer(rng, "policy text", &text, &|t| {
        textfmt::parse_policy(t).is_ok()
    });

    for path in ["OBS_trace.json", "OBS_metrics.json"] {
        hammer(rng, path, &read(path), &|t| validate_obs_json(t).is_ok());
    }
}
