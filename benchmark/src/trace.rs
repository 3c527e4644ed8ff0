//! In-memory spans and counts of the traced round.
//!
//! The tracer is driven from outside the program: before each real
//! call the workload repeats the call's steps through the layers'
//! public functions, one span per step. Spans of one call share the
//! call's index as their parent. Nothing is written until the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// The span recorded around every real timed call.
const CALL: &str = "ctrl.call";

struct Span {
    name: &'static str,
    start: Duration,
    end: Duration,
    /// Index of the timed call this span belongs to.
    parent: usize,
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    calls: usize,
    counts: BTreeMap<&'static str, u64>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            calls: 0,
            counts: BTreeMap::new(),
        }
    }

    /// Runs `f` inside a span of the call about to be made.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let start = self.origin.elapsed();
        let out = f();
        let end = self.origin.elapsed();
        self.spans.push(Span {
            name,
            start,
            end,
            parent: self.calls,
        });
        out
    }

    /// Records the real call the preceding spans shadowed.
    pub fn call(&mut self, started: Instant, took: Duration) {
        let start = started.duration_since(self.origin);
        self.spans.push(Span {
            name: CALL,
            start,
            end: start + took,
            parent: self.calls,
        });
        self.calls += 1;
    }

    pub fn add(&mut self, name: &'static str, by: u64) {
        *self.counts.entry(name).or_insert(0) += by;
    }

    pub fn count(&self, name: &str) -> u64 {
        self.counts.get(name).copied().unwrap_or(0)
    }

    /// Total time inside spans called `name`.
    pub fn total(&self, name: &str) -> Duration {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end - s.start)
            .sum()
    }

    /// The trace as one JSON document: spans in recording order (times
    /// in nanoseconds since the traced round began) and the counts.
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{{\n  \"workload\": \"{workload}\",\n  \"seed\": {seed},\n  \"calls\": {},\n  \"spans\": [",
            self.calls
        );
        for (i, s) in self.spans.iter().enumerate() {
            let _ = writeln!(
                out,
                "    {{\"name\": \"{}\", \"start\": {}, \"end\": {}, \"parent\": {}}}{}",
                s.name,
                s.start.as_nanos(),
                s.end.as_nanos(),
                s.parent,
                if i + 1 == self.spans.len() { "" } else { "," }
            );
        }
        out.push_str("  ],\n  \"counts\": {");
        for (i, (name, value)) in self.counts.iter().enumerate() {
            let _ = write!(
                out,
                "{}\n    \"{name}\": {value}",
                if i == 0 { "" } else { "," }
            );
        }
        out.push_str("\n  }\n}\n");
        out
    }
}
