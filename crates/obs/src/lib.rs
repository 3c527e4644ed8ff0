//! Deterministic observability for flowplace.
//!
//! The solve pipeline and the controller runtime each keep their own
//! counters (`PlacementStats`, `CtrlStats`) with no common surface: they
//! cannot answer "where did this epoch's budget go" across pipeline →
//! solve → dataplane. This crate is that surface. It has **zero
//! dependencies** (not even on the other flowplace crates — they depend
//! on it) and two halves:
//!
//! * [`mod@span`] — a hierarchical span recorder driven by a **logical tick
//!   clock** plus the controller's virtual-millisecond clock. Real wall
//!   time never enters a recorded span, so traces are *byte-identical*
//!   across runs at the same seed and can be diffed in tests.
//! * [`metrics`] — a registry of typed counters, gauges, and histograms
//!   keyed by name plus sorted labels (e.g. `tcam.occupancy{switch=s2}`).
//!
//! Both halves serialize to the canonical `flowplace.obs.v1` JSON
//! schema ([`SCHEMA`]); [`json::validate_obs_json`] is the in-tree
//! validator, and [`summary::summarize`] renders a dump as a human
//! table for `flowplace obs summarize`.
//!
//! # Determinism rules
//!
//! 1. A span's duration is measured in **ticks** (one tick is consumed
//!    by every span begin and every span end) and in **virtual
//!    milliseconds** (advanced only by [`Recorder::set_virtual_ms`],
//!    which the controller syncs from its fault clock). Wall time is
//!    deliberately not recorded.
//! 2. Metrics only ever hold integers; no floats means no
//!    formatting-dependent output.
//! 3. Dumps iterate `BTreeMap`s and id-ordered vectors, so the byte
//!    stream is a pure function of the recorded events.
//!
//! Instrumented code takes `Option<&Obs>` (`flowplace_core::par::solve`
//! does): `None` compiles to the uninstrumented fast path and observability stays strictly
//! effect-free.
//!
//! ```
//! use flowplace_obs::Obs;
//!
//! let obs = Obs::new();
//! {
//!     let pipeline = obs.spans.enter("pipeline");
//!     pipeline.attr("ingresses", 3u64);
//!     let stage = obs.spans.enter("pipeline.depgraphs");
//!     stage.attr("built", 2u64);
//!     drop(stage);
//! }
//! obs.metrics.counter_add_with("pipeline.solves", &[("provenance", "single:ilp")], 1);
//! let doc = flowplace_obs::json::validate_obs_json(&obs.trace_json()).unwrap();
//! assert_eq!(doc.kind(), "trace");
//! ```
//!
//! [`Recorder::set_virtual_ms`]: span::Recorder::set_virtual_ms

#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![forbid(unsafe_code)]

pub mod json;
pub mod metrics;
pub mod span;
pub mod summary;

pub use json::{validate_obs_json, ObsDoc};
pub use metrics::{MetricValue, Registry, Sample};
pub use span::{AttrValue, Recorder, ScopedSpan, SpanData, SpanId};

/// Canonical schema tag stamped on every trace and metrics dump.
pub const SCHEMA: &str = "flowplace.obs.v1";

/// One observability context: a span recorder plus a metrics registry.
///
/// Cheap to create, `Clone` deep-copies the recorded state (useful for
/// snapshot-and-compare tests). All methods take `&self`; interior
/// mutability keeps instrumented call sites borrow-friendly.
#[derive(Clone, Debug, Default)]
pub struct Obs {
    /// Hierarchical span recorder (virtual clock).
    pub spans: Recorder,
    /// Typed counter/gauge/histogram registry.
    pub metrics: Registry,
}

impl Obs {
    /// Creates an empty observability context.
    pub fn new() -> Self {
        Self::default()
    }

    /// Canonical `flowplace.obs.v1` dump of the recorded spans
    /// (`"kind": "trace"`). Byte-identical across same-seed runs.
    pub fn trace_json(&self) -> String {
        json::trace_to_json(&self.spans)
    }

    /// Canonical `flowplace.obs.v1` dump of the metrics registry
    /// (`"kind": "metrics"`). Byte-identical across same-seed runs.
    pub fn metrics_json(&self) -> String {
        json::metrics_to_json(&self.metrics)
    }
}

/// Opens a scoped span on an [`Obs`] context and attaches literal
/// attributes, e.g. `span!(obs, "pipeline.depgraph", ingress = i)`.
///
/// Expands to [`Recorder::enter`] followed by one
/// [`ScopedSpan::attr`] call per `key = value` pair; the span ends when
/// the returned guard drops.
///
/// [`Recorder::enter`]: span::Recorder::enter
/// [`ScopedSpan::attr`]: span::ScopedSpan::attr
#[macro_export]
macro_rules! span {
    ($obs:expr, $name:expr $(, $key:ident = $value:expr)* $(,)?) => {{
        let guard = $obs.spans.enter($name);
        $(guard.attr(stringify!($key), $value);)*
        guard
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn facade_round_trips_both_kinds() {
        let obs = Obs::new();
        {
            let _root = span!(obs, "root", items = 2u64);
        }
        obs.metrics.counter_add("events", 3);
        let trace = validate_obs_json(&obs.trace_json()).unwrap();
        assert_eq!(trace.kind(), "trace");
        let metrics = validate_obs_json(&obs.metrics_json()).unwrap();
        assert_eq!(metrics.kind(), "metrics");
    }

    #[test]
    fn clone_is_a_deep_snapshot() {
        let obs = Obs::new();
        obs.metrics.counter_add("n", 1);
        let snap = obs.clone();
        obs.metrics.counter_add("n", 1);
        assert_eq!(snap.metrics.counter_value("n", &[]), 1);
        assert_eq!(obs.metrics.counter_value("n", &[]), 2);
    }
}
