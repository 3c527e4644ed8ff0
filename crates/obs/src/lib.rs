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
//! Each record kind has one type: a span is a [`SpanData`] in a
//! [`span::TraceDoc`], a series a [`Sample`] in a
//! [`metrics::MetricsDoc`], and [`Recorder::doc`] / [`Registry::doc`]
//! return the docs. Both serialize to the canonical `flowplace.obs.v1`
//! JSON schema ([`SCHEMA`]); the writer serializes exactly the doc that
//! [`json::validate_obs_json`], the in-tree validator, returns, so a
//! dump round-trips as an equality. [`summary::summarize`] renders a
//! dump as a human table for `flowplace obs summarize`.
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
//! use flowplace_obs::{validate_obs_json, Obs, ObsDoc};
//!
//! let obs = Obs::new();
//! {
//!     let pipeline = obs.spans.enter("pipeline");
//!     pipeline.attr("ingresses", 3u64);
//!     let stage = obs.spans.enter("pipeline.depgraphs");
//!     stage.attr("built", 2u64);
//!     drop(stage);
//! }
//! obs.metrics.counter_add("pipeline.solves", &[("provenance", "single:ilp")], 1);
//! let doc = validate_obs_json(&obs.trace_json());
//! assert_eq!(doc, Ok(ObsDoc::Trace(obs.spans.doc())));
//! ```
//!
//! [`Recorder::set_virtual_ms`]: span::Recorder::set_virtual_ms
//! [`Recorder::doc`]: span::Recorder::doc
//! [`Registry::doc`]: metrics::Registry::doc

#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![forbid(unsafe_code)]

pub mod json;
pub mod metrics;
pub mod span;
pub mod summary;

pub use json::{validate_obs_json, ObsDoc};
pub use metrics::{MetricValue, Registry, Sample};
pub use span::{Recorder, ScopedSpan, SpanData, SpanId};

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

    /// Canonical `flowplace.obs.v1` dump of [`Recorder::doc`]
    /// (`"kind": "trace"`). Byte-identical across same-seed runs.
    pub fn trace_json(&self) -> String {
        json::trace_to_json(&self.spans.doc())
    }

    /// Canonical `flowplace.obs.v1` dump of [`Registry::doc`]
    /// (`"kind": "metrics"`). Byte-identical across same-seed runs.
    pub fn metrics_json(&self) -> String {
        json::metrics_to_json(&self.metrics.doc())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn facade_round_trips_both_kinds() {
        let obs = Obs::new();
        obs.spans.enter("root").attr("items", 2u64);
        obs.metrics.counter_add("events", &[], 3);
        let trace = validate_obs_json(&obs.trace_json());
        assert_eq!(trace, Ok(ObsDoc::Trace(obs.spans.doc())));
        let metrics = validate_obs_json(&obs.metrics_json());
        assert_eq!(metrics, Ok(ObsDoc::Metrics(obs.metrics.doc())));
    }

    #[test]
    fn clone_is_a_deep_snapshot() {
        let obs = Obs::new();
        obs.metrics.counter_add("n", &[], 1);
        let snap = obs.clone();
        obs.metrics.counter_add("n", &[], 1);
        assert_eq!(snap.metrics.counter_value("n", &[]), 1);
        assert_eq!(obs.metrics.counter_value("n", &[]), 2);
    }
}
