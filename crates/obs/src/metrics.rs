//! Typed metrics registry: counters, gauges, histograms.
//!
//! Metrics are keyed by a name plus a sorted label set, so
//! `tcam.occupancy{switch=s2}` and `tcam.occupancy{switch=s3}` are
//! distinct series. Every value is an integer — the registry stores no
//! floats and reads no clocks, which is what makes the canonical dump
//! byte-identical across same-seed runs (see the crate docs).
//!
//! A metric's type is fixed by its first write; mixing types on one
//! series (`counter_add` then `gauge_set`) is an instrumentation bug
//! and panics with the offending name.

use std::cell::RefCell;
use std::collections::BTreeMap;

/// Upper bucket bounds for histograms (inclusive `value <= bound`);
/// an implicit overflow bucket catches everything above the last bound.
pub const HISTOGRAM_BOUNDS: &[u64] = &[1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000];

/// Histogram state: bucket counts against [`HISTOGRAM_BOUNDS`], plus
/// total sum and count for mean queries.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram {
    /// One count per bound in [`HISTOGRAM_BOUNDS`], plus a final
    /// overflow bucket.
    pub buckets: Vec<u64>,
    /// Sum of all observed values.
    pub sum: u64,
    /// Number of observations.
    pub count: u64,
}

impl Histogram {
    fn new() -> Self {
        Self {
            buckets: vec![0; HISTOGRAM_BOUNDS.len() + 1],
            sum: 0,
            count: 0,
        }
    }

    fn observe(&mut self, value: u64) {
        let idx = HISTOGRAM_BOUNDS
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(HISTOGRAM_BOUNDS.len());
        self.buckets[idx] += 1;
        self.sum += value;
        self.count += 1;
    }

    /// Mean of the observed values, rounded down; 0 with no samples.
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }
}

/// Current value of one metric series.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MetricValue {
    /// Monotone event count.
    Counter(u64),
    /// Point-in-time level (may go down, may be negative).
    Gauge(i64),
    /// Distribution of observed values.
    Histogram(Histogram),
}

impl MetricValue {
    /// The JSON `"type"` tag for this value.
    pub fn type_name(&self) -> &'static str {
        match self {
            MetricValue::Counter(_) => "counter",
            MetricValue::Gauge(_) => "gauge",
            MetricValue::Histogram(_) => "histogram",
        }
    }
}

/// One series in a registry snapshot: name, sorted labels, value.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Sample {
    /// Metric name, dot-separated by convention (`"warm.memo_hits"`).
    pub name: String,
    /// Label pairs, sorted by key.
    pub labels: Vec<(String, String)>,
    /// Current value.
    pub value: MetricValue,
}

/// A whole registry: what [`Registry::doc`] returns, what the canonical
/// dump serializes, and what [`validate_obs_json`] reads back.
///
/// [`validate_obs_json`]: crate::validate_obs_json
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MetricsDoc {
    /// Every series, sorted by (name, labels).
    pub metrics: Vec<Sample>,
}

type Key = (String, Vec<(String, String)>);

fn key(name: &str, labels: &[(&str, &str)]) -> Key {
    let mut labels: Vec<(String, String)> = labels
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
    labels.sort();
    (name.to_string(), labels)
}

/// Metrics registry; [`Registry::doc`] is the snapshot the canonical
/// dump serializes. Every write names its series by `name` plus
/// `labels` (`&[]` for none). All methods take `&self`; state lives
/// behind a `RefCell` so instrumented call sites stay borrow-friendly.
#[derive(Clone, Debug, Default)]
pub struct Registry {
    inner: RefCell<BTreeMap<Key, MetricValue>>,
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `by` to the counter `name{labels}`.
    pub fn counter_add(&self, name: &str, labels: &[(&str, &str)], by: u64) {
        let mut inner = self.inner.borrow_mut();
        match inner
            .entry(key(name, labels))
            .or_insert(MetricValue::Counter(0))
        {
            MetricValue::Counter(v) => *v += by,
            other => panic!("metric {name} is a {}, not a counter", other.type_name()),
        }
    }

    /// Sets the counter `name{labels}` to the absolute value `total`.
    ///
    /// For mirroring an externally accumulated count (e.g. a
    /// `CtrlStats` field) onto the registry without double counting;
    /// `total` must be monotone across calls, which is debug-asserted.
    pub fn counter_set(&self, name: &str, labels: &[(&str, &str)], total: u64) {
        let mut inner = self.inner.borrow_mut();
        match inner
            .entry(key(name, labels))
            .or_insert(MetricValue::Counter(0))
        {
            MetricValue::Counter(v) => {
                debug_assert!(*v <= total, "counter {name} moved backwards");
                *v = total;
            }
            other => panic!("metric {name} is a {}, not a counter", other.type_name()),
        }
    }

    /// Sets the gauge `name{labels}` to `value`.
    pub fn gauge_set(&self, name: &str, labels: &[(&str, &str)], value: i64) {
        let mut inner = self.inner.borrow_mut();
        match inner
            .entry(key(name, labels))
            .or_insert(MetricValue::Gauge(0))
        {
            MetricValue::Gauge(v) => *v = value,
            other => panic!("metric {name} is a {}, not a gauge", other.type_name()),
        }
    }

    /// Records `value` into the histogram `name{labels}`.
    pub fn observe(&self, name: &str, labels: &[(&str, &str)], value: u64) {
        let mut inner = self.inner.borrow_mut();
        match inner
            .entry(key(name, labels))
            .or_insert_with(|| MetricValue::Histogram(Histogram::new()))
        {
            MetricValue::Histogram(h) => h.observe(value),
            other => panic!("metric {name} is a {}, not a histogram", other.type_name()),
        }
    }

    /// Current value of the counter `name{labels}`; 0 if never written.
    pub fn counter_value(&self, name: &str, labels: &[(&str, &str)]) -> u64 {
        match self.inner.borrow().get(&key(name, labels)) {
            Some(MetricValue::Counter(v)) => *v,
            _ => 0,
        }
    }

    /// Current value of the gauge `name{labels}`, if ever written.
    pub fn gauge_value(&self, name: &str, labels: &[(&str, &str)]) -> Option<i64> {
        match self.inner.borrow().get(&key(name, labels)) {
            Some(MetricValue::Gauge(v)) => Some(*v),
            _ => None,
        }
    }

    /// Snapshot of the histogram `name{labels}`, if ever written.
    pub fn histogram_value(&self, name: &str, labels: &[(&str, &str)]) -> Option<Histogram> {
        match self.inner.borrow().get(&key(name, labels)) {
            Some(MetricValue::Histogram(h)) => Some(h.clone()),
            _ => None,
        }
    }

    /// Snapshot of every series, sorted by (name, labels).
    pub fn doc(&self) -> MetricsDoc {
        let metrics = self
            .inner
            .borrow()
            .iter()
            .map(|((name, labels), value)| Sample {
                name: name.clone(),
                labels: labels.clone(),
                value: value.clone(),
            })
            .collect();
        MetricsDoc { metrics }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_per_label_set() {
        let reg = Registry::new();
        reg.counter_add("solves", &[], 1);
        reg.counter_add("solves", &[("provenance", "memo")], 2);
        reg.counter_add("solves", &[("provenance", "memo")], 1);
        assert_eq!(reg.counter_value("solves", &[]), 1);
        assert_eq!(reg.counter_value("solves", &[("provenance", "memo")]), 3);
        assert_eq!(reg.counter_value("missing", &[]), 0);
        assert_eq!(reg.doc().metrics.len(), 2);
    }

    #[test]
    fn label_order_does_not_matter() {
        let reg = Registry::new();
        reg.counter_add("m", &[("a", "1"), ("b", "2")], 1);
        reg.counter_add("m", &[("b", "2"), ("a", "1")], 1);
        assert_eq!(reg.counter_value("m", &[("b", "2"), ("a", "1")]), 2);
        assert_eq!(reg.doc().metrics.len(), 1);
    }

    #[test]
    fn counter_set_mirrors_external_totals() {
        let reg = Registry::new();
        reg.counter_set("ctrl.epochs", &[], 3);
        reg.counter_set("ctrl.epochs", &[], 5);
        assert_eq!(reg.counter_value("ctrl.epochs", &[]), 5);
    }

    #[test]
    fn gauges_move_both_ways() {
        let reg = Registry::new();
        reg.gauge_set("occ", &[], 5);
        reg.gauge_set("occ", &[], 2);
        reg.gauge_set("occ", &[("switch", "s1")], -1);
        assert_eq!(reg.gauge_value("occ", &[]), Some(2));
        assert_eq!(reg.gauge_value("occ", &[("switch", "s1")]), Some(-1));
        assert_eq!(reg.gauge_value("missing", &[]), None);
    }

    #[test]
    fn histogram_buckets_and_mean() {
        let reg = Registry::new();
        for v in [0, 1, 3, 10, 20000] {
            reg.observe("lat", &[], v);
        }
        let h = reg.histogram_value("lat", &[]).unwrap();
        assert_eq!(h.count, 5);
        assert_eq!(h.sum, 20014);
        assert_eq!(h.mean(), 4002);
        assert_eq!(h.buckets[0], 2); // 0 and 1 both land in `<= 1`
        assert_eq!(h.buckets.last(), Some(&1)); // 20000 overflows
        assert_eq!(h.buckets.iter().sum::<u64>(), 5);
    }

    #[test]
    #[should_panic(expected = "not a gauge")]
    fn type_confusion_panics() {
        let reg = Registry::new();
        reg.counter_add("n", &[], 1);
        reg.gauge_set("n", &[], 1);
    }

    #[test]
    fn doc_is_sorted_by_name_then_labels() {
        let reg = Registry::new();
        reg.gauge_set("tcam.occupancy", &[("switch", "s1")], 4);
        reg.counter_add("a.events", &[], 2);
        let snap = reg.doc().metrics;
        assert_eq!(snap[0].name, "a.events");
        assert_eq!(snap[1].labels, [("switch".into(), "s1".into())]);
        assert_eq!(snap[1].value, MetricValue::Gauge(4));
    }
}
