//! Human-readable rendering of validated obs documents, backing the
//! `flowplace obs summarize` subcommand.
//!
//! Traces collapse into a per-name table (call count, total/mean tick
//! and virtual-ms cost); metrics render as three sections (counters,
//! gauges, histograms), with TCAM occupancy joined against capacity
//! when both gauges are present.

use crate::json::ObsDoc;
use crate::metrics::{MetricValue, MetricsDoc};
use crate::span::TraceDoc;
use std::collections::BTreeMap;
use std::fmt::Write as _;

fn render_table(header: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let render_row = |out: &mut String, cells: &[String]| {
        for (i, cell) in cells.iter().enumerate() {
            if i > 0 {
                out.push_str("  ");
            }
            let pad = widths[i] - cell.len();
            // Right-align everything but the first (label) column.
            if i == 0 {
                out.push_str(cell);
                out.push_str(&" ".repeat(pad));
            } else {
                out.push_str(&" ".repeat(pad));
                out.push_str(cell);
            }
        }
        while out.ends_with(' ') {
            out.pop();
        }
        out.push('\n');
    };
    let header: Vec<String> = header.iter().map(|h| h.to_string()).collect();
    render_row(&mut out, &header);
    let rule: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
    render_row(&mut out, &rule);
    for row in rows {
        render_row(&mut out, row);
    }
    out
}

fn summarize_trace(trace: &TraceDoc) -> String {
    #[derive(Default)]
    struct Agg {
        count: u64,
        open: u64,
        ticks: u64,
        ms: u64,
    }
    let mut by_name: BTreeMap<&str, Agg> = BTreeMap::new();
    for span in &trace.spans {
        let agg = by_name.entry(span.name.as_str()).or_default();
        agg.count += 1;
        match span.duration_ticks() {
            Some(t) => {
                agg.ticks += t;
                agg.ms += span.duration_ms().unwrap_or(0);
            }
            None => agg.open += 1,
        }
    }
    let rows: Vec<Vec<String>> = by_name
        .iter()
        .map(|(name, agg)| {
            let closed = agg.count - agg.open;
            let mean = agg.ticks.checked_div(closed).unwrap_or(0);
            vec![
                name.to_string(),
                agg.count.to_string(),
                agg.open.to_string(),
                agg.ticks.to_string(),
                mean.to_string(),
                agg.ms.to_string(),
            ]
        })
        .collect();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "trace: {} spans, final tick {}, final virtual ms {}, mis-nested {}",
        trace.spans.len(),
        trace.final_tick,
        trace.final_virtual_ms,
        trace.mis_nested
    );
    out.push('\n');
    out.push_str(&render_table(
        &["span", "count", "open", "ticks", "mean", "vms"],
        &rows,
    ));
    out
}

fn labels_text(labels: &[(String, String)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let pairs: Vec<String> = labels.iter().map(|(k, v)| format!("{k}={v}")).collect();
    format!("{{{}}}", pairs.join(","))
}

fn summarize_metrics(metrics: &MetricsDoc) -> String {
    let mut counters: Vec<Vec<String>> = Vec::new();
    let mut gauges: Vec<Vec<String>> = Vec::new();
    let mut histograms: Vec<Vec<String>> = Vec::new();
    for row in &metrics.metrics {
        let series = format!("{}{}", row.name, labels_text(&row.labels));
        match &row.value {
            MetricValue::Counter(v) => counters.push(vec![series, v.to_string()]),
            MetricValue::Gauge(v) => gauges.push(vec![series, v.to_string()]),
            MetricValue::Histogram(h) => histograms.push(vec![
                series,
                h.count.to_string(),
                h.sum.to_string(),
                h.mean().to_string(),
            ]),
        }
    }
    let mut out = String::new();
    let _ = writeln!(out, "metrics: {} series", metrics.metrics.len());
    if !counters.is_empty() {
        out.push('\n');
        out.push_str(&render_table(&["counter", "value"], &counters));
    }
    if !gauges.is_empty() {
        out.push('\n');
        out.push_str(&render_table(&["gauge", "value"], &gauges));
    }
    if !histograms.is_empty() {
        out.push('\n');
        out.push_str(&render_table(
            &["histogram", "count", "sum", "mean"],
            &histograms,
        ));
    }
    out
}

/// Renders a validated document as a plain-text summary table.
pub fn summarize(doc: &ObsDoc) -> String {
    match doc {
        ObsDoc::Trace(trace) => summarize_trace(trace),
        ObsDoc::Metrics(metrics) => summarize_metrics(metrics),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::validate_obs_json;
    use crate::Obs;

    #[test]
    fn trace_summary_aggregates_by_name() {
        let obs = Obs::new();
        for i in 0..3u64 {
            let root = obs.spans.enter("ctrl.epoch");
            root.attr("epoch", i);
            let _child = obs.spans.enter("ctrl.commit");
        }
        let doc = validate_obs_json(&obs.trace_json()).unwrap();
        let text = summarize(&doc);
        assert!(text.contains("trace: 6 spans"), "{text}");
        assert!(text.contains("ctrl.epoch"), "{text}");
        assert!(text.contains("ctrl.commit"), "{text}");
    }

    #[test]
    fn metrics_summary_sections() {
        let obs = Obs::new();
        obs.metrics.counter_add("ctrl.events_in", &[], 53);
        obs.metrics
            .gauge_set("tcam.occupancy", &[("switch", "s1")], 9);
        obs.metrics.observe("pipeline.solve_cost", &[], 12);
        let doc = validate_obs_json(&obs.metrics_json()).unwrap();
        let text = summarize(&doc);
        assert!(text.contains("metrics: 3 series"), "{text}");
        assert!(text.contains("ctrl.events_in"), "{text}");
        assert!(text.contains("tcam.occupancy{switch=s1}"), "{text}");
        assert!(text.contains("pipeline.solve_cost"), "{text}");
    }

    #[test]
    fn labeled_counter_families_render_one_series_per_label() {
        // The controller's delegation lifecycle is mirrored as one
        // labeled counter family (ctrl.delegate.events) plus labeled
        // outcome counts; the summary must keep each label a distinct,
        // greppable series rather than collapsing the family.
        let obs = Obs::new();
        for kind in ["created", "rehomed", "torn-down", "undelegated"] {
            obs.metrics
                .counter_add("ctrl.delegate.events", &[("kind", kind)], 1);
        }
        obs.metrics
            .counter_add("ctrl.outcomes", &[("outcome", "applied:delegated")], 2);
        let doc = validate_obs_json(&obs.metrics_json()).unwrap();
        let text = summarize(&doc);
        assert!(text.contains("metrics: 5 series"), "{text}");
        for kind in ["created", "rehomed", "torn-down", "undelegated"] {
            assert!(
                text.contains(&format!("ctrl.delegate.events{{kind={kind}}}")),
                "missing {kind} series in:\n{text}"
            );
        }
        assert!(
            text.contains("ctrl.outcomes{outcome=applied:delegated}"),
            "{text}"
        );
    }

    #[test]
    fn summary_is_deterministic() {
        let build = || {
            let obs = Obs::new();
            obs.metrics.counter_add("b", &[], 1);
            obs.metrics.counter_add("a", &[], 2);
            summarize(&validate_obs_json(&obs.metrics_json()).unwrap())
        };
        assert_eq!(build(), build());
    }
}
