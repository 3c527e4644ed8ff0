//! Canonical `flowplace.obs.v1` JSON: writer, parser, validator.
//!
//! The writer takes a [`TraceDoc`] or a [`MetricsDoc`] and emits one
//! object per span / metric row, keys in a fixed order, integers only —
//! the byte stream is a pure function of the recorded events (the
//! determinism contract the differential tests rely on). The parser is
//! a minimal recursive-descent JSON reader (the workspace is
//! dependency-free by design; this is its only one), and
//! [`validate_obs_json`] checks both structure and semantics — span
//! intervals must nest within each other and the final clock readings,
//! metric rows must be sorted, histogram buckets must sum to their
//! count — and returns the doc the dump was written from.

use crate::metrics::{Histogram, MetricValue, MetricsDoc, Sample, HISTOGRAM_BOUNDS};
use crate::span::{SpanData, SpanId, TraceDoc};
use crate::SCHEMA;
use std::fmt::Write as _;

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

/// Escapes `s` for inclusion in a JSON string literal.
fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

fn write_label_obj(out: &mut String, pairs: &[(String, String)]) {
    out.push('{');
    for (i, (k, v)) in pairs.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "\"{}\": \"{}\"", escape_json(k), escape_json(v));
    }
    out.push('}');
}

/// Renders a trace as a canonical `"kind": "trace"` document.
pub(crate) fn trace_to_json(doc: &TraceDoc) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"schema\": \"{SCHEMA}\",");
    out.push_str("  \"kind\": \"trace\",\n");
    out.push_str("  \"clock\": \"virtual\",\n");
    let _ = writeln!(out, "  \"final_tick\": {},", doc.final_tick);
    let _ = writeln!(out, "  \"final_virtual_ms\": {},", doc.final_virtual_ms);
    let _ = writeln!(out, "  \"mis_nested\": {},", doc.mis_nested);
    out.push_str("  \"spans\": [\n");
    for (id, span) in doc.spans.iter().enumerate() {
        out.push_str("    {");
        let _ = write!(out, "\"id\": {id}, ");
        match span.parent {
            Some(p) => {
                let _ = write!(out, "\"parent\": {}, ", p.0);
            }
            None => out.push_str("\"parent\": null, "),
        }
        let _ = write!(out, "\"depth\": {}, ", span.depth);
        let _ = write!(out, "\"name\": \"{}\", ", escape_json(&span.name));
        let _ = write!(out, "\"start_tick\": {}, ", span.start_tick);
        match span.end_tick {
            Some(t) => {
                let _ = write!(out, "\"end_tick\": {t}, ");
            }
            None => out.push_str("\"end_tick\": null, "),
        }
        let _ = write!(out, "\"start_ms\": {}, ", span.start_ms);
        match span.end_ms {
            Some(t) => {
                let _ = write!(out, "\"end_ms\": {t}, ");
            }
            None => out.push_str("\"end_ms\": null, "),
        }
        out.push_str("\"attrs\": ");
        write_label_obj(&mut out, &span.attrs);
        out.push('}');
        if id + 1 < doc.spans.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("  ]\n}\n");
    out
}

/// Renders a metrics snapshot as a canonical `"kind": "metrics"`
/// document.
pub(crate) fn metrics_to_json(doc: &MetricsDoc) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"schema\": \"{SCHEMA}\",");
    out.push_str("  \"kind\": \"metrics\",\n");
    out.push_str("  \"metrics\": [\n");
    for (i, sample) in doc.metrics.iter().enumerate() {
        out.push_str("    {");
        let _ = write!(out, "\"name\": \"{}\", ", escape_json(&sample.name));
        out.push_str("\"labels\": ");
        write_label_obj(&mut out, &sample.labels);
        let _ = write!(out, ", \"type\": \"{}\", ", sample.value.type_name());
        match &sample.value {
            MetricValue::Counter(v) => {
                let _ = write!(out, "\"value\": {v}");
            }
            MetricValue::Gauge(v) => {
                let _ = write!(out, "\"value\": {v}");
            }
            MetricValue::Histogram(h) => {
                let _ = write!(
                    out,
                    "\"count\": {}, \"sum\": {}, \"buckets\": [",
                    h.count, h.sum
                );
                for (bi, count) in h.buckets.iter().enumerate() {
                    if bi > 0 {
                        out.push_str(", ");
                    }
                    let le = match HISTOGRAM_BOUNDS.get(bi) {
                        Some(b) => b.to_string(),
                        None => "+inf".to_string(),
                    };
                    let _ = write!(out, "{{\"le\": \"{le}\", \"count\": {count}}}");
                }
                out.push(']');
            }
        }
        out.push('}');
        if i + 1 < doc.metrics.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("  ]\n}\n");
    out
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

/// A parsed JSON value. The obs schema only ever emits integers, so
/// numbers are `i64` and any fraction or exponent is a parse error.
#[derive(Clone, Debug, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Int(i64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn get<'a>(&'a self, key: &str) -> Option<&'a Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn str_field(&self, key: &str) -> Result<&str, String> {
        match self.get(key) {
            Some(Json::Str(s)) => Ok(s),
            Some(_) => Err(format!("field {key:?} is not a string")),
            None => Err(format!("missing field {key:?}")),
        }
    }

    fn int_field(&self, key: &str) -> Result<i64, String> {
        match self.get(key) {
            Some(Json::Int(v)) => Ok(*v),
            Some(_) => Err(format!("field {key:?} is not an integer")),
            None => Err(format!("missing field {key:?}")),
        }
    }

    fn uint_field(&self, key: &str) -> Result<u64, String> {
        let v = self.int_field(key)?;
        u64::try_from(v).map_err(|_| format!("field {key:?} is negative"))
    }

    fn opt_uint_field(&self, key: &str) -> Result<Option<u64>, String> {
        match self.get(key) {
            Some(Json::Null) => Ok(None),
            Some(Json::Int(v)) => u64::try_from(*v)
                .map(Some)
                .map_err(|_| format!("field {key:?} is negative")),
            Some(_) => Err(format!("field {key:?} is neither integer nor null")),
            None => Err(format!("missing field {key:?}")),
        }
    }

    fn arr_field<'a>(&'a self, key: &str) -> Result<&'a [Json], String> {
        match self.get(key) {
            Some(Json::Arr(items)) => Ok(items),
            Some(_) => Err(format!("field {key:?} is not an array")),
            None => Err(format!("missing field {key:?}")),
        }
    }

    fn string_map_field(&self, key: &str) -> Result<Vec<(String, String)>, String> {
        match self.get(key) {
            Some(Json::Obj(pairs)) => pairs
                .iter()
                .map(|(k, v)| match v {
                    Json::Str(s) => Ok((k.clone(), s.clone())),
                    _ => Err(format!("field {key:?} has non-string value for {k:?}")),
                })
                .collect(),
            Some(_) => Err(format!("field {key:?} is not an object")),
            None => Err(format!("missing field {key:?}")),
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Self {
        Self {
            bytes: text.as_bytes(),
            pos: 0,
        }
    }

    fn error(&self, msg: &str) -> String {
        format!("json parse error at byte {}: {msg}", self.pos)
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected {:?}", b as char)))
        }
    }

    fn eat_keyword(&mut self, word: &str) -> Result<(), String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(())
        } else {
            Err(self.error(&format!("expected {word:?}")))
        }
    }

    fn parse_value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.parse_object(),
            Some(b'[') => self.parse_array(),
            Some(b'"') => Ok(Json::Str(self.parse_string()?)),
            Some(b'n') => self.eat_keyword("null").map(|()| Json::Null),
            Some(b't') => self.eat_keyword("true").map(|()| Json::Bool(true)),
            Some(b'f') => self.eat_keyword("false").map(|()| Json::Bool(false)),
            Some(b'-') | Some(b'0'..=b'9') => self.parse_int(),
            _ => Err(self.error("expected a value")),
        }
    }

    fn parse_object(&mut self) -> Result<Json, String> {
        self.eat(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.eat(b':')?;
            let value = self.parse_value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.error("expected ',' or '}'")),
            }
        }
    }

    fn parse_array(&mut self) -> Result<Json, String> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.error("expected ',' or ']'")),
            }
        }
    }

    fn parse_string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.error("truncated \\u escape"))?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| self.error("bad \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.error("bad \\u escape"))?;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.error("bad \\u code point"))?,
                            );
                            self.pos += 4;
                        }
                        _ => return Err(self.error("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 code point (the input is a &str,
                    // so boundaries are valid).
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| self.error("invalid utf-8"))?;
                    let c = rest.chars().next().unwrap();
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn parse_int(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if matches!(self.peek(), Some(b'.') | Some(b'e') | Some(b'E')) {
            return Err(self.error("non-integer number (the obs schema is integer-only)"));
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        text.parse::<i64>()
            .map(Json::Int)
            .map_err(|_| self.error("integer out of range"))
    }

    fn parse_document(&mut self) -> Result<Json, String> {
        let value = self.parse_value()?;
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(self.error("trailing content after document"));
        }
        Ok(value)
    }
}

// ---------------------------------------------------------------------------
// Validated documents
// ---------------------------------------------------------------------------

/// A validated `flowplace.obs.v1` document of either kind.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ObsDoc {
    /// A span trace.
    Trace(TraceDoc),
    /// A metrics dump.
    Metrics(MetricsDoc),
}

impl ObsDoc {
    /// The document's `"kind"` tag.
    pub fn kind(&self) -> &'static str {
        match self {
            ObsDoc::Trace(_) => "trace",
            ObsDoc::Metrics(_) => "metrics",
        }
    }
}

fn validate_trace(root: &Json) -> Result<TraceDoc, String> {
    if root.str_field("clock")? != "virtual" {
        return Err("trace clock must be \"virtual\"".to_string());
    }
    let final_tick = root.uint_field("final_tick")?;
    let final_virtual_ms = root.uint_field("final_virtual_ms")?;
    let mis_nested = root.uint_field("mis_nested")?;
    let mut spans = Vec::new();
    for (i, item) in root.arr_field("spans")?.iter().enumerate() {
        let context = |e: String| format!("span {i}: {e}");
        let id = item.uint_field("id").map_err(context)?;
        if id != i as u64 {
            return Err(format!("span {i}: id {id} out of order"));
        }
        let row = SpanData {
            name: item.str_field("name").map_err(context)?.to_string(),
            parent: item.opt_uint_field("parent").map_err(context)?.map(SpanId),
            depth: item.uint_field("depth").map_err(context)? as usize,
            start_tick: item.uint_field("start_tick").map_err(context)?,
            end_tick: item.opt_uint_field("end_tick").map_err(context)?,
            start_ms: item.uint_field("start_ms").map_err(context)?,
            end_ms: item.opt_uint_field("end_ms").map_err(context)?,
            attrs: item.string_map_field("attrs").map_err(context)?,
        };
        if row.name.is_empty() {
            return Err(format!("span {i}: empty name"));
        }
        if row.end_tick.is_some() != row.end_ms.is_some() {
            return Err(format!("span {i}: end_tick and end_ms must close together"));
        }
        if row.end_tick.is_some_and(|end| end < row.start_tick) {
            return Err(format!("span {i}: end_tick precedes start_tick"));
        }
        if row.end_ms.is_some_and(|end| end < row.start_ms) {
            return Err(format!("span {i}: end_ms precedes start_ms"));
        }
        // A span's last clock reading is its end, or its start while open.
        if row.end_tick.unwrap_or(row.start_tick) > final_tick {
            return Err(format!("span {i}: tick beyond final_tick"));
        }
        if row.end_ms.unwrap_or(row.start_ms) > final_virtual_ms {
            return Err(format!("span {i}: virtual ms beyond final_virtual_ms"));
        }
        match row.parent {
            None => {
                if row.depth != 0 {
                    return Err(format!("span {i}: root with nonzero depth"));
                }
            }
            Some(SpanId(p)) => {
                let parent: &SpanData = spans
                    .get(p as usize)
                    .ok_or_else(|| format!("span {i}: parent {p} not before child"))?;
                if row.depth != parent.depth + 1 {
                    return Err(format!("span {i}: depth does not match parent"));
                }
                if row.start_tick <= parent.start_tick {
                    return Err(format!("span {i}: begins before its parent"));
                }
                match (row.end_tick, parent.end_tick) {
                    (Some(end), Some(parent_end)) if end > parent_end => {
                        return Err(format!("span {i}: ends after its parent"));
                    }
                    (None, Some(_)) => {
                        return Err(format!("span {i}: open under a closed parent"));
                    }
                    _ => {}
                }
            }
        }
        spans.push(row);
    }
    Ok(TraceDoc {
        final_tick,
        final_virtual_ms,
        mis_nested,
        spans,
    })
}

fn validate_metrics(root: &Json) -> Result<MetricsDoc, String> {
    let mut metrics: Vec<Sample> = Vec::new();
    for (i, item) in root.arr_field("metrics")?.iter().enumerate() {
        let context = |e: String| format!("metric {i}: {e}");
        let name = item.str_field("name").map_err(context)?.to_string();
        if name.is_empty() {
            return Err(format!("metric {i}: empty name"));
        }
        let labels = item.string_map_field("labels").map_err(context)?;
        if !labels.windows(2).all(|w| w[0].0 < w[1].0) {
            return Err(format!("metric {i}: labels not sorted by key"));
        }
        let value = match item.str_field("type").map_err(context)? {
            "counter" => MetricValue::Counter(item.uint_field("value").map_err(context)?),
            "gauge" => MetricValue::Gauge(item.int_field("value").map_err(context)?),
            "histogram" => {
                let count = item.uint_field("count").map_err(context)?;
                let sum = item.uint_field("sum").map_err(context)?;
                let bucket_items = item.arr_field("buckets").map_err(context)?;
                if bucket_items.len() != HISTOGRAM_BOUNDS.len() + 1 {
                    return Err(format!("metric {i}: wrong bucket count"));
                }
                let mut buckets = Vec::with_capacity(bucket_items.len());
                for (bi, b) in bucket_items.iter().enumerate() {
                    let le = b.str_field("le").map_err(context)?;
                    let expect = match HISTOGRAM_BOUNDS.get(bi) {
                        Some(bound) => bound.to_string(),
                        None => "+inf".to_string(),
                    };
                    if le != expect {
                        return Err(format!(
                            "metric {i}: bucket {bi} bound {le:?} != {expect:?}"
                        ));
                    }
                    buckets.push(b.uint_field("count").map_err(context)?);
                }
                if buckets.iter().sum::<u64>() != count {
                    return Err(format!("metric {i}: buckets do not sum to count"));
                }
                MetricValue::Histogram(Histogram {
                    buckets,
                    sum,
                    count,
                })
            }
            other => return Err(format!("metric {i}: unknown type {other:?}")),
        };
        let row = Sample {
            name,
            labels,
            value,
        };
        if let Some(prev) = metrics.last() {
            if (&prev.name, &prev.labels) >= (&row.name, &row.labels) {
                return Err(format!("metric {i}: rows not sorted by (name, labels)"));
            }
        }
        metrics.push(row);
    }
    Ok(MetricsDoc { metrics })
}

/// Parses and validates a `flowplace.obs.v1` document (either kind).
///
/// Checks the schema tag, field types, span-tree well-formedness
/// (parents precede and enclose children, depths are consistent) and
/// metric-row canonical ordering — everything the writer guarantees.
pub fn validate_obs_json(text: &str) -> Result<ObsDoc, String> {
    let root = Parser::new(text).parse_document()?;
    let schema = root.str_field("schema")?;
    if schema != SCHEMA {
        return Err(format!("schema is {schema:?}, expected {SCHEMA:?}"));
    }
    match root.str_field("kind")? {
        "trace" => validate_trace(&root).map(ObsDoc::Trace),
        "metrics" => validate_metrics(&root).map(ObsDoc::Metrics),
        other => Err(format!("unknown kind {other:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Registry;
    use crate::span::Recorder;

    fn sample_recorder() -> Recorder {
        let rec = Recorder::new();
        let root = rec.begin("pipeline");
        rec.attr(root, "ingresses", 2u64);
        let stage = rec.begin("pipeline.depgraphs");
        rec.attr(stage, "built", 2u64);
        rec.end(stage);
        rec.set_virtual_ms(40);
        rec.end(root);
        rec
    }

    #[test]
    fn trace_round_trip_validates() {
        let rec = sample_recorder();
        let text = trace_to_json(&rec.doc());
        let doc = validate_obs_json(&text).unwrap();
        let ObsDoc::Trace(trace) = doc else {
            panic!("expected trace");
        };
        assert_eq!(trace, rec.doc());
        assert_eq!(trace.final_tick, 4);
        assert_eq!(trace.final_virtual_ms, 40);
        assert_eq!(trace.spans.len(), 2);
        assert_eq!(trace.spans[1].parent, Some(SpanId(0)));
        assert_eq!(trace.spans[1].attrs, vec![("built".into(), "2".into())]);
        assert_eq!(trace.spans[0].duration_ms(), Some(40));
    }

    #[test]
    fn metrics_round_trip_validates() {
        let reg = Registry::new();
        reg.counter_add("solves", &[("provenance", "memo")], 3);
        reg.gauge_set("tcam.occupancy", &[("switch", "s0")], 7);
        reg.observe("lat", &[], 3);
        reg.observe("lat", &[], 99999);
        let text = metrics_to_json(&reg.doc());
        let doc = validate_obs_json(&text).unwrap();
        let ObsDoc::Metrics(metrics) = doc else {
            panic!("expected metrics");
        };
        assert_eq!(metrics, reg.doc());
        assert_eq!(metrics.metrics.len(), 3);
        let hist = &metrics.metrics[0];
        assert_eq!(hist.name, "lat");
        match &hist.value {
            MetricValue::Histogram(h) => {
                assert_eq!(h.count, 2);
                assert_eq!(h.sum, 100002);
            }
            other => panic!("expected histogram, got {other:?}"),
        }
    }

    #[test]
    fn writer_output_is_deterministic() {
        let a = trace_to_json(&sample_recorder().doc());
        let b = trace_to_json(&sample_recorder().doc());
        assert_eq!(a, b);
    }

    #[test]
    fn validator_rejects_tampering() {
        let rec = sample_recorder();
        let good = trace_to_json(&rec.doc());
        assert!(validate_obs_json(&good.replace("flowplace.obs.v1", "bogus.v9")).is_err());
        assert!(
            validate_obs_json(&good.replace("\"kind\": \"trace\"", "\"kind\": \"x\"")).is_err()
        );
        // Child ending after its parent must be caught.
        let bad = good.replace(
            "\"start_tick\": 2, \"end_tick\": 3",
            "\"start_tick\": 2, \"end_tick\": 9",
        );
        assert!(validate_obs_json(&bad).is_err());
        assert!(validate_obs_json("{").is_err());
        assert!(validate_obs_json("").is_err());
    }

    /// `good` with `from` replaced by `to`, checked to have changed.
    fn tamper(good: &str, from: &str, to: &str) -> String {
        assert!(good.contains(from), "{from} not in {good}");
        good.replace(from, to)
    }

    /// A dump holding one open root span begun at tick 1, virtual ms 5.
    fn open_root_dump() -> String {
        let obs = crate::Obs::new();
        obs.spans.set_virtual_ms(5);
        obs.spans.begin("open");
        obs.trace_json()
    }

    #[test]
    fn validator_rejects_an_open_span_under_a_closed_parent() {
        let good = crate::Obs::new();
        let root = good.spans.begin("root");
        good.spans.begin("child");
        good.spans.end(root);
        let good = good.trace_json();
        assert!(validate_obs_json(&good).is_ok());
        let bad = tamper(
            &good,
            "\"start_tick\": 2, \"end_tick\": 3, \"start_ms\": 0, \"end_ms\": 0",
            "\"start_tick\": 2, \"end_tick\": null, \"start_ms\": 0, \"end_ms\": null",
        );
        let err = validate_obs_json(&bad).unwrap_err();
        assert!(err.contains("open under a closed parent"), "{err}");
    }

    #[test]
    fn validator_rejects_a_start_tick_past_final_tick() {
        let good = open_root_dump();
        assert!(validate_obs_json(&good).is_ok());
        let bad = tamper(&good, "\"final_tick\": 1", "\"final_tick\": 0");
        let err = validate_obs_json(&bad).unwrap_err();
        assert!(err.contains("beyond final_tick"), "{err}");
    }

    #[test]
    fn validator_rejects_a_start_ms_past_final_virtual_ms() {
        let good = open_root_dump();
        assert!(validate_obs_json(&good).is_ok());
        let bad = tamper(&good, "\"final_virtual_ms\": 5", "\"final_virtual_ms\": 4");
        let err = validate_obs_json(&bad).unwrap_err();
        assert!(err.contains("beyond final_virtual_ms"), "{err}");
    }

    #[test]
    fn validator_rejects_an_end_ms_past_final_virtual_ms() {
        let good = crate::Obs::new();
        let root = good.spans.begin("root");
        good.spans.set_virtual_ms(40);
        good.spans.end(root);
        let good = good.trace_json();
        assert!(validate_obs_json(&good).is_ok());
        let bad = tamper(
            &good,
            "\"final_virtual_ms\": 40",
            "\"final_virtual_ms\": 39",
        );
        let err = validate_obs_json(&bad).unwrap_err();
        assert!(err.contains("beyond final_virtual_ms"), "{err}");
    }

    #[test]
    fn validator_rejects_floats() {
        let err = validate_obs_json("{\"schema\": 1.5}").unwrap_err();
        assert!(err.contains("integer-only"), "{err}");
    }

    #[test]
    fn escape_handles_controls_and_quotes() {
        assert_eq!(escape_json("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape_json("\u{1}"), "\\u0001");
    }

    #[test]
    fn open_span_serializes_with_nulls() {
        let rec = Recorder::new();
        let _open = rec.begin("open");
        let text = trace_to_json(&rec.doc());
        assert!(text.contains("\"end_tick\": null"));
        let doc = validate_obs_json(&text).unwrap();
        let ObsDoc::Trace(trace) = doc else {
            panic!("expected trace");
        };
        assert_eq!(trace.spans[0].end_tick, None);
        assert_eq!(trace.spans[0].duration_ticks(), None);
    }
}
