//! Runs the built benchmark in `--smoke` mode and holds its output to
//! the contract: every workload prints every end-to-end and per-layer
//! metric with its unit, names are plain, the result objects parse,
//! and the names and units are the ones `BENCHMARK.json` declares.

use std::collections::BTreeMap;
use std::process::Command;

/// A parsed JSON value; just enough of a parser to read the
/// benchmark's own output and `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(fields) => fields
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .unwrap_or_else(|| panic!("no key {key:?}")),
            other => panic!("{other:?} is not an object"),
        }
    }

    fn items(&self) -> &[Json] {
        match self {
            Json::Arr(items) => items,
            other => panic!("{other:?} is not an array"),
        }
    }

    fn fields(&self) -> &[(String, Json)] {
        match self {
            Json::Obj(fields) => fields,
            other => panic!("{other:?} is not an object"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("{other:?} is not a string"),
        }
    }

    fn num(&self) -> f64 {
        match self {
            Json::Num(n) => *n,
            other => panic!("{other:?} is not a number"),
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            at: 0,
        };
        let value = p.value()?;
        p.space();
        if p.at == p.bytes.len() {
            Ok(value)
        } else {
            Err(format!("trailing input at byte {}", p.at))
        }
    }

    fn space(&mut self) {
        while self.at < self.bytes.len() && self.bytes[self.at].is_ascii_whitespace() {
            self.at += 1;
        }
    }

    fn eat(&mut self, byte: u8) -> Result<(), String> {
        self.space();
        if self.bytes.get(self.at) == Some(&byte) {
            self.at += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", byte as char, self.at))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.at..].starts_with(word.as_bytes()) {
            self.at += word.len();
            Ok(value)
        } else {
            Err(format!("bad literal at byte {}", self.at))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.space();
        match self.bytes.get(self.at).copied() {
            Some(b'{') => {
                self.at += 1;
                let mut fields = Vec::new();
                self.space();
                if self.bytes.get(self.at) == Some(&b'}') {
                    self.at += 1;
                    return Ok(Json::Obj(fields));
                }
                loop {
                    self.space();
                    let key = self.string()?;
                    self.eat(b':')?;
                    fields.push((key, self.value()?));
                    self.space();
                    match self.bytes.get(self.at) {
                        Some(b',') => self.at += 1,
                        Some(b'}') => {
                            self.at += 1;
                            return Ok(Json::Obj(fields));
                        }
                        _ => return Err(format!("expected , or }} at byte {}", self.at)),
                    }
                }
            }
            Some(b'[') => {
                self.at += 1;
                let mut items = Vec::new();
                self.space();
                if self.bytes.get(self.at) == Some(&b']') {
                    self.at += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    self.space();
                    match self.bytes.get(self.at) {
                        Some(b',') => self.at += 1,
                        Some(b']') => {
                            self.at += 1;
                            return Ok(Json::Arr(items));
                        }
                        _ => return Err(format!("expected , or ] at byte {}", self.at)),
                    }
                }
            }
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(_) => {
                let start = self.at;
                while self
                    .bytes
                    .get(self.at)
                    .is_some_and(|b| b"+-.eE0123456789".contains(b))
                {
                    self.at += 1;
                }
                std::str::from_utf8(&self.bytes[start..self.at])
                    .ok()
                    .and_then(|s| s.parse().ok())
                    .map(Json::Num)
                    .ok_or_else(|| format!("bad number at byte {start}"))
            }
            None => Err("unexpected end of input".into()),
        }
    }

    /// A string without escapes other than `\"` and `\\` — all the
    /// benchmark's files use.
    fn string(&mut self) -> Result<String, String> {
        if self.bytes.get(self.at) != Some(&b'"') {
            return Err(format!("expected a string at byte {}", self.at));
        }
        self.at += 1;
        let mut out = Vec::new();
        loop {
            match self.bytes.get(self.at).copied() {
                Some(b'"') => {
                    self.at += 1;
                    return String::from_utf8(out).map_err(|e| e.to_string());
                }
                Some(b'\\') => {
                    match self.bytes.get(self.at + 1).copied() {
                        Some(c @ (b'"' | b'\\')) => out.push(c),
                        _ => return Err(format!("unsupported escape at byte {}", self.at)),
                    }
                    self.at += 2;
                }
                Some(c) => {
                    out.push(c);
                    self.at += 1;
                }
                None => return Err("unterminated string".into()),
            }
        }
    }
}

fn plain(name: &str) -> bool {
    !name.is_empty()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
}

/// `(name, unit)` of every metric a `BENCHMARK.json` section declares.
fn declared(doc: &Json, section: &str) -> Vec<(String, String)> {
    doc.get(section)
        .items()
        .iter()
        .map(|m| {
            (
                m.get("name").str().to_string(),
                m.get("unit").str().to_string(),
            )
        })
        .collect()
}

#[test]
fn smoke_run_emits_every_declared_metric() {
    let manifest_dir = env!("CARGO_MANIFEST_DIR");
    let contract = std::fs::read_to_string(format!("{manifest_dir}/../BENCHMARK.json"))
        .expect("BENCHMARK.json sits at the repo root");
    let contract = Parser::parse(&contract).expect("BENCHMARK.json parses");
    let workloads: Vec<&str> = contract
        .get("workloads")
        .items()
        .iter()
        .map(|w| w.get("name").str())
        .collect();
    assert_eq!(workloads.len(), 4);
    let end_to_end = declared(&contract, "end_to_end");
    let per_layer = declared(&contract, "per_layer");
    assert!(end_to_end.iter().any(|(n, u)| n == "setup_s" && u == "s"));

    let out_dir = format!("{}/smoke-out", env!("CARGO_TARGET_TMPDIR"));
    let output = Command::new(env!("CARGO_BIN_EXE_flowplace-benchmark"))
        .args(["--smoke", "--seed", "3", "--out", &out_dir])
        .output()
        .expect("the benchmark binary runs");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(output.status.success(), "smoke run failed: {stderr}");
    let stdout = String::from_utf8(output.stdout).expect("utf-8 output");

    // Text lines: `workload metric value unit`.
    let mut printed: BTreeMap<(String, String), String> = BTreeMap::new();
    let mut results: Vec<Json> = Vec::new();
    for line in stdout.lines() {
        if line.starts_with('#') {
            continue;
        }
        if line.starts_with('{') {
            results.push(Parser::parse(line).unwrap_or_else(|e| panic!("{e}: {line}")));
            continue;
        }
        let words: Vec<&str> = line.split(' ').collect();
        let [workload, metric, value, unit] = words[..] else {
            panic!("not `workload metric value unit`: {line:?}");
        };
        assert!(plain(workload) && plain(metric), "name not plain: {line:?}");
        assert!(
            value.parse::<f64>().is_ok_and(f64::is_finite),
            "not a number: {line:?}"
        );
        let again = printed.insert((workload.into(), metric.into()), unit.into());
        assert!(again.is_none(), "printed twice: {line:?}");
    }
    for workload in &workloads {
        for (name, unit) in end_to_end.iter().chain(&per_layer) {
            let key = (workload.to_string(), name.clone());
            assert_eq!(
                printed.get(&key),
                Some(unit),
                "{workload} {name} missing or in another unit"
            );
        }
    }
    assert_eq!(
        printed.len(),
        workloads.len() * (end_to_end.len() + per_layer.len()),
        "a metric BENCHMARK.json does not declare was printed"
    );

    // One result object per workload; a smoke run is traced, so each
    // carries exactly the per-layer metrics.
    assert_eq!(results.len(), workloads.len());
    for result in &results {
        let keys: Vec<&str> = result.fields().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(result.get("correct"), &Json::Bool(true));
        assert!(result.get("attempted").num() >= 1.0);
        assert_eq!(result.get("failed").num(), 0.0);
        let metrics: Vec<(String, String)> = result
            .get("metrics")
            .fields()
            .iter()
            .map(|(name, m)| {
                assert!(m.get("value").num().is_finite());
                (name.clone(), m.get("unit").str().to_string())
            })
            .collect();
        assert_eq!(metrics, per_layer);
    }

    // The traced round wrote one parsable trace per workload.
    for workload in &workloads {
        let path = format!("{out_dir}/trace-{workload}.json");
        let trace = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
        let trace = Parser::parse(&trace).unwrap_or_else(|e| panic!("{path}: {e}"));
        assert_eq!(trace.get("workload").str(), *workload);
        let calls = trace.get("calls").num();
        assert!(calls >= 1.0);
        let spans = trace.get("spans").items();
        assert!(spans.iter().all(|s| {
            plain(s.get("name").str())
                && s.get("start").num() <= s.get("end").num()
                && s.get("parent").num() < calls
        }));
    }
}

#[test]
fn untraced_result_carries_the_end_to_end_metrics() {
    let manifest_dir = env!("CARGO_MANIFEST_DIR");
    let contract = std::fs::read_to_string(format!("{manifest_dir}/../BENCHMARK.json")).unwrap();
    let end_to_end = declared(&Parser::parse(&contract).unwrap(), "end_to_end");
    // The driver's calling convention, at smoke size.
    let output = Command::new(env!("CARGO_BIN_EXE_flowplace-benchmark"))
        .args([
            "--workload",
            "churn-1k",
            "--seed",
            "4",
            "--seconds",
            "1",
            "--trace",
            "0",
            "--smoke",
        ])
        .output()
        .expect("the benchmark binary runs");
    assert!(output.status.success());
    let stdout = String::from_utf8(output.stdout).unwrap();
    let result = Parser::parse(stdout.lines().last().unwrap()).unwrap();
    let metrics: Vec<(String, String)> = result
        .get("metrics")
        .fields()
        .iter()
        .map(|(name, m)| {
            assert!(m.get("value").num() > 0.0, "{name} must never be 0");
            (name.clone(), m.get("unit").str().to_string())
        })
        .collect();
    assert_eq!(metrics, end_to_end);
}

#[test]
fn bad_arguments_exit_with_usage_error() {
    for args in [&["--workload", "nope"][..], &["--seed"], &["--frobnicate"]] {
        let output = Command::new(env!("CARGO_BIN_EXE_flowplace-benchmark"))
            .args(args)
            .output()
            .expect("the benchmark binary runs");
        assert_eq!(output.status.code(), Some(2), "{args:?}");
        assert!(output.stdout.is_empty(), "{args:?} printed a result");
    }
}
