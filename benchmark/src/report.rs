//! Measured values against the metrics `BENCHMARK.json` declares, and the
//! one-line JSON result. `BENCHMARK.json` is the only place a metric's name,
//! unit and bound are written; a value measured under a name it does not
//! declare is an error, so the two cannot drift.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use temco_obs::chrome::{parse_json, Json};

pub struct Metric {
    pub name: String,
    pub unit: String,
    /// `true` when larger is better.
    pub higher: bool,
    /// Share of the median by which the metric may worsen (end-to-end only).
    pub bound: f64,
}

pub struct Declared {
    pub run_seconds: u64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
}

fn array<'a>(root: &'a Json, key: &str) -> Result<&'a [Json], String> {
    match root.get(key) {
        Some(Json::Arr(a)) => Ok(a),
        _ => Err(format!("BENCHMARK.json: no array {key:?}")),
    }
}

fn string(obj: &Json, key: &str) -> Result<String, String> {
    obj.get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("BENCHMARK.json: entry without a string {key:?}"))
}

fn metrics(root: &Json, key: &str) -> Result<Vec<Metric>, String> {
    array(root, key)?
        .iter()
        .map(|m| {
            Ok(Metric {
                name: string(m, "name")?,
                unit: string(m, "unit")?,
                higher: string(m, "better")? == "higher",
                bound: m.get("bound").and_then(Json::as_f64).unwrap_or(0.0),
            })
        })
        .collect()
}

impl Declared {
    /// Read `BENCHMARK.json` from the working directory (the repo root).
    pub fn load() -> Result<Declared, String> {
        let text = std::fs::read_to_string("BENCHMARK.json")
            .map_err(|e| format!("BENCHMARK.json (run from the repo root): {e}"))?;
        let root = parse_json(&text)?;
        Ok(Declared {
            run_seconds: root
                .get("run_seconds")
                .and_then(Json::as_f64)
                .ok_or("BENCHMARK.json: no run_seconds")? as u64,
            workloads: array(&root, "workloads")?
                .iter()
                .map(|w| string(w, "name"))
                .collect::<Result<_, _>>()?,
            end_to_end: metrics(&root, "end_to_end")?,
            per_layer: metrics(&root, "per_layer")?,
        })
    }
}

/// Values by metric name.
#[derive(Default)]
pub struct Metrics(BTreeMap<String, f64>);

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64) {
        let old = self.0.insert(name.to_string(), value);
        assert!(old.is_none(), "metric {name} measured twice");
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// What one run of one workload measured.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Outputs, golden files, plan invariants and request conservation all
    /// held. (A late load generator invalidates timings, not outputs.)
    pub correct: bool,
    pub metrics: Metrics,
}

/// The result line. An end-to-end metric must have been measured; a
/// per-layer metric of a layer the workload never enters reads 0.
pub fn result_line(declared: &Declared, trace: bool, outcome: &Outcome) -> Result<String, String> {
    let known =
        |name: &str| declared.end_to_end.iter().chain(&declared.per_layer).any(|m| m.name == name);
    if let Some(stray) = outcome.metrics.0.keys().find(|name| !known(name)) {
        return Err(format!("metric {stray} is measured but not declared in BENCHMARK.json"));
    }
    let list = if trace { &declared.per_layer } else { &declared.end_to_end };
    let mut body = String::new();
    for (i, m) in list.iter().enumerate() {
        let value = match outcome.metrics.get(&m.name) {
            Some(v) => v,
            None if trace => 0.0,
            None => return Err(format!("end-to-end metric {} was not measured", m.name)),
        };
        if !value.is_finite() {
            return Err(format!("metric {} is not a finite number", m.name));
        }
        let sep = if i == 0 { "" } else { ", " };
        let _ =
            write!(body, "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}", m.name, m.unit);
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
        outcome.correct, outcome.attempted, outcome.failed
    ))
}
