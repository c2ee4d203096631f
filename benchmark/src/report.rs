//! The result file: what a run measured, as JSON that `compare` reads back.
//!
//! ```text
//! { "schema": 1, "seed": 1, "smoke": false, "nproc": 2,
//!   "workloads": [ { "name": "flood_mesh", "reps": 5, "correct": true,
//!                    "attempted": 999429, "failed": 0, "sim_digest": "…",
//!                    "violations": [],
//!                    "metrics": { "wall_s": { "unit": "s", "median": 2.1,
//!                                 "q1": 2.0, "q3": 2.2, "n": 5,
//!                                 "samples": [ … ] } } } ] }
//! ```

use crate::metrics::{end_to_end, per_layer};
use crate::stats::quartiles;
use std::collections::BTreeMap;
use tacoma_util::Json;

pub const SCHEMA: u64 = 1;

/// One metric's samples, one per measured repetition.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Samples {
    pub values: Vec<f64>,
}

impl Samples {
    pub fn of(values: Vec<f64>) -> Self {
        Samples { values }
    }

    pub fn median(&self) -> f64 {
        quartiles(&self.values).1
    }

    pub fn min(&self) -> f64 {
        self.values.iter().copied().fold(f64::INFINITY, f64::min)
    }

    pub fn max(&self) -> f64 {
        self.values
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max)
    }
}

/// The unit of a metric of either catalogue.
pub fn unit_of(name: &str) -> Option<&'static str> {
    end_to_end(name)
        .map(|m| m.unit)
        .or_else(|| per_layer(name).map(|l| l.unit))
}

/// What one workload's run measured.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadReport {
    pub name: String,
    pub reps: usize,
    pub sim_digest: u64,
    pub attempted: u64,
    /// Operations that ended in a way no workload plans for.
    pub failed: u64,
    /// Why the outputs are wrong; empty when they verified.
    pub violations: Vec<String>,
    pub metrics: BTreeMap<String, Samples>,
}

impl WorkloadReport {
    pub fn new(name: &str, reps: usize) -> Self {
        WorkloadReport {
            name: name.to_string(),
            reps,
            sim_digest: 0,
            attempted: 0,
            failed: 0,
            violations: Vec::new(),
            metrics: BTreeMap::new(),
        }
    }

    pub fn correct(&self) -> bool {
        self.violations.is_empty()
    }

    pub fn sample(&mut self, metric: &str, value: f64) {
        self.metrics
            .entry(metric.to_string())
            .or_default()
            .values
            .push(value);
    }

    /// `{name: {"value": median, "unit": unit}}` for the metrics `unit` knows.
    pub fn medians_json(&self, unit: impl Fn(&str) -> Option<&'static str>) -> Json {
        let mut out = Json::object();
        for (name, samples) in &self.metrics {
            if let Some(unit) = unit(name) {
                let mut m = Json::object();
                m.set("value", Json::Float(samples.median()));
                m.set("unit", Json::Str(unit.to_string()));
                out.set(name.clone(), m);
            }
        }
        out
    }

    pub fn to_json(&self) -> Json {
        let mut metrics = Json::object();
        for (name, samples) in &self.metrics {
            let (q1, med, q3) = quartiles(&samples.values);
            let mut m = Json::object();
            m.set("unit", Json::Str(unit_of(name).unwrap_or("").to_string()));
            m.set("median", Json::Float(med));
            m.set("q1", Json::Float(q1));
            m.set("q3", Json::Float(q3));
            m.set("n", Json::Uint(samples.values.len() as u64));
            m.set(
                "samples",
                Json::Array(samples.values.iter().map(|v| Json::Float(*v)).collect()),
            );
            metrics.set(name.clone(), m);
        }
        let mut o = Json::object();
        o.set("name", Json::Str(self.name.clone()));
        o.set("reps", Json::Uint(self.reps as u64));
        o.set("correct", Json::Bool(self.correct()));
        o.set("attempted", Json::Uint(self.attempted));
        o.set("failed", Json::Uint(self.failed));
        o.set("sim_digest", Json::Str(format!("{:016x}", self.sim_digest)));
        o.set(
            "violations",
            Json::Array(self.violations.iter().cloned().map(Json::Str).collect()),
        );
        o.set("metrics", metrics);
        o
    }

    pub fn from_json(json: &Json) -> Result<Self, String> {
        let field = |key: &str| {
            json.get(key)
                .ok_or_else(|| format!("workload lacks '{key}'"))
        };
        let name = field("name")?.as_str().ok_or("'name' is not a string")?;
        let mut report = WorkloadReport::new(
            name,
            field("reps")?.as_u64().ok_or("'reps' is not a count")? as usize,
        );
        report.attempted = field("attempted")?
            .as_u64()
            .ok_or("'attempted' is not a count")?;
        report.failed = field("failed")?.as_u64().ok_or("'failed' is not a count")?;
        report.sim_digest = field("sim_digest")?
            .as_str()
            .and_then(|s| u64::from_str_radix(s, 16).ok())
            .ok_or("'sim_digest' is not a hex digest")?;
        for v in field("violations")?
            .as_array()
            .ok_or("'violations' is not an array")?
        {
            let v = v.as_str().ok_or("a violation is not a string")?;
            report.violations.push(v.to_string());
        }
        for (metric, m) in field("metrics")?
            .as_object()
            .ok_or("'metrics' is not an object")?
        {
            let samples = m
                .get("samples")
                .and_then(Json::as_array)
                .ok_or_else(|| format!("metric '{metric}' lacks samples"))?;
            let values: Option<Vec<f64>> = samples.iter().map(Json::as_f64).collect();
            let values =
                values.ok_or_else(|| format!("metric '{metric}': a sample is not a number"))?;
            report.metrics.insert(metric.clone(), Samples::of(values));
        }
        Ok(report)
    }
}

/// A whole run: every workload, one seed.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    pub seed: u64,
    pub smoke: bool,
    pub nproc: u64,
    pub workloads: Vec<WorkloadReport>,
}

impl RunReport {
    pub fn to_json(&self) -> Json {
        let mut o = Json::object();
        o.set("schema", Json::Uint(SCHEMA));
        o.set("seed", Json::Uint(self.seed));
        o.set("smoke", Json::Bool(self.smoke));
        o.set("nproc", Json::Uint(self.nproc));
        o.set(
            "workloads",
            Json::Array(self.workloads.iter().map(WorkloadReport::to_json).collect()),
        );
        o
    }

    pub fn from_json(json: &Json) -> Result<Self, String> {
        let field = |key: &str| json.get(key).ok_or_else(|| format!("report lacks '{key}'"));
        let schema = field("schema")?.as_u64();
        if schema != Some(SCHEMA) {
            return Err(format!("schema {schema:?}, this build reads {SCHEMA}"));
        }
        let workloads: Result<Vec<WorkloadReport>, String> = field("workloads")?
            .as_array()
            .ok_or("'workloads' is not an array")?
            .iter()
            .map(WorkloadReport::from_json)
            .collect();
        Ok(RunReport {
            seed: field("seed")?.as_u64().ok_or("'seed' is not a count")?,
            smoke: field("smoke")?.as_bool().ok_or("'smoke' is not a bool")?,
            nproc: field("nproc")?.as_u64().ok_or("'nproc' is not a count")?,
            workloads: workloads?,
        })
    }

    pub fn workload(&self, name: &str) -> Option<&WorkloadReport> {
        self.workloads.iter().find(|w| w.name == name)
    }
}

/// One line of JSON: the pretty writer's output with its line structure
/// removed.  Strings never hold a raw newline (the writer escapes them), so
/// every line break in the pretty form is layout.
pub fn one_line(json: &Json) -> String {
    json.to_pretty().lines().map(str::trim_start).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> RunReport {
        let mut w = WorkloadReport::new("flood_mesh", 3);
        w.sim_digest = 0xdead_beef_0123_4567;
        w.attempted = 999_429;
        w.failed = 0;
        for v in [2.25, 2.0, 2.5] {
            w.sample("wall_s", v);
        }
        w.sample("sim_wire_bytes", 1.0e8);
        let mut bad = WorkloadReport::new("mail_overload", 1);
        bad.violations.push("3 mails lost, 2 meets shed".into());
        RunReport {
            seed: 7,
            smoke: true,
            nproc: 2,
            workloads: vec![w, bad],
        }
    }

    #[test]
    fn result_file_round_trips_through_its_schema() {
        let report = sample_report();
        let text = report.to_json().to_pretty();
        let back = RunReport::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, report);

        let json = Json::parse(&text).unwrap();
        assert_eq!(json.get("schema").and_then(Json::as_u64), Some(SCHEMA));
        let w = &json.get("workloads").unwrap().as_array().unwrap()[0];
        for key in [
            "name",
            "reps",
            "correct",
            "attempted",
            "failed",
            "sim_digest",
            "violations",
            "metrics",
        ] {
            assert!(w.get(key).is_some(), "workload lacks {key}");
        }
        let wall = w.get("metrics").unwrap().get("wall_s").unwrap();
        assert_eq!(wall.get("unit").and_then(Json::as_str), Some("s"));
        assert_eq!(wall.get("median").and_then(Json::as_f64), Some(2.25));
        assert_eq!(wall.get("q1").and_then(Json::as_f64), Some(2.0));
        assert_eq!(wall.get("q3").and_then(Json::as_f64), Some(2.5));
        assert_eq!(wall.get("n").and_then(Json::as_u64), Some(3));
        assert_eq!(
            w.get("correct").and_then(Json::as_bool),
            Some(true),
            "no violations means correct"
        );
    }

    #[test]
    fn a_report_of_another_schema_is_refused() {
        let mut json = sample_report().to_json();
        json.set("schema", Json::Uint(SCHEMA + 1));
        assert!(RunReport::from_json(&json).is_err());
        assert!(RunReport::from_json(&Json::object()).is_err());
    }

    #[test]
    fn one_line_is_one_line_and_still_json() {
        let json = sample_report().to_json();
        let line = one_line(&json);
        assert!(!line.contains('\n'));
        assert_eq!(Json::parse(&line).unwrap(), json);
    }

    #[test]
    fn contract_medians_carry_value_and_unit() {
        let report = sample_report();
        let m = report.workloads[0].medians_json(|n| (n == "wall_s").then_some("s"));
        let m = m.as_object().unwrap();
        assert_eq!(m.len(), 1);
        assert_eq!(m[0].0, "wall_s");
        assert_eq!(m[0].1.get("value").and_then(Json::as_f64), Some(2.25));
        assert_eq!(m[0].1.get("unit").and_then(Json::as_str), Some("s"));
    }
}
