//! Machine-readable experiment reports.
//!
//! A [`Report`] is the structured twin of a rendered [`Table`]: one per
//! experiment job, carrying the experiment id, the run mode, the primary
//! seed, and every table cell as a typed metric.  A [`ReportSet`] is what
//! `harness --json <path>` writes and what the `--compare` regression gate
//! reads back (see [`crate::baseline`]).
//!
//! Serialization is hand-rolled through [`tacoma_util::json`] because the
//! vendored serde is a no-op shim.  The JSON writer is deterministic and the
//! measured wall-clock time is deliberately **excluded** from it: the same
//! seed must produce byte-identical report files whether the runner used one
//! worker or eight, so reports stay diffable and the gate stays exact.
//! Wall-clock durations are printed in the harness run summary instead.

use crate::table::Table;
use std::fmt;
use std::path::Path;
use tacoma_util::{Json, MetricValue};

/// Version tag written into every report file; bump on layout changes.
pub const SCHEMA_VERSION: u64 = 1;

/// The structured result of one experiment job.
#[derive(Debug, Clone)]
pub struct Report {
    /// Experiment id, e.g. `"E1"` or `"A3"`.
    pub id: String,
    /// Human-readable experiment title (the table's title line).
    pub title: String,
    /// The primary seed the experiment derives its determinism from.
    pub seed: u64,
    /// Every table cell as a typed metric, keyed `r{row}.{column}`.
    pub metrics: Vec<(String, MetricValue)>,
    /// Measured wall-clock milliseconds for the job.  Never serialized —
    /// see the module docs — and ignored by `PartialEq`.
    pub wall_ms: f64,
}

impl PartialEq for Report {
    fn eq(&self, other: &Report) -> bool {
        self.id == other.id
            && self.title == other.title
            && self.seed == other.seed
            && self.metrics == other.metrics
    }
}

impl Report {
    /// Builds a report from a rendered table.
    pub fn from_table(id: &str, seed: u64, table: &Table, wall_ms: f64) -> Report {
        Report {
            id: id.to_string(),
            title: table.title.clone(),
            seed,
            metrics: table.metrics(),
            wall_ms,
        }
    }

    /// Looks up a metric by key.
    pub fn metric(&self, key: &str) -> Option<&MetricValue> {
        self.metrics.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    fn to_json(&self) -> Json {
        let mut metrics = Json::object();
        for (key, value) in &self.metrics {
            metrics.set(key.clone(), value.to_json());
        }
        let mut obj = Json::object();
        obj.set("id", Json::Str(self.id.clone()));
        obj.set("title", Json::Str(self.title.clone()));
        obj.set("seed", Json::Uint(self.seed));
        obj.set("metrics", metrics);
        obj
    }

    fn from_json(json: &Json) -> Result<Report, ReportError> {
        let id = json
            .get("id")
            .and_then(Json::as_str)
            .ok_or_else(|| ReportError::new("report missing string 'id'"))?
            .to_string();
        let title = json
            .get("title")
            .and_then(Json::as_str)
            .ok_or_else(|| ReportError::new(format!("report {id}: missing string 'title'")))?
            .to_string();
        let seed = json
            .get("seed")
            .and_then(Json::as_u64)
            .ok_or_else(|| ReportError::new(format!("report {id}: missing integer 'seed'")))?;
        let pairs = json
            .get("metrics")
            .and_then(Json::as_object)
            .ok_or_else(|| ReportError::new(format!("report {id}: missing object 'metrics'")))?;
        let mut metrics = Vec::with_capacity(pairs.len());
        for (key, value) in pairs {
            let value = MetricValue::from_json(value).ok_or_else(|| {
                ReportError::new(format!(
                    "report {id}: metric '{key}' has a non-scalar value"
                ))
            })?;
            metrics.push((key.clone(), value));
        }
        Ok(Report {
            id,
            title,
            seed,
            metrics,
            wall_ms: 0.0,
        })
    }
}

/// A whole harness run: mode plus one report per executed job.
#[derive(Debug, Clone, PartialEq)]
pub struct ReportSet {
    /// `"quick"` or `"full"`; compared runs must agree on it.
    pub mode: String,
    /// One report per job, in registry order (deterministic).
    pub reports: Vec<Report>,
}

impl ReportSet {
    /// Builds a set from per-job reports.
    pub fn new(quick: bool, reports: Vec<Report>) -> ReportSet {
        ReportSet {
            mode: if quick { "quick" } else { "full" }.to_string(),
            reports,
        }
    }

    /// Finds a report by experiment id.
    pub fn report(&self, id: &str) -> Option<&Report> {
        self.reports.iter().find(|r| r.id == id)
    }

    /// A copy containing only the reports whose id is in `ids`, preserving
    /// order.  The harness uses this to narrow a baseline to the experiments
    /// a `--filter` actually ran, so `--filter E1 --compare` gates E1 alone
    /// instead of reporting every skipped experiment as missing.
    pub fn restrict_to(&self, ids: &[&str]) -> ReportSet {
        ReportSet {
            mode: self.mode.clone(),
            reports: self
                .reports
                .iter()
                .filter(|r| ids.contains(&r.id.as_str()))
                .cloned()
                .collect(),
        }
    }

    /// Serializes the set to deterministic pretty-printed JSON.
    pub fn to_json_string(&self) -> String {
        let mut obj = Json::object();
        obj.set("schema", Json::Uint(SCHEMA_VERSION));
        obj.set("suite", Json::Str("tacoma_bench".into()));
        obj.set("mode", Json::Str(self.mode.clone()));
        obj.set(
            "reports",
            Json::Array(self.reports.iter().map(Report::to_json).collect()),
        );
        obj.to_pretty()
    }

    /// Parses a report set back from JSON text.
    pub fn from_json_str(text: &str) -> Result<ReportSet, ReportError> {
        let doc = Json::parse(text).map_err(|e| ReportError::new(e.to_string()))?;
        let schema = doc
            .get("schema")
            .and_then(Json::as_u64)
            .ok_or_else(|| ReportError::new("missing integer 'schema'"))?;
        if schema != SCHEMA_VERSION {
            return Err(ReportError::new(format!(
                "unsupported schema version {schema} (this binary reads {SCHEMA_VERSION})"
            )));
        }
        let mode = doc
            .get("mode")
            .and_then(Json::as_str)
            .ok_or_else(|| ReportError::new("missing string 'mode'"))?
            .to_string();
        let reports = doc
            .get("reports")
            .and_then(Json::as_array)
            .ok_or_else(|| ReportError::new("missing array 'reports'"))?
            .iter()
            .map(Report::from_json)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(ReportSet { mode, reports })
    }

    /// Writes the set to `path` as JSON.
    pub fn save(&self, path: &Path) -> Result<(), ReportError> {
        std::fs::write(path, self.to_json_string())
            .map_err(|e| ReportError::new(format!("writing {}: {e}", path.display())))
    }

    /// Reads a set from a JSON file at `path`.
    pub fn load(path: &Path) -> Result<ReportSet, ReportError> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| ReportError::new(format!("reading {}: {e}", path.display())))?;
        ReportSet::from_json_str(&text)
    }
}

/// A report serialization/deserialization failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReportError(String);

impl ReportError {
    fn new(message: impl Into<String>) -> ReportError {
        ReportError(message.into())
    }
}

impl fmt::Display for ReportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "report error: {}", self.0)
    }
}

impl std::error::Error for ReportError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_set() -> ReportSet {
        let mut table = Table::new(
            "E1 — demo",
            "claim",
            &["sites", "agent bytes", "saving", "ok"],
        );
        table.row(vec![
            "8".into(),
            "36540".into(),
            "15.3×".into(),
            "true".into(),
        ]);
        table.row(vec!["16".into(), "9.5".into(), "2×".into(), "false".into()]);
        let r1 = Report::from_table("E1", 7, &table, 12.5);
        let mut empty = Table::new("E4 — empty", "claim", &["n"]);
        empty.row(vec!["0".into()]);
        let r2 = Report::from_table("E4", 0, &empty, 0.1);
        ReportSet::new(true, vec![r1, r2])
    }

    #[test]
    fn json_round_trip_preserves_everything_but_wall_clock() {
        let set = sample_set();
        let text = set.to_json_string();
        let parsed = ReportSet::from_json_str(&text).unwrap();
        // PartialEq on Report ignores wall_ms by design.
        assert_eq!(parsed, set);
        assert_eq!(
            parsed.reports[0].wall_ms, 0.0,
            "wall clock is not persisted"
        );
        // A second serialization of the parsed set is byte-identical.
        assert_eq!(parsed.to_json_string(), text);
    }

    #[test]
    fn serialized_form_never_contains_wall_clock() {
        let text = sample_set().to_json_string();
        assert!(
            !text.contains("wall"),
            "wall-clock leaked into the report:\n{text}"
        );
    }

    #[test]
    fn metric_lookup_and_typing_survive_the_trip() {
        let text = sample_set().to_json_string();
        let parsed = ReportSet::from_json_str(&text).unwrap();
        let report = parsed.report("E1").unwrap();
        assert_eq!(
            report.metric("r0.agent_bytes"),
            Some(&MetricValue::Count(36540))
        );
        assert_eq!(
            report.metric("r1.agent_bytes"),
            Some(&MetricValue::Float(9.5))
        );
        assert_eq!(
            report.metric("r0.saving"),
            Some(&MetricValue::Text("15.3×".into()))
        );
        assert_eq!(report.metric("r0.ok"), Some(&MetricValue::Flag(true)));
        assert_eq!(report.metric("missing"), None);
    }

    #[test]
    fn restrict_to_keeps_only_named_reports_and_the_mode() {
        let set = sample_set();
        let narrowed = set.restrict_to(&["E4"]);
        assert_eq!(narrowed.mode, set.mode);
        assert_eq!(narrowed.reports.len(), 1);
        assert_eq!(narrowed.reports[0].id, "E4");
        assert!(set.restrict_to(&["nope"]).reports.is_empty());
    }

    #[test]
    fn rejects_wrong_schema_and_malformed_documents() {
        assert!(ReportSet::from_json_str("{}").is_err());
        assert!(ReportSet::from_json_str("not json").is_err());
        let wrong = r#"{"schema": 999, "mode": "quick", "reports": []}"#;
        let err = ReportSet::from_json_str(wrong).unwrap_err();
        assert!(err.to_string().contains("schema"), "got: {err}");
    }
}
