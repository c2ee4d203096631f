//! The `--compare` regression gate: diff a fresh run against a committed
//! baseline report, metric by metric, within one tolerance.
//!
//! The simulator is deterministic, so on an unchanged tree every metric
//! matches its baseline exactly; tolerances exist to absorb *intentional*
//! small drift (e.g. a payload-size tweak) without forcing a baseline
//! refresh for every PR.  Numeric metrics pass while within their tolerance
//! of the baseline value — drift in *either* direction beyond it fails,
//! because in a deterministic harness unexplained improvement is as
//! suspicious as regression.  Text and flag metrics must match exactly.
//!
//! The tolerance is [`DEFAULT_TOLERANCE`]; wall-clock time is never
//! compared because it is never serialized (see [`crate::report`]).

use crate::report::ReportSet;
use std::fmt;
use tacoma_util::{MetricValue, Tolerance};

/// Default relative tolerance applied to every numeric metric: 2%.
pub const DEFAULT_TOLERANCE: Tolerance = Tolerance {
    rel: 0.02,
    abs: 0.0,
};

/// One comparison failure or notable difference.
#[derive(Debug, Clone, PartialEq)]
pub struct Finding {
    /// Experiment id the finding belongs to (empty for set-level findings).
    pub experiment: String,
    /// Metric key, when the finding is about one metric.
    pub metric: String,
    /// Human-readable description.
    pub detail: String,
    /// Whether this finding fails the gate (additions are informational).
    pub fatal: bool,
}

impl Finding {
    fn fatal(experiment: &str, metric: &str, detail: String) -> Finding {
        Finding {
            experiment: experiment.to_string(),
            metric: metric.to_string(),
            detail,
            fatal: true,
        }
    }

    fn info(experiment: &str, metric: &str, detail: String) -> Finding {
        Finding {
            experiment: experiment.to_string(),
            metric: metric.to_string(),
            detail,
            fatal: false,
        }
    }
}

/// The outcome of comparing a run against a baseline.
#[derive(Debug, Clone, Default)]
pub struct CompareOutcome {
    /// Every difference found, fatal and informational.
    pub findings: Vec<Finding>,
    /// Metrics compared (for the summary line).
    pub metrics_checked: usize,
}

impl CompareOutcome {
    /// Whether the gate passes.
    pub fn passed(&self) -> bool {
        !self.findings.iter().any(|f| f.fatal)
    }

    /// Fatal findings only.
    pub fn failures(&self) -> impl Iterator<Item = &Finding> {
        self.findings.iter().filter(|f| f.fatal)
    }
}

impl fmt::Display for CompareOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let fatal = self.failures().count();
        if self.passed() {
            write!(
                f,
                "PASS: {} metric(s) within tolerance of the baseline",
                self.metrics_checked
            )?;
        } else {
            write!(
                f,
                "FAIL: {} regression(s) across {} compared metric(s)",
                fatal, self.metrics_checked
            )?;
        }
        for finding in &self.findings {
            let tag = if finding.fatal { "regression" } else { "note" };
            let place = if finding.metric.is_empty() {
                finding.experiment.clone()
            } else {
                format!("{}.{}", finding.experiment, finding.metric)
            };
            write!(f, "\n  [{tag}] {place}: {}", finding.detail)?;
        }
        Ok(())
    }
}

/// Compares `current` against `baseline`, every numeric metric under
/// [`DEFAULT_TOLERANCE`].
pub fn compare(baseline: &ReportSet, current: &ReportSet) -> CompareOutcome {
    let mut outcome = CompareOutcome::default();
    if baseline.mode != current.mode {
        outcome.findings.push(Finding::fatal(
            "",
            "",
            format!(
                "mode mismatch: baseline is a '{}' run, current is '{}' — compare like with like",
                baseline.mode, current.mode
            ),
        ));
        return outcome;
    }
    for base_report in &baseline.reports {
        let id = base_report.id.as_str();
        let Some(cur_report) = current.report(id) else {
            outcome.findings.push(Finding::fatal(
                id,
                "",
                "experiment present in baseline but missing from this run".into(),
            ));
            continue;
        };
        if base_report.seed != cur_report.seed {
            outcome.findings.push(Finding::fatal(
                id,
                "",
                format!(
                    "seed changed ({} -> {}); refresh the baseline",
                    base_report.seed, cur_report.seed
                ),
            ));
        }
        for (key, base_value) in &base_report.metrics {
            let Some(cur_value) = cur_report.metric(key) else {
                outcome.findings.push(Finding::fatal(
                    id,
                    key,
                    format!("metric missing from this run (baseline: {base_value})"),
                ));
                continue;
            };
            outcome.metrics_checked += 1;
            if !cur_value.within(base_value, DEFAULT_TOLERANCE) {
                outcome.findings.push(Finding::fatal(
                    id,
                    key,
                    describe_drift(base_value, cur_value),
                ));
            }
        }
        for (key, cur_value) in &cur_report.metrics {
            if base_report.metric(key).is_none() {
                outcome.findings.push(Finding::info(
                    id,
                    key,
                    format!("new metric not in baseline (value: {cur_value})"),
                ));
            }
        }
    }
    for cur_report in &current.reports {
        if baseline.report(&cur_report.id).is_none() {
            outcome.findings.push(Finding::info(
                &cur_report.id,
                "",
                "new experiment not in baseline — refresh it to start tracking".into(),
            ));
        }
    }
    outcome
}

fn describe_drift(base: &MetricValue, cur: &MetricValue) -> String {
    let tol = DEFAULT_TOLERANCE;
    match (base.as_number(), cur.as_number()) {
        (Some(b), Some(c)) if b != 0.0 => {
            let pct = (c - b) / b * 100.0;
            format!(
                "{b} -> {c} ({pct:+.2}%, tolerance rel {:.1}% abs {})",
                tol.rel * 100.0,
                tol.abs
            )
        }
        _ => format!("baseline {base} != current {cur}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::Report;

    fn set_with(id: &str, metrics: Vec<(&str, MetricValue)>) -> ReportSet {
        ReportSet::new(
            true,
            vec![Report {
                id: id.to_string(),
                title: format!("{id} — test"),
                seed: 1,
                metrics: metrics
                    .into_iter()
                    .map(|(k, v)| (k.to_string(), v))
                    .collect(),
                wall_ms: 0.0,
            }],
        )
    }

    #[test]
    fn identical_runs_pass() {
        let base = set_with("E1", vec![("r0.bytes", MetricValue::Count(1000))]);
        let outcome = compare(&base, &base.clone());
        assert!(outcome.passed(), "{outcome}");
        assert_eq!(outcome.metrics_checked, 1);
    }

    #[test]
    fn drift_at_tolerance_passes_and_past_it_fails() {
        let base = set_with("E1", vec![("r0.bytes", MetricValue::Count(1000))]);
        // 2% default tolerance: 1020 is on the boundary, 1021 is past it.
        let at = set_with("E1", vec![("r0.bytes", MetricValue::Count(1020))]);
        assert!(compare(&base, &at).passed());
        let past = set_with("E1", vec![("r0.bytes", MetricValue::Count(1021))]);
        let outcome = compare(&base, &past);
        assert!(!outcome.passed());
        assert_eq!(outcome.failures().count(), 1);
        assert!(outcome.to_string().contains("FAIL"), "{outcome}");
    }

    #[test]
    fn improvement_beyond_tolerance_also_fails() {
        // Deterministic harness: unexplained drift downward is a red flag too.
        let base = set_with("E1", vec![("r0.bytes", MetricValue::Count(1000))]);
        let better = set_with("E1", vec![("r0.bytes", MetricValue::Count(900))]);
        assert!(!compare(&base, &better).passed());
    }

    #[test]
    fn missing_experiment_or_metric_fails_but_additions_inform() {
        let base = set_with("E1", vec![("r0.bytes", MetricValue::Count(1))]);
        let empty = ReportSet::new(true, Vec::new());
        assert!(!compare(&base, &empty).passed());

        let fewer = set_with("E1", vec![]);
        assert!(!compare(&base, &fewer).passed());

        let more = set_with(
            "E1",
            vec![
                ("r0.bytes", MetricValue::Count(1)),
                ("r0.extra", MetricValue::Count(9)),
            ],
        );
        let outcome = compare(&base, &more);
        assert!(outcome.passed(), "additions are informational: {outcome}");
        assert_eq!(outcome.findings.len(), 1);
        assert!(!outcome.findings[0].fatal);
    }

    #[test]
    fn mode_mismatch_is_fatal_up_front() {
        let base = set_with("E1", vec![("r0.bytes", MetricValue::Count(1))]);
        let mut full = base.clone();
        full.mode = "full".into();
        let outcome = compare(&base, &full);
        assert!(!outcome.passed());
        assert!(outcome.to_string().contains("mode mismatch"));
    }

    #[test]
    fn text_metric_change_is_a_regression() {
        let base = set_with("E1", vec![("r0.saving", MetricValue::Text("15.3×".into()))]);
        let cur = set_with("E1", vec![("r0.saving", MetricValue::Text("14.9×".into()))]);
        assert!(!compare(&base, &cur).passed());
    }
}
