//! End-to-end regression-gate test: re-runs the quick suite in-process and
//! compares it against the committed `BENCH_baseline.json`, the same check CI
//! performs with `harness --quick --compare BENCH_baseline.json`.

use std::path::PathBuf;
use tacoma_bench::{baseline, runner, ReportSet};
use tacoma_util::MetricValue;

fn baseline_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_baseline.json")
}

fn quick_run() -> ReportSet {
    let specs = runner::registry();
    let results = runner::run_jobs(&specs, runner::RunOpts::new(true), 4);
    ReportSet::new(true, results.into_iter().map(|r| r.report).collect())
}

#[test]
fn quick_run_matches_the_committed_baseline() {
    let baseline_set = ReportSet::load(&baseline_path())
        .expect("BENCH_baseline.json is committed at the repo root");
    let current = quick_run();
    let outcome = baseline::compare(&baseline_set, &current);
    assert!(
        outcome.passed(),
        "quick run drifted from BENCH_baseline.json — if intentional, refresh the baseline with \
         `cargo run --release -p tacoma_bench --bin harness -- --quick --json BENCH_baseline.json`:\n{outcome}"
    );
    // The gate actually inspected a meaningful number of metrics.
    assert!(
        outcome.metrics_checked > 100,
        "only {} metrics checked",
        outcome.metrics_checked
    );
}

#[test]
fn perturbed_metric_fails_the_gate() {
    let baseline_set = ReportSet::load(&baseline_path())
        .expect("BENCH_baseline.json is committed at the repo root");
    let mut drifted = baseline_set.clone();
    // Nudge the first numeric metric 10% past its baseline value — well
    // beyond the 2% default tolerance — and expect a non-zero gate.
    let (key, bumped) = drifted.reports[0]
        .metrics
        .iter()
        .find_map(|(k, v)| match v {
            MetricValue::Count(n) => Some((k.clone(), MetricValue::Count(n + n / 10 + 1))),
            _ => None,
        })
        .expect("baseline has at least one counter metric");
    for entry in drifted.reports[0].metrics.iter_mut() {
        if entry.0 == key {
            entry.1 = bumped.clone();
        }
    }
    let outcome = baseline::compare(&baseline_set, &drifted);
    assert!(!outcome.passed(), "a 10% drift on {key} must fail the gate");
    assert!(outcome.failures().any(|f| f.metric == key));
}

#[test]
fn baseline_file_is_canonical_serialization() {
    // The committed baseline must be exactly what the writer emits, so
    // regenerating it produces no spurious diff.
    let text = std::fs::read_to_string(baseline_path()).unwrap();
    let parsed = ReportSet::from_json_str(&text).unwrap();
    assert_eq!(parsed.to_json_string(), text);
}
