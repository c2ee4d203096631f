//! `compare A.json B.json`: per metric × workload, did B get worse than A by
//! more than the benchmark's bound?

use crate::metrics::{Better, Bound, END_TO_END};
use crate::report::{RunReport, Samples};
use crate::stats::{quartiles, spread};
use std::fmt::Write;

/// One verdict per metric × workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    WithinBound,
    Regressed,
    /// The runs overlap and their spread is wider than the bound: the data
    /// cannot tell a regression from noise.
    Unresolved,
    /// A deterministic quantity moved: the program behaves differently, which
    /// is not a timing verdict.
    BehaviourChanged,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::WithinBound => "within bound",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
            Verdict::BehaviourChanged => "behaviour changed",
        }
    }

    /// Whether this verdict fails the comparison.
    pub fn fails(self) -> bool {
        matches!(self, Verdict::Regressed | Verdict::BehaviourChanged)
    }
}

/// Judges `b` against `a` for a metric with the given direction and bound.
pub fn judge(a: &Samples, b: &Samples, better: Better, bound: Bound) -> Verdict {
    let (ma, mb) = (a.median(), b.median());
    // How much worse B's median is, as an absolute amount (negative: better).
    let worse_by = match better {
        Better::Lower => mb - ma,
        Better::Higher => ma - mb,
    };
    let allowed = match bound {
        Bound::Exact => {
            return if (a.min(), a.max()) == (b.min(), b.max()) {
                Verdict::WithinBound
            } else {
                Verdict::BehaviourChanged
            };
        }
        Bound::NoWorse => {
            return match worse_by {
                w if w > 0.0 => Verdict::Regressed,
                w if w < 0.0 => Verdict::Improved,
                _ => Verdict::WithinBound,
            };
        }
        Bound::Share(share) => share * ma.abs(),
        Bound::ShareAndAtLeast(share, floor) => (share * ma.abs()).max(floor),
    };
    let overlap = a.min() <= b.max() && b.min() <= a.max();
    let noisy = spread(&a.values).max(spread(&b.values)) > bound.share();
    if noisy && overlap {
        Verdict::Unresolved
    } else if worse_by > allowed {
        Verdict::Regressed
    } else if worse_by < -allowed {
        Verdict::Improved
    } else {
        Verdict::WithinBound
    }
}

/// The comparison table, and whether any row fails.
pub fn compare(a: &RunReport, b: &RunReport) -> (String, bool) {
    let mut out = String::new();
    let mut failed = false;
    if (a.seed, a.smoke) != (b.seed, b.smoke) {
        let _ = writeln!(
            out,
            "note: A is seed {} smoke {}, B is seed {} smoke {}: exact metrics and digests will differ",
            a.seed, a.smoke, b.seed, b.smoke
        );
    }
    for wa in &a.workloads {
        let Some(wb) = b.workload(&wa.name) else {
            let _ = writeln!(out, "{}: missing from B", wa.name);
            failed = true;
            continue;
        };
        let _ = writeln!(out, "{}", wa.name);
        for (side, w) in [("A", wa), ("B", wb)] {
            if !w.correct() {
                let _ = writeln!(out, "  {side} failed verification: {}", w.violations[0]);
                failed = true;
            }
        }
        if wa.sim_digest == wb.sim_digest {
            let _ = writeln!(out, "  sim_digest         {:016x} equal", wa.sim_digest);
        } else {
            let _ = writeln!(
                out,
                "  sim_digest         {:016x} -> {:016x}  behaviour changed",
                wa.sim_digest, wb.sim_digest
            );
            failed = true;
        }
        for metric in &END_TO_END {
            let (Some(sa), Some(sb)) = (wa.metrics.get(metric.name), wb.metrics.get(metric.name))
            else {
                continue;
            };
            let verdict = judge(sa, sb, metric.better, metric.bound);
            failed |= verdict.fails();
            let (qa, qb) = (quartiles(&sa.values), quartiles(&sb.values));
            let ratio = if qa.1 == 0.0 { 1.0 } else { qb.1 / qa.1 };
            let _ = writeln!(
                out,
                "  {:<18} A {:>12.4} [{:.4} {:.4}] n={}  B {:>12.4} [{:.4} {:.4}] n={}  B/A {:.4} of {:.4} {}  {}",
                metric.name,
                qa.1,
                qa.0,
                qa.2,
                sa.values.len(),
                qb.1,
                qb.0,
                qb.2,
                sb.values.len(),
                ratio,
                qa.1,
                metric.unit,
                verdict.as_str()
            );
        }
    }
    (out, failed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::WorkloadReport;

    fn s(values: &[f64]) -> Samples {
        Samples::of(values.to_vec())
    }

    const TEN: Bound = Bound::Share(0.10);

    #[test]
    fn timing_verdicts() {
        let base = s(&[1.00, 1.01, 0.99, 1.00, 1.02]);
        // 20 % slower, tight runs: a regression.
        let slow = s(&[1.20, 1.21, 1.19, 1.20, 1.22]);
        assert_eq!(judge(&base, &slow, Better::Lower, TEN), Verdict::Regressed);
        // The same numbers as a rate are an improvement.
        assert_eq!(judge(&base, &slow, Better::Higher, TEN), Verdict::Improved);
        assert_eq!(judge(&slow, &base, Better::Higher, TEN), Verdict::Regressed);
        // 5 % slower: inside the bound.
        let near = s(&[1.05, 1.06, 1.04, 1.05, 1.05]);
        assert_eq!(
            judge(&base, &near, Better::Lower, TEN),
            Verdict::WithinBound
        );
        // 20 % faster.
        let fast = s(&[0.80, 0.81, 0.79, 0.80, 0.80]);
        assert_eq!(judge(&base, &fast, Better::Lower, TEN), Verdict::Improved);
    }

    #[test]
    fn wide_overlapping_runs_are_unresolved_not_unchanged() {
        let a = s(&[1.0, 1.3, 0.8, 1.1, 0.9]);
        let b = s(&[1.2, 0.9, 1.4, 1.0, 1.3]);
        assert_eq!(judge(&a, &b, Better::Lower, TEN), Verdict::Unresolved);
        // Wide, but every run of B is worse than every run of A: resolved.
        let c = s(&[2.0, 2.6, 1.9, 2.2, 2.4]);
        assert_eq!(judge(&a, &c, Better::Lower, TEN), Verdict::Regressed);
    }

    #[test]
    fn setup_needs_both_a_quarter_and_fifty_milliseconds() {
        let bound = Bound::ShareAndAtLeast(0.25, 0.05);
        let tiny = s(&[0.0010, 0.0010, 0.0010]);
        let doubled = s(&[0.0020, 0.0020, 0.0020]);
        assert_eq!(
            judge(&tiny, &doubled, Better::Lower, bound),
            Verdict::WithinBound
        );
        let big = s(&[1.0, 1.0, 1.0]);
        let bigger = s(&[1.3, 1.3, 1.3]);
        assert_eq!(
            judge(&big, &bigger, Better::Lower, bound),
            Verdict::Regressed
        );
    }

    #[test]
    fn deterministic_metrics_allow_nothing() {
        let a = s(&[0.25, 0.25, 0.25]);
        assert_eq!(
            judge(&a, &s(&[0.26, 0.26, 0.26]), Better::Lower, Bound::NoWorse),
            Verdict::Regressed
        );
        assert_eq!(
            judge(&a, &a, Better::Lower, Bound::NoWorse),
            Verdict::WithinBound
        );
        let bytes = s(&[1.0e8, 1.0e8]);
        assert_eq!(
            judge(
                &bytes,
                &s(&[1.0e8, 1.0e8, 1.0e8]),
                Better::Lower,
                Bound::Exact
            ),
            Verdict::WithinBound,
            "another repetition count is not another behaviour"
        );
        assert_eq!(
            judge(
                &bytes,
                &s(&[1.0e8 + 1.0, 1.0e8 + 1.0]),
                Better::Lower,
                Bound::Exact
            ),
            Verdict::BehaviourChanged
        );
    }

    fn report(wall: &[f64], digest: u64) -> RunReport {
        let mut w = WorkloadReport::new("flood_mesh", wall.len());
        w.sim_digest = digest;
        for v in wall {
            w.sample("wall_s", *v);
        }
        RunReport {
            seed: 1,
            smoke: false,
            nproc: 2,
            workloads: vec![w],
        }
    }

    #[test]
    fn comparison_fails_on_regression_and_on_a_changed_digest() {
        let a = report(&[1.0, 1.0, 1.0], 7);
        let (table, failed) = compare(&a, &a);
        assert!(!failed, "{table}");
        assert!(table.contains("within bound"));
        let (table, failed) = compare(&a, &report(&[1.5, 1.5, 1.5], 7));
        assert!(failed);
        assert!(table.contains("regressed"));
        let (table, failed) = compare(&a, &report(&[1.0, 1.0, 1.0], 8));
        assert!(failed);
        assert!(table.contains("behaviour changed"));
        let mut missing = a.clone();
        missing.workloads.clear();
        assert!(compare(&a, &missing).1);
    }
}
