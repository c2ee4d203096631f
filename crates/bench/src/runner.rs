//! The parallel experiment runner.
//!
//! Every experiment (E1–E20) and ablation (A3/A4) is registered here as an
//! independent [`JobSpec`].
//! Each job builds and drives its own seeded `SimNet`/`TacomaSystem`, so jobs
//! share no mutable state and the worker count cannot perturb any measured
//! number — only wall-clock time.  That is what lets `--jobs 8` produce a
//! byte-identical report to `--jobs 1`.
//!
//! The executor is a std-only work-stealing pool: worker threads steal the
//! next unclaimed job index from a shared atomic injector until the queue is
//! drained, and results land in per-job slots so the output order is always
//! registry order regardless of completion order.

use crate::report::Report;
use crate::table::Table;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Per-run knobs every experiment driver receives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunOpts {
    /// Run the quick (smoke) configuration instead of the full sweep.
    pub quick: bool,
}

impl RunOpts {
    /// Options for a quick or full run.
    pub fn new(quick: bool) -> Self {
        RunOpts { quick }
    }
}

impl Default for RunOpts {
    fn default() -> Self {
        RunOpts::new(false)
    }
}

/// One schedulable experiment: id, primary seed, and the driver function.
#[derive(Debug, Clone, Copy)]
pub struct JobSpec {
    /// Stable experiment id (`"E1"` … `"E10"`, `"A3"`, `"A4"`).
    pub id: &'static str,
    /// One-line summary shown by `--list`.
    pub summary: &'static str,
    /// The primary seed the driver hard-codes; recorded in the report.
    pub seed: u64,
    /// The driver, parameterized by the run options.
    pub run: fn(RunOpts) -> Table,
}

fn e8_job(opts: RunOpts) -> Table {
    crate::e8_protected(if opts.quick { 20 } else { 100 })
}

/// The full job registry, in presentation order.
pub fn registry() -> Vec<JobSpec> {
    vec![
        JobSpec {
            id: "E1",
            summary: "bandwidth conservation (filter at the data)",
            seed: 7,
            run: crate::e1_bandwidth,
        },
        JobSpec {
            id: "E2",
            summary: "diffusion bounded by site-local folders",
            seed: 2,
            run: crate::e2_diffusion,
        },
        JobSpec {
            id: "E3",
            summary: "meet and rexec migration cost",
            seed: 3,
            run: crate::e3_meet_rexec,
        },
        JobSpec {
            id: "E4",
            summary: "folders move cheap, cabinets access cheap",
            seed: 0,
            run: crate::e4_folders,
        },
        JobSpec {
            id: "E5",
            summary: "validation agent foils double spending",
            seed: 55,
            run: crate::e5_cash,
        },
        JobSpec {
            id: "E6",
            summary: "audits instead of transactions",
            seed: 66,
            run: crate::e6_exchange,
        },
        JobSpec {
            id: "E7",
            summary: "brokers schedule by load and capacity",
            seed: 77,
            run: crate::e7_scheduling,
        },
        JobSpec {
            id: "E8",
            summary: "protected agents reachable only via broker",
            seed: 88,
            run: e8_job,
        },
        JobSpec {
            id: "E9",
            summary: "rear guards survive site failures",
            seed: 909,
            run: crate::e9_rear_guard,
        },
        JobSpec {
            id: "E10",
            summary: "StormCast and AgentMail applications",
            seed: 1995,
            run: crate::e10_apps,
        },
        JobSpec {
            id: "E11",
            summary: "routing fast path at scale (ring of cliques)",
            seed: 1111,
            run: crate::e11_scale,
        },
        JobSpec {
            id: "E12",
            summary: "partition churn and route-cache invalidation",
            seed: 1212,
            run: crate::e12_churn,
        },
        JobSpec {
            id: "E13",
            summary: "store-and-forward custody across partitions",
            seed: 1313,
            run: crate::e13_custody,
        },
        JobSpec {
            id: "E14",
            summary: "custody conservation under crash churn",
            seed: 1414,
            run: crate::e14_custody_churn,
        },
        JobSpec {
            id: "E15",
            summary: "federated broker scheduling at 1024 sites",
            seed: 1515,
            run: crate::e15_federation,
        },
        JobSpec {
            id: "E16",
            summary: "broker crash and failover under job churn",
            seed: 1616,
            run: crate::e16_failover,
        },
        JobSpec {
            id: "E17",
            summary: "event engine scale sweep",
            seed: 7,
            run: crate::e17_scale_sweep,
        },
        JobSpec {
            id: "E18",
            summary: "open-arrival overload: backpressure and load shedding",
            seed: 1818,
            run: crate::e18_overload,
        },
        JobSpec {
            id: "E19",
            summary: "regional flash crowd vs federated admission control",
            seed: 1919,
            run: crate::e19_flash_crowd,
        },
        JobSpec {
            id: "E20",
            summary: "cost-aware placement of a heterogeneous script fleet",
            seed: 2020,
            run: crate::e20_cost_placement,
        },
        JobSpec {
            id: "A3",
            summary: "ablation: rear-guard chain depth",
            seed: 31_001,
            run: crate::ablation_guard_depth,
        },
        JobSpec {
            id: "A4",
            summary: "ablation: load-report dissemination period",
            seed: 404,
            run: crate::ablation_report_period,
        },
    ]
}

/// Selects registry jobs by id (case-insensitive), preserving registry order.
/// Unknown ids are an error.
pub fn select(ids: &[String]) -> Result<Vec<JobSpec>, String> {
    let all = registry();
    if ids.is_empty() {
        return Ok(all);
    }
    let mut wanted: Vec<String> = Vec::new();
    for id in ids {
        let canon = id.to_ascii_uppercase();
        if !all.iter().any(|s| s.id == canon) {
            let known: Vec<&str> = all.iter().map(|s| s.id).collect();
            return Err(format!(
                "unknown experiment id '{id}' (known: {})",
                known.join(", ")
            ));
        }
        if !wanted.contains(&canon) {
            wanted.push(canon);
        }
    }
    Ok(all
        .into_iter()
        .filter(|s| wanted.iter().any(|w| w == s.id))
        .collect())
}

/// One finished job: the rendered table plus its structured report.
#[derive(Debug, Clone)]
pub struct JobResult {
    /// The experiment id, copied from the spec.
    pub id: &'static str,
    /// The human-readable table the harness prints.
    pub table: Table,
    /// The structured report `--json` serializes.
    pub report: Report,
}

/// Runs `specs` on `workers` threads and returns results in registry order.
///
/// `workers` is clamped to `1..=specs.len()`; with one worker this degrades
/// to a plain sequential loop over the same code path, which is what makes
/// the sequential-vs-parallel determinism test meaningful.
pub fn run_jobs(specs: &[JobSpec], opts: RunOpts, workers: usize) -> Vec<JobResult> {
    let workers = workers.clamp(1, specs.len().max(1));
    let injector = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<JobResult>>> = specs.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = injector.fetch_add(1, Ordering::Relaxed);
                let Some(spec) = specs.get(i) else { break };
                let started = Instant::now();
                let table = (spec.run)(opts);
                let wall_ms = started.elapsed().as_secs_f64() * 1_000.0;
                let report = Report::from_table(spec.id, spec.seed, &table, wall_ms);
                *slots[i].lock().unwrap() = Some(JobResult {
                    id: spec.id,
                    table,
                    report,
                });
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .unwrap()
                .expect("every claimed job stores a result")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::ReportSet;

    /// Cheap subset used by the determinism tests (the full quick suite is
    /// exercised end-to-end by `tests/harness_gate.rs`).
    fn cheap_ids() -> Vec<String> {
        // E13/E14/E16 ride along so the custody and broker-failover
        // experiments are explicitly covered by the jobs-1-vs-jobs-8
        // byte-identical check (E15 is covered by the CI determinism job;
        // its 1024-site rows are too heavy for a unit test to run twice).
        ["E4", "E5", "E8", "E13", "E14", "E16"]
            .iter()
            .map(|s| s.to_string())
            .collect()
    }

    #[test]
    fn registry_ids_are_unique_and_cover_e1_to_a4() {
        let specs = registry();
        assert_eq!(specs.len(), 22);
        let mut ids: Vec<&str> = specs.iter().map(|s| s.id).collect();
        assert_eq!(ids.first(), Some(&"E1"));
        assert_eq!(ids.last(), Some(&"A4"));
        assert!(ids.contains(&"E11") && ids.contains(&"E12"));
        assert!(ids.contains(&"E13") && ids.contains(&"E14"));
        assert!(ids.contains(&"E15") && ids.contains(&"E16"));
        assert!(ids.contains(&"E17"));
        assert!(ids.contains(&"E18") && ids.contains(&"E19"));
        assert!(ids.contains(&"E20"));
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 22, "duplicate experiment ids in the registry");
    }

    #[test]
    fn select_filters_case_insensitively_and_rejects_unknowns() {
        let picked = select(&["e8".into(), "E4".into(), "e8".into()]).unwrap();
        let ids: Vec<&str> = picked.iter().map(|s| s.id).collect();
        assert_eq!(ids, ["E4", "E8"], "registry order, deduplicated");
        assert!(select(&["E99".into()])
            .unwrap_err()
            .contains("unknown experiment id"));
        assert!(select(&["a1".into()])
            .unwrap_err()
            .contains("unknown experiment id"));
        assert_eq!(select(&[]).unwrap().len(), 22);
    }

    #[test]
    fn parallel_and_sequential_runs_serialize_byte_identically() {
        let specs = select(&cheap_ids()).unwrap();
        let sequential = run_jobs(&specs, RunOpts::new(true), 1);
        let parallel = run_jobs(&specs, RunOpts::new(true), 8);
        let a = ReportSet::new(true, sequential.iter().map(|r| r.report.clone()).collect());
        let b = ReportSet::new(true, parallel.iter().map(|r| r.report.clone()).collect());
        assert_eq!(a.to_json_string(), b.to_json_string());
        // The printed tables agree too, not just the reports.
        for (s, p) in sequential.iter().zip(&parallel) {
            assert_eq!(s.table.render(), p.table.render());
        }
    }

    #[test]
    fn results_come_back_in_registry_order_even_with_many_workers() {
        let specs = select(&cheap_ids()).unwrap();
        let results = run_jobs(&specs, RunOpts::new(true), specs.len() * 4);
        let ids: Vec<&str> = results.iter().map(|r| r.id).collect();
        assert_eq!(ids, ["E4", "E5", "E8", "E13", "E14", "E16"]);
        assert!(results.iter().all(|r| !r.report.metrics.is_empty()));
        assert!(results.iter().all(|r| r.report.wall_ms >= 0.0));
    }
}
