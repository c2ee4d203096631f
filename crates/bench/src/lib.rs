//! Experiment drivers for the TACOMA reproduction.
//!
//! The paper (a HotOS position paper) contains no numbered tables or figures;
//! EXPERIMENTS.md defines experiments E1–E20, one per measurable claim in the
//! text (plus the E11/E12 scale experiments the ROADMAP's north star asks
//! for, the E13/E14 custody experiments, the E15/E16 broker-federation
//! experiments, the E17 event-engine scale sweep, and the E20 cost-aware
//! placement comparison).  Each `eN_*` function here runs one experiment and returns a
//! [`Table`]; the `harness` binary prints them all (this is the artifact that
//! stands in for "regenerating the paper's tables") with each driver's
//! wall-clock in its run summary; the hot primitives underneath are timed by
//! `benchmark/`'s per-layer metrics.
//!
//! Every experiment runner lives here, not in the library crates:
//! [`run_scheduling_experiment`] (E7, A4) and [`run_itinerary_experiment`]
//! (E9, E14, A3) are public so the examples and the integration tests drive
//! the same code, and the federation runner behind E15 and E16 is private to
//! its family module.  [`JobTally`] is the one place a run reads back the
//! jobs its workers finished.
//!
//! Around the drivers sits the measurement backbone added for CI:
//!
//! * [`runner`] — a registry of experiment jobs plus a std-only
//!   work-stealing executor (each job owns its seeded simulation, so
//!   parallelism never changes a measured number);
//! * [`report`] — the structured, JSON-serializable twin of each table;
//! * [`baseline`] — the `--compare` regression gate that diffs a run
//!   against the committed `BENCH_baseline.json` with per-metric tolerances;
//! * [`args`] — the strict harness CLI parser.

#![warn(missing_docs)]

pub mod args;
pub mod baseline;
pub mod experiments;
pub mod report;
pub mod runner;
pub mod table;

pub use args::HarnessArgs;
pub use baseline::{compare, CompareOutcome};
pub use experiments::*;
pub use report::{Report, ReportSet};
pub use runner::{registry, run_jobs, select, JobResult, JobSpec, RunOpts};
pub use table::Table;
