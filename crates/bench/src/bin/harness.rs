//! The experiment harness: regenerates every table of the reproduction and
//! doubles as the CI regression gate.
//!
//! ```sh
//! cargo run -p tacoma_bench --bin harness --release               # full run
//! cargo run -p tacoma_bench --bin harness --release -- --quick    # smoke run
//! harness --quick --jobs 8 --json report.json                     # parallel + report
//! harness --quick --compare BENCH_baseline.json                   # regression gate
//! ```
//!
//! Exit codes: 0 on success, 1 when `--compare` finds a regression, 2 on a
//! usage error (unknown flag, bad value, unknown experiment id).

use std::process::ExitCode;
use tacoma_bench::{args::USAGE, baseline, runner, HarnessArgs, ReportSet};

fn main() -> ExitCode {
    let args = match HarnessArgs::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("harness: {message}");
            eprintln!();
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.help {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    if args.list {
        println!("experiments:");
        for spec in runner::registry() {
            println!("  {:<4} seed {:<6} {}", spec.id, spec.seed, spec.summary);
        }
        return ExitCode::SUCCESS;
    }

    let specs = match runner::select(&args.filter) {
        Ok(specs) => specs,
        Err(message) => {
            eprintln!("harness: {message}");
            return ExitCode::from(2);
        }
    };
    let workers = args.jobs.max(1);
    let opts = runner::RunOpts::new(args.quick);
    println!(
        "# TACOMA reproduction — experiment harness ({} mode, {} job(s), {} worker(s))",
        if args.quick { "quick" } else { "full" },
        specs.len(),
        workers.min(specs.len().max(1)),
    );
    println!();

    let started = std::time::Instant::now();
    let results = runner::run_jobs(&specs, opts, workers);
    let total_wall_ms = started.elapsed().as_secs_f64() * 1_000.0;

    for result in &results {
        print!("{}", result.table.render());
    }
    println!("## run summary (wall clock; not part of the report)");
    for result in &results {
        println!("  {:<4} {:>10.1} ms", result.id, result.report.wall_ms);
    }
    println!(
        "  total {:>9.1} ms across {} worker(s)",
        total_wall_ms,
        workers.min(specs.len().max(1))
    );
    // Wall-clock notes (E17's events/sec per site count) live outside the
    // deterministic report; CI lifts this section into the job summary.
    if results.iter().any(|r| !r.table.notes.is_empty()) {
        println!();
        println!("## engine throughput (wall clock; not part of the report)");
        for result in &results {
            for note in &result.table.notes {
                println!("  {:<4} {note}", result.id);
            }
        }
    }

    let set = ReportSet::new(
        args.quick,
        results.iter().map(|r| r.report.clone()).collect(),
    );
    if let Some(path) = &args.json {
        if let Err(e) = set.save(path) {
            eprintln!("harness: {e}");
            return ExitCode::from(2);
        }
        println!("  report written to {}", path.display());
    }

    if let Some(path) = &args.compare {
        let mut baseline_set = match ReportSet::load(path) {
            Ok(set) => set,
            Err(e) => {
                eprintln!("harness: {e}");
                return ExitCode::from(2);
            }
        };
        println!();
        println!("## compare vs {}", path.display());
        if !args.filter.is_empty() {
            // Gate only what actually ran, so `--filter E1 --compare` checks
            // E1 instead of flagging every skipped experiment as missing.
            let ran: Vec<&str> = specs.iter().map(|s| s.id).collect();
            baseline_set = baseline_set.restrict_to(&ran);
            println!("(narrowed to filtered experiment(s): {})", ran.join(", "));
        }
        let outcome = baseline::compare(&baseline_set, &set);
        println!("{outcome}");
        if !outcome.passed() {
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
