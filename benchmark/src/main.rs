//! Host-time benchmark for the TACOMA reproduction.
//!
//! ```text
//! benchmark run     [--seed N] [--seconds S] [--smoke] [--out FILE]
//! benchmark trace   [--seed N] [--seconds S] [--smoke]
//! benchmark compare A.json B.json
//! benchmark manifest
//! benchmark --workload NAME --seed N --seconds S --trace 0|1 [--smoke] [--result FILE]
//! ```
//!
//! `run` measures the five workloads, one child process and one thread each,
//! verifies their outputs and prints every end-to-end metric; `trace` reruns
//! them with the benchmark's wrappers on and prints the per-layer metrics;
//! `compare` applies the regression bounds to two result files; `manifest`
//! prints `BENCHMARK.json` from the metric catalogue.  The last
//! form runs one workload in this process and ends its output with one line
//! of JSON; it is what `run` and `trace` start, and what `BENCHMARK.json`
//! names.  See `README.md`.
#![deny(unsafe_code)]

mod alloc;
mod compare;
mod host;
mod metrics;
mod replay;
mod report;
mod run;
mod spans;
mod stats;
mod workloads;

use metrics::{END_TO_END, PER_LAYER};
use report::{one_line, RunReport, WorkloadReport};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use tacoma_util::Json;
use workloads::Size;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// How long `run` measures each workload: `run_seconds` of `BENCHMARK.json`.
const RUN_SECONDS: u64 = 20;

const USAGE: &str = "usage:
  benchmark run     [--seed N] [--seconds S] [--smoke] [--out FILE]
  benchmark trace   [--seed N] [--seconds S] [--smoke]
  benchmark compare A.json B.json
  benchmark manifest
  benchmark --workload NAME --seed N --seconds S --trace 0|1 [--smoke] [--result FILE]";

/// Where result and trace files go: `out/` beside this package's manifest.
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn write_json(path: &Path, json: &Json) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, json.to_pretty()).map_err(|e| format!("{}: {e}", path.display()))
}

fn read_json(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn read_report(path: &Path) -> Result<RunReport, String> {
    RunReport::from_json(&read_json(path)?).map_err(|e| format!("{}: {e}", path.display()))
}

/// Flags shared by every form.
struct Flags {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    /// `--out` of `run`, `--result` of the one-workload form.
    file: Option<PathBuf>,
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut flags = Flags {
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        smoke: false,
        file: None,
    };
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => flags.workload = Some(value()?.clone()),
            "--seed" => {
                flags.seed = value()?
                    .parse()
                    .map_err(|_| "--seed takes a non-negative integer")?;
            }
            "--seconds" => {
                let seconds: f64 = value()?.parse().map_err(|_| "--seconds takes a number")?;
                if !(0.0..=3600.0).contains(&seconds) {
                    return Err("--seconds must be between 0 and 3600".into());
                }
                flags.seconds = Some(seconds);
            }
            "--trace" => {
                flags.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                };
            }
            "--smoke" => flags.smoke = true,
            "--out" | "--result" => flags.file = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(flags)
}

/// Runs one workload in this process; the last line printed is the result.
fn one_workload(flags: &Flags) -> Result<bool, String> {
    let plan = run::Plan {
        workload: flags.workload.clone().ok_or("--workload is required")?,
        seed: flags.seed,
        seconds: flags.seconds.ok_or("--seconds is required")?,
        size: if flags.smoke { Size::Smoke } else { Size::Full },
    };
    let report = if flags.trace {
        let (report, trace) = run::traced(&plan)?;
        let path = out_dir().join(format!("trace-{}.json", plan.workload));
        write_json(&path, &trace)?;
        report
    } else {
        run::untraced(&plan)?
    };
    if let Some(path) = &flags.file {
        write_json(path, &report.to_json())?;
    }
    for v in &report.violations {
        eprintln!("{}: {v}", report.name);
    }
    // Untraced: the end-to-end metrics every workload has.  Traced: every
    // per-layer metric.
    let listed = |name: &str| {
        if flags.trace {
            metrics::per_layer(name).map(|l| l.unit)
        } else {
            metrics::end_to_end(name)
                .filter(|m| m.universal)
                .map(|m| m.unit)
        }
    };
    let mut line = Json::object();
    line.set("correct", Json::Bool(report.correct()));
    line.set("attempted", Json::Uint(report.attempted.max(1)));
    line.set("failed", Json::Uint(report.failed));
    line.set("metrics", report.medians_json(listed));
    println!("{}", one_line(&line));
    Ok(report.correct())
}

/// Starts this program again for one workload and reads back its report.
fn child(name: &str, flags: &Flags, trace: bool, seconds: f64) -> Result<WorkloadReport, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let result = out_dir().join(format!(".result-{name}-{}.json", std::process::id()));
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", name, "--seed", &flags.seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--result")
        .arg(&result)
        .stdout(Stdio::null());
    if flags.smoke {
        cmd.arg("--smoke");
    }
    let status = cmd.status().map_err(|e| format!("{name}: {e}"))?;
    let report = read_json(&result)
        .map_err(|e| format!("{name}: exited with {status} and left no result ({e})"))
        .and_then(|json| WorkloadReport::from_json(&json));
    let _ = std::fs::remove_file(&result);
    report
}

fn print_metrics(report: &WorkloadReport, names: impl Iterator<Item = &'static str>) {
    for name in names {
        let Some(samples) = report.metrics.get(name) else {
            continue;
        };
        let (q1, med, q3) = stats::quartiles(&samples.values);
        println!(
            "  {name:<40} {med:>16.6} {:<6} [{q1:.6} {q3:.6}] n={}",
            report::unit_of(name).unwrap_or(""),
            samples.values.len()
        );
    }
}

/// `run` and `trace`: every workload in its own child process.
fn all_workloads(flags: &Flags, trace: bool) -> Result<bool, String> {
    // A traced or smoke run does the fewest repetitions unless told otherwise.
    let quick = trace || flags.smoke;
    let seconds = flags
        .seconds
        .unwrap_or(if quick { 0.0 } else { RUN_SECONDS as f64 });
    let mut run = RunReport {
        seed: flags.seed,
        smoke: flags.smoke,
        nproc: host::nproc(),
        workloads: Vec::new(),
    };
    for (name, _) in workloads::WORKLOADS {
        let report = child(name, flags, trace, seconds)?;
        println!(
            "{name}: {} repetitions, seed {}, sim_digest {:016x}, {}",
            report.reps,
            flags.seed,
            report.sim_digest,
            if report.correct() {
                "outputs verified"
            } else {
                "OUTPUTS WRONG"
            }
        );
        for v in &report.violations {
            println!("  violation: {v}");
        }
        if trace {
            print_metrics(&report, PER_LAYER.iter().map(|l| l.name));
        } else {
            print_metrics(&report, END_TO_END.iter().map(|m| m.name));
        }
        run.workloads.push(report);
    }
    let default = format!(
        "{}-seed{}.json",
        if trace { "layers" } else { "run" },
        flags.seed
    );
    let path = flags
        .file
        .clone()
        .unwrap_or_else(|| out_dir().join(default));
    write_json(&path, &run.to_json())?;
    println!("wrote {}", path.display());
    Ok(run.workloads.iter().all(WorkloadReport::correct))
}

/// `BENCHMARK.json`: the contract between this package and whatever drives
/// it, written from the same catalogue the runs report from.  It lists the
/// end-to-end metrics every workload has (its contract has every run report
/// every listed metric) and every per-layer metric.
fn manifest() -> Json {
    let text = |s: &str| Json::Str(s.to_string());
    let object = |pairs: Vec<(&str, Json)>| {
        Json::Object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    };
    let command = [
        "cargo",
        "run",
        "--release",
        "--quiet",
        "--offline",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
    ];
    object(vec![
        ("command", Json::Array(command.map(text).to_vec())),
        ("paths", Json::Array(vec![text("benchmark")])),
        ("run_seconds", Json::Uint(RUN_SECONDS)),
        (
            "workloads",
            Json::Array(
                workloads::WORKLOADS
                    .iter()
                    .map(|(name, why)| object(vec![("name", text(name)), ("why", text(why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Array(
                END_TO_END
                    .iter()
                    .filter(|m| m.universal)
                    .map(|m| {
                        object(vec![
                            ("name", text(m.name)),
                            ("unit", text(m.unit)),
                            ("better", text(m.better.as_str())),
                            ("bound", Json::Float(m.bound.share())),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Array(
                PER_LAYER
                    .iter()
                    .map(|l| {
                        object(vec![
                            ("name", text(l.name)),
                            ("unit", text(l.unit)),
                            ("better", text(l.better.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

fn dispatch(args: &[String]) -> Result<bool, String> {
    match args.first().map(String::as_str) {
        Some("manifest") => {
            print!("{}", manifest().to_pretty());
            Ok(true)
        }
        Some("run") => all_workloads(&parse_flags(&args[1..])?, false),
        Some("trace") => all_workloads(&parse_flags(&args[1..])?, true),
        Some("compare") => {
            let [a, b] = &args[1..] else {
                return Err("compare takes two result files".into());
            };
            let (table, failed) =
                compare::compare(&read_report(Path::new(a))?, &read_report(Path::new(b))?);
            print!("{table}");
            Ok(!failed)
        }
        Some(flag) if flag.starts_with("--") => one_workload(&parse_flags(args)?),
        _ => Err("no command given".into()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_is_what_the_catalogue_says() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
        let on_disk = Json::parse(&text).expect("BENCHMARK.json parses");
        assert_eq!(
            on_disk,
            manifest(),
            "regenerate with `benchmark manifest > BENCHMARK.json`"
        );
    }

    #[test]
    fn manifest_stays_inside_the_contract_limits() {
        let doc = manifest();
        let len = |key: &str| {
            doc.get(key)
                .and_then(Json::as_array)
                .map_or(0, <[Json]>::len)
        };
        assert!((2..=8).contains(&len("workloads")));
        assert!((1..=16).contains(&len("end_to_end")));
        assert!((1..=128).contains(&len("per_layer")));
        assert!((1..=60).contains(&doc.get("run_seconds").and_then(Json::as_u64).unwrap()));
        assert!(doc.to_pretty().len() <= 64 * 1024);
        for w in doc.get("workloads").unwrap().as_array().unwrap() {
            let why = w.get("why").and_then(Json::as_str).unwrap();
            assert!(why.len() <= 200 && !why.contains('\n'), "{why}");
        }
        let e2e = doc.get("end_to_end").unwrap().as_array().unwrap();
        assert!(e2e
            .iter()
            .any(|m| m.get("name").and_then(Json::as_str) == Some("setup_s")));
        for m in e2e {
            let bound = m.get("bound").and_then(Json::as_f64).unwrap();
            assert!(bound > 0.0 && bound <= 0.25);
        }
    }

    #[test]
    fn flags_parse_and_reject() {
        let args = |s: &str| -> Vec<String> { s.split_whitespace().map(String::from).collect() };
        let f = parse_flags(&args(
            "--workload flood_mesh --seed 9 --seconds 2.5 --trace 1",
        ))
        .unwrap();
        assert_eq!(f.workload.as_deref(), Some("flood_mesh"));
        assert_eq!(
            (f.seed, f.seconds, f.trace, f.smoke),
            (9, Some(2.5), true, false)
        );
        assert!(parse_flags(&args("--trace 2")).is_err());
        assert!(parse_flags(&args("--seed")).is_err());
        assert!(parse_flags(&args("--seconds -1")).is_err());
        assert!(parse_flags(&args("--frobnicate")).is_err());
    }
}
