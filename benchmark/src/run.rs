//! Runs one workload for a stated time — a discarded warm-up repetition, then
//! measured repetitions — and turns what they observed into metrics.

use crate::host;
use crate::metrics::{self, AGENTS, PER_LAYER};
use crate::replay::{self, Replays};
use crate::report::{Samples, WorkloadReport};
use crate::spans::{NameTotal, Tracer};
use crate::stats::{median, tail};
use crate::workloads::{self, Measured, Outcome, Size, CHUNK_EVENTS};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};
use tacoma_util::Json;

/// Fewest measured repetitions of an untraced run, whatever the time limit.
const MIN_REPS: usize = 3;

/// What to run.
#[derive(Debug, Clone)]
pub struct Plan {
    pub workload: String,
    pub seed: u64,
    /// Measured repetitions go on until this much host time has passed.
    pub seconds: f64,
    pub size: Size,
}

/// Everything one repetition left behind.
struct Rep {
    outcome: Outcome,
    timing: Measured,
}

fn one_rep(plan: &Plan, tracer: Option<&mut Tracer>, index: u32) -> Result<Rep, String> {
    let (outcome, timing) = workloads::rep(&plan.workload, plan.seed, plan.size, tracer, index)
        .ok_or_else(|| format!("unknown workload '{}'", plan.workload))?;
    Ok(Rep { outcome, timing })
}

/// Repeats `rep` until `seconds` have passed (the repetition that would
/// overrun is not started) and at least `min` repetitions are in.
fn repeat<T>(
    seconds: f64,
    min: usize,
    mut rep: impl FnMut(u32) -> Result<T, String>,
) -> Result<Vec<T>, String> {
    let limit = Duration::from_secs_f64(seconds.max(0.0));
    let start = Instant::now();
    let mut reps = Vec::new();
    loop {
        let rep_start = Instant::now();
        reps.push(rep(reps.len() as u32)?);
        let spent = start.elapsed();
        if reps.len() >= min && spent + rep_start.elapsed() > limit {
            return Ok(reps);
        }
    }
}

/// End-to-end samples of one repetition, by metric name.  A metric that does
/// not apply to the workload is absent.
fn end_to_end(rep: &Rep) -> Vec<(&'static str, f64)> {
    let (o, t) = (&rep.outcome, &rep.timing);
    let has_meets = o.stats.meets_requested > 0;
    let mut out = vec![
        ("setup_s", t.setup_ns as f64 / 1e9),
        ("wall_s", t.wall_s()),
        ("events_per_s", t.events as f64 / t.wall_s()),
        (
            "failed_share",
            o.off_nominal as f64 / o.attempted.max(1) as f64,
        ),
        ("sim_wire_bytes", o.sim.wire_bytes as f64),
    ];
    if has_meets {
        out.push(("meets_per_s", o.terminal_meets() as f64 / t.wall_s()));
    }
    if let Some(steps) = o.steps {
        out.push(("steps_per_s", steps as f64 / t.wall_s()));
    }
    if let Some(bytes) = o.payload_bytes {
        out.push((
            "payload_mib_per_s",
            bytes as f64 / (1024.0 * 1024.0) / t.wall_s(),
        ));
    }
    if let Some(wait) = o.wait_p99_ms {
        out.push(("sim_wait_p99_ms", wait));
    }
    out
}

/// Per-layer values of one traced repetition: counts the program exported,
/// in-situ timings, and the replays' estimates of each layer's share.
fn per_layer(
    rep: &Rep,
    spans: &[NameTotal],
    replays: &Replays,
    untraced_wall_s: f64,
) -> BTreeMap<&'static str, f64> {
    let (o, t) = (&rep.outcome, &rep.timing);
    let span = |name: &str| spans.iter().find(|t| t.name == name);
    // What the event loop spent outside the agents it called.
    let kernel_ns = span("run.chunk").map_or(0, |t| t.self_ns) as f64;
    let (s, sim) = (&o.stats, &o.sim);
    let per = |total: f64, n: u64| if n == 0 { 0.0 } else { total / n as f64 };
    let wall_ns = t.wall_s() * 1e9;
    let share = |ns: f64| if wall_ns > 0.0 { ns / wall_ns } else { 0.0 };
    let mut m: BTreeMap<&'static str, f64> = PER_LAYER.iter().map(|l| (l.name, 0.0)).collect();
    let mut set = |name: &str, value: f64| {
        *m.get_mut(name).expect("metric is in the catalogue") = value;
    };

    // net
    let hits = sim.route_queries - sim.bfs_runs;
    let routing_ns =
        hits as f64 * replays.route_hit_ns + sim.bfs_runs as f64 * replays.route_miss_ns;
    set("net.calendar.push_pop_ns", replays.push_pop_ns);
    set("net.calendar.standing_peak", t.standing_peak as f64);
    set("net.routing.queries", sim.route_queries as f64);
    set("net.routing.bfs_runs", sim.bfs_runs as f64);
    set("net.routing.hit_ratio", per(hits as f64, sim.route_queries));
    set("net.routing.route_ns", per(routing_ns, sim.route_queries));
    set("net.sim.events", t.events as f64);
    set("net.sim.messages", sim.messages as f64);
    set("net.sim.hops", sim.hops as f64);
    set("net.sim.send_step_ns", replays.send_step_ns);
    set(
        "net.workload.generate_ns_per_arrival",
        replays.generate_ns_per_arrival,
    );

    // core
    set("core.codec.encode_ns", replays.encode_ns);
    set("core.codec.decode_ns", replays.decode_ns);
    set("core.codec.encode_mib_per_s", replays.encode_mib_per_s);
    set("core.codec.decode_mib_per_s", replays.decode_mib_per_s);
    set("core.codec.bytes_per_req_p50", replays.bytes_per_req_p50);
    set("core.codec.elems_per_req_p50", replays.elems_per_req_p50);
    set("core.codec.roundtrip_ok_ratio", replays.roundtrip_ok_ratio);
    let has_kernel = s.meets_requested > 0;
    set("core.system.inject_ns", per(t.inject_ns as f64, t.injects));
    set(
        "core.system.run_ns_per_event",
        per(t.run_ns as f64, t.events),
    );
    if has_kernel {
        set(
            "core.system.kernel_self_ns_per_meet",
            per(kernel_ns, o.terminal_meets()),
        );
    }
    // Host microseconds per 1 024 events, one sample per chunk.
    let chunk_us: Vec<f64> = t
        .chunks
        .iter()
        .filter(|c| c.events > 0)
        .map(|c| c.ns as f64 / 1000.0 * CHUNK_EVENTS as f64 / c.events as f64)
        .collect();
    set("core.system.chunk_us_p50", median(&chunk_us));
    set("core.system.chunk_us_p99", tail(&chunk_us).1);
    set("core.system.meets_requested", s.meets_requested as f64);
    set("core.system.meets_completed", s.meets_completed as f64);
    set("core.system.meets_failed", s.meets_failed as f64);
    set("core.system.meets_shed", s.meets_shed as f64);
    set("core.system.meets_expired", s.meets_expired as f64);
    set("core.system.send_failures", s.send_failures as f64);
    set("core.system.remote_meets", s.remote_meets as f64);
    set("core.system.local_meets", s.local_meets as f64);
    set("core.system.timer_meets", s.timer_meets as f64);
    for (name, value) in &o.counts {
        set(name, *value);
    }

    // script
    let steps = o.steps.unwrap_or(0);
    let ag_tac_self_ns = span("agent.ag_tac").map_or(0, |t| t.self_ns) as f64;
    set("script.parser.parse_ns_per_kib", replays.parse_ns_per_kib);
    set("script.interp.steps", steps as f64);
    set("script.interp.ns_per_step", per(ag_tac_self_ns, steps));
    set("script.analysis.vet_ns", replays.vet_ns);
    set("script.audit.summarize_ns", replays.summarize_ns);
    set("script.audit.fleet_ns", replays.fleet_ns);
    set("script.cost.bound_ns", replays.bound_ns);
    // Only where scripts are offered is the inject path the install gates.
    let gates_ns = if o.capture.scripts.is_empty() {
        0.0
    } else {
        t.inject_ns as f64
    };
    set("script.gates.share", share(gates_ns));

    // agents and sched
    for (prefix, name) in AGENTS {
        let total = span(&format!("agent.{name}"));
        let (meets, busy) = total.map_or((0, 0), |t| (t.count, t.busy_ns));
        set(&format!("{prefix}.meets"), meets as f64);
        set(
            &format!("{prefix}.busy_ns_per_meet"),
            per(busy as f64, meets),
        );
    }

    // host
    set("host.allocs_per_event", per(t.allocs as f64, t.events));
    set(
        "host.alloc_bytes_per_event",
        per(t.alloc_bytes as f64, t.events),
    );
    if let Some((user_s, sys_s)) = t.cpu_s {
        set("host.user_s", user_s);
        set("host.sys_s", sys_s);
        if user_s + sys_s > 0.0 {
            set("host.sys_share", sys_s / (user_s + sys_s));
        }
    }
    set("trace.overhead_ratio", t.wall_s() / untraced_wall_s);

    // Estimated shares of wall_s.  One thread, nothing contending: a faster
    // layer saves at most its share.  Calendar, routing and codec run inside
    // the kernel's self time, so the shares overlap and do not sum to one.
    // Every event is one push and one pop; every message is encoded once
    // (admission encodes again to size it) and decoded once.
    let encodes = sim.messages + sim.admitted;
    let codec_ns = encodes as f64 * replays.encode_ns + sim.delivered as f64 * replays.decode_ns;
    set(
        "share.calendar",
        share(t.events as f64 * replays.push_pop_ns),
    );
    set("share.routing", share(routing_ns));
    set("share.codec", share(codec_ns));
    set("share.script", share(ag_tac_self_ns + gates_ns));
    if has_kernel {
        set(
            "share.agents",
            share(t.run_ns as f64 - kernel_ns - ag_tac_self_ns),
        );
        set("share.kernel", share(kernel_ns));
    }
    m
}

/// Folds the repetitions' verdicts into the report: correct only if every
/// repetition verified and all of them reached the same simulated state.
fn judge(report: &mut WorkloadReport, reps: &[&Rep]) {
    let first = reps[0];
    report.sim_digest = first.outcome.digest;
    report.attempted = first.outcome.attempted;
    report.failed = first.outcome.unplanned;
    for (i, rep) in reps.iter().enumerate() {
        for v in &rep.outcome.violations {
            report.violations.push(format!("repetition {i}: {v}"));
        }
        if rep.outcome.digest != first.outcome.digest {
            report.violations.push(format!(
                "repetition {i}: sim_digest {:016x} differs from {:016x}",
                rep.outcome.digest, first.outcome.digest
            ));
        }
    }
}

/// The untraced run: a discarded warm-up repetition, then measured
/// repetitions; every end-to-end metric is the median over the latter.
pub fn untraced(plan: &Plan) -> Result<WorkloadReport, String> {
    let min = if plan.size == Size::Smoke {
        1
    } else {
        MIN_REPS
    };
    let warm_up = one_rep(plan, None, 0)?;
    let reps = repeat(plan.seconds, min, |i| one_rep(plan, None, i + 1))?;
    let mut report = WorkloadReport::new(&plan.workload, reps.len());
    let all: Vec<&Rep> = std::iter::once(&warm_up).chain(&reps).collect();
    judge(&mut report, &all);
    for rep in &reps {
        for (name, value) in end_to_end(rep) {
            report.sample(name, value);
        }
    }
    // One process per workload: its high-water mark is the workload's.
    if let Some(peak) = host::peak_rss_mib() {
        report.sample("peak_rss_mib", peak);
    }
    Ok(report)
}

/// The traced run: a discarded warm-up, then pairs of one untraced and one
/// traced repetition (the pair's ratio is the tracing overhead; neighbours in
/// time share the machine's mood), then the replays on the inputs the last
/// traced repetition captured.  Returns the report and the trace document.
pub fn traced(plan: &Plan) -> Result<(WorkloadReport, Json), String> {
    let warm_up = one_rep(plan, None, 0)?;
    let mut tracer = Tracer::new();
    let mut requests = Vec::new();
    let mut plain: Vec<Rep> = Vec::new();
    let mut reps = repeat(plan.seconds, 1, |i| {
        plain.push(one_rep(plan, None, 0)?);
        let rep = one_rep(plan, Some(&mut tracer), i)?;
        requests = tracer.clock.take_samples();
        Ok(rep)
    })?;

    let last = reps.last_mut().expect("at least one traced repetition");
    last.outcome.capture.requests = requests;
    let mean_gap_us = last.outcome.sim.now_us as f64 / last.timing.events.max(1) as f64;
    let replays = replay::run(
        &mut tracer,
        &last.outcome.capture,
        last.timing.standing_peak,
        mean_gap_us,
    );

    let mut report = WorkloadReport::new(&plan.workload, reps.len());
    let all: Vec<&Rep> = std::iter::once(&warm_up)
        .chain(&plain)
        .chain(&reps)
        .collect();
    judge(&mut report, &all);
    let mut spans = Vec::new();
    for (i, (rep, plain)) in reps.iter().zip(&plain).enumerate() {
        spans = tracer.totals_by_name(i as u32);
        for (name, value) in per_layer(rep, &spans, &replays, plain.timing.wall_s()) {
            report.sample(name, value);
        }
    }
    // The count is a fact about the run, not a sample of it.
    report.metrics.insert(
        "trace.reps".to_string(),
        Samples::of(vec![reps.len() as f64]),
    );

    let mut doc = Json::object();
    doc.set("workload", Json::Str(plan.workload.clone()));
    doc.set("seed", Json::Uint(plan.seed));
    doc.set(
        "sim_digest",
        Json::Str(format!("{:016x}", report.sim_digest)),
    );
    doc.set(
        "metrics",
        report.medians_json(|name| metrics::per_layer(name).map(|l| l.unit)),
    );
    let mut by_name = Json::object();
    for total in spans {
        by_name.set(total.name, Json::Uint(total.self_ns));
    }
    doc.set("self_ns_last_rep", by_name);
    doc.set("spans", tracer.to_json());
    Ok((report, doc))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::END_TO_END;
    use crate::workloads::WORKLOADS;

    /// Every workload at smoke size, through verification untraced and
    /// traced.  One test, so the runs do not share the allocation counter.
    #[test]
    fn smoke_sizes_verify_and_tracing_reproduces_the_untraced_digest() {
        for (name, _) in WORKLOADS {
            let plan = Plan {
                workload: name.to_string(),
                seed: 3,
                seconds: 0.0,
                size: Size::Smoke,
            };
            let plain = untraced(&plan).unwrap();
            assert!(plain.correct(), "{name}: {:?}", plain.violations);
            assert!(plain.attempted > 0);
            assert_eq!(plain.failed, 0);
            for metric in END_TO_END.iter().filter(|m| m.universal) {
                let samples = &plain.metrics[metric.name];
                assert!(samples.median() > 0.0, "{name} {} is zero", metric.name);
            }
            if !cfg!(debug_assertions) {
                let wall = plain.metrics["wall_s"].median();
                assert!(wall < 0.5, "{name}: a smoke repetition took {wall} s");
            }

            let (layers, doc) = traced(&plan).unwrap();
            assert!(layers.correct(), "{name}: {:?}", layers.violations);
            assert_eq!(layers.sim_digest, plain.sim_digest, "{name}");
            for layer in &PER_LAYER {
                assert!(
                    layers.metrics.contains_key(layer.name),
                    "{name} lacks {}",
                    layer.name
                );
            }
            assert!(layers.metrics["trace.overhead_ratio"].median() > 0.0);
            let spans = doc.get("spans").and_then(Json::as_array).unwrap();
            for wanted in ["rep", "setup", "run.chunk", "replay.net.calendar"] {
                assert!(
                    spans
                        .iter()
                        .any(|s| s.get("name").and_then(Json::as_str) == Some(wanted)),
                    "{name}: no {wanted} span"
                );
            }
            for key in [
                "id", "parent", "name", "layer", "rep", "start_ns", "end_ns", "count",
            ] {
                assert!(spans[0].get(key).is_some(), "span lacks {key}");
            }
        }
    }

    #[test]
    fn another_seed_is_another_run_and_an_unknown_workload_is_refused() {
        let plan = |seed| Plan {
            workload: "mail_overload".to_string(),
            seed,
            seconds: 0.0,
            size: Size::Smoke,
        };
        let (a, b) = (untraced(&plan(1)).unwrap(), untraced(&plan(2)).unwrap());
        assert!(a.correct() && b.correct());
        assert_ne!(a.sim_digest, b.sim_digest);
        let bogus = Plan {
            workload: "nope".to_string(),
            ..plan(1)
        };
        assert!(untraced(&bogus).is_err());
    }

    #[test]
    fn repeat_honours_the_minimum_and_the_time_limit() {
        let reps = repeat(0.0, 3, Ok).unwrap();
        assert_eq!(reps, [0, 1, 2]);
        let reps = repeat(0.05, 1, |i| {
            std::thread::sleep(Duration::from_millis(20));
            Ok(i)
        })
        .unwrap();
        assert!((1..=3).contains(&reps.len()), "{} repetitions", reps.len());
        assert!(repeat(1.0, 1, |_| Err::<u32, _>("boom".to_string())).is_err());
    }
}
