//! The metric catalogue: every name the benchmark prints, with its unit,
//! its direction and — for end-to-end metrics — its regression bound.
//!
//! Time always means **host** time unless the name starts with `sim_`.

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// How far an end-to-end metric may worsen before `compare` calls it a
/// regression.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Bound {
    /// A share of the first run's median.
    Share(f64),
    /// A share of the first run's median, and at least this much absolutely.
    ShareAndAtLeast(f64, f64),
    /// Not at all: the value is deterministic, any worsening is real.
    NoWorse,
    /// Any change at all means the program's behaviour changed.
    Exact,
}

impl Bound {
    /// The relative part of the bound (0 for the deterministic metrics).
    pub fn share(self) -> f64 {
        match self {
            Bound::Share(s) | Bound::ShareAndAtLeast(s, _) => s,
            Bound::NoWorse | Bound::Exact => 0.0,
        }
    }
}

/// An end-to-end metric: what a user of the system would see.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Bound,
    /// Whether the metric is defined, and never zero, on every workload.
    /// Those are the metrics `BENCHMARK.json` lists: its contract has every
    /// run of every workload report every end-to-end metric.
    pub universal: bool,
}

use Better::{Higher, Lower};

/// Bound on the host-time metrics: the widest the benchmark contract allows.
/// The issue that defined the benchmark asked for 10 %, but on the shared
/// two-core box the medians of ten back-to-back runs spread by 4–15 % of
/// their median (README, "Why 25 %"), and a bound has to clear about three
/// times the spread to tell a regression from the machine's mood.
const TIMING: Bound = Bound::Share(0.25);

pub const END_TO_END: [EndToEnd; 10] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: Bound::ShareAndAtLeast(0.25, 0.05),
        universal: true,
    },
    EndToEnd {
        name: "wall_s",
        unit: "s",
        better: Lower,
        bound: TIMING,
        universal: true,
    },
    EndToEnd {
        name: "meets_per_s",
        unit: "1/s",
        better: Higher,
        bound: TIMING,
        universal: false,
    },
    EndToEnd {
        name: "events_per_s",
        unit: "1/s",
        better: Higher,
        bound: TIMING,
        universal: true,
    },
    EndToEnd {
        name: "steps_per_s",
        unit: "1/s",
        better: Higher,
        bound: TIMING,
        universal: false,
    },
    EndToEnd {
        name: "payload_mib_per_s",
        unit: "MiB/s",
        better: Higher,
        bound: TIMING,
        universal: false,
    },
    EndToEnd {
        name: "peak_rss_mib",
        unit: "MiB",
        better: Lower,
        bound: Bound::Share(0.20),
        universal: true,
    },
    EndToEnd {
        name: "failed_share",
        unit: "ratio",
        better: Lower,
        bound: Bound::NoWorse,
        universal: false,
    },
    EndToEnd {
        name: "sim_wire_bytes",
        unit: "B",
        better: Lower,
        bound: Bound::Exact,
        universal: false,
    },
    EndToEnd {
        name: "sim_wait_p99_ms",
        unit: "ms",
        better: Lower,
        bound: Bound::Exact,
        universal: false,
    },
];

pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// A metric of a single layer.  Layers are named after the modules.
#[derive(Debug, Clone, Copy)]
pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Layer {
    Layer { name, unit, better }
}

/// Every per-layer metric.  A traced run reports all of them for every
/// workload; a layer the workload leaves idle reports zero, which is the
/// bypass prediction made checkable.
pub const PER_LAYER: [Layer; 79] = [
    layer("net.calendar.push_pop_ns", "ns", Lower),
    layer("net.calendar.standing_peak", "count", Lower),
    layer("net.routing.queries", "count", Lower),
    layer("net.routing.bfs_runs", "count", Lower),
    layer("net.routing.hit_ratio", "ratio", Higher),
    layer("net.routing.route_ns", "ns", Lower),
    layer("net.sim.events", "count", Lower),
    layer("net.sim.messages", "count", Lower),
    layer("net.sim.hops", "count", Lower),
    layer("net.sim.send_step_ns", "ns", Lower),
    layer("net.workload.generate_ns_per_arrival", "ns", Lower),
    layer("core.codec.encode_ns", "ns", Lower),
    layer("core.codec.decode_ns", "ns", Lower),
    layer("core.codec.encode_mib_per_s", "MiB/s", Higher),
    layer("core.codec.decode_mib_per_s", "MiB/s", Higher),
    layer("core.codec.bytes_per_req_p50", "B", Lower),
    layer("core.codec.elems_per_req_p50", "count", Lower),
    layer("core.codec.roundtrip_ok_ratio", "ratio", Higher),
    layer("core.system.inject_ns", "ns", Lower),
    layer("core.system.run_ns_per_event", "ns", Lower),
    layer("core.system.kernel_self_ns_per_meet", "ns", Lower),
    layer("core.system.chunk_us_p50", "us", Lower),
    layer("core.system.chunk_us_p99", "us", Lower),
    layer("core.system.meets_requested", "count", Lower),
    layer("core.system.meets_completed", "count", Higher),
    layer("core.system.meets_failed", "count", Lower),
    layer("core.system.meets_shed", "count", Lower),
    layer("core.system.meets_expired", "count", Lower),
    layer("core.system.send_failures", "count", Lower),
    layer("core.system.remote_meets", "count", Lower),
    layer("core.system.local_meets", "count", Lower),
    layer("core.system.timer_meets", "count", Lower),
    layer("core.system.gate_rejects", "count", Lower),
    layer("core.system.trace_lines", "count", Lower),
    layer("core.admission.admitted", "count", Higher),
    layer("core.admission.shed", "count", Lower),
    layer("core.admission.queue_peak", "count", Lower),
    layer("core.admission.janitor_sweeps", "count", Lower),
    layer("core.cabinet.retained_mib", "MiB", Lower),
    layer("script.parser.parse_ns_per_kib", "ns", Lower),
    layer("script.parser.source_kib", "KiB", Lower),
    layer("script.interp.steps", "count", Lower),
    layer("script.interp.ns_per_step", "ns", Lower),
    layer("script.analysis.vet_ns", "ns", Lower),
    layer("script.audit.summarize_ns", "ns", Lower),
    layer("script.audit.fleet_ns", "ns", Lower),
    layer("script.cost.bound_ns", "ns", Lower),
    layer("script.gates.share", "ratio", Lower),
    layer("agents.ag_tac.meets", "count", Lower),
    layer("agents.ag_tac.busy_ns_per_meet", "ns", Lower),
    layer("agents.rexec.meets", "count", Lower),
    layer("agents.rexec.busy_ns_per_meet", "ns", Lower),
    layer("agents.naive_flood.meets", "count", Lower),
    layer("agents.naive_flood.busy_ns_per_meet", "ns", Lower),
    layer("sched.broker.meets", "count", Lower),
    layer("sched.broker.busy_ns_per_meet", "ns", Lower),
    layer("sched.monitor.meets", "count", Lower),
    layer("sched.monitor.busy_ns_per_meet", "ns", Lower),
    layer("sched.worker.meets", "count", Lower),
    layer("sched.worker.busy_ns_per_meet", "ns", Lower),
    layer("sched.source.meets", "count", Lower),
    layer("sched.source.busy_ns_per_meet", "ns", Lower),
    layer("sched.federation.jobs_placed", "count", Higher),
    layer("sched.federation.jobs_forwarded", "count", Lower),
    layer("sched.federation.digests_sent", "count", Lower),
    layer("sched.federation.wait_p95_ms", "ms", Lower),
    layer("host.allocs_per_event", "count", Lower),
    layer("host.alloc_bytes_per_event", "B", Lower),
    layer("host.user_s", "s", Lower),
    layer("host.sys_s", "s", Lower),
    layer("host.sys_share", "ratio", Lower),
    layer("trace.overhead_ratio", "ratio", Lower),
    layer("share.calendar", "ratio", Lower),
    layer("share.routing", "ratio", Lower),
    layer("share.codec", "ratio", Lower),
    layer("share.script", "ratio", Lower),
    layer("share.agents", "ratio", Lower),
    layer("share.kernel", "ratio", Lower),
    layer("trace.reps", "count", Higher),
];

pub fn per_layer(name: &str) -> Option<&'static Layer> {
    PER_LAYER.iter().find(|l| l.name == name)
}

/// The agents whose wrapped time is reported, as `(metric prefix, meet name)`.
pub const AGENTS: [(&str, &str); 7] = [
    ("agents.ag_tac", "ag_tac"),
    ("agents.rexec", "rexec"),
    ("agents.naive_flood", "naive_flood"),
    ("sched.broker", "broker"),
    ("sched.monitor", "monitor"),
    ("sched.worker", "worker"),
    ("sched.source", "fed_source"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn names_are_unique_and_within_the_contract_limits() {
        let names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .collect();
        assert_eq!(names.iter().collect::<BTreeSet<_>>().len(), names.len());
        for name in names {
            assert!(name.len() <= 64);
            assert!(name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        for unit in END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit))
        {
            assert!(!unit.is_empty() && unit.len() <= 16);
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
    }

    #[test]
    fn every_reported_agent_has_both_metrics() {
        for (prefix, _) in AGENTS {
            for suffix in ["meets", "busy_ns_per_meet"] {
                let name = format!("{prefix}.{suffix}");
                assert!(PER_LAYER.iter().any(|m| m.name == name), "{name}");
            }
        }
    }
}
