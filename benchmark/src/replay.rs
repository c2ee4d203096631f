//! Layer replays: after a traced repetition, time each layer's public
//! function on inputs captured from that workload.
//!
//! A replay gives a cost per operation; multiplied by the operation count the
//! program exported during the run it estimates the layer's share of
//! `wall_s`.  It is an estimate: the replay runs the layer alone, with warm
//! caches, and says nothing about the cache misses the full run causes.

use crate::spans::Tracer;
use crate::stats::percentile_u64;
use crate::workloads::{Capture, ScriptSample};
use std::hint::black_box;
use std::time::{Duration as HostDuration, Instant};
use tacoma_core::codec::{decode_meet_request, encode_meet_request};
use tacoma_core::wellknown;
use tacoma_net::{CalendarQueue, Router, SendOptions, SimNet, SimTime, TransportKind};
use tacoma_script::{audit, cost_bound, parse_script, summarize, vet, AnalysisConfig};
use tacoma_util::DetRng;

/// Each replay repeats its input until it has run this long.
const REPLAY_FLOOR: HostDuration = HostDuration::from_millis(40);

/// Cost per operation of every layer that can be replayed from `capture`;
/// zero where the workload gave the layer nothing to do.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Replays {
    pub push_pop_ns: f64,
    pub route_hit_ns: f64,
    pub route_miss_ns: f64,
    pub send_step_ns: f64,
    pub generate_ns_per_arrival: f64,
    pub encode_ns: f64,
    pub decode_ns: f64,
    pub encode_mib_per_s: f64,
    pub decode_mib_per_s: f64,
    pub bytes_per_req_p50: f64,
    pub elems_per_req_p50: f64,
    pub roundtrip_ok_ratio: f64,
    pub parse_ns_per_kib: f64,
    pub vet_ns: f64,
    pub summarize_ns: f64,
    pub fleet_ns: f64,
    pub bound_ns: f64,
}

/// Runs `pass` (which performs and returns a number of operations) until
/// [`REPLAY_FLOOR`] has elapsed, records the whole as a `replay.<layer>`
/// span, and returns nanoseconds per operation.
fn time_ops(tracer: &mut Tracer, layer: &'static str, mut pass: impl FnMut() -> u64) -> f64 {
    let start_ns = tracer.now_ns();
    let start = Instant::now();
    let mut ops = 0;
    while start.elapsed() < REPLAY_FLOOR {
        let done = pass();
        if done == 0 {
            break;
        }
        ops += done;
    }
    let ns = start.elapsed().as_nanos() as u64;
    tracer.record(
        format!("replay.{layer}"),
        layer,
        None,
        start_ns,
        start_ns + ns,
        ops,
    );
    if ops == 0 {
        0.0
    } else {
        ns as f64 / ops as f64
    }
}

/// The classic hold model on a `CalendarQueue`: at the workload's standing
/// depth, pop the next event and push one an exponential gap ahead, the gap
/// chosen so events leave at the workload's mean inter-event time.
fn calendar(tracer: &mut Tracer, depth: u64, mean_gap_us: f64) -> f64 {
    let depth = depth.max(1);
    let ahead_us = (depth as f64 * mean_gap_us).max(1.0);
    let mut rng = DetRng::new(0xCA1E_17DA);
    let mut queue: CalendarQueue<u64, u64> = CalendarQueue::new();
    let mut key = 0;
    for _ in 0..depth {
        queue.push(SimTime(rng.exponential(ahead_us) as u64), key, key);
        key += 1;
    }
    time_ops(tracer, "net.calendar", || {
        for _ in 0..4096 {
            let (at, _, value) = queue.pop().expect("the hold model never drains");
            let next = SimTime(at.micros() + rng.exponential(ahead_us) as u64);
            queue.push(next, key, black_box(value));
            key += 1;
        }
        4096
    })
}

/// `Router::route` over the captured pairs: one cold pass on a fresh router
/// (every distinct pair is a BFS), then warm passes (every query a hit).
/// Returns `(hit ns, miss ns)`.
fn routing(tracer: &mut Tracer, capture: &Capture) -> (f64, f64) {
    let Some(topology) = &capture.topology else {
        return (0.0, 0.0);
    };
    if capture.pairs.is_empty() {
        return (0.0, 0.0);
    }
    let mut router = Router::new(topology.clone());
    let pass = |router: &mut Router| {
        for (from, to) in &capture.pairs {
            black_box(router.route(*from, *to, 0, |_| true, |_, _| false));
        }
        capture.pairs.len() as u64
    };
    let cold_start = Instant::now();
    let queries = pass(&mut router);
    let cold_ns = cold_start.elapsed().as_nanos() as f64;
    let misses = router.bfs_runs();
    let hit_ns = time_ops(tracer, "net.routing", || pass(&mut router));
    let miss_ns = if misses == 0 {
        0.0
    } else {
        ((cold_ns - (queries - misses) as f64 * hit_ns) / misses as f64).max(hit_ns)
    };
    (hit_ns, miss_ns)
}

/// Raw `send` + `step` over the captured pairs at the workload's payload size.
fn send_step(tracer: &mut Tracer, capture: &Capture, payload_bytes: usize) -> f64 {
    let Some(topology) = &capture.topology else {
        return 0.0;
    };
    let mut net = SimNet::new(topology.clone());
    let pass = |net: &mut SimNet| {
        for (from, to) in &capture.pairs {
            let sent = net.send(SendOptions {
                from: *from,
                to: *to,
                payload: vec![0; payload_bytes],
                kind: 0,
                transport: TransportKind::Tcp,
                custody: false,
            });
            black_box(sent.is_ok());
            black_box(net.step());
        }
        capture.pairs.len() as u64
    };
    // Warm the route cache: routing has its own replay.
    pass(&mut net);
    time_ops(tracer, "net.sim", || pass(&mut net))
}

fn codec(tracer: &mut Tracer, capture: &Capture, out: &mut Replays) {
    let requests = &capture.requests;
    if requests.is_empty() {
        return;
    }
    let encoded: Vec<Vec<u8>> = requests.iter().map(encode_meet_request).collect();
    let total_bytes: usize = encoded.iter().map(Vec::len).sum();
    let mib = total_bytes as f64 / (1024.0 * 1024.0);
    out.encode_ns = time_ops(tracer, "core.codec", || {
        for req in requests {
            black_box(encode_meet_request(black_box(req)));
        }
        requests.len() as u64
    });
    out.decode_ns = time_ops(tracer, "core.codec", || {
        for buf in &encoded {
            black_box(decode_meet_request(black_box(buf)).is_ok());
        }
        encoded.len() as u64
    });
    let pass_s = |ns_per_op: f64| ns_per_op * requests.len() as f64 / 1e9;
    out.encode_mib_per_s = mib / pass_s(out.encode_ns);
    out.decode_mib_per_s = mib / pass_s(out.decode_ns);
    let mut sizes: Vec<u64> = encoded.iter().map(|b| b.len() as u64).collect();
    out.bytes_per_req_p50 = percentile_u64(&mut sizes, 50.0) as f64;
    let mut elems: Vec<u64> = requests
        .iter()
        .map(|r| r.briefcase.iter().map(|(_, f)| f.len() as u64).sum())
        .collect();
    out.elems_per_req_p50 = percentile_u64(&mut elems, 50.0) as f64;
    let intact = requests
        .iter()
        .zip(&encoded)
        .filter(|(req, buf)| decode_meet_request(buf).is_ok_and(|d| &d == *req))
        .count();
    out.roundtrip_ok_ratio = intact as f64 / requests.len() as f64;
}

fn scripts(tracer: &mut Tracer, capture: &Capture, out: &mut Replays) {
    let stream: &[ScriptSample] = &capture.scripts;
    if stream.is_empty() {
        return;
    }
    let kib: f64 = stream.iter().map(|s| s.code.len() as f64 / 1024.0).sum();
    let parse_ns = time_ops(tracer, "script.parser", || {
        for s in stream {
            black_box(parse_script(black_box(&s.code)).is_ok());
        }
        stream.len() as u64
    });
    out.parse_ns_per_kib = parse_ns * stream.len() as f64 / kib;
    // What the kernel's vet knows: the well-known agents.
    let vet_config = AnalysisConfig::new()
        .known_agents(wellknown::AGENTS.iter().copied())
        .source_name("CODE");
    out.vet_ns = time_ops(tracer, "script.analysis", || {
        for s in stream {
            black_box(vet(black_box(&s.code), &vet_config).is_ok());
        }
        stream.len() as u64
    });
    out.summarize_ns = time_ops(tracer, "script.audit", || {
        for s in stream {
            black_box(summarize(black_box(&s.code)).is_ok());
        }
        stream.len() as u64
    });
    if let Some(fleet) = &capture.audit {
        out.fleet_ns = time_ops(tracer, "script.audit", || {
            for s in stream {
                // As the kernel does: the script joins the fleet under its
                // contact's name, its briefcase's folders count as injected.
                let mut config = fleet.clone();
                config.add_agent(wellknown::AG_TAC, "CODE", s.code.as_str());
                config.add_injected(wellknown::CODE);
                for folder in &s.folders {
                    config.add_injected(*folder);
                }
                black_box(audit(&config).len());
            }
            stream.len() as u64
        });
    }
    out.bound_ns = time_ops(tracer, "script.cost", || {
        for s in stream {
            black_box(cost_bound(black_box(&s.code)).is_ok());
        }
        stream.len() as u64
    });
}

/// Replays every layer `capture` has inputs for.  `standing` and
/// `mean_gap_us` are the queue depth and the mean simulated time between
/// events the workload showed.
pub fn run(tracer: &mut Tracer, capture: &Capture, standing: u64, mean_gap_us: f64) -> Replays {
    let mut out = Replays {
        push_pop_ns: calendar(tracer, standing, mean_gap_us),
        ..Replays::default()
    };
    (out.route_hit_ns, out.route_miss_ns) = routing(tracer, capture);
    codec(tracer, capture, &mut out);
    let payload = capture
        .payload_bytes
        .unwrap_or(out.bytes_per_req_p50 as usize);
    out.send_step_ns = send_step(tracer, capture, payload);
    scripts(tracer, capture, &mut out);
    if let Some(spec) = &capture.arrivals {
        out.generate_ns_per_arrival =
            time_ops(tracer, "net.workload", || spec.generate().len() as u64);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use tacoma_net::{LinkSpec, Topology};
    use tacoma_util::SiteId;

    #[test]
    fn an_empty_capture_replays_only_the_calendar() {
        let mut tracer = Tracer::new();
        let r = run(&mut tracer, &Capture::default(), 16, 10.0);
        assert!(r.push_pop_ns > 0.0);
        assert_eq!(
            Replays {
                push_pop_ns: 0.0,
                ..r
            },
            Replays::default()
        );
        assert!(tracer
            .spans()
            .iter()
            .any(|s| s.name == "replay.net.calendar"));
    }

    #[test]
    fn routing_replay_separates_hits_from_misses() {
        let capture = Capture {
            topology: Some(Topology::ring(64, LinkSpec::default())),
            pairs: (0..64)
                .map(|s| (SiteId(s), SiteId((s + 32) % 64)))
                .collect(),
            ..Capture::default()
        };
        let mut tracer = Tracer::new();
        let (hit, miss) = routing(&mut tracer, &capture);
        assert!(hit > 0.0);
        assert!(
            miss >= hit,
            "a BFS across the ring costs more than a lookup"
        );
    }
}
