//! The five workloads, and the harness that times the calls they make into
//! the program.
//!
//! Every workload is a batch of fixed, deterministic work: the seed feeds the
//! input generator only, and the program receives the generated inputs.  A
//! repetition builds a fresh system (timed as set-up), then makes its calls
//! into the program through [`Harness::inject`] and [`Harness::chunk`]; only
//! those calls count towards `wall_s`.

pub mod federation_1k;
pub mod flood_mesh;
pub mod mail_overload;
pub mod script_fleet;
pub mod simnet_gossip;

use crate::spans::{AgentClock, Tracer};
use crate::stats::Fnv;
use crate::{alloc, host};
use std::rc::Rc;
use std::time::{Duration as HostDuration, Instant};
use tacoma_core::codec::MeetRequest;
use tacoma_core::{SystemStats, TacomaSystem};
use tacoma_net::{Duration, OpenWorkload, SimNet, SimTime, Topology};
use tacoma_script::AuditConfig;
use tacoma_util::SiteId;

/// The workloads in the order they run, each with why it was chosen.
pub const WORKLOADS: [(&str, &str); 5] = [
    (
        "flood_mesh",
        "a million tiny meets by a native agent: the whole meet path hot, scripts, sched and admission idle",
    ),
    (
        "script_fleet",
        "8000 TacoScript agents: parser, interpreter and the three install gates do the work, the engine almost none",
    ),
    (
        "federation_1k",
        "broker federation at 1024 sites: sched agents, timers, WAN routing and per-meet O(sites) dispatch inputs",
    ),
    (
        "simnet_gossip",
        "the bare event engine at 4096 sites, no kernel, codec or agents: the bypass for core, script and sched changes",
    ),
    (
        "mail_overload",
        "open-arrival mail at 4x rate: few large many-element briefcases, the only workload that sheds under admission",
    ),
];

/// Events per `run.chunk`: the granularity of the in-situ timing.
pub const CHUNK_EVENTS: u64 = 1024;

/// Set-up is repeated until it has taken this long in total and reported as
/// the mean, so a microsecond-scale set-up is not lost in timer noise.
const SETUP_FLOOR: HostDuration = HostDuration::from_millis(50);

/// At most this many routes are kept for the routing and send replays.
const MAX_PAIRS: usize = 4096;

/// How much work a repetition does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The benchmark's stated sizes (1.5–2.5 s per repetition).
    Full,
    /// Self-test sizes: every workload well under half a second.
    Smoke,
}

impl Size {
    /// Picks the value for this size.
    pub fn pick<T>(self, full: T, smoke: T) -> T {
        match self {
            Size::Full => full,
            Size::Smoke => smoke,
        }
    }
}

/// Host time of one timed call into the event loop.
#[derive(Debug, Clone, Copy)]
pub struct Chunk {
    pub ns: u64,
    pub events: u64,
}

/// What the harness measured during one repetition.
#[derive(Debug, Clone, Default)]
pub struct Measured {
    /// Mean host time of one set-up.
    pub setup_ns: u64,
    pub inject_ns: u64,
    pub injects: u64,
    pub run_ns: u64,
    pub events: u64,
    pub chunks: Vec<Chunk>,
    /// Largest event-queue depth seen at a chunk boundary.
    pub standing_peak: u64,
    /// Allocations and bytes requested inside timed calls (traced runs only).
    pub allocs: u64,
    pub alloc_bytes: u64,
    /// Process `(user, system)` seconds over the timed section, generator
    /// work between the timed calls included.
    pub cpu_s: Option<(f64, f64)>,
}

impl Measured {
    /// Host seconds spent in the timed calls: the workload's `wall_s`.
    pub fn wall_s(&self) -> f64 {
        (self.inject_ns + self.run_ns) as f64 / 1e9
    }
}

/// Times the benchmark's calls into the program during one repetition and,
/// in a traced run, records them as spans.
pub struct Harness<'t> {
    tracer: Option<&'t mut Tracer>,
    rep_span: Option<u32>,
    measured: Measured,
    /// Start and accumulated time of the current batch of inject calls.
    batch: Option<(u64, u64, u64)>,
}

impl<'t> Harness<'t> {
    fn new(tracer: Option<&'t mut Tracer>, rep: u32) -> Self {
        let mut tracer = tracer;
        let rep_span = tracer.as_deref_mut().map(|t| {
            t.start_rep(rep);
            let now = t.now_ns();
            t.record("rep", "benchmark", None, now, now, 1)
        });
        Harness {
            tracer,
            rep_span,
            measured: Measured::default(),
            batch: None,
        }
    }

    /// The agent clock to wrap agents with, in a traced run.
    pub fn clock(&self) -> Option<Rc<AgentClock>> {
        self.tracer.as_deref().map(|t| Rc::clone(&t.clock))
    }

    fn now_ns(&self) -> u64 {
        self.tracer.as_deref().map_or(0, Tracer::now_ns)
    }

    /// Runs `build` as the repetition's set-up and returns what it built.
    /// Set-up is repeated (earlier results dropped, untimed) until
    /// [`SETUP_FLOOR`] has been spent; `setup_ns` is the mean.  One build is
    /// made and discarded first: after the previous repetition freed a
    /// million small blocks, the allocator's next large request consolidates
    /// them (60–90 ms), which is that repetition's teardown, not this set-up.
    pub fn setup<T>(&mut self, mut build: impl FnMut() -> T) -> T {
        drop(build());
        let start_ns = self.now_ns();
        let mut total = HostDuration::ZERO;
        let mut runs = 0u32;
        loop {
            let start = Instant::now();
            let built = build();
            total += start.elapsed();
            runs += 1;
            if total >= SETUP_FLOOR {
                self.measured.setup_ns = (total / runs).as_nanos() as u64;
                let parent = self.rep_span;
                if let Some(t) = self.tracer.as_deref_mut() {
                    let end_ns = start_ns + total.as_nanos() as u64;
                    t.record("setup", "benchmark", parent, start_ns, end_ns, runs.into());
                }
                return built;
            }
            drop(built);
        }
    }

    fn timed<T>(&mut self, call: impl FnOnce() -> T) -> (T, u64) {
        let counting = self.tracer.is_some();
        let before = alloc::snapshot();
        alloc::set_enabled(counting);
        let start = Instant::now();
        let out = call();
        let ns = start.elapsed().as_nanos() as u64;
        alloc::set_enabled(false);
        if counting {
            let after = alloc::snapshot();
            self.measured.allocs += after.0 - before.0;
            self.measured.alloc_bytes += after.1 - before.1;
        }
        (out, ns)
    }

    /// Times one call that hands the program a request (`inject_meet`,
    /// `schedule_meet`).  Consecutive calls form one `inject` span.
    pub fn inject<T>(&mut self, call: impl FnOnce() -> T) -> T {
        let batch_start = self.now_ns();
        let (out, ns) = self.timed(call);
        self.measured.inject_ns += ns;
        self.measured.injects += 1;
        let batch = self.batch.get_or_insert((batch_start, 0, 0));
        batch.1 += ns;
        batch.2 += 1;
        out
    }

    fn close_batch(&mut self) {
        let Some((start_ns, ns, calls)) = self.batch.take() else {
            return;
        };
        let parent = self.rep_span;
        if let Some(t) = self.tracer.as_deref_mut() {
            t.record(
                "inject",
                "core.system",
                parent,
                start_ns,
                start_ns + ns,
                calls,
            );
        }
    }

    /// Times one call into the event loop; `call` returns the number of
    /// events it processed and `pending` the queue depth afterwards.
    pub fn chunk(&mut self, call: impl FnOnce() -> (u64, usize)) -> u64 {
        self.close_batch();
        let start_ns = self.now_ns();
        let ((events, pending), ns) = self.timed(call);
        let m = &mut self.measured;
        m.run_ns += ns;
        m.events += events;
        m.chunks.push(Chunk { ns, events });
        m.standing_peak = m.standing_peak.max(pending as u64);
        let parent = self.rep_span;
        if let Some(t) = self.tracer.as_deref_mut() {
            let id = t.record(
                "run.chunk",
                "core.system",
                parent,
                start_ns,
                start_ns + ns,
                events,
            );
            t.close_chunk(id, start_ns);
        }
        events
    }

    /// Ends the timed section: closes the open spans.
    fn finish(&mut self) {
        self.close_batch();
        let (Some(id), Some(t)) = (self.rep_span, self.tracer.as_deref_mut()) else {
            return;
        };
        let now = t.now_ns();
        t.close(id, now);
    }

    /// Runs the system until its event queue is empty.
    pub fn drain(&mut self, sys: &mut TacomaSystem) {
        while self.chunk(|| {
            let n = sys.run_until_quiescent(CHUNK_EVENTS);
            (n, sys.net().pending_count())
        }) == CHUNK_EVENTS
        {}
    }

    /// Runs the system up to simulated time `deadline`, one chunk per `slice`
    /// of simulated time (the public API bounds a run by events or by time,
    /// not both; callers size slices to about [`CHUNK_EVENTS`] events).
    pub fn advance(&mut self, sys: &mut TacomaSystem, deadline: SimTime, slice: Duration) {
        let mut until = sys.now();
        while let Some(next) = sys.net().peek_time().filter(|t| *t <= deadline) {
            until = (until.max(next) + slice).min(deadline);
            self.chunk(|| {
                let n = sys.run_until(until);
                (n, sys.net().pending_count())
            });
        }
    }
}

/// Simulated-side counters every workload reports, read from the program's
/// own exports after the run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimCounts {
    pub now_us: u64,
    pub wire_bytes: u64,
    pub messages: u64,
    pub hops: u64,
    pub delivered: u64,
    pub dropped: u64,
    pub route_queries: u64,
    pub bfs_runs: u64,
    /// Meets that passed an admission queue (each was encoded once more, to
    /// size its service time).
    pub admitted: u64,
}

impl SimCounts {
    pub fn of(net: &SimNet) -> Self {
        let m = net.metrics();
        let (route_queries, bfs_runs) = net.routing_work();
        SimCounts {
            now_us: net.now().micros(),
            wire_bytes: m.total_bytes().get(),
            messages: m.total_messages(),
            hops: m.total_hops(),
            delivered: m.delivered_messages(),
            dropped: m.dropped_messages(),
            route_queries,
            bfs_runs,
            admitted: m.admitted_meets(),
        }
    }

    /// Messages accepted but neither delivered nor dropped yet.
    pub fn in_flight(&self) -> u64 {
        self.messages - self.delivered - self.dropped
    }
}

/// One offered script: its source and the folders injected next to `CODE`.
pub struct ScriptSample {
    pub code: String,
    pub folders: Vec<&'static str>,
}

/// Inputs captured from a repetition for the layer replays.
#[derive(Default)]
pub struct Capture {
    /// The topology the workload ran on.
    pub topology: Option<Topology>,
    /// A sample of the `(from, to)` routes the workload asked for.
    pub pairs: Vec<(SiteId, SiteId)>,
    /// Payload size for the raw send/step replay, where the workload sends
    /// raw payloads; otherwise the median encoded request is used.
    pub payload_bytes: Option<usize>,
    /// Meet requests sampled by the agent wrappers (traced runs only).
    pub requests: Vec<MeetRequest>,
    /// A sample of the scripts offered, in the order they were offered.
    pub scripts: Vec<ScriptSample>,
    /// The fleet the scripts were audited against.
    pub audit: Option<AuditConfig>,
    /// The open-arrival spec the workload generated its arrivals from.
    pub arrivals: Option<OpenWorkload>,
}

/// What one repetition did, as observed from outside the program.
#[derive(Default)]
pub struct Outcome {
    pub sim: SimCounts,
    /// Kernel counters; all zero for the workload that runs no kernel.
    pub stats: SystemStats,
    /// Operations offered to the program (meets requested plus scripts the
    /// gates refused; events for the bare engine).
    pub attempted: u64,
    /// Operations whose terminal differs from a clean completion: failed,
    /// send-failed, expired, shed, or a gate verdict the generator did not
    /// expect.  The numerator of `failed_share`.
    pub off_nominal: u64,
    /// The subset of `off_nominal` that no workload plans for: everything but
    /// the meets the admission layer sheds under deliberate overload.
    pub unplanned: u64,
    /// Interpreter steps executed (`script_fleet`).
    pub steps: Option<u64>,
    /// BODY bytes delivered to mailrooms (`mail_overload`).
    pub payload_bytes: Option<u64>,
    /// p99 simulated admission wait (`mail_overload`).
    pub wait_p99_ms: Option<f64>,
    /// Layer counts particular to the workload, by per-layer metric name.
    pub counts: Vec<(&'static str, f64)>,
    /// Every way the outputs differ from the reference; empty when correct.
    pub violations: Vec<String>,
    pub digest: u64,
    pub capture: Capture,
}

impl Outcome {
    /// Records `what` as a violation unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.violations.push(what());
        }
    }

    /// Meets that reached a terminal state.
    pub fn terminal_meets(&self) -> u64 {
        let s = &self.stats;
        s.meets_completed + s.meets_failed + s.send_failures + s.meets_expired + s.meets_shed
    }

    /// Reads the kernel's and the network's counters, checks meet
    /// conservation, fills the common layer counts and seals the digest.
    pub fn observe_system(&mut self, sys: &TacomaSystem, events: u64) {
        self.stats = sys.stats();
        self.sim = SimCounts::of(sys.net());
        let s = self.stats;
        // Every requested meet is in exactly one terminal bucket, or its
        // request is still on the wire (runs stopped at a simulated horizon).
        let (terminal, in_flight) = (self.terminal_meets(), self.sim.in_flight());
        self.check(s.meets_requested == terminal + in_flight, || {
            format!(
                "meet conservation: requested {} != terminal {terminal} + in flight {in_flight}",
                s.meets_requested
            )
        });
        let retained: usize = (0..sys.site_count())
            .map(|site| {
                let store = sys.place(SiteId(site)).cabinets();
                store
                    .names()
                    .iter()
                    .map(|name| store.get(name).map_or(0, |c| c.payload_bytes()))
                    .sum::<usize>()
            })
            .sum();
        let m = sys.net_metrics();
        self.counts.extend([
            (
                "core.cabinet.retained_mib",
                retained as f64 / (1024.0 * 1024.0),
            ),
            ("core.system.trace_lines", sys.trace().len() as f64),
            ("core.admission.admitted", self.sim.admitted as f64),
            ("core.admission.shed", m.shed_meets() as f64),
            ("core.admission.queue_peak", m.admission_queue_peak() as f64),
            ("core.admission.janitor_sweeps", m.janitor_sweeps() as f64),
        ]);
        let mut h = Fnv::new();
        for w in [
            s.meets_requested,
            s.meets_completed,
            s.meets_failed,
            s.remote_meets,
            s.local_meets,
            s.timer_meets,
            s.send_failures,
            s.meets_expired,
            s.meets_shed,
            s.agents_installed,
            s.scripts_rejected,
            s.audits_rejected,
            s.costs_rejected,
            s.crashes,
            s.recoveries,
            s.cabinet_flushes,
            self.sim.admitted,
            m.shed_meets(),
            m.janitor_sweeps(),
        ] {
            h.word(w);
        }
        self.seal(h, events);
    }

    /// Folds the network totals, the event count and the final simulated
    /// time into `h` and stores the result as the repetition's digest.
    pub fn seal(&mut self, mut h: Fnv, events: u64) {
        let c = self.sim;
        for w in [
            c.wire_bytes,
            c.messages,
            c.hops,
            c.delivered,
            c.dropped,
            events,
            c.now_us,
        ] {
            h.word(w);
        }
        self.digest = h.finish();
    }
}

/// Keeps an even-stride sample of at most [`MAX_PAIRS`] items.
pub fn thin<T>(items: Vec<T>) -> Vec<T> {
    let stride = items.len().div_ceil(MAX_PAIRS).max(1);
    items.into_iter().step_by(stride).collect()
}

/// One workload: how to build it, drive it and check what it produced.
pub trait Workload {
    /// The system under test with its generated inputs.
    type World;

    /// Set-up: topology, system, agents and the inputs generated from `seed`.
    /// Agents are wrapped with `clock` in a traced run.
    fn build(seed: u64, size: Size, clock: Option<&Rc<AgentClock>>) -> Self::World;

    /// The timed section: every call into the program goes through `h`.
    fn drive(world: &mut Self::World, h: &mut Harness<'_>);

    /// Reads the outputs back and checks them against references that do
    /// not come from the program; `events` is the number `drive` processed.
    fn verify(world: Self::World, events: u64) -> Outcome;
}

fn rep_of<W: Workload>(seed: u64, size: Size, mut h: Harness<'_>) -> (Outcome, Measured) {
    let clock = h.clock();
    let mut world = h.setup(|| W::build(seed, size, clock.as_ref()));
    let cpu_start = host::cpu_times_s();
    W::drive(&mut world, &mut h);
    let cpu_end = host::cpu_times_s();
    h.finish();
    let mut measured = h.measured;
    measured.cpu_s = cpu_start.zip(cpu_end).map(|(a, b)| (b.0 - a.0, b.1 - a.1));
    (W::verify(world, measured.events), measured)
}

/// Runs one repetition of the named workload: the `index`-th of a traced run
/// when a tracer is given.
pub fn rep(
    name: &str,
    seed: u64,
    size: Size,
    tracer: Option<&mut Tracer>,
    index: u32,
) -> Option<(Outcome, Measured)> {
    let h = Harness::new(tracer, index);
    Some(match name {
        "flood_mesh" => rep_of::<flood_mesh::FloodMesh>(seed, size, h),
        "script_fleet" => rep_of::<script_fleet::ScriptFleet>(seed, size, h),
        "federation_1k" => rep_of::<federation_1k::Federation1k>(seed, size, h),
        "simnet_gossip" => rep_of::<simnet_gossip::SimnetGossip>(seed, size, h),
        "mail_overload" => rep_of::<mail_overload::MailOverload>(seed, size, h),
        _ => return None,
    })
}
