//! Admission control: the phase between *delivered* and *executed*.
//!
//! With [`AdmissionConfig`] set, a delivered meet request does not dispatch
//! on arrival: it joins its place's bounded queue ([`Admission::admit`]),
//! holds the place's one server for a size-dependent service time
//! ([`Admission::start_service`]), and is handed back to the system for
//! execution when the service timer pops ([`Admission::on_timer`]).  A
//! request that cannot wait — queue full, deadline passed, site crashed
//! under it — is shed through the system's one terminal recorder, so this
//! module holds the shed half of the meet-conservation invariant.

use super::{Engine, Terminal};
use crate::codec::{self, MeetRequest};
use crate::wellknown;
use std::collections::VecDeque;
use tacoma_net::{Duration, SimTime};
use tacoma_util::SiteId;

/// Timer-key bit marking a service completion; the low bits carry the
/// system's usual monotone timer counter.
const SERVICE_KEY_FLAG: u64 = 1 << 63;

/// Timer-key bit marking a janitor tick; the low bits number the tick, so
/// one that outlived its sweep chain is told from the armed one.
const JANITOR_KEY_FLAG: u64 = 1 << 62;

/// Whether a timer key was armed by admission control rather than by a
/// scheduled meet (whose keys count up from 1 and never reach these bits).
pub(super) fn owns_key(key: u64) -> bool {
    key & (SERVICE_KEY_FLAG | JANITOR_KEY_FLAG) != 0
}

/// Backpressure configuration: bounded per-place meet admission queues.
///
/// Without admission control (the default) a delivered meet request is
/// dispatched the instant it arrives — fine for closed workloads that drain
/// to zero, meaningless under open arrivals where offered load can exceed
/// service capacity indefinitely.  With admission control every place gains:
///
/// * a **bounded FIFO admission queue** (`capacity`); a request arriving at a
///   full queue is *shed* — a terminal outcome counted in
///   [`super::SystemStats::meets_shed`] and folded into the meet-conservation
///   invariant, never silently dropped;
/// * a **service model**: one meet is dispatched at a time per place, holding
///   the server for `service_floor + service_per_kib × ⌈encoded size⌉` of
///   simulated time, so queueing delay is real and p99/p999 waits mean
///   something;
/// * a **janitor sweep** every `janitor_period`: entries that have waited
///   past `deadline` are shed (better a fast no than a useless late yes);
///   the sweep disarms itself when every queue is empty, so closed runs
///   still quiesce.
///
/// Waits and sheds are recorded in the simulator's
/// [`tacoma_net::NetMetrics`] (`net.wait_p99_ms`, `net.shed_rate`, …).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdmissionConfig {
    /// Queue capacity per place; `usize::MAX` models the unbounded queue
    /// (admission control off, service model still on) E18 uses as its
    /// divergence baseline.
    pub capacity: usize,
    /// Fixed service cost per meet.
    pub service_floor: Duration,
    /// Additional service cost per KiB of encoded meet request.
    pub service_per_kib: Duration,
    /// Additional service cost per 1000 statically proven interpreter steps
    /// (the `COST` folder stamped by the cost gate).  Zero (the default)
    /// preserves the pure size-based model; meets without a `COST` folder
    /// are charged size only either way.
    pub service_per_kilostep: Duration,
    /// Janitor deadline: queued entries older than this are shed by the next
    /// sweep.  `None` disables deadline shedding.
    pub deadline: Option<Duration>,
    /// Janitor sweep period.
    pub janitor_period: Duration,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            capacity: 64,
            service_floor: Duration::from_micros(500),
            service_per_kib: Duration::from_micros(250),
            service_per_kilostep: Duration::from_micros(0),
            deadline: Some(Duration::from_millis(500)),
            janitor_period: Duration::from_millis(100),
        }
    }
}

impl AdmissionConfig {
    /// Service time for an encoded request of `bytes` bytes.
    pub fn service_time(&self, bytes: u64) -> Duration {
        let kib = bytes.div_ceil(1024);
        Duration::from_micros(
            self.service_floor
                .micros()
                .saturating_add(self.service_per_kib.micros().saturating_mul(kib)),
        )
    }

    /// Service time for an encoded request of `bytes` bytes whose script has
    /// a statically proven worst-case of `steps` interpreter steps.
    pub fn service_time_with_steps(&self, bytes: u64, steps: u64) -> Duration {
        let kilosteps = steps.div_ceil(1000);
        Duration::from_micros(
            self.service_time(bytes)
                .micros()
                .saturating_add(self.service_per_kilostep.micros().saturating_mul(kilosteps)),
        )
    }
}

/// One place's admission state: who waits, and who holds the server.
#[derive(Default)]
struct Door {
    /// Bounded FIFO of (enqueue time, request).
    queue: VecDeque<(SimTime, MeetRequest)>,
    /// The request holding the server, keyed by its service timer so a stale
    /// completion (the site crashed and the slot was cleared) is detected.
    serving: Option<(u64, MeetRequest)>,
}

impl Door {
    fn is_busy(&self) -> bool {
        !self.queue.is_empty() || self.serving.is_some()
    }
}

/// Admission control for every place of one system.
pub(super) struct Admission {
    config: AdmissionConfig,
    doors: Vec<Door>,
    /// The armed janitor tick, or `None` while no sweep is scheduled.
    janitor: Option<Tick>,
    /// Janitor ticks armed so far.
    ticks: u64,
}

/// An armed janitor tick.  The anchor is only an event-queue address (a
/// sweep walks every door), but the simulator discards the timers of a dead
/// site, so the tick must not be left standing on one.
#[derive(Clone, Copy)]
struct Tick {
    anchor: SiteId,
    key: u64,
    due: SimTime,
}

impl Admission {
    pub(super) fn new(config: AdmissionConfig, sites: u32) -> Self {
        Admission {
            config,
            doors: (0..sites).map(|_| Door::default()).collect(),
            janitor: None,
            ticks: 0,
        }
    }

    /// Enqueues a delivered request at `site`, or sheds it if the bounded
    /// queue is full.
    pub(super) fn admit(&mut self, site: SiteId, req: MeetRequest, engine: &mut Engine) {
        let queue = &mut self.doors[site.index()].queue;
        if queue.len() >= self.config.capacity {
            engine.note(format_args!(
                "shed meet with {} at {site}: admission queue full ({})",
                req.contact, self.config.capacity
            ));
            return engine.terminal(Terminal::Shed);
        }
        let now = engine.net.now();
        queue.push_back((now, req));
        self.arm_janitor(site, now + self.config.janitor_period, engine);
        self.start_service(site, engine);
    }

    /// Starts serving the next queued request at `site` if the server there
    /// is idle: records the admission wait, charges the size-dependent
    /// service time, and arms the completion timer.
    pub(super) fn start_service(&mut self, site: SiteId, engine: &mut Engine) {
        let door = &mut self.doors[site.index()];
        if door.serving.is_some() {
            return;
        }
        let Some((enqueued_at, req)) = door.queue.pop_front() else {
            return;
        };
        let wait_ms = engine.net.now().since(enqueued_at).as_millis_f64();
        let depth = door.queue.len() as u64 + 1;
        engine.net.metrics_mut().record_admission(wait_ms, depth);
        let bytes = codec::meet_request_encoded_len(&req) as u64;
        let steps = req.briefcase.peek_u64(wellknown::COST).unwrap_or(0);
        let service = self.config.service_time_with_steps(bytes, steps);
        let key = SERVICE_KEY_FLAG | engine.fresh_key();
        door.serving = Some((key, req));
        engine.net.schedule_timer(site, service, key);
    }

    /// An admission timer popped at `site`.  A service completion hands back
    /// the request that held the server, for the system to execute before it
    /// calls [`Admission::start_service`] again; a janitor tick sweeps.  A
    /// stale key (the site crashed, its slot or the sweep chain was cleared,
    /// and it recovered before the timer popped) is ignored.
    pub(super) fn on_timer(
        &mut self,
        site: SiteId,
        key: u64,
        engine: &mut Engine,
    ) -> Option<MeetRequest> {
        if key & SERVICE_KEY_FLAG != 0 {
            let serving = &mut self.doors[site.index()].serving;
            return serving
                .take_if(|(armed, _)| *armed == key)
                .map(|(_, req)| req);
        }
        if self
            .janitor
            .is_some_and(|tick| (tick.anchor, tick.key) == (site, key))
        {
            self.janitor = None;
            self.sweep(engine);
        }
        None
    }

    /// A crash takes the admission queue down with the place: everything
    /// queued or in service there is terminally shed (the service timer dies
    /// with the site inside the simulator, so only the slot needs clearing).
    /// A janitor tick anchored there dies too: it moves, due when it was, to
    /// a site that is still busy.
    pub(super) fn on_crash(&mut self, site: SiteId, engine: &mut Engine) {
        let door = std::mem::take(&mut self.doors[site.index()]);
        for _ in 0..door.queue.len() + usize::from(door.serving.is_some()) {
            engine.terminal(Terminal::Shed);
        }
        if let Some(tick) = self.janitor.take_if(|tick| tick.anchor == site) {
            self.rearm_janitor(tick.due, engine);
        }
    }

    /// Arms the janitor tick at `anchor` (a live site) for `due`, unless one
    /// is armed already or there is no deadline to enforce.
    fn arm_janitor(&mut self, anchor: SiteId, due: SimTime, engine: &mut Engine) {
        if self.janitor.is_some() || self.config.deadline.is_none() {
            return;
        }
        self.ticks += 1;
        let key = JANITOR_KEY_FLAG | self.ticks;
        self.janitor = Some(Tick { anchor, key, due });
        let delay = due.since(engine.net.now());
        engine.net.schedule_timer(anchor, delay, key);
    }

    /// Re-arms the janitor only while work remains — an idle system
    /// quiesces with no standing timer.  A busy door is a live anchor: a
    /// crash empties the door it hits.
    fn rearm_janitor(&mut self, due: SimTime, engine: &mut Engine) {
        if let Some(busy) = self.doors.iter().position(Door::is_busy) {
            self.arm_janitor(SiteId(busy as u32), due, engine);
        }
    }

    /// Periodic janitor sweep: sheds queued entries whose wait has passed
    /// the admission deadline (the queues are FIFO, so expired entries are
    /// always at the front).
    fn sweep(&mut self, engine: &mut Engine) {
        let Some(deadline) = self.config.deadline else {
            return;
        };
        let now = engine.net.now();
        let mut swept: u64 = 0;
        for door in &mut self.doors {
            while let Some((enqueued_at, _)) = door.queue.front() {
                if now.since(*enqueued_at) < deadline {
                    break;
                }
                door.queue.pop_front();
                swept += 1;
            }
        }
        engine.terminal(Terminal::Swept(swept));
        if swept > 0 {
            engine.note(format_args!("janitor shed {swept} expired meet(s)"));
        }
        self.rearm_janitor(now + self.config.janitor_period, engine);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agent::{Agent, MeetCtx, MeetOutcome};
    use crate::briefcase::Briefcase;
    use crate::system::{SystemStats, TacomaSystem};
    use tacoma_net::{FailurePlan, LinkSpec, Topology};
    use tacoma_util::AgentName;

    struct Sink;
    impl Agent for Sink {
        fn name(&self) -> AgentName {
            AgentName::new("sink")
        }
        fn meet(&mut self, _ctx: &mut MeetCtx<'_>, bc: Briefcase) -> MeetOutcome {
            Ok(bc)
        }
    }

    /// Slow service and nothing else: the knobs each test turns are spelled
    /// at its call site.
    fn slow(floor_ms: u64) -> AdmissionConfig {
        AdmissionConfig {
            capacity: usize::MAX,
            service_floor: Duration::from_millis(floor_ms),
            service_per_kib: Duration::from_micros(0),
            service_per_kilostep: Duration::from_micros(0),
            deadline: None,
            janitor_period: Duration::from_millis(100),
        }
    }

    fn admission_system(config: AdmissionConfig) -> TacomaSystem {
        TacomaSystem::builder()
            .topology(Topology::full_mesh(2, LinkSpec::default()))
            .seed(7)
            .admission(config)
            .with_agents(|_| vec![Box::new(Sink)])
            .build()
    }

    fn burst(sys: &mut TacomaSystem, site: u32, meets: u32) {
        for _ in 0..meets {
            sys.inject_meet(SiteId(site), AgentName::new("sink"), Briefcase::new());
        }
    }

    /// Conservation with the shed bucket: every requested meet lands in
    /// exactly one terminal outcome.
    fn assert_conserved(s: &SystemStats) {
        assert!(s.conserved(0), "meet conservation violated: {s:?}");
    }

    #[test]
    fn cost_annotation_stretches_service_time() {
        // Two identical-size requests, one carrying a COST annotation: with a
        // per-kilostep charge the annotated one must hold the server longer.
        let config = AdmissionConfig {
            service_floor: Duration::from_micros(500),
            service_per_kilostep: Duration::from_millis(3),
            ..slow(0)
        };
        assert_eq!(
            config.service_time_with_steps(100, 0),
            Duration::from_micros(500)
        );
        assert_eq!(
            config.service_time_with_steps(100, 4_500),
            Duration::from_micros(500 + 5 * 3_000)
        );
        // And the zero default keeps the historical pure-size model.
        let legacy = AdmissionConfig::default();
        assert_eq!(
            legacy.service_time_with_steps(2048, 10_000),
            legacy.service_time(2048)
        );
    }

    #[test]
    fn admission_overflow_sheds_and_conserves() {
        // Queue of 2 with slow service: a burst of 10 can hold at most one
        // in service plus two queued at its peak, so most of the burst sheds.
        let mut sys = admission_system(AdmissionConfig {
            capacity: 2,
            ..slow(50)
        });
        burst(&mut sys, 0, 10);
        sys.run_until_quiescent(10_000);
        let s = sys.stats();
        assert_eq!(s.meets_requested, 10);
        assert!(s.meets_shed >= 7, "expected most of the burst shed: {s:?}");
        assert!(s.meets_completed >= 1, "the served head must complete");
        assert_conserved(&s);
        let m = sys.net_metrics();
        assert_eq!(m.shed_meets(), s.meets_shed);
        assert_eq!(m.admitted_meets(), s.meets_completed);
        assert!(m.shed_rate() > 0.5);
        assert!(m.admission_queue_peak() >= 2);
    }

    #[test]
    fn admission_unbounded_never_sheds() {
        let mut sys = admission_system(slow(5));
        burst(&mut sys, 0, 20);
        sys.run_until_quiescent(10_000);
        let s = sys.stats();
        assert_eq!(s.meets_shed, 0, "unbounded admission must not shed");
        assert_eq!(s.meets_completed, 20);
        assert_conserved(&s);
        // Queueing delay is real: later arrivals waited behind ~95ms of
        // service, which the wait summary must reflect.
        assert!(sys.net_metrics().admission_waits().max() >= 90.0);
    }

    /// Slow service with a short deadline: everything behind the head of
    /// the queue goes stale and the janitor sweeps it.
    fn stale_queue() -> AdmissionConfig {
        AdmissionConfig {
            deadline: Some(Duration::from_millis(10)),
            janitor_period: Duration::from_millis(5),
            ..slow(50)
        }
    }

    #[test]
    fn janitor_sheds_expired_entries_and_quiesces() {
        let mut sys = admission_system(stale_queue());
        burst(&mut sys, 0, 6);
        let processed = sys.run_until_quiescent(10_000);
        assert!(
            processed < 10_000,
            "janitor must disarm and let the run drain"
        );
        let s = sys.stats();
        let m = sys.net_metrics();
        assert!(m.janitor_sweeps() > 0, "janitor never ran");
        assert!(m.janitor_shed() > 0, "janitor never shed: {s:?}");
        assert_eq!(m.shed_meets(), s.meets_shed);
        assert!(s.meets_completed >= 1);
        assert_conserved(&s);
    }

    /// Six meets queue at site 1 while site 0 — where the first tick of a
    /// run used to be anchored, whatever site was busy — is down from 1 ms
    /// for `outage`: the janitor must keep sweeping site 1 regardless.
    fn janitor_with_site0_down(outage: Option<Duration>) -> TacomaSystem {
        let mut sys = admission_system(stale_queue());
        let down_at = SimTime::ZERO + Duration::from_millis(1);
        sys.apply_failure_plan(&match outage {
            Some(span) => FailurePlan::none().outage(SiteId(0), down_at, span),
            None => FailurePlan::none().crash(SiteId(0), down_at),
        });
        burst(&mut sys, 1, 6);
        let processed = sys.run_until_quiescent(10_000);
        assert!(processed < 10_000, "the run must quiesce");
        sys
    }

    #[test]
    fn janitor_survives_site_0_being_down_across_its_tick() {
        let sys = janitor_with_site0_down(Some(Duration::from_millis(20)));
        let s = sys.stats();
        assert!(s.meets_shed > 0, "past-deadline entries must shed: {s:?}");
        assert_eq!(sys.net_metrics().janitor_shed(), s.meets_shed);
        assert_eq!(s.recoveries, 1);
        assert_conserved(&s);
    }

    #[test]
    fn janitor_survives_site_0_never_recovering() {
        let sys = janitor_with_site0_down(None);
        let s = sys.stats();
        assert!(s.meets_shed > 0, "past-deadline entries must shed: {s:?}");
        assert_eq!(s.meets_requested, 6);
        assert_conserved(&s);
    }

    #[test]
    fn anchor_crash_moves_the_sweep_chain_and_its_stale_tick_is_ignored() {
        // Both sites queue, so the chain is anchored at site 0 (first to
        // admit).  Site 0 is out from 1 ms to 3 ms — back before the 5 ms
        // tick it was holding pops.  That tick must not sweep: the chain
        // moved to site 1 at the crash, due at the same instant, and a
        // second one would double the sweeps for the same span of time.
        let mut sys = admission_system(stale_queue());
        sys.apply_failure_plan(&FailurePlan::none().outage(
            SiteId(0),
            SimTime::ZERO + Duration::from_millis(1),
            Duration::from_millis(2),
        ));
        burst(&mut sys, 0, 3);
        burst(&mut sys, 1, 6);
        sys.run_until_quiescent(10_000);
        let s = sys.stats();
        let m = sys.net_metrics();
        assert!(s.meets_shed >= 3, "site 0's queue sheds with it: {s:?}");
        assert!(m.janitor_shed() > 0, "site 1 is still swept: {s:?}");
        assert_eq!(m.shed_meets(), s.meets_shed);
        assert_conserved(&s);
        // One chain: a sweep every 5 ms until site 1's head leaves the
        // server at 50 ms.
        assert_eq!(m.janitor_sweeps(), 10, "a second sweep chain ran");
    }

    #[test]
    fn scheduled_meets_flow_through_admission() {
        let mut sys = admission_system(AdmissionConfig::default());
        for i in 0..4u64 {
            sys.schedule_meet(
                SiteId(1),
                AgentName::new("sink"),
                Briefcase::new(),
                Duration::from_millis(i),
            );
        }
        sys.run_until_quiescent(10_000);
        let s = sys.stats();
        assert_eq!(s.timer_meets, 4);
        assert_eq!(s.meets_requested, 4);
        assert_eq!(s.meets_completed, 4);
        assert_conserved(&s);
        assert_eq!(sys.net_metrics().admitted_meets(), 4);
    }

    #[test]
    fn crash_sheds_queued_admissions() {
        let mut sys = admission_system(slow(50));
        burst(&mut sys, 0, 5);
        // Let the burst land in the queue, then take the site down mid-queue
        // (the crash is a scheduled event so it flows through the loop).
        sys.apply_failure_plan(&FailurePlan::none().crash(SiteId(0), SimTime(5_000)));
        sys.run_until_quiescent(10_000);
        let s = sys.stats();
        assert!(
            s.meets_shed >= 4,
            "queued and in-service meets must shed: {s:?}"
        );
        assert_conserved(&s);
    }
}
