//! The whole-system driver: places wired onto the simulated network.
//!
//! [`TacomaSystem`] owns one [`Place`] per site of a
//! [`tacoma_net::Topology`] plus the [`tacoma_net::SimNet`] event queue, and
//! implements the glue the paper leaves to the operating system.  The paper
//! gives the kernel one operation, *meet*, and each phase of a meet exists
//! once here:
//!
//! * **gate** (`gates`) — an entry-point `CODE` folder is vetted, audited
//!   and costed before anything is queued;
//! * **launch** (`Engine::launch`) — the meet becomes *requested*, is
//!   encoded with the TACOMA codec and shipped (charging bytes and latency);
//! * **deliver** (`TacomaSystem::handle_event`) — the request is decoded at
//!   its site; timers become meets carrying a `TIMER` folder;
//! * **admit** (`admission`) — bounded queue and service time, when enabled;
//! * **execute** (`TacomaSystem::dispatch_at`) — the contact agent runs at
//!   its place, then the actions it deferred;
//! * **terminal** (`Engine::terminal`) — exactly one of completed, failed,
//!   send-failure, expired, shed.
//!
//! Around that path, site crashes destroy the resident agents and unflushed
//! cabinets, and recoveries re-install the default agent set and restore
//! flushed cabinets from the stable store.

mod admission;
mod builder;
mod gates;

pub use admission::AdmissionConfig;
pub use builder::{AgentFactory, SystemBuilder};

use crate::agent::{Action, Agent, MeetOutcome};
use crate::briefcase::Briefcase;
use crate::codec::{self, MeetRequest};
use crate::error::TacomaError;
use crate::place::{DispatchEnv, Place};
use crate::wellknown;
use admission::Admission;
use gates::{Gates, Rejection};
use std::collections::BTreeMap;
use std::fmt;
use tacoma_net::{
    Duration, Event, FailurePlan, NetMetrics, SendOptions, SimNet, SimTime, Topology, TransportKind,
};
use tacoma_util::{AgentId, AgentIdGen, AgentName, SiteId};

/// Message kind used on the wire for meet requests.
const KIND_MEET: u16 = 1;

/// How many lines the trace keeps.  An open arrival stream can shed, and so
/// note, without end; at the cap one marker line ends the trace, and later
/// lines are neither formatted nor kept.
const TRACE_CAP: usize = 16_384;

/// What the marker line at the trace's cap says.
const TRACE_FULL: &str = "trace full: later lines are dropped";

/// Whole-run counters kept by the system driver.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SystemStats {
    /// Meets requested (injected, remote, local-async and timer-driven).
    pub meets_requested: u64,
    /// Meets that completed successfully.
    pub meets_completed: u64,
    /// Meets that returned an error.
    pub meets_failed: u64,
    /// Remote meet requests shipped over the network.
    pub remote_meets: u64,
    /// Local asynchronous meets executed.
    pub local_meets: u64,
    /// Timer meets fired.
    pub timer_meets: u64,
    /// Remote sends that failed (unreachable or dead destination, or a full
    /// custody queue when custody is enabled).
    pub send_failures: u64,
    /// Custodied meets that expired undelivered (terminal, like a failure,
    /// but attributable to the network rather than the contact agent).
    pub meets_expired: u64,
    /// Meets shed by a bounded admission queue ([`AdmissionConfig`]): the
    /// request reached its place but the place pushed back — queue full,
    /// admission deadline exceeded (janitor sweep), or the site crashed with
    /// the meet still queued.  A terminal outcome, the fifth term of
    /// [`SystemStats::terminal`].
    pub meets_shed: u64,
    /// Agents installed across all sites (including recoveries).
    pub agents_installed: u64,
    /// Script agents rejected by the install-time `taco-vet` gate: their CODE
    /// folder failed static analysis, so the meet was refused before any
    /// request was queued (not counted in `meets_requested`).
    pub scripts_rejected: u64,
    /// Script agents rejected by the install-time fleet audit
    /// ([`SystemBuilder::audit_fleet`]): the CODE folder vetted clean in
    /// isolation but composed badly with the declared fleet (unproduced
    /// folder reads, out-of-range itineraries, meet livelocks).  Like
    /// `scripts_rejected`, the refusal happens before the meet is counted in
    /// `meets_requested`.
    pub audits_rejected: u64,
    /// Script agents rejected by the install-time cost gate
    /// ([`SystemBuilder::cost_gate`]): static analysis proved the CODE
    /// folder's cost bound violates the configured step/depth budget.  Like
    /// `scripts_rejected`, the refusal happens before the meet is counted in
    /// `meets_requested`.
    pub costs_rejected: u64,
    /// Site crashes observed.
    pub crashes: u64,
    /// Site recoveries observed.
    pub recoveries: u64,
    /// Cabinet flushes to stable storage.
    pub cabinet_flushes: u64,
}

impl SystemStats {
    /// Meets that reached a terminal outcome: completed, failed, dropped by
    /// a failed send, expired in custody, or shed at admission.
    pub fn terminal(&self) -> u64 {
        self.meets_completed
            + self.meets_failed
            + self.send_failures
            + self.meets_expired
            + self.meets_shed
    }

    /// The meet-conservation invariant: every requested meet is in exactly
    /// one terminal outcome or is one of the `in_flight` still on their way
    /// (zero once a run has drained with nothing lost in the network).
    pub fn conserved(&self, in_flight: u64) -> bool {
        self.meets_requested == self.terminal() + in_flight
    }
}

/// How a requested meet ended.  A janitor sweep reports its whole batch
/// (an empty one included) to the simulator's metrics; any other shed goes
/// meet by meet.
#[derive(Debug, Clone, Copy)]
enum Terminal {
    Completed,
    Failed,
    SendFailure,
    Expired,
    Shed,
    Swept(u64),
}

/// The simulator and the books kept beside it: what every phase of a meet
/// needs in hand to move the meet on and to say how it ended.
struct Engine {
    net: SimNet,
    stats: SystemStats,
    /// The system trace in time order: kernel notes and the lines agents
    /// log, up to [`TRACE_CAP`] of them.
    trace: Vec<String>,
    next_timer_key: u64,
}

impl Engine {
    /// Appends a kernel note to the trace, stamped with the current time.
    fn note(&mut self, what: impl fmt::Display) {
        self.write(None, what);
    }

    /// The trace's one writer: appends `what` stamped with the current time
    /// and, for a line an agent logged, the agent's site.
    fn write(&mut self, site: Option<SiteId>, what: impl fmt::Display) {
        let now = self.net.now();
        let line = match (self.trace.len(), site) {
            (TRACE_CAP, _) => format!("[{now}] {TRACE_FULL}"),
            (n, _) if n > TRACE_CAP => return,
            (_, Some(site)) => format!("[{now} {site}] {what}"),
            (_, None) => format!("[{now}] {what}"),
        };
        self.trace.push(line);
    }

    /// The terminal recorder, the one home of the conservation invariant:
    /// nothing else writes the five terminal counters or tells the
    /// simulator's metrics of a shed.
    fn terminal(&mut self, outcome: Terminal) {
        match outcome {
            Terminal::Completed => self.stats.meets_completed += 1,
            Terminal::Failed => self.stats.meets_failed += 1,
            Terminal::SendFailure => self.stats.send_failures += 1,
            Terminal::Expired => self.stats.meets_expired += 1,
            Terminal::Shed => {
                self.stats.meets_shed += 1;
                self.net.metrics_mut().record_shed();
            }
            Terminal::Swept(batch) => {
                self.stats.meets_shed += batch;
                self.net.metrics_mut().record_janitor_sweep(batch);
            }
        }
    }

    /// A fresh kernel timer key.
    fn fresh_key(&mut self) -> u64 {
        let key = self.next_timer_key;
        self.next_timer_key += 1;
        key
    }

    /// Launches a meet: from here on it is *requested*, and it travels as an
    /// encoded request from `from` to `to` on behalf of `origin`.  A send the
    /// network refuses is terminal on the spot.
    fn launch(
        &mut self,
        origin: SiteId,
        from: SiteId,
        to: SiteId,
        contact: AgentName,
        briefcase: Briefcase,
        transport: TransportKind,
    ) {
        self.stats.meets_requested += 1;
        let payload = codec::encode_meet_request_owned(MeetRequest {
            contact,
            sender: AgentId::SYSTEM,
            origin,
            briefcase,
        });
        let custody = self.net.custody_enabled();
        let sent = self.net.send(SendOptions {
            from,
            to,
            payload,
            kind: KIND_MEET,
            transport,
            custody,
        });
        if let Err(e) = sent {
            // A hop that stays at its site is refused only when the site is
            // down, which the trace already says.
            if from != to {
                self.note(format_args!("remote meet from {from} to {to} failed: {e}"));
            }
            self.terminal(Terminal::SendFailure);
        }
    }
}

/// Everything the system keeps per site.
struct Site {
    place: Place,
    /// Stable store holding flushed cabinet snapshots.
    stable: BTreeMap<String, Vec<u8>>,
    /// Reachability mask from this site (liveness + partitions, so agents
    /// can tell custody-pending from dead) and the routing epoch it was
    /// computed at.  `None` until a dispatch under custody needs it.
    reachable: Option<(u64, Vec<bool>)>,
}

/// The TACOMA system: every place, the network, and the event loop.
pub struct TacomaSystem {
    engine: Engine,
    sites: Vec<Site>,
    factories: Vec<AgentFactory>,
    idgen: AgentIdGen,
    /// Timer key → (contact, briefcase) for scheduled meets.
    pending_timers: BTreeMap<u64, (AgentName, Briefcase)>,
    /// Backpressure; `None` means meets dispatch on arrival.
    admission: Option<Admission>,
    gates: Gates,
    /// The empty outbox the next dispatch queues its actions in, so a warm
    /// one allocates none: `enter` takes it and `process_actions` gives it
    /// back drained.  An install hook run from inside `process_actions`
    /// finds it taken and starts a fresh one; the larger of the two is kept.
    outbox: Vec<Action>,
}

impl TacomaSystem {
    /// Starts building a system.
    pub fn builder() -> SystemBuilder {
        SystemBuilder::new()
    }

    /// Convenience constructor: given topology and seed, no default agents.
    pub fn new(topology: Topology, seed: u64) -> Self {
        SystemBuilder::new().topology(topology).seed(seed).build()
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.engine.net.now()
    }

    /// Number of sites.
    pub fn site_count(&self) -> u32 {
        self.engine.net.site_count()
    }

    /// Whole-run counters.
    pub fn stats(&self) -> SystemStats {
        self.engine.stats
    }

    /// Network byte/message counters.
    pub fn net_metrics(&self) -> &NetMetrics {
        self.engine.net.metrics()
    }

    /// Resets the network byte/message counters (e.g. between experiment phases).
    pub fn reset_net_metrics(&mut self) {
        self.engine.net.reset_metrics();
    }

    /// Read access to the network simulator.
    pub fn net(&self) -> &SimNet {
        &self.engine.net
    }

    /// Mutable access to the network simulator (partitions, manual failures).
    pub fn net_mut(&mut self) -> &mut SimNet {
        &mut self.engine.net
    }

    /// Read access to a site's place.
    ///
    /// # Panics
    ///
    /// Panics if the site id is out of range.
    pub fn place(&self, site: SiteId) -> &Place {
        &self.sites[site.index()].place
    }

    /// Mutable access to a site's place (seeding cabinets, installing agents).
    ///
    /// # Panics
    ///
    /// Panics if the site id is out of range.
    pub fn place_mut(&mut self, site: SiteId) -> &mut Place {
        &mut self.sites[site.index()].place
    }

    /// The system-wide trace in time order: agent `ctx.log` lines and kernel
    /// notes, at most 16 384 of them and then a line saying the trace is
    /// full.
    pub fn trace(&self) -> &[String] {
        &self.engine.trace
    }

    /// Installs a native agent at one site with a fresh instance id, running
    /// its `on_install` hook immediately.
    pub fn register_agent(&mut self, site: SiteId, agent: Box<dyn Agent>) -> AgentId {
        let id = self.idgen.fresh();
        let name = agent.name();
        self.engine.stats.agents_installed += 1;
        self.sites[site.index()].place.install_agent(id, agent);
        self.run_install_hook_for(site, &name);
        id
    }

    /// Applies a failure plan (scheduled crashes/recoveries).
    pub fn apply_failure_plan(&mut self, plan: &FailurePlan) {
        self.engine.net.apply_failure_plan(plan);
    }

    /// Requests a meet with `contact` at `site`, as an external client would.
    ///
    /// The request is queued as a local message so it executes inside the
    /// event loop with proper timing.
    pub fn inject_meet(&mut self, site: SiteId, contact: AgentName, briefcase: Briefcase) {
        self.inject_meet_at(site, site, contact, briefcase);
    }

    /// Requests a meet at `site` whose request is recorded as originating
    /// from `origin` (used by experiments that model an off-network client
    /// attached to `origin`).
    pub fn inject_meet_at(
        &mut self,
        origin: SiteId,
        site: SiteId,
        contact: AgentName,
        mut briefcase: Briefcase,
    ) {
        let (place, stats) = (&self.sites[site.index()].place, &mut self.engine.stats);
        if let Err(rejection) = self.gates.gate(place, &contact, &mut briefcase, stats) {
            let line = rejection.trace_line("CODE folder", &contact, site);
            return self.engine.note(line);
        }
        self.engine
            .launch(origin, site, site, contact, briefcase, TransportKind::Tcp);
    }

    /// Runs the event loop until no events remain or `max_events` have been
    /// processed.  Returns the number of events processed.
    pub fn run_until_quiescent(&mut self, max_events: u64) -> u64 {
        self.run(max_events, None)
    }

    /// Runs the event loop until simulated time passes `deadline` or the
    /// queue drains.  Returns the number of events processed.
    pub fn run_until(&mut self, deadline: SimTime) -> u64 {
        self.run(u64::MAX, Some(deadline))
    }

    /// Runs for an additional `span` of simulated time.
    pub fn run_for(&mut self, span: Duration) -> u64 {
        let deadline = self.now() + span;
        self.run_until(deadline)
    }

    /// The event loop: steps the simulator and handles what surfaces, until
    /// the queue drains, `max_events` were handled, or the next event lies
    /// past `deadline`.
    fn run(&mut self, max_events: u64, deadline: Option<SimTime>) -> u64 {
        let mut processed = 0;
        while processed < max_events {
            let net = &self.engine.net;
            if deadline.is_some_and(|d| net.peek_time().is_some_and(|next| next > d)) {
                break;
            }
            let Some(event) = self.engine.net.step() else {
                break;
            };
            processed += 1;
            self.handle_event(event);
        }
        processed
    }

    fn handle_event(&mut self, event: Event) {
        match event {
            Event::Message(msg) if msg.kind != KIND_MEET => self.engine.note(format_args!(
                "dropping unknown message kind {} at {}",
                msg.kind, msg.to
            )),
            Event::Message(msg) => {
                // The last holder of the bytes decodes them by value; a
                // payload another message in flight still shares is read
                // where it lies.
                let decoded = match msg.payload.try_into_unique() {
                    Ok(bytes) => codec::decode_meet_request_owned(bytes),
                    Err(shared) => codec::decode_meet_request(&shared),
                };
                match decoded {
                    Ok(req) => self.deliver_meet(msg.to, req),
                    Err(e) => {
                        let at = msg.to;
                        self.engine
                            .note(format_args!("undecodable meet request at {at}: {e}"));
                        self.engine.terminal(Terminal::Failed);
                    }
                }
            }
            Event::Timer { site, key } if admission::owns_key(key) => {
                // Only admission control arms such keys.
                let Some(admission) = self.admission.as_mut() else {
                    return;
                };
                if let Some(req) = admission.on_timer(site, key, &mut self.engine) {
                    self.execute_meet(site, req);
                    if let Some(admission) = self.admission.as_mut() {
                        admission.start_service(site, &mut self.engine);
                    }
                }
            }
            Event::Timer { site, key } => {
                if let Some((contact, mut briefcase)) = self.pending_timers.remove(&key) {
                    self.engine.stats.timer_meets += 1;
                    self.engine.stats.meets_requested += 1;
                    // `put`, not `folder_mut`: it keeps the literal name
                    // as it is, where a `&str` would have to be copied.
                    let mut timer = briefcase.take(wellknown::TIMER).unwrap_or_default();
                    timer.push_u64(key);
                    briefcase.put(wellknown::TIMER, timer);
                    let req = MeetRequest {
                        contact,
                        sender: AgentId::SYSTEM,
                        origin: site,
                        briefcase,
                    };
                    self.deliver_meet(site, req);
                }
            }
            Event::MessageExpired(exp) => {
                if exp.kind == KIND_MEET {
                    self.engine.terminal(Terminal::Expired);
                }
                self.engine.note(format_args!(
                    "custodied message {} -> {} expired undelivered",
                    exp.from, exp.to
                ));
            }
            Event::SiteCrashed(site) => {
                self.engine.stats.crashes += 1;
                self.sites[site.index()].place.crash();
                if let Some(admission) = self.admission.as_mut() {
                    admission.on_crash(site, &mut self.engine);
                }
                self.engine.note(format_args!("{site} crashed"));
            }
            Event::SiteRecovered(site) => {
                self.engine.stats.recoveries += 1;
                self.recover_site(site);
                self.engine.note(format_args!("{site} recovered"));
            }
        }
    }

    /// Schedules a meet with `contact` at `site` to be requested after
    /// `delay` of simulated time, as an open-arrival workload driver would.
    ///
    /// Unlike [`TacomaSystem::inject_meet`], which enqueues the request as a
    /// zero-latency local message *now*, this arms a kernel timer: the meet
    /// counts toward `meets_requested` only when the timer fires, so an
    /// entire arrival trace can be pre-loaded up front and still replay
    /// identically at any `--jobs` setting.  The briefcase gains a
    /// `TIMER` folder carrying the timer key, like any scheduled meet.
    pub fn schedule_meet(
        &mut self,
        site: SiteId,
        contact: AgentName,
        mut briefcase: Briefcase,
        delay: Duration,
    ) {
        // The cost gate runs at schedule time (not when the timer fires), so
        // preloaded arrival traces replay identically at any `--jobs`
        // setting; vet/audit intentionally do not run here — the
        // timer path has never gated, and the cost gate is the one defense
        // that open-arrival workloads need.
        if let Err(rejection) = self.gates.gate_cost(&mut briefcase, &mut self.engine.stats) {
            let line = rejection.trace_line("scheduled CODE folder", &contact, site);
            return self.engine.note(line);
        }
        self.arm_timer(site, contact, briefcase, delay);
    }

    /// Arms a kernel timer that requests a meet with `contact` at `site`
    /// when it fires.
    fn arm_timer(
        &mut self,
        site: SiteId,
        contact: AgentName,
        briefcase: Briefcase,
        delay: Duration,
    ) {
        let key = self.engine.fresh_key();
        self.pending_timers.insert(key, (contact, briefcase));
        self.engine.net.schedule_timer(site, delay, key);
    }

    /// Routes a delivered meet request through admission control when it is
    /// enabled, or straight to dispatch when it is not.
    fn deliver_meet(&mut self, site: SiteId, req: MeetRequest) {
        match self.admission.as_mut() {
            Some(admission) => admission.admit(site, req, &mut self.engine),
            None => self.execute_meet(site, req),
        }
    }

    /// Executes a delivered request; nobody waits for the outcome.
    fn execute_meet(&mut self, site: SiteId, req: MeetRequest) {
        let _ = self.dispatch_at(site, &req.contact, req.briefcase, req.origin, req.sender);
    }

    /// Borrows the place at `site` beside the environment of one dispatch
    /// there — the simulator's liveness slice and the site's reachability
    /// mask, so a meet does no work proportional to the number of sites —
    /// and runs `work` on them.  Returns its result and the actions queued,
    /// in the kernel's spare outbox.
    ///
    /// The mask is brought up to the current routing epoch first: custody
    /// runs pay one BFS per site per liveness change, not per meet; without
    /// custody nothing is tracked.
    fn enter<R>(
        &mut self,
        site: SiteId,
        origin: SiteId,
        sender: AgentId,
        work: impl FnOnce(&mut Place, DispatchEnv<'_>, &mut Vec<Action>) -> R,
    ) -> (R, Vec<Action>) {
        let net = &self.engine.net;
        let here = &mut self.sites[site.index()];
        let custody = net.custody_enabled();
        let epoch = net.route_epoch();
        if custody && !matches!(here.reachable, Some((at, _)) if at == epoch) {
            here.reachable = Some((epoch, net.reachable_mask(site)));
        }
        let env = DispatchEnv {
            now: net.now(),
            origin,
            sender,
            neighbors: net.router().neighbors(site),
            alive: net.liveness(),
            reachable: here.reachable.as_ref().map_or(&[], |(_, mask)| mask),
            custody,
        };
        let mut outbox = std::mem::take(&mut self.outbox);
        let result = work(&mut here.place, env, &mut outbox);
        (result, outbox)
    }

    /// Executes a meet with `contact` at `site`, records how it ended — a
    /// failure in the trace too — and carries out the actions it queued.
    fn dispatch_at(
        &mut self,
        site: SiteId,
        contact: &AgentName,
        briefcase: Briefcase,
        origin: SiteId,
        sender: AgentId,
    ) -> MeetOutcome {
        let (outcome, outbox) = self.enter(site, origin, sender, |place, env, outbox| {
            place.dispatch(contact, briefcase, env, outbox)
        });
        match &outcome {
            Ok(_) => self.engine.terminal(Terminal::Completed),
            Err(e) => {
                self.engine
                    .note(format_args!("meet '{contact}' at {site} failed: {e}"));
                self.engine.terminal(Terminal::Failed);
            }
        }
        self.process_actions(site, outbox);
        outcome
    }

    /// Runs one agent's `on_install` hook and carries out any actions it
    /// queued (installed agents may schedule timers or send reports).
    fn run_install_hook_for(&mut self, site: SiteId, name: &AgentName) {
        let ((), outbox) = self.enter(site, site, AgentId::SYSTEM, |place, env, outbox| {
            place.run_install_hook(name, env, outbox);
        });
        self.process_actions(site, outbox);
    }

    fn run_install_hooks_at(&mut self, site: SiteId) {
        for name in self.sites[site.index()].place.agent_names() {
            self.run_install_hook_for(site, &name);
        }
    }

    fn process_actions(&mut self, site: SiteId, mut actions: Vec<Action>) {
        for action in actions.drain(..) {
            match action {
                Action::RemoteMeet {
                    to,
                    contact,
                    briefcase,
                    transport,
                } => {
                    self.engine.stats.remote_meets += 1;
                    self.engine
                        .launch(site, site, to, contact, briefcase, transport);
                }
                Action::LocalMeet { contact, briefcase } => {
                    self.engine.stats.local_meets += 1;
                    self.engine
                        .launch(site, site, site, contact, briefcase, TransportKind::Tcp);
                }
                Action::Timer {
                    contact,
                    delay,
                    briefcase,
                } => self.arm_timer(site, contact, briefcase, delay),
                Action::RegisterAgent { agent } => {
                    self.register_agent(site, agent);
                }
                Action::FlushCabinet { name } => {
                    self.engine.stats.cabinet_flushes += 1;
                    let here = &mut self.sites[site.index()];
                    if let Some(cab) = here.place.cabinets().get(&name) {
                        here.stable.insert(name, cab.snapshot());
                    }
                }
                Action::Unregister { name } => {
                    self.sites[site.index()].place.remove_agent(&name);
                }
                Action::Log(line) => self.engine.write(Some(site), line),
            }
        }
        if actions.capacity() > self.outbox.capacity() {
            self.outbox = actions;
        }
    }

    /// Installs the factories' default agent set at `site`.
    fn install_defaults(&mut self, site: SiteId) {
        let place = &mut self.sites[site.index()].place;
        for factory in &self.factories {
            for agent in factory(site) {
                place.install_agent(self.idgen.fresh(), agent);
                self.engine.stats.agents_installed += 1;
            }
        }
    }

    fn recover_site(&mut self, site: SiteId) {
        self.install_defaults(site);
        // Restore flushed cabinets from the stable store.
        let here = &mut self.sites[site.index()];
        for (name, snapshot) in &here.stable {
            if let Ok(cab) = crate::cabinet::FileCabinet::restore(snapshot) {
                here.place.cabinets_mut().put_cabinet(name.clone(), cab);
            }
        }
        self.run_install_hooks_at(site);
    }

    /// Meets `contact` at `site` synchronously, outside the event loop, and
    /// hands back the outcome — or the gates' refusal — as a value (used by
    /// tests to assert protected-agent isolation, among others).
    pub fn try_direct_meet(
        &mut self,
        site: SiteId,
        contact: &AgentName,
        mut briefcase: Briefcase,
    ) -> Result<Briefcase, TacomaError> {
        let (place, stats) = (&self.sites[site.index()].place, &mut self.engine.stats);
        self.gates
            .gate(place, contact, &mut briefcase, stats)
            .map_err(Rejection::into_error)?;
        self.engine.stats.meets_requested += 1;
        self.dispatch_at(site, contact, briefcase, site, AgentId::SYSTEM)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agent::{Agent, MeetCtx, MeetOutcome};
    use crate::folder::Folder;
    use tacoma_net::{CustodyConfig, LinkSpec};

    /// Visits every site in its ITINERARY folder, appending a mark at each.
    struct Tourist;
    impl Agent for Tourist {
        fn name(&self) -> AgentName {
            AgentName::new("tourist")
        }
        fn meet(&mut self, ctx: &mut MeetCtx<'_>, mut bc: Briefcase) -> MeetOutcome {
            let here = ctx.site();
            ctx.cabinet("guestbook")
                .append_str("VISITS", format!("visited-{here}"));
            bc.folder_mut(wellknown::RESULTS)
                .push_str(format!("{}", ctx.site()));
            let next = bc.folder_mut(wellknown::ITINERARY).dequeue_str();
            if let Some(next) = next {
                let to = SiteId(next.parse::<u32>().unwrap());
                ctx.remote_meet(
                    to,
                    AgentName::new("tourist"),
                    bc.clone(),
                    TransportKind::Tcp,
                );
            }
            Ok(bc)
        }
    }

    struct Pinger;
    impl Agent for Pinger {
        fn name(&self) -> AgentName {
            AgentName::new("pinger")
        }
        fn meet(&mut self, ctx: &mut MeetCtx<'_>, bc: Briefcase) -> MeetOutcome {
            let count = bc.peek_u64("COUNT").unwrap_or(0);
            ctx.cabinet("pings")
                .append_str("LOG", format!("ping-{count}"));
            if count > 0 {
                let mut next = Briefcase::new();
                next.put_u64("COUNT", count - 1);
                ctx.schedule(AgentName::new("pinger"), Duration::from_millis(10), next);
            }
            Ok(bc)
        }
    }

    struct CabinetWriter;
    impl Agent for CabinetWriter {
        fn name(&self) -> AgentName {
            AgentName::new("writer")
        }
        fn meet(&mut self, ctx: &mut MeetCtx<'_>, bc: Briefcase) -> MeetOutcome {
            ctx.cabinet("durable").append_str("DATA", "precious");
            ctx.flush_cabinet("durable");
            ctx.cabinet("volatile").append_str("DATA", "ephemeral");
            Ok(bc)
        }
    }

    fn system(sites: u32) -> TacomaSystem {
        TacomaSystem::builder()
            .topology(Topology::full_mesh(sites, LinkSpec::default()))
            .seed(42)
            .with_agents(|_| vec![Box::new(Tourist), Box::new(Pinger), Box::new(CabinetWriter)])
            .build()
    }

    #[test]
    fn itinerary_walk_visits_every_site() {
        let mut sys = system(4);
        let mut bc = Briefcase::new();
        let mut itinerary = Folder::new();
        for s in [1u32, 2, 3] {
            itinerary.enqueue(s.to_string().into_bytes());
        }
        bc.put(wellknown::ITINERARY, itinerary);
        sys.inject_meet(SiteId(0), AgentName::new("tourist"), bc);
        sys.run_until_quiescent(1_000);

        for s in 0..4 {
            let cab = sys.place(SiteId(s)).cabinets().get("guestbook").unwrap();
            assert!(cab.payload_bytes() > 0, "site {s} should have been visited");
        }
        let stats = sys.stats();
        assert_eq!(stats.meets_completed, 4);
        assert_eq!(stats.remote_meets, 3);
        assert!(sys.net_metrics().total_bytes().get() > 0);
        assert!(sys.now() > SimTime::ZERO);
    }

    #[test]
    fn timers_drive_repeated_meets() {
        let mut sys = system(1);
        let mut bc = Briefcase::new();
        bc.put_u64("COUNT", 3);
        sys.inject_meet(SiteId(0), AgentName::new("pinger"), bc);
        sys.run_until_quiescent(1_000);
        let stats = sys.stats();
        assert_eq!(stats.timer_meets, 3);
        assert_eq!(stats.meets_completed, 4);
        let cab = sys.place(SiteId(0)).cabinets().get("pings").unwrap();
        assert!(cab.payload_bytes() > 0);
    }

    #[test]
    fn meet_with_unknown_agent_counts_as_failure() {
        let mut sys = system(2);
        sys.inject_meet(SiteId(0), AgentName::new("nobody"), Briefcase::new());
        sys.run_until_quiescent(100);
        assert_eq!(sys.stats().meets_failed, 1);
        assert_eq!(sys.stats().meets_completed, 0);
        assert!(!sys.trace().is_empty());
    }

    #[test]
    fn agent_log_lines_are_stamped_with_time_and_site() {
        struct Logger;
        impl Agent for Logger {
            fn name(&self) -> AgentName {
                AgentName::new("logger")
            }
            fn meet(&mut self, ctx: &mut MeetCtx<'_>, _bc: Briefcase) -> MeetOutcome {
                ctx.log("hello");
                Err(TacomaError::Refused("after logging".into()))
            }
        }
        let mut sys = TacomaSystem::new(Topology::full_mesh(2, LinkSpec::default()), 1);
        sys.register_agent(SiteId(1), Box::new(Logger));
        let refused = sys.try_direct_meet(SiteId(1), &AgentName::new("logger"), Briefcase::new());
        assert!(refused.is_err());
        // The kernel notes the failure as it happens; the agent's line is
        // one of the actions carried out after the meet returns.
        let now = sys.now();
        assert_eq!(
            sys.trace(),
            [
                format!("[{now}] meet 'logger' at site1 failed: meet refused: after logging"),
                format!("[{now} site1] hello"),
            ]
        );
    }

    #[test]
    fn actions_queued_around_a_registration_all_run_in_order() {
        // The spawner's outbox is being drained when its `RegisterAgent`
        // runs the newcomer's install hook, which queues actions of its
        // own; the spawner's later actions must still run after them.
        struct Newcomer;
        impl Agent for Newcomer {
            fn name(&self) -> AgentName {
                AgentName::new("newcomer")
            }
            fn meet(&mut self, _ctx: &mut MeetCtx<'_>, bc: Briefcase) -> MeetOutcome {
                Ok(bc)
            }
            fn on_install(&mut self, ctx: &mut MeetCtx<'_>) {
                ctx.log("installed 1");
                ctx.log("installed 2");
            }
        }
        struct Spawner;
        impl Agent for Spawner {
            fn name(&self) -> AgentName {
                AgentName::new("spawner")
            }
            fn meet(&mut self, ctx: &mut MeetCtx<'_>, bc: Briefcase) -> MeetOutcome {
                ctx.log("before");
                ctx.spawn_agent(Box::new(Newcomer));
                ctx.log("after");
                Ok(bc)
            }
        }
        let mut sys = TacomaSystem::new(Topology::full_mesh(1, LinkSpec::default()), 1);
        sys.register_agent(SiteId(0), Box::new(Spawner));
        for round in 0..2 {
            let spawner = AgentName::new("spawner");
            sys.try_direct_meet(SiteId(0), &spawner, Briefcase::new())
                .expect("the spawner completes");
            let lines: Vec<&str> = sys
                .trace()
                .iter()
                .map(|l| l.rsplit("] ").next().unwrap())
                .collect();
            let once = ["before", "installed 1", "installed 2", "after"];
            assert_eq!(lines, once.repeat(round + 1), "round {round}");
        }
        assert!(sys.place(SiteId(0)).has_agent(&AgentName::new("newcomer")));
    }

    #[test]
    fn the_trace_stops_at_its_cap() {
        // Every meet with a contact nobody registered fails and is noted
        // once, so twice the cap and eight times the cap leave one trace.
        let lengths = [2, 8].map(|times| {
            let mut sys = system(1);
            for _ in 0..times * TRACE_CAP {
                sys.inject_meet(SiteId(0), AgentName::new("nobody"), Briefcase::new());
            }
            sys.run_until_quiescent(u64::MAX);
            assert_eq!(sys.stats().meets_failed, (times * TRACE_CAP) as u64);
            let trace = sys.trace();
            assert!(trace.last().is_some_and(|line| line.ends_with(TRACE_FULL)));
            trace.len()
        });
        assert_eq!(lengths, [TRACE_CAP + 1; 2]);
    }

    #[test]
    fn crash_loses_volatile_but_flushed_cabinet_survives() {
        let mut sys = system(2);
        sys.inject_meet(SiteId(1), AgentName::new("writer"), Briefcase::new());
        sys.run_until_quiescent(100);
        assert!(sys.place(SiteId(1)).cabinets().contains("volatile"));
        assert!(sys.place(SiteId(1)).cabinets().contains("durable"));
        assert_eq!(sys.stats().cabinet_flushes, 1);

        // Crash and recover site 1 via a failure plan.
        let plan = FailurePlan::none().outage(
            SiteId(1),
            sys.now() + Duration::from_millis(1),
            Duration::from_millis(5),
        );
        sys.apply_failure_plan(&plan);
        sys.run_until_quiescent(100);

        assert_eq!(sys.stats().crashes, 1);
        assert_eq!(sys.stats().recoveries, 1);
        assert!(sys.net().is_up(SiteId(1)));
        let place = sys.place(SiteId(1));
        assert!(
            place.cabinets().contains("durable"),
            "flushed cabinet must be restored after recovery"
        );
        assert!(
            !place.cabinets().contains("volatile"),
            "unflushed cabinet must be lost"
        );
        // Default agents are re-installed after recovery.
        assert!(place.has_agent(&AgentName::new("tourist")));
    }

    #[test]
    fn send_to_dead_site_is_counted_not_fatal() {
        let mut sys = system(3);
        sys.net_mut().crash_now(SiteId(2));
        let mut bc = Briefcase::new();
        let mut itinerary = Folder::new();
        itinerary.enqueue(b"2");
        bc.put(wellknown::ITINERARY, itinerary);
        sys.inject_meet(SiteId(0), AgentName::new("tourist"), bc);
        sys.run_until_quiescent(100);
        assert_eq!(sys.stats().send_failures, 1);
        assert_eq!(sys.stats().meets_completed, 1);
    }

    #[test]
    fn run_until_respects_deadline() {
        let mut sys = system(1);
        let mut bc = Briefcase::new();
        bc.put_u64("COUNT", 100);
        sys.inject_meet(SiteId(0), AgentName::new("pinger"), bc);
        // Each ping reschedules itself after 10 ms; in 35 ms we expect only a few.
        sys.run_until(SimTime::ZERO + Duration::from_millis(35));
        assert!(sys.stats().meets_completed >= 2);
        assert!(sys.stats().meets_completed <= 5);
        assert!(sys.now() <= SimTime::ZERO + Duration::from_millis(36));
    }

    #[test]
    fn try_direct_meet_bypasses_network() {
        let mut sys = system(2);
        let outcome = sys.try_direct_meet(SiteId(0), &AgentName::new("writer"), Briefcase::new());
        assert!(outcome.is_ok());
        assert!(sys.place(SiteId(0)).cabinets().contains("durable"));
        let missing = sys.try_direct_meet(SiteId(0), &AgentName::new("ghost"), Briefcase::new());
        assert!(missing.is_err());
    }

    #[test]
    fn remote_meet_accounting_spans_sites_and_failures() {
        // The meet hot path: a local meet whose agent issues a remote meet to
        // another site. Every leg must land in exactly one counter —
        // `meets_completed`, `meets_failed` (dispatch error at the far end) or
        // `send_failures` (destination down under a `FailurePlan` outage).
        struct Forwarder;
        impl Agent for Forwarder {
            fn name(&self) -> AgentName {
                AgentName::new("forwarder")
            }
            fn meet(&mut self, ctx: &mut MeetCtx<'_>, bc: Briefcase) -> MeetOutcome {
                if ctx.site() == SiteId(0) {
                    let contact = bc.peek_string("CONTACT").expect("CONTACT set by injector");
                    ctx.remote_meet(
                        SiteId(1),
                        AgentName::new(contact),
                        bc.clone(),
                        TransportKind::Tcp,
                    );
                }
                Ok(bc)
            }
        }
        let inject = |sys: &mut TacomaSystem, contact: &str| {
            let mut bc = Briefcase::new();
            bc.put_string("CONTACT", contact);
            sys.inject_meet(SiteId(0), AgentName::new("forwarder"), bc);
        };
        let mut sys = TacomaSystem::builder()
            .topology(Topology::full_mesh(2, LinkSpec::default()))
            .seed(5)
            .with_agents(|_| vec![Box::new(Forwarder) as Box<dyn Agent>])
            .build();

        // Healthy cross-site hop: both legs complete.
        inject(&mut sys, "forwarder");
        sys.run_until_quiescent(100);
        let s = sys.stats();
        assert_eq!(s.remote_meets, 1);
        assert_eq!(s.meets_completed, 2);
        assert_eq!(s.meets_failed, 0);
        assert_eq!(s.send_failures, 0);

        // The hop crosses the wire but the contact does not exist at site 1:
        // delivered, dispatched, and counted as a failed meet.
        inject(&mut sys, "nobody");
        sys.run_until_quiescent(100);
        let s = sys.stats();
        assert_eq!(s.remote_meets, 2);
        assert_eq!(s.meets_completed, 3, "the local leg still completes");
        assert_eq!(s.meets_failed, 1);
        assert_eq!(s.send_failures, 0);

        // Site-failure path: a FailurePlan outage takes site 1 down, so the
        // forwarded leg is dropped at send time instead of failing a dispatch.
        let plan = FailurePlan::none().outage(
            SiteId(1),
            sys.now() + Duration::from_micros(1),
            Duration::from_millis(5),
        );
        sys.apply_failure_plan(&plan);
        sys.run_for(Duration::from_millis(1));
        assert_eq!(sys.stats().crashes, 1);
        assert!(!sys.net().is_up(SiteId(1)));

        inject(&mut sys, "forwarder");
        sys.run_for(Duration::from_millis(1));
        let s = sys.stats();
        assert_eq!(s.remote_meets, 3);
        assert_eq!(
            s.send_failures, 1,
            "send to a dead site is dropped, not a meet failure"
        );
        assert_eq!(s.meets_completed, 4, "only the local leg completes");
        assert_eq!(
            s.meets_failed, 1,
            "a dropped send must not count as a failed meet"
        );

        // After the planned recovery the same hop completes end to end again.
        sys.run_until_quiescent(1_000);
        assert_eq!(sys.stats().recoveries, 1);
        inject(&mut sys, "forwarder");
        sys.run_until_quiescent(100);
        let s = sys.stats();
        assert_eq!(s.remote_meets, 4);
        assert_eq!(s.meets_completed, 6);
        // Conservation: every requested meet either completed, failed at
        // dispatch, or was dropped by a failed send.
        assert!(s.conserved(0), "{s:?}");
    }

    #[test]
    fn custody_parks_meets_across_partitions_and_conserves_accounting() {
        let mut sys = TacomaSystem::builder()
            .topology(Topology::full_mesh(3, LinkSpec::default()))
            .seed(42)
            .custody(CustodyConfig {
                capacity: 8,
                ttl: Duration::from_millis(50),
            })
            .with_agents(|_| vec![Box::new(Tourist) as Box<dyn Agent>])
            .build();
        let send_tourist_to_2 = |sys: &mut TacomaSystem| {
            let mut bc = Briefcase::new();
            let mut itinerary = Folder::new();
            itinerary.enqueue(b"2");
            bc.put(wellknown::ITINERARY, itinerary);
            sys.inject_meet(SiteId(0), AgentName::new("tourist"), bc);
        };

        // Partitioned: the remote leg parks instead of failing fast.
        sys.net_mut().partition(&[SiteId(2)]);
        send_tourist_to_2(&mut sys);
        sys.run_for(Duration::from_millis(10));
        let s = sys.stats();
        assert_eq!(s.send_failures, 0, "custody absorbs the partition");
        assert_eq!(s.meets_completed, 1, "only the local leg has run");
        assert_eq!(sys.net().custody_backlog(), 1);

        // Healing delivers the parked meet: delayed, not lost.
        sys.net_mut().heal_partition();
        sys.run_until_quiescent(1_000);
        let s = sys.stats();
        assert_eq!(s.meets_completed, 2);
        assert_eq!(s.meets_expired, 0);

        // Partition again and never heal: the TTL makes the meet terminal.
        sys.net_mut().partition(&[SiteId(2)]);
        send_tourist_to_2(&mut sys);
        sys.run_until_quiescent(1_000);
        let s = sys.stats();
        assert_eq!(s.meets_expired, 1, "the parked meet expired");
        assert_eq!(s.meets_completed, 3, "the local leg still completed");
        // Conservation with the new terminal bucket: every requested meet is
        // exactly one of completed / failed / send-failed / expired.
        assert!(s.conserved(0), "{s:?}");
    }

    #[test]
    fn register_agent_at_single_site() {
        struct Once;
        impl Agent for Once {
            fn name(&self) -> AgentName {
                AgentName::new("once")
            }
            fn meet(&mut self, _ctx: &mut MeetCtx<'_>, bc: Briefcase) -> MeetOutcome {
                Ok(bc)
            }
        }
        let mut sys = TacomaSystem::new(Topology::full_mesh(2, LinkSpec::default()), 1);
        sys.register_agent(SiteId(1), Box::new(Once));
        assert!(sys.place(SiteId(1)).has_agent(&AgentName::new("once")));
        assert!(!sys.place(SiteId(0)).has_agent(&AgentName::new("once")));
        assert!(sys
            .try_direct_meet(SiteId(1), &AgentName::new("once"), Briefcase::new())
            .is_ok());
    }
}
