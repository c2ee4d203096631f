//! The whole-system driver: places wired onto the simulated network.
//!
//! [`TacomaSystem`] owns one [`Place`] per site of a
//! [`tacoma_net::Topology`] plus the [`tacoma_net::SimNet`] event queue, and
//! implements the glue the paper leaves to the operating system:
//!
//! * remote meet requests are encoded with the TACOMA codec, shipped over the
//!   network (charging bytes and latency), and dispatched to the contact
//!   agent at the destination site;
//! * timers become delayed meets carrying a `TIMER` folder;
//! * site crashes destroy the resident agents and unflushed cabinets, and
//!   recoveries re-install the default agent set and restore flushed
//!   cabinets from the stable store;
//! * byte, meet and migration counters are collected for the experiments.

use crate::agent::{Action, Agent};
use crate::briefcase::Briefcase;
use crate::codec::{self, MeetRequest};
use crate::error::TacomaError;
use crate::place::{DispatchEnv, Place};
use crate::wellknown;
use std::collections::{BTreeMap, VecDeque};
use tacoma_net::{
    CustodyConfig, Duration, Event, FailurePlan, LinkSpec, NetMetrics, SendOptions, SimNet,
    SimTime, Topology, TransportKind,
};
use tacoma_util::{AgentId, AgentIdGen, AgentName, DetRng, SiteId};

/// Message kind used on the wire for meet requests.
const KIND_MEET: u16 = 1;

/// Timer-key bit marking an admission-service completion (see
/// [`AdmissionConfig`]); the low bits carry the usual monotone counter.
const SERVICE_KEY_FLAG: u64 = 1 << 63;

/// Timer key reserved for the janitor sweep tick.
const JANITOR_KEY: u64 = 1 << 62;

/// A factory that produces the default agents installed at every site (and
/// re-installed after a recovery).
pub type AgentFactory = Box<dyn Fn(SiteId) -> Vec<Box<dyn Agent>>>;

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
    /// the meet still queued.  A terminal outcome: with admission enabled the
    /// conservation invariant reads `requested == completed + failed +
    /// send_failures + expired + shed`.
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

/// Backpressure configuration: bounded per-place meet admission queues.
///
/// Without admission control (the default) a delivered meet request is
/// dispatched the instant it arrives — fine for closed workloads that drain
/// to zero, meaningless under open arrivals where offered load can exceed
/// service capacity indefinitely.  With admission control every place gains:
///
/// * a **bounded FIFO admission queue** (`capacity`); a request arriving at a
///   full queue is *shed* — a terminal outcome counted in
///   [`SystemStats::meets_shed`] and folded into the meet-conservation
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
    /// The same service model with the queue bound (and deadline) removed:
    /// the "no admission control" arm of an overload experiment.
    pub fn unbounded(mut self) -> Self {
        self.capacity = usize::MAX;
        self.deadline = None;
        self
    }

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

/// Builder for [`TacomaSystem`].
pub struct SystemBuilder {
    topology: Topology,
    seed: u64,
    default_transport: TransportKind,
    custody: Option<CustodyConfig>,
    admission: Option<AdmissionConfig>,
    factories: Vec<AgentFactory>,
    vet_scripts: bool,
    audit_fleet: Option<tacoma_script::AuditConfig>,
    cost_gate: Option<tacoma_script::CostGate>,
    sim_shards: u32,
}

impl SystemBuilder {
    /// Starts a builder with a 2-site full mesh and seed 0.
    pub fn new() -> Self {
        SystemBuilder {
            topology: Topology::full_mesh(2, LinkSpec::default()),
            seed: 0,
            default_transport: TransportKind::Tcp,
            custody: None,
            admission: None,
            factories: Vec::new(),
            vet_scripts: true,
            audit_fleet: None,
            cost_gate: None,
            sim_shards: 1,
        }
    }

    /// Sets the network topology.
    pub fn topology(mut self, topology: Topology) -> Self {
        self.topology = topology;
        self
    }

    /// Sets the master random seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the transport used when an agent does not specify one.
    pub fn default_transport(mut self, transport: TransportKind) -> Self {
        self.default_transport = transport;
        self
    }

    /// Enables store-and-forward custody: meets sent while the destination is
    /// unreachable (partition or outage) are parked at a custodian and
    /// delivered when the network heals, expiring terminally after the TTL.
    /// Without this, such sends fail fast and count as `send_failures`.
    pub fn custody(mut self, config: CustodyConfig) -> Self {
        self.custody = Some(config);
        self
    }

    /// Enables bounded admission queues, load shedding, and the janitor
    /// sweep at every place (see [`AdmissionConfig`]).  Off by default, so
    /// closed workloads keep their exact historical behaviour: a delivered
    /// meet dispatches the instant it arrives and nothing is ever shed.
    pub fn admission(mut self, config: AdmissionConfig) -> Self {
        self.admission = Some(config);
        self
    }

    /// Sets the number of event-queue shards the network simulator partitions
    /// its pending events into (clique-aligned on ring-of-cliques topologies).
    ///
    /// Sharding is a pure storage-layout choice: events are always executed
    /// in global (time, sequence) order, so any shard count produces
    /// byte-identical runs — CI diffs `--shards 1` against `--shards 4` to
    /// enforce exactly that.  Values are clamped to the topology by the plan.
    pub fn shards(mut self, shards: u32) -> Self {
        self.sim_shards = shards.max(1);
        self
    }

    /// Enables or disables the install-time script vet (on by default).
    ///
    /// When enabled, a briefcase carrying a `CODE` folder is statically
    /// analysed (taco-vet) before the meet request is queued; a script with
    /// error-severity defects is rejected up front instead of failing halfway
    /// through a migration.  Disable to reproduce the unvetted behaviour.
    pub fn vet_scripts(mut self, enabled: bool) -> Self {
        self.vet_scripts = enabled;
        self
    }

    /// Enables the install-time *fleet audit* (off by default).
    ///
    /// The per-script vet ([`SystemBuilder::vet_scripts`]) checks a CODE
    /// folder in isolation; the fleet audit additionally composes it against
    /// the declared fleet — checking folder flow, literal itineraries against
    /// the real site count, and the meet graph for livelocks.  An injected
    /// script whose audit produces error-severity findings is refused before
    /// the meet request is queued, counted in
    /// [`SystemStats::audits_rejected`].  The briefcase's own folders are
    /// added to the config's injected set, and the topology's site count is
    /// filled in automatically if the config does not declare one.
    pub fn audit_fleet(mut self, config: tacoma_script::AuditConfig) -> Self {
        self.audit_fleet = Some(config);
        self
    }

    /// Enables the install-time *cost gate* (off by default).
    ///
    /// Every entry-point briefcase carrying a `CODE` folder has its static
    /// cost bound ([`tacoma_script::cost_bound`]) checked against the gate's
    /// step/depth budget before the meet request is queued.  A lenient gate
    /// rejects only certain death (proven *lower* bound above budget — zero
    /// false positives); a strict gate additionally rejects scripts without a
    /// proven finite bound within budget, so every admitted script is
    /// guaranteed to finish inside the interpreter's budget.  Rejections are
    /// counted in [`SystemStats::costs_rejected`]; admitted scripts with a
    /// finite bound are annotated with a [`wellknown::COST`] folder carrying
    /// the proven worst-case step count, which admission control's
    /// `service_per_kilostep` term and cost-aware placement consume.
    pub fn cost_gate(mut self, gate: tacoma_script::CostGate) -> Self {
        self.cost_gate = Some(gate);
        self
    }

    /// Adds a factory whose agents are installed at every site (now and after
    /// every recovery).
    pub fn with_agents(
        mut self,
        factory: impl Fn(SiteId) -> Vec<Box<dyn Agent>> + 'static,
    ) -> Self {
        self.factories.push(Box::new(factory));
        self
    }

    /// Adds a factory whose agents are installed only at the listed sites —
    /// the wiring federated deployments use to place one broker per shard
    /// gateway.  Like [`SystemBuilder::with_agents`], the factory re-runs on
    /// recovery, so a crashed broker site comes back with its broker
    /// reinstalled instead of permanently orphaning its shard.
    pub fn with_agents_at(
        self,
        sites: Vec<SiteId>,
        factory: impl Fn(SiteId) -> Vec<Box<dyn Agent>> + 'static,
    ) -> Self {
        self.with_agents(move |site| {
            if sites.contains(&site) {
                factory(site)
            } else {
                Vec::new()
            }
        })
    }

    /// Builds the system, installing the factory agents everywhere.
    pub fn build(self) -> TacomaSystem {
        let master = DetRng::new(self.seed);
        let site_count = self.topology.site_count();
        let neighbors: Vec<Vec<SiteId>> = (0..site_count)
            .map(|s| self.topology.neighbors(SiteId(s)))
            .collect();
        let mut net = SimNet::new(self.topology);
        if self.sim_shards > 1 {
            net.set_shards(self.sim_shards);
        }
        if let Some(config) = self.custody {
            net.set_custody(config);
        }
        let mut places: Vec<Place> = (0..site_count)
            .map(|s| Place::new(SiteId(s), master.derive(1000 + s as u64)))
            .collect();
        let mut idgen = AgentIdGen::new();
        let mut stats = SystemStats::default();
        for place in &mut places {
            for factory in &self.factories {
                for agent in factory(place.site()) {
                    place.install_agent(idgen.fresh(), agent);
                    stats.agents_installed += 1;
                }
            }
        }
        let mut sys = TacomaSystem {
            net,
            places,
            neighbors,
            factories: self.factories,
            idgen,
            stable: vec![BTreeMap::new(); site_count as usize],
            pending_timers: BTreeMap::new(),
            next_timer_key: 1,
            admission: self.admission,
            admission_queues: vec![VecDeque::new(); site_count as usize],
            in_service: vec![None; site_count as usize],
            janitor_armed: false,
            default_transport: self.default_transport,
            vet_scripts: self.vet_scripts,
            audit_fleet: {
                let mut audit = self.audit_fleet;
                if let Some(config) = audit.as_mut() {
                    if config.declared_site_count().is_none() {
                        config.set_site_count(site_count);
                    }
                }
                audit
            },
            cost_gate: self.cost_gate,
            stats,
            rng: master.derive(1),
            trace: Vec::new(),
            reachable_cache: BTreeMap::new(),
        };
        sys.run_install_hooks();
        sys
    }
}

impl Default for SystemBuilder {
    fn default() -> Self {
        Self::new()
    }
}

/// The TACOMA system: every place, the network, and the event loop.
pub struct TacomaSystem {
    net: SimNet,
    places: Vec<Place>,
    neighbors: Vec<Vec<SiteId>>,
    factories: Vec<AgentFactory>,
    idgen: AgentIdGen,
    /// Per-site stable store holding flushed cabinet snapshots.
    stable: Vec<BTreeMap<String, Vec<u8>>>,
    /// Timer key → (site, contact, briefcase) for scheduled meets.
    pending_timers: BTreeMap<u64, (SiteId, AgentName, Briefcase)>,
    next_timer_key: u64,
    /// Backpressure configuration; `None` means meets dispatch on arrival.
    admission: Option<AdmissionConfig>,
    /// Per-site bounded FIFO admission queues: (enqueue time, request).
    /// Unused (all empty) when `admission` is `None`.
    admission_queues: Vec<VecDeque<(SimTime, MeetRequest)>>,
    /// Per-site request currently holding the server, keyed by its service
    /// timer so a stale completion (site crashed and its slot was cleared)
    /// is detected and ignored.
    in_service: Vec<Option<(u64, MeetRequest)>>,
    /// Whether a janitor sweep timer is currently scheduled.
    janitor_armed: bool,
    default_transport: TransportKind,
    /// Whether entry-point meets carrying a CODE folder are statically vetted.
    vet_scripts: bool,
    /// Fleet-level audit applied to entry-point CODE folders, when enabled.
    audit_fleet: Option<tacoma_script::AuditConfig>,
    /// Static cost budget applied to entry-point CODE folders, when enabled.
    cost_gate: Option<tacoma_script::CostGate>,
    stats: SystemStats,
    rng: DetRng,
    trace: Vec<String>,
    /// Reachability masks keyed by site, each valid while
    /// [`SimNet::route_epoch`] still equals the stored epoch (see
    /// [`TacomaSystem::refresh_reachable`]).  Empty unless custody is on.
    reachable_cache: BTreeMap<SiteId, (u64, Vec<bool>)>,
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
        self.net.now()
    }

    /// Number of sites.
    pub fn site_count(&self) -> u32 {
        self.net.site_count()
    }

    /// Whole-run counters.
    pub fn stats(&self) -> SystemStats {
        self.stats
    }

    /// A deterministic random stream derived from the system seed, for
    /// experiment drivers that need randomness outside any agent.
    pub fn driver_rng(&mut self) -> &mut DetRng {
        &mut self.rng
    }

    /// Network byte/message counters.
    pub fn net_metrics(&self) -> &NetMetrics {
        self.net.metrics()
    }

    /// Resets the network byte/message counters (e.g. between experiment phases).
    pub fn reset_net_metrics(&mut self) {
        self.net.reset_metrics();
    }

    /// Read access to the network simulator.
    pub fn net(&self) -> &SimNet {
        &self.net
    }

    /// Mutable access to the network simulator (partitions, manual failures).
    pub fn net_mut(&mut self) -> &mut SimNet {
        &mut self.net
    }

    /// Read access to a site's place.
    ///
    /// # Panics
    ///
    /// Panics if the site id is out of range.
    pub fn place(&self, site: SiteId) -> &Place {
        &self.places[site.index()]
    }

    /// Mutable access to a site's place (seeding cabinets, installing agents).
    ///
    /// # Panics
    ///
    /// Panics if the site id is out of range.
    pub fn place_mut(&mut self, site: SiteId) -> &mut Place {
        &mut self.places[site.index()]
    }

    /// The system-wide trace (agent `ctx.log` lines plus kernel notes).
    pub fn trace(&self) -> Vec<String> {
        let mut all = self.trace.clone();
        for place in &self.places {
            all.extend_from_slice(place.trace());
        }
        all
    }

    /// Installs a native agent at one site with a fresh instance id, running
    /// its `on_install` hook immediately.
    pub fn register_agent(&mut self, site: SiteId, agent: Box<dyn Agent>) -> AgentId {
        let id = self.idgen.fresh();
        let name = agent.name();
        self.stats.agents_installed += 1;
        self.places[site.index()].install_agent(id, agent);
        self.run_install_hook_for(site, &name);
        id
    }

    /// Applies a failure plan (scheduled crashes/recoveries).
    pub fn apply_failure_plan(&mut self, plan: &FailurePlan) {
        self.net.apply_failure_plan(plan);
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
        if let Err(report) = self.vet_briefcase(site, &briefcase) {
            self.stats.scripts_rejected += 1;
            self.trace.push(format!(
                "[{}] rejected CODE folder bound for {contact} at {site}:\n{report}",
                self.net.now()
            ));
            return;
        }
        if let Err(report) = self.audit_briefcase(&contact, &briefcase) {
            self.stats.audits_rejected += 1;
            self.trace.push(format!(
                "[{}] fleet audit rejected CODE folder bound for {contact} at {site}:\n{report}",
                self.net.now()
            ));
            return;
        }
        if let Err(reason) = self.apply_cost_gate(&mut briefcase) {
            self.stats.costs_rejected += 1;
            self.trace.push(format!(
                "[{}] cost gate rejected CODE folder bound for {contact} at {site}: {reason}",
                self.net.now()
            ));
            return;
        }
        self.stats.meets_requested += 1;
        let req = MeetRequest {
            contact,
            sender: AgentId::SYSTEM,
            origin,
            briefcase,
        };
        let payload = codec::encode_meet_request(&req);
        let custody = self.net.custody_enabled();
        let result = self.net.send(SendOptions {
            from: site,
            to: site,
            payload,
            kind: KIND_MEET,
            transport: self.default_transport,
            custody,
        });
        if result.is_err() {
            self.stats.send_failures += 1;
        }
    }

    /// Runs the event loop until no events remain or `max_events` have been
    /// processed.  Returns the number of events processed.
    pub fn run_until_quiescent(&mut self, max_events: u64) -> u64 {
        let mut processed = 0;
        while processed < max_events {
            let Some(event) = self.net.step() else {
                break;
            };
            processed += 1;
            self.handle_event(event);
        }
        processed
    }

    /// Runs the event loop until simulated time passes `deadline` or the
    /// queue drains.  Returns the number of events processed.
    pub fn run_until(&mut self, deadline: SimTime) -> u64 {
        let mut processed = 0;
        while let Some(next) = self.net.peek_time() {
            if next > deadline {
                break;
            }
            let Some(event) = self.net.step() else {
                break;
            };
            processed += 1;
            self.handle_event(event);
        }
        processed
    }

    /// Runs for an additional `span` of simulated time.
    pub fn run_for(&mut self, span: Duration) -> u64 {
        let deadline = self.now() + span;
        self.run_until(deadline)
    }

    /// Brings the cached reachability mask for `site` (liveness + partitions,
    /// so agents can tell custody-pending from dead) up to the current
    /// routing epoch.  Custody runs pay one BFS per site per liveness change
    /// — not per meet; without custody nothing is tracked and the cache
    /// stays empty.
    fn refresh_reachable(&mut self, site: SiteId) {
        if !self.net.custody_enabled() {
            return;
        }
        let epoch = self.net.route_epoch();
        if !matches!(self.reachable_cache.get(&site), Some((cached, _)) if *cached == epoch) {
            let mask = self.net.reachable_mask(site);
            self.reachable_cache.insert(site, (epoch, mask));
        }
    }

    /// The environment of one dispatch at `site`, borrowed from what the
    /// system already holds — the simulator's liveness slice and the cached
    /// reachability mask ([`TacomaSystem::refresh_reachable`] first) — so a
    /// meet does no work proportional to the number of sites.  Takes fields
    /// rather than `&self` so the place can be borrowed mutably beside it.
    fn dispatch_env<'a>(
        net: &'a SimNet,
        neighbors: &'a [Vec<SiteId>],
        reachable_cache: &'a BTreeMap<SiteId, (u64, Vec<bool>)>,
        site: SiteId,
        origin: SiteId,
        sender: AgentId,
    ) -> DispatchEnv<'a> {
        DispatchEnv {
            now: net.now(),
            origin,
            sender,
            neighbors: &neighbors[site.index()],
            alive: net.liveness(),
            reachable: reachable_cache
                .get(&site)
                .map_or(&[], |(_, mask)| mask.as_slice()),
            custody: net.custody_enabled(),
        }
    }

    fn handle_event(&mut self, event: Event) {
        match event {
            Event::Message(msg) => {
                if msg.kind != KIND_MEET {
                    self.trace.push(format!(
                        "[{}] dropping unknown message kind {} at {}",
                        self.net.now(),
                        msg.kind,
                        msg.to
                    ));
                    return;
                }
                match codec::decode_meet_request(&msg.payload) {
                    Ok(req) => {
                        self.deliver_meet(msg.to, req);
                    }
                    Err(e) => {
                        self.trace.push(format!(
                            "[{}] undecodable meet request at {}: {e}",
                            self.net.now(),
                            msg.to
                        ));
                        self.stats.meets_failed += 1;
                    }
                }
            }
            Event::Timer { site, key } => {
                if key & SERVICE_KEY_FLAG != 0 {
                    self.finish_service(site, key);
                    return;
                }
                if key == JANITOR_KEY {
                    self.janitor_sweep();
                    return;
                }
                if let Some((timer_site, contact, mut briefcase)) = self.pending_timers.remove(&key)
                {
                    debug_assert_eq!(site, timer_site);
                    self.stats.timer_meets += 1;
                    self.stats.meets_requested += 1;
                    briefcase.folder_mut(wellknown::TIMER).push_u64(key);
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
                    self.stats.meets_expired += 1;
                }
                self.trace.push(format!(
                    "[{}] custodied message {} -> {} expired undelivered",
                    self.net.now(),
                    exp.from,
                    exp.to
                ));
            }
            Event::SiteCrashed(site) => {
                self.stats.crashes += 1;
                self.places[site.index()].crash();
                // A crash takes the admission queue down with the place:
                // everything queued or in service there is terminally shed
                // (the service-completion timer for the in-service entry dies
                // with the site inside the simulator, so only the slot needs
                // clearing here).
                let dropped = self.admission_queues[site.index()].len() as u64
                    + u64::from(self.in_service[site.index()].take().is_some());
                self.admission_queues[site.index()].clear();
                if dropped > 0 {
                    self.stats.meets_shed += dropped;
                    for _ in 0..dropped {
                        self.net.metrics_mut().record_shed();
                    }
                }
                self.trace
                    .push(format!("[{}] {site} crashed", self.net.now()));
            }
            Event::SiteRecovered(site) => {
                self.stats.recoveries += 1;
                self.recover_site(site);
                self.trace
                    .push(format!("[{}] {site} recovered", self.net.now()));
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
    /// identically at any `--jobs`/`--shards` setting.  The briefcase gains a
    /// `TIMER` folder carrying the timer key, like any scheduled meet.
    pub fn schedule_meet(
        &mut self,
        site: SiteId,
        contact: AgentName,
        mut briefcase: Briefcase,
        delay: Duration,
    ) {
        // The cost gate runs at schedule time (not when the timer fires), so
        // preloaded arrival traces replay identically at any `--jobs` /
        // `--shards` setting; vet/audit intentionally do not run here — the
        // timer path has never gated, and the cost gate is the one defense
        // that open-arrival workloads need.
        if let Err(reason) = self.apply_cost_gate(&mut briefcase) {
            self.stats.costs_rejected += 1;
            self.trace.push(format!(
                "[{}] cost gate rejected scheduled CODE folder bound for {contact} at {site}: {reason}",
                self.net.now()
            ));
            return;
        }
        let key = self.next_timer_key;
        self.next_timer_key += 1;
        self.pending_timers.insert(key, (site, contact, briefcase));
        self.net.schedule_timer(site, delay, key);
    }

    /// Routes a delivered meet request through admission control when it is
    /// enabled, or straight to dispatch when it is not.
    fn deliver_meet(&mut self, site: SiteId, req: MeetRequest) {
        if self.admission.is_some() {
            self.admit_meet(site, req);
        } else {
            self.execute_meet(site, req);
        }
    }

    /// Admission control: enqueue the request at `site`, or shed it if the
    /// bounded queue is full.  Shedding is a terminal outcome — it is counted
    /// in [`SystemStats::meets_shed`] and the simulator's metrics, keeping
    /// the meet-conservation invariant exact.
    fn admit_meet(&mut self, site: SiteId, req: MeetRequest) {
        let config = self
            .admission
            .expect("admit_meet requires admission config");
        let queue = &mut self.admission_queues[site.index()];
        if queue.len() >= config.capacity {
            self.stats.meets_shed += 1;
            self.net.metrics_mut().record_shed();
            self.trace.push(format!(
                "[{}] shed meet with {} at {site}: admission queue full ({})",
                self.net.now(),
                req.contact,
                config.capacity
            ));
            return;
        }
        let now = self.net.now();
        queue.push_back((now, req));
        self.arm_janitor();
        self.maybe_start_service(site);
    }

    /// Starts serving the next queued request at `site` if the server there
    /// is idle: records the admission wait, charges the size-dependent
    /// service time, and arms the completion timer.
    fn maybe_start_service(&mut self, site: SiteId) {
        if self.in_service[site.index()].is_some() {
            return;
        }
        let Some((enqueued_at, req)) = self.admission_queues[site.index()].pop_front() else {
            return;
        };
        let config = self.admission.expect("service requires admission config");
        let now = self.net.now();
        let wait_ms = now.since(enqueued_at).as_millis_f64();
        let depth = self.admission_queues[site.index()].len() as u64 + 1;
        let bytes = codec::meet_request_encoded_len(&req) as u64;
        self.net.metrics_mut().record_admission(wait_ms, depth);
        let steps = req.briefcase.peek_u64(wellknown::COST).unwrap_or(0);
        let service = config.service_time_with_steps(bytes, steps);
        let key = SERVICE_KEY_FLAG | self.next_timer_key;
        self.next_timer_key += 1;
        self.in_service[site.index()] = Some((key, req));
        self.net.schedule_timer(site, service, key);
    }

    /// Service completion: dispatch the meet that held the server at `site`
    /// and pull the next one off the queue.  A stale key (the site crashed
    /// and its slot was cleared, then recovered before the timer popped) is
    /// ignored.
    fn finish_service(&mut self, site: SiteId, key: u64) {
        match self.in_service[site.index()] {
            Some((stored, _)) if stored == key => {}
            _ => return,
        }
        let (_, req) = self.in_service[site.index()].take().expect("checked above");
        self.execute_meet(site, req);
        self.maybe_start_service(site);
    }

    /// Arms the janitor sweep timer if admission control has a deadline and
    /// no sweep is already scheduled.  The janitor timer is anchored at site
    /// 0 purely as an event-queue address; the sweep itself walks every
    /// site's queue.
    fn arm_janitor(&mut self) {
        if self.janitor_armed {
            return;
        }
        let Some(config) = self.admission else {
            return;
        };
        if config.deadline.is_none() {
            return;
        }
        self.janitor_armed = true;
        self.net
            .schedule_timer(SiteId(0), config.janitor_period, JANITOR_KEY);
    }

    /// Periodic janitor sweep: sheds queued entries whose wait has passed the
    /// admission deadline (the queues are FIFO, so expired entries are always
    /// at the front), then re-arms itself only while work remains — an idle
    /// system quiesces with no standing timer.
    fn janitor_sweep(&mut self) {
        self.janitor_armed = false;
        let Some(config) = self.admission else {
            return;
        };
        let Some(deadline) = config.deadline else {
            return;
        };
        let now = self.net.now();
        let mut swept: u64 = 0;
        for queue in &mut self.admission_queues {
            while let Some((enqueued_at, _)) = queue.front() {
                if now.since(*enqueued_at) < deadline {
                    break;
                }
                queue.pop_front();
                swept += 1;
            }
        }
        self.stats.meets_shed += swept;
        self.net.metrics_mut().record_janitor_sweep(swept);
        if swept > 0 {
            self.trace
                .push(format!("[{now}] janitor shed {swept} expired meet(s)"));
        }
        let busy = self.admission_queues.iter().any(|q| !q.is_empty())
            || self.in_service.iter().any(|s| s.is_some());
        if busy {
            self.arm_janitor();
        }
    }

    fn execute_meet(&mut self, site: SiteId, req: MeetRequest) {
        self.refresh_reachable(site);
        let mut outbox: Vec<Action> = Vec::new();
        let env = Self::dispatch_env(
            &self.net,
            &self.neighbors,
            &self.reachable_cache,
            site,
            req.origin,
            req.sender,
        );
        let outcome =
            self.places[site.index()].dispatch(&req.contact, req.briefcase, env, &mut outbox);
        match outcome {
            Ok(_) => self.stats.meets_completed += 1,
            Err(e) => {
                self.stats.meets_failed += 1;
                self.trace.push(format!(
                    "[{}] meet '{}' at {site} failed: {e}",
                    self.net.now(),
                    req.contact
                ));
            }
        }
        self.process_actions(site, outbox);
    }

    fn process_actions(&mut self, site: SiteId, actions: Vec<Action>) {
        for action in actions {
            match action {
                Action::RemoteMeet {
                    to,
                    contact,
                    briefcase,
                    transport,
                } => {
                    self.stats.meets_requested += 1;
                    self.stats.remote_meets += 1;
                    let req = MeetRequest {
                        contact,
                        sender: AgentId::SYSTEM,
                        origin: site,
                        briefcase,
                    };
                    let payload = codec::encode_meet_request(&req);
                    let custody = self.net.custody_enabled();
                    let result = self.net.send(SendOptions {
                        from: site,
                        to,
                        payload,
                        kind: KIND_MEET,
                        transport,
                        custody,
                    });
                    if let Err(e) = result {
                        self.stats.send_failures += 1;
                        self.trace.push(format!(
                            "[{}] remote meet from {site} to {to} failed: {e}",
                            self.net.now()
                        ));
                    }
                }
                Action::LocalMeet { contact, briefcase } => {
                    self.stats.meets_requested += 1;
                    self.stats.local_meets += 1;
                    let req = MeetRequest {
                        contact,
                        sender: AgentId::SYSTEM,
                        origin: site,
                        briefcase,
                    };
                    let payload = codec::encode_meet_request(&req);
                    let custody = self.net.custody_enabled();
                    if self
                        .net
                        .send(SendOptions {
                            from: site,
                            to: site,
                            payload,
                            kind: KIND_MEET,
                            transport: self.default_transport,
                            custody,
                        })
                        .is_err()
                    {
                        self.stats.send_failures += 1;
                    }
                }
                Action::Timer {
                    contact,
                    key: _user_key,
                    delay,
                    briefcase,
                } => {
                    let key = self.next_timer_key;
                    self.next_timer_key += 1;
                    self.pending_timers.insert(key, (site, contact, briefcase));
                    self.net.schedule_timer(site, delay, key);
                }
                Action::RegisterAgent { agent } => {
                    let id = self.idgen.fresh();
                    let name = agent.name();
                    self.stats.agents_installed += 1;
                    self.places[site.index()].install_agent(id, agent);
                    self.run_install_hook_for(site, &name);
                }
                Action::FlushCabinet { name } => {
                    self.stats.cabinet_flushes += 1;
                    let place = &self.places[site.index()];
                    if let Some(cab) = place.cabinets().get(&name) {
                        self.stable[site.index()].insert(name, cab.snapshot());
                    }
                }
                Action::Unregister { name } => {
                    self.places[site.index()].remove_agent(&name);
                }
            }
        }
    }

    fn recover_site(&mut self, site: SiteId) {
        let place = &mut self.places[site.index()];
        place.recover();
        // Re-install the default agent set.
        for factory in &self.factories {
            for agent in factory(site) {
                place.install_agent(self.idgen.fresh(), agent);
                self.stats.agents_installed += 1;
            }
        }
        // Restore flushed cabinets from the stable store.
        for (name, snapshot) in &self.stable[site.index()] {
            if let Ok(cab) = crate::cabinet::FileCabinet::restore(snapshot) {
                place.cabinets_mut().put_cabinet(name.clone(), cab);
            }
        }
        self.run_install_hooks_at(site);
    }

    fn run_install_hooks(&mut self) {
        for s in 0..self.site_count() {
            self.run_install_hooks_at(SiteId(s));
        }
    }

    fn run_install_hooks_at(&mut self, site: SiteId) {
        let names = self.places[site.index()].agent_names();
        for name in names {
            self.run_install_hook_for(site, &name);
        }
    }

    /// Runs one agent's `on_install` hook and carries out any actions it
    /// queued (installed agents may schedule timers or send reports).
    fn run_install_hook_for(&mut self, site: SiteId, name: &AgentName) {
        self.refresh_reachable(site);
        let env = Self::dispatch_env(
            &self.net,
            &self.neighbors,
            &self.reachable_cache,
            site,
            site,
            AgentId::SYSTEM,
        );
        let mut outbox = Vec::new();
        self.places[site.index()].run_install_hook(name, env, &mut outbox);
        self.process_actions(site, outbox);
    }

    /// Statically vets the briefcase's CODE folder (if any) before a meet is
    /// admitted at `site`.  Only the last CODE element is checked — that is the
    /// one `ag_tac` pops and executes; earlier elements are continuations that
    /// were produced by already-vetted code.  Returns the rendered diagnostics
    /// when the script has error-severity defects.
    ///
    /// Only *entry points* ([`TacomaSystem::inject_meet_at`] and
    /// [`TacomaSystem::try_direct_meet`]) vet: once an agent is admitted, its
    /// nested and remote meets carry code that was already checked, and
    /// re-vetting every migration leg would charge the analysis cost per hop.
    fn vet_briefcase(&self, site: SiteId, briefcase: &Briefcase) -> Result<(), String> {
        if !self.vet_scripts {
            return Ok(());
        }
        let Some(code) = briefcase.peek_string(wellknown::CODE) else {
            return Ok(());
        };
        let mut known: Vec<String> = wellknown::AGENTS.iter().map(|a| a.to_string()).collect();
        known.extend(
            self.places[site.index()]
                .agent_names()
                .into_iter()
                .map(|n| n.as_str().to_string()),
        );
        let config = tacoma_script::AnalysisConfig::new()
            .known_agents(known)
            .source_name("CODE");
        tacoma_script::vet(&code, &config)
    }

    /// Audits the briefcase's CODE folder against the configured fleet (when
    /// [`SystemBuilder::audit_fleet`] is set).  The script is declared under
    /// the contact's name and every folder the briefcase actually carries is
    /// added to the injected set, so the audit sees exactly the environment
    /// the agent will run in.  Returns the rendered findings when any are
    /// error-severity.
    fn audit_briefcase(&self, contact: &AgentName, briefcase: &Briefcase) -> Result<(), String> {
        let Some(base) = &self.audit_fleet else {
            return Ok(());
        };
        let Some(code) = briefcase.peek_string(wellknown::CODE) else {
            return Ok(());
        };
        let mut config = base.clone();
        config.add_agent(contact.as_str(), "CODE", code);
        for folder in briefcase.names() {
            config.add_injected(folder);
        }
        let findings = tacoma_script::audit(&config);
        if tacoma_script::audit_has_errors(&findings) {
            Err(tacoma_script::render_audit(&findings))
        } else {
            Ok(())
        }
    }

    /// Checks the briefcase's CODE folder (if any) against the configured
    /// cost gate.  Returns the proven finite worst-case step bound (to stamp
    /// into the [`wellknown::COST`] folder) on success, `Ok(None)` when there
    /// is nothing to check or no finite bound to stamp, and the rejection
    /// reason when the gate refuses the script.  Like vet and audit, only
    /// entry points are checked.
    fn cost_check(&self, briefcase: &Briefcase) -> Result<Option<u64>, String> {
        let Some(gate) = self.cost_gate else {
            return Ok(None);
        };
        let Some(code) = briefcase.peek_string(wellknown::CODE) else {
            return Ok(None);
        };
        let bound = tacoma_script::cost_bound(&code)
            .map_err(|e| format!("cost: CODE folder does not parse: {}", e.render("CODE")))?;
        gate.check(&bound)?;
        Ok(bound.steps.hi)
    }

    /// Runs the cost gate over a briefcase and stamps the proven bound into
    /// its [`wellknown::COST`] folder on admission.
    fn apply_cost_gate(&self, briefcase: &mut Briefcase) -> Result<(), String> {
        if let Some(hi) = self.cost_check(briefcase)? {
            briefcase.put_u64(wellknown::COST, hi);
        }
        Ok(())
    }

    /// Returns an error descriptor if the agent name cannot be met at the site
    /// right now (used by tests to assert protected-agent isolation without
    /// going through the event loop).
    pub fn try_direct_meet(
        &mut self,
        site: SiteId,
        contact: &AgentName,
        mut briefcase: Briefcase,
    ) -> Result<Briefcase, TacomaError> {
        if let Err(report) = self.vet_briefcase(site, &briefcase) {
            self.stats.scripts_rejected += 1;
            return Err(TacomaError::Script(format!("script rejected:\n{report}")));
        }
        if let Err(report) = self.audit_briefcase(contact, &briefcase) {
            self.stats.audits_rejected += 1;
            return Err(TacomaError::Script(format!(
                "script rejected by fleet audit:\n{report}"
            )));
        }
        if let Err(reason) = self.apply_cost_gate(&mut briefcase) {
            self.stats.costs_rejected += 1;
            return Err(TacomaError::Script(format!(
                "script rejected by cost gate: {reason}"
            )));
        }
        self.refresh_reachable(site);
        let mut outbox = Vec::new();
        let env = Self::dispatch_env(
            &self.net,
            &self.neighbors,
            &self.reachable_cache,
            site,
            site,
            AgentId::SYSTEM,
        );
        self.stats.meets_requested += 1;
        let outcome = self.places[site.index()].dispatch(contact, briefcase, env, &mut outbox);
        match &outcome {
            Ok(_) => self.stats.meets_completed += 1,
            Err(_) => self.stats.meets_failed += 1,
        }
        self.process_actions(site, outbox);
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agent::{Agent, MeetCtx, MeetOutcome};
    use crate::folder::Folder;

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
                ctx.schedule(
                    AgentName::new("pinger"),
                    count,
                    Duration::from_millis(10),
                    next,
                );
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
        let place = sys.place(SiteId(1));
        assert!(place.is_up());
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
        itinerary.enqueue(b"2".to_vec());
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
        assert_eq!(
            s.meets_requested,
            s.meets_completed + s.meets_failed + s.send_failures
        );
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
            itinerary.enqueue(b"2".to_vec());
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
        assert_eq!(
            s.meets_requested,
            s.meets_completed + s.meets_failed + s.send_failures + s.meets_expired
        );
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

    #[test]
    fn defective_code_folders_are_rejected_at_install_time() {
        // `$x` is read before anything assigns it: taco-vet flags this as an
        // error, so the briefcase must be refused before the meet request is
        // even queued — not fail later, mid-migration.
        let mut bc = Briefcase::new();
        bc.put(wellknown::CODE, Folder::of_str("set y $x"));

        let mut sys = TacomaSystem::new(Topology::full_mesh(2, LinkSpec::default()), 7);
        sys.inject_meet(SiteId(0), AgentName::new(wellknown::AG_TAC), bc.clone());
        sys.run_until_quiescent(100);
        let s = sys.stats();
        assert_eq!(s.scripts_rejected, 1);
        assert_eq!(s.meets_requested, 0, "rejected before the request counts");
        assert_eq!(s.remote_meets, 0, "nothing was shipped anywhere");
        assert!(sys.trace().iter().any(|l| l.contains("use-before-set")));

        // The synchronous entry point surfaces the full report as an error.
        let err = sys
            .try_direct_meet(SiteId(0), &AgentName::new(wellknown::AG_TAC), bc.clone())
            .unwrap_err();
        assert!(err.to_string().contains("use-before-set"));
        assert_eq!(sys.stats().scripts_rejected, 2);

        // Opting out restores the unvetted behaviour: the same briefcase is
        // admitted and only fails at dispatch time.
        let mut raw = TacomaSystem::builder()
            .topology(Topology::full_mesh(2, LinkSpec::default()))
            .vet_scripts(false)
            .build();
        raw.inject_meet(SiteId(0), AgentName::new(wellknown::AG_TAC), bc);
        raw.run_until_quiescent(100);
        let s = raw.stats();
        assert_eq!(s.scripts_rejected, 0);
        assert_eq!(s.meets_requested, 1);
        assert_eq!(
            s.meets_failed, 1,
            "no interpreter installed: runtime failure"
        );
    }

    #[test]
    fn clean_code_folders_pass_the_vet_gate() {
        let mut bc = Briefcase::new();
        bc.put(
            wellknown::CODE,
            Folder::of_str("set x 1\nbc_put NOTE $x\nreturn done"),
        );
        let mut sys = TacomaSystem::new(Topology::full_mesh(2, LinkSpec::default()), 7);
        sys.inject_meet(SiteId(0), AgentName::new(wellknown::AG_TAC), bc);
        sys.run_until_quiescent(100);
        let s = sys.stats();
        assert_eq!(s.scripts_rejected, 0);
        assert_eq!(s.meets_requested, 1);
    }

    #[test]
    fn fleet_audit_rejects_what_the_per_script_vet_cannot_see() {
        // `move_to 99` is perfectly well-formed in isolation — the per-script
        // vet passes it — but the fleet has only 4 sites, which only the
        // fleet audit knows.
        let mut bc = Briefcase::new();
        bc.put(
            wellknown::CODE,
            Folder::of_str("bc_push LOG [my_site]\nmove_to 99\nreturn moving"),
        );
        let mut sys = TacomaSystem::builder()
            .topology(Topology::full_mesh(4, LinkSpec::default()))
            .audit_fleet(tacoma_script::AuditConfig::new().deliver("LOG"))
            .build();
        sys.inject_meet(SiteId(0), AgentName::new(wellknown::AG_TAC), bc.clone());
        sys.run_until_quiescent(100);
        let s = sys.stats();
        assert_eq!(s.scripts_rejected, 0, "the per-script vet saw nothing");
        assert_eq!(s.audits_rejected, 1);
        assert_eq!(s.meets_requested, 0, "rejected before the request counts");
        assert!(sys
            .trace()
            .iter()
            .any(|l| l.contains("itinerary-out-of-range")));

        // The synchronous entry point surfaces the findings too.
        let err = sys
            .try_direct_meet(SiteId(0), &AgentName::new(wellknown::AG_TAC), bc.clone())
            .unwrap_err();
        assert!(err.to_string().contains("itinerary-out-of-range"));
        assert_eq!(sys.stats().audits_rejected, 2);
        assert_eq!(sys.stats().meets_requested, 0);

        // Without an audit config (the default) the same briefcase is
        // admitted: the fleet audit is strictly opt-in.
        let mut raw = TacomaSystem::builder()
            .topology(Topology::full_mesh(4, LinkSpec::default()))
            .build();
        raw.inject_meet(SiteId(0), AgentName::new(wellknown::AG_TAC), bc);
        raw.run_until_quiescent(100);
        assert_eq!(raw.stats().audits_rejected, 0);
        assert_eq!(raw.stats().meets_requested, 1);
    }

    #[test]
    fn fleet_audit_admits_clean_scripts_and_tolerates_warnings() {
        // Reads HOPS (present in the briefcase, so auto-injected) and writes
        // NOTE, which nothing reads — a dead-folder-write *warning*, and
        // warnings do not reject.
        let mut bc = Briefcase::new();
        bc.put(
            wellknown::CODE,
            Folder::of_str("set h [bc_pop HOPS]\nbc_put NOTE $h\nreturn ok"),
        );
        bc.put("HOPS", Folder::of_str("3"));
        let mut sys = TacomaSystem::builder()
            .topology(Topology::full_mesh(2, LinkSpec::default()))
            .audit_fleet(tacoma_script::AuditConfig::new())
            .build();
        sys.inject_meet(SiteId(0), AgentName::new(wellknown::AG_TAC), bc);
        sys.run_until_quiescent(100);
        let s = sys.stats();
        assert_eq!(s.audits_rejected, 0);
        assert_eq!(s.meets_requested, 1);
    }

    #[test]
    fn cost_gate_rejects_certain_death_and_stamps_bounds() {
        // A loop whose proven *lower* bound (202 steps) exceeds the budget:
        // running it is guaranteed to die on the interpreter's step budget,
        // so even the lenient gate refuses it up front.
        let mut heavy = Briefcase::new();
        heavy.put(
            wellknown::CODE,
            Folder::of_str("set i 0\nwhile {$i < 100} { incr i }\nreturn done"),
        );
        let mut sys = TacomaSystem::builder()
            .topology(Topology::full_mesh(2, LinkSpec::default()))
            .cost_gate(tacoma_script::CostGate::lenient(50, 8))
            .build();
        sys.inject_meet(SiteId(0), AgentName::new(wellknown::AG_TAC), heavy.clone());
        sys.run_until_quiescent(100);
        let s = sys.stats();
        assert_eq!(s.costs_rejected, 1);
        assert_eq!(s.scripts_rejected, 0, "the vet saw nothing wrong");
        assert_eq!(s.meets_requested, 0, "rejected before the request counts");
        assert!(sys.trace().iter().any(|l| l.contains("lower bound")));

        // The synchronous entry point surfaces the reason too.
        let err = sys
            .try_direct_meet(SiteId(0), &AgentName::new(wellknown::AG_TAC), heavy.clone())
            .unwrap_err();
        assert!(err.to_string().contains("cost"));
        assert_eq!(sys.stats().costs_rejected, 2);

        // A light script passes and is annotated with its proven bound.
        let mut light = Briefcase::new();
        light.put(wellknown::CODE, Folder::of_str("set x 1\nreturn ok"));
        sys.inject_meet(SiteId(0), AgentName::new(wellknown::AG_TAC), light);
        sys.run_until_quiescent(100);
        assert_eq!(sys.stats().costs_rejected, 2);
        assert_eq!(sys.stats().meets_requested, 1);

        // Without a gate (the default) the heavy briefcase is admitted: the
        // cost gate is strictly opt-in.
        let mut raw = TacomaSystem::builder()
            .topology(Topology::full_mesh(2, LinkSpec::default()))
            .build();
        raw.inject_meet(SiteId(0), AgentName::new(wellknown::AG_TAC), heavy);
        raw.run_until_quiescent(100);
        assert_eq!(raw.stats().costs_rejected, 0);
        assert_eq!(raw.stats().meets_requested, 1);
    }

    #[test]
    fn strict_cost_gate_requires_proven_finite_bounds() {
        // Input-bound (foreach over a runtime list) has no finite static
        // bound: the lenient gate admits it, the strict gate refuses it.
        let mut bc = Briefcase::new();
        bc.put(
            wellknown::CODE,
            Folder::of_str("foreach x [bc_list ITEMS] { bc_push OUT $x }\nreturn ok"),
        );
        let mut lenient = TacomaSystem::builder()
            .topology(Topology::full_mesh(2, LinkSpec::default()))
            .cost_gate(tacoma_script::CostGate::lenient(1000, 8))
            .build();
        lenient.inject_meet(SiteId(0), AgentName::new(wellknown::AG_TAC), bc.clone());
        lenient.run_until_quiescent(100);
        assert_eq!(lenient.stats().costs_rejected, 0);
        assert_eq!(lenient.stats().meets_requested, 1);

        let mut strict = TacomaSystem::builder()
            .topology(Topology::full_mesh(2, LinkSpec::default()))
            .cost_gate(tacoma_script::CostGate::strict(1000, 8))
            .build();
        strict.inject_meet(SiteId(0), AgentName::new(wellknown::AG_TAC), bc);
        strict.run_until_quiescent(100);
        assert_eq!(strict.stats().costs_rejected, 1);
        assert_eq!(strict.stats().meets_requested, 0);
    }

    #[test]
    fn scheduled_meets_are_cost_gated_at_schedule_time() {
        let mut heavy = Briefcase::new();
        heavy.put(
            wellknown::CODE,
            Folder::of_str("set i 0\nwhile {$i < 100} { incr i }\nreturn done"),
        );
        let mut sys = TacomaSystem::builder()
            .topology(Topology::full_mesh(2, LinkSpec::default()))
            .cost_gate(tacoma_script::CostGate::lenient(50, 8))
            .build();
        sys.schedule_meet(
            SiteId(0),
            AgentName::new(wellknown::AG_TAC),
            heavy,
            Duration::from_millis(1),
        );
        // Rejected synchronously: no timer armed, nothing fires.
        assert_eq!(sys.stats().costs_rejected, 1);
        sys.run_until_quiescent(100);
        assert_eq!(sys.stats().timer_meets, 0);
        assert_eq!(sys.stats().meets_requested, 0);
    }

    #[test]
    fn cost_annotation_stretches_service_time() {
        // Two identical-size requests, one carrying a COST annotation: with a
        // per-kilostep charge the annotated one must hold the server longer.
        let config = AdmissionConfig {
            capacity: usize::MAX,
            service_floor: Duration::from_micros(500),
            service_per_kib: Duration::from_micros(0),
            service_per_kilostep: Duration::from_millis(3),
            deadline: None,
            janitor_period: Duration::from_millis(100),
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
    fn wellknown_agents_are_modelled_by_the_audit() {
        // Every wellknown agent the kernel installs must be known to the
        // audit's implicit-agent model, or literal meets against it would
        // dangle out of the meet graph.
        for agent in wellknown::AGENTS {
            assert!(
                tacoma_script::audit::WELLKNOWN_AGENTS.contains(agent),
                "wellknown agent '{agent}' missing from the audit model"
            );
        }
    }

    /// Conservation with the shed bucket: every requested meet lands in
    /// exactly one terminal outcome.
    fn assert_conserved(s: &SystemStats) {
        assert_eq!(
            s.meets_requested,
            s.meets_completed + s.meets_failed + s.send_failures + s.meets_expired + s.meets_shed,
            "meet conservation violated: {s:?}"
        );
    }

    fn admission_system(config: AdmissionConfig) -> TacomaSystem {
        TacomaSystem::builder()
            .topology(Topology::full_mesh(2, LinkSpec::default()))
            .seed(7)
            .admission(config)
            .with_agents(|_| vec![Box::new(Pinger)])
            .build()
    }

    #[test]
    fn admission_overflow_sheds_and_conserves() {
        // Queue of 2 with slow service: a burst of 10 can hold at most one
        // in service plus two queued at its peak, so most of the burst sheds.
        let mut sys = admission_system(AdmissionConfig {
            capacity: 2,
            service_floor: Duration::from_millis(50),
            service_per_kib: Duration::from_micros(0),
            service_per_kilostep: Duration::from_micros(0),
            deadline: None,
            janitor_period: Duration::from_millis(100),
        });
        for _ in 0..10 {
            sys.inject_meet(SiteId(0), AgentName::new("pinger"), Briefcase::new());
        }
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
        let mut sys = admission_system(
            AdmissionConfig {
                capacity: 2,
                service_floor: Duration::from_millis(5),
                service_per_kib: Duration::from_micros(0),
                service_per_kilostep: Duration::from_micros(0),
                deadline: Some(Duration::from_millis(1)),
                janitor_period: Duration::from_millis(1),
            }
            .unbounded(),
        );
        for _ in 0..20 {
            sys.inject_meet(SiteId(0), AgentName::new("pinger"), Briefcase::new());
        }
        sys.run_until_quiescent(10_000);
        let s = sys.stats();
        assert_eq!(s.meets_shed, 0, "unbounded admission must not shed");
        assert_eq!(s.meets_completed, 20);
        assert_conserved(&s);
        // Queueing delay is real: later arrivals waited behind ~95ms of
        // service, which the wait summary must reflect.
        assert!(sys.net_metrics().admission_waits().max() >= 90.0);
    }

    #[test]
    fn janitor_sheds_expired_entries_and_quiesces() {
        // Slow service with a short deadline: everything behind the head of
        // the queue goes stale and the janitor sweeps it.
        let mut sys = admission_system(AdmissionConfig {
            capacity: usize::MAX,
            service_floor: Duration::from_millis(50),
            service_per_kib: Duration::from_micros(0),
            service_per_kilostep: Duration::from_micros(0),
            deadline: Some(Duration::from_millis(10)),
            janitor_period: Duration::from_millis(5),
        });
        for _ in 0..6 {
            sys.inject_meet(SiteId(0), AgentName::new("pinger"), Briefcase::new());
        }
        let processed = sys.run_until_quiescent(10_000);
        assert!(
            processed < 10_000,
            "janitor must disarm and let the run drain"
        );
        let s = sys.stats();
        let m = sys.net_metrics();
        assert!(m.janitor_sweeps() > 0, "janitor never ran");
        assert!(m.janitor_shed() > 0, "janitor never shed: {s:?}");
        assert_eq!(
            m.janitor_shed() + (m.shed_meets() - m.janitor_shed()),
            s.meets_shed
        );
        assert!(s.meets_completed >= 1);
        assert_conserved(&s);
    }

    #[test]
    fn scheduled_meets_flow_through_admission() {
        let mut sys = admission_system(AdmissionConfig::default());
        for i in 0..4u64 {
            sys.schedule_meet(
                SiteId(1),
                AgentName::new("pinger"),
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
        let mut sys = admission_system(AdmissionConfig {
            capacity: usize::MAX,
            service_floor: Duration::from_millis(50),
            service_per_kib: Duration::from_micros(0),
            service_per_kilostep: Duration::from_micros(0),
            deadline: None,
            janitor_period: Duration::from_millis(100),
        });
        for _ in 0..5 {
            sys.inject_meet(SiteId(0), AgentName::new("pinger"), Briefcase::new());
        }
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
