//! Broker federation: sharded, staleness-aware, failure-tolerant scheduling.
//!
//! The paper's §4 expects brokers "to communicate among themselves and with
//! the service providers, so that requests can be distributed amongst service
//! providers based on load and capacity" — plural brokers.  A single broker
//! trusting every report forever drowns in cross-WAN report traffic at 1024
//! sites and places jobs on seconds-stale information.  This module's one
//! broker, [`FederatedBrokerAgent`], shards the provider fleet across `k`
//! brokers (a single broker is the federation with `k == 1`):
//!
//! * every provider's monitor reports to its **shard broker** (a near-by
//!   gateway, so report transit is LAN-scale and the information is fresh);
//! * brokers exchange compact **aggregated digests** ([`ShardDigest`]) on a
//!   configurable period — the paper's broker-to-broker communication — and
//!   use them to **forward** a job when their own shard has no eligible
//!   provider (one hop, loop-safe);
//! * placement inside a shard is **staleness-aware**: reports expire after a
//!   TTL, and the sampled [`PlacementPolicy::PowerOfTwo`] policy decays old
//!   reports ([`crate::LoadReport::decayed_wait`]) so a dead provider's last report
//!   cannot keep attracting jobs;
//! * failover rides the ft layer's guard: a `BrokerGuardAgent` (see
//!   `tacoma_ft`) watches each primary and, when it stays dead, sends the
//!   co-located broker an [`wellknown::ADOPT`] meet and every orphaned
//!   provider a [`wellknown::REHOME`] meet — the crashed broker's shard is
//!   re-adopted instead of orphaned.
//!
//! [`build_federation`] and [`install_sources`] lay a federation out on a
//! ring-of-cliques topology; the E15, E16 and E19 runners that drive it live
//! in the bench crate.

use crate::agents::{MonitorAgent, TicketAgent, WorkerAgent, TICKET_FOLDER};
use crate::agents::{JOB, JOB_SIZE, REQUEST};
use crate::load::{peek_parse, LoadReport, ReportDb};
use crate::policy::PlacementPolicy;
use std::collections::BTreeMap;
use tacoma_core::prelude::*;
use tacoma_core::TacomaSystem;
use tacoma_net::{CustodyConfig, LinkSpec, Topology};

/// Folder marking a job that has already been forwarded once between
/// brokers; a second forward is refused instead of looping.
pub const FORWARDED: &str = "FED_FORWARDED";
/// Cabinet where a federated broker records its control-plane events.
pub const BROKER_CABINET: &str = "fed_broker";
/// Folder (in [`BROKER_CABINET`]) with one element per job placed locally.
pub const PLACED: &str = "PLACED";
/// Folder with one element per job forwarded to a peer broker.
pub const FWD: &str = "FWD";
/// Folder with one element per digest sent to a peer.
pub const DIG_TX: &str = "DIG_TX";
/// Folder with one element per digest received from a peer.
pub const DIG_RX: &str = "DIG_RX";
/// Folder with one element per shard adoption performed.
pub const ADOPTED: &str = "ADOPTED";
/// Folder with one element per submission shed by broker admission control
/// (the local shard and every under-threshold peer were saturated).
pub const SHED: &str = "SHED";
/// Well-known name of the federated job source agent.
pub const FED_SOURCE: &str = "fed_source";

/// A compact aggregate of one broker's shard, gossiped to its peers.
///
/// Digests are what keep inter-broker traffic *aggregated*: one small
/// message per peer per period instead of relaying every load report.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardDigest {
    /// The shard this digest describes.
    pub shard: u32,
    /// The broker site that produced it.
    pub broker_site: SiteId,
    /// Providers with a fresh report at digest time.
    pub live_providers: u32,
    /// Sum of their reported queue lengths.
    pub total_queue: u64,
    /// Sum of their cost-weighted queues (kilosteps); zero when every
    /// report in the shard is cost-blind.
    pub total_cost: f64,
    /// Sum of their capacities.
    pub total_capacity: f64,
    /// Simulated time the digest was computed.
    pub at_micros: u64,
}

impl ShardDigest {
    /// Shard-aggregate expected wait: total effective queue (cost-weighted
    /// when any report carried cost, job count otherwise) over total
    /// capacity.  Infinite when the shard has no live capacity.
    pub fn aggregate_wait(&self) -> f64 {
        if self.total_capacity.is_nan() || self.total_capacity <= 0.0 {
            f64::INFINITY
        } else if self.total_cost > 0.0 {
            self.total_cost / self.total_capacity
        } else {
            self.total_queue as f64 / self.total_capacity
        }
    }

    /// Serializes the digest into briefcase folders.
    pub fn to_briefcase(&self) -> Briefcase {
        let mut bc = Briefcase::new();
        bc.put_string(wellknown::DIGEST, "1");
        bc.put_string("DIG_SHARD", self.shard.to_string());
        bc.put_string("DIG_SITE", self.broker_site.0.to_string());
        bc.put_string("DIG_LIVE", self.live_providers.to_string());
        bc.put_string("DIG_QUEUE", self.total_queue.to_string());
        if self.total_cost != 0.0 {
            bc.put_string("DIG_COST", format!("{}", self.total_cost));
        }
        bc.put_string("DIG_CAPACITY", format!("{}", self.total_capacity));
        bc.put_string("DIG_AT", self.at_micros.to_string());
        bc
    }

    /// Parses a digest back out of briefcase folders.
    pub fn from_briefcase(bc: &Briefcase) -> Option<ShardDigest> {
        Some(ShardDigest {
            shard: peek_parse(bc, "DIG_SHARD")?,
            broker_site: SiteId(peek_parse(bc, "DIG_SITE")?),
            live_providers: peek_parse(bc, "DIG_LIVE")?,
            total_queue: peek_parse(bc, "DIG_QUEUE")?,
            total_cost: peek_parse(bc, "DIG_COST").unwrap_or(0.0),
            total_capacity: peek_parse(bc, "DIG_CAPACITY")?,
            at_micros: peek_parse(bc, "DIG_AT")?,
        })
    }
}

/// The scheduling broker (§4): one shard's broker in a federation.
///
/// A single broker is a federation of one shard: with no peers it arms no
/// digest timer and never forwards, which is how E7 and A4 run it.
/// Registers under the plain [`wellknown::BROKER`] name — names are per-site,
/// so "the broker at site s" is unambiguous.  Speaks the `REQUEST` protocol
/// of [`crate::agents`] (`report`, `lookup`, `submit`), extended with
/// `"digest"` meets from peers and [`wellknown::ADOPT`] meets from a
/// failover guard.
pub struct FederatedBrokerAgent {
    shard: u32,
    /// The other brokers as `(shard, site)`, in shard order.
    peers: Vec<(u32, SiteId)>,
    policy: PlacementPolicy,
    decay_half_life: Duration,
    digest_period: Duration,
    reports: ReportDb,
    digests: BTreeMap<u32, ShardDigest>,
    rr_counter: u64,
    /// Aggregate-wait threshold for digest-driven load shedding; `None`
    /// disables broker admission control.
    shed_threshold: Option<f64>,
}

impl FederatedBrokerAgent {
    /// Creates the broker for `shard` with the given peer set.
    pub fn new(
        shard: u32,
        peers: Vec<(u32, SiteId)>,
        policy: PlacementPolicy,
        report_ttl: Duration,
        decay_half_life: Duration,
        digest_period: Duration,
    ) -> Self {
        FederatedBrokerAgent {
            shard,
            peers,
            policy,
            decay_half_life,
            digest_period,
            reports: ReportDb::new(report_ttl),
            digests: BTreeMap::new(),
            rr_counter: 0,
            shed_threshold: None,
        }
    }

    /// Enables broker admission control: when this broker's own shard digest
    /// shows an aggregate wait above `threshold` *and* no peer digest is
    /// under it, new submissions are shed (refused and recorded in the
    /// [`SHED`] folder) instead of being queued into a saturated federation.
    /// A saturated broker with an under-threshold peer forwards there
    /// instead — the digest-driven half of power-of-two placement.
    pub fn shed_threshold(mut self, threshold: Option<f64>) -> Self {
        self.shed_threshold = threshold;
        self
    }

    /// The usable peer digest (live providers, fresh, broker up) with the
    /// lowest aggregate wait, as the site advertising it and that wait.
    fn best_peer(&self, now: u64, ctx: &MeetCtx<'_>) -> Option<(SiteId, f64)> {
        let ttl = self.reports.report_ttl().micros();
        self.digests
            .values()
            .filter(|d| {
                d.live_providers > 0
                    && now.saturating_sub(d.at_micros) <= ttl
                    && ctx.site_is_up(d.broker_site)
            })
            .min_by(|a, b| {
                a.aggregate_wait()
                    .total_cmp(&b.aggregate_wait())
                    .then(a.shard.cmp(&b.shard))
            })
            .map(|d| (d.broker_site, d.aggregate_wait()))
    }

    fn digest(&self, now: u64, ctx: &MeetCtx<'_>) -> ShardDigest {
        let fresh = self.reports.fresh(now, |s| ctx.site_is_up(s));
        ShardDigest {
            shard: self.shard,
            broker_site: ctx.site(),
            live_providers: fresh.len() as u32,
            total_queue: fresh.iter().map(|r| r.queue_len).sum(),
            total_cost: fresh.iter().map(|r| r.queue_cost).sum(),
            total_capacity: fresh.iter().map(|r| r.capacity).sum(),
            at_micros: now,
        }
    }

    fn broadcast_digest(&mut self, ctx: &mut MeetCtx<'_>) {
        let now = ctx.now().micros();
        let digest = self.digest(now, ctx);
        let mut bc = digest.to_briefcase();
        bc.put_string(REQUEST, "digest");
        for &(_, site) in &self.peers {
            ctx.remote_meet(
                site,
                AgentName::new(wellknown::BROKER),
                bc.clone(),
                TransportKind::Tcp,
            );
            ctx.cabinet(BROKER_CABINET)
                .append(DIG_TX, site.0.to_string());
        }
    }
}

/// Forwards a job this broker cannot place to the broker at `peer`, once:
/// the `FORWARDED` mark makes the peer refuse a second forward.
fn forward(ctx: &mut MeetCtx<'_>, mut bc: Briefcase, peer: SiteId) -> MeetOutcome {
    let job = bc.peek(JOB).unwrap_or_default();
    ctx.cabinet(BROKER_CABINET).append(FWD, job);
    bc.put_string(FORWARDED, "1");
    let mut reply = Briefcase::new();
    reply.put_string(PROVIDER, format!("forwarded:{peer}"));
    ctx.remote_meet(
        peer,
        AgentName::new(wellknown::BROKER),
        bc,
        TransportKind::Tcp,
    );
    Ok(reply)
}

/// The submit tail: obtains an admission ticket from the co-located ticket
/// agent, attaches it, strips the request verb, and dispatches the job
/// briefcase to the chosen provider's worker.
fn dispatch_with_ticket(
    ctx: &mut MeetCtx<'_>,
    mut bc: Briefcase,
    chosen: SiteId,
) -> Result<(), TacomaError> {
    let ticket_reply = ctx.meet_local(&AgentName::new(wellknown::TICKET), Briefcase::new())?;
    let ticket = ticket_reply
        .folder(TICKET_FOLDER)
        .cloned()
        .ok_or_else(|| TacomaError::missing(TICKET_FOLDER))?;
    bc.put(TICKET_FOLDER, ticket);
    bc.take(REQUEST);
    ctx.remote_meet(chosen, AgentName::new("worker"), bc, TransportKind::Tcp);
    Ok(())
}

impl Agent for FederatedBrokerAgent {
    fn name(&self) -> AgentName {
        AgentName::new(wellknown::BROKER)
    }

    fn on_install(&mut self, ctx: &mut MeetCtx<'_>) {
        if !self.peers.is_empty() {
            ctx.schedule(
                AgentName::new(wellknown::BROKER),
                self.digest_period,
                Briefcase::new(),
            );
        }
    }

    fn meet(&mut self, ctx: &mut MeetCtx<'_>, mut bc: Briefcase) -> MeetOutcome {
        if bc.contains(wellknown::TIMER) {
            // Digest tick: gossip the shard aggregate and re-arm.
            self.broadcast_digest(ctx);
            ctx.schedule(
                AgentName::new(wellknown::BROKER),
                self.digest_period,
                Briefcase::new(),
            );
            return Ok(Briefcase::new());
        }
        if let Some(shard) = bc.peek_string(wellknown::ADOPT) {
            // A failover guard hands us a crashed peer's shard.  Its
            // monitors are being rehomed to this site; their reports flow
            // into `self.reports` like any others — adoption just records
            // the custody change.
            ctx.cabinet(BROKER_CABINET).append_str(ADOPTED, &shard);
            ctx.log(format!(
                "broker shard {} adopted orphaned shard {shard}",
                self.shard
            ));
            return Ok(Briefcase::new());
        }
        let request = bc
            .peek(REQUEST)
            .ok_or_else(|| TacomaError::missing(REQUEST))?;
        let submit = request == b"submit";
        match request {
            b"report" => {
                let report = LoadReport::from_briefcase(&bc)
                    .ok_or_else(|| TacomaError::bad_folder("LOAD_SITE", "malformed load report"))?;
                self.reports.ingest(report, ctx.now().micros());
                Ok(Briefcase::new())
            }
            b"digest" => {
                let digest = ShardDigest::from_briefcase(&bc)
                    .ok_or_else(|| TacomaError::bad_folder("DIG_SHARD", "malformed digest"))?;
                ctx.cabinet(BROKER_CABINET)
                    .append(DIG_RX, digest.shard.to_string());
                self.digests.insert(digest.shard, digest);
                Ok(Briefcase::new())
            }
            b"lookup" | b"submit" => {
                let now = ctx.now().micros();
                if let Some(threshold) = self.shed_threshold.filter(|_| submit) {
                    let local_wait = self.digest(now, ctx).aggregate_wait();
                    if local_wait > threshold {
                        // Saturated here.  A peer advertising headroom
                        // absorbs the overflow (forward once); with none,
                        // the job is shed at admission — a fast explicit no
                        // instead of a queue that only grows.
                        if !bc.contains(FORWARDED) {
                            if let Some((peer, wait)) = self.best_peer(now, ctx) {
                                if wait <= threshold {
                                    return forward(ctx, bc, peer);
                                }
                            }
                        }
                        let job = bc.peek_string(JOB).unwrap_or_default();
                        ctx.cabinet(BROKER_CABINET).append_str(SHED, &job);
                        return Err(TacomaError::Refused(format!(
                            "shard {} shed '{job}': aggregate wait {local_wait:.2} over \
                             threshold {threshold:.2} with no peer headroom",
                            self.shard
                        )));
                    }
                }
                let reports = self.reports.fresh(now, |s| ctx.site_is_up(s));
                let mut chosen = self.policy.choose(
                    &reports,
                    now,
                    self.decay_half_life.micros(),
                    ctx.rng(),
                    &mut self.rr_counter,
                );
                if chosen.is_none() {
                    // No fresh report (e.g. right after this site recovered,
                    // before the next monitor period).  Best-effort fallback:
                    // stale reports of still-up providers beat dropping the
                    // job — the TTL exists to prefer fresh data and to shed
                    // dead providers, and the liveness filter still applies.
                    let stale = self.reports.live(|s| ctx.site_is_up(s));
                    chosen = self.policy.choose(
                        &stale,
                        now,
                        self.decay_half_life.micros(),
                        ctx.rng(),
                        &mut self.rr_counter,
                    );
                }
                let Some(chosen) = chosen else {
                    // Nothing placeable here.  Forward a submission (once)
                    // to the best peer the digests suggest; with no usable
                    // digest (e.g. right after a recovery) to the first live
                    // peer.
                    if !submit || bc.contains(FORWARDED) {
                        return Err(TacomaError::Refused(format!(
                            "shard {} has no eligible provider",
                            self.shard
                        )));
                    }
                    let peer = self.best_peer(now, ctx).map(|(site, _)| site).or_else(|| {
                        let mut live = self.peers.iter().map(|&(_, site)| site);
                        live.find(|site| ctx.site_is_up(*site))
                    });
                    let Some(peer) = peer else {
                        return Err(TacomaError::Refused(format!(
                            "shard {} has no eligible provider and no live peer",
                            self.shard
                        )));
                    };
                    return forward(ctx, bc, peer);
                };
                let mut reply = Briefcase::new();
                reply.put_string(PROVIDER, chosen.0.to_string());
                if submit {
                    let job = bc.peek(JOB).unwrap_or_default().to_vec();
                    bc.take(FORWARDED);
                    dispatch_with_ticket(ctx, bc, chosen)?;
                    // Optimistically bump the chosen provider's queue so a
                    // burst of submissions spreads even before the next report.
                    self.reports.bump(chosen);
                    ctx.cabinet(BROKER_CABINET).append(PLACED, job);
                }
                Ok(reply)
            }
            other => Err(TacomaError::Refused(format!(
                "unknown broker request '{}'",
                String::from_utf8_lossy(other)
            ))),
        }
    }
}

/// Folder naming the provider chosen by a lookup (re-exported spelling of
/// [`crate::agents::PROVIDER`] so federation call-sites read naturally).
pub use crate::agents::PROVIDER;

/// A client-side job source attached to one shard.
///
/// Submits jobs to its primary broker with exponential inter-arrival times,
/// failing over to the backup broker (the primary's guard site) whenever the
/// primary is down — the client half of broker failover.
pub struct FederatedJobSource {
    primary: SiteId,
    backup: SiteId,
    remaining: u32,
    mean_job_ms: f64,
    mean_interarrival_ms: f64,
    prefix: String,
    next_id: u32,
}

impl FederatedJobSource {
    /// Creates a source submitting `jobs` jobs to `primary`, falling back to
    /// `backup` while the primary is down.
    pub fn new(
        primary: SiteId,
        backup: SiteId,
        jobs: u32,
        mean_job_ms: f64,
        mean_interarrival_ms: f64,
        prefix: impl Into<String>,
    ) -> Self {
        FederatedJobSource {
            primary,
            backup,
            remaining: jobs,
            mean_job_ms,
            mean_interarrival_ms,
            prefix: prefix.into(),
            next_id: 0,
        }
    }

    fn tick(&self, ctx: &mut MeetCtx<'_>, delay: Duration) {
        ctx.schedule(AgentName::new(FED_SOURCE), delay, Briefcase::new());
    }
}

impl Agent for FederatedJobSource {
    fn name(&self) -> AgentName {
        AgentName::new(FED_SOURCE)
    }

    fn on_install(&mut self, ctx: &mut MeetCtx<'_>) {
        if self.remaining > 0 {
            self.tick(ctx, Duration::from_millis(1));
        }
    }

    fn meet(&mut self, ctx: &mut MeetCtx<'_>, bc: Briefcase) -> MeetOutcome {
        if !bc.contains(wellknown::TIMER) || self.remaining == 0 {
            return Ok(Briefcase::new());
        }
        self.remaining -= 1;
        let size_ms = ctx.rng().exponential(self.mean_job_ms).max(1.0) as u64;
        let mut job = Briefcase::new();
        job.put_string(REQUEST, "submit");
        job.put_string(JOB, format!("{}-{}", self.prefix, self.next_id));
        job.put_string(JOB_SIZE, size_ms.to_string());
        self.next_id += 1;
        // Clients know the broker set and its liveness (the Horus-style
        // membership the kernel exposes); a down primary means the guard
        // site has — or is about to have — custody of the shard.
        let target = if ctx.site_is_up(self.primary) || !ctx.site_is_up(self.backup) {
            self.primary
        } else {
            self.backup
        };
        ctx.remote_meet(
            target,
            AgentName::new(wellknown::BROKER),
            job,
            TransportKind::Tcp,
        );
        if self.remaining > 0 {
            let gap = ctx.rng().exponential(self.mean_interarrival_ms).max(0.1);
            self.tick(ctx, Duration::from_secs_f64(gap / 1000.0));
        }
        Ok(Briefcase::new())
    }
}

/// Parameters of one federation run.
#[derive(Debug, Clone)]
pub struct FederationConfig {
    /// Cliques in the ring-of-cliques topology.
    pub cliques: u32,
    /// Sites per clique (gateway first); must be ≥ 2.
    pub clique_size: u32,
    /// Broker count; must divide `cliques`.  `1` is the single-broker
    /// baseline the federation is measured against.
    pub shards: u32,
    /// How often brokers gossip digests to their peers.
    pub digest_period: Duration,
    /// Monitor reporting period.
    pub report_period: Duration,
    /// How long a broker trusts a load report.
    pub report_ttl: Duration,
    /// Placement policy within a shard.
    pub policy: PlacementPolicy,
    /// Total jobs across all sources.
    pub jobs: u32,
    /// Mean job size (ms of work at capacity 1.0).
    pub mean_job_ms: f64,
    /// Aggregate mean inter-arrival time across all sources, in ms.
    pub mean_interarrival_ms: f64,
    /// Provider capacities, cycled over provider sites.
    pub capacities: Vec<f64>,
    /// Aggregate-wait threshold for broker admission control: a broker whose
    /// own shard digest shows a higher aggregate wait forwards new submits
    /// to an under-threshold peer, or sheds them when no peer has headroom
    /// (recorded in the [`SHED`] folder).  `None` disables shedding — the
    /// historical behaviour, where overload just queues.
    pub admission_threshold: Option<f64>,
    /// Store-and-forward custody configuration, when enabled (E16's failover
    /// runs park in-flight submissions across the broker outage).
    pub custody: Option<CustodyConfig>,
    /// Unread: the simulator has one event queue.  Kept only because
    /// `benchmark/` still sets it; goes with ROADMAP item 1(a)(iii).
    pub sim_shards: u32,
    /// Random seed.
    pub seed: u64,
}

impl Default for FederationConfig {
    fn default() -> Self {
        FederationConfig {
            cliques: 16,
            clique_size: 4,
            shards: 4,
            digest_period: Duration::from_millis(250),
            report_period: Duration::from_millis(200),
            report_ttl: Duration::from_secs(4),
            policy: PlacementPolicy::PowerOfTwo,
            jobs: 128,
            mean_job_ms: 60.0,
            mean_interarrival_ms: 10.0,
            capacities: vec![1.0, 2.0, 4.0, 8.0],
            admission_threshold: None,
            custody: None,
            sim_shards: 1,
            seed: 1515,
        }
    }
}

/// Where everything lives in a built federation system.
#[derive(Debug, Clone)]
pub struct FederationLayout {
    /// Total sites.
    pub sites: u32,
    /// Broker site per shard, in shard order.
    pub broker_sites: Vec<SiteId>,
    /// Provider sites per shard, in shard order.
    pub providers_by_shard: Vec<Vec<SiteId>>,
    /// Job-source site per shard (a provider site in the shard's first clique).
    pub source_sites: Vec<SiteId>,
}

impl FederationLayout {
    /// Every provider site, across all shards.
    pub fn providers(&self) -> impl Iterator<Item = SiteId> + '_ {
        self.providers_by_shard.iter().flatten().copied()
    }
}

/// Builds the system for a federation run: ring-of-cliques topology, one
/// broker (+ ticket agent) per shard gateway — installed through a factory so
/// a recovered broker site comes back with its broker — and a worker+monitor
/// pair at every other site.  Job sources are *not* installed; see
/// [`install_sources`].
pub fn build_federation(config: &FederationConfig) -> (TacomaSystem, FederationLayout) {
    assert!(
        config.clique_size >= 2,
        "need a provider next to each broker"
    );
    assert!(
        config.shards >= 1 && config.cliques.is_multiple_of(config.shards),
        "shard count must divide the clique count"
    );
    let sites = config.cliques * config.clique_size;
    let cliques_per_shard = config.cliques / config.shards;
    let broker_sites: Vec<SiteId> = (0..config.shards)
        .map(|b| SiteId(b * cliques_per_shard * config.clique_size))
        .collect();
    let shard_of_site = |site: SiteId| (site.0 / config.clique_size) / cliques_per_shard;

    let topology = Topology::ring_of_cliques(
        config.cliques,
        config.clique_size,
        LinkSpec::lan(),
        LinkSpec::wan(),
    );
    let cfg = config.clone();
    let brokers = broker_sites.clone();
    let clique_size = config.clique_size;
    let mut builder = TacomaSystem::builder()
        .topology(topology)
        .seed(config.seed)
        .with_agents_at(broker_sites.clone(), move |site| {
            let shard = (site.0 / clique_size) / cliques_per_shard;
            vec![
                Box::new(
                    FederatedBrokerAgent::new(
                        shard,
                        brokers
                            .iter()
                            .enumerate()
                            .filter(|(b, _)| *b as u32 != shard)
                            .map(|(b, s)| (b as u32, *s))
                            .collect(),
                        cfg.policy,
                        cfg.report_ttl,
                        cfg.report_period,
                        cfg.digest_period,
                    )
                    .shed_threshold(cfg.admission_threshold),
                ) as Box<dyn Agent>,
                Box::new(TicketAgent::new()) as Box<dyn Agent>,
            ]
        });
    if let Some(custody) = config.custody {
        builder = builder.custody(custody);
    }
    let mut sys = builder.build();

    let mut providers_by_shard: Vec<Vec<SiteId>> = vec![Vec::new(); config.shards as usize];
    let mut provider_index = 0usize;
    for s in 0..sites {
        let site = SiteId(s);
        if broker_sites.contains(&site) {
            continue;
        }
        let shard = shard_of_site(site);
        let capacity = config.capacities[provider_index % config.capacities.len().max(1)];
        provider_index += 1;
        sys.register_agent(site, Box::new(WorkerAgent::new(capacity)));
        sys.register_agent(
            site,
            Box::new(MonitorAgent::new(
                broker_sites[shard as usize],
                config.report_period,
                capacity,
            )),
        );
        providers_by_shard[shard as usize].push(site);
    }
    let source_sites: Vec<SiteId> = broker_sites.iter().map(|b| SiteId(b.0 + 1)).collect();
    (
        sys,
        FederationLayout {
            sites,
            broker_sites,
            providers_by_shard,
            source_sites,
        },
    )
}

/// Installs one job source per shard.  `backups[b]` is where shard `b`'s
/// clients fail over to while their primary broker is down (pass the primary
/// itself when there is no failover story, e.g. the single-broker baseline).
pub fn install_sources(
    sys: &mut TacomaSystem,
    config: &FederationConfig,
    layout: &FederationLayout,
    backups: &[SiteId],
) {
    let per_shard = config.jobs / config.shards;
    let remainder = config.jobs % config.shards;
    for (b, backup) in backups.iter().enumerate().take(config.shards as usize) {
        let jobs = per_shard + u32::from((b as u32) < remainder);
        sys.register_agent(
            layout.source_sites[b],
            Box::new(FederatedJobSource::new(
                layout.broker_sites[b],
                *backup,
                jobs,
                config.mean_job_ms,
                config.mean_interarrival_ms * config.shards as f64,
                format!("j{b}"),
            )),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agents::jobs_done;

    #[test]
    fn digest_round_trips_including_non_finite_aggregates() {
        let digest = ShardDigest {
            shard: 3,
            broker_site: SiteId(12),
            live_providers: 0,
            total_queue: 0,
            total_cost: 0.0,
            total_capacity: 0.0,
            at_micros: 99,
        };
        let parsed = ShardDigest::from_briefcase(&digest.to_briefcase()).unwrap();
        assert_eq!(parsed, digest);
        assert!(parsed.aggregate_wait().is_infinite());
        assert!(ShardDigest::from_briefcase(&Briefcase::new()).is_none());
    }

    #[test]
    fn broker_forwards_when_its_shard_is_empty() {
        // Shard 1's providers never report (we kill their monitors by
        // building a tiny layout and crashing the providers), so a submit to
        // shard 1 must be forwarded to a peer and still complete.
        let config = FederationConfig {
            cliques: 8,
            clique_size: 4,
            shards: 2,
            seed: 7,
            ..Default::default()
        };
        let (mut sys, layout) = build_federation(&config);
        sys.run_for(Duration::from_millis(50));
        // Crash every provider of shard 1; their reports expire.
        for site in &layout.providers_by_shard[1] {
            sys.net_mut().crash_now(*site);
        }
        sys.run_for(config.report_ttl + Duration::from_millis(300));
        let mut job = Briefcase::new();
        job.put_string(REQUEST, "submit");
        job.put_string(JOB, "fwd-test");
        job.put_string(JOB_SIZE, "20");
        sys.inject_meet_at(
            layout.source_sites[1],
            layout.broker_sites[1],
            AgentName::new(wellknown::BROKER),
            job,
        );
        sys.run_for(Duration::from_secs(5));
        let shard_done = |shard: usize| -> usize {
            let providers = &layout.providers_by_shard[shard];
            providers.iter().map(|&s| jobs_done(&sys, s).len()).sum()
        };
        assert_eq!(shard_done(0), 1, "the forwarded job runs on shard 0");
        assert_eq!(shard_done(1), 0);
        let fwd = sys
            .place(layout.broker_sites[1])
            .cabinets()
            .get(BROKER_CABINET)
            .and_then(|c| c.folder_ref(FWD).map(|f| f.len()))
            .unwrap_or(0);
        assert_eq!(fwd, 1, "the forward was recorded");
    }
}
