//! Assembling a [`TacomaSystem`]: topology, seed, and which optional
//! mechanisms (custody, admission control, the audit and cost gates) are on.

use super::admission::{Admission, AdmissionConfig};
use super::gates::Gates;
use super::{Engine, Site, SystemStats, TacomaSystem};
use crate::agent::Agent;
use crate::place::Place;
use std::collections::BTreeMap;
use tacoma_net::{CustodyConfig, LinkSpec, SimNet, Topology};
use tacoma_util::{AgentIdGen, DetRng, SiteId};

/// A factory that produces the default agents installed at every site (and
/// re-installed after a recovery).
pub type AgentFactory = Box<dyn Fn(SiteId) -> Vec<Box<dyn Agent>>>;

/// Builder for [`TacomaSystem`].
pub struct SystemBuilder {
    topology: Topology,
    seed: u64,
    custody: Option<CustodyConfig>,
    admission: Option<AdmissionConfig>,
    factories: Vec<AgentFactory>,
    audit_fleet: Option<tacoma_script::AuditConfig>,
    cost_gate: Option<tacoma_script::CostGate>,
}

impl SystemBuilder {
    /// Starts a builder with a 2-site full mesh and seed 0.
    pub fn new() -> Self {
        SystemBuilder {
            topology: Topology::full_mesh(2, LinkSpec::default()),
            seed: 0,
            custody: None,
            admission: None,
            factories: Vec::new(),
            audit_fleet: None,
            cost_gate: None,
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

    /// Accepted and ignored: the simulator has one event queue.  Kept only
    /// because `benchmark/` still calls it; goes with ROADMAP item 1(a)(iii).
    pub fn shards(self, _shards: u32) -> Self {
        self
    }

    /// Enables the install-time *fleet audit* (off by default).
    ///
    /// The per-script vet (always on) checks a CODE folder in isolation; the
    /// fleet audit additionally composes it against
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
    /// finite bound are annotated with a [`crate::wellknown::COST`] folder carrying
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
        let sites = (0..site_count)
            .map(|s| Site {
                place: Place::new(SiteId(s), master.derive(1000 + s as u64)),
                stable: BTreeMap::new(),
                reachable: None,
            })
            .collect();
        let mut net = SimNet::new(self.topology);
        if let Some(config) = self.custody {
            net.set_custody(config);
        }
        let mut audit_fleet = self.audit_fleet;
        if let Some(config) = audit_fleet.as_mut() {
            if config.declared_site_count().is_none() {
                config.set_site_count(site_count);
            }
        }
        let mut sys = TacomaSystem {
            engine: Engine {
                net,
                stats: SystemStats::default(),
                trace: Vec::new(),
                next_timer_key: 1,
            },
            sites,
            factories: self.factories,
            idgen: AgentIdGen::new(),
            pending_timers: BTreeMap::new(),
            admission: self
                .admission
                .map(|config| Admission::new(config, site_count)),
            gates: Gates {
                audit_fleet,
                cost_gate: self.cost_gate,
            },
            outbox: Vec::new(),
        };
        for s in 0..site_count {
            sys.install_defaults(SiteId(s));
        }
        for s in 0..site_count {
            sys.run_install_hooks_at(SiteId(s));
        }
        sys
    }
}

impl Default for SystemBuilder {
    fn default() -> Self {
        Self::new()
    }
}
