//! StormCast: distributed storm prediction from Arctic weather sensors.
//!
//! The real StormCast consumed live sensor feeds from northern Norway; we
//! substitute a seeded synthetic trace generator (`seed_sensor_data`) that injects
//! a storm front into a configurable subset of sensor sites.  What matters for
//! the paper's claims is the *architecture* comparison:
//!
//! * **Agent plan** — a collector agent visits every sensor site, filters the
//!   readings *at the site* down to the suspicious ones (high wind or steep
//!   pressure drop), carries only those onward, and finally meets the expert
//!   agent, which issues a warning.
//! * **Client–server plan** — every sensor site ships its complete raw
//!   reading log to the expert site, which filters centrally.
//!
//! Both plans reach the same verdict; the difference is bytes on the wire,
//! which is exactly the paper's §1 argument for agents.

use tacoma_agents::standard_agents;
use tacoma_core::prelude::*;
use tacoma_core::{Folder, TacomaSystem};
use tacoma_net::{LinkSpec, Topology};
use tacoma_util::DetRng;

/// Cabinet on each sensor site holding raw readings.
pub const SENSOR_CABINET: &str = "stormcast_sensor";
/// Folder of raw readings in the sensor cabinet.
pub const READINGS: &str = "READINGS";
/// Cabinet on the expert site holding issued warnings.
pub const EXPERT_CABINET: &str = "stormcast_expert";
/// Folder of issued warnings.
pub const WARNINGS: &str = "WARNINGS";
/// Folder of suspicious readings recorded at the expert site.
pub const SUSPICIOUS: &str = "SUSPICIOUS";
/// Folder of per-site summaries carried by the collector agent.
pub const SUMMARY: &str = "SUMMARY";
/// Folder of raw readings shipped by the client-server plan.
pub const RAW: &str = "RAW";

/// Which architecture a run uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StormcastPlan {
    /// Mobile collector agent filtering at the sensor sites.
    Agent,
    /// Sensors ship raw logs to the expert site (client–server).
    ClientServer,
}

impl StormcastPlan {
    /// Label used in experiment tables.
    pub fn label(self) -> &'static str {
        match self {
            StormcastPlan::Agent => "agent (filter at source)",
            StormcastPlan::ClientServer => "client-server (ship raw)",
        }
    }
}

/// Deterministic model of a StormCast *subscriber base*: a population of
/// warning subscribers spread over regions, modeled as rate processes.
///
/// The flash-crowd experiment (E19) needs "every subscriber in the storm
/// region hits the service at once" without materialising a subscriber
/// object per person.  Like [`crate::agentmail::UserDirectory`], this is a
/// closed-form mapping: subscribers are homed round-robin over sites, sites
/// are grouped into contiguous regions, and the per-region population — the
/// number that scales a region's arrival rate during a crowd — is exact
/// arithmetic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SubscriberModel {
    subscribers: u64,
    sites: u32,
    sites_per_region: u32,
}

impl SubscriberModel {
    /// A subscriber base of `subscribers` spread round-robin over `sites`
    /// sites, grouped into regions of `sites_per_region` consecutive sites
    /// (the last region may be short).
    ///
    /// # Panics
    ///
    /// Panics if `sites` or `sites_per_region` is zero.
    pub fn new(subscribers: u64, sites: u32, sites_per_region: u32) -> Self {
        assert!(sites > 0, "a subscriber model needs at least one site");
        assert!(sites_per_region > 0, "regions need at least one site");
        SubscriberModel {
            subscribers,
            sites,
            sites_per_region,
        }
    }

    /// Total subscribers.
    pub fn subscribers(&self) -> u64 {
        self.subscribers
    }

    /// Number of regions.
    pub fn regions(&self) -> u32 {
        self.sites.div_ceil(self.sites_per_region)
    }

    /// Home site of subscriber `sub`.
    ///
    /// # Panics
    ///
    /// Panics if `sub` is outside the subscriber base.
    pub fn home(&self, sub: u64) -> SiteId {
        assert!(sub < self.subscribers, "subscriber {sub} outside base");
        SiteId((sub % self.sites as u64) as u32)
    }

    /// Region a site belongs to.
    pub fn region_of(&self, site: SiteId) -> u32 {
        site.0 / self.sites_per_region
    }

    /// The sites of `region`, in order.
    pub fn region_sites(&self, region: u32) -> impl Iterator<Item = SiteId> + '_ {
        let first = region * self.sites_per_region;
        (first..(first + self.sites_per_region).min(self.sites)).map(SiteId)
    }

    /// Exact number of subscribers homed at `site` — no enumeration.
    pub fn population(&self, site: SiteId) -> u64 {
        if site.0 >= self.sites {
            return 0;
        }
        let base = self.subscribers / self.sites as u64;
        base + u64::from((site.0 as u64) < self.subscribers % self.sites as u64)
    }

    /// Exact number of subscribers in `region`.
    pub fn region_population(&self, region: u32) -> u64 {
        self.region_sites(region).map(|s| self.population(s)).sum()
    }

    /// The region's share of the total subscriber base — what scales an
    /// aggregate arrival rate into a regional flash-crowd rate.
    pub fn region_share(&self, region: u32) -> f64 {
        if self.subscribers == 0 {
            0.0
        } else {
            self.region_population(region) as f64 / self.subscribers as f64
        }
    }
}

/// Parameters of one StormCast run.
#[derive(Debug, Clone)]
pub struct StormcastConfig {
    /// Number of sensor sites (the expert lives at site 0).
    pub sensors: u32,
    /// Readings accumulated at each sensor site over the observation window.
    pub readings_per_sensor: u32,
    /// Fraction of sensor sites inside the storm front.
    pub storm_fraction: f64,
    /// Architecture to run.
    pub plan: StormcastPlan,
    /// Random seed.
    pub seed: u64,
}

impl Default for StormcastConfig {
    fn default() -> Self {
        StormcastConfig {
            sensors: 8,
            readings_per_sensor: 200,
            storm_fraction: 0.25,
            plan: StormcastPlan::Agent,
            seed: 1995,
        }
    }
}

/// What one StormCast run measured.
#[derive(Debug, Clone)]
pub struct StormcastResult {
    /// The plan that produced this result.
    pub plan: StormcastPlan,
    /// Bytes moved over the network.
    pub network_bytes: u64,
    /// Simulated milliseconds from kickoff until the warning verdict existed.
    pub latency_ms: f64,
    /// Number of storm warnings issued (one per stormy sensor site).
    pub warnings: usize,
    /// Number of suspicious readings that reached the expert.
    pub suspicious_readings: usize,
    /// Total raw readings generated across all sensor sites.
    pub total_readings: usize,
}

/// One synthetic weather reading (fixed-width record: 32 bytes of text keeps
/// byte accounting honest and readable).
fn reading_record(site: SiteId, idx: u32, wind: f64, pressure: f64) -> String {
    format!("{:>3},{:>5},{:>7.2},{:>9.2}", site.0, idx, wind, pressure)
}

fn is_suspicious(record: &str) -> bool {
    let mut parts = record.split(',');
    let wind: f64 = parts
        .nth(2)
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or(0.0);
    wind >= 20.0
}

/// The expert-system agent at site 0: receives suspicious readings and issues
/// a warning for every sensor site reporting sustained storm-force wind.
struct ExpertAgent;

impl Agent for ExpertAgent {
    fn name(&self) -> AgentName {
        AgentName::new("storm_expert")
    }

    fn meet(&mut self, ctx: &mut MeetCtx<'_>, bc: Briefcase) -> MeetOutcome {
        // Per-site suspicious-gust counts arrive either as compact summaries
        // (agent plan: "site,count,maxwind") or as raw logs the expert must
        // filter itself (client-server plan).
        let mut counts: std::collections::BTreeMap<String, usize> = Default::default();
        if let Some(summaries) = bc.folder(SUMMARY) {
            for record in summaries.strings() {
                let mut parts = record.split(',');
                let site = parts.next().unwrap_or("?").trim().to_string();
                let count: usize = parts
                    .next()
                    .and_then(|s| s.trim().parse().ok())
                    .unwrap_or(0);
                *counts.entry(site).or_default() += count;
                ctx.cabinet(EXPERT_CABINET).append_str(SUSPICIOUS, &record);
            }
        }
        if let Some(raw) = bc.folder(RAW) {
            for record in raw.strings().into_iter().filter(|r| is_suspicious(r)) {
                let site = record.split(',').next().unwrap_or("?").trim().to_string();
                *counts.entry(site).or_default() += 1;
                ctx.cabinet(EXPERT_CABINET).append_str(SUSPICIOUS, &record);
            }
        }
        // Ten or more storm-force gusts at a site means a storm warning.
        for (site, count) in counts {
            if count >= 10 {
                let warning = format!("storm-warning:site{site}:{count} gusts");
                if !ctx
                    .cabinet(EXPERT_CABINET)
                    .folder_contains(WARNINGS, warning.as_bytes())
                {
                    ctx.cabinet(EXPERT_CABINET).append_str(WARNINGS, &warning);
                }
            }
        }
        Ok(Briefcase::new())
    }
}

/// The mobile collector agent (agent plan): filter locally, carry the
/// suspicious readings, move on; deliver to the expert at the end.
struct CollectorAgent;

impl Agent for CollectorAgent {
    fn name(&self) -> AgentName {
        AgentName::new("storm_collector")
    }

    fn meet(&mut self, ctx: &mut MeetCtx<'_>, mut bc: Briefcase) -> MeetOutcome {
        // Filter and *reduce* this site's readings where they live: the agent
        // carries only a per-site summary of the suspicious gusts onward
        // ("an agent typically will filter or otherwise reduce the data it
        // reads, carrying with it only the relevant information", §1).
        let readings: Vec<String> = ctx
            .cabinet(SENSOR_CABINET)
            .folder_ref(READINGS)
            .map(|f| f.strings())
            .unwrap_or_default();
        let here = ctx.site();
        let mut count = 0usize;
        let mut max_wind = 0.0f64;
        for record in readings.iter().filter(|r| is_suspicious(r)) {
            count += 1;
            let wind: f64 = record
                .split(',')
                .nth(2)
                .and_then(|s| s.trim().parse().ok())
                .unwrap_or(0.0);
            max_wind = max_wind.max(wind);
        }
        if count > 0 {
            bc.folder_mut(SUMMARY)
                .push_str(format!("{},{count},{max_wind:.2}", here.0));
        }
        // Move to the next sensor site, or deliver to the expert.
        let next = bc
            .folder_mut(wellknown::ITINERARY)
            .dequeue_str()
            .and_then(|s| s.parse::<u32>().ok());
        match next {
            Some(site) => {
                ctx.remote_meet(
                    SiteId(site),
                    AgentName::new("storm_collector"),
                    bc,
                    TransportKind::Tcp,
                );
            }
            None => {
                let origin = bc
                    .peek_string(wellknown::ORIGIN)
                    .and_then(|s| s.parse::<u32>().ok())
                    .unwrap_or(0);
                ctx.remote_meet(
                    SiteId(origin),
                    AgentName::new("storm_expert"),
                    bc,
                    TransportKind::Tcp,
                );
            }
        }
        Ok(Briefcase::new())
    }
}

/// The sensor-server agent (client–server plan): on request, ship the whole
/// raw reading log to the expert site.
struct SensorServerAgent;

impl Agent for SensorServerAgent {
    fn name(&self) -> AgentName {
        AgentName::new("storm_sensor_server")
    }

    fn meet(&mut self, ctx: &mut MeetCtx<'_>, bc: Briefcase) -> MeetOutcome {
        let origin = bc
            .peek_string(wellknown::ORIGIN)
            .and_then(|s| s.parse::<u32>().ok())
            .unwrap_or(0);
        let readings: Vec<String> = ctx
            .cabinet(SENSOR_CABINET)
            .folder_ref(READINGS)
            .map(|f| f.strings())
            .unwrap_or_default();
        let mut shipment = Briefcase::new();
        let raw = shipment.folder_mut(RAW);
        for record in readings {
            raw.push_str(record);
        }
        ctx.remote_meet(
            SiteId(origin),
            AgentName::new("storm_expert"),
            shipment,
            TransportKind::Tcp,
        );
        Ok(Briefcase::new())
    }
}

/// Generates the synthetic sensor data at each site.
fn seed_sensor_data(sys: &mut TacomaSystem, config: &StormcastConfig) -> usize {
    let mut rng = DetRng::new(config.seed ^ 0x5707);
    let stormy_count = ((config.sensors as f64) * config.storm_fraction).round() as u32;
    let mut total = 0;
    for s in 1..=config.sensors {
        let stormy = s <= stormy_count;
        let cab = sys
            .place_mut(SiteId(s))
            .cabinets_mut()
            .cabinet(SENSOR_CABINET);
        for i in 0..config.readings_per_sensor {
            let wind = if stormy && rng.chance(0.3) {
                rng.normal(28.0, 4.0).max(20.5)
            } else {
                rng.normal(8.0, 4.0).clamp(0.0, 19.5)
            };
            let pressure = rng.normal(if stormy { 975.0 } else { 1013.0 }, 5.0);
            cab.append_str(READINGS, reading_record(SiteId(s), i, wind, pressure));
            total += 1;
        }
    }
    total
}

/// Runs one StormCast experiment and returns its measurements.
pub fn run_stormcast(config: &StormcastConfig) -> StormcastResult {
    let sites = config.sensors + 1;
    let mut sys = TacomaSystem::builder()
        .topology(Topology::star(sites, LinkSpec::wan()))
        .seed(config.seed)
        .with_agents(standard_agents)
        .build();
    sys.register_agent(SiteId(0), Box::new(ExpertAgent));
    for s in 1..=config.sensors {
        sys.register_agent(SiteId(s), Box::new(CollectorAgent));
        sys.register_agent(SiteId(s), Box::new(SensorServerAgent));
    }
    let total_readings = seed_sensor_data(&mut sys, config);
    sys.reset_net_metrics();

    match config.plan {
        StormcastPlan::Agent => {
            // One collector visits every sensor site in turn.
            let mut bc = Briefcase::new();
            let mut itinerary = Folder::new();
            for s in 2..=config.sensors {
                itinerary.enqueue(s.to_string().into_bytes());
            }
            bc.put(wellknown::ITINERARY, itinerary);
            bc.put_string(wellknown::ORIGIN, "0");
            sys.inject_meet(SiteId(1), AgentName::new("storm_collector"), bc);
        }
        StormcastPlan::ClientServer => {
            // The expert polls every sensor server for its full log.
            for s in 1..=config.sensors {
                let mut bc = Briefcase::new();
                bc.put_string(wellknown::ORIGIN, "0");
                sys.inject_meet(SiteId(s), AgentName::new("storm_sensor_server"), bc);
            }
        }
    }
    sys.run_until_quiescent(1_000_000);

    let expert = sys.place(SiteId(0)).cabinets().get(EXPERT_CABINET);
    let warnings = expert
        .and_then(|c| c.folder_ref(WARNINGS).map(|f| f.len()))
        .unwrap_or(0);
    let suspicious = expert
        .and_then(|c| c.folder_ref(SUSPICIOUS).map(|f| f.len()))
        .unwrap_or(0);

    StormcastResult {
        plan: config.plan,
        network_bytes: sys.net_metrics().total_bytes().get(),
        latency_ms: sys.now().as_millis_f64(),
        warnings,
        suspicious_readings: suspicious,
        total_readings,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config(plan: StormcastPlan) -> StormcastConfig {
        StormcastConfig {
            sensors: 6,
            readings_per_sensor: 150,
            storm_fraction: 0.34,
            plan,
            seed: 77,
        }
    }

    #[test]
    fn both_plans_issue_the_same_warnings() {
        let agent = run_stormcast(&config(StormcastPlan::Agent));
        let cs = run_stormcast(&config(StormcastPlan::ClientServer));
        assert_eq!(
            agent.warnings, cs.warnings,
            "the verdict must not depend on the plan"
        );
        assert_eq!(
            agent.warnings, 2,
            "two of six sensors are inside the storm front"
        );
        assert!(agent.suspicious_readings > 0);
        assert_eq!(agent.total_readings, 6 * 150);
    }

    #[test]
    fn agent_plan_moves_far_fewer_bytes() {
        let agent = run_stormcast(&config(StormcastPlan::Agent));
        let cs = run_stormcast(&config(StormcastPlan::ClientServer));
        assert!(
            (agent.network_bytes as f64) < 0.5 * cs.network_bytes as f64,
            "agent plan ({} B) should move far less than client-server ({} B)",
            agent.network_bytes,
            cs.network_bytes
        );
    }

    #[test]
    fn no_storm_no_warnings() {
        let result = run_stormcast(&StormcastConfig {
            storm_fraction: 0.0,
            ..config(StormcastPlan::Agent)
        });
        assert_eq!(result.warnings, 0);
    }

    #[test]
    fn results_are_deterministic() {
        let a = run_stormcast(&config(StormcastPlan::Agent));
        let b = run_stormcast(&config(StormcastPlan::Agent));
        assert_eq!(a.network_bytes, b.network_bytes);
        assert_eq!(a.warnings, b.warnings);
        assert_eq!(a.suspicious_readings, b.suspicious_readings);
    }

    #[test]
    fn reading_records_have_fixed_shape() {
        let r = reading_record(SiteId(3), 17, 22.5, 998.25);
        assert!(is_suspicious(&r));
        let calm = reading_record(SiteId(3), 18, 5.0, 1013.0);
        assert!(!is_suspicious(&calm));
        assert_eq!(r.split(',').count(), 4);
    }

    #[test]
    fn subscriber_model_regions_partition_the_base() {
        // 10 sites in regions of 4 → regions {0..3}, {4..7}, {8,9}.
        let model = SubscriberModel::new(1_000_003, 10, 4);
        assert_eq!(model.regions(), 3);
        assert_eq!(model.region_sites(2).count(), 2, "last region is short");
        let total: u64 = (0..model.regions())
            .map(|r| model.region_population(r))
            .sum();
        assert_eq!(total, model.subscribers());
        let shares: f64 = (0..model.regions()).map(|r| model.region_share(r)).sum();
        assert!((shares - 1.0).abs() < 1e-12);
        for sub in 0..30 {
            let home = model.home(sub);
            assert_eq!(model.region_of(home), home.0 / 4);
        }
    }
}
