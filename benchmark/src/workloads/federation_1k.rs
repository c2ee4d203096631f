//! `federation_1k`: the broker federation at 1 024 sites.
//!
//! Chosen because it is where the sched agents, kernel timers, multi-hop WAN
//! routing and the kernel's per-meet O(sites) dispatch inputs do the work:
//! a thousand monitors report to eight brokers five times a simulated second
//! while sixteen thousand jobs are placed, ticketed, queued and finished.
//! The script layer is idle and briefcases are tiny.
//!
//! The run is driven to a fixed simulated horizon with `run_until` (monitors
//! re-arm forever, so the queue never drains); `drive_federation`'s cabinet
//! polling would be driver cost.  The seed becomes the system seed, from
//! which the job sources draw sizes and inter-arrival gaps.

use super::{thin, Capture, Harness, Outcome, Size, Workload};
use crate::spans::{boxed, AgentClock};
use crate::stats::percentile_u64;
use std::rc::Rc;
use tacoma_core::prelude::*;
use tacoma_core::TacomaSystem;
use tacoma_net::{LinkSpec, SimTime, Topology};
use tacoma_sched::agents::{DONE, JOBS_CABINET};
use tacoma_sched::federation::{
    build_federation, install_sources, FederationLayout, BROKER_CABINET, DIG_TX, FWD, PLACED,
};
use tacoma_sched::{
    FederatedBrokerAgent, FederatedJobSource, FederationConfig, MonitorAgent, PlacementPolicy,
    TicketAgent, WorkerAgent,
};

/// Simulated time per `run.chunk`: about a thousand events at full size.
const SLICE: Duration = Duration(50_000);

fn config(seed: u64, size: Size) -> FederationConfig {
    FederationConfig {
        cliques: size.pick(128, 16),
        clique_size: size.pick(8, 4),
        shards: size.pick(8, 4),
        digest_period: Duration::from_millis(250),
        report_period: Duration::from_millis(200),
        report_ttl: Duration::from_secs(4),
        policy: PlacementPolicy::PowerOfTwo,
        jobs: size.pick(16_384, 256),
        mean_job_ms: 300.0,
        mean_interarrival_ms: 3.0,
        capacities: vec![1.0, 2.0, 4.0, 8.0],
        admission_threshold: None,
        custody: None,
        sim_shards: 1,
        seed,
    }
}

/// Simulated horizon: the arrival window (`jobs` × 3 ms ≈ 49 s at full size)
/// plus enough slack that every job has finished for any seed — the window's
/// end is a sum of 2 048 exponential gaps per source (σ ≈ 1.1 s) and the
/// longest of 16 384 exponential jobs stays under 6 s at capacity 1.
fn horizon(size: Size) -> SimTime {
    SimTime(size.pick(64_000_000, 5_000_000))
}

/// `build_federation` + `install_sources`, rebuilt from the public
/// constructors so every agent can be wrapped.  Agents are created in the
/// same order as there, so instance ids — and with them the run — match.
fn build_wrapped(
    config: &FederationConfig,
    clock: &Rc<AgentClock>,
) -> (TacomaSystem, FederationLayout) {
    let sites = config.cliques * config.clique_size;
    let cliques_per_shard = config.cliques / config.shards;
    let clique_size = config.clique_size;
    let shard_of = move |site: SiteId| (site.0 / clique_size) / cliques_per_shard;
    let broker_sites: Vec<SiteId> = (0..config.shards)
        .map(|b| SiteId(b * cliques_per_shard * clique_size))
        .collect();
    let topology = Topology::ring_of_cliques(
        config.cliques,
        clique_size,
        LinkSpec::lan(),
        LinkSpec::wan(),
    );
    let (cfg, brokers, factory_clock) = (config.clone(), broker_sites.clone(), Rc::clone(clock));
    let mut sys = TacomaSystem::builder()
        .topology(topology)
        .seed(config.seed)
        .shards(config.sim_shards)
        .with_agents_at(broker_sites.clone(), move |site| {
            let shard = shard_of(site);
            let peers = brokers
                .iter()
                .enumerate()
                .filter(|(b, _)| *b as u32 != shard)
                .map(|(b, s)| (b as u32, *s))
                .collect();
            let broker = FederatedBrokerAgent::new(
                shard,
                peers,
                cfg.policy,
                cfg.report_ttl,
                cfg.report_period,
                cfg.digest_period,
            )
            .shed_threshold(cfg.admission_threshold);
            vec![
                boxed(broker, Some(&factory_clock)),
                boxed(TicketAgent::new(), Some(&factory_clock)),
            ]
        })
        .build();

    let mut providers_by_shard: Vec<Vec<SiteId>> = vec![Vec::new(); config.shards as usize];
    let mut provider_index = 0;
    for site in (0..sites).map(SiteId) {
        if broker_sites.contains(&site) {
            continue;
        }
        let shard = shard_of(site) as usize;
        let capacity = config.capacities[provider_index % config.capacities.len()];
        provider_index += 1;
        sys.register_agent(site, boxed(WorkerAgent::new(capacity), Some(clock)));
        let monitor = MonitorAgent::new(broker_sites[shard], config.report_period, capacity);
        sys.register_agent(site, boxed(monitor, Some(clock)));
        providers_by_shard[shard].push(site);
    }
    let source_sites: Vec<SiteId> = broker_sites.iter().map(|b| SiteId(b.0 + 1)).collect();

    let per_shard = config.jobs / config.shards;
    let remainder = config.jobs % config.shards;
    for (b, broker) in broker_sites.iter().enumerate() {
        let source = FederatedJobSource::new(
            *broker,
            *broker,
            per_shard + u32::from((b as u32) < remainder),
            config.mean_job_ms,
            config.mean_interarrival_ms * f64::from(config.shards),
            format!("j{b}"),
        );
        sys.register_agent(source_sites[b], boxed(source, Some(clock)));
    }
    let layout = FederationLayout {
        sites,
        broker_sites,
        providers_by_shard,
        source_sites,
    };
    (sys, layout)
}

pub struct Federation1k;

pub struct World {
    sys: TacomaSystem,
    layout: FederationLayout,
    config: FederationConfig,
    horizon: SimTime,
}

impl Workload for Federation1k {
    type World = World;

    fn build(seed: u64, size: Size, clock: Option<&Rc<AgentClock>>) -> World {
        let config = config(seed, size);
        let (sys, layout) = match clock {
            Some(clock) => build_wrapped(&config, clock),
            None => {
                let (mut sys, layout) = build_federation(&config);
                install_sources(&mut sys, &config, &layout, &layout.broker_sites);
                (sys, layout)
            }
        };
        World {
            sys,
            layout,
            config,
            horizon: horizon(size),
        }
    }

    fn drive(world: &mut World, h: &mut Harness<'_>) {
        h.advance(&mut world.sys, world.horizon, SLICE);
    }

    fn verify(world: World, events: u64) -> Outcome {
        let World {
            sys,
            layout,
            config,
            ..
        } = world;
        let mut out = Outcome::default();
        out.observe_system(&sys, events);
        let s = out.stats;
        let mut waits_us: Vec<u64> = Vec::new();
        for site in layout.providers() {
            if let Some(done) = sys
                .place(site)
                .cabinets()
                .get(JOBS_CABINET)
                .and_then(|c| c.folder_ref(DONE))
            {
                // A DONE record is `job:wait_us:finish_us`.
                waits_us.extend(
                    done.strings()
                        .iter()
                        .filter_map(|r| r.split(':').nth(1)?.parse::<u64>().ok()),
                );
            }
        }
        out.check(waits_us.len() as u64 == u64::from(config.jobs), || {
            format!("{} DONE records for {} jobs", waits_us.len(), config.jobs)
        });
        out.check(s.meets_failed == 0 && s.send_failures == 0, || {
            format!(
                "{} failed meets, {} send failures",
                s.meets_failed, s.send_failures
            )
        });
        let broker_folder = |folder: &str| -> f64 {
            layout
                .broker_sites
                .iter()
                .filter_map(|b| sys.place(*b).cabinets().get(BROKER_CABINET))
                .filter_map(|c| c.folder_ref(folder))
                .map(|f| f.len() as f64)
                .sum()
        };
        out.counts.extend([
            ("sched.federation.jobs_placed", broker_folder(PLACED)),
            ("sched.federation.jobs_forwarded", broker_folder(FWD)),
            ("sched.federation.digests_sent", broker_folder(DIG_TX)),
            (
                "sched.federation.wait_p95_ms",
                percentile_u64(&mut waits_us, 95.0) as f64 / 1000.0,
            ),
        ]);
        out.attempted = s.meets_requested;
        out.off_nominal = out.terminal_meets() - s.meets_completed;
        out.unplanned = out.off_nominal;

        let mut pairs: Vec<(SiteId, SiteId)> = Vec::new();
        for (shard, providers) in layout.providers_by_shard.iter().enumerate() {
            let broker = layout.broker_sites[shard];
            pairs.push((layout.source_sites[shard], broker));
            for peer in &layout.broker_sites {
                if *peer != broker {
                    pairs.push((broker, *peer));
                }
            }
            for provider in providers {
                pairs.push((*provider, broker));
                pairs.push((broker, *provider));
            }
        }
        out.capture = Capture {
            topology: Some(Topology::ring_of_cliques(
                config.cliques,
                config.clique_size,
                LinkSpec::lan(),
                LinkSpec::wan(),
            )),
            pairs: thin(pairs),
            ..Capture::default()
        };
        out
    }
}
