//! Broker federation (§4, §5): E15 shard count and digest period at 1024
//! sites, E16 broker crash and failover, E19 a regional flash crowd, and the
//! federation runner E15 and E16 share.

use super::scheduling::JobTally;
use crate::runner::RunOpts;
use crate::table::Table;
use tacoma_core::prelude::*;
use tacoma_core::TacomaSystem;
use tacoma_ft::BrokerGuardAgent;
use tacoma_net::{CustodyConfig, FailurePlan, SimTime};
use tacoma_sched::federation::{
    build_federation, install_sources, FederationConfig, FederationLayout, ADOPTED, BROKER_CABINET,
    DIG_TX, FWD, SHED,
};
use tacoma_sched::PlacementPolicy;

/// What one E15 or E16 run measured.
#[derive(Debug)]
struct FederationResult {
    shards: u32,
    sites: u32,
    jobs: JobTally,
    /// Jobs that never completed (submitted − completed).
    orphaned: u64,
    net_messages: u64,
    /// Reports and digests dominate at scale: the broker-layer message
    /// volume the federation shrinks.
    net_bytes: u64,
    forwarded: u64,
    digests_sent: u64,
    /// Shard adoptions performed by failover guards.
    adoptions: u64,
    /// Submissions shed by broker admission control; only the tests set a
    /// threshold.
    #[cfg(test)]
    shed: u64,
    send_failures: u64,
    meets_expired: u64,
}

/// What happens to the brokers during a federation run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Brokers {
    /// None fails (E15).
    Healthy,
    /// Shard 0's broker site is down for 4 s from 500 ms (E16).
    Crash,
    /// The same outage, with each broker watched by a guard at the next
    /// broker's site, which is also where its clients fail over to.
    GuardedCrash,
}

/// Elements of `folder` across every broker's `fed_broker` cabinet.
fn broker_count(sys: &TacomaSystem, layout: &FederationLayout, folder: &str) -> u64 {
    let cabinets = layout.broker_sites.iter();
    let cabinets = cabinets.filter_map(|b| sys.place(*b).cabinets().get(BROKER_CABINET));
    let folders = cabinets.filter_map(|c| c.folder_ref(folder));
    folders.map(|f| f.len() as u64).sum()
}

/// Runs one federation experiment: build, let every monitor's first report
/// land, install the job sources, then drive until every job completes or
/// the horizon passes.
fn run_federation_experiment(config: &FederationConfig, brokers: Brokers) -> FederationResult {
    let (mut sys, layout) = build_federation(config);
    let shards = layout.broker_sites.len();
    let guarded = brokers == Brokers::GuardedCrash;
    let backup = |b: usize| layout.broker_sites[if guarded { (b + 1) % shards } else { b }];
    if guarded {
        // The guard re-adopts the shard after three missed 150 ms checks.
        for (b, providers) in layout.providers_by_shard.iter().enumerate() {
            let period = Duration::from_millis(150);
            let watched = layout.broker_sites[b];
            let guard = BrokerGuardAgent::new(watched, b as u32, providers.clone(), period, 3);
            sys.register_agent(backup(b), Box::new(guard));
        }
    }
    sys.run_for(Duration::from_millis(20));
    sys.reset_net_metrics();
    let backups: Vec<SiteId> = (0..shards).map(backup).collect();
    install_sources(&mut sys, config, &layout, &backups);
    let horizon = if brokers == Brokers::Healthy {
        // The arrival window plus a generous drain allowance: the drive
        // stops as soon as every job completes, so the allowance only costs
        // simulated time on a straggling run.
        let horizon_ms = config.jobs as f64 * config.mean_interarrival_ms + 30_000.0;
        Duration::from_secs_f64(horizon_ms / 1000.0)
    } else {
        let down = SimTime::ZERO + Duration::from_millis(500);
        let outage =
            FailurePlan::none().outage(layout.broker_sites[0], down, Duration::from_secs(4));
        sys.apply_failure_plan(&outage);
        Duration::from_secs(20)
    };
    let providers: Vec<SiteId> = layout.providers().collect();
    let jobs = JobTally::drive(&mut sys, &providers, config.jobs, SimTime::ZERO + horizon);
    FederationResult {
        shards: config.shards,
        sites: layout.sites,
        orphaned: u64::from(config.jobs).saturating_sub(jobs.completed),
        jobs,
        net_messages: sys.net_metrics().total_messages(),
        net_bytes: sys.net_metrics().total_bytes().get(),
        forwarded: broker_count(&sys, &layout, FWD),
        digests_sent: broker_count(&sys, &layout, DIG_TX),
        adoptions: broker_count(&sys, &layout, ADOPTED),
        #[cfg(test)]
        shed: broker_count(&sys, &layout, SHED),
        send_failures: sys.stats().send_failures,
        meets_expired: sys.stats().meets_expired,
    }
}

// ---------------------------------------------------------------------------
// E15 — federated broker scheduling at 1024 sites
// ---------------------------------------------------------------------------

/// The common 1024-site E15 configuration; rows vary shards/digest/policy.
fn e15_config(
    shards: u32,
    digest_ms: u64,
    policy: PlacementPolicy,
    opts: RunOpts,
) -> FederationConfig {
    let quick = opts.quick;
    FederationConfig {
        cliques: 128,
        clique_size: 8,
        shards,
        digest_period: Duration::from_millis(digest_ms),
        report_period: Duration::from_millis(200),
        // The single-broker baseline's reports cross up to half the WAN ring
        // (~2.6 simulated seconds); the TTL must outlive transit + period for
        // *both* variants or the baseline would starve by construction.
        report_ttl: Duration::from_secs(4),
        policy,
        // Long jobs at a brisk rate: placement quality — not raw capacity —
        // decides the waits.  A provider double-booked on stale information
        // queues the second job for whole seconds.
        jobs: if quick { 512 } else { 2048 },
        mean_job_ms: 1_500.0,
        mean_interarrival_ms: if quick { 4.0 } else { 3.0 },
        capacities: vec![1.0, 2.0, 4.0, 8.0],
        admission_threshold: None,
        custody: None,
        seed: 1515,
        ..Default::default()
    }
}

fn e15_row(table: &mut Table, label: &str, digest_ms: &str, r: &FederationResult) {
    table.row(vec![
        r.sites.to_string(),
        r.shards.to_string(),
        label.to_string(),
        digest_ms.to_string(),
        r.jobs.completed.to_string(),
        format!("{:.1}", r.jobs.p95_wait_ms()),
        format!("{:.1}", r.jobs.mean_wait_ms()),
        format!("{:.1}", r.jobs.makespan_ms()),
        r.net_messages.to_string(),
        r.net_bytes.to_string(),
        r.forwarded.to_string(),
        r.digests_sent.to_string(),
    ]);
}

/// E15: the 1024-site federated scheduling sweep — shard count and digest
/// period against the seed's single-broker design.  Shard-local monitors
/// keep reports LAN-fresh and off the WAN ring; the single broker pays ring
/// transit on every report *and* places on information that is seconds old.
pub fn e15_federation(opts: RunOpts) -> Table {
    let quick = opts.quick;
    let mut table = Table::new(
        "E15 — federated broker scheduling at 1024 sites",
        "§4: \"brokers are expected to communicate among themselves … so that requests can be distributed … based on load and capacity\"",
        &[
            "sites",
            "shards",
            "policy",
            "digest ms",
            "completed",
            "p95 wait ms",
            "mean wait ms",
            "makespan ms",
            "net msgs",
            "net bytes",
            "forwarded",
            "digests",
        ],
    );
    let run = |config: FederationConfig| run_federation_experiment(&config, Brokers::Healthy);
    let single = run(e15_config(1, 250, PlacementPolicy::LoadBased, opts));
    e15_row(&mut table, "single load-based (seed)", "—", &single);
    let shard_sweep: &[u32] = if quick { &[8] } else { &[4, 8, 32] };
    for &shards in shard_sweep {
        let fed = run(e15_config(shards, 250, PlacementPolicy::PowerOfTwo, opts));
        e15_row(&mut table, "federated p2c + decay", "250", &fed);
    }
    let digest_sweep: &[u64] = if quick { &[1_000] } else { &[100, 1_000] };
    for &digest_ms in digest_sweep {
        let fed = run(e15_config(8, digest_ms, PlacementPolicy::PowerOfTwo, opts));
        e15_row(
            &mut table,
            "federated p2c + decay",
            &digest_ms.to_string(),
            &fed,
        );
    }
    table
}

// ---------------------------------------------------------------------------
// E16 — broker crash and failover under job churn
// ---------------------------------------------------------------------------

/// One E16 run: a 64-site federation whose shard-0 broker site suffers a
/// 4-second outage starting at 500 ms, while job sources keep churning.
/// `shards == 1` reproduces the seed's single-point-of-failure; `guarded`
/// installs a ring of `BrokerGuardAgent`s so the orphaned shard is adopted.
fn e16_run(shards: u32, custody: bool, guarded: bool, opts: RunOpts) -> FederationResult {
    let quick = opts.quick;
    let config = FederationConfig {
        cliques: 16,
        clique_size: 4,
        shards,
        digest_period: Duration::from_millis(250),
        report_period: Duration::from_millis(150),
        report_ttl: Duration::from_millis(1_200),
        policy: if shards == 1 {
            PlacementPolicy::LoadBased
        } else {
            PlacementPolicy::PowerOfTwo
        },
        jobs: if quick { 96 } else { 240 },
        mean_job_ms: 60.0,
        mean_interarrival_ms: 30.0,
        capacities: vec![1.0, 2.0, 4.0, 8.0],
        admission_threshold: None,
        custody: custody.then(|| CustodyConfig {
            capacity: 256,
            ttl: Duration::from_secs(30),
        }),
        seed: 1616,
        ..Default::default()
    };
    let brokers = if guarded {
        Brokers::GuardedCrash
    } else {
        Brokers::Crash
    };
    run_federation_experiment(&config, brokers)
}

/// E16: broker crash and failover under job churn.  Fail-fast single broker
/// orphans every job submitted during its outage; custody alone recovers
/// them but only after the broker returns; federation with guards re-adopts
/// the shard and keeps placing throughout — zero orphaned jobs.
pub fn e16_failover(opts: RunOpts) -> Table {
    let mut table = Table::new(
        "E16 — broker crash and failover under job churn",
        "§5: agents (and their brokers) vanish in failures; a guard launches a replacement and the shard is re-adopted, not orphaned",
        &[
            "variant",
            "shards",
            "jobs",
            "completed",
            "orphaned",
            "adoptions",
            "forwarded",
            "send failures",
            "expired",
            "makespan ms",
            "zero orphans",
        ],
    );
    let variants: &[(&str, u32, bool, bool)] = &[
        ("single, fail-fast (seed)", 1, false, false),
        ("single, custody", 1, true, false),
        ("federated + guards + custody", 4, true, true),
    ];
    for &(label, shards, custody, guarded) in variants {
        let r = e16_run(shards, custody, guarded, opts);
        table.row(vec![
            label.to_string(),
            shards.to_string(),
            (r.jobs.completed + r.orphaned).to_string(),
            r.jobs.completed.to_string(),
            r.orphaned.to_string(),
            r.adoptions.to_string(),
            r.forwarded.to_string(),
            r.send_failures.to_string(),
            r.meets_expired.to_string(),
            format!("{:.1}", r.jobs.makespan_ms()),
            (r.orphaned == 0).to_string(),
        ]);
    }
    table
}

// ---------------------------------------------------------------------------
// E19 — regional flash crowd against the federation
// ---------------------------------------------------------------------------

/// Relays open-arrival submissions to a shard's broker.  Scheduled meets
/// carry a `TIMER` folder, which the broker would mistake for its own digest
/// tick — the relay strips it and ships the submit over the network, which
/// also charges the client->broker bytes honestly.
struct CrowdSourceAgent {
    broker: SiteId,
}
impl Agent for CrowdSourceAgent {
    fn name(&self) -> AgentName {
        AgentName::new("crowd_source")
    }
    fn meet(&mut self, ctx: &mut MeetCtx<'_>, mut bc: Briefcase) -> MeetOutcome {
        bc.take(wellknown::TIMER);
        ctx.remote_meet(
            self.broker,
            AgentName::new(wellknown::BROKER),
            bc,
            TransportKind::Tcp,
        );
        Ok(Briefcase::new())
    }
}

/// One E19 measurement.
struct E19Outcome {
    submitted: u64,
    completed: u64,
    shed: u64,
    forwarded: u64,
    crowd_p95_ms: f64,
    calm_p95_ms: f64,
}

fn e19_run(crowd: bool, admission_threshold: Option<f64>) -> E19Outcome {
    use tacoma_apps::SubscriberModel;
    use tacoma_net::{Duration as NetDuration, FlashCrowd, OpenWorkload, RateCurve, SizeDist};
    use tacoma_sched::agents::{JOB, JOB_SIZE, REQUEST};

    let config = FederationConfig {
        cliques: 8,
        clique_size: 4,
        shards: 4,
        digest_period: Duration::from_millis(200),
        report_period: Duration::from_millis(100),
        report_ttl: Duration::from_secs(2),
        policy: PlacementPolicy::PowerOfTwo,
        jobs: 0, // all load comes from the open-arrival stream below
        mean_job_ms: 0.0,
        mean_interarrival_ms: 0.0,
        capacities: vec![1.0, 2.0, 4.0, 8.0],
        admission_threshold,
        custody: None,
        seed: 1919,
        ..Default::default()
    };
    let (mut sys, layout) = build_federation(&config);
    let sites_per_shard = (config.cliques / config.shards) * config.clique_size;
    // Let every monitor's first report land before arrivals start.
    sys.run_for(Duration::from_millis(200));

    // A million StormCast warning subscribers as a rate process, regions
    // aligned with the federation's shards.  The flash crowd is region 1's
    // subscribers hitting the service when the storm warning goes out.
    let subscribers = SubscriberModel::new(1_000_000, layout.sites, sites_per_shard);
    let crowd_region = 1u32;
    let horizon = NetDuration::from_secs(4);
    let workload = OpenWorkload {
        sites: layout.sites,
        horizon,
        curve: RateCurve::flat(2.0),
        crowds: if crowd {
            vec![FlashCrowd {
                first_site: SiteId(crowd_region * sites_per_shard),
                sites: sites_per_shard,
                start: SimTime(1_000_000),
                duration: NetDuration::from_secs(2),
                multiplier: 25.0,
            }]
        } else {
            Vec::new()
        },
        sizes: SizeDist {
            alpha: 1.3,
            min_bytes: 256,
            max_bytes: 16_384,
        },
        users: subscribers.subscribers(),
        seed: 1919,
    };
    for (region, source) in layout.source_sites.iter().enumerate() {
        sys.register_agent(
            *source,
            Box::new(CrowdSourceAgent {
                broker: layout.broker_sites[region],
            }),
        );
    }
    let arrivals = workload.generate();
    let submitted = arrivals.len() as u64;
    let start = sys.now();
    for (i, arrival) in arrivals.iter().enumerate() {
        let region = subscribers.region_of(arrival.site);
        let mut job = Briefcase::new();
        job.put_string(REQUEST, "submit");
        job.put_string(JOB, format!("a{i}"));
        // Heavy-tailed work: the job's size in ms tracks its payload bytes.
        job.put_string(JOB_SIZE, (arrival.bytes / 8).max(1).to_string());
        sys.schedule_meet(
            layout.source_sites[region as usize],
            AgentName::new("crowd_source"),
            job,
            Duration::from_micros(arrival.at.0),
        );
    }
    // Deadline-driven: monitors re-arm forever, so run to a fixed horizon
    // (arrival window plus drain allowance) instead of quiescence.
    sys.run_until(start + horizon + NetDuration::from_secs(8));

    let regions: Vec<JobTally> = layout
        .providers_by_shard
        .iter()
        .map(|providers| JobTally::read(&sys, providers))
        .collect();
    let calm_p95_ms = (0..config.shards)
        .filter(|r| *r != crowd_region)
        .map(|r| regions[r as usize].p95_wait_ms())
        .fold(0.0f64, f64::max);
    E19Outcome {
        submitted,
        completed: regions.iter().map(|r| r.completed).sum(),
        shed: broker_count(&sys, &layout, SHED),
        forwarded: broker_count(&sys, &layout, FWD),
        crowd_p95_ms: regions[crowd_region as usize].p95_wait_ms(),
        calm_p95_ms,
    }
}

/// E19: a regional flash crowd against the federation.
///
/// Region 1's StormCast subscribers (a rate process over a million people)
/// swamp their shard's broker with a 25x submission spike for two seconds.
/// Without admission control the crowd shard's queues — and its p95 wait —
/// diverge.  With a digest-driven shed threshold, the saturated broker
/// forwards overflow only to peers whose digests still show headroom and
/// sheds the rest, so the crowd shard's p95 stays bounded and the calm
/// regions stay within tolerance of the no-crowd baseline.
pub fn e19_flash_crowd(_opts: RunOpts) -> Table {
    let mut table = Table::new(
        "E19 — regional flash crowd vs federated admission control",
        "digest-driven shedding confines a regional flash crowd: the crowd shard sheds instead of collapsing and non-crowd regions stay within tolerance",
        &[
            "scenario",
            "submitted",
            "completed",
            "shed",
            "forwarded",
            "crowd p95 ms",
            "calm p95 ms",
        ],
    );
    let threshold = Some(1.0);
    let rows = [
        ("no crowd, shedding on", false, threshold),
        ("flash crowd, shedding off", true, None),
        ("flash crowd, shedding on", true, threshold),
    ];
    let mut outcomes = Vec::new();
    for (label, crowd, admission) in rows {
        let o = e19_run(crowd, admission);
        table.row(vec![
            label.to_string(),
            o.submitted.to_string(),
            o.completed.to_string(),
            o.shed.to_string(),
            o.forwarded.to_string(),
            format!("{:.1}", o.crowd_p95_ms),
            format!("{:.1}", o.calm_p95_ms),
        ]);
        outcomes.push(o);
    }
    let (baseline, open, gated) = (&outcomes[0], &outcomes[1], &outcomes[2]);
    assert_eq!(baseline.shed, 0, "no crowd, no shedding");
    assert_eq!(open.shed, 0, "shedding disabled must shed nothing");
    assert!(
        gated.shed > 0,
        "the crowd must engage the broker shed path: {}",
        gated.shed
    );
    assert!(
        gated.crowd_p95_ms < open.crowd_p95_ms,
        "shedding must bound the crowd shard's p95 ({:.1} vs {:.1})",
        gated.crowd_p95_ms,
        open.crowd_p95_ms
    );
    assert!(
        gated.calm_p95_ms <= (baseline.calm_p95_ms * 3.0).max(250.0),
        "calm regions must stay within tolerance of baseline ({:.1} vs {:.1})",
        gated.calm_p95_ms,
        baseline.calm_p95_ms
    );
    assert!(
        gated.calm_p95_ms < open.crowd_p95_ms / 3.0,
        "bounded spill-over to calm regions ({:.1}) must stay far from the \
         unshed crowd collapse ({:.1})",
        gated.calm_p95_ms,
        open.crowd_p95_ms
    );
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(shards: u32) -> FederationConfig {
        FederationConfig {
            cliques: 8,
            clique_size: 4,
            shards,
            jobs: 48,
            seed: 7,
            ..Default::default()
        }
    }

    #[test]
    fn all_jobs_complete_federated_and_single() {
        for shards in [1u32, 4] {
            let result = run_federation_experiment(&small(shards), Brokers::Healthy);
            assert_eq!(result.jobs.completed, 48, "shards={shards} lost jobs");
            assert_eq!(result.orphaned, 0);
            assert!(result.jobs.makespan_ms() > 0.0);
            assert!(result.net_bytes > 0);
        }
    }

    #[test]
    fn federation_cuts_broker_message_volume() {
        // Same fleet, same jobs: monitors reporting to a near-by shard
        // broker instead of across the ring must move fewer bytes, even
        // after paying for the digest gossip.
        let single = run_federation_experiment(&small(1), Brokers::Healthy);
        let federated = run_federation_experiment(&small(4), Brokers::Healthy);
        assert!(federated.digests_sent > 0, "brokers must gossip");
        assert!(
            federated.net_bytes < single.net_bytes,
            "federated {} bytes should undercut single-broker {}",
            federated.net_bytes,
            single.net_bytes
        );
    }

    #[test]
    fn results_are_deterministic_per_seed() {
        let a = run_federation_experiment(&small(4), Brokers::Healthy);
        let b = run_federation_experiment(&small(4), Brokers::Healthy);
        assert_eq!(a.jobs.per_provider, b.jobs.per_provider);
        assert_eq!(a.net_bytes, b.net_bytes);
        assert_eq!(a.jobs.p95_wait_ms(), b.jobs.p95_wait_ms());
        assert_eq!(a.digests_sent, b.digests_sent);
    }

    #[test]
    fn saturated_federation_sheds_at_admission() {
        // An aggressive threshold with a heavy burst: every shard's digest
        // reports saturation, so late submits are shed — recorded in the
        // SHED folder instead of queueing without bound.
        let mut config = small(2);
        config.jobs = 96;
        config.mean_job_ms = 400.0;
        config.mean_interarrival_ms = 2.0;
        config.admission_threshold = Some(0.5);
        let result = run_federation_experiment(&config, Brokers::Healthy);
        assert!(result.shed > 0, "overload must shed: {result:?}");
        assert!(
            result.jobs.completed >= 1,
            "admitted jobs still complete: {result:?}"
        );
        assert!(
            result.shed <= result.orphaned,
            "every shed job must be accounted among the uncompleted: {result:?}"
        );

        // The identical run without admission control sheds nothing.
        config.admission_threshold = None;
        let open = run_federation_experiment(&config, Brokers::Healthy);
        assert_eq!(open.shed, 0);
    }

    #[test]
    fn threshold_high_enough_changes_nothing() {
        let mut config = small(2);
        config.admission_threshold = Some(f64::INFINITY);
        let gated = run_federation_experiment(&config, Brokers::Healthy);
        config.admission_threshold = None;
        let plain = run_federation_experiment(&config, Brokers::Healthy);
        assert_eq!(gated.jobs.per_provider, plain.jobs.per_provider);
        assert_eq!(gated.shed, 0);
        assert_eq!(gated.net_bytes, plain.net_bytes);
    }

    #[test]
    fn e15_federation_beats_the_single_broker_at_1024_sites() {
        let table = e15_federation(RunOpts::new(true));
        assert_eq!(table.rows.len(), 3);
        let completed = |r: usize| table.rows[r][4].parse::<u64>().unwrap();
        let p95 = |r: usize| table.rows[r][5].parse::<f64>().unwrap();
        let bytes = |r: usize| table.rows[r][9].parse::<u64>().unwrap();
        for r in 0..3 {
            assert_eq!(completed(r), 512, "row {r} lost jobs");
        }
        // The acceptance bar: federated placement beats the single broker on
        // p95 job wait AND on broker message volume, at 1024 sites.
        assert!(
            p95(1) < p95(0) / 2.0,
            "federated p95 {} must clearly beat single-broker {}",
            p95(1),
            p95(0)
        );
        assert!(
            bytes(1) < bytes(0),
            "federated bytes {} must undercut single-broker {}",
            bytes(1),
            bytes(0)
        );
        // Digest-period sweep: a slower gossip period only changes control
        // traffic while shards are healthy, never placement.
        assert_eq!(p95(2), p95(1));
        assert!(bytes(2) < bytes(1));
    }

    #[test]
    fn e16_zero_orphans_only_with_guarded_federation() {
        let table = e16_failover(RunOpts::new(true));
        assert_eq!(table.rows.len(), 3);
        let orphaned = |r: usize| table.rows[r][4].parse::<u64>().unwrap();
        assert!(orphaned(0) > 0, "fail-fast must lose the outage's jobs");
        assert!(
            orphaned(1) > 0,
            "custody delivers the bytes, but the recovered broker's provider \
             database died with it — custody alone is not failover"
        );
        assert_eq!(orphaned(2), 0, "guards + custody must orphan nothing");
        assert_eq!(table.rows[2][10], "true");
        let adoptions: u64 = table.rows[2][5].parse().unwrap();
        assert!(adoptions >= 1, "the guard must have adopted the shard");
        assert_eq!(table.rows[2][7], "0", "failover leaves no failed sends");
    }
}
