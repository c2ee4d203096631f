//! The scheduling experiment driver (E7).
//!
//! Builds a complete system — one front site hosting the broker and ticket
//! agents, `providers` provider sites each hosting a worker and a monitor —
//! submits a stream of jobs with exponential inter-arrival times, and reports
//! makespan, queueing waits and load imbalance for a given placement policy.

use crate::agents::{
    BrokerAgent, MonitorAgent, TicketAgent, WorkerAgent, DONE, JOB, JOBS_CABINET, JOB_SIZE,
    REQUEST, STALE_REPORT_PERIODS,
};
use crate::policy::PlacementPolicy;
use tacoma_core::prelude::*;
use tacoma_core::TacomaSystem;
use tacoma_net::{LinkSpec, Topology};
use tacoma_util::Summary;

/// Parameters of one scheduling run.
#[derive(Debug, Clone)]
pub struct SchedulingConfig {
    /// Number of provider sites.
    pub providers: u32,
    /// Relative capacities of the providers (cycled if shorter than `providers`).
    pub capacities: Vec<f64>,
    /// Number of jobs to submit.
    pub jobs: u32,
    /// Mean job size in milliseconds of work at capacity 1.0.
    pub mean_job_ms: f64,
    /// Mean inter-arrival time between job submissions, in milliseconds.
    pub mean_interarrival_ms: f64,
    /// The broker's placement policy.
    pub policy: PlacementPolicy,
    /// Monitor reporting period.
    pub report_period: Duration,
    /// Random seed.
    pub seed: u64,
}

impl Default for SchedulingConfig {
    fn default() -> Self {
        SchedulingConfig {
            providers: 4,
            capacities: vec![1.0, 2.0, 4.0, 1.0],
            jobs: 100,
            mean_job_ms: 80.0,
            mean_interarrival_ms: 30.0,
            policy: PlacementPolicy::LoadBased,
            report_period: Duration::from_millis(50),
            seed: 42,
        }
    }
}

/// What one scheduling run measured.
#[derive(Debug, Clone)]
pub struct SchedulingResult {
    /// The policy that produced this result.
    pub policy: PlacementPolicy,
    /// Jobs that completed.
    pub completed: u64,
    /// Time from first submission to last completion, in milliseconds.
    pub makespan_ms: f64,
    /// Mean time jobs spent queued (excluding service), in milliseconds.
    pub mean_wait_ms: f64,
    /// 95th-percentile queueing wait, in milliseconds.
    pub p95_wait_ms: f64,
    /// Jobs completed per provider site.
    pub per_provider: Vec<u64>,
    /// Load imbalance: max provider job count divided by the mean.
    pub imbalance: f64,
    /// Total bytes the scheduling machinery moved over the network.
    pub network_bytes: u64,
}

/// The agent that injects jobs into the broker with random inter-arrival times.
struct JobSource {
    remaining: u32,
    mean_job_ms: f64,
    mean_interarrival_ms: f64,
    next_id: u32,
}

impl Agent for JobSource {
    fn name(&self) -> AgentName {
        AgentName::new("job_source")
    }

    fn on_install(&mut self, ctx: &mut MeetCtx<'_>) {
        ctx.schedule(
            AgentName::new("job_source"),
            0,
            Duration::from_millis(1),
            Briefcase::new(),
        );
    }

    fn meet(&mut self, ctx: &mut MeetCtx<'_>, _bc: Briefcase) -> MeetOutcome {
        if self.remaining == 0 {
            return Ok(Briefcase::new());
        }
        self.remaining -= 1;
        let size_ms = ctx.rng().exponential(self.mean_job_ms).max(1.0) as u64;
        let mut job = Briefcase::new();
        job.put_string(REQUEST, "submit");
        job.put_string(JOB, format!("job{}", self.next_id));
        job.put_string(JOB_SIZE, size_ms.to_string());
        self.next_id += 1;
        ctx.local_meet_async(AgentName::new(wellknown::BROKER), job);
        if self.remaining > 0 {
            let gap = ctx.rng().exponential(self.mean_interarrival_ms).max(0.1);
            ctx.schedule(
                AgentName::new("job_source"),
                0,
                Duration::from_secs_f64(gap / 1000.0),
                Briefcase::new(),
            );
        }
        Ok(Briefcase::new())
    }
}

/// Runs one scheduling experiment and returns its measurements.
pub fn run_scheduling_experiment(config: &SchedulingConfig) -> SchedulingResult {
    let sites = config.providers + 1;
    let mut sys = TacomaSystem::builder()
        .topology(Topology::star(sites, LinkSpec::default()))
        .seed(config.seed)
        .build();

    // Site 0: broker, ticket and the job source.  The broker trusts reports
    // for a few monitor periods and no longer (dead providers age out).
    sys.register_agent(
        SiteId(0),
        Box::new(BrokerAgent::new(config.policy).with_staleness(
            config.report_period.times(STALE_REPORT_PERIODS),
            config.report_period,
        )),
    );
    sys.register_agent(SiteId(0), Box::new(TicketAgent::new()));

    // Provider sites: worker + monitor.
    let mut capacities = Vec::new();
    for p in 0..config.providers {
        let capacity = config.capacities[p as usize % config.capacities.len().max(1)];
        capacities.push(capacity);
        let site = SiteId(p + 1);
        sys.register_agent(site, Box::new(WorkerAgent::new(capacity)));
        sys.register_agent(
            site,
            Box::new(MonitorAgent::new(SiteId(0), config.report_period, capacity)),
        );
    }
    // Run the monitors' install hooks' initial reports before jobs arrive.
    sys.run_for(Duration::from_millis(20));
    sys.reset_net_metrics();

    sys.register_agent(
        SiteId(0),
        Box::new(JobSource {
            remaining: config.jobs,
            mean_job_ms: config.mean_job_ms,
            mean_interarrival_ms: config.mean_interarrival_ms,
            next_id: 0,
        }),
    );
    // Kick the source (register_agent does not run install hooks; inject a meet).
    sys.inject_meet(SiteId(0), AgentName::new("job_source"), Briefcase::new());

    // Run long enough for every job to finish: generously, the total work on
    // the slowest provider plus arrival spread.
    let horizon_ms = (config.jobs as f64 * config.mean_interarrival_ms)
        + (config.jobs as f64 * config.mean_job_ms * 4.0)
        + 5_000.0;
    let mut completed;
    let mut last_finish_us;
    let mut waits;
    let mut per_provider = vec![0u64; config.providers as usize];
    let deadline = SimTime::ZERO + Duration::from_secs_f64(horizon_ms / 1000.0);

    // Step in slices so we can stop early once every job is done.
    loop {
        sys.run_for(Duration::from_millis(200));
        completed = 0;
        last_finish_us = 0;
        waits = Summary::new();
        for slot in per_provider.iter_mut() {
            *slot = 0;
        }
        for p in 0..config.providers {
            let site = SiteId(p + 1);
            if let Some(done) = sys
                .place(site)
                .cabinets()
                .get(JOBS_CABINET)
                .and_then(|c| c.folder_ref(DONE).cloned())
            {
                for record in done.strings() {
                    let mut parts = record.split(':');
                    let _id = parts.next();
                    let wait: u64 = parts.next().and_then(|s| s.parse().ok()).unwrap_or(0);
                    let finish: u64 = parts.next().and_then(|s| s.parse().ok()).unwrap_or(0);
                    completed += 1;
                    per_provider[p as usize] += 1;
                    waits.add(wait as f64 / 1000.0);
                    last_finish_us = last_finish_us.max(finish);
                }
            }
        }
        if completed >= config.jobs as u64 || sys.now() >= deadline {
            break;
        }
    }

    let mean_jobs = completed as f64 / config.providers.max(1) as f64;
    let max_jobs = per_provider.iter().copied().max().unwrap_or(0) as f64;
    SchedulingResult {
        policy: config.policy,
        completed,
        makespan_ms: last_finish_us as f64 / 1000.0,
        mean_wait_ms: waits.mean(),
        p95_wait_ms: waits.percentile(95.0),
        per_provider,
        imbalance: if mean_jobs > 0.0 {
            max_jobs / mean_jobs
        } else {
            0.0
        },
        network_bytes: sys.net_metrics().total_bytes().get(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(policy: PlacementPolicy) -> SchedulingConfig {
        SchedulingConfig {
            providers: 3,
            capacities: vec![1.0, 2.0, 4.0],
            jobs: 30,
            mean_job_ms: 60.0,
            mean_interarrival_ms: 20.0,
            policy,
            report_period: Duration::from_millis(40),
            seed: 7,
        }
    }

    #[test]
    fn all_jobs_complete_under_every_policy() {
        for policy in PlacementPolicy::ALL {
            let result = run_scheduling_experiment(&small(policy));
            assert_eq!(result.completed, 30, "policy {policy:?} lost jobs");
            assert!(result.makespan_ms > 0.0);
            assert!(result.network_bytes > 0);
            assert_eq!(result.per_provider.iter().sum::<u64>(), 30);
        }
    }

    #[test]
    fn load_based_beats_round_robin_on_heterogeneous_providers() {
        let load = run_scheduling_experiment(&small(PlacementPolicy::LoadBased));
        let rr = run_scheduling_experiment(&small(PlacementPolicy::RoundRobin));
        // The paper's claim: distributing by load and capacity beats ignoring
        // them.  With a 4× capacity spread the mean wait should be clearly lower.
        assert!(
            load.mean_wait_ms <= rr.mean_wait_ms,
            "load-based mean wait {} should not exceed round-robin {}",
            load.mean_wait_ms,
            rr.mean_wait_ms
        );
    }

    #[test]
    fn results_are_deterministic_for_a_seed() {
        let a = run_scheduling_experiment(&small(PlacementPolicy::Random));
        let b = run_scheduling_experiment(&small(PlacementPolicy::Random));
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.per_provider, b.per_provider);
        assert_eq!(a.makespan_ms, b.makespan_ms);
    }
}
