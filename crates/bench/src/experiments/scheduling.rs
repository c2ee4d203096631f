//! Scheduling by load and capacity (§4, §6): E7 placement policies, E8
//! protected agents, ablation A4's report period, and the scheduling
//! runner E7 and A4 share.  [`JobTally`] is how every scheduling run, the
//! federation's included, reads back the jobs its workers finished.

use crate::runner::RunOpts;
use crate::table::Table;
use tacoma_core::prelude::*;
use tacoma_core::TacomaSystem;
use tacoma_net::{LinkSpec, Topology};
use tacoma_sched::agents::{jobs_done, JOB, JOB_SIZE, REQUEST, STALE_REPORT_PERIODS};
use tacoma_sched::protected::{secret_agent_name, AdmissionPolicy, REQUESTER};
use tacoma_sched::{
    FederatedBrokerAgent, MonitorAgent, PlacementPolicy, ProtectedBrokerAgent, TicketAgent,
    WorkerAgent,
};
use tacoma_util::{DetRng, Summary};

/// The jobs a run's provider sites finished, read once from their workers'
/// `DONE` records: site by site in the order given, oldest record first.
#[derive(Debug, Clone)]
pub struct JobTally {
    /// Jobs that completed.
    pub completed: u64,
    /// Jobs completed per provider site.
    pub per_provider: Vec<u64>,
    /// Each job's queueing wait (service excluded), in milliseconds.
    pub waits_ms: Summary,
    /// Simulated time of the last completion, in microseconds.
    pub last_finish_us: u64,
}

impl JobTally {
    /// Reads what the workers at `providers` have finished.
    pub fn read(sys: &TacomaSystem, providers: &[SiteId]) -> JobTally {
        let mut per_provider = Vec::with_capacity(providers.len());
        let mut waits_ms = Summary::new();
        let mut last_finish_us = 0;
        for &site in providers {
            let done = jobs_done(sys, site);
            per_provider.push(done.len() as u64);
            for (wait_us, finish_us) in done {
                waits_ms.add(wait_us as f64 / 1000.0);
                last_finish_us = last_finish_us.max(finish_us);
            }
        }
        JobTally {
            completed: per_provider.iter().sum(),
            per_provider,
            waits_ms,
            last_finish_us,
        }
    }

    /// Steps `sys` in 200 ms slices until the workers at `providers` have
    /// finished `jobs` jobs or `deadline` has passed, then reads them.  The
    /// event queue never drains on its own — monitors re-arm forever — so a
    /// scheduling run is deadline-driven; each poll counts records and
    /// parses none.
    pub fn drive(
        sys: &mut TacomaSystem,
        providers: &[SiteId],
        jobs: u32,
        deadline: SimTime,
    ) -> JobTally {
        loop {
            sys.run_for(Duration::from_millis(200));
            let done: usize = providers.iter().map(|&s| jobs_done(sys, s).len()).sum();
            if done >= jobs as usize || sys.now() >= deadline {
                return JobTally::read(sys, providers);
            }
        }
    }

    /// Time from the start to the last completion, in milliseconds.
    pub fn makespan_ms(&self) -> f64 {
        self.last_finish_us as f64 / 1000.0
    }

    /// Mean queueing wait, in milliseconds.
    pub fn mean_wait_ms(&self) -> f64 {
        self.waits_ms.mean()
    }

    /// 95th-percentile queueing wait, in milliseconds.
    pub fn p95_wait_ms(&self) -> f64 {
        self.waits_ms.percentile(95.0)
    }

    /// Load imbalance: the busiest provider's job count over the mean.
    pub fn imbalance(&self) -> f64 {
        let mean = self.completed as f64 / self.per_provider.len().max(1) as f64;
        let max = self.per_provider.iter().copied().max().unwrap_or(0) as f64;
        if mean > 0.0 {
            max / mean
        } else {
            0.0
        }
    }
}

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
    /// The jobs the providers finished.
    pub jobs: JobTally,
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
                Duration::from_secs_f64(gap / 1000.0),
                Briefcase::new(),
            );
        }
        Ok(Briefcase::new())
    }
}

/// Runs one scheduling experiment: one front site hosting the broker and
/// ticket agents, `providers` provider sites each hosting a worker and a
/// monitor, and a stream of jobs with exponential inter-arrival times.
pub fn run_scheduling_experiment(config: &SchedulingConfig) -> SchedulingResult {
    let sites = config.providers + 1;
    let mut sys = TacomaSystem::builder()
        .topology(Topology::star(sites, LinkSpec::default()))
        .seed(config.seed)
        .build();

    // Site 0: a single broker (a federation of one shard), the ticket agent
    // and the job source.  The broker trusts reports for a few monitor
    // periods and no longer (dead providers age out).
    let period = config.report_period;
    let ttl = period.times(STALE_REPORT_PERIODS);
    let broker = FederatedBrokerAgent::new(0, Vec::new(), config.policy, ttl, period, period);
    sys.register_agent(SiteId(0), Box::new(broker));
    sys.register_agent(SiteId(0), Box::new(TicketAgent::new()));

    // Provider sites: worker + monitor.
    let providers: Vec<SiteId> = (1..sites).map(SiteId).collect();
    for (p, &site) in providers.iter().enumerate() {
        let capacity = config.capacities[p % config.capacities.len().max(1)];
        sys.register_agent(site, Box::new(WorkerAgent::new(capacity)));
        sys.register_agent(
            site,
            Box::new(MonitorAgent::new(SiteId(0), period, capacity)),
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
    // The install hook armed the source's first tick; this meet starts a
    // second chain of arrivals now.  Both chains draw on one `remaining`.
    sys.inject_meet(SiteId(0), AgentName::new("job_source"), Briefcase::new());

    // Run long enough for every job to finish: generously, the total work on
    // the slowest provider plus arrival spread.
    let horizon_ms = (config.jobs as f64 * config.mean_interarrival_ms)
        + (config.jobs as f64 * config.mean_job_ms * 4.0)
        + 5_000.0;
    let deadline = SimTime::ZERO + Duration::from_secs_f64(horizon_ms / 1000.0);
    SchedulingResult {
        jobs: JobTally::drive(&mut sys, &providers, config.jobs, deadline),
        network_bytes: sys.net_metrics().total_bytes().get(),
    }
}

// ---------------------------------------------------------------------------
// E7 — broker scheduling policies
// ---------------------------------------------------------------------------

/// E7: makespan, waits and imbalance per placement policy.
pub fn e7_scheduling(opts: RunOpts) -> Table {
    let quick = opts.quick;
    let mut table = Table::new(
        "E7 — brokers schedule by load and capacity",
        "§4/§6: requests are \"distributed amongst service providers based on load and capacity\"",
        &[
            "policy",
            "jobs",
            "providers",
            "makespan ms",
            "mean wait ms",
            "p95 wait ms",
            "imbalance",
        ],
    );
    let (jobs, providers) = if quick { (40u32, 4u32) } else { (150u32, 6u32) };
    for policy in PlacementPolicy::ALL {
        let result = run_scheduling_experiment(&SchedulingConfig {
            providers,
            capacities: vec![1.0, 1.0, 2.0, 4.0, 4.0, 8.0],
            jobs,
            mean_job_ms: 80.0,
            mean_interarrival_ms: 25.0,
            policy,
            seed: 77,
            ..Default::default()
        });
        table.row(vec![
            policy.label().to_string(),
            result.jobs.completed.to_string(),
            providers.to_string(),
            format!("{:.1}", result.jobs.makespan_ms()),
            format!("{:.1}", result.jobs.mean_wait_ms()),
            format!("{:.1}", result.jobs.p95_wait_ms()),
            format!("{:.2}", result.jobs.imbalance()),
        ]);
    }
    table
}

// ---------------------------------------------------------------------------
// E8 — protected agents
// ---------------------------------------------------------------------------

/// E8: isolation of protected agents and the broker relay overhead.
pub fn e8_protected(attempts: u32) -> Table {
    let mut table = Table::new(
        "E8 — protected agents are reachable only through their broker",
        "§4: \"the broker … provides the only way to meet with the protected agent\"",
        &[
            "requests",
            "via broker (allowed)",
            "via broker (denied)",
            "direct guesses succeeded",
            "requests queued in folder",
        ],
    );
    struct Oracle {
        name: AgentName,
    }
    impl Agent for Oracle {
        fn name(&self) -> AgentName {
            self.name.clone()
        }
        fn meet(&mut self, _ctx: &mut MeetCtx<'_>, mut bc: Briefcase) -> MeetOutcome {
            bc.put_string("ANSWER", "ok");
            Ok(bc)
        }
    }
    let mut sys = TacomaSystem::new(Topology::full_mesh(1, LinkSpec::default()), 8);
    let mut rng = DetRng::new(88);
    let secret = secret_agent_name(&mut rng, "svc");
    sys.register_agent(
        SiteId(0),
        Box::new(Oracle {
            name: secret.clone(),
        }),
    );
    sys.register_agent(
        SiteId(0),
        Box::new(ProtectedBrokerAgent::new(
            "service_broker",
            secret,
            AdmissionPolicy::AllowList(vec!["alice".into(), "bob".into()]),
        )),
    );
    let mut allowed = 0u32;
    let mut denied = 0u32;
    let mut guessed = 0u32;
    let requesters = ["alice", "bob", "mallory", "trent"];
    for i in 0..attempts {
        let who = requesters[(i as usize) % requesters.len()];
        let mut bc = Briefcase::new();
        bc.put_string(REQUESTER, who);
        match sys.try_direct_meet(SiteId(0), &AgentName::new("service_broker"), bc) {
            Ok(_) => allowed += 1,
            Err(_) => denied += 1,
        }
        // Meanwhile an adversary guesses plausible names directly.
        let guess = format!("protected-svc-{i}");
        if sys
            .try_direct_meet(SiteId(0), &AgentName::new(guess), Briefcase::new())
            .is_ok()
        {
            guessed += 1;
        }
    }
    let queued = sys
        .place(SiteId(0))
        .cabinets()
        .get(tacoma_sched::protected::MEETINGS_CABINET)
        .map(|c| c.payload_bytes())
        .unwrap_or(0);
    table.row(vec![
        attempts.to_string(),
        allowed.to_string(),
        denied.to_string(),
        guessed.to_string(),
        format!("{queued} bytes"),
    ]);
    table
}

/// A4: load-report dissemination period vs scheduling quality.
pub fn ablation_report_period(_opts: RunOpts) -> Table {
    let mut table = Table::new(
        "A4 — load-report dissemination period",
        "design choice: how often monitors report to brokers (§4 likens this to routing-state dissemination)",
        &["report period ms", "mean wait ms", "p95 wait ms", "imbalance", "network bytes"],
    );
    for period_ms in [10u64, 50, 250, 1_000] {
        let result = run_scheduling_experiment(&SchedulingConfig {
            providers: 4,
            capacities: vec![1.0, 2.0, 4.0, 8.0],
            jobs: 80,
            mean_job_ms: 80.0,
            mean_interarrival_ms: 20.0,
            policy: PlacementPolicy::LoadBased,
            report_period: Duration::from_millis(period_ms),
            seed: 404,
        });
        table.row(vec![
            period_ms.to_string(),
            format!("{:.1}", result.jobs.mean_wait_ms()),
            format!("{:.1}", result.jobs.p95_wait_ms()),
            format!("{:.2}", result.jobs.imbalance()),
            result.network_bytes.to_string(),
        ]);
    }
    table
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
            assert_eq!(result.jobs.completed, 30, "policy {policy:?} lost jobs");
            assert!(result.jobs.makespan_ms() > 0.0);
            assert!(result.network_bytes > 0);
            assert_eq!(result.jobs.per_provider.iter().sum::<u64>(), 30);
        }
    }

    #[test]
    fn load_based_beats_round_robin_on_heterogeneous_providers() {
        let load = run_scheduling_experiment(&small(PlacementPolicy::LoadBased));
        let rr = run_scheduling_experiment(&small(PlacementPolicy::RoundRobin));
        // The paper's claim: distributing by load and capacity beats ignoring
        // them.  With a 4× capacity spread the mean wait should be clearly lower.
        assert!(
            load.jobs.mean_wait_ms() <= rr.jobs.mean_wait_ms(),
            "load-based mean wait {} should not exceed round-robin {}",
            load.jobs.mean_wait_ms(),
            rr.jobs.mean_wait_ms()
        );
    }

    #[test]
    fn results_are_deterministic_for_a_seed() {
        let a = run_scheduling_experiment(&small(PlacementPolicy::Random));
        let b = run_scheduling_experiment(&small(PlacementPolicy::Random));
        assert_eq!(a.jobs.per_provider, b.jobs.per_provider);
        assert_eq!(a.jobs.last_finish_us, b.jobs.last_finish_us);
        assert_eq!(a.network_bytes, b.network_bytes);
    }

    #[test]
    fn e8_no_direct_guess_succeeds() {
        let table = e8_protected(12);
        assert_eq!(table.rows[0][3], "0");
    }
}
