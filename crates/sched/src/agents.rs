//! The scheduling service's agents: monitor, ticket and worker.
//!
//! The prototype's scheduling service (§6) "assigns to processors based on
//! load" and "uses four different agents … the broker, another … monitoring
//! the status of a site and reporting that to the brokers, one is a courier,
//! and one issues tickets to allow access to the service."  The courier is the
//! generic one from `tacoma-agents` and the broker is
//! [`crate::FederatedBrokerAgent`] (a single broker is a federation of one
//! shard); the monitor and the ticket agent are here, together with the
//! worker (provider) agent that actually executes jobs and [`jobs_done`], the
//! one reader of what it records.
//!
//! Briefcase conventions:
//!
//! * submit a job to the broker: `REQUEST`="submit", `JOB`=id, `JOB_SIZE`=work
//!   in milliseconds at capacity 1.0;
//! * ask the broker for a provider without dispatching: `REQUEST`="lookup";
//! * monitors report with `REQUEST`="report" plus a [`LoadReport`];
//! * workers accept jobs only when a `TICKET` folder is present (issued by the
//!   ticket agent at the broker's site).

use crate::load::{peek_parse, LoadReport};
use std::collections::VecDeque;
use tacoma_core::prelude::*;
use tacoma_core::{Folder, TacomaSystem};

/// Folder holding the request verb for broker meets.
pub const REQUEST: &str = "REQUEST";
/// Folder holding a job identifier.
pub const JOB: &str = "JOB";
/// Folder holding the job's size in milliseconds of work at capacity 1.0.
pub const JOB_SIZE: &str = "JOB_SIZE";
/// Folder holding an admission ticket.
pub const TICKET_FOLDER: &str = "TICKET";
/// Folder naming the provider chosen by a lookup.
pub const PROVIDER: &str = "PROVIDER";
/// Cabinet where workers record completed jobs.
pub const JOBS_CABINET: &str = "jobs";
/// Folder (in the jobs cabinet) holding completion records `id:wait_us:finish_us`.
pub const DONE: &str = "DONE";

/// How many monitor periods a load report stays trusted: the default
/// report TTL handed to brokers is `report_period × STALE_REPORT_PERIODS`.
pub const STALE_REPORT_PERIODS: u64 = 4;

/// The load monitor installed at every provider site.
///
/// On installation it starts a periodic timer; every period it samples the
/// co-located worker's queue and reports to the broker site.  A meet carrying
/// a [`wellknown::REHOME`] folder (the new broker's site id) re-points the
/// monitor — that is how a failed-over broker's adopter takes custody of the
/// crashed broker's providers.
pub struct MonitorAgent {
    broker_site: SiteId,
    period: Duration,
    capacity: f64,
}

impl MonitorAgent {
    /// Creates a monitor reporting to `broker_site` every `period`.
    pub fn new(broker_site: SiteId, period: Duration, capacity: f64) -> Self {
        MonitorAgent {
            broker_site,
            period,
            capacity,
        }
    }

    fn sample_and_report(&self, ctx: &mut MeetCtx<'_>) {
        let mut query = Briefcase::new();
        query.put_string("QUERY", "load");
        let queue_len = match ctx.meet_local(&AgentName::new("worker"), query) {
            Ok(reply) => reply.peek_u64("QUEUE_LEN").unwrap_or(0),
            Err(_) => 0,
        };
        let report = LoadReport {
            site: ctx.site(),
            queue_len,
            queue_cost: 0.0,
            capacity: self.capacity,
            at_micros: ctx.now().micros(),
        };
        let mut bc = report.to_briefcase();
        bc.put_string(REQUEST, "report");
        ctx.remote_meet(
            self.broker_site,
            AgentName::new(wellknown::BROKER),
            bc,
            TransportKind::Tcp,
        );
    }
}

impl Agent for MonitorAgent {
    fn name(&self) -> AgentName {
        AgentName::new(wellknown::MONITOR)
    }

    fn on_install(&mut self, ctx: &mut MeetCtx<'_>) {
        // Report immediately so the broker knows this provider exists, then
        // keep reporting on the period.
        self.sample_and_report(ctx);
        ctx.schedule(
            AgentName::new(wellknown::MONITOR),
            self.period,
            Briefcase::new(),
        );
    }

    fn meet(&mut self, ctx: &mut MeetCtx<'_>, bc: Briefcase) -> MeetOutcome {
        if let Some(new_broker) = peek_parse(&bc, wellknown::REHOME) {
            // Failover: report to the adopting broker from now on, and do so
            // immediately so the adopter learns this provider exists.
            self.broker_site = SiteId(new_broker);
            self.sample_and_report(ctx);
            return Ok(Briefcase::new());
        }
        if bc.contains(wellknown::TIMER) {
            self.sample_and_report(ctx);
            ctx.schedule(
                AgentName::new(wellknown::MONITOR),
                self.period,
                Briefcase::new(),
            );
        }
        Ok(Briefcase::new())
    }
}

/// The admission-ticket agent of the scheduling service.
#[derive(Debug, Default)]
pub struct TicketAgent {
    issued: u64,
}

impl TicketAgent {
    /// Creates the agent.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Agent for TicketAgent {
    fn name(&self) -> AgentName {
        AgentName::new(wellknown::TICKET)
    }

    fn meet(&mut self, ctx: &mut MeetCtx<'_>, _bc: Briefcase) -> MeetOutcome {
        self.issued += 1;
        let mut reply = Briefcase::new();
        reply.put_string(
            TICKET_FOLDER,
            format!("ticket-{}-{}", ctx.site(), self.issued),
        );
        Ok(reply)
    }
}

/// A service provider: executes jobs one at a time at a configured capacity.
pub struct WorkerAgent {
    capacity: f64,
    queue: VecDeque<QueuedJob>,
}

#[derive(Debug, Clone)]
struct QueuedJob {
    id: String,
    size_ms: u64,
    enqueued_at: u64,
}

impl WorkerAgent {
    /// Creates a worker with the given capacity (1.0 = nominal speed).
    pub fn new(capacity: f64) -> Self {
        WorkerAgent {
            capacity: capacity.max(0.01),
            queue: VecDeque::new(),
        }
    }

    fn service_time(&self, size_ms: u64) -> Duration {
        Duration::from_micros(((size_ms as f64 * 1000.0) / self.capacity) as u64)
    }

    fn start_head_job(&self, ctx: &mut MeetCtx<'_>) {
        if let Some(head) = self.queue.front() {
            let delay = self.service_time(head.size_ms);
            ctx.schedule(AgentName::new("worker"), delay, Briefcase::new());
        }
    }
}

impl Agent for WorkerAgent {
    fn name(&self) -> AgentName {
        AgentName::new("worker")
    }

    fn meet(&mut self, ctx: &mut MeetCtx<'_>, bc: Briefcase) -> MeetOutcome {
        // Load query from the monitor.
        if bc.peek("QUERY") == Some(b"load") {
            let mut reply = Briefcase::new();
            reply.put_u64("QUEUE_LEN", self.queue.len() as u64);
            return Ok(reply);
        }
        // Timer: the job at the head of the queue finished.
        if bc.contains(wellknown::TIMER) {
            if let Some(done) = self.queue.pop_front() {
                let now = ctx.now().micros();
                let wait = now
                    .saturating_sub(done.enqueued_at)
                    .saturating_sub(self.service_time(done.size_ms).micros());
                ctx.cabinet(JOBS_CABINET)
                    .append(DONE, format!("{}:{}:{}", done.id, wait, now));
                self.start_head_job(ctx);
            }
            return Ok(Briefcase::new());
        }
        // Otherwise: a job submission.
        let job_id = bc
            .peek_string(JOB)
            .ok_or_else(|| TacomaError::missing(JOB))?;
        let size_ms = peek_parse(&bc, JOB_SIZE)
            .ok_or_else(|| TacomaError::bad_folder(JOB_SIZE, "missing or not a number"))?;
        if !bc.contains(TICKET_FOLDER) {
            return Err(TacomaError::Refused("no admission ticket".into()));
        }
        let was_idle = self.queue.is_empty();
        self.queue.push_back(QueuedJob {
            id: job_id,
            size_ms,
            enqueued_at: ctx.now().micros(),
        });
        if was_idle {
            self.start_head_job(ctx);
        }
        Ok(Briefcase::new())
    }
}

/// The jobs the worker at `site` has finished, oldest first, each as
/// `(wait_us, finish_us)`: the one reader of the [`DONE`] records
/// [`WorkerAgent`] writes.  Records are parsed as the iterator is advanced,
/// so `.len()` counts them without parsing.
pub fn jobs_done(
    sys: &TacomaSystem,
    site: SiteId,
) -> impl ExactSizeIterator<Item = (u64, u64)> + '_ {
    let cabinet = sys.place(site).cabinets().get(JOBS_CABINET);
    let done = cabinet.and_then(|c| c.folder_ref(DONE));
    done.map(Folder::iter).unwrap_or_default().map(|record| {
        // `id:wait_us:finish_us`, read from the right so an id may hold `:`.
        let text = String::from_utf8_lossy(record);
        let mut fields = text.rsplit(':').map(|f| f.parse().unwrap_or(0));
        let finish_us = fields.next().unwrap_or(0);
        (fields.next().unwrap_or(0), finish_us)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::federation::{FederatedBrokerAgent, BROKER_CABINET, DIG_TX};
    use crate::policy::PlacementPolicy;
    use tacoma_net::{LinkSpec, Topology};

    /// A single broker: a federation of one shard, with no peer to gossip to.
    fn broker(policy: PlacementPolicy, ttl_ms: u64, half_life_ms: u64) -> Box<dyn Agent> {
        let ttl = Duration::from_millis(ttl_ms);
        let half_life = Duration::from_millis(half_life_ms);
        let agent = FederatedBrokerAgent::new(0, Vec::new(), policy, ttl, half_life, half_life);
        Box::new(agent)
    }

    fn worker_system(capacity: f64) -> TacomaSystem {
        let mut sys = TacomaSystem::new(Topology::full_mesh(1, LinkSpec::default()), 1);
        sys.register_agent(SiteId(0), Box::new(WorkerAgent::new(capacity)));
        sys.register_agent(SiteId(0), Box::new(TicketAgent::new()));
        sys
    }

    fn job_briefcase(id: &str, size_ms: u64, ticketed: bool) -> Briefcase {
        let mut bc = Briefcase::new();
        bc.put_string(JOB, id);
        bc.put_string(JOB_SIZE, size_ms.to_string());
        if ticketed {
            bc.put_string(TICKET_FOLDER, "t");
        }
        bc
    }

    #[test]
    fn worker_requires_a_ticket() {
        let mut sys = worker_system(1.0);
        let err = sys
            .try_direct_meet(
                SiteId(0),
                &AgentName::new("worker"),
                job_briefcase("j", 10, false),
            )
            .unwrap_err();
        assert!(matches!(err, TacomaError::Refused(_)));
    }

    #[test]
    fn worker_executes_jobs_in_fifo_order_and_records_them() {
        let mut sys = worker_system(2.0);
        assert_eq!(jobs_done(&sys, SiteId(0)).len(), 0, "no DONE folder yet");
        for i in 0..3 {
            sys.inject_meet(
                SiteId(0),
                AgentName::new("worker"),
                job_briefcase(&format!("job{i}"), 100, true),
            );
        }
        sys.run_until_quiescent(10_000);
        let cab = sys.place(SiteId(0)).cabinets().get(JOBS_CABINET).unwrap();
        let done = cab.folder_ref(DONE).unwrap().strings();
        assert!(done[0].starts_with("job0:"));
        assert!(done[2].starts_with("job2:"));
        // Later jobs waited longer, and each finished 50 ms after the last.
        let jobs: Vec<(u64, u64)> = jobs_done(&sys, SiteId(0)).collect();
        assert_eq!(jobs.len(), 3);
        assert_eq!(jobs[0].0, 0);
        assert!(jobs[2].0 > jobs[1].0 && jobs[1].0 > jobs[0].0);
        assert_eq!(jobs[2].1 - jobs[1].1, 50_000);
        assert_eq!(jobs_done(&sys, SiteId(0)).len(), 3);
    }

    #[test]
    fn faster_workers_finish_sooner() {
        let mut slow = worker_system(1.0);
        let mut fast = worker_system(4.0);
        for sys in [&mut slow, &mut fast] {
            sys.inject_meet(
                SiteId(0),
                AgentName::new("worker"),
                job_briefcase("j", 200, true),
            );
            sys.run_until_quiescent(10_000);
        }
        assert!(fast.now() < slow.now());
    }

    #[test]
    fn worker_answers_load_queries() {
        let mut sys = worker_system(1.0);
        let mut q = Briefcase::new();
        q.put_string("QUERY", "load");
        let reply = sys
            .try_direct_meet(SiteId(0), &AgentName::new("worker"), q)
            .unwrap();
        assert_eq!(reply.peek_u64("QUEUE_LEN"), Some(0));
    }

    #[test]
    fn ticket_agent_issues_unique_tickets() {
        let mut sys = worker_system(1.0);
        let a = sys
            .try_direct_meet(
                SiteId(0),
                &AgentName::new(wellknown::TICKET),
                Briefcase::new(),
            )
            .unwrap();
        let b = sys
            .try_direct_meet(
                SiteId(0),
                &AgentName::new(wellknown::TICKET),
                Briefcase::new(),
            )
            .unwrap();
        assert_ne!(a.peek_string(TICKET_FOLDER), b.peek_string(TICKET_FOLDER));
    }

    #[test]
    fn broker_places_jobs_on_registered_providers() {
        // Site 0: broker + ticket.  Sites 1, 2: workers + monitors.
        let mut sys = TacomaSystem::new(Topology::full_mesh(3, LinkSpec::default()), 2);
        sys.register_agent(SiteId(0), broker(PlacementPolicy::LoadBased, 2_000, 500));
        sys.register_agent(SiteId(0), Box::new(TicketAgent::new()));
        for s in [1u32, 2] {
            sys.register_agent(SiteId(s), Box::new(WorkerAgent::new(1.0)));
        }
        // Monitors register their providers with the broker via their install hook.
        sys.register_agent(
            SiteId(1),
            Box::new(MonitorAgent::new(SiteId(0), Duration::from_millis(50), 1.0)),
        );
        sys.register_agent(
            SiteId(2),
            Box::new(MonitorAgent::new(SiteId(0), Duration::from_millis(50), 4.0)),
        );
        // Let the initial reports reach the broker.
        sys.run_for(Duration::from_millis(20));

        // Submit four jobs.
        for i in 0..4 {
            let mut bc = job_briefcase(&format!("j{i}"), 100, false);
            bc.put_string(REQUEST, "submit");
            sys.inject_meet(SiteId(0), AgentName::new(wellknown::BROKER), bc);
        }
        sys.run_for(Duration::from_secs(5));

        let total_done: usize = [1, 2]
            .map(|s| jobs_done(&sys, SiteId(s)).len())
            .iter()
            .sum();
        assert_eq!(total_done, 4, "all submitted jobs complete somewhere");
        assert_eq!(sys.stats().meets_failed, 0);
    }

    #[test]
    fn stale_reports_expire_instead_of_being_trusted_forever() {
        use tacoma_net::SimTime;
        // Two providers report; then site 2 is partitioned away.  It is still
        // *up* (liveness filtering does not catch it), but its reports stop
        // arriving — after the TTL the broker must stop placing onto it
        // rather than trusting the frozen report forever.
        let mut sys = TacomaSystem::new(Topology::full_mesh(3, LinkSpec::default()), 3);
        sys.register_agent(SiteId(0), broker(PlacementPolicy::LoadBased, 80, 20));
        sys.register_agent(SiteId(0), Box::new(TicketAgent::new()));
        for s in [1u32, 2] {
            sys.register_agent(SiteId(s), Box::new(WorkerAgent::new(1.0)));
            sys.register_agent(
                SiteId(s),
                Box::new(MonitorAgent::new(SiteId(0), Duration::from_millis(20), 1.0)),
            );
        }
        sys.run_for(Duration::from_millis(50));
        sys.net_mut().partition(&[SiteId(2)]);
        assert!(sys.net().is_up(SiteId(2)), "partitioned, not dead");
        // Monitors keep ticking; site 2's reports no longer reach the broker.
        sys.run_until(SimTime::ZERO + Duration::from_millis(400));
        let mut bc = Briefcase::new();
        bc.put_string(REQUEST, "lookup");
        let reply = sys
            .try_direct_meet(SiteId(0), &AgentName::new(wellknown::BROKER), bc)
            .unwrap();
        assert_eq!(
            reply.peek_string(PROVIDER).as_deref(),
            Some("1"),
            "the unreachable provider's stale report must have expired"
        );
    }

    #[test]
    fn rehome_re_points_a_monitor_at_a_new_broker() {
        // Broker at site 0 and a spare at site 2; the monitor at site 1
        // starts on broker 0 and is rehomed to broker 2 mid-run.
        let mut sys = TacomaSystem::new(Topology::full_mesh(3, LinkSpec::default()), 4);
        for b in [0u32, 2] {
            sys.register_agent(SiteId(b), broker(PlacementPolicy::LoadBased, 2_000, 500));
            sys.register_agent(SiteId(b), Box::new(TicketAgent::new()));
        }
        sys.register_agent(SiteId(1), Box::new(WorkerAgent::new(1.0)));
        sys.register_agent(
            SiteId(1),
            Box::new(MonitorAgent::new(SiteId(0), Duration::from_millis(20), 1.0)),
        );
        sys.run_for(Duration::from_millis(30));
        let mut rehome = Briefcase::new();
        rehome.put_string(wellknown::REHOME, "2");
        sys.inject_meet(SiteId(1), AgentName::new(wellknown::MONITOR), rehome);
        sys.run_for(Duration::from_millis(50));
        // The new broker can now place onto the provider; lookups there work.
        let mut bc = Briefcase::new();
        bc.put_string(REQUEST, "lookup");
        let reply = sys
            .try_direct_meet(SiteId(2), &AgentName::new(wellknown::BROKER), bc)
            .unwrap();
        assert_eq!(reply.peek_string(PROVIDER).as_deref(), Some("1"));
    }

    #[test]
    fn broker_with_no_providers_refuses() {
        let mut sys = TacomaSystem::new(Topology::full_mesh(1, LinkSpec::default()), 2);
        sys.register_agent(SiteId(0), broker(PlacementPolicy::Random, 2_000, 500));
        let mut bc = Briefcase::new();
        bc.put_string(REQUEST, "lookup");
        let err = sys
            .try_direct_meet(SiteId(0), &AgentName::new(wellknown::BROKER), bc)
            .unwrap_err();
        assert!(matches!(err, TacomaError::Refused(_)));
        // Unknown verbs are refused too.
        let mut bc = Briefcase::new();
        bc.put_string(REQUEST, "dance");
        assert!(sys
            .try_direct_meet(SiteId(0), &AgentName::new(wellknown::BROKER), bc)
            .is_err());
    }

    #[test]
    fn a_single_broker_arms_no_digest_timer_and_sends_no_digest() {
        // E7's numbers rest on this: the one-shard broker behaves as a broker
        // with no federation at all.  Installing it arms nothing, so the run
        // drains at once and no digest is ever recorded.
        let digests = |sys: &TacomaSystem| {
            let cabinet = sys.place(SiteId(0)).cabinets().get(BROKER_CABINET);
            cabinet
                .and_then(|c| c.folder_ref(DIG_TX))
                .map_or(0, |f| f.len())
        };
        let mut sys = TacomaSystem::new(Topology::full_mesh(2, LinkSpec::default()), 5);
        sys.register_agent(SiteId(0), broker(PlacementPolicy::LoadBased, 2_000, 500));
        assert_eq!(sys.run_until_quiescent(1_000), 0, "nothing was scheduled");
        assert_eq!(sys.stats().timer_meets, 0);
        assert_eq!(digests(&sys), 0);

        // The same broker with one peer gossips on its period.
        let mut sys = TacomaSystem::new(Topology::full_mesh(2, LinkSpec::default()), 5);
        let half_life = Duration::from_millis(500);
        let peered = FederatedBrokerAgent::new(
            0,
            vec![(1, SiteId(1))],
            PlacementPolicy::LoadBased,
            Duration::from_millis(2_000),
            half_life,
            half_life,
        );
        sys.register_agent(SiteId(0), Box::new(peered));
        sys.run_for(Duration::from_secs(2));
        assert_eq!(digests(&sys), 4);
    }
}
