//! The traveller / rear-guard / mission-control agent trio.
//!
//! Briefcase conventions for the traveller:
//!
//! * `JOB` — the computation's id (guards are named `guard-<job>`);
//! * `ITINERARY` — remaining sites to visit, as decimal strings (a queue);
//! * `ORIGIN` — site to report completion to;
//! * `GUARDED` — present (any value) if rear guards should be installed;
//! * `PREV` — the site whose guard should be retired on safe arrival.
//!
//! The guard holds the relaunch briefcase and retires on a `RETIRE` meet.

use tacoma_core::prelude::*;
use tacoma_core::Folder;

/// Folder carrying the computation id.
pub const JOB: &str = "JOB";
/// Folder present when rear guards should be used.
pub const GUARDED: &str = "GUARDED";
/// Folder holding the trail of sites with still-active guards (a queue).
pub const GUARD_TRAIL: &str = "GUARD_TRAIL";
/// Folder holding how many trailing guards to keep alive (default 2).
pub const GUARD_DEPTH: &str = "GUARD_DEPTH";
/// Folder marking a retire request to a guard.
pub const RETIRE: &str = "RETIRE";
/// Cabinet where travellers record visits.
pub const VISITS_CABINET: &str = "ft_visits";
/// Folder (per job) recording visits at a site.
pub const VISITED: &str = "VISITED";
/// Cabinet at the origin where completions are recorded.
pub const MISSION_CABINET: &str = "mission_control";
/// Folder recording completed jobs at the origin.
pub const COMPLETED: &str = "COMPLETED";
/// Well-known name of the mission-control agent.
pub const MISSION_CONTROL: &str = "mission_control";
/// Well-known name of the traveller agent.
pub const TRAVELLER: &str = "traveller";

/// How long a guard waits for its retire before assuming the onward agent
/// vanished, expressed in check periods.
const PATIENCE_PERIODS: u64 = 3;

/// The name under which the rear guard for `job` registers at a site.
pub fn guard_name(job: &str) -> AgentName {
    AgentName::new(format!("guard-{job}"))
}

/// The itinerary-walking agent whose computation the guards protect.
#[derive(Debug, Default)]
pub struct TravellerAgent;

impl TravellerAgent {
    /// Creates the agent (stateless: all state travels in the briefcase).
    pub fn new() -> Self {
        TravellerAgent
    }
}

impl Agent for TravellerAgent {
    fn name(&self) -> AgentName {
        AgentName::new(TRAVELLER)
    }

    fn meet(&mut self, ctx: &mut MeetCtx<'_>, mut bc: Briefcase) -> MeetOutcome {
        let job = bc
            .peek_string(JOB)
            .ok_or_else(|| TacomaError::missing(JOB))?;
        let origin = bc
            .peek_string(wellknown::ORIGIN)
            .and_then(|s| s.parse::<u32>().ok())
            .map(SiteId)
            .ok_or_else(|| TacomaError::missing(wellknown::ORIGIN))?;
        let guarded = bc.contains(GUARDED);
        let here = ctx.site();

        // Do the site's work exactly once per job (idempotent under relaunch,
        // which also makes cyclic itineraries safe).
        let visit_marker = format!("{job}@{here}");
        let already = ctx
            .cabinet(VISITS_CABINET)
            .folder_contains(VISITED, visit_marker.as_bytes());
        if !already {
            ctx.cabinet(VISITS_CABINET)
                .append_str(VISITED, &visit_marker);
        } else {
            ctx.cabinet(VISITS_CABINET)
                .append_str("DUPLICATES", &visit_marker);
        }

        // Where next?
        let next = bc
            .folder_mut(wellknown::ITINERARY)
            .dequeue_str()
            .and_then(|s| s.parse::<u32>().ok())
            .map(SiteId);
        match next {
            None => {
                // Finished: retire every guard still on the trail and report
                // to mission control.
                if let Some(trail) = bc.folder(GUARD_TRAIL) {
                    for elem in trail.strings() {
                        if let Ok(site) = elem.parse::<u32>() {
                            let mut retire = Briefcase::new();
                            retire.put_string(RETIRE, "finished");
                            ctx.remote_meet(
                                SiteId(site),
                                guard_name(&job),
                                retire,
                                TransportKind::Tcp,
                            );
                        }
                    }
                }
                let mut report = Briefcase::new();
                report.put_string(JOB, &job);
                report.put_string("FINISHED_AT", here.0.to_string());
                ctx.remote_meet(
                    origin,
                    AgentName::new(MISSION_CONTROL),
                    report,
                    TransportKind::Tcp,
                );
                Ok(Briefcase::new())
            }
            Some(next_site) => {
                if guarded {
                    // Leave a rear guard holding a relaunch copy for the rest
                    // of the journey (starting at `next_site`).  The relaunch
                    // copy's itinerary has next_site back at its front because
                    // `bc`'s itinerary already had it dequeued.
                    let mut relaunch = bc.clone();
                    let mut itin = Folder::new();
                    itin.enqueue(next_site.0.to_string().into_bytes());
                    if let Some(rest) = bc.folder(wellknown::ITINERARY) {
                        for elem in rest.iter() {
                            itin.enqueue(elem);
                        }
                    }
                    relaunch.put(wellknown::ITINERARY, itin);
                    ctx.spawn_agent(Box::new(RearGuardAgent::new(
                        job.clone(),
                        relaunch,
                        Duration::from_millis(400),
                    )));
                    // Keep a chain of the last `GUARD_DEPTH` guards alive (a
                    // single guard is itself a single point of failure — the
                    // paper notes the details are complex; the chain depth is
                    // the knob ablation A3 sweeps).  Older guards are retired.
                    let depth = bc
                        .peek_string(GUARD_DEPTH)
                        .and_then(|s| s.parse::<usize>().ok())
                        .unwrap_or(2)
                        .max(1);
                    bc.folder_mut(GUARD_TRAIL)
                        .enqueue(here.0.to_string().into_bytes());
                    while bc.folder(GUARD_TRAIL).map(|f| f.len()).unwrap_or(0) > depth {
                        if let Some(old) = bc.folder_mut(GUARD_TRAIL).dequeue_str() {
                            if let Ok(site) = old.parse::<u32>() {
                                let mut retire = Briefcase::new();
                                retire.put_string(RETIRE, "superseded");
                                ctx.remote_meet(
                                    SiteId(site),
                                    guard_name(&job),
                                    retire,
                                    TransportKind::Tcp,
                                );
                            }
                        }
                    }
                }
                // Move on.  If the next site is down right now, the guards (or
                // nobody, in the unguarded case) will deal with it.
                ctx.remote_meet(next_site, AgentName::new(TRAVELLER), bc, TransportKind::Tcp);
                Ok(Briefcase::new())
            }
        }
    }
}

/// The rear guard left behind at a site.
pub struct RearGuardAgent {
    job: String,
    relaunch: Briefcase,
    period: Duration,
    periods_waited: u64,
    relaunches: u64,
    max_relaunches: u64,
    retired: bool,
    started: bool,
}

impl RearGuardAgent {
    /// Creates a guard protecting `job`, holding `relaunch` as the snapshot to
    /// re-launch from, checking every `period`.
    pub fn new(job: String, relaunch: Briefcase, period: Duration) -> Self {
        RearGuardAgent {
            job,
            relaunch,
            period,
            periods_waited: 0,
            relaunches: 0,
            max_relaunches: 2,
            retired: false,
            started: false,
        }
    }

    fn schedule_check(&self, ctx: &mut MeetCtx<'_>) {
        ctx.schedule(guard_name(&self.job), self.period, Briefcase::new());
    }

    fn relaunch_target(&self, ctx: &MeetCtx<'_>) -> Option<(SiteId, Briefcase)> {
        // Skip dead sites at the front of the remaining itinerary.
        let mut bc = self.relaunch.clone();
        loop {
            let next = bc
                .folder_mut(wellknown::ITINERARY)
                .dequeue_str()
                .and_then(|s| s.parse::<u32>().ok())
                .map(SiteId)?;
            if ctx.site_is_up(next) {
                // Put it back: the traveller dequeues it itself on arrival…
                // actually the traveller expects to *be at* the first site of
                // the snapshot, so we deliver to `next` with the rest of the
                // itinerary following it.
                return Some((next, bc));
            }
            // Dead: try the site after it.
        }
    }
}

impl Agent for RearGuardAgent {
    fn name(&self) -> AgentName {
        guard_name(&self.job)
    }

    fn on_install(&mut self, ctx: &mut MeetCtx<'_>) {
        if !self.started {
            self.started = true;
            self.schedule_check(ctx);
        }
    }

    fn meet(&mut self, ctx: &mut MeetCtx<'_>, bc: Briefcase) -> MeetOutcome {
        if bc.contains(RETIRE) {
            // (ii) terminate itself when its function is no longer necessary.
            self.retired = true;
            ctx.unregister_agent(guard_name(&self.job));
            return Ok(Briefcase::new());
        }
        if !bc.contains(wellknown::TIMER) {
            return Ok(Briefcase::new());
        }
        if self.retired {
            ctx.unregister_agent(guard_name(&self.job));
            return Ok(Briefcase::new());
        }
        self.periods_waited += 1;
        if self.periods_waited < PATIENCE_PERIODS {
            self.schedule_check(ctx);
            return Ok(Briefcase::new());
        }
        // (i) launch a new agent: the onward copy has not confirmed arrival
        // within the patience window, so assume it vanished in a failure.
        if self.relaunches >= self.max_relaunches {
            ctx.unregister_agent(guard_name(&self.job));
            return Ok(Briefcase::new());
        }
        match self.relaunch_target(ctx) {
            Some((site, snapshot)) => {
                if ctx.custody_enabled() && !ctx.site_is_reachable(site) {
                    // The site ahead is up but unreachable (partition): the
                    // onward copy is parked in custody and will be delivered
                    // when the network heals.  Relaunching now would fork the
                    // computation for no benefit — keep waiting instead.
                    self.periods_waited = 0;
                    ctx.log(format!(
                        "rear guard for {} waiting: {site} unreachable, custody pending",
                        self.job
                    ));
                    self.schedule_check(ctx);
                    return Ok(Briefcase::new());
                }
                self.relaunches += 1;
                self.periods_waited = 0;
                ctx.log(format!(
                    "rear guard for {} relaunching at {site} (attempt {})",
                    self.job, self.relaunches
                ));
                let mut bc = snapshot;
                // Put this guard on the relaunched copy's trail so the copy
                // eventually retires it (on trail overflow or completion).
                bc.folder_mut(GUARD_TRAIL)
                    .enqueue(ctx.site().0.to_string().into_bytes());
                ctx.remote_meet(site, AgentName::new(TRAVELLER), bc, TransportKind::Tcp);
                self.schedule_check(ctx);
            }
            None => {
                // Nothing left to relaunch onto; retire.
                ctx.unregister_agent(guard_name(&self.job));
            }
        }
        Ok(Briefcase::new())
    }
}

/// The agent at the origin site that records completed computations.
#[derive(Debug, Default)]
pub struct MissionControlAgent;

impl MissionControlAgent {
    /// Creates the agent.
    pub fn new() -> Self {
        MissionControlAgent
    }
}

impl Agent for MissionControlAgent {
    fn name(&self) -> AgentName {
        AgentName::new(MISSION_CONTROL)
    }

    fn meet(&mut self, ctx: &mut MeetCtx<'_>, bc: Briefcase) -> MeetOutcome {
        if let Some(job) = bc.peek_string(JOB) {
            if !ctx
                .cabinet(MISSION_CABINET)
                .folder_contains(COMPLETED, job.as_bytes())
            {
                ctx.cabinet(MISSION_CABINET).append_str(COMPLETED, &job);
            }
        }
        Ok(Briefcase::new())
    }
}

/// Builds the starting briefcase for a traveller.
pub fn traveller_briefcase(
    job: &str,
    origin: SiteId,
    itinerary: &[SiteId],
    guarded: bool,
) -> Briefcase {
    let mut bc = Briefcase::new();
    bc.put_string(JOB, job);
    bc.put_string(wellknown::ORIGIN, origin.0.to_string());
    let mut itin = Folder::new();
    for site in itinerary {
        itin.enqueue(site.0.to_string().into_bytes());
    }
    bc.put(wellknown::ITINERARY, itin);
    if guarded {
        bc.put_string(GUARDED, "yes");
    }
    bc
}

#[cfg(test)]
mod tests {
    use super::*;
    use tacoma_core::TacomaSystem;
    use tacoma_net::{Duration as NetDuration, FailurePlan, LinkSpec, SimTime, Topology};

    fn system(sites: u32) -> TacomaSystem {
        let mut sys = TacomaSystem::builder()
            .topology(Topology::full_mesh(sites, LinkSpec::default()))
            .seed(13)
            .with_agents(|_| vec![Box::new(TravellerAgent::new()) as Box<dyn Agent>])
            .build();
        sys.register_agent(SiteId(0), Box::new(MissionControlAgent::new()));
        sys
    }

    fn completed(sys: &TacomaSystem, job: &str) -> bool {
        sys.place(SiteId(0))
            .cabinets()
            .get(MISSION_CABINET)
            .and_then(|c| c.folder_ref(COMPLETED))
            .map(|f| f.strings().iter().any(|s| s == job))
            .unwrap_or(false)
    }

    fn visits(sys: &TacomaSystem, job: &str) -> usize {
        (0..sys.site_count())
            .filter(|s| {
                sys.place(SiteId(*s))
                    .cabinets()
                    .get(VISITS_CABINET)
                    .and_then(|c| c.folder_ref(VISITED))
                    .map(|f| {
                        f.strings()
                            .iter()
                            .any(|v| v.starts_with(&format!("{job}@")))
                    })
                    .unwrap_or(false)
            })
            .count()
    }

    #[test]
    fn unguarded_itinerary_completes_without_failures() {
        let mut sys = system(5);
        let itinerary: Vec<SiteId> = (1..5).map(SiteId).collect();
        sys.inject_meet(
            SiteId(0),
            AgentName::new(TRAVELLER),
            traveller_briefcase("job-a", SiteId(0), &itinerary, false),
        );
        sys.run_for(NetDuration::from_secs(10));
        assert!(completed(&sys, "job-a"));
        assert_eq!(visits(&sys, "job-a"), 5, "origin plus four itinerary sites");
        assert_eq!(sys.stats().meets_failed, 0);
    }

    #[test]
    fn guarded_itinerary_completes_and_guards_retire() {
        let mut sys = system(5);
        let itinerary: Vec<SiteId> = (1..5).map(SiteId).collect();
        sys.inject_meet(
            SiteId(0),
            AgentName::new(TRAVELLER),
            traveller_briefcase("job-b", SiteId(0), &itinerary, true),
        );
        sys.run_for(NetDuration::from_secs(20));
        assert!(completed(&sys, "job-b"));
        // Every guard retired: no guard-<job> agent remains registered anywhere.
        for s in 0..5 {
            assert!(
                !sys.place(SiteId(s)).has_agent(&guard_name("job-b")),
                "guard at site {s} should have retired"
            );
        }
    }

    #[test]
    fn unguarded_computation_dies_with_a_site_failure() {
        let mut sys = system(5);
        let itinerary: Vec<SiteId> = (1..5).map(SiteId).collect();
        // Site 2 goes down before the traveller reaches it and stays down a while.
        let plan = FailurePlan::none().outage(
            SiteId(2),
            SimTime::ZERO + NetDuration::from_micros(1),
            NetDuration::from_secs(5),
        );
        sys.apply_failure_plan(&plan);
        sys.inject_meet(
            SiteId(0),
            AgentName::new(TRAVELLER),
            traveller_briefcase("job-c", SiteId(0), &itinerary, false),
        );
        sys.run_for(NetDuration::from_secs(20));
        assert!(
            !completed(&sys, "job-c"),
            "without guards the computation is lost"
        );
    }

    #[test]
    fn rear_guard_relaunches_past_a_failed_site() {
        let mut sys = system(5);
        let itinerary: Vec<SiteId> = (1..5).map(SiteId).collect();
        let plan = FailurePlan::none().outage(
            SiteId(2),
            SimTime::ZERO + NetDuration::from_micros(1),
            NetDuration::from_secs(60),
        );
        sys.apply_failure_plan(&plan);
        sys.inject_meet(
            SiteId(0),
            AgentName::new(TRAVELLER),
            traveller_briefcase("job-d", SiteId(0), &itinerary, true),
        );
        sys.run_for(NetDuration::from_secs(30));
        assert!(
            completed(&sys, "job-d"),
            "the guard must relaunch the computation around the dead site"
        );
        // The dead site was skipped, the rest were visited.
        assert!(visits(&sys, "job-d") >= 4);
    }

    #[test]
    fn guard_waits_out_a_partition_when_custody_is_enabled() {
        use tacoma_net::CustodyConfig;
        // The origin is partitioned away from everyone else, so the
        // traveller's very first hop (0 -> 1) is parked in custody.  Its rear
        // guard sees site 1 *up but unreachable* and waits instead of
        // relaunching, so after the heal the computation completes with zero
        // duplicate visits (no forks).
        let mut sys = TacomaSystem::builder()
            .topology(Topology::full_mesh(5, LinkSpec::default()))
            .seed(13)
            .custody(CustodyConfig::default())
            .with_agents(|_| vec![Box::new(TravellerAgent::new()) as Box<dyn Agent>])
            .build();
        sys.register_agent(SiteId(0), Box::new(MissionControlAgent::new()));
        sys.net_mut().partition(&[SiteId(0)]);
        let itinerary: Vec<SiteId> = (1..5).map(SiteId).collect();
        sys.inject_meet(
            SiteId(0),
            AgentName::new(TRAVELLER),
            traveller_briefcase("job-p", SiteId(0), &itinerary, true),
        );
        // Long enough for several guard patience windows to elapse.
        sys.run_for(NetDuration::from_secs(5));
        assert!(!completed(&sys, "job-p"), "stuck behind the partition");
        assert_eq!(sys.stats().send_failures, 0, "custody absorbed the hop");
        assert!(
            sys.trace()
                .iter()
                .any(|line| line.contains("custody pending")),
            "a guard must have logged the custody wait"
        );
        sys.net_mut().heal_partition();
        sys.run_for(NetDuration::from_secs(20));
        assert!(completed(&sys, "job-p"), "delivered after the heal");
        assert_eq!(visits(&sys, "job-p"), 5);
        let duplicates: u64 = (0..5)
            .map(|s| {
                sys.place(SiteId(s))
                    .cabinets()
                    .get(VISITS_CABINET)
                    .and_then(|c| c.folder_ref("DUPLICATES").map(|f| f.len() as u64))
                    .unwrap_or(0)
            })
            .sum();
        assert_eq!(duplicates, 0, "waiting guards must not fork the traveller");
    }

    #[test]
    fn cyclic_itinerary_is_handled() {
        let mut sys = system(4);
        // Visit 1, 2, 1, 3: revisiting site 1 must not confuse the guards.
        let itinerary = vec![SiteId(1), SiteId(2), SiteId(1), SiteId(3)];
        sys.inject_meet(
            SiteId(0),
            AgentName::new(TRAVELLER),
            traveller_briefcase("job-e", SiteId(0), &itinerary, true),
        );
        sys.run_for(NetDuration::from_secs(20));
        assert!(completed(&sys, "job-e"));
    }

    #[test]
    fn mission_control_records_each_job_once() {
        let mut sys = system(3);
        for _ in 0..2 {
            let mut bc = Briefcase::new();
            bc.put_string(JOB, "dup-job");
            sys.inject_meet(SiteId(0), AgentName::new(MISSION_CONTROL), bc);
        }
        sys.run_until_quiescent(100);
        let cab = sys
            .place(SiteId(0))
            .cabinets()
            .get(MISSION_CABINET)
            .unwrap();
        assert_eq!(cab.folder_ref(COMPLETED).unwrap().len(), 1);
    }
}
