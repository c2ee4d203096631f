//! The meet pipeline under combinations of features.
//!
//! Small systems over {admission on/off} × {custody on/off} × a random
//! failure plan (site 0 included) are fed a random interleaving of the three
//! entry points — `inject_meet`, `schedule_meet`, `try_direct_meet` — whose
//! meets fan out into agent-issued remote, local and timer meets.  At every
//! 64-event boundary and at quiescence the books must balance against what
//! the run can be *seen* to have done: the simulator's own message counters
//! and the agents' own count of how often they ran, neither of which the
//! kernel's terminal recorder writes.

use proptest::prelude::*;
use std::cell::Cell;
use std::rc::Rc;
use tacoma_core::prelude::*;
use tacoma_core::TacomaSystem;
use tacoma_net::{CustodyConfig, FailurePlan, LinkSpec, Topology};
use tacoma_script::CostGate;

const SITES: u32 = 3;

/// Works through its `PLAN` folder one two-byte step per meet, each step
/// asking the kernel for one more meet (or failing this one), and counts
/// every time it runs.
struct Worker {
    met: Rc<Cell<u64>>,
}

fn worker() -> AgentName {
    AgentName::new("worker")
}

impl Agent for Worker {
    fn name(&self) -> AgentName {
        worker()
    }
    fn meet(&mut self, ctx: &mut MeetCtx<'_>, mut bc: Briefcase) -> MeetOutcome {
        self.met.set(self.met.get() + 1);
        let Some(step) = bc.folder_mut("PLAN").dequeue() else {
            return Ok(bc);
        };
        let arg = u64::from(step[1]);
        match step[0] % 6 {
            0 | 1 => {
                let to = SiteId((arg % u64::from(ctx.site_count())) as u32);
                ctx.remote_meet(to, worker(), bc.clone(), TransportKind::Tcp);
            }
            2 => ctx.local_meet_async(worker(), bc.clone()),
            3 => ctx.schedule(worker(), Duration::from_millis(arg % 8), bc.clone()),
            4 => return ctx.meet_local(&AgentName::new("echo"), bc),
            _ => return Err(TacomaError::Refused("planned failure".into())),
        }
        Ok(bc)
    }
}

struct Echo;
impl Agent for Echo {
    fn name(&self) -> AgentName {
        AgentName::new("echo")
    }
    fn meet(&mut self, _ctx: &mut MeetCtx<'_>, bc: Briefcase) -> MeetOutcome {
        Ok(bc)
    }
}

/// `(entry point, site, n, plan)`: `n` picks the `CODE` variant and the delay
/// of a scheduled meet, or how many events to run.
type Op = (u8, u32, u64, Vec<(u8, u8)>);

/// One generated case.
#[derive(Debug, Clone)]
struct Scenario {
    seed: u64,
    sites: u32,
    admission: Option<AdmissionConfig>,
    custody: bool,
    /// `(site, down at ms, back after ms)`; a zero downtime never recovers.
    outages: Vec<(u32, u64, u64)>,
    ops: Vec<Op>,
}

fn briefcase(code: u64, plan: &[(u8, u8)]) -> Briefcase {
    let mut bc = Briefcase::new();
    for &(kind, arg) in plan {
        bc.folder_mut("PLAN").enqueue(vec![kind, arg]);
    }
    // Variants 0–4 carry no script; the others meet the gates: one every
    // gate admits, one the vet refuses (read before set), one the cost gate
    // refuses (a proven 200+ steps against a budget of 50).
    let script = match code % 8 {
        5 => "set x 1\nreturn ok",
        6 => "set y $x",
        7 => "set i 0\nwhile {$i < 100} { incr i }\nreturn done",
        _ => return bc,
    };
    bc.put_string(wellknown::CODE, script);
    bc
}

/// What one run leaves behind, for the determinism comparison.
type Footprint = (tacoma_core::SystemStats, Vec<String>);

struct Run {
    sys: TacomaSystem,
    met: Rc<Cell<u64>>,
    /// Worker runs that happened inside `try_direct_meet`, not the loop.
    direct_met: u64,
    /// `deadline + janitor_period` in ms, when there is a deadline.
    wait_bound_ms: Option<f64>,
    since_check: u64,
}

impl Run {
    fn new(sc: &Scenario) -> Run {
        let met = Rc::new(Cell::new(0));
        let counter = met.clone();
        let mut builder = TacomaSystem::builder()
            .topology(Topology::full_mesh(sc.sites, LinkSpec::default()))
            .seed(sc.seed)
            .cost_gate(CostGate::lenient(50, 8))
            .with_agents(move |_| {
                vec![
                    Box::new(Worker {
                        met: counter.clone(),
                    }) as Box<dyn Agent>,
                    Box::new(Echo),
                ]
            });
        if let Some(config) = sc.admission {
            builder = builder.admission(config);
        }
        if sc.custody {
            builder = builder.custody(CustodyConfig {
                capacity: 4,
                ttl: Duration::from_millis(8),
            });
        }
        let mut sys = builder.build();
        let mut plan = FailurePlan::none();
        for &(site, at_ms, down_ms) in &sc.outages {
            let (site, at) = (SiteId(site), SimTime::ZERO + Duration::from_millis(at_ms));
            plan = match down_ms {
                0 => plan.crash(site, at),
                _ => plan.outage(site, at, Duration::from_millis(down_ms)),
            };
        }
        sys.apply_failure_plan(&plan);
        let wait_bound_ms = sc.admission.and_then(|config| {
            let deadline = config.deadline?;
            Some((deadline.micros() + config.janitor_period.micros()) as f64 / 1000.0)
        });
        Run {
            sys,
            met,
            direct_met: 0,
            wait_bound_ms,
            since_check: 0,
        }
    }

    /// The always-on invariants.
    fn check(&self) {
        let (s, m) = (self.sys.stats(), self.sys.net_metrics());
        // Meets requested and not yet terminal, from the outside: every
        // message the network accepted that has neither expired nor been
        // handed to a worker or shed by its place, plus fired timers in the
        // same position.  A message lost in flight stays in this count for
        // good — a fail-fast network loses meets without a terminal outcome.
        let entered = m.total_messages() + s.timer_meets;
        let left = m.custody_expired() + m.shed_meets() + (self.met.get() - self.direct_met);
        assert!(left <= entered, "more meets left than entered: {s:?}");
        assert!(
            s.conserved(entered - left),
            "conservation violated with {} in flight: {s:?}",
            entered - left
        );
        assert_eq!(m.shed_meets(), s.meets_shed);
        if let Some(bound) = self.wait_bound_ms {
            let worst = m.admission_waits().max();
            assert!(
                worst < bound,
                "a meet waited {worst} ms for service; the janitor should have shed it by {bound} ms"
            );
        }
    }

    /// Runs up to `events` events, checking at every 64-event boundary.
    /// Returns how many were processed.
    fn advance(&mut self, events: u64) -> u64 {
        let mut processed = 0;
        while processed < events {
            let chunk = (events - processed).min(64 - self.since_check);
            let ran = self.sys.run_until_quiescent(chunk);
            processed += ran;
            self.since_check += ran;
            if self.since_check == 64 {
                self.since_check = 0;
                self.check();
            }
            if ran < chunk {
                break;
            }
        }
        processed
    }

    fn apply(&mut self, (entry, site, n, plan): &Op) {
        let site = SiteId(site % self.sys.site_count());
        let bc = briefcase(n >> 8, plan);
        match entry % 4 {
            0 => self.sys.inject_meet(site, worker(), bc),
            1 => self
                .sys
                .schedule_meet(site, worker(), bc, Duration::from_millis(n % 16)),
            2 => {
                let before = self.met.get();
                let _ = self.sys.try_direct_meet(site, &worker(), bc);
                self.direct_met += self.met.get() - before;
            }
            _ => {
                self.advance(n % 40);
            }
        }
    }

    /// Drains the run and checks what a drained run must look like.
    fn finish(mut self) -> Footprint {
        let drained = self.advance(100_000);
        assert!(drained < 100_000, "the run must quiesce");
        self.check();
        let (s, net) = (self.sys.stats(), self.sys.net());
        assert_eq!(net.pending_count(), 0);
        assert_eq!(net.custody_backlog(), 0, "parked meets expire or deliver");
        // Nothing is on its way any more: whatever is not terminal was lost
        // in flight, which only a network without custody does.
        assert!(s.conserved(net.metrics().dropped_messages()), "{s:?}");
        (s, self.sys.trace().to_vec())
    }
}

fn run(sc: &Scenario) -> Footprint {
    let mut run = Run::new(sc);
    for op in &sc.ops {
        run.apply(op);
    }
    run.finish()
}

fn check_scenario(sc: &Scenario) {
    let first = run(sc);
    assert_eq!(first, run(sc), "same scenario, different run");
}

proptest! {
    #[test]
    fn the_pipeline_conserves_meets_under_feature_combinations(
        seed in any::<u64>(),
        features in 0u8..4,
        outages in proptest::collection::vec((0u32..SITES, 0u64..16, 0u64..12), 0..4),
        ops in proptest::collection::vec(
            (
                any::<u8>(),
                0u32..SITES,
                any::<u64>(),
                proptest::collection::vec((any::<u8>(), any::<u8>()), 0..10),
            ),
            1..48,
        ),
    ) {
        // Tight enough that queues overflow and entries go stale.
        let admission = AdmissionConfig {
            capacity: 3,
            service_floor: Duration::from_millis(3),
            service_per_kib: Duration::from_micros(100),
            service_per_kilostep: Duration::from_micros(0),
            deadline: Some(Duration::from_millis(4)),
            janitor_period: Duration::from_millis(2),
        };
        check_scenario(&Scenario {
            seed,
            sites: SITES,
            admission: (features & 1 != 0).then_some(admission),
            custody: features & 2 != 0,
            outages,
            ops,
        });
    }
}

/// The case the generator found nothing like until it was told where to
/// look: the janitor's tick used to be anchored at site 0 whatever site was
/// busy, and the simulator discards the timers of a dead site — so with
/// site 0 down across one tick, deadline shedding stopped everywhere, for
/// good, and queued meets waited out the whole backlog.
#[test]
fn the_janitor_outlives_site_0() {
    let six_at_site_1: Vec<Op> = vec![(0, 1, 0, Vec::new()); 6];
    for down_ms in [20, 0] {
        check_scenario(&Scenario {
            seed: 7,
            sites: 2,
            admission: Some(AdmissionConfig {
                capacity: usize::MAX,
                service_floor: Duration::from_millis(50),
                service_per_kib: Duration::from_micros(0),
                service_per_kilostep: Duration::from_micros(0),
                deadline: Some(Duration::from_millis(10)),
                janitor_period: Duration::from_millis(5),
            }),
            custody: false,
            outages: vec![(0, 1, down_ms)],
            ops: six_at_site_1.clone(),
        });
    }
}
