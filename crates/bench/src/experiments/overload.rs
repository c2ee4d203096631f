//! Open arrivals and admission (beyond the paper's scale): E18 backpressure
//! and load shedding, and E20 cost-aware placement of a script fleet.

use crate::runner::RunOpts;
use crate::table::Table;
use tacoma_agents::AgTacAgent;
use tacoma_core::prelude::*;
use tacoma_core::{Folder, TacomaSystem};
use tacoma_net::{LinkSpec, Topology};
use tacoma_sched::{LoadReport, PlacementPolicy, ReportDb};
use tacoma_util::DetRng;

// ---------------------------------------------------------------------------
// E18 — open-arrival overload: backpressure and load shedding
// ---------------------------------------------------------------------------

/// The mailroom: terminal contact for open-arrival mail meets.  The body's
/// bytes were already charged to the admission server's service time; the
/// mailroom just accepts delivery (completion is counted by the system).
struct MailroomAgent;
impl Agent for MailroomAgent {
    fn name(&self) -> AgentName {
        AgentName::new("mailroom")
    }
    fn meet(&mut self, _ctx: &mut MeetCtx<'_>, _bc: Briefcase) -> MeetOutcome {
        Ok(Briefcase::new())
    }
}

/// One E18 measurement: an open-arrival mail stream at `multiplier` times
/// the base rate, delivered through bounded (`bounded = true`) or unbounded
/// admission queues.
struct E18Outcome {
    requested: u64,
    completed: u64,
    shed: u64,
    shed_rate: f64,
    p99_ms: f64,
    p999_ms: f64,
    conserved: bool,
}

fn e18_run(multiplier: f64, bounded: bool, opts: RunOpts) -> E18Outcome {
    use tacoma_apps::UserDirectory;
    use tacoma_net::{Duration as NetDuration, OpenWorkload, RateCurve, SizeDist};

    let sites = 8u32;
    let horizon = NetDuration::from_secs(if opts.quick { 3 } else { 6 });
    // Two million mail users as a rate process: the directory answers home
    // and population queries in O(1); no user objects exist anywhere.
    let directory = UserDirectory::new(2_000_000, sites);
    let workload = OpenWorkload {
        sites,
        horizon,
        // ~100/s/site at 1x against ~330/s/site of service capacity; the 4x
        // point offers ~1.2x capacity at the diurnal peak — genuine overload.
        curve: RateCurve::diurnal(
            100.0 * multiplier,
            vec![0.6, 1.0, 1.4, 1.0],
            NetDuration::from_secs(2),
        ),
        crowds: Vec::new(),
        sizes: SizeDist::default(),
        users: directory.users(),
        seed: 1818,
    };
    let admission = AdmissionConfig {
        capacity: if bounded { 32 } else { usize::MAX },
        service_floor: Duration::from_millis(2),
        service_per_kib: Duration::from_millis(1),
        service_per_kilostep: Duration::from_micros(0),
        deadline: if bounded {
            Some(Duration::from_millis(400))
        } else {
            None
        },
        janitor_period: Duration::from_millis(50),
    };
    let mut sys = TacomaSystem::builder()
        .topology(Topology::full_mesh(sites, LinkSpec::default()))
        .seed(1818)
        .admission(admission)
        .with_agents(|_| vec![Box::new(MailroomAgent) as Box<dyn Agent>])
        .build();
    for arrival in workload.generate() {
        // The mail meet executes at the recipient's home site; the recipient
        // is the user the arrival stream drew from the population.
        let home = directory.home(arrival.user);
        let mut bc = Briefcase::new();
        bc.put_string("TO", UserDirectory::mailbox_folder(arrival.user));
        let mut body = Folder::new();
        body.push(vec![b'm'; arrival.bytes as usize]);
        bc.put("BODY", body);
        sys.schedule_meet(
            home,
            AgentName::new("mailroom"),
            bc,
            Duration::from_micros(arrival.at.0),
        );
    }
    sys.run_until_quiescent(50_000_000);
    let s = sys.stats();
    let m = sys.net_metrics();
    E18Outcome {
        requested: s.meets_requested,
        completed: s.meets_completed,
        shed: s.meets_shed,
        shed_rate: m.shed_rate(),
        p99_ms: m.admission_waits().percentile(99.0),
        p999_ms: m.admission_waits().percentile(99.9),
        conserved: s.conserved(0),
    }
}

/// E18: open-arrival overload — a rate ramp to saturation with and without
/// bounded admission queues.
///
/// An AgentMail population (modeled as rate processes, never resident
/// objects) offers mail at 0.5–4x of the fleet's service capacity under a
/// diurnal rate curve with heavy-tailed bounded-Pareto bodies.  With bounded
/// queues and a janitor deadline, the shed rate rises smoothly with offered
/// load while p99 wait stays bounded; with unbounded queues nothing is shed
/// and p99 diverges at the saturated point.  Every row's meet conservation
/// (requested = completed + failed + send-failed + expired + shed) is
/// asserted by the driver.
pub fn e18_overload(opts: RunOpts) -> Table {
    let mut table = Table::new(
        "E18 — open-arrival overload: backpressure and load shedding",
        "graceful degradation under open arrivals: bounded admission queues shed load smoothly and keep p99 wait bounded where unbounded queues let it diverge",
        &[
            "rate x",
            "mode",
            "requested",
            "completed",
            "shed",
            "shed rate",
            "p99 ms",
            "p999 ms",
            "conserved",
        ],
    );
    let multipliers: &[f64] = if opts.quick {
        &[1.0, 4.0]
    } else {
        &[0.5, 1.0, 2.0, 4.0]
    };
    let mut top: Vec<(bool, E18Outcome)> = Vec::new();
    for &multiplier in multipliers {
        for bounded in [true, false] {
            let outcome = e18_run(multiplier, bounded, opts);
            assert!(
                outcome.conserved,
                "E18 conservation violated at {multiplier}x bounded={bounded}"
            );
            table.row(vec![
                format!("{multiplier:.1}"),
                if bounded { "bounded" } else { "unbounded" }.to_string(),
                outcome.requested.to_string(),
                outcome.completed.to_string(),
                outcome.shed.to_string(),
                format!("{:.3}", outcome.shed_rate),
                format!("{:.1}", outcome.p99_ms),
                format!("{:.1}", outcome.p999_ms),
                outcome.conserved.to_string(),
            ]);
            if multiplier == *multipliers.last().unwrap() {
                top.push((bounded, outcome));
            }
        }
    }
    // The acceptance bar, checked at the saturated point on every run: with
    // admission control p99 stays bounded and load is shed; without it the
    // queue — and p99 — diverges.
    let bounded = &top.iter().find(|(b, _)| *b).unwrap().1;
    let unbounded = &top.iter().find(|(b, _)| !*b).unwrap().1;
    assert!(
        bounded.shed > 0,
        "saturation must engage the shed path (shed {})",
        bounded.shed
    );
    assert_eq!(unbounded.shed, 0, "unbounded queues never shed");
    assert!(
        bounded.p99_ms * 4.0 < unbounded.p99_ms,
        "bounded p99 {:.1}ms must stay clearly below the divergent unbounded p99 {:.1}ms",
        bounded.p99_ms,
        unbounded.p99_ms
    );
    table
}

// ---------------------------------------------------------------------------
// E20 — cost-aware placement of a heterogeneous script fleet
// ---------------------------------------------------------------------------

/// The step budget every E20 provider's interpreter enforces — and the bound
/// the cost gate proves admitted scripts against.
const E20_BUDGET: u64 = 50_000;

/// A counted-loop aggregator script: `4 + 3k` interpreter steps, all of them
/// provable by the static analysis.
fn e20_heavy(k: u32) -> String {
    format!("set i 0\nset acc 0\nwhile {{$i < {k}}} {{\nincr acc 2\nincr i\n}}\nbc_push OUT $acc")
}

/// The E20 script corpus: one light reader and three sizes of heavy loop
/// agent.  Every entry is statically bounded, vet-clean, and runtime-clean.
fn e20_corpus() -> Vec<(&'static str, String)> {
    vec![
        (
            "light",
            "set sum 0\nforeach x {1 2 3 4} { incr sum $x }\nbc_push OUT $sum".to_string(),
        ),
        ("heavy-3k", e20_heavy(3_000)),
        ("heavy-6k", e20_heavy(6_000)),
        ("heavy-9k", e20_heavy(9_000)),
    ]
}

/// One E20 measurement: the same script stream placed cost-blind (job-count
/// bumps) or cost-aware (kilostep bumps).
struct E20Outcome {
    requested: u64,
    completed: u64,
    failed: u64,
    rejected: u64,
    p95_ms: f64,
    p99_ms: f64,
    max_ms: f64,
    conserved: bool,
}

fn e20_run(aware: bool, opts: RunOpts) -> E20Outcome {
    use tacoma_script::CostGate;

    let sites = 8u32;
    let corpus = e20_corpus();
    // The proven upper bounds drive both the gate's COST stamp (service
    // stretching) and the aware arm's placement bumps.
    let bounds: Vec<u64> = corpus
        .iter()
        .map(|(name, src)| {
            tacoma_script::cost_bound(src)
                .unwrap_or_else(|e| panic!("E20 corpus '{name}' must parse: {e}"))
                .steps
                .hi
                .unwrap_or_else(|| panic!("E20 corpus '{name}' must be bounded"))
        })
        .collect();

    // Service time is dominated by the script's step bound: heavy agents are
    // an order of magnitude more work than light ones, which is exactly the
    // heterogeneity a job-count queue measure cannot see.
    let admission = AdmissionConfig {
        capacity: usize::MAX,
        service_floor: Duration::from_micros(200),
        service_per_kib: Duration::from_micros(100),
        service_per_kilostep: Duration::from_micros(500),
        deadline: None,
        janitor_period: Duration::from_millis(50),
    };
    let mut sys = TacomaSystem::builder()
        .topology(Topology::full_mesh(sites, LinkSpec::default()))
        .seed(2020)
        .admission(admission)
        .cost_gate(CostGate::strict(E20_BUDGET, 64))
        .with_agents(|_| vec![Box::new(AgTacAgent::with_step_budget(E20_BUDGET)) as Box<dyn Agent>])
        .build();

    // Driver-side broker state: one zero report per provider, optimistically
    // bumped at every placement — by job count (blind) or by the script's
    // expected kilosteps (aware).  Both arms use power-of-two-choices over
    // the same reports; the queue *measure* is the only difference.
    let mut db = ReportDb::new(Duration::from_secs(3_600));
    for s in 0..sites {
        db.ingest(
            LoadReport {
                site: SiteId(s),
                queue_len: 0,
                queue_cost: 0.0,
                capacity: 1.0,
                at_micros: 0,
            },
            0,
        );
    }

    let jobs = if opts.quick { 240 } else { 800 };
    let mut mix_rng = DetRng::new(2020);
    let mut place_rng = DetRng::new(2021);
    let mut rr = 0u64;
    for i in 0..jobs {
        // Three light readers to one heavy loop agent, heavies cycling
        // uniformly through the three loop sizes.
        let idx = if mix_rng.next_below(4) < 3 {
            0
        } else {
            1 + mix_rng.next_below(3) as usize
        };
        let reports = db.live(|_| true);
        let site = PlacementPolicy::PowerOfTwo
            .choose(&reports, 0, 0, &mut place_rng, &mut rr)
            .expect("E20 providers are always known");
        if aware {
            db.bump_cost(site, bounds[idx] as f64 / 1000.0);
        } else {
            db.bump(site);
        }
        let mut bc = Briefcase::new();
        bc.put_string(wellknown::CODE, corpus[idx].1.clone());
        sys.schedule_meet(
            site,
            AgentName::new(wellknown::AG_TAC),
            bc,
            Duration::from_micros(i),
        );
    }

    // The gate's two rejection classes, offered in both arms: a divergent
    // shell (no finite bound) and a certain-death loop whose proven *minimum*
    // exceeds the budget.  Neither may reach an interpreter.
    for bad in ["while {1} { bc_push OUT x }".to_string(), e20_heavy(20_000)] {
        let mut bc = Briefcase::new();
        bc.put_string(wellknown::CODE, bad);
        sys.schedule_meet(
            SiteId(0),
            AgentName::new(wellknown::AG_TAC),
            bc,
            Duration::from_micros(0),
        );
    }

    sys.run_until_quiescent(u64::MAX / 2);
    let s = sys.stats();
    let w = sys.net_metrics().admission_waits().clone();
    E20Outcome {
        requested: s.meets_requested,
        completed: s.meets_completed,
        failed: s.meets_failed,
        rejected: s.costs_rejected,
        p95_ms: w.percentile(95.0),
        p99_ms: w.percentile(99.0),
        max_ms: w.max(),
        conserved: s.conserved(0),
    }
}

/// E20: cost-aware placement of a heterogeneous script fleet.
///
/// A mixed stream of light reader scripts and heavy counted-loop agents is
/// placed over eight providers by power-of-two-choices, once with the
/// classic job-count queue measure and once with the cost-weighted measure
/// fed by the static analysis (`LoadReport::queue_cost`).  The cost gate is
/// armed in both arms: a divergent script and a certain-death loop are
/// rejected before any interpreter sees them (`costs_rejected`), and every
/// admitted script's proven bound is checked against the interpreter by the
/// driver — `meets_failed == 0` is the runtime half of the soundness claim,
/// since a blown step budget would fail its meet.  The acceptance bar is the
/// placement payoff: the cost-aware arm's p95 admission wait must beat the
/// cost-blind arm's.
pub fn e20_cost_placement(opts: RunOpts) -> Table {
    // In-driver soundness gate: every corpus script, run under a budget of
    // exactly its static upper bound, completes without exhausting it, and
    // its actual step count lands inside the proven interval.
    for (name, src) in e20_corpus() {
        let bound = tacoma_script::cost_bound(&src).expect("corpus parses");
        let hi = bound.steps.hi.expect("corpus is bounded");
        let mut host = tacoma_script::NullHost;
        let mut interp = tacoma_script::Interp::with_config(
            &mut host,
            tacoma_script::InterpConfig {
                max_steps: hi,
                max_depth: 64,
            },
        );
        let outcome = interp
            .run(&src)
            .unwrap_or_else(|e| panic!("E20 {name}: static bound {hi} is unsound: {e}"));
        assert!(
            bound.steps.lo <= outcome.steps && outcome.steps <= hi,
            "E20 {name}: ran {} steps outside proven [{}, {hi}]",
            outcome.steps,
            bound.steps.lo
        );
    }

    let mut table = Table::new(
        "E20 — cost-aware placement of a heterogeneous script fleet",
        "static cost bounds pay twice: the gate turns runaway scripts away at install time, and placing by expected kilosteps instead of job count cuts the tail wait of a heterogeneous fleet",
        &[
            "placement",
            "requested",
            "completed",
            "rejected",
            "p95 ms",
            "p99 ms",
            "max ms",
            "conserved",
        ],
    );
    let blind = e20_run(false, opts);
    let aware = e20_run(true, opts);
    for (label, o) in [
        ("cost-blind (job count)", &blind),
        ("cost-aware (kilosteps)", &aware),
    ] {
        table.row(vec![
            label.to_string(),
            o.requested.to_string(),
            o.completed.to_string(),
            o.rejected.to_string(),
            format!("{:.1}", o.p95_ms),
            format!("{:.1}", o.p99_ms),
            format!("{:.1}", o.max_ms),
            o.conserved.to_string(),
        ]);
    }
    for (label, o) in [("blind", &blind), ("aware", &aware)] {
        assert!(o.conserved, "E20 {label}: meet conservation violated");
        assert_eq!(
            o.rejected, 2,
            "E20 {label}: the divergent and certain-death scripts must both be rejected"
        );
        assert_eq!(
            o.failed, 0,
            "E20 {label}: an admitted script died at runtime — the gate's soundness claim is broken"
        );
        assert_eq!(
            o.completed, o.requested,
            "E20 {label}: every admitted script must complete"
        );
    }
    assert!(
        aware.p95_ms < blind.p95_ms,
        "E20: cost-aware placement must beat job-count placement on p95 wait ({:.1} vs {:.1})",
        aware.p95_ms,
        blind.p95_ms
    );
    table
}
