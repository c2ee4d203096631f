//! `script_fleet`: eight thousand TacoScript agents through the install gates
//! and the interpreter.
//!
//! Chosen because the parser, the interpreter and the three install gates
//! (vet, fleet audit, cost) do almost all of the work here and almost none
//! anywhere else: the event queue, routing and the codec see a few thousand
//! small messages.  Scripts enter through `inject_meet` on an 8-site full
//! mesh and are executed by `ag_tac`.
//!
//! The seed picks the order the scripts are offered in and every script's
//! start site, itinerary and input values; how many scripts of each shape
//! there are is fixed, so the work is the same for every seed.  One script
//! in a hundred is a counted loop whose proven lower bound exceeds the gate's
//! budget; the gate must refuse exactly those.  The gate is lenient because
//! the recursive and the input-bound scripts have no finite proven bound.

use super::{thin, Capture, Harness, Outcome, ScriptSample, Size, Workload};
use crate::spans::{boxed, AgentClock};
use std::collections::BTreeMap;
use std::rc::Rc;
use tacoma_agents::ag_tac::DEFAULT_STEP_BUDGET;
use tacoma_agents::{script_briefcase, AgTacAgent, CourierAgent, DiffusionAgent, RexecAgent};
use tacoma_core::prelude::*;
use tacoma_core::TacomaSystem;
use tacoma_net::{LinkSpec, Topology};
use tacoma_script::{
    cost_bound, AuditConfig, CostGate, HostCall, Interp, InterpConfig, RecordingHost,
};
use tacoma_util::DetRng;

const SITES: u32 = 8;
/// The cost gate's step budget; the over-budget loops prove a lower bound
/// above it, every other script stays far below it.
const GATE_STEPS: u64 = 50_000;
const GATE_DEPTH: u64 = 64;
const OVER_BUDGET_ITERATIONS: u32 = 20_000;
const FIB_N: u64 = 10;
const TOUR_STOPS: usize = 6;

const HOP_COUNTER: &str = include_str!("../../../examples/scripts/hop_counter.taco");
const QUICKSTART_TOUR: &str = include_str!("../../../examples/scripts/quickstart_tour.taco");
const COURIER_SUMMARY: &str = include_str!("../../../examples/scripts/courier_summary.taco");

/// A counted loop of `k` iterations that files `2k`.
fn counted_loop(k: u32) -> String {
    format!(
        "set i 0\nset acc 0\nwhile {{$i < {k}}} {{\nincr acc 2\nincr i\n}}\n\
         cab_append results LOOP $acc\nreturn $acc"
    )
}

fn light(values: &[u64]) -> String {
    let list: Vec<String> = values.iter().map(u64::to_string).collect();
    format!(
        "set sum 0\nforeach x {{{}}} {{ incr sum $x }}\ncab_append results LIGHT $sum\nreturn $sum",
        list.join(" ")
    )
}

fn fib_script() -> String {
    format!(
        "proc fib {{n}} {{\n  if {{$n < 2}} {{ return $n }}\n  \
         return [expr [fib [expr $n - 1]] + [fib [expr $n - 2]]]\n}}\n\
         set f [fib {FIB_N}]\ncab_append results FIB $f\nreturn $f"
    )
}

fn fib(n: u64) -> u64 {
    (0..n).fold((0, 1), |(a, b), _| (b, a + b)).0
}

/// One script offered to the system.
struct Job {
    site: SiteId,
    /// Index into [`Fleet::sources`].
    source: usize,
    /// Folders injected next to `CODE`, as `(folder, element)` pairs.
    folders: Vec<(&'static str, String)>,
    /// Whether the cost gate must refuse it.
    over_budget: bool,
}

/// The generated inputs and everything they must produce.
struct Fleet {
    sources: Vec<String>,
    jobs: Vec<Job>,
    /// Exact cabinet contents: `(site, cabinet, folder)` → elements, any order.
    filed: BTreeMap<(u32, &'static str, &'static str), Vec<String>>,
    /// Tours that end at each site (each files its whole trail there).
    tours_ending: [u64; SITES as usize],
    /// Script executions per site, migrations included.
    visits: [u64; SITES as usize],
    migrations: u64,
    over_budget: u64,
    /// Routes the migrating scripts take.
    pairs: Vec<(SiteId, SiteId)>,
}

impl Fleet {
    fn source(&mut self, code: String) -> usize {
        match self.sources.iter().position(|s| *s == code) {
            Some(i) => i,
            None => {
                self.sources.push(code);
                self.sources.len() - 1
            }
        }
    }

    fn file(&mut self, site: SiteId, cabinet: &'static str, folder: &'static str, value: String) {
        self.filed
            .entry((site.0, cabinet, folder))
            .or_default()
            .push(value);
    }

    fn travel(&mut self, route: &[SiteId]) {
        for site in route {
            self.visits[site.index()] += 1;
        }
        for leg in route.windows(2) {
            self.migrations += 1;
            self.pairs.push((leg[0], leg[1]));
        }
    }
}

/// The shapes of script in the fleet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Light,
    Loop,
    Fib,
    Hops,
    Tour,
    Courier,
    OverBudget,
}

/// The mix, in scripts per thousand.  How many scripts of each shape are
/// offered is fixed, and so is the spread of shapes within a kind (loop
/// lengths, hop counts, list lengths cycle with the script's ordinal): the
/// interpreter steps — the work — do not depend on the seed.
const MIX: [(Kind, u32); 7] = [
    (Kind::Light, 300),
    (Kind::Loop, 300),
    (Kind::Fib, 100),
    (Kind::Hops, 100),
    (Kind::Tour, 100),
    (Kind::Courier, 90),
    (Kind::OverBudget, 10),
];

/// Generates the fleet from the seed: the order the scripts are offered in,
/// where each starts, its itinerary and its input values.  Closed forms for
/// every result are worked out here, independently of the interpreter.
fn generate(seed: u64, scripts: u32) -> Fleet {
    let mut rng = DetRng::new(seed).derive(0x5C21_F1EE);
    let mut fleet = Fleet {
        sources: Vec::new(),
        jobs: Vec::new(),
        filed: BTreeMap::new(),
        tours_ending: [0; SITES as usize],
        visits: [0; SITES as usize],
        migrations: 0,
        over_budget: 0,
        pairs: Vec::new(),
    };
    // Each script with its ordinal within its kind.
    let mut deck: Vec<(Kind, u64)> = MIX
        .iter()
        .flat_map(|(kind, permille)| {
            (0..u64::from(scripts * permille / 1000)).map(move |i| (*kind, i))
        })
        .collect();
    rng.shuffle(&mut deck);
    for (kind, ordinal) in deck {
        let mut site = SiteId(rng.next_below(u64::from(SITES)) as u32);
        let mut folders = Vec::new();
        let code = match kind {
            Kind::Light => {
                let values: Vec<u64> = (0..4 + ordinal % 5)
                    .map(|_| 1 + rng.next_below(9))
                    .collect();
                let sum = values.iter().sum::<u64>();
                fleet.file(site, "results", "LIGHT", sum.to_string());
                fleet.travel(&[site]);
                light(&values)
            }
            Kind::Loop => {
                let k = if ordinal % 3 == 0 { 400 } else { 100 };
                fleet.file(site, "results", "LOOP", (2 * k).to_string());
                fleet.travel(&[site]);
                counted_loop(k)
            }
            Kind::Fib => {
                fleet.file(site, "results", "FIB", fib(FIB_N).to_string());
                fleet.travel(&[site]);
                fib_script()
            }
            Kind::Hops => {
                let hops = 1 + (ordinal % (u64::from(SITES) - 1)) as u32;
                let route: Vec<SiteId> = (0..=hops).map(|h| SiteId((site.0 + h) % SITES)).collect();
                fleet.travel(&route);
                // HOPS must be a string element: the script compares it as text.
                folders.push(("HOPS", hops.to_string()));
                folders.push(("ORIGCODE", HOP_COUNTER.to_string()));
                HOP_COUNTER.to_string()
            }
            Kind::Tour => {
                let mut route = vec![site];
                for _ in 0..TOUR_STOPS {
                    let here = route[route.len() - 1];
                    let step = 1 + rng.next_below(u64::from(SITES) - 1) as u32;
                    let next = SiteId((here.0 + step) % SITES);
                    folders.push(("ITINERARY", next.0.to_string()));
                    route.push(next);
                }
                for stop in &route {
                    let line = format!("toured by quickstart at {}", stop.0);
                    fleet.file(*stop, "guestbook", "VISITORS", line);
                }
                fleet.tours_ending[route[TOUR_STOPS].index()] += 1;
                fleet.travel(&route);
                folders.push(("ORIGCODE", QUICKSTART_TOUR.to_string()));
                QUICKSTART_TOUR.to_string()
            }
            Kind::Courier => {
                // `send_remote 0 ag_tac SUMMARY` would carry no CODE, so the
                // courier is only ever offered at site 0, where it archives.
                site = SiteId(0);
                let results: Vec<u64> = (0..4 * (1 + ordinal % 4))
                    .map(|_| 1 + rng.next_below(999))
                    .collect();
                let summary = format!(
                    "count={} total={}",
                    results.len(),
                    results.iter().sum::<u64>()
                );
                fleet.file(site, "archive", "SUMMARY", summary);
                fleet.travel(&[site]);
                folders.extend(results.iter().map(|r| ("RESULTS", r.to_string())));
                COURIER_SUMMARY.to_string()
            }
            Kind::OverBudget => {
                fleet.over_budget += 1;
                counted_loop(OVER_BUDGET_ITERATIONS)
            }
        };
        let source = fleet.source(code);
        fleet.jobs.push(Job {
            site,
            source,
            folders,
            over_budget: kind == Kind::OverBudget,
        });
    }
    fleet
}

/// Interpreter steps `job` takes from injection to its last leg, replayed
/// through `Interp::run` on a recording host that stands in for `ag_tac` and
/// `rexec`; each leg must land inside the script's static cost interval.
fn replay_steps(code: &str, job: &Job) -> Result<u64, String> {
    let mut host = RecordingHost::new();
    host.site_count = u64::from(SITES);
    host.known_agents = vec![wellknown::REXEC.to_string()];
    host.briefcase
        .insert(wellknown::CODE.to_string(), vec![code.to_string()]);
    for (folder, value) in &job.folders {
        host.briefcase
            .entry(folder.to_string())
            .or_default()
            .push(value.clone());
    }
    host.site = u64::from(job.site.0);
    let mut total = 0;
    loop {
        // `ag_tac` pops the CODE element it runs.
        let Some(leg) = host.briefcase.get_mut(wellknown::CODE).and_then(Vec::pop) else {
            return Ok(total);
        };
        host.calls.clear();
        let config = InterpConfig {
            max_steps: DEFAULT_STEP_BUDGET,
            max_depth: GATE_DEPTH as u32,
        };
        let steps = Interp::with_config(&mut host, config)
            .run(&leg)
            .map_err(|e| format!("replay failed: {e}"))?
            .steps;
        let bound = cost_bound(&leg)
            .map_err(|e| format!("cost_bound: {e}"))?
            .steps;
        if steps < bound.lo || bound.hi.is_some_and(|hi| steps > hi) {
            return Err(format!(
                "{steps} steps outside the proven interval {}..{:?}",
                bound.lo, bound.hi
            ));
        }
        total += steps;
        if !host
            .calls
            .contains(&HostCall::Meet(wellknown::REXEC.to_string()))
        {
            return Ok(total);
        }
        // `rexec` consumes HOST and CONTACT and ships the rest.
        host.briefcase.remove(wellknown::CONTACT);
        host.site = host
            .briefcase
            .remove(wellknown::HOST)
            .and_then(|mut h| h.pop())
            .and_then(|h| h.parse().ok())
            .ok_or("rexec met without a HOST")?;
    }
}

/// Total interpreter steps of the admitted fleet: each distinct script ×
/// input is replayed once.
fn fleet_steps(fleet: &Fleet) -> Result<u64, String> {
    /// Source, start site and injected folders.
    type Input<'a> = (usize, u32, &'a [(&'static str, String)]);
    let mut memo: BTreeMap<Input<'_>, u64> = BTreeMap::new();
    let mut total = 0;
    for job in fleet.jobs.iter().filter(|j| !j.over_budget) {
        // Only the migrating scripts' steps can depend on where they start.
        let start = if job.folders.is_empty() {
            0
        } else {
            job.site.0
        };
        let key = (job.source, start, job.folders.as_slice());
        let steps = match memo.get(&key) {
            Some(steps) => *steps,
            None => {
                let steps = replay_steps(&fleet.sources[job.source], job)?;
                memo.insert(key, steps);
                steps
            }
        };
        total += steps;
    }
    Ok(total)
}

fn audit_config() -> AuditConfig {
    AuditConfig::new()
        .native(wellknown::REXEC)
        .deliver("LANDED")
        .deliver("SUMMARY")
        .deliver("TRAIL")
}

pub struct ScriptFleet;

pub struct World {
    sys: TacomaSystem,
    fleet: Fleet,
    /// One briefcase per job, in job order; taken by `drive`.
    briefcases: Vec<Briefcase>,
}

impl Workload for ScriptFleet {
    type World = World;

    fn build(seed: u64, size: Size, clock: Option<&Rc<AgentClock>>) -> World {
        let clock = clock.cloned();
        let sys = TacomaSystem::builder()
            .topology(Topology::full_mesh(SITES, LinkSpec::default()))
            .seed(seed)
            .audit_fleet(audit_config())
            .cost_gate(CostGate::lenient(GATE_STEPS, GATE_DEPTH))
            // `standard_agents`, with the two this workload exercises wrapped.
            .with_agents(move |_| {
                vec![
                    boxed(AgTacAgent::new(), clock.as_ref()),
                    boxed(RexecAgent::new(), clock.as_ref()),
                    Box::new(CourierAgent::new()),
                    Box::new(DiffusionAgent::new()),
                ]
            })
            .build();
        let fleet = generate(seed, size.pick(8_000, 400));
        let briefcases = fleet
            .jobs
            .iter()
            .map(|job| {
                let extra: Vec<(&str, &str)> =
                    job.folders.iter().map(|(f, v)| (*f, v.as_str())).collect();
                script_briefcase(&fleet.sources[job.source], &extra)
            })
            .collect();
        World {
            sys,
            fleet,
            briefcases,
        }
    }

    fn drive(world: &mut World, h: &mut Harness<'_>) {
        let World {
            sys,
            fleet,
            briefcases,
        } = world;
        let contact = AgentName::new(wellknown::AG_TAC);
        for (job, briefcase) in fleet.jobs.iter().zip(briefcases.drain(..)) {
            h.inject(|| sys.inject_meet(job.site, contact.clone(), briefcase));
        }
        h.drain(sys);
    }

    fn verify(world: World, events: u64) -> Outcome {
        let World { sys, fleet, .. } = world;
        let mut out = Outcome::default();
        out.observe_system(&sys, events);
        let s = out.stats;
        out.check(s.costs_rejected == fleet.over_budget, || {
            format!(
                "cost gate refused {}, {} over-budget scripts offered",
                s.costs_rejected, fleet.over_budget
            )
        });
        out.check(s.scripts_rejected == 0 && s.audits_rejected == 0, || {
            format!(
                "vet refused {}, audit refused {}",
                s.scripts_rejected, s.audits_rejected
            )
        });
        out.check(s.meets_failed == 0, || {
            format!("{} meets failed", s.meets_failed)
        });
        out.check(s.remote_meets == fleet.migrations, || {
            format!(
                "{} migrations, {} planned",
                s.remote_meets, fleet.migrations
            )
        });
        for site in 0..SITES {
            let place = sys.place(SiteId(site));
            let ran = place.stats().meets_ok;
            let planned = fleet.visits[site as usize];
            out.check(ran == planned, || {
                format!("site {site}: {ran} scripts ran, {planned} planned")
            });
            let trail = place
                .cabinets()
                .get("archive")
                .and_then(|c| c.folder_ref("TRAIL"))
                .map_or_else(Vec::new, |f| f.strings());
            let expected = fleet.tours_ending[site as usize] * (TOUR_STOPS as u64 + 1);
            out.check(
                trail.len() as u64 == expected && trail.iter().all(|t| t.starts_with("visited ")),
                || {
                    format!(
                        "site {site}: {} trail entries, {expected} expected",
                        trail.len()
                    )
                },
            );
        }
        for ((site, cabinet, folder), want) in &fleet.filed {
            let mut got = sys
                .place(SiteId(*site))
                .cabinets()
                .get(cabinet)
                .and_then(|c| c.folder_ref(folder))
                .map_or_else(Vec::new, |f| f.strings());
            got.sort();
            let mut want = want.clone();
            want.sort();
            out.check(got == want, || {
                format!(
                    "site {site} {cabinet}/{folder}: {} entries differ from the {} expected",
                    got.len(),
                    want.len()
                )
            });
        }
        match fleet_steps(&fleet) {
            Ok(steps) => out.steps = Some(steps),
            Err(e) => out.violations.push(e),
        }
        let rejects = s.scripts_rejected + s.audits_rejected + s.costs_rejected;
        out.counts.extend([
            ("core.system.gate_rejects", rejects as f64),
            (
                "script.parser.source_kib",
                fleet
                    .jobs
                    .iter()
                    .map(|j| fleet.sources[j.source].len() as f64 / 1024.0)
                    .sum(),
            ),
        ]);
        out.attempted = s.meets_requested + rejects;
        // A refusal the generator planned is a clean outcome; any other is not.
        out.off_nominal =
            out.terminal_meets() - s.meets_completed + rejects.abs_diff(fleet.over_budget);
        out.unplanned = out.off_nominal;
        out.capture = Capture {
            topology: Some(Topology::full_mesh(SITES, LinkSpec::default())),
            scripts: thin(
                fleet
                    .jobs
                    .iter()
                    .map(|j| ScriptSample {
                        code: fleet.sources[j.source].clone(),
                        folders: j.folders.iter().map(|(f, _)| *f).collect(),
                    })
                    .collect(),
            ),
            pairs: thin(fleet.pairs),
            audit: Some(audit_config()),
            ..Capture::default()
        };
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fibonacci_reference() {
        assert_eq!([fib(0), fib(1), fib(2), fib(10)], [0, 1, 1, 55]);
    }

    #[test]
    fn generation_is_a_pure_function_of_the_seed() {
        let (a, b, c) = (generate(5, 300), generate(5, 300), generate(6, 300));
        let key = |f: &Fleet| -> Vec<(u32, usize, usize)> {
            f.jobs
                .iter()
                .map(|j| (j.site.0, j.source, j.folders.len()))
                .collect()
        };
        assert_eq!(key(&a), key(&b));
        assert_ne!(key(&a), key(&c));
        assert_eq!(
            a.visits.iter().sum::<u64>(),
            300 - a.over_budget + a.migrations
        );
        // The mix is exact, whatever the seed.
        assert_eq!((a.jobs.len(), a.over_budget), (300, 3));
        assert_eq!(a.migrations, c.migrations);
        assert_eq!(fleet_steps(&a).unwrap(), fleet_steps(&c).unwrap());
    }

    #[test]
    fn replay_counts_every_leg_of_a_migrating_script() {
        let job = Job {
            site: SiteId(6),
            source: 0,
            folders: vec![("HOPS", "3".into()), ("ORIGCODE", HOP_COUNTER.into())],
            over_budget: false,
        };
        let one_leg = Job {
            folders: vec![("HOPS", "0".into()), ("ORIGCODE", HOP_COUNTER.into())],
            ..Job {
                site: SiteId(6),
                source: 0,
                folders: vec![],
                over_budget: false,
            }
        };
        let hopping = replay_steps(HOP_COUNTER, &job).unwrap();
        let landing = replay_steps(HOP_COUNTER, &one_leg).unwrap();
        assert!(landing > 0);
        assert!(
            hopping > 3 * landing,
            "{hopping} steps over four legs, {landing} to land"
        );
    }
}
