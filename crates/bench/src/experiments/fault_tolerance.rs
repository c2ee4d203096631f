//! Fault tolerance (§5): E9 rear guards, E14 custody under crash churn,
//! ablation A3's guard-chain depth, and the itinerary runner all three share.

use crate::runner::RunOpts;
use crate::table::Table;
use tacoma_core::prelude::*;
use tacoma_core::TacomaSystem;
use tacoma_ft::rear_guard::{
    traveller_briefcase, MissionControlAgent, TravellerAgent, COMPLETED, GUARD_DEPTH,
    MISSION_CABINET, TRAVELLER, VISITS_CABINET,
};
use tacoma_net::{CustodyConfig, FailurePlan, LinkSpec, Topology};
use tacoma_util::DetRng;

/// The shape of the itinerary each traveller follows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ItineraryShape {
    /// Visit distinct sites in a chain.
    Chain,
    /// Visit sites in a chain and then revisit the first half (a cycle).
    Cycle,
}

/// Parameters of one fault-tolerance run.
#[derive(Debug, Clone)]
pub struct FtConfig {
    /// Number of sites in the (full-mesh) network; site 0 is the origin and
    /// never crashes.
    pub sites: u32,
    /// Length of each traveller's itinerary.
    pub itinerary_len: usize,
    /// Shape of the itinerary.
    pub shape: ItineraryShape,
    /// Number of travellers launched.
    pub travellers: u32,
    /// Probability that each non-origin site suffers one outage during the run.
    pub crash_prob: f64,
    /// Window (milliseconds from the start) in which outages begin.  Keep it
    /// comparable to the travellers' journey time so failures actually
    /// intersect the computations being protected.
    pub crash_window_ms: u64,
    /// Outage duration range (milliseconds).
    pub downtime_ms: (u64, u64),
    /// Whether rear guards are installed.
    pub guarded: bool,
    /// How many trailing guards each traveller keeps alive (its
    /// `GUARD_DEPTH` folder); `None` writes no folder, leaving the
    /// traveller's default of 2.
    pub guard_depth: Option<usize>,
    /// Whether store-and-forward custody is enabled: meets to crashed or
    /// unreachable sites park and deliver on recovery instead of failing
    /// fast, and rear guards wait out custody-pending hops.
    pub custody: bool,
    /// Random seed.
    pub seed: u64,
}

impl Default for FtConfig {
    fn default() -> Self {
        FtConfig {
            sites: 8,
            itinerary_len: 6,
            shape: ItineraryShape::Chain,
            travellers: 20,
            crash_prob: 0.2,
            crash_window_ms: 20,
            downtime_ms: (200, 1_500),
            guarded: true,
            guard_depth: None,
            custody: false,
            seed: 99,
        }
    }
}

/// What one fault-tolerance run measured.
#[derive(Debug, Clone)]
pub struct FtResult {
    /// Travellers launched.
    pub launched: u32,
    /// Travellers whose completion reached mission control.
    pub completed: u32,
    /// Fraction completed.
    pub completion_rate: f64,
    /// Site-visits performed more than once (relaunch duplicates).
    pub duplicate_visits: u64,
    /// Total meets requested (guard overhead shows up here).
    pub meets: u64,
    /// Total bytes moved over the network.
    pub network_bytes: u64,
    /// Site crashes that actually occurred during the run.
    pub crashes: u64,
    /// Meets that completed successfully.
    pub meets_completed: u64,
    /// Meets that failed at dispatch.
    pub meets_failed: u64,
    /// Sends that failed fast (dead/unreachable destination, full custody queue).
    pub send_failures: u64,
    /// Custodied meets that expired undelivered.
    pub meets_expired: u64,
    /// Messages dropped in flight (zero when custody is enabled).
    pub dropped_messages: u64,
    /// Messages still parked in custody when the run was measured.
    pub custody_backlog: u64,
}

/// Runs one fault-tolerance experiment.
pub fn run_itinerary_experiment(config: &FtConfig) -> FtResult {
    let mut builder = TacomaSystem::builder()
        .topology(Topology::full_mesh(config.sites, LinkSpec::default()))
        .seed(config.seed)
        .with_agents(|_| vec![Box::new(TravellerAgent::new()) as Box<dyn Agent>]);
    if config.custody {
        builder = builder.custody(CustodyConfig::default());
    }
    let mut sys = builder.build();
    sys.register_agent(SiteId(0), Box::new(MissionControlAgent::new()));

    // Failure schedule: non-origin sites may suffer one outage each, starting
    // inside the crash window so the outages overlap the travellers' journeys.
    let mut fail_rng = DetRng::new(config.seed ^ 0xFA11);
    let plan = FailurePlan::random(
        &mut fail_rng,
        config.sites,
        &[SiteId(0)],
        config.crash_prob,
        Duration::from_millis(config.crash_window_ms.max(1)),
        Duration::from_millis(config.downtime_ms.0),
        Duration::from_millis(config.downtime_ms.1),
    );
    let crashes = plan.crashed_sites().len() as u64;
    sys.apply_failure_plan(&plan);

    // Launch the travellers with itineraries drawn from the non-origin sites.
    let mut itin_rng = DetRng::new(config.seed ^ 0x17E4);
    for t in 0..config.travellers {
        let mut pool: Vec<SiteId> = (1..config.sites).map(SiteId).collect();
        itin_rng.shuffle(&mut pool);
        let mut itinerary: Vec<SiteId> = pool
            .into_iter()
            .take(config.itinerary_len.min(config.sites as usize - 1))
            .collect();
        if config.shape == ItineraryShape::Cycle {
            let revisit: Vec<SiteId> = itinerary
                .iter()
                .copied()
                .take(itinerary.len() / 2)
                .collect();
            itinerary.extend(revisit);
        }
        let mut traveller =
            traveller_briefcase(&format!("job-{t}"), SiteId(0), &itinerary, config.guarded);
        if let Some(depth) = config.guard_depth {
            traveller.put_string(GUARD_DEPTH, depth.to_string());
        }
        sys.inject_meet(SiteId(0), AgentName::new(TRAVELLER), traveller);
    }

    sys.run_for(Duration::from_secs(40));
    if config.custody {
        // Drain the custody TTL alarms so every meet reaches a terminal
        // bucket (delivered or expired) before accounting is read.
        sys.run_until_quiescent(5_000_000);
    }

    let completed = sys
        .place(SiteId(0))
        .cabinets()
        .get(MISSION_CABINET)
        .and_then(|c| c.folder_ref(COMPLETED).map(|f| f.len() as u32))
        .unwrap_or(0);
    let duplicate_visits: u64 = (0..config.sites)
        .map(|s| {
            sys.place(SiteId(s))
                .cabinets()
                .get(VISITS_CABINET)
                .and_then(|c| c.folder_ref("DUPLICATES").map(|f| f.len() as u64))
                .unwrap_or(0)
        })
        .sum();

    let stats = sys.stats();
    FtResult {
        launched: config.travellers,
        completed,
        completion_rate: completed as f64 / config.travellers.max(1) as f64,
        duplicate_visits,
        meets: stats.meets_requested,
        network_bytes: sys.net_metrics().total_bytes().get(),
        crashes,
        meets_completed: stats.meets_completed,
        meets_failed: stats.meets_failed,
        send_failures: stats.send_failures,
        meets_expired: stats.meets_expired,
        dropped_messages: sys.net_metrics().dropped_messages(),
        custody_backlog: sys.net().custody_backlog() as u64,
    }
}

// ---------------------------------------------------------------------------
// E9 — rear guards
// ---------------------------------------------------------------------------

/// E9: completion probability and overhead with and without rear guards.
pub fn e9_rear_guard(opts: RunOpts) -> Table {
    let quick = opts.quick;
    let mut table = Table::new(
        "E9 — rear guards let computations survive site failures",
        "§5: a rear guard relaunches a vanished agent and terminates itself when no longer necessary",
        &["crash prob", "variant", "completed", "rate", "duplicate visits", "meets", "bytes"],
    );
    let probs: &[f64] = if quick { &[0.3] } else { &[0.0, 0.2, 0.5] };
    for &p in probs {
        for guarded in [false, true] {
            let result = run_itinerary_experiment(&FtConfig {
                sites: 10,
                itinerary_len: 6,
                travellers: if quick { 10 } else { 30 },
                crash_prob: p,
                crash_window_ms: 15,
                downtime_ms: (500, 3_000),
                guarded,
                seed: 909,
                ..Default::default()
            });
            table.row(vec![
                format!("{:.0}%", p * 100.0),
                if guarded { "rear guards" } else { "unguarded" }.to_string(),
                format!("{}/{}", result.completed, result.launched),
                format!("{:.0}%", result.completion_rate * 100.0),
                result.duplicate_visits.to_string(),
                result.meets.to_string(),
                result.network_bytes.to_string(),
            ]);
        }
    }
    table
}

// ---------------------------------------------------------------------------
// E14 — custody conservation under crash churn
// ---------------------------------------------------------------------------

/// E14: the guarded itinerary workload under heavy crash churn, fail-fast vs
/// custody.  The `conserved` flag asserts the meet-accounting invariant:
/// every requested meet lands in exactly one terminal bucket (completed,
/// failed, send-failed, expired, or — fail-fast only — dropped in flight).
pub fn e14_custody_churn(opts: RunOpts) -> Table {
    let quick = opts.quick;
    let mut table = Table::new(
        "E14 — custody conservation under crash churn",
        "§5: sites crash and recover; with custody every meet is delayed-but-delivered or terminally expired — none silently vanish",
        &[
            "variant",
            "travellers",
            "completed",
            "rate",
            "meets",
            "completed meets",
            "failed",
            "send failures",
            "expired",
            "dropped",
            "conserved",
        ],
    );
    let travellers = if quick { 15 } else { 40 };
    for custody in [false, true] {
        let result = run_itinerary_experiment(&FtConfig {
            sites: 10,
            itinerary_len: 6,
            travellers,
            crash_prob: 0.5,
            crash_window_ms: 15,
            downtime_ms: (500, 3_000),
            guarded: true,
            custody,
            seed: 1414,
            ..Default::default()
        });
        // Not `SystemStats::conserved`: a fail-fast run loses meets in flight.
        let terminal = result.meets_completed
            + result.meets_failed
            + result.send_failures
            + result.meets_expired
            + result.dropped_messages;
        let conserved = terminal == result.meets && result.custody_backlog == 0;
        table.row(vec![
            if custody { "custody" } else { "fail-fast" }.to_string(),
            result.launched.to_string(),
            result.completed.to_string(),
            format!("{:.0}%", result.completion_rate * 100.0),
            result.meets.to_string(),
            result.meets_completed.to_string(),
            result.meets_failed.to_string(),
            result.send_failures.to_string(),
            result.meets_expired.to_string(),
            result.dropped_messages.to_string(),
            conserved.to_string(),
        ]);
    }
    table
}

/// A3: rear-guard chain depth vs completion and overhead.
pub fn ablation_guard_depth(_opts: RunOpts) -> Table {
    let mut table = Table::new(
        "A3 — rear-guard chain depth",
        "design choice: how many trailing guards to keep alive (DESIGN.md §3, ablations)",
        &["guard depth", "completed", "rate", "meets", "bytes"],
    );
    // One failure schedule and one fleet; only the chain depth varies.
    for depth in [1usize, 2, 3] {
        let result = run_itinerary_experiment(&FtConfig {
            sites: 10,
            itinerary_len: 6,
            travellers: 20,
            crash_prob: 0.4,
            crash_window_ms: 15,
            downtime_ms: (500, 3_000),
            guarded: true,
            guard_depth: Some(depth),
            seed: 31_001,
            ..Default::default()
        });
        table.row(vec![
            depth.to_string(),
            format!("{}/{}", result.completed, result.launched),
            format!("{:.0}%", result.completion_rate * 100.0),
            result.meets.to_string(),
            result.network_bytes.to_string(),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_failures_everyone_completes_either_way() {
        for guarded in [false, true] {
            let result = run_itinerary_experiment(&FtConfig {
                crash_prob: 0.0,
                guarded,
                travellers: 10,
                ..Default::default()
            });
            assert_eq!(result.completed, 10, "guarded={guarded}");
            assert_eq!(result.crashes, 0);
        }
    }

    #[test]
    fn guards_cost_messages_but_nothing_else_when_no_failures() {
        let base = FtConfig {
            crash_prob: 0.0,
            travellers: 10,
            ..Default::default()
        };
        let unguarded = run_itinerary_experiment(&FtConfig {
            guarded: false,
            ..base
        });
        let guarded = run_itinerary_experiment(&FtConfig {
            guarded: true,
            ..base
        });
        assert!(
            guarded.meets > unguarded.meets,
            "guard installs/retires cost meets"
        );
        assert_eq!(guarded.completed, unguarded.completed);
    }

    #[test]
    fn guards_improve_completion_under_failures() {
        let base = FtConfig {
            sites: 10,
            itinerary_len: 7,
            travellers: 25,
            crash_prob: 0.5,
            crash_window_ms: 15,
            downtime_ms: (500, 3_000),
            seed: 2024,
            ..Default::default()
        };
        let unguarded = run_itinerary_experiment(&FtConfig {
            guarded: false,
            ..base
        });
        let guarded = run_itinerary_experiment(&FtConfig {
            guarded: true,
            ..base
        });
        assert!(
            guarded.crashes > 0,
            "the schedule must actually crash sites"
        );
        assert!(
            guarded.completion_rate > unguarded.completion_rate,
            "guarded {} should beat unguarded {}",
            guarded.completion_rate,
            unguarded.completion_rate
        );
        assert!(
            guarded.completion_rate >= 0.8,
            "guards should recover most computations"
        );
    }

    #[test]
    fn cyclic_itineraries_complete() {
        let result = run_itinerary_experiment(&FtConfig {
            shape: ItineraryShape::Cycle,
            crash_prob: 0.1,
            travellers: 10,
            ..Default::default()
        });
        assert!(result.completed >= 8);
    }

    #[test]
    fn custody_conserves_every_meet_under_crash_churn() {
        let result = run_itinerary_experiment(&FtConfig {
            sites: 10,
            itinerary_len: 7,
            travellers: 25,
            crash_prob: 0.5,
            crash_window_ms: 15,
            downtime_ms: (500, 3_000),
            guarded: true,
            custody: true,
            seed: 2026,
            ..Default::default()
        });
        assert!(result.crashes > 0, "the schedule must actually crash sites");
        assert_eq!(result.dropped_messages, 0, "custody never drops in flight");
        assert_eq!(result.custody_backlog, 0, "the drained run left no backlog");
        // Conservation: every requested meet landed in exactly one terminal
        // bucket.
        assert_eq!(
            result.meets,
            result.meets_completed
                + result.meets_failed
                + result.send_failures
                + result.meets_expired
        );
    }

    #[test]
    fn custody_beats_fail_fast_on_completions_under_churn() {
        let base = FtConfig {
            sites: 10,
            itinerary_len: 7,
            travellers: 25,
            crash_prob: 0.5,
            crash_window_ms: 15,
            downtime_ms: (500, 3_000),
            guarded: false,
            seed: 2027,
            ..Default::default()
        };
        let fail_fast = run_itinerary_experiment(&base);
        let custody = run_itinerary_experiment(&FtConfig {
            custody: true,
            ..base
        });
        assert!(
            custody.completed > fail_fast.completed,
            "delayed-but-delivered must beat fail-fast ({} vs {})",
            custody.completed,
            fail_fast.completed
        );
    }

    #[test]
    fn results_are_deterministic() {
        let cfg = FtConfig::default();
        let a = run_itinerary_experiment(&cfg);
        let b = run_itinerary_experiment(&cfg);
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.meets, b.meets);
        assert_eq!(a.network_bytes, b.network_bytes);
    }

    #[test]
    fn a3_deeper_guard_chains_cost_more_meets() {
        let table = ablation_guard_depth(RunOpts::new(true));
        let meets: Vec<u64> = table.rows.iter().map(|r| r[3].parse().unwrap()).collect();
        assert_eq!(meets.len(), 3);
        assert!(
            meets[0] < meets[1] && meets[1] < meets[2],
            "one schedule, deeper chains: meets must rise with depth, got {meets:?}"
        );
    }

    #[test]
    fn e14_accounting_is_conserved_in_both_modes() {
        let table = e14_custody_churn(RunOpts::new(true));
        assert_eq!(table.rows.len(), 2);
        for row in &table.rows {
            assert_eq!(row[10], "true", "conservation must hold: {row:?}");
        }
        let custody = &table.rows[1];
        assert_eq!(custody[7], "0", "custody has no send failures");
        assert_eq!(custody[9], "0", "custody drops nothing in flight");
    }
}
