//! Cross-crate integration tests: whole-system scenarios spanning the runtime,
//! the script interpreter, the system agents, cash, scheduling and fault
//! tolerance.  The scheduling and fault-tolerance runs go through the same
//! runners the bench harness uses.

use tacoma::agents::diffusion::{BULLETIN, DIFFUSION_CABINET};
use tacoma::agents::{diffusion_briefcase, script_briefcase, standard_agents};
use tacoma::cash::{cash_briefcase, wallet_from_briefcase, MintAgent};
use tacoma::prelude::*;
use tacoma::sched::PlacementPolicy;
use tacoma::util::DetRng;
use tacoma_bench::{run_itinerary_experiment, run_scheduling_experiment};
use tacoma_bench::{FtConfig, SchedulingConfig};

fn system(sites: u32, seed: u64) -> TacomaSystem {
    TacomaSystem::builder()
        .topology(Topology::full_mesh(sites, LinkSpec::default()))
        .seed(seed)
        .with_agents(standard_agents)
        .build()
}

#[test]
fn script_agent_chains_migration_cabinets_and_courier() {
    // A script agent hops 0 -> 1 -> 2, accumulating data, and at the last stop
    // files everything into a cabinet; a second, independent agent then reads
    // that cabinet — communication between agents that were never co-resident,
    // which is exactly what §2 says site-local folders are for.
    let mut sys = system(3, 99);
    let hop_code = r#"
        bc_push DATA "from [my_site]"
        set next [bc_dequeue ITINERARY]
        if {$next ne ""} {
            bc_push CODE [bc_peek ORIGCODE]
            bc_put HOST $next
            bc_put CONTACT ag_tac
            meet rexec
        } else {
            foreach d [bc_list DATA] { cab_append shared RESULTS $d }
        }
    "#;
    let mut bc = script_briefcase(hop_code, &[]);
    bc.put_string("ORIGCODE", hop_code);
    bc.folder_mut("ITINERARY").enqueue(b"1");
    bc.folder_mut("ITINERARY").enqueue(b"2");
    sys.inject_meet(SiteId(0), AgentName::new("ag_tac"), bc);
    sys.run_until_quiescent(10_000);

    let reader_code = r#"
        set n [llength [cab_list shared RESULTS]]
        bc_put COUNT $n
        return $n
    "#;
    let reply = sys
        .try_direct_meet(
            SiteId(2),
            &AgentName::new("ag_tac"),
            script_briefcase(reader_code, &[]),
        )
        .expect("reader agent runs");
    assert_eq!(reply.peek_string("COUNT").as_deref(), Some("3"));
    assert_eq!(sys.stats().meets_failed, 0);
}

#[test]
fn diffusion_and_cash_coexist_in_one_system() {
    // Flood an announcement while a purchase is being validated — the two
    // subsystems share the same kernel, sites and network.
    let mut sys = system(6, 123);
    let mut mint_agent = MintAgent::new(5);
    let wallet = mint_agent.mint_mut().issue_wallet(4, 25);
    sys.register_agent(SiteId(3), Box::new(mint_agent));

    sys.inject_meet(
        SiteId(0),
        AgentName::new("diffusion"),
        diffusion_briefcase("sale", "mint open for business at site 3"),
    );
    sys.run_until_quiescent(100_000);

    // Everyone heard the announcement.
    for s in 0..6 {
        let bulletin = sys
            .place(SiteId(s))
            .cabinets()
            .get(DIFFUSION_CABINET)
            .and_then(|c| c.folder_ref(BULLETIN).map(|f| f.len()))
            .unwrap_or(0);
        assert_eq!(
            bulletin, 1,
            "site {s} should have the announcement exactly once"
        );
    }

    // Pay at the mint and verify the reissued bills replace the old ones.
    let reply = sys
        .try_direct_meet(SiteId(3), &AgentName::new("mint"), cash_briefcase(&wallet))
        .expect("valid cash validates");
    let fresh = wallet_from_briefcase(&reply);
    assert_eq!(fresh.total(), wallet.total());
    // Replaying the old bills is now foiled.
    assert!(sys
        .try_direct_meet(SiteId(3), &AgentName::new("mint"), cash_briefcase(&wallet))
        .is_err());
}

#[test]
fn site_recovery_restores_system_agents_and_flushed_state() {
    let mut sys = system(3, 7);
    // A script agent stores durable state and flushes the cabinet... via a
    // native helper since flushing is a kernel service.
    struct Archivist;
    impl Agent for Archivist {
        fn name(&self) -> AgentName {
            AgentName::new("archivist")
        }
        fn meet(&mut self, ctx: &mut MeetCtx<'_>, bc: Briefcase) -> MeetOutcome {
            if let Some(note) = bc.peek_string("NOTE") {
                ctx.cabinet("archive").append_str("NOTES", &note);
                ctx.flush_cabinet("archive");
            }
            Ok(Briefcase::new())
        }
    }
    sys.register_agent(SiteId(1), Box::new(Archivist));
    let mut bc = Briefcase::new();
    bc.put_string("NOTE", "survive me");
    sys.inject_meet(SiteId(1), AgentName::new("archivist"), bc);
    sys.run_until_quiescent(1_000);

    let plan = tacoma::net::FailurePlan::none().outage(
        SiteId(1),
        sys.now() + Duration::from_millis(1),
        Duration::from_millis(10),
    );
    sys.apply_failure_plan(&plan);
    sys.run_until_quiescent(1_000);

    assert!(sys.net().is_up(SiteId(1)));
    let place = sys.place(SiteId(1));
    // The standard agents are back after recovery and the flushed archive survived.
    assert!(place.has_agent(&AgentName::new("rexec")));
    assert!(place.has_agent(&AgentName::new("ag_tac")));
    assert!(place.cabinets().contains("archive"));
    // But the archivist itself was registered manually, not via a factory, so
    // it is gone — recovery reinstalls only the default agent set.
    assert!(!place.has_agent(&AgentName::new("archivist")));
}

#[test]
fn scheduling_experiment_places_work_on_faster_providers() {
    let config = SchedulingConfig {
        providers: 4,
        capacities: vec![1.0, 1.0, 4.0, 4.0],
        jobs: 60,
        mean_job_ms: 50.0,
        mean_interarrival_ms: 10.0,
        policy: PlacementPolicy::LoadBased,
        seed: 11,
        ..Default::default()
    };
    let jobs = run_scheduling_experiment(&config).jobs;
    assert_eq!(jobs.completed, 60);
    let slow: u64 = jobs.per_provider[0] + jobs.per_provider[1];
    let fast: u64 = jobs.per_provider[2] + jobs.per_provider[3];
    assert!(
        fast > slow,
        "the load-based broker should favour the 4x-faster providers (fast={fast}, slow={slow})"
    );
}

#[test]
fn rear_guards_change_the_outcome_under_injected_failures() {
    let base = FtConfig {
        sites: 9,
        itinerary_len: 6,
        travellers: 20,
        crash_prob: 0.5,
        crash_window_ms: 12,
        downtime_ms: (800, 2_500),
        seed: 4242,
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
    assert!(guarded.completion_rate >= unguarded.completion_rate);
    assert!(guarded.meets > unguarded.meets, "guards are not free");
}

#[test]
fn deterministic_end_to_end_replay() {
    // The same seed gives byte-for-byte identical network accounting across a
    // non-trivial mixed workload — the property every experiment relies on.
    let run = |seed: u64| {
        let mut sys = system(4, seed);
        sys.inject_meet(
            SiteId(0),
            AgentName::new("diffusion"),
            diffusion_briefcase("m", "payload"),
        );
        let code = "if {[my_site] == 1} { move_to 2 } else { cab_append t DONE x }";
        sys.inject_meet(
            SiteId(1),
            AgentName::new("ag_tac"),
            script_briefcase(code, &[]),
        );
        sys.run_until_quiescent(100_000);
        (
            sys.net_metrics().total_bytes().get(),
            sys.stats().meets_completed,
            sys.now(),
        )
    };
    assert_eq!(run(55), run(55));
    let mut rng = DetRng::new(1);
    assert_ne!(rng.next_u64(), 0);
}
