//! The E1–E20 experiment drivers and the design-choice ablations.

use crate::runner::RunOpts;
use crate::table::Table;
use tacoma_agents::testing::SinkAgent;
use tacoma_agents::{
    diffusion_briefcase, naive_flood_briefcase, standard_agents, AgTacAgent, NaiveFloodAgent,
};
use tacoma_apps::{run_mail_experiment, run_stormcast, MailConfig, StormcastConfig, StormcastPlan};
use tacoma_cash::{AuditCourt, ExchangeConfig, ExchangeProtocol, Mint, PartyBehavior};
use tacoma_core::prelude::*;
use tacoma_core::{Folder, TacomaSystem};
use tacoma_ft::{run_itinerary_experiment, BrokerGuardAgent, FtConfig};
use tacoma_net::{CustodyConfig, FailurePlan, LinkSpec, SimTime, Topology};
use tacoma_sched::federation::{
    build_federation, drive_federation, install_sources, run_federation_experiment,
    FederationConfig, FederationResult,
};
use tacoma_sched::protected::{secret_agent_name, AdmissionPolicy, REQUESTER};
use tacoma_sched::{
    run_scheduling_experiment, LoadReport, PlacementPolicy, ProtectedBrokerAgent, ReportDb,
    SchedulingConfig,
};
use tacoma_util::{DetRng, SiteId as USiteId};

// ---------------------------------------------------------------------------
// E1 — bandwidth conservation: filter at the data vs ship raw data
// ---------------------------------------------------------------------------

/// A data-holding site's server agent for the client-server plan: ships its
/// whole dataset to the sink at the origin.
struct RawServer;
impl Agent for RawServer {
    fn name(&self) -> AgentName {
        AgentName::new("raw_server")
    }
    fn meet(&mut self, ctx: &mut MeetCtx<'_>, bc: Briefcase) -> MeetOutcome {
        let origin = bc
            .peek_string(wellknown::ORIGIN)
            .and_then(|s| s.parse::<u32>().ok())
            .unwrap_or(0);
        let records: Vec<String> = ctx
            .cabinet("dataset")
            .folder("RECORDS")
            .map(|f| f.strings())
            .unwrap_or_default();
        let mut out = Briefcase::new();
        let folder = out.folder_mut("RAW");
        for r in records {
            folder.push_str(r);
        }
        ctx.remote_meet(
            USiteId(origin),
            AgentName::new(SinkAgent::NAME),
            out,
            TransportKind::Tcp,
        );
        Ok(Briefcase::new())
    }
}

/// The itinerant filtering agent for the agent plan: keeps only matching
/// records and carries them onward.
struct FilterCollector;
impl Agent for FilterCollector {
    fn name(&self) -> AgentName {
        AgentName::new("filter_collector")
    }
    fn meet(&mut self, ctx: &mut MeetCtx<'_>, mut bc: Briefcase) -> MeetOutcome {
        let records: Vec<String> = ctx
            .cabinet("dataset")
            .folder("RECORDS")
            .map(|f| f.strings())
            .unwrap_or_default();
        for r in records.into_iter().filter(|r| r.starts_with("match")) {
            bc.folder_mut("MATCHES").push_str(r);
        }
        let next = bc
            .folder_mut(wellknown::ITINERARY)
            .dequeue_str()
            .and_then(|s| s.parse::<u32>().ok());
        match next {
            Some(site) => ctx.remote_meet(
                USiteId(site),
                AgentName::new("filter_collector"),
                bc,
                TransportKind::Tcp,
            ),
            None => {
                let origin = bc
                    .peek_string(wellknown::ORIGIN)
                    .and_then(|s| s.parse::<u32>().ok())
                    .unwrap_or(0);
                ctx.remote_meet(
                    USiteId(origin),
                    AgentName::new(SinkAgent::NAME),
                    bc,
                    TransportKind::Tcp,
                );
            }
        }
        Ok(Briefcase::new())
    }
}

fn e1_run(
    sites: u32,
    records_per_site: u32,
    selectivity: f64,
    agent_plan: bool,
    seed: u64,
) -> (u64, f64) {
    let mut sys = TacomaSystem::builder()
        .topology(Topology::star(sites + 1, LinkSpec::wan()))
        .seed(seed)
        .build();
    sys.register_agent(USiteId(0), Box::new(SinkAgent::new()));
    let mut rng = DetRng::new(seed ^ 0xE1);
    for s in 1..=sites {
        sys.register_agent(USiteId(s), Box::new(RawServer));
        sys.register_agent(USiteId(s), Box::new(FilterCollector));
        let cab = sys.place_mut(USiteId(s)).cabinets_mut().cabinet("dataset");
        for i in 0..records_per_site {
            let tag = if rng.chance(selectivity) {
                "match"
            } else {
                "other"
            };
            // 64-byte fixed-width records keep byte accounting interpretable.
            cab.append_str("RECORDS", format!("{tag},{s:>4},{i:>8},{:>44}", "payload"));
        }
    }
    sys.reset_net_metrics();
    if agent_plan {
        let mut bc = Briefcase::new();
        bc.put_string(wellknown::ORIGIN, "0");
        let itin = bc.folder_mut(wellknown::ITINERARY);
        for s in 2..=sites {
            itin.enqueue(s.to_string().into_bytes());
        }
        sys.inject_meet(USiteId(1), AgentName::new("filter_collector"), bc);
    } else {
        for s in 1..=sites {
            let mut bc = Briefcase::new();
            bc.put_string(wellknown::ORIGIN, "0");
            sys.inject_meet(USiteId(s), AgentName::new("raw_server"), bc);
        }
    }
    sys.run_until_quiescent(1_000_000);
    (
        sys.net_metrics().total_bytes().get(),
        sys.now().as_millis_f64(),
    )
}

/// E1: bytes on the wire, agent plan vs client-server, over data sizes and
/// selectivities (§1's bandwidth-conservation claim).
pub fn e1_bandwidth(opts: RunOpts) -> Table {
    let quick = opts.quick;
    let mut table = Table::new(
        "E1 — bandwidth conservation (filter at the data)",
        "§1: \"communication-network bandwidth is conserved … there is rarely a need to transmit raw data\"",
        &["sites", "records/site", "selectivity", "agent bytes", "client-server bytes", "saving"],
    );
    let sweeps: &[(u32, u32, f64)] = if quick {
        &[(8, 1_000, 0.01)]
    } else {
        &[
            (8, 1_000, 0.01),
            (8, 1_000, 0.10),
            (8, 10_000, 0.01),
            (16, 5_000, 0.01),
        ]
    };
    for &(sites, records, selectivity) in sweeps {
        let (agent_bytes, _) = e1_run(sites, records, selectivity, true, 7);
        let (cs_bytes, _) = e1_run(sites, records, selectivity, false, 7);
        table.row(vec![
            sites.to_string(),
            records.to_string(),
            format!("{:.0}%", selectivity * 100.0),
            agent_bytes.to_string(),
            cs_bytes.to_string(),
            tacoma_util::factor(cs_bytes as f64, agent_bytes as f64),
        ]);
    }
    table
}

// ---------------------------------------------------------------------------
// E2 — diffusion vs naive flooding
// ---------------------------------------------------------------------------

fn e2_run(topology: Topology, naive: bool) -> (u64, u64, usize) {
    let mut sys = TacomaSystem::builder()
        .topology(topology)
        .seed(2)
        .with_agents(standard_agents)
        .build();
    let sites = sys.site_count();
    for s in 0..sites {
        sys.register_agent(USiteId(s), Box::new(NaiveFloodAgent::new()));
    }
    if naive {
        sys.inject_meet(
            USiteId(0),
            AgentName::new(NaiveFloodAgent::NAME),
            naive_flood_briefcase("m", "announcement", sites as u64),
        );
    } else {
        sys.inject_meet(
            USiteId(0),
            AgentName::new(wellknown::DIFFUSION),
            diffusion_briefcase("m", "announcement"),
        );
    }
    sys.run_until_quiescent(2_000_000);
    let covered = (0..sites)
        .filter(|s| {
            sys.place(USiteId(*s))
                .cabinets()
                .get(tacoma_agents::diffusion::DIFFUSION_CABINET)
                .map(|c| c.payload_bytes() > 0)
                .unwrap_or(false)
        })
        .count();
    (
        sys.stats().meets_requested,
        sys.net_metrics().total_bytes().get(),
        covered,
    )
}

/// E2: agents spawned and bytes moved by bounded diffusion vs naive flooding.
pub fn e2_diffusion(opts: RunOpts) -> Table {
    let quick = opts.quick;
    let mut table = Table::new(
        "E2 — diffusion bounded by site-local folders",
        "§2: without the site-local visited folder \"the number of agents increases without bound\"",
        &["topology", "sites", "variant", "agent meets", "bytes", "coverage"],
    );
    let mut rng = DetRng::new(22);
    let topologies: Vec<(&str, Topology)> = if quick {
        vec![("ring", Topology::ring(8, LinkSpec::default()))]
    } else {
        vec![
            ("ring", Topology::ring(16, LinkSpec::default())),
            ("grid", Topology::grid(4, 4, LinkSpec::default())),
            (
                "random",
                Topology::random_connected(24, 12, LinkSpec::default(), &mut rng),
            ),
        ]
    };
    for (name, topology) in topologies {
        let sites = topology.site_count();
        for naive in [false, true] {
            let (meets, bytes, covered) = e2_run(topology.clone(), naive);
            table.row(vec![
                name.to_string(),
                sites.to_string(),
                if naive {
                    "naive flood (hop-limited)"
                } else {
                    "diffusion (paper)"
                }
                .to_string(),
                meets.to_string(),
                bytes.to_string(),
                format!("{covered}/{sites}"),
            ]);
        }
    }
    table
}

// ---------------------------------------------------------------------------
// E3 — meet and rexec migration cost
// ---------------------------------------------------------------------------

/// Runs one migration of `payload` bytes over `transport`, returning
/// (simulated ms, wire bytes).
pub fn e3_migrate_once(payload: usize, transport: TransportKind) -> (f64, u64) {
    let mut sys = TacomaSystem::builder()
        .topology(Topology::full_mesh(2, LinkSpec::default()))
        .seed(3)
        .with_agents(standard_agents)
        .build();
    sys.register_agent(USiteId(1), Box::new(SinkAgent::new()));
    let mut bc = Briefcase::new();
    bc.put_string(wellknown::HOST, "1");
    bc.put_string(wellknown::CONTACT, SinkAgent::NAME);
    bc.put_string(
        wellknown::TRANSPORT,
        match transport {
            TransportKind::Rsh => "rsh",
            TransportKind::Tcp => "tcp",
            TransportKind::Horus => "horus",
        },
    );
    bc.folder_mut("PAYLOAD").push(vec![0u8; payload]);
    sys.inject_meet(USiteId(0), AgentName::new(wellknown::REXEC), bc);
    sys.run_until_quiescent(1_000);
    (
        sys.now().as_millis_f64(),
        sys.net_metrics().total_bytes().get(),
    )
}

/// Performs `n` purely local meets (procedure-call analogue) and returns the
/// simulated time per meet in microseconds.
pub fn e3_local_meets(n: u64) -> f64 {
    let mut sys = TacomaSystem::builder()
        .topology(Topology::full_mesh(1, LinkSpec::default()))
        .seed(3)
        .build();
    sys.register_agent(USiteId(0), Box::new(SinkAgent::new()));
    for _ in 0..n {
        let mut bc = Briefcase::new();
        bc.put_string("X", "y");
        sys.inject_meet(USiteId(0), AgentName::new(SinkAgent::NAME), bc);
    }
    sys.run_until_quiescent(10 * n);
    sys.now().micros() as f64 / n.max(1) as f64
}

/// E3: migration cost by payload size and transport personality.
pub fn e3_meet_rexec(opts: RunOpts) -> Table {
    let quick = opts.quick;
    let mut table = Table::new(
        "E3 — meet and rexec migration cost",
        "§2/§6: meet is a procedure call; rexec has rsh, TCP and Horus implementations that differ in setup cost",
        &["payload", "transport", "simulated ms", "wire bytes"],
    );
    let payloads: &[usize] = if quick {
        &[1024]
    } else {
        &[0, 1024, 65_536, 1_048_576]
    };
    for &payload in payloads {
        for transport in TransportKind::ALL {
            let (ms, bytes) = e3_migrate_once(payload, transport);
            table.row(vec![
                format!("{payload} B"),
                transport.label().to_string(),
                format!("{ms:.3}"),
                bytes.to_string(),
            ]);
        }
    }
    table.row(vec![
        "—".into(),
        "local meet".into(),
        format!("{:.4}", e3_local_meets(1000) / 1000.0),
        "0".into(),
    ]);
    table
}

// ---------------------------------------------------------------------------
// E4 — folders, briefcases and cabinets
// ---------------------------------------------------------------------------

/// E4: folder/briefcase/cabinet operation costs and move costs.
pub fn e4_folders(opts: RunOpts) -> Table {
    let quick = opts.quick;
    let mut table = Table::new(
        "E4 — folders are cheap to move, cabinets are cheap to access",
        "§2: cabinets may use access-optimising structures \"even if this increases the cost of moving\"",
        &["elements", "briefcase wire bytes", "cabinet move bytes", "briefcase scan hit", "cabinet indexed hit"],
    );
    let sizes: &[usize] = if quick {
        &[1_000]
    } else {
        &[10, 1_000, 100_000]
    };
    for &n in sizes {
        let mut folder = Folder::new();
        for i in 0..n {
            folder.push_str(format!("element-{i:08}"));
        }
        let mut bc = Briefcase::new();
        bc.put("DATA", folder.clone());
        let wire = bc.wire_size();

        let mut cab = tacoma_core::FileCabinet::new();
        for elem in folder.iter() {
            cab.append("DATA", elem);
        }
        let move_cost = cab.move_cost_bytes();
        let needle = format!("element-{:08}", n - 1);
        let scan_hit = bc
            .folder("DATA")
            .map(|f| f.contains_elem(needle.as_bytes()))
            .unwrap_or(false);
        let indexed_hit = cab.contains_elem(needle.as_bytes());
        table.row(vec![
            n.to_string(),
            wire.to_string(),
            move_cost.to_string(),
            scan_hit.to_string(),
            indexed_hit.to_string(),
        ]);
    }
    table
}

// ---------------------------------------------------------------------------
// E5 — electronic cash and double spending
// ---------------------------------------------------------------------------

/// E5: double-spend acceptance with and without the validation agent.
pub fn e5_cash(opts: RunOpts) -> Table {
    let quick = opts.quick;
    let mut table = Table::new(
        "E5 — the validation agent foils double spending",
        "§3: \"an attempt by an agent to spend retired or copied ECUs will be foiled if a validation agent is always consulted\"",
        &["wallet ECUs", "transfers", "replay rate", "accepted double-spends (no validation)", "accepted (with validation)", "mint state"],
    );
    let sweeps: &[(usize, usize, f64)] = if quick {
        &[(100, 200, 0.25)]
    } else {
        &[
            (10, 100, 0.10),
            (100, 500, 0.10),
            (100, 500, 0.50),
            (1_000, 2_000, 0.25),
        ]
    };
    for &(ecus, transfers, replay_rate) in sweeps {
        let mut mint = Mint::new(5);
        let mut wallet = mint.issue_wallet(ecus, 10);
        let mut rng = DetRng::new(55);
        let mut spent: Vec<tacoma_cash::Ecu> = Vec::new();
        let mut naive_accepted = 0u64;
        let mut validated_accepted = 0u64;
        for _ in 0..transfers {
            let replay = !spent.is_empty() && rng.chance(replay_rate);
            let bills = if replay {
                vec![spent[rng.index(spent.len())]]
            } else {
                match wallet.withdraw_at_least(10) {
                    Some(b) => b,
                    None => break,
                }
            };
            // A recipient that skips validation accepts anything well-formed.
            naive_accepted += u64::from(replay);
            // A recipient that consults the validation agent first:
            match mint.validate_and_reissue(&bills) {
                Ok(fresh) => {
                    if replay {
                        validated_accepted += 1;
                    } else {
                        spent.extend(bills);
                        // The recipient banks the fresh bills; conserve value by
                        // returning them to the circulating wallet.
                        wallet.deposit_all(fresh);
                    }
                }
                Err(_) => {
                    if !replay {
                        // A fresh bill should never be rejected.
                        wallet.deposit_all(bills);
                    }
                }
            }
        }
        table.row(vec![
            ecus.to_string(),
            transfers.to_string(),
            format!("{:.0}%", replay_rate * 100.0),
            naive_accepted.to_string(),
            validated_accepted.to_string(),
            format!("{} serials", mint.outstanding()),
        ]);
    }
    table
}

// ---------------------------------------------------------------------------
// E6 — audited exchange
// ---------------------------------------------------------------------------

/// E6: cheat detection by audits, and message overhead vs a transaction baseline.
pub fn e6_exchange(opts: RunOpts) -> Table {
    let quick = opts.quick;
    let mut table = Table::new(
        "E6 — audits instead of transactions",
        "§3: participants document actions; \"a third party … can perform an audit to find violations of a contract\"",
        &["exchanges", "cheat rate", "cheaters detected", "missed", "false accusations", "msgs/exchange (audit)", "msgs/exchange (2PC baseline)"],
    );
    let sweeps: &[(u64, f64)] = if quick {
        &[(100, 0.2)]
    } else {
        &[(200, 0.1), (200, 0.3), (500, 0.2)]
    };
    for &(exchanges, cheat_rate) in sweeps {
        let mut mint = Mint::new(6);
        let mut wallet = mint.issue_wallet(exchanges as usize * 2, 10);
        let mut rng = DetRng::new(66);
        let mut court = AuditCourt::new();
        let mut cheaters = 0u64;
        let mut messages = 0u64;
        for id in 0..exchanges {
            let customer = if rng.chance(cheat_rate) {
                PartyBehavior::Cheats
            } else {
                PartyBehavior::Honest
            };
            let provider = if rng.chance(cheat_rate) {
                PartyBehavior::Cheats
            } else {
                PartyBehavior::Honest
            };
            if customer == PartyBehavior::Cheats || provider == PartyBehavior::Cheats {
                cheaters += 1;
            }
            let config = ExchangeConfig {
                exchange_id: id,
                price: 10,
                customer_key: 0xAA00 + id,
                provider_key: 0xBB00 + id,
                customer,
                provider,
            };
            let outcome = ExchangeProtocol::run(&mut mint, config, &mut wallet);
            messages += outcome.messages as u64;
            court.audit_outcome(
                &outcome,
                config.customer_key,
                config.provider_key,
                customer == PartyBehavior::Honest,
                provider == PartyBehavior::Honest,
            );
        }
        let stats = court.stats();
        table.row(vec![
            exchanges.to_string(),
            format!("{:.0}%", cheat_rate * 100.0),
            format!("{}/{}", cheaters - stats.missed, cheaters),
            stats.missed.to_string(),
            stats.false_accusations.to_string(),
            format!("{:.1}", messages as f64 / exchanges as f64),
            // Two-phase commit with a coordinator: prepare+vote for both
            // parties plus commit+ack — and it requires a trusted coordinator.
            "6.0 (+trusted coordinator)".to_string(),
        ]);
    }
    table
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
            result.completed.to_string(),
            providers.to_string(),
            format!("{:.1}", result.makespan_ms),
            format!("{:.1}", result.mean_wait_ms),
            format!("{:.1}", result.p95_wait_ms),
            format!("{:.2}", result.imbalance),
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
        USiteId(0),
        Box::new(Oracle {
            name: secret.clone(),
        }),
    );
    sys.register_agent(
        USiteId(0),
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
        match sys.try_direct_meet(USiteId(0), &AgentName::new("service_broker"), bc) {
            Ok(_) => allowed += 1,
            Err(_) => denied += 1,
        }
        // Meanwhile an adversary guesses plausible names directly.
        let guess = format!("protected-svc-{i}");
        if sys
            .try_direct_meet(USiteId(0), &AgentName::new(guess), Briefcase::new())
            .is_ok()
        {
            guessed += 1;
        }
    }
    let queued = sys
        .place(USiteId(0))
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
// E10 — applications
// ---------------------------------------------------------------------------

/// E10: StormCast and AgentMail end-to-end runs.
pub fn e10_apps(opts: RunOpts) -> Table {
    let quick = opts.quick;
    let mut table = Table::new(
        "E10 — prototype applications: StormCast and AgentMail",
        "§6: StormCast storm prediction and an \"interactive mail system where messages are implemented by agents\"",
        &["application", "configuration", "bytes", "outcome"],
    );
    let sensors = if quick { 6 } else { 12 };
    let readings = if quick { 200 } else { 500 };
    for plan in [StormcastPlan::Agent, StormcastPlan::ClientServer] {
        let r = run_stormcast(&StormcastConfig {
            sensors,
            readings_per_sensor: readings,
            storm_fraction: 0.25,
            plan,
            seed: 1995,
        });
        table.row(vec![
            "StormCast".into(),
            r.plan.label().to_string(),
            r.network_bytes.to_string(),
            format!("{} warning(s), latency {:.1} ms", r.warnings, r.latency_ms),
        ]);
    }
    let mail = run_mail_experiment(&MailConfig {
        sites: 6,
        users: 12,
        messages: if quick { 20 } else { 60 },
        moved_fraction: 0.25,
        seed: 3,
    });
    table.row(vec![
        "AgentMail".into(),
        format!("{} messages, 25% moved users", mail.sent),
        mail.network_bytes.to_string(),
        format!(
            "{} delivered ({} via forwarding), {} dead letters",
            mail.delivered, mail.forwarded_deliveries, mail.dead_letters
        ),
    ]);
    table
}

// ---------------------------------------------------------------------------
// E11 — routing fast path at scale
// ---------------------------------------------------------------------------

/// Forwards a fixed-size load report to the site named in the `TO` folder
/// (delivered to that site's sink agent).  The broker-report half of the
/// E11/E12 mixed workload.
struct ReporterAgent;
impl Agent for ReporterAgent {
    fn name(&self) -> AgentName {
        AgentName::new("reporter")
    }
    fn meet(&mut self, ctx: &mut MeetCtx<'_>, bc: Briefcase) -> MeetOutcome {
        let to = bc
            .peek_string("TO")
            .and_then(|s| s.parse::<u32>().ok())
            .unwrap_or(0);
        let mut report = Briefcase::new();
        report.folder_mut("REPORT").push(vec![0u8; 96]);
        ctx.remote_meet(
            USiteId(to),
            AgentName::new(SinkAgent::NAME),
            report,
            TransportKind::Tcp,
        );
        Ok(Briefcase::new())
    }
}

/// Walks its `ITINERARY` folder one remote meet at a time, carrying its
/// briefcase (payload included) along — the migration half of the workload.
struct HopperAgent;
impl Agent for HopperAgent {
    fn name(&self) -> AgentName {
        AgentName::new("hopper")
    }
    fn meet(&mut self, ctx: &mut MeetCtx<'_>, mut bc: Briefcase) -> MeetOutcome {
        let next = bc
            .folder_mut(wellknown::ITINERARY)
            .dequeue_str()
            .and_then(|s| s.parse::<u32>().ok());
        if let Some(site) = next {
            ctx.remote_meet(
                USiteId(site),
                AgentName::new("hopper"),
                bc,
                TransportKind::Tcp,
            );
            return Ok(Briefcase::new());
        }
        Ok(bc)
    }
}

/// Shape and intensity of one E11/E12 run.
struct ScaleConfig {
    cliques: u32,
    clique_size: u32,
    rounds: u32,
    hoppers: u32,
    hop_len: u32,
    seed: u64,
}

/// Counters a scale run reports.
struct ScaleOutcome {
    meets: u64,
    bytes: u64,
    send_failures: u64,
    dropped: u64,
    route_queries: u64,
    bfs_runs: u64,
    epoch: u64,
}

fn scale_system(cfg: &ScaleConfig) -> (TacomaSystem, Vec<Vec<u32>>) {
    let topology = Topology::ring_of_cliques(
        cfg.cliques,
        cfg.clique_size,
        LinkSpec::lan(),
        LinkSpec::wan(),
    );
    let mut sys = TacomaSystem::builder()
        .topology(topology)
        .seed(cfg.seed)
        .with_agents(|_| {
            vec![
                Box::new(ReporterAgent) as Box<dyn Agent>,
                Box::new(HopperAgent) as Box<dyn Agent>,
                Box::new(SinkAgent::new()) as Box<dyn Agent>,
            ]
        })
        .build();
    // Fixed itineraries, drawn once: the same commute repeats every round,
    // which is exactly the locality a route cache exists to exploit.
    let sites = sys.site_count();
    let mut rng = DetRng::new(cfg.seed ^ 0x11);
    let itineraries: Vec<Vec<u32>> = (0..cfg.hoppers)
        .map(|_| {
            (0..=cfg.hop_len)
                .map(|_| rng.next_below(sites as u64) as u32)
                .collect()
        })
        .collect();
    sys.reset_net_metrics();
    (sys, itineraries)
}

/// One round of the mixed workload: every clique member reports to its
/// gateway broker, every broker gossips to the next clique's broker around
/// the ring, and every hopper walks its (fixed) itinerary.
fn scale_round(sys: &mut TacomaSystem, cfg: &ScaleConfig, itineraries: &[Vec<u32>]) {
    let k = cfg.clique_size;
    for c in 0..cfg.cliques {
        let broker = c * k;
        for m in 1..k {
            let mut bc = Briefcase::new();
            bc.put_string("TO", broker.to_string());
            sys.inject_meet(USiteId(c * k + m), AgentName::new("reporter"), bc);
        }
        let mut bc = Briefcase::new();
        bc.put_string("TO", (((c + 1) % cfg.cliques) * k).to_string());
        sys.inject_meet(USiteId(broker), AgentName::new("reporter"), bc);
    }
    for itinerary in itineraries {
        let mut bc = Briefcase::new();
        bc.folder_mut("PAYLOAD").push(vec![0u8; 256]);
        let folder = bc.folder_mut(wellknown::ITINERARY);
        for &site in &itinerary[1..] {
            folder.enqueue(site.to_string().into_bytes());
        }
        sys.inject_meet(USiteId(itinerary[0]), AgentName::new("hopper"), bc);
    }
    sys.run_until_quiescent(u64::MAX / 2);
}

fn scale_outcome(sys: &TacomaSystem) -> ScaleOutcome {
    let (route_queries, bfs_runs) = sys.net().routing_work();
    ScaleOutcome {
        meets: sys.stats().meets_requested,
        bytes: sys.net_metrics().total_bytes().get(),
        send_failures: sys.stats().send_failures,
        dropped: sys.net_metrics().dropped_messages(),
        route_queries,
        bfs_runs,
        epoch: sys.net().route_epoch(),
    }
}

fn e11_run(cfg: &ScaleConfig) -> ScaleOutcome {
    let (mut sys, itineraries) = scale_system(cfg);
    for _ in 0..cfg.rounds {
        scale_round(&mut sys, cfg, &itineraries);
    }
    scale_outcome(&sys)
}

/// E11: the scale sweep — ring-of-cliques topologies under the mixed agent
/// workload.  Without the route cache every query would run its own BFS, so
/// the `bfs (uncached)` column is the query count and `bfs saving` is the
/// cache's payoff (`net/tests/route_cache.rs` checks the cached answers
/// against a from-scratch BFS).
pub fn e11_scale(opts: RunOpts) -> Table {
    let quick = opts.quick;
    let mut table = Table::new(
        "E11 — routing fast path at scale (ring of cliques)",
        "§4: state dissemination \"seems to be equivalent to routing in a wide-area network\" — cached routes make large topologies affordable",
        &[
            "sites",
            "cliques",
            "rounds",
            "meets",
            "bytes",
            "route queries",
            "bfs (cached)",
            "bfs (uncached)",
            "bfs saving",
        ],
    );
    let sweeps: &[(u32, u32, u32, u32)] = if quick {
        // (cliques, clique_size, rounds, hoppers)
        &[(8, 8, 12, 2)]
    } else {
        &[(8, 8, 12, 2), (32, 8, 15, 8), (128, 8, 15, 32)]
    };
    for &(cliques, clique_size, rounds, hoppers) in sweeps {
        let cfg = ScaleConfig {
            cliques,
            clique_size,
            rounds,
            hoppers,
            hop_len: 6,
            seed: 1111,
        };
        let fast = e11_run(&cfg);
        table.row(vec![
            (cliques * clique_size).to_string(),
            cliques.to_string(),
            rounds.to_string(),
            fast.meets.to_string(),
            fast.bytes.to_string(),
            fast.route_queries.to_string(),
            fast.bfs_runs.to_string(),
            fast.route_queries.to_string(),
            tacoma_util::factor(fast.route_queries as f64, fast.bfs_runs as f64),
        ]);
    }
    table
}

// ---------------------------------------------------------------------------
// E12 — partition churn: cache invalidation under failures
// ---------------------------------------------------------------------------

/// Two identical traffic rounds (so within-epoch cache reuse stays visible
/// amid the churn): every site reports once across the ring and once to a
/// same-half neighbour clique.
fn e12_burst(sys: &mut TacomaSystem, sites: u32, clique_size: u32) {
    let half = sites / 2;
    for _ in 0..2 {
        e12_round(sys, sites, clique_size, half);
    }
    sys.run_until_quiescent(u64::MAX / 2);
}

fn e12_round(sys: &mut TacomaSystem, sites: u32, clique_size: u32, half: u32) {
    for s in 0..sites {
        // One report across the ring (blocked while partitioned) ...
        let mut cross = Briefcase::new();
        cross.put_string("TO", ((s + half) % sites).to_string());
        sys.inject_meet(USiteId(s), AgentName::new("reporter"), cross);
        // ... and one to a same-half neighbour clique (always routable).
        let local = (s + clique_size) % half + if s >= half { half } else { 0 };
        let mut near = Briefcase::new();
        near.put_string("TO", local.to_string());
        sys.inject_meet(USiteId(s), AgentName::new("reporter"), near);
    }
}

fn e12_run(cliques: u32, clique_size: u32, cycles: u32) -> ScaleOutcome {
    let cfg = ScaleConfig {
        cliques,
        clique_size,
        rounds: 0,
        hoppers: 0,
        hop_len: 0,
        seed: 1212,
    };
    let (mut sys, _) = scale_system(&cfg);
    let sites = cliques * clique_size;
    for cycle in 0..cycles {
        // Healthy burst.
        e12_burst(&mut sys, sites, clique_size);
        // Partition the first half of the cliques away and send again: the
        // cross-ring half of the traffic fails, the near half still routes.
        let group: Vec<USiteId> = (0..sites / 2).map(USiteId).collect();
        sys.net_mut().partition(&group);
        e12_burst(&mut sys, sites, clique_size);
        sys.net_mut().heal_partition();
        // A crash inside a cycle exercises liveness invalidation too.
        let victim = USiteId(1 + (cycle * clique_size) % (sites - 1));
        sys.net_mut().crash_now(victim);
        e12_burst(&mut sys, sites, clique_size);
        sys.net_mut().recover_now(victim);
    }
    scale_outcome(&sys)
}

/// E12: repeated partition/heal/crash/recover cycles under load.  The cache
/// re-validates routes across every epoch bump; as in E11, `bfs (uncached)`
/// is the query count.
pub fn e12_churn(opts: RunOpts) -> Table {
    let quick = opts.quick;
    let mut table = Table::new(
        "E12 — partition churn and route-cache invalidation",
        "§5: sites crash and networks partition; routing state must track failures without recomputing the world per message",
        &[
            "sites",
            "cycles",
            "meets",
            "send failures",
            "dropped",
            "bytes",
            "epoch bumps",
            "route queries",
            "bfs (cached)",
            "bfs (uncached)",
            "bfs saving",
        ],
    );
    let sweeps: &[(u32, u32, u32)] = if quick {
        // (cliques, clique_size, cycles)
        &[(4, 4, 4)]
    } else {
        &[(4, 4, 6), (8, 8, 8)]
    };
    for &(cliques, clique_size, cycles) in sweeps {
        let fast = e12_run(cliques, clique_size, cycles);
        table.row(vec![
            (cliques * clique_size).to_string(),
            cycles.to_string(),
            fast.meets.to_string(),
            fast.send_failures.to_string(),
            fast.dropped.to_string(),
            fast.bytes.to_string(),
            fast.epoch.to_string(),
            fast.route_queries.to_string(),
            fast.bfs_runs.to_string(),
            fast.route_queries.to_string(),
            tacoma_util::factor(fast.route_queries as f64, fast.bfs_runs as f64),
        ]);
    }
    table
}

// ---------------------------------------------------------------------------
// E13 — store-and-forward custody across partitions
// ---------------------------------------------------------------------------

/// Counters one E13 run reports.
struct E13Outcome {
    delivered_after_heal: u64,
    send_failures: u64,
    expired: u64,
    peak_bytes: u64,
    backlog: u64,
}

/// One partition-heal mail/gossip run: every site mails `msgs_per_site`
/// reports to its counterpart across the partition boundary, the partition
/// holds for two simulated seconds, then heals and the run drains.  With
/// `custody` set to `(capacity, ttl_ms)` the cross-partition legs park in
/// custody; with `None` they fail fast — the paper-motivating contrast.
fn e13_run(custody: Option<(usize, u64)>, msgs_per_site: u32) -> E13Outcome {
    let sites = 12u32;
    let mut builder = TacomaSystem::builder()
        .topology(Topology::full_mesh(sites, LinkSpec::wan()))
        .seed(1313)
        .with_agents(|_| {
            vec![
                Box::new(ReporterAgent) as Box<dyn Agent>,
                Box::new(SinkAgent::new()) as Box<dyn Agent>,
            ]
        });
    if let Some((capacity, ttl_ms)) = custody {
        builder = builder.custody(CustodyConfig {
            capacity,
            ttl: Duration::from_millis(ttl_ms),
        });
    }
    let mut sys = builder.build();
    let half = sites / 2;
    let group: Vec<USiteId> = (0..half).map(USiteId).collect();
    sys.net_mut().partition(&group);
    for _ in 0..msgs_per_site {
        for s in 0..sites {
            let mut bc = Briefcase::new();
            bc.put_string("TO", ((s + half) % sites).to_string());
            sys.inject_meet(USiteId(s), AgentName::new("reporter"), bc);
        }
    }
    // The partition holds for two simulated seconds, then heals.
    sys.run_for(Duration::from_secs(2));
    sys.net_mut().heal_partition();
    sys.run_until_quiescent(u64::MAX / 2);
    E13Outcome {
        delivered_after_heal: sys.net_metrics().custody_delivered(),
        send_failures: sys.stats().send_failures,
        expired: sys.stats().meets_expired,
        peak_bytes: sys.net_metrics().custody_peak_bytes(),
        backlog: sys.net().custody_backlog() as u64,
    }
}

/// E13: the delayed-but-delivered experiment — a partition-heal mail workload
/// under fail-fast vs custody, sweeping queue capacity and TTL.  Short TTLs
/// expire instead of delivering; small queues overflow into fail-fast.
pub fn e13_custody(opts: RunOpts) -> Table {
    let quick = opts.quick;
    let mut table = Table::new(
        "E13 — store-and-forward custody across partitions",
        "§1/§6: agents suit \"computers … only intermittently connected to a network\" — messages should ride out a partition, not fail fast",
        &[
            "variant",
            "capacity",
            "ttl ms",
            "cross msgs",
            "delivered after heal",
            "send failures",
            "expired",
            "peak custody bytes",
        ],
    );
    let msgs_per_site: u32 = if quick { 3 } else { 6 };
    let cross = (12 * msgs_per_site) as u64;
    let mut configs: Vec<Option<(usize, u64)>> = vec![
        None,               // fail-fast baseline
        Some((64, 10_000)), // ample queue, TTL outlives the partition
        Some((64, 500)),    // TTL expires before the heal
        Some((2, 10_000)),  // bounded queue overflows into fail-fast
    ];
    if !quick {
        configs.push(Some((4, 10_000)));
    }
    for config in configs {
        let outcome = e13_run(config, msgs_per_site);
        debug_assert_eq!(outcome.backlog, 0, "drained runs leave no backlog");
        let (variant, capacity, ttl) = match config {
            None => ("fail-fast".to_string(), "—".to_string(), "—".to_string()),
            Some((cap, ttl)) => ("custody".to_string(), cap.to_string(), ttl.to_string()),
        };
        table.row(vec![
            variant,
            capacity,
            ttl,
            cross.to_string(),
            outcome.delivered_after_heal.to_string(),
            outcome.send_failures.to_string(),
            outcome.expired.to_string(),
            outcome.peak_bytes.to_string(),
        ]);
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
        r.completed.to_string(),
        format!("{:.1}", r.p95_wait_ms),
        format!("{:.1}", r.mean_wait_ms),
        format!("{:.1}", r.makespan_ms),
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
    let single = run_federation_experiment(&e15_config(1, 250, PlacementPolicy::LoadBased, opts));
    e15_row(&mut table, "single load-based (seed)", "—", &single);
    let shard_sweep: &[u32] = if quick { &[8] } else { &[4, 8, 32] };
    for &shards in shard_sweep {
        let fed =
            run_federation_experiment(&e15_config(shards, 250, PlacementPolicy::PowerOfTwo, opts));
        e15_row(&mut table, "federated p2c + decay", "250", &fed);
    }
    let digest_sweep: &[u64] = if quick { &[1_000] } else { &[100, 1_000] };
    for &digest_ms in digest_sweep {
        let fed =
            run_federation_experiment(&e15_config(8, digest_ms, PlacementPolicy::PowerOfTwo, opts));
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
    let (mut sys, layout) = build_federation(&config);
    if guarded {
        // Each broker is watched by a guard at the next broker's site; the
        // guard re-adopts the shard after three missed 150 ms checks.
        for b in 0..shards as usize {
            let backup = (b + 1) % shards as usize;
            sys.register_agent(
                layout.broker_sites[backup],
                Box::new(BrokerGuardAgent::new(
                    layout.broker_sites[b],
                    b as u32,
                    layout.providers_by_shard[b].clone(),
                    Duration::from_millis(150),
                    3,
                )),
            );
        }
    }
    sys.run_for(Duration::from_millis(20));
    sys.reset_net_metrics();
    // Clients fail over to the guard's site when the federation has one;
    // without guards (and for the single broker) there is nowhere to go.
    let backups: Vec<tacoma_util::SiteId> = (0..shards as usize)
        .map(|b| {
            if guarded {
                layout.broker_sites[(b + 1) % shards as usize]
            } else {
                layout.broker_sites[b]
            }
        })
        .collect();
    install_sources(&mut sys, &config, &layout, &backups);
    let plan = FailurePlan::none().outage(
        layout.broker_sites[0],
        SimTime::ZERO + Duration::from_millis(500),
        Duration::from_secs(4),
    );
    sys.apply_failure_plan(&plan);
    drive_federation(&mut sys, &config, &layout, Duration::from_secs(20))
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
            (r.completed + r.orphaned).to_string(),
            r.completed.to_string(),
            r.orphaned.to_string(),
            r.adoptions.to_string(),
            r.forwarded.to_string(),
            r.send_failures.to_string(),
            r.meets_expired.to_string(),
            format!("{:.1}", r.makespan_ms),
            (r.orphaned == 0).to_string(),
        ]);
    }
    table
}

// ---------------------------------------------------------------------------
// E17 — event engine scale sweep
// ---------------------------------------------------------------------------

/// What one E17 run leaves behind: functions of the simulated event set alone.
struct E17Outcome {
    events: u64,
    delivered: u64,
    hops: u64,
    bytes: u64,
    digest: u64,
    end: SimTime,
}

/// One FNV-1a step over a whole word: order-sensitive, which is what a
/// per-site digest of "what arrived here, in which order" needs.
fn e17_fold(state: u64, word: u64) -> u64 {
    (state ^ word).wrapping_mul(0x0000_0100_0000_01b3)
}

/// Gossip on `ring_of_cliques(cliques, 8)` through the engine every other
/// experiment runs on: each site arms all its rounds up front (a standing
/// agenda of sites × rounds timers), and each round sends two 512-byte
/// messages carrying a random tag, one in a hundred to another clique.
fn e17_gossip(cliques: u32, rounds: u32) -> E17Outcome {
    use tacoma_net::{Duration, Event, SendOptions, SimNet};
    const CLIQUE: u32 = 8;
    const INTERVAL_US: u64 = 2_000;

    let topology = Topology::ring_of_cliques(cliques, CLIQUE, LinkSpec::lan(), LinkSpec::wan());
    let mut net = SimNet::new(topology);
    let master = DetRng::new(7);
    let mut sites: Vec<(DetRng, u64)> = (0..u64::from(cliques * CLIQUE))
        .map(|s| (master.derive(s), s))
        .collect();
    for (s, (rng, _)) in sites.iter_mut().enumerate() {
        for round in 0..u64::from(rounds) {
            let at = INTERVAL_US * round + rng.next_below(INTERVAL_US);
            net.schedule_timer(USiteId(s as u32), Duration::from_micros(at), round);
        }
    }
    let mut events = 0;
    while let Some(event) = net.step() {
        events += 1;
        match event {
            Event::Timer { site, key } => {
                let (rng, digest) = &mut sites[site.index()];
                *digest = e17_fold(*digest, key);
                let own = site.0 / CLIQUE;
                for _ in 0..2 {
                    let cross = cliques > 1 && rng.next_below(1000) < 10;
                    let clique = if cross {
                        (own + 1 + rng.next_below(u64::from(cliques) - 1) as u32) % cliques
                    } else {
                        own
                    };
                    let mut member = rng.next_below(u64::from(CLIQUE)) as u32;
                    if clique * CLIQUE + member == site.0 {
                        member = (member + 1) % CLIQUE;
                    }
                    let tag = rng.next_u64();
                    *digest = e17_fold(*digest, tag);
                    let mut payload = vec![0; 512];
                    payload[..8].copy_from_slice(&tag.to_le_bytes());
                    net.send(SendOptions {
                        from: site,
                        to: USiteId(clique * CLIQUE + member),
                        payload,
                        kind: 17,
                        transport: TransportKind::Tcp,
                        custody: false,
                    })
                    .expect("no site ever goes down in E17");
                }
            }
            Event::Message(msg) => {
                let tag = u64::from_le_bytes(msg.payload[..8].try_into().expect("8-byte tag"));
                let digest = &mut sites[msg.to.index()].1;
                *digest = e17_fold(e17_fold(*digest, tag), msg.payload.len() as u64);
            }
            other => unreachable!("E17 arms only timers and sends: {other:?}"),
        }
    }
    let metrics = net.metrics();
    E17Outcome {
        events,
        delivered: metrics.delivered_messages(),
        hops: metrics.total_hops(),
        bytes: metrics.total_bytes().get(),
        digest: sites.iter().fold(7, |acc, (_, d)| e17_fold(acc, *d)),
        end: net.now(),
    }
}

/// E17: the scale sweep of the one event engine — the same gossip agenda on
/// `SimNet` at growing site counts, one row each.  Wall-clock throughput goes
/// into the table's notes, outside the gated report.
pub fn e17_scale_sweep(opts: RunOpts) -> Table {
    let mut table = Table::new(
        "E17 — event engine scale sweep",
        "scaling TACOMA's simulated WAN past 4096 sites: one event loop over one calendar queue carries the gossip agenda from 512 to 16384 sites",
        &[
            "sites",
            "events",
            "delivered",
            "hops",
            "bytes",
            "digest",
            "end ms",
        ],
    );
    // (cliques, rounds).  Rounds shrink as sites grow so the full sweep stays
    // a quarter-minute job; the site counts are the point.
    let points: &[(u32, u32)] = if opts.quick {
        &[(64, 64)]
    } else {
        &[(64, 64), (512, 256), (2_048, 32)]
    };
    for &(cliques, rounds) in points {
        let sites = cliques * 8;
        let start = std::time::Instant::now();
        let outcome = e17_gossip(cliques, rounds);
        let wall = start.elapsed().as_secs_f64();
        table.row(vec![
            sites.to_string(),
            outcome.events.to_string(),
            outcome.delivered.to_string(),
            outcome.hops.to_string(),
            outcome.bytes.to_string(),
            format!("{:016x}", outcome.digest),
            format!("{:.1}", outcome.end.as_millis_f64()),
        ]);
        table.note(format!(
            "{sites} sites: {:.0} events/s ({wall:.2}s wall)",
            outcome.events as f64 / wall.max(1e-9)
        ));
    }
    table
}

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
// E19 — regional flash crowd against the federation
// ---------------------------------------------------------------------------

/// Relays open-arrival submissions to a shard's broker.  Scheduled meets
/// carry a `TIMER` folder, which the broker would mistake for its own digest
/// tick — the relay strips it and ships the submit over the network, which
/// also charges the client->broker bytes honestly.
struct CrowdSourceAgent {
    broker: USiteId,
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
    use tacoma_sched::agents::{DONE, JOB, JOBS_CABINET, JOB_SIZE, REQUEST};
    use tacoma_util::Summary;

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
                first_site: USiteId(crowd_region * sites_per_shard),
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

    let mut per_region: Vec<Summary> = (0..config.shards).map(|_| Summary::new()).collect();
    let mut completed = 0u64;
    for shard in 0..config.shards {
        for site in &layout.providers_by_shard[shard as usize] {
            if let Some(done) = sys
                .place(*site)
                .cabinets()
                .get(JOBS_CABINET)
                .and_then(|c| c.folder_ref(DONE).cloned())
            {
                for record in done.strings() {
                    let wait: u64 = record
                        .split(':')
                        .nth(1)
                        .and_then(|s| s.parse().ok())
                        .unwrap_or(0);
                    completed += 1;
                    per_region[shard as usize].add(wait as f64 / 1000.0);
                }
            }
        }
    }
    let shed: u64 = layout
        .broker_sites
        .iter()
        .map(|b| {
            sys.place(*b)
                .cabinets()
                .get(tacoma_sched::federation::BROKER_CABINET)
                .and_then(|c| {
                    c.folder_ref(tacoma_sched::federation::SHED)
                        .map(|f| f.len() as u64)
                })
                .unwrap_or(0)
        })
        .sum();
    let forwarded: u64 = layout
        .broker_sites
        .iter()
        .map(|b| {
            sys.place(*b)
                .cabinets()
                .get(tacoma_sched::federation::BROKER_CABINET)
                .and_then(|c| {
                    c.folder_ref(tacoma_sched::federation::FWD)
                        .map(|f| f.len() as u64)
                })
                .unwrap_or(0)
        })
        .sum();
    let calm_p95_ms = (0..config.shards)
        .filter(|r| *r != crowd_region)
        .map(|r| per_region[r as usize].percentile(95.0))
        .fold(0.0f64, f64::max);
    E19Outcome {
        submitted,
        completed,
        shed,
        forwarded,
        crowd_p95_ms: per_region[crowd_region as usize].percentile(95.0),
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
                site: USiteId(s),
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
            USiteId(0),
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

// ---------------------------------------------------------------------------
// Ablations
// ---------------------------------------------------------------------------

/// A3: rear-guard chain depth vs completion and overhead.
pub fn ablation_guard_depth(_opts: RunOpts) -> Table {
    let mut table = Table::new(
        "A3 — rear-guard chain depth",
        "design choice: how many trailing guards to keep alive (DESIGN.md §3, ablations)",
        &["guard depth", "completed", "rate", "meets", "bytes"],
    );
    // Depth is communicated to the travellers through the GUARD_DEPTH folder;
    // the experiment driver does not expose it directly, so run the underlying
    // scenario at the rear_guard level for depths 1..=3.
    for depth in [1usize, 2, 3] {
        let result = run_itinerary_experiment(&FtConfig {
            sites: 10,
            itinerary_len: 6,
            travellers: 20,
            crash_prob: 0.4,
            crash_window_ms: 15,
            downtime_ms: (500, 3_000),
            guarded: true,
            seed: 31_000 + depth as u64,
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
            format!("{:.1}", result.mean_wait_ms),
            format!("{:.1}", result.p95_wait_ms),
            format!("{:.2}", result.imbalance),
            result.network_bytes.to_string(),
        ]);
    }
    table
}

/// Runs every experiment sequentially and returns the tables in order.
///
/// Thin wrapper over [`crate::runner::registry`] — the registry is the single
/// source of truth for which jobs exist and how quick mode configures them;
/// use [`crate::runner::run_jobs`] when you also want reports or parallelism.
pub fn all_experiments(opts: RunOpts) -> Vec<Table> {
    crate::runner::registry()
        .into_iter()
        .map(|spec| (spec.run)(opts))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e1_agents_win_on_selective_queries() {
        let table = e1_bandwidth(RunOpts::new(true));
        assert_eq!(table.rows.len(), 1);
        let agent: u64 = table.rows[0][3].parse().unwrap();
        let cs: u64 = table.rows[0][4].parse().unwrap();
        assert!(
            agent < cs,
            "agent {agent} should be below client-server {cs}"
        );
    }

    #[test]
    fn e2_naive_flooding_costs_more() {
        let table = e2_diffusion(RunOpts::new(true));
        let bounded: u64 = table.rows[0][3].parse().unwrap();
        let naive: u64 = table.rows[1][3].parse().unwrap();
        assert!(naive > bounded);
        assert!(table.rows[0][5].starts_with('8'), "full coverage expected");
    }

    #[test]
    fn e3_rsh_is_slowest_transport() {
        let table = e3_meet_rexec(RunOpts::new(true));
        let ms: Vec<f64> = table.rows[..3]
            .iter()
            .map(|r| r[2].parse().unwrap())
            .collect();
        // Rows are rsh, tcp, horus for the single payload.
        assert!(ms[0] > ms[1]);
        assert!(ms[0] > ms[2]);
    }

    #[test]
    fn e5_validation_blocks_all_double_spends() {
        let table = e5_cash(RunOpts::new(true));
        assert!(!table.rows[0][5].is_empty());
        let with_validation: u64 = table.rows[0][4].parse().unwrap();
        let without: u64 = table.rows[0][3].parse().unwrap();
        assert_eq!(with_validation, 0);
        assert!(without > 0);
    }

    #[test]
    fn e11_cache_cuts_bfs_work_at_least_tenfold() {
        let cfg = ScaleConfig {
            cliques: 8,
            clique_size: 8,
            rounds: 12,
            hoppers: 2,
            hop_len: 6,
            seed: 1111,
        };
        let fast = e11_run(&cfg);
        assert!(
            fast.route_queries >= 10 * fast.bfs_runs,
            "expected >= 10x BFS saving, got {} queries vs {} BFS runs",
            fast.route_queries,
            fast.bfs_runs
        );
    }

    #[test]
    fn e12_churn_fails_cross_ring_traffic_and_still_reuses_routes() {
        let fast = e12_run(4, 4, 3);
        // 4 epoch bumps per cycle: partition, heal, crash, recover.
        assert_eq!(fast.epoch, 12);
        assert!(
            fast.send_failures > 0,
            "cross-ring traffic must fail while partitioned"
        );
        assert!(
            fast.bfs_runs < fast.route_queries,
            "within-epoch reuse must save some work even under churn"
        );
    }

    #[test]
    fn e13_custody_delivers_after_heal_where_fail_fast_loses() {
        let table = e13_custody(RunOpts::new(true));
        let cell = |r: usize, c: usize| table.rows[r][c].parse::<u64>().unwrap();
        let cross = cell(0, 3);
        // Fail-fast: every cross-partition send fails, nothing is delivered.
        assert_eq!(cell(0, 4), 0);
        assert_eq!(cell(0, 5), cross);
        // Ample custody: everything is delivered after the heal, no failures.
        assert_eq!(cell(1, 4), cross);
        assert_eq!(cell(1, 5), 0);
        assert!(cell(1, 7) > 0, "storage occupancy was charged");
        // Short TTL: everything expires instead.
        assert_eq!(cell(2, 6), cross);
        assert_eq!(cell(2, 4), 0);
        // Bounded queue: the overflow fails fast, the rest still delivers.
        assert_eq!(cell(3, 4) + cell(3, 5), cross);
        assert!(cell(3, 5) > 0, "the tiny queue must overflow");
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

    #[test]
    fn e17_quick_row_is_the_single_queue_row_it_always_was() {
        let table = e17_scale_sweep(RunOpts::new(true));
        let expected = [
            "512",
            "98304",
            "65536",
            "76510",
            "44928064",
            "1ea710a960ac30dd",
            "1519.2",
        ];
        assert_eq!(table.rows, [expected.map(String::from)]);
    }

    #[test]
    fn e8_no_direct_guess_succeeds() {
        let table = e8_protected(12);
        assert_eq!(table.rows[0][3], "0");
    }

    #[test]
    fn tables_render() {
        let quick = RunOpts::new(true);
        for table in [e4_folders(quick), e6_exchange(quick), e10_apps(quick)] {
            let rendered = table.render();
            assert!(rendered.contains("claim:"));
            assert!(!table.rows.is_empty());
        }
    }
}
