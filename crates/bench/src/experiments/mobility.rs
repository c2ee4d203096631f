//! Agents, meet and folders (§1, §2) and the prototype's applications (§6):
//! E1 bandwidth conservation, E2 bounded diffusion, E3 migration cost, E4
//! folder and cabinet costs, and E10 StormCast and AgentMail.

use crate::runner::RunOpts;
use crate::table::Table;
use tacoma_agents::testing::SinkAgent;
use tacoma_agents::{diffusion_briefcase, naive_flood_briefcase, standard_agents, NaiveFloodAgent};
use tacoma_apps::{run_mail_experiment, run_stormcast, MailConfig, StormcastConfig, StormcastPlan};
use tacoma_core::prelude::*;
use tacoma_core::{Folder, TacomaSystem};
use tacoma_net::{LinkSpec, Topology};
use tacoma_util::DetRng;

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
            .folder_ref("RECORDS")
            .map(|f| f.strings())
            .unwrap_or_default();
        let mut out = Briefcase::new();
        let folder = out.folder_mut("RAW");
        for r in records {
            folder.push_str(r);
        }
        ctx.remote_meet(
            SiteId(origin),
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
            .folder_ref("RECORDS")
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
                SiteId(site),
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
                    SiteId(origin),
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
    sys.register_agent(SiteId(0), Box::new(SinkAgent::new()));
    let mut rng = DetRng::new(seed ^ 0xE1);
    for s in 1..=sites {
        sys.register_agent(SiteId(s), Box::new(RawServer));
        sys.register_agent(SiteId(s), Box::new(FilterCollector));
        let cab = sys.place_mut(SiteId(s)).cabinets_mut().cabinet("dataset");
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
        sys.inject_meet(SiteId(1), AgentName::new("filter_collector"), bc);
    } else {
        for s in 1..=sites {
            let mut bc = Briefcase::new();
            bc.put_string(wellknown::ORIGIN, "0");
            sys.inject_meet(SiteId(s), AgentName::new("raw_server"), bc);
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
        sys.register_agent(SiteId(s), Box::new(NaiveFloodAgent::new()));
    }
    if naive {
        sys.inject_meet(
            SiteId(0),
            AgentName::new(NaiveFloodAgent::NAME),
            naive_flood_briefcase("m", "announcement", sites as u64),
        );
    } else {
        sys.inject_meet(
            SiteId(0),
            AgentName::new(wellknown::DIFFUSION),
            diffusion_briefcase("m", "announcement"),
        );
    }
    sys.run_until_quiescent(2_000_000);
    let covered = (0..sites)
        .filter(|s| {
            sys.place(SiteId(*s))
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
    sys.register_agent(SiteId(1), Box::new(SinkAgent::new()));
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
    sys.inject_meet(SiteId(0), AgentName::new(wellknown::REXEC), bc);
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
    sys.register_agent(SiteId(0), Box::new(SinkAgent::new()));
    for _ in 0..n {
        let mut bc = Briefcase::new();
        bc.put_string("X", "y");
        sys.inject_meet(SiteId(0), AgentName::new(SinkAgent::NAME), bc);
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
}
