//! The simulated WAN at scale (§4, §5): E11 the routing fast path, E12
//! partition churn, E13 store-and-forward custody, and E17 the event engine's
//! scale sweep.

use crate::runner::RunOpts;
use crate::table::Table;
use tacoma_agents::testing::SinkAgent;
use tacoma_core::prelude::*;
use tacoma_core::TacomaSystem;
use tacoma_net::{CustodyConfig, LinkSpec, SimTime, Topology};
use tacoma_util::DetRng;

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
            SiteId(to),
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
                SiteId(site),
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
            sys.inject_meet(SiteId(c * k + m), AgentName::new("reporter"), bc);
        }
        let mut bc = Briefcase::new();
        bc.put_string("TO", (((c + 1) % cfg.cliques) * k).to_string());
        sys.inject_meet(SiteId(broker), AgentName::new("reporter"), bc);
    }
    for itinerary in itineraries {
        let mut bc = Briefcase::new();
        bc.folder_mut("PAYLOAD").push(vec![0u8; 256]);
        let folder = bc.folder_mut(wellknown::ITINERARY);
        for &site in &itinerary[1..] {
            folder.enqueue(site.to_string().into_bytes());
        }
        sys.inject_meet(SiteId(itinerary[0]), AgentName::new("hopper"), bc);
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
        sys.inject_meet(SiteId(s), AgentName::new("reporter"), cross);
        // ... and one to a same-half neighbour clique (always routable).
        let local = (s + clique_size) % half + if s >= half { half } else { 0 };
        let mut near = Briefcase::new();
        near.put_string("TO", local.to_string());
        sys.inject_meet(SiteId(s), AgentName::new("reporter"), near);
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
        let group: Vec<SiteId> = (0..sites / 2).map(SiteId).collect();
        sys.net_mut().partition(&group);
        e12_burst(&mut sys, sites, clique_size);
        sys.net_mut().heal_partition();
        // A crash inside a cycle exercises liveness invalidation too.
        let victim = SiteId(1 + (cycle * clique_size) % (sites - 1));
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
    let group: Vec<SiteId> = (0..half).map(SiteId).collect();
    sys.net_mut().partition(&group);
    for _ in 0..msgs_per_site {
        for s in 0..sites {
            let mut bc = Briefcase::new();
            bc.put_string("TO", ((s + half) % sites).to_string());
            sys.inject_meet(SiteId(s), AgentName::new("reporter"), bc);
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
            net.schedule_timer(SiteId(s as u32), Duration::from_micros(at), round);
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
                        to: SiteId(clique * CLIQUE + member),
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
    let mut rates = Vec::new();
    for &(cliques, rounds) in points {
        let sites = cliques * 8;
        let start = std::time::Instant::now();
        let outcome = e17_gossip(cliques, rounds);
        let wall = start.elapsed().as_secs_f64();
        let rate = outcome.events as f64 / wall.max(1e-9);
        rates.push((sites, rate));
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
            "{sites} sites: {rate:.0} events/s ({wall:.2}s wall)"
        ));
    }
    // The engine should not slow per event as the WAN grows.
    if let [.., (4_096, small), (16_384, large)] = rates[..] {
        table.note(format!(
            "16384-site rate / 4096-site rate: {:.2}x (target: at least 0.70x)",
            large / small
        ));
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
