//! `SimNet` event-queue sharding is a storage layout: one seeded workload
//! that touches every event kind must surface the same `Event` sequence and
//! the same `NetMetrics` at any shard count, on a clique-aligned plan and on
//! a contiguous-block plan, with the layout changed mid-run.

use tacoma_net::{
    CustodyConfig, Duration, Event, FailurePlan, LinkSpec, NetMetrics, SendOptions, SimNet,
    SimTime, SiteId, Topology, TransportKind,
};
use tacoma_util::DetRng;

/// Timer keys at or above this are the test's control actions, fired on the
/// last site (which never crashes); lower keys are gossip rounds.
const CONTROL: u64 = 1_000;
const PARTITION: u64 = CONTROL;
const RESHARD: u64 = CONTROL + 1;
const EDIT: u64 = CONTROL + 2;
const HEAL: u64 = CONTROL + 3;

/// One surfaced event: kind, site it fired at, simulated time, message id
/// (timer key for timers, 0 for crashes and recoveries).
type Seen = (&'static str, SiteId, SimTime, u64);

/// Runs the workload with the queue split `shards` ways (`None`: the default
/// single queue, never re-sharded) and returns what the driver saw.
fn run(topology: Topology, shards: Option<u32>) -> (Vec<Seen>, NetMetrics) {
    let sites = topology.site_count();
    let control = SiteId(sites - 1);
    let (cut_a, cut_b, _) = topology.links().next().expect("topology has links");
    let mut net = SimNet::new(topology);
    if let Some(n) = shards {
        net.set_shards(n);
    }
    net.set_custody(CustodyConfig {
        capacity: 4,
        ttl: Duration::from_millis(150),
    });
    net.apply_failure_plan(&FailurePlan::none().outage(
        SiteId(1),
        SimTime(200_000),
        Duration::from_millis(300),
    ));
    for (key, at_ms) in [(PARTITION, 300), (RESHARD, 450), (EDIT, 500), (HEAL, 700)] {
        net.schedule_timer(control, Duration::from_millis(at_ms), key);
    }
    let mut rng = DetRng::new(0x5ead);
    for site in 0..sites {
        for round in 0..12 {
            let at = Duration::from_micros(rng.next_below(1_000_000));
            net.schedule_timer(SiteId(site), at, round);
        }
    }

    let mut seen = Vec::new();
    while let Some(event) = net.step() {
        seen.push(match &event {
            Event::Message(m) => ("message", m.to, net.now(), m.id.0),
            Event::MessageExpired(m) => ("expired", m.to, net.now(), m.id.0),
            Event::Timer { site, key } => ("timer", *site, net.now(), *key),
            Event::SiteCrashed(site) => ("crashed", *site, net.now(), 0),
            Event::SiteRecovered(site) => ("recovered", *site, net.now(), 0),
        });
        match event {
            Event::Timer { key: PARTITION, .. } => {
                let group: Vec<SiteId> = (0..sites / 2).map(SiteId).collect();
                net.partition(&group);
            }
            Event::Timer { key: RESHARD, .. } => {
                if let Some(n) = shards {
                    net.set_shards(n + 1);
                }
            }
            Event::Timer { key: EDIT, .. } => net.edit_topology(|t| t.remove_link(cut_a, cut_b)),
            Event::Timer { key: HEAL, .. } => net.heal_partition(),
            Event::Timer { site, .. } => {
                let sent = net.send(SendOptions {
                    from: site,
                    to: SiteId(rng.next_below(u64::from(sites)) as u32),
                    payload: vec![0; 64 + rng.next_below(1_000) as usize],
                    kind: 1,
                    transport: TransportKind::Tcp,
                    custody: rng.chance(0.5),
                });
                if sent.is_err() {
                    seen.push(("refused", site, net.now(), 0));
                }
            }
            _ => {}
        }
    }
    (seen, net.metrics().clone())
}

fn assert_layout_never_shows(topology: &Topology, clamp: u32) {
    let (reference, metrics) = run(topology.clone(), None);
    for kind in ["message", "expired", "timer", "crashed", "recovered"] {
        assert!(
            reference.iter().any(|seen| seen.0 == kind),
            "the workload must surface a {kind} event"
        );
    }
    assert!(metrics.custody_delivered() > 0 && metrics.custody_expired() > 0);
    assert!(
        metrics.total_hops() > metrics.delivered_messages(),
        "multi-hop"
    );
    for shards in [1, 2, 3, 4, 8, 64] {
        let mut probe = SimNet::new(topology.clone());
        probe.set_shards(shards);
        assert_eq!(probe.shard_count(), shards.min(clamp));
        let (events, shard_metrics) = run(topology.clone(), Some(shards));
        assert_eq!(events, reference, "{shards} shards: event sequence moved");
        assert_eq!(
            format!("{shard_metrics:?}"),
            format!("{metrics:?}"),
            "{shards} shards: metrics moved"
        );
    }
}

#[test]
fn clique_aligned_shards_never_change_a_run() {
    // Six cliques: 8 and 64 shards clamp to one shard per clique.
    let topology = Topology::ring_of_cliques(6, 4, LinkSpec::lan(), LinkSpec::wan());
    assert_layout_never_shows(&topology, 6);
}

#[test]
fn contiguous_block_shards_never_change_a_run() {
    // A grid has no cliques: contiguous blocks, clamped to one site each.
    assert_layout_never_shows(&Topology::grid(5, 5, LinkSpec::default()), 25);
}
