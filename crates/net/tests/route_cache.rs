//! Route-cache invalidation tests: across a scripted crash/recover/
//! partition/heal scenario the cached router must answer every query exactly
//! as a BFS run from scratch would.  The from-scratch BFS lives here, not in
//! the shipped router: [`reference_path`] is the oracle, and a second
//! `Router` that is handed a fresh epoch per query (so it can never hit its
//! cache) shows the cache changes the routing *work* and nothing else.
//!
//! A cached route also carries the [`LinkSpec`] of every link it crosses, so
//! the oracle prices sends too ([`expected_charge`], hop by hop from
//! `Topology::link`): a spec cached before a topology edit or a liveness
//! change must never be charged after it.
//!
//! The simulator charges a cached route regrouped — summed latency plus, per
//! distinct bandwidth, hops × serialization time — never hop by hop, so
//! [`every_send_is_charged_what_its_hops_cost_one_by_one`] rebuilds the
//! hop-by-hop charge over random topologies whose every link has its own
//! spec and demands the same microsecond, byte and hop counts.
//!
//! A miss searches only the blocks of the block-cut tree its route crosses,
//! so [`block_routed_paths_are_the_flat_searchs`] asks the oracle about
//! topologies full of cut sites, where that search and a flat BFS part ways
//! if they ever do.
//!
//! A pair that one live, unblocked link joins is answered from the link and
//! never cached, and a block entered through a cut site is read off a BFS
//! tree shared by every route that enters it there: the last three tests
//! check a link that is down detours as the oracle does, the routing-work
//! counters still count what a cache of every pair would, and routes read
//! off warm trees are the oracle's.

use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use tacoma_net::{
    Duration, Event, LinkSpec, MessageId, Router, SendOptions, SimNet, SimTime, Topology,
    TransportKind,
};
use tacoma_util::{DetRng, SiteId};

/// Each site's neighbours, ascending, built once per topology so that the
/// oracle's BFS costs what a BFS costs (`Topology::neighbors` scans every
/// link).
fn adjacency(topology: &Topology) -> Vec<Vec<SiteId>> {
    let mut adj = vec![Vec::new(); topology.site_count() as usize];
    for (a, b, _) in topology.links() {
        adj[a.index()].push(b);
        adj[b.index()].push(a);
    }
    for row in &mut adj {
        row.sort_unstable();
    }
    adj
}

/// The oracle: a plain BFS over live sites and unblocked edges, neighbours
/// in ascending order (the router's tie-break), nothing cached or reused.
/// A site id past the end reaches nothing and is reached by nothing.
fn reference_path(
    adj: &[Vec<SiteId>],
    from: SiteId,
    to: SiteId,
    alive: impl Fn(SiteId) -> bool,
    blocked: impl Fn(SiteId, SiteId) -> bool,
) -> Option<Vec<SiteId>> {
    if from.index() >= adj.len() || to.index() >= adj.len() || !alive(from) || !alive(to) {
        return None;
    }
    let mut prev: Vec<Option<SiteId>> = vec![None; adj.len()];
    prev[from.index()] = Some(from);
    let mut queue = VecDeque::from([from]);
    while let Some(cur) = queue.pop_front() {
        if cur == to {
            let mut path = vec![to];
            while *path.last().unwrap() != from {
                path.push(prev[path.last().unwrap().index()].unwrap());
            }
            path.reverse();
            return Some(path);
        }
        for &n in &adj[cur.index()] {
            if prev[n.index()].is_none() && alive(n) && !blocked(cur, n) {
                prev[n.index()] = Some(cur);
                queue.push_back(n);
            }
        }
    }
    None
}

/// What the oracle says a send issued right now must do: the hop count of
/// the shortest live path, or `None` when the send must be refused.
fn expected_hops(net: &SimNet, from: u32, to: u32) -> Option<u32> {
    reference_path(
        &adjacency(net.router().topology()),
        SiteId(from),
        SiteId(to),
        |s| net.is_up(s),
        |a, b| net.is_blocked(a, b),
    )
    .map(|path| path.len() as u32 - 1)
}

/// Drives the scripted run.  Every send is checked against the oracle at
/// send time (accepted iff a live path exists) and every delivery against
/// the hop count the oracle predicted for it.  Returns the surfaced events.
fn run_scenario() -> Vec<Event> {
    let topology = Topology::ring_of_cliques(4, 4, LinkSpec::lan(), LinkSpec::wan());
    let sites = topology.site_count();
    let mut net = SimNet::new(topology);
    let mut predicted: BTreeMap<MessageId, u32> = BTreeMap::new();

    let mut rng = DetRng::new(0xCAFE);
    let mut send = |net: &mut SimNet, from: u32, to: u32| {
        let expected = expected_hops(net, from, to);
        let sent = net.send(SendOptions {
            from: SiteId(from),
            to: SiteId(to),
            payload: vec![0xAB; 64],
            kind: 7,
            transport: TransportKind::Tcp,
            custody: false,
        });
        match (sent, expected) {
            (Ok(id), Some(hops)) => {
                predicted.insert(id, hops);
            }
            (Err(_), None) => {}
            (sent, expected) => panic!("{from} -> {to}: sim {sent:?}, oracle {expected:?}"),
        }
    };
    let drain = |net: &mut SimNet| -> Vec<Event> {
        let mut events = Vec::new();
        while let Some(ev) = net.step() {
            events.push(ev);
        }
        events
    };

    let mut events = Vec::new();
    // Phase 1: healthy traffic, random pairs (repeated, so the cache works).
    let pairs: Vec<(u32, u32)> = (0..24)
        .map(|_| {
            (
                rng.next_below(sites as u64) as u32,
                rng.next_below(sites as u64) as u32,
            )
        })
        .collect();
    for &(from, to) in pairs.iter().chain(pairs.iter()) {
        send(&mut net, from, to);
    }
    events.extend(drain(&mut net));

    // Phase 2: crash two sites (one gateway, one member), same traffic.
    net.crash_now(SiteId(0));
    net.crash_now(SiteId(5));
    for &(from, to) in &pairs {
        send(&mut net, from, to);
    }
    events.extend(drain(&mut net));

    // Phase 3: recover, partition cliques {0,1} away from {2,3}, traffic.
    net.recover_now(SiteId(0));
    net.recover_now(SiteId(5));
    let group: Vec<SiteId> = (0..8).map(SiteId).collect();
    net.partition(&group);
    for &(from, to) in &pairs {
        send(&mut net, from, to);
    }
    events.extend(drain(&mut net));

    // Phase 4: heal, one more crash *while* messages are in flight.
    net.heal_partition();
    for &(from, to) in &pairs {
        send(&mut net, from, to);
    }
    net.crash_now(SiteId(9));
    events.extend(drain(&mut net));

    // Phase 5: scheduled failure plan (timed outage) interleaved with timers.
    let plan = tacoma_net::FailurePlan::none().outage(
        SiteId(4),
        net.now() + Duration::from_millis(1),
        Duration::from_millis(5),
    );
    net.apply_failure_plan(&plan);
    net.schedule_timer(SiteId(1), Duration::from_millis(2), 42);
    for &(from, to) in &pairs {
        send(&mut net, from, to);
    }
    events.extend(drain(&mut net));

    let (queries, bfs) = net.routing_work();
    assert!(bfs < queries, "the scenario must exercise cache hits");
    for event in &events {
        if let Event::Message(m) = event {
            assert_eq!(
                m.hops, predicted[&m.id],
                "message {:?} {} -> {} took a path the oracle did not predict",
                m.id, m.from, m.to
            );
        }
    }
    events
}

#[test]
fn every_send_in_the_scenario_matches_a_from_scratch_bfs() {
    let events = run_scenario();
    let delivered = events
        .iter()
        .filter(|e| matches!(e, Event::Message(_)))
        .count();
    assert!(delivered > 60, "the scenario must deliver traffic");
    // And the run itself replays: the cache holds no hidden state.
    assert_eq!(events, run_scenario());
}

#[test]
fn cached_and_forced_miss_routers_return_identical_paths() {
    // The same liveness/partition states the scenario walks through, as
    // (epoch, dead sites, partitioned group) — the epoch bumps exactly when
    // the state changes, which is the caller's side of the cache contract.
    let topology = Topology::ring_of_cliques(4, 4, LinkSpec::lan(), LinkSpec::wan());
    let sites = topology.site_count();
    let states: [(u64, &[u32], &[u32]); 5] = [
        (0, &[], &[]),
        (1, &[0, 5], &[]),
        (2, &[], &[0, 1, 2, 3, 4, 5, 6, 7]),
        (3, &[9], &[]),
        (4, &[4, 9], &[]),
    ];
    let adj = adjacency(&topology);
    let mut cached = Router::new(topology.clone());
    let mut forced = Router::new(topology);
    let mut fresh_epoch = 0;
    let mut rng = DetRng::new(0xCAFE);
    for (epoch, dead, group) in states {
        let alive = |s: SiteId| !dead.contains(&s.0);
        let blocked = |a: SiteId, b: SiteId| group.contains(&a.0) != group.contains(&b.0);
        let pairs: Vec<(SiteId, SiteId)> = (0..24)
            .map(|_| {
                (
                    SiteId(rng.next_below(sites as u64) as u32),
                    SiteId(rng.next_below(sites as u64) as u32),
                )
            })
            .collect();
        for &(from, to) in pairs.iter().chain(pairs.iter()) {
            let oracle = reference_path(&adj, from, to, alive, blocked);
            let hit = cached
                .route(from, to, epoch, alive, blocked)
                .map(<[SiteId]>::to_vec);
            fresh_epoch += 1;
            let miss = forced
                .route(from, to, fresh_epoch, alive, blocked)
                .map(<[SiteId]>::to_vec);
            assert_eq!(hit, oracle, "cached {from} -> {to} at epoch {epoch}");
            assert_eq!(miss, oracle, "forced miss {from} -> {to} at epoch {epoch}");
        }
    }
    assert_eq!(forced.bfs_runs(), forced.route_queries());
    assert_eq!(cached.route_queries(), forced.route_queries());
    assert!(
        cached.bfs_runs() * 2 <= cached.route_queries(),
        "every pair is asked twice per epoch: at most half the queries miss"
    );
}

#[test]
fn the_cache_actually_saves_routing_work_in_that_scenario() {
    // Re-run the cached scenario and check the cache earned its keep: the
    // scenario sends each pair set multiple times per epoch.
    let topology = Topology::ring_of_cliques(4, 4, LinkSpec::lan(), LinkSpec::wan());
    let mut net = SimNet::new(topology);
    for round in 0..6 {
        for s in 1..16u32 {
            let _ = net.send(SendOptions {
                from: SiteId(s),
                to: SiteId(0),
                payload: vec![round; 32],
                kind: 1,
                transport: TransportKind::Tcp,
                custody: false,
            });
        }
        while net.step().is_some() {}
    }
    let (queries, bfs) = net.routing_work();
    assert_eq!(queries, 90);
    assert_eq!(bfs, 15, "one BFS per pair, reused across all six rounds");
}

#[test]
fn the_oracle_and_the_simulator_both_detour_after_failures() {
    // Sanity-check the oracle exercises the same liveness rules.
    let mut net = SimNet::new(Topology::ring(6, LinkSpec::default()));
    net.crash_now(SiteId(1));
    assert_eq!(expected_hops(&net, 0, 2), Some(4));
    net.send(SendOptions {
        from: SiteId(0),
        to: SiteId(2),
        payload: vec![1],
        kind: 1,
        transport: TransportKind::Tcp,
        custody: false,
    })
    .unwrap();
    match net.step().unwrap() {
        Event::Message(m) => assert_eq!(m.hops, 4, "long way around the dead site"),
        other => panic!("unexpected {other:?}"),
    }
    assert!(net.now() > SimTime::ZERO);
}

/// Bytes and latency the Horus personality adds to every message; unlike
/// TCP's it does not depend on what was sent before.
const HORUS_EXTRA_BYTES: u64 = 200;
const HORUS_SETUP_MS: u64 = 1;

/// What the oracle says a Horus send of `payload` bytes issued right now is
/// charged: `(hops, time in flight)`, every hop priced from
/// `Topology::link`, or `None` when the send must be refused.
fn expected_charge(net: &SimNet, from: u32, to: u32, payload: u64) -> Option<(u64, Duration)> {
    let topology = net.router().topology();
    let path = reference_path(
        &adjacency(topology),
        SiteId(from),
        SiteId(to),
        |s| net.is_up(s),
        |a, b| net.is_blocked(a, b),
    )?;
    if from == to {
        return Some((0, Duration::from_micros(10)));
    }
    let mut in_flight = Duration::from_millis(HORUS_SETUP_MS);
    for hop in path.windows(2) {
        let link = topology
            .link(hop[0], hop[1])
            .expect("the oracle walks real links");
        in_flight += link.transfer_time(payload + HORUS_EXTRA_BYTES);
    }
    Some((path.len() as u64 - 1, in_flight))
}

/// Sends `payload` bytes over Horus, steps to the delivery and returns the
/// charge the simulator made — after checking it is the oracle's.
fn send_and_time(net: &mut SimNet, from: u32, to: u32, payload: usize) -> Duration {
    let (hops, in_flight) = expected_charge(net, from, to, payload as u64).expect("reachable");
    let before = (
        net.metrics().total_hops(),
        net.metrics().total_bytes().get(),
    );
    net.send(SendOptions {
        from: SiteId(from),
        to: SiteId(to),
        payload: vec![0; payload],
        kind: 1,
        transport: TransportKind::Horus,
        custody: false,
    })
    .expect("the oracle found a path");
    let Some(Event::Message(m)) = net.step() else {
        panic!("{from} -> {to}: no delivery");
    };
    assert_eq!(u64::from(m.hops), hops, "{from} -> {to}: hops");
    assert_eq!(
        net.now().since(m.sent_at),
        in_flight,
        "{from} -> {to}: time in flight"
    );
    let after = (
        net.metrics().total_hops(),
        net.metrics().total_bytes().get(),
    );
    assert_eq!(after.0 - before.0, hops);
    assert_eq!(
        after.1 - before.1,
        hops * (payload as u64 + HORUS_EXTRA_BYTES)
    );
    in_flight
}

#[test]
fn cached_link_specs_are_never_charged_stale() {
    let mut net = SimNet::new(Topology::ring_of_cliques(
        4,
        4,
        LinkSpec::lan(),
        LinkSpec::wan(),
    ));
    // Mixed traffic, every pair twice so the second send is a cache hit:
    // each delivery and the run's totals are priced by the oracle.
    let mut rng = DetRng::new(0xBEEF);
    for _ in 0..100 {
        let (from, to) = (rng.next_below(16) as u32, rng.next_below(16) as u32);
        let payload = rng.next_below(4_096) as usize;
        let cold = send_and_time(&mut net, from, to, payload);
        assert_eq!(send_and_time(&mut net, from, to, payload), cold);
    }
    let (queries, bfs) = net.routing_work();
    assert!(bfs * 2 <= queries, "the second send of each pair must hit");

    // 0 -> 8 rides the gateway ring through 4 (ascending tie-break).  Make
    // the 0-4 link slower: same adjacency, new spec, and the very next send
    // pays it.
    let fast = send_and_time(&mut net, 0, 8, 512);
    let slower = LinkSpec {
        latency: Duration::from_millis(90),
        bandwidth_bytes_per_sec: 19_000,
    };
    net.edit_topology(|t| t.add_link(SiteId(0), SiteId(4), slower));
    let slow = send_and_time(&mut net, 0, 8, 512);
    assert!(slow > fast, "{slow} after the edit, {fast} before");

    // Gateway 4 dies: the route turns the other way round the ring, over
    // links that were never slowed.  It recovers: back over the slow one.
    net.crash_now(SiteId(4));
    assert_eq!(send_and_time(&mut net, 0, 8, 512), fast);
    net.recover_now(SiteId(4));
    assert_eq!(send_and_time(&mut net, 0, 8, 512), slow);
}

/// Link parameters chosen to separate a regrouped charge from a hop-by-hop
/// one if they could differ: bandwidths 0 and 1 (`transfer_time` clamps 0 to
/// 1, and either turns a payload into hours), a bandwidth that divides
/// nothing evenly, the stock LAN and WAN rates, one that serializes anything
/// in no time; latencies from nothing to a third of the clock's range, so a
/// path over three such links saturates it.
const BANDWIDTHS: [u64; 7] = [0, 1, 3, 190_000, 1_250_000, 12_500_000, u64::MAX];
const LATENCIES_US: [u64; 6] = [0, 1, 500, 2_000, 40_000, u64::MAX / 3];
const PAYLOADS: [usize; 6] = [0, 1, 511, 4_096, 65_536, 1 << 20];

proptest! {
    /// Delivery time, `total_bytes` and `total_hops` of every send — cold,
    /// then again from the cache — are what `Router::route`'s path costs
    /// link by link through `Topology::link` and `LinkSpec::transfer_time`.
    /// (A payload cannot be long enough to saturate `bytes × 10⁶`; the
    /// router's own unit test prices that edge.)
    #[test]
    fn every_send_is_charged_what_its_hops_cost_one_by_one(
        seed in any::<u64>(),
        sites in 2u32..24,
        extra_edges in 0u32..20,
        sends in proptest::collection::vec((any::<u32>(), any::<u32>(), 0usize..6), 1..40),
    ) {
        let mut rng = DetRng::new(seed);
        let shape = Topology::random_connected(sites, extra_edges, LinkSpec::default(), &mut rng);
        let mut topology = Topology::empty(sites);
        for (a, b, _) in shape.links() {
            // One link in eight is slow enough to end the run's clock.
            let latency = match rng.index(8) {
                0 => LATENCIES_US[5],
                _ => LATENCIES_US[rng.index(5)],
            };
            let spec = LinkSpec {
                latency: Duration::from_micros(latency),
                bandwidth_bytes_per_sec: BANDWIDTHS[rng.index(BANDWIDTHS.len())],
            };
            topology.add_link(a, b, spec);
        }
        let mut reference = Router::new(topology.clone());
        let mut net = SimNet::new(topology.clone());
        for &(from, to, size) in sends.iter().flat_map(|send| [send, send]) {
            let (from, to) = (SiteId(from % sites), SiteId(to % sites));
            let wire = PAYLOADS[size] as u64 + HORUS_EXTRA_BYTES;
            let path = reference
                .route(from, to, 0, |_| true, |_, _| false)
                .expect("the topology is connected");
            let hops = path.len() as u64 - 1;
            let in_flight = if from == to {
                Duration::from_micros(10)
            } else {
                path.windows(2)
                    .fold(Duration::from_millis(HORUS_SETUP_MS), |time, hop| {
                        let link = topology.link(hop[0], hop[1]).expect("a routed hop");
                        time + link.transfer_time(wire)
                    })
            };
            let sent_at = net.now();
            let before = (net.metrics().total_hops(), net.metrics().total_bytes().get());
            net.send(SendOptions {
                from,
                to,
                payload: vec![0; PAYLOADS[size]],
                kind: 1,
                transport: TransportKind::Horus,
                custody: false,
            })
            .expect("the topology is connected");
            let Some(Event::Message(m)) = net.step() else {
                panic!("{from} -> {to}: no delivery");
            };
            prop_assert_eq!(u64::from(m.hops), hops, "{} -> {}: hops", from, to);
            prop_assert_eq!(net.now(), sent_at + in_flight, "{} -> {}: delivery time", from, to);
            let after = (net.metrics().total_hops(), net.metrics().total_bytes().get());
            prop_assert_eq!(after, (before.0 + hops, before.1 + hops * wire));
        }
    }
}

/// A topology of the given links, all alike, over `sites` sites.
fn from_links(sites: u32, links: impl IntoIterator<Item = (u32, u32)>) -> Topology {
    let mut t = Topology::empty(sites);
    for (a, b) in links {
        t.add_link(SiteId(a), SiteId(b), LinkSpec::lan());
    }
    t
}

fn link_pairs(t: &Topology, offset: u32) -> impl Iterator<Item = (u32, u32)> + '_ {
    t.links().map(move |(a, b, _)| (a.0 + offset, b.0 + offset))
}

/// The shapes [`cut_rich_topology`] builds.
const SHAPES: u64 = 9;

/// A topology full of cut sites, of the given shape and sized from `rng`;
/// one time in two it gains a last site with no link at all.
fn cut_rich_topology(shape: u64, rng: &mut DetRng) -> Topology {
    let (lan, wan) = (LinkSpec::lan(), LinkSpec::wan());
    let mut small = |lo: u64, n: u64| (lo + rng.next_below(n)) as u32;
    let clique =
        |lo: u32, n: u32| (lo..lo + n).flat_map(move |a| (a + 1..lo + n).map(move |b| (a, b)));
    let t = match shape {
        // A random tree plus a few extra links.
        0 => {
            let (sites, extra) = (small(2, 30), small(0, 4));
            Topology::random_connected(sites, extra, lan, rng)
        }
        1 => Topology::ring_of_cliques(small(2, 7), 1, lan, wan),
        2 => Topology::ring_of_cliques(small(2, 7), 2, lan, wan),
        3 => Topology::ring_of_cliques(small(2, 7), 8, lan, wan),
        // Two cliques: the gateway ring is one link.
        4 => Topology::ring_of_cliques(2, small(1, 8), lan, wan),
        5 => Topology::star(small(2, 10), lan),
        6 => {
            let sites = small(2, 20);
            from_links(sites, (1..sites).map(|s| (s - 1, s)))
        }
        // Two cliques joined by a path of `between` sites.
        7 => {
            let (a, between, b) = (small(2, 5), small(0, 4), small(2, 5));
            let path = (a - 1..a + between).map(|s| (s, s + 1));
            from_links(
                a + between + b,
                clique(0, a).chain(path).chain(clique(a + between, b)),
            )
        }
        // A forest: two random trees with extra links, side by side.
        _ => {
            let (n1, e1, n2, e2) = (small(1, 12), small(0, 3), small(1, 12), small(0, 3));
            let one = Topology::random_connected(n1, e1, lan, rng);
            let two = Topology::random_connected(n2, e2, lan, rng);
            from_links(n1 + n2, link_pairs(&one, 0).chain(link_pairs(&two, n1)))
        }
    };
    if rng.next_below(2) == 0 {
        return t;
    }
    from_links(t.site_count() + 1, link_pairs(&t, 0))
}

proptest! {
    /// Over topologies rich in cut sites, under random dead sets and
    /// partition groups, a cached route, a forced miss and
    /// `Router::shortest_path` each return the oracle's path, for the two
    /// site ids past the end too.
    #[test]
    fn block_routed_paths_are_the_flat_searchs(seed in any::<u64>()) {
        let mut rng = DetRng::new(seed);
        for shape in 0..SHAPES {
            let topology = cut_rich_topology(shape, &mut rng);
            let adj = adjacency(&topology);
            let ids = u64::from(topology.site_count()) + 2;
            let mut cached = Router::new(topology.clone());
            let mut forced = Router::new(topology);
            let mut fresh_epoch = 0;
            // Epoch 0 has every site up and no partition.
            for epoch in 0..4 {
                let dead: Vec<bool> = (0..ids).map(|_| epoch > 0 && rng.next_below(6) == 0).collect();
                let group: Vec<bool> = (0..ids).map(|_| epoch > 1 && rng.next_below(3) == 0).collect();
                let alive = |s: SiteId| !dead[s.index()];
                let blocked = |a: SiteId, b: SiteId| group[a.index()] != group[b.index()];
                let pairs: Vec<(SiteId, SiteId)> = (0..24)
                    .map(|_| (SiteId(rng.next_below(ids) as u32), SiteId(rng.next_below(ids) as u32)))
                    .collect();
                for &(from, to) in pairs.iter().chain(&pairs) {
                    let oracle = reference_path(&adj, from, to, alive, blocked);
                    let hit = cached.route(from, to, epoch, alive, blocked).map(<[SiteId]>::to_vec);
                    prop_assert_eq!(&hit, &oracle, "shape {} cached {} -> {} at {}", shape, from, to, epoch);
                    fresh_epoch += 1;
                    let miss = forced.route(from, to, fresh_epoch, alive, blocked).map(<[SiteId]>::to_vec);
                    prop_assert_eq!(&miss, &oracle, "shape {} miss {} -> {} at {}", shape, from, to, epoch);
                    let fixed = reference_path(&adj, from, to, alive, |_, _| false);
                    let static_path = forced.shortest_path(from, to, alive);
                    prop_assert_eq!(static_path, fixed, "shape {} static {} -> {} at {}", shape, from, to, epoch);
                }
            }
        }
    }
}

#[test]
fn cross_clique_routes_at_4096_sites_are_the_oracles() {
    let topology = Topology::ring_of_cliques(512, 8, LinkSpec::lan(), LinkSpec::wan());
    let adj = adjacency(&topology);
    let mut router = Router::new(topology);
    let mut rng = DetRng::new(4_096);
    let (all, none) = (|_: SiteId| true, |_: SiteId, _: SiteId| false);
    for epoch in 0..200 {
        let from = rng.next_below(4_096) as u32;
        let clique = (from / 8 + 1 + rng.next_below(511) as u32) % 512;
        let (from, to) = (SiteId(from), SiteId(clique * 8 + rng.next_below(8) as u32));
        let oracle = reference_path(&adj, from, to, all, none);
        assert!(oracle.is_some());
        for _ in 0..2 {
            let route = router
                .route(from, to, epoch, all, none)
                .map(<[SiteId]>::to_vec);
            assert_eq!(route, oracle, "{from} -> {to}");
        }
        assert_eq!(
            router.shortest_path(from, to, all),
            oracle,
            "{from} -> {to}"
        );
    }
    assert_eq!(router.bfs_runs(), 200, "one computation per miss");
}

#[test]
fn a_neighbour_cut_off_by_a_partition_or_death_detours_or_fails_as_the_oracle_does() {
    let topology = Topology::ring_of_cliques(3, 4, LinkSpec::lan(), LinkSpec::wan());
    let adj = adjacency(&topology);
    let linked: Vec<(SiteId, SiteId)> = topology
        .links()
        .flat_map(|(a, b, _)| [(a, b), (b, a)])
        .collect();
    let mut router = Router::new(topology);
    let mut epoch = 0;
    for &(from, to) in &linked {
        // 0: the link alone is partitioned away, and every link of this
        // topology lies on a cycle, so a detour exists; 1: the far end is
        // dead; 2: the near end is; 3: a partition puts `from` alone.
        for case in 0..4 {
            let alive = |s: SiteId| !(case == 1 && s == to || case == 2 && s == from);
            let blocked = |a: SiteId, b: SiteId| match case {
                0 => (a, b) == (from, to) || (a, b) == (to, from),
                3 => (a == from) != (b == from),
                _ => false,
            };
            let oracle = reference_path(&adj, from, to, alive, blocked);
            assert_eq!(oracle.is_some(), case == 0, "{from} -> {to}, case {case}");
            epoch += 1;
            for _ in 0..2 {
                let route = router
                    .route(from, to, epoch, alive, blocked)
                    .map(<[SiteId]>::to_vec);
                assert_eq!(route, oracle, "{from} -> {to}, case {case}");
            }
        }
        // Back up, the link is the route again.
        epoch += 1;
        let up = router.route(from, to, epoch, |_| true, |_, _| false);
        assert_eq!(up, Some(&[from, to][..]));
    }
    let asked = linked.len() as u64 * 5;
    assert_eq!(router.route_queries(), asked + linked.len() as u64 * 4);
    assert_eq!(
        router.bfs_runs(),
        asked,
        "one computation per pair and epoch"
    );
}

/// The shapes the routing-work property draws from: a ring of cliques, a
/// grid or a full mesh, sized by `a` and `b`.
fn counted_topology(shape: u32, a: u32, b: u32) -> Topology {
    let (lan, wan) = (LinkSpec::lan(), LinkSpec::wan());
    match shape {
        0 => Topology::ring_of_cliques(a + 1, b, lan, wan),
        1 => Topology::grid(a, b, lan),
        _ => Topology::full_mesh(a * b, lan),
    }
}

proptest! {
    /// Whatever answers a query — a link, the cache or a search — every
    /// query is counted, and a computation is counted for exactly the
    /// pairs first asked at each epoch, as a cache of every pair would.
    /// Epochs bump at random, and odd epochs kill a fifth of the sites.
    #[test]
    fn routing_work_counts_the_pairs_first_asked_per_epoch(
        shape in 0u32..3,
        a in 1u32..6,
        b in 1u32..6,
        queries in proptest::collection::vec((any::<u32>(), any::<u32>(), 0u32..6), 1..160),
    ) {
        let topology = counted_topology(shape, a, b);
        let (sites, adj) = (topology.site_count(), adjacency(&topology));
        let mut router = Router::new(topology);
        let (mut epoch, mut asked, mut first) = (0u64, BTreeSet::new(), 0u64);
        for &(x, y, bump) in &queries {
            if bump == 0 {
                epoch += 1;
                asked.clear();
            }
            let alive = |s: SiteId| epoch % 2 == 0 || (u64::from(s.0) + epoch) % 5 != 0;
            let (from, to) = (SiteId(x % sites), SiteId(y % sites));
            first += u64::from(asked.insert((from, to)));
            let route = router.route(from, to, epoch, alive, |_, _| false).map(<[SiteId]>::to_vec);
            let oracle = reference_path(&adj, from, to, alive, |_, _| false);
            prop_assert_eq!(route, oracle, "{} -> {} at {}", from, to, epoch);
        }
        prop_assert_eq!(router.route_queries(), queries.len() as u64);
        prop_assert_eq!(router.bfs_runs(), first);
    }
}

#[test]
fn cross_clique_routes_read_off_warm_trees_are_the_oracles() {
    let topology = Topology::ring_of_cliques(512, 8, LinkSpec::lan(), LinkSpec::wan());
    let adj = adjacency(&topology);
    let mut router = Router::new(topology);
    let mut rng = DetRng::new(4_097);
    let (all, none) = (|_: SiteId| true, |_: SiteId, _: SiteId| false);
    let mut pairs: Vec<(u32, u32)> = (0..200)
        .map(|_| {
            let from = rng.next_below(4_096) as u32;
            let clique = (from / 8 + 1 + rng.next_below(511) as u32) % 512;
            (from, clique * 8 + rng.next_below(8) as u32)
        })
        .collect();
    // A sibling pair leaves and enters the same cliques through the same
    // gateways: routing it grows the trees the pair itself will read.
    let sibling = |s: u32| s / 8 * 8 + (s % 8 + 1) % 8;
    for &(from, to) in &pairs {
        let warm = router.route(SiteId(sibling(from)), SiteId(sibling(to)), 0, all, none);
        assert!(warm.is_some());
    }
    rng.shuffle(&mut pairs);
    for &(from, to) in &pairs {
        let (from, to) = (SiteId(from), SiteId(to));
        let oracle = reference_path(&adj, from, to, all, none);
        let route = router.route(from, to, 0, all, none).map(<[SiteId]>::to_vec);
        assert_eq!(route, oracle, "{from} -> {to}");
    }
}
