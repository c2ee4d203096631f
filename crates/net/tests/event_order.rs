//! The order contract of `SimNet`'s one event queue, on the one seeded
//! workload where every event kind meets it: surfaced times never decrease,
//! equal times surface in send/schedule order, the seed fixes the whole run.

use std::collections::HashSet;
use std::mem::discriminant;
use tacoma_net::{
    CustodyConfig, Duration, Event, FailurePlan, LinkSpec, NetMetrics, SendOptions, SimNet,
    SimTime, SiteId, Topology, TransportKind,
};
use tacoma_util::DetRng;

/// A timer's key is its place in the scheduling order; controls go first.
const PARTITION: u64 = 0;
const EDIT: u64 = 1;
const HEAL: u64 = 2;

fn run() -> (Vec<(SimTime, Event)>, NetMetrics) {
    let topology = Topology::ring_of_cliques(6, 4, LinkSpec::lan(), LinkSpec::wan());
    let sites = topology.site_count();
    let (cut_a, cut_b, _) = topology.links().next().expect("topology has links");
    let mut net = SimNet::new(topology);
    let (ttl, down) = (Duration::from_millis(150), Duration::from_millis(300));
    net.set_custody(CustodyConfig { capacity: 4, ttl });
    net.apply_failure_plan(&FailurePlan::none().outage(SiteId(1), SimTime(200_000), down));
    // The last site never crashes; it fires the control actions.
    for (key, at_ms) in [(PARTITION, 300), (EDIT, 500), (HEAL, 700)] {
        net.schedule_timer(SiteId(sites - 1), Duration::from_millis(at_ms), key);
    }
    let mut rng = DetRng::new(0x5ead);
    for (key, site) in (HEAL + 1..).zip((0..sites).flat_map(|s| [SiteId(s); 12])) {
        // A 10 ms grid, so many timers (and the sends they trigger) tie.
        net.schedule_timer(site, Duration::from_millis(10 * rng.next_below(100)), key);
    }

    let mut seen = Vec::new();
    while let Some(event) = net.step() {
        seen.push((net.now(), event.clone()));
        match event {
            Event::Timer { key: PARTITION, .. } => {
                net.partition(&(0..sites / 2).map(SiteId).collect::<Vec<_>>())
            }
            Event::Timer { key: EDIT, .. } => net.edit_topology(|t| t.remove_link(cut_a, cut_b)),
            Event::Timer { key: HEAL, .. } => net.heal_partition(),
            Event::Timer { site, .. } => {
                let custody = rng.chance(0.5);
                // Refusals (down, unreachable, custody full) are part of the run.
                let _ = net.send(SendOptions {
                    from: site,
                    to: SiteId(rng.next_below(u64::from(sites)) as u32),
                    payload: vec![0; 64 << rng.next_below(3)],
                    kind: u16::from(custody),
                    transport: TransportKind::Tcp,
                    custody,
                });
            }
            _ => {}
        }
    }
    (seen, net.metrics().clone())
}

#[test]
fn one_queue_surfaces_events_in_time_then_send_order_and_the_seed_fixes_the_run() {
    let (seen, metrics) = run();
    let kinds: HashSet<_> = seen.iter().map(|(_, e)| discriminant(e)).collect();
    assert_eq!(kinds.len(), 5, "every event kind must surface");
    assert!(metrics.custody_delivered() > 0 && metrics.custody_expired() > 0);
    assert!(metrics.total_hops() > metrics.delivered_messages());
    assert!(seen.windows(2).all(|w| w[0].0 <= w[1].0), "time went back");
    // Every send follows every `schedule_timer`, and ids count sends, so
    // `key` and `TIMERS + id` are places in one queueing order.  Custodied
    // messages (kind 1) are left out: a flush may queue them again later.
    const TIMERS: u64 = 1_000;
    let queued: Vec<(SimTime, u64)> = seen
        .iter()
        .filter_map(|(at, event)| match event {
            Event::Timer { key, .. } => Some((*at, *key)),
            Event::Message(m) if m.kind == 0 => Some((*at, TIMERS + m.id.0)),
            _ => None,
        })
        .collect();
    assert!(queued.windows(2).all(|w| w[0] < w[1]), "a tie broke order");
    let ties = queued.windows(2).filter(|w| w[0].0 == w[1].0).count();
    assert!(ties > 50, "the workload must exercise ties, saw {ties}");

    let (again, metrics_again) = run();
    assert_eq!(again, seen);
    assert_eq!(format!("{metrics_again:?}"), format!("{metrics:?}"));
}
