//! A payload that a send repeats, from the send just before it or from its
//! sender's last one, is stored once while both are in flight, and nothing
//! else about a message may show it.  A seeded property drives
//! interleavings of several senders' repeated and fresh payloads, local
//! sends, crashes mid-flight, and custody parks and re-parks, and checks
//! every run against the same run with every payload made distinct.

use std::collections::BTreeMap;
use tacoma_net::{
    CustodyConfig, Duration, Event, LinkSpec, MessageId, Payload, SendOptions, SimNet, SimTime,
    SiteId, Topology, TransportKind,
};
use tacoma_util::DetRng;

const SITES: u32 = 6;

/// Which earlier bytes a send repeats.
#[derive(Clone, Copy, PartialEq)]
enum Repeat {
    Fresh,
    /// The bytes of the send just before, whoever sent it.
    Previous,
    /// The bytes of this sender's last send, with other senders' sends
    /// and deliveries possibly in between.
    Own,
}

/// One step of a generated interleaving.
enum Op {
    /// A send; `repeat` re-sends the previous send's bytes or the
    /// sender's own last ones, otherwise the payload is `len` fresh bytes
    /// (possibly none).
    Send {
        from: u32,
        to: u32,
        repeat: Repeat,
        len: usize,
        custody: bool,
    },
    /// Pops up to this many events.
    Step(u32),
    Crash(u32),
    Recover(u32),
    Partition(u32),
    Heal,
}

fn ops(seed: u64) -> Vec<Op> {
    let mut rng = DetRng::new(seed);
    let site = |rng: &mut DetRng| rng.next_below(u64::from(SITES)) as u32;
    (0..400)
        .map(|_| match rng.next_below(20) {
            0..=10 => {
                let from = site(&mut rng);
                // One send in eight is local.
                let to = if rng.chance(0.125) {
                    from
                } else {
                    site(&mut rng)
                };
                Op::Send {
                    from,
                    to,
                    repeat: [Repeat::Fresh, Repeat::Previous, Repeat::Own][rng.index(3)],
                    len: [0, 1, 16, 110, 300][rng.index(5)],
                    custody: rng.chance(0.5),
                }
            }
            11..=15 => Op::Step(1 + rng.next_below(4) as u32),
            16 => Op::Crash(site(&mut rng)),
            17 => Op::Recover(site(&mut rng)),
            18 => Op::Partition(site(&mut rng)),
            _ => Op::Heal,
        })
        .collect()
}

/// What a run surfaced, payloads left out, and what it charged.
#[derive(Debug, PartialEq)]
struct Trace {
    events: Vec<(SimTime, String)>,
    metrics: String,
    /// Messages parked, dropped at a dead destination, and expired.
    outcomes: [u64; 3],
}

/// Counts of what the payload checks saw, summed over cases.
#[derive(Debug, Default)]
struct Seen {
    deliveries: u64,
    /// Deliveries whose buffer another message in flight still held.
    shared: u64,
}

/// An event as a trace line.  A delivery must carry the bytes sent under
/// its id, as a shared buffer or its own.
fn surface(event: Event, sent: &BTreeMap<MessageId, Vec<u8>>, seen: &mut Seen) -> String {
    let Event::Message(m) = event else {
        return format!("{event:?}");
    };
    let want = sent.get(&m.id).expect("a delivery was sent");
    assert_eq!(&*m.payload, want.as_slice(), "bytes of {:?}", m.id);
    seen.deliveries += 1;
    let line = format!("{:?} {}->{} {} hops", m.id, m.from, m.to, m.hops);
    match m.payload.try_into_unique() {
        Ok(bytes) => assert_eq!(&bytes, want),
        Err(shared) => {
            seen.shared += 1;
            assert_eq!(shared.into_unique(), *want);
        }
    }
    line
}

/// Runs `ops` on a custody-enabled ring.  With `distinct`, every non-empty
/// payload is stamped with its send's index, so no two are equal.  Every
/// delivered payload must be the bytes sent under its id.
fn run(ops: &[Op], distinct: bool, seen: &mut Seen) -> Trace {
    let mut net = SimNet::new(Topology::ring(SITES, LinkSpec::default()));
    net.set_custody(CustodyConfig {
        capacity: 3,
        ttl: Duration::from_millis(40),
    });
    let mut sent: BTreeMap<MessageId, Vec<u8>> = BTreeMap::new();
    let mut previous: Vec<u8> = Vec::new();
    let mut own: Vec<Vec<u8>> = vec![Vec::new(); SITES as usize];
    let mut events = Vec::new();
    for (at, op) in ops.iter().enumerate() {
        match *op {
            Op::Send {
                from,
                to,
                repeat,
                len,
                custody,
            } => {
                let earlier = match repeat {
                    Repeat::Fresh => &[][..],
                    Repeat::Previous => &previous,
                    Repeat::Own => &own[from as usize],
                };
                let mut payload = match earlier.is_empty() {
                    false => earlier.to_vec(),
                    true => vec![at as u8; len],
                };
                if distinct {
                    let stamp = (at as u64).to_le_bytes();
                    let n = payload.len().min(stamp.len());
                    payload[..n].copy_from_slice(&stamp[..n]);
                }
                previous = payload.clone();
                own[from as usize] = payload.clone();
                let opts = SendOptions {
                    from: SiteId(from),
                    to: SiteId(to),
                    payload: payload.clone(),
                    kind: 1,
                    transport: TransportKind::Tcp,
                    custody,
                };
                let line = match net.send(opts) {
                    Ok(id) => {
                        sent.insert(id, payload);
                        format!("sent {id:?}")
                    }
                    Err(e) => format!("refused {e}"),
                };
                events.push((net.now(), line));
            }
            Op::Step(n) => {
                for _ in 0..n {
                    let Some(event) = net.step() else { break };
                    events.push((net.now(), surface(event, &sent, seen)));
                }
            }
            Op::Crash(site) => net.crash_now(SiteId(site)),
            Op::Recover(site) => net.recover_now(SiteId(site)),
            Op::Partition(site) => net.partition(&[SiteId(site)]),
            Op::Heal => net.heal_partition(),
        }
    }
    (0..SITES).for_each(|s| net.recover_now(SiteId(s)));
    net.heal_partition();
    while let Some(event) = net.step() {
        events.push((net.now(), surface(event, &sent, seen)));
    }
    let m = net.metrics();
    Trace {
        events,
        metrics: format!("{m:?}"),
        outcomes: [
            m.custody_parked(),
            m.dropped_messages(),
            m.custody_expired(),
        ],
    }
}

#[test]
fn sharing_a_payload_changes_nothing_a_run_shows() {
    let (mut seen, mut distinct_seen) = (Seen::default(), Seen::default());
    let (mut parked, mut dropped, mut expired) = (0, 0, 0);
    for case in 0..48 {
        let ops = ops(0x5A4E_0000 + case);
        let shared = run(&ops, false, &mut seen);
        let distinct = run(&ops, true, &mut distinct_seen);
        assert_eq!(shared, distinct, "case {case}");
        let [p, d, e] = shared.outcomes.map(|n| u64::from(n > 0));
        (parked, dropped, expired) = (parked + p, dropped + d, expired + e);
    }
    assert_eq!(distinct_seen.shared, 0, "distinct payloads share nothing");
    assert_eq!(seen.deliveries, distinct_seen.deliveries);
    // The cases must reach what they claim to cover.
    assert!(seen.shared * 10 > seen.deliveries, "{seen:?}");
    eprintln!(
        "{} of {} deliveries shared a buffer",
        seen.shared, seen.deliveries
    );
    assert!(
        parked > 10 && dropped > 10 && expired > 10,
        "{parked} {dropped} {expired}"
    );
}

fn send(net: &mut SimNet, from: u32, to: u32, payload: &[u8]) -> MessageId {
    net.send(SendOptions {
        from: SiteId(from),
        to: SiteId(to),
        payload: payload.to_vec(),
        kind: 1,
        transport: TransportKind::Tcp,
        custody: false,
    })
    .expect("the ring is up")
}

/// Steps to the next delivery and hands back its payload.
fn deliver(net: &mut SimNet) -> Payload {
    match net.step() {
        Some(Event::Message(m)) => m.payload,
        other => panic!("expected a delivery, got {other:?}"),
    }
}

#[test]
fn a_repeat_of_a_delivered_message_is_its_own() {
    let mut net = SimNet::new(Topology::ring(4, LinkSpec::default()));
    send(&mut net, 0, 1, b"flood");
    assert_eq!(deliver(&mut net).try_into_unique(), Ok(b"flood".to_vec()));
    // The first is gone, so the repeat keeps its own buffer.
    send(&mut net, 0, 1, b"flood");
    assert_eq!(deliver(&mut net).try_into_unique(), Ok(b"flood".to_vec()));
}

#[test]
fn a_run_of_repeats_shares_until_its_last_delivery() {
    let mut net = SimNet::new(Topology::ring(4, LinkSpec::default()));
    // Open both streams first, so equal sizes arrive in send order.
    for to in [1, 3] {
        send(&mut net, 0, to, b"open");
        deliver(&mut net);
    }
    for to in [1, 3, 1] {
        send(&mut net, 0, to, b"clone");
    }
    // A different send ends the run: the next repeat starts a new one.
    send(&mut net, 0, 1, b"other");
    send(&mut net, 0, 3, b"clone");
    let held: Vec<bool> = (0..5)
        .map(|_| deliver(&mut net).try_into_unique().is_err())
        .collect();
    // Three clones share one buffer until the last of them; "other" and
    // the repeat after it are each alone.
    assert_eq!(held, [true, true, false, false, false]);
    // Compared only with the previous send and the sender's last: an
    // equal payload further back is not looked for.
    send(&mut net, 0, 1, b"a");
    send(&mut net, 0, 1, b"b");
    send(&mut net, 0, 1, b"a");
    assert!((0..3).all(|_| deliver(&mut net).try_into_unique().is_ok()));
}

#[test]
fn a_senders_repeat_after_another_senders_send_shares_its_buffer() {
    let mut net = SimNet::new(Topology::full_mesh(4, LinkSpec::default()));
    for (from, to) in [(0, 1), (2, 3), (0, 3), (2, 1)] {
        send(&mut net, from, to, b"open");
        deliver(&mut net);
    }
    // Site 0 repeats its clone after site 2 sent something else, and site
    // 2 repeats its own after that.
    send(&mut net, 0, 1, b"clone");
    send(&mut net, 2, 3, b"other");
    send(&mut net, 0, 3, b"clone");
    send(&mut net, 2, 1, b"other");
    let held: Vec<bool> = (0..4)
        .map(|_| deliver(&mut net).try_into_unique().is_err())
        .collect();
    assert_eq!(held, [true, true, false, false]);
    // Once the sender's last message is delivered, its repeat is its own.
    send(&mut net, 0, 1, b"clone");
    deliver(&mut net);
    send(&mut net, 2, 3, b"other");
    send(&mut net, 0, 1, b"clone");
    assert!((0..2).all(|_| deliver(&mut net).try_into_unique().is_ok()));
}
