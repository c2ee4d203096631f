//! `simnet_gossip`: the bare event engine on a 4 096-site ring of cliques.
//!
//! Chosen because every other workload runs on this engine and none shows it
//! alone: here there is no kernel, no codec and no agent — only the calendar
//! queue under a deep standing agenda, `send`/`step`, and routing at 4 096
//! sites.  It is the bypass workload for every core, script and sched change:
//! the prediction for those is no movement here.
//!
//! Every site arms all its timers up front; each timer fires two sends, one
//! in a hundred of them to another clique.  The seed picks the timer jitter
//! and the targets.

use super::{thin, Capture, Harness, Outcome, SimCounts, Size, Workload, CHUNK_EVENTS};
use crate::spans::AgentClock;
use crate::stats::Fnv;
use std::rc::Rc;
use tacoma_net::{Duration, Event, LinkSpec, SendOptions, SimNet, Topology, TransportKind};
use tacoma_util::{DetRng, SiteId};

const CLIQUE_SIZE: u32 = 8;
const FANOUT: usize = 2;
const PAYLOAD_BYTES: usize = 512;
const CROSS_PERMILLE: u64 = 10;
/// Microseconds between a site's rounds; each round is jittered within it.
const INTERVAL_US: u64 = 2_000;
const KIND_GOSSIP: u16 = 7;

/// One armed timer: who fires it and whom it then sends to.
struct Round {
    site: SiteId,
    at_us: u64,
    targets: [SiteId; FANOUT],
}

fn topology(cliques: u32) -> Topology {
    Topology::ring_of_cliques(cliques, CLIQUE_SIZE, LinkSpec::lan(), LinkSpec::wan())
}

/// The whole agenda, generated from the seed: per site, `rounds` jittered
/// timers and the targets of the sends each one fires.
fn agenda(seed: u64, cliques: u32, rounds: u32) -> Vec<Round> {
    let master = DetRng::new(seed);
    let mut plan = Vec::with_capacity((cliques * CLIQUE_SIZE * rounds) as usize);
    for s in 0..cliques * CLIQUE_SIZE {
        let mut rng = master.derive(u64::from(s));
        let own = s / CLIQUE_SIZE;
        for round in 0..rounds {
            let at_us = INTERVAL_US * u64::from(round) + rng.next_below(INTERVAL_US);
            let targets = std::array::from_fn(|_| {
                let cross = cliques > 1 && rng.next_below(1000) < CROSS_PERMILLE;
                let clique = if cross {
                    // Any clique but this one.
                    (own + 1 + rng.next_below(u64::from(cliques) - 1) as u32) % cliques
                } else {
                    own
                };
                let mut member = rng.next_below(u64::from(CLIQUE_SIZE)) as u32;
                if clique == own && clique * CLIQUE_SIZE + member == s {
                    member = (member + 1) % CLIQUE_SIZE;
                }
                SiteId(clique * CLIQUE_SIZE + member)
            });
            plan.push(Round {
                site: SiteId(s),
                at_us,
                targets,
            });
        }
    }
    plan
}

pub struct SimnetGossip;

pub struct World {
    net: SimNet,
    plan: Vec<Round>,
    cliques: u32,
    sends: u64,
    refused: u64,
    deliveries: u64,
    delivered_bytes: u64,
    /// Events that are neither one of the plan's timers nor a delivery.
    strays: u64,
}

impl Workload for SimnetGossip {
    type World = World;

    fn build(seed: u64, size: Size, _clock: Option<&Rc<AgentClock>>) -> World {
        let cliques = size.pick(512, 32);
        let plan = agenda(seed, cliques, size.pick(96, 24));
        let mut net = SimNet::new(topology(cliques));
        for (key, round) in plan.iter().enumerate() {
            net.schedule_timer(round.site, Duration::from_micros(round.at_us), key as u64);
        }
        World {
            net,
            plan,
            cliques,
            sends: 0,
            refused: 0,
            deliveries: 0,
            delivered_bytes: 0,
            strays: 0,
        }
    }

    fn drive(w: &mut World, h: &mut Harness<'_>) {
        while h.chunk(|| {
            let mut n = 0;
            while n < CHUNK_EVENTS {
                match w.net.step() {
                    None => break,
                    Some(Event::Timer { site, key }) => {
                        for to in w.plan[key as usize].targets {
                            let sent = w.net.send(SendOptions {
                                from: site,
                                to,
                                payload: vec![0; PAYLOAD_BYTES],
                                kind: KIND_GOSSIP,
                                transport: TransportKind::Tcp,
                                custody: false,
                            });
                            match sent {
                                Ok(_) => w.sends += 1,
                                Err(_) => w.refused += 1,
                            }
                        }
                    }
                    Some(Event::Message(msg)) => {
                        w.deliveries += 1;
                        w.delivered_bytes += msg.payload.len() as u64;
                    }
                    Some(_) => w.strays += 1,
                }
                n += 1;
            }
            (n, w.net.pending_count())
        }) == CHUNK_EVENTS
        {}
    }

    fn verify(w: World, events: u64) -> Outcome {
        let mut out = Outcome {
            sim: SimCounts::of(&w.net),
            ..Outcome::default()
        };
        let timers = w.plan.len() as u64;
        let issued = timers * FANOUT as u64;
        out.check(w.sends == issued, || {
            format!("{} sends accepted, {issued} issued", w.sends)
        });
        out.check(w.deliveries == w.sends, || {
            format!("{} deliveries for {} sends", w.deliveries, w.sends)
        });
        out.check(w.delivered_bytes == w.sends * PAYLOAD_BYTES as u64, || {
            format!("{} payload bytes for {} sends", w.delivered_bytes, w.sends)
        });
        out.check(events == timers + w.deliveries, || {
            format!(
                "{} events, {timers} timers + {} deliveries",
                events, w.deliveries
            )
        });
        let in_flight = out.sim.in_flight();
        out.check(in_flight == 0, || {
            format!("{in_flight} messages still in flight")
        });
        out.attempted = timers + issued;
        out.off_nominal = w.refused + w.strays;
        out.unplanned = out.off_nominal;
        let mut digest = Fnv::new();
        digest.word(w.sends);
        digest.word(w.deliveries);
        out.seal(digest, events);
        out.capture = Capture {
            topology: Some(topology(w.cliques)),
            pairs: thin(
                w.plan
                    .iter()
                    .flat_map(|r| r.targets.map(|to| (r.site, to)))
                    .collect(),
            ),
            payload_bytes: Some(PAYLOAD_BYTES),
            ..Capture::default()
        };
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn agenda_is_a_pure_function_of_the_seed() {
        let key = |plan: &[Round]| -> Vec<(u32, u64, u32, u32)> {
            plan.iter()
                .map(|r| (r.site.0, r.at_us, r.targets[0].0, r.targets[1].0))
                .collect()
        };
        assert_eq!(key(&agenda(3, 4, 5)), key(&agenda(3, 4, 5)));
        assert_ne!(key(&agenda(3, 4, 5)), key(&agenda(4, 4, 5)));
    }

    #[test]
    fn nobody_sends_to_itself_and_some_sends_cross_cliques() {
        let plan = agenda(1, 16, 64);
        assert_eq!(plan.len(), 16 * 8 * 64);
        let mut cross = 0;
        for r in &plan {
            for to in r.targets {
                assert_ne!(to, r.site);
                assert!(to.0 < 16 * 8);
                cross += u32::from(to.0 / CLIQUE_SIZE != r.site.0 / CLIQUE_SIZE);
            }
        }
        // 1 % of 16 384 sends, give or take.
        assert!((80..260).contains(&cross), "{cross} cross-clique sends");
    }
}
