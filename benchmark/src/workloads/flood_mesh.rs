//! `flood_mesh`: a hop-limited naive flood over a 4×4 grid.
//!
//! Chosen because it is the one place the whole meet path — event queue,
//! cached one-hop route, tiny encode and decode, dispatch, cabinet append —
//! runs hot with nothing else in the way: a million ~60-byte briefcases
//! handled by a native agent that does almost nothing.  The script, sched
//! and admission layers stay idle.
//!
//! The seed picks the characters of the announcement only.  Its length is
//! fixed, so the meet count, the bytes on the wire and the memory retained
//! do not depend on the seed.

use super::{Capture, Harness, Outcome, Size, Workload};
use crate::spans::{boxed, AgentClock};
use std::rc::Rc;
use tacoma_agents::diffusion::{BULLETIN, DIFFUSION_CABINET};
use tacoma_agents::{naive_flood_briefcase, NaiveFloodAgent};
use tacoma_core::{Briefcase, TacomaSystem};
use tacoma_net::{LinkSpec, Topology};
use tacoma_util::{AgentName, DetRng, SiteId};

const ROWS: u32 = 4;
const COLS: u32 = 4;
const SITES: usize = (ROWS * COLS) as usize;
const ANNOUNCEMENT_BYTES: usize = 16;

/// For each site, the number of walks of at most `hops` steps from site 0 of
/// the `ROWS`×`COLS` grid that end there: what a flood that clones to every
/// neighbour until its hop budget runs out delivers to that site.  Computed
/// by repeated multiplication with the grid's adjacency matrix, written here
/// from the grid's definition and not from the program's `Topology`.
pub fn walks_from_corner(hops: u32) -> [u64; SITES] {
    let neighbours = |site: usize| {
        let (r, c) = (site as u32 / COLS, site as u32 % COLS);
        let mut out = Vec::with_capacity(4);
        if r > 0 {
            out.push(site - COLS as usize);
        }
        if r + 1 < ROWS {
            out.push(site + COLS as usize);
        }
        if c > 0 {
            out.push(site - 1);
        }
        if c + 1 < COLS {
            out.push(site + 1);
        }
        out
    };
    let mut ending_at = [0u64; SITES];
    ending_at[0] = 1;
    let mut total = ending_at;
    for _ in 0..hops {
        let mut next = [0u64; SITES];
        for (site, &walks) in ending_at.iter().enumerate() {
            for n in neighbours(site) {
                next[n] += walks;
            }
        }
        ending_at = next;
        for (t, w) in total.iter_mut().zip(ending_at) {
            *t += w;
        }
    }
    total
}

fn announcement(seed: u64) -> String {
    let mut rng = DetRng::new(seed).derive(0xF100D);
    (0..ANNOUNCEMENT_BYTES)
        .map(|_| char::from(b'a' + rng.next_below(26) as u8))
        .collect()
}

pub struct FloodMesh;

pub struct World {
    sys: TacomaSystem,
    /// The announcement that starts the flood; taken by `drive`.
    opening: Option<Briefcase>,
    hops: u32,
}

impl Workload for FloodMesh {
    type World = World;

    fn build(seed: u64, size: Size, clock: Option<&Rc<AgentClock>>) -> World {
        let hops = size.pick(12, 6);
        let mut sys = TacomaSystem::builder()
            .topology(Topology::grid(ROWS, COLS, LinkSpec::default()))
            .seed(seed)
            .build();
        for s in 0..sys.site_count() {
            sys.register_agent(SiteId(s), boxed(NaiveFloodAgent::new(), clock));
        }
        let opening = naive_flood_briefcase("m", &announcement(seed), u64::from(hops));
        World {
            sys,
            opening: Some(opening),
            hops,
        }
    }

    fn drive(world: &mut World, h: &mut Harness<'_>) {
        let World { sys, opening, .. } = world;
        let opening = opening.take().expect("a world is driven once");
        let contact = AgentName::new(NaiveFloodAgent::NAME);
        h.inject(|| sys.inject_meet(SiteId(0), contact, opening));
        h.drain(sys);
    }

    fn verify(world: World, events: u64) -> Outcome {
        let World { sys, hops, .. } = world;
        let mut out = Outcome::default();
        out.observe_system(&sys, events);
        let s = out.stats;
        let expected = walks_from_corner(hops);
        let total: u64 = expected.iter().sum();
        out.check(s.meets_requested == total, || {
            format!(
                "{} meets, {total} walks of <= {hops} steps",
                s.meets_requested
            )
        });
        for (site, want) in expected.iter().enumerate() {
            let got = sys
                .place(SiteId(site as u32))
                .cabinets()
                .get(DIFFUSION_CABINET)
                .and_then(|c| c.folder_ref(BULLETIN))
                .map_or(0, |f| f.len() as u64);
            out.check(got == *want, || {
                format!("site {site}: {got} bulletins, {want} walks end there")
            });
            out.check(got > 0, || format!("site {site} was not covered"));
        }
        out.attempted = s.meets_requested;
        out.off_nominal = out.terminal_meets() - s.meets_completed;
        out.unplanned = out.off_nominal;
        let topology = Topology::grid(ROWS, COLS, LinkSpec::default());
        out.capture = Capture {
            pairs: (0..SITES as u32)
                .flat_map(|s| {
                    topology
                        .neighbors(SiteId(s))
                        .into_iter()
                        .map(move |n| (SiteId(s), n))
                })
                .collect(),
            topology: Some(topology),
            ..Capture::default()
        };
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn walk_counts_from_the_corner() {
        // Zero hops: the walk of length zero.
        let w = walks_from_corner(0);
        assert_eq!(w[0], 1);
        assert_eq!(w.iter().sum::<u64>(), 1);
        // One hop: the corner has two neighbours.
        let w = walks_from_corner(1);
        assert_eq!(w.iter().sum::<u64>(), 3);
        assert_eq!((w[1], w[4]), (1, 1));
        // Two hops: back to the corner twice, plus (0,2), (2,0), (1,1) twice.
        let w = walks_from_corner(2);
        assert_eq!(w[0], 3);
        assert_eq!(w[5], 2);
        assert_eq!(w.iter().sum::<u64>(), 3 + 6);
        // The benchmark's size.
        assert_eq!(walks_from_corner(12).iter().sum::<u64>(), 999_429);
        // A walk of odd length from (0,0) ends on an odd-parity square, so
        // every square is reached within the grid's diameter of six.
        assert!(walks_from_corner(6).iter().all(|&n| n > 0));
    }

    #[test]
    fn announcement_depends_on_the_seed_but_not_its_length() {
        assert_eq!(announcement(1).len(), ANNOUNCEMENT_BYTES);
        assert_eq!(announcement(1), announcement(1));
        assert_ne!(announcement(1), announcement(2));
    }
}
