//! Network topologies: sites and the links between them.
//!
//! The diffusion experiment (E2) and the scheduling experiment (E7) sweep
//! over topology shapes, so the builders here cover the standard shapes:
//! ring, star, 2-D grid, full mesh, and random connected graphs.  Each link
//! carries a latency and a bandwidth; message transfer time over a link is
//! `latency + size / bandwidth`.

use crate::time::Duration;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use tacoma_util::{DetRng, SiteId};

/// Parameters of a single (bidirectional) link.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinkSpec {
    /// One-way propagation latency.
    pub latency: Duration,
    /// Bandwidth in bytes per simulated second.
    pub bandwidth_bytes_per_sec: u64,
}

impl Default for LinkSpec {
    fn default() -> Self {
        // A 1995-flavoured campus LAN: 2 ms latency, 10 Mbit/s ≈ 1.25 MB/s.
        LinkSpec {
            latency: Duration::from_millis(2),
            bandwidth_bytes_per_sec: 1_250_000,
        }
    }
}

impl LinkSpec {
    /// A LAN-class link (sub-millisecond latency, 100 Mbit/s).
    pub fn lan() -> Self {
        LinkSpec {
            latency: Duration::from_micros(500),
            bandwidth_bytes_per_sec: 12_500_000,
        }
    }

    /// A WAN-class link (tens of milliseconds latency, 1.5 Mbit/s T1-ish).
    pub fn wan() -> Self {
        LinkSpec {
            latency: Duration::from_millis(40),
            bandwidth_bytes_per_sec: 190_000,
        }
    }

    /// Time to push `bytes` over this link, including propagation latency.
    pub fn transfer_time(&self, bytes: u64) -> Duration {
        self.latency + serialization_time(bytes, self.bandwidth_bytes_per_sec)
    }
}

/// Time to serialize `bytes` onto a link of `bandwidth` bytes per second:
/// the one formula behind [`LinkSpec::transfer_time`] and a cached route's
/// regrouped charge.
pub(crate) fn serialization_time(bytes: u64, bandwidth: u64) -> Duration {
    Duration::from_micros(bytes.saturating_mul(1_000_000) / bandwidth.max(1))
}

/// The shape of a generated topology, recorded for experiment reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TopologyKind {
    /// Every site connected to every other site.
    FullMesh,
    /// Sites in a cycle.
    Ring,
    /// One hub site connected to all others.
    Star,
    /// A rows × cols grid with 4-neighbour links.
    Grid,
    /// A random connected graph.
    Random,
    /// Cliques of sites joined in a ring by gateway links (the scale
    /// experiments' stand-in for LAN clusters on a WAN backbone).
    RingOfCliques,
    /// A hand-built topology.
    Custom,
}

/// A set of sites and the links between them.
///
/// Links are bidirectional and stored once per unordered pair.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Topology {
    kind: TopologyKind,
    sites: u32,
    links: BTreeMap<(SiteId, SiteId), LinkSpec>,
}

impl Topology {
    /// Creates an empty custom topology with `sites` sites and no links.
    pub fn empty(sites: u32) -> Self {
        Topology {
            kind: TopologyKind::Custom,
            sites,
            links: BTreeMap::new(),
        }
    }

    /// Full mesh over `sites` sites.
    pub fn full_mesh(sites: u32, spec: LinkSpec) -> Self {
        let mut t = Topology::empty(sites);
        t.kind = TopologyKind::FullMesh;
        for a in 0..sites {
            for b in (a + 1)..sites {
                t.add_link(SiteId(a), SiteId(b), spec);
            }
        }
        t
    }

    /// Ring over `sites` sites.
    pub fn ring(sites: u32, spec: LinkSpec) -> Self {
        let mut t = Topology::empty(sites);
        t.kind = TopologyKind::Ring;
        if sites >= 2 {
            for a in 0..sites {
                t.add_link(SiteId(a), SiteId((a + 1) % sites), spec);
            }
        }
        t
    }

    /// Star with `SiteId(0)` as the hub.
    pub fn star(sites: u32, spec: LinkSpec) -> Self {
        let mut t = Topology::empty(sites);
        t.kind = TopologyKind::Star;
        for a in 1..sites {
            t.add_link(SiteId(0), SiteId(a), spec);
        }
        t
    }

    /// `rows × cols` grid with 4-neighbour connectivity.
    pub fn grid(rows: u32, cols: u32, spec: LinkSpec) -> Self {
        let mut t = Topology::empty(rows * cols);
        t.kind = TopologyKind::Grid;
        let id = |r: u32, c: u32| SiteId(r * cols + c);
        for r in 0..rows {
            for c in 0..cols {
                if c + 1 < cols {
                    t.add_link(id(r, c), id(r, c + 1), spec);
                }
                if r + 1 < rows {
                    t.add_link(id(r, c), id(r + 1, c), spec);
                }
            }
        }
        t
    }

    /// `cliques` fully-meshed clusters of `clique_size` sites each, joined
    /// in a ring: site 0 of clique `c` (the *gateway*) links to the gateway
    /// of clique `c + 1`.  Intra-clique links use `intra` (typically LAN),
    /// gateway links use `inter` (typically WAN).
    ///
    /// This is the scale-experiment shape (E11/E12): clique-local traffic is
    /// one hop, cross-clique traffic rides the gateway ring, and the longest
    /// route grows with the clique count — a campus-LANs-on-a-WAN picture at
    /// sizes the paper's testbed could only gesture at.
    pub fn ring_of_cliques(
        cliques: u32,
        clique_size: u32,
        intra: LinkSpec,
        inter: LinkSpec,
    ) -> Self {
        let mut t = Topology::empty(cliques * clique_size);
        t.kind = TopologyKind::RingOfCliques;
        let gateway = |c: u32| SiteId(c * clique_size);
        for c in 0..cliques {
            let base = c * clique_size;
            for a in 0..clique_size {
                for b in (a + 1)..clique_size {
                    t.add_link(SiteId(base + a), SiteId(base + b), intra);
                }
            }
        }
        if cliques >= 2 && clique_size >= 1 {
            for c in 0..cliques {
                let next = (c + 1) % cliques;
                if gateway(c) != gateway(next) && !t.has_link(gateway(c), gateway(next)) {
                    t.add_link(gateway(c), gateway(next), inter);
                }
            }
        }
        t
    }

    /// A random connected graph with roughly `extra_edges` edges beyond a
    /// spanning tree, generated deterministically from `rng`.
    pub fn random_connected(
        sites: u32,
        extra_edges: u32,
        spec: LinkSpec,
        rng: &mut DetRng,
    ) -> Self {
        let mut t = Topology::empty(sites);
        t.kind = TopologyKind::Random;
        if sites == 0 {
            return t;
        }
        // Random spanning tree: connect each new site to a random earlier one.
        let mut order: Vec<u32> = (0..sites).collect();
        rng.shuffle(&mut order);
        for i in 1..sites as usize {
            let parent = order[rng.index(i)];
            t.add_link(SiteId(order[i]), SiteId(parent), spec);
        }
        // Extra edges between random distinct pairs.
        let mut added = 0;
        let mut attempts = 0;
        while added < extra_edges && attempts < extra_edges * 20 && sites >= 2 {
            attempts += 1;
            let a = SiteId(rng.next_below(sites as u64) as u32);
            let b = SiteId(rng.next_below(sites as u64) as u32);
            if a != b && !t.has_link(a, b) {
                t.add_link(a, b, spec);
                added += 1;
            }
        }
        t
    }

    /// Number of sites.
    pub fn site_count(&self) -> u32 {
        self.sites
    }

    /// Iterator over all site ids.
    pub fn sites(&self) -> impl Iterator<Item = SiteId> + '_ {
        (0..self.sites).map(SiteId)
    }

    /// The shape this topology was built with.
    pub fn kind(&self) -> TopologyKind {
        self.kind
    }

    /// Number of (bidirectional) links.
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// Adds (or replaces) the link between `a` and `b`.
    ///
    /// # Panics
    ///
    /// Panics if either site id is out of range or if `a == b`.
    pub fn add_link(&mut self, a: SiteId, b: SiteId, spec: LinkSpec) {
        assert!(a != b, "no self links");
        assert!(a.0 < self.sites && b.0 < self.sites, "site out of range");
        self.links.insert(Self::key(a, b), spec);
    }

    /// Removes the link between `a` and `b`, if present.
    pub fn remove_link(&mut self, a: SiteId, b: SiteId) {
        self.links.remove(&Self::key(a, b));
    }

    /// Returns the link between `a` and `b`, if any.
    pub fn link(&self, a: SiteId, b: SiteId) -> Option<&LinkSpec> {
        self.links.get(&Self::key(a, b))
    }

    /// Whether `a` and `b` are directly connected.
    pub fn has_link(&self, a: SiteId, b: SiteId) -> bool {
        self.links.contains_key(&Self::key(a, b))
    }

    /// All neighbours of `site`, in ascending order.
    pub fn neighbors(&self, site: SiteId) -> Vec<SiteId> {
        let mut out = Vec::new();
        for &(a, b) in self.links.keys() {
            if a == site {
                out.push(b);
            } else if b == site {
                out.push(a);
            }
        }
        out.sort_unstable();
        out
    }

    /// Iterator over all links as `(a, b, spec)` with `a < b`.
    pub fn links(&self) -> impl Iterator<Item = (SiteId, SiteId, &LinkSpec)> + '_ {
        self.links.iter().map(|(&(a, b), spec)| (a, b, spec))
    }

    /// Whether the topology is connected (ignoring site up/down status).
    pub fn is_connected(&self) -> bool {
        if self.sites == 0 {
            return true;
        }
        let mut seen = BTreeSet::new();
        let mut queue = VecDeque::new();
        seen.insert(SiteId(0));
        queue.push_back(SiteId(0));
        while let Some(s) = queue.pop_front() {
            for n in self.neighbors(s) {
                if seen.insert(n) {
                    queue.push_back(n);
                }
            }
        }
        seen.len() as u32 == self.sites
    }

    fn key(a: SiteId, b: SiteId) -> (SiteId, SiteId) {
        if a <= b {
            (a, b)
        } else {
            (b, a)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_mesh_links() {
        let t = Topology::full_mesh(4, LinkSpec::default());
        assert_eq!(t.site_count(), 4);
        assert_eq!(t.link_count(), 6);
        assert!(t.is_connected());
        assert_eq!(t.kind(), TopologyKind::FullMesh);
        assert_eq!(
            t.neighbors(SiteId(0)),
            vec![SiteId(1), SiteId(2), SiteId(3)]
        );
    }

    #[test]
    fn ring_links() {
        let t = Topology::ring(5, LinkSpec::default());
        assert_eq!(t.link_count(), 5);
        assert!(t.is_connected());
        assert_eq!(t.neighbors(SiteId(0)), vec![SiteId(1), SiteId(4)]);
    }

    #[test]
    fn tiny_rings_do_not_panic() {
        assert_eq!(Topology::ring(0, LinkSpec::default()).link_count(), 0);
        assert_eq!(Topology::ring(1, LinkSpec::default()).link_count(), 0);
        // A 2-ring collapses to a single link rather than a duplicate pair.
        assert_eq!(Topology::ring(2, LinkSpec::default()).link_count(), 1);
    }

    #[test]
    fn star_links() {
        let t = Topology::star(6, LinkSpec::default());
        assert_eq!(t.link_count(), 5);
        assert_eq!(t.neighbors(SiteId(0)).len(), 5);
        assert_eq!(t.neighbors(SiteId(3)), vec![SiteId(0)]);
        assert!(t.is_connected());
    }

    #[test]
    fn grid_links() {
        let t = Topology::grid(3, 4, LinkSpec::default());
        assert_eq!(t.site_count(), 12);
        // 3*3 horizontal per row? rows*(cols-1) + cols*(rows-1) = 3*3 + 4*2 = 17
        assert_eq!(t.link_count(), 17);
        assert!(t.is_connected());
        // Corner has 2 neighbours, interior has 4.
        assert_eq!(t.neighbors(SiteId(0)).len(), 2);
        assert_eq!(t.neighbors(SiteId(5)).len(), 4);
    }

    #[test]
    fn ring_of_cliques_links_and_connectivity() {
        let t = Topology::ring_of_cliques(4, 3, LinkSpec::lan(), LinkSpec::wan());
        assert_eq!(t.site_count(), 12);
        assert_eq!(t.kind(), TopologyKind::RingOfCliques);
        // 4 cliques × C(3,2) intra links + 4 gateway links.
        assert_eq!(t.link_count(), 4 * 3 + 4);
        assert!(t.is_connected());
        // Gateways carry the WAN spec, clique members the LAN spec.
        assert_eq!(t.link(SiteId(0), SiteId(3)), Some(&LinkSpec::wan()));
        assert_eq!(t.link(SiteId(0), SiteId(1)), Some(&LinkSpec::lan()));
        // A non-gateway member only sees its own clique.
        assert_eq!(t.neighbors(SiteId(4)), vec![SiteId(3), SiteId(5)]);
    }

    #[test]
    fn degenerate_ring_of_cliques_shapes_hold_together() {
        // Two cliques: one gateway link, not a duplicate pair.
        let t = Topology::ring_of_cliques(2, 2, LinkSpec::default(), LinkSpec::default());
        assert_eq!(t.link_count(), 2 + 1);
        assert!(t.is_connected());
        // One clique: no gateway ring at all.
        let t = Topology::ring_of_cliques(1, 4, LinkSpec::default(), LinkSpec::default());
        assert_eq!(t.link_count(), 6);
        assert!(t.is_connected());
        // Clique size 1 collapses to a plain ring of gateways.
        let t = Topology::ring_of_cliques(5, 1, LinkSpec::default(), LinkSpec::wan());
        assert_eq!(t.link_count(), 5);
        assert!(t.is_connected());
    }

    #[test]
    fn random_is_connected() {
        let mut rng = DetRng::new(42);
        for sites in [1u32, 2, 5, 16, 40] {
            let t = Topology::random_connected(sites, sites / 2, LinkSpec::default(), &mut rng);
            assert!(
                t.is_connected(),
                "random topology with {sites} sites must be connected"
            );
            assert!(t.link_count() >= sites.saturating_sub(1) as usize);
        }
    }

    #[test]
    fn link_lookup_is_symmetric() {
        let mut t = Topology::empty(3);
        t.add_link(SiteId(2), SiteId(1), LinkSpec::lan());
        assert!(t.has_link(SiteId(1), SiteId(2)));
        assert!(t.has_link(SiteId(2), SiteId(1)));
        assert!(t.link(SiteId(1), SiteId(2)).is_some());
        t.remove_link(SiteId(1), SiteId(2));
        assert!(!t.has_link(SiteId(2), SiteId(1)));
    }

    #[test]
    fn disconnected_topology_detected() {
        let mut t = Topology::empty(4);
        t.add_link(SiteId(0), SiteId(1), LinkSpec::default());
        t.add_link(SiteId(2), SiteId(3), LinkSpec::default());
        assert!(!t.is_connected());
    }

    #[test]
    #[should_panic(expected = "no self links")]
    fn self_link_panics() {
        let mut t = Topology::empty(2);
        t.add_link(SiteId(1), SiteId(1), LinkSpec::default());
    }

    #[test]
    fn transfer_time_includes_serialization() {
        let spec = LinkSpec {
            latency: Duration::from_millis(1),
            bandwidth_bytes_per_sec: 1_000_000,
        };
        // 1 MB over 1 MB/s = 1 s + 1 ms latency.
        let t = spec.transfer_time(1_000_000);
        assert_eq!(t, Duration::from_micros(1_001_000));
        // Zero bytes still pays latency.
        assert_eq!(spec.transfer_time(0), Duration::from_millis(1));
    }

    #[test]
    fn wan_is_slower_than_lan() {
        assert!(LinkSpec::wan().transfer_time(10_000) > LinkSpec::lan().transfer_time(10_000));
    }
}
