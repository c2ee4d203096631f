//! Shortest-path routing over a topology, with a cached fast path.
//!
//! The paper's agents migrate between arbitrary sites; when the topology is
//! not a full mesh the simulator routes a message over the shortest live path
//! (fewest hops, BFS) and charges every hop's latency, serialization time and
//! byte counters.  §4 of the paper remarks that broker state dissemination
//! "seems to be equivalent to routing in a wide-area network"; the routing
//! table built here is also reused by the scheduling crate for that purpose.
//!
//! # The fast path
//!
//! Recomputing a BFS on every send caps topology size, exactly as
//! per-destination flooding would cap a real WAN.  [`Router`] therefore keeps
//! an **epoch-invalidated route cache**: [`Router::route`] answers a
//! `(from, to)` query from the cache whenever the cache was filled at the
//! caller's current *epoch*, and recomputes (and re-caches) it otherwise.
//! The epoch is owned by the caller — [`crate::sim::SimNet`] bumps it on
//! every site crash, recovery, partition, heal and topology edit — so
//! invalidation is a single integer compare per query: the first query at a
//! new epoch empties the cache, and stale entries are never consulted.
//! Negative results (unreachable pairs) are cached too; they are exactly as
//! expensive to recompute as positive ones.
//!
//! Cached paths live in one flat arena, each site beside the [`LinkSpec`] of
//! the link that reached it, so the send path charges a route's hops from
//! the cached slice without asking the topology.  There is one traversal
//! (`search`); [`Router::route`] runs it over reusable scratch buffers and
//! writes the path into the arena, so a cache miss allocates nothing of its
//! own.  [`Router::route_queries`] and [`Router::bfs_runs`]
//! count the routing work performed; the scale experiments (E11/E12) report
//! both — without the cache every query would be a BFS, so the saving is
//! `route_queries / bfs_runs`.

use crate::topology::{LinkSpec, Topology};
use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};
use tacoma_util::{IdBuildHasher, SiteId};

/// Sentinel in the BFS predecessor array meaning "not visited yet".
const UNVISITED: u32 = u32::MAX;

/// One cached routing answer: where its path sits in the router's arena.
/// A reachable path has at least one site, so `len == 0` is proven
/// unreachability.
#[derive(Debug, Clone, Copy)]
struct Span {
    start: u32,
    len: u32,
}

impl Span {
    fn sites(self) -> std::ops::Range<usize> {
        let start = self.start as usize;
        start..start + self.len as usize
    }
}

/// A routing oracle that answers shortest-path queries over a topology,
/// honouring a per-site liveness mask and a per-edge partition predicate.
#[derive(Debug, Clone)]
pub struct Router {
    topology: Topology,
    /// Precomputed adjacency (ascending neighbour order, matching
    /// `Topology::neighbors`), rebuilt on topology edits.
    adj: Vec<Vec<SiteId>>,
    /// `(from, to)` → cached path, all of it computed at `cache_epoch`.
    cache: HashMap<(SiteId, SiteId), Span, IdBuildHasher>,
    cache_epoch: u64,
    /// The arena the cache's spans index: every cached path's sites, end to
    /// end, and beside each site the spec of the link that reached it (a
    /// path's first site has none; its slot is filler).  Emptied with the
    /// cache, so epoch churn cannot grow it.
    path_sites: Vec<SiteId>,
    path_links: Vec<LinkSpec>,
    route_queries: u64,
    bfs_runs: u64,
    /// Scratch: predecessor per site (`UNVISITED` when not reached).
    prev: Vec<u32>,
    /// Scratch: BFS frontier.
    frontier: VecDeque<SiteId>,
}

impl Router {
    /// Creates a router for the given topology.
    pub fn new(topology: Topology) -> Self {
        let adj = build_adjacency(&topology);
        Router {
            topology,
            adj,
            cache: HashMap::default(),
            cache_epoch: 0,
            path_sites: Vec::new(),
            path_links: Vec::new(),
            route_queries: 0,
            bfs_runs: 0,
            prev: Vec::new(),
            frontier: VecDeque::new(),
        }
    }

    /// Read access to the underlying topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Edits the topology in place (links die, partitions become permanent),
    /// then rebuilds the adjacency list and drops every cached route.
    ///
    /// Callers that hold a routing epoch (the simulator) must bump it too;
    /// [`crate::sim::SimNet::edit_topology`] does both.
    pub fn edit_topology(&mut self, edit: impl FnOnce(&mut Topology)) {
        edit(&mut self.topology);
        self.adj = build_adjacency(&self.topology);
        self.clear_cache();
    }

    fn clear_cache(&mut self) {
        self.cache.clear();
        self.path_sites.clear();
        self.path_links.clear();
    }

    /// Number of routing queries answered (cache hits and misses alike).
    pub fn route_queries(&self) -> u64 {
        self.route_queries
    }

    /// Number of BFS computations [`Router::route`] actually performed: the
    /// routing *work*; `route_queries - bfs_runs` is the work the cache
    /// saved.
    pub fn bfs_runs(&self) -> u64 {
        self.bfs_runs
    }

    /// Resets the routing-work counters (the cache itself is kept).
    pub fn reset_route_stats(&mut self) {
        self.route_queries = 0;
        self.bfs_runs = 0;
    }

    /// The shortest live path from `from` to `to` at `epoch`, avoiding dead
    /// sites and blocked (partitioned) edges.  Answers from the cache when
    /// the cache was filled at the same epoch; otherwise runs a BFS and
    /// caches the result under `epoch`.  Returns `None` when unreachable.
    ///
    /// Correctness contract: `alive` and `blocked` must be functions of the
    /// state identified by `epoch` — the caller bumps the epoch whenever
    /// either changes, which is what makes cached answers safe to reuse.
    pub fn route(
        &mut self,
        from: SiteId,
        to: SiteId,
        epoch: u64,
        alive: impl Fn(SiteId) -> bool,
        blocked: impl Fn(SiteId, SiteId) -> bool,
    ) -> Option<&[SiteId]> {
        let span = self.lookup(from, to, epoch, alive, blocked);
        (span.len > 0).then(|| &self.path_sites[span.sites()])
    }

    /// [`Router::route`], answered as the specs of the links the path
    /// crosses, in order: one per hop, so a local route is `Some(&[])`.
    pub(crate) fn route_links(
        &mut self,
        from: SiteId,
        to: SiteId,
        epoch: u64,
        alive: impl Fn(SiteId) -> bool,
        blocked: impl Fn(SiteId, SiteId) -> bool,
    ) -> Option<&[LinkSpec]> {
        let span = self.lookup(from, to, epoch, alive, blocked);
        (span.len > 0).then(|| &self.path_links[span.sites()][1..])
    }

    /// The one cache probe behind both views of a route.
    fn lookup(
        &mut self,
        from: SiteId,
        to: SiteId,
        epoch: u64,
        alive: impl Fn(SiteId) -> bool,
        blocked: impl Fn(SiteId, SiteId) -> bool,
    ) -> Span {
        self.route_queries += 1;
        if epoch != self.cache_epoch {
            // Everything cached describes another epoch's liveness.
            self.clear_cache();
            self.cache_epoch = epoch;
        }
        let slot = match self.cache.entry((from, to)) {
            Entry::Occupied(hit) => return *hit.get(),
            Entry::Vacant(slot) => slot,
        };
        self.bfs_runs += 1;
        let start = self.path_sites.len();
        let reached = path_into(
            &self.adj,
            &mut self.prev,
            &mut self.frontier,
            (from, to),
            &alive,
            &blocked,
            &mut self.path_sites,
        );
        if reached {
            let path = &self.path_sites[start..];
            self.path_links.push(LinkSpec::default());
            self.path_links.extend(path.windows(2).map(|hop| {
                self.topology
                    .link(hop[0], hop[1])
                    .copied()
                    .unwrap_or_default()
            }));
        }
        let offset = |n: usize| u32::try_from(n).expect("route arena outgrew u32 offsets");
        *slot.insert(Span {
            start: offset(start),
            len: offset(self.path_sites.len() - start),
        })
    }

    /// The shortest path from `src` to `dst` visiting only sites for which
    /// `alive` returns true (the endpoints must also be alive).  Returns the
    /// full path including both endpoints, or `None` if unreachable.
    ///
    /// Uncached and allocating per call; the simulator's hot path goes
    /// through [`Router::route`] instead.
    pub fn shortest_path(
        &self,
        src: SiteId,
        dst: SiteId,
        alive: impl Fn(SiteId) -> bool,
    ) -> Option<Vec<SiteId>> {
        let mut path = Vec::new();
        path_into(
            &self.adj,
            &mut Vec::new(),
            &mut VecDeque::new(),
            (src, dst),
            &alive,
            &|_, _| false,
            &mut path,
        )
        .then_some(path)
    }

    /// Reachability of every site from `src` over live sites and unblocked
    /// edges, as a boolean mask (index = site id).  `src` itself is reachable
    /// when alive.  Used by the custody layer to tell "site ahead unreachable
    /// (message parked, wait)" from "site ahead dead (relaunch)".
    pub fn reachable_mask(
        &self,
        src: SiteId,
        alive: impl Fn(SiteId) -> bool,
        blocked: impl Fn(SiteId, SiteId) -> bool,
    ) -> Vec<bool> {
        let mut prev = Vec::new();
        search(
            &self.adj,
            &mut prev,
            &mut VecDeque::new(),
            src,
            None,
            &alive,
            &blocked,
        );
        prev.iter().map(|&p| p != UNVISITED).collect()
    }
}

/// The one traversal: a BFS from `from` over live sites and unblocked edges
/// that records each reached site's predecessor in `prev` (every other slot
/// reads `UNVISITED`) and stops as soon as `target`, when given, is reached.
/// Returns whether it was.
fn search(
    adj: &[Vec<SiteId>],
    prev: &mut Vec<u32>,
    frontier: &mut VecDeque<SiteId>,
    from: SiteId,
    target: Option<SiteId>,
    alive: &impl Fn(SiteId) -> bool,
    blocked: &impl Fn(SiteId, SiteId) -> bool,
) -> bool {
    prev.clear();
    prev.resize(adj.len(), UNVISITED);
    frontier.clear();
    if from.index() >= adj.len() || !alive(from) {
        return false;
    }
    prev[from.index()] = from.0;
    if target == Some(from) {
        return true;
    }
    frontier.push_back(from);
    while let Some(cur) = frontier.pop_front() {
        for &n in &adj[cur.index()] {
            if prev[n.index()] != UNVISITED || !alive(n) || blocked(cur, n) {
                continue;
            }
            prev[n.index()] = cur.0;
            if target == Some(n) {
                return true;
            }
            frontier.push_back(n);
        }
    }
    false
}

/// Appends the shortest live path `from → to` (both endpoints included) to
/// `out`, read back from the predecessors [`search`] left in `prev`, and
/// returns whether there is one; `out` is untouched when there is not.
fn path_into(
    adj: &[Vec<SiteId>],
    prev: &mut Vec<u32>,
    frontier: &mut VecDeque<SiteId>,
    (from, to): (SiteId, SiteId),
    alive: &impl Fn(SiteId) -> bool,
    blocked: &impl Fn(SiteId, SiteId) -> bool,
    out: &mut Vec<SiteId>,
) -> bool {
    if !alive(to) || !search(adj, prev, frontier, from, Some(to), alive, blocked) {
        return false;
    }
    let start = out.len();
    let mut at = to;
    out.push(at);
    while at != from {
        at = SiteId(prev[at.index()]);
        out.push(at);
    }
    out[start..].reverse();
    true
}

fn build_adjacency(topology: &Topology) -> Vec<Vec<SiteId>> {
    let mut adj: Vec<Vec<SiteId>> = vec![Vec::new(); topology.site_count() as usize];
    for (a, b, _) in topology.links() {
        adj[a.index()].push(b);
        adj[b.index()].push(a);
    }
    for neighbours in &mut adj {
        neighbours.sort_unstable();
    }
    adj
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::LinkSpec;

    fn all_alive(_: SiteId) -> bool {
        true
    }

    fn unblocked(_: SiteId, _: SiteId) -> bool {
        false
    }

    #[test]
    fn path_on_ring() {
        let r = Router::new(Topology::ring(6, LinkSpec::default()));
        let p = r.shortest_path(SiteId(0), SiteId(2), all_alive).unwrap();
        assert_eq!(p, vec![SiteId(0), SiteId(1), SiteId(2)]);
        let p = r.shortest_path(SiteId(0), SiteId(3), all_alive).unwrap();
        assert_eq!(p.len(), 4, "three hops");
        let p = r.shortest_path(SiteId(0), SiteId(0), all_alive).unwrap();
        assert_eq!(p, vec![SiteId(0)]);
    }

    #[test]
    fn path_avoids_dead_sites() {
        let r = Router::new(Topology::ring(6, LinkSpec::default()));
        // Kill site 1: 0 -> 2 must go the long way around.
        let alive = |s: SiteId| s != SiteId(1);
        let p = r.shortest_path(SiteId(0), SiteId(2), alive).unwrap();
        assert_eq!(
            p,
            vec![SiteId(0), SiteId(5), SiteId(4), SiteId(3), SiteId(2)]
        );
    }

    #[test]
    fn unreachable_when_cut() {
        let mut t = Topology::empty(4);
        t.add_link(SiteId(0), SiteId(1), LinkSpec::default());
        t.add_link(SiteId(2), SiteId(3), LinkSpec::default());
        let r = Router::new(t);
        assert!(r.shortest_path(SiteId(0), SiteId(3), all_alive).is_none());
        assert_eq!(
            r.reachable_mask(SiteId(0), all_alive, unblocked),
            vec![true, true, false, false]
        );
    }

    #[test]
    fn dead_endpoint_is_unreachable() {
        let r = Router::new(Topology::full_mesh(3, LinkSpec::default()));
        let alive = |s: SiteId| s != SiteId(2);
        assert!(r.shortest_path(SiteId(0), SiteId(2), alive).is_none());
        assert!(r.shortest_path(SiteId(2), SiteId(0), alive).is_none());
        assert_eq!(
            r.reachable_mask(SiteId(2), alive, unblocked),
            vec![false; 3]
        );
    }

    #[test]
    fn reachable_mask_honours_liveness_and_blocks() {
        let r = Router::new(Topology::ring(4, LinkSpec::default()));
        let mask = r.reachable_mask(SiteId(0), all_alive, unblocked);
        assert_eq!(mask, vec![true; 4]);
        // Block both edges of site 2: it becomes unreachable, the rest stay.
        let blocked = |a: SiteId, b: SiteId| a == SiteId(2) || b == SiteId(2);
        let mask = r.reachable_mask(SiteId(0), all_alive, blocked);
        assert_eq!(mask, vec![true, true, false, true]);
        // A dead source reaches nothing.
        let mask = r.reachable_mask(SiteId(0), |s| s != SiteId(0), unblocked);
        assert_eq!(mask, vec![false; 4]);
    }

    #[test]
    fn full_mesh_is_single_hop() {
        let r = Router::new(Topology::full_mesh(5, LinkSpec::default()));
        for dst in 1..5 {
            let p = r.shortest_path(SiteId(0), SiteId(dst), all_alive).unwrap();
            assert_eq!(p, vec![SiteId(0), SiteId(dst)]);
        }
    }

    #[test]
    fn cached_route_matches_the_reference_path() {
        let mut r = Router::new(Topology::ring(8, LinkSpec::default()));
        for dst in 0..8 {
            let cached = r
                .route(SiteId(0), SiteId(dst), 0, all_alive, unblocked)
                .map(<[SiteId]>::to_vec);
            let reference = r.shortest_path(SiteId(0), SiteId(dst), all_alive);
            assert_eq!(cached, reference, "0 -> {dst}");
        }
    }

    #[test]
    fn cache_hits_do_not_recompute_until_the_epoch_bumps() {
        let mut r = Router::new(Topology::ring(6, LinkSpec::default()));
        for _ in 0..5 {
            r.route(SiteId(0), SiteId(3), 0, all_alive, unblocked);
        }
        assert_eq!(r.route_queries(), 5);
        assert_eq!(r.bfs_runs(), 1, "one computation serves five queries");
        // A new epoch invalidates the entry; the next query recomputes.
        r.route(SiteId(0), SiteId(3), 1, all_alive, unblocked);
        assert_eq!(r.bfs_runs(), 2);
        // And is itself cached again.
        r.route(SiteId(0), SiteId(3), 1, all_alive, unblocked);
        assert_eq!(r.bfs_runs(), 2);
    }

    #[test]
    fn stale_cache_entries_are_never_served() {
        let mut r = Router::new(Topology::ring(5, LinkSpec::default()));
        let p = r
            .route(SiteId(0), SiteId(2), 0, all_alive, unblocked)
            .unwrap()
            .to_vec();
        assert_eq!(p, vec![SiteId(0), SiteId(1), SiteId(2)]);
        // Site 1 dies and the caller bumps the epoch: the detour is found.
        let alive = |s: SiteId| s != SiteId(1);
        let p = r
            .route(SiteId(0), SiteId(2), 1, alive, unblocked)
            .unwrap()
            .to_vec();
        assert_eq!(p, vec![SiteId(0), SiteId(4), SiteId(3), SiteId(2)]);
    }

    #[test]
    fn unreachable_answers_are_cached_too() {
        let mut r = Router::new(Topology::star(4, LinkSpec::default()));
        let alive = |s: SiteId| s != SiteId(0); // hub down
        for _ in 0..4 {
            assert!(r.route(SiteId(1), SiteId(2), 7, alive, unblocked).is_none());
        }
        assert_eq!(r.bfs_runs(), 1, "negative result must be cached");
    }

    #[test]
    fn blocked_edges_are_avoided_not_just_rejected() {
        // 0-1-2-3 chain inside the group, plus a shortcut through outside
        // site 4 (0-4, 4-3).  With the 4-edges blocked the route must take
        // the longer in-group path instead of failing.
        let mut t = Topology::empty(5);
        t.add_link(SiteId(0), SiteId(1), LinkSpec::default());
        t.add_link(SiteId(1), SiteId(2), LinkSpec::default());
        t.add_link(SiteId(2), SiteId(3), LinkSpec::default());
        t.add_link(SiteId(0), SiteId(4), LinkSpec::default());
        t.add_link(SiteId(4), SiteId(3), LinkSpec::default());
        let mut r = Router::new(t);
        let blocked = |a: SiteId, b: SiteId| a == SiteId(4) || b == SiteId(4);
        let p = r
            .route(SiteId(0), SiteId(3), 0, all_alive, blocked)
            .unwrap()
            .to_vec();
        assert_eq!(p, vec![SiteId(0), SiteId(1), SiteId(2), SiteId(3)]);
        // Unblocked, the shortcut wins.
        let p = r
            .route(SiteId(0), SiteId(3), 1, all_alive, unblocked)
            .unwrap()
            .to_vec();
        assert_eq!(p, vec![SiteId(0), SiteId(4), SiteId(3)]);
    }

    #[test]
    fn a_fresh_epoch_per_query_recomputes_every_query() {
        let mut r = Router::new(Topology::ring(6, LinkSpec::default()));
        for epoch in 0..3 {
            r.route(SiteId(0), SiteId(3), epoch, all_alive, unblocked);
        }
        assert_eq!(r.route_queries(), 3);
        assert_eq!(r.bfs_runs(), 3);
        r.reset_route_stats();
        assert_eq!((r.route_queries(), r.bfs_runs()), (0, 0));
    }

    #[test]
    fn epoch_churn_does_not_grow_the_arena() {
        // E12-style churn: the same 50 pairs re-routed at 1 000 successive
        // epochs must leave behind one epoch's worth of cached paths.
        let mut r = Router::new(Topology::ring(50, LinkSpec::default()));
        let route_all = |r: &mut Router, epoch| {
            for from in 0..50 {
                r.route(
                    SiteId(from),
                    SiteId((from + 7) % 50),
                    epoch,
                    all_alive,
                    unblocked,
                );
            }
            (r.cache.len(), r.path_sites.len(), r.path_links.len())
        };
        let one_epoch = route_all(&mut r, 0);
        assert_eq!(one_epoch, (50, 50 * 8, 50 * 8));
        for epoch in 1..=1_000 {
            assert_eq!(route_all(&mut r, epoch), one_epoch);
        }
        assert_eq!(r.bfs_runs(), 50 * 1_001);
    }

    #[test]
    fn topology_edits_rebuild_adjacency_and_drop_the_cache() {
        let mut r = Router::new(Topology::ring(4, LinkSpec::default()));
        let p = r
            .route(SiteId(0), SiteId(2), 0, all_alive, unblocked)
            .unwrap()
            .to_vec();
        assert_eq!(p.len(), 3);
        // Add a chord 0-2; even at the SAME epoch the cache was dropped, so
        // the new single-hop path is found.
        r.edit_topology(|t| t.add_link(SiteId(0), SiteId(2), LinkSpec::default()));
        let p = r
            .route(SiteId(0), SiteId(2), 0, all_alive, unblocked)
            .unwrap()
            .to_vec();
        assert_eq!(p, vec![SiteId(0), SiteId(2)]);
    }
}
