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
//! The cache holds only what it cannot recompute on the spot.  Two ends
//! joined by a live, unblocked link are routed over it, since a search from
//! one reaches the other first: the query is a binary search of one
//! adjacency row, priced from that link's spec, and one bit per link slot,
//! cleared with the cache, tells the first query of the epoch from the
//! rest, so the counters read what they would if the pair were cached.
//!
//! A cached path is priced when it is found: its summed latency and its hops
//! grouped by bandwidth sit beside it, so the send path charges a route in
//! `O(distinct bandwidths)` — one group on a LAN, two across the WAN ring —
//! without walking its hops or asking the topology.  On a miss, the
//! adjacency is one compressed-sparse-row block with each link's kind of
//! [`LinkSpec`] beside the neighbour it leads to, so pricing a found path is
//! a binary search of one row per hop.  The one traversal (`search`) marks
//! visits with a generation stamp over scratch sized once per topology, so a
//! miss clears nothing, and it runs only inside the biconnected blocks the
//! route must cross: the first miss splits the links into blocks at their
//! cut sites (Hopcroft–Tarjan), every path between two blocks passes the cut
//! sites between them, and the path found is the one a search of the whole
//! topology finds (`path_into`).  So a ring of cliques routes across its
//! gateway ring and two cliques, not half the ring; a grid, a ring or a full
//! mesh is one block.  The source's own block is searched up to its exit; a
//! block entered through a cut site is searched once per epoch from that
//! site, to exhaustion, and every later route that enters it there reads its
//! piece off that BFS tree.  [`Router::route_queries`] and
//! [`Router::bfs_runs`] count the routing work; E11/E12 report both, and the
//! cache's saving is `route_queries / bfs_runs`.

use crate::time::Duration;
use crate::topology::{serialization_time, LinkSpec, Topology};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::iter::successors;
use tacoma_util::{IdBuildHasher, SiteId};

/// A range of one of the router's arenas.
#[derive(Debug, Clone, Copy)]
struct Span {
    start: u32,
    len: u32,
}

impl Span {
    /// The range `start..end` of an arena.
    fn of(start: usize, end: usize) -> Span {
        let offset = |n: usize| u32::try_from(n).expect("route arena outgrew u32 offsets");
        Span {
            start: offset(start),
            len: offset(end - start),
        }
    }

    fn range(self) -> std::ops::Range<usize> {
        let start = self.start as usize;
        start..start + self.len as usize
    }
}

/// One cached routing answer: where its path sits in the router's arena and
/// what crossing it costs.  A reachable path has at least one site, so
/// `path.len == 0` is proven unreachability.
#[derive(Debug, Clone, Copy)]
struct CachedRoute {
    path: Span,
    latency: Duration,
    classes: Span,
}

/// What crossing a route costs: hop by hop [`LinkSpec::transfer_time`],
/// regrouped.  Every operation involved saturates and every term is
/// non-negative, so the regrouped sum is the hop-by-hop one bit for bit:
/// either is the exact sum clamped to `u64::MAX`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RouteCost<'a> {
    /// Number of links crossed.
    pub hops: u32,
    /// Sum of the links' latencies.
    latency: Duration,
    /// `(bandwidth, links at that bandwidth)`, every link in one group.
    classes: &'a [(u64, u32)],
}

impl RouteCost<'_> {
    /// Time for `bytes` to cross every link in turn.
    pub fn transfer_time(&self, bytes: u64) -> Duration {
        self.classes
            .iter()
            .fold(self.latency, |time, &(bandwidth, hops)| {
                time + serialization_time(bytes, bandwidth).times(u64::from(hops))
            })
    }
}

/// Adjacency in compressed sparse rows: site `s`'s neighbours, ascending,
/// are `sites[offsets[s]..offsets[s + 1]]`, and `kinds` holds the link to
/// each at the same index, as its place among the topology's distinct
/// `specs`: a few kinds of link, a small hot table.
#[derive(Debug, Clone)]
struct Adjacency {
    offsets: Vec<u32>,
    sites: Vec<SiteId>,
    kinds: Vec<u32>,
    specs: Vec<LinkSpec>,
}

impl Adjacency {
    /// No sort: `Topology::links` yields `(a, b)` with `a < b` in ascending
    /// order, which fills every row in ascending order.
    fn new(topology: &Topology) -> Self {
        let sites = topology.site_count() as usize;
        let mut offsets = vec![0u32; sites + 1];
        for (a, b, _) in topology.links() {
            offsets[a.index() + 1] += 1;
            offsets[b.index() + 1] += 1;
        }
        for s in 0..sites {
            offsets[s + 1] += offsets[s];
        }
        let links = offsets[sites] as usize;
        let mut adj = Adjacency {
            offsets,
            sites: vec![SiteId(0); links],
            kinds: vec![0; links],
            specs: Vec::new(),
        };
        let mut last = None;
        // Fill with each row's start as its cursor, which leaves every
        // offset one row ahead; the rotation puts them back.
        for (a, b, spec) in topology.links() {
            // Links come in runs of one kind, and a topology has a few
            // kinds: a new run scans the table.
            let kind = match last {
                Some((kind, last)) if last == spec => kind,
                _ => match adj.specs.iter().position(|known| known == spec) {
                    Some(kind) => kind,
                    None => {
                        adj.specs.push(*spec);
                        adj.specs.len() - 1
                    }
                },
            };
            last = Some((kind, spec));
            for (from, to) in [(a, b), (b, a)] {
                let at = adj.offsets[from.index()] as usize;
                adj.sites[at] = to;
                adj.kinds[at] = u32::try_from(kind).expect("under 2^32 kinds of link");
                adj.offsets[from.index()] += 1;
            }
        }
        adj.offsets.rotate_right(1);
        adj.offsets[0] = 0;
        adj
    }

    fn row(&self, site: SiteId) -> std::ops::Range<usize> {
        self.offsets[site.index()] as usize..self.offsets[site.index() + 1] as usize
    }

    fn neighbors(&self, site: SiteId) -> &[SiteId] {
        &self.sites[self.row(site)]
    }

    /// Where the link `a`–`b` sits in `a`'s row, if there is one.
    fn slot(&self, a: SiteId, b: SiteId) -> Option<usize> {
        if a.index() + 1 >= self.offsets.len() {
            return None;
        }
        let row = self.row(a);
        let at = self.sites[row.clone()].binary_search(&b).ok()?;
        Some(row.start + at)
    }

    /// The spec of the link in `slot`.
    fn spec_at(&self, slot: usize) -> LinkSpec {
        self.specs[self.kinds[slot] as usize]
    }

    /// The spec of the link `a`–`b`, which must exist.
    fn spec(&self, a: SiteId, b: SiteId) -> LinkSpec {
        self.spec_at(self.slot(a, b).expect("a routed hop crosses a link"))
    }
}

/// Which adjacency slots were routed at the cache's epoch, one bit each.
#[derive(Debug, Clone)]
struct Routed(Vec<u64>);

impl Routed {
    fn new(adj: &Adjacency) -> Routed {
        Routed(vec![0; adj.sites.len().div_ceil(64)])
    }

    /// Marks `slot` routed; true when it was not yet.
    fn first(&mut self, slot: usize) -> bool {
        let (bits, bit) = (&mut self.0[slot / 64], 1 << (slot % 64));
        let first = *bits & bit == 0;
        *bits |= bit;
        first
    }

    fn clear(&mut self) {
        self.0.fill(0);
    }
}

/// The block of a site with no link, and the predecessor of a site a
/// block tree's search did not reach.
const NONE: u32 = u32::MAX;

/// The topology's biconnected blocks (Hopcroft–Tarjan 1973), from the links
/// alone, in a tree: a block's parent entered its top site, so neighbours in
/// the tree meet at the child's top, and a child is numbered first.
#[derive(Debug, Clone)]
struct Blocks {
    /// Per site: the block it was entered by (a root's last block).
    site: Vec<u32>,
    /// Per site: its place in the block it was entered by, from 1.
    place: Vec<u32>,
    /// Per block: its top site.
    top: Vec<u32>,
    /// Per block: how many sites it holds, its top included.
    size: Vec<u32>,
}

impl Blocks {
    /// One iterative depth-first search.  When a child's low point does not
    /// climb above its parent, the sites entered since the child, the child
    /// included, close a block on top of the parent.
    fn new(adj: &Adjacency) -> Blocks {
        let (sites, unseen) = (adj.offsets.len() - 1, usize::MAX);
        let (mut disc, mut low) = (vec![unseen; sites], vec![0; sites]);
        let (mut site, mut place) = (vec![NONE; sites], vec![0; sites]);
        let (mut top, mut size, mut entered, mut stack) = (vec![], vec![], vec![], vec![]);
        let mut seen = 0;
        for root in 0..sites {
            if disc[root] != unseen {
                continue;
            }
            (disc[root], seen) = (seen, seen + 1);
            stack.push((root, unseen, adj.row(SiteId(root as u32))));
            while let Some((v, p, row)) = stack.last_mut() {
                let (v, p) = (*v, *p);
                if let Some(w) = row.next().map(|at| adj.sites[at].index()) {
                    if disc[w] == unseen {
                        (disc[w], low[w], seen) = (seen, seen, seen + 1);
                        entered.push(w);
                        stack.push((w, v, adj.row(SiteId(w as u32))));
                    } else if w != p {
                        low[v] = low[v].min(disc[w]);
                    }
                    continue;
                }
                stack.pop();
                if p == unseen {
                    continue;
                }
                low[p] = low[p].min(low[v]);
                if low[v] >= disc[p] {
                    let block = top.len() as u32;
                    top.push(p as u32);
                    site[p] = block;
                    let first = entered.iter().rposition(|&w| w == v);
                    let drained = entered.drain(first.expect("the child was entered")..);
                    let mut held = 1;
                    for w in drained {
                        (site[w], place[w], held) = (block, held, held + 1);
                    }
                    size.push(held);
                }
            }
        }
        Blocks {
            site,
            place,
            top,
            size,
        }
    }

    /// `site`'s place in `block`, which holds it: 0 for the top.
    fn place(&self, block: u32, site: SiteId) -> usize {
        if self.top[block as usize] == site.0 {
            0
        } else {
            self.place[site.index()] as usize
        }
    }

    /// Whether `site` is in `block`: its top or a site it entered.  A link
    /// is in the block that holds both its ends.
    fn holds(&self, block: u32, site: SiteId) -> bool {
        self.site[site.index()] == block || self.top[block as usize] == site.0
    }

    /// The block's parent, or itself at a root.
    fn parent(&self, block: u32) -> u32 {
        self.site[self.top[block as usize] as usize]
    }

    /// The blocks from `from`'s to `to`'s, both included, into `out`; false
    /// when either site has no link or the two are in different trees.
    fn path(&self, from: SiteId, to: SiteId, out: &mut Vec<u32>) -> bool {
        out.clear();
        let (a, b) = (self.site[from.index()], self.site[to.index()]);
        if a == NONE || b == NONE {
            return false;
        }
        let (mut meet, mut other) = (a, b);
        while meet != other {
            let lower = meet.min(other);
            if self.parent(lower) == lower {
                return false;
            }
            (meet, other) = (self.parent(lower), meet.max(other));
        }
        let climb = |n| successors(Some(n), |&n| Some(self.parent(n)));
        out.extend(climb(a).take_while(|&n| n != meet));
        out.push(meet);
        let down = out.len();
        out.extend(climb(b).take_while(|&n| n != meet));
        out[down..].reverse();
        true
    }

    /// The site where neighbouring blocks `a` and `b` meet: the child's top.
    fn between(&self, a: u32, b: u32) -> SiteId {
        let child = if self.parent(a) == b { a } else { b };
        SiteId(self.top[child as usize])
    }
}

/// What one traversal leaves behind, reused by the next: per site the stamp
/// of the search that last reached it and its predecessor in that search.
#[derive(Debug, Clone, Default)]
struct Scratch {
    marks: Vec<(u32, u32)>,
    /// The stamp of the latest search; a site is visited when it carries it.
    generation: u32,
    /// The latest search's queue, never popped: every site it reached, in
    /// the order it reached them.
    frontier: Vec<SiteId>,
    /// The blocks the latest route crossed, in order.
    hops: Vec<u32>,
}

/// The BFS trees of blocks entered through a cut site, grown at the cache's
/// epoch and dropped with it: per `(block, entry)` where its predecessors
/// start in `preds`, one per site of the block by [`Blocks::place`], `NONE`
/// where the search did not reach.
#[derive(Debug, Clone, Default)]
struct Trees {
    start: HashMap<(u32, SiteId), u32, IdBuildHasher>,
    preds: Vec<u32>,
}

impl Trees {
    /// The tree of `block` searched from `entry`, grown on first use.
    fn grow(
        &mut self,
        (adj, blocks): (&Adjacency, &Blocks),
        scratch: &mut Scratch,
        (block, entry): (u32, SiteId),
        alive: &impl Fn(SiteId) -> bool,
        blocked: &impl Fn(SiteId, SiteId) -> bool,
    ) -> &[u32] {
        let len = blocks.size[block as usize] as usize;
        let start = match self.start.entry((block, entry)) {
            Entry::Occupied(tree) => *tree.get() as usize,
            Entry::Vacant(tree) => {
                let start = self.preds.len();
                tree.insert(u32::try_from(start).expect("tree arena outgrew u32 offsets"));
                self.preds.resize(start + len, NONE);
                let within = |n: SiteId| blocks.holds(block, n);
                search(adj, scratch, entry, None, alive, blocked, within);
                for &site in &scratch.frontier {
                    let pred = scratch.marks[site.index()].1;
                    self.preds[start + blocks.place(block, site)] = pred;
                }
                start
            }
        };
        &self.preds[start..start + len]
    }

    fn clear(&mut self) {
        self.start.clear();
        self.preds.clear();
    }
}

/// A routing oracle that answers shortest-path queries over a topology,
/// honouring a per-site liveness mask and a per-edge partition predicate.
#[derive(Debug, Clone)]
pub struct Router {
    topology: Topology,
    /// Rebuilt on topology edits.
    adj: Adjacency,
    /// Built by the first route computed over `adj`, dropped with it.
    blocks: Option<Blocks>,
    /// `(from, to)` → cached route, all of it computed at `cache_epoch`;
    /// never a pair that one live, unblocked link joins.
    cache: HashMap<(SiteId, SiteId), CachedRoute, IdBuildHasher>,
    cache_epoch: u64,
    /// The arenas the cache's spans index: every cached path's sites, end to
    /// end, and every cached path's `(bandwidth, links)` groups.  Emptied
    /// with the cache, so epoch churn cannot grow them.
    path_sites: Vec<SiteId>,
    path_classes: Vec<(u64, u32)>,
    /// The links routed at `cache_epoch`: what the routing-work counters
    /// need of a pair the cache does not hold.
    routed: Routed,
    /// The block trees grown at `cache_epoch`.
    trees: Trees,
    /// The latest link's route, staged to be lent like a cached one.
    link_path: [SiteId; 2],
    link_class: [(u64, u32); 1],
    route_queries: u64,
    bfs_runs: u64,
    scratch: Scratch,
}

/// What [`Router::lookup`] found: the slot of a live, unblocked link between
/// the ends, or a cached route.
#[derive(Debug, Clone, Copy)]
enum Found {
    Link(usize),
    Cached(CachedRoute),
}

impl Router {
    /// Creates a router for the given topology.
    pub fn new(topology: Topology) -> Self {
        let adj = Adjacency::new(&topology);
        Router {
            topology,
            routed: Routed::new(&adj),
            adj,
            blocks: None,
            cache: HashMap::default(),
            cache_epoch: 0,
            path_sites: Vec::new(),
            path_classes: Vec::new(),
            trees: Trees::default(),
            link_path: [SiteId(0); 2],
            link_class: [(0, 1)],
            route_queries: 0,
            bfs_runs: 0,
            scratch: Scratch::default(),
        }
    }

    /// Read access to the underlying topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// [`Topology::neighbors`] of `site`, borrowed and without the scan.
    pub fn neighbors(&self, site: SiteId) -> &[SiteId] {
        self.adj.neighbors(site)
    }

    /// Edits the topology in place (links die, partitions become permanent),
    /// then rebuilds the adjacency and drops every cached route.
    ///
    /// Callers that hold a routing epoch (the simulator) must bump it too;
    /// [`crate::sim::SimNet::edit_topology`] does both.
    pub fn edit_topology(&mut self, edit: impl FnOnce(&mut Topology)) {
        edit(&mut self.topology);
        self.clear_cache();
        self.adj = Adjacency::new(&self.topology);
        self.routed = Routed::new(&self.adj);
        self.blocks = None;
    }

    fn clear_cache(&mut self) {
        self.cache.clear();
        self.path_sites.clear();
        self.path_classes.clear();
        self.routed.clear();
        self.trees.clear();
    }

    /// Number of routing queries answered (cache hits and misses alike).
    pub fn route_queries(&self) -> u64 {
        self.route_queries
    }

    /// Number of route computations, one per cache miss however many blocks
    /// it searched: the routing *work* E11/E12's `bfs` column counts;
    /// `route_queries - bfs_runs` is the work the cache saved.
    pub fn bfs_runs(&self) -> u64 {
        self.bfs_runs
    }

    /// Resets the routing-work counters (the cache itself is kept).
    pub fn reset_route_stats(&mut self) {
        self.route_queries = 0;
        self.bfs_runs = 0;
    }

    /// The shortest live path from `from` to `to` at `epoch`, avoiding dead
    /// sites and blocked (partitioned) edges.  Answers a pair that one live,
    /// unblocked link joins from the adjacency, anything else from the cache
    /// when the cache was filled at the same epoch; otherwise runs a BFS and
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
        match self.lookup(from, to, epoch, alive, blocked) {
            Found::Link(slot) => {
                self.link_path = [from, self.adj.sites[slot]];
                Some(&self.link_path)
            }
            Found::Cached(route) => {
                (route.path.len > 0).then(|| &self.path_sites[route.path.range()])
            }
        }
    }

    /// [`Router::route`], answered as what the path costs to cross; a local
    /// route crosses nothing.
    pub(crate) fn route_cost(
        &mut self,
        from: SiteId,
        to: SiteId,
        epoch: u64,
        alive: impl Fn(SiteId) -> bool,
        blocked: impl Fn(SiteId, SiteId) -> bool,
    ) -> Option<RouteCost<'_>> {
        match self.lookup(from, to, epoch, alive, blocked) {
            Found::Link(slot) => {
                let spec = self.adj.spec_at(slot);
                self.link_class = [(spec.bandwidth_bytes_per_sec, 1)];
                Some(RouteCost {
                    hops: 1,
                    latency: spec.latency,
                    classes: &self.link_class,
                })
            }
            Found::Cached(route) => (route.path.len > 0).then(|| RouteCost {
                hops: route.path.len - 1,
                latency: route.latency,
                classes: &self.path_classes[route.classes.range()],
            }),
        }
    }

    /// The one lookup behind both views of a route.
    fn lookup(
        &mut self,
        from: SiteId,
        to: SiteId,
        epoch: u64,
        alive: impl Fn(SiteId) -> bool,
        blocked: impl Fn(SiteId, SiteId) -> bool,
    ) -> Found {
        self.route_queries += 1;
        if epoch != self.cache_epoch {
            // Everything cached describes another epoch's liveness.
            self.clear_cache();
            self.cache_epoch = epoch;
        }
        if let Some(slot) = self.adj.slot(from, to) {
            // A search from `from` reaches `to` first over the link, when
            // the link is up: the route is the link, cached or not.
            if alive(from) && alive(to) && !blocked(from, to) {
                if self.routed.first(slot) {
                    self.bfs_runs += 1;
                }
                return Found::Link(slot);
            }
        }
        let slot = match self.cache.entry((from, to)) {
            Entry::Occupied(hit) => return Found::Cached(*hit.get()),
            Entry::Vacant(slot) => slot,
        };
        self.bfs_runs += 1;
        let (start, classes_start) = (self.path_sites.len(), self.path_classes.len());
        let blocks = self.blocks.get_or_insert_with(|| Blocks::new(&self.adj));
        path_into(
            (&self.adj, blocks),
            &mut self.scratch,
            Some(&mut self.trees),
            (from, to),
            &alive,
            &blocked,
            &mut self.path_sites,
        );
        // Price the path while it is at hand: one row search per hop, and a
        // scan of the few groups it has opened so far.
        let mut latency = Duration::ZERO;
        for hop in self.path_sites[start..].windows(2) {
            let spec = self.adj.spec(hop[0], hop[1]);
            latency += spec.latency;
            let bandwidth = spec.bandwidth_bytes_per_sec;
            let opened = &mut self.path_classes[classes_start..];
            match opened.iter_mut().find(|class| class.0 == bandwidth) {
                Some(class) => class.1 += 1,
                None => self.path_classes.push((bandwidth, 1)),
            }
        }
        Found::Cached(*slot.insert(CachedRoute {
            path: Span::of(start, self.path_sites.len()),
            latency,
            classes: Span::of(classes_start, self.path_classes.len()),
        }))
    }

    /// The shortest path from `src` to `dst` visiting only sites for which
    /// `alive` returns true (the endpoints must also be alive).  Returns the
    /// full path including both endpoints, or `None` if unreachable.
    ///
    /// Uncached, and allocating the path it returns; the simulator's hot path
    /// goes through [`Router::route`] instead.
    pub fn shortest_path(
        &mut self,
        src: SiteId,
        dst: SiteId,
        alive: impl Fn(SiteId) -> bool,
    ) -> Option<Vec<SiteId>> {
        let mut path = Vec::new();
        let blocks = self.blocks.get_or_insert_with(|| Blocks::new(&self.adj));
        path_into(
            (&self.adj, blocks),
            &mut self.scratch,
            None,
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
        let mut scratch = Scratch::default();
        let (adj, everywhere) = (&self.adj, |_| true);
        search(adj, &mut scratch, src, None, &alive, &blocked, everywhere);
        let visited = |&(stamp, _): &(u32, u32)| stamp == scratch.generation;
        scratch.marks.iter().map(visited).collect()
    }
}

/// The one traversal: a BFS from `from` over live sites `within` reach and
/// unblocked edges, that stamps each reached site with this search's
/// generation and records its predecessor, and stops as soon as `target`,
/// when given, is reached.  Returns whether it was.
fn search(
    adj: &Adjacency,
    scratch: &mut Scratch,
    from: SiteId,
    target: Option<SiteId>,
    alive: &impl Fn(SiteId) -> bool,
    blocked: &impl Fn(SiteId, SiteId) -> bool,
    within: impl Fn(SiteId) -> bool,
) -> bool {
    let sites = adj.offsets.len() - 1;
    if scratch.marks.len() != sites || scratch.generation == u32::MAX {
        // First use over this topology, or the stamp is about to wrap: the
        // only times anything proportional to the site count is written.
        scratch.marks.clear();
        scratch.marks.resize(sites, (0, 0));
        scratch.generation = 0;
    }
    scratch.generation += 1;
    let visited = scratch.generation;
    let (marks, frontier) = (&mut scratch.marks, &mut scratch.frontier);
    frontier.clear();
    if from.index() >= marks.len() || !alive(from) {
        return false;
    }
    marks[from.index()] = (visited, from.0);
    if target == Some(from) {
        return true;
    }
    frontier.push(from);
    let mut next = 0;
    while let Some(&cur) = frontier.get(next) {
        next += 1;
        for &n in adj.neighbors(cur) {
            if !within(n) || marks[n.index()].0 == visited || !alive(n) || blocked(cur, n) {
                continue;
            }
            marks[n.index()] = (visited, cur.0);
            if target == Some(n) {
                return true;
            }
            frontier.push(n);
        }
    }
    false
}

/// Appends the shortest live path `from → to` (both endpoints included) to
/// `out` and returns whether there is one; `out` is untouched when there is
/// not.  It searches only the blocks on the block tree's path between the
/// ends, each from the site it is entered by to the one it is left by, and
/// finds the path a BFS of the whole topology reads back:
/// - a path from `from` into a later block B enters it at its cut site x,
///   and a shortest one never leaves B: coming back would cross x twice;
/// - a BFS discovers B's sites in order of (predecessor's order, row index),
///   and keeping only B's sites in each row keeps that order, so a search of
///   B from x records the whole-topology search's predecessors;
/// - liveness and partitions only remove sites and links: the cut sites
///   still separate the ends, and a dead one leaves the pair unreachable.
///
/// Given `trees`, a block entered through a cut site is read off its tree
/// from that site instead: a search run past the exit has recorded the same
/// predecessors by the time it reaches it.  `from`'s own block is searched
/// as far as its exit, as the tree of one source is rarely asked again.
fn path_into(
    (adj, blocks): (&Adjacency, &Blocks),
    scratch: &mut Scratch,
    mut trees: Option<&mut Trees>,
    (from, to): (SiteId, SiteId),
    alive: &impl Fn(SiteId) -> bool,
    blocked: &impl Fn(SiteId, SiteId) -> bool,
    out: &mut Vec<SiteId>,
) -> bool {
    let sites = blocks.site.len();
    if !alive(to) || from.index() >= sites || to.index() >= sites || !alive(from) {
        return false;
    }
    let (start, mut entry) = (out.len(), from);
    out.push(from);
    let found = from == to
        || blocks.path(from, to, &mut scratch.hops)
            && (0..scratch.hops.len()).all(|i| {
                let (block, hops) = (scratch.hops[i], &scratch.hops);
                let exit = hops
                    .get(i + 1)
                    .map_or(to, |&next| blocks.between(block, next));
                let piece = out.len();
                let mut at = exit;
                match trees.as_deref_mut().filter(|_| i > 0) {
                    Some(trees) => {
                        let tree =
                            trees.grow((adj, blocks), scratch, (block, entry), alive, blocked);
                        while at != entry {
                            match tree[blocks.place(block, at)] {
                                NONE => return false,
                                pred => out.push(std::mem::replace(&mut at, SiteId(pred))),
                            }
                        }
                    }
                    None => {
                        let within = |n: SiteId| blocks.holds(block, n);
                        if !search(adj, scratch, entry, Some(exit), alive, blocked, within) {
                            return false;
                        }
                        while at != entry {
                            out.push(at);
                            at = SiteId(scratch.marks[at.index()].1);
                        }
                    }
                }
                out[piece..].reverse();
                entry = exit;
                true
            });
    if !found {
        out.truncate(start);
    }
    found
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_alive(_: SiteId) -> bool {
        true
    }

    fn unblocked(_: SiteId, _: SiteId) -> bool {
        false
    }

    #[test]
    fn path_on_ring() {
        let mut r = Router::new(Topology::ring(6, LinkSpec::default()));
        let p = r.shortest_path(SiteId(0), SiteId(2), all_alive).unwrap();
        assert_eq!(p, vec![SiteId(0), SiteId(1), SiteId(2)]);
        let p = r.shortest_path(SiteId(0), SiteId(3), all_alive).unwrap();
        assert_eq!(p.len(), 4, "three hops");
        let p = r.shortest_path(SiteId(0), SiteId(0), all_alive).unwrap();
        assert_eq!(p, vec![SiteId(0)]);
    }

    #[test]
    fn path_avoids_dead_sites() {
        let mut r = Router::new(Topology::ring(6, LinkSpec::default()));
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
        let mut r = Router::new(t);
        assert!(r.shortest_path(SiteId(0), SiteId(3), all_alive).is_none());
        assert_eq!(
            r.reachable_mask(SiteId(0), all_alive, unblocked),
            vec![true, true, false, false]
        );
    }

    #[test]
    fn dead_endpoint_is_unreachable() {
        let mut r = Router::new(Topology::full_mesh(3, LinkSpec::default()));
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
        let mut r = Router::new(Topology::full_mesh(5, LinkSpec::default()));
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
            (r.cache.len(), r.path_sites.len(), r.path_classes.len())
        };
        let one_epoch = route_all(&mut r, 0);
        // Seven hops over one kind of link: eight sites and one group each.
        assert_eq!(one_epoch, (50, 50 * 8, 50));
        for epoch in 1..=1_000 {
            assert_eq!(route_all(&mut r, epoch), one_epoch);
        }
        assert_eq!(r.bfs_runs(), 50 * 1_001);
    }

    #[test]
    fn the_cache_holds_only_routes_it_cannot_read_off_a_link() {
        let mut mesh = Router::new(Topology::full_mesh(16, LinkSpec::default()));
        for (from, to) in (0..16).flat_map(|a| (0..16).map(move |b| (a, b))) {
            if from == to {
                continue;
            }
            let (from, to) = (SiteId(from), SiteId(to));
            let path = mesh.route(from, to, 0, all_alive, unblocked);
            assert_eq!(path, Some(&[from, to][..]));
            let cost = mesh.route_cost(from, to, 0, all_alive, unblocked);
            assert_eq!(cost.map(|cost| cost.hops), Some(1));
        }
        assert_eq!((mesh.route_queries(), mesh.bfs_runs()), (480, 240));
        assert!(mesh.cache.is_empty());
        assert!(mesh.path_sites.is_empty() && mesh.path_classes.is_empty());

        // Every ordered pair over cliques 0, 1 and 31: members, gateways one
        // WAN link apart, and far ends.
        let lan_on_wan = Topology::ring_of_cliques(64, 8, LinkSpec::lan(), LinkSpec::wan());
        let mut r = Router::new(lan_on_wan.clone());
        let sites: Vec<SiteId> = [0, 1, 31]
            .iter()
            .flat_map(|c| c * 8..c * 8 + 8)
            .map(SiteId)
            .collect();
        for &from in &sites {
            for &to in &sites {
                assert!(r.route(from, to, 0, all_alive, unblocked).is_some());
            }
        }
        for &from in &sites {
            for &to in &sites {
                let cached = r.cache.contains_key(&(from, to));
                assert_eq!(cached, !lan_on_wan.has_link(from, to), "{from} -> {to}");
            }
        }
    }

    #[test]
    fn the_adjacency_is_the_topologys_links_row_by_row() {
        let mut rng = tacoma_util::DetRng::new(7);
        let mut t = Topology::random_connected(40, 60, LinkSpec::default(), &mut rng);
        t.add_link(SiteId(3), SiteId(17), LinkSpec::wan());
        t.add_link(SiteId(17), SiteId(2), LinkSpec::lan());
        // Site 40 has no link at all: its row is empty, not missing.
        let mut lonely = Topology::empty(41);
        for (a, b, spec) in t.links() {
            lonely.add_link(a, b, *spec);
        }
        let r = Router::new(lonely);
        for site in r.topology().sites() {
            assert_eq!(r.neighbors(site), r.topology().neighbors(site));
            for &n in r.neighbors(site) {
                assert_eq!(Some(&r.adj.spec(site, n)), r.topology().link(site, n));
            }
        }
        assert!(r.neighbors(SiteId(40)).is_empty());
    }

    #[test]
    fn a_cached_route_is_priced_like_its_hops() {
        // 0-1-2-3-4 with two bandwidths interleaved and a zero-bandwidth
        // link: three groups, one charge.
        let spec = |latency_us, bandwidth_bytes_per_sec| LinkSpec {
            latency: Duration::from_micros(latency_us),
            bandwidth_bytes_per_sec,
        };
        let links = [spec(5, 1_000), spec(7, 0), spec(11, 1_000), spec(13, 3)];
        let mut t = Topology::empty(5);
        for (i, link) in links.iter().enumerate() {
            t.add_link(SiteId(i as u32), SiteId(i as u32 + 1), *link);
        }
        let mut r = Router::new(t);
        for bytes in [0, 1, 999, 1 << 40, u64::MAX / 1_000_000 + 1, u64::MAX] {
            let cost = r
                .route_cost(SiteId(0), SiteId(4), 0, all_alive, unblocked)
                .unwrap();
            assert_eq!((cost.hops, cost.classes.len()), (4, 3));
            let hop_by_hop = links
                .iter()
                .fold(Duration::ZERO, |t, link| t + link.transfer_time(bytes));
            assert_eq!(cost.transfer_time(bytes), hop_by_hop, "{bytes} bytes");
        }
        let local = r
            .route_cost(SiteId(2), SiteId(2), 0, all_alive, unblocked)
            .unwrap();
        assert_eq!((local.hops, local.transfer_time(9)), (0, Duration::ZERO));
    }

    #[test]
    fn a_wrapping_visit_stamp_forgets_no_visit_and_invents_none() {
        let mut r = Router::new(Topology::ring(9, LinkSpec::default()));
        let mut reference = Router::new(Topology::ring(9, LinkSpec::default()));
        // Leave marks behind at the last stamps before the wrap, then route
        // across it: a stale mark read as a visit would cut a path short.
        r.route(SiteId(0), SiteId(4), 0, all_alive, unblocked);
        r.scratch.generation = u32::MAX - 2;
        let alive = |s: SiteId| s != SiteId(1);
        for epoch in 1..=6 {
            for (from, to) in [(0, 4), (8, 2), (3, 3), (5, 1)] {
                let got = r
                    .route(SiteId(from), SiteId(to), epoch, alive, unblocked)
                    .map(<[SiteId]>::to_vec);
                let want = reference
                    .route(SiteId(from), SiteId(to), epoch, alive, unblocked)
                    .map(<[SiteId]>::to_vec);
                assert_eq!(got, want, "{from} -> {to} at epoch {epoch}");
            }
        }
        assert!(r.scratch.generation < 100, "the stamp wrapped");
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

    /// The sites stamped by searches after the one stamped `before`.
    fn stamped(scratch: &Scratch, before: u32) -> Vec<usize> {
        let marks = scratch.marks.iter().enumerate();
        marks
            .filter(|(_, m)| m.0 > before)
            .map(|(s, _)| s)
            .collect()
    }

    /// The sites a forced miss from `from` to `to` stamps.
    fn stamped_by_miss(r: &mut Router, from: u32, to: u32) -> Vec<usize> {
        let (before, epoch) = (r.scratch.generation, r.cache_epoch + 1);
        assert!(r
            .route(SiteId(from), SiteId(to), epoch, all_alive, unblocked)
            .is_some());
        stamped(&r.scratch, before)
    }

    /// The sites a flat search from `from` to `to` stamps.
    fn stamped_by_flat_search(r: &Router, from: u32, to: u32) -> Vec<usize> {
        let mut flat = Scratch::default();
        let (from, to) = (SiteId(from), Some(SiteId(to)));
        assert!(search(
            &r.adj,
            &mut flat,
            from,
            to,
            &all_alive,
            &unblocked,
            |_| true
        ));
        stamped(&flat, 0)
    }

    #[test]
    fn a_cross_clique_miss_searches_two_cliques_and_the_gateway_ring() {
        let lan_on_wan = Topology::ring_of_cliques(64, 8, LinkSpec::lan(), LinkSpec::wan());
        let mut r = Router::new(lan_on_wan);
        // Member 3 of clique 0 to member 5 of clique 31.
        let (from, to) = (3, 31 * 8 + 5);
        let stamped = stamped_by_miss(&mut r, from, to).len();
        assert!(stamped <= 64 + 2 * 8, "{stamped} sites stamped");
        let flat = stamped_by_flat_search(&r, from, to).len();
        assert!(flat >= 200, "the flat search floods half the ring: {flat}");
    }

    #[test]
    fn a_miss_on_a_grid_stamps_what_the_flat_search_stamps() {
        let mut r = Router::new(Topology::grid(8, 8, LinkSpec::default()));
        for (from, to) in [(0, 63), (9, 30), (36, 27)] {
            assert_eq!(
                stamped_by_miss(&mut r, from, to),
                stamped_by_flat_search(&r, from, to),
                "{from} -> {to}"
            );
        }
    }

    /// The block count and the cut sites of a topology's block-cut tree.
    fn blocks_and_cuts(t: &Topology) -> (usize, Vec<u32>) {
        let blocks = Blocks::new(&Adjacency::new(t));
        let count = blocks.top.len();
        let in_two = |s: &SiteId| (0..count as u32).filter(|&b| blocks.holds(b, *s)).count() > 1;
        (count, t.sites().filter(in_two).map(|s| s.0).collect())
    }

    #[test]
    fn the_block_cut_tree_of_four_small_graphs() {
        let cliques = Topology::ring_of_cliques(4, 4, LinkSpec::lan(), LinkSpec::wan());
        assert_eq!(blocks_and_cuts(&cliques), (5, vec![0, 4, 8, 12]));
        let star = Topology::star(5, LinkSpec::default());
        assert_eq!(blocks_and_cuts(&star), (4, vec![0]));
        // Two triangles that share site 2, and a site 5 with no link.
        let mut bowtie = Topology::empty(6);
        for (a, b) in [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)] {
            bowtie.add_link(SiteId(a), SiteId(b), LinkSpec::default());
        }
        assert_eq!(blocks_and_cuts(&bowtie), (2, vec![2]));
        let blocks = Blocks::new(&Adjacency::new(&bowtie));
        assert_eq!(blocks.site[5], NONE, "a site with no link is in no block");
        let sides = [blocks.site[0], blocks.site[3]];
        assert_ne!(sides[0], sides[1]);
        assert_eq!([blocks.site[1], blocks.site[4]], sides);
    }
}
