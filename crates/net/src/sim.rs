//! The discrete-event simulator core: message delivery, timers, failures.
//!
//! [`SimNet`] owns a priority queue of pending events ordered by simulated
//! time (ties broken by insertion order, so runs are deterministic).  The
//! TACOMA kernel (`tacoma-core`'s `TacomaSystem`) drives the simulation by
//! calling [`SimNet::send`] / [`SimNet::schedule_timer`] and repeatedly
//! popping events with [`SimNet::step`].
//!
//! Failure semantics follow the paper's §5 model: when a site crashes, agents
//! resident there vanish (that is enforced by the core layer), messages in
//! flight *to* the site are dropped, and established transport streams through
//! it are torn down.  Messages are routed over the shortest path of live
//! sites, so a crash can also make two live sites temporarily unreachable on
//! sparse topologies.

use crate::calendar::CalendarQueue;
use crate::custody::{CustodyConfig, CustodyStore, Parked};
use crate::failure::{FailureAction, FailurePlan};
use crate::metrics::NetMetrics;
use crate::routing::{RouteCost, Router};
use crate::time::{Duration, SimTime};
use crate::topology::Topology;
use crate::transport::{Transport, TransportKind};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeSet, HashMap};
use std::ops::Deref;
use std::rc::Rc;
use tacoma_util::{IdBuildHasher, SiteId};

/// A partition installed by [`SimNet::partition`]: one membership mask per
/// call, `O(V)` to store instead of the `O(V²)` blocked-pair set it replaces.
/// Communication between two sites is blocked when any active partition puts
/// them on different sides of its boundary.
#[derive(Debug, Clone)]
struct PartitionMask {
    in_group: Vec<bool>,
}

impl PartitionMask {
    fn new(sites: u32, group: &BTreeSet<SiteId>) -> Self {
        let mut in_group = vec![false; sites as usize];
        for site in group {
            if let Some(slot) = in_group.get_mut(site.index()) {
                *slot = true;
            }
        }
        PartitionMask { in_group }
    }

    fn contains(&self, site: SiteId) -> bool {
        self.in_group.get(site.index()).copied().unwrap_or(false)
    }

    fn splits(&self, a: SiteId, b: SiteId) -> bool {
        self.contains(a) != self.contains(b)
    }
}

/// The one partition-blocking rule, shared by [`SimNet::is_blocked`] and the
/// routing closure in [`SimNet::send`] (a free function so the send path can
/// borrow `partitions` alone while the router is borrowed mutably).
fn partition_blocked(partitions: &[PartitionMask], a: SiteId, b: SiteId) -> bool {
    partitions.iter().any(|mask| mask.splits(a, b))
}

/// Identifier of a message accepted by [`SimNet::send`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct MessageId(pub u64);

/// Errors returned by the simulator's send/schedule operations.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum NetError {
    /// The source site is down.
    SourceDown(SiteId),
    /// The destination site is down.
    DestinationDown(SiteId),
    /// No live path exists between source and destination.
    Unreachable {
        /// Sending site.
        from: SiteId,
        /// Intended destination.
        to: SiteId,
    },
    /// A site id was outside the topology.
    UnknownSite(SiteId),
    /// Custody was requested but the custodian's bounded queue was full.
    CustodyFull {
        /// The site whose custody queue overflowed.
        at: SiteId,
    },
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::SourceDown(s) => write!(f, "source {s} is down"),
            NetError::DestinationDown(s) => write!(f, "destination {s} is down"),
            NetError::Unreachable { from, to } => write!(f, "no live path from {from} to {to}"),
            NetError::UnknownSite(s) => write!(f, "unknown site {s}"),
            NetError::CustodyFull { at } => write!(f, "custody queue at {at} is full"),
        }
    }
}

impl std::error::Error for NetError {}

/// Parameters of a single message send.
#[derive(Debug, Clone)]
pub struct SendOptions {
    /// Sending site.
    pub from: SiteId,
    /// Destination site.
    pub to: SiteId,
    /// Application payload carried to the destination.
    pub payload: Vec<u8>,
    /// Application-defined message kind (the core layer uses this to tell
    /// meet requests, meet replies and control traffic apart).
    pub kind: u16,
    /// Transport personality to charge overhead with.
    pub transport: TransportKind,
    /// Opt into store-and-forward: when the simulator has a custody store
    /// installed ([`SimNet::set_custody`]) and no live path exists, the
    /// message is parked at a custodian instead of failing fast, and is
    /// re-attempted on every routing-epoch bump until it delivers or its TTL
    /// expires.  Without a custody store this flag is ignored (fail fast).
    pub custody: bool,
}

/// The bytes a message carries: a [`SendOptions::payload`] as the
/// simulator holds and delivers it.
///
/// A send whose bytes equal those of the message sent just before it, or
/// of its sender's last message, while that one is still in flight, shares
/// its buffer (a flood's clones carry one briefcase to every neighbour);
/// every other payload is the sender's `Vec` itself.  Which of the two a
/// payload is cannot be seen: it reads as its bytes, compares by them, and
/// [`Payload::into_unique`] returns them as a `Vec` either way.
#[derive(Clone, Serialize, Deserialize)]
pub struct Payload(Bytes);

/// Where a payload's bytes live.
#[derive(Clone)]
enum Bytes {
    /// A buffer no other message holds: the sender's own.
    Unique(Vec<u8>),
    /// One buffer for identical sends in flight, freed with its last holder.
    Shared(Rc<Vec<u8>>),
}

impl Payload {
    /// The bytes as a `Vec`: the buffer itself when no other message holds
    /// it, a copy otherwise.
    pub fn into_unique(self) -> Vec<u8> {
        self.try_into_unique()
            .unwrap_or_else(|shared| shared.to_vec())
    }

    /// The bytes as a `Vec` without copying them: the buffer when no other
    /// message holds it, the payload back otherwise (read it by reference).
    pub fn try_into_unique(self) -> Result<Vec<u8>, Payload> {
        match self.0 {
            Bytes::Unique(bytes) => Ok(bytes),
            Bytes::Shared(rc) => Rc::try_unwrap(rc).map_err(|rc| Payload(Bytes::Shared(rc))),
        }
    }

    /// A second holder of these bytes: the buffer moves behind a shared
    /// box the first time, so nothing of its size is copied.
    fn share(&mut self) -> Payload {
        if let Bytes::Unique(bytes) = &mut self.0 {
            self.0 = Bytes::Shared(Rc::new(std::mem::take(bytes)));
        }
        self.clone()
    }
}

impl From<Vec<u8>> for Payload {
    fn from(bytes: Vec<u8>) -> Self {
        Payload(Bytes::Unique(bytes))
    }
}

impl Deref for Payload {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        match &self.0 {
            Bytes::Unique(bytes) => bytes,
            Bytes::Shared(rc) => rc,
        }
    }
}

impl PartialEq for Payload {
    fn eq(&self, other: &Payload) -> bool {
        **self == **other
    }
}

impl Eq for Payload {}

impl std::fmt::Debug for Payload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        <[u8] as std::fmt::Debug>::fmt(self, f)
    }
}

/// A message delivered to its destination site.  It is also the record a
/// message in flight occupies in the simulator's slab: 56 bytes.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DeliveredMessage {
    /// The id assigned at send time.
    pub id: MessageId,
    /// Original sender.
    pub from: SiteId,
    /// Destination (the site the event is delivered at).
    pub to: SiteId,
    /// Application payload.
    pub payload: Payload,
    /// Application-defined message kind.
    pub kind: u16,
    /// When the message was sent.
    pub sent_at: SimTime,
    /// Number of link hops the message traversed.
    pub hops: u32,
}

/// A custodied message that expired undelivered — the terminal outcome the
/// core layer maps to its `meets_expired` counter.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExpiredMessage {
    /// The id assigned at send time.
    pub id: MessageId,
    /// Original sender.
    pub from: SiteId,
    /// Intended destination.
    pub to: SiteId,
    /// Application-defined message kind.
    pub kind: u16,
    /// When the message was originally sent.
    pub sent_at: SimTime,
    /// When it expired (TTL elapsed, or an overflowing re-park).
    pub expired_at: SimTime,
}

/// An event surfaced to the driver of the simulation.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Event {
    /// A message arrived at its destination.
    Message(DeliveredMessage),
    /// A custodied message expired before it could be delivered.
    MessageExpired(ExpiredMessage),
    /// A timer scheduled with [`SimNet::schedule_timer`] fired.
    Timer {
        /// Site the timer belongs to.
        site: SiteId,
        /// Caller-chosen key identifying the timer.
        key: u64,
    },
    /// A site crashed (from the failure plan or an explicit call).
    SiteCrashed(SiteId),
    /// A site recovered.
    SiteRecovered(SiteId),
}

/// Custody bookkeeping kept beside an in-flight delivery (in
/// `SimNet::custody_tags`) so the message can be re-parked, instead of
/// dropped, if its destination dies mid-flight.
#[derive(Debug, Clone, Copy)]
struct CustodyTag {
    expires_at: SimTime,
    transport: TransportKind,
    /// Whether the message was ever parked — distinguishes a first-attempt
    /// custody send (not counted as a custody delivery) from a re-delivery.
    was_parked: bool,
}

/// Internal queued event payload: 16 bytes, so a queue entry is 32 and a
/// timer does not pay for a message's fields.
#[derive(Debug, Clone, Copy)]
enum Pending {
    /// A delivery; the message waits in `SimNet::in_flight` at this index.
    Deliver(u32),
    Timer {
        site: SiteId,
        key: u64,
    },
    Failure {
        site: SiteId,
        action: FailureAction,
    },
    /// TTL alarm for a parked message; a no-op if the message has already
    /// left custody (delivered or re-parked bookkeeping keeps the invariant
    /// that every parked message has a live alarm).
    CustodyExpire {
        site: SiteId,
        id: MessageId,
    },
}

/// The deterministic discrete-event network simulator.
#[derive(Debug)]
pub struct SimNet {
    router: Router,
    up: Vec<bool>,
    clock: SimTime,
    /// Every pending event, keyed by `(time, seq)`: `seq` is the push
    /// counter, so events with equal times pop in the order they were
    /// sent or scheduled.
    queue: CalendarQueue<u64, Pending>,
    /// Messages in flight, each at the index its queued `Pending::Deliver`
    /// holds; `free` lists the vacated slots, reused before the slab grows.
    in_flight: Vec<Option<DeliveredMessage>>,
    free: Vec<u32>,
    /// The custody bookkeeping of the custodied messages in flight, by
    /// slot: empty unless custody is in use, so no other message pays for it.
    custody_tags: HashMap<u32, CustodyTag, IdBuildHasher>,
    /// The slot and id of the message `send` last put in flight, and of
    /// each site's last message put in flight (by sender, `MessageId(0)`
    /// for none yet): the two messages a send's bytes are compared with.
    last_sent: Option<(u32, MessageId)>,
    last_from: Vec<(u32, MessageId)>,
    seq: u64,
    next_msg_id: u64,
    transport: Transport,
    metrics: NetMetrics,
    partitions: Vec<PartitionMask>,
    /// Routing epoch: bumped by every failure, recovery, partition, heal and
    /// topology edit.  The router's cache keys its entries on this, so
    /// liveness changes invalidate routes with one integer increment instead
    /// of per-send state cloning.
    epoch: u64,
    /// Store-and-forward custody queues, when enabled via
    /// [`SimNet::set_custody`].  Parked messages live on stable storage (a
    /// custodian crash preserves them) and are re-attempted on every routing
    /// epoch bump.
    custody: Option<CustodyStore>,
}

impl SimNet {
    /// Creates a simulator over `topology` with every site up.
    pub fn new(topology: Topology) -> Self {
        let sites = topology.site_count() as usize;
        SimNet {
            router: Router::new(topology),
            up: vec![true; sites],
            clock: SimTime::ZERO,
            queue: CalendarQueue::new(),
            in_flight: Vec::new(),
            free: Vec::new(),
            custody_tags: HashMap::default(),
            last_sent: None,
            last_from: vec![(0, MessageId(0)); sites],
            seq: 0,
            next_msg_id: 1,
            transport: Transport::new(),
            metrics: NetMetrics::new(),
            partitions: Vec::new(),
            epoch: 0,
            custody: None,
        }
    }

    /// Installs a custody store: sends whose [`SendOptions::custody`] flag is
    /// set are parked instead of failing fast when no live path exists.
    /// Replaces (and empties) any previous store.
    pub fn set_custody(&mut self, config: CustodyConfig) {
        self.custody = Some(CustodyStore::new(self.site_count(), config));
    }

    /// Whether a custody store is installed.
    pub fn custody_enabled(&self) -> bool {
        self.custody.is_some()
    }

    /// Messages currently parked across all custody queues.
    pub fn custody_backlog(&self) -> usize {
        self.custody.as_ref().map_or(0, CustodyStore::total_len)
    }

    /// Messages currently parked at one site's custody queue.
    pub fn custody_backlog_at(&self, site: SiteId) -> usize {
        self.custody.as_ref().map_or(0, |s| s.len(site))
    }

    /// Reachability of every site from `from` over live sites and unblocked
    /// edges (index = site id).  This is the membership-style information the
    /// core layer hands to agents so rear guards can tell "unreachable, a
    /// custodied message is pending" from "dead, relaunch".
    pub fn reachable_mask(&self, from: SiteId) -> Vec<bool> {
        let up = &self.up;
        let partitions = &self.partitions;
        self.router.reachable_mask(
            from,
            |s| up.get(s.index()).copied().unwrap_or(false),
            |a, b| partition_blocked(partitions, a, b),
        )
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.clock
    }

    /// Number of sites in the topology.
    pub fn site_count(&self) -> u32 {
        self.router.topology().site_count()
    }

    /// Whether `site` is currently up.
    pub fn is_up(&self, site: SiteId) -> bool {
        self.up.get(site.index()).copied().unwrap_or(false)
    }

    /// Liveness of every site (index = site id), borrowed from the
    /// simulator's own state.  The slice is as long as the topology has
    /// sites and changes only inside [`SimNet::step`] (a scheduled crash or
    /// recovery) and [`SimNet::crash_now`]/[`SimNet::recover_now`], each
    /// of which bumps [`SimNet::route_epoch`] — so anything derived from it
    /// stays valid exactly as long as the epoch it was derived at.
    pub fn liveness(&self) -> &[bool] {
        &self.up
    }

    /// The routing oracle (topology + shortest paths + route cache).
    pub fn router(&self) -> &Router {
        &self.router
    }

    /// The current routing epoch.  Every crash, recovery, partition, heal
    /// and topology edit increments it; cached routes from older epochs are
    /// never consulted.
    pub fn route_epoch(&self) -> u64 {
        self.epoch
    }

    /// Routing work performed so far, as `(route_queries, bfs_runs)`.
    /// `route_queries - bfs_runs` is the work the cache saved.
    pub fn routing_work(&self) -> (u64, u64) {
        (self.router.route_queries(), self.router.bfs_runs())
    }

    /// Edits the topology in place, rebuilding the router's adjacency and
    /// invalidating every cached route.
    pub fn edit_topology(&mut self, edit: impl FnOnce(&mut Topology)) {
        self.router.edit_topology(edit);
        self.epoch += 1;
        self.flush_custody();
    }

    /// Accumulated byte/message counters.
    pub fn metrics(&self) -> &NetMetrics {
        &self.metrics
    }

    /// Mutable access to the counters, for layers above the simulator that
    /// account their own terminal outcomes here (the kernel's admission
    /// queues record sheds and waits so one export carries the whole story).
    pub fn metrics_mut(&mut self) -> &mut NetMetrics {
        &mut self.metrics
    }

    /// Resets the byte/message counters and the routing-work counters (the
    /// clock keeps running and cached routes stay valid).
    pub fn reset_metrics(&mut self) {
        self.metrics.reset();
        self.router.reset_route_stats();
    }

    /// Schedules every event of a failure plan.
    pub fn apply_failure_plan(&mut self, plan: &FailurePlan) {
        for ev in plan.events() {
            self.push(
                ev.at,
                Pending::Failure {
                    site: ev.site,
                    action: ev.action,
                },
            );
        }
    }

    /// Crashes a site immediately.
    pub fn crash_now(&mut self, site: SiteId) {
        self.apply_failure(site, FailureAction::Crash);
    }

    /// Recovers a site immediately.
    pub fn recover_now(&mut self, site: SiteId) {
        self.apply_failure(site, FailureAction::Recover);
    }

    /// Installs a partition: messages between the listed group and all other
    /// sites are blocked until [`SimNet::heal_partition`] is called.
    ///
    /// Stored as an `O(V)` membership mask — not the `O(V²)` pair set the
    /// first implementation materialised — and tested per edge at routing
    /// time, so routes stay *within* a side of the partition when a live
    /// in-side path exists.
    pub fn partition(&mut self, group: &[SiteId]) {
        let group: BTreeSet<SiteId> = group.iter().copied().collect();
        self.partitions
            .push(PartitionMask::new(self.site_count(), &group));
        self.epoch += 1;
        self.flush_custody();
    }

    /// Removes every partition-induced block.
    pub fn heal_partition(&mut self) {
        if !self.partitions.is_empty() {
            self.partitions.clear();
            self.epoch += 1;
            self.flush_custody();
        }
    }

    /// Whether direct communication between two sites is blocked by a partition.
    pub fn is_blocked(&self, a: SiteId, b: SiteId) -> bool {
        partition_blocked(&self.partitions, a, b)
    }

    /// Schedules a timer on `site` to fire after `delay`, tagged with `key`.
    pub fn schedule_timer(&mut self, site: SiteId, delay: Duration, key: u64) {
        let at = self.clock + delay;
        self.push(at, Pending::Timer { site, key });
    }

    /// Sends a message, charging latency, bandwidth and transport overhead on
    /// every hop of the shortest live path from `from` to `to`.
    ///
    /// Local sends (`from == to`) are delivered after a fixed small kernel
    /// overhead without touching the network counters.
    ///
    /// When [`SendOptions::custody`] is set and a custody store is installed,
    /// an unreachable or dead destination parks the message instead of
    /// failing: it rides out the outage at a custodian and is re-attempted on
    /// every routing-epoch bump until delivery or TTL expiry.
    pub fn send(&mut self, opts: SendOptions) -> Result<MessageId, NetError> {
        let SendOptions {
            from,
            to,
            payload,
            kind,
            transport,
            custody,
        } = opts;
        let sites = self.site_count();
        if from.0 >= sites {
            return Err(NetError::UnknownSite(from));
        }
        if to.0 >= sites {
            return Err(NetError::UnknownSite(to));
        }
        if !self.is_up(from) {
            return Err(NetError::SourceDown(from));
        }
        // The TTL of the installed store when this send opted into custody:
        // `Some` is "custody is active for this message".
        let custody_ttl = self
            .custody
            .as_ref()
            .filter(|_| custody)
            .map(|store| store.config().ttl);
        if !self.is_up(to) && custody_ttl.is_none() {
            return Err(NetError::DestinationDown(to));
        }

        let id = MessageId(self.next_msg_id);
        self.next_msg_id += 1;
        let mut msg = DeliveredMessage {
            id,
            from,
            to,
            payload: Payload::from(payload),
            kind,
            sent_at: self.clock,
            hops: 0,
        };

        if from == to && self.is_up(to) {
            // Local delivery: a small constant kernel cost, no network bytes.
            self.metrics.record_send();
            let at = self.clock + Duration::from_micros(10);
            self.push_sent(at, msg, None);
            return Ok(id);
        }

        // Route over live, unpartitioned sites.  Liveness and partition state
        // are *borrowed* (the clones the first implementation made per send
        // were the scale bottleneck); the router answers from its cache
        // whenever the epoch has not moved since the pair was last routed,
        // and the cached route carries its price, so charging it walks no
        // hops and asks the topology nothing.
        let up = &self.up;
        let partitions = &self.partitions;
        let alive = |s: SiteId| up.get(s.index()).copied().unwrap_or(false);
        let blocked = |a: SiteId, b: SiteId| partition_blocked(partitions, a, b);
        let route = if self.is_up(to) {
            self.router.route_cost(from, to, self.epoch, alive, blocked)
        } else {
            None
        };
        let Some(route) = route else {
            if let Some(ttl) = custody_ttl {
                return self.park_new(msg, transport, ttl);
            }
            return Err(NetError::Unreachable { from, to });
        };

        let payload_len = msg.payload.len() as u64;
        let overhead = self.transport.overhead(transport, from, to);
        let wire_bytes = payload_len + overhead.extra_bytes;
        let delay = overhead.setup_latency + charge_route(&mut self.metrics, route, wire_bytes);
        self.metrics.record_send();

        msg.hops = route.hops;
        let tag = custody_ttl.map(|ttl| CustodyTag {
            expires_at: self.clock + ttl,
            transport,
            was_parked: false,
        });
        let at = self.clock + delay;
        self.push_sent(at, msg, tag);
        Ok(id)
    }

    /// Puts a freshly sent message in flight.  Its bytes are compared with
    /// those of the message `send` last put in flight and then, if that is
    /// another, with the sender's last one; the first still in flight with
    /// equal bytes shares its buffer.  Nothing is kept for a message once
    /// it leaves the slab, so a repeat of a delivered one is its own.
    fn push_sent(&mut self, at: SimTime, mut msg: DeliveredMessage, tag: Option<CustodyTag>) {
        let from = msg.from.index();
        if !msg.payload.is_empty() {
            let own =
                (self.last_from.get(from).copied()).filter(|&own| Some(own) != self.last_sent);
            for (slot, id) in self.last_sent.into_iter().chain(own) {
                let prev = self
                    .in_flight
                    .get_mut(slot as usize)
                    .and_then(Option::as_mut);
                if let Some(prev) = prev.filter(|p| p.id == id && p.payload == msg.payload) {
                    msg.payload = prev.payload.share();
                    break;
                }
            }
        }
        let id = msg.id;
        let slot = self.push_delivery(at, msg, tag);
        self.last_sent = Some((slot, id));
        if let Some(last) = self.last_from.get_mut(from) {
            *last = (slot, id);
        }
    }

    /// Parks a freshly accepted message whose destination is currently
    /// unreachable.  The custodian is the furthest site toward the
    /// destination still reachable along the static (topology-only) shortest
    /// path — "store and *forward*" — falling back to the sender.  The
    /// partial leg charges bytes; delivery latency is charged on the final
    /// leg when the message is re-attempted.
    fn park_new(
        &mut self,
        mut msg: DeliveredMessage,
        transport: TransportKind,
        ttl: Duration,
    ) -> Result<MessageId, NetError> {
        let (id, from, to) = (msg.id, msg.from, msg.to);
        // Walk the static path while hops are live and unblocked.
        let mut custodian = from;
        let mut hops = 0;
        if let Some(static_path) = self.router.shortest_path(from, to, |_| true) {
            for hop in static_path.windows(2) {
                let (a, b) = (hop[0], hop[1]);
                if !self.is_up(b) || self.is_blocked(a, b) {
                    break;
                }
                hops += 1;
                custodian = b;
            }
        }
        let expires_at = self.clock + ttl;
        msg.hops = hops;
        let payload_len = msg.payload.len() as u64;
        let parked = Parked {
            msg,
            transport,
            expires_at,
        };
        // The push is the capacity test: a full queue hands the message back.
        let accepted = self
            .custody
            .as_mut()
            .is_some_and(|store| store.push(custodian, parked).is_ok());
        if !accepted {
            self.metrics.record_custody_rejection();
            return Err(NetError::CustodyFull { at: custodian });
        }
        if hops > 0 {
            let overhead = self.transport.overhead(transport, from, custodian);
            self.metrics
                .record_hops(hops, payload_len + overhead.extra_bytes);
        }
        self.metrics.record_send();
        self.metrics.record_custody_park(payload_len);
        self.push(
            expires_at,
            Pending::CustodyExpire {
                site: custodian,
                id,
            },
        );
        Ok(id)
    }

    /// Re-parks a custodied message whose destination died while it was in
    /// flight.  Returns a terminal expiry event when the TTL has already
    /// elapsed or the origin's custody queue is full.
    fn repark(&mut self, msg: DeliveredMessage, tag: CustodyTag) -> Option<Event> {
        let expired = ExpiredMessage {
            id: msg.id,
            from: msg.from,
            to: msg.to,
            kind: msg.kind,
            sent_at: msg.sent_at,
            expired_at: self.clock,
        };
        let custodian = msg.from;
        let bytes = msg.payload.len() as u64;
        let id = msg.id;
        let parked = Parked {
            msg,
            transport: tag.transport,
            expires_at: tag.expires_at,
        };
        let reparked = self.clock < tag.expires_at
            && self
                .custody
                .as_mut()
                .is_some_and(|store| store.push(custodian, parked).is_ok());
        if !reparked {
            self.metrics.record_custody_expiry();
            return Some(Event::MessageExpired(expired));
        }
        self.metrics.record_custody_park(bytes);
        // The original TTL alarm may have been consumed as a no-op while the
        // message was in flight; arm a fresh one (duplicates are no-ops).
        self.push(
            tag.expires_at,
            Pending::CustodyExpire {
                site: custodian,
                id,
            },
        );
        None
    }

    /// Re-attempts every custodied delivery.  Called on each routing-epoch
    /// bump, so re-delivery work is O(parked messages) per liveness change
    /// rather than a per-tick scan.  Custodians that are currently down are
    /// skipped (their stable queues survive and flush on recovery).
    fn flush_custody(&mut self) {
        // The store leaves `self` for the sweep (re-delivery never parks).
        let Some(mut store) = self.custody.take() else {
            return;
        };
        for site in 0..self.site_count() {
            let custodian = SiteId(site);
            if !self.is_up(custodian) || store.len(custodian) == 0 {
                continue;
            }
            let stuck = store
                .take_queue(custodian)
                .into_iter()
                .filter_map(|parked| self.try_redeliver(custodian, parked))
                .collect();
            store.restore_queue(custodian, stuck);
        }
        self.custody = Some(store);
    }

    /// Attempts to route one parked message onward.  Returns the message when
    /// it must stay parked; `None` when a delivery was scheduled.
    fn try_redeliver(&mut self, custodian: SiteId, parked: Parked) -> Option<Parked> {
        let to = parked.msg.to;
        if !self.is_up(to) {
            return Some(parked);
        }
        let up = &self.up;
        let partitions = &self.partitions;
        let alive = |s: SiteId| up.get(s.index()).copied().unwrap_or(false);
        let blocked = |a: SiteId, b: SiteId| partition_blocked(partitions, a, b);
        let Some(route) = self
            .router
            .route_cost(custodian, to, self.epoch, alive, blocked)
        else {
            return Some(parked);
        };

        let Parked {
            mut msg,
            transport,
            expires_at,
        } = parked;
        self.metrics.record_custody_unpark(msg.payload.len() as u64);
        let overhead = self.transport.overhead(transport, custodian, to);
        let wire_bytes = msg.payload.len() as u64 + overhead.extra_bytes;
        let delay = overhead.setup_latency + charge_route(&mut self.metrics, route, wire_bytes);
        msg.hops += route.hops;
        let at = self.clock + delay;
        let tag = CustodyTag {
            expires_at,
            transport,
            was_parked: true,
        };
        self.push_delivery(at, msg, Some(tag));
        None
    }

    /// Advances to the next event and returns it, or `None` if the queue is
    /// empty.  Dropped deliveries (dead destination) are consumed internally
    /// and do not surface.
    pub fn step(&mut self) -> Option<Event> {
        loop {
            let (at, _, pending) = self.queue.pop()?;
            debug_assert!(at >= self.clock, "time must not go backwards");
            self.clock = self.clock.max(at);
            match pending {
                Pending::Deliver(slot) => {
                    let msg = self.in_flight[slot as usize]
                        .take()
                        .expect("a queued delivery owns its slot");
                    let custody = self.custody_tags.remove(&slot);
                    self.free.push(slot);
                    if self.is_up(msg.to) {
                        if custody.is_some_and(|tag| tag.was_parked) {
                            self.metrics.record_custody_delivery();
                        }
                        self.metrics.record_delivery();
                        return Some(Event::Message(msg));
                    }
                    if let Some(tag) = custody {
                        if self.custody.is_some() {
                            // The destination died while the message was in
                            // flight: back into custody at the origin instead
                            // of dropping (terminal expiry if over TTL/full).
                            if let Some(event) = self.repark(msg, tag) {
                                return Some(event);
                            }
                            continue;
                        }
                    }
                    self.metrics.record_drop();
                    // Keep looping: the drop is not surfaced.
                }
                Pending::CustodyExpire { site, id } => {
                    let taken = self
                        .custody
                        .as_mut()
                        .and_then(|store| store.remove(site, id));
                    if let Some(parked) = taken {
                        self.metrics
                            .record_custody_unpark(parked.msg.payload.len() as u64);
                        self.metrics.record_custody_expiry();
                        return Some(Event::MessageExpired(ExpiredMessage {
                            id: parked.msg.id,
                            from: parked.msg.from,
                            to: parked.msg.to,
                            kind: parked.msg.kind,
                            sent_at: parked.msg.sent_at,
                            expired_at: self.clock,
                        }));
                    }
                    // Already delivered or re-parked elsewhere: a no-op.
                }
                Pending::Timer { site, key } => {
                    if self.is_up(site) {
                        return Some(Event::Timer { site, key });
                    }
                    // Timers on dead sites are silently discarded.
                }
                Pending::Failure { site, action } => {
                    let changed = self.apply_failure(site, action);
                    if changed {
                        return Some(match action {
                            FailureAction::Crash => Event::SiteCrashed(site),
                            FailureAction::Recover => Event::SiteRecovered(site),
                        });
                    }
                }
            }
        }
    }

    /// The time of the next pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.queue.peek().map(|(at, _)| at)
    }

    /// Number of pending events (messages in flight, timers, failures).
    pub fn pending_count(&self) -> usize {
        self.queue.len()
    }

    fn apply_failure(&mut self, site: SiteId, action: FailureAction) -> bool {
        let Some(slot) = self.up.get_mut(site.index()) else {
            return false;
        };
        let changed = match action {
            FailureAction::Crash => {
                if !*slot {
                    return false;
                }
                *slot = false;
                self.transport.drop_streams_of(site);
                true
            }
            FailureAction::Recover => {
                if *slot {
                    return false;
                }
                *slot = true;
                true
            }
        };
        if changed {
            // Liveness changed: invalidate every cached route and re-attempt
            // custodied deliveries (a recovery may have opened a path).
            self.epoch += 1;
            self.flush_custody();
        }
        changed
    }

    fn push(&mut self, at: SimTime, pending: Pending) {
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(at, seq, pending);
    }

    /// Queues a delivery: the message goes into a vacant slab slot, its
    /// custody tag (if any) into the side table, and the queue carries the
    /// slot's index, which is returned.
    fn push_delivery(
        &mut self,
        at: SimTime,
        msg: DeliveredMessage,
        custody: Option<CustodyTag>,
    ) -> u32 {
        let slot = self.free.pop().unwrap_or_else(|| {
            self.in_flight.push(None);
            u32::try_from(self.in_flight.len() - 1).expect("over u32::MAX messages in flight")
        });
        self.in_flight[slot as usize] = Some(msg);
        if let Some(tag) = custody {
            self.custody_tags.insert(slot, tag);
        }
        self.push(at, Pending::Deliver(slot));
        slot
    }
}

/// Charges `wire_bytes` to every link of a route and returns the time they
/// take to cross it.
fn charge_route(metrics: &mut NetMetrics, route: RouteCost<'_>, wire_bytes: u64) -> Duration {
    metrics.record_hops(route.hops, wire_bytes);
    route.transfer_time(wire_bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::LinkSpec;

    fn mesh(n: u32) -> SimNet {
        SimNet::new(Topology::full_mesh(n, LinkSpec::default()))
    }

    fn send_simple(net: &mut SimNet, from: u32, to: u32, bytes: usize) -> MessageId {
        net.send(SendOptions {
            from: SiteId(from),
            to: SiteId(to),
            payload: vec![0u8; bytes],
            kind: 1,
            transport: TransportKind::Tcp,
            custody: false,
        })
        .expect("send should succeed")
    }

    #[test]
    fn a_queued_event_is_sixteen_bytes() {
        // Messages wait in the slab: a timer must not pay for their fields.
        assert!(std::mem::size_of::<Pending>() <= 16);
    }

    #[test]
    fn a_message_in_flight_is_fifty_six_bytes() {
        // Custody tags live beside the slab, so a record pays for none.
        assert_eq!(std::mem::size_of::<Payload>(), 24);
        assert!(std::mem::size_of::<Option<DeliveredMessage>>() <= 56);
    }

    #[test]
    fn a_shared_payload_is_unique_again_once_alone() {
        let mut first = Payload::from(vec![7u8; 40]);
        let second = first.share();
        assert_eq!(first, second);
        let Err(second) = second.try_into_unique() else {
            panic!("two holders: the buffer is shared");
        };
        drop(first);
        assert_eq!(second.try_into_unique(), Ok(vec![7u8; 40]));
    }

    #[test]
    fn message_is_delivered_in_order_of_time() {
        let mut net = mesh(3);
        let id1 = send_simple(&mut net, 0, 1, 10);
        let id2 = send_simple(&mut net, 0, 2, 10_000_000); // much larger, arrives later
        let ev1 = net.step().unwrap();
        match ev1 {
            Event::Message(m) => assert_eq!(m.id, id1),
            other => panic!("expected message, got {other:?}"),
        }
        let ev2 = net.step().unwrap();
        match ev2 {
            Event::Message(m) => {
                assert_eq!(m.id, id2);
                assert_eq!(m.hops, 1);
            }
            other => panic!("expected message, got {other:?}"),
        }
        assert!(net.step().is_none());
        assert!(net.now() > SimTime::ZERO);
    }

    #[test]
    fn local_send_has_no_network_bytes() {
        let mut net = mesh(2);
        send_simple(&mut net, 1, 1, 500);
        let ev = net.step().unwrap();
        assert!(matches!(ev, Event::Message(ref m) if m.hops == 0));
        assert_eq!(net.metrics().total_bytes().get(), 0);
        assert_eq!(net.metrics().total_messages(), 1);
    }

    #[test]
    fn bytes_charged_per_hop_on_ring() {
        let mut net = SimNet::new(Topology::ring(4, LinkSpec::default()));
        // 0 -> 2 is two hops on a 4-ring.
        send_simple(&mut net, 0, 2, 1000);
        let ev = net.step().unwrap();
        match ev {
            Event::Message(m) => assert_eq!(m.hops, 2),
            other => panic!("unexpected {other:?}"),
        }
        // Wire bytes = payload + tcp first-contact overhead (128), charged twice.
        assert_eq!(net.metrics().total_bytes().get(), 2 * (1000 + 128));
        assert_eq!(net.metrics().total_hops(), 2);
    }

    #[test]
    fn send_to_dead_site_fails_fast() {
        let mut net = mesh(3);
        net.crash_now(SiteId(2));
        let err = net
            .send(SendOptions {
                from: SiteId(0),
                to: SiteId(2),
                payload: vec![],
                kind: 0,
                transport: TransportKind::Tcp,
                custody: false,
            })
            .unwrap_err();
        assert_eq!(err, NetError::DestinationDown(SiteId(2)));
        let err = net
            .send(SendOptions {
                from: SiteId(2),
                to: SiteId(0),
                payload: vec![],
                kind: 0,
                transport: TransportKind::Tcp,
                custody: false,
            })
            .unwrap_err();
        assert_eq!(err, NetError::SourceDown(SiteId(2)));
    }

    #[test]
    fn unknown_site_rejected() {
        let mut net = mesh(2);
        let err = net
            .send(SendOptions {
                from: SiteId(0),
                to: SiteId(9),
                payload: vec![],
                kind: 0,
                transport: TransportKind::Tcp,
                custody: false,
            })
            .unwrap_err();
        assert_eq!(err, NetError::UnknownSite(SiteId(9)));
    }

    #[test]
    fn message_in_flight_to_crashing_site_is_dropped() {
        let mut net = mesh(2);
        send_simple(&mut net, 0, 1, 100);
        net.crash_now(SiteId(1));
        assert!(net.step().is_none(), "delivery should be swallowed");
        assert_eq!(net.metrics().dropped_messages(), 1);
    }

    #[test]
    fn scheduled_failure_plan_surfaces_events() {
        let mut net = mesh(2);
        let plan =
            FailurePlan::none().outage(SiteId(1), SimTime(1_000), Duration::from_micros(500));
        net.apply_failure_plan(&plan);
        assert_eq!(net.step(), Some(Event::SiteCrashed(SiteId(1))));
        assert!(!net.is_up(SiteId(1)));
        assert_eq!(net.step(), Some(Event::SiteRecovered(SiteId(1))));
        assert!(net.is_up(SiteId(1)));
        assert_eq!(net.now(), SimTime(1_500));
    }

    #[test]
    fn duplicate_crash_is_idempotent() {
        let mut net = mesh(2);
        let plan = FailurePlan::none()
            .crash(SiteId(1), SimTime(10))
            .crash(SiteId(1), SimTime(20));
        net.apply_failure_plan(&plan);
        assert_eq!(net.step(), Some(Event::SiteCrashed(SiteId(1))));
        assert!(net.step().is_none(), "second crash is a no-op");
    }

    #[test]
    fn timers_fire_in_order_and_die_with_site() {
        let mut net = mesh(2);
        net.schedule_timer(SiteId(0), Duration::from_millis(5), 7);
        net.schedule_timer(SiteId(1), Duration::from_millis(1), 9);
        net.schedule_timer(SiteId(1), Duration::from_millis(10), 11);
        assert_eq!(
            net.step(),
            Some(Event::Timer {
                site: SiteId(1),
                key: 9
            })
        );
        assert_eq!(
            net.step(),
            Some(Event::Timer {
                site: SiteId(0),
                key: 7
            })
        );
        net.crash_now(SiteId(1));
        assert!(net.step().is_none(), "timer on dead site is discarded");
    }

    #[test]
    fn routing_detours_around_crashed_site() {
        let mut net = SimNet::new(Topology::ring(5, LinkSpec::default()));
        net.crash_now(SiteId(1));
        send_simple(&mut net, 0, 2, 10);
        match net.step().unwrap() {
            Event::Message(m) => assert_eq!(m.hops, 3, "must detour the long way"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn sparse_topology_can_become_unreachable() {
        let mut net = SimNet::new(Topology::star(4, LinkSpec::default()));
        net.crash_now(SiteId(0)); // hub down
        let err = net
            .send(SendOptions {
                from: SiteId(1),
                to: SiteId(2),
                payload: vec![],
                kind: 0,
                transport: TransportKind::Tcp,
                custody: false,
            })
            .unwrap_err();
        assert_eq!(
            err,
            NetError::Unreachable {
                from: SiteId(1),
                to: SiteId(2)
            }
        );
    }

    #[test]
    fn partition_blocks_and_heals() {
        let mut net = mesh(4);
        net.partition(&[SiteId(0), SiteId(1)]);
        assert!(net.is_blocked(SiteId(0), SiteId(2)));
        assert!(!net.is_blocked(SiteId(0), SiteId(1)));
        let err = net
            .send(SendOptions {
                from: SiteId(0),
                to: SiteId(3),
                payload: vec![],
                kind: 0,
                transport: TransportKind::Tcp,
                custody: false,
            })
            .unwrap_err();
        assert_eq!(
            err,
            NetError::Unreachable {
                from: SiteId(0),
                to: SiteId(3)
            }
        );
        // Inside the partition traffic still flows.
        assert!(net
            .send(SendOptions {
                from: SiteId(0),
                to: SiteId(1),
                payload: vec![],
                kind: 0,
                transport: TransportKind::Tcp,
                custody: false,
            })
            .is_ok());
        net.heal_partition();
        assert!(net
            .send(SendOptions {
                from: SiteId(0),
                to: SiteId(3),
                payload: vec![],
                kind: 0,
                transport: TransportKind::Tcp,
                custody: false,
            })
            .is_ok());
    }

    #[test]
    fn route_epoch_bumps_on_liveness_and_partition_changes() {
        let mut net = mesh(4);
        assert_eq!(net.route_epoch(), 0);
        net.crash_now(SiteId(1));
        assert_eq!(net.route_epoch(), 1);
        net.crash_now(SiteId(1)); // idempotent: no state change, no bump
        assert_eq!(net.route_epoch(), 1);
        net.recover_now(SiteId(1));
        assert_eq!(net.route_epoch(), 2);
        net.partition(&[SiteId(0), SiteId(1)]);
        assert_eq!(net.route_epoch(), 3);
        net.heal_partition();
        assert_eq!(net.route_epoch(), 4);
        net.heal_partition(); // nothing to heal, no bump
        assert_eq!(net.route_epoch(), 4);
        net.edit_topology(|t| t.remove_link(SiteId(0), SiteId(1)));
        assert_eq!(net.route_epoch(), 5);
    }

    #[test]
    fn repeated_sends_hit_the_route_cache() {
        let mut net = SimNet::new(Topology::ring(8, LinkSpec::default()));
        for _ in 0..10 {
            send_simple(&mut net, 0, 4, 16);
        }
        let (queries, bfs) = net.routing_work();
        assert_eq!(queries, 10);
        assert_eq!(bfs, 1, "one BFS must serve all ten sends");
        // A crash invalidates: the next send recomputes, once.
        net.crash_now(SiteId(1));
        send_simple(&mut net, 0, 4, 16);
        send_simple(&mut net, 0, 4, 16);
        assert_eq!(net.routing_work(), (12, 2));
    }

    #[test]
    fn partitioned_route_stays_inside_the_group_when_a_path_exists() {
        // Chain 0-1-2-3 plus a shortcut through 4.  Partition {0,1,2,3}:
        // the shortcut is severed but the in-group chain still routes.
        let mut t = Topology::empty(5);
        t.add_link(SiteId(0), SiteId(1), LinkSpec::default());
        t.add_link(SiteId(1), SiteId(2), LinkSpec::default());
        t.add_link(SiteId(2), SiteId(3), LinkSpec::default());
        t.add_link(SiteId(0), SiteId(4), LinkSpec::default());
        t.add_link(SiteId(4), SiteId(3), LinkSpec::default());
        let mut net = SimNet::new(t);
        send_simple(&mut net, 0, 3, 8);
        match net.step().unwrap() {
            Event::Message(m) => assert_eq!(m.hops, 2, "shortcut via 4"),
            other => panic!("unexpected {other:?}"),
        }
        net.partition(&[SiteId(0), SiteId(1), SiteId(2), SiteId(3)]);
        send_simple(&mut net, 0, 3, 8);
        match net.step().unwrap() {
            Event::Message(m) => assert_eq!(m.hops, 3, "must detour inside the group"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn rsh_transport_is_slower_than_tcp() {
        let mut net_rsh = mesh(2);
        let mut net_tcp = mesh(2);
        net_rsh
            .send(SendOptions {
                from: SiteId(0),
                to: SiteId(1),
                payload: vec![0; 100],
                kind: 0,
                transport: TransportKind::Rsh,
                custody: false,
            })
            .unwrap();
        net_tcp
            .send(SendOptions {
                from: SiteId(0),
                to: SiteId(1),
                payload: vec![0; 100],
                kind: 0,
                transport: TransportKind::Tcp,
                custody: false,
            })
            .unwrap();
        net_rsh.step();
        net_tcp.step();
        assert!(net_rsh.now() > net_tcp.now());
    }

    #[test]
    fn peek_and_pending_counts() {
        let mut net = mesh(2);
        assert_eq!(net.pending_count(), 0);
        assert!(net.peek_time().is_none());
        send_simple(&mut net, 0, 1, 1);
        net.schedule_timer(SiteId(0), Duration::from_secs(1), 1);
        assert_eq!(net.pending_count(), 2);
        assert!(net.peek_time().unwrap() < SimTime(1_000_000));
    }
}
