//! Store-and-forward custody queues: the delayed-but-delivered half of the
//! paper's partition story.
//!
//! The paper motivates mobile agents precisely for unreliable, partition-prone
//! WANs (StormCast's far-north sites, §6), yet a fail-fast simulator turns
//! every partition into an immediate `NetError::Unreachable`.  When a
//! [`crate::sim::SendOptions`] opts into custody and the simulator has a
//! custody store installed ([`crate::sim::SimNet::set_custody`]), a send with
//! no live path is instead *parked* at a custodian site — the sender, or the
//! furthest site toward the destination the message can still reach — and
//! re-attempted whenever the routing epoch bumps (crash, recovery, partition,
//! heal, topology edit).  This mirrors DTN-style custody transfer: bounded
//! per-site queues, a TTL after which the message expires terminally, and
//! stable storage (a custodian crash does not lose parked messages, just like
//! flushed cabinets survive site crashes).
//!
//! The store itself is deliberately dumb — bounded FIFO queues plus removal
//! by id — so every delivery/expiry decision stays inside the simulator's
//! deterministic event loop.

use crate::sim::DeliveredMessage;
use crate::time::{Duration, SimTime};
use crate::transport::TransportKind;
use std::collections::VecDeque;
use tacoma_util::SiteId;

/// Configuration of the custody subsystem.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CustodyConfig {
    /// Maximum number of messages parked at any one site.  A send that would
    /// overflow the custodian's queue fails fast with
    /// [`crate::sim::NetError::CustodyFull`].
    pub capacity: usize,
    /// Lifetime of a custodied message, measured from its original send.  A
    /// message still undelivered when the TTL elapses surfaces as a terminal
    /// [`crate::sim::Event::MessageExpired`].
    pub ttl: Duration,
}

impl Default for CustodyConfig {
    fn default() -> Self {
        CustodyConfig {
            capacity: 64,
            ttl: Duration::from_secs(30),
        }
    }
}

/// One message held in custody: the (eventual) delivery plus what the
/// simulator needs to retry or expire it.
#[derive(Debug, Clone)]
pub(crate) struct Parked {
    /// The message as it will eventually be delivered (`hops` accumulates
    /// across partial legs).
    pub msg: DeliveredMessage,
    /// Transport personality to charge re-delivery with.
    pub transport: TransportKind,
    /// Instant the message expires (original send time + TTL).
    pub expires_at: SimTime,
}

/// Per-site bounded custody queues.
///
/// Parked messages live on *stable storage*: a custodian crash neither drops
/// nor reorders its queue — delivery attempts simply skip custodians that are
/// down and resume on their recovery epoch bump.
#[derive(Debug)]
pub(crate) struct CustodyStore {
    config: CustodyConfig,
    queues: Vec<VecDeque<Parked>>,
}

impl CustodyStore {
    /// Creates an empty store for `sites` sites.
    pub fn new(sites: u32, config: CustodyConfig) -> Self {
        CustodyStore {
            config,
            queues: (0..sites).map(|_| VecDeque::new()).collect(),
        }
    }

    /// The configuration the store was created with.
    pub fn config(&self) -> CustodyConfig {
        self.config
    }

    /// Messages currently parked at `site`.
    pub fn len(&self, site: SiteId) -> usize {
        self.queues.get(site.index()).map_or(0, VecDeque::len)
    }

    /// Messages currently parked across all sites.
    pub fn total_len(&self) -> usize {
        self.queues.iter().map(VecDeque::len).sum()
    }

    /// Parks a message at `site`.  When the queue is full the message is
    /// handed back in `Err` — the caller owns the rejection.
    pub fn push(&mut self, site: SiteId, parked: Parked) -> Result<(), Parked> {
        let Some(queue) = self.queues.get_mut(site.index()) else {
            return Err(parked);
        };
        if queue.len() >= self.config.capacity {
            return Err(parked);
        }
        queue.push_back(parked);
        Ok(())
    }

    /// Removes the message with `id` from `site`'s queue, if still parked.
    pub fn remove(&mut self, site: SiteId, id: crate::sim::MessageId) -> Option<Parked> {
        let queue = self.queues.get_mut(site.index())?;
        let pos = queue.iter().position(|p| p.msg.id == id)?;
        queue.remove(pos)
    }

    /// Takes `site`'s whole queue out for a re-delivery sweep; pair with
    /// [`CustodyStore::restore_queue`].
    pub fn take_queue(&mut self, site: SiteId) -> VecDeque<Parked> {
        self.queues
            .get_mut(site.index())
            .map(std::mem::take)
            .unwrap_or_default()
    }

    /// Puts the still-stuck remainder of a sweep back (FIFO order preserved).
    pub fn restore_queue(&mut self, site: SiteId, queue: VecDeque<Parked>) {
        if let Some(slot) = self.queues.get_mut(site.index()) {
            debug_assert!(slot.is_empty(), "restore must follow take");
            *slot = queue;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::MessageId;

    fn parked(id: u64) -> Parked {
        Parked {
            msg: DeliveredMessage {
                id: MessageId(id),
                from: SiteId(0),
                to: SiteId(1),
                payload: vec![0; 10].into(),
                kind: 1,
                sent_at: SimTime::ZERO,
                hops: 0,
            },
            transport: TransportKind::Tcp,
            expires_at: SimTime(1_000),
        }
    }

    #[test]
    fn queues_are_bounded_and_fifo() {
        let mut store = CustodyStore::new(
            2,
            CustodyConfig {
                capacity: 2,
                ttl: Duration::from_millis(1),
            },
        );
        assert!(store.push(SiteId(0), parked(1)).is_ok());
        assert!(store.push(SiteId(0), parked(2)).is_ok());
        assert!(store.push(SiteId(0), parked(3)).is_err(), "over capacity");
        assert_eq!(store.len(SiteId(0)), 2);
        assert_eq!(store.total_len(), 2);
        let queue = store.take_queue(SiteId(0));
        let ids: Vec<u64> = queue.iter().map(|p| p.msg.id.0).collect();
        assert_eq!(ids, [1, 2], "FIFO order");
        store.restore_queue(SiteId(0), queue);
        assert_eq!(store.len(SiteId(0)), 2);
    }

    #[test]
    fn remove_by_id_hits_once() {
        let mut store = CustodyStore::new(1, CustodyConfig::default());
        store.push(SiteId(0), parked(7)).unwrap();
        assert!(store.remove(SiteId(0), MessageId(9)).is_none());
        assert!(store.remove(SiteId(0), MessageId(7)).is_some());
        assert!(store.remove(SiteId(0), MessageId(7)).is_none());
        assert_eq!(store.total_len(), 0);
    }

    #[test]
    fn out_of_range_sites_are_rejected() {
        let mut store = CustodyStore::new(1, CustodyConfig::default());
        assert!(store.push(SiteId(5), parked(1)).is_err());
        assert_eq!(store.len(SiteId(5)), 0);
    }
}
