//! A hierarchical calendar queue: the event queue behind [`crate::sim::SimNet`].
//!
//! A discrete-event simulator spends most of its time in its priority queue.
//! A single `BinaryHeap` costs `O(log n)` per operation over an array that at
//! 4096+ sites no longer fits in cache, and — worse for us — the heap's
//! internal order is not stable, so FIFO tie-breaking at equal timestamps has
//! to be bolted on with a sequence number anyway.  The calendar queue
//! ([Brown 1988]'s structure, here in the two-level "near wheel + overflow"
//! form) gets amortised `O(1)` inserts and pops by hashing events on their
//! timestamp into an array of time buckets:
//!
//! * a **near wheel** of `slots` buckets, each `bucket_width` microseconds
//!   wide, covering the window `[base, base + slots × width)` of imminent
//!   simulated time.  Each bucket is a tiny binary heap ordered by
//!   `(time, key)`, so a bucket rarely holds more than a handful of events
//!   and stays resident in L1;
//! * an **overflow heap** for events scheduled beyond the wheel's horizon.
//!   Whenever the wheel's base advances, overflow events whose time has come
//!   into the window migrate into their bucket (each event migrates at most
//!   once).
//!
//! Pop order is the total order on `(time, key)`.  Callers hand every event a
//! unique, monotonically assigned key, which makes ties at equal timestamps
//! pop in FIFO order — the determinism contract the simulator's reports are
//! built on.  The key type is generic; the simulator keys events by its
//! global sequence number, which is what makes the pop order independent of
//! how the queue is sharded.
//!
//! [Brown 1988]: "Calendar Queues: A Fast O(1) Priority Queue Implementation
//! for the Simulation Event Set Problem", CACM 31(10).

use crate::time::SimTime;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Default bucket width: 512 µs spans the LAN-latency scale, so consecutive
/// deliveries land in neighbouring buckets instead of piling into one.
const DEFAULT_BUCKET_WIDTH_US: u64 = 512;

/// Default wheel size: 128 buckets × 512 µs ≈ a 65 ms window, wide enough to
/// keep WAN-latency deliveries (40 ms) on the wheel; only long timers and
/// failure-plan events take the overflow detour.
const DEFAULT_SLOTS: usize = 128;

/// One queued event.  Ordering ignores the value entirely: the total order is
/// `(time, key)`, and keys are unique by contract.
#[derive(Debug, Clone)]
struct Entry<K, V> {
    at: SimTime,
    key: K,
    value: V,
}

impl<K: Ord, V> PartialEq for Entry<K, V> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.key == other.key
    }
}
impl<K: Ord, V> Eq for Entry<K, V> {}
impl<K: Ord, V> PartialOrd for Entry<K, V> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<K: Ord, V> Ord for Entry<K, V> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, &self.key).cmp(&(other.at, &other.key))
    }
}

/// A two-level calendar queue ordered by `(time, key)`.
///
/// Keys must be unique across live entries; the caller assigns them (the
/// simulator uses a monotone sequence number, so equal-time events pop in
/// insertion order).
#[derive(Debug, Clone)]
pub struct CalendarQueue<K, V> {
    /// The near wheel: slot `b % slots.len()` holds exactly the events whose
    /// bucket number `b = time / bucket_width` lies in
    /// `[base_bucket, base_bucket + slots.len())`.
    slots: Vec<BinaryHeap<Reverse<Entry<K, V>>>>,
    /// Events beyond the wheel horizon (bucket number ≥ `base_bucket + slots`).
    overflow: BinaryHeap<Reverse<Entry<K, V>>>,
    /// Lowest bucket number the wheel currently represents.
    base_bucket: u64,
    bucket_width: u64,
    len: usize,
    /// `(time, key)` of the minimum entry, maintained on every mutation so
    /// `peek` is `O(1)` and needs only `&self`.
    front: Option<(SimTime, K)>,
}

impl<K: Ord + Copy, V> CalendarQueue<K, V> {
    /// An empty queue with the default geometry.
    pub fn new() -> Self {
        Self::with_geometry(DEFAULT_BUCKET_WIDTH_US, DEFAULT_SLOTS)
    }

    /// An empty queue with `slots` buckets of `bucket_width_us` microseconds.
    /// Exposed so tests can force tiny wheels and exercise wrap/migration.
    pub fn with_geometry(bucket_width_us: u64, slots: usize) -> Self {
        let bucket_width = bucket_width_us.max(1);
        let slots = slots.max(1);
        CalendarQueue {
            slots: (0..slots).map(|_| BinaryHeap::new()).collect(),
            overflow: BinaryHeap::new(),
            base_bucket: 0,
            bucket_width,
            len: 0,
            front: None,
        }
    }

    /// Number of queued events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// `(time, key)` of the next event to pop, without popping it.
    pub fn peek(&self) -> Option<(SimTime, K)> {
        self.front
    }

    /// Bucket number of a timestamp (saturating, so `SimTime(u64::MAX)`
    /// alarms are representable).
    fn bucket_of(&self, at: SimTime) -> u64 {
        at.micros() / self.bucket_width
    }

    /// End of the wheel window as a bucket number (saturating).
    fn horizon(&self) -> u64 {
        self.base_bucket.saturating_add(self.slots.len() as u64)
    }

    /// Inserts an event.  `key` must be unique among live entries; events
    /// earlier than an already-popped timestamp are accepted (they pop next).
    pub fn push(&mut self, at: SimTime, key: K, value: V) {
        if self.front.is_none_or(|(ft, fk)| (at, key) < (ft, fk)) {
            self.front = Some((at, key));
        }
        let entry = Reverse(Entry { at, key, value });
        // Late events (bucket before the base) go into the base slot: the
        // scan starts there and bucket heaps are (time, key)-ordered, so
        // they still pop first.
        let bucket = self.bucket_of(at).max(self.base_bucket);
        if bucket < self.horizon() {
            let slot = (bucket % self.slots.len() as u64) as usize;
            self.slots[slot].push(entry);
        } else {
            self.overflow.push(entry);
        }
        self.len += 1;
    }

    /// Removes and returns the minimum event as `(time, key, value)`.
    pub fn pop(&mut self) -> Option<(SimTime, K, V)> {
        if self.len == 0 {
            return None;
        }
        let bucket = self.settle();
        let slot = (bucket % self.slots.len() as u64) as usize;
        let Reverse(entry) = self.slots[slot].pop().expect("settle found this slot");
        self.len -= 1;
        self.front = self.compute_front();
        Some((entry.at, entry.key, entry.value))
    }

    /// Advances the wheel base to the first non-empty bucket, migrating
    /// overflow events that the move brings into the window, and returns that
    /// bucket number.  Requires `len > 0`.
    fn settle(&mut self) -> u64 {
        loop {
            let n = self.slots.len() as u64;
            let mut first = None;
            for i in 0..n {
                let b = self.base_bucket.saturating_add(i);
                if !self.slots[(b % n) as usize].is_empty() {
                    first = Some(b);
                    break;
                }
            }
            // Invariant: every overflow entry's bucket is ≥ the horizon at
            // the time it was pushed or last migrated, hence strictly beyond
            // any in-window bucket — so an in-window hit is the global front.
            if let Some(b) = first {
                self.advance_to(b);
                return b;
            }
            // Wheel empty: jump the base to the overflow's first bucket and
            // let migration refill the wheel.
            let Reverse(next) = self.overflow.peek().expect("len > 0, wheel empty");
            let b = self.bucket_of(next.at);
            self.advance_to(b);
        }
    }

    /// Moves the base forward to `bucket` (never backward) and migrates every
    /// overflow event that now falls inside the window onto the wheel.
    fn advance_to(&mut self, bucket: u64) {
        if bucket > self.base_bucket {
            self.base_bucket = bucket;
        }
        let n = self.slots.len() as u64;
        while let Some(Reverse(e)) = self.overflow.peek() {
            let b = self.bucket_of(e.at);
            if b >= self.horizon() {
                break;
            }
            let Reverse(e) = self.overflow.pop().expect("just peeked");
            self.slots[(b % n) as usize].push(Reverse(e));
        }
    }

    /// Recomputes the cached front after a pop.
    fn compute_front(&mut self) -> Option<(SimTime, K)> {
        if self.len == 0 {
            return None;
        }
        let bucket = self.settle();
        let slot = (bucket % self.slots.len() as u64) as usize;
        self.slots[slot].peek().map(|Reverse(e)| (e.at, e.key))
    }
}

impl<K: Ord + Copy, V> Default for CalendarQueue<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(q: &mut CalendarQueue<u64, &'static str>) -> Vec<(u64, u64, &'static str)> {
        let mut out = Vec::new();
        while let Some((at, key, v)) = q.pop() {
            out.push((at.micros(), key, v));
        }
        out
    }

    #[test]
    fn pops_in_time_order_across_wheel_and_overflow() {
        let mut q = CalendarQueue::with_geometry(10, 4); // 40 µs window
        q.push(SimTime(500), 0, "overflow");
        q.push(SimTime(5), 1, "wheel");
        q.push(SimTime(35), 2, "wheel-edge");
        q.push(SimTime(100_000), 3, "far");
        assert_eq!(q.len(), 4);
        assert_eq!(q.peek(), Some((SimTime(5), 1)));
        assert_eq!(
            drain(&mut q),
            vec![
                (5, 1, "wheel"),
                (35, 2, "wheel-edge"),
                (500, 0, "overflow"),
                (100_000, 3, "far"),
            ]
        );
        assert!(q.is_empty());
        assert_eq!(q.peek(), None);
    }

    #[test]
    fn equal_times_pop_in_key_order() {
        let mut q = CalendarQueue::with_geometry(64, 8);
        // Push keys out of order at the same instant: pop order must follow
        // the keys (the simulator's FIFO sequence numbers), not push order.
        q.push(SimTime(1_000), 2, "c");
        q.push(SimTime(1_000), 0, "a");
        q.push(SimTime(1_000), 1, "b");
        assert_eq!(
            drain(&mut q),
            vec![(1_000, 0, "a"), (1_000, 1, "b"), (1_000, 2, "c")]
        );
    }

    #[test]
    fn interleaved_push_pop_with_late_events() {
        let mut q = CalendarQueue::with_geometry(10, 4);
        q.push(SimTime(100), 0, "x");
        assert_eq!(q.pop().map(|(t, k, _)| (t, k)), Some((SimTime(100), 0)));
        // A push earlier than the last pop still surfaces (and first).
        q.push(SimTime(50), 1, "late");
        q.push(SimTime(120), 2, "next");
        assert_eq!(q.peek(), Some((SimTime(50), 1)));
        assert_eq!(drain(&mut q), vec![(50, 1, "late"), (120, 2, "next")]);
    }

    #[test]
    fn saturated_far_future_alarms_survive() {
        let mut q = CalendarQueue::with_geometry(512, 16);
        q.push(SimTime(u64::MAX), 7, "doomsday");
        q.push(SimTime(1), 8, "now");
        assert_eq!(q.pop().map(|(_, k, _)| k), Some(8));
        assert_eq!(
            q.pop().map(|(t, k, _)| (t, k)),
            Some((SimTime(u64::MAX), 7))
        );
    }

    #[test]
    fn single_slot_wheel_degenerates_gracefully() {
        let mut q = CalendarQueue::with_geometry(1, 1);
        for key in 0..64u64 {
            q.push(SimTime(1_000 - key), key, "v");
        }
        let popped = drain(&mut q);
        let mut times: Vec<u64> = popped.iter().map(|&(t, _, _)| t).collect();
        let sorted = {
            let mut s = times.clone();
            s.sort_unstable();
            s
        };
        assert_eq!(times, sorted);
        times.dedup();
        assert_eq!(times.len(), 64);
    }
}
