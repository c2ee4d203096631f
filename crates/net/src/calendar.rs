//! A hierarchical calendar queue: the event queue behind [`crate::sim::SimNet`].
//!
//! A discrete-event simulator spends most of its time in its priority queue.
//! A single binary heap costs `O(log n)` per operation over an array that at
//! 4096+ sites no longer fits in cache, and — worse for us — the heap's
//! internal order is not stable, so FIFO tie-breaking at equal timestamps has
//! to be bolted on with a sequence number anyway.  The calendar queue
//! ([Brown 1988]'s structure, here as a wheel that appends and sorts)
//! gets amortised `O(1)` inserts by hashing events on their timestamp into
//! an array of time buckets, and sorts only the bucket it is draining:
//!
//! * a **wheel** of `slots` buckets, each `bucket_width` microseconds wide,
//!   covering one *revolution* `[r × slots, (r + 1) × slots)` of bucket
//!   numbers.  A bucket ahead of the clock is an unsorted `Vec`: a push is
//!   an append, no comparison made;
//! * the **current bucket**, the one being drained, is a sorted run: its
//!   `Vec` is sorted once when the bucket's turn comes, earliest last, and a
//!   pop is a `Vec::pop`.  A simulator pushes a bucket mostly in pop order
//!   already — a whole flood generation lands at one instant, keys ascending
//!   — and the sort recognises such a run in `O(n)`;
//! * one **late heap** for the pushes made at or before the current bucket
//!   afterwards: the front is the earlier of the run's end and its top;
//! * an **overflow** map, revolution → unsorted `Vec`, for events beyond the
//!   wheel's revolution, dealt onto the wheel when it turns over to theirs
//!   (each event is dealt at most once).
//!
//! Pop order is the total order on `(time, key)`.  Callers hand every event a
//! unique, monotonically assigned key, which makes ties at equal timestamps
//! pop in FIFO order — the determinism contract the simulator's reports are
//! built on.  The key type is generic; the simulator keys events by its
//! global sequence number.
//!
//! [Brown 1988]: "Calendar Queues: A Fast O(1) Priority Queue Implementation
//! for the Simulation Event Set Problem", CACM 31(10).

use crate::time::SimTime;
use std::collections::{BTreeMap, BinaryHeap};

/// Default bucket width: 512 µs spans the LAN-latency scale, so consecutive
/// deliveries land in neighbouring buckets instead of piling into one.
const DEFAULT_BUCKET_WIDTH_US: u64 = 512;

/// Default wheel size: 128 buckets × 512 µs ≈ a 65 ms revolution, wide
/// enough that a WAN-latency delivery (40 ms) is at most one turn away;
/// only long timers and failure-plan events wait many turns in overflow.
const DEFAULT_SLOTS: usize = 128;

/// One queued event.  Ordering ignores the value entirely: the total order is
/// `(time, key)`, and keys are unique by contract.  It is *reversed* — the
/// earliest entry is the greatest — so the standard max-heap keeps the next
/// event on top.
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
        (other.at, &other.key).cmp(&(self.at, &self.key))
    }
}

/// A calendar queue ordered by `(time, key)`.
///
/// Keys must be unique across live entries; the caller assigns them (the
/// simulator uses a monotone sequence number, so equal-time events pop in
/// insertion order).
#[derive(Debug, Clone)]
pub struct CalendarQueue<K, V> {
    /// The wheel: slot `b - rev_start` holds, unsorted, exactly the events
    /// whose bucket number `b = time / bucket_width` lies after `cur_bucket`
    /// and inside the revolution that starts at `rev_start`.
    slots: Vec<Vec<Entry<K, V>>>,
    /// The bucket `cur_bucket` as it stood when its turn came, sorted with
    /// the earliest entry last.
    run: Vec<Entry<K, V>>,
    /// Every event pushed at or before `cur_bucket` since.  `run` and `late`
    /// are not both empty while the queue is not, so the earlier of the
    /// run's end and the heap's top is the front of the whole queue.
    late: BinaryHeap<Entry<K, V>>,
    /// Events in later revolutions, by revolution number (`bucket / slots`).
    overflow: BTreeMap<u64, Vec<Entry<K, V>>>,
    /// The bucket being drained.
    cur_bucket: u64,
    /// First bucket of the wheel's revolution (a multiple of `slots.len()`).
    rev_start: u64,
    bucket_width: u64,
    len: usize,
}

impl<K: Ord + Copy, V> CalendarQueue<K, V> {
    /// An empty queue with the default geometry.
    pub fn new() -> Self {
        Self::with_geometry(DEFAULT_BUCKET_WIDTH_US, DEFAULT_SLOTS)
    }

    /// An empty queue with `slots` buckets of `bucket_width_us` microseconds.
    /// Exposed so tests can force tiny wheels and exercise wrap/migration.
    pub fn with_geometry(bucket_width_us: u64, slots: usize) -> Self {
        CalendarQueue {
            slots: (0..slots.max(1)).map(|_| Vec::new()).collect(),
            run: Vec::new(),
            late: BinaryHeap::new(),
            overflow: BTreeMap::new(),
            cur_bucket: 0,
            rev_start: 0,
            bucket_width: bucket_width_us.max(1),
            len: 0,
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
        // `Entry`'s order is reversed: of the run's end and the heap's top
        // the earlier is the greater, and an empty side (`None`) is least.
        let front = self.late.peek().max(self.run.last());
        front.map(|e| (e.at, e.key))
    }

    /// Bucket number of a timestamp (`SimTime(u64::MAX)` alarms included:
    /// dividing only shrinks).
    fn bucket_of(&self, at: SimTime) -> u64 {
        at.micros() / self.bucket_width
    }

    /// Inserts an event.  `key` must be unique among live entries; events
    /// earlier than an already-popped timestamp are accepted (they pop next).
    pub fn push(&mut self, at: SimTime, key: K, value: V) {
        let entry = Entry { at, key, value };
        let bucket = self.bucket_of(at);
        let n = self.slots.len() as u64;
        if self.len == 0 {
            // Nothing is queued: turn the wheel straight to this event.
            self.cur_bucket = bucket;
            self.rev_start = bucket - bucket % n;
            self.run.push(entry);
        } else if bucket <= self.cur_bucket {
            self.late.push(entry);
        } else if bucket - self.rev_start < n {
            self.slots[(bucket - self.rev_start) as usize].push(entry);
        } else {
            self.overflow.entry(bucket / n).or_default().push(entry);
        }
        self.len += 1;
    }

    /// Removes and returns the minimum event as `(time, key, value)`.
    pub fn pop(&mut self) -> Option<(SimTime, K, V)> {
        let entry = if self.late.peek() > self.run.last() {
            self.late.pop()
        } else {
            self.run.pop()
        }?;
        self.len -= 1;
        if self.run.is_empty() && self.late.is_empty() && self.len > 0 {
            self.advance();
        }
        Some((entry.at, entry.key, entry.value))
    }

    /// Makes the next non-empty bucket the current one, turning the wheel
    /// over to the next revolution that holds anything when this one is
    /// spent.  Requires a drained `run` and `late`, and `len > 0`.
    fn advance(&mut self) {
        let mut from = (self.cur_bucket - self.rev_start) as usize + 1;
        loop {
            if let Some(i) = (from..self.slots.len()).find(|&i| !self.slots[i].is_empty()) {
                self.cur_bucket = self.rev_start + i as u64;
                // The slot keeps the drained run's buffer for its next turn:
                // no allocation per bucket once the wheel has been round.
                std::mem::swap(&mut self.run, &mut self.slots[i]);
                self.run.sort_unstable();
                return;
            }
            let (rev, far) = self
                .overflow
                .pop_first()
                .expect("len > 0 and the wheel is empty");
            self.rev_start = rev * self.slots.len() as u64;
            for entry in far {
                let slot = (self.bucket_of(entry.at) - self.rev_start) as usize;
                self.slots[slot].push(entry);
            }
            from = 0;
        }
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
