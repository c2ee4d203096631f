//! Property tests pitting [`CalendarQueue`] against a plain `BinaryHeap`
//! reference model.
//!
//! The simulator's determinism contract hangs on the queue popping the exact
//! total order on `(time, key)` — including FIFO order at equal timestamps,
//! which callers get by assigning keys from a monotone sequence counter.  The
//! tests below replay random interleaved push/pop traces against a model heap
//! and demand identical `(time, key, value)` streams, over random (often
//! degenerate) wheel geometries so bucket wrap, overflow migration, and late
//! pushes all get exercised.
//!
//! Beside them, [`work_is_bounded_on_hostile_shapes`] counts the comparisons
//! the queue makes on four agendas built to make a bucketed structure do
//! quadratic work, and holds each to `4 · n · log₂ n`;
//! [`a_generation_at_one_instant_drains_in_linear_work`] holds the shape a
//! flood makes — a bucket pushed in pop order — to `4 · n`.

use proptest::prelude::*;
use std::cell::Cell;
use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;
use tacoma_net::calendar::CalendarQueue;
use tacoma_net::time::SimTime;

/// The reference model: a binary heap over the same `(time, key, value)`
/// triples, ordered the way the simulator needs — `(time, key)` ascending.
#[derive(Default)]
struct ModelHeap {
    heap: BinaryHeap<Reverse<(SimTime, u64, u32)>>,
}

impl ModelHeap {
    fn push(&mut self, at: SimTime, key: u64, value: u32) {
        self.heap.push(Reverse((at, key, value)));
    }

    fn pop(&mut self) -> Option<(SimTime, u64, u32)> {
        self.heap.pop().map(|Reverse(e)| e)
    }

    fn peek(&self) -> Option<(SimTime, u64)> {
        self.heap.peek().map(|&Reverse((at, key, _))| (at, key))
    }
}

proptest! {
    /// Interleaved pushes and pops agree with the model heap step by step:
    /// same pops, same peeks, same lengths, on an arbitrary small geometry.
    #[test]
    fn interleaved_trace_matches_binary_heap(
        bucket_width in 1u64..900,
        slots in 1usize..48,
        // Up to 150 ms: over three revolutions of the widest wheel generated
        // (900 µs × 48 slots), so traces cross turn-overs, not just buckets.
        ops in proptest::collection::vec((any::<bool>(), 0u64..150_000), 1..300),
    ) {
        let mut queue = CalendarQueue::with_geometry(bucket_width, slots);
        let mut model = ModelHeap::default();
        let mut seq = 0u64;
        for &(is_pop, time) in &ops {
            if is_pop {
                let got = queue.pop();
                let want = model.pop();
                prop_assert_eq!(got, want);
            } else {
                // Keys are assigned monotonically, exactly as the simulator
                // does — this is what makes (time, key) order equal FIFO
                // order at equal timestamps.
                queue.push(SimTime(time), seq, seq as u32);
                model.push(SimTime(time), seq, seq as u32);
                seq += 1;
            }
            prop_assert_eq!(queue.peek(), model.peek());
            prop_assert_eq!(queue.len(), model.heap.len());
            prop_assert_eq!(queue.is_empty(), model.heap.is_empty());
        }
        // Drain whatever is left and require identical tails.
        loop {
            let got = queue.pop();
            let want = model.pop();
            prop_assert_eq!(got, want);
            if want.is_none() {
                break;
            }
        }
    }

    /// Equal-timestamp events pop in insertion (FIFO) order: drain order is
    /// exactly the push order after a stable sort on time alone.
    #[test]
    fn equal_timestamps_pop_fifo(
        bucket_width in 1u64..300,
        slots in 1usize..16,
        // Few distinct timestamps over many events forces heavy collisions.
        times in proptest::collection::vec(0u64..8, 1..120),
    ) {
        let mut queue = CalendarQueue::with_geometry(bucket_width, slots);
        for (i, &t) in times.iter().enumerate() {
            queue.push(SimTime(t * 1_000), i as u64, i as u32);
        }
        let mut expected: Vec<(u64, usize)> =
            times.iter().map(|&t| t * 1_000).zip(0..).collect();
        // Stable sort: ties keep insertion order — the FIFO contract.
        expected.sort_by_key(|&(t, _)| t);
        let mut drained = Vec::new();
        while let Some((at, key, value)) = queue.pop() {
            prop_assert_eq!(key as u32, value);
            drained.push((at.micros(), key as usize));
        }
        prop_assert_eq!(drained, expected);
    }

    /// Pushes earlier than an already-popped timestamp (the conservative
    /// engine never emits these, but `SimNet` clients may) still pop first,
    /// in agreement with the model.
    #[test]
    fn late_pushes_agree_with_the_model(
        bucket_width in 1u64..200,
        slots in 1usize..8,
        rounds in proptest::collection::vec((0u64..500, 0u64..500), 1..60),
    ) {
        let mut queue = CalendarQueue::with_geometry(bucket_width, slots);
        let mut model = ModelHeap::default();
        let mut seq = 0u64;
        for &(a, b) in &rounds {
            // Push one "future" event, pop the front, then push an event
            // that may land before the popped time.
            queue.push(SimTime(a + 500), seq, 0);
            model.push(SimTime(a + 500), seq, 0);
            seq += 1;
            prop_assert_eq!(queue.pop(), model.pop());
            queue.push(SimTime(b), seq, 1);
            model.push(SimTime(b), seq, 1);
            seq += 1;
            prop_assert_eq!(queue.peek(), model.peek());
        }
        loop {
            let got = queue.pop();
            let want = model.pop();
            prop_assert_eq!(got, want);
            if want.is_none() {
                break;
            }
        }
    }
}

proptest! {
    /// The bucket being drained is a sorted run and everything pushed at or
    /// before it afterwards sits in the one heap, so the front is the
    /// earlier of two candidates.  Half-drain a bucket, then interleave pops
    /// with pushes before it (late), at the front's own instant (equal
    /// time), inside it and beyond it: `peek` names what `pop` returns, and
    /// both agree with the model, at every step.
    #[test]
    fn pushes_around_a_half_drained_bucket_agree_with_the_model(
        bucket_width in 1u64..200,
        slots in 1usize..8,
        bucket in proptest::collection::vec(0u64..200, 2..80),
        ops in proptest::collection::vec((0u8..5, 0u64..1_000), 1..200),
    ) {
        let mut queue = CalendarQueue::with_geometry(bucket_width, slots);
        let mut model = ModelHeap::default();
        let mut seq = 0u64;
        let mut push = |queue: &mut CalendarQueue<u64, u32>, model: &mut ModelHeap, at: u64| {
            queue.push(SimTime(at), seq, seq as u32);
            model.push(SimTime(at), seq, seq as u32);
            seq += 1;
        };
        // An anchor, so the bucket three widths on is filled while it is
        // still ahead of the clock: unsorted until the anchor is popped.
        let base = 3 * bucket_width;
        push(&mut queue, &mut model, 0);
        for &offset in &bucket {
            push(&mut queue, &mut model, base + offset % bucket_width);
        }
        for _ in 0..1 + bucket.len() / 2 {
            prop_assert_eq!(queue.peek(), model.peek());
            prop_assert_eq!(queue.pop(), model.pop());
        }
        for &(op, x) in &ops {
            let front = queue.peek();
            prop_assert_eq!(front, model.peek());
            match (op, front) {
                (0 | 1, _) => {
                    let popped = queue.pop();
                    prop_assert_eq!(popped.map(|(at, key, _)| (at, key)), front);
                    prop_assert_eq!(popped, model.pop());
                }
                (2, _) => push(&mut queue, &mut model, x % base),
                (3, Some((at, _))) => push(&mut queue, &mut model, at.micros()),
                (3, None) => push(&mut queue, &mut model, base),
                _ => push(&mut queue, &mut model, base + x),
            }
            prop_assert_eq!(queue.len(), model.heap.len());
        }
        loop {
            prop_assert_eq!(queue.peek(), model.peek());
            let got = queue.pop();
            let want = model.pop();
            prop_assert_eq!(got, want);
            if want.is_none() {
                break;
            }
        }
    }
}

thread_local! {
    /// Key comparisons made on this thread.
    static COMPARISONS: Cell<u64> = const { Cell::new(0) };
}

/// A key that counts every comparison made on it: an event's exact time and
/// its push number.  The queue compares timestamps first and keys only on a
/// tie, so the shapes below stamp events with their *bucket's* start time
/// and leave the exact time to the key: every comparison of two events of
/// one bucket — the ordering work a calendar queue is built to confine
/// itself to — falls through to [`Ord::cmp`] here, while the pop order stays
/// `(exact time, push number)`.  (A comparison of events of different
/// buckets is settled by the timestamps and not seen.)
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct CountedKey(u64, u64);

impl Ord for CountedKey {
    fn cmp(&self, other: &Self) -> Ordering {
        COMPARISONS.with(|c| c.set(c.get() + 1));
        (self.0, self.1).cmp(&(other.0, other.1))
    }
}

impl PartialOrd for CountedKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// The default geometry, spelled out so the shapes can aim at it.
const WIDTH_US: u64 = 512;
const SLOTS: u64 = 128;
const REVOLUTION_US: u64 = WIDTH_US * SLOTS;

/// Pushes `armed` (exact times, in the order given), then pops to empty,
/// pushing `follow(popped time)` after each pop.  Checks the pop stream is
/// the sorted stream of everything pushed and returns `(events, comparisons)`.
fn drive(armed: &[u64], mut follow: impl FnMut(u64, &mut Vec<u64>)) -> (u64, u64) {
    let mut queue = CalendarQueue::with_geometry(WIDTH_US, SLOTS as usize);
    let mut pushed = Vec::new();
    let mut push = |queue: &mut CalendarQueue<CountedKey, ()>, exact: u64| {
        let key = CountedKey(exact, pushed.len() as u64);
        pushed.push(key);
        queue.push(SimTime(exact - exact % WIDTH_US), key, ());
    };
    COMPARISONS.with(|c| c.set(0));
    for &exact in armed {
        push(&mut queue, exact);
    }
    let mut popped = Vec::new();
    let mut next = Vec::new();
    while let Some((_, key, ())) = queue.pop() {
        popped.push(key);
        follow(key.0, &mut next);
        for exact in next.drain(..) {
            push(&mut queue, exact);
        }
    }
    let comparisons = COMPARISONS.with(Cell::get);
    pushed.sort_unstable_by_key(|key| (key.0, key.1));
    assert!(popped == pushed, "pop order is not the sorted input");
    (pushed.len() as u64, comparisons)
}

#[test]
fn work_is_bounded_on_hostile_shapes() {
    const N: u64 = 20_000;
    let nothing = |_: u64, _: &mut Vec<u64>| {};
    // 1. Strictly descending times into an empty queue, a bucket's worth
    //    (512) per bucket: every push lands before everything queued.
    let descending: Vec<u64> = (0..N).rev().collect();
    // 2. Everything in one bucket, in a scrambled order.
    let one_bucket: Vec<u64> = (0..N)
        .map(|i| 7 * WIDTH_US + i * 7_919 % WIDTH_US)
        .collect();
    // 3. One event per revolution, the last at the end of time.
    let step = (u64::MAX - REVOLUTION_US) / (N - 1);
    let mut sparse: Vec<u64> = (0..N).map(|i| i * step).collect();
    *sparse.last_mut().unwrap() = u64::MAX;
    // 4. The gossip shape: a third of the events armed up front, site by
    //    site (so out of time order) across three revolutions; each one
    //    popped pushes two deliveries 0.5–1.5 ms ahead, which push nothing.
    //    Timers sit on even microseconds and deliveries on odd ones.
    let (timers, rounds) = (N / 3, 24);
    let armed: Vec<u64> = (0..timers)
        .map(|i| {
            let (site, round) = (i / rounds, i % rounds);
            (round * (3 * REVOLUTION_US / rounds) + site * 2_654_435_761 % 8_192) & !1
        })
        .collect();
    let mut sent = 0;
    let gossip = |at: u64, next: &mut Vec<u64>| {
        if at & 1 == 0 {
            for _ in 0..2 {
                sent += 1;
                next.push((at + 500 + sent * 7_919 % 1_000) | 1);
            }
        }
    };

    let shapes: [(&str, (u64, u64)); 4] = [
        ("descending", drive(&descending, nothing)),
        ("one bucket", drive(&one_bucket, nothing)),
        ("one per revolution", drive(&sparse, nothing)),
        ("gossip", drive(&armed, gossip)),
    ];
    for (shape, (events, comparisons)) in shapes {
        assert!(events >= N - 2, "{shape}: {events} events");
        let budget = 4.0 * events as f64 * (events as f64).log2();
        assert!(
            (comparisons as f64) <= budget,
            "{shape}: {comparisons} comparisons for {events} events (budget {budget:.0})"
        );
    }
}

#[test]
fn a_generation_at_one_instant_drains_in_linear_work() {
    // What a flood does to the queue: while one generation is being
    // handled (two events here, so the clock's bucket is still occupied), the
    // next is pushed for one later instant, in key order — which is pop
    // order.  The bucket arrives sorted, so taking it must cost a pass over
    // it, not a heap's `log n` per pop.
    const N: u64 = 65_536;
    let instant = 7 * WIDTH_US + 3;
    let mut pushed = false;
    let generation = |_: u64, next: &mut Vec<u64>| {
        if !std::mem::replace(&mut pushed, true) {
            next.extend((0..N).map(|_| instant));
        }
    };
    let (events, comparisons) = drive(&[0, 0], generation);
    assert_eq!(events, N + 2);
    assert!(
        comparisons <= 4 * N,
        "{comparisons} comparisons to drain {N} events pushed in pop order"
    );
}
