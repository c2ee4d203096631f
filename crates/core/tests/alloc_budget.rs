//! Allocation budgets for the wire path and the meet dispatch.
//!
//! Wall-clock is too noisy to gate in CI, but a deterministic program does a
//! deterministic amount of work: these tests count heap allocations made by
//! the calling thread through a counting global allocator and pin the
//! properties the arena-backed [`Folder`] and the borrowed dispatch
//! environment exist for — one allocation per encode, O(folders) rather than
//! O(elements) per decode, none for a folder whose wire image fits in place
//! or for a warm dispatch's outbox, no per-meet work proportional to the
//! number of sites, and none at all inside a warm `SimNet::send` + `step`;
//! one buffer and one box for identical sends in flight, one per sender
//! when two senders interleave their repeats, a burst's calendar buffers
//! given back once drained, and nothing but
//! the folder's growth for a repeated flood delivery; and a ceiling on what
//! the TacoScript interpreter allocates per loop iteration.
//! This file
//! is the workspace's one use of `unsafe` outside the benchmark, which the
//! allocator trait requires.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use tacoma_core::codec::{self, MeetRequest};
use tacoma_core::prelude::*;
use tacoma_net::{
    CalendarQueue, Event, LinkSpec, SendOptions, SimNet, SimTime, Topology, TransportKind,
};
use tacoma_script::{Interp, NullHost};
use tacoma_util::Name;

thread_local! {
    /// `(allocations, bytes)` requested by this thread.  Per thread, so the
    /// test harness's other threads cannot disturb a count.
    static COUNTS: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
    /// Bytes this thread has allocated and not freed.
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

struct Counting;

impl Counting {
    fn record(bytes: usize) {
        // `try_with`: the allocator also runs while a thread is torn down.
        let _ = COUNTS.try_with(|c| {
            let (n, b) = c.get();
            c.set((n + 1, b + bytes as u64));
        });
    }

    fn live(grown: usize, freed: usize) {
        let _ = LIVE.try_with(|live| live.set(live.get() + grown as i64 - freed as i64));
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counting touches only a
// const-initialised thread-local `Cell` and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::record(layout.size());
        Self::live(layout.size(), 0);
        // SAFETY: the caller's obligations are passed through as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::record(layout.size());
        Self::live(layout.size(), 0);
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::record(new_size);
        Self::live(new_size, layout.size());
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        Self::live(0, layout.size());
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Runs `f` and returns its result with the `(allocations, bytes)` it made.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    let (n0, b0) = COUNTS.with(Cell::get);
    let out = f();
    let (n1, b1) = COUNTS.with(Cell::get);
    (out, n1 - n0, b1 - b0)
}

/// Runs `f` and returns its result with the bytes it left allocated.
fn held<T>(f: impl FnOnce() -> T) -> (T, i64) {
    let before = LIVE.with(Cell::get);
    let out = f();
    (out, LIVE.with(Cell::get) - before)
}

/// A mail-shaped request: one addressing folder and a BODY of 64-byte lines.
fn mail(lines: usize) -> MeetRequest {
    let mut bc = Briefcase::new();
    bc.put_string("TO", "u17");
    let body = bc.folder_mut("BODY");
    for i in 0..lines {
        body.push_bytes(&[i as u8; 64]);
    }
    MeetRequest {
        contact: AgentName::new("mailroom"),
        sender: AgentId(9),
        origin: SiteId(2),
        briefcase: bc,
    }
}

#[test]
fn encode_allocates_once() {
    for lines in [0, 1, 1_000] {
        let req = mail(lines);
        let (bytes, allocs, alloc_bytes) = counted(|| codec::encode_meet_request(&req));
        assert_eq!(allocs, 1, "{lines} lines");
        assert_eq!(alloc_bytes, bytes.len() as u64, "{lines} lines");
    }
}

#[test]
fn encoded_len_and_wire_size_allocate_nothing() {
    let req = mail(1_000);
    let (len, allocs, _) = counted(|| codec::meet_request_encoded_len(&req));
    assert_eq!((len, allocs), (codec::encode_meet_request(&req).len(), 0));
    let (_, allocs, _) = counted(|| req.briefcase.wire_size());
    assert_eq!(allocs, 0);
}

#[test]
fn decode_allocations_do_not_grow_with_elements() {
    let small = codec::encode_meet_request(&mail(10));
    let large = codec::encode_meet_request(&mail(1_000));
    let (req, small_allocs, _) = counted(|| codec::decode_meet_request(&small));
    assert_eq!(req.unwrap(), mail(10));
    let (req, large_allocs, large_bytes) = counted(|| codec::decode_meet_request(&large));
    assert_eq!(req.unwrap(), mail(1_000));
    // The folder vector, and the arena and offsets of the body: the short
    // `TO` folder and both names are stored in place.
    assert_eq!(large_allocs, 3);
    assert_eq!(large_allocs, small_allocs);
    // Exact reservations: per line its payload, its length prefix in the
    // arena and four bytes of offset, and small change for the names and
    // the vector — not the doubling growth of a thousand pushes.
    assert!(
        large_bytes <= 1_000 * (64 + 8) + 1_024,
        "{large_bytes} bytes for a 64 000-byte body"
    );
}

#[test]
fn hostile_element_count_reserves_nothing() {
    let mut buf = u32::MAX.to_le_bytes().to_vec();
    buf.extend_from_slice(&[0; 8]);
    let (out, _, bytes) = counted(|| codec::decode_folder(&buf));
    assert!(out.is_err());
    assert!(bytes < 1_024, "{bytes} bytes for a 12-byte input");
    // The same claim about folders: a briefcase, alone and in a request.
    let (out, _, bytes) = counted(|| codec::decode_briefcase(&buf));
    assert!(out.is_err());
    assert!(bytes < 1_024, "{bytes} bytes for a 12-byte briefcase");
    let mut req = codec::encode_meet_request(&mail(0));
    let at = req.len() - codec::briefcase_encoded_len(&mail(0).briefcase);
    req[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
    let (out, _, bytes) = counted(|| codec::decode_meet_request(&req));
    assert!(out.is_err());
    assert!(
        bytes < 1_024,
        "{bytes} bytes for a {}-byte request",
        req.len()
    );
    // The owned path, which the kernel takes, runs the same parser.
    let owned = req.clone();
    let (out, _, bytes) = counted(|| codec::decode_meet_request_owned(owned));
    assert!(out.is_err());
    assert!(bytes < 1_024, "{bytes} bytes on the owned path");
}

#[test]
fn a_well_known_name_costs_nothing() {
    let (_, allocs, _) = counted(|| AgentName::new("echo"));
    assert_eq!(allocs, 0, "a literal agent name");
    let (mut bc, allocs, _) = counted(Briefcase::new);
    assert_eq!(allocs, 0, "an empty briefcase");
    bc.put_u64("FIRST", 1);
    // The vector has room to spare and a `u64` folder is held in place.
    let ((), allocs, bytes) = counted(|| bc.put_u64("HOPS", 12));
    assert_eq!((allocs, bytes), (0, 0), "a literal folder name");
}

#[test]
fn a_folder_image_of_up_to_47_bytes_is_held_in_place() {
    // The image counts each element's 4-byte prefix: one element of 43
    // bytes is 47, the most a folder holds without a heap block.
    for (payload, want) in [(43, 0), (44, 1)] {
        let elem = vec![7; payload];
        let (folder, allocs, _) = counted(|| Folder::single(&elem));
        assert_eq!(allocs, want, "a pushed {}-byte image", payload + 4);
        let wire = codec::encode_folder(&folder);
        let (decoded, allocs, bytes) = counted(|| codec::decode_folder(&wire).unwrap());
        assert_eq!(decoded, folder);
        assert_eq!((allocs, bytes), (want, want * (payload as u64 + 4)));
    }
    // Eleven empty elements are 44 bytes of prefixes; the twelfth moves
    // them to the heap, in one block.
    let mut folder = Folder::new();
    let ((), allocs, _) = counted(|| (0..11).for_each(|_| folder.push_bytes(b"")));
    assert_eq!(allocs, 0);
    let ((), allocs, _) = counted(|| folder.push_bytes(b""));
    assert_eq!((allocs, folder.len()), (2, 12), "the arena and its offsets");
}

#[test]
fn an_existing_cabinet_is_reached_without_allocating() {
    let mut store = tacoma_core::CabinetStore::new();
    let (_, allocs, _) = counted(|| store.cabinet("bulletins").is_empty());
    assert!(allocs > 0, "creating a cabinet copies its name");
    let (_, allocs, _) = counted(|| store.cabinet("bulletins").is_empty());
    assert_eq!(allocs, 0, "an access to an existing cabinet");
}

/// Completes every meet with the briefcase it was handed.
struct Echo;

impl Agent for Echo {
    fn name(&self) -> AgentName {
        AgentName::new("echo")
    }

    fn meet(&mut self, _ctx: &mut MeetCtx<'_>, bc: Briefcase) -> MeetOutcome {
        Ok(bc)
    }
}

#[test]
fn a_remote_three_folder_meet_fits_its_budget() {
    // `flood_mesh`'s request: three one-element folders under literal names.
    // Building it, inject -> launch (encode) -> send -> step -> decode ->
    // dispatch: the path every remote meet takes, warm.
    let mut sys = TacomaSystem::new(Topology::ring(4, LinkSpec::default()), 7);
    sys.register_agent(SiteId(0), Box::new(Echo));
    let one_meet = |sys: &mut TacomaSystem| {
        let mut bc = Briefcase::new();
        bc.put_string("MSG_ID", "m-000001");
        bc.put_string("MESSAGE", "sixteen byte msg");
        bc.put_u64("HOPS", 12);
        sys.inject_meet(SiteId(0), AgentName::new("echo"), bc);
        sys.run_until_quiescent(100)
    };
    for _ in 0..3 {
        assert_eq!(one_meet(&mut sys), 1);
    }
    let (events, allocs, _) = counted(|| one_meet(&mut sys));
    assert_eq!(events, 1);
    // The folder vector to build it, one buffer to encode it and the
    // vector to decode it: names and folders this small are held in place,
    // and the kernel's outbox is reused.  No folder is half the request, so
    // none lends or keeps the buffer.
    assert_eq!(allocs, 3);
}

/// Queues one action, whose carrying out allocates nothing, per meet.
struct Quitter;

impl Agent for Quitter {
    fn name(&self) -> AgentName {
        AgentName::new("quitter")
    }

    fn meet(&mut self, ctx: &mut MeetCtx<'_>, bc: Briefcase) -> MeetOutcome {
        ctx.unregister_agent(AgentName::new("nobody"));
        Ok(bc)
    }
}

#[test]
fn a_warm_dispatch_allocates_nothing_for_its_outbox() {
    // The outbox a dispatch queues its action in is the one the previous
    // dispatch drained, so with a briefcase that needs no block either the
    // whole meet allocates nothing.
    let mut sys = TacomaSystem::new(Topology::ring(2, LinkSpec::default()), 7);
    sys.register_agent(SiteId(0), Box::new(Quitter));
    let contact = AgentName::new("quitter");
    let mut one_meet = || {
        sys.try_direct_meet(SiteId(0), &contact, Briefcase::new())
            .expect("the meet completes")
    };
    one_meet();
    let (_, allocs, _) = counted(one_meet);
    assert_eq!(allocs, 0);
}

#[test]
fn a_remote_hop_of_a_large_body_copies_it_at_most_once() {
    // The same path with a 1 000-line mail: the body's arena is lent to the
    // request buffer at the sender and kept as the arena at the receiver.
    // Copied at both ends it would be about two bodies.
    let mut sys = TacomaSystem::new(Topology::ring(4, LinkSpec::default()), 7);
    sys.register_agent(SiteId(0), Box::new(Echo));
    let body = codec::folder_encoded_len(mail(1_000).briefcase.folder("BODY").unwrap());
    for exact in [false, true] {
        let mut bc = mail(1_000).briefcase;
        if exact {
            // A body that arrived in an exact block grows once to take the
            // framing; one built by pushes has room for it already.
            bc = codec::decode_briefcase(&codec::encode_briefcase(&bc)).unwrap();
        }
        let (events, _, bytes) = counted(|| {
            sys.inject_meet(SiteId(0), AgentName::new("echo"), bc);
            sys.run_until_quiescent(100)
        });
        assert_eq!(events, 1);
        assert!(
            bytes * 10 <= body as u64 * 11,
            "{bytes} bytes allocated for a {body}-byte body (exact block: {exact})"
        );
    }
    assert_eq!(sys.stats().meets_completed, 2);
}

#[test]
fn a_short_name_off_the_wire_allocates_nothing() {
    let name = "n".repeat(Name::INLINE);
    let mut bc = Briefcase::new();
    bc.put(name.clone(), Folder::new());
    let req = MeetRequest {
        contact: AgentName::from(name.as_str()),
        sender: AgentId(1),
        origin: SiteId(0),
        briefcase: bc,
    };
    let bytes = codec::encode_meet_request(&req);
    let (decoded, allocs, _) = counted(|| codec::decode_meet_request(&bytes).unwrap());
    assert_eq!(decoded, req);
    // The folder vector is the one block: neither name takes one.
    assert_eq!(allocs, 1);
    let (_, allocs, _) = counted(|| AgentName::from(name.as_str()));
    assert_eq!(allocs, 0, "a {}-byte contact", name.len());
    let longer = format!("{name}!");
    let (_, allocs, _) = counted(|| AgentName::from(longer.as_str()));
    assert_eq!(allocs, 1, "a {}-byte contact is boxed", longer.len());
}

/// Bytes allocated by one local meet (inject, deliver, decode, dispatch) on
/// a ring of `sites`, after an identical meet has warmed the system up.
fn local_meet_bytes(sites: u32) -> u64 {
    let mut sys = TacomaSystem::new(Topology::ring(sites, LinkSpec::default()), 7);
    sys.register_agent(SiteId(0), Box::new(Echo));
    let one_meet = |sys: &mut TacomaSystem| {
        sys.inject_meet(SiteId(0), AgentName::new("echo"), mail(4).briefcase);
        sys.run_until_quiescent(100)
    };
    assert_eq!(one_meet(&mut sys), 1);
    let (events, _, bytes) = counted(|| one_meet(&mut sys));
    assert_eq!(events, 1);
    assert_eq!(sys.stats().meets_completed, 2);
    bytes
}

#[test]
fn a_meet_does_no_work_proportional_to_the_site_count() {
    assert_eq!(local_meet_bytes(16), local_meet_bytes(1_024));
}

/// Sends from `from` to each `(to, hops)` of `targets` in turn, 1 100 sends
/// in all, each stepped to its delivery, and returns the allocations the
/// last 1 000 send + step pairs made.  Payloads are built before the count
/// starts and dropped after it ends, so every allocation counted is the
/// simulator's own: a route copied out of the cache per send, a block tree
/// grown again or a box per message in flight would each show up here.
fn warm_send_and_step_allocations(topology: Topology, from: u32, targets: &[(u32, u32)]) -> u64 {
    let mut net = SimNet::new(topology);
    let mut messages = targets.iter().cycle().take(1_100).map(|&(to, hops)| {
        let opts = SendOptions {
            from: SiteId(from),
            to: SiteId(to),
            payload: vec![to as u8; 256],
            kind: 1,
            transport: TransportKind::Tcp,
            custody: false,
        };
        (opts, hops)
    });
    let mut send_and_step = |(opts, hops): (SendOptions, u32)| {
        net.send(opts).expect("the topology is up");
        match net.step() {
            Some(Event::Message(m)) => assert_eq!(m.hops, hops, "{from} -> {}", m.to),
            other => panic!("expected the delivery, got {other:?}"),
        }
    };
    messages.by_ref().take(100).for_each(&mut send_and_step);
    let measured: Vec<(SendOptions, u32)> = messages.collect();
    let ((), allocs, _) = counted(|| measured.into_iter().for_each(send_and_step));
    allocs
}

#[test]
fn a_warm_send_and_step_allocate_nothing() {
    // 0 -> 3 on a six-ring is three hops.
    let ring = Topology::ring(6, LinkSpec::default());
    assert_eq!(warm_send_and_step_allocations(ring, 0, &[(3, 3)]), 0);
    // Member 3 of clique 0 to a clique neighbour, answered from the link
    // itself, and to member 5 of clique 31, across 31 gateway links and two
    // clique links, from the cache and the block trees behind it.
    let cliques = Topology::ring_of_cliques(64, 8, LinkSpec::lan(), LinkSpec::wan());
    let targets = [(5, 1), (31 * 8 + 5, 33)];
    assert_eq!(warm_send_and_step_allocations(cliques, 3, &targets), 0);
}

/// Sends a 1 000-byte payload from site 0 to each of sites 1 to 4 of a
/// mesh, after the same sends were delivered once, and returns the bytes
/// the four messages in flight hold, payloads included, with the
/// allocations made for them.
fn four_sends_in_flight(payload: impl Fn(u32) -> Vec<u8>) -> (i64, u64) {
    let mut net = SimNet::new(Topology::full_mesh(5, LinkSpec::default()));
    let four = |net: &mut SimNet| {
        for to in 1..=4 {
            let opts = SendOptions {
                from: SiteId(0),
                to: SiteId(to),
                payload: payload(to),
                kind: 1,
                transport: TransportKind::Tcp,
                custody: false,
            };
            net.send(opts).expect("the mesh is up");
        }
    };
    four(&mut net);
    while net.step().is_some() {}
    let (((), allocs, _), live) = held(|| counted(|| four(&mut net)));
    (live, allocs)
}

#[test]
fn identical_sends_in_flight_hold_one_payload_buffer() {
    // A flood's clones: four buffers built, three freed at their send, one
    // small box shared by the four messages.
    let (live, allocs) = four_sends_in_flight(|_| vec![7; 1_000]);
    assert_eq!(allocs, 5);
    assert!((1_000..=1_064).contains(&live), "{live} bytes held");
    // Distinct payloads are the senders' buffers, with nothing added.
    let (live, allocs) = four_sends_in_flight(|to| vec![to as u8; 1_000]);
    assert_eq!((live, allocs), (4_000, 4));
}

#[test]
fn two_senders_interleaving_their_repeats_hold_two_payload_buffers() {
    // Sites 0 and 1 each send their own payload four times, alternating:
    // no send repeats the one just before it, but each repeats its sender's
    // last, so the eight messages hold two buffers and two boxes.
    let mut net = SimNet::new(Topology::full_mesh(5, LinkSpec::default()));
    let eight = |net: &mut SimNet| {
        for to in 2..=5 {
            for from in [0, 1] {
                let opts = SendOptions {
                    from: SiteId(from),
                    to: SiteId((from + to) % 5),
                    payload: vec![from as u8; 1_000],
                    kind: 1,
                    transport: TransportKind::Tcp,
                    custody: false,
                };
                net.send(opts).expect("the mesh is up");
            }
        }
    };
    eight(&mut net);
    while net.step().is_some() {}
    let (((), allocs, _), live) = held(|| counted(|| eight(&mut net)));
    assert_eq!(allocs, 10);
    assert!((2_000..=2_128).contains(&live), "{live} bytes held");
}

#[test]
fn a_drained_burst_gives_its_calendar_buffers_back() {
    // Four flood generations of 100 000 events, each at one instant in a
    // bucket of its own, over 1 000 events standing further out.  Once the
    // generations have drained, what the queue still holds is bounded by
    // its depth: the buffers the bursts grew are freed, not kept idle.
    const DEPTH: u64 = 1_000;
    const BURST: u64 = 100_000;
    let entry = std::mem::size_of::<(SimTime, u64, u64)>() as i64;
    let (q, live) = held(|| {
        // Values are generations: the seed queues the first burst, each
        // event of generations 1 to 3 one of the next, 1 000 µs on.  A
        // second event beside the seed keeps the wheel from turning before
        // the burst is queued, which would put it in the late heap.
        let mut q: CalendarQueue<u64, u64> = CalendarQueue::new();
        q.push(SimTime(0), 0, 0);
        q.push(SimTime(0), 1, u64::MAX);
        for key in 2..DEPTH + 2 {
            q.push(SimTime(50_000), key, u64::MAX);
        }
        let mut key = DEPTH + 2;
        while q.len() as u64 > DEPTH || key == DEPTH + 2 {
            let (at, _, gen) = q.pop().expect("the bursts are queued");
            let next = SimTime(at.micros() + 1_000);
            let copies = match gen {
                0 => BURST,
                1..=3 => 1,
                _ => 0,
            };
            for _ in 0..copies {
                q.push(next, key, gen + 1);
                key += 1;
            }
        }
        q
    });
    assert_eq!(q.len() as u64, DEPTH);
    let wheel = 128 * std::mem::size_of::<Vec<u8>>() as i64;
    assert!(
        live <= 2 * DEPTH as i64 * entry + wheel,
        "{live} bytes held for a depth of {DEPTH}"
    );
}

#[test]
fn a_repeated_flood_delivery_allocates_only_for_its_folders_growth() {
    // The flood agent files `msg_id:payload` in its bulletin on every
    // delivery.  Once the element, the folder and the name are known, a
    // repeat costs what pushing the same element onto a bare folder costs.
    let parts: [&[u8]; 3] = [b"m", b":", b"sixteen byte msg"];
    let mut cabinet = tacoma_core::FileCabinet::new();
    let (_, allocs, _) = counted(|| cabinet.append_parts("BULLETIN", &parts));
    assert!(allocs > 0, "a new name and element are copied");
    let mut folder = cabinet.folder_ref("BULLETIN").expect("filed").clone();
    let repeats = |append: &mut dyn FnMut()| counted(|| (0..1_000).for_each(|_| append()));
    let ((), cabinet_allocs, cabinet_bytes) =
        repeats(&mut || cabinet.append_parts("BULLETIN", &parts));
    let ((), folder_allocs, folder_bytes) = repeats(&mut || folder.push_parts(&parts));
    assert_eq!(
        (cabinet_allocs, cabinet_bytes),
        (folder_allocs, folder_bytes)
    );
    assert!(cabinet_allocs < 40, "{cabinet_allocs} allocations");
    assert_eq!(cabinet.folder_ref("BULLETIN"), Some(&folder));
}

/// The `(allocations, bytes)` of one `Interp::run` of a loop of `n`
/// iterations on a host that does nothing.
fn counted_loop(n: u32) -> (u64, u64) {
    let src = format!("set i 0; while {{$i < {n}}} {{incr i}}");
    let mut host = NullHost;
    let (outcome, allocs, bytes) = counted(|| Interp::new(&mut host).run(&src));
    assert_eq!(outcome.expect("the loop runs").result, "");
    (allocs, bytes)
}

/// What one loop iteration costs the interpreter, read as the difference of
/// two runs that differ only in their iteration count, in tenths of an
/// allocation (the counter's growth to four digits costs one allocation
/// once).  The interpreter parses the body and reads the condition text
/// again on every iteration (ROADMAP item 2): 19.0 allocations and 1 130
/// bytes an iteration when this ceiling was set.  Walking the parsed tree
/// states its gain against this number, which no benchmark repetition
/// count can move.
#[test]
fn a_loop_iteration_fits_the_interpreters_budget() {
    let (allocs_100, bytes_100) = counted_loop(100);
    let (allocs_1100, bytes_1100) = counted_loop(1_100);
    let (allocs, bytes) = (allocs_1100 - allocs_100, bytes_1100 - bytes_100);
    let tenths = (allocs + 50) / 100;
    assert!(
        tenths <= 190,
        "{allocs} allocations and {bytes} bytes in 1 000 iterations"
    );
}
