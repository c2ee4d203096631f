//! Property-based tests over the core data structures and protocols.

use proptest::prelude::*;
use tacoma::cash::Mint;
use tacoma::core::codec;
use tacoma::core::{Briefcase, FileCabinet, Folder};
use tacoma::script::{parse_script, Interp, NullHost, RecordingHost};

/// What the meet request codec properties feed the decoders: byte `soup`,
/// the same soup behind a valid version byte, a valid request of `folders`
/// and a `bulk` folder with `hits` overwritten, and that request unmutated,
/// with its folder count and with its first folder's element count set to
/// `u32::MAX`.  The bulk folder is often more than half of the request.
fn hostile_requests(
    soup: &[u8],
    folders: &std::collections::BTreeMap<String, Vec<Vec<u8>>>,
    bulk: &[Vec<u8>],
    hits: &[(u16, u8)],
) -> Vec<Vec<u8>> {
    let mut bc = Briefcase::new();
    for (name, elems) in folders {
        bc.put(name.clone(), Folder::from_elems(elems.clone()));
    }
    bc.put("BULK", Folder::from_elems(bulk.iter().cloned()));
    let valid = codec::encode_meet_request(&codec::MeetRequest {
        contact: tacoma::util::AgentName::new("ag"),
        sender: tacoma::util::AgentId(7),
        origin: tacoma::util::SiteId(1),
        briefcase: bc,
    });
    let mut mutated = valid.clone();
    for &(at, byte) in hits {
        let at = at as usize % mutated.len();
        mutated[at] = byte;
    }
    let mut versioned = soup.to_vec();
    if let Some(first) = versioned.first_mut() {
        *first = 1;
    }
    // Version, contact "ag", sender and origin come before the folder
    // count; the first folder's name comes before its element count.
    let folder_count = 1 + 4 + 2 + 8 + 4;
    let first_name = u32::from_le_bytes(valid[folder_count + 4..][..4].try_into().unwrap());
    let element_count = folder_count + 8 + first_name as usize;
    let hostile = |at: usize| {
        let mut bytes = valid.clone();
        bytes[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        bytes
    };
    let (folders_claimed, elements_claimed) = (hostile(folder_count), hostile(element_count));
    vec![
        soup.to_vec(),
        versioned,
        mutated,
        valid,
        folders_claimed,
        elements_claimed,
    ]
}

/// Whole lines of a hostile `.audit` manifest, most of them well formed so
/// that a manifest reaches its later lines: every directive, a duplicate
/// agent, site counts out of range, a missing script and one that is not
/// a script, a wrong arity, a misspelt directive, comments.
const MANIFEST_LINES: &[&str] = &[
    "sites 4",
    "agent hop hop_counter.taco",
    "agent tour quickstart_tour.taco   # trailing comment",
    "native storm_expert",
    "inject HOPS ITINERARY A B C",
    "deliver TALLY SUMMARY",
    "# a comment",
    "",
    "\t ",
    "sites -1",
    "sites 99999999999",
    "agent ghost missing.taco",
    "agent fleet fleet.audit",
    "native a b",
    "inject",
    "site 4",
];

/// Words for directive soup: every directive, a misspelt one, site counts,
/// script paths, a folder name and comment marks.
const MANIFEST_WORDS: &[&str] = &[
    "sites",
    "agent",
    "native",
    "inject",
    "deliver",
    "site",
    "4",
    "-1",
    "hop_counter.taco",
    "missing.taco",
    "HOPS",
    "#",
];

/// The line number an `.audit` manifest error names after `label:`.
fn manifest_error_line(error: &str, label: &str) -> Option<usize> {
    let rest = error.strip_prefix(label)?.strip_prefix(':')?;
    rest.split_once(':')?.0.parse().ok()
}

proptest! {
    /// Folders behave as a stack: pushing then popping returns elements in
    /// reverse order and leaves the folder empty.
    #[test]
    fn folder_stack_law(elems in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..64), 0..32)) {
        let mut folder = Folder::new();
        for e in &elems {
            folder.push(e.clone());
        }
        prop_assert_eq!(folder.len(), elems.len());
        let mut popped = Vec::new();
        while let Some(e) = folder.pop() {
            popped.push(e);
        }
        popped.reverse();
        prop_assert_eq!(popped, elems);
        prop_assert!(folder.is_empty());
    }

    /// Folders behave as a queue: dequeue order equals enqueue order.
    #[test]
    fn folder_queue_law(elems in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..64), 0..32)) {
        let mut folder = Folder::new();
        for e in &elems {
            folder.enqueue(e.clone());
        }
        let mut dequeued = Vec::new();
        while let Some(e) = folder.dequeue() {
            dequeued.push(e);
        }
        prop_assert_eq!(dequeued, elems);
    }

    /// Briefcase wire encoding round-trips arbitrary folder contents exactly.
    #[test]
    fn briefcase_codec_round_trip(
        folders in proptest::collection::btree_map(
            "[A-Za-z_][A-Za-z0-9_]{0,12}",
            proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..48), 0..8),
            0..8,
        )
    ) {
        let mut bc = Briefcase::new();
        for (name, elems) in &folders {
            bc.put(name.clone(), Folder::from_elems(elems.clone()));
        }
        let encoded = codec::encode_briefcase(&bc);
        let decoded = codec::decode_briefcase(&encoded).expect("decode");
        prop_assert_eq!(decoded, bc);
    }

    /// The codec never panics on arbitrary byte soup and never silently
    /// accepts trailing garbage after a valid briefcase.
    #[test]
    fn briefcase_codec_is_total(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = codec::decode_briefcase(&bytes);
        let mut valid = codec::encode_briefcase(&Briefcase::new());
        valid.extend_from_slice(&bytes);
        if !bytes.is_empty() {
            prop_assert!(codec::decode_briefcase(&valid).is_err());
        }
    }

    /// Briefcases with boundary-sized elements — empty elements, an element
    /// at the generator's maximum length, and an empty folder alongside the
    /// randomized contents — round-trip exactly.
    #[test]
    fn briefcase_codec_round_trips_boundary_elements(
        folders in proptest::collection::btree_map(
            "[A-Za-z_][A-Za-z0-9_]{0,12}",
            proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..48), 0..8),
            0..8,
        ),
        fill in any::<u8>(),
    ) {
        const MAX_ELEM: usize = 4096;
        let mut bc = Briefcase::new();
        for (name, elems) in &folders {
            bc.put(name.clone(), Folder::from_elems(elems.clone()));
        }
        // Boundary folder: an empty element, a max-length element, and
        // nothing else; plus a folder with no elements at all.
        let edge = Folder::from_elems(vec![Vec::new(), vec![fill; MAX_ELEM]]);
        bc.put("EDGE_ELEMS", edge);
        bc.put("EDGE_EMPTY", Folder::new());
        let encoded = codec::encode_briefcase(&bc);
        let decoded = codec::decode_briefcase(&encoded).expect("decode");
        prop_assert_eq!(&decoded, &bc);
        let round = decoded.folder("EDGE_ELEMS").expect("edge folder survives");
        prop_assert_eq!(round.len(), 2);
        prop_assert!(decoded.folder("EDGE_EMPTY").expect("empty folder survives").is_empty());
    }

    /// Meet requests — contact name, sender id, origin site and a briefcase
    /// of randomized folder contents — round-trip through the wire codec.
    #[test]
    fn meet_request_codec_round_trip(
        contact in "[a-z][a-z0-9_-]{0,15}",
        sender in any::<u64>(),
        origin in any::<u32>(),
        folders in proptest::collection::btree_map(
            "[A-Z][A-Z0-9_]{0,8}",
            proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..64), 0..6),
            0..6,
        ),
    ) {
        let mut bc = Briefcase::new();
        for (name, elems) in &folders {
            bc.put(name.clone(), Folder::from_elems(elems.clone()));
        }
        // Boundary contents ride along in every case.
        bc.put("B", Folder::from_elems(vec![Vec::new(), vec![0xA5; 2048]]));
        let req = codec::MeetRequest {
            contact: tacoma::util::AgentName::new(contact),
            sender: tacoma::util::AgentId(sender),
            origin: tacoma::util::SiteId(origin),
            briefcase: bc,
        };
        let encoded = codec::encode_meet_request(&req);
        let decoded = codec::decode_meet_request(&encoded).expect("decode");
        prop_assert_eq!(decoded, req);
        // Truncating the tail must never decode successfully.
        let cut = encoded.len() - 1;
        prop_assert!(codec::decode_meet_request(&encoded[..cut]).is_err());
    }

    /// `decode_meet_request` is total on hostile bytes — raw soup, a valid
    /// request with a few bytes overwritten (which lands in counts, lengths,
    /// names and payload alike) and hostile counts — and whatever it accepts
    /// is canonical: re-encoding gives the input back, at the predicted
    /// length.
    #[test]
    fn meet_request_decode_is_total_and_canonical(
        soup in proptest::collection::vec(any::<u8>(), 0..96),
        folders in proptest::collection::btree_map(
            "[A-D]{1,2}",
            proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..6), 0..4),
            0..5,
        ),
        bulk in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..24), 0..6),
        hits in proptest::collection::vec((any::<u16>(), any::<u8>()), 0..4),
    ) {
        for input in &hostile_requests(&soup, &folders, &bulk, &hits) {
            if let Ok(req) = codec::decode_meet_request(input) {
                prop_assert_eq!(&codec::encode_meet_request(&req), input);
                prop_assert_eq!(codec::meet_request_encoded_len(&req), input.len());
            }
        }
    }

    /// The owned entry points the kernel uses, where a folder that is more
    /// than half of the buffer lends or keeps it, are the borrowed ones
    /// byte for byte, `Ok` or `Err`; a kept buffer is under twice the live
    /// bytes of the folder that keeps it.
    #[test]
    fn owned_and_borrowed_meet_request_codecs_agree(
        soup in proptest::collection::vec(any::<u8>(), 0..96),
        folders in proptest::collection::btree_map(
            "[A-D]{1,2}",
            proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..6), 0..4),
            0..5,
        ),
        bulk in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..24), 0..6),
        hits in proptest::collection::vec((any::<u16>(), any::<u8>()), 0..4),
    ) {
        for input in hostile_requests(&soup, &folders, &bulk, &hits) {
            let borrowed = codec::decode_meet_request(&input);
            let owned = codec::decode_meet_request_owned(input.clone());
            prop_assert_eq!(&owned, &borrowed);
            let Ok(req) = owned else { continue };
            for (_, folder) in req.briefcase.iter() {
                let live = codec::folder_encoded_len(folder) - 4;
                let capacity = folder.arena_capacity();
                prop_assert!(capacity == 0 || capacity < 2 * live, "{capacity} bytes for {live}");
            }
            prop_assert_eq!(&codec::encode_meet_request_owned(req.clone()), &input);
            // The decoded request, kept buffer and all, lends it again.
            prop_assert_eq!(&codec::encode_meet_request_owned(req), &input);
        }
    }

    /// Cabinet snapshot/restore preserves contents and rebuilds the index.
    #[test]
    fn cabinet_snapshot_round_trip(
        entries in proptest::collection::vec(("[A-Z]{1,6}", proptest::collection::vec(any::<u8>(), 1..32)), 0..24)
    ) {
        let mut cab = FileCabinet::new();
        for (folder, elem) in &entries {
            cab.append(folder, elem.clone());
        }
        let restored = FileCabinet::restore(&cab.snapshot()).expect("restore");
        prop_assert_eq!(restored.payload_bytes(), cab.payload_bytes());
        for (folder, elem) in &entries {
            prop_assert!(restored.folder_contains(folder, elem));
        }
    }

    /// The TacoScript parser never panics on arbitrary input, and whenever it
    /// parses successfully the interpreter also terminates (possibly with an
    /// error) within its step budget.
    #[test]
    fn script_pipeline_is_total(src in "[ -~\\n]{0,200}") {
        if let Ok(_cmds) = parse_script(&src) {
            let mut host = NullHost;
            let mut interp = Interp::with_config(
                &mut host,
                tacoma::script::InterpConfig { max_steps: 2_000, max_depth: 16 },
            );
            let _ = interp.run(&src);
        }
    }

    /// expr evaluates any pair of small integers combined by an operator to
    /// the mathematically correct result.
    #[test]
    fn expr_arithmetic_matches_rust(a in -1000i64..1000, b in -1000i64..1000, op in 0usize..4) {
        let ops = ["+", "-", "*", "=="];
        let src = format!("expr {a} {} {b}", ops[op]);
        let mut host = NullHost;
        let mut interp = Interp::new(&mut host);
        let out = interp.run(&src).expect("arithmetic never fails").result;
        let expected = match op {
            0 => (a + b).to_string(),
            1 => (a - b).to_string(),
            2 => (a * b).to_string(),
            _ => if a == b { "1".to_string() } else { "0".to_string() },
        };
        prop_assert_eq!(out, expected);
    }

    /// Total value is conserved by any sequence of mint operations, and no
    /// retired bill is ever accepted again (no double spend succeeds).
    #[test]
    fn cash_conservation_and_no_double_spend(
        denominations in proptest::collection::vec(1u64..100, 1..12),
        spend_order in proptest::collection::vec(any::<u16>(), 0..24),
    ) {
        let mut mint = Mint::new(9);
        let mut live: Vec<_> = denominations.iter().map(|&d| mint.issue(d)).collect();
        let mut retired: Vec<_> = Vec::new();
        let total: u64 = denominations.iter().sum();
        for pick in spend_order {
            if live.is_empty() { break; }
            let idx = pick as usize % live.len();
            let bill = live[idx];
            // Occasionally try to double-spend a retired bill instead.
            if !retired.is_empty() && pick % 3 == 0 {
                let old = retired[pick as usize % retired.len()];
                prop_assert!(mint.validate_and_reissue(&[old]).is_err());
                continue;
            }
            let fresh = mint.validate_and_reissue(&[bill]).expect("live bill validates");
            prop_assert_eq!(fresh[0].amount, bill.amount);
            live[idx] = fresh[0];
            retired.push(bill);
        }
        let live_total: u64 = live.iter().map(|e| e.amount).sum();
        prop_assert_eq!(live_total, total, "no value created or destroyed");
        prop_assert_eq!(mint.outstanding(), live.len());
    }

    /// Tcl-style list formatting and parsing round-trip arbitrary words.
    #[test]
    fn list_round_trip(words in proptest::collection::vec("[a-z0-9 ]{0,12}", 0..12)) {
        let formatted = tacoma::script::format_list(words.iter());
        let parsed = tacoma::script::parse_list(&formatted);
        prop_assert_eq!(parsed, words);
    }

    /// Load reports round-trip through their briefcase encoding exactly —
    /// including non-finite capacities (NaN, ±∞) and boundary values (±0,
    /// MIN_POSITIVE, MAX, arbitrary bit patterns), since brokers must not be
    /// corrupted by whatever a briefcase claims a provider's capacity is.
    #[test]
    fn load_report_briefcase_round_trip(
        site in any::<u32>(),
        queue_len in any::<u64>(),
        at_micros in any::<u64>(),
        selector in 0usize..8,
        bits in any::<u64>(),
    ) {
        use tacoma::sched::LoadReport;
        use tacoma::util::SiteId;
        let capacity = [
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            0.0,
            -0.0,
            f64::MIN_POSITIVE,
            f64::MAX,
            f64::from_bits(bits),
        ][selector];
        let report = LoadReport { site: SiteId(site), queue_len, queue_cost: 0.0, capacity, at_micros };
        let parsed = LoadReport::from_briefcase(&report.to_briefcase())
            .expect("complete briefcase parses");
        prop_assert_eq!(parsed.site, report.site);
        prop_assert_eq!(parsed.queue_len, report.queue_len);
        prop_assert_eq!(parsed.at_micros, report.at_micros);
        if capacity.is_nan() {
            // NaN has no canonical wire spelling; any NaN comes back NaN and
            // the derived ordering stays uncorrupted (infinite, not NaN).
            prop_assert!(parsed.capacity.is_nan());
            prop_assert!(parsed.expected_wait().is_infinite());
        } else {
            // Rust's shortest-round-trip float formatting is exact: the
            // parsed capacity is bit-identical, signed zeros included.
            prop_assert_eq!(parsed.capacity.to_bits(), report.capacity.to_bits());
        }
    }

    /// A fleet manifest is untrusted input.  Directive soup never panics the
    /// parser, every error names the label and a line the text has, and a
    /// manifest of only comments and blank lines declares an empty fleet.
    #[test]
    fn audit_manifests_are_parsed_totally(
        lines in proptest::collection::vec(0usize..MANIFEST_LINES.len(), 0..16),
        words in proptest::collection::vec(
            proptest::collection::vec(0usize..MANIFEST_WORDS.len(), 0..5),
            0..12,
        ),
        soup in "[ -~\n]{0,200}",
        comments in proptest::collection::vec(("[ \t]{0,3}", "[ -~]{0,16}", any::<bool>()), 0..8),
    ) {
        use tacoma::apps::parse_manifest;
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/scripts");
        let lines: Vec<&str> = lines.iter().map(|&at| MANIFEST_LINES[at]).collect();
        let words: Vec<String> = words
            .iter()
            .map(|line| line.iter().map(|&at| MANIFEST_WORDS[at]).collect::<Vec<_>>().join(" "))
            .collect();
        for text in [lines.join("\n"), words.join("\n"), soup] {
            if let Err(error) = parse_manifest(&text, &dir, "hostile.audit") {
                let line = manifest_error_line(&error, "hostile.audit");
                let lines = 1..=text.lines().count();
                prop_assert!(line.is_some_and(|n| lines.contains(&n)), "{error}");
            }
        }
        let quiet: Vec<String> = comments
            .iter()
            .map(|(pad, body, marked)| if *marked { format!("{pad}#{body}") } else { pad.clone() })
            .collect();
        let fleet = parse_manifest(&quiet.join("\n"), &dir, "quiet.audit").expect("only comments");
        prop_assert!(fleet.agents().is_empty());
        prop_assert_eq!(fleet.declared_site_count(), None);
    }
}

#[test]
fn recording_host_is_reusable_across_property_runs() {
    // A plain (non-property) sanity check that the test host used above
    // behaves: scripts can read back what they pushed.
    let mut host = RecordingHost::new();
    let mut interp = Interp::new(&mut host);
    let out = interp
        .run("bc_push X 1; bc_push X 2; bc_list X")
        .unwrap()
        .result;
    assert_eq!(out, "1 2");
}
