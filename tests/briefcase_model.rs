//! Model-based test of the sorted-vector `Briefcase`, and the frozen wire.
//!
//! The reference model is the representation the vector replaced — a
//! `BTreeMap<String, Folder>` — and lives only here.  Random interleavings of
//! every mutating operation run against both, with names drawn from a pool
//! small enough to collide and given both as literals and as owned strings;
//! after each step every observer must agree, down to the encoded bytes.

use proptest::prelude::*;
use std::collections::BTreeMap;
use tacoma::core::codec::{self, MeetRequest};
use tacoma::core::{Briefcase, Folder};
use tacoma::util::{AgentId, AgentName, SiteId};

type Model = BTreeMap<String, Folder>;

/// Sorts neither as inserted nor by length; one is a prefix of another.
const NAMES: [&str; 8] = ["SITES", "HOST", "A", "AB", "", "zeta", "CODE", "HOPS"];

/// The briefcase encoding of `model`, written out from the format's grammar.
fn model_wire(model: &Model) -> Vec<u8> {
    let mut wire = (model.len() as u32).to_le_bytes().to_vec();
    for (name, folder) in model {
        wire.extend((name.len() as u32).to_le_bytes());
        wire.extend(name.as_bytes());
        wire.extend(codec::encode_folder(folder));
    }
    wire
}

/// Every read-only view of `bc` agrees with `model`.
fn assert_agrees(bc: &Briefcase, model: &Model) {
    assert_eq!(bc.len(), model.len());
    assert_eq!(bc.is_empty(), model.is_empty());
    assert!(bc.iter().eq(model.iter().map(|(k, v)| (k.as_str(), v))));
    assert_eq!(bc.names(), model.keys().collect::<Vec<_>>());
    for name in NAMES {
        assert_eq!(bc.contains(name), model.contains_key(name), "{name:?}");
        assert_eq!(bc.folder(name), model.get(name), "{name:?}");
        let top = model.get(name).and_then(|f| f.peek_back());
        assert_eq!(bc.peek(name), top, "{name:?}");
    }
    assert!(!bc.contains("absent"));
    let wire = model_wire(model);
    assert_eq!(bc.wire_size(), wire.len());
    assert_eq!(codec::encode_briefcase(bc), wire);
    // The same contents put in the opposite order are the same briefcase.
    let mut fresh = Briefcase::new();
    for (name, folder) in model.iter().rev() {
        fresh.put(name.clone(), folder.clone());
    }
    assert_eq!(bc, &fresh);
}

proptest! {
    #[test]
    fn briefcase_matches_the_btreemap_model(
        ops in proptest::collection::vec(
            (0u8..12, 0usize..8, 0usize..8, proptest::collection::vec(any::<u8>(), 0..12)),
            0..120,
        )
    ) {
        let mut bc = Briefcase::new();
        let mut model = Model::new();
        for (op, a, b, bytes) in ops {
            let name = NAMES[a];
            let text = String::from_utf8_lossy(&bytes).into_owned();
            match op {
                0 => prop_assert_eq!(
                    bc.put(name, Folder::single(bytes.clone())),
                    model.insert(name.to_string(), Folder::single(bytes))
                ),
                1 => prop_assert_eq!(
                    bc.put(name.to_string(), Folder::new()),
                    model.insert(name.to_string(), Folder::new())
                ),
                2 => {
                    bc.put_string(name, &text);
                    model.insert(name.to_string(), Folder::of_str(&text));
                }
                3 => {
                    bc.put_u64(name.to_string(), b as u64);
                    model.insert(name.to_string(), Folder::single((b as u64).to_le_bytes()));
                }
                4 | 5 => prop_assert_eq!(bc.take(name), model.remove(name)),
                6 => prop_assert_eq!(
                    bc.take_string(name),
                    model.remove(name).and_then(|mut f| f.pop_str())
                ),
                7 | 8 => {
                    bc.folder_mut(name).push(bytes.clone());
                    model.entry(name.to_string()).or_default().push(bytes);
                }
                9 => prop_assert_eq!(
                    bc.folder_mut(name).dequeue(),
                    model.entry(name.to_string()).or_default().dequeue()
                ),
                10 => {
                    // Two folders, one of which may already be there (and
                    // both of which may be the same one).
                    let mut other = Briefcase::new();
                    other.put_string(name, &text);
                    other.folder_mut(NAMES[b]).push(bytes.clone());
                    let mut other_model = Model::new();
                    other_model.insert(name.to_string(), Folder::of_str(&text));
                    other_model.entry(NAMES[b].to_string()).or_default().push(bytes);
                    bc.merge(other);
                    for (name, mut folder) in other_model {
                        model.entry(name).or_default().append(&mut folder);
                    }
                }
                _ => {
                    // A copy that crossed the wire owns every name it holds.
                    let copy = codec::decode_briefcase(&codec::encode_briefcase(&bc));
                    let copy = copy.expect("decode");
                    prop_assert_eq!(&copy, &bc.clone());
                    bc = copy;
                }
            }
            assert_agrees(&bc, &model);
        }
    }
}

/// The bytes of one request, empty element and empty folder included, as the
/// format has always had them: what an arena holds may change, this may not.
#[test]
fn the_wire_format_is_frozen() {
    let mut bc = Briefcase::new();
    bc.put_string("HOST", "site2");
    bc.folder_mut("DATA").push(vec![1, 2, 3, 255]);
    bc.folder_mut("DATA").push(vec![]);
    bc.put("EMPTY", Folder::new());
    let req = MeetRequest {
        contact: AgentName::new("rexec"),
        sender: AgentId(0x0102_0304_0506_0708),
        origin: SiteId(3),
        briefcase: bc,
    };
    #[rustfmt::skip]
    let golden = concat!(
        "01",                                               // version
        "05000000", "7265786563",                           // contact "rexec"
        "0807060504030201",                                 // sender
        "03000000",                                         // origin
        "03000000",                                         // three folders, ascending
        "04000000", "44415441", "02000000",                 // "DATA", two elements:
        "04000000", "010203ff", "00000000",                 //   four bytes, then none
        "05000000", "454d505459", "00000000",               // "EMPTY", no elements
        "04000000", "484f5354", "01000000",                 // "HOST", one element:
        "05000000", "7369746532",                           //   "site2"
    );
    let bytes = codec::encode_meet_request(&req);
    let hex: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
    assert_eq!(hex, golden);
    assert_eq!(codec::decode_meet_request(&bytes).expect("decode"), req);
}

/// A briefcase off the wire can hold any number of folders.  Decoded with
/// 100 000 of them, it answers a lookup of each name and of a missing name
/// beside it, and takes a merge of 100 000 more, half of them new, in well
/// under a second in release (the profile CI also runs this in; 10 s in
/// debug).  Only the lookups and the merge are timed: a lookup that scanned,
/// or a merge that shifted the tail once per new name, would take minutes.
#[test]
fn a_briefcase_of_100_000_folders_is_searched_and_merged_fast() {
    const N: usize = 100_000;
    let name = |k: usize| format!("F{k:07}");
    let mut wire = (N as u32).to_le_bytes().to_vec();
    for k in 0..N {
        let name = name(2 * k);
        wire.extend((name.len() as u32).to_le_bytes());
        wire.extend(name.as_bytes());
        wire.extend(codec::encode_folder(&Folder::single(
            (k as u64).to_le_bytes(),
        )));
    }
    let mut other = Briefcase::new();
    for k in N / 2..N + N / 2 {
        other.put(name(k), Folder::of_str("merged"));
    }
    let present: Vec<String> = (0..N).map(|k| name(2 * k)).collect();
    let absent: Vec<String> = present.iter().map(|n| format!("{n}!")).collect();
    let mut bc = codec::decode_briefcase(&wire).expect("decode");
    let bound = if cfg!(debug_assertions) { 10.0 } else { 1.0 };
    let start = std::time::Instant::now();
    for (k, (name, missing)) in present.iter().zip(&absent).enumerate() {
        assert_eq!(bc.peek_u64(name), Some(k as u64), "{name}");
        assert!(!bc.contains(missing), "{missing}");
    }
    bc.merge(other);
    let spent = start.elapsed().as_secs_f64();
    assert!(spent < bound, "{spent:.3} s against {bound} s");
    assert_eq!(bc.len(), N + N / 2);
    let names = bc.names();
    assert!(names.windows(2).all(|pair| pair[0] < pair[1]));
    assert_eq!(bc.folder(&name(N)).map(Folder::len), Some(2));
    assert_eq!(bc.peek_string(&name(N + 1)).as_deref(), Some("merged"));
}
