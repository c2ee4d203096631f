//! Model-based test of the arena-backed `Folder`.
//!
//! The reference model is the representation the arena replaced — a
//! `VecDeque<Vec<u8>>`, one heap block per element — and lives only here.
//! Random interleavings of every mutating operation run against both; after
//! each step every observer must agree.  Sequences are long and dequeue-heavy
//! enough to cross the compaction threshold many times, and elements of 0 to
//! 63 bytes put single-element folders on both sides of the 47-byte image a
//! folder holds in place.

use proptest::prelude::*;
use std::collections::VecDeque;
use tacoma::core::codec;
use tacoma::core::Folder;

type Model = VecDeque<Vec<u8>>;

/// Every read-only view of `folder` agrees with `model`.
fn assert_agrees(folder: &Folder, model: &Model) {
    assert_eq!(folder.len(), model.len());
    assert_eq!(folder.is_empty(), model.is_empty());
    for (i, want) in model.iter().enumerate() {
        assert_eq!(folder.get(i), Some(want.as_slice()), "get({i})");
    }
    assert_eq!(folder.get(model.len()), None);
    assert_eq!(folder.iter().len(), model.len());
    assert!(folder.iter().eq(model.iter().map(Vec::as_slice)));
    assert!(folder.into_iter().eq(model.iter().map(Vec::as_slice)));
    assert_eq!(folder.peek_front(), model.front().map(Vec::as_slice));
    assert_eq!(folder.peek_back(), model.back().map(Vec::as_slice));
    assert_eq!(
        folder.payload_bytes(),
        model.iter().map(Vec::len).sum::<usize>()
    );
    let strings: Vec<String> = model
        .iter()
        .map(|e| String::from_utf8_lossy(e).into_owned())
        .collect();
    assert_eq!(folder.strings(), strings);
    if let Some(e) = model.front() {
        assert!(folder.contains_elem(e));
    }
    // The arena is kept in wire form; what leaves it is the live elements
    // and nothing else, whatever dead prefix and offsets stand behind them.
    let mut wire = (model.len() as u32).to_le_bytes().to_vec();
    for e in model {
        wire.extend((e.len() as u32).to_le_bytes());
        wire.extend(e);
    }
    assert_eq!(codec::encode_folder(folder), wire);
}

#[test]
fn a_folder_is_as_large_as_its_heap_form() {
    // The in-place image fits beside its length byte in what the arena,
    // its offset table and the dequeue count take anyway.
    assert_eq!(std::mem::size_of::<Folder>(), 56);
}

proptest! {
    #[test]
    fn folder_matches_the_vecdeque_model(
        ops in proptest::collection::vec(
            (0u8..17, proptest::collection::vec(any::<u8>(), 0..64)),
            0..400,
        )
    ) {
        let mut folder = Folder::new();
        let mut model = Model::new();
        for (op, bytes) in ops {
            match op {
                0..=3 => {
                    folder.push(bytes.clone());
                    model.push_back(bytes);
                }
                4 | 5 => {
                    folder.enqueue(bytes.as_slice());
                    model.push_back(bytes);
                }
                // Dequeues outnumber pops so that a dead prefix builds up
                // and is reclaimed again and again.
                6..=10 => prop_assert_eq!(folder.dequeue(), model.pop_front()),
                11 | 12 => prop_assert_eq!(folder.pop(), model.pop_back()),
                13 => {
                    // `bytes` cut into single-byte elements, then one empty,
                    // and with a dead prefix of its own.
                    let mut other_model: Model = bytes.iter().map(|b| vec![*b]).collect();
                    other_model.push_back(Vec::new());
                    let mut other: Folder = other_model.iter().cloned().collect();
                    prop_assert_eq!(other.dequeue(), other_model.pop_front());
                    model.append(&mut other_model);
                    folder.append(&mut other);
                    prop_assert!(other.is_empty());
                }
                14 => {
                    if bytes.len() < 4 {
                        folder.clear();
                        model.clear();
                    }
                }
                15 => {
                    // Read back off its own encoding: a small image comes
                    // back in place, a larger one in an exact arena, and
                    // either equals the folder it came from, whatever
                    // form that one is in.
                    let decoded = codec::decode_folder(&codec::encode_folder(&folder))
                        .expect("decode");
                    prop_assert_eq!(&decoded, &folder);
                    folder = decoded;
                }
                _ => {
                    let copy = folder.clone();
                    prop_assert_eq!(&copy, &folder);
                    folder = copy;
                }
            }
            assert_agrees(&folder, &model);
        }
        // Same contents built the plain way: whatever form, `head` and
        // arena layout the history left behind, the two are equal and
        // encode to the same bytes, of exactly the predicted length.
        let fresh = Folder::from_elems(model.iter().cloned());
        prop_assert_eq!(&folder, &fresh);
        // Built on the heap from the start, by one element larger than any
        // in-place image, then popped back to the same contents.
        let mut spilled = Folder::single([0; 48]);
        for e in &model {
            spilled.push_bytes(e);
        }
        spilled.dequeue();
        prop_assert!(spilled.arena_capacity() > 0);
        prop_assert_eq!(&spilled, &fresh);
        prop_assert_eq!(&fresh, &spilled);
        let wire = codec::encode_folder(&folder);
        prop_assert_eq!(&wire, &codec::encode_folder(&fresh));
        prop_assert_eq!(codec::folder_encoded_len(&folder), wire.len());
        prop_assert_eq!(codec::decode_folder(&wire).expect("decode"), fresh);
    }
}
