//! Folders: named lists of uninterpreted byte sequences.
//!
//! The paper (§2) defines a folder as "a list of elements, each of which is an
//! uninterpreted sequence of bits.  Because it is a list, it can be treated as
//! a stack or a queue."  Folders must be cheap to move between sites, so —
//! unlike files — they carry no elaborate index structures.
//!
//! Elements are raw bytes; the typed accessors (`push_str`, `push_u64`, ...)
//! are conveniences over the byte representation and never change what is
//! stored on the wire.

use serde::{Deserialize, Serialize};
use std::ops::Range;

/// One element of a folder as an owned value: an uninterpreted sequence of
/// bytes.  Borrowed accessors hand out `&[u8]` slices of the folder's arena,
/// and whatever is pushed is copied into it.
pub type FolderElem = Vec<u8>;

/// A list of uninterpreted byte sequences, usable as a stack or a queue.
///
/// Stack operations ([`Folder::push`]/[`Folder::pop`]) work on the *back* of
/// the list; queue operations ([`Folder::enqueue`]/[`Folder::dequeue`]) add at
/// the back and remove from the front.  This matches the paper's description
/// of a folder being usable either way.
///
/// All elements live back to back in one byte arena, each exactly as the wire
/// carries it (`u32 len ‖ bytes`), so encoding a folder is one copy of the
/// arena and decoding one is a validating scan plus one copy, or none when
/// the folder keeps the buffer it arrived in (see [`crate::codec`]).  An offset
/// table holds the end of every element but the last, which ends where the
/// arena does: a one-element folder is a single heap block.  Dequeued
/// elements stay in the arena as a dead prefix until it makes up half of it,
/// then the live part is moved down once (amortised O(1) per dequeue).
/// Equality is over the logical contents; the dead prefix never shows.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Folder {
    /// Elements in wire form back to back, dead prefix included.
    data: Vec<u8>,
    /// End offset in `data` of every element but the last, dead prefix
    /// included.
    ends: Vec<u32>,
    /// How many leading elements have been dequeued.
    head: usize,
}

/// Bytes of length prefix in front of every element in the arena.
const PREFIX: usize = 4;

impl Folder {
    /// Creates an empty folder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a folder holding a single byte-string element.
    pub fn single(elem: impl AsRef<[u8]>) -> Self {
        let mut f = Folder::new();
        f.push(elem);
        f
    }

    /// Creates a folder holding a single UTF-8 string element.
    pub fn of_str(s: impl AsRef<str>) -> Self {
        let mut f = Folder::new();
        f.push_str(s);
        f
    }

    /// Creates a folder from an iterator of elements.
    pub fn from_elems(elems: impl IntoIterator<Item = FolderElem>) -> Self {
        let mut f = Folder::new();
        for elem in elems {
            f.push_bytes(&elem);
        }
        f
    }

    /// Scans `count` elements in wire form off the front of `wire`: the
    /// offset table of the folder they make, and the bytes they occupy.
    /// `None` if `wire` ends early or the folder would pass `u32::MAX` bytes.
    pub(crate) fn scan(wire: &[u8], count: usize) -> Option<(Vec<u32>, usize)> {
        // Every element costs at least its prefix, so a count the input
        // cannot hold is refused before anything is reserved for it.
        if count > wire.len() / PREFIX {
            return None;
        }
        let mut ends = Vec::with_capacity(count.saturating_sub(1));
        let mut rest = wire;
        for k in 0..count {
            let (prefix, tail) = rest.split_first_chunk::<PREFIX>()?;
            rest = tail.get(u32::from_le_bytes(*prefix) as usize..)?;
            if k + 1 < count {
                ends.push(u32::try_from(wire.len() - rest.len()).ok()?);
            }
        }
        let used = wire.len() - rest.len();
        u32::try_from(used).ok()?;
        Some((ends, used))
    }

    /// The folder whose wire image is `data`, with the offset table
    /// [`Folder::scan`] made of it.
    pub(crate) fn from_image(data: Vec<u8>, ends: Vec<u32>) -> Folder {
        Folder {
            data,
            ends,
            head: 0,
        }
    }

    /// The folder whose wire image is `buf[image]`, `buf` its arena: the
    /// image is moved to the front once and the rest cut off, so nothing of
    /// the image's size is allocated.
    pub(crate) fn adopt(mut buf: Vec<u8>, image: Range<usize>, ends: Vec<u32>) -> Folder {
        let len = image.len();
        buf.copy_within(image, 0);
        buf.truncate(len);
        Folder::from_image(buf, ends)
    }

    /// The live elements in wire form: what an encoder writes after the count.
    pub(crate) fn wire_image(&self) -> &[u8] {
        &self.data[self.start(self.head)..]
    }

    /// The arena, dead prefix dropped: the wire image, owned.
    pub(crate) fn into_wire_image(mut self) -> Vec<u8> {
        self.data.drain(..self.start(self.head));
        self.data
    }

    /// Bytes of storage the arena holds, live or not (for tests of the
    /// bound an adopted arena keeps).
    #[doc(hidden)]
    pub fn arena_capacity(&self) -> usize {
        self.data.capacity()
    }

    /// Number of elements in the folder.
    pub fn len(&self) -> usize {
        if self.data.is_empty() {
            0
        } else {
            self.ends.len() + 1 - self.head
        }
    }

    /// Whether the folder has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Start offset in `data` of the element at physical position `k`; for
    /// `k` one past the last element, where the arena ends.
    fn start(&self, k: usize) -> usize {
        match k {
            0 => 0,
            _ => (self.ends.get(k - 1)).map_or(self.data.len(), |&end| end as usize),
        }
    }

    /// Pushes an element on the back (stack push).
    pub fn push(&mut self, elem: impl AsRef<[u8]>) {
        self.push_bytes(elem.as_ref());
    }

    /// Pushes a copy of `elem` on the back.
    ///
    /// # Panics
    ///
    /// Panics if the folder's storage would exceed `u32::MAX` bytes (the
    /// wire format's own length limit).
    pub fn push_bytes(&mut self, elem: &[u8]) {
        let start = self.data.len();
        assert!(
            u32::try_from(start + PREFIX + elem.len()).is_ok(),
            "a folder holds at most u32::MAX bytes"
        );
        if start != 0 {
            self.ends.push(start as u32);
        }
        // One growth for prefix and bytes together: a folder built by a
        // single push is a single, exact block.
        self.data.reserve(PREFIX + elem.len());
        self.data
            .extend_from_slice(&(elem.len() as u32).to_le_bytes());
        self.data.extend_from_slice(elem);
    }

    /// Pops the element from the back (stack pop).
    pub fn pop(&mut self) -> Option<FolderElem> {
        let elem = self.peek_back()?.to_vec();
        self.drop_back();
        Some(elem)
    }

    /// Removes the back element, which must exist.
    fn drop_back(&mut self) {
        self.data.truncate(self.start(self.ends.len()));
        self.ends.pop();
        self.reclaim();
    }

    /// Adds an element at the back (queue enqueue, same end as `push`).
    pub fn enqueue(&mut self, elem: impl AsRef<[u8]>) {
        self.push(elem);
    }

    /// Removes the element at the front (queue dequeue).
    pub fn dequeue(&mut self) -> Option<FolderElem> {
        let elem = self.peek_front()?.to_vec();
        self.head += 1;
        self.reclaim();
        Some(elem)
    }

    /// Drops the dead prefix once it is at least half of the arena (the
    /// prefixes count, so runs of empty elements are reclaimed too).  The
    /// live part it moves is no larger than the dead part it frees, which
    /// the dequeues that made the prefix have already paid for.
    fn reclaim(&mut self) {
        let dead = self.start(self.head);
        if self.head == 0 || 2 * dead < self.data.len() {
            return;
        }
        self.data.drain(..dead);
        self.ends.drain(..self.head.min(self.ends.len()));
        for end in &mut self.ends {
            *end -= dead as u32;
        }
        self.head = 0;
    }

    /// The element at the back (what `pop` would return), without removing it.
    pub fn peek_back(&self) -> Option<&[u8]> {
        self.get(self.len().checked_sub(1)?)
    }

    /// The element at the front (what `dequeue` would return), without removing it.
    pub fn peek_front(&self) -> Option<&[u8]> {
        self.get(0)
    }

    /// The element at position `idx` from the front.
    pub fn get(&self, idx: usize) -> Option<&[u8]> {
        let k = self.head.checked_add(idx).filter(|_| idx < self.len())?;
        Some(&self.data[self.start(k) + PREFIX..self.start(k + 1)])
    }

    /// Iterates over elements from front to back.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            wire: self.wire_image(),
            left: self.len(),
        }
    }

    /// Removes every element.
    pub fn clear(&mut self) {
        self.data.clear();
        self.ends.clear();
        self.head = 0;
    }

    /// Appends all elements of `other`, leaving `other` empty.
    pub fn append(&mut self, other: &mut Folder) {
        self.ends.reserve(other.len());
        self.data.reserve(other.wire_image().len());
        for elem in other.iter() {
            self.push_bytes(elem);
        }
        other.clear();
    }

    /// Total payload bytes across all elements (excluding framing).
    pub fn payload_bytes(&self) -> usize {
        self.wire_image().len() - PREFIX * self.len()
    }

    /// Whether any element equals the given bytes.
    pub fn contains_elem(&self, elem: &[u8]) -> bool {
        self.iter().any(|e| e == elem)
    }

    // ----- typed conveniences ------------------------------------------------

    /// Pushes a UTF-8 string element.
    pub fn push_str(&mut self, s: impl AsRef<str>) {
        self.push_bytes(s.as_ref().as_bytes());
    }

    /// Pops an element and decodes it as UTF-8 (lossily).
    pub fn pop_str(&mut self) -> Option<String> {
        let s = self.peek_str()?;
        self.drop_back();
        Some(s)
    }

    /// Dequeues an element and decodes it as UTF-8 (lossily).
    pub fn dequeue_str(&mut self) -> Option<String> {
        self.dequeue()
            .map(|b| String::from_utf8_lossy(&b).into_owned())
    }

    /// Reads the back element as UTF-8 without removing it.
    pub fn peek_str(&self) -> Option<String> {
        self.peek_back()
            .map(|b| String::from_utf8_lossy(b).into_owned())
    }

    /// Pushes a `u64` in little-endian encoding.
    pub fn push_u64(&mut self, v: u64) {
        self.push_bytes(&v.to_le_bytes());
    }

    /// Pops an element and decodes it as a little-endian `u64`.
    ///
    /// Returns `None` if the folder is empty or the element is not 8 bytes
    /// (a wrong-width element is still consumed).
    pub fn pop_u64(&mut self) -> Option<u64> {
        let arr: Option<[u8; 8]> = self.peek_back()?.try_into().ok();
        self.drop_back();
        arr.map(u64::from_le_bytes)
    }

    /// Reads the back element as a `u64` without removing it.
    pub fn peek_u64(&self) -> Option<u64> {
        let arr: [u8; 8] = self.peek_back()?.try_into().ok()?;
        Some(u64::from_le_bytes(arr))
    }

    /// Collects every element decoded as UTF-8, front to back.
    pub fn strings(&self) -> Vec<String> {
        self.iter()
            .map(|b| String::from_utf8_lossy(b).into_owned())
            .collect()
    }
}

impl PartialEq for Folder {
    fn eq(&self, other: &Self) -> bool {
        // An image parses one way only, so equal bytes are equal elements.
        self.wire_image() == other.wire_image()
    }
}

impl Eq for Folder {}

impl FromIterator<FolderElem> for Folder {
    fn from_iter<T: IntoIterator<Item = FolderElem>>(iter: T) -> Self {
        Folder::from_elems(iter)
    }
}

/// Front-to-back iterator over a folder's elements (see [`Folder::iter`]);
/// the default one is empty.
#[derive(Debug, Clone, Default)]
pub struct Iter<'a> {
    /// The elements not yet yielded, in wire form.
    wire: &'a [u8],
    left: usize,
}

impl<'a> Iterator for Iter<'a> {
    type Item = &'a [u8];

    fn next(&mut self) -> Option<&'a [u8]> {
        let (prefix, rest) = self.wire.split_first_chunk::<PREFIX>()?;
        let (elem, rest) = rest.split_at(u32::from_le_bytes(*prefix) as usize);
        self.wire = rest;
        self.left -= 1;
        Some(elem)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl ExactSizeIterator for Iter<'_> {}

impl<'a> IntoIterator for &'a Folder {
    type Item = &'a [u8];
    type IntoIter = Iter<'a>;
    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stack_order_is_lifo() {
        let mut f = Folder::new();
        f.push_str("a");
        f.push_str("b");
        f.push_str("c");
        assert_eq!(f.pop_str().as_deref(), Some("c"));
        assert_eq!(f.pop_str().as_deref(), Some("b"));
        assert_eq!(f.pop_str().as_deref(), Some("a"));
        assert!(f.pop().is_none());
    }

    #[test]
    fn queue_order_is_fifo() {
        let mut f = Folder::new();
        f.enqueue(b"1");
        f.enqueue(b"2");
        f.enqueue(b"3");
        assert_eq!(f.dequeue_str().as_deref(), Some("1"));
        assert_eq!(f.dequeue_str().as_deref(), Some("2"));
        assert_eq!(f.dequeue_str().as_deref(), Some("3"));
        assert!(f.dequeue().is_none());
    }

    #[test]
    fn mixed_stack_and_queue_use_shared_list() {
        // The paper stresses a folder IS one list that can be treated either way.
        let mut f = Folder::new();
        f.push_str("bottom");
        f.push_str("top");
        assert_eq!(f.dequeue_str().as_deref(), Some("bottom"));
        assert_eq!(f.pop_str().as_deref(), Some("top"));
    }

    #[test]
    fn peeks_do_not_remove() {
        let mut f = Folder::new();
        f.push_str("x");
        assert_eq!(f.peek_str().as_deref(), Some("x"));
        assert_eq!(f.peek_front().unwrap(), b"x");
        assert_eq!(f.peek_back().unwrap(), b"x");
        assert_eq!(f.len(), 1);
    }

    #[test]
    fn u64_and_f64_round_trip() {
        let mut f = Folder::new();
        f.push_u64(123_456_789);
        assert_eq!(f.peek_u64(), Some(123_456_789));
        assert_eq!(f.pop_u64(), Some(123_456_789));
        // Wrong-width element decodes to None but is still consumed.
        f.push_str("not a number");
        assert_eq!(f.pop_u64(), None);
        assert!(f.is_empty());
    }

    #[test]
    fn bytes_are_uninterpreted() {
        let mut f = Folder::new();
        let blob = vec![0u8, 255, 128, 7];
        f.push(blob.clone());
        assert!(f.contains_elem(&blob));
        assert_eq!(f.pop(), Some(blob));
    }

    #[test]
    fn append_moves_elements() {
        let mut a = Folder::from_elems([b"1".to_vec(), b"2".to_vec()]);
        let mut b = Folder::from_elems([b"3".to_vec()]);
        a.append(&mut b);
        assert_eq!(a.len(), 3);
        assert!(b.is_empty());
        assert_eq!(a.strings(), vec!["1", "2", "3"]);
    }

    #[test]
    fn payload_bytes_counts_all_elements() {
        let mut f = Folder::new();
        f.push(vec![0u8; 10]);
        f.push(vec![0u8; 22]);
        assert_eq!(f.payload_bytes(), 32);
        f.clear();
        assert_eq!(f.payload_bytes(), 0);
        assert!(f.is_empty());
    }

    #[test]
    fn constructors() {
        assert_eq!(Folder::of_str("hi").len(), 1);
        assert_eq!(Folder::single(vec![1, 2, 3]).payload_bytes(), 3);
        let f: Folder = [b"a".to_vec(), b"b".to_vec()].into_iter().collect();
        assert_eq!(f.len(), 2);
        assert_eq!(f.get(1).unwrap(), b"b");
        assert!(f.get(2).is_none());
    }

    #[test]
    fn iteration_is_front_to_back() {
        let f = Folder::from_elems([b"x".to_vec(), b"y".to_vec()]);
        let collected: Vec<&[u8]> = (&f).into_iter().collect();
        assert_eq!(collected.len(), 2);
        assert_eq!(f.strings(), vec!["x", "y"]);
    }

    /// The invariant `reclaim` maintains: a dead prefix, if any, is less
    /// than half of the arena.
    fn assert_mostly_live(f: &Folder) {
        let (dead, total) = (f.start(f.head), f.data.len());
        assert!(f.head == 0 || 2 * dead < total, "{dead} dead of {total}");
    }

    #[test]
    fn dequeues_leave_a_dead_prefix_that_is_reclaimed_at_half() {
        let mut f = Folder::new();
        for i in 0..100u64 {
            f.push_u64(i);
        }
        for i in 0..49u64 {
            assert_eq!(f.dequeue(), Some(i.to_le_bytes().to_vec()));
            assert_eq!(f.head as u64, i + 1, "no compaction yet");
        }
        f.dequeue();
        assert_eq!((f.head, f.ends.len(), f.data.len()), (0, 49, 600));
        assert_eq!(f.peek_front(), Some(&50u64.to_le_bytes()[..]));
        assert_eq!(f.peek_u64(), Some(99));
        // A queue in steady state never holds more than twice its contents.
        for i in 100..10_000u64 {
            f.push_u64(i);
            f.dequeue();
            assert_mostly_live(&f);
            assert!(f.data.len() <= 2 * f.wire_image().len());
        }
        assert_eq!(f.len(), 50);
    }

    #[test]
    fn draining_empty_elements_is_reclaimed_too() {
        let mut f = Folder::new();
        for _ in 0..200_000 {
            f.push_bytes(b"");
        }
        f.push_str("tail");
        for _ in 0..200_000 {
            assert_eq!(f.dequeue().as_deref(), Some(&b""[..]));
            assert_mostly_live(&f);
        }
        assert_eq!(f.strings(), vec!["tail"]);
        // Popping the live tail off a dead prefix empties the storage.
        let mut g = Folder::from_elems([b"a".to_vec(), b"bbbb".to_vec(), b"cc".to_vec()]);
        g.dequeue();
        g.pop();
        assert_eq!((g.strings(), g.head), (vec!["bbbb".to_string()], 1));
        g.pop();
        assert_eq!((g.head, g.ends.len(), g.data.len()), (0, 0, 0));
    }

    #[test]
    fn equality_ignores_the_arena_layout() {
        let mut a = Folder::from_elems([b"gone".to_vec(), b"x".to_vec(), b"yz".to_vec()]);
        a.dequeue();
        let b = Folder::from_elems([b"x".to_vec(), b"yz".to_vec()]);
        assert_ne!(a.head, b.head);
        assert_eq!(a, b);
        assert_eq!(a.clone(), b);
        // Same bytes, different element boundaries.
        assert_ne!(b, Folder::from_elems([b"xy".to_vec(), b"z".to_vec()]));
        assert_ne!(b, Folder::from_elems([b"x".to_vec()]));
    }
}
