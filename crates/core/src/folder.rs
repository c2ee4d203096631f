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
use std::fmt;
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
/// All elements live back to back, each exactly as the wire carries it
/// (`u32 len ‖ bytes`), so encoding a folder is one copy of its image and
/// decoding one is a validating scan plus at most one copy.  An image of up
/// to 47 bytes is kept inside the `Folder` itself and costs no heap block;
/// the push that outgrows it moves the image to a heap arena, where it stays.
/// The arena has an offset table with the end of every element but the
/// last, which ends where the arena does, so a one-element folder is a
/// single heap block; an arena can be a request buffer the folder kept (see
/// [`crate::codec`]).  Dequeued elements stay in the arena as a dead prefix
/// until it makes up half of it, then the live part is moved down once
/// (amortised O(1) per dequeue).  Equality is over the logical contents:
/// neither the form nor a dead prefix shows.
#[derive(Clone, Serialize, Deserialize)]
pub struct Folder(Repr);

/// Where a folder keeps its wire image.
#[derive(Clone)]
enum Repr {
    /// An image of at most [`SMALL`] bytes, in place: its length, then
    /// the bytes.
    Small(u8, [u8; SMALL]),
    /// An image on the heap.
    Large(Arena),
}

/// A heap-backed wire image.
#[derive(Clone)]
struct Arena {
    /// Elements in wire form back to back, dead prefix included.
    data: Vec<u8>,
    /// End offset in `data` of every element but the last, dead prefix
    /// included.
    ends: Vec<u32>,
    /// How many leading elements have been dequeued.
    head: usize,
}

/// Bytes of length prefix in front of every element of an image.
const PREFIX: usize = 4;

/// The largest wire image a folder holds in place: what fits beside the
/// length byte in the 56 bytes the heap form takes anyway.
pub(crate) const SMALL: usize = 47;

/// The end offset of each element of the wire image `image`, front to back.
/// The image must be well formed: built here or checked by [`Folder::scan`].
fn ends(image: &[u8]) -> impl Iterator<Item = usize> + '_ {
    let mut at = 0;
    std::iter::from_fn(move || {
        let (prefix, _) = image.get(at..)?.split_first_chunk::<PREFIX>()?;
        at += PREFIX + u32::from_le_bytes(*prefix) as usize;
        Some(at)
    })
}

impl Arena {
    /// The arena of `data`, the well-formed wire image of `count` elements.
    fn new(data: Vec<u8>, count: usize) -> Arena {
        let mut table = Vec::with_capacity(count.saturating_sub(1));
        table.extend(
            ends(&data)
                .take(count.saturating_sub(1))
                .map(|end| end as u32),
        );
        Arena {
            data,
            ends: table,
            head: 0,
        }
    }

    /// Start offset in `data` of the element at physical position `k`; for
    /// `k` one past the last element, where the arena ends.
    fn start(&self, k: usize) -> usize {
        match k {
            0 => 0,
            _ => (self.ends.get(k - 1)).map_or(self.data.len(), |&end| end as usize),
        }
    }

    /// Number of live elements.
    fn len(&self) -> usize {
        if self.data.is_empty() {
            0
        } else {
            self.ends.len() + 1 - self.head
        }
    }

    /// Appends the well-formed wire image of `count` elements.
    fn extend(&mut self, image: &[u8], count: usize) {
        if count == 0 {
            return;
        }
        let start = self.data.len();
        self.ends.reserve(count - usize::from(start == 0));
        if start != 0 {
            self.ends.push(start as u32);
        }
        let inner = ends(image).take(count - 1);
        self.ends.extend(inner.map(|end| (start + end) as u32));
        self.data.extend_from_slice(image);
    }

    /// Removes the back element, which must exist.
    fn drop_back(&mut self) {
        self.data.truncate(self.start(self.ends.len()));
        self.ends.pop();
        self.reclaim();
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
}

impl Default for Folder {
    fn default() -> Self {
        Folder(Repr::Small(0, [0; SMALL]))
    }
}

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

    /// Checks that `count` elements in wire form lie at the front of `wire`
    /// and returns the bytes they occupy.  `None` if `wire` ends early or the
    /// folder would pass `u32::MAX` bytes.
    pub(crate) fn scan(wire: &[u8], count: usize) -> Option<usize> {
        // Every element costs at least its prefix, so a count the input
        // cannot hold is refused before anything is reserved for it.
        if count > wire.len() / PREFIX {
            return None;
        }
        let mut rest = wire;
        for _ in 0..count {
            let (prefix, tail) = rest.split_first_chunk::<PREFIX>()?;
            rest = tail.get(u32::from_le_bytes(*prefix) as usize..)?;
        }
        let used = wire.len() - rest.len();
        u32::try_from(used).ok()?;
        Some(used)
    }

    /// The folder whose wire image is `image`, `count` elements that
    /// [`Folder::scan`] has checked: copied in place when it fits, into one
    /// exact heap block otherwise.
    pub(crate) fn from_image(image: &[u8], count: usize) -> Folder {
        if image.len() > SMALL {
            return Folder(Repr::Large(Arena::new(image.to_vec(), count)));
        }
        let mut bytes = [0; SMALL];
        bytes[..image.len()].copy_from_slice(image);
        Folder(Repr::Small(image.len() as u8, bytes))
    }

    /// The folder whose wire image is `buf[image]`, `count` elements that
    /// [`Folder::scan`] has checked, `buf` its arena: the image is moved to
    /// the front once and the rest cut off, so nothing of the image's size
    /// is allocated.
    pub(crate) fn adopt(mut buf: Vec<u8>, image: Range<usize>, count: usize) -> Folder {
        let len = image.len();
        buf.copy_within(image, 0);
        buf.truncate(len);
        Folder(Repr::Large(Arena::new(buf, count)))
    }

    /// The live elements in wire form: what an encoder writes after the count.
    pub(crate) fn wire_image(&self) -> &[u8] {
        match &self.0 {
            Repr::Small(len, bytes) => &bytes[..usize::from(*len)],
            Repr::Large(arena) => &arena.data[arena.start(arena.head)..],
        }
    }

    /// The wire image, owned: the arena with its dead prefix dropped.
    pub(crate) fn into_wire_image(self) -> Vec<u8> {
        match self.0 {
            Repr::Small(..) => self.wire_image().to_vec(),
            Repr::Large(mut arena) => {
                arena.data.drain(..arena.start(arena.head));
                arena.data
            }
        }
    }

    /// Bytes of heap storage the arena holds, live or not; 0 for an image
    /// held in place (for tests of the bound an adopted arena keeps).
    #[doc(hidden)]
    pub fn arena_capacity(&self) -> usize {
        match &self.0 {
            Repr::Small(..) => 0,
            Repr::Large(arena) => arena.data.capacity(),
        }
    }

    /// The heap arena with room for `bytes` more bytes.  An image held in
    /// place is moved to the heap first, into blocks sized for it and for
    /// `elems` more elements in those bytes.
    ///
    /// # Panics
    ///
    /// Panics if the folder's storage would exceed `u32::MAX` bytes (the
    /// wire format's own length limit).
    fn arena(&mut self, bytes: usize, elems: usize) -> &mut Arena {
        let stored = match &self.0 {
            Repr::Small(len, _) => usize::from(*len),
            Repr::Large(arena) => arena.data.len(),
        };
        assert!(
            u32::try_from(stored + bytes).is_ok(),
            "a folder holds at most u32::MAX bytes"
        );
        if let Repr::Small(..) = self.0 {
            let image = self.wire_image();
            let count = ends(image).count();
            let mut arena = Arena {
                data: Vec::with_capacity(image.len() + bytes),
                ends: Vec::with_capacity((count + elems).saturating_sub(1)),
                head: 0,
            };
            arena.extend(image, count);
            self.0 = Repr::Large(arena);
        }
        match &mut self.0 {
            Repr::Large(arena) => {
                arena.data.reserve(bytes);
                arena
            }
            Repr::Small(..) => unreachable!("moved to the heap above"),
        }
    }

    /// Number of elements in the folder.
    pub fn len(&self) -> usize {
        match &self.0 {
            Repr::Small(..) => ends(self.wire_image()).count(),
            Repr::Large(arena) => arena.len(),
        }
    }

    /// Whether the folder has no elements.
    pub fn is_empty(&self) -> bool {
        self.wire_image().is_empty()
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
        self.push_parts(&[elem]);
    }

    /// Pushes on the back one element made of `parts` back to back, with
    /// no buffer to join them first.
    ///
    /// # Panics
    ///
    /// Panics if the folder's storage would exceed `u32::MAX` bytes (the
    /// wire format's own length limit).
    pub fn push_parts(&mut self, parts: &[&[u8]]) {
        let elem_len: usize = parts.iter().map(|part| part.len()).sum();
        let prefix = (elem_len as u32).to_le_bytes();
        if let Repr::Small(len, bytes) = &mut self.0 {
            let start = usize::from(*len);
            if PREFIX + elem_len <= SMALL - start {
                bytes[start..start + PREFIX].copy_from_slice(&prefix);
                let mut end = start + PREFIX;
                for part in parts {
                    bytes[end..end + part.len()].copy_from_slice(part);
                    end += part.len();
                }
                *len = end as u8;
                return;
            }
        }
        // One growth for prefix and bytes together: a folder built by a
        // single push is a single, exact block.
        let arena = self.arena(PREFIX + elem_len, 1);
        if !arena.data.is_empty() {
            arena.ends.push(arena.data.len() as u32);
        }
        arena.data.extend_from_slice(&prefix);
        for part in parts {
            arena.data.extend_from_slice(part);
        }
    }

    /// Pops the element from the back (stack pop).
    pub fn pop(&mut self) -> Option<FolderElem> {
        let elem = self.peek_back()?.to_vec();
        self.drop_back();
        Some(elem)
    }

    /// Removes the back element, which must exist.
    fn drop_back(&mut self) {
        let last = self.peek_back().map_or(0, <[u8]>::len);
        match &mut self.0 {
            Repr::Small(len, _) => *len -= (PREFIX + last) as u8,
            Repr::Large(arena) => arena.drop_back(),
        }
    }

    /// Adds an element at the back (queue enqueue, same end as `push`).
    pub fn enqueue(&mut self, elem: impl AsRef<[u8]>) {
        self.push(elem);
    }

    /// Removes the element at the front (queue dequeue).
    pub fn dequeue(&mut self) -> Option<FolderElem> {
        let elem = self.peek_front()?.to_vec();
        match &mut self.0 {
            Repr::Small(len, bytes) => {
                let first = PREFIX + elem.len();
                bytes.copy_within(first..usize::from(*len), 0);
                *len -= first as u8;
            }
            Repr::Large(arena) => {
                arena.head += 1;
                arena.reclaim();
            }
        }
        Some(elem)
    }

    /// The element at the back (what `pop` would return), without removing it.
    pub fn peek_back(&self) -> Option<&[u8]> {
        self.get(self.len().checked_sub(1)?)
    }

    /// The element at the front (what `dequeue` would return), without removing it.
    pub fn peek_front(&self) -> Option<&[u8]> {
        self.iter().next()
    }

    /// The element at position `idx` from the front.
    pub fn get(&self, idx: usize) -> Option<&[u8]> {
        match &self.0 {
            Repr::Small(..) => self.iter().nth(idx),
            Repr::Large(arena) => {
                let k = arena.head.checked_add(idx).filter(|_| idx < arena.len())?;
                Some(&arena.data[arena.start(k) + PREFIX..arena.start(k + 1)])
            }
        }
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
        match &mut self.0 {
            Repr::Small(len, _) => *len = 0,
            Repr::Large(arena) => {
                arena.data.clear();
                arena.ends.clear();
                arena.head = 0;
            }
        }
    }

    /// Appends all elements of `other`, leaving `other` empty.
    pub fn append(&mut self, other: &mut Folder) {
        let image = other.wire_image();
        match &mut self.0 {
            Repr::Small(len, bytes) if image.len() <= SMALL - usize::from(*len) => {
                let start = usize::from(*len);
                bytes[start..start + image.len()].copy_from_slice(image);
                *len += image.len() as u8;
            }
            _ => {
                let count = other.len();
                self.arena(image.len(), count).extend(image, count);
            }
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

impl fmt::Debug for Folder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
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

    /// The heap arena of a folder whose image has outgrown its place.
    fn heap(f: &Folder) -> &Arena {
        match &f.0 {
            Repr::Large(arena) => arena,
            Repr::Small(..) => panic!("the image is held in place"),
        }
    }

    /// The invariant `reclaim` maintains: a dead prefix, if any, is less
    /// than half of the arena.
    fn assert_mostly_live(f: &Folder) {
        let f = heap(f);
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
            assert_eq!(heap(&f).head as u64, i + 1, "no compaction yet");
        }
        f.dequeue();
        let arena = heap(&f);
        assert_eq!(
            (arena.head, arena.ends.len(), arena.data.len()),
            (0, 49, 600)
        );
        assert_eq!(f.peek_front(), Some(&50u64.to_le_bytes()[..]));
        assert_eq!(f.peek_u64(), Some(99));
        // A queue in steady state never holds more than twice its contents.
        for i in 100..10_000u64 {
            f.push_u64(i);
            f.dequeue();
            assert_mostly_live(&f);
            assert!(heap(&f).data.len() <= 2 * f.wire_image().len());
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
        let (a, b, c) = (vec![b'a'; 10], vec![b'b'; 40], vec![b'c'; 30]);
        let mut g = Folder::from_elems([a, b.clone(), c]);
        g.dequeue();
        g.pop();
        assert_eq!((g.get(0), g.len(), heap(&g).head), (Some(&b[..]), 1, 1));
        g.pop();
        let arena = heap(&g);
        assert_eq!((arena.head, arena.ends.len(), arena.data.len()), (0, 0, 0));
    }

    #[test]
    fn equality_ignores_the_arena_layout() {
        let (x, y) = (vec![b'x'; 30], vec![b'y'; 30]);
        let mut a = Folder::from_elems([b"gone".to_vec(), x.clone(), y.clone()]);
        a.dequeue();
        let b = Folder::from_elems([x.clone(), y.clone()]);
        assert_ne!(heap(&a).head, heap(&b).head);
        assert_eq!(a, b);
        assert_eq!(a.clone(), b);
        // Same bytes, different element boundaries.
        let (xy, z) = ([&x[..], b"y"].concat(), vec![b'y'; 29]);
        assert_ne!(b, Folder::from_elems([xy, z]));
        assert_ne!(b, Folder::from_elems([x.clone()]));
        // Popped back within the limit, a heap arena equals an image held
        // in place; so does a small image copied out of a larger one.
        a.pop();
        let small = Folder::single(&x[..20]);
        assert_eq!(small.arena_capacity(), 0);
        let mut shrunk = Folder::single(&x[..20]);
        shrunk.push_bytes(&y);
        shrunk.pop();
        assert!(shrunk.arena_capacity() > 0);
        assert_eq!(shrunk, small);
        assert_ne!(a, small);
        a.pop();
        a.push_bytes(&x[..20]);
        assert_eq!(a, small);
    }

    #[test]
    fn a_small_image_is_held_in_place_until_a_push_outgrows_it() {
        // Prefixes count: 3 + 4 + 3 + 4 + ... up to 47 bytes of image.
        let mut f = Folder::new();
        for _ in 0..6 {
            f.push_bytes(b"abc");
        }
        f.push_bytes(b"");
        assert_eq!((f.wire_image().len(), f.arena_capacity()), (46, 0));
        f.dequeue();
        f.push_bytes(b"defg");
        assert_eq!((f.wire_image().len(), f.arena_capacity()), (47, 0));
        assert_eq!(f.len(), 7);
        f.push_bytes(b"");
        assert_eq!(f.wire_image().len(), 51);
        assert!(f.arena_capacity() >= 51);
        assert_eq!(f.get(6), Some(&b"defg"[..]));
        assert_eq!(f.pop(), Some(Vec::new()));
        assert_eq!(f.pop(), Some(b"defg".to_vec()));
        assert_eq!(f.dequeue(), Some(b"abc".to_vec()));
        assert_eq!(f.len(), 5);
        // Appending spills the same way, in one block.
        let mut g = Folder::of_str("0123456789");
        let mut h = Folder::from_elems([vec![7; 20], vec![8; 9]]);
        g.append(&mut h);
        assert!(h.is_empty() && g.arena_capacity() == 14 + 24 + 13);
        assert_eq!(g.len(), 3);
        assert_eq!(g.get(2), Some(&[8; 9][..]));
    }
}
