//! File cabinets: site-local folder groupings.
//!
//! The paper (§2) distinguishes the folders an agent carries (its briefcase)
//! from *site-local* folders that stay behind: they "allow more efficient use
//! of network bandwidth" and "allow communication between agents that are not
//! simultaneously resident at a given site".  Groupings of site-local folders
//! are called *file cabinets*; unlike briefcases, cabinets are rarely moved,
//! so they may be implemented with structures that optimise access time even
//! if that makes them more expensive to move.  The prototype (§6) notes that
//! cabinets "can be flushed to disk when permanence is required".
//!
//! Our [`FileCabinet`] keeps, besides the folders themselves, an inverted
//! index from element bytes to folder names — deliberately the kind of
//! access-accelerating structure the paper says briefcases must *not* carry —
//! and supports snapshot/restore to model flushing to stable storage.

use crate::folder::{Folder, FolderElem};
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::collections::BTreeMap;

/// A site-local grouping of named folders with an access index.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FileCabinet {
    folders: BTreeMap<String, Folder>,
    /// Inverted index: element bytes → names of the folders containing
    /// them, each with how many copies it holds (so removing one copy never
    /// has to rescan the folder to learn whether it was the last).
    index: BTreeMap<FolderElem, BTreeMap<String, usize>>,
}

impl FileCabinet {
    /// Creates an empty cabinet.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of folders in the cabinet.
    pub fn len(&self) -> usize {
        self.folders.len()
    }

    /// Whether the cabinet holds no folders.
    pub fn is_empty(&self) -> bool {
        self.folders.is_empty()
    }

    /// Whether a folder with the given name exists.
    pub fn contains(&self, name: &str) -> bool {
        self.folders.contains_key(name)
    }

    /// Read access to a folder.
    pub fn folder_ref(&self, name: &str) -> Option<&Folder> {
        self.folders.get(name)
    }

    /// Appends an element to a named folder, creating the folder if needed.
    /// The index keeps `elem` itself when it is new.
    pub fn append(&mut self, name: &str, elem: impl Into<FolderElem>) {
        let elem = elem.into();
        // The name is copied only to create the folder.
        let folder = match self.folders.get_mut(name) {
            Some(folder) => folder,
            None => self.folders.entry(name.to_string()).or_default(),
        };
        folder.push_bytes(&elem);
        index_add(&mut self.index, name, Cow::Owned(elem));
    }

    /// Appends to a named folder one element made of `parts` back to back,
    /// creating the folder if needed.  The folder's copy is what the index
    /// is searched with, so only a new folder, element or name allocates,
    /// beyond the folder's own growth.
    pub fn append_parts(&mut self, name: &str, parts: &[&[u8]]) {
        // The name is copied only to create the folder.
        let folder = match self.folders.get_mut(name) {
            Some(folder) => folder,
            None => self.folders.entry(name.to_string()).or_default(),
        };
        folder.push_parts(parts);
        let elem = folder.peek_back().expect("an element was just pushed");
        index_add(&mut self.index, name, Cow::Borrowed(elem));
    }

    /// Appends a string element to a named folder.
    pub fn append_str(&mut self, name: &str, s: impl AsRef<str>) {
        self.append_parts(name, &[s.as_ref().as_bytes()]);
    }

    /// Replaces a folder wholesale (rebuilding index entries).
    pub fn put(&mut self, name: impl Into<String>, folder: Folder) {
        let name = name.into();
        self.remove_from_index(&name);
        for elem in folder.iter() {
            index_add(&mut self.index, &name, Cow::Borrowed(elem));
        }
        self.folders.insert(name, folder);
    }

    /// Removes and returns a folder.
    pub fn take(&mut self, name: &str) -> Option<Folder> {
        self.remove_from_index(name);
        self.folders.remove(name)
    }

    /// Pops the last element of a named folder (stack discipline).
    pub fn pop(&mut self, name: &str) -> Option<FolderElem> {
        let elem = self.folders.get_mut(name)?.pop()?;
        self.index_remove_copy(name, &elem);
        Some(elem)
    }

    /// Dequeues the first element of a named folder (queue discipline).
    pub fn dequeue(&mut self, name: &str) -> Option<FolderElem> {
        let elem = self.folders.get_mut(name)?.dequeue()?;
        self.index_remove_copy(name, &elem);
        Some(elem)
    }

    /// Records that folder `name` lost one copy of `elem`.  An identical
    /// element may appear in the folder more than once; the index entry goes
    /// only with the last copy.
    fn index_remove_copy(&mut self, name: &str, elem: &[u8]) {
        let Some(names) = self.index.get_mut(elem) else {
            return;
        };
        if let Some(copies) = names.get_mut(name) {
            *copies -= 1;
            if *copies == 0 {
                names.remove(name);
            }
        }
        if names.is_empty() {
            self.index.remove(elem);
        }
    }

    /// Whether any folder of the cabinet contains the given element — an
    /// indexed lookup, O(log n), the access-time optimisation cabinets are
    /// allowed to have.
    pub fn contains_elem(&self, elem: &[u8]) -> bool {
        self.index.contains_key(elem)
    }

    /// Whether a *specific folder* contains the element (still indexed).
    pub fn folder_contains(&self, name: &str, elem: &[u8]) -> bool {
        self.index
            .get(elem)
            .is_some_and(|names| names.contains_key(name))
    }

    /// Names of all folders, in order.
    pub fn names(&self) -> Vec<&str> {
        self.folders.keys().map(|k| k.as_str()).collect()
    }

    /// Total payload bytes stored in the cabinet (excluding the index).
    pub fn payload_bytes(&self) -> usize {
        self.folders
            .iter()
            .map(|(k, v)| k.len() + v.payload_bytes())
            .sum()
    }

    /// Serializes the cabinet's folders to a stable-storage snapshot
    /// ("flushed to disk when permanence is required", §6).  The index is not
    /// stored; it is rebuilt on restore.
    pub fn snapshot(&self) -> Vec<u8> {
        crate::codec::encode_folders(self.folders.iter().map(|(k, v)| (k.as_bytes(), v)))
    }

    /// Rebuilds a cabinet from a snapshot produced by [`FileCabinet::snapshot`].
    pub fn restore(snapshot: &[u8]) -> Result<Self, crate::error::TacomaError> {
        let bc = crate::codec::decode_briefcase(snapshot)?;
        let mut cab = FileCabinet::new();
        for (name, folder) in bc.iter() {
            cab.put(name.to_string(), folder.clone());
        }
        Ok(cab)
    }

    /// The cost (in bytes) of moving this cabinet to another site: the
    /// snapshot plus the rebuilt index, making cabinets measurably more
    /// expensive to move than briefcases of the same content (E4).
    pub fn move_cost_bytes(&self) -> usize {
        let index_bytes: usize = self
            .index
            .iter()
            .map(|(elem, names)| elem.len() + names.keys().map(|n| n.len() + 8).sum::<usize>())
            .sum();
        self.snapshot().len() + index_bytes
    }

    fn remove_from_index(&mut self, name: &str) {
        if let Some(folder) = self.folders.get(name) {
            for elem in folder.iter() {
                if let Some(names) = self.index.get_mut(elem) {
                    names.remove(name);
                    if names.is_empty() {
                        self.index.remove(elem);
                    }
                }
            }
        }
    }
}

/// Records one more copy of `elem` in folder `name`, allocating only for a
/// name the index has not seen, or for a new element it does not own yet.
fn index_add(
    index: &mut BTreeMap<FolderElem, BTreeMap<String, usize>>,
    name: &str,
    elem: Cow<'_, [u8]>,
) {
    let names = match index.get_mut(&*elem) {
        Some(names) => names,
        None => index.entry(elem.into_owned()).or_default(),
    };
    match names.get_mut(name) {
        Some(copies) => *copies += 1,
        None => {
            names.insert(name.to_string(), 1);
        }
    }
}

/// All file cabinets of one site, keyed by cabinet name.
///
/// The paper groups site-local folders into cabinets; a site may have several
/// (the scheduling service and the mail application each keep their own).
/// They are few, so they sit in a vector sorted by name, where one binary
/// search finds a cabinet or the place to create it.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct CabinetStore {
    cabinets: Vec<(String, FileCabinet)>,
}

impl CabinetStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Where the cabinet called `name` is, or where it would go.
    fn search(&self, name: &str) -> Result<usize, usize> {
        self.cabinets
            .binary_search_by(|(key, _)| key.as_str().cmp(name))
    }

    /// Access to a cabinet, creating it empty if absent.  The name is
    /// copied only to create the cabinet.
    pub fn cabinet(&mut self, name: &str) -> &mut FileCabinet {
        let at = self.search(name).unwrap_or_else(|at| {
            let fresh = (name.to_string(), FileCabinet::default());
            self.cabinets.insert(at, fresh);
            at
        });
        &mut self.cabinets[at].1
    }

    /// Read-only access to a cabinet if it exists.
    pub fn get(&self, name: &str) -> Option<&FileCabinet> {
        let at = self.search(name).ok()?;
        Some(&self.cabinets[at].1)
    }

    /// Whether a cabinet with the given name exists.
    pub fn contains(&self, name: &str) -> bool {
        self.search(name).is_ok()
    }

    /// Inserts (or replaces) a whole cabinet under the given name.
    pub fn put_cabinet(&mut self, name: impl Into<String>, cabinet: FileCabinet) {
        let name = name.into();
        match self.search(&name) {
            Ok(at) => self.cabinets[at].1 = cabinet,
            Err(at) => self.cabinets.insert(at, (name, cabinet)),
        }
    }

    /// Names of all cabinets, in order.
    pub fn names(&self) -> Vec<&str> {
        self.cabinets.iter().map(|(k, _)| k.as_str()).collect()
    }

    /// Removes every cabinet (volatile state lost in a crash).
    pub fn clear(&mut self) {
        self.cabinets.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn append_and_indexed_lookup() {
        let mut cab = FileCabinet::new();
        cab.append_str("VISITED", "site1");
        cab.append_str("VISITED", "site2");
        assert!(cab.contains_elem(b"site1"));
        assert!(cab.folder_contains("VISITED", b"site2"));
        assert!(!cab.contains_elem(b"site9"));
        assert!(!cab.folder_contains("OTHER", b"site1"));
        assert_eq!(cab.folder_ref("VISITED").unwrap().len(), 2);
    }

    #[test]
    fn pop_and_dequeue_update_index() {
        let mut cab = FileCabinet::new();
        cab.append_str("Q", "a");
        cab.append_str("Q", "b");
        assert_eq!(cab.dequeue("Q").unwrap(), b"a");
        assert!(!cab.contains_elem(b"a"));
        assert!(cab.contains_elem(b"b"));
        assert_eq!(cab.pop("Q").unwrap(), b"b");
        assert!(!cab.contains_elem(b"b"));
        assert!(cab.pop("Q").is_none());
        assert!(cab.dequeue("MISSING").is_none());
    }

    #[test]
    fn duplicate_elements_keep_index_until_last_copy_gone() {
        let mut cab = FileCabinet::new();
        cab.append_str("F", "dup");
        cab.append_str("F", "dup");
        cab.pop("F");
        assert!(cab.contains_elem(b"dup"), "one copy remains");
        cab.pop("F");
        assert!(!cab.contains_elem(b"dup"));
    }

    /// The index a cabinet holding exactly these folders must have.
    fn rebuilt_index(cab: &FileCabinet) -> BTreeMap<FolderElem, BTreeMap<String, usize>> {
        let mut fresh = FileCabinet::new();
        for (name, folder) in &cab.folders {
            fresh.put(name.clone(), folder.clone());
        }
        fresh.index
    }

    #[test]
    fn draining_a_large_folder_keeps_the_index_exact() {
        // 50 000 removals, each O(log n): the rescan this replaced made the
        // drain quadratic.  Every value appears four times, so entries must
        // outlive their first three removals.
        const N: usize = 50_000;
        let mut cab = FileCabinet::new();
        for i in 0..N {
            cab.append_str("Q", format!("v{}", i % (N / 4)));
            cab.append_str("OTHER", format!("v{}", i % 7));
        }
        assert_eq!(cab.index, rebuilt_index(&cab));
        for step in 0..N {
            let gone = if step % 3 == 0 {
                cab.pop("Q")
            } else {
                cab.dequeue("Q")
            }
            .expect("still draining");
            if step % 1_000 == 0 {
                let left = cab.folder_ref("Q").unwrap().contains_elem(&gone);
                assert_eq!(cab.folder_contains("Q", &gone), left, "step {step}");
                assert_eq!(cab.index, rebuilt_index(&cab), "step {step}");
            }
        }
        assert!(cab.pop("Q").is_none());
        assert_eq!(cab.index, rebuilt_index(&cab));
        assert!(
            cab.folder_contains("OTHER", b"v3"),
            "other folders untouched"
        );
        assert!(!cab.folder_contains("Q", b"v3"));
    }

    #[test]
    fn put_and_take_rebuild_index() {
        let mut cab = FileCabinet::new();
        cab.put("F", Folder::from_elems([b"x".to_vec(), b"y".to_vec()]));
        assert!(cab.contains_elem(b"x"));
        cab.put("F", Folder::of_str("z"));
        assert!(
            !cab.contains_elem(b"x"),
            "replaced folder's elements leave the index"
        );
        assert!(cab.contains_elem(b"z"));
        let taken = cab.take("F").unwrap();
        assert_eq!(taken.strings(), vec!["z"]);
        assert!(!cab.contains_elem(b"z"));
        assert!(cab.is_empty());
    }

    #[test]
    fn snapshot_restore_round_trip() {
        let mut cab = FileCabinet::new();
        cab.append_str("MAIL", "msg1");
        cab.append("BLOB", vec![0u8, 1, 2]);
        let snap = cab.snapshot();
        let restored = FileCabinet::restore(&snap).unwrap();
        assert_eq!(restored.names(), vec!["BLOB", "MAIL"]);
        assert!(restored.contains_elem(b"msg1"), "index rebuilt on restore");
        assert_eq!(restored.payload_bytes(), cab.payload_bytes());
        assert!(FileCabinet::restore(&snap[..snap.len() - 1]).is_err());
    }

    #[test]
    fn move_cost_exceeds_snapshot_size() {
        let mut cab = FileCabinet::new();
        for i in 0..100 {
            cab.append_str("DATA", format!("element-{i}"));
        }
        assert!(cab.move_cost_bytes() > cab.snapshot().len());
    }

    #[test]
    fn cabinet_store_lifecycle() {
        let mut store = CabinetStore::new();
        store.cabinet("scheduler").append_str("LOAD", "0.5");
        store.cabinet("mail").append_str("INBOX", "hello");
        assert!(store.contains("scheduler"));
        assert_eq!(store.names(), vec!["mail", "scheduler"]);
        assert!(store.get("mail").is_some());
        assert!(store.get("nope").is_none());
        assert!(store.cabinet("mail").contains_elem(b"hello"));
        store.clear();
        assert!(store.names().is_empty());
    }
}
