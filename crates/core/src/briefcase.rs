//! Briefcases: the named folder collections that travel with agents.
//!
//! The paper (§2) associates a *briefcase* with each agent so that "its future
//! actions \[can\] depend on its past ones", and uses a briefcase as the
//! argument list of a `meet` (each folder is one argument).  A briefcase must
//! be cheap to serialize and ship, since that happens on every migration.

use crate::folder::Folder;
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use tacoma_util::Name;

/// A collection of named folders.
///
/// Folder names are ordinary strings; lookups are by exact name.  The folders
/// sit in one vector sorted by name — a briefcase holds a handful, so a
/// binary search beats a tree and the whole collection is one heap block —
/// which keeps serialization and wire sizes deterministic.  A name is a
/// [`Name`]: the well-known names agents use are string literals and cost
/// nothing to store, and a short name read off the wire is stored in place.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Briefcase {
    /// Strictly ascending by name.
    folders: Vec<(Name, Folder)>,
}

impl Briefcase {
    /// Creates an empty briefcase.
    pub fn new() -> Self {
        Self::default()
    }

    /// A briefcase of `folders`, which are strictly ascending by name (what
    /// a decoder has once it has checked the order the wire promises).
    pub(crate) fn from_sorted(folders: Vec<(Name, Folder)>) -> Self {
        debug_assert!(folders.windows(2).all(|pair| pair[0].0 < pair[1].0));
        Briefcase { folders }
    }

    /// The folder at position `at` in name order, which must exist: where
    /// the codec takes an arena out and puts an adopted one back.
    pub(crate) fn nth_mut(&mut self, at: usize) -> &mut Folder {
        &mut self.folders[at].1
    }

    /// Number of folders in the briefcase.
    pub fn len(&self) -> usize {
        self.folders.len()
    }

    /// Whether the briefcase holds no folders.
    pub fn is_empty(&self) -> bool {
        self.folders.is_empty()
    }

    /// Where the folder `name` is (`Ok`) or would be inserted (`Err`).
    fn find(&self, name: &[u8]) -> Result<usize, usize> {
        find(&self.folders, name)
    }

    /// Whether a folder with the given name exists.
    pub fn contains(&self, name: &str) -> bool {
        self.find(name.as_bytes()).is_ok()
    }

    /// Read access to a folder, if present.
    pub fn folder(&self, name: &str) -> Option<&Folder> {
        self.find(name.as_bytes())
            .ok()
            .map(|at| &self.folders[at].1)
    }

    /// The folder `find` looked for, created empty under `name()` where it
    /// belongs if it was absent.
    fn entry(&mut self, found: Result<usize, usize>, name: impl FnOnce() -> Name) -> &mut Folder {
        let at = found.unwrap_or_else(|at| {
            self.folders.insert(at, (name(), Folder::new()));
            at
        });
        &mut self.folders[at].1
    }

    /// Mutable access to a folder, creating an empty one if absent.
    pub fn folder_mut(&mut self, name: &str) -> &mut Folder {
        self.entry(self.find(name.as_bytes()), || Name::copied(name))
    }

    /// Inserts (or replaces) a folder under the given name.
    pub fn put(&mut self, name: impl Into<Cow<'static, str>>, folder: Folder) -> Option<Folder> {
        let name = Name::from(name.into());
        match self.find(name.as_bytes()) {
            Ok(at) => Some(std::mem::replace(&mut self.folders[at].1, folder)),
            Err(at) => {
                self.folders.insert(at, (name, folder));
                None
            }
        }
    }

    /// Removes and returns a folder.
    pub fn take(&mut self, name: &str) -> Option<Folder> {
        self.find(name.as_bytes())
            .ok()
            .map(|at| self.folders.remove(at).1)
    }

    /// Removes a folder, returning an error-friendly `Option` of its single
    /// string element (convenience for `HOST`/`CONTACT`-style folders).
    pub fn take_string(&mut self, name: &str) -> Option<String> {
        self.take(name).and_then(|mut f| f.pop_str())
    }

    /// Reads the top element of a folder without copying or consuming it.
    pub fn peek(&self, name: &str) -> Option<&[u8]> {
        self.folder(name).and_then(|f| f.peek_back())
    }

    /// Reads the top string element of a folder without consuming it.
    pub fn peek_string(&self, name: &str) -> Option<String> {
        self.folder(name).and_then(|f| f.peek_str())
    }

    /// Reads the top `u64` element of a folder without consuming it.
    pub fn peek_u64(&self, name: &str) -> Option<u64> {
        self.folder(name).and_then(|f| f.peek_u64())
    }

    /// Convenience: creates/overwrites a folder holding a single string.
    pub fn put_string(&mut self, name: impl Into<Cow<'static, str>>, value: impl AsRef<str>) {
        self.put(name, Folder::of_str(value));
    }

    /// Convenience: creates/overwrites a folder holding a single `u64`.
    pub fn put_u64(&mut self, name: impl Into<Cow<'static, str>>, value: u64) {
        let mut f = Folder::new();
        f.push_u64(value);
        self.put(name, f);
    }

    /// Iterates over `(name, folder)` pairs in name order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (&str, &Folder)> + Clone {
        self.folders.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// `(name, folder)` pairs in name order, each name as its UTF-8 bytes:
    /// what the encoder writes, without checking again that it is UTF-8.
    pub(crate) fn wire_folders(&self) -> impl ExactSizeIterator<Item = (&[u8], &Folder)> + Clone {
        self.folders.iter().map(|(k, v)| (k.as_bytes(), v))
    }

    /// The folder names, in order.
    pub fn names(&self) -> Vec<&str> {
        self.iter().map(|(name, _)| name).collect()
    }

    /// Merges every folder of `other` into this briefcase.  Folders with the
    /// same name are concatenated (other's elements appended).
    pub fn merge(&mut self, other: Briefcase) {
        let mine = self.folders.len();
        for (name, mut folder) in other.folders {
            match find(&self.folders[..mine], name.as_bytes()) {
                Ok(at) => self.folders[at].1.append(&mut folder),
                Err(_) => self.folders.push((name, folder)),
            }
        }
        // The new folders are a second ascending run behind the first, so
        // the stable sort merges the two in one pass rather than each
        // insertion shifting the tail.
        if self.folders.len() > mine {
            self.folders.sort_by(|a, b| a.0.cmp(&b.0));
        }
    }

    /// Total payload bytes across all folders (excluding framing).
    pub fn payload_bytes(&self) -> usize {
        self.iter().map(|(k, v)| k.len() + v.payload_bytes()).sum()
    }

    /// The number of bytes this briefcase occupies on the wire when encoded
    /// with the TACOMA codec (see [`crate::codec`]).
    pub fn wire_size(&self) -> usize {
        crate::codec::briefcase_encoded_len(self)
    }
}

/// Where the folder `name` is (`Ok`) or would be inserted (`Err`) among
/// `folders`, strictly ascending by name.
fn find(folders: &[(Name, Folder)], name: &[u8]) -> Result<usize, usize> {
    folders.binary_search_by(|(n, _)| n.as_bytes().cmp(name))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_get_take() {
        let mut bc = Briefcase::new();
        assert!(bc.is_empty());
        bc.put_string("HOST", "site3");
        bc.put_u64("HOPS", 4);
        assert_eq!(bc.len(), 2);
        assert!(bc.contains("HOST"));
        assert_eq!(bc.peek_string("HOST").as_deref(), Some("site3"));
        assert_eq!(bc.peek_u64("HOPS"), Some(4));
        assert_eq!(bc.take_string("HOST").as_deref(), Some("site3"));
        assert!(!bc.contains("HOST"));
        assert!(bc.take("HOST").is_none());
    }

    #[test]
    fn folder_mut_creates_on_demand() {
        let mut bc = Briefcase::new();
        bc.folder_mut("RESULTS").push_str("r1");
        bc.folder_mut("RESULTS").push_str("r2");
        assert_eq!(bc.folder("RESULTS").unwrap().len(), 2);
        assert!(bc.folder("MISSING").is_none());
    }

    #[test]
    fn put_replaces_and_returns_old() {
        let mut bc = Briefcase::new();
        bc.put_string("X", "old");
        let old = bc.put("X", Folder::of_str("new")).unwrap();
        assert_eq!(old.strings(), vec!["old"]);
        assert_eq!(bc.peek_string("X").as_deref(), Some("new"));
    }

    #[test]
    fn merge_concatenates_same_name() {
        let mut a = Briefcase::new();
        a.folder_mut("SITES").push_str("site0");
        let mut b = Briefcase::new();
        b.folder_mut("SITES").push_str("site1");
        b.put_string("EXTRA", "e");
        a.merge(b);
        assert_eq!(a.folder("SITES").unwrap().strings(), vec!["site0", "site1"]);
        assert!(a.contains("EXTRA"));
        assert_eq!(a.names(), vec!["EXTRA", "SITES"]);
    }

    #[test]
    fn names_are_sorted_and_iteration_matches() {
        let mut bc = Briefcase::new();
        bc.put_string("B", "2");
        bc.put_string("A", "1");
        bc.put_string("C", "3");
        assert_eq!(bc.names(), vec!["A", "B", "C"]);
        let via_iter: Vec<&str> = bc.iter().map(|(n, _)| n).collect();
        assert_eq!(via_iter, vec!["A", "B", "C"]);
    }

    #[test]
    fn payload_and_wire_sizes_grow_with_content() {
        let mut bc = Briefcase::new();
        let empty_wire = bc.wire_size();
        bc.folder_mut("DATA").push(vec![0u8; 1000]);
        assert!(bc.payload_bytes() >= 1000);
        assert!(bc.wire_size() > empty_wire + 1000);
    }
}
