//! Strongly typed identifiers used across the TACOMA reproduction.
//!
//! The paper's model has two kinds of named entities: *sites* (the places
//! agents execute, one Tcl interpreter per site in the prototype) and
//! *agents*.  System agents additionally have well-known *names* (`rexec`,
//! `broker`, ...), which is how other agents find them — the paper's §2 notes
//! that services for agents are provided directly by other agents addressed
//! by name.

use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::fmt;
use std::hash::{BuildHasherDefault, Hash, Hasher};

/// Identifier of a site (a place where agents execute).
///
/// Sites are dense small integers assigned by the network simulator, which
/// makes them convenient indices into per-site vectors.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct SiteId(pub u32);

impl SiteId {
    /// Returns the site id as a usable vector index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for SiteId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "site{}", self.0)
    }
}

impl From<u32> for SiteId {
    fn from(v: u32) -> Self {
        SiteId(v)
    }
}

/// Unique identifier of an agent *instance*.
///
/// Each time an agent is created (including a migrated or cloned copy) it gets
/// a fresh `AgentId`; the lineage is tracked by the runtime where needed
/// (e.g. rear guards in the fault-tolerance crate).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct AgentId(pub u64);

impl AgentId {
    /// A reserved id used by the runtime itself (e.g. kernel-initiated meets).
    pub const SYSTEM: AgentId = AgentId(0);

    /// Returns true if this is the reserved system id.
    pub fn is_system(self) -> bool {
        self.0 == 0
    }
}

impl fmt::Display for AgentId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "agent{}", self.0)
    }
}

/// A short string that takes a heap block only when it must: a string
/// literal is borrowed, a name of up to [`Name::INLINE`] bytes is stored in
/// place, and only a longer one is boxed.  Agent names and folder names are
/// of this kind, so a name read off the wire costs no allocation.
///
/// Equality, ordering and hashing are those of the text (byte order), not
/// of how it is stored.
#[derive(Clone)]
pub struct Name(Repr);

#[derive(Clone)]
enum Repr {
    Literal(&'static str),
    /// The length, then the bytes.
    Inline(u8, [u8; Name::INLINE]),
    Boxed(Box<str>),
}

impl Name {
    /// The longest name stored in place: with the length byte and the
    /// variant tag, a `Name` is as large as a `&str` plus a word.
    pub const INLINE: usize = 22;

    /// A copy of `s`: in place when it is short enough, boxed otherwise.
    #[inline]
    pub fn copied(s: &str) -> Name {
        if s.len() > Name::INLINE {
            return Name(Repr::Boxed(s.into()));
        }
        let mut bytes = [0; Name::INLINE];
        bytes[..s.len()].copy_from_slice(s.as_bytes());
        Name(Repr::Inline(s.len() as u8, bytes))
    }

    /// The name as a string slice.
    #[inline]
    pub fn as_str(&self) -> &str {
        match &self.0 {
            Repr::Literal(s) => s,
            Repr::Inline(..) => {
                std::str::from_utf8(self.as_bytes()).expect("an inline name is copied from a str")
            }
            Repr::Boxed(s) => s,
        }
    }

    /// The name's UTF-8 bytes.
    #[inline]
    pub fn as_bytes(&self) -> &[u8] {
        match &self.0 {
            Repr::Literal(s) => s.as_bytes(),
            Repr::Inline(len, bytes) => &bytes[..usize::from(*len)],
            Repr::Boxed(s) => s.as_bytes(),
        }
    }
}

impl From<&'static str> for Name {
    #[inline]
    fn from(s: &'static str) -> Self {
        Name(Repr::Literal(s))
    }
}

impl From<String> for Name {
    #[inline]
    fn from(s: String) -> Self {
        if s.len() <= Name::INLINE {
            Name::copied(&s)
        } else {
            Name(Repr::Boxed(s.into_boxed_str()))
        }
    }
}

impl From<Cow<'static, str>> for Name {
    #[inline]
    fn from(s: Cow<'static, str>) -> Self {
        match s {
            Cow::Borrowed(s) => Name::from(s),
            Cow::Owned(s) => Name::from(s),
        }
    }
}

impl PartialEq for Name {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

impl Eq for Name {}

impl PartialOrd for Name {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Name {
    #[inline]
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.as_bytes().cmp(other.as_bytes())
    }
}

impl Hash for Name {
    /// As `str` hashes: the bytes, then `0xff`.
    #[inline]
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write(self.as_bytes());
        state.write_u8(0xff);
    }
}

impl fmt::Debug for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

impl fmt::Display for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Well-known name of an agent, used to address it in a `meet`.
///
/// The paper addresses system agents by name (`rexec`, `ag_tcl`, brokers);
/// this is a thin newtype over a [`Name`] so briefcase folders can carry
/// agent names as uninterpreted bytes and the runtime can still compare them
/// cheaply.  The well-known names are string literals, which it borrows:
/// naming an agent on every meet allocates nothing, and neither does
/// reading a short one off the wire.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct AgentName(pub Name);

impl AgentName {
    /// Creates an agent name from a string literal or an owned string
    /// (borrowed text that is not `'static` goes through `From<&str>`).
    #[inline]
    pub fn new(name: impl Into<Cow<'static, str>>) -> Self {
        AgentName(Name::from(name.into()))
    }

    /// Returns the name as a string slice.
    #[inline]
    pub fn as_str(&self) -> &str {
        self.0.as_str()
    }
}

impl fmt::Display for AgentName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&self.0, f)
    }
}

impl From<&str> for AgentName {
    #[inline]
    fn from(s: &str) -> Self {
        AgentName(Name::copied(s))
    }
}

impl From<String> for AgentName {
    fn from(s: String) -> Self {
        AgentName(Name::from(s))
    }
}

/// A multiply-xor hasher for maps and sets keyed by the program's own ids
/// (site pairs on the simulator's send path), where SipHash costs more than
/// the lookup it guards.  It has no defence against chosen keys: use it only
/// for keys the program makes itself, never for input from outside.
#[derive(Debug, Clone, Copy, Default)]
pub struct IdHasher(u64);

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.write_u64(u64::from(byte));
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn finish(&self) -> u64 {
        // The product's high bits are its best mixed; tables index by the low.
        self.0.rotate_left(26)
    }
}

/// `BuildHasher` for [`IdHasher`]: the `S` of a `HashMap<K, V, S>`.
pub type IdBuildHasher = BuildHasherDefault<IdHasher>;

/// A monotonic generator of fresh [`AgentId`]s.
///
/// Each [`crate::ids::AgentId`] is unique per generator; the TACOMA system
/// owns a single generator so ids are globally unique within a simulation.
#[derive(Debug, Default, Clone, Serialize, Deserialize)]
pub struct AgentIdGen {
    next: u64,
}

impl AgentIdGen {
    /// Creates a generator whose first issued id is 1 (0 is reserved).
    pub fn new() -> Self {
        AgentIdGen { next: 1 }
    }

    /// Issues a fresh agent id.
    pub fn fresh(&mut self) -> AgentId {
        if self.next == 0 {
            self.next = 1;
        }
        let id = AgentId(self.next);
        self.next += 1;
        id
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn site_display_and_index() {
        let s = SiteId(7);
        assert_eq!(s.to_string(), "site7");
        assert_eq!(s.index(), 7);
        assert_eq!(SiteId::from(3u32), SiteId(3));
    }

    #[test]
    fn agent_id_gen_is_monotonic_and_skips_zero() {
        let mut g = AgentIdGen::new();
        let a = g.fresh();
        let b = g.fresh();
        assert!(a.0 > 0);
        assert!(b.0 > a.0);
        assert!(!a.is_system());
        assert!(AgentId::SYSTEM.is_system());
    }

    #[test]
    fn default_gen_never_issues_system_id() {
        let mut g = AgentIdGen::default();
        assert!(!g.fresh().is_system());
    }

    #[test]
    fn agent_name_round_trips() {
        let n = AgentName::new("rexec");
        assert_eq!(n.as_str(), "rexec");
        assert_eq!(n.to_string(), "rexec");
        assert_eq!(AgentName::from("rexec"), n);
        assert_eq!(AgentName::from(String::from("rexec")), n);
    }

    #[test]
    fn a_name_is_its_text_however_it_is_stored() {
        let long = "a-name-longer-than-twenty-two-bytes";
        for text in [
            "",
            "x",
            "rexec",
            &"y".repeat(Name::INLINE),
            &"z".repeat(23),
            long,
        ] {
            let copied = Name::copied(text);
            let owned = Name::from(text.to_string());
            assert_eq!(copied.as_str(), text);
            assert_eq!(copied.as_bytes(), text.as_bytes());
            assert_eq!(
                (copied.to_string(), format!("{copied:?}")),
                (text.to_string(), format!("{text:?}"))
            );
            assert_eq!(owned, copied);
            let hash = |value: &dyn Fn(&mut std::collections::hash_map::DefaultHasher)| {
                let mut h = std::collections::hash_map::DefaultHasher::new();
                value(&mut h);
                h.finish()
            };
            assert_eq!(hash(&|h| copied.hash(h)), hash(&|h| text.hash(h)));
        }
        let stored = |n: &Name| match n.0 {
            Repr::Literal(_) => "literal",
            Repr::Inline(..) => "inline",
            Repr::Boxed(_) => "boxed",
        };
        assert_eq!(stored(&Name::from("rexec")), "literal");
        assert_eq!(stored(&Name::copied(&"y".repeat(Name::INLINE))), "inline");
        assert_eq!(stored(&Name::from("z".repeat(23))), "boxed");
        assert_eq!(Name::from("rexec"), Name::copied("rexec"));
        assert_eq!(
            std::mem::size_of::<Name>(),
            std::mem::size_of::<Cow<'static, str>>()
        );
    }

    #[test]
    fn names_order_as_their_bytes() {
        let texts = ["", "A", "AB", "B", "a", &"b".repeat(30), "é", "\u{7f}"];
        for a in texts {
            for b in texts {
                let (x, y) = (Name::copied(a), Name::from(b.to_string()));
                assert_eq!(x.cmp(&y), a.cmp(b), "{a:?} vs {b:?}");
                assert_eq!(x == y, a == b);
            }
        }
    }

    #[test]
    fn id_hasher_spreads_dense_site_pairs() {
        use std::hash::BuildHasher;
        // Every (from, to) pair of a 64-site clique: no two share a hash, and
        // the low seven bits (a small table's index) use every value.
        let mut hashes = Vec::new();
        for a in 0..64u32 {
            for b in 0..64u32 {
                hashes.push(IdBuildHasher::default().hash_one((SiteId(a), SiteId(b))));
            }
        }
        let low: std::collections::BTreeSet<u64> = hashes.iter().map(|h| h & 127).collect();
        assert_eq!(low.len(), 128);
        hashes.sort_unstable();
        hashes.dedup();
        assert_eq!(hashes.len(), 64 * 64);
    }

    #[test]
    fn ids_are_ordered() {
        assert!(AgentId(1) < AgentId(2));
        assert!(SiteId(0) < SiteId(1));
    }
}
