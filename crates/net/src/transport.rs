//! Transport personalities.
//!
//! The TACOMA prototype (§6) had three implementations of the `rexec`
//! mechanism: one spawning a remote Tcl interpreter with UNIX `rsh`, one
//! using persistent Tcl/TCP channels, and one in progress on top of the Horus
//! group-communication system.  For the purposes of the paper's claims the
//! difference between them is *where connection-setup overhead is paid*:
//!
//! * [`TransportKind::Rsh`] pays a large setup cost on **every** message
//!   (a fresh remote shell and interpreter per migration);
//! * [`TransportKind::Tcp`] pays a handshake the **first** time a pair of
//!   sites talks and a small framing overhead afterwards;
//! * [`TransportKind::Horus`] pays a moderate per-message cost but supports
//!   multicast to a process group in a single logical send.
//!
//! The migration-cost experiment (E3) sweeps these personalities.

use crate::time::Duration;
use serde::{Deserialize, Serialize};
use std::collections::HashSet;
use tacoma_util::{IdBuildHasher, SiteId};

/// Which transport personality a message is sent over.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum TransportKind {
    /// Spawn-per-message, like `rsh` starting a remote interpreter.
    Rsh,
    /// Persistent per-pair streams, like Tcl/TCP channels.
    #[default]
    Tcp,
    /// Group-communication flavoured transport (Horus).
    Horus,
}

impl TransportKind {
    /// All personalities, in the order the experiments report them.
    pub const ALL: [TransportKind; 3] =
        [TransportKind::Rsh, TransportKind::Tcp, TransportKind::Horus];

    /// Human-readable label used in experiment tables.
    pub fn label(self) -> &'static str {
        match self {
            TransportKind::Rsh => "rsh",
            TransportKind::Tcp => "tcp",
            TransportKind::Horus => "horus",
        }
    }
}

/// Per-transport connection state and overhead accounting.
#[derive(Clone, Default, Serialize, Deserialize)]
pub struct Transport {
    /// Pairs of sites with an established TCP-like stream.  A hash set, one
    /// probe per send: membership and size are all anything may observe, so
    /// it is never iterated into output (`Debug` below prints the count).
    established: HashSet<(SiteId, SiteId), IdBuildHasher>,
}

impl std::fmt::Debug for Transport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Transport")
            .field("established", &self.established.len())
            .finish()
    }
}

/// Overhead charged to one message by its transport.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransportOverhead {
    /// Extra latency added before the first hop.
    pub setup_latency: Duration,
    /// Extra bytes added to the payload on every hop (headers, spawn command).
    pub extra_bytes: u64,
}

impl Transport {
    /// Creates a transport with no established connections.
    pub fn new() -> Self {
        Self::default()
    }

    /// Computes the overhead for a message from `from` to `to` over `kind`,
    /// updating connection state (TCP streams become established).
    pub fn overhead(&mut self, kind: TransportKind, from: SiteId, to: SiteId) -> TransportOverhead {
        match kind {
            TransportKind::Rsh => TransportOverhead {
                // Spawning a remote shell and a fresh interpreter is expensive.
                setup_latency: Duration::from_millis(250),
                extra_bytes: 512,
            },
            TransportKind::Tcp => {
                let key = Self::pair(from, to);
                if self.established.insert(key) {
                    TransportOverhead {
                        // Three-way handshake on first contact.
                        setup_latency: Duration::from_millis(6),
                        extra_bytes: 128,
                    }
                } else {
                    TransportOverhead {
                        setup_latency: Duration::ZERO,
                        extra_bytes: 64,
                    }
                }
            }
            TransportKind::Horus => TransportOverhead {
                // Group communication stack: moderate fixed cost, larger
                // header carrying view and ordering metadata.
                setup_latency: Duration::from_millis(1),
                extra_bytes: 200,
            },
        }
    }

    /// Whether a TCP-like stream between the two sites is already established.
    pub fn is_established(&self, a: SiteId, b: SiteId) -> bool {
        self.established.contains(&Self::pair(a, b))
    }

    /// Drops every established stream touching `site` (used on site crash).
    pub fn drop_streams_of(&mut self, site: SiteId) {
        self.established.retain(|&(a, b)| a != site && b != site);
    }

    /// Number of currently established streams.
    pub fn established_count(&self) -> usize {
        self.established.len()
    }

    fn pair(a: SiteId, b: SiteId) -> (SiteId, SiteId) {
        if a <= b {
            (a, b)
        } else {
            (b, a)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rsh_pays_every_time() {
        let mut t = Transport::new();
        let a = t.overhead(TransportKind::Rsh, SiteId(0), SiteId(1));
        let b = t.overhead(TransportKind::Rsh, SiteId(0), SiteId(1));
        assert_eq!(a, b);
        assert!(a.setup_latency > Duration::from_millis(100));
    }

    #[test]
    fn tcp_pays_setup_once_per_pair() {
        let mut t = Transport::new();
        let first = t.overhead(TransportKind::Tcp, SiteId(0), SiteId(1));
        let second = t.overhead(TransportKind::Tcp, SiteId(1), SiteId(0));
        assert!(first.setup_latency > Duration::ZERO);
        assert_eq!(second.setup_latency, Duration::ZERO);
        assert!(t.is_established(SiteId(0), SiteId(1)));
        // A different pair pays again.
        let other = t.overhead(TransportKind::Tcp, SiteId(0), SiteId(2));
        assert!(other.setup_latency > Duration::ZERO);
        assert_eq!(t.established_count(), 2);
    }

    #[test]
    fn crash_drops_streams() {
        let mut t = Transport::new();
        t.overhead(TransportKind::Tcp, SiteId(0), SiteId(1));
        t.overhead(TransportKind::Tcp, SiteId(1), SiteId(2));
        t.overhead(TransportKind::Tcp, SiteId(2), SiteId(3));
        t.drop_streams_of(SiteId(1));
        assert!(!t.is_established(SiteId(0), SiteId(1)));
        assert!(!t.is_established(SiteId(1), SiteId(2)));
        assert!(t.is_established(SiteId(2), SiteId(3)));
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(TransportKind::Rsh.label(), "rsh");
        assert_eq!(TransportKind::Tcp.label(), "tcp");
        assert_eq!(TransportKind::Horus.label(), "horus");
        assert_eq!(TransportKind::ALL.len(), 3);
        assert_eq!(TransportKind::default(), TransportKind::Tcp);
    }

    #[test]
    fn horus_has_larger_headers_than_tcp_steady_state() {
        let mut t = Transport::new();
        t.overhead(TransportKind::Tcp, SiteId(0), SiteId(1));
        let tcp = t.overhead(TransportKind::Tcp, SiteId(0), SiteId(1));
        let horus = t.overhead(TransportKind::Horus, SiteId(0), SiteId(1));
        assert!(horus.extra_bytes > tcp.extra_bytes);
    }
}
