//! Agent scheduling (paper §4 and the prototype's scheduling service of §6).
//!
//! The paper's scheduling story has three parts, all implemented here:
//!
//! * **Broker agents as matchmakers.**  "Some broker agents maintain databases
//!   of service providers; these brokers serve as matchmakers. … Brokers are
//!   expected to communicate among themselves and with the service providers,
//!   so that requests can be distributed amongst service providers based on
//!   load and capacity."  [`federation::FederatedBrokerAgent`] is the one
//!   broker: it keeps the provider database and the latest load reports,
//!   places jobs using a configurable [`policy::PlacementPolicy`], and —
//!   "among themselves" — shards the fleet across brokers that gossip
//!   aggregated [`federation::ShardDigest`]s, forward jobs when a shard runs
//!   dry, and (with the ft layer's guards) fail a crashed broker's shard over
//!   to a peer.  A single broker is a federation of one shard.
//! * **The four-agent scheduling service.**  The prototype "uses four
//!   different agents …: one of these agents is the broker, another is
//!   responsible for monitoring the status of a site and reporting that to
//!   the brokers, one is a courier, and one issues tickets to allow access to
//!   the service."  Those are the broker, [`agents::MonitorAgent`], the
//!   `courier` from `tacoma-agents`, and [`agents::TicketAgent`];
//!   [`agents::WorkerAgent`] plays the provider being scheduled onto, and
//!   [`agents::jobs_done`] reads back what it finished.
//! * **Protected agents.**  "Another use of broker agents is to enforce some
//!   protected agent's policies with regard to meeting other agents … the
//!   broker provides the only way to meet with the protected agent."
//!   [`protected::ProtectedBrokerAgent`] relays meets to an agent whose real
//!   name is secret and queues each request in a folder, as §4 describes.
//!
//! This crate exports agents, configurations and the federation layout
//! ([`federation::build_federation`]); the experiment runners that drive
//! them (E7, E15, E16, E19, A4) live in the bench crate.

#![warn(missing_docs)]

pub mod agents;
pub mod federation;
pub mod load;
pub mod policy;
pub mod protected;

pub use agents::{MonitorAgent, TicketAgent, WorkerAgent};
pub use federation::{
    FederatedBrokerAgent, FederatedJobSource, FederationConfig, FederationLayout, ShardDigest,
};
pub use load::{LoadReport, ReportDb};
pub use policy::PlacementPolicy;
pub use protected::ProtectedBrokerAgent;
