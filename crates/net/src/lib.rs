//! Deterministic discrete-event network simulator for the TACOMA reproduction.
//!
//! The TACOMA paper (§6) ran on a small testbed of UNIX workstations connected
//! by `rsh`, Tcl/TCP streams, and the Horus group-communication system.  None
//! of the paper's claims depend on absolute hardware speeds; they are about
//! *bytes moved*, *numbers of agents and messages*, and *which computations
//! survive site failures*.  This crate therefore substitutes the testbed with
//! a deterministic discrete-event simulation that measures exactly those
//! quantities and is reproducible from a seed.
//!
//! The simulator provides:
//!
//! * [`topology::Topology`] — sites and links with latency and bandwidth,
//!   plus builders for the standard shapes used by the experiments (ring,
//!   star, grid, full mesh, random connected graphs).
//! * [`sim::SimNet`] — the one event loop: message delivery with per-hop
//!   latency and bandwidth charging, timers, scheduled site crashes/recoveries
//!   and network partitions.  Every experiment and benchmark workload runs on
//!   [`sim::SimNet::step`]; the crate ships no second engine.
//! * [`transport`] — the three transport personalities of the prototype
//!   (`rsh`-like per-message setup, persistent TCP-like streams, Horus-like
//!   group multicast), which differ only in how connection setup overhead is
//!   charged.
//! * [`metrics::NetMetrics`] — byte and message accounting, the raw material
//!   of the bandwidth-conservation experiment (E1).
//! * [`custody`] — DTN-style store-and-forward custody queues: sends that opt
//!   in are parked across partitions and outages instead of failing fast,
//!   re-attempted on every routing-epoch bump, and expire terminally on TTL
//!   (experiments E13/E14).
//! * [`calendar::CalendarQueue`] — the hierarchical calendar queue behind
//!   the event queue: amortised `O(1)` push/pop over `(time, key)` with
//!   FIFO order at equal timestamps via monotone keys.
//! * [`workload`] — open-arrival workload generation (experiments E18/E19):
//!   deterministic per-site arrival streams with heavy-tailed bounded-Pareto
//!   sizes, diurnal rate curves and regional flash crowds; users are modeled
//!   as rate processes, not resident objects.

#![warn(missing_docs)]

pub mod calendar;
pub mod custody;
pub mod failure;
pub mod metrics;
pub mod routing;
pub mod sim;
pub mod time;
pub mod topology;
pub mod transport;
pub mod workload;

pub use calendar::CalendarQueue;
pub use custody::CustodyConfig;
pub use failure::FailurePlan;
pub use metrics::NetMetrics;
pub use routing::Router;
pub use sim::{
    DeliveredMessage, Event, ExpiredMessage, MessageId, NetError, Payload, SendOptions, SimNet,
};
pub use time::{Duration, SimTime};
pub use topology::{LinkSpec, Topology, TopologyKind};
pub use transport::{Transport, TransportKind};
pub use workload::{Arrival, FlashCrowd, OpenWorkload, RateCurve, SizeDist};

pub use tacoma_util::SiteId;
