//! Utility substrate for the TACOMA reproduction.
//!
//! This crate collects the small, dependency-free building blocks that every
//! other crate in the workspace relies on:
//!
//! * [`rng::DetRng`] — a deterministic, seedable pseudo-random number
//!   generator (SplitMix64 seeding an xoshiro256** core) so that every
//!   simulation run and every experiment in the paper reproduction is exactly
//!   repeatable from a seed.
//! * [`ids`] — strongly typed identifiers for sites and agents, the short
//!   [`Name`] that agent and folder names are stored as, and the cheap
//!   hasher for maps keyed by ids.
//! * [`stats`] — tiny online statistics and histogram helpers used by the
//!   benchmark harness to print the experiment tables.
//! * [`bytesize`] — human-readable byte-size formatting for reports.
//! * [`json`] — a deterministic hand-rolled JSON value/writer/parser (the
//!   vendored serde is a no-op shim, so machine-readable bench reports go
//!   through this instead).
//! * [`metric`] — typed metric values and comparison tolerances shared by
//!   the network accounting layer and the bench regression gate.
//!
//! Nothing in this crate knows about agents, folders, or the simulated
//! network; it exists so those crates can stay focused on the paper's
//! abstractions.

#![warn(missing_docs)]

pub mod bytesize;
pub mod ids;
pub mod json;
pub mod metric;
pub mod rng;
pub mod stats;

pub use bytesize::{human_bytes, ByteCount};
pub use ids::{AgentId, AgentIdGen, AgentName, IdBuildHasher, IdHasher, Name, SiteId};
pub use json::{Json, JsonError};
pub use metric::{metric_key, MetricValue, Tolerance};
pub use rng::DetRng;
pub use stats::{factor, Histogram, Summary};
