//! The paper's prototype applications (§6), rebuilt on the TACOMA runtime.
//!
//! * [`stormcast`] — StormCast \[J93\]: severe-storm prediction in the Arctic
//!   from a distributed network of weather sensors.  Sensor sites accumulate
//!   readings in site-local cabinets; a mobile *collector* agent visits the
//!   sensor sites, filters and aggregates the readings where they live, and
//!   delivers a compact summary to an expert-system agent that issues storm
//!   warnings.  A client–server variant ships every raw reading to the expert
//!   site instead — the comparison is the paper's central bandwidth-
//!   conservation claim (§1), measured by experiments E1 and E10.
//! * [`agentmail`] — the "interactive mail system where messages are
//!   implemented by agents": a mail message is an agent that travels to the
//!   recipient's home site, consults the site-local forwarding cabinet, and
//!   either deposits itself in the mailbox cabinet or hops onward.
//!
//! Both applications use only the public TACOMA API (system agents, folders,
//! briefcases, cabinets), which is the point: they are the paper's evidence
//! that the abstractions are sufficient.

#![warn(missing_docs)]

pub mod agentmail;
pub mod audit_manifest;
pub mod cli;
pub mod stormcast;

pub use agentmail::{mail_agent_code, run_mail_experiment, MailConfig, MailResult, UserDirectory};
pub use audit_manifest::{load_manifest, parse_manifest};
pub use cli::{
    collect_scripts, expand_inputs, render_json_report, CostRow, FileDiagnostic, OutputFormat,
    RunSummary,
};
pub use stormcast::{
    run_stormcast, StormcastConfig, StormcastPlan, StormcastResult, SubscriberModel,
};
