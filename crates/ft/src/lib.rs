//! Fault tolerance for agent computations: rear guards (paper §5).
//!
//! "The solutions we have studied involve leaving a *rear guard* agent behind
//! whenever execution moves from one site to another.  This rear guard is
//! responsible for (i) launching a new agent should a failure cause an agent
//! to vanish and (ii) terminating itself when its function is no longer
//! necessary."  The paper also notes the details are complex because
//! itineraries may be cyclic and agents may clone and fan out.
//!
//! This crate implements that protocol for itinerary-following agents:
//!
//! * [`rear_guard::TravellerAgent`] walks an itinerary of sites, doing work at
//!   each (recording a visit).  With guards enabled it installs a
//!   [`rear_guard::RearGuardAgent`] at each site before moving on, retires the
//!   guard it left at the previous site once it has arrived safely, and
//!   reports completion to mission control at the origin.
//! * [`rear_guard::RearGuardAgent`] holds a relaunch snapshot (briefcase with
//!   the remaining itinerary).  If it is not retired within a timeout — the
//!   sign that the onward agent vanished in a site failure — it relaunches the
//!   traveller at the next live site, up to a bounded number of attempts.
//! * Cyclic itineraries and duplicate relaunches are tolerated because visits
//!   are recorded idempotently in site-local cabinets (the same mechanism the
//!   diffusion agent uses); duplicated work is *measured*, not hidden
//!   (experiment E9 reports it).
//!
//! ## Failure-detection assumption
//!
//! Guards learn whether a site is currently up from the kernel
//! (`MeetCtx::site_is_up`), standing in for the membership views a
//! Horus-style group layer provides (the prototype's third implementation ran
//! on Tcl/Horus for exactly this reason).  The timeout-based relaunch logic
//! does not depend on that oracle being perfect: a lost retire message or a
//! late traveller simply causes a (measured) duplicate relaunch.
//!
//! The runner that drives whole fleets of travellers over randomized failure
//! schedules (experiments E9, E14 and A3) lives in the bench crate.
//!
//! The same guard idea protects *resident* services too:
//! [`broker_guard::BrokerGuardAgent`] watches a federated scheduling broker
//! and, when its site stays dead, has the co-located broker adopt the
//! orphaned provider shard and rehomes its monitors (experiment E16).

#![warn(missing_docs)]

pub mod broker_guard;
pub mod rear_guard;

pub use broker_guard::{broker_guard_name, BrokerGuardAgent};
pub use rear_guard::{guard_name, MissionControlAgent, RearGuardAgent, TravellerAgent};
