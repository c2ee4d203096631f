//! The `courier` agent: folder transfer between agents on different sites.
//!
//! From the paper (§2): "Given an rexec agent, it is not difficult to program
//! a courier agent, which transfers a folder to a specified agent on a
//! specified machine.  This allows agents to communicate without having to
//! meet (on a common machine)."
//!
//! Conventions: the briefcase handed to the courier carries
//!
//! * `HOST` — the destination site,
//! * `CONTACT` — the agent to deliver to,
//! * `FOLDER` — the *name* of the folder to transfer (one element per folder
//!   if several should travel), and
//! * the named folders themselves.

use crate::helpers::{parse_site, transport_from};
use tacoma_core::prelude::*;

/// Folder naming which folders the courier should carry.
pub const FOLDER: &str = "FOLDER";

/// The courier agent.  Stateless; one instance per site.
#[derive(Debug, Default)]
pub struct CourierAgent;

impl CourierAgent {
    /// Creates the agent.
    pub fn new() -> Self {
        CourierAgent
    }
}

impl Agent for CourierAgent {
    fn name(&self) -> AgentName {
        AgentName::new(wellknown::COURIER)
    }

    fn meet(&mut self, ctx: &mut MeetCtx<'_>, mut bc: Briefcase) -> MeetOutcome {
        let host_folder = bc
            .take(wellknown::HOST)
            .ok_or_else(|| TacomaError::missing(wellknown::HOST))?;
        let host = parse_site(&host_folder)
            .ok_or_else(|| TacomaError::bad_folder(wellknown::HOST, "not a site id"))?;
        let contact = bc
            .take_string(wellknown::CONTACT)
            .ok_or_else(|| TacomaError::missing(wellknown::CONTACT))?;
        let names = bc
            .take(FOLDER)
            .ok_or_else(|| TacomaError::missing(FOLDER))?;
        if !ctx.site_is_up(host) || host.0 >= ctx.site_count() {
            return Err(TacomaError::SiteDown(host));
        }
        let transport = transport_from(&bc);

        let mut parcel = Briefcase::new();
        let mut carried = 0usize;
        for name in names.strings() {
            if let Some(folder) = bc.folder(&name) {
                parcel.put(name, folder.clone());
                carried += 1;
            }
        }
        if carried == 0 {
            return Err(TacomaError::bad_folder(
                FOLDER,
                "none of the named folders exist in the briefcase",
            ));
        }
        ctx.log(format!(
            "courier: delivering {carried} folder(s) to {contact} at {host}"
        ));
        ctx.remote_meet(host, AgentName::new(contact), parcel, transport);

        // The courier hands back the briefcase minus the parcel bookkeeping,
        // so the sender can confirm what was shipped.
        let mut receipt = Briefcase::new();
        receipt.put_u64("DELIVERED", carried as u64);
        Ok(receipt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::helpers::standard_agents;
    use tacoma_core::{Folder, TacomaSystem};
    use tacoma_net::{LinkSpec, Topology};

    struct Mailbox;
    impl Agent for Mailbox {
        fn name(&self) -> AgentName {
            AgentName::new("mailbox")
        }
        fn meet(&mut self, ctx: &mut MeetCtx<'_>, bc: Briefcase) -> MeetOutcome {
            for (name, folder) in bc.iter() {
                for elem in folder.iter() {
                    ctx.cabinet("mailbox").append(name, elem);
                }
            }
            Ok(Briefcase::new())
        }
    }

    fn system(sites: u32) -> TacomaSystem {
        let mut sys = TacomaSystem::builder()
            .topology(Topology::full_mesh(sites, LinkSpec::default()))
            .seed(5)
            .with_agents(standard_agents)
            .build();
        for s in 0..sites {
            sys.register_agent(SiteId(s), Box::new(Mailbox));
        }
        sys
    }

    fn courier_briefcase(to: u32, contact: &str, payload: &str) -> Briefcase {
        let mut bc = Briefcase::new();
        bc.put_string(wellknown::HOST, to.to_string());
        bc.put_string(wellknown::CONTACT, contact);
        bc.put(FOLDER, Folder::of_str("NEWS"));
        bc.put_string("NEWS", payload);
        bc
    }

    #[test]
    fn courier_delivers_named_folder() {
        let mut sys = system(3);
        sys.inject_meet(
            SiteId(0),
            AgentName::new(wellknown::COURIER),
            courier_briefcase(2, "mailbox", "storm tonight"),
        );
        sys.run_until_quiescent(1_000);
        let cab = sys.place(SiteId(2)).cabinets().get("mailbox").unwrap();
        assert!(cab.payload_bytes() > 0);
        assert_eq!(sys.stats().meets_failed, 0);
    }

    #[test]
    fn courier_can_carry_multiple_folders() {
        let mut sys = system(2);
        let mut bc = Briefcase::new();
        bc.put_string(wellknown::HOST, "1");
        bc.put_string(wellknown::CONTACT, "mailbox");
        let mut names = Folder::new();
        names.push_str("A");
        names.push_str("B");
        bc.put(FOLDER, names);
        bc.put_string("A", "alpha");
        bc.put_string("B", "beta");
        bc.put_string("C", "should not travel");
        let receipt = sys
            .try_direct_meet(SiteId(0), &AgentName::new(wellknown::COURIER), bc)
            .unwrap();
        assert_eq!(receipt.peek_u64("DELIVERED"), Some(2));
        sys.run_until_quiescent(100);
        let cab = sys.place(SiteId(1)).cabinets().get("mailbox").unwrap();
        assert!(cab.payload_bytes() >= "alpha".len() + "beta".len());
    }

    #[test]
    fn courier_rejects_missing_pieces() {
        let mut sys = system(2);
        let err = sys
            .try_direct_meet(
                SiteId(0),
                &AgentName::new(wellknown::COURIER),
                Briefcase::new(),
            )
            .unwrap_err();
        assert!(matches!(err, TacomaError::MissingFolder(_)));

        // Named folder does not exist in the briefcase.
        let mut bc = Briefcase::new();
        bc.put_string(wellknown::HOST, "1");
        bc.put_string(wellknown::CONTACT, "mailbox");
        bc.put(FOLDER, Folder::of_str("GHOST"));
        let err = sys
            .try_direct_meet(SiteId(0), &AgentName::new(wellknown::COURIER), bc)
            .unwrap_err();
        assert!(matches!(err, TacomaError::BadFolder { .. }));
    }

    #[test]
    fn courier_refuses_dead_destination() {
        let mut sys = system(3);
        sys.net_mut().crash_now(SiteId(2));
        let err = sys
            .try_direct_meet(
                SiteId(0),
                &AgentName::new(wellknown::COURIER),
                courier_briefcase(2, "mailbox", "x"),
            )
            .unwrap_err();
        assert!(matches!(err, TacomaError::SiteDown(_)));
    }
}
