//! Protected agents: brokers as the only path to a secret agent.
//!
//! From §4: "Another use of broker agents is to enforce some protected agent's
//! policies with regard to meeting other agents.  This is accomplished by
//! keeping the name of the protected agent secret from all but its broker.
//! The broker, then, provides the only way to meet with the protected agent.
//! To do this, the broker maintains a folder for each agent that has requested
//! a meeting with the protected agent.  This folder contains the agent that
//! has requested the meeting (along with its briefcase)."
//!
//! [`ProtectedBrokerAgent`] is such a broker: it alone knows the protected
//! agent's (unguessable) registered name, applies an admission policy, queues
//! every request — briefcase and all — in a cabinet folder (possible precisely
//! because folders are uninterpreted and can store agents and folder sets),
//! and relays admitted requests.

use tacoma_core::codec;
use tacoma_core::prelude::*;

/// Folder a requester uses to identify itself to the protected-agent broker.
pub const REQUESTER: &str = "REQUESTER";
/// Cabinet where the broker queues meeting requests.
pub const MEETINGS_CABINET: &str = "protected_meetings";

/// Admission policy for a protected agent.
#[derive(Debug, Clone)]
pub enum AdmissionPolicy {
    /// Anyone may meet the protected agent (but only via the broker).
    AllowAll,
    /// Only requesters on this list are admitted.
    AllowList(Vec<String>),
}

impl AdmissionPolicy {
    fn admits(&self, requester: &str) -> bool {
        match self {
            AdmissionPolicy::AllowAll => true,
            AdmissionPolicy::AllowList(list) => list.iter().any(|r| r == requester),
        }
    }
}

/// The broker guarding one protected agent.
pub struct ProtectedBrokerAgent {
    /// The broker's own well-known name (e.g. `"oracle_broker"`).
    public_name: String,
    /// The protected agent's secret registered name.
    secret_name: AgentName,
    policy: AdmissionPolicy,
}

impl ProtectedBrokerAgent {
    /// Creates a broker for `secret_name`, reachable under `public_name`.
    pub fn new(
        public_name: impl Into<String>,
        secret_name: AgentName,
        policy: AdmissionPolicy,
    ) -> Self {
        ProtectedBrokerAgent {
            public_name: public_name.into(),
            secret_name,
            policy,
        }
    }
}

impl Agent for ProtectedBrokerAgent {
    fn name(&self) -> AgentName {
        AgentName::new(self.public_name.clone())
    }

    fn meet(&mut self, ctx: &mut MeetCtx<'_>, bc: Briefcase) -> MeetOutcome {
        let requester = bc
            .peek_string(REQUESTER)
            .ok_or_else(|| TacomaError::missing(REQUESTER))?;

        // Queue the request — requester and entire briefcase — in a folder,
        // exactly as §4 describes (folders are uninterpreted, so an encoded
        // briefcase is a perfectly good element).
        let encoded = codec::encode_briefcase(&bc);
        ctx.cabinet(MEETINGS_CABINET)
            .append(format!("QUEUE_{requester}").as_str(), encoded);

        if !self.policy.admits(&requester) {
            return Err(TacomaError::Refused(format!(
                "'{requester}' is not admitted to the protected agent"
            )));
        }
        // Relay synchronously and hand the reply back, hiding the secret name.
        let mut request = bc;
        request.take(REQUESTER);
        ctx.meet_local(&self.secret_name, request)
    }
}

/// Generates an unguessable registered name for a protected agent.
pub fn secret_agent_name(rng: &mut tacoma_util::DetRng, hint: &str) -> AgentName {
    AgentName::new(format!(
        "protected-{hint}-{:016x}{:016x}",
        rng.next_u64(),
        rng.next_u64()
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tacoma_core::TacomaSystem;
    use tacoma_net::{LinkSpec, Topology};
    use tacoma_util::DetRng;

    /// The protected agent: answers questions only for those who reach it.
    struct Oracle;
    impl Agent for Oracle {
        fn name(&self) -> AgentName {
            AgentName::new("this-name-is-replaced-at-registration")
        }
        fn meet(&mut self, _ctx: &mut MeetCtx<'_>, mut bc: Briefcase) -> MeetOutcome {
            bc.put_string("ANSWER", "42");
            Ok(bc)
        }
    }

    /// Wrapper installing the oracle under an arbitrary secret name.
    struct Named {
        name: AgentName,
        inner: Oracle,
    }
    impl Agent for Named {
        fn name(&self) -> AgentName {
            self.name.clone()
        }
        fn meet(&mut self, ctx: &mut MeetCtx<'_>, bc: Briefcase) -> MeetOutcome {
            self.inner.meet(ctx, bc)
        }
    }

    fn setup(policy: AdmissionPolicy) -> (TacomaSystem, AgentName) {
        let mut sys = TacomaSystem::new(Topology::full_mesh(1, LinkSpec::default()), 4);
        let mut rng = DetRng::new(77);
        let secret = secret_agent_name(&mut rng, "oracle");
        sys.register_agent(
            SiteId(0),
            Box::new(Named {
                name: secret.clone(),
                inner: Oracle,
            }),
        );
        sys.register_agent(
            SiteId(0),
            Box::new(ProtectedBrokerAgent::new(
                "oracle_broker",
                secret.clone(),
                policy,
            )),
        );
        (sys, secret)
    }

    fn ask(requester: &str) -> Briefcase {
        let mut bc = Briefcase::new();
        bc.put_string(REQUESTER, requester);
        bc.put_string("QUESTION", "meaning of life");
        bc
    }

    #[test]
    fn requests_through_the_broker_reach_the_protected_agent() {
        let (mut sys, _) = setup(AdmissionPolicy::AllowAll);
        let reply = sys
            .try_direct_meet(SiteId(0), &AgentName::new("oracle_broker"), ask("alice"))
            .unwrap();
        assert_eq!(reply.peek_string("ANSWER").as_deref(), Some("42"));
        // The request was queued in the meetings cabinet.
        let cab = sys
            .place(SiteId(0))
            .cabinets()
            .get(MEETINGS_CABINET)
            .unwrap();
        assert!(cab.folder_ref("QUEUE_alice").is_some());
    }

    #[test]
    fn guessing_common_names_fails() {
        let (mut sys, _) = setup(AdmissionPolicy::AllowAll);
        for guess in ["oracle", "protected", "secret", "agent47"] {
            let err = sys
                .try_direct_meet(SiteId(0), &AgentName::new(guess), ask("mallory"))
                .unwrap_err();
            assert!(matches!(err, TacomaError::NoSuchAgent { .. }));
        }
    }

    #[test]
    fn knowing_the_secret_name_does_meet_directly_which_is_why_it_is_secret() {
        // The protection is by secrecy of the name (as in the paper), not by a
        // reference monitor: if the name leaks, direct meets work.
        let (mut sys, secret) = setup(AdmissionPolicy::AllowAll);
        assert!(sys
            .try_direct_meet(SiteId(0), &secret, ask("insider"))
            .is_ok());
    }

    #[test]
    fn allow_list_is_enforced_and_requests_still_queued() {
        let (mut sys, _) = setup(AdmissionPolicy::AllowList(vec!["alice".into()]));
        assert!(sys
            .try_direct_meet(SiteId(0), &AgentName::new("oracle_broker"), ask("alice"))
            .is_ok());
        let err = sys
            .try_direct_meet(SiteId(0), &AgentName::new("oracle_broker"), ask("mallory"))
            .unwrap_err();
        assert!(matches!(err, TacomaError::Refused(_)));
        let cab = sys
            .place(SiteId(0))
            .cabinets()
            .get(MEETINGS_CABINET)
            .unwrap();
        assert!(
            cab.folder_ref("QUEUE_mallory").is_some(),
            "denied requests are still recorded"
        );
    }

    #[test]
    fn missing_requester_folder_is_rejected() {
        let (mut sys, _) = setup(AdmissionPolicy::AllowAll);
        let err = sys
            .try_direct_meet(
                SiteId(0),
                &AgentName::new("oracle_broker"),
                Briefcase::new(),
            )
            .unwrap_err();
        assert!(matches!(err, TacomaError::MissingFolder(_)));
    }
}
