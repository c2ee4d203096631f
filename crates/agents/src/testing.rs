//! Tiny agents used by tests, examples and benchmarks across the workspace.

use tacoma_core::prelude::*;

/// Returns its briefcase unchanged, with an `ECHO` marker folder added.
#[derive(Debug, Default)]
pub struct EchoAgent;

impl EchoAgent {
    /// Well-known name.
    pub const NAME: &'static str = "echo";

    /// Creates the agent.
    pub fn new() -> Self {
        EchoAgent
    }
}

impl Agent for EchoAgent {
    fn name(&self) -> AgentName {
        AgentName::new(Self::NAME)
    }
    fn meet(&mut self, ctx: &mut MeetCtx<'_>, mut bc: Briefcase) -> MeetOutcome {
        bc.put_string("ECHO", format!("from {}", ctx.site()));
        Ok(bc)
    }
}

/// Stores every folder it receives into the site-local `sink` cabinet and
/// returns an empty briefcase.  Useful as a delivery endpoint.
#[derive(Debug, Default)]
pub struct SinkAgent;

impl SinkAgent {
    /// Well-known name.
    pub const NAME: &'static str = "sink";
    /// Cabinet the sink stores into.
    pub const CABINET: &'static str = "sink";

    /// Creates the agent.
    pub fn new() -> Self {
        SinkAgent
    }
}

impl Agent for SinkAgent {
    fn name(&self) -> AgentName {
        AgentName::new(Self::NAME)
    }
    fn meet(&mut self, ctx: &mut MeetCtx<'_>, bc: Briefcase) -> MeetOutcome {
        for (name, folder) in bc.iter() {
            for elem in folder.iter() {
                ctx.cabinet(Self::CABINET).append(name, elem);
            }
        }
        Ok(Briefcase::new())
    }
}

/// Counts how many times it has been met, reporting the count in `COUNT`.
#[derive(Debug, Default)]
pub struct CounterAgent {
    count: u64,
}

impl CounterAgent {
    /// Well-known name.
    pub const NAME: &'static str = "counter";

    /// Creates the agent.
    pub fn new() -> Self {
        CounterAgent::default()
    }
}

impl Agent for CounterAgent {
    fn name(&self) -> AgentName {
        AgentName::new(Self::NAME)
    }
    fn meet(&mut self, _ctx: &mut MeetCtx<'_>, mut bc: Briefcase) -> MeetOutcome {
        self.count += 1;
        bc.put_u64("COUNT", self.count);
        Ok(bc)
    }
}

/// Always refuses the meet — used to exercise error paths.
#[derive(Debug, Default)]
pub struct BlackholeAgent;

impl BlackholeAgent {
    /// Well-known name.
    pub const NAME: &'static str = "blackhole";

    /// Creates the agent.
    pub fn new() -> Self {
        BlackholeAgent
    }
}

impl Agent for BlackholeAgent {
    fn name(&self) -> AgentName {
        AgentName::new(Self::NAME)
    }
    fn meet(&mut self, _ctx: &mut MeetCtx<'_>, _bc: Briefcase) -> MeetOutcome {
        Err(TacomaError::Refused("blackhole refuses everything".into()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tacoma_core::TacomaSystem;
    use tacoma_net::{LinkSpec, Topology};

    fn system() -> TacomaSystem {
        let mut sys = TacomaSystem::builder()
            .topology(Topology::full_mesh(2, LinkSpec::default()))
            .seed(1)
            .build();
        sys.register_agent(SiteId(0), Box::new(EchoAgent::new()));
        sys.register_agent(SiteId(0), Box::new(SinkAgent::new()));
        sys.register_agent(SiteId(0), Box::new(CounterAgent::new()));
        sys.register_agent(SiteId(0), Box::new(BlackholeAgent::new()));
        sys
    }

    #[test]
    fn echo_marks_the_briefcase() {
        let mut sys = system();
        let out = sys
            .try_direct_meet(
                SiteId(0),
                &AgentName::new(EchoAgent::NAME),
                Briefcase::new(),
            )
            .unwrap();
        assert_eq!(out.peek_string("ECHO").as_deref(), Some("from site0"));
    }

    #[test]
    fn sink_stores_folders() {
        let mut sys = system();
        let mut bc = Briefcase::new();
        bc.put_string("DATA", "payload");
        sys.try_direct_meet(SiteId(0), &AgentName::new(SinkAgent::NAME), bc)
            .unwrap();
        let cab = sys
            .place(SiteId(0))
            .cabinets()
            .get(SinkAgent::CABINET)
            .unwrap();
        assert!(cab.folder_ref("DATA").is_some());
    }

    #[test]
    fn counter_counts() {
        let mut sys = system();
        for expected in 1..=3 {
            let out = sys
                .try_direct_meet(
                    SiteId(0),
                    &AgentName::new(CounterAgent::NAME),
                    Briefcase::new(),
                )
                .unwrap();
            assert_eq!(out.peek_u64("COUNT"), Some(expected));
        }
    }

    #[test]
    fn blackhole_refuses() {
        let mut sys = system();
        let err = sys
            .try_direct_meet(
                SiteId(0),
                &AgentName::new(BlackholeAgent::NAME),
                Briefcase::new(),
            )
            .unwrap_err();
        assert!(matches!(err, TacomaError::Refused(_)));
    }
}
