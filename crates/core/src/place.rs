//! Places: the per-site TACOMA kernel.
//!
//! The prototype (§6) runs one Tcl interpreter per site "which provides the
//! place where agents execute".  A [`Place`] is our equivalent: it owns the
//! site's agent registry and file cabinets, executes meets, and collects the
//! deferred actions agents queue during a meet so the system driver can carry
//! them out (send remote meet requests, set timers, install agents, flush
//! cabinets).

use crate::agent::{Action, Agent, AgentRegistry, MeetCtx, MeetOutcome, RegisteredAgent};
use crate::briefcase::Briefcase;
use crate::cabinet::CabinetStore;
use crate::error::TacomaError;
use tacoma_net::SimTime;
use tacoma_util::{AgentId, AgentName, DetRng, SiteId};

/// Everything the kernel needs to know about the world to run one meet.
///
/// The system driver fills this in from the network simulator; unit tests can
/// fabricate it directly.
#[derive(Debug, Clone, Copy)]
pub(crate) struct DispatchEnv<'a> {
    /// Current simulated time.
    pub now: SimTime,
    /// Site the request originated from.
    pub origin: SiteId,
    /// Agent instance that issued the request.
    pub sender: AgentId,
    /// Neighbouring sites in the topology.
    pub neighbors: &'a [SiteId],
    /// The simulator's liveness of every site (index = site id): the one
    /// record of which sites are up.
    pub alive: &'a [bool],
    /// Reachability of every site from the executing site (index = site id).
    /// Empty when the system does not track reachability (custody disabled);
    /// `MeetCtx::site_is_reachable` then falls back to liveness.
    pub reachable: &'a [bool],
    /// Whether store-and-forward custody is enabled system-wide (remote meets
    /// to unreachable sites park instead of failing).
    pub custody: bool,
}

impl<'a> DispatchEnv<'a> {
    /// Whether `site` is up.
    pub fn is_up(&self, site: SiteId) -> bool {
        self.alive.get(site.index()).copied().unwrap_or(false)
    }

    /// A minimal environment for tests: time zero, no neighbours, all alive.
    #[cfg(test)]
    pub fn for_tests(alive: &'a [bool]) -> Self {
        DispatchEnv {
            now: SimTime::ZERO,
            origin: SiteId(0),
            sender: AgentId::SYSTEM,
            neighbors: &[],
            alive,
            reachable: &[],
            custody: false,
        }
    }
}

/// The meets a place has executed.  Whole-run counts, crashes and installs
/// included, are the system's ([`crate::SystemStats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlaceStats {
    /// Meets executed successfully at this site.
    pub meets_ok: u64,
    /// Meets that returned an error.
    pub meets_failed: u64,
}

/// The per-site kernel: agent registry, cabinets, and dispatch.  Whether the
/// site is up is the simulator's to say, not the place's.
pub struct Place {
    site: SiteId,
    registry: AgentRegistry,
    cabinets: CabinetStore,
    pub(crate) rng: DetRng,
    stats: PlaceStats,
}

impl Place {
    /// Creates an empty place for `site`.
    pub fn new(site: SiteId, rng: DetRng) -> Self {
        Place {
            site,
            registry: AgentRegistry::new(),
            cabinets: CabinetStore::new(),
            rng,
            stats: PlaceStats::default(),
        }
    }

    /// The site this place runs at.
    pub fn site(&self) -> SiteId {
        self.site
    }

    /// Counters about this place's activity.
    pub fn stats(&self) -> PlaceStats {
        self.stats
    }

    /// Installs a native agent under its well-known name.
    pub fn install_agent(&mut self, id: AgentId, agent: Box<dyn Agent>) {
        self.registry.install(RegisteredAgent { id, agent });
    }

    /// Removes an agent by name, returning whether it existed.
    pub fn remove_agent(&mut self, name: &AgentName) -> bool {
        self.registry.remove(name).is_some()
    }

    /// Names of the agents currently registered here.
    pub fn agent_names(&self) -> Vec<AgentName> {
        self.registry.names()
    }

    /// Whether an agent with the given name is registered here.
    pub fn has_agent(&self, name: &AgentName) -> bool {
        self.registry.contains(name)
    }

    /// Read-only access to the site's cabinets.
    pub fn cabinets(&self) -> &CabinetStore {
        &self.cabinets
    }

    /// Mutable access to the site's cabinets (used by tests and by the system
    /// driver when seeding experiment data at a site).
    pub fn cabinets_mut(&mut self) -> &mut CabinetStore {
        &mut self.cabinets
    }

    /// Takes `name` out of the registry, runs `work` on it in a meet context
    /// at nesting `depth`, and puts it back — the one way an agent gets to
    /// execute here, for a meet, a nested local meet and an install hook
    /// alike.
    pub(crate) fn run<R>(
        &mut self,
        name: &AgentName,
        depth: u32,
        env: DispatchEnv<'_>,
        outbox: &mut Vec<Action>,
        work: impl FnOnce(&mut dyn Agent, &mut MeetCtx<'_>) -> R,
    ) -> Result<R, TacomaError> {
        let (at, mut registered) = self.registry.take(name, self.site)?;
        let mut ctx = MeetCtx {
            agent_id: registered.id,
            depth,
            env,
            place: self,
            outbox,
        };
        let result = work(registered.agent.as_mut(), &mut ctx);
        self.registry.put_back(at, name, registered);
        Ok(result)
    }

    /// Executes a meet with `contact`, collecting deferred actions in `outbox`.
    ///
    /// Returns the callee's outcome.  If `env` says the site is down,
    /// returns [`TacomaError::SiteDown`].
    pub(crate) fn dispatch(
        &mut self,
        contact: &AgentName,
        briefcase: Briefcase,
        env: DispatchEnv<'_>,
        outbox: &mut Vec<Action>,
    ) -> MeetOutcome {
        if !env.is_up(self.site) {
            return Err(TacomaError::SiteDown(self.site));
        }
        let outcome = self
            .run(contact, 0, env, outbox, |agent, ctx| {
                agent.meet(ctx, briefcase)
            })
            .and_then(|outcome| outcome);
        match &outcome {
            Ok(_) => self.stats.meets_ok += 1,
            Err(_) => self.stats.meets_failed += 1,
        }
        outcome
    }

    /// Runs an agent's `on_install` hook, collecting any actions it queues
    /// (scheduling timers, sending an initial report, ...) into `outbox`.
    /// A name nobody is registered under is a no-op.
    pub(crate) fn run_install_hook(
        &mut self,
        name: &AgentName,
        env: DispatchEnv<'_>,
        outbox: &mut Vec<Action>,
    ) {
        let _ = self.run(name, 0, env, outbox, |agent, ctx| agent.on_install(ctx));
    }

    /// Crashes the place: every resident agent and every (unflushed) cabinet
    /// is lost, matching §5's failure model.  On recovery the system driver
    /// re-installs the default agents and restores flushed cabinets.
    pub fn crash(&mut self) {
        self.registry.clear();
        self.cabinets.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agent::MeetOutcome;

    struct Greeter;
    impl Agent for Greeter {
        fn name(&self) -> AgentName {
            AgentName::new("greeter")
        }
        fn meet(&mut self, ctx: &mut MeetCtx<'_>, mut bc: Briefcase) -> MeetOutcome {
            bc.put_string("GREETING", format!("hello from {}", ctx.site()));
            ctx.cabinet("visits").append_str("LOG", "met");
            Ok(bc)
        }
        fn on_install(&mut self, ctx: &mut MeetCtx<'_>) {
            ctx.cabinet("visits").append_str("LOG", "installed");
        }
    }

    struct Failing;
    impl Agent for Failing {
        fn name(&self) -> AgentName {
            AgentName::new("failing")
        }
        fn meet(&mut self, _ctx: &mut MeetCtx<'_>, _bc: Briefcase) -> MeetOutcome {
            Err(TacomaError::Refused("always".into()))
        }
    }

    fn place() -> Place {
        let mut p = Place::new(SiteId(0), DetRng::new(5));
        p.install_agent(AgentId(1), Box::new(Greeter));
        p.install_agent(AgentId(2), Box::new(Failing));
        p
    }

    #[test]
    fn dispatch_success_and_failure_counting() {
        let mut p = place();
        let alive = [true];
        let mut outbox = Vec::new();
        let ok = p.dispatch(
            &AgentName::new("greeter"),
            Briefcase::new(),
            DispatchEnv::for_tests(&alive),
            &mut outbox,
        );
        assert!(ok.unwrap().contains("GREETING"));
        let err = p.dispatch(
            &AgentName::new("failing"),
            Briefcase::new(),
            DispatchEnv::for_tests(&alive),
            &mut outbox,
        );
        assert!(matches!(err, Err(TacomaError::Refused(_))));
        let missing = p.dispatch(
            &AgentName::new("ghost"),
            Briefcase::new(),
            DispatchEnv::for_tests(&alive),
            &mut outbox,
        );
        assert!(matches!(missing, Err(TacomaError::NoSuchAgent { .. })));
        assert_eq!(p.stats().meets_ok, 1);
        assert_eq!(p.stats().meets_failed, 2);
        assert!(p.cabinets().contains("visits"));
    }

    #[test]
    fn install_hook_runs() {
        let mut p = place();
        let alive = [true];
        let mut outbox = Vec::new();
        p.run_install_hook(
            &AgentName::new("greeter"),
            DispatchEnv::for_tests(&alive),
            &mut outbox,
        );
        let cab = p.cabinets().get("visits").unwrap();
        assert!(cab.payload_bytes() > 0);
        // Hook for an unknown agent is a no-op.
        p.run_install_hook(
            &AgentName::new("ghost"),
            DispatchEnv::for_tests(&alive),
            &mut outbox,
        );
    }

    #[test]
    fn crash_clears_state_and_refuses_meets() {
        let mut p = place();
        let alive = [true];
        let mut outbox = Vec::new();
        p.dispatch(
            &AgentName::new("greeter"),
            Briefcase::new(),
            DispatchEnv::for_tests(&alive),
            &mut outbox,
        )
        .unwrap();
        assert!(p.cabinets().contains("visits"));
        p.crash();
        assert!(p.agent_names().is_empty());
        assert!(!p.cabinets().contains("visits"));
        // Liveness is the environment's: a down site refuses before the
        // registry is consulted.
        let refused = p.dispatch(
            &AgentName::new("greeter"),
            Briefcase::new(),
            DispatchEnv::for_tests(&[false]),
            &mut outbox,
        );
        assert!(matches!(refused, Err(TacomaError::SiteDown(_))));
    }

    #[test]
    fn agent_management() {
        let mut p = place();
        assert!(p.has_agent(&AgentName::new("greeter")));
        assert_eq!(p.agent_names().len(), 2);
        assert!(p.remove_agent(&AgentName::new("greeter")));
        assert!(!p.remove_agent(&AgentName::new("greeter")));
        assert!(!p.has_agent(&AgentName::new("greeter")));
    }
}
