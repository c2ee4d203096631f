//! The agent abstraction and the meet operation.
//!
//! In the paper (§2) "one agent causes another to execute using the *meet*
//! operation, where a briefcase allows information to be exchanged between the
//! two agents.  The meet operation is thus analogous to a procedure call, and
//! the specified briefcase is analogous to an argument list."
//!
//! A native agent implements the [`Agent`] trait.  Its [`Agent::meet`] method
//! receives the caller's briefcase and a [`MeetCtx`] giving access to the
//! local site's kernel services: file cabinets, nested local meets, and
//! deferred actions (remote meets, timers, spawning agents), which the kernel
//! executes after the meet returns.  Returning `Ok(briefcase)` terminates the
//! meet and hands the briefcase back to the caller; the callee may also have
//! queued deferred actions that run afterwards — the paper's "B may continue
//! executing concurrently with A".

use crate::briefcase::Briefcase;
use crate::cabinet::FileCabinet;
use crate::error::TacomaError;
use crate::place::{DispatchEnv, Place};
use tacoma_net::{Duration, SimTime, TransportKind};
use tacoma_util::{AgentId, AgentName, DetRng, SiteId};

/// Maximum depth of nested local meets, to stop accidental meet cycles.
pub const MAX_MEET_DEPTH: u32 = 16;

/// The result of a meet: the briefcase handed back to the caller, or an error.
pub type MeetOutcome = Result<Briefcase, TacomaError>;

/// A native TACOMA agent.
///
/// System agents (`rexec`, `courier`, brokers, the mint, ...) and
/// application agents implement this trait and are registered at one or more
/// sites.  Mobile *script* agents do not implement this trait; they are
/// TacoScript text carried in a `CODE` folder and executed by the `ag_tac`
/// interpreter agent, which is itself a native agent.
pub trait Agent {
    /// The well-known name other agents use to meet this one.
    fn name(&self) -> AgentName;

    /// Executes one meet: the paper's procedure-call analogue.
    fn meet(&mut self, ctx: &mut MeetCtx<'_>, briefcase: Briefcase) -> MeetOutcome;

    /// Called once when the agent is installed at a site (registration or
    /// site recovery).  The default does nothing.
    fn on_install(&mut self, _ctx: &mut MeetCtx<'_>) {}
}

/// A deferred action queued by an agent during a meet and executed by the
/// kernel after the meet returns.
pub enum Action {
    /// Request a meet with `contact` at another site, shipping `briefcase`
    /// over the network (this is how migration, couriers and diffusion move).
    RemoteMeet {
        /// Destination site.
        to: SiteId,
        /// Agent to meet there.
        contact: AgentName,
        /// Briefcase to hand over.
        briefcase: Briefcase,
        /// Transport personality to charge the transfer with.
        transport: TransportKind,
    },
    /// Request an asynchronous meet with a local agent (runs after the
    /// current meet completes — the callee "continues concurrently").
    LocalMeet {
        /// Agent to meet at this site.
        contact: AgentName,
        /// Briefcase to hand over.
        briefcase: Briefcase,
    },
    /// Ask the kernel to meet `contact` with `briefcase` after `delay`,
    /// adding a `TIMER` folder holding the kernel's key for the timer.
    Timer {
        /// Agent to meet when the timer fires.
        contact: AgentName,
        /// How long to wait.
        delay: Duration,
        /// Briefcase to deliver.
        briefcase: Briefcase,
    },
    /// Install a new native agent at this site (used by brokers creating
    /// protected-agent relays and by the fault-tolerance layer installing
    /// rear guards).
    RegisterAgent {
        /// The agent to install.
        agent: Box<dyn Agent>,
    },
    /// Flush a named cabinet to the site's stable store so it survives a
    /// crash ("file cabinets can be flushed to disk when permanence is
    /// required", §6).
    FlushCabinet {
        /// The cabinet to snapshot.
        name: String,
    },
    /// Remove a named agent from this site (e.g. a rear guard retiring itself).
    Unregister {
        /// The agent to remove.
        name: AgentName,
    },
    /// Append a line to the system trace, stamped with the time and site.
    Log(String),
}

impl std::fmt::Debug for Action {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Action::RemoteMeet {
                to,
                contact,
                briefcase,
                transport,
            } => f
                .debug_struct("RemoteMeet")
                .field("to", to)
                .field("contact", contact)
                .field("folders", &briefcase.len())
                .field("transport", transport)
                .finish(),
            Action::LocalMeet { contact, briefcase } => f
                .debug_struct("LocalMeet")
                .field("contact", contact)
                .field("folders", &briefcase.len())
                .finish(),
            Action::Timer { contact, delay, .. } => f
                .debug_struct("Timer")
                .field("contact", contact)
                .field("delay", delay)
                .finish(),
            Action::RegisterAgent { agent } => f
                .debug_struct("RegisterAgent")
                .field("name", &agent.name())
                .finish(),
            Action::FlushCabinet { name } => {
                f.debug_struct("FlushCabinet").field("name", name).finish()
            }
            Action::Unregister { name } => {
                f.debug_struct("Unregister").field("name", name).finish()
            }
            Action::Log(line) => f.debug_tuple("Log").field(line).finish(),
        }
    }
}

/// A registered agent slot: the agent plus its instance id.
pub struct RegisteredAgent {
    /// Unique instance id of this agent.
    pub id: AgentId,
    /// The agent itself.
    pub agent: Box<dyn Agent>,
}

/// The per-site registry of native agents, addressed by name.
///
/// The registry supports *taking* an agent out while it executes a meet so
/// that nested local meets (A meets B, B meets C) work without aliasing; a
/// nested meet of an agent that is already executing fails with
/// [`TacomaError::AgentBusy`].  Slots are sorted by name, so a dispatch
/// searches once: [`AgentRegistry::take`] hands back the slot's index and
/// [`AgentRegistry::put_back`] returns the agent there while the name there
/// is still its own.
#[derive(Default)]
pub struct AgentRegistry {
    slots: Vec<(AgentName, Option<RegisteredAgent>)>,
}

impl AgentRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Where the agent called `name` is, or where it would go.
    fn search(&self, name: &AgentName) -> Result<usize, usize> {
        self.slots.binary_search_by(|(key, _)| key.cmp(name))
    }

    /// Installs an agent, replacing any previous agent of the same name.
    pub fn install(&mut self, registered: RegisteredAgent) {
        let name = registered.agent.name();
        match self.search(&name) {
            Ok(at) => self.slots[at].1 = Some(registered),
            Err(at) => self.slots.insert(at, (name, Some(registered))),
        }
    }

    /// Removes an agent by name.
    pub fn remove(&mut self, name: &AgentName) -> Option<RegisteredAgent> {
        let at = self.search(name).ok()?;
        self.slots.remove(at).1
    }

    /// Whether an agent with the given name is registered (busy or not).
    pub fn contains(&self, name: &AgentName) -> bool {
        self.search(name).is_ok()
    }

    /// Names of all registered agents.
    pub fn names(&self) -> Vec<AgentName> {
        self.slots.iter().map(|(name, _)| name.clone()).collect()
    }

    /// Number of registered agents.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Takes an agent out for execution, with the index of its slot for
    /// [`AgentRegistry::put_back`].
    pub fn take(
        &mut self,
        name: &AgentName,
        site: SiteId,
    ) -> Result<(usize, RegisteredAgent), TacomaError> {
        let Ok(at) = self.search(name) else {
            return Err(TacomaError::NoSuchAgent {
                name: name.clone(),
                site,
            });
        };
        let registered = self.slots[at].1.take();
        registered
            .map(|registered| (at, registered))
            .ok_or_else(|| TacomaError::AgentBusy(name.clone()))
    }

    /// Puts an agent taken from slot `at` under `name` back after
    /// execution.  Slots may have moved meanwhile (an install or removal
    /// during the meet), so the name at `at` is checked and the slot
    /// searched again only if it differs.  If the agent unregistered itself
    /// during the meet its slot is gone, and if a same-name agent was
    /// installed meanwhile the slot is that one's: either way the instance
    /// is dropped.
    pub fn put_back(&mut self, at: usize, name: &AgentName, registered: RegisteredAgent) {
        let at = match self.slots.get(at) {
            Some((key, _)) if key == name => Ok(at),
            _ => self.search(name),
        };
        if let Ok(at) = at {
            self.slots[at].1.get_or_insert(registered);
        }
    }

    /// Clears every slot (site crash).
    pub fn clear(&mut self) {
        self.slots.clear();
    }
}

/// Kernel services available to an agent during a meet.
pub struct MeetCtx<'a> {
    /// Instance id of the executing agent.
    pub(crate) agent_id: AgentId,
    /// Nested meet depth.
    pub(crate) depth: u32,
    /// What the kernel knew about the world when it dispatched the meet:
    /// the clock, who asked, and the membership view.
    pub(crate) env: DispatchEnv<'a>,
    /// The place the meet executes at: its agents, cabinets and random
    /// stream.
    pub(crate) place: &'a mut Place,
    pub(crate) outbox: &'a mut Vec<Action>,
}

impl<'a> MeetCtx<'a> {
    /// The site this meet executes at.
    pub fn site(&self) -> SiteId {
        self.place.site()
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.env.now
    }

    /// Instance id of the executing agent.
    pub fn agent_id(&self) -> AgentId {
        self.agent_id
    }

    /// Site the meet request originated from (equals the executing site for
    /// local meets).
    pub fn origin(&self) -> SiteId {
        self.env.origin
    }

    /// Instance id of the agent that requested the meet
    /// ([`AgentId::SYSTEM`] for injected meets).
    pub fn sender(&self) -> AgentId {
        self.env.sender
    }

    /// Total number of sites in the system.
    pub fn site_count(&self) -> u32 {
        self.env.alive.len() as u32
    }

    /// Neighbouring sites of this site in the network topology.
    pub fn neighbors(&self) -> &[SiteId] {
        self.env.neighbors
    }

    /// Whether a site is currently believed to be up.
    ///
    /// This models the membership information a Horus-style group layer
    /// provides; the fault-tolerance crate documents the assumption.
    pub fn site_is_up(&self, site: SiteId) -> bool {
        self.env.is_up(site)
    }

    /// Whether a site is currently *reachable* from this one over live,
    /// unpartitioned links.  A site can be up yet unreachable (partition):
    /// with custody enabled a message to it is parked, not lost, so rear
    /// guards should wait instead of relaunching.  When the system does not
    /// track reachability (custody disabled) this falls back to
    /// [`MeetCtx::site_is_up`].
    pub fn site_is_reachable(&self, site: SiteId) -> bool {
        let env = &self.env;
        let view = if env.reachable.is_empty() {
            env.alive
        } else {
            env.reachable
        };
        view.get(site.index()).copied().unwrap_or(false)
    }

    /// Whether store-and-forward custody is enabled: remote meets to
    /// unreachable sites are parked and delivered after the partition heals
    /// (or expire after their TTL) instead of failing fast.
    pub fn custody_enabled(&self) -> bool {
        self.env.custody
    }

    /// Deterministic per-site random number generator.
    pub fn rng(&mut self) -> &mut DetRng {
        &mut self.place.rng
    }

    /// Access to a named file cabinet at this site (created if absent).
    pub fn cabinet(&mut self, name: &str) -> &mut FileCabinet {
        self.place.cabinets_mut().cabinet(name)
    }

    /// Whether an agent with the given name is registered at this site.
    pub fn has_agent(&self, name: &AgentName) -> bool {
        self.place.has_agent(name)
    }

    /// Executes a nested, synchronous meet with another agent at this site.
    ///
    /// This is the paper's `meet B with bc` when both agents are co-located.
    /// The callee's deferred actions join the same outbox and run after the
    /// outermost meet completes.
    pub fn meet_local(&mut self, contact: &AgentName, briefcase: Briefcase) -> MeetOutcome {
        let site = self.site();
        if self.depth >= MAX_MEET_DEPTH {
            return Err(TacomaError::BudgetExceeded(format!(
                "meet depth {MAX_MEET_DEPTH} exceeded at {site}"
            )));
        }
        let env = DispatchEnv {
            origin: site,
            sender: self.agent_id,
            ..self.env
        };
        self.place
            .run(contact, self.depth + 1, env, self.outbox, |agent, ctx| {
                agent.meet(ctx, briefcase)
            })
            .and_then(|outcome| outcome)
    }

    /// Queues a meet with an agent at another site; the briefcase travels over
    /// the network after the current meet returns.
    pub fn remote_meet(
        &mut self,
        to: SiteId,
        contact: AgentName,
        briefcase: Briefcase,
        transport: TransportKind,
    ) {
        self.outbox.push(Action::RemoteMeet {
            to,
            contact,
            briefcase,
            transport,
        });
    }

    /// Queues an asynchronous meet with a local agent, run after the current
    /// meet completes.
    pub fn local_meet_async(&mut self, contact: AgentName, briefcase: Briefcase) {
        self.outbox.push(Action::LocalMeet { contact, briefcase });
    }

    /// Schedules a meet with `contact` after `delay`; the delivered briefcase
    /// gains a `TIMER` folder holding the kernel's key for the timer.
    pub fn schedule(&mut self, contact: AgentName, delay: Duration, briefcase: Briefcase) {
        self.outbox.push(Action::Timer {
            contact,
            delay,
            briefcase,
        });
    }

    /// Installs a new native agent at this site after the meet completes.
    pub fn spawn_agent(&mut self, agent: Box<dyn Agent>) {
        self.outbox.push(Action::RegisterAgent { agent });
    }

    /// Removes a named agent from this site after the meet completes.
    pub fn unregister_agent(&mut self, name: AgentName) {
        self.outbox.push(Action::Unregister { name });
    }

    /// Flushes a cabinet to stable storage so it survives site crashes.
    pub fn flush_cabinet(&mut self, name: impl Into<String>) {
        self.outbox.push(Action::FlushCabinet { name: name.into() });
    }

    /// Appends a line to the system trace (visible via `TacomaSystem::trace`)
    /// after the meet completes, stamped with the time and this site.
    pub fn log(&mut self, message: impl Into<String>) {
        self.outbox.push(Action::Log(message.into()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::folder::Folder;

    struct Echo;
    impl Agent for Echo {
        fn name(&self) -> AgentName {
            AgentName::new("echo")
        }
        fn meet(&mut self, _ctx: &mut MeetCtx<'_>, mut bc: Briefcase) -> MeetOutcome {
            bc.put_string("ECHOED", "yes");
            Ok(bc)
        }
    }

    struct Caller;
    impl Agent for Caller {
        fn name(&self) -> AgentName {
            AgentName::new("caller")
        }
        fn meet(&mut self, ctx: &mut MeetCtx<'_>, bc: Briefcase) -> MeetOutcome {
            ctx.meet_local(&AgentName::new("echo"), bc)
        }
    }

    struct SelfMeet;
    impl Agent for SelfMeet {
        fn name(&self) -> AgentName {
            AgentName::new("narcissist")
        }
        fn meet(&mut self, ctx: &mut MeetCtx<'_>, bc: Briefcase) -> MeetOutcome {
            ctx.meet_local(&AgentName::new("narcissist"), bc)
        }
    }

    fn run_meet(place: &mut Place, name: &str, bc: Briefcase) -> (MeetOutcome, Vec<Action>) {
        let mut outbox = Vec::new();
        let alive = [true, true];
        let neighbors = [SiteId(1)];
        let env = DispatchEnv {
            neighbors: &neighbors,
            ..DispatchEnv::for_tests(&alive)
        };
        let outcome = place.dispatch(&AgentName::from(name), bc, env, &mut outbox);
        (outcome, outbox)
    }

    fn place_with(agents: Vec<Box<dyn Agent>>) -> Place {
        let mut place = Place::new(SiteId(0), DetRng::new(1));
        for (i, agent) in agents.into_iter().enumerate() {
            place.install_agent(AgentId(i as u64 + 1), agent);
        }
        place
    }

    #[test]
    fn registry_take_and_put_back() {
        let mut reg = AgentRegistry::new();
        reg.install(RegisteredAgent {
            id: AgentId(1),
            agent: Box::new(Echo),
        });
        assert_eq!(reg.len(), 1);
        assert!(reg.contains(&AgentName::new("echo")));
        let (at, taken) = reg.take(&AgentName::new("echo"), SiteId(0)).unwrap();
        // While taken, the agent is busy.
        assert!(matches!(
            reg.take(&AgentName::new("echo"), SiteId(0)),
            Err(TacomaError::AgentBusy(_))
        ));
        reg.put_back(at, &AgentName::new("echo"), taken);
        assert!(reg.take(&AgentName::new("echo"), SiteId(0)).is_ok());
    }

    #[test]
    fn unknown_agent_is_reported_with_site() {
        let mut reg = AgentRegistry::new();
        let err = match reg.take(&AgentName::new("ghost"), SiteId(3)) {
            Err(e) => e,
            Ok(_) => panic!("ghost agent should not exist"),
        };
        assert!(matches!(err, TacomaError::NoSuchAgent { .. }));
        assert!(err.to_string().contains("site3"));
    }

    #[test]
    fn nested_local_meet_works() {
        let mut place = place_with(vec![Box::new(Echo), Box::new(Caller)]);
        let (outcome, outbox) = run_meet(&mut place, "caller", Briefcase::new());
        let bc = outcome.unwrap();
        assert_eq!(bc.peek_string("ECHOED").as_deref(), Some("yes"));
        assert!(outbox.is_empty());
        // Both agents are back in their slots afterwards.
        assert!(run_meet(&mut place, "caller", Briefcase::new()).0.is_ok());
    }

    #[test]
    fn self_meet_is_reported_busy() {
        let mut place = place_with(vec![Box::new(SelfMeet)]);
        let (outcome, _) = run_meet(&mut place, "narcissist", Briefcase::new());
        assert!(matches!(outcome, Err(TacomaError::AgentBusy(_))));
    }

    #[test]
    fn ctx_actions_are_queued() {
        struct Queuer;
        impl Agent for Queuer {
            fn name(&self) -> AgentName {
                AgentName::new("queuer")
            }
            fn meet(&mut self, ctx: &mut MeetCtx<'_>, bc: Briefcase) -> MeetOutcome {
                ctx.remote_meet(
                    SiteId(1),
                    AgentName::new("rexec"),
                    Briefcase::new(),
                    TransportKind::Tcp,
                );
                ctx.schedule(
                    AgentName::new("queuer"),
                    Duration::from_millis(5),
                    Briefcase::new(),
                );
                ctx.local_meet_async(AgentName::new("queuer"), Briefcase::new());
                ctx.flush_cabinet("state");
                ctx.unregister_agent(AgentName::new("queuer"));
                ctx.spawn_agent(Box::new(Echo));
                ctx.log("queued everything");
                Ok(bc)
            }
        }
        let mut place = place_with(vec![Box::new(Queuer)]);
        let (outcome, outbox) = run_meet(&mut place, "queuer", Briefcase::new());
        assert!(outcome.is_ok());
        // The log line is an action too: the kernel stamps and appends it.
        assert_eq!(outbox.len(), 7);
        let debug = format!("{outbox:?}");
        assert!(debug.contains("RemoteMeet"));
        assert!(debug.contains("Timer"));
        assert!(debug.contains("RegisterAgent"));
        assert!(debug.contains("Log(\"queued everything\")"));
    }

    #[test]
    fn ctx_exposes_site_information() {
        struct Inspector;
        impl Agent for Inspector {
            fn name(&self) -> AgentName {
                AgentName::new("inspector")
            }
            fn meet(&mut self, ctx: &mut MeetCtx<'_>, mut bc: Briefcase) -> MeetOutcome {
                bc.put_u64("SITES", ctx.site_count() as u64);
                bc.put_u64("NEIGHBORS", ctx.neighbors().len() as u64);
                bc.put_string(
                    "UP1",
                    if ctx.site_is_up(SiteId(1)) {
                        "yes"
                    } else {
                        "no"
                    },
                );
                bc.put_string(
                    "HAS_SELF",
                    if ctx.has_agent(&AgentName::new("inspector")) {
                        "yes"
                    } else {
                        "no"
                    },
                );
                let mut f = Folder::new();
                f.push_u64(ctx.rng().next_u64());
                bc.put("RANDOM", f);
                ctx.cabinet("notes").append_str("LOG", "visited");
                Ok(bc)
            }
        }
        let mut place = place_with(vec![Box::new(Inspector)]);
        let (outcome, _) = run_meet(&mut place, "inspector", Briefcase::new());
        let bc = outcome.unwrap();
        assert_eq!(bc.peek_u64("SITES"), Some(2));
        assert_eq!(bc.peek_u64("NEIGHBORS"), Some(1));
        assert_eq!(bc.peek_string("UP1").as_deref(), Some("yes"));
        // The inspector's own slot is empty (taken) during its meet.
        assert_eq!(bc.peek_string("HAS_SELF").as_deref(), Some("yes"));
        assert!(place.cabinets().contains("notes"));
    }

    fn registered(id: u64, agent: impl Agent + 'static) -> RegisteredAgent {
        RegisteredAgent {
            id: AgentId(id),
            agent: Box::new(agent),
        }
    }

    #[test]
    fn an_agent_unregistered_during_its_meet_is_dropped() {
        let mut registry = AgentRegistry::new();
        registry.install(registered(1, Echo));
        registry.install(registered(2, Caller));
        let echo = AgentName::new("echo");
        let (at, taken) = registry.take(&echo, SiteId(0)).expect("installed");
        assert!(matches!(
            registry.take(&echo, SiteId(0)),
            Err(TacomaError::AgentBusy(_))
        ));
        assert!(registry.remove(&echo).is_none(), "its slot is empty");
        registry.put_back(at, &echo, taken);
        assert!(!registry.contains(&echo));
        assert_eq!(registry.names(), [AgentName::new("caller")]);
    }

    #[test]
    fn an_agent_goes_back_to_its_slot_after_the_slots_moved() {
        let mut registry = AgentRegistry::new();
        registry.install(registered(1, Echo));
        let echo = AgentName::new("echo");
        let (at, taken) = registry.take(&echo, SiteId(0)).expect("installed");
        // "caller" sorts first: the slot taken from is now one further on.
        registry.install(registered(2, Caller));
        registry.put_back(at, &echo, taken);
        let (at, back) = registry.take(&echo, SiteId(0)).expect("put back");
        assert_eq!(back.id, AgentId(1));
        assert!(registry.take(&AgentName::new("caller"), SiteId(0)).is_ok());
        // A same-name agent installed during the meet keeps the slot.
        registry.install(registered(3, Echo));
        registry.put_back(at, &echo, back);
        let (_, kept) = registry.take(&echo, SiteId(0)).expect("installed");
        assert_eq!(kept.id, AgentId(3));
    }
}
