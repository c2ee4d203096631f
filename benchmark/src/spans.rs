//! Tracing from outside the program: spans around the benchmark's own calls
//! and a timing wrapper around every agent.
//!
//! Spans are kept in memory and written when the run ends.  Agents are never
//! given one span per meet: the wrapper accumulates `(meets, busy ns)` per
//! agent and the tracer turns the totals into one aggregate span per agent
//! per chunk.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;
use tacoma_core::codec::MeetRequest;
use tacoma_core::prelude::*;
use tacoma_util::Json;

/// At most this many meet requests are kept for the codec replay.
pub const MAX_SAMPLES: usize = 4096;

/// One recorded interval.  `count` is the number of operations the interval
/// aggregates (1 for a plain span).
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub name: String,
    pub layer: &'static str,
    pub rep: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    pub count: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    fn to_json(&self) -> Json {
        let mut o = Json::object();
        o.set("id", Json::Uint(u64::from(self.id)));
        o.set(
            "parent",
            self.parent.map_or(Json::Null, |p| Json::Uint(u64::from(p))),
        );
        o.set("name", Json::Str(self.name.clone()));
        o.set("layer", Json::Str(self.layer.to_string()));
        o.set("rep", Json::Uint(u64::from(self.rep)));
        o.set("start_ns", Json::Uint(self.start_ns));
        o.set("end_ns", Json::Uint(self.end_ns));
        o.set("count", Json::Uint(self.count));
        o
    }
}

/// Every span's self time, indexed like `spans` (a span's id is its index):
/// its duration minus the part its direct children cover.  Aggregate children
/// can overshoot their parent by timer overhead, so the result saturates at
/// zero.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut covered = vec![0u64; spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            covered[parent as usize] += span.duration_ns();
        }
    }
    spans
        .iter()
        .zip(covered)
        .map(|(span, covered)| span.duration_ns().saturating_sub(covered))
        .collect()
}

/// Busy time of one agent as called from one caller (`None`: the kernel).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Edge {
    pub caller: Option<usize>,
    pub slot: usize,
    pub meets: u64,
    pub busy_ns: u64,
}

#[derive(Default)]
struct ClockState {
    /// Slot → agent name.
    names: Vec<String>,
    /// Slots of the agents currently inside `meet`, outermost first.
    stack: Vec<usize>,
    /// Busy time since the last [`AgentClock::drain`].
    edges: Vec<Edge>,
    /// Meets seen that could be sampled, and the current sampling stride.
    candidates: u64,
    stride: u64,
    samples: Vec<MeetRequest>,
}

/// Shared by every [`Timed`] wrapper of one system: who ran, for how long,
/// called by whom, plus a bounded sample of the requests they received.
pub struct AgentClock {
    state: RefCell<ClockState>,
}

impl AgentClock {
    pub fn new() -> Rc<Self> {
        Rc::new(AgentClock {
            state: RefCell::new(ClockState {
                stride: 1,
                ..ClockState::default()
            }),
        })
    }

    fn slot(&self, name: &str) -> usize {
        let mut st = self.state.borrow_mut();
        if let Some(i) = st.names.iter().position(|n| n == name) {
            return i;
        }
        st.names.push(name.to_string());
        st.names.len() - 1
    }

    /// Enters `slot`; returns whether this meet's request should be sampled.
    fn enter(&self, slot: usize, sampleable: bool) -> bool {
        let mut st = self.state.borrow_mut();
        st.stack.push(slot);
        if !sampleable {
            return false;
        }
        st.candidates += 1;
        st.candidates.is_multiple_of(st.stride)
    }

    fn keep(&self, req: MeetRequest) {
        let mut st = self.state.borrow_mut();
        st.samples.push(req);
        if st.samples.len() >= MAX_SAMPLES {
            // Thin to every other sample and sample half as often from now
            // on: the kept set stays an even-stride sample of the whole run.
            let mut i = 0;
            st.samples.retain(|_| {
                i += 1;
                i % 2 == 0
            });
            st.stride *= 2;
        }
    }

    fn exit(&self, slot: usize, ns: u64) {
        let mut st = self.state.borrow_mut();
        st.stack.pop();
        let caller = st.stack.last().copied();
        match st
            .edges
            .iter_mut()
            .find(|e| e.slot == slot && e.caller == caller)
        {
            Some(edge) => {
                edge.meets += 1;
                edge.busy_ns += ns;
            }
            None => st.edges.push(Edge {
                caller,
                slot,
                meets: 1,
                busy_ns: ns,
            }),
        }
    }

    /// Takes the busy time accumulated since the last call.
    pub fn drain(&self) -> Vec<Edge> {
        std::mem::take(&mut self.state.borrow_mut().edges)
    }

    pub fn name_of(&self, slot: usize) -> String {
        self.state.borrow().names[slot].clone()
    }

    /// Takes the sampled requests.
    pub fn take_samples(&self) -> Vec<MeetRequest> {
        std::mem::take(&mut self.state.borrow_mut().samples)
    }
}

/// An agent with a stopwatch: `name`, `meet` and `on_install` delegate.
pub struct Timed<A> {
    inner: A,
    slot: usize,
    clock: Rc<AgentClock>,
}

impl<A: Agent> Timed<A> {
    pub fn new(inner: A, clock: &Rc<AgentClock>) -> Self {
        let slot = clock.slot(inner.name().as_str());
        Timed {
            inner,
            slot,
            clock: Rc::clone(clock),
        }
    }
}

impl<A: Agent> Agent for Timed<A> {
    fn name(&self) -> AgentName {
        self.inner.name()
    }

    fn meet(&mut self, ctx: &mut MeetCtx<'_>, briefcase: Briefcase) -> MeetOutcome {
        // Timer-fired meets never cross the wire, so they are not codec input.
        let sampleable = !briefcase.contains(wellknown::TIMER);
        if self.clock.enter(self.slot, sampleable) {
            self.clock.keep(MeetRequest {
                contact: self.inner.name(),
                sender: ctx.sender(),
                origin: ctx.origin(),
                briefcase: briefcase.clone(),
            });
        }
        let start = Instant::now();
        let outcome = self.inner.meet(ctx, briefcase);
        self.clock
            .exit(self.slot, start.elapsed().as_nanos() as u64);
        outcome
    }

    fn on_install(&mut self, ctx: &mut MeetCtx<'_>) {
        self.inner.on_install(ctx);
    }
}

/// Boxes `agent`, wrapped in a [`Timed`] when a clock is given.
pub fn boxed<A: Agent + 'static>(agent: A, clock: Option<&Rc<AgentClock>>) -> Box<dyn Agent> {
    match clock {
        Some(clock) => Box::new(Timed::new(agent, clock)),
        None => Box::new(agent),
    }
}

/// One repetition's spans of one name, added up.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NameTotal {
    pub name: String,
    /// Operations the spans aggregate (meets, for an `agent.<name>`).
    pub count: u64,
    /// Summed duration: for an agent, time inside `meet`, nested meets of
    /// other agents included.
    pub busy_ns: u64,
    /// Summed self time: `busy_ns` minus what the spans' children cover.
    pub self_ns: u64,
}

/// The span store of one traced run.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    rep: u32,
    pub clock: Rc<AgentClock>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            rep: 0,
            clock: AgentClock::new(),
        }
    }

    /// Starts a repetition with a fresh agent clock.
    pub fn start_rep(&mut self, rep: u32) {
        self.rep = rep;
        self.clock = AgentClock::new();
    }

    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Records a finished interval and returns its id.
    pub fn record(
        &mut self,
        name: impl Into<String>,
        layer: &'static str,
        parent: Option<u32>,
        start_ns: u64,
        end_ns: u64,
        count: u64,
    ) -> u32 {
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            id,
            parent,
            name: name.into(),
            layer,
            rep: self.rep,
            start_ns,
            end_ns,
            count,
        });
        id
    }

    /// Sets the end of an interval recorded while it was still open.
    pub fn close(&mut self, id: u32, end_ns: u64) {
        self.spans[id as usize].end_ns = end_ns;
    }

    /// Turns the agent time accumulated during a chunk into one aggregate
    /// `agent.<name>` span per `(caller, agent)` pair: under `chunk` for an
    /// agent the kernel called, under its caller's span for a nested meet.
    pub fn close_chunk(&mut self, chunk: u32, chunk_start_ns: u64) {
        let mut edges = self.clock.drain();
        // Kernel-called agents first, so a nested agent finds its caller.
        edges.sort_by_key(|e| (e.caller.is_some(), e.slot));
        let mut span_of_slot: Vec<(usize, u32)> = Vec::new();
        for edge in &edges {
            let parent = match edge.caller {
                None => chunk,
                Some(caller) => span_of_slot
                    .iter()
                    .find(|(slot, _)| *slot == caller)
                    .map_or(chunk, |(_, id)| *id),
            };
            let id = self.record(
                format!("agent.{}", self.clock.name_of(edge.slot)),
                "agents",
                Some(parent),
                chunk_start_ns,
                chunk_start_ns + edge.busy_ns,
                edge.meets,
            );
            span_of_slot.push((edge.slot, id));
        }
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Repetition `rep`'s spans added up by name, in order of first use.
    pub fn totals_by_name(&self, rep: u32) -> Vec<NameTotal> {
        let mut out: Vec<NameTotal> = Vec::new();
        for (span, self_ns) in self.spans.iter().zip(self_times_ns(&self.spans)) {
            if span.rep != rep {
                continue;
            }
            let total = match out.iter().position(|t| t.name == span.name) {
                Some(i) => &mut out[i],
                None => {
                    out.push(NameTotal {
                        name: span.name.clone(),
                        ..NameTotal::default()
                    });
                    out.last_mut().expect("just pushed")
                }
            };
            total.count += span.count;
            total.busy_ns += span.duration_ns();
            total.self_ns += self_ns;
        }
        out
    }

    /// The spans as a JSON array.
    pub fn to_json(&self) -> Json {
        Json::Array(self.spans.iter().map(Span::to_json).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: format!("s{id}"),
            layer: "test",
            rep: 0,
            start_ns,
            end_ns,
            count: 1,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span(0, None, 0, 1_000),
            span(1, Some(0), 100, 400),
            span(2, Some(0), 500, 700),
            span(3, Some(1), 150, 250),
        ];
        assert_eq!(
            self_times_ns(&spans),
            [1_000 - 300 - 200, 300 - 100, 200, 100]
        );
    }

    #[test]
    fn self_time_saturates_when_aggregates_overshoot() {
        let spans = vec![span(0, None, 0, 100), span(1, Some(0), 0, 130)];
        assert_eq!(self_times_ns(&spans), [0, 130]);
    }

    #[test]
    fn nested_agent_time_is_charged_to_its_caller_edge() {
        let clock = AgentClock::new();
        let outer = clock.slot("outer");
        let inner = clock.slot("inner");
        assert_eq!(clock.slot("outer"), outer, "slots are per name");
        clock.enter(outer, false);
        clock.enter(inner, false);
        clock.exit(inner, 30);
        clock.exit(outer, 100);
        clock.enter(inner, false);
        clock.exit(inner, 7);

        let mut tracer = Tracer::new();
        tracer.clock = clock;
        let chunk = tracer.record("run.chunk", "core.system", None, 0, 200, 3);
        tracer.close_chunk(chunk, 0);
        let totals = tracer.totals_by_name(0);
        let get = |n: &str| totals.iter().find(|t| t.name == n).unwrap().clone();
        assert_eq!(get("agent.outer").busy_ns, 100);
        assert_eq!(get("agent.outer").self_ns, 70);
        assert_eq!(get("agent.inner").count, 2);
        assert_eq!(get("agent.inner").busy_ns, 37);
        assert_eq!(get("agent.inner").self_ns, 37);
        // The chunk's self time is what the kernel itself spent: only the
        // agents it called directly are its children.
        assert_eq!(get("run.chunk").self_ns, 200 - 107);
        assert!(tracer.totals_by_name(1).is_empty(), "another repetition");
        // The nested aggregate hangs under its caller's span, not the chunk.
        let nested = tracer
            .spans()
            .iter()
            .find(|s| s.name == "agent.inner" && s.duration_ns() == 30)
            .unwrap();
        let caller = tracer
            .spans()
            .iter()
            .find(|s| s.name == "agent.outer")
            .unwrap();
        assert_eq!(nested.parent, Some(caller.id));
    }

    #[test]
    fn sampling_stays_bounded_and_evenly_strided() {
        let clock = AgentClock::new();
        let slot = clock.slot("a");
        let mut kept = 0;
        for _ in 0..(MAX_SAMPLES as u64 * 5) {
            if clock.enter(slot, true) {
                kept += 1;
                clock.keep(MeetRequest {
                    contact: AgentName::new("a"),
                    sender: AgentId::SYSTEM,
                    origin: SiteId(0),
                    briefcase: Briefcase::new(),
                });
            }
            clock.exit(slot, 1);
        }
        let samples = clock.take_samples();
        assert!(kept > MAX_SAMPLES);
        assert!(samples.len() < MAX_SAMPLES);
        assert!(samples.len() >= MAX_SAMPLES / 4);
    }
}
