//! taco-audit: whole-fleet static analysis over TacoScript agents.
//!
//! taco-vet checks one script in isolation; the defects that actually
//! bite a TACOMA deployment are *inter-agent protocol* bugs — a folder read
//! that no counterpart ever writes, a meet cycle that never halts, an
//! itinerary into a site that does not exist.  This module lifts the analysis
//! to a declared fleet:
//!
//! 1. **Effect summaries** ([`summarize`]): a per-script abstraction of what
//!    the agent does to the shared world — folders read and written, cabinets
//!    touched, literal `meet` targets, literal `move_to`/`send_remote` sites,
//!    briefcase-growth operations inside loops, and whether the script may
//!    `halt`.  One `tree::walk` over the brace-quoted tree reads it, so the
//!    summary follows exactly the nested text `tree.rs` says runs.  Text
//!    the walk cannot see into, and outside `catch` computed folder,
//!    cabinet or meet names and any `eval`, make the summary *opaque* (the
//!    agent is then assumed to read and write everything); effects inside
//!    `catch` are never flagged (failing inside `catch` is a supported
//!    idiom), and a computed folder, cabinet or command name there makes
//!    the agent a universal reader and writer without making it opaque.
//! 2. **Fleet composition** ([`audit`]): summaries plus declared native
//!    agents, injected briefcase folders and declared deliverables are
//!    composed into writer/reader sets and a meet graph, yielding five coded
//!    diagnostics:
//!
//!    * **folder-never-produced** (error): a script reads a folder that no
//!      fleet agent writes and that is not injected;
//!    * **dead-folder-write** (warning): a script writes a folder nothing in
//!      the fleet (or the declared delivery set) ever reads;
//!    * **meet-cycle-no-exit** (error): a strongly connected component of the
//!      meet graph in which every member meets back into the component
//!      unconditionally and no member can halt;
//!    * **itinerary-out-of-range** (error): a literal `move_to`/`send_remote`
//!      site outside the declared site count;
//!    * **unbounded-growth** (warning): `bc_push`/`cab_append` inside a loop
//!      whose exit the dataflow cannot see.
//!
//! The soundness direction is the same as taco-vet's: **zero false
//! positives** on fleets that run cleanly.  Every approximation errs toward
//! silence — opaque agents become universal readers/writers (suppressing
//! folder findings), unknown native agents are universal, a meet counts as
//! *unconditional* only when it is reached before any branching or fallible
//! command at the top level of the script, and foreach loops (bounded by
//! their list) never trigger the growth check.  The price is deliberate
//! blindness: folder flow is fleet-global rather than per-meet-chain, and a
//! self-migration cycle re-armed through `ORIGCODE` is invisible to the meet
//! graph.  See DESIGN.md §6 for the full argument.

use crate::analysis::{loop_exit, LoopExit};
use crate::diag::Diagnostic;
use crate::graph::Digraph;
use crate::parser::{ParseError, Span};
use crate::tree::{walk, walk_body, At, Body, Cmd, Exits, Script, Shape, Step, View};
use crate::value::as_int;
use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::ptr;

/// Folders the TACOMA kernel itself writes into briefcases (timer meets,
/// error reports, courier provenance): always considered produced.
const KERNEL_WRITTEN: &[&str] = &["TIMER", "ERROR", "ORIGIN"];

/// Wellknown system agents every site provides, and the folders the two
/// protocol-critical ones consume.  Everything else on this list is a
/// service whose behaviour is not worth modelling precisely: those are
/// treated as universal readers and writers (never the source of a finding,
/// always a consumer/producer of anything).  `tacoma-core` asserts its
/// `wellknown::AGENTS` slice stays within this list.
pub const WELLKNOWN_AGENTS: &[&str] = &[
    "ag_tac",
    "rexec",
    "courier",
    "diffusion",
    "broker",
    "monitor",
    "ticket",
    "mint",
    "court",
    "broker_guard",
];

/// The folders a wellknown agent reads, or `None` if the agent is modelled
/// as universal.
fn wellknown_reads(name: &str) -> Option<&'static [&'static str]> {
    match name {
        // ag_tac executes the CODE folder of whoever meets it.
        "ag_tac" => Some(&["CODE"]),
        // rexec ships CODE to the site in HOST addressed to CONTACT.
        "rexec" => Some(&["CODE", "HOST", "CONTACT"]),
        _ => None,
    }
}

// --- effect summaries --------------------------------------------------------

/// One literal `meet` edge out of a script.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MeetEdge {
    /// Where the first such `meet` appears.
    pub span: Span,
    /// True when at least one occurrence is reached unconditionally: at the
    /// top level (not in a `[..]`), before any branching construct or
    /// fallible command.
    pub unconditional: bool,
}

/// One literal site reference (`move_to N` or `send_remote N ...`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SiteRef {
    /// The literal site number.
    pub site: i64,
    /// Where the command appears.
    pub span: Span,
    /// `"move_to"` or `"send_remote"`.
    pub command: &'static str,
}

/// One growth operation inside a loop with no visible exit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GrowthSite {
    /// The folder (for `bc_push`) or cabinet (for `cab_append`) grown.
    pub target: String,
    /// Where the operation appears.
    pub span: Span,
    /// `"bc_push"` or `"cab_append"`.
    pub command: &'static str,
}

/// What one script does to the shared world, abstracted for fleet analysis.
#[derive(Debug, Clone, Default)]
pub struct EffectSummary {
    /// Folders read on the normal path (outside `catch`, `proc` bodies and
    /// `eval` scripts), with the first read site — these are *flaggable*.
    pub reads: BTreeMap<String, Span>,
    /// Folders written on the normal path, with the first write site.
    pub writes: BTreeMap<String, Span>,
    /// Every folder possibly read anywhere, including `catch`/`proc` bodies
    /// and `eval` scripts.
    pub reads_all: BTreeSet<String>,
    /// Every folder possibly written anywhere.
    pub writes_all: BTreeSet<String>,
    /// Cabinets touched by any `cab_*` command.
    pub cabinets: BTreeSet<String>,
    /// Literal `meet` targets.
    pub meets: BTreeMap<String, MeetEdge>,
    /// Literal `move_to`/`send_remote` site numbers.
    pub move_sites: Vec<SiteRef>,
    /// Growth operations inside loops with no visible exit.
    pub growth: Vec<GrowthSite>,
    /// Whether the script may `halt`: `halt` passes loops, `catch` and proc
    /// calls, but a `[..]` substitution or a condition swallows it.
    pub halts: bool,
    /// Text the walk cannot see into was seen, or outside `catch` a
    /// computed folder/cabinet/meet name or an `eval`: the summary
    /// under-approximates and the agent must be treated as a universal
    /// reader/writer.
    pub opaque: bool,
    /// Inside `catch`, a folder or cabinet name, or a command name, is
    /// computed at run time: `reads_all`, `writes_all` and `cabinets` may
    /// miss what it touches, so the fleet treats the agent as a universal
    /// reader and writer of folders.  The flaggable tiers stay exempt.
    pub(crate) reaches_any: bool,
}

/// Extracts the effect summary of one script.  Returns the parse error if
/// the script does not parse at all (nested bodies that fail to parse make
/// the summary opaque instead).
pub fn summarize(src: &str) -> Result<EffectSummary, ParseError> {
    Script::parse(src).summary()
}

impl Script {
    /// taco-audit's effect summary of this script, or the error if it does
    /// not parse at all (nested bodies that fail to parse make the summary
    /// opaque instead).  One `tree::walk` over the brace-quoted tree reads
    /// every effect, so the audit follows exactly the nested text `tree.rs`
    /// says runs, and gives up where it says the text is not known.
    pub fn summary(&self) -> Result<EffectSummary, ParseError> {
        let tree = self.tree.as_ref().map_err(ParseError::clone)?;
        let mut out = EffectSummary::default();
        // True until a top-level command that can branch, raise or stop is
        // passed: a meet reached while this holds runs on every execution.
        let mut certain = true;
        let mut grown = HashSet::new();
        walk(tree, View::Braced, At::ROOT, &mut |step, at| {
            // A script the walk cannot see into may touch anything, in
            // `catch` too.
            let Step::Cmd(cmd) = step else {
                out.opaque = true;
                return false;
            };
            out.record(cmd, at, certain);
            if at.top {
                let keeps = cmd.name().is_some_and(infallible)
                    && cmd.words.iter().all(|w| w.static_text().is_some());
                certain &= keeps || matches!(cmd.shape, Shape::Proc { .. });
            }
            if let (Shape::While { cond, body }, false) = (&cmd.shape, at.in_catch) {
                if cond.braced && loop_exit(cond, body, &self.calls) != LoopExit::Seen {
                    out.grow(body, &mut grown);
                }
            }
            false
        });
        out.halts = tree.exits(View::Braced, &self.calls).may(Exits::HALT);
        Ok(out)
    }
}

impl EffectSummary {
    /// Records what one command does where it sits; `certain` holds while
    /// no earlier top-level command could branch, raise or stop.
    fn record(&mut self, cmd: &Cmd, at: At, certain: bool) {
        // On the normal path: not in `catch`, a proc body or an `eval`.
        let flag = at.in_scope && !at.in_catch;
        let Some(name) = cmd.name() else {
            return self.any_name(at);
        };
        let span = cmd.span;
        match &cmd.shape {
            // A runtime-built condition hides the loop's effects; so does
            // a control command with the wrong number of arguments, and
            // even a braced eval is a script chosen at run time to be code.
            Shape::While { cond, .. } if !cond.braced => return self.dynamic(at),
            Shape::Eval { .. } | Shape::Malformed => return self.dynamic(at),
            Shape::Plain => {}
            _ => return,
        }
        let target = cmd.arg_text(0);
        match (name, target) {
            ("bc_put" | "bc_push", Some(folder)) => self.write(folder, span, flag),
            (
                "bc_pop" | "bc_dequeue" | "bc_peek" | "bc_list" | "bc_size" | "bc_del",
                Some(folder),
            ) => {
                self.read(folder, span, flag);
            }
            ("cab_append" | "cab_contains" | "cab_list" | "cab_pop", Some(cabinet)) => {
                self.cabinets.insert(cabinet.to_string());
            }
            // A meet inside a `[..]` counts as conditional: `At` does not
            // say which command the substitution belongs to.
            ("meet", Some(target)) => {
                let edge = self.meets.entry(target.to_string()).or_insert(MeetEdge {
                    span,
                    unconditional: false,
                });
                edge.unconditional |= at.top && certain;
            }
            ("meet", None) => self.dynamic(at),
            (
                "bc_put" | "bc_push" | "bc_pop" | "bc_dequeue" | "bc_peek" | "bc_list" | "bc_size"
                | "bc_del" | "cab_append" | "cab_contains" | "cab_list" | "cab_pop",
                None,
            ) => self.any_name(at),
            ("move_to" | "send_remote", _) => {
                let command = ["send_remote", "move_to"][usize::from(name == "move_to")];
                if let Some(site) = target.and_then(as_int) {
                    self.move_sites.push(SiteRef {
                        site,
                        span,
                        command,
                    });
                }
                // Shipped folders are read out of the briefcase.
                if name == "send_remote" {
                    for i in 2..cmd.words.len() - 1 {
                        match cmd.arg_text(i) {
                            Some(folder) => self.read(folder, span, flag),
                            None => self.any_name(at),
                        }
                    }
                }
            }
            _ => {}
        }
    }

    fn read(&mut self, folder: &str, span: Span, flag: bool) {
        self.reads_all.insert(folder.to_string());
        if flag {
            self.reads.entry(folder.to_string()).or_insert(span);
        }
    }

    fn write(&mut self, folder: &str, span: Span, flag: bool) {
        self.writes_all.insert(folder.to_string());
        if flag {
            self.writes.entry(folder.to_string()).or_insert(span);
        }
    }

    /// Marks the summary opaque — unless the dynamic construct sits inside
    /// `catch`, which is exempt by convention.
    fn dynamic(&mut self, at: At) {
        self.opaque |= !at.in_catch;
    }

    /// A name computed at run time that may be any folder or cabinet:
    /// inside `catch`, the `_all` tiers and `cabinets` may hold any name.
    fn any_name(&mut self, at: At) {
        self.dynamic(at);
        self.reaches_any |= at.in_catch;
    }

    /// Records each growth command outside `catch` in the body of a `while`
    /// whose exit the dataflow cannot see, once however many such loops
    /// hold it: commands inside one `[..]` share a span, so `grown` holds
    /// the commands already recorded.
    fn grow(&mut self, body: &Body, grown: &mut HashSet<*const Cmd>) {
        walk_body(body, View::Braced, At::ROOT, &mut |step, at| {
            if let (Step::Cmd(cmd), false) = (step, at.in_catch) {
                if let Some((Some(target), _)) = cmd.growth() {
                    if grown.insert(ptr::from_ref(cmd)) {
                        self.growth.push(GrowthSite {
                            target: target.to_string(),
                            span: cmd.span,
                            command: ["bc_push", "cab_append"]
                                [usize::from(cmd.name() == Some("cab_append"))],
                        });
                    }
                }
            }
            false
        });
    }
}

/// Commands that can neither raise nor branch (given fully static words):
/// a meet after a straight line of these is still unconditional.
fn infallible(name: &str) -> bool {
    matches!(
        name,
        "bc_put" | "bc_push" | "bc_del" | "cab_append" | "puts" | "log" | "set" | "list"
    )
}

// --- fleet composition -------------------------------------------------------

/// One agent declared to the fleet audit.
#[derive(Debug, Clone)]
pub struct AgentSpec {
    /// The agent's meet name.
    pub name: String,
    /// The label findings about this agent render against (a file path, or a
    /// folder name like `CODE` for scripts in flight).
    pub source: String,
    /// The TacoScript source, or `None` for a native (Rust) agent.
    pub code: Option<String>,
}

/// A declared fleet: agents, site count, and the folder environment.
#[derive(Debug, Clone, Default)]
pub struct AuditConfig {
    agents: Vec<AgentSpec>,
    site_count: Option<u32>,
    injected: BTreeSet<String>,
    delivered: BTreeSet<String>,
}

impl AuditConfig {
    /// An empty fleet.
    pub fn new() -> Self {
        Self::default()
    }

    /// Declares a script agent (builder form).
    pub fn agent(
        mut self,
        name: impl Into<String>,
        source: impl Into<String>,
        code: impl Into<String>,
    ) -> Self {
        self.add_agent(name, source, code);
        self
    }

    /// Declares a script agent, replacing any previous agent of the same name.
    pub fn add_agent(
        &mut self,
        name: impl Into<String>,
        source: impl Into<String>,
        code: impl Into<String>,
    ) {
        let spec = AgentSpec {
            name: name.into(),
            source: source.into(),
            code: Some(code.into()),
        };
        self.agents.retain(|a| a.name != spec.name);
        self.agents.push(spec);
    }

    /// Declares a native (Rust) agent: a universal reader/writer unless it is
    /// one of the precisely modelled wellknown agents (builder form).
    pub fn native(mut self, name: impl Into<String>) -> Self {
        self.add_native(name);
        self
    }

    /// Declares a native agent.
    pub fn add_native(&mut self, name: impl Into<String>) {
        let name = name.into();
        let spec = AgentSpec {
            source: format!("<native {name}>"),
            name,
            code: None,
        };
        self.agents.retain(|a| a.name != spec.name);
        self.agents.push(spec);
    }

    /// Declares the number of sites, enabling the itinerary check (builder
    /// form).
    pub fn site_count(mut self, n: u32) -> Self {
        self.site_count = Some(n);
        self
    }

    /// Sets the site count in place (used by `tacoma-core`, which knows the
    /// topology at build time).
    pub fn set_site_count(&mut self, n: u32) {
        self.site_count = Some(n);
    }

    /// The declared site count, if any.
    pub fn declared_site_count(&self) -> Option<u32> {
        self.site_count
    }

    /// Declares a folder present in the injected briefcase (builder form).
    pub fn inject(mut self, folder: impl Into<String>) -> Self {
        self.add_injected(folder);
        self
    }

    /// Declares an injected folder.
    pub fn add_injected(&mut self, folder: impl Into<String>) {
        self.injected.insert(folder.into());
    }

    /// Declares a folder that is a deliverable: something outside the fleet
    /// (the experiment driver, a human) reads it, so writing it is not dead
    /// (builder form).
    pub fn deliver(mut self, folder: impl Into<String>) -> Self {
        self.add_delivered(folder);
        self
    }

    /// Declares a delivered folder.
    pub fn add_delivered(&mut self, folder: impl Into<String>) {
        self.delivered.insert(folder.into());
    }

    /// The declared agents, in declaration order.
    pub fn agents(&self) -> &[AgentSpec] {
        &self.agents
    }
}

/// One fleet-audit finding: a diagnostic anchored to the agent it is about.
#[derive(Debug, Clone)]
pub struct AuditFinding {
    /// The meet name of the agent the finding is about.
    pub agent: String,
    /// The source label findings render against.
    pub source: String,
    /// The finding itself.
    pub diag: Diagnostic,
}

struct Node<'a> {
    name: &'a str,
    /// The label a script's findings render against.
    source: &'a str,
    /// A script's summary; `None` for a native agent, which can always stop
    /// meeting back.
    summary: Option<EffectSummary>,
    /// Universal reader/writer: opaque script, one that reaches any folder
    /// from `catch`, unknown native, or a wellknown service agent not
    /// modelled precisely.
    universal: bool,
    /// Folders a precisely modelled native reads.
    native_reads: &'static [&'static str],
}

/// Audits a declared fleet, returning findings sorted by source, position
/// and severity.  An empty result means the fleet composes cleanly.
pub fn audit(config: &AuditConfig) -> Vec<AuditFinding> {
    compose(config, None, [])
}

/// [`audit`] of the fleet with one more script agent declared — `name`,
/// rendering against `source`, with its parsed `script` — in place of any
/// declared agent of that name, and with the `injected` folders added: the
/// install gate's question, answered without copying the fleet or parsing
/// the script again.
pub fn audit_script<'a>(
    config: &'a AuditConfig,
    name: &'a str,
    source: &'a str,
    script: &Script,
    injected: impl IntoIterator<Item = &'a str>,
) -> Vec<AuditFinding> {
    compose(config, Some((name, source, script.summary())), injected)
}

#[allow(clippy::too_many_lines)]
fn compose<'a>(
    config: &'a AuditConfig,
    extra: Option<(&'a str, &'a str, Result<EffectSummary, ParseError>)>,
    injected: impl IntoIterator<Item = &'a str>,
) -> Vec<AuditFinding> {
    let replaced = extra.as_ref().map(|&(name, ..)| name);
    // Each agent's name, source label, and summary (`None` for a native).
    let declared = config
        .agents
        .iter()
        .filter(|spec| Some(spec.name.as_str()) != replaced);
    let declared = declared.map(|spec| {
        let summary = spec.code.as_deref().map(summarize);
        (spec.name.as_str(), spec.source.as_str(), summary)
    });
    let extra = extra.map(|(name, source, summary)| (name, source, Some(summary)));
    let mut findings: Vec<AuditFinding> = Vec::new();
    let mut nodes: Vec<Node> = Vec::new();
    for (name, source, summary) in declared.chain(extra) {
        match summary {
            Some(Ok(summary)) => nodes.push(Node {
                name,
                source,
                universal: summary.opaque || summary.reaches_any,
                summary: Some(summary),
                native_reads: &[],
            }),
            // An unparsable script never runs: it contributes nothing.
            Some(Err(e)) => findings.push(AuditFinding {
                agent: name.to_string(),
                source: source.to_string(),
                diag: Diagnostic::error("parse", e.span(), e.message),
            }),
            None => nodes.push(native_node(name)),
        }
    }
    // Wellknown agents pulled in implicitly by literal meet targets.
    let targets = nodes
        .iter()
        .flat_map(|n| n.summary.iter().flat_map(|s| s.meets.keys()));
    let implicit: BTreeSet<&str> = WELLKNOWN_AGENTS
        .iter()
        .copied()
        .filter(|wk| targets.clone().any(|t| t == wk) && nodes.iter().all(|n| n.name != *wk))
        .collect();
    nodes.extend(implicit.into_iter().map(native_node));

    // Folder-flow composition.
    let mut writers: BTreeSet<&str> = config.injected.iter().map(String::as_str).collect();
    for folder in injected {
        writers.insert(folder);
    }
    writers.extend(KERNEL_WRITTEN);
    let mut readers: BTreeSet<&str> = config.delivered.iter().map(String::as_str).collect();
    let mut universal_writer = false;
    let mut universal_reader = false;
    for node in &nodes {
        if node.universal {
            universal_writer = true;
            universal_reader = true;
        }
        readers.extend(node.native_reads);
        if let Some(summary) = &node.summary {
            writers.extend(summary.writes_all.iter().map(String::as_str));
            readers.extend(summary.reads_all.iter().map(String::as_str));
        }
    }

    // Per-script findings.
    for node in &nodes {
        let Some(summary) = &node.summary else {
            continue;
        };
        let mut diags = Vec::new();
        if !summary.opaque {
            for (folder, span) in &summary.reads {
                if !universal_writer && !writers.contains(folder.as_str()) {
                    let message = format!(
                        "folder '{folder}' is read but never produced: no fleet agent writes it \
                         and it is not in the injected briefcase"
                    );
                    diags.push(Diagnostic::error("folder-never-produced", *span, message));
                }
            }
            for (folder, span) in &summary.writes {
                if !universal_reader && !readers.contains(folder.as_str()) {
                    let message = format!(
                        "folder '{folder}' is written but never read: no fleet agent, wellknown \
                         consumer, or declared deliverable consumes it"
                    );
                    diags.push(Diagnostic::warning("dead-folder-write", *span, message));
                }
            }
        }
        for SiteRef {
            site,
            span,
            command,
        } in &summary.move_sites
        {
            let detail = match config.site_count {
                Some(n) if (0..i64::from(n)).contains(site) => continue,
                None if *site >= 0 => continue,
                Some(0) => "the fleet declares no sites".to_string(),
                Some(n) => format!("the fleet declares {n} site(s) (valid: 0..{})", n - 1),
                None => "sites are non-negative".to_string(),
            };
            let message = format!("'{command}' targets site {site}, but {detail}");
            diags.push(Diagnostic::error("itinerary-out-of-range", *span, message));
        }
        for GrowthSite {
            target,
            span,
            command,
        } in &summary.growth
        {
            let kind = ["cabinet", "folder"][usize::from(*command == "bc_push")];
            let message = format!(
                "'{command}' into {kind} '{target}' repeats inside a loop whose exit the \
                 analysis cannot see; it may grow without bound"
            );
            diags.push(Diagnostic::warning("unbounded-growth", *span, message));
        }
        findings.extend(diags.into_iter().map(|diag| AuditFinding {
            agent: node.name.to_string(),
            source: node.source.to_string(),
            diag,
        }));
    }

    // Meet-cycle analysis.
    let index: BTreeMap<&str, usize> = nodes.iter().enumerate().map(|(i, n)| (n.name, i)).collect();
    let mut graph = Digraph::new(nodes.len());
    for (i, node) in nodes.iter().enumerate() {
        if let Some(summary) = &node.summary {
            for target in summary.meets.keys() {
                if let Some(&j) = index.get(target.as_str()) {
                    graph.add_edge(i, j);
                }
            }
        }
    }
    for scc in graph.sccs() {
        let cyclic = scc.len() > 1 || graph.has_edge(scc[0], scc[0]);
        if !cyclic {
            continue;
        }
        let members: BTreeSet<&str> = scc.iter().map(|&i| nodes[i].name).collect();
        let back = |(target, edge): (&String, &MeetEdge)| {
            edge.unconditional && members.contains(target.as_str())
        };
        // Flag only when *every* member is a non-opaque script that cannot
        // halt and unconditionally meets back into the component.
        let doomed = scc.iter().all(|&i| {
            let node = &nodes[i];
            let Some(summary) = &node.summary else {
                return false; // native members can always exit
            };
            !summary.opaque && !summary.halts && summary.meets.iter().any(back)
        });
        if !doomed {
            continue;
        }
        // Anchor at the first member (by name) and its in-component meet.
        let &anchor = scc
            .iter()
            .min_by_key(|&&i| nodes[i].name)
            .expect("nonempty scc");
        let node = &nodes[anchor];
        let summary = node.summary.as_ref().expect("scripts only");
        let edge = summary.meets.iter().find(|&meet| back(meet));
        let (_, edge) = edge.expect("doomed member has an unconditional in-component meet");
        let cycle: Vec<&str> = members.iter().copied().collect();
        findings.push(AuditFinding {
            agent: node.name.to_string(),
            source: node.source.to_string(),
            diag: Diagnostic::error(
                "meet-cycle-no-exit",
                edge.span,
                format!(
                    "meet cycle {{{}}} has no exit: every member meets back into the cycle \
                     unconditionally and none can halt",
                    cycle.join(" -> ")
                ),
            ),
        });
    }

    findings.sort_by(|a, b| {
        a.source
            .cmp(&b.source)
            .then(a.diag.span.cmp(&b.diag.span))
            .then(b.diag.severity.cmp(&a.diag.severity))
            .then(a.diag.code.cmp(b.diag.code))
    });
    findings
}

fn native_node(name: &str) -> Node<'_> {
    let native_reads = wellknown_reads(name);
    Node {
        name,
        source: "",
        summary: None,
        universal: native_reads.is_none(),
        native_reads: native_reads.unwrap_or(&[]),
    }
}

/// True when any finding is error-severity (the install gate's criterion).
pub fn audit_has_errors(findings: &[AuditFinding]) -> bool {
    findings.iter().any(|f| f.diag.is_error())
}

/// Renders findings one per line as `source:line:col: severity[code]: message`.
pub fn render_audit(findings: &[AuditFinding]) -> String {
    let mut out = String::new();
    for f in findings {
        out.push_str(&f.diag.render(&f.source));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn codes(findings: &[AuditFinding]) -> Vec<&'static str> {
        findings.iter().map(|f| f.diag.code).collect()
    }

    #[test]
    fn summaries_extract_folder_effects() {
        let s = summarize(
            "set hops [bc_pop HOPS]\nbc_put TALLY $hops\nbc_push TRAIL [my_site]\nhalt done",
        )
        .unwrap();
        assert!(s.reads.contains_key("HOPS"));
        assert!(s.writes.contains_key("TALLY"));
        assert!(s.writes.contains_key("TRAIL"));
        assert!(s.halts);
        assert!(!s.opaque);
        assert!(s.growth.is_empty());
        // A `[..]` swallows `halt`; a proc call passes it on.
        assert!(!summarize("set y [halt]").unwrap().halts);
        assert!(summarize("proc f {} {halt}; f").unwrap().halts);
    }

    #[test]
    fn summaries_see_reads_inside_braced_conditions() {
        let s = summarize("while {[bc_size Q] > 0} { bc_pop Q }\nreturn done").unwrap();
        assert!(s.reads.contains_key("Q"));
        // Draining is not growth.
        assert!(s.growth.is_empty());
    }

    #[test]
    fn computed_names_make_the_summary_opaque_except_in_catch() {
        let s = summarize("set f DATA\nbc_put $f 1").unwrap();
        assert!(s.opaque);
        let s = summarize("set f DATA\ncatch { bc_put $f 1 }").unwrap();
        assert!(!s.opaque);
        // Effects inside catch stay out of the flaggable tier.
        let s = summarize("catch { bc_put SAFE 1 }").unwrap();
        assert!(!s.writes.contains_key("SAFE"));
        assert!(s.writes_all.contains("SAFE"));
        // eval is opaque even when braced.
        assert!(summarize("eval {bc_put X 1}").unwrap().opaque);
        // Inside catch a braced eval is walked: its effects reach the `_all`
        // tiers, and it does not make the summary opaque.
        let s = summarize("catch { eval {bc_put X 1} }").unwrap();
        assert!(s.writes_all.contains("X"));
        assert!(!s.writes.contains_key("X"));
        assert!(!s.opaque);
        // A computed condition is substituted again when it is evaluated,
        // which may run any `[..]` its value holds.
        assert!(summarize("set c 1\nif $c {set y 1}").unwrap().opaque);
    }

    #[test]
    fn meets_record_unconditional_reachability() {
        // A meet behind nothing but infallible commands is unconditional.
        let s = summarize("bc_put TRACE ping\nmeet pong").unwrap();
        assert!(s.meets["pong"].unconditional);
        // A meet inside a branch is not.
        let s = summarize("if {[my_site]} { meet pong }").unwrap();
        assert!(!s.meets["pong"].unconditional);
        // A meet after a fallible command is not.
        let s = summarize("set x [bc_pop F]\nmeet pong").unwrap();
        assert!(!s.meets["pong"].unconditional);
        // A meet inside catch is not (failure is absorbed).
        let s = summarize("catch { meet pong }").unwrap();
        assert!(!s.meets["pong"].unconditional);
        // Nor is one inside a `[..]`, which the summary cannot place.
        let s = summarize("set r [meet pong]").unwrap();
        assert!(!s.meets["pong"].unconditional);
    }

    #[test]
    fn growth_sites_require_an_invisible_exit() {
        // Dynamic condition, push in the body: flagged.
        let s = summarize("while {[bc_size Q] > 0} { bc_push Q [bc_pop Q] }").unwrap();
        assert_eq!(s.growth.len(), 1);
        assert_eq!(s.growth[0].target, "Q");
        assert_eq!(s.growth[0].command, "bc_push");
        // A visible escape bounds the loop.
        let s = summarize(
            "while {[bc_size Q] > 0} { bc_push OUT [bc_pop Q]\nif {[my_site]} { break } }",
        )
        .unwrap();
        assert!(s.growth.is_empty());
        // Induction variables bound static conditions.
        let s = summarize("set i 0\nwhile {$i < 3} { bc_push OUT $i\nincr i }").unwrap();
        assert!(s.growth.is_empty());
        // foreach is bounded by its list.
        let s = summarize("foreach x [bc_list IN] { cab_append shared OUT $x }").unwrap();
        assert!(s.growth.is_empty());
        // A computed foreach variable may be the loop's counter.
        let s = summarize(
            "set i 0; set v i; while {$i < 3} {foreach $v {1 2 3} {bc_push OUT x}}; return $i",
        )
        .unwrap();
        assert!(s.growth.is_empty());
        // cab_append in a constant-true loop without escape: flagged.
        let s = summarize("while {1} { cab_append shared LOG tick }").unwrap();
        assert_eq!(s.growth.len(), 1);
        assert_eq!(s.growth[0].command, "cab_append");
    }

    #[test]
    fn folder_never_produced_and_its_suppressions() {
        let reader = "set v [bc_pop PLAN]\nbc_put ACK $v\nreturn ok";
        // Nobody writes PLAN: error.
        let cfg = AuditConfig::new()
            .agent("r", "r.taco", reader)
            .deliver("ACK");
        assert_eq!(codes(&audit(&cfg)), vec!["folder-never-produced"]);
        // Injection satisfies the read.
        let cfg = cfg.inject("PLAN");
        assert!(audit(&cfg).is_empty());
        // A fleet writer satisfies it too.
        let cfg = AuditConfig::new()
            .agent("r", "r.taco", reader)
            .agent("w", "w.taco", "bc_put PLAN route\nreturn ok")
            .deliver("ACK");
        assert!(audit(&cfg).is_empty());
        // So does a write the interpreter runs from a braced eval inside
        // catch, or from a condition it substitutes a second time.
        for writer in [
            "catch { eval { bc_put PLAN route } }\nreturn ok",
            "set c {[bc_put PLAN route]}\nset y [expr $c]\nreturn ok",
            "set c {[string length [bc_put PLAN route]] == 0}\nif $c {set y 1}\nreturn ok",
        ] {
            let cfg = AuditConfig::new()
                .agent("r", "r.taco", reader)
                .agent("w", "w.taco", writer)
                .deliver("ACK");
            assert!(audit(&cfg).is_empty(), "{writer}");
        }
        // A name computed inside `catch` could be any folder: the writer is
        // not opaque, yet it may write PLAN.
        let writer = "set f PLAN\ncatch { bc_put $f route }\nreturn ok";
        let cfg = AuditConfig::new()
            .agent("r", "r.taco", reader)
            .agent("w", "w.taco", writer)
            .site_count(2)
            .deliver("ACK");
        assert!(audit(&cfg).is_empty(), "{:?}", audit(&cfg));
        let s = summarize(writer).unwrap();
        assert!(s.reaches_any && !s.opaque && s.writes_all.is_empty());
        // An opaque agent could write anything: suppressed.
        let cfg = AuditConfig::new()
            .agent("r", "r.taco", reader)
            .agent("mystery", "m.taco", "set f X\nbc_put $f 1")
            .deliver("ACK");
        assert!(audit(&cfg).is_empty());
        // Kernel folders are always produced.
        let cfg = AuditConfig::new()
            .agent("r", "r.taco", "set e [bc_pop ERROR]\nbc_put ACK $e")
            .deliver("ACK");
        assert!(audit(&cfg).is_empty());
    }

    #[test]
    fn dead_folder_writes_and_their_suppressions() {
        let writer = "bc_put BEACON [my_site]\nreturn ok";
        let cfg = AuditConfig::new().agent("w", "w.taco", writer);
        assert_eq!(codes(&audit(&cfg)), vec!["dead-folder-write"]);
        assert!(!audit(&cfg)[0].diag.is_error());
        // A declared deliverable is read by the outside world.
        let cfg = AuditConfig::new()
            .agent("w", "w.taco", writer)
            .deliver("BEACON");
        assert!(audit(&cfg).is_empty());
        // A fleet reader consumes it.
        let cfg = AuditConfig::new().agent("w", "w.taco", writer).agent(
            "r",
            "r.taco",
            "set b [bc_pop BEACON]\nlog $b",
        );
        assert!(audit(&cfg).is_empty());
        // Writing HOST/CONTACT/CODE before meeting rexec is consumed by rexec.
        let mover = "bc_push CODE x\nbc_put HOST 1\nbc_put CONTACT ag_tac\nmeet rexec";
        let cfg = AuditConfig::new().agent("m", "m.taco", mover);
        assert!(audit(&cfg).is_empty());
    }

    #[test]
    fn itineraries_are_checked_against_the_site_count() {
        let cfg = AuditConfig::new()
            .site_count(4)
            .agent("h", "h.taco", "move_to 7\nreturn moving");
        let findings = audit(&cfg);
        assert_eq!(codes(&findings), vec!["itinerary-out-of-range"]);
        assert!(findings[0].diag.message.contains("site 7"));
        assert!(findings[0].diag.message.contains("valid: 0..3"));
        // In range: clean.
        let cfg = AuditConfig::new()
            .site_count(4)
            .agent("h", "h.taco", "move_to 3\nreturn moving");
        assert!(audit(&cfg).is_empty());
        // Without a declared count only negatives are wrong.
        let cfg = AuditConfig::new().agent("h", "h.taco", "move_to -1\nreturn moving");
        assert_eq!(codes(&audit(&cfg)), vec!["itinerary-out-of-range"]);
        // send_remote sites are checked the same way; its folders are reads.
        let cfg = AuditConfig::new().site_count(2).inject("DATA").agent(
            "s",
            "s.taco",
            "send_remote 5 ag_tac DATA\nreturn ok",
        );
        assert_eq!(codes(&audit(&cfg)), vec!["itinerary-out-of-range"]);
    }

    #[test]
    fn a_fleet_of_no_sites_has_no_valid_range() {
        let cfg = AuditConfig::new()
            .site_count(0)
            .agent("a", "a.taco", "move_to 0");
        let findings = audit(&cfg);
        assert_eq!(codes(&findings), vec!["itinerary-out-of-range"]);
        assert_eq!(
            findings[0].diag.message,
            "'move_to' targets site 0, but the fleet declares no sites"
        );
    }

    #[test]
    fn meet_cycles_without_exits_are_fatal() {
        let ping = "bc_put TRACE ping\nmeet pong";
        let pong = "bc_put TRACE pong\nmeet ping";
        let cfg = AuditConfig::new()
            .agent("ping", "ping.taco", ping)
            .agent("pong", "pong.taco", pong)
            .deliver("TRACE");
        let findings = audit(&cfg);
        assert_eq!(codes(&findings), vec!["meet-cycle-no-exit"]);
        assert!(findings[0].diag.message.contains("ping -> pong"));
        // One member halting breaks the livelock.
        let cfg = AuditConfig::new()
            .agent("ping", "ping.taco", ping)
            .agent(
                "pong",
                "pong.taco",
                "if {[bc_size TRACE] > 3} { halt done }\nmeet ping",
            )
            .deliver("TRACE")
            .inject("TRACE");
        assert!(audit(&cfg).is_empty());
        // A conditional meet is an exit.
        let cfg = AuditConfig::new()
            .agent("ping", "ping.taco", ping)
            .agent(
                "pong",
                "pong.taco",
                "if {[my_site]} { meet ping }\nreturn done",
            )
            .deliver("TRACE");
        assert!(audit(&cfg).is_empty());
        // A native member can always stop meeting back.
        let cfg = AuditConfig::new()
            .agent("ping", "ping.taco", "bc_put TRACE x\nmeet helper")
            .native("helper")
            .deliver("TRACE");
        assert!(audit(&cfg).is_empty());
        // Self-meets count as 1-cycles.
        let cfg = AuditConfig::new()
            .agent("narcissus", "n.taco", "meet narcissus")
            .deliver("TRACE");
        assert_eq!(codes(&audit(&cfg)), vec!["meet-cycle-no-exit"]);
    }

    #[test]
    fn parse_failures_become_parse_findings() {
        let cfg = AuditConfig::new().agent("b", "b.taco", "set x {unclosed");
        let findings = audit(&cfg);
        assert_eq!(codes(&findings), vec!["parse"]);
        assert!(findings[0].diag.is_error());
        assert_eq!(findings[0].source, "b.taco");
    }

    #[test]
    fn findings_render_like_vet_reports() {
        let cfg = AuditConfig::new()
            .site_count(2)
            .agent("h", "h.taco", "move_to 9\nreturn moving");
        let findings = audit(&cfg);
        assert!(audit_has_errors(&findings));
        let rendered = render_audit(&findings);
        assert!(
            rendered.starts_with("h.taco:1:1: error[itinerary-out-of-range]:"),
            "{rendered}"
        );
        assert!(render_audit(&[]).is_empty());
    }

    #[test]
    fn declaring_an_agent_twice_replaces_it() {
        let cfg = AuditConfig::new()
            .agent("a", "old.taco", "bc_put X 1")
            .agent("a", "new.taco", "bc_put Y 1\nreturn ok")
            .deliver("Y");
        assert!(audit(&cfg).is_empty());
        assert_eq!(cfg.agents().len(), 1);
        assert_eq!(cfg.agents()[0].source, "new.taco");
    }
}
