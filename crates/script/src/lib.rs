//! TacoScript: a small Tcl-like language for TACOMA agent code.
//!
//! The TACOMA prototype (§6) implements an agent as "a Tcl procedure; the text
//! of the procedure is stored in the agent's CODE folder", and every site runs
//! a Tcl interpreter that provides the place where agents execute.  We cannot
//! ship Ousterhout's Tcl, so this crate provides **TacoScript**, a from-scratch
//! interpreter with the properties the paper actually relies on:
//!
//! * agent code is plain text, carried in a folder, evaluated at whatever site
//!   the agent reaches — so agents can migrate between heterogeneous sites;
//! * the language can read and write folders and briefcases, meet other
//!   agents, and ask to move (`move_to`), which is how the paper's example
//!   agents (couriers, diffusion, shells) are written;
//! * the interpreter enforces a *step budget*, giving the kernel a handle on
//!   runaway agents (the paper's §3 motivates charging agents for resources).
//!
//! The language is a Tcl subset: commands are word lists; `{...}` quotes
//! literally; `[...]` substitutes a command's result; `$name` substitutes a
//! variable; `"..."` allows substitution inside quotes.  Control flow
//! (`if`/`while`/`foreach`/`proc`), arithmetic (`expr`), list and string
//! helpers, and the TACOMA builtins are provided by [`interp::Interp`].
//!
//! The interpreter is host-agnostic: TACOMA-specific commands are routed
//! through the [`host::ScriptHost`] trait, implemented by the `ag_tac` agent
//! in `tacoma-agents` (bridging to a real `MeetCtx`) and by a mock host in
//! tests.

#![warn(missing_docs)]

pub mod analysis;
pub mod audit;
pub mod builtins;
pub mod cost;
pub mod diag;
pub mod expr;
pub mod graph;
pub mod host;
pub mod interp;
pub mod parser;
mod tree;
pub mod value;

pub use analysis::{analyze, analyze_with, vet, AnalysisConfig};
pub use audit::{
    audit, audit_has_errors, audit_script, render_audit, summarize, AgentSpec, AuditConfig,
    AuditFinding, EffectSummary,
};
pub use builtins::{builtin, BuiltinSpec, BUILTINS};
pub use cost::{cost_bound, CostBound, CostGate, CostInterval};
pub use diag::{has_errors, render_report, Diagnostic, Severity};
pub use host::{HostCall, NullHost, RecordingHost, ScriptHost};
pub use interp::{Interp, InterpConfig, ScriptError, ScriptOutcome};
pub use parser::{parse_script, Command, ParseError, Span, Word, WordKind, WordPart};
pub use tree::Script;
pub use value::{format_list, parse_list};
