//! taco-vet: static analysis for TacoScript agent code.
//!
//! The paper stores an agent as "a Tcl procedure; the text of the procedure is
//! stored in the agent's CODE folder" — which means a typo'd builtin or a
//! use-before-set variable only surfaces after the agent has migrated halfway
//! across the system.  This pass walks the script's parsed tree (`tree.rs`)
//! and reports spanned [`Diagnostic`]s *before* the agent is launched:
//!
//! * **unknown-command** (error): a command that is neither a builtin nor a
//!   `proc` defined anywhere in the script;
//! * **wrong-arity** (error): wrong argument count for any builtin or user
//!   `proc` (argument counts are static in TacoScript: substitution never
//!   splits words);
//! * **use-before-set** (error) / **possibly-unset** (warning): definite-
//!   assignment dataflow with proper joins across `if`/`while`/`foreach` —
//!   a variable assigned on *no* path is an error, on *some* paths a warning;
//! * **unreachable** (warning): code after a command that never finishes
//!   normally (`tree::Exits`): an unconditional `return`, `halt`, `break`,
//!   `continue` or `error`, an `if` whose every arm leaves, or an `eval` of
//!   such a script;
//! * **after-move-to** (warning): code after `move_to` other than `return` or
//!   `halt` — it runs at the *departing* site, which is rarely intended;
//! * **unknown-agent** (error): a literal `meet` target that is neither a
//!   wellknown agent nor locally installed (only checked when the caller
//!   provides the known-agent set);
//! * **no-loop-exit** (warning): a `while` whose condition no body statement
//!   can ever change and whose body cannot break out — it will burn the whole
//!   step budget.
//!
//! The analyzer is deliberately conservative: anything it cannot see through
//! (a computed command name, an `eval` of a built string, a non-braced body)
//! is assumed to be fine.  `catch` bodies are exempt from all checks — failing
//! inside `catch` is a supported idiom, not a defect.  The invariant that
//! matters is **zero false positives**: every script the interpreter runs
//! cleanly must vet cleanly, because `tacoma-core` rejects agents whose CODE
//! folder produces errors at install time.

use crate::diag::Diagnostic;
use crate::parser::{var_names, IfFault, Span, Word, WordKind, WordPart};
use crate::tree::{
    walk, Arm, At, Binding, Body, Calls, Cmd, Cond, CondPart, Exits, Leave, Script, Shape, State,
    Step, Tree, View,
};
use crate::value::{is_truthy, parse_list};
use std::collections::{BTreeMap, BTreeSet};

/// Configuration for [`analyze_with`].
#[derive(Debug, Clone, Default)]
pub struct AnalysisConfig {
    known_agents: Option<BTreeSet<String>>,
    predefined: BTreeSet<String>,
    source_name: Option<String>,
}

impl AnalysisConfig {
    /// A configuration with no known-agent set (so `meet` targets are not
    /// checked) and no predefined variables.
    pub fn new() -> Self {
        Self::default()
    }

    /// Enables the `meet`-target check with the given set of resolvable agent
    /// names (wellknown agents plus whatever is installed at the site).
    pub fn known_agents<I, S>(mut self, agents: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.known_agents = Some(agents.into_iter().map(Into::into).collect());
        self
    }

    /// Adds one resolvable agent name (enables the `meet` check if it was
    /// not already enabled).
    pub fn add_known_agent(&mut self, name: impl Into<String>) {
        self.known_agents
            .get_or_insert_with(BTreeSet::new)
            .insert(name.into());
    }

    /// Declares variables that are bound before the script runs (for example
    /// arguments an agent receives), exempting them from use-before-set.
    pub fn predefined<I, S>(mut self, vars: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.predefined = vars.into_iter().map(Into::into).collect();
        self
    }

    /// Adds one predefined variable.
    pub fn add_predefined(&mut self, name: impl Into<String>) {
        self.predefined.insert(name.into());
    }

    /// Names the source the script came from (a real file path for scripts on
    /// disk, a folder name like `CODE` for scripts in flight), so rendered
    /// diagnostics point somewhere actionable instead of the `<script>`
    /// placeholder.
    pub fn source_name(mut self, name: impl Into<String>) -> Self {
        self.source_name = Some(name.into());
        self
    }

    /// The label diagnostics should be rendered against: the configured
    /// source name, or `<script>` when none was given.
    pub fn source_label(&self) -> &str {
        self.source_name.as_deref().unwrap_or("<script>")
    }
}

/// Analyzes a script with the default configuration (no `meet` check, no
/// predefined variables) and returns its diagnostics sorted by position.
pub fn analyze(src: &str) -> Vec<Diagnostic> {
    analyze_with(src, &AnalysisConfig::default())
}

/// Analyzes a script with an explicit [`AnalysisConfig`].
pub fn analyze_with(src: &str, config: &AnalysisConfig) -> Vec<Diagnostic> {
    Script::parse(src).analyze(config)
}

/// Analyzes a script and renders error-severity findings into a report
/// anchored at the configured [`AnalysisConfig::source_name`].  `Ok(())`
/// means the script may run.
pub fn vet(src: &str, config: &AnalysisConfig) -> Result<(), String> {
    Script::parse(src).vet(config)
}

impl Script {
    /// taco-vet's diagnostics for this script, sorted by position.
    pub fn analyze(&self, config: &AnalysisConfig) -> Vec<Diagnostic> {
        let tree = match self.tree.as_ref() {
            Ok(tree) => tree,
            Err(e) => return vec![Diagnostic::error("parse", e.span(), e.message.clone())],
        };
        let mut info = Prepass::default();
        walk(tree, View::Braced, At::ROOT, &mut |step, at| {
            match step {
                Step::Cmd(cmd) => info.record(cmd, at.in_catch),
                // A body that does not parse is reported by the main pass.
                Step::Opaque(state) => info.opaque |= !matches!(state, State::Bad(_)),
            }
            false
        });
        for def in self.procs.iter().filter(|def| def.at.braced) {
            let Some(params) = &def.params else {
                continue;
            };
            info.reads.extend(params.iter().cloned());
            if let Some(name) = &def.name {
                info.procs.insert(name.clone(), params.len());
                info.assigned.extend(params.iter().cloned());
            }
        }
        let mut analyzer = Analyzer {
            config,
            calls: &self.calls,
            info,
            diags: Vec::new(),
        };
        let mut env = Env::default();
        for var in &config.predefined {
            env.assign(var);
        }
        analyzer.check_tree(tree, &mut env, Ctx::default());
        let Analyzer {
            info, mut diags, ..
        } = analyzer;
        if !info.opaque {
            for (name, span) in &info.writes {
                if !info.reads.contains(name) && !config.predefined.contains(name) {
                    diags.push(Diagnostic::warning(
                        "unused-variable",
                        *span,
                        format!("variable '{name}' is assigned but never read"),
                    ));
                }
            }
        }
        diags.sort_by(|a, b| a.span.cmp(&b.span).then(b.severity.cmp(&a.severity)));
        diags
    }

    /// [`Script::analyze`], with error-severity findings rendered into a
    /// report anchored at the configured [`AnalysisConfig::source_name`].
    /// This is the entry point install-time gates use: `Ok(())` means the
    /// script may run.
    pub fn vet(&self, config: &AnalysisConfig) -> Result<(), String> {
        let diags = self.analyze(config);
        if crate::diag::has_errors(&diags) {
            Err(crate::diag::render_report(&diags, config.source_label()))
        } else {
            Ok(())
        }
    }
}

// --- pre-pass: procs, assigned names, and variable usage ---------------------

/// What vet learns before its dataflow runs, from the braced proc table and
/// one walk over the brace-quoted commands.
#[derive(Debug, Default)]
struct Prepass {
    /// proc name → parameter count, for arity checking of user procs.
    procs: BTreeMap<String, usize>,
    /// Every variable name assigned *anywhere* in the script (any scope):
    /// procs read outer dynamic scopes, so only a name assigned nowhere at
    /// all is a definite error in a proc body.
    assigned: BTreeSet<String>,
    /// Every name that could possibly be read anywhere, deliberately
    /// over-collected: a phantom read only suppresses an unused-variable
    /// warning.
    reads: BTreeSet<String>,
    /// First plain `set name value` site per name, outside `catch` bodies.
    writes: BTreeMap<String, Span>,
    /// Something dynamic (a computed command or variable name, a script
    /// built at runtime, nesting past the depth cap) defeated the usage
    /// scan: suppress every unused-variable warning.
    opaque: bool,
}

impl Prepass {
    /// Records one brace-quoted command.
    fn record(&mut self, cmd: &Cmd, in_catch: bool) {
        for word in &cmd.words {
            match &word.kind {
                WordKind::Parts(parts) => {
                    for part in parts {
                        if let WordPart::Variable(name) = part {
                            self.reads.insert(name.clone());
                        }
                    }
                }
                // Braced text may later be evaluated as a condition or expr:
                // harvest its `$name`s.
                WordKind::Braced(text) => self.reads.extend(var_names(text).map(str::to_string)),
            }
        }
        let Some(name) = cmd.name() else {
            self.opaque = true;
            return;
        };
        let (set, argc) = (name == "set", cmd.words.len() - 1);
        // `set x` reads x.
        if set && argc == 1 {
            self.opaque |= cmd.arg_text(0).is_none();
            self.reads.extend(cmd.arg_text(0).map(str::to_string));
        }
        for binding in cmd.bindings() {
            let Some(v) = binding.name else {
                self.opaque = true;
                continue;
            };
            if !binding.unset {
                self.assigned.insert(v.to_string());
            }
            // A binding other than `set`'s consumes its variable: a read-
            // modify-write or `unset` target, or a variable bound by
            // something else (an unused `foreach _ [...]` variable, `catch`
            // result or `proc` parameter is idiomatic, so those are exempt).
            if !set {
                self.reads.insert(v.to_string());
            } else if argc == 2 && !in_catch {
                self.writes.entry(v.to_string()).or_insert(cmd.span);
            }
        }
    }
}

// --- the main pass -----------------------------------------------------------

/// Definite-assignment state at one program point.
#[derive(Debug, Clone, Default)]
struct Env {
    /// Assigned on every path reaching this point.
    definite: BTreeSet<String>,
    /// Assigned on at least one path (superset of `definite`).
    maybe: BTreeSet<String>,
}

impl Env {
    fn assign(&mut self, name: &str) {
        self.definite.insert(name.to_string());
        self.maybe.insert(name.to_string());
    }

    /// Applies one of a command's [`Cmd::bindings`]; a computed name is
    /// not tracked.
    fn bind(&mut self, binding: Binding) {
        let Some(name) = binding.name else {
            return;
        };
        if binding.unset {
            self.definite.remove(name);
            self.maybe.remove(name);
        } else {
            self.assign(name);
        }
    }

    /// Folds another path's assignments in as merely *possible*.
    fn merge_maybe(&mut self, other: &Env) {
        self.maybe.extend(other.maybe.iter().cloned());
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct Ctx {
    /// Inside a proc body: outer-scope reads are legal (dynamic scoping), so
    /// only never-assigned-anywhere names are errors and nothing warns.
    in_proc: bool,
    /// Inside a `catch` body: all diagnostics are suppressed.
    in_catch: bool,
}

struct Analyzer<'c> {
    config: &'c AnalysisConfig,
    calls: &'c Calls,
    info: Prepass,
    diags: Vec<Diagnostic>,
}

impl Analyzer<'_> {
    /// Reports an error, unless inside `catch`.
    fn error(&mut self, ctx: Ctx, code: &'static str, span: Span, message: impl Into<String>) {
        if !ctx.in_catch {
            self.diags.push(Diagnostic::error(code, span, message));
        }
    }

    /// Reports a warning, unless inside `catch`.
    fn warn(&mut self, ctx: Ctx, code: &'static str, span: Span, message: impl Into<String>) {
        if !ctx.in_catch {
            self.diags.push(Diagnostic::warning(code, span, message));
        }
    }

    /// Checks a nested script.  Only brace-quoted text is followed; anything
    /// else is assumed to be fine.
    fn check_body(&mut self, body: &Body, env: &mut Env, ctx: Ctx) {
        match body.view(View::Braced) {
            State::Parsed(tree) => self.check_tree(tree, env, ctx),
            State::Bad(e) => self.error(ctx, "parse", e.span(), e.message.clone()),
            State::Computed | State::TooDeep => {}
        }
    }

    /// Checks one script (the whole source, or an embedded body).
    fn check_tree(&mut self, tree: &Tree, env: &mut Env, ctx: Ctx) {
        let (mut terminated, mut moved, mut warned_after_move) = (None, false, false);
        for cmd in &tree.cmds {
            if let Some(cause) = terminated {
                let message = format!("unreachable code after '{cause}'");
                self.warn(ctx, "unreachable", cmd.span, message);
                break;
            }
            let conventional = matches!(cmd.leaves(), Some(Leave::Return | Leave::Halt));
            if moved && !warned_after_move && !conventional {
                let message = "code after 'move_to' still runs at the departing site before \
                               migration; conventionally only 'return' or 'halt' follow it";
                self.warn(ctx, "after-move-to", cmd.span, message);
                warned_after_move = true;
            }
            moved |= self.check_command(cmd, env, ctx);
            if cmd.exits(View::Braced, self.calls).must {
                terminated = cmd.name();
            }
        }
    }

    /// Checks one command, and reports whether it queues a migration
    /// (`move_to`).
    fn check_command(&mut self, cmd: &Cmd, env: &mut Env, ctx: Ctx) -> bool {
        // Generic pass first: every substitution in every word is evaluated
        // left-to-right before the command runs, exactly like the interpreter.
        for (word, subs) in cmd.words.iter().zip(&cmd.subs) {
            self.check_word(word, subs, env, ctx);
        }
        let Some(name) = cmd.name() else {
            return false; // computed command name: opaque
        };
        let span = cmd.span;
        let args = &cmd.words[1..];
        let argc = args.len();

        // The interpreter enforces the same [`crate::builtins::BUILTINS`]
        // entries at runtime, so the two can never drift.
        if let Some(spec) = crate::builtins::builtin(name) {
            let (min, max) = (spec.min_args, spec.max_args);
            if argc < min || max.is_some_and(|m| argc > m) {
                self.error(ctx, "wrong-arity", span, arity_msg(name, min, max, argc));
                return false;
            }
        } else if let Some(&params) = self.info.procs.get(name) {
            if argc != params {
                let message = format!("proc '{name}' expects {params} argument(s), got {argc}");
                self.error(ctx, "wrong-arity", span, message);
            }
            return false;
        } else {
            let hint = self.suggest(name).map(|s| format!("; did you mean '{s}'?"));
            let message = format!("unknown command '{name}'{}", hint.unwrap_or_default());
            self.error(ctx, "unknown-command", span, message);
            return false;
        }

        match &cmd.shape {
            Shape::Expr { cond } => self.check_cond(cond, env, ctx),
            Shape::If { arms, fault } => self.check_if(arms, *fault, cmd, env, ctx),
            Shape::While { cond, body } => self.check_while(cond, body, span, env, ctx),
            Shape::Foreach { body } => {
                // The variable is bound on every body iteration, and still
                // may have been when the body is opaque.
                let mut benv = env.clone();
                cmd.bindings().for_each(|binding| benv.bind(binding));
                self.check_body(body, &mut benv, ctx);
                env.merge_maybe(&benv); // zero-trip possible: maybes only
                return false;
            }
            Shape::Proc { body } => self.check_proc(args[1].static_text(), body, ctx),
            Shape::Catch { body } => {
                let mut benv = env.clone();
                let cctx = Ctx {
                    in_catch: true,
                    ..ctx
                };
                self.check_body(body, &mut benv, cctx);
                env.merge_maybe(&benv); // the body may have failed part-way
            }
            Shape::Eval { body } => self.check_body(body, env, ctx),
            Shape::Plain | Shape::Malformed => {}
        }
        // `incr`/`append`/`lappend` default a missing variable to 0 / "", so
        // they assign without requiring a prior set; a `catch` result
        // variable is set on success and error.
        cmd.bindings().for_each(|binding| env.bind(binding));
        match name {
            "set" if argc == 1 => {
                // `set x` with one argument *reads* x.
                if let Some(var) = args[0].static_text() {
                    self.check_var(var, args[0].span, env, ctx);
                }
            }
            "meet" => {
                if let (Some(agents), Some(target)) =
                    (&self.config.known_agents, args[0].static_text())
                {
                    if !agents.contains(target) {
                        let message = format!(
                            "meet target '{target}' is neither a wellknown agent nor \
                             installed locally"
                        );
                        self.error(ctx, "unknown-agent", span, message);
                    }
                }
            }
            "move_to" => return true,
            "string" => self.check_string(args, span, ctx),
            _ => {}
        }
        false
    }

    /// Generic word check: variables and command substitutions in non-braced
    /// words.  Braced words are literal — nothing to check.
    fn check_word(&mut self, word: &Word, subs: &[Body], env: &mut Env, ctx: Ctx) {
        let WordKind::Parts(parts) = &word.kind else {
            return;
        };
        let mut subs = subs.iter();
        for part in parts {
            match part {
                WordPart::Literal(_) => {}
                WordPart::Variable(name) => self.check_var(name, word.span, env, ctx),
                // A substitution's script runs unconditionally as part of word
                // evaluation, so its assignments are definite; its `return`
                // does not propagate (the interpreter takes its value).
                WordPart::Command(_) => {
                    let script = subs.next().expect("one parsed script per [..] part");
                    self.check_body(script, env, ctx);
                }
            }
        }
    }

    fn check_var(&mut self, name: &str, span: Span, env: &Env, ctx: Ctx) {
        if env.definite.contains(name) || self.config.predefined.contains(name) {
            return;
        }
        if env.maybe.contains(name) {
            if !ctx.in_proc {
                let message = format!(
                    "variable '{name}' may be unset here: it is assigned on only some paths"
                );
                self.warn(ctx, "possibly-unset", span, message);
            }
            return;
        }
        // Procs read outer dynamic scopes, so a name assigned anywhere in the
        // script might be visible at call time; only never-assigned is certain.
        if ctx.in_proc && self.info.assigned.contains(name) {
            return;
        }
        let hint = if self.info.assigned.contains(name) {
            " (it is assigned only later or in another scope)"
        } else {
            ""
        };
        let message = format!("variable '{name}' is used before it is set{hint}");
        self.error(ctx, "use-before-set", span, message);
    }

    /// Checks brace-quoted condition text: its `$name` / `${name}` pieces
    /// are variable reads, its `[...]` pieces scripts evaluated in the same
    /// scope.
    fn check_cond(&mut self, cond: &Cond, env: &mut Env, ctx: Ctx) {
        if !cond.braced {
            return;
        }
        for part in &cond.parts {
            match part {
                CondPart::Var(name, span) => self.check_var(name, *span, env, ctx),
                CondPart::Script(script) => {
                    self.check_body(script, env, ctx);
                }
            }
        }
    }

    fn check_if(
        &mut self,
        arms: &[Arm],
        fault: Option<IfFault>,
        cmd: &Cmd,
        env: &mut Env,
        ctx: Ctx,
    ) {
        // Assignments on branches that must leave never reach the code
        // after the `if`: only falling branches join.
        let mut falling: Vec<Env> = Vec::new();
        let mut has_else = false;
        let mut structure_ok = true;
        for arm in arms {
            match &arm.cond {
                Some(cond) => self.check_cond(cond, env, ctx),
                None => has_else = true,
            }
            if let State::Computed = arm.body.view(View::Braced) {
                structure_ok = false;
            } else {
                let mut benv = env.clone();
                self.check_body(&arm.body, &mut benv, ctx);
                if !arm.body.exits(View::Braced, self.calls).must {
                    falling.push(benv);
                }
            }
        }
        // The interpreter never looks past an `else` body, so trailing words
        // there are not a defect.
        if let Some(fault) = fault.filter(|f| !matches!(f, IfFault::Trailing)) {
            structure_ok = false;
            let message = match fault {
                IfFault::Truncated => {
                    Some("'if' expects {cond} {body} with optional elseif/else clauses".into())
                }
                IfFault::ElseWithoutBody => Some("'if': 'else' needs a {body}".into()),
                IfFault::Unexpected(i) => cmd
                    .arg_text(i)
                    .map(|word| format!("'if': expected 'elseif' or 'else', got '{word}'")),
                IfFault::Trailing => None,
            };
            if let Some(message) = message {
                self.error(ctx, "wrong-arity", cmd.span, message);
            }
        }
        for benv in &falling {
            env.merge_maybe(benv);
        }
        if structure_ok && has_else && !falling.is_empty() {
            let mut definite = falling[0].definite.clone();
            for benv in &falling[1..] {
                definite = definite.intersection(&benv.definite).cloned().collect();
            }
            env.definite = definite;
        }
    }

    fn check_while(&mut self, cond: &Cond, body: &Body, span: Span, env: &mut Env, ctx: Ctx) {
        self.check_cond(cond, env, ctx);
        if let State::Computed = body.view(View::Braced) {
            return;
        }
        // The body may run zero times: its assignments are only maybes.
        let mut benv = env.clone();
        self.check_body(body, &mut benv, ctx);
        env.merge_maybe(&benv);
        if let LoopExit::Never(vars) = loop_exit(cond, body, self.calls) {
            let why = if vars.is_empty() {
                "the condition is constant-true and the body cannot break out".to_string()
            } else {
                format!(
                    "the body never updates any condition variable ({}) and cannot break out",
                    vars.iter().cloned().collect::<Vec<_>>().join(", ")
                )
            };
            let message =
                format!("loop has no reachable exit: {why}; it will exhaust the step budget");
            self.warn(ctx, "no-loop-exit", span, message);
        }
    }

    fn check_proc(&mut self, params: Option<&str>, body: &Body, ctx: Ctx) {
        let Some(params) = params else {
            return;
        };
        let mut penv = Env::default();
        for p in parse_list(params) {
            penv.assign(&p);
        }
        let pctx = Ctx {
            in_proc: true,
            ..ctx
        };
        self.check_body(body, &mut penv, pctx);
    }

    fn check_string(&mut self, args: &[Word], span: Span, ctx: Ctx) {
        let Some(op) = args[0].static_text() else {
            return;
        };
        // The arguments after the subcommand.
        let want = match op {
            "length" | "toupper" | "tolower" | "trim" => 1,
            "equal" | "first" => 2,
            "range" => 3,
            _ => {
                let message = format!("unknown 'string' subcommand '{op}'");
                return self.error(ctx, "unknown-command", span, message);
            }
        };
        let got = args.len() - 1;
        if got != want {
            let message =
                format!("'string {op}' expects {want} argument(s) after the subcommand, got {got}");
            self.error(ctx, "wrong-arity", span, message);
        }
    }

    /// The first builtin or proc at the least edit distance from `name`,
    /// if that is at most 2.
    fn suggest(&self, name: &str) -> Option<String> {
        if name.len() > 30 {
            return None;
        }
        let builtins = crate::builtins::BUILTINS.iter().map(|spec| spec.name);
        let candidates = builtins.chain(self.info.procs.keys().map(String::as_str));
        let near = candidates.map(|cand| (levenshtein(name, cand), cand));
        let (_, best) = near.filter(|&(d, _)| d <= 2).min_by_key(|&(d, _)| d)?;
        Some(best.to_string())
    }
}

fn arity_msg(name: &str, min: usize, max: Option<usize>, got: usize) -> String {
    let expected = match max {
        Some(m) if m == min => format!("{min}"),
        Some(m) => format!("{min} to {m}"),
        None => format!("at least {min}"),
    };
    format!("wrong number of arguments to '{name}': expected {expected}, got {got}")
}

/// How a `while` loop can end: the one verdict taco-vet's no-loop-exit
/// warning and taco-audit's unbounded-growth check share.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum LoopExit {
    /// Visibly: the body can update a condition variable or escape, or the
    /// condition is constant and falsy (zero-trip) or does not evaluate
    /// (the interpreter reports that loudly).
    Seen,
    /// Only through state the analysis cannot track: the condition consults
    /// a command (`[..]`) or is computed, and the body cannot escape.
    Runtime,
    /// Never: the condition is constant-true or reads only these variables,
    /// the body updates none of them, and it cannot escape.
    Never(BTreeSet<String>),
}

/// The loop-exit verdict for `while cond body`.  The body can end its
/// loop when control may leave it by anything but `continue`
/// ([`crate::tree::Exits`]), or when it may update one of the condition's
/// variables (a computed variable name could be one).
pub(crate) fn loop_exit(cond: &Cond, body: &Body, calls: &Calls) -> LoopExit {
    let leaves = body.exits(View::Braced, calls).may(Exits::END);
    let writes = calls.writes([body], View::Braced, false);
    let ends = |vars: &BTreeSet<String>| {
        leaves
            || writes
                .as_ref()
                .is_none_or(|writes| !writes.is_disjoint(vars))
    };
    let vars = match &cond.expr {
        // A condition that does not parse raises at its first test.
        Some(Err(_)) => return LoopExit::Seen,
        Some(Ok(expr)) if cond.scripts().next().is_none() => {
            let vars: BTreeSet<String> = (0..cond.parts.len())
                .filter_map(|i| cond.var(i).map(str::to_string))
                .collect();
            if vars.is_empty() && !expr.eval(&[]).is_ok_and(|v| is_truthy(&v)) {
                return LoopExit::Seen;
            }
            vars
        }
        _ if ends(&BTreeSet::new()) => return LoopExit::Seen,
        _ => return LoopExit::Runtime,
    };
    if ends(&vars) {
        LoopExit::Seen
    } else {
        LoopExit::Never(vars)
    }
}

fn levenshtein(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut cur = vec![0usize; b.len() + 1];
    for (i, ca) in a.iter().enumerate() {
        cur[0] = i + 1;
        for (j, cb) in b.iter().enumerate() {
            let cost = usize::from(ca != cb);
            cur[j + 1] = (prev[j] + cost).min(prev[j + 1] + 1).min(cur[j] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::has_errors;

    fn vet(src: &str) -> Vec<Diagnostic> {
        analyze_with(
            src,
            &AnalysisConfig::new().known_agents(["rexec", "courier", "diffusion", "ag_tac"]),
        )
    }

    fn codes(src: &str) -> Vec<&'static str> {
        vet(src).into_iter().map(|d| d.code).collect()
    }

    #[test]
    fn clean_scripts_produce_no_diagnostics() {
        // The migration idiom every example agent uses.
        let hop = r#"
            bc_push DATA "from [my_site]"
            set next [bc_dequeue ITINERARY]
            if {$next ne ""} {
                bc_push CODE [bc_peek ORIGCODE]
                bc_put HOST $next
                bc_put CONTACT ag_tac
                meet rexec
            } else {
                foreach d [bc_list DATA] { cab_append shared RESULTS $d }
            }
        "#;
        assert_eq!(vet(hop), vec![]);
        // Conditions, procs, loops with real induction variables.
        let busy = r#"
            proc double {x} { return [expr $x * 2] }
            set i 0
            set sum 0
            while {$i < 10} {
                incr i
                if {$i == 3} { continue }
                set sum [expr $sum + [double $i]]
            }
            if {[my_site] == 1} { move_to 2 } else { cab_append t DONE $sum }
        "#;
        assert_eq!(vet(busy), vec![]);
    }

    #[test]
    fn unknown_commands_are_flagged_with_suggestions() {
        let diags = vet("set x 1\nfrobnicate $x");
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, "unknown-command");
        assert_eq!(diags[0].span, Span::new(2, 1));
        // A near-miss of a builtin gets a suggestion.
        let diags = vet("bc_psh F 1");
        assert!(diags[0].message.contains("did you mean 'bc_push'"));
    }

    #[test]
    fn wrong_arity_for_builtins_and_procs() {
        assert_eq!(codes("bc_put ONLYONE"), vec!["wrong-arity"]);
        assert_eq!(codes("my_site extra"), vec!["wrong-arity"]);
        assert_eq!(codes("string frobnicate x"), vec!["unknown-command"]);
        assert_eq!(codes("string equal a"), vec!["wrong-arity"]);
        let diags = vet("proc f {a b} { expr $a + $b }\nf 1");
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, "wrong-arity");
        assert!(diags[0].message.contains("proc 'f' expects 2"));
    }

    #[test]
    fn use_before_set_with_branch_joins() {
        // Never assigned: error ('y' itself is also never read, which the
        // unused-variable pass reports alongside).
        let diags = vet("set y $x");
        assert_eq!(codes_of(&diags), vec!["unused-variable", "use-before-set"]);
        assert!(diags[1].is_error());
        // Assigned later: still an error at the use site.
        assert_eq!(
            codes("set y $x\nset x 1"),
            vec!["unused-variable", "use-before-set"]
        );
        // Assigned on only one branch: warning.
        let diags = vet("set a 1\nif {$a} { set b 1 }\nputs $b");
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, "possibly-unset");
        assert!(!diags[0].is_error());
        // Assigned on every branch: clean.
        assert_eq!(
            vet("set a 1\nif {$a} { set b 1 } else { set b 2 }\nputs $b"),
            vec![]
        );
        // A branch that returns does not poison the join.
        assert_eq!(
            vet("set a 1\nif {$a} { return } else { set b 2 }\nputs $b"),
            vec![]
        );
        // While bodies may run zero times.
        let diags = vet("set i 0\nwhile {$i < 3} { incr i; set b 1 }\nputs $b");
        assert_eq!(codes_of(&diags), vec!["possibly-unset"]);
        // Condition text and substitutions are scanned too.
        assert_eq!(
            codes("if {$nope} { set x 1 }"),
            vec!["use-before-set", "unused-variable"]
        );
        assert_eq!(codes("puts [expr $nope + 1]"), vec!["use-before-set"]);
    }

    fn codes_of(diags: &[Diagnostic]) -> Vec<&'static str> {
        diags.iter().map(|d| d.code).collect()
    }

    #[test]
    fn unreachable_and_after_move_to() {
        let diags = vet("return done\nputs after");
        assert_eq!(codes_of(&diags), vec!["unreachable"]);
        assert_eq!(codes("error boom\nputs after"), vec!["unreachable"]);
        // move_to followed by return is the universal idiom: clean.
        assert_eq!(vet("move_to 1\nreturn moving"), vec![]);
        // Anything else after move_to draws a warning.
        let diags = vet("move_to 1\nbc_put X 1");
        assert_eq!(codes_of(&diags), vec!["after-move-to"]);
        // Both branches returning makes the tail unreachable.
        assert_eq!(
            codes("set a 1\nif {$a} { return x } else { return y }\nputs tail"),
            vec!["unreachable"]
        );
    }

    #[test]
    fn meet_targets_are_checked_only_with_a_known_set() {
        assert_eq!(codes("meet nonsuch"), vec!["unknown-agent"]);
        assert_eq!(vet("meet rexec"), vec![]);
        // Dynamic targets are not checked.
        assert_eq!(vet("set a rexec\nmeet $a"), vec![]);
        // Without a known-agent set the check is off entirely.
        assert_eq!(analyze("meet nonsuch"), vec![]);
    }

    #[test]
    fn loops_with_no_reachable_exit_warn() {
        assert_eq!(
            codes("while {1} { set x 1 }"),
            vec!["no-loop-exit", "unused-variable"]
        );
        // The condition variable is never touched in the body.
        assert_eq!(
            codes("set i 0\nwhile {$i < 3} { bc_push F $i }"),
            vec!["no-loop-exit"]
        );
        // Updating the induction variable, breaking, or a dynamic condition
        // all count as exits.
        assert_eq!(vet("set i 0\nwhile {$i < 3} { incr i }"), vec![]);
        // A brace-quoted `expr` runs its scripts in the loop's scope.
        assert_eq!(vet("set i 0\nwhile {$i < 3} { expr {[incr i]} }"), vec![]);
        assert_eq!(vet("while {1} { if {[my_site]} { break } }"), vec![]);
        assert_eq!(vet("while {[bc_size Q] > 0} { bc_pop Q }"), vec![]);
        // halt escapes even from inside catch.
        assert_eq!(vet("while {1} { catch { halt done } }"), vec![]);
        // break inside a nested loop does not exit the outer loop.
        assert_eq!(
            codes("while {1} { foreach x {1 2} { break } }"),
            vec!["no-loop-exit"]
        );
        // Constant-false conditions are zero-trip, not infinite, and a
        // condition that does not parse raises at its first test.
        assert_eq!(vet("while {0} { puts idle }"), vec![]);
        assert_eq!(vet("set i 0\nwhile {$i <} { puts idle }"), vec![]);
    }

    #[test]
    fn catch_bodies_are_exempt() {
        assert_eq!(vet("catch { frobnicate $nope }"), vec![]);
        assert_eq!(vet("catch { meet ghost }"), vec![]);
        // The result variable counts as assigned afterwards.
        assert_eq!(vet("catch { error boom } msg\nputs $msg"), vec![]);
    }

    #[test]
    fn procs_may_read_outer_dynamic_scope() {
        // `g` is assigned somewhere in the script, so the proc body reading it
        // is legal under dynamic scoping; `never` is not assigned anywhere.
        assert_eq!(vet("set g 1\nproc f {} { return $g }\nf"), vec![]);
        let diags = vet("proc f {} { return $never }\nf");
        assert_eq!(codes_of(&diags), vec!["use-before-set"]);
    }

    #[test]
    fn predefined_variables_are_exempt() {
        let cfg = AnalysisConfig::new().predefined(["argv"]);
        assert_eq!(analyze_with("puts $argv", &cfg), vec![]);
        assert!(has_errors(&analyze("puts $argv")));
    }

    #[test]
    fn parse_errors_become_diagnostics() {
        let diags = analyze("set x 1\nset y {oops");
        assert_eq!(codes_of(&diags), vec!["parse"]);
        assert!(diags[0].is_error());
        assert_eq!(diags[0].span.line, 2);
    }

    #[test]
    fn spans_point_into_nested_bodies() {
        let src = "set a 1\nif {$a} {\n    frobnicate\n}";
        let diags = vet(src);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].span, Span::new(3, 5));
    }

    #[test]
    fn diagnostics_are_sorted_by_position() {
        let diags = vet("set y $x\nfrobnicate\nbc_put ONLY");
        let lines: Vec<u32> = diags.iter().map(|d| d.span.line).collect();
        // Line 1 carries two findings: unused-variable for 'y' at the
        // command, then use-before-set at the '$x' use site.
        assert_eq!(lines, vec![1, 1, 2, 3]);
        assert_eq!(
            codes_of(&diags),
            vec![
                "unused-variable",
                "use-before-set",
                "unknown-command",
                "wrong-arity"
            ]
        );
    }

    #[test]
    fn spans_point_into_doubly_nested_bodies() {
        // Composition of nested body offsets must stay absolute at depth 2+.
        let src = "set a 1\nif {$a} {\n    if {$a} {\n        frobnicate\n    }\n}";
        let diags = vet(src);
        assert_eq!(codes_of(&diags), vec!["unknown-command"]);
        assert_eq!(diags[0].span, Span::new(4, 9));
    }

    #[test]
    fn unused_variables_are_warned_conservatively() {
        // Plain assigned-never-read: warning, anchored at the assignment.
        let diags = vet("set ghost 42\nputs done");
        assert_eq!(codes_of(&diags), vec!["unused-variable"]);
        assert!(!diags[0].is_error());
        assert_eq!(diags[0].span, Span::new(1, 1));
        // Reads anywhere count: conditions, substitutions, nested bodies.
        assert_eq!(vet("set n 1\nwhile {$n < 3} { incr n }"), vec![]);
        assert_eq!(vet("set n 1\nputs [expr $n + 1]"), vec![]);
        assert_eq!(vet("set a 1\nif {$a} { puts $a }"), vec![]);
        // incr/append/lappend/unset count as reads of their target.
        assert_eq!(vet("set n 0\nincr n"), vec![]);
        assert_eq!(vet("set s a\nappend s b"), vec![]);
        assert_eq!(vet("set l {}\nlappend l x"), vec![]);
        // foreach loop variables and proc parameters are exempt.
        assert_eq!(vet("foreach x {1 2 3} { puts hop }"), vec![]);
        assert_eq!(vet("proc f {a b} { return $a }\nf 1 2"), vec![]);
        // catch result variables are exempt, and so are catch-body writes.
        assert_eq!(vet("catch { error boom } msg"), vec![]);
        assert_eq!(vet("catch { set tmp 1 }"), vec![]);
        // Any dynamic construct makes the pass stand down entirely.
        assert_eq!(
            vet("set ghost 42\nset name ghost\nputs [set $name]"),
            vec![]
        );
        assert_eq!(vet("set ghost 42\nset cmd {puts x}\neval $cmd"), vec![]);
        // A braced eval body is fully visible, so the pass stays active.
        assert_eq!(vet("set ghost 42\neval {puts $ghost}"), vec![]);
        // Writes in branches still warn when nothing ever reads them.
        let diags = vet("set a 1\nif {$a} { set dead 9 }");
        assert_eq!(codes_of(&diags), vec!["unused-variable"]);
        assert_eq!(diags[0].span, Span::new(2, 11));
    }

    #[test]
    fn vet_entry_point_renders_against_the_source_name() {
        let cfg = AnalysisConfig::new().source_name("mission.taco");
        let err = super::vet("bc_put ONLY", &cfg).unwrap_err();
        assert!(
            err.starts_with("mission.taco:1:1: error[wrong-arity]"),
            "{err}"
        );
        // Warnings alone do not fail the vet.
        assert!(super::vet("set ghost 1\nputs ok", &cfg).is_ok());
        // Default label preserved for embedded scripts without a name.
        let err = super::vet("bc_put ONLY", &AnalysisConfig::new()).unwrap_err();
        assert!(err.starts_with("<script>:1:1:"), "{err}");
    }
}
