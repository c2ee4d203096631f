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
//! * **unreachable** (warning): code after an unconditional `return`, `halt`,
//!   `break`, `continue` or `error`;
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
use crate::expr::eval_expr;
use crate::parser::{Span, Word, WordKind, WordPart};
use crate::tree::{Arm, Body, Cmd, Cond, CondPart, IfFault, Shape, State, Tree};
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
    let tree = match Tree::parse(src) {
        Ok(tree) => tree,
        Err(e) => return vec![Diagnostic::error("parse", e.span(), e.message)],
    };
    let mut info = Collected::default();
    collect_tree(&tree, &mut info);
    let mut analyzer = Analyzer {
        config,
        info,
        diags: Vec::new(),
    };
    let mut env = Env::default();
    for var in &config.predefined {
        env.assign(var);
    }
    analyzer.check_tree(&tree, &mut env, Ctx::default());
    let mut usage = Usage::default();
    scan_usage_tree(&tree, false, &mut usage);
    if !usage.opaque {
        for (name, span) in &usage.writes {
            if !usage.reads.contains(name) && !config.predefined.contains(name) {
                analyzer.diags.push(Diagnostic::warning(
                    "unused-variable",
                    *span,
                    format!("variable '{name}' is assigned but never read"),
                ));
            }
        }
    }
    analyzer
        .diags
        .sort_by(|a, b| a.span.cmp(&b.span).then(b.severity.cmp(&a.severity)));
    analyzer.diags
}

/// Analyzes a script and renders error-severity findings into a report
/// anchored at the configured [`AnalysisConfig::source_name`].  This is the
/// entry point install-time gates use: `Ok(())` means the script may run.
pub fn vet(src: &str, config: &AnalysisConfig) -> Result<(), String> {
    let diags = analyze_with(src, config);
    if crate::diag::has_errors(&diags) {
        Err(crate::diag::render_report(&diags, config.source_label()))
    } else {
        Ok(())
    }
}

// --- builtin signature table -------------------------------------------------

/// (min, max) argument counts for each builtin.  This is the shared
/// [`crate::builtins::BUILTINS`] table — the interpreter enforces the same
/// entries at runtime, so the two can never drift.
fn builtin_arity(name: &str) -> Option<(usize, Option<usize>)> {
    crate::builtins::builtin(name).map(|spec| (spec.min_args, spec.max_args))
}

// --- pre-pass: collect procs and all assigned names --------------------------

#[derive(Debug, Default)]
struct Collected {
    /// proc name → parameter count, for arity checking of user procs.
    procs: BTreeMap<String, usize>,
    /// Every variable name assigned *anywhere* in the script (any scope).
    /// Used to keep proc-body checks conservative: procs read outer dynamic
    /// scopes, so only a name assigned nowhere at all is a definite error.
    assigned: BTreeSet<String>,
}

fn collect(body: &Body, out: &mut Collected) {
    if let State::Parsed(tree) = body.braced() {
        collect_tree(tree, out);
    }
}

fn collect_tree(tree: &Tree, out: &mut Collected) {
    for cmd in &tree.cmds {
        for script in cmd.scripts() {
            collect(script, out);
        }
        let assigned = match cmd.name() {
            Some("set") if cmd.words.len() >= 3 => cmd.arg_text(0),
            Some("incr" | "append" | "lappend" | "foreach") => cmd.arg_text(0),
            Some("catch") => cmd.arg_text(1),
            Some("proc") => {
                if let (Some(pname), Some(params)) = (cmd.arg_text(0), cmd.arg_text(1)) {
                    let params = parse_list(params);
                    out.procs.insert(pname.to_string(), params.len());
                    out.assigned.extend(params);
                }
                None
            }
            _ => None,
        };
        out.assigned.extend(assigned.map(str::to_string));
        // After the command itself: a proc redefined in its own body keeps
        // the inner signature.
        for script in cmd.shape.scripts() {
            collect(script, out);
        }
    }
}

// --- unused-variable pass ----------------------------------------------------

/// What the unused-variable scan learned about a script.
#[derive(Debug, Default)]
struct Usage {
    /// Every name that could possibly be read anywhere: `$name` in any word
    /// or braced text, `[...]` scripts, one-argument `set`, the
    /// read-modify-write builtins, `unset` targets, `catch` result variables,
    /// `foreach` loop variables and `proc` parameters.  Deliberately
    /// over-collected: a phantom read only suppresses a warning.
    reads: BTreeSet<String>,
    /// First plain `set name value` site per name, outside `catch` bodies.
    writes: BTreeMap<String, Span>,
    /// Something dynamic defeated the scan (a computed command or variable
    /// name, a script built at runtime, nesting past the depth cap):
    /// suppress every unused-variable warning.
    opaque: bool,
}

fn scan_usage(body: &Body, in_catch: bool, out: &mut Usage) {
    match body.braced() {
        State::Parsed(tree) => scan_usage_tree(tree, in_catch, out),
        State::Computed | State::TooDeep => out.opaque = true,
        State::Bad(_) => {} // reported by the main pass
    }
}

fn scan_usage_tree(tree: &Tree, in_catch: bool, out: &mut Usage) {
    for cmd in &tree.cmds {
        for word in &cmd.words {
            match &word.kind {
                WordKind::Parts(parts) => {
                    for part in parts {
                        if let WordPart::Variable(name) = part {
                            out.reads.insert(name.clone());
                        }
                    }
                }
                // Braced text may later be evaluated as a condition or expr:
                // harvest its `$name`s.
                WordKind::Braced(text) => out.reads.extend(cond_var_names(text)),
            }
        }
        for script in cmd.scripts() {
            scan_usage(script, in_catch, out);
        }
        let Some(name) = cmd.name() else {
            out.opaque = true;
            continue;
        };
        let argc = cmd.words.len() - 1;
        // The names a command consumes: read-modify-write targets, `unset`
        // targets, and variables something other than `set` binds (an unused
        // `foreach _ [...]` variable, `catch` result or `proc` parameter is
        // idiomatic, so those are exempt).
        match name {
            "set" => match (cmd.arg_text(0), argc) {
                (Some(v), 2) if !in_catch => {
                    out.writes.entry(v.to_string()).or_insert(cmd.span);
                }
                (Some(v), 1) => {
                    out.reads.insert(v.to_string());
                }
                (None, _) => out.opaque = true,
                _ => {}
            },
            "unset" => {
                for i in 0..argc {
                    match cmd.arg_text(i) {
                        Some(v) => {
                            out.reads.insert(v.to_string());
                        }
                        None => out.opaque = true,
                    }
                }
            }
            "incr" | "append" | "lappend" | "foreach" => match cmd.arg_text(0) {
                Some(v) => {
                    out.reads.insert(v.to_string());
                }
                None => out.opaque = true,
            },
            "catch" => out.reads.extend(cmd.arg_text(1).map(str::to_string)),
            "proc" => out
                .reads
                .extend(cmd.arg_text(1).into_iter().flat_map(parse_list)),
            _ => {}
        }
        match &cmd.shape {
            Shape::Catch { body } => scan_usage(body, true, out),
            shape => {
                for script in shape.scripts() {
                    scan_usage(script, in_catch, out);
                }
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

    fn unassign(&mut self, name: &str) {
        self.definite.remove(name);
        self.maybe.remove(name);
    }

    /// Folds another path's assignments in as merely *possible*.
    fn merge_maybe(&mut self, other: &Env) {
        for v in &other.maybe {
            self.maybe.insert(v.clone());
        }
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

/// How a block of commands can end.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Exit {
    /// Control can fall off the end.
    Falls,
    /// Every path ends in `return`/`halt`/`break`/`continue`/`error`.
    Terminates,
}

/// What one command does to control flow.
struct CmdEffect {
    /// `Some(cmd)` when the command unconditionally leaves the block.
    terminal: Option<&'static str>,
    /// The command queues a migration (`move_to`).
    migrates: bool,
}

impl CmdEffect {
    const NONE: CmdEffect = CmdEffect {
        terminal: None,
        migrates: false,
    };

    fn terminal(cause: &'static str) -> CmdEffect {
        CmdEffect {
            terminal: Some(cause),
            migrates: false,
        }
    }
}

struct Analyzer<'c> {
    config: &'c AnalysisConfig,
    info: Collected,
    diags: Vec<Diagnostic>,
}

impl Analyzer<'_> {
    fn push(&mut self, ctx: Ctx, diag: Diagnostic) {
        if !ctx.in_catch {
            self.diags.push(diag);
        }
    }

    /// Checks a nested script and reports how it can end.  Only brace-quoted
    /// text is followed; anything else is assumed to be fine.
    fn check_body(&mut self, body: &Body, env: &mut Env, ctx: Ctx) -> Exit {
        match body.braced() {
            State::Parsed(tree) => self.check_tree(tree, env, ctx),
            State::Bad(e) => {
                self.push(ctx, Diagnostic::error("parse", e.span(), e.message.clone()));
                Exit::Falls
            }
            State::Computed | State::TooDeep => Exit::Falls,
        }
    }

    /// Checks one script (the whole source, or an embedded body) and reports
    /// how it can end.
    fn check_tree(&mut self, tree: &Tree, env: &mut Env, ctx: Ctx) -> Exit {
        let mut terminated: Option<&'static str> = None;
        let mut warned_unreachable = false;
        let mut moved = false;
        let mut warned_after_move = false;
        for cmd in &tree.cmds {
            if let Some(cause) = terminated {
                if !warned_unreachable {
                    self.push(
                        ctx,
                        Diagnostic::warning(
                            "unreachable",
                            cmd.span,
                            format!("unreachable code after '{cause}'"),
                        ),
                    );
                    warned_unreachable = true;
                }
                continue;
            }
            if moved && !warned_after_move && !matches!(cmd.name(), Some("return" | "halt")) {
                self.push(
                    ctx,
                    Diagnostic::warning(
                        "after-move-to",
                        cmd.span,
                        "code after 'move_to' still runs at the departing site before \
                         migration; conventionally only 'return' or 'halt' follow it",
                    ),
                );
                warned_after_move = true;
            }
            let effect = self.check_command(cmd, env, ctx);
            if let Some(cause) = effect.terminal {
                terminated = Some(cause);
            }
            if effect.migrates {
                moved = true;
            }
        }
        if terminated.is_some() {
            Exit::Terminates
        } else {
            Exit::Falls
        }
    }

    fn check_command(&mut self, cmd: &Cmd, env: &mut Env, ctx: Ctx) -> CmdEffect {
        // Generic pass first: every substitution in every word is evaluated
        // left-to-right before the command runs, exactly like the interpreter.
        for (word, subs) in cmd.words.iter().zip(&cmd.subs) {
            self.check_word(word, subs, env, ctx);
        }
        let Some(name) = cmd.name() else {
            return CmdEffect::NONE; // computed command name: opaque
        };
        let span = cmd.span;
        let args = &cmd.words[1..];
        let argc = args.len();

        if let Some((min, max)) = builtin_arity(name) {
            if argc < min || max.is_some_and(|m| argc > m) {
                self.push(
                    ctx,
                    Diagnostic::error("wrong-arity", span, arity_msg(name, min, max, argc)),
                );
                return CmdEffect::NONE;
            }
        } else if let Some(&params) = self.info.procs.get(name) {
            if argc != params {
                self.push(
                    ctx,
                    Diagnostic::error(
                        "wrong-arity",
                        span,
                        format!("proc '{name}' expects {params} argument(s), got {argc}"),
                    ),
                );
            }
            return CmdEffect::NONE;
        } else {
            let hint = self
                .suggest(name)
                .map(|s| format!("; did you mean '{s}'?"))
                .unwrap_or_default();
            self.push(
                ctx,
                Diagnostic::error(
                    "unknown-command",
                    span,
                    format!("unknown command '{name}'{hint}"),
                ),
            );
            return CmdEffect::NONE;
        }

        match &cmd.shape {
            Shape::Expr { cond } => self.check_cond(cond, env, ctx),
            Shape::If { arms, fault } => {
                return self.check_if(arms, fault.as_ref(), span, env, ctx)
            }
            Shape::While { cond, body } => self.check_while(cond, body, span, env, ctx),
            Shape::Foreach { body } => self.check_foreach(args[0].static_text(), body, env, ctx),
            Shape::Proc { body } => self.check_proc(args[1].static_text(), body, ctx),
            Shape::Catch { body } => {
                let mut benv = env.clone();
                let cctx = Ctx {
                    in_catch: true,
                    ..ctx
                };
                self.check_body(body, &mut benv, cctx);
                env.merge_maybe(&benv); // the body may have failed part-way
                if let Some(var) = cmd.arg_text(1) {
                    env.assign(var); // the result variable is set on success and error
                }
            }
            Shape::Eval { body } => {
                if self.check_body(body, env, ctx) == Exit::Terminates {
                    return CmdEffect::terminal("eval");
                }
            }
            Shape::Plain | Shape::Malformed => {}
        }
        match name {
            "set" => {
                if let Some(var) = args[0].static_text() {
                    if argc == 1 {
                        // `set x` with one argument *reads* x.
                        self.check_var(var, args[0].span, env, ctx);
                    } else {
                        env.assign(var);
                    }
                }
            }
            "unset" => {
                for a in args {
                    if let Some(var) = a.static_text() {
                        env.unassign(var);
                    }
                }
            }
            // `incr`/`append`/`lappend` default a missing variable to 0 / "",
            // so they assign without requiring a prior set.
            "incr" | "append" | "lappend" => {
                if let Some(var) = args[0].static_text() {
                    env.assign(var);
                }
            }
            "return" => return CmdEffect::terminal("return"),
            "halt" => return CmdEffect::terminal("halt"),
            "break" => return CmdEffect::terminal("break"),
            "continue" => return CmdEffect::terminal("continue"),
            "error" => return CmdEffect::terminal("error"),
            "meet" => {
                if let (Some(agents), Some(target)) =
                    (&self.config.known_agents, args[0].static_text())
                {
                    if !agents.contains(target) {
                        self.push(
                            ctx,
                            Diagnostic::error(
                                "unknown-agent",
                                span,
                                format!(
                                    "meet target '{target}' is neither a wellknown agent nor \
                                     installed locally"
                                ),
                            ),
                        );
                    }
                }
            }
            "move_to" => {
                return CmdEffect {
                    terminal: None,
                    migrates: true,
                }
            }
            "string" => self.check_string(args, span, ctx),
            _ => {}
        }
        CmdEffect::NONE
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
                self.push(
                    ctx,
                    Diagnostic::warning(
                        "possibly-unset",
                        span,
                        format!("variable '{name}' may be unset here: it is assigned on only some paths"),
                    ),
                );
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
        self.push(
            ctx,
            Diagnostic::error(
                "use-before-set",
                span,
                format!("variable '{name}' is used before it is set{hint}"),
            ),
        );
    }

    /// Checks brace-quoted condition text the way the interpreter's
    /// `substitute` evaluates it: `$name` / `${name}` are variable reads,
    /// `[...]` is an embedded script evaluated in the same scope.
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
        fault: Option<&IfFault>,
        span: Span,
        env: &mut Env,
        ctx: Ctx,
    ) -> CmdEffect {
        let mut branches: Vec<(Env, Exit)> = Vec::new();
        let mut has_else = false;
        let mut structure_ok = true;
        for arm in arms {
            match &arm.cond {
                Some(cond) => self.check_cond(cond, env, ctx),
                None => has_else = true,
            }
            if let State::Computed = arm.body.braced() {
                structure_ok = false;
            } else {
                let mut benv = env.clone();
                let exit = self.check_body(&arm.body, &mut benv, ctx);
                branches.push((benv, exit));
            }
        }
        // The interpreter never looks past an `else` body, so trailing words
        // there are not a defect.
        if let Some(fault) = fault.filter(|f| !matches!(f, IfFault::Trailing)) {
            structure_ok = false;
            let message = match fault {
                IfFault::Truncated => {
                    Some("'if' expects {cond} {body} with optional elseif/else clauses".to_string())
                }
                IfFault::ElseWithoutBody => Some("'if': 'else' needs a {body}".to_string()),
                IfFault::Unexpected(word) => word
                    .as_ref()
                    .map(|word| format!("'if': expected 'elseif' or 'else', got '{word}'")),
                IfFault::Trailing => None,
            };
            if let Some(message) = message {
                self.push(ctx, Diagnostic::error("wrong-arity", span, message));
            }
        }
        // Join: assignments on terminated branches never reach the code after
        // the `if`, so only falling branches contribute.
        let falling: Vec<&Env> = branches
            .iter()
            .filter(|(_, exit)| *exit == Exit::Falls)
            .map(|(benv, _)| benv)
            .collect();
        for benv in &falling {
            env.merge_maybe(benv);
        }
        if structure_ok && has_else && !branches.is_empty() {
            if falling.is_empty() {
                return CmdEffect::terminal("if");
            }
            let mut definite = falling[0].definite.clone();
            for benv in &falling[1..] {
                definite = definite.intersection(&benv.definite).cloned().collect();
            }
            env.definite = definite;
        }
        CmdEffect::NONE
    }

    fn check_while(&mut self, cond: &Cond, body: &Body, span: Span, env: &mut Env, ctx: Ctx) {
        self.check_cond(cond, env, ctx);
        if let State::Computed = body.braced() {
            return;
        }
        // The body may run zero times: its assignments are only maybes.
        let mut benv = env.clone();
        self.check_body(body, &mut benv, ctx);
        env.merge_maybe(&benv);
        if let Some(cond_text) = &cond.text {
            self.check_loop_exit(cond_text, body, span, ctx);
        }
    }

    /// The "no induction variable touched" heuristic: a loop whose condition
    /// is static (no `[...]`) and whose body neither updates any condition
    /// variable nor can escape (`break`/`return`/`halt`/`error`) will spin
    /// until the step budget kills it.
    fn check_loop_exit(&mut self, cond: &str, body: &Body, span: Span, ctx: Ctx) {
        if cond.contains('[') {
            return; // condition consults a command: dynamic, assume fine
        }
        let vars = cond_var_names(cond);
        if vars.is_empty() {
            // Constant condition: fine if it is falsy (zero-trip) or does not
            // evaluate (the interpreter reports that loudly at runtime).
            match eval_expr(cond) {
                Ok(v) if is_truthy(&v) => {}
                _ => return,
            }
        }
        if !body_can_exit(body, &vars, true, true) {
            let why = if vars.is_empty() {
                "the condition is constant-true and the body cannot break out".to_string()
            } else {
                format!(
                    "the body never updates any condition variable ({}) and cannot break out",
                    vars.iter().cloned().collect::<Vec<_>>().join(", ")
                )
            };
            self.push(
                ctx,
                Diagnostic::warning(
                    "no-loop-exit",
                    span,
                    format!("loop has no reachable exit: {why}; it will exhaust the step budget"),
                ),
            );
        }
    }

    fn check_foreach(&mut self, var: Option<&str>, body: &Body, env: &mut Env, ctx: Ctx) {
        let mut benv = env.clone();
        if let Some(var) = var {
            benv.assign(var); // bound on every body iteration
        }
        // An opaque body is skipped; the loop variable still may have been
        // bound.
        self.check_body(body, &mut benv, ctx);
        env.merge_maybe(&benv); // zero-trip possible: maybes only
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
        let want = match op {
            "length" | "toupper" | "tolower" | "trim" => 2,
            "equal" | "first" => 3,
            "range" => 4,
            _ => {
                self.push(
                    ctx,
                    Diagnostic::error(
                        "unknown-command",
                        span,
                        format!("unknown 'string' subcommand '{op}'"),
                    ),
                );
                return;
            }
        };
        if args.len() != want {
            self.push(
                ctx,
                Diagnostic::error(
                    "wrong-arity",
                    span,
                    format!(
                        "'string {op}' expects {} argument(s) after the subcommand, got {}",
                        want - 1,
                        args.len() - 1
                    ),
                ),
            );
        }
    }

    fn suggest(&self, name: &str) -> Option<String> {
        if name.len() > 30 {
            return None;
        }
        let mut best: Option<(usize, &str)> = None;
        for cand in crate::builtins::BUILTINS
            .iter()
            .map(|spec| spec.name)
            .chain(self.info.procs.keys().map(String::as_str))
        {
            let d = levenshtein(name, cand);
            if d <= 2 && best.is_none_or(|(bd, _)| d < bd) {
                best = Some((d, cand));
            }
        }
        best.map(|(_, c)| c.to_string())
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

/// All `$name` / `${name}` variable names mentioned in condition text.
pub(crate) fn cond_var_names(text: &str) -> BTreeSet<String> {
    let chars: Vec<char> = text.chars().collect();
    let mut out = BTreeSet::new();
    let mut i = 0;
    while i < chars.len() {
        if chars[i] == '$' {
            i += 1;
            let mut name = String::new();
            if i < chars.len() && chars[i] == '{' {
                i += 1;
                while i < chars.len() && chars[i] != '}' {
                    name.push(chars[i]);
                    i += 1;
                }
                i += 1;
            } else {
                while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
                    name.push(chars[i]);
                    i += 1;
                }
            }
            if !name.is_empty() {
                out.insert(name);
            }
        } else {
            i += 1;
        }
    }
    out
}

/// Whether a loop body can possibly terminate the loop: by updating one of
/// the condition's variables, or by escaping.  `break_ok` is false inside
/// nested loops (their `break` stays inside); `raise_ok` is false inside
/// `catch` and substitutions (`return`/`error` are absorbed there; only
/// `halt` always escapes).  Anything opaque returns `true` (conservative),
/// except a body built at runtime, which is skipped.
pub(crate) fn body_can_exit(
    body: &Body,
    vars: &BTreeSet<String>,
    break_ok: bool,
    raise_ok: bool,
) -> bool {
    let tree = match body.braced() {
        State::Parsed(tree) => tree,
        State::Computed => return false,
        // A parse error is reported elsewhere; don't double up.
        State::Bad(_) | State::TooDeep => return true,
    };
    tree.cmds.iter().any(|cmd| {
        // Substitutions anywhere in the command can assign condition vars.
        if cmd
            .scripts()
            .any(|script| body_can_exit(script, vars, false, false))
        {
            return true;
        }
        let Some(name) = cmd.name() else {
            return true; // computed command: could be anything
        };
        let writes = |target: Option<&str>| target.is_some_and(|v| vars.contains(v));
        let escapes = match name {
            "halt" => true,
            "break" => break_ok,
            "return" | "error" => raise_ok,
            "eval" => true, // built scripts are opaque
            // A computed variable name could be a condition variable.
            "set" | "incr" | "append" | "lappend" | "unset" => {
                cmd.arg_text(0).is_none_or(|v| vars.contains(v))
            }
            "foreach" => writes(cmd.arg_text(0)),
            "catch" => writes(cmd.arg_text(1)),
            _ => false,
        };
        escapes
            || match &cmd.shape {
                Shape::If { arms, .. } => arms.iter().any(|arm| {
                    arm.cond
                        .iter()
                        .flat_map(Cond::scripts)
                        .any(|script| body_can_exit(script, vars, false, false))
                        || body_can_exit(&arm.body, vars, break_ok, raise_ok)
                }),
                Shape::While { cond, body } => {
                    cond.scripts()
                        .any(|script| body_can_exit(script, vars, false, false))
                        || body_can_exit(body, vars, false, raise_ok)
                }
                Shape::Foreach { body } => body_can_exit(body, vars, false, raise_ok),
                // Inside catch only `halt` escapes and assignments count.
                Shape::Catch { body } => body_can_exit(body, vars, false, false),
                // Defining a proc does nothing by itself.
                _ => false,
            }
    })
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
        assert_eq!(vet("while {1} { if {[my_site]} { break } }"), vec![]);
        assert_eq!(vet("while {[bc_size Q] > 0} { bc_pop Q }"), vec![]);
        // halt escapes even from inside catch.
        assert_eq!(vet("while {1} { catch { halt done } }"), vec![]);
        // break inside a nested loop does not exit the outer loop.
        assert_eq!(
            codes("while {1} { foreach x {1 2} { break } }"),
            vec!["no-loop-exit"]
        );
        // Constant-false conditions are zero-trip, not infinite.
        assert_eq!(vet("while {0} { puts idle }"), vec![]);
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
