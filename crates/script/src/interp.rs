//! The TacoScript interpreter.
//!
//! [`Interp`] evaluates a parsed script against a [`ScriptHost`].  Evaluation
//! is metered: every command evaluation consumes one step from a configurable
//! budget, so a runaway agent is stopped with
//! [`ScriptError::BudgetExceeded`] rather than hanging its site — the paper's
//! §3 motivates exactly this kind of resource control ("charging for services
//! would limit possible damage by a run-away agent").

use crate::expr::{eval_expr, read, Reading};
use crate::host::ScriptHost;
use crate::parser::{
    control, if_chain, parse_script, Clause, Command, Control, IfFault, Leaf, Word, WordKind,
    WordPart,
};
use crate::value::{as_int, format_list, is_truthy, parse_list};
use std::collections::HashMap;

/// Errors produced while evaluating a script.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScriptError {
    /// The script failed to parse.
    Parse(String),
    /// A command failed at runtime (unknown command, bad arguments, host error).
    Runtime(String),
    /// The step budget was exhausted.
    BudgetExceeded,
    /// The script was rejected by static analysis before it ran (taco-vet).
    Rejected(String),
}

impl std::fmt::Display for ScriptError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScriptError::Parse(m) => write!(f, "parse error: {m}"),
            ScriptError::Runtime(m) => write!(f, "runtime error: {m}"),
            ScriptError::BudgetExceeded => write!(f, "script step budget exceeded"),
            ScriptError::Rejected(m) => write!(f, "script rejected: {m}"),
        }
    }
}

impl std::error::Error for ScriptError {}

/// Interpreter limits.
#[derive(Debug, Clone, Copy)]
pub struct InterpConfig {
    /// Maximum number of command evaluations before the script is stopped.
    pub max_steps: u64,
    /// Maximum proc-call / control-structure nesting depth.
    pub max_depth: u32,
}

impl Default for InterpConfig {
    fn default() -> Self {
        InterpConfig {
            max_steps: 100_000,
            max_depth: 64,
        }
    }
}

/// The result of a successful evaluation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScriptOutcome {
    /// The result of the last command executed (Tcl convention).
    pub result: String,
    /// How many command steps were consumed.
    pub steps: u64,
}

/// Control flow signal propagated by commands.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Flow {
    Normal(String),
    Return(String),
    /// `halt` — terminate the whole script immediately (propagates through
    /// loops, procs and `catch`, unlike `return`).
    Halt(String),
    Break,
    Continue,
}

impl Flow {
    fn value(self) -> String {
        match self {
            Flow::Normal(v) | Flow::Return(v) | Flow::Halt(v) => v,
            Flow::Break | Flow::Continue => String::new(),
        }
    }
}

#[derive(Debug, Clone)]
struct ProcDef {
    params: Vec<String>,
    body: String,
}

/// A TacoScript interpreter bound to a host.
pub struct Interp<'h> {
    host: &'h mut dyn ScriptHost,
    config: InterpConfig,
    scopes: Vec<HashMap<String, String>>,
    procs: HashMap<String, ProcDef>,
    steps: u64,
}

impl<'h> Interp<'h> {
    /// Creates an interpreter with default limits.
    pub fn new(host: &'h mut dyn ScriptHost) -> Self {
        Self::with_config(host, InterpConfig::default())
    }

    /// Creates an interpreter with explicit limits.
    pub fn with_config(host: &'h mut dyn ScriptHost, config: InterpConfig) -> Self {
        Interp {
            host,
            config,
            scopes: vec![HashMap::new()],
            procs: HashMap::new(),
            steps: 0,
        }
    }

    /// Number of command steps consumed so far.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Sets a variable in the current (outermost, before run) scope — used to
    /// pre-bind arguments an agent receives.
    pub fn set_var(&mut self, name: impl Into<String>, value: impl Into<String>) {
        self.scopes
            .last_mut()
            .expect("at least one scope")
            .insert(name.into(), value.into());
    }

    /// Reads a variable, if defined in any visible scope.
    pub fn get_var(&self, name: &str) -> Option<&str> {
        for scope in self.scopes.iter().rev() {
            if let Some(v) = scope.get(name) {
                return Some(v.as_str());
            }
        }
        None
    }

    /// Parses and evaluates a script, returning the final command's result.
    pub fn run(&mut self, src: &str) -> Result<ScriptOutcome, ScriptError> {
        let flow = self.eval_script(src, 0)?;
        Ok(ScriptOutcome {
            result: flow.value(),
            steps: self.steps,
        })
    }

    fn eval_script(&mut self, src: &str, depth: u32) -> Result<Flow, ScriptError> {
        if depth > self.config.max_depth {
            return Err(ScriptError::Runtime("nesting too deep".into()));
        }
        let commands = parse_script(src).map_err(|e| ScriptError::Parse(e.to_string()))?;
        let mut last = Flow::Normal(String::new());
        for cmd in &commands {
            match self.eval_command(cmd, depth)? {
                Flow::Normal(v) => last = Flow::Normal(v),
                other => return Ok(other),
            }
        }
        Ok(last)
    }

    fn eval_command(&mut self, cmd: &Command, depth: u32) -> Result<Flow, ScriptError> {
        self.steps += 1;
        if self.steps > self.config.max_steps {
            return Err(ScriptError::BudgetExceeded);
        }
        let mut words = Vec::with_capacity(cmd.words.len());
        for w in &cmd.words {
            words.push(self.eval_word(w, depth)?);
        }
        match words.split_first() {
            Some((name, args)) => self.invoke(name, args, cmd.line(), depth),
            None => Ok(Flow::Normal(String::new())),
        }
    }

    fn eval_word(&mut self, word: &Word, depth: u32) -> Result<String, ScriptError> {
        match &word.kind {
            WordKind::Braced(s) => Ok(s.clone()),
            WordKind::Parts(parts) => {
                let mut out = String::new();
                for part in parts {
                    match part {
                        WordPart::Literal(s) => out.push_str(s),
                        WordPart::Variable(name) => {
                            let v = self.get_var(name).ok_or_else(|| {
                                ScriptError::Runtime(format!("undefined variable '{name}'"))
                            })?;
                            out.push_str(v);
                        }
                        WordPart::Command(script) => {
                            let flow = self.eval_script(script, depth + 1)?;
                            out.push_str(&flow.value());
                        }
                    }
                }
                Ok(out)
            }
        }
    }

    /// The arity error of the builtin `name`, worded by its usage in
    /// [`crate::builtins::BUILTINS`].
    fn usage_err(name: &str, line: u32) -> ScriptError {
        let usage = crate::builtins::builtin(name).map_or("", |spec| spec.usage);
        Self::arity_err(name, usage, line)
    }

    fn arity_err(name: &str, usage: &str, line: u32) -> ScriptError {
        if usage.is_empty() {
            ScriptError::Runtime(format!("line {line}: usage: {name}"))
        } else {
            ScriptError::Runtime(format!("line {line}: usage: {name} {usage}"))
        }
    }

    #[allow(clippy::too_many_lines)]
    fn invoke(
        &mut self,
        name: &str,
        args: &[String],
        line: u32,
        depth: u32,
    ) -> Result<Flow, ScriptError> {
        // Arity is enforced once, from the shared table, so the interpreter
        // and taco-vet can never disagree about a builtin's signature.  The
        // per-command `match` arms below keep their structural patterns, and
        // their fallback arms word the error from the table too; only shapes
        // the table cannot express reach one (`split` with an empty
        // separator, an unknown `string` subcommand).
        if let Some(spec) = crate::builtins::builtin(name) {
            if spec.arity_violated(args.len()) {
                return Err(Self::arity_err(name, spec.usage, line));
            }
        }
        match control(name, args.len()) {
            Some(Control::If) => return self.cmd_if(args, line, depth),
            Some(Control::While) => return self.cmd_while(&args[0], &args[1], line, depth),
            Some(Control::Foreach) => return self.cmd_foreach(&args[0], &args[1], &args[2], depth),
            Some(Control::Proc) => {
                let def = ProcDef {
                    params: parse_list(&args[1]),
                    body: args[2].clone(),
                };
                self.procs.insert(args[0].clone(), def);
                return Ok(Flow::Normal(String::new()));
            }
            Some(Control::Catch) => {
                return self.cmd_catch(&args[0], args.get(1).map(String::as_str), depth)
            }
            Some(Control::Eval) => return self.eval_script(&args[0], depth + 1),
            Some(Control::EvalJoined) => return self.eval_script(&args.join(" "), depth + 1),
            Some(Control::Expr) => return self.expr(&args[0], line, depth).map(Flow::Normal),
            // `Malformed` is refused by the arity table above, which gives
            // `while`, `foreach` and `catch` the arities `control` does.
            Some(Control::Malformed) | None => {}
        }
        match name {
            // --- variables & values ------------------------------------------
            "set" => match args {
                [var] => {
                    let v = self.get_var(var).ok_or_else(|| {
                        ScriptError::Runtime(format!("undefined variable '{var}'"))
                    })?;
                    Ok(Flow::Normal(v.to_string()))
                }
                [var, value] => {
                    self.set_in_scope(var, value.clone());
                    Ok(Flow::Normal(value.clone()))
                }
                _ => Err(Self::usage_err("set", line)),
            },
            "unset" => {
                for var in args {
                    for scope in self.scopes.iter_mut().rev() {
                        if scope.remove(var).is_some() {
                            break;
                        }
                    }
                }
                Ok(Flow::Normal(String::new()))
            }
            "incr" => {
                let (var, by) = match args {
                    [var] => (var, 1),
                    [var, amount] => (
                        var,
                        as_int(amount).ok_or_else(|| {
                            ScriptError::Runtime(format!(
                                "incr amount '{amount}' is not an integer"
                            ))
                        })?,
                    ),
                    _ => return Err(Self::usage_err("incr", line)),
                };
                let current = self.get_var(var).and_then(as_int).unwrap_or(0);
                let next = current
                    .checked_add(by)
                    .ok_or_else(|| {
                        ScriptError::Runtime(format!("line {line}: incr of '{var}' overflows"))
                    })?
                    .to_string();
                self.set_in_scope(var, next.clone());
                Ok(Flow::Normal(next))
            }
            "append" => match args {
                [var, rest @ ..] => {
                    let mut value = self.get_var(var).unwrap_or("").to_string();
                    for part in rest {
                        value.push_str(part);
                    }
                    self.set_in_scope(var, value.clone());
                    Ok(Flow::Normal(value))
                }
                _ => Err(Self::usage_err("append", line)),
            },
            // Several arguments: joined, not substituted again.
            "expr" => eval_expr(&args.join(" "))
                .map(Flow::Normal)
                .map_err(|e| ScriptError::Runtime(format!("line {line}: {e}"))),
            // --- control flow -------------------------------------------------
            "return" => Ok(Flow::Return(args.first().cloned().unwrap_or_default())),
            "halt" => Ok(Flow::Halt(args.first().cloned().unwrap_or_default())),
            "break" => Ok(Flow::Break),
            "continue" => Ok(Flow::Continue),
            "error" => Err(ScriptError::Runtime(args.join(" "))),
            // --- lists & strings ----------------------------------------------
            "list" => Ok(Flow::Normal(format_list(args.iter()))),
            "llength" => match args {
                [l] => Ok(Flow::Normal(parse_list(l).len().to_string())),
                _ => Err(Self::usage_err("llength", line)),
            },
            "lindex" => match args {
                [l, idx] => {
                    let elems = parse_list(l);
                    let i = as_int(idx)
                        .ok_or_else(|| ScriptError::Runtime(format!("bad index '{idx}'")))?;
                    let elem = usize::try_from(i).ok().and_then(|i| elems.get(i));
                    Ok(Flow::Normal(elem.cloned().unwrap_or_default()))
                }
                _ => Err(Self::usage_err("lindex", line)),
            },
            "lappend" => match args {
                [var, rest @ ..] => {
                    let mut elems = parse_list(self.get_var(var).unwrap_or(""));
                    elems.extend(rest.iter().cloned());
                    let formatted = format_list(&elems);
                    self.set_in_scope(var, formatted.clone());
                    Ok(Flow::Normal(formatted))
                }
                _ => Err(Self::usage_err("lappend", line)),
            },
            "lrange" => match args {
                [l, from, to] => {
                    let elems = parse_list(l);
                    let last = elems.len() as i64 - 1;
                    let from = as_int(from).unwrap_or(0).max(0);
                    let to = if to == "end" {
                        last
                    } else {
                        as_int(to).unwrap_or(-1).min(last)
                    };
                    if to < from {
                        return Ok(Flow::Normal(String::new()));
                    }
                    Ok(Flow::Normal(format_list(
                        &elems[from as usize..=to as usize],
                    )))
                }
                _ => Err(Self::usage_err("lrange", line)),
            },
            "concat" => Ok(Flow::Normal(
                args.iter()
                    .map(|a| a.trim())
                    .filter(|a| !a.is_empty())
                    .collect::<Vec<_>>()
                    .join(" "),
            )),
            "split" => match args {
                [s] => Ok(Flow::Normal(format_list(s.split_whitespace()))),
                [s, sep] if !sep.is_empty() => Ok(Flow::Normal(format_list(
                    s.split(sep.as_str()).collect::<Vec<_>>(),
                ))),
                _ => Err(Self::usage_err("split", line)),
            },
            "join" => match args {
                [l] => Ok(Flow::Normal(parse_list(l).join(" "))),
                [l, sep] => Ok(Flow::Normal(parse_list(l).join(sep))),
                _ => Err(Self::usage_err("join", line)),
            },
            "string" => self.cmd_string(args, line),
            // --- output -------------------------------------------------------
            "puts" | "log" => {
                let msg = args.join(" ");
                self.host.log(&msg);
                Ok(Flow::Normal(String::new()))
            }
            // --- TACOMA briefcase ---------------------------------------------
            "bc_put" => match args {
                [folder, value] => {
                    self.host.bc_put(folder, value);
                    Ok(Flow::Normal(String::new()))
                }
                _ => Err(Self::usage_err("bc_put", line)),
            },
            "bc_push" => match args {
                [folder, value] => {
                    self.host.bc_push(folder, value);
                    Ok(Flow::Normal(String::new()))
                }
                _ => Err(Self::usage_err("bc_push", line)),
            },
            "bc_pop" => match args {
                [folder] => Ok(Flow::Normal(self.host.bc_pop(folder).unwrap_or_default())),
                _ => Err(Self::usage_err("bc_pop", line)),
            },
            "bc_dequeue" => match args {
                [folder] => Ok(Flow::Normal(
                    self.host.bc_dequeue(folder).unwrap_or_default(),
                )),
                _ => Err(Self::usage_err("bc_dequeue", line)),
            },
            "bc_peek" => match args {
                [folder] => Ok(Flow::Normal(self.host.bc_peek(folder).unwrap_or_default())),
                _ => Err(Self::usage_err("bc_peek", line)),
            },
            "bc_list" => match args {
                [folder] => Ok(Flow::Normal(format_list(self.host.bc_list(folder)))),
                _ => Err(Self::usage_err("bc_list", line)),
            },
            "bc_size" => match args {
                [folder] => Ok(Flow::Normal(self.host.bc_list(folder).len().to_string())),
                _ => Err(Self::usage_err("bc_size", line)),
            },
            "bc_del" => match args {
                [folder] => {
                    self.host.bc_delete(folder);
                    Ok(Flow::Normal(String::new()))
                }
                _ => Err(Self::usage_err("bc_del", line)),
            },
            // --- TACOMA cabinets ----------------------------------------------
            "cab_append" => match args {
                [cabinet, folder, value] => {
                    self.host.cab_append(cabinet, folder, value);
                    Ok(Flow::Normal(String::new()))
                }
                _ => Err(Self::usage_err("cab_append", line)),
            },
            "cab_contains" => match args {
                [cabinet, folder, value] => Ok(Flow::Normal(
                    if self.host.cab_contains(cabinet, folder, value) {
                        "1"
                    } else {
                        "0"
                    }
                    .into(),
                )),
                _ => Err(Self::usage_err("cab_contains", line)),
            },
            "cab_list" => match args {
                [cabinet, folder] => Ok(Flow::Normal(format_list(
                    self.host.cab_list(cabinet, folder),
                ))),
                _ => Err(Self::usage_err("cab_list", line)),
            },
            "cab_pop" => match args {
                [cabinet, folder] => Ok(Flow::Normal(
                    self.host.cab_pop(cabinet, folder).unwrap_or_default(),
                )),
                _ => Err(Self::usage_err("cab_pop", line)),
            },
            // --- TACOMA agents & migration -------------------------------------
            "meet" => match args {
                [agent] => self
                    .host
                    .meet(agent)
                    .map(|_| Flow::Normal(String::new()))
                    .map_err(|e| ScriptError::Runtime(format!("line {line}: meet failed: {e}"))),
                _ => Err(Self::usage_err("meet", line)),
            },
            "move_to" => match args {
                [site] | [site, _] => {
                    let contact = args.get(1).map(|s| s.as_str()).unwrap_or("ag_tac");
                    let site_num = as_int(site)
                        .filter(|v| *v >= 0)
                        .ok_or_else(|| ScriptError::Runtime(format!("bad site '{site}'")))?;
                    self.host
                        .move_to(site_num as u64, contact)
                        .map(|_| Flow::Normal(String::new()))
                        .map_err(|e| {
                            ScriptError::Runtime(format!("line {line}: move_to failed: {e}"))
                        })
                }
                _ => Err(Self::usage_err("move_to", line)),
            },
            "send_remote" => match args {
                [site, contact, folders @ ..] => {
                    let site_num = as_int(site)
                        .filter(|v| *v >= 0)
                        .ok_or_else(|| ScriptError::Runtime(format!("bad site '{site}'")))?;
                    self.host
                        .send_remote(site_num as u64, contact, folders)
                        .map(|_| Flow::Normal(String::new()))
                        .map_err(|e| {
                            ScriptError::Runtime(format!("line {line}: send_remote failed: {e}"))
                        })
                }
                _ => Err(Self::usage_err("send_remote", line)),
            },
            // --- TACOMA environment --------------------------------------------
            "my_site" => Ok(Flow::Normal(self.host.site().to_string())),
            "site_count" => Ok(Flow::Normal(self.host.site_count().to_string())),
            "neighbors" => Ok(Flow::Normal(format_list(
                self.host.neighbors().iter().map(|n| n.to_string()),
            ))),
            "random" => match args {
                [bound] => {
                    let b = as_int(bound)
                        .filter(|v| *v >= 0)
                        .ok_or_else(|| ScriptError::Runtime(format!("bad bound '{bound}'")))?;
                    Ok(Flow::Normal(self.host.random(b as u64).to_string()))
                }
                _ => Err(Self::usage_err("random", line)),
            },
            "now" => Ok(Flow::Normal(self.host.now_micros().to_string())),
            // --- user procs -----------------------------------------------------
            _ => self.call_proc(name, args, line, depth),
        }
    }

    fn set_in_scope(&mut self, name: &str, value: String) {
        // Writes always target the innermost scope (a proc's local frame), as
        // in Tcl: reading an outer variable is allowed, but assignment creates
        // or updates a local.
        self.scopes
            .last_mut()
            .expect("at least one scope")
            .insert(name.to_string(), value);
    }

    fn cmd_if(&mut self, args: &[String], line: u32, depth: u32) -> Result<Flow, ScriptError> {
        for clause in if_chain(args.len(), |i| args.get(i).map(String::as_str)) {
            match clause {
                Ok(Clause {
                    cond: Some(cond),
                    body,
                }) => {
                    if self.eval_condition(&args[cond], line, depth)? {
                        return self.eval_script(&args[body], depth + 1);
                    }
                }
                Ok(Clause { cond: None, body }) => return self.eval_script(&args[body], depth + 1),
                Err(IfFault::Truncated) => return Err(Self::usage_err("if", line)),
                Err(IfFault::ElseWithoutBody) => {
                    return Err(Self::arity_err("if", "... else {body}", line))
                }
                Err(IfFault::Unexpected(i)) => {
                    return Err(ScriptError::Runtime(format!(
                        "line {line}: expected 'elseif' or 'else', got '{}'",
                        args[i]
                    )))
                }
                // Only an `else` comes before it, and that returned.
                Err(IfFault::Trailing) => break,
            }
        }
        Ok(Flow::Normal(String::new()))
    }

    fn eval_condition(&mut self, cond: &str, line: u32, depth: u32) -> Result<bool, ScriptError> {
        self.expr(cond, line, depth).map(|v| is_truthy(&v))
    }

    /// Evaluates a condition, or the argument of a one-argument `expr`, as
    /// Tcl's `expr` does a brace-quoted argument: its leaves, the `$name`s
    /// and `[..]` scripts, are resolved in order first, then the expression
    /// is evaluated over their values (or its syntax error raised).
    fn expr(&mut self, text: &str, line: u32, depth: u32) -> Result<String, ScriptError> {
        let Reading { leaves, expr } = read(text);
        let mut values = Vec::with_capacity(leaves.len());
        for (_, leaf) in leaves {
            values.push(match leaf {
                Leaf::Var(name) => self
                    .get_var(name)
                    .map(str::to_string)
                    .ok_or_else(|| ScriptError::Runtime(format!("undefined variable '{name}'")))?,
                Leaf::Script(script) => self.eval_script(script, depth + 1)?.value(),
            });
        }
        let value = expr.and_then(|expr| expr.eval(&values));
        value.map_err(|e| ScriptError::Runtime(format!("line {line}: {e}")))
    }

    fn cmd_while(
        &mut self,
        cond: &str,
        body: &str,
        line: u32,
        depth: u32,
    ) -> Result<Flow, ScriptError> {
        loop {
            if !self.eval_condition(cond, line, depth)? {
                break;
            }
            match self.eval_script(body, depth + 1)? {
                Flow::Break => break,
                Flow::Continue | Flow::Normal(_) => {}
                ret @ (Flow::Return(_) | Flow::Halt(_)) => return Ok(ret),
            }
            self.steps += 1;
            if self.steps > self.config.max_steps {
                return Err(ScriptError::BudgetExceeded);
            }
        }
        Ok(Flow::Normal(String::new()))
    }

    fn cmd_foreach(
        &mut self,
        var: &str,
        list: &str,
        body: &str,
        depth: u32,
    ) -> Result<Flow, ScriptError> {
        for elem in parse_list(list) {
            self.set_in_scope(var, elem);
            match self.eval_script(body, depth + 1)? {
                Flow::Break => break,
                Flow::Continue | Flow::Normal(_) => {}
                ret @ (Flow::Return(_) | Flow::Halt(_)) => return Ok(ret),
            }
        }
        Ok(Flow::Normal(String::new()))
    }

    /// `catch body ?var?`: `1` when the body raised, `0` otherwise, with
    /// the error or result in `var`.  Neither `halt` nor the step budget is
    /// caught.
    fn cmd_catch(
        &mut self,
        body: &str,
        var: Option<&str>,
        depth: u32,
    ) -> Result<Flow, ScriptError> {
        let caught = match self.eval_script(body, depth + 1) {
            Ok(halt @ Flow::Halt(_)) => return Ok(halt),
            Err(ScriptError::BudgetExceeded) => return Err(ScriptError::BudgetExceeded),
            caught => caught,
        };
        let code = if caught.is_ok() { "0" } else { "1" };
        if let Some(var) = var {
            let value = caught.map_or_else(|e| e.to_string(), Flow::value);
            self.set_in_scope(var, value);
        }
        Ok(Flow::Normal(code.into()))
    }

    fn cmd_string(&mut self, args: &[String], line: u32) -> Result<Flow, ScriptError> {
        match args {
            [op, s] if op == "length" => Ok(Flow::Normal(s.chars().count().to_string())),
            [op, s] if op == "toupper" => Ok(Flow::Normal(s.to_uppercase())),
            [op, s] if op == "tolower" => Ok(Flow::Normal(s.to_lowercase())),
            [op, s] if op == "trim" => Ok(Flow::Normal(s.trim().to_string())),
            [op, a, b] if op == "equal" => Ok(Flow::Normal(if a == b { "1" } else { "0" }.into())),
            [op, needle, hay] if op == "first" => Ok(Flow::Normal(
                hay.find(needle.as_str())
                    .map(|i| i.to_string())
                    .unwrap_or_else(|| "-1".into()),
            )),
            [op, s, from, to] if op == "range" => {
                let chars: Vec<char> = s.chars().collect();
                let from = as_int(from).unwrap_or(0).max(0) as usize;
                let to = if to == "end" {
                    chars.len().saturating_sub(1)
                } else {
                    as_int(to).unwrap_or(0).max(0) as usize
                };
                if from >= chars.len() || to < from {
                    return Ok(Flow::Normal(String::new()));
                }
                let to = to.min(chars.len() - 1);
                Ok(Flow::Normal(chars[from..=to].iter().collect()))
            }
            _ => Err(Self::usage_err("string", line)),
        }
    }

    fn call_proc(
        &mut self,
        name: &str,
        args: &[String],
        line: u32,
        depth: u32,
    ) -> Result<Flow, ScriptError> {
        let Some(def) = self.procs.get(name).cloned() else {
            return Err(ScriptError::Runtime(format!(
                "line {line}: unknown command '{name}'"
            )));
        };
        if args.len() != def.params.len() {
            return Err(ScriptError::Runtime(format!(
                "line {line}: proc '{name}' expects {} argument(s), got {}",
                def.params.len(),
                args.len()
            )));
        }
        let mut scope = HashMap::new();
        for (param, arg) in def.params.iter().zip(args) {
            scope.insert(param.clone(), arg.clone());
        }
        self.scopes.push(scope);
        let result = self.eval_script(&def.body, depth + 1);
        self.scopes.pop();
        match result? {
            Flow::Return(v) | Flow::Normal(v) => Ok(Flow::Normal(v)),
            halt @ Flow::Halt(_) => Ok(halt),
            Flow::Break | Flow::Continue => Err(ScriptError::Runtime(format!(
                "line {line}: break/continue outside a loop in proc '{name}'"
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host::{HostCall, NullHost, RecordingHost};

    fn run(src: &str) -> String {
        let mut host = RecordingHost::new();
        let mut interp = Interp::new(&mut host);
        interp.run(src).unwrap().result
    }

    fn run_with(host: &mut RecordingHost, src: &str) -> Result<ScriptOutcome, ScriptError> {
        let mut interp = Interp::new(host);
        interp.run(src)
    }

    #[test]
    fn shapes_the_arity_table_cannot_express_keep_their_messages() {
        let err = |src: &str| {
            run_with(&mut RecordingHost::new(), src)
                .unwrap_err()
                .to_string()
        };
        assert!(err("split abc {}").ends_with("line 1: usage: split string ?separator?"));
        assert!(err("string reverse abc")
            .ends_with("line 1: usage: string length|toupper|tolower|trim|equal|first|range ..."));
        assert!(err("if {0} {} elseif").ends_with("line 1: usage: if {cond} {body} ..."));
        assert!(err("if {0} {} else").ends_with("line 1: usage: if ... else {body}"));
    }

    #[test]
    fn set_and_substitute() {
        assert_eq!(run("set x 5\nset y $x"), "5");
        assert_eq!(run("set x 5; expr $x + 1"), "6");
        assert_eq!(run("set x hello; set y \"$x world\""), "hello world");
    }

    /// A one-argument `expr` is substituted the way a condition is, so a
    /// brace-quoted argument reads variables and runs scripts.
    #[test]
    fn one_argument_expr_substitutes_like_a_condition() {
        assert_eq!(run("set x 4; expr {$x + 1}"), "5");
        assert_eq!(run("set i 0; expr {[incr i] + [incr i]}; set i"), "2");
        assert_eq!(run("set s {a b}; expr {$s eq \"a b\"}"), "1");
        // Several arguments are joined, not substituted again.
        assert_eq!(run("set x 4; catch {expr {$x} + 1}"), "1");
        let mut host = NullHost;
        let mut interp = Interp::new(&mut host);
        let outcome = interp.run("set i 0; expr {[incr i]}").unwrap();
        assert_eq!((outcome.result.as_str(), outcome.steps), ("1", 3));
    }

    /// A value holding `"` or `\` reaches `expr` as one string.
    #[test]
    fn values_with_quotes_and_backslashes_compare_as_strings() {
        assert_eq!(run("set x {a\"b}; if {$x eq $x} {set r yes}"), "yes");
        assert_eq!(run("set x a\\\\; expr {$x eq \"a\\\\\"}"), "1");
        assert_eq!(run("set x {\\\"}; expr {$x eq \"\\\\\\\"\"}"), "1");
    }

    /// A value substituted inside quotes is string content: it is not
    /// tokenized again, so its `"` and `\` stay in the string, in `'..'`
    /// as in `".."`.
    #[test]
    fn values_inside_quotes_are_string_content() {
        assert_eq!(
            run("set x {a\"b}; set y \"a\\\"b\"; expr {\"$x\" eq $y}"),
            "1"
        );
        assert_eq!(run(r#"set x a\\; expr {'<$x>' eq "<a\\>"}"#), "1");
    }

    /// Every leaf is resolved before the expression is evaluated or its
    /// syntax error raised.
    #[test]
    fn leaves_resolve_before_the_expression_is_read() {
        assert_eq!(run("set i 0\ncatch {expr {[incr i] +}}\nset i"), "1");
        let err = run_with(&mut RecordingHost::new(), "expr {$undefined > @}").unwrap_err();
        assert!(err.to_string().contains("undefined variable"), "{err}");
    }

    #[test]
    fn undefined_variable_is_an_error() {
        let mut host = NullHost;
        let mut interp = Interp::new(&mut host);
        assert!(matches!(
            interp.run("set y $missing"),
            Err(ScriptError::Runtime(_))
        ));
    }

    #[test]
    fn command_substitution() {
        assert_eq!(run("set x [expr 2 * 3]"), "6");
        assert_eq!(run("expr [expr 1 + 1] + [expr 2 + 2]"), "6");
    }

    #[test]
    fn incr_append_unset() {
        assert_eq!(run("set x 1; incr x; incr x 10"), "12");
        assert_eq!(run("incr fresh"), "1");
        assert_eq!(run("set s ab; append s cd ef"), "abcdef");
        let mut host = NullHost;
        let mut interp = Interp::new(&mut host);
        assert!(matches!(
            interp.run("set x 1; unset x; set y $x"),
            Err(ScriptError::Runtime(_))
        ));
    }

    #[test]
    fn if_elseif_else() {
        assert_eq!(
            run("set x 5; if {$x > 3} { set r big } else { set r small }"),
            "big"
        );
        assert_eq!(
            run("set x 2; if {$x > 3} { set r big } else { set r small }"),
            "small"
        );
        assert_eq!(
            run("set x 3; if {$x > 5} {set r a} elseif {$x > 2} {set r b} else {set r c}"),
            "b"
        );
        assert_eq!(run("if {0} { set r never }"), "");
    }

    #[test]
    fn while_loop_with_break_and_continue() {
        let src = r#"
            set sum 0
            set i 0
            while {$i < 10} {
                incr i
                if {$i == 3} { continue }
                if {$i > 6} { break }
                set sum [expr $sum + $i]
            }
            set sum
        "#;
        // 1+2+4+5+6 = 18
        assert_eq!(run(src), "18");
    }

    #[test]
    fn foreach_iterates_lists() {
        let src = r#"
            set total 0
            foreach n {1 2 3 4} { set total [expr $total + $n] }
            set total
        "#;
        assert_eq!(run(src), "10");
        assert_eq!(
            run("set out {}; foreach w {a {b c} d} { append out < $w > }; set out"),
            "<a><b c><d>"
        );
    }

    #[test]
    fn procs_and_return() {
        let src = r#"
            proc double {x} { return [expr $x * 2] }
            proc add {a b} { expr $a + $b }
            add [double 3] [double 4]
        "#;
        assert_eq!(run(src), "14");
    }

    #[test]
    fn proc_scoping_is_local() {
        let src = r#"
            set x global
            proc f {} { set x local; return $x }
            f
            set x
        "#;
        assert_eq!(run(src), "global");
    }

    #[test]
    fn proc_arity_is_checked() {
        let mut host = NullHost;
        let mut interp = Interp::new(&mut host);
        let err = interp.run("proc f {a b} {expr $a + $b}; f 1").unwrap_err();
        assert!(matches!(err, ScriptError::Runtime(_)));
        assert!(err.to_string().contains("expects 2"));
    }

    #[test]
    fn unknown_command_is_an_error() {
        let mut host = NullHost;
        let mut interp = Interp::new(&mut host);
        let err = interp.run("frobnicate 1 2").unwrap_err();
        assert!(err.to_string().contains("unknown command"));
    }

    #[test]
    fn list_operations() {
        assert_eq!(run("llength {a b {c d}}"), "3");
        assert_eq!(run("lindex {a b c} 1"), "b");
        assert_eq!(run("lindex {a b c} 9"), "");
        assert_eq!(run("lindex {a b c} -1"), "");
        assert_eq!(
            run("set l {}; lappend l x; lappend l {y z}; set l"),
            "x {y z}"
        );
        assert_eq!(run("lrange {a b c d e} 1 3"), "b c d");
        assert_eq!(run("lrange {a b c} 1 end"), "b c");
        assert_eq!(run("lrange {a b c} 0 -1"), "");
        assert_eq!(run("lrange {a b c} -2 1"), "a b");
        assert_eq!(run("lrange {} 0 end"), "");
        assert_eq!(run("join {a b c} -"), "a-b-c");
        assert_eq!(run("split a,b,c ,"), "a b c");
        assert_eq!(run("list a {b c}"), "a {b c}");
        assert_eq!(run("concat {a b}  {c}"), "a b c");
    }

    #[test]
    fn string_operations() {
        assert_eq!(run("string length hello"), "5");
        assert_eq!(run("string toupper abc"), "ABC");
        assert_eq!(run("string tolower ABC"), "abc");
        assert_eq!(run("string equal a a"), "1");
        assert_eq!(run("string equal a b"), "0");
        assert_eq!(run("string range hello 1 3"), "ell");
        assert_eq!(run("string range hello 1 end"), "ello");
        assert_eq!(run("string first ll hello"), "2");
        assert_eq!(run("string first zz hello"), "-1");
        assert_eq!(run("string trim {  x  }"), "x");
    }

    #[test]
    fn catch_and_error() {
        assert_eq!(run("catch {error boom}"), "1");
        assert_eq!(run("catch {expr 1 + 1}"), "0");
        assert_eq!(
            run("catch {error boom} msg; set msg"),
            "runtime error: boom"
        );
        assert_eq!(run("catch {expr 2 + 2} v; set v"), "4");
    }

    #[test]
    fn halt_terminates_the_whole_script() {
        // Unlike `return`, `halt` punches through loops, procs and `catch`.
        assert_eq!(run("halt done\nset never reached"), "done");
        assert_eq!(
            run("set i 0\nwhile {1} { incr i; if {$i > 2} { halt $i } }\nset never x"),
            "3"
        );
        assert_eq!(run("proc f {} { halt inner }\nf\nset never x"), "inner");
        assert_eq!(run("catch { halt stop }\nset never x"), "stop");
        assert_eq!(run("halt"), "");
    }

    #[test]
    fn briefcase_commands_reach_the_host() {
        let mut host = RecordingHost::new();
        let src = r#"
            bc_push SITES 1
            bc_push SITES 2
            bc_put HOST 3
            set top [bc_peek SITES]
            set all [bc_list SITES]
            set n [bc_size SITES]
            set first [bc_dequeue SITES]
            list $top $all $n $first
        "#;
        let out = run_with(&mut host, src).unwrap().result;
        assert_eq!(out, "2 {1 2} 2 1");
        assert_eq!(host.briefcase.get("HOST").unwrap(), &vec!["3".to_string()]);
    }

    #[test]
    fn cabinet_commands_reach_the_host() {
        let mut host = RecordingHost::new();
        let src = r#"
            if {![cab_contains local VISITED [my_site]]} {
                cab_append local VISITED [my_site]
                set fresh 1
            } else {
                set fresh 0
            }
            set fresh
        "#;
        assert_eq!(run_with(&mut host, src).unwrap().result, "1");
        // Second run at the same site: already visited.
        assert_eq!(run_with(&mut host, src).unwrap().result, "0");
    }

    #[test]
    fn meet_and_move_to_and_logging() {
        let mut host = RecordingHost::new();
        let src = r#"
            puts "starting at [my_site] of [site_count]"
            meet courier
            move_to 2 ag_tac
            send_remote 1 courier RESULTS
        "#;
        run_with(&mut host, src).unwrap();
        assert_eq!(host.calls.len(), 4);
        assert!(matches!(host.calls[1], HostCall::Meet(ref a) if a == "courier"));
        assert!(matches!(host.calls[2], HostCall::MoveTo(2, ref c) if c == "ag_tac"));
        assert!(
            matches!(host.calls[3], HostCall::SendRemote(1, ref c, ref f) if c == "courier" && f == &vec!["RESULTS".to_string()])
        );
        assert_eq!(host.logs(), vec!["starting at 0 of 4"]);
    }

    #[test]
    fn meet_failure_is_a_runtime_error_catchable() {
        let mut host = RecordingHost::new();
        assert!(run_with(&mut host, "meet ghost").is_err());
        assert_eq!(
            run_with(&mut host, "catch {meet ghost}").unwrap().result,
            "1"
        );
    }

    #[test]
    fn environment_commands() {
        let mut host = RecordingHost::new();
        host.site = 3;
        let out = run_with(&mut host, "list [my_site] [site_count] [neighbors] [now]")
            .unwrap()
            .result;
        assert_eq!(out, "3 4 {1 2} 123000");
        let r = run_with(&mut host, "random 5").unwrap().result;
        let n: u64 = r.parse().unwrap();
        assert!(n < 5);
        assert_eq!(run_with(&mut host, "random 0").unwrap().result, "0");
    }

    #[test]
    fn budget_stops_infinite_loops() {
        let mut host = NullHost;
        let mut interp = Interp::with_config(
            &mut host,
            InterpConfig {
                max_steps: 500,
                max_depth: 32,
            },
        );
        let err = interp.run("while {1} { set x 1 }").unwrap_err();
        assert_eq!(err, ScriptError::BudgetExceeded);
        assert!(interp.steps() >= 500);
    }

    #[test]
    fn budget_not_laundered_through_catch() {
        let mut host = NullHost;
        let mut interp = Interp::with_config(
            &mut host,
            InterpConfig {
                max_steps: 200,
                max_depth: 32,
            },
        );
        let err = interp.run("catch {while {1} { set x 1 }}").unwrap_err();
        assert_eq!(err, ScriptError::BudgetExceeded);
    }

    #[test]
    fn deep_recursion_is_stopped() {
        let mut host = NullHost;
        let mut interp = Interp::new(&mut host);
        let err = interp
            .run("proc f {n} { f [expr $n + 1] }\nf 0")
            .unwrap_err();
        assert!(matches!(
            err,
            ScriptError::Runtime(_) | ScriptError::BudgetExceeded
        ));
    }

    #[test]
    fn pre_bound_variables_are_visible() {
        let mut host = RecordingHost::new();
        let mut interp = Interp::new(&mut host);
        interp.set_var("who", "tacoma");
        assert_eq!(
            interp.run("set greeting \"hi $who\"").unwrap().result,
            "hi tacoma"
        );
        assert_eq!(interp.get_var("who"), Some("tacoma"));
        assert_eq!(interp.get_var("nope"), None);
    }

    #[test]
    fn parse_errors_are_reported() {
        let mut host = NullHost;
        let mut interp = Interp::new(&mut host);
        assert!(matches!(
            interp.run("set x {oops"),
            Err(ScriptError::Parse(_))
        ));
    }

    #[test]
    fn diffusion_style_script_runs() {
        // A miniature of the paper's diffusion agent: deliver a message, mark
        // the site visited, clone to unvisited neighbours.
        let src = r#"
            set here [my_site]
            if {[cab_contains local VISITED $here]} {
                return done
            }
            cab_append local VISITED $here
            cab_append local MESSAGES [bc_peek MESSAGE]
            foreach n [neighbors] {
                if {![cab_contains local VISITED $n]} {
                    send_remote $n diffusion MESSAGE
                }
            }
            return spread
        "#;
        let mut host = RecordingHost::new();
        host.known_agents.push("diffusion".into());
        host.bc_push("MESSAGE", "storm warning");
        let out = run_with(&mut host, src).unwrap();
        assert_eq!(out.result, "spread");
        assert!(host.cab_contains("local", "VISITED", "0"));
        assert_eq!(host.cab_list("local", "MESSAGES"), vec!["storm warning"]);
        let sends = host
            .calls
            .iter()
            .filter(|c| matches!(c, HostCall::SendRemote(..)))
            .count();
        assert_eq!(sends, 2, "one clone per unvisited neighbour");
        // Running the same agent again at the same site terminates immediately.
        let out2 = run_with(&mut host, src).unwrap();
        assert_eq!(out2.result, "done");
    }
}
