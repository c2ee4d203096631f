//! Static worst-case cost bounds for TacoScript.
//!
//! `cost_bound` runs an abstract interpretation over the parsed AST and
//! returns a sound [`CostBound`]: intervals on interpreter steps, nesting
//! depth, and briefcase growth bytes. The analysis mirrors the interpreter's
//! accounting exactly (one step per command, one extra step per `while`
//! iteration, depth+1 for bodies / `[..]` substitution / proc calls) so the
//! upper bounds are safe to use as runtime budgets and the lower bounds are
//! safe to use for certain-death rejection.
//!
//! Degradation policy matches taco-vet/taco-audit's zero-false-positive
//! stance: `eval`, computed command names, computed proc bodies, recursion,
//! and loops whose trip count cannot be inferred all degrade to an unbounded
//! ("divergent") upper bound rather than guessing. `foreach` over a runtime
//! list with a bounded body is the one softer case: its step count is
//! input-bounded (finite for every finite input) but has no static upper
//! bound, which [`CostBound::verdict`] reports as `input-bound` rather than
//! `unbounded`.

use std::collections::BTreeMap;
use std::iter;

use crate::expr::{Expr, Op};
use crate::parser::{ParseError, Word, WordKind, WordPart};
use crate::tree::{
    add, any_in_scope, Arm, At, Body, Cmd, Cond, Exits, Script, Shape, State, Tree, Vars, View,
    MAX_DEPTH,
};
use crate::value::parse_list;

/// A closed-below, optionally-open-above interval of `u64` cost.
///
/// `hi == None` means "no finite upper bound is proven".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CostInterval {
    /// Proven lower bound (over successful, non-erroring executions).
    pub lo: u64,
    /// Proven upper bound over all executions, or `None` if unbounded.
    pub hi: Option<u64>,
}

impl CostInterval {
    /// The interval `[n, n]`.
    pub fn exact(n: u64) -> Self {
        CostInterval { lo: n, hi: Some(n) }
    }

    /// The interval `[0, 0]`.
    pub fn zero() -> Self {
        Self::exact(0)
    }

    /// The interval `[lo, ∞)`.
    pub fn at_least(lo: u64) -> Self {
        CostInterval { lo, hi: None }
    }

    /// Interval addition (sequential composition).
    // Not the `std::ops::Add` trait: interval arithmetic saturates, and the
    // free name keeps call sites (`a.add(b).add(c)`) chainable without an
    // operator-overload surface the rest of the crate never uses.
    #[allow(clippy::should_implement_trait)]
    pub fn add(self, other: Self) -> Self {
        CostInterval {
            lo: self.lo.saturating_add(other.lo),
            hi: self.hi.zip(other.hi).map(|(a, b)| a.saturating_add(b)),
        }
    }

    /// Interval join (either branch may run): min of lows, max of highs.
    pub fn join(self, other: Self) -> Self {
        CostInterval {
            lo: self.lo.min(other.lo),
            hi: self.hi.zip(other.hi).map(|(a, b)| a.max(b)),
        }
    }

    /// Pointwise max (both bounds): used for depth under sequencing, where
    /// the depth of `a; b` is the max of the two depths.
    pub fn max_(self, other: Self) -> Self {
        CostInterval {
            lo: self.lo.max(other.lo),
            hi: self.hi.zip(other.hi).map(|(a, b)| a.max(b)),
        }
    }

    /// The same upper bound with no lower one: the cost may not be paid.
    fn maybe(self) -> Self {
        CostInterval { lo: 0, ..self }
    }

    /// Multiply a per-iteration cost by an iteration-count interval.
    #[allow(clippy::should_implement_trait)]
    pub fn mul(self, iters: Self) -> Self {
        CostInterval {
            lo: self.lo.saturating_mul(iters.lo),
            hi: match (self.hi, iters.hi) {
                // 0 iterations (or a provably-zero body) is finite even if
                // the other factor is unbounded.
                (Some(0), _) | (_, Some(0)) => Some(0),
                (Some(a), Some(b)) => Some(a.saturating_mul(b)),
                _ => None,
            },
        }
    }

    /// Render as `lo..hi`; unbounded highs render as `?` when `divergent`
    /// (control-unbounded) or `n` when merely input-bounded.
    pub fn render(&self, divergent: bool) -> String {
        match self.hi {
            Some(hi) => format!("{}..{}", self.lo, hi),
            None if divergent => format!("{}..?", self.lo),
            None => format!("{}..n", self.lo),
        }
    }
}

/// The result of static cost analysis for one script.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CostBound {
    /// Interpreter step count (the quantity charged against `max_steps`).
    pub steps: CostInterval,
    /// Maximum nesting depth passed to `eval_script` (top level is 0).
    pub depth: CostInterval,
    /// Bytes appended to the briefcase via growth ops (`bc_push`,
    /// `cab_append`).
    pub growth_bytes: CostInterval,
    /// True when the missing upper bound is *control*-unbounded (recursion,
    /// `eval`, computed dispatch, uninferable loop). False with
    /// `steps.hi == None` means input-bounded: finite for every finite
    /// runtime input, e.g. `foreach` over a runtime list.
    pub divergent: bool,
}

impl CostBound {
    /// Classify the bound: `bounded`, `input-bound`, or `unbounded`.
    pub fn verdict(&self) -> &'static str {
        if self.divergent {
            "unbounded"
        } else if self.steps.hi.is_some() {
            "bounded"
        } else {
            "input-bound"
        }
    }

    /// One-line rendering used by `taco-vet --cost` tables.
    pub fn summary(&self) -> String {
        format!(
            "steps {} depth {} growth {} [{}]",
            self.steps.render(self.divergent),
            self.depth.render(self.divergent),
            self.growth_bytes.render(self.divergent),
            self.verdict()
        )
    }
}

/// An install-time budget checked against a [`CostBound`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CostGate {
    /// Step budget the script must fit inside.
    pub max_steps: u64,
    /// Depth budget the script must fit inside.
    pub max_depth: u64,
    /// Strict gates also reject scripts without a proven finite bound
    /// within budget; lenient gates only reject certain death (proven
    /// lower bound above budget — zero false positives).
    pub strict: bool,
}

impl CostGate {
    /// A lenient gate: reject only scripts whose *lower* bound already
    /// exceeds the budget (they are guaranteed to die at runtime).
    pub fn lenient(max_steps: u64, max_depth: u64) -> Self {
        CostGate {
            max_steps,
            max_depth,
            strict: false,
        }
    }

    /// A strict gate: additionally reject scripts without a proven finite
    /// upper bound within the budget. Admitted ⇒ runtime cost ≤ budget.
    pub fn strict(max_steps: u64, max_depth: u64) -> Self {
        CostGate {
            max_steps,
            max_depth,
            strict: true,
        }
    }

    /// Check a bound against this gate. `Err` carries a human-readable
    /// rejection reason.
    pub fn check(&self, bound: &CostBound) -> Result<(), String> {
        let (CostBound { steps, depth, .. }, max_steps, max_depth) =
            (bound, self.max_steps, self.max_depth);
        let verdict = bound.verdict();
        let refusal = if steps.lo > max_steps {
            format!(
                "proven lower bound {} steps exceeds budget {max_steps}",
                steps.lo
            )
        } else if depth.lo > max_depth {
            format!(
                "proven lower bound depth {} exceeds budget {max_depth}",
                depth.lo
            )
        } else if !self.strict {
            return Ok(());
        } else {
            match (steps.hi, depth.hi) {
                (None, _) => format!("no finite step bound ({verdict})"),
                (Some(hi), _) if hi > max_steps => {
                    format!("worst case {hi} steps exceeds budget {max_steps}")
                }
                (_, None) => format!("no finite depth bound ({verdict})"),
                (_, Some(hi)) if hi > max_depth => {
                    format!("worst case depth {hi} exceeds budget {max_depth}")
                }
                _ => return Ok(()),
            }
        };
        Err(format!("cost: {refusal}"))
    }
}

/// Compute the static cost bound for a script.
///
/// Fails only on parse errors; semantically opaque constructs degrade to
/// an unbounded interval instead of failing.
pub fn cost_bound(src: &str) -> Result<CostBound, ParseError> {
    Script::parse(src).cost()
}

impl Script {
    /// taco-cost's static bound for this script, or the error if it does not
    /// parse; semantically opaque constructs degrade to an unbounded interval
    /// instead of failing.
    pub fn cost(&self) -> Result<CostBound, ParseError> {
        let tree = self.tree.as_ref().map_err(ParseError::clone)?;
        let mut analyzer = Analyzer {
            script: self,
            summaries: BTreeMap::new(),
        };
        let cost = analyzer.script_cost(tree, &mut Env::new(), 0);
        Ok(CostBound {
            steps: cost.steps,
            depth: cost.depth,
            growth_bytes: cost.growth,
            divergent: cost.divergent,
        })
    }
}

/// Internal running cost: like `CostBound` but with combinators.
#[derive(Debug, Clone, Copy)]
struct Cost {
    steps: CostInterval,
    depth: CostInterval,
    growth: CostInterval,
    divergent: bool,
}

impl Cost {
    fn zero() -> Self {
        Cost {
            steps: CostInterval::zero(),
            depth: CostInterval::zero(),
            growth: CostInterval::zero(),
            divergent: false,
        }
    }

    /// Fully unknown: everything `[0, ∞)` and control-unbounded.
    fn poison() -> Self {
        Cost {
            steps: CostInterval::at_least(0),
            depth: CostInterval::at_least(0),
            growth: CostInterval::at_least(0),
            divergent: true,
        }
    }

    /// Sequential composition: steps/growth add, depth maxes.
    fn seq(self, other: Self) -> Self {
        Cost {
            steps: self.steps.add(other.steps),
            depth: self.depth.max_(other.depth),
            growth: self.growth.add(other.growth),
            divergent: self.divergent || other.divergent,
        }
    }

    /// Branch join: either side may run.
    fn join(self, other: Self) -> Self {
        Cost {
            steps: self.steps.join(other.steps),
            depth: self.depth.join(other.depth),
            growth: self.growth.join(other.growth),
            divergent: self.divergent || other.divergent,
        }
    }

    /// May-not-execute: keep upper bounds, drop lower bounds.
    fn guard(self) -> Self {
        Cost {
            steps: self.steps.maybe(),
            depth: self.depth.maybe(),
            growth: self.growth.maybe(),
            ..self
        }
    }

    /// Runs one nesting level deeper (script body, `[..]` part, proc call).
    fn deepen(self) -> Self {
        Cost {
            depth: self.depth.add(CostInterval::exact(1)),
            ..self
        }
    }
}

/// Exact-integer variable environment for constant propagation. A variable
/// is present only when its value is a statically known integer along every
/// path reaching the current point.
type Env = BTreeMap<String, i64>;

struct Analyzer<'t> {
    script: &'t Script,
    /// Memoized summaries of proc bodies, by name; `None` while one is
    /// being summarized (a call back into it is recursion, which poisons).
    summaries: BTreeMap<String, Option<Cost>>,
}

impl Analyzer<'_> {
    /// Summary cost of calling `name` (body cost only; the call's own step
    /// and word costs are charged at the call site): every definition's
    /// body in the literal view, re-definitions joined, except those nested
    /// in a proc with a computed name.
    fn proc_summary(&mut self, name: &str, adepth: u32) -> Cost {
        if let Some(summary) = self.summaries.get(name) {
            return summary.unwrap_or_else(Cost::poison);
        }
        self.summaries.insert(name.to_string(), None);
        let script = self.script;
        let defs = script
            .calls
            .procs
            .get(name)
            .map_or(&[][..], |call| &call.defs);
        let bodies = (defs.iter().map(|&i| &script.procs[i]))
            .filter(|def| !def.at.hidden)
            .filter_map(|def| def.body.as_deref());
        // Proc bodies start with a fresh scope: no caller constants are
        // visible.
        let cost = bodies
            .map(|body| self.body_cost(body, &mut Env::new(), adepth + 1))
            .reduce(Cost::join)
            .unwrap_or_else(Cost::poison);
        self.summaries.insert(name.to_string(), Some(cost));
        cost
    }

    /// Cost of a nested script run at nesting level `adepth`; anything but
    /// statically known, parsing text could cost anything.
    fn body_cost(&mut self, body: &Body, env: &mut Env, adepth: u32) -> Cost {
        match body.view(View::Literal) {
            State::Parsed(tree) => self.script_cost(tree, env, adepth),
            State::Computed | State::Bad(_) | State::TooDeep => Cost::poison(),
        }
    }

    /// Cost of the `[..]` scripts evaluated as part of a word or a condition:
    /// each runs one level deeper, in (a copy of) the current scope.
    fn scripts_cost<'a>(
        &mut self,
        scripts: impl Iterator<Item = &'a Body>,
        env: &Env,
        adepth: u32,
    ) -> Cost {
        let mut cost = Cost::zero();
        for script in scripts {
            let deep = self.body_cost(script, &mut env.clone(), adepth + 1);
            cost = cost.seq(deep.deepen());
        }
        cost
    }

    /// Cost of a command sequence (one `eval_script` body) at the current
    /// nesting level.  `adepth` counts proc calls as well as nesting, like
    /// the interpreter's depth, so a long call chain poisons instead of
    /// recursing without bound.
    fn script_cost(&mut self, tree: &Tree, env: &mut Env, adepth: u32) -> Cost {
        if adepth > MAX_DEPTH {
            return Cost::poison();
        }
        let (mut total, mut cut) = (Cost::zero(), false);
        for cmd in &tree.cmds {
            let c = self.command_cost(cmd, env, adepth);
            // After a command that may skip the rest of the body on a run
            // that succeeds, later commands may not run: they keep their
            // upper bounds and lose their lower ones.
            total = total.seq(if cut { c.guard() } else { c });
            cut |= cmd.exits(View::Literal, &self.script.calls).may(Exits::CUT);
        }
        total
    }

    /// Cost of one command: 1 step + word evaluation + dispatch.
    fn command_cost(&mut self, cmd: &Cmd, env: &mut Env, adepth: u32) -> Cost {
        let mut cost = Cost {
            steps: CostInterval::exact(1),
            ..Cost::zero()
        };

        // Word evaluation: every word is evaluated before dispatch.
        // `[..]` parts run the inner script one level deeper, and can write
        // variables in the *current* scope.
        for script in cmd.scripts() {
            cost = cost.seq(self.scripts_cost([script].into_iter(), env, adepth));
            forget(env, &self.writes_of([script]));
        }

        let Some(name) = cmd.name() else {
            // Computed command name: anything may run.
            env.clear();
            return cost.seq(Cost::poison());
        };

        match &cmd.shape {
            Shape::If { arms, fault: None } => return cost.seq(self.if_cost(arms, env, adepth)),
            Shape::While { cond, body } => {
                return cost.seq(self.while_cost(cond, body, env, adepth))
            }
            Shape::Foreach { body } => return cost.seq(self.foreach_cost(cmd, body, env, adepth)),
            Shape::Catch { body } => return cost.seq(self.catch_cost(cmd, body, env, adepth)),
            Shape::If { .. } | Shape::Eval { .. } | Shape::Malformed => {
                env.clear();
                return cost.seq(Cost::poison());
            }
            // The condition's scripts run once, in this scope.
            Shape::Expr { cond } => {
                cost = cost.seq(self.scripts_cost(cond.scripts(), env, adepth));
                forget(env, &self.writes_of(cond.scripts()));
            }
            // Definition only: 1 step + word costs, no body execution.
            Shape::Proc { .. } | Shape::Plain => {}
        }
        // Whatever the command binds stops being a known constant, unless
        // `set` or `incr` gives it a value computed here.
        let value = match name {
            "set" => cmd
                .words
                .get(2)
                .and_then(|w| eval_const_word(w, &cmd.subs[2], env)),
            "incr" => incr_value(cmd, env),
            _ => None,
        };
        for binding in cmd.bindings() {
            match binding.name {
                Some(var) => {
                    env.remove(var);
                }
                None => env.clear(),
            }
        }
        if let (Some(var), Some(value)) = (cmd.arg_text(0), value) {
            env.insert(var.to_string(), value);
        }
        if let Some((_, payload)) = cmd.growth() {
            cost.growth = cost.growth.add(payload_size(payload));
        }
        if crate::builtins::builtin(name).is_none() {
            if let Some(call) = self.script.calls.procs.get(name) {
                let summary = self.proc_summary(name, adepth).deepen();
                cost = cost.seq(summary);
                forget(env, &call.unsets);
            } else if self.script.calls.open {
                // A proc may be defined that the table does not hold: this
                // could be anything.
                env.clear();
                return cost.seq(Cost::poison());
            }
            // Else: unknown command ⇒ guaranteed runtime error.  Already
            // fully charged (1 step + words).
        }
        cost
    }

    fn if_cost(&mut self, arms: &[Arm], env: &mut Env, adepth: u32) -> Cost {
        // Condition evaluation costs: embedded `[..]` scripts inside
        // conditions run per evaluation; only the first condition is
        // guaranteed to be evaluated.
        let mut cond_cost = Cost::zero();
        let mut branches: Vec<Cost> = Vec::new();
        for (i, arm) in arms.iter().enumerate() {
            if let Some(cond) = &arm.cond {
                let c = self.scripts_cost(cond.scripts(), env, adepth);
                cond_cost = cond_cost.seq(if i == 0 { c } else { c.guard() });
            }
            let body_cost = self.body_cost(&arm.body, &mut env.clone(), adepth + 1);
            branches.push(match arm.body.view(View::Literal) {
                State::Parsed(_) => body_cost.deepen(),
                _ => body_cost,
            });
        }
        if arms.last().is_none_or(|arm| arm.cond.is_some()) {
            branches.push(Cost::zero()); // no `else`: every condition may fail
        }
        let joined = branches
            .into_iter()
            .reduce(Cost::join)
            .unwrap_or_else(Cost::zero);
        // Invalidate everything any branch or condition may have written.
        let nested = arms
            .iter()
            .flat_map(|arm| arm.cond.iter().flat_map(Cond::scripts).chain([&arm.body]));
        forget(env, &self.writes_of(nested));
        cond_cost.seq(joined)
    }

    fn while_cost(&mut self, cond: &Cond, body: &Body, env: &mut Env, adepth: u32) -> Cost {
        let (Some(_), State::Parsed(body_tree)) = (&cond.expr, body.view(View::Literal)) else {
            env.clear();
            return Cost::poison();
        };

        // Analyze cond/body against an env scrubbed of everything the loop
        // may write (values change across iterations).
        let written = self.writes_of(cond.scripts().chain([body]));
        let mut loop_env = env.clone();
        forget(&mut loop_env, &written);

        let inference = self.counted_loop(cond, body, body_tree, env);

        let cond_cost = self.scripts_cost(cond.scripts(), &loop_env, adepth);
        let body_cost = self
            .script_cost(body_tree, &mut loop_env, adepth + 1)
            .deepen();

        // Invalidate loop writes in the outer env.  The counter itself has a
        // known final value only in simple cases; stay conservative and leave
        // it invalidated.
        forget(env, &written);

        match inference {
            // steps = 1 (charged by caller) + cond·(iters+1)
            //       + (body + 1 extra per-iteration step)·iters
            Some((n, m)) => {
                let cond_evals = CostInterval {
                    lo: m.saturating_add(1),
                    hi: Some(n.saturating_add(1)),
                };
                let body_cost = Cost {
                    steps: body_cost.steps.add(CostInterval::exact(1)),
                    ..body_cost
                };
                let iters = CostInterval { lo: m, hi: Some(n) };
                repeat(cond_cost, cond_evals).seq(repeat(body_cost, iters))
            }
            // Uninferable trip count: the condition still runs at least once
            // on any successful path.
            None => Cost {
                steps: CostInterval::at_least(cond_cost.steps.lo),
                depth: CostInterval::at_least(cond_cost.depth.lo),
                ..Cost::poison()
            },
        }
    }

    fn foreach_cost(&mut self, cmd: &Cmd, body: &Body, env: &mut Env, adepth: u32) -> Cost {
        let State::Parsed(body_tree) = body.view(View::Literal) else {
            env.clear();
            return Cost::poison();
        };

        // A computed loop variable could be any variable.
        let mut written = self.writes_of([body]);
        bind(&mut written, cmd);
        let mut loop_env = env.clone();
        forget(&mut loop_env, &written);

        let body_cost = self
            .script_cost(body_tree, &mut loop_env, adepth + 1)
            .deepen();

        forget(env, &written);

        // Literal list ⇒ exact element count; runtime list ⇒ input-bounded.
        let iters = match cmd.arg_text(1) {
            // A `continue` cuts only its own iteration short, which the
            // body's lower bound already allows for.
            Some(list_text) => {
                let count = CostInterval::exact(parse_list(list_text).len() as u64);
                let lo = if self.stops_early(body) { 0 } else { count.lo };
                CostInterval { lo, ..count }
            }
            None => CostInterval { lo: 0, hi: None },
        };
        repeat(body_cost, iters)
    }

    fn catch_cost(&mut self, cmd: &Cmd, body: &Body, env: &mut Env, adepth: u32) -> Cost {
        let body_cost = self.body_cost(body, &mut env.clone(), adepth + 1);
        // The body may abort at any point (catch absorbs the error), so
        // only upper bounds survive.
        let cost = body_cost.guard().deepen();

        // Invalidate: the result var and anything the body wrote.
        let mut written = self.writes_of([body]);
        bind(&mut written, cmd);
        forget(env, &written);
        cost
    }
}

/// `cost` run `iters` times: its depth counts toward the lower bound only
/// when at least one run is certain.
fn repeat(cost: Cost, iters: CostInterval) -> Cost {
    Cost {
        steps: cost.steps.mul(iters),
        depth: if iters.lo >= 1 {
            cost.depth
        } else {
            cost.depth.maybe()
        },
        growth: cost.growth.mul(iters),
        ..cost
    }
}

/// The value `incr` leaves in its variable, when that is a known constant.
fn incr_value(cmd: &Cmd, env: &Env) -> Option<i64> {
    let amount = match cmd.words.get(2) {
        None => Some(1i64),
        Some(w) => eval_const_word(w, &cmd.subs[2], env),
    };
    // Unknown operands stay unknown, and so does an overflowing sum: the
    // interpreter raises an error there, so no constant survives it.
    let current = env.get(cmd.arg_text(0)?);
    current
        .zip(amount)
        .and_then(|(cur, by)| cur.checked_add(by))
}

/// Statically evaluate a word (with its parsed `[..]` parts) to an exact
/// integer, if possible.
fn eval_const_word(word: &Word, subs: &[Body], env: &Env) -> Option<i64> {
    match &word.kind {
        WordKind::Braced(text) => text.trim().parse::<i64>().ok(),
        WordKind::Parts(parts) => match parts.as_slice() {
            [WordPart::Literal(text)] => text.trim().parse::<i64>().ok(),
            [WordPart::Variable(name)] => env.get(name).copied(),
            [WordPart::Command(_)] => eval_const_expr(&subs[0], env),
            _ => None,
        },
    }
}

/// The integers `f64` represents exactly lie within ±2^53.
fn f64_exact(v: i64) -> bool {
    (-(1i64 << 53)..=1i64 << 53).contains(&v)
}

/// The single `expr` command a `[..]` part consists of, if it is one.
fn sole_expr(script: &Body) -> Option<&Cmd> {
    let State::Parsed(Tree { cmds, .. }) = script.view(View::Literal) else {
        return None;
    };
    cmds.first()
        .filter(|cmd| cmds.len() == 1 && cmd.name() == Some("expr"))
}

/// Constant-fold `[expr ...]` bodies of the simple forms the interpreter
/// supports: `expr <a>`, `expr <a> <op> <b>` with `+ - *`.  The interpreter
/// computes `expr` in `f64`, so a fold is only a fact about the value the
/// script will hold while every number involved is one `f64` holds exactly.
fn eval_const_expr(script: &Body, env: &Env) -> Option<i64> {
    let cmd = sole_expr(script)?;
    let operand =
        |i: usize| eval_const_word(&cmd.words[i], &cmd.subs[i], env).filter(|&v| f64_exact(v));
    match cmd.words.len() {
        2 => operand(1),
        4 => {
            let (a, b) = (operand(1)?, operand(3)?);
            match cmd.arg_text(1)? {
                "+" => a.checked_add(b),
                "-" => a.checked_sub(b),
                "*" => a.checked_mul(b),
                _ => None,
            }
            .filter(|&v| f64_exact(v))
        }
        _ => None,
    }
}

/// Upper/lower bound on the byte size a growth-op payload contributes.
fn payload_size(word: Option<&Word>) -> CostInterval {
    let size = |w: &Word| w.static_text().map(|text| text.len() as u64);
    word.map_or(CostInterval::zero(), |w| {
        size(w).map_or(CostInterval::at_least(0), CostInterval::exact)
    })
}

/// Adds what `cmd` binds to `written`, which becomes `None` when that could
/// be any variable.
fn bind(written: &mut Vars, cmd: &Cmd) {
    for binding in cmd.bindings() {
        add(written, binding.name.map(iter::once));
    }
}

/// Drops what a nested script may have written from the env.
fn forget(env: &mut Env, written: &Vars) {
    match written {
        Some(written) => env.retain(|var, _| !written.contains(var)),
        None => env.clear(),
    }
}

impl<'t> Analyzer<'t> {
    /// The variables `scripts` may write in the current scope, or `None` when
    /// the writes cannot be enumerated (computed targets, anything opaque).
    fn writes_of<'a>(&self, scripts: impl IntoIterator<Item = &'a Body>) -> Vars {
        self.script.calls.writes(scripts, View::Literal, false)
    }

    /// True if anything in the body (recursively) writes `var` outside the one
    /// allowed self-step, uses `eval`, has computed names, or uses `continue`
    /// (which could skip the self-step on an iteration).  Builtins don't write
    /// the counter otherwise, and proc calls get a fresh scope: they reach it
    /// only when they may unset it.
    fn body_touches_counter_unsafely(&self, body: &Body, var: &str) -> bool {
        // The single allowed self-step is top-level and matched by `self_step`;
        // any *other* write — including nested ones — disqualifies.
        let step = |cmd: &Cmd, at: At| at.top && self_step(cmd, var).is_some();
        let calls = &self.script.calls;
        body.exits(View::Literal, calls).may(Exits::CONTINUE)
            || any_in_scope(body, View::Literal, |name, cmd, at| {
                cmd.bindings().any(|binding| {
                    binding
                        .name
                        .is_none_or(|target| target == var && !step(cmd, at))
                }) || calls
                    .procs
                    .get(name)
                    .is_some_and(|call| call.unsets.as_ref().is_none_or(|set| set.contains(var)))
            })
    }

    /// Try to infer the trip count of a counted `while` loop.
    ///
    /// Returns `(n, m)`: `n` = maximum iterations, `m` = minimum iterations on
    /// a successful run. Requirements (all structural, zero false positives):
    ///
    /// - the first conjunct of the condition's top-level `&&` chain is
    ///   `$var op bound` with `op ∈ {<, <=, >, >=}` and `bound` a literal
    ///   integer or an env-exact variable;
    /// - the condition is not a top-level `||`;
    /// - `var` starts env-exact;
    /// - exactly one top-level body command steps `var` by a constant `k`
    ///   (`incr var`, `incr var k`, `set var [expr $var ± k]`), no other writes
    ///   to `var` anywhere in the body or condition scripts, no `eval` or
    ///   computed names near `var`, and no `continue` (which could skip the
    ///   step);
    /// - `k`'s sign moves `var` toward the bound;
    /// - start, bound and step are integers `f64` holds exactly, because the
    ///   condition (and an `expr` step) is evaluated in `f64`.
    fn counted_loop(
        &mut self,
        cond: &Cond,
        body: &Body,
        body_tree: &Tree,
        env: &Env,
    ) -> Option<(u64, u64)> {
        // A condition that does not parse raises at its first test.
        let Ok(expr) = cond.expr.as_ref()? else {
            return Some((0, 0));
        };
        let (guard, rest) = expr.conjuncts()?;
        let Expr::Chain(counter, compared) = guard else {
            return None;
        };
        let (Expr::Leaf(counter), [(op, bound)]) = (&**counter, compared.as_slice()) else {
            return None;
        };
        let var = cond.var(*counter)?;
        let bound = match bound {
            Expr::Num(n) if n.fract() == 0.0 => *n as i64,
            Expr::Leaf(i) => *env.get(cond.var(*i)?)?,
            _ => return None,
        };
        let start = *env.get(var)?;

        // Exactly one self-step of the counter at the top level, and no other
        // writes to it, no eval/opacity, no `continue`.
        let mut steps = body_tree.cmds.iter().filter_map(|cmd| self_step(cmd, var));
        let k = steps.next()?;
        if steps.next().is_some()
            || k == 0
            || ![start, bound, k].into_iter().all(f64_exact)
            || self.body_touches_counter_unsafely(body, var)
            || self
                .writes_of(cond.scripts())
                .is_none_or(|written| written.contains(var))
        {
            return None;
        }

        // A counter that falls toward its bound is one that rises toward the
        // negated bound.
        let (a, b, k) = (i128::from(start), i128::from(bound), i128::from(k));
        let (a, b, k) = match op {
            Op::Lt | Op::Le => (a, b, k),
            Op::Gt | Op::Ge => (-a, -b, -k),
            _ => return None,
        };
        if k <= 0 {
            return None;
        }
        let n = match op {
            Op::Lt | Op::Gt if a < b => (b - a + k - 1) / k,
            Op::Le | Op::Ge if a <= b => (b - a) / k + 1,
            _ => 0,
        };
        let n: u64 = n.try_into().ok()?;

        // Lower bound: the full n iterations run iff every other conjunct is
        // true whatever the leaves hold and nothing may stop the loop early.
        let full = rest.iter().all(|(_, e)| e.holds()) && !self.stops_early(body);
        Some((n, if full { n } else { 0 }))
    }

    /// Whether `body`, a loop's, may end the loop early on a run that
    /// succeeds: by `return`, `halt` or `break`.
    fn stops_early(&self, body: &Body) -> bool {
        body.exits(View::Literal, &self.script.calls)
            .may(Exits::STOP)
    }
}

/// Match a top-level command that steps `var` by a constant:
/// `incr var`, `incr var <k>`, `set var [expr $var ± k]`,
/// `set var [expr k + $var]`.
fn self_step(cmd: &Cmd, var: &str) -> Option<i64> {
    if cmd.arg_text(0) != Some(var) {
        return None;
    }
    let lit = |w: &Word| w.static_text().and_then(|t| t.trim().parse::<i64>().ok());
    match cmd.name()? {
        "incr" => match cmd.words.get(2) {
            None => Some(1),
            Some(w) => lit(w),
        },
        "set" => {
            // Value must be a single `[expr ...]` command part.
            let expr = match (&cmd.words.get(2)?.kind, cmd.subs[2].as_slice()) {
                (WordKind::Parts(parts), [script]) if parts.len() == 1 => sole_expr(script)?,
                _ => return None,
            };
            let [_, lhs, op, rhs] = expr.words.as_slice() else {
                return None;
            };
            let is_var = |w: &Word| {
                matches!(&w.kind, WordKind::Parts(parts)
                    if matches!(parts.as_slice(), [WordPart::Variable(v)] if v == var))
            };
            match op.static_text()? {
                "+" if is_var(lhs) => lit(rhs),
                "+" if is_var(rhs) => lit(lhs),
                "-" if is_var(lhs) => lit(rhs).and_then(i64::checked_neg),
                _ => None,
            }
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host::NullHost;
    use crate::interp::{Interp, InterpConfig};

    fn bound(src: &str) -> CostBound {
        cost_bound(src).expect("parse")
    }

    /// Run a script under the interpreter and return its exact step count.
    fn run_steps(src: &str) -> u64 {
        let mut host = NullHost;
        let mut interp = Interp::new(&mut host);
        let outcome = interp.run(src).expect("run ok");
        outcome.steps
    }

    #[test]
    fn straight_line_exact() {
        let b = bound("set x 1\nset y 2");
        assert_eq!(b.steps, CostInterval::exact(2));
        assert_eq!(b.depth, CostInterval::exact(0));
        assert_eq!(b.verdict(), "bounded");
        assert_eq!(run_steps("set x 1\nset y 2"), 2);
    }

    #[test]
    fn counted_while_exact() {
        let src = "set i 0\nwhile {$i < 10} { incr i }";
        let b = bound(src);
        // 1 (set) + 1 (while) + 10·(1 incr + 1 extra per-iteration step)
        assert_eq!(b.steps, CostInterval::exact(22));
        assert_eq!(b.depth, CostInterval::exact(1));
        assert_eq!(run_steps(src), 22);
    }

    #[test]
    fn incr_overflow_is_a_script_error_and_leaves_no_constant() {
        let mut host = NullHost;
        let mut interp = Interp::new(&mut host);
        let err = interp.run("set x 9223372036854775807; incr x");
        assert!(
            matches!(err, Err(crate::ScriptError::Runtime(_))),
            "{err:?}"
        );
        // The failed `incr` leaves x at i64::MAX, so the loop never runs; a
        // wrapped constant would "prove" 808 iterations as the minimum.
        let src = "set x 9223372036854775807\ncatch {incr x}\n\
                   while {$x < -9223372036854775000} { incr x }";
        let (steps, proven) = (run_steps(src), bound(src).steps);
        assert!(proven.lo <= steps, "{proven:?} vs {steps} actual steps");
    }

    /// `expr` computes in `f64`: a fold is a fact about the script's value
    /// only while every number involved is one `f64` holds exactly.
    #[test]
    fn expr_folds_only_what_f64_holds_exactly() {
        // i64 wrapping once "proved" i = i64::MIN and 2^64 - 1 steps; the
        // interpreter holds 9223372036854775808 and never enters the loop.
        let src = "set i [expr 9223372036854775807 + 1]; while {$i < 0} {incr i}; set done 1";
        let b = bound(src);
        assert_eq!(run_steps(src), 4);
        assert!(b.steps.lo <= 4, "{}", b.summary());
        assert!(CostGate::lenient(100_000, 64).check(&b).is_ok());
        // 2^53 + 1 is not an f64: the script holds 2^53 and takes 10 steps
        // where exact arithmetic proved 8.
        let src =
            "set i [expr 9007199254740992 + 1]; while {$i < 9007199254740995} {incr i}; set done 1";
        let b = bound(src);
        assert_eq!(run_steps(src), 10);
        assert!(b.steps.hi.is_none_or(|hi| hi >= 10), "{}", b.summary());
        // Inside ±2^53 the fold stands.
        assert_eq!(
            bound("set i [expr 4503599627370496 * 2]; while {$i < 9007199254740992} {incr i}")
                .steps,
            CostInterval::exact(3)
        );
    }

    /// The loop guard is an `expr` too, and so may the step be.
    #[test]
    fn counted_loops_need_operands_f64_holds_exactly() {
        // 9007199254740993 reads as 2^53, so the guard is false at once.
        let src = "set i 9007199254740992; while {$i < 9007199254740993} {incr i}; set done 1";
        let b = bound(src);
        assert_eq!(run_steps(src), 3);
        assert!(b.steps.lo <= 3, "{}", b.summary());
        // 2^53 + 1 rounds back to 2^53: the counter never moves.
        let src = "set i 9007199254740992; set n 0\n\
                   while {$i < 9007199254740994} {set i [expr $i + 1]; incr n; if {$n > 20} break}";
        let (steps, b) = (run_steps(src), bound(src));
        assert!(b.steps.hi.is_none_or(|hi| hi >= steps), "{}", b.summary());
        // A step of i64::MIN cannot be negated; it is no step at all.
        let b = bound("set i 0; while {$i < 3} {set i [expr $i - -9223372036854775808]}");
        assert_eq!(b.verdict(), "unbounded");
    }

    /// `substitute` evaluates a `[` that never closes as a script running to
    /// the end of the condition, so it costs steps on every evaluation.
    #[test]
    fn unterminated_bracket_in_a_condition_still_runs() {
        let src = "set i 0; while {$i < 3 && [expr 1} {incr i}";
        let b = bound(src);
        assert_eq!(run_steps(src), 12);
        assert_eq!(b.steps.hi, Some(12));
    }

    /// A brace-quoted `expr` runs its `[..]` scripts, one level deeper, and
    /// what they write is no longer a known constant.
    #[test]
    fn expr_condition_scripts_are_charged() {
        let src = "set i 0; expr {[incr i] + [incr i]}";
        let b = bound(src);
        assert_eq!(b.steps, CostInterval::exact(4));
        assert_eq!(b.depth, CostInterval::exact(1));
        assert_eq!(run_steps(src), 4);
        let src = "set i 0; expr {[set i 5]}; while {$i < 3} {incr i}";
        assert_eq!(run_steps(src), 4);
        assert_eq!(bound(src).verdict(), "unbounded");
    }

    #[test]
    fn counted_while_set_expr() {
        let src = "set tries 0\nwhile {$tries < 3} { set tries [expr $tries + 1] }";
        let b = bound(src);
        // Body: set (1 step) + [expr] inner (1 step) = 2 steps, depth 2
        // (body at depth 1, [..] at depth 2).
        // Total: 1 (set) + 1 (while) + 3·(2 + 1 extra) = 11.
        assert_eq!(b.steps, CostInterval::exact(11));
        assert_eq!(b.depth, CostInterval::exact(2));
        assert_eq!(run_steps(src), 11);
    }

    #[test]
    fn counted_while_multi_conjunct() {
        // Second conjunct means the loop may stop early: hi from the
        // counter, lo 0 iterations.
        let src = "set ok 1\nset i 0\nwhile {$i < 5 && $ok == 1} { incr i }";
        let b = bound(src);
        assert_eq!(b.steps.hi, Some(3 + 5 * 2));
        assert_eq!(b.steps.lo, 2 + 1); // two sets + the while command
        assert_eq!(b.verdict(), "bounded");
        assert_eq!(run_steps(src), 13);
    }

    /// The guard is read off the condition's `Expr`, so its spelling does
    /// not matter: no spaces, parentheses, or a constant-true conjunct whose
    /// string holds `||`.
    #[test]
    fn counted_while_guard_spellings() {
        for cond in ["$i<10", "($i < 10)", "$i < 10 && \"x||y\" ne \"\""] {
            let src = format!("set i 0; while {{{cond}}} {{incr i}}; return $i");
            assert_eq!(bound(&src).steps, CostInterval::exact(23), "{cond}");
            assert_eq!(run_steps(&src), 23, "{cond}");
        }
    }

    /// `&&` asks its operands for a number, so a quoted zero is false there
    /// though `if "0.0"` takes the branch: such a conjunct is not
    /// constant-true, and lo counts no iteration.
    #[test]
    fn counted_while_quoted_zero_conjunct() {
        for zero in ["\"00\"", "\"0.0\"", "\"0e0\""] {
            let src = format!("set i 0; while {{$i < 10 && {zero}}} {{incr i}}; return $i");
            let b = bound(&src);
            assert_eq!((b.steps.lo, b.steps.hi), (3, Some(23)), "{zero}");
            assert_eq!(run_steps(&src), 3, "{zero}");
        }
    }

    /// A condition that does not parse raises at its first test, after its
    /// `[..]` scripts ran: the body never runs.
    #[test]
    fn while_with_a_condition_that_does_not_parse() {
        for cond in ["$i < +3", "$i < 3 &&", "[incr i] <"] {
            let src = format!("set i 0; while {{{cond}}} {{incr i}}");
            let hi = 2 + u64::from(cond.starts_with('['));
            assert_eq!(bound(&src).steps.hi, Some(hi), "{cond}");
            let mut host = NullHost;
            let mut interp = Interp::new(&mut host);
            assert!(interp.run(&src).is_err(), "{cond}");
            assert_eq!(interp.steps(), hi, "{cond}");
        }
    }

    #[test]
    fn nested_counted_whiles() {
        let src = "set i 0\nwhile {$i < 3} { set j 0\nwhile {$j < 2} { incr j }\nincr i }";
        let b = bound(src);
        // Inner loop: 1 (while cmd) + 2·(1 incr + 1 extra) = 5 steps.
        // Outer body: 1 (set j) + 5 + 1 (incr i) = 7, plus 1 extra/iter.
        // Total: 1 (set i) + 1 (outer while) + 3·8 = 26.
        assert_eq!(b.steps, CostInterval::exact(26));
        assert_eq!(run_steps(src), 26);
    }

    #[test]
    fn foreach_literal_exact() {
        let src = "foreach x {a b c} { set y $x }";
        let b = bound(src);
        // 1 (foreach) + 3·1 (set per element) = 4.
        assert_eq!(b.steps, CostInterval::exact(4));
        assert_eq!(b.depth, CostInterval::exact(1));
        assert_eq!(run_steps(src), 4);
    }

    #[test]
    fn foreach_dynamic_input_bound() {
        let b = bound("foreach x $items { set y $x }");
        assert_eq!(b.steps.hi, None);
        assert!(!b.divergent);
        assert_eq!(b.verdict(), "input-bound");
    }

    #[test]
    fn uninferable_while_divergent() {
        let b = bound("while {$x < 10} { set y 1 }");
        assert_eq!(b.steps.hi, None);
        assert!(b.divergent);
        assert_eq!(b.verdict(), "unbounded");
    }

    #[test]
    fn eval_divergent() {
        let b = bound("eval {set x 1}");
        assert!(b.divergent);
        assert_eq!(b.verdict(), "unbounded");
    }

    #[test]
    fn recursion_divergent() {
        let b = bound("proc f {} { f }\nf");
        assert!(b.divergent);
    }

    #[test]
    fn proc_summary_exact() {
        let src = "proc double {x} { expr $x * 2 }\ndouble 3";
        let b = bound(src);
        // 1 (proc def) + 1 (call) + 1 (expr in body) = 3; body at depth 1.
        assert_eq!(b.steps, CostInterval::exact(3));
        assert_eq!(b.depth, CostInterval::exact(1));
        assert_eq!(run_steps(src), 3);
    }

    #[test]
    fn growth_exact() {
        let src = "bc_push OUT abc\nbc_push OUT defgh";
        let b = bound(src);
        assert_eq!(b.growth_bytes, CostInterval::exact(8));
        assert_eq!(b.steps, CostInterval::exact(2));
    }

    #[test]
    fn growth_in_loop() {
        let src = "set i 0\nwhile {$i < 5} { bc_push OUT abc\nincr i }";
        let b = bound(src);
        assert_eq!(b.growth_bytes, CostInterval::exact(15));
        assert_eq!(run_steps(src), 2 + 5 * 3);
        assert_eq!(b.steps, CostInterval::exact(17));
    }

    #[test]
    fn catch_guards_lower_bound() {
        let src = "catch { error boom }";
        let b = bound(src);
        assert_eq!(b.steps.lo, 1);
        assert_eq!(b.steps.hi, Some(2));
        assert_eq!(run_steps(src), 2);
    }

    #[test]
    fn if_else_join() {
        let src = "set x 1\nif {$x == 1} { set a 1 } else { set a 1\nset b 2 }";
        let b = bound(src);
        // 1 (set) + 1 (if) + [1,2] body.
        assert_eq!(b.steps, CostInterval { lo: 3, hi: Some(4) });
        assert_eq!(run_steps(src), 3);
    }

    #[test]
    fn if_no_else_zero_branch() {
        let src = "if {$x == 1} { set a 1\nset b 2 }";
        let b = bound(src);
        assert_eq!(b.steps, CostInterval { lo: 1, hi: Some(3) });
    }

    #[test]
    fn gate_lenient_rejects_certain_death() {
        let gate = CostGate::lenient(10, 4);
        let heavy = bound("set i 0\nwhile {$i < 100} { incr i }");
        assert!(gate.check(&heavy).is_err());
        let light = bound("set x 1");
        assert!(gate.check(&light).is_ok());
        // Lenient admits unbounded (no proven lower bound above budget).
        let open = bound("while {$x < 10} { set y 1 }");
        assert!(gate.check(&open).is_ok());
    }

    #[test]
    fn gate_strict_requires_finite_bound() {
        let gate = CostGate::strict(1000, 8);
        let open = bound("while {$x < 10} { set y 1 }");
        assert!(gate.check(&open).is_err());
        let input = bound("foreach x $items { set y $x }");
        assert!(gate.check(&input).is_err());
        let fine = bound("set i 0\nwhile {$i < 10} { incr i }");
        assert!(gate.check(&fine).is_ok());
    }

    #[test]
    fn static_hi_is_sound_budget() {
        // Running with max_steps == hi must succeed; hi-1 must exhaust.
        let src = "set i 0\nwhile {$i < 25} { incr i }";
        let b = bound(src);
        let hi = b.steps.hi.expect("finite");
        let mut host = NullHost;
        let mut ok = Interp::with_config(
            &mut host,
            InterpConfig {
                max_steps: hi,
                ..Default::default()
            },
        );
        assert!(ok.run(src).is_ok());
        let mut host2 = NullHost;
        let mut tight = Interp::with_config(
            &mut host2,
            InterpConfig {
                max_steps: hi - 1,
                ..Default::default()
            },
        );
        assert!(tight.run(src).is_err());
    }

    #[test]
    fn break_lowers_minimum_not_maximum() {
        let src = "set i 0\nwhile {$i < 10} { incr i\nif {$i > 2} { break } }";
        let b = bound(src);
        // hi stays at the full-count formula; lo drops to the guaranteed
        // prefix (just the sets + while command).
        assert!(b.steps.hi.is_some());
        assert!(b.steps.lo < b.steps.hi.unwrap());
        let actual = run_steps(src);
        assert!(actual <= b.steps.hi.unwrap());
        assert!(actual >= b.steps.lo);
    }

    #[test]
    fn interval_render() {
        assert_eq!(CostInterval::exact(5).render(false), "5..5");
        assert_eq!(CostInterval::at_least(2).render(true), "2..?");
        assert_eq!(CostInterval::at_least(0).render(false), "0..n");
    }
}
