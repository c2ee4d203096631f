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

use std::collections::{BTreeMap, BTreeSet};

use crate::parser::{parse_script, Command, ParseError, Word, WordKind, WordPart};
use crate::value::parse_list;

/// Maximum analyzer recursion depth before the analysis gives up and
/// poisons the result. Mirrors the interpreter's default `max_depth`.
const ANALYSIS_DEPTH_LIMIT: u32 = 64;

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
            hi: match (self.hi, other.hi) {
                (Some(a), Some(b)) => Some(a.saturating_add(b)),
                _ => None,
            },
        }
    }

    /// Interval join (either branch may run): min of lows, max of highs.
    pub fn join(self, other: Self) -> Self {
        CostInterval {
            lo: self.lo.min(other.lo),
            hi: match (self.hi, other.hi) {
                (Some(a), Some(b)) => Some(a.max(b)),
                _ => None,
            },
        }
    }

    /// Pointwise max (both bounds): used for depth under sequencing, where
    /// the depth of `a; b` is the max of the two depths.
    pub fn max_(self, other: Self) -> Self {
        CostInterval {
            lo: self.lo.max(other.lo),
            hi: match (self.hi, other.hi) {
                (Some(a), Some(b)) => Some(a.max(b)),
                _ => None,
            },
        }
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
        if bound.steps.lo > self.max_steps {
            return Err(format!(
                "cost: proven lower bound {} steps exceeds budget {}",
                bound.steps.lo, self.max_steps
            ));
        }
        if bound.depth.lo > self.max_depth {
            return Err(format!(
                "cost: proven lower bound depth {} exceeds budget {}",
                bound.depth.lo, self.max_depth
            ));
        }
        if self.strict {
            match bound.steps.hi {
                Some(hi) if hi <= self.max_steps => {}
                Some(hi) => {
                    return Err(format!(
                        "cost: worst case {} steps exceeds budget {}",
                        hi, self.max_steps
                    ));
                }
                None => {
                    return Err(format!("cost: no finite step bound ({})", bound.verdict()));
                }
            }
            match bound.depth.hi {
                Some(hi) if hi <= self.max_depth => {}
                Some(hi) => {
                    return Err(format!(
                        "cost: worst case depth {} exceeds budget {}",
                        hi, self.max_depth
                    ));
                }
                None => {
                    return Err(format!("cost: no finite depth bound ({})", bound.verdict()));
                }
            }
        }
        Ok(())
    }
}

/// Compute the static cost bound for a script.
///
/// Fails only on parse errors; semantically opaque constructs degrade to
/// an unbounded interval instead of failing.
pub fn cost_bound(src: &str) -> Result<CostBound, ParseError> {
    let commands = parse_script(src)?;
    let mut analyzer = Analyzer::new();
    analyzer.collect_procs(&commands, 0);
    let cost = analyzer.script_cost(&commands, &mut Env::new(), 0);
    Ok(CostBound {
        steps: cost.steps,
        depth: cost.depth,
        growth_bytes: cost.growth,
        divergent: cost.divergent,
    })
}

/// Internal running cost: like `CostBound` but with combinators.
#[derive(Debug, Clone, Copy)]
struct Cost {
    steps: CostInterval,
    depth: CostInterval,
    growth: CostInterval,
    divergent: bool,
    /// True when this command definitely terminates the enclosing script
    /// on every successful path (`return`, `halt`, `break`, `continue`)
    /// or cannot complete normally (`error`). Sequencing stops adding
    /// lower bounds after such a command.
    terminates: bool,
}

impl Cost {
    fn zero() -> Self {
        Cost {
            steps: CostInterval::zero(),
            depth: CostInterval::zero(),
            growth: CostInterval::zero(),
            divergent: false,
            terminates: false,
        }
    }

    /// Fully unknown: everything `[0, ∞)` and control-unbounded.
    fn poison() -> Self {
        Cost {
            steps: CostInterval::at_least(0),
            depth: CostInterval::at_least(0),
            growth: CostInterval::at_least(0),
            divergent: true,
            terminates: false,
        }
    }

    /// Sequential composition: steps/growth add, depth maxes.
    fn seq(self, other: Self) -> Self {
        Cost {
            steps: self.steps.add(other.steps),
            depth: self.depth.max_(other.depth),
            growth: self.growth.add(other.growth),
            divergent: self.divergent || other.divergent,
            terminates: self.terminates || other.terminates,
        }
    }

    /// Branch join: either side may run.
    fn join(self, other: Self) -> Self {
        Cost {
            steps: self.steps.join(other.steps),
            depth: self.depth.join(other.depth),
            growth: self.growth.join(other.growth),
            divergent: self.divergent || other.divergent,
            terminates: self.terminates && other.terminates,
        }
    }

    /// May-not-execute: keep upper bounds, drop lower bounds.
    fn guard(self) -> Self {
        Cost {
            steps: CostInterval {
                lo: 0,
                hi: self.steps.hi,
            },
            depth: CostInterval {
                lo: 0,
                hi: self.depth.hi,
            },
            growth: CostInterval {
                lo: 0,
                hi: self.growth.hi,
            },
            divergent: self.divergent,
            terminates: false,
        }
    }

    /// Runs one nesting level deeper (script body, `[..]` part, proc call).
    fn deepen(self) -> Self {
        Cost {
            depth: self.depth.add(CostInterval::exact(1)),
            ..self
        }
    }

    fn add_steps(self, n: CostInterval) -> Self {
        Cost {
            steps: self.steps.add(n),
            ..self
        }
    }

    fn add_growth(self, n: CostInterval) -> Self {
        Cost {
            growth: self.growth.add(n),
            ..self
        }
    }
}

/// Exact-integer variable environment for constant propagation. A variable
/// is present only when its value is a statically known integer along every
/// path reaching the current point.
type Env = BTreeMap<String, i64>;

#[derive(Debug, Clone)]
enum ProcInfo {
    /// All known bodies for this proc name (re-definition joins them).
    Bodies(Vec<String>),
    /// A definition with a computed body: calling it is unanalyzable.
    Opaque,
}

struct Analyzer {
    procs: BTreeMap<String, ProcInfo>,
    /// Set when any `proc` definition has a computed *name*: then the set
    /// of callable procs is unknown and unknown commands must poison.
    opaque_procs: bool,
    /// Memoized summaries of proc bodies (by name).
    summaries: BTreeMap<String, Cost>,
    /// Names currently being summarized (cycle ⇒ recursion ⇒ poison).
    in_progress: Vec<String>,
}

impl Analyzer {
    fn new() -> Self {
        Analyzer {
            procs: BTreeMap::new(),
            opaque_procs: false,
            summaries: BTreeMap::new(),
            in_progress: Vec::new(),
        }
    }

    /// Pre-pass: structurally collect every `proc` definition reachable in
    /// the script, including ones nested in control-flow bodies and `[..]`
    /// parts.
    fn collect_procs(&mut self, commands: &[Command], adepth: u32) {
        if adepth > ANALYSIS_DEPTH_LIMIT {
            return;
        }
        for cmd in commands {
            for word in &cmd.words {
                if let WordKind::Parts(parts) = &word.kind {
                    for part in parts {
                        if let WordPart::Command(inner) = part {
                            if let Ok(inner_cmds) = parse_script(inner) {
                                self.collect_procs(&inner_cmds, adepth + 1);
                            }
                        }
                    }
                }
            }
            let name = match cmd.words.first().and_then(|w| w.static_text()) {
                Some(n) => n,
                None => continue,
            };
            match name {
                "proc" if cmd.words.len() == 4 => match cmd.words[1].static_text() {
                    Some(pname) => {
                        let pname = pname.to_string();
                        match cmd.words[3].static_text() {
                            Some(body) => {
                                let entry = self
                                    .procs
                                    .entry(pname)
                                    .or_insert_with(|| ProcInfo::Bodies(Vec::new()));
                                if let ProcInfo::Bodies(bodies) = entry {
                                    bodies.push(body.to_string());
                                }
                                if let Ok(body_cmds) = parse_script(body) {
                                    self.collect_procs(&body_cmds, adepth + 1);
                                }
                            }
                            None => {
                                self.procs.insert(pname, ProcInfo::Opaque);
                            }
                        }
                    }
                    None => self.opaque_procs = true,
                },
                "if" | "while" | "foreach" | "catch" | "eval" => {
                    // Recurse into any statically visible body text.
                    for word in cmd.words.iter().skip(1) {
                        if let Some(text) = word.static_text() {
                            if let Ok(inner) = parse_script(text) {
                                self.collect_procs(&inner, adepth + 1);
                            }
                        }
                    }
                }
                _ => {}
            }
        }
    }

    /// Summary cost of calling `name` (body cost only; the call's own step
    /// and word costs are charged at the call site).
    fn proc_summary(&mut self, name: &str, adepth: u32) -> Cost {
        if let Some(cost) = self.summaries.get(name) {
            return *cost;
        }
        if self.in_progress.iter().any(|n| n == name) {
            // Recursion: poison every member of the cycle.
            return Cost::poison();
        }
        let info = match self.procs.get(name) {
            Some(info) => info.clone(),
            None => return Cost::poison(),
        };
        let cost = match info {
            ProcInfo::Opaque => Cost::poison(),
            ProcInfo::Bodies(bodies) => {
                self.in_progress.push(name.to_string());
                let mut joined: Option<Cost> = None;
                for body in &bodies {
                    let body_cost = match parse_script(body) {
                        Ok(cmds) => {
                            // Proc bodies start with a fresh scope: no
                            // caller constants are visible.
                            self.script_cost(&cmds, &mut Env::new(), adepth + 1)
                        }
                        Err(_) => Cost::poison(),
                    };
                    joined = Some(match joined {
                        Some(j) => j.join(body_cost),
                        None => body_cost,
                    });
                }
                let mut cost = joined.unwrap_or_else(Cost::poison);
                // `return`/flow control inside the body does not terminate
                // the *caller's* script.
                cost.terminates = false;
                self.in_progress.pop();
                cost
            }
        };
        self.summaries.insert(name.to_string(), cost);
        cost
    }

    /// Cost of a command sequence (one `eval_script` body) at the current
    /// nesting level.
    fn script_cost(&mut self, commands: &[Command], env: &mut Env, adepth: u32) -> Cost {
        if adepth > ANALYSIS_DEPTH_LIMIT {
            return Cost::poison();
        }
        let mut total = Cost::zero();
        for cmd in commands {
            let c = self.command_cost(cmd, env, adepth);
            if total.terminates {
                // A flow-terminator already ran on every successful path:
                // later commands contribute no lower bound (and their upper
                // bound still matters only if the terminator was inside a
                // branch — handled by `terminates` propagation in join).
                total = total.seq(c.guard());
            } else {
                total = total.seq(c);
            }
        }
        total
    }

    /// Cost of one command: 1 step + word evaluation + dispatch.
    fn command_cost(&mut self, cmd: &Command, env: &mut Env, adepth: u32) -> Cost {
        let mut cost = Cost::zero().add_steps(CostInterval::exact(1));

        // Word evaluation: every word is evaluated before dispatch.
        // `[..]` parts run the inner script one level deeper.
        for word in &cmd.words {
            cost = cost.seq(self.word_cost(word, env, adepth));
        }

        let name = match cmd.words.first().and_then(|w| w.static_text()) {
            Some(n) => n.to_string(),
            None => {
                // Computed command name: anything may run.
                env.clear();
                return cost.seq(Cost::poison());
            }
        };

        match name.as_str() {
            "set" => self.apply_set(cmd, env),
            "incr" => self.apply_incr(cmd, env),
            "append" | "lappend" => {
                invalidate_target(cmd.words.get(1), env);
            }
            "unset" => {
                invalidate_target(cmd.words.get(1), env);
            }
            "if" => return cost.seq(self.if_cost(cmd, env, adepth)),
            "while" => return cost.seq(self.while_cost(cmd, env, adepth)),
            "foreach" => return cost.seq(self.foreach_cost(cmd, env, adepth)),
            "catch" => return cost.seq(self.catch_cost(cmd, env, adepth)),
            "eval" => {
                env.clear();
                return cost.seq(Cost::poison());
            }
            "proc" => {
                // Definition only: 1 step + word costs, no body execution.
            }
            "error" => {
                cost.terminates = true;
            }
            "return" | "halt" | "break" | "continue" => {
                cost.terminates = true;
            }
            "bc_push" => {
                cost = cost.add_growth(payload_size(cmd.words.get(2)));
            }
            "cab_append" => {
                cost = cost.add_growth(payload_size(cmd.words.get(3)));
            }
            _ => {
                if crate::builtins::builtin(&name).is_none() {
                    if self.procs.contains_key(&name) {
                        let summary = self.proc_summary(&name, adepth).deepen();
                        cost = cost.seq(summary);
                    } else if self.opaque_procs {
                        // A computed proc name exists somewhere: this could
                        // be anything.
                        env.clear();
                        return cost.seq(Cost::poison());
                    }
                    // Else: unknown command ⇒ guaranteed runtime error.
                    // Already fully charged (1 step + words).
                }
            }
        }
        cost
    }

    fn word_cost(&mut self, word: &Word, env: &mut Env, adepth: u32) -> Cost {
        match &word.kind {
            WordKind::Braced(_) => Cost::zero(),
            WordKind::Parts(parts) => {
                let mut cost = Cost::zero();
                for part in parts {
                    if let WordPart::Command(inner) = part {
                        let inner_cost = match parse_script(inner) {
                            Ok(cmds) => {
                                // The inner script can write variables in
                                // the *current* scope.
                                let mut inner_env = env.clone();
                                let c = self.script_cost(&cmds, &mut inner_env, adepth + 1);
                                apply_script_writes(inner, env);
                                c
                            }
                            Err(_) => Cost::poison(),
                        };
                        let mut deep = inner_cost.deepen();
                        deep.terminates = false;
                        cost = cost.seq(deep);
                    }
                }
                cost
            }
        }
    }

    fn apply_set(&mut self, cmd: &Command, env: &mut Env) {
        let target = match cmd.words.get(1).and_then(|w| w.static_text()) {
            Some(t) => t.to_string(),
            None => {
                env.clear();
                return;
            }
        };
        let value = cmd.words.get(2).and_then(|w| eval_const_word(w, env));
        match value {
            Some(v) => {
                env.insert(target, v);
            }
            None => {
                env.remove(&target);
            }
        }
    }

    fn apply_incr(&mut self, cmd: &Command, env: &mut Env) {
        let target = match cmd.words.get(1).and_then(|w| w.static_text()) {
            Some(t) => t.to_string(),
            None => {
                env.clear();
                return;
            }
        };
        let amount = match cmd.words.get(2) {
            None => Some(1i64),
            Some(w) => eval_const_word(w, env),
        };
        // Unknown operands stay unknown, and so does an overflowing sum: the
        // interpreter raises an error there, so no constant survives it.
        let sum = env
            .get(&target)
            .zip(amount)
            .and_then(|(cur, by)| cur.checked_add(by));
        match sum {
            Some(sum) => env.insert(target, sum),
            None => env.remove(&target),
        };
    }

    fn if_cost(&mut self, cmd: &Command, env: &mut Env, adepth: u32) -> Cost {
        let chain = match if_chain(&cmd.words[1..]) {
            Some(chain) => chain,
            None => {
                env.clear();
                return Cost::poison();
            }
        };
        // Condition evaluation costs: embedded `[..]` scripts inside braced
        // conditions run per evaluation; only the first condition is
        // guaranteed to be evaluated.
        let mut cond_cost = Cost::zero();
        let mut first = true;
        let mut has_else = false;
        let mut branches: Vec<Cost> = Vec::new();
        for (cond, body) in &chain {
            match cond {
                Some(cond_word) => {
                    let c = self.condition_cost(cond_word, env, adepth);
                    cond_cost = if first {
                        cond_cost.seq(c)
                    } else {
                        cond_cost.seq(c.guard())
                    };
                    first = false;
                }
                None => has_else = true,
            }
            let body_cost = match body.static_text() {
                Some(text) => match parse_script(text) {
                    Ok(cmds) => {
                        let mut branch_env = env.clone();
                        let mut c = self
                            .script_cost(&cmds, &mut branch_env, adepth + 1)
                            .deepen();
                        // `return`/`break` inside a chosen branch does
                        // terminate the enclosing script.
                        if !c.terminates {
                            c.terminates = false;
                        }
                        c
                    }
                    Err(_) => Cost::poison(),
                },
                None => Cost::poison(),
            };
            branches.push(body_cost);
        }
        if !has_else {
            branches.push(Cost::zero());
        }
        let mut joined = branches[0];
        for b in &branches[1..] {
            joined = joined.join(*b);
        }
        // Invalidate everything any branch or condition may have written.
        let mut written = BTreeSet::new();
        let mut unknown_writes = false;
        for (cond, body) in &chain {
            if let Some(cond_word) = cond {
                collect_cond_writes(cond_word, &mut written, &mut unknown_writes);
            }
            match body.static_text() {
                Some(text) => collect_script_writes(text, &mut written, &mut unknown_writes),
                None => unknown_writes = true,
            }
        }
        if unknown_writes {
            env.clear();
        } else {
            for var in &written {
                env.remove(var);
            }
        }
        cond_cost.seq(joined)
    }

    /// Cost of evaluating an `if`/`while` condition word once.
    fn condition_cost(&mut self, cond: &Word, env: &mut Env, adepth: u32) -> Cost {
        match &cond.kind {
            WordKind::Braced(text) => {
                let mut cost = Cost::zero();
                for script in embedded_scripts(text) {
                    let inner = match parse_script(&script) {
                        Ok(cmds) => {
                            let mut inner_env = env.clone();
                            self.script_cost(&cmds, &mut inner_env, adepth + 1)
                        }
                        Err(_) => Cost::poison(),
                    };
                    let mut deep = inner.deepen();
                    deep.terminates = false;
                    cost = cost.seq(deep);
                }
                cost
            }
            // Parts conditions were already substituted during word
            // evaluation; re-evaluation of the resulting *string* by
            // `substitute` finds no `[` / `$` syntax that wasn't literal
            // text, but we cannot prove that, so treat embedded scripts in
            // literal parts conservatively: none statically visible ⇒ zero.
            WordKind::Parts(_) => Cost::zero(),
        }
    }

    fn while_cost(&mut self, cmd: &Command, env: &mut Env, adepth: u32) -> Cost {
        if cmd.words.len() != 3 {
            env.clear();
            return Cost::poison();
        }
        let cond_text = match cmd.words[1].static_text() {
            Some(t) => t.to_string(),
            None => {
                env.clear();
                return Cost::poison();
            }
        };
        let body_text = match cmd.words[2].static_text() {
            Some(t) => t.to_string(),
            None => {
                env.clear();
                return Cost::poison();
            }
        };
        let body_cmds = match parse_script(&body_text) {
            Ok(cmds) => cmds,
            Err(_) => {
                env.clear();
                return Cost::poison();
            }
        };

        // Analyze cond/body against an env scrubbed of everything the loop
        // may write (values change across iterations).
        let mut written = BTreeSet::new();
        let mut unknown_writes = false;
        collect_script_writes(&body_text, &mut written, &mut unknown_writes);
        for script in embedded_scripts(&cond_text) {
            collect_script_writes(&script, &mut written, &mut unknown_writes);
        }
        let mut loop_env: Env = if unknown_writes {
            Env::new()
        } else {
            let mut e = env.clone();
            for var in &written {
                e.remove(var);
            }
            e
        };

        let inference = counted_loop(&cond_text, &body_cmds, env);

        let cond_cost = {
            let mut c = Cost::zero();
            for script in embedded_scripts(&cond_text) {
                let inner = match parse_script(&script) {
                    Ok(cmds) => {
                        let mut inner_env = loop_env.clone();
                        self.script_cost(&cmds, &mut inner_env, adepth + 1)
                    }
                    Err(_) => Cost::poison(),
                };
                let mut deep = inner.deepen();
                deep.terminates = false;
                c = c.seq(deep);
            }
            c
        };
        let mut body_cost = self
            .script_cost(&body_cmds, &mut loop_env, adepth + 1)
            .deepen();
        body_cost.terminates = false;

        // Invalidate loop writes in the outer env.
        if unknown_writes {
            env.clear();
        } else {
            for var in &written {
                env.remove(var);
            }
            // The counter itself has a known final value only in simple
            // cases; stay conservative and leave it invalidated.
        }

        match inference {
            Some((n, m)) => {
                let iters = CostInterval { lo: m, hi: Some(n) };
                let cond_evals = CostInterval {
                    lo: m.saturating_add(1),
                    hi: Some(n.saturating_add(1)),
                };
                // steps = 1 (charged by caller) + cond·(iters+1)
                //       + (body + 1 extra per-iteration step)·iters
                let steps = cond_cost
                    .steps
                    .mul(cond_evals)
                    .add(body_cost.steps.add(CostInterval::exact(1)).mul(iters));
                let growth = cond_cost
                    .growth
                    .mul(cond_evals)
                    .add(body_cost.growth.mul(iters));
                // The condition is evaluated at least once; the body's
                // depth counts toward lo only if at least one iteration is
                // guaranteed.
                let body_depth = if m >= 1 {
                    body_cost.depth
                } else {
                    CostInterval {
                        lo: 0,
                        hi: body_cost.depth.hi,
                    }
                };
                let depth = cond_cost.depth.max_(body_depth);
                Cost {
                    steps,
                    depth,
                    growth,
                    divergent: cond_cost.divergent || body_cost.divergent,
                    terminates: false,
                }
            }
            None => {
                // Uninferable trip count: the condition still runs at least
                // once on any successful path.
                Cost {
                    steps: CostInterval {
                        lo: cond_cost.steps.lo,
                        hi: None,
                    },
                    depth: CostInterval {
                        lo: cond_cost.depth.lo,
                        hi: None,
                    },
                    growth: CostInterval { lo: 0, hi: None },
                    divergent: true,
                    terminates: false,
                }
            }
        }
    }

    fn foreach_cost(&mut self, cmd: &Command, env: &mut Env, adepth: u32) -> Cost {
        if cmd.words.len() != 4 {
            env.clear();
            return Cost::poison();
        }
        let var = cmd.words[1].static_text().map(|s| s.to_string());
        let body_text = match cmd.words[3].static_text() {
            Some(t) => t.to_string(),
            None => {
                env.clear();
                return Cost::poison();
            }
        };
        let body_cmds = match parse_script(&body_text) {
            Ok(cmds) => cmds,
            Err(_) => {
                env.clear();
                return Cost::poison();
            }
        };

        let mut written = BTreeSet::new();
        let mut unknown_writes = false;
        collect_script_writes(&body_text, &mut written, &mut unknown_writes);
        match &var {
            Some(v) => {
                written.insert(v.clone());
            }
            None => unknown_writes = true,
        }
        let mut loop_env: Env = if unknown_writes {
            Env::new()
        } else {
            let mut e = env.clone();
            for v in &written {
                e.remove(v);
            }
            e
        };

        let mut body_cost = self
            .script_cost(&body_cmds, &mut loop_env, adepth + 1)
            .deepen();
        body_cost.terminates = false;

        if unknown_writes {
            env.clear();
        } else {
            for v in &written {
                env.remove(v);
            }
        }

        // Literal list ⇒ exact element count; runtime list ⇒ input-bounded.
        let iters = match cmd.words[2].static_text() {
            Some(list_text) => {
                let count = parse_list(list_text).len() as u64;
                let lo = if body_may_exit_early(&body_cmds) {
                    0
                } else {
                    count
                };
                CostInterval {
                    lo,
                    hi: Some(count),
                }
            }
            None => CostInterval { lo: 0, hi: None },
        };
        let divergent = body_cost.divergent;
        let steps = body_cost.steps.mul(iters);
        let growth = body_cost.growth.mul(iters);
        let depth = if iters.lo >= 1 {
            body_cost.depth
        } else {
            CostInterval {
                lo: 0,
                hi: body_cost.depth.hi,
            }
        };
        Cost {
            steps,
            depth,
            growth,
            divergent,
            terminates: false,
        }
    }

    fn catch_cost(&mut self, cmd: &Command, env: &mut Env, adepth: u32) -> Cost {
        if cmd.words.len() < 2 || cmd.words.len() > 3 {
            env.clear();
            return Cost::poison();
        }
        let body_cost = match cmd.words[1].static_text() {
            Some(text) => match parse_script(text) {
                Ok(cmds) => {
                    let mut inner_env = env.clone();
                    self.script_cost(&cmds, &mut inner_env, adepth + 1)
                }
                Err(_) => Cost::poison(),
            },
            None => Cost::poison(),
        };
        // The body may abort at any point (catch absorbs the error), so
        // only upper bounds survive. Flow control caught by `catch` does
        // not terminate the enclosing script.
        let mut cost = body_cost.guard().deepen();
        cost.terminates = false;

        // Invalidate: the result var and anything the body wrote.
        let mut written = BTreeSet::new();
        let mut unknown_writes = false;
        match cmd.words[1].static_text() {
            Some(text) => collect_script_writes(text, &mut written, &mut unknown_writes),
            None => unknown_writes = true,
        }
        if let Some(result_word) = cmd.words.get(2) {
            match result_word.static_text() {
                Some(v) => {
                    written.insert(v.to_string());
                }
                None => unknown_writes = true,
            }
        }
        if unknown_writes {
            env.clear();
        } else {
            for v in &written {
                env.remove(v);
            }
        }
        cost
    }
}

/// Parse the `if` argument list into `(condition, body)` pairs, mirroring
/// the interpreter's `cmd_if` walk. `None` condition = `else` branch.
fn if_chain(words: &[Word]) -> Option<Vec<(Option<&Word>, &Word)>> {
    let mut chain = Vec::new();
    let mut i = 0;
    if words.is_empty() {
        return None;
    }
    // First: cond body
    if words.len() < 2 {
        return None;
    }
    chain.push((Some(&words[0]), &words[1]));
    i += 2;
    while i < words.len() {
        match words[i].static_text() {
            Some("elseif") => {
                if i + 2 >= words.len() {
                    return None;
                }
                chain.push((Some(&words[i + 1]), &words[i + 2]));
                i += 3;
            }
            Some("else") => {
                if i + 1 >= words.len() || i + 2 != words.len() {
                    return None;
                }
                chain.push((None, &words[i + 1]));
                i += 2;
            }
            _ => return None,
        }
    }
    Some(chain)
}

/// Extract `[...]` embedded scripts from raw condition text, using the same
/// bracket scan as the interpreter's `substitute` (not quote-aware).
fn embedded_scripts(text: &str) -> Vec<String> {
    let bytes = text.as_bytes();
    let mut scripts = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'[' {
            let mut depth = 1usize;
            let start = i + 1;
            let mut j = start;
            while j < bytes.len() && depth > 0 {
                match bytes[j] {
                    b'[' => depth += 1,
                    b']' => depth -= 1,
                    _ => {}
                }
                j += 1;
            }
            if depth == 0 {
                scripts.push(text[start..j - 1].to_string());
                i = j;
            } else {
                // Unterminated bracket: the interpreter errors at runtime.
                break;
            }
        } else {
            i += 1;
        }
    }
    scripts
}

/// Statically evaluate a word to an exact integer, if possible.
fn eval_const_word(word: &Word, env: &Env) -> Option<i64> {
    match &word.kind {
        WordKind::Braced(text) => text.trim().parse::<i64>().ok(),
        WordKind::Parts(parts) => {
            if parts.len() == 1 {
                match &parts[0] {
                    WordPart::Literal(text) => text.trim().parse::<i64>().ok(),
                    WordPart::Variable(name) => env.get(name).copied(),
                    WordPart::Command(inner) => eval_const_expr(inner, env),
                }
            } else {
                None
            }
        }
    }
}

/// Constant-fold `[expr ...]` bodies of the simple forms the interpreter
/// supports: `expr <a>`, `expr <a> <op> <b>` with `+ - *`.
fn eval_const_expr(inner: &str, env: &Env) -> Option<i64> {
    let cmds = parse_script(inner).ok()?;
    if cmds.len() != 1 {
        return None;
    }
    let cmd = &cmds[0];
    if cmd.words.first().and_then(|w| w.static_text()) != Some("expr") {
        return None;
    }
    let operand = |w: &Word| -> Option<i64> { eval_const_word(w, env) };
    match cmd.words.len() {
        2 => operand(&cmd.words[1]),
        4 => {
            let a = operand(&cmd.words[1])?;
            let op = cmd.words[2].static_text()?;
            let b = operand(&cmd.words[3])?;
            match op {
                "+" => Some(a.wrapping_add(b)),
                "-" => Some(a.wrapping_sub(b)),
                "*" => Some(a.wrapping_mul(b)),
                _ => None,
            }
        }
        _ => None,
    }
}

/// Upper/lower bound on the byte size a growth-op payload contributes.
fn payload_size(word: Option<&Word>) -> CostInterval {
    match word {
        Some(w) => match w.static_text() {
            Some(text) => CostInterval::exact(text.len() as u64),
            None => CostInterval::at_least(0),
        },
        None => CostInterval::zero(),
    }
}

/// Remove a (possibly computed) assignment target from the env.
fn invalidate_target(word: Option<&Word>, env: &mut Env) {
    match word.and_then(|w| w.static_text()) {
        Some(target) => {
            env.remove(target);
        }
        None => env.clear(),
    }
}

/// Collect variables a script text may write. Sets `unknown` when writes
/// cannot be enumerated (computed targets, `eval`, computed commands).
fn collect_script_writes(text: &str, written: &mut BTreeSet<String>, unknown: &mut bool) {
    let cmds = match parse_script(text) {
        Ok(cmds) => cmds,
        Err(_) => {
            *unknown = true;
            return;
        }
    };
    collect_command_writes(&cmds, written, unknown, 0);
}

fn collect_cond_writes(cond: &Word, written: &mut BTreeSet<String>, unknown: &mut bool) {
    match &cond.kind {
        WordKind::Braced(text) => {
            for script in embedded_scripts(text) {
                collect_script_writes(&script, written, unknown);
            }
        }
        WordKind::Parts(parts) => {
            for part in parts {
                if let WordPart::Command(inner) = part {
                    collect_script_writes(inner, written, unknown);
                }
            }
        }
    }
}

fn collect_command_writes(
    cmds: &[Command],
    written: &mut BTreeSet<String>,
    unknown: &mut bool,
    adepth: u32,
) {
    if adepth > ANALYSIS_DEPTH_LIMIT {
        *unknown = true;
        return;
    }
    for cmd in cmds {
        // `[..]` parts inside any word execute in the current scope.
        for word in &cmd.words {
            if let WordKind::Parts(parts) = &word.kind {
                for part in parts {
                    if let WordPart::Command(inner) = part {
                        collect_script_writes(inner, written, unknown);
                    }
                }
            }
        }
        let name = match cmd.words.first().and_then(|w| w.static_text()) {
            Some(n) => n,
            None => {
                *unknown = true;
                continue;
            }
        };
        match name {
            "set" | "incr" | "append" | "lappend" | "unset" => {
                match cmd.words.get(1).and_then(|w| w.static_text()) {
                    Some(target) => {
                        written.insert(target.to_string());
                    }
                    None => *unknown = true,
                }
            }
            "foreach" => {
                match cmd.words.get(1).and_then(|w| w.static_text()) {
                    Some(var) => {
                        written.insert(var.to_string());
                    }
                    None => *unknown = true,
                }
                if let Some(body) = cmd.words.get(3).and_then(|w| w.static_text()) {
                    collect_script_writes(body, written, unknown);
                } else {
                    *unknown = true;
                }
            }
            "while" => {
                if let Some(cond) = cmd.words.get(1) {
                    collect_cond_writes(cond, written, unknown);
                }
                if let Some(body) = cmd.words.get(2).and_then(|w| w.static_text()) {
                    collect_script_writes(body, written, unknown);
                } else {
                    *unknown = true;
                }
            }
            "if" => {
                if let Some(chain) = if_chain(&cmd.words[1..]) {
                    for (cond, body) in chain {
                        if let Some(cond_word) = cond {
                            collect_cond_writes(cond_word, written, unknown);
                        }
                        match body.static_text() {
                            Some(text) => collect_script_writes(text, written, unknown),
                            None => *unknown = true,
                        }
                    }
                } else {
                    *unknown = true;
                }
            }
            "catch" => {
                match cmd.words.get(1).and_then(|w| w.static_text()) {
                    Some(body) => collect_script_writes(body, written, unknown),
                    None => *unknown = true,
                }
                if let Some(result_word) = cmd.words.get(2) {
                    match result_word.static_text() {
                        Some(v) => {
                            written.insert(v.to_string());
                        }
                        None => *unknown = true,
                    }
                }
            }
            "eval" => *unknown = true,
            "proc" => {
                // Body runs only when called; calls are separate commands
                // that either resolve to builtins (no var writes in caller
                // scope — set_in_scope writes the callee's scope) or are
                // handled at their own call sites.
            }
            _ => {
                // Builtins other than the above don't write caller
                // variables; proc calls get a fresh scope (`set_in_scope`
                // writes innermost only), so they can't clobber ours.
            }
        }
    }
}

/// Script texts executed by a control command (`if`/`while`/`foreach`/
/// `catch`): bodies plus `[..]` scripts embedded in braced conditions.
/// Returns `None` when a body is computed (non-static) or the shape is
/// malformed. Condition *text* is deliberately not parsed as a script —
/// `$i < 2` is an expression, not a command.
fn control_subscripts(cmd: &Command) -> Option<Vec<String>> {
    let name = cmd.words.first().and_then(|w| w.static_text())?;
    let mut scripts = Vec::new();
    match name {
        "if" => {
            let chain = if_chain(&cmd.words[1..])?;
            for (cond, body) in chain {
                if let Some(cond_word) = cond {
                    if let WordKind::Braced(text) = &cond_word.kind {
                        scripts.extend(embedded_scripts(text));
                    }
                    // Parts conditions: their `[..]` parts are scanned by
                    // the callers' generic word-part loop.
                }
                scripts.push(body.static_text()?.to_string());
            }
        }
        "while" => {
            if cmd.words.len() != 3 {
                return None;
            }
            if let Some(text) = cmd.words[1].static_text() {
                scripts.extend(embedded_scripts(text));
            }
            scripts.push(cmd.words[2].static_text()?.to_string());
        }
        "foreach" => {
            if cmd.words.len() != 4 {
                return None;
            }
            scripts.push(cmd.words[3].static_text()?.to_string());
        }
        "catch" => {
            if cmd.words.len() < 2 || cmd.words.len() > 3 {
                return None;
            }
            scripts.push(cmd.words[1].static_text()?.to_string());
        }
        _ => {}
    }
    Some(scripts)
}

/// True if the body contains any `break`/`continue`/`return`/`halt`/`error`
/// that could cut iterations short (used to decide whether `foreach` over a
/// literal list is guaranteed to run all elements).
fn body_may_exit_early(cmds: &[Command]) -> bool {
    for cmd in cmds {
        for word in &cmd.words {
            if let WordKind::Parts(parts) = &word.kind {
                for part in parts {
                    if let WordPart::Command(inner) = part {
                        if let Ok(inner_cmds) = parse_script(inner) {
                            if body_may_exit_early(&inner_cmds) {
                                return true;
                            }
                        } else {
                            return true;
                        }
                    }
                }
            }
        }
        let name = match cmd.words.first().and_then(|w| w.static_text()) {
            Some(n) => n,
            None => return true,
        };
        match name {
            "break" | "continue" | "return" | "halt" | "error" | "eval" => return true,
            "if" | "while" | "foreach" | "catch" => match control_subscripts(cmd) {
                Some(scripts) => {
                    for script in scripts {
                        match parse_script(&script) {
                            Ok(inner) => {
                                if body_may_exit_early(&inner) {
                                    return true;
                                }
                            }
                            Err(_) => return true,
                        }
                    }
                }
                None => return true,
            },
            _ => {
                if crate::builtins::builtin(name).is_none() {
                    // Unknown command or proc call: could error or (if a
                    // proc) contain flow control that escapes as an error.
                    return true;
                }
            }
        }
    }
    false
}

/// Apply the variable-invalidation effect of an embedded `[..]` script to
/// the enclosing env (the inner script runs in the same scope).
fn apply_script_writes(inner: &str, env: &mut Env) {
    let mut written = BTreeSet::new();
    let mut unknown = false;
    collect_script_writes(inner, &mut written, &mut unknown);
    if unknown {
        env.clear();
    } else {
        for var in &written {
            env.remove(var);
        }
    }
}

/// Try to infer the trip count of a counted `while` loop.
///
/// Returns `(n, m)`: `n` = maximum iterations, `m` = minimum iterations on
/// a successful run. Requirements (all structural, zero false positives):
///
/// - the condition's first `&&`-conjunct is `$var op bound` with
///   `op ∈ {<, <=, >, >=}` and `bound` a literal int or env-exact variable;
/// - no top-level `||` in the condition;
/// - `var` starts env-exact;
/// - exactly one top-level body command steps `var` by a constant `k`
///   (`incr var`, `incr var k`, `set var [expr $var ± k]`), no other writes
///   to `var` anywhere in the body or condition scripts, no `eval` or
///   computed names near `var`, and no `continue` (which could skip the
///   step);
/// - `k`'s sign moves `var` toward the bound.
fn counted_loop(cond_text: &str, body_cmds: &[Command], env: &Env) -> Option<(u64, u64)> {
    let conjuncts = split_conjuncts(cond_text)?;
    let (var, op, bound_ref) = parse_guard(conjuncts.first()?)?;
    let bound = match bound_ref {
        BoundRef::Literal(b) => b,
        BoundRef::Var(name) => *env.get(&name)?,
    };
    let start = *env.get(&var)?;

    // Exactly one self-step of the counter at the top level.
    let mut step: Option<i64> = None;
    for cmd in body_cmds {
        if let Some(k) = self_step(cmd, &var) {
            if step.is_some() {
                return None; // two steps ⇒ give up
            }
            step = Some(k);
        }
    }
    let k = step?;
    if k == 0 {
        return None;
    }

    // No other writes to the counter, no eval/opacity, no `continue`.
    if body_touches_counter_unsafely(body_cmds, &var) {
        return None;
    }
    for script in embedded_scripts(cond_text) {
        let mut written = BTreeSet::new();
        let mut unknown = false;
        collect_script_writes(&script, &mut written, &mut unknown);
        if unknown || written.contains(&var) {
            return None;
        }
    }

    let a = start as i128;
    let b = bound as i128;
    let kk = k as i128;
    let n: i128 = match op {
        GuardOp::Lt => {
            if kk <= 0 {
                return None;
            }
            if a >= b {
                0
            } else {
                (b - a + kk - 1) / kk
            }
        }
        GuardOp::Le => {
            if kk <= 0 {
                return None;
            }
            if a > b {
                0
            } else {
                (b - a) / kk + 1
            }
        }
        GuardOp::Gt => {
            if kk >= 0 {
                return None;
            }
            let kk = -kk;
            if a <= b {
                0
            } else {
                (a - b + kk - 1) / kk
            }
        }
        GuardOp::Ge => {
            if kk >= 0 {
                return None;
            }
            let kk = -kk;
            if a < b {
                0
            } else {
                (a - b) / kk + 1
            }
        }
    };
    if n < 0 {
        return None;
    }
    let n: u64 = n.try_into().ok()?;

    // Lower bound: the full n iterations run iff the guard conjunct is the
    // whole condition and nothing exits the body early. (`error` makes the
    // run unsuccessful, so it does not reduce the successful-run minimum —
    // but `break`/`return`/`halt` do.)
    let m = if conjuncts.len() == 1 && !body_has_early_exit(body_cmds) {
        n
    } else {
        0
    };
    Some((n, m))
}

enum BoundRef {
    Literal(i64),
    Var(String),
}

#[derive(Clone, Copy)]
enum GuardOp {
    Lt,
    Le,
    Gt,
    Ge,
}

/// Split a condition on top-level (bracket-depth-0) `&&`. Returns `None`
/// when a top-level `||` is present (either side may keep the loop alive).
fn split_conjuncts(text: &str) -> Option<Vec<String>> {
    let bytes = text.as_bytes();
    let mut parts = Vec::new();
    let mut depth = 0usize;
    let mut start = 0usize;
    let mut i = 0usize;
    while i < bytes.len() {
        match bytes[i] {
            b'[' => depth += 1,
            b']' => depth = depth.saturating_sub(1),
            b'&' if depth == 0 && i + 1 < bytes.len() && bytes[i + 1] == b'&' => {
                parts.push(text[start..i].to_string());
                i += 2;
                start = i;
                continue;
            }
            b'|' if depth == 0 && i + 1 < bytes.len() && bytes[i + 1] == b'|' => {
                return None;
            }
            _ => {}
        }
        i += 1;
    }
    parts.push(text[start..].to_string());
    Some(parts)
}

/// Parse `$var op bound` where the whole conjunct is exactly that shape.
fn parse_guard(conjunct: &str) -> Option<(String, GuardOp, BoundRef)> {
    let tokens: Vec<&str> = conjunct.split_whitespace().collect();
    if tokens.len() != 3 {
        return None;
    }
    let var = tokens[0].strip_prefix('$')?;
    if var.is_empty() || !var.chars().all(|c| c.is_alphanumeric() || c == '_') {
        return None;
    }
    let op = match tokens[1] {
        "<" => GuardOp::Lt,
        "<=" => GuardOp::Le,
        ">" => GuardOp::Gt,
        ">=" => GuardOp::Ge,
        _ => return None,
    };
    let bound = if let Ok(n) = tokens[2].parse::<i64>() {
        BoundRef::Literal(n)
    } else if let Some(name) = tokens[2].strip_prefix('$') {
        if name.is_empty() || !name.chars().all(|c| c.is_alphanumeric() || c == '_') {
            return None;
        }
        BoundRef::Var(name.to_string())
    } else {
        return None;
    };
    Some((var.to_string(), op, bound))
}

/// Match a top-level command that steps `var` by a constant:
/// `incr var`, `incr var <k>`, `set var [expr $var ± k]`,
/// `set var [expr k + $var]`.
fn self_step(cmd: &Command, var: &str) -> Option<i64> {
    let name = cmd.words.first().and_then(|w| w.static_text())?;
    match name {
        "incr" => {
            if cmd.words.get(1).and_then(|w| w.static_text()) != Some(var) {
                return None;
            }
            match cmd.words.get(2) {
                None => Some(1),
                Some(w) => w.static_text().and_then(|t| t.trim().parse::<i64>().ok()),
            }
        }
        "set" => {
            if cmd.words.get(1).and_then(|w| w.static_text()) != Some(var) {
                return None;
            }
            // Value must be a single `[expr ...]` command part.
            let value = cmd.words.get(2)?;
            let inner = match &value.kind {
                WordKind::Parts(parts) if parts.len() == 1 => match &parts[0] {
                    WordPart::Command(inner) => inner,
                    _ => return None,
                },
                _ => return None,
            };
            let cmds = parse_script(inner).ok()?;
            if cmds.len() != 1 {
                return None;
            }
            let expr = &cmds[0];
            if expr.words.first().and_then(|w| w.static_text()) != Some("expr") {
                return None;
            }
            if expr.words.len() != 4 {
                return None;
            }
            let is_var = |w: &Word| -> bool {
                matches!(
                    &w.kind,
                    WordKind::Parts(parts)
                        if parts.len() == 1
                            && matches!(&parts[0], WordPart::Variable(v) if v == var)
                )
            };
            let lit = |w: &Word| -> Option<i64> {
                w.static_text().and_then(|t| t.trim().parse::<i64>().ok())
            };
            let op = expr.words[2].static_text()?;
            match op {
                "+" => {
                    if is_var(&expr.words[1]) {
                        lit(&expr.words[3])
                    } else if is_var(&expr.words[3]) {
                        lit(&expr.words[1])
                    } else {
                        None
                    }
                }
                "-" => {
                    if is_var(&expr.words[1]) {
                        lit(&expr.words[3]).map(|k| -k)
                    } else {
                        None
                    }
                }
                _ => None,
            }
        }
        _ => None,
    }
}

/// True if anything in the body (recursively) writes `var` outside the one
/// allowed self-step, uses `eval`, has computed names, or uses `continue`
/// (which could skip the self-step on an iteration).
fn body_touches_counter_unsafely(cmds: &[Command], var: &str) -> bool {
    touches_unsafely(cmds, var, true, 0)
}

fn touches_unsafely(cmds: &[Command], var: &str, top_level: bool, adepth: u32) -> bool {
    if adepth > ANALYSIS_DEPTH_LIMIT {
        return true;
    }
    for cmd in cmds {
        for word in &cmd.words {
            if let WordKind::Parts(parts) = &word.kind {
                for part in parts {
                    if let WordPart::Command(inner) = part {
                        match parse_script(inner) {
                            Ok(inner_cmds) => {
                                if touches_unsafely(&inner_cmds, var, false, adepth + 1) {
                                    return true;
                                }
                            }
                            Err(_) => return true,
                        }
                    }
                }
            }
        }
        let name = match cmd.words.first().and_then(|w| w.static_text()) {
            Some(n) => n,
            None => return true,
        };
        match name {
            "eval" => return true,
            "continue" => return true,
            "set" | "incr" | "append" | "lappend" | "unset" => {
                match cmd.words.get(1).and_then(|w| w.static_text()) {
                    Some(target) => {
                        if target == var {
                            // The single allowed self-step is top-level and
                            // matched by `self_step`; any *other* write —
                            // including nested ones — disqualifies. At top
                            // level we only allow the exact self-step form.
                            if !(top_level && self_step(cmd, var).is_some()) {
                                return true;
                            }
                        }
                    }
                    None => return true,
                }
            }
            "if" | "while" | "foreach" | "catch" => {
                if name == "foreach" {
                    match cmd.words.get(1).and_then(|w| w.static_text()) {
                        Some(v) => {
                            if v == var {
                                return true;
                            }
                        }
                        None => return true,
                    }
                }
                if name == "catch" {
                    if let Some(result) = cmd.words.get(2) {
                        match result.static_text() {
                            Some(v) => {
                                if v == var {
                                    return true;
                                }
                            }
                            None => return true,
                        }
                    }
                }
                match control_subscripts(cmd) {
                    Some(scripts) => {
                        for script in scripts {
                            match parse_script(&script) {
                                Ok(inner) => {
                                    if touches_unsafely(&inner, var, false, adepth + 1) {
                                        return true;
                                    }
                                }
                                Err(_) => return true,
                            }
                        }
                    }
                    None => return true,
                }
            }
            _ => {
                // Builtins don't write our counter (guard targets handled
                // above); proc calls get a fresh scope and cannot write the
                // caller's counter (`set_in_scope` writes innermost only).
            }
        }
    }
    false
}

/// True if the body contains `break`/`return`/`halt` anywhere (could cut
/// the successful-run iteration count short). `error` is excluded: an
/// erroring run is not a successful run.
fn body_has_early_exit(cmds: &[Command]) -> bool {
    has_early_exit(cmds, 0)
}

fn has_early_exit(cmds: &[Command], adepth: u32) -> bool {
    if adepth > ANALYSIS_DEPTH_LIMIT {
        return true;
    }
    for cmd in cmds {
        for word in &cmd.words {
            if let WordKind::Parts(parts) = &word.kind {
                for part in parts {
                    if let WordPart::Command(inner) = part {
                        match parse_script(inner) {
                            Ok(inner_cmds) => {
                                if has_early_exit(&inner_cmds, adepth + 1) {
                                    return true;
                                }
                            }
                            Err(_) => return true,
                        }
                    }
                }
            }
        }
        let name = match cmd.words.first().and_then(|w| w.static_text()) {
            Some(n) => n,
            None => return true,
        };
        match name {
            "break" | "return" | "halt" | "eval" => return true,
            "if" | "while" | "foreach" | "catch" => match control_subscripts(cmd) {
                Some(scripts) => {
                    for script in scripts {
                        match parse_script(&script) {
                            Ok(inner) => {
                                if has_early_exit(&inner, adepth + 1) {
                                    return true;
                                }
                            }
                            Err(_) => return true,
                        }
                    }
                }
                None => return true,
            },
            _ => {
                if crate::builtins::builtin(name).is_none() {
                    // Proc call: flow control escaping a proc is a runtime
                    // error (not early exit), but an unknown command errors
                    // the run — which doesn't count against the successful
                    // minimum either. Still, a proc body could `halt`.
                    return true;
                }
            }
        }
    }
    false
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
