//! The condition differential: `expr.rs`'s one reading of a condition
//! against the reading the interpreter used before it
//! (`common/expr_reference.rs`: substitute, splice the values into the
//! text, tokenize again).
//!
//! Each generated condition `C` runs as `expr {C}` on a fresh interpreter,
//! and through the reference on another with the same variables; the two
//! must agree on the result, or on the kind of error, and on the steps
//! taken.  Conditions are drawn from literals, operators and parentheses,
//! `"…"` and `'…'` strings, `$` reads of values holding spaces, quotes,
//! backslashes and numbers, and `[set v]`, `[string length $v]` and
//! `[incr n]`, with stray tokens now and then.  The readings differ on
//! purpose where a value is substituted inside a quoted string: it is
//! string content now, and was text to tokenize again.  Every disagreement
//! on the result is counted under the quoting that explains it, and none
//! may be left unexplained; the steps must always agree.
//!
//! The default test runs a CI-sized batch; the ignored soak runs 200 000
//! conditions (`cargo test --release -p tacoma_script -- --ignored`).

use proptest::TestRng;
use std::collections::BTreeMap;
use tacoma_script::{Interp, NullHost, ScriptError};

#[path = "common/expr_reference.rs"]
mod expr_reference;

/// The variables every condition runs with, and their values.
const VARS: &[(&str, &str)] = &[
    ("n", "3"),
    ("f", "2.5"),
    ("m", "-4"),
    ("s", "a b"),
    ("e", ""),
    ("p", "it's"),
    ("q", "a\"b"),
    ("k", "c\\"),
    ("w", "x\\\"y"),
];

/// Why a condition's readings may differ, in the order a disagreement is
/// attributed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Quoting {
    /// A value holding `"` or `\` substituted inside `"…"`.
    SpecialInDouble,
    /// A value substituted inside `'…'`.
    InSingle,
    /// A leaf after a `\"` inside `"…"` or a `"` inside `'…'`: the old
    /// reading counted every `"` in the text to tell whether a leaf stood
    /// inside quotes.
    Miscounted,
}

/// A condition and the quotings it holds.
#[derive(Default)]
struct Cond {
    text: String,
    quotings: Vec<Quoting>,
}

struct Gen<'r> {
    rng: &'r mut TestRng,
    cond: Cond,
}

impl Gen<'_> {
    fn below(&mut self, n: u64) -> u64 {
        self.rng.below(n)
    }

    fn pick<'a>(&mut self, from: &[&'a str]) -> &'a str {
        from[self.below(from.len() as u64) as usize]
    }

    fn push(&mut self, s: &str) {
        self.cond.text.push_str(s);
    }

    fn space(&mut self) {
        if self.below(3) > 0 {
            self.push(" ");
        }
    }

    /// A `$` read or `[..]` script, with the value it substitutes when the
    /// generator knows it.
    fn leaf(&mut self) -> Option<&'static str> {
        let (name, value) = VARS[self.below(VARS.len() as u64) as usize];
        let (text, value) = match self.below(7) {
            0 | 1 => (format!("${name}"), Some(value)),
            2 => (format!("${{{name}}}"), Some(value)),
            3 => (format!("[set {name}]"), Some(value)),
            4 => (format!("[string length ${name}]"), None),
            5 => ("[incr n]".to_string(), None),
            _ => ("$undefined".to_string(), None),
        };
        self.push(&text);
        value
    }

    /// A quoted string of text and leaves.
    fn string(&mut self, quote: char) {
        self.push(&quote.to_string());
        let mut miscounted = false;
        for _ in 0..self.below(4) {
            if self.below(2) == 0 {
                let value = self.leaf();
                let special = value.is_some_and(|v| v.contains(['"', '\\']));
                match quote {
                    '"' if special => self.cond.quotings.push(Quoting::SpecialInDouble),
                    '"' => {}
                    _ => self.cond.quotings.push(Quoting::InSingle),
                }
                if miscounted {
                    self.cond.quotings.push(Quoting::Miscounted);
                }
                continue;
            }
            let text = self.pick(&["a", " ", "1", "\\\"", "\\\\", "\\n", "'", "\"", "||"]);
            match text {
                "\"" if quote == '"' => continue,
                "'" if quote == '\'' => continue,
                "\\\"" | "\"" => miscounted = true,
                _ => {}
            }
            self.push(text);
        }
        self.push(&quote.to_string());
        // A miscounted quote also moves every leaf after the string.
        if miscounted {
            self.cond.quotings.push(Quoting::Miscounted);
        }
    }

    fn operand(&mut self, depth: u32) {
        match self.below(if depth < 3 { 9 } else { 6 }) {
            0 => {
                let n = self.pick(&["0", "1", "2", "10", "2.5", ".5", "007"]);
                self.push(n);
            }
            1 => {
                let word = self.pick(&["abc", "true", "x_1"]);
                self.push(word);
            }
            2 | 3 => {
                self.leaf();
            }
            4 => self.string('"'),
            5 => self.string('\''),
            6 => {
                self.push("(");
                self.expr(depth + 1);
                self.push(")");
            }
            _ => {
                let op = self.pick(&["-", "!"]);
                self.push(op);
                self.operand(depth + 1);
            }
        }
    }

    fn expr(&mut self, depth: u32) {
        self.operand(depth);
        for _ in 0..self.below(3) {
            self.space();
            let op = self.pick(&[
                "+", "-", "*", "/", "%", "<", ">", "<=", ">=", "==", "!=", "eq", "ne", "&&", "||",
            ]);
            self.push(op);
            self.space();
            self.operand(depth);
        }
    }
}

/// Condition `seed`: an expression, now and then with a stray token.
fn condition(seed: u64) -> Cond {
    let mut rng = TestRng::deterministic(seed);
    let mut gen = Gen {
        rng: &mut rng,
        cond: Cond::default(),
    };
    gen.expr(0);
    if gen.below(8) == 0 {
        let stray = gen.pick(&[")", "(", "+", "@", "\"", "$", "1"]);
        let at = gen.below(gen.cond.text.len() as u64 + 1) as usize;
        if gen.cond.text.is_char_boundary(at) {
            gen.cond.text.insert_str(at, stray);
        }
    }
    gen.cond
}

/// A result, or the kind of error.
#[derive(Debug, PartialEq, Eq)]
enum Outcome {
    Value(String),
    Undefined,
    Expr,
    Other(String),
}

fn outcome(result: Result<String, ScriptError>) -> (Outcome, Option<String>) {
    match result {
        Ok(value) => (Outcome::Value(value), None),
        Err(ScriptError::Runtime(m)) if m.contains("undefined variable") => {
            (Outcome::Undefined, Some(m))
        }
        Err(ScriptError::Runtime(m)) if m.contains("expr error") => (Outcome::Expr, Some(m)),
        Err(e) => (Outcome::Other(e.to_string()), Some(e.to_string())),
    }
}

fn interp(host: &mut NullHost) -> Interp<'_> {
    let mut interp = Interp::new(host);
    for (name, value) in VARS {
        interp.set_var(*name, *value);
    }
    interp
}

fn differential(conditions: u64) {
    // Per quoting: the disagreements it explains; then the unexplained ones.
    let mut explained: BTreeMap<Quoting, u64> = BTreeMap::new();
    let mut unexplained = Vec::new();
    let (mut messages, mut values) = (0, 0);
    for seed in 0..conditions {
        let cond = condition(seed);
        let (mut h1, mut h2) = (NullHost, NullHost);
        let (mut new, mut old) = (interp(&mut h1), interp(&mut h2));
        let run = new.run(&format!("expr {{{}}}", cond.text));
        let steps = new.steps();
        let (got, got_message) = outcome(run.map(|o| o.result));
        let (want, want_message) = outcome(expr_reference::reference(&mut old, &cond.text));
        let want_steps = old.steps() + 1;
        if (&got, steps) == (&want, want_steps) {
            values += u64::from(matches!(got, Outcome::Value(_)));
            messages += u64::from(got_message != want_message);
            continue;
        }
        // Both readings resolve the same leaves in the same order before
        // evaluating, so quoting may explain a result, never a step count.
        match cond.quotings.iter().min().filter(|_| steps == want_steps) {
            Some(&quoting) => *explained.entry(quoting).or_default() += 1,
            None => unexplained.push(format!(
                "{seed}: expr {{{}}}: {got:?} in {steps} steps, was {want:?} in {want_steps}",
                cond.text
            )),
        }
    }
    println!(
        "{conditions} conditions: {values} agree on a value, {messages} on an error kind \
         but not its message; disagreements by quoting {explained:?}, {} unexplained",
        unexplained.len()
    );
    assert!(
        unexplained.is_empty(),
        "{:#?}",
        &unexplained[..unexplained.len().min(20)]
    );
}

#[test]
fn conditions_read_as_before_outside_quoted_values() {
    differential(2_000);
}

#[test]
#[ignore = "soak: 200 000 conditions, run in release"]
fn a_soak_of_conditions_reads_as_before_outside_quoted_values() {
    differential(200_000);
}
