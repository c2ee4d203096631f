//! The cost differential: taco-cost's bounds against the interpreter over
//! scripts no grammar keeps well-behaved.
//!
//! `cost_props.rs` drives a grammar whose every script is bounded and
//! runtime-clean.  This test drops both promises.  It generates statement
//! soup over a few shared variable and proc names — `unset`, counted and
//! uncounted loops, procs that call each other, `[..]`, `catch`, `eval`,
//! and `return`, `halt`, `break` and `continue` anywhere, nested — and
//! mutates the shipped `examples/scripts/*.taco`.  Each script runs once
//! under a fixed step budget.  A run that completes must land inside the
//! proven interval, and a finite upper bound within the budget must never
//! let the budget run out.  A run that fails says nothing about `lo`, which
//! bounds successful runs only.
//!
//! The default test runs a CI-sized batch; the ignored soak runs 200 000
//! scripts (`cargo test --release -p tacoma_script -- --ignored`).

use proptest::TestRng;
use tacoma_script::{cost_bound, Interp, InterpConfig, NullHost, ScriptError};

#[path = "common/grammar.rs"]
mod grammar;

/// The step budget every script runs under.
const BUDGET: u64 = 2_000;

const EXAMPLES: &[&str] = &[
    include_str!("../../../examples/scripts/courier_summary.taco"),
    include_str!("../../../examples/scripts/guestbook_reader.taco"),
    include_str!("../../../examples/scripts/hop_counter.taco"),
    include_str!("../../../examples/scripts/quickstart_tour.taco"),
    include_str!("../../../examples/scripts/retry_meet.taco"),
];

const VARS: &[&str] = &["a", "b", "i", "n"];
const PROCS: &[&str] = &["f", "g"];

fn pick<'a>(rng: &mut TestRng, from: &[&'a str]) -> &'a str {
    from[rng.below(from.len() as u64) as usize]
}

/// One to three soup commands, nested `depth` levels deep.
fn soup_body(rng: &mut TestRng, depth: u32) -> String {
    let count = 1 + rng.below(3);
    let cmds: Vec<String> = (0..count).map(|_| soup_cmd(rng, depth)).collect();
    cmds.join("\n")
}

fn soup_cmd(rng: &mut TestRng, depth: u32) -> String {
    let (v, w, f) = (pick(rng, VARS), pick(rng, VARS), pick(rng, PROCS));
    let k = rng.below(4);
    let choices = if depth < 3 { 22 } else { 12 };
    let nested = |rng: &mut TestRng| soup_body(rng, depth + 1);
    match rng.below(choices) {
        0 => format!("set {v} {k}"),
        1 => format!("incr {v}"),
        2 => format!("unset {v}"),
        3 => format!("unset {v} {w}"),
        4 => format!("set {v} [expr ${w} + {k}]"),
        5 => pick(rng, &["return", "return $a", "halt", "halt done"]).to_string(),
        6 => "break".to_string(),
        7 => "continue".to_string(),
        8 => format!("bc_push OUT {k}"),
        9 => f.to_string(),
        10 => format!("set {v} [{f}]"),
        11 => format!("error {v}"),
        12 => {
            let (then, other) = (nested(rng), nested(rng));
            format!("if {{${v} < {k}}} {{\n{then}\n}} else {{\n{other}\n}}")
        }
        13 => format!("if {{{}}} {{\n{}\n}}", rng.below(2), nested(rng)),
        14 => format!(
            "set {v} 0\nwhile {{${v} < {k}}} {{\n{}\nincr {v}\n}}",
            nested(rng)
        ),
        15 => format!("while {{${v} < {k}}} {{\n{}\n}}", nested(rng)),
        16 => format!("foreach {v} {{1 2 3}} {{\n{}\n}}", nested(rng)),
        17 => format!("catch {{\n{}\n}} {w}", nested(rng)),
        18 => format!("proc {f} {{}} {{\n{}\n}}", nested(rng)),
        19 => format!("set {v} [{}]", soup_cmd(rng, depth + 1).replace('\n', ";")),
        20 => format!("eval {{\n{}\n}}", nested(rng)),
        _ => format!(
            "if {{0}} {{set {v} 1}} elseif {{1}} {{\n{}\n}}",
            nested(rng)
        ),
    }
}

/// A shipped script with one to three lines deleted, duplicated, swapped
/// or replaced by soup.
fn mutated(rng: &mut TestRng) -> String {
    let example = EXAMPLES[rng.below(EXAMPLES.len() as u64) as usize];
    let mut lines: Vec<String> = example.lines().map(str::to_string).collect();
    for _ in 0..1 + rng.below(3) {
        let at = rng.below(lines.len() as u64) as usize;
        match rng.below(4) {
            0 => {
                lines.remove(at);
            }
            1 => lines.insert(at, lines[at].clone()),
            2 => {
                let other = rng.below(lines.len() as u64) as usize;
                lines.swap(at, other);
            }
            _ => lines.insert(at, soup_cmd(rng, 1)),
        }
        if lines.is_empty() {
            break;
        }
    }
    lines.join("\n")
}

/// Script `seed`: soup, a mutated example or a grammar script.
fn script(seed: u64) -> String {
    let mut rng = TestRng::deterministic(seed);
    match rng.below(10) {
        0..=5 => soup_body(&mut rng, 0),
        6..=8 => mutated(&mut rng),
        _ => grammar::build_script(rng.next_u64()),
    }
}

/// Why the proven bound of `src` does not hold for its run, if it does not.
fn unsound(src: &str) -> Option<String> {
    let bound = cost_bound(src).ok()?.steps;
    let mut host = NullHost;
    let config = InterpConfig {
        max_steps: BUDGET,
        max_depth: 64,
    };
    match Interp::with_config(&mut host, config).run(src) {
        Ok(run) if run.steps < bound.lo || bound.hi.is_some_and(|hi| run.steps > hi) => {
            Some(format!("ran {} steps, proved {bound:?}", run.steps))
        }
        Err(ScriptError::BudgetExceeded) if bound.hi.is_some_and(|hi| hi <= BUDGET) => {
            Some(format!("ran out of {BUDGET} steps, proved {bound:?}"))
        }
        _ => None,
    }
}

fn differential(scripts: u64) {
    for seed in 0..scripts {
        let src = script(seed);
        if let Some(why) = unsound(&src) {
            panic!("script {seed}: {why}:\n{src}");
        }
    }
}

#[test]
fn cost_bounds_hold_on_soup_and_mutated_examples() {
    differential(2_000);
}

#[test]
#[ignore = "soak: 200 000 scripts, run in release"]
fn cost_bounds_hold_on_a_soak_of_soup_and_mutated_examples() {
    differential(200_000);
}
