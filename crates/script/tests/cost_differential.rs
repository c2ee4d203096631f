//! The cost differential: taco-cost's bounds against the interpreter over
//! scripts no grammar keeps well-behaved.
//!
//! `cost_props.rs` drives a grammar whose every script is bounded and
//! runtime-clean.  This test drops both promises.  It generates statement
//! soup over a few shared variable and proc names — `unset`, counted and
//! uncounted loops, procs that call each other, `[..]`, `catch`, `eval`,
//! and `return`, `halt`, `break` and `continue` anywhere, nested — and
//! mutates the shipped `examples/scripts/*.taco` (`common/soup.rs`, shared
//! with `audit_differential.rs`).  Each script runs once
//! under a fixed step budget.  A run that completes must land inside the
//! proven interval, and a finite upper bound within the budget must never
//! let the budget run out.  A run that fails says nothing about `lo`, which
//! bounds successful runs only.
//!
//! The default test runs a CI-sized batch; the ignored soak runs 200 000
//! scripts (`cargo test --release -p tacoma_script -- --ignored`).

use proptest::TestRng;
use soup::Soup;
use tacoma_script::{cost_bound, Interp, InterpConfig, NullHost, ScriptError};

#[path = "common/grammar.rs"]
mod grammar;
#[path = "common/soup.rs"]
mod soup;

/// The step budget every script runs under.
const BUDGET: u64 = 2_000;

/// The soup, with no commands of this test's own.
const SOUP: Soup = Soup { extra: &[] };

/// Script `seed`: soup, a mutated example or a grammar script.
fn script(seed: u64) -> String {
    let mut rng = TestRng::deterministic(seed);
    match rng.below(10) {
        0..=5 => SOUP.body(&mut rng, 0),
        6..=8 => SOUP.mutated(&mut rng),
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
