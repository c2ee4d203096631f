//! Property tests for the static cost analysis (`taco-cost`).
//!
//! The analysis drives an install gate: a script the gate admits with a
//! proven finite bound must *never* blow a step budget set to that bound.
//! The headline property is therefore soundness against the interpreter —
//! generate random well-formed scripts from a grammar of bounded constructs
//! (literal counted loops, `foreach` over literal lists, nested `if`s,
//! procs, briefcase growth ops), run each one under `max_steps` equal to the
//! static upper bound, and require that [`ScriptError::BudgetExceeded`]
//! never fires.  The lower bound is checked on the same run: an interpreter
//! that completes must have spent at least `steps.lo`.
//!
//! A second property keeps the analyzer total on adversarial inputs: like
//! `analyze`, `cost_bound` runs inside the kernel, so it may reject byte
//! soup but must never panic or hang on it.

use proptest::prelude::*;
use tacoma_script::{cost_bound, CostBound, CostGate, Interp, InterpConfig, NullHost, ScriptError};

#[path = "common/grammar.rs"]
mod grammar;
use grammar::build_script;

fn run_with_budget(src: &str, max_steps: u64) -> Result<u64, ScriptError> {
    let mut host = NullHost;
    let mut interp = Interp::with_config(
        &mut host,
        InterpConfig {
            max_steps,
            max_depth: 64,
        },
    );
    interp.run(src).map(|outcome| outcome.steps)
}

/// Upper-bound soundness for one script: when the analysis claims a finite
/// step bound, running the script with exactly that budget never exhausts
/// it, and the actual step count lands inside the proven interval.
fn assert_upper_bound_is_a_sound_budget(src: &str, bound: &CostBound) {
    let Some(hi) = bound.steps.hi else { return };
    match run_with_budget(src, hi) {
        Ok(steps) => {
            assert!(steps <= hi, "ran {steps} steps over bound {hi}:\n{src}");
            assert!(
                steps >= bound.steps.lo,
                "ran {steps} steps under proven minimum {}:\n{src}",
                bound.steps.lo
            );
        }
        Err(ScriptError::BudgetExceeded) => {
            panic!("static bound {hi} was not sound for:\n{src}");
        }
        Err(e) => panic!("script failed at runtime ({e}):\n{src}"),
    }
}

/// One step less than the proven *lower* bound must always trip the budget:
/// the gate's certain-death rejection (lo > budget) relies on the lower
/// bound being a true minimum.
fn assert_lower_bound_is_a_true_minimum(src: &str, bound: &CostBound) {
    if bound.steps.lo > 0 {
        assert!(
            matches!(
                run_with_budget(src, bound.steps.lo - 1),
                Err(ScriptError::BudgetExceeded)
            ),
            "budget below the proven minimum {} did not trip for:\n{src}",
            bound.steps.lo
        );
    }
}

/// Scripts the analysis once "proved" things about by doing exact `i64`
/// arithmetic where the interpreter's `expr` computes in `f64`: a fold that
/// overflows `i64` (certain death claimed for a script that finishes in 4
/// steps), a fold past 2^53 (8 steps proven, 10 taken), a counted loop whose
/// guard compares past 2^53, and a `[` left open in a condition, which the
/// interpreter still evaluates.  A one-argument `expr` runs its `[..]`
/// scripts too, at the top, in a loop body or in a branch, and so does the
/// computed value of one, or of an `if` or `elseif` condition.  `unset`
/// forgets every variable it names, at the top and in a loop body, and
/// `incr` re-creates one from 0: when only the first name was forgotten,
/// the first of those scripts "proved" 120 026 steps for a 26-step run,
/// certain death to the lenient gate, and the second 80 027 for 80 013.
/// A proc's `unset` removes the caller's variable when the proc has none
/// of that name: when a call forgot nothing, the third "proved" 120 028
/// steps for a 28-step run, and the fourth a three-trip loop that never
/// ends.
#[test]
fn pinned_scripts_stay_inside_their_bounds() {
    let unset = "set n 60000; unset i n; incr n 10; set i 0; while {$i < $n} {incr i}; return $i";
    assert_eq!(run_with_budget(unset, 100), Ok(26));
    let bound = cost_bound(unset).expect("parses");
    assert_eq!(CostGate::lenient(50_000, 64).check(&bound), Ok(()));
    let proc_unset = "set n 60000; proc f {} {unset n}; f; incr n 10; \
                      set i 0; while {$i < $n} {incr i}; return $i";
    assert_eq!(run_with_budget(proc_unset, 100), Ok(28));
    let bound = cost_bound(proc_unset).expect("parses");
    assert_eq!(CostGate::lenient(50_000, 64).check(&bound), Ok(()));
    assert_eq!((bound.steps.lo, bound.steps.hi), (8, None));
    for src in [
        "set i [expr 9223372036854775807 + 1]; while {$i < 0} {incr i}; set done 1",
        "set i [expr 9007199254740992 + 1]; while {$i < 9007199254740995} {incr i}; set done 1",
        "set i 9007199254740992; while {$i < 9007199254740993} {incr i}; set done 1",
        "set i 0; while {$i < 3 && [expr 1} {incr i}",
        "set i 0; expr {[incr i] + [expr {[incr i] * 2}]}",
        "set n 0; set i 0; while {$i < 3} {expr {[incr n]}; incr i}",
        "if {1} {expr {[set a 1] + [string length abc]}} else {expr {[set a 2]}}",
        "set c {[incr i] + [incr i]}; expr $c",
        "set c {[set i 5]}; set i 0; while {$i < 3} {expr $c; incr i}",
        "set c {[incr i]}; set i 0; if $c {set z 1}",
        "set c {[set i 5]}; set i 0; if $c {set z 1} elseif $c {set y 2}",
        unset,
        "set n 7; set i 0; while {$i < 2} {unset j n; incr i}; incr n 40000; \
         set k 0; while {$k < $n} {incr k}; return $k",
        proc_unset,
        "proc g {} {unset i}; proc f {} {g}; set i 0; while {$i < 3} {f; incr i}",
        "set n 5; proc f {} {unset n}; set i 0; while {$i < 2} {set x [f]; incr i}; \
         incr n 30000; set k 0; while {$k < $n} {incr k}; return $k",
        "if {1} {return}; set a 1; set b 2",
        "if {1} {halt}; set a 1; set b 2",
        "if {1} {break}; set a 1; set b 2",
        "foreach v {1 2} {return}; set a 1; set b 2",
        "if {0} {set x 1} elseif {1} {continue}; set a 1; set b 2",
        "catch {halt}; set a 1; set b 2",
        "eval {return}; set a 1; set b 2",
        "proc f {} {halt}; f; set a 1; set b 2",
    ] {
        let bound = cost_bound(src).expect("parses");
        assert_upper_bound_is_a_sound_budget(src, &bound);
        assert_lower_bound_is_a_true_minimum(src, &bound);
    }
}

proptest! {
    /// Soundness of the upper bound on generated scripts, all of which the
    /// analysis must bound finitely.
    #[test]
    fn finite_static_bound_is_a_sound_budget(seed in any::<u64>()) {
        let src = build_script(seed);
        let bound = cost_bound(&src).expect("generated scripts parse");
        prop_assert!(!bound.divergent, "builder emits only bounded constructs:\n{src}");
        prop_assert!(
            bound.steps.hi.is_some(),
            "builder emits only statically countable loops, got {}:\n{src}",
            bound.summary()
        );
        assert_upper_bound_is_a_sound_budget(&src, &bound);
    }

    /// Soundness of the lower bound on the same scripts.
    #[test]
    fn lower_bound_is_a_true_minimum(seed in any::<u64>()) {
        let src = build_script(seed);
        let bound = cost_bound(&src).expect("generated scripts parse");
        assert_lower_bound_is_a_true_minimum(&src, &bound);
    }

    /// Totality: the analyzer never panics on printable byte soup (it may
    /// return a parse error or an Unbounded verdict, both fine).
    #[test]
    fn cost_bound_is_total_on_ascii_soup(src in "[ -~\n\t]{0,200}") {
        let _ = cost_bound(&src);
    }

    /// Dense Tcl metacharacter soup exercises the nested-script walkers and
    /// the analysis depth cap.
    #[test]
    fn cost_bound_is_total_on_tcl_soup(src in "[{}$\\[\\]\"; \nsetwhileafobcx0-9]{0,160}") {
        let _ = cost_bound(&src);
    }
}
