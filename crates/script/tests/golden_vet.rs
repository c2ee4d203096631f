//! Golden-diagnostics tests: seeded-defect scripts must produce exactly the
//! expected report, and known-good scripts must produce none.
//!
//! Each case pins the full rendered output — spans, severities, codes and
//! message text — so any drift in the analyzer shows up as a diff here.

use tacoma_script::{analyze_with, render_report, AnalysisConfig};

fn config() -> AnalysisConfig {
    AnalysisConfig::new().known_agents(["ag_tac", "rexec", "courier", "diffusion", "broker"])
}

fn report(src: &str) -> String {
    render_report(&analyze_with(src, &config()), "t.taco")
}

#[track_caller]
fn expect(src: &str, want: &[&str]) {
    let got = report(src);
    let want = want
        .iter()
        .map(|l| format!("{l}\n"))
        .collect::<Vec<_>>()
        .join("");
    assert_eq!(got, want, "for script:\n{src}");
}

#[test]
fn unknown_commands() {
    expect(
        "set x 1\nfrobnicate $x\nmeeet rexec",
        &[
            "t.taco:2:1: error[unknown-command]: unknown command 'frobnicate'",
            "t.taco:3:1: error[unknown-command]: unknown command 'meeet'; did you mean 'meet'?",
        ],
    );
}

#[test]
fn wrong_arity() {
    expect(
        "set\nincr x 1 2\nlrange {a b} 0\nproc two {a b} { return $a }\ntwo 1 2 3",
        &[
            "t.taco:1:1: error[wrong-arity]: wrong number of arguments to 'set': expected 1 to 2, got 0",
            "t.taco:2:1: error[wrong-arity]: wrong number of arguments to 'incr': expected 1 to 2, got 3",
            "t.taco:3:1: error[wrong-arity]: wrong number of arguments to 'lrange': expected 3, got 2",
            "t.taco:5:1: error[wrong-arity]: proc 'two' expects 2 argument(s), got 3",
        ],
    );
}

#[test]
fn use_before_set_and_branch_joins() {
    expect(
        "if {[my_site] == 0} {\n    set mode primary\n}\nputs $mode\nset y $never",
        &[
            "t.taco:4:6: warning[possibly-unset]: variable 'mode' may be unset here: it is assigned on only some paths",
            "t.taco:5:1: warning[unused-variable]: variable 'y' is assigned but never read",
            "t.taco:5:7: error[use-before-set]: variable 'never' is used before it is set",
        ],
    );
    // Both branches assigning makes the variable definite: no diagnostics.
    expect(
        "if {[my_site] == 0} { set m a } else { set m b }\nputs $m",
        &[],
    );
}

#[test]
fn unreachable_and_after_migration() {
    expect(
        "return done\nset dead 1",
        &[
            "t.taco:2:1: warning[unreachable]: unreachable code after 'return'",
            "t.taco:2:1: warning[unused-variable]: variable 'dead' is assigned but never read",
        ],
    );
    expect(
        "move_to 2\nset x 1",
        &[
            "t.taco:2:1: warning[after-move-to]: code after 'move_to' still runs at the departing site before migration; conventionally only 'return' or 'halt' follow it",
            "t.taco:2:1: warning[unused-variable]: variable 'x' is assigned but never read",
        ],
    );
}

#[test]
fn unknown_meet_targets() {
    expect(
        "meet nobody_home\nmeet rexec",
        &[
            "t.taco:1:1: error[unknown-agent]: meet target 'nobody_home' is neither a wellknown agent nor installed locally",
        ],
    );
}

#[test]
fn loops_without_exits() {
    expect(
        "while {1} { set x 1 }",
        &[
            "t.taco:1:1: warning[no-loop-exit]: loop has no reachable exit: the condition is constant-true and the body cannot break out; it will exhaust the step budget",
            "t.taco:1:13: warning[unused-variable]: variable 'x' is assigned but never read",
        ],
    );
    // Touching the condition variable, breaking, or halting are all exits.
    expect("set i 0\nwhile {$i < 3} { incr i }", &[]);
    expect("while {1} { break }", &[]);
    expect("while {1} { halt done }", &[]);
    // A call of a proc that halts ends the loop; a `[..]` swallows `halt`.
    expect("proc f {} {halt}; set x 1; while {$x} {f}", &[]);
    expect(
        "set x 1; while {$x} {set y [halt]}",
        &[
            "t.taco:1:10: warning[no-loop-exit]: loop has no reachable exit: the body never updates any condition variable (x) and cannot break out; it will exhaust the step budget",
            "t.taco:1:22: warning[unused-variable]: variable 'y' is assigned but never read",
        ],
    );
}

#[test]
fn known_good_idioms_stay_clean() {
    // The paper's rexec migration idiom.
    expect(
        "set hops [bc_pop HOPS]\nif {$hops > 0} {\n  bc_put HOPS [expr $hops - 1]\n  bc_push CODE [bc_peek ORIGCODE]\n  bc_put HOST 1\n  bc_put CONTACT ag_tac\n  meet rexec\n} else {\n  bc_put LANDED [my_site]\n}",
        &[],
    );
    // catch suppresses analysis of its body; the result variable is bound.
    expect(
        "set failed [catch { undefined_thing $whatever } why]\nif {$failed} { log $why }",
        &[],
    );
    // procs may read outer variables under dynamic scoping.
    expect(
        "set base 10\nproc bump {d} { return [expr $base + $d] }\nbump 5",
        &[],
    );
    // A computed `foreach` or `catch` variable may be the loop's counter
    // (here it is: each loop ends after one pass), and `unset` removes every
    // variable it names (the loop ends in a runtime error on its second
    // condition check, not by exhausting the step budget).
    expect(
        "set i 0; set v i; while {$i < 3} {foreach $v {1 2 3} {}}; return $i",
        &[],
    );
    expect(
        "set i 0; set v i; while {$i < 3} {catch {expr 3} $v}; return $i",
        &[],
    );
    expect("set i 0; while {$i < 3} {unset j i}", &[]);
}

#[test]
fn parse_errors_are_reported_with_position() {
    expect(
        "set x 1\nset y {unclosed",
        &["t.taco:2:16: error[parse]: unclosed brace"],
    );
}
