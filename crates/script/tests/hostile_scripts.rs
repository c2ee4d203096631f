//! Bounded gate time on hostile nesting.
//!
//! A `CODE` folder arrives from anyone, and all three install gates run on it
//! before the first command executes.  Every nested script past depth 64 is a
//! `TooDeep` leaf of the parsed tree, so no gate may do more than
//! O(64 × source) parsing however deep the source nests — where the string
//! walkers this replaced re-parsed each level under every analysed level and
//! needed 7–13 s per `cost_bound` call (release) on these inputs.

use std::time::{Duration, Instant};
use tacoma_script::{cost_bound, summarize, vet, AnalysisConfig, Interp, NullHost, Script};

const DEPTH: usize = 3000;

fn nest(open: &str, close: &str) -> String {
    format!("{}{}", open.repeat(DEPTH), close.repeat(DEPTH))
}

#[test]
fn gates_stay_fast_and_conservative_on_deep_nesting() {
    let shapes = [
        nest("if {1} {", "}"),
        nest("while {0} {", "}"),
        nest("while {1} {", "}"),
        nest("catch {", "}"),
        format!("set x {}", nest("[expr ", "]")),
    ];
    let start = Instant::now();
    for src in &shapes {
        assert!((21_000..=36_100).contains(&src.len()), "{}", src.len());
        // Each gate returns (no panic, no stack overflow); what vet says
        // about code it refuses to look at is not pinned.
        let _ = vet(src, &AnalysisConfig::new());
        summarize(src).expect("the source itself parses");
        let bound = cost_bound(src).expect("the source itself parses");
        assert_eq!(bound.verdict(), "unbounded", "{}", &src[..12]);
    }
    let spent = start.elapsed();
    assert!(spent < Duration::from_secs(10), "gates took {spent:?}");
}

/// The growth pass walks the body of each loop whose exit it cannot see,
/// so nested loops have it walk their bodies again, level by level; it
/// must stay bounded by the depth cap and list each growth site once.
/// A `TooDeep` leaf may leave any way, so every loop around one has a
/// visible exit; a `proc` definition leaves nothing, so loops nested
/// through proc bodies have none at any of their 32 parsed levels (the
/// cap's 64 levels, two per loop).
#[test]
fn the_growth_pass_stays_fast_on_deep_loops() {
    let open = "while {[bc_size Q]} {bc_push Q x; ";
    let bare = nest(open, "}");
    let hidden = nest(&format!("{open}proc p {{}} {{"), "}}");
    let start = Instant::now();
    let bare = summarize(&bare).expect("the source itself parses");
    let hidden = summarize(&hidden).expect("the source itself parses");
    let spent = start.elapsed();
    assert!(spent < Duration::from_secs(10), "summaries took {spent:?}");
    assert!(bare.opaque && hidden.opaque);
    assert!(bare.growth.is_empty(), "{:?}", bare.growth);
    let spans: Vec<_> = hidden.growth.iter().map(|site| site.span).collect();
    assert_eq!(spans.len(), 32, "{spans:?}");
    assert!(spans.windows(2).all(|pair| pair[0] < pair[1]), "{spans:?}");
}

/// The call table is built once over the call graph, so a long chain of
/// procs, each calling the one before, costs the gates time in proportion
/// to its length, and a `halt` at the far end still reaches the top.
#[test]
fn gates_stay_fast_on_long_proc_chains() {
    let mut chain = String::from("proc p0 {} {halt}\n");
    for i in 1..DEPTH {
        chain.push_str(&format!("proc p{i} {{}} {{p{}}}\n", i - 1));
    }
    // The same procs closed into one cycle: p0 also calls the last.
    let ring = chain.replacen("{halt}", &format!("{{p{}; halt}}", DEPTH - 1), 1);
    let start = Instant::now();
    for src in [&chain, &ring] {
        let src = format!("{src}p{}\n", DEPTH - 1);
        let _ = vet(&src, &AnalysisConfig::new());
        assert!(summarize(&src).expect("parses").halts, "{}", &src[..40]);
        cost_bound(&src).expect("parses");
    }
    let spent = start.elapsed();
    assert!(spent < Duration::from_secs(10), "gates took {spent:?}");
}

/// A condition is read once, by `expr.rs`, for the interpreter and all
/// three gates: a run of one operator is one node however long it is, and
/// parentheses and `!` stop at `expr`'s nesting cap, so neither a long nor
/// a deep condition overflows the stack.
#[test]
fn long_and_deep_conditions_stay_fast() {
    let deep = format!("{}1{}", "!(".repeat(33_333), ")".repeat(33_333));
    let long = format!("{}$a", "$a && ".repeat(50_000));
    assert_eq!((deep.len(), long.len()), (100_000, 300_002));
    let start = Instant::now();
    for (cond, want) in [(&deep, None), (&long, Some("1"))] {
        let src = format!("set a 1\nset r [expr {{{cond}}}]\nwhile {{{cond}}} {{set a 0}}\nset r");
        let script = Script::parse(&src);
        let _ = script.vet(&AnalysisConfig::new());
        script.summary().expect("the source parses");
        script.cost().expect("the source parses");
        let run = Interp::new(&mut NullHost).run(&src);
        match want {
            Some(value) => assert_eq!(run.expect("runs").result, value),
            None => assert!(run.unwrap_err().to_string().contains("nested too deeply")),
        }
    }
    let spent = start.elapsed();
    assert!(
        spent < Duration::from_secs(10),
        "gates and runs took {spent:?}"
    );
}
