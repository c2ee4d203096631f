//! Structural invariants of the source tree, checked by counting call sites.
//!
//! Each rule is one `#[test]`, and its doc comment says why the rule holds.
//! Counts are taken over shipped code only: `#[cfg(test)]` items and comment
//! lines are skipped, and so are the lines that define the name counted.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

/// The shipped lines of every `.rs` file under `dir` (relative to the
/// repository root), keyed by file path.  A
/// `#[cfg(test)]` item is skipped whole: to the end of its line when that
/// ends in `;`, otherwise through the `}` that closes it at the attribute's
/// indentation, where rustfmt puts it.
fn shipped(dir: &str) -> BTreeMap<String, Vec<String>> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files: Vec<PathBuf> = Vec::new();
    let mut dirs = vec![root.join(dir)];
    while let Some(dir) = dirs.pop() {
        for entry in fs::read_dir(&dir).expect("readable source directory") {
            let path = entry.expect("directory entry").path();
            if path.is_dir() {
                dirs.push(path);
            } else if path.extension().is_some_and(|ext| ext == "rs") {
                files.push(path);
            }
        }
    }
    let mut out = BTreeMap::new();
    for path in files {
        let text = fs::read_to_string(&path).expect("readable source file");
        let mut kept = Vec::new();
        let mut lines = text.lines();
        while let Some(line) = lines.next() {
            let code = line.trim_start();
            if code == "#[cfg(test)]" {
                let indent = &line[..line.len() - code.len()];
                let closes = |l: &str| {
                    l.strip_prefix(indent)
                        .is_some_and(|r| r == "}" || r == "};")
                };
                let head = lines.find(|l| !l.trim_start().starts_with("#["));
                if head.is_some_and(|l| !l.ends_with(';')) {
                    lines.find(|&l| closes(l));
                }
            } else if !code.starts_with("//") {
                kept.push(line.to_string());
            }
        }
        let name = path.strip_prefix(root).expect("under the root");
        out.insert(name.display().to_string(), kept);
    }
    out
}

/// How often `pattern` occurs in the shipped code under `dir`, per file,
/// not counting lines that define it (`fn pattern`).
fn uses(dir: &str, pattern: &str) -> BTreeMap<String, usize> {
    let definition = format!("fn {pattern}");
    let mut out = BTreeMap::new();
    for (file, lines) in shipped(dir) {
        let n: usize = lines
            .iter()
            .filter(|line| !line.contains(&definition))
            .map(|line| line.matches(pattern).count())
            .sum();
        if n > 0 {
            out.insert(file, n);
        }
    }
    out
}

fn total(dir: &str, pattern: &str) -> usize {
    uses(dir, pattern).values().sum()
}

const KERNEL: &str = "crates/core/src";
const SCRIPT: &str = "crates/script/src";

/// Every phase of a meet exists once in the kernel (the table in
/// `system/mod.rs`): a second call site is a second path through it.  A
/// meet request is encoded in one place.
#[test]
fn one_meet_request_encoder_in_the_kernel() {
    assert_eq!(total(KERNEL, "encode_meet_request("), 1);
}

/// A meet request is handed to the network in one place.
#[test]
fn one_send_options_in_the_kernel() {
    assert_eq!(total(KERNEL, "SendOptions {"), 1);
}

/// The install gates parse a `CODE` folder once, at the call site
/// `Gates::gate` and `Gates::gate_cost` share, and vet, audit and cost all
/// read that one record.
#[test]
fn one_script_parse_in_the_kernel() {
    assert_eq!(total(KERNEL, "Script::parse("), 1);
}

/// No gate stage takes the `CODE` text: each text entry point parses the
/// script again.
#[test]
fn no_text_taking_gate_call_in_the_kernel() {
    for entry in [
        "vet(",
        "audit(",
        "cost_bound(",
        "analyze_with(",
        "summarize(",
    ] {
        let pattern = format!("tacoma_script::{entry}");
        assert_eq!(uses(KERNEL, &pattern), BTreeMap::new(), "{pattern}");
    }
}

/// The trace has two writers: the kernel's note and `MeetCtx::log`, the
/// agents'.
#[test]
fn two_trace_writers_in_the_kernel() {
    assert_eq!(total(KERNEL, ".trace.push("), 2);
}

/// A meet context is built in two places: the dispatch constructor and
/// `meet_local`'s child.
#[test]
fn two_meet_contexts_in_the_kernel() {
    assert_eq!(total(KERNEL, "MeetCtx {"), 2);
}

/// The analyses never see source text they have to parse: `tree.rs` calls
/// `parse_script` once per nested script text.  The interpreter still takes
/// text (ROADMAP item 2) and is the one other caller.
#[test]
fn parse_script_is_called_by_the_tree_and_the_interpreter() {
    let callers: Vec<(String, usize)> = uses(SCRIPT, "parse_script(").into_iter().collect();
    let want = [
        ("crates/script/src/interp.rs".to_string(), 1),
        ("crates/script/src/tree.rs".to_string(), 1),
    ];
    assert_eq!(callers, want);
}

/// One parse per script: a tree is built only by `Script::parse`, whose
/// record vet, audit and cost all read.
#[test]
fn the_tree_is_built_only_by_script_parse() {
    let files = shipped(SCRIPT);
    let sites: Vec<(&String, usize)> = files
        .iter()
        .flat_map(|(file, lines)| {
            let hits = lines.iter().enumerate();
            hits.filter(|(_, line)| line.contains("Tree::parse("))
                .map(move |(at, _)| (file, at))
        })
        .collect();
    let [(file, at)] = sites.as_slice() else {
        panic!("Tree::parse( is called {} times: {sites:?}", sites.len());
    };
    let lines = &files[*file];
    let enclosing = lines[..*at]
        .iter()
        .rev()
        .find(|line| line.contains("fn "))
        .map(|line| line.trim());
    assert_eq!(enclosing, Some("pub fn parse(src: &str) -> Script {"));
}
