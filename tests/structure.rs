//! Structural invariants of the source tree, checked by counting call sites.
//!
//! Each rule is one `#[test]`, and its doc comment says why the rule holds.
//! Counts are taken over shipped code only: `#[cfg(test)]` items and comment
//! lines are skipped, and so are the lines that define the name counted.
//! The rules about names that must stay gone read every file, comments and
//! tests included.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::{Path, PathBuf};

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// Every file at or under `path` (relative to the repository root), build
/// output and dot-directories below it excepted, keyed by its path relative
/// to the root.
fn files(path: &str) -> BTreeMap<String, PathBuf> {
    let mut out = BTreeMap::new();
    let mut todo = vec![root().join(path)];
    while let Some(path) = todo.pop() {
        if path.is_dir() {
            if path.file_name().is_some_and(|name| name == "target") {
                continue;
            }
            for entry in fs::read_dir(&path).expect("readable source directory") {
                let entry = entry.expect("directory entry").path();
                let hidden = entry
                    .file_name()
                    .is_some_and(|n| n.to_string_lossy().starts_with('.'));
                if !(hidden && entry.is_dir()) {
                    todo.push(entry);
                }
            }
        } else {
            let name = path.strip_prefix(root()).expect("under the root");
            out.insert(name.display().to_string(), path);
        }
    }
    out
}

/// The shipped lines of every `.rs` file at or under `path`, keyed by file
/// path.  A `#[cfg(test)]` item is skipped whole: to the end of its line
/// when that ends in `;`, otherwise through the `}` that closes it at the
/// attribute's indentation, where rustfmt puts it.
fn shipped(path: &str) -> BTreeMap<String, Vec<String>> {
    let mut out = BTreeMap::new();
    for (name, path) in files(path) {
        if path.extension().is_none_or(|ext| ext != "rs") {
            continue;
        }
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
        out.insert(name, kept);
    }
    out
}

/// Every line, in any file under `paths`, that mentions one of `names`, as
/// `file:line: text`.  This file is skipped: it spells the names it forbids.
fn mentions(paths: &[&str], names: &[&str]) -> Vec<String> {
    let mut out = Vec::new();
    for (file, path) in paths.iter().flat_map(|p| files(p)) {
        if file == file!() {
            continue;
        }
        let text = String::from_utf8_lossy(&fs::read(&path).expect("readable file")).into_owned();
        for (at, line) in text.lines().enumerate() {
            if names.iter().any(|name| line.contains(name)) {
                out.push(format!("{file}:{}: {}", at + 1, line.trim()));
            }
        }
    }
    out
}

/// How often `pattern` occurs in the shipped code at or under `dir`, per
/// file, not counting lines that define it (`fn pattern`).
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
const SCHED: &str = "crates/sched/src";
const FT: &str = "crates/ft/src";

/// Every phase of a meet exists once in the kernel (the table in
/// `system/mod.rs`): a second call site is a second path through it.  A
/// meet request is encoded in one place and decoded in one place, and both
/// hand the codec the buffer they own, so a large folder changes owners
/// instead of being copied.  The one borrowed call is the decode of a
/// payload other messages in flight still share, in the same match as the
/// owned decode; the borrowed encoder, which copies, is for callers
/// outside the kernel.
#[test]
fn one_meet_request_encoder_in_the_kernel() {
    let system = "crates/core/src/system/mod.rs".to_string();
    for once in [
        "encode_meet_request_owned(",
        "decode_meet_request_owned(",
        "decode_meet_request(",
    ] {
        let calls: Vec<(String, usize)> = uses(KERNEL, once).into_iter().collect();
        assert_eq!(calls, [(system.clone(), 1)], "{once}");
    }
    assert_eq!(
        uses(KERNEL, "encode_meet_request("),
        BTreeMap::new(),
        "encode_meet_request("
    );
}

/// The owned and borrowed entry points are thin wrappers over one codec:
/// the request header (its `MEET_VERSION` byte) is written by one function
/// and checked by one, and a folder's elements are scanned by one function
/// that one reader calls.
#[test]
fn one_request_header_writer_and_one_element_scan() {
    let codec = "crates/core/src/codec.rs";
    let lines = &shipped(codec)[codec];
    let version: Vec<(&str, &str)> = lines
        .iter()
        .enumerate()
        .filter(|(_, line)| line.contains("MEET_VERSION"))
        .map(|(at, line)| {
            let enclosing = lines[..at].iter().rev().find_map(|l| l.split_once("fn "));
            let name = enclosing.map_or("", |(_, sig)| sig.split('(').next().unwrap_or(sig));
            (line.trim(), name)
        })
        .collect();
    assert_eq!(
        version,
        [
            ("const MEET_VERSION: u8 = 1;", ""),
            ("out.push(MEET_VERSION);", "encode_request_into"),
            ("if version != MEET_VERSION {", "decode_request"),
        ]
    );
    assert_eq!(total(KERNEL, "fn scan("), 1);
    let scans: Vec<(String, usize)> = uses(KERNEL, "Folder::scan(").into_iter().collect();
    assert_eq!(scans, [(codec.to_string(), 1)]);
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

/// The trace has one writer, the engine's: an agent's `ctx.log` line is a
/// queued action the kernel stamps and appends, and every failed dispatch
/// is noted, so no caller passes a `traced` flag.  `trace()` lends the one
/// log instead of gathering copies.
#[test]
fn one_trace_writer_in_the_kernel() {
    assert_eq!(total(KERNEL, ".trace.push("), 1);
    assert_eq!(total(KERNEL, "traced"), 0);
    let system = "crates/core/src/system/mod.rs";
    let lines = &shipped(system)[system];
    assert!(lines
        .iter()
        .any(|l| l.trim() == "pub fn trace(&self) -> &[String] {"));
}

/// A meet context is built in one place, `Place::run`, which a dispatch,
/// a nested local meet and an install hook all go through.
#[test]
fn one_meet_context_in_the_kernel() {
    assert_eq!(total(KERNEL, "MeetCtx {"), 1);
}

/// Each fact has one home.  Whether a site is up is the simulator's
/// (`DispatchEnv::alive` lends its slice), the trace is the engine's, and
/// whole-run counts are `SystemStats`'; a place keeps its agents, its
/// cabinets, its random stream and the meets it ran.
#[test]
fn a_place_keeps_no_liveness_and_no_log() {
    let place = "crates/core/src/place.rs";
    let lines = &shipped(place)[place];
    let fields = |name: &str| -> Vec<String> {
        let head = format!("pub struct {name} {{");
        let start = lines.iter().position(|l| l.trim() == head).expect(name);
        lines[start + 1..]
            .iter()
            .take_while(|l| l.trim() != "}")
            .map(|l| l.trim().to_string())
            .collect()
    };
    let place_fields = fields("Place");
    for field in &place_fields {
        assert!(
            !field.ends_with(": bool,") && !field.contains("Vec<String>"),
            "{field}"
        );
    }
    assert_eq!(place_fields.len(), 5, "{place_fields:?}");
    assert_eq!(
        fields("PlaceStats"),
        ["pub meets_ok: u64,", "pub meets_failed: u64,"]
    );
}

/// A builtin's usage text is spelled once, in the `BUILTINS` table: the
/// interpreter's arity errors read it from there.  (The usage `list` is
/// also a command name, which a match arm spells.)
#[test]
fn builtin_usage_is_spelled_only_in_the_table() {
    let interp = "crates/script/src/interp.rs";
    let lines = &shipped(interp)[interp];
    for spec in tacoma::script::BUILTINS {
        if spec.usage.is_empty() {
            continue;
        }
        let literal = format!("\"{}\"", spec.usage);
        let arm = format!("{literal} =>");
        let copies: Vec<&String> = lines
            .iter()
            .filter(|l| l.contains(&literal) && !l.contains(&arm))
            .collect();
        assert!(copies.is_empty(), "{}: {copies:?}", spec.name);
    }
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

/// TacoScript's `$name` and `[..]` syntax has one reader, in `parser.rs`:
/// the interpreter substitutes a condition with the same reading the
/// analyses scan it with, so the two cannot drift apart, and `tree.rs`
/// keeps no copy of the interpreter's.  Vet's scan for condition variables
/// and cost's bracket-depth split of a condition were such copies.
#[test]
fn one_reader_of_substitution_syntax() {
    for pattern in ["'$' =>", "'[' =>", "== '$'", "b'$'", "b'['"] {
        let files: Vec<String> = uses(SCRIPT, pattern).into_keys().collect();
        let exact = pattern.ends_with("=>");
        let parser = files
            .iter()
            .all(|file| file == "crates/script/src/parser.rs");
        assert!(
            parser && (!exact || files.len() == 1),
            "{pattern}: {files:?}"
        );
    }
    let copies = ["the way the interpreter", "mirroring the interpreter"];
    let tree = "crates/script/src/tree.rs";
    assert_eq!(mentions(&[tree], &copies), Vec::<String>::new());
}

/// Expression text has one reader, `expr.rs`: the interpreter, vet's
/// loop-exit verdict and cost's counted-loop guard all read the `Expr` it
/// builds, whose operators are typed (`expr::Op`), so no pass splits a
/// condition on `&&` or `||` or matches a comparison's spelling by itself
/// (cost once did, by bytes, and missed every spelling but `$i < 10`).
#[test]
fn one_reader_of_expression_operators() {
    let comparisons = ["\"<\"", "\">\"", "\"<=\"", "\">=\""];
    for pattern in ["\"&&\"", "\"||\"", "b'&'", "b'|'"]
        .iter()
        .chain(&comparisons)
    {
        let files: Vec<String> = uses(SCRIPT, pattern).into_keys().collect();
        let expr = files.iter().all(|file| file == "crates/script/src/expr.rs");
        assert!(expr, "{pattern}: {files:?}");
    }
}

/// The control commands are decoded in one place, `parser.rs`'s `control`
/// and `if_chain`, which the interpreter dispatches on and the parsed tree
/// is built from.
#[test]
fn one_decoder_of_control_commands() {
    let sites: Vec<(String, usize)> = uses(SCRIPT, "\"elseif\"").into_iter().collect();
    assert_eq!(sites, [("crates/script/src/parser.rs".to_string(), 1)]);
}

/// A command's meaning is decoded in `tree.rs` only: the variables it binds
/// (`Cmd::bindings`), how it leaves its block (`Cmd::leaves`) and what it
/// grows (`Cmd::growth`).  taco-vet, taco-audit and taco-cost read those
/// answers instead of keeping lists of their own, which drifted apart: one
/// forgot all but the first name of an `unset`, another counted a computed
/// `set` as a write but not a computed `foreach` or `catch` variable.
#[test]
fn a_commands_meaning_is_decoded_in_the_tree_only() {
    for pass in ["analysis.rs", "audit.rs", "cost.rs"] {
        let file = format!("{SCRIPT}/{pass}");
        for name in ["\"unset\"", "\"lappend\"", "\"continue\""] {
            assert_eq!(total(&file, name), 0, "{name} in {file}");
        }
    }
}

/// How control leaves a body is decided in `tree.rs` only: `tree::Exits`,
/// read off a command or body by `Cmd::exits` with proc calls resolved
/// through the script's call table, holds the interpreter's rules for what
/// loops, `catch`, `[..]`, `eval` and proc calls absorb.  taco-vet,
/// taco-audit and taco-cost read it instead of deciding for themselves,
/// which they did four ways: cost's lower bound counted commands after a
/// branch that may `return`, and vet's loop-exit check missed that a `[..]`
/// swallows `halt` and that a proc call passes it on.  The one `Leave::`
/// outside `tree.rs` is vet's after-move-to convention, which names the
/// commands that may follow `move_to`, not a way out of a body.
#[test]
fn how_control_leaves_a_body_is_decided_in_the_tree_only() {
    let files = shipped(SCRIPT);
    let outside: Vec<String> = files
        .iter()
        .filter(|(file, _)| !file.ends_with("/tree.rs"))
        .flat_map(|(file, lines)| {
            let spelled = lines.iter().filter(|line| line.contains("Leave::"));
            spelled.map(move |line| format!("{file}: {}", line.trim()))
        })
        .collect();
    let convention =
        "let conventional = matches!(cmd.leaves(), Some(Leave::Return | Leave::Halt));";
    assert_eq!(
        outside,
        [format!("{SCRIPT}/analysis.rs: {convention}")],
        "Leave:: spelled outside tree.rs"
    );
    let gone = [
        ("cost.rs", "terminates"),
        ("cost.rs", "exits_early"),
        ("analysis.rs", "escapes"),
    ];
    for (file, name) in gone {
        assert_eq!(
            total(&format!("{SCRIPT}/{file}"), name),
            0,
            "{name} in {file}"
        );
    }
    // `At` has no `breaks` or `raises`.
    for field in ["breaks:", "raises:", ".breaks", ".raises"] {
        assert_eq!(total(SCRIPT, field), 0, "{field}");
    }
}

/// taco-audit reads the parsed tree through `tree::walk` and `walk_body`
/// only, so which nested text the effect summary follows, and where it must
/// give up, is decided in `tree.rs` alone.  The walker `audit.rs` kept of
/// its own had its own nesting rules: it skipped a braced `eval` inside
/// `catch` and the second substitution of an unbraced condition, so it
/// missed writes those runs make and refused correct fleets at install.
#[test]
fn the_audit_summary_reads_the_tree_through_the_one_walk() {
    let audit = format!("{SCRIPT}/audit.rs");
    for name in ["WalkCtx", "fn walk", "fn walk_cond", "fn walk_tree"] {
        assert_eq!(total(&audit, name), 0, "{name} in {audit}");
    }
    // Nested scripts are not opened by hand.
    for reach in [".cmds", ".children()", ".scripts()", ".view(", "State::"] {
        assert_eq!(total(&audit, reach), 0, "{reach} in {audit}");
    }
    for walk in ["walk(tree, View::Braced", "walk_body(body, View::Braced"] {
        assert_eq!(total(&audit, walk), 1, "{walk} in {audit}");
    }
}

/// A message crosses `SimNet` without walking an ordered map: the metrics
/// and the transport it touches on every send hold none.
#[test]
fn no_ordered_map_on_the_send_path() {
    for file in ["crates/net/src/metrics.rs", "crates/net/src/transport.rs"] {
        for map in ["BTreeMap", "BTreeSet"] {
            assert_eq!(total(file, map), 0, "{file} holds a {map}");
        }
    }
}

/// A calendar bucket is drained as a sorted run, not as a heap of its own,
/// and the calendar queue's one heap holds the late pushes.
#[test]
fn one_heap_in_the_calendar_queue() {
    let calendar = "crates/net/src/calendar.rs";
    assert_eq!(total(calendar, "Vec<BinaryHeap"), 0, "a heap per bucket");
    assert_eq!(
        total(calendar, "BinaryHeap::from("),
        0,
        "a heapified bucket"
    );
    assert_eq!(total(calendar, "BinaryHeap<"), 1);
}

/// A route is priced from the router's adjacency rows, not from
/// `Topology::link`.
#[test]
fn routes_are_priced_from_adjacency_rows() {
    assert_eq!(total("crates/net/src/routing.rs", ".link("), 0);
}

/// Routes come from the links, never from a shape tag: an edited topology
/// keeps the tag it was built with, and `crates/net/tests/event_order.rs`
/// cuts a link of a `ring_of_cliques` that still reports `RingOfCliques`.
#[test]
fn routes_come_from_links_not_a_shape_tag() {
    for pattern in ["TopologyKind", ".kind()"] {
        assert_eq!(total("crates/net/src/routing.rs", pattern), 0, "{pattern}");
    }
}

/// A send charges its cached route whole: `SimNet` neither loops over the
/// route's hops nor copies the route out.
#[test]
fn a_send_neither_walks_nor_copies_its_route() {
    let sim = "crates/net/src/sim.rs";
    assert_eq!(total(sim, "for link in"), 0, "charged hop by hop");
    assert_eq!(total(sim, "route_buf.extend_from_slice(path)"), 0);
}

/// The per-link and per-site `NetMetrics` maps are gone, and so are their
/// accessors.
#[test]
fn no_per_link_or_per_site_metrics() {
    let paths = ["crates", "benchmark/src", "examples", "tests", "src"];
    let names = ["link_bytes", "busiest_link", "sent_by", "received_by"];
    assert_eq!(mentions(&paths, &names), Vec::<String>::new());
}

/// A briefcase is a sorted vector of folders, not an ordered map.
#[test]
fn a_briefcase_is_a_sorted_vector() {
    assert_eq!(total("crates/core/src/briefcase.rs", "BTreeMap"), 0);
}

/// A folder's arena is its wire image: decode copies it in one piece
/// instead of re-pushing element by element.
#[test]
fn decode_copies_a_folder_in_one_piece() {
    assert_eq!(total("crates/core/src/codec.rs", "push_bytes("), 0);
}

/// What went with the shard plan, the criterion target and the A1/A2
/// ablation slots stays gone.
#[test]
fn the_shard_plan_and_criterion_stay_gone() {
    let paths = [
        "crates",
        "shims",
        "Cargo.toml",
        ".github",
        "README.md",
        "EXPERIMENTS.md",
    ];
    let names = [
        "set_shards",
        "ShardPlan",
        "shard_count",
        "with_shards",
        "--shards",
        "RESERVED_IDS",
        "criterion::",
        "criterion.workspace",
        "shims/criterion",
        "benches/micro",
    ];
    assert_eq!(mentions(&paths, &names), Vec::<String>::new());
}

/// There is one event queue.  Two ignored names survive only because
/// `benchmark/` still spells them (ROADMAP 1(a)(iii)): the builder's
/// `shards` and `FederationConfig::sim_shards`.
#[test]
fn the_ignored_shard_names_live_in_two_files() {
    let hits = mentions(
        &["crates", "examples", "tests", "src"],
        &["sim_shards", "fn shards"],
    );
    let mut files: Vec<&str> = hits.iter().filter_map(|h| h.split(':').next()).collect();
    files.dedup();
    let want = [
        "crates/core/src/system/builder.rs",
        "crates/sched/src/federation.rs",
    ];
    assert_eq!(files, want);
}

/// `SimNet` never re-opens its custody store behind an `expect`.
#[test]
fn custody_is_not_reopened_behind_an_expect() {
    let sim = "crates/net/src/sim.rs";
    for pattern in ["expect(\"checked", "expect(\"custody"] {
        assert_eq!(total(sim, pattern), 0, "{pattern}");
    }
}

/// The scheduling and fault-tolerance crates export agents and
/// configurations; every experiment runner lives in the bench crate.
#[test]
fn no_experiment_runner_in_sched_or_ft() {
    for dir in [SCHED, FT] {
        for runner in ["pub fn run_", "pub fn drive_"] {
            assert_eq!(uses(dir, runner), BTreeMap::new(), "{dir}: {runner}");
        }
    }
}

/// There is one broker: a single broker is a federation of one shard, so
/// one agent handles the report/lookup/submit protocol.
#[test]
fn one_broker_handles_the_report_protocol() {
    assert_eq!(total(SCHED, "b\"report\" =>"), 1);
}

/// A worker's `DONE` records are read in one place, beside the worker that
/// writes them (`tacoma_sched::agents::jobs_done`).
#[test]
fn done_records_are_read_beside_the_worker() {
    let readers: Vec<(String, usize)> = uses("crates", "folder_ref(DONE)").into_iter().collect();
    assert_eq!(readers, [("crates/sched/src/agents.rs".to_string(), 1)]);
}

/// DESIGN.md's size: what each structure is, the invariant it keeps and the
/// measurement that justified it, one sentence pointing at CHANGES.md.  The
/// tables and profiles behind each measurement live in CHANGES.md.
const DESIGN_BUDGET: usize = 45_000;

/// A backticked word ending in one of these is read as a file name.
const DOC_EXTENSIONS: [&str; 8] = ["rs", "md", "toml", "json", "taco", "audit", "txt", "yml"];

/// What DESIGN.md may name: every file and directory of the source tree (as
/// `files` walks it), the types and items of the shipped code of the crates'
/// `src/` and the facade's, and each crate's `tacoma_*` dependencies.
struct SourceTree {
    entries: BTreeSet<String>,
    /// Every struct, enum, trait and type alias.
    types: BTreeSet<String>,
    /// Per file: the types it defines or implements, and the functions,
    /// constants, fields and variants it declares.
    homes: Vec<(BTreeSet<String>, BTreeSet<String>)>,
    deps: BTreeMap<String, Vec<String>>,
}

/// The identifier `text` starts with.
fn ident(text: &str) -> &str {
    let end = text.find(|c: char| !(c.is_alphanumeric() || c == '_'));
    &text[..end.unwrap_or(text.len())]
}

/// The function, constant, field or variant a shipped line declares.
fn declared(line: &str) -> Option<&str> {
    let mut decl = line.trim_start();
    for vis in ["pub(crate) ", "pub(super) ", "pub "] {
        decl = decl.strip_prefix(vis).unwrap_or(decl);
    }
    if let Some(rest) = decl.strip_prefix("fn ").or(decl.strip_prefix("const ")) {
        return Some(ident(rest)).filter(|name| !name.is_empty());
    }
    let name = ident(decl);
    let rest = &decl[name.len()..];
    let field = rest.starts_with(':') && !rest.starts_with("::");
    let variant = name.starts_with(|c: char| c.is_ascii_uppercase())
        && (rest.is_empty() || rest.starts_with([',', '(', ' ']));
    (!name.is_empty() && (field || variant)).then_some(name)
}

impl SourceTree {
    fn load() -> SourceTree {
        let mut entries = BTreeSet::new();
        for file in files("").into_keys() {
            let mut dir = file.as_str();
            while let Some((parent, _)) = dir.rsplit_once('/') {
                entries.insert(parent.to_string());
                dir = parent;
            }
            entries.insert(file);
        }
        let mut code = shipped("src");
        code.extend(
            shipped("crates")
                .into_iter()
                .filter(|(f, _)| f.contains("/src/")),
        );
        let mut types = BTreeSet::new();
        let mut homes = Vec::new();
        for lines in code.values() {
            let (mut owned, mut items) = (BTreeSet::new(), BTreeSet::new());
            for line in lines {
                for kw in ["struct ", "enum ", "trait ", "type "] {
                    for (at, _) in line.match_indices(kw) {
                        let name = ident(&line[at + kw.len()..]).to_string();
                        types.insert(name.clone());
                        owned.insert(name);
                    }
                }
                if line.trim_start().starts_with("impl") {
                    let words = line.split(|c: char| !(c.is_alphanumeric() || c == '_'));
                    owned.extend(words.map(str::to_string));
                }
                items.extend(declared(line).map(str::to_string));
            }
            homes.push((owned, items));
        }
        let mut deps = BTreeMap::new();
        for (file, path) in files("crates") {
            let Some(krate) = file.strip_suffix("/Cargo.toml") else {
                continue;
            };
            let manifest = fs::read_to_string(path).expect("readable manifest");
            let section = manifest
                .split("\n[")
                .find(|s| s.starts_with("dependencies]"))
                .unwrap_or("");
            let mut names: Vec<String> = section
                .lines()
                .filter_map(|l| l.strip_prefix("tacoma_"))
                .map(|l| ident(l).to_string())
                .collect();
            names.sort();
            deps.insert(krate.trim_start_matches("crates/").to_string(), names);
        }
        SourceTree {
            entries,
            types,
            homes,
            deps,
        }
    }

    /// A path from the root names itself; any other names the one entry it
    /// is the tail of, and a bare file name must be unique.
    fn resolves(&self, path: &str) -> bool {
        let path = path.trim_end_matches('/');
        if path.contains('/') && self.entries.contains(path) {
            return true;
        }
        let tail = format!("/{path}");
        let hits = self
            .entries
            .iter()
            .filter(|e| *e == path || e.ends_with(&tail));
        hits.count() == 1
    }

    /// `ty` is a struct, enum, trait or type alias of shipped code, and `item`
    /// is a function, constant, field or variant in a file that defines or
    /// implements it.
    fn has_item(&self, ty: &str, item: &str) -> bool {
        self.types.contains(ty)
            && self
                .homes
                .iter()
                .any(|(owned, items)| owned.contains(ty) && items.contains(item))
    }
}

/// What checking DESIGN.md found: each name that does not resolve, and how
/// many paths, symbols and section citations were checked.
#[derive(Debug, Default)]
struct DesignCheck {
    faults: Vec<String>,
    paths: usize,
    symbols: usize,
    citations: usize,
}

/// A backticked `Type::item` or `Type::{a, b}`, module path and call
/// arguments dropped.
fn type_items(word: &str) -> Option<(&str, Vec<&str>)> {
    let is_ident = |s: &str| !s.is_empty() && ident(s) == s;
    let head = word.split('(').next().unwrap_or(word);
    let (path, last) = head.rsplit_once("::")?;
    let ty = path.rsplit("::").next().unwrap_or(path);
    let items: Vec<&str> = match last.strip_prefix('{').and_then(|l| l.strip_suffix('}')) {
        Some(list) => list.split(',').map(str::trim).collect(),
        None => vec![last],
    };
    let typed = is_ident(ty) && ty.starts_with(|c: char| c.is_ascii_uppercase());
    (typed && items.iter().all(|i| is_ident(i))).then_some((ty, items))
}

/// The `§N` sections a text cites after each `DESIGN.md`, each with the
/// heading it quotes, if any: `DESIGN.md §1 "Heading" and §2`, `§3–§4`.
fn design_citations(text: &str) -> Vec<(u32, Option<String>)> {
    let mut out = Vec::new();
    for (at, _) in text.match_indices("DESIGN.md") {
        let mut rest = &text[at + "DESIGN.md".len()..];
        loop {
            rest = rest.trim_start_matches([' ', ',', '–', '-']);
            rest = rest.strip_prefix("and ").unwrap_or(rest);
            let Some(cited) = rest.strip_prefix('§') else {
                break;
            };
            let digits = cited.len() - cited.trim_start_matches(|c: char| c.is_ascii_digit()).len();
            let Ok(section) = cited[..digits].parse() else {
                break;
            };
            rest = &cited[digits..];
            let quoted = rest.strip_prefix(" \"").and_then(|q| q.split_once('"'));
            let heading = quoted.map(|(heading, after)| {
                rest = after;
                heading.to_string()
            });
            out.push((section, heading));
        }
    }
    out
}

/// Checks `design` against the source tree: its size, `file:line`
/// references, backticked paths and `Type::item`s, the `§N` citations made
/// from `citing` (file, text) and the workspace layout's edges.
fn check_design(design: &str, citing: &[(String, String)], tree: &SourceTree) -> DesignCheck {
    let mut check = DesignCheck::default();
    let mut fault = |f: String| check.faults.push(f);
    if design.len() > DESIGN_BUDGET {
        fault(format!("{} bytes, over {DESIGN_BUDGET}", design.len()));
    }
    for ext in DOC_EXTENSIONS {
        let lead = format!(".{ext}:");
        for (at, _) in design.match_indices(&lead) {
            if design[at + lead.len()..].starts_with(|c: char| c.is_ascii_digit()) {
                fault(format!("a file:line reference at byte {at}"));
            }
        }
    }
    let mut fenced = false;
    let mut prose = String::new();
    for line in design.lines() {
        if line.starts_with("```") {
            fenced = !fenced;
        } else if !fenced {
            prose.push_str(line);
            prose.push(' ');
        }
    }
    if prose.matches('`').count() % 2 == 1 {
        fault("an unclosed backtick".to_string());
    }
    for word in prose.split('`').skip(1).step_by(2) {
        let plain = word
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_./-".contains(c));
        let ext = word
            .rsplit_once('.')
            .is_some_and(|(_, e)| DOC_EXTENSIONS.contains(&e));
        if plain && !word.starts_with(['-', '.']) && (word.contains('/') || ext) {
            check.paths += 1;
            if !tree.resolves(word) {
                fault(format!("no such file: `{word}`"));
            }
        } else if let Some((ty, items)) = type_items(word) {
            check.symbols += 1;
            for item in items.iter().filter(|item| !tree.has_item(ty, item)) {
                fault(format!("no such item: `{ty}::{item}`"));
            }
        }
    }
    let mut sections: BTreeMap<u32, String> = BTreeMap::new();
    let mut current = None;
    for line in design.lines() {
        if let Some(head) = line.strip_prefix("## ") {
            let number = head.strip_prefix('§').and_then(|h| h.split(' ').next());
            current = number.and_then(|n| n.parse().ok());
        }
        if let Some(n) = current {
            let body = sections.entry(n).or_default();
            body.push_str(line.trim());
            body.push(' ');
        }
    }
    for (file, text) in citing {
        for (section, heading) in design_citations(text) {
            check.citations += 1;
            match (sections.get(&section), heading) {
                (None, _) => fault(format!(
                    "{file} cites DESIGN.md §{section}, which is missing"
                )),
                (Some(body), Some(h))
                    if !["### ", "**"]
                        .iter()
                        .any(|lead| body.contains(&format!("{lead}{h}"))) =>
                {
                    fault(format!(
                        "{file} cites §{section} \"{h}\", not a heading there"
                    ))
                }
                _ => {}
            }
        }
    }
    let layout = design.split("## Workspace layout").nth(1).unwrap_or("");
    let block = layout.split("```").nth(1).unwrap_or("");
    let mut edges = BTreeMap::new();
    for line in block.lines().filter_map(|l| l.split_once('→')) {
        let mut deps: Vec<String> = line.1.split(',').map(|d| d.trim().to_string()).collect();
        deps.retain(|d| !d.is_empty());
        deps.sort();
        edges.insert(line.0.trim().to_string(), deps);
    }
    if edges != tree.deps {
        fault(format!(
            "workspace layout {edges:?}, manifests {:?}",
            tree.deps
        ));
    }
    check
}

/// The texts that cite DESIGN.md by section: README.md, EXPERIMENTS.md and
/// the comments of `src/` and `crates/*/src`, comment markers dropped and
/// lines joined, so a citation may wrap.
fn design_citers() -> Vec<(String, String)> {
    let mut out = Vec::new();
    let mut sources = files("src");
    sources.extend(
        files("crates")
            .into_iter()
            .filter(|(f, _)| f.contains("/src/")),
    );
    for doc in ["README.md", "EXPERIMENTS.md"] {
        sources.insert(doc.to_string(), root().join(doc));
    }
    for (file, path) in sources {
        let text = fs::read_to_string(&path).expect("readable file");
        let lines = text
            .lines()
            .map(|l| l.trim().trim_start_matches('/').trim_start_matches('!'));
        out.push((file, lines.map(str::trim).collect::<Vec<_>>().join(" ")));
    }
    out
}

/// DESIGN.md describes the design that exists.  It stays within its byte
/// budget, holds no `file:line` reference (line numbers move with every
/// change), and every path, `Type::item` and `§N` it names, or is cited by,
/// resolves: a stale name is a stale description.  Its workspace layout is
/// the crates' manifests.
#[test]
fn design_md_names_what_exists() {
    let design = fs::read_to_string(root().join("DESIGN.md")).expect("DESIGN.md");
    let check = check_design(&design, &design_citers(), &SourceTree::load());
    assert_eq!(check.faults, Vec::<String>::new());
    assert!(check.paths >= 60, "{check:?}");
    assert!(check.symbols >= 60, "{check:?}");
    assert!(check.citations >= 8, "{check:?}");
}

/// The DESIGN.md rule cannot pass by finding nothing: a stale path, item,
/// section citation, quoted heading or `file:line` planted in it, a dropped
/// layout edge and an oversize document are each one fault.
#[test]
fn design_md_rule_catches_a_planted_stale_name() {
    let design = fs::read_to_string(root().join("DESIGN.md")).expect("DESIGN.md");
    let tree = SourceTree::load();
    let citers = design_citers();
    assert_eq!(check_design(&design, &citers, &tree).faults.len(), 0);
    for planted in [
        "`crates/core/src/cabinet_index.rs`",
        "`cabinet_index.rs`",
        "`Engine::dispatch_all`",
        "`Folder::{push, shove}`",
        "`NoSuchType::new`",
        "see `folder.rs:40`",
    ] {
        let stale = format!("{design}\n{planted}\n");
        let faults = check_design(&stale, &citers, &tree).faults;
        assert_eq!(faults.len(), 1, "{planted}: {faults:?}");
    }
    for cite in [
        "DESIGN.md §9",
        "DESIGN.md §2 \"The miss path\" and §8",
        "DESIGN.md §2 \"The shard plan\"",
    ] {
        let mut stale = citers.clone();
        stale.push(("planted".to_string(), cite.to_string()));
        let faults = check_design(&design, &stale, &tree).faults;
        assert_eq!(faults.len(), 1, "{cite}: {faults:?}");
    }
    let mut wrong = design.replacen("core   → net, script, util", "core   → net, util", 1);
    assert_eq!(check_design(&wrong, &citers, &tree).faults.len(), 1);
    wrong = format!("{design}{}", "x".repeat(DESIGN_BUDGET));
    assert_eq!(check_design(&wrong, &citers, &tree).faults.len(), 1);
}
