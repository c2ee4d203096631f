//! The audit differential: taco-audit's effect summaries against the
//! interpreter.
//!
//! The fleet audit refuses an agent at install when a folder it reads is
//! written by no summary's `writes_all`, so a summary that misses an effect
//! the run has is a false positive waiting to happen.  This test generates
//! the cost differential's statement soup, with literal briefcase, cabinet,
//! `meet` and `send_remote` commands over a few names added, and the shape
//! Tcl substitutes twice (`set v {[bc_put F k]}` then `expr $v` or
//! `if $v {..}`), and folder or cabinet names computed inside `catch`; plus
//! mutated `examples/scripts/*.taco`.  Each script runs once under a fixed
//! step budget on a host that records every folder read or written and
//! every cabinet touched, whether or not the run completes.
//! For every summary that is not opaque, each of those must lie within
//! `reads_all`, `writes_all` and `cabinets`, unless the fleet treats the
//! agent as a universal reader and writer (a name computed inside `catch`
//! may be any name).
//!
//! The default test runs a CI-sized batch; the ignored soak runs 200 000
//! scripts (`cargo test --release -p tacoma_script -- --ignored`).

use proptest::TestRng;
use soup::{pick, Soup, VARS};
use std::collections::BTreeSet;
use tacoma_script::{
    audit, summarize, AuditConfig, Interp, InterpConfig, RecordingHost, ScriptHost,
};

#[path = "common/soup.rs"]
mod soup;

const FOLDERS: &[&str] = &["P", "Q", "R"];
const CABINETS: &[&str] = &["c1", "c2"];

/// The soup, with this test's commands added.
const SOUP: Soup = Soup {
    extra: &[
        folder_op,
        cabinet_op,
        remote_op,
        substituted_twice,
        computed_in_catch,
    ],
};

fn folder_op(rng: &mut TestRng) -> String {
    let (f, v, k) = (pick(rng, FOLDERS), pick(rng, VARS), rng.below(4));
    match rng.below(4) {
        0 => format!("bc_put {f} {k}"),
        1 => format!("bc_push {f} {k}"),
        2 => format!("set {v} [bc_pop {f}]"),
        _ => format!("set {v} [bc_size {f}]"),
    }
}

fn cabinet_op(rng: &mut TestRng) -> String {
    let (c, f, v) = (pick(rng, CABINETS), pick(rng, FOLDERS), pick(rng, VARS));
    match rng.below(2) {
        0 => format!("cab_append {c} {f} {}", rng.below(4)),
        _ => format!("set {v} [cab_list {c} {f}]"),
    }
}

fn remote_op(rng: &mut TestRng) -> String {
    match rng.below(2) {
        0 => "meet helper".to_string(),
        _ => format!("send_remote 1 helper {}", pick(rng, FOLDERS)),
    }
}

/// A script held in a variable and run by the second substitution of an
/// unbraced condition.
fn substituted_twice(rng: &mut TestRng) -> String {
    let (f, v, w) = (pick(rng, FOLDERS), pick(rng, VARS), pick(rng, VARS));
    let script = match rng.below(2) {
        0 => format!("bc_put {f} {}", rng.below(4)),
        _ => format!("bc_size {f}"),
    };
    match rng.below(2) {
        0 => format!("set {v} {{[{script}]}}\nset {w} [expr ${v}]"),
        _ => format!("set {v} {{[{script}]}}\nif ${v} {{set {w} 1}}"),
    }
}

/// A folder or cabinet named by a variable inside `catch`, which the audit
/// exempts from opacity.
fn computed_in_catch(rng: &mut TestRng) -> String {
    let (f, c, v, w) = (
        pick(rng, FOLDERS),
        pick(rng, CABINETS),
        pick(rng, VARS),
        pick(rng, VARS),
    );
    let (name, command) = match rng.below(3) {
        0 => (f, format!("bc_put ${v} {}", rng.below(4))),
        1 => (f, format!("set {w} [bc_pop ${v}]")),
        _ => (c, format!("cab_append ${v} {f} 1")),
    };
    format!("set {v} {name}\ncatch {{ {command} }}")
}

/// Script `seed`: soup or a mutated example.
fn script(seed: u64) -> String {
    let mut rng = TestRng::deterministic(seed);
    match rng.below(10) {
        0..=7 => SOUP.body(&mut rng, 0),
        _ => SOUP.mutated(&mut rng),
    }
}

/// A [`RecordingHost`] that also records what the run touches.
#[derive(Default)]
struct Witness {
    host: RecordingHost,
    reads: BTreeSet<String>,
    writes: BTreeSet<String>,
    cabinets: BTreeSet<String>,
}

impl Witness {
    fn read(&mut self, folder: &str) -> &mut RecordingHost {
        self.reads.insert(folder.to_string());
        &mut self.host
    }

    fn write(&mut self, folder: &str) -> &mut RecordingHost {
        self.writes.insert(folder.to_string());
        &mut self.host
    }

    fn cabinet(&mut self, cabinet: &str) -> &mut RecordingHost {
        self.cabinets.insert(cabinet.to_string());
        &mut self.host
    }
}

impl ScriptHost for Witness {
    fn bc_put(&mut self, folder: &str, value: &str) {
        self.write(folder).bc_put(folder, value);
    }
    fn bc_push(&mut self, folder: &str, value: &str) {
        self.write(folder).bc_push(folder, value);
    }
    fn bc_pop(&mut self, folder: &str) -> Option<String> {
        self.read(folder).bc_pop(folder)
    }
    fn bc_dequeue(&mut self, folder: &str) -> Option<String> {
        self.read(folder).bc_dequeue(folder)
    }
    fn bc_peek(&mut self, folder: &str) -> Option<String> {
        self.read(folder).bc_peek(folder)
    }
    fn bc_list(&mut self, folder: &str) -> Vec<String> {
        self.read(folder).bc_list(folder)
    }
    fn bc_delete(&mut self, folder: &str) {
        self.read(folder).bc_delete(folder);
    }
    fn cab_append(&mut self, cabinet: &str, folder: &str, value: &str) {
        self.cabinet(cabinet).cab_append(cabinet, folder, value);
    }
    fn cab_contains(&mut self, cabinet: &str, folder: &str, value: &str) -> bool {
        self.cabinet(cabinet).cab_contains(cabinet, folder, value)
    }
    fn cab_list(&mut self, cabinet: &str, folder: &str) -> Vec<String> {
        self.cabinet(cabinet).cab_list(cabinet, folder)
    }
    fn cab_pop(&mut self, cabinet: &str, folder: &str) -> Option<String> {
        self.cabinet(cabinet).cab_pop(cabinet, folder)
    }
    fn meet(&mut self, agent: &str) -> Result<(), String> {
        self.host.meet(agent)
    }
    fn move_to(&mut self, site: u64, contact: &str) -> Result<(), String> {
        self.host.move_to(site, contact)
    }
    fn send_remote(&mut self, site: u64, contact: &str, folders: &[String]) -> Result<(), String> {
        self.reads.extend(folders.iter().cloned());
        self.host.send_remote(site, contact, folders)
    }
    fn site(&self) -> u64 {
        self.host.site()
    }
    fn site_count(&self) -> u64 {
        self.host.site_count()
    }
    fn neighbors(&self) -> Vec<u64> {
        self.host.neighbors()
    }
    fn random(&mut self, bound: u64) -> u64 {
        self.host.random(bound)
    }
    fn now_micros(&self) -> u64 {
        self.host.now_micros()
    }
    fn log(&mut self, message: &str) {
        self.host.log(message);
    }
}

/// Whether the fleet audit treats the agent running `src` as a universal
/// reader and writer: beside it, a reader of a folder nobody names is not
/// refused.
fn is_universal(src: &str) -> bool {
    let probe = "set v [bc_pop UNNAMED]\nreturn ok";
    let fleet =
        AuditConfig::new()
            .agent("agent", "agent.taco", src)
            .agent("probe", "probe.taco", probe);
    !audit(&fleet)
        .iter()
        .any(|f| f.agent == "probe" && f.diag.code == "folder-never-produced")
}

fn differential(scripts: u64) {
    // Per category (read, write, cabinet): the scripts whose summary misses
    // an effect of their run.
    let mut missed: [Vec<u64>; 3] = Default::default();
    let (mut summaries, mut universal) = (0, 0);
    for seed in 0..scripts {
        let src = script(seed);
        let Ok(summary) = summarize(&src) else {
            continue;
        };
        if summary.opaque {
            continue;
        }
        summaries += 1;
        // Every name is in the `_all` tiers and `cabinets`.
        if is_universal(&src) {
            universal += 1;
            continue;
        }
        let mut witness = Witness {
            host: RecordingHost::new(),
            ..Witness::default()
        };
        let config = InterpConfig {
            max_steps: 2_000,
            max_depth: 64,
        };
        // An effect counts whether or not the run completes.
        let _ = Interp::with_config(&mut witness, config).run(&src);
        let checks = [
            (&witness.reads, &summary.reads_all),
            (&witness.writes, &summary.writes_all),
            (&witness.cabinets, &summary.cabinets),
        ];
        for ((touched, summarized), missed) in checks.into_iter().zip(&mut missed) {
            if !touched.is_subset(summarized) {
                missed.push(seed);
            }
        }
    }
    let [reads, writes, cabinets] = missed.each_ref().map(Vec::len);
    println!(
        "{scripts} scripts, {summaries} non-opaque summaries ({universal} reach any \
         name): {reads} miss a read, {writes} a write, {cabinets} a cabinet"
    );
    if let Some(&seed) = missed.iter().find_map(|seeds| seeds.first()) {
        panic!(
            "{reads} summaries miss a read, {writes} a write, {cabinets} a cabinet; \
             script {seed}:\n{}",
            script(seed)
        );
    }
}

#[test]
fn summaries_cover_what_soup_and_mutated_examples_touch() {
    differential(2_000);
}

#[test]
#[ignore = "soak: 200 000 scripts, run in release"]
fn summaries_cover_what_a_soak_of_soup_and_mutated_examples_touches() {
    differential(200_000);
}
