//! The single source of truth for TacoScript's builtin command surface.
//!
//! Both the interpreter ([`crate::interp::Interp`]) and the static analyzer
//! ([`crate::analysis`]) read which commands exist and how many arguments
//! each accepts from this one table.  Two copies could drift apart: an entry
//! changed in one but not the other would either reject scripts the
//! interpreter runs (a vet false positive, which `tacoma-core` turns into an
//! install failure) or let a real arity defect through.  A test in this file
//! drives the interpreter over every entry, and another checks each entry's
//! run against what the parsed tree decodes it to bind and how to leave.

/// The signature of one builtin command.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BuiltinSpec {
    /// The command name as written in scripts.
    pub name: &'static str,
    /// Minimum number of arguments (after the command name).
    pub min_args: usize,
    /// Maximum number of arguments, or `None` for variadic commands.
    pub max_args: Option<usize>,
    /// The usage string rendered in arity errors (`usage: <name> <usage>`).
    pub usage: &'static str,
}

impl BuiltinSpec {
    const fn new(
        name: &'static str,
        min_args: usize,
        max_args: Option<usize>,
        usage: &'static str,
    ) -> Self {
        BuiltinSpec {
            name,
            min_args,
            max_args,
            usage,
        }
    }

    /// Whether `argc` arguments violate this signature.
    pub fn arity_violated(&self, argc: usize) -> bool {
        argc < self.min_args || self.max_args.is_some_and(|m| argc > m)
    }
}

/// Every builtin the interpreter implements, in one place.
pub const BUILTINS: &[BuiltinSpec] = &[
    // --- variables & values --------------------------------------------------
    BuiltinSpec::new("set", 1, Some(2), "name ?value?"),
    BuiltinSpec::new("unset", 0, None, "?name ...?"),
    BuiltinSpec::new("incr", 1, Some(2), "name ?amount?"),
    BuiltinSpec::new("append", 1, None, "name ?value ...?"),
    BuiltinSpec::new("expr", 1, None, "arg ?arg ...?"),
    // --- control flow --------------------------------------------------------
    BuiltinSpec::new("if", 2, None, "{cond} {body} ..."),
    BuiltinSpec::new("while", 2, Some(2), "{cond} {body}"),
    BuiltinSpec::new("foreach", 3, Some(3), "var {list} {body}"),
    BuiltinSpec::new("proc", 3, Some(3), "name {params} {body}"),
    BuiltinSpec::new("return", 0, Some(1), "?value?"),
    BuiltinSpec::new("halt", 0, Some(1), "?value?"),
    BuiltinSpec::new("break", 0, Some(0), ""),
    BuiltinSpec::new("continue", 0, Some(0), ""),
    BuiltinSpec::new("eval", 1, None, "arg ?arg ...?"),
    BuiltinSpec::new("error", 1, None, "message ?detail ...?"),
    BuiltinSpec::new("catch", 1, Some(2), "{body} ?resultVar?"),
    // --- lists & strings -----------------------------------------------------
    BuiltinSpec::new("list", 0, None, "?value ...?"),
    BuiltinSpec::new("llength", 1, Some(1), "list"),
    BuiltinSpec::new("lindex", 2, Some(2), "list index"),
    BuiltinSpec::new("lappend", 1, None, "name ?value ...?"),
    BuiltinSpec::new("lrange", 3, Some(3), "list first last"),
    BuiltinSpec::new("concat", 0, None, "?list ...?"),
    BuiltinSpec::new("split", 1, Some(2), "string ?separator?"),
    BuiltinSpec::new("join", 1, Some(2), "list ?separator?"),
    BuiltinSpec::new(
        "string",
        2,
        Some(4),
        "length|toupper|tolower|trim|equal|first|range ...",
    ),
    // --- output --------------------------------------------------------------
    BuiltinSpec::new("puts", 1, None, "message ?message ...?"),
    BuiltinSpec::new("log", 1, None, "message ?message ...?"),
    // --- TACOMA briefcase ----------------------------------------------------
    BuiltinSpec::new("bc_put", 2, Some(2), "folder value"),
    BuiltinSpec::new("bc_push", 2, Some(2), "folder value"),
    BuiltinSpec::new("bc_pop", 1, Some(1), "folder"),
    BuiltinSpec::new("bc_dequeue", 1, Some(1), "folder"),
    BuiltinSpec::new("bc_peek", 1, Some(1), "folder"),
    BuiltinSpec::new("bc_list", 1, Some(1), "folder"),
    BuiltinSpec::new("bc_size", 1, Some(1), "folder"),
    BuiltinSpec::new("bc_del", 1, Some(1), "folder"),
    // --- TACOMA cabinets -----------------------------------------------------
    BuiltinSpec::new("cab_append", 3, Some(3), "cabinet folder value"),
    BuiltinSpec::new("cab_contains", 3, Some(3), "cabinet folder value"),
    BuiltinSpec::new("cab_list", 2, Some(2), "cabinet folder"),
    BuiltinSpec::new("cab_pop", 2, Some(2), "cabinet folder"),
    // --- TACOMA agents & migration -------------------------------------------
    BuiltinSpec::new("meet", 1, Some(1), "agent"),
    BuiltinSpec::new("move_to", 1, Some(2), "site ?contact?"),
    BuiltinSpec::new("send_remote", 2, None, "site contact ?folder ...?"),
    // --- TACOMA environment --------------------------------------------------
    BuiltinSpec::new("my_site", 0, Some(0), ""),
    BuiltinSpec::new("site_count", 0, Some(0), ""),
    BuiltinSpec::new("neighbors", 0, Some(0), ""),
    BuiltinSpec::new("random", 1, Some(1), "bound"),
    BuiltinSpec::new("now", 0, Some(0), ""),
];

/// Looks up a builtin's signature by command name.
pub fn builtin(name: &str) -> Option<&'static BuiltinSpec> {
    BUILTINS.iter().find(|spec| spec.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host::RecordingHost;
    use crate::interp::{Interp, ScriptError};
    use crate::tree::Tree;
    use std::collections::BTreeSet;

    #[test]
    fn table_has_no_duplicates() {
        let names: BTreeSet<&str> = BUILTINS.iter().map(|s| s.name).collect();
        assert_eq!(names.len(), BUILTINS.len(), "duplicate builtin entries");
    }

    #[test]
    fn every_builtin_has_a_sane_signature() {
        for spec in BUILTINS {
            assert!(builtin(spec.name).is_some());
            if let Some(max) = spec.max_args {
                assert!(
                    spec.min_args <= max,
                    "builtin '{}' has min > max",
                    spec.name
                );
            }
        }
        assert!(builtin("frobnicate").is_none());
    }

    /// The anti-drift test the satellite asks for: the interpreter must agree
    /// with the table for every builtin.  Calling each command with one
    /// argument too few (or too many, for the bounded ones) must produce a
    /// `usage:` arity error — never `unknown command` (which would mean the
    /// interpreter lost the builtin) and never a clean run (which would mean
    /// the table is stricter than the interpreter).
    #[test]
    fn interpreter_enforces_the_shared_arities() {
        for spec in BUILTINS {
            let mut violations: Vec<usize> = Vec::new();
            if spec.min_args > 0 {
                violations.push(spec.min_args - 1);
            }
            if let Some(max) = spec.max_args {
                violations.push(max + 1);
            }
            for argc in violations {
                // Braced arguments keep placeholder values inert (no variable
                // substitution, no command execution).
                let src = format!("{}{}", spec.name, " {0}".repeat(argc));
                let mut host = RecordingHost::new();
                let mut interp = Interp::new(&mut host);
                let err = interp.run(&src).unwrap_err();
                let ScriptError::Runtime(msg) = &err else {
                    panic!("builtin '{}' with {argc} args: {err:?}", spec.name);
                };
                assert!(
                    msg.contains(&format!("usage: {}", spec.name)),
                    "builtin '{}' with {argc} args drifted from the table: {msg}",
                    spec.name
                );
            }
        }
    }

    /// One well-formed invocation of every builtin, and of the other forms
    /// of those that bind variables.
    const CALLS: &[&str] = &[
        "set a 5",
        "set a",
        "set d 5",
        "unset",
        "unset a c",
        "incr a",
        "incr d 2",
        "append a x y",
        "expr 1 + 1",
        "if {0} {set b 9} else {list}",
        "while {0} {set b 9}",
        "foreach c {7 8} {}",
        "proc p {x} {set a 9}",
        "return",
        "halt",
        "break",
        "continue",
        "eval {list a}",
        "error boom",
        "catch {error x}",
        "catch {list} c",
        "list a",
        "llength {a b}",
        "lindex {a b} 0",
        "lappend b x",
        "lrange {a b c} 0 1",
        "concat a b",
        "split a,b ,",
        "join {a b} ,",
        "string length abc",
        "puts hi",
        "log hi",
        "bc_put F v",
        "bc_push F v",
        "bc_pop F",
        "bc_dequeue F",
        "bc_peek F",
        "bc_list F",
        "bc_size F",
        "bc_del F",
        "cab_append c F v",
        "cab_contains c F v",
        "cab_list c F",
        "cab_pop c F",
        "meet rexec",
        "move_to 1",
        "send_remote 1 ag_tac F",
        "my_site",
        "site_count",
        "neighbors",
        "random 5",
        "now",
    ];

    /// Runs `src` with `a`, `b` and `c` set, against a host whose folder `F`
    /// and cabinet folder `c F` hold an element each.  Returns whether the
    /// run succeeded, and which of `a`, `b`, `c`, `d` and `after` it changed
    /// or removed.
    fn run_on(src: &str) -> (bool, BTreeSet<&'static str>) {
        let mut host = RecordingHost::new();
        host.briefcase.insert("F".into(), vec!["1".into()]);
        host.cabinets
            .insert(("c".into(), "F".into()), vec!["v".into()]);
        let mut interp = Interp::new(&mut host);
        let before = [
            ("a", Some("1")),
            ("b", Some("2")),
            ("c", Some("3")),
            ("d", None),
            ("after", None),
        ];
        for (var, value) in before {
            if let Some(value) = value {
                interp.set_var(var, value);
            }
        }
        let ok = interp.run(src).is_ok();
        let changed = before
            .into_iter()
            .filter(|&(var, value)| interp.get_var(var) != value)
            .map(|(var, _)| var);
        (ok, changed.collect())
    }

    /// The anti-drift test for what a command does: every builtin changes or
    /// removes exactly the variables `Cmd::bindings` names for it, and skips
    /// the rest of its block exactly when `Cmd::leaves` answers.  A builtin
    /// cannot land without a call here, so it cannot land without stating
    /// what it binds.
    #[test]
    fn interpreter_agrees_with_the_decoded_meaning() {
        for spec in BUILTINS {
            let called = CALLS
                .iter()
                .any(|call| call.split(' ').next() == Some(spec.name));
            assert!(called, "no call of '{}'", spec.name);
        }
        for call in CALLS {
            let tree = Tree::parse(call).expect("parses");
            let cmd = &tree.cmds[0];
            let bound: BTreeSet<&str> = cmd.bindings().filter_map(|b| b.name).collect();
            let leaves = cmd.leaves().is_some();
            let (ok, changed) = run_on(call);
            assert!(ok || leaves, "'{call}' failed");
            assert_eq!(changed, bound, "'{call}' binds other variables");
            // In a loop that runs once, the command then skips the rest of
            // the body.
            let (_, changed) = run_on(&format!("foreach once {{1}} {{{call}; set after 1}}"));
            assert_eq!(changed.contains("after"), !leaves, "'{call}' leaves");
        }
        let leaving: Vec<&str> = BUILTINS
            .iter()
            .map(|spec| spec.name)
            .filter(|name| {
                Tree::parse(name).expect("parses").cmds[0]
                    .leaves()
                    .is_some()
            })
            .collect();
        assert_eq!(leaving, ["return", "halt", "break", "continue", "error"]);
    }
}
