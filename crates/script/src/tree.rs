//! The [`Script`] record the three static analyses read, and the parsed tree
//! inside it.
//!
//! [`parse_script`] is one level deep: control-flow bodies, conditions and
//! `[..]` substitutions come back as strings.  [`Tree::parse`] finishes the
//! job once per script so that taco-vet, taco-audit and taco-cost never see
//! source text they have to parse: it calls `parse_script` exactly once per
//! nested script text, rewrites every span to an absolute position in the
//! original source as it builds, and decodes each command's [`Shape`] once.
//! [`Script::parse`] runs it once per agent, for all three analyses.
//!
//! Parsed eagerly: brace-quoted (or otherwise literal) words at control
//! positions — `if`/`elseif`/`else` bodies, `while`, `foreach`, `proc`,
//! `catch`, one-argument `eval` — the `[..]` parts of any word, and the
//! `[..]` scripts inside literal condition text.  Everything else stays a
//! word.  A nested script is in one of four [`State`]s, and nothing nests
//! deeper than [`MAX_DEPTH`]: hostile nesting costs at most
//! `MAX_DEPTH × source` parsing, however deep the source goes.
//!
//! [`Cmd::children`] is the one definition of what nests in what, and the
//! analyses' flow-insensitive questions are answered by one [`walk`] over
//! it; only their flow-sensitive passes recurse on their own.  What a
//! command does is decoded here once too, for all three: the variables it
//! binds ([`Cmd::bindings`]), how it leaves its block ([`Cmd::leaves`]) and
//! what it grows ([`Cmd::growth`]).  So is how control leaves a command or
//! body ([`Exits`]), with proc calls resolved through the script's
//! [`Calls`] table.
//!
//! A condition is read once, by `expr.rs`: its `$name` and `[..]` leaves
//! become a [`Cond`]'s parts and its grammar an [`Expr`] over them, which
//! taco-vet's loop-exit verdict and taco-cost's counted-loop guard read.
//! The interpreter still takes text (ROADMAP item 2), but it reads that text
//! with the same `expr::read` and [`control`] decoding the tree is built
//! from.

use crate::builtins::builtin;
use crate::expr::{read, Expr, ExprError, Reading};
use crate::graph::Digraph;
use crate::parser::{
    control, if_chain, parse_script, Control, IfFault, Leaf, ParseError, Span, Word, WordKind,
    WordPart,
};
use crate::value::parse_list;
use std::collections::{BTreeMap, BTreeSet};
use std::iter;
use std::sync::Arc;

/// An agent's code, parsed once: the record taco-vet ([`Script::analyze`]),
/// taco-audit ([`Script::summary`]) and taco-cost ([`Script::cost`]) read.
/// A source that does not parse is still a record; each analysis reports
/// the parse error its own way.
#[derive(Debug)]
pub struct Script {
    /// The parsed tree, or why the source does not parse.
    pub(crate) tree: Result<Tree, ParseError>,
    /// Every `proc` command in the literal view, in evaluation order: a
    /// later definition of a name replaces an earlier one.
    pub(crate) procs: Vec<ProcDef>,
    pub(crate) calls: Calls,
}

impl Script {
    /// Parses `src` and everything nested in it, and collects its `proc`
    /// table and the call table built from it.
    pub fn parse(src: &str) -> Script {
        let tree = Tree::parse(src);
        let (mut procs, mut open) = (Vec::new(), false);
        if let Ok(tree) = &tree {
            walk(tree, View::Literal, At::ROOT, &mut |step, at| {
                let Step::Cmd(cmd) = step else {
                    open = true;
                    return false;
                };
                open |= cmd.name().is_none();
                if cmd.name() == Some("proc") {
                    let body = match &cmd.shape {
                        Shape::Proc { body } => Some(Arc::clone(body)),
                        _ => None,
                    };
                    let name = cmd.arg_text(0).map(str::to_string);
                    open |= name.is_none() && body.is_some();
                    let params = cmd.arg_text(1).map(parse_list);
                    procs.push(ProcDef {
                        name,
                        params,
                        body,
                        at,
                    });
                }
                false
            });
        }
        let calls = Calls::new(&procs, open);
        Script { tree, procs, calls }
    }
}

/// The call table: what calling each proc does, joined over every
/// definition of its name, hidden ones too.  A proc named like a builtin is
/// left out: the name always runs the builtin.
#[derive(Debug)]
pub(crate) struct Calls {
    pub procs: BTreeMap<String, Call>,
    /// A proc may be defined that the table does not hold: the literal view
    /// has a proc with a computed name, a computed command name, or a
    /// script it cannot see into.
    pub open: bool,
}

/// What calling a proc does.
#[derive(Debug)]
pub(crate) struct Call {
    /// How control leaves the call.
    pub exits: Exits,
    /// The caller's variables the call may unset, or `None` when that could
    /// be any variable.  A proc runs in a fresh scope, so it reaches its
    /// caller's variables only by `unset`, which removes the innermost
    /// variable of that name wherever it is.
    pub unsets: Vars,
    /// Its definitions, as indices into [`Script::procs`].
    pub defs: Vec<usize>,
}

impl Calls {
    /// The table of `defs`, built one strongly connected component of the
    /// call graph at a time, callees first.  The members of a component
    /// share the join of what their bodies do, reading calls inside the
    /// component as doing nothing: the join holds each member's own
    /// answer, and is exactly it for a proc alone in its component.  Each
    /// body is read once, so a long chain of procs costs its length.
    fn new(defs: &[ProcDef], open: bool) -> Calls {
        let mut procs = BTreeMap::new();
        for (i, def) in defs.iter().enumerate() {
            if let (Some(name), Some(_)) = (&def.name, &def.body) {
                let call = procs.entry(name.clone()).or_insert_with(|| Call {
                    exits: Exits::NONE,
                    unsets: Some(BTreeSet::new()),
                    defs: Vec::new(),
                });
                call.defs.push(i);
            }
        }
        procs.retain(|name, _| builtin(name).is_none());
        let mut calls = Calls { procs, open };
        let nodes: Vec<(String, Vec<&Body>)> = (calls.procs.iter())
            .map(|(name, call)| {
                let bodies = call.defs.iter().filter_map(|&i| defs[i].body.as_deref());
                (name.clone(), bodies.collect())
            })
            .collect();
        let node = |name: &str| nodes.binary_search_by(|(n, _)| n.as_str().cmp(name)).ok();
        let mut graph = Digraph::new(nodes.len());
        for (from, (_, bodies)) in nodes.iter().enumerate() {
            for body in bodies {
                walk_body(body, View::Literal, At::ROOT, &mut |step, _| {
                    let callee = match step {
                        Step::Cmd(cmd) => cmd.name().and_then(node),
                        Step::Opaque(_) => None,
                    };
                    if let Some(to) = callee {
                        graph.add_edge(from, to);
                    }
                    false
                });
            }
        }
        for members in graph.sccs_callees_first() {
            let bodies = || {
                members
                    .iter()
                    .flat_map(|&node| nodes[node].1.iter().copied())
            };
            let exits = bodies().map(|body| body.exits(View::Literal, &calls).call());
            let exits = exits.fold(Exits::NONE, Exits::or);
            let unsets = calls.writes(bodies(), View::Literal, true);
            for &node in &members {
                let call = calls.procs.get_mut(&nodes[node].0).expect("a proc");
                (call.exits, call.unsets) = (exits, unsets.clone());
            }
        }
        calls
    }

    /// A command with no body of its own: a leave with well-formed
    /// arguments, a proc call, or a command with a computed name.
    fn plain(&self, cmd: &Cmd) -> Exits {
        let Some(name) = cmd.name() else {
            return Exits::ANY;
        };
        let argc = cmd.words.len() - 1;
        let malformed = builtin(name).is_some_and(|spec| spec.arity_violated(argc));
        match (cmd.leaves(), self.procs.get(name)) {
            (Some(_), _) if malformed => Exits::NONE,
            (Some(way), _) => Exits::new(1 << way as u8, true),
            (None, Some(call)) => call.exits,
            (None, None) if self.open && builtin(name).is_none() => Exits::ANY,
            (None, None) => Exits::NONE,
        }
    }

    /// The variables of their scope that running `bodies` may bind in
    /// `view` (with `unset_only`, may unset): what their commands bind
    /// ([`Cmd::bindings`]) and what the procs they call may unset.
    pub fn writes<'b>(
        &self,
        bodies: impl IntoIterator<Item = &'b Body>,
        view: View,
        unset_only: bool,
    ) -> Vars {
        let mut written = Some(BTreeSet::new());
        let opaque = bodies.into_iter().any(|body| {
            any_in_scope(body, view, |name, cmd, _| {
                let bound = cmd
                    .bindings()
                    .filter(|binding| binding.unset || !unset_only);
                for binding in bound {
                    add(&mut written, binding.name.map(iter::once));
                }
                match self.procs.get(name) {
                    Some(call) => add(&mut written, call.unsets.as_ref()),
                    None if self.open && builtin(name).is_none() => return true,
                    None => {}
                }
                written.is_none()
            })
        });
        written.filter(|_| !opaque)
    }
}

/// Some variables, or `None` for any variable.
pub(crate) type Vars = Option<BTreeSet<String>>;

/// Adds `more` to the variables in `set`.
pub(crate) fn add<T: ToString>(set: &mut Vars, more: Option<impl IntoIterator<Item = T>>) {
    match (set.as_mut(), more) {
        (Some(set), Some(more)) => set.extend(more.into_iter().map(|var| var.to_string())),
        _ => *set = None,
    }
}

/// One `proc` command.  taco-vet reads the definitions reached through
/// brace-quoted text whose name and parameters are static; taco-cost reads
/// those with a body that are not hidden.
#[derive(Debug)]
pub(crate) struct ProcDef {
    /// The proc's name, or `None` when it is computed at run time.
    pub name: Option<String>,
    /// The parameter names, or `None` when they are computed.
    pub params: Option<Vec<String>>,
    /// The body; `None` when the command has the wrong number of arguments
    /// and defines nothing.
    pub body: Option<Arc<Body>>,
    /// Where the command sits.
    pub at: At,
}

/// The nesting cap shared by every analysis, the interpreter's default
/// `max_depth`: a script nested deeper is a [`State::TooDeep`] leaf.
pub(crate) const MAX_DEPTH: u32 = 64;

/// One parsed script: the whole source, a body, or a `[..]` substitution.
#[derive(Debug)]
pub(crate) struct Tree {
    pub cmds: Vec<Cmd>,
}

/// One command, with absolute spans and everything nested in it parsed.
#[derive(Debug)]
pub(crate) struct Cmd {
    /// Where the command starts in the original source.
    pub span: Span,
    /// The command's words (never empty); their spans are absolute too.
    pub words: Vec<Word>,
    /// Per word, its `[..]` parts in order.  Commands inside them are
    /// anchored at the containing word, not at their exact position.
    pub subs: Vec<Vec<Body>>,
    pub shape: Shape,
}

impl Cmd {
    /// The command name, when it is not computed at run time.
    pub fn name(&self) -> Option<&str> {
        self.words[0].static_text()
    }

    /// Argument `i`'s text (0-based, after the name), when static.
    pub fn arg_text(&self, i: usize) -> Option<&str> {
        self.words.get(i + 1).and_then(Word::static_text)
    }

    /// Every `[..]` part of every word, in evaluation order.
    pub fn scripts(&self) -> impl Iterator<Item = &Body> {
        self.subs.iter().flatten()
    }

    /// Every script nested in this command, with its role: the `[..]` parts
    /// of its words first, in evaluation order, then its shape's condition
    /// scripts and bodies in source order.
    pub fn children(&self) -> impl Iterator<Item = (Role, &Body)> {
        let (arms, cond, body): (&[Arm], _, _) = match &self.shape {
            Shape::If { arms, .. } => (arms, None, None),
            Shape::While { cond, body } => (&[], Some(cond), Some((Role::Loop, body))),
            Shape::Expr { cond } => (&[], Some(cond), None),
            Shape::Foreach { body } => (&[], None, Some((Role::Foreach, body))),
            Shape::Proc { body } => (&[], None, Some((Role::Proc, &**body))),
            Shape::Catch { body } => (&[], None, Some((Role::Catch, body))),
            Shape::Eval { body } => (&[], None, Some((Role::Eval, body))),
            Shape::Plain | Shape::Malformed => (&[], None, None),
        };
        let arms = arms.iter().flat_map(|arm| {
            let cond = arm.cond.iter().flat_map(Cond::scripts);
            cond.map(|body| (Role::Cond, body))
                .chain([(Role::Arm, &arm.body)])
        });
        let cond = cond.into_iter().flat_map(Cond::scripts);
        self.scripts()
            .map(|body| (Role::Subst, body))
            .chain(arms)
            .chain(cond.map(|body| (Role::Cond, body)))
            .chain(body)
    }

    /// Each variable of its scope the command assigns or unsets, in argument
    /// order: `set` with a value, `incr`, `append`, `lappend`, every `unset`
    /// argument, `foreach`'s variable and `catch`'s result variable.  A name
    /// that is computed, or missing from a command short of arguments, is
    /// any variable.  A one-argument `set` reads its variable: it binds
    /// nothing.
    pub fn bindings(&self) -> impl Iterator<Item = Binding<'_>> {
        let argc = self.words.len() - 1;
        let (args, unset) = match self.name() {
            Some("set") if argc == 1 => (0..0, false),
            Some("set" | "incr" | "append" | "lappend" | "foreach") => (0..1, false),
            Some("catch") if argc >= 2 => (1..2, false),
            Some("unset") => (0..argc, true),
            _ => (0..0, false),
        };
        args.map(move |i| Binding {
            name: self.arg_text(i),
            unset,
        })
    }

    /// How control leaves the command in `view`, with proc calls resolved
    /// through `calls`.
    pub fn exits(&self, view: View, calls: &Calls) -> Exits {
        let body = |body: &Body| body.exits(view, calls);
        let cond = |cond: &Cond| scripts(cond.scripts(), view, calls);
        scripts(self.scripts(), view, calls).then(match &self.shape {
            // The chain from its last arm back: a false condition goes on
            // down the chain, and past the last arm when it is not `else`.
            Shape::If { arms, .. } => arms.iter().rev().fold(Exits::NONE, |rest, arm| {
                let (taken, c) = (body(&arm.body), arm.cond.as_ref());
                c.map_or(taken, |c| cond(c).then(taken.or(rest)))
            }),
            Shape::While { cond: c, body: b } => cond(c).then(body(b).absorb(BREAK | CONTINUE)),
            Shape::Foreach { body: b } => body(b).absorb(BREAK | CONTINUE),
            Shape::Catch { body: b } => body(b).absorb(!HALT),
            Shape::Eval { body: b } => body(b),
            Shape::Expr { cond: c } => cond(c),
            Shape::Proc { .. } => Exits::NONE,
            Shape::Plain | Shape::Malformed => calls.plain(self),
        })
    }

    /// How the command leaves the block it runs in, whatever its arguments.
    pub fn leaves(&self) -> Option<Leave> {
        Some(match self.name()? {
            "return" => Leave::Return,
            "halt" => Leave::Halt,
            "break" => Leave::Break,
            "continue" => Leave::Continue,
            "error" => Leave::Error,
            _ => return None,
        })
    }

    /// What a growth command appends to the briefcase or a cabinet: for
    /// `bc_push folder value` and `cab_append cabinet folder value`, the
    /// folder or cabinet when static, and the value's word unless missing.
    pub fn growth(&self) -> Option<(Option<&str>, Option<&Word>)> {
        let payload = match self.name()? {
            "bc_push" => 2,
            "cab_append" => 3,
            _ => return None,
        };
        Some((self.arg_text(0), self.words.get(payload)))
    }
}

/// One variable a command binds ([`Cmd::bindings`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Binding<'c> {
    /// The variable, or `None` for any variable.
    pub name: Option<&'c str>,
    /// Removed rather than assigned.
    pub unset: bool,
}

/// How a command leaves its block ([`Cmd::leaves`]): `return`, `halt`,
/// `break`, `continue`, or `error`, which cannot complete normally.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Leave {
    Return,
    Halt,
    Break,
    Continue,
    Error,
}

const RETURN: u8 = 1 << Leave::Return as u8;
const HALT: u8 = 1 << Leave::Halt as u8;
const BREAK: u8 = 1 << Leave::Break as u8;
const CONTINUE: u8 = 1 << Leave::Continue as u8;
const ERROR: u8 = 1 << Leave::Error as u8;

/// How control may leave a command or a body, and whether it must: the
/// interpreter's rules, in one place ([`Cmd::exits`]); a body's are its
/// commands' in sequence.
///
/// `Error` is an error the script raises itself: `error`, or `break` or
/// `continue` out of a proc.  Any command may also fail (bad arguments, an
/// unknown name, an undefined variable), which no set holds: a failure
/// ends the run unsuccessfully, unless a `catch` absorbs it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Exits {
    /// One bit per [`Leave`].
    may: u8,
    /// Control never reaches the end normally: it leaves, or fails.
    pub must: bool,
}

impl Exits {
    /// Runs to its end.
    const NONE: Exits = Exits::new(0, false);
    /// A script the view cannot see into: it may leave any way.
    const ANY: Exits = Exits::new(RETURN | HALT | BREAK | CONTINUE | ERROR, false);

    const fn new(may: u8, must: bool) -> Exits {
        Exits { may, must }
    }

    /// `self`, then `next` when control gets there.
    fn then(self, next: Exits) -> Exits {
        Exits::new(self.may | next.may, self.must || next.must)
    }

    /// One of two paths.
    fn or(self, other: Exits) -> Exits {
        Exits::new(self.may | other.may, self.must && other.must)
    }

    /// Run by a construct that finishes normally when control leaves one of
    /// the `absorbed` ways.  None of them is certain to leave: a loop body
    /// may not run at all, a `catch` absorbs failures too, and a `[..]` or
    /// condition is taken to finish, so that code counts as unreachable
    /// only after a command that leaves by itself.
    fn absorb(self, absorbed: u8) -> Exits {
        Exits::new(self.may & !absorbed, false)
    }

    /// A proc body, as its call leaves: `return` finishes the call, `break`
    /// and `continue` raise an error, `halt` passes.  No call is certain to
    /// leave.
    fn call(self) -> Exits {
        let raises = if self.may(BREAK | CONTINUE) { ERROR } else { 0 };
        Exits::new(self.may & (HALT | ERROR) | raises, false)
    }

    /// Whether control may leave one of the `ways`: one of the questions
    /// below.
    pub fn may(self, ways: u8) -> bool {
        self.may & ways != 0
    }

    /// `halt` the whole script.
    pub const HALT: u8 = HALT;
    /// Skip the rest of a body on a run that succeeds: any way but `Error`.
    pub const CUT: u8 = !ERROR;
    /// End the loop whose body it is on a run that succeeds.
    pub const STOP: u8 = RETURN | HALT | BREAK;
    /// End the loop whose body it is, successfully or by raising an error.
    pub const END: u8 = !CONTINUE;
    /// Skip to the next iteration of the loop.
    pub const CONTINUE: u8 = CONTINUE;
}

/// What a nested script is to the command it sits in: a `[..]` part of a
/// word (`Subst`), a `[..]` script in an `if`, `while` or one-argument
/// `expr` condition (`Cond`), an `if` arm, a `while` (`Loop`), `foreach`,
/// `catch` or `proc` body, or an `eval` script.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Role {
    Subst,
    Cond,
    Arm,
    Loop,
    Foreach,
    Catch,
    Proc,
    Eval,
}

/// What a command is: its [`Control`] decoding, with the bodies and
/// conditions parsed.
#[derive(Debug)]
pub(crate) enum Shape {
    /// Anything that is not one of the shapes below: a computed command
    /// name, or a `proc` with the wrong number of arguments (it defines
    /// nothing, and only the arity error is left to report).
    Plain,
    /// The arms decoded before the chain ended or went wrong.
    If {
        arms: Vec<Arm>,
        fault: Option<IfFault>,
    },
    While {
        cond: Cond,
        body: Body,
    },
    /// `foreach var list body`; `var` and `list` stay words.
    Foreach {
        body: Body,
    },
    /// `proc name params body`; `name` and `params` stay words.  The body
    /// is shared with the [`Script`]'s proc table.
    Proc {
        body: Arc<Body>,
    },
    /// `catch body ?resultVar?`.
    Catch {
        body: Body,
    },
    /// `eval`: with several arguments the script is assembled at run time.
    Eval {
        body: Body,
    },
    /// One-argument `expr`, whose argument is a condition.
    Expr {
        cond: Cond,
    },
    /// `while`/`foreach`/`catch` with the wrong number of arguments: a
    /// runtime arity error, no body runs and nothing in it is parsed.
    Malformed,
}

/// One `cond body` pair of an `if` chain; `cond` is `None` for `else`.
#[derive(Debug)]
pub(crate) struct Arm {
    pub cond: Option<Cond>,
    pub body: Body,
}

/// A condition word, as `expr.rs` reads it once for the interpreter and
/// every analysis.
#[derive(Debug)]
pub(crate) struct Cond {
    /// Brace-quoted, so spans inside it are exact (see [`Body::braced`]).
    pub braced: bool,
    /// Its leaves, the `$name` reads and `[..]` scripts, in evaluation
    /// order: leaf `i` of `expr` is `parts[i]`.
    pub parts: Vec<CondPart>,
    /// The expression over `parts`, or its syntax error; `None` when the
    /// text is computed at run time.
    pub expr: Option<Result<Expr, ExprError>>,
}

impl Cond {
    /// The `[..]` scripts evaluated each time the condition is.
    pub fn scripts(&self) -> impl Iterator<Item = &Body> {
        self.parts.iter().filter_map(|part| match part {
            CondPart::Script(body) => Some(body),
            CondPart::Var(..) => None,
        })
    }

    /// The variable leaf `i` reads, when it is a `$name`.
    pub fn var(&self, i: usize) -> Option<&str> {
        match self.parts.get(i)? {
            CondPart::Var(name, _) => Some(name),
            CondPart::Script(_) => None,
        }
    }
}

#[derive(Debug)]
pub(crate) enum CondPart {
    /// `$name` or `${name}`, with the position of the `$`.
    Var(String, Span),
    Script(Body),
}

/// A nested script: a control-flow body or a `[..]` substitution.
#[derive(Debug)]
pub(crate) struct Body {
    state: State,
    braced: bool,
}

#[derive(Debug)]
pub(crate) enum State {
    Parsed(Tree),
    /// The text is computed at run time.
    Computed,
    /// The text does not parse; the error's position is absolute.
    Bad(ParseError),
    /// Nested deeper than [`MAX_DEPTH`]; not parsed.
    TooDeep,
}

impl Body {
    /// A script assembled at run time: nothing to parse.
    fn computed() -> Body {
        Body {
            state: State::Computed,
            braced: false,
        }
    }

    /// The body as `view` sees it: in the braced view, a bare literal
    /// (`if {$x} break`) counts as computed.
    pub fn view(&self, view: View) -> &State {
        match view {
            View::Braced if !self.braced => &State::Computed,
            _ => &self.state,
        }
    }

    /// How control leaves the body in `view` ([`Cmd::exits`]).
    pub fn exits(&self, view: View, calls: &Calls) -> Exits {
        match self.view(view) {
            State::Parsed(tree) => tree.exits(view, calls),
            _ => Exits::ANY,
        }
    }
}

impl Tree {
    /// Parses `src` and everything nested in it.  Fails only when the source
    /// itself does not parse; nested failures become [`State::Bad`].
    pub fn parse(src: &str) -> Result<Tree, ParseError> {
        build(src, Span::START, 0)
    }

    /// How control leaves the tree in `view` ([`Cmd::exits`]).
    pub fn exits(&self, view: View, calls: &Calls) -> Exits {
        let cmds = self.cmds.iter().map(|cmd| cmd.exits(view, calls));
        cmds.fold(Exits::NONE, Exits::then)
    }
}

/// `[..]` parts and condition scripts, in order: each finishes normally
/// unless its script raises an error.
fn scripts<'b>(scripts: impl Iterator<Item = &'b Body>, view: View, calls: &Calls) -> Exits {
    let scripts = scripts.map(|body| body.exits(view, calls).absorb(!ERROR));
    scripts.fold(Exits::NONE, Exits::then)
}

/// Which text of a nested script an analysis follows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum View {
    /// taco-vet's and taco-audit's: brace-quoted text and `[..]` parts only;
    /// a bare literal body counts as computed.
    Braced,
    /// taco-cost's: any statically known text.
    Literal,
}

/// Where a command sits relative to the script a [`walk`] starts from.
#[derive(Debug, Clone, Copy)]
pub(crate) struct At {
    /// Directly in that script.
    pub top: bool,
    /// Reached through brace-quoted text only.
    pub braced: bool,
    /// Runs in that script's scope: not in a `proc` body or `eval` script.
    pub in_scope: bool,
    pub in_catch: bool,
    /// In the body of a proc whose name is computed, which nothing calls.
    pub hidden: bool,
}

impl At {
    /// The script the walk starts from.
    pub const ROOT: At = At {
        top: true,
        braced: true,
        in_scope: true,
        in_catch: false,
        hidden: false,
    };

    /// Where `cmd`'s child `body`, in `role`, sits.
    fn enter(self, cmd: &Cmd, role: Role, body: &Body) -> At {
        At {
            top: false,
            braced: self.braced && body.braced,
            in_scope: self.in_scope && !matches!(role, Role::Proc | Role::Eval),
            in_catch: self.in_catch || role == Role::Catch,
            hidden: self.hidden || (role == Role::Proc && cmd.arg_text(0).is_none()),
        }
    }
}

/// What a [`walk`] shows its visitor: a command (after its `[..]` parts,
/// before its other children), or a nested script with no tree in the
/// walk's view (computed, unparsable or nested too deep).
pub(crate) enum Step<'t> {
    Cmd(&'t Cmd),
    Opaque(&'t State),
}

/// The one walk over [`Cmd::children`] that the analyses' flow-insensitive
/// questions share: shows `visit` every step under `tree` in `view`, depth
/// first in evaluation order, and stops at the first step it answers
/// `true`, returning whether there was one.
pub(crate) fn walk<F>(tree: &Tree, view: View, at: At, visit: &mut F) -> bool
where
    F: FnMut(Step, At) -> bool,
{
    tree.cmds.iter().any(|cmd| {
        let mut children = cmd.children().peekable();
        let mut subs = iter::from_fn(|| children.next_if(|(role, _)| *role == Role::Subst));
        let child = |(role, body): (Role, &Body), visit: &mut F| {
            walk_body(body, view, at.enter(cmd, role, body), visit)
        };
        subs.any(|c| child(c, visit))
            || visit(Step::Cmd(cmd), at)
            || children.any(|c| child(c, visit))
    })
}

/// [`walk`] from a nested script.
pub(crate) fn walk_body<F>(body: &Body, view: View, at: At, visit: &mut F) -> bool
where
    F: FnMut(Step, At) -> bool,
{
    match body.view(view) {
        State::Parsed(tree) => walk(tree, view, at, visit),
        state => visit(Step::Opaque(state), at),
    }
}

/// The question behind taco-cost's write sets, a call's unsets and the
/// loop-exit verdict's condition writes: does a command that runs in
/// `body`'s scope answer `hit`?  `hit` sees commands with a static name.
/// What the walk cannot see into answers yes: a computed command name, an
/// `eval`, text that does not parse or nests too deep, and in the literal
/// view also a computed body, a control command with the wrong number of
/// arguments and an `if` chain that went wrong.
pub(crate) fn any_in_scope(
    body: &Body,
    view: View,
    mut hit: impl FnMut(&str, &Cmd, At) -> bool,
) -> bool {
    let strict = view == View::Literal;
    walk_body(body, view, At::ROOT, &mut |step, at| {
        at.in_scope
            && match step {
                Step::Opaque(state) => strict || !matches!(state, State::Computed),
                Step::Cmd(cmd) => match (cmd.name(), &cmd.shape) {
                    (None, _) | (_, Shape::Eval { .. }) => true,
                    (_, Shape::Malformed | Shape::If { fault: Some(_), .. }) if strict => true,
                    (Some(name), _) => hit(name, cmd, at),
                },
            }
    })
}

/// Maps a span relative to an embedded script (braced body, condition text,
/// bracketed substitution) to an absolute span in the original source.
fn map_span(base: Span, rel: Span) -> Span {
    if rel.line == 1 {
        Span::new(base.line, base.col + rel.col - 1)
    } else {
        Span::new(base.line + rel.line - 1, rel.col)
    }
}

/// Where a word's *content* starts: one past the `{` of a braced word.
fn content_base(word: &Word) -> Span {
    match word.kind {
        WordKind::Braced(_) => Span::new(word.span.line, word.span.col + 1),
        WordKind::Parts(_) => word.span,
    }
}

#[cfg(test)]
thread_local! {
    /// `parse_script` calls made by this thread's tree builds.
    static PARSES: std::cell::Cell<u32> = const { std::cell::Cell::new(0) };
}

fn build(src: &str, base: Span, depth: u32) -> Result<Tree, ParseError> {
    #[cfg(test)]
    PARSES.with(|n| n.set(n.get() + 1));
    let cmds = parse_script(src).map_err(|e| {
        let at = map_span(base, e.span());
        ParseError {
            line: at.line,
            col: at.col,
            ..e
        }
    })?;
    let cmds = cmds.into_iter().map(|cmd| {
        let mut words = cmd.words;
        for word in &mut words {
            word.span = map_span(base, word.span);
        }
        let subs = words.iter().map(|word| match &word.kind {
            WordKind::Braced(_) => Vec::new(),
            WordKind::Parts(parts) => parts
                .iter()
                .filter_map(|part| match part {
                    WordPart::Command(script) => Some(nested(script, word.span, depth, true)),
                    _ => None,
                })
                .collect(),
        });
        Cmd {
            span: map_span(base, cmd.span),
            subs: subs.collect(),
            shape: decode(&words, depth),
            words,
        }
    });
    Ok(Tree {
        cmds: cmds.collect(),
    })
}

/// Parses a script nested in one at `depth`.
fn nested(text: &str, base: Span, depth: u32, braced: bool) -> Body {
    let state = if depth >= MAX_DEPTH {
        State::TooDeep
    } else {
        match build(text, base, depth + 1) {
            Ok(tree) => State::Parsed(tree),
            Err(e) => State::Bad(e),
        }
    };
    Body { state, braced }
}

fn body_of(word: &Word, depth: u32) -> Body {
    match word.static_text() {
        Some(text) => {
            let braced = matches!(word.kind, WordKind::Braced(_));
            nested(text, content_base(word), depth, braced)
        }
        None => Body::computed(),
    }
}

/// The condition of an `if` or `elseif` arm, a `while` or a one-argument
/// `expr`.  A computed condition (`if $c`) is substituted once more when it
/// is evaluated, which runs whatever `[..]` scripts its value holds: known
/// only then, so its one part is a computed script.
fn cond_of(word: &Word, depth: u32) -> Cond {
    let base = content_base(word);
    let (parts, expr) = match word.static_text().map(read) {
        Some(Reading { leaves, expr }) => {
            let parts = leaves.into_iter().map(|(at, leaf)| match leaf {
                Leaf::Var(name) => CondPart::Var(name.to_string(), map_span(base, at)),
                Leaf::Script(script) => {
                    let inner = map_span(base, Span::new(at.line, at.col + 1));
                    CondPart::Script(nested(script, inner, depth, true))
                }
            });
            (parts.collect(), Some(expr))
        }
        None => (vec![CondPart::Script(Body::computed())], None),
    };
    Cond {
        braced: matches!(word.kind, WordKind::Braced(_)),
        parts,
        expr,
    }
}

fn decode(words: &[Word], depth: u32) -> Shape {
    let args = &words[1..];
    let body = |i: usize| body_of(&args[i], depth);
    let cond = |i: usize| cond_of(&args[i], depth);
    let Some(kind) = words[0]
        .static_text()
        .and_then(|name| control(name, args.len()))
    else {
        return Shape::Plain;
    };
    match kind {
        Control::If => {
            let (mut arms, mut fault) = (Vec::new(), None);
            let text = |i: usize| args.get(i).and_then(Word::static_text);
            for clause in if_chain(args.len(), text) {
                match clause {
                    Ok(clause) => arms.push(Arm {
                        cond: clause.cond.map(cond),
                        body: body(clause.body),
                    }),
                    Err(stop) => fault = Some(stop),
                }
            }
            Shape::If { arms, fault }
        }
        Control::While => Shape::While {
            cond: cond(0),
            body: body(1),
        },
        Control::Foreach => Shape::Foreach { body: body(2) },
        Control::Proc => Shape::Proc {
            body: Arc::new(body(2)),
        },
        Control::Catch => Shape::Catch { body: body(0) },
        Control::Eval => Shape::Eval { body: body(0) },
        Control::EvalJoined => Shape::Eval {
            body: Body::computed(),
        },
        Control::Expr => Shape::Expr { cond: cond(0) },
        Control::Malformed => Shape::Malformed,
    }
}

/// The bounded-script grammar `tests/cost_props.rs` drives the interpreter
/// with; the property test below builds trees from the same scripts.
#[cfg(test)]
#[path = "../tests/common/grammar.rs"]
mod grammar;

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The deepest parsed script under `tree` (the root is at depth 0).
    fn depth(tree: &Tree) -> u32 {
        let nested = tree.cmds.iter().flat_map(Cmd::children);
        nested
            .filter_map(|(_, body)| match body.view(View::Literal) {
                State::Parsed(inner) => Some(1 + depth(inner)),
                _ => None,
            })
            .max()
            .unwrap_or(0)
    }

    /// Every command reached through brace-quoted text only — bodies, and
    /// the `[..]` scripts of brace-quoted conditions — carries a span that
    /// lands on the first byte of its first word in the original source.
    fn assert_spans_are_absolute(tree: &Tree, src: &str) {
        for cmd in &tree.cmds {
            assert_eq!(cmd.span, cmd.words[0].span);
            let line = src.split('\n').nth(cmd.span.line as usize - 1);
            let first = line
                .and_then(|line| line.chars().nth(cmd.span.col as usize - 1))
                .unwrap_or_else(|| panic!("{} is outside the source:\n{src}", cmd.span));
            let ok = match (&cmd.words[0].kind, first) {
                (WordKind::Braced(_), c) => c == '{',
                // Quotes and escapes rewrite the text; only the position of
                // the word is checked.
                (WordKind::Parts(_), '"' | '\\') => true,
                (WordKind::Parts(parts), c) => match &parts[0] {
                    WordPart::Literal(text) => text.starts_with(c),
                    WordPart::Variable(_) => c == '$',
                    WordPart::Command(_) => c == '[',
                },
            };
            assert!(
                ok,
                "{} points at {first:?}, not at {cmd:?}:\n{src}",
                cmd.span
            );

            let exact = |body: &&Body| body.braced;
            let bodies: Vec<&Body> = match &cmd.shape {
                Shape::If { arms, .. } => arms
                    .iter()
                    .flat_map(|arm| {
                        let cond = arm.cond.iter().filter(|cond| cond.braced);
                        cond.flat_map(Cond::scripts).chain([&arm.body])
                    })
                    .collect(),
                Shape::While { cond, body } if !cond.braced => vec![body],
                Shape::Expr { cond } if !cond.braced => Vec::new(),
                _ => cmd
                    .children()
                    .filter(|(role, _)| *role != Role::Subst)
                    .map(|(_, body)| body)
                    .collect(),
            };
            for body in bodies.into_iter().filter(exact) {
                if let State::Parsed(inner) = body.view(View::Literal) {
                    assert_spans_are_absolute(inner, src);
                }
            }
        }
    }

    fn check(src: &str) {
        if let Ok(tree) = Tree::parse(src) {
            assert!(depth(&tree) <= MAX_DEPTH, "{src}");
            assert_spans_are_absolute(&tree, src);
        }
    }

    #[test]
    fn nesting_stops_at_the_cap() {
        for (open, close) in [("if {1} {", "}"), ("catch {", "}"), ("set x [expr ", "]")] {
            for levels in [3, 64, 65, 200] {
                let src = format!("{}{}", open.repeat(levels), close.repeat(levels));
                let tree = Tree::parse(&src).expect("balanced");
                assert_eq!(depth(&tree), levels.min(MAX_DEPTH as usize) as u32, "{src}");
                assert_spans_are_absolute(&tree, &src);
            }
        }
    }

    #[test]
    fn nested_parse_errors_keep_their_absolute_position() {
        let tree = Tree::parse("set a 1\nif {$a} {\n  puts \"open\n}").expect("top level parses");
        let Shape::If { arms, .. } = &tree.cmds[1].shape else {
            panic!("not an if: {:?}", tree.cmds[1]);
        };
        let State::Bad(e) = arms[0].body.view(View::Literal) else {
            panic!("the body parsed: {:?}", arms[0].body);
        };
        assert_eq!(e.span(), Span::new(4, 1));
    }

    /// The `parse_script` calls `f` makes on this thread.
    fn parses(f: impl FnOnce()) -> u32 {
        PARSES.with(|n| n.set(0));
        f();
        PARSES.with(std::cell::Cell::get)
    }

    #[test]
    fn the_three_gates_share_one_parse() {
        let src = include_str!("../../../examples/scripts/hop_counter.taco");
        let alone = parses(|| {
            Tree::parse(src).expect("parses");
        });
        assert_eq!(alone, 10);
        let config = crate::AnalysisConfig::new();
        let gates = parses(|| {
            let script = Script::parse(src);
            assert!(script.vet(&config).is_ok());
            script.summary().expect("parses");
            script.cost().expect("parses");
        });
        assert_eq!(gates, alone);
        // Each text entry point is a record of its own.
        let text = parses(|| {
            assert!(crate::vet(src, &config).is_ok());
            crate::summarize(src).expect("parses");
            crate::cost_bound(src).expect("parses");
        });
        assert_eq!(text, 3 * alone);
    }

    #[test]
    fn the_proc_table_serves_both_views() {
        let script = Script::parse(
            "proc a {x} {proc b {} {}}\nif 1 \"proc c {y z} {}\"\n\
             proc [pick] {} {proc d {} {}}\nproc e {w}",
        );
        let row = |def: &ProcDef| {
            let name = def.name.as_deref().unwrap_or("?");
            let params = def.params.as_ref().map_or(0, Vec::len);
            (
                name.to_string(),
                params,
                def.body.is_some(),
                def.at.braced,
                def.at.hidden,
            )
        };
        let rows: Vec<_> = script.procs.iter().map(row).collect();
        let want = [
            ("a", 1, true, true, false),
            ("b", 0, true, true, false),
            ("c", 2, true, false, false),
            ("?", 0, true, true, false),
            ("d", 0, true, true, true),
            ("e", 1, false, true, false),
        ];
        let want: Vec<_> = want
            .iter()
            .map(|&(name, params, body, braced, hidden)| {
                (name.to_string(), params, body, braced, hidden)
            })
            .collect();
        assert_eq!(rows, want);
    }

    proptest! {
        #[test]
        fn bounded_grammar_builds_with_absolute_spans(seed in any::<u64>()) {
            let src = grammar::build_script(seed);
            prop_assert!(Tree::parse(&src).is_ok(), "{src}");
            check(&src);
        }

        #[test]
        fn ascii_soup_never_panics(src in "[ -~\n\t]{0,200}") {
            check(&src);
        }

        #[test]
        fn tcl_soup_never_panics(src in "[{}$\\[\\]\"; \nsetwhileafobcx0-9]{0,160}") {
            check(&src);
        }
    }
}
