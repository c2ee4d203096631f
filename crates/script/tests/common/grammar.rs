//! The bounded-script grammar shared by `cost_props.rs` (soundness of the
//! cost bounds against the interpreter), `cost_differential.rs`,
//! `audit_props.rs` and the parsed tree's property test in `src/tree.rs`,
//! which include this file by path.

/// Deterministic splitmix64 stream driving the script builder, so each
/// proptest case (one `u64` of entropy) expands to one reproducible script.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound
    }
}

/// The innermost loop around a statement, within its proc body or script:
/// `break` is clean in either, `continue` only in a `foreach`, because a
/// `while` steps its counter at the end of its body.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Loop {
    None,
    While,
    Foreach,
}

/// Where a statement goes.
#[derive(Clone, Copy)]
struct At {
    depth: u32,
    within: Loop,
    /// In a proc body, where a new proc would be defined only when the
    /// body runs.
    in_proc: bool,
}

impl At {
    fn nested(self, within: Loop) -> At {
        At {
            depth: self.depth + 1,
            within,
            ..self
        }
    }
}

/// The builder's state: its random stream, the next fresh name, and the
/// procs defined at the top of the script so far, which any later
/// statement may call.
struct Builder {
    g: Gen,
    fresh: u32,
    procs: Vec<String>,
}

impl Builder {
    fn fresh(&mut self, prefix: &str) -> String {
        self.fresh += 1;
        format!("{prefix}{}", self.fresh)
    }

    /// A condition over a literal or a known variable.
    fn cond(&mut self, vars: &[String]) -> String {
        match vars.last() {
            Some(v) if self.g.below(2) == 0 => format!("${v} < 50"),
            _ => format!("{}", self.g.below(2)),
        }
    }

    /// Statements for a nested body; `vars` are what it may read.
    fn body(&mut self, at: At, vars: &[String], count: u64) -> String {
        let mut body = String::new();
        let mut inner = vars.to_vec();
        for _ in 0..count {
            self.statement(at, &mut inner, &mut body);
        }
        body
    }

    /// Appends one random statement to `out`.  Every construct the builder
    /// can emit is statically bounded and runtime-clean: fresh counter
    /// variables per loop, only previously-`set` variables are read (an
    /// `unset` one only after `incr` re-creates it), all commands exist,
    /// and control leaves early only where the interpreter allows it.
    fn statement(&mut self, at: At, vars: &mut Vec<String>, out: &mut String) {
        let choice = if at.depth >= 2 {
            [0, 1, 2, 3, 4, 5, 10, 11, 12][self.g.below(9) as usize]
        } else {
            self.g.below(15)
        };
        match choice {
            // Plain assignment: introduces a readable variable.
            0 => {
                let v = self.fresh("v");
                out.push_str(&format!("set {v} {}\n", self.g.below(100)));
                vars.push(v);
            }
            // Arithmetic on a literal expr.
            1 => {
                let v = self.fresh("v");
                let (a, b) = (self.g.below(50), self.g.below(50));
                out.push_str(&format!("set {v} [expr {a} + {b}]\n"));
                vars.push(v);
            }
            // Briefcase growth (NullHost absorbs it; the analysis must
            // bound it).
            2 => out.push_str(&format!("bc_push OUT payload{}\n", self.g.below(10))),
            // incr on an existing variable, or a fresh set when none exists.
            3 => match vars.last() {
                Some(v) => out.push_str(&format!("incr {v} {}\n", 1 + self.g.below(3))),
                None => {
                    let v = self.fresh("v");
                    out.push_str(&format!("set {v} 0\n"));
                    vars.push(v);
                }
            },
            // `unset` of a fresh variable and an existing one, which `incr`
            // re-creates from 0.
            4 => {
                let gone = self.fresh("u");
                out.push_str(&format!("set {gone} {}\n", self.g.below(100)));
                match vars.last() {
                    Some(v) => {
                        let by = self.g.below(3);
                        out.push_str(&format!("unset {gone} {v}\nincr {v} {by}\n"));
                    }
                    None => out.push_str(&format!("unset {gone}\n")),
                }
            }
            // `append` and `lappend` on a fresh variable, never read as a
            // number.
            5 => {
                let s = self.fresh("s");
                let (a, b) = (self.g.below(10), self.g.below(10));
                out.push_str(&format!("append {s} a{a}\nlappend {s} b{b} c\n"));
            }
            // Counted while loop over a fresh counter.
            6 => {
                let i = self.fresh("i");
                let bound = self.g.below(6);
                let count = 1 + self.g.below(2);
                let body = self.body(at.nested(Loop::While), vars, count);
                out.push_str(&format!(
                    "set {i} 0\nwhile {{${i} < {bound}}} {{\n{body}incr {i}\n}}\n"
                ));
            }
            // foreach over a literal list.
            7 => {
                // Numeric items so body statements may `incr`/compare the
                // iteration variable without tripping a runtime type error.
                let n = 1 + self.g.below(4);
                let items: Vec<String> = (0..n).map(|k| k.to_string()).collect();
                let x = self.fresh("x");
                let mut inner = vars.clone();
                inner.push(x.clone());
                let count = 1 + self.g.below(2);
                let body = self.body(at.nested(Loop::Foreach), &inner, count);
                out.push_str(&format!(
                    "foreach {x} {{{}}} {{\n{body}}}\n",
                    items.join(" ")
                ));
            }
            // `catch` of a statement, with a fresh result variable.
            8 => {
                let r = self.fresh("r");
                let body = self.body(at.nested(at.within), vars, 1);
                out.push_str(&format!("catch {{\n{body}}} {r}\n"));
            }
            // Two-way branch on a literal or a known variable.
            9 => {
                let cond = self.cond(vars);
                let then_b = self.body(at.nested(at.within), vars, 1);
                let else_b = self.body(at.nested(at.within), vars, 1);
                out.push_str(&format!(
                    "if {{{cond}}} {{\n{then_b}}} else {{\n{else_b}}}\n"
                ));
            }
            // An early exit from the script or proc body.
            10 => {
                let cond = self.cond(vars);
                let how = ["return", "halt"][self.g.below(2) as usize];
                out.push_str(&format!(
                    "if {{{cond}}} {{{how} out{}}}\n",
                    self.g.below(10)
                ));
            }
            // An early exit from the innermost loop, where there is one.
            11 => {
                let cond = self.cond(vars);
                let how = match at.within {
                    Loop::Foreach if self.g.below(2) == 0 => "continue",
                    Loop::Foreach | Loop::While => "break",
                    Loop::None => "halt",
                };
                out.push_str(&format!("if {{{cond}}} {{{how}}}\n"));
            }
            // `halt` passes `catch`.
            12 => out.push_str("catch {halt}\n"),
            // A proc, called at once.  Its body reads only its own
            // variables, so an `unset` in it cannot reach its caller's; it
            // may call the procs defined before it.
            13 => {
                let f = self.fresh("p");
                let inner = At {
                    depth: at.depth + 1,
                    within: Loop::None,
                    in_proc: true,
                };
                let count = 1 + self.g.below(3);
                let body = self.body(inner, &[], count);
                out.push_str(&format!("proc {f} {{}} {{\n{body}}}\n{f}\n"));
                if at.depth == 0 && !at.in_proc {
                    self.procs.push(f);
                }
            }
            // A call of a proc defined earlier at the top of the script.
            _ => match self.procs.len() as u64 {
                0 => out.push_str("bc_push OUT none\n"),
                n => {
                    let f = &self.procs[self.g.below(n) as usize];
                    out.push_str(&format!("{f}\n"));
                }
            },
        }
    }
}

/// Builds one random bounded script from a 64-bit seed.
pub fn build_script(seed: u64) -> String {
    let mut b = Builder {
        g: Gen(seed),
        fresh: 0,
        procs: Vec::new(),
    };
    let mut out = String::new();
    let mut vars = Vec::new();
    let top = At {
        depth: 0,
        within: Loop::None,
        in_proc: false,
    };
    for _ in 0..1 + b.g.below(6) {
        b.statement(top, &mut vars, &mut out);
    }
    out
}
