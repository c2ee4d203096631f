//! The bounded-script grammar shared by `cost_props.rs` (soundness of the
//! cost bounds against the interpreter) and the parsed tree's property test
//! in `src/tree.rs`, which includes this file by path.

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

/// Appends one random statement to `out`.  Every construct the builder can
/// emit is statically bounded and runtime-clean: fresh counter variables per
/// loop, only previously-`set` variables are read (an `unset` one only after
/// `incr` re-creates it), and all commands exist.
fn push_statement(
    g: &mut Gen,
    depth: u32,
    fresh: &mut u32,
    vars: &mut Vec<String>,
    out: &mut String,
) {
    let choice = if depth >= 2 { g.below(6) } else { g.below(10) };
    match choice {
        // Plain assignment: introduces a readable variable.
        0 => {
            let v = format!("v{}", *fresh);
            *fresh += 1;
            out.push_str(&format!("set {v} {}\n", g.below(100)));
            vars.push(v);
        }
        // Arithmetic on a literal expr.
        1 => {
            let v = format!("v{}", *fresh);
            *fresh += 1;
            out.push_str(&format!(
                "set {v} [expr {} + {}]\n",
                g.below(50),
                g.below(50)
            ));
            vars.push(v);
        }
        // Briefcase growth (NullHost absorbs it; the analysis must bound it).
        2 => {
            out.push_str(&format!("bc_push OUT payload{}\n", g.below(10)));
        }
        // incr on an existing variable, or a fresh set when none exists.
        3 => match vars.last() {
            Some(v) => out.push_str(&format!("incr {v} {}\n", 1 + g.below(3))),
            None => {
                let v = format!("v{}", *fresh);
                *fresh += 1;
                out.push_str(&format!("set {v} 0\n"));
                vars.push(v);
            }
        },
        // `unset` of a fresh variable and an existing one, which `incr`
        // re-creates from 0.
        4 => {
            let gone = format!("u{}", *fresh);
            *fresh += 1;
            out.push_str(&format!("set {gone} {}\n", g.below(100)));
            match vars.last() {
                Some(v) => out.push_str(&format!("unset {gone} {v}\nincr {v} {}\n", g.below(3))),
                None => out.push_str(&format!("unset {gone}\n")),
            }
        }
        // `append` and `lappend` on a fresh variable, never read as a number.
        5 => {
            let s = format!("s{}", *fresh);
            *fresh += 1;
            out.push_str(&format!(
                "append {s} a{}\nlappend {s} b{} c\n",
                g.below(10),
                g.below(10)
            ));
        }
        // Counted while loop over a fresh counter.
        6 => {
            let i = format!("i{}", *fresh);
            *fresh += 1;
            let bound = g.below(6);
            let mut body = String::new();
            let mut inner = vars.clone();
            for _ in 0..=g.below(2) {
                push_statement(g, depth + 1, fresh, &mut inner, &mut body);
            }
            body.push_str(&format!("incr {i}"));
            out.push_str(&format!(
                "set {i} 0\nwhile {{${i} < {bound}}} {{\n{body}\n}}\n"
            ));
        }
        // foreach over a literal list.
        7 => {
            // Numeric items so body statements may `incr`/compare the
            // iteration variable without tripping a runtime type error.
            let n = 1 + g.below(4);
            let items: Vec<String> = (0..n).map(|k| k.to_string()).collect();
            let x = format!("x{}", *fresh);
            *fresh += 1;
            let mut body = String::new();
            let mut inner = vars.clone();
            inner.push(x.clone());
            for _ in 0..=g.below(2) {
                push_statement(g, depth + 1, fresh, &mut inner, &mut body);
            }
            if body.is_empty() {
                body.push_str(&format!("set copy ${x}"));
            }
            out.push_str(&format!(
                "foreach {x} {{{}}} {{\n{body}\n}}\n",
                items.join(" ")
            ));
        }
        // `catch` of a statement, with a fresh result variable.
        8 => {
            let r = format!("r{}", *fresh);
            *fresh += 1;
            let mut body = String::new();
            push_statement(g, depth + 1, fresh, &mut vars.clone(), &mut body);
            out.push_str(&format!("catch {{\n{body}\n}} {r}\n"));
        }
        // Two-way branch on a literal or a known variable.
        _ => {
            let cond = match vars.last() {
                Some(v) if g.below(2) == 0 => format!("${v} < 50"),
                _ => format!("{}", g.below(2)),
            };
            let mut then_b = String::new();
            let mut else_b = String::new();
            let mut inner = vars.clone();
            push_statement(g, depth + 1, fresh, &mut inner, &mut then_b);
            let mut inner = vars.clone();
            push_statement(g, depth + 1, fresh, &mut inner, &mut else_b);
            out.push_str(&format!(
                "if {{{cond}}} {{\n{then_b}\n}} else {{\n{else_b}\n}}\n"
            ));
        }
    }
}

/// Builds one random bounded script from a 64-bit seed.
pub fn build_script(seed: u64) -> String {
    let mut g = Gen(seed);
    let mut out = String::new();
    let mut fresh = 0u32;
    let mut vars = Vec::new();
    let statements = 1 + g.below(6);
    for _ in 0..statements {
        push_statement(&mut g, 0, &mut fresh, &mut vars, &mut out);
    }
    out
}
