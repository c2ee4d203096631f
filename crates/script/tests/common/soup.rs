//! Statement soup and mutated examples: the script generators that
//! `cost_differential.rs` and `audit_differential.rs` share, which include
//! this file by path.
//!
//! Soup is no grammar's promise: commands over a few shared variable and
//! proc names — `unset`, counted and uncounted loops, procs that call each
//! other, `[..]`, `catch`, `eval`, and `return`, `halt`, `break` and
//! `continue` anywhere, nested.  A differential adds commands of its own
//! through [`Soup::extra`]; with none, a seed gives the script it always
//! gave.

use proptest::TestRng;

/// The shipped example scripts [`Soup::mutated`] starts from.
const EXAMPLES: &[&str] = &[
    include_str!("../../../../examples/scripts/courier_summary.taco"),
    include_str!("../../../../examples/scripts/guestbook_reader.taco"),
    include_str!("../../../../examples/scripts/hop_counter.taco"),
    include_str!("../../../../examples/scripts/quickstart_tour.taco"),
    include_str!("../../../../examples/scripts/retry_meet.taco"),
];

pub const VARS: &[&str] = &["a", "b", "i", "n"];
const PROCS: &[&str] = &["f", "g"];

pub fn pick<'a>(rng: &mut TestRng, from: &[&'a str]) -> &'a str {
    from[rng.below(from.len() as u64) as usize]
}

/// A soup generator.
pub struct Soup {
    /// Commands drawn alongside the shared ones, at every depth.
    pub extra: &'static [fn(&mut TestRng) -> String],
}

impl Soup {
    /// One to three soup commands, nested `depth` levels deep.
    pub fn body(&self, rng: &mut TestRng, depth: u32) -> String {
        let count = 1 + rng.below(3);
        let cmds: Vec<String> = (0..count).map(|_| self.cmd(rng, depth)).collect();
        cmds.join("\n")
    }

    fn cmd(&self, rng: &mut TestRng, depth: u32) -> String {
        let (v, w, f) = (pick(rng, VARS), pick(rng, VARS), pick(rng, PROCS));
        let k = rng.below(4);
        let shared = if depth < 3 { 22 } else { 12 };
        let choice = rng.below(shared + self.extra.len() as u64);
        if let Some(extra) = choice.checked_sub(shared) {
            return self.extra[extra as usize](rng);
        }
        let nested = |rng: &mut TestRng| self.body(rng, depth + 1);
        match choice {
            0 => format!("set {v} {k}"),
            1 => format!("incr {v}"),
            2 => format!("unset {v}"),
            3 => format!("unset {v} {w}"),
            4 => format!("set {v} [expr ${w} + {k}]"),
            5 => pick(rng, &["return", "return $a", "halt", "halt done"]).to_string(),
            6 => "break".to_string(),
            7 => "continue".to_string(),
            8 => format!("bc_push OUT {k}"),
            9 => f.to_string(),
            10 => format!("set {v} [{f}]"),
            11 => format!("error {v}"),
            12 => {
                let (then, other) = (nested(rng), nested(rng));
                format!("if {{${v} < {k}}} {{\n{then}\n}} else {{\n{other}\n}}")
            }
            13 => format!("if {{{}}} {{\n{}\n}}", rng.below(2), nested(rng)),
            14 => format!(
                "set {v} 0\nwhile {{${v} < {k}}} {{\n{}\nincr {v}\n}}",
                nested(rng)
            ),
            15 => format!("while {{${v} < {k}}} {{\n{}\n}}", nested(rng)),
            16 => format!("foreach {v} {{1 2 3}} {{\n{}\n}}", nested(rng)),
            17 => format!("catch {{\n{}\n}} {w}", nested(rng)),
            18 => format!("proc {f} {{}} {{\n{}\n}}", nested(rng)),
            19 => format!("set {v} [{}]", self.cmd(rng, depth + 1).replace('\n', ";")),
            20 => format!("eval {{\n{}\n}}", nested(rng)),
            _ => format!(
                "if {{0}} {{set {v} 1}} elseif {{1}} {{\n{}\n}}",
                nested(rng)
            ),
        }
    }

    /// A shipped script with one to three lines deleted, duplicated,
    /// swapped or replaced by soup.
    pub fn mutated(&self, rng: &mut TestRng) -> String {
        let example = EXAMPLES[rng.below(EXAMPLES.len() as u64) as usize];
        let mut lines: Vec<String> = example.lines().map(str::to_string).collect();
        for _ in 0..1 + rng.below(3) {
            let at = rng.below(lines.len() as u64) as usize;
            match rng.below(4) {
                0 => {
                    lines.remove(at);
                }
                1 => lines.insert(at, lines[at].clone()),
                2 => {
                    let other = rng.below(lines.len() as u64) as usize;
                    lines.swap(at, other);
                }
                _ => lines.insert(at, self.cmd(rng, 1)),
            }
            if lines.is_empty() {
                break;
            }
        }
        lines.join("\n")
    }
}
