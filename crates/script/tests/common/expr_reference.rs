//! The reading of `if`/`while`/`expr` conditions the interpreter used
//! before `expr.rs` became the one reader of condition text, kept as the
//! reference `expr_differential.rs` compares the interpreter against:
//! `pieces` splits the text at its `$name` reads and `[..]` scripts, each
//! value is spliced back into the text (double-quoted and escaped, or
//! verbatim where an odd number of `"` came before it), and the spliced
//! text is tokenized and evaluated again.  The one intended change is that
//! a value inside a quoted string is now string content.

use tacoma_script::expr::ExprError;
use tacoma_script::value::num_to_string;
use tacoma_script::{Interp, ScriptError};

/// A piece of condition text.
enum Piece<'a> {
    Text(&'a str),
    Var(&'a str),
    Script(&'a str),
}

/// The name after a `$`: `{...}` to the closing brace (or the end), or a
/// run of alphanumerics and `_`.
fn var_name(rest: &str) -> (&str, usize) {
    if let Some(braced) = rest.strip_prefix('{') {
        let name = braced.split('}').next().unwrap_or_default();
        let used = (1 + name.len() + 1).min(rest.len());
        return (name, used);
    }
    let end = rest
        .char_indices()
        .find(|&(_, c)| !(c.is_alphanumeric() || c == '_'))
        .map_or(rest.len(), |(i, _)| i);
    (&rest[..end], end)
}

/// The script of a `[..]` whose `[` was just read, and the bytes it used.
fn bracketed(rest: &str) -> (&str, usize) {
    let mut depth = 1;
    for (i, c) in rest.char_indices() {
        match c {
            '[' => depth += 1,
            ']' if depth == 1 => return (&rest[..i], i + 1),
            ']' => depth -= 1,
            _ => {}
        }
    }
    (rest, rest.len())
}

fn pieces(text: &str) -> Vec<Piece<'_>> {
    let (mut out, mut at) = (Vec::new(), 0);
    while let Some(c) = text[at..].chars().next() {
        let rest = &text[at + 1..];
        let (piece, used) = match c {
            '$' => match var_name(rest) {
                ("", used) => (Piece::Text("$"), used),
                (name, used) => (Piece::Var(name), used),
            },
            '[' => {
                let (script, used) = bracketed(rest);
                (Piece::Script(script), used)
            }
            _ => {
                let end = text[at..]
                    .char_indices()
                    .skip(1)
                    .find(|&(_, c)| c == '$' || c == '[')
                    .map_or(text.len() - at, |(i, _)| i);
                out.push(Piece::Text(&text[at..at + end]));
                at += end;
                continue;
            }
        };
        out.push(piece);
        at += 1 + used;
    }
    out
}

/// Appends a substituted value to `expr` text.
fn splice(out: &mut String, value: &str, in_quotes: bool) {
    if in_quotes {
        return out.push_str(value);
    }
    out.push('"');
    for c in value.chars() {
        if matches!(c, '"' | '\\') {
            out.push('\\');
        }
        out.push(c);
    }
    out.push('"');
}

/// `expr {cond}` as the interpreter evaluated it, on `interp`: its leaves
/// resolved in order (each `[..]` run as a script of its own), spliced,
/// then evaluated.
pub fn reference(interp: &mut Interp, cond: &str) -> Result<String, ScriptError> {
    let mut out = String::new();
    let mut in_quotes = false;
    for piece in pieces(cond) {
        match piece {
            Piece::Text(text) => {
                in_quotes ^= text.matches('"').count() % 2 == 1;
                out.push_str(text);
            }
            Piece::Var(name) => {
                let value = interp
                    .get_var(name)
                    .ok_or_else(|| ScriptError::Runtime(format!("undefined variable '{name}'")))?;
                splice(&mut out, value, in_quotes);
            }
            Piece::Script(script) => {
                let value = interp.run(script)?.result;
                splice(&mut out, &value, in_quotes);
            }
        }
    }
    eval_expr(&out).map_err(|e| ScriptError::Runtime(format!("line 1: {e}")))
}

/// A value during evaluation: a number or an uninterpreted string.
#[derive(Debug, Clone, PartialEq)]
enum Val {
    Num(f64),
    Str(String),
}

impl Val {
    fn as_num(&self) -> Result<f64, ExprError> {
        match self {
            Val::Num(n) => Ok(*n),
            Val::Str(s) => s
                .trim()
                .parse::<f64>()
                .map_err(|_| ExprError(format!("'{s}' is not a number"))),
        }
    }

    fn as_str(&self) -> String {
        match self {
            Val::Num(n) => num_to_string(*n),
            Val::Str(s) => s.clone(),
        }
    }

    fn truthy(&self) -> Result<bool, ExprError> {
        Ok(self.as_num()? != 0.0)
    }
}

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Num(f64),
    Str(String),
    Op(String),
    LParen,
    RParen,
}

fn tokenize(src: &str) -> Result<Vec<Tok>, ExprError> {
    let chars: Vec<char> = src.chars().collect();
    let mut toks = Vec::new();
    let mut i = 0;
    while i < chars.len() {
        let c = chars[i];
        if c.is_whitespace() {
            i += 1;
            continue;
        }
        match c {
            '(' => {
                toks.push(Tok::LParen);
                i += 1;
            }
            ')' => {
                toks.push(Tok::RParen);
                i += 1;
            }
            '0'..='9' | '.' => {
                let mut s = String::new();
                while i < chars.len() && (chars[i].is_ascii_digit() || chars[i] == '.') {
                    s.push(chars[i]);
                    i += 1;
                }
                let n = s
                    .parse::<f64>()
                    .map_err(|_| ExprError(format!("bad number '{s}'")))?;
                toks.push(Tok::Num(n));
            }
            // Inside quotes, `\"` and `\\` stand for `"` and `\`; any other
            // backslash is itself.
            '"' | '\'' => {
                let mut s = String::new();
                i += 1;
                loop {
                    match chars.get(i) {
                        None => return Err(ExprError("unterminated string".into())),
                        Some(&q) if q == c => break,
                        Some('\\') if matches!(chars.get(i + 1), Some('"' | '\\')) => i += 1,
                        Some(_) => {}
                    }
                    s.push(chars[i]);
                    i += 1;
                }
                i += 1;
                toks.push(Tok::Str(s));
            }
            '+' | '-' | '*' | '/' | '%' => {
                toks.push(Tok::Op(c.to_string()));
                i += 1;
            }
            '<' | '>' | '=' | '!' | '&' | '|' => {
                let mut op = c.to_string();
                if i + 1 < chars.len() {
                    let two: String = [c, chars[i + 1]].iter().collect();
                    if ["<=", ">=", "==", "!=", "&&", "||"].contains(&two.as_str()) {
                        op = two;
                        i += 1;
                    }
                }
                toks.push(Tok::Op(op));
                i += 1;
            }
            _ if c.is_alphabetic() || c == '_' => {
                let mut s = String::new();
                while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
                    s.push(chars[i]);
                    i += 1;
                }
                if s == "eq" || s == "ne" {
                    toks.push(Tok::Op(s));
                } else {
                    // Bare words evaluate as strings ("true"/"false" get numeric value).
                    toks.push(Tok::Str(s));
                }
            }
            _ => return Err(ExprError(format!("unexpected character '{c}'"))),
        }
    }
    Ok(toks)
}

/// Nesting (parentheses, stacked unary operators) allowed in one expression:
/// the depth the interpreter's `max_depth` and taco-cost also stop at.  The
/// parser recurses on the host stack, and `CODE` folders are untrusted.
const MAX_NESTING: u32 = 64;

struct Parser {
    toks: Vec<Tok>,
    pos: usize,
    depth: u32,
}

impl Parser {
    /// Runs `inner` one nesting level down, refusing to pass [`MAX_NESTING`].
    fn nested(&mut self, inner: fn(&mut Self) -> Result<Val, ExprError>) -> Result<Val, ExprError> {
        if self.depth == MAX_NESTING {
            return Err(ExprError("expression nested too deeply".into()));
        }
        self.depth += 1;
        let val = inner(self);
        self.depth -= 1;
        val
    }

    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos)
    }

    fn peek_op(&self, ops: &[&str]) -> Option<String> {
        if let Some(Tok::Op(op)) = self.peek() {
            if ops.contains(&op.as_str()) {
                return Some(op.clone());
            }
        }
        None
    }

    fn bump(&mut self) -> Option<Tok> {
        let t = self.toks.get(self.pos).cloned();
        self.pos += 1;
        t
    }

    fn expr(&mut self) -> Result<Val, ExprError> {
        self.or()
    }

    fn or(&mut self) -> Result<Val, ExprError> {
        let mut left = self.and()?;
        while self.peek_op(&["||"]).is_some() {
            self.bump();
            let right = self.and()?;
            let v = left.truthy()? || right.truthy()?;
            left = Val::Num(if v { 1.0 } else { 0.0 });
        }
        Ok(left)
    }

    fn and(&mut self) -> Result<Val, ExprError> {
        let mut left = self.equality()?;
        while self.peek_op(&["&&"]).is_some() {
            self.bump();
            let right = self.equality()?;
            let v = left.truthy()? && right.truthy()?;
            left = Val::Num(if v { 1.0 } else { 0.0 });
        }
        Ok(left)
    }

    fn equality(&mut self) -> Result<Val, ExprError> {
        let mut left = self.relational()?;
        while let Some(op) = self.peek_op(&["==", "!=", "eq", "ne"]) {
            self.bump();
            let right = self.relational()?;
            let result = match op.as_str() {
                "==" => left.as_num()? == right.as_num()?,
                "!=" => left.as_num()? != right.as_num()?,
                "eq" => left.as_str() == right.as_str(),
                "ne" => left.as_str() != right.as_str(),
                _ => unreachable!(),
            };
            left = Val::Num(if result { 1.0 } else { 0.0 });
        }
        Ok(left)
    }

    fn relational(&mut self) -> Result<Val, ExprError> {
        let mut left = self.additive()?;
        while let Some(op) = self.peek_op(&["<", ">", "<=", ">="]) {
            self.bump();
            let right = self.additive()?;
            let (l, r) = (left.as_num()?, right.as_num()?);
            let result = match op.as_str() {
                "<" => l < r,
                ">" => l > r,
                "<=" => l <= r,
                ">=" => l >= r,
                _ => unreachable!(),
            };
            left = Val::Num(if result { 1.0 } else { 0.0 });
        }
        Ok(left)
    }

    fn additive(&mut self) -> Result<Val, ExprError> {
        let mut left = self.multiplicative()?;
        while let Some(op) = self.peek_op(&["+", "-"]) {
            self.bump();
            let right = self.multiplicative()?;
            let (l, r) = (left.as_num()?, right.as_num()?);
            left = Val::Num(if op == "+" { l + r } else { l - r });
        }
        Ok(left)
    }

    fn multiplicative(&mut self) -> Result<Val, ExprError> {
        let mut left = self.unary()?;
        while let Some(op) = self.peek_op(&["*", "/", "%"]) {
            self.bump();
            let right = self.unary()?;
            let (l, r) = (left.as_num()?, right.as_num()?);
            left = match op.as_str() {
                "*" => Val::Num(l * r),
                "/" => {
                    if r == 0.0 {
                        return Err(ExprError("division by zero".into()));
                    }
                    Val::Num(l / r)
                }
                "%" => {
                    // Integer remainder: a divisor inside (-1, 1) truncates
                    // to zero, and `i64::MIN % -1` overflows unless wrapped
                    // (the remainder is 0, as in Tcl).
                    let (l, r) = (l as i64, r as i64);
                    if r == 0 {
                        return Err(ExprError("modulo by zero".into()));
                    }
                    Val::Num(l.wrapping_rem(r) as f64)
                }
                _ => unreachable!(),
            };
        }
        Ok(left)
    }

    fn unary(&mut self) -> Result<Val, ExprError> {
        if let Some(op) = self.peek_op(&["-", "!"]) {
            self.bump();
            let v = self.nested(Self::unary)?;
            return Ok(match op.as_str() {
                "-" => Val::Num(-v.as_num()?),
                "!" => Val::Num(if v.truthy()? { 0.0 } else { 1.0 }),
                _ => unreachable!(),
            });
        }
        self.primary()
    }

    fn primary(&mut self) -> Result<Val, ExprError> {
        match self.bump() {
            Some(Tok::Num(n)) => Ok(Val::Num(n)),
            Some(Tok::Str(s)) => Ok(Val::Str(s)),
            Some(Tok::LParen) => {
                let v = self.nested(Self::expr)?;
                match self.bump() {
                    Some(Tok::RParen) => Ok(v),
                    _ => Err(ExprError("expected ')'".into())),
                }
            }
            other => Err(ExprError(format!("unexpected token {other:?}"))),
        }
    }
}

/// Evaluates substituted expression text: tokenized whole, then parsed and
/// evaluated in one pass.
fn eval_expr(src: &str) -> Result<String, ExprError> {
    let toks = tokenize(src)?;
    if toks.is_empty() {
        return Err(ExprError("empty expression".into()));
    }
    let mut parser = Parser {
        toks,
        pos: 0,
        depth: 0,
    };
    let val = parser.expr()?;
    if parser.pos != parser.toks.len() {
        return Err(ExprError("trailing tokens in expression".into()));
    }
    Ok(val.as_str())
}
