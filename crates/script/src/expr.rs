//! The `expr` reader and evaluator: arithmetic, comparison and logical
//! expressions.
//!
//! This is the one reader of expression text.  `read` takes a condition
//! (an `if` or `while` condition, or the argument of a one-argument `expr`)
//! *before* substitution, and returns its leaves, the `$name` reads and
//! `[..]` scripts `parser::pieces` yields, in textual order, with one grammar
//! result over them: an `Expr` whose leaves are indices, or the syntax
//! error.  The interpreter resolves the leaves and evaluates the `Expr`; the
//! parsed tree keeps the reading for taco-vet and taco-cost.  A leaf outside
//! quotes is one string operand; inside a quoted string it is part of that
//! string, never text to tokenize again.  Numbers are `f64` internally
//! (printed without a decimal point when integral); `eq` and `ne` compare
//! strings.
//!
//! Grammar (recursive descent, highest precedence last):
//!
//! ```text
//! expr     := or
//! or       := and    { "||" and }*
//! and      := equal  { "&&" equal }*
//! equal    := rel    { ("==" | "!=" | "eq" | "ne") rel }*
//! rel      := add    { ("<" | ">" | "<=" | ">=") add }*
//! add      := mul    { ("+" | "-") mul }*
//! mul      := unary  { ("*" | "/" | "%") unary }*
//! unary    := ("-" | "!")* primary
//! primary  := number | string | leaf | "(" expr ")"
//! ```

use crate::parser::{pieces, Leaf, Piece, Span};
use crate::value::num_to_string;
use std::borrow::Cow;
use std::mem;

/// Errors produced while evaluating an expression.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExprError(pub String);

impl std::fmt::Display for ExprError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "expr error: {}", self.0)
    }
}

impl std::error::Error for ExprError {}

/// A value during evaluation: a number or an uninterpreted string.
#[derive(Debug, Clone, PartialEq)]
enum Val<'v> {
    Num(f64),
    Str(Cow<'v, str>),
}

impl Val<'_> {
    fn as_num(&self) -> Result<f64, ExprError> {
        match self {
            Val::Num(n) => Ok(*n),
            Val::Str(s) => s
                .trim()
                .parse::<f64>()
                .map_err(|_| ExprError(format!("'{s}' is not a number"))),
        }
    }

    fn as_str(&self) -> Cow<'_, str> {
        match self {
            Val::Num(n) => Cow::Owned(num_to_string(*n)),
            Val::Str(s) => Cow::Borrowed(s),
        }
    }

    fn truthy(&self) -> Result<bool, ExprError> {
        Ok(self.as_num()? != 0.0)
    }
}

fn flag(b: bool) -> Val<'static> {
    Val::Num(if b { 1.0 } else { 0.0 })
}

/// A binary operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Op {
    Or,
    And,
    Eq,
    Ne,
    StrEq,
    StrNe,
    Lt,
    Gt,
    Le,
    Ge,
    Add,
    Sub,
    Mul,
    Div,
    Rem,
}

/// The binary operators by precedence level, loosest first, as spelled.
const LEVELS: [&[(&str, Op)]; 6] = [
    &[("||", Op::Or)],
    &[("&&", Op::And)],
    &[
        ("==", Op::Eq),
        ("!=", Op::Ne),
        ("eq", Op::StrEq),
        ("ne", Op::StrNe),
    ],
    &[("<", Op::Lt), (">", Op::Gt), ("<=", Op::Le), (">=", Op::Ge)],
    &[("+", Op::Add), ("-", Op::Sub)],
    &[("*", Op::Mul), ("/", Op::Div), ("%", Op::Rem)],
];

/// What the tokenizer reads as an operator, two-character ones first.
const OPS: [&str; 17] = [
    "<=", ">=", "==", "!=", "&&", "||", "+", "-", "*", "/", "%", "<", ">", "=", "!", "&", "|",
];

/// Applies the binary operator `op` to evaluated operands: `||` and `&&`
/// only skip asking whether the right one is true.
fn apply(op: Op, l: &Val, r: &Val) -> Result<Val<'static>, ExprError> {
    let (a, b) = match op {
        Op::Or => return Ok(flag(l.truthy()? || r.truthy()?)),
        Op::And => return Ok(flag(l.truthy()? && r.truthy()?)),
        Op::StrEq => return Ok(flag(l.as_str() == r.as_str())),
        Op::StrNe => return Ok(flag(l.as_str() != r.as_str())),
        _ => (l.as_num()?, r.as_num()?),
    };
    Ok(match op {
        Op::Eq => flag(a == b),
        Op::Ne => flag(a != b),
        Op::Lt => flag(a < b),
        Op::Gt => flag(a > b),
        Op::Le => flag(a <= b),
        Op::Ge => flag(a >= b),
        Op::Add => Val::Num(a + b),
        Op::Sub => Val::Num(a - b),
        Op::Mul => Val::Num(a * b),
        Op::Div if b == 0.0 => return Err(ExprError("division by zero".into())),
        Op::Div => Val::Num(a / b),
        // Integer remainder: a divisor inside (-1, 1) truncates to zero,
        // and `i64::MIN % -1` overflows unless wrapped (the remainder is 0,
        // as in Tcl).
        _ => match (a as i64, b as i64) {
            (_, 0) => return Err(ExprError("modulo by zero".into())),
            (a, b) => Val::Num(a.wrapping_rem(b) as f64),
        },
    })
}

/// An expression read once.  `Leaf(i)` is the value of leaf `i` of its
/// [`Reading`].
#[derive(Debug)]
pub(crate) enum Expr {
    Num(f64),
    /// A quoted string or a bare word.
    Str(String),
    /// A leaf outside quotes: one string operand.
    Leaf(usize),
    /// A quoted string holding leaves: its text and their values, joined.
    Template(Vec<Seg>),
    Neg(Box<Expr>),
    Not(Box<Expr>),
    /// Operands of one precedence level, joined left to right: a run of
    /// `&&` is one node however long it is.
    Chain(Box<Expr>, Vec<(Op, Expr)>),
}

/// A piece of a [`Expr::Template`].
#[derive(Debug)]
pub(crate) enum Seg {
    Text(String),
    Leaf(usize),
}

impl Expr {
    /// The value over the leaves' values.  A leaf with no value is an
    /// error, so `eval(&[])` succeeds only on an expression without leaves.
    pub(crate) fn eval(&self, leaves: &[String]) -> Result<String, ExprError> {
        Ok(self.val(leaves)?.as_str().into_owned())
    }

    fn val<'v>(&'v self, leaves: &'v [String]) -> Result<Val<'v>, ExprError> {
        let leaf = |i: usize| {
            let value = leaves.get(i).map(String::as_str);
            value.ok_or_else(|| ExprError("a leaf has no value".into()))
        };
        Ok(match self {
            Expr::Num(n) => Val::Num(*n),
            Expr::Str(s) => Val::Str(Cow::Borrowed(s)),
            Expr::Leaf(i) => Val::Str(Cow::Borrowed(leaf(*i)?)),
            Expr::Template(segs) => {
                let mut s = String::new();
                for seg in segs {
                    s.push_str(match seg {
                        Seg::Text(text) => text,
                        Seg::Leaf(i) => leaf(*i)?,
                    });
                }
                Val::Str(Cow::Owned(s))
            }
            Expr::Neg(e) => Val::Num(-e.val(leaves)?.as_num()?),
            Expr::Not(e) => flag(!e.val(leaves)?.truthy()?),
            Expr::Chain(first, rest) => {
                let mut left = first.val(leaves)?;
                for (op, e) in rest {
                    left = apply(*op, &left, &e.val(leaves)?)?;
                }
                left
            }
        })
    }

    /// Whether the expression, which has no leaves, is true as an operand
    /// of `&&` or `||`: a number other than zero.  A quoted `"0.0"` is not.
    pub(crate) fn holds(&self) -> bool {
        self.val(&[]).and_then(|v| v.truthy()).unwrap_or(false)
    }

    /// The top-level `&&` chain: its first conjunct and the operands after
    /// it; `None` when the expression is an `||`.
    pub(crate) fn conjuncts(&self) -> Option<(&Expr, &[(Op, Expr)])> {
        match self {
            Expr::Chain(first, rest) if rest[0].0 == Op::And => Some((first, rest)),
            Expr::Chain(_, rest) if rest[0].0 == Op::Or => None,
            _ => Some((self, &[])),
        }
    }
}

#[derive(Debug)]
enum Tok {
    /// A number, a string, a bare word or a leaf.
    Operand(Expr),
    Op(&'static str),
    LParen,
    RParen,
}

/// The tokenizer, fed text and leaves in order.
#[derive(Default)]
struct Lexer {
    toks: Vec<Tok>,
    /// The quoted string being read: its quote, its pieces so far and the
    /// text after them.
    open: Option<(char, Vec<Seg>, String)>,
}

impl Lexer {
    fn leaf(&mut self, i: usize) {
        match &mut self.open {
            Some((_, segs, text)) => {
                if !text.is_empty() {
                    segs.push(Seg::Text(mem::take(text)));
                }
                segs.push(Seg::Leaf(i));
            }
            None => self.toks.push(Tok::Operand(Expr::Leaf(i))),
        }
    }

    fn text(&mut self, src: &str) -> Result<(), ExprError> {
        let mut chars = src.char_indices().peekable();
        while let Some((at, c)) = chars.next() {
            if let Some((quote, _, text)) = &mut self.open {
                if c != *quote {
                    // Inside quotes, `\"` and `\\` stand for `"` and `\`;
                    // any other backslash is itself.
                    let escaped = chars.next_if(|&(_, e)| c == '\\' && matches!(e, '"' | '\\'));
                    text.push(escaped.map_or(c, |(_, e)| e));
                    continue;
                }
                let (_, mut segs, text) = self.open.take().expect("a string is open");
                self.toks.push(Tok::Operand(if segs.is_empty() {
                    Expr::Str(text)
                } else {
                    segs.extend((!text.is_empty()).then_some(Seg::Text(text)));
                    Expr::Template(segs)
                }));
                continue;
            }
            let mut end = at + c.len_utf8();
            let mut run = |more: fn(char) -> bool| {
                while let Some((i, d)) = chars.next_if(|&(_, d)| more(d)) {
                    end = i + d.len_utf8();
                }
                &src[at..end]
            };
            let tok = match c {
                _ if c.is_whitespace() => continue,
                '(' => Tok::LParen,
                ')' => Tok::RParen,
                '"' | '\'' => {
                    self.open = Some((c, Vec::new(), String::new()));
                    continue;
                }
                '0'..='9' | '.' => {
                    let s = run(|d| d.is_ascii_digit() || d == '.');
                    let bad = || ExprError(format!("bad number '{s}'"));
                    Tok::Operand(Expr::Num(s.parse().map_err(|_| bad())?))
                }
                _ if c.is_alphabetic() || c == '_' => {
                    match run(|d| d.is_alphanumeric() || d == '_') {
                        "eq" => Tok::Op("eq"),
                        "ne" => Tok::Op("ne"),
                        // Bare words evaluate as strings.
                        word => Tok::Operand(Expr::Str(word.to_string())),
                    }
                }
                _ => match OPS.iter().find(|op| src[at..].starts_with(**op)) {
                    Some(op) => {
                        if op.len() == 2 {
                            chars.next();
                        }
                        Tok::Op(op)
                    }
                    None => return Err(ExprError(format!("unexpected character '{c}'"))),
                },
            };
            self.toks.push(tok);
        }
        Ok(())
    }

    fn finish(self) -> Result<Vec<Tok>, ExprError> {
        match self.open {
            Some(_) => Err(ExprError("unterminated string".into())),
            None => Ok(self.toks),
        }
    }
}

/// Nesting (parentheses, stacked unary operators) allowed in one expression:
/// the depth the interpreter's `max_depth` and taco-cost also stop at.  The
/// parser recurses on the host stack, and `CODE` folders are untrusted.
const MAX_NESTING: u32 = 64;

struct Parser {
    toks: std::iter::Peekable<std::vec::IntoIter<Tok>>,
    depth: u32,
}

impl Parser {
    /// Runs `inner` one nesting level down, refusing to pass [`MAX_NESTING`].
    fn nested(
        &mut self,
        inner: fn(&mut Self) -> Result<Expr, ExprError>,
    ) -> Result<Expr, ExprError> {
        if self.depth == MAX_NESTING {
            return Err(ExprError("expression nested too deeply".into()));
        }
        self.depth += 1;
        let expr = inner(self);
        self.depth -= 1;
        expr
    }

    /// Takes the next token when it is spelled as one of `ops`, and returns
    /// what it stands for.
    fn op<T: Copy>(&mut self, ops: &[(&str, T)]) -> Option<T> {
        let next = self.toks.peek();
        let &(_, op) = ops
            .iter()
            .find(|(s, _)| matches!(next, Some(Tok::Op(t)) if t == s))?;
        self.toks.next();
        Some(op)
    }

    /// Operands of precedence `level` or tighter, joined by that level's
    /// operators.
    fn level(&mut self, level: usize) -> Result<Expr, ExprError> {
        let Some(ops) = LEVELS.get(level) else {
            return self.unary();
        };
        let first = self.level(level + 1)?;
        let mut rest = Vec::new();
        while let Some(op) = self.op(ops) {
            rest.push((op, self.level(level + 1)?));
        }
        Ok(if rest.is_empty() {
            first
        } else {
            Expr::Chain(Box::new(first), rest)
        })
    }

    /// A negated number is read as the number.
    fn unary(&mut self) -> Result<Expr, ExprError> {
        let Some(minus) = self.op(&[("-", true), ("!", false)]) else {
            return self.primary();
        };
        Ok(match (minus, self.nested(Self::unary)?) {
            (true, Expr::Num(n)) => Expr::Num(-n),
            (true, e) => Expr::Neg(Box::new(e)),
            (false, e) => Expr::Not(Box::new(e)),
        })
    }

    fn primary(&mut self) -> Result<Expr, ExprError> {
        match self.toks.next() {
            Some(Tok::Operand(e)) => Ok(e),
            Some(Tok::LParen) => {
                let e = self.nested(|p| p.level(0))?;
                match self.toks.next() {
                    Some(Tok::RParen) => Ok(e),
                    _ => Err(ExprError("expected ')'".into())),
                }
            }
            other => Err(ExprError(format!("unexpected token {other:?}"))),
        }
    }
}

fn parse(toks: Vec<Tok>) -> Result<Expr, ExprError> {
    if toks.is_empty() {
        return Err(ExprError("empty expression".into()));
    }
    let mut parser = Parser {
        toks: toks.into_iter().peekable(),
        depth: 0,
    };
    let expr = parser.level(0)?;
    match parser.toks.next() {
        None => Ok(expr),
        Some(_) => Err(ExprError("trailing tokens in expression".into())),
    }
}

/// A condition read once, before substitution ([`read`]).
pub(crate) struct Reading<'a> {
    /// The `$name` reads and `[..]` scripts, in textual order, each with the
    /// position of its first character: leaf `i` of `expr` is `leaves[i]`.
    pub leaves: Vec<(Span, Leaf<'a>)>,
    /// The grammar over the leaves, or the syntax error.
    pub expr: Result<Expr, ExprError>,
}

/// Reads a condition, or the argument of a one-argument `expr`.
pub(crate) fn read(text: &str) -> Reading<'_> {
    let (mut lexer, mut leaves, mut fault) = (Lexer::default(), Vec::new(), Ok(()));
    for (at, piece) in pieces(text) {
        match piece {
            Piece::Text(text) => fault = fault.and_then(|()| lexer.text(text)),
            Piece::Leaf(leaf) => {
                lexer.leaf(leaves.len());
                leaves.push((at, leaf));
            }
        }
    }
    let expr = fault.and_then(|()| lexer.finish()).and_then(parse);
    Reading { leaves, expr }
}

/// Evaluates expression text that has no leaves: a multi-argument `expr`'s
/// joined arguments, where `$` and `[` are not substituted again.
pub fn eval_expr(src: &str) -> Result<String, ExprError> {
    let mut lexer = Lexer::default();
    lexer.text(src)?;
    parse(lexer.finish()?)?.eval(&[])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(s: &str) -> String {
        eval_expr(s).unwrap()
    }

    #[test]
    fn arithmetic_and_precedence() {
        assert_eq!(ev("1 + 2 * 3"), "7");
        assert_eq!(ev("(1 + 2) * 3"), "9");
        assert_eq!(ev("10 / 4"), "2.5");
        assert_eq!(ev("10 % 3"), "1");
        assert_eq!(ev("2 - 5"), "-3");
        assert_eq!(ev("-4 + 1"), "-3");
        assert_eq!(ev("1.5 + 1.25"), "2.75");
    }

    #[test]
    fn comparisons_and_logic() {
        assert_eq!(ev("3 > 2"), "1");
        assert_eq!(ev("3 < 2"), "0");
        assert_eq!(ev("2 <= 2 && 3 >= 4"), "0");
        assert_eq!(ev("1 || 0"), "1");
        assert_eq!(ev("!1"), "0");
        assert_eq!(ev("!0 && 1"), "1");
        assert_eq!(ev("5 == 5.0"), "1");
        assert_eq!(ev("5 != 5"), "0");
    }

    #[test]
    fn string_comparison() {
        assert_eq!(ev("\"abc\" eq \"abc\""), "1");
        assert_eq!(ev("\"abc\" ne \"abd\""), "1");
        assert_eq!(ev("'site1' eq 'site2'"), "0");
        assert_eq!(ev("hello eq hello"), "1");
    }

    #[test]
    fn quoted_strings_honour_two_escapes() {
        assert_eq!(ev(r#""a\"b" eq 'a"b'"#), "1");
        assert_eq!(ev(r#""a\\" eq 'a\'"#), "1");
        assert_eq!(ev(r#""a\nb" eq 'a\nb'"#), "1");
        assert!(eval_expr(r#""a\""#).is_err());
    }

    #[test]
    fn errors() {
        assert!(eval_expr("1 / 0").is_err());
        assert!(eval_expr("5 % 0").is_err());
        assert!(eval_expr("").is_err());
        assert!(eval_expr("1 +").is_err());
        assert!(eval_expr("(1 + 2").is_err());
        assert!(eval_expr("\"abc\" + 1").is_err());
        assert!(eval_expr("1 2").is_err());
        assert!(eval_expr("@").is_err());
        assert!(eval_expr("\"open").is_err());
    }

    #[test]
    fn remainder_never_panics() {
        assert_eq!(ev("-9223372036854775808 % -1"), "0");
        assert_eq!(ev("(-9223372036854775807 - 1) % -1"), "0");
        assert_eq!(ev("7 % -2"), "1");
        assert!(eval_expr("5 % 0.5").is_err());
    }

    #[test]
    fn hostile_nesting_is_an_error_not_a_stack_overflow() {
        let deep = |open: &str, close: &str, n: usize| {
            eval_expr(&format!("{}1{}", open.repeat(n), close.repeat(n)))
        };
        assert_eq!(deep("(", ")", 64).unwrap(), "1");
        assert_eq!(deep("-", "", 64).unwrap(), "1");
        for (open, close) in [("(", ")"), ("-", ""), ("!(", ")")] {
            let err = deep(open, close, 5_000).unwrap_err();
            assert_eq!(err.0, "expression nested too deeply");
        }
    }

    #[test]
    fn integral_results_print_without_decimal() {
        assert_eq!(ev("4 / 2"), "2");
        assert_eq!(ev("2.5 * 2"), "5");
    }
}
