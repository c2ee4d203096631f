//! The `expr` evaluator: arithmetic, comparison and logical expressions.
//!
//! TacoScript's `expr` command receives a fully substituted string and
//! evaluates it with ordinary precedence rules.  Numbers are `f64` internally
//! (printed without a decimal point when integral); string comparison is
//! available through `eq` and `ne`.
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
//! primary  := number | string | "(" expr ")"
//! ```

use crate::value::num_to_string;

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

/// Evaluates an expression string, returning the result as a string.
pub fn eval_expr(src: &str) -> Result<String, ExprError> {
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
