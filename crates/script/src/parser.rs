//! The TacoScript parser: scripts → commands → words → word parts.
//!
//! Parsing follows Tcl's model: a script is a sequence of commands separated
//! by newlines or semicolons; a command is a sequence of words; a word is a
//! concatenation of parts, each of which is literal text, a `$variable`
//! substitution, or a `[command]` substitution.  Brace-quoted words `{...}`
//! are single literal parts with no substitution (that is how control-flow
//! bodies are passed around unevaluated), and double-quoted words allow
//! substitutions but group whitespace.

use std::fmt;

/// A 1-based source position (line and column), attached to every parsed
/// command and word so downstream passes (the analyzer, error reporting) can
/// point at the offending text.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Span {
    /// 1-based line number.
    pub line: u32,
    /// 1-based column number (in characters, not bytes).
    pub col: u32,
}

impl Span {
    /// The start of a script.
    pub const START: Span = Span { line: 1, col: 1 };

    /// Creates a span at the given position.
    pub fn new(line: u32, col: u32) -> Self {
        Span { line, col }
    }
}

impl Default for Span {
    fn default() -> Self {
        Span::START
    }
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.line, self.col)
    }
}

/// One component of a word after parsing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WordPart {
    /// Literal text, copied as-is.
    Literal(String),
    /// A `$name` variable substitution.
    Variable(String),
    /// A `[script]` command substitution (the raw inner script).
    Command(String),
}

/// How a word's text is interpreted at evaluation time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WordKind {
    /// `{...}` — literal text, no substitution performed.
    Braced(String),
    /// Bare or double-quoted word made of parts to be substituted and joined.
    Parts(Vec<WordPart>),
}

/// A word with its source position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Word {
    /// The word's content.
    pub kind: WordKind,
    /// Where the word starts in the source text.
    pub span: Span,
}

impl Word {
    /// A purely literal (non-braced) word, convenient for tests.
    pub fn literal(s: impl Into<String>) -> Self {
        Word {
            kind: WordKind::Parts(vec![WordPart::Literal(s.into())]),
            span: Span::START,
        }
    }

    /// The word's text when it is statically known (a braced word or a single
    /// literal part); `None` when the text depends on substitution.
    pub fn static_text(&self) -> Option<&str> {
        match &self.kind {
            WordKind::Braced(s) => Some(s),
            WordKind::Parts(parts) => match parts.as_slice() {
                [WordPart::Literal(s)] => Some(s),
                _ => None,
            },
        }
    }
}

/// One command: a non-empty list of words.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Command {
    /// The words of the command; the first is the command name.
    pub words: Vec<Word>,
    /// Where the command starts (for error messages and diagnostics).
    pub span: Span,
}

impl Command {
    /// 1-based line number where the command starts.
    pub fn line(&self) -> u32 {
        self.span.line
    }
}

/// Errors produced by the parser.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Human-readable description.
    pub message: String,
    /// 1-based line number.
    pub line: u32,
    /// 1-based column number.
    pub col: u32,
}

impl ParseError {
    /// The error's position as a [`Span`].
    pub fn span(&self) -> Span {
        Span::new(self.line, self.col)
    }

    /// Renders the error anchored to a named source file, in the conventional
    /// `file:line:col: message` shape.
    pub fn render(&self, file: &str) -> String {
        format!(
            "{file}:{}:{}: parse error: {}",
            self.line, self.col, self.message
        )
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // `<script>` stands in for the file name, which the parser does not
        // know; callers with a real path use [`ParseError::render`].
        write!(f, "{}", self.render("<script>"))
    }
}

impl std::error::Error for ParseError {}

/// A character cursor over source text that tracks the 1-based line and
/// column it stands on.
pub(crate) struct Cursor<'a> {
    src: &'a str,
    pos: usize,
    line: u32,
    col: u32,
}

impl<'a> Cursor<'a> {
    pub(crate) fn new(src: &'a str) -> Self {
        Cursor {
            src,
            pos: 0,
            line: 1,
            col: 1,
        }
    }

    fn rest(&self) -> &'a str {
        &self.src[self.pos..]
    }

    pub(crate) fn peek(&self) -> Option<char> {
        self.rest().chars().next()
    }

    pub(crate) fn bump(&mut self) -> Option<char> {
        let c = self.peek()?;
        self.pos += c.len_utf8();
        if c == '\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }

    pub(crate) fn span(&self) -> Span {
        Span::new(self.line, self.col)
    }

    fn err(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            message: message.into(),
            line: self.line,
            col: self.col,
        }
    }
}

/// Reads the name after a `$`: `{...}` up to the closing brace (or the end
/// of the text), or a run of alphanumerics and `_`.  An empty name leaves
/// the `$` literal.
pub(crate) fn var_name<'a>(cur: &mut Cursor<'a>) -> &'a str {
    let start = cur.pos;
    if cur.peek() == Some('{') {
        cur.bump();
        let rest = cur.rest();
        while cur.bump().is_some_and(|c| c != '}') {}
        return rest.split('}').next().unwrap_or_default();
    }
    while cur.peek().is_some_and(|c| c.is_alphanumeric() || c == '_') {
        cur.bump();
    }
    &cur.src[start..cur.pos]
}

/// Reads the script of a `[..]` whose `[` was just read, through the
/// matching `]`: its text, and whether the bracket closed.  An unclosed one
/// runs to the end of the text.
pub(crate) fn bracketed<'a>(cur: &mut Cursor<'a>) -> (&'a str, bool) {
    let rest = cur.rest();
    let mut depth = 1;
    while let Some(c) = cur.bump() {
        match c {
            '[' => depth += 1,
            ']' if depth == 1 => return (&rest[..rest.len() - cur.rest().len() - 1], true),
            ']' => depth -= 1,
            _ => {}
        }
    }
    (rest, false)
}

/// Every `$name` in `text`, wherever it stands (inside `[..]`, quotes or
/// braces too): taco-vet's deliberate over-collection of what a brace-quoted
/// word may read once it is evaluated as a condition or a script.
pub(crate) fn var_names(text: &str) -> impl Iterator<Item = &str> {
    let mut cur = Cursor::new(text);
    std::iter::from_fn(move || loop {
        if cur.bump()? == '$' {
            match var_name(&mut cur) {
                "" => {}
                name => return Some(name),
            }
        }
    })
}

/// One piece of condition text, read before substitution: an `if` or
/// `while` condition, or the argument of a one-argument `expr`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Piece<'a> {
    /// Text that `expr` tokenizes.
    Text(&'a str),
    Leaf(Leaf<'a>),
}

/// What is substituted in condition text.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Leaf<'a> {
    /// A `$name` or `${name}` read.
    Var(&'a str),
    /// A `[..]` script, closed or not.
    Script(&'a str),
}

/// Reads condition text into [`Piece`]s, each with the position of its
/// first character: what `expr.rs`'s one reading of a condition is built
/// from.
pub(crate) fn pieces(text: &str) -> impl Iterator<Item = (Span, Piece<'_>)> {
    let mut cur = Cursor::new(text);
    std::iter::from_fn(move || {
        let (at, start) = (cur.span(), cur.pos);
        let piece = match cur.bump()? {
            '$' => match var_name(&mut cur) {
                "" => Piece::Text("$"),
                name => Piece::Leaf(Leaf::Var(name)),
            },
            '[' => Piece::Leaf(Leaf::Script(bracketed(&mut cur).0)),
            _ => {
                while cur.peek().is_some_and(|c| c != '$' && c != '[') {
                    cur.bump();
                }
                Piece::Text(&text[start..cur.pos])
            }
        };
        Some((at, piece))
    })
}

/// What a control command is, decoded from its name and argument count:
/// the one reading of control syntax the interpreter and the parsed tree
/// share.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Control {
    /// `if`, whose clauses [`if_chain`] reads.
    If,
    /// `while cond body`.
    While,
    /// `foreach var list body`.
    Foreach,
    /// `proc name params body`.
    Proc,
    /// `catch body ?resultVar?`.
    Catch,
    /// One-argument `eval`: the argument is the script.
    Eval,
    /// `eval` with any other number of arguments: the script is assembled
    /// at run time.
    EvalJoined,
    /// One-argument `expr`: the argument is substituted as a condition is,
    /// then evaluated.
    Expr,
    /// `while`, `foreach` or `catch` with the wrong number of arguments:
    /// an arity error, and nothing runs.
    Malformed,
}

/// Decodes a control command; `None` for any other command.
pub(crate) fn control(name: &str, argc: usize) -> Option<Control> {
    Some(match (name, argc) {
        ("if", _) => Control::If,
        ("while", 2) => Control::While,
        ("foreach", 3) => Control::Foreach,
        ("proc", 3) => Control::Proc,
        ("catch", 1 | 2) => Control::Catch,
        ("while" | "foreach" | "catch", _) => Control::Malformed,
        ("eval", 1) => Control::Eval,
        ("eval", _) => Control::EvalJoined,
        ("expr", 1) => Control::Expr,
        _ => return None,
    })
}

/// One clause of an `if` chain, by argument index (0-based, after the
/// name): `cond body`, or `else body` with no condition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Clause {
    pub cond: Option<usize>,
    pub body: usize,
}

/// Why an `if` chain stopped decoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum IfFault {
    /// A condition or body is missing.
    Truncated,
    /// `else` is the last word.
    ElseWithoutBody,
    /// The argument at this index is neither `elseif` nor `else`, or is
    /// computed at run time.
    Unexpected(usize),
    /// Words follow the `else` body.  The interpreter never reaches them.
    Trailing,
}

/// Reads `cond body ?elseif cond body?* ?else body?` over `argc` arguments
/// whose text `text` gives when it is known: the clauses in order, then the
/// fault that ended the chain, if one did.
pub(crate) fn if_chain<'a>(
    argc: usize,
    text: impl Fn(usize) -> Option<&'a str>,
) -> impl Iterator<Item = Result<Clause, IfFault>> {
    let (mut next, mut after_else) = (Some(0), false);
    std::iter::from_fn(move || {
        let i = next.take().filter(|&i| i == 0 || i < argc)?;
        let cond = match (i, text(i)) {
            _ if after_else => return Some(Err(IfFault::Trailing)),
            (0, _) => 0,
            (_, Some("elseif")) => i + 1,
            (_, Some("else")) if i + 1 < argc => {
                (next, after_else) = (Some(i + 2), true);
                return Some(Ok(Clause {
                    cond: None,
                    body: i + 1,
                }));
            }
            (_, Some("else")) => return Some(Err(IfFault::ElseWithoutBody)),
            _ => return Some(Err(IfFault::Unexpected(i))),
        };
        if cond + 1 >= argc {
            return Some(Err(IfFault::Truncated));
        }
        next = Some(cond + 2);
        Some(Ok(Clause {
            cond: Some(cond),
            body: cond + 1,
        }))
    })
}

/// Parses a whole script into a list of commands.
pub fn parse_script(src: &str) -> Result<Vec<Command>, ParseError> {
    let mut cursor = Cursor::new(src);
    let mut commands = Vec::new();
    loop {
        skip_blank(&mut cursor);
        if cursor.peek().is_none() {
            break;
        }
        let span = cursor.span();
        let words = parse_command(&mut cursor)?;
        if !words.is_empty() {
            commands.push(Command { words, span });
        }
    }
    Ok(commands)
}

/// Skips whitespace, command separators and comments between commands.
fn skip_blank(cursor: &mut Cursor<'_>) {
    loop {
        match cursor.peek() {
            Some(c) if c == ' ' || c == '\t' || c == '\r' || c == '\n' || c == ';' => {
                cursor.bump();
            }
            Some('#') => {
                // Comment to end of line.
                while let Some(c) = cursor.peek() {
                    if c == '\n' {
                        break;
                    }
                    cursor.bump();
                }
            }
            _ => break,
        }
    }
}

/// Parses one command (up to a newline or `;` at depth zero).
fn parse_command(cursor: &mut Cursor<'_>) -> Result<Vec<Word>, ParseError> {
    let mut words = Vec::new();
    loop {
        // Skip spaces/tabs inside the command.
        while matches!(cursor.peek(), Some(' ') | Some('\t') | Some('\r')) {
            cursor.bump();
        }
        match cursor.peek() {
            None => break,
            Some('\n') | Some(';') => {
                cursor.bump();
                break;
            }
            Some('#') if words.is_empty() => {
                // Comment-only line.
                while let Some(c) = cursor.peek() {
                    if c == '\n' {
                        break;
                    }
                    cursor.bump();
                }
                break;
            }
            // Line continuation: backslash-newline acts as a space.
            Some('\\') if cursor.rest().starts_with("\\\n") => {
                cursor.bump();
                cursor.bump();
            }
            Some(_) => {
                words.push(parse_word(cursor)?);
            }
        }
    }
    Ok(words)
}

fn parse_word(cursor: &mut Cursor<'_>) -> Result<Word, ParseError> {
    let span = cursor.span();
    let kind = match cursor.peek() {
        Some('{') => {
            let inner = parse_braced(cursor)?;
            WordKind::Braced(inner)
        }
        Some('"') => {
            cursor.bump();
            WordKind::Parts(parse_parts(cursor, true)?)
        }
        _ => WordKind::Parts(parse_parts(cursor, false)?),
    };
    Ok(Word { kind, span })
}

/// Parses a `{...}` word, returning the inner text with nested braces kept.
fn parse_braced(cursor: &mut Cursor<'_>) -> Result<String, ParseError> {
    cursor.bump(); // consume '{'
    let mut depth = 1;
    let mut out = String::new();
    loop {
        match cursor.bump() {
            None => return Err(cursor.err("unclosed brace")),
            Some('{') => {
                depth += 1;
                out.push('{');
            }
            Some('}') => {
                depth -= 1;
                if depth == 0 {
                    return Ok(out);
                }
                out.push('}');
            }
            Some('\\') => {
                // Inside braces, backslash is literal except before braces.
                match cursor.peek() {
                    Some('{') | Some('}') => {
                        out.push('\\');
                        out.push(cursor.bump().unwrap_or_default());
                    }
                    _ => out.push('\\'),
                }
            }
            Some(c) => out.push(c),
        }
    }
}

/// Parses the parts of a bare or quoted word.
fn parse_parts(cursor: &mut Cursor<'_>, quoted: bool) -> Result<Vec<WordPart>, ParseError> {
    let mut parts = Vec::new();
    let mut literal = String::new();
    macro_rules! flush {
        () => {
            if !literal.is_empty() {
                parts.push(WordPart::Literal(std::mem::take(&mut literal)));
            }
        };
    }
    loop {
        let Some(c) = cursor.peek() else {
            if quoted {
                return Err(cursor.err("unclosed quote"));
            }
            break;
        };
        match c {
            '"' if quoted => {
                cursor.bump();
                break;
            }
            ' ' | '\t' | '\n' | '\r' | ';' if !quoted => break,
            '$' => {
                cursor.bump();
                match var_name(cursor) {
                    "" => literal.push('$'),
                    name => {
                        flush!();
                        parts.push(WordPart::Variable(name.to_string()));
                    }
                }
            }
            '[' => {
                cursor.bump();
                let (script, closed) = bracketed(cursor);
                if !closed {
                    return Err(cursor.err("unclosed bracket"));
                }
                flush!();
                parts.push(WordPart::Command(script.to_string()));
            }
            '\\' => {
                cursor.bump();
                match cursor.bump() {
                    Some('n') => literal.push('\n'),
                    Some('t') => literal.push('\t'),
                    Some(c) => literal.push(c),
                    None => literal.push('\\'),
                }
            }
            _ => {
                literal.push(c);
                cursor.bump();
            }
        }
    }
    flush!();
    if parts.is_empty() {
        parts.push(WordPart::Literal(String::new()));
    }
    Ok(parts)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_commands() {
        let cmds = parse_script("set x 1\nset y 2").unwrap();
        assert_eq!(cmds.len(), 2);
        assert_eq!(cmds[0].words.len(), 3);
        assert_eq!(cmds[0].words[0].kind, Word::literal("set").kind);
        assert_eq!(cmds[1].span, Span::new(2, 1));
    }

    #[test]
    fn spans_track_lines_and_columns() {
        let cmds = parse_script("set x 1\n  incr x; puts $x").unwrap();
        assert_eq!(cmds.len(), 3);
        assert_eq!(cmds[0].span, Span::new(1, 1));
        assert_eq!(cmds[0].words[2].span, Span::new(1, 7));
        assert_eq!(cmds[1].span, Span::new(2, 3));
        assert_eq!(cmds[2].span, Span::new(2, 11));
        assert_eq!(cmds[2].words[1].span, Span::new(2, 16));
    }

    #[test]
    fn semicolons_separate_commands() {
        let cmds = parse_script("set x 1; set y 2 ;; set z 3").unwrap();
        assert_eq!(cmds.len(), 3);
    }

    #[test]
    fn comments_and_blank_lines_are_skipped() {
        let cmds = parse_script("\n# a comment\n  # another\nset x 1\n\n").unwrap();
        assert_eq!(cmds.len(), 1);
        assert_eq!(cmds[0].span, Span::new(4, 1));
    }

    #[test]
    fn braced_words_keep_content_verbatim() {
        let cmds = parse_script("if {$x > 1} { set y [foo] }").unwrap();
        assert_eq!(cmds.len(), 1);
        assert_eq!(cmds[0].words[1].kind, WordKind::Braced("$x > 1".into()));
        assert_eq!(cmds[0].words[1].span, Span::new(1, 4));
        assert_eq!(
            cmds[0].words[2].kind,
            WordKind::Braced(" set y [foo] ".into())
        );
    }

    #[test]
    fn nested_braces() {
        let cmds = parse_script("proc f {a} { if {$a} { return 1 } }").unwrap();
        match &cmds[0].words[3].kind {
            WordKind::Braced(body) => assert!(body.contains("{ return 1 }")),
            other => panic!("expected braced body, got {other:?}"),
        }
    }

    #[test]
    fn variable_and_command_substitution_parts() {
        let cmds = parse_script("set msg \"x=$x y=[get y] done\"").unwrap();
        let WordKind::Parts(parts) = &cmds[0].words[2].kind else {
            panic!("expected parts")
        };
        assert_eq!(
            parts,
            &vec![
                WordPart::Literal("x=".into()),
                WordPart::Variable("x".into()),
                WordPart::Literal(" y=".into()),
                WordPart::Command("get y".into()),
                WordPart::Literal(" done".into()),
            ]
        );
    }

    #[test]
    fn bare_word_with_substitutions() {
        let cmds = parse_script("puts $a[b]c").unwrap();
        let WordKind::Parts(parts) = &cmds[0].words[1].kind else {
            panic!("expected parts")
        };
        assert_eq!(parts.len(), 3);
        assert_eq!(parts[0], WordPart::Variable("a".into()));
        assert_eq!(parts[1], WordPart::Command("b".into()));
        assert_eq!(parts[2], WordPart::Literal("c".into()));
    }

    #[test]
    fn dollar_brace_variable() {
        let cmds = parse_script("puts ${long name}").unwrap();
        let WordKind::Parts(parts) = &cmds[0].words[1].kind else {
            panic!("expected parts")
        };
        assert_eq!(parts, &vec![WordPart::Variable("long name".into())]);
    }

    #[test]
    fn lone_dollar_is_literal() {
        let cmds = parse_script("puts $ x").unwrap();
        assert_eq!(cmds[0].words.len(), 3);
        assert_eq!(cmds[0].words[1].kind, Word::literal("$").kind);
    }

    #[test]
    fn escapes_in_words() {
        let cmds = parse_script(r#"puts "a\nb\t\"q\"""#).unwrap();
        let WordKind::Parts(parts) = &cmds[0].words[1].kind else {
            panic!("expected parts")
        };
        assert_eq!(parts, &vec![WordPart::Literal("a\nb\t\"q\"".into())]);
    }

    #[test]
    fn line_continuation_joins_commands() {
        let cmds = parse_script("set x \\\n 42").unwrap();
        assert_eq!(cmds.len(), 1);
        assert_eq!(cmds[0].words.len(), 3);
        // A backslash that continues nothing starts an ordinary word, at
        // the column it stands on.
        let cmds = parse_script("set x \\a").unwrap();
        assert_eq!(cmds[0].words[2].kind, Word::literal("a").kind);
        assert_eq!(cmds[0].words[2].span, Span::new(1, 7));
    }

    #[test]
    fn unclosed_constructs_error() {
        assert!(parse_script("set x {oops").is_err());
        assert!(parse_script("set x [oops").is_err());
        assert!(parse_script("set x \"oops").is_err());
        let err = parse_script("\n\nset x {").unwrap_err();
        assert_eq!(err.line, 3);
        assert_eq!(err.col, 8);
        assert!(err.to_string().contains("<script>:3:8"));
        assert!(err.render("a.taco").starts_with("a.taco:3:8: parse error"));
    }

    #[test]
    fn nested_brackets() {
        let cmds = parse_script("set x [a [b c] d]").unwrap();
        let WordKind::Parts(parts) = &cmds[0].words[2].kind else {
            panic!("expected parts")
        };
        assert_eq!(parts, &vec![WordPart::Command("a [b c] d".into())]);
    }

    #[test]
    fn pieces_read_vars_and_scripts() {
        let read: Vec<_> = pieces("$a+${b c}<[f [g]] \"$\" [open").collect();
        let (var, script) = (
            |v| Piece::Leaf(Leaf::Var(v)),
            |s| Piece::Leaf(Leaf::Script(s)),
        );
        assert_eq!(
            read,
            [
                (Span::new(1, 1), var("a")),
                (Span::new(1, 3), Piece::Text("+")),
                (Span::new(1, 4), var("b c")),
                (Span::new(1, 10), Piece::Text("<")),
                (Span::new(1, 11), script("f [g]")),
                (Span::new(1, 18), Piece::Text(" \"")),
                (Span::new(1, 20), Piece::Text("$")),
                (Span::new(1, 21), Piece::Text("\" ")),
                (Span::new(1, 23), script("open")),
            ]
        );
        let unclosed: Vec<_> = pieces("${x").map(|(_, piece)| piece).collect();
        assert_eq!(unclosed, [var("x")]);
        let names: Vec<_> = var_names("{$a [$b] \"$\" ${c d}$}").collect();
        assert_eq!(names, ["a", "b", "c d"]);
    }

    /// Reads the `if` chain over literal words.
    fn chain(words: &str) -> Vec<Result<Clause, IfFault>> {
        let words: Vec<&str> = words.split_whitespace().collect();
        if_chain(words.len(), |i| words.get(i).copied()).collect()
    }

    #[test]
    fn if_chains_end_in_their_fault() {
        let arm = |cond, body| {
            Ok(Clause {
                cond: Some(cond),
                body,
            })
        };
        let other = |body| Ok(Clause { cond: None, body });
        assert_eq!(chain("c b"), [arm(0, 1)]);
        assert_eq!(
            chain("c b elseif d e else f"),
            [arm(0, 1), arm(3, 4), other(6)]
        );
        assert_eq!(
            chain("c b else f g"),
            [arm(0, 1), other(3), Err(IfFault::Trailing)]
        );
        assert_eq!(
            chain("c b else"),
            [arm(0, 1), Err(IfFault::ElseWithoutBody)]
        );
        assert_eq!(chain("c b elseif d"), [arm(0, 1), Err(IfFault::Truncated)]);
        assert_eq!(
            chain("c b then e"),
            [arm(0, 1), Err(IfFault::Unexpected(2))]
        );
        assert_eq!(chain(""), [Err(IfFault::Truncated)]);
        assert_eq!(chain("c"), [Err(IfFault::Truncated)]);
    }

    /// A control command is malformed exactly when the builtin table
    /// refuses its arity, which is why the interpreter never meets one.
    #[test]
    fn malformed_is_the_tables_arity_error() {
        for name in ["while", "foreach", "catch"] {
            let spec = crate::builtins::builtin(name).expect("a builtin");
            for argc in 0..6 {
                let malformed = control(name, argc) == Some(Control::Malformed);
                assert_eq!(malformed, spec.arity_violated(argc), "{name} with {argc}");
            }
        }
    }

    #[test]
    fn empty_script_is_ok() {
        assert!(parse_script("").unwrap().is_empty());
        assert!(parse_script("   \n # only a comment \n")
            .unwrap()
            .is_empty());
    }
}
