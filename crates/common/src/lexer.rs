//! A single tokenizer shared by every text format in the workspace: the
//! relational-instance format, the graph format, NRE expressions, CNRE
//! queries, and the mapping DSL.
//!
//! The token set is the union of what those formats need; each parser
//! rejects tokens it has no use for. Identifiers may start with a digit
//! (the paper's running example uses flight ids `01`, `02` as constants).

use crate::error::{GdxError, Result};
use std::fmt;

/// One lexical token plus its source position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// Token payload.
    pub kind: TokenKind,
    /// 1-based source line.
    pub line: u32,
    /// 1-based source column.
    pub col: u32,
}

/// Token payloads.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier: `[A-Za-z0-9_][A-Za-z0-9_']*` (may start with a digit),
    /// or `_~` followed by identifier characters (a printed fresh null).
    Ident(String),
    /// A `"quoted string"` — used where constants must be distinguished
    /// from variables (query atoms).
    Str(String),
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `{`
    LBrace,
    /// `}`
    RBrace,
    /// `[`
    LBracket,
    /// `]`
    RBracket,
    /// `,`
    Comma,
    /// `;`
    Semi,
    /// `:`
    Colon,
    /// `=`
    Eq,
    /// `*`
    Star,
    /// `+`
    Plus,
    /// `-` (NRE inverse, also used in `->` detection)
    Minus,
    /// `.`
    Dot,
    /// `/`
    Slash,
    /// `->`
    Arrow,
    /// End of input (always present as the final token).
    Eof,
}

impl fmt::Display for TokenKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TokenKind::Ident(s) => write!(f, "identifier `{s}`"),
            TokenKind::Str(s) => write!(f, "string `\"{s}\"`"),
            TokenKind::LParen => write!(f, "`(`"),
            TokenKind::RParen => write!(f, "`)`"),
            TokenKind::LBrace => write!(f, "`{{`"),
            TokenKind::RBrace => write!(f, "`}}`"),
            TokenKind::LBracket => write!(f, "`[`"),
            TokenKind::RBracket => write!(f, "`]`"),
            TokenKind::Comma => write!(f, "`,`"),
            TokenKind::Semi => write!(f, "`;`"),
            TokenKind::Colon => write!(f, "`:`"),
            TokenKind::Eq => write!(f, "`=`"),
            TokenKind::Star => write!(f, "`*`"),
            TokenKind::Plus => write!(f, "`+`"),
            TokenKind::Minus => write!(f, "`-`"),
            TokenKind::Dot => write!(f, "`.`"),
            TokenKind::Slash => write!(f, "`/`"),
            TokenKind::Arrow => write!(f, "`->`"),
            TokenKind::Eof => write!(f, "end of input"),
        }
    }
}

/// Characters that may appear in a bare (unquoted) identifier. Printers
/// that emit names decide with this whether a name can be written bare
/// or needs the quoted `"..."` spelling.
pub fn is_ident_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_' || c == '\''
}

/// Tokenizes `input`. Comments run from `#` or `//` to end of line.
/// The Greek `ε` is lexed as the identifier `eps`.
pub fn tokenize(input: &str) -> Result<Vec<Token>> {
    let mut out = Vec::new();
    let mut line: u32 = 1;
    let mut col: u32 = 1;
    let mut chars = input.chars().peekable();

    macro_rules! push {
        ($kind:expr, $l:expr, $c:expr) => {
            out.push(Token {
                kind: $kind,
                line: $l,
                col: $c,
            })
        };
    }

    while let Some(&c) = chars.peek() {
        let (tl, tc) = (line, col);
        match c {
            '\n' => {
                chars.next();
                line += 1;
                col = 1;
            }
            c if c.is_whitespace() => {
                chars.next();
                col += 1;
            }
            '#' => {
                while let Some(&c) = chars.peek() {
                    if c == '\n' {
                        break;
                    }
                    chars.next();
                    col += 1;
                }
            }
            '/' => {
                chars.next();
                col += 1;
                if chars.peek() == Some(&'/') {
                    while let Some(&c) = chars.peek() {
                        if c == '\n' {
                            break;
                        }
                        chars.next();
                        col += 1;
                    }
                } else {
                    push!(TokenKind::Slash, tl, tc);
                }
            }
            '-' => {
                chars.next();
                col += 1;
                if chars.peek() == Some(&'>') {
                    chars.next();
                    col += 1;
                    push!(TokenKind::Arrow, tl, tc);
                } else {
                    push!(TokenKind::Minus, tl, tc);
                }
            }
            '"' => {
                chars.next();
                col += 1;
                let mut s = String::new();
                let mut closed = false;
                while let Some(&c) = chars.peek() {
                    chars.next();
                    col += 1;
                    if c == '"' {
                        closed = true;
                        break;
                    }
                    if c == '\n' {
                        return Err(GdxError::parse(tl, tc, "unterminated string"));
                    }
                    s.push(c);
                }
                if !closed {
                    return Err(GdxError::parse(tl, tc, "unterminated string"));
                }
                push!(TokenKind::Str(s), tl, tc);
            }
            'ε' => {
                chars.next();
                col += 1;
                push!(TokenKind::Ident("eps".to_owned()), tl, tc);
            }
            c if is_ident_char(c) => {
                let mut s = String::new();
                while let Some(&c) = chars.peek() {
                    // `_~` opens the printed name of a fresh labeled null
                    // (`_~3`), so printed graphs parse back.
                    let null_tilde = c == '~' && s == "_";
                    if !is_ident_char(c) && !null_tilde {
                        break;
                    }
                    s.push(c);
                    chars.next();
                    col += 1;
                }
                push!(TokenKind::Ident(s), tl, tc);
            }
            _ => {
                let kind = match c {
                    '(' => TokenKind::LParen,
                    ')' => TokenKind::RParen,
                    '{' => TokenKind::LBrace,
                    '}' => TokenKind::RBrace,
                    '[' => TokenKind::LBracket,
                    ']' => TokenKind::RBracket,
                    ',' => TokenKind::Comma,
                    ';' => TokenKind::Semi,
                    ':' => TokenKind::Colon,
                    '=' => TokenKind::Eq,
                    '*' => TokenKind::Star,
                    '+' => TokenKind::Plus,
                    '.' => TokenKind::Dot,
                    other => {
                        return Err(GdxError::parse(
                            tl,
                            tc,
                            format!("unexpected character `{other}`"),
                        ))
                    }
                };
                chars.next();
                col += 1;
                push!(kind, tl, tc);
            }
        }
    }
    push!(TokenKind::Eof, line, col);
    Ok(out)
}

/// A cursor over a token stream with the helpers every parser needs.
#[derive(Debug, Clone)]
pub struct TokenCursor {
    tokens: Vec<Token>,
    pos: usize,
}

impl TokenCursor {
    /// Tokenizes `input` and positions the cursor at the first token.
    pub fn new(input: &str) -> Result<TokenCursor> {
        Ok(TokenCursor {
            tokens: tokenize(input)?,
            pos: 0,
        })
    }

    /// The current token (never panics: the stream ends with `Eof`).
    pub fn peek(&self) -> &Token {
        &self.tokens[self.pos.min(self.tokens.len() - 1)]
    }

    /// The token after the current one.
    pub fn peek2(&self) -> &Token {
        &self.tokens[(self.pos + 1).min(self.tokens.len() - 1)]
    }

    /// Advances and returns the consumed token.
    pub fn bump(&mut self) -> Token {
        let t = self.peek().clone();
        if self.pos < self.tokens.len() - 1 {
            self.pos += 1;
        }
        t
    }

    /// True when the current token is `kind`.
    pub fn at(&self, kind: &TokenKind) -> bool {
        &self.peek().kind == kind
    }

    /// Consumes the current token when it is `kind`.
    pub fn eat(&mut self, kind: &TokenKind) -> bool {
        if self.at(kind) {
            self.bump();
            true
        } else {
            false
        }
    }

    /// Consumes `kind` or fails with a positioned error mentioning `ctx`.
    pub fn expect(&mut self, kind: &TokenKind, ctx: &str) -> Result<Token> {
        if self.at(kind) {
            Ok(self.bump())
        } else {
            let t = self.peek();
            Err(GdxError::parse(
                t.line,
                t.col,
                format!("expected {kind} in {ctx}, found {}", t.kind),
            ))
        }
    }

    /// Consumes an identifier and returns its text, or fails.
    pub fn expect_ident(&mut self, ctx: &str) -> Result<String> {
        match &self.peek().kind {
            TokenKind::Ident(s) => {
                let s = s.clone();
                self.bump();
                Ok(s)
            }
            other => {
                let t = self.peek();
                Err(GdxError::parse(
                    t.line,
                    t.col,
                    format!("expected identifier in {ctx}, found {other}"),
                ))
            }
        }
    }

    /// Consumes an identifier *or* quoted string, returning
    /// `(text, was_quoted)`. Formats where names are always constants
    /// (facts, graph nodes) accept both spellings.
    pub fn expect_name(&mut self, ctx: &str) -> Result<(String, bool)> {
        match &self.peek().kind {
            TokenKind::Ident(s) => {
                let s = s.clone();
                self.bump();
                Ok((s, false))
            }
            TokenKind::Str(s) => {
                let s = s.clone();
                self.bump();
                Ok((s, true))
            }
            other => {
                let t = self.peek();
                Err(GdxError::parse(
                    t.line,
                    t.col,
                    format!("expected name in {ctx}, found {other}"),
                ))
            }
        }
    }

    /// Consumes the current identifier only if it equals `kw`.
    pub fn eat_keyword(&mut self, kw: &str) -> bool {
        if let TokenKind::Ident(s) = &self.peek().kind {
            if s == kw {
                self.bump();
                return true;
            }
        }
        false
    }

    /// True at end of input.
    pub fn at_eof(&self) -> bool {
        matches!(self.peek().kind, TokenKind::Eof)
    }

    /// Builds a positioned parse error at the current token.
    pub fn error(&self, msg: impl Into<String>) -> GdxError {
        let t = self.peek();
        GdxError::parse(t.line, t.col, msg.into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(s: &str) -> Vec<TokenKind> {
        tokenize(s).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn printed_fresh_null_names_lex_as_identifiers() {
        assert_eq!(
            kinds("(_~12, f, x_)"),
            vec![
                TokenKind::LParen,
                TokenKind::Ident("_~12".into()),
                TokenKind::Comma,
                TokenKind::Ident("f".into()),
                TokenKind::Comma,
                TokenKind::Ident("x_".into()),
                TokenKind::RParen,
                TokenKind::Eof,
            ]
        );
        // `~` stays foreign everywhere else.
        assert!(tokenize("a~1").is_err());
        assert!(tokenize("_a~1").is_err());
        assert!(tokenize("~1").is_err());
    }

    #[test]
    fn basic_tokens() {
        assert_eq!(
            kinds("(x1, f.f*, y) -> x = y;"),
            vec![
                TokenKind::LParen,
                TokenKind::Ident("x1".into()),
                TokenKind::Comma,
                TokenKind::Ident("f".into()),
                TokenKind::Dot,
                TokenKind::Ident("f".into()),
                TokenKind::Star,
                TokenKind::Comma,
                TokenKind::Ident("y".into()),
                TokenKind::RParen,
                TokenKind::Arrow,
                TokenKind::Ident("x".into()),
                TokenKind::Eq,
                TokenKind::Ident("y".into()),
                TokenKind::Semi,
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn digit_leading_idents() {
        assert_eq!(
            kinds("01 c1"),
            vec![
                TokenKind::Ident("01".into()),
                TokenKind::Ident("c1".into()),
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn comments_and_newlines() {
        let toks = tokenize("a # comment\nb // another\nc").unwrap();
        assert_eq!(toks.len(), 4);
        assert_eq!(toks[1].line, 2);
        assert_eq!(toks[2].line, 3);
    }

    #[test]
    fn minus_vs_arrow() {
        assert_eq!(
            kinds("a- -> b"),
            vec![
                TokenKind::Ident("a".into()),
                TokenKind::Minus,
                TokenKind::Arrow,
                TokenKind::Ident("b".into()),
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn quoted_strings() {
        assert_eq!(
            kinds("\"hello world\""),
            vec![TokenKind::Str("hello world".into()), TokenKind::Eof]
        );
        assert!(tokenize("\"unterminated").is_err());
    }

    #[test]
    fn expect_name_accepts_both() {
        let mut c = TokenCursor::new("foo \"bar baz\"").unwrap();
        assert_eq!(c.expect_name("t").unwrap(), ("foo".into(), false));
        assert_eq!(c.expect_name("t").unwrap(), ("bar baz".into(), true));
        assert!(c.expect_name("t").is_err());
    }

    #[test]
    fn epsilon_character() {
        assert_eq!(
            kinds("ε"),
            vec![TokenKind::Ident("eps".into()), TokenKind::Eof]
        );
    }

    #[test]
    fn error_position() {
        let err = tokenize("abc\n  @").unwrap_err();
        match err {
            GdxError::Parse { line, col, .. } => {
                assert_eq!((line, col), (2, 3));
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn cursor_helpers() {
        let mut c = TokenCursor::new("foo ( bar").unwrap();
        assert_eq!(c.expect_ident("test").unwrap(), "foo");
        assert!(c.eat(&TokenKind::LParen));
        assert!(!c.eat(&TokenKind::LParen));
        assert!(c.eat_keyword("bar"));
        assert!(c.at_eof());
        // bump at EOF stays at EOF
        c.bump();
        assert!(c.at_eof());
    }
}
