//! A lightweight Rust tokenizer — just enough lexical structure for the
//! rule engine.
//!
//! The hermetic build policy (README §"Hermetic build") rules out `syn`,
//! `proc-macro2` or rustc internals, so `rh-lint` carries its own lexer.
//! It does **not** parse Rust; it produces a flat token stream with
//! line/column anchors, which is sufficient for every project lint
//! (wall-clock calls, `unwrap()`, float `==`, truncating casts, `HashMap`
//! imports) because those are all recognizable from short token patterns.
//!
//! The lexer understands the parts of the grammar that could otherwise
//! produce false positives:
//!
//! * line (`//`) and block (`/* */`, nested) comments — skipped, but
//!   scanned for `lint:allow` directives (see [`crate::rules`]),
//! * string, raw-string (`r#".."#`), byte-string and char literals —
//!   emitted as single [`TokenKind::Literal`] tokens so their *contents*
//!   can never match a rule,
//! * numeric literals, distinguishing floats (for the float-`==` rule),
//! * identifiers/keywords, lifetimes, and multi-character punctuation
//!   (`::`, `==`, `!=`, `->`, …).

use std::fmt;

/// The coarse kind of one token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword (`unwrap`, `as`, `u32`, …).
    Ident,
    /// Integer literal.
    Int,
    /// Float literal (`1.0`, `2e-3`, `1_000.5f64`).
    Float,
    /// String / raw-string / byte-string / char literal (contents opaque).
    Literal,
    /// A lifetime token (`'a`) — distinguished from char literals.
    Lifetime,
    /// Punctuation, possibly multi-character (`::`, `==`, `!=`, `.`).
    Punct,
}

/// One token with its source anchor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// Kind of token.
    pub kind: TokenKind,
    /// The token's text (for [`TokenKind::Literal`], the raw source
    /// including quotes).
    pub text: String,
    /// 1-based line of the token's first character.
    pub line: u32,
    /// 1-based column of the token's first character.
    pub col: u32,
}

impl fmt::Display for Token {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{} {:?} {:?}",
            self.line, self.col, self.kind, self.text
        )
    }
}

/// A comment found while lexing (rule directives live in comments).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Comment {
    /// Comment text without the `//` / `/* */` markers, trimmed.
    pub text: String,
    /// 1-based line the comment starts on.
    pub line: u32,
}

/// The result of lexing one file.
#[derive(Debug, Clone, Default)]
pub struct Lexed {
    /// All tokens in source order.
    pub tokens: Vec<Token>,
    /// All comments in source order.
    pub comments: Vec<Comment>,
}

struct Cursor<'a> {
    src: &'a [u8],
    pos: usize,
    line: u32,
    col: u32,
}

impl<'a> Cursor<'a> {
    fn new(src: &'a str) -> Self {
        Cursor {
            src: src.as_bytes(),
            pos: 0,
            line: 1,
            col: 1,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn peek2(&self) -> Option<u8> {
        self.src.get(self.pos + 1).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let c = self.peek()?;
        self.pos += 1;
        if c == b'\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }
}

fn is_ident_start(c: u8) -> bool {
    c.is_ascii_alphabetic() || c == b'_' || c >= 0x80
}

fn is_ident_continue(c: u8) -> bool {
    c.is_ascii_alphanumeric() || c == b'_' || c >= 0x80
}

/// Tokenizes `src`, returning tokens and comments.
///
/// The lexer is permissive: on malformed input (e.g. an unterminated
/// string) it consumes to end of file rather than failing — a lint pass
/// must never be the reason a build script aborts on a file rustc itself
/// would reject with a better message.
pub fn tokenize(src: &str) -> Lexed {
    let mut cur = Cursor::new(src);
    let mut out = Lexed::default();
    while let Some(c) = cur.peek() {
        let (line, col) = (cur.line, cur.col);
        match c {
            b' ' | b'\t' | b'\r' | b'\n' => {
                cur.bump();
            }
            b'/' if cur.peek2() == Some(b'/') => {
                let start = cur.pos + 2;
                while cur.peek().is_some_and(|c| c != b'\n') {
                    cur.bump();
                }
                let text = String::from_utf8_lossy(&cur.src[start..cur.pos])
                    .trim_start_matches(['/', '!'])
                    .trim()
                    .to_string();
                out.comments.push(Comment { text, line });
            }
            b'/' if cur.peek2() == Some(b'*') => {
                cur.bump();
                cur.bump();
                let start = cur.pos;
                let mut depth = 1u32;
                while depth > 0 {
                    match (cur.peek(), cur.peek2()) {
                        (Some(b'/'), Some(b'*')) => {
                            depth += 1;
                            cur.bump();
                            cur.bump();
                        }
                        (Some(b'*'), Some(b'/')) => {
                            depth -= 1;
                            cur.bump();
                            cur.bump();
                        }
                        (Some(_), _) => {
                            cur.bump();
                        }
                        (None, _) => break,
                    }
                }
                let end = cur.pos.saturating_sub(2).max(start);
                let text = String::from_utf8_lossy(&cur.src[start..end])
                    .trim()
                    .to_string();
                out.comments.push(Comment { text, line });
            }
            b'"' => lex_string(&mut cur, &mut out, line, col),
            b'r' | b'b' if starts_raw_or_byte_string(&cur) => {
                lex_prefixed_string(&mut cur, &mut out, line, col)
            }
            b'\'' => lex_char_or_lifetime(&mut cur, &mut out, line, col),
            c if c.is_ascii_digit() => lex_number(&mut cur, &mut out, line, col),
            c if is_ident_start(c) => {
                let start = cur.pos;
                while cur.peek().is_some_and(is_ident_continue) {
                    cur.bump();
                }
                out.tokens.push(Token {
                    kind: TokenKind::Ident,
                    text: String::from_utf8_lossy(&cur.src[start..cur.pos]).into_owned(),
                    line,
                    col,
                });
            }
            _ => lex_punct(&mut cur, &mut out, line, col),
        }
    }
    out
}

/// True when the cursor sits on `r"`, `r#`, `b"`, `b'`, `br"` or `br#`.
fn starts_raw_or_byte_string(cur: &Cursor<'_>) -> bool {
    let rest = &cur.src[cur.pos..];
    matches!(
        rest,
        [b'r', b'"' | b'#', ..] | [b'b', b'"' | b'\'', ..] | [b'b', b'r', b'"' | b'#', ..]
    )
}

fn lex_string(cur: &mut Cursor<'_>, out: &mut Lexed, line: u32, col: u32) {
    let start = cur.pos;
    cur.bump(); // opening quote
    while let Some(c) = cur.peek() {
        match c {
            b'\\' => {
                cur.bump();
                cur.bump();
            }
            b'"' => {
                cur.bump();
                break;
            }
            _ => {
                cur.bump();
            }
        }
    }
    push_literal(cur, out, start, line, col);
}

fn lex_prefixed_string(cur: &mut Cursor<'_>, out: &mut Lexed, line: u32, col: u32) {
    let start = cur.pos;
    // Consume the `r` / `b` / `br` prefix.
    while cur.peek().is_some_and(|c| c == b'r' || c == b'b') {
        cur.bump();
    }
    if cur.peek() == Some(b'\'') {
        // Byte char literal b'x'.
        cur.bump();
        while let Some(c) = cur.peek() {
            match c {
                b'\\' => {
                    cur.bump();
                    cur.bump();
                }
                b'\'' => {
                    cur.bump();
                    break;
                }
                _ => {
                    cur.bump();
                }
            }
        }
        push_literal(cur, out, start, line, col);
        return;
    }
    let mut hashes = 0usize;
    while cur.peek() == Some(b'#') {
        hashes += 1;
        cur.bump();
    }
    if cur.peek() != Some(b'"') {
        // `r#ident` — a raw identifier, not a string.
        let ident_start = cur.pos;
        while cur.peek().is_some_and(is_ident_continue) {
            cur.bump();
        }
        out.tokens.push(Token {
            kind: TokenKind::Ident,
            text: String::from_utf8_lossy(&cur.src[ident_start..cur.pos]).into_owned(),
            line,
            col,
        });
        return;
    }
    cur.bump(); // opening quote
                // Raw string: ends at `"` followed by `hashes` hash marks.
    'outer: while let Some(c) = cur.peek() {
        cur.bump();
        if c == b'"' {
            for i in 0..hashes {
                if cur.src.get(cur.pos + i) != Some(&b'#') {
                    continue 'outer;
                }
            }
            for _ in 0..hashes {
                cur.bump();
            }
            break;
        }
    }
    push_literal(cur, out, start, line, col);
}

fn lex_char_or_lifetime(cur: &mut Cursor<'_>, out: &mut Lexed, line: u32, col: u32) {
    let start = cur.pos;
    cur.bump(); // the quote
                // Lifetime: 'ident not followed by a closing quote (so 'a' is a char
                // but 'a followed by anything else is a lifetime).
    if cur.peek().is_some_and(is_ident_start) {
        let mut probe = cur.pos;
        while cur.src.get(probe).copied().is_some_and(is_ident_continue) {
            probe += 1;
        }
        if cur.src.get(probe) != Some(&b'\'') {
            while cur.peek().is_some_and(is_ident_continue) {
                cur.bump();
            }
            out.tokens.push(Token {
                kind: TokenKind::Lifetime,
                text: String::from_utf8_lossy(&cur.src[start..cur.pos]).into_owned(),
                line,
                col,
            });
            return;
        }
    }
    // Char literal.
    while let Some(c) = cur.peek() {
        match c {
            b'\\' => {
                cur.bump();
                cur.bump();
            }
            b'\'' => {
                cur.bump();
                break;
            }
            _ => {
                cur.bump();
            }
        }
    }
    push_literal(cur, out, start, line, col);
}

fn lex_number(cur: &mut Cursor<'_>, out: &mut Lexed, line: u32, col: u32) {
    let start = cur.pos;
    let mut is_float = false;
    // Hex/octal/binary prefixes are integers.
    if cur.peek() == Some(b'0')
        && matches!(
            cur.peek2(),
            Some(b'x') | Some(b'o') | Some(b'b') | Some(b'X')
        )
    {
        cur.bump();
        cur.bump();
        while cur
            .peek()
            .is_some_and(|c| c.is_ascii_alphanumeric() || c == b'_')
        {
            cur.bump();
        }
    } else {
        while cur.peek().is_some_and(|c| c.is_ascii_digit() || c == b'_') {
            cur.bump();
        }
        // A decimal point followed by a digit makes it a float; `1.foo()`
        // and `1..2` stay integers.
        if cur.peek() == Some(b'.') && cur.peek2().is_some_and(|c| c.is_ascii_digit()) {
            is_float = true;
            cur.bump();
            while cur.peek().is_some_and(|c| c.is_ascii_digit() || c == b'_') {
                cur.bump();
            }
        }
        // Exponent.
        if matches!(cur.peek(), Some(b'e') | Some(b'E')) {
            let mut probe = cur.pos + 1;
            if matches!(cur.src.get(probe), Some(b'+') | Some(b'-')) {
                probe += 1;
            }
            if cur
                .src
                .get(probe)
                .copied()
                .is_some_and(|c| c.is_ascii_digit())
            {
                is_float = true;
                cur.bump(); // e
                if matches!(cur.peek(), Some(b'+') | Some(b'-')) {
                    cur.bump();
                }
                while cur.peek().is_some_and(|c| c.is_ascii_digit() || c == b'_') {
                    cur.bump();
                }
            }
        }
        // Type suffix (`1.0f64`, `1u32`).
        if cur.peek().is_some_and(is_ident_start) {
            let suffix_start = cur.pos;
            while cur.peek().is_some_and(is_ident_continue) {
                cur.bump();
            }
            let suffix = &cur.src[suffix_start..cur.pos];
            if suffix == b"f32" || suffix == b"f64" {
                is_float = true;
            }
        }
    }
    out.tokens.push(Token {
        kind: if is_float {
            TokenKind::Float
        } else {
            TokenKind::Int
        },
        text: String::from_utf8_lossy(&cur.src[start..cur.pos]).into_owned(),
        line,
        col,
    });
}

fn lex_punct(cur: &mut Cursor<'_>, out: &mut Lexed, line: u32, col: u32) {
    // Longest-match over the multi-char operators the rules care about;
    // everything else is emitted one char at a time.
    const MULTI: [&str; 14] = [
        "::", "==", "!=", "<=", ">=", "->", "=>", "..=", "..", "&&", "||", "<<", ">>", "//",
    ];
    let rest = &cur.src[cur.pos..];
    for m in MULTI {
        if rest.starts_with(m.as_bytes()) {
            for _ in 0..m.len() {
                cur.bump();
            }
            out.tokens.push(Token {
                kind: TokenKind::Punct,
                text: m.to_string(),
                line,
                col,
            });
            return;
        }
    }
    let c = cur.bump().unwrap_or(b'?');
    out.tokens.push(Token {
        kind: TokenKind::Punct,
        text: (c as char).to_string(),
        line,
        col,
    });
}

fn push_literal(cur: &Cursor<'_>, out: &mut Lexed, start: usize, line: u32, col: u32) {
    out.tokens.push(Token {
        kind: TokenKind::Literal,
        text: String::from_utf8_lossy(&cur.src[start..cur.pos]).into_owned(),
        line,
        col,
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokenKind, String)> {
        tokenize(src)
            .tokens
            .into_iter()
            .map(|t| (t.kind, t.text))
            .collect()
    }

    #[test]
    fn idents_and_paths() {
        let toks = kinds("Instant::now()");
        assert_eq!(
            toks,
            vec![
                (TokenKind::Ident, "Instant".into()),
                (TokenKind::Punct, "::".into()),
                (TokenKind::Ident, "now".into()),
                (TokenKind::Punct, "(".into()),
                (TokenKind::Punct, ")".into()),
            ]
        );
    }

    #[test]
    fn string_contents_are_opaque() {
        let toks = kinds(r#"let s = "x.unwrap() == 1.0";"#);
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokenKind::Literal && t.contains("unwrap")));
        // No Ident token named unwrap and no float token leaked out.
        assert!(!toks
            .iter()
            .any(|(k, t)| *k == TokenKind::Ident && t == "unwrap"));
        assert!(!toks.iter().any(|(k, _)| *k == TokenKind::Float));
    }

    #[test]
    fn raw_strings_and_hashes() {
        let toks = kinds(r##"let s = r#"a "quoted" panic!()"#; x"##);
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokenKind::Literal && t.contains("panic")));
        assert!(toks.iter().any(|(k, t)| *k == TokenKind::Ident && t == "x"));
        assert!(!toks
            .iter()
            .any(|(k, t)| *k == TokenKind::Ident && t == "panic"));
    }

    #[test]
    fn comments_are_collected_not_tokenized() {
        let lexed = tokenize("// lint:allow(unwrap-panic): reason\nlet x = 1; /* block */");
        assert_eq!(lexed.comments.len(), 2);
        assert!(lexed.comments[0].text.contains("lint:allow"));
        assert_eq!(lexed.comments[0].line, 1);
        assert_eq!(lexed.comments[1].text, "block");
        assert!(!lexed.tokens.iter().any(|t| t.text.contains("lint")));
    }

    #[test]
    fn float_versus_int_versus_range() {
        assert_eq!(kinds("1.5")[0].0, TokenKind::Float);
        assert_eq!(kinds("2e-3")[0].0, TokenKind::Float);
        assert_eq!(kinds("1_000.25f64")[0].0, TokenKind::Float);
        assert_eq!(kinds("3f64")[0].0, TokenKind::Float);
        assert_eq!(kinds("10")[0].0, TokenKind::Int);
        assert_eq!(kinds("0x1F")[0].0, TokenKind::Int);
        // `0..10` is two ints and a range operator, not a float.
        let toks = kinds("0..10");
        assert_eq!(toks[0].0, TokenKind::Int);
        assert_eq!(toks[1], (TokenKind::Punct, "..".into()));
        assert_eq!(toks[2].0, TokenKind::Int);
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let toks = kinds("fn f<'a>(x: &'a str) { let c = 'x'; }");
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokenKind::Lifetime && t == "'a"));
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokenKind::Literal && t == "'x'"));
    }

    #[test]
    fn line_and_column_anchors() {
        let lexed = tokenize("a\n  b");
        assert_eq!((lexed.tokens[0].line, lexed.tokens[0].col), (1, 1));
        assert_eq!((lexed.tokens[1].line, lexed.tokens[1].col), (2, 3));
    }

    #[test]
    fn nested_block_comments() {
        let lexed = tokenize("/* outer /* inner */ tail */ x");
        assert_eq!(lexed.comments.len(), 1);
        assert_eq!(lexed.tokens.len(), 1);
        assert_eq!(lexed.tokens[0].text, "x");
    }

    #[test]
    fn multi_char_punct() {
        let toks = kinds("a == b != c");
        let puncts: Vec<&str> = toks
            .iter()
            .filter(|(k, _)| *k == TokenKind::Punct)
            .map(|(_, t)| t.as_str())
            .collect();
        assert_eq!(puncts, vec!["==", "!="]);
    }

    #[test]
    fn raw_identifier() {
        let toks = kinds("r#type");
        assert_eq!(toks, vec![(TokenKind::Ident, "type".into())]);
    }

    #[test]
    fn byte_strings_are_opaque_literals() {
        let toks = kinds(r#"let b = b"x.unwrap() HashMap"; let c = b'\n'; y"#);
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokenKind::Literal && t.contains("unwrap")));
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokenKind::Literal && t == r"b'\n'"));
        assert!(!toks
            .iter()
            .any(|(k, t)| *k == TokenKind::Ident && (t == "unwrap" || t == "HashMap")));
        assert!(toks.iter().any(|(k, t)| *k == TokenKind::Ident && t == "y"));
    }

    #[test]
    fn raw_byte_strings_with_hashes() {
        let toks = kinds(r###"let s = br##"panic!() "quote"# still inside"##; z"###);
        // The `"#` inside must not close a `##`-delimited raw byte string.
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokenKind::Literal && t.contains("still inside")));
        assert!(!toks
            .iter()
            .any(|(k, t)| *k == TokenKind::Ident && t == "panic"));
        assert!(toks.iter().any(|(k, t)| *k == TokenKind::Ident && t == "z"));
    }

    #[test]
    fn multi_hash_raw_string_embeds_lesser_terminators() {
        let toks = kinds(r###"r##"a "# b"## ; tail"###);
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokenKind::Literal && t.contains("a \"# b")));
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokenKind::Ident && t == "tail"));
    }

    #[test]
    fn deeply_nested_and_unterminated_block_comments() {
        let lexed = tokenize("/* a /* b /* c */ */ tail */ x");
        assert_eq!(lexed.comments.len(), 1);
        assert_eq!(lexed.tokens.len(), 1);
        // Unterminated: everything to EOF is comment, nothing panics, and
        // no token leaks out of the open comment.
        let lexed = tokenize("x /* open /* still open */");
        assert_eq!(lexed.tokens.len(), 1);
        assert_eq!(lexed.tokens[0].text, "x");
    }

    #[test]
    fn unterminated_string_consumes_to_eof_without_panicking() {
        let lexed = tokenize("let s = \"no close; x.unwrap()");
        assert!(!lexed
            .tokens
            .iter()
            .any(|t| t.kind == TokenKind::Ident && t.text == "unwrap"));
        let lexed = tokenize("let s = r#\"no close");
        assert!(lexed
            .tokens
            .iter()
            .any(|t| t.kind == TokenKind::Literal && t.text.contains("no close")));
    }

    #[test]
    fn comments_inside_macro_bodies_are_collected() {
        // A lint:allow directive inside a macro invocation body is a real
        // comment with a real line number (rules::check_file honors it);
        // the same text inside a string literal is not a comment at all.
        let lexed =
            tokenize("assert_eq!(\n  // lint:allow(float-eq): quantized fixture\n  a, 1.0\n);");
        assert_eq!(lexed.comments.len(), 1);
        assert!(lexed.comments[0].text.starts_with("lint:allow"));
        assert_eq!(lexed.comments[0].line, 2);
        let lexed = tokenize(r#"let s = "// lint:allow(float-eq): fake";"#);
        assert!(lexed.comments.is_empty());
    }
}
