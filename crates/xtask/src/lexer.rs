//! A minimal Rust lexer: just enough to lint on.
//!
//! Produces identifier / number / string / punctuation tokens with line
//! numbers, strips comments (collecting `negassoc-lint:` allow directives
//! as it goes), and understands the constructs that would otherwise
//! produce false positives inside literals: nested block comments, raw
//! strings with arbitrary `#` fences, byte/char literals, and lifetimes.
//!
//! It does **not** parse: the lints work on token patterns, which is
//! exactly the right power for "call of `.unwrap()`" or "`==` near a
//! support expression" and keeps the analyzer dependency-free.

/// Token classes the lints distinguish.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword.
    Ident,
    /// Integer or float literal (any base, suffixes included).
    Number,
    /// String, raw string, byte string or char literal.
    Literal,
    /// A lifetime such as `'a`.
    Lifetime,
    /// Punctuation; multi-char operators (`==`, `!=`, `->`, …) are one
    /// token.
    Punct,
}

/// One token with its source position.
#[derive(Clone, Debug)]
pub struct Token {
    /// Class of the token.
    pub kind: TokenKind,
    /// Source text of the token (literals are truncated to their opening
    /// delimiter — the lints never need literal contents).
    pub text: String,
    /// 1-based line of the token's first character.
    pub line: u32,
}

/// One `// negassoc-lint: allow(…)` directive pulled from a comment.
///
/// A directive suppresses findings on its own line and the line below.
/// `has_reason` records whether a `-- reason` tail was present; L013
/// treats a reasonless directive as a finding of its own.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AllowDirective {
    /// 1-based line the comment starts on.
    pub line: u32,
    /// Lint ids named inside `allow(…)`, in source order.
    pub ids: Vec<String>,
    /// Whether a `-- reason` (or `— reason`) tail follows the `)`.
    pub has_reason: bool,
}

/// The lexed file: tokens plus the lint-allow directives found in
/// comments.
#[derive(Debug, Default)]
pub struct LexedFile {
    /// All tokens, comments stripped.
    pub tokens: Vec<Token>,
    /// Allow directives in source order.
    pub allows: Vec<AllowDirective>,
}

impl LexedFile {
    /// The directive ids covering `line` (its own line or the line above).
    pub fn allows_on(&self, line: u32) -> impl Iterator<Item = &str> {
        self.allows
            .iter()
            .filter(move |d| d.line == line || d.line == line.saturating_sub(1))
            .flat_map(|d| d.ids.iter().map(String::as_str))
    }
}

/// Multi-character operators merged into single tokens, longest first.
const OPERATORS: &[&str] = &[
    "..=", "==", "!=", "<=", ">=", "->", "=>", "::", "..", "&&", "||", "+=", "-=", "*=", "/=",
    "<<", ">>",
];

/// Lex `source`. Unterminated constructs consume to end-of-file rather
/// than erroring: the analyzer must degrade gracefully on any input.
pub fn lex(source: &str) -> LexedFile {
    let bytes = source.as_bytes();
    let mut out = LexedFile::default();
    let mut i = 0usize;
    let mut line = 1u32;

    while i < bytes.len() {
        let c = bytes[i];
        match c {
            b'\n' => {
                line += 1;
                i += 1;
            }
            c if c.is_ascii_whitespace() => i += 1,
            b'/' if bytes.get(i + 1) == Some(&b'/') => {
                let end = memchr_newline(bytes, i);
                collect_allow_directive(&source[i..end], line, &mut out.allows);
                i = end;
            }
            b'/' if bytes.get(i + 1) == Some(&b'*') => {
                let (end, newlines) = skip_block_comment(bytes, i);
                collect_allow_directive(&source[i..end], line, &mut out.allows);
                line += newlines;
                i = end;
            }
            // Raw identifier `r#match`: one Ident token (keeping the
            // `r#` prefix so a raw keyword never masquerades as the real
            // one), not an `r` ident + `#` punct — and definitely not a
            // raw-string opener.
            b'r' if bytes.get(i + 1) == Some(&b'#')
                && bytes.get(i + 2).is_some_and(|&b| is_ident_start(b)) =>
            {
                let mut j = i + 3;
                while j < bytes.len() && is_ident_continue(bytes[j]) {
                    j += 1;
                }
                out.tokens.push(Token {
                    kind: TokenKind::Ident,
                    text: source[i..j].into(),
                    line,
                });
                i = j;
            }
            b'r' | b'b' if starts_raw_or_byte_literal(bytes, i) => {
                let (end, newlines, open) = skip_string_like(bytes, i);
                out.tokens.push(Token {
                    kind: TokenKind::Literal,
                    text: open,
                    line,
                });
                line += newlines;
                i = end;
            }
            b'"' => {
                let (end, newlines) = skip_quoted(bytes, i, b'"');
                out.tokens.push(Token {
                    kind: TokenKind::Literal,
                    text: "\"".into(),
                    line,
                });
                line += newlines;
                i = end;
            }
            b'\'' => {
                if let Some(end) = char_literal_end(bytes, i) {
                    out.tokens.push(Token {
                        kind: TokenKind::Literal,
                        text: "'".into(),
                        line,
                    });
                    i = end;
                } else {
                    // A lifetime: `'` followed by an identifier.
                    let mut j = i + 1;
                    while j < bytes.len() && is_ident_continue(bytes[j]) {
                        j += 1;
                    }
                    out.tokens.push(Token {
                        kind: TokenKind::Lifetime,
                        text: source[i..j].into(),
                        line,
                    });
                    i = j.max(i + 1);
                }
            }
            c if is_ident_start(c) => {
                let mut j = i + 1;
                while j < bytes.len() && is_ident_continue(bytes[j]) {
                    j += 1;
                }
                out.tokens.push(Token {
                    kind: TokenKind::Ident,
                    text: source[i..j].into(),
                    line,
                });
                i = j;
            }
            c if c.is_ascii_digit() => {
                let mut j = i + 1;
                // Digits, underscores, base prefixes, float dots and
                // exponents, numeric suffixes — precision beyond "it is a
                // number" is not needed, but a trailing `.` must not eat a
                // method call (`1.max(2)`).
                while j < bytes.len() {
                    let b = bytes[j];
                    if b.is_ascii_alphanumeric()
                        || b == b'_'
                        || (b == b'.' && bytes.get(j + 1).is_some_and(|n| n.is_ascii_digit()))
                        || ((b == b'+' || b == b'-') && matches!(bytes[j - 1], b'e' | b'E'))
                    {
                        j += 1;
                    } else {
                        break;
                    }
                }
                out.tokens.push(Token {
                    kind: TokenKind::Number,
                    text: source[i..j].into(),
                    line,
                });
                i = j;
            }
            _ => {
                let rest = &source[i..];
                let op = OPERATORS.iter().find(|op| rest.starts_with(**op));
                let text: String = match op {
                    Some(op) => (*op).into(),
                    None => (c as char).to_string(),
                };
                let len = text.len();
                out.tokens.push(Token {
                    kind: TokenKind::Punct,
                    text,
                    line,
                });
                i += len;
            }
        }
    }
    out
}

fn is_ident_start(c: u8) -> bool {
    c.is_ascii_alphabetic() || c == b'_' || c >= 0x80
}

fn is_ident_continue(c: u8) -> bool {
    c.is_ascii_alphanumeric() || c == b'_' || c >= 0x80
}

fn memchr_newline(bytes: &[u8], from: usize) -> usize {
    bytes[from..]
        .iter()
        .position(|&b| b == b'\n')
        .map_or(bytes.len(), |p| from + p)
}

/// Skip a (possibly nested) block comment starting at `/*`. Returns (end
/// index, newlines crossed).
fn skip_block_comment(bytes: &[u8], start: usize) -> (usize, u32) {
    let mut depth = 0usize;
    let mut i = start;
    let mut newlines = 0u32;
    while i < bytes.len() {
        if bytes[i] == b'\n' {
            newlines += 1;
            i += 1;
        } else if bytes[i] == b'/' && bytes.get(i + 1) == Some(&b'*') {
            depth += 1;
            i += 2;
        } else if bytes[i] == b'*' && bytes.get(i + 1) == Some(&b'/') {
            depth -= 1;
            i += 2;
            if depth == 0 {
                return (i, newlines);
            }
        } else {
            i += 1;
        }
    }
    (bytes.len(), newlines)
}

/// Does `r`/`b` at `i` open a raw/byte string (`r"`, `r#`, `b"`, `br#`,
/// `b'`…) rather than an identifier?
fn starts_raw_or_byte_literal(bytes: &[u8], i: usize) -> bool {
    let mut j = i;
    if bytes[j] == b'b' {
        j += 1;
        if bytes.get(j) == Some(&b'\'') {
            return true; // byte char b'x'
        }
    }
    if bytes.get(j) == Some(&b'r') {
        j += 1;
        while bytes.get(j) == Some(&b'#') {
            j += 1;
        }
    }
    bytes.get(j) == Some(&b'"') && j > i
}

/// Skip a raw/byte string starting at its `r`/`b` prefix. Returns (end,
/// newlines, opening delimiter text).
fn skip_string_like(bytes: &[u8], start: usize) -> (usize, u32, String) {
    let mut j = start;
    if bytes[j] == b'b' {
        j += 1;
    }
    if bytes.get(j) == Some(&b'\'') {
        // Byte char literal b'x' / b'\n'.
        let end = char_literal_end(bytes, j).unwrap_or(bytes.len());
        return (end, 0, "b'".into());
    }
    let raw = bytes.get(j) == Some(&b'r');
    if raw {
        j += 1;
    }
    let mut hashes = 0usize;
    while bytes.get(j) == Some(&b'#') {
        hashes += 1;
        j += 1;
    }
    let open: String = String::from_utf8_lossy(&bytes[start..=j]).into_owned();
    j += 1; // past the opening quote
    let mut newlines = 0u32;
    if raw {
        // Scan for `"` followed by `hashes` hash marks; no escapes.
        while j < bytes.len() {
            if bytes[j] == b'\n' {
                newlines += 1;
            } else if bytes[j] == b'"'
                && bytes[j + 1..]
                    .iter()
                    .take(hashes)
                    .filter(|&&b| b == b'#')
                    .count()
                    == hashes
            {
                return (j + 1 + hashes, newlines, open);
            }
            j += 1;
        }
        (bytes.len(), newlines, open)
    } else {
        let (end, nl) = skip_quoted(bytes, j - 1, b'"');
        (end, newlines + nl, open)
    }
}

/// Skip a quoted literal with backslash escapes, starting at the opening
/// quote. Returns (end index, newlines crossed).
fn skip_quoted(bytes: &[u8], start: usize, quote: u8) -> (usize, u32) {
    let mut i = start + 1;
    let mut newlines = 0u32;
    while i < bytes.len() {
        match bytes[i] {
            b'\\' => i += 2,
            b'\n' => {
                newlines += 1;
                i += 1;
            }
            c if c == quote => return (i + 1, newlines),
            _ => i += 1,
        }
    }
    (bytes.len(), newlines)
}

/// If `'` at `i` opens a char literal, its end index; `None` for a
/// lifetime.
fn char_literal_end(bytes: &[u8], i: usize) -> Option<usize> {
    match bytes.get(i + 1)? {
        b'\\' => {
            // Escape: scan to the closing quote.
            let mut j = i + 2;
            while j < bytes.len() {
                match bytes[j] {
                    b'\\' => j += 2,
                    b'\'' => return Some(j + 1),
                    _ => j += 1,
                }
            }
            Some(bytes.len())
        }
        _ => {
            // `'x'` is a char; `'x` (no closing quote right after one
            // character) is a lifetime. Multi-byte chars: find the quote
            // within the next 4 bytes.
            let limit = (i + 6).min(bytes.len());
            for (j, &b) in bytes.iter().enumerate().take(limit).skip(i + 2) {
                if b == b'\'' {
                    return Some(j + 1);
                }
                if !is_ident_continue(b) {
                    break;
                }
            }
            None
        }
    }
}

/// Pull a `negassoc-lint: allow(...) -- reason` directive out of a
/// comment. The reason tail may use `--`, `—` or `–` as the separator;
/// what matters for L013 is that a non-empty justification follows.
///
/// Doc comments (`///`, `//!`, `/**`, `/*!`) are skipped: they describe
/// the directive syntax (this file does, several times) without enacting
/// it. Ids must have the `L` + three digits shape; placeholders such as
/// `L00x` or `…` in explanatory comments are not directives.
fn collect_allow_directive(comment: &str, line: u32, allows: &mut Vec<AllowDirective>) {
    const MARKER: &str = "negassoc-lint:";
    if ["///", "//!", "/**", "/*!"]
        .iter()
        .any(|d| comment.starts_with(d))
    {
        return;
    }
    let Some(pos) = comment.find(MARKER) else {
        return;
    };
    let rest = comment[pos + MARKER.len()..].trim_start();
    let Some(rest) = rest.strip_prefix("allow(") else {
        return;
    };
    let Some(end) = rest.find(')') else {
        return;
    };
    let ids: Vec<String> = rest[..end]
        .split(',')
        .map(str::trim)
        .filter(|id| is_lint_id(id))
        .map(str::to_string)
        .collect();
    if ids.is_empty() {
        return;
    }
    let mut tail = rest[end + 1..].trim();
    if let Some(stripped) = tail.strip_suffix("*/") {
        tail = stripped.trim();
    }
    let has_reason = ["--", "\u{2014}", "\u{2013}"]
        .iter()
        .any(|sep| tail.strip_prefix(sep).is_some_and(|r| !r.trim().is_empty()));
    allows.push(AllowDirective {
        line,
        ids,
        has_reason,
    });
}

/// `L` followed by exactly three ASCII digits.
fn is_lint_id(id: &str) -> bool {
    id.len() == 4 && id.starts_with('L') && id.as_bytes()[1..].iter().all(u8::is_ascii_digit)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn texts(src: &str) -> Vec<String> {
        lex(src).tokens.into_iter().map(|t| t.text).collect()
    }

    #[test]
    fn operators_merge_and_comments_vanish() {
        let t = texts("a == b // c != d\n/* e <= f */ g -> h");
        assert_eq!(t, ["a", "==", "b", "g", "->", "h"]);
    }

    #[test]
    fn strings_and_chars_do_not_leak_tokens() {
        let t = texts(
            r#"x("== inside", 'y', '\n', b"!=", r#f) "#.replace("r#f", "r#\"raw != \"# f").as_str(),
        );
        assert!(t.contains(&"x".to_string()));
        assert!(t.contains(&"f".to_string()));
        assert!(!t.contains(&"!=".to_string()));
        assert!(!t.contains(&"==".to_string()));
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let t = lex("fn f<'a>(x: &'a str) {}");
        assert!(t
            .tokens
            .iter()
            .any(|t| t.kind == TokenKind::Lifetime && t.text == "'a"));
    }

    #[test]
    fn lines_survive_multiline_constructs() {
        let src = "/* two\nlines */\nlet x = \"a\nb\";\nfin";
        let lexed = lex(src);
        let fin = lexed.tokens.iter().find(|t| t.text == "fin").unwrap();
        assert_eq!(fin.line, 5);
    }

    #[test]
    fn allow_directives_are_collected() {
        let lexed = lex("foo(); // negassoc-lint: allow(L001, L005)\nbar();");
        assert_eq!(lexed.allows.len(), 1);
        let d = &lexed.allows[0];
        assert_eq!(d.line, 1);
        assert_eq!(d.ids, ["L001", "L005"]);
        assert!(!d.has_reason, "no `--` tail, no reason");
    }

    #[test]
    fn allow_reasons_accept_double_dash_and_dashes() {
        for src in [
            "// negassoc-lint: allow(L003) -- the invariant is checked above",
            "// negassoc-lint: allow(L003) — the invariant is checked above",
            "/* negassoc-lint: allow(L003) -- inside a block comment */",
        ] {
            assert!(lex(src).allows[0].has_reason, "{src:?}");
        }
        for src in [
            "// negassoc-lint: allow(L003)",
            "// negassoc-lint: allow(L003) --",
            "// negassoc-lint: allow(L003) trailing words without a dash",
        ] {
            assert!(!lex(src).allows[0].has_reason, "{src:?}");
        }
    }

    #[test]
    fn doc_comments_and_placeholder_ids_are_not_directives() {
        // Doc comments document the syntax; they never enact it.
        for src in [
            "/// suppress with // negassoc-lint: allow(L001) -- reason",
            "//! suppress with // negassoc-lint: allow(L001) -- reason",
            "/*! negassoc-lint: allow(L001) -- reason */",
            "/** negassoc-lint: allow(L001) -- reason */",
            // Placeholder ids in explanatory comments are not lint ids.
            "// negassoc-lint: allow(L00x) -- reason",
            "// negassoc-lint: allow(...) -- reason",
            "// negassoc-lint: allow(\u{2026}) -- reason",
        ] {
            assert!(lex(src).allows.is_empty(), "{src:?}");
        }
        // Invalid ids are dropped, valid ones in the same directive kept.
        let lexed = lex("// negassoc-lint: allow(L001, L00x) -- reason");
        assert_eq!(lexed.allows[0].ids, ["L001"]);
    }

    #[test]
    fn raw_identifiers_lex_as_single_idents() {
        // `r#ident`, a fenced raw string and a fenced raw byte string side
        // by side: the identifiers survive intact, the literal contents
        // leak no tokens.
        let src = "let r#match = 1; let s = r#\"raw != \"#; let b = br#\"bytes == \"#; done";
        let lexed = lex(src);
        let t: Vec<&str> = lexed.tokens.iter().map(|t| t.text.as_str()).collect();
        assert!(t.contains(&"r#match"), "raw ident stays one token: {t:?}");
        assert!(
            !t.contains(&"match"),
            "raw keyword must not surface as the real keyword: {t:?}"
        );
        assert!(!t.contains(&"!=") && !t.contains(&"=="), "{t:?}");
        assert!(
            t.contains(&"done"),
            "lexing continues past both fences: {t:?}"
        );
        assert_eq!(
            lexed
                .tokens
                .iter()
                .filter(|t| t.kind == TokenKind::Literal)
                .count(),
            2,
            "exactly the two raw strings are literals"
        );
    }

    #[test]
    fn byte_char_adjacency_is_not_a_byte_string() {
        // `b'x'` is a byte char; a plain ident `b` followed by a lifetime
        // must not fuse with it.
        let t = texts("let x = b'a'; f::<'b>(x)");
        assert!(t.contains(&"b'".to_string()), "byte char literal: {t:?}");
        assert!(t.contains(&"f".to_string()));
    }

    #[test]
    fn nested_block_comments() {
        let t = texts("a /* x /* y */ z */ b");
        assert_eq!(t, ["a", "b"]);
    }
}
