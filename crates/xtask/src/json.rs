//! Minimal JSON emission *and parsing* for the workspace (no serde in an
//! offline workspace; the schemas are flat enough to handle by hand).
//!
//! Emission serves `xtask analyze --json`; the parser ([`parse`],
//! [`parse_lines`]) validates every JSON document the workspace emits —
//! the bench artifacts (`BENCH_*.json`) and the `--trace` JSON-lines
//! stream — both in tests and through `xtask validate-json`.

use crate::lints::Finding;
use crate::Analysis;
use std::collections::BTreeMap;
use std::fmt::Write;

/// Escape a string for a JSON literal.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Render an analysis as a JSON document: findings (with severity),
/// per-lint counts, and the scan/cache/walk accounting.
pub fn render(analysis: &Analysis) -> String {
    let mut counts: BTreeMap<&str, usize> = BTreeMap::new();
    for f in &analysis.findings {
        *counts.entry(f.lint).or_default() += 1;
    }
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"files_scanned\": {},", analysis.files_scanned);
    let _ = writeln!(out, "  \"library_files\": {},", analysis.library_files);
    let _ = writeln!(
        out,
        "  \"test_support_files\": {},",
        analysis.test_support_files
    );
    out.push_str("  \"skipped_dirs\": {");
    for (i, (dir, n)) in analysis.skipped_dirs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\n    \"{}\": {}", escape(dir), n);
    }
    if analysis.skipped_dirs.is_empty() {
        out.push_str("},\n");
    } else {
        out.push_str("\n  },\n");
    }
    let _ = writeln!(
        out,
        "  \"cache\": {{\"hits\": {}, \"misses\": {}}},",
        analysis.cache_hits, analysis.cache_misses
    );
    let _ = writeln!(out, "  \"baselined\": {},", analysis.baselined);
    let _ = writeln!(
        out,
        "  \"deny\": {}, \"warn\": {},",
        analysis.deny_count(),
        analysis.warn_count()
    );
    out.push_str("  \"findings\": [");
    for (i, f) in analysis.findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\n    {}", render_finding(f));
    }
    if analysis.findings.is_empty() {
        out.push_str("],\n");
    } else {
        out.push_str("\n  ],\n");
    }
    out.push_str("  \"counts\": {");
    for (i, (lint, n)) in counts.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\n    \"{}\": {}", escape(lint), n);
    }
    if counts.is_empty() {
        out.push_str("}\n");
    } else {
        out.push_str("\n  }\n");
    }
    out.push('}');
    out
}

fn render_finding(f: &Finding) -> String {
    format!(
        "{{\"lint\": \"{}\", \"severity\": \"{}\", \"path\": \"{}\", \"line\": {}, \
         \"message\": \"{}\"}}",
        escape(f.lint),
        crate::lints::lint_info(f.lint).severity.label(),
        escape(&f.path),
        f.line,
        escape(&f.message)
    )
}

/// A parsed JSON value. Object keys keep insertion order (duplicates are
/// a parse error: every emitter in this workspace writes each key once).
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (parsed as `f64`; the workspace's counters fit).
    Number(f64),
    /// A string literal, unescaped.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object, in source order.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Look up a key in an object; `None` for missing keys or non-objects.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as an `f64`, if it is a number.
    pub fn as_number(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Follow a dot-separated `path`: each segment is an object key, or,
    /// on an array, a 0-based index where a negative index counts from
    /// the end (`-1` is the last element). `None` when a segment is
    /// missing or steps into a scalar.
    pub fn path(&self, path: &str) -> Option<&Value> {
        path.split('.').try_fold(self, |v, seg| match v {
            Value::Array(items) => {
                let i: i64 = seg.parse().ok()?;
                let idx = if i < 0 {
                    items
                        .len()
                        .checked_sub(usize::try_from(i.unsigned_abs()).ok()?)?
                } else {
                    usize::try_from(i).ok()?
                };
                items.get(idx)
            }
            _ => v.get(seg),
        })
    }

    /// Compact single-line emission; `parse(emit(v)) == v` for every
    /// value the workspace builds (numbers emit with enough precision to
    /// round-trip the integer counters).
    pub fn emit(&self) -> String {
        let mut out = String::new();
        self.emit_into(&mut out);
        out
    }

    fn emit_into(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Number(n) => {
                if n.fract() == 0.0 && n.abs() < 9.0e15 {
                    let _ = write!(out, "{}", *n as i64);
                } else {
                    let _ = write!(out, "{n}");
                }
            }
            Value::String(s) => {
                let _ = write!(out, "\"{}\"", escape(s));
            }
            Value::Array(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.emit_into(out);
                }
                out.push(']');
            }
            Value::Object(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    let _ = write!(out, "\"{}\":", escape(k));
                    v.emit_into(out);
                }
                out.push('}');
            }
        }
    }
}

/// `xtask json-get`: the scalar at `path` (see [`Value::path`]) in the
/// JSON document `text`, rendered for a shell: numbers in shortest
/// round-trip form (`28.036`, `4000`), booleans as `true`/`false`,
/// strings unquoted. A missing path, `null` and non-scalars are errors,
/// so a gate reading a renamed or undefined field fails instead of
/// comparing against an empty string.
pub fn get_scalar(text: &str, path: &str) -> Result<String, String> {
    let doc = parse(text).map_err(|e| e.to_string())?;
    match doc.path(path) {
        None => Err("no value at the path".into()),
        Some(Value::Null) => Err("the value is null".into()),
        Some(Value::Bool(b)) => Ok(b.to_string()),
        Some(Value::Number(n)) => Ok(n.to_string()),
        Some(Value::String(s)) => Ok(s.clone()),
        Some(_) => Err("the value is an array or object, not a scalar".into()),
    }
}

/// A parse failure: what went wrong and where (1-based line within the
/// parsed text).
#[derive(Clone, Debug, PartialEq)]
pub struct ParseError {
    /// 1-based line of the offending byte.
    pub line: usize,
    /// What the parser expected or rejected.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Parse one complete JSON document; trailing whitespace is allowed,
/// trailing content is not.
pub fn parse(text: &str) -> Result<Value, ParseError> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.error("trailing content after the document"));
    }
    Ok(v)
}

/// Parse a JSON-lines stream (one document per non-empty line), as
/// written by the trace sink. Returns every document, or the first
/// failure with its line number in the *stream*.
pub fn parse_lines(text: &str) -> Result<Vec<Value>, ParseError> {
    let mut docs = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        docs.push(parse(line).map_err(|e| ParseError {
            line: i + 1,
            message: e.message,
        })?);
    }
    Ok(docs)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn error(&self, message: impl Into<String>) -> ParseError {
        let line = 1 + self.bytes[..self.pos.min(self.bytes.len())]
            .iter()
            .filter(|&&b| b == b'\n')
            .count();
        ParseError {
            line,
            message: message.into(),
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> bool {
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn eat_literal(&mut self, lit: &str) -> bool {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Value, ParseError> {
        match self.bytes.get(self.pos) {
            None => Err(self.error("unexpected end of input")),
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => self.string().map(Value::String),
            Some(b'n') if self.eat_literal("null") => Ok(Value::Null),
            Some(b't') if self.eat_literal("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.eat_literal("false") => Ok(Value::Bool(false)),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(&b) => Err(self.error(format!("unexpected byte {:?}", b as char))),
        }
    }

    fn object(&mut self) -> Result<Value, ParseError> {
        self.pos += 1; // `{`
        let mut pairs: Vec<(String, Value)> = Vec::new();
        self.skip_ws();
        if self.eat(b'}') {
            return Ok(Value::Object(pairs));
        }
        loop {
            self.skip_ws();
            if self.bytes.get(self.pos) != Some(&b'"') {
                return Err(self.error("expected a string key"));
            }
            let key = self.string()?;
            if pairs.iter().any(|(k, _)| *k == key) {
                return Err(self.error(format!("duplicate key {key:?}")));
            }
            self.skip_ws();
            if !self.eat(b':') {
                return Err(self.error("expected `:` after the key"));
            }
            self.skip_ws();
            let v = self.value()?;
            pairs.push((key, v));
            self.skip_ws();
            if self.eat(b',') {
                continue;
            }
            if self.eat(b'}') {
                return Ok(Value::Object(pairs));
            }
            return Err(self.error("expected `,` or `}` in the object"));
        }
    }

    fn array(&mut self) -> Result<Value, ParseError> {
        self.pos += 1; // `[`
        let mut items = Vec::new();
        self.skip_ws();
        if self.eat(b']') {
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            if self.eat(b',') {
                continue;
            }
            if self.eat(b']') {
                return Ok(Value::Array(items));
            }
            return Err(self.error("expected `,` or `]` in the array"));
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.pos += 1; // opening `"`
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos) {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.bytes.get(self.pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.error("bad \\u escape"))?;
                            // Surrogates would need pairing; the workspace's
                            // emitters only escape control characters.
                            out.push(
                                char::from_u32(hex)
                                    .ok_or_else(|| self.error("\\u escape is not a scalar"))?,
                            );
                            self.pos += 4;
                        }
                        _ => return Err(self.error("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(&b) if b < 0x20 => {
                    return Err(self.error("unescaped control character in string"))
                }
                Some(_) => {
                    // Consume a run of plain characters in one slice —
                    // per-char validation of the remaining input made
                    // parsing quadratic on megabyte documents (the
                    // analyze cache). `"`, `\` and control bytes never
                    // occur inside a multi-byte UTF-8 sequence, so the
                    // run always ends on a char boundary; the input
                    // arrived as a `&str`, so the run itself is valid.
                    let start = self.pos;
                    while let Some(&b) = self.bytes.get(self.pos) {
                        if b == b'"' || b == b'\\' || b < 0x20 {
                            break;
                        }
                        self.pos += 1;
                    }
                    let run = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| self.error("bad UTF-8"))?;
                    out.push_str(run);
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        let _ = self.eat(b'-');
        while matches!(self.bytes.get(self.pos), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.eat(b'.') {
            while matches!(self.bytes.get(self.pos), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.bytes.get(self.pos), Some(b'e' | b'E')) {
            self.pos += 1;
            if !self.eat(b'+') {
                let _ = self.eat(b'-');
            }
            while matches!(self.bytes.get(self.pos), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.error("bad number"))?;
        text.parse::<f64>()
            .map(Value::Number)
            .map_err(|_| self.error(format!("bad number {text:?}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_specials() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }

    #[test]
    fn parses_scalars_and_nesting() {
        let v =
            parse(r#"{"a": [1, -2.5, 1e3], "b": {"c": null, "d": true}, "e": "x\nA"}"#).unwrap();
        assert_eq!(
            v.get("a"),
            Some(&Value::Array(vec![
                Value::Number(1.0),
                Value::Number(-2.5),
                Value::Number(1000.0)
            ]))
        );
        assert_eq!(v.get("b").unwrap().get("c"), Some(&Value::Null));
        assert_eq!(v.get("e"), Some(&Value::String("x\nA".into())));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "{",
            "{\"a\": }",
            "[1,]",
            "{\"a\": 1} trailing",
            "{\"a\": 1, \"a\": 2}",
            "\"unterminated",
            "nul",
            "{\"a\": NaN}",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn parse_lines_reports_the_offending_line() {
        let ok = parse_lines("{\"a\":1}\n\n{\"b\":2}\n").unwrap();
        assert_eq!(ok.len(), 2);
        let err = parse_lines("{\"a\":1}\n{broken\n").unwrap_err();
        assert_eq!(err.line, 2);
    }

    #[test]
    fn rendered_analysis_round_trips_through_the_parser() {
        let one = Analysis {
            findings: vec![Finding {
                lint: "L001",
                path: "crates/x/src/lib.rs".into(),
                line: 3,
                message: "a \"quoted\" message".into(),
            }],
            files_scanned: 1,
            ..Analysis::default()
        };
        let v = parse(&render(&one)).expect("render output parses");
        assert_eq!(v.get("files_scanned"), Some(&Value::Number(1.0)));
        let Some(Value::Array(fs)) = v.get("findings") else {
            panic!("findings array");
        };
        assert_eq!(
            fs[0].get("message"),
            Some(&Value::String("a \"quoted\" message".into()))
        );
    }

    #[test]
    fn renders_empty_and_nonempty() {
        let empty = Analysis::default();
        assert!(render(&empty).contains("\"findings\": []"));

        let one = Analysis {
            findings: vec![Finding {
                lint: "L001",
                path: "crates/x/src/lib.rs".into(),
                line: 3,
                message: "msg".into(),
            }],
            files_scanned: 1,
            ..Analysis::default()
        };
        let doc = render(&one);
        assert!(doc.contains("\"L001\": 1"));
        assert!(doc.contains("\"line\": 3"));
    }

    #[test]
    fn get_scalar_reads_keys_indices_and_negative_indices() {
        let doc = r#"{"cores": 2, "ok": true, "name": "flat", "nil": null,
            "scales": [{"l2": 28.036, "n": 4000}, {"l2": 9.504, "runs": [1]}]}"#;
        let get = |path| get_scalar(doc, path);
        assert_eq!(get("cores").as_deref(), Ok("2"));
        assert_eq!(get("ok").as_deref(), Ok("true"));
        assert_eq!(get("name").as_deref(), Ok("flat"));
        assert_eq!(get("scales.0.l2").as_deref(), Ok("28.036"));
        assert_eq!(get("scales.0.n").as_deref(), Ok("4000"));
        assert_eq!(get("scales.-1.l2").as_deref(), Ok("9.504"));
        assert_eq!(get("scales.-2.l2").as_deref(), Ok("28.036"));
        assert_eq!(get("scales.1.runs.-1").as_deref(), Ok("1"));
        for missing in [
            "nope",
            "cores.x",
            "scales.2.l2",
            "scales.-3.l2",
            "scales.x.l2",
            "",
        ] {
            assert_eq!(
                get(missing),
                Err("no value at the path".into()),
                "{missing:?}"
            );
        }
        assert_eq!(get("nil"), Err("the value is null".into()));
        for composite in ["scales", "scales.0", "scales.1.runs"] {
            assert!(get(composite).unwrap_err().contains("not a scalar"));
        }
        assert!(get_scalar("{\"a\": ", "a").unwrap_err().contains("line 1"));
    }
}
