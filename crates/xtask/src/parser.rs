//! A lightweight item-level parser on top of [`crate::lexer`].
//!
//! This is deliberately **not** a Rust AST. It recovers exactly the
//! structure the flow lints (L010–L012) need and nothing more:
//!
//! * `fn` items with their signatures (name, `impl` qualifier, params
//!   with joined type tokens) — enough to find token-carrying functions
//!   and to key the workspace symbol table;
//! * loop structure — `for`/`while`/`loop` bodies, plus the bodies of
//!   parameterized closures handed to the workspace's iteration drivers
//!   (`pass`, `parallel_map`, `parallel_pass*`, `for_each`), which run
//!   once per item and are therefore loop scopes too. Zero-parameter
//!   closures are thunks (the obs layer's lazily-evaluated `emit`
//!   payloads) and are **not** loop scopes;
//! * per-function facts: direct `CancelToken` polls, call sites (with
//!   loop context), `Event::PassStart`/`PassEnd` emissions (match
//!   *patterns* on those variants are recognized and skipped), `return`
//!   statements, `Mutex`/`RwLock` mentions, and allocation idioms inside
//!   loops.
//!
//! Soundness caveats (see DESIGN.md §12): calls resolve by name later,
//! macro bodies are scanned as plain tokens, and a closure stored in a
//! struct escapes the loop-scope heuristic. The lints that consume these
//! facts are tuned so the approximations err toward *reporting*, with
//! allow directives as the escape hatch.

use crate::lexer::{LexedFile, Token, TokenKind};
use crate::lints::{cfg_test_spans, matching};

/// One `name: Type` parameter (receivers like `&mut self` are dropped).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Param {
    /// Binding name (the last identifier of the pattern).
    pub name: String,
    /// Type tokens joined with spaces, e.g. `Option < & CancelToken >`.
    pub ty: String,
}

/// One call site inside a function body.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CallSite {
    /// Callee name (last path segment / method name).
    pub name: String,
    /// For `Qual::name(…)`: the segment before the final `::`.
    pub qual: Option<String>,
    /// `recv.name(…)` method-call syntax.
    pub method: bool,
    /// 1-based line.
    pub line: u32,
    /// Whether the call sits inside a loop scope.
    pub in_loop: bool,
}

/// A direct `.check()` / `.is_cancelled()` token poll.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PollSite {
    /// 1-based line.
    pub line: u32,
    /// Whether the poll sits inside a loop scope.
    pub in_loop: bool,
}

/// Which half of the pass-tracing pair an emission constructs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EmitKind {
    /// `Event::PassStart { … }` construction.
    PassStart,
    /// `Event::PassEnd { … }` construction.
    PassEnd,
}

/// One `Event::PassStart`/`PassEnd` construction (never a match pattern).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EmitSite {
    /// Start or end.
    pub kind: EmitKind,
    /// 1-based line.
    pub line: u32,
    /// Token index, for ordering against `return`s.
    pub order: u32,
}

/// Everything the flow lints need to know about one function.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FnFacts {
    /// Bare name (`partition_mine`).
    pub name: String,
    /// `Type::name` for `impl` methods, the bare name otherwise.
    pub qual: String,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Inside a `#[cfg(test)]`-gated item.
    pub in_cfg_test: bool,
    /// Declared parameters (receivers dropped).
    pub params: Vec<Param>,
    /// Contains at least one loop scope.
    pub has_loop: bool,
    /// Direct token polls.
    pub polls: Vec<PollSite>,
    /// Call sites, in source order.
    pub calls: Vec<CallSite>,
    /// `Event::PassStart`/`PassEnd` constructions.
    pub emits: Vec<EmitSite>,
    /// `return` statements as (line, token-index) pairs.
    pub returns: Vec<(u32, u32)>,
    /// Lines mentioning `Mutex` / `RwLock`.
    pub locks: Vec<u32>,
    /// Allocation idioms inside loop scopes, as (line, idiom) pairs.
    pub loop_allocs: Vec<(u32, String)>,
}

impl FnFacts {
    /// The first parameter whose type names a cancellation carrier.
    pub fn token_param(&self) -> Option<&Param> {
        self.params
            .iter()
            .find(|p| p.ty.contains("CancelToken") || p.ty.contains("RunControl"))
    }

    /// Any direct poll inside a loop scope?
    pub fn polls_in_loop(&self) -> bool {
        self.polls.iter().any(|p| p.in_loop)
    }

    /// Does the function construct the given event at all?
    pub fn emits(&self, kind: EmitKind) -> bool {
        self.emits.iter().any(|e| e.kind == kind)
    }
}

/// The parsed shape of one file: functions plus item inventory.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FileFacts {
    /// Every `fn` with a body, in source order (nested fns included,
    /// each owning only its own tokens).
    pub fns: Vec<FnFacts>,
    /// `mod` names declared or defined in the file.
    pub mods: Vec<String>,
    /// `use` paths, `::`-joined.
    pub uses: Vec<String>,
}

/// Closure arguments to these callees run once per item: their bodies
/// are loop scopes for the flow lints.
const ITER_CALLEES: &[&str] = &["pass", "parallel_map", "parallel_pass", "for_each"];

/// Keywords that can precede `(` without being calls.
const NON_CALL_KEYWORDS: &[&str] = &[
    "if", "else", "match", "return", "while", "for", "loop", "in", "as", "let", "move", "mut",
    "ref", "break", "continue", "unsafe", "where", "impl", "fn", "pub", "use", "mod", "struct",
    "enum", "trait", "type", "const", "static", "crate", "super", "dyn", "await", "async",
];

/// Allocation idioms L012 looks for inside loop scopes, as
/// `Type::method` path calls.
const ALLOC_PATHS: &[(&str, &[&str])] = &[
    ("Vec", &["new", "with_capacity", "from"]),
    ("String", &["new", "with_capacity", "from"]),
    ("Box", &["new"]),
];

/// Parse one lexed file into item-level facts.
pub fn parse(lexed: &LexedFile) -> FileFacts {
    let toks = &lexed.tokens;
    let test_spans = cfg_test_spans(toks);
    let in_test = |line: u32| test_spans.iter().any(|&(lo, hi)| (lo..=hi).contains(&line));

    let mut facts = FileFacts::default();
    // (open, end) token spans of every fn body, for nested-fn exclusion.
    let mut spans: Vec<(usize, usize)> = Vec::new();
    // Stack of enclosing `impl Type` blocks as (type, end-token-index).
    let mut impls: Vec<(String, usize)> = Vec::new();

    let mut i = 0usize;
    while i < toks.len() {
        while impls.last().is_some_and(|&(_, end)| i >= end) {
            impls.pop();
        }
        let t = &toks[i];
        if t.kind != TokenKind::Ident {
            i += 1;
            continue;
        }
        match t.text.as_str() {
            "use" => {
                let mut path = Vec::new();
                let mut j = i + 1;
                while j < toks.len() && toks[j].text != ";" {
                    path.push(toks[j].text.clone());
                    j += 1;
                }
                if !path.is_empty() {
                    facts.uses.push(path.join(""));
                }
                i = j;
            }
            "mod" => {
                if let Some(n) = toks.get(i + 1).filter(|n| n.kind == TokenKind::Ident) {
                    facts.mods.push(n.text.clone());
                }
                i += 1;
            }
            "impl" => {
                if let Some((ty, open, end)) = parse_impl_header(toks, i) {
                    impls.push((ty, end));
                    i = open + 1;
                } else {
                    i += 1;
                }
            }
            "fn" if toks.get(i + 1).is_some_and(|n| n.kind == TokenKind::Ident) => {
                if let Some((f, open, end)) = parse_fn(toks, i, &impls, &in_test) {
                    spans.push((open, end));
                    facts.fns.push(f);
                }
                i += 2;
            }
            _ => i += 1,
        }
    }

    // Second pass: extract body facts, excluding nested fn spans.
    for (k, &(open, end)) in spans.iter().enumerate() {
        let nested: Vec<(usize, usize)> = spans
            .iter()
            .enumerate()
            .filter(|&(j, &(o, e))| j != k && o > open && e <= end)
            .map(|(_, &s)| s)
            .collect();
        let mut scan = BodyScan {
            toks,
            skip: &nested,
            facts: &mut facts.fns[k],
        };
        scan.walk(open + 1, end - 1, false, None);
    }
    facts
}

/// Parse an `impl …` header at `i`. Returns (self type, body-open index,
/// body-end index).
fn parse_impl_header(toks: &[Token], i: usize) -> Option<(String, usize, usize)> {
    let open = (i + 1..toks.len()).find(|&k| toks[k].text == "{")?;
    let end = matching(toks, open, "{", "}")?;
    // Header tokens: skip leading generics, then the self type is the
    // first identifier after the trait-separating `for` (if any — HRTB
    // `for<…>` in bounds is followed by `<` and skipped).
    let mut j = i + 1;
    if toks.get(j).is_some_and(|t| t.text == "<") {
        j = skip_angles(toks, j).unwrap_or(open);
    }
    let mut after_for = None;
    for k in j..open {
        if toks[k].text == "for" && toks.get(k + 1).is_some_and(|n| n.text != "<") {
            after_for = Some(k + 1);
        }
    }
    let from = after_for.unwrap_or(j);
    let ty = (from..open)
        .find(|&k| toks[k].kind == TokenKind::Ident)
        .map(|k| toks[k].text.clone())?;
    Some((ty, open, end))
}

/// Skip a balanced `<…>` starting at `from` (which must be `<`),
/// weighting the merged `<<`/`>>` operator tokens double.
fn skip_angles(toks: &[Token], from: usize) -> Option<usize> {
    let mut depth = 0i32;
    for k in from..toks.len() {
        match toks[k].text.as_str() {
            "<" => depth += 1,
            "<<" => depth += 2,
            ">" => depth -= 1,
            ">>" => depth -= 2,
            _ => {}
        }
        if depth <= 0 {
            return Some(k + 1);
        }
    }
    None
}

/// Parse the fn item whose `fn` keyword is at `i`. Returns the facts
/// (signature only; the body is scanned later) plus the body span.
/// Bodyless trait declarations return `None`.
fn parse_fn(
    toks: &[Token],
    i: usize,
    impls: &[(String, usize)],
    in_test: &dyn Fn(u32) -> bool,
) -> Option<(FnFacts, usize, usize)> {
    let name = toks[i + 1].text.clone();
    let mut j = i + 2;
    if toks.get(j).is_some_and(|t| t.text == "<") {
        j = skip_angles(toks, j)?;
    }
    if toks.get(j).map(|t| t.text.as_str()) != Some("(") {
        return None;
    }
    let params_end = matching(toks, j, "(", ")")?;
    let params = parse_params(&toks[j + 1..params_end - 1]);
    // Scan past the return type / where clause for the body. A `;` first
    // means a bodyless trait declaration.
    let mut k = params_end;
    let open = loop {
        match toks.get(k).map(|t| t.text.as_str()) {
            Some("{") => break k,
            Some(";") | None => return None,
            _ => k += 1,
        }
    };
    let end = matching(toks, open, "{", "}")?;
    let qual = match impls.last() {
        Some((ty, _)) => format!("{ty}::{name}"),
        None => name.clone(),
    };
    let line = toks[i].line;
    Some((
        FnFacts {
            name,
            qual,
            line,
            in_cfg_test: in_test(line),
            params,
            ..FnFacts::default()
        },
        open,
        end,
    ))
}

/// Split a parameter list at top-level commas; drop receivers.
fn parse_params(toks: &[Token]) -> Vec<Param> {
    let mut params = Vec::new();
    let mut depth = 0i32;
    let mut start = 0usize;
    let piece = |lo: usize, hi: usize, params: &mut Vec<Param>| {
        let part = &toks[lo..hi];
        if part.iter().any(|t| t.text == "self") {
            return; // receiver
        }
        let Some(colon) = part.iter().position(|t| t.text == ":") else {
            return;
        };
        let name = part[..colon]
            .iter()
            .rev()
            .find(|t| t.kind == TokenKind::Ident)
            .map(|t| t.text.clone())
            .unwrap_or_default();
        let ty = part[colon + 1..]
            .iter()
            .map(|t| t.text.as_str())
            .collect::<Vec<_>>()
            .join(" ");
        params.push(Param { name, ty });
    };
    for (k, t) in toks.iter().enumerate() {
        match t.text.as_str() {
            "(" | "[" | "{" | "<" => depth += 1,
            "<<" => depth += 2,
            ")" | "]" | "}" | ">" => depth -= 1,
            ">>" => depth -= 2,
            "," if depth == 0 => {
                piece(start, k, &mut params);
                start = k + 1;
            }
            _ => {}
        }
    }
    if start < toks.len() {
        piece(start, toks.len(), &mut params);
    }
    params
}

/// The body-facts scanner: one linear walk per fn with explicit loop
/// context, recursing only into constructs that change that context.
struct BodyScan<'a> {
    toks: &'a [Token],
    /// Nested fn body spans owned by inner items, skipped entirely.
    skip: &'a [(usize, usize)],
    facts: &'a mut FnFacts,
}

impl BodyScan<'_> {
    /// Walk `[lo, hi)`. `in_loop` marks a loop scope; `call_ctx` names
    /// the innermost call whose argument list we are inside.
    fn walk(&mut self, lo: usize, hi: usize, in_loop: bool, call_ctx: Option<&str>) {
        let mut i = lo;
        while i < hi.min(self.toks.len()) {
            if let Some(&(_, end)) = self.skip.iter().find(|&&(o, _)| o == i) {
                i = end;
                continue;
            }
            let t = &self.toks[i];
            match (t.kind, t.text.as_str()) {
                (TokenKind::Ident, "loop") => {
                    if let Some((open, end)) = self.brace_after(i + 1, hi) {
                        self.facts.has_loop = true;
                        self.walk(open + 1, end - 1, true, None);
                        i = end;
                        continue;
                    }
                }
                (TokenKind::Ident, "for")
                    if self.toks.get(i + 1).is_some_and(|n| n.text != "<") =>
                {
                    if let Some((open, end)) = self.loop_body(i + 1, hi) {
                        self.facts.has_loop = true;
                        // The iterated expression evaluates once.
                        self.walk(i + 1, open, in_loop, call_ctx);
                        self.walk(open + 1, end - 1, true, None);
                        i = end;
                        continue;
                    }
                }
                (TokenKind::Ident, "while") => {
                    if let Some((open, end)) = self.loop_body(i + 1, hi) {
                        self.facts.has_loop = true;
                        // The condition re-evaluates every iteration: it
                        // is part of the loop scope.
                        self.walk(i + 1, open, true, call_ctx);
                        self.walk(open + 1, end - 1, true, None);
                        i = end;
                        continue;
                    }
                }
                (TokenKind::Ident, "return") => {
                    self.facts.returns.push((t.line, i as u32));
                }
                (TokenKind::Ident, "Event")
                    if self.toks.get(i + 1).is_some_and(|n| n.text == "::") =>
                {
                    if let Some(kind) = match self.toks.get(i + 2).map(|n| n.text.as_str()) {
                        Some("PassStart") => Some(EmitKind::PassStart),
                        Some("PassEnd") => Some(EmitKind::PassEnd),
                        _ => None,
                    } {
                        if self.is_construction(i + 3) {
                            self.facts.emits.push(EmitSite {
                                kind,
                                line: t.line,
                                order: i as u32,
                            });
                        }
                    }
                }
                (TokenKind::Ident, "Mutex" | "RwLock") => {
                    self.facts.locks.push(t.line);
                }
                (TokenKind::Ident, name) if self.toks.get(i + 1).is_some_and(|n| n.text == "(") => {
                    if !NON_CALL_KEYWORDS.contains(&name) {
                        self.record_call(i, in_loop);
                        let end = matching(self.toks, i + 1, "(", ")").unwrap_or(i + 2);
                        let callee = self.toks[i].text.clone();
                        self.walk(i + 2, end - 1, in_loop, Some(&callee));
                        i = end;
                        continue;
                    }
                }
                (TokenKind::Ident, "vec" | "format")
                    if in_loop && self.toks.get(i + 1).is_some_and(|n| n.text == "!") =>
                {
                    self.facts
                        .loop_allocs
                        .push((t.line, format!("{}!", t.text)));
                }
                (TokenKind::Ident, ty)
                    if in_loop
                        && ALLOC_PATHS.iter().any(|(p, _)| *p == ty)
                        && self.toks.get(i + 1).is_some_and(|n| n.text == "::") =>
                {
                    let methods = ALLOC_PATHS.iter().find(|(p, _)| *p == ty).map(|(_, m)| *m);
                    if let Some(m) = self.toks.get(i + 2) {
                        if methods.is_some_and(|ms| ms.contains(&m.text.as_str())) {
                            self.facts
                                .loop_allocs
                                .push((t.line, format!("{ty}::{}", m.text)));
                        }
                    }
                }
                (TokenKind::Punct, "|" | "||") => {
                    if let Some(next) = self.closure(i, hi, in_loop, call_ctx) {
                        i = next;
                        continue;
                    }
                }
                _ => {}
            }
            i += 1;
        }
    }

    /// Record a call site at ident index `i` (followed by `(`).
    fn record_call(&mut self, i: usize, in_loop: bool) {
        let t = &self.toks[i];
        let prev = i.checked_sub(1).map(|k| self.toks[k].text.as_str());
        let method = prev == Some(".");
        let qual = (prev == Some("::"))
            .then(|| i.checked_sub(2).map(|k| &self.toks[k]))
            .flatten()
            .filter(|q| q.kind == TokenKind::Ident)
            .map(|q| q.text.clone());
        if method && (t.text == "check" || t.text == "is_cancelled") {
            self.facts.polls.push(PollSite {
                line: t.line,
                in_loop,
            });
            return;
        }
        self.facts.calls.push(CallSite {
            name: t.text.clone(),
            qual,
            method,
            line: t.line,
            in_loop,
        });
    }

    /// Is the `{…}` starting at `i` an `Event::…` *construction* rather
    /// than a match/let pattern? Patterns are followed by `=>` or `=`.
    fn is_construction(&self, i: usize) -> bool {
        let Some(open) = self.toks.get(i).filter(|t| t.text == "{").map(|_| i) else {
            // `Event::PassStart` without braces is a path reference
            // (e.g. a fn pointer); neither an emit nor a pattern.
            return false;
        };
        match matching(self.toks, open, "{", "}") {
            Some(end) => !matches!(
                self.toks.get(end).map(|t| t.text.as_str()),
                Some("=>") | Some("=")
            ),
            None => false,
        }
    }

    /// `{…}` span directly at or after `from` (for `loop`).
    fn brace_after(&self, from: usize, hi: usize) -> Option<(usize, usize)> {
        let open = (from..hi).find(|&k| self.toks[k].text == "{")?;
        let end = matching(self.toks, open, "{", "}")?;
        Some((open, end))
    }

    /// Body `{` of a `for`/`while` header starting at `from`: the first
    /// `{` at paren/bracket depth 0 (closures and `vec![…]` in the
    /// header sit inside parens/brackets).
    fn loop_body(&self, from: usize, hi: usize) -> Option<(usize, usize)> {
        let mut depth = 0i32;
        for k in from..hi.min(self.toks.len()) {
            match self.toks[k].text.as_str() {
                "(" | "[" => depth += 1,
                ")" | "]" => depth -= 1,
                "{" if depth == 0 => {
                    let end = matching(self.toks, k, "{", "}")?;
                    return Some((k, end));
                }
                _ => {}
            }
        }
        None
    }

    /// Try to consume a closure starting at the `|`/`||` token at `i`.
    /// Returns the index just past the closure body, or `None` when the
    /// token is not in closure position (bitwise/logical or, match-arm
    /// alternation).
    fn closure(
        &mut self,
        i: usize,
        hi: usize,
        in_loop: bool,
        call_ctx: Option<&str>,
    ) -> Option<usize> {
        let prev = i.checked_sub(1).map(|k| self.toks[k].text.as_str());
        let expr_position = matches!(
            prev,
            None | Some("(" | "," | "=" | "=>" | "return" | "{" | ";" | "&" | "mut" | "move")
        );
        if !expr_position {
            return None;
        }
        let zero_param = self.toks[i].text == "||";
        let (param_count, body_from) = if zero_param {
            (0usize, i + 1)
        } else {
            // Scan for the closing `|` at bracket depth 0; bail on
            // tokens a parameter list cannot contain.
            let mut depth = 0i32;
            let mut k = i + 1;
            let mut count = 1usize;
            loop {
                if k >= hi.min(self.toks.len()) || k > i + 48 {
                    return None;
                }
                match self.toks[k].text.as_str() {
                    "(" | "[" | "<" => depth += 1,
                    ")" | "]" | ">" => depth -= 1,
                    "," if depth == 0 => count += 1,
                    "|" if depth == 0 => break,
                    "{" | ";" | "=>" | "||" => return None,
                    _ => {}
                }
                k += 1;
            }
            (count, k + 1)
        };
        // Optional `-> Type`, then a braced or expression body.
        let mut b = body_from;
        if self.toks.get(b).is_some_and(|t| t.text == "->") {
            while b < hi && self.toks[b].text != "{" {
                b += 1;
            }
        }
        let body_in_loop = if zero_param {
            // Thunks (obs `emit` payloads) evaluate lazily off the hot
            // path; their contents are not loop-scoped…
            false
        } else {
            // …but a parameterized closure handed to an iteration driver
            // runs once per item.
            in_loop || call_ctx.is_some_and(|c| ITER_CALLEES.contains(&c)) && param_count > 0
        };
        if body_in_loop && !in_loop {
            // The closure itself introduced the loop scope: the fn
            // "contains a loop" for L010's purposes.
            self.facts.has_loop = true;
        }
        if self.toks.get(b).is_some_and(|t| t.text == "{") {
            let end = matching(self.toks, b, "{", "}")?;
            self.walk(b + 1, end - 1, body_in_loop, None);
            Some(end)
        } else {
            // Expression body: up to the first `,`/`)`/`;` at depth 0.
            let mut depth = 0i32;
            let mut k = b;
            while k < hi.min(self.toks.len()) {
                match self.toks[k].text.as_str() {
                    "(" | "[" | "{" => depth += 1,
                    ")" | "]" | "}" if depth > 0 => depth -= 1,
                    ")" | "," | ";" if depth == 0 => break,
                    _ => {}
                }
                k += 1;
            }
            self.walk(b, k, body_in_loop, None);
            Some(k)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn facts(src: &str) -> FileFacts {
        parse(&lex(src))
    }

    fn one_fn(src: &str) -> FnFacts {
        let f = facts(src);
        assert_eq!(f.fns.len(), 1, "{:?}", f.fns);
        f.fns.into_iter().next().unwrap()
    }

    #[test]
    fn signatures_and_impl_qualifiers() {
        let f = facts(
            "impl<'a> Miner<'a> {\n  pub fn mine(&mut self, ctrl: Option<&CancelToken>) -> u64 { 0 }\n}\nfn free(x: u64) {}\n",
        );
        assert_eq!(f.fns.len(), 2);
        assert_eq!(f.fns[0].qual, "Miner::mine");
        assert_eq!(f.fns[0].params.len(), 1, "receiver dropped");
        assert!(f.fns[0].token_param().is_some());
        assert_eq!(f.fns[1].qual, "free");
        assert!(f.fns[1].token_param().is_none());
    }

    #[test]
    fn trait_impl_quals_use_the_self_type() {
        let f = facts("impl TransactionSource for Db {\n  fn pass(&mut self) {}\n}\n");
        assert_eq!(f.fns[0].qual, "Db::pass");
    }

    #[test]
    fn loops_polls_and_loop_context() {
        let f = one_fn(
            "fn scan(c: &CancelToken) -> io::Result<()> {\n  c.check()?;\n  for x in items() {\n    c.is_cancelled();\n    helper(x);\n  }\n  Ok(())\n}\n",
        );
        assert!(f.has_loop);
        assert_eq!(f.polls.len(), 2);
        assert!(!f.polls[0].in_loop && f.polls[1].in_loop);
        let helper = f.calls.iter().find(|c| c.name == "helper").unwrap();
        assert!(helper.in_loop);
        let items = f.calls.iter().find(|c| c.name == "items").unwrap();
        assert!(!items.in_loop, "for-header iterables evaluate once");
    }

    #[test]
    fn while_conditions_are_loop_scoped() {
        let f = one_fn("fn w(t: &CancelToken) {\n  while !t.is_cancelled() { step(); }\n}\n");
        assert!(f.polls_in_loop());
    }

    #[test]
    fn iter_driver_closures_are_loop_scopes_thunks_are_not() {
        let f = one_fn(
            "fn go(ctrl: Option<&CancelToken>) {\n  parallel_map(parts, |part| { tick(part); })\n    ;\n  obs.emit(|| make_label());\n}\n",
        );
        let tick = f.calls.iter().find(|c| c.name == "tick").unwrap();
        assert!(tick.in_loop, "parallel_map worker body is a loop scope");
        assert!(f.has_loop, "an iter-driver closure counts as a loop");
        let label = f.calls.iter().find(|c| c.name == "make_label").unwrap();
        assert!(!label.in_loop, "zero-param emit thunks are not loop scopes");
    }

    #[test]
    fn emits_versus_match_patterns() {
        let f = facts(
            "fn emitter(obs: &Obs) {\n  obs.emit(|| Event::PassStart { label: l(), candidates: 0 });\n}\nfn matcher(e: &Event) {\n  match e {\n    Event::PassStart { .. } => {}\n    Event::PassEnd { stats } => drop(stats),\n    _ => {}\n  }\n}\n",
        );
        assert!(f.fns[0].emits(EmitKind::PassStart));
        assert!(
            !f.fns[1].emits(EmitKind::PassStart),
            "patterns are not emits"
        );
        assert!(!f.fns[1].emits(EmitKind::PassEnd));
    }

    #[test]
    fn locks_allocs_and_returns() {
        let f = one_fn(
            "fn hot(n: u64) -> u64 {\n  let m = Mutex::new(0);\n  for i in 0..n {\n    let v = Vec::new();\n    let s = format!(\"x\");\n    if i > 3 { return i; }\n  }\n  0\n}\n",
        );
        assert_eq!(f.locks.len(), 1);
        let idioms: Vec<&str> = f.loop_allocs.iter().map(|(_, s)| s.as_str()).collect();
        assert_eq!(idioms, ["Vec::new", "format!"]);
        assert_eq!(f.returns.len(), 1);
    }

    #[test]
    fn allocations_outside_loops_are_not_recorded() {
        let f = one_fn("fn cold() -> Vec<u64> {\n  let v = Vec::with_capacity(8);\n  v\n}\n");
        assert!(f.loop_allocs.is_empty());
    }

    #[test]
    fn nested_fns_own_their_tokens() {
        let f = facts("fn outer() {\n  fn inner() { for i in 0..3 { step(i); } }\n  inner();\n}\n");
        let outer = f.fns.iter().find(|f| f.name == "outer").unwrap();
        let inner = f.fns.iter().find(|f| f.name == "inner").unwrap();
        assert!(!outer.has_loop, "inner's loop is not outer's");
        assert!(inner.has_loop);
        assert!(outer.calls.iter().any(|c| c.name == "inner"));
    }

    #[test]
    fn cfg_test_fns_are_marked() {
        let f = facts("#[cfg(test)]\nmod tests {\n  fn helper() {}\n}\nfn real() {}\n");
        assert!(
            f.fns
                .iter()
                .find(|f| f.name == "helper")
                .unwrap()
                .in_cfg_test
        );
        assert!(!f.fns.iter().find(|f| f.name == "real").unwrap().in_cfg_test);
    }

    #[test]
    fn use_and_mod_inventory() {
        let f = facts("use std::sync::Mutex;\nmod block;\nmod obs { }\n");
        assert_eq!(f.uses, ["std::sync::Mutex"]);
        assert_eq!(f.mods, ["block", "obs"]);
    }

    #[test]
    fn bodyless_trait_decls_are_skipped() {
        let f = facts("trait Source {\n  fn pass(&mut self, f: &mut dyn FnMut(u32));\n}\n");
        assert!(f.fns.is_empty());
    }
}
