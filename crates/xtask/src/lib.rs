//! The negassoc workspace analyzer: custom static lints over every crate.
//!
//! Run as `cargo run -p xtask -- analyze`. The analyzer walks the
//! workspace with `std::fs`, lexes each Rust file with a hand-rolled
//! scanner, runs the token-level lints L001–L009, parses item-level
//! structure ([`parser`]), builds a workspace symbol table and
//! conservative call graph ([`items`], [`graph`]), and runs the
//! flow-level lints L010–L013 ([`flow`]). See [`lints::LINTS`] and
//! DESIGN.md §7/§12.
//!
//! Design constraints that shaped it:
//!
//! * **Zero dependencies.** The build environment is offline; an analyzer
//!   must not need anything the toolchain doesn't ship.
//! * **Token- and item-level, not AST-level.** The token lints guard
//!   call/construction patterns; the flow lints need only fn items,
//!   loops, calls and emits — a full parser would add thousands of
//!   lines for no additional signal.
//! * **Suppressable with a paper trail.** Any finding can be allowed with
//!   `// negassoc-lint: allow(L00x) -- reason` (L013 checks that the
//!   reason exists and the allow still earns its keep); nothing else
//!   suppresses a finding.
//! * **One pass, no state.** Every run walks, lexes, lints and parses
//!   every file, then runs the cross-file stage; nothing is kept between
//!   runs, so a report depends only on the tree.

pub mod flow;
pub mod graph;
pub mod items;
pub mod json;
pub mod lexer;
pub mod lints;
pub mod parser;
pub mod walk;

use graph::CallGraph;
use items::SymbolTable;
use lints::{Finding, Severity};
use std::collections::BTreeMap;
use std::path::Path;

/// Result of analyzing a tree: findings plus scan accounting.
#[derive(Debug, Default)]
pub struct Analysis {
    /// All unsuppressed findings, in (path, line) order.
    pub findings: Vec<Finding>,
    /// Files lexed and linted.
    pub files_scanned: usize,
    /// Files classified `Library`.
    pub library_files: usize,
    /// Files classified `TestSupport`.
    pub test_support_files: usize,
    /// Directory name → times the walker skipped it.
    pub skipped_dirs: BTreeMap<String, usize>,
}

impl Analysis {
    /// Findings whose lint severity is `Deny`.
    pub fn deny_count(&self) -> usize {
        self.findings
            .iter()
            .filter(|f| lints::lint_info(f.lint).severity == Severity::Deny)
            .count()
    }

    /// Findings whose lint severity is `Warn`.
    pub fn warn_count(&self) -> usize {
        self.findings.len() - self.deny_count()
    }
}

/// One in-memory source file for [`analyze_sources`].
#[derive(Clone, Debug)]
pub struct SourceInput<'a> {
    /// Workspace-relative path (drives path-scoped exemptions).
    pub rel: &'a str,
    /// Source text.
    pub source: &'a str,
    /// Library vs test-support.
    pub class: lints::FileClass,
}

/// Analyze every workspace source file under `root`: read each walked
/// file and run it through [`analyze_sources`].
pub fn analyze_workspace(root: &Path) -> std::io::Result<Analysis> {
    let walked = walk::collect(root)?;
    let sources = walked
        .files
        .iter()
        .map(|file| std::fs::read_to_string(&file.path))
        .collect::<std::io::Result<Vec<_>>>()?;
    let inputs: Vec<SourceInput<'_>> = walked
        .files
        .iter()
        .zip(&sources)
        .map(|(file, source)| SourceInput {
            rel: &file.rel,
            source,
            class: file.class,
        })
        .collect();
    Ok(Analysis {
        findings: analyze_sources(&inputs),
        files_scanned: inputs.len(),
        library_files: walked.library_count(),
        test_support_files: walked.test_support_count(),
        skipped_dirs: walked.skipped_dirs,
    })
}

/// Run the **full** pipeline over in-memory sources: per file, lex, run
/// the token lints and parse items; then the cross-file stage (flow
/// lints over the library symbol table, per-file suppression, allow
/// hygiene L013). [`analyze_workspace`] feeds it the walked tree; the
/// fixture and mutation tests feed it strings.
pub fn analyze_sources(inputs: &[SourceInput<'_>]) -> Vec<Finding> {
    let mut token_findings = Vec::new();
    let mut directives = Vec::with_capacity(inputs.len());
    // Symbol table from library files only (test helpers must not lend
    // poll/emit credit or receive flow findings).
    let mut library_facts: Vec<(String, parser::FileFacts)> = Vec::new();
    for input in inputs {
        let lexed = lexer::lex(input.source);
        token_findings.extend(lints::lint_file(input.rel, &lexed, input.class));
        if input.class == lints::FileClass::Library {
            library_facts.push((input.rel.to_string(), parser::parse(&lexed)));
        }
        directives.push(lexed.allows);
    }
    let table = SymbolTable::build(&library_facts);
    let graph = CallGraph::build(&table);

    // Suppression: per file, over flow + token findings together, so an
    // allow above a fn header can excuse an L010 as easily as an L001.
    let mut by_path: BTreeMap<String, Vec<Finding>> = BTreeMap::new();
    for f in flow::flow_lints(&table, &graph)
        .into_iter()
        .chain(token_findings)
    {
        by_path.entry(f.path.clone()).or_default().push(f);
    }
    let mut kept = Vec::new();
    let mut hygiene = Vec::new();
    for (input, directives) in inputs.iter().zip(&directives) {
        let mut findings = by_path.remove(input.rel).unwrap_or_default();
        let mut used = Vec::new();
        lints::apply_allows(&mut findings, directives, &mut used);
        hygiene.extend(flow::allow_hygiene(
            input.rel,
            input.class,
            directives,
            &used,
        ));
        kept.append(&mut findings);
    }
    // Every finding's path names an input, but drain defensively.
    for (_, mut findings) in by_path {
        kept.append(&mut findings);
    }
    kept.append(&mut hygiene);
    kept.sort_by(|a, b| (&a.path, a.line, a.lint).cmp(&(&b.path, b.line, b.lint)));
    kept
}

/// Analyze one file's source text through the full pipeline. Kept for
/// fixture tests; `class` controls whether library-only lints apply.
pub fn analyze_source(rel_path: &str, source: &str, class: lints::FileClass) -> Vec<Finding> {
    analyze_sources(&[SourceInput {
        rel: rel_path,
        source,
        class,
    }])
}
