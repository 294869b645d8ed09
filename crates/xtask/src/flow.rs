//! The flow-level lints, L010–L013: cross-file checks over the symbol
//! table and call graph (DESIGN.md §12).
//!
//! * **L010** — a library fn taking `&CancelToken`/`RunControl` that
//!   contains a loop must poll the token inside the loop scope, either
//!   directly (`.check()` / `.is_cancelled()`) or by calling, from
//!   inside the loop, a fn that transitively polls. Merely *passing the
//!   token along* earns no credit: a wrapper that hands its token to a
//!   polling callee but spins its own unpolled loop is still a finding.
//! * **L011** — a fn constructing `Event::PassStart` must construct
//!   `Event::PassEnd` too (itself, or via a callee that transitively
//!   does), and must not `return` between the first start and the last
//!   end. `?` exits are exempt by design: the pass-end contract only
//!   covers successful paths (the obs vocabulary pairs errors with
//!   `RunEnd`, not `PassEnd`).
//! * **L012** (warn) — fns reachable from `parallel_pass*` /
//!   `count_mixed_parallel*` must not mention `Mutex`/`RwLock` or
//!   allocate inside a loop; counting workers use private structures
//!   merged afterwards (DESIGN.md §9). `txdb/src/obs.rs` is exempt (its
//!   trace sinks are the sanctioned, gated-off-hot-path locks), as is
//!   `crates/xtask/` itself (tooling, not mining code).
//! * **L013** — every allow directive must carry a `-- reason` and must
//!   still suppress at least one finding per listed id; stale ids and
//!   reasonless directives are findings. L013 itself cannot be allowed
//!   away (an allow that excuses allow-hygiene is a contradiction).

use crate::graph::CallGraph;
use crate::items::SymbolTable;
use crate::lexer::AllowDirective;
use crate::lints::{FileClass, Finding};
use crate::parser::EmitKind;

/// L012's roots: hot-path entry points by name prefix.
const HOT_ROOT_PREFIXES: &[&str] = &["parallel_pass", "count_mixed_parallel"];

/// Files exempt from L012: the obs layer's sinks are the sanctioned
/// locks, gated off the hot path behind `Obs::enabled`.
const L012_EXEMPT: &[&str] = &["txdb/src/obs.rs"];

/// Is `path` out of L012's scope? Besides the per-file exemptions, the
/// analyzer crate itself is excluded wholesale: it is tooling, never on
/// the mining hot path, and its generically named fns (`parse`, `write`,
/// `build`) would otherwise absorb call-graph edges from the real hot
/// path through the conservative by-name resolution.
fn l012_exempt(path: &str) -> bool {
    path.starts_with("crates/xtask/") || L012_EXEMPT.iter().any(|p| path.ends_with(p))
}

/// Run L010–L012 over the table/graph. Findings come back unsuppressed;
/// the caller routes them through `apply_allows`.
pub fn flow_lints(table: &SymbolTable, graph: &CallGraph) -> Vec<Finding> {
    let mut findings = Vec::new();
    let polls_transitively = graph.propagate_to_callers(
        &table
            .fns
            .iter()
            .map(|e| !e.facts.polls.is_empty())
            .collect::<Vec<_>>(),
    );
    let ends_transitively = graph.propagate_to_callers(
        &table
            .fns
            .iter()
            .map(|e| e.facts.emits(EmitKind::PassEnd))
            .collect::<Vec<_>>(),
    );

    // L010: cancellation coverage.
    for (i, e) in table.fns.iter().enumerate() {
        let Some(param) = e.facts.token_param() else {
            continue;
        };
        if !e.facts.has_loop {
            continue;
        }
        let delegated = graph.loop_callees[i].iter().any(|&c| polls_transitively[c]);
        if !e.facts.polls_in_loop() && !delegated {
            findings.push(Finding {
                lint: "L010",
                path: e.path.clone(),
                line: e.facts.line,
                message: format!(
                    "`{}` takes `{}: {}` and loops, but nothing in the loop polls it; \
                     add `.check()?` / `.is_cancelled()` to the loop body (or call a \
                     polling fn from it)",
                    e.facts.qual, param.name, param.ty
                ),
            });
        }
    }

    // L011: pass-event pairing.
    for (i, e) in table.fns.iter().enumerate() {
        if !e.facts.emits(EmitKind::PassStart) {
            continue;
        }
        if !e.facts.emits(EmitKind::PassEnd) {
            let delegated = graph.callees[i].iter().any(|&c| ends_transitively[c]);
            if !delegated {
                findings.push(Finding {
                    lint: "L011",
                    path: e.path.clone(),
                    line: e.facts.line,
                    message: format!(
                        "`{}` emits Event::PassStart but never Event::PassEnd (and no \
                         callee emits it); every started pass must report its end",
                        e.facts.qual
                    ),
                });
            }
            continue;
        }
        let first_start = e
            .facts
            .emits
            .iter()
            .filter(|em| em.kind == EmitKind::PassStart)
            .map(|em| em.order)
            .min()
            .unwrap_or(0);
        let last_end = e
            .facts
            .emits
            .iter()
            .filter(|em| em.kind == EmitKind::PassEnd)
            .map(|em| em.order)
            .max()
            .unwrap_or(0);
        for &(line, order) in &e.facts.returns {
            if order > first_start && order < last_end {
                findings.push(Finding {
                    lint: "L011",
                    path: e.path.clone(),
                    line,
                    message: format!(
                        "`{}` returns between Event::PassStart and Event::PassEnd, \
                         skipping the end emit on this path; emit PassEnd before \
                         returning (or restructure so only `?` exits early)",
                        e.facts.qual
                    ),
                });
            }
        }
    }

    // L012: hot-path purity.
    let roots: Vec<usize> = table
        .fns
        .iter()
        .enumerate()
        .filter(|(_, e)| {
            HOT_ROOT_PREFIXES
                .iter()
                .any(|p| e.facts.name.starts_with(p))
        })
        .map(|(i, _)| i)
        .collect();
    let reachable = graph.reachable_from(&roots);
    for (i, e) in table.fns.iter().enumerate() {
        if !reachable[i] || l012_exempt(&e.path) {
            continue;
        }
        for &line in &e.facts.locks {
            findings.push(Finding {
                lint: "L012",
                path: e.path.clone(),
                line,
                message: format!(
                    "`{}` is reachable from the hot counting path and mentions a \
                     Mutex/RwLock; workers use private structures merged after the \
                     pass (DESIGN.md \u{00a7}9)",
                    e.facts.qual
                ),
            });
        }
        for (line, idiom) in &e.facts.loop_allocs {
            findings.push(Finding {
                lint: "L012",
                path: e.path.clone(),
                line: *line,
                message: format!(
                    "`{}` allocates (`{}`) inside a loop on the hot counting path; \
                     hoist the buffer out of the loop and reuse it",
                    e.facts.qual, idiom
                ),
            });
        }
    }

    findings
}

/// L013: allow-directive hygiene for one library file. `used` holds the
/// `(directive line, lint id)` pairs that suppressed a finding.
pub fn allow_hygiene(
    path: &str,
    class: FileClass,
    directives: &[AllowDirective],
    used: &[(u32, String)],
) -> Vec<Finding> {
    let mut findings = Vec::new();
    if class != FileClass::Library {
        return findings;
    }
    for d in directives {
        if !d.has_reason {
            findings.push(Finding {
                lint: "L013",
                path: path.to_string(),
                line: d.line,
                message: format!(
                    "allow({}) has no `-- reason`; every suppression documents why \
                     the invariant does not apply here",
                    d.ids.join(", ")
                ),
            });
        }
        for id in &d.ids {
            let hit = used.iter().any(|(line, uid)| *line == d.line && uid == id);
            if !hit {
                findings.push(Finding {
                    lint: "L013",
                    path: path.to_string(),
                    line: d.line,
                    message: format!(
                        "stale allow({id}): it no longer suppresses any finding on \
                         this or the next line; delete it"
                    ),
                });
            }
        }
    }
    findings
}
