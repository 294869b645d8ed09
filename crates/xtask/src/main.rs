//! `cargo run -p xtask -- analyze` — the workspace static analyzer —
//! plus `validate-json`, the schema-free checker for every JSON document
//! the workspace emits, and `json-get`, the field reader the bench gates
//! use.

use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "xtask <analyze|validate-json|json-get|help> [options]

  analyze        run the L001-L013 invariant lints over the workspace
                 (token lints L001-L009, cross-file flow lints L010-L013)
                 --json             machine-readable output
                 --deny-all        treat warn-level findings as deny
                 --list             print the lint registry (id, severity,
                                    token/flow level) and exit
                 --root PATH        analyze PATH instead of the enclosing
                                    workspace

                 exit codes: 0 = clean (warn-level findings allowed unless
                 --deny-all), 1 = deny-level findings remain (--deny-all:
                 any findings at all), 2 = usage or I/O error

  validate-json  parse FILE and exit nonzero on the first syntax error
                 FILE         the document (or stream) to check
                 --lines      JSON-lines mode: one document per line,
                              as written by `negrules … --trace FILE`

  json-get       print the scalar at PATH in the JSON document FILE
                 FILE PATH    PATH is dot-separated keys and array
                              indices; a negative index counts from the
                              end (scales.-1.l2_speedup_bitmap_vs_flat)
                 exit codes: 0 = printed, 1 = unparseable document,
                 missing path, null or non-scalar, 2 = usage or I/O error

Findings are suppressed by a justification comment on the same or the
preceding line:  // negassoc-lint: allow(L00x) -- reason
(L013 fails reasonless or stale allows).";

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    match args.next().as_deref() {
        Some("analyze") => analyze(args.collect()),
        Some("validate-json") => validate_json(args.collect()),
        Some("json-get") => json_get(args.collect()),
        Some("help") | Some("--help") | Some("-h") | None => {
            println!("{USAGE}");
            ExitCode::SUCCESS
        }
        Some(other) => {
            eprintln!("error: unknown task {other:?}\n\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn validate_json(args: Vec<String>) -> ExitCode {
    let mut lines = false;
    let mut file: Option<String> = None;
    for arg in args {
        match arg.as_str() {
            "--lines" => lines = true,
            other if file.is_none() && !other.starts_with('-') => file = Some(other.to_owned()),
            other => {
                eprintln!("error: unknown option {other:?}\n\n{USAGE}");
                return ExitCode::from(2);
            }
        }
    }
    let Some(file) = file else {
        eprintln!("error: validate-json needs a file\n\n{USAGE}");
        return ExitCode::from(2);
    };
    let text = match read(&file) {
        Ok(t) => t,
        Err(code) => return code,
    };
    let outcome = if lines {
        xtask::json::parse_lines(&text).map(|docs| format!("{} documents", docs.len()))
    } else {
        xtask::json::parse(&text).map(|_| "1 document".to_owned())
    };
    match outcome {
        Ok(what) => {
            println!("{file}: valid JSON ({what})");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {file}: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Read a document, reporting an I/O failure as a usage-class exit (2).
fn read(file: &str) -> Result<String, ExitCode> {
    std::fs::read_to_string(file).map_err(|e| {
        eprintln!("error: {file}: {e}");
        ExitCode::from(2)
    })
}

fn json_get(args: Vec<String>) -> ExitCode {
    let [file, path] = args.as_slice() else {
        eprintln!("error: json-get needs FILE and PATH\n\n{USAGE}");
        return ExitCode::from(2);
    };
    let text = match read(file) {
        Ok(t) => t,
        Err(code) => return code,
    };
    match xtask::json::get_scalar(&text, path) {
        Ok(value) => {
            println!("{value}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {file}: {path}: {e}");
            ExitCode::FAILURE
        }
    }
}

fn analyze(args: Vec<String>) -> ExitCode {
    let mut json = false;
    let mut deny_all = false;
    let mut root: Option<PathBuf> = None;
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--json" => json = true,
            "--deny-all" => deny_all = true,
            "--list" => {
                for lint in xtask::lints::LINTS {
                    println!(
                        "{}  {:4}  {:5}  {}",
                        lint.id,
                        lint.severity.label(),
                        lint.level.label(),
                        lint.summary
                    );
                }
                return ExitCode::SUCCESS;
            }
            "--root" => match it.next() {
                Some(p) => root = Some(PathBuf::from(p)),
                None => {
                    eprintln!("error: --root needs a path");
                    return ExitCode::from(2);
                }
            },
            other => {
                eprintln!("error: unknown option {other:?}\n\n{USAGE}");
                return ExitCode::from(2);
            }
        }
    }

    let root = match root {
        Some(r) => r,
        None => {
            let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
            match xtask::walk::find_workspace_root(&cwd) {
                Some(r) => r,
                None => {
                    eprintln!("error: no enclosing workspace (pass --root)");
                    return ExitCode::from(2);
                }
            }
        }
    };

    let analysis = match xtask::analyze_workspace(&root) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };

    if json {
        println!("{}", xtask::json::render(&analysis));
    } else {
        for f in &analysis.findings {
            println!(
                "{} [{}] {}:{}: {}",
                f.lint,
                xtask::lints::lint_info(f.lint).severity.label(),
                f.path,
                f.line,
                f.message
            );
        }
        println!(
            "analyzed {} files ({} library, {} test-support): {} deny, {} warn",
            analysis.files_scanned,
            analysis.library_files,
            analysis.test_support_files,
            analysis.deny_count(),
            analysis.warn_count(),
        );
    }

    let failing = if deny_all {
        analysis.findings.len()
    } else {
        analysis.deny_count()
    };
    if failing > 0 {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
