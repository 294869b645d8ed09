//! Cross-file flow-lint tests: seeded mutations against the *real*
//! mining sources, cross-file delegation, and the workspace walk.
//!
//! The mutation checks are the analyzer's canary: delete the token poll
//! from `partition_mine` and L010 must catch it; break the pass-end
//! emit of `Obs::pass`, the one fn that builds pass events, and L011
//! must. If either mutation sails through, the lints have rotted into
//! decoration.

use xtask::lints::FileClass;
use xtask::{analyze_source, analyze_sources, SourceInput};

const PARTITION_MINE: &str = "crates/apriori/src/partition_mine.rs";
const OBS: &str = "crates/txdb/src/obs.rs";

fn real_source(rel: &str) -> String {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..")
        .join(rel);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path:?}: {e}"))
}

fn flow_findings(rel: &str, source: &str) -> Vec<&'static str> {
    analyze_source(rel, source, FileClass::Library)
        .iter()
        .map(|f| f.lint)
        .filter(|l| ["L010", "L011"].contains(l))
        .collect()
}

#[test]
fn partition_mine_as_written_is_clean() {
    let source = real_source(PARTITION_MINE);
    assert_eq!(
        flow_findings(PARTITION_MINE, &source),
        Vec::<&str>::new(),
        "the shipped partition miner polls its token and pairs its pass events"
    );
}

#[test]
fn deleting_the_token_poll_is_one_l010() {
    let source = real_source(PARTITION_MINE);
    assert!(source.contains("c.check()?;"), "mutation anchor moved");
    // The file has one poll per token-carrying loop (`partition_mine`
    // phase 1 first, then the shard and verify loops); delete only the
    // first so exactly one fn loses its only poll.
    let mutated = source.replacen("c.check()?;", "", 1);
    assert_eq!(
        flow_findings(PARTITION_MINE, &mutated),
        ["L010"],
        "removing the only poll inside the per-partition loop must produce \
         exactly one deny finding"
    );
}

#[test]
fn breaking_the_pass_end_emit_is_one_l011() {
    let source = real_source(OBS);
    assert_eq!(flow_findings(OBS, &source), Vec::<&str>::new());
    let anchor = "self.emit(|| Event::PassEnd";
    assert_eq!(source.matches(anchor).count(), 1, "mutation anchor moved");
    let mutated = source.replace(anchor, "self.emit(|| Event::PassStart");
    assert_eq!(
        flow_findings(OBS, &mutated),
        ["L011"],
        "a pass that starts twice and never ends must produce exactly one \
         deny finding"
    );
}

#[test]
fn l010_credit_crosses_files() {
    // The loop's poll lives two files away: caller -> relay -> poller.
    // Only the symbol table + call graph can connect them.
    let caller = "use negassoc_txdb::ctrl::CancelToken;
pub fn drive(blocks: &[Vec<u64>], ctrl: &CancelToken) -> io::Result<u64> {
    let mut total = 0;
    for b in blocks {
        total += relay_step(b, ctrl)?;
    }
    Ok(total)
}
";
    let relay = "pub fn relay_step(b: &[u64], ctrl: &CancelToken) -> io::Result<u64> {
    poll_then_count(b, ctrl)
}
";
    let poller = "pub fn poll_then_count(b: &[u64], ctrl: &CancelToken) -> io::Result<u64> {
    ctrl.check()?;
    Ok(b.len() as u64)
}
";
    let inputs = [
        SourceInput {
            rel: "crates/demo/src/caller.rs",
            source: caller,
            class: FileClass::Library,
        },
        SourceInput {
            rel: "crates/demo/src/relay.rs",
            source: relay,
            class: FileClass::Library,
        },
        SourceInput {
            rel: "crates/demo/src/poller.rs",
            source: poller,
            class: FileClass::Library,
        },
    ];
    let findings = analyze_sources(&inputs);
    assert!(
        findings.iter().all(|f| f.lint != "L010"),
        "transitive poll credit must cross file boundaries, got {findings:?}"
    );

    // Sever the chain (the relay stops calling the poller) and the same
    // caller is a finding again.
    let broken_relay = "pub fn relay_step(b: &[u64], ctrl: &CancelToken) -> io::Result<u64> {
    Ok(b.len() as u64)
}
";
    let mut broken = inputs.clone();
    broken[1].source = broken_relay;
    let findings = analyze_sources(&broken);
    let l010: Vec<_> = findings.iter().filter(|f| f.lint == "L010").collect();
    assert_eq!(l010.len(), 1, "{findings:?}");
    assert_eq!(l010[0].path, "crates/demo/src/caller.rs");
}

#[test]
fn test_code_lends_no_poll_credit() {
    // The polling helper exists only in a test-support file; the library
    // caller must not be excused by it.
    let caller = "use negassoc_txdb::ctrl::CancelToken;
pub fn drive(blocks: &[Vec<u64>], ctrl: &CancelToken) -> u64 {
    let mut total = 0;
    for b in blocks {
        total += helper(b, ctrl);
    }
    total
}
";
    let helper = "pub fn helper(b: &[u64], ctrl: &CancelToken) -> u64 {
    let _ = ctrl.is_cancelled();
    b.len() as u64
}
";
    let findings = analyze_sources(&[
        SourceInput {
            rel: "crates/demo/src/caller.rs",
            source: caller,
            class: FileClass::Library,
        },
        SourceInput {
            rel: "crates/demo/tests/helper.rs",
            source: helper,
            class: FileClass::TestSupport,
        },
    ]);
    let l010: Vec<_> = findings.iter().filter(|f| f.lint == "L010").collect();
    assert_eq!(l010.len(), 1, "{findings:?}");
}

/// Every file under `dir`, recursively, sorted.
fn files_under(dir: &std::path::Path) -> Vec<std::path::PathBuf> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            out.extend(files_under(&path));
        } else {
            out.push(path);
        }
    }
    out.sort();
    out
}

#[test]
fn workspace_analysis_is_one_stateless_pass() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..")
        .join("target")
        .join(format!("xtask-walk-test-{}", std::process::id()));
    let src = root.join("crates/demo/src");
    std::fs::create_dir_all(&src).unwrap();
    std::fs::write(
        src.join("lib.rs"),
        "pub fn bad(v: Option<u64>) -> u64 { v.unwrap() }\n",
    )
    .unwrap();
    std::fs::write(
        src.join("other.rs"),
        "pub fn fine(v: Option<u64>) -> u64 { v.unwrap_or(0) }\n",
    )
    .unwrap();
    let planted = files_under(&root);
    let found = |a: &xtask::Analysis| {
        a.findings
            .iter()
            .map(|f| (f.lint, f.path.clone(), f.line))
            .collect::<Vec<_>>()
    };
    let want = [("L001", "crates/demo/src/lib.rs".to_string(), 1)];

    let first = xtask::analyze_workspace(&root).unwrap();
    assert_eq!(first.files_scanned, 2);
    assert_eq!(found(&first), want, "exactly the planted unwrap");

    let second = xtask::analyze_workspace(&root).unwrap();
    assert_eq!(found(&second), want, "a second run agrees");

    // Editing the clean file moves nothing.
    std::fs::write(
        src.join("other.rs"),
        "pub fn fine(v: Option<u64>) -> u64 { v.unwrap_or(1) }\n",
    )
    .unwrap();
    let edited = xtask::analyze_workspace(&root).unwrap();
    assert_eq!(found(&edited), want, "an edit elsewhere agrees");

    assert_eq!(
        files_under(&root),
        planted,
        "analyze keeps no state: it writes nothing under the root"
    );
    std::fs::remove_dir_all(&root).ok();
}
