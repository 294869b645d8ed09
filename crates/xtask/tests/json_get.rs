//! `xtask json-get` exit codes, end to end: the bench gates rely on a
//! nonzero exit for every value they cannot compare.

use std::process::Command;

/// Run `xtask json-get` with `args`; returns (exit code, stdout).
fn json_get(args: &[&str]) -> (i32, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_xtask"))
        .arg("json-get")
        .args(args)
        .output()
        .expect("run xtask");
    let code = out.status.code().expect("exit code");
    (code, String::from_utf8_lossy(&out.stdout).into_owned())
}

#[test]
fn json_get_prints_scalars_and_fails_on_everything_else() {
    let path = std::env::temp_dir().join(format!("xtask-json-get-{}.json", std::process::id()));
    let doc = r#"{"scales": [{"x4": null}, {"l2": 9.504}], "ok": true}"#;
    std::fs::write(&path, doc).expect("write fixture");
    let file = path.to_str().expect("utf-8 temp path");

    assert_eq!(json_get(&[file, "scales.-1.l2"]), (0, "9.504\n".into()));
    assert_eq!(json_get(&[file, "ok"]), (0, "true\n".into()));
    for unreadable in ["scales.0.l2", "scales.0.x4", "scales"] {
        assert_eq!(
            json_get(&[file, unreadable]),
            (1, String::new()),
            "{unreadable}"
        );
    }
    assert_eq!(json_get(&[file]).0, 2, "missing PATH is a usage error");
    assert_eq!(json_get(&["no-such-file.json", "ok"]).0, 2);
    std::fs::write(&path, "{\"ok\": ").expect("write truncated fixture");
    assert_eq!(json_get(&[file, "ok"]).0, 1, "unparseable document");
    std::fs::remove_file(&path).ok();
}
