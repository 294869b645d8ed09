//! End-to-end test of the `negrules` binary: generate → stats → mine →
//! negatives, all through the real CLI entry points.

use std::path::PathBuf;
use std::process::Command;

fn negrules() -> Command {
    Command::new(env!("CARGO_BIN_EXE_negrules"))
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("negrules-e2e-{}-{name}", std::process::id()))
}

#[test]
fn full_pipeline() {
    let data = tmp("d.nadb");
    let tax = tmp("t.txt");

    // generate
    let out = negrules()
        .args([
            "generate",
            "--data",
            data.to_str().unwrap(),
            "--taxonomy",
            tax.to_str().unwrap(),
            "--transactions",
            "800",
            "--items",
            "150",
            "--seed",
            "7",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("wrote 800 transactions"), "{stdout}");

    // stats
    let out = negrules()
        .args([
            "stats",
            "--data",
            data.to_str().unwrap(),
            "--taxonomy",
            tax.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("transactions:      800"), "{stdout}");
    assert!(stdout.contains("taxonomy:"), "{stdout}");

    // mine (positive rules)
    let out = negrules()
        .args([
            "mine",
            "--data",
            data.to_str().unwrap(),
            "--taxonomy",
            tax.to_str().unwrap(),
            "--min-support",
            "0.03",
            "--min-conf",
            "0.5",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("generalized large itemsets"), "{stdout}");

    // negatives
    let out = negrules()
        .args([
            "negatives",
            "--data",
            data.to_str().unwrap(),
            "--taxonomy",
            tax.to_str().unwrap(),
            "--min-support",
            "0.03",
            "--min-ri",
            "0.4",
            "--driver",
            "improved",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("negative rules at RI >= 0.4"), "{stdout}");

    // naive driver and no-compress agree structurally (exit 0, same header)
    let out = negrules()
        .args([
            "negatives",
            "--data",
            data.to_str().unwrap(),
            "--taxonomy",
            tax.to_str().unwrap(),
            "--min-support",
            "0.03",
            "--driver",
            "naive",
            "--no-compress",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // CSV export writes a header plus one line per rule.
    let csv = tmp("rules.csv");
    let out = negrules()
        .args([
            "negatives",
            "--data",
            data.to_str().unwrap(),
            "--taxonomy",
            tax.to_str().unwrap(),
            "--min-support",
            "0.03",
            "--min-ri",
            "0.3",
            "--out",
            csv.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let body = std::fs::read_to_string(&csv).unwrap();
    assert!(body.starts_with("antecedent,consequent,ri,expected,actual"));
    std::fs::remove_file(&csv).ok();

    // Positive mining with the partition algorithm and R-interest pruning.
    let out = negrules()
        .args([
            "mine",
            "--data",
            data.to_str().unwrap(),
            "--taxonomy",
            tax.to_str().unwrap(),
            "--min-support",
            "0.03",
            "--algorithm",
            "partition",
            "--partitions",
            "3",
            "--r-interest",
            "1.2",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("R-interest pruning"), "{stdout}");

    std::fs::remove_file(&data).ok();
    std::fs::remove_file(&tax).ok();
}

#[test]
fn helpful_errors() {
    // No command: usage on stderr, exit 2.
    let out = negrules().output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("negrules"));

    // Unknown command: usage error, exit 2.
    let out = negrules().arg("frobnicate").output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));

    // Missing required option: usage error, exit 2.
    let out = negrules().args(["stats"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--data"));

    // Unknown option is rejected (exit 2), not ignored.
    let out = negrules()
        .args(["stats", "--data", "x", "--bogus", "1"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--bogus"));

    // A bad --deadline is a usage error too.
    let out = negrules()
        .args([
            "negatives",
            "--data",
            "x",
            "--taxonomy",
            "y",
            "--deadline",
            "-3",
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--deadline"));

    // The removed hash-tree backend is a usage error that names the
    // remaining choices, raised before any file is opened.
    for cmd in ["negatives", "mine"] {
        let out = negrules()
            .args([
                cmd,
                "--data",
                "x",
                "--taxonomy",
                "y",
                "--backend",
                "hashtree",
            ])
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "{cmd}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("hashtree was removed"), "{cmd}: {stderr}");
        assert!(stderr.contains("`bitmap` (the default)"), "{cmd}: {stderr}");
        assert!(stderr.contains("`flat`"), "{cmd}: {stderr}");
    }

    // Help works.
    let out = negrules().arg("help").output().unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("negatives"));
}
