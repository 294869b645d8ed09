//! Mine-to-serve benchmark for the negative-association pipeline.
//!
//! One run takes a workload's inputs from a seed, writes them as an NADB
//! file, and drives the library's public calls only: `binfmt::load` →
//! `NegativeMiner` → `MiningOutcome::rule_export` → `export_snapshot`,
//! then `negassoc_serve::serve` on loopback, queried and hot-swapped
//! through `negassoc_serve::request`. It checks what it measured — the
//! audit, snapshot bytes on every cycle, every served answer against the
//! full-scan oracle, every swap reply — and prints the metrics, ending
//! with one JSON result line.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload mine-short [--seed N] [--seconds S] [--trace 0|1]
//!     [--steadiness RUNS]      repeat in fresh processes, print spreads
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --self-test
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` is a separate
//! run that times each layer from outside and prints the per-layer ones.
//! Run it from the repository root: scratch files go to `.perfbench_work/`.

mod mine;
mod report;
mod run;
mod serve;
mod stats;
mod trace;
mod workload;

use report::{declared, parse_metrics};
use run::Options;
use std::process::{Command, ExitCode};
use workload::{Workload, WORKLOADS};

/// The error type of the benchmark's plumbing.
pub type Res<T> = Result<T, Box<dyn std::error::Error + Send + Sync>>;

const DEFAULT_SECONDS: f64 = 40.0;

struct Args {
    workload: Option<Workload>,
    seed: Option<u64>,
    seconds: f64,
    traced: bool,
    steadiness: Option<usize>,
    self_test: bool,
}

fn usage() -> String {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: perfbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1] \
         [--steadiness RUNS]\n       perfbench --self-test",
        names.join("|")
    )
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: None,
        seconds: DEFAULT_SECONDS,
        traced: false,
        steadiness: None,
        self_test: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--self-test" {
            args.self_test = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                args.workload = Some(Workload::by_name(&value).ok_or(bad("unknown workload"))?)
            }
            "--seed" => args.seed = Some(value.parse().map_err(|_| bad("not a u64"))?),
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad("not a number"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err(bad("must be in (0, 600]"));
                }
            }
            "--trace" => {
                args.traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("must be 0 or 1")),
                }
            }
            "--steadiness" => {
                args.steadiness = Some(
                    value
                        .parse()
                        .ok()
                        .filter(|&n| n >= 2)
                        .ok_or(bad("need at least 2 runs"))?,
                )
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload.is_none() && !args.self_test {
        return Err("--workload is required".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let outcome = match (args.self_test, args.workload) {
        (true, _) => self_test(),
        (false, Some(w)) => {
            let seed = args.seed.unwrap_or_else(|| w.default_seed());
            match args.steadiness {
                Some(runs) => steadiness(&w, seed, args.seconds, args.traced, runs),
                None => run_and_print(&w, seed, args.seconds, args.traced),
            }
        }
        (false, None) => Err("--workload is required".into()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// One run; the result line is the last line of stdout. Fails (exit 1)
/// when any check failed.
fn run_and_print(w: &Workload, seed: u64, seconds: f64, traced: bool) -> Res<bool> {
    let result = run::run(&Options {
        workload: *w,
        seed,
        seconds,
        traced,
        corrupt_query: None,
    })?;
    for line in result.table(traced) {
        println!("{line}");
    }
    println!("{}", result.json(traced));
    Ok(result.correct(traced))
}

/// Repeat a workload in fresh processes with seeds `seed`, `seed + 1`, …
/// and print each metric's median, quartiles and spread (interquartile
/// distance over the median).
fn steadiness(w: &Workload, seed: u64, seconds: f64, traced: bool, runs: usize) -> Res<bool> {
    let exe = std::env::current_exe()?;
    let mut values: Vec<Vec<f64>> = vec![Vec::new(); declared(traced).len()];
    let mut all_ok = true;
    for i in 0..runs as u64 {
        let out = Command::new(&exe)
            .args(["--workload", w.name])
            .args(["--seed", &(seed + i).to_string()])
            .args(["--seconds", &seconds.to_string()])
            .args(["--trace", if traced { "1" } else { "0" }])
            .output()?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        let last = stdout.lines().last().unwrap_or_default();
        all_ok &= out.status.success();
        println!("run {} seed {}: {} {last}", i + 1, seed + i, out.status);
        for (name, v) in parse_metrics(last) {
            if let Some(k) = declared(traced).iter().position(|(n, _)| *n == name) {
                values[k].push(v);
            }
        }
    }
    println!(
        "{:<30} {:>4} {:>14} {:>14} {:>14} {:>8}",
        "metric", "n", "median", "q1", "q3", "spread"
    );
    for ((name, unit), v) in declared(traced).iter().zip(&values) {
        let med = stats::median(v);
        let (q1, q3) = stats::quartiles(v).unwrap_or((f64::NAN, f64::NAN));
        println!(
            "{:<30} {:>4} {med:>14.6} {q1:>14.6} {q3:>14.6} {:>7.2}% {unit}",
            name,
            v.len(),
            100.0 * (q3 - q1) / med
        );
    }
    Ok(all_ok)
}

/// Every workload at tiny scale: untraced and traced runs emit every
/// declared metric with its unit and pass their checks, and a corrupted
/// served answer is counted as a failure.
fn self_test() -> Res<bool> {
    let mut ok = true;
    let mut check = |what: String, pass: bool| {
        println!("{} {what}", if pass { "ok  " } else { "FAIL" });
        ok &= pass;
    };
    let file = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let declared_in_file =
        std::fs::read_to_string(file).map_err(|e| format!("reading {file}: {e}"))?;
    for w in WORKLOADS {
        let tiny = w.tiny();
        for traced in [false, true] {
            let r = run::run(&Options {
                workload: tiny,
                seed: w.default_seed(),
                seconds: 2.0,
                traced,
                corrupt_query: None,
            })?;
            let line = r.json(traced);
            let label = format!("{} trace {}", w.name, u8::from(traced));
            let names: Vec<String> = parse_metrics(&line).into_iter().map(|m| m.0).collect();
            let want: Vec<&str> = declared(traced).iter().map(|m| m.0).collect();
            check(format!("{label}: every metric emitted"), names == want);
            check(
                format!("{label}: checks pass"),
                r.failed == 0 && r.attempted > 0,
            );
            for (name, unit) in declared(traced) {
                let with_unit = r.get(name).is_some_and(|v| {
                    line.contains(&format!(
                        "\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
                    ))
                });
                check(format!("{label}: {name} in {unit}"), with_unit);
                check(
                    format!("BENCHMARK.json declares {name}"),
                    declared_in_file.contains(&format!("\"name\": \"{name}\"")),
                );
            }
        }
        let r = run::run(&Options {
            workload: tiny,
            seed: w.default_seed() + 1,
            seconds: 2.0,
            traced: false,
            corrupt_query: Some(3),
        })?;
        check(
            format!(
                "{}: a corrupted answer is counted ({} failed)",
                w.name, r.failed
            ),
            r.failed >= 1 && !r.correct(false),
        );
    }
    println!("self-test {}", if ok { "passed" } else { "FAILED" });
    Ok(ok)
}
