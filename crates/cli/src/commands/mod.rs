//! The `negrules` subcommands.

pub(crate) mod export_snapshot;
pub(crate) mod generate;
pub(crate) mod match_cmd;
pub(crate) mod mine;
pub(crate) mod negatives;
pub(crate) mod query;
pub(crate) mod serve;
pub(crate) mod stats;

use crate::opts::Opts;
use negassoc_apriori::count::CountingBackend;
use negassoc_apriori::parallel::{Parallelism, PassStats};
use negassoc_apriori::Itemset;
use negassoc_taxonomy::Taxonomy;
use negassoc_txdb::obs::{MetricKind, Metrics};

/// Render an itemset through the taxonomy's names when possible, falling
/// back to raw ids for items outside the taxonomy.
pub(crate) fn itemset_names(tax: &Taxonomy, set: &Itemset) -> String {
    set.items()
        .iter()
        .map(|&i| {
            if i.index() < tax.len() {
                tax.name(i).to_owned()
            } else {
                format!("#{i}")
            }
        })
        .collect::<Vec<_>>()
        .join(" + ")
}

/// Resolve `--threads N|auto` into a [`Parallelism`] policy. Absent means
/// sequential; the counts are identical for every choice, only wall time
/// differs.
pub(crate) fn parse_parallelism(opts: &Opts) -> Result<Parallelism, String> {
    match opts.get("threads") {
        None => Ok(Parallelism::Sequential),
        Some("auto") => Ok(Parallelism::Auto),
        Some(v) => match v.parse::<usize>() {
            Ok(n) if n > 0 => Ok(Parallelism::Threads(n)),
            _ => Err(format!(
                "invalid --threads {v:?} (a positive count, or `auto`)"
            )),
        },
    }
}

/// Resolve `--backend bitmap|flat` into a [`CountingBackend`]. Absent
/// means the bitmap default; both backends produce the same counts, only
/// wall time and memory differ.
pub(crate) fn parse_backend(opts: &Opts) -> Result<CountingBackend, String> {
    match opts.get("backend") {
        None | Some("bitmap") => Ok(CountingBackend::TidBitmap),
        Some("flat") => Ok(CountingBackend::SubsetHashMap),
        Some("hashtree") => Err(
            "--backend hashtree was removed: the hash tree was the slowest \
             backend on every measured input; use `bitmap` (the default) or `flat`"
                .to_string(),
        ),
        Some(v) => Err(format!(
            "invalid --backend {v:?} (expected `bitmap` or `flat`)"
        )),
    }
}

/// Print the per-pass counting telemetry table (`--pass-stats`).
pub(crate) fn print_pass_stats(stats: &[PassStats]) {
    if stats.is_empty() {
        println!("no pass telemetry: the run made no database pass");
        return;
    }
    println!("pass  label     candidates  transactions  threads      wall");
    for s in stats {
        println!(
            "{:>4}  {:<8}  {:>10}  {:>12}  {:>7}  {:>8.3}s",
            s.pass,
            s.label,
            s.candidates,
            s.transactions,
            s.threads,
            s.wall.as_secs_f64()
        );
    }
}

/// Print pass telemetry for an *interrupted* run from its pass ledger:
/// only completed passes have a row (the in-flight pass never got one),
/// and the table is flagged as partial so its numbers are never mistaken
/// for a complete run's.
pub(crate) fn print_interrupted_pass_stats(completed: &[PassStats]) {
    if completed.is_empty() {
        println!("run interrupted before any pass completed; no pass telemetry");
        return;
    }
    println!(
        "run interrupted: {} completed pass(es); the in-flight pass is excluded",
        completed.len()
    );
    print_pass_stats(completed);
}

/// Print the metrics registry snapshot (`--metrics`), sorted by name.
pub(crate) fn print_metrics(metrics: &Metrics) {
    let snap = metrics.snapshot();
    if snap.is_empty() {
        println!("no metrics recorded");
        return;
    }
    println!("metric                     kind     value");
    for (name, kind, value) in snap {
        let kind = match kind {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
        };
        println!("{name:<25}  {kind:<7}  {value:>8}");
    }
}
