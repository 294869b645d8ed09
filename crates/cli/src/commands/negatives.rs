//! `negrules negatives` — the paper's negative association rules.

use crate::commands::{
    itemset_names, parse_backend, parse_parallelism, print_interrupted_pass_stats, print_metrics,
    print_pass_stats,
};
use crate::exit::CliError;
use crate::io::{load_db_observed, load_manifest_observed, load_taxonomy};
use crate::opts::{parse_bytes, Opts};
use crate::signal;
use negassoc::config::{Driver, GenAlgorithm};
use negassoc::obs::{JsonLinesSink, Metrics, Obs, TraceSink};
use negassoc::{Deadline, Error, MinerConfig, NegativeMiner, RunControl};
use negassoc_apriori::MinSupport;
use negassoc_txdb::fault::{FaultPlan, FaultySource, SourceFault, SourceFaultKind};
use negassoc_txdb::shard::ShardedSource;
use negassoc_txdb::{TransactionDb, TransactionSource};
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

const KNOWN: &[&str] = &[
    "data",
    "manifest",
    "taxonomy",
    "min-support",
    "min-ri",
    "driver",
    "algorithm",
    "max-size",
    "cap",
    "top",
    "out",
    "checkpoint-dir",
    "deadline",
    "stall-timeout",
    "max-memory",
    "inject-fail-pass",
    "threads",
    "backend",
    "trace",
    "salvage!",
    "no-compress!",
    "audit!",
    "pass-stats!",
    "metrics!",
];

/// The run's observer plus the sinks its end-of-run report reads.
struct Observer {
    obs: Obs,
    /// The `--trace` path and its JSON-lines sink.
    trace: Option<(String, Arc<JsonLinesSink>)>,
    /// The `--metrics` registry (attached only when `metrics` is set).
    metrics: Arc<Metrics>,
}

/// Build the observer: a JSON-lines trace file (`trace`) and a metrics
/// registry (`metrics`). Both are off by default — the no-op observer
/// costs nothing on the hot path (see DESIGN.md §11). `--pass-stats`
/// needs neither: it reads the observer's pass ledger.
fn observer(trace: Option<&str>, metrics: bool) -> Result<Observer, CliError> {
    let mut obs = Obs::disabled();
    let trace = match trace {
        Some(path) => {
            let sink = Arc::new(
                JsonLinesSink::create(path)
                    .map_err(|e| CliError::Failure(format!("{path}: {e}")))?,
            );
            obs = obs.with_sink(sink.clone());
            Some((path.to_string(), sink))
        }
        None => None,
    };
    let registry = Arc::new(Metrics::new());
    if metrics {
        obs = obs.with_metrics(registry.clone());
    }
    Ok(Observer {
        obs,
        trace,
        metrics: registry,
    })
}

/// Parse a non-negative, finite seconds value (`--deadline`,
/// `--stall-timeout`) into a [`Duration`]; anything else is a usage error.
fn parse_seconds(opts: &Opts, key: &str) -> Result<Option<Duration>, CliError> {
    let Some(v) = opts.get(key) else {
        return Ok(None);
    };
    match v.parse::<f64>() {
        Ok(secs) if secs.is_finite() && secs >= 0.0 => Ok(Some(Duration::from_secs_f64(secs))),
        _ => Err(CliError::Usage(format!(
            "invalid --{key} {v:?} (non-negative seconds)"
        ))),
    }
}

pub(crate) fn run(args: Vec<String>) -> Result<(), CliError> {
    let opts = Opts::parse(args, KNOWN)?;
    let min_support: f64 = opts.parse_or("min-support", 0.01)?;
    let min_ri: f64 = opts.parse_or("min-ri", 0.5)?;
    let top: usize = opts.parse_or("top", 20)?;

    let driver = match opts.get("driver") {
        None | Some("improved") => Driver::Improved,
        Some("naive") => Driver::Naive,
        Some(other) => {
            return Err(CliError::Usage(format!(
                "unknown driver {other:?} (naive|improved)"
            )))
        }
    };
    let algorithm = match opts.get("algorithm") {
        None | Some("cumulate") => GenAlgorithm::Cumulate,
        Some("basic") => GenAlgorithm::Basic,
        Some("estmerge") => GenAlgorithm::EstMerge(Default::default()),
        Some(other) => {
            return Err(CliError::Usage(format!(
                "unknown algorithm {other:?} (basic|cumulate|estmerge)"
            )))
        }
    };
    let max_negative_size = match opts.get("max-size") {
        None => None,
        Some(v) => Some(
            v.parse()
                .map_err(|_| CliError::Usage(format!("invalid --max-size {v:?}")))?,
        ),
    };
    let max_candidates_per_pass = match opts.get("cap") {
        None => None,
        Some(v) => Some(
            v.parse()
                .map_err(|_| CliError::Usage(format!("invalid --cap {v:?}")))?,
        ),
    };
    let memory_budget = match opts.get("max-memory") {
        None => None,
        Some(v) => Some(parse_bytes(v).ok_or_else(|| {
            CliError::Usage(format!(
                "invalid --max-memory {v:?} (bytes, or K/M/G suffix)"
            ))
        })?),
    };
    let inject_fail_pass: Option<u64> = match opts.get("inject-fail-pass") {
        None => None,
        Some(v) => Some(
            v.parse()
                .map_err(|_| CliError::Usage(format!("invalid --inject-fail-pass {v:?}")))?,
        ),
    };
    let deadline = parse_seconds(&opts, "deadline")?;
    let stall_timeout = parse_seconds(&opts, "stall-timeout")?;
    let parallelism = parse_parallelism(&opts).map_err(CliError::Usage)?;
    let backend = parse_backend(&opts).map_err(CliError::Usage)?;

    let Observer {
        obs,
        trace: trace_sink,
        metrics,
    } = observer(opts.get("trace"), opts.flag("metrics"))?;

    // Options validated; only now touch the filesystem.
    let db = match (opts.get("data"), opts.get("manifest")) {
        (Some(_), Some(_)) => {
            return Err(CliError::Usage(
                "--data and --manifest are mutually exclusive".into(),
            ))
        }
        (None, None) => {
            return Err(CliError::Usage(
                "missing required option --data (or --manifest for a sharded database)".into(),
            ))
        }
        (Some(path), None) => DbSource::Whole(load_db_observed(path, opts.flag("salvage"), &obs)?),
        (None, Some(path)) => {
            // Strict unless --salvage; a degraded open salvages what it
            // can and quarantines the rest, reported here exactly like a
            // single-file --salvage load.
            let sharded = load_manifest_observed(path, opts.flag("salvage"), &obs)?;
            let report = sharded.salvage_report();
            if !report.is_clean() {
                eprintln!("{path}: {report}");
            }
            if !sharded.quarantine().is_empty() {
                eprintln!("{path}: {}", sharded.quarantine());
            }
            DbSource::Sharded(sharded)
        }
    };
    let tax = load_taxonomy(opts.require("taxonomy")?)?;

    let config = MinerConfig {
        min_support: MinSupport::Fraction(min_support),
        min_ri,
        driver,
        algorithm,
        max_negative_size,
        max_candidates_per_pass,
        memory_budget,
        compress_taxonomy: !opts.flag("no-compress"),
        parallelism,
        backend,
        ..MinerConfig::default()
    };
    let miner = NegativeMiner::new(config);

    // One control plane for the whole run: Ctrl-C, --deadline and
    // --stall-timeout all trip the same token, and the run winds down at
    // the next pass/block boundary through the checkpoint-aware exit path.
    let mut ctrl = RunControl::new();
    if let Some(window) = deadline {
        ctrl = ctrl.with_deadline(Deadline::after(window));
    }
    if let Some(window) = stall_timeout {
        ctrl = ctrl.with_stall_window(window);
    }
    if let Some(flag) = signal::interrupt_flag() {
        ctrl = ctrl.with_interrupt_flag(flag);
    }
    ctrl = ctrl.with_observer(obs.clone());

    let checkpoint_dir = opts.get("checkpoint-dir").map(Path::new);
    let mine = |source: &dyn TransactionSource| {
        miner.mine_with_controls(source, &tax, None, checkpoint_dir, &ctrl)
    };
    let outcome = match inject_fail_pass {
        // Deterministic fault injection for exercising checkpoint/resume
        // end to end (used by the CI smoke stage): the named pass fails
        // with a permanent error at its first transaction.
        Some(pass) => {
            let plan = FaultPlan::new(vec![SourceFault {
                pass,
                at_transaction: 0,
                kind: SourceFaultKind::PermanentError,
            }]);
            mine(&FaultySource::new(db.as_dyn(), plan).with_obs(obs.clone()))
        }
        None => mine(db.as_dyn()),
    }
    .map_err(|e| match e {
        Error::Cancelled { .. } => {
            // An interrupted run still accounts for itself — but only for
            // work that finished. Completed passes come from the pass
            // ledger (the in-flight pass never got a row) and the table is
            // explicitly flagged as partial.
            if opts.flag("pass-stats") {
                print_interrupted_pass_stats(&obs.passes());
            }
            if opts.flag("metrics") {
                print_metrics(&metrics);
            }
            let mut msg = e.to_string();
            if let Error::Cancelled {
                checkpoint: Some(_),
                ..
            } = &e
            {
                msg.push_str("; re-run the same command to resume");
            }
            CliError::Interrupted(msg)
        }
        other => CliError::Failure(other.to_string()),
    })?;
    if opts.flag("audit") {
        // Re-derive every reported support and RI from a raw scan;
        // refuses to print uncertified numbers.
        let audit = negassoc::audit::certify(db.as_dyn(), &tax, &outcome, min_ri)
            .map_err(|e| e.to_string())?;
        println!("{audit}");
    }

    let rep = &outcome.report;
    println!(
        "mined {} transactions in {:?} ({} passes)",
        db.transactions(),
        rep.mining_time + rep.rule_time,
        rep.passes
    );
    if let Some(c) = &rep.completeness {
        // A degraded run still exits 0: the rules are exact over every
        // delivered transaction, and the gap is stated rather than fatal.
        println!("completeness: {c}");
    }
    println!(
        "large itemsets: {}   negative candidates: {} (of {} generated)   negative itemsets: {}",
        rep.large_itemsets, rep.candidates.unique, rep.candidates.generated, rep.negative_itemsets
    );
    if opts.flag("pass-stats") {
        print_pass_stats(&rep.pass_stats);
    }
    if opts.flag("metrics") {
        print_metrics(&metrics);
    }
    if let Some((path, sink)) = &trace_sink {
        sink.flush();
        if sink.error() > 0 {
            eprintln!(
                "{path}: {} trace event(s) were dropped by write errors",
                sink.error()
            );
        }
        println!("wrote trace events to {path}");
    }

    let mut rules = outcome.rules;
    // Itemset tiebreaks make the listing (and any CSV diffed by the CI
    // fault-injection smoke test) deterministic across hash-order changes.
    rules.sort_by(|a, b| {
        b.ri.total_cmp(&a.ri)
            .then_with(|| a.antecedent.cmp(&b.antecedent))
            .then_with(|| a.consequent.cmp(&b.consequent))
    });
    if let Some(out_path) = opts.get("out") {
        write_rules_csv(out_path, &rules, &tax)?;
        println!("wrote {} rules to {out_path}", rules.len());
    }
    println!("\n{} negative rules at RI >= {min_ri}:", rules.len());
    for r in rules.iter().take(top) {
        println!(
            "  {} =/=> {}  (RI {:.3}, expected {:.1}, actual {})",
            itemset_names(&tax, &r.antecedent),
            itemset_names(&tax, &r.consequent),
            r.ri,
            r.expected,
            r.actual
        );
    }
    Ok(())
}

/// The mining input: one in-memory database (`--data`) or a sharded
/// on-disk one (`--manifest`).
enum DbSource {
    /// A single file, fully loaded.
    Whole(TransactionDb),
    /// A manifest of shards, streamed one shard at a time.
    Sharded(ShardedSource),
}

impl DbSource {
    fn as_dyn(&self) -> &dyn TransactionSource {
        match self {
            DbSource::Whole(db) => db,
            DbSource::Sharded(s) => s,
        }
    }

    /// Transactions the source will deliver per pass.
    fn transactions(&self) -> u64 {
        match self {
            DbSource::Whole(db) => db.len() as u64,
            DbSource::Sharded(s) => s.len_hint().unwrap_or(0),
        }
    }
}

/// Write rules as CSV: `antecedent,consequent,ri,expected,actual` with
/// multi-item sides joined by `|`. Item names are quoted when they contain
/// a comma or quote.
fn write_rules_csv(
    path: &str,
    rules: &[negassoc::NegativeRule],
    tax: &negassoc_taxonomy::Taxonomy,
) -> Result<(), String> {
    use std::io::Write;
    let file = std::fs::File::create(path).map_err(|e| format!("{path}: {e}"))?;
    let mut w = std::io::BufWriter::new(file);
    let side = |set: &negassoc_apriori::Itemset| -> String {
        let joined = set
            .items()
            .iter()
            .map(|&i| tax.name(i).to_owned())
            .collect::<Vec<_>>()
            .join("|");
        if joined.contains(',') || joined.contains('"') {
            format!("\"{}\"", joined.replace('"', "\"\""))
        } else {
            joined
        }
    };
    (|| -> std::io::Result<()> {
        writeln!(w, "antecedent,consequent,ri,expected,actual")?;
        for r in rules {
            writeln!(
                w,
                "{},{},{:.6},{:.3},{}",
                side(&r.antecedent),
                side(&r.consequent),
                r.ri,
                r.expected,
                r.actual
            )?;
        }
        w.flush()
    })()
    .map_err(|e| format!("{path}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use negassoc::obs::Event;
    use negassoc_taxonomy::TaxonomyBuilder;
    use negassoc_txdb::TransactionDbBuilder;

    #[test]
    fn trace_pass_ends_equal_the_ledger_rows() {
        // `--pass-stats` reads the observer's ledger and `--trace` writes
        // its events: both must show the same passes, numbered alike.
        let path =
            std::env::temp_dir().join(format!("negrules-observer-{}.jsonl", std::process::id()));
        let observer = observer(path.to_str(), false).unwrap();
        let mut tb = TaxonomyBuilder::new();
        let drinks = tb.add_root("drinks");
        let coke = tb.add_child(drinks, "coke").unwrap();
        let pepsi = tb.add_child(drinks, "pepsi").unwrap();
        let chips = tb.add_root("chips");
        let tax = tb.build();
        let mut db = TransactionDbBuilder::new();
        for _ in 0..30 {
            db.add([coke, chips]);
        }
        for _ in 0..20 {
            db.add([pepsi]);
        }
        let config = MinerConfig {
            min_support: MinSupport::Fraction(0.2),
            min_ri: 0.25,
            max_candidates_per_pass: Some(1),
            ..MinerConfig::default()
        };
        let ctrl = RunControl::new().with_observer(observer.obs.clone());
        let out = NegativeMiner::new(config)
            .mine_with_controls(&db.build(), &tax, None, None, &ctrl)
            .unwrap();
        let rows = observer.obs.passes();
        assert_eq!(rows, out.report.pass_stats);
        assert!(rows.iter().any(|r| r.label == "negative"), "{rows:?}");

        let trace = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let ends: Vec<&str> = trace
            .lines()
            .filter(|l| l.contains("\"event\":\"pass_end\""))
            .collect();
        assert_eq!(ends.len(), rows.len(), "{trace}");
        for (line, row) in ends.iter().zip(&rows) {
            // Past its `t_us` stamp, each line is the row's own `pass_end`.
            let event = Event::PassEnd { stats: row.clone() }.to_json_line(None);
            assert!(line.ends_with(&event[1..]), "{line} vs {event}");
        }
    }
}
