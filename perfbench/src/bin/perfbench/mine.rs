//! Mine cycles: NADB file on disk → `binfmt::load` → `NegativeMiner` →
//! `MiningOutcome::rule_export` → `export_snapshot` → NARS file on disk.

use crate::trace::{SpanId, StampedSink, Tracer};
use crate::workload::{Mining, MIN_CONF, MIN_RI};
use crate::Res;
use negassoc::config::Driver;
use negassoc::obs::{metric, Event, Metrics, Obs};
use negassoc::{GenAlgorithm, MinerConfig, MiningOutcome, NegativeMiner, Parallelism, RunControl};
use negassoc_apriori::count::CountingBackend;
use negassoc_apriori::MinSupport;
use negassoc_serve::export_snapshot;
use negassoc_taxonomy::Taxonomy;
use negassoc_txdb::binfmt;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The one mining configuration the benchmark measures: the bitmap
/// backend, the improved driver, Cumulate, one thread.
pub fn config(w: &Mining) -> MinerConfig {
    MinerConfig {
        min_support: MinSupport::Fraction(w.min_support),
        min_ri: MIN_RI,
        algorithm: GenAlgorithm::Cumulate,
        driver: Driver::Improved,
        backend: CountingBackend::TidBitmap,
        parallelism: Parallelism::Sequential,
        ..MinerConfig::default()
    }
}

/// One untraced cycle writing snapshot version 1 to `nars`. Returns the
/// cycle's wall time and the outcome; everything else the cycle built is
/// dropped after the clock stops.
pub fn cycle(
    w: &Mining,
    tax: &Taxonomy,
    nadb: &Path,
    nars: &Path,
) -> Res<(Duration, MiningOutcome)> {
    let start = Instant::now();
    let db = binfmt::load(nadb)?;
    let outcome = NegativeMiner::new(config(w)).mine(&db, tax)?;
    let export = outcome.rule_export(tax, MIN_CONF[0], MIN_RI);
    export_snapshot(nars, &export, tax, 1)?;
    let wall = start.elapsed();
    drop((db, export));
    Ok((wall, outcome))
}

/// Layer times (seconds) and work counters of one traced cycle.
#[derive(Clone, Debug, Default)]
pub struct CycleLayers {
    pub cycle_s: f64,
    pub decode_s: f64,
    pub positive_s: f64,
    pub l2_s: f64,
    /// A residual: the negative phase's time minus its counting pass's
    /// wall. It holds candidate generation and every other untimed piece
    /// of the phase (the ancestor table, the pass's own set-up), so no
    /// negative-phase time can show as unaccounted.
    pub candidates_s: f64,
    pub negative_pass_s: f64,
    pub rules_s: f64,
    pub export_s: f64,
    pub snapshot_write_s: f64,
    pub positive_passes: u64,
    pub positive_candidates: u64,
    pub large_itemsets: u64,
    pub candidates_generated: u64,
    pub candidates_unique: u64,
    pub negatives: u64,
    pub rules: u64,
    pub export_rules: u64,
    pub words_anded: u64,
    pub words_built: u64,
    pub nadb_bytes: u64,
    pub snapshot_bytes: u64,
}

impl CycleLayers {
    /// Time no measured layer covers.
    pub fn unaccounted_s(&self) -> f64 {
        self.cycle_s
            - (self.decode_s
                + self.positive_s
                + self.candidates_s
                + self.negative_pass_s
                + self.rules_s
                + self.export_s
                + self.snapshot_write_s)
    }
}

/// One traced cycle: the same calls as [`cycle`], each inside a span, with
/// the miner run under a [`RunControl`] whose observer feeds pass events
/// and the metrics registry back to the benchmark.
pub fn traced_cycle(
    w: &Mining,
    tax: &Taxonomy,
    nadb: &Path,
    nars: &Path,
    tracer: &mut Tracer,
    request: u64,
) -> Res<CycleLayers> {
    let sink = Arc::new(StampedSink::default());
    let registry = Arc::new(Metrics::new());
    let ctrl = RunControl::new().with_observer(
        Obs::disabled()
            .with_sink(sink.clone())
            .with_metrics(registry.clone()),
    );
    let miner = NegativeMiner::new(config(w));

    let start = Instant::now();
    let (db, decode) = tracer.time("txdb.decode", None, request, || binfmt::load(nadb));
    let db = db?;
    let (outcome, mine) = tracer.time("core.mine", None, request, || {
        miner.mine_with_controls(&db, tax, None, None, &ctrl)
    });
    let outcome = outcome?;
    let (export, export_span) = tracer.time("core.export", None, request, || {
        outcome.rule_export(tax, MIN_CONF[0], MIN_RI)
    });
    let (written, write_span) = tracer.time("serve.snapshot_write", None, request, || {
        export_snapshot(nars, &export, tax, 1)
    });
    written?;
    let end = Instant::now();
    let root = tracer.push("cycle", start, end, None, request);
    for id in [decode, mine, export_span, write_span] {
        tracer.reparent(id, root);
    }
    pass_spans(tracer, &sink.drain(), mine, request);

    let report = &outcome.report;
    let wall_of = |label: &str| -> f64 {
        report
            .pass_stats
            .iter()
            .filter(|p| p.label == label)
            .map(|p| p.wall.as_secs_f64())
            .sum()
    };
    let positive: Vec<_> = report
        .pass_stats
        .iter()
        .filter(|p| p.label != "negative")
        .collect();
    let negative_pass_s = wall_of("negative");
    let counter = |name: &str| {
        registry
            .snapshot()
            .into_iter()
            .find(|(n, _, _)| n == name)
            .map_or(0, |(_, _, v)| v)
    };
    Ok(CycleLayers {
        cycle_s: (end - start).as_secs_f64(),
        decode_s: tracer.duration(decode).as_secs_f64(),
        positive_s: report.positive_time.as_secs_f64(),
        l2_s: wall_of("L2"),
        candidates_s: report.negative_time.as_secs_f64() - negative_pass_s,
        negative_pass_s,
        rules_s: report.rule_time.as_secs_f64(),
        export_s: tracer.duration(export_span).as_secs_f64(),
        snapshot_write_s: tracer.duration(write_span).as_secs_f64(),
        positive_passes: positive.len() as u64,
        positive_candidates: positive.iter().map(|p| p.candidates as u64).sum(),
        large_itemsets: report.large_itemsets as u64,
        candidates_generated: report.candidates.generated,
        candidates_unique: report.candidates.unique,
        negatives: report.negative_itemsets as u64,
        rules: report.rules as u64,
        export_rules: (export.positive.len() + export.negative.len()) as u64,
        words_anded: counter(metric::BITMAP_WORDS_ANDED),
        words_built: counter(metric::BITMAP_WORDS_BUILT),
        nadb_bytes: std::fs::metadata(nadb)?.len(),
        snapshot_bytes: std::fs::metadata(nars)?.len(),
    })
}

/// Turn the miner's pass-end events into child spans of the mine span:
/// each ends when its event arrived and lasted the pass's own wall time.
fn pass_spans(tracer: &mut Tracer, events: &[(Instant, Event)], mine: SpanId, request: u64) {
    for (at, event) in events {
        if let Event::PassEnd { stats } = event {
            let start = at.checked_sub(stats.wall).unwrap_or(*at);
            tracer.push(
                format!("pass.{}", stats.label),
                start,
                *at,
                Some(mine),
                request,
            );
        }
    }
}
