//! Experiment runners shared by the Criterion benches and the `paper`
//! binary. Each public function regenerates one table or figure of the
//! paper's evaluation (see DESIGN.md §4 for the experiment index).
//!
//! Absolute times will differ from the paper's SPARCstation 5; the *shape*
//! — who wins, how curves move with MinSup and fan-out — is the
//! reproduction target, so every row also reports the machine-independent
//! metrics (passes, candidate and itemset counts).

use negassoc::candidates::{CandidateGenerator, CandidateSet};
use negassoc::config::Driver;
use negassoc::obs::{json_num, Event, NoopSink, Obs, RingBufferSink};
use negassoc::{Deadline, MinerConfig, NegativeMiner, RunControl};
use negassoc_apriori::count::CountingBackend;
use negassoc_apriori::parallel::{Parallelism, PassStats};
use negassoc_apriori::MinSupport;
use negassoc_datagen::{generate, presets, Dataset, GenParams};
use std::sync::Arc;
use std::time::Duration;

/// Ring capacity for per-run trace recording: generously above the event
/// count of any bench-sized run (a full mine emits a few events per pass).
const EVENT_RING_CAPACITY: usize = 4096;

/// The MinSup sweep of Figures 5 and 6 (percent).
pub const FIG56_SUPPORTS_PCT: &[f64] = &[2.0, 1.5, 1.0, 0.75, 0.5];

/// The fixed MinRI of the whole evaluation ("The minimum RI was set to 0.5
/// in all cases").
pub const PAPER_MIN_RI: f64 = 0.5;

/// The MinSup used for Figure 7 and the §3.2 itemset-count comparison.
pub const FIG7_SUPPORT_PCT: f64 = 1.5;

/// Materialize the "Short" dataset, optionally scaled down to
/// `transactions` (full Table 4 size when `None`).
pub fn short_dataset(transactions: Option<usize>) -> Dataset {
    build(presets::short(), transactions)
}

/// Materialize the "Tall" dataset.
pub fn tall_dataset(transactions: Option<usize>) -> Dataset {
    build(presets::tall(), transactions)
}

fn build(preset: GenParams, transactions: Option<usize>) -> Dataset {
    let params = match transactions {
        None => preset,
        Some(n) => presets::scaled(preset, n),
    };
    generate(&params)
}

/// One row of Figure 5 / Figure 6: execution time of the naive and
/// improved algorithms at one minimum support.
#[derive(Clone, Debug)]
pub struct Fig56Row {
    /// Minimum support, percent of the database.
    pub min_support_pct: f64,
    /// Naive driver wall time.
    pub naive: Duration,
    /// Improved driver wall time.
    pub improved: Duration,
    /// Database passes of each driver.
    pub naive_passes: u64,
    /// Database passes of the improved driver.
    pub improved_passes: u64,
    /// Generalized large itemsets at this support.
    pub large_itemsets: usize,
    /// Distinct negative candidates.
    pub candidates: u64,
    /// Confirmed negative itemsets.
    pub negatives: usize,
    /// Emitted rules.
    pub rules: usize,
}

fn miner_config(min_support_pct: f64, driver: Driver) -> MinerConfig {
    MinerConfig {
        min_support: MinSupport::Fraction(min_support_pct / 100.0),
        min_ri: PAPER_MIN_RI,
        driver,
        ..MinerConfig::default()
    }
}

/// Run one Figure 5/6 row over any transaction source.
///
/// Like the paper, the timings cover negative-itemset and rule generation
/// but *not* the shared positive mining ("we have not included the time
/// taken to generate the generalized large itemsets"); the drivers report
/// their phase timings directly.
pub fn fig56_row_source<S: negassoc_txdb::TransactionSource + ?Sized>(
    source: &S,
    taxonomy: &negassoc_taxonomy::Taxonomy,
    min_support_pct: f64,
) -> Fig56Row {
    let run = |driver: Driver| {
        let out = NegativeMiner::new(miner_config(min_support_pct, driver))
            .mine(source, taxonomy)
            .expect("mining");
        let negative_phase = out.report.negative_time + out.report.rule_time;
        (negative_phase, out)
    };
    let (naive_time, naive_out) = run(Driver::Naive);
    let (improved_time, improved_out) = run(Driver::Improved);

    Fig56Row {
        min_support_pct,
        naive: naive_time,
        improved: improved_time,
        naive_passes: naive_out.report.passes,
        improved_passes: improved_out.report.passes,
        large_itemsets: improved_out.large.total(),
        candidates: improved_out.report.candidates.unique,
        negatives: improved_out.negatives.len(),
        rules: improved_out.rules.len(),
    }
}

/// In-memory convenience wrapper around [`fig56_row_source`].
pub fn fig56_row(ds: &Dataset, min_support_pct: f64) -> Fig56Row {
    fig56_row_source(&ds.db, &ds.taxonomy, min_support_pct)
}

/// Run the full Figure 5/6 sweep in memory.
pub fn fig56_sweep(ds: &Dataset, supports_pct: &[f64]) -> Vec<Fig56Row> {
    supports_pct.iter().map(|&s| fig56_row(ds, s)).collect()
}

/// A dataset spilled to disk in the binary format, mined by streaming —
/// the paper's setting (its database did not fit the SPARCstation's 32 MB
/// of memory, so every pass re-read the disk). The temp file is removed on
/// drop.
pub struct DiskDataset {
    /// The taxonomy (kept in memory, as in the paper).
    pub taxonomy: negassoc_taxonomy::Taxonomy,
    /// Streaming source over the spilled file.
    pub source: negassoc_txdb::binfmt::FileSource,
    path: std::path::PathBuf,
}

impl DiskDataset {
    /// Spill `ds` to a temp file and open it for streaming.
    pub fn spill(ds: &Dataset) -> std::io::Result<Self> {
        let path = std::env::temp_dir().join(format!(
            "negassoc-bench-{}-{}-{}.nadb",
            std::process::id(),
            ds.params.fanout,
            ds.db.len()
        ));
        negassoc_txdb::binfmt::save(&ds.db, &path)?;
        let source = negassoc_txdb::binfmt::FileSource::open(&path)?;
        Ok(Self {
            taxonomy: ds.taxonomy.clone(),
            source,
            path,
        })
    }

    /// Run the Figure 5/6 sweep streaming from disk.
    pub fn fig56_sweep(&self, supports_pct: &[f64]) -> Vec<Fig56Row> {
        supports_pct
            .iter()
            .map(|&s| fig56_row_source(&self.source, &self.taxonomy, s))
            .collect()
    }
}

impl Drop for DiskDataset {
    fn drop(&mut self) {
        std::fs::remove_file(&self.path).ok();
    }
}

/// Run the Figure 5/6 sweep under the 1995-disk I/O simulation
/// (`negassoc_txdb::throttle`): each database pass carries the I/O cost the
/// paper's hardware paid, which is what separates the `2n`-pass naive
/// driver from the `n + 1`-pass improved one. See DESIGN.md
/// "Substitutions".
pub fn fig56_sweep_throttled(ds: &Dataset, supports_pct: &[f64]) -> Vec<Fig56Row> {
    let throttled = negassoc_txdb::throttle::ThrottledSource::new(
        &ds.db,
        negassoc_txdb::throttle::DISK_1995_BYTES_PER_SEC,
    )
    .expect("in-memory pass cannot fail");
    supports_pct
        .iter()
        .map(|&s| fig56_row_source(&throttled, &ds.taxonomy, s))
        .collect()
}

/// One series of Figure 7: per itemset size, the number of negative
/// candidates normalized by the number of large itemsets of that size.
#[derive(Clone, Debug)]
pub struct Fig7Series {
    /// The taxonomy fan-out of the dataset (9 = Short, 3 = Tall).
    pub fanout: f64,
    /// `(itemset size, candidates, large itemsets, candidates-per-large)`.
    pub rows: Vec<(usize, u64, usize, f64)>,
}

/// Compute one Figure 7 series at `min_support_pct`.
pub fn fig7_series(ds: &Dataset, min_support_pct: f64) -> Fig7Series {
    let large = negassoc_apriori::cumulate::cumulate(
        &ds.db,
        &ds.taxonomy,
        MinSupport::Fraction(min_support_pct / 100.0),
        CountingBackend::default(),
        Parallelism::Sequential,
        None,
        &Obs::disabled(),
    )
    .expect("positive mining");
    let generator = CandidateGenerator::new(&ds.taxonomy, &large, PAPER_MIN_RI);
    let mut rows = Vec::new();
    for k in 2..=large.max_level() {
        let mut set = CandidateSet::new();
        generator
            .extend_from_level(k, &mut set)
            .expect("candidate generation");
        let (cands, _) = set.into_candidates();
        let large_k = large.level_len(k);
        if large_k == 0 {
            continue;
        }
        let normalized = cands.len() as f64 / large_k as f64;
        rows.push((k, cands.len() as u64, large_k, normalized));
    }
    Fig7Series {
        fanout: ds.params.fanout,
        rows,
    }
}

/// §3.2 comparison: generalized large-itemset counts of the two datasets at
/// 1.5% support (paper: 15,476 for "Tall" vs 1,499 for "Short").
pub fn itemset_counts(short: &Dataset, tall: &Dataset, min_support_pct: f64) -> (usize, usize) {
    let count = |ds: &Dataset| {
        negassoc_apriori::cumulate::cumulate(
            &ds.db,
            &ds.taxonomy,
            MinSupport::Fraction(min_support_pct / 100.0),
            CountingBackend::default(),
            Parallelism::Sequential,
            None,
            &Obs::disabled(),
        )
        .expect("positive mining")
        .total()
    };
    (count(short), count(tall))
}

/// Render a duration in seconds with millisecond resolution. A nonzero
/// duration below the resolution renders as `< 0.001` instead of a
/// misleading `0.000`: these strings are for human tables only, and every
/// derived ratio in this crate is computed from the `Duration`s
/// themselves, never parsed back from the rendering.
pub fn secs(d: Duration) -> String {
    if !d.is_zero() && d < Duration::from_millis(1) {
        "< 0.001".to_owned()
    } else {
        format!("{:.3}", d.as_secs_f64())
    }
}

/// Median of a sample list (0.0 when empty).
fn median(samples: &[f64]) -> f64 {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// Extract completed-pass telemetry from recorded trace events,
/// renumbered `1..=n`: sub-phases restart their local pass numbering, and
/// the chronological `pass_end` order *is* the run order, so the result
/// matches the renumbered `pass_stats` of the run's own report exactly.
pub fn pass_rows_from_events(events: &[Event]) -> Vec<PassStats> {
    let mut rows: Vec<PassStats> = events
        .iter()
        .filter_map(|e| match e {
            Event::PassEnd { stats } => Some(stats.clone()),
            _ => None,
        })
        .collect();
    for (i, r) in rows.iter_mut().enumerate() {
        r.pass = i as u64 + 1;
    }
    rows
}

/// Collect the wall-second samples named `which` from recorded
/// [`Event::Sample`]s, in repetition order.
fn samples_from_events(events: &[Event], which: &str) -> Vec<f64> {
    let mut samples: Vec<(usize, f64)> = events
        .iter()
        .filter_map(|e| match e {
            Event::Sample { name, index, wall } if name == which => {
                Some((*index, wall.as_secs_f64()))
            }
            _ => None,
        })
        .collect();
    samples.sort_by_key(|&(i, _)| i);
    samples.into_iter().map(|(_, w)| w).collect()
}

/// The counting backends the benchmark compares, with their CLI names
/// (`--backend flat|bitmap`).
pub const BENCH_BACKENDS: &[(&str, CountingBackend)] = &[
    ("flat", CountingBackend::SubsetHashMap),
    ("bitmap", CountingBackend::TidBitmap),
];

/// One run of the counting benchmark: one backend at one thread count,
/// reporting every counting pass's wall time.
#[derive(Clone, Debug)]
pub struct BackendRun {
    /// CLI name of the counting backend (`flat`, `bitmap`).
    pub backend: &'static str,
    /// Worker threads (1 = sequential).
    pub threads: usize,
    /// Per-pass telemetry, renumbered `1..=n`.
    pub rows: Vec<PassStats>,
}

impl BackendRun {
    /// Total counting wall time of the run.
    pub fn total_wall(&self) -> Duration {
        self.rows.iter().map(|r| r.wall).sum()
    }

    /// Wall seconds of the L2 pass — the dominant pass of the whole mine
    /// (the largest candidate set) and the one the bitmap backend's
    /// acceptance bar is stated against.
    pub fn l2_wall_s(&self) -> Option<f64> {
        self.rows
            .iter()
            .find(|r| r.label == "L2")
            .map(|r| r.wall.as_secs_f64())
    }
}

/// The counting benchmark at one dataset scale: every backend crossed
/// with every thread count, plus the sharded bounded-memory rows.
#[derive(Clone, Debug)]
pub struct CountingScale {
    /// Transactions in the generated dataset.
    pub transactions: usize,
    /// One entry per backend × thread count, in run order.
    pub runs: Vec<BackendRun>,
    /// Sharded-counting rows (one per shard count), empty unless
    /// [`sharded_counting_bench`] was run for this scale.
    pub sharded: Vec<ShardedRow>,
}

impl CountingScale {
    /// The run for one backend at one thread count, if present.
    pub fn run(&self, backend: &str, threads: usize) -> Option<&BackendRun> {
        self.runs
            .iter()
            .find(|r| r.backend == backend && r.threads == threads)
    }

    /// Sequential wall time divided by the `threads`-worker wall time for
    /// one backend (> 1 means the workers won). `None` when either run is
    /// missing.
    pub fn speedup(&self, backend: &str, threads: usize) -> Option<f64> {
        let seq = self.run(backend, 1)?.total_wall().as_secs_f64();
        let par = self.run(backend, threads)?.total_wall().as_secs_f64();
        (seq > 0.0 && par > 0.0).then(|| seq / par)
    }

    /// The tentpole headline: sequential L2 pass wall time of the flat
    /// subset-hash-map backend divided by the bitmap backend's
    /// (`bench.sh` gates this at ≥ 3).
    pub fn l2_speedup_bitmap_vs_flat(&self) -> Option<f64> {
        let flat = self.run("flat", 1)?.l2_wall_s()?;
        let bitmap = self.run("bitmap", 1)?.l2_wall_s()?;
        (flat > 0.0 && bitmap > 0.0).then(|| flat / bitmap)
    }

    /// Thread-scaling headline: the bitmap backend's speedup at 4 worker
    /// threads (`bench.sh` gates this at > 1 on machines with ≥ 2 cores).
    pub fn bitmap_speedup_x4(&self) -> Option<f64> {
        self.speedup("bitmap", 4)
    }

    fn json_fragment(&self, indent: &str) -> String {
        let mut out = format!("{indent}{{\n");
        out.push_str(&format!(
            "{indent}  \"transactions\": {},\n",
            self.transactions
        ));
        out.push_str(&format!("{indent}  \"runs\": [\n"));
        for (i, run) in self.runs.iter().enumerate() {
            let comma = if i + 1 == self.runs.len() { "" } else { "," };
            out.push_str(&format!(
                "{indent}    {{\"backend\": \"{}\", \"threads\": {}, \"total_wall_s\": {}, \
                 \"passes\": [\n",
                run.backend,
                run.threads,
                json_num(run.total_wall().as_secs_f64(), 6)
            ));
            for (j, r) in run.rows.iter().enumerate() {
                let comma = if j + 1 == run.rows.len() { "" } else { "," };
                out.push_str(&format!(
                    "{indent}      {{\"pass\": {}, \"label\": \"{}\", \"candidates\": {}, \
                     \"transactions\": {}, \"wall_s\": {}}}{comma}\n",
                    r.pass,
                    r.label,
                    r.candidates,
                    r.transactions,
                    json_num(r.wall.as_secs_f64(), 6)
                ));
            }
            out.push_str(&format!("{indent}    ]}}{comma}\n"));
        }
        out.push_str(&format!("{indent}  ],\n"));
        let mut threads: Vec<usize> = self.runs.iter().map(|r| r.threads).collect();
        threads.sort_unstable();
        threads.dedup();
        let backends: Vec<&str> = {
            let mut seen = Vec::new();
            for r in &self.runs {
                if !seen.contains(&r.backend) {
                    seen.push(r.backend);
                }
            }
            seen
        };
        out.push_str(&format!(
            "{indent}  \"speedup_vs_sequential\": {{{}}},\n",
            backends
                .iter()
                .map(|&b| {
                    let per_thread = threads
                        .iter()
                        .filter(|&&t| t != 1)
                        .map(|&t| {
                            format!(
                                "\"{t}\": {}",
                                json_num(self.speedup(b, t).unwrap_or(f64::NAN), 3)
                            )
                        })
                        .collect::<Vec<_>>()
                        .join(", ");
                    format!("\"{b}\": {{{per_thread}}}")
                })
                .collect::<Vec<_>>()
                .join(", ")
        ));
        out.push_str(&format!(
            "{indent}  \"l2_speedup_bitmap_vs_flat\": {},\n",
            json_num(self.l2_speedup_bitmap_vs_flat().unwrap_or(f64::NAN), 3)
        ));
        out.push_str(&format!(
            "{indent}  \"bitmap_speedup_x4\": {},\n",
            json_num(self.bitmap_speedup_x4().unwrap_or(f64::NAN), 3)
        ));
        out.push_str(&format!("{indent}  \"sharded\": [\n"));
        for (i, r) in self.sharded.iter().enumerate() {
            let comma = if i + 1 == self.sharded.len() { "" } else { "," };
            out.push_str(&format!(
                "{indent}    {{\"shards\": {}, \"largest_shard\": {}, \"max_pass_candidates\": {}, \
                 \"wall_s\": {}}}{comma}\n",
                r.shards,
                r.largest_shard,
                r.max_pass_candidates,
                json_num(r.wall.as_secs_f64(), 6)
            ));
        }
        out.push_str(&format!("{indent}  ]\n"));
        out.push_str(&format!("{indent}}}"));
        out
    }
}

/// The parallel-counting benchmark: end-to-end negative mining on the
/// paper's synthetic generator, once per backend × thread policy ×
/// dataset scale. Rows are the workspace-wide [`PassStats`] telemetry
/// type, reconstructed from each run's recorded `pass_end` trace events
/// (DESIGN.md §11) — the bench consumes the observability layer instead
/// of keeping a private duplicate of it.
#[derive(Clone, Debug)]
pub struct CountingBench {
    /// What `Parallelism::Auto` resolves to on this machine.
    pub available_parallelism: usize,
    /// One entry per dataset scale, primary scale first.
    pub scales: Vec<CountingScale>,
}

impl CountingBench {
    /// Render as a JSON document (hand-rolled; the workspace carries no
    /// serializer dependency). Every float routes through
    /// [`json_num`], so a non-finite value (e.g. an undefined speedup)
    /// emits `null`, never the illegal bare `NaN`/`inf`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!(
            "  \"available_parallelism\": {},\n",
            self.available_parallelism
        ));
        out.push_str("  \"scales\": [\n");
        for (i, scale) in self.scales.iter().enumerate() {
            let comma = if i + 1 == self.scales.len() { "" } else { "," };
            out.push_str(&scale.json_fragment("    "));
            out.push_str(comma);
            out.push('\n');
        }
        out.push_str("  ]\n");
        out.push_str("}\n");
        out
    }
}

/// Run the counting benchmark at one scale: the same mining configuration
/// once per backend in [`BENCH_BACKENDS`] per thread policy in
/// `thread_counts` (1 = sequential), on the "Short" dataset scaled to
/// `transactions`.
pub fn counting_scale(transactions: usize, thread_counts: &[usize]) -> CountingScale {
    let ds = short_dataset(Some(transactions));
    let mut runs = Vec::new();
    for &(name, backend) in BENCH_BACKENDS {
        for &threads in thread_counts {
            let parallelism = if threads <= 1 {
                Parallelism::Sequential
            } else {
                Parallelism::Threads(threads)
            };
            // Record the run's trace events and rebuild the rows from
            // them: the JSON artifact derives from the same telemetry
            // stream every other consumer sees, not from a privileged
            // side channel.
            let ring = Arc::new(RingBufferSink::new(EVENT_RING_CAPACITY));
            let ctrl = RunControl::new().with_observer(Obs::disabled().with_sink(ring.clone()));
            NegativeMiner::new(MinerConfig {
                min_support: MinSupport::Fraction(0.015),
                min_ri: PAPER_MIN_RI,
                driver: Driver::Improved,
                max_negative_size: Some(3),
                parallelism,
                backend,
                ..MinerConfig::default()
            })
            .mine_with_controls(&ds.db, &ds.taxonomy, None, None, &ctrl)
            .expect("counting bench run");
            runs.push(BackendRun {
                backend: name,
                threads,
                rows: pass_rows_from_events(&ring.snapshot()),
            });
        }
    }
    CountingScale {
        transactions,
        runs,
        sharded: Vec::new(),
    }
}

/// One row of the sharded-counting benchmark: the same mining job over a
/// manifest split into `shards` shard files, streamed one shard at a
/// time (DESIGN.md §13).
#[derive(Clone, Debug)]
pub struct ShardedRow {
    /// Shard files behind the manifest (1 ≈ unsharded).
    pub shards: usize,
    /// Transactions in the largest shard — the peak *resident*
    /// transaction count, since `ShardedSource` streams one shard at a
    /// time. Shrinks as the shard count grows.
    pub largest_shard: u64,
    /// Largest candidate set held by any counting pass — the peak
    /// candidate memory. The bounded-memory contract is that this does
    /// not grow with the shard count (`bench.sh` gates on it).
    pub max_pass_candidates: usize,
    /// End-to-end mining wall time.
    pub wall: Duration,
}

/// Run the sharded-counting benchmark: the counting configuration of
/// [`counting_bench`] once per shard count, with the dataset written as a
/// checksummed shard manifest and mined through
/// [`negassoc_txdb::shard::ShardedSource`]. The peak candidate set per
/// pass is reconstructed from the run's `pass_end` trace events, like
/// every other row in `BENCH_counting.json`.
pub fn sharded_counting_bench(transactions: usize, shard_counts: &[usize]) -> Vec<ShardedRow> {
    let ds = short_dataset(Some(transactions));
    let mut rows = Vec::new();
    for &shards in shard_counts {
        let dir = std::env::temp_dir().join(format!(
            "negassoc-bench-sharded-{}-{shards}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).expect("bench shard dir");
        let manifest_path = dir.join("bench.manifest");
        negassoc_txdb::shard::write_sharded(&ds.db, &manifest_path, shards)
            .expect("write bench shards");
        let source =
            negassoc_txdb::shard::ShardedSource::open(&manifest_path).expect("open bench manifest");
        let largest_shard = source
            .manifest()
            .entries()
            .iter()
            .map(|e| e.tx_count)
            .max()
            .unwrap_or(0);
        let ring = Arc::new(RingBufferSink::new(EVENT_RING_CAPACITY));
        let ctrl = RunControl::new().with_observer(Obs::disabled().with_sink(ring.clone()));
        let start = std::time::Instant::now();
        NegativeMiner::new(MinerConfig {
            min_support: MinSupport::Fraction(0.015),
            min_ri: PAPER_MIN_RI,
            driver: Driver::Improved,
            max_negative_size: Some(3),
            ..MinerConfig::default()
        })
        .mine_with_controls(&source, &ds.taxonomy, None, None, &ctrl)
        .expect("sharded counting bench run");
        let wall = start.elapsed();
        let max_pass_candidates = pass_rows_from_events(&ring.snapshot())
            .iter()
            .map(|r| r.candidates)
            .max()
            .unwrap_or(0);
        std::fs::remove_dir_all(&dir).ok();
        rows.push(ShardedRow {
            shards,
            largest_shard,
            max_pass_candidates,
            wall,
        });
    }
    rows
}

/// The control-plane overhead benchmark: the same improved-driver mining
/// job with no cancel token at all (baseline) and under a fully armed
/// [`RunControl`] — live watchdog thread, far-future deadline, stall
/// window, interrupt flag — so every block and pass boundary pays its
/// token check. The acceptance bar for the run control plane is
/// `overhead_pct < 2`.
#[derive(Clone, Debug)]
pub struct CtrlBench {
    /// Transactions in the generated dataset.
    pub transactions: usize,
    /// Timed repetitions per variant (interleaved to share cache state).
    pub repetitions: usize,
    /// Wall seconds of each baseline (no token) run.
    pub baseline_s: Vec<f64>,
    /// Wall seconds of each armed-control run.
    pub controlled_s: Vec<f64>,
}

impl CtrlBench {
    /// Reconstruct a bench result from recorded [`Event::Sample`]s
    /// (names `"baseline"` and `"controlled"`) — the JSON artifact
    /// derives from the trace record, not a side channel.
    pub fn from_events(transactions: usize, events: &[Event]) -> Self {
        let baseline_s = samples_from_events(events, "baseline");
        let controlled_s = samples_from_events(events, "controlled");
        Self {
            transactions,
            repetitions: baseline_s.len().max(controlled_s.len()),
            baseline_s,
            controlled_s,
        }
    }

    /// Median baseline wall time, seconds.
    pub fn median_baseline_s(&self) -> f64 {
        median(&self.baseline_s)
    }

    /// Median armed-control wall time, seconds.
    pub fn median_controlled_s(&self) -> f64 {
        median(&self.controlled_s)
    }

    /// Median token-check overhead, percent of the baseline (negative
    /// means the difference drowned in run-to-run noise).
    pub fn overhead_pct(&self) -> f64 {
        let base = self.median_baseline_s();
        if base <= 0.0 {
            return 0.0;
        }
        (self.median_controlled_s() / base - 1.0) * 100.0
    }

    /// Render as a JSON document (hand-rolled; the workspace carries no
    /// serializer dependency). Floats route through [`json_num`]:
    /// non-finite values emit `null`, never a bare `NaN`/`inf`.
    pub fn to_json(&self) -> String {
        let list = |xs: &[f64]| {
            xs.iter()
                .map(|&x| json_num(x, 6))
                .collect::<Vec<_>>()
                .join(", ")
        };
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"transactions\": {},\n", self.transactions));
        out.push_str(&format!("  \"repetitions\": {},\n", self.repetitions));
        out.push_str(&format!(
            "  \"baseline_s\": [{}],\n",
            list(&self.baseline_s)
        ));
        out.push_str(&format!(
            "  \"controlled_s\": [{}],\n",
            list(&self.controlled_s)
        ));
        out.push_str(&format!(
            "  \"median_baseline_s\": {},\n",
            json_num(self.median_baseline_s(), 6)
        ));
        out.push_str(&format!(
            "  \"median_controlled_s\": {},\n",
            json_num(self.median_controlled_s(), 6)
        ));
        out.push_str(&format!(
            "  \"overhead_pct\": {}\n",
            json_num(self.overhead_pct(), 3)
        ));
        out.push_str("}\n");
        out
    }
}

/// Run the control-plane overhead benchmark on the "Short" dataset scaled
/// to `transactions`, `repetitions` interleaved pairs of runs.
pub fn ctrl_bench(transactions: usize, repetitions: usize) -> CtrlBench {
    let ds = short_dataset(Some(transactions));
    let config = MinerConfig {
        min_support: MinSupport::Fraction(0.015),
        min_ri: PAPER_MIN_RI,
        driver: Driver::Improved,
        max_negative_size: Some(3),
        ..MinerConfig::default()
    };
    let miner = NegativeMiner::new(config);
    // Each repetition is recorded as an `Event::Sample` and the result is
    // rebuilt from the recording, so the JSON artifact and the trace
    // stream can never disagree.
    let ring = Arc::new(RingBufferSink::new(EVENT_RING_CAPACITY));
    let recorder = Obs::disabled().with_sink(ring.clone());
    for rep in 0..repetitions {
        let start = std::time::Instant::now();
        let base = miner.mine(&ds.db, &ds.taxonomy).expect("baseline run");
        recorder.emit(|| Event::Sample {
            name: "baseline".to_owned(),
            index: rep,
            wall: start.elapsed(),
        });

        // Far-future triggers: the watchdog thread lives, the token is
        // checked everywhere, nothing ever fires.
        let ctrl = RunControl::new()
            .with_deadline(Deadline::after(Duration::from_secs(3_600)))
            .with_stall_window(Duration::from_secs(3_600))
            .with_interrupt_flag(std::sync::Arc::new(std::sync::atomic::AtomicBool::new(
                false,
            )));
        let start = std::time::Instant::now();
        let ctrled = miner
            .mine_with_controls(&ds.db, &ds.taxonomy, None, None, &ctrl)
            .expect("controlled run");
        recorder.emit(|| Event::Sample {
            name: "controlled".to_owned(),
            index: rep,
            wall: start.elapsed(),
        });
        assert_eq!(
            base.rules.len(),
            ctrled.rules.len(),
            "control plane changed the answer"
        );
    }
    CtrlBench::from_events(transactions, &ring.snapshot())
}

/// The observability overhead benchmark: the same improved-driver mining
/// job under a plain [`RunControl`] (no observer — every emission point
/// is a never-evaluated closure) and with a no-op sink attached (every
/// event is built, dispatched, and discarded). The acceptance bar for
/// the obs layer — enforced by `scripts/bench.sh`, same style as the
/// armed-token gate — is `overhead_pct < 2`.
#[derive(Clone, Debug)]
pub struct ObsBench {
    /// Transactions in the generated dataset.
    pub transactions: usize,
    /// Timed repetitions per variant (interleaved to share cache state).
    pub repetitions: usize,
    /// Wall seconds of each no-observer run.
    pub baseline_s: Vec<f64>,
    /// Wall seconds of each no-op-sink run.
    pub observed_s: Vec<f64>,
}

impl ObsBench {
    /// Reconstruct a bench result from recorded [`Event::Sample`]s
    /// (names `"baseline"` and `"observed"`).
    pub fn from_events(transactions: usize, events: &[Event]) -> Self {
        let baseline_s = samples_from_events(events, "baseline");
        let observed_s = samples_from_events(events, "observed");
        Self {
            transactions,
            repetitions: baseline_s.len().max(observed_s.len()),
            baseline_s,
            observed_s,
        }
    }

    /// Median no-observer wall time, seconds.
    pub fn median_baseline_s(&self) -> f64 {
        median(&self.baseline_s)
    }

    /// Median no-op-sink wall time, seconds.
    pub fn median_observed_s(&self) -> f64 {
        median(&self.observed_s)
    }

    /// Median emission overhead, percent of the baseline (negative means
    /// the difference drowned in run-to-run noise).
    pub fn overhead_pct(&self) -> f64 {
        let base = self.median_baseline_s();
        if base <= 0.0 {
            return 0.0;
        }
        (self.median_observed_s() / base - 1.0) * 100.0
    }

    /// Render as a JSON document; floats route through [`json_num`].
    pub fn to_json(&self) -> String {
        let list = |xs: &[f64]| {
            xs.iter()
                .map(|&x| json_num(x, 6))
                .collect::<Vec<_>>()
                .join(", ")
        };
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"transactions\": {},\n", self.transactions));
        out.push_str(&format!("  \"repetitions\": {},\n", self.repetitions));
        out.push_str(&format!(
            "  \"baseline_s\": [{}],\n",
            list(&self.baseline_s)
        ));
        out.push_str(&format!(
            "  \"observed_s\": [{}],\n",
            list(&self.observed_s)
        ));
        out.push_str(&format!(
            "  \"median_baseline_s\": {},\n",
            json_num(self.median_baseline_s(), 6)
        ));
        out.push_str(&format!(
            "  \"median_observed_s\": {},\n",
            json_num(self.median_observed_s(), 6)
        ));
        out.push_str(&format!(
            "  \"overhead_pct\": {}\n",
            json_num(self.overhead_pct(), 3)
        ));
        out.push_str("}\n");
        out
    }
}

/// Run the observability overhead benchmark on the "Short" dataset scaled
/// to `transactions`, `repetitions` interleaved pairs of runs. Both
/// variants run under the same plain `RunControl` so the comparison
/// isolates the emission points themselves.
pub fn obs_bench(transactions: usize, repetitions: usize) -> ObsBench {
    let ds = short_dataset(Some(transactions));
    let config = MinerConfig {
        min_support: MinSupport::Fraction(0.015),
        min_ri: PAPER_MIN_RI,
        driver: Driver::Improved,
        max_negative_size: Some(3),
        ..MinerConfig::default()
    };
    let miner = NegativeMiner::new(config);
    let ring = Arc::new(RingBufferSink::new(EVENT_RING_CAPACITY));
    let recorder = Obs::disabled().with_sink(ring.clone());
    for rep in 0..repetitions {
        let ctrl = RunControl::new();
        let start = std::time::Instant::now();
        let base = miner
            .mine_with_controls(&ds.db, &ds.taxonomy, None, None, &ctrl)
            .expect("baseline run");
        recorder.emit(|| Event::Sample {
            name: "baseline".to_owned(),
            index: rep,
            wall: start.elapsed(),
        });

        let observed_ctrl =
            RunControl::new().with_observer(Obs::disabled().with_sink(Arc::new(NoopSink)));
        let start = std::time::Instant::now();
        let observed = miner
            .mine_with_controls(&ds.db, &ds.taxonomy, None, None, &observed_ctrl)
            .expect("observed run");
        recorder.emit(|| Event::Sample {
            name: "observed".to_owned(),
            index: rep,
            wall: start.elapsed(),
        });
        assert_eq!(
            base.rules.len(),
            observed.rules.len(),
            "the observer changed the answer"
        );
    }
    ObsBench::from_events(transactions, &ring.snapshot())
}

/// The rule-serving benchmark: a snapshot mined from the "Short"
/// (T10.I4-shaped) dataset answered at interactive rates, with the two
/// ROADMAP-item-1 correctness contracts checked in the same run:
///
/// * every answer of the query batch is byte-identical to the offline
///   full-scan oracle over the same rule list, and
/// * a snapshot hot-swap lands mid-batch and every response is still
///   internally consistent with exactly one snapshot version.
///
/// `bench.sh` gates `queries_per_sec` at ≥ 10,000 on the 4,000-transaction
/// snapshot and fails on either contract flag being false.
#[derive(Clone, Debug)]
pub struct ServeBench {
    /// Transactions in the mined dataset.
    pub transactions: usize,
    /// Basket queries in the timed batch.
    pub queries: usize,
    /// Positive rules in the snapshot.
    pub positive_rules: usize,
    /// Negative rules in the snapshot.
    pub negative_rules: usize,
    /// Answers that matched at least one rule (the batch is seeded with
    /// rule antecedents, so this must be nonzero when rules exist).
    pub matched_answers: usize,
    /// Wall seconds of the timed batch (hot-swap included).
    pub wall_s: f64,
    /// The headline: `queries / wall_s`.
    pub queries_per_sec: f64,
    /// Indexed matcher agreed with the full-scan oracle on every basket.
    pub oracle_agreement: bool,
    /// Every mid-swap response matched exactly one snapshot's expected
    /// bytes — no torn reads.
    pub hot_swap_survived: bool,
}

impl ServeBench {
    /// Render as a JSON document; floats route through [`json_num`].
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"transactions\": {},\n", self.transactions));
        out.push_str(&format!("  \"queries\": {},\n", self.queries));
        out.push_str(&format!("  \"positive_rules\": {},\n", self.positive_rules));
        out.push_str(&format!("  \"negative_rules\": {},\n", self.negative_rules));
        out.push_str(&format!(
            "  \"matched_answers\": {},\n",
            self.matched_answers
        ));
        out.push_str(&format!("  \"wall_s\": {},\n", json_num(self.wall_s, 6)));
        out.push_str(&format!(
            "  \"queries_per_sec\": {},\n",
            json_num(self.queries_per_sec, 1)
        ));
        out.push_str(&format!(
            "  \"oracle_agreement\": {},\n",
            self.oracle_agreement
        ));
        out.push_str(&format!(
            "  \"hot_swap_survived\": {}\n",
            self.hot_swap_survived
        ));
        out.push_str("}\n");
        out
    }
}

/// Run the serving benchmark: mine the "Short" dataset scaled to
/// `transactions` at `min_support`, snapshot the rules, and answer a
/// deterministic `queries`-basket batch through
/// [`negassoc_serve::ServeState::answer`] (the server's own query path
/// minus the socket) with a hot-swap to an equal-content version-2
/// snapshot injected halfway through. The support knob matters: the
/// artifact run uses the paper-scale 1.5%, but small test datasets need
/// a higher floor or the absolute threshold collapses toward 1 and the
/// candidate space explodes.
pub fn serve_bench(transactions: usize, queries: usize, min_support: f64) -> ServeBench {
    use negassoc_serve::{answer_basket_line, ServeState, Snapshot};

    let ds = short_dataset(Some(transactions));
    let outcome = NegativeMiner::new(MinerConfig {
        min_support: MinSupport::Fraction(min_support),
        min_ri: PAPER_MIN_RI,
        driver: Driver::Improved,
        max_negative_size: Some(3),
        ..MinerConfig::default()
    })
    .mine(&ds.db, &ds.taxonomy)
    .expect("serve bench mine");
    let export = outcome.rule_export(&ds.taxonomy, 0.6, PAPER_MIN_RI);
    let tax = &ds.taxonomy;
    let snap1 = Arc::new(Snapshot::from_export(&export, tax, 1).expect("snapshot v1"));
    let snap2 = Arc::new(Snapshot::from_export(&export, tax, 2).expect("snapshot v2"));

    // A deterministic batch: leaf-item triples, with every fourth basket
    // seeded from a mined rule's antecedent so the matched path (posting
    // lists, antecedent verification, rendering) is actually exercised.
    let leaves: Vec<&str> = (0..tax.len() as u32)
        .map(negassoc_taxonomy::ItemId)
        .filter(|&i| tax.is_leaf(i))
        .map(|i| tax.name(i))
        .collect();
    let antecedents: Vec<String> = export
        .positive
        .iter()
        .map(|r| &r.antecedent)
        .chain(export.negative.iter().map(|r| &r.antecedent))
        .map(|a| {
            a.items()
                .iter()
                .map(|&i| tax.name(i))
                .collect::<Vec<_>>()
                .join(", ")
        })
        .collect();
    let baskets: Vec<String> = (0..queries)
        .map(|i| {
            if i % 4 == 0 && !antecedents.is_empty() {
                antecedents[(i / 4) % antecedents.len()].clone()
            } else {
                let pick = |j: usize| leaves[(i * 31 + j * 17) % leaves.len()];
                format!("{}, {}, {}", pick(1), pick(2), pick(3))
            }
        })
        .collect();

    // Contract 1 (untimed): the indexed matcher is byte-identical to the
    // full-scan oracle on every basket of the batch.
    let expected1: Vec<String> = baskets
        .iter()
        .map(|b| answer_basket_line(tax, &snap1, b, true))
        .collect();
    let oracle_agreement = baskets
        .iter()
        .zip(&expected1)
        .all(|(b, want)| answer_basket_line(tax, &snap1, b, false) == *want);

    // Timed batch through the server's own answer path, with the v2 swap
    // landing halfway — contract 2 is checked after the clock stops.
    let state = ServeState::new(tax.clone(), Arc::clone(&snap1)).expect("serve state");
    let mut answers = Vec::with_capacity(queries);
    let start = std::time::Instant::now();
    for (i, basket) in baskets.iter().enumerate() {
        if i == queries / 2 {
            state.install(Arc::clone(&snap2)).expect("hot swap");
        }
        answers.push(state.answer(basket));
    }
    let wall_s = start.elapsed().as_secs_f64();

    let expected2: Vec<String> = baskets
        .iter()
        .map(|b| answer_basket_line(tax, &snap2, b, false))
        .collect();
    let hot_swap_survived = answers
        .iter()
        .enumerate()
        .all(|(i, got)| *got == expected1[i] || *got == expected2[i]);
    let matched_answers = answers.iter().filter(|a| a.lines().count() > 1).count();

    ServeBench {
        transactions,
        queries,
        positive_rules: export.positive.len(),
        negative_rules: export.negative.len(),
        matched_answers,
        wall_s,
        queries_per_sec: if wall_s > 0.0 {
            queries as f64 / wall_s
        } else {
            f64::NAN
        },
        oracle_agreement,
        hot_swap_survived,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig56_row_shapes() {
        let ds = short_dataset(Some(500));
        let row = fig56_row(&ds, 5.0);
        assert_eq!(row.min_support_pct, 5.0);
        assert!(row.large_itemsets > 0);
        // Improved never makes more passes than naive.
        assert!(row.improved_passes <= row.naive_passes);
    }

    #[test]
    fn fig7_series_has_fanout_and_rows() {
        let ds = short_dataset(Some(500));
        let s = fig7_series(&ds, 5.0);
        assert_eq!(s.fanout, 9.0);
        for (k, cands, large, norm) in &s.rows {
            assert!(*k >= 2);
            assert!(*large > 0);
            assert!((*norm - *cands as f64 / *large as f64).abs() < 1e-12);
        }
    }

    #[test]
    fn secs_renders_sub_millisecond_durations_honestly() {
        assert_eq!(secs(Duration::ZERO), "0.000");
        assert_eq!(secs(Duration::from_micros(400)), "< 0.001");
        assert_eq!(secs(Duration::from_millis(1)), "0.001");
        assert_eq!(secs(Duration::from_millis(1500)), "1.500");
    }

    #[test]
    fn event_derived_rows_match_the_run_report() {
        // The rows rebuilt from recorded pass_end events must equal the
        // run's own renumbered pass_stats — same telemetry, two readers.
        let ds = short_dataset(Some(400));
        let ring = Arc::new(RingBufferSink::new(EVENT_RING_CAPACITY));
        let ctrl = RunControl::new().with_observer(Obs::disabled().with_sink(ring.clone()));
        let out = NegativeMiner::new(MinerConfig {
            min_support: MinSupport::Fraction(0.05),
            min_ri: PAPER_MIN_RI,
            driver: Driver::Improved,
            max_negative_size: Some(3),
            ..MinerConfig::default()
        })
        .mine_with_controls(&ds.db, &ds.taxonomy, None, None, &ctrl)
        .expect("mining");
        let rows = pass_rows_from_events(&ring.snapshot());
        assert!(!rows.is_empty());
        assert_eq!(rows, out.report.pass_stats);
    }

    #[test]
    fn bench_json_documents_parse_and_are_nonfinite_safe() {
        // A bench with no sequential run has an undefined speedup, and a
        // bench with no bitmap run has an undefined headline; the
        // document must say `null`, not `NaN`, and still parse.
        let counting = CountingBench {
            available_parallelism: 1,
            scales: vec![CountingScale {
                transactions: 10,
                runs: vec![BackendRun {
                    backend: "flat",
                    threads: 2,
                    rows: vec![PassStats {
                        pass: 1,
                        label: "L1".to_owned(),
                        candidates: 5,
                        transactions: 10,
                        threads: 2,
                        wall: Duration::from_micros(500),
                    }],
                }],
                sharded: vec![ShardedRow {
                    shards: 4,
                    largest_shard: 3,
                    max_pass_candidates: 5,
                    wall: Duration::from_micros(250),
                }],
            }],
        };
        let doc = counting.to_json();
        assert!(
            doc.contains("\"speedup_vs_sequential\": {\"flat\": {\"2\": null}}"),
            "{doc}"
        );
        assert!(doc.contains("\"l2_speedup_bitmap_vs_flat\": null"), "{doc}");
        assert!(doc.contains("\"bitmap_speedup_x4\": null"), "{doc}");
        xtask::json::parse(&doc).expect("counting json parses");

        let ctrl = CtrlBench {
            transactions: 10,
            repetitions: 0,
            baseline_s: Vec::new(),
            controlled_s: Vec::new(),
        };
        xtask::json::parse(&ctrl.to_json()).expect("ctrl json parses");

        let obs = ObsBench {
            transactions: 10,
            repetitions: 2,
            baseline_s: vec![0.5, f64::INFINITY],
            observed_s: vec![0.5, 0.6],
        };
        let doc = obs.to_json();
        assert!(doc.contains("null"), "inf sample must render null: {doc}");
        xtask::json::parse(&doc).expect("obs json parses");
    }

    #[test]
    fn sample_events_round_trip_through_from_events() {
        let wall = |ms| Duration::from_millis(ms);
        let events = vec![
            Event::Sample {
                name: "controlled".to_owned(),
                index: 1,
                wall: wall(40),
            },
            Event::Sample {
                name: "baseline".to_owned(),
                index: 0,
                wall: wall(10),
            },
            Event::Sample {
                name: "baseline".to_owned(),
                index: 1,
                wall: wall(30),
            },
            Event::Sample {
                name: "controlled".to_owned(),
                index: 0,
                wall: wall(20),
            },
        ];
        let bench = CtrlBench::from_events(7, &events);
        assert_eq!(bench.transactions, 7);
        assert_eq!(bench.repetitions, 2);
        assert_eq!(bench.baseline_s, vec![0.010, 0.030]);
        assert_eq!(bench.controlled_s, vec![0.020, 0.040]);
    }

    #[test]
    fn serve_bench_contracts_hold_at_small_scale() {
        let bench = serve_bench(400, 60, 0.05);
        assert_eq!(bench.queries, 60);
        assert!(bench.oracle_agreement, "indexed/oracle divergence");
        assert!(bench.hot_swap_survived, "torn read under hot swap");
        assert!(bench.wall_s >= 0.0);
        assert!(bench.queries_per_sec > 0.0);
        if bench.positive_rules + bench.negative_rules > 0 {
            assert!(
                bench.matched_answers > 0,
                "antecedent-seeded baskets must match rules"
            );
        }
        let doc = bench.to_json();
        xtask::json::parse(&doc).expect("serve json parses");
        assert!(doc.contains("\"queries_per_sec\""), "{doc}");
    }

    #[test]
    fn itemset_counts_tall_exceeds_short() {
        // The §3.2 claim at small scale: the deeper taxonomy (fanout 3)
        // yields more generalized large itemsets than the bushy one.
        let short = short_dataset(Some(500));
        let tall = tall_dataset(Some(500));
        let (s, t) = itemset_counts(&short, &tall, 5.0);
        assert!(s > 0 && t > 0);
        assert!(t > s, "tall {t} vs short {s}");
    }
}
