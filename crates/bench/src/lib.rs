//! Experiment runners behind the `paper` binary. Each public function
//! regenerates one table or figure of the paper's evaluation, or one
//! ablation or overhead artifact (see DESIGN.md §4 for the experiment
//! index).
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
use negassoc_apriori::{Itemset, MinSupport};
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

/// The lowest absolute support threshold, in transactions, that a
/// `--scale`d sweep may mine at. Percentage supports shrink with the
/// database; below about ten transactions almost every itemset is large
/// and mining runs away (`paper ablate --scale 300`, 2% = 6 transactions,
/// ran for minutes past 4 GB).
pub const MIN_SUPPORT_TRANSACTIONS: f64 = 10.0;

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

/// The mining job behind the counting, overhead and serving artifacts:
/// the improved driver at `min_support` (a fraction), negative itemsets
/// of at most three items.
fn bench_config(min_support: f64) -> MinerConfig {
    MinerConfig {
        min_support: MinSupport::Fraction(min_support),
        min_ri: PAPER_MIN_RI,
        driver: Driver::Improved,
        max_negative_size: Some(3),
        ..MinerConfig::default()
    }
}

/// A fresh event ring and an observer that records into it: the bench
/// artifacts are rebuilt from recorded trace events, not a side channel.
fn recorder() -> (Arc<RingBufferSink>, Obs) {
    let ring = Arc::new(RingBufferSink::new(EVENT_RING_CAPACITY));
    (ring.clone(), Obs::disabled().with_sink(ring))
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

/// Extract completed-pass telemetry from recorded trace events. Every
/// `pass_end` carries its pass ledger row, so for one run's events the
/// result equals the `pass_stats` of the run's own report.
pub fn pass_rows_from_events(events: &[Event]) -> Vec<PassStats> {
    events
        .iter()
        .filter_map(|e| match e {
            Event::PassEnd { stats } => Some(stats.clone()),
            _ => None,
        })
        .collect()
}

/// Join pre-indented JSON items one per line with commas between: the
/// body of a multi-line array or object (empty when there are none).
fn json_lines(items: impl Iterator<Item = String>) -> String {
    let mut out = items.collect::<Vec<_>>().join(",\n");
    if !out.is_empty() {
        out.push('\n');
    }
    out
}

/// Render pass rows as the body of a JSON array, one object per line
/// prefixed by `indent` — the pass-row shape every BENCH artifact shares.
fn pass_rows_json(rows: &[PassStats], indent: &str) -> String {
    json_lines(rows.iter().map(|r| {
        format!(
            "{indent}{{\"pass\": {}, \"label\": \"{}\", \"candidates\": {}, \
             \"transactions\": {}, \"wall_s\": {}}}",
            r.pass,
            r.label,
            r.candidates,
            r.transactions,
            json_num(r.wall.as_secs_f64(), 6)
        )
    }))
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
    /// Per-pass telemetry, numbered `1..=n`.
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

    fn json_fragment(&self) -> String {
        let runs = json_lines(self.runs.iter().map(|run| {
            format!(
                "        {{\"backend\": \"{}\", \"threads\": {}, \"total_wall_s\": {}, \
                 \"passes\": [\n{}        ]}}",
                run.backend,
                run.threads,
                json_num(run.total_wall().as_secs_f64(), 6),
                pass_rows_json(&run.rows, "          ")
            )
        }));
        let mut threads: Vec<usize> = self.runs.iter().map(|r| r.threads).collect();
        threads.retain(|&t| t != 1);
        threads.sort_unstable();
        threads.dedup();
        let mut backends: Vec<&str> = Vec::new();
        for r in &self.runs {
            if !backends.contains(&r.backend) {
                backends.push(r.backend);
            }
        }
        let ratio = |x: Option<f64>| json_num(x.unwrap_or(f64::NAN), 3);
        let speedups: Vec<String> = backends
            .iter()
            .map(|&b| {
                let per_thread: Vec<String> = threads
                    .iter()
                    .map(|&t| format!("\"{t}\": {}", ratio(self.speedup(b, t))))
                    .collect();
                format!("\"{b}\": {{{}}}", per_thread.join(", "))
            })
            .collect();
        let sharded = json_lines(self.sharded.iter().map(|r| {
            format!(
                "        {{\"shards\": {}, \"largest_shard\": {}, \"max_pass_candidates\": {}, \
                 \"wall_s\": {}}}",
                r.shards,
                r.largest_shard,
                r.max_pass_candidates,
                json_num(r.wall.as_secs_f64(), 6)
            )
        }));
        format!(
            "    {{\n      \"transactions\": {},\n      \"runs\": [\n{runs}      ],\n      \
             \"speedup_vs_sequential\": {{{}}},\n      \"l2_speedup_bitmap_vs_flat\": {},\n      \
             \"bitmap_speedup_x4\": {},\n      \"sharded\": [\n{sharded}      ]\n    }}",
            self.transactions,
            speedups.join(", "),
            ratio(self.l2_speedup_bitmap_vs_flat()),
            ratio(self.bitmap_speedup_x4()),
        )
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
        format!(
            "{{\n  \"available_parallelism\": {},\n  \"scales\": [\n{}  ]\n}}\n",
            self.available_parallelism,
            json_lines(self.scales.iter().map(CountingScale::json_fragment))
        )
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
            let (ring, obs) = recorder();
            let ctrl = RunControl::new().with_observer(obs);
            NegativeMiner::new(MinerConfig {
                parallelism,
                backend,
                ..bench_config(0.015)
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
/// [`counting_scale`] once per shard count, with the dataset written as a
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
        let (ring, obs) = recorder();
        let ctrl = RunControl::new().with_observer(obs);
        let start = std::time::Instant::now();
        NegativeMiner::new(bench_config(0.015))
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

/// Default scale of `paper ablate`, in transactions.
pub const ABLATION_TRANSACTIONS: usize = 2_000;
/// Default support of `paper ablate`, percent. Small test datasets need a
/// higher floor, or the absolute threshold collapses toward a handful of
/// transactions and the itemset space explodes.
pub const ABLATION_SUPPORT_PCT: f64 = 2.0;
/// Timed repetitions per row of `paper ablate`.
pub const ABLATION_REPETITIONS: usize = 10;

/// One timed variant of the ablation benchmark.
#[derive(Clone, Debug)]
pub struct AblationRow {
    /// Row name within its group (`cumulate/fanout_3`, `mixed/flat/4`, …).
    pub name: String,
    /// Wall seconds of each repetition, in run order.
    pub wall_s: Vec<f64>,
    /// Per-pass telemetry of the last repetition, rebuilt from its
    /// recorded `pass_end` events.
    pub passes: Vec<PassStats>,
}

impl AblationRow {
    /// Median wall seconds over the repetitions.
    pub fn median_s(&self) -> f64 {
        median(&self.wall_s)
    }
}

/// The ablation benchmark (`BENCH_ablation.json`): the design choices
/// DESIGN.md §4 calls out, each timed over repeated runs.
#[derive(Clone, Debug)]
pub struct AblationBench {
    /// Transactions in each generated dataset.
    pub transactions: usize,
    /// Minimum support of every row, percent of the database.
    pub min_support_pct: f64,
    /// Timed repetitions per row.
    pub repetitions: usize,
    /// `(group name, rows)`: `positive_miners`, `counting` and
    /// `improved_driver`, in run order.
    pub groups: Vec<(&'static str, Vec<AblationRow>)>,
}

impl AblationBench {
    /// Render as a JSON document. Groups and rows are objects keyed by
    /// name, so one path reads one number (`xtask json-get
    /// BENCH_ablation.json groups.counting.cumulate/flat.median_s`).
    pub fn to_json(&self) -> String {
        let groups = json_lines(self.groups.iter().map(|(group, rows)| {
            let rows = json_lines(rows.iter().map(|row| {
                let wall: Vec<String> = row.wall_s.iter().map(|&x| json_num(x, 6)).collect();
                format!(
                    "      \"{}\": {{\"median_s\": {}, \"wall_s\": [{}], \"passes\": [\n{}      ]}}",
                    row.name,
                    json_num(row.median_s(), 6),
                    wall.join(", "),
                    pass_rows_json(&row.passes, "        ")
                )
            }));
            format!("    \"{group}\": {{\n{rows}    }}")
        }));
        format!(
            "{{\n  \"transactions\": {},\n  \"min_support_pct\": {},\n  \"repetitions\": {},\n  \
             \"groups\": {{\n{groups}  }}\n}}\n",
            self.transactions,
            json_num(self.min_support_pct, 3),
            self.repetitions,
        )
    }
}

/// What an ablation variant answers, in a comparable form: itemsets with
/// their supports, sorted.
type Answer = Vec<(Itemset, u64)>;

/// A named ablation variant: one run, recording into the observer it is
/// handed.
type Variant<'a> = (String, Box<dyn Fn(&Obs) -> Answer + 'a>);

fn sorted(mut answer: Answer) -> Answer {
    answer.sort_unstable();
    answer
}

fn supports(large: std::io::Result<negassoc_apriori::LargeItemsets>) -> Answer {
    let large = large.expect("positive mining");
    sorted(large.iter().map(|(s, c)| (s.clone(), c)).collect())
}

/// Time each variant `repetitions` times (at least once), every run
/// recording into a fresh event ring, and assert that all variants give
/// the same answer: they differ in how the work is done, never in what
/// it finds.
fn time_agreeing(variants: Vec<Variant<'_>>, repetitions: usize) -> Vec<AblationRow> {
    let mut first: Option<Answer> = None;
    let mut rows: Vec<AblationRow> = Vec::new();
    for (name, run) in variants {
        let mut wall_s = Vec::new();
        let (answer, passes) = loop {
            let (ring, obs) = recorder();
            let start = std::time::Instant::now();
            let answer = run(&obs);
            wall_s.push(start.elapsed().as_secs_f64());
            if wall_s.len() >= repetitions {
                break (answer, pass_rows_from_events(&ring.snapshot()));
            }
        };
        let first = first.get_or_insert_with(|| answer.clone());
        assert!(*first == answer, "{name} disagrees with {}", rows[0].name);
        rows.push(AblationRow {
            name,
            wall_s,
            passes,
        });
    }
    rows
}

/// The positive-miner ablation: Basic, Cumulate, EstMerge and 4-way
/// Partition on both taxonomies, on the bitmap backend.
fn positive_miners(transactions: usize, minsup: MinSupport, reps: usize) -> Vec<AblationRow> {
    use negassoc_apriori::est_merge::{est_merge, EstMergeConfig};
    use negassoc_apriori::{basic::basic, cumulate::cumulate, partition_mine::partition_mine};
    use negassoc_txdb::TransactionDb;
    use CountingBackend::TidBitmap as B;
    use Parallelism::Sequential as S;

    type Miner = fn(&TransactionDb, &negassoc_taxonomy::Taxonomy, MinSupport, &Obs) -> Answer;
    let miners: [(&str, Miner); 4] = [
        ("basic", |db, tax, m, obs| {
            supports(basic(db, tax, m, B, S, None, obs))
        }),
        ("cumulate", |db, tax, m, obs| {
            supports(cumulate(db, tax, m, B, S, None, obs))
        }),
        ("est_merge", |db, tax, m, obs| {
            let config = EstMergeConfig::default();
            supports(est_merge(db, tax, m, B, config, S, None, obs).map(|r| r.0))
        }),
        ("partition_4", |db, tax, m, obs| {
            supports(partition_mine(db, Some(tax), m, 4, B, S, None, obs))
        }),
    ];
    let mut rows = Vec::new();
    for ds in &[
        short_dataset(Some(transactions)),
        tall_dataset(Some(transactions)),
    ] {
        let variants = miners.map(|(miner, run)| -> Variant<'_> {
            let name = format!("{miner}/fanout_{}", ds.params.fanout);
            (
                name,
                Box::new(move |obs| run(&ds.db, &ds.taxonomy, minsup, obs)),
            )
        });
        rows.extend(time_agreeing(variants.into(), reps));
    }
    rows
}

/// The counting ablation on the "Short" data: a Cumulate run under each
/// backend, then one pass over a fixed mixed-size candidate set (every
/// large itemset, transactions extended by the ancestors the candidates
/// need) under each backend on 1/2/4 threads.
fn counting(transactions: usize, minsup: MinSupport, reps: usize) -> Vec<AblationRow> {
    use negassoc_apriori::cumulate::cumulate;
    use negassoc_apriori::generalized::AncestorTable;
    use negassoc_apriori::parallel::{count_mixed_parallel, Extension, PassRun};

    let ds = short_dataset(Some(transactions));
    let (db, tax, seq) = (&ds.db, &ds.taxonomy, Parallelism::Sequential);
    let ancestors = &AncestorTable::new(tax);
    let bitmap = CountingBackend::TidBitmap;
    let large = supports(cumulate(
        db,
        tax,
        minsup,
        bitmap,
        seq,
        None,
        &Obs::disabled(),
    ));
    let candidates: &Vec<Itemset> = &large.into_iter().map(|(s, _)| s).collect();
    let mut variants: Vec<Variant<'_>> = Vec::new();
    for &(name, backend) in BENCH_BACKENDS {
        variants.push((
            format!("cumulate/{name}"),
            Box::new(move |obs| supports(cumulate(db, tax, minsup, backend, seq, None, obs))),
        ));
    }
    for &(name, backend) in BENCH_BACKENDS {
        for threads in [1, 2, 4] {
            let run = move |obs: &Obs| {
                let ext = Extension::NeededAncestors(ancestors);
                let par = Parallelism::Threads(threads);
                let counts = obs
                    .pass("mixed", candidates.len(), || {
                        count_mixed_parallel(db, candidates.clone(), backend, ext, par, None, obs)
                            .map(PassRun::into_parts)
                    })
                    .expect("mixed-size count");
                sorted(counts)
            };
            variants.push((format!("mixed/{name}/{threads}"), Box::new(run)));
        }
    }
    time_agreeing(variants, reps)
}

/// The improved-driver ablation on the "Short" data: with and without
/// taxonomy compression (optimization 1, paper §2.2.2), and under a
/// 256-candidate §2.5 memory cap. The answer compared is the negative
/// itemsets with their actual supports.
fn improved_driver(transactions: usize, minsup: MinSupport, reps: usize) -> Vec<AblationRow> {
    let ds = &short_dataset(Some(transactions));
    let base = MinerConfig {
        min_support: minsup,
        min_ri: PAPER_MIN_RI,
        driver: Driver::Improved,
        ..MinerConfig::default()
    };
    let (mut uncompressed, mut capped) = (base, base);
    uncompressed.compress_taxonomy = false;
    capped.max_candidates_per_pass = Some(256);
    let variants = [
        ("compressed", base),
        ("uncompressed", uncompressed),
        ("capped_256", capped),
    ];
    let variants = variants.into_iter().map(|(name, config)| -> Variant<'_> {
        let run = move |obs: &Obs| {
            let ctrl = RunControl::new().with_observer(obs.clone());
            let out = NegativeMiner::new(config)
                .mine_with_controls(&ds.db, &ds.taxonomy, None, None, &ctrl)
                .expect("improved-driver run");
            sorted(
                out.negatives
                    .iter()
                    .map(|n| (n.itemset.clone(), n.actual))
                    .collect(),
            )
        };
        (name.to_owned(), Box::new(run))
    });
    time_agreeing(variants.collect(), reps)
}

/// Run the ablation benchmark on datasets of `transactions` at
/// `min_support_pct` percent support, `repetitions` timed runs per row.
pub fn ablation_bench(
    transactions: usize,
    min_support_pct: f64,
    repetitions: usize,
) -> AblationBench {
    let minsup = MinSupport::Fraction(min_support_pct / 100.0);
    let (n, reps) = (transactions, repetitions);
    AblationBench {
        transactions,
        min_support_pct,
        repetitions: repetitions.max(1),
        groups: vec![
            ("positive_miners", positive_miners(n, minsup, reps)),
            ("counting", counting(n, minsup, reps)),
            ("improved_driver", improved_driver(n, minsup, reps)),
        ],
    }
}

/// The two overhead benchmarks: the same improved-driver mining job run
/// as interleaved (baseline, treated) pairs that differ only in what the
/// treated run carries. Each one's acceptance bar, enforced by
/// `scripts/bench.sh`, is `overhead_pct < 2`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Overhead {
    /// The run control plane: the baseline has no cancel token at all;
    /// the treated run is under a fully armed [`RunControl`] — live
    /// watchdog thread, far-future deadline, stall window, interrupt
    /// flag — so every block and pass boundary pays its token check.
    Ctrl,
    /// The observability layer: the baseline runs under a plain
    /// [`RunControl`] (no observer — every emission point is a
    /// never-evaluated closure); the treated run has a no-op sink
    /// attached (every event is built, dispatched, and discarded).
    Obs,
}

impl Overhead {
    /// Name of the treated run: its sample name and its JSON key stem
    /// (`controlled_s`, `median_observed_s`, …).
    pub fn label(self) -> &'static str {
        match self {
            Overhead::Ctrl => "controlled",
            Overhead::Obs => "observed",
        }
    }

    /// The run control of one side of a pair; `None` runs the miner with
    /// no control at all (`NegativeMiner::mine`).
    fn control(self, treated: bool) -> Option<RunControl> {
        match (self, treated) {
            (Overhead::Ctrl, false) => None,
            // Far-future triggers: the watchdog thread lives, the token
            // is checked everywhere, nothing ever fires.
            (Overhead::Ctrl, true) => Some(
                RunControl::new()
                    .with_deadline(Deadline::after(Duration::from_secs(3_600)))
                    .with_stall_window(Duration::from_secs(3_600))
                    .with_interrupt_flag(Arc::new(std::sync::atomic::AtomicBool::new(false))),
            ),
            (Overhead::Obs, false) => Some(RunControl::new()),
            (Overhead::Obs, true) => {
                Some(RunControl::new().with_observer(Obs::disabled().with_sink(Arc::new(NoopSink))))
            }
        }
    }
}

/// The result of an [`Overhead`] benchmark.
#[derive(Clone, Debug)]
pub struct OverheadBench {
    /// The treated run's name ([`Overhead::label`]).
    pub label: &'static str,
    /// Transactions in the generated dataset.
    pub transactions: usize,
    /// Timed repetitions per variant (interleaved to share cache state).
    pub repetitions: usize,
    /// Wall seconds of each baseline run.
    pub baseline_s: Vec<f64>,
    /// Wall seconds of each treated run.
    pub treated_s: Vec<f64>,
}

impl OverheadBench {
    /// Reconstruct a bench result from recorded [`Event::Sample`]s
    /// (names `"baseline"` and `label`) — the JSON artifact derives from
    /// the trace record, not a side channel.
    pub fn from_events(label: &'static str, transactions: usize, events: &[Event]) -> Self {
        let baseline_s = samples_from_events(events, "baseline");
        let treated_s = samples_from_events(events, label);
        Self {
            label,
            transactions,
            repetitions: baseline_s.len().max(treated_s.len()),
            baseline_s,
            treated_s,
        }
    }

    /// Median baseline wall time, seconds.
    pub fn median_baseline_s(&self) -> f64 {
        median(&self.baseline_s)
    }

    /// Median treated wall time, seconds.
    pub fn median_treated_s(&self) -> f64 {
        median(&self.treated_s)
    }

    /// Ratio of the medians as an overhead, percent of the baseline
    /// (negative means the difference drowned in run-to-run noise).
    pub fn overhead_pct(&self) -> f64 {
        let base = self.median_baseline_s();
        if base <= 0.0 {
            return 0.0;
        }
        (self.median_treated_s() / base - 1.0) * 100.0
    }

    /// Render as a JSON document (hand-rolled; the workspace carries no
    /// serializer dependency). Floats route through [`json_num`]:
    /// non-finite values emit `null`, never a bare `NaN`/`inf`.
    pub fn to_json(&self) -> String {
        let list = |xs: &[f64]| xs.iter().map(|&x| json_num(x, 6)).collect::<Vec<_>>();
        format!(
            "{{\n  \"transactions\": {},\n  \"repetitions\": {},\n  \"baseline_s\": [{}],\n  \
             \"{label}_s\": [{}],\n  \"median_baseline_s\": {},\n  \"median_{label}_s\": {},\n  \
             \"overhead_pct\": {}\n}}\n",
            self.transactions,
            self.repetitions,
            list(&self.baseline_s).join(", "),
            list(&self.treated_s).join(", "),
            json_num(self.median_baseline_s(), 6),
            json_num(self.median_treated_s(), 6),
            json_num(self.overhead_pct(), 3),
            label = self.label,
        )
    }
}

/// Run an overhead benchmark on the "Short" dataset scaled to
/// `transactions`: `repetitions` interleaved (baseline, treated) pairs.
/// Each side builds its run control before the clock starts, and each
/// pair must agree on the answer.
pub fn overhead_bench(kind: Overhead, transactions: usize, repetitions: usize) -> OverheadBench {
    let ds = short_dataset(Some(transactions));
    let miner = NegativeMiner::new(bench_config(0.015));
    let label = kind.label();
    // Each repetition is recorded as an `Event::Sample` and the result is
    // rebuilt from the recording, so the JSON artifact and the trace
    // stream can never disagree.
    let (ring, recorder) = recorder();
    for rep in 0..repetitions {
        let mut rules = [0; 2];
        for (side, name) in ["baseline", label].into_iter().enumerate() {
            let ctrl = kind.control(side == 1);
            let start = std::time::Instant::now();
            let out = match &ctrl {
                None => miner.mine(&ds.db, &ds.taxonomy),
                Some(ctrl) => miner.mine_with_controls(&ds.db, &ds.taxonomy, None, None, ctrl),
            }
            .expect("overhead bench run");
            recorder.emit(|| Event::Sample {
                name: name.to_owned(),
                index: rep,
                wall: start.elapsed(),
            });
            rules[side] = out.rules.len();
        }
        assert_eq!(rules[0], rules[1], "the {label} run changed the answer");
    }
    OverheadBench::from_events(label, transactions, &ring.snapshot())
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
    let outcome = NegativeMiner::new(bench_config(min_support))
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
        let row = fig56_row_source(&ds.db, &ds.taxonomy, 5.0);
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
        // run's own pass_stats — same telemetry, two readers.
        let ds = short_dataset(Some(400));
        let (ring, obs) = recorder();
        let out = NegativeMiner::new(bench_config(0.05))
            .mine_with_controls(
                &ds.db,
                &ds.taxonomy,
                None,
                None,
                &RunControl::new().with_observer(obs),
            )
            .expect("mining");
        let rows = pass_rows_from_events(&ring.snapshot());
        assert!(!rows.is_empty());
        assert_eq!(rows, out.report.pass_stats);
    }

    /// A counting scale whose runs are `(backend, threads, L2 ms)`, each
    /// with an L1 and an L2 pass row.
    fn scale(transactions: usize, runs: &[(&'static str, usize, u64)]) -> CountingScale {
        let pass = |label: &str, ms| PassStats {
            pass: 1,
            label: label.to_owned(),
            candidates: 5,
            transactions: 10,
            threads: 1,
            wall: Duration::from_millis(ms),
        };
        let runs = runs.iter().map(|&(backend, threads, l2)| BackendRun {
            backend,
            threads,
            rows: vec![pass("L1", 1), pass("L2", l2)],
        });
        CountingScale {
            transactions,
            runs: runs.collect(),
            sharded: Vec::new(),
        }
    }

    fn shard(shards: usize, largest_shard: u64) -> ShardedRow {
        ShardedRow {
            shards,
            largest_shard,
            max_pass_candidates: 5,
            wall: Duration::from_micros(250),
        }
    }

    #[test]
    fn bench_json_documents_parse_and_are_nonfinite_safe() {
        // A bench with no sequential run has an undefined speedup, and a
        // bench with no bitmap run has an undefined headline; the
        // document must say `null`, not `NaN`, and still parse.
        let mut only_flat_x2 = scale(10, &[("flat", 2, 1)]);
        only_flat_x2.sharded = vec![shard(4, 3)];
        let doc = CountingBench {
            available_parallelism: 1,
            scales: vec![only_flat_x2],
        }
        .to_json();
        assert!(
            doc.contains("\"speedup_vs_sequential\": {\"flat\": {\"2\": null}}"),
            "{doc}"
        );
        assert!(doc.contains("\"l2_speedup_bitmap_vs_flat\": null"), "{doc}");
        assert!(doc.contains("\"bitmap_speedup_x4\": null"), "{doc}");
        xtask::json::parse(&doc).expect("counting json parses");

        for kind in [Overhead::Ctrl, Overhead::Obs] {
            let bench = |baseline_s: Vec<f64>, treated_s| OverheadBench {
                label: kind.label(),
                transactions: 10,
                repetitions: baseline_s.len(),
                baseline_s,
                treated_s,
            };
            let empty = bench(Vec::new(), Vec::new()).to_json();
            xtask::json::parse(&empty).expect("empty overhead json parses");
            let doc = bench(vec![0.5, f64::INFINITY], vec![0.5, 0.6]).to_json();
            assert!(doc.contains("null"), "inf sample must render null: {doc}");
            xtask::json::parse(&doc).expect("overhead json parses");
        }
    }

    /// Every path `scripts/bench.sh` gates on must read as a non-null
    /// scalar in its writer's output.
    fn assert_gated(doc: &str, paths: &[&str]) {
        for path in paths {
            if let Err(e) = xtask::json::get_scalar(doc, path) {
                panic!("{path}: {e}\n{doc}");
            }
        }
    }

    #[test]
    fn sample_events_round_trip_through_from_events() {
        for kind in [Overhead::Ctrl, Overhead::Obs] {
            let label = kind.label();
            let samples = [(label, 1, 40), ("baseline", 0, 10), ("baseline", 1, 30)];
            let events: Vec<Event> = samples
                .into_iter()
                .chain([(label, 0, 20), ("unrelated", 0, 99)])
                .map(|(name, index, ms)| Event::Sample {
                    name: name.to_owned(),
                    index,
                    wall: Duration::from_millis(ms),
                })
                .collect();
            let bench = OverheadBench::from_events(label, 7, &events);
            assert_eq!((bench.transactions, bench.repetitions), (7, 2));
            assert_eq!(bench.baseline_s, vec![0.010, 0.030]);
            assert_eq!(bench.treated_s, vec![0.020, 0.040]);
            let doc = bench.to_json();
            assert_gated(&doc, &["overhead_pct", "median_baseline_s"]);
            for key in [format!("\"{label}_s\""), format!("\"median_{label}_s\"")] {
                assert!(doc.contains(&key), "{doc}");
            }
        }
    }

    #[test]
    fn counting_json_carries_every_gated_path() {
        let runs = [
            ("flat", 1, 30),
            ("flat", 4, 20),
            ("bitmap", 1, 3),
            ("bitmap", 4, 2),
        ];
        let mut primary = scale(4_000, &runs);
        primary.sharded = vec![shard(1, 40), shard(4, 10)];
        let bench = CountingBench {
            available_parallelism: 2,
            scales: vec![primary, scale(100_000, &runs)],
        };
        assert_gated(
            &bench.to_json(),
            &[
                "available_parallelism",
                "scales.-1.transactions",
                "scales.0.l2_speedup_bitmap_vs_flat",
                "scales.-1.l2_speedup_bitmap_vs_flat",
                "scales.0.bitmap_speedup_x4",
                "scales.0.sharded.1.shards",
                "scales.0.sharded.1.max_pass_candidates",
                "scales.0.sharded.1.largest_shard",
            ],
        );
    }

    #[test]
    fn ablation_bench_carries_every_group_and_row() {
        // 10% support: at 300 transactions the artifact's 2% is six
        // transactions, and the Tall itemset space explodes.
        let doc = ablation_bench(300, 10.0, 1).to_json();
        let v = xtask::json::parse(&doc).expect("ablation json parses");
        let mut rows = Vec::new();
        for miner in ["basic", "cumulate", "est_merge", "partition_4"] {
            rows.extend([9, 3].map(|f| format!("positive_miners.{miner}/fanout_{f}")));
        }
        for backend in ["flat", "bitmap"] {
            rows.push(format!("counting.cumulate/{backend}"));
            rows.extend([1, 2, 4].map(|t| format!("counting.mixed/{backend}/{t}")));
        }
        rows.extend(
            ["compressed", "uncompressed", "capped_256"].map(|r| format!("improved_driver.{r}")),
        );
        for row in &rows {
            let at = |key: &str| v.path(&format!("groups.{row}.{key}"));
            assert!(
                at("median_s").and_then(|m| m.as_number()).is_some(),
                "{row}: {doc}"
            );
            assert_eq!(
                at("wall_s").and_then(|w| w.as_array()).map(<[_]>::len),
                Some(1)
            );
            assert!(at("passes.0.wall_s").is_some(), "{row} recorded no passes");
        }
        let median_keys = doc.matches("\"median_s\"").count();
        assert_eq!(median_keys, rows.len(), "unexpected rows: {doc}");
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
        let gated = ["oracle_agreement", "hot_swap_survived", "queries_per_sec"];
        assert_gated(&bench.to_json(), &gated);
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
