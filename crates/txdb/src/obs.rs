//! The observability substrate: structured trace events, a sharded
//! metrics registry, and pluggable sinks.
//!
//! Every layer of the miner used to carry its own ad-hoc telemetry —
//! `PassStats` in the counting layer, a separate bench row type, heartbeat
//! counters in the control plane, `println!` in the CLI. This module is
//! the one substrate they all share:
//!
//! * [`Event`] — a closed enum of everything the pipeline can report:
//!   pass start/end, candidate-set sizes, block dispatch/merge, fault
//!   hits, retries, checkpoint writes/loads, cancellation, salvage and
//!   bench samples. Each event serializes to exactly one JSON line via
//!   [`Event::to_json_line`]; the serializer never emits non-finite
//!   floats ([`json_num`] renders `inf`/`NaN` as `null`).
//! * [`PassStats`] — the per-pass telemetry record. This is the *one*
//!   shared pass-row type: the miner report, the CLI `--pass-stats`
//!   table and the bench JSON artifacts all consume it.
//! * [`Metrics`] — a lock-free registry of named monotonic counters and
//!   gauges. The hot path is a relaxed `fetch_add`; workers accumulate
//!   into private [`MetricsShard`]s and merge at pass boundaries — the
//!   same order-independent `u64` addition discipline the count merge
//!   uses, so totals are exact for any thread count.
//! * [`TraceSink`] — where events go: [`NoopSink`] (drop everything),
//!   [`JsonLinesSink`] (append one JSON object per line to a file),
//!   [`RingBufferSink`] (keep the last N events in memory for
//!   post-run derivation).
//! * [`Obs`] — the cheap-to-clone handle the pipeline threads around.
//!   A disabled handle ([`Obs::default`]) costs one branch per emission
//!   point: the event-building closure passed to [`Obs::emit`] is never
//!   even invoked. The bench suite enforces a < 2% overhead budget for
//!   the fully-armed no-op configuration.
//! * The pass ledger — every database pass of every miner runs through
//!   [`Obs::pass`], which emits `pass_start`, times the pass and, when it
//!   completes, numbers it, appends its [`PassStats`] row to the ledger
//!   the handle and its clones share, and emits `pass_end`. Numbers,
//!   rows and events therefore come from one place and cannot disagree;
//!   [`Obs::passes`] reads the rows back, even on a disabled handle.

use std::collections::VecDeque;
use std::fmt;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Telemetry for one database pass, as surfaced through the miner report,
/// the CLI `--pass-stats` table and the bench JSON artifacts.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PassStats {
    /// 1-based pass number within the run.
    pub pass: u64,
    /// What the pass was for (e.g. `"L1"`, `"L3"`, `"negative"`).
    pub label: String,
    /// Candidates counted in the pass.
    pub candidates: usize,
    /// Transactions scanned.
    pub transactions: u64,
    /// Worker threads used.
    pub threads: usize,
    /// Wall-clock time of the pass.
    pub wall: Duration,
}

/// What a completed pass reports back to [`Obs::pass`]: the part of its
/// [`PassStats`] row only the pass itself knows.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Scan {
    /// Transactions scanned.
    pub transactions: u64,
    /// Worker threads used.
    pub threads: usize,
}

/// Render a float as a JSON number with `decimals` fractional digits —
/// or as JSON `null` when the value is not finite. Every hand-rolled
/// JSON emitter in the workspace routes floats through here so a
/// zero-duration pass (speedup `inf`) or an empty sample set (`NaN`)
/// can never produce an unparseable document.
pub fn json_num(value: f64, decimals: usize) -> String {
    if value.is_finite() {
        format!("{value:.decimals$}")
    } else {
        "null".to_string()
    }
}

/// Escape `s` for inclusion inside a JSON string literal (quotes not
/// included).
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// One structured trace event. The set is closed on purpose: every
/// emission point in the pipeline picks from this schema, so a consumer
/// (the bench derivations, the CI trace validator, a human with `jq`)
/// can rely on the field names documented per variant and in DESIGN.md
/// §11.
#[derive(Clone, Debug, PartialEq)]
pub enum Event {
    /// A counting pass is about to scan the database.
    PassStart {
        /// The pass label (`"L1"`, `"L3"`, `"negative"`, …).
        label: String,
        /// Candidates the pass will count.
        candidates: usize,
    },
    /// A counting pass finished; `stats` is the durable record.
    PassEnd {
        /// The completed pass's telemetry row.
        stats: PassStats,
    },
    /// A candidate set was generated (before any counting decision).
    CandidateSet {
        /// Which stage generated it (`"L2"`, `"negative"`, …).
        label: String,
        /// Number of candidates generated.
        size: usize,
    },
    /// The pass producer handed one transaction block to the worker pool.
    BlockDispatch {
        /// Stream position of the block's first transaction.
        start: u64,
        /// Transactions in the block.
        transactions: usize,
    },
    /// All workers of a pass merged their private tallies.
    BlockMerge {
        /// Worker results merged.
        workers: usize,
        /// Transactions the whole pass scanned.
        transactions: u64,
    },
    /// A deterministic fault-injection plan fired.
    FaultHit {
        /// 1-based pass the fault fired in.
        pass: u64,
        /// Transaction index the fault fired at.
        transaction: u64,
        /// The fault kind (debug rendering of the plan entry).
        kind: String,
        /// Whether the fault is transient (retryable).
        transient: bool,
    },
    /// A retry wrapper re-attempted a failed pass.
    Retry {
        /// 1-based attempt number about to run.
        attempt: u64,
        /// Retry budget (attempts allowed after the first).
        max: u64,
        /// The error that triggered the retry.
        error: String,
    },
    /// A checkpoint file was durably written.
    CheckpointWrite {
        /// File name within the checkpoint directory.
        file: String,
        /// Payload size in bytes (envelope excluded).
        bytes: u64,
    },
    /// A checkpoint file was loaded to resume a run.
    CheckpointLoad {
        /// File name within the checkpoint directory.
        file: String,
        /// What the load resumes (`"positive"` or `"negative"`).
        resumed: String,
    },
    /// The run was cancelled cooperatively.
    Cancelled {
        /// Human-readable cancellation reason.
        reason: String,
    },
    /// A salvage read dropped corrupt blocks and kept the rest.
    Salvage {
        /// Transactions recovered.
        kept: u64,
        /// Blocks (or records) dropped as corrupt.
        dropped: u64,
    },
    /// A sharded pass is about to stream one shard.
    ShardStart {
        /// 0-based shard index within the manifest.
        index: usize,
        /// The shard's path, as resolved from the manifest.
        path: String,
    },
    /// A sharded pass finished streaming one shard.
    ShardEnd {
        /// 0-based shard index within the manifest.
        index: usize,
        /// Transactions the shard delivered this pass.
        transactions: u64,
    },
    /// A shard failed strict load *and* salvage; the run continues
    /// without it (degraded completeness).
    ShardQuarantined {
        /// 0-based shard index within the manifest.
        index: usize,
        /// The shard's path, as resolved from the manifest.
        path: String,
        /// Why the shard was quarantined.
        error: String,
    },
    /// A counting backend finished building its pass-local structures
    /// (e.g. the TID-bitmap rows for one pass).
    BackendBuild {
        /// Backend layout: `"bitmap"` (AND + popcount) or `"pairs"` (the
        /// bitmap backend's triangular pair matrix).
        backend: String,
        /// Item rows (or structures) built.
        items: usize,
        /// Across all workers: packed `u64` words allocated (`bitmap`),
        /// or `u32` matrix cells allocated (`pairs`).
        words: u64,
    },
    /// A counting backend answered a pass's candidate supports.
    BackendCount {
        /// Backend layout, as in [`Event::BackendBuild`].
        backend: String,
        /// Candidates counted.
        candidates: usize,
        /// Across all workers: `u64` words visited by AND loops
        /// (`bitmap`), or matrix cell increments (`pairs`).
        words: u64,
        /// Total popcount over all candidates (the sum of supports).
        ones: u64,
    },
    /// One timing sample from a benchmark repetition.
    Sample {
        /// Which configuration the sample measures.
        name: String,
        /// 0-based repetition index.
        index: usize,
        /// Wall-clock time of the repetition.
        wall: Duration,
    },
    /// The run finished (successfully or not); emitted once at the end.
    RunEnd {
        /// Database passes the run completed.
        passes: u64,
        /// Total wall-clock time.
        wall: Duration,
    },
}

impl Event {
    /// The event's snake_case tag, as serialized in the `"event"` field.
    pub fn tag(&self) -> &'static str {
        match self {
            Event::PassStart { .. } => "pass_start",
            Event::PassEnd { .. } => "pass_end",
            Event::CandidateSet { .. } => "candidate_set",
            Event::BlockDispatch { .. } => "block_dispatch",
            Event::BlockMerge { .. } => "block_merge",
            Event::FaultHit { .. } => "fault_hit",
            Event::Retry { .. } => "retry",
            Event::CheckpointWrite { .. } => "checkpoint_write",
            Event::CheckpointLoad { .. } => "checkpoint_load",
            Event::Cancelled { .. } => "cancelled",
            Event::Salvage { .. } => "salvage",
            Event::ShardStart { .. } => "shard_start",
            Event::ShardEnd { .. } => "shard_end",
            Event::ShardQuarantined { .. } => "shard_quarantined",
            Event::BackendBuild { .. } => "backend_build",
            Event::BackendCount { .. } => "backend_count",
            Event::Sample { .. } => "sample",
            Event::RunEnd { .. } => "run_end",
        }
    }

    /// Serialize to one JSON object (no trailing newline). When `t_us`
    /// is `Some`, a leading `"t_us"` field carries microseconds since
    /// the emitting sink's epoch.
    pub fn to_json_line(&self, t_us: Option<u64>) -> String {
        let mut s = String::from("{");
        if let Some(t) = t_us {
            s.push_str(&format!("\"t_us\":{t},"));
        }
        s.push_str(&format!("\"event\":\"{}\"", self.tag()));
        match self {
            Event::PassStart { label, candidates } => {
                s.push_str(&format!(
                    ",\"label\":\"{}\",\"candidates\":{candidates}",
                    json_escape(label)
                ));
            }
            Event::PassEnd { stats } => {
                s.push_str(&format!(
                    ",\"pass\":{},\"label\":\"{}\",\"candidates\":{},\"transactions\":{},\"threads\":{},\"wall_s\":{}",
                    stats.pass,
                    json_escape(&stats.label),
                    stats.candidates,
                    stats.transactions,
                    stats.threads,
                    json_num(stats.wall.as_secs_f64(), 6),
                ));
            }
            Event::CandidateSet { label, size } => {
                s.push_str(&format!(
                    ",\"label\":\"{}\",\"size\":{size}",
                    json_escape(label)
                ));
            }
            Event::BlockDispatch {
                start,
                transactions,
            } => {
                s.push_str(&format!(
                    ",\"start\":{start},\"transactions\":{transactions}"
                ));
            }
            Event::BlockMerge {
                workers,
                transactions,
            } => {
                s.push_str(&format!(
                    ",\"workers\":{workers},\"transactions\":{transactions}"
                ));
            }
            Event::FaultHit {
                pass,
                transaction,
                kind,
                transient,
            } => {
                s.push_str(&format!(
                    ",\"pass\":{pass},\"transaction\":{transaction},\"kind\":\"{}\",\"transient\":{transient}",
                    json_escape(kind)
                ));
            }
            Event::Retry {
                attempt,
                max,
                error,
            } => {
                s.push_str(&format!(
                    ",\"attempt\":{attempt},\"max\":{max},\"error\":\"{}\"",
                    json_escape(error)
                ));
            }
            Event::CheckpointWrite { file, bytes } => {
                s.push_str(&format!(
                    ",\"file\":\"{}\",\"bytes\":{bytes}",
                    json_escape(file)
                ));
            }
            Event::CheckpointLoad { file, resumed } => {
                s.push_str(&format!(
                    ",\"file\":\"{}\",\"resumed\":\"{}\"",
                    json_escape(file),
                    json_escape(resumed)
                ));
            }
            Event::Cancelled { reason } => {
                s.push_str(&format!(",\"reason\":\"{}\"", json_escape(reason)));
            }
            Event::Salvage { kept, dropped } => {
                s.push_str(&format!(",\"kept\":{kept},\"dropped\":{dropped}"));
            }
            Event::ShardStart { index, path } => {
                s.push_str(&format!(
                    ",\"index\":{index},\"path\":\"{}\"",
                    json_escape(path)
                ));
            }
            Event::ShardEnd {
                index,
                transactions,
            } => {
                s.push_str(&format!(
                    ",\"index\":{index},\"transactions\":{transactions}"
                ));
            }
            Event::ShardQuarantined { index, path, error } => {
                s.push_str(&format!(
                    ",\"index\":{index},\"path\":\"{}\",\"error\":\"{}\"",
                    json_escape(path),
                    json_escape(error)
                ));
            }
            Event::BackendBuild {
                backend,
                items,
                words,
            } => {
                s.push_str(&format!(
                    ",\"backend\":\"{}\",\"items\":{items},\"words\":{words}",
                    json_escape(backend)
                ));
            }
            Event::BackendCount {
                backend,
                candidates,
                words,
                ones,
            } => {
                s.push_str(&format!(
                    ",\"backend\":\"{}\",\"candidates\":{candidates},\"words\":{words},\"ones\":{ones}",
                    json_escape(backend)
                ));
            }
            Event::Sample { name, index, wall } => {
                s.push_str(&format!(
                    ",\"name\":\"{}\",\"index\":{index},\"wall_s\":{}",
                    json_escape(name),
                    json_num(wall.as_secs_f64(), 6)
                ));
            }
            Event::RunEnd { passes, wall } => {
                s.push_str(&format!(
                    ",\"passes\":{passes},\"wall_s\":{}",
                    json_num(wall.as_secs_f64(), 6)
                ));
            }
        }
        s.push('}');
        s
    }
}

/// Where structured events go. Implementations must tolerate concurrent
/// `record` calls (workers emit from the pool) and should make `record`
/// cheap — the hot path already pays one branch per emission point
/// before the sink is even consulted.
pub trait TraceSink: Send + Sync {
    /// Consume one event.
    fn record(&self, event: &Event);
    /// Flush any buffered output (no-op by default).
    fn flush(&self) {}
}

/// The zero-cost sink: discards every event. Used by the bench overhead
/// gate to price the fully-armed emission plumbing.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoopSink;

impl TraceSink for NoopSink {
    fn record(&self, _event: &Event) {}
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Appends one JSON object per line to a file (the `--trace FILE`
/// sink). Each line carries `t_us`: microseconds since the sink was
/// created. Write errors are recorded and swallowed — tracing must
/// never fail the mine — and surfaced by [`JsonLinesSink::error`].
pub struct JsonLinesSink {
    out: Mutex<BufWriter<File>>,
    epoch: Instant,
    failed: AtomicU64,
}

impl fmt::Debug for JsonLinesSink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("JsonLinesSink")
            .field("failed", &self.failed.load(Ordering::Relaxed))
            .finish()
    }
}

impl JsonLinesSink {
    /// Create (truncate) `path` and return a sink writing to it.
    pub fn create<P: AsRef<Path>>(path: P) -> io::Result<Self> {
        let file = File::create(path)?;
        Ok(Self {
            out: Mutex::new(BufWriter::new(file)),
            epoch: Instant::now(),
            failed: AtomicU64::new(0),
        })
    }

    /// Number of events that could not be written.
    pub fn error(&self) -> u64 {
        self.failed.load(Ordering::Relaxed)
    }
}

impl TraceSink for JsonLinesSink {
    fn record(&self, event: &Event) {
        let t_us = self.epoch.elapsed().as_micros() as u64;
        let line = event.to_json_line(Some(t_us));
        let mut out = lock(&self.out);
        if writeln!(out, "{line}").is_err() {
            self.failed.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn flush(&self) {
        let _ = lock(&self.out).flush();
    }
}

/// Keeps the most recent `capacity` events in memory — the sink the
/// bench derivations and the interrupted `--pass-stats` report read
/// back after the run.
#[derive(Debug)]
pub struct RingBufferSink {
    buf: Mutex<VecDeque<Event>>,
    capacity: usize,
}

impl RingBufferSink {
    /// A ring holding at most `capacity` events (oldest evicted first).
    pub fn new(capacity: usize) -> Self {
        Self {
            buf: Mutex::new(VecDeque::new()),
            capacity: capacity.max(1),
        }
    }

    /// Copy out the buffered events, oldest first.
    pub fn snapshot(&self) -> Vec<Event> {
        lock(&self.buf).iter().cloned().collect()
    }

    /// Move out the buffered events, oldest first, leaving the ring empty.
    pub fn drain(&self) -> Vec<Event> {
        lock(&self.buf).drain(..).collect()
    }
}

impl TraceSink for RingBufferSink {
    fn record(&self, event: &Event) {
        let mut buf = lock(&self.buf);
        if buf.len() >= self.capacity {
            buf.pop_front();
        }
        buf.push_back(event.clone());
    }
}

/// Distinguishes how a metric slot is updated; the merge treats both as
/// plain `u64` cells.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonic: only [`Metrics::add`] (or shard absorption) touches it.
    Counter,
    /// Last-write-wins level, set with [`Metrics::set`]. Gauges are not
    /// sharded — a shard merge is additive.
    Gauge,
}

/// Handle to one registered metric slot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MetricId(usize);

/// The most distinct metrics one registry can hold. Registration past
/// the cap is silently dropped (the returned id becomes a no-op), which
/// keeps the hot path allocation- and branch-free.
pub const MAX_METRICS: usize = 64;

/// A lock-free registry of named monotonic counters and gauges.
///
/// Registration (cold path) takes a mutex; updates (hot path) are
/// relaxed atomic operations on pre-allocated slots. Parallel workers
/// should not even do that: they accumulate into a private
/// [`MetricsShard`] and [`Metrics::absorb`] it once at the pass
/// boundary — the same discipline as the counting merge, so totals are
/// exact and order-independent for any thread count.
pub struct Metrics {
    names: Mutex<Vec<(String, MetricKind)>>,
    slots: Vec<AtomicU64>,
    len: AtomicUsize,
}

impl fmt::Debug for Metrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Metrics")
            .field("registered", &self.len.load(Ordering::Acquire))
            .finish()
    }
}

impl Default for Metrics {
    fn default() -> Self {
        Self::new()
    }
}

impl Metrics {
    /// An empty registry.
    pub fn new() -> Self {
        Self {
            names: Mutex::new(Vec::new()),
            slots: (0..MAX_METRICS).map(|_| AtomicU64::new(0)).collect(),
            len: AtomicUsize::new(0),
        }
    }

    /// Find or create the slot for `name`. Re-registering an existing
    /// name returns the same id (the first registration's kind wins).
    /// Past [`MAX_METRICS`] distinct names the returned id is inert.
    pub fn register(&self, name: &str, kind: MetricKind) -> MetricId {
        let mut names = lock(&self.names);
        if let Some(i) = names.iter().position(|(n, _)| n == name) {
            return MetricId(i);
        }
        if names.len() >= MAX_METRICS {
            return MetricId(usize::MAX);
        }
        names.push((name.to_string(), kind));
        let id = names.len() - 1;
        self.len.store(names.len(), Ordering::Release);
        MetricId(id)
    }

    /// Add `n` to a counter (relaxed; order-independent).
    pub fn add(&self, id: MetricId, n: u64) {
        if let Some(slot) = self.slots.get(id.0) {
            slot.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Set a gauge to `v` (relaxed store, last write wins).
    pub fn set(&self, id: MetricId, v: u64) {
        if let Some(slot) = self.slots.get(id.0) {
            slot.store(v, Ordering::Relaxed);
        }
    }

    /// A fresh private shard for one worker. Shards never touch shared
    /// state until [`Metrics::absorb`].
    pub fn shard(&self) -> MetricsShard {
        MetricsShard {
            counts: vec![0; MAX_METRICS],
        }
    }

    /// Merge a worker's shard into the shared slots. Additive per slot,
    /// so absorbing shards in any order yields the sequential total.
    pub fn absorb(&self, shard: &MetricsShard) {
        for (slot, &n) in self.slots.iter().zip(shard.counts.iter()) {
            if n > 0 {
                slot.fetch_add(n, Ordering::Relaxed);
            }
        }
    }

    /// Current values of every registered metric, sorted by name.
    pub fn snapshot(&self) -> Vec<(String, MetricKind, u64)> {
        let names = lock(&self.names);
        let mut out: Vec<(String, MetricKind, u64)> = names
            .iter()
            .enumerate()
            .map(|(i, (n, k))| (n.clone(), *k, self.slots[i].load(Ordering::Relaxed)))
            .collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }
}

/// One worker's private, unsynchronized metric accumulator (counters
/// only). Created by [`Metrics::shard`], merged by [`Metrics::absorb`].
#[derive(Clone, Debug, Default)]
pub struct MetricsShard {
    counts: Vec<u64>,
}

impl MetricsShard {
    /// Add `n` to the shard's private cell for `id`.
    #[inline]
    pub fn add(&mut self, id: MetricId, n: u64) {
        if let Some(c) = self.counts.get_mut(id.0) {
            *c += n;
        }
    }
}

/// Well-known metric names emitted by the pipeline itself.
pub mod metric {
    /// Transaction blocks handed to counting workers.
    pub const BLOCKS_DISPATCHED: &str = "blocks.dispatched";
    /// Transactions scanned by counting workers.
    pub const TRANSACTIONS_SCANNED: &str = "transactions.scanned";
    /// Counting passes completed.
    pub const PASSES_COMPLETED: &str = "passes.completed";
    /// Injected faults that fired.
    pub const FAULTS_INJECTED: &str = "faults.injected";
    /// Pass retries performed.
    pub const RETRIES: &str = "retries";
    /// Checkpoint files written.
    pub const CHECKPOINTS_WRITTEN: &str = "checkpoints.written";
    /// Checkpoint files loaded for resume.
    pub const CHECKPOINTS_LOADED: &str = "checkpoints.loaded";
    /// Gauge: candidates counted by the most recent pass.
    pub const LAST_PASS_CANDIDATES: &str = "last_pass.candidates";
    /// Packed `u64` words allocated by the bitmap backend's builds.
    pub const BITMAP_WORDS_BUILT: &str = "bitmap.words.built";
    /// `u64` words visited by the bitmap backend's AND loops.
    pub const BITMAP_WORDS_ANDED: &str = "bitmap.words.anded";
    /// Cell increments of the bitmap backend's pair-matrix passes (every
    /// candidate a pair, dense enough; e.g. L2): one per co-occurring pair
    /// of planned items per transaction. These passes AND no words.
    pub const BITMAP_PAIR_INCREMENTS: &str = "bitmap.pair_increments";
    /// Total support the bitmap backend reported (sum over candidates, both
    /// layouts).
    pub const BITMAP_ONES: &str = "bitmap.ones";
}

/// The handle the pipeline threads around: an optional sink, an optional
/// metrics registry and the pass ledger. Cloning is three `Arc` bumps, and
/// clones share all three; the default handle has no sink or registry, so
/// every emission point collapses to one `Option` branch (the event is
/// never even built), but it still keeps its ledger.
#[derive(Clone, Default)]
pub struct Obs {
    sink: Option<Arc<dyn TraceSink>>,
    metrics: Option<Arc<Metrics>>,
    ledger: Arc<Mutex<Vec<PassStats>>>,
}

impl fmt::Debug for Obs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Obs")
            .field("sink", &self.sink.is_some())
            .field("metrics", &self.metrics.is_some())
            .finish()
    }
}

impl Obs {
    /// The disabled handle: no sink, no metrics, near-zero cost.
    pub fn disabled() -> Self {
        Self::default()
    }

    /// Attach a trace sink.
    pub fn with_sink(mut self, sink: Arc<dyn TraceSink>) -> Self {
        self.sink = Some(sink);
        self
    }

    /// Attach a metrics registry.
    pub fn with_metrics(mut self, metrics: Arc<Metrics>) -> Self {
        self.metrics = Some(metrics);
        self
    }

    /// `true` when a sink is attached (events will be observed).
    pub fn is_tracing(&self) -> bool {
        self.sink.is_some()
    }

    /// Build and record an event — but only when a sink is attached;
    /// otherwise the closure is never invoked and nothing allocates.
    #[inline]
    pub fn emit(&self, f: impl FnOnce() -> Event) {
        if let Some(sink) = &self.sink {
            sink.record(&f());
        }
    }

    /// The metrics registry, when one is attached.
    pub fn metrics(&self) -> Option<&Metrics> {
        self.metrics.as_deref()
    }

    /// Register `name` when metrics are enabled; `None` otherwise.
    pub fn metric(&self, name: &str, kind: MetricKind) -> Option<MetricId> {
        self.metrics.as_deref().map(|m| m.register(name, kind))
    }

    /// Bump a counter previously obtained from [`Obs::metric`].
    #[inline]
    pub fn count(&self, id: Option<MetricId>, n: u64) {
        if let (Some(m), Some(id)) = (self.metrics.as_deref(), id) {
            m.add(id, n);
        }
    }

    /// Register-and-add in one call — for cold emission points (pass
    /// boundaries, checkpoint writes) where caching a [`MetricId`] is
    /// not worth the plumbing. No-op without a registry.
    pub fn bump(&self, name: &str, n: u64) {
        if let Some(m) = self.metrics.as_deref() {
            let id = m.register(name, MetricKind::Counter);
            m.add(id, n);
        }
    }

    /// Register-and-set a gauge in one call. No-op without a registry.
    pub fn gauge(&self, name: &str, v: u64) {
        if let Some(m) = self.metrics.as_deref() {
            let id = m.register(name, MetricKind::Gauge);
            m.set(id, v);
        }
    }

    /// Flush the attached sink, if any.
    pub fn flush(&self) {
        if let Some(sink) = &self.sink {
            sink.flush();
        }
    }

    /// Run one database pass: emit `pass_start`, run `count`, and when it
    /// returns `Ok` number the pass from the ledger (1 for the first since
    /// the last [`Obs::clear_passes`]), append its [`PassStats`] row, emit
    /// `pass_end`, bump `passes.completed` and set `last_pass.candidates`.
    /// A pass that fails (a cancelled or faulted scan) returns its error
    /// and leaves no row and no `pass_end`: only completed passes are on
    /// the record.
    pub fn pass<T, E>(
        &self,
        label: &str,
        candidates: usize,
        count: impl FnOnce() -> Result<(T, Scan), E>,
    ) -> Result<T, E> {
        let started = Instant::now();
        self.emit(|| Event::PassStart {
            label: label.to_string(),
            candidates,
        });
        let (value, scan) = count()?;
        let stats = {
            let mut ledger = lock(&self.ledger);
            let stats = PassStats {
                pass: ledger.len() as u64 + 1,
                label: label.to_string(),
                candidates,
                transactions: scan.transactions,
                threads: scan.threads,
                wall: started.elapsed(),
            };
            ledger.push(stats.clone());
            stats
        };
        self.emit(|| Event::PassEnd { stats });
        self.bump(metric::PASSES_COMPLETED, 1);
        self.gauge(metric::LAST_PASS_CANDIDATES, candidates as u64);
        Ok(value)
    }

    /// The ledger's rows: every pass completed since the last
    /// [`Obs::clear_passes`], in execution order, numbered `1..=n`.
    pub fn passes(&self) -> Vec<PassStats> {
        lock(&self.ledger).clone()
    }

    /// Empty the ledger, so the next pass is numbered 1 again. A mining
    /// run starts with this.
    pub fn clear_passes(&self) {
        lock(&self.ledger).clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_serialize_to_single_json_lines() {
        let e = Event::PassEnd {
            stats: PassStats {
                pass: 2,
                label: "L2".into(),
                candidates: 7,
                transactions: 100,
                threads: 4,
                wall: Duration::from_millis(1500),
            },
        };
        let line = e.to_json_line(Some(42));
        assert_eq!(
            line,
            "{\"t_us\":42,\"event\":\"pass_end\",\"pass\":2,\"label\":\"L2\",\"candidates\":7,\"transactions\":100,\"threads\":4,\"wall_s\":1.500000}"
        );
        assert!(!line.contains('\n'));
        let bare = Event::Cancelled {
            reason: "user \"interrupt\"".into(),
        }
        .to_json_line(None);
        assert_eq!(
            bare,
            "{\"event\":\"cancelled\",\"reason\":\"user \\\"interrupt\\\"\"}"
        );
    }

    #[test]
    fn json_num_renders_non_finite_as_null() {
        assert_eq!(json_num(1.5, 3), "1.500");
        assert_eq!(json_num(f64::INFINITY, 3), "null");
        assert_eq!(json_num(f64::NEG_INFINITY, 6), "null");
        assert_eq!(json_num(f64::NAN, 2), "null");
    }

    #[test]
    fn json_escape_handles_specials() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn ring_buffer_keeps_the_newest_events() {
        let ring = RingBufferSink::new(2);
        for i in 0..4 {
            ring.record(&Event::CandidateSet {
                label: format!("L{i}"),
                size: i,
            });
        }
        let events = ring.snapshot();
        assert_eq!(events.len(), 2);
        assert_eq!(
            events[0],
            Event::CandidateSet {
                label: "L2".into(),
                size: 2
            }
        );
        assert_eq!(ring.drain().len(), 2);
        assert!(ring.snapshot().is_empty());
    }

    #[test]
    fn metrics_register_add_set_snapshot() {
        let m = Metrics::new();
        let c = m.register("passes", MetricKind::Counter);
        let g = m.register("gauge.x", MetricKind::Gauge);
        assert_eq!(m.register("passes", MetricKind::Counter), c);
        m.add(c, 3);
        m.add(c, 2);
        m.set(g, 7);
        m.set(g, 9);
        let snap = m.snapshot();
        assert_eq!(
            snap,
            vec![
                ("gauge.x".to_string(), MetricKind::Gauge, 9),
                ("passes".to_string(), MetricKind::Counter, 5),
            ]
        );
    }

    #[test]
    fn metrics_registration_past_the_cap_is_inert() {
        let m = Metrics::new();
        for i in 0..MAX_METRICS {
            m.register(&format!("m{i}"), MetricKind::Counter);
        }
        let over = m.register("overflow", MetricKind::Counter);
        m.add(over, 99);
        m.set(over, 99);
        assert_eq!(m.snapshot().len(), MAX_METRICS);
        assert!(m.snapshot().iter().all(|(_, _, v)| *v == 0));
    }

    #[test]
    fn shards_absorb_to_sequential_totals() {
        let m = Metrics::new();
        let id = m.register("n", MetricKind::Counter);
        let mut a = m.shard();
        let mut b = m.shard();
        a.add(id, 10);
        b.add(id, 5);
        b.add(id, 1);
        m.absorb(&b);
        m.absorb(&a);
        assert_eq!(
            m.snapshot(),
            vec![("n".to_string(), MetricKind::Counter, 16)]
        );
    }

    #[test]
    fn disabled_obs_never_builds_events() {
        let obs = Obs::disabled();
        let mut built = false;
        obs.emit(|| {
            built = true;
            Event::Salvage {
                kept: 0,
                dropped: 0,
            }
        });
        assert!(!built);
        assert!(!obs.is_tracing());
        assert!(obs.metrics().is_none());
        assert!(obs.metric("x", MetricKind::Counter).is_none());
        obs.count(None, 1);
        obs.flush();
    }

    #[test]
    fn enabled_obs_records_and_counts() {
        let ring = Arc::new(RingBufferSink::new(8));
        let metrics = Arc::new(Metrics::new());
        let obs = Obs::disabled()
            .with_sink(ring.clone())
            .with_metrics(metrics.clone());
        assert!(obs.is_tracing());
        obs.emit(|| Event::Salvage {
            kept: 3,
            dropped: 1,
        });
        let id = obs.metric(metric::RETRIES, MetricKind::Counter);
        obs.count(id, 2);
        obs.count(id, 1);
        assert_eq!(ring.snapshot().len(), 1);
        assert_eq!(
            metrics.snapshot(),
            vec![(metric::RETRIES.to_string(), MetricKind::Counter, 3)]
        );
        let clone = obs.clone();
        clone.emit(|| Event::Salvage {
            kept: 0,
            dropped: 0,
        });
        assert_eq!(ring.snapshot().len(), 2, "clones share the sink");
        assert!(format!("{obs:?}").contains("sink: true"));
    }

    #[test]
    fn pass_ledger_numbers_and_records_completed_passes_only() {
        let ring = Arc::new(RingBufferSink::new(16));
        let metrics = Arc::new(Metrics::new());
        let obs = Obs::disabled()
            .with_sink(ring.clone())
            .with_metrics(metrics.clone());
        let scan = Scan {
            transactions: 10,
            threads: 2,
        };
        assert_eq!(obs.pass("L1", 4, || Ok::<_, ()>((7, scan))), Ok(7));
        assert_eq!(
            obs.pass("L2", 3, || Err::<((), Scan), _>("cut")),
            Err("cut")
        );
        let clone = obs.clone();
        clone
            .pass("negative", 5, || Ok::<_, ()>(((), scan)))
            .unwrap();
        let rows = obs.passes();
        let numbered: Vec<(u64, &str, usize)> = rows
            .iter()
            .map(|r| (r.pass, r.label.as_str(), r.candidates))
            .collect();
        assert_eq!(
            numbered,
            [(1, "L1", 4), (2, "negative", 5)],
            "clones share one ledger"
        );
        assert!(rows.iter().all(|r| r.transactions == 10 && r.threads == 2));
        let events = ring.snapshot();
        let starts = events
            .iter()
            .filter(|e| matches!(e, Event::PassStart { .. }))
            .count();
        let ends: Vec<PassStats> = events
            .iter()
            .filter_map(|e| match e {
                Event::PassEnd { stats } => Some(stats.clone()),
                _ => None,
            })
            .collect();
        assert_eq!(starts, 3, "the failed pass announced itself");
        assert_eq!(ends, rows, "pass_end events are the ledger rows");
        let counters = metrics.snapshot();
        assert!(counters.contains(&(metric::PASSES_COMPLETED.into(), MetricKind::Counter, 2)));
        assert!(counters.contains(&(metric::LAST_PASS_CANDIDATES.into(), MetricKind::Gauge, 5)));
        obs.clear_passes();
        assert!(clone.passes().is_empty());
        let bare = Obs::disabled();
        bare.pass("L1", 1, || Ok::<_, ()>(((), scan))).unwrap();
        assert_eq!(
            bare.passes().len(),
            1,
            "a handle without a sink keeps its ledger"
        );
        clone.pass("L1", 1, || Ok::<_, ()>(((), scan))).unwrap();
        assert_eq!(obs.passes()[0].pass, 1, "a cleared ledger numbers from 1");
    }

    #[test]
    fn jsonl_sink_writes_parseable_lines() {
        let dir = std::env::temp_dir().join(format!("obs-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.jsonl");
        let sink = JsonLinesSink::create(&path).unwrap();
        sink.record(&Event::PassStart {
            label: "L1".into(),
            candidates: 5,
        });
        sink.record(&Event::RunEnd {
            passes: 1,
            wall: Duration::from_secs(1),
        });
        sink.flush();
        assert_eq!(sink.error(), 0);
        let body = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = body.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("{\"t_us\":"));
        assert!(lines[0].contains("\"event\":\"pass_start\""));
        assert!(lines[1].ends_with('}'));
        std::fs::remove_dir_all(&dir).ok();
    }
}
