//! Fixed-size transaction blocks and a scoped worker-pool pass executor.
//!
//! Support counting dominates every pass of the paper's pipeline, and
//! per-partition counts merge additively (Savasere et al., VLDB '95;
//! Agrawal & Shafer's count distribution, TKDE '96). This module supplies
//! the substrate both facts rest on:
//!
//! * [`Parallelism`] — the policy knob every miner takes (sequential,
//!   a fixed thread count, or whatever the machine offers),
//! * [`TransactionBlock`] — an owned, flat batch of consecutive
//!   transactions cut from any [`TransactionSource`] stream,
//! * [`parallel_pass`] — one database pass fanned out over
//!   `std::thread::scope` workers through a bounded channel.
//!
//! The executor works for *streamed* sources because the producer — the
//! caller's thread — is the only one that touches the source: it runs the
//! single `pass`, copies transactions into blocks, and hands the blocks to
//! workers. Workers never share mutable state on the hot path; each owns
//! its private accumulator (`W`) and the only lock taken is a
//! block-granularity pop from the shared queue. Results are combined by
//! the caller after all workers finish, in spawn order, so any additive
//! merge is deterministic.
//!
//! This is the one module allowed to create threads (xtask lint L007
//! forbids bare `std::thread::spawn` everywhere; scoped workers confine
//! every thread's lifetime to the pass that spawned it).
//!
//! A pass can be cancelled cooperatively: [`parallel_pass`] takes an
//! optional [`CancelToken`] that the producer checks between blocks and
//! workers check between pops (the pop switches from a blocking `recv()`
//! to a short `recv_timeout`, so a cancelled pool wakes and drains within
//! one poll interval instead of blocking forever). A cancelled pass
//! returns the token's [`crate::ctrl::Cancellation`] as an
//! [`io::ErrorKind::Interrupted`] error — never partial counts.

use crate::ctrl::CancelToken;
use crate::obs::{metric, Event, MetricId, MetricKind, Metrics, Obs};
use crate::scan::TransactionSource;
use crate::transaction::Transaction;
use negassoc_taxonomy::ItemId;
use std::io;
use std::sync::mpsc;
use std::sync::Mutex;
use std::time::Duration;

/// Transactions per block handed to a worker. Large enough that the
/// per-block channel/lock traffic is noise, small enough that a handful of
/// in-flight blocks fit comfortably in cache.
pub const DEFAULT_BLOCK_SIZE: usize = 1024;

/// How many worker threads a counting pass may use.
///
/// Whatever the policy, counts are **exact** and results are byte-identical
/// to a sequential run: blocks partition the stream, per-block tallies are
/// order-independent `u64` additions, and the final merge visits workers in
/// spawn order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Parallelism {
    /// One thread, no channel, no worker pool (the default).
    #[default]
    Sequential,
    /// Exactly this many worker threads (`0` is treated as `1`; the miner
    /// configuration layer rejects it earlier with a proper error).
    Threads(usize),
    /// `std::thread::available_parallelism`, falling back to one thread
    /// when the runtime cannot tell.
    Auto,
}

impl Parallelism {
    /// The concrete worker count this policy resolves to (always ≥ 1).
    pub fn resolve(self) -> usize {
        match self {
            Parallelism::Sequential => 1,
            Parallelism::Threads(n) => n.max(1),
            Parallelism::Auto => std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
        }
    }
}

/// An owned, contiguous run of transactions cut from a source's pass.
///
/// Flat storage (one item array plus offsets) mirrors
/// [`crate::TransactionDb`]; `start` records the run's position in the
/// stream so consumers that care about absolute transaction positions
/// can reconstruct them as `start + index_in_block`.
#[derive(Clone, Debug, Default)]
pub struct TransactionBlock {
    start: u64,
    tids: Vec<u64>,
    items: Vec<ItemId>,
    offsets: Vec<usize>,
}

impl TransactionBlock {
    /// An empty block whose first transaction will sit at stream position
    /// `start`.
    pub fn with_start(start: u64) -> Self {
        Self {
            start,
            tids: Vec::new(),
            items: Vec::new(),
            offsets: vec![0],
        }
    }

    /// Stream position of the block's first transaction.
    #[inline]
    pub fn start(&self) -> u64 {
        self.start
    }

    /// Number of transactions in the block.
    #[inline]
    pub fn len(&self) -> usize {
        self.tids.len()
    }

    /// `true` when the block holds no transactions.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.tids.is_empty()
    }

    /// Append a copy of `t`.
    pub fn push(&mut self, t: Transaction<'_>) {
        self.tids.push(t.tid());
        self.items.extend_from_slice(t.items());
        self.offsets.push(self.items.len());
    }

    /// Empty the block (keeping its allocations) and move it to stream
    /// position `start`.
    pub fn reset(&mut self, start: u64) {
        self.start = start;
        self.tids.clear();
        self.items.clear();
        self.offsets.clear();
        self.offsets.push(0);
    }

    /// The transactions of the block, in stream order.
    pub fn iter(&self) -> impl Iterator<Item = Transaction<'_>> {
        (0..self.len()).map(move |i| {
            Transaction::new(
                self.tids[i],
                &self.items[self.offsets[i]..self.offsets[i + 1]],
            )
        })
    }
}

impl TransactionSource for TransactionBlock {
    fn pass(&self, f: &mut dyn FnMut(Transaction<'_>)) -> io::Result<()> {
        for t in self.iter() {
            f(t);
        }
        Ok(())
    }

    fn len_hint(&self) -> Option<u64> {
        Some(self.len() as u64)
    }
}

/// Map `f` over `items` on up to `threads` scoped workers, returning the
/// results **in input order** (so any downstream fold is deterministic).
///
/// Items are dealt out in contiguous chunks, one per worker; with
/// `threads <= 1` (or a single chunk) everything runs inline on the
/// caller. This is the coarse-grained sibling of [`parallel_pass`], used
/// where the unit of work is bigger than a transaction block — e.g. mining
/// whole database partitions independently. A worker panic is re-raised on
/// the caller.
pub fn parallel_map<T, R, F>(items: Vec<T>, threads: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = items.len();
    let chunk = n.div_ceil(threads.max(1)).max(1);
    if threads <= 1 || n <= chunk {
        return items.into_iter().map(f).collect();
    }
    let mut chunks: Vec<Vec<T>> = Vec::new();
    let mut items = items.into_iter();
    loop {
        let c: Vec<T> = items.by_ref().take(chunk).collect();
        if c.is_empty() {
            break;
        }
        chunks.push(c);
    }
    let f = &f;
    std::thread::scope(|scope| {
        let handles: Vec<_> = chunks
            .into_iter()
            .map(|c| scope.spawn(move || c.into_iter().map(f).collect::<Vec<R>>()))
            .collect();
        let mut out = Vec::with_capacity(n);
        for handle in handles {
            match handle.join() {
                Ok(rs) => out.extend(rs),
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
        out
    })
}

/// The per-worker metric ids a pass registers up front (cold path), so
/// the hot path is a plain shard increment.
#[derive(Clone, Copy)]
struct PassMetricIds {
    blocks: MetricId,
    transactions: MetricId,
}

fn pass_metric_ids(obs: &Obs) -> Option<PassMetricIds> {
    obs.metrics().map(|m| PassMetricIds {
        blocks: m.register(metric::BLOCKS_DISPATCHED, MetricKind::Counter),
        transactions: m.register(metric::TRANSACTIONS_SCANNED, MetricKind::Counter),
    })
}

/// How long a worker waits on the queue before re-checking the cancel
/// token. Bounds cancellation latency on an idle pool; on a busy pool the
/// token is checked after every block instead.
const CTRL_POLL: Duration = Duration::from_millis(20);

/// The one send path to the worker pool: a failure means every receiver is
/// gone (workers panicked, or all broke out on cancellation), and both
/// producer sites must record it the same way so the pass stops feeding a
/// dead pool. The join loop re-raises any worker panic afterwards.
fn send_or_note_gone(
    tx: &mpsc::SyncSender<TransactionBlock>,
    block: TransactionBlock,
    receivers_gone: &mut bool,
) {
    *receivers_gone = tx.send(block).is_err();
}

/// One database pass, fanned out over `threads` scoped workers.
///
/// The calling thread is the producer: it runs `source.pass` once, slices
/// the stream into blocks of `block_size` transactions and feeds them to a
/// bounded channel. Each worker builds its private state with
/// `make_worker`, folds blocks into it with `process`, and reduces it to a
/// result with `finish`. Returns the per-worker results **in spawn order**
/// plus the number of transactions scanned.
///
/// With `threads <= 1` no thread, channel or lock is involved: the same
/// `make_worker`/`process`/`finish` cycle runs inline on the caller, so
/// sequential and parallel executions share one code path and one answer.
///
/// A worker panic is re-raised on the caller; an `Err` from the source's
/// pass is returned after the workers have drained and exited.
///
/// Cancellation: when `ctrl` is `Some`, the token is consulted at block
/// granularity on every thread involved: the producer stops slicing the
/// stream, workers stop popping (their blocking `recv()` becomes a
/// [`CTRL_POLL`] `recv_timeout`, so even an idle worker wakes promptly),
/// and the pass returns the token's cancellation error. Counting progress
/// is reported back through [`CancelToken::record_progress`] — one unit
/// per transaction — which is what the stall watchdog listens to.
///
/// A cancelled pass never returns partial tallies: any cancellation
/// observed before return yields `Err`, and the caller's own completed
/// state (e.g. previously checkpointed passes) is the only survivor.
///
/// Observability: `obs` sees one [`Event::BlockDispatch`] per block fed
/// to the pool and one [`Event::BlockMerge`] when a completed pass
/// merges its workers; the [`metric::BLOCKS_DISPATCHED`] and
/// [`metric::TRANSACTIONS_SCANNED`] counters are accumulated in private
/// per-worker [`crate::obs::MetricsShard`]s and absorbed at the merge —
/// the same discipline as the count merge itself.
#[allow(clippy::too_many_arguments)]
pub fn parallel_pass<S, W, R, FNew, FProc, FFin>(
    source: &S,
    threads: usize,
    block_size: usize,
    ctrl: Option<&CancelToken>,
    obs: &Obs,
    make_worker: FNew,
    process: FProc,
    finish: FFin,
) -> io::Result<(Vec<R>, u64)>
where
    S: TransactionSource + ?Sized,
    R: Send,
    FNew: Fn() -> W + Sync,
    FProc: Fn(&mut W, &TransactionBlock) + Sync,
    FFin: Fn(W) -> R + Sync,
{
    let block_size = block_size.max(1);
    let metric_ids = pass_metric_ids(obs);
    if threads <= 1 {
        let mut worker = make_worker();
        let mut shard = obs.metrics().map(Metrics::shard);
        let mut block = TransactionBlock::with_start(0);
        let mut total = 0u64;
        let mut cancelled = false;
        source.pass(&mut |t| {
            if cancelled {
                return;
            }
            block.push(t);
            total += 1;
            if block.len() >= block_size {
                obs.emit(|| Event::BlockDispatch {
                    start: block.start(),
                    transactions: block.len(),
                });
                process(&mut worker, &block);
                if let (Some(s), Some(ids)) = (shard.as_mut(), metric_ids) {
                    s.add(ids.blocks, 1);
                    s.add(ids.transactions, block.len() as u64);
                }
                if let Some(c) = ctrl {
                    c.record_progress(block.len() as u64);
                    cancelled = c.is_cancelled();
                }
                let next = block.start() + block.len() as u64;
                block.reset(next);
            }
        })?;
        if let Some(c) = ctrl {
            c.check()?;
        }
        if !block.is_empty() {
            obs.emit(|| Event::BlockDispatch {
                start: block.start(),
                transactions: block.len(),
            });
            process(&mut worker, &block);
            if let (Some(s), Some(ids)) = (shard.as_mut(), metric_ids) {
                s.add(ids.blocks, 1);
                s.add(ids.transactions, block.len() as u64);
            }
            if let Some(c) = ctrl {
                c.record_progress(block.len() as u64);
            }
        }
        if let (Some(m), Some(s)) = (obs.metrics(), shard.as_ref()) {
            m.absorb(s);
        }
        obs.emit(|| Event::BlockMerge {
            workers: 1,
            transactions: total,
        });
        return Ok((vec![finish(worker)], total));
    }

    // Bounded: the producer stays at most a few blocks ahead, so a
    // streamed source never balloons into memory. The receiver is owned
    // collectively by the workers (one Arc handle each, dropped on exit —
    // normal, cancelled or panicking), so "every worker is gone" is
    // observable by the producer as a failed send even while it is blocked
    // on the full channel: the blocked-waiters path wakes instead of
    // waiting forever.
    let (tx, rx) = mpsc::sync_channel::<TransactionBlock>(threads * 2);
    // negassoc-lint: allow(L012) -- this lock serializes only the queue pop (see the worker loop below), never the counting work itself
    let rx = std::sync::Arc::new(Mutex::new(rx));
    let (results, total, pass_result) = std::thread::scope(|scope| {
        let make_worker = &make_worker;
        let process = &process;
        let finish = &finish;
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let rx = std::sync::Arc::clone(&rx);
                scope.spawn(move || {
                    let mut worker = make_worker();
                    let mut shard = obs.metrics().map(Metrics::shard);
                    loop {
                        // The lock is held across the pop: blocked waiters
                        // simply queue behind it, which serializes only the
                        // *pop*, never the counting work.
                        let next = {
                            let guard = match rx.lock() {
                                Ok(g) => g,
                                // A sibling panicked while holding the
                                // lock; the queue itself is still sound.
                                Err(poisoned) => poisoned.into_inner(),
                            };
                            match ctrl {
                                // No token: a plain blocking recv(); the
                                // producer's hang-up is the only wake-up
                                // needed.
                                None => guard.recv().map_err(|_| None),
                                // With a token the pop must wake on its own
                                // to notice cancellation even when the
                                // producer is stuck upstream.
                                Some(c) => guard.recv_timeout(CTRL_POLL).map_err(|e| match e {
                                    mpsc::RecvTimeoutError::Timeout => Some(c),
                                    mpsc::RecvTimeoutError::Disconnected => None,
                                }),
                            }
                        };
                        match next {
                            Ok(block) => {
                                process(&mut worker, &block);
                                if let (Some(s), Some(ids)) = (shard.as_mut(), metric_ids) {
                                    s.add(ids.blocks, 1);
                                    s.add(ids.transactions, block.len() as u64);
                                }
                                if let Some(c) = ctrl {
                                    c.record_progress(block.len() as u64);
                                    if c.is_cancelled() {
                                        break;
                                    }
                                }
                            }
                            // Producer hung up and the queue is drained.
                            Err(None) => break,
                            // Poll expired: drop the lock, re-check, wait
                            // again. Breaking drops our receiver handle,
                            // which is what unblocks a producer stuck in
                            // send() on a full channel.
                            Err(Some(c)) => {
                                if c.is_cancelled() {
                                    break;
                                }
                            }
                        }
                    }
                    // Pass boundary: the private shard merges additively
                    // into the shared registry, like the counts below.
                    if let (Some(m), Some(s)) = (obs.metrics(), shard.as_ref()) {
                        m.absorb(s);
                    }
                    finish(worker)
                })
            })
            .collect();
        // The workers hold the only remaining receiver handles; releasing
        // the producer's keeps the pool's lifetime honest.
        drop(rx);

        let mut total = 0u64;
        let mut block = TransactionBlock::with_start(0);
        let mut receivers_gone = false;
        let mut cancelled = false;
        let pass_result = source.pass(&mut |t| {
            if receivers_gone || cancelled {
                return;
            }
            block.push(t);
            total += 1;
            if block.len() >= block_size {
                obs.emit(|| Event::BlockDispatch {
                    start: block.start(),
                    transactions: block.len(),
                });
                let next = block.start() + block.len() as u64;
                let full = std::mem::replace(&mut block, TransactionBlock::with_start(next));
                send_or_note_gone(&tx, full, &mut receivers_gone);
                cancelled = ctrl.is_some_and(CancelToken::is_cancelled);
            }
        });
        if !receivers_gone && !cancelled && !block.is_empty() {
            obs.emit(|| Event::BlockDispatch {
                start: block.start(),
                transactions: block.len(),
            });
            send_or_note_gone(&tx, block, &mut receivers_gone);
        }
        drop(tx); // hang up: workers drain the queue and finish

        let mut results = Vec::with_capacity(handles.len());
        for handle in handles {
            match handle.join() {
                Ok(r) => results.push(r),
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
        (results, total, pass_result)
    });
    pass_result?;
    if let Some(c) = ctrl {
        c.check()?;
    }
    obs.emit(|| Event::BlockMerge {
        workers: results.len(),
        transactions: total,
    });
    Ok((results, total))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{TransactionDb, TransactionDbBuilder};

    fn sample_db(n: usize) -> TransactionDb {
        let mut b = TransactionDbBuilder::new();
        for i in 0..n {
            b.add([ItemId((i % 5) as u32), ItemId(7 + (i % 3) as u32)]);
        }
        b.build()
    }

    #[test]
    fn parallelism_resolution() {
        assert_eq!(Parallelism::Sequential.resolve(), 1);
        assert_eq!(Parallelism::Threads(4).resolve(), 4);
        assert_eq!(Parallelism::Threads(0).resolve(), 1);
        assert!(Parallelism::Auto.resolve() >= 1);
        assert_eq!(Parallelism::default(), Parallelism::Sequential);
    }

    #[test]
    fn block_roundtrips_transactions() {
        let db = sample_db(3);
        let mut block = TransactionBlock::with_start(10);
        db.pass(&mut |t| block.push(t)).unwrap();
        assert_eq!(block.len(), 3);
        assert_eq!(block.start(), 10);
        assert!(!block.is_empty());
        let collected: Vec<(u64, Vec<ItemId>)> = block
            .iter()
            .map(|t| (t.tid(), t.items().to_vec()))
            .collect();
        let mut expect = Vec::new();
        db.pass(&mut |t| expect.push((t.tid(), t.items().to_vec())))
            .unwrap();
        assert_eq!(collected, expect);
        // Blocks are themselves sources.
        assert_eq!(block.len_hint(), Some(3));
        let mut n = 0;
        TransactionSource::pass(&block, &mut |_| n += 1).unwrap();
        assert_eq!(n, 3);
        block.reset(99);
        assert!(block.is_empty());
        assert_eq!(block.start(), 99);
    }

    /// Sum of all item values, counted per block, must be independent of
    /// thread count and block size.
    #[test]
    fn executor_matches_sequential_fold() {
        let db = sample_db(257); // deliberately not a block multiple
        let mut expect = 0u64;
        db.pass(&mut |t| expect += t.items().iter().map(|i| u64::from(i.0)).sum::<u64>())
            .unwrap();
        for threads in [1, 2, 4, 8] {
            for block_size in [1, 3, 64, 1024] {
                let (parts, total) = parallel_pass(
                    &db,
                    threads,
                    block_size,
                    None,
                    &Obs::disabled(),
                    || 0u64,
                    |acc, block| {
                        block.iter().for_each(|t| {
                            *acc += t.items().iter().map(|i| u64::from(i.0)).sum::<u64>()
                        })
                    },
                    |acc| acc,
                )
                .unwrap();
                assert_eq!(total, 257, "threads {threads} block {block_size}");
                assert_eq!(
                    parts.iter().sum::<u64>(),
                    expect,
                    "threads {threads} block {block_size}"
                );
                assert_eq!(parts.len(), threads.max(1));
            }
        }
    }

    /// Block starts partition the stream exactly: every position is
    /// delivered once, regardless of which worker got which block.
    #[test]
    fn block_starts_cover_the_stream() {
        let db = sample_db(100);
        let (parts, total) = parallel_pass(
            &db,
            3,
            7,
            None,
            &Obs::disabled(),
            Vec::new,
            |acc: &mut Vec<u64>, block| {
                acc.extend((0..block.len()).map(|i| block.start() + i as u64))
            },
            |acc| acc,
        )
        .unwrap();
        let mut positions: Vec<u64> = parts.into_iter().flatten().collect();
        positions.sort_unstable();
        assert_eq!(total, 100);
        assert_eq!(positions, (0..100).collect::<Vec<u64>>());
    }

    #[test]
    fn source_errors_propagate() {
        struct Failing;
        impl TransactionSource for Failing {
            fn pass(&self, f: &mut dyn FnMut(Transaction<'_>)) -> io::Result<()> {
                let items = [ItemId(1)];
                f(Transaction::new(0, &items));
                Err(io::Error::other("boom"))
            }
        }
        for threads in [1, 4] {
            let err = parallel_pass(
                &Failing,
                threads,
                8,
                None,
                &Obs::disabled(),
                || (),
                |_, _| (),
                |_| (),
            )
            .err()
            .map(|e| e.to_string());
            assert_eq!(err.as_deref(), Some("boom"), "threads {threads}");
        }
    }

    #[test]
    fn parallel_map_preserves_input_order() {
        let items: Vec<u32> = (0..37).collect();
        let expect: Vec<u64> = items.iter().map(|&i| u64::from(i) * 3 + 1).collect();
        for threads in [1, 2, 4, 16, 64] {
            let got = parallel_map(items.clone(), threads, |i| u64::from(i) * 3 + 1);
            assert_eq!(got, expect, "threads {threads}");
        }
        let empty: Vec<u32> = Vec::new();
        assert!(parallel_map(empty, 4, |i| i).is_empty());
    }

    #[test]
    fn empty_source_yields_one_result_per_worker() {
        let db = TransactionDbBuilder::new().build();
        let (parts, total) = parallel_pass(
            &db,
            2,
            16,
            None,
            &Obs::disabled(),
            || 1u32,
            |_, _| (),
            |w| w,
        )
        .unwrap();
        assert_eq!(total, 0);
        assert_eq!(parts, vec![1, 1]);
    }

    /// Regression for the blocked-waiters path: with every worker dead
    /// from a panic and the bounded channel full, the producer's `send`
    /// must fail (receiver dropped with the last worker) instead of
    /// blocking forever, and the join must re-raise the panic.
    #[test]
    fn worker_panic_unblocks_a_full_channel_producer() {
        // Plenty of one-transaction blocks versus a channel of depth
        // threads * 2 = 4 guarantees the producer hits a full channel.
        let db = sample_db(10_000);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            parallel_pass(
                &db,
                2,
                1,
                None,
                &Obs::disabled(),
                || (),
                |_, _| panic!("worker died"),
                |_| (),
            )
        }));
        let payload = result.expect_err("the worker panic must propagate to the caller");
        let msg = payload
            .downcast_ref::<&str>()
            .copied()
            .unwrap_or("<non-str payload>");
        assert_eq!(msg, "worker died");
    }

    use crate::ctrl::{cancellation_of, CancelReason, CancelToken};

    #[test]
    fn pre_cancelled_token_fails_the_pass_on_any_thread_count() {
        let db = sample_db(500);
        for threads in [1, 4] {
            let token = CancelToken::new();
            token.cancel(CancelReason::DeadlineExceeded);
            let err = parallel_pass(
                &db,
                threads,
                16,
                Some(&token),
                &Obs::disabled(),
                || 0u64,
                |_, _| (),
                |w| w,
            )
            .unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::Interrupted, "threads {threads}");
            assert_eq!(
                cancellation_of(&err),
                Some(CancelReason::DeadlineExceeded),
                "threads {threads}"
            );
        }
    }

    #[test]
    fn cancellation_mid_pass_errors_and_the_pool_drains() {
        let db = sample_db(50_000);
        for threads in [1, 4] {
            let token = CancelToken::new();
            let trip = token.clone();
            // The worker itself trips the token after the first block it
            // sees: producer and siblings must all notice and wind down.
            let err = parallel_pass(
                &db,
                threads,
                16,
                Some(&token),
                &Obs::disabled(),
                || (),
                move |_, _| {
                    trip.cancel(CancelReason::UserInterrupt);
                },
                |_| (),
            )
            .unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::Interrupted, "threads {threads}");
            assert_eq!(
                cancellation_of(&err),
                Some(CancelReason::UserInterrupt),
                "threads {threads}"
            );
            assert!(token.progress() > 0, "processed blocks must heartbeat");
            assert!(
                token.progress() < 50_000,
                "threads {threads}: cancellation must stop the pass early"
            );
        }
    }

    /// The pool's observability: dispatch/merge events land in the sink
    /// and worker shards merge to exact totals for any thread count.
    #[test]
    fn observed_pass_reports_blocks_and_exact_metrics() {
        use crate::obs::{metric, MetricKind, RingBufferSink};
        use std::sync::Arc;
        let db = sample_db(257);
        for threads in [1, 4] {
            let ring = Arc::new(RingBufferSink::new(1024));
            let metrics = Arc::new(Metrics::new());
            let obs = Obs::disabled()
                .with_sink(ring.clone())
                .with_metrics(metrics.clone());
            let (_, total) =
                parallel_pass(&db, threads, 64, None, &obs, || (), |_, _| (), |w| w).unwrap();
            assert_eq!(total, 257);
            let events = ring.snapshot();
            let dispatched: u64 = events
                .iter()
                .filter_map(|e| match e {
                    Event::BlockDispatch { transactions, .. } => Some(*transactions as u64),
                    _ => None,
                })
                .sum();
            assert_eq!(dispatched, 257, "threads {threads}");
            assert!(
                matches!(
                    events.last(),
                    Some(Event::BlockMerge {
                        transactions: 257,
                        ..
                    })
                ),
                "threads {threads}: the merge closes the pass"
            );
            let snap = metrics.snapshot();
            let value = |name: &str| snap.iter().find(|(n, _, _)| n == name).map(|(_, _, v)| *v);
            assert_eq!(
                value(metric::TRANSACTIONS_SCANNED),
                Some(257),
                "threads {threads}: shards merge to the sequential total"
            );
            assert_eq!(value(metric::BLOCKS_DISPATCHED), Some(257_u64.div_ceil(64)));
            assert!(snap.iter().all(|(_, k, _)| *k == MetricKind::Counter));
        }
    }

    #[test]
    fn live_token_changes_nothing_and_heartbeats() {
        let db = sample_db(257);
        let mut expect = 0u64;
        db.pass(&mut |t| expect += t.items().iter().map(|i| u64::from(i.0)).sum::<u64>())
            .unwrap();
        for threads in [1, 4] {
            let token = CancelToken::new();
            let (parts, total) = parallel_pass(
                &db,
                threads,
                64,
                Some(&token),
                &Obs::disabled(),
                || 0u64,
                |acc, block| {
                    block
                        .iter()
                        .for_each(|t| *acc += t.items().iter().map(|i| u64::from(i.0)).sum::<u64>())
                },
                |acc| acc,
            )
            .unwrap();
            assert_eq!(total, 257, "threads {threads}");
            assert_eq!(parts.iter().sum::<u64>(), expect, "threads {threads}");
            assert_eq!(token.progress(), 257, "threads {threads}");
            assert!(!token.is_cancelled());
        }
    }
}
