//! The shared parallel support-counting layer.
//!
//! Every pass-based miner in the workspace funnels its counting through
//! this module: [`count_mixed_parallel`] (candidates of any sizes, one
//! pass) and [`count_items_parallel`] (the level-1 per-item tally). Both
//! stream *any* [`TransactionSource`] — in-memory or file-backed — through
//! [`negassoc_txdb::block::parallel_pass`]: the caller's thread slices the
//! single pass into fixed-size blocks, a pool of `std::thread::scope`
//! workers counts them with private [`HashTree`]/hash-map structures and
//! mapper buffers (no locks on the hot path), and per-candidate counts are
//! merged additively at the end.
//!
//! Counts are **exact**: blocks partition the pass, so per-worker tallies
//! are partition counts that sum to the sequential answer (Savasere et
//! al.'s Partition invariant; Agrawal & Shafer's count distribution). The
//! merge is *total* — every candidate appears exactly once in the output,
//! in the order the caller supplied — so sequential and parallel runs of
//! the same pass produce identical `(candidate, count)` sequences, which
//! is the foundation of the pipeline's byte-identical-output contract.
//!
//! [`HashTree`]: crate::hash_tree::HashTree

use crate::count::{items_of, BitmapPlan, Counter, CountingBackend};
use crate::itemset::Itemset;
use negassoc_taxonomy::fxhash::{FxHashMap, FxHashSet};
use negassoc_taxonomy::ItemId;
use negassoc_txdb::block::{parallel_pass_ctrl, DEFAULT_BLOCK_SIZE};
use negassoc_txdb::TransactionSource;
use std::io;

pub use negassoc_txdb::block::Parallelism;
pub use negassoc_txdb::ctrl::CancelToken;
pub use negassoc_txdb::obs::{Obs, PassStats};

/// A transaction mapper shareable across counting workers (the `Sync`
/// sibling of [`crate::count::Mapper`]): transforms a transaction's items
/// into the counting buffer, e.g. taxonomy-ancestor extension. Must leave
/// the buffer strictly ascending.
pub type SyncMapper<'a> = dyn Fn(&[ItemId], &mut Vec<ItemId>) + Sync + 'a;

/// The identity [`SyncMapper`]: count over the literal transaction items.
pub fn identity_sync_mapper(items: &[ItemId], buf: &mut Vec<ItemId>) {
    buf.clear();
    buf.extend_from_slice(items);
}

/// What one counting pass did: the exact counts plus the telemetry the
/// `--pass-stats` report surfaces.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PassRun {
    /// `(candidate, support)` for every input candidate, in input order.
    pub counts: Vec<(Itemset, u64)>,
    /// Transactions scanned by the pass.
    pub transactions: u64,
    /// Worker threads the pass actually used.
    pub threads: usize,
}

/// Count supports of mixed-size `candidates` in a single pass of `source`
/// using the worker pool `parallelism` resolves to.
///
/// This is the workspace's one parallel counting entry point (the former
/// in-memory-only partitioned counter is folded into it). Semantics match
/// [`crate::count::count_mixed`] exactly — same grouping per candidate
/// size, same per-size item filters — with two guarantees on top:
///
/// * **total merge**: the output holds every input candidate exactly once,
///   in input order, with its exact support (nothing is silently dropped),
/// * **determinism**: the output is identical for every `parallelism`
///   value, because block counts are order-independent `u64` additions.
pub fn count_mixed_parallel<S: TransactionSource + ?Sized>(
    source: &S,
    candidates: Vec<Itemset>,
    backend: CountingBackend,
    mapper: &SyncMapper<'_>,
    parallelism: Parallelism,
) -> io::Result<PassRun> {
    count_mixed_parallel_ctrl(
        source,
        candidates,
        backend,
        mapper,
        parallelism,
        None,
        &Obs::disabled(),
    )
}

/// [`count_mixed_parallel`] with cooperative cancellation: the pool checks
/// `ctrl` at block boundaries and a cancelled pass returns the token's
/// [`io::ErrorKind::Interrupted`] error instead of partial counts (see
/// [`negassoc_txdb::ctrl`]). Block dispatch/merge events and the scan
/// counters flow to `obs` (see [`negassoc_txdb::obs`]).
// negassoc-lint: allow(L010) -- parallel_pass_ctrl polls at block boundaries; the loops here are candidate grouping and worker-closure counting over blocks it already dispatched
pub fn count_mixed_parallel_ctrl<S: TransactionSource + ?Sized>(
    source: &S,
    candidates: Vec<Itemset>,
    backend: CountingBackend,
    mapper: &SyncMapper<'_>,
    parallelism: Parallelism,
    ctrl: Option<&CancelToken>,
    obs: &Obs,
) -> io::Result<PassRun> {
    let threads = parallelism.resolve();
    if candidates.is_empty() {
        return Ok(PassRun {
            counts: Vec::new(),
            transactions: 0,
            threads,
        });
    }
    if backend == CountingBackend::TidBitmap {
        return count_mixed_parallel_bitmap(source, candidates, mapper, threads, ctrl, obs);
    }

    // Group by size once; workers clone the per-size candidate lists to
    // build their private counting structures. The per-size item filter
    // (see count_mixed) is shared read-only across the pool.
    let mut by_size: FxHashMap<usize, Vec<Itemset>> = FxHashMap::default();
    for c in &candidates {
        by_size.entry(c.len()).or_default().push(c.clone());
    }
    let mut groups: Vec<(usize, Vec<Itemset>, FxHashSet<ItemId>)> = by_size
        .into_iter()
        .filter(|(k, _)| *k > 0)
        .map(|(k, cands)| {
            let needed = items_of(&cands);
            (k, cands, needed)
        })
        .collect();
    // Deterministic worker construction order (hash maps iterate in
    // arbitrary order; sizes are few).
    groups.sort_unstable_by_key(|(k, _, _)| *k);
    let single = groups.len() == 1;
    let groups = &groups;

    struct Worker {
        counters: Vec<Counter>,
        buf: Vec<ItemId>,
        scratch: Vec<ItemId>,
    }

    let (parts, transactions) = parallel_pass_ctrl(
        source,
        threads,
        DEFAULT_BLOCK_SIZE,
        ctrl,
        obs,
        || Worker {
            counters: groups
                .iter()
                .map(|(k, cands, _)| Counter::build(*k, cands.clone(), backend))
                .collect(),
            buf: Vec::new(),
            scratch: Vec::new(),
        },
        |w, block| {
            for t in block.iter() {
                mapper(t.items(), &mut w.buf);
                for (counter, (_, _, needed)) in w.counters.iter_mut().zip(groups.iter()) {
                    if single {
                        // One size: the caller's mapper already filtered.
                        counter.count(&w.buf);
                    } else {
                        w.scratch.clear();
                        w.scratch
                            .extend(w.buf.iter().copied().filter(|i| needed.contains(i)));
                        counter.count(&w.scratch);
                    }
                }
            }
        },
        |w| -> Vec<(Itemset, u64)> {
            w.counters
                .into_iter()
                .flat_map(Counter::into_counts)
                .collect()
        },
    )?;

    // Total additive merge: seeded with a zero for every candidate, so no
    // worker-reported count can be dropped and unseen candidates still
    // appear (with support 0).
    let mut merged: FxHashMap<Itemset, u64> = candidates.iter().map(|c| (c.clone(), 0)).collect();
    for part in parts {
        for (set, count) in part {
            *merged.entry(set).or_insert(0) += count;
        }
    }
    let counts: Vec<(Itemset, u64)> = candidates
        .into_iter()
        .map(|c| {
            let n = merged.remove(&c).unwrap_or(0);
            (c, n)
        })
        .collect();
    debug_assert!(
        merged.is_empty(),
        "counting produced itemsets outside the candidate set"
    );
    Ok(PassRun {
        counts,
        transactions,
        threads,
    })
}

/// The TID-bitmap arm of [`count_mixed_parallel_ctrl`]: build and count in
/// the *same* single pass. Each worker fills a private
/// [`VerticalWorker`] from the transactions it is dealt — packed
/// [`BitmapChunk`] row-ranges (one bit slot per transaction, rows only for
/// items the candidates mention) answered by word-wise AND + popcount, or,
/// when the plan picks it, a triangular pair matrix read cell by cell —
/// then reports per-candidate partials. Workers cover disjoint transaction
/// slices, so the partials merge by plain `u64` addition and the result is
/// exact and identical to the horizontal backends for every thread count.
///
/// [`BitmapChunk`]: negassoc_txdb::vertical::BitmapChunk
/// [`VerticalWorker`]: crate::count::VerticalWorker
// negassoc-lint: allow(L010) -- parallel_pass_ctrl polls at block boundaries; the loops here are plan setup, worker-closure counting over dispatched blocks, and the in-memory partial-count merge
fn count_mixed_parallel_bitmap<S: TransactionSource + ?Sized>(
    source: &S,
    candidates: Vec<Itemset>,
    mapper: &SyncMapper<'_>,
    threads: usize,
    ctrl: Option<&CancelToken>,
    obs: &Obs,
) -> io::Result<PassRun> {
    let plan = BitmapPlan::new(&candidates);
    let plan = &plan;

    let (parts, transactions) = parallel_pass_ctrl(
        source,
        threads,
        DEFAULT_BLOCK_SIZE,
        ctrl,
        obs,
        || (plan.worker(), Vec::<ItemId>::new()),
        |(w, buf), block| {
            for t in block.iter() {
                mapper(t.items(), buf);
                w.add(buf, &plan.row_of);
            }
        },
        |(w, _)| plan.tally(w),
    )?;
    let totals = plan.merge(parts, transactions, obs)?;
    let counts: Vec<(Itemset, u64)> = candidates.into_iter().zip(totals).collect();
    Ok(PassRun {
        counts,
        transactions,
        threads,
    })
}

/// The level-1 pass: per-item supports over one (possibly parallel) scan.
///
/// Returns `counts[i]` = support of `ItemId(i)` for `i < num_items`
/// (mapped items at or above `num_items` are ignored, matching the
/// sequential level-1 pass), plus the number of transactions scanned.
pub fn count_items_parallel<S: TransactionSource + ?Sized>(
    source: &S,
    num_items: usize,
    mapper: &SyncMapper<'_>,
    parallelism: Parallelism,
) -> io::Result<(Vec<u64>, u64)> {
    count_items_parallel_ctrl(
        source,
        num_items,
        mapper,
        parallelism,
        None,
        &Obs::disabled(),
    )
}

/// [`count_items_parallel`] with cooperative cancellation (see
/// [`count_mixed_parallel_ctrl`]).
// negassoc-lint: allow(L010) -- parallel_pass_ctrl polls at block boundaries; the worker closure counts one dispatched block and the merge loop is in-memory
pub fn count_items_parallel_ctrl<S: TransactionSource + ?Sized>(
    source: &S,
    num_items: usize,
    mapper: &SyncMapper<'_>,
    parallelism: Parallelism,
    ctrl: Option<&CancelToken>,
    obs: &Obs,
) -> io::Result<(Vec<u64>, u64)> {
    let threads = parallelism.resolve();
    let (parts, transactions) = parallel_pass_ctrl(
        source,
        threads,
        DEFAULT_BLOCK_SIZE,
        ctrl,
        obs,
        || (vec![0u64; num_items], Vec::<ItemId>::new()),
        |(counts, buf), block| {
            for t in block.iter() {
                mapper(t.items(), buf);
                for &it in buf.iter() {
                    if let Some(c) = counts.get_mut(it.index()) {
                        *c += 1;
                    }
                }
            }
        },
        |(counts, _)| counts,
    )?;
    let mut merged = vec![0u64; num_items];
    for part in parts {
        for (m, p) in merged.iter_mut().zip(part) {
            *m += p;
        }
    }
    Ok((merged, transactions))
}

#[cfg(test)]
mod tests {
    use super::*;
    use negassoc_txdb::{TransactionDb, TransactionDbBuilder};

    fn set(v: &[u32]) -> Itemset {
        Itemset::from_unsorted(v.iter().map(|&i| ItemId(i)).collect())
    }

    fn sample_db(n: usize) -> TransactionDb {
        let mut b = TransactionDbBuilder::new();
        for i in 0..n {
            let a = (i % 7) as u32;
            let c = (i % 5 + 7) as u32;
            let d = (i % 3 + 12) as u32;
            b.add([ItemId(a), ItemId(c), ItemId(d)]);
        }
        b.build()
    }

    #[test]
    fn parallel_counts_match_sequential() {
        let db = sample_db(500);
        let candidates: Vec<Itemset> = vec![
            set(&[0, 7]),
            set(&[1, 8, 12]),
            set(&[3]),
            set(&[6, 11, 14]),
            set(&[2, 9]),
        ];
        let mut sequential = crate::count::count_mixed(
            &db,
            candidates.clone(),
            CountingBackend::HashTree,
            &mut crate::count::identity_mapper,
        )
        .unwrap();
        sequential.sort();
        for parallelism in [
            Parallelism::Sequential,
            Parallelism::Threads(1),
            Parallelism::Threads(2),
            Parallelism::Threads(4),
            Parallelism::Threads(7),
            Parallelism::Auto,
        ] {
            for backend in [CountingBackend::HashTree, CountingBackend::SubsetHashMap] {
                let run = count_mixed_parallel(
                    &db,
                    candidates.clone(),
                    backend,
                    &identity_sync_mapper,
                    parallelism,
                )
                .unwrap();
                assert_eq!(run.transactions, 500);
                assert_eq!(run.threads, parallelism.resolve());
                let mut parallel = run.counts;
                parallel.sort();
                assert_eq!(parallel, sequential, "{parallelism:?} {backend:?}");
            }
        }
    }

    /// The merge is total: candidates that never occur (support 0) are
    /// reported, and the output preserves the caller's candidate order.
    #[test]
    fn merge_is_total_and_order_preserving() {
        let db = sample_db(50);
        let candidates = vec![set(&[99]), set(&[0, 7]), set(&[98, 99])];
        let run = count_mixed_parallel(
            &db,
            candidates.clone(),
            CountingBackend::HashTree,
            &identity_sync_mapper,
            Parallelism::Threads(3),
        )
        .unwrap();
        assert_eq!(run.counts.len(), 3);
        for (i, (cand, _)) in run.counts.iter().enumerate() {
            assert_eq!(cand, &candidates[i], "order preserved");
        }
        assert_eq!(run.counts[0].1, 0);
        assert_eq!(run.counts[2].1, 0);
        assert!(run.counts[1].1 > 0);
    }

    #[test]
    fn empty_candidates_make_no_pass() {
        let db = sample_db(10);
        let pc = negassoc_txdb::PassCounter::new(db);
        let run = count_mixed_parallel(
            &pc,
            Vec::new(),
            CountingBackend::HashTree,
            &identity_sync_mapper,
            Parallelism::Threads(4),
        )
        .unwrap();
        assert!(run.counts.is_empty());
        assert_eq!(pc.passes(), 0);
    }

    #[test]
    fn item_counting_matches_sequential() {
        let db = sample_db(300);
        let mut expect = vec![0u64; 15];
        db.pass(&mut |t| {
            for &it in t.items() {
                expect[it.index()] += 1;
            }
        })
        .unwrap();
        for threads in [1, 2, 5] {
            let (got, transactions) = count_items_parallel(
                &db,
                15,
                &identity_sync_mapper,
                Parallelism::Threads(threads),
            )
            .unwrap();
            assert_eq!(got, expect, "{threads} threads");
            assert_eq!(transactions, 300);
        }
        // Items beyond the requested bound are ignored, not a panic.
        let (short, _) =
            count_items_parallel(&db, 3, &identity_sync_mapper, Parallelism::Threads(2)).unwrap();
        assert_eq!(short, expect[..3]);
    }

    /// A mapper that extends transactions (the taxonomy case) behaves
    /// identically across thread counts.
    #[test]
    fn extending_mapper_is_deterministic() {
        let db = sample_db(200);
        // Map every item onto itself plus a synthetic "category" 20.
        let extend = |items: &[ItemId], buf: &mut Vec<ItemId>| {
            buf.clear();
            buf.extend_from_slice(items);
            buf.push(ItemId(20));
        };
        let baseline = count_mixed_parallel(
            &db,
            vec![set(&[20]), set(&[0, 20])],
            CountingBackend::SubsetHashMap,
            &extend,
            Parallelism::Sequential,
        )
        .unwrap();
        for threads in [2, 4] {
            let run = count_mixed_parallel(
                &db,
                vec![set(&[20]), set(&[0, 20])],
                CountingBackend::SubsetHashMap,
                &extend,
                Parallelism::Threads(threads),
            )
            .unwrap();
            assert_eq!(run.counts, baseline.counts);
        }
        assert_eq!(baseline.counts[0].1, 200);
    }
}
