//! The shared parallel support-counting layer.
//!
//! Every pass-based miner in the workspace funnels its counting through
//! this module: [`count_mixed_parallel`] (candidates of any sizes, one
//! pass), [`count_pairs`] (level 2 under the bitmap backend, straight into
//! the pair triangle over the large items, with no candidate list) and
//! [`count_items_parallel`] (the level-1 per-item tally). All three
//! stream *any* [`TransactionSource`] — in-memory or file-backed — through
//! [`negassoc_txdb::block::parallel_pass`]: the caller's thread slices the
//! single pass into fixed-size blocks, a pool of `std::thread::scope`
//! workers counts them with private bitmap or hash-map structures (no
//! locks on the hot path), and per-candidate counts are merged additively
//! at the end. The caller names the taxonomy extension as an
//! [`Extension`]; under the bitmap backend Cumulate's "needed ancestors"
//! filter is the per-pass `RowMap`, a dense table
//! lookup with no hashing. With [`Parallelism::Sequential`] the same
//! cycle runs inline on the caller, with no thread, channel or lock.
//!
//! Counts are **exact**: blocks partition the pass, so per-worker tallies
//! are partition counts that sum to the sequential answer (Savasere et
//! al.'s Partition invariant; Agrawal & Shafer's count distribution). The
//! merge is *total* — every candidate appears exactly once in the output,
//! in the order the caller supplied — so sequential and parallel runs of
//! the same pass produce identical `(candidate, count)` sequences, which
//! is the foundation of the pipeline's byte-identical-output contract.

use crate::count::{BitmapPlan, Counter, CountingBackend, PairCandidates};
use crate::generalized::{extend_filtered, extend_full, items_of_candidates, AncestorTable};
use crate::itemset::Itemset;
use negassoc_taxonomy::fxhash::{FxHashMap, FxHashSet};
use negassoc_taxonomy::ItemId;
use negassoc_txdb::block::{parallel_pass, DEFAULT_BLOCK_SIZE};
use negassoc_txdb::TransactionSource;
use std::io;

pub use negassoc_txdb::block::Parallelism;
pub use negassoc_txdb::ctrl::CancelToken;
pub use negassoc_txdb::obs::{Obs, PassStats, Scan};

/// How a counting pass extends each transaction before counting it.
///
/// The bitmap backend turns either ancestor variant into the same
/// per-pass `RowMap` (rows no candidate mentions
/// are dropped either way); the flat [`CountingBackend::SubsetHashMap`]
/// reference walks the [`AncestorTable`] per transaction with
/// [`extend_full`] or [`extend_filtered`].
#[derive(Clone, Copy, Debug)]
pub enum Extension<'a> {
    /// The literal transaction items (flat Apriori, taxonomy-less Partition).
    Literal,
    /// Every item plus all of its ancestors (Basic, EstMerge).
    AllAncestors(&'a AncestorTable),
    /// Only the items and ancestors some candidate mentions: Cumulate's
    /// filtered extension (Cumulate, the negative pass, Partition's
    /// verify pass).
    NeededAncestors(&'a AncestorTable),
}

impl<'a> Extension<'a> {
    /// The ancestor table, unless the pass counts literal items.
    pub(crate) fn ancestors(self) -> Option<&'a AncestorTable> {
        match self {
            Extension::Literal => None,
            Extension::AllAncestors(a) | Extension::NeededAncestors(a) => Some(a),
        }
    }
}

/// What one counting pass did: the exact counts plus the telemetry the
/// `--pass-stats` report surfaces.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PassRun {
    /// `(candidate, support)` for every input candidate, in input order
    /// ([`count_pairs`]: only the pairs reaching its `minsup`, in pair-list
    /// order).
    pub counts: Vec<(Itemset, u64)>,
    /// Transactions scanned by the pass.
    pub transactions: u64,
    /// Worker threads the pass actually used.
    pub threads: usize,
}

impl PassRun {
    /// The counts and the [`Scan`] that [`Obs::pass`] records for the pass.
    pub fn into_parts(self) -> (Vec<(Itemset, u64)>, Scan) {
        let scan = Scan {
            transactions: self.transactions,
            threads: self.threads,
        };
        (self.counts, scan)
    }
}

/// Count supports of mixed-size `candidates` in a single pass of `source`
/// using the worker pool `parallelism` resolves to.
///
/// This is the workspace's one counting entry point. The hash-map backend
/// groups candidates per size, each size with its own item filter; the
/// bitmap backend builds and counts in the same pass. On top of exact
/// counts it guarantees:
///
/// * **total merge**: the output holds every input candidate exactly once,
///   in input order, with its exact support (nothing is silently dropped),
/// * **determinism**: the output is identical for every `parallelism`
///   value and both backends, because block counts are order-independent
///   `u64` additions.
///
/// The pool checks `ctrl` at block boundaries and a cancelled pass returns
/// the token's [`io::ErrorKind::Interrupted`] error instead of partial
/// counts (see [`negassoc_txdb::ctrl`]). Block dispatch/merge events and
/// the scan counters flow to `obs` (see [`negassoc_txdb::obs`]).
// negassoc-lint: allow(L010) -- parallel_pass polls at block boundaries; the loops here are candidate grouping and worker-closure counting over blocks it already dispatched
pub fn count_mixed_parallel<S: TransactionSource + ?Sized>(
    source: &S,
    candidates: Vec<Itemset>,
    backend: CountingBackend,
    extension: Extension<'_>,
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
        return count_mixed_parallel_bitmap(source, candidates, extension, threads, ctrl, obs);
    }
    // Cumulate's filter: the items and ancestors any candidate mentions.
    let needed = match extension {
        Extension::NeededAncestors(_) => items_of_candidates(&candidates),
        _ => FxHashSet::default(),
    };

    // Group by size once; workers clone the per-size candidate lists to
    // build their private counting structures. Each size gets its own item
    // filter, shared read-only across the pool: a size's counter only
    // cares about items its candidates mention, and probing it with
    // another size's items inflates the subset search.
    let mut by_size: FxHashMap<usize, Vec<Itemset>> = FxHashMap::default();
    for c in &candidates {
        by_size.entry(c.len()).or_default().push(c.clone());
    }
    let mut groups: Vec<(usize, Vec<Itemset>, FxHashSet<ItemId>)> = by_size
        .into_iter()
        .filter(|(k, _)| *k > 0)
        .map(|(k, cands)| {
            let needed = items_of_candidates(&cands);
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

    let (parts, transactions) = parallel_pass(
        source,
        threads,
        DEFAULT_BLOCK_SIZE,
        ctrl,
        obs,
        || Worker {
            counters: groups
                .iter()
                .map(|(k, cands, _)| Counter::build(*k, cands.clone()))
                .collect(),
            buf: Vec::new(),
            scratch: Vec::new(),
        },
        |w, block| {
            for t in block.iter() {
                match extension {
                    Extension::Literal => {
                        w.buf.clear();
                        w.buf.extend_from_slice(t.items());
                    }
                    Extension::AllAncestors(a) => extend_full(t.items(), a, &mut w.buf),
                    Extension::NeededAncestors(a) => {
                        extend_filtered(t.items(), a, &needed, &mut w.buf)
                    }
                }
                for (counter, (_, _, needed)) in w.counters.iter_mut().zip(groups.iter()) {
                    if single {
                        // One size: nothing to filter beyond the extension.
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

/// The TID-bitmap arm of [`count_mixed_parallel`]: build and count in
/// the *same* single pass. The [`BitmapPlan`] resolves every transaction
/// item to its rows through one dense [`RowMap`] (the item's own row and
/// its planned ancestors' rows, no hashing). Each worker fills a private
/// [`VerticalWorker`] from the transactions it is dealt — packed
/// [`BitmapChunk`] row-ranges (one bit slot per transaction) answered by
/// the chunk-outer prefix-shared AND kernel, or, when the plan picks it, a
/// triangular pair matrix read cell by cell — then reports per-candidate
/// partials. Workers cover disjoint transaction slices, so the partials
/// merge by plain `u64` addition and the result is exact and identical to
/// the hash-map backend for every thread count.
///
/// [`BitmapChunk`]: negassoc_txdb::vertical::BitmapChunk
/// [`RowMap`]: crate::count::RowMap
/// [`VerticalWorker`]: crate::count::VerticalWorker
// negassoc-lint: allow(L010) -- parallel_pass polls at block boundaries; the loops here are plan setup, worker-closure counting over dispatched blocks, and the in-memory partial-count merge
fn count_mixed_parallel_bitmap<S: TransactionSource + ?Sized>(
    source: &S,
    candidates: Vec<Itemset>,
    extension: Extension<'_>,
    threads: usize,
    ctrl: Option<&CancelToken>,
    obs: &Obs,
) -> io::Result<PassRun> {
    let plan = BitmapPlan::new(&candidates, extension);
    let plan = &plan;

    let (parts, transactions) = parallel_pass(
        source,
        threads,
        DEFAULT_BLOCK_SIZE,
        ctrl,
        obs,
        || plan.worker(),
        |w, block| {
            for t in block.iter() {
                w.add(t.items(), &plan.map);
            }
        },
        |w| plan.tally(w),
    )?;
    let totals = plan.merge(parts, transactions, obs)?;
    let counts: Vec<(Itemset, u64)> = candidates.into_iter().zip(totals).collect();
    Ok(PassRun {
        counts,
        transactions,
        threads,
    })
}

/// Count level 2 under the bitmap backend: every pair of `candidates`
/// (the large items, minus item–ancestor pairs) in one pass of `source`,
/// without listing a pair. Each worker fills a private `PairWorker`
/// triangle over the large items through the pass's `RowMap`, exactly as
/// [`count_mixed_parallel`] would for the listed pairs; the triangles are
/// summed and `counts` holds the pairs whose support reaches `minsup`, in
/// the order [`crate::gen::pairs_of`] lists them. Cancellation, block
/// events, scan counters and the `backend_*` events (labelled `pairs`) as
/// in [`count_mixed_parallel`]. No candidates make no pass.
// negassoc-lint: allow(L010) -- parallel_pass polls at block boundaries; the worker closure counts one dispatched block
pub fn count_pairs<S: TransactionSource + ?Sized>(
    source: &S,
    candidates: &PairCandidates<'_>,
    minsup: u64,
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
    let map = &candidates.row_map();
    let (workers, transactions) = parallel_pass(
        source,
        threads,
        DEFAULT_BLOCK_SIZE,
        ctrl,
        obs,
        || candidates.worker(),
        |w, block| {
            for t in block.iter() {
                w.add(t.items(), map);
            }
        },
        |w| w,
    )?;
    let counts = candidates.large(workers, transactions, minsup, obs)?;
    Ok(PassRun {
        counts,
        transactions,
        threads,
    })
}

/// The level-1 pass: per-item supports over one (possibly parallel) scan.
///
/// Returns `counts[i]` = support of `ItemId(i)` for `i < num_items`
/// (items at or above `num_items` are ignored), plus the number of
/// transactions scanned. Under either ancestor [`Extension`] every item
/// also counts for each of its ancestors — at level 1 every item is a
/// candidate, so the two variants agree. A transaction counts once per
/// item however many of its members share an ancestor: each worker stamps
/// an item with the worker-local sequence number of the last transaction
/// that counted it, instead of sorting and deduplicating an extended copy.
/// Cancellation and observability as in [`count_mixed_parallel`].
// negassoc-lint: allow(L010) -- parallel_pass polls at block boundaries; the worker closure counts one dispatched block and the merge loop is in-memory
pub fn count_items_parallel<S: TransactionSource + ?Sized>(
    source: &S,
    num_items: usize,
    extension: Extension<'_>,
    parallelism: Parallelism,
    ctrl: Option<&CancelToken>,
    obs: &Obs,
) -> io::Result<(Vec<u64>, u64)> {
    struct ItemTally {
        counts: Vec<u64>,
        /// Per item, the sequence number of the last transaction that
        /// counted it (0: none yet).
        seen: Vec<u64>,
        /// Transactions this worker has scanned.
        seq: u64,
    }
    impl ItemTally {
        #[inline]
        fn bump(&mut self, item: ItemId) {
            if let Some(seen) = self.seen.get_mut(item.index()) {
                if *seen != self.seq {
                    *seen = self.seq;
                    self.counts[item.index()] += 1;
                }
            }
        }
    }

    let threads = parallelism.resolve();
    let ancestors = extension.ancestors();
    let (parts, transactions) = parallel_pass(
        source,
        threads,
        DEFAULT_BLOCK_SIZE,
        ctrl,
        obs,
        || ItemTally {
            counts: vec![0; num_items],
            seen: vec![0; num_items],
            seq: 0,
        },
        |w, block| {
            for t in block.iter() {
                w.seq += 1;
                for &it in t.items() {
                    w.bump(it);
                    for &anc in ancestors.map_or(&[][..], |a| a.ancestors(it)) {
                        w.bump(anc);
                    }
                }
            }
        },
        |w| w.counts,
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
    use negassoc_taxonomy::{Taxonomy, TaxonomyBuilder};
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

    const BACKENDS: [CountingBackend; 2] =
        [CountingBackend::SubsetHashMap, CountingBackend::TidBitmap];

    fn run<S: TransactionSource + ?Sized>(
        source: &S,
        candidates: Vec<Itemset>,
        backend: CountingBackend,
        extension: Extension<'_>,
        parallelism: Parallelism,
    ) -> PassRun {
        count_mixed_parallel(
            source,
            candidates,
            backend,
            extension,
            parallelism,
            None,
            &Obs::disabled(),
        )
        .unwrap()
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
        let sequential = run(
            &db,
            candidates.clone(),
            CountingBackend::SubsetHashMap,
            Extension::Literal,
            Parallelism::Sequential,
        )
        .counts;
        for parallelism in [
            Parallelism::Sequential,
            Parallelism::Threads(1),
            Parallelism::Threads(2),
            Parallelism::Threads(4),
            Parallelism::Threads(7),
            Parallelism::Auto,
        ] {
            for backend in BACKENDS {
                let run = run(
                    &db,
                    candidates.clone(),
                    backend,
                    Extension::Literal,
                    parallelism,
                );
                assert_eq!(run.transactions, 500);
                assert_eq!(run.threads, parallelism.resolve());
                assert_eq!(run.counts, sequential, "{parallelism:?} {backend:?}");
            }
        }
    }

    /// The merge is total: candidates that never occur (support 0) are
    /// reported, and the output preserves the caller's candidate order.
    #[test]
    fn merge_is_total_and_order_preserving() {
        let db = sample_db(50);
        let candidates = vec![set(&[99]), set(&[0, 7]), set(&[98, 99])];
        for backend in BACKENDS {
            let run = run(
                &db,
                candidates.clone(),
                backend,
                Extension::Literal,
                Parallelism::Threads(3),
            );
            assert_eq!(run.counts.len(), 3);
            for (i, (cand, _)) in run.counts.iter().enumerate() {
                assert_eq!(cand, &candidates[i], "order preserved");
            }
            assert_eq!(run.counts[0].1, 0);
            assert_eq!(run.counts[2].1, 0);
            assert!(run.counts[1].1 > 0);
        }
    }

    #[test]
    fn empty_candidates_make_no_pass() {
        let db = sample_db(10);
        let pc = negassoc_txdb::PassCounter::new(db);
        for backend in BACKENDS {
            let run = run(
                &pc,
                Vec::new(),
                backend,
                Extension::Literal,
                Parallelism::Threads(4),
            );
            assert!(run.counts.is_empty());
        }
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
        let items = |num_items, parallelism| {
            count_items_parallel(
                &db,
                num_items,
                Extension::Literal,
                parallelism,
                None,
                &Obs::disabled(),
            )
            .unwrap()
        };
        for threads in [1, 2, 5] {
            let (got, transactions) = items(15, Parallelism::Threads(threads));
            assert_eq!(got, expect, "{threads} threads");
            assert_eq!(transactions, 300);
        }
        // Items beyond the requested bound are ignored, not a panic.
        let (short, _) = items(3, Parallelism::Threads(2));
        assert_eq!(short, expect[..3]);
    }

    /// cat(0) over every item of [`sample_db`] (1..=14, 0 also appears
    /// literally), plus z(15), a leaf of cat the data never holds.
    fn cat_taxonomy() -> Taxonomy {
        let mut b = TaxonomyBuilder::new();
        let cat = b.add_root("cat");
        for i in 1..=15 {
            b.add_child(cat, &format!("item{i}")).unwrap();
        }
        b.build()
    }

    /// Taxonomy extension behaves identically across thread counts,
    /// backends and both ancestor variants.
    #[test]
    fn extending_mapper_is_deterministic() {
        let db = sample_db(200);
        let tax = cat_taxonomy();
        let anc = AncestorTable::new(&tax);
        let candidates = || {
            vec![
                set(&[0]),
                set(&[0, 7]),
                set(&[1, 12]),
                set(&[7, 13]),
                set(&[0, 1, 12]),
                set(&[15]),
            ]
        };
        let baseline = run(
            &db,
            candidates(),
            CountingBackend::SubsetHashMap,
            Extension::AllAncestors(&anc),
            Parallelism::Sequential,
        );
        for ext in [
            Extension::AllAncestors(&anc),
            Extension::NeededAncestors(&anc),
        ] {
            for backend in BACKENDS {
                for threads in [2, 4] {
                    let run = run(
                        &db,
                        candidates(),
                        backend,
                        ext,
                        Parallelism::Threads(threads),
                    );
                    assert_eq!(
                        run.counts, baseline.counts,
                        "{backend:?} {ext:?} x{threads}"
                    );
                }
            }
        }
        // Every transaction holds a descendant of cat (or cat itself).
        assert_eq!(baseline.counts[0].1, 200);
        assert_eq!(baseline.counts[5].1, 0);
    }

    /// The level-1 stamp tally counts a category once per transaction
    /// however many of its leaves (or itself) the transaction holds, and
    /// ignores ids outside the taxonomy — exactly like extending each
    /// transaction and deduplicating.
    #[test]
    fn item_counting_counts_each_ancestor_once() {
        let mut b = TransactionDbBuilder::new();
        for t in [&[1u32, 2][..], &[0, 1, 2, 3], &[15, 40], &[], &[3, 99]] {
            b.add(t.iter().map(|&i| ItemId(i)));
        }
        let db = b.build();
        let tax = cat_taxonomy();
        let anc = AncestorTable::new(&tax);
        let mut expect = vec![0u64; tax.len()];
        let mut buf = Vec::new();
        for t in db.iter() {
            extend_full(t.items(), &anc, &mut buf);
            for it in buf.iter().filter(|i| i.index() < tax.len()) {
                expect[it.index()] += 1;
            }
        }
        assert_eq!(expect[0], 4);
        assert_eq!(expect[1], 2);
        for ext in [
            Extension::AllAncestors(&anc),
            Extension::NeededAncestors(&anc),
        ] {
            for parallelism in [Parallelism::Sequential, Parallelism::Threads(2)] {
                let (got, transactions) =
                    count_items_parallel(&db, tax.len(), ext, parallelism, None, &Obs::disabled())
                        .unwrap();
                assert_eq!(got, expect, "{ext:?} {parallelism:?}");
                assert_eq!(transactions, 5);
            }
        }
    }
}
