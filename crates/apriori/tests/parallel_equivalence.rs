//! Determinism contract of the parallel counting layer: for every thread
//! count, both backends, and every source — in-memory or streamed through
//! faults and retries — parallel counts are *exactly* the sequential
//! subset-hash-map counts, in the same candidate order.

use negassoc_apriori::count::CountingBackend;
use negassoc_apriori::parallel::{count_mixed_parallel, Extension, Obs, Parallelism};
use negassoc_apriori::{basic::basic, Itemset, MinSupport};
use negassoc_taxonomy::{ItemId, Taxonomy, TaxonomyBuilder};
use negassoc_txdb::fault::{FaultPlan, FaultySource, RetryPolicy, RetryingSource};
use negassoc_txdb::obs::{MetricKind, Metrics};
use negassoc_txdb::{TransactionDb, TransactionDbBuilder};
use proptest::prelude::*;
use std::time::Duration;

const ITEMS: u32 = 16;
const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn arb_db() -> impl Strategy<Value = TransactionDb> {
    prop::collection::vec(prop::collection::vec(0..ITEMS, 0..7), 1..60).prop_map(|txs| {
        let mut b = TransactionDbBuilder::new();
        for t in txs {
            b.add(t.into_iter().map(ItemId));
        }
        b.build()
    })
}

fn arb_candidates() -> impl Strategy<Value = Vec<Itemset>> {
    prop::collection::btree_set(prop::collection::btree_set(0..ITEMS, 1..4), 1..20).prop_map(
        |cands| {
            cands
                .iter()
                .map(|c| Itemset::from_unsorted(c.iter().map(|&i| ItemId(i)).collect()))
                .collect()
        },
    )
}

/// The reference: the flat subset-hash-map backend counting inline,
/// the most literal transcription of "count every candidate in every
/// transaction".
fn reference<S: negassoc_txdb::TransactionSource + ?Sized>(
    source: &S,
    candidates: &[Itemset],
) -> Vec<(Itemset, u64)> {
    count(
        source,
        candidates,
        CountingBackend::SubsetHashMap,
        Parallelism::Sequential,
    )
}

fn count<S: negassoc_txdb::TransactionSource + ?Sized>(
    source: &S,
    candidates: &[Itemset],
    backend: CountingBackend,
    parallelism: Parallelism,
) -> Vec<(Itemset, u64)> {
    count_mixed_parallel(
        source,
        candidates.to_vec(),
        backend,
        Extension::Literal,
        parallelism,
        None,
        &Obs::disabled(),
    )
    .unwrap()
    .counts
}

fn flat_taxonomy() -> Taxonomy {
    let mut tb = TaxonomyBuilder::new();
    for i in 0..ITEMS {
        tb.add_root(&format!("item{i}"));
    }
    tb.build()
}

proptest! {
    /// In-memory source: inline and 1/2/4/8 worker threads, on both
    /// backends, reproduce the flat sequential counts in input order.
    #[test]
    fn every_thread_count_matches_sequential(
        db in arb_db(),
        candidates in arb_candidates(),
    ) {
        let reference = reference(&db, &candidates);
        // The entry point guarantees input order.
        let order: Vec<&Itemset> = reference.iter().map(|(c, _)| c).collect();
        prop_assert_eq!(order, candidates.iter().collect::<Vec<_>>());
        for backend in [CountingBackend::SubsetHashMap, CountingBackend::TidBitmap] {
            let sequential = count(&db, &candidates, backend, Parallelism::Sequential);
            prop_assert_eq!(&sequential, &reference, "sequential {:?}", backend);
            for threads in THREAD_COUNTS {
                let parallel = count(&db, &candidates, backend, Parallelism::Threads(threads));
                prop_assert_eq!(&parallel, &reference, "{:?} x{}", backend, threads);
            }
        }
    }

    /// Streamed source healing injected transient faults mid-pass: the
    /// retry layer's exactly-once delivery keeps parallel counts exact at
    /// every thread count, for both backends.
    #[test]
    fn faulty_retrying_stream_matches_sequential(
        db in arb_db(),
        candidates in arb_candidates(),
        seed in any::<u64>(),
    ) {
        let reference = reference(&db, &candidates);
        for backend in [CountingBackend::SubsetHashMap, CountingBackend::TidBitmap] {
            for threads in THREAD_COUNTS {
                // A fresh faulty stream per run: the pass counter advances
                // on every attempt, so reuse would shift which pass faults.
                let faulty = FaultySource::new(
                    &db,
                    FaultPlan::seeded_transient(seed, 2, db.len() as u64, 3),
                );
                let healed = RetryingSource::new(faulty, RetryPolicy::new(8, Duration::ZERO));
                let parallel = count(&healed, &candidates, backend, Parallelism::Threads(threads));
                prop_assert_eq!(&parallel, &reference, "{:?} x{}", backend, threads);
            }
        }
    }

    /// The metrics registry obeys the same determinism contract as the
    /// counts themselves: dealing one increment stream across 1/2/4/8
    /// worker shards (on real threads) and absorbing them in either
    /// order reproduces the sequential totals exactly.
    #[test]
    fn metrics_shard_merge_matches_sequential(
        increments in prop::collection::vec((0usize..4, 1u64..100), 0..200),
        absorb_reversed in any::<bool>(),
    ) {
        let names = ["a", "b", "c", "d"];
        let sequential = Metrics::new();
        let ids: Vec<_> = names
            .iter()
            .map(|n| sequential.register(n, MetricKind::Counter))
            .collect();
        for &(slot, n) in &increments {
            sequential.add(ids[slot], n);
        }

        for threads in THREAD_COUNTS {
            let merged = Metrics::new();
            let merged_ids: Vec<_> = names
                .iter()
                .map(|n| merged.register(n, MetricKind::Counter))
                .collect();
            let mut shards: Vec<_> = (0..threads).map(|_| merged.shard()).collect();
            // Deal increments round-robin, as the block dispatcher deals
            // transaction blocks to workers.
            std::thread::scope(|scope| {
                for (w, shard) in shards.iter_mut().enumerate() {
                    let increments = &increments;
                    let merged_ids = &merged_ids;
                    scope.spawn(move || {
                        for (i, &(slot, n)) in increments.iter().enumerate() {
                            if i % threads == w {
                                shard.add(merged_ids[slot], n);
                            }
                        }
                    });
                }
            });
            if absorb_reversed {
                shards.reverse();
            }
            for shard in &shards {
                merged.absorb(shard);
            }
            prop_assert_eq!(merged.snapshot(), sequential.snapshot(), "x{}", threads);
        }
    }

    /// The whole miner, not just one pass: Basic over a flat taxonomy is
    /// identical for every parallelism policy and both backends.
    #[test]
    fn miner_output_is_thread_count_invariant(db in arb_db(), minsup in 1u64..5) {
        let tax = flat_taxonomy();
        let reference = basic(&db, &tax, MinSupport::Count(minsup), CountingBackend::SubsetHashMap, Parallelism::Sequential, None, &Obs::disabled())
        .unwrap();
        for backend in [CountingBackend::SubsetHashMap, CountingBackend::TidBitmap] {
            for threads in THREAD_COUNTS {
                let parallel = basic(&db, &tax, MinSupport::Count(minsup), backend, Parallelism::Threads(threads), None, &Obs::disabled())
                .unwrap();
                prop_assert_eq!(parallel.total(), reference.total());
                for (set, sup) in reference.iter() {
                    prop_assert_eq!(parallel.support_of_set(set), Some(sup), "{:?}", backend);
                }
            }
        }
    }
}
