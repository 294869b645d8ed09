//! Property-based tests for the frequent-itemset mining substrate.

use negassoc_apriori::count::CountingBackend;
use negassoc_apriori::est_merge::{est_merge, EstMergeConfig};
use negassoc_apriori::parallel::{count_mixed_parallel, identity_sync_mapper, Obs, Parallelism};
use negassoc_apriori::{apriori::apriori, basic::basic, cumulate::cumulate};
use negassoc_apriori::{Itemset, MinSupport};
use negassoc_taxonomy::{ItemId, Taxonomy, TaxonomyBuilder};
use negassoc_txdb::{TransactionDb, TransactionDbBuilder};
use proptest::prelude::*;

const ITEMS: u32 = 20;

fn arb_db() -> impl Strategy<Value = TransactionDb> {
    prop::collection::vec(prop::collection::vec(0..ITEMS, 0..8), 1..30).prop_map(|txs| {
        let mut b = TransactionDbBuilder::new();
        for t in txs {
            b.add(t.into_iter().map(ItemId));
        }
        b.build()
    })
}

/// A random forest over the fixed item universe (item `i`'s parent drawn
/// from `0..i` or none).
fn arb_taxonomy() -> impl Strategy<Value = Taxonomy> {
    prop::collection::vec(prop::option::weighted(0.7, 0u32..1000), ITEMS as usize).prop_map(
        |parents| {
            let mut b = TaxonomyBuilder::new();
            for (i, p) in parents.iter().enumerate() {
                let name = format!("item{i}");
                match p {
                    Some(raw) if i > 0 => {
                        b.add_child(ItemId(raw % i as u32), &name).unwrap();
                    }
                    _ => {
                        b.add_root(&name);
                    }
                }
            }
            b.build()
        },
    )
}

fn brute_support(db: &TransactionDb, items: &[ItemId]) -> u64 {
    db.iter().filter(|t| t.contains_all(items)).count() as u64
}

proptest! {
    /// Counting backends agree with brute force on uniform-size candidates.
    #[test]
    fn backends_match_bruteforce(
        db in arb_db(),
        cands in prop::collection::btree_set(
            prop::collection::btree_set(0..ITEMS, 2..3), 1..20),
    ) {
        let sized: Vec<Itemset> = cands
            .iter()
            .filter(|c| c.len() == 2)
            .map(|c| Itemset::from_unsorted(c.iter().map(|&i| ItemId(i)).collect()))
            .collect();
        prop_assume!(!sized.is_empty());
        for backend in [CountingBackend::SubsetHashMap, CountingBackend::TidBitmap] {
            let counted = count_mixed_parallel(
                &db,
                sized.clone(),
                backend,
                &identity_sync_mapper,
                Parallelism::Sequential,
                None,
                &Obs::disabled(),
            )
            .unwrap();
            for (cand, count) in counted.counts {
                prop_assert_eq!(count, brute_support(&db, cand.items()));
            }
        }
    }

    /// Apriori output is downward closed and supports are exact.
    #[test]
    fn apriori_downward_closure_and_exact_supports(db in arb_db(), minsup in 1u64..6) {
        let large = apriori(&db, MinSupport::Count(minsup), CountingBackend::TidBitmap).unwrap();
        for (set, sup) in large.iter() {
            prop_assert_eq!(sup, brute_support(&db, set.items()));
            prop_assert!(sup >= large.min_support_count());
            for sub in set.one_smaller_subsets() {
                if !sub.is_empty() {
                    prop_assert!(large.contains(&sub), "missing subset {:?} of {:?}", sub, set);
                }
            }
        }
        // Completeness at level 2: every frequent pair is reported.
        for a in 0..ITEMS {
            for b in (a + 1)..ITEMS {
                let pair = [ItemId(a), ItemId(b)];
                let sup = brute_support(&db, &pair);
                if sup >= minsup {
                    prop_assert_eq!(large.support_of(&pair), Some(sup));
                }
            }
        }
    }

    /// Basic, Cumulate, EstMerge and Partition produce identical
    /// generalized results.
    #[test]
    fn generalized_algorithms_agree(
        db in arb_db(),
        tax in arb_taxonomy(),
        minsup in 1u64..6,
        seed in any::<u64>(),
        parts in 1usize..5,
    ) {
        let a = basic(&db, &tax, MinSupport::Count(minsup), CountingBackend::SubsetHashMap, Parallelism::Sequential, None, &Obs::disabled())
        .unwrap();
        let b = cumulate(&db, &tax, MinSupport::Count(minsup), CountingBackend::TidBitmap, Parallelism::Threads(2), None, &Obs::disabled())
        .unwrap();
        let (c, _) = est_merge(&db, &tax, MinSupport::Count(minsup), CountingBackend::TidBitmap, EstMergeConfig { sample_fraction: 0.5, safety_factor: 0.9, seed }, Parallelism::Threads(3), None, &Obs::disabled())
        .unwrap();
        let d = negassoc_apriori::partition_mine::partition_mine(&db, Some(&tax), MinSupport::Count(minsup), parts, CountingBackend::SubsetHashMap, Parallelism::Auto, None, &Obs::disabled())
        .unwrap();
        prop_assert_eq!(a.total(), b.total());
        prop_assert_eq!(a.total(), c.total());
        prop_assert_eq!(a.total(), d.total());
        for (set, sup) in a.iter() {
            prop_assert_eq!(b.support_of_set(set), Some(sup));
            prop_assert_eq!(c.support_of_set(set), Some(sup));
            prop_assert_eq!(d.support_of_set(set), Some(sup));
        }
    }

    /// Parallel counting agrees with sequential counting.
    #[test]
    fn parallel_counting_agrees(
        db in arb_db(),
        cands in prop::collection::btree_set(
            prop::collection::btree_set(0..ITEMS, 1..4), 1..15),
        threads in 1usize..5,
    ) {
        let candidates: Vec<Itemset> = cands
            .iter()
            .map(|c| Itemset::from_unsorted(c.iter().map(|&i| ItemId(i)).collect()))
            .collect();
        let sequential = count_mixed_parallel(
            &db,
            candidates.clone(),
            CountingBackend::SubsetHashMap,
            &identity_sync_mapper,
            Parallelism::Sequential,
            None,
            &Obs::disabled(),
        )
        .unwrap()
        .counts;
        for backend in [CountingBackend::SubsetHashMap, CountingBackend::TidBitmap] {
            let run = count_mixed_parallel(
                &db,
                candidates.clone(),
                backend,
                &identity_sync_mapper,
                Parallelism::Threads(threads),
                None,
                &Obs::disabled(),
            )
            .unwrap();
            prop_assert_eq!(&sequential, &run.counts, "{:?}", backend);
        }
    }

    /// Generalized supports are exact: category support counts transactions
    /// containing any descendant.
    #[test]
    fn generalized_supports_are_exact(db in arb_db(), tax in arb_taxonomy()) {
        let large = cumulate(&db, &tax, MinSupport::Count(2), CountingBackend::TidBitmap, Parallelism::Sequential, None, &Obs::disabled())
        .unwrap();
        for (set, sup) in large.iter() {
            // Brute force: a transaction supports `set` when, for every
            // member, it contains the member or one of its descendants.
            let brute = db
                .iter()
                .filter(|t| {
                    set.items().iter().all(|&m| {
                        t.items()
                            .iter()
                            .any(|&it| it == m || tax.is_ancestor(m, it))
                    })
                })
                .count() as u64;
            prop_assert_eq!(sup, brute, "{:?}", set);
        }
    }
}
