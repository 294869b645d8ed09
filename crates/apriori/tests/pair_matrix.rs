//! The bitmap backend's pair-matrix path (DESIGN.md §14) against the
//! subset-hash-map reference: random taxonomies, databases and pair sets,
//! through every counting entry point, sequential and threaded.

use negassoc_apriori::count::{count_candidates, count_mixed, CountingBackend};
use negassoc_apriori::generalized::{extend_full, prune_ancestor_pairs, AncestorTable};
use negassoc_apriori::parallel::{count_mixed_parallel_ctrl, Obs, Parallelism};
use negassoc_apriori::Itemset;
use negassoc_taxonomy::{ItemId, Taxonomy, TaxonomyBuilder};
use negassoc_txdb::obs::{Event, RingBufferSink};
use negassoc_txdb::{TransactionDb, TransactionDbBuilder};
use proptest::prelude::*;
use std::sync::Arc;

const ITEMS: u32 = 16;

fn arb_db() -> impl Strategy<Value = TransactionDb> {
    // Empty transactions included; ids past ITEMS are outside every
    // taxonomy and every candidate.
    prop::collection::vec(prop::collection::vec(0..ITEMS + 4, 0..9), 1..60).prop_map(|txs| {
        let mut b = TransactionDbBuilder::new();
        for t in txs {
            b.add(t.into_iter().map(ItemId));
        }
        b.build()
    })
}

/// A random forest over the item universe (item `i`'s parent drawn from
/// `0..i` or none).
fn arb_taxonomy() -> impl Strategy<Value = Taxonomy> {
    prop::collection::vec(prop::option::weighted(0.6, 0u32..1000), ITEMS as usize).prop_map(
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

/// Every pair over `items`, minus item–ancestor pairs (as at L2), thinned
/// by `keep` (cycled over the pairs; a 0 drops the pair).
fn pair_candidates(items: &[u32], anc: &AncestorTable, keep: &[u8]) -> Vec<Itemset> {
    let mut all = Vec::new();
    for (x, &a) in items.iter().enumerate() {
        for &b in &items[x + 1..] {
            all.push(Itemset::from_unsorted(vec![ItemId(a), ItemId(b)]));
        }
    }
    let pruned = prune_ancestor_pairs(all, anc);
    pruned
        .into_iter()
        .enumerate()
        .filter(|(i, _)| keep.is_empty() || keep[i % keep.len()] != 0)
        .map(|(_, c)| c)
        .collect()
}

/// Would the plan pick the pair matrix for these candidates?
fn dense(candidates: &[Itemset]) -> bool {
    let mut items: Vec<ItemId> = candidates.iter().flat_map(|c| c.items().to_vec()).collect();
    items.sort_unstable();
    items.dedup();
    let rows = items.len();
    2 * candidates.len() >= rows * rows.saturating_sub(1) / 2
}

fn sorted(mut v: Vec<(Itemset, u64)>) -> Vec<(Itemset, u64)> {
    v.sort();
    v
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Pair-path counts equal the subset-hash-map reference through
    /// `count_candidates`, `count_mixed` and `count_mixed_parallel` at
    /// 1/2/4 threads; the threaded runs report which layout counted.
    #[test]
    fn pair_path_matches_reference(
        db in arb_db(),
        tax in arb_taxonomy(),
        items in prop::collection::btree_set(0..ITEMS, 2..12),
        keep in prop::collection::vec(0u8..5, 0..5),
    ) {
        let anc = AncestorTable::new(&tax);
        let items: Vec<u32> = items.into_iter().collect();
        let candidates = pair_candidates(&items, &anc, &keep);
        prop_assume!(!candidates.is_empty());
        let mut mapper = |t: &[ItemId], out: &mut Vec<ItemId>| extend_full(t, &anc, out);
        let reference = sorted(
            count_candidates(&db, candidates.clone(), CountingBackend::SubsetHashMap, &mut mapper)
                .unwrap(),
        );
        let got = count_candidates(&db, candidates.clone(), CountingBackend::TidBitmap, &mut mapper)
            .unwrap();
        prop_assert_eq!(sorted(got), reference.clone());
        let got = count_mixed(&db, candidates.clone(), CountingBackend::TidBitmap, &mut mapper)
            .unwrap();
        prop_assert_eq!(sorted(got), reference.clone());

        let want_layout = if dense(&candidates) { "pairs" } else { "bitmap" };
        let sync_mapper = |t: &[ItemId], out: &mut Vec<ItemId>| extend_full(t, &anc, out);
        for threads in [1usize, 2, 4] {
            let ring = Arc::new(RingBufferSink::new(1024));
            let obs = Obs::disabled().with_sink(ring.clone());
            let run = count_mixed_parallel_ctrl(
                &db,
                candidates.clone(),
                CountingBackend::TidBitmap,
                &sync_mapper,
                Parallelism::Threads(threads),
                None,
                &obs,
            )
            .unwrap();
            // Input order is preserved, not just the multiset.
            for (got, want) in run.counts.iter().zip(&candidates) {
                prop_assert_eq!(&got.0, want);
            }
            prop_assert_eq!(sorted(run.counts), reference.clone(), "{} threads", threads);
            let layouts: Vec<String> = ring
                .snapshot()
                .into_iter()
                .filter_map(|e| match e {
                    Event::BackendCount { backend, .. } => Some(backend),
                    _ => None,
                })
                .collect();
            prop_assert_eq!(layouts, vec![want_layout.to_string()]);
        }
    }
}
