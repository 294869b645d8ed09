//! The bitmap backend's two layouts (DESIGN.md §14) against the
//! subset-hash-map reference: the pair matrix on random taxonomies,
//! databases and pair sets, and the prefix-shared AND kernel on mixed-size
//! candidate sets over multi-chunk databases, through the counting entry
//! point, sequential and threaded.

use negassoc_apriori::count::CountingBackend;
use negassoc_apriori::generalized::{prune_ancestor_pairs, AncestorTable};
use negassoc_apriori::parallel::{count_mixed_parallel, Extension, Obs, Parallelism};
use negassoc_apriori::Itemset;
use negassoc_taxonomy::{ItemId, Taxonomy, TaxonomyBuilder};
use negassoc_txdb::block::DEFAULT_BLOCK_SIZE;
use negassoc_txdb::obs::{Event, RingBufferSink};
use negassoc_txdb::{TransactionDb, TransactionDbBuilder};
use proptest::prelude::*;
use std::collections::BTreeSet;
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

/// A random forest of depth at most 4 over the item universe: item `i`'s
/// parent is drawn from `0..i`, unless that parent already sits at depth 4.
fn arb_shallow_taxonomy() -> impl Strategy<Value = Taxonomy> {
    prop::collection::vec(prop::option::weighted(0.7, 0u32..1000), ITEMS as usize).prop_map(
        |parents| {
            let mut b = TaxonomyBuilder::new();
            let mut depth = Vec::new();
            for (i, p) in parents.iter().enumerate() {
                let name = format!("item{i}");
                match p.map(|raw| raw as usize % i.max(1)) {
                    Some(parent) if i > 0 && depth[parent] < 4 => {
                        b.add_child(ItemId(parent as u32), &name).unwrap();
                        depth.push(depth[parent] + 1);
                    }
                    _ => {
                        b.add_root(&name);
                        depth.push(1);
                    }
                }
            }
            b.build()
        },
    )
}

/// `n` transactions over ids `0..ITEMS + 4` (the last four outside the
/// taxonomy), drawn by a SplitMix64 stream from `seed`: proptest picks the
/// size, the stream keeps a 3,000-transaction case cheap to generate.
fn seeded_db(n: usize, seed: u64) -> TransactionDb {
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let mut b = TransactionDbBuilder::new();
    for _ in 0..n {
        let len = next() % 8;
        b.add((0..len).map(|_| ItemId((next() % u64::from(ITEMS + 4)) as u32)));
    }
    b.build()
}

/// What the prefix kernel ANDs per chunk: every distinct (k−1)-prefix of
/// a k-candidate once (k−1 rows), plus one row per candidate.
fn rows_per_chunk(candidates: &[Itemset]) -> usize {
    let prefixes: BTreeSet<&[ItemId]> = candidates
        .iter()
        .map(|c| &c.items()[..c.len() - 1])
        .collect();
    prefixes.iter().map(|p| p.len()).sum::<usize>() + candidates.len()
}

fn sorted(mut v: Vec<(Itemset, u64)>) -> Vec<(Itemset, u64)> {
    v.sort();
    v
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Pair-path counts equal the subset-hash-map reference through
    /// `count_mixed_parallel`, inline and at 1/2/4 threads; every run
    /// reports which layout counted.
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
        let reference = sorted(
            count_mixed_parallel(
                &db,
                candidates.clone(),
                CountingBackend::SubsetHashMap,
                Extension::AllAncestors(&anc),
                Parallelism::Sequential,
                None,
                &Obs::disabled(),
            )
            .unwrap()
            .counts,
        );

        let want_layout = if dense(&candidates) { "pairs" } else { "bitmap" };
        for parallelism in [
            Parallelism::Sequential,
            Parallelism::Threads(1),
            Parallelism::Threads(2),
            Parallelism::Threads(4),
        ] {
            let ring = Arc::new(RingBufferSink::new(1024));
            let obs = Obs::disabled().with_sink(ring.clone());
            let run = count_mixed_parallel(
                &db,
                candidates.clone(),
                CountingBackend::TidBitmap,
                Extension::AllAncestors(&anc),
                parallelism,
                None,
                &obs,
            )
            .unwrap();
            // Input order is preserved, not just the multiset.
            for (got, want) in run.counts.iter().zip(&candidates) {
                prop_assert_eq!(&got.0, want);
            }
            prop_assert_eq!(sorted(run.counts), reference.clone(), "{:?}", parallelism);
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

    /// The prefix-shared AND kernel equals the subset-hash-map reference on
    /// mixed sizes 1..=4 — shared and unshared prefixes, singletons, and
    /// items the data never holds — over 1–3,000 transactions (so chunk
    /// counts and partial last chunks vary), inline and at 1/2/4 threads.
    /// Its `words_anded` is exactly the kernel's formula.
    #[test]
    fn prefix_kernel_matches_reference(
        n in 1usize..3000,
        seed in any::<u64>(),
        tax in arb_shallow_taxonomy(),
        // Items 0..10 share prefixes often; 30 and 31 never occur.
        cands in prop::collection::btree_set(
            prop::collection::btree_set(
                (0u32..12).prop_map(|i| if i < 10 { i } else { i + 20 }),
                1..=4,
            ),
            1..40,
        ),
        needed in any::<bool>(),
    ) {
        let db = seeded_db(n, seed);
        let anc = AncestorTable::new(&tax);
        let extension = if needed {
            Extension::NeededAncestors(&anc)
        } else {
            Extension::AllAncestors(&anc)
        };
        let candidates: Vec<Itemset> = cands
            .iter()
            .map(|c| Itemset::from_unsorted(c.iter().map(|&i| ItemId(i)).collect()))
            .collect();
        let reference = count_mixed_parallel(
            &db,
            candidates.clone(),
            CountingBackend::SubsetHashMap,
            extension,
            Parallelism::Sequential,
            None,
            &Obs::disabled(),
        )
        .unwrap()
        .counts;
        let pairs = candidates.iter().all(|c| c.len() == 2) && dense(&candidates);
        let chunks = n.div_ceil(DEFAULT_BLOCK_SIZE);
        let words = DEFAULT_BLOCK_SIZE.div_ceil(64);
        for parallelism in [
            Parallelism::Sequential,
            Parallelism::Threads(1),
            Parallelism::Threads(2),
            Parallelism::Threads(4),
        ] {
            let ring = Arc::new(RingBufferSink::new(1024));
            let obs = Obs::disabled().with_sink(ring.clone());
            let run = count_mixed_parallel(
                &db,
                candidates.clone(),
                CountingBackend::TidBitmap,
                extension,
                parallelism,
                None,
                &obs,
            )
            .unwrap();
            prop_assert_eq!(&run.counts, &reference, "{:?}", parallelism);
            let counted: Vec<(String, u64)> = ring
                .snapshot()
                .into_iter()
                .filter_map(|e| match e {
                    Event::BackendCount { backend, words, .. } => Some((backend, words)),
                    _ => None,
                })
                .collect();
            prop_assert_eq!(counted.len(), 1);
            if pairs {
                prop_assert_eq!(counted[0].0.as_str(), "pairs");
            } else {
                prop_assert_eq!(counted[0].0.as_str(), "bitmap");
                let want = (chunks * words * rows_per_chunk(&candidates)) as u64;
                prop_assert_eq!(counted[0].1, want, "{:?}", parallelism);
            }
        }
    }
}
