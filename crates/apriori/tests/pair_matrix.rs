//! The bitmap backend's two layouts (DESIGN.md §14) against the
//! subset-hash-map reference: the pair matrix on random taxonomies,
//! databases and pair sets, and the prefix-shared AND kernel on mixed-size
//! candidate sets over multi-chunk databases, through the counting entry
//! point, sequential and threaded. Level 2 counted straight into the
//! triangle over the large items ([`count_pairs`]) against the listed
//! pairs and the flat reference, through the level miner too.

use negassoc_apriori::count::{CountingBackend, PairCandidates};
use negassoc_apriori::gen::pairs_of;
use negassoc_apriori::generalized::{prune_ancestor_pairs, AncestorTable};
use negassoc_apriori::levelwise::{CandidateBudgetExceeded, GenLevelMiner, GenStrategy};
use negassoc_apriori::parallel::{
    count_mixed_parallel, count_pairs, CancelToken, Extension, Obs, Parallelism,
};
use negassoc_apriori::{Itemset, LargeItemsets, MinSupport};
use negassoc_taxonomy::{ItemId, Taxonomy, TaxonomyBuilder};
use negassoc_txdb::block::DEFAULT_BLOCK_SIZE;
use negassoc_txdb::ctrl::{cancellation_of, CancelReason};
use negassoc_txdb::obs::{metric, Event, Metrics, RingBufferSink};
use negassoc_txdb::{PassCounter, TransactionDb, TransactionDbBuilder};
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::io;
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

/// An observer that records events and metrics.
fn recording() -> (Obs, Arc<RingBufferSink>, Arc<Metrics>) {
    let ring = Arc::new(RingBufferSink::new(1024));
    let metrics = Arc::new(Metrics::new());
    let obs = Obs::disabled()
        .with_sink(ring.clone())
        .with_metrics(metrics.clone());
    (obs, ring, metrics)
}

/// What a counting pass reported: its `backend_build` and
/// `backend_count` events, and the pair metrics.
#[derive(Debug, PartialEq)]
struct Reported {
    build: Vec<(String, usize, u64)>,
    count: Vec<(String, usize, u64, u64)>,
    pair_increments: u64,
    ones: u64,
}

fn reported(ring: &RingBufferSink, metrics: &Metrics) -> Reported {
    let mut build = Vec::new();
    let mut count = Vec::new();
    for e in ring.snapshot() {
        match e {
            Event::BackendBuild {
                backend,
                items,
                words,
            } => build.push((backend, items, words)),
            Event::BackendCount {
                backend,
                candidates,
                words,
                ones,
            } => count.push((backend, candidates, words, ones)),
            _ => {}
        }
    }
    let metric = |name: &str| {
        metrics
            .snapshot()
            .into_iter()
            .find(|(n, _, _)| n == name)
            .map_or(0, |(_, _, v)| v)
    };
    Reported {
        build,
        count,
        pair_increments: metric(metric::BITMAP_PAIR_INCREMENTS),
        ones: metric(metric::BITMAP_ONES),
    }
}

/// The large items of `db` at `minsup` (the flat reference's L1).
fn large_items(db: &TransactionDb, tax: &Taxonomy, minsup: u64) -> Vec<ItemId> {
    let miner = GenLevelMiner::new(
        db,
        tax,
        MinSupport::Count(minsup),
        GenStrategy::Cumulate,
        CountingBackend::SubsetHashMap,
        Parallelism::Sequential,
        None,
        &Obs::disabled(),
    )
    .unwrap();
    let mut items: Vec<ItemId> = miner.large().level(1).map(|(s, _)| s.items()[0]).collect();
    items.sort_unstable();
    items
}

fn supports(large: &LargeItemsets) -> Vec<(Itemset, u64)> {
    let mut v: Vec<(Itemset, u64)> = large.iter().map(|(s, n)| (s.clone(), n)).collect();
    v.sort();
    v
}

const THREADS: [Parallelism; 2] = [Parallelism::Threads(1), Parallelism::Threads(4)];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Level 2 counted straight into the triangle reads the same large
    /// pairs, in the same order, as counting the listed pairs
    /// `prune_ancestor_pairs(pairs_of(L1))`; its candidate count is the
    /// list's length; whenever the listed pass also takes the pair layout
    /// it reports the same rows, cells, increments and ones. The level
    /// miner then finds every large itemset the flat reference finds, with
    /// an L2 ledger row of the list's length — Basic and Cumulate, at 1
    /// and 4 threads.
    #[test]
    fn direct_l2_matches_listed_pairs(
        db in arb_db(),
        tax in arb_taxonomy(),
        minsup in 1u64..6,
        basic in any::<bool>(),
    ) {
        let anc = AncestorTable::new(&tax);
        let (strategy, ext) = if basic {
            (GenStrategy::Basic, Extension::AllAncestors(&anc))
        } else {
            (GenStrategy::Cumulate, Extension::NeededAncestors(&anc))
        };
        let l1 = large_items(&db, &tax, minsup);
        let listed = prune_ancestor_pairs(pairs_of(&l1), &anc);
        let pairs = PairCandidates::new(&l1, ext);
        prop_assert_eq!(pairs.len(), listed.len());
        prop_assert_eq!(pairs.is_empty(), listed.is_empty());
        let flat = supports(
            &GenLevelMiner::new(
                &db,
                &tax,
                MinSupport::Count(minsup),
                strategy,
                CountingBackend::SubsetHashMap,
                Parallelism::Sequential,
                None,
                &Obs::disabled(),
            )
            .unwrap()
            .run_to_completion()
            .unwrap(),
        );
        for parallelism in THREADS {
            if !listed.is_empty() {
                let (obs, ring, metrics) = recording();
                let run = count_mixed_parallel(
                    &db,
                    listed.clone(),
                    CountingBackend::TidBitmap,
                    ext,
                    parallelism,
                    None,
                    &obs,
                )
                .unwrap();
                let want: Vec<(Itemset, u64)> =
                    run.counts.into_iter().filter(|(_, n)| *n >= minsup).collect();
                let want_reported = reported(&ring, &metrics);

                let (obs, ring, metrics) = recording();
                let direct = count_pairs(&db, &pairs, minsup, parallelism, None, &obs).unwrap();
                prop_assert_eq!(&direct.counts, &want, "{:?}", parallelism);
                prop_assert_eq!(direct.transactions, run.transactions);
                let got_reported = reported(&ring, &metrics);
                prop_assert_eq!(got_reported.count.len(), 1);
                prop_assert_eq!(got_reported.count[0].0.as_str(), "pairs");
                prop_assert_eq!(got_reported.count[0].1, listed.len());
                if want_reported.count[0].0 == "pairs" {
                    prop_assert_eq!(got_reported, want_reported, "{:?}", parallelism);
                }
            }

            let obs = Obs::disabled();
            let mut miner = GenLevelMiner::new(
                &db,
                &tax,
                MinSupport::Count(minsup),
                strategy,
                CountingBackend::TidBitmap,
                parallelism,
                None,
                &obs,
            )
            .unwrap();
            let level = miner.mine_next_level().unwrap();
            let rows: Vec<(String, usize)> =
                obs.passes().into_iter().map(|r| (r.label, r.candidates)).collect();
            if listed.is_empty() {
                prop_assert_eq!(level, None);
                prop_assert_eq!(rows.len(), 1);
            } else {
                prop_assert!(level.is_some());
                prop_assert_eq!(&rows[1], &("L2".to_string(), listed.len()));
            }
            prop_assert_eq!(
                supports(&miner.run_to_completion().unwrap()),
                flat.clone(),
                "{:?}",
                parallelism
            );
        }
    }
}

/// a(0) → b(1) → c(2) → d(3): a chain, so every pair of items is related.
fn chain_taxonomy() -> Taxonomy {
    let mut b = TaxonomyBuilder::new();
    let mut parent = b.add_root("item0");
    for i in 1..4 {
        parent = b.add_child(parent, &format!("item{i}")).unwrap();
    }
    b.build()
}

fn db_of(txs: &[&[u32]]) -> TransactionDb {
    let mut b = TransactionDbBuilder::new();
    for t in txs {
        b.add(t.iter().map(|&i| ItemId(i)));
    }
    b.build()
}

/// Zero, one or two large items: no candidate pair (and no pass) unless
/// two unrelated items are large.
#[test]
fn direct_l2_with_zero_one_and_two_large_items() {
    let tax = chain_taxonomy();
    let anc = AncestorTable::new(&tax);
    let ext = Extension::NeededAncestors(&anc);
    let db = PassCounter::new(db_of(&[&[3, 7], &[3, 7, 8]]));
    for l1 in [&[][..], &[3], &[2, 3]] {
        let pairs = PairCandidates::new(&ids(l1), ext);
        assert!(pairs.is_empty(), "{l1:?}");
        let run = count_pairs(
            &db,
            &pairs,
            1,
            Parallelism::Threads(4),
            None,
            &Obs::disabled(),
        )
        .unwrap();
        assert!(run.counts.is_empty());
    }
    assert_eq!(db.passes(), 0);
    // Two unrelated items: one candidate, counted in one pass.
    let pairs = PairCandidates::new(&ids(&[7, 3]), ext);
    assert_eq!(pairs.len(), 1);
    for minsup in [1, 2, 3] {
        let run = count_pairs(
            &db,
            &pairs,
            minsup,
            Parallelism::Sequential,
            None,
            &Obs::disabled(),
        )
        .unwrap();
        let want: Vec<(Itemset, u64)> = if minsup <= 2 {
            vec![(Itemset::from_unsorted(ids(&[3, 7])), 2)]
        } else {
            Vec::new()
        };
        assert_eq!(run.counts, want, "minsup {minsup}");
    }
    assert_eq!(db.passes(), 3);
}

fn ids(v: &[u32]) -> Vec<ItemId> {
    v.iter().map(|&i| ItemId(i)).collect()
}

/// A chain taxonomy relates every pair of its items: level 2 has no
/// candidate, so the miner stops with no L2 pass and no L2 ledger row.
#[test]
fn chain_taxonomy_makes_no_l2_pass() {
    let tax = chain_taxonomy();
    let db = db_of(&[&[3], &[3, 2], &[3]]);
    for strategy in [GenStrategy::Basic, GenStrategy::Cumulate] {
        let (obs, ring, _) = recording();
        let mut miner = GenLevelMiner::new(
            &db,
            &tax,
            MinSupport::Count(1),
            strategy,
            CountingBackend::TidBitmap,
            Parallelism::Threads(4),
            None,
            &obs,
        )
        .unwrap();
        assert_eq!(miner.large().level_len(1), 4);
        assert_eq!(miner.mine_next_level().unwrap(), None);
        assert!(miner.is_done());
        let labels: Vec<String> = obs.passes().into_iter().map(|r| r.label).collect();
        assert_eq!(labels, ["L1"]);
        let sizes: Vec<(String, usize)> = ring
            .snapshot()
            .into_iter()
            .filter_map(|e| match e {
                Event::CandidateSet { label, size } => Some((label, size)),
                _ => None,
            })
            .collect();
        assert_eq!(sizes, [("L2".to_string(), 0)]);
    }
}

/// A large item related to every other large item is in no candidate
/// pair, so it gets no row: r(0) over a(1), b(2), c(3) has rows for a, b
/// and c only, a 3-cell triangle.
#[test]
fn item_related_to_all_others_gets_no_row() {
    let mut b = TaxonomyBuilder::new();
    let r = b.add_root("r");
    for name in ["a", "b", "c"] {
        b.add_child(r, name).unwrap();
    }
    let tax = b.build();
    let anc = AncestorTable::new(&tax);
    let db = db_of(&[&[1, 2], &[1, 2, 3], &[3], &[2]]);
    let l1 = ids(&[0, 1, 2, 3]);
    let listed = prune_ancestor_pairs(pairs_of(&l1), &anc);
    assert_eq!(listed.len(), 3);
    let pairs = PairCandidates::new(&l1, Extension::AllAncestors(&anc));
    assert_eq!(pairs.len(), 3);
    let (obs, ring, metrics) = recording();
    let run = count_pairs(&db, &pairs, 1, Parallelism::Sequential, None, &obs).unwrap();
    let got = reported(&ring, &metrics);
    assert_eq!(got.build, [("pairs".to_string(), 3, 3)]);
    // {a, b} twice, {a, c} and {b, c} once each; r's pairs never count.
    assert_eq!(got.count, [("pairs".to_string(), 3, 4, 4)]);
    let want: Vec<(Itemset, u64)> = [(&[1, 2][..], 2), (&[1, 3], 1), (&[2, 3], 1)]
        .iter()
        .map(|&(s, n)| (Itemset::from_unsorted(ids(s)), n))
        .collect();
    assert_eq!(run.counts, want);
    // The listed pass builds and counts the same triangle.
    let (obs, ring, metrics) = recording();
    count_mixed_parallel(
        &db,
        listed,
        CountingBackend::TidBitmap,
        Extension::AllAncestors(&anc),
        Parallelism::Sequential,
        None,
        &obs,
    )
    .unwrap();
    assert_eq!(reported(&ring, &metrics), got);
}

/// The candidate cap trips at L2 on the computed pair count, before any
/// pass and with the miner's state untouched; a cap equal to the count
/// lets the level through.
#[test]
fn candidate_cap_trips_on_the_computed_l2_count() {
    // The chain 0 → 1 → 2 → 3 beside the roots 4, 5 and 6.
    let mut b = TaxonomyBuilder::new();
    let mut parent = b.add_root("item0");
    for i in 1..4 {
        parent = b.add_child(parent, &format!("item{i}")).unwrap();
    }
    for i in 4..7 {
        b.add_root(&format!("item{i}"));
    }
    let tax = b.build();
    let db = PassCounter::new(db_of(&[&[3, 4, 5], &[3, 4], &[5, 6]]));
    let miner = |cap| {
        GenLevelMiner::new(
            &db,
            &tax,
            MinSupport::Count(1),
            GenStrategy::Cumulate,
            CountingBackend::TidBitmap,
            Parallelism::Sequential,
            None,
            &Obs::disabled(),
        )
        .unwrap()
        .with_candidate_cap(Some(cap))
    };
    // L1: all seven items, C(7, 2) − 6 related pairs = 15 candidates.
    let mut capped = miner(14);
    let before = capped.state();
    let passes = db.passes();
    let err = capped.mine_next_level().unwrap_err();
    let inner = err
        .get_ref()
        .and_then(|e| e.downcast_ref::<CandidateBudgetExceeded>())
        .expect("budget errors carry CandidateBudgetExceeded");
    assert_eq!((inner.level, inner.candidates, inner.cap), (2, 15, 14));
    assert_eq!(capped.state(), before);
    assert_eq!(db.passes(), passes);
    let mut exact = miner(15);
    assert!(exact.mine_next_level().unwrap().is_some());
}

/// A cancelled L2 pass returns the token's `Interrupted` error.
#[test]
fn cancelled_l2_pass_is_interrupted() {
    let tax = chain_taxonomy();
    let anc = AncestorTable::new(&tax);
    let db = db_of(&[&[3, 7], &[3, 7, 8]]);
    let pairs = PairCandidates::new(&ids(&[3, 7, 8]), Extension::NeededAncestors(&anc));
    let token = CancelToken::new();
    token.cancel(CancelReason::UserInterrupt);
    for parallelism in [Parallelism::Sequential, Parallelism::Threads(4)] {
        let err =
            count_pairs(&db, &pairs, 1, parallelism, Some(&token), &Obs::disabled()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::Interrupted, "{parallelism:?}");
        assert_eq!(cancellation_of(&err), Some(CancelReason::UserInterrupt));
    }
}
