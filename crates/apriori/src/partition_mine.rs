//! The **Partition** algorithm (Savasere, Omiecinski & Navathe, VLDB '95 —
//! the negative-association paper's reference [11] and its authors' own
//! prior work): mine each horizontal partition *in memory* for its locally
//! large itemsets, union them into a global candidate set, then verify the
//! candidates with exact counts in one final pass. Two logical reads of
//! the database in total, independent of the deepest itemset level.
//!
//! Correctness: a globally large itemset must be locally large (at the
//! same support *fraction*) in at least one partition — otherwise its
//! total count would be below the threshold — so the union of local
//! results is a superset of the answer and the verification pass makes the
//! result exact.
//!
//! Local mining intersects per-partition vertical indexes, as in the
//! original — here packed TID bitmaps ([`negassoc_txdb::vertical::TidBitmap`],
//! AND + popcount) rather than TID lists; with a taxonomy the index is
//! generalized, so the same machinery mines generalized itemsets
//! (candidates containing an item and its ancestor are pruned as in
//! [`crate::cumulate`]). The counting backend only selects how the
//! phase-2 verification pass counts.

use crate::count::CountingBackend;
use crate::gen::{apriori_gen, pairs_of};
use crate::generalized::{prune_ancestor_pairs, AncestorTable};
use crate::itemset::{Itemset, LargeItemsets};
use crate::parallel::{count_mixed_parallel, CancelToken, Extension, Obs, Parallelism, PassStats};
use crate::MinSupport;
use negassoc_taxonomy::fxhash::FxHashSet;
use negassoc_taxonomy::{ItemId, Taxonomy};
use negassoc_txdb::block::parallel_map;
use negassoc_txdb::obs::{metric, Event};
use negassoc_txdb::partition::partitions;
use negassoc_txdb::shard::ShardAccess;
use negassoc_txdb::vertical::TidBitmap;
use negassoc_txdb::{TransactionDb, TransactionSource};
use std::io;

/// Mine all (generalized, when `tax` is given) large itemsets with the
/// Partition algorithm over `num_partitions` partitions.
///
/// With a multi-threaded [`Parallelism`] policy, phase 1 mines partitions
/// concurrently (each worker builds and mines its own bitmap indexes) and
/// the phase-2 verification pass runs on the shared worker-pool counter.
/// Local results are unioned in partition order and the global candidate
/// set is sorted before counting, so the result — and every downstream
/// byte of output — is identical for every policy.
///
/// Phase 1 checks `ctrl` before mining each partition and phase 2 checks
/// it at block boundaries; a cancelled run returns the token's
/// [`io::ErrorKind::Interrupted`] error (see [`negassoc_txdb::ctrl`]).
/// The phase-2 verification pass reports to `obs` under the
/// `"partition_verify"` label.
///
/// # Panics
/// Panics when `num_partitions == 0`.
#[allow(clippy::too_many_arguments)]
pub fn partition_mine(
    db: &TransactionDb,
    tax: Option<&Taxonomy>,
    min_support: MinSupport,
    num_partitions: usize,
    backend: CountingBackend,
    parallelism: Parallelism,
    ctrl: Option<&CancelToken>,
    obs: &Obs,
) -> io::Result<LargeItemsets> {
    assert!(num_partitions > 0, "need at least one partition");
    let total = db.len() as u64;
    let global_minsup = min_support.to_count(total);
    // The support *fraction* drives the local thresholds (see module docs).
    let frac = if total == 0 {
        1.0
    } else {
        global_minsup as f64 / total as f64
    };
    let ancestors = tax.map(AncestorTable::new);

    // Phase 1: locally large itemsets, mined per partition (concurrently
    // when allowed) and unioned in partition order.
    let parts = partitions(db, num_partitions);
    let ancestors_ref = ancestors.as_ref();
    let locals = parallel_map(parts, parallelism.resolve(), |part| -> io::Result<_> {
        if let Some(c) = ctrl {
            c.check()?;
        }
        let local_minsup = ((frac * part.len() as f64).ceil() as u64).max(1);
        let mut local: FxHashSet<Itemset> = FxHashSet::default();
        local_mine(&part, tax, local_minsup, ancestors_ref, &mut local)?;
        if let Some(c) = ctrl {
            c.record_progress(part.len() as u64);
        }
        Ok(local)
    });
    let mut global_candidates: FxHashSet<Itemset> = FxHashSet::default();
    for local in locals {
        global_candidates.extend(local?);
    }

    verify_candidates(
        db,
        total,
        global_minsup,
        global_candidates,
        ancestors.as_ref(),
        backend,
        parallelism,
        ctrl,
        obs,
    )
}

/// The Partition algorithm over a *sharded* database: phase 1 mines each
/// shard one at a time — loaded, mined for its locally large itemsets,
/// then dropped, so peak memory is bounded by the largest shard no matter
/// how many the manifest lists — and phase 2 verifies the unioned
/// candidates with one exact streaming pass over `source`. Quarantined
/// shards ([`ShardAccess::load_shard`] returning `None`) are skipped in
/// both phases: the result is exact over the delivered transactions,
/// identical to mining the healthy shards alone.
///
/// `source` and `shards` must be views of the same database (normally a
/// [`negassoc_txdb::shard::ShardedSource`] and its own
/// [`TransactionSource::as_shards`] handle); each shard plays the role a
/// horizontal partition plays in [`partition_mine`], so the same
/// local-fraction correctness argument applies.
#[allow(clippy::too_many_arguments)]
pub fn partition_mine_shards<S: TransactionSource + ?Sized>(
    source: &S,
    shards: &dyn ShardAccess,
    tax: Option<&Taxonomy>,
    min_support: MinSupport,
    backend: CountingBackend,
    parallelism: Parallelism,
    ctrl: Option<&CancelToken>,
    obs: &Obs,
) -> io::Result<LargeItemsets> {
    let total = source.count_transactions()?;
    let global_minsup = min_support.to_count(total);
    let frac = if total == 0 {
        1.0
    } else {
        global_minsup as f64 / total as f64
    };
    let ancestors = tax.map(AncestorTable::new);

    // Phase 1: shard-local mining, strictly one shard in memory at a time.
    let mut global_candidates: FxHashSet<Itemset> = FxHashSet::default();
    for i in 0..shards.shard_count() {
        if let Some(c) = ctrl {
            c.check()?;
        }
        let Some(db) = shards.load_shard(i)? else {
            continue; // quarantined
        };
        if db.is_empty() {
            continue;
        }
        let local_minsup = ((frac * db.len() as f64).ceil() as u64).max(1);
        local_mine(
            &db,
            tax,
            local_minsup,
            ancestors.as_ref(),
            &mut global_candidates,
        )?;
        if let Some(c) = ctrl {
            c.record_progress(db.len() as u64);
        }
    }

    verify_candidates(
        source,
        total,
        global_minsup,
        global_candidates,
        ancestors.as_ref(),
        backend,
        parallelism,
        ctrl,
        obs,
    )
}

/// Phase 2 of both partition variants: one exact counting pass over
/// `source` confirming which unioned local candidates are globally large.
#[allow(clippy::too_many_arguments)]
fn verify_candidates<S: TransactionSource + ?Sized>(
    source: &S,
    total: u64,
    global_minsup: u64,
    global_candidates: FxHashSet<Itemset>,
    ancestors: Option<&AncestorTable>,
    backend: CountingBackend,
    parallelism: Parallelism,
    ctrl: Option<&CancelToken>,
    obs: &Obs,
) -> io::Result<LargeItemsets> {
    let mut large = LargeItemsets::new(total, global_minsup);
    if global_candidates.is_empty() {
        return Ok(large);
    }
    let mut candidates: Vec<Itemset> = global_candidates.into_iter().collect();
    // Sorted candidates decouple the verification pass (and the insertion
    // order of everything downstream) from hash-set iteration order.
    candidates.sort_unstable();
    let verify_size = candidates.len();
    obs.emit(|| Event::CandidateSet {
        label: "partition_verify".to_string(),
        size: verify_size,
    });
    obs.emit(|| Event::PassStart {
        label: "partition_verify".to_string(),
        candidates: verify_size,
    });
    let verify_started = std::time::Instant::now();
    let extension = ancestors.map_or(Extension::Literal, Extension::NeededAncestors);
    let counted = count_mixed_parallel(
        source,
        candidates,
        backend,
        extension,
        parallelism,
        ctrl,
        obs,
    )?;
    obs.emit(|| Event::PassEnd {
        stats: PassStats {
            pass: 2,
            label: "partition_verify".to_string(),
            candidates: verify_size,
            transactions: counted.transactions,
            threads: counted.threads,
            wall: verify_started.elapsed(),
        },
    });
    obs.bump(metric::PASSES_COMPLETED, 1);
    for (set, count) in counted.counts {
        if let Some(c) = ctrl {
            c.check()?;
        }
        if count >= global_minsup {
            large.insert(set, count);
        }
    }
    Ok(large)
}

/// Levelwise local mining of one partition or shard: one pass builds its
/// TID-bitmap index (generalized — category rows filled in once after the
/// pass — when a taxonomy is given), then every level is counted by
/// AND + popcount against it.
fn local_mine<S: TransactionSource>(
    part: &S,
    tax: Option<&Taxonomy>,
    local_minsup: u64,
    ancestors: Option<&AncestorTable>,
    out: &mut FxHashSet<Itemset>,
) -> io::Result<()> {
    let index = match tax {
        Some(t) => TidBitmap::build_generalized(part, t)?,
        None => TidBitmap::build(part)?,
    };
    // Local L1.
    let mut large_1: Vec<ItemId> = Vec::new();
    for raw in 0..index.max_item_bound() {
        let item = ItemId(raw);
        if index.support_1(item) >= local_minsup {
            large_1.push(item);
            out.insert(Itemset::singleton(item));
        }
    }
    // Levels >= 2 by intersection.
    let mut frontier: Vec<Itemset> = Vec::new();
    let mut k = 2;
    loop {
        let candidates = if k == 2 {
            let pairs = pairs_of(&large_1);
            match ancestors {
                Some(anc) => prune_ancestor_pairs(pairs, anc),
                None => pairs,
            }
        } else {
            apriori_gen(&frontier)
        };
        if candidates.is_empty() {
            return Ok(());
        }
        frontier.clear();
        for cand in candidates {
            if index.support(cand.items()) >= local_minsup {
                out.insert(cand.clone());
                frontier.push(cand);
            }
        }
        if frontier.is_empty() {
            return Ok(());
        }
        k += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apriori::apriori;
    use crate::basic::tests::sa95;
    use crate::cumulate::cumulate;
    use negassoc_txdb::TransactionDbBuilder;

    fn textbook_db() -> TransactionDb {
        let mut b = TransactionDbBuilder::new();
        b.add([ItemId(1), ItemId(3), ItemId(4)]);
        b.add([ItemId(2), ItemId(3), ItemId(5)]);
        b.add([ItemId(1), ItemId(2), ItemId(3), ItemId(5)]);
        b.add([ItemId(2), ItemId(5)]);
        b.build()
    }

    fn assert_same(a: &LargeItemsets, b: &LargeItemsets) {
        assert_eq!(a.total(), b.total());
        for (set, sup) in a.iter() {
            assert_eq!(b.support_of_set(set), Some(sup), "{set:?}");
        }
    }

    #[test]
    fn flat_matches_apriori_for_any_partition_count() {
        let db = textbook_db();
        let reference = apriori(&db, MinSupport::Count(2), CountingBackend::SubsetHashMap).unwrap();
        for parts in [1, 2, 3, 4] {
            let got = partition_mine(
                &db,
                None,
                MinSupport::Count(2),
                parts,
                CountingBackend::TidBitmap,
                Parallelism::Threads(parts),
                None,
                &Obs::disabled(),
            )
            .unwrap();
            assert_same(&reference, &got);
        }
    }

    #[test]
    fn generalized_matches_cumulate() {
        let (tax, db, _) = sa95();
        let reference = cumulate(
            &db,
            &tax,
            MinSupport::Count(2),
            CountingBackend::SubsetHashMap,
            Parallelism::Sequential,
            None,
            &Obs::disabled(),
        )
        .unwrap();
        for parts in [1, 2, 3] {
            let got = partition_mine(
                &db,
                Some(&tax),
                MinSupport::Count(2),
                parts,
                CountingBackend::TidBitmap,
                Parallelism::Threads(2),
                None,
                &Obs::disabled(),
            )
            .unwrap();
            assert_same(&reference, &got);
        }
    }

    #[test]
    fn empty_database() {
        let db = TransactionDbBuilder::new().build();
        let got = partition_mine(
            &db,
            None,
            MinSupport::Fraction(0.1),
            4,
            CountingBackend::TidBitmap,
            Parallelism::Sequential,
            None,
            &Obs::disabled(),
        )
        .unwrap();
        assert_eq!(got.total(), 0);
    }

    #[test]
    fn fractional_support_thresholds() {
        let db = textbook_db();
        let reference = apriori(
            &db,
            MinSupport::Fraction(0.5),
            CountingBackend::SubsetHashMap,
        )
        .unwrap();
        let got = partition_mine(
            &db,
            None,
            MinSupport::Fraction(0.5),
            2,
            CountingBackend::TidBitmap,
            Parallelism::Sequential,
            None,
            &Obs::disabled(),
        )
        .unwrap();
        assert_same(&reference, &got);
    }

    /// In-memory stand-in for a sharded database: `None` = quarantined.
    struct FakeShards(Vec<Option<TransactionDb>>);

    impl ShardAccess for FakeShards {
        fn shard_count(&self) -> usize {
            self.0.len()
        }

        fn load_shard(&self, index: usize) -> io::Result<Option<TransactionDb>> {
            Ok(self.0[index].as_ref().map(clone_db))
        }
    }

    fn clone_db(db: &TransactionDb) -> TransactionDb {
        let mut b = TransactionDbBuilder::new();
        db.pass(&mut |t| b.add_with_tid(t.tid(), t.items().iter().copied()))
            .unwrap();
        b.build()
    }

    fn concat(dbs: &[&TransactionDb]) -> TransactionDb {
        let mut b = TransactionDbBuilder::new();
        for db in dbs {
            db.pass(&mut |t| b.add_with_tid(t.tid(), t.items().iter().copied()))
                .unwrap();
        }
        b.build()
    }

    #[test]
    fn sharded_matches_apriori_and_skips_quarantined_shards() {
        let mut a = TransactionDbBuilder::new();
        a.add([ItemId(1), ItemId(3), ItemId(4)]);
        a.add([ItemId(2), ItemId(3), ItemId(5)]);
        let a = a.build();
        let mut b = TransactionDbBuilder::new();
        b.add([ItemId(1), ItemId(2), ItemId(3), ItemId(5)]);
        b.add([ItemId(2), ItemId(5)]);
        let b = b.build();

        // All shards healthy: identical to apriori over the whole database.
        let whole = concat(&[&a, &b]);
        let reference =
            apriori(&whole, MinSupport::Count(2), CountingBackend::SubsetHashMap).unwrap();
        let shards = FakeShards(vec![Some(clone_db(&a)), Some(clone_db(&b))]);
        let got = partition_mine_shards(
            &whole,
            &shards,
            None,
            MinSupport::Count(2),
            CountingBackend::TidBitmap,
            Parallelism::Threads(2),
            None,
            &Obs::disabled(),
        )
        .unwrap();
        assert_same(&reference, &got);

        // Shard b quarantined: identical to mining shard a alone.
        let reference = apriori(&a, MinSupport::Count(1), CountingBackend::SubsetHashMap).unwrap();
        let shards = FakeShards(vec![Some(clone_db(&a)), None]);
        let got = partition_mine_shards(
            &a,
            &shards,
            None,
            MinSupport::Count(1),
            CountingBackend::TidBitmap,
            Parallelism::Sequential,
            None,
            &Obs::disabled(),
        )
        .unwrap();
        assert_same(&reference, &got);
    }

    #[test]
    fn sharded_generalized_matches_cumulate() {
        let (tax, db, _) = sa95();
        let reference = cumulate(
            &db,
            &tax,
            MinSupport::Count(2),
            CountingBackend::SubsetHashMap,
            Parallelism::Sequential,
            None,
            &Obs::disabled(),
        )
        .unwrap();
        // Split the SA'95 database into three in-memory shards.
        let n = db.len();
        let mut parts: Vec<TransactionDbBuilder> =
            (0..3).map(|_| TransactionDbBuilder::new()).collect();
        let mut i = 0usize;
        db.pass(&mut |t| {
            parts[i * 3 / n].add_with_tid(t.tid(), t.items().iter().copied());
            i += 1;
        })
        .unwrap();
        let shards = FakeShards(parts.into_iter().map(|p| Some(p.build())).collect());
        let got = partition_mine_shards(
            &db,
            &shards,
            Some(&tax),
            MinSupport::Count(2),
            CountingBackend::TidBitmap,
            Parallelism::Threads(2),
            None,
            &Obs::disabled(),
        )
        .unwrap();
        assert_same(&reference, &got);
    }

    #[test]
    #[should_panic(expected = "at least one partition")]
    fn zero_partitions_panics() {
        let db = textbook_db();
        let _ = partition_mine(
            &db,
            None,
            MinSupport::Count(2),
            0,
            CountingBackend::TidBitmap,
            Parallelism::Sequential,
            None,
            &Obs::disabled(),
        );
    }
}
