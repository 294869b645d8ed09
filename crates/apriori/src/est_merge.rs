//! The **EstMerge** generalized miner (Srikant & Agrawal, VLDB '95),
//! sampling-based: a random sample of the database, drawn during the first
//! pass, *estimates* each candidate's support. Candidates expected to be
//! large are counted in the current pass; the rest are *deferred* and
//! counted (exactly) one pass later, merged with the next level's expected
//! candidates. Because every candidate is eventually counted exactly, the
//! result is identical to [`crate::basic`] / [`crate::cumulate`]; the
//! payoff is smaller per-pass counting structures when memory is tight.
//!
//! This is a reimplementation from the published description; the original
//! interleaves with the Stratify family, which the paper under reproduction
//! does not use. See DESIGN.md for the exact construction.

use crate::count::CountingBackend;
use crate::gen::{apriori_gen, pairs_of};
use crate::generalized::{extend_full, prune_ancestor_pairs, AncestorTable};
use crate::itemset::{Itemset, LargeItemsets};
use crate::parallel::{count_mixed_parallel, CancelToken, Extension, Obs, Parallelism, PassStats};
use crate::MinSupport;
use negassoc_taxonomy::fxhash::FxHashSet;
use negassoc_taxonomy::{ItemId, Taxonomy};
use negassoc_txdb::obs::{metric, Event};
use negassoc_txdb::{TransactionDb, TransactionDbBuilder, TransactionSource};
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};
use std::io;

/// Tuning knobs for [`est_merge`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EstMergeConfig {
    /// Fraction of transactions drawn into the estimation sample.
    pub sample_fraction: f64,
    /// A candidate is "expected large" when its scaled sample support is at
    /// least `safety_factor * minsup`. Below 1.0 trades a few extra counted
    /// candidates for fewer deferrals.
    pub safety_factor: f64,
    /// RNG seed for the sample (deterministic runs).
    pub seed: u64,
}

impl Default for EstMergeConfig {
    fn default() -> Self {
        Self {
            sample_fraction: 0.1,
            safety_factor: 0.9,
            seed: 0x5eed_e57a,
        }
    }
}

/// Statistics reported alongside the result.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EstMergeStats {
    /// Transactions in the sample.
    pub sample_size: u64,
    /// Candidates counted in the pass their level was generated.
    pub counted_immediately: u64,
    /// Candidates deferred to the following pass.
    pub deferred: u64,
    /// Full database passes made (excluding sample scans).
    pub passes: u64,
}

/// Mine all generalized large itemsets with EstMerge.
///
/// Batch-counting passes over the full database use the worker pool
/// `parallelism` selects. The sampling pass (pass 1) always runs
/// sequentially: the sample is drawn by an RNG advanced per transaction,
/// so its contents depend on stream order — which only the sequential
/// scan pins down. Sample-estimation scans are in-memory and cheap, so
/// they stay sequential too. Results are identical for every policy.
///
/// `ctrl` is checked before each full-database batch pass (and at block
/// boundaries within it); a cancelled run returns the token's
/// [`io::ErrorKind::Interrupted`] error (see [`negassoc_txdb::ctrl`]). The
/// sequential sampling pass is guarded at its boundaries — it is one pass,
/// the same interruption granularity every other miner offers. Pass
/// start/end events for the sampling pass (`"est_sample"`) and every batch
/// pass (`"est_batch"`) flow to `obs`.
#[allow(clippy::too_many_arguments)]
pub fn est_merge<S: TransactionSource + ?Sized>(
    source: &S,
    tax: &Taxonomy,
    min_support: MinSupport,
    backend: CountingBackend,
    config: EstMergeConfig,
    parallelism: Parallelism,
    ctrl: Option<&CancelToken>,
    obs: &Obs,
) -> io::Result<(LargeItemsets, EstMergeStats)> {
    assert!(
        (0.0..=1.0).contains(&config.sample_fraction),
        "sample_fraction must be in [0, 1]"
    );
    if let Some(c) = ctrl {
        c.check()?;
    }
    let ancestors = AncestorTable::new(tax);
    let mut stats = EstMergeStats::default();

    // Pass 1: exact item counts + sample collection.
    let started = std::time::Instant::now();
    obs.emit(|| Event::PassStart {
        label: "est_sample".to_string(),
        candidates: tax.len(),
    });
    let mut rng = SmallRng::seed_from_u64(config.seed);
    let mut sample_builder = TransactionDbBuilder::new();
    let mut counts: Vec<u64> = vec![0; tax.len()];
    let mut num_transactions = 0u64;
    let mut buf: Vec<ItemId> = Vec::new();
    source.pass(&mut |t| {
        num_transactions += 1;
        extend_full(t.items(), &ancestors, &mut buf);
        for &it in &buf {
            if let Some(c) = counts.get_mut(it.index()) {
                *c += 1;
            }
        }
        if rng.random::<f64>() < config.sample_fraction {
            sample_builder.add(t.items().iter().copied());
        }
    })?;
    stats.passes = 1;
    obs.emit(|| Event::PassEnd {
        stats: PassStats {
            pass: 1,
            label: "est_sample".to_string(),
            candidates: tax.len(),
            transactions: num_transactions,
            threads: 1,
            wall: started.elapsed(),
        },
    });
    obs.bump(metric::PASSES_COMPLETED, 1);
    let sample: TransactionDb = sample_builder.build();
    stats.sample_size = sample.len() as u64;

    let minsup = min_support.to_count(num_transactions);
    let mut large = LargeItemsets::new(num_transactions, minsup);

    let mut large_1: Vec<ItemId> = Vec::new();
    for (idx, &c) in counts.iter().enumerate() {
        if c >= minsup {
            let item = ItemId(idx as u32);
            large_1.push(item);
            large.insert(Itemset::singleton(item), c);
        }
    }

    // Per-level resolved large itemsets, used for incremental apriori_gen.
    let mut resolved: Vec<Vec<Itemset>> = vec![Vec::new(); 2];
    resolved[1] = large_1.iter().map(|&i| Itemset::singleton(i)).collect();

    // Candidates ever generated (so late-resolving deferred itemsets don't
    // regenerate what's already in flight).
    let mut generated: FxHashSet<Itemset> = FxHashSet::default();

    // Level 2 candidates seed the loop.
    let c2 = prune_ancestor_pairs(pairs_of(&large_1), &ancestors);
    generated.extend(c2.iter().cloned());
    let (mut batch, mut deferred_next) = split_by_estimate(
        &sample,
        &ancestors,
        c2,
        backend,
        num_transactions,
        minsup,
        config.safety_factor,
        &mut stats,
    )?;

    while !batch.is_empty() || !deferred_next.is_empty() {
        if let Some(c) = ctrl {
            c.check()?;
        }
        // One full-database pass counts this batch (mixed sizes).
        let counted = if batch.is_empty() {
            Vec::new()
        } else {
            stats.passes += 1;
            let batch_size = batch.len();
            let pass_no = stats.passes;
            obs.emit(|| Event::PassStart {
                label: "est_batch".to_string(),
                candidates: batch_size,
            });
            let pass_started = std::time::Instant::now();
            let run = count_mixed_parallel(
                source,
                std::mem::take(&mut batch),
                backend,
                Extension::AllAncestors(&ancestors),
                parallelism,
                ctrl,
                obs,
            )?;
            obs.emit(|| Event::PassEnd {
                stats: PassStats {
                    pass: pass_no,
                    label: "est_batch".to_string(),
                    candidates: batch_size,
                    transactions: run.transactions,
                    threads: run.threads,
                    wall: pass_started.elapsed(),
                },
            });
            obs.bump(metric::PASSES_COMPLETED, 1);
            run.counts
        };

        let mut levels_with_news: Vec<usize> = Vec::new();
        for (set, count) in counted {
            if count >= minsup {
                let k = set.len();
                if resolved.len() <= k {
                    resolved.resize_with(k + 1, Vec::new);
                }
                resolved[k].push(set.clone());
                if !levels_with_news.contains(&k) {
                    levels_with_news.push(k);
                }
                large.insert(set, count);
            }
        }

        // Generate not-yet-seen candidates one level above each level that
        // gained new large itemsets.
        let mut fresh: Vec<Itemset> = Vec::new();
        for &k in &levels_with_news {
            for cand in apriori_gen(&resolved[k]) {
                if generated.insert(cand.clone()) {
                    fresh.push(cand);
                }
            }
        }
        let (expected, deferred) = split_by_estimate(
            &sample,
            &ancestors,
            fresh,
            backend,
            num_transactions,
            minsup,
            config.safety_factor,
            &mut stats,
        )?;

        // Next pass counts: previously deferred candidates + newly expected
        // ones.
        batch = std::mem::take(&mut deferred_next);
        batch.extend(expected);
        deferred_next = deferred;
    }

    Ok((large, stats))
}

/// Estimate candidate supports on the sample and split into
/// (expected-large, deferred).
#[allow(clippy::too_many_arguments)]
fn split_by_estimate(
    sample: &TransactionDb,
    ancestors: &AncestorTable,
    candidates: Vec<Itemset>,
    backend: CountingBackend,
    num_transactions: u64,
    minsup: u64,
    safety_factor: f64,
    stats: &mut EstMergeStats,
) -> io::Result<(Vec<Itemset>, Vec<Itemset>)> {
    if candidates.is_empty() {
        return Ok((Vec::new(), Vec::new()));
    }
    if sample.is_empty() {
        // No information: count everything immediately (degenerates to
        // Basic, which is the safe direction).
        stats.counted_immediately += candidates.len() as u64;
        return Ok((candidates, Vec::new()));
    }
    let counted = count_mixed_parallel(
        sample,
        candidates,
        backend,
        Extension::AllAncestors(ancestors),
        Parallelism::Sequential,
        None,
        &Obs::disabled(),
    )?;
    let scale = num_transactions as f64 / sample.len() as f64;
    // negassoc-lint: allow(L005) -- sample-scaled threshold; supports are exact in f64 up to 2^53
    let threshold = safety_factor * minsup as f64;
    let mut expected = Vec::new();
    let mut deferred = Vec::new();
    for (set, sample_count) in counted.counts {
        if sample_count as f64 * scale >= threshold {
            expected.push(set);
        } else {
            deferred.push(set);
        }
    }
    stats.counted_immediately += expected.len() as u64;
    stats.deferred += deferred.len() as u64;
    Ok((expected, deferred))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::basic::basic;
    use crate::basic::tests::sa95;
    use negassoc_txdb::PassCounter;

    fn assert_same_large(a: &LargeItemsets, b: &LargeItemsets) {
        assert_eq!(a.total(), b.total());
        for (set, sup) in a.iter() {
            assert_eq!(b.support_of_set(set), Some(sup), "{set:?}");
        }
    }

    #[test]
    fn matches_basic_regardless_of_sampling() {
        let (tax, db, _) = sa95();
        let reference = basic(
            &db,
            &tax,
            MinSupport::Count(2),
            CountingBackend::SubsetHashMap,
            Parallelism::Sequential,
            None,
            &Obs::disabled(),
        )
        .unwrap();
        for (frac, seed) in [(0.0, 1u64), (0.5, 2), (1.0, 3), (0.3, 42)] {
            let (got, _stats) = est_merge(
                &db,
                &tax,
                MinSupport::Count(2),
                CountingBackend::TidBitmap,
                EstMergeConfig {
                    sample_fraction: frac,
                    safety_factor: 0.9,
                    seed,
                },
                Parallelism::Threads(if seed % 2 == 0 { 3 } else { 1 }),
                None,
                &Obs::disabled(),
            )
            .unwrap();
            assert_same_large(&reference, &got);
        }
    }

    #[test]
    fn empty_sample_counts_everything_immediately() {
        let (tax, db, _) = sa95();
        let (_large, stats) = est_merge(
            &db,
            &tax,
            MinSupport::Count(2),
            CountingBackend::TidBitmap,
            EstMergeConfig {
                sample_fraction: 0.0,
                ..EstMergeConfig::default()
            },
            Parallelism::Sequential,
            None,
            &Obs::disabled(),
        )
        .unwrap();
        assert_eq!(stats.sample_size, 0);
        assert_eq!(stats.deferred, 0);
        assert!(stats.counted_immediately > 0);
    }

    #[test]
    fn full_sample_estimates_exactly() {
        let (tax, db, _) = sa95();
        let (_large, stats) = est_merge(
            &db,
            &tax,
            MinSupport::Count(2),
            CountingBackend::TidBitmap,
            EstMergeConfig {
                sample_fraction: 1.0,
                safety_factor: 1.0,
                seed: 7,
            },
            Parallelism::Sequential,
            None,
            &Obs::disabled(),
        )
        .unwrap();
        // With the whole database as the sample and safety factor 1, the
        // estimate is exact, so deferred candidates are exactly the
        // not-large ones and every deferred candidate stays small.
        assert_eq!(stats.sample_size, db.len() as u64);
        let _ = stats;
    }

    #[test]
    fn deterministic_under_seed() {
        let (tax, db, _) = sa95();
        let cfg = EstMergeConfig {
            sample_fraction: 0.4,
            safety_factor: 0.9,
            seed: 99,
        };
        let (a, sa) = est_merge(
            &db,
            &tax,
            MinSupport::Count(2),
            CountingBackend::TidBitmap,
            cfg,
            Parallelism::Sequential,
            None,
            &Obs::disabled(),
        )
        .unwrap();
        let (b, sb) = est_merge(
            &db,
            &tax,
            MinSupport::Count(2),
            CountingBackend::TidBitmap,
            cfg,
            Parallelism::Sequential,
            None,
            &Obs::disabled(),
        )
        .unwrap();
        assert_same_large(&a, &b);
        assert_eq!(sa, sb);
    }

    #[test]
    fn pass_counter_matches_reported_passes() {
        let (tax, db, _) = sa95();
        let pc = PassCounter::new(db);
        let (_large, stats) = est_merge(
            &pc,
            &tax,
            MinSupport::Count(2),
            CountingBackend::TidBitmap,
            EstMergeConfig::default(),
            Parallelism::Sequential,
            None,
            &Obs::disabled(),
        )
        .unwrap();
        assert_eq!(stats.passes, pc.passes());
    }
}
