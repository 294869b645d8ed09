//! The **improved** negative-mining driver (paper §2.2.2, Figure 3).
//!
//! Two optimizations over [`crate::naive`]:
//!
//! 1. all small 1-itemsets are deleted from the taxonomy before negative
//!    candidates are generated (fewer candidates — the effective fan-out
//!    shrinks), and
//! 2. negative candidates of *all* sizes are generated in one step after
//!    positive mining finishes and counted in a **single** extra pass.
//!
//! Total: `n + 1` database passes, versus the naive driver's `2n`. When the
//! candidate set exceeds the configured memory budget, counting degrades
//! gracefully to one pass per chunk (§2.5).

use crate::candidates::{CandidateGenerator, CandidateSet};
use crate::checkpoint::{CheckpointManager, NegativeCheckpoint, PositiveCheckpoint, Resume};
use crate::config::{GenAlgorithm, MinerConfig};
use crate::counting::confirm_negatives;
use crate::error::Error;
use crate::naive::{renumber, DriverOutcome};
use crate::substitutes::SubstituteKnowledge;
use negassoc_apriori::est_merge::est_merge;
use negassoc_apriori::generalized::AncestorTable;
use negassoc_apriori::levelwise::{
    CandidateBudgetExceeded, GenLevelMiner, GenStrategy, MinerState,
};
use negassoc_apriori::parallel::{CancelToken, Obs, PassStats};
use negassoc_apriori::partition_mine::{partition_mine, partition_mine_shards};
use negassoc_apriori::{Itemset, LargeItemsets};
use negassoc_taxonomy::fxhash::FxHashSet;
use negassoc_taxonomy::{FilteredTaxonomy, ItemId, Taxonomy};
use negassoc_txdb::TransactionSource;
use std::io;
use std::time::Instant;

/// Rough memory estimate per live candidate (boxed itemset + support-table
/// and counting-structure share) used to turn a byte budget into a
/// candidate cap.
/// Deliberately conservative — the guard exists to avoid OOM aborts, not
/// to meter allocations exactly.
const EST_BYTES_PER_CANDIDATE: usize = 160;

/// The candidate cap a [`MinerConfig::memory_budget`] implies.
fn budget_candidate_cap(config: &MinerConfig) -> Option<usize> {
    config
        .memory_budget
        .map(|bytes| (bytes / EST_BYTES_PER_CANDIDATE).max(1))
}

/// The overflow report inside a budget-exceeded positive-phase error, if
/// that is what `e` is.
fn budget_overflow(e: &Error) -> Option<CandidateBudgetExceeded> {
    let Error::Io(io_err) = e else {
        return None;
    };
    if io_err.kind() != io::ErrorKind::OutOfMemory {
        return None;
    }
    io_err
        .get_ref()?
        .downcast_ref::<CandidateBudgetExceeded>()
        .copied()
}

/// Run the improved driver, optionally checkpointing after every completed
/// pass and resuming from the latest trustworthy checkpoint in the
/// manager's directory.
///
/// `ctrl` (when given) is checked at every pass, level, and candidate-chunk
/// boundary; a cancelled run errors out without partial results, leaving
/// whatever checkpoints its completed passes already persisted. Every
/// counting pass reports to `obs`.
pub(crate) fn run_improved_with_checkpoints<S: TransactionSource + ?Sized>(
    source: &S,
    tax: &Taxonomy,
    config: &MinerConfig,
    substitutes: Option<&SubstituteKnowledge>,
    ckpt: Option<&CheckpointManager>,
    ctrl: Option<&CancelToken>,
    obs: &Obs,
) -> Result<DriverOutcome, Error> {
    let resume = match ckpt {
        Some(c) => c.load_latest(),
        None => Resume::Fresh,
    };

    // Phases 1+2: generalized large itemsets, then negative candidates of
    // every size at once — or whatever part of that a checkpoint already
    // paid for.
    let positive_start = Instant::now();
    let (large, mut passes, levels, mut pass_stats, prepared) = match resume {
        Resume::Negative(saved) => {
            let large = large_of(&saved.positive.state);
            // The checkpoint paid for the positive passes; there is no
            // telemetry to report for work this run did not do.
            (
                large,
                saved.positive.passes,
                saved.positive.levels,
                Vec::new(),
                Some((saved.candidates, saved.stats)),
            )
        }
        Resume::Positive(saved) if positive_strategy(config).is_some() => {
            let attempt = resume_positive(source, tax, config, saved, ckpt, ctrl, obs);
            let (l, p, lv, st) = positive_or_degraded(attempt, source, tax, config, ctrl, obs)?;
            (l, p, lv, st, None)
        }
        Resume::Positive(_) | Resume::Fresh => {
            let attempt = mine_positive(source, tax, config, ckpt, ctrl, obs);
            let (l, p, lv, st) = positive_or_degraded(attempt, source, tax, config, ctrl, obs)?;
            (l, p, lv, st, None)
        }
    };
    let positive_time = positive_start.elapsed();

    let negative_start = Instant::now();
    let (cands, candidate_stats) = match prepared {
        Some(ready) => ready,
        None => {
            let (cands, stats) = generate_all_candidates(tax, &large, config, substitutes, ctrl)?;
            if let Some(c) = ckpt {
                c.save_negative(&NegativeCheckpoint {
                    positive: PositiveCheckpoint {
                        state: state_of(&large),
                        passes,
                        levels,
                    },
                    candidates: cands.clone(),
                    stats: stats.clone(),
                })?;
            }
            (cands, stats)
        }
    };

    // Phase 3: a single counting pass (or several under the memory cap).
    let ancestors = AncestorTable::new(tax);
    let (negatives, neg_passes, neg_stats) = confirm_negatives(
        source,
        &ancestors,
        cands,
        config.backend,
        counting_cap(config),
        large.min_support_count(),
        config.min_ri,
        config.parallelism,
        pass_stats.len() as u64 + 1,
        ctrl,
        obs,
    )?;
    passes += neg_passes;
    pass_stats.extend(neg_stats);
    renumber(&mut pass_stats);
    let negative_time = negative_start.elapsed();

    Ok(DriverOutcome {
        large,
        negatives,
        candidate_stats,
        passes,
        levels,
        positive_time,
        negative_time,
        pass_stats,
    })
}

/// The chunk cap for the counting pass: the tighter of the explicit §2.5
/// cap and the one the memory budget implies.
fn counting_cap(config: &MinerConfig) -> Option<usize> {
    match (config.max_candidates_per_pass, budget_candidate_cap(config)) {
        (Some(a), Some(b)) => Some(a.min(b)),
        (a, b) => a.or(b),
    }
}

/// Fail negative-candidate generation when it outgrows the memory budget.
/// Unlike the positive phase there is no partitioned fallback here — the
/// candidate set itself is what does not fit — so this is a terminal,
/// actionable error rather than a degradation trigger.
fn check_candidate_budget(len: usize, size: usize, cap: Option<usize>) -> Result<(), Error> {
    match cap {
        Some(cap) if len > cap => Err(Error::Budget(format!(
            "negative candidate generation reached {len} candidates at itemset size {size}, \
             over the memory budget's cap of {cap}; raise the budget or lower \
             `max_negative_size`"
        ))),
        _ => Ok(()),
    }
}

/// The degradation ladder for the positive phase. A successful (or
/// non-budget-related) result passes through untouched. When the
/// level-wise miner tripped its candidate cap, fall back to the Partition
/// algorithm (two passes, per-partition working sets) if the source is an
/// in-memory database, or to its sharded variant (one shard in memory at
/// a time) if the source exposes shards; otherwise surface a typed
/// [`Error::Budget`] so the caller can decide, instead of letting the
/// process OOM-abort.
fn positive_or_degraded<S: TransactionSource + ?Sized>(
    result: Result<(LargeItemsets, u64, u64, Vec<PassStats>), Error>,
    source: &S,
    tax: &Taxonomy,
    config: &MinerConfig,
    ctrl: Option<&CancelToken>,
    obs: &Obs,
) -> Result<(LargeItemsets, u64, u64, Vec<PassStats>), Error> {
    let err = match result {
        Ok(ok) => return Ok(ok),
        Err(e) => e,
    };
    let Some(overflow) = budget_overflow(&err) else {
        return Err(err);
    };
    let Some(db) = source.as_db() else {
        // A sharded source has no whole in-memory database, but its shards
        // are natural partitions: mine them one at a time under the same
        // local-fraction argument, bounded by the largest shard.
        if let Some(shards) = source.as_shards() {
            let large = partition_mine_shards(
                source,
                shards,
                Some(tax),
                config.min_support,
                config.backend,
                config.parallelism,
                ctrl,
                obs,
            )?;
            let levels = large.max_level() as u64;
            return Ok((large, 2, levels, Vec::new()));
        }
        return Err(Error::Budget(format!(
            "{overflow}; the partitioned fallback needs an in-memory database and this \
             source is streamed — raise the memory budget or lower `max_negative_size`"
        )));
    };
    // Size partitions so each one's working set plausibly fits the budget,
    // assuming ~16 bytes per stored item occurrence.
    let budget = config.memory_budget.unwrap_or(usize::MAX).max(1);
    let est_db_bytes = (db.avg_len() * db.len() as f64 * 16.0) as usize;
    let parts = (est_db_bytes / budget + 2).clamp(2, 64);
    let large = partition_mine(
        db,
        Some(tax),
        config.min_support,
        parts,
        config.backend,
        config.parallelism,
        ctrl,
        obs,
    )?;
    let levels = large.max_level() as u64;
    // Partition makes exactly two full passes regardless of depth. Its
    // phase structure (local mining + one verification pass) does not map
    // onto per-level pass telemetry, so it reports none.
    Ok((large, 2, levels, Vec::new()))
}

/// The level-wise strategy of the configured algorithm, `None` for
/// EstMerge (whose deferred counting has no per-level stepping to
/// checkpoint or resume).
fn positive_strategy(config: &MinerConfig) -> Option<GenStrategy> {
    match config.algorithm {
        GenAlgorithm::Basic => Some(GenStrategy::Basic),
        GenAlgorithm::Cumulate => Some(GenStrategy::Cumulate),
        GenAlgorithm::EstMerge(_) => None,
    }
}

/// Reconstruct a [`LargeItemsets`] store from a checkpointed state.
fn large_of(state: &MinerState) -> LargeItemsets {
    let mut large = LargeItemsets::new(state.num_transactions, state.minsup);
    for (set, support) in &state.large {
        large.insert(set.clone(), *support);
    }
    large
}

/// Snapshot a *finished* positive phase as a [`MinerState`] (sorted, so
/// equal results serialize identically).
fn state_of(large: &LargeItemsets) -> MinerState {
    let mut all: Vec<(Itemset, u64)> = large.iter().map(|(s, c)| (s.clone(), c)).collect();
    all.sort_unstable_by(|a, b| a.0.cmp(&b.0));
    MinerState {
        num_transactions: large.num_transactions(),
        minsup: large.min_support_count(),
        large: all,
        frontier: Vec::new(),
        next_k: large.max_level() + 1,
        done: true,
    }
}

/// Step a level miner to completion, checkpointing after every pass.
fn step_to_completion<S: TransactionSource + ?Sized>(
    miner: &mut GenLevelMiner<'_, S>,
    passes: &mut u64,
    levels: &mut u64,
    ckpt: Option<&CheckpointManager>,
) -> Result<(), Error> {
    while let Some(found) = miner.mine_next_level()? {
        *passes += 1;
        if found > 0 {
            *levels += 1;
        }
        if let Some(c) = ckpt {
            c.save_positive(&PositiveCheckpoint {
                state: miner.state(),
                passes: *passes,
                levels: *levels,
            })?;
        }
    }
    Ok(())
}

/// Phase 1 dispatch over the configured positive algorithm. Returns the
/// results plus (passes, levels).
fn mine_positive<S: TransactionSource + ?Sized>(
    source: &S,
    tax: &Taxonomy,
    config: &MinerConfig,
    ckpt: Option<&CheckpointManager>,
    ctrl: Option<&CancelToken>,
    obs: &Obs,
) -> Result<(LargeItemsets, u64, u64, Vec<PassStats>), Error> {
    match positive_strategy(config) {
        Some(strategy) => {
            let mut miner = GenLevelMiner::new(
                source,
                tax,
                config.min_support,
                strategy,
                config.backend,
                config.parallelism,
                ctrl,
                obs,
            )?
            .with_candidate_cap(budget_candidate_cap(config));
            let mut passes = 1u64;
            let mut levels = 1u64;
            if let Some(c) = ckpt {
                c.save_positive(&PositiveCheckpoint {
                    state: miner.state(),
                    passes,
                    levels,
                })?;
            }
            step_to_completion(&mut miner, &mut passes, &mut levels, ckpt)?;
            let stats = miner.take_pass_stats();
            Ok((miner.large().clone(), passes, levels, stats))
        }
        None => {
            let GenAlgorithm::EstMerge(est_config) = config.algorithm else {
                return Err(Error::Invariant(
                    "positive_strategy returned None for a level-wise algorithm".into(),
                ));
            };
            let (large, stats) = est_merge(
                source,
                tax,
                config.min_support,
                config.backend,
                est_config,
                config.parallelism,
                ctrl,
                obs,
            )?;
            let levels = large.max_level() as u64;
            // EstMerge batches candidates across levels and interleaves
            // sample scans, so its passes do not decompose into per-level
            // telemetry; only the ledger count is reported.
            Ok((large, stats.passes, levels, Vec::new()))
        }
    }
}

/// Continue positive mining from a checkpoint instead of from scratch.
#[allow(clippy::too_many_arguments)]
fn resume_positive<S: TransactionSource + ?Sized>(
    source: &S,
    tax: &Taxonomy,
    config: &MinerConfig,
    saved: PositiveCheckpoint,
    ckpt: Option<&CheckpointManager>,
    ctrl: Option<&CancelToken>,
    obs: &Obs,
) -> Result<(LargeItemsets, u64, u64, Vec<PassStats>), Error> {
    let Some(strategy) = positive_strategy(config) else {
        return Err(Error::Invariant(
            "resume_positive called for a non-level-wise algorithm".into(),
        ));
    };
    let mut miner = GenLevelMiner::resume(
        source,
        tax,
        strategy,
        config.backend,
        config.parallelism,
        saved.state,
        ctrl,
        obs,
    )
    .with_candidate_cap(budget_candidate_cap(config));
    let mut passes = saved.passes;
    let mut levels = saved.levels;
    step_to_completion(&mut miner, &mut passes, &mut levels, ckpt)?;
    let stats = miner.take_pass_stats();
    Ok((miner.large().clone(), passes, levels, stats))
}

/// Phase 2: compress the taxonomy (optionally) and generate candidates from
/// every large level.
fn generate_all_candidates(
    tax: &Taxonomy,
    large: &LargeItemsets,
    config: &MinerConfig,
    substitutes: Option<&SubstituteKnowledge>,
    ctrl: Option<&CancelToken>,
) -> Result<
    (
        Vec<crate::candidates::NegativeCandidate>,
        crate::candidates::CandidateStats,
    ),
    Error,
> {
    let max_size = config
        .max_negative_size
        .unwrap_or(usize::MAX)
        .min(large.max_level());

    let cap = budget_candidate_cap(config);
    let keep: FxHashSet<ItemId>;
    let filtered_storage;
    let mut set = CandidateSet::new();
    if config.compress_taxonomy {
        keep = tax
            .items()
            .filter(|&i| large.support_of(&[i]).is_some())
            .collect();
        filtered_storage = FilteredTaxonomy::new(tax, &keep);
        let mut generator =
            CandidateGenerator::with_compressed(&filtered_storage, large, config.min_ri);
        if let Some(subs) = substitutes {
            generator = generator.with_substitutes(subs);
        }
        for k in 2..=max_size {
            if let Some(c) = ctrl {
                c.check().map_err(Error::Io)?;
            }
            generator.extend_from_level(k, &mut set)?;
            check_candidate_budget(set.len(), k, cap)?;
        }
    } else {
        let mut generator = CandidateGenerator::new(tax, large, config.min_ri);
        if let Some(subs) = substitutes {
            generator = generator.with_substitutes(subs);
        }
        for k in 2..=max_size {
            if let Some(c) = ctrl {
                c.check().map_err(Error::Io)?;
            }
            generator.extend_from_level(k, &mut set)?;
            check_candidate_budget(set.len(), k, cap)?;
        }
    }
    Ok(set.into_candidates())
}

#[cfg(test)]
mod tests {
    use super::*;
    use negassoc_apriori::est_merge::EstMergeConfig;

    /// The driver without checkpointing (what `NegativeMiner::mine` runs).
    fn run_improved<S: TransactionSource + ?Sized>(
        source: &S,
        tax: &Taxonomy,
        config: &MinerConfig,
        substitutes: Option<&SubstituteKnowledge>,
    ) -> Result<DriverOutcome, Error> {
        run_improved_with_checkpoints(
            source,
            tax,
            config,
            substitutes,
            None,
            None,
            &Obs::disabled(),
        )
    }

    use negassoc_apriori::MinSupport;
    use negassoc_taxonomy::TaxonomyBuilder;
    use negassoc_txdb::{PassCounter, TransactionDbBuilder};

    fn scenario() -> (Taxonomy, negassoc_txdb::TransactionDb) {
        let mut tb = TaxonomyBuilder::new();
        let drinks = tb.add_root("drinks");
        let coke = tb.add_child(drinks, "coke").unwrap();
        let pepsi = tb.add_child(drinks, "pepsi").unwrap();
        let snacks = tb.add_root("snacks");
        let chips = tb.add_child(snacks, "chips").unwrap();
        let nuts = tb.add_child(snacks, "nuts").unwrap();
        let tax = tb.build();

        let mut db = TransactionDbBuilder::new();
        for _ in 0..30 {
            db.add([coke, chips]);
        }
        for _ in 0..20 {
            db.add([pepsi, nuts]);
        }
        for _ in 0..10 {
            db.add([pepsi]);
        }
        for _ in 0..10 {
            db.add([nuts]);
        }
        (tax, db.build())
    }

    fn config() -> MinerConfig {
        MinerConfig {
            min_support: MinSupport::Fraction(0.15),
            min_ri: 0.3,
            ..MinerConfig::default()
        }
    }

    #[test]
    fn n_plus_one_passes() {
        let (tax, db) = scenario();
        let pc = PassCounter::new(db);
        let out = run_improved(&pc, &tax, &config(), None).unwrap();
        assert_eq!(out.passes, pc.passes());
        // Positive mining makes `levels + (0 or 1)` passes (the final pass
        // that finds nothing / the no-candidate shortcut); negatives add
        // exactly one more.
        assert!(!out.negatives.is_empty());
        let naive_out = {
            pc.reset();
            crate::naive::run_naive(&pc, &tax, &config(), None, &Obs::disabled()).unwrap()
        };
        // With a single negative level the counts can tie, but improved
        // never loses. (The strict `2n` vs `n + 1` separation is pinned by
        // the deeper scenario in tests/pass_counts.rs.)
        assert!(out.passes <= naive_out.passes);
    }

    #[test]
    fn same_negatives_as_naive() {
        let (tax, db) = scenario();
        let a = run_improved(&db, &tax, &config(), None).unwrap();
        let b = crate::naive::run_naive(&db, &tax, &config(), None, &Obs::disabled()).unwrap();
        let norm = |v: &[crate::candidates::NegativeItemset]| {
            let mut x: Vec<(Vec<ItemId>, u64)> = v
                .iter()
                .map(|n| (n.itemset.items().to_vec(), n.actual))
                .collect();
            x.sort();
            x
        };
        assert_eq!(norm(&a.negatives), norm(&b.negatives));
        // Expected supports agree too.
        let by_set = |v: &[crate::candidates::NegativeItemset]| {
            let mut x: Vec<(Vec<ItemId>, f64)> = v
                .iter()
                .map(|n| (n.itemset.items().to_vec(), n.expected))
                .collect();
            x.sort_by(|p, q| p.0.cmp(&q.0));
            x
        };
        for ((s1, e1), (s2, e2)) in by_set(&a.negatives).iter().zip(by_set(&b.negatives).iter()) {
            assert_eq!(s1, s2);
            assert!((e1 - e2).abs() < 1e-9);
        }
    }

    #[test]
    fn compression_does_not_change_output() {
        let (tax, db) = scenario();
        let with = run_improved(&db, &tax, &config(), None).unwrap();
        let without = run_improved(
            &db,
            &tax,
            &MinerConfig {
                compress_taxonomy: false,
                ..config()
            },
            None,
        )
        .unwrap();
        assert_eq!(with.negatives.len(), without.negatives.len());
    }

    #[test]
    fn est_merge_backend_agrees() {
        let (tax, db) = scenario();
        let base = run_improved(&db, &tax, &config(), None).unwrap();
        let est = run_improved(
            &db,
            &tax,
            &MinerConfig {
                algorithm: GenAlgorithm::EstMerge(EstMergeConfig::default()),
                ..config()
            },
            None,
        )
        .unwrap();
        assert_eq!(base.negatives.len(), est.negatives.len());
        assert_eq!(base.large.total(), est.large.total());
    }

    #[test]
    fn memory_cap_only_adds_passes() {
        let (tax, db) = scenario();
        let pc = PassCounter::new(db);
        let uncapped = run_improved(&pc, &tax, &config(), None).unwrap();
        pc.reset();
        let capped = run_improved(
            &pc,
            &tax,
            &MinerConfig {
                max_candidates_per_pass: Some(1),
                ..config()
            },
            None,
        )
        .unwrap();
        assert!(capped.passes > uncapped.passes);
        assert_eq!(capped.negatives.len(), uncapped.negatives.len());
    }

    #[test]
    fn counting_cap_is_the_tighter_of_explicit_and_budget() {
        let base = config();
        assert_eq!(counting_cap(&base), None);
        let explicit = MinerConfig {
            max_candidates_per_pass: Some(7),
            ..config()
        };
        assert_eq!(counting_cap(&explicit), Some(7));
        let budget = MinerConfig {
            memory_budget: Some(EST_BYTES_PER_CANDIDATE * 3),
            ..config()
        };
        assert_eq!(counting_cap(&budget), Some(3));
        let both = MinerConfig {
            max_candidates_per_pass: Some(2),
            memory_budget: Some(EST_BYTES_PER_CANDIDATE * 3),
            ..config()
        };
        assert_eq!(counting_cap(&both), Some(2));
    }

    #[test]
    fn tiny_budget_degrades_to_partition_with_identical_results() {
        let (tax, db) = scenario();
        let unbudgeted = run_improved(&db, &tax, &config(), None).unwrap();
        // A cap this small cannot hold the level-2 positive candidates, so
        // the level miner trips and the driver must fall back to Partition.
        let budget = MinerConfig {
            memory_budget: Some(EST_BYTES_PER_CANDIDATE * 4),
            ..config()
        };
        let degraded = run_improved(&db, &tax, &budget, None).unwrap();
        let norm = |v: &[crate::candidates::NegativeItemset]| {
            let mut x: Vec<(Vec<ItemId>, u64)> = v
                .iter()
                .map(|n| (n.itemset.items().to_vec(), n.actual))
                .collect();
            x.sort();
            x
        };
        assert_eq!(norm(&degraded.negatives), norm(&unbudgeted.negatives));
        assert_eq!(degraded.large.total(), unbudgeted.large.total());
    }

    #[test]
    fn tiny_budget_on_a_streamed_source_is_a_typed_budget_error() {
        let (tax, db) = scenario();
        // PassCounter deliberately hides the database it wraps, so the
        // partitioned fallback is unavailable and the driver must surface
        // a typed budget error instead.
        let pc = PassCounter::new(db);
        let budget = MinerConfig {
            memory_budget: Some(EST_BYTES_PER_CANDIDATE * 4),
            ..config()
        };
        let err = match run_improved(&pc, &tax, &budget, None) {
            Ok(_) => panic!("a streamed source under a tiny budget should fail"),
            Err(e) => e,
        };
        match err {
            Error::Budget(msg) => {
                assert!(
                    msg.contains("memory budget") || msg.contains("over the cap"),
                    "{msg}"
                );
            }
            other => panic!("expected Error::Budget, got {other:?}"),
        }
    }

    #[test]
    fn empty_database() {
        let tax = TaxonomyBuilder::new().build();
        let db = TransactionDbBuilder::new().build();
        let out = run_improved(&db, &tax, &MinerConfig::default(), None).unwrap();
        assert!(out.negatives.is_empty());
        assert_eq!(out.large.total(), 0);
    }
}
