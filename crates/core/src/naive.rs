//! The **naive** negative-mining driver (paper §2.2.1).
//!
//! Iteration `k` has two phases: phase one mines the generalized large
//! k-itemsets (one database pass); phase two generates that level's
//! negative candidates and counts them (a second pass). Over `n` levels
//! this makes `2n` passes — the improved driver (see [`crate::improved`])
//! gets the same answer in `n + 1`.

use crate::candidates::{CandidateGenerator, CandidateSet, CandidateStats, NegativeItemset};
use crate::config::{GenAlgorithm, MinerConfig};
use crate::counting::confirm_negatives;
use crate::error::Error;
use negassoc_apriori::levelwise::{GenLevelMiner, GenStrategy};
use negassoc_apriori::parallel::{CancelToken, Obs, PassStats};
use negassoc_apriori::LargeItemsets;
use negassoc_taxonomy::Taxonomy;
use negassoc_txdb::TransactionSource;
use std::time::{Duration, Instant};

/// Outcome of a driver run, before rule generation.
pub(crate) struct DriverOutcome {
    pub large: LargeItemsets,
    pub negatives: Vec<NegativeItemset>,
    pub candidate_stats: CandidateStats,
    /// Database passes made by this driver.
    pub passes: u64,
    /// Positive levels mined (the paper's `n`).
    pub levels: u64,
    /// Wall time spent mining positive (generalized large) itemsets.
    pub positive_time: Duration,
    /// Wall time spent generating and counting negative candidates.
    pub negative_time: Duration,
    /// Per-pass counting telemetry, in execution order with 1-based pass
    /// numbers. May be empty for paths that do not stream through the
    /// instrumented counter (EstMerge positive phase, checkpoint-resumed
    /// work already paid for).
    pub pass_stats: Vec<PassStats>,
}

/// Renumber `stats` 1..=n in place (drivers splice together stats from
/// sub-phases whose local numbering restarts).
pub(crate) fn renumber(stats: &mut [PassStats]) {
    for (i, s) in stats.iter_mut().enumerate() {
        s.pass = i as u64 + 1;
    }
}

/// Run the naive driver. `ctrl` (when given) is checked at every pass and
/// level boundary; a cancelled run errors without partial results. Every
/// counting pass reports to `obs`.
pub(crate) fn run_naive<S: TransactionSource + ?Sized>(
    source: &S,
    tax: &Taxonomy,
    config: &MinerConfig,
    ctrl: Option<&CancelToken>,
    obs: &Obs,
) -> Result<DriverOutcome, Error> {
    let strategy = match config.algorithm {
        GenAlgorithm::Basic => GenStrategy::Basic,
        GenAlgorithm::Cumulate => GenStrategy::Cumulate,
        GenAlgorithm::EstMerge(_) => {
            return Err(Error::Config(
                "EstMerge cannot drive the naive algorithm".into(),
            ))
        }
    };
    let positive_start = Instant::now();
    let mut miner = GenLevelMiner::new(
        source,
        tax,
        config.min_support,
        strategy,
        config.backend,
        config.parallelism,
        ctrl,
        obs,
    )?;
    let mut positive_time = positive_start.elapsed();
    let mut pass_stats: Vec<PassStats> = miner.take_pass_stats();
    let mut negative_time = Duration::ZERO;
    let mut passes = 1u64; // level-1 pass
    let mut levels = 1u64;
    let mut negatives = Vec::new();
    let mut candidate_stats = CandidateStats::default();
    let max_size = config.max_negative_size.unwrap_or(usize::MAX);

    loop {
        let level = miner.next_level();
        let positive_start = Instant::now();
        let found = miner.mine_next_level()?;
        positive_time += positive_start.elapsed();
        pass_stats.extend(miner.take_pass_stats());
        let found = match found {
            // No pass is made when no positive candidates exist.
            None => break,
            Some(found) => {
                passes += 1;
                found
            }
        };
        if found == 0 {
            break;
        }
        levels += 1;
        if level > max_size {
            continue;
        }
        // Phase two: this level's negative candidates, then one counting
        // pass. The naive algorithm does not compress the taxonomy; the
        // generator filters small 1-items per candidate instead.
        let negative_start = Instant::now();
        let generator = CandidateGenerator::new(tax, miner.large(), config.min_ri);
        let mut set = CandidateSet::new();
        generator.extend_from_level(level, &mut set)?;
        let (cands, stats) = set.into_candidates();
        merge_stats(&mut candidate_stats, &stats);
        let (mut negs, neg_passes, neg_stats) = confirm_negatives(
            source,
            miner.ancestors(),
            cands,
            config.backend,
            config.max_candidates_per_pass,
            miner.large().min_support_count(),
            config.min_ri,
            config.parallelism,
            pass_stats.len() as u64 + 1,
            ctrl,
            obs,
        )?;
        passes += neg_passes;
        miner.skip_passes(neg_passes);
        pass_stats.extend(neg_stats);
        negatives.append(&mut negs);
        negative_time += negative_start.elapsed();
    }

    renumber(&mut pass_stats);
    Ok(DriverOutcome {
        large: miner.large().clone(),
        negatives,
        candidate_stats,
        passes,
        levels,
        positive_time,
        negative_time,
        pass_stats,
    })
}

pub(crate) fn merge_stats(into: &mut CandidateStats, from: &CandidateStats) {
    into.seeds += from.seeds;
    into.generated += from.generated;
    into.rejected_related += from.rejected_related;
    into.rejected_small_item += from.rejected_small_item;
    into.rejected_low_expected += from.rejected_low_expected;
    into.rejected_large += from.rejected_large;
    into.merged += from.merged;
    into.unique += from.unique;
}

#[cfg(test)]
mod tests {
    use super::*;
    use negassoc_apriori::MinSupport;
    use negassoc_taxonomy::TaxonomyBuilder;
    use negassoc_txdb::{PassCounter, TransactionDbBuilder};

    /// Two categories with two children each; one cross pair is common,
    /// the "parallel" pair almost never happens.
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

    #[test]
    fn finds_negative_itemsets_and_counts_2n_passes() {
        let (tax, db) = scenario();
        let pc = PassCounter::new(db);
        let config = MinerConfig {
            min_support: MinSupport::Fraction(0.15),
            min_ri: 0.3,
            driver: crate::config::Driver::Naive,
            ..MinerConfig::default()
        };
        let out = run_naive(&pc, &tax, &config, None, &Obs::disabled()).unwrap();

        // Levels: 1-itemsets and 2-itemsets are large; no level-3 positive
        // candidates survive apriori-gen, so no third positive pass.
        assert_eq!(out.levels, 2);
        assert_eq!(out.passes, pc.passes());
        // 2n shape: item pass + (positive pass + negative pass) for level 2.
        assert_eq!(out.passes, 3);
        // Telemetry mirrors the pass ledger exactly: L1, L2, negative.
        assert_eq!(out.pass_stats.len(), 3);
        let labels: Vec<&str> = out.pass_stats.iter().map(|s| s.label.as_str()).collect();
        assert_eq!(labels, ["L1", "L2", "negative"]);
        for (i, s) in out.pass_stats.iter().enumerate() {
            assert_eq!(s.pass, i as u64 + 1);
            assert_eq!(s.transactions, 70);
            assert_eq!(s.threads, 1);
        }

        // {pepsi, chips} (or {coke, nuts}) should be negative: expectation
        // from {drinks, snacks} or sibling substitution is high, actual 0.
        assert!(!out.negatives.is_empty());
        for n in &out.negatives {
            assert!(n.expected - n.actual as f64 >= 0.0);
        }
        assert!(out.candidate_stats.generated > 0);
        assert!(out.candidate_stats.unique > 0);
    }

    #[test]
    fn est_merge_is_rejected() {
        let (tax, db) = scenario();
        let config = MinerConfig {
            algorithm: GenAlgorithm::EstMerge(Default::default()),
            ..MinerConfig::default()
        };
        assert!(matches!(
            run_naive(&db, &tax, &config, None, &Obs::disabled()),
            Err(Error::Config(_))
        ));
    }

    #[test]
    fn max_negative_size_skips_larger_levels() {
        let (tax, db) = scenario();
        let config = MinerConfig {
            min_support: MinSupport::Fraction(0.15),
            min_ri: 0.3,
            max_negative_size: Some(2),
            ..MinerConfig::default()
        };
        let out = run_naive(&db, &tax, &config, None, &Obs::disabled()).unwrap();
        for n in &out.negatives {
            assert!(n.itemset.len() <= 2);
        }
    }

    #[test]
    fn empty_database() {
        let (tax, _) = scenario();
        let db = TransactionDbBuilder::new().build();
        let out = run_naive(&db, &tax, &MinerConfig::default(), None, &Obs::disabled()).unwrap();
        assert_eq!(out.large.total(), 0);
        assert!(out.negatives.is_empty());
        assert_eq!(out.passes, 1);
    }
}
