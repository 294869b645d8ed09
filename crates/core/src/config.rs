//! Miner configuration: thresholds, driver selection, and counting
//! backend choices ([`MinerConfig`]).

use crate::error::Error;
use negassoc_apriori::count::CountingBackend;
use negassoc_apriori::est_merge::EstMergeConfig;
use negassoc_apriori::parallel::Parallelism;
use negassoc_apriori::MinSupport;

/// Which generalized large-itemset algorithm feeds the negative miner
/// (paper §2.2: "we can use one of the algorithms, Basic, Cumulate or
/// EstMerge, proposed in [14]").
#[derive(Clone, Copy, Debug, PartialEq, Default)]
pub enum GenAlgorithm {
    /// Extend transactions with all ancestors.
    Basic,
    /// Cumulate's filtering optimizations (default).
    #[default]
    Cumulate,
    /// Sampling-based EstMerge. Only usable with the improved driver — the
    /// naive driver needs strict level-by-level results, which EstMerge's
    /// deferred counting does not provide.
    EstMerge(EstMergeConfig),
}

/// Which negative-itemset driver to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Driver {
    /// Paper §2.2.1: interleaves positive and negative phases per level —
    /// `2n` database passes.
    Naive,
    /// Paper §2.2.2 (Fig. 3): all positive levels first, taxonomy
    /// compression, single negative counting pass — `n + 1` passes (more
    /// under the §2.5 memory cap).
    #[default]
    Improved,
}

/// Full configuration of a [`crate::NegativeMiner`].
#[derive(Clone, Copy, Debug)]
pub struct MinerConfig {
    /// Minimum support for large itemsets, rule antecedents and
    /// consequents.
    pub min_support: MinSupport,
    /// Minimum rule interest `MinRI` (see crate docs for the RI measure).
    pub min_ri: f64,
    /// Positive mining algorithm.
    pub algorithm: GenAlgorithm,
    /// Negative-itemset driver.
    pub driver: Driver,
    /// Support-counting backend for all passes.
    pub backend: CountingBackend,
    /// §2.5 memory management: at most this many negative candidates are
    /// counted per pass; `None` counts them all in one pass.
    pub max_candidates_per_pass: Option<usize>,
    /// Improved-driver optimization 1 (delete small 1-items from the
    /// taxonomy before candidate generation). Disabling it changes nothing
    /// about the output — only the work done; exposed for the ablation
    /// benchmark (`paper ablate`, group `improved_driver`).
    pub compress_taxonomy: bool,
    /// Cap on the size of negative itemsets considered (`None` = up to the
    /// largest large itemset). The number of candidates is exponential in
    /// this size (paper §2.1.2).
    pub max_negative_size: Option<usize>,
    /// Approximate memory budget (bytes) for mining state — candidate
    /// sets and counting structures, not the database itself. When set,
    /// the improved driver degrades gracefully instead of OOM-aborting:
    /// negative counting is chunked to fit (§2.5), an oversized positive
    /// level falls back to the Partition algorithm (in-memory databases
    /// only), and what cannot be degraded returns
    /// [`crate::Error::Budget`]. `None` means unbounded.
    pub memory_budget: Option<usize>,
    /// Worker-pool policy for every support-counting pass (positive
    /// levels, negative confirmation, partitioned fallback). Exact counts
    /// and byte-identical output are guaranteed for every policy, so this
    /// is purely a wall-clock knob. Deliberately **excluded** from the
    /// checkpoint fingerprint: a run interrupted at `--threads 1` may
    /// resume at `--threads 8` (or vice versa) and still produce the same
    /// rules.
    pub parallelism: Parallelism,
}

impl Default for MinerConfig {
    fn default() -> Self {
        Self {
            min_support: MinSupport::Fraction(0.01),
            min_ri: 0.5,
            algorithm: GenAlgorithm::default(),
            driver: Driver::default(),
            backend: CountingBackend::default(),
            max_candidates_per_pass: None,
            compress_taxonomy: true,
            max_negative_size: None,
            memory_budget: None,
            parallelism: Parallelism::Sequential,
        }
    }
}

impl MinerConfig {
    /// Check invariants that the type system cannot express.
    pub fn validate(&self) -> Result<(), Error> {
        if self.min_ri.is_nan() || self.min_ri <= 0.0 {
            return Err(Error::Config(format!(
                "min_ri must be positive, got {}",
                self.min_ri
            )));
        }
        if let MinSupport::Fraction(f) = self.min_support {
            if !(0.0..=1.0).contains(&f) {
                return Err(Error::Config(format!(
                    "min_support fraction must be in [0, 1], got {f}"
                )));
            }
        }
        if let Some(0) = self.max_candidates_per_pass {
            return Err(Error::Config(
                "max_candidates_per_pass must be at least 1".into(),
            ));
        }
        if let (Driver::Naive, GenAlgorithm::EstMerge(_)) = (self.driver, self.algorithm) {
            return Err(Error::Config(
                "EstMerge cannot drive the naive algorithm (no per-level stepping)".into(),
            ));
        }
        if let Some(k) = self.max_negative_size {
            if k < 2 {
                return Err(Error::Config("max_negative_size must be at least 2".into()));
            }
        }
        if let Some(b) = self.memory_budget {
            if b < 1024 {
                return Err(Error::Config(format!(
                    "memory_budget of {b} bytes cannot hold any mining state \
                     (need at least 1024)"
                )));
            }
        }
        if self.parallelism == Parallelism::Threads(0) {
            return Err(Error::Config(
                "parallelism of 0 threads cannot make progress; use 1 or more \
                 (or `auto`)"
                    .into(),
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        MinerConfig::default().validate().unwrap();
    }

    #[test]
    fn rejects_bad_knobs() {
        let mut c = MinerConfig {
            min_ri: 0.0,
            ..MinerConfig::default()
        };
        assert!(c.validate().is_err());
        c.min_ri = -1.0;
        assert!(c.validate().is_err());
        c.min_ri = 0.5;

        c.min_support = MinSupport::Fraction(1.5);
        assert!(c.validate().is_err());
        c.min_support = MinSupport::Count(10);

        c.max_candidates_per_pass = Some(0);
        assert!(c.validate().is_err());
        c.max_candidates_per_pass = Some(1);

        c.max_negative_size = Some(1);
        assert!(c.validate().is_err());
        c.max_negative_size = Some(2);

        c.memory_budget = Some(64);
        assert!(c.validate().is_err());
        c.memory_budget = Some(64 * 1024 * 1024);
        c.validate().unwrap();

        c.parallelism = Parallelism::Threads(0);
        assert!(c.validate().is_err());
        c.parallelism = Parallelism::Threads(4);
        c.validate().unwrap();
        c.parallelism = Parallelism::Auto;
        c.validate().unwrap();
    }

    #[test]
    fn est_merge_with_naive_driver_is_rejected() {
        let c = MinerConfig {
            driver: Driver::Naive,
            algorithm: GenAlgorithm::EstMerge(EstMergeConfig::default()),
            ..MinerConfig::default()
        };
        assert!(c.validate().is_err());
    }
}
