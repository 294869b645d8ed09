//! Frequent-itemset mining substrate.
//!
//! The negative-association miner of the paper (Savasere, Omiecinski &
//! Navathe, ICDE 1998) starts from the *generalized large itemsets* of the
//! database — itemsets over leaves **and** taxonomy categories whose support
//! exceeds the user's minimum. The paper defers that step to the algorithms
//! of Srikant & Agrawal's *Mining Generalized Association Rules* (VLDB '95):
//! **Basic**, **Cumulate** and **EstMerge**. This crate reimplements all
//! three from scratch, together with the classic machinery they share:
//!
//! * [`Itemset`] and [`LargeItemsets`] — compact itemset values and the
//!   per-level result store with O(1) support lookup,
//! * [`gen::apriori_gen`] — the join + prune candidate generator
//!   of Agrawal & Srikant (VLDB '94),
//! * [`count`] — the two counting backends: vertical TID bitmaps (the
//!   default) and the per-candidate hash map they are checked against,
//! * [`parallel`] — the one counting entry point, sequential or on a
//!   worker pool, with cancellation and observability,
//! * [`apriori`] — flat (taxonomy-less) Apriori,
//! * [`basic`], [`cumulate`], [`est_merge`] — generalized mining,
//! * [`rules`] — positive association rules via ap-genrules.
//!
//! # Example
//!
//! ```
//! use negassoc_apriori::{apriori::apriori, count::CountingBackend, MinSupport};
//! use negassoc_txdb::TransactionDbBuilder;
//! use negassoc_taxonomy::ItemId;
//!
//! let mut b = TransactionDbBuilder::new();
//! for _ in 0..3 { b.add([ItemId(0), ItemId(1)]); }
//! b.add([ItemId(1)]);
//! let db = b.build();
//!
//! let large = apriori(&db, MinSupport::Fraction(0.5), CountingBackend::TidBitmap).unwrap();
//! assert_eq!(large.support_of(&[ItemId(0), ItemId(1)]), Some(3));
//! ```

pub mod apriori;
pub mod basic;
pub mod count;
pub mod cumulate;
pub mod est_merge;
pub mod gen;
pub mod generalized;
pub mod levelwise;
pub mod parallel;
pub mod partition_mine;
pub mod rules;

mod itemset;

pub use itemset::{Itemset, LargeItemsets};

/// Minimum support, either as a fraction of the database or an absolute
/// transaction count.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum MinSupport {
    /// Fraction of transactions in `0.0 ..= 1.0`.
    Fraction(f64),
    /// Absolute number of transactions.
    Count(u64),
}

impl MinSupport {
    /// Resolve to an absolute count for a database of `num_transactions`,
    /// rounding fractions up (a rule must reach the threshold, not approach
    /// it) and never below 1 so empty itemsets are not "large" in an empty
    /// database.
    pub fn to_count(self, num_transactions: u64) -> u64 {
        match self {
            MinSupport::Count(c) => c.max(1),
            MinSupport::Fraction(f) => {
                assert!(
                    (0.0..=1.0).contains(&f),
                    "support fraction must be within [0, 1], got {f}"
                );
                ((f * num_transactions as f64).ceil() as u64).max(1)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn min_support_resolution() {
        assert_eq!(MinSupport::Count(5).to_count(100), 5);
        assert_eq!(MinSupport::Count(0).to_count(100), 1);
        assert_eq!(MinSupport::Fraction(0.015).to_count(1000), 15);
        assert_eq!(MinSupport::Fraction(0.0101).to_count(100), 2); // ceil
        assert_eq!(MinSupport::Fraction(0.0).to_count(100), 1);
        assert_eq!(MinSupport::Fraction(1.0).to_count(100), 100);
    }

    #[test]
    #[should_panic(expected = "within [0, 1]")]
    fn min_support_fraction_out_of_range_panics() {
        MinSupport::Fraction(1.5).to_count(10);
    }
}
