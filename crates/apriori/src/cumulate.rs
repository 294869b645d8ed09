//! The **Cumulate** generalized miner (Srikant & Agrawal, VLDB '95):
//! Basic plus three optimizations that all target the cost of transaction
//! extension and candidate counting —
//!
//! 1. *ancestor filtering*: only ancestors that actually occur in some
//!    current candidate are added to a transaction (and items that occur in
//!    no candidate are dropped outright),
//! 2. *ancestor precomputation*: the taxonomy's transitive closure is
//!    materialized once ([`AncestorTable`]),
//! 3. *ancestor-pair pruning*: level-2 candidates containing an item and
//!    its ancestor are deleted (their supports are degenerate; downward
//!    closure removes all supersets).
//!
//! The mined itemsets are identical to [`crate::basic`]; only the work per
//! pass shrinks. `paper ablate` measures the difference (the
//! `positive_miners` group of `BENCH_ablation.json`).

use crate::count::CountingBackend;
use crate::itemset::LargeItemsets;
use crate::levelwise::{GenLevelMiner, GenStrategy};
use crate::parallel::{CancelToken, Obs, Parallelism};
use crate::MinSupport;
use negassoc_taxonomy::Taxonomy;
use negassoc_txdb::TransactionSource;
use std::io;

/// Mine all generalized large itemsets with the Cumulate algorithm.
///
/// Every pass checks `ctrl` at block boundaries and a cancelled run
/// returns the token's [`io::ErrorKind::Interrupted`] error (see
/// [`negassoc_txdb::ctrl`]); pass events flow to `obs`.
///
/// ```
/// use negassoc_apriori::{cumulate::cumulate, count::CountingBackend, MinSupport};
/// use negassoc_apriori::parallel::{Obs, Parallelism};
/// use negassoc_taxonomy::TaxonomyBuilder;
/// use negassoc_txdb::TransactionDbBuilder;
///
/// let mut tb = TaxonomyBuilder::new();
/// let drinks = tb.add_root("drinks");
/// let cola = tb.add_child(drinks, "cola").unwrap();
/// let juice = tb.add_child(drinks, "juice").unwrap();
/// let tax = tb.build();
///
/// let mut db = TransactionDbBuilder::new();
/// db.add([cola]);
/// db.add([juice]);
/// db.add([cola, juice]);
/// let db = db.build();
///
/// let large = cumulate(
///     &db,
///     &tax,
///     MinSupport::Count(2),
///     CountingBackend::TidBitmap,
///     Parallelism::Sequential,
///     None,
///     &Obs::disabled(),
/// )
/// .unwrap();
/// // The category "drinks" is supported by every transaction even though
/// // it never appears literally.
/// assert_eq!(large.support_of(&[drinks]), Some(3));
/// assert_eq!(large.support_of(&[cola]), Some(2));
/// ```
pub fn cumulate<S: TransactionSource + ?Sized>(
    source: &S,
    tax: &Taxonomy,
    min_support: MinSupport,
    backend: CountingBackend,
    parallelism: Parallelism,
    ctrl: Option<&CancelToken>,
    obs: &Obs,
) -> io::Result<LargeItemsets> {
    GenLevelMiner::new(
        source,
        tax,
        min_support,
        GenStrategy::Cumulate,
        backend,
        parallelism,
        ctrl,
        obs,
    )?
    .run_to_completion()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::basic::basic;
    use crate::basic::tests::sa95;
    use negassoc_txdb::{PassCounter, TransactionDbBuilder};

    #[test]
    fn matches_basic_on_sa95_example() {
        let (tax, db, _) = sa95();
        for ms in [1u64, 2, 3, 4] {
            let a = basic(
                &db,
                &tax,
                MinSupport::Count(ms),
                CountingBackend::SubsetHashMap,
                Parallelism::Sequential,
                None,
                &Obs::disabled(),
            )
            .unwrap();
            let b = cumulate(
                &db,
                &tax,
                MinSupport::Count(ms),
                CountingBackend::TidBitmap,
                Parallelism::Sequential,
                None,
                &Obs::disabled(),
            )
            .unwrap();
            assert_eq!(a.total(), b.total(), "minsup {ms}");
            for (set, sup) in a.iter() {
                assert_eq!(b.support_of_set(set), Some(sup), "minsup {ms}, {set:?}");
            }
        }
    }

    #[test]
    fn same_pass_count_as_basic() {
        let (tax, db, _) = sa95();
        let pc = PassCounter::new(db);
        cumulate(
            &pc,
            &tax,
            MinSupport::Count(2),
            CountingBackend::TidBitmap,
            Parallelism::Sequential,
            None,
            &Obs::disabled(),
        )
        .unwrap();
        let cumulate_passes = pc.passes();
        pc.reset();
        basic(
            &pc,
            &tax,
            MinSupport::Count(2),
            CountingBackend::TidBitmap,
            Parallelism::Sequential,
            None,
            &Obs::disabled(),
        )
        .unwrap();
        assert_eq!(cumulate_passes, pc.passes());
    }

    #[test]
    fn category_only_transactions_are_not_required() {
        // Transactions contain only leaves (the paper's setting); category
        // supports must still come out right.
        let (tax, db, [clothes, ..]) = sa95();
        let large = cumulate(
            &db,
            &tax,
            MinSupport::Count(3),
            CountingBackend::SubsetHashMap,
            Parallelism::Sequential,
            None,
            &Obs::disabled(),
        )
        .unwrap();
        assert_eq!(large.support_of(&[clothes]), Some(3));
        let _ = db;
    }

    #[test]
    fn empty_taxonomy_and_database() {
        let tax = negassoc_taxonomy::TaxonomyBuilder::new().build();
        let db = TransactionDbBuilder::new().build();
        let large = cumulate(
            &db,
            &tax,
            MinSupport::Fraction(0.1),
            CountingBackend::TidBitmap,
            Parallelism::Sequential,
            None,
            &Obs::disabled(),
        )
        .unwrap();
        assert_eq!(large.total(), 0);
    }
}
