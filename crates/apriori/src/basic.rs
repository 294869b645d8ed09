//! The **Basic** generalized miner (Srikant & Agrawal, VLDB '95): plain
//! Apriori in which every transaction is extended with *all* ancestors of
//! its items before counting. Correct and simple; the reference point the
//! Cumulate optimizations are measured against.

use crate::count::CountingBackend;
use crate::itemset::LargeItemsets;
use crate::levelwise::{GenLevelMiner, GenStrategy};
use crate::parallel::{CancelToken, Obs, Parallelism};
use crate::MinSupport;
use negassoc_taxonomy::Taxonomy;
use negassoc_txdb::TransactionSource;
use std::io;

/// Mine all generalized large itemsets with the Basic algorithm. Every
/// counting pass uses the worker pool `parallelism` selects; the result is
/// identical for every policy.
///
/// Every pass checks `ctrl` at block boundaries and a cancelled run
/// returns the token's [`io::ErrorKind::Interrupted`] error (see
/// [`negassoc_txdb::ctrl`]); pass events flow to `obs`.
pub fn basic<S: TransactionSource + ?Sized>(
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
        GenStrategy::Basic,
        backend,
        parallelism,
        ctrl,
        obs,
    )?
    .run_to_completion()
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use negassoc_taxonomy::{ItemId, TaxonomyBuilder};
    use negassoc_txdb::{TransactionDb, TransactionDbBuilder};

    /// Taxonomy + database used across the generalized-miner tests:
    ///
    /// clothes -> {jackets, ski pants}; footwear -> {shoes, hiking boots}
    /// (the running example of Srikant & Agrawal '95).
    pub(crate) fn sa95() -> (Taxonomy, TransactionDb, [ItemId; 6]) {
        let mut tb = TaxonomyBuilder::new();
        let clothes = tb.add_root("clothes");
        let jackets = tb.add_child(clothes, "jackets").unwrap();
        let ski = tb.add_child(clothes, "ski pants").unwrap();
        let footwear = tb.add_root("footwear");
        let shoes = tb.add_child(footwear, "shoes").unwrap();
        let boots = tb.add_child(footwear, "hiking boots").unwrap();
        let tax = tb.build();

        let mut db = TransactionDbBuilder::new();
        db.add([shoes]);
        db.add([jackets, boots]);
        db.add([ski, boots]);
        db.add([shoes]);
        db.add([shoes]);
        db.add([jackets]);
        (
            tax,
            db.build(),
            [clothes, jackets, ski, footwear, shoes, boots],
        )
    }

    #[test]
    fn sa95_running_example() {
        let (tax, db, [clothes, jackets, _ski, footwear, shoes, boots]) = sa95();
        // minsup = 2 transactions (30% of 6, rounded like the paper).
        let large = basic(
            &db,
            &tax,
            MinSupport::Count(2),
            CountingBackend::TidBitmap,
            Parallelism::Sequential,
            None,
            &Obs::disabled(),
        )
        .unwrap();

        // Singles: jackets(2), clothes(3), shoes(3), boots(2), footwear(5).
        assert_eq!(large.support_of(&[jackets]), Some(2));
        assert_eq!(large.support_of(&[clothes]), Some(3));
        assert_eq!(large.support_of(&[shoes]), Some(3));
        assert_eq!(large.support_of(&[boots]), Some(2));
        assert_eq!(large.support_of(&[footwear]), Some(5));
        assert_eq!(large.level_len(1), 5); // ski pants has support 1

        // Pairs: {clothes, boots} = 2, {clothes, footwear} = 2.
        let mut pair = vec![clothes, boots];
        pair.sort();
        assert_eq!(large.support_of(&pair), Some(2));
        let mut pair2 = vec![clothes, footwear];
        pair2.sort();
        assert_eq!(large.support_of(&pair2), Some(2));
        // Ancestor pairs are pruned: {footwear, boots} never reported.
        let mut anc = vec![footwear, boots];
        anc.sort();
        assert_eq!(large.support_of(&anc), None);
        assert_eq!(large.level_len(2), 2);
        assert_eq!(large.max_level(), 2);
    }

    #[test]
    fn flat_taxonomy_reduces_to_plain_apriori() {
        // With a taxonomy of only roots, Basic must agree with flat Apriori.
        let mut tb = TaxonomyBuilder::new();
        for i in 0..6 {
            tb.add_root(&format!("i{i}"));
        }
        let tax = tb.build();
        let mut db = TransactionDbBuilder::new();
        db.add([ItemId(1), ItemId(3), ItemId(4)]);
        db.add([ItemId(2), ItemId(3), ItemId(5)]);
        db.add([ItemId(1), ItemId(2), ItemId(3), ItemId(5)]);
        db.add([ItemId(2), ItemId(5)]);
        let db = db.build();

        let gen = basic(
            &db,
            &tax,
            MinSupport::Count(2),
            CountingBackend::TidBitmap,
            Parallelism::Sequential,
            None,
            &Obs::disabled(),
        )
        .unwrap();
        let flat =
            crate::apriori::apriori(&db, MinSupport::Count(2), CountingBackend::SubsetHashMap)
                .unwrap();
        assert_eq!(gen.total(), flat.total());
        for (set, sup) in flat.iter() {
            assert_eq!(gen.support_of_set(set), Some(sup));
        }
    }

    #[test]
    fn empty_database_yields_nothing() {
        let (tax, _, _) = sa95();
        let db = TransactionDbBuilder::new().build();
        let large = basic(
            &db,
            &tax,
            MinSupport::Fraction(0.5),
            CountingBackend::TidBitmap,
            Parallelism::Sequential,
            None,
            &Obs::disabled(),
        )
        .unwrap();
        assert_eq!(large.total(), 0);
    }
}
