//! Property tests for `negassoc::audit`: across generated taxonomies and
//! databases, [`negassoc::audit::certify`] passes on genuine miner output
//! and fails on deliberately corrupted output.
//!
//! This is the strongest end-to-end check in the suite: the audit
//! re-derives every reported support with machinery (a naive parent-walk
//! scan) that shares nothing with the counting backends, so a pass
//! certifies the whole pipeline against the paper's definitions.

#![cfg(feature = "audit")]

use negassoc::audit::certify;
use negassoc::config::Driver;
use negassoc::{MinerConfig, NegAssocError, NegativeMiner};
use negassoc_apriori::MinSupport;
use negassoc_taxonomy::{ItemId, Taxonomy, TaxonomyBuilder};
use negassoc_txdb::{TransactionDb, TransactionDbBuilder};
use proptest::prelude::*;

/// A two-level taxonomy with `cats` categories of 2–4 leaves, and a random
/// database over the leaves (mirrors `tests/prop_invariants.rs`).
fn arb_world() -> impl Strategy<Value = (Taxonomy, TransactionDb)> {
    (2usize..5).prop_flat_map(|cats| {
        let leaf_counts = prop::collection::vec(2usize..5, cats);
        let txs = prop::collection::vec(prop::collection::vec(0usize..16, 1..6), 5..60);
        (leaf_counts, txs).prop_map(|(leaf_counts, txs)| {
            let mut b = TaxonomyBuilder::new();
            let mut leaves: Vec<ItemId> = Vec::new();
            for (ci, &n) in leaf_counts.iter().enumerate() {
                let cat = b.add_root(&format!("cat{ci}"));
                for li in 0..n {
                    leaves.push(b.add_child(cat, &format!("leaf{ci}-{li}")).unwrap());
                }
            }
            let tax = b.build();
            let mut db = TransactionDbBuilder::new();
            for t in txs {
                db.add(t.into_iter().map(|i| leaves[i % leaves.len()]));
            }
            (tax, db.build())
        })
    })
}

fn config(driver: Driver) -> MinerConfig {
    MinerConfig {
        min_support: MinSupport::Fraction(0.15),
        min_ri: 0.3,
        driver,
        ..MinerConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Both drivers' outputs certify against a raw re-scan.
    #[test]
    fn miner_output_certifies((tax, db) in arb_world()) {
        for driver in [Driver::Improved, Driver::Naive] {
            let cfg = config(driver);
            let out = NegativeMiner::new(cfg).mine(&db, &tax).unwrap();
            let report = certify(&db, &tax, &out, cfg.min_ri).unwrap();
            prop_assert_eq!(report.transactions, db.len() as u64);
            prop_assert_eq!(report.large_checked, out.large.total());
            prop_assert_eq!(report.negatives_checked, out.negatives.len());
            prop_assert_eq!(report.rules_checked, out.rules.len());
        }
    }

    /// Any single corrupted rule field makes certification fail.
    #[test]
    fn corrupted_rules_are_rejected((tax, db) in arb_world(), which in 0usize..3) {
        let cfg = config(Driver::Improved);
        let out = NegativeMiner::new(cfg).mine(&db, &tax).unwrap();
        prop_assume!(!out.rules.is_empty());

        let mut bad = NegativeMiner::new(cfg).mine(&db, &tax).unwrap();
        match which {
            // Inflate the claimed actual support.
            0 => bad.rules[0].actual += 1 + db.len() as u64,
            // Flip the RI to something unearned.
            1 => bad.rules[0].ri += 1.0,
            // Claim a wildly wrong expectation (breaks the RI re-check).
            _ => bad.rules[0].expected *= 10.0,
        }
        let err = certify(&db, &tax, &bad, cfg.min_ri).unwrap_err();
        prop_assert!(matches!(err, NegAssocError::Audit(_)));
    }

    /// Corrupting a negative itemset's count or a large itemset's support
    /// is caught too.
    #[test]
    fn corrupted_itemsets_are_rejected((tax, db) in arb_world()) {
        let cfg = config(Driver::Improved);
        let out = NegativeMiner::new(cfg).mine(&db, &tax).unwrap();
        prop_assume!(!out.negatives.is_empty());

        let mut bad = NegativeMiner::new(cfg).mine(&db, &tax).unwrap();
        bad.negatives[0].actual = bad.negatives[0].actual.wrapping_add(3);
        prop_assert!(matches!(
            certify(&db, &tax, &bad, cfg.min_ri),
            Err(NegAssocError::Audit(_))
        ));

        // Swap in a large store counted against a different database.
        let mut shrunk = TransactionDbBuilder::new();
        let mut kept = 0usize;
        db.iter().for_each(|t| {
            if kept > 0 {
                shrunk.add(t.items().iter().copied());
            }
            kept += 1;
        });
        let shrunk = shrunk.build();
        let mut bad = NegativeMiner::new(cfg).mine(&db, &tax).unwrap();
        bad.large = NegativeMiner::new(cfg).mine(&shrunk, &tax).unwrap().large;
        prop_assert!(certify(&db, &tax, &bad, cfg.min_ri).is_err());
    }
}
