//! Runtime certification of mining output (feature `audit`, default-on).
//!
//! [`certify`] re-derives, from nothing but a raw database scan and the
//! taxonomy, every number a [`MiningOutcome`] reports:
//!
//! * the support of every generalized large itemset,
//! * the actual support and the negativity test of every negative itemset,
//! * the actual support, antecedent/consequent largeness, and rule
//!   interest of every emitted negative rule.
//!
//! The re-count is **independent of the mining machinery**: no bitmaps,
//! no `AncestorTable`, no candidate pruning — just a per-transaction walk
//! up the taxonomy and a set-containment check. An agreement between the
//! two paths therefore certifies the optimized counting stack (bitmap /
//! subset-map backends, chunked §2.5 passes, taxonomy compression) against
//! the paper's definitions. Any discrepancy is reported as
//! [`NegAssocError::Audit`] with the first offending itemset pinned.
//!
//! Cost: one extra database pass plus `O(|itemsets| · |transaction|)` work
//! per transaction — strictly for validation, so it is feature-gated and
//! opt-in on the CLI (`negrules mine --audit`, `negrules negatives
//! --audit`).

use crate::error::NegAssocError;
use crate::expected::{
    approx_eq, approx_ge, candidate_threshold, is_negative, rule_interest, support_to_f64,
};
use crate::miner::MiningOutcome;
use negassoc_apriori::{Itemset, LargeItemsets};
use negassoc_taxonomy::fxhash::{FxHashMap, FxHashSet};
use negassoc_taxonomy::{ItemId, Taxonomy};
use negassoc_txdb::TransactionSource;

/// What a successful audit checked; returned so callers can report scope.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct AuditReport {
    /// Transactions scanned in the re-count pass.
    pub transactions: u64,
    /// Large itemsets whose supports were re-derived and matched.
    pub large_checked: usize,
    /// Negative itemsets re-counted and re-tested.
    pub negatives_checked: usize,
    /// Rules whose supports, largeness constraints and RI were re-derived.
    pub rules_checked: usize,
}

impl std::fmt::Display for AuditReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "audit ok: {} transactions re-scanned; {} large itemsets, \
             {} negative itemsets, {} rules certified",
            self.transactions, self.large_checked, self.negatives_checked, self.rules_checked
        )
    }
}

/// Certify a complete mining outcome against a raw scan of `source`.
///
/// `min_ri` must be the threshold the outcome was mined with (it is
/// re-applied to every negative itemset and rule).
///
/// # Errors
/// [`NegAssocError::Audit`] naming the first discrepancy, or
/// [`NegAssocError::Io`] if the scan itself fails.
pub fn certify<S: TransactionSource + ?Sized>(
    source: &S,
    tax: &Taxonomy,
    outcome: &MiningOutcome,
    min_ri: f64,
) -> Result<AuditReport, NegAssocError> {
    let mut targets = TargetSet::new();
    for (set, _) in outcome.large.iter() {
        targets.add(set);
    }
    for n in &outcome.negatives {
        targets.add(&n.itemset);
    }
    for r in &outcome.rules {
        targets.add(&r.antecedent.union(&r.consequent));
    }
    let transactions = targets.recount(source, tax)?;

    let mut report = AuditReport {
        transactions,
        ..AuditReport::default()
    };
    verify_transaction_total(&outcome.large, transactions)?;
    report.large_checked = verify_large_supports(&outcome.large, &targets)?;
    report.negatives_checked = verify_negatives(outcome, &targets, min_ri)?;
    report.rules_checked = verify_rules(outcome, &targets, min_ri)?;
    Ok(report)
}

/// Certify only the generalized large itemsets in `large` (the positive
/// half of the pipeline; `negrules mine --audit`). Returns the number of
/// itemsets checked and the transactions scanned.
pub fn certify_large<S: TransactionSource + ?Sized>(
    source: &S,
    tax: &Taxonomy,
    large: &LargeItemsets,
) -> Result<AuditReport, NegAssocError> {
    let mut targets = TargetSet::new();
    for (set, _) in large.iter() {
        targets.add(set);
    }
    let transactions = targets.recount(source, tax)?;
    verify_transaction_total(large, transactions)?;
    let large_checked = verify_large_supports(large, &targets)?;
    Ok(AuditReport {
        transactions,
        large_checked,
        ..AuditReport::default()
    })
}

/// The itemsets to re-count, with their independent counters.
struct TargetSet {
    counts: FxHashMap<Itemset, u64>,
}

impl TargetSet {
    fn new() -> Self {
        Self {
            counts: FxHashMap::default(),
        }
    }

    fn add(&mut self, set: &Itemset) {
        self.counts.entry(set.clone()).or_insert(0);
    }

    /// One raw pass; each transaction is expanded to the set of its items
    /// plus all their taxonomy ancestors, and every target contained in
    /// that expansion is credited. Returns the number of transactions.
    fn recount<S: TransactionSource + ?Sized>(
        &mut self,
        source: &S,
        tax: &Taxonomy,
    ) -> Result<u64, NegAssocError> {
        let mut transactions = 0u64;
        let mut expanded: FxHashSet<ItemId> = FxHashSet::default();
        source.pass(&mut |t| {
            transactions += 1;
            expanded.clear();
            for &item in t.items() {
                let mut cur = Some(item);
                while let Some(i) = cur {
                    if !expanded.insert(i) {
                        break; // this chain was already walked
                    }
                    cur = tax.parent(i);
                }
            }
            for (set, count) in self.counts.iter_mut() {
                if set.items().iter().all(|i| expanded.contains(i)) {
                    *count += 1;
                }
            }
        })?;
        Ok(transactions)
    }

    fn support_of(&self, set: &Itemset) -> u64 {
        // Every audited itemset was registered before the pass.
        self.counts.get(set).copied().unwrap_or(0)
    }
}

fn verify_transaction_total(large: &LargeItemsets, transactions: u64) -> Result<(), NegAssocError> {
    if large.num_transactions() != transactions {
        return Err(NegAssocError::Audit(format!(
            "database size mismatch: outcome says {} transactions, re-scan saw {}",
            large.num_transactions(),
            transactions
        )));
    }
    Ok(())
}

fn verify_large_supports(
    large: &LargeItemsets,
    targets: &TargetSet,
) -> Result<usize, NegAssocError> {
    let minsup = large.min_support_count();
    let mut checked = 0usize;
    for (set, claimed) in large.iter() {
        let recounted = targets.support_of(set);
        if recounted != claimed {
            return Err(NegAssocError::Audit(format!(
                "large itemset {set:?}: reported support {claimed}, re-count {recounted}"
            )));
        }
        if claimed < minsup {
            return Err(NegAssocError::Audit(format!(
                "large itemset {set:?}: support {claimed} is below MinSup {minsup}"
            )));
        }
        checked += 1;
    }
    Ok(checked)
}

fn verify_negatives(
    outcome: &MiningOutcome,
    targets: &TargetSet,
    min_ri: f64,
) -> Result<usize, NegAssocError> {
    let minsup = outcome.large.min_support_count();
    let mut checked = 0usize;
    for n in &outcome.negatives {
        let recounted = targets.support_of(&n.itemset);
        if recounted != n.actual {
            return Err(NegAssocError::Audit(format!(
                "negative itemset {:?}: reported actual {}, re-count {recounted}",
                n.itemset, n.actual
            )));
        }
        if !n.expected.is_finite() {
            return Err(NegAssocError::Audit(format!(
                "negative itemset {:?}: non-finite expected support {}",
                n.itemset, n.expected
            )));
        }
        if !is_negative(n.expected, n.actual, minsup, min_ri) {
            return Err(NegAssocError::Audit(format!(
                "negative itemset {:?}: deviation {} does not reach MinSup·MinRI = {}",
                n.itemset,
                n.expected - support_to_f64(n.actual),
                candidate_threshold(minsup, min_ri)
            )));
        }
        checked += 1;
    }
    Ok(checked)
}

fn verify_rules(
    outcome: &MiningOutcome,
    targets: &TargetSet,
    min_ri: f64,
) -> Result<usize, NegAssocError> {
    let mut checked = 0usize;
    for r in &outcome.rules {
        let union = r.antecedent.union(&r.consequent);
        let recounted = targets.support_of(&union);
        if recounted != r.actual {
            return Err(NegAssocError::Audit(format!(
                "rule {r}: reported actual {}, re-count {recounted}",
                r.actual
            )));
        }
        let Some(asup) = outcome.large.support_of_set(&r.antecedent) else {
            return Err(NegAssocError::Audit(format!(
                "rule {r}: antecedent is not a large itemset"
            )));
        };
        if outcome.large.support_of_set(&r.consequent).is_none() {
            return Err(NegAssocError::Audit(format!(
                "rule {r}: consequent is not a large itemset"
            )));
        }
        let ri = rule_interest(r.expected, r.actual, asup)?;
        if !approx_eq(ri, r.ri) {
            return Err(NegAssocError::Audit(format!(
                "rule {r}: reported RI {}, re-derived {ri}",
                r.ri
            )));
        }
        if !approx_ge(ri, min_ri) {
            return Err(NegAssocError::Audit(format!(
                "rule {r}: RI {ri} is below MinRI {min_ri}"
            )));
        }
        checked += 1;
    }
    Ok(checked)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MinerConfig;
    use crate::miner::NegativeMiner;
    use crate::rules::NegativeRule;
    use negassoc_apriori::MinSupport;
    use negassoc_taxonomy::TaxonomyBuilder;
    use negassoc_txdb::{TransactionDb, TransactionDbBuilder};

    fn world() -> (Taxonomy, TransactionDb, MinerConfig) {
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
        for _ in 0..20 {
            db.add([pepsi]);
        }
        let config = MinerConfig {
            min_support: MinSupport::Fraction(0.2),
            min_ri: 0.25,
            ..MinerConfig::default()
        };
        (tax, db.build(), config)
    }

    #[test]
    fn clean_run_is_certified() {
        let (tax, db, config) = world();
        let out = NegativeMiner::new(config).mine(&db, &tax).unwrap();
        assert!(!out.rules.is_empty());
        let report = certify(&db, &tax, &out, config.min_ri).unwrap();
        assert_eq!(report.transactions, 70);
        assert_eq!(report.large_checked, out.large.total());
        assert_eq!(report.negatives_checked, out.negatives.len());
        assert_eq!(report.rules_checked, out.rules.len());
        assert!(report.to_string().contains("audit ok"));

        let positive = certify_large(&db, &tax, &out.large).unwrap();
        assert_eq!(positive.large_checked, out.large.total());
        assert_eq!(positive.rules_checked, 0);
    }

    #[test]
    fn corrupted_rule_support_is_rejected() {
        let (tax, db, config) = world();
        let mut out = NegativeMiner::new(config).mine(&db, &tax).unwrap();
        out.rules[0].actual += 1;
        let err = certify(&db, &tax, &out, config.min_ri).unwrap_err();
        assert!(matches!(err, NegAssocError::Audit(_)), "{err}");
    }

    #[test]
    fn corrupted_rule_interest_is_rejected() {
        let (tax, db, config) = world();
        let mut out = NegativeMiner::new(config).mine(&db, &tax).unwrap();
        out.rules[0].ri *= 2.0;
        let err = certify(&db, &tax, &out, config.min_ri).unwrap_err();
        assert!(err.to_string().contains("RI"), "{err}");
    }

    #[test]
    fn fabricated_rule_is_rejected() {
        let (tax, db, config) = world();
        let mut out = NegativeMiner::new(config).mine(&db, &tax).unwrap();
        let donor = out.rules[0].clone();
        out.rules.push(NegativeRule {
            // A consequent nobody mined: reuse the antecedent, which is
            // disjoint from itself only in fantasy — the re-count of the
            // union will not match the claimed support.
            consequent: donor.antecedent.clone(),
            actual: donor.actual + 7,
            ..donor
        });
        assert!(certify(&db, &tax, &out, config.min_ri).is_err());
    }

    #[test]
    fn corrupted_negative_itemset_is_rejected() {
        let (tax, db, config) = world();
        let mut out = NegativeMiner::new(config).mine(&db, &tax).unwrap();
        assert!(!out.negatives.is_empty());
        out.negatives[0].actual = out.negatives[0].actual.wrapping_add(5);
        let err = certify(&db, &tax, &out, config.min_ri).unwrap_err();
        assert!(err.to_string().contains("re-count"), "{err}");
    }

    #[test]
    fn wrong_database_is_rejected() {
        let (tax, db, config) = world();
        let out = NegativeMiner::new(config).mine(&db, &tax).unwrap();
        // Audit against a database with one extra transaction.
        let mut other = TransactionDbBuilder::new();
        db.iter().for_each(|t| {
            other.add(t.items().iter().copied());
        });
        other.add([tax.items().next().unwrap()]);
        let err = certify(&other.build(), &tax, &out, config.min_ri).unwrap_err();
        assert!(err.to_string().contains("database size"), "{err}");
    }
}
