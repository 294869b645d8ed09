//! Snapshot export assembly: turn a [`MiningOutcome`] into the
//! deterministic, taxonomy-pinned rule bundle the serving layer
//! (`negassoc-serve`) persists as an immutable snapshot.
//!
//! Export happens here — next to the miner — so the bundle can capture
//! provenance the raw rule lists do not carry: the digest of the taxonomy
//! the ids were minted under, the database size, and the thresholds. The
//! digest is what lets every later consumer (snapshot writer, loader,
//! server hot-swap) refuse a rule set replayed against a different
//! hierarchy instead of silently mis-expanding categories.
//!
//! # Canonical order without comparing itemsets
//!
//! Rules are ordered by `(antecedent, consequent)`. Both sides of every
//! mined rule are large itemsets, so all the rules of a mine share at most
//! as many distinct sides as there are large itemsets (8,964 for 141,685
//! rules on Tall 50k at 1.5%). Export hashes each rule side once to find
//! the distinct ones, sorts only those to rank them, and then sorts the
//! rules by `(antecedent rank, consequent rank, input position)` integer
//! keys with an unstable sort. The position makes every key unique, so the
//! order equals a stable sort by the itemset comparator, even for a
//! hand-built rule list that repeats a pair.

use crate::miner::MiningOutcome;
use crate::rules::NegativeRule;
use negassoc_apriori::rules::{generate_rules, Rule};
use negassoc_apriori::Itemset;
use negassoc_taxonomy::fxhash::FxHashMap;
use negassoc_taxonomy::{ItemId, Taxonomy};

/// A deterministic, self-describing bundle of mined rules ready for
/// snapshot serialization. Rule order is canonical (sorted by antecedent,
/// then consequent), so two exports of the same mine are byte-identical
/// downstream.
#[derive(Clone, Debug)]
pub struct RuleSetExport {
    /// Digest of the taxonomy the rules' item ids refer to
    /// ([`Taxonomy::digest`]).
    pub taxonomy_digest: u64,
    /// Transactions in the mined database.
    pub num_transactions: u64,
    /// Absolute minimum support count used by the mine.
    pub min_support_count: u64,
    /// The MinRI threshold the negative rules cleared.
    pub min_ri: f64,
    /// The minimum confidence the positive rules cleared.
    pub min_confidence: f64,
    /// Positive rules, canonically ordered.
    pub positive: Vec<Rule>,
    /// Negative rules, canonically ordered.
    pub negative: Vec<NegativeRule>,
}

impl MiningOutcome {
    /// Assemble the export bundle: positive rules generated from the
    /// large itemsets at `min_confidence`, the run's negative rules, and
    /// the provenance header pinning both to `tax`.
    ///
    /// `min_ri` is recorded as provenance only — the negative rules were
    /// already filtered by it during mining.
    ///
    /// # Panics
    /// Panics if `min_confidence` is outside `[0, 1]` (same contract as
    /// [`generate_rules`]); validate user input before calling.
    pub fn rule_export(&self, tax: &Taxonomy, min_confidence: f64, min_ri: f64) -> RuleSetExport {
        let positive = generate_rules(&self.large, min_confidence);
        let mut ranks = SideRanks::default();
        let positive_sides = ranks.sides(positive.iter().map(|r| (&r.antecedent, &r.consequent)));
        let negative_sides = ranks.sides(self.rules.iter().map(|r| (&r.antecedent, &r.consequent)));
        let rank = ranks.finish();
        let positive = canonical_order(positive, &positive_sides, &rank);
        let negative = canonical_order(self.rules.clone(), &negative_sides, &rank);
        RuleSetExport {
            taxonomy_digest: tax.digest(),
            num_transactions: self.large.num_transactions(),
            min_support_count: self.large.min_support_count(),
            min_ri,
            min_confidence,
            positive,
            negative,
        }
    }
}

/// Distinct rule sides in first-seen order, for ranking.
#[derive(Default)]
struct SideRanks<'a> {
    ids: FxHashMap<&'a [ItemId], u32>,
    sides: Vec<&'a [ItemId]>,
}

impl<'a> SideRanks<'a> {
    /// The first-seen ids of each rule's `(antecedent, consequent)`.
    fn sides(
        &mut self,
        rules: impl Iterator<Item = (&'a Itemset, &'a Itemset)>,
    ) -> Vec<(u32, u32)> {
        rules
            .map(|(a, c)| (self.id(a.items()), self.id(c.items())))
            .collect()
    }

    fn id(&mut self, side: &'a [ItemId]) -> u32 {
        let next = self.sides.len() as u32;
        let id = *self.ids.entry(side).or_insert(next);
        if id == next {
            self.sides.push(side);
        }
        id
    }

    /// `rank[id]`: the position of side `id` in itemset order.
    fn finish(self) -> Vec<u32> {
        let mut order: Vec<u32> = (0..self.sides.len() as u32).collect();
        order.sort_unstable_by_key(|&id| self.sides[id as usize]);
        let mut rank = vec![0u32; order.len()];
        for (r, &id) in order.iter().enumerate() {
            rank[id as usize] = r as u32;
        }
        rank
    }
}

/// Reorder `rules` by `(antecedent rank, consequent rank, input position)`.
/// Only the 16-byte keys are sorted; each rule then moves once.
fn canonical_order<R>(rules: Vec<R>, sides: &[(u32, u32)], rank: &[u32]) -> Vec<R> {
    let mut keys: Vec<(u64, usize)> = sides
        .iter()
        .enumerate()
        .map(|(i, &(a, c))| {
            let pair = u64::from(rank[a as usize]) << 32 | u64::from(rank[c as usize]);
            (pair, i)
        })
        .collect();
    keys.sort_unstable();
    let mut slots: Vec<Option<R>> = rules.into_iter().map(Some).collect();
    keys.iter().filter_map(|&(_, i)| slots[i].take()).collect()
}

#[cfg(test)]
mod tests {
    use crate::{MinerConfig, NegativeMiner};
    use negassoc_apriori::MinSupport;
    use negassoc_taxonomy::TaxonomyBuilder;
    use negassoc_txdb::TransactionDbBuilder;

    #[test]
    fn export_is_canonical_and_pins_the_taxonomy() {
        let mut tb = TaxonomyBuilder::new();
        let drinks = tb.add_root("soft drinks");
        let coke = tb.add_child(drinks, "Coke").unwrap();
        let pepsi = tb.add_child(drinks, "Pepsi").unwrap();
        let snacks = tb.add_root("snacks");
        let ruffles = tb.add_child(snacks, "Ruffles").unwrap();
        let tax = tb.build();

        let mut db = TransactionDbBuilder::new();
        for i in 0..100u32 {
            if i % 2 == 0 {
                db.add([coke, ruffles]);
            } else if i % 3 == 0 {
                db.add([pepsi]);
            } else {
                db.add([coke]);
            }
        }
        let db = db.build();

        let config = MinerConfig {
            min_support: MinSupport::Fraction(0.2),
            min_ri: 0.3,
            ..MinerConfig::default()
        };
        let outcome = NegativeMiner::new(config).mine(&db, &tax).expect("mine");
        let export = outcome.rule_export(&tax, 0.6, 0.3);

        assert_eq!(export.taxonomy_digest, tax.digest());
        assert_eq!(export.num_transactions, 100);
        assert_eq!(export.min_confidence, 0.6);
        assert_eq!(export.min_ri, 0.3);
        assert!(
            !export.positive.is_empty(),
            "coke+ruffles co-occurrence should yield positive rules"
        );
        // Canonical order: sorted by antecedent then consequent.
        for w in export.positive.windows(2) {
            assert!(
                (&w[0].antecedent, &w[0].consequent) <= (&w[1].antecedent, &w[1].consequent),
                "positive rules out of canonical order"
            );
        }
        for w in export.negative.windows(2) {
            assert!(
                (&w[0].antecedent, &w[0].consequent) <= (&w[1].antecedent, &w[1].consequent),
                "negative rules out of canonical order"
            );
        }
        // Two exports of the same outcome agree exactly.
        let again = outcome.rule_export(&tax, 0.6, 0.3);
        assert_eq!(export.positive, again.positive);
        assert_eq!(again.negative.len(), export.negative.len());
    }
}
