//! Property test: the indexed matcher (item bitset, rule-id bitmap) and
//! the full-scan oracle agree on every basket, and so do the answers
//! built from them — concatenated rendered lines against lines formatted
//! from each rule's fields.
//!
//! Rule counts sit on both sides of the bitmap's 64-bit word boundaries
//! (63, 64, 65 and 129 rules, split at random between the polarities),
//! and taxonomies cross them too (1–130 items). Besides random baskets,
//! every case checks a basket that matches every rule, an empty expanded
//! slice and expanded slices holding ids past the taxonomy.

use negassoc::rules::NegativeRule;
use negassoc::RuleSetExport;
use negassoc_apriori::rules::Rule;
use negassoc_apriori::Itemset;
use negassoc_serve::{answer_basket_line, Snapshot};
use negassoc_taxonomy::{ItemId, Taxonomy, TaxonomyBuilder};
use proptest::prelude::*;

const RULE_COUNTS: [usize; 4] = [63, 64, 65, 129];

/// splitmix64: the case's content stream, drawn from one seed.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// A ratio with four decimals of spread, as confidences and RIs are.
    fn ratio(&mut self) -> f64 {
        self.below(1_000_001) as f64 / 1e6
    }
}

/// A forest of `len` items: each item is a root or a child of an
/// earlier one.
fn taxonomy(len: usize, mix: &mut Mix) -> Taxonomy {
    let mut b = TaxonomyBuilder::new();
    let mut ids = Vec::with_capacity(len);
    for i in 0..len {
        let name = format!("i{i}");
        let id = if i == 0 || mix.below(4) == 0 {
            b.add_root(&name)
        } else {
            b.add_child(ids[mix.below(i)], &name).expect("fresh name")
        };
        ids.push(id);
    }
    b.build()
}

/// A sorted, duplicate-free side of one to three items below `len`.
fn side(len: usize, mix: &mut Mix) -> Itemset {
    let n = 1 + mix.below(3);
    Itemset::from_unsorted(
        (0..n)
            .map(|_| ItemId(mix.below(len) as u32))
            .collect::<Vec<_>>(),
    )
}

fn export(tax: &Taxonomy, rules: usize, mix: &mut Mix) -> RuleSetExport {
    let n_pos = mix.below(rules + 1);
    let len = tax.len();
    let positive = (0..n_pos)
        .map(|_| Rule {
            antecedent: side(len, mix),
            consequent: side(len, mix),
            support: mix.next() % 100_000,
            confidence: mix.ratio(),
        })
        .collect();
    let negative = (n_pos..rules)
        .map(|_| NegativeRule {
            antecedent: side(len, mix),
            consequent: side(len, mix),
            expected: mix.ratio() * 5_000.0,
            actual: mix.next() % 5_000,
            ri: mix.ratio(),
            derivation: None,
        })
        .collect();
    RuleSetExport {
        taxonomy_digest: tax.digest(),
        num_transactions: 100_000,
        min_support_count: 10,
        min_ri: 0.5,
        min_confidence: 0.5,
        positive,
        negative,
    }
}

/// Both matchers on `expanded`, which must agree; returns the matches.
fn agree(snap: &Snapshot, expanded: &[ItemId]) -> usize {
    let indexed = snap.match_expanded(expanded);
    assert_eq!(
        indexed,
        snap.match_expanded_oracle(expanded),
        "{expanded:?}"
    );
    indexed.positive.len() + indexed.negative.len()
}

/// Both answer paths on a basket line, which must agree byte for byte.
fn answers_agree(tax: &Taxonomy, snap: &Snapshot, line: &str) {
    let indexed = answer_basket_line(tax, snap, line, false);
    assert_eq!(
        indexed,
        answer_basket_line(tax, snap, line, true),
        "{line:?}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn indexed_match_and_answer_equal_the_oracle(
        count in 0usize..RULE_COUNTS.len(),
        len in 1usize..=130,
        seed in any::<u64>(),
    ) {
        let mut mix = Mix(seed);
        let tax = taxonomy(len, &mut mix);
        let rules = RULE_COUNTS[count];
        let snap = Snapshot::from_export(&export(&tax, rules, &mut mix), &tax, 1)
            .expect("snapshot");
        prop_assert_eq!(snap.num_rules(), rules);

        // Random baskets, resolved and expanded as a served query is.
        for _ in 0..8 {
            let picked: Vec<ItemId> =
                (0..1 + mix.below(6)).map(|_| ItemId(mix.below(len) as u32)).collect();
            let expanded = tax.expand_with_ancestors(picked.iter().copied());
            agree(&snap, &expanded);
            // Order and repeats in the expanded slice change nothing.
            let mut shuffled: Vec<ItemId> = expanded.iter().rev().copied().collect();
            shuffled.extend_from_slice(&expanded);
            agree(&snap, &shuffled);
            let line: Vec<&str> = picked.iter().map(|&i| tax.name(i)).collect();
            answers_agree(&tax, &snap, &line.join(", "));
        }

        // Every item: every rule matches.
        let all: Vec<ItemId> = (0..len as u32).map(ItemId).collect();
        prop_assert_eq!(agree(&snap, &all), rules);
        let line: Vec<&str> = all.iter().map(|&i| tax.name(i)).collect();
        answers_agree(&tax, &snap, &line.join(", "));

        // Nothing: no rule matches.
        prop_assert_eq!(agree(&snap, &[]), 0);

        // Ids past the taxonomy neither panic nor match.
        let beyond = [len, len + 1, len.next_multiple_of(64), len + 64, u32::MAX as usize];
        let beyond: Vec<ItemId> = beyond.iter().map(|&i| ItemId(i as u32)).collect();
        prop_assert_eq!(agree(&snap, &beyond), 0);
        let mut with_all = all.clone();
        with_all.extend_from_slice(&beyond);
        prop_assert_eq!(agree(&snap, &with_all), rules);
    }
}
