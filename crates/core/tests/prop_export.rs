//! Property test: export's rank-ordered rules come out in exactly the
//! order of the `(antecedent, consequent)` itemset comparator under a
//! stable sort, for positive rules generated from random large-itemset
//! stores and for negative rule lists in which many rules share an
//! antecedent (and some pairs repeat).

use negassoc::rules::NegativeRule;
use negassoc::{MiningOutcome, MiningReport};
use negassoc_apriori::rules::{generate_rules, Rule};
use negassoc_apriori::{Itemset, LargeItemsets};
use negassoc_taxonomy::{ItemId, Taxonomy, TaxonomyBuilder};
use proptest::prelude::*;

const ITEMS: u32 = 9;

fn flat_taxonomy() -> Taxonomy {
    let mut b = TaxonomyBuilder::new();
    for i in 0..ITEMS {
        b.add_root(&format!("i{i}"));
    }
    b.build()
}

/// A downward-closed store: every nonempty subset of each maximal set,
/// with supports that shrink with size and vary per set.
fn store(maximal: &[Vec<u32>], noise: u64) -> LargeItemsets {
    let mut large = LargeItemsets::new(10_000, 10);
    for items in maximal {
        let items: Vec<ItemId> = items.iter().map(|&i| ItemId(i)).collect();
        let set = Itemset::from_unsorted(items);
        let n = set.len();
        for mask in 1u32..(1 << n) {
            let sub: Vec<ItemId> = (0..n)
                .filter(|b| mask & (1 << b) != 0)
                .map(|b| set.items()[b])
                .collect();
            let sub = Itemset::from_sorted(sub);
            let h = sub
                .items()
                .iter()
                .fold(noise, |h, i| h.rotate_left(7) ^ u64::from(i.0 + 1));
            let support = 5_000 / (sub.len() as u64) - h % 400;
            if large.support_of_set(&sub).is_none() {
                large.insert(sub, support);
            }
        }
    }
    large
}

fn negative_rule(antecedent: Itemset, consequent: Itemset, tag: u64) -> NegativeRule {
    NegativeRule {
        antecedent,
        consequent,
        expected: 100.0 + tag as f64,
        actual: tag,
        ri: 0.5,
        derivation: None,
    }
}

fn by_itemsets<R>(rules: &mut [R], sides: impl Fn(&R) -> (&Itemset, &Itemset)) {
    rules.sort_by(|a, b| sides(a).cmp(&sides(b)));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn rank_order_equals_the_itemset_comparator(
        maximal in prop::collection::vec(prop::collection::vec(0u32..ITEMS, 1..6), 1..5),
        noise in any::<u64>(),
        min_conf_pct in 0u32..=100,
        picks in prop::collection::vec((0usize..4, any::<u64>(), 0u64..50), 0..60),
    ) {
        let tax = flat_taxonomy();
        let large = store(&maximal, noise);
        let min_conf = f64::from(min_conf_pct) / 100.0;

        // Negative rules: antecedents from a pool of at most four sides,
        // so many rules share one; consequents from every large itemset.
        let all: Vec<&Itemset> = large.iter().map(|(s, _)| s).collect();
        let pool: Vec<&Itemset> = all.iter().copied().take(4).collect();
        let rules: Vec<NegativeRule> = picks
            .iter()
            .map(|&(a, c, tag)| {
                negative_rule(
                    pool[a % pool.len()].clone(),
                    all[(c % all.len() as u64) as usize].clone(),
                    tag,
                )
            })
            .collect();

        let outcome = MiningOutcome {
            large,
            negatives: Vec::new(),
            rules,
            report: MiningReport::default(),
        };
        let export = outcome.rule_export(&tax, min_conf, 0.5);

        let mut positive: Vec<Rule> = generate_rules(&outcome.large, min_conf);
        by_itemsets(&mut positive, |r| (&r.antecedent, &r.consequent));
        prop_assert_eq!(&export.positive, &positive);

        let mut negative = outcome.rules.clone();
        by_itemsets(&mut negative, |r| (&r.antecedent, &r.consequent));
        prop_assert_eq!(&export.negative, &negative);
    }
}

/// Vacuity guard: a store whose rules share antecedents, exported at a
/// confidence every rule passes.
#[test]
fn many_rules_share_an_antecedent() {
    let tax = flat_taxonomy();
    let large = store(&[vec![0, 1, 2, 3, 4], vec![0, 5, 6]], 3);
    let outcome = MiningOutcome {
        large,
        negatives: Vec::new(),
        rules: Vec::new(),
        report: MiningReport::default(),
    };
    let export = outcome.rule_export(&tax, 0.0, 0.5);
    let mut want = generate_rules(&outcome.large, 0.0);
    assert!(want.len() > 100, "{} rules", want.len());
    by_itemsets(&mut want, |r| (&r.antecedent, &r.consequent));
    assert_eq!(export.positive, want);
    let singleton0 = Itemset::singleton(ItemId(0));
    assert!(
        export
            .positive
            .iter()
            .filter(|r| r.antecedent == singleton0)
            .count()
            > 10
    );
}
