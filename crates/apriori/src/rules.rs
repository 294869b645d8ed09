//! Positive association-rule generation — the `ap-genrules` procedure of
//! Agrawal & Srikant (VLDB '94).
//!
//! For every large itemset `l` (|l| ≥ 2) and every partition `l = a ∪ c`
//! with nonempty antecedent `a` and consequent `c`, the rule `a ⇒ c` holds
//! when `confidence = support(l) / support(a) ≥ minconf`. Consequents are
//! grown with `apriori-gen`: if `a ⇒ c` fails, every rule with a consequent
//! ⊃ `c` (hence antecedent ⊂ `a`, hence support(antecedent) ≥ support(a),
//! hence confidence no higher) fails too, so failing consequents are pruned
//! before being extended. The paper's negative-rule generator (its Fig. 4)
//! is the same skeleton with the RI measure; see `negassoc::rules`.

use crate::gen::apriori_gen;
use crate::itemset::{Itemset, LargeItemsets};
use negassoc_taxonomy::ItemId;
use std::fmt;

/// A positive association rule `antecedent ⇒ consequent`.
#[derive(Clone, Debug, PartialEq)]
pub struct Rule {
    /// The rule's left-hand side (nonempty).
    pub antecedent: Itemset,
    /// The rule's right-hand side (nonempty, disjoint from the antecedent).
    pub consequent: Itemset,
    /// Absolute support count of `antecedent ∪ consequent`.
    pub support: u64,
    /// `support(antecedent ∪ consequent) / support(antecedent)`.
    pub confidence: f64,
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:?} => {:?} (sup {}, conf {:.3})",
            self.antecedent, self.consequent, self.support, self.confidence
        )
    }
}

/// Generate all rules with confidence at least `min_confidence` from the
/// mined `large` itemsets.
///
/// Each antecedent is assembled in one reused scratch buffer and its
/// support probed by slice, so only emitted rules allocate.
pub fn generate_rules(large: &LargeItemsets, min_confidence: f64) -> Vec<Rule> {
    assert!(
        (0.0..=1.0).contains(&min_confidence),
        "confidence must be within [0, 1]"
    );
    let mut out = Vec::new();
    let mut antecedent = Vec::new();
    for k in 2..=large.max_level() {
        for (itemset, support) in large.level(k) {
            // Seed: all 1-item consequents whose rule passes.
            let mut h1 = Vec::new();
            for &item in itemset.items() {
                if try_emit(
                    large,
                    itemset,
                    support,
                    &[item],
                    min_confidence,
                    &mut antecedent,
                    &mut out,
                ) {
                    h1.push(Itemset::singleton(item));
                }
            }
            grow_consequents(
                large,
                itemset,
                support,
                h1,
                min_confidence,
                &mut antecedent,
                &mut out,
            );
        }
    }
    out
}

/// Emit the rule `(itemset − consequent) ⇒ consequent` when confident;
/// returns whether it passed (so the consequent survives for extension).
/// `antecedent` is scratch.
fn try_emit(
    large: &LargeItemsets,
    itemset: &Itemset,
    support: u64,
    consequent: &[ItemId],
    min_confidence: f64,
    antecedent: &mut Vec<ItemId>,
    out: &mut Vec<Rule>,
) -> bool {
    itemset.minus_into(consequent, antecedent);
    if antecedent.is_empty() {
        return false;
    }
    // Every subset of a large itemset is large, so the lookup succeeds;
    // treat a miss (a corrupt store) as "no rule" rather than panicking.
    let Some(asup) = large.support_of(antecedent) else {
        return false;
    };
    // negassoc-lint: allow(L005) -- confidence ratio; supports are exact in f64 up to 2^53
    let confidence = support as f64 / asup as f64;
    if confidence >= min_confidence {
        out.push(Rule {
            antecedent: Itemset::from_sorted(antecedent.as_slice()),
            consequent: Itemset::from_sorted(consequent),
            support,
            confidence,
        });
        true
    } else {
        false
    }
}

/// Recursively extend passing consequents with `apriori-gen`.
fn grow_consequents(
    large: &LargeItemsets,
    itemset: &Itemset,
    support: u64,
    h_m: Vec<Itemset>,
    min_confidence: f64,
    antecedent: &mut Vec<ItemId>,
    out: &mut Vec<Rule>,
) {
    if h_m.is_empty() || h_m[0].len() + 1 >= itemset.len() {
        return; // consequent must stay a proper subset
    }
    let h_next: Vec<Itemset> = apriori_gen(&h_m)
        .into_iter()
        .filter(|c| {
            let c = c.items();
            try_emit(large, itemset, support, c, min_confidence, antecedent, out)
        })
        .collect();
    grow_consequents(
        large,
        itemset,
        support,
        h_next,
        min_confidence,
        antecedent,
        out,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(v: &[u32]) -> Itemset {
        Itemset::from_unsorted(v.iter().map(|&i| ItemId(i)).collect())
    }

    /// Supports from the VLDB '94 textbook database:
    /// {1}:2 {2}:3 {3}:3 {5}:3 {1,3}:2 {2,3}:2 {2,5}:3 {3,5}:2 {2,3,5}:2.
    fn textbook_large() -> LargeItemsets {
        let mut l = LargeItemsets::new(4, 2);
        for (items, sup) in [
            (vec![1u32], 2u64),
            (vec![2], 3),
            (vec![3], 3),
            (vec![5], 3),
            (vec![1, 3], 2),
            (vec![2, 3], 2),
            (vec![2, 5], 3),
            (vec![3, 5], 2),
            (vec![2, 3, 5], 2),
        ] {
            l.insert(set(&items), sup);
        }
        l
    }

    fn find<'a>(rules: &'a [Rule], a: &Itemset, c: &Itemset) -> Option<&'a Rule> {
        rules
            .iter()
            .find(|r| &r.antecedent == a && &r.consequent == c)
    }

    #[test]
    fn generates_confident_rules_only() {
        let rules = generate_rules(&textbook_large(), 1.0);
        // conf({1} => {3}) = 2/2 = 1.0; conf({3} => {1}) = 2/3 < 1.
        assert!(find(&rules, &set(&[1]), &set(&[3])).is_some());
        assert!(find(&rules, &set(&[3]), &set(&[1])).is_none());
        // conf({2} => {5}) = conf({5} => {2}) = 1.0.
        assert!(find(&rules, &set(&[2]), &set(&[5])).is_some());
        assert!(find(&rules, &set(&[5]), &set(&[2])).is_some());
        // From {2,3,5}: {2,3} => {5} and {3,5} => {2} have conf 1.0;
        // {2,5} => {3} has 2/3.
        assert!(find(&rules, &set(&[2, 3]), &set(&[5])).is_some());
        assert!(find(&rules, &set(&[3, 5]), &set(&[2])).is_some());
        assert!(find(&rules, &set(&[2, 5]), &set(&[3])).is_none());
        // Multi-item consequents: {3} => {2,5} has conf 2/3 < 1.
        assert!(find(&rules, &set(&[3]), &set(&[2, 5])).is_none());
    }

    #[test]
    fn lower_confidence_admits_more_rules() {
        let strict = generate_rules(&textbook_large(), 1.0);
        let loose = generate_rules(&textbook_large(), 0.5);
        assert!(loose.len() > strict.len());
        // Every strict rule also appears at the looser threshold.
        for r in &strict {
            assert!(find(&loose, &r.antecedent, &r.consequent).is_some());
        }
        // Multi-item consequent appears now: {3} => {2,5} at 2/3.
        let r = find(&loose, &set(&[3]), &set(&[2, 5])).unwrap();
        assert!((r.confidence - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(r.support, 2);
    }

    #[test]
    fn confidence_arithmetic_and_display() {
        let rules = generate_rules(&textbook_large(), 0.0);
        let r = find(&rules, &set(&[2]), &set(&[3])).unwrap();
        assert!((r.confidence - 2.0 / 3.0).abs() < 1e-12);
        let shown = r.to_string();
        assert!(shown.contains("=>"));
        assert!(shown.contains("0.667"));
    }

    #[test]
    fn no_rules_from_singletons_or_empty() {
        let mut l = LargeItemsets::new(10, 1);
        l.insert(set(&[1]), 5);
        assert!(generate_rules(&l, 0.0).is_empty());
        let empty = LargeItemsets::new(0, 1);
        assert!(generate_rules(&empty, 0.5).is_empty());
    }

    #[test]
    #[should_panic(expected = "within [0, 1]")]
    fn invalid_confidence_panics() {
        generate_rules(&textbook_large(), 1.5);
    }

    #[test]
    fn rule_consequents_are_disjoint_from_antecedents() {
        for r in generate_rules(&textbook_large(), 0.0) {
            assert!(r.antecedent.minus(&r.consequent) == r.antecedent);
            assert!(!r.antecedent.is_empty());
            assert!(!r.consequent.is_empty());
        }
    }
}
