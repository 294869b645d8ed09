//! Negative-rule generation — the paper's Figure 4, an extension of
//! `ap-genrules`.
//!
//! From every negative itemset `n` (with expected support `E` and actual
//! support `s`) and every partition `n = a ∪ h` into a large antecedent `a`
//! and large consequent `h`, emit `a ≠> h` when
//!
//! ```text
//! RI = (E − s) / sup(a)  ≥  MinRI.
//! ```
//!
//! Pruning (both monotone):
//!
//! * a consequent that is not large is deleted before extension — none of
//!   its supersets can be large;
//! * a consequent whose rule fails the RI test is deleted before extension
//!   — a larger consequent means a smaller antecedent, whose support can
//!   only be *higher*, so RI can only fall.

use crate::candidates::{Derivation, NegativeItemset};
use crate::error::NegAssocError;
use crate::expected::{approx_ge, rule_interest};
use negassoc_apriori::gen::apriori_gen;
use negassoc_apriori::{Itemset, LargeItemsets};
use negassoc_taxonomy::ItemId;
use std::fmt;

/// A negative association rule `antecedent ≠> consequent`.
#[derive(Clone, Debug, PartialEq)]
pub struct NegativeRule {
    /// Left-hand side; large, nonempty.
    pub antecedent: Itemset,
    /// Right-hand side; large, nonempty, disjoint from the antecedent.
    pub consequent: Itemset,
    /// Expected support of `antecedent ∪ consequent`.
    pub expected: f64,
    /// Actual support of `antecedent ∪ consequent`.
    pub actual: u64,
    /// Rule interest `(expected − actual) / sup(antecedent)`.
    pub ri: f64,
    /// Provenance of the expectation: which large itemset and substitution
    /// case induced it (inherited from the negative itemset).
    pub derivation: Option<Derivation>,
}

impl NegativeRule {
    /// Convenience: `true` when `item` occurs in the antecedent.
    pub fn antecedent_contains(&self, item: ItemId) -> bool {
        self.antecedent.contains(item)
    }
}

impl fmt::Display for NegativeRule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:?} =/=> {:?} (E {:.1}, actual {}, RI {:.3})",
            self.antecedent, self.consequent, self.expected, self.actual, self.ri
        )
    }
}

/// Generate all negative rules with interest at least `min_ri` from the
/// confirmed negative itemsets.
///
/// Consequents and antecedents are probed against `large` as slices (the
/// antecedent assembled in one reused scratch buffer), so only emitted
/// rules allocate.
pub fn generate_negative_rules(
    negatives: &[NegativeItemset],
    large: &LargeItemsets,
    min_ri: f64,
) -> Result<Vec<NegativeRule>, NegAssocError> {
    let mut out = Vec::new();
    let mut antecedent = Vec::new();
    for n in negatives {
        if n.itemset.len() < 2 {
            continue;
        }
        // H1: single-item consequents that produce a rule.
        let mut h1 = Vec::new();
        for &i in n.itemset.items() {
            if try_emit(n, large, &[i], min_ri, &mut antecedent, &mut out)? {
                h1.push(Itemset::singleton(i));
            }
        }
        grow(n, large, h1, min_ri, &mut antecedent, &mut out)?;
    }
    Ok(out)
}

/// Emit `(n − h) ≠> h` when all constraints pass; returns whether it did.
/// `antecedent` is scratch.
fn try_emit(
    n: &NegativeItemset,
    large: &LargeItemsets,
    consequent: &[ItemId],
    min_ri: f64,
    antecedent: &mut Vec<ItemId>,
    out: &mut Vec<NegativeRule>,
) -> Result<bool, NegAssocError> {
    // Consequent must be large.
    let Some(_) = large.support_of(consequent) else {
        return Ok(false);
    };
    n.itemset.minus_into(consequent, antecedent);
    if antecedent.is_empty() {
        return Ok(false);
    }
    // Antecedent must be large too.
    let Some(asup) = large.support_of(antecedent) else {
        return Ok(false);
    };
    // `asup` is a large-item support, so a zero here means the large-itemset
    // store is corrupt; surface it instead of unwrapping.
    let ri = rule_interest(n.expected, n.actual, asup)?;
    if approx_ge(ri, min_ri) {
        out.push(NegativeRule {
            antecedent: Itemset::from_sorted(antecedent.as_slice()),
            consequent: Itemset::from_sorted(consequent),
            expected: n.expected,
            actual: n.actual,
            ri,
            derivation: n.derivation.clone(),
        });
        Ok(true)
    } else {
        Ok(false)
    }
}

/// Extend surviving consequents with `apriori-gen`.
fn grow(
    n: &NegativeItemset,
    large: &LargeItemsets,
    h_m: Vec<Itemset>,
    min_ri: f64,
    antecedent: &mut Vec<ItemId>,
    out: &mut Vec<NegativeRule>,
) -> Result<(), NegAssocError> {
    if h_m.is_empty() || h_m[0].len() + 1 >= n.itemset.len() {
        return Ok(());
    }
    let mut next = Vec::new();
    for h in apriori_gen(&h_m) {
        if try_emit(n, large, h.items(), min_ri, antecedent, out)? {
            next.push(h);
        }
    }
    grow(n, large, next, min_ri, antecedent, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(v: &[u32]) -> Itemset {
        Itemset::from_unsorted(v.iter().map(|&i| ItemId(i)).collect())
    }

    fn neg(items: &[u32], expected: f64, actual: u64) -> NegativeItemset {
        NegativeItemset {
            itemset: set(items),
            expected,
            actual,
            derivation: None,
        }
    }

    /// Supports mirroring the paper's worked example (DESIGN.md corrected
    /// values): Bryers=1 (20000), Perrier=2 (8000).
    fn example_large() -> LargeItemsets {
        let mut l = LargeItemsets::new(100_000, 4000);
        l.insert(set(&[1]), 20_000); // Bryers
        l.insert(set(&[2]), 8_000); // Perrier
        l
    }

    #[test]
    fn paper_rule_direction() {
        // Negative itemset {Bryers, Perrier}: E 4000, actual 500.
        let negatives = vec![neg(&[1, 2], 4000.0, 500)];
        let large = example_large();
        // RI(Perrier => not Bryers) = 3500/8000 = 0.4375;
        // RI(Bryers => not Perrier) = 3500/20000 = 0.175.
        let rules = generate_negative_rules(&negatives, &large, 0.4).unwrap();
        assert_eq!(rules.len(), 1);
        let r = &rules[0];
        assert_eq!(r.antecedent, set(&[2]));
        assert_eq!(r.consequent, set(&[1]));
        assert!((r.ri - 0.4375).abs() < 1e-12);
        assert_eq!(r.actual, 500);
        assert!(r.antecedent_contains(ItemId(2)));
        assert!(!r.antecedent_contains(ItemId(1)));
        assert!(r.to_string().contains("=/=>"));
    }

    #[test]
    fn high_threshold_kills_both_directions() {
        let negatives = vec![neg(&[1, 2], 4000.0, 500)];
        let rules = generate_negative_rules(&negatives, &example_large(), 0.5).unwrap();
        assert!(rules.is_empty());
    }

    #[test]
    fn non_large_antecedent_blocks_rule() {
        // {3} never inserted as large.
        let negatives = vec![neg(&[1, 3], 4000.0, 0)];
        let rules = generate_negative_rules(&negatives, &example_large(), 0.0).unwrap();
        // Antecedent {3} not large -> only the direction with antecedent
        // {1} could fire, but consequent {3} is not large either.
        assert!(rules.is_empty());
    }

    #[test]
    fn triples_grow_multi_item_consequents() {
        let mut large = LargeItemsets::new(10_000, 100);
        for i in [1u32, 2, 3] {
            large.insert(set(&[i]), 1000);
        }
        for pair in [[1u32, 2], [1, 3], [2, 3]] {
            large.insert(set(&pair), 400);
        }
        // Negative triple with huge deviation: everything passes at low RI.
        let negatives = vec![neg(&[1, 2, 3], 900.0, 0)];
        let rules = generate_negative_rules(&negatives, &large, 0.1).unwrap();
        // 3 single-consequent + 3 double-consequent rules.
        assert_eq!(rules.len(), 6);
        let doubles: Vec<&NegativeRule> =
            rules.iter().filter(|r| r.consequent.len() == 2).collect();
        assert_eq!(doubles.len(), 3);
        for r in &rules {
            // RI uses the antecedent's support.
            let asup = large.support_of_set(&r.antecedent).unwrap();
            assert!((r.ri - 900.0 / asup as f64).abs() < 1e-12);
            assert!(r.antecedent.minus(&r.consequent) == r.antecedent);
        }
    }

    #[test]
    fn monotone_pruning_of_consequents() {
        // Same triple, but RI threshold passes only for pair antecedents
        // (sup 400 -> RI = 900/400 = 2.25) and fails for single antecedents
        // (sup 1000 -> RI = 0.9). With min_ri = 1.0, only single-item
        // consequents (pair antecedents) fire, and growth stops because
        // every single-consequent... actually all 3 singles fire.
        let mut large = LargeItemsets::new(10_000, 100);
        for i in [1u32, 2, 3] {
            large.insert(set(&[i]), 1000);
        }
        for pair in [[1u32, 2], [1, 3], [2, 3]] {
            large.insert(set(&pair), 400);
        }
        let negatives = vec![neg(&[1, 2, 3], 900.0, 0)];
        let rules = generate_negative_rules(&negatives, &large, 1.0).unwrap();
        assert_eq!(rules.len(), 3);
        assert!(rules.iter().all(|r| r.consequent.len() == 1));
    }

    #[test]
    fn missing_large_pair_blocks_that_branch_only() {
        // {2,3} not large: the rule {2,3} =/=> {1} cannot fire (antecedent
        // not large) and consequents {2,3} cannot fire either.
        let mut large = LargeItemsets::new(10_000, 100);
        for i in [1u32, 2, 3] {
            large.insert(set(&[i]), 1000);
        }
        large.insert(set(&[1, 2]), 400);
        large.insert(set(&[1, 3]), 400);
        let negatives = vec![neg(&[1, 2, 3], 900.0, 0)];
        let rules = generate_negative_rules(&negatives, &large, 0.1).unwrap();
        for r in &rules {
            assert_ne!(r.antecedent, set(&[2, 3]));
            assert_ne!(r.consequent, set(&[2, 3]));
        }
        // Singles with large antecedents: consequent {2} (ante {1,3}),
        // consequent {3} (ante {1,2}); consequent {1} blocked.
        // Doubles: consequent {1,2} (ante {3})? apriori_gen needs both
        // {1},{2} in H1 -> {1} failed, so H1 = [{2},{3}] -> gen {2,3},
        // which is not large -> blocked.
        assert_eq!(rules.len(), 2);
    }

    #[test]
    fn undersized_negative_itemsets_are_skipped() {
        let negatives = vec![neg(&[1], 500.0, 0)];
        assert!(generate_negative_rules(&negatives, &example_large(), 0.0)
            .unwrap()
            .is_empty());
    }
}
