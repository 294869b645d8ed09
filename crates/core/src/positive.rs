//! The baseline the paper positions itself against (§1.2): Srikant &
//! Agrawal's *R-interest* pruning of generalized **positive** rules
//! (VLDB '95). A rule over specific items is uninteresting when an
//! ancestor rule already predicts its support: if `clothes ⇒ footwear` is
//! known, `jackets ⇒ shoes` carries no news unless its support deviates
//! from the taxonomy-scaled expectation by at least a factor `R`.
//!
//! The expectation is the same Case-1/2 scaling the negative miner uses
//! ([`crate::expected`]); the two techniques are duals — R-interest keeps
//! positive rules that *beat* the expectation, the negative miner keeps
//! itemsets that *fall short* of it. Implementing both makes the
//! comparison concrete (see the `retail_taxonomy` example).

use crate::error::NegAssocError;
use crate::expected::{approx_ge, expected_support, support_to_f64, Ratio};
use negassoc_apriori::rules::Rule;
use negassoc_apriori::{Itemset, LargeItemsets};
use negassoc_taxonomy::{ItemId, Taxonomy};

/// A rule together with the verdict of the R-interest filter.
#[derive(Clone, Debug)]
pub struct JudgedRule {
    /// The positive rule.
    pub rule: Rule,
    /// The tightest (smallest) ancestor-predicted expected support, when
    /// any ancestor itemset of the rule's union is large.
    pub closest_expectation: Option<f64>,
    /// `true` when no large ancestor predicts the rule within factor `R`.
    pub interesting: bool,
}

/// Filter `rules` to the R-interesting ones: a rule survives when its
/// actual support is at least `r` times the expected support derived from
/// *every* large ancestor itemset of its union (rules with no large
/// ancestor are trivially interesting — there is nothing to predict them
/// from).
///
/// # Errors
/// [`NegAssocError::Config`] when `r < 1.0` (a factor below 1 would prune
/// rules for merely meeting expectations).
pub fn r_interesting(
    rules: Vec<Rule>,
    large: &LargeItemsets,
    tax: &Taxonomy,
    r: f64,
) -> Result<Vec<JudgedRule>, NegAssocError> {
    if r.is_nan() || r < 1.0 {
        return Err(NegAssocError::Config(format!(
            "interest factor must be at least 1, got {r}"
        )));
    }
    Ok(rules
        .into_iter()
        .map(|rule| {
            let union = rule.antecedent.union(&rule.consequent);
            let closest = closest_ancestor_expectation(&union, large, tax);
            let interesting = match closest {
                None => true,
                Some(e) => approx_ge(support_to_f64(rule.support), r * e),
            };
            JudgedRule {
                rule,
                closest_expectation: closest,
                interesting,
            }
        })
        .collect())
}

/// The smallest expected support over all "close ancestors" of `itemset`:
/// itemsets obtained by replacing a nonempty subset of members with their
/// immediate parents, kept only when large. Smallest is the binding
/// prediction — a rule must beat the *best-informed* ancestor.
fn closest_ancestor_expectation(
    itemset: &Itemset,
    large: &LargeItemsets,
    tax: &Taxonomy,
) -> Option<f64> {
    let items = itemset.items();
    let k = items.len();
    let mut best: Option<f64> = None;
    // Masks select which members to lift to their parent.
    for mask in 1u32..(1 << k) {
        let mut lifted: Vec<ItemId> = Vec::with_capacity(k);
        let mut ratios: Vec<Ratio> = Vec::new();
        let mut ok = true;
        for (pos, &item) in items.iter().enumerate() {
            if mask & (1 << pos) == 0 {
                lifted.push(item);
                continue;
            }
            let Some(parent) = tax.parent(item) else {
                ok = false;
                break;
            };
            let (Some(child_sup), Some(parent_sup)) =
                (large.support_of(&[item]), large.support_of(&[parent]))
            else {
                ok = false;
                break;
            };
            lifted.push(parent);
            ratios.push(Ratio {
                new_support: child_sup,
                base_support: parent_sup,
            });
        }
        if !ok {
            continue;
        }
        let ancestor = Itemset::from_unsorted(lifted);
        if ancestor.len() != k {
            continue; // lifting collapsed two members into one ancestor
        }
        let Some(ancestor_sup) = large.support_of_set(&ancestor) else {
            continue;
        };
        // Parent supports come from the large store, so they are positive;
        // a failure here would be a corrupt store — skip the mask rather
        // than poison the minimum with NaN.
        let Ok(e) = expected_support(ancestor_sup, &ratios) else {
            continue;
        };
        best = Some(match best {
            None => e,
            Some(b) => b.min(e),
        });
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use negassoc_taxonomy::TaxonomyBuilder;

    /// clothes -> {jackets, ski pants}; footwear -> {shoes, boots}.
    fn world() -> (Taxonomy, LargeItemsets, [ItemId; 6]) {
        let mut b = TaxonomyBuilder::new();
        let clothes = b.add_root("clothes");
        let jackets = b.add_child(clothes, "jackets").unwrap();
        let ski = b.add_child(clothes, "ski pants").unwrap();
        let footwear = b.add_root("footwear");
        let shoes = b.add_child(footwear, "shoes").unwrap();
        let boots = b.add_child(footwear, "boots").unwrap();
        let tax = b.build();

        let mut large = LargeItemsets::new(1000, 10);
        for (i, s) in [
            (clothes, 200u64),
            (jackets, 100),
            (ski, 100),
            (footwear, 200),
            (shoes, 100),
            (boots, 100),
        ] {
            large.insert(Itemset::singleton(i), s);
        }
        // Ancestor rule basis: {clothes, footwear} support 80.
        large.insert(Itemset::from_unsorted(vec![clothes, footwear]), 80);
        // Exactly as predicted: E[{jackets, shoes}] = 80·(1/2)·(1/2) = 20.
        large.insert(Itemset::from_unsorted(vec![jackets, shoes]), 20);
        // Far above prediction: {ski, boots} = 60 >> 20.
        large.insert(Itemset::from_unsorted(vec![ski, boots]), 60);
        (tax, large, [clothes, jackets, ski, footwear, shoes, boots])
    }

    fn rule(a: ItemId, c: ItemId, support: u64, large: &LargeItemsets) -> Rule {
        let asup = large.support_of(&[a]).unwrap();
        Rule {
            antecedent: Itemset::singleton(a),
            consequent: Itemset::singleton(c),
            support,
            confidence: support as f64 / asup as f64,
        }
    }

    #[test]
    fn predicted_rule_is_pruned_surprising_rule_survives() {
        let (tax, large, [_, jackets, ski, _, shoes, boots]) = world();
        let rules = vec![
            rule(jackets, shoes, 20, &large),
            rule(ski, boots, 60, &large),
        ];
        let judged = r_interesting(rules, &large, &tax, 1.5).unwrap();
        assert_eq!(judged.len(), 2);
        let by = |a: ItemId| {
            judged
                .iter()
                .find(|j| j.rule.antecedent.contains(a))
                .unwrap()
        };

        let predicted = by(jackets);
        assert!(!predicted.interesting); // 20 < 1.5·20
        assert!((predicted.closest_expectation.unwrap() - 20.0).abs() < 1e-9);

        let surprising = by(ski);
        assert!(surprising.interesting); // 60 >= 1.5·20
    }

    #[test]
    fn ancestorless_rules_are_trivially_interesting() {
        let (tax, large, [clothes, _, _, footwear, _, _]) = world();
        // The top-level rule itself has no large ancestor (its members are
        // roots).
        let rules = vec![rule(clothes, footwear, 80, &large)];
        let judged = r_interesting(rules, &large, &tax, 2.0).unwrap();
        assert!(judged[0].interesting);
        assert!(judged[0].closest_expectation.is_none());
    }

    #[test]
    fn partial_lift_uses_case2_expectation() {
        let (tax, mut large, [clothes, jackets, _, _, shoes, _]) = world();
        // Make {clothes, shoes} large too: lifting only `jackets` gives
        // E[{jackets, shoes}] = sup({clothes, shoes})·(100/200) = 30,
        // SMALLER than the both-lifted expectation 20? No: 60·0.5 = 30 >
        // 20, so the binding (minimum) stays 20.
        large.insert(Itemset::from_unsorted(vec![clothes, shoes]), 60);
        let rules = vec![rule(jackets, shoes, 25, &large)];
        let judged = r_interesting(rules, &large, &tax, 1.0).unwrap();
        assert!((judged[0].closest_expectation.unwrap() - 20.0).abs() < 1e-9);
        // At R = 1.0, 25 >= 20 -> interesting.
        assert!(judged[0].interesting);
    }

    #[test]
    fn r_below_one_is_a_config_error() {
        let (tax, large, _) = world();
        let err = r_interesting(Vec::new(), &large, &tax, 0.5).unwrap_err();
        assert!(matches!(err, NegAssocError::Config(_)));
        assert!(err.to_string().contains("at least 1"));
        // NaN factors are rejected the same way.
        assert!(r_interesting(Vec::new(), &large, &tax, f64::NAN).is_err());
    }
}
