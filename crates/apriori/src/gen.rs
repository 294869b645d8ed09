//! The `apriori-gen` candidate generator of Agrawal & Srikant (VLDB '94):
//! a self-join of the large (k−1)-itemsets followed by the downward-closure
//! prune.

use crate::itemset::Itemset;
use negassoc_taxonomy::fxhash::FxHashSet;
use negassoc_taxonomy::ItemId;

/// Generate the size-`k` candidates from the large (k−1)-itemsets.
///
/// *Join:* two (k−1)-itemsets sharing their first k−2 items produce one
/// k-candidate. *Prune:* a candidate survives only when **all** of its
/// (k−1)-subsets are large.
///
/// `large_prev` may be in any order; it is indexed internally.
pub fn apriori_gen(large_prev: &[Itemset]) -> Vec<Itemset> {
    if large_prev.is_empty() {
        return Vec::new();
    }
    let k_minus_1 = large_prev[0].len();
    debug_assert!(
        large_prev.iter().all(|s| s.len() == k_minus_1),
        "apriori_gen input must be uniform in size"
    );
    let lookup: FxHashSet<&[ItemId]> = large_prev.iter().map(Itemset::items).collect();

    // Sort for the prefix join.
    let mut sorted: Vec<&Itemset> = large_prev.iter().collect();
    sorted.sort();

    let mut out = Vec::new();
    let mut joined: Vec<ItemId> = Vec::with_capacity(k_minus_1 + 1);
    let mut subset: Vec<ItemId> = Vec::with_capacity(k_minus_1);
    for (i, a) in sorted.iter().enumerate() {
        for b in &sorted[i + 1..] {
            let (pa, pb) = (a.items(), b.items());
            // Shared (k-2)-prefix required; `sorted` order means once the
            // prefix differs we can stop extending `a`.
            if pa[..k_minus_1 - 1] != pb[..k_minus_1 - 1] {
                break;
            }
            joined.clear();
            joined.extend_from_slice(pa);
            joined.push(pb[k_minus_1 - 1]);
            if prune_ok(&joined, &lookup, &mut subset) {
                out.push(Itemset::from_sorted(joined.as_slice()));
            }
        }
    }
    out
}

/// `true` when every (k−1)-subset of `candidate` is in `lookup`. Each
/// subset is assembled in `subset` and probed as a slice.
fn prune_ok(candidate: &[ItemId], lookup: &FxHashSet<&[ItemId]>, subset: &mut Vec<ItemId>) -> bool {
    (0..candidate.len()).all(|skip| {
        subset.clear();
        subset.extend_from_slice(&candidate[..skip]);
        subset.extend_from_slice(&candidate[skip + 1..]);
        lookup.contains(subset.as_slice())
    })
}

/// Special-cased generation of 2-candidates from large 1-itemsets: all
/// pairs (the join prefix is empty, and every 1-subset is large by
/// construction). `items` must be the large 1-items.
pub fn pairs_of(items: &[ItemId]) -> Vec<Itemset> {
    let mut sorted = items.to_vec();
    sorted.sort_unstable();
    sorted.dedup();
    let mut out = Vec::with_capacity(sorted.len() * sorted.len().saturating_sub(1) / 2);
    for i in 0..sorted.len() {
        for j in i + 1..sorted.len() {
            out.push(Itemset::from_sorted(vec![sorted[i], sorted[j]]));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(v: &[u32]) -> Itemset {
        Itemset::from_unsorted(v.iter().map(|&i| ItemId(i)).collect())
    }

    #[test]
    fn textbook_join_and_prune() {
        // The canonical example from Agrawal & Srikant:
        // L3 = {123, 124, 134, 135, 234} -> join gives {1234, 1345},
        // prune removes 1345 (145 not in L3) leaving {1234}.
        let l3 = vec![
            set(&[1, 2, 3]),
            set(&[1, 2, 4]),
            set(&[1, 3, 4]),
            set(&[1, 3, 5]),
            set(&[2, 3, 4]),
        ];
        let c4 = apriori_gen(&l3);
        assert_eq!(c4, vec![set(&[1, 2, 3, 4])]);
    }

    #[test]
    fn join_from_pairs() {
        let l2 = vec![set(&[1, 2]), set(&[1, 3]), set(&[2, 3]), set(&[2, 4])];
        let mut c3 = apriori_gen(&l2);
        c3.sort();
        // {1,2,3} survives (all 2-subsets large); {2,3,4} pruned (no {3,4}).
        assert_eq!(c3, vec![set(&[1, 2, 3])]);
    }

    #[test]
    fn empty_and_singleton_inputs() {
        assert!(apriori_gen(&[]).is_empty());
        assert!(apriori_gen(&[set(&[1, 2])]).is_empty());
    }

    #[test]
    fn pairs_of_generates_all_unordered_pairs() {
        let items = vec![ItemId(3), ItemId(1), ItemId(2), ItemId(3)];
        let mut pairs = pairs_of(&items);
        pairs.sort();
        assert_eq!(pairs, vec![set(&[1, 2]), set(&[1, 3]), set(&[2, 3])]);
        assert!(pairs_of(&[]).is_empty());
        assert!(pairs_of(&[ItemId(1)]).is_empty());
    }

    #[test]
    fn input_order_does_not_matter() {
        let mut l2 = vec![set(&[2, 3]), set(&[1, 2]), set(&[1, 3])];
        let a = apriori_gen(&l2);
        l2.reverse();
        let b = apriori_gen(&l2);
        assert_eq!(a, b);
        assert_eq!(a, vec![set(&[1, 2, 3])]);
    }
}
