//! Shared machinery for mining *generalized* large itemsets — itemsets that
//! may contain taxonomy categories as well as leaf items (Srikant & Agrawal,
//! VLDB '95). A transaction supports a category when it contains any of the
//! category's descendants, so counting works on transactions *extended* with
//! the ancestors of their items.
//!
//! All three drivers in this crate ([`crate::basic`], [`crate::cumulate`],
//! [`crate::est_merge`]) prune candidates that contain both an item and one
//! of its ancestors: `support({x, ancestor(x)} ∪ rest) = support({x} ∪
//! rest)`, so such itemsets are redundant and, per Srikant & Agrawal, can be
//! dropped at level 2 without affecting any other large itemset (downward
//! closure removes their supersets automatically). This also makes the three
//! algorithms' outputs identical, which the cross-algorithm tests pin down.
//!
//! [`extend_full`] and [`extend_filtered`] are the flat reference
//! backend's transaction extension. The bitmap backend does not call them:
//! Cumulate's optimizations (precomputed ancestors, only the ancestors a
//! candidate needs) are its per-pass `RowMap`, a
//! dense item → rows lookup table instead of a hash-set filter.

use crate::itemset::Itemset;
use negassoc_taxonomy::fxhash::FxHashSet;
use negassoc_taxonomy::{ItemId, Taxonomy};

/// Precomputed ancestor lists (Cumulate optimization 2): `table[i]` holds
/// the proper ancestors of item `i`, nearest first.
#[derive(Clone, Debug)]
pub struct AncestorTable {
    table: Vec<Vec<ItemId>>,
}

impl AncestorTable {
    /// Precompute ancestors for every item of `tax`.
    pub fn new(tax: &Taxonomy) -> Self {
        let table = tax.items().map(|i| tax.ancestors(i).collect()).collect();
        Self { table }
    }

    /// Number of items the table covers (every item of the taxonomy).
    #[inline]
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// `true` for the table of an empty taxonomy.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }

    /// Proper ancestors of `item`, nearest first. Items outside the
    /// taxonomy (possible when transactions mention unknown ids) have none.
    #[inline]
    pub fn ancestors(&self, item: ItemId) -> &[ItemId] {
        self.table.get(item.index()).map_or(&[], |v| v.as_slice())
    }

    /// `true` when `anc` is a proper ancestor of `desc`.
    pub fn is_ancestor(&self, anc: ItemId, desc: ItemId) -> bool {
        self.ancestors(desc).contains(&anc)
    }

    /// `true` when some pair of `items` is in ancestor/descendant relation.
    pub fn has_related_pair(&self, items: &[ItemId]) -> bool {
        // Itemsets are tiny (k <= ~6), so the quadratic scan beats set
        // machinery.
        for (i, &a) in items.iter().enumerate() {
            for &b in &items[i + 1..] {
                if self.is_ancestor(a, b) || self.is_ancestor(b, a) {
                    return true;
                }
            }
        }
        false
    }
}

/// Extend `items` with all ancestors, producing a strictly ascending `buf`.
/// This is what the **Basic** algorithm does for every transaction.
pub fn extend_full(items: &[ItemId], ancestors: &AncestorTable, buf: &mut Vec<ItemId>) {
    buf.clear();
    buf.extend_from_slice(items);
    for &it in items {
        buf.extend_from_slice(ancestors.ancestors(it));
    }
    buf.sort_unstable();
    buf.dedup();
}

/// Extend `items` with ancestors and then keep only items present in
/// `needed` (Cumulate optimizations 1 — add only ancestors that occur in
/// some candidate — and the transaction-trimming refinement: drop items that
/// cannot contribute to any candidate).
pub fn extend_filtered(
    items: &[ItemId],
    ancestors: &AncestorTable,
    needed: &FxHashSet<ItemId>,
    buf: &mut Vec<ItemId>,
) {
    buf.clear();
    for &it in items {
        if needed.contains(&it) {
            buf.push(it);
        }
        for &anc in ancestors.ancestors(it) {
            if needed.contains(&anc) {
                buf.push(anc);
            }
        }
    }
    buf.sort_unstable();
    buf.dedup();
}

/// The set of items mentioned by any candidate (drives [`extend_filtered`]).
pub fn items_of_candidates(candidates: &[Itemset]) -> FxHashSet<ItemId> {
    let mut s = FxHashSet::default();
    for c in candidates {
        s.extend(c.items().iter().copied());
    }
    s
}

/// Drop candidates containing an item together with one of its ancestors.
pub fn prune_ancestor_pairs(candidates: Vec<Itemset>, ancestors: &AncestorTable) -> Vec<Itemset> {
    candidates
        .into_iter()
        .filter(|c| !ancestors.has_related_pair(c.items()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use negassoc_taxonomy::TaxonomyBuilder;

    fn fig1() -> (Taxonomy, [ItemId; 6]) {
        // A -> {B, C}; C -> {D, E}; F root leafless sibling structure.
        let mut b = TaxonomyBuilder::new();
        let a = b.add_root("A");
        let bb = b.add_child(a, "B").unwrap();
        let c = b.add_child(a, "C").unwrap();
        let d = b.add_child(c, "D").unwrap();
        let e = b.add_child(c, "E").unwrap();
        let f = b.add_root("F");
        (b.build(), [a, bb, c, d, e, f])
    }

    #[test]
    fn ancestor_table_matches_taxonomy() {
        let (tax, [a, bb, c, d, _e, f]) = fig1();
        let t = AncestorTable::new(&tax);
        assert_eq!(t.ancestors(d), &[c, a]);
        assert_eq!(t.ancestors(a), &[]);
        assert!(t.is_ancestor(a, d));
        assert!(!t.is_ancestor(d, a));
        assert!(!t.is_ancestor(f, d));
        assert!(t.has_related_pair(&[bb, d, c]));
        assert!(!t.has_related_pair(&[bb, d, f]));
        assert!(!t.has_related_pair(&[d]));
        // Unknown item id: no ancestors.
        assert_eq!(t.ancestors(ItemId(99)), &[]);
    }

    #[test]
    fn extend_full_adds_all_ancestors_once() {
        let (tax, [a, _bb, c, d, e, _f]) = fig1();
        let t = AncestorTable::new(&tax);
        let mut buf = Vec::new();
        extend_full(&[d, e], &t, &mut buf);
        let mut expect = vec![a, c, d, e];
        expect.sort();
        assert_eq!(buf, expect);
        extend_full(&[], &t, &mut buf);
        assert!(buf.is_empty());
        let _ = tax;
    }

    #[test]
    fn extend_filtered_respects_needed_set() {
        let (tax, [a, _bb, c, d, e, _f]) = fig1();
        let t = AncestorTable::new(&tax);
        let needed: FxHashSet<ItemId> = [c, d].into_iter().collect();
        let mut buf = Vec::new();
        extend_filtered(&[d, e], &t, &needed, &mut buf);
        // d kept; e dropped (not needed); ancestor c added once (needed via
        // both d and e); a dropped.
        let mut expect = vec![c, d];
        expect.sort();
        assert_eq!(buf, expect);
        let _ = (a, tax);
    }

    #[test]
    fn prune_ancestor_pairs_filters() {
        let (tax, [a, bb, c, d, _e, f]) = fig1();
        let t = AncestorTable::new(&tax);
        let sets = vec![
            Itemset::from_unsorted(vec![a, d]), // related
            Itemset::from_unsorted(vec![bb, d]),
            Itemset::from_unsorted(vec![c, d, f]), // related
            Itemset::from_unsorted(vec![bb, f]),
        ];
        let kept = prune_ancestor_pairs(sets, &t);
        assert_eq!(kept.len(), 2);
        let _ = tax;
    }

    #[test]
    fn items_of_candidates_unions() {
        let s = items_of_candidates(&[
            Itemset::from_unsorted(vec![ItemId(1), ItemId(2)]),
            Itemset::from_unsorted(vec![ItemId(2), ItemId(3)]),
        ]);
        assert_eq!(s.len(), 3);
        assert!(s.contains(&ItemId(3)));
    }
}
