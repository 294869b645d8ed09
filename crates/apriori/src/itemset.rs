//! Itemsets and the large-itemset store.
//!
//! An [`Itemset`] hashes, compares and orders exactly like its item slice
//! (`Box<[T]>` delegates all three to `[T]`), so it implements
//! `Borrow<[ItemId]>`: every `FxHashMap<Itemset, _>` in the workspace can
//! be probed with a `&[ItemId]` built in a reused scratch buffer. The hot
//! lookups — [`LargeItemsets::support_of`], the `apriori-gen` prune, rule
//! generation and negative-candidate admission — allocate nothing; an
//! `Itemset` is built only when one is stored or emitted.

use negassoc_taxonomy::fxhash::FxHashMap;
use negassoc_taxonomy::ItemId;
use std::borrow::Borrow;
use std::fmt;

/// An immutable itemset: a strictly ascending, boxed slice of item ids.
///
/// Two words on the stack, one allocation, cheap hashing with the workspace
/// Fx hasher — itemsets are the keys of every support table in the miner.
/// Maps keyed by `Itemset` can be probed with the sorted slice alone (see
/// the module docs).
///
/// ```
/// use negassoc_apriori::Itemset;
/// use negassoc_taxonomy::ItemId;
///
/// let a = Itemset::from_unsorted(vec![ItemId(3), ItemId(1), ItemId(3)]);
/// assert_eq!(a.items(), &[ItemId(1), ItemId(3)]);
/// let b = Itemset::from_unsorted(vec![ItemId(1), ItemId(2), ItemId(3)]);
/// assert!(a.is_subset_of(&b));
/// assert_eq!(b.minus(&a).items(), &[ItemId(2)]);
/// ```
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Itemset(Box<[ItemId]>);

impl Itemset {
    /// Build from items that are already strictly ascending.
    ///
    /// # Panics
    /// Debug-asserts the ordering invariant.
    pub fn from_sorted<I: Into<Box<[ItemId]>>>(items: I) -> Self {
        let items = items.into();
        debug_assert!(
            items.windows(2).all(|w| w[0] < w[1]),
            "itemset must be strictly ascending"
        );
        Itemset(items)
    }

    /// Build from arbitrary items; sorts and deduplicates.
    pub fn from_unsorted(mut items: Vec<ItemId>) -> Self {
        items.sort_unstable();
        items.dedup();
        Itemset(items.into_boxed_slice())
    }

    /// A single-item set.
    pub fn singleton(item: ItemId) -> Self {
        Itemset(Box::new([item]))
    }

    /// The items, ascending.
    #[inline]
    pub fn items(&self) -> &[ItemId] {
        &self.0
    }

    /// Number of items (the itemset's *length* in the paper's terms).
    #[inline]
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// `true` for the empty itemset.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Membership test (binary search).
    #[inline]
    pub fn contains(&self, item: ItemId) -> bool {
        self.0.binary_search(&item).is_ok()
    }

    /// `true` when `self ⊆ other` (linear merge).
    pub fn is_subset_of(&self, other: &Itemset) -> bool {
        is_sorted_subset(&self.0, &other.0)
    }

    /// Set union.
    pub fn union(&self, other: &Itemset) -> Itemset {
        let mut out = Vec::with_capacity(self.len() + other.len());
        let (mut i, mut j) = (0, 0);
        while i < self.0.len() && j < other.0.len() {
            match self.0[i].cmp(&other.0[j]) {
                std::cmp::Ordering::Less => {
                    out.push(self.0[i]);
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    out.push(other.0[j]);
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    out.push(self.0[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        out.extend_from_slice(&self.0[i..]);
        out.extend_from_slice(&other.0[j..]);
        Itemset(out.into_boxed_slice())
    }

    /// Set difference `self \ other`.
    pub fn minus(&self, other: &Itemset) -> Itemset {
        let mut out = Vec::with_capacity(self.len());
        self.minus_into(other.items(), &mut out);
        Itemset(out.into_boxed_slice())
    }

    /// `out = self \ other` for a strictly ascending `other` (linear
    /// merge), without allocating once `out` has grown: rule generation
    /// builds each antecedent this way and probes it as a slice.
    pub fn minus_into(&self, other: &[ItemId], out: &mut Vec<ItemId>) {
        out.clear();
        let mut j = 0;
        for &x in self.0.iter() {
            while j < other.len() && other[j] < x {
                j += 1;
            }
            if j == other.len() || other[j] != x {
                out.push(x);
            }
        }
    }

    /// The `len - 1` subsets obtained by dropping one item, in drop-index
    /// order.
    pub fn one_smaller_subsets(&self) -> impl Iterator<Item = Itemset> + '_ {
        (0..self.0.len()).map(move |skip| {
            let mut v = Vec::with_capacity(self.0.len() - 1);
            v.extend_from_slice(&self.0[..skip]);
            v.extend_from_slice(&self.0[skip + 1..]);
            Itemset(v.into_boxed_slice())
        })
    }

    /// Replace the item at `pos` with `new`, re-sorting. Returns `None`
    /// when `new` already occurs elsewhere in the set (the replacement
    /// would collapse the set).
    pub fn replace(&self, pos: usize, new: ItemId) -> Option<Itemset> {
        if self
            .0
            .iter()
            .enumerate()
            .any(|(i, &it)| i != pos && it == new)
        {
            return None;
        }
        let mut v = self.0.to_vec();
        v[pos] = new;
        v.sort_unstable();
        Some(Itemset(v.into_boxed_slice()))
    }
}

/// `true` when sorted slice `a` is a subset of sorted slice `b`.
pub(crate) fn is_sorted_subset(a: &[ItemId], b: &[ItemId]) -> bool {
    let mut j = 0;
    'outer: for &want in a {
        while j < b.len() {
            match b[j].cmp(&want) {
                std::cmp::Ordering::Less => j += 1,
                std::cmp::Ordering::Equal => {
                    j += 1;
                    continue 'outer;
                }
                std::cmp::Ordering::Greater => return false,
            }
        }
        return false;
    }
    true
}

impl fmt::Debug for Itemset {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, it) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{}", it.0)?;
        }
        write!(f, "}}")
    }
}

/// Sound because the derived `Hash`, `Eq` and `Ord` of the newtype
/// delegate through `Box<[ItemId]>` to `[ItemId]`.
impl Borrow<[ItemId]> for Itemset {
    #[inline]
    fn borrow(&self) -> &[ItemId] {
        &self.0
    }
}

impl From<Vec<ItemId>> for Itemset {
    fn from(v: Vec<ItemId>) -> Self {
        Itemset::from_unsorted(v)
    }
}

/// The large (frequent) itemsets of a database, stored per level with O(1)
/// support lookup, plus the database size needed to turn counts into
/// fractions.
#[derive(Clone, Debug, Default)]
pub struct LargeItemsets {
    /// `levels[k]` holds the large k-itemsets; `levels[0]` is unused.
    levels: Vec<FxHashMap<Itemset, u64>>,
    num_transactions: u64,
    min_support_count: u64,
}

impl LargeItemsets {
    /// An empty store for a database of `num_transactions`, mined at
    /// `min_support_count`.
    pub fn new(num_transactions: u64, min_support_count: u64) -> Self {
        Self {
            levels: Vec::new(),
            num_transactions,
            min_support_count,
        }
    }

    /// Number of transactions in the mined database.
    #[inline]
    pub fn num_transactions(&self) -> u64 {
        self.num_transactions
    }

    /// The absolute minimum-support count used during mining.
    #[inline]
    pub fn min_support_count(&self) -> u64 {
        self.min_support_count
    }

    /// Record a large itemset with its support count.
    pub fn insert(&mut self, itemset: Itemset, support: u64) {
        let k = itemset.len();
        if self.levels.len() <= k {
            self.levels.resize_with(k + 1, FxHashMap::default);
        }
        self.levels[k].insert(itemset, support);
    }

    /// Support count of an itemset given as a sorted slice, if it is large.
    /// Probes by the slice itself; nothing is allocated.
    #[inline]
    pub fn support_of(&self, items: &[ItemId]) -> Option<u64> {
        debug_assert!(
            items.windows(2).all(|w| w[0] < w[1]),
            "support_of needs a strictly ascending slice"
        );
        self.levels.get(items.len())?.get(items).copied()
    }

    /// Support count of an [`Itemset`], if it is large.
    #[inline]
    pub fn support_of_set(&self, itemset: &Itemset) -> Option<u64> {
        self.support_of(itemset.items())
    }

    /// `true` when `itemset` was found large.
    pub fn contains(&self, itemset: &Itemset) -> bool {
        self.support_of_set(itemset).is_some()
    }

    /// Support as a fraction of the database.
    pub fn support_fraction(&self, itemset: &Itemset) -> Option<f64> {
        let s = self.support_of_set(itemset)?;
        Some(s as f64 / self.num_transactions.max(1) as f64)
    }

    /// The large k-itemsets.
    pub fn level(&self, k: usize) -> impl Iterator<Item = (&Itemset, u64)> + '_ {
        self.levels
            .get(k)
            .into_iter()
            .flat_map(|m| m.iter().map(|(i, &s)| (i, s)))
    }

    /// Number of large k-itemsets.
    pub fn level_len(&self, k: usize) -> usize {
        self.levels.get(k).map_or(0, |m| m.len())
    }

    /// Largest k with any large k-itemset (0 when empty).
    pub fn max_level(&self) -> usize {
        (0..self.levels.len())
            .rev()
            .find(|&k| !self.levels[k].is_empty())
            .unwrap_or(0)
    }

    /// All large itemsets of every size, level by level.
    pub fn iter(&self) -> impl Iterator<Item = (&Itemset, u64)> + '_ {
        self.levels
            .iter()
            .flat_map(|m| m.iter().map(|(i, &s)| (i, s)))
    }

    /// Total number of large itemsets across all levels.
    pub fn total(&self) -> usize {
        self.levels.iter().map(|m| m.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(v: &[u32]) -> Itemset {
        Itemset::from_unsorted(v.iter().map(|&i| ItemId(i)).collect())
    }

    #[test]
    fn construction_sorts_and_dedups() {
        let s = set(&[5, 1, 5, 3]);
        assert_eq!(s.items(), &[ItemId(1), ItemId(3), ItemId(5)]);
        assert_eq!(s.len(), 3);
        assert_eq!(format!("{s:?}"), "{1,3,5}");
        assert!(!s.is_empty());
        assert_eq!(Itemset::singleton(ItemId(9)).items(), &[ItemId(9)]);
    }

    #[test]
    fn subset_union_minus() {
        let a = set(&[1, 3]);
        let b = set(&[1, 2, 3, 4]);
        assert!(a.is_subset_of(&b));
        assert!(!b.is_subset_of(&a));
        assert!(set(&[]).is_subset_of(&a));
        assert_eq!(a.union(&set(&[2, 3])), set(&[1, 2, 3]));
        assert_eq!(b.minus(&a), set(&[2, 4]));
        assert_eq!(a.minus(&b), set(&[]));
        assert!(a.contains(ItemId(3)));
        assert!(!a.contains(ItemId(2)));
    }

    #[test]
    fn one_smaller_subsets_enumerates_all() {
        let s = set(&[1, 2, 3]);
        let subs: Vec<Itemset> = s.one_smaller_subsets().collect();
        assert_eq!(subs, vec![set(&[2, 3]), set(&[1, 3]), set(&[1, 2])]);
        assert_eq!(set(&[7]).one_smaller_subsets().next(), Some(set(&[])));
    }

    #[test]
    fn replace_resorts_and_rejects_collisions() {
        let s = set(&[2, 5, 9]);
        assert_eq!(s.replace(0, ItemId(7)), Some(set(&[5, 7, 9])));
        assert_eq!(s.replace(2, ItemId(1)), Some(set(&[1, 2, 5])));
        assert_eq!(s.replace(0, ItemId(5)), None); // collides with existing 5
        assert_eq!(s.replace(1, ItemId(5)), Some(s.clone())); // same value at same pos
    }

    #[test]
    fn large_itemsets_store() {
        let mut l = LargeItemsets::new(100, 10);
        l.insert(set(&[1]), 50);
        l.insert(set(&[2]), 40);
        l.insert(set(&[1, 2]), 30);
        assert_eq!(l.num_transactions(), 100);
        assert_eq!(l.min_support_count(), 10);
        assert_eq!(l.support_of(&[ItemId(1)]), Some(50));
        assert_eq!(l.support_of(&[ItemId(1), ItemId(2)]), Some(30));
        assert_eq!(l.support_of(&[ItemId(3)]), None);
        assert!(l.contains(&set(&[1, 2])));
        assert_eq!(l.support_fraction(&set(&[2])), Some(0.4));
        assert_eq!(l.level_len(1), 2);
        assert_eq!(l.level_len(2), 1);
        assert_eq!(l.level_len(9), 0);
        assert_eq!(l.max_level(), 2);
        assert_eq!(l.total(), 3);
        assert_eq!(l.iter().count(), 3);
        assert_eq!(l.level(1).count(), 2);
    }

    #[test]
    fn slice_and_itemset_probes_hit_the_same_entry() {
        let mut m: FxHashMap<Itemset, u32> = FxHashMap::default();
        m.insert(set(&[2, 7, 9]), 1);
        m.insert(set(&[2, 7]), 2);
        let probe = [ItemId(2), ItemId(7), ItemId(9)];
        assert_eq!(m.get(&probe[..]), m.get(&set(&[2, 7, 9])));
        assert_eq!(m.get(&probe[..]), Some(&1));
        assert_eq!(m.get(&probe[..2]), Some(&2));
        assert_eq!(m.get(&probe[1..]), None);
        *m.get_mut(&probe[..]).unwrap() = 5;
        assert_eq!(m[&set(&[2, 7, 9])], 5);

        let mut l = LargeItemsets::new(10, 1);
        l.insert(set(&[2, 7]), 4);
        assert_eq!(l.support_of(&probe[..2]), l.support_of_set(&set(&[2, 7])));
        assert_eq!(l.support_of(&probe[..2]), Some(4));
    }

    #[test]
    fn empty_store() {
        let l = LargeItemsets::new(0, 1);
        assert_eq!(l.max_level(), 0);
        assert_eq!(l.total(), 0);
        assert_eq!(l.support_of(&[ItemId(0)]), None);
    }
}
