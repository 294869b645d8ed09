use crate::fxhash::FxHashMap;
use crate::ItemId;

/// An immutable is-a taxonomy over items: a forest in which leaves are
/// concrete items appearing in transactions and internal nodes are
/// categories.
///
/// Construct one with [`crate::TaxonomyBuilder`]. Ids are dense (`0..len`),
/// so every per-item attribute is stored in a plain vector.
#[derive(Clone, Debug)]
pub struct Taxonomy {
    pub(crate) names: Vec<Box<str>>,
    pub(crate) parent: Vec<Option<ItemId>>,
    pub(crate) children: Vec<Vec<ItemId>>,
    pub(crate) roots: Vec<ItemId>,
    pub(crate) depth: Vec<u32>,
    pub(crate) by_name: FxHashMap<Box<str>, ItemId>,
    pub(crate) num_leaves: usize,
    /// [`Taxonomy::digest`], computed once when the taxonomy is built.
    pub(crate) digest: u64,
}

impl Taxonomy {
    /// Total number of items (leaves and categories).
    #[inline]
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// `true` when the taxonomy has no items at all.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Number of leaf items (items with no children).
    #[inline]
    pub fn num_leaves(&self) -> usize {
        self.num_leaves
    }

    /// Number of internal (category) items.
    #[inline]
    pub fn num_categories(&self) -> usize {
        self.len() - self.num_leaves
    }

    /// All item ids, in id order.
    pub fn items(&self) -> impl Iterator<Item = ItemId> + '_ {
        (0..self.names.len() as u32).map(ItemId)
    }

    /// Ids of all leaf items.
    pub fn leaves(&self) -> impl Iterator<Item = ItemId> + '_ {
        self.items().filter(|&i| self.is_leaf(i))
    }

    /// Ids of all category (internal) items.
    pub fn categories(&self) -> impl Iterator<Item = ItemId> + '_ {
        self.items().filter(|&i| !self.is_leaf(i))
    }

    /// The forest roots, in insertion order.
    #[inline]
    pub fn roots(&self) -> &[ItemId] {
        &self.roots
    }

    /// Human-readable name of `item`.
    ///
    /// # Panics
    /// Panics if `item` is out of range.
    #[inline]
    pub fn name(&self, item: ItemId) -> &str {
        &self.names[item.index()]
    }

    /// Look an item up by its (unique) name.
    pub fn id_of(&self, name: &str) -> Option<ItemId> {
        self.by_name.get(name).copied()
    }

    /// The parent category of `item`, or `None` for roots.
    #[inline]
    pub fn parent(&self, item: ItemId) -> Option<ItemId> {
        self.parent[item.index()]
    }

    /// The immediate children of `item` (empty for leaves).
    #[inline]
    pub fn children(&self, item: ItemId) -> &[ItemId] {
        &self.children[item.index()]
    }

    /// `true` when `item` has no children.
    #[inline]
    pub fn is_leaf(&self, item: ItemId) -> bool {
        self.children[item.index()].is_empty()
    }

    /// Depth of `item` in its tree (roots are at depth 0).
    #[inline]
    pub fn depth(&self, item: ItemId) -> u32 {
        self.depth[item.index()]
    }

    /// Maximum depth over all items; 0 for a flat taxonomy.
    pub fn max_depth(&self) -> u32 {
        self.depth.iter().copied().max().unwrap_or(0)
    }

    /// The siblings of `item`: the *other* children of its parent, in the
    /// parent's child order. Roots have no siblings (the paper's uniformity
    /// assumption only justifies comparing items grouped under a shared
    /// category, so top-level departments are not treated as substitutes).
    pub fn siblings(&self, item: ItemId) -> impl Iterator<Item = ItemId> + '_ {
        let kin: &[ItemId] = match self.parent(item) {
            Some(p) => self.children(p),
            None => &[],
        };
        kin.iter().copied().filter(move |&s| s != item)
    }

    /// Proper ancestors of `item`, nearest first.
    pub fn ancestors(&self, item: ItemId) -> Ancestors<'_> {
        Ancestors {
            tax: self,
            cur: self.parent(item),
        }
    }

    /// `true` when `anc` is a *proper* ancestor of `desc`.
    pub fn is_ancestor(&self, anc: ItemId, desc: ItemId) -> bool {
        // Walk up from the deeper node; depth makes this O(depth difference).
        if self.depth(anc) >= self.depth(desc) {
            return false;
        }
        self.ancestors(desc).any(|a| a == anc)
    }

    /// `true` when one of `a`, `b` is a proper ancestor of the other.
    pub fn related(&self, a: ItemId, b: ItemId) -> bool {
        self.is_ancestor(a, b) || self.is_ancestor(b, a)
    }

    /// All leaf items in the subtree rooted at `item` (just `item` itself
    /// when it is a leaf), in depth-first order.
    pub fn leaves_under(&self, item: ItemId) -> LeavesUnder<'_> {
        LeavesUnder {
            tax: self,
            stack: vec![item],
        }
    }

    /// All items in the subtree rooted at `item`, including `item`,
    /// depth-first.
    pub fn subtree(&self, item: ItemId) -> Subtree<'_> {
        Subtree {
            tax: self,
            stack: vec![item],
        }
    }

    /// `items` closed under ancestry: every input id plus all its proper
    /// ancestors, sorted and deduplicated. This is the query-time
    /// expansion of a basket — a basket containing an item matches rules
    /// written over any of the item's ancestor categories, the same
    /// closure the paper's extended-transaction counting uses at mine
    /// time.
    ///
    /// Out-of-range ids are passed through unexpanded (no ancestors are
    /// known for them); callers that need strict validation check ids
    /// against [`Taxonomy::len`] first.
    pub fn expand_with_ancestors<I: IntoIterator<Item = ItemId>>(&self, items: I) -> Vec<ItemId> {
        let mut out: Vec<ItemId> = Vec::new();
        for item in items {
            out.push(item);
            if item.index() < self.len() {
                out.extend(self.ancestors(item));
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    /// A stable 64-bit digest of the taxonomy's structure: every name and
    /// parent edge, in id order (FNV-1a). Two taxonomies share a digest
    /// exactly when they assign the same names the same ids under the
    /// same hierarchy, so artifacts that bake in item ids (rule-set
    /// snapshots, checkpoints) can detect being replayed against a
    /// different hierarchy.
    ///
    /// Computed once, when the taxonomy is built: snapshot loads and hot
    /// swaps check it on every call.
    pub fn digest(&self) -> u64 {
        self.digest
    }
}

/// The FNV-1a digest behind [`Taxonomy::digest`].
pub(crate) fn structural_digest(names: &[Box<str>], parent: &[Option<ItemId>]) -> u64 {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = FNV_OFFSET;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(FNV_PRIME);
        }
    };
    eat(&(names.len() as u64).to_le_bytes());
    for (name, parent) in names.iter().zip(parent) {
        eat(name.as_bytes());
        // 0xFF cannot appear in UTF-8, so it unambiguously ends the
        // name before the fixed-width parent id.
        eat(&[0xFF]);
        let parent = parent.map_or(u32::MAX, |p| p.0);
        eat(&parent.to_le_bytes());
    }
    h
}

/// Iterator over proper ancestors, nearest first. See [`Taxonomy::ancestors`].
pub struct Ancestors<'a> {
    tax: &'a Taxonomy,
    cur: Option<ItemId>,
}

impl Iterator for Ancestors<'_> {
    type Item = ItemId;

    fn next(&mut self) -> Option<ItemId> {
        let cur = self.cur?;
        self.cur = self.tax.parent(cur);
        Some(cur)
    }
}

/// Iterator over the leaves of a subtree. See [`Taxonomy::leaves_under`].
pub struct LeavesUnder<'a> {
    tax: &'a Taxonomy,
    stack: Vec<ItemId>,
}

impl Iterator for LeavesUnder<'_> {
    type Item = ItemId;

    fn next(&mut self) -> Option<ItemId> {
        while let Some(id) = self.stack.pop() {
            let kids = self.tax.children(id);
            if kids.is_empty() {
                return Some(id);
            }
            self.stack.extend(kids.iter().rev());
        }
        None
    }
}

/// Iterator over a whole subtree, depth-first. See [`Taxonomy::subtree`].
pub struct Subtree<'a> {
    tax: &'a Taxonomy,
    stack: Vec<ItemId>,
}

impl Iterator for Subtree<'_> {
    type Item = ItemId;

    fn next(&mut self) -> Option<ItemId> {
        let id = self.stack.pop()?;
        self.stack.extend(self.tax.children(id).iter().rev());
        Some(id)
    }
}

#[cfg(test)]
mod tests {
    use crate::TaxonomyBuilder;

    /// The taxonomy of the paper's Figure 2:
    ///
    /// beverages -> { bottled water -> {Evian, Perrier}, bottled juices }
    /// desserts  -> { frozen yogurt -> {Bryers, Healthy Choice}, ice creams }
    fn paper_fig2() -> (crate::Taxonomy, Vec<crate::ItemId>) {
        let mut b = TaxonomyBuilder::new();
        let bev = b.add_root("beverages");
        let water = b.add_child(bev, "bottled water").unwrap();
        let evian = b.add_child(water, "Evian").unwrap();
        let perrier = b.add_child(water, "Perrier").unwrap();
        let juice = b.add_child(bev, "bottled juices").unwrap();
        let des = b.add_root("desserts");
        let yog = b.add_child(des, "frozen yogurt").unwrap();
        let bryers = b.add_child(yog, "Bryers").unwrap();
        let hc = b.add_child(yog, "Healthy Choice").unwrap();
        let ice = b.add_child(des, "ice creams").unwrap();
        (
            b.build(),
            vec![bev, water, evian, perrier, juice, des, yog, bryers, hc, ice],
        )
    }

    #[test]
    fn structure_queries() {
        let (t, ids) = paper_fig2();
        let [bev, water, evian, perrier, juice, des, yog, bryers, hc, ice]: [_; 10] =
            ids.try_into().unwrap();

        assert_eq!(t.len(), 10);
        assert_eq!(t.roots(), &[bev, des]);
        assert_eq!(t.num_leaves(), 6);
        assert_eq!(t.num_categories(), 4);
        assert_eq!(t.parent(evian), Some(water));
        assert_eq!(t.parent(bev), None);
        assert_eq!(t.children(water), &[evian, perrier]);
        assert!(t.is_leaf(juice));
        assert!(!t.is_leaf(yog));
        assert_eq!(t.depth(bev), 0);
        assert_eq!(t.depth(water), 1);
        assert_eq!(t.depth(perrier), 2);
        assert_eq!(t.max_depth(), 2);
        assert_eq!(t.name(hc), "Healthy Choice");
        assert_eq!(t.id_of("ice creams"), Some(ice));
        assert_eq!(t.id_of("nonexistent"), None);
        assert_eq!(t.leaves().count(), 6);
        assert_eq!(t.categories().count(), 4);
        let _ = bryers;
    }

    #[test]
    fn expand_with_ancestors_closes_sorts_and_dedups() {
        let (t, ids) = paper_fig2();
        let [bev, water, evian, perrier, _juice, _des, yog, bryers, _hc, _ice]: [_; 10] =
            ids.clone().try_into().unwrap();
        // Two leaves under different roots, given out of order, with a
        // duplicate: expansion is the sorted union of each ancestor chain.
        let got = t.expand_with_ancestors([bryers, evian, evian]);
        let mut want = vec![bryers, evian, water, bev, yog, ids[5]];
        want.sort_unstable();
        assert_eq!(got, want);
        // A category expands to itself plus its own ancestors only.
        assert_eq!(t.expand_with_ancestors([water]), vec![bev, water]);
        // Empty in, empty out; out-of-range ids pass through unexpanded.
        assert_eq!(t.expand_with_ancestors([]), Vec::<crate::ItemId>::new());
        let stray = crate::ItemId(999);
        assert_eq!(t.expand_with_ancestors([stray]), vec![stray]);
        let _ = perrier;
    }

    #[test]
    fn digest_is_stable_and_structure_sensitive() {
        let (a, _) = paper_fig2();
        let (b, _) = paper_fig2();
        // Same structure, same digest — across independent builds.
        assert_eq!(a.digest(), b.digest());
        // Renaming one item moves the digest.
        let mut renamed = TaxonomyBuilder::new();
        let bev = renamed.add_root("beverages");
        renamed.add_child(bev, "bottled WATER").unwrap();
        let mut same_names = TaxonomyBuilder::new();
        let bev2 = same_names.add_root("beverages");
        same_names.add_child(bev2, "bottled water").unwrap();
        let same_names = same_names.build();
        assert_ne!(renamed.build().digest(), same_names.digest());
        // Same names under a different hierarchy also move the digest.
        let mut flat = TaxonomyBuilder::new();
        flat.add_root("beverages");
        flat.add_root("bottled water");
        assert_ne!(flat.build().digest(), same_names.digest());
    }

    #[test]
    fn sibling_queries() {
        let (t, ids) = paper_fig2();
        let (water, evian, perrier, juice) = (ids[1], ids[2], ids[3], ids[4]);
        assert_eq!(t.siblings(evian).collect::<Vec<_>>(), vec![perrier]);
        assert_eq!(t.siblings(water).collect::<Vec<_>>(), vec![juice]);
        // Roots have no siblings by design.
        assert_eq!(t.siblings(ids[0]).count(), 0);
    }

    #[test]
    fn ancestor_queries() {
        let (t, ids) = paper_fig2();
        let (bev, water, evian) = (ids[0], ids[1], ids[2]);
        let (des, bryers) = (ids[5], ids[7]);

        assert_eq!(t.ancestors(evian).collect::<Vec<_>>(), vec![water, bev]);
        assert_eq!(t.ancestors(bev).count(), 0);
        assert!(t.is_ancestor(bev, evian));
        assert!(t.is_ancestor(water, evian));
        assert!(!t.is_ancestor(evian, water));
        assert!(!t.is_ancestor(des, evian));
        assert!(!t.is_ancestor(evian, evian));
        assert!(t.related(bev, evian));
        assert!(t.related(evian, bev));
        assert!(!t.related(evian, bryers));
    }

    #[test]
    fn subtree_and_leaves_under() {
        let (t, ids) = paper_fig2();
        let (bev, water, evian, perrier, juice) = (ids[0], ids[1], ids[2], ids[3], ids[4]);

        assert_eq!(
            t.leaves_under(bev).collect::<Vec<_>>(),
            vec![evian, perrier, juice]
        );
        assert_eq!(t.leaves_under(evian).collect::<Vec<_>>(), vec![evian]);
        assert_eq!(
            t.subtree(water).collect::<Vec<_>>(),
            vec![water, evian, perrier]
        );
    }

    #[test]
    fn empty_taxonomy() {
        let t = TaxonomyBuilder::new().build();
        assert!(t.is_empty());
        assert_eq!(t.len(), 0);
        assert_eq!(t.max_depth(), 0);
        assert_eq!(t.roots().len(), 0);
    }
}
