use crate::fxhash::FxHashMap;
use crate::taxonomy::structural_digest;
use crate::{ItemId, Taxonomy};
use std::fmt;

/// Errors reported by [`TaxonomyBuilder`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuilderError {
    /// The referenced parent id has not been created by this builder.
    UnknownParent(ItemId),
    /// An item with this name already exists (names must be unique so that
    /// serialized taxonomies and CLI lookups are unambiguous).
    DuplicateName(String),
}

impl fmt::Display for BuilderError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuilderError::UnknownParent(id) => write!(f, "unknown parent item id {id}"),
            BuilderError::DuplicateName(n) => write!(f, "duplicate item name {n:?}"),
        }
    }
}

impl std::error::Error for BuilderError {}

/// Incremental, validated construction of a [`Taxonomy`].
///
/// Items receive dense ids in insertion order. Because a child's parent must
/// already exist, cycles are impossible by construction and each item has
/// exactly one parent — the structure is always a forest.
#[derive(Default, Debug)]
pub struct TaxonomyBuilder {
    names: Vec<Box<str>>,
    parent: Vec<Option<ItemId>>,
    children: Vec<Vec<ItemId>>,
    roots: Vec<ItemId>,
    depth: Vec<u32>,
    by_name: FxHashMap<Box<str>, ItemId>,
}

impl TaxonomyBuilder {
    /// A builder with no items.
    pub fn new() -> Self {
        Self::default()
    }

    /// A builder pre-sized for `n` items.
    pub fn with_capacity(n: usize) -> Self {
        Self {
            names: Vec::with_capacity(n),
            parent: Vec::with_capacity(n),
            children: Vec::with_capacity(n),
            roots: Vec::new(),
            depth: Vec::with_capacity(n),
            by_name: FxHashMap::default(),
        }
    }

    /// Number of items added so far.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// `true` when no items have been added.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    fn push(&mut self, name: &str, parent: Option<ItemId>) -> Result<ItemId, BuilderError> {
        if self.by_name.contains_key(name) {
            return Err(BuilderError::DuplicateName(name.to_owned()));
        }
        if let Some(p) = parent {
            if p.index() >= self.names.len() {
                return Err(BuilderError::UnknownParent(p));
            }
        }
        let id = ItemId(self.names.len() as u32);
        let boxed: Box<str> = name.into();
        self.by_name.insert(boxed.clone(), id);
        self.names.push(boxed);
        self.parent.push(parent);
        self.children.push(Vec::new());
        match parent {
            Some(p) => {
                self.children[p.index()].push(id);
                let d = self.depth[p.index()] + 1;
                self.depth.push(d);
            }
            None => {
                self.roots.push(id);
                self.depth.push(0);
            }
        }
        Ok(id)
    }

    /// Add a root item (a top-level category or a flat item).
    ///
    /// # Panics
    /// Panics if the name is already taken; use [`Self::try_add_root`] to
    /// handle that case.
    pub fn add_root(&mut self, name: &str) -> ItemId {
        // negassoc-lint: allow(L001) -- documented panicking convenience; try_add_root is the fallible twin
        self.try_add_root(name).expect("duplicate root name")
    }

    /// Fallible version of [`Self::add_root`].
    pub fn try_add_root(&mut self, name: &str) -> Result<ItemId, BuilderError> {
        self.push(name, None)
    }

    /// Add `name` as a child of `parent`.
    pub fn add_child(&mut self, parent: ItemId, name: &str) -> Result<ItemId, BuilderError> {
        self.push(name, Some(parent))
    }

    /// Look up an already-added item by name.
    pub fn id_of(&self, name: &str) -> Option<ItemId> {
        self.by_name.get(name).copied()
    }

    /// Finish building.
    pub fn build(self) -> Taxonomy {
        let num_leaves = self.children.iter().filter(|c| c.is_empty()).count();
        let digest = structural_digest(&self.names, &self.parent);
        Taxonomy {
            names: self.names,
            parent: self.parent,
            children: self.children,
            roots: self.roots,
            depth: self.depth,
            by_name: self.by_name,
            num_leaves,
            digest,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_duplicate_names() {
        let mut b = TaxonomyBuilder::new();
        b.add_root("a");
        assert_eq!(
            b.try_add_root("a"),
            Err(BuilderError::DuplicateName("a".into()))
        );
        let r = b.add_root("b");
        assert_eq!(
            b.add_child(r, "a"),
            Err(BuilderError::DuplicateName("a".into()))
        );
    }

    #[test]
    fn rejects_unknown_parent() {
        let mut b = TaxonomyBuilder::new();
        assert_eq!(
            b.add_child(ItemId(5), "x"),
            Err(BuilderError::UnknownParent(ItemId(5)))
        );
    }

    #[test]
    fn ids_are_dense_in_insertion_order() {
        let mut b = TaxonomyBuilder::with_capacity(3);
        let a = b.add_root("a");
        let c = b.add_child(a, "c").unwrap();
        let d = b.add_child(c, "d").unwrap();
        assert_eq!((a, c, d), (ItemId(0), ItemId(1), ItemId(2)));
        assert_eq!(b.len(), 3);
        assert!(!b.is_empty());
        let t = b.build();
        assert_eq!(t.depth(d), 2);
    }

    #[test]
    fn error_display_is_informative() {
        let e = BuilderError::UnknownParent(ItemId(9));
        assert!(e.to_string().contains('9'));
        let e = BuilderError::DuplicateName("milk".into());
        assert!(e.to_string().contains("milk"));
    }
}
