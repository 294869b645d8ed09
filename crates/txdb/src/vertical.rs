//! Vertical (TID-bitmap) representations of a transaction database.
//!
//! [`TidBitmap`] holds one bitset of `u64` words per item row; the support
//! of an itemset is a word-wise AND + popcount over its members' rows.
//! Category rows are the OR-union of their descendants' rows, computed
//! **once** at build time, so *generalized* supports fall out of the same
//! AND. [`BitmapChunk`] is the partitionable building block the parallel
//! counting layer uses: each worker owns chunks covering only the
//! transaction blocks it was dealt, so per-worker partial popcounts merge
//! by plain addition (Savasere et al.'s partition invariant, bit-level).

use crate::scan::TransactionSource;
use negassoc_taxonomy::{ItemId, Taxonomy};
use std::io;

/// A rectangular slab of presence bits: `rows` bit-rows over a window of
/// at most `capacity` transactions, packed into `u64` words row-major.
///
/// This is the unit of per-worker bitmap partitioning: a worker allocates
/// one chunk per transaction block it is dealt (bit offsets are *local*
/// to the block), sets a bit per `(row, transaction)` occurrence, and
/// later answers "how many transactions in this window contain all of
/// these rows" by AND-ing the rows word-wise and popcounting. Chunks from
/// different blocks cover disjoint transactions, so per-chunk counts sum
/// to the whole-pass support — the merge is plain `u64` addition, in any
/// order.
#[derive(Clone, Debug)]
pub struct BitmapChunk {
    bits: Vec<u64>,
    words: usize,
    rows: usize,
}

impl BitmapChunk {
    /// A zeroed chunk of `rows` bit-rows spanning `capacity` transactions.
    pub fn new(rows: usize, capacity: usize) -> Self {
        let words = capacity.div_ceil(64);
        Self {
            bits: vec![0u64; rows * words],
            words,
            rows,
        }
    }

    /// Words per row (the AND loop's trip count).
    #[inline]
    pub fn words_per_row(&self) -> usize {
        self.words
    }

    /// Total `u64` words the chunk holds.
    #[inline]
    pub fn total_words(&self) -> u64 {
        self.bits.len() as u64
    }

    /// Set the presence bit for `row` at local transaction `offset`.
    /// Re-setting a bit is idempotent (a taxonomy mapper can surface the
    /// same category twice per transaction).
    ///
    /// # Panics
    /// Panics when `row` or `offset` is out of bounds.
    #[inline]
    pub fn set(&mut self, row: u32, offset: usize) {
        assert!(offset / 64 < self.words, "offset beyond chunk capacity");
        self.bits[row as usize * self.words + offset / 64] |= 1u64 << (offset % 64);
    }

    /// Transactions in this chunk's window containing *all* of `rows`
    /// (word-wise AND + popcount). An empty `rows` slice counts nothing:
    /// the empty itemset is the caller's special case, not the chunk's.
    pub fn count(&self, rows: &[u32]) -> u64 {
        let Some((&first, rest)) = rows.split_first() else {
            return 0;
        };
        let first = first as usize * self.words;
        let mut ones = 0u64;
        for w in 0..self.words {
            let mut acc = self.bits[first + w];
            for &r in rest {
                if acc == 0 {
                    break;
                }
                acc &= self.bits[r as usize * self.words + w];
            }
            ones += u64::from(acc.count_ones());
        }
        ones
    }

    /// One row's bits OR-ed into another (`dst |= src`), the building move
    /// of category-row unions.
    ///
    /// # Panics
    /// Panics when either row is out of bounds.
    pub fn or_row_into(&mut self, src: u32, dst: u32) {
        assert!(
            (src as usize) < self.rows && (dst as usize) < self.rows,
            "row out of bounds"
        );
        if src == dst {
            return;
        }
        let s = src as usize * self.words;
        let d = dst as usize * self.words;
        for w in 0..self.words {
            self.bits[d + w] |= self.bits[s + w];
        }
    }
}

/// A whole-database vertical bitmap index: one bit-row per item slot,
/// supports by AND + popcount.
///
/// With a taxonomy, every category row is the OR-union of its descendants'
/// rows, computed once after the single build pass instead of extending
/// every transaction with its ancestors.
///
/// ```
/// use negassoc_txdb::{vertical::TidBitmap, TransactionDbBuilder};
/// use negassoc_taxonomy::ItemId;
///
/// let mut b = TransactionDbBuilder::new();
/// b.add([ItemId(1), ItemId(2)]);
/// b.add([ItemId(2)]);
/// let idx = TidBitmap::build(&b.build()).unwrap();
/// assert_eq!(idx.support(&[ItemId(2)]), 2);
/// assert_eq!(idx.support(&[ItemId(1), ItemId(2)]), 1);
/// ```
#[derive(Clone, Debug)]
pub struct TidBitmap {
    chunk: BitmapChunk,
    num_transactions: u64,
}

impl TidBitmap {
    /// Build over the *literal* items of `source` (no taxonomy). One pass.
    pub fn build<S: TransactionSource + ?Sized>(source: &S) -> io::Result<Self> {
        Self::build_inner(source, None)
    }

    /// Build with category rows filled in: after the literal pass, each
    /// item's row is OR-ed into every ancestor's row exactly once, so any
    /// generalized support is a plain AND from then on. One pass.
    pub fn build_generalized<S: TransactionSource + ?Sized>(
        source: &S,
        taxonomy: &Taxonomy,
    ) -> io::Result<Self> {
        Self::build_inner(source, Some(taxonomy))
    }

    fn build_inner<S: TransactionSource + ?Sized>(
        source: &S,
        taxonomy: Option<&Taxonomy>,
    ) -> io::Result<Self> {
        let total = source.count_transactions()?;
        if total > u64::from(u32::MAX) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "TID-bitmap index supports at most u32::MAX transactions",
            ));
        }
        // Row space: every item the taxonomy names, or (flat) every item
        // the data mentions — discovered by growing on the fly below.
        let mut rows = taxonomy.map_or(0, Taxonomy::len);
        let mut chunk = BitmapChunk::new(rows, total as usize);
        let mut pos: usize = 0;
        source.pass(&mut |t| {
            for &item in t.items() {
                let idx = item.index();
                if idx >= rows {
                    chunk = grow_rows(&chunk, idx + 1);
                    rows = idx + 1;
                }
                chunk.set(idx as u32, pos);
            }
            pos += 1;
        })?;
        if let Some(tax) = taxonomy {
            // Category rows: each item ORs its *literal* row into every
            // ancestor, once. Sources must stay literal — a category row
            // is both a union target and, when categories appear
            // literally in the data, a source — so read from a snapshot.
            let literal = chunk.clone();
            for raw in 0..rows as u32 {
                for anc in tax.ancestors(ItemId(raw)) {
                    merge_literal_row(&mut chunk, &literal, raw, anc.index() as u32);
                }
            }
        }
        Ok(Self {
            chunk,
            num_transactions: total,
        })
    }

    /// Number of transactions indexed.
    #[inline]
    pub fn num_transactions(&self) -> u64 {
        self.num_transactions
    }

    /// One past the largest item id with a bit-row.
    #[inline]
    pub fn max_item_bound(&self) -> u32 {
        self.chunk.rows as u32
    }

    /// Total `u64` words the index holds.
    #[inline]
    pub fn total_words(&self) -> u64 {
        self.chunk.total_words()
    }

    /// Support (absolute count) of a single item.
    #[inline]
    pub fn support_1(&self, item: ItemId) -> u64 {
        if item.index() >= self.chunk.rows {
            return 0;
        }
        self.chunk.count(&[item.0])
    }

    /// Support (absolute count) of an itemset by AND + popcount. The
    /// empty itemset is in every transaction; unseen items have empty
    /// rows.
    pub fn support(&self, itemset: &[ItemId]) -> u64 {
        if itemset.is_empty() {
            return self.num_transactions;
        }
        if itemset.iter().any(|i| i.index() >= self.chunk.rows) {
            return 0;
        }
        let rows: Vec<u32> = itemset.iter().map(|i| i.0).collect();
        self.chunk.count(&rows)
    }
}

/// A copy of `chunk` widened to `rows` bit-rows (existing rows keep their
/// bits; new rows are zero).
fn grow_rows(chunk: &BitmapChunk, rows: usize) -> BitmapChunk {
    let mut wider = BitmapChunk::new(rows, chunk.words * 64);
    let copy = chunk.bits.len().min(wider.bits.len());
    wider.bits[..copy].copy_from_slice(&chunk.bits[..copy]);
    wider
}

/// `chunk.row(dst) |= literal.row(src)` — the category-union step, reading
/// from the immutable literal snapshot.
fn merge_literal_row(chunk: &mut BitmapChunk, literal: &BitmapChunk, src: u32, dst: u32) {
    let s = src as usize * literal.words;
    let d = dst as usize * chunk.words;
    for w in 0..chunk.words {
        chunk.bits[d + w] |= literal.bits[s + w];
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TransactionDbBuilder;
    use negassoc_taxonomy::TaxonomyBuilder;

    fn ids(v: &[u32]) -> Vec<ItemId> {
        v.iter().map(|&i| ItemId(i)).collect()
    }

    #[test]
    fn flat_supports() {
        let mut b = TransactionDbBuilder::new();
        b.add(ids(&[0, 1]));
        b.add(ids(&[1, 2]));
        b.add(ids(&[0, 1, 2]));
        let idx = TidBitmap::build(&b.build()).unwrap();

        assert_eq!(idx.num_transactions(), 3);
        assert_eq!(idx.max_item_bound(), 3);
        assert_eq!(idx.support_1(ItemId(1)), 3);
        assert_eq!(idx.support_1(ItemId(2)), 2);
        assert_eq!(idx.support(&ids(&[0, 1])), 2);
        assert_eq!(idx.support(&ids(&[0, 2])), 1);
        assert_eq!(idx.support(&ids(&[0, 1, 2])), 1);
        assert_eq!(idx.support(&[]), 3);
        assert_eq!(idx.support(&ids(&[7])), 0);
        assert_eq!(idx.support_1(ItemId(7)), 0);
    }

    #[test]
    fn generalized_supports_count_categories() {
        // cat0 -> {leaf1, leaf2}; transactions use only leaves.
        let mut tb = TaxonomyBuilder::new();
        let cat = tb.add_root("cat");
        let l1 = tb.add_child(cat, "l1").unwrap();
        let l2 = tb.add_child(cat, "l2").unwrap();
        let tax = tb.build();

        let mut b = TransactionDbBuilder::new();
        b.add([l1]);
        b.add([l2]);
        b.add([l1, l2]);
        let db = b.build();
        let idx = TidBitmap::build_generalized(&db, &tax).unwrap();

        // Category appears in all three transactions, but only once each
        // even when both children are present.
        assert_eq!(idx.support_1(cat), 3);
        assert_eq!(idx.support(&[cat, l1]), 2);
        assert_eq!(idx.support_1(l1), 2);
        // The literal build knows nothing of the category.
        let flat = TidBitmap::build(&db).unwrap();
        assert_eq!(flat.support_1(cat), 0);
    }

    #[test]
    fn empty_database() {
        let db = TransactionDbBuilder::new().build();
        let idx = TidBitmap::build(&db).unwrap();
        assert_eq!(idx.num_transactions(), 0);
        assert_eq!(idx.support(&ids(&[0])), 0);
        assert_eq!(idx.support(&[]), 0);
        assert_eq!(idx.total_words(), 0);
    }
}
