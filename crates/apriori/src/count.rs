//! Support-counting backends.
//!
//! Every pass-based miner in this workspace counts through
//! [`crate::parallel::count_mixed_parallel`] (candidates of any sizes in a
//! single pass, with the worker pool its [`Parallelism`] selects). The
//! caller's [`Extension`] names how generalized mining extends each
//! transaction with taxonomy ancestors — counting itself is agnostic.
//!
//! Backends:
//!
//! * [`CountingBackend::TidBitmap`] (default) — vertical counting: the
//!   pass builds one packed bitset row per item the candidates mention,
//!   then every candidate is counted by word-wise AND + popcount (see
//!   [`negassoc_txdb::vertical`]; DESIGN.md §14). Pairs go to a
//!   triangular pair matrix instead: level 2 always, through
//!   [`crate::parallel::count_pairs`], which holds its candidates as
//!   [`PairCandidates`] (the large items and their count, no list) and
//!   reads the large pairs off the cells; an explicit pair list (an
//!   EstMerge batch, a `--max-size 2` negative set) when its pairs fill
//!   at least half of the triangle over their items. One `PairWorker`
//!   serves both.
//!   Transactions reach their rows through one dense `RowMap` built per
//!   pass: an item's own row plus the rows of its ancestors that some
//!   candidate mentions. That table *is* Cumulate's "add only the needed
//!   ancestors" optimization, as an array lookup instead of a hash-set
//!   filter. The AND kernel runs chunk-outer and shares the AND of each
//!   (k−1)-prefix among the candidates that extend it (Eclat's
//!   prefix-class intersection),
//! * [`CountingBackend::SubsetHashMap`] — a hash map keyed by candidate,
//!   probed either by enumerating the transaction's k-subsets or by testing
//!   each candidate, whichever is cheaper per transaction. Transactions are
//!   extended by its own [`AncestorTable`] walk, sharing no code with the
//!   row map. Small and obviously correct: the reference the bitmap path
//!   is diffed against.
//!
//! Both backends produce identical counts for identical inputs; the choice
//! only moves wall time and memory.
//!
//! [`AncestorTable`]: crate::generalized::AncestorTable
//! [`Parallelism`]: crate::parallel::Parallelism

use crate::itemset::Itemset;
use crate::parallel::Extension;
use negassoc_taxonomy::fxhash::FxHashMap;
use negassoc_taxonomy::ItemId;
use negassoc_txdb::block::DEFAULT_BLOCK_SIZE;
use negassoc_txdb::obs::{metric, Event, Obs};
use negassoc_txdb::vertical::{and_assign, and_count, BitmapChunk};
use std::io;

/// Pass-based counting strategy.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum CountingBackend {
    /// Candidate hash map with adaptive probing.
    SubsetHashMap,
    /// Vertical TID-bitmap counting: AND + popcount over per-item bitsets
    /// built during the pass.
    #[default]
    TidBitmap,
}

/// Marks an item no candidate mentions in [`BitmapPlan::new`]'s dense
/// item → row table.
const NO_ROW: u32 = u32::MAX;

/// The bitmap backend's per-pass transaction mapping: for every item id,
/// the rows a transaction holding it sets — the item's own row when a
/// candidate mentions it, then the row of each ancestor a candidate
/// mentions. Stored as one CSR list over a dense id range, so mapping a
/// transaction is a slice copy per item, with no hashing.
///
/// The range covers every item of the taxonomy, not only the largest id a
/// candidate mentions: a leaf no candidate names still carries its planned
/// ancestors. Items outside the range (ids beyond the taxonomy and every
/// candidate) map to nothing.
pub(crate) struct RowMap {
    /// `reach[starts[i]..starts[i + 1]]` are item `i`'s rows.
    starts: Vec<usize>,
    reach: Vec<u32>,
}

impl RowMap {
    /// The map for the dense table `row_of` (item id → row or [`NO_ROW`]),
    /// extended with planned ancestors when `extension` names a taxonomy.
    fn new(row_of: &[u32], extension: Extension<'_>) -> Self {
        let ancestors = extension.ancestors();
        let mut starts = Vec::with_capacity(row_of.len() + 1);
        let mut reach = Vec::new();
        starts.push(0);
        for (i, &row) in row_of.iter().enumerate() {
            if row != NO_ROW {
                reach.push(row);
            }
            for anc in ancestors.map_or(&[][..], |a| a.ancestors(ItemId(i as u32))) {
                match row_of.get(anc.index()) {
                    Some(&r) if r != NO_ROW => reach.push(r),
                    _ => {}
                }
            }
            starts.push(reach.len());
        }
        Self { starts, reach }
    }

    /// The rows a transaction holding `item` sets (unordered; an item and
    /// its ancestors never share a row, but two items of one transaction
    /// can share an ancestor's).
    #[inline]
    pub(crate) fn rows(&self, item: ItemId) -> &[u32] {
        match self.starts.get(item.index()..item.index() + 2) {
            Some(&[lo, hi]) => &self.reach[lo..hi],
            _ => &[],
        }
    }
}

/// The bitmap backend's pass-independent setup, shared by every worker of
/// the pool in [`crate::parallel`]: a dense row per item the candidates
/// mention (categories included — a category row is the union of its
/// descendants' occurrences, because the [`RowMap`] sends every
/// descendant to it), the row map, each candidate pre-resolved to its
/// rows, and the counting layout the candidate shape selects.
pub(crate) struct BitmapPlan {
    /// Transaction item → rows.
    pub(crate) map: RowMap,
    /// Every candidate's rows, concatenated in input order (one flat
    /// buffer: a plan can hold hundreds of thousands of candidates).
    cand_rows: Vec<u32>,
    /// Where each candidate's rows end in `cand_rows`.
    cand_ends: Vec<usize>,
    /// Number of rows (distinct items mentioned).
    rows: usize,
    /// Count in a triangular pair matrix instead of AND + popcount: set
    /// when every candidate is a pair and the candidates fill at least
    /// half of the triangle over their rows (an EstMerge level-2 batch, a
    /// dense negative pair set).
    pairs: bool,
    /// The AND kernel's candidate order (empty in the pair layout).
    groups: PrefixGroups,
}

impl BitmapPlan {
    pub(crate) fn new(candidates: &[Itemset], extension: Extension<'_>) -> Self {
        // The dense table spans every candidate item and, under a
        // taxonomy, every item of it. Rows are assigned in ascending item
        // order, which keeps numbering independent of candidate order.
        let bound = candidates
            .iter()
            .filter_map(|c| c.items().last())
            .map(|i| i.index() + 1)
            .max()
            .unwrap_or(0)
            .max(extension.ancestors().map_or(0, |a| a.len()));
        let mut row_of = vec![NO_ROW; bound];
        for c in candidates {
            for i in c.items() {
                row_of[i.index()] = 0;
            }
        }
        let mut rows = 0u32;
        for r in row_of.iter_mut().filter(|r| **r != NO_ROW) {
            *r = rows;
            rows += 1;
        }
        let mut cand_rows = Vec::with_capacity(candidates.iter().map(Itemset::len).sum());
        let cand_ends: Vec<usize> = candidates
            .iter()
            .map(|c| {
                cand_rows.extend(c.items().iter().map(|i| row_of[i.index()]));
                cand_rows.len()
            })
            .collect();
        let rows = rows as usize;
        let pairs = candidates.iter().all(|c| c.len() == 2)
            && 2 * candidates.len() as u64 >= triangle(rows) as u64;
        let groups = if pairs {
            PrefixGroups::default()
        } else {
            PrefixGroups::new(&cand_rows, &cand_ends)
        };
        Self {
            map: RowMap::new(&row_of, extension),
            cand_rows,
            cand_ends,
            rows,
            pairs,
            groups,
        }
    }

    /// A fresh counting unit in the layout this plan selected.
    pub(crate) fn worker(&self) -> VerticalWorker {
        if self.pairs {
            VerticalWorker::Pairs(PairWorker::new(self.rows))
        } else {
            VerticalWorker::Bits(BitmapWorker::new(self.rows))
        }
    }

    /// One worker's per-candidate partial counts (input order) and the
    /// work behind them.
    pub(crate) fn tally(&self, worker: VerticalWorker) -> Tally {
        match worker {
            VerticalWorker::Bits(w) => {
                let (partials, work) = self.groups.count(&w.chunks, self.cand_ends.len());
                Tally {
                    partials,
                    built: w.words_built(),
                    work,
                }
            }
            VerticalWorker::Pairs(w) => Tally {
                partials: self
                    .cand_rows
                    .chunks_exact(2)
                    .map(|ab| w.count(ab[0], ab[1]))
                    .collect(),
                built: w.cells.len() as u64,
                work: w.increments,
            },
        }
    }

    /// Merge the workers' tallies from a pass over `transactions`
    /// transactions into exact per-candidate supports (input order) by
    /// element-wise `u64` addition — order-invariant, like a
    /// [`negassoc_txdb::obs::MetricsShard`] absorb — and report the pass's
    /// build and count work to `obs`.
    ///
    /// # Errors
    /// A pair-matrix pass over more than `u32::MAX` transactions returns
    /// [`io::ErrorKind::InvalidData`]: its `u32` cells may have wrapped, so
    /// no count from it is trusted.
    pub(crate) fn merge(
        &self,
        tallies: impl IntoIterator<Item = Tally>,
        transactions: u64,
        obs: &Obs,
    ) -> io::Result<Vec<u64>> {
        let mut totals = vec![0u64; self.cand_ends.len()];
        let (mut built, mut work) = (0u64, 0u64);
        for t in tallies {
            for (total, p) in totals.iter_mut().zip(t.partials) {
                *total += p;
            }
            built += t.built;
            work += t.work;
        }
        if self.pairs {
            check_cell_limit(transactions)?;
        }
        let ones: u64 = totals.iter().sum();
        let work = Work {
            rows: self.rows,
            built,
            candidates: totals.len(),
            counted: work,
            ones,
        };
        work.report(self.pairs, obs);
        Ok(totals)
    }
}

/// What one bitmap-backend pass built and counted, as its
/// `backend_build` / `backend_count` events and the `bitmap.*` metrics
/// report it.
struct Work {
    /// Rows (distinct items the candidates mention).
    rows: usize,
    /// Structures built: `u64` words (bitmap) or `u32` cells (pairs),
    /// summed over workers.
    built: u64,
    candidates: usize,
    /// Counting work: words ANDed (bitmap) or cell increments (pairs).
    counted: u64,
    /// The candidates' supports, summed.
    ones: u64,
}

impl Work {
    fn report(&self, pairs: bool, obs: &Obs) {
        let backend = if pairs { "pairs" } else { "bitmap" };
        obs.emit(|| Event::BackendBuild {
            backend: backend.to_string(),
            items: self.rows,
            words: self.built,
        });
        obs.emit(|| Event::BackendCount {
            backend: backend.to_string(),
            candidates: self.candidates,
            words: self.counted,
            ones: self.ones,
        });
        if pairs {
            obs.bump(metric::BITMAP_PAIR_INCREMENTS, self.counted);
        } else {
            obs.bump(metric::BITMAP_WORDS_BUILT, self.built);
            obs.bump(metric::BITMAP_WORDS_ANDED, self.counted);
        }
        obs.bump(metric::BITMAP_ONES, self.ones);
    }
}

/// Level 2's candidates without a candidate list: every pair of the large
/// items minus the item–ancestor pairs (Srikant & Agrawal's L2 prune),
/// counted straight into the pair triangle by
/// [`crate::parallel::count_pairs`].
///
/// The pairs that would be listed — `prune_ancestor_pairs(pairs_of(L1))` —
/// are exactly the unrelated cells of the triangle over the large items
/// that occur in at least one of them, so the pass builds the same rows,
/// the same `RowMap` and the same cells as `BitmapPlan` would for the
/// list, and reads the large pairs off the cells in the list's order.
pub struct PairCandidates<'a> {
    /// The large items in some unrelated pair, ascending: item `items[r]`
    /// owns row `r`.
    items: Vec<ItemId>,
    /// Item id → row, or [`NO_ROW`].
    row_of: Vec<u32>,
    extension: Extension<'a>,
    /// How many pairs the list would hold.
    len: usize,
}

impl<'a> PairCandidates<'a> {
    /// The level-2 candidates over the large items `large` (any order;
    /// duplicates ignored). Pairs related under `extension`'s ancestor
    /// table are no candidates; [`Extension::Literal`] relates none.
    pub fn new(large: &[ItemId], extension: Extension<'a>) -> Self {
        let mut large = large.to_vec();
        large.sort_unstable();
        large.dedup();
        let n = large.len();
        // The table spans every large item and, under a taxonomy, every
        // item of it, as in `BitmapPlan::new`.
        let bound = large
            .last()
            .map_or(0, |i| i.index() + 1)
            .max(extension.ancestors().map_or(0, |a| a.len()));
        let mut row_of = vec![NO_ROW; bound];
        for (x, i) in large.iter().enumerate() {
            row_of[i.index()] = x as u32;
        }
        // related[x]: the large items that are ancestors or descendants of
        // large[x]. Each related pair is met once, from its descendant.
        let mut related = vec![0usize; n];
        let mut related_pairs = 0;
        if let Some(anc) = extension.ancestors() {
            for (x, &i) in large.iter().enumerate() {
                for a in anc.ancestors(i) {
                    if let Some(&y) = row_of.get(a.index()).filter(|&&y| y != NO_ROW) {
                        related[x] += 1;
                        related[y as usize] += 1;
                        related_pairs += 1;
                    }
                }
            }
        }
        row_of.fill(NO_ROW);
        let items: Vec<ItemId> = large
            .iter()
            .zip(&related)
            .filter(|&(_, &r)| r + 1 < n)
            .map(|(&i, _)| i)
            .collect();
        for (r, i) in items.iter().enumerate() {
            row_of[i.index()] = r as u32;
        }
        Self {
            items,
            row_of,
            extension,
            len: triangle(n) - related_pairs,
        }
    }

    /// How many candidate pairs there are: `C(n, 2)` minus the related
    /// pairs among the `n` large items.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no pair of large items is a candidate.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The pass's transaction mapping.
    pub(crate) fn row_map(&self) -> RowMap {
        RowMap::new(&self.row_of, self.extension)
    }

    /// A fresh counting unit over this triangle.
    pub(crate) fn worker(&self) -> PairWorker {
        PairWorker::new(self.items.len())
    }

    /// `true` when one of `a`, `b` is an ancestor of the other.
    fn related(&self, a: ItemId, b: ItemId) -> bool {
        self.extension
            .ancestors()
            .is_some_and(|anc| anc.is_ancestor(a, b) || anc.is_ancestor(b, a))
    }

    /// Sum the workers' triangles from a pass over `transactions`
    /// transactions, report the pass's build and count work to `obs`, and
    /// return every candidate pair whose support reaches `minsup`, in
    /// `(x, y)` order — the order of the pair list. Only those pairs are
    /// allocated.
    ///
    /// # Errors
    /// More than `u32::MAX` transactions return
    /// [`io::ErrorKind::InvalidData`], as in [`BitmapPlan::merge`].
    pub(crate) fn large(
        &self,
        workers: Vec<PairWorker>,
        transactions: u64,
        minsup: u64,
        obs: &Obs,
    ) -> io::Result<Vec<(Itemset, u64)>> {
        check_cell_limit(transactions)?;
        let mut workers = workers.into_iter();
        let mut total = workers.next().unwrap_or_else(|| self.worker());
        let (mut built, mut counted) = (total.cells.len() as u64, total.increments);
        for w in workers {
            built += w.cells.len() as u64;
            counted += w.increments;
            // No cell sum exceeds `transactions`, checked above.
            for (t, c) in total.cells.iter_mut().zip(&w.cells) {
                *t += c;
            }
        }
        let rows = self.items.len();
        let mut large = Vec::new();
        let mut ones = 0u64;
        for (a, &x) in self.items.iter().enumerate() {
            let start = total.row_start(a);
            let cells = &total.cells[start..start + (rows - a - 1)];
            for (&n, &y) in cells.iter().zip(&self.items[a + 1..]) {
                let n = u64::from(n);
                ones += n;
                if n >= minsup && !self.related(x, y) {
                    large.push((Itemset::from_sorted([x, y]), n));
                }
            }
        }
        // `ones` counts candidates only: take the related cells back out.
        if let Some(anc) = self.extension.ancestors() {
            for (a, &x) in self.items.iter().enumerate() {
                for i in anc.ancestors(x) {
                    if let Some(&b) = self.row_of.get(i.index()).filter(|&&b| b != NO_ROW) {
                        let (a, b) = (a.min(b as usize), a.max(b as usize));
                        ones -= total.count(a as u32, b as u32);
                    }
                }
            }
        }
        let work = Work {
            rows,
            built,
            candidates: self.len,
            counted,
            ones,
        };
        work.report(true, obs);
        Ok(large)
    }
}

/// Cells of the strict upper triangle over `rows` rows: `C(rows, 2)`.
fn triangle(rows: usize) -> usize {
    rows * rows.saturating_sub(1) / 2
}

/// The pair matrix's `u32` cells hold exact counts only up to `u32::MAX`
/// transactions, the same bound [`negassoc_txdb::vertical::TidBitmap`]
/// enforces.
fn check_cell_limit(transactions: u64) -> io::Result<()> {
    if transactions > u64::from(u32::MAX) {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "pair-matrix counting supports at most u32::MAX transactions",
        ));
    }
    Ok(())
}

/// The AND kernel's schedule: the Bits layout's candidates sorted by
/// size and then lexicographically by row tuple, so candidates sharing a
/// (k−1)-prefix sit together in one group. Per chunk, a group's prefix is
/// ANDed once and each member then costs one `AND + popcount` against its
/// last row — Eclat's prefix-class intersection (Zaki, IEEE TKDE 2000).
/// Empty candidates belong to no group and count 0.
#[derive(Default)]
struct PrefixGroups {
    /// Every group's prefix rows, concatenated.
    prefix_rows: Vec<u32>,
    /// Per group: where its prefix ends in `prefix_rows` and where its
    /// members end in `members`.
    ends: Vec<(usize, usize)>,
    /// `(last row, input index)` of every member, group by group.
    members: Vec<(u32, u32)>,
}

impl PrefixGroups {
    fn new(cand_rows: &[u32], cand_ends: &[usize]) -> Self {
        let rows_of = |c: u32| {
            let c = c as usize;
            let start = if c == 0 { 0 } else { cand_ends[c - 1] };
            &cand_rows[start..cand_ends[c]]
        };
        let mut order: Vec<u32> = (0..cand_ends.len() as u32).collect();
        order.sort_unstable_by(|&a, &b| {
            let (a, b) = (rows_of(a), rows_of(b));
            a.len().cmp(&b.len()).then_with(|| a.cmp(b))
        });
        let mut groups = Self::default();
        let mut prefix_start = 0;
        for c in order {
            let Some((&last, prefix)) = rows_of(c).split_last() else {
                continue;
            };
            if groups.ends.is_empty() || groups.prefix_rows[prefix_start..] != *prefix {
                prefix_start = groups.prefix_rows.len();
                groups.prefix_rows.extend_from_slice(prefix);
                groups.ends.push((groups.prefix_rows.len(), 0));
            }
            groups.members.push((last, c));
            if let Some(end) = groups.ends.last_mut() {
                end.1 = groups.members.len();
            }
        }
        groups
    }

    /// Per-candidate counts (input order, `candidates` long) over `chunks`,
    /// and the words ANDed: per chunk, each group's prefix rows once plus
    /// one row per member, `words_per_row` words each.
    fn count(&self, chunks: &[BitmapChunk], candidates: usize) -> (Vec<u64>, u64) {
        let mut sorted = vec![0u64; self.members.len()];
        let mut scratch: Vec<u64> = Vec::new();
        let mut work = 0u64;
        for chunk in chunks {
            let words = chunk.words_per_row();
            scratch.resize(words, 0);
            let (mut prefix_start, mut member_start) = (0, 0);
            for &(prefix_end, member_end) in &self.ends {
                let prefix = &self.prefix_rows[prefix_start..prefix_end];
                let members = &self.members[member_start..member_end];
                let counts = &mut sorted[member_start..member_end];
                work += (words * (prefix.len() + members.len())) as u64;
                let base: Option<&[u64]> = match prefix {
                    [] => None,
                    [only] => Some(chunk.row(*only)),
                    [first, rest @ ..] => {
                        scratch.copy_from_slice(chunk.row(*first));
                        for &r in rest {
                            and_assign(&mut scratch, chunk.row(r));
                        }
                        Some(&scratch)
                    }
                };
                for (n, &(last, _)) in counts.iter_mut().zip(members) {
                    let row = chunk.row(last);
                    *n += match base {
                        Some(base) => and_count(base, row),
                        None => row.iter().map(|w| u64::from(w.count_ones())).sum(),
                    };
                }
                prefix_start = prefix_end;
                member_start = member_end;
            }
        }
        let mut partials = vec![0u64; candidates];
        for (&(_, c), n) in self.members.iter().zip(sorted) {
            partials[c as usize] = n;
        }
        (partials, work)
    }
}

/// One worker's counting state, in the layout its [`BitmapPlan`] chose.
pub(crate) enum VerticalWorker {
    /// Packed presence bits; candidates answered by AND + popcount.
    Bits(BitmapWorker),
    /// Triangular pair matrix; candidates read from their cell.
    Pairs(PairWorker),
}

impl VerticalWorker {
    /// Record one transaction (its literal items; `map` supplies the rows,
    /// ancestors included). Items without rows are ignored.
    pub(crate) fn add(&mut self, items: &[ItemId], map: &RowMap) {
        match self {
            VerticalWorker::Bits(w) => w.add(items, map),
            VerticalWorker::Pairs(w) => w.add(items, map),
        }
    }
}

/// What one worker contributes to a pass.
pub(crate) struct Tally {
    /// Per-candidate partial supports, input order.
    partials: Vec<u64>,
    /// Structures built: `u64` words (bitmap) or `u32` cells (pairs).
    built: u64,
    /// Counting work: words ANDed (bitmap) or cell increments (pairs).
    work: u64,
}

/// One counting unit's bitmap state: chunks of packed presence bits filled
/// one transaction at a time. Each scanned transaction takes exactly one
/// bit slot, so chunk popcounts sum to exact supports no matter how the
/// pass was sliced across workers.
pub(crate) struct BitmapWorker {
    chunks: Vec<BitmapChunk>,
    rows: usize,
    /// Free transaction slots in the last chunk.
    room: usize,
}

impl BitmapWorker {
    fn new(rows: usize) -> Self {
        Self {
            chunks: Vec::new(),
            rows,
            room: 0,
        }
    }

    /// Record one transaction: set the bit of every row its items reach.
    /// Two items sharing an ancestor set that row twice, which is
    /// harmless.
    fn add(&mut self, items: &[ItemId], map: &RowMap) {
        if self.room == 0 {
            self.chunks
                .push(BitmapChunk::new(self.rows, DEFAULT_BLOCK_SIZE));
            self.room = DEFAULT_BLOCK_SIZE;
        }
        let offset = DEFAULT_BLOCK_SIZE - self.room;
        if let Some(chunk) = self.chunks.last_mut() {
            for &item in items {
                for &row in map.rows(item) {
                    chunk.set(row, offset);
                }
            }
        }
        self.room -= 1;
    }

    /// Total `u64` words this worker's chunks hold.
    fn words_built(&self) -> u64 {
        self.chunks.iter().map(BitmapChunk::total_words).sum()
    }
}

/// One counting unit's pair matrix: a `u32` cell for every row pair
/// `a < b`, laid out row-major over the strict upper triangle. A
/// transaction bumps the cell of each pair of its rows, so its cost is
/// `C(m, 2)` for its `m` planned items, independent of the candidate count
/// and of the database size.
pub(crate) struct PairWorker {
    cells: Vec<u32>,
    rows: usize,
    /// One bit per row: the rows the current transaction reaches. Every
    /// word is zero between transactions.
    seen: Vec<u64>,
    /// `scratch[..reached]` are the current transaction's rows, ascending;
    /// the 8 slots past `rows` absorb [`PairWorker::add`]'s unconditional
    /// writes.
    scratch: Vec<u32>,
    reached: usize,
    increments: u64,
}

impl PairWorker {
    fn new(rows: usize) -> Self {
        Self {
            cells: vec![0; triangle(rows)],
            rows,
            seen: vec![0; rows.div_ceil(64)],
            scratch: vec![0; rows + 8],
            reached: 0,
            increments: 0,
        }
    }

    /// First cell of row `a`'s stretch of the triangle (pairs `(a, a+1..)`).
    #[inline]
    fn row_start(&self, a: usize) -> usize {
        a * (2 * self.rows - a - 1) / 2
    }

    /// Record one transaction: bump the cell of every pair of the rows its
    /// items reach, each row once (two items can share an ancestor). The
    /// rows are marked in `seen`, then read back word by word — ascending
    /// and without duplicates, with no sort — clearing each word read.
    pub(crate) fn add(&mut self, items: &[ItemId], map: &RowMap) {
        for &item in items {
            for &row in map.rows(item) {
                self.seen[row as usize / 64] |= 1 << (row % 64);
            }
        }
        // A word's set bits are written 8 at a time, unconditionally
        // (slots past its popcount hold junk the next word overwrites), so
        // the read does not branch on every bit (simdjson's flatten_bits).
        let mut n = 0;
        for (w, word) in self.seen.iter_mut().enumerate() {
            let mut bits = std::mem::take(word);
            let end = n + bits.count_ones() as usize;
            let base = w as u32 * 64;
            loop {
                for slot in &mut self.scratch[n..n + 8] {
                    *slot = base + bits.trailing_zeros();
                    bits &= bits.wrapping_sub(1);
                }
                n += 8;
                if n >= end {
                    break;
                }
            }
            n = end;
        }
        self.reached = n;
        let list = &self.scratch[..n];
        let m = n as u64;
        self.increments += m * m.saturating_sub(1) / 2;
        for (x, &a) in list.iter().enumerate() {
            let a = a as usize;
            let start = self.row_start(a);
            let row = &mut self.cells[start..start + (self.rows - a - 1)];
            for &b in &list[x + 1..] {
                row[b as usize - a - 1] += 1;
            }
        }
    }

    /// Transactions seen by this worker containing rows `a < b`.
    fn count(&self, a: u32, b: u32) -> u64 {
        let (a, b) = (a as usize, b as usize);
        u64::from(self.cells[self.row_start(a) + (b - a - 1)])
    }
}

/// One candidate size's [`CountingBackend::SubsetHashMap`] counter (every
/// worker of the parallel counting layer owns one per candidate size).
pub(crate) struct Counter {
    k: usize,
    map: FxHashMap<Itemset, u64>,
}

impl Counter {
    pub(crate) fn build(k: usize, candidates: Vec<Itemset>) -> Self {
        let map = candidates.into_iter().map(|c| (c, 0)).collect();
        Counter { k, map }
    }

    pub(crate) fn count(&mut self, items: &[ItemId]) {
        count_into_map(items, self.k, &mut self.map);
    }

    pub(crate) fn into_counts(self) -> Vec<(Itemset, u64)> {
        self.map.into_iter().collect()
    }
}

/// Adaptive hash-map probing: when the transaction has few k-subsets,
/// enumerate them and look each up; otherwise test every candidate against
/// the transaction.
fn count_into_map(items: &[ItemId], k: usize, map: &mut FxHashMap<Itemset, u64>) {
    if items.len() < k || k == 0 {
        return;
    }
    let n = items.len();
    let subsets = binomial(n, k);
    if subsets <= map.len() as u128 * 4 {
        let mut idx: Vec<usize> = (0..k).collect();
        let mut scratch: Vec<ItemId> = vec![ItemId(0); k];
        loop {
            for (s, &i) in scratch.iter_mut().zip(idx.iter()) {
                *s = items[i];
            }
            // The scratch is ascending because `idx` is ascending over a
            // sorted transaction.
            let key = Itemset::from_sorted(scratch.clone());
            if let Some(c) = map.get_mut(&key) {
                *c += 1;
            }
            // Advance to the next k-combination of 0..n.
            let mut pos = k;
            while pos > 0 && idx[pos - 1] == n - (k - pos) - 1 {
                pos -= 1;
            }
            if pos == 0 {
                return;
            }
            idx[pos - 1] += 1;
            for q in pos..k {
                idx[q] = idx[q - 1] + 1;
            }
        }
    } else {
        for (cand, count) in map.iter_mut() {
            if crate::itemset::is_sorted_subset(cand.items(), items) {
                *count += 1;
            }
        }
    }
}

/// `C(n, k)` saturating at a large cap (only compared against map sizes).
fn binomial(n: usize, k: usize) -> u128 {
    if k > n {
        return 0;
    }
    let k = k.min(n - k);
    let mut acc: u128 = 1;
    for i in 0..k {
        acc = acc.saturating_mul((n - i) as u128) / (i + 1) as u128;
        if acc > 1 << 100 {
            return u128::MAX;
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generalized::AncestorTable;
    use crate::parallel::{count_mixed_parallel, Extension, Parallelism};
    use negassoc_taxonomy::{Taxonomy, TaxonomyBuilder};
    use negassoc_txdb::{TransactionDb, TransactionDbBuilder};

    fn set(v: &[u32]) -> Itemset {
        Itemset::from_unsorted(v.iter().map(|&i| ItemId(i)).collect())
    }

    fn sample_db() -> TransactionDb {
        let mut b = TransactionDbBuilder::new();
        b.add([ItemId(1), ItemId(2), ItemId(3)]);
        b.add([ItemId(1), ItemId(2)]);
        b.add([ItemId(2), ItemId(3)]);
        b.add([ItemId(1), ItemId(3), ItemId(4)]);
        b.build()
    }

    fn db_of(txs: &[&[u32]]) -> TransactionDb {
        let mut b = TransactionDbBuilder::new();
        for t in txs {
            b.add(ids(t));
        }
        b.build()
    }

    fn sorted(mut v: Vec<(Itemset, u64)>) -> Vec<(Itemset, u64)> {
        v.sort();
        v
    }

    /// One sequential pass through the shared counting entry point.
    fn count(
        db: &TransactionDb,
        candidates: Vec<Itemset>,
        backend: CountingBackend,
        extension: Extension<'_>,
    ) -> Vec<(Itemset, u64)> {
        count_mixed_parallel(
            db,
            candidates,
            backend,
            extension,
            Parallelism::Sequential,
            None,
            &Obs::disabled(),
        )
        .unwrap()
        .counts
    }

    /// Support by definition: transactions whose items, together with all
    /// their ancestors, include every member of `cand`.
    fn brute(db: &TransactionDb, anc: &AncestorTable, cand: &Itemset) -> u64 {
        db.iter()
            .filter(|t| {
                cand.items().iter().all(|c| {
                    t.items()
                        .iter()
                        .any(|&i| i == *c || anc.ancestors(i).contains(c))
                })
            })
            .count() as u64
    }

    const BACKENDS: [CountingBackend; 2] =
        [CountingBackend::SubsetHashMap, CountingBackend::TidBitmap];

    #[test]
    fn backends_agree_on_pairs() {
        let db = sample_db();
        let candidates = vec![set(&[1, 2]), set(&[2, 3]), set(&[1, 4]), set(&[3, 4])];
        let expected = vec![
            (set(&[1, 2]), 2),
            (set(&[1, 4]), 1),
            (set(&[2, 3]), 2),
            (set(&[3, 4]), 1),
        ];
        for backend in BACKENDS {
            let got = count(&db, candidates.clone(), backend, Extension::Literal);
            assert_eq!(sorted(got), expected, "{backend:?}");
        }
    }

    #[test]
    fn mixed_sizes_single_structure_per_size() {
        let db = sample_db();
        let candidates = vec![set(&[1]), set(&[1, 2]), set(&[1, 2, 3])];
        for backend in BACKENDS {
            let got = count(&db, candidates.clone(), backend, Extension::Literal);
            assert_eq!(
                got,
                vec![(set(&[1]), 3), (set(&[1, 2]), 2), (set(&[1, 2, 3]), 1)],
                "{backend:?}"
            );
        }
    }

    /// cat(0) → {a(1), b(2)}, x(3) a root, and z(4) a second leaf under
    /// cat: the highest id of the taxonomy.
    fn edge_taxonomy() -> Taxonomy {
        let mut b = TaxonomyBuilder::new();
        let cat = b.add_root("cat");
        b.add_child(cat, "a").unwrap();
        b.add_child(cat, "b").unwrap();
        b.add_root("x");
        b.add_child(cat, "z").unwrap();
        b.build()
    }

    /// The extension rewrites what is counted: categories are counted only
    /// when transactions are extended, and the two ancestor variants agree.
    #[test]
    fn mapper_can_rewrite_transactions() {
        let tax = edge_taxonomy();
        let anc = AncestorTable::new(&tax);
        let db = db_of(&[&[1, 3], &[1, 2], &[2, 3], &[3]]);
        let candidates = vec![set(&[0, 3]), set(&[1, 2]), set(&[0])];
        for backend in BACKENDS {
            let literal = count(&db, candidates.clone(), backend, Extension::Literal);
            let counts: Vec<u64> = literal.iter().map(|(_, n)| *n).collect();
            assert_eq!(counts, vec![0, 1, 0], "{backend:?} literal");
            for ext in [
                Extension::AllAncestors(&anc),
                Extension::NeededAncestors(&anc),
            ] {
                let got = count(&db, candidates.clone(), backend, ext);
                let counts: Vec<u64> = got.iter().map(|(_, n)| *n).collect();
                assert_eq!(counts, vec![2, 1, 3], "{backend:?} {ext:?}");
            }
        }
    }

    /// A leaf no candidate mentions, with an id above every candidate's,
    /// still counts for its planned ancestor (the row map spans the whole
    /// taxonomy), and two leaves of one category count it once — in both
    /// bitmap layouts, against the flat reference and brute force.
    #[test]
    fn row_map_covers_unmentioned_leaves_and_shared_ancestors() {
        let tax = edge_taxonomy();
        let anc = AncestorTable::new(&tax);
        // z = 4 is in no candidate; 99 is outside the taxonomy.
        let db = db_of(&[&[3, 4], &[4], &[1, 2, 3], &[1, 4, 99], &[2, 3, 4, 99], &[]]);
        let dense = vec![set(&[0, 3])];
        let mixed = vec![set(&[0, 3]), set(&[0]), set(&[1, 3]), set(&[0, 1, 3])];
        for (cands, pairs) in [(dense, true), (mixed, false)] {
            assert_eq!(
                BitmapPlan::new(&cands, Extension::AllAncestors(&anc)).pairs,
                pairs
            );
            let want: Vec<u64> = cands.iter().map(|c| brute(&db, &anc, c)).collect();
            for ext in [
                Extension::AllAncestors(&anc),
                Extension::NeededAncestors(&anc),
            ] {
                for backend in BACKENDS {
                    let got = count(&db, cands.clone(), backend, ext);
                    let got: Vec<u64> = got.iter().map(|(_, n)| *n).collect();
                    assert_eq!(got, want, "{backend:?} {ext:?} pairs={pairs}");
                }
            }
        }
        // {cat, x}: {3, 4}, {1, 2, 3} (cat once), {2, 3, 4, 99}.
        assert_eq!(brute(&db, &anc, &set(&[0, 3])), 3);
        // {cat}: every non-empty transaction, each once.
        assert_eq!(brute(&db, &anc, &set(&[0])), 5);
    }

    /// A leaf's rows are its planned ancestors even when the leaf itself is
    /// unplanned; ids past the table map to nothing.
    #[test]
    fn row_map_rows() {
        let tax = edge_taxonomy();
        let anc = AncestorTable::new(&tax);
        let plan = BitmapPlan::new(&[set(&[0, 3]), set(&[1])], Extension::AllAncestors(&anc));
        // Rows by ascending item: cat 0, a 1, x 2.
        assert_eq!(plan.map.rows(ItemId(1)), &[1, 0]);
        assert_eq!(plan.map.rows(ItemId(2)), &[0]);
        assert_eq!(plan.map.rows(ItemId(4)), &[0]);
        assert_eq!(plan.map.rows(ItemId(3)), &[2]);
        assert!(plan.map.rows(ItemId(99)).is_empty());
        let literal = BitmapPlan::new(&[set(&[0, 3]), set(&[1])], Extension::Literal);
        assert_eq!(literal.map.rows(ItemId(1)), &[1]);
        assert!(literal.map.rows(ItemId(2)).is_empty());
        assert!(literal.map.rows(ItemId(4)).is_empty());
    }

    #[test]
    fn empty_candidates_short_circuit() {
        let db = sample_db();
        for backend in BACKENDS {
            assert!(count(&db, Vec::new(), backend, Extension::Literal).is_empty());
        }
    }

    #[test]
    fn subset_enumeration_path_matches_candidate_scan_path() {
        // Force both code paths of count_into_map and compare.
        let items: Vec<ItemId> = (0..8).map(ItemId).collect();
        let all_pairs: Vec<Itemset> = (0..8u32)
            .flat_map(|a| ((a + 1)..8).map(move |b| set(&[a, b])))
            .collect();

        // Few candidates -> candidate-scan path.
        let mut small: FxHashMap<Itemset, u64> = vec![(set(&[0, 1]), 0), (set(&[6, 7]), 0)]
            .into_iter()
            .collect();
        count_into_map(&items, 2, &mut small);
        assert!(small.values().all(|&v| v == 1));

        // Many candidates -> subset-enumeration path.
        let mut big: FxHashMap<Itemset, u64> = all_pairs.iter().cloned().map(|c| (c, 0)).collect();
        count_into_map(&items, 2, &mut big);
        assert!(big.values().all(|&v| v == 1));
        assert_eq!(big.len(), 28);
    }

    #[test]
    fn binomial_values() {
        assert_eq!(binomial(5, 2), 10);
        assert_eq!(binomial(10, 0), 1);
        assert_eq!(binomial(3, 5), 0);
        assert_eq!(binomial(52, 5), 2_598_960);
    }

    /// A literal row map over `items` (row `r` for `items[r]`, ascending).
    fn literal_map(items: &[u32]) -> RowMap {
        let bound = items.iter().map(|&i| i as usize + 1).max().unwrap_or(0);
        let mut row_of = vec![NO_ROW; bound];
        for (r, &i) in items.iter().enumerate() {
            row_of[i as usize] = r as u32;
        }
        RowMap::new(&row_of, Extension::Literal)
    }

    fn ids(v: &[u32]) -> Vec<ItemId> {
        v.iter().map(|&i| ItemId(i)).collect()
    }

    #[test]
    fn pair_worker_with_zero_and_one_rows() {
        let mut none = PairWorker::new(0);
        none.add(&ids(&[1, 2, 3]), &literal_map(&[]));
        none.add(&[], &literal_map(&[]));
        assert!(none.cells.is_empty());
        assert_eq!(none.increments, 0);

        let mut one = PairWorker::new(1);
        one.add(&ids(&[1, 2, 3]), &literal_map(&[2]));
        assert!(one.cells.is_empty());
        assert_eq!(one.increments, 0);
    }

    #[test]
    fn pair_worker_counts_empty_transactions_and_ignores_unplanned_items() {
        // Rows 0..4 for items 10, 20, 30, 40; items 5, 25 and 45 are
        // unplanned (45 past the table).
        let plan = literal_map(&[10, 20, 30, 40]);
        let mut w = PairWorker::new(4);
        w.add(&[], &plan);
        w.add(&ids(&[5, 10, 25, 30, 45]), &plan);
        w.add(&ids(&[10, 20, 30, 40]), &plan);
        w.add(&ids(&[25]), &plan);
        assert_eq!(w.increments, 1 + 6);
        assert_eq!(w.cells.len(), 6);
        assert_eq!(w.count(0, 2), 2); // {10, 30}
        for (a, b) in [(0, 1), (0, 3), (1, 2), (1, 3), (2, 3)] {
            assert_eq!(w.count(a, b), 1, "rows {a}, {b}");
        }
    }

    /// Rows reached twice in one transaction, straddling the bitset's word
    /// boundaries (63 | 64 and 127 | 128), bump each pair once, and the
    /// next transaction starts from a cleared bitset.
    #[test]
    fn pair_worker_dedups_rows_across_word_boundaries() {
        // Item 0 reaches rows 63, 64, 127, 128 and 5; item 1 rows 64, 128
        // and 0; item 2 rows 127 and 63; item 3 rows 1 and 129.
        let map = RowMap {
            starts: vec![0, 5, 8, 10, 12],
            reach: vec![63, 64, 127, 128, 5, 64, 128, 0, 127, 63, 1, 129],
        };
        let mut w = PairWorker::new(130);
        w.add(&ids(&[0, 1, 2]), &map);
        let first = [0u32, 5, 63, 64, 127, 128];
        assert_eq!(w.scratch[..w.reached], first);
        assert_eq!(w.increments, 15);
        w.add(&ids(&[3]), &map);
        assert_eq!(w.scratch[..w.reached], [1, 129]);
        assert_eq!(w.increments, 16);
        for a in 0..130u32 {
            for b in a + 1..130 {
                let want = u64::from(first.contains(&a) && first.contains(&b))
                    + u64::from((a, b) == (1, 129));
                assert_eq!(w.count(a, b), want, "rows {a}, {b}");
            }
        }
    }

    /// The layout follows the candidates: dense pairs take the matrix,
    /// anything else keeps AND + popcount.
    #[test]
    fn plan_selects_pairs_only_for_dense_pair_sets() {
        let plan = |c: &[Itemset]| BitmapPlan::new(c, Extension::Literal).pairs;
        // 4 items: triangle of 6; 3 pairs fill exactly half.
        assert!(plan(&[set(&[1, 2]), set(&[3, 4]), set(&[1, 4])]));
        // 5 items: triangle of 10; 4 pairs fall below half.
        assert!(!plan(&[
            set(&[1, 2]),
            set(&[3, 4]),
            set(&[1, 4]),
            set(&[4, 5])
        ]));
        assert!(!plan(&[set(&[1, 2]), set(&[1, 2, 3])]));
        assert!(!plan(&[set(&[1]), set(&[2])]));
    }

    /// Candidates sharing a (k−1)-prefix form one group, sizes never mix,
    /// and the kernel's work is the prefix rows once per group plus one row
    /// per candidate, per chunk.
    #[test]
    fn prefix_groups_share_prefixes() {
        let cands = vec![
            set(&[1, 2, 4]),
            set(&[1, 2]),
            set(&[1, 2, 3]),
            set(&[5]),
            set(&[1, 3]),
            set(&[2]),
            set(&[1, 2, 3]),
        ];
        let plan = BitmapPlan::new(&cands, Extension::Literal);
        // Rows: 1→0, 2→1, 3→2, 4→3, 5→4.
        let g = &plan.groups;
        assert_eq!(g.prefix_rows, vec![0, 0, 1]);
        assert_eq!(g.ends, vec![(0, 2), (1, 4), (3, 7)]);
        let members: Vec<u32> = g.members.iter().map(|&(_, c)| c).collect();
        assert_eq!(&members[..4], &[5, 3, 1, 4]);
        let db = db_of(&[&[1, 2, 3], &[1, 2, 3, 4], &[2, 5], &[1, 3]]);
        let mut w = BitmapWorker::new(plan.rows);
        for t in db.iter() {
            w.add(t.items(), &plan.map);
        }
        let (partials, work) = g.count(&w.chunks, cands.len());
        assert_eq!(partials, vec![1, 2, 2, 1, 3, 3, 2]);
        assert_eq!(work, 16 * (3 + 7));
    }

    /// Both sides of the half-triangle rule count exactly, with ancestors
    /// surfaced by the taxonomy: c1 over a and b, c2 over c and d.
    /// Transactions hold item–ancestor pairs that the candidates omit, as
    /// pruned at L2, and an id outside the taxonomy.
    #[test]
    fn pair_path_matches_reference_on_both_sides_of_the_rule() {
        let mut tb = TaxonomyBuilder::new();
        let c1 = tb.add_root("c1");
        let a = tb.add_child(c1, "a").unwrap();
        let b = tb.add_child(c1, "b").unwrap();
        let c2 = tb.add_root("c2");
        let c = tb.add_child(c2, "c").unwrap();
        let d = tb.add_child(c2, "d").unwrap();
        let tax = tb.build();
        let anc = AncestorTable::new(&tax);
        let outside = ItemId(9);
        let mut db = TransactionDbBuilder::new();
        for t in [
            vec![a, c],
            vec![a, b, d],
            vec![b],
            vec![],
            vec![c, d, outside],
            vec![a, d],
            vec![a, b, c, d],
        ] {
            db.add(t);
        }
        let db = db.build();
        let items = [a, b, c, d, c1, c2];
        let pair = |x: ItemId, y: ItemId| Itemset::from_unsorted(vec![x, y]);
        let all: Vec<Itemset> = items
            .iter()
            .enumerate()
            .flat_map(|(x, &p)| items[x + 1..].iter().map(move |&q| (p, q)))
            .filter(|&(p, q)| !anc.is_ancestor(p, q) && !anc.is_ancestor(q, p))
            .map(|(p, q)| pair(p, q))
            .collect();
        // Over all 6 rows (triangle 15): 7 pairs are sparse, 8 are dense.
        assert_eq!(all.len(), 11);
        let sparse: Vec<Itemset> = [(a, b), (c, d), (c1, c2), (a, c), (b, d), (a, c2), (b, c)]
            .iter()
            .map(|&(p, q)| pair(p, q))
            .collect();
        let mut dense8 = sparse.clone();
        dense8.push(pair(a, d));
        for (cands, dense) in [(all, true), (dense8, true), (sparse, false)] {
            let n = cands.len();
            let ext = Extension::AllAncestors(&anc);
            assert_eq!(BitmapPlan::new(&cands, ext).pairs, dense, "{n} pairs");
            let want = count(&db, cands.clone(), CountingBackend::SubsetHashMap, ext);
            let got = count(&db, cands.clone(), CountingBackend::TidBitmap, ext);
            assert_eq!(got, want, "{n} pairs");
            for (c, n) in &got {
                assert_eq!(*n, brute(&db, &anc, c), "{c:?}");
            }
        }
    }

    #[test]
    fn pair_cells_refuse_more_than_u32_max_transactions() {
        assert!(check_cell_limit(u64::from(u32::MAX)).is_ok());
        let err = check_cell_limit(u64::from(u32::MAX) + 1).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    /// Vertical counting answers candidates of every size, including
    /// items the data never mentions, exactly like the hash map.
    #[test]
    fn vertical_counting_matches() {
        let db = sample_db();
        let candidates = vec![set(&[1, 2]), set(&[1, 2, 3]), set(&[9]), set(&[3, 9])];
        let got = count(
            &db,
            candidates.clone(),
            CountingBackend::TidBitmap,
            Extension::Literal,
        );
        assert_eq!(
            got,
            vec![
                (set(&[1, 2]), 2),
                (set(&[1, 2, 3]), 1),
                (set(&[9]), 0),
                (set(&[3, 9]), 0)
            ]
        );
        let reference = count(
            &db,
            candidates,
            CountingBackend::SubsetHashMap,
            Extension::Literal,
        );
        assert_eq!(got, reference);
    }
}
