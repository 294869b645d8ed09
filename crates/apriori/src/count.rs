//! Support-counting backends.
//!
//! Every pass-based miner in this workspace counts through
//! [`crate::parallel::count_mixed_parallel`] (candidates of any sizes in a
//! single pass, with the worker pool its [`Parallelism`] selects). The
//! caller's mapper lets generalized mining extend each transaction with
//! taxonomy ancestors — counting itself is agnostic.
//!
//! Backends:
//!
//! * [`CountingBackend::TidBitmap`] (default) — vertical counting: the
//!   pass builds one packed bitset row per item the candidates mention,
//!   then every candidate is counted by word-wise AND + popcount (see
//!   [`negassoc_txdb::vertical`]; DESIGN.md §14); a pass of dense pairs
//!   (every candidate a pair, filling at least half of the triangle over
//!   their items, as at L2) is counted in a triangular pair matrix instead,
//! * [`CountingBackend::SubsetHashMap`] — a hash map keyed by candidate,
//!   probed either by enumerating the transaction's k-subsets or by testing
//!   each candidate, whichever is cheaper per transaction. Small and
//!   obviously correct: the reference the bitmap path is diffed against.
//!
//! Both backends produce identical counts for identical inputs; the choice
//! only moves wall time and memory.
//!
//! [`Parallelism`]: crate::parallel::Parallelism

use crate::itemset::Itemset;
use negassoc_taxonomy::fxhash::{FxHashMap, FxHashSet};
use negassoc_taxonomy::ItemId;
use negassoc_txdb::block::DEFAULT_BLOCK_SIZE;
use negassoc_txdb::obs::{metric, Event, Obs};
use negassoc_txdb::vertical::BitmapChunk;
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

pub(crate) fn items_of(candidates: &[Itemset]) -> FxHashSet<ItemId> {
    let mut s = FxHashSet::default();
    for c in candidates {
        s.extend(c.items().iter().copied());
    }
    s
}

/// The bitmap backend's pass-independent setup, shared by every worker of
/// the pool in [`crate::parallel`]: a dense row per item the candidates
/// mention (categories included — the mapper already surfaces them per
/// transaction, so a category row *is* the union of its descendants'
/// occurrences), each candidate pre-resolved to its rows, and the counting
/// layout the candidate shape selects.
pub(crate) struct BitmapPlan {
    /// Item → dense bitmap row.
    pub(crate) row_of: FxHashMap<ItemId, u32>,
    /// Every candidate's rows, concatenated in input order (one flat
    /// buffer: an L2 plan holds hundreds of thousands of candidates).
    cand_rows: Vec<u32>,
    /// Where each candidate's rows end in `cand_rows`.
    cand_ends: Vec<usize>,
    /// Number of rows (distinct items mentioned).
    rows: usize,
    /// Count in a triangular pair matrix instead of AND + popcount: set
    /// when every candidate is a pair and the candidates fill at least
    /// half of the triangle over their rows (always true at L2).
    pairs: bool,
}

impl BitmapPlan {
    pub(crate) fn new(candidates: &[Itemset]) -> Self {
        let mut needed: Vec<ItemId> = items_of(candidates).into_iter().collect();
        // Sorted assignment keeps row numbering independent of hash order,
        // and makes a strictly ascending transaction map to strictly
        // ascending rows, which the pair matrix relies on.
        needed.sort_unstable();
        let row_of: FxHashMap<ItemId, u32> = needed
            .iter()
            .enumerate()
            .map(|(i, &item)| (item, i as u32))
            .collect();
        let mut cand_rows = Vec::with_capacity(candidates.iter().map(Itemset::len).sum());
        let cand_ends = candidates
            .iter()
            .map(|c| {
                cand_rows.extend(c.items().iter().map(|i| row_of[i]));
                cand_rows.len()
            })
            .collect();
        let rows = needed.len();
        let pairs = candidates.iter().all(|c| c.len() == 2)
            && 2 * candidates.len() as u64 >= triangle(rows) as u64;
        Self {
            row_of,
            cand_rows,
            cand_ends,
            rows,
            pairs,
        }
    }

    /// Each candidate's rows, in input order.
    fn candidate_rows(&self) -> impl Iterator<Item = &[u32]> {
        let mut start = 0;
        self.cand_ends.iter().map(move |&end| {
            let rows = &self.cand_rows[start..end];
            start = end;
            rows
        })
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
        let mut work = 0u64;
        match worker {
            VerticalWorker::Bits(w) => Tally {
                partials: self
                    .candidate_rows()
                    .map(|rows| w.count_tracked(rows, &mut work))
                    .collect(),
                built: w.words_built(),
                work,
            },
            VerticalWorker::Pairs(w) => Tally {
                partials: self
                    .candidate_rows()
                    .map(|rows| w.count(rows[0], rows[1]))
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
        let backend = if self.pairs { "pairs" } else { "bitmap" };
        obs.emit(|| Event::BackendBuild {
            backend: backend.to_string(),
            items: self.rows,
            words: built,
        });
        obs.emit(|| Event::BackendCount {
            backend: backend.to_string(),
            candidates: totals.len(),
            words: work,
            ones,
        });
        if self.pairs {
            obs.bump(metric::BITMAP_PAIR_INCREMENTS, work);
        } else {
            obs.bump(metric::BITMAP_WORDS_BUILT, built);
            obs.bump(metric::BITMAP_WORDS_ANDED, work);
        }
        obs.bump(metric::BITMAP_ONES, ones);
        Ok(totals)
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

/// One worker's counting state, in the layout its [`BitmapPlan`] chose.
pub(crate) enum VerticalWorker {
    /// Packed presence bits; candidates answered by AND + popcount.
    Bits(BitmapWorker),
    /// Triangular pair matrix; candidates read from their cell.
    Pairs(PairWorker),
}

impl VerticalWorker {
    /// Record one mapped (strictly ascending) transaction. Items outside
    /// the plan are ignored.
    pub(crate) fn add(&mut self, items: &[ItemId], row_of: &FxHashMap<ItemId, u32>) {
        match self {
            VerticalWorker::Bits(w) => w.add(items, row_of),
            VerticalWorker::Pairs(w) => w.add(items, row_of),
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

    /// Record one mapped transaction: set the bit for every item that has
    /// a row. Items outside the plan (not mentioned by any candidate) are
    /// simply ignored.
    fn add(&mut self, items: &[ItemId], row_of: &FxHashMap<ItemId, u32>) {
        if self.room == 0 {
            self.chunks
                .push(BitmapChunk::new(self.rows, DEFAULT_BLOCK_SIZE));
            self.room = DEFAULT_BLOCK_SIZE;
        }
        let offset = DEFAULT_BLOCK_SIZE - self.room;
        if let Some(chunk) = self.chunks.last_mut() {
            for item in items {
                if let Some(&row) = row_of.get(item) {
                    chunk.set(row, offset);
                }
            }
        }
        self.room -= 1;
    }

    /// Transactions seen by this worker containing all of `rows`, with the
    /// words visited added to `words_anded`. An empty `rows` slice counts
    /// 0 (the horizontal paths never report the empty itemset either).
    fn count_tracked(&self, rows: &[u32], words_anded: &mut u64) -> u64 {
        if rows.is_empty() {
            return 0;
        }
        let mut total = 0u64;
        for chunk in &self.chunks {
            *words_anded += (chunk.words_per_row() * rows.len()) as u64;
            total += chunk.count(rows);
        }
        total
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
    /// The current transaction's rows (reused across transactions).
    scratch: Vec<usize>,
    increments: u64,
}

impl PairWorker {
    fn new(rows: usize) -> Self {
        Self {
            cells: vec![0; triangle(rows)],
            rows,
            scratch: Vec::new(),
            increments: 0,
        }
    }

    /// First cell of row `a`'s stretch of the triangle (pairs `(a, a+1..)`).
    #[inline]
    fn row_start(&self, a: usize) -> usize {
        a * (2 * self.rows - a - 1) / 2
    }

    /// Record one mapped transaction: bump the cell of every pair of its
    /// planned items. The mapper contract (strictly ascending items) and
    /// the plan's sorted row assignment make the rows strictly ascending.
    fn add(&mut self, items: &[ItemId], row_of: &FxHashMap<ItemId, u32>) {
        self.scratch.clear();
        self.scratch.extend(
            items
                .iter()
                .filter_map(|i| row_of.get(i))
                .map(|&r| r as usize),
        );
        debug_assert!(self.scratch.windows(2).all(|w| w[0] < w[1]));
        let m = self.scratch.len() as u64;
        self.increments += m * m.saturating_sub(1) / 2;
        for (x, &a) in self.scratch.iter().enumerate() {
            let start = self.row_start(a);
            let row = &mut self.cells[start..start + (self.rows - a - 1)];
            for &b in &self.scratch[x + 1..] {
                row[b - a - 1] += 1;
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
    use crate::parallel::{count_mixed_parallel, identity_sync_mapper, Parallelism, SyncMapper};
    use negassoc_txdb::TransactionDbBuilder;

    fn set(v: &[u32]) -> Itemset {
        Itemset::from_unsorted(v.iter().map(|&i| ItemId(i)).collect())
    }

    fn sample_db() -> negassoc_txdb::TransactionDb {
        let mut b = TransactionDbBuilder::new();
        b.add([ItemId(1), ItemId(2), ItemId(3)]);
        b.add([ItemId(1), ItemId(2)]);
        b.add([ItemId(2), ItemId(3)]);
        b.add([ItemId(1), ItemId(3), ItemId(4)]);
        b.build()
    }

    fn sorted(mut v: Vec<(Itemset, u64)>) -> Vec<(Itemset, u64)> {
        v.sort();
        v
    }

    /// One sequential pass through the shared counting entry point.
    fn count(
        db: &negassoc_txdb::TransactionDb,
        candidates: Vec<Itemset>,
        backend: CountingBackend,
        mapper: &SyncMapper<'_>,
    ) -> Vec<(Itemset, u64)> {
        count_mixed_parallel(
            db,
            candidates,
            backend,
            mapper,
            Parallelism::Sequential,
            None,
            &Obs::disabled(),
        )
        .unwrap()
        .counts
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
            let got = count(&db, candidates.clone(), backend, &identity_sync_mapper);
            assert_eq!(sorted(got), expected, "{backend:?}");
        }
    }

    #[test]
    fn mixed_sizes_single_structure_per_size() {
        let db = sample_db();
        let candidates = vec![set(&[1]), set(&[1, 2]), set(&[1, 2, 3])];
        for backend in BACKENDS {
            let got = count(&db, candidates.clone(), backend, &identity_sync_mapper);
            assert_eq!(
                got,
                vec![(set(&[1]), 3), (set(&[1, 2]), 2), (set(&[1, 2, 3]), 1)],
                "{backend:?}"
            );
        }
    }

    #[test]
    fn mapper_can_rewrite_transactions() {
        let db = sample_db();
        // A mapper that drops item 3 from every transaction.
        let mapper = |items: &[ItemId], buf: &mut Vec<ItemId>| {
            buf.clear();
            buf.extend(items.iter().copied().filter(|i| i.0 != 3));
        };
        for backend in BACKENDS {
            let got = count(&db, vec![set(&[2, 3]), set(&[1, 2])], backend, &mapper);
            assert_eq!(
                got,
                vec![(set(&[2, 3]), 0), (set(&[1, 2]), 2)],
                "{backend:?}"
            );
        }
    }

    #[test]
    fn empty_candidates_short_circuit() {
        let db = sample_db();
        for backend in BACKENDS {
            assert!(count(&db, Vec::new(), backend, &identity_sync_mapper).is_empty());
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

    fn row_of(items: &[u32]) -> FxHashMap<ItemId, u32> {
        items
            .iter()
            .enumerate()
            .map(|(r, &i)| (ItemId(i), r as u32))
            .collect()
    }

    fn ids(v: &[u32]) -> Vec<ItemId> {
        v.iter().map(|&i| ItemId(i)).collect()
    }

    #[test]
    fn pair_worker_with_zero_and_one_rows() {
        let mut none = PairWorker::new(0);
        none.add(&ids(&[1, 2, 3]), &row_of(&[]));
        none.add(&[], &row_of(&[]));
        assert!(none.cells.is_empty());
        assert_eq!(none.increments, 0);

        let mut one = PairWorker::new(1);
        one.add(&ids(&[1, 2, 3]), &row_of(&[2]));
        assert!(one.cells.is_empty());
        assert_eq!(one.increments, 0);
    }

    #[test]
    fn pair_worker_counts_empty_transactions_and_ignores_unplanned_items() {
        // Rows 0..4 for items 10, 20, 30, 40; items 5 and 25 are unplanned.
        let plan = row_of(&[10, 20, 30, 40]);
        let mut w = PairWorker::new(4);
        w.add(&[], &plan);
        w.add(&ids(&[5, 10, 25, 30]), &plan);
        w.add(&ids(&[10, 20, 30, 40]), &plan);
        w.add(&ids(&[25]), &plan);
        assert_eq!(w.increments, 1 + 6);
        assert_eq!(w.cells.len(), 6);
        assert_eq!(w.count(0, 2), 2); // {10, 30}
        for (a, b) in [(0, 1), (0, 3), (1, 2), (1, 3), (2, 3)] {
            assert_eq!(w.count(a, b), 1, "rows {a}, {b}");
        }
    }

    /// The layout follows the candidates: dense pairs take the matrix,
    /// anything else keeps AND + popcount.
    #[test]
    fn plan_selects_pairs_only_for_dense_pair_sets() {
        // 4 items: triangle of 6; 3 pairs fill exactly half.
        let half = vec![set(&[1, 2]), set(&[3, 4]), set(&[1, 4])];
        assert!(BitmapPlan::new(&half).pairs);
        // 5 items: triangle of 10; 4 pairs fall below half.
        let sparse = vec![set(&[1, 2]), set(&[3, 4]), set(&[1, 4]), set(&[4, 5])];
        assert!(!BitmapPlan::new(&sparse).pairs);
        let mixed = vec![set(&[1, 2]), set(&[1, 2, 3])];
        assert!(!BitmapPlan::new(&mixed).pairs);
        let singles = vec![set(&[1]), set(&[2])];
        assert!(!BitmapPlan::new(&singles).pairs);
    }

    /// Both sides of the half-triangle rule count exactly, with the
    /// mapper surfacing ancestors: category 100 over items 1 and 2,
    /// category 200 over 3 and 4. Transactions hold item–ancestor pairs
    /// ({1, 100}, …) that the candidates omit, as pruned at L2.
    #[test]
    fn pair_path_matches_reference_on_both_sides_of_the_rule() {
        let parent = |i: u32| match i {
            1 | 2 => Some(100),
            3 | 4 => Some(200),
            _ => None,
        };
        let mapper = |items: &[ItemId], buf: &mut Vec<ItemId>| {
            buf.clear();
            buf.extend_from_slice(items);
            buf.extend(items.iter().filter_map(|i| parent(i.0)).map(ItemId));
            buf.sort_unstable();
            buf.dedup();
        };
        let mut b = TransactionDbBuilder::new();
        for t in [
            &[1, 3][..],
            &[1, 2, 4],
            &[2],
            &[],
            &[3, 4, 9],
            &[1, 4],
            &[1, 2, 3, 4],
        ] {
            b.add(ids(t));
        }
        let db = b.build();
        let items = [1, 2, 3, 4, 100, 200];
        let related = |a: u32, b: u32| parent(a) == Some(b) || parent(b) == Some(a);
        let all: Vec<Itemset> = items
            .iter()
            .enumerate()
            .flat_map(|(x, &a)| items[x + 1..].iter().map(move |&b| (a, b)))
            .filter(|&(a, b)| !related(a, b))
            .map(|(a, b)| set(&[a, b]))
            .collect();
        // Over all 6 rows (triangle 15): 7 pairs are sparse, 8 are dense.
        assert_eq!(all.len(), 11);
        let sparse: Vec<Itemset> = [(1, 2), (3, 4), (100, 200), (1, 3), (2, 4), (1, 200), (2, 3)]
            .iter()
            .map(|&(a, b)| set(&[a, b]))
            .collect();
        let mut dense8 = sparse.clone();
        dense8.push(set(&[1, 4]));
        for (cands, dense) in [(all, true), (dense8, true), (sparse, false)] {
            let n = cands.len();
            assert_eq!(BitmapPlan::new(&cands).pairs, dense, "{n} pairs");
            let want = count(&db, cands.clone(), CountingBackend::SubsetHashMap, &mapper);
            let got = count(&db, cands, CountingBackend::TidBitmap, &mapper);
            assert_eq!(got, want, "{n} pairs");
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
            &identity_sync_mapper,
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
            &identity_sync_mapper,
        );
        assert_eq!(got, reference);
    }
}
