//! Level-by-level driver for generalized mining.
//!
//! The paper's *naive* negative-association algorithm interleaves work per
//! level: iteration `k` first mines the generalized large k-itemsets (one
//! pass) and then counts that level's negative candidates (a second pass).
//! [`GenLevelMiner`] exposes exactly that stepping; [`crate::basic`] and
//! [`crate::cumulate`] are thin run-to-completion wrappers around it.
//!
//! Level 2 under the bitmap backend lists no candidates: its candidate
//! set, every pair of large items minus the item–ancestor pairs, is a
//! [`PairCandidates`] that knows its size, and the pass counts straight
//! into the pair triangle over the large items ([`count_pairs`]). The
//! flat backend and every later level count an explicit list.
//!
//! The miner keeps no pass accounting of its own: each pass it makes is a
//! row on its [`Obs`] handle's ledger (see [`Obs::pass`]), numbered in
//! run order together with whatever passes other miners make on the same
//! handle in between (the naive driver's negative passes).

use crate::count::{CountingBackend, PairCandidates};
use crate::gen::{apriori_gen, pairs_of};
use crate::generalized::{prune_ancestor_pairs, AncestorTable};
use crate::itemset::{Itemset, LargeItemsets};
use crate::parallel::{
    count_items_parallel, count_mixed_parallel, count_pairs, CancelToken, Extension, Obs,
    Parallelism, PassRun, Scan,
};
use crate::MinSupport;
use negassoc_taxonomy::{ItemId, Taxonomy};
use negassoc_txdb::obs::Event;
use negassoc_txdb::TransactionSource;
use std::fmt;
use std::io;

/// A level's candidate set outgrew the configured cap (see
/// [`GenLevelMiner::with_candidate_cap`]). Carried inside an
/// `io::ErrorKind::OutOfMemory` error so callers can downcast and pick a
/// degraded mining path instead of aborting.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CandidateBudgetExceeded {
    /// The level whose candidates overflowed.
    pub level: usize,
    /// How many candidates the level generated.
    pub candidates: usize,
    /// The cap they exceeded.
    pub cap: usize,
}

impl fmt::Display for CandidateBudgetExceeded {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "level {} generated {} candidates, over the cap of {}",
            self.level, self.candidates, self.cap
        )
    }
}

impl std::error::Error for CandidateBudgetExceeded {}

impl From<CandidateBudgetExceeded> for io::Error {
    fn from(e: CandidateBudgetExceeded) -> Self {
        io::Error::new(io::ErrorKind::OutOfMemory, e)
    }
}

/// Which transaction-extension strategy a [`GenLevelMiner`] uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum GenStrategy {
    /// Extend every transaction with all ancestors (the Basic algorithm).
    Basic,
    /// Filter extension to items used by current candidates (Cumulate).
    #[default]
    Cumulate,
}

/// A snapshot of a [`GenLevelMiner`]'s stepping state, sufficient to
/// [`GenLevelMiner::resume`] mining after the process that produced it is
/// gone. Collections are kept sorted so snapshots of equal state compare
/// (and serialize) identically regardless of hash-map iteration order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MinerState {
    /// Transactions in the mined database.
    pub num_transactions: u64,
    /// Absolute minimum-support count in effect.
    pub minsup: u64,
    /// Every large itemset found so far, with support, sorted by itemset.
    pub large: Vec<(Itemset, u64)>,
    /// The last completed level's large itemsets (seeds of the next
    /// level's candidates), sorted.
    pub frontier: Vec<Itemset>,
    /// The level [`GenLevelMiner::mine_next_level`] would mine next.
    pub next_k: usize,
    /// `true` once mining has finished.
    pub done: bool,
}

/// Step-wise generalized large-itemset miner.
pub struct GenLevelMiner<'a, S: TransactionSource + ?Sized> {
    source: &'a S,
    ancestors: AncestorTable,
    strategy: GenStrategy,
    backend: CountingBackend,
    parallelism: Parallelism,
    minsup: u64,
    large: LargeItemsets,
    large_1: Vec<ItemId>,
    frontier: Vec<Itemset>,
    next_k: usize,
    done: bool,
    candidate_cap: Option<usize>,
    ctrl: Option<&'a CancelToken>,
    obs: Obs,
}

impl<'a, S: TransactionSource + ?Sized> GenLevelMiner<'a, S> {
    /// Mine level 1 (one pass) and prepare for stepping.
    ///
    /// The level-1 pass and every subsequent [`Self::mine_next_level`]
    /// check `ctrl` at block and pass boundaries; a cancelled step returns
    /// the token's [`io::ErrorKind::Interrupted`] error and consumes no
    /// miner state. Every pass runs through [`Obs::pass`], which numbers
    /// it on `obs`'s run-wide ledger (label `"L1"`, `"L2"`, …), and the
    /// block layer below it reports dispatch/merge and scan counters.
    #[allow(clippy::too_many_arguments)]
    // negassoc-lint: allow(L010) -- the level-1 scan polls inside count_items_parallel; the remaining loop is a bounded in-memory threshold sweep over item counts
    pub fn new(
        source: &'a S,
        tax: &Taxonomy,
        min_support: MinSupport,
        strategy: GenStrategy,
        backend: CountingBackend,
        parallelism: Parallelism,
        ctrl: Option<&'a CancelToken>,
        obs: &Obs,
    ) -> io::Result<Self> {
        let ancestors = AncestorTable::new(tax);
        let (counts, num_transactions) = obs.pass("L1", tax.len(), || {
            let extension = Extension::AllAncestors(&ancestors);
            let (counts, transactions) =
                count_items_parallel(source, tax.len(), extension, parallelism, ctrl, obs)?;
            let threads = parallelism.resolve();
            Ok::<_, io::Error>((
                (counts, transactions),
                Scan {
                    transactions,
                    threads,
                },
            ))
        })?;
        let minsup = min_support.to_count(num_transactions);
        let mut large = LargeItemsets::new(num_transactions, minsup);
        let mut large_1 = Vec::new();
        for (idx, &c) in counts.iter().enumerate() {
            if c >= minsup {
                let item = ItemId(idx as u32);
                large_1.push(item);
                large.insert(Itemset::singleton(item), c);
            }
        }
        let done = large_1.is_empty();
        Ok(Self {
            source,
            ancestors,
            strategy,
            backend,
            parallelism,
            minsup,
            large,
            large_1,
            frontier: Vec::new(),
            next_k: 2,
            done,
            candidate_cap: None,
            ctrl,
            obs: obs.clone(),
        })
    }

    /// Fail a level whose candidate set exceeds `cap` entries with an
    /// `io::ErrorKind::OutOfMemory` error carrying a
    /// [`CandidateBudgetExceeded`], instead of attempting to count it.
    /// The miner's state is untouched by such a failure, so the caller
    /// can hand the database to a memory-bounded algorithm (e.g.
    /// [`crate::partition_mine`]) and continue. `None` (the default)
    /// never fails.
    pub fn with_candidate_cap(mut self, cap: Option<usize>) -> Self {
        self.candidate_cap = cap;
        self
    }

    /// The level that [`Self::mine_next_level`] would mine next.
    pub fn next_level(&self) -> usize {
        self.next_k
    }

    /// `true` once no further level can contain large itemsets.
    pub fn is_done(&self) -> bool {
        self.done
    }

    /// Results mined so far.
    pub fn large(&self) -> &LargeItemsets {
        &self.large
    }

    /// The precomputed ancestor table (shared with negative candidate
    /// generation, which needs the same relation).
    pub fn ancestors(&self) -> &AncestorTable {
        &self.ancestors
    }

    /// Export the stepping state for checkpointing. No database pass.
    pub fn state(&self) -> MinerState {
        let mut large: Vec<(Itemset, u64)> =
            self.large.iter().map(|(s, c)| (s.clone(), c)).collect();
        large.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        let mut frontier = self.frontier.clone();
        frontier.sort_unstable();
        MinerState {
            num_transactions: self.large.num_transactions(),
            minsup: self.minsup,
            large,
            frontier,
            next_k: self.next_k,
            done: self.done,
        }
    }

    /// Rebuild a miner from a [`MinerState`] snapshot without re-mining the
    /// completed levels (and without the level-1 pass [`Self::new`] makes).
    /// The caller must supply the same database, taxonomy and parameters
    /// the snapshot was taken under; the resumed miner then finds exactly
    /// the large itemsets an uninterrupted run would. `ctrl` and `obs`
    /// govern the passes the resumed miner makes, as in [`Self::new`].
    #[allow(clippy::too_many_arguments)]
    // negassoc-lint: allow(L010) -- the loop rebuilds the snapshot in memory with no database pass; `ctrl` governs the passes `mine_next_level` makes afterwards
    pub fn resume(
        source: &'a S,
        tax: &Taxonomy,
        strategy: GenStrategy,
        backend: CountingBackend,
        parallelism: Parallelism,
        state: MinerState,
        ctrl: Option<&'a CancelToken>,
        obs: &Obs,
    ) -> Self {
        let ancestors = AncestorTable::new(tax);
        let mut large = LargeItemsets::new(state.num_transactions, state.minsup);
        let mut large_1 = Vec::new();
        for (set, count) in state.large {
            if let [only] = set.items() {
                large_1.push(*only);
            }
            large.insert(set, count);
        }
        large_1.sort_unstable();
        Self {
            source,
            ancestors,
            strategy,
            backend,
            parallelism,
            minsup: state.minsup,
            large,
            large_1,
            frontier: state.frontier,
            next_k: state.next_k,
            done: state.done,
            candidate_cap: None,
            ctrl,
            obs: obs.clone(),
        }
    }

    /// Mine one more level (one database pass, labelled `"L{k}"` on the
    /// ledger). Returns the number of large itemsets found at that level,
    /// or `None` when mining has finished — without a pass when the level
    /// has no candidates.
    pub fn mine_next_level(&mut self) -> io::Result<Option<usize>> {
        if self.done {
            return Ok(None);
        }
        if let Some(c) = self.ctrl {
            c.check()?;
        }
        let k = self.next_k;
        let extension = match self.strategy {
            GenStrategy::Basic => Extension::AllAncestors(&self.ancestors),
            GenStrategy::Cumulate => Extension::NeededAncestors(&self.ancestors),
        };
        // The bitmap backend counts L2 straight into the triangle over L1
        // and lists no pair; everything else counts a candidate list.
        let pairs = (k == 2 && self.backend == CountingBackend::TidBitmap)
            .then(|| PairCandidates::new(&self.large_1, extension));
        let listed = match pairs {
            Some(_) => Vec::new(),
            None if k == 2 => prune_ancestor_pairs(pairs_of(&self.large_1), &self.ancestors),
            None => apriori_gen(&self.frontier),
        };
        let size = pairs.as_ref().map_or(listed.len(), PairCandidates::len);
        self.obs.emit(|| Event::CandidateSet {
            label: format!("L{k}"),
            size,
        });
        if size == 0 {
            self.done = true;
            return Ok(None);
        }
        if let Some(cap) = self.candidate_cap {
            if size > cap {
                return Err(CandidateBudgetExceeded {
                    level: k,
                    candidates: size,
                    cap,
                }
                .into());
            }
        }
        let counts = self.obs.pass(&format!("L{k}"), size, || {
            match &pairs {
                Some(pairs) => count_pairs(
                    self.source,
                    pairs,
                    self.minsup,
                    self.parallelism,
                    self.ctrl,
                    &self.obs,
                ),
                None => count_mixed_parallel(
                    self.source,
                    listed,
                    self.backend,
                    extension,
                    self.parallelism,
                    self.ctrl,
                    &self.obs,
                ),
            }
            .map(PassRun::into_parts)
        })?;
        self.frontier.clear();
        for (set, count) in counts {
            if count >= self.minsup {
                self.frontier.push(set.clone());
                self.large.insert(set, count);
            }
        }
        let found = self.frontier.len();
        if found == 0 {
            self.done = true;
        } else {
            self.next_k += 1;
        }
        Ok(Some(found))
    }

    /// Run every remaining level and return the complete result.
    pub fn run_to_completion(mut self) -> io::Result<LargeItemsets> {
        while self.mine_next_level()?.is_some() {}
        Ok(self.large)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::basic::tests::sa95;

    #[test]
    fn stepping_matches_run_to_completion() {
        let (tax, db, _) = sa95();
        let stepped = {
            let mut m = GenLevelMiner::new(
                &db,
                &tax,
                MinSupport::Count(2),
                GenStrategy::Cumulate,
                CountingBackend::TidBitmap,
                Parallelism::Sequential,
                None,
                &Obs::disabled(),
            )
            .unwrap();
            let mut per_level = Vec::new();
            while let Some(found) = m.mine_next_level().unwrap() {
                per_level.push(found);
            }
            assert!(m.is_done());
            assert_eq!(m.mine_next_level().unwrap(), None);
            (per_level, m.large().total())
        };
        let full = GenLevelMiner::new(
            &db,
            &tax,
            MinSupport::Count(2),
            GenStrategy::Cumulate,
            CountingBackend::TidBitmap,
            Parallelism::Sequential,
            None,
            &Obs::disabled(),
        )
        .unwrap()
        .run_to_completion()
        .unwrap();
        assert_eq!(stepped.1, full.total());
        assert_eq!(stepped.0, vec![2]); // two large 2-itemsets, then done
    }

    #[test]
    fn candidate_cap_fails_typed_and_leaves_state_intact() {
        let (tax, db, _) = sa95();
        let mut m = GenLevelMiner::new(
            &db,
            &tax,
            MinSupport::Count(2),
            GenStrategy::Cumulate,
            CountingBackend::TidBitmap,
            Parallelism::Sequential,
            None,
            &Obs::disabled(),
        )
        .unwrap()
        .with_candidate_cap(Some(0));
        let before = m.state();
        let err = m.mine_next_level().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::OutOfMemory);
        let inner = err
            .get_ref()
            .and_then(|e| e.downcast_ref::<CandidateBudgetExceeded>())
            .expect("budget errors carry CandidateBudgetExceeded");
        assert_eq!(inner.level, 2);
        assert_eq!(inner.cap, 0);
        // The bitmap backend lists no L2 pair; the count it computes is
        // the listed pairs' length.
        let listed = prune_ancestor_pairs(pairs_of(&m.large_1), &m.ancestors);
        assert!(!listed.is_empty());
        assert_eq!(inner.candidates, listed.len());
        assert!(inner.to_string().contains("over the cap"));
        // The failure consumed no state: lifting the cap resumes normally.
        assert_eq!(m.state(), before);
        let unlimited = GenLevelMiner::new(
            &db,
            &tax,
            MinSupport::Count(2),
            GenStrategy::Cumulate,
            CountingBackend::TidBitmap,
            Parallelism::Sequential,
            None,
            &Obs::disabled(),
        )
        .unwrap()
        .with_candidate_cap(Some(1000))
        .run_to_completion()
        .unwrap();
        let mut m = m.with_candidate_cap(None);
        while m.mine_next_level().unwrap().is_some() {}
        assert_eq!(m.large().total(), unlimited.total());
    }

    #[test]
    fn resume_from_snapshot_matches_uninterrupted_run() {
        let (tax, db, _) = sa95();
        let full = GenLevelMiner::new(
            &db,
            &tax,
            MinSupport::Count(2),
            GenStrategy::Cumulate,
            CountingBackend::TidBitmap,
            Parallelism::Sequential,
            None,
            &Obs::disabled(),
        )
        .unwrap()
        .run_to_completion()
        .unwrap();

        // Interrupt after level 1, snapshot, resume in a "new process".
        let state = {
            let m = GenLevelMiner::new(
                &db,
                &tax,
                MinSupport::Count(2),
                GenStrategy::Cumulate,
                CountingBackend::TidBitmap,
                Parallelism::Sequential,
                None,
                &Obs::disabled(),
            )
            .unwrap();
            m.state()
        };
        assert_eq!(state.next_k, 2);
        assert!(!state.done);
        let resumed = GenLevelMiner::resume(
            &db,
            &tax,
            GenStrategy::Cumulate,
            CountingBackend::TidBitmap,
            Parallelism::Sequential,
            state,
            None,
            &Obs::disabled(),
        )
        .run_to_completion()
        .unwrap();

        assert_eq!(resumed.total(), full.total());
        assert_eq!(resumed.num_transactions(), full.num_transactions());
        assert_eq!(resumed.min_support_count(), full.min_support_count());
        for (set, support) in full.iter() {
            assert_eq!(resumed.support_of_set(set), Some(support));
        }
        // Snapshots of equal state are identical (sorted collections).
        let a = GenLevelMiner::new(
            &db,
            &tax,
            MinSupport::Count(2),
            GenStrategy::Cumulate,
            CountingBackend::TidBitmap,
            Parallelism::Sequential,
            None,
            &Obs::disabled(),
        )
        .unwrap()
        .state();
        let b = GenLevelMiner::resume(
            &db,
            &tax,
            GenStrategy::Cumulate,
            CountingBackend::TidBitmap,
            Parallelism::Sequential,
            a.clone(),
            None,
            &Obs::disabled(),
        )
        .state();
        assert_eq!(a, b);
    }

    #[test]
    fn no_large_singletons_finishes_immediately() {
        let (tax, db, _) = sa95();
        let m = GenLevelMiner::new(
            &db,
            &tax,
            MinSupport::Count(100),
            GenStrategy::Basic,
            CountingBackend::TidBitmap,
            Parallelism::Sequential,
            None,
            &Obs::disabled(),
        )
        .unwrap();
        assert!(m.is_done());
        assert_eq!(m.large().total(), 0);
        let _ = db;
    }
}
