//! Counting the *actual* supports of negative candidates, with the paper's
//! §2.5 memory management: when the candidate set exceeds the configured
//! budget, it is counted in chunks, one database pass per chunk.

use crate::candidates::{Derivation, NegativeCandidate, NegativeItemset};
use crate::error::Error;
use crate::expected::is_negative;
use negassoc_apriori::count::CountingBackend;
use negassoc_apriori::generalized::{extend_filtered, items_of_candidates, AncestorTable};
use negassoc_apriori::parallel::{count_mixed_parallel, CancelToken, Obs, Parallelism, PassStats};
use negassoc_apriori::Itemset;
use negassoc_taxonomy::fxhash::FxHashMap;
use negassoc_taxonomy::ItemId;
use negassoc_txdb::obs::{metric, Event};
use negassoc_txdb::TransactionSource;
use std::time::Instant;

/// Count all `candidates` (mixed sizes, categories allowed) and keep the
/// negative ones. Returns the negative itemsets, the number of database
/// passes made (`ceil(len / cap)`, or 1 without a cap), and one
/// [`PassStats`] entry per pass (telemetry; pass numbers are local to this
/// call and renumbered by the driver).
///
/// `ctrl` is checked before every chunk pass (and at block boundaries
/// within it); a cancelled run returns the token's error without any
/// partial negatives. Each chunk pass reports to `obs` under the
/// `"negative"` label.
#[allow(clippy::too_many_arguments)]
pub(crate) fn confirm_negatives<S: TransactionSource + ?Sized>(
    source: &S,
    ancestors: &AncestorTable,
    candidates: Vec<NegativeCandidate>,
    backend: CountingBackend,
    cap: Option<usize>,
    min_support_count: u64,
    min_ri: f64,
    parallelism: Parallelism,
    ctrl: Option<&CancelToken>,
    obs: &Obs,
) -> Result<(Vec<NegativeItemset>, u64, Vec<PassStats>), Error> {
    if candidates.is_empty() {
        return Ok((Vec::new(), 0, Vec::new()));
    }
    let total_candidates = candidates.len();
    obs.emit(|| Event::CandidateSet {
        label: "negative".to_string(),
        size: total_candidates,
    });
    let chunk_size = cap.unwrap_or(candidates.len()).max(1);
    let mut negatives = Vec::new();
    let mut passes = 0u64;
    let mut stats = Vec::new();
    let mut remaining = candidates;
    while !remaining.is_empty() {
        if let Some(c) = ctrl {
            c.check().map_err(Error::Io)?;
        }
        let tail = remaining.split_off(chunk_size.min(remaining.len()));
        let chunk = std::mem::replace(&mut remaining, tail);
        passes += 1;
        let started = Instant::now();
        let chunk_len = chunk.len();
        obs.emit(|| Event::PassStart {
            label: "negative".to_string(),
            candidates: chunk_len,
        });
        let run = count_chunk(
            source,
            ancestors,
            chunk,
            backend,
            min_support_count,
            min_ri,
            parallelism,
            ctrl,
            obs,
            &mut negatives,
        )?;
        let pass_stats = PassStats {
            pass: passes,
            label: "negative".to_string(),
            candidates: chunk_len,
            transactions: run.0,
            threads: run.1,
            wall: started.elapsed(),
        };
        obs.emit(|| Event::PassEnd {
            stats: pass_stats.clone(),
        });
        obs.bump(metric::PASSES_COMPLETED, 1);
        stats.push(pass_stats);
    }
    Ok((negatives, passes, stats))
}

/// Count one chunk; returns `(transactions scanned, threads used)`.
#[allow(clippy::too_many_arguments)]
// negassoc-lint: allow(L010) -- the scan polls inside count_mixed_parallel; the local loops are in-memory candidate bookkeeping before and after it
fn count_chunk<S: TransactionSource + ?Sized>(
    source: &S,
    ancestors: &AncestorTable,
    chunk: Vec<NegativeCandidate>,
    backend: CountingBackend,
    min_support_count: u64,
    min_ri: f64,
    parallelism: Parallelism,
    ctrl: Option<&CancelToken>,
    obs: &Obs,
    negatives: &mut Vec<NegativeItemset>,
) -> Result<(u64, usize), Error> {
    let mut expected: FxHashMap<Itemset, (f64, Derivation)> = FxHashMap::default();
    let mut itemsets: Vec<Itemset> = Vec::with_capacity(chunk.len());
    for c in chunk {
        itemsets.push(c.itemset.clone());
        expected.insert(c.itemset, (c.expected, c.derivation));
    }
    // Candidates may contain categories; transactions must be extended with
    // exactly the ancestors the candidates can use (the Cumulate filter).
    let needed = items_of_candidates(&itemsets);
    let mapper =
        |items: &[ItemId], out: &mut Vec<ItemId>| extend_filtered(items, ancestors, &needed, out);
    let run = count_mixed_parallel(source, itemsets, backend, &mapper, parallelism, ctrl, obs)
        .map_err(Error::Io)?;
    for (set, actual) in run.counts {
        // Every counted set was registered above; a miss means the counting
        // backend fabricated an itemset, and skipping it is the only output
        // that cannot lie.
        let Some(&(e, _)) = expected.get(&set).as_deref() else {
            continue;
        };
        if is_negative(e, actual, min_support_count, min_ri) {
            let Some((e, derivation)) = expected.remove(&set) else {
                continue;
            };
            negatives.push(NegativeItemset {
                itemset: set,
                expected: e,
                actual,
                derivation: Some(derivation),
            });
        }
    }
    Ok((run.transactions, run.threads))
}

#[cfg(test)]
mod tests {
    use super::*;
    use negassoc_taxonomy::TaxonomyBuilder;
    use negassoc_txdb::{PassCounter, TransactionDbBuilder};

    /// cat -> {a, b}; db where {a} and {b} never co-occur.
    #[test]
    fn confirms_negatives_and_counts_passes() {
        let mut tb = TaxonomyBuilder::new();
        let cat = tb.add_root("cat");
        let a = tb.add_child(cat, "a").unwrap();
        let b = tb.add_child(cat, "b").unwrap();
        let other = tb.add_root("other");
        let tax = tb.build();
        let ancestors = AncestorTable::new(&tax);

        let mut db = TransactionDbBuilder::new();
        for _ in 0..10 {
            db.add([a, other]);
        }
        for _ in 0..10 {
            db.add([b]);
        }
        let pc = PassCounter::new(db.build());

        let derivation = |seed: Vec<negassoc_taxonomy::ItemId>| crate::candidates::Derivation {
            seed: Itemset::from_unsorted(seed),
            seed_support: 10,
            case: crate::candidates::DerivationCase::Siblings,
        };
        let candidates = vec![
            NegativeCandidate {
                itemset: Itemset::from_unsorted(vec![a, b]),
                expected: 8.0,
                derivation: derivation(vec![a, other]),
            },
            NegativeCandidate {
                itemset: Itemset::from_unsorted(vec![b, other]),
                expected: 5.0,
                derivation: derivation(vec![a, other]),
            },
            // Category candidate: {cat, other} actually co-occurs often.
            NegativeCandidate {
                itemset: Itemset::from_unsorted(vec![cat, other]),
                expected: 10.0,
                derivation: derivation(vec![cat, other]),
            },
        ];

        // minsup 5, min_ri 0.5 -> negativity threshold 2.5.
        let (negs, passes, stats) = confirm_negatives(
            &pc,
            &ancestors,
            candidates.clone(),
            CountingBackend::TidBitmap,
            None,
            5,
            0.5,
            Parallelism::Sequential,
            None,
            &Obs::disabled(),
        )
        .unwrap();
        assert_eq!(stats.len(), 1);
        assert_eq!(stats[0].candidates, 3);
        assert_eq!(stats[0].transactions, 20);
        assert_eq!(stats[0].threads, 1);
        assert_eq!(passes, 1);
        assert_eq!(pc.passes(), 1);
        // {a,b}: actual 0, deviation 8 >= 2.5 -> negative.
        // {b,other}: actual 0, deviation 5 -> negative.
        // {cat,other}: actual 10, deviation 0 -> not negative.
        let mut got: Vec<(Vec<negassoc_taxonomy::ItemId>, u64)> = negs
            .iter()
            .map(|n| (n.itemset.items().to_vec(), n.actual))
            .collect();
        got.sort();
        assert_eq!(got.len(), 2);
        assert!(got.iter().all(|(_, actual)| *actual == 0));

        // With a cap of 1 candidate per pass: 3 passes, same negatives.
        pc.reset();
        let (negs2, passes2, stats2) = confirm_negatives(
            &pc,
            &ancestors,
            candidates,
            CountingBackend::SubsetHashMap,
            Some(1),
            5,
            0.5,
            Parallelism::Threads(2),
            None,
            &Obs::disabled(),
        )
        .unwrap();
        assert_eq!(passes2, 3);
        assert_eq!(stats2.len(), 3);
        assert!(stats2.iter().all(|s| s.threads == 2 && s.candidates == 1));
        assert_eq!(pc.passes(), 3);
        assert_eq!(negs2.len(), 2);
    }

    #[test]
    fn empty_candidates_make_no_pass() {
        let tax = TaxonomyBuilder::new().build();
        let ancestors = AncestorTable::new(&tax);
        let db = TransactionDbBuilder::new().build();
        let pc = PassCounter::new(db);
        let (negs, passes, stats) = confirm_negatives(
            &pc,
            &ancestors,
            Vec::new(),
            CountingBackend::TidBitmap,
            None,
            1,
            0.5,
            Parallelism::Sequential,
            None,
            &Obs::disabled(),
        )
        .unwrap();
        assert!(stats.is_empty());
        assert!(negs.is_empty());
        assert_eq!(passes, 0);
        assert_eq!(pc.passes(), 0);
    }
}
