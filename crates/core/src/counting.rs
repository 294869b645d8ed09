//! Counting the *actual* supports of negative candidates, with the paper's
//! §2.5 memory management: when the candidate set exceeds the configured
//! budget, it is counted in chunks, one database pass per chunk.

use crate::candidates::{NegativeCandidate, NegativeItemset};
use crate::error::Error;
use crate::expected::is_negative;
use negassoc_apriori::count::CountingBackend;
use negassoc_apriori::generalized::AncestorTable;
use negassoc_apriori::parallel::{
    count_mixed_parallel, CancelToken, Extension, Obs, Parallelism, Scan,
};
use negassoc_txdb::obs::Event;
use negassoc_txdb::TransactionSource;

/// Count all `candidates` (mixed sizes, categories allowed) and keep the
/// negative ones. Makes `ceil(len / cap)` database passes (one without a
/// cap, none without candidates), each a `"negative"` pass on `obs`'s
/// ledger.
///
/// `ctrl` is checked before every chunk pass (and at block boundaries
/// within it); a cancelled run returns the token's error without any
/// partial negatives.
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
) -> Result<Vec<NegativeItemset>, Error> {
    if candidates.is_empty() {
        return Ok(Vec::new());
    }
    obs.emit(|| Event::CandidateSet {
        label: "negative".to_string(),
        size: candidates.len(),
    });
    let chunk_size = cap.unwrap_or(candidates.len()).max(1);
    let mut negatives = Vec::new();
    let mut remaining = candidates;
    while !remaining.is_empty() {
        if let Some(c) = ctrl {
            c.check().map_err(Error::Io)?;
        }
        let tail = remaining.split_off(chunk_size.min(remaining.len()));
        let chunk = std::mem::replace(&mut remaining, tail);
        negatives.extend(obs.pass("negative", chunk.len(), || {
            count_chunk(
                source,
                ancestors,
                chunk,
                backend,
                min_support_count,
                min_ri,
                parallelism,
                ctrl,
                obs,
            )
        })?);
    }
    Ok(negatives)
}

/// Count one chunk and return its negatives, in candidate order.
#[allow(clippy::too_many_arguments)]
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
) -> Result<(Vec<NegativeItemset>, Scan), Error> {
    let (itemsets, derived): (Vec<_>, Vec<_>) = chunk
        .into_iter()
        .map(|c| (c.itemset, (c.expected, c.derivation)))
        .unzip();
    // Candidates may contain categories; transactions must be extended with
    // exactly the ancestors the candidates can use (the Cumulate filter).
    let run = count_mixed_parallel(
        source,
        itemsets,
        backend,
        Extension::NeededAncestors(ancestors),
        parallelism,
        ctrl,
        obs,
    )
    .map_err(Error::Io)?;
    // The counts come back one per candidate, in input order, so they zip
    // with the expectations by position.
    if run.counts.len() != derived.len() {
        return Err(Error::Invariant(format!(
            "the negative pass counted {} itemsets for {} candidates",
            run.counts.len(),
            derived.len()
        )));
    }
    let (counts, scan) = run.into_parts();
    let negatives = counts
        .into_iter()
        .zip(derived)
        .filter(|&((_, actual), (expected, _))| {
            is_negative(expected, actual, min_support_count, min_ri)
        })
        .map(
            |((itemset, actual), (expected, derivation))| NegativeItemset {
                itemset,
                expected,
                actual,
                derivation: Some(derivation),
            },
        )
        .collect();
    Ok((negatives, scan))
}

#[cfg(test)]
mod tests {
    use super::*;
    use negassoc_apriori::Itemset;
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
        let obs = Obs::disabled();
        let negs = confirm_negatives(
            &pc,
            &ancestors,
            candidates.clone(),
            CountingBackend::TidBitmap,
            None,
            5,
            0.5,
            Parallelism::Sequential,
            None,
            &obs,
        )
        .unwrap();
        let stats = obs.passes();
        assert_eq!(stats.len(), 1);
        assert_eq!(stats[0].pass, 1);
        assert_eq!(stats[0].label, "negative");
        assert_eq!(stats[0].candidates, 3);
        assert_eq!(stats[0].transactions, 20);
        assert_eq!(stats[0].threads, 1);
        assert_eq!(pc.passes(), 1);
        // {a,b}: actual 0, deviation 8 >= 2.5 -> negative.
        // {b,other}: actual 0, deviation 5 -> negative.
        // {cat,other}: actual 10, deviation 0 -> not negative.
        assert_eq!(negs.len(), 2);
        assert!(negs.iter().all(|n| n.actual == 0));

        // With a cap of 1 candidate per pass: 3 passes, numbered on from
        // the passes already on the ledger, and the very same negatives
        // (itemsets, supports and derivations, in candidate order).
        pc.reset();
        let negs2 = confirm_negatives(
            &pc,
            &ancestors,
            candidates,
            CountingBackend::SubsetHashMap,
            Some(1),
            5,
            0.5,
            Parallelism::Threads(2),
            None,
            &obs,
        )
        .unwrap();
        let stats2 = obs.passes();
        let numbers: Vec<u64> = stats2.iter().map(|s| s.pass).collect();
        assert_eq!(numbers, [1, 2, 3, 4], "numbered on from the first pass");
        assert!(stats2[1..]
            .iter()
            .all(|s| s.threads == 2 && s.candidates == 1));
        assert_eq!(pc.passes(), 3);
        assert_eq!(negs2, negs, "chunking never changes the negatives");
    }

    #[test]
    fn empty_candidates_make_no_pass() {
        let tax = TaxonomyBuilder::new().build();
        let ancestors = AncestorTable::new(&tax);
        let db = TransactionDbBuilder::new().build();
        let pc = PassCounter::new(db);
        let obs = Obs::disabled();
        let negs = confirm_negatives(
            &pc,
            &ancestors,
            Vec::new(),
            CountingBackend::TidBitmap,
            None,
            1,
            0.5,
            Parallelism::Sequential,
            None,
            &obs,
        )
        .unwrap();
        assert!(obs.passes().is_empty());
        assert!(negs.is_empty());
        assert_eq!(pc.passes(), 0);
    }
}
