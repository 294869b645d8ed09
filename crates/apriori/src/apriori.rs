//! Flat (taxonomy-less) Apriori — the baseline frequent-itemset miner of
//! Agrawal & Srikant (VLDB '94). One pass per level: level 1 counts item
//! occurrences directly, higher levels count `apriori-gen` candidates with
//! the configured backend.

use crate::count::CountingBackend;
use crate::gen::{apriori_gen, pairs_of};
use crate::itemset::{Itemset, LargeItemsets};
use crate::parallel::{count_mixed_parallel, identity_sync_mapper, Obs, Parallelism};
use crate::MinSupport;
use negassoc_taxonomy::ItemId;
use negassoc_txdb::TransactionSource;
use std::io;

/// Mine all large itemsets of `source`.
pub fn apriori<S: TransactionSource + ?Sized>(
    source: &S,
    min_support: MinSupport,
    backend: CountingBackend,
) -> io::Result<LargeItemsets> {
    // Pass 1: item counts.
    let mut counts: Vec<u64> = Vec::new();
    let mut num_transactions = 0u64;
    source.pass(&mut |t| {
        num_transactions += 1;
        for &it in t.items() {
            let idx = it.index();
            if idx >= counts.len() {
                counts.resize(idx + 1, 0);
            }
            counts[idx] += 1;
        }
    })?;
    let minsup = min_support.to_count(num_transactions);
    let mut large = LargeItemsets::new(num_transactions, minsup);

    let mut frontier: Vec<Itemset> = Vec::new();
    let mut large_1: Vec<ItemId> = Vec::new();
    for (idx, &c) in counts.iter().enumerate() {
        if c >= minsup {
            let item = ItemId(idx as u32);
            large_1.push(item);
            let set = Itemset::singleton(item);
            frontier.push(set.clone());
            large.insert(set, c);
        }
    }

    // Levels >= 2: candidate generation + one counting pass each.
    let mut k = 2;
    loop {
        let candidates = if k == 2 {
            pairs_of(&large_1)
        } else {
            apriori_gen(&frontier)
        };
        if candidates.is_empty() {
            break;
        }
        let counted = count_mixed_parallel(
            source,
            candidates,
            backend,
            &identity_sync_mapper,
            Parallelism::Sequential,
            None,
            &Obs::disabled(),
        )?;
        frontier.clear();
        for (set, count) in counted.counts {
            if count >= minsup {
                frontier.push(set.clone());
                large.insert(set, count);
            }
        }
        if frontier.is_empty() {
            break;
        }
        k += 1;
    }
    Ok(large)
}

#[cfg(test)]
mod tests {
    use super::*;
    use negassoc_txdb::{PassCounter, TransactionDbBuilder};

    fn ids(v: &[u32]) -> Vec<ItemId> {
        v.iter().map(|&i| ItemId(i)).collect()
    }

    /// The worked example of Agrawal & Srikant (VLDB '94), Figure 3-ish:
    /// four transactions, minsup 2.
    fn textbook_db() -> negassoc_txdb::TransactionDb {
        let mut b = TransactionDbBuilder::new();
        b.add(ids(&[1, 3, 4]));
        b.add(ids(&[2, 3, 5]));
        b.add(ids(&[1, 2, 3, 5]));
        b.add(ids(&[2, 5]));
        b.build()
    }

    #[test]
    fn textbook_example() {
        let large = apriori(
            &textbook_db(),
            MinSupport::Count(2),
            CountingBackend::TidBitmap,
        )
        .unwrap();
        assert_eq!(large.num_transactions(), 4);
        assert_eq!(large.min_support_count(), 2);
        // L1 = {1},{2},{3},{5}; item 4 appears once.
        assert_eq!(large.level_len(1), 4);
        assert_eq!(large.support_of(&ids(&[1])), Some(2));
        assert_eq!(large.support_of(&ids(&[4])), None);
        // L2 = {1,3},{2,3},{2,5},{3,5}.
        assert_eq!(large.level_len(2), 4);
        assert_eq!(large.support_of(&ids(&[2, 5])), Some(3));
        assert_eq!(large.support_of(&ids(&[1, 2])), None);
        // L3 = {2,3,5}.
        assert_eq!(large.level_len(3), 1);
        assert_eq!(large.support_of(&ids(&[2, 3, 5])), Some(2));
        assert_eq!(large.max_level(), 3);
    }

    #[test]
    fn backends_agree() {
        let a = apriori(
            &textbook_db(),
            MinSupport::Fraction(0.5),
            CountingBackend::TidBitmap,
        )
        .unwrap();
        let b = apriori(
            &textbook_db(),
            MinSupport::Fraction(0.5),
            CountingBackend::SubsetHashMap,
        )
        .unwrap();
        assert_eq!(a.total(), b.total());
        for (set, sup) in a.iter() {
            assert_eq!(b.support_of_set(set), Some(sup));
        }
    }

    #[test]
    fn one_pass_per_level_plus_one() {
        let pc = PassCounter::new(textbook_db());
        let large = apriori(&pc, MinSupport::Count(2), CountingBackend::TidBitmap).unwrap();
        // Passes: 1 (items) + one per counted level (2, 3) + one for the
        // empty level-4 candidate check? No: level-4 candidates are empty
        // (apriori_gen from a single L3 itemset), so no extra pass.
        assert_eq!(large.max_level(), 3);
        assert_eq!(pc.passes(), 3);
    }

    #[test]
    fn empty_database() {
        let db = TransactionDbBuilder::new().build();
        let large = apriori(&db, MinSupport::Fraction(0.1), CountingBackend::TidBitmap).unwrap();
        assert_eq!(large.total(), 0);
    }

    #[test]
    fn minsup_equal_to_db_size() {
        let mut b = TransactionDbBuilder::new();
        b.add(ids(&[1, 2]));
        b.add(ids(&[1, 2]));
        let large = apriori(
            &b.build(),
            MinSupport::Fraction(1.0),
            CountingBackend::TidBitmap,
        )
        .unwrap();
        assert_eq!(large.support_of(&ids(&[1, 2])), Some(2));
        assert_eq!(large.total(), 3);
    }
}
