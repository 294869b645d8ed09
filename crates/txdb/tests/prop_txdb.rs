//! Property-based tests for the transaction database substrate.

use negassoc_taxonomy::{ItemId, Taxonomy, TaxonomyBuilder};
use negassoc_txdb::TransactionSource;
use negassoc_txdb::{
    binfmt, fault, partition, textfmt, vertical, TransactionDb, TransactionDbBuilder,
};
use proptest::prelude::*;

fn arb_db() -> impl Strategy<Value = TransactionDb> {
    prop::collection::vec(prop::collection::vec(0u32..200, 0..12), 0..40).prop_map(|txs| {
        let mut b = TransactionDbBuilder::new();
        for t in txs {
            b.add(t.into_iter().map(ItemId));
        }
        b.build()
    })
}

/// Items of the generalized cases: a forest small enough that random
/// transactions hit shared ancestors often.
const TAX_ITEMS: u32 = 24;

/// A random forest over `0..TAX_ITEMS` (item `i`'s parent drawn from
/// `0..i` or none).
fn arb_taxonomy() -> impl Strategy<Value = Taxonomy> {
    prop::collection::vec(prop::option::weighted(0.7, 0u32..1000), TAX_ITEMS as usize).prop_map(
        |parents| {
            let mut b = TaxonomyBuilder::new();
            for (i, p) in parents.iter().enumerate() {
                let name = format!("item{i}");
                match p {
                    Some(raw) if i > 0 => {
                        b.add_child(ItemId(raw % i as u32), &name).unwrap();
                    }
                    _ => {
                        b.add_root(&name);
                    }
                }
            }
            b.build()
        },
    )
}

fn arb_tax_db() -> impl Strategy<Value = TransactionDb> {
    prop::collection::vec(prop::collection::vec(0u32..TAX_ITEMS, 0..6), 0..40).prop_map(|txs| {
        let mut b = TransactionDbBuilder::new();
        for t in txs {
            b.add(t.into_iter().map(ItemId));
        }
        b.build()
    })
}

fn db_eq(a: &TransactionDb, b: &TransactionDb) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b.iter())
            .all(|(x, y)| x.tid() == y.tid() && x.items() == y.items())
}

proptest! {
    #[test]
    fn binary_format_round_trips(db in arb_db()) {
        let mut buf = Vec::new();
        binfmt::write_db(&db, &mut buf).unwrap();
        // Decode through the file loader path by going via a temp file.
        let dir = std::env::temp_dir();
        let path = dir.join(format!("prop-{}-{}.nadb", std::process::id(), db.len()));
        std::fs::write(&path, &buf).unwrap();
        let back = binfmt::load(&path).unwrap();
        std::fs::remove_file(&path).ok();
        prop_assert!(db_eq(&db, &back));
    }

    #[test]
    fn text_format_round_trips(db in arb_db()) {
        let mut buf = Vec::new();
        textfmt::write_db(&db, &mut buf).unwrap();
        let back = textfmt::read_db(buf.as_slice()).unwrap();
        // Text format re-assigns sequential TIDs, which matches the builder
        // defaults used by arb_db.
        prop_assert!(db_eq(&db, &back));
    }

    /// TID-bitmap supports agree with brute-force counting.
    #[test]
    fn vertical_support_matches_bruteforce(
        db in arb_db(),
        query in prop::collection::btree_set(0u32..200, 1..4),
    ) {
        let idx = vertical::TidBitmap::build(&db).unwrap();
        let itemset: Vec<ItemId> = query.into_iter().map(ItemId).collect();
        let brute = db
            .iter()
            .filter(|t| t.contains_all(&itemset))
            .count() as u64;
        prop_assert_eq!(idx.support(&itemset), brute);
        prop_assert_eq!(idx.num_transactions(), db.len() as u64);
    }

    /// Generalized TID-bitmap supports agree with brute force over
    /// ancestor-extended transactions: a transaction supports an itemset
    /// when, for every member, it holds the member or a descendant of it.
    #[test]
    fn generalized_vertical_support_matches_bruteforce(
        db in arb_tax_db(),
        tax in arb_taxonomy(),
        query in prop::collection::btree_set(0u32..TAX_ITEMS, 1..4),
    ) {
        let idx = vertical::TidBitmap::build_generalized(&db, &tax).unwrap();
        let itemset: Vec<ItemId> = query.into_iter().map(ItemId).collect();
        let brute = db
            .iter()
            .filter(|t| {
                itemset.iter().all(|&m| {
                    t.items().iter().any(|&it| it == m || tax.is_ancestor(m, it))
                })
            })
            .count() as u64;
        prop_assert_eq!(idx.support(&itemset), brute, "{:?}", itemset);
    }

    /// Partitions are a disjoint cover in order.
    #[test]
    fn partitions_cover(db in arb_db(), n in 1usize..8) {
        let parts = partition::partitions(&db, n);
        let mut tids = Vec::new();
        for p in &parts {
            p.pass(&mut |t| tids.push(t.tid())).unwrap();
        }
        let expected: Vec<u64> = db.iter().map(|t| t.tid()).collect();
        prop_assert_eq!(tids, expected);
    }

    /// Transactions always satisfy the sorted/dedup invariant after building.
    #[test]
    fn builder_normalizes(raw in prop::collection::vec(0u32..50, 0..20)) {
        let mut b = TransactionDbBuilder::new();
        b.add(raw.iter().copied().map(ItemId));
        let db = b.build();
        let t = db.get(0);
        prop_assert!(t.items().windows(2).all(|w| w[0] < w[1]));
        for &r in &raw {
            prop_assert!(t.contains(ItemId(r)));
        }
    }

    /// Decode fuzz: `binfmt::load` on arbitrary bytes errors, never panics
    /// (and never fabricates data when the magic happens to match).
    #[test]
    fn load_survives_random_bytes(bytes in prop::collection::vec(0u8..=255, 0..400)) {
        let path = unique_tmp("fuzz-raw");
        std::fs::write(&path, &bytes).unwrap();
        let _ = binfmt::load(&path); // Ok or Err both fine; a panic fails the test.
        let _ = binfmt::load_salvage(&path);
        std::fs::remove_file(&path).ok();
    }

    /// Decode fuzz with a valid prefix: random bytes appended to or
    /// overwriting a real v2 file must never panic the loader, and strict
    /// mode must not silently accept a payload-corrupted file.
    #[test]
    fn load_survives_corrupted_valid_files(
        db in arb_db(),
        noise in prop::collection::vec(0u8..=255, 1..64),
        at in 0usize..1000,
    ) {
        let mut buf = Vec::new();
        binfmt::write_db(&db, &mut buf).unwrap();
        let at = at % buf.len().max(1);
        for (k, &b) in noise.iter().enumerate() {
            if let Some(slot) = buf.get_mut(at + k) {
                *slot ^= b;
            }
        }
        let path = unique_tmp("fuzz-corrupt");
        std::fs::write(&path, &buf).unwrap();
        match binfmt::load(&path) {
            // Strict load may only succeed when the noise XORed nothing.
            Ok(back) => prop_assert!(noise.iter().all(|&b| b == 0) && db_eq(&db, &back)),
            Err(_) => {}
        }
        let _ = binfmt::load_salvage(&path);
        std::fs::remove_file(&path).ok();
    }

    /// Any single payload-corrupted block: strict errors, salvage recovers
    /// exactly the other blocks and accounts every transaction.
    #[test]
    fn single_block_corruption_strict_vs_salvage(
        n in 600u64..1500,
        block in 0u64..3,
        flip in 1u8..=255,
    ) {
        let mut b = TransactionDbBuilder::new();
        for i in 0..n {
            b.add([ItemId(i as u32 % 40)]);
        }
        let db = b.build();
        let mut buf = Vec::new();
        binfmt::write_db(&db, &mut buf).unwrap();
        // Walk the block framing to find `block`'s first payload byte.
        let blocks = (n as usize).div_ceil(512) as u64;
        let block = block % blocks;
        let mut off = 13usize;
        for _ in 0..block {
            let payload_len = u32::from_le_bytes([buf[off], buf[off+1], buf[off+2], buf[off+3]]) as usize;
            off += 32 + payload_len;
        }
        buf[off + 32] ^= flip;
        let path = unique_tmp("fuzz-block");
        std::fs::write(&path, &buf).unwrap();

        prop_assert!(binfmt::load(&path).is_err(), "strict mode must fail closed");
        let (recovered, report) = binfmt::load_salvage(&path).unwrap();
        prop_assert_eq!(report.lost_blocks.len(), 1);
        prop_assert_eq!(recovered.len() as u64 + report.lost_transactions(), n);
        // The lost-TID report is exact for this sequential-TID database.
        let lost = &report.lost_blocks[0];
        prop_assert_eq!(u64::from(lost.tx_count), lost.last_tid - lost.first_tid + 1);
        for t in recovered.iter() {
            prop_assert!(t.tid() < lost.first_tid || t.tid() > lost.last_tid);
        }
        std::fs::remove_file(&path).ok();
    }

    /// Mining-style consumption under a seeded transient fault plan with
    /// retry sees exactly the fault-free transaction stream, pass after
    /// pass.
    #[test]
    fn retried_passes_match_fault_free(db in arb_db(), seed in 0u64..1u64<<48, n_faults in 0usize..4) {
        let plan = fault::FaultPlan::seeded_transient(seed, 4, db.len().max(1) as u64, n_faults);
        let faulty = fault::RetryingSource::new(
            fault::FaultySource::new(&db, plan),
            fault::RetryPolicy::new(n_faults as u32, std::time::Duration::ZERO),
        );
        for _pass in 0..4 {
            let mut clean = Vec::new();
            db.pass(&mut |t| clean.push((t.tid(), t.items().to_vec()))).unwrap();
            let mut seen = Vec::new();
            faulty.pass(&mut |t| seen.push((t.tid(), t.items().to_vec()))).unwrap();
            prop_assert_eq!(&seen, &clean);
        }
    }
}

/// A collision-free temp path (unique per process, test and call).
fn unique_tmp(name: &str) -> std::path::PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("negassoc-prop-{}-{n}-{name}", std::process::id()))
}
