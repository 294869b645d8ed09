//! Pins the paper's pass-count claims (§2.2): the naive driver makes two
//! passes per level (`2n` shape) while the improved driver makes one pass
//! per positive level plus a single negative-counting pass (`n + 1`), with
//! extra passes only under the §2.5 memory cap.

use negassoc::config::{Driver, GenAlgorithm};
use negassoc::ctrl::RunControl;
use negassoc::obs::{Event, Obs, RingBufferSink};
use negassoc::{MinerConfig, MiningOutcome, NegativeMiner};
use negassoc_apriori::MinSupport;
use negassoc_taxonomy::{Taxonomy, TaxonomyBuilder};
use negassoc_txdb::fault::{FaultPlan, FaultySource, SourceFault, SourceFaultKind};
use negassoc_txdb::{PassCounter, TransactionDb, TransactionDbBuilder};
use std::ops::RangeFrom;
use std::sync::Arc;

/// Three categories of two brands each; one brand-triple dominates, so
/// large itemsets reach size 3 and negative candidates exist at sizes 2
/// and 3.
fn deep_scenario() -> (Taxonomy, TransactionDb) {
    let mut tb = TaxonomyBuilder::new();
    let mut brands = Vec::new();
    for cat in ["drinks", "snacks", "dips"] {
        let c = tb.add_root(cat);
        for brand in ["alpha", "beta"] {
            brands.push(tb.add_child(c, &format!("{cat}-{brand}")).unwrap());
        }
    }
    let tax = tb.build();
    let [da, db_, sa, sb, pa, pb]: [negassoc_taxonomy::ItemId; 6] = brands.try_into().unwrap();

    let mut db = TransactionDbBuilder::new();
    // The dominant triple: alpha everything.
    for _ in 0..40 {
        db.add([da, sa, pa]);
    }
    // Make the beta brands individually large, never with the alphas.
    for _ in 0..25 {
        db.add([db_, sb, pb]);
    }
    for _ in 0..15 {
        db.add([db_]);
    }
    for _ in 0..10 {
        db.add([sb]);
    }
    for _ in 0..10 {
        db.add([pb]);
    }
    (tax, db.build())
}

fn config(driver: Driver) -> MinerConfig {
    MinerConfig {
        min_support: MinSupport::Fraction(0.15),
        min_ri: 0.2,
        driver,
        ..MinerConfig::default()
    }
}

#[test]
fn improved_beats_naive_on_passes() {
    let (tax, db) = deep_scenario();
    let pc = PassCounter::new(db);

    let improved = NegativeMiner::new(config(Driver::Improved))
        .mine(&pc, &tax)
        .unwrap();
    let improved_passes = pc.passes();
    assert_eq!(improved.report.passes, improved_passes);

    pc.reset();
    let naive = NegativeMiner::new(config(Driver::Naive))
        .mine(&pc, &tax)
        .unwrap();
    let naive_passes = pc.passes();
    assert_eq!(naive.report.passes, naive_passes);

    // Positive mining reaches at least level 3 (the alpha triple and the
    // generalized triples are large), so there are >= 2 negative levels
    // and the naive driver must pay for each one.
    assert!(
        improved.report.levels >= 3,
        "levels {}",
        improved.report.levels
    );
    assert!(
        improved_passes < naive_passes,
        "improved {improved_passes} vs naive {naive_passes}"
    );
    // The exact shapes: improved = positive passes + 1.
    // Naive pays one extra pass per level >= 2 with candidates.
    assert_eq!(improved.negatives.len(), naive.negatives.len());
}

#[test]
fn improved_is_positive_passes_plus_one() {
    let (tax, db) = deep_scenario();
    // Measure pure positive mining passes with the same algorithm.
    let pc = PassCounter::new(db);
    negassoc_apriori::cumulate::cumulate(
        &pc,
        &tax,
        MinSupport::Fraction(0.15),
        Default::default(),
        Default::default(),
        None,
        &Obs::disabled(),
    )
    .unwrap();
    let positive_passes = pc.passes();

    pc.reset();
    let out = NegativeMiner::new(config(Driver::Improved))
        .mine(&pc, &tax)
        .unwrap();
    assert_eq!(pc.passes(), positive_passes + 1);
    assert!(!out.negatives.is_empty());
}

#[test]
fn memory_cap_adds_exactly_ceil_passes() {
    let (tax, db) = deep_scenario();
    let pc = PassCounter::new(db);
    let base = NegativeMiner::new(config(Driver::Improved))
        .mine(&pc, &tax)
        .unwrap();
    let base_passes = pc.passes();
    let total_candidates = base.report.candidates.unique as usize;
    assert!(total_candidates >= 2);

    // Cap at half the candidates: the single counting pass becomes two.
    pc.reset();
    let cap = total_candidates.div_ceil(2);
    let capped = NegativeMiner::new(MinerConfig {
        max_candidates_per_pass: Some(cap),
        ..config(Driver::Improved)
    })
    .mine(&pc, &tax)
    .unwrap();
    assert_eq!(pc.passes(), base_passes + 1);
    assert_eq!(capped.negatives.len(), base.negatives.len());
    assert_eq!(capped.rules.len(), base.rules.len());

    // Cap of one candidate per pass: counting passes equal the number of
    // candidates.
    pc.reset();
    let single = NegativeMiner::new(MinerConfig {
        max_candidates_per_pass: Some(1),
        ..config(Driver::Improved)
    })
    .mine(&pc, &tax)
    .unwrap();
    assert_eq!(pc.passes(), base_passes - 1 + total_candidates as u64);
    assert_eq!(single.negatives.len(), base.negatives.len());
}

#[test]
fn file_backed_source_counts_identically() {
    // The same mining run over a streamed file source must make the same
    // passes and find the same rules as the in-memory database.
    let (tax, db) = deep_scenario();
    let dir = std::env::temp_dir();
    let path = dir.join(format!("negassoc-pass-{}.nadb", std::process::id()));
    negassoc_txdb::binfmt::save(&db, &path).unwrap();
    let file_source = negassoc_txdb::binfmt::FileSource::open(&path).unwrap();

    let mem = NegativeMiner::new(config(Driver::Improved))
        .mine(&db, &tax)
        .unwrap();
    let file = NegativeMiner::new(config(Driver::Improved))
        .mine(&file_source, &tax)
        .unwrap();
    std::fs::remove_file(&path).ok();

    assert_eq!(mem.report.passes, file.report.passes);
    assert_eq!(mem.negatives.len(), file.negatives.len());
    assert_eq!(mem.rules.len(), file.rules.len());
}

/// The `(pass, label)` of every `pass_end` in `events`.
fn pass_ends(events: Vec<Event>) -> Vec<(u64, String)> {
    events
        .into_iter()
        .filter_map(|e| match e {
            Event::PassEnd { stats } => Some((stats.pass, stats.label)),
            _ => None,
        })
        .collect()
}

/// The `(pass, label)` of every row of a run's pass table, after checking
/// that the trace's `pass_end` events carry exactly those numbers and
/// that the rows are numbered `1..=n`.
fn checked_rows(out: &MiningOutcome, events: Vec<Event>, what: &str) -> Vec<(u64, String)> {
    let rows: Vec<(u64, String)> = out
        .report
        .pass_stats
        .iter()
        .map(|s| (s.pass, s.label.clone()))
        .collect();
    assert_eq!(pass_ends(events), rows, "{what}");
    let numbers: Vec<u64> = rows.iter().map(|r| r.0).collect();
    let want: Vec<u64> = (1..=rows.len() as u64).collect();
    assert_eq!(numbers, want, "{what}");
    rows
}

#[test]
fn pass_end_events_carry_the_numbers_of_the_pass_rows() {
    // The trace and the pass table number every pass alike: the naive
    // driver interleaves positive and negative passes level by level, the
    // improved one ends with its negative pass (split in three by the
    // cap, so the chunk passes are numbered on too), EstMerge makes
    // sample and batch passes, and a memory budget too small for the L2
    // candidates hands the positive phase to Partition after the L1 pass.
    let (tax, db) = deep_scenario();
    let capped = MinerConfig {
        max_candidates_per_pass: Some(2),
        ..config(Driver::Improved)
    };
    let est_merge = MinerConfig {
        algorithm: GenAlgorithm::EstMerge(Default::default()),
        ..config(Driver::Improved)
    };
    let budgeted = MinerConfig {
        memory_budget: Some(PARTITION_BUDGET),
        ..config(Driver::Improved)
    };
    let cases: [(&str, MinerConfig, &[&str], RangeFrom<usize>); 5] = [
        ("naive", config(Driver::Naive), &["L1", "L2", "L3"], 2..),
        (
            "improved",
            config(Driver::Improved),
            &["L1", "L2", "L3"],
            1..,
        ),
        ("capped", capped, &["L1", "L2", "L3"], 3..),
        ("estmerge", est_merge, &["est_sample", "est_batch"], 1..),
        (
            "partition fallback",
            budgeted,
            &["L1", "partition_local", "partition_verify"],
            1..,
        ),
    ];
    for (what, config, positive, negative_passes) in cases {
        // Two runs on one observer: each starts a fresh ledger.
        let ring = Arc::new(RingBufferSink::new(10_000));
        let ctrl = RunControl::new().with_observer(Obs::disabled().with_sink(ring.clone()));
        let miner = NegativeMiner::new(config);
        let first = miner
            .mine_with_controls(&db, &tax, None, None, &ctrl)
            .unwrap();
        let first_rows = checked_rows(&first, ring.drain(), what);
        let second = miner
            .mine_with_controls(&db, &tax, None, None, &ctrl)
            .unwrap();
        let second_rows = checked_rows(&second, ring.drain(), what);
        assert_eq!(
            second_rows, first_rows,
            "{what}: the second run numbers from 1"
        );

        assert_eq!(first.report.passes, first_rows.len() as u64, "{what}");
        for label in positive {
            assert!(
                first_rows.iter().any(|r| r.1 == *label),
                "{what}: no {label} row in {first_rows:?}"
            );
        }
        let negatives = first_rows.iter().filter(|r| r.1 == "negative").count();
        assert!(
            negative_passes.contains(&negatives),
            "{what}: {negatives} negative passes"
        );
    }
}

/// A memory budget whose candidate cap is below the deep scenario's L2
/// candidates but holds every negative candidate set it generates.
const PARTITION_BUDGET: usize = 160 * 24;

#[test]
fn a_resumed_run_numbers_its_own_passes_from_one() {
    // The checkpoint paid for the L1 pass; the resumed run's table holds
    // the passes it made itself, numbered from 1, and its total counts
    // the restored pass too.
    let (tax, db) = deep_scenario();
    let miner = NegativeMiner::new(config(Driver::Improved));
    let fresh = miner.mine(&db, &tax).unwrap();
    let dir = std::env::temp_dir().join(format!("negassoc-pass-resume-{}", std::process::id()));
    let faulty = FaultySource::new(
        &db,
        // Fail the second pass (passes count from 0 here), the L2 pass.
        FaultPlan::new(vec![SourceFault {
            pass: 1,
            at_transaction: 0,
            kind: SourceFaultKind::PermanentError,
        }]),
    );
    assert!(miner
        .mine_with_controls(&faulty, &tax, None, Some(&dir), &RunControl::new())
        .is_err());

    let ring = Arc::new(RingBufferSink::new(10_000));
    let ctrl = RunControl::new().with_observer(Obs::disabled().with_sink(ring.clone()));
    let resumed = miner
        .mine_with_controls(&db, &tax, None, Some(&dir), &ctrl)
        .unwrap();
    std::fs::remove_dir_all(&dir).ok();
    let rows = checked_rows(&resumed, ring.snapshot(), "resumed");
    assert_eq!(rows[0].1, "L2", "the restored L1 pass has no row: {rows:?}");
    assert_eq!(resumed.report.passes, fresh.report.passes);
    assert_eq!(resumed.report.passes, rows.len() as u64 + 1);
    assert_eq!(resumed.rules.len(), fresh.rules.len());
}
