//! End-to-end fault tolerance: the subsystems (checksummed storage, fault
//! injection + retry, checkpoint/resume, graceful degradation) composed
//! through the full mining pipeline on generated data.

use negassoc::config::MinerConfig;
use negassoc::{NegativeMiner, RunControl};
use negassoc_apriori::MinSupport;
use negassoc_datagen::{generate, presets};
use negassoc_taxonomy::{ItemId, Taxonomy};
use negassoc_txdb::fault::{
    FaultPlan, FaultySource, RetryPolicy, RetryingSource, SourceFault, SourceFaultKind,
};
use negassoc_txdb::{binfmt, TransactionDb};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// A unique temp path, removed (file or directory) on drop so panicking
/// tests leak nothing and parallel runs never collide.
struct TmpPath(PathBuf);

impl TmpPath {
    fn new(name: &str) -> Self {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let n = SEQ.fetch_add(1, Ordering::Relaxed);
        Self(std::env::temp_dir().join(format!("negassoc-ft-{}-{n}-{name}", std::process::id())))
    }
}

impl Drop for TmpPath {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn scenario() -> (Taxonomy, TransactionDb) {
    let ds = generate(&presets::scaled(presets::short(), 400));
    (ds.taxonomy, ds.db)
}

fn config() -> MinerConfig {
    MinerConfig {
        min_support: MinSupport::Fraction(0.04),
        min_ri: 0.4,
        max_negative_size: Some(2),
        ..MinerConfig::default()
    }
}

/// Rules as comparable tuples (bitwise on the floats: the runs under test
/// must be *identical*, not merely close).
fn rule_keys(out: &negassoc::MiningOutcome) -> Vec<(Vec<ItemId>, Vec<ItemId>, u64, u64)> {
    let mut keys: Vec<_> = out
        .rules
        .iter()
        .map(|r| {
            (
                r.antecedent.items().to_vec(),
                r.consequent.items().to_vec(),
                r.ri.to_bits(),
                r.actual,
            )
        })
        .collect();
    keys.sort();
    keys
}

#[test]
fn transient_faults_healed_by_retry_leave_results_unchanged() {
    let (tax, db) = scenario();
    let miner = NegativeMiner::new(config());
    let clean = miner.mine(&db, &tax).unwrap();

    // Four deterministic transient failures spread over the first passes;
    // the retrying wrapper re-drives each failed pass with exactly-once
    // delivery, so the miner never notices.
    let plan = FaultPlan::seeded_transient(0xFA57, 6, db.len().max(1) as u64, 4);
    let n_faults = plan.len() as u32;
    let faulty = FaultySource::new(&db, plan);
    let retrying = RetryingSource::new(faulty, RetryPolicy::new(n_faults, Duration::ZERO));
    let healed = miner.mine(&retrying, &tax).unwrap();

    assert!(retrying.retries_used() > 0, "the plan must actually fire");
    assert_eq!(rule_keys(&healed), rule_keys(&clean));
}

#[test]
fn interrupted_run_resumes_from_checkpoints_with_identical_results() {
    let (tax, db) = scenario();
    let miner = NegativeMiner::new(config());
    let clean = miner.mine(&db, &tax).unwrap();

    let dir = TmpPath::new("ckpt");
    // First attempt dies on a permanent fault partway through mining.
    let plan = FaultPlan::new(vec![SourceFault {
        pass: 2,
        at_transaction: 10,
        kind: SourceFaultKind::PermanentError,
    }]);
    let faulty = FaultySource::new(&db, plan);
    miner
        .mine_with_controls(&faulty, &tax, None, Some(&dir.0), &RunControl::new())
        .unwrap_err();
    let leftover = std::fs::read_dir(&dir.0).unwrap().count();
    assert!(leftover > 0, "the failed run must leave checkpoints behind");

    // Second attempt resumes from the surviving checkpoints and must be
    // indistinguishable from the uninterrupted run.
    let resumed = miner
        .mine_with_controls(&db, &tax, None, Some(&dir.0), &RunControl::new())
        .unwrap();
    assert_eq!(rule_keys(&resumed), rule_keys(&clean));
    // Success clears the checkpoints.
    assert_eq!(std::fs::read_dir(&dir.0).unwrap().count(), 0);
}

#[test]
fn corrupted_storage_fails_strictly_and_salvages_a_certified_subset() {
    let (tax, db) = scenario();
    let file = TmpPath::new("db.nadb");
    binfmt::save(&db, &file.0).unwrap();

    // Corrupt one payload byte in the middle of the file.
    let mut bytes = std::fs::read(&file.0).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&file.0, &bytes).unwrap();

    // Strict load refuses.
    let err = binfmt::load(&file.0).unwrap_err();
    assert!(
        err.get_ref()
            .is_some_and(|e| e.downcast_ref::<binfmt::CorruptBlock>().is_some()),
        "strict failure must carry the corrupt-block report, got: {err}"
    );

    // Salvage recovers the intact blocks, reports the losses exactly, and
    // the recovered subset is still minable.
    let (salvaged, report) = binfmt::load_salvage(&file.0).unwrap();
    assert!(!report.is_clean());
    assert_eq!(
        report.recovered + report.lost_transactions(),
        db.len() as u64
    );
    assert_eq!(salvaged.len() as u64, report.recovered);
    NegativeMiner::new(config()).mine(&salvaged, &tax).unwrap();
}

#[test]
fn memory_budget_degrades_gracefully_instead_of_growing_unbounded() {
    let (tax, db) = scenario();
    let clean = NegativeMiner::new(config()).mine(&db, &tax).unwrap();

    // A budget too small for the level-wise candidate sets: the driver
    // must fall back to the partitioned path and still produce identical
    // results from this in-memory database.
    let budgeted = NegativeMiner::new(MinerConfig {
        memory_budget: Some(64 << 10),
        ..config()
    })
    .mine(&db, &tax);
    match budgeted {
        Ok(out) => assert_eq!(rule_keys(&out), rule_keys(&clean)),
        // A budget that even the degraded path cannot honor must surface
        // as the typed budget error, never an abort.
        Err(negassoc::Error::Budget(msg)) => {
            assert!(msg.contains("budget"), "{msg}");
        }
        Err(other) => panic!("unexpected error kind: {other}"),
    }
}
