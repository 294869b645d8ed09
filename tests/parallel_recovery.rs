//! Checkpoint/resume composed with the parallel counting layer: a run
//! interrupted mid-pass and resumed under `--threads 4` must be
//! *bitwise* identical to an uninterrupted sequential run, and
//! checkpoints must be interchangeable across thread counts (the
//! fingerprint deliberately ignores the parallelism policy).

use negassoc::config::MinerConfig;
use negassoc::{NegativeMiner, Parallelism, RunControl};
use negassoc_apriori::MinSupport;
use negassoc_datagen::{generate, presets};
use negassoc_taxonomy::{ItemId, Taxonomy};
use negassoc_txdb::fault::{FaultPlan, FaultySource, SourceFault, SourceFaultKind};
use negassoc_txdb::TransactionDb;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// A unique temp dir, removed on drop.
struct TmpDir(PathBuf);

impl TmpDir {
    fn new(name: &str) -> Self {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let n = SEQ.fetch_add(1, Ordering::Relaxed);
        Self(std::env::temp_dir().join(format!("negassoc-pr-{}-{n}-{name}", std::process::id())))
    }
}

impl Drop for TmpDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn scenario() -> (Taxonomy, TransactionDb) {
    let ds = generate(&presets::scaled(presets::short(), 400));
    (ds.taxonomy, ds.db)
}

fn config(parallelism: Parallelism) -> MinerConfig {
    MinerConfig {
        min_support: MinSupport::Fraction(0.04),
        min_ri: 0.4,
        max_negative_size: Some(2),
        parallelism,
        ..MinerConfig::default()
    }
}

/// Every number a run reports, floats taken bitwise: two runs compare
/// equal here only when they are indistinguishable to a caller.
fn outcome_key(out: &negassoc::MiningOutcome) -> Vec<(Vec<ItemId>, Vec<ItemId>, u64, u64, u64)> {
    let mut keys: Vec<_> = out
        .rules
        .iter()
        .map(|r| {
            (
                r.antecedent.items().to_vec(),
                r.consequent.items().to_vec(),
                r.ri.to_bits(),
                r.expected.to_bits(),
                r.actual,
            )
        })
        .collect();
    keys.sort();
    keys
}

/// Kill pass 2 mid-flight, then resume with a different parallelism
/// policy; the resumed outcome must match the clean sequential run in
/// every reported bit.
fn interrupt_and_resume_with(resume_parallelism: Parallelism) {
    let (tax, db) = scenario();
    let sequential = NegativeMiner::new(config(Parallelism::Sequential));
    let clean = sequential.mine(&db, &tax).unwrap();

    let dir = TmpDir::new("ckpt");
    let plan = FaultPlan::new(vec![SourceFault {
        pass: 1,
        at_transaction: 10,
        kind: SourceFaultKind::PermanentError,
    }]);
    sequential
        .mine_with_controls(
            &FaultySource::new(&db, plan),
            &tax,
            None,
            Some(&dir.0),
            &RunControl::new(),
        )
        .unwrap_err();
    assert!(
        std::fs::read_dir(&dir.0).unwrap().count() > 0,
        "the failed run must leave checkpoints behind"
    );

    let resumed = NegativeMiner::new(config(resume_parallelism))
        .mine_with_controls(&db, &tax, None, Some(&dir.0), &RunControl::new())
        .unwrap();
    assert_eq!(outcome_key(&resumed), outcome_key(&clean));
    assert_eq!(resumed.large.total(), clean.large.total());
    assert_eq!(resumed.negatives.len(), clean.negatives.len());
    assert_eq!(std::fs::read_dir(&dir.0).unwrap().count(), 0);
}

#[test]
fn resume_with_four_threads_is_bitwise_identical_to_sequential() {
    interrupt_and_resume_with(Parallelism::Threads(4));
}

#[test]
fn resume_with_auto_threads_is_bitwise_identical_to_sequential() {
    interrupt_and_resume_with(Parallelism::Auto);
}

#[test]
fn parallel_interruption_resumes_sequentially_with_identical_results() {
    // The mirror image: crash under 4 threads, heal with 1. Checkpoints
    // written by a parallel run must be readable by a sequential one.
    let (tax, db) = scenario();
    let clean = NegativeMiner::new(config(Parallelism::Sequential))
        .mine(&db, &tax)
        .unwrap();

    let dir = TmpDir::new("ckpt-rev");
    let plan = FaultPlan::new(vec![SourceFault {
        pass: 1,
        at_transaction: 10,
        kind: SourceFaultKind::PermanentError,
    }]);
    NegativeMiner::new(config(Parallelism::Threads(4)))
        .mine_with_controls(
            &FaultySource::new(&db, plan),
            &tax,
            None,
            Some(&dir.0),
            &RunControl::new(),
        )
        .unwrap_err();
    assert!(std::fs::read_dir(&dir.0).unwrap().count() > 0);

    let resumed = NegativeMiner::new(config(Parallelism::Sequential))
        .mine_with_controls(&db, &tax, None, Some(&dir.0), &RunControl::new())
        .unwrap();
    assert_eq!(outcome_key(&resumed), outcome_key(&clean));
}

#[test]
fn uninterrupted_runs_are_thread_count_invariant_end_to_end() {
    let (tax, db) = scenario();
    let reference = NegativeMiner::new(config(Parallelism::Sequential))
        .mine(&db, &tax)
        .unwrap();
    for parallelism in [
        Parallelism::Threads(2),
        Parallelism::Threads(4),
        Parallelism::Auto,
    ] {
        let out = NegativeMiner::new(config(parallelism))
            .mine(&db, &tax)
            .unwrap();
        assert_eq!(
            outcome_key(&out),
            outcome_key(&reference),
            "{parallelism:?}"
        );
        // The telemetry reflects the policy while the results ignore it.
        let threads = parallelism.resolve();
        assert!(out.report.pass_stats.iter().all(|s| s.threads == threads));
        assert_eq!(
            out.report.pass_stats.len(),
            reference.report.pass_stats.len()
        );
    }
}
