//! Chaos soak for the run control plane: seeded random schedules that
//! combine source fault injection, cooperative cancellation at arbitrary
//! pass/transaction positions, thread-count and counting-backend changes
//! between attempts, and checkpoint resume. However a run is battered, the finally-completed
//! rule set must be *bitwise* identical to an uninterrupted sequential
//! run — cancellation may cost passes, never correctness.

use negassoc::config::MinerConfig;
use negassoc::{
    CancelReason, CancelToken, Completeness, Deadline, Error, MiningOutcome, NegativeMiner,
    Parallelism, RunControl,
};
use negassoc_apriori::count::CountingBackend;
use negassoc_apriori::MinSupport;
use negassoc_datagen::{generate, presets};
use negassoc_taxonomy::{ItemId, Taxonomy};
use negassoc_txdb::fault::{FaultPlan, FaultySource, RetryPolicy, RetryingSource};
use negassoc_txdb::{Transaction, TransactionDb, TransactionSource};
use std::cell::Cell;
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// A unique temp dir, removed on drop.
struct TmpDir(PathBuf);

impl TmpDir {
    fn new(name: &str) -> Self {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let n = SEQ.fetch_add(1, Ordering::Relaxed);
        Self(std::env::temp_dir().join(format!("negassoc-chaos-{}-{n}-{name}", std::process::id())))
    }
}

impl Drop for TmpDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Deterministic PRNG (splitmix64) so every soak schedule replays exactly
/// from its seed.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A source wrapper that trips a [`CancelToken`] when pass `at_pass`
/// (0-based, counted per `pass()` call on *this* wrapper) reaches
/// transaction `at_transaction` — the chaos schedule's "the user hit
/// Ctrl-C right here" lever, deterministic down to the transaction.
struct CancelAt<'a, S> {
    inner: &'a S,
    token: CancelToken,
    pass_no: Cell<u64>,
    at_pass: u64,
    at_transaction: u64,
}

impl<'a, S> CancelAt<'a, S> {
    fn new(inner: &'a S, token: CancelToken, at_pass: u64, at_transaction: u64) -> Self {
        Self {
            inner,
            token,
            pass_no: Cell::new(0),
            at_pass,
            at_transaction,
        }
    }
}

impl<S: TransactionSource> TransactionSource for CancelAt<'_, S> {
    fn pass(&self, f: &mut dyn FnMut(Transaction<'_>)) -> io::Result<()> {
        let pass = self.pass_no.get();
        self.pass_no.set(pass + 1);
        let mut offset = 0u64;
        self.inner.pass(&mut |t| {
            if pass == self.at_pass && offset == self.at_transaction {
                self.token.cancel(CancelReason::UserInterrupt);
            }
            offset += 1;
            f(t);
        })
    }

    fn len_hint(&self) -> Option<u64> {
        self.inner.len_hint()
    }

    // Identity hooks forward: a wrapped sharded source must keep its
    // checkpoint fingerprint (resume across the wrapper) and its
    // degraded-completeness report. Pass semantics (`as_db`/`as_shards`)
    // stay hidden, as for every instrumenting wrapper.
    fn content_digest(&self) -> Option<u64> {
        self.inner.content_digest()
    }

    fn quarantined_shards(&self) -> Vec<String> {
        self.inner.quarantined_shards()
    }
}

fn scenario() -> (Taxonomy, TransactionDb) {
    let ds = generate(&presets::scaled(presets::short(), 400));
    (ds.taxonomy, ds.db)
}

fn config(parallelism: Parallelism, backend: CountingBackend) -> MinerConfig {
    MinerConfig {
        min_support: MinSupport::Fraction(0.04),
        min_ri: 0.4,
        max_negative_size: Some(2),
        parallelism,
        backend,
        ..MinerConfig::default()
    }
}

/// Deal a counting backend from the chaos schedule: like thread counts,
/// backends may change freely between attempts without moving the answer.
fn pick_backend(rng: &mut u64) -> CountingBackend {
    match splitmix64(rng) % 2 {
        0 => CountingBackend::SubsetHashMap,
        _ => CountingBackend::TidBitmap,
    }
}

/// One rule's sides and its three numbers (floats as bits).
type OutcomeKey = (Vec<ItemId>, Vec<ItemId>, u64, u64, u64);

/// Every number a run reports, floats taken bitwise.
fn outcome_key(out: &MiningOutcome) -> Vec<OutcomeKey> {
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

/// A cancelled run's error must be internally consistent: typed, carrying
/// the schedule's reason, and claiming a checkpoint exactly when its
/// completeness says durable state exists.
fn assert_cancellation_shape(err: &Error) {
    let Error::Cancelled {
        reason,
        checkpoint,
        completeness,
    } = err
    else {
        panic!("expected Error::Cancelled, got {err:?}");
    };
    assert_eq!(*reason, CancelReason::UserInterrupt);
    assert_eq!(
        checkpoint.is_some(),
        *completeness != Completeness::NoCheckpoint,
        "checkpoint {checkpoint:?} vs completeness {completeness}"
    );
}

/// One seeded soak: batter a checkpointed run with random interrupts,
/// transient source faults, and thread-count and backend flips until it
/// completes, then demand the answer match the clean sequential run bit
/// for bit.
fn soak(seed: u64) {
    let (tax, db) = scenario();
    let total = db.len() as u64;
    let clean = NegativeMiner::new(config(
        Parallelism::Sequential,
        CountingBackend::SubsetHashMap,
    ))
    .mine(&db, &tax)
    .unwrap();

    let dir = TmpDir::new("soak");
    let mut rng = seed;
    let mut cancelled_attempts = 0u32;
    let mut completed: Option<MiningOutcome> = None;
    for _attempt in 0..8 {
        let r = splitmix64(&mut rng);
        let at_pass = r % 5;
        let at_transaction = splitmix64(&mut rng) % total;
        let parallelism = if splitmix64(&mut rng) % 2 == 0 {
            Parallelism::Sequential
        } else {
            Parallelism::Threads(4)
        };
        let backend = pick_backend(&mut rng);
        let with_fault = splitmix64(&mut rng) % 3 == 0;

        let ctrl = RunControl::new();
        let miner = NegativeMiner::new(config(parallelism, backend));
        let run = |source: &dyn TransactionSource| {
            miner.mine_with_controls(source, &tax, None, Some(&dir.0), &ctrl)
        };
        let result = if with_fault {
            // A transient read fault on top of the interrupt: the retry
            // layer must heal it without confusing the control plane.
            let faulty = RetryingSource::new(
                FaultySource::new(
                    &db,
                    FaultPlan::seeded_transient(splitmix64(&mut rng), 4, total, 2),
                ),
                RetryPolicy::new(4, Duration::ZERO),
            );
            run(&CancelAt::new(
                &faulty,
                ctrl.token().clone(),
                at_pass,
                at_transaction,
            ))
        } else {
            run(&CancelAt::new(
                &db,
                ctrl.token().clone(),
                at_pass,
                at_transaction,
            ))
        };
        match result {
            Ok(out) => {
                completed = Some(out);
                break;
            }
            Err(err) => {
                assert_cancellation_shape(&err);
                cancelled_attempts += 1;
            }
        }
    }
    // However the schedule went, an unmolested final attempt finishes the
    // job from whatever checkpoints survived.
    let out = match completed {
        Some(out) => out,
        None => {
            // The final attempt deliberately mines with the bitmap
            // backend: whatever backend wrote the surviving checkpoints,
            // the resume must cross over cleanly.
            let ctrl = RunControl::new();
            NegativeMiner::new(config(Parallelism::Threads(4), CountingBackend::TidBitmap))
                .mine_with_controls(&db, &tax, None, Some(&dir.0), &ctrl)
                .unwrap()
        }
    };
    assert_eq!(
        outcome_key(&out),
        outcome_key(&clean),
        "seed {seed} diverged after {cancelled_attempts} cancelled attempts"
    );
    assert_eq!(out.large.total(), clean.large.total());
    assert_eq!(out.negatives.len(), clean.negatives.len());
    // Success cleared the checkpoint directory.
    if dir.0.exists() {
        assert_eq!(std::fs::read_dir(&dir.0).unwrap().count(), 0);
    }
}

#[test]
fn chaos_seed_1_converges_to_the_uninterrupted_answer() {
    soak(1);
}

#[test]
fn chaos_seed_2_converges_to_the_uninterrupted_answer() {
    soak(2);
}

#[test]
fn chaos_seed_3_converges_to_the_uninterrupted_answer() {
    soak(3);
}

#[test]
fn chaos_seed_4_converges_to_the_uninterrupted_answer() {
    soak(4);
}

/// The satellite property: cancelling at *every* pass boundary in turn,
/// then resuming — under a different thread count *and* a different
/// counting backend — must reproduce the uninterrupted rule set exactly,
/// every time. Backends share checkpoint fingerprints by design.
#[test]
fn cancelling_at_every_pass_boundary_then_resuming_is_exact() {
    let (tax, db) = scenario();
    let clean = NegativeMiner::new(config(
        Parallelism::Sequential,
        CountingBackend::SubsetHashMap,
    ))
    .mine(&db, &tax)
    .unwrap();
    let passes = clean.report.passes;
    assert!(passes >= 2, "scenario too shallow to interrupt");

    for boundary in 0..passes {
        let dir = TmpDir::new("boundary");
        // Interrupt exactly as pass `boundary` begins streaming.
        let (cancel_par, resume_par) = if boundary % 2 == 0 {
            (Parallelism::Sequential, Parallelism::Threads(4))
        } else {
            (Parallelism::Threads(4), Parallelism::Sequential)
        };
        // Backends flip on a different beat than thread counts, so every
        // (threads, backend) pairing is exercised across the boundaries.
        let (cancel_be, resume_be) = match (boundary / 2) % 2 {
            0 => (CountingBackend::TidBitmap, CountingBackend::SubsetHashMap),
            _ => (CountingBackend::SubsetHashMap, CountingBackend::TidBitmap),
        };
        let ctrl = RunControl::new();
        let err = NegativeMiner::new(config(cancel_par, cancel_be))
            .mine_with_controls(
                &CancelAt::new(&db, ctrl.token().clone(), boundary, 0),
                &tax,
                None,
                Some(&dir.0),
                &ctrl,
            )
            .unwrap_err();
        assert_cancellation_shape(&err);

        let resumed = NegativeMiner::new(config(resume_par, resume_be))
            .mine_with_controls(&db, &tax, None, Some(&dir.0), &RunControl::new())
            .unwrap();
        assert_eq!(
            outcome_key(&resumed),
            outcome_key(&clean),
            "boundary {boundary} ({cancel_par:?}/{cancel_be:?} -> {resume_par:?}/{resume_be:?})"
        );
    }
}

/// The interrupted-run telemetry contract behind the CLI's exit-code-3
/// `--pass-stats` audit: a cancelled run's recorded trace carries a
/// `pass_end` only for passes that completed their full scan — the
/// in-flight pass announces a `pass_start` but never a `pass_end`, so a
/// consumer that renders completed passes can never mistake a partial
/// scan's numbers for real telemetry — and the cancellation itself is on
/// the record.
#[test]
fn interrupted_run_records_only_completed_passes() {
    use negassoc::obs::{Event, Obs, RingBufferSink};
    use std::sync::Arc;

    let (tax, db) = scenario();
    let total = db.len() as u64;
    let clean = NegativeMiner::new(config(
        Parallelism::Sequential,
        CountingBackend::SubsetHashMap,
    ))
    .mine(&db, &tax)
    .unwrap();
    assert!(
        clean.report.passes >= 2,
        "scenario too shallow to interrupt"
    );

    // Cancel at the very first transaction of the first pass: at most one
    // pass can complete before the control plane notices.
    let dir = TmpDir::new("obs");
    let ring = Arc::new(RingBufferSink::new(4096));
    let ctrl = RunControl::new().with_observer(Obs::disabled().with_sink(ring.clone()));
    let err = NegativeMiner::new(config(Parallelism::Threads(4), CountingBackend::TidBitmap))
        .mine_with_controls(
            &CancelAt::new(&db, ctrl.token().clone(), 0, 0),
            &tax,
            None,
            Some(&dir.0),
            &ctrl,
        )
        .unwrap_err();
    assert_cancellation_shape(&err);

    let events = ring.snapshot();
    let starts = events
        .iter()
        .filter(|e| matches!(e, Event::PassStart { .. }))
        .count();
    let completed: Vec<_> = events
        .iter()
        .filter_map(|e| match e {
            Event::PassEnd { stats } => Some(stats.clone()),
            _ => None,
        })
        .collect();
    assert!(starts > 0, "the interrupted pass must announce itself");
    assert!(
        starts > completed.len(),
        "the in-flight pass must not record a pass_end ({starts} starts vs {} ends)",
        completed.len()
    );
    assert!(
        (completed.len() as u64) < clean.report.passes,
        "an interrupted run must not report a full pass table ({} vs {})",
        completed.len(),
        clean.report.passes
    );
    for s in &completed {
        assert_eq!(
            s.transactions, total,
            "a recorded pass_end must describe a complete scan: {s:?}"
        );
    }
    assert!(
        events.iter().any(|e| matches!(e, Event::Cancelled { .. })),
        "the cancellation must appear in the trace"
    );
}

/// The shard corruption matrix: for each shard k of N, corrupt it beyond
/// salvage and mine the degraded manifest under each thread count — the
/// rules must be bitwise equal to mining the N−1 healthy shards alone,
/// the report must name the quarantined shard, and a mid-run cancel +
/// resume over the degraded source must converge to the same answer.
/// With nothing corrupted, the sharded mine must equal the unsharded one.
#[test]
fn shard_corruption_matrix_degrades_to_the_healthy_shards_exactly() {
    use negassoc_txdb::binfmt;
    use negassoc_txdb::shard::{write_sharded, ShardedSource};
    use negassoc_txdb::TransactionDbBuilder;
    use std::io::{Seek, SeekFrom, Write};

    const SHARDS: usize = 4;
    let (tax, db) = scenario();

    // Baseline: all shards healthy ≡ the unsharded database, bitwise.
    let clean = NegativeMiner::new(config(
        Parallelism::Sequential,
        CountingBackend::SubsetHashMap,
    ))
    .mine(&db, &tax)
    .unwrap();
    {
        let dir = TmpDir::new("shard-healthy");
        std::fs::create_dir_all(&dir.0).unwrap();
        let manifest_path = dir.0.join("db.manifest");
        write_sharded(&db, &manifest_path, SHARDS).unwrap();
        let src = ShardedSource::open(&manifest_path).unwrap();
        for (parallelism, backend) in [
            (Parallelism::Sequential, CountingBackend::SubsetHashMap),
            (Parallelism::Threads(4), CountingBackend::TidBitmap),
        ] {
            let out = NegativeMiner::new(config(parallelism, backend))
                .mine(&src, &tax)
                .unwrap();
            assert_eq!(
                outcome_key(&out),
                outcome_key(&clean),
                "{parallelism:?}/{backend:?}"
            );
            assert!(out.report.completeness.is_none());
        }
    }

    for k in 0..SHARDS {
        let dir = TmpDir::new("shard-matrix");
        std::fs::create_dir_all(&dir.0).unwrap();
        let manifest_path = dir.0.join("db.manifest");
        let manifest = write_sharded(&db, &manifest_path, SHARDS).unwrap();
        // Destroy shard k's magic: unreadable, salvage recovers nothing.
        let victim = manifest.shard_path(k);
        {
            let mut f = std::fs::OpenOptions::new()
                .write(true)
                .open(&victim)
                .unwrap();
            f.seek(SeekFrom::Start(0)).unwrap();
            f.write_all(b"XXXX").unwrap();
        }

        // Reference: the healthy shards concatenated in manifest order,
        // mined directly.
        let mut b = TransactionDbBuilder::new();
        for (i, _) in manifest.entries().iter().enumerate() {
            if i == k {
                continue;
            }
            binfmt::load(manifest.shard_path(i))
                .unwrap()
                .pass(&mut |t| b.add_with_tid(t.tid(), t.items().iter().copied()))
                .unwrap();
        }
        let healthy = b.build();
        let reference = NegativeMiner::new(config(
            Parallelism::Sequential,
            CountingBackend::SubsetHashMap,
        ))
        .mine(&healthy, &tax)
        .unwrap();

        let src = ShardedSource::open_degraded(&manifest_path).unwrap();
        assert_eq!(src.quarantine().shards.len(), 1);
        assert_eq!(src.quarantine().shards[0].index, k);

        for (parallelism, backend) in [
            (Parallelism::Sequential, CountingBackend::SubsetHashMap),
            (Parallelism::Threads(4), CountingBackend::TidBitmap),
        ] {
            let out = NegativeMiner::new(config(parallelism, backend))
                .mine(&src, &tax)
                .unwrap();
            assert_eq!(
                outcome_key(&out),
                outcome_key(&reference),
                "shard {k}, {parallelism:?}/{backend:?}"
            );
            let Some(Completeness::Degraded { quarantined_shards }) = &out.report.completeness
            else {
                panic!("shard {k}: expected degraded completeness");
            };
            assert_eq!(
                quarantined_shards,
                &vec![victim.display().to_string()],
                "shard {k}"
            );
        }

        // Mid-run cancel over the degraded source, then resume: the
        // checkpoint fingerprint (content digest through the CancelAt
        // wrapper) must match and the answer must not move.
        let ckpt = TmpDir::new("shard-resume");
        let ctrl = RunControl::new();
        let err = NegativeMiner::new(config(Parallelism::Threads(4), CountingBackend::TidBitmap))
            .mine_with_controls(
                &CancelAt::new(&src, ctrl.token().clone(), 1, 0),
                &tax,
                None,
                Some(&ckpt.0),
                &ctrl,
            )
            .unwrap_err();
        assert_cancellation_shape(&err);
        let resumed = NegativeMiner::new(config(
            Parallelism::Sequential,
            CountingBackend::SubsetHashMap,
        ))
        .mine_with_controls(&src, &tax, None, Some(&ckpt.0), &RunControl::new())
        .unwrap();
        assert_eq!(
            outcome_key(&resumed),
            outcome_key(&reference),
            "shard {k} resume"
        );
    }
}

/// An already-expired deadline cancels before the first pass: typed error,
/// deadline reason, no checkpoint, and an untouched source.
#[test]
fn expired_deadline_cancels_before_any_pass() {
    let (tax, db) = scenario();
    let pc = negassoc_txdb::PassCounter::new(db);
    let ctrl = RunControl::new().with_deadline(Deadline::after(Duration::ZERO));
    let dir = TmpDir::new("deadline");
    let err = NegativeMiner::new(config(
        Parallelism::Sequential,
        CountingBackend::SubsetHashMap,
    ))
    .mine_with_controls(&pc, &tax, None, Some(&dir.0), &ctrl)
    .unwrap_err();
    match err {
        Error::Cancelled {
            reason,
            checkpoint,
            completeness,
        } => {
            assert_eq!(reason, CancelReason::DeadlineExceeded);
            assert_eq!(checkpoint, None);
            assert_eq!(completeness, Completeness::NoCheckpoint);
        }
        other => panic!("expected Error::Cancelled, got {other:?}"),
    }
    assert_eq!(
        pc.passes(),
        0,
        "no pass may start under an expired deadline"
    );
}
