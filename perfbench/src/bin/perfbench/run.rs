//! One benchmark run: set up, mine, serve, check, report.

use crate::mine::{self, CycleLayers};
use crate::report::RunResult;
use crate::serve::{self, Plan, ServePhase, Versions};
use crate::stats::{mean, median, peak_rss_mib, percentile};
use crate::trace::Tracer;
use crate::workload::{generate, Inputs, Workload, MIN_CONF, MIN_RI};
use crate::Res;
use negassoc::audit;
use negassoc::{MiningOutcome, NegativeMiner};
use negassoc_serve::{export_snapshot, ServeState, Snapshot};
use negassoc_taxonomy::Taxonomy;
use negassoc_txdb::binfmt;
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 7;
/// Warm mine cycles per run, at the least.
const MIN_CYCLES: usize = 3;
/// In-process snapshot loads and installs timed by a traced run.
const LOADS: usize = 8;

/// What to run.
pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    /// See [`Plan::corrupt_query`].
    pub corrupt_query: Option<u64>,
}

/// Where a run writes its inputs and snapshots (removed afterwards) and a
/// traced run leaves its spans, relative to the working directory.
const WORK_DIR: &str = ".perfbench_work";

/// Everything a set-up leaves for the measured phase.
struct Prepared {
    /// What the mine cycles mine.
    mined: Inputs,
    nadb: PathBuf,
    /// The taxonomy of the served rules.
    served_tax: Taxonomy,
    /// The served stream's held-out transactions, in the seed's order.
    baskets: Vec<String>,
    versions: Versions,
    /// Wall time of the set-up's steps: `setup_s` samples it.
    took: Duration,
}

impl Prepared {
    /// The files a set-up wrote: every set-up of a run must write the
    /// same bytes.
    fn files(&self) -> Res<Vec<Vec<u8>>> {
        let paths = [&self.nadb, &self.versions.paths[0], &self.versions.paths[1]];
        Ok(paths.iter().map(std::fs::read).collect::<Result<_, _>>()?)
    }
}

/// The first mine cycle of a process, which runs cold.
struct ColdCycle {
    wall: Duration,
    /// Audited once per run.
    outcome: MiningOutcome,
    /// The snapshot every warm cycle must write, byte for byte.
    reference: Vec<u8>,
}

/// Generate the mined transactions from the seed and write the NADB file;
/// then mine the served rules, export both snapshot versions and start a
/// server until its first ping answers. `took` covers these steps only:
/// with `cold_cycle`, the (first, cold) mine cycle runs between them, off
/// the set-up's clock, and so does the server's drain after the ping.
///
/// The seed draws the transactions the mine cycles mine. The served
/// rules are mined from the served preset's own stream and queried with
/// that stream's held-out tail, in an order the seed shuffles: how much a
/// basket matches is heavy-tailed, so a basket set that moved with the
/// seed would move the query metrics more than any layer does.
fn set_up(
    w: &Workload,
    seed: u64,
    dir: &Path,
    cold_cycle: bool,
) -> Res<(Prepared, Option<ColdCycle>)> {
    let start = Instant::now();
    let mined = generate(&w.mined, seed, 0);
    let nadb = dir.join("input.nadb");
    binfmt::save(&mined.db, &nadb)?;
    let written = start.elapsed();

    let cold = if cold_cycle {
        let nars = dir.join("mined.nars");
        let (wall, outcome) = mine::cycle(&w.mined, &mined.tax, &nadb, &nars)?;
        let reference = std::fs::read(&nars)?;
        Some(ColdCycle {
            wall,
            outcome,
            reference,
        })
    } else {
        None
    };

    let resumed = Instant::now();
    let mut served = generate(&w.served, w.served.default_seed(), w.baskets);
    let baskets = shuffled(std::mem::take(&mut served.baskets), seed);
    let rules = NegativeMiner::new(mine::config(&w.served)).mine(&served.db, &served.tax)?;
    let tax = served.tax;
    let paths = [dir.join("v1.nars"), dir.join("v2.nars")];
    for (version, (path, conf)) in (1..).zip(paths.iter().zip(MIN_CONF)) {
        let export = rules.rule_export(&tax, conf, MIN_RI);
        export_snapshot(path, &export, &tax, version)?;
    }
    let snaps = [
        Arc::new(Snapshot::load(&paths[0], &tax)?),
        Arc::new(Snapshot::load(&paths[1], &tax)?),
    ];
    let state = ServeState::new(tax.clone(), Arc::clone(&snaps[0]))?;
    let (ready, _) = serve::with_server(&state, |addr| -> Res<Instant> {
        serve::ping(&mut serve::connect(addr)?)?;
        Ok(Instant::now())
    })?;
    let prepared = Prepared {
        mined,
        nadb,
        served_tax: tax,
        baskets,
        versions: Versions { paths, snaps },
        took: written + (ready? - resumed),
    };
    Ok((prepared, cold))
}

/// Run one workload and collect its metrics.
pub fn run(opts: &Options) -> Res<RunResult> {
    let w = &opts.workload;
    let dir = Path::new(WORK_DIR).join(format!("{}-{}-{}", w.name, opts.seed, std::process::id()));
    std::fs::create_dir_all(&dir)?;
    let result = measure(opts, &dir);
    std::fs::remove_dir_all(&dir)?;
    result
}

fn measure(opts: &Options, dir: &Path) -> Res<RunResult> {
    let w = &opts.workload;
    let mut r = RunResult::default();

    // The first set-up builds what the run measures.
    let (p, cold) = set_up(w, opts.seed, dir, true)?;
    let cold = cold.ok_or("the first set-up runs the cold cycle")?;
    let tax = &p.mined.tax;

    // Rounds of one warm mine cycle and one serving window until the
    // measured seconds are up. A traced run alternates untraced and
    // traced cycles.
    let plan = Plan {
        baskets: &p.baskets,
        traced: opts.traced,
        corrupt_query: opts.corrupt_query,
    };
    let mut tracer = Tracer::new();
    let cycle_nars = dir.join("cycle.nars");
    let mut walls = Vec::new();
    let mut traced_layers: Vec<CycleLayers> = Vec::new();
    let measured = Duration::from_secs_f64(opts.seconds);
    let ((), served) = serve::session(&p.served_tax, &p.versions, &plan, |clients| {
        let start = Instant::now();
        let mut k: u64 = 0;
        while walls.len() < MIN_CYCLES || start.elapsed() < measured {
            if opts.traced && k % 2 == 1 {
                traced_layers.push(mine::traced_cycle(
                    &w.mined,
                    tax,
                    &p.nadb,
                    &cycle_nars,
                    &mut tracer,
                    k,
                )?);
            } else {
                let (wall, _) = mine::cycle(&w.mined, tax, &p.nadb, &cycle_nars)?;
                walls.push(wall.as_secs_f64());
            }
            k += 1;
            r.attempted += 1;
            if std::fs::read(&cycle_nars)? != cold.reference {
                r.failed += 1;
            }
            clients.window(&mut tracer);
        }
        Ok(())
    })?;
    r.attempted += served.queries + served.swap_ms.len() as u64 + served.swap_failures;
    r.failed += served.query_failures + served.swap_failures;
    let peak_rss = peak_rss_mib().unwrap_or(f64::NAN);

    // The other set-ups run now, after the peak memory is read, so it is
    // not raised by a second copy of the inputs. Each must write the
    // first one's files, byte for byte.
    let files = p.files()?;
    let mut setups = vec![p.took.as_secs_f64()];
    for rep in 1..SETUP_REPS {
        let rep_dir = dir.join(format!("setup-{rep}"));
        std::fs::create_dir_all(&rep_dir)?;
        let (again, _) = set_up(w, opts.seed, &rep_dir, false)?;
        setups.push(again.took.as_secs_f64());
        r.attempted += 1;
        if again.files()? != files {
            r.failed += 1;
        }
        drop(again);
        std::fs::remove_dir_all(&rep_dir)?;
    }

    // Soundness of the mined output, once per run, off the clock.
    r.attempted += 1;
    let audit = audit::certify(&p.mined.db, tax, &cold.outcome, MIN_RI);
    if audit.is_err() {
        r.failed += 1;
    }

    r.notes.push(format!(
        "workload {} seed {}: mines {} transactions at MinSup {} MinRI {}; serves the \
         Short preset's rules ({} at conf {}, {} at conf {}) to {} held-out baskets",
        w.name,
        opts.seed,
        p.mined.db.len(),
        w.mined.min_support,
        MIN_RI,
        p.versions.snaps[0].num_rules(),
        MIN_CONF[0],
        p.versions.snaps[1].num_rules(),
        MIN_CONF[1],
        p.baskets.len(),
    ));
    r.notes.push(format!(
        "load: 1 process, {} client threads on {} connections to {} server workers, \
         {} CPUs available; {} queries ({} timed) and {} swaps in {:.3} s of timed serving",
        serve::CONNECTIONS,
        serve::CONNECTIONS,
        serve::WORKERS,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        served.queries,
        served.timed(),
        served.swap_ms.len(),
        served.wall.as_secs_f64()
    ));
    r.notes.push(format!(
        "cold mine cycle {:.6} s (first in process, in neither mine_s nor setup_s); audit {}; \
         {} distinct answers checked against the oracle",
        cold.wall.as_secs_f64(),
        match &audit {
            Ok(report) => report.to_string(),
            Err(e) => format!("FAILED: {e}"),
        },
        served.oracle_checked
    ));

    if opts.traced {
        layer_metrics(&mut r, &p, &traced_layers, &walls, &served)?;
        let spans = Path::new(WORK_DIR).join(format!("spans-{}-{}.jsonl", w.name, opts.seed));
        tracer.write_jsonl(&spans)?;
        r.notes
            .push(format!("spans written to {}", spans.display()));
    } else {
        end_to_end_metrics(&mut r, &setups, &walls, peak_rss, &served);
    }
    Ok(r)
}

fn end_to_end_metrics(
    r: &mut RunResult,
    setups: &[f64],
    walls: &[f64],
    peak_rss: f64,
    served: &ServePhase,
) {
    r.set(
        "setup_s",
        median(setups),
        format!("median of {} set-ups", setups.len()),
    );
    // A mean, not a median: on a shared VM one cycle's time falls near
    // either of two modes (~0.65 s and ~1.05 s for the same Short work),
    // and a median jumps between them with the mix a run happens to get.
    r.set(
        "mine_s",
        mean(walls),
        format!(
            "mean of {} warm cycles (median {:.6}, fastest {:.6}, slowest {:.6})",
            walls.len(),
            median(walls),
            walls.iter().copied().fold(f64::INFINITY, f64::min),
            walls.iter().copied().fold(0.0, f64::max)
        ),
    );
    r.set(
        "peak_rss_mb",
        peak_rss,
        "VmHWM after the last serving window",
    );
    let note = format!(
        "median over {} serving windows; {} timed queries",
        served.windows.len(),
        served.timed()
    );
    let (p50, p99) = (served.windowed(0.50), served.windowed(0.99));
    r.set("query_p50_us", p50, note.clone());
    r.set("query_p99_us", p99, note);
    r.set(
        "query_qps",
        served.timed() as f64 / served.wall.as_secs_f64(),
        "closed loop, 1 connection",
    );
    r.set(
        "swap_ms",
        median(&served.swap_ms),
        format!("median of {} swaps", served.swap_ms.len()),
    );
}

fn layer_metrics(
    r: &mut RunResult,
    p: &Prepared,
    cycles: &[CycleLayers],
    untraced: &[f64],
    served: &ServePhase,
) -> Res<()> {
    let n = cycles.len();
    let med = |f: &dyn Fn(&CycleLayers) -> f64| median(&cycles.iter().map(f).collect::<Vec<_>>());
    let note = format!("median of {n} traced cycles");
    let c = &cycles[0];
    r.set("txdb.decode_s", med(&|c| c.decode_s), note.clone());
    r.set("txdb.nadb_bytes", c.nadb_bytes as f64, "");
    r.set(
        "txdb.vertical.words_anded",
        c.words_anded as f64,
        "bitmap.words.anded, per cycle",
    );
    r.set(
        "txdb.vertical.words_built",
        c.words_built as f64,
        "bitmap.words.built, per cycle",
    );
    r.set("apriori.positive_s", med(&|c| c.positive_s), note.clone());
    r.set("apriori.l2_s", med(&|c| c.l2_s), note.clone());
    r.set("apriori.passes", c.positive_passes as f64, "");
    r.set("apriori.candidates", c.positive_candidates as f64, "");
    r.set("apriori.large_itemsets", c.large_itemsets as f64, "");
    r.set(
        "apriori.large_per_candidate",
        ratio(c.large_itemsets, c.positive_candidates),
        "",
    );
    r.set(
        "core.candidates_s",
        med(&|c| c.candidates_s),
        format!("{note}; negative_time minus the negative pass, a residual"),
    );
    r.set(
        "core.candidates.generated",
        c.candidates_generated as f64,
        "",
    );
    r.set("core.candidates.unique", c.candidates_unique as f64, "");
    r.set(
        "core.candidates.unique_ratio",
        ratio(c.candidates_unique, c.candidates_generated),
        "",
    );
    r.set(
        "core.negative_pass_s",
        med(&|c| c.negative_pass_s),
        note.clone(),
    );
    r.set("core.negatives", c.negatives as f64, "");
    r.set(
        "core.negative_yield",
        ratio(c.negatives, c.candidates_unique),
        "negatives per unique candidate",
    );
    r.set("core.rules_s", med(&|c| c.rules_s), note.clone());
    r.set("core.rules", c.rules as f64, "");
    r.set("core.export_s", med(&|c| c.export_s), note.clone());
    r.set("core.export.rules", c.export_rules as f64, "");
    r.set(
        "serve.snapshot_write_s",
        med(&|c| c.snapshot_write_s),
        note.clone(),
    );
    r.set("serve.snapshot_bytes", c.snapshot_bytes as f64, "");

    // Snapshot load and install, in process and off the clock.
    let tax = &p.served_tax;
    let state = ServeState::new(tax.clone(), Arc::clone(&p.versions.snaps[0]))?;
    let (mut loads, mut installs) = (Vec::new(), Vec::new());
    for i in 0..LOADS {
        let t = Instant::now();
        let snap = Arc::new(Snapshot::load(&p.versions.paths[(i + 1) % 2], tax)?);
        loads.push(t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        state.install(snap)?;
        installs.push(t.elapsed().as_secs_f64() * 1e3);
    }
    r.set(
        "serve.snapshot_load_ms",
        median(&loads),
        format!("median of {LOADS}"),
    );
    r.set(
        "serve.install_ms",
        median(&installs),
        format!("median of {LOADS}"),
    );

    let q = served
        .layers
        .as_ref()
        .ok_or("a traced run records query layers")?;
    let qn = format!("{} queries", q.resolve_us.len());
    for (p50, p99, samples) in [
        (
            "taxonomy.resolve_p50_us",
            "taxonomy.resolve_p99_us",
            &q.resolve_us,
        ),
        (
            "taxonomy.expand_p50_us",
            "taxonomy.expand_p99_us",
            &q.expand_us,
        ),
        ("serve.match_p50_us", "serve.match_p99_us", &q.match_us),
        ("serve.render_p50_us", "serve.render_p99_us", &q.render_us),
        (
            "serve.transport_p50_us",
            "serve.transport_p99_us",
            &q.transport_us,
        ),
    ] {
        r.set(p50, percentile(samples, 0.50), qn.clone());
        r.set(p99, percentile(samples, 0.99), qn.clone());
    }
    r.set(
        "taxonomy.expanded_items",
        mean(&q.expanded_items),
        "mean per query",
    );
    r.set(
        "serve.matches",
        mean(&q.matches),
        "mean rules matched per query",
    );
    r.set(
        "serve.answer_bytes",
        mean(&q.answer_bytes),
        "mean per query",
    );
    r.set("serve.requests", served.stats.requests as f64, "ServeStats");
    r.set("serve.swaps", served.stats.swaps as f64, "ServeStats");
    r.set("serve.errors", served.stats.errors as f64, "ServeStats");

    let unaccounted: Vec<f64> = cycles
        .iter()
        .map(|c| 100.0 * c.unaccounted_s() / c.cycle_s)
        .collect();
    r.set(
        "trace.unaccounted_pct",
        median(&unaccounted),
        "share of a traced mine cycle",
    );
    // Means, as for `mine_s`: see `end_to_end_metrics`.
    let traced: Vec<f64> = cycles.iter().map(|c| c.cycle_s).collect();
    r.set(
        "trace.overhead_pct",
        100.0 * (mean(&traced) / mean(untraced) - 1.0),
        format!("mean of traced vs {} untraced cycles", untraced.len()),
    );
    let share = |f: &dyn Fn(&CycleLayers) -> f64| 100.0 * med(f) / med(&|c| c.cycle_s);
    r.notes.push(format!(
        "mine cycle shares: decode {:.1}%, positive {:.1}% (L2 {:.1}%), candidates {:.1}%, \
         negative pass {:.1}%, rules {:.1}%, export {:.1}%, snapshot write {:.1}%",
        share(&|c| c.decode_s),
        share(&|c| c.positive_s),
        share(&|c| c.l2_s),
        share(&|c| c.candidates_s),
        share(&|c| c.negative_pass_s),
        share(&|c| c.rules_s),
        share(&|c| c.export_s),
        share(&|c| c.snapshot_write_s),
    ));
    Ok(())
}

/// `a / b`, or 0 when there was nothing to divide by.
fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

/// `items` in the order of a Fisher-Yates shuffle drawn from `seed`.
fn shuffled<T>(mut items: Vec<T>, seed: u64) -> Vec<T> {
    let mut rng = SmallRng::seed_from_u64(seed);
    for i in (1..items.len()).rev() {
        let j = rng.random_below(i as u64 + 1) as usize;
        items.swap(i, j);
    }
    items
}
