//! `paper` — regenerate every table and figure of the paper's evaluation
//! as text rows, and every BENCH artifact as JSON.
//!
//! ```text
//! cargo run --release -p negassoc-bench --bin paper -- all
//! cargo run --release -p negassoc-bench --bin paper -- fig5 --scale 10000
//! ```
//!
//! Subcommands: `params` (Tables 3–4), `tables` (worked example Tables
//! 1–2), `counts` (§3.2 itemset counts), `fig5`, `fig6`, `fig7`, `all`,
//! `ablate` (positive miners, counting backends and improved-driver
//! knobs, written to `BENCH_ablation.json`), `counting`
//! (sequential-vs-threaded pass timings, written to
//! `BENCH_counting.json`), `ctrl` (cancel-token overhead, written to
//! `BENCH_ctrl.json`), `obs` (trace-emission overhead with a no-op
//! sink, written to `BENCH_obs.json`), and `serve` (rule-serving
//! throughput with oracle and hot-swap checks, written to
//! `BENCH_serve.json`).
//! `--scale N` runs on N transactions instead of the command's default
//! (the full 50,000 for the figures; the qualitative shapes survive
//! scaling, the full size takes minutes). Supports stay percentages, so
//! `ablate`, `counts`, `fig5`, `fig6`, `fig7` and `all` refuse (exit 2)
//! an N that would put their lowest support below ten transactions, and
//! name the smallest N they accept. `--support PCT` sets the
//! minimum support of `counts`, `fig7` and `all`; any other command
//! rejects it with exit 2.

use negassoc_bench::{
    ablation_bench, counting_scale, fig7_series, itemset_counts, overhead_bench, secs, serve_bench,
    sharded_counting_bench, short_dataset, tall_dataset, CountingBench, DiskDataset, Overhead,
    ABLATION_REPETITIONS, ABLATION_SUPPORT_PCT, ABLATION_TRANSACTIONS, FIG56_SUPPORTS_PCT,
    FIG7_SUPPORT_PCT, MIN_SUPPORT_TRANSACTIONS,
};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut command = None;
    let mut scale: Option<usize> = None;
    let mut support: Option<f64> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                i += 1;
                match args.get(i).and_then(|v| v.parse().ok()) {
                    Some(n) => scale = Some(n),
                    None => {
                        eprintln!("--scale needs a number");
                        return ExitCode::from(2);
                    }
                }
            }
            "--support" => {
                i += 1;
                match args.get(i).and_then(|v| v.parse().ok()) {
                    Some(pct) => support = Some(pct),
                    None => {
                        eprintln!("--support needs a percentage");
                        return ExitCode::from(2);
                    }
                }
            }
            cmd if command.is_none() => command = Some(cmd.to_owned()),
            other => {
                eprintln!("unexpected argument {other:?}");
                return ExitCode::from(2);
            }
        }
        i += 1;
    }
    let command = command.unwrap_or_else(|| "all".to_owned());
    if support.is_some() && !matches!(command.as_str(), "counts" | "fig7" | "all") {
        eprintln!("--support applies to counts, fig7 and all, not {command:?}");
        return ExitCode::from(2);
    }
    let support_pct = support.unwrap_or(FIG7_SUPPORT_PCT);
    if let Some(n) = scale {
        if let Err(refusal) = check_scale(&command, n, support_pct) {
            eprintln!("{refusal}");
            return ExitCode::from(2);
        }
    }
    let written = match command.as_str() {
        "ablate" => ablate(scale),
        "counting" => counting(scale),
        "ctrl" => overhead(Overhead::Ctrl, scale),
        "obs" => overhead(Overhead::Obs, scale),
        "serve" => serve(scale),
        text_only => {
            match text_only {
                "params" => params(),
                "tables" => tables(),
                "counts" => counts(scale, support_pct),
                "fig5" => fig56(false, scale),
                "fig6" => fig56(true, scale),
                "fig7" => fig7(scale, support_pct),
                "all" => {
                    params();
                    tables();
                    counts(scale, support_pct);
                    fig56(false, scale);
                    fig56(true, scale);
                    fig7(scale, support_pct);
                }
                other => {
                    eprintln!(
                        "unknown command {other:?} \
                         (params|tables|counts|fig5|fig6|fig7|ablate|counting|ctrl|obs|serve|all)"
                    );
                    return ExitCode::from(2);
                }
            }
            Ok(())
        }
    };
    if let Err(e) = written {
        eprintln!("{command} bench: {e}");
        return ExitCode::from(1);
    }
    ExitCode::SUCCESS
}

/// Tables 3 and 4: the generator parameters.
fn params() {
    use negassoc_datagen::presets;
    println!("== Table 3/4: synthetic data parameters ==");
    println!("{:<44} {:>10} {:>10}", "parameter", "Short", "Tall");
    let s = presets::short();
    let t = presets::tall();
    let rows: Vec<(&str, String, String)> = vec![
        (
            "|D|  transactions",
            s.num_transactions.to_string(),
            t.num_transactions.to_string(),
        ),
        (
            "|T|  avg transaction size",
            s.avg_transaction_len.to_string(),
            t.avg_transaction_len.to_string(),
        ),
        (
            "|C|  avg cluster size",
            s.avg_cluster_size.to_string(),
            t.avg_cluster_size.to_string(),
        ),
        (
            "|I|  avg itemset size",
            s.avg_itemset_size.to_string(),
            t.avg_itemset_size.to_string(),
        ),
        (
            "|S|  avg itemsets per cluster",
            s.avg_itemsets_per_cluster.to_string(),
            t.avg_itemsets_per_cluster.to_string(),
        ),
        (
            "|L|  clusters",
            s.num_clusters.to_string(),
            t.num_clusters.to_string(),
        ),
        (
            "N    items (leaves)",
            s.num_items.to_string(),
            t.num_items.to_string(),
        ),
        (
            "R    roots",
            s.num_roots.to_string(),
            t.num_roots.to_string(),
        ),
        ("F    fanout", s.fanout.to_string(), t.fanout.to_string()),
    ];
    for (name, sv, tv) in rows {
        println!("{name:<44} {sv:>10} {tv:>10}");
    }
    println!("(|T| and R reconstruct OCR-lost values; see DESIGN.md)\n");
}

/// Tables 1 and 2: the worked example (delegates to the same code path the
/// example binary uses, condensed).
fn tables() {
    use negassoc::candidates::{CandidateGenerator, CandidateSet};
    use negassoc::expected::is_negative;
    use negassoc::rules::generate_negative_rules;
    use negassoc::NegativeItemset;
    use negassoc_apriori::{Itemset, LargeItemsets};
    use negassoc_taxonomy::TaxonomyBuilder;

    let mut b = TaxonomyBuilder::new();
    let bev = b.add_root("beverages");
    let water = b.add_child(bev, "bottled water").unwrap();
    let perrier = b.add_child(water, "Perrier").unwrap();
    let evian = b.add_child(water, "Evian").unwrap();
    let des = b.add_root("desserts");
    let yog = b.add_child(des, "frozen yogurt").unwrap();
    let bryers = b.add_child(yog, "Bryers").unwrap();
    let hc = b.add_child(yog, "Healthy Choice").unwrap();
    let tax = b.build();

    println!("== Table 1: supports (corrected water brands, see DESIGN.md) ==");
    let mut large = LargeItemsets::new(1_000_000, 4_000);
    for (item, sup) in [
        (bryers, 20_000u64),
        (hc, 10_000),
        (evian, 12_000),
        (perrier, 8_000),
        (yog, 30_000),
        (water, 20_000),
    ] {
        println!("  {:<18} {:>7}", tax.name(item), sup);
        large.insert(Itemset::singleton(item), sup);
    }
    let seed = Itemset::from_unsorted(vec![yog, water]);
    large.insert(seed.clone(), 15_000);
    println!("  {:<18} {:>7}", "yogurt & water", 15_000);
    large.insert(Itemset::from_unsorted(vec![bryers, evian]), 7_500);
    large.insert(Itemset::from_unsorted(vec![hc, evian]), 4_200);

    let generator = CandidateGenerator::new(&tax, &large, 0.4);
    let mut set = CandidateSet::new();
    generator
        .extend_from_itemset(&seed, 15_000, &mut set)
        .expect("candidate generation");
    let (mut cands, _) = set.into_candidates();
    cands.sort_by(|a, b| a.itemset.cmp(&b.itemset));

    println!("== Table 2: expected vs actual ==");
    let actual = |s: &Itemset| -> u64 {
        if s.contains(bryers) && s.contains(perrier) {
            500
        } else if s.contains(hc) && s.contains(perrier) {
            2_500
        } else {
            0
        }
    };
    let mut negatives = Vec::new();
    for c in &cands {
        if !c.itemset.items().iter().all(|&i| tax.is_leaf(i)) {
            continue;
        }
        let names: Vec<&str> = c.itemset.items().iter().map(|&i| tax.name(i)).collect();
        let a = actual(&c.itemset);
        println!(
            "  {:<30} E {:>7.0}  actual {:>5}",
            names.join(" & "),
            c.expected,
            a
        );
        if is_negative(c.expected, a, 4_000, 0.4) {
            negatives.push(NegativeItemset {
                itemset: c.itemset.clone(),
                expected: c.expected,
                actual: a,
                derivation: Some(c.derivation.clone()),
            });
        }
    }
    let rules = generate_negative_rules(&negatives, &large, 0.4).expect("rule generation");
    for r in &rules {
        let lhs: Vec<&str> = r.antecedent.items().iter().map(|&i| tax.name(i)).collect();
        let rhs: Vec<&str> = r.consequent.items().iter().map(|&i| tax.name(i)).collect();
        println!(
            "  rule: {} =/=> {} (RI {:.4})",
            lhs.join("+"),
            rhs.join("+"),
            r.ri
        );
    }
    println!();
}

/// The lowest support, in percent, that `command` mines at.
fn lowest_support_pct(command: &str, support_pct: f64) -> Option<f64> {
    let fig56 = FIG56_SUPPORTS_PCT
        .iter()
        .copied()
        .fold(f64::INFINITY, f64::min);
    match command {
        "ablate" => Some(ABLATION_SUPPORT_PCT),
        "fig5" | "fig6" => Some(fig56),
        "counts" | "fig7" => Some(support_pct),
        "all" => Some(fig56.min(support_pct)),
        _ => None,
    }
}

/// Refuse a `--scale` that would put `command`'s lowest support below
/// [`MIN_SUPPORT_TRANSACTIONS`] transactions, naming the smallest scale
/// that does not.
fn check_scale(command: &str, scale: usize, support_pct: f64) -> Result<(), String> {
    let Some(pct) = lowest_support_pct(command, support_pct) else {
        return Ok(());
    };
    let smallest = (MIN_SUPPORT_TRANSACTIONS * 100.0 / pct).ceil() as usize;
    if scale >= smallest {
        return Ok(());
    }
    Err(format!(
        "--scale {scale} puts {command}'s lowest support ({pct}%) at {:.1} transactions, \
         below the floor of {MIN_SUPPORT_TRANSACTIONS}; use --scale {smallest} or more",
        scale as f64 * pct / 100.0
    ))
}

/// §3.2: generalized large-itemset counts (default 1.5% support).
fn counts(scale: Option<usize>, support_pct: f64) {
    println!("== §3.2: generalized large itemsets at {support_pct}% support ==");
    let short = short_dataset(scale);
    let tall = tall_dataset(scale);
    let (s, t) = itemset_counts(&short, &tall, support_pct);
    println!("  Short (F=9): {s}");
    println!("  Tall  (F=3): {t}");
    println!("  (paper: 1,499 vs 15,476 at full scale; shape: Tall >> Short)\n");
}

/// Figures 5 and 6: execution times, naive vs improved.
fn fig56(tall: bool, scale: Option<usize>) {
    let (name, fig, ds) = if tall {
        ("Tall", "Figure 6", tall_dataset(scale))
    } else {
        ("Short", "Figure 5", short_dataset(scale))
    };
    println!(
        "== {fig}: execution times, \"{name}\" dataset ({} transactions, streamed from disk) ==",
        ds.db.len()
    );
    println!(
        "{:>8} {:>10} {:>10} {:>8} {:>8} {:>9} {:>10} {:>9} {:>6}",
        "minsup%", "naive(s)", "improved", "n-pass", "i-pass", "large", "cands", "negs", "rules"
    );
    let print_rows = |rows: &[negassoc_bench::Fig56Row]| {
        for row in rows {
            println!(
                "{:>8} {:>10} {:>10} {:>8} {:>8} {:>9} {:>10} {:>9} {:>6}",
                row.min_support_pct,
                secs(row.naive),
                secs(row.improved),
                row.naive_passes,
                row.improved_passes,
                row.large_itemsets,
                row.candidates,
                row.negatives,
                row.rules
            );
        }
    };
    let disk = DiskDataset::spill(&ds).expect("spill dataset");
    print_rows(&disk.fig56_sweep(FIG56_SUPPORTS_PCT));
    println!(
        "-- with 1995-disk I/O simulation ({} MB/s per pass; paper's cost regime) --",
        negassoc_txdb::throttle::DISK_1995_BYTES_PER_SEC / (1024.0 * 1024.0)
    );
    print_rows(&negassoc_bench::fig56_sweep_throttled(
        &ds,
        FIG56_SUPPORTS_PCT,
    ));
    println!();
}

/// Figure 7: negative candidates per large itemset, by itemset size.
fn fig7(scale: Option<usize>, support_pct: f64) {
    println!(
        "== Figure 7: negative candidates (normalized) vs itemset size (minsup {support_pct}%) =="
    );
    for ds in [short_dataset(scale), tall_dataset(scale)] {
        let series = fig7_series(&ds, support_pct);
        println!("  fanout {}:", series.fanout);
        println!(
            "    {:>4} {:>12} {:>10} {:>14}",
            "size", "candidates", "large", "cands/large"
        );
        for (k, cands, large, norm) in &series.rows {
            println!("    {k:>4} {cands:>12} {large:>10} {norm:>14.2}");
        }
    }
    println!("  (paper: normalized candidates grow with size; fanout 9 > fanout 3)");
}

/// The counting-backend benchmark: run the same mining job under both
/// backends (flat subset-hash-map, TID bitmap) at 1/2/4 worker
/// threads, print the per-pass tables, and write the machine-readable
/// result to `BENCH_counting.json`. Alongside the primary `--scale`, a
/// 100,000-transaction scale always runs (at 1/4 threads to keep the
/// matrix affordable) so the artifact records behavior past toy sizes.
fn counting(scale: Option<usize>) -> std::io::Result<()> {
    let transactions = scale.unwrap_or(4_000);
    let mut scales = vec![counting_scale(transactions, &[1, 2, 4])];
    scales[0].sharded = sharded_counting_bench(transactions, &[1, 4, 16]);
    if transactions != 100_000 {
        println!("(running the fixed 100,000-transaction scale too; backends x 1/4 threads)");
        scales.push(counting_scale(100_000, &[1, 4]));
    }
    let bench = CountingBench {
        available_parallelism: negassoc_apriori::parallel::Parallelism::Auto.resolve(),
        scales,
    };
    println!("== counting backends: flat vs TID bitmap ==");
    println!("available parallelism {}", bench.available_parallelism);
    for scale in &bench.scales {
        println!("-- {} transactions --", scale.transactions);
        println!(
            "{:>9} {:>7} {:>5} {:<9} {:>10} {:>12} {:>9}",
            "backend", "threads", "pass", "label", "candidates", "transactions", "wall"
        );
        for run in &scale.runs {
            for r in &run.rows {
                println!(
                    "{:>9} {:>7} {:>5} {:<9} {:>10} {:>12} {:>8}s",
                    run.backend,
                    run.threads,
                    r.pass,
                    r.label,
                    r.candidates,
                    r.transactions,
                    secs(r.wall)
                );
            }
        }
        for run in &scale.runs {
            if run.threads != 1 {
                if let Some(sp) = scale.speedup(run.backend, run.threads) {
                    println!("{} speedup x{}: {sp:.3}", run.backend, run.threads);
                }
            }
        }
        if let Some(sp) = scale.l2_speedup_bitmap_vs_flat() {
            println!("L2 speedup, bitmap vs flat (sequential): {sp:.3}");
        }
        if scale.sharded.is_empty() {
            continue;
        }
        println!("-- sharded counting (one shard resident at a time) --");
        println!(
            "{:>7} {:>14} {:>20} {:>9}",
            "shards", "largest_shard", "max_pass_candidates", "wall"
        );
        for r in &scale.sharded {
            println!(
                "{:>7} {:>14} {:>20} {:>8}s",
                r.shards,
                r.largest_shard,
                r.max_pass_candidates,
                secs(r.wall)
            );
        }
    }
    std::fs::write("BENCH_counting.json", bench.to_json())?;
    println!("wrote BENCH_counting.json");
    Ok(())
}

/// The ablation benchmark: the positive miners on both taxonomies, the
/// counting backends on a Cumulate run and on a fixed mixed-size
/// candidate set at 1/2/4 threads, and the improved driver with and
/// without taxonomy compression and under a 256-candidate cap. Each row
/// is timed over repeated runs at 2,000 transactions unless `--scale`
/// says otherwise; written to `BENCH_ablation.json`.
fn ablate(scale: Option<usize>) -> std::io::Result<()> {
    let transactions = scale.unwrap_or(ABLATION_TRANSACTIONS);
    let bench = ablation_bench(transactions, ABLATION_SUPPORT_PCT, ABLATION_REPETITIONS);
    println!(
        "== ablations: {} transactions, minsup {}%, {} repetitions per row ==",
        bench.transactions, bench.min_support_pct, bench.repetitions
    );
    for (group, rows) in &bench.groups {
        println!("-- {group} --");
        for row in rows {
            println!("{:<24} median {:>9.4}s", row.name, row.median_s());
        }
    }
    std::fs::write("BENCH_ablation.json", bench.to_json())?;
    println!("wrote BENCH_ablation.json");
    Ok(())
}

/// Repetitions per variant of the `ctrl` and `obs` overhead benchmarks.
/// One default (bitmap) mining run at 4,000 transactions takes ~0.08 s,
/// so 41 repetitions keep each side of the comparison at ≥ 3 s of work —
/// enough for the median to hold still well inside the 2% bars.
const OVERHEAD_REPETITIONS: usize = 41;

/// An overhead benchmark (`ctrl`: no cancel token vs a fully armed
/// `RunControl`; `obs`: no observer vs a no-op trace sink), written to
/// `BENCH_ctrl.json` or `BENCH_obs.json`. Both acceptance bars are < 2%
/// median overhead (DESIGN.md §11).
fn overhead(kind: Overhead, scale: Option<usize>) -> std::io::Result<()> {
    let transactions = scale.unwrap_or(4_000);
    let bench = overhead_bench(kind, transactions, OVERHEAD_REPETITIONS);
    let (title, file) = match kind {
        Overhead::Ctrl => ("run control plane: token-check overhead", "BENCH_ctrl.json"),
        Overhead::Obs => (
            "observability layer: no-op-sink emission overhead",
            "BENCH_obs.json",
        ),
    };
    println!("== {title} ==");
    println!(
        "{} transactions, {} repetitions per variant",
        bench.transactions, bench.repetitions
    );
    println!(
        "median baseline {:.3}s, median {} {:.3}s, overhead {:+.3}%",
        bench.median_baseline_s(),
        bench.label,
        bench.median_treated_s(),
        bench.overhead_pct()
    );
    std::fs::write(file, bench.to_json())?;
    println!("wrote {file}");
    Ok(())
}

/// The rule-serving benchmark: queries/sec through the server's answer
/// path on a snapshot mined from the 4,000-transaction "Short" dataset,
/// with oracle agreement and a mid-batch hot-swap checked in the same
/// run; written to `BENCH_serve.json`. The serving layer's acceptance bar
/// is ≥ 10,000 queries/sec with both contract flags true.
fn serve(scale: Option<usize>) -> std::io::Result<()> {
    let transactions = scale.unwrap_or(4_000);
    let bench = serve_bench(transactions, 1_000, 0.015);
    println!("== rule serving: basket-match throughput ==");
    println!(
        "{} transactions, {} queries, {} positive + {} negative rules",
        bench.transactions, bench.queries, bench.positive_rules, bench.negative_rules
    );
    println!(
        "batch wall {:.4}s, {:.0} queries/sec, {} answers matched rules",
        bench.wall_s, bench.queries_per_sec, bench.matched_answers
    );
    println!(
        "oracle agreement: {}; hot-swap mid-batch survived: {}",
        bench.oracle_agreement, bench.hot_swap_survived
    );
    std::fs::write("BENCH_serve.json", bench.to_json())?;
    println!("wrote BENCH_serve.json");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_floor_admits_the_smallest_scale_and_refuses_below_it() {
        // ablate mines at 2%: 500 transactions is a threshold of 10.
        assert_eq!(check_scale("ablate", 500, FIG7_SUPPORT_PCT), Ok(()));
        let refusal = check_scale("ablate", 499, FIG7_SUPPORT_PCT).unwrap_err();
        assert!(refusal.contains("--scale 500 or more"), "{refusal}");
        assert!(check_scale("ablate", 400, FIG7_SUPPORT_PCT).is_err());
        // fig5/fig6 sweep down to 0.5%, so they need 2,000.
        for fig in ["fig5", "fig6"] {
            assert_eq!(check_scale(fig, 2_000, FIG7_SUPPORT_PCT), Ok(()));
            let refusal = check_scale(fig, 1_999, FIG7_SUPPORT_PCT).unwrap_err();
            assert!(refusal.contains("--scale 2000 or more"), "{refusal}");
        }
        // counts/fig7 follow --support; all takes the lowest of both.
        assert_eq!(check_scale("counts", 667, 1.5), Ok(()));
        assert!(check_scale("fig7", 666, 1.5).is_err());
        assert_eq!(check_scale("fig7", 100, 10.0), Ok(()));
        assert!(check_scale("all", 1_999, 10.0).is_err());
        assert!(check_scale("all", 2_000, 0.25).is_err());
        assert_eq!(check_scale("all", 4_000, 0.25), Ok(()));
        // Commands that keep their own supports are not checked.
        for other in ["counting", "ctrl", "obs", "serve", "params", "tables"] {
            assert_eq!(check_scale(other, 10, FIG7_SUPPORT_PCT), Ok(()));
        }
    }
}
