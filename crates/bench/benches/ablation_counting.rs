//! Ablation: support-counting backends (DESIGN.md §6, §14). Vertical TID
//! bitmaps vs the per-candidate hash map on a positive mining run, and
//! both backends counting a fixed mixed-size candidate set on 1/2/4
//! worker threads.

#![allow(missing_docs)] // criterion_group! expands to an undocumented pub fn

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use negassoc_apriori::count::CountingBackend;
use negassoc_apriori::cumulate::cumulate;
use negassoc_apriori::parallel::{count_mixed_parallel, identity_sync_mapper, Obs, Parallelism};
use negassoc_apriori::{Itemset, MinSupport};
use negassoc_bench::short_dataset;
use std::hint::black_box;

const BACKENDS: [(&str, CountingBackend); 2] = [
    ("bitmap", CountingBackend::TidBitmap),
    ("subset_hashmap", CountingBackend::SubsetHashMap),
];

fn bench(c: &mut Criterion) {
    let ds = short_dataset(Some(2_000));
    let mut group = c.benchmark_group("ablation_counting");
    group.sample_size(10);

    for (name, backend) in BACKENDS {
        group.bench_with_input(
            BenchmarkId::new("cumulate", name),
            &backend,
            |b, &backend| {
                b.iter(|| {
                    let large = cumulate(
                        &ds.db,
                        &ds.taxonomy,
                        MinSupport::Fraction(0.02),
                        backend,
                        Parallelism::Sequential,
                        None,
                        &Obs::disabled(),
                    )
                    .unwrap();
                    black_box(large.total())
                })
            },
        );
    }

    // One pass over a fixed candidate set of every size (identity mapper:
    // flat candidate counting; taxonomy extension per thread is exercised
    // by the positive-miner variants above).
    let large = cumulate(
        &ds.db,
        &ds.taxonomy,
        MinSupport::Fraction(0.02),
        CountingBackend::TidBitmap,
        Parallelism::Sequential,
        None,
        &Obs::disabled(),
    )
    .unwrap();
    let candidates: Vec<Itemset> = large.iter().map(|(s, _)| s.clone()).collect();
    for (name, backend) in BACKENDS {
        for threads in [1usize, 2, 4] {
            group.bench_with_input(
                BenchmarkId::new(format!("parallel_{name}"), threads),
                &threads,
                |b, &threads| {
                    b.iter(|| {
                        let run = count_mixed_parallel(
                            &ds.db,
                            candidates.clone(),
                            backend,
                            &identity_sync_mapper,
                            Parallelism::Threads(threads),
                            None,
                            &Obs::disabled(),
                        )
                        .unwrap();
                        black_box(run.counts.len())
                    })
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
