//! Ablation: the generalized positive miners (Basic vs Cumulate vs
//! EstMerge). Cumulate's ancestor filtering should dominate Basic on the
//! deep "Tall" taxonomy, where full ancestor extension is most expensive.

#![allow(missing_docs)] // criterion_group! expands to an undocumented pub fn

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use negassoc_apriori::count::CountingBackend;
use negassoc_apriori::est_merge::{est_merge, EstMergeConfig};
use negassoc_apriori::parallel::{Obs, Parallelism};
use negassoc_apriori::{basic::basic, cumulate::cumulate, MinSupport};
use negassoc_bench::{short_dataset, tall_dataset};
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_positive_miners");
    group.sample_size(10);
    for ds in [short_dataset(Some(2_000)), tall_dataset(Some(2_000))] {
        let tag = format!("fanout_{}", ds.params.fanout);
        group.bench_with_input(BenchmarkId::new("basic", &tag), &ds, |b, ds| {
            b.iter(|| {
                black_box(
                    basic(
                        &ds.db,
                        &ds.taxonomy,
                        MinSupport::Fraction(0.02),
                        CountingBackend::TidBitmap,
                        Parallelism::Sequential,
                        None,
                        &Obs::disabled(),
                    )
                    .unwrap()
                    .total(),
                )
            })
        });
        group.bench_with_input(BenchmarkId::new("cumulate", &tag), &ds, |b, ds| {
            b.iter(|| {
                black_box(
                    cumulate(
                        &ds.db,
                        &ds.taxonomy,
                        MinSupport::Fraction(0.02),
                        CountingBackend::TidBitmap,
                        Parallelism::Sequential,
                        None,
                        &Obs::disabled(),
                    )
                    .unwrap()
                    .total(),
                )
            })
        });
        group.bench_with_input(BenchmarkId::new("est_merge", &tag), &ds, |b, ds| {
            b.iter(|| {
                let (large, _) = est_merge(
                    &ds.db,
                    &ds.taxonomy,
                    MinSupport::Fraction(0.02),
                    CountingBackend::TidBitmap,
                    EstMergeConfig::default(),
                    Parallelism::Sequential,
                    None,
                    &Obs::disabled(),
                )
                .unwrap();
                black_box(large.total())
            })
        });
        group.bench_with_input(BenchmarkId::new("partition_4", &tag), &ds, |b, ds| {
            b.iter(|| {
                black_box(
                    negassoc_apriori::partition_mine::partition_mine(
                        &ds.db,
                        Some(&ds.taxonomy),
                        MinSupport::Fraction(0.02),
                        4,
                        CountingBackend::TidBitmap,
                        Parallelism::Sequential,
                        None,
                        &Obs::disabled(),
                    )
                    .unwrap()
                    .total(),
                )
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
