//! Figure 7 (Criterion form): the cost of negative-candidate generation on
//! the two taxonomies. The figure itself plots candidate *counts* (the
//! `paper -- fig7` binary prints those); this bench times the generation
//! step whose output the figure summarizes, per fanout. MinSup 3% keeps
//! the scaled-down dataset's itemset counts benchable (the 2,000-
//! transaction scale is denser than the full Table 4 data).

#![allow(missing_docs)] // criterion_group! expands to an undocumented pub fn

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use negassoc::candidates::{CandidateGenerator, CandidateSet};
use negassoc_apriori::count::CountingBackend;
use negassoc_apriori::parallel::{Obs, Parallelism};
use negassoc_apriori::MinSupport;
use negassoc_bench::{short_dataset, tall_dataset, PAPER_MIN_RI};
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig7_candidate_generation");
    group.sample_size(10);
    for ds in [short_dataset(Some(2_000)), tall_dataset(Some(2_000))] {
        let large = negassoc_apriori::cumulate::cumulate(
            &ds.db,
            &ds.taxonomy,
            MinSupport::Fraction(0.03),
            CountingBackend::TidBitmap,
            Parallelism::Sequential,
            None,
            &Obs::disabled(),
        )
        .unwrap();
        group.bench_with_input(
            BenchmarkId::new("generate", format!("fanout_{}", ds.params.fanout)),
            &large,
            |b, large| {
                b.iter(|| {
                    let generator = CandidateGenerator::new(&ds.taxonomy, large, PAPER_MIN_RI);
                    let mut set = CandidateSet::new();
                    for k in 2..=large.max_level() {
                        generator.extend_from_level(k, &mut set).unwrap();
                    }
                    black_box(set.len())
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
