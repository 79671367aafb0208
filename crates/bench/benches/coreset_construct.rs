//! Criterion micro-benchmark + ablation: coreset construction cost for the
//! k-means++ based constructor vs the sensitivity-sampling constructor
//! (experiment A1 in DESIGN.md).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use skm_bench::workloads::{build_dataset, DatasetSpec};
use skm_coreset::construct::{CoresetBuilder, CoresetMethod};
use skm_coreset::Span;

fn bench_coreset_construct(c: &mut Criterion) {
    let mut group = c.benchmark_group("coreset_construct");
    group.sample_size(10);
    let k = 10;
    let size = 200;
    for &n in &[1_000usize, 4_000] {
        let dataset = build_dataset(DatasetSpec::Intrusion, n, 3);
        for (label, method) in [
            ("kmeanspp", CoresetMethod::KMeansPP),
            ("sensitivity", CoresetMethod::SensitivitySampling),
        ] {
            let builder = CoresetBuilder::new(k).with_size(size).with_method(method);
            group.bench_with_input(BenchmarkId::new(label, n), &n, |b, _| {
                let mut rng = ChaCha8Rng::seed_from_u64(11);
                b.iter(|| {
                    builder
                        .build_block(dataset.points(), Span::single(1), 1, &mut rng)
                        .unwrap()
                });
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_coreset_construct);
criterion_main!(benches);
