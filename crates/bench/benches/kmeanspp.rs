//! Criterion micro-benchmark: k-means++ seeding cost as a function of the
//! input size and k (Theorem 1 says O(kdn); this bench verifies the linear
//! scaling that the query-cost analysis of Table 1 relies on).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use skm_bench::workloads::{build_dataset, DatasetSpec};
use skm_clustering::kmeanspp::kmeanspp_block;

fn bench_kmeanspp(c: &mut Criterion) {
    let mut group = c.benchmark_group("kmeanspp_seed");
    group.sample_size(10);
    for &n in &[500usize, 1_000, 2_000] {
        let dataset = build_dataset(DatasetSpec::Covtype, n, 1);
        for &k in &[10usize, 30] {
            group.bench_with_input(BenchmarkId::new(format!("n{n}"), k), &k, |b, &k| {
                let mut rng = ChaCha8Rng::seed_from_u64(7);
                b.iter(|| kmeanspp_block(dataset.points(), k, &mut rng).unwrap());
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_kmeanspp);
criterion_main!(benches);
