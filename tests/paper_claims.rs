//! Integration tests for the paper's qualitative claims, stated in terms of
//! operation counts and structure (not wall-clock time) so they are robust
//! in CI.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use streaming_kmeans::prelude::*;
use streaming_kmeans::stream::numeric::ceil_log;

fn random_stream(n: usize, dim: usize, seed: u64) -> Vec<Vec<f64>> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let anchors: Vec<Vec<f64>> = (0..5)
        .map(|a| {
            (0..dim)
                .map(|d| f64::from(a * 17 + d as i32 % 3) * 3.0)
                .collect()
        })
        .collect();
    (0..n)
        .map(|i| {
            let a = &anchors[i % anchors.len()];
            a.iter().map(|x| x + rng.gen::<f64>()).collect()
        })
        .collect()
}

/// Table 1, query-cost column: with queries after every base bucket, CT
/// merges Θ(r·log N) coresets per query while CC merges at most r (+1 for
/// the partial bucket); RCC touches O(log log N) ≈ a small constant.
#[test]
fn query_merge_counts_follow_table_1() {
    let m = 20;
    let r = 2u64;
    let config = StreamConfig::new(3)
        .with_bucket_size(m)
        .with_merge_degree(r)
        .with_kmeans_runs(1)
        .with_lloyd_iterations(1);
    let stream = random_stream(m * 255, 4, 7); // 255 buckets = (11111111)_2

    let mut ct = CoresetTreeClusterer::new(config, 1).unwrap();
    let mut cc = CachedCoresetTree::new(config, 1).unwrap();
    let mut rcc = RecursiveCachedTree::new(config, 2, 1).unwrap();

    let mut ct_max = 0usize;
    let mut cc_max = 0usize;
    let mut rcc_max = 0usize;
    for (i, p) in stream.iter().enumerate() {
        ct.update(p).unwrap();
        cc.update(p).unwrap();
        rcc.update(p).unwrap();
        if (i + 1) % m == 0 {
            ct.query().unwrap();
            cc.query().unwrap();
            rcc.query().unwrap();
            ct_max = ct_max.max(ct.last_query_stats().unwrap().coresets_merged);
            cc_max = cc_max.max(cc.last_query_stats().unwrap().coresets_merged);
            rcc_max = rcc_max.max(rcc.last_query_stats().unwrap().coresets_merged);
        }
    }
    let n_buckets = (stream.len() / m) as u64;
    // CT worst case: one active bucket per level, i.e. about log_2(N) merges.
    assert!(
        ct_max as u32 >= ceil_log(n_buckets, r) - 1,
        "CT max merges {ct_max} unexpectedly small for N = {n_buckets}"
    );
    // CC: at most r coresets plus the partial base bucket.
    assert!(
        cc_max <= r as usize + 1,
        "CC max merges {cc_max} exceeds r + 1 = {}",
        r + 1
    );
    // RCC: a small constant, far below CT.
    assert!(rcc_max <= 7, "RCC max merges {rcc_max}");
    assert!(
        ct_max > cc_max,
        "CT ({ct_max}) should merge more than CC ({cc_max})"
    );
}

/// Lemma 5 / Table 1 accuracy column: with queries after every bucket, the
/// level of the coreset CC returns stays below 2·log_r(N), while CT's stays
/// below log_r(N).
#[test]
fn coreset_levels_respect_fact_1_and_lemma_5() {
    let m = 10;
    let r = 2u64;
    let config = StreamConfig::new(2)
        .with_bucket_size(m)
        .with_merge_degree(r)
        .with_kmeans_runs(1)
        .with_lloyd_iterations(1);
    let stream = random_stream(m * 200, 3, 11);

    let mut ct = CoresetTreeClusterer::new(config, 2).unwrap();
    let mut cc = CachedCoresetTree::new(config, 2).unwrap();
    for (i, p) in stream.iter().enumerate() {
        ct.update(p).unwrap();
        cc.update(p).unwrap();
        if (i + 1) % m == 0 {
            let n = ((i + 1) / m) as u64;
            ct.query().unwrap();
            cc.query().unwrap();
            let ct_level = ct.last_query_stats().unwrap().coreset_level.unwrap();
            let cc_level = cc.last_query_stats().unwrap().coreset_level.unwrap();
            assert!(
                ct_level <= ceil_log(n, r),
                "CT level {ct_level} exceeds Fact 1 bound {} at N = {n}",
                ceil_log(n, r)
            );
            assert!(
                cc_level <= 2 * ceil_log(n, r).max(1),
                "CC level {cc_level} exceeds Lemma 5 bound {} at N = {n}",
                2 * ceil_log(n, r).max(1)
            );
        }
    }
}

/// OnlineCC answers most queries without running k-means++ (the "usually
/// O(1)" claim of Table 1), yet falls back often enough to keep accuracy.
#[test]
fn online_cc_answers_most_queries_on_the_fast_path() {
    let config = StreamConfig::new(4)
        .with_bucket_size(80)
        .with_kmeans_runs(1)
        .with_lloyd_iterations(2);
    let stream = random_stream(20_000, 4, 13);
    let mut online = OnlineCC::new(config, 2.0, 5).unwrap();
    let mut fast_path = 0usize;
    let mut total_queries = 0usize;
    for (i, p) in stream.iter().enumerate() {
        online.update(p).unwrap();
        if (i + 1) % 100 == 0 {
            online.query().unwrap();
            total_queries += 1;
            if !online.last_query_stats().unwrap().ran_kmeans {
                fast_path += 1;
            }
        }
    }
    assert_eq!(total_queries, 200);
    assert!(
        fast_path * 2 > total_queries,
        "expected most queries on the fast path, got {fast_path}/{total_queries}"
    );
    assert!(
        online.fallback_count() >= 1,
        "expected at least one fallback to CC"
    );
}

/// Repeating a query without new data must return the same number of centers
/// and must not grow memory (the cache replaces, never accumulates).
#[test]
fn repeated_queries_are_stable_and_do_not_leak_memory() {
    let config = StreamConfig::new(3)
        .with_bucket_size(30)
        .with_kmeans_runs(1)
        .with_lloyd_iterations(1);
    let stream = random_stream(3_000, 3, 17);
    let mut cc = CachedCoresetTree::new(config, 9).unwrap();
    for p in &stream {
        cc.update(p).unwrap();
    }
    cc.query().unwrap();
    let mem_after_first = cc.memory_points();
    for _ in 0..20 {
        let centers = cc.query().unwrap();
        assert_eq!(centers.len(), 3);
    }
    assert_eq!(
        cc.memory_points(),
        mem_after_first,
        "repeated queries must not change stored memory"
    );
}

/// The cache never holds more than O(log_r N) coresets (Lemma 7's space
/// argument), even under constant querying.
#[test]
fn cache_size_stays_logarithmic_under_heavy_querying() {
    let m = 10;
    let config = StreamConfig::new(2)
        .with_bucket_size(m)
        .with_kmeans_runs(1)
        .with_lloyd_iterations(1);
    let stream = random_stream(m * 300, 2, 19);
    let mut cc = CachedCoresetTree::new(config, 21).unwrap();
    for (i, p) in stream.iter().enumerate() {
        cc.update(p).unwrap();
        if (i + 1) % 5 == 0 {
            cc.query().unwrap();
            let n = ((i + 1) / m).max(1) as u64;
            let bound = ceil_log(n, 2) as usize + 2;
            assert!(
                cc.cache().len() <= bound,
                "cache holds {} coresets at N = {n}, bound {bound}",
                cc.cache().len()
            );
        }
    }
}

/// Different merge degrees r give the same clustering quality ballpark but
/// different tree shapes — the r-way generalization the paper introduces on
/// top of streamkm++.
#[test]
fn merge_degree_changes_tree_shape_not_correctness() {
    let stream = random_stream(4_000, 3, 23);
    let mut costs = Vec::new();
    for r in [2u64, 4, 8] {
        let config = StreamConfig::new(5)
            .with_bucket_size(50)
            .with_merge_degree(r)
            .with_kmeans_runs(2)
            .with_lloyd_iterations(3);
        let mut cc = CachedCoresetTree::new(config, 31).unwrap();
        let mut all = streaming_kmeans::clustering::PointBlock::new(3);
        for p in &stream {
            cc.update(p).unwrap();
            all.push(p, 1.0);
        }
        let centers = cc.query().unwrap();
        let cost = streaming_kmeans::clustering::cost::kmeans_cost_block(&all, &centers).unwrap();
        costs.push(cost);
    }
    let max = costs.iter().copied().fold(f64::MIN, f64::max);
    let min = costs.iter().copied().fold(f64::MAX, f64::min);
    assert!(
        max <= 3.0 * min,
        "costs across merge degrees diverged too much: {costs:?}"
    );
}
