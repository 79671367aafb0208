//! End-to-end integration tests spanning every crate of the workspace:
//! data generation → streaming clustering → accuracy/memory evaluation.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use streaming_kmeans::clustering::cost::kmeans_cost_block;
use streaming_kmeans::clustering::kmeans::KMeans;
use streaming_kmeans::data::uci_like::intrusion_like;
use streaming_kmeans::prelude::*;

const K: usize = 6;

fn mixture_stream(points: usize, seed: u64) -> Dataset {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    GaussianMixture::new(K, 6)
        .expect("valid generator")
        .generate(points, &mut rng)
        .shuffled(&mut rng)
}

fn test_config() -> StreamConfig {
    StreamConfig::new(K)
        .with_bucket_size(20 * K)
        .with_kmeans_runs(2)
        .with_lloyd_iterations(5)
}

fn stream_through(
    clusterer: &mut dyn StreamingClusterer,
    dataset: &Dataset,
    query_every: usize,
) -> streaming_kmeans::clustering::Centers {
    for (i, p) in dataset.stream().enumerate() {
        clusterer.update(p).expect("update");
        if query_every > 0 && (i + 1) % query_every == 0 {
            clusterer.query().expect("intermediate query");
        }
    }
    clusterer.query().expect("final query")
}

/// Every streaming algorithm matches the batch k-means++ cost within a
/// constant factor on well-separated Gaussian data (the qualitative content
/// of Figure 4), except Sequential which is allowed to be worse.
#[test]
fn streaming_algorithms_match_batch_accuracy_on_mixture() {
    let dataset = mixture_stream(6_000, 1);
    let config = test_config();

    let mut rng = ChaCha8Rng::seed_from_u64(99);
    let batch = KMeans::new(K)
        .with_runs(3)
        .fit_block(dataset.points(), &mut rng)
        .expect("batch fit");
    let batch_cost = batch.cost;

    let mut ct = CoresetTreeClusterer::new(config, 7).unwrap();
    let mut cc = CachedCoresetTree::new(config, 7).unwrap();
    let mut rcc = RecursiveCachedTree::new(config, 2, 7).unwrap();
    let mut online = OnlineCC::new(config, 1.2, 7).unwrap();

    let algorithms: Vec<(&str, &mut dyn StreamingClusterer)> = vec![
        ("CT", &mut ct),
        ("CC", &mut cc),
        ("RCC", &mut rcc),
        ("OnlineCC", &mut online),
    ];
    for (name, algorithm) in algorithms {
        let centers = stream_through(algorithm, &dataset, 500);
        let cost = kmeans_cost_block(dataset.points(), &centers).expect("cost");
        assert!(
            cost <= 2.5 * batch_cost + 1e-9,
            "{name}: streaming cost {cost:.4e} vs batch {batch_cost:.4e}"
        );
        assert_eq!(centers.len(), K, "{name} returned wrong number of centers");
    }
}

/// Sequential k-means collapses on skewed data while the coreset algorithms
/// do not (Figure 4c).
#[test]
fn sequential_is_much_worse_on_skewed_intrusion_data() {
    let mut rng = ChaCha8Rng::seed_from_u64(5);
    let dataset = intrusion_like(5_000, &mut rng).shuffled(&mut rng);
    let config = StreamConfig::new(8)
        .with_kmeans_runs(2)
        .with_lloyd_iterations(5);

    let mut sequential = SequentialKMeans::new(8).unwrap();
    let mut cc = CachedCoresetTree::new(config, 3).unwrap();

    let seq_centers = stream_through(&mut sequential, &dataset, 0);
    let cc_centers = stream_through(&mut cc, &dataset, 0);

    let seq_cost = kmeans_cost_block(dataset.points(), &seq_centers).unwrap();
    let cc_cost = kmeans_cost_block(dataset.points(), &cc_centers).unwrap();
    assert!(
        seq_cost > 3.0 * cc_cost,
        "expected Sequential ({seq_cost:.3e}) to be far worse than CC ({cc_cost:.3e})"
    );
}

/// Memory ordering of Table 4: StreamKM++ ≤ CC ≈ OnlineCC ≤ RCC, and all of
/// them are tiny compared to storing the stream.
#[test]
fn memory_ordering_matches_table_4() {
    let dataset = mixture_stream(8_000, 11);
    let config = test_config();

    let mut ct = CoresetTreeClusterer::new(config, 1).unwrap();
    let mut cc = CachedCoresetTree::new(config, 1).unwrap();
    let mut rcc = RecursiveCachedTree::for_stream_length(config, 3, dataset.len(), 1).unwrap();
    let mut online = OnlineCC::new(config, 1.2, 1).unwrap();

    stream_through(&mut ct, &dataset, 200);
    stream_through(&mut cc, &dataset, 200);
    stream_through(&mut rcc, &dataset, 200);
    stream_through(&mut online, &dataset, 200);

    let ct_mem = ct.memory_points();
    let cc_mem = cc.memory_points();
    let online_mem = online.memory_points();
    let rcc_mem = rcc.memory_points();

    assert!(
        ct_mem <= cc_mem,
        "CT {ct_mem} should use no more memory than CC {cc_mem}"
    );
    assert!(
        cc_mem <= 2 * ct_mem + config.bucket_size,
        "CC {cc_mem} should stay within ~2x of CT {ct_mem}"
    );
    // OnlineCC carries the same tree as CC; its cache is only refreshed on
    // fallbacks, so it is bounded by CC's footprint (plus the k centers and
    // initialization buffer) but can be smaller when fallbacks are rare.
    assert!(
        online_mem <= cc_mem + config.bucket_size + 2 * K + 1,
        "OnlineCC {online_mem} should not exceed CC {cc_mem} by more than a bucket"
    );
    assert!(
        online_mem * 3 >= cc_mem,
        "OnlineCC {online_mem} should be within a small factor of CC {cc_mem}"
    );
    assert!(
        cc_mem <= rcc_mem * 2,
        "RCC {rcc_mem} is expected to be the largest"
    );
    // All sublinear in the stream length.
    for (name, mem) in [
        ("CT", ct_mem),
        ("CC", cc_mem),
        ("RCC", rcc_mem),
        ("OnlineCC", online_mem),
    ] {
        assert!(
            mem < dataset.len() / 2,
            "{name} memory {mem} is not sublinear in {} stream points",
            dataset.len()
        );
    }
}

/// The trait-object interface works for heterogeneous collections (this is
/// what the benchmark harness and the examples rely on).
#[test]
fn trait_objects_are_usable_in_collections() {
    let dataset = mixture_stream(1_500, 21);
    let config = test_config();
    let mut algorithms: Vec<Box<dyn StreamingClusterer>> = vec![
        Box::new(SequentialKMeans::new(K).unwrap()),
        Box::new(CoresetTreeClusterer::new(config, 2).unwrap()),
        Box::new(CachedCoresetTree::new(config, 2).unwrap()),
        Box::new(RecursiveCachedTree::new(config, 2, 2).unwrap()),
        Box::new(OnlineCC::new(config, 2.0, 2).unwrap()),
        Box::new(BatchKMeansPP::new(config, 2).unwrap()),
    ];
    for algorithm in &mut algorithms {
        let centers = stream_through(algorithm.as_mut(), &dataset, 400);
        assert!(centers.len() <= K);
        assert!(!centers.is_empty());
        assert_eq!(algorithm.points_seen(), dataset.len() as u64);
    }
}

/// Sharded ingestion is fully deterministic at a fixed `(seed, shards)`
/// pair: repeated runs return bit-identical centers, including queries
/// issued mid-stream (which drain in-flight batches first).
#[test]
fn sharded_stream_is_deterministic_at_fixed_seed_and_shards() {
    let dataset = mixture_stream(4_000, 41);
    let config = test_config();
    for shards in [1, 2, 4] {
        let run = || {
            let mut sharded =
                ShardedStream::cc(config, shards, 64, 7).expect("valid configuration");
            let mut mid = None;
            for (i, p) in dataset.stream().enumerate() {
                sharded.update(p).expect("update");
                if i + 1 == dataset.len() / 2 {
                    mid = Some(sharded.query().expect("mid-stream query"));
                }
            }
            (
                mid.expect("stream long enough"),
                sharded.query().expect("final query"),
            )
        };
        let (a_mid, a_end) = run();
        let (b_mid, b_end) = run();
        assert_eq!(a_mid, b_mid, "{shards} shards: mid-stream query diverged");
        assert_eq!(a_end, b_end, "{shards} shards: final query diverged");
    }
}

/// Sharding costs no accuracy beyond the coreset guarantee: on the Gaussian
/// drift workload, the merged multi-shard answer stays within the paper's
/// approximation envelope of the single-shard baseline (each shard
/// summarizes a disjoint sub-stream, so the union of the per-shard coresets
/// is a coreset of the whole stream — Observation 1).
#[test]
fn sharded_cost_stays_within_envelope_of_single_shard_on_gaussian_drift() {
    let mut rng = ChaCha8Rng::seed_from_u64(23);
    let dataset = RbfDriftGenerator::new(K, 8)
        .expect("valid generator")
        .with_speed(0.5)
        .with_points_per_step(100)
        .generate(6_000, &mut rng);
    let config = test_config();

    let mut single = ShardedStream::cc(config, 1, 128, 5).expect("valid configuration");
    let mut sharded = ShardedStream::cc(config, 4, 128, 5).expect("valid configuration");
    for p in dataset.stream() {
        single.update(p).expect("update");
        sharded.update(p).expect("update");
    }
    let single_cost =
        kmeans_cost_block(dataset.points(), &single.query().expect("query")).expect("cost");
    let sharded_cost =
        kmeans_cost_block(dataset.points(), &sharded.query().expect("query")).expect("cost");
    assert!(
        sharded_cost <= 2.5 * single_cost + 1e-9,
        "4-shard cost {sharded_cost:.4e} outside the envelope of 1-shard cost {single_cost:.4e}"
    );
    assert!(
        single_cost <= 2.5 * sharded_cost + 1e-9,
        "1-shard cost {single_cost:.4e} outside the envelope of 4-shard cost {sharded_cost:.4e}"
    );
}

/// `update_batch` is behaviourally identical to a per-point update loop:
/// same buckets, same RNG consumption, bit-identical query answers.
#[test]
fn batch_updates_match_per_point_updates_bit_for_bit() {
    let dataset = mixture_stream(2_500, 51);
    let config = test_config();
    let points: Vec<&[f64]> = dataset.stream().collect();

    let mut per_point = CachedCoresetTree::new(config, 13).unwrap();
    for p in &points {
        per_point.update(p).expect("update");
    }
    let mut batched = CachedCoresetTree::new(config, 13).unwrap();
    for chunk in points.chunks(97) {
        batched.update_batch(chunk).expect("update_batch");
    }
    assert_eq!(per_point.points_seen(), batched.points_seen());
    assert_eq!(
        per_point.query().expect("query"),
        batched.query().expect("query"),
        "batched ingestion must be indistinguishable from per-point ingestion"
    );
}

/// Query statistics expose the paper's central quantitative difference: with
/// frequent queries, CC touches far fewer coresets per query than CT.
#[test]
fn cc_merges_fewer_coresets_than_ct_under_frequent_queries() {
    let dataset = mixture_stream(6_000, 31);
    let config = StreamConfig::new(4)
        .with_bucket_size(40)
        .with_kmeans_runs(1)
        .with_lloyd_iterations(1);

    let mut ct = CoresetTreeClusterer::new(config, 3).unwrap();
    let mut cc = CachedCoresetTree::new(config, 3).unwrap();

    let mut ct_merged = 0usize;
    let mut cc_merged = 0usize;
    let mut ct_max = 0usize;
    let mut cc_max = 0usize;
    let mut queries = 0usize;
    for (i, p) in dataset.stream().enumerate() {
        ct.update(p).unwrap();
        cc.update(p).unwrap();
        if (i + 1) % 40 == 0 {
            ct.query().unwrap();
            cc.query().unwrap();
            let ct_q = ct.last_query_stats().unwrap().coresets_merged;
            let cc_q = cc.last_query_stats().unwrap().coresets_merged;
            ct_merged += ct_q;
            cc_merged += cc_q;
            ct_max = ct_max.max(ct_q);
            cc_max = cc_max.max(cc_q);
            queries += 1;
        }
    }
    assert!(queries > 100);
    // CC touches at most r (+1 for the partial bucket) coresets per query;
    // CT's worst case grows with log_r(N) and must exceed that.
    assert!(cc_max <= 3, "CC max merges per query was {cc_max}");
    assert!(
        ct_max > cc_max,
        "CT max merges {ct_max} should exceed CC max merges {cc_max}"
    );
    assert!(
        cc_merged < ct_merged,
        "CC merged {cc_merged} coresets across {queries} queries, CT merged {ct_merged}; \
         expected CC to merge fewer in total"
    );
}
