//! Sharded multi-threaded ingestion: partition one heavy stream across
//! several worker threads (each owning its own CC clusterer) and answer
//! queries by merging the per-shard coresets.
//!
//! The example streams a Gaussian mixture through a single-threaded CC and
//! through `ShardedStream` at several shard counts, showing that
//!
//! * ingestion throughput scales with available cores (on a single-core
//!   machine the sharded figures collapse onto the baseline plus channel
//!   overhead — that is expected),
//! * the clustering cost stays in the same approximation band regardless
//!   of the shard count, and
//! * repeated runs at a fixed `(seed, shards)` return bit-identical
//!   centers.
//!
//! ```text
//! cargo run --release --example sharded_ingest
//! ```

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::time::Instant;
use streaming_kmeans::clustering::cost::kmeans_cost_block;
use streaming_kmeans::prelude::*;

const K: usize = 6;
const POINTS: usize = 40_000;
const BATCH: usize = 256;

fn main() {
    let mut rng = ChaCha8Rng::seed_from_u64(2024);
    let dataset = GaussianMixture::new(K, 16)
        .expect("valid generator")
        .generate(POINTS, &mut rng);
    let dataset = dataset.shuffled(&mut rng);
    println!(
        "stream: {} points, {} dims, {} clusters\n",
        dataset.len(),
        dataset.dim(),
        K
    );

    let config = StreamConfig::new(K)
        .with_kmeans_runs(2)
        .with_lloyd_iterations(5);

    // Single-threaded CC baseline.
    let mut cc = CachedCoresetTree::new(config, 9).expect("valid config");
    let start = Instant::now();
    for point in dataset.stream() {
        cc.update(point).expect("update");
    }
    let baseline_secs = start.elapsed().as_secs_f64();
    let baseline_cost =
        kmeans_cost_block(dataset.points(), &cc.query().expect("query")).expect("cost");
    println!("   shards   ingest (s)   speedup   final cost (vs CC {baseline_cost:.3e})");
    println!("baseline   {baseline_secs:>10.3}      1.00x");

    for shards in [1, 2, 4, 8] {
        let mut sharded = ShardedStream::cc(config, shards, BATCH, 9).expect("valid configuration");
        let start = Instant::now();
        for point in dataset.stream() {
            sharded.update(point).expect("update");
        }
        sharded.drain().expect("drain");
        let secs = start.elapsed().as_secs_f64();
        let centers = sharded.query().expect("query");
        let cost = kmeans_cost_block(dataset.points(), &centers).expect("cost");
        let stats = sharded.last_query_stats().expect("queried");
        println!(
            "{shards:>8}   {secs:>10.3}   {:>6.2}x   {cost:.3e}  ({} candidates from {} coresets)",
            baseline_secs / secs,
            stats.candidate_points,
            stats.coresets_merged,
        );
    }

    // Determinism: same seed + same shard count => bit-identical answer.
    let run = || {
        let mut s = ShardedStream::cc(config, 4, BATCH, 123).expect("valid configuration");
        for point in dataset.stream() {
            s.update(point).expect("update");
        }
        s.query().expect("query")
    };
    assert_eq!(run(), run());
    println!("\nrepeated run at fixed (seed, shards): centers are bit-identical ✓");
}
