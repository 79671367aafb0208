//! Quickstart: cluster a synthetic stream with the Cached Coreset Tree (CC)
//! and query it as the stream flows by.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use streaming_kmeans::clustering::cost::kmeans_cost_block;
use streaming_kmeans::prelude::*;

fn main() {
    // 1. A stream: 20,000 points drawn from 5 Gaussian clusters in 8-d.
    let mut rng = ChaCha8Rng::seed_from_u64(2024);
    let mixture = GaussianMixture::new(5, 8).expect("valid generator");
    let dataset = mixture.generate(20_000, &mut rng).shuffled(&mut rng);
    println!(
        "stream: {} points, {} dimensions, 5 ground-truth clusters",
        dataset.len(),
        dataset.dim()
    );

    // 2. A streaming clusterer: CC with k = 5 and the paper's default
    //    bucket size m = 20·k.
    let config = StreamConfig::new(5);
    let mut clusterer = CachedCoresetTree::new(config, 42).expect("valid configuration");

    // 3. Stream the points; ask for cluster centers every 2,000 points.
    for (i, point) in dataset.stream().enumerate() {
        clusterer.update(point).expect("consistent dimensions");
        if (i + 1) % 2_000 == 0 {
            let centers = clusterer.query().expect("at least one point observed");
            let cost = kmeans_cost_block(dataset.points(), &centers).expect("cost");
            println!(
                "after {:>6} points: {} centers, cost on full data = {:.3e}, memory = {} points",
                i + 1,
                centers.len(),
                cost,
                clusterer.memory_points()
            );
        }
    }

    // 4. Final answer.
    let centers = clusterer.query().expect("non-empty stream");
    println!("\nfinal centers:");
    for (j, c) in centers.iter().enumerate() {
        let head: Vec<String> = c.iter().take(3).map(|v| format!("{v:.2}")).collect();
        println!("  center {j}: [{}, ...]", head.join(", "));
    }
    println!(
        "\nthe clusterer stored {} points — the stream had {}.",
        clusterer.memory_points(),
        dataset.len()
    );
}
