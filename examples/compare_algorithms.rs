//! Side-by-side comparison of every algorithm in the crate on one stream:
//! Sequential k-means, StreamKM++ (CT), CC, RCC, OnlineCC and the batch
//! k-means++ reference — a miniature version of the paper's Figure 4 / 5
//! columns for a single dataset.
//!
//! ```text
//! cargo run --release --example compare_algorithms [covtype|power|intrusion|drift] [points]
//! ```

use std::time::Instant;
use streaming_kmeans::clustering::cost::kmeans_cost_block;
use streaming_kmeans::prelude::*;

const QUERY_INTERVAL: usize = 500;
const K: usize = 15;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let dataset_name = args.first().map_or("covtype", String::as_str);
    let points: usize = args.get(1).and_then(|v| v.parse().ok()).unwrap_or(20_000);

    // The bench crate is not a dependency of the examples, so rebuild the
    // dataset with the data crate directly.
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    let mut rng = ChaCha8Rng::seed_from_u64(11);
    let dataset = match dataset_name.to_ascii_lowercase().as_str() {
        "power" => streaming_kmeans::data::uci_like::power_like(points, &mut rng),
        "intrusion" => streaming_kmeans::data::uci_like::intrusion_like(points, &mut rng),
        "drift" => streaming_kmeans::data::RbfDriftGenerator::paper_default()
            .expect("valid generator")
            .generate(points, &mut rng),
        _ => streaming_kmeans::data::uci_like::covtype_like(points, &mut rng),
    }
    .shuffled(&mut rng);

    println!(
        "dataset {:>10}: {} points x {} dims, k = {K}, query every {QUERY_INTERVAL} points\n",
        dataset.name(),
        dataset.len(),
        dataset.dim()
    );
    println!(
        "{:<18} {:>12} {:>12} {:>12} {:>14} {:>10}",
        "algorithm", "update (s)", "query (s)", "total (s)", "final cost", "memory"
    );

    let config = StreamConfig::new(K)
        .with_kmeans_runs(2)
        .with_lloyd_iterations(5);

    let mut algorithms: Vec<(String, Box<dyn StreamingClusterer>)> = vec![
        (
            "Sequential".into(),
            Box::new(SequentialKMeans::new(K).expect("valid k")),
        ),
        (
            "StreamKM++ (CT)".into(),
            Box::new(CoresetTreeClusterer::new(config, 5).expect("valid config")),
        ),
        (
            "CC".into(),
            Box::new(CachedCoresetTree::new(config, 5).expect("valid config")),
        ),
        (
            "RCC (depth 3)".into(),
            Box::new(
                RecursiveCachedTree::for_stream_length(config, 3, dataset.len(), 5)
                    .expect("valid config"),
            ),
        ),
        (
            "OnlineCC".into(),
            Box::new(OnlineCC::new(config, 1.2, 5).expect("valid config")),
        ),
        (
            "KMeans++ (batch)".into(),
            Box::new(BatchKMeansPP::new(config, 5).expect("valid config")),
        ),
    ];

    for (name, algorithm) in &mut algorithms {
        let mut update_time = 0.0;
        let mut query_time = 0.0;
        for (i, point) in dataset.stream().enumerate() {
            let t = Instant::now();
            algorithm.update(point).expect("update");
            update_time += t.elapsed().as_secs_f64();
            if (i + 1) % QUERY_INTERVAL == 0 {
                let t = Instant::now();
                algorithm.query().expect("query");
                query_time += t.elapsed().as_secs_f64();
            }
        }
        let centers = algorithm.query().expect("final query");
        let cost = kmeans_cost_block(dataset.points(), &centers).expect("cost");
        println!(
            "{:<18} {:>12.3} {:>12.3} {:>12.3} {:>14.4e} {:>10}",
            name,
            update_time,
            query_time,
            update_time + query_time,
            cost,
            algorithm.memory_points()
        );
    }

    println!(
        "\nExpected shape (paper): the coreset algorithms match the batch cost; Sequential is\n\
         cheap but (much) less accurate; CC/RCC/OnlineCC spend far less time on queries than\n\
         StreamKM++, with OnlineCC the cheapest overall."
    );
}
