//! Network monitoring: frequent clustering queries over a skewed
//! intrusion-detection-like stream.
//!
//! This is the scenario that motivates the paper: an operator wants cluster
//! centers of the traffic seen so far in (near) real time, so queries arrive
//! every few hundred points. The example compares the query cost and the
//! answer quality of OnlineCC (the paper's fastest algorithm), CC, the
//! streamkm++ baseline and Sequential k-means on an Intrusion-like stream.
//!
//! ```text
//! cargo run --release --example network_monitoring
//! ```

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::time::Instant;
use streaming_kmeans::clustering::cost::kmeans_cost_block;
use streaming_kmeans::data::uci_like::intrusion_like;
use streaming_kmeans::prelude::*;

const STREAM_POINTS: usize = 30_000;
const QUERY_INTERVAL: usize = 500;
const K: usize = 10;

fn run(name: &str, clusterer: &mut dyn StreamingClusterer, dataset: &Dataset) {
    let mut update_time = 0.0f64;
    let mut query_time = 0.0f64;
    let mut queries = 0u32;
    for (i, point) in dataset.stream().enumerate() {
        let t = Instant::now();
        clusterer.update(point).expect("update");
        update_time += t.elapsed().as_secs_f64();
        if (i + 1) % QUERY_INTERVAL == 0 {
            let t = Instant::now();
            clusterer.query().expect("query");
            query_time += t.elapsed().as_secs_f64();
            queries += 1;
        }
    }
    let centers = clusterer.query().expect("final query");
    let cost = kmeans_cost_block(dataset.points(), &centers).expect("cost");
    println!(
        "{name:<12} update {update_time:>7.3}s   query {query_time:>7.3}s ({queries} queries)   \
         final cost {cost:.3e}   memory {} points",
        clusterer.memory_points()
    );
}

fn main() {
    let mut rng = ChaCha8Rng::seed_from_u64(1999);
    let dataset = intrusion_like(STREAM_POINTS, &mut rng).shuffled(&mut rng);
    println!(
        "intrusion-like stream: {} points, {} dims, query every {} points, k = {K}\n",
        dataset.len(),
        dataset.dim(),
        QUERY_INTERVAL
    );

    let config = StreamConfig::new(K)
        .with_kmeans_runs(2)
        .with_lloyd_iterations(5);

    let mut online = OnlineCC::new(config, 1.2, 7).expect("valid config");
    run("OnlineCC", &mut online, &dataset);
    println!(
        "             (OnlineCC fell back to CC {} times)",
        online.fallback_count()
    );

    let mut cc = CachedCoresetTree::new(config, 7).expect("valid config");
    run("CC", &mut cc, &dataset);

    let mut streamkm = CoresetTreeClusterer::new(config, 7).expect("valid config");
    run("StreamKM++", &mut streamkm, &dataset);

    let mut sequential = SequentialKMeans::new(K).expect("valid k");
    run("Sequential", &mut sequential, &dataset);

    println!(
        "\nExpected shape (paper, Figures 4c and 5c): OnlineCC and CC answer queries much faster\n\
         than StreamKM++ at similar cost; Sequential is fastest but its cost is far higher on\n\
         this skewed stream."
    );
}
