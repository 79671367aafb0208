//! Sensor-fleet drift: clustering a stream whose cluster centers move over
//! time (the paper's Drift dataset), watching how the streaming clusterers
//! track the movement.
//!
//! OnlineCC is interesting here: its cheap sequentially-maintained centers
//! degrade as the distribution drifts, and its cost-estimate trigger decides
//! when to fall back to CC to recover accuracy.
//!
//! ```text
//! cargo run --release --example sensor_drift
//! ```

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use streaming_kmeans::clustering::cost::kmeans_cost_block;
use streaming_kmeans::clustering::PointBlock;
use streaming_kmeans::data::RbfDriftGenerator;
use streaming_kmeans::prelude::*;

const K: usize = 8;
const WINDOW: usize = 5_000;
const WINDOWS: usize = 6;

fn main() {
    let mut rng = ChaCha8Rng::seed_from_u64(7_777);
    // 8 drifting centers in 12 dimensions; fast drift to make the effect visible.
    let generator = RbfDriftGenerator::new(K, 12)
        .expect("valid generator")
        .with_speed(1.5)
        .with_points_per_step(50)
        .with_std_dev(1.0);
    let dataset = generator.generate(WINDOW * WINDOWS, &mut rng);
    println!(
        "drifting stream: {} points, {} dims, {} drifting ground-truth centers\n",
        dataset.len(),
        dataset.dim(),
        K
    );

    let config = StreamConfig::new(K)
        .with_kmeans_runs(2)
        .with_lloyd_iterations(5);
    let mut online = OnlineCC::new(config, 1.5, 3).expect("valid config");
    let mut cc = CachedCoresetTree::new(config, 3).expect("valid config");

    println!("window   OnlineCC cost (window)   CC cost (window)   OnlineCC fallbacks");
    let mut fallbacks_before = 0;
    let mut window_points = PointBlock::new(dataset.dim());
    for (i, point) in dataset.stream().enumerate() {
        online.update(point).expect("update");
        cc.update(point).expect("update");
        window_points.push(point, 1.0);

        if (i + 1) % WINDOW == 0 {
            let online_centers = online.query().expect("query");
            let cc_centers = cc.query().expect("query");
            // Evaluate both on the *most recent window*, which is what a
            // drift-aware operator cares about.
            let online_cost = kmeans_cost_block(&window_points, &online_centers).expect("cost");
            let cc_cost = kmeans_cost_block(&window_points, &cc_centers).expect("cost");
            let new_fallbacks = online.fallback_count() - fallbacks_before;
            fallbacks_before = online.fallback_count();
            println!(
                "{:>6}   {:>22.3e}   {:>16.3e}   {:>18}",
                (i + 1) / WINDOW,
                online_cost,
                cc_cost,
                new_fallbacks
            );
            window_points.clear();
        }
    }

    println!(
        "\nBoth algorithms keep tracking the drifting centers; OnlineCC falls back to CC whenever\n\
         its running cost estimate exceeds α × the cost at its last rebuild (α = 1.5 here)."
    );
}
