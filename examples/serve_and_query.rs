//! Serve a live stream over TCP and query it while it drifts.
//!
//! Spawns the `skm-serve` server on an ephemeral port in-process, streams a
//! drifting Gaussian mixture to it over real TCP connections (batched
//! ingest requests), issues interleaved queries while ingestion is running
//! and prints how the served centers track the drift. Finishes with a
//! snapshot → restore round trip to show cold-starting from persisted
//! state — no copy-pasted `curl` incantations needed.
//!
//! ```text
//! cargo run --release --example serve_and_query
//! ```

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use skm_serve::prelude::*;
use std::sync::Arc;

const K: usize = 3;
const PHASES: usize = 6;
const POINTS_PER_PHASE: usize = 4_000;
const BATCH: usize = 256;

/// A 2-d mixture whose anchors rotate a little every phase.
fn phase_points(phase: usize, rng: &mut ChaCha8Rng) -> Vec<Vec<f64>> {
    let angle = phase as f64 * 0.35;
    let anchors: Vec<[f64; 2]> = (0..K)
        .map(|c| {
            let base = c as f64 * std::f64::consts::TAU / K as f64 + angle;
            [30.0 * base.cos(), 30.0 * base.sin()]
        })
        .collect();
    (0..POINTS_PER_PHASE)
        .map(|i| {
            let a = anchors[i % K];
            vec![a[0] + rng.gen::<f64>(), a[1] + rng.gen::<f64>()]
        })
        .collect()
}

fn centroid_drift(prev: &[Vec<f64>], now: &[Vec<f64>]) -> f64 {
    // Sum over current centers of the distance to the nearest previous
    // center — a cheap, assignment-free drift measure.
    now.iter()
        .map(|c| {
            prev.iter()
                .map(|p| {
                    c.iter()
                        .zip(p)
                        .map(|(a, b)| (a - b) * (a - b))
                        .sum::<f64>()
                        .sqrt()
                })
                .fold(f64::INFINITY, f64::min)
        })
        .sum()
}

fn main() {
    let config = StreamConfig::new(K)
        .with_kmeans_runs(2)
        .with_lloyd_iterations(5);
    let engine =
        Arc::new(Engine::new(&EngineSpec::sharded_cc(config, 4, BATCH, 2024)).expect("valid spec"));
    let server = Server::bind("127.0.0.1:0", Arc::clone(&engine), None).expect("bind");
    let handle = server.spawn().expect("spawn server");
    println!("serving on {} (sharded CC, 4 shards)\n", handle.addr());

    let mut ingest = Client::connect(handle.addr()).expect("connect ingest client");
    // The query client negotiates the compact binary codec on connect; the
    // ingest client stays on newline-JSON — the server speaks both at once.
    let mut query = Client::builder(handle.addr())
        .codec(CodecKind::Binary)
        .connect()
        .expect("connect query client");
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    let mut previous: Option<Vec<Vec<f64>>> = None;

    println!("phase   points_seen   candidates   merged   drift vs previous phase");
    for phase in 0..PHASES {
        for chunk in phase_points(phase, &mut rng).chunks(BATCH) {
            ingest.ingest_batch(chunk.to_vec()).expect("ingest");
        }
        // Query from a *different* connection while the ingest connection
        // stays open — the whole point of CC/RCC is that this stays cheap.
        let (centers, seen, stats) = match query.query().expect("query") {
            Response::Centers {
                centers,
                points_seen,
                stats,
                ..
            } => (centers, points_seen, stats),
            other => panic!("query failed: {other:?}"),
        };
        // A cached follow-up re-reads the answer the strict query just
        // published — no drain, no k-means++, same epoch-stamped value.
        match query
            .query_opts(&RequestOptions::cached())
            .expect("cached query")
        {
            Response::Centers {
                epoch, points_seen, ..
            } => assert_eq!((epoch, points_seen), (phase as u64 + 1, seen)),
            other => panic!("cached query failed: {other:?}"),
        }
        let drift = previous.as_ref().map(|prev| centroid_drift(prev, &centers));
        match drift {
            Some(d) => println!(
                "{phase:>5}   {seen:>11}   {:>10}   {:>6}   {d:>10.3}",
                stats.candidate_points, stats.coresets_merged
            ),
            None => println!(
                "{phase:>5}   {seen:>11}   {:>10}   {:>6}   {:>10}",
                stats.candidate_points, stats.coresets_merged, "-"
            ),
        }
        previous = Some(centers);
    }

    let stats = query.stats().expect("stats");
    println!(
        "\nper-shard points: {:?} (total {})",
        stats.per_shard_points, stats.points_seen
    );

    // Snapshot the engine, shut the server down, cold-start from the
    // snapshot and confirm the restored service picks up where it left off.
    let snapshot = engine
        .snapshot_json_in(DEFAULT_NAMESPACE)
        .expect("snapshot");
    query.shutdown().expect("shutdown request");
    handle.shutdown().expect("clean shutdown");

    let restored = Arc::new(Engine::from_snapshot_json(&snapshot).expect("restore"));
    let handle = Server::bind("127.0.0.1:0", restored, None)
        .expect("bind")
        .spawn()
        .expect("spawn restored server");
    let mut client = Client::connect(handle.addr()).expect("connect to restored server");
    let resumed = client.stats().expect("stats after restore");
    assert_eq!(resumed.points_seen, stats.points_seen);
    println!(
        "restored from a {}-byte snapshot: {} points carried over ✓",
        snapshot.len(),
        resumed.points_seen
    );
    client.shutdown().expect("shutdown request");
    handle.shutdown().expect("clean shutdown");
}
