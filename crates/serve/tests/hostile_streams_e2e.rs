//! Adversarial end-to-end acceptance: each `skm_data::hostile` stream is
//! fed through a real server over TCP (with strict queries interleaved
//! mid-stream) and the served clustering must land in the same cost
//! envelope as an in-process `ShardedStream` run at the same
//! `(seed, shards, batch)` — plus stay finite, answer windowed reads with
//! honest coverage, and keep its point accounting exact.
//!
//! The PR 3 OnlineCC duplicate-fallback bug is the archetype this suite
//! exists for: a degenerate stream shape silently knocking a hot path into
//! a pathological regime. Every generator here encodes one such shape.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use skm_clustering::cost::kmeans_cost_block;
use skm_clustering::PointBlock;
use skm_data::hostile;
use skm_serve::prelude::*;
use skm_stream::{ShardedStream, StreamingClusterer};
use std::sync::Arc;

const K: usize = 4;
const SHARDS: usize = 2;
const BATCH: usize = 64;
const SEED: u64 = 42;

/// Additive slack for the cost envelope: the degenerate streams
/// (duplicates, near-zero variance) drive both costs to ~0, where a purely
/// multiplicative envelope is meaningless.
const COST_EPS: f64 = 1e-6;

fn config() -> StreamConfig {
    StreamConfig::new(K)
        .with_bucket_size(20 * K)
        .with_kmeans_runs(1)
        .with_lloyd_iterations(5)
}

fn cost_on(points: &[Vec<f64>], centers: &[Vec<f64>]) -> f64 {
    let mut set = PointBlock::new(points[0].len());
    for p in points {
        set.push(p, 1.0);
    }
    let centers = skm_clustering::Centers::from_rows(points[0].len(), centers).unwrap();
    kmeans_cost_block(&set, &centers).unwrap()
}

/// Streams `points` through a fresh server on one connection (strict
/// queries interleaved every 16 batches), then checks the final served
/// clustering against the in-process reference envelope and the windowed
/// read path.
fn assert_serves_within_envelope(name: &str, points: &[Vec<f64>]) {
    let n = points.len() as u64;

    // In-process reference at the same (seed, shards, batch).
    let mut local = ShardedStream::cc(config(), SHARDS, BATCH, SEED).unwrap();
    for p in points {
        local.update(p).unwrap();
    }
    let local_cost = cost_on(points, &local.query().unwrap().to_rows());
    assert!(local_cost.is_finite(), "{name}: in-process cost not finite");

    let engine =
        Arc::new(Engine::new(&EngineSpec::sharded_cc(config(), SHARDS, BATCH, SEED)).unwrap());
    let handle = Server::bind("127.0.0.1:0", Arc::clone(&engine), None)
        .unwrap()
        .spawn()
        .unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    for (i, chunk) in points.chunks(BATCH).enumerate() {
        match client.ingest_batch(chunk.to_vec()).unwrap() {
            Response::Ingested { .. } => {}
            other => panic!("{name}: ingest refused mid-stream: {other:?}"),
        }
        // Interleaved strict reads: the hostile shape must not wedge the
        // query path while ingestion is live.
        if i % 8 == 7 {
            match client.query_opts(&RequestOptions::strict()).unwrap() {
                Response::Centers { centers, cost, .. } => {
                    assert_eq!(centers.len(), K, "{name}: mid-stream k wrong");
                    assert!(cost.is_finite(), "{name}: mid-stream cost not finite");
                }
                other => panic!("{name}: mid-stream query failed: {other:?}"),
            }
        }
    }

    let served_centers = match client.query_opts(&RequestOptions::strict()).unwrap() {
        Response::Centers { centers, cost, .. } => {
            assert!(cost.is_finite(), "{name}: served cost not finite");
            centers
        }
        other => panic!("{name}: final query failed: {other:?}"),
    };
    let stats = client.stats().unwrap();
    assert_eq!(stats.points_seen, n, "{name}: point accounting drifted");
    assert_eq!(
        stats.per_shard_points.iter().sum::<u64>(),
        n,
        "{name}: shards lost points"
    );

    // A windowed strict read over the hostile stream: coverage must stay
    // honest (at least the request, never beyond the stream).
    let window = (n / 4).max(1);
    match client
        .query_opts(&RequestOptions::strict().with_window(WindowSpec::points(window)))
        .unwrap()
    {
        Response::Centers { window: info, .. } => {
            let info = info.unwrap_or_else(|| panic!("{name}: windowed read lost its window"));
            assert_eq!(info.last_points, window, "{name}");
            assert!(
                info.covered_points >= window && info.covered_points <= n,
                "{name}: coverage {} for window {window} over {n} points",
                info.covered_points
            );
        }
        other => panic!("{name}: windowed query failed: {other:?}"),
    }

    client.shutdown().unwrap();
    handle.shutdown().unwrap();

    // Same algorithm, same parameters, same single-connection arrival
    // order: the served cost must sit in the in-process envelope (generous
    // against k-means++ seeding noise, additive slack for ~0-cost
    // degenerate streams).
    let served_cost = cost_on(points, &served_centers);
    assert!(
        served_cost <= 2.0 * local_cost + COST_EPS && local_cost <= 2.0 * served_cost + COST_EPS,
        "{name}: served cost {served_cost:.4e} vs in-process {local_cost:.4e} out of envelope"
    );
}

fn rows(d: &skm_data::Dataset) -> Vec<Vec<f64>> {
    d.stream().map(<[f64]>::to_vec).collect()
}

#[test]
fn heavy_duplicate_streams_serve_within_the_cost_envelope() {
    let mut rng = ChaCha8Rng::seed_from_u64(101);
    let data = hostile::heavy_duplicates(2_000, 8, 4, &mut rng);
    assert_serves_within_envelope("heavy_duplicates", &rows(&data));
}

#[test]
fn near_zero_variance_streams_serve_within_the_cost_envelope() {
    let mut rng = ChaCha8Rng::seed_from_u64(102);
    let data = hostile::near_zero_variance(1_500, K, 8, &mut rng);
    assert_serves_within_envelope("near_zero_variance", &rows(&data));
}

#[test]
fn dimension_hot_outlier_streams_serve_within_the_cost_envelope() {
    let mut rng = ChaCha8Rng::seed_from_u64(103);
    let data = hostile::dimension_hot_outliers(1_500, 16, 50, 1e6, &mut rng);
    assert_serves_within_envelope("dimension_hot_outliers", &rows(&data));
}

#[test]
fn adversarially_ordered_streams_serve_within_the_cost_envelope() {
    let mut rng = ChaCha8Rng::seed_from_u64(104);
    let data = hostile::adversarial_order(2_000, K, 4, &mut rng);
    assert_serves_within_envelope("adversarial_order", &rows(&data));
}

#[test]
fn high_dim_streams_serve_within_the_cost_envelope() {
    let mut rng = ChaCha8Rng::seed_from_u64(105);
    let data = hostile::high_dim(800, K, 256, &mut rng);
    assert_eq!(data.dim(), 256);
    assert_serves_within_envelope("high_dim", &rows(&data));
}

/// The PR 3 regression, restated as observable wire behavior: on a
/// duplicate-heavy stream, repeated strict reads with no intervening
/// ingest must reuse the cached coreset — `used_cache` true, a single
/// cached input instead of an every-level tree merge, and a candidate set
/// that does not grow — rather than rebuilding per query. (Each strict
/// read still runs k-means over the candidates; the churn the cache
/// prevents is the per-query coreset reconstruction.) Cached reads must
/// not advance the published epoch at all.
#[test]
fn duplicate_heavy_streams_cause_no_per_query_rebuild_churn() {
    let mut rng = ChaCha8Rng::seed_from_u64(106);
    let data = rows(&hostile::heavy_duplicates(2_000, 4, 3, &mut rng));

    let config = StreamConfig::new(2)
        .with_bucket_size(40)
        .with_kmeans_runs(1)
        .with_lloyd_iterations(2);
    // The single-stream CC backend: the coreset-caching structure OnlineCC
    // wraps, and the one whose per-query cache behavior stats expose.
    let engine = Arc::new(
        Engine::new(&EngineSpec {
            kind: BackendKind::Cc,
            stream: config,
            shards: 1,
            batch: 1,
            nesting_depth: 2,
            seed: 17,
        })
        .unwrap(),
    );
    let handle = Server::bind("127.0.0.1:0", engine, None)
        .unwrap()
        .spawn()
        .unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    for chunk in data.chunks(100) {
        client.ingest_batch(chunk.to_vec()).unwrap();
    }

    // First strict read pays for its clustering and seeds the coreset
    // cache.
    let (first, baseline_candidates) = match client.query_opts(&RequestOptions::strict()).unwrap() {
        Response::Centers { epoch, stats, .. } => (epoch, stats.candidate_points),
        other => panic!("first strict query failed: {other:?}"),
    };

    // Repeated strict reads on the unchanged duplicate-heavy stream: the
    // cached coreset is reused outright. The stats request is strict too,
    // so `last_query` is exact.
    for round in 0..5 {
        match client.query_opts(&RequestOptions::strict()).unwrap() {
            Response::Centers { .. } => {}
            other => panic!("strict query {round} failed: {other:?}"),
        }
        let stats = client.stats_opts(&RequestOptions::strict()).unwrap();
        let last = stats.last_query.expect("strict query must record stats");
        assert!(
            last.used_cache,
            "round {round}: duplicate-heavy stream rebuilt instead of using the cache"
        );
        assert!(
            last.coresets_merged <= 2,
            "round {round}: repeated query re-merged {} coresets instead of \
             reusing the cached [1, N] entry",
            last.coresets_merged
        );
        assert!(
            last.candidate_points <= baseline_candidates,
            "round {round}: candidate set grew {} -> {} on an unchanged stream",
            baseline_candidates,
            last.candidate_points
        );
    }

    // Cached reads serve the published answer without publishing: the
    // epoch observed by a later cached read cannot run ahead of the last
    // strict one.
    let strict_epoch = match client.query_opts(&RequestOptions::strict()).unwrap() {
        Response::Centers { epoch, .. } => epoch,
        other => panic!("strict query failed: {other:?}"),
    };
    assert!(strict_epoch >= first);
    for _ in 0..3 {
        match client.query_opts(&RequestOptions::cached()).unwrap() {
            Response::Centers { epoch, .. } => assert_eq!(
                epoch, strict_epoch,
                "a cached read advanced the published epoch"
            ),
            other => panic!("cached query failed: {other:?}"),
        }
    }

    client.shutdown().unwrap();
    handle.shutdown().unwrap();
}
