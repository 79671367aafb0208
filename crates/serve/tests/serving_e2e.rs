//! End-to-end acceptance for the serving subsystem:
//!
//! 1. A server fed ≥50k points by 4 concurrent client threads (with
//!    interleaved queries) returns k centers whose cost on the ingested
//!    data is in the same envelope as an in-process `ShardedStream` run at
//!    the same `(seed, shards, batch)`.
//! 2. Snapshot → kill the server → restore → continue is bit-identical to
//!    an uninterrupted run at a fixed seed.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use skm_clustering::cost::kmeans_cost_block;
use skm_clustering::PointBlock;
use skm_serve::prelude::*;
use skm_stream::{ShardedStream, StreamingClusterer};
use std::sync::Arc;

const K: usize = 4;
const SHARDS: usize = 4;
const BATCH: usize = 128;
const SEED: u64 = 42;

fn config() -> StreamConfig {
    StreamConfig::new(K)
        .with_bucket_size(20 * K)
        .with_kmeans_runs(1)
        .with_lloyd_iterations(5)
}

/// A well-separated 4-blob mixture in 3 dimensions.
fn dataset(n: usize, seed: u64) -> Vec<Vec<f64>> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let anchors = [
        [0.0, 0.0, 0.0],
        [60.0, 0.0, 10.0],
        [0.0, 60.0, -10.0],
        [60.0, 60.0, 0.0],
    ];
    (0..n)
        .map(|i| {
            let a = anchors[i % anchors.len()];
            (0..3).map(|d| a[d] + rng.gen::<f64>()).collect()
        })
        .collect()
}

fn cost_on(points: &[Vec<f64>], centers: &[Vec<f64>]) -> f64 {
    let mut set = PointBlock::new(points[0].len());
    for p in points {
        set.push(p, 1.0);
    }
    let centers = skm_clustering::Centers::from_rows(points[0].len(), centers).unwrap();
    kmeans_cost_block(&set, &centers).unwrap()
}

#[test]
fn four_concurrent_clients_match_the_in_process_cost_envelope() {
    let points = dataset(50_000, SEED);

    // In-process reference at the same (seed, shards, batch).
    let mut local = ShardedStream::cc(config(), SHARDS, BATCH, SEED).unwrap();
    for p in &points {
        local.update(p).unwrap();
    }
    let local_centers = local.query().unwrap();
    let local_cost = cost_on(&points, &local_centers.to_rows());

    // Served run: 4 concurrent connections, interleaved queries.
    let engine =
        Arc::new(Engine::new(&EngineSpec::sharded_cc(config(), SHARDS, BATCH, SEED)).unwrap());
    let handle = Server::bind("127.0.0.1:0", Arc::clone(&engine), None)
        .unwrap()
        .spawn()
        .unwrap();
    let spec = LoadSpec::new(handle.addr())
        .with_connections(4)
        .with_batch(BATCH)
        .with_query_every(16)
        .with_freshness(Freshness::Strict);
    let report = run_load(&spec, &points).unwrap();
    assert_eq!(report.points_sent, 50_000);
    assert_eq!(report.server_errors, 0);
    assert!(
        report.queries >= 4,
        "interleaved queries ran while ingestion was live"
    );
    assert!(report.ingest_ns.len() >= 4 * (points.len() / 4 / BATCH));

    let mut client = Client::connect(handle.addr()).unwrap();
    let served_centers = client.query_centers().unwrap();
    assert_eq!(served_centers.len(), K);
    let stats = client.stats().unwrap();
    assert_eq!(stats.points_seen, 50_000);
    assert_eq!(stats.shards, SHARDS);
    assert_eq!(stats.per_shard_points.iter().sum::<u64>(), 50_000);

    client.shutdown().unwrap();
    handle.shutdown().unwrap();

    // Same approximation envelope: the arrival interleaving across the 4
    // connections is nondeterministic, so the served centers are not
    // bit-identical to the local ones — but on the same data, with the
    // same algorithm and parameters, the costs must stay close. (On this
    // well-separated mixture both runs find the 4 blobs; the envelope is
    // generous against k-means++ seeding noise.)
    let served_cost = cost_on(&points, &served_centers);
    assert!(
        served_cost <= 2.0 * local_cost && local_cost <= 2.0 * served_cost,
        "served cost {served_cost:.4e} vs in-process cost {local_cost:.4e} out of envelope"
    );
}

#[test]
fn snapshot_kill_restore_continue_is_bit_identical_over_the_wire() {
    let points = dataset(8_000, SEED + 1);
    let cut = 3_977; // mid-bucket, mid-batch

    // Uninterrupted reference: one server consumes the whole stream from a
    // single connection (single connection => deterministic arrival order).
    let reference_engine =
        Arc::new(Engine::new(&EngineSpec::sharded_cc(config(), SHARDS, BATCH, SEED)).unwrap());
    let handle = Server::bind("127.0.0.1:0", Arc::clone(&reference_engine), None)
        .unwrap()
        .spawn()
        .unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    for chunk in points.chunks(64) {
        client.ingest_batch(chunk.to_vec()).unwrap();
    }
    let expected = client.query_centers().unwrap();
    client.shutdown().unwrap();
    handle.shutdown().unwrap();

    // Interrupted run: ingest a prefix, snapshot over the wire, kill the
    // server, cold-start a new one from the snapshot file, continue.
    let dir = std::env::temp_dir().join(format!("skm-serve-e2e-{}", std::process::id()));
    let engine =
        Arc::new(Engine::new(&EngineSpec::sharded_cc(config(), SHARDS, BATCH, SEED)).unwrap());
    let handle = Server::bind("127.0.0.1:0", engine, Some(dir.clone()))
        .unwrap()
        .spawn()
        .unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    for chunk in points[..cut].chunks(64) {
        client.ingest_batch(chunk.to_vec()).unwrap();
    }
    let snapshot_path = match client.snapshot("mid.json").unwrap() {
        Response::Snapshotted { file, .. } => file,
        other => panic!("snapshot failed: {other:?}"),
    };
    client.shutdown().unwrap();
    handle.shutdown().unwrap(); // the "kill"

    let snapshot = std::fs::read_to_string(&snapshot_path).unwrap();
    let restored = Arc::new(Engine::from_snapshot_json(&snapshot).unwrap());
    assert_eq!(
        restored.points_seen_in(DEFAULT_NAMESPACE).unwrap(),
        cut as u64
    );
    let handle = Server::bind("127.0.0.1:0", restored, None)
        .unwrap()
        .spawn()
        .unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    for chunk in points[cut..].chunks(64) {
        client.ingest_batch(chunk.to_vec()).unwrap();
    }
    let resumed = client.query_centers().unwrap();
    client.shutdown().unwrap();
    handle.shutdown().unwrap();
    std::fs::remove_dir_all(&dir).ok();

    assert_eq!(
        resumed, expected,
        "snapshot→kill→restore→continue diverged from the uninterrupted run"
    );
}
