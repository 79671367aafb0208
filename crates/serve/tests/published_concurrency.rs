//! Concurrency guarantees of the published read path: cached queries never
//! observe a torn snapshot while ingestion and strict queries hammer the
//! same engine, and the strict path stays bit-identical to driving the
//! clusterer directly at a fixed `(seed, shards, batch)`.

use skm_serve::prelude::*;
use skm_stream::{ShardedStream, StreamingClusterer};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

const SEED: u64 = 71;
const SHARDS: usize = 2;
const BATCH: usize = 16;

fn config() -> StreamConfig {
    StreamConfig::new(3)
        .with_bucket_size(30)
        .with_kmeans_runs(1)
        .with_lloyd_iterations(2)
}

fn point(i: usize) -> [f64; 2] {
    let anchors = [[0.0, 0.0], [60.0, 0.0], [0.0, 60.0]];
    let a = anchors[i % anchors.len()];
    [a[0] + (i % 7) as f64 * 0.1, a[1] + (i % 11) as f64 * 0.1]
}

/// Parallel ingest + strict queries on one thread pair, cached queries on
/// reader threads: every cached observation must be internally consistent
/// (it is one immutable published value) and the observed sequence must be
/// monotone in both epoch and points-seen watermark.
#[test]
fn cached_queries_never_observe_torn_snapshots() {
    let engine =
        Arc::new(Engine::new(&EngineSpec::sharded_cc(config(), SHARDS, BATCH, SEED)).unwrap());
    let done = Arc::new(AtomicBool::new(false));

    // Seed the slot (epoch 1) before the readers start, so every cached
    // query below is a pure slot read — an empty slot would make the first
    // cached query per reader fall back to a strict (publishing) one.
    let warmup: Vec<Vec<f64>> = (0..100).map(|i| point(i).to_vec()).collect();
    engine.ingest_batch_in(DEFAULT_NAMESPACE, &warmup).unwrap();
    assert_eq!(
        engine
            .query_in(DEFAULT_NAMESPACE, Freshness::Strict)
            .unwrap()
            .epoch,
        1
    );

    std::thread::scope(|scope| {
        // Writer: ingest continuously, republish via a strict query every
        // few batches. Collect the publish watermarks for the final check.
        let writer_engine = Arc::clone(&engine);
        let writer_done = Arc::clone(&done);
        let writer = scope.spawn(move || {
            let mut published = Vec::new();
            for round in 0..60 {
                let batch: Vec<Vec<f64>> = (round * 50..(round + 1) * 50)
                    .map(|i| point(i).to_vec())
                    .collect();
                writer_engine
                    .ingest_batch_in(DEFAULT_NAMESPACE, &batch)
                    .unwrap();
                if round % 5 == 4 {
                    let p = writer_engine
                        .query_in(DEFAULT_NAMESPACE, Freshness::Strict)
                        .unwrap();
                    published.push((p.epoch, p.points_seen));
                }
            }
            writer_done.store(true, Ordering::SeqCst);
            published
        });

        // Readers: spin on cached queries the whole time.
        let mut readers = Vec::new();
        for _ in 0..3 {
            let reader_engine = Arc::clone(&engine);
            let reader_done = Arc::clone(&done);
            readers.push(scope.spawn(move || {
                let mut last: Option<(u64, u64)> = None;
                let mut observations = 0u64;
                while !reader_done.load(Ordering::SeqCst) {
                    let p = reader_engine
                        .query_in(DEFAULT_NAMESPACE, Freshness::Cached)
                        .unwrap();
                    // Internal consistency of one observation.
                    assert_eq!(p.centers.len(), 3, "cached answer lost centers");
                    assert!(p.cost.is_finite(), "cached answer lost its cost");
                    assert!(p.epoch >= 1, "published answers start at epoch 1");
                    assert!(p.stats.ran_kmeans);
                    // Monotonicity across observations: strict publishes
                    // are serialized under the ingest lock, so a later
                    // epoch must carry a later (or equal) watermark.
                    if let Some((epoch, seen)) = last {
                        assert!(p.epoch >= epoch, "epoch went backwards");
                        if p.epoch == epoch {
                            assert_eq!(p.points_seen, seen, "same epoch, different payload");
                        } else {
                            assert!(p.points_seen >= seen, "newer epoch, older watermark");
                        }
                    }
                    last = Some((p.epoch, p.points_seen));
                    observations += 1;
                }
                observations
            }));
        }

        let published = writer.join().unwrap();
        // The writer published 12 strict answers with strictly increasing
        // epochs and watermarks.
        assert_eq!(published.len(), 12);
        assert!(published
            .windows(2)
            .all(|w| w[0].0 < w[1].0 && w[0].1 < w[1].1));
        for reader in readers {
            let observations = reader.join().unwrap();
            assert!(observations > 0, "reader never got a cached answer");
        }
    });

    // After the run the slot holds the last publish (warmup epoch 1 plus
    // the writer's 12), and cached queries reproduce it exactly.
    let last = engine
        .query_in(DEFAULT_NAMESPACE, Freshness::Cached)
        .unwrap();
    assert_eq!(last.epoch, 13);
    assert_eq!(
        last.points_seen,
        engine
            .published_in(DEFAULT_NAMESPACE)
            .unwrap()
            .unwrap()
            .points_seen
    );
}

/// The strict path through the engine must stay bit-identical to driving
/// the sharded stream (and the single-backend CC) directly at the same
/// `(seed, shards, batch)` — i.e. the publish plumbing changed nothing
/// about what a strict query computes.
#[test]
fn strict_queries_are_bit_identical_to_the_direct_clusterers() {
    let total = 900usize;
    let mid = 450usize;

    // Sharded backend vs in-process ShardedStream.
    let engine =
        Arc::new(Engine::new(&EngineSpec::sharded_cc(config(), SHARDS, BATCH, SEED)).unwrap());
    let mut direct = ShardedStream::cc(config(), SHARDS, BATCH, SEED).unwrap();
    for i in 0..total {
        let p = point(i);
        engine.ingest_in(DEFAULT_NAMESPACE, &p).unwrap();
        direct.update(&p).unwrap();
        if i + 1 == mid {
            let served = engine
                .query_in(DEFAULT_NAMESPACE, Freshness::Strict)
                .unwrap();
            let expected = direct.query().unwrap();
            assert_eq!(served.centers, expected, "mid-stream centers diverged");
        }
    }
    let served = engine
        .query_in(DEFAULT_NAMESPACE, Freshness::Strict)
        .unwrap();
    let expected = direct.query().unwrap();
    assert_eq!(served.centers, expected, "end-of-stream centers diverged");
    assert_eq!(served.points_seen, direct.points_seen());
    // The direct stream published the same epochs the engine did.
    assert_eq!(direct.published().unwrap().epoch, 2);
    assert_eq!(served.epoch, 2);

    // Cached reads in between strict ones must not perturb the strict
    // sequence (they consume no RNG and take no lock).
    let engine_with_cached =
        Arc::new(Engine::new(&EngineSpec::sharded_cc(config(), SHARDS, BATCH, SEED)).unwrap());
    let mut reference = ShardedStream::cc(config(), SHARDS, BATCH, SEED).unwrap();
    for i in 0..total {
        let p = point(i);
        engine_with_cached.ingest_in(DEFAULT_NAMESPACE, &p).unwrap();
        reference.update(&p).unwrap();
        if i + 1 == 100 {
            // Seed the slot with one strict query (mirrored on the
            // reference): every later cached query is then a pure slot
            // read that consumes no RNG.
            engine_with_cached
                .query_in(DEFAULT_NAMESPACE, Freshness::Strict)
                .unwrap();
            reference.query().unwrap();
        } else if i % 100 == 99 {
            engine_with_cached
                .query_in(DEFAULT_NAMESPACE, Freshness::Cached)
                .unwrap();
        }
        if i + 1 == mid {
            engine_with_cached
                .query_in(DEFAULT_NAMESPACE, Freshness::Strict)
                .unwrap();
            reference.query().unwrap();
        }
    }
    assert_eq!(
        engine_with_cached
            .query_in(DEFAULT_NAMESPACE, Freshness::Strict)
            .unwrap()
            .centers,
        reference.query().unwrap(),
        "interleaved cached queries perturbed the strict path"
    );
}
