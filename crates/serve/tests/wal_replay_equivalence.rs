//! The durability subsystem's core property, swept across a
//! `(seed, shards, batch)` grid: for any interleaving of single ingests,
//! batch ingests and strict reads, *open a WAL-backed engine, run the
//! workload, drop it cold, recover* ends bit-identical to running the same
//! workload on an engine that was never interrupted — centers, published
//! epoch, cost, and `points_seen`, exactly.
//!
//! The WAL engines run with a tiny checkpoint threshold so every cell also
//! crosses at least one compaction (checkpoint + covered-segment deletion)
//! mid-workload — recovery exercises checkpoint *plus* tail replay, not
//! just one of them.

use skm_serve::engine::WalConfig;
use skm_serve::prelude::*;
use std::path::PathBuf;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("skm-replay-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn grid_spec(kind: BackendKind, seed: u64, shards: usize, batch: usize) -> EngineSpec {
    EngineSpec {
        kind,
        stream: StreamConfig::new(2)
            .with_bucket_size(20)
            .with_kmeans_runs(1)
            .with_lloyd_iterations(2),
        shards,
        batch,
        nesting_depth: 2,
        seed,
    }
}

/// A deterministic mixed workload: single ingests, a batch ingest every 5
/// rounds, a strict query (a logged, state-mutating read) every 60 points,
/// and a *windowed* strict query (logged as a resolved `QueryWindow`
/// record, revision 1.5) every 7 rounds. Seed-dependent so different grid
/// cells take different paths.
fn run_workload(engine: &Engine, seed: u64) {
    let mut fed = 0usize;
    for i in 0..30usize {
        for j in 0..4usize {
            let x = if (i + j).is_multiple_of(2) { 0.0 } else { 60.0 };
            let y = ((i * 7 + j + seed as usize) % 5) as f64 * 0.1;
            engine.ingest_in(DEFAULT_NAMESPACE, &[x, y]).unwrap();
            fed += 1;
        }
        if i % 5 == 4 {
            let batch: Vec<Vec<f64>> = (0..6usize)
                .map(|j| {
                    let x = if j.is_multiple_of(2) { 30.0 } else { 90.0 };
                    vec![x, (j + i) as f64 * 0.01]
                })
                .collect();
            engine.ingest_batch_in(DEFAULT_NAMESPACE, &batch).unwrap();
            fed += 6;
        }
        if fed >= 60 && fed % 60 < 10 {
            let _ = engine
                .query_in(DEFAULT_NAMESPACE, Freshness::Strict)
                .unwrap();
        }
        if fed >= 60 && i % 7 == 6 {
            // Windowed strict reads consume RNG and publish epochs like
            // whole-stream ones, so replay must reproduce them exactly.
            let _ = engine
                .query_window_in(DEFAULT_NAMESPACE, Window::Points(40))
                .unwrap();
        }
    }
}

/// Asserts witness and recovered answer the same *windowed* strict query
/// bit-identically — centers, epoch, `points_seen` and coverage.
fn assert_windowed_reads_match(witness: &Engine, recovered: &Engine, cell: &str) {
    let expected = witness
        .query_window_in(DEFAULT_NAMESPACE, Window::Points(50))
        .unwrap();
    let actual = recovered
        .query_window_in(DEFAULT_NAMESPACE, Window::Points(50))
        .unwrap();
    assert_eq!(
        actual.points_seen, expected.points_seen,
        "windowed points_seen diverged in {cell}"
    );
    assert_eq!(
        actual.epoch, expected.epoch,
        "windowed epoch diverged in {cell}"
    );
    assert_eq!(
        actual.window, expected.window,
        "window coverage diverged in {cell}"
    );
    assert_eq!(
        actual.centers.to_rows(),
        expected.centers.to_rows(),
        "windowed centers diverged in {cell}"
    );
}

#[test]
fn recovery_is_bit_identical_across_the_seed_shards_batch_grid() {
    for &seed in &[3u64, 11] {
        for &shards in &[1usize, 2] {
            for &batch in &[8usize, 64] {
                let dir = temp_dir(&format!("grid-{seed}-{shards}-{batch}"));
                let spec = grid_spec(BackendKind::ShardedCc, seed, shards, batch);

                // Uninterrupted witness, no WAL.
                let witness = Engine::new(&spec).unwrap();
                run_workload(&witness, seed);

                // Same workload with a WAL: fsync every append, checkpoint
                // after every ~2 KiB of tail so compaction happens mid-run.
                let durable = Engine::new(&spec)
                    .unwrap()
                    .with_wal(
                        WalConfig::new(dir.clone())
                            .with_fsync_ms(0)
                            .with_checkpoint_bytes(2048),
                    )
                    .unwrap();
                run_workload(&durable, seed);
                drop(durable); // cold stop: recovery starts from disk only

                let recovered = Engine::new(&spec)
                    .unwrap()
                    .with_wal(WalConfig::new(dir.clone()).with_fsync_ms(0))
                    .unwrap();

                let cell = format!("(seed {seed}, shards {shards}, batch {batch})");
                let expected = witness
                    .query_in(DEFAULT_NAMESPACE, Freshness::Strict)
                    .unwrap();
                let actual = recovered
                    .query_in(DEFAULT_NAMESPACE, Freshness::Strict)
                    .unwrap();
                assert_eq!(
                    actual.points_seen, expected.points_seen,
                    "points_seen diverged in {cell}"
                );
                assert_eq!(actual.epoch, expected.epoch, "epoch diverged in {cell}");
                assert_eq!(
                    actual.centers.to_rows(),
                    expected.centers.to_rows(),
                    "centers diverged in {cell}"
                );
                assert!(
                    actual.cost == expected.cost,
                    "cost diverged in {cell}: {} vs {}",
                    actual.cost,
                    expected.cost
                );
                assert_windowed_reads_match(&witness, &recovered, &cell);

                let _ = std::fs::remove_dir_all(&dir);
            }
        }
    }
}

#[test]
fn recovery_is_bit_identical_for_the_single_threaded_backends_too() {
    for kind in [BackendKind::Cc, BackendKind::Ct, BackendKind::Rcc] {
        let dir = temp_dir(&format!("single-{}", kind.tag()));
        let spec = grid_spec(kind, 5, 1, 8);

        let witness = Engine::new(&spec).unwrap();
        run_workload(&witness, 5);

        let durable = Engine::new(&spec)
            .unwrap()
            .with_wal(
                WalConfig::new(dir.clone())
                    .with_fsync_ms(0)
                    .with_checkpoint_bytes(2048),
            )
            .unwrap();
        run_workload(&durable, 5);
        drop(durable);

        let recovered = Engine::new(&spec)
            .unwrap()
            .with_wal(WalConfig::new(dir.clone()).with_fsync_ms(0))
            .unwrap();

        let expected = witness
            .query_in(DEFAULT_NAMESPACE, Freshness::Strict)
            .unwrap();
        let actual = recovered
            .query_in(DEFAULT_NAMESPACE, Freshness::Strict)
            .unwrap();
        assert_eq!(actual.points_seen, expected.points_seen, "{}", kind.tag());
        assert_eq!(actual.epoch, expected.epoch, "{}", kind.tag());
        assert_eq!(
            actual.centers.to_rows(),
            expected.centers.to_rows(),
            "{}",
            kind.tag()
        );
        assert_windowed_reads_match(&witness, &recovered, kind.tag());

        let _ = std::fs::remove_dir_all(&dir);
    }
}
