//! The `durability` workload: what the write-ahead log costs on the
//! per-update path, across a fsync-interval × ingest-batch grid, plus one
//! recovery cell — emitted as `BENCH_durability.json`.
//!
//! Every cell drives the in-process engine directly (no TCP): the point is
//! to isolate the WAL's append/group-commit overhead from networking, so
//! the `wal=off` cells are a clean control for the `wal=fsync*` cells on
//! the same machine. The grid crosses:
//!
//! * **WAL tier** — `off` (no log attached), `fsync0` (fsync on every
//!   append: the strongest guarantee, every acknowledged write is
//!   durable), `fsync5` (5 ms group commit, the serving default), and
//! * **ingest batch** — 1 point per request (worst case: one log record
//!   and, under `fsync0`, one fsync per point) and 128 points per request
//!   (one `IngestBatch` record amortizes the append and the fsync).
//!
//! Strict queries are interleaved like the other workloads — under a WAL
//! these also log a replay marker, so `query_ns` carries the marker cost.
//! A final `durable/recover` cell reopens the `fsync0/batch=1` cell's log
//! directory cold and reports the full recovery wall time (checkpoint
//! load + tail replay) as its single `update_ns` sample, plus the first
//! post-recovery strict query as `query_ns`.
//!
//! Like the serving workload, durability cells are **baseline-exempt**
//! (see `guardable_reports`): fsync latency is a property of the runner's
//! storage stack, far noisier across machines than the in-process medians
//! the regression guard is calibrated for. The report is uploaded as a CI
//! artifact for trend inspection; the WAL-overhead acceptance target
//! (`fsync5` within 25% of `wal=off` on the batched path) is read off
//! that artifact.

use crate::report::{AlgorithmReport, LatencySummary, WorkloadReport, SCHEMA_VERSION};
use crate::workloads::{build_dataset, DatasetSpec};
use skm_clustering::cost::kmeans_cost_block;
use skm_clustering::error::{ClusteringError, Result};
use skm_clustering::Centers;
use skm_metrics::memory_bytes;
use skm_serve::{Engine, EngineSpec, Freshness, WalConfig, DEFAULT_NAMESPACE};
use skm_stream::StreamConfig;
use std::path::PathBuf;
use std::time::Instant;

/// Workload name — file name becomes `BENCH_durability.json`.
pub const DURABILITY_WORKLOAD: &str = "durability";

/// The WAL tiers of the grid: no log, fsync-per-append, 5 ms group commit.
pub const FSYNC_GRID: [Option<u64>; 3] = [None, Some(0), Some(5)];

/// Points per ingest request (1 = one record and fsync per point; 128 =
/// one `IngestBatch` record amortizes both).
pub const BATCH_GRID: [usize; 2] = [1, 128];

/// One strict query per this many ingest requests.
const QUERY_EVERY: usize = 64;

/// Shards behind the engine (matches the serving workload).
const SHARDS: usize = 2;

/// Internal per-shard routing batch of the sharded engine.
const ENGINE_BATCH: usize = 128;

fn tier_name(fsync_ms: Option<u64>) -> String {
    match fsync_ms {
        None => "off".to_string(),
        Some(ms) => format!("fsync{ms}"),
    }
}

fn temp_dir(tag: &str) -> Result<PathBuf> {
    let dir = std::env::temp_dir().join(format!("skm-bench-wal-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| ClusteringError::InvalidParameter {
        name: "durability",
        message: format!("cannot create WAL directory {}: {e}", dir.display()),
    })?;
    Ok(dir)
}

fn build_engine(config: StreamConfig, seed: u64, wal: Option<(&PathBuf, u64)>) -> Result<Engine> {
    let engine = Engine::new(&EngineSpec::sharded_cc(config, SHARDS, ENGINE_BATCH, seed))?;
    match wal {
        Some((dir, fsync_ms)) => {
            engine.with_wal(WalConfig::new(dir.clone()).with_fsync_ms(fsync_ms))
        }
        None => Ok(engine),
    }
}

/// Feeds the dataset through one cell's engine, timing every ingest
/// request and every interleaved strict query.
fn run_cell(
    rows: &[Vec<f64>],
    config: StreamConfig,
    seed: u64,
    fsync_ms: Option<u64>,
    batch: usize,
    dir: Option<&PathBuf>,
) -> Result<(AlgorithmReport, Centers)> {
    let engine = build_engine(config, seed, dir.map(|d| (d, fsync_ms.unwrap_or(0))))?;
    let mut update_ns = Vec::new();
    let mut query_ns = Vec::new();
    let mut requests = 0usize;
    for chunk in rows.chunks(batch) {
        let start = Instant::now();
        if batch == 1 {
            engine.ingest_in(DEFAULT_NAMESPACE, &chunk[0])?;
        } else {
            engine.ingest_batch_in(DEFAULT_NAMESPACE, chunk)?;
        }
        update_ns.push(start.elapsed().as_nanos() as f64);
        requests += 1;
        if requests.is_multiple_of(QUERY_EVERY) {
            let start = Instant::now();
            engine.query_in(DEFAULT_NAMESPACE, Freshness::Strict)?;
            query_ns.push(start.elapsed().as_nanos() as f64);
        }
    }
    let start = Instant::now();
    let published = engine.query_in(DEFAULT_NAMESPACE, Freshness::Strict)?;
    query_ns.push(start.elapsed().as_nanos() as f64);

    let dim = rows[0].len();
    let final_centers = Centers::from_rows(dim, &published.centers.to_rows())?;
    let report = AlgorithmReport {
        algorithm: format!("durable/wal={}/batch={batch}", tier_name(fsync_ms)),
        update_ns: LatencySummary::from_samples(&update_ns).expect("at least one ingest request"),
        query_ns: LatencySummary::from_samples(&query_ns).expect("at least one strict query"),
        peak_memory_bytes: memory_bytes(engine.memory_points(), dim) as u64,
        final_cost: f64::NAN, // filled by the caller (needs the dataset)
    };
    Ok((report, final_centers))
}

/// Reopens `dir` cold and reports recovery (checkpoint load + tail
/// replay) as one `update_ns` sample plus the first post-recovery strict
/// query as `query_ns`.
fn run_recovery_cell(
    rows: &[Vec<f64>],
    config: StreamConfig,
    seed: u64,
    dir: &PathBuf,
) -> Result<(AlgorithmReport, Centers)> {
    let start = Instant::now();
    let engine = build_engine(config, seed, Some((dir, 0)))?;
    let recovery_ns = start.elapsed().as_nanos() as f64;
    let start = Instant::now();
    let published = engine.query_in(DEFAULT_NAMESPACE, Freshness::Strict)?;
    let first_query_ns = start.elapsed().as_nanos() as f64;

    let dim = rows[0].len();
    let final_centers = Centers::from_rows(dim, &published.centers.to_rows())?;
    let report = AlgorithmReport {
        algorithm: "durable/recover/fsync0/batch=1".to_string(),
        update_ns: LatencySummary::from_samples(&[recovery_ns]).expect("one recovery sample"),
        query_ns: LatencySummary::from_samples(&[first_query_ns]).expect("one query sample"),
        peak_memory_bytes: memory_bytes(engine.memory_points(), dim) as u64,
        final_cost: f64::NAN,
    };
    Ok((report, final_centers))
}

/// Stream length used for the durability cells: fsync-per-point cells are
/// slow by design, so the cap sits below the serving workload's.
#[must_use]
pub fn durability_points(points: usize) -> usize {
    points.clamp(1_000, 20_000)
}

/// Measures the durability workload and packages it as a
/// [`WorkloadReport`] (one [`AlgorithmReport`] per fsync × batch cell,
/// plus the recovery cell), so the report writer and CI artifact pipeline
/// apply unchanged.
///
/// # Errors
/// Propagates engine/configuration errors; filesystem failures around the
/// temporary log directories surface as
/// [`ClusteringError::InvalidParameter`].
pub fn measure_durability_workload(points: usize, k: usize, seed: u64) -> Result<WorkloadReport> {
    let n = durability_points(points);
    let dataset = build_dataset(DatasetSpec::Power, n, seed);
    let config = StreamConfig::new(k)
        .with_bucket_size(20 * k)
        .with_kmeans_runs(1)
        .with_lloyd_iterations(5);
    let rows: Vec<Vec<f64>> = dataset.stream().map(<[f64]>::to_vec).collect();

    let mut algorithms = Vec::new();
    let mut recovery_dir: Option<PathBuf> = None;
    for &fsync_ms in &FSYNC_GRID {
        for &batch in &BATCH_GRID {
            let dir = match fsync_ms {
                Some(ms) => Some(temp_dir(&format!("{ms}-{batch}"))?),
                None => None,
            };
            let (mut cell, centers) = run_cell(&rows, config, seed, fsync_ms, batch, dir.as_ref())?;
            cell.final_cost = kmeans_cost_block(dataset.points(), &centers)?;
            algorithms.push(cell);
            // The strongest-guarantee single-point cell leaves the densest
            // log behind — that is the directory the recovery cell reopens.
            if fsync_ms == Some(0) && batch == 1 {
                recovery_dir = dir;
            } else if let Some(dir) = dir {
                let _ = std::fs::remove_dir_all(&dir);
            }
        }
    }

    let dir = recovery_dir.expect("the fsync0/batch=1 cell ran");
    let (mut recover, centers) = run_recovery_cell(&rows, config, seed, &dir)?;
    recover.final_cost = kmeans_cost_block(dataset.points(), &centers)?;
    algorithms.push(recover);
    let _ = std::fs::remove_dir_all(&dir);

    // The schema's workload-level coreset-build metric is not meaningful
    // here; reuse the control cell's (wal=off, batch=1) update latency so
    // the field carries a real measurement.
    let coreset_build_ns = algorithms[0].update_ns.clone();

    Ok(WorkloadReport {
        schema_version: SCHEMA_VERSION,
        workload: DURABILITY_WORKLOAD.to_string(),
        points: n as u64,
        dim: dataset.dim() as u64,
        k: k as u64,
        seed,
        coreset_build_ns,
        algorithms,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn points_scaling_is_clamped() {
        assert_eq!(durability_points(10), 1_000);
        assert_eq!(durability_points(2_000), 2_000);
        assert_eq!(durability_points(1_000_000), 20_000);
    }

    #[test]
    fn durability_report_covers_the_fsync_batch_grid_and_recovery() {
        let report = measure_durability_workload(1_000, 3, 11).unwrap();
        assert_eq!(report.workload, DURABILITY_WORKLOAD);
        assert_eq!(report.file_name(), "BENCH_durability.json");
        let names: Vec<&str> = report
            .algorithms
            .iter()
            .map(|c| c.algorithm.as_str())
            .collect();
        assert_eq!(
            names,
            [
                "durable/wal=off/batch=1",
                "durable/wal=off/batch=128",
                "durable/wal=fsync0/batch=1",
                "durable/wal=fsync0/batch=128",
                "durable/wal=fsync5/batch=1",
                "durable/wal=fsync5/batch=128",
                "durable/recover/fsync0/batch=1",
            ]
        );
        for cell in &report.algorithms {
            assert!(cell.update_ns.median_ns > 0.0, "{}", cell.algorithm);
            assert!(cell.query_ns.count > 0, "{}", cell.algorithm);
            assert!(cell.final_cost.is_finite(), "{}", cell.algorithm);
            assert!(cell.peak_memory_bytes > 0, "{}", cell.algorithm);
        }
        // Durability invariant, not a latency tripwire: the WAL must never
        // change what the engine computes, so every batch=1 grid cell's
        // final cost must agree bit-for-bit with the wal=off control. (The
        // recovery cell is excluded: it issues one extra strict query on
        // top of the replayed history.)
        let control = report.algorithms[0].final_cost;
        for cell in &report.algorithms[1..] {
            let same_path =
                cell.algorithm.starts_with("durable/wal=") && cell.algorithm.ends_with("batch=1");
            if same_path {
                assert!(
                    cell.final_cost == control,
                    "{} diverged from the wal=off control: {} vs {control}",
                    cell.algorithm,
                    cell.final_cost
                );
            }
        }
    }
}
