//! The `sharded` workload: ingestion throughput of [`ShardedStream`] over
//! a shards × batch-size grid on the Power dataset, emitted as
//! `BENCH_sharded.json`.
//!
//! Unlike [`crate::report::measure_workload`], which times every individual
//! `update()` call, this workload measures *throughput*: the wall-clock
//! time to ingest the whole stream (including a full drain barrier, so all
//! worker threads have finished) divided by the number of points. Each
//! grid cell repeats the measurement several times (the private `REPS`
//! constant) and reports the summary of those per-update figures, so the
//! headline `update_ns.median` answers "how fast does ingestion go
//! end-to-end at this shard count / batch size". An unsharded CC cell
//! (`CC/unsharded`) measured the same way is included as the no-threading
//! baseline.
//!
//! Scaling caveat: per-update medians scale with the number of *physical
//! cores* available; on a single-core host the grid degenerates to channel
//! overhead on top of the unsharded baseline (see the README's "Sharded
//! ingestion & batch updates" section).

use crate::report::{AlgorithmReport, LatencySummary, WorkloadReport, SCHEMA_VERSION};
use crate::workloads::{build_dataset, DatasetSpec};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use skm_clustering::cost::kmeans_cost_block;
use skm_clustering::error::Result;
use skm_coreset::construct::CoresetBuilder;
use skm_coreset::Span;
use skm_data::Dataset;
use skm_metrics::memory_bytes;
use skm_stream::{CachedCoresetTree, ShardedStream, StreamConfig, StreamingClusterer};
use std::time::Instant;

/// Shard counts measured (1 is the sharded-but-single-worker pipeline; the
/// 1 → 4 ratio is the headline scaling figure).
pub const SHARD_GRID: [usize; 3] = [1, 2, 4];

/// Batch sizes measured (points buffered per shard before a channel send).
pub const BATCH_GRID: [usize; 2] = [64, 512];

/// Full-stream repetitions per grid cell; each contributes one per-update
/// throughput sample, and the median across them is the reported figure.
const REPS: usize = 5;

/// Workload name — file name becomes `BENCH_sharded.json`.
pub const SHARDED_WORKLOAD: &str = "sharded";

/// Stream length used for the throughput grid: scaled up from the CLI's
/// `--points` (which targets per-call latency workloads) so each run is
/// long enough to amortize thread spawn and channel warmup.
#[must_use]
pub fn sharded_points(points: usize) -> usize {
    (points * 4).clamp(2_000, 64_000)
}

/// Ingests the whole dataset and returns `(per-update ns, query ns, peak
/// memory points, final centers)` for one run of one grid cell.
fn run_cell(
    dataset: &Dataset,
    config: StreamConfig,
    shards: usize,
    batch: usize,
    seed: u64,
) -> Result<(f64, f64, usize, skm_clustering::Centers)> {
    let mut stream = ShardedStream::cc(config, shards, batch, seed)?;
    let start = Instant::now();
    for point in dataset.stream() {
        stream.update(point)?;
    }
    stream.drain()?;
    let per_update_ns = start.elapsed().as_nanos() as f64 / dataset.len() as f64;
    let start = Instant::now();
    let centers = stream.query()?;
    let query_ns = start.elapsed().as_nanos() as f64;
    let peak = stream.memory_points();
    Ok((per_update_ns, query_ns, peak, centers))
}

/// The unsharded baseline: plain single-threaded CC ingestion measured with
/// the same whole-stream wall-clock methodology as the grid cells.
fn run_unsharded(
    dataset: &Dataset,
    config: StreamConfig,
    seed: u64,
) -> Result<(f64, f64, usize, skm_clustering::Centers)> {
    let mut cc = CachedCoresetTree::new(config, seed)?;
    let start = Instant::now();
    for point in dataset.stream() {
        cc.update(point)?;
    }
    let per_update_ns = start.elapsed().as_nanos() as f64 / dataset.len() as f64;
    let start = Instant::now();
    let centers = cc.query()?;
    let query_ns = start.elapsed().as_nanos() as f64;
    let peak = cc.memory_points();
    Ok((per_update_ns, query_ns, peak, centers))
}

/// Summarizes `REPS` runs of one cell into an [`AlgorithmReport`].
fn summarize<F>(dataset: &Dataset, name: String, seed: u64, mut run: F) -> Result<AlgorithmReport>
where
    F: FnMut(u64) -> Result<(f64, f64, usize, skm_clustering::Centers)>,
{
    let mut update_samples = Vec::with_capacity(REPS);
    let mut query_samples = Vec::with_capacity(REPS);
    let mut peak_points = 0usize;
    let mut final_centers = None;
    for rep in 0..REPS {
        let (update_ns, query_ns, peak, centers) = run(seed + rep as u64)?;
        update_samples.push(update_ns);
        query_samples.push(query_ns);
        peak_points = peak_points.max(peak);
        final_centers = Some(centers);
    }
    let final_centers = final_centers.expect("REPS >= 1");
    Ok(AlgorithmReport {
        algorithm: name,
        update_ns: LatencySummary::from_samples(&update_samples).expect("REPS >= 1"),
        query_ns: LatencySummary::from_samples(&query_samples).expect("REPS >= 1"),
        peak_memory_bytes: memory_bytes(peak_points, dataset.dim()) as u64,
        final_cost: kmeans_cost_block(dataset.points(), &final_centers)?,
    })
}

/// Measures the sharded-ingestion grid on the Power dataset and packages it
/// as a [`WorkloadReport`] (one [`AlgorithmReport`] per grid cell, named
/// `CC/shards=<S>/batch=<B>`, plus the `CC/unsharded` baseline), so the
/// existing report writer, baseline file and CI regression guard all apply
/// unchanged.
///
/// # Errors
/// Propagates algorithm/configuration errors (harness bugs, not
/// measurement failures).
pub fn measure_sharded_workload(points: usize, k: usize, seed: u64) -> Result<WorkloadReport> {
    let n = sharded_points(points);
    let dataset = build_dataset(DatasetSpec::Power, n, seed);
    let config = StreamConfig::new(k)
        .with_bucket_size(20 * k)
        .with_kmeans_runs(1)
        .with_lloyd_iterations(5);

    // Same coreset-build metric as the per-call workloads, so the schema's
    // workload-level field carries a real measurement here too.
    let builder = CoresetBuilder::new(k).with_size(config.bucket_size);
    let prefix_len = (2 * config.bucket_size).min(dataset.len());
    let mut prefix = skm_clustering::PointBlock::with_capacity(dataset.dim(), prefix_len);
    for (p, w, _) in dataset.points().iter().take(prefix_len) {
        prefix.push(p, w);
    }
    let mut build_samples = Vec::with_capacity(REPS);
    for rep in 0..REPS {
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ (0x5AA8_D000 + rep as u64));
        let start = Instant::now();
        let coreset = builder.build_block(&prefix, Span::single(1), 0, &mut rng)?;
        build_samples.push(start.elapsed().as_nanos() as f64);
        assert!(coreset.len() <= prefix_len);
    }

    let mut algorithms = Vec::with_capacity(SHARD_GRID.len() * BATCH_GRID.len() + 1);
    algorithms.push(summarize(
        &dataset,
        "CC/unsharded".to_string(),
        seed,
        |s| run_unsharded(&dataset, config, s),
    )?);
    for &shards in &SHARD_GRID {
        for &batch in &BATCH_GRID {
            algorithms.push(summarize(
                &dataset,
                format!("CC/shards={shards}/batch={batch}"),
                seed,
                |s| run_cell(&dataset, config, shards, batch, s),
            )?);
        }
    }

    Ok(WorkloadReport {
        schema_version: SCHEMA_VERSION,
        workload: SHARDED_WORKLOAD.to_string(),
        points: n as u64,
        dim: dataset.dim() as u64,
        k: k as u64,
        seed,
        coreset_build_ns: LatencySummary::from_samples(&build_samples).expect("REPS >= 1"),
        algorithms,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn points_scaling_is_clamped() {
        assert_eq!(sharded_points(100), 2_000);
        assert_eq!(sharded_points(2_000), 8_000);
        assert_eq!(sharded_points(4_000), 16_000);
        assert_eq!(sharded_points(1_000_000), 64_000);
    }

    #[test]
    fn sharded_report_covers_the_grid() {
        // Keep this cheap: the clamp floors the stream at 2k points, which
        // is still fast for k = 2 in debug builds.
        let report = measure_sharded_workload(100, 2, 7).unwrap();
        assert_eq!(report.workload, SHARDED_WORKLOAD);
        assert_eq!(report.file_name(), "BENCH_sharded.json");
        assert_eq!(report.points, 2_000);
        assert_eq!(
            report.algorithms.len(),
            SHARD_GRID.len() * BATCH_GRID.len() + 1
        );
        assert_eq!(report.algorithms[0].algorithm, "CC/unsharded");
        assert!(report
            .algorithms
            .iter()
            .any(|a| a.algorithm == "CC/shards=4/batch=512"));
        for cell in &report.algorithms {
            assert!(cell.update_ns.median_ns > 0.0, "{}", cell.algorithm);
            assert!(cell.query_ns.median_ns > 0.0, "{}", cell.algorithm);
            assert!(cell.final_cost.is_finite(), "{}", cell.algorithm);
            assert!(cell.peak_memory_bytes > 0, "{}", cell.algorithm);
        }
    }
}
