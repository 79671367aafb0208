//! The `scenarios` workload: the adversarial hostile-stream grid —
//! emitted as `BENCH_scenarios.json`, one cell per `skm_data::hostile`
//! generator.
//!
//! Every cell drives the in-process sharded engine (no TCP) through one
//! hostile stream shape with strict queries interleaved, finishing with a
//! windowed strict read (the revision-1.5 path) so the window machinery is
//! exercised under hostile data too:
//!
//! * `hostile/heavy_duplicates` — a handful of distinct values repeated
//!   thousands of times (the PR 3 OnlineCC fallback shape),
//! * `hostile/near_zero_variance` — σ = 1e-9 clusters, costs at the edge
//!   of `f64` underflow,
//! * `hostile/dimension_hot_outliers` — rare single-coordinate extremes
//!   dominating the cost,
//! * `hostile/adversarial_order` — outside-in arrival order, the worst
//!   case for exchangeability assumptions,
//! * `hostile/high_dim` — d = 256, stressing the norm-cache layout and
//!   per-dimension loops.
//!
//! Like serving and durability, scenario cells are **baseline-exempt**
//! (`guardable_reports` filters them): hostile streams measure robustness
//! envelopes, not representative medians — a duplicate-heavy stream's
//! query latency says nothing about a benign stream regressing. The
//! report is uploaded as a CI artifact; the correctness envelope itself is
//! enforced by `crates/serve/tests/hostile_streams_e2e.rs`.

use crate::report::{AlgorithmReport, LatencySummary, WorkloadReport, SCHEMA_VERSION};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use skm_clustering::cost::kmeans_cost_block;
use skm_clustering::error::Result;
use skm_clustering::Centers;
use skm_data::{hostile, Dataset};
use skm_metrics::memory_bytes;
use skm_serve::{Engine, EngineSpec, Freshness, Window, DEFAULT_NAMESPACE};
use skm_stream::StreamConfig;
use std::time::Instant;

/// Workload name — file name becomes `BENCH_scenarios.json`.
pub const SCENARIOS_WORKLOAD: &str = "scenarios";

/// The hostile cells, in report order.
pub const SCENARIO_GRID: [&str; 5] = [
    "hostile/heavy_duplicates",
    "hostile/near_zero_variance",
    "hostile/dimension_hot_outliers",
    "hostile/adversarial_order",
    "hostile/high_dim",
];

/// One strict query per this many ingest batches.
const QUERY_EVERY: usize = 16;

/// Shards and routing batch (match the serving workload's engine shape).
const SHARDS: usize = 2;
const ENGINE_BATCH: usize = 128;

/// Points per ingest request.
const INGEST_BATCH: usize = 64;

/// Stream length for the hostile cells. The high-dim cell runs at a
/// quarter of this (d = 256 makes each point 64× wider than the d = 4
/// cells).
#[must_use]
pub fn scenario_points(points: usize) -> usize {
    points.clamp(1_000, 20_000)
}

fn build_scenario(name: &str, n: usize, k: usize, seed: u64) -> Dataset {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    match name {
        "hostile/heavy_duplicates" => hostile::heavy_duplicates(n, 2 * k, 4, &mut rng),
        "hostile/near_zero_variance" => hostile::near_zero_variance(n, k, 8, &mut rng),
        "hostile/dimension_hot_outliers" => {
            hostile::dimension_hot_outliers(n, 16, 50, 1e6, &mut rng)
        }
        "hostile/adversarial_order" => hostile::adversarial_order(n, k, 4, &mut rng),
        "hostile/high_dim" => hostile::high_dim((n / 4).max(500), k, 256, &mut rng),
        other => unreachable!("unknown scenario cell `{other}`"),
    }
}

/// Feeds one hostile stream through a fresh engine, timing every ingest
/// batch and every interleaved strict query; the final read is windowed to
/// the last quarter of the stream.
fn run_cell(name: &str, dataset: &Dataset, k: usize, seed: u64) -> Result<AlgorithmReport> {
    let config = StreamConfig::new(k)
        .with_bucket_size(20 * k)
        .with_kmeans_runs(1)
        .with_lloyd_iterations(5);
    let engine = Engine::new(&EngineSpec::sharded_cc(config, SHARDS, ENGINE_BATCH, seed))?;

    let rows: Vec<Vec<f64>> = dataset.stream().map(<[f64]>::to_vec).collect();
    let mut update_ns = Vec::new();
    let mut query_ns = Vec::new();
    for (i, chunk) in rows.chunks(INGEST_BATCH).enumerate() {
        let start = Instant::now();
        engine.ingest_batch_in(DEFAULT_NAMESPACE, chunk)?;
        update_ns.push(start.elapsed().as_nanos() as f64);
        if (i + 1).is_multiple_of(QUERY_EVERY) {
            let start = Instant::now();
            engine.query_in(DEFAULT_NAMESPACE, Freshness::Strict)?;
            query_ns.push(start.elapsed().as_nanos() as f64);
        }
    }
    let window = (rows.len() as u64 / 4).max(1);
    let start = Instant::now();
    let published = engine.query_window_in(DEFAULT_NAMESPACE, Window::Points(window))?;
    query_ns.push(start.elapsed().as_nanos() as f64);

    let dim = dataset.dim();
    let centers = Centers::from_rows(dim, &published.centers.to_rows())?;
    Ok(AlgorithmReport {
        algorithm: name.to_string(),
        update_ns: LatencySummary::from_samples(&update_ns).expect("at least one ingest batch"),
        query_ns: LatencySummary::from_samples(&query_ns).expect("at least one strict query"),
        peak_memory_bytes: memory_bytes(engine.memory_points(), dim) as u64,
        final_cost: kmeans_cost_block(dataset.points(), &centers)?,
    })
}

/// Measures the hostile-scenario grid and packages it as a
/// [`WorkloadReport`], one [`AlgorithmReport`] per generator, so the
/// report writer and CI artifact pipeline apply unchanged. The reported
/// `dim`/`points` are the d = 4 cells' (the high-dim cell deviates by
/// design and its label carries that context).
///
/// # Errors
/// Propagates engine/configuration errors from any cell.
pub fn measure_scenarios_workload(points: usize, k: usize, seed: u64) -> Result<WorkloadReport> {
    let n = scenario_points(points);
    let mut algorithms = Vec::new();
    for name in SCENARIO_GRID {
        let dataset = build_scenario(name, n, k, seed);
        algorithms.push(run_cell(name, &dataset, k, seed)?);
    }
    // No meaningful standalone coreset-build step here either; mirror the
    // first cell's ingest latency like the other engine-level workloads.
    let coreset_build_ns = algorithms[0].update_ns.clone();
    Ok(WorkloadReport {
        schema_version: SCHEMA_VERSION,
        workload: SCENARIOS_WORKLOAD.to_string(),
        points: n as u64,
        dim: 4,
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
        assert_eq!(scenario_points(10), 1_000);
        assert_eq!(scenario_points(2_000), 2_000);
        assert_eq!(scenario_points(1_000_000), 20_000);
    }

    #[test]
    fn scenarios_report_covers_every_hostile_generator() {
        let report = measure_scenarios_workload(1_000, 3, 11).unwrap();
        assert_eq!(report.workload, SCENARIOS_WORKLOAD);
        assert_eq!(report.file_name(), "BENCH_scenarios.json");
        let names: Vec<&str> = report
            .algorithms
            .iter()
            .map(|c| c.algorithm.as_str())
            .collect();
        assert_eq!(names, SCENARIO_GRID);
        for cell in &report.algorithms {
            assert!(cell.update_ns.median_ns > 0.0, "{}", cell.algorithm);
            assert!(cell.query_ns.count > 0, "{}", cell.algorithm);
            assert!(cell.final_cost.is_finite(), "{}", cell.algorithm);
            assert!(cell.peak_memory_bytes > 0, "{}", cell.algorithm);
        }
    }
}
