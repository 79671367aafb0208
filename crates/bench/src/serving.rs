//! The `serving` workload: request latency of the `skm-serve` TCP server
//! under a concurrent ingest:query mix, emitted as `BENCH_serving.json`.
//!
//! Since protocol revision 1.3 the headline grid is the **codec-tier
//! grid**: the two wire framings of the evented core, `json` (the
//! newline-delimited debug codec) and `binary` (the negotiated
//! length-prefixed codec) — each measured at 1, 4 and 64 concurrent
//! connections on a single tenant with strict queries. (The
//! thread-per-connection blocking core served one release as the third
//! tier and has been removed along with its `--core` flag.) A second,
//! smaller **tenancy grid** keeps the multi-tenant/freshness comparison
//! from the earlier revisions on the default tier (json, 4 connections):
//! tenants ∈ {1, 8} with strict and cached queries, multi-tenant cells
//! spreading batches over `t0` … `t7` with Zipf(`ZIPF_S`) skew.
//!
//! For each cell the harness starts a fresh in-process server (sharded-CC
//! engine, ephemeral port), drives it with the built-in load generator on
//! the cell's codec (Power-dataset points split across the connections,
//! one query per `QUERY_EVERY` ingest requests per connection) and asserts
//! a clean shutdown. The resulting
//! [`AlgorithmReport`] cells reuse the standard schema:
//!
//! * `update_ns` — per-request `IngestBatch` round-trip latency (loopback
//!   RTT included: this is what a remote caller experiences),
//! * `query_ns` — per-request `Query` round-trip latency on the cell's
//!   freshness,
//! * `peak_memory_bytes` / `final_cost` — engine memory after the run
//!   (summed over all resident tenants) and the cost of the final served
//!   centers on the full dataset. In multi-tenant cells the final query
//!   targets `t0`, the Zipf-hottest tenant; its sub-stream is a uniform
//!   pseudo-random sample of the same mixture, so the cost remains
//!   comparable across cells.
//!
//! Cell names follow `serve/codec=<codec>/tenants=<T>/conns=<C>/
//! <freshness>` (see the tier table in `bench/README.md`).
//!
//! The serving workload is **not** added to `bench/baseline.json`: request
//! latency includes kernel networking and scheduler behaviour, which varies
//! across machines far more than the in-process medians the guard is
//! calibrated for (see `bench/README.md`). The report is uploaded as a CI
//! artifact for trend inspection instead.

use crate::report::{AlgorithmReport, LatencySummary, WorkloadReport, SCHEMA_VERSION};
use crate::workloads::{build_dataset, DatasetSpec};
use skm_clustering::cost::kmeans_cost_block;
use skm_clustering::error::{ClusteringError, Result};
use skm_clustering::Centers;
use skm_metrics::memory_bytes;
use skm_serve::loadgen::tenant_name;
use skm_serve::{
    run_load, Client, CodecKind, Engine, EngineSpec, Freshness, LoadSpec, RequestOptions, Server,
};
use skm_stream::StreamConfig;
use std::sync::Arc;

/// Workload name — file name becomes `BENCH_serving.json`.
pub const SERVING_WORKLOAD: &str = "serving";

/// The two wire-codec tiers measured on the evented core. (The blocking
/// JSON tier was the pre-1.3 baseline; it served one release as the
/// comparison anchor and has been removed with the blocking core.)
pub const TIER_GRID: [CodecKind; 2] = [CodecKind::Json, CodecKind::Binary];

/// Connection counts measured per tier (1 isolates protocol overhead; 4 is
/// the concurrent-ingest cell; 64 is where the evented core's poll set has
/// to prove it scales past the old one-thread-per-connection design).
pub const CONNECTION_GRID: [usize; 3] = [1, 4, 64];

/// Tenant counts of the tenancy grid (1 keeps the pre-tenancy
/// namespace-free wire traffic; 8 exercises the tenant map under a
/// Zipf-skewed mix).
pub const TENANT_GRID: [usize; 2] = [1, 8];

/// Query read paths measured in the tenancy grid.
pub const FRESHNESS_GRID: [Freshness; 2] = [Freshness::Strict, Freshness::Cached];

/// Zipf skew exponent of the multi-tenant cells (`weight(rank) ∝
/// 1/rank^s`) — mildly super-linear, the classic web-traffic shape.
pub const ZIPF_S: f64 = 1.1;

/// Points per `IngestBatch` request.
const REQUEST_BATCH: usize = 128;

/// One `Query` per this many ingest requests per connection.
const QUERY_EVERY: usize = 8;

/// Shards behind each tenant's served engine.
const SHARDS: usize = 2;

/// Connections of the tenancy-grid cells.
const TENANCY_CONNS: usize = 4;

/// Largest ratio [`check_serving_ratios`] accepts.
pub const MAX_SERVING_RATIO: f64 = 1.25;

/// One measured cell of the serving grid.
#[derive(Debug, Clone, Copy)]
struct Cell {
    codec: CodecKind,
    tenants: usize,
    connections: usize,
    freshness: Freshness,
}

impl Cell {
    fn name(&self) -> String {
        format!(
            "serve/codec={}/tenants={}/conns={}/{}",
            self.codec.as_str(),
            self.tenants,
            self.connections,
            self.freshness.as_str()
        )
    }
}

/// The full cell list: the tier grid (single tenant, strict) followed by
/// the tenancy grid (default tier) minus its duplicate of the tier-grid
/// `json` strict cell.
fn cells() -> Vec<Cell> {
    let mut cells = Vec::new();
    for &codec in &TIER_GRID {
        for &connections in &CONNECTION_GRID {
            cells.push(Cell {
                codec,
                tenants: 1,
                connections,
                freshness: Freshness::Strict,
            });
        }
    }
    for &tenants in &TENANT_GRID {
        for &freshness in &FRESHNESS_GRID {
            if tenants == 1 && freshness == Freshness::Strict {
                continue; // already measured as the json tier cell
            }
            cells.push(Cell {
                codec: CodecKind::Json,
                tenants,
                connections: TENANCY_CONNS,
                freshness,
            });
        }
    }
    cells
}

/// Checks the serving grid's two relative targets, each within
/// [`MAX_SERVING_RATIO`]:
///
/// 1. the published read path: at json/conns=4, where strict queries
///    contend with three ingesting connections, the cached query median
///    does not exceed the strict one;
/// 2. the binary codec: at 64 connections its ingest median does not
///    exceed newline-JSON's.
///
/// Meant for release builds on more than one CPU: debug-build timings,
/// or a single CPU where scheduler waits dominate every round trip, swamp
/// both comparisons.
///
/// # Errors
/// Describes every ratio above the bound, or a cell missing from `cells`.
pub fn check_serving_ratios(cells: &[AlgorithmReport]) -> std::result::Result<(), String> {
    let cell = |codec, connections, freshness| {
        let name = Cell {
            codec,
            tenants: 1,
            connections,
            freshness,
        }
        .name();
        cells
            .iter()
            .find(|c| c.algorithm == name)
            .ok_or_else(|| format!("serving report lacks cell `{name}`"))
    };
    let json = CodecKind::Json;
    let cached = cell(json, TENANCY_CONNS, Freshness::Cached)?;
    let strict = cell(json, TENANCY_CONNS, Freshness::Strict)?;
    let binary_64 = cell(CodecKind::Binary, 64, Freshness::Strict)?;
    let json_64 = cell(json, 64, Freshness::Strict)?;
    let ratios = [
        (
            "cached/strict query median at json conns=4",
            cached.query_ns.median_ns / strict.query_ns.median_ns,
        ),
        (
            "binary/json ingest median at conns=64",
            binary_64.update_ns.median_ns / json_64.update_ns.median_ns,
        ),
    ];
    let failures: Vec<String> = ratios
        .iter()
        .filter(|(_, ratio)| *ratio > MAX_SERVING_RATIO)
        .map(|(what, ratio)| format!("{what} is {ratio:.2} (limit {MAX_SERVING_RATIO})"))
        .collect();
    if failures.is_empty() {
        Ok(())
    } else {
        Err(failures.join("; "))
    }
}

/// Stream length used for the serving cells: capped so the CI smoke run
/// stays in the ~2s-per-cell range even in debug builds.
#[must_use]
pub fn serving_points(points: usize) -> usize {
    points.clamp(1_000, 50_000)
}

fn io_error(context: &str, e: &std::io::Error) -> ClusteringError {
    ClusteringError::InvalidParameter {
        name: "serving",
        message: format!("{context}: {e}"),
    }
}

/// Runs one cell: fresh engine + server, load generation on the cell's
/// codec, final query, clean shutdown. Returns the cell report.
fn run_cell(
    points: &[Vec<f64>],
    config: StreamConfig,
    cell: Cell,
    seed: u64,
) -> Result<(AlgorithmReport, Centers)> {
    let engine = Arc::new(Engine::new(&EngineSpec::sharded_cc(
        config,
        SHARDS,
        REQUEST_BATCH,
        seed,
    ))?);
    let server =
        Server::bind("127.0.0.1:0", Arc::clone(&engine), None).map_err(|e| io_error("bind", &e))?;
    let handle = server.spawn().map_err(|e| io_error("spawn", &e))?;

    let spec = LoadSpec::new(handle.addr())
        .with_connections(cell.connections)
        .with_batch(REQUEST_BATCH)
        .with_query_every(QUERY_EVERY)
        .with_freshness(cell.freshness)
        .with_tenants(cell.tenants, ZIPF_S)
        .with_codec(cell.codec);
    let report = run_load(&spec, points).map_err(|e| io_error("load generator", &e))?;
    if report.server_errors > 0 {
        return Err(ClusteringError::InvalidParameter {
            name: "serving",
            message: format!(
                "{} typed server errors during the run",
                report.server_errors
            ),
        });
    }

    // One final strict end-of-stream query through the protocol, like every
    // other workload's final measurement (strict regardless of the cell's
    // freshness, so `final_cost` always reflects the complete stream the
    // queried tenant saw). Multi-tenant cells query `t0`, the Zipf-hottest
    // tenant; single-tenant cells stay namespace-free.
    let mut client = Client::connect(handle.addr()).map_err(|e| io_error("connect", &e))?;
    let mut options = RequestOptions::new();
    if cell.tenants > 1 {
        options.namespace = Some(tenant_name(0));
    }
    let final_rows = match client
        .query_opts(&options)
        .map_err(|e| io_error("final query", &e))?
    {
        skm_serve::Response::Centers { centers, .. } => centers,
        other => {
            return Err(ClusteringError::InvalidParameter {
                name: "serving",
                message: format!("final query failed: {other:?}"),
            })
        }
    };
    let dim = points[0].len();
    let final_centers = Centers::from_rows(dim, &final_rows)?;
    let peak_memory = memory_bytes(engine.memory_points(), dim) as u64;
    client
        .shutdown()
        .map_err(|e| io_error("shutdown request", &e))?;
    // Clean shutdown is part of the measurement contract: a hang here means
    // an event loop failed to drain its connections.
    handle
        .shutdown()
        .map_err(|e| io_error("shutdown join", &e))?;

    let cell_report = AlgorithmReport {
        algorithm: cell.name(),
        update_ns: LatencySummary::from_samples(&report.ingest_ns)
            .expect("at least one ingest request"),
        query_ns: LatencySummary::from_samples(&report.query_ns)
            .expect("at least one interleaved query"),
        peak_memory_bytes: peak_memory,
        final_cost: f64::NAN, // filled by the caller (needs the dataset)
    };
    Ok((cell_report, final_centers))
}

/// Measures the serving workload and packages it as a [`WorkloadReport`]
/// (one [`AlgorithmReport`] per tier-grid and tenancy-grid cell), so the
/// report writer and CI artifact pipeline apply unchanged.
///
/// # Errors
/// Propagates engine/configuration errors and reports transport failures or
/// unclean shutdowns as [`ClusteringError::InvalidParameter`].
pub fn measure_serving_workload(points: usize, k: usize, seed: u64) -> Result<WorkloadReport> {
    let n = serving_points(points);
    let dataset = build_dataset(DatasetSpec::Power, n, seed);
    let config = StreamConfig::new(k)
        .with_bucket_size(20 * k)
        .with_kmeans_runs(1)
        .with_lloyd_iterations(5);
    let rows: Vec<Vec<f64>> = dataset.stream().map(<[f64]>::to_vec).collect();

    let mut algorithms = Vec::new();
    for cell in cells() {
        let (mut cell_report, final_centers) = run_cell(&rows, config, cell, seed)?;
        cell_report.final_cost = kmeans_cost_block(dataset.points(), &final_centers)?;
        algorithms.push(cell_report);
    }

    // The schema's workload-level coreset-build metric is not meaningful
    // for a network workload; reuse the json-tier single-connection strict
    // ingest latency so the field carries a real (and comparable)
    // measurement.
    let coreset_build_ns = algorithms[0].update_ns.clone();

    Ok(WorkloadReport {
        schema_version: SCHEMA_VERSION,
        workload: SERVING_WORKLOAD.to_string(),
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
        assert_eq!(serving_points(10), 1_000);
        assert_eq!(serving_points(2_000), 2_000);
        assert_eq!(serving_points(1_000_000), 50_000);
    }

    #[test]
    fn serving_report_covers_the_tier_and_tenancy_grids() {
        let report = measure_serving_workload(1_000, 3, 11).unwrap();
        assert_eq!(report.workload, SERVING_WORKLOAD);
        assert_eq!(report.file_name(), "BENCH_serving.json");
        assert_eq!(report.points, 1_000);
        let names: Vec<&str> = report
            .algorithms
            .iter()
            .map(|c| c.algorithm.as_str())
            .collect();
        assert_eq!(
            names,
            [
                "serve/codec=json/tenants=1/conns=1/strict",
                "serve/codec=json/tenants=1/conns=4/strict",
                "serve/codec=json/tenants=1/conns=64/strict",
                "serve/codec=binary/tenants=1/conns=1/strict",
                "serve/codec=binary/tenants=1/conns=4/strict",
                "serve/codec=binary/tenants=1/conns=64/strict",
                "serve/codec=json/tenants=1/conns=4/cached",
                "serve/codec=json/tenants=8/conns=4/strict",
                "serve/codec=json/tenants=8/conns=4/cached",
            ]
        );
        for cell in &report.algorithms {
            assert!(cell.update_ns.median_ns > 0.0, "{}", cell.algorithm);
            assert!(cell.update_ns.count > 0, "{}", cell.algorithm);
            assert!(cell.query_ns.count > 0, "{}", cell.algorithm);
            assert!(cell.final_cost.is_finite(), "{}", cell.algorithm);
            assert!(cell.peak_memory_bytes > 0, "{}", cell.algorithm);
        }
        // The timing ratios are gated on the release `skm-bench --serving`
        // run, not here: a debug build's medians are too noisy to compare.
    }

    #[test]
    fn serving_ratio_check_flags_each_slow_path() {
        let cell = |cell: Cell, update_ns: f64, query_ns: f64| AlgorithmReport {
            algorithm: cell.name(),
            update_ns: LatencySummary::from_samples(&[update_ns]).unwrap(),
            query_ns: LatencySummary::from_samples(&[query_ns]).unwrap(),
            peak_memory_bytes: 1,
            final_cost: 1.0,
        };
        let report = |cached_query: f64, binary_ingest: f64| -> Vec<AlgorithmReport> {
            cells()
                .into_iter()
                .map(|c| match (c.codec, c.connections, c.freshness) {
                    (CodecKind::Json, 4, Freshness::Cached) => cell(c, 100.0, cached_query),
                    (CodecKind::Binary, 64, _) => cell(c, binary_ingest, 100.0),
                    _ => cell(c, 100.0, 100.0),
                })
                .collect()
        };
        assert!(check_serving_ratios(&report(125.0, 125.0)).is_ok());
        let slow_cached = check_serving_ratios(&report(126.0, 50.0)).unwrap_err();
        assert!(slow_cached.contains("cached/strict"), "{slow_cached}");
        let slow_binary = check_serving_ratios(&report(50.0, 126.0)).unwrap_err();
        assert!(slow_binary.contains("binary/json"), "{slow_binary}");
        assert!(check_serving_ratios(&[])
            .unwrap_err()
            .contains("lacks cell"));
    }
}
