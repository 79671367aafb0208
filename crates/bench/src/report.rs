//! Machine-readable benchmark reports (`BENCH_<workload>.json`) and the
//! baseline comparison used by CI's regression guard.
//!
//! The schema (version 1) is intentionally small and flat so that CI, the
//! committed `bench/baseline.json` and ad-hoc tooling all read the same
//! shape:
//!
//! ```json
//! {
//!   "schema_version": 1,
//!   "workload": "Power",
//!   "points": 2000, "dim": 7, "k": 5, "seed": 42,
//!   "coreset_build_ns": {"count": 5, "median_ns": ..., "p95_ns": ..., ...},
//!   "algorithms": [
//!     {"algorithm": "CC",
//!      "update_ns": {...}, "query_ns": {...},
//!      "peak_memory_bytes": 123456, "final_cost": 1.25e4},
//!     ...
//!   ]
//! }
//! ```
//!
//! All latencies are nanoseconds. `update_ns` summarizes one sample per
//! stream point, `query_ns` one sample per issued query, and
//! `coreset_build_ns` one sample per repeated
//! `CoresetBuilder::build_block` over the workload prefix.
//! `peak_memory_bytes` is the maximum of the paper's memory accounting
//! (stored points × dim × 8 bytes) observed during the stream.

use crate::runner::{make_algorithm, AlgorithmKind};
use crate::workloads::{build_dataset, DatasetSpec};
use serde::{Deserialize, Serialize};
use skm_clustering::cost::kmeans_cost_block;
use skm_clustering::error::Result;
use skm_coreset::construct::CoresetBuilder;
use skm_coreset::Span;
use skm_metrics::memory_bytes;
use skm_metrics::stats::percentile_sorted;
use skm_stream::StreamConfig;
use std::time::Instant;

/// Schema version stamped into every report; bump when the shape changes.
pub const SCHEMA_VERSION: u32 = 1;

/// Median/percentile summary of a latency sample, in nanoseconds.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LatencySummary {
    /// Number of samples.
    pub count: u64,
    /// Median (p50) latency in nanoseconds — the guard's headline metric.
    pub median_ns: f64,
    /// 95th-percentile latency in nanoseconds.
    pub p95_ns: f64,
    /// Arithmetic mean in nanoseconds.
    pub mean_ns: f64,
    /// Minimum sample in nanoseconds.
    pub min_ns: f64,
    /// Maximum sample in nanoseconds.
    pub max_ns: f64,
}

impl LatencySummary {
    /// Summarizes a sample of nanosecond latencies. Returns `None` for an
    /// empty sample.
    #[must_use]
    pub fn from_samples(samples: &[f64]) -> Option<Self> {
        if samples.is_empty() {
            return None;
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let count = sorted.len() as u64;
        let mean = sorted.iter().sum::<f64>() / sorted.len() as f64;
        Some(Self {
            count,
            median_ns: percentile_sorted(&sorted, 50.0),
            p95_ns: percentile_sorted(&sorted, 95.0),
            mean_ns: mean,
            min_ns: sorted[0],
            max_ns: sorted[sorted.len() - 1],
        })
    }
}

/// Per-algorithm measurements within a workload report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AlgorithmReport {
    /// Algorithm name as reported by [`AlgorithmKind::name`].
    pub algorithm: String,
    /// Per-stream-point update latency.
    pub update_ns: LatencySummary,
    /// Per-query latency.
    pub query_ns: LatencySummary,
    /// Peak memory (paper accounting: stored points × dim × 8 bytes).
    pub peak_memory_bytes: u64,
    /// k-means (SSQ) cost of the final query's centers on the full dataset.
    pub final_cost: f64,
}

/// One `BENCH_<workload>.json` document.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadReport {
    /// Schema version ([`SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Workload name (`Covtype`, `Power`, `Intrusion`, `Drift`).
    pub workload: String,
    /// Stream length used for the measurement.
    pub points: u64,
    /// Dataset dimensionality.
    pub dim: u64,
    /// Number of clusters `k`.
    pub k: u64,
    /// Base RNG seed (datasets and algorithms are deterministic given it).
    pub seed: u64,
    /// Latency of building one coreset over the workload prefix.
    pub coreset_build_ns: LatencySummary,
    /// One entry per streaming algorithm measured.
    pub algorithms: Vec<AlgorithmReport>,
}

impl WorkloadReport {
    /// Canonical file name for this report (`BENCH_<workload>.json`).
    #[must_use]
    pub fn file_name(&self) -> String {
        format!("BENCH_{}.json", self.workload)
    }
}

/// The committed baseline: a bundle of workload reports.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BaselineFile {
    /// Schema version ([`SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// The workload reports captured when the baseline was refreshed.
    pub reports: Vec<WorkloadReport>,
}

/// One metric that slowed down past the threshold.
#[derive(Debug, Clone, PartialEq)]
pub struct Regression {
    /// Workload the metric belongs to.
    pub workload: String,
    /// Algorithm name, or `"coreset"` for the workload-level build metric.
    pub algorithm: String,
    /// Metric name (`update_ns.median`, `query_ns.median`,
    /// `coreset_build_ns.median`).
    pub metric: String,
    /// Baseline median in nanoseconds.
    pub baseline_ns: f64,
    /// Freshly measured median in nanoseconds.
    pub fresh_ns: f64,
    /// `fresh_ns / baseline_ns`.
    pub ratio: f64,
}

impl Regression {
    /// Human-readable one-liner for CI logs.
    #[must_use]
    pub fn describe(&self) -> String {
        format!(
            "{} / {} / {}: {:.0} ns -> {:.0} ns ({:.2}x)",
            self.workload, self.algorithm, self.metric, self.baseline_ns, self.fresh_ns, self.ratio
        )
    }
}

/// Sub-microsecond medians (e.g. a ~40 ns buffered update) sit at
/// `Instant::now()` granularity, where cross-machine timer-overhead
/// differences would flap the guard without any real regression. The guard
/// therefore compares the fresh median against
/// `max(baseline, MIN_COMPARABLE_NS) × max_ratio`: timer-scale jitter on a
/// 40 ns baseline passes, but a genuine blowup past ~1.25 µs still fails.
pub const MIN_COMPARABLE_NS: f64 = 1_000.0;

fn check_metric(
    out: &mut Vec<Regression>,
    workload: &str,
    algorithm: &str,
    metric: &str,
    baseline_ns: f64,
    fresh_ns: f64,
    max_ratio: f64,
) {
    if baseline_ns > 0.0 && fresh_ns > baseline_ns.max(MIN_COMPARABLE_NS) * max_ratio {
        out.push(Regression {
            workload: workload.to_string(),
            algorithm: algorithm.to_string(),
            metric: metric.to_string(),
            baseline_ns,
            fresh_ns,
            ratio: fresh_ns / baseline_ns,
        });
    }
}

/// Compares fresh reports against a baseline. A metric regresses when its
/// fresh median exceeds `max_ratio` times the baseline median (the CI guard
/// uses `1.25`, i.e. a >25% slowdown). Metrics present on only one side are
/// ignored, so adding workloads or algorithms never breaks the guard, and
/// baseline medians are floored at [`MIN_COMPARABLE_NS`] so timer-overhead
/// noise on nanosecond-scale metrics cannot flap the result while real
/// blowups are still caught.
#[must_use]
pub fn compare_reports(
    baseline: &[WorkloadReport],
    fresh: &[WorkloadReport],
    max_ratio: f64,
) -> Vec<Regression> {
    let mut out = Vec::new();
    for base in baseline {
        let Some(new) = fresh.iter().find(|r| r.workload == base.workload) else {
            continue;
        };
        check_metric(
            &mut out,
            &base.workload,
            "coreset",
            "coreset_build_ns.median",
            base.coreset_build_ns.median_ns,
            new.coreset_build_ns.median_ns,
            max_ratio,
        );
        for base_algo in &base.algorithms {
            let Some(new_algo) = new
                .algorithms
                .iter()
                .find(|a| a.algorithm == base_algo.algorithm)
            else {
                continue;
            };
            check_metric(
                &mut out,
                &base.workload,
                &base_algo.algorithm,
                "update_ns.median",
                base_algo.update_ns.median_ns,
                new_algo.update_ns.median_ns,
                max_ratio,
            );
            check_metric(
                &mut out,
                &base.workload,
                &base_algo.algorithm,
                "query_ns.median",
                base_algo.query_ns.median_ns,
                new_algo.query_ns.median_ns,
                max_ratio,
            );
        }
    }
    out
}

/// Writes one `BENCH_<workload>.json` per report into `dir`, creating the
/// directory (and any missing parents) first — `skm-bench --json DIR` must
/// work without a `mkdir -p` preamble in CI or locally.
///
/// # Errors
/// Returns a human-readable message when the directory cannot be created or
/// a file cannot be written.
pub fn write_reports(
    dir: &str,
    reports: &[WorkloadReport],
) -> std::result::Result<Vec<String>, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create `{dir}`: {e}"))?;
    let mut written = Vec::with_capacity(reports.len());
    for report in reports {
        let path = std::path::Path::new(dir).join(report.file_name());
        let json = serde_json::to_string(report).map_err(|e| format!("serialize: {e:?}"))?;
        std::fs::write(&path, json).map_err(|e| format!("write `{}`: {e}", path.display()))?;
        written.push(path.display().to_string());
    }
    Ok(written)
}

/// The subset of `reports` that belongs in `bench/baseline.json`: the
/// serving, durability and scenarios workloads are excluded by design —
/// serving request latencies include loopback RTT and scheduler noise,
/// durability medians are dominated by the runner's fsync latency, and
/// the hostile-scenario cells measure robustness envelopes rather than
/// representative medians; all vary across machines (or by construction)
/// far more than the ±25% guard tolerates, so guarding them would make CI
/// flaky. Keeping the filter here (rather than as a convention of the
/// committed file) means a routine `--serving --baseline-out` baseline
/// refresh cannot silently re-enable those guards.
#[must_use]
pub fn guardable_reports(reports: &[WorkloadReport]) -> Vec<WorkloadReport> {
    reports
        .iter()
        .filter(|r| {
            r.workload != crate::serving::SERVING_WORKLOAD
                && r.workload != crate::durability::DURABILITY_WORKLOAD
                && r.workload != crate::scenarios::SCENARIOS_WORKLOAD
        })
        .cloned()
        .collect()
}

/// Writes a combined baseline file, creating missing parent directories
/// (the same no-`mkdir -p` guarantee as [`write_reports`]).
///
/// # Errors
/// Returns a human-readable message when the parent directory cannot be
/// created or the file cannot be written.
pub fn write_baseline(path: &str, baseline: &BaselineFile) -> std::result::Result<(), String> {
    if let Some(parent) = std::path::Path::new(path).parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)
                .map_err(|e| format!("cannot create `{}`: {e}", parent.display()))?;
        }
    }
    let json = serde_json::to_string(baseline).map_err(|e| format!("serialize: {e:?}"))?;
    std::fs::write(path, json).map_err(|e| format!("write `{path}`: {e}"))
}

/// Number of coreset builds timed per workload (after warmup).
const CORESET_BUILD_REPS: usize = 15;

/// Untimed coreset builds before sampling starts, so cold caches and first
/// page faults don't land in the distribution.
const CORESET_BUILD_WARMUP: usize = 2;

/// Number of full stream repetitions per algorithm; update/query samples
/// are pooled across them so the reported medians are stable run-to-run.
const STREAM_REPS: usize = 3;

/// Measures one workload: coreset-construction latency plus, for every
/// streaming algorithm, per-update and per-query latency, peak memory and
/// final cost. Deterministic given `(spec, points, k, seed)` up to timing
/// noise.
///
/// # Errors
/// Propagates algorithm/configuration errors (these indicate harness bugs,
/// not measurement failures).
pub fn measure_workload(
    spec: DatasetSpec,
    points: usize,
    k: usize,
    seed: u64,
) -> Result<WorkloadReport> {
    let dataset = build_dataset(spec, points, seed);
    let config = StreamConfig::new(k)
        .with_bucket_size(20 * k)
        .with_kmeans_runs(1)
        .with_lloyd_iterations(5);

    // Coreset construction latency over the stream prefix the streaming
    // algorithms summarize per bucket (two buckets' worth of points).
    let builder = CoresetBuilder::new(k).with_size(config.bucket_size);
    let prefix_len = (2 * config.bucket_size).min(dataset.len());
    let mut prefix = skm_clustering::PointBlock::with_capacity(dataset.dim(), prefix_len);
    for (p, w, _) in dataset.points().iter().take(prefix_len) {
        prefix.push(p, w);
    }
    let mut build_samples = Vec::with_capacity(CORESET_BUILD_REPS);
    for rep in 0..CORESET_BUILD_WARMUP + CORESET_BUILD_REPS {
        let mut rng = <rand_chacha::ChaCha8Rng as rand::SeedableRng>::seed_from_u64(
            seed ^ (0x0C0D_E5E7 + rep as u64),
        );
        let start = Instant::now();
        let coreset = builder.build_block(&prefix, Span::single(1), 0, &mut rng)?;
        if rep >= CORESET_BUILD_WARMUP {
            build_samples.push(start.elapsed().as_nanos() as f64);
        }
        // Keep the optimizer honest.
        assert!(coreset.len() <= prefix_len);
    }

    // Query roughly every 5% of the stream (at least every bucket).
    let query_interval = (points / 20).max(config.bucket_size);

    let mut algorithms = Vec::new();
    for kind in AlgorithmKind::STREAMING {
        // Pool samples across several full stream repetitions: the median
        // of a single run's ~20 queries is noisy enough run-to-run to flap
        // a 25% guard, the pooled median is not.
        let mut update_samples = Vec::with_capacity(points * STREAM_REPS);
        let mut query_samples = Vec::new();
        let mut peak_points = 0usize;
        let mut final_centers = None;
        for rep in 0..STREAM_REPS {
            let mut algo = make_algorithm(kind, config, 1.2, points, seed + rep as u64)?;
            for (i, point) in dataset.stream().enumerate() {
                let start = Instant::now();
                algo.update(point)?;
                update_samples.push(start.elapsed().as_nanos() as f64);
                if (i + 1) % query_interval == 0 {
                    let start = Instant::now();
                    algo.query()?;
                    query_samples.push(start.elapsed().as_nanos() as f64);
                    peak_points = peak_points.max(algo.memory_points());
                }
            }
            let start = Instant::now();
            final_centers = Some(algo.query()?);
            query_samples.push(start.elapsed().as_nanos() as f64);
            peak_points = peak_points.max(algo.memory_points());
        }

        let final_centers = final_centers.expect("STREAM_REPS >= 1");
        let final_cost = kmeans_cost_block(dataset.points(), &final_centers)?;
        algorithms.push(AlgorithmReport {
            algorithm: kind.name().to_string(),
            update_ns: LatencySummary::from_samples(&update_samples)
                .expect("at least one update sample"),
            query_ns: LatencySummary::from_samples(&query_samples)
                .expect("at least one query sample"),
            peak_memory_bytes: memory_bytes(peak_points, dataset.dim()) as u64,
            final_cost,
        });
    }

    Ok(WorkloadReport {
        schema_version: SCHEMA_VERSION,
        workload: spec.name().to_string(),
        points: points as u64,
        dim: dataset.dim() as u64,
        k: k as u64,
        seed,
        coreset_build_ns: LatencySummary::from_samples(&build_samples)
            .expect("at least one build sample"),
        algorithms,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summary(median: f64) -> LatencySummary {
        LatencySummary {
            count: 9,
            median_ns: median,
            p95_ns: median * 2.0,
            mean_ns: median,
            min_ns: median / 2.0,
            max_ns: median * 3.0,
        }
    }

    fn algo_report(name: &str, update: f64, query: f64) -> AlgorithmReport {
        AlgorithmReport {
            algorithm: name.to_string(),
            update_ns: summary(update),
            query_ns: summary(query),
            peak_memory_bytes: 1024,
            final_cost: 1.0,
        }
    }

    fn workload_report(workload: &str, build: f64, algos: Vec<AlgorithmReport>) -> WorkloadReport {
        WorkloadReport {
            schema_version: SCHEMA_VERSION,
            workload: workload.to_string(),
            points: 1000,
            dim: 7,
            k: 5,
            seed: 42,
            coreset_build_ns: summary(build),
            algorithms: algos,
        }
    }

    #[test]
    fn latency_summary_percentiles() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        let s = LatencySummary::from_samples(&samples).unwrap();
        assert_eq!(s.count, 100);
        assert!((s.median_ns - 50.5).abs() < 1e-9);
        assert!((s.p95_ns - 95.05).abs() < 1e-9);
        assert_eq!(s.min_ns, 1.0);
        assert_eq!(s.max_ns, 100.0);
        assert!(LatencySummary::from_samples(&[]).is_none());
    }

    #[test]
    fn file_name_embeds_workload() {
        let r = workload_report("Power", 100.0, vec![]);
        assert_eq!(r.file_name(), "BENCH_Power.json");
    }

    #[test]
    fn report_json_round_trips() {
        let r = workload_report("Drift", 123.0, vec![algo_report("CC", 10.0, 20.0)]);
        let json = serde_json::to_string(&r).unwrap();
        let back: WorkloadReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, r);
        let baseline = BaselineFile {
            schema_version: SCHEMA_VERSION,
            reports: vec![r],
        };
        let json = serde_json::to_string(&baseline).unwrap();
        let back: BaselineFile = serde_json::from_str(&json).unwrap();
        assert_eq!(back, baseline);
    }

    #[test]
    fn compare_flags_only_regressed_metrics() {
        let base = vec![workload_report(
            "Power",
            100.0e3,
            vec![
                algo_report("CC", 10.0e3, 20.0e3),
                algo_report("RCC", 10.0e3, 20.0e3),
            ],
        )];
        let fresh = vec![workload_report(
            "Power",
            100.0,
            vec![
                // CC update got 50% slower; query improved.
                algo_report("CC", 15.0e3, 10.0e3),
                // RCC within the 25% budget.
                algo_report("RCC", 12.0e3, 24.0e3),
            ],
        )];
        let regressions = compare_reports(&base, &fresh, 1.25);
        assert_eq!(regressions.len(), 1);
        assert_eq!(regressions[0].algorithm, "CC");
        assert_eq!(regressions[0].metric, "update_ns.median");
        assert!((regressions[0].ratio - 1.5).abs() < 1e-9);
        assert!(regressions[0].describe().contains("CC"));
    }

    #[test]
    fn compare_ignores_missing_counterparts() {
        let base = vec![workload_report(
            "Covtype",
            100.0e3,
            vec![algo_report("CC", 10.0e3, 20.0e3)],
        )];
        let fresh = vec![workload_report("Power", 100.0e3, vec![])];
        assert!(compare_reports(&base, &fresh, 1.25).is_empty());
    }

    #[test]
    fn compare_flags_coreset_build_regression() {
        let base = vec![workload_report("Power", 100.0e3, vec![])];
        let fresh = vec![workload_report("Power", 200.0e3, vec![])];
        let regressions = compare_reports(&base, &fresh, 1.25);
        assert_eq!(regressions.len(), 1);
        assert_eq!(regressions[0].algorithm, "coreset");
    }

    #[test]
    fn compare_skips_timer_granularity_medians() {
        // A 40 ns -> 400 ns "slowdown" is timer-overhead territory, not a
        // regression; the baseline is floored at MIN_COMPARABLE_NS.
        let base = vec![workload_report(
            "Power",
            100.0e3,
            vec![algo_report("CC", 40.0, 20.0e3)],
        )];
        let fresh = vec![workload_report(
            "Power",
            100.0e3,
            vec![algo_report("CC", 400.0, 20.0e3)],
        )];
        assert!(compare_reports(&base, &fresh, 1.25).is_empty());
    }

    #[test]
    fn compare_still_catches_blowups_on_tiny_baselines() {
        // 40 ns -> 5 µs is past the floored threshold (1.25 µs): a real
        // regression (e.g. an accidental O(n) scan per update) must fail
        // the guard even though the baseline median is sub-floor.
        let base = vec![workload_report(
            "Power",
            100.0e3,
            vec![algo_report("CC", 40.0, 20.0e3)],
        )];
        let fresh = vec![workload_report(
            "Power",
            100.0e3,
            vec![algo_report("CC", 5_000.0, 20.0e3)],
        )];
        let regressions = compare_reports(&base, &fresh, 1.25);
        assert_eq!(regressions.len(), 1);
        assert_eq!(regressions[0].metric, "update_ns.median");
    }

    #[test]
    fn guardable_reports_exclude_the_serving_workload() {
        let reports = vec![
            workload_report("Power", 100.0, vec![]),
            workload_report(crate::serving::SERVING_WORKLOAD, 100.0, vec![]),
            workload_report(crate::scenarios::SCENARIOS_WORKLOAD, 100.0, vec![]),
            workload_report("sharded", 100.0, vec![]),
        ];
        let kept: Vec<String> = guardable_reports(&reports)
            .into_iter()
            .map(|r| r.workload)
            .collect();
        assert_eq!(kept, vec!["Power".to_string(), "sharded".to_string()]);
    }

    #[test]
    fn write_reports_creates_missing_nested_directories() {
        // Regression guard for the CI serve step and local runs: writing
        // into a directory that does not exist yet (even a nested one) must
        // succeed without a `mkdir -p` preamble.
        let dir = std::env::temp_dir().join(format!(
            "skm-bench-report-{}-{}",
            std::process::id(),
            line!()
        ));
        std::fs::remove_dir_all(&dir).ok();
        let nested = dir.join("deeper/still");
        let report = workload_report("Power", 100.0, vec![algo_report("CC", 10.0, 20.0)]);
        let written =
            write_reports(nested.to_str().unwrap(), std::slice::from_ref(&report)).unwrap();
        assert_eq!(written.len(), 1);
        let text = std::fs::read_to_string(&written[0]).unwrap();
        let back: WorkloadReport = serde_json::from_str(&text).unwrap();
        assert_eq!(back, report);

        // Same guarantee for the baseline writer.
        let baseline_path = dir.join("also/new/baseline.json");
        let baseline = BaselineFile {
            schema_version: SCHEMA_VERSION,
            reports: vec![report],
        };
        write_baseline(baseline_path.to_str().unwrap(), &baseline).unwrap();
        let back: BaselineFile =
            serde_json::from_str(&std::fs::read_to_string(&baseline_path).unwrap()).unwrap();
        assert_eq!(back, baseline);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn measure_workload_produces_consistent_report() {
        let report = measure_workload(DatasetSpec::Power, 500, 3, 7).unwrap();
        assert_eq!(report.schema_version, SCHEMA_VERSION);
        assert_eq!(report.workload, "Power");
        assert_eq!(report.points, 500);
        assert_eq!(report.dim, 7);
        assert_eq!(report.algorithms.len(), AlgorithmKind::STREAMING.len());
        for algo in &report.algorithms {
            assert_eq!(
                algo.update_ns.count,
                500 * STREAM_REPS as u64,
                "{}",
                algo.algorithm
            );
            assert!(
                algo.query_ns.count >= STREAM_REPS as u64,
                "{}",
                algo.algorithm
            );
            assert!(algo.update_ns.median_ns > 0.0, "{}", algo.algorithm);
            assert!(algo.peak_memory_bytes > 0, "{}", algo.algorithm);
            assert!(algo.final_cost.is_finite(), "{}", algo.algorithm);
        }
        assert!(report.coreset_build_ns.median_ns > 0.0);
    }
}
