//! `skm-bench` — the machine-readable benchmark pipeline.
//!
//! Measures, per selected workload, the per-update and per-query latency of
//! every streaming algorithm (all of which route through the fused distance
//! kernels), the coreset construction time and peak memory, then:
//!
//! * prints a human-readable summary,
//! * with `--json DIR`, writes one `BENCH_<workload>.json` per workload,
//! * with `--baseline-out PATH`, writes all reports as a baseline file,
//! * with `--check BASELINE`, compares fresh medians against the committed
//!   baseline and exits with status 1 on a >25% median slowdown,
//! * with `--serving`, exits with status 1 (after writing the reports) when
//!   a cached query or a binary-codec ingest is more than 25% slower than
//!   its strict or JSON counterpart (skipped on a single CPU),
//! * with `--guard-only` (plus `--json` and `--check`), skips measuring and
//!   only replays the guard against reports already on disk — this is how
//!   CI separates the measurement step from the gating step.
//!
//! See the README section "Benchmarking & perf methodology" for the JSON
//! schema and the baseline-refresh workflow.

use skm_bench::durability::measure_durability_workload;
use skm_bench::report::{
    compare_reports, measure_workload, write_baseline, write_reports, BaselineFile, WorkloadReport,
};
use skm_bench::scenarios::measure_scenarios_workload;
use skm_bench::serving::{check_serving_ratios, measure_serving_workload};
use skm_bench::sharded::measure_sharded_workload;
use skm_bench::{BenchArgs, DatasetSpec};
use std::path::Path;
use std::process::ExitCode;

/// The guard fails on a median slowdown beyond this ratio (>25%).
const MAX_SLOWDOWN_RATIO: f64 = 1.25;

fn read_baseline(path: &str) -> Result<BaselineFile, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read baseline `{path}`: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("cannot parse baseline `{path}`: {e:?}"))
}

fn read_fresh_reports(
    dir: &str,
    specs: &[DatasetSpec],
    sharded: bool,
    serving: bool,
    durability: bool,
    scenarios: bool,
) -> Result<Vec<WorkloadReport>, String> {
    let mut names: Vec<String> = specs.iter().map(|s| s.name().to_string()).collect();
    if sharded {
        names.push(skm_bench::SHARDED_WORKLOAD.to_string());
    }
    if serving {
        names.push(skm_bench::SERVING_WORKLOAD.to_string());
    }
    if durability {
        names.push(skm_bench::DURABILITY_WORKLOAD.to_string());
    }
    if scenarios {
        names.push(skm_bench::SCENARIOS_WORKLOAD.to_string());
    }
    let mut reports = Vec::new();
    for name in &names {
        let path = Path::new(dir).join(format!("BENCH_{name}.json"));
        let Ok(text) = std::fs::read_to_string(&path) else {
            // Workloads that were not benched are simply not guarded.
            continue;
        };
        let report: WorkloadReport = serde_json::from_str(&text)
            .map_err(|e| format!("cannot parse `{}`: {e:?}", path.display()))?;
        reports.push(report);
    }
    if reports.is_empty() {
        return Err(format!("no BENCH_*.json reports found in `{dir}`"));
    }
    Ok(reports)
}

fn print_summary(report: &WorkloadReport) {
    println!(
        "== {} (n = {}, d = {}, k = {}, seed = {}) ==",
        report.workload, report.points, report.dim, report.k, report.seed
    );
    println!(
        "  coreset build: median {:.0} ns, p95 {:.0} ns",
        report.coreset_build_ns.median_ns, report.coreset_build_ns.p95_ns
    );
    for a in &report.algorithms {
        println!(
            "  {:<12} update median {:>8.0} ns (p95 {:>8.0})  query median {:>10.0} ns (p95 {:>10.0})  peak {:>8} B",
            a.algorithm,
            a.update_ns.median_ns,
            a.update_ns.p95_ns,
            a.query_ns.median_ns,
            a.query_ns.p95_ns,
            a.peak_memory_bytes
        );
    }
}

fn run_guard(baseline_path: &str, fresh: &[WorkloadReport]) -> ExitCode {
    let baseline = match read_baseline(baseline_path) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let regressions = compare_reports(&baseline.reports, fresh, MAX_SLOWDOWN_RATIO);
    if regressions.is_empty() {
        println!(
            "regression guard: all medians within {:.0}% of `{baseline_path}`",
            (MAX_SLOWDOWN_RATIO - 1.0) * 100.0
        );
        return ExitCode::SUCCESS;
    }
    eprintln!(
        "regression guard: {} metric(s) regressed more than {:.0}% vs `{baseline_path}`:",
        regressions.len(),
        (MAX_SLOWDOWN_RATIO - 1.0) * 100.0
    );
    for r in &regressions {
        eprintln!("  {}", r.describe());
    }
    eprintln!(
        "If the slowdown is expected, refresh bench/baseline.json (see README \
         \"Benchmarking & perf methodology\") or apply the `bench-override` PR label."
    );
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let args = BenchArgs::from_env();
    if !args.errors.is_empty() {
        for e in &args.errors {
            eprintln!("{e}");
        }
        return ExitCode::FAILURE;
    }
    let specs = args.datasets();

    let fresh: Vec<WorkloadReport> = if args.guard_only {
        let Some(dir) = args.json.as_deref() else {
            eprintln!("--guard-only requires --json DIR (where to load reports from)");
            return ExitCode::FAILURE;
        };
        match read_fresh_reports(
            dir,
            &specs,
            args.sharded,
            args.serving,
            args.durability,
            args.scenarios,
        ) {
            Ok(reports) => reports,
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        let mut reports = Vec::new();
        // Reported only after the reports are written, so a failing run
        // still leaves its BENCH_serving.json behind.
        let mut serving_failure = None;
        for spec in &specs {
            match measure_workload(*spec, args.points, args.k, args.seed) {
                Ok(report) => {
                    print_summary(&report);
                    reports.push(report);
                }
                Err(e) => {
                    eprintln!("benchmark of {} failed: {e}", spec.name());
                    return ExitCode::FAILURE;
                }
            }
        }
        if args.sharded {
            match measure_sharded_workload(args.points, args.k, args.seed) {
                Ok(report) => {
                    print_summary(&report);
                    reports.push(report);
                }
                Err(e) => {
                    eprintln!("sharded benchmark failed: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        if args.serving {
            match measure_serving_workload(args.points, args.k, args.seed) {
                Ok(report) => {
                    print_summary(&report);
                    let cores =
                        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
                    if cores > 1 {
                        serving_failure = check_serving_ratios(&report.algorithms).err();
                    } else {
                        eprintln!("serving ratio check skipped: it needs more than one CPU");
                    }
                    reports.push(report);
                }
                Err(e) => {
                    eprintln!("serving benchmark failed: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        if args.durability {
            match measure_durability_workload(args.points, args.k, args.seed) {
                Ok(report) => {
                    print_summary(&report);
                    reports.push(report);
                }
                Err(e) => {
                    eprintln!("durability benchmark failed: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        if args.scenarios {
            match measure_scenarios_workload(args.points, args.k, args.seed) {
                Ok(report) => {
                    print_summary(&report);
                    reports.push(report);
                }
                Err(e) => {
                    eprintln!("scenarios benchmark failed: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        if let Some(dir) = args.json.as_deref() {
            match write_reports(dir, &reports) {
                Ok(written) => {
                    for path in written {
                        println!("wrote {path}");
                    }
                }
                Err(e) => {
                    eprintln!("{e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        if let Some(path) = args.baseline_out.as_deref() {
            // Serving cells never enter the baseline (their loopback-RTT
            // medians are too machine-varying to guard); the filter lives
            // in the library so a `--serving` baseline refresh cannot
            // re-enable that guard by accident.
            let baseline = BaselineFile {
                schema_version: skm_bench::report::SCHEMA_VERSION,
                reports: skm_bench::report::guardable_reports(&reports),
            };
            if let Err(e) = write_baseline(path, &baseline) {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
            println!("wrote baseline {path}");
        }
        if let Some(e) = serving_failure {
            eprintln!("serving ratio check failed: {e}");
            return ExitCode::FAILURE;
        }
        reports
    };

    match args.check.as_deref() {
        Some(baseline_path) => run_guard(baseline_path, &fresh),
        None => ExitCode::SUCCESS,
    }
}
