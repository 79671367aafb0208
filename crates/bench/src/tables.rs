//! Library implementations of the paper's tables (1–4) and the extra
//! ablation studies called out in DESIGN.md.

use crate::cli::BenchArgs;
use crate::figures::{harness_config, DEFAULT_ALPHA};
use crate::runner::{make_algorithm, run_stream, AlgorithmKind};
use crate::workloads::{build_dataset, DatasetSpec};
use skm_clustering::error::Result;
use skm_data::QuerySchedule;
use skm_metrics::{memory::memory_megabytes, Table};
use skm_stream::{
    CachedCoresetTree, CoresetTreeClusterer, RecursiveCachedTree, StreamingClusterer,
};
use std::time::Instant;

/// Table 1 (empirical validation): for each algorithm, the average number of
/// coresets merged per query, the average/maximum coreset level at query
/// time, and the memory in points — measured on a stream with a query after
/// every base bucket, which is the regime Table 1's query column describes.
///
/// # Errors
/// Propagates harness/algorithm errors.
pub fn table1_theory(args: &BenchArgs) -> Result<Table> {
    let spec = args.dataset.unwrap_or(DatasetSpec::Covtype);
    let dataset = build_dataset(spec, args.points, args.seed);
    let k = args.k.min(10); // keep bucket count high by keeping m modest
    let config = harness_config(k, 20 * k);
    let bucket = config.bucket_size as u64;

    let mut table = Table::new(
        format!(
            "Table 1 (measured on {}, {} points, query every base bucket)",
            spec.name(),
            dataset.len()
        ),
        &[
            "algorithm",
            "avg coresets merged/query",
            "max coreset level",
            "avg query time (ms)",
            "avg update time (µs/pt)",
            "memory (points)",
        ],
    );

    for kind in [
        AlgorithmKind::StreamKmPlusPlus,
        AlgorithmKind::Cc,
        AlgorithmKind::Rcc,
        AlgorithmKind::OnlineCc,
    ] {
        let mut algo = make_algorithm(kind, config, DEFAULT_ALPHA, dataset.len(), args.seed)?;
        let mut merged = Vec::new();
        let mut levels = Vec::new();
        let mut query_ms = Vec::new();
        let mut update_nanos = 0u128;
        for (i, p) in dataset.stream().enumerate() {
            let t = Instant::now();
            algo.update(p)?;
            update_nanos += t.elapsed().as_nanos();
            if ((i + 1) as u64).is_multiple_of(bucket) {
                let t = Instant::now();
                algo.query()?;
                query_ms.push(t.elapsed().as_secs_f64() * 1e3);
                if let Some(stats) = algo.last_query_stats() {
                    merged.push(stats.coresets_merged as f64);
                    if let Some(level) = stats.coreset_level {
                        levels.push(f64::from(level));
                    }
                }
            }
        }
        let avg = |v: &[f64]| {
            if v.is_empty() {
                0.0
            } else {
                v.iter().sum::<f64>() / v.len() as f64
            }
        };
        let max_level = levels.iter().copied().fold(0.0f64, f64::max);
        table.push_row(vec![
            kind.name().to_string(),
            format!("{:.2}", avg(&merged)),
            format!("{max_level:.0}"),
            format!("{:.3}", avg(&query_ms)),
            format!("{:.2}", update_nanos as f64 / 1e3 / dataset.len() as f64),
            algo.memory_points().to_string(),
        ]);
    }
    Ok(table)
}

/// Table 2: RCC trade-offs as a function of the nesting depth ι — coreset
/// level at query time, per-query cost, update cost and memory.
///
/// # Errors
/// Propagates harness/algorithm errors.
pub fn table2_rcc_tradeoffs(args: &BenchArgs) -> Result<Table> {
    let spec = args.dataset.unwrap_or(DatasetSpec::Covtype);
    let dataset = build_dataset(spec, args.points, args.seed);
    let k = args.k.min(10);
    let config = harness_config(k, 20 * k);
    let bucket = config.bucket_size as u64;

    let mut table = Table::new(
        format!(
            "Table 2 (measured on {}, {} points): RCC trade-offs vs nesting depth ι",
            spec.name(),
            dataset.len()
        ),
        &[
            "ι",
            "top merge degree",
            "max coreset level",
            "avg coresets merged/query",
            "avg query time (ms)",
            "memory (points)",
        ],
    );

    for nesting in [1u32, 2, 3] {
        let mut rcc = RecursiveCachedTree::new(config, nesting, args.seed)?;
        let mut merged = Vec::new();
        let mut levels = Vec::new();
        let mut query_ms = Vec::new();
        for (i, p) in dataset.stream().enumerate() {
            rcc.update(p)?;
            if ((i + 1) as u64).is_multiple_of(bucket) {
                let t = Instant::now();
                rcc.query()?;
                query_ms.push(t.elapsed().as_secs_f64() * 1e3);
                if let Some(stats) = rcc.last_query_stats() {
                    merged.push(stats.coresets_merged as f64);
                    levels.push(f64::from(stats.coreset_level.unwrap_or(0)));
                }
            }
        }
        let avg = |v: &[f64]| {
            if v.is_empty() {
                0.0
            } else {
                v.iter().sum::<f64>() / v.len() as f64
            }
        };
        table.push_row(vec![
            nesting.to_string(),
            rcc.top_merge_degree().to_string(),
            format!("{:.0}", levels.iter().copied().fold(0.0f64, f64::max)),
            format!("{:.2}", avg(&merged)),
            format!("{:.3}", avg(&query_ms)),
            rcc.memory_points().to_string(),
        ]);
    }
    Ok(table)
}

/// Table 3: overview of the evaluation datasets (paper size, harness size,
/// dimensionality).
///
/// # Errors
/// Never fails in practice; fallible for signature consistency.
pub fn table3_datasets(args: &BenchArgs) -> Result<Table> {
    let mut table = Table::new(
        "Table 3: datasets",
        &[
            "dataset",
            "paper points",
            "harness points",
            "dimension",
            "description",
        ],
    );
    let descriptions = [
        (
            DatasetSpec::Covtype,
            "Forest cover type (synthetic stand-in)",
        ),
        (
            DatasetSpec::Power,
            "Household power consumption (synthetic stand-in)",
        ),
        (DatasetSpec::Intrusion, "KDD Cup 1999 (synthetic stand-in)"),
        (
            DatasetSpec::Drift,
            "Drifting RBF stream (paper's own generator)",
        ),
    ];
    for (spec, description) in descriptions {
        let d = build_dataset(spec, args.points.min(1_000), args.seed);
        table.push_row(vec![
            spec.name().to_string(),
            spec.paper_points().to_string(),
            args.points.to_string(),
            d.dim().to_string(),
            description.to_string(),
        ]);
    }
    Ok(table)
}

/// Table 4: memory cost (points and MB) per algorithm per dataset, with
/// `k = 30` and a query every 100 points, exactly as in the paper.
///
/// # Errors
/// Propagates harness/algorithm errors.
pub fn table4_memory(args: &BenchArgs) -> Result<Vec<Table>> {
    let mut points_table = Table::new(
        "Table 4a: memory cost in points",
        &["dataset", "StreamKM++", "CC", "RCC", "OnlineCC"],
    );
    let mut mb_table = Table::new(
        "Table 4b: memory cost in MB",
        &["dataset", "StreamKM++", "CC", "RCC", "OnlineCC"],
    );
    let config = harness_config(args.k, 20 * args.k);
    for spec in args.datasets() {
        let dataset = build_dataset(spec, args.points, args.seed);
        let mut point_row = vec![spec.name().to_string()];
        let mut mb_row = vec![spec.name().to_string()];
        for kind in AlgorithmKind::STREAMING {
            let mut algo = make_algorithm(kind, config, DEFAULT_ALPHA, dataset.len(), args.seed)?;
            let result = run_stream(
                algo.as_mut(),
                &dataset,
                QuerySchedule::every(100),
                args.seed,
            )?;
            let points = result.measurement.memory_points;
            point_row.push(points.to_string());
            mb_row.push(format!("{:.2}", memory_megabytes(points, dataset.dim())));
        }
        points_table.push_row(point_row);
        mb_table.push_row(mb_row);
    }
    Ok(vec![points_table, mb_table])
}

/// Ablation (ours): effect of the CC merge degree `r` on query cost, coreset
/// level and accuracy.
///
/// # Errors
/// Propagates harness/algorithm errors.
pub fn ablation_merge_degree(args: &BenchArgs) -> Result<Table> {
    let spec = args.dataset.unwrap_or(DatasetSpec::Covtype);
    let dataset = build_dataset(spec, args.points, args.seed);
    let k = args.k.min(10);

    let mut table = Table::new(
        format!("Ablation ({}): CC merge degree r", spec.name()),
        &[
            "r",
            "avg coresets merged/query",
            "max coreset level",
            "total time (s)",
            "final cost",
        ],
    );
    for r in [2u64, 3, 4, 8] {
        let config = harness_config(k, 20 * k).with_merge_degree(r);
        let bucket = config.bucket_size as u64;
        let mut cc = CachedCoresetTree::new(config, args.seed)?;
        let mut merged = Vec::new();
        let mut levels = Vec::new();
        let start = Instant::now();
        for (i, p) in dataset.stream().enumerate() {
            cc.update(p)?;
            if ((i + 1) as u64).is_multiple_of(bucket) {
                cc.query()?;
                if let Some(stats) = cc.last_query_stats() {
                    merged.push(stats.coresets_merged as f64);
                    levels.push(f64::from(stats.coreset_level.unwrap_or(0)));
                }
            }
        }
        let centers = cc.query()?;
        let total = start.elapsed().as_secs_f64();
        let cost = skm_clustering::cost::kmeans_cost_block(dataset.points(), &centers)?;
        let avg = |v: &[f64]| {
            if v.is_empty() {
                0.0
            } else {
                v.iter().sum::<f64>() / v.len() as f64
            }
        };
        table.push_row(vec![
            r.to_string(),
            format!("{:.2}", avg(&merged)),
            format!("{:.0}", levels.iter().copied().fold(0.0f64, f64::max)),
            format!("{total:.3}"),
            format!("{cost:.4e}"),
        ]);
    }
    Ok(table)
}

/// Ablation (ours): CT vs CC vs the hypothetical "cache disabled" CC to
/// isolate the benefit of coreset caching on query time.
///
/// # Errors
/// Propagates harness/algorithm errors.
pub fn ablation_cache_benefit(args: &BenchArgs) -> Result<Table> {
    let spec = args.dataset.unwrap_or(DatasetSpec::Covtype);
    let dataset = build_dataset(spec, args.points, args.seed);
    let config = harness_config(args.k, 20 * args.k);

    let mut table = Table::new(
        format!(
            "Ablation ({}): benefit of coreset caching (query every 100 points)",
            spec.name()
        ),
        &[
            "algorithm",
            "update time (s)",
            "query time (s)",
            "total (s)",
            "memory (points)",
        ],
    );
    let mut run_one = |name: &str, algo: &mut dyn StreamingClusterer| -> Result<()> {
        let result = run_stream(algo, &dataset, QuerySchedule::every(100), args.seed)?;
        table.push_row(vec![
            name.to_string(),
            format!("{:.3}", result.measurement.update_seconds),
            format!("{:.3}", result.measurement.query_seconds),
            format!("{:.3}", result.measurement.total_seconds()),
            result.measurement.memory_points.to_string(),
        ]);
        Ok(())
    };
    let mut ct = CoresetTreeClusterer::new(config, args.seed)?;
    run_one("CT (no cache)", &mut ct)?;
    let mut cc = CachedCoresetTree::new(config, args.seed)?;
    run_one("CC (cache)", &mut cc)?;
    Ok(table)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_args() -> BenchArgs {
        BenchArgs {
            points: 800,
            k: 5,
            runs: 1,
            dataset: Some(DatasetSpec::Power),
            seed: 3,
            ..BenchArgs::default()
        }
    }

    #[test]
    fn table1_has_four_algorithms() {
        let t = table1_theory(&tiny_args()).unwrap();
        assert_eq!(t.len(), 4);
        assert!(t.to_plain_text().contains("StreamKM++"));
    }

    #[test]
    fn table3_lists_all_datasets() {
        let t = table3_datasets(&tiny_args()).unwrap();
        assert_eq!(t.len(), 4);
        assert!(t.to_csv().contains("2049280"));
    }

    #[test]
    fn table4_reports_points_and_mb() {
        let tables = table4_memory(&tiny_args()).unwrap();
        assert_eq!(tables.len(), 2);
        assert_eq!(tables[0].len(), 1); // one selected dataset
    }

    #[test]
    fn ablation_cache_benefit_compares_ct_and_cc() {
        let t = ablation_cache_benefit(&tiny_args()).unwrap();
        assert_eq!(t.len(), 2);
        assert!(t.to_plain_text().contains("CT (no cache)"));
    }
}
