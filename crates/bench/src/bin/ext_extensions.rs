//! Extension experiments (beyond the paper's evaluation):
//!
//! 1. CluStream micro-cluster baseline vs the paper's algorithms
//!    (accuracy, runtime, memory) on one dataset.
//! 2. Time-decayed sequential k-means vs plain sequential k-means on the
//!    drifting stream (the paper's future-work item on concept drift).
//! 3. Streaming k-median (KMedianCC) vs streaming k-means (CC) on a stream
//!    with heavy outliers.
//!
//! ```text
//! cargo run -p skm-bench --release --bin ext_extensions -- [--points N] [--k K] [--csv]
//! ```

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use skm_bench::figures::{harness_config, print_tables, DEFAULT_ALPHA};
use skm_bench::runner::{make_algorithm, run_stream, AlgorithmKind};
use skm_bench::workloads::{build_dataset, DatasetSpec};
use skm_bench::BenchArgs;
use skm_clustering::cost::kmeans_cost_block;
use skm_clustering::kmedian::kmedian_cost;
use skm_clustering::PointBlock;
use skm_data::QuerySchedule;
use skm_metrics::Table;
use skm_stream::prelude::*;
use skm_stream::KMedianCC;

fn clustream_comparison(args: &BenchArgs) -> Table {
    let spec = args.dataset.unwrap_or(DatasetSpec::Covtype);
    let dataset = build_dataset(spec, args.points, args.seed);
    let config = harness_config(args.k, 20 * args.k);
    let mut table = Table::new(
        format!(
            "Extension 1 ({}): CluStream vs coreset algorithms",
            spec.name()
        ),
        &[
            "algorithm",
            "total time (s)",
            "final cost",
            "memory (points)",
        ],
    );
    for kind in [
        AlgorithmKind::Cc,
        AlgorithmKind::OnlineCc,
        AlgorithmKind::Sequential,
    ] {
        let mut algo = make_algorithm(kind, config, DEFAULT_ALPHA, dataset.len(), args.seed)
            .expect("valid config");
        let result = run_stream(
            algo.as_mut(),
            &dataset,
            QuerySchedule::every(100),
            args.seed,
        )
        .expect("run");
        table.push_row(vec![
            kind.name().to_string(),
            format!("{:.3}", result.measurement.total_seconds()),
            format!("{:.4e}", result.measurement.final_cost),
            result.measurement.memory_points.to_string(),
        ]);
    }
    let mut clustream = CluStream::new(config, args.seed).expect("valid config");
    let result = run_stream(
        &mut clustream,
        &dataset,
        QuerySchedule::every(100),
        args.seed,
    )
    .expect("run");
    table.push_row(vec![
        "CluStream".to_string(),
        format!("{:.3}", result.measurement.total_seconds()),
        format!("{:.4e}", result.measurement.final_cost),
        result.measurement.memory_points.to_string(),
    ]);
    table
}

fn decay_comparison(args: &BenchArgs) -> Table {
    // Drifting stream; evaluate the cost of the *current* centers on the
    // most recent 10% of the stream.
    let dataset = build_dataset(DatasetSpec::Drift, args.points, args.seed);
    let k = args.k;
    let tail_start = dataset.len() - dataset.len() / 10;
    let mut tail = PointBlock::new(dataset.dim());
    for (i, p) in dataset.stream().enumerate() {
        if i >= tail_start {
            tail.push(p, 1.0);
        }
    }

    let mut table = Table::new(
        "Extension 2 (Drift): time-decayed vs plain sequential k-means (cost on final 10% of the stream)",
        &["algorithm", "cost on recent window", "memory (points)"],
    );
    let mut plain = SequentialKMeans::new(k).expect("valid k");
    let mut decayed = DecayedSequentialKMeans::new(k, 0.995).expect("valid decay");
    let mut cc = CachedCoresetTree::new(harness_config(k, 20 * k), args.seed).expect("config");
    for p in dataset.stream() {
        plain.update(p).expect("update");
        decayed.update(p).expect("update");
        cc.update(p).expect("update");
    }
    for (name, centers, memory) in [
        (
            "Sequential",
            plain.query().expect("query"),
            plain.memory_points(),
        ),
        (
            "DecayedSequential (λ=0.995)",
            decayed.query().expect("query"),
            decayed.memory_points(),
        ),
        ("CC", cc.query().expect("query"), cc.memory_points()),
    ] {
        let cost = kmeans_cost_block(&tail, &centers).expect("cost");
        table.push_row(vec![
            name.to_string(),
            format!("{cost:.4e}"),
            memory.to_string(),
        ]);
    }
    table
}

fn kmedian_comparison(args: &BenchArgs) -> Table {
    // Heavy-tailed stream (Intrusion-like) where the k-median objective is
    // more robust to the extreme points.
    let mut rng = ChaCha8Rng::seed_from_u64(args.seed);
    let dataset = skm_data::uci_like::intrusion_like(args.points, &mut rng).shuffled(&mut rng);
    let config = harness_config(args.k, 20 * args.k);

    let mut kmeans_cc = CachedCoresetTree::new(config, args.seed).expect("config");
    let mut kmedian_cc = KMedianCC::new(config, args.seed).expect("config");
    for p in dataset.stream() {
        kmeans_cc.update(p).expect("update");
        kmedian_cc.update(p).expect("update");
    }
    let kmeans_centers = kmeans_cc.query().expect("query");
    let kmedian_centers = kmedian_cc.query().expect("query");

    let mut table = Table::new(
        "Extension 3 (Intrusion): streaming k-means (CC) vs streaming k-median (KMedianCC)",
        &[
            "algorithm",
            "k-means cost",
            "k-median cost",
            "memory (points)",
        ],
    );
    for (name, centers, memory) in [
        ("CC (k-means)", &kmeans_centers, kmeans_cc.memory_points()),
        (
            "KMedianCC (k-median)",
            &kmedian_centers,
            kmedian_cc.memory_points(),
        ),
    ] {
        table.push_row(vec![
            name.to_string(),
            format!(
                "{:.4e}",
                kmeans_cost_block(dataset.points(), centers).expect("cost")
            ),
            format!(
                "{:.4e}",
                kmedian_cost(dataset.points(), centers).expect("cost")
            ),
            memory.to_string(),
        ]);
    }
    table
}

fn main() {
    let args = BenchArgs::from_env();
    let tables = vec![
        clustream_comparison(&args),
        decay_comparison(&args),
        kmedian_comparison(&args),
    ];
    print_tables(&tables, args.csv);
}
