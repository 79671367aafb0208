//! Integration tests of the dataset generators: the structural properties
//! the evaluation relies on must actually hold in the generated streams.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use skm_clustering::cost::kmeans_cost_block;
use skm_clustering::kmeans::KMeans;
use skm_data::prelude::*;
use skm_data::transform::ZScoreNormalizer;

#[test]
fn covtype_like_clusters_better_with_more_centers() {
    // The stand-in must contain multi-cluster structure: k = 7 should give a
    // markedly lower cost than k = 1 (otherwise Figure 4's x-axis would be
    // meaningless on this dataset).
    let mut rng = ChaCha8Rng::seed_from_u64(1);
    let d = covtype_like(4_000, &mut rng);
    let k1 = KMeans::new(1).fit_block(d.points(), &mut rng).unwrap().cost;
    let k7 = KMeans::new(7)
        .with_runs(2)
        .fit_block(d.points(), &mut rng)
        .unwrap()
        .cost;
    assert!(
        k7 * 2.0 < k1,
        "k=7 cost {k7:.3e} should be well below k=1 cost {k1:.3e}"
    );
}

#[test]
fn intrusion_like_has_heavy_scale_disparity() {
    let mut rng = ChaCha8Rng::seed_from_u64(2);
    let d = intrusion_like(10_000, &mut rng);
    // Attribute 0 spans several orders of magnitude across points.
    let values: Vec<f64> = d.stream().map(|p| p[0]).collect();
    let max = values.iter().copied().fold(f64::MIN, f64::max);
    let min = values.iter().copied().fold(f64::MAX, f64::min);
    assert!(max / min.abs().max(1.0) > 100.0, "max {max}, min {min}");
}

#[test]
fn power_like_has_daily_periodicity() {
    let mut rng = ChaCha8Rng::seed_from_u64(3);
    let d = power_like(2_880, &mut rng); // two simulated days
                                         // The active-power attribute at the same minute on consecutive days is
                                         // positively correlated (crude periodicity check): compare day-1 and
                                         // day-2 averages on the same half-day windows.
    let day: Vec<f64> = d.stream().map(|p| p[0]).collect();
    let first_evening: f64 = day[600..1_200].iter().sum::<f64>() / 600.0;
    let second_evening: f64 = day[2_040..2_640].iter().sum::<f64>() / 600.0;
    let first_night: f64 = day[0..300].iter().sum::<f64>() / 300.0;
    assert!(
        (first_evening - second_evening).abs() < 0.5,
        "same window on consecutive days should look similar: {first_evening} vs {second_evening}"
    );
    assert!(
        first_evening > first_night,
        "evening consumption {first_evening} should exceed night consumption {first_night}"
    );
}

#[test]
fn drift_moves_but_shuffled_gaussians_do_not() {
    let mut rng = ChaCha8Rng::seed_from_u64(4);
    let drift = RbfDriftGenerator::new(5, 4)
        .unwrap()
        .with_speed(2.0)
        .with_points_per_step(20)
        .generate(8_000, &mut rng);
    let static_mix = GaussianMixture::new(5, 4)
        .unwrap()
        .generate(8_000, &mut rng);

    let window_mean = |d: &Dataset, from: usize, to: usize| -> f64 {
        d.stream()
            .skip(from)
            .take(to - from)
            .map(|p| p.iter().sum::<f64>())
            .sum::<f64>()
            / (to - from) as f64
    };
    let drift_shift = (window_mean(&drift, 7_000, 8_000) - window_mean(&drift, 0, 1_000)).abs();
    let static_shift =
        (window_mean(&static_mix, 7_000, 8_000) - window_mean(&static_mix, 0, 1_000)).abs();
    assert!(
        drift_shift > 5.0 * static_shift.max(0.5),
        "drift shift {drift_shift} should dwarf static shift {static_shift}"
    );
}

#[test]
fn normalization_equalizes_attribute_scales_on_covtype_like() {
    let mut rng = ChaCha8Rng::seed_from_u64(5);
    let d = covtype_like(3_000, &mut rng);
    let normalizer = ZScoreNormalizer::fit(d.points()).unwrap();
    let normalized = normalizer.transform_dataset(&d).unwrap();
    // After normalization, the per-attribute standard deviations are ~1 for
    // both a terrain attribute (index 0) and an indicator attribute (index 53).
    let std_of = |dataset: &Dataset, dim: usize| -> f64 {
        let n = dataset.len() as f64;
        let mean: f64 = dataset.stream().map(|p| p[dim]).sum::<f64>() / n;
        (dataset
            .stream()
            .map(|p| (p[dim] - mean).powi(2))
            .sum::<f64>()
            / n)
            .sqrt()
    };
    let raw_ratio = std_of(&d, 0) / std_of(&d, 53);
    let norm_ratio = std_of(&normalized, 0) / std_of(&normalized, 53);
    assert!(
        raw_ratio > 50.0,
        "raw scales should differ wildly: {raw_ratio}"
    );
    assert!(
        (0.5..2.0).contains(&norm_ratio),
        "normalized scales should match: {norm_ratio}"
    );
}

#[test]
fn query_schedules_cover_both_regimes_used_in_the_paper() {
    let mut rng = ChaCha8Rng::seed_from_u64(6);
    // Fixed interval q = 100 on 6000 points -> exactly 60 queries.
    assert_eq!(
        QuerySchedule::every(100).positions(6_000, &mut rng).len(),
        60
    );
    // Poisson with mean gap 100 -> about 60 queries.
    let poisson = QuerySchedule::poisson_with_mean_interval(100.0);
    let count = poisson.positions(6_000, &mut rng).len();
    assert!(
        (30..=90).contains(&count),
        "poisson produced {count} queries"
    );
    // Clustering cost of a fresh mixture is finite (sanity end-to-end hook
    // for the data crate's prelude).
    let data = GaussianMixture::new(3, 2).unwrap().generate(500, &mut rng);
    let centers = KMeans::new(3)
        .fit_block(data.points(), &mut rng)
        .unwrap()
        .centers;
    assert!(kmeans_cost_block(data.points(), &centers)
        .unwrap()
        .is_finite());
}
