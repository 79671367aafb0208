//! Cross-module tests of the weighted-point semantics that the coreset
//! machinery relies on: a point with weight `w` must behave exactly like
//! `w` unit-weight copies of that point, for the cost function, Lloyd's
//! algorithm and the batch k-means pipeline.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use skm_clustering::cost::{assign_block, kmeans_cost_block};
use skm_clustering::kmeans::KMeans;
use skm_clustering::lloyd::{lloyd_block, LloydConfig};
use skm_clustering::{Centers, PointBlock};

/// Builds the same logical multiset twice: once with integer weights and
/// once with explicit duplicates.
fn weighted_and_duplicated() -> (PointBlock, PointBlock) {
    let raw: Vec<(Vec<f64>, usize)> = vec![
        (vec![0.0, 0.0], 3),
        (vec![1.0, 0.5], 1),
        (vec![10.0, 10.0], 4),
        (vec![11.0, 9.5], 2),
        (vec![-5.0, 2.0], 1),
    ];
    let mut weighted = PointBlock::new(2);
    let mut duplicated = PointBlock::new(2);
    for (p, copies) in &raw {
        weighted.push(p, *copies as f64);
        for _ in 0..*copies {
            duplicated.push(p, 1.0);
        }
    }
    (weighted, duplicated)
}

#[test]
fn cost_of_weighted_set_equals_cost_of_duplicated_set() {
    let (weighted, duplicated) = weighted_and_duplicated();
    let centers = Centers::from_rows(2, &[vec![0.0, 0.0], vec![10.0, 10.0]]).unwrap();
    let cw = kmeans_cost_block(&weighted, &centers).unwrap();
    let cd = kmeans_cost_block(&duplicated, &centers).unwrap();
    assert!((cw - cd).abs() < 1e-9, "weighted {cw} vs duplicated {cd}");
}

#[test]
fn assignment_masses_match_duplicated_counts() {
    let (weighted, duplicated) = weighted_and_duplicated();
    let centers = Centers::from_rows(2, &[vec![0.0, 0.0], vec![10.0, 10.0]]).unwrap();
    let aw = assign_block(&weighted, &centers).unwrap();
    let ad = assign_block(&duplicated, &centers).unwrap();
    assert_eq!(aw.cluster_weights.len(), ad.cluster_weights.len());
    for (w, d) in aw.cluster_weights.iter().zip(&ad.cluster_weights) {
        assert!((w - d).abs() < 1e-9);
    }
}

#[test]
fn lloyd_produces_identical_centers_on_both_representations() {
    let (weighted, duplicated) = weighted_and_duplicated();
    let init = Centers::from_rows(2, &[vec![1.0, 1.0], vec![8.0, 8.0]]).unwrap();
    let config = LloydConfig {
        max_iterations: 10,
        tolerance: 0.0,
    };
    let out_w = lloyd_block(&weighted, &init, config).unwrap();
    let out_d = lloyd_block(&duplicated, &init, config).unwrap();
    assert!((out_w.cost - out_d.cost).abs() < 1e-9);
    for (cw, cd) in out_w.centers.iter().zip(out_d.centers.iter()) {
        for (a, b) in cw.iter().zip(cd) {
            assert!((a - b).abs() < 1e-9);
        }
    }
}

#[test]
fn lloyd_cost_never_increases_with_more_iterations() {
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    use rand::Rng;
    let mut points = PointBlock::new(3);
    for _ in 0..400 {
        points.push(
            &[
                rng.gen::<f64>() * 10.0,
                rng.gen::<f64>() * 10.0,
                rng.gen::<f64>() * 10.0,
            ],
            1.0 + rng.gen::<f64>(),
        );
    }
    let init = skm_clustering::kmeanspp::kmeanspp_block(&points, 4, &mut rng).unwrap();
    let mut previous = f64::INFINITY;
    for iterations in [1usize, 2, 4, 8, 16] {
        let out = lloyd_block(
            &points,
            &init,
            LloydConfig {
                max_iterations: iterations,
                tolerance: 0.0,
            },
        )
        .unwrap();
        assert!(
            out.cost <= previous + 1e-9,
            "cost increased from {previous} to {} at {iterations} iterations",
            out.cost
        );
        previous = out.cost;
    }
}

#[test]
fn batch_kmeans_handles_extreme_weights() {
    // One point carries 10^9 of the mass: the best single center must sit on
    // top of it.
    let mut points = PointBlock::new(1);
    points.push(&[0.0], 1.0);
    points.push(&[1.0], 1.0);
    points.push(&[100.0], 1e9);
    let mut rng = ChaCha8Rng::seed_from_u64(3);
    let result = KMeans::new(1)
        .with_runs(3)
        .fit_block(&points, &mut rng)
        .unwrap();
    assert!((result.centers.center(0)[0] - 100.0).abs() < 1e-3);
}

#[test]
fn zero_weight_points_do_not_affect_the_result() {
    let mut with_zero = PointBlock::new(1);
    with_zero.push(&[0.0], 1.0);
    with_zero.push(&[2.0], 1.0);
    with_zero.push(&[1_000.0], 0.0); // irrelevant
    let centers = Centers::from_rows(1, &[vec![1.0]]).unwrap();
    let cost = kmeans_cost_block(&with_zero, &centers).unwrap();
    assert!((cost - 2.0).abs() < 1e-12);
    let assignment = assign_block(&with_zero, &centers).unwrap();
    assert!((assignment.cluster_weights[0] - 2.0).abs() < 1e-12);
}
