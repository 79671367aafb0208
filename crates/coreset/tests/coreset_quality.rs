//! Statistical checks of the coreset property (Definition 1): for many
//! candidate center sets Ψ — good, bad, and random — the cost evaluated on
//! the coreset must track the cost evaluated on the full data within a
//! modest relative error, for both constructions and across merge levels.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use skm_clustering::cost::kmeans_cost_block;
use skm_clustering::kmeanspp::kmeanspp_block;
use skm_clustering::{Centers, PointBlock};
use skm_coreset::construct::{CoresetBuilder, CoresetMethod};
use skm_coreset::merge::merge_coresets;
use skm_coreset::{Coreset, Span};

fn clustered_data(n: usize, seed: u64) -> PointBlock {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let anchors = [
        [0.0, 0.0, 0.0],
        [25.0, 0.0, 5.0],
        [0.0, 25.0, -5.0],
        [25.0, 25.0, 0.0],
        [12.0, 12.0, 20.0],
    ];
    let mut points = PointBlock::new(3);
    for i in 0..n {
        let a = anchors[i % anchors.len()];
        points.push(
            &[
                a[0] + rng.gen::<f64>() * 2.0,
                a[1] + rng.gen::<f64>() * 2.0,
                a[2] + rng.gen::<f64>() * 2.0,
            ],
            1.0,
        );
    }
    points
}

/// A pool of candidate center sets of varying quality.
fn candidate_centers(points: &PointBlock, rng: &mut ChaCha8Rng) -> Vec<Centers> {
    let mut out = Vec::new();
    // Good candidates: k-means++ seedings for several k.
    for k in [2usize, 5, 8] {
        out.push(kmeanspp_block(points, k, rng).unwrap());
    }
    // Bad candidate: a single far-away center.
    out.push(Centers::from_rows(3, &[vec![500.0, 500.0, 500.0]]).unwrap());
    // Random candidates inside the bounding box.
    let (lo, hi) = bounding_box(points);
    for _ in 0..3 {
        let rows: Vec<Vec<f64>> = (0..4)
            .map(|_| {
                (0..3)
                    .map(|d| lo[d] + rng.gen::<f64>() * (hi[d] - lo[d]))
                    .collect()
            })
            .collect();
        out.push(Centers::from_rows(3, &rows).unwrap());
    }
    out
}

/// Axis-aligned bounding box `(min, max)` of a non-empty block.
fn bounding_box(points: &PointBlock) -> (Vec<f64>, Vec<f64>) {
    let mut lo = points.point(0).to_vec();
    let mut hi = lo.clone();
    for (p, _, _) in points.iter() {
        for (j, &x) in p.iter().enumerate() {
            lo[j] = lo[j].min(x);
            hi[j] = hi[j].max(x);
        }
    }
    (lo, hi)
}

/// Consecutive blocks of at most `size` points, in order.
fn chunks(points: &PointBlock, size: usize) -> Vec<PointBlock> {
    let mut out: Vec<PointBlock> = Vec::new();
    for (i, (p, w, _)) in points.iter().enumerate() {
        if i % size == 0 {
            out.push(PointBlock::with_capacity(points.dim(), size));
        }
        if let Some(last) = out.last_mut() {
            last.push(p, w);
        }
    }
    out
}

fn max_relative_error(points: &PointBlock, summary: &PointBlock, candidates: &[Centers]) -> f64 {
    let mut worst: f64 = 0.0;
    for centers in candidates {
        let full = kmeans_cost_block(points, centers).unwrap();
        let approx = kmeans_cost_block(summary, centers).unwrap();
        if full > 0.0 {
            worst = worst.max((full - approx).abs() / full);
        }
    }
    worst
}

#[test]
fn single_level_coresets_track_costs_for_many_center_sets() {
    let points = clustered_data(4_000, 1);
    let mut rng = ChaCha8Rng::seed_from_u64(2);
    let candidates = candidate_centers(&points, &mut rng);
    for method in [CoresetMethod::KMeansPP, CoresetMethod::SensitivitySampling] {
        let builder = CoresetBuilder::new(5).with_size(400).with_method(method);
        let coreset = builder
            .build_block(&points, Span::single(1), 1, &mut rng)
            .unwrap();
        let err = max_relative_error(&points, coreset.points(), &candidates);
        assert!(
            err < 0.30,
            "{method:?}: worst relative cost error {err:.3} across {} center sets",
            candidates.len()
        );
    }
}

#[test]
fn merged_coresets_degrade_gracefully_with_level() {
    // Build a two-level merge (4 buckets -> 2 merges -> 1 merge) and verify
    // the final summary still approximates costs reasonably (Lemma 1 allows
    // the error to compound multiplicatively with the level).
    let mut rng = ChaCha8Rng::seed_from_u64(3);
    let builder = CoresetBuilder::new(5).with_size(300);

    let full = clustered_data(8_000, 5);
    let chunks = chunks(&full, 2_000);
    assert_eq!(chunks.len(), 4);
    let leaves: Vec<Coreset> = chunks
        .iter()
        .enumerate()
        .map(|(i, chunk)| {
            builder
                .build_block(chunk, Span::single(i as u64 + 1), 0, &mut rng)
                .unwrap()
        })
        .collect();
    let left = merge_coresets(&leaves[0..2], &builder, &mut rng).unwrap();
    let right = merge_coresets(&leaves[2..4], &builder, &mut rng).unwrap();
    assert_eq!(left.level(), 1);
    assert_eq!(right.level(), 1);
    let root = merge_coresets(&[left, right], &builder, &mut rng).unwrap();
    assert_eq!(root.level(), 2);
    assert_eq!(root.span(), Span::new(1, 4));

    let candidates = candidate_centers(&full, &mut rng);
    let err = max_relative_error(&full, root.points(), &candidates);
    assert!(err < 0.45, "level-2 coreset relative error {err:.3}");
    // Total mass is preserved through both merge generations.
    assert!((root.total_weight() - full.total_weight()).abs() < 1e-6);
}

#[test]
fn coreset_of_coreset_is_smaller_but_consistent() {
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    let points = clustered_data(3_000, 9);
    let big = CoresetBuilder::new(5)
        .with_size(600)
        .build_block(&points, Span::single(1), 1, &mut rng)
        .unwrap();
    let small = CoresetBuilder::new(5)
        .with_size(120)
        .build_block(big.points(), Span::single(1), 2, &mut rng)
        .unwrap();
    assert!(small.len() <= 120);
    assert!((small.total_weight() - points.total_weight()).abs() < 1e-6);
    let candidates = candidate_centers(&points, &mut rng);
    let err = max_relative_error(&points, small.points(), &candidates);
    assert!(err < 0.5, "double-compressed coreset error {err:.3}");
}
