//! k-median clustering support (extension).
//!
//! The paper's conclusion points out that the coreset-caching framework
//! "may be applicable to other streaming algorithms built around the
//! Bentley–Saxe decomposition — for instance, applying it to streaming
//! k-median seems natural." This module provides the batch substrate for
//! that extension: the k-median objective (sum of *distances* rather than
//! squared distances), D-sampling seeding (the k-median analogue of
//! k-means++), and a Weiszfeld-based refinement step (the k-median analogue
//! of Lloyd's algorithm). The streaming side lives in
//! `skm_stream::kmedian_stream`.

use crate::block::PointBlock;
use crate::centers::Centers;
use crate::distance::{distance, nearest_center, squared_distance};
use crate::error::{ClusteringError, Result};
use crate::sampling::{uniform_index, weighted_index};
use rand::Rng;

/// Weighted k-median cost: `Σ_x w(x) · D(x, Ψ)` (note: distance, not
/// squared distance).
///
/// # Errors
/// Returns an error when `centers` is empty (and `points` is not) or the
/// dimensions disagree.
pub fn kmedian_cost(points: &PointBlock, centers: &Centers) -> Result<f64> {
    if points.is_empty() {
        return Ok(0.0);
    }
    if centers.is_empty() {
        return Err(ClusteringError::EmptyInput);
    }
    if points.dim() != centers.dim() {
        return Err(ClusteringError::DimensionMismatch {
            expected: points.dim(),
            got: centers.dim(),
        });
    }
    let mut cost = 0.0;
    for (p, w, _) in points.iter() {
        let (_, d2) = nearest_center(p, centers).expect("non-empty centers");
        cost += w * d2.sqrt();
    }
    Ok(cost)
}

/// D-sampling seeding for k-median: like k-means++, but the next center is
/// chosen with probability proportional to `w(x) · D(x, Ψ)` (first power).
///
/// # Errors
/// Same failure modes as [`crate::kmeanspp::kmeanspp_block`].
pub fn kmedianpp<R: Rng + ?Sized>(points: &PointBlock, k: usize, rng: &mut R) -> Result<Centers> {
    if k == 0 {
        return Err(ClusteringError::InvalidK { k });
    }
    if points.is_empty() {
        return Err(ClusteringError::EmptyInput);
    }
    let n = points.len();
    let dim = points.dim();
    let k_eff = k.min(n);
    let mut centers = Centers::with_capacity(dim, k_eff);

    let first = weighted_index(points.weights(), rng)
        .or_else(|| uniform_index(n, rng))
        .expect("non-empty point set");
    centers.push(points.point(first), points.weight(first));

    let mut dist: Vec<f64> = points
        .iter()
        .map(|(p, w, _)| w * distance(p, centers.center(0)))
        .collect();

    while centers.len() < k_eff {
        let chosen = match weighted_index(&dist, rng) {
            Some(i) => i,
            None => uniform_index(n, rng).expect("non-empty point set"),
        };
        centers.push(points.point(chosen), points.weight(chosen));
        let new_idx = centers.len() - 1;
        for (i, (p, w, _)) in points.iter().enumerate() {
            let d = w * distance(p, centers.center(new_idx));
            if d < dist[i] {
                dist[i] = d;
            }
        }
    }
    Ok(centers)
}

/// One pass of alternating refinement for k-median: assign every point to
/// its nearest center, then move each center to (an approximation of) the
/// **geometric median** of its cluster using `weiszfeld_iterations` steps of
/// Weiszfeld's algorithm. Empty clusters are reseeded at the point farthest
/// from its center.
///
/// Returns the refined centers and their k-median cost.
///
/// # Errors
/// Returns an error for empty inputs or dimension mismatches.
pub fn kmedian_refine(
    points: &PointBlock,
    initial: &Centers,
    rounds: usize,
    weiszfeld_iterations: usize,
) -> Result<(Centers, f64)> {
    if points.is_empty() || initial.is_empty() {
        return Err(ClusteringError::EmptyInput);
    }
    if points.dim() != initial.dim() {
        return Err(ClusteringError::DimensionMismatch {
            expected: points.dim(),
            got: initial.dim(),
        });
    }
    let dim = points.dim();
    let k = initial.len();
    let mut centers = initial.clone();

    for _ in 0..rounds {
        // Assignment.
        let mut members: Vec<Vec<usize>> = vec![Vec::new(); k];
        let mut worst_point = 0usize;
        let mut worst_contrib = -1.0f64;
        for (i, (p, w, _)) in points.iter().enumerate() {
            let (idx, d2) = nearest_center(p, &centers).expect("non-empty centers");
            members[idx].push(i);
            let contrib = w * d2.sqrt();
            if contrib > worst_contrib {
                worst_contrib = contrib;
                worst_point = i;
            }
        }
        // Update: geometric median per cluster.
        for (j, cluster) in members.iter().enumerate() {
            if cluster.is_empty() {
                centers
                    .center_mut(j)
                    .copy_from_slice(points.point(worst_point));
                *centers.weight_mut(j) = points.weight(worst_point);
                continue;
            }
            let median = geometric_median(points, cluster, weiszfeld_iterations);
            centers.center_mut(j).copy_from_slice(&median);
            *centers.weight_mut(j) = cluster.iter().map(|&i| points.weight(i)).sum();
            let _ = dim;
        }
    }
    let cost = kmedian_cost(points, &centers)?;
    Ok((centers, cost))
}

/// Approximates the weighted geometric median of the selected points with
/// Weiszfeld's iterative algorithm, starting from the weighted centroid.
#[must_use]
pub fn geometric_median(points: &PointBlock, indices: &[usize], iterations: usize) -> Vec<f64> {
    let dim = points.dim();
    // Start from the weighted centroid.
    let mut estimate = vec![0.0; dim];
    let mut mass = 0.0;
    for &i in indices {
        let w = points.weight(i);
        mass += w;
        for (e, x) in estimate.iter_mut().zip(points.point(i)) {
            *e += w * x;
        }
    }
    if mass <= 0.0 || indices.is_empty() {
        return estimate;
    }
    for e in &mut estimate {
        *e /= mass;
    }

    let mut next = vec![0.0; dim];
    for _ in 0..iterations {
        next.iter_mut().for_each(|v| *v = 0.0);
        let mut denom = 0.0;
        let mut coincident = false;
        for &i in indices {
            let p = points.point(i);
            let d = squared_distance(p, &estimate).sqrt();
            if d < 1e-12 {
                // Weiszfeld is undefined at a data point; the data point is
                // an acceptable (1+ε)-approximate answer here.
                coincident = true;
                break;
            }
            let w = points.weight(i) / d;
            denom += w;
            for (nj, xj) in next.iter_mut().zip(p) {
                *nj += w * xj;
            }
        }
        if coincident || denom <= 0.0 {
            break;
        }
        for (e, nj) in estimate.iter_mut().zip(&next) {
            *e = nj / denom;
        }
    }
    estimate
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn line_points(values: &[f64]) -> PointBlock {
        let mut s = PointBlock::new(1);
        for &v in values {
            s.push(&[v], 1.0);
        }
        s
    }

    #[test]
    fn kmedian_cost_uses_plain_distance() {
        let points = line_points(&[0.0, 3.0]);
        let centers = Centers::from_rows(1, &[vec![0.0]]).unwrap();
        assert!((kmedian_cost(&points, &centers).unwrap() - 3.0).abs() < 1e-12);
        // k-means cost of the same configuration would be 9.
    }

    #[test]
    fn kmedian_cost_errors_mirror_kmeans() {
        let points = line_points(&[1.0]);
        assert!(kmedian_cost(&points, &Centers::new(1)).is_err());
        let wrong_dim = Centers::from_rows(2, &[vec![0.0, 0.0]]).unwrap();
        assert!(kmedian_cost(&points, &wrong_dim).is_err());
        assert_eq!(kmedian_cost(&PointBlock::new(1), &wrong_dim).unwrap(), 0.0);
    }

    #[test]
    fn geometric_median_is_robust_to_an_outlier() {
        // Median of {0, 1, 2, 100} on a line is ~1.0-ish, far from the mean (25.75).
        let points = line_points(&[0.0, 1.0, 2.0, 100.0]);
        let idx: Vec<usize> = (0..4).collect();
        let median = geometric_median(&points, &idx, 200);
        assert!(
            median[0] < 5.0,
            "geometric median {} dragged by outlier",
            median[0]
        );
        let mean = points.coords().iter().sum::<f64>() / 4.0;
        assert!(mean > 20.0);
    }

    #[test]
    fn kmedianpp_seeds_separated_clusters() {
        let mut points = PointBlock::new(1);
        for i in 0..30 {
            points.push(&[f64::from(i) * 0.01], 1.0);
            points.push(&[500.0 + f64::from(i) * 0.01], 1.0);
        }
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let centers = kmedianpp(&points, 2, &mut rng).unwrap();
        assert_eq!(centers.len(), 2);
        let mut xs: Vec<f64> = centers.iter().map(|c| c[0]).collect();
        xs.sort_by(f64::total_cmp);
        assert!(xs[0] < 10.0);
        assert!(xs[1] > 490.0);
    }

    #[test]
    fn kmedianpp_rejects_bad_inputs() {
        let points = line_points(&[1.0, 2.0]);
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        assert!(kmedianpp(&points, 0, &mut rng).is_err());
        assert!(kmedianpp(&PointBlock::new(1), 2, &mut rng).is_err());
    }

    #[test]
    fn refinement_reduces_cost() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let mut points = PointBlock::new(2);
        use rand::Rng;
        for i in 0..200 {
            let (ax, ay) = if i % 2 == 0 { (0.0, 0.0) } else { (30.0, 30.0) };
            points.push(&[ax + rng.gen::<f64>(), ay + rng.gen::<f64>()], 1.0);
        }
        let seeded = kmedianpp(&points, 2, &mut rng).unwrap();
        let initial_cost = kmedian_cost(&points, &seeded).unwrap();
        let (refined, refined_cost) = kmedian_refine(&points, &seeded, 5, 30).unwrap();
        assert_eq!(refined.len(), 2);
        assert!(refined_cost <= initial_cost + 1e-9);
    }

    #[test]
    fn refinement_handles_empty_cluster() {
        let points = line_points(&[0.0, 1.0, 2.0]);
        let initial = Centers::from_rows(1, &[vec![1.0], vec![1e9]]).unwrap();
        let (refined, cost) = kmedian_refine(&points, &initial, 3, 10).unwrap();
        assert_eq!(refined.len(), 2);
        assert!(cost.is_finite());
        for c in refined.iter() {
            assert!(c[0] <= 3.0, "center escaped the data range: {}", c[0]);
        }
    }
}
