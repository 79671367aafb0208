//! Weighted Lloyd's algorithm (the classic "k-means algorithm").
//!
//! The paper's evaluation (Section 5.2) follows each k-means++ seeding with
//! up to 20 iterations of Lloyd's algorithm to polish the centers. Lloyd's
//! algorithm alternates between assigning every point to its nearest center
//! and moving every center to the weighted centroid of its assigned points;
//! the cost is non-increasing across iterations.

use crate::block::PointBlock;
use crate::centers::Centers;
use crate::cost::assign_view;
use crate::distance::{nearest_block_row, squared_norms};
use crate::error::{ClusteringError, Result};

/// Result of running Lloyd iterations.
#[derive(Debug, Clone)]
pub struct LloydOutcome {
    /// The refined centers.
    pub centers: Centers,
    /// Weighted k-means cost of the final centers on the input.
    pub cost: f64,
    /// Number of iterations actually performed.
    pub iterations: usize,
    /// Whether the algorithm stopped because the relative cost improvement
    /// fell below the tolerance (as opposed to hitting the iteration cap).
    pub converged: bool,
}

/// Configuration for [`lloyd_block`].
#[derive(Debug, Clone, Copy)]
pub struct LloydConfig {
    /// Maximum number of iterations (the paper uses 20).
    pub max_iterations: usize,
    /// Relative cost-improvement threshold below which iteration stops.
    pub tolerance: f64,
}

impl Default for LloydConfig {
    fn default() -> Self {
        Self {
            max_iterations: 20,
            tolerance: 1e-6,
        }
    }
}

/// Runs weighted Lloyd iterations starting from `initial` centers.
///
/// Empty clusters are re-seeded with the point that currently contributes
/// the most to the cost, a standard remedy that keeps exactly `k` centers
/// alive.
///
/// The block's cached point norms are reused by **every** iteration (and
/// the final cost evaluation), which is where the cached-norm
/// representation pays off most.
///
/// # Errors
/// * [`ClusteringError::EmptyInput`] if `block` or `initial` is empty.
/// * Dimension mismatch between `block` and `initial`.
pub fn lloyd_block(
    block: &PointBlock,
    initial: &Centers,
    config: LloydConfig,
) -> Result<LloydOutcome> {
    if block.is_empty() || initial.is_empty() {
        return Err(ClusteringError::EmptyInput);
    }
    if block.dim() != initial.dim() {
        return Err(ClusteringError::DimensionMismatch {
            expected: block.dim(),
            got: initial.dim(),
        });
    }
    Ok(lloyd_view(block, initial, config))
}

/// Fused-kernel core of Lloyd's algorithm. The caller has validated shapes
/// and non-emptiness.
pub(crate) fn lloyd_view(
    block: &PointBlock,
    initial: &Centers,
    config: LloydConfig,
) -> LloydOutcome {
    let dim = block.dim();
    let k = initial.len();
    let mut centers = initial.clone();
    let mut prev_cost = f64::INFINITY;
    let mut iterations = 0;
    let mut converged = false;

    for _ in 0..config.max_iterations {
        iterations += 1;

        // Assignment step; also gives the cost of the *current* centers.
        // Center norms change every iteration (centers move) and are
        // recomputed once per iteration; point norms come from the cache.
        let center_norms = squared_norms(centers.coords(), dim);
        let mut sums = vec![0.0; k * dim];
        let mut masses = vec![0.0; k];
        let mut cost = 0.0;
        // Track the single worst point for empty-cluster reseeding.
        let mut worst_point = 0usize;
        let mut worst_contrib = -1.0;
        for (i, (p, w, n)) in block.iter().enumerate() {
            let (idx, d2) = nearest_block_row(p, n, centers.coords(), &center_norms, dim)
                .expect("non-empty centers");
            cost += w * d2;
            masses[idx] += w;
            let row = &mut sums[idx * dim..(idx + 1) * dim];
            for (s, x) in row.iter_mut().zip(p) {
                *s += w * x;
            }
            if w * d2 > worst_contrib {
                worst_contrib = w * d2;
                worst_point = i;
            }
        }

        // Convergence test on the cost of the centers we just evaluated.
        if prev_cost.is_finite() {
            let improvement = (prev_cost - cost) / prev_cost.max(f64::MIN_POSITIVE);
            if improvement.abs() <= config.tolerance {
                prev_cost = cost;
                converged = true;
                break;
            }
        }
        prev_cost = cost;

        // Update step: move each center to the weighted centroid of its
        // cluster; re-seed empty clusters at the current worst point.
        for j in 0..k {
            if masses[j] > 0.0 {
                let row = &sums[j * dim..(j + 1) * dim];
                let c = centers.center_mut(j);
                for (ci, s) in c.iter_mut().zip(row) {
                    *ci = s / masses[j];
                }
                *centers.weight_mut(j) = masses[j];
            } else {
                let p = block.point(worst_point);
                centers.center_mut(j).copy_from_slice(p);
                *centers.weight_mut(j) = block.weight(worst_point);
            }
        }
    }

    // Final cost of the returned centers (they may have moved after the last
    // cost evaluation above).
    let final_assignment = assign_view(block, &centers);
    let cost = final_assignment.cost.min(prev_cost);
    // Keep the cheaper of (last evaluated centers, updated centers): Lloyd
    // updates never increase cost in exact arithmetic, so this only guards
    // against floating-point noise.
    LloydOutcome {
        centers,
        cost,
        iterations,
        converged,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::kmeans_cost_block;
    use crate::kmeanspp::kmeanspp_block;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn two_blobs() -> PointBlock {
        let mut s = PointBlock::new(2);
        for i in 0..25 {
            let dx = f64::from(i % 5) * 0.1;
            let dy = f64::from(i / 5) * 0.1;
            s.push(&[dx, dy], 1.0);
            s.push(&[10.0 + dx, 10.0 + dy], 1.0);
        }
        s
    }

    #[test]
    fn improves_over_bad_initialization() {
        let points = two_blobs();
        // Deliberately bad start: both centers inside the same blob.
        let init = Centers::from_rows(2, &[vec![0.0, 0.0], vec![0.4, 0.4]]).unwrap();
        let init_cost = kmeans_cost_block(&points, &init).unwrap();
        let out = lloyd_block(&points, &init, LloydConfig::default()).unwrap();
        assert!(out.cost <= init_cost);
        assert_eq!(out.centers.len(), 2);
    }

    #[test]
    fn cost_matches_reported_cost() {
        let points = two_blobs();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let init = kmeanspp_block(&points, 2, &mut rng).unwrap();
        let out = lloyd_block(&points, &init, LloydConfig::default()).unwrap();
        let recomputed = kmeans_cost_block(&points, &out.centers).unwrap();
        assert!((recomputed - out.cost).abs() <= 1e-9 * (1.0 + recomputed));
    }

    #[test]
    fn converges_on_separated_blobs() {
        let points = two_blobs();
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let init = kmeanspp_block(&points, 2, &mut rng).unwrap();
        let out = lloyd_block(&points, &init, LloydConfig::default()).unwrap();
        // Optimal centers are the blob centroids at (0.2, 0.2)±, giving a
        // tiny within-blob cost. 25 points per blob, spread 0.4 x 0.4.
        assert!(out.cost < 10.0, "cost {}", out.cost);
        assert!(out.converged || out.iterations == LloydConfig::default().max_iterations);
    }

    #[test]
    fn single_iteration_cap_respected() {
        let points = two_blobs();
        let init = Centers::from_rows(2, &[vec![0.0, 0.0], vec![1.0, 1.0]]).unwrap();
        let out = lloyd_block(
            &points,
            &init,
            LloydConfig {
                max_iterations: 1,
                tolerance: 0.0,
            },
        )
        .unwrap();
        assert_eq!(out.iterations, 1);
    }

    #[test]
    fn handles_weighted_points() {
        // Heavy point should pull its center strongly.
        let mut points = PointBlock::new(1);
        points.push(&[0.0], 1.0);
        points.push(&[1.0], 1.0);
        points.push(&[10.0], 100.0);
        let init = Centers::from_rows(1, &[vec![0.5], vec![9.0]]).unwrap();
        let out = lloyd_block(&points, &init, LloydConfig::default()).unwrap();
        let rows = out.centers.to_rows();
        let has_heavy_center = rows.iter().any(|c| (c[0] - 10.0).abs() < 1e-9);
        assert!(has_heavy_center, "centers {rows:?}");
    }

    #[test]
    fn empty_inputs_are_errors() {
        let points = two_blobs();
        let empty_centers = Centers::new(2);
        assert!(lloyd_block(&points, &empty_centers, LloydConfig::default()).is_err());
        let empty_points = PointBlock::new(2);
        let init = Centers::from_rows(2, &[vec![0.0, 0.0]]).unwrap();
        assert!(lloyd_block(&empty_points, &init, LloydConfig::default()).is_err());
    }

    #[test]
    fn empty_cluster_is_reseeded() {
        // Second center starts so far away that no point is assigned to it;
        // after one update it must land on some input point.
        let points = two_blobs();
        let init = Centers::from_rows(2, &[vec![5.0, 5.0], vec![1e9, 1e9]]).unwrap();
        let out = lloyd_block(&points, &init, LloydConfig::default()).unwrap();
        assert_eq!(out.centers.len(), 2);
        // Both centers must be within the data bounding box after reseeding.
        for c in out.centers.iter() {
            assert!(c[0] <= 11.0 && c[0] >= -1.0, "center escaped: {c:?}");
        }
    }
}
