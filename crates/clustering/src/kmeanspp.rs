//! Weighted k-means++ seeding (Arthur & Vassilvitskii, SODA 2007).
//!
//! Theorem 1 of the paper: on an input of `n` points, k-means++ returns `k`
//! centers `Ψ` with `E[φ_Ψ(P)] ≤ 8(ln k + 2)·φ_OPT(P)` in time `O(kdn)`.
//!
//! The streaming algorithms use k-means++ in two places:
//! * to derive coresets from buckets of points (Section 5.2), and
//! * to extract the final `k` centers from the merged coreset at query time.
//!
//! Both call sites operate on *weighted* points, so the implementation keeps
//! the D² distribution weighted: the probability of selecting point `x` as
//! the next center is proportional to `w(x) · D²(x, Ψ_so_far)`.

use crate::block::{BlockView, PointBlock};
use crate::centers::Centers;
use crate::cost::Assignment;
use crate::distance::{dot, nearest_score, sq_dist_from_dot, Nearest, Track};
use crate::error::{ClusteringError, Result};
use crate::point::PointSet;
use crate::sampling::{uniform_index, weighted_index};
use rand::Rng;

/// Runs weighted k-means++ seeding, returning `min(k, points.len())`
/// centers.
///
/// The seeding follows the classic algorithm:
/// 1. Pick the first center with probability proportional to `w(x)`.
/// 2. Repeatedly pick the next center with probability proportional to
///    `w(x) · D²(x, chosen)`, where `D²` is the squared distance to the
///    closest already-chosen center.
///
/// If at some step every remaining point has zero D² mass (for example, all
/// points are duplicates of chosen centers), the remaining centers are drawn
/// uniformly at random from the input, which matches the behaviour of
/// widely-used implementations.
///
/// Each returned center carries the weight of the input point it was copied
/// from (callers that need assignment mass should run [`crate::cost::assign`],
/// or seed with [`kmeanspp_assign_block`]).
///
/// This is a thin adapter over the fused kernel path: it computes a
/// squared-norm cache once and delegates to the same core as
/// [`kmeanspp_block`].
///
/// # Errors
/// * [`ClusteringError::EmptyInput`] if `points` is empty.
/// * [`ClusteringError::InvalidK`] if `k == 0`.
pub fn kmeanspp<R: Rng + ?Sized>(points: &PointSet, k: usize, rng: &mut R) -> Result<Centers> {
    let norms = crate::distance::squared_norms(points.coords(), points.dim());
    let (centers, _) = kmeanspp_view::<_, ()>(BlockView::over(points, &norms), k, rng)?;
    Ok(centers)
}

/// [`kmeanspp`] over a [`PointBlock`], reusing its cached squared norms so
/// no per-call norm pass is needed.
///
/// # Errors
/// Same failure modes as [`kmeanspp`].
pub fn kmeanspp_block<R: Rng + ?Sized>(
    block: &PointBlock,
    k: usize,
    rng: &mut R,
) -> Result<Centers> {
    let (centers, _) = kmeanspp_view::<_, ()>(block.view(), k, rng)?;
    Ok(centers)
}

/// [`kmeanspp_block`] and then [`crate::cost::assign_block`] on the seeded
/// centers, in one pass over the data: bit for bit the same centers,
/// assignment and RNG position as the two calls.
///
/// Each seeding round derives both the D² update and the assignment score
/// `‖c‖² − 2·x·c` from one dot product per point. The score is compared as
/// [`crate::distance::nearest_block_row`] compares it (strict `<` in center
/// order, so ties go to the first center), and cluster weights and cost sum
/// in point order, as `assign_block` sums them.
///
/// # Errors
/// Same failure modes as [`kmeanspp`].
pub fn kmeanspp_assign_block<R: Rng + ?Sized>(
    block: &PointBlock,
    k: usize,
    rng: &mut R,
) -> Result<(Centers, Assignment)> {
    let view = block.view();
    let (centers, nearest) = kmeanspp_view::<_, Nearest>(view, k, rng)?;
    let mut labels = Vec::with_capacity(nearest.len());
    let mut cluster_weights = vec![0.0; centers.len()];
    let mut cost = 0.0;
    for ((_, w, x_norm), near) in view.iter().zip(&nearest) {
        // Always `Some`: `Nearest` only ever holds an offered center index.
        if let Some(mass) = cluster_weights.get_mut(near.label) {
            *mass += w;
        }
        labels.push(near.label);
        cost += w * near.sq_dist(x_norm);
    }
    let assignment = Assignment {
        labels,
        cost,
        cluster_weights,
    };
    Ok((centers, assignment))
}

/// Fused-kernel core of k-means++ seeding: the centers, and each point's
/// tracker after every center was offered to it.
///
/// Every D² evaluation uses `‖x‖² − 2·x·c + ‖c‖²` with the point norm read
/// from the view's cache and the center norm read from the cache of the
/// point it was copied from, so each round costs one dot product per point,
/// which the tracker reuses.
///
/// # Errors
/// [`ClusteringError::InvalidK`] if `k == 0`, then
/// [`ClusteringError::EmptyInput`] if the view is empty.
pub(crate) fn kmeanspp_view<R: Rng + ?Sized, T: Track>(
    view: BlockView<'_>,
    k: usize,
    rng: &mut R,
) -> Result<(Centers, Vec<T>)> {
    if k == 0 {
        return Err(ClusteringError::InvalidK { k });
    }
    if view.is_empty() {
        return Err(ClusteringError::EmptyInput);
    }
    let n = view.len();
    let k_eff = k.min(n);
    let mut centers = Centers::with_capacity(view.dim(), k_eff);
    // dist2[i] = w(i) * D²(point i, chosen centers); updated incrementally as
    // centers are added so seeding stays O(k d n).
    let mut dist2 = Vec::with_capacity(n);
    let mut tracks = vec![T::default(); n];

    // First center: sample proportionally to weight (uniform if all weights
    // are zero).
    let mut chosen = weighted_index(view.weights(), rng).or_else(|| uniform_index(n, rng));
    while let Some(i) = chosen {
        let j = centers.len();
        let c_norm = view.norm(i);
        centers.push(view.point(i), view.weight(i));
        let center = centers.center(j);
        let round = view.iter().zip(&mut tracks).map(|((p, w, x_norm), track)| {
            let x_dot_c = dot(p, center);
            track.offer(j, nearest_score(c_norm, x_dot_c));
            w * sq_dist_from_dot(x_norm, x_dot_c, c_norm)
        });
        // The first center sets dist2; later ones can only lower it.
        if j == 0 {
            dist2.extend(round);
        } else {
            for (d, d2) in round.zip(&mut dist2) {
                if d < *d2 {
                    *d2 = d;
                }
            }
        }
        chosen = if centers.len() < k_eff {
            // When all remaining mass is zero, every point coincides with an
            // existing center. Fall back to uniform sampling so we still
            // return k centers (duplicates are acceptable, cost is 0).
            weighted_index(&dist2, rng).or_else(|| uniform_index(n, rng))
        } else {
            None
        };
    }
    Ok((centers, tracks))
}

/// Runs k-means++ seeding `runs` times and returns the seeding with the
/// lowest k-means cost. Used by the evaluation harness which takes the best
/// of five independent runs (Section 5.2).
///
/// # Errors
/// Same failure modes as [`kmeanspp`]; additionally `runs` must be ≥ 1.
pub fn kmeanspp_best_of<R: Rng + ?Sized>(
    points: &PointSet,
    k: usize,
    runs: usize,
    rng: &mut R,
) -> Result<Centers> {
    let mut best: Option<(f64, Centers)> = None;
    for _ in 0..runs {
        let centers = kmeanspp(points, k, rng)?;
        let cost = crate::cost::kmeans_cost(points, &centers)?;
        match &best {
            Some((best_cost, _)) if *best_cost <= cost => {}
            _ => best = Some((cost, centers)),
        }
    }
    best.map(|(_, centers)| centers)
        .ok_or_else(|| ClusteringError::InvalidParameter {
            name: "runs",
            message: "must be at least 1".to_string(),
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::kmeans_cost;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    /// Three well-separated clusters on a line.
    fn three_clusters() -> PointSet {
        let mut s = PointSet::new(1);
        for i in 0..20 {
            s.push(&[f64::from(i) * 0.01], 1.0);
            s.push(&[100.0 + f64::from(i) * 0.01], 1.0);
            s.push(&[200.0 + f64::from(i) * 0.01], 1.0);
        }
        s
    }

    #[test]
    fn returns_k_centers() {
        let points = three_clusters();
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let centers = kmeanspp(&points, 3, &mut rng).unwrap();
        assert_eq!(centers.len(), 3);
        assert_eq!(centers.dim(), 1);
    }

    #[test]
    fn caps_k_at_number_of_points() {
        let mut points = PointSet::new(2);
        points.push(&[0.0, 0.0], 1.0);
        points.push(&[1.0, 1.0], 1.0);
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let centers = kmeanspp(&points, 10, &mut rng).unwrap();
        assert_eq!(centers.len(), 2);
    }

    #[test]
    fn rejects_k_zero_and_empty_input() {
        let points = three_clusters();
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        assert_eq!(
            kmeanspp(&points, 0, &mut rng).unwrap_err(),
            ClusteringError::InvalidK { k: 0 }
        );
        let empty = PointSet::new(1);
        assert_eq!(
            kmeanspp(&empty, 3, &mut rng).unwrap_err(),
            ClusteringError::EmptyInput
        );
    }

    #[test]
    fn finds_separated_clusters() {
        // With 3 well-separated clusters, D² sampling should essentially
        // always put one center in each cluster, giving near-zero cost
        // relative to a single-center solution.
        let points = three_clusters();
        let mut rng = ChaCha8Rng::seed_from_u64(123);
        let centers = kmeanspp(&points, 3, &mut rng).unwrap();
        let cost3 = kmeans_cost(&points, &centers).unwrap();
        let single = kmeanspp(&points, 1, &mut rng).unwrap();
        let cost1 = kmeans_cost(&points, &single).unwrap();
        assert!(cost3 * 100.0 < cost1, "cost3 = {cost3}, cost1 = {cost1}");
    }

    #[test]
    fn handles_duplicate_points() {
        let mut points = PointSet::new(2);
        for _ in 0..10 {
            points.push(&[1.0, 1.0], 1.0);
        }
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let centers = kmeanspp(&points, 4, &mut rng).unwrap();
        assert_eq!(centers.len(), 4);
        let cost = kmeans_cost(&points, &centers).unwrap();
        assert_eq!(cost, 0.0);
    }

    #[test]
    fn respects_weights() {
        // One heavy point far away: with k=2 the heavy point should get its
        // own center essentially always.
        let mut points = PointSet::new(1);
        for i in 0..50 {
            points.push(&[f64::from(i) * 0.001], 1.0);
        }
        points.push(&[1000.0], 1000.0);
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let centers = kmeanspp(&points, 2, &mut rng).unwrap();
        let has_far_center = centers.iter().any(|c| (c[0] - 1000.0).abs() < 1.0);
        assert!(has_far_center);
    }

    #[test]
    fn best_of_is_no_worse_than_single_run_in_expectation() {
        let points = three_clusters();
        let mut rng = ChaCha8Rng::seed_from_u64(77);
        let best = kmeanspp_best_of(&points, 3, 5, &mut rng).unwrap();
        let best_cost = kmeans_cost(&points, &best).unwrap();
        // The best of 5 runs should at least find the separated clusters.
        assert!(best_cost < 1.0, "best cost {best_cost}");
    }

    #[test]
    fn best_of_zero_runs_is_error() {
        let points = three_clusters();
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        assert!(kmeanspp_best_of(&points, 3, 0, &mut rng).is_err());
    }

    #[test]
    fn deterministic_given_seed() {
        let points = three_clusters();
        let a = kmeanspp(&points, 3, &mut ChaCha8Rng::seed_from_u64(9)).unwrap();
        let b = kmeanspp(&points, 3, &mut ChaCha8Rng::seed_from_u64(9)).unwrap();
        assert_eq!(a.to_rows(), b.to_rows());
    }

    #[test]
    fn block_path_matches_point_set_path_exactly() {
        // Both adapters feed the same fused core with identical norms, so
        // given the same seed they must draw identical centers.
        let points = three_clusters();
        let block = crate::block::PointBlock::from_point_set(&points);
        let a = kmeanspp(&points, 4, &mut ChaCha8Rng::seed_from_u64(21)).unwrap();
        let b = kmeanspp_block(&block, 4, &mut ChaCha8Rng::seed_from_u64(21)).unwrap();
        assert_eq!(a.to_rows(), b.to_rows());
    }

    #[test]
    fn block_path_rejects_invalid_inputs() {
        let block = crate::block::PointBlock::new(2);
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        assert!(kmeanspp_block(&block, 3, &mut rng).is_err());
        let filled = crate::block::PointBlock::from_point_set(&three_clusters());
        assert!(kmeanspp_block(&filled, 0, &mut rng).is_err());
    }
}
