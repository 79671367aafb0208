//! The k-means objective `φ_Ψ(P)` and cluster assignments.
//!
//! Problem 1 of the paper: given a weighted point set `P` and a candidate
//! center set `Ψ`, the clustering cost is
//! `φ_Ψ(P) = Σ_{x∈P} w(x) · D²(x, Ψ)` — the within-cluster sum of squares
//! (SSQ) used as the accuracy metric throughout the evaluation.
//!
//! Both entry points run one fused inner loop over a [`PointBlock`],
//! reusing the squared norms it caches.

use crate::block::PointBlock;
use crate::centers::Centers;
use crate::distance::{nearest_block_row, squared_norms};
use crate::error::{ClusteringError, Result};

fn check_shapes(points_dim: usize, centers: &Centers) -> Result<()> {
    if centers.is_empty() {
        return Err(ClusteringError::EmptyInput);
    }
    if points_dim != centers.dim() {
        return Err(ClusteringError::DimensionMismatch {
            expected: points_dim,
            got: centers.dim(),
        });
    }
    Ok(())
}

/// Weighted k-means cost `φ_Ψ(P)` of `block` with respect to `centers`.
///
/// Returns `0.0` for an empty block (an empty sum), and an error when the
/// center set is empty or dimensions do not match.
///
/// # Errors
/// Returns [`ClusteringError::EmptyInput`] when `centers` is empty and
/// `block` is not, or a dimension mismatch error.
pub fn kmeans_cost_block(block: &PointBlock, centers: &Centers) -> Result<f64> {
    if block.is_empty() {
        return Ok(0.0);
    }
    check_shapes(block.dim(), centers)?;
    Ok(kmeans_cost_view(block, centers))
}

/// Fused-kernel core of [`kmeans_cost_block`]. The caller has validated
/// shapes.
pub(crate) fn kmeans_cost_view(block: &PointBlock, centers: &Centers) -> f64 {
    let center_norms = squared_norms(centers.coords(), centers.dim());
    let mut cost = 0.0;
    for (p, w, n) in block.iter() {
        let (_, d2) = nearest_block_row(p, n, centers.coords(), &center_norms, centers.dim())
            .expect("non-empty centers");
        cost += w * d2;
    }
    cost
}

/// Assignment of each point to its nearest center.
#[derive(Debug, Clone, PartialEq)]
pub struct Assignment {
    /// `labels[i]` is the index of the nearest center for point `i`.
    pub labels: Vec<usize>,
    /// Total weighted cost of the assignment (equals [`kmeans_cost_block`]).
    pub cost: f64,
    /// Total weight assigned to each center.
    pub cluster_weights: Vec<f64>,
}

/// Assigns every point of `block` to its nearest center in `centers`.
///
/// # Errors
/// Same failure modes as [`kmeans_cost_block`].
pub fn assign_block(block: &PointBlock, centers: &Centers) -> Result<Assignment> {
    check_shapes(block.dim(), centers)?;
    Ok(assign_view(block, centers))
}

/// Fused-kernel core of [`assign_block`]. The caller has validated shapes.
pub(crate) fn assign_view(block: &PointBlock, centers: &Centers) -> Assignment {
    let center_norms = squared_norms(centers.coords(), centers.dim());
    let mut labels = Vec::with_capacity(block.len());
    let mut cluster_weights = vec![0.0; centers.len()];
    let mut cost = 0.0;
    for (p, w, n) in block.iter() {
        let (idx, d2) = nearest_block_row(p, n, centers.coords(), &center_norms, centers.dim())
            .expect("non-empty centers");
        labels.push(idx);
        cluster_weights[idx] += w;
        cost += w * d2;
    }
    Assignment {
        labels,
        cost,
        cluster_weights,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn square_points() -> PointBlock {
        // Four unit-weight points at the corners of a 2x2 square.
        let mut s = PointBlock::new(2);
        s.push(&[0.0, 0.0], 1.0);
        s.push(&[2.0, 0.0], 1.0);
        s.push(&[0.0, 2.0], 1.0);
        s.push(&[2.0, 2.0], 1.0);
        s
    }

    #[test]
    fn cost_against_centroid() {
        let points = square_points();
        let centers = Centers::from_rows(2, &[vec![1.0, 1.0]]).unwrap();
        // Every point is at squared distance 2 from the centroid.
        let cost = kmeans_cost_block(&points, &centers).unwrap();
        assert!((cost - 8.0).abs() < 1e-12);
    }

    #[test]
    fn cost_respects_weights() {
        let mut points = PointBlock::new(1);
        points.push(&[0.0], 3.0);
        points.push(&[4.0], 1.0);
        let centers = Centers::from_rows(1, &[vec![0.0]]).unwrap();
        let cost = kmeans_cost_block(&points, &centers).unwrap();
        assert!((cost - 16.0).abs() < 1e-12);
    }

    #[test]
    fn zero_cost_when_centers_cover_points() {
        let points = square_points();
        let centers = Centers::from_rows(
            2,
            &[
                vec![0.0, 0.0],
                vec![2.0, 0.0],
                vec![0.0, 2.0],
                vec![2.0, 2.0],
            ],
        )
        .unwrap();
        assert_eq!(kmeans_cost_block(&points, &centers).unwrap(), 0.0);
    }

    #[test]
    fn empty_centers_is_error() {
        let points = square_points();
        let centers = Centers::new(2);
        assert!(kmeans_cost_block(&points, &centers).is_err());
        assert!(assign_block(&points, &centers).is_err());
    }

    #[test]
    fn dim_mismatch_is_error() {
        let points = square_points();
        let centers = Centers::from_rows(3, &[vec![0.0, 0.0, 0.0]]).unwrap();
        assert!(kmeans_cost_block(&points, &centers).is_err());
    }

    #[test]
    fn assignment_labels_and_weights() {
        let points = square_points();
        let centers = Centers::from_rows(2, &[vec![0.0, 0.0], vec![2.0, 2.0]]).unwrap();
        let a = assign_block(&points, &centers).unwrap();
        assert_eq!(a.labels, vec![0, 0, 0, 1]);
        // Ties ([2,0] and [0,2] are equidistant) resolve to the first center.
        assert_eq!(a.cluster_weights, vec![3.0, 1.0]);
        assert!((a.cost - 8.0).abs() < 1e-12);
    }

    #[test]
    fn empty_block_has_zero_cost() {
        let block = PointBlock::new(2);
        let centers = Centers::from_rows(2, &[vec![0.0, 0.0]]).unwrap();
        assert_eq!(kmeans_cost_block(&block, &centers).unwrap(), 0.0);
    }

    #[test]
    fn empty_points_have_zero_cost() {
        let points = PointBlock::new(3);
        let centers = Centers::from_rows(3, &[vec![0.0, 0.0, 0.0], vec![1.0, 2.0, 3.0]]).unwrap();
        let a = assign_block(&points, &centers).unwrap();
        assert!(a.labels.is_empty());
        assert_eq!(a.cost, 0.0);
        assert_eq!(a.cluster_weights, vec![0.0, 0.0]);
    }
}
