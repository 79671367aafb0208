//! Cluster center sets.
//!
//! A [`Centers`] value is the answer to a clustering query: the set `Ψ` of
//! `k` points that the k-means objective `φ_Ψ(P)` is evaluated against.

use crate::error::{ClusteringError, Result};
use serde::{Deserialize, Serialize};

/// A set of cluster centers in `R^d` with flat row-major storage.
///
/// Unlike a [`crate::PointBlock`], centers keep no norm cache (they move
/// every Lloyd iteration), and each per-center weight is the total weight
/// of the points assigned to the center. The sequential k-means algorithm
/// (MacQueen) needs those weights to compute running centroids; batch
/// algorithms may ignore them.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Centers {
    dim: usize,
    data: Vec<f64>,
    weights: Vec<f64>,
}

impl Centers {
    /// Creates an empty center set of dimension `dim`.
    ///
    /// # Panics
    /// Panics if `dim == 0`.
    #[must_use]
    pub fn new(dim: usize) -> Self {
        assert!(dim > 0, "center dimension must be positive");
        Self {
            dim,
            data: Vec::new(),
            weights: Vec::new(),
        }
    }

    /// Creates an empty center set with capacity for `k` centers.
    #[must_use]
    pub fn with_capacity(dim: usize, k: usize) -> Self {
        assert!(dim > 0, "center dimension must be positive");
        Self {
            dim,
            data: Vec::with_capacity(dim * k),
            weights: Vec::with_capacity(k),
        }
    }

    /// Builds a center set from explicit rows (unit weights).
    ///
    /// # Errors
    /// Returns an error if any row has the wrong dimension.
    pub fn from_rows(dim: usize, rows: &[Vec<f64>]) -> Result<Self> {
        let mut c = Self::with_capacity(dim, rows.len());
        for r in rows {
            c.try_push(r, 1.0)?;
        }
        Ok(c)
    }

    /// Dimension of the centers.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of centers.
    #[must_use]
    pub fn len(&self) -> usize {
        self.weights.len()
    }

    /// Returns `true` when there are no centers.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.weights.is_empty()
    }

    /// Appends a center.
    ///
    /// # Panics
    /// Panics if the dimension does not match.
    pub fn push(&mut self, center: &[f64], weight: f64) {
        self.try_push(center, weight)
            .expect("center dimension invalid");
    }

    /// Appends a center, reporting a dimension mismatch as an error.
    ///
    /// # Errors
    /// Returns [`ClusteringError::DimensionMismatch`] on shape mismatch.
    pub fn try_push(&mut self, center: &[f64], weight: f64) -> Result<()> {
        if center.len() != self.dim {
            return Err(ClusteringError::DimensionMismatch {
                expected: self.dim,
                got: center.len(),
            });
        }
        self.data.extend_from_slice(center);
        self.weights.push(weight);
        Ok(())
    }

    /// Coordinates of center `i`.
    ///
    /// # Panics
    /// Panics if `i` is out of bounds.
    #[must_use]
    #[inline]
    pub fn center(&self, i: usize) -> &[f64] {
        &self.data[i * self.dim..(i + 1) * self.dim]
    }

    /// Mutable coordinates of center `i`.
    ///
    /// # Panics
    /// Panics if `i` is out of bounds.
    #[inline]
    pub fn center_mut(&mut self, i: usize) -> &mut [f64] {
        &mut self.data[i * self.dim..(i + 1) * self.dim]
    }

    /// Weight (assigned mass) of center `i`.
    ///
    /// # Panics
    /// Panics if `i` is out of bounds.
    #[must_use]
    #[inline]
    pub fn weight(&self, i: usize) -> f64 {
        self.weights[i]
    }

    /// Mutable weight of center `i`.
    ///
    /// # Panics
    /// Panics if `i` is out of bounds.
    #[inline]
    pub fn weight_mut(&mut self, i: usize) -> &mut f64 {
        &mut self.weights[i]
    }

    /// Iterator over center coordinate slices.
    pub fn iter(&self) -> impl Iterator<Item = &[f64]> + '_ {
        self.data.chunks_exact(self.dim)
    }

    /// Raw row-major coordinate storage.
    #[must_use]
    pub fn coords(&self) -> &[f64] {
        &self.data
    }

    /// Converts the centers to a vector of owned rows (handy in examples and
    /// tests, not used on hot paths).
    #[must_use]
    pub fn to_rows(&self) -> Vec<Vec<f64>> {
        self.iter().map(<[f64]>::to_vec).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_access() {
        let mut c = Centers::new(3);
        c.push(&[1.0, 2.0, 3.0], 5.0);
        c.push(&[4.0, 5.0, 6.0], 1.0);
        assert_eq!(c.len(), 2);
        assert_eq!(c.center(1), &[4.0, 5.0, 6.0]);
        assert_eq!(c.weight(0), 5.0);
    }

    #[test]
    fn from_rows_round_trips() {
        let rows = vec![vec![0.0, 1.0], vec![2.0, 3.0]];
        let c = Centers::from_rows(2, &rows).unwrap();
        assert_eq!(c.to_rows(), rows);
    }

    #[test]
    fn from_rows_rejects_bad_dim() {
        assert!(Centers::from_rows(2, &[vec![1.0, 2.0, 3.0]]).is_err());
    }

    #[test]
    fn center_mut_updates_in_place() {
        let mut c = Centers::from_rows(2, &[vec![0.0, 0.0]]).unwrap();
        c.center_mut(0)[1] = 9.0;
        assert_eq!(c.center(0), &[0.0, 9.0]);
    }

    #[test]
    fn weight_mut_updates_in_place() {
        let mut c = Centers::from_rows(2, &[vec![0.0, 0.0]]).unwrap();
        *c.weight_mut(0) += 3.0;
        assert_eq!(c.weight(0), 4.0);
    }

    #[test]
    fn iter_yields_all_centers() {
        let c = Centers::from_rows(1, &[vec![1.0], vec![2.0], vec![3.0]]).unwrap();
        let collected: Vec<f64> = c.iter().map(|r| r[0]).collect();
        assert_eq!(collected, vec![1.0, 2.0, 3.0]);
    }
}
