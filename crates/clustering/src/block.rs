//! Weighted point blocks with flat storage and cached squared norms.
//!
//! A [`PointBlock`] is one contiguous `Vec<f64>` of `n × d` coordinates, a
//! parallel weight slice, and a cached `‖x‖²` per point. The cached norms
//! are what make the fused distance kernel
//! ([`crate::distance::sq_dist_block`]) pay off — once `‖x‖²` is known,
//! every `‖x − c‖²` collapses to a single dot product, and the norms are
//! computed exactly once per point no matter how many passes k-means++
//! seeding, Lloyd iterations, repeated k-means runs or later merges make
//! over the data.

use crate::distance::{squared_norm, squared_norms};
use crate::error::{ClusteringError, Result};
use serde::{Deserialize, Serialize, Value};

/// A weighted point block in `R^d`: flat row-major coordinates, per-point
/// weights and cached squared norms, all in parallel arrays.
///
/// The paper's Problem 1 (k-means clustering) is defined over a *weighted*
/// point set `P ⊆ R^d` with weight function `w : P → Z+`, and its coresets
/// are weighted point sets too, so this one container holds datasets,
/// bucket buffers, stored coresets and query candidates alike. Weights are
/// real-valued because merged coresets carry fractional weights in some
/// constructions.
///
/// `norms[i] = ‖point i‖²` is an invariant maintained on every push (and
/// rebuilt on deserialization), so fused distance kernels never recompute
/// norms.
#[derive(Debug, Clone, PartialEq)]
pub struct PointBlock {
    dim: usize,
    coords: Vec<f64>,
    weights: Vec<f64>,
    norms: Vec<f64>,
}

impl PointBlock {
    /// Creates an empty block of dimension `dim` without allocating.
    ///
    /// # Panics
    /// Panics if `dim == 0`.
    #[must_use]
    pub fn new(dim: usize) -> Self {
        assert!(dim > 0, "point dimension must be positive");
        Self {
            dim,
            coords: Vec::new(),
            weights: Vec::new(),
            norms: Vec::new(),
        }
    }

    /// Creates an empty block with capacity for `capacity` points.
    #[must_use]
    pub fn with_capacity(dim: usize, capacity: usize) -> Self {
        assert!(dim > 0, "point dimension must be positive");
        Self {
            dim,
            coords: Vec::with_capacity(capacity * dim),
            weights: Vec::with_capacity(capacity),
            norms: Vec::with_capacity(capacity),
        }
    }

    /// Reserves spare capacity for at least `additional` more points, so
    /// subsequent pushes write straight into the reserved tail without
    /// reallocating.
    pub fn reserve(&mut self, additional: usize) {
        self.coords.reserve(additional * self.dim);
        self.weights.reserve(additional);
        self.norms.reserve(additional);
    }

    /// Number of points the block can hold before its coordinate buffer
    /// must grow.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.weights
            .capacity()
            .min(self.coords.capacity() / self.dim)
    }

    /// Dimension `d` of the points.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of points stored.
    #[must_use]
    pub fn len(&self) -> usize {
        self.weights.len()
    }

    /// Returns `true` when the block holds no points.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.weights.is_empty()
    }

    /// Appends a point, computing and caching its squared norm.
    ///
    /// Only the dimension is checked; computed weights go through
    /// [`PointBlock::try_push`].
    ///
    /// # Panics
    /// Panics if the point's dimension differs from the block's dimension.
    #[inline]
    pub fn push(&mut self, point: &[f64], weight: f64) {
        assert_eq!(point.len(), self.dim, "point dimension mismatch");
        self.coords.extend_from_slice(point);
        self.weights.push(weight);
        self.norms.push(squared_norm(point));
    }

    /// Appends a point, reporting shape/weight problems as errors.
    ///
    /// # Errors
    /// Returns an error if the dimension does not match or the weight is
    /// negative / non-finite.
    pub fn try_push(&mut self, point: &[f64], weight: f64) -> Result<()> {
        if point.len() != self.dim {
            return Err(ClusteringError::DimensionMismatch {
                expected: self.dim,
                got: point.len(),
            });
        }
        if !weight.is_finite() || weight < 0.0 {
            return Err(ClusteringError::InvalidWeight { index: self.len() });
        }
        self.push(point, weight);
        Ok(())
    }

    /// Appends every point of `other`, **reusing** its cached norms instead
    /// of recomputing them. This is the multiset union of Observation 1 of
    /// the paper (the union of coresets of disjoint point sets), and how the
    /// norms a bucket buffer computed at update time reach every later
    /// merge and query.
    ///
    /// # Errors
    /// Returns an error if dimensions differ.
    pub fn extend_from_block(&mut self, other: &PointBlock) -> Result<()> {
        if other.dim != self.dim {
            return Err(ClusteringError::DimensionMismatch {
                expected: self.dim,
                got: other.dim,
            });
        }
        self.coords.extend_from_slice(&other.coords);
        self.weights.extend_from_slice(&other.weights);
        self.norms.extend_from_slice(&other.norms);
        Ok(())
    }

    /// Coordinates of point `i`.
    ///
    /// # Panics
    /// Panics if `i` is out of bounds.
    #[must_use]
    #[inline]
    pub fn point(&self, i: usize) -> &[f64] {
        &self.coords[i * self.dim..(i + 1) * self.dim]
    }

    /// Weight of point `i`.
    ///
    /// # Panics
    /// Panics if `i` is out of bounds.
    #[must_use]
    #[inline]
    pub fn weight(&self, i: usize) -> f64 {
        self.weights[i]
    }

    /// Cached squared norm `‖point i‖²`.
    ///
    /// # Panics
    /// Panics if `i` is out of bounds.
    #[must_use]
    #[inline]
    pub fn norm(&self, i: usize) -> f64 {
        self.norms[i]
    }

    /// Raw row-major coordinate storage.
    #[must_use]
    pub fn coords(&self) -> &[f64] {
        &self.coords
    }

    /// Raw weight storage.
    #[must_use]
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Cached squared-norm storage (`norms()[i] = ‖point i‖²`).
    #[must_use]
    pub fn norms(&self) -> &[f64] {
        &self.norms
    }

    /// Iterator over `(coordinates, weight, squared norm)` triples, in
    /// point order.
    pub fn iter(&self) -> impl Iterator<Item = (&[f64], f64, f64)> + '_ {
        self.coords
            .chunks_exact(self.dim)
            .zip(self.weights.iter().copied())
            .zip(self.norms.iter().copied())
            .map(|((p, w), n)| (p, w, n))
    }

    /// Sum of all weights (`Σ w(x)`).
    #[must_use]
    pub fn total_weight(&self) -> f64 {
        self.weights.iter().sum()
    }

    /// Removes all points while keeping the allocations.
    pub fn clear(&mut self) {
        self.coords.clear();
        self.weights.clear();
        self.norms.clear();
    }
}

/// Only `dim`, coordinates and weights are serialized; the norm cache is
/// recomputed on deserialization (it is a pure function of the coordinates,
/// so the rebuilt cache is bit-identical and the invariant cannot be
/// poisoned by a hand-edited snapshot).
impl Serialize for PointBlock {
    fn to_value(&self) -> Value {
        Value::Map(vec![
            ("dim".to_string(), self.dim.to_value()),
            ("coords".to_string(), self.coords.to_value()),
            ("weights".to_string(), self.weights.to_value()),
        ])
    }
}

impl Deserialize for PointBlock {
    fn from_value(value: &Value) -> std::result::Result<Self, serde::Error> {
        let map = match value {
            Value::Map(m) => m,
            _ => return Err(serde::Error::custom("expected map for PointBlock")),
        };
        let dim: usize = Deserialize::from_value(serde::get_field(map, "dim")?)?;
        let coords: Vec<f64> = Deserialize::from_value(serde::get_field(map, "coords")?)?;
        let weights: Vec<f64> = Deserialize::from_value(serde::get_field(map, "weights")?)?;
        if dim == 0 {
            return Err(serde::Error::custom(
                "PointBlock dimension must be positive",
            ));
        }
        if weights.len().checked_mul(dim) != Some(coords.len()) {
            return Err(serde::Error::custom(
                "PointBlock coordinate/weight lengths are inconsistent",
            ));
        }
        // Mirror the push-path validation: the vendored JSON layer decodes
        // `null` as NaN, so a corrupt or hand-edited snapshot could
        // otherwise smuggle in values that poison every cached norm and
        // distance downstream.
        if coords.iter().any(|x| !x.is_finite()) {
            return Err(serde::Error::custom(
                "PointBlock coordinates must be finite",
            ));
        }
        if weights.iter().any(|w| !w.is_finite() || *w < 0.0) {
            return Err(serde::Error::custom(
                "PointBlock weights must be finite and non-negative",
            ));
        }
        let norms = squared_norms(&coords, dim);
        Ok(Self {
            dim,
            coords,
            weights,
            norms,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::squared_distance;

    fn sample_block() -> PointBlock {
        let mut b = PointBlock::new(2);
        b.push(&[3.0, 4.0], 1.0);
        b.push(&[1.0, 0.0], 2.0);
        b.push(&[0.0, 0.0], 0.5);
        b
    }

    #[test]
    fn push_maintains_norm_cache() {
        let b = sample_block();
        assert_eq!(b.len(), 3);
        assert_eq!(b.dim(), 2);
        assert_eq!(b.norms(), &[25.0, 1.0, 0.0]);
        assert_eq!(b.point(0), &[3.0, 4.0]);
        assert_eq!(b.weight(1), 2.0);
        assert_eq!(b.norm(0), 25.0);
        assert!((b.total_weight() - 3.5).abs() < 1e-12);
    }

    #[test]
    fn try_push_validates() {
        let mut b = PointBlock::new(2);
        assert_eq!(
            b.try_push(&[1.0, 2.0, 3.0], 1.0).unwrap_err(),
            ClusteringError::DimensionMismatch {
                expected: 2,
                got: 3
            }
        );
        assert_eq!(
            b.try_push(&[1.0, 2.0], -1.0).unwrap_err(),
            ClusteringError::InvalidWeight { index: 0 }
        );
        assert!(b.try_push(&[1.0, 2.0], f64::NAN).is_err());
        assert!(b.try_push(&[1.0, 2.0], 1.0).is_ok());
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn extend_from_block_copies_cached_norms() {
        let mut b = PointBlock::new(2);
        b.push(&[1.0, 1.0], 1.0);
        let other = sample_block();
        b.extend_from_block(&other).unwrap();
        assert_eq!(b.len(), 4);
        assert!((b.total_weight() - 4.5).abs() < 1e-12);
        assert_eq!(b.norms(), &[2.0, 25.0, 1.0, 0.0]);
        assert_eq!(b.point(1), &[3.0, 4.0]);
        let wrong = PointBlock::new(3);
        assert!(b.extend_from_block(&wrong).is_err());
    }

    #[test]
    fn reserve_creates_spare_capacity() {
        let mut b = PointBlock::new(4);
        b.reserve(100);
        assert!(b.capacity() >= 100);
        let before = b.coords().as_ptr();
        for i in 0..100 {
            b.push(&[f64::from(i), 0.0, 0.0, 1.0], 1.0);
        }
        // Writing into the reserved tail must not move the buffer.
        assert_eq!(b.coords().as_ptr(), before);
    }

    #[test]
    fn clear_keeps_dim_and_allocation() {
        let mut b = sample_block();
        b.reserve(10);
        let cap = b.capacity();
        b.clear();
        assert!(b.is_empty());
        assert_eq!(b.dim(), 2);
        assert_eq!(b.capacity(), cap);
    }

    #[test]
    fn iter_yields_consistent_triples() {
        let b = sample_block();
        assert_eq!(b.iter().count(), 3);
        for (i, (p, w, n)) in b.iter().enumerate() {
            assert_eq!(p, b.point(i));
            assert_eq!(w, b.weight(i));
            assert!((n - squared_distance(p, &[0.0, 0.0])).abs() < 1e-12);
            assert_eq!(n, b.norm(i));
        }
    }

    #[test]
    fn serde_round_trip_rebuilds_norms() {
        let b = sample_block();
        let json = serde_json::to_string(&b).unwrap();
        let back: PointBlock = serde_json::from_str(&json).unwrap();
        assert_eq!(back, b);
        assert_eq!(back.norms(), &[25.0, 1.0, 0.0]);
    }

    #[test]
    fn serde_rejects_inconsistent_shapes() {
        use serde::{Deserialize as _, Value};
        let bad = Value::Map(vec![
            ("dim".to_string(), Value::UInt(2)),
            (
                "coords".to_string(),
                Value::Seq(vec![
                    Value::Float(1.0),
                    Value::Float(2.0),
                    Value::Float(3.0),
                ]),
            ),
            ("weights".to_string(), Value::Seq(vec![Value::Float(1.0)])),
        ]);
        assert!(PointBlock::from_value(&bad).is_err());
        assert!(PointBlock::from_value(&Value::Null).is_err());
        // Two weights times 2^63 wraps to zero coordinates: an overflowing
        // shape must be refused, not taken for an empty block.
        let wrapping = r#"{"dim":9223372036854775808,"coords":[],"weights":[1,1]}"#;
        assert!(serde_json::from_str::<PointBlock>(wrapping).is_err());
    }

    #[test]
    fn serde_rejects_non_finite_coordinates_and_bad_weights() {
        // JSON `null` decodes to NaN in the vendored serde; neither a NaN
        // coordinate nor a NaN/negative weight may survive a restore.
        for bad in [
            r#"{"dim":2,"coords":[null,1],"weights":[1]}"#,
            r#"{"dim":2,"coords":[1,1],"weights":[null]}"#,
            r#"{"dim":2,"coords":[1,1],"weights":[-1]}"#,
        ] {
            assert!(
                serde_json::from_str::<PointBlock>(bad).is_err(),
                "accepted: {bad}"
            );
        }
        let good: PointBlock =
            serde_json::from_str(r#"{"dim":2,"coords":[1,2],"weights":[0.5]}"#).unwrap();
        assert_eq!(good.len(), 1);
    }
}
