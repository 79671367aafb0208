//! Stream preprocessing transforms.
//!
//! The UCI datasets mix attributes with wildly different scales (Covtype:
//! elevation in thousands next to binary soil indicators; Intrusion: byte
//! counts next to rates in `[0, 1]`). The paper streams the raw attributes,
//! and so do our stand-ins — but a practical deployment usually normalizes
//! features first, and the examples let users opt in. Two transforms are
//! provided:
//!
//! * [`ZScoreNormalizer`] — subtract the mean and divide by the standard
//!   deviation of each attribute, fitted on a prefix/sample of the stream.
//! * [`MinMaxScaler`] — map each attribute into `[0, 1]` using bounds
//!   fitted on a prefix/sample.
//!
//! Both are *fitted offline* on a sample and then applied point-by-point,
//! which is the standard streaming practice (fitting them online would leak
//! future information into earlier points).

use crate::dataset::Dataset;
use skm_clustering::error::{ClusteringError, Result};
use skm_clustering::PointBlock;

/// Per-attribute z-score normalization: `x ↦ (x − μ) / σ`.
#[derive(Debug, Clone, PartialEq)]
pub struct ZScoreNormalizer {
    means: Vec<f64>,
    std_devs: Vec<f64>,
}

impl ZScoreNormalizer {
    /// Fits means and standard deviations on the given (weighted) sample.
    ///
    /// Attributes with zero variance get σ = 1 so they pass through shifted
    /// but unscaled.
    ///
    /// # Errors
    /// Returns [`ClusteringError::EmptyInput`] when the sample is empty.
    pub fn fit(sample: &PointBlock) -> Result<Self> {
        if sample.is_empty() {
            return Err(ClusteringError::EmptyInput);
        }
        let dim = sample.dim();
        let total = sample.total_weight();
        if total <= 0.0 {
            return Err(ClusteringError::EmptyInput);
        }
        let mut means = vec![0.0; dim];
        for (p, w, _) in sample.iter() {
            for (m, x) in means.iter_mut().zip(p) {
                *m += w * x;
            }
        }
        for m in &mut means {
            *m /= total;
        }
        let mut vars = vec![0.0; dim];
        for (p, w, _) in sample.iter() {
            for ((v, x), m) in vars.iter_mut().zip(p).zip(&means) {
                *v += w * (x - m) * (x - m);
            }
        }
        let std_devs = vars
            .into_iter()
            .map(|v| {
                let s = (v / total).sqrt();
                if s > 1e-12 {
                    s
                } else {
                    1.0
                }
            })
            .collect();
        Ok(Self { means, std_devs })
    }

    /// Dimensionality the normalizer was fitted for.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.means.len()
    }

    /// Transforms one point in place.
    ///
    /// # Errors
    /// Returns a dimension mismatch error when the point has the wrong size.
    pub fn transform_in_place(&self, point: &mut [f64]) -> Result<()> {
        if point.len() != self.means.len() {
            return Err(ClusteringError::DimensionMismatch {
                expected: self.means.len(),
                got: point.len(),
            });
        }
        for ((x, m), s) in point.iter_mut().zip(&self.means).zip(&self.std_devs) {
            *x = (*x - m) / s;
        }
        Ok(())
    }

    /// Transforms a whole dataset, returning a new one.
    ///
    /// # Errors
    /// Returns a dimension mismatch error when the dataset has the wrong
    /// dimensionality.
    pub fn transform_dataset(&self, dataset: &Dataset) -> Result<Dataset> {
        let mut out = PointBlock::with_capacity(dataset.dim(), dataset.len());
        let mut buf = vec![0.0; dataset.dim()];
        for (p, w, _) in dataset.points().iter() {
            buf.copy_from_slice(p);
            self.transform_in_place(&mut buf)?;
            out.push(&buf, w);
        }
        Ok(Dataset::new(format!("{}-zscore", dataset.name()), out))
    }
}

/// Per-attribute min–max scaling into `[0, 1]`.
#[derive(Debug, Clone, PartialEq)]
pub struct MinMaxScaler {
    mins: Vec<f64>,
    ranges: Vec<f64>,
}

impl MinMaxScaler {
    /// Fits per-attribute bounds on the given sample. Constant attributes
    /// get range 1 so they map to 0.
    ///
    /// # Errors
    /// Returns [`ClusteringError::EmptyInput`] when the sample is empty.
    pub fn fit(sample: &PointBlock) -> Result<Self> {
        let (mins, maxs) = bounding_box(sample).ok_or(ClusteringError::EmptyInput)?;
        let ranges = mins
            .iter()
            .zip(&maxs)
            .map(|(lo, hi)| {
                let r = hi - lo;
                if r > 1e-12 {
                    r
                } else {
                    1.0
                }
            })
            .collect();
        Ok(Self { mins, ranges })
    }

    /// Dimensionality the scaler was fitted for.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.mins.len()
    }

    /// Transforms one point in place. Values outside the fitted bounds are
    /// clamped into `[0, 1]`.
    ///
    /// # Errors
    /// Returns a dimension mismatch error when the point has the wrong size.
    pub fn transform_in_place(&self, point: &mut [f64]) -> Result<()> {
        if point.len() != self.mins.len() {
            return Err(ClusteringError::DimensionMismatch {
                expected: self.mins.len(),
                got: point.len(),
            });
        }
        for ((x, lo), r) in point.iter_mut().zip(&self.mins).zip(&self.ranges) {
            *x = ((*x - lo) / r).clamp(0.0, 1.0);
        }
        Ok(())
    }

    /// Transforms a whole dataset, returning a new one.
    ///
    /// # Errors
    /// Returns a dimension mismatch error when the dataset has the wrong
    /// dimensionality.
    pub fn transform_dataset(&self, dataset: &Dataset) -> Result<Dataset> {
        let mut out = PointBlock::with_capacity(dataset.dim(), dataset.len());
        let mut buf = vec![0.0; dataset.dim()];
        for (p, w, _) in dataset.points().iter() {
            buf.copy_from_slice(p);
            self.transform_in_place(&mut buf)?;
            out.push(&buf, w);
        }
        Ok(Dataset::new(format!("{}-minmax", dataset.name()), out))
    }
}

/// Axis-aligned bounding box `(min, max)` of the points, ignoring weights.
/// Returns `None` for an empty block.
fn bounding_box(points: &PointBlock) -> Option<(Vec<f64>, Vec<f64>)> {
    if points.is_empty() {
        return None;
    }
    let mut lo = points.point(0).to_vec();
    let mut hi = lo.clone();
    for (p, _, _) in points.iter().skip(1) {
        for ((l, h), &x) in lo.iter_mut().zip(&mut hi).zip(p) {
            if x < *l {
                *l = x;
            }
            if x > *h {
                *h = x;
            }
        }
    }
    Some((lo, hi))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> PointBlock {
        let mut s = PointBlock::new(2);
        s.push(&[0.0, 100.0], 1.0);
        s.push(&[2.0, 200.0], 1.0);
        s.push(&[4.0, 300.0], 1.0);
        s
    }

    #[test]
    fn bounding_box_covers_all_points() {
        let mut s = PointBlock::new(2);
        s.push(&[0.0, 0.0], 1.0);
        s.push(&[2.0, 0.0], 1.0);
        s.push(&[0.0, 2.0], 2.0);
        let (lo, hi) = bounding_box(&s).unwrap();
        assert_eq!(lo, vec![0.0, 0.0]);
        assert_eq!(hi, vec![2.0, 2.0]);
    }

    #[test]
    fn zscore_produces_zero_mean_unit_variance() {
        let normalizer = ZScoreNormalizer::fit(&sample()).unwrap();
        assert_eq!(normalizer.dim(), 2);
        let d = Dataset::new("t", sample());
        let out = normalizer.transform_dataset(&d).unwrap();
        // Column means ~ 0.
        let n = out.len() as f64;
        for dim in 0..2 {
            let mean: f64 = out.stream().map(|p| p[dim]).sum::<f64>() / n;
            assert!(mean.abs() < 1e-9, "dim {dim} mean {mean}");
            let var: f64 = out.stream().map(|p| p[dim] * p[dim]).sum::<f64>() / n;
            assert!((var - 1.0).abs() < 1e-9, "dim {dim} var {var}");
        }
        assert_eq!(out.name(), "t-zscore");
    }

    #[test]
    fn zscore_handles_constant_attributes() {
        let mut s = PointBlock::new(2);
        s.push(&[5.0, 1.0], 1.0);
        s.push(&[5.0, 3.0], 1.0);
        let normalizer = ZScoreNormalizer::fit(&s).unwrap();
        let mut p = vec![5.0, 2.0];
        normalizer.transform_in_place(&mut p).unwrap();
        assert_eq!(p[0], 0.0);
        assert!(p[1].abs() < 1.0);
    }

    #[test]
    fn minmax_maps_into_unit_interval_and_clamps() {
        let scaler = MinMaxScaler::fit(&sample()).unwrap();
        assert_eq!(scaler.dim(), 2);
        let mut p = vec![2.0, 200.0];
        scaler.transform_in_place(&mut p).unwrap();
        assert!((p[0] - 0.5).abs() < 1e-12);
        assert!((p[1] - 0.5).abs() < 1e-12);
        // Out-of-range values clamp.
        let mut q = vec![-100.0, 1_000.0];
        scaler.transform_in_place(&mut q).unwrap();
        assert_eq!(q[0], 0.0);
        assert_eq!(q[1], 1.0);
    }

    #[test]
    fn errors_on_empty_or_mismatched_inputs() {
        assert!(ZScoreNormalizer::fit(&PointBlock::new(2)).is_err());
        assert!(MinMaxScaler::fit(&PointBlock::new(2)).is_err());
        let normalizer = ZScoreNormalizer::fit(&sample()).unwrap();
        let mut wrong = vec![1.0];
        assert!(normalizer.transform_in_place(&mut wrong).is_err());
        let scaler = MinMaxScaler::fit(&sample()).unwrap();
        assert!(scaler.transform_in_place(&mut wrong).is_err());
    }

    #[test]
    fn transform_preserves_weights_and_length() {
        let mut s = PointBlock::new(1);
        s.push(&[1.0], 2.5);
        s.push(&[9.0], 0.5);
        let d = Dataset::new("w", s);
        let scaler = MinMaxScaler::fit(d.points()).unwrap();
        let out = scaler.transform_dataset(&d).unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(out.points().weight(0), 2.5);
        assert_eq!(out.points().weight(1), 0.5);
    }
}
