//! The Drift dataset: drifting Radial-Basis-Function (RBF) stream generator.
//!
//! The paper's fourth dataset is itself semi-synthetic: 20 cluster centers
//! are fitted to USCensus1990, and MOA's RBF generator then moves those
//! centers with a fixed speed and direction, emitting 100 Gaussian points
//! around each center per time step, for a total of 200,000 points in 68
//! dimensions (Section 5.1). This module re-implements that generator; the
//! initial centers are random (deterministic given the seed) rather than
//! fitted to USCensus1990, which does not change the structural property the
//! dataset exists to exercise — cluster centers that move over the stream.

use crate::dataset::Dataset;
use crate::gaussian::normal_sample;
use rand::Rng;
use skm_clustering::error::{ClusteringError, Result};
use skm_clustering::PointBlock;

/// Drifting-RBF stream generator (MOA-style).
#[derive(Debug, Clone)]
pub struct RbfDriftGenerator {
    dim: usize,
    n_centers: usize,
    /// Distance each center moves per time step.
    speed: f64,
    /// Standard deviation of points around their center.
    std_dev: f64,
    /// Points emitted around each center per time step.
    points_per_step: usize,
    /// Side length of the box the initial centers are drawn from.
    box_size: f64,
}

impl RbfDriftGenerator {
    /// Creates a generator matching the paper's Drift dataset: 20 centers in
    /// 68 dimensions, 100 points per center per step.
    ///
    /// # Errors
    /// Returns an error for zero dimensions/centers or a negative speed.
    pub fn new(n_centers: usize, dim: usize) -> Result<Self> {
        if n_centers == 0 {
            return Err(ClusteringError::InvalidParameter {
                name: "n_centers",
                message: "must be at least 1".to_string(),
            });
        }
        if dim == 0 {
            return Err(ClusteringError::InvalidParameter {
                name: "dim",
                message: "must be at least 1".to_string(),
            });
        }
        Ok(Self {
            dim,
            n_centers,
            speed: 0.2,
            std_dev: 1.0,
            points_per_step: 100,
            box_size: 50.0,
        })
    }

    /// The paper's configuration: 20 drifting centers in 68 dimensions.
    ///
    /// # Errors
    /// Never fails for these constants; kept fallible for API symmetry.
    pub fn paper_default() -> Result<Self> {
        Self::new(20, 68)
    }

    /// Sets the per-step drift speed.
    #[must_use]
    pub fn with_speed(mut self, speed: f64) -> Self {
        self.speed = speed.max(0.0);
        self
    }

    /// Sets the per-cluster standard deviation.
    #[must_use]
    pub fn with_std_dev(mut self, std_dev: f64) -> Self {
        self.std_dev = std_dev.max(0.0);
        self
    }

    /// Sets how many points are emitted around each center per time step.
    #[must_use]
    pub fn with_points_per_step(mut self, points_per_step: usize) -> Self {
        self.points_per_step = points_per_step.max(1);
        self
    }

    /// Dimensionality of generated points.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Generates a stream of `n` points. Time steps are emitted in order;
    /// within a step the emitting center cycles round-robin so drift is
    /// interleaved rather than blocked.
    #[must_use]
    pub fn generate<R: Rng + ?Sized>(&self, n: usize, rng: &mut R) -> Dataset {
        // Initial centers uniform in the box, each with a random unit drift
        // direction.
        let mut centers: Vec<Vec<f64>> = (0..self.n_centers)
            .map(|_| {
                (0..self.dim)
                    .map(|_| rng.gen::<f64>() * self.box_size)
                    .collect()
            })
            .collect();
        let directions: Vec<Vec<f64>> = (0..self.n_centers)
            .map(|_| {
                let mut v: Vec<f64> = (0..self.dim).map(|_| rng.gen::<f64>() - 0.5).collect();
                let norm = v.iter().map(|x| x * x).sum::<f64>().sqrt().max(1e-12);
                for x in &mut v {
                    *x /= norm;
                }
                v
            })
            .collect();

        let mut points = PointBlock::with_capacity(self.dim, n);
        let mut buf = vec![0.0; self.dim];
        let per_step = self.points_per_step * self.n_centers;
        for i in 0..n {
            // Advance every center at the start of each new time step.
            if i > 0 && i % per_step == 0 {
                for (c, dir) in centers.iter_mut().zip(&directions) {
                    for (cj, dj) in c.iter_mut().zip(dir) {
                        *cj += self.speed * dj;
                    }
                }
            }
            let center = &centers[(i / self.points_per_step) % self.n_centers];
            for d in 0..self.dim {
                buf[d] = normal_sample(center[d], self.std_dev, rng);
            }
            points.push(&buf, 1.0);
        }
        Dataset::new("Drift", points)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn rejects_bad_configs() {
        assert!(RbfDriftGenerator::new(0, 5).is_err());
        assert!(RbfDriftGenerator::new(5, 0).is_err());
    }

    #[test]
    fn paper_default_shape() {
        let g = RbfDriftGenerator::paper_default().unwrap();
        assert_eq!(g.dim(), 68);
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let d = g.generate(5_000, &mut rng);
        assert_eq!(d.name(), "Drift");
        assert_eq!(d.len(), 5_000);
        assert_eq!(d.dim(), 68);
    }

    #[test]
    fn centers_actually_drift() {
        // With a large speed, the average position of early points and late
        // points must differ noticeably.
        let g = RbfDriftGenerator::new(2, 3)
            .unwrap()
            .with_speed(5.0)
            .with_points_per_step(10);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let d = g.generate(10_000, &mut rng);
        let early: Vec<&[f64]> = d.stream().take(500).collect();
        let late: Vec<&[f64]> = d.stream().skip(9_500).collect();
        let mean = |ps: &[&[f64]]| -> f64 {
            ps.iter().map(|p| p.iter().sum::<f64>()).sum::<f64>() / ps.len() as f64
        };
        let shift = (mean(&late) - mean(&early)).abs();
        assert!(shift > 10.0, "expected visible drift, got {shift}");
    }

    #[test]
    fn zero_speed_keeps_clusters_stationary() {
        let g = RbfDriftGenerator::new(3, 2)
            .unwrap()
            .with_speed(0.0)
            .with_std_dev(0.5)
            .with_points_per_step(5);
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let d = g.generate(6_000, &mut rng);
        let early: Vec<&[f64]> = d.stream().take(300).collect();
        let late: Vec<&[f64]> = d.stream().skip(5_700).collect();
        let mean = |ps: &[&[f64]]| -> f64 {
            ps.iter().map(|p| p.iter().sum::<f64>()).sum::<f64>() / ps.len() as f64
        };
        assert!((mean(&late) - mean(&early)).abs() < 3.0);
    }

    #[test]
    fn deterministic_given_seed() {
        let g = RbfDriftGenerator::new(4, 6).unwrap();
        let a = g.generate(300, &mut ChaCha8Rng::seed_from_u64(3));
        let b = g.generate(300, &mut ChaCha8Rng::seed_from_u64(3));
        assert_eq!(a.points(), b.points());
    }
}
