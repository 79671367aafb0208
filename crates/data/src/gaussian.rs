//! Gaussian mixture ("blobs") generator.
//!
//! A generic mixture-of-Gaussians stream generator used by the examples,
//! the tests and as the building block of the UCI-like synthetic datasets.

use crate::dataset::Dataset;
use rand::Rng;
use skm_clustering::error::{ClusteringError, Result};
use skm_clustering::PointBlock;

/// Draws one sample from `N(mean, std²)` using the Box–Muller transform.
///
/// Implemented locally to keep the dependency set minimal (the workspace
/// deliberately restricts itself to `rand` without `rand_distr`).
pub fn normal_sample<R: Rng + ?Sized>(mean: f64, std: f64, rng: &mut R) -> f64 {
    if std <= 0.0 {
        return mean;
    }
    // u1 in (0, 1] to avoid ln(0).
    let u1: f64 = 1.0 - rng.gen::<f64>();
    let u2: f64 = rng.gen();
    let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
    mean + std * z
}

/// Configuration of one mixture component.
#[derive(Debug, Clone)]
pub struct Component {
    /// Component mean (length = dataset dimension).
    pub mean: Vec<f64>,
    /// Per-dimension standard deviation (length = dataset dimension).
    pub std_dev: Vec<f64>,
    /// Relative sampling weight (need not be normalized).
    pub weight: f64,
}

/// A mixture-of-Gaussians dataset generator.
#[derive(Debug, Clone)]
pub struct GaussianMixture {
    dim: usize,
    components: Vec<Component>,
    name: String,
}

impl GaussianMixture {
    /// Creates a mixture of `clusters` equally weighted, unit-variance
    /// components with well-separated means on a coarse grid in `dim`
    /// dimensions.
    ///
    /// # Errors
    /// Returns an error if `clusters == 0` or `dim == 0`.
    pub fn new(clusters: usize, dim: usize) -> Result<Self> {
        if clusters == 0 {
            return Err(ClusteringError::InvalidParameter {
                name: "clusters",
                message: "must be at least 1".to_string(),
            });
        }
        if dim == 0 {
            return Err(ClusteringError::InvalidParameter {
                name: "dim",
                message: "must be at least 1".to_string(),
            });
        }
        // Place means on a grid with spacing 20 so components are clearly
        // separated relative to the unit standard deviation.
        let per_side = (clusters as f64).sqrt().ceil() as usize;
        let components = (0..clusters)
            .map(|c| {
                let gx = (c % per_side) as f64 * 20.0;
                let gy = (c / per_side) as f64 * 20.0;
                let mut mean = vec![0.0; dim];
                mean[0] = gx;
                if dim > 1 {
                    mean[1] = gy;
                }
                Component {
                    mean,
                    std_dev: vec![1.0; dim],
                    weight: 1.0,
                }
            })
            .collect();
        Ok(Self {
            dim,
            components,
            name: format!("gaussian-{clusters}x{dim}d"),
        })
    }

    /// Creates a mixture from explicit components.
    ///
    /// # Errors
    /// Returns an error if the component list is empty, dimensions are
    /// inconsistent, or any weight / standard deviation is invalid.
    pub fn from_components(name: impl Into<String>, components: Vec<Component>) -> Result<Self> {
        let first = components.first().ok_or(ClusteringError::EmptyInput)?;
        let dim = first.mean.len();
        if dim == 0 {
            return Err(ClusteringError::InvalidParameter {
                name: "components",
                message: "component means must have at least one dimension".to_string(),
            });
        }
        for (i, c) in components.iter().enumerate() {
            if c.mean.len() != dim || c.std_dev.len() != dim {
                return Err(ClusteringError::DimensionMismatch {
                    expected: dim,
                    got: c.mean.len().min(c.std_dev.len()),
                });
            }
            if !(c.weight.is_finite() && c.weight > 0.0) {
                return Err(ClusteringError::InvalidWeight { index: i });
            }
            if c.std_dev.iter().any(|s| !s.is_finite() || *s < 0.0) {
                return Err(ClusteringError::InvalidParameter {
                    name: "std_dev",
                    message: format!("component {i} has a negative or non-finite std dev"),
                });
            }
        }
        Ok(Self {
            dim,
            components,
            name: name.into(),
        })
    }

    /// Dimensionality of generated points.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of mixture components.
    #[must_use]
    pub fn components(&self) -> usize {
        self.components.len()
    }

    /// Ground-truth component means (useful for accuracy checks in tests).
    #[must_use]
    pub fn means(&self) -> Vec<Vec<f64>> {
        self.components.iter().map(|c| c.mean.clone()).collect()
    }

    /// Generates `n` points by sampling a component (proportionally to its
    /// weight) and then a Gaussian point around its mean.
    #[must_use]
    pub fn generate<R: Rng + ?Sized>(&self, n: usize, rng: &mut R) -> Dataset {
        let total_weight: f64 = self.components.iter().map(|c| c.weight).sum();
        let mut points = PointBlock::with_capacity(self.dim, n);
        let mut buf = vec![0.0; self.dim];
        for _ in 0..n {
            // Pick a component.
            let mut target = rng.gen::<f64>() * total_weight;
            let mut chosen = self.components.len() - 1;
            for (i, c) in self.components.iter().enumerate() {
                if target < c.weight {
                    chosen = i;
                    break;
                }
                target -= c.weight;
            }
            let c = &self.components[chosen];
            for (d, slot) in buf.iter_mut().enumerate() {
                *slot = normal_sample(c.mean[d], c.std_dev[d], rng);
            }
            points.push(&buf, 1.0);
        }
        Dataset::new(self.name.clone(), points)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn rejects_degenerate_configs() {
        assert!(GaussianMixture::new(0, 2).is_err());
        assert!(GaussianMixture::new(2, 0).is_err());
        assert!(GaussianMixture::from_components("x", vec![]).is_err());
    }

    #[test]
    fn generates_requested_size_and_dim() {
        let g = GaussianMixture::new(4, 5).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let d = g.generate(1_000, &mut rng);
        assert_eq!(d.len(), 1_000);
        assert_eq!(d.dim(), 5);
        assert_eq!(g.components(), 4);
    }

    #[test]
    fn points_concentrate_near_their_means() {
        let g = GaussianMixture::new(3, 2).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let d = g.generate(3_000, &mut rng);
        let means = g.means();
        // Every point should be within 6 sigma of some mean.
        for p in d.stream() {
            let nearest = means
                .iter()
                .map(|m| skm_clustering::distance::distance(p, m))
                .fold(f64::INFINITY, f64::min);
            assert!(
                nearest < 6.0,
                "point {p:?} is {nearest} away from all means"
            );
        }
    }

    #[test]
    fn weights_control_component_sizes() {
        let components = vec![
            Component {
                mean: vec![0.0],
                std_dev: vec![0.1],
                weight: 9.0,
            },
            Component {
                mean: vec![100.0],
                std_dev: vec![0.1],
                weight: 1.0,
            },
        ];
        let g = GaussianMixture::from_components("skewed", components).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let d = g.generate(10_000, &mut rng);
        let near_zero = d.stream().filter(|p| p[0] < 50.0).count();
        let frac = near_zero as f64 / 10_000.0;
        assert!((frac - 0.9).abs() < 0.02, "fraction near 0 was {frac}");
    }

    #[test]
    fn invalid_components_are_rejected() {
        let bad_weight = vec![Component {
            mean: vec![0.0],
            std_dev: vec![1.0],
            weight: 0.0,
        }];
        assert!(GaussianMixture::from_components("w", bad_weight).is_err());
        let bad_std = vec![Component {
            mean: vec![0.0],
            std_dev: vec![-1.0],
            weight: 1.0,
        }];
        assert!(GaussianMixture::from_components("s", bad_std).is_err());
        let bad_dim = vec![
            Component {
                mean: vec![0.0, 1.0],
                std_dev: vec![1.0, 1.0],
                weight: 1.0,
            },
            Component {
                mean: vec![0.0],
                std_dev: vec![1.0],
                weight: 1.0,
            },
        ];
        assert!(GaussianMixture::from_components("d", bad_dim).is_err());
    }

    #[test]
    fn deterministic_given_seed() {
        let g = GaussianMixture::new(2, 3).unwrap();
        let a = g.generate(50, &mut ChaCha8Rng::seed_from_u64(9));
        let b = g.generate(50, &mut ChaCha8Rng::seed_from_u64(9));
        assert_eq!(a.points(), b.points());
    }
}
