//! Synthetic stand-ins for the paper's UCI / KDD-Cup datasets.
//!
//! The paper evaluates on Covtype (581,012 × 54), Power (2,049,280 × 7) and
//! Intrusion (494,021 × 34). Those files cannot be redistributed here, so
//! these generators produce streams with the same dimensionality and the
//! structural properties that drive the paper's results:
//!
//! * **Covtype** — several moderately overlapping clusters (7 cover types)
//!   over attributes with very different scales (elevation in thousands,
//!   binary soil indicators).
//! * **Power** — a low-dimensional, temporally correlated signal (daily
//!   consumption cycle) plus noise and occasional spikes.
//! * **Intrusion** — an extremely *skewed* mixture: a couple of dense attack
//!   clusters dominate, with rare clusters far away and heavy-tailed
//!   attribute scales. This is the structure that makes Sequential k-means
//!   collapse by ~10⁴× in Figure 4(c).
//!
//! The real datasets can still be used through [`crate::csv::load_points`]
//! if the files are available locally.

use crate::dataset::Dataset;
use crate::gaussian::{normal_sample, Component, GaussianMixture};
use rand::Rng;
use skm_clustering::PointBlock;

/// Default scaled-down number of points for the synthetic stand-ins.
pub const DEFAULT_POINTS: usize = 100_000;

/// Covtype-like stream: 54 attributes, 7 imbalanced clusters, mixed scales.
#[must_use]
pub fn covtype_like<R: Rng + ?Sized>(n: usize, rng: &mut R) -> Dataset {
    let dim = 54;
    // Cover-type class proportions roughly follow the real dataset
    // (two dominant classes, five smaller ones).
    let weights = [36.5, 48.8, 6.2, 0.5, 1.6, 3.0, 3.5];
    let mut components = Vec::with_capacity(weights.len());
    for (ci, w) in weights.iter().enumerate() {
        let mut mean = vec![0.0; dim];
        let mut std_dev = vec![1.0; dim];
        // First 10 attributes: terrain variables with large scales.
        for d in 0..10 {
            mean[d] = 2000.0 + 150.0 * ci as f64 + 37.0 * d as f64;
            std_dev[d] = 120.0;
        }
        // Remaining attributes: near-binary indicators biased per class.
        for d in 10..dim {
            mean[d] = if d % 7 == ci % 7 { 0.8 } else { 0.1 };
            std_dev[d] = 0.15;
        }
        components.push(Component {
            mean,
            std_dev,
            weight: *w,
        });
    }
    let mixture =
        GaussianMixture::from_components("covtype-like", components).expect("valid components");
    let d = mixture.generate(n, rng);
    Dataset::new("Covtype", d.points().clone())
}

/// Power-like stream: 7 attributes following a noisy daily cycle.
#[must_use]
pub fn power_like<R: Rng + ?Sized>(n: usize, rng: &mut R) -> Dataset {
    let dim = 7;
    let mut points = PointBlock::with_capacity(dim, n);
    let mut buf = vec![0.0; dim];
    for t in 0..n {
        // One sample per minute; 1440 minutes per day.
        let minute_of_day = (t % 1440) as f64;
        let phase = 2.0 * std::f64::consts::PI * minute_of_day / 1440.0;
        // Global active power: daily cycle with evening peak, plus spikes.
        let base = 1.2 + 0.9 * (phase - 1.0).sin().max(0.0);
        let spike = if rng.gen::<f64>() < 0.02 {
            rng.gen::<f64>() * 4.0
        } else {
            0.0
        };
        let active = (base + spike + normal_sample(0.0, 0.15, rng)).max(0.0);
        let reactive = (0.1 * active + normal_sample(0.0, 0.05, rng)).max(0.0);
        let voltage = 240.0 + 3.0 * (phase * 2.0).cos() + normal_sample(0.0, 1.5, rng);
        let intensity = active * 4.3 + normal_sample(0.0, 0.4, rng);
        let sub1 = (active * 0.15 + normal_sample(0.0, 0.3, rng)).max(0.0);
        let sub2 = (active * 0.25 + normal_sample(0.0, 0.4, rng)).max(0.0);
        let sub3 = (active * 0.35 + normal_sample(0.0, 0.5, rng)).max(0.0);
        buf.copy_from_slice(&[active, reactive, voltage, intensity, sub1, sub2, sub3]);
        points.push(&buf, 1.0);
    }
    Dataset::new("Power", points)
}

/// Intrusion-like stream: 34 attributes, heavily skewed cluster sizes and
/// scales (the structure on which Sequential k-means performs catastrophically).
#[must_use]
pub fn intrusion_like<R: Rng + ?Sized>(n: usize, rng: &mut R) -> Dataset {
    let dim = 34;
    // (weight, scale of the "bytes"-like attributes, offset)
    let profiles: [(f64, f64, f64); 6] = [
        (56.0, 1_000.0, 0.0),        // smurf-like flood traffic
        (21.0, 50.0, 200.0),         // neptune-like SYN flood
        (19.0, 300.0, 1_000.0),      // normal traffic
        (2.5, 5_000.0, 50_000.0),    // rare bulk transfers
        (1.0, 20.0, 100_000.0),      // rare scans, far away
        (0.5, 100_000.0, 500_000.0), // very rare, extreme magnitude
    ];
    let mut components = Vec::with_capacity(profiles.len());
    for (ci, (w, scale, offset)) in profiles.iter().enumerate() {
        let mut mean = vec![0.0; dim];
        let mut std_dev = vec![1.0; dim];
        for d in 0..dim {
            if d < 6 {
                // Duration / byte counts: heavy scales.
                mean[d] = offset + scale * (d as f64 + 1.0);
                std_dev[d] = scale * 0.3;
            } else {
                // Rate-style features in [0, 1], biased per class.
                mean[d] = f64::from(u32::try_from((ci + d) % 5).unwrap_or(0)) * 0.2;
                std_dev[d] = 0.05;
            }
        }
        components.push(Component {
            mean,
            std_dev,
            weight: *w,
        });
    }
    let mixture =
        GaussianMixture::from_components("intrusion-like", components).expect("valid components");
    let d = mixture.generate(n, rng);
    Dataset::new("Intrusion", d.points().clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn covtype_like_shape() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let d = covtype_like(2_000, &mut rng);
        assert_eq!(d.name(), "Covtype");
        assert_eq!(d.len(), 2_000);
        assert_eq!(d.dim(), 54);
        // Terrain attributes live on a much larger scale than indicators.
        let p = d.points().point(0);
        assert!(p[0] > 100.0);
        assert!(p[53].abs() < 5.0);
    }

    #[test]
    fn power_like_shape_and_cycle() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let d = power_like(3_000, &mut rng);
        assert_eq!(d.name(), "Power");
        assert_eq!(d.dim(), 7);
        assert_eq!(d.len(), 3_000);
        // Voltage attribute stays near 240.
        for p in d.stream().take(200) {
            assert!((p[2] - 240.0).abs() < 20.0, "voltage {p:?}");
            assert!(p[0] >= 0.0, "power must be non-negative");
        }
    }

    #[test]
    fn intrusion_like_is_heavily_skewed() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let d = intrusion_like(20_000, &mut rng);
        assert_eq!(d.dim(), 34);
        // The two dominant profiles (offset <= 200) should hold ~77% of points.
        let dominant = d.stream().filter(|p| p[0] < 10_000.0).count();
        let frac = dominant as f64 / d.len() as f64;
        assert!(frac > 0.6, "dominant fraction {frac}");
        // And some points must be extremely far away (offset 500k profile).
        let extreme = d.stream().filter(|p| p[0] > 300_000.0).count();
        assert!(extreme > 0, "expected at least a few extreme points");
        assert!(extreme < d.len() / 50, "extreme points must stay rare");
    }

    #[test]
    fn generators_are_deterministic_given_seed() {
        let a = covtype_like(100, &mut ChaCha8Rng::seed_from_u64(7));
        let b = covtype_like(100, &mut ChaCha8Rng::seed_from_u64(7));
        assert_eq!(a.points(), b.points());
    }
}
