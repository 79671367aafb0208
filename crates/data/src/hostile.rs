//! Adversarial stream generators for robustness testing.
//!
//! Each generator produces a stream engineered to stress one hot-path
//! assumption the benign generators never violate. The PR 3 OnlineCC
//! duplicate-stream fallback bug — facility costs collapsing to zero on a
//! duplicate-heavy stream — is exactly this class of failure, and these
//! generators exist so the next one is caught by a cost-envelope test
//! instead of a user:
//!
//! * [`heavy_duplicates`] — a handful of distinct values, each repeated
//!   thousands of times (zero pairwise distances on most draws).
//! * [`near_zero_variance`] — clusters so tight that squared distances
//!   underflow toward the floating-point denormal range.
//! * [`dimension_hot_outliers`] — benign low-magnitude mass plus rare
//!   points that are extreme in exactly one coordinate (single-dimension
//!   cost domination).
//! * [`adversarial_order`] — a sorted-then-interleaved ordering engineered
//!   against samplers that assume exchangeable arrival order.
//! * [`high_dim`] — d ≥ 256 streams that stress norm-cache layouts and
//!   per-dimension loops.
//!
//! All generators are deterministic given the `Rng`, like the rest of the
//! crate: same seed, same stream, bit for bit.

use crate::dataset::Dataset;
use crate::gaussian::normal_sample;
use rand::Rng;
use skm_clustering::PointBlock;

/// A duplicate-heavy stream: `distinct` point values in `dim` dimensions,
/// each emitted over and over (in round-robin order) until `n` points
/// exist. With `distinct` far below `n`, most pairwise distances on any
/// sample are exactly zero — the shape that collapsed OnlineCC's facility
/// cost in PR 3.
#[must_use]
pub fn heavy_duplicates<R: Rng + ?Sized>(
    n: usize,
    distinct: usize,
    dim: usize,
    rng: &mut R,
) -> Dataset {
    let distinct = distinct.max(1);
    let dim = dim.max(1);
    let values: Vec<Vec<f64>> = (0..distinct)
        .map(|_| (0..dim).map(|_| rng.gen::<f64>() * 100.0).collect())
        .collect();
    let mut points = PointBlock::with_capacity(dim, n);
    for i in 0..n {
        points.push(&values[i % distinct], 1.0);
    }
    Dataset::new("HeavyDuplicates", points)
}

/// Clusters with standard deviation `1e-9`: squared pairwise distances
/// inside a cluster sit near the bottom of the `f64` exponent range, so any
/// cost arithmetic that squares-then-sums without care underflows to zero.
/// Cluster centers stay well separated (unit spacing), so the *right*
/// answer is still unambiguous.
#[must_use]
pub fn near_zero_variance<R: Rng + ?Sized>(
    n: usize,
    clusters: usize,
    dim: usize,
    rng: &mut R,
) -> Dataset {
    let clusters = clusters.max(1);
    let dim = dim.max(1);
    let centers: Vec<Vec<f64>> = (0..clusters)
        .map(|c| (0..dim).map(|d| (c * dim + d) as f64).collect())
        .collect();
    let mut points = PointBlock::with_capacity(dim, n);
    let mut buf = vec![0.0; dim];
    for i in 0..n {
        let center = &centers[i % clusters];
        for d in 0..dim {
            buf[d] = normal_sample(center[d], 1e-9, rng);
        }
        points.push(&buf, 1.0);
    }
    Dataset::new("NearZeroVariance", points)
}

/// Mostly benign unit-scale mass around the origin, with one point in
/// every `outlier_every` that is extreme (`magnitude`, default-worthy
/// values ≥ 1e6) in exactly one rotating coordinate. The clustering cost is
/// then dominated by single dimensions, which punishes distance kernels
/// that accumulate per-dimension error or prune on partial norms.
#[must_use]
pub fn dimension_hot_outliers<R: Rng + ?Sized>(
    n: usize,
    dim: usize,
    outlier_every: usize,
    magnitude: f64,
    rng: &mut R,
) -> Dataset {
    let dim = dim.max(1);
    let outlier_every = outlier_every.max(2);
    let mut points = PointBlock::with_capacity(dim, n);
    let mut buf = vec![0.0; dim];
    for i in 0..n {
        for slot in &mut buf {
            *slot = normal_sample(0.0, 1.0, rng);
        }
        if i % outlier_every == outlier_every - 1 {
            // Rotate the hot dimension so no single coordinate can be
            // special-cased away.
            buf[(i / outlier_every) % dim] = magnitude;
        }
        points.push(&buf, 1.0);
    }
    Dataset::new("DimensionHotOutliers", points)
}

/// An adversarial arrival order: the points of a mixture stream are sorted
/// by their distance from the origin and then emitted outside-in (farthest,
/// nearest, second-farthest, second-nearest, …). Every bucket then spans
/// the full spatial extent of the data while consecutive points are
/// maximally dissimilar — the worst case for samplers and caches that
/// assume exchangeable (shuffled) arrivals, which is exactly what the
/// paper's evaluation assumes away by shuffling (Section 5.1).
#[must_use]
pub fn adversarial_order<R: Rng + ?Sized>(
    n: usize,
    clusters: usize,
    dim: usize,
    rng: &mut R,
) -> Dataset {
    let clusters = clusters.max(1);
    let dim = dim.max(1);
    let centers: Vec<Vec<f64>> = (0..clusters)
        .map(|_| (0..dim).map(|_| rng.gen::<f64>() * 100.0).collect())
        .collect();
    let mut rows: Vec<Vec<f64>> = Vec::with_capacity(n);
    for i in 0..n {
        let center = &centers[i % clusters];
        rows.push(center.iter().map(|&c| normal_sample(c, 2.0, rng)).collect());
    }
    let norm2 = |row: &[f64]| row.iter().map(|x| x * x).sum::<f64>();
    rows.sort_by(|a, b| norm2(a).total_cmp(&norm2(b)));
    let mut points = PointBlock::with_capacity(dim, n);
    let (mut lo, mut hi) = (0usize, n);
    // Outside-in interleave: hi-1, lo, hi-2, lo+1, ...
    while lo < hi {
        hi -= 1;
        points.push(&rows[hi], 1.0);
        if lo < hi {
            points.push(&rows[lo], 1.0);
            lo += 1;
        }
    }
    Dataset::new("AdversarialOrder", points)
}

/// A high-dimensional mixture (`dim` ≥ 256 in the robustness suite):
/// stresses norm-cache layouts, per-dimension inner loops and the memory
/// bandwidth of coreset merging. Centers are axis-aligned unit vectors
/// scaled to `spread`, so the clusters stay separable at any dimension.
#[must_use]
pub fn high_dim<R: Rng + ?Sized>(n: usize, clusters: usize, dim: usize, rng: &mut R) -> Dataset {
    let clusters = clusters.max(1);
    let dim = dim.max(1);
    let spread = 50.0;
    let mut points = PointBlock::with_capacity(dim, n);
    let mut buf = vec![0.0; dim];
    for i in 0..n {
        let c = i % clusters;
        for slot in &mut buf {
            *slot = normal_sample(0.0, 1.0, rng);
        }
        // One hot axis per cluster (mod dim keeps it valid for tiny dims).
        buf[c % dim] += spread;
        points.push(&buf, 1.0);
    }
    Dataset::new("HighDim", points)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng(seed: u64) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(seed)
    }

    #[test]
    fn heavy_duplicates_has_few_distinct_values() {
        let d = heavy_duplicates(1_000, 4, 3, &mut rng(1));
        assert_eq!(d.len(), 1_000);
        let mut distinct: Vec<Vec<u64>> = Vec::new();
        for p in d.stream() {
            let bits: Vec<u64> = p.iter().map(|x| x.to_bits()).collect();
            if !distinct.contains(&bits) {
                distinct.push(bits);
            }
        }
        assert_eq!(distinct.len(), 4);
    }

    #[test]
    fn near_zero_variance_is_tight_but_separated() {
        let d = near_zero_variance(600, 3, 2, &mut rng(2));
        // Points of one cluster are within ~1e-7 of each other; cluster
        // centers are ≥ 1 apart.
        let first: Vec<&[f64]> = d.stream().step_by(3).take(10).collect();
        for p in &first {
            for (a, b) in p.iter().zip(first[0]) {
                assert!((a - b).abs() < 1e-6);
            }
        }
        let other = d.stream().nth(1).unwrap();
        let gap: f64 = first[0]
            .iter()
            .zip(other)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            .sqrt();
        assert!(gap > 1.0, "clusters must stay separated, gap {gap}");
    }

    #[test]
    fn dimension_hot_outliers_rotates_the_hot_axis() {
        let d = dimension_hot_outliers(400, 8, 10, 1e6, &mut rng(3));
        let outliers: Vec<&[f64]> = d.stream().skip(9).step_by(10).collect();
        assert_eq!(outliers.len(), 40);
        let mut hot_axes = std::collections::BTreeSet::new();
        for p in &outliers {
            let hot: Vec<usize> = p
                .iter()
                .enumerate()
                .filter(|(_, x)| x.abs() > 1e5)
                .map(|(i, _)| i)
                .collect();
            assert_eq!(hot.len(), 1, "exactly one hot coordinate per outlier");
            hot_axes.insert(hot[0]);
        }
        assert!(hot_axes.len() > 1, "the hot axis must rotate");
    }

    #[test]
    fn adversarial_order_alternates_far_and_near() {
        let d = adversarial_order(1_000, 4, 3, &mut rng(4));
        assert_eq!(d.len(), 1_000);
        let norm2 = |p: &[f64]| p.iter().map(|x| x * x).sum::<f64>();
        let rows: Vec<&[f64]> = d.stream().collect();
        // The first point is the global maximum, the second the global
        // minimum.
        let max = rows.iter().map(|p| norm2(p)).fold(f64::MIN, f64::max);
        let min = rows.iter().map(|p| norm2(p)).fold(f64::MAX, f64::min);
        assert_eq!(norm2(rows[0]), max);
        assert_eq!(norm2(rows[1]), min);
        assert!(max > min);
        // The outside-in interleave guarantees every even position holds a
        // farther point than the odd position right after it.
        for pair in rows.chunks_exact(2) {
            assert!(norm2(pair[0]) >= norm2(pair[1]));
        }
    }

    #[test]
    fn high_dim_emits_wide_separable_points() {
        let d = high_dim(256, 4, 256, &mut rng(5));
        assert_eq!(d.dim(), 256);
        assert_eq!(d.len(), 256);
        // Every point's hot axis must match its cluster.
        for (i, p) in d.stream().enumerate() {
            let hot = p
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.total_cmp(b.1))
                .map(|(idx, _)| idx)
                .unwrap();
            assert_eq!(hot, i % 4);
        }
    }

    #[test]
    fn all_generators_are_deterministic_given_seed() {
        macro_rules! check {
            ($gen:expr) => {{
                let a = {
                    let mut r = rng(9);
                    $gen(&mut r)
                };
                let b = {
                    let mut r = rng(9);
                    $gen(&mut r)
                };
                assert_eq!(a.points(), b.points());
            }};
        }
        check!(|r: &mut ChaCha8Rng| heavy_duplicates(200, 3, 2, r));
        check!(|r: &mut ChaCha8Rng| near_zero_variance(200, 3, 2, r));
        check!(|r: &mut ChaCha8Rng| dimension_hot_outliers(200, 4, 7, 1e6, r));
        check!(|r: &mut ChaCha8Rng| adversarial_order(200, 3, 2, r));
        check!(|r: &mut ChaCha8Rng| high_dim(64, 3, 256, r));
    }
}
