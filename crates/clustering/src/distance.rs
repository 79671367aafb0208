//! Squared-Euclidean distance kernels and nearest-center search.
//!
//! The paper defines `D(x, y) = ‖x − y‖` and `D(x, Ψ) = min_{ψ∈Ψ} ‖x − ψ‖`.
//! Every algorithm in the reproduction spends most of its time in these
//! kernels, so they are kept small, branch-free where possible and
//! `#[inline]`.
//!
//! Two families of kernels live here:
//!
//! * the **legacy per-point path** ([`squared_distance`], [`nearest_center`])
//!   which computes `Σ (x_j − c_j)²` directly, and
//! * the **fused path** ([`sq_dist_block`], [`nearest_block_row`]) which
//!   expands `‖x − c‖² = ‖x‖² − 2·x·c + ‖c‖²` so that cached norms (see
//!   [`crate::block::PointBlock`]) turn each distance into a single dot
//!   product. The dot product is accumulated in four independent lanes so the
//!   compiler can keep several multiply-adds in flight per cycle.
//!
//! Every distance-heavy inner loop in the workspace (k-means++ seeding, cost
//! evaluation, Lloyd iterations, coreset construction) routes through the
//! fused path; the legacy path is retained for tests and one-off distances.

use crate::centers::Centers;

/// Squared Euclidean distance `‖a − b‖²` between two points.
///
/// # Panics
/// Panics (debug builds) if the slices have different lengths.
#[must_use]
#[inline]
pub fn squared_distance(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len(), "dimension mismatch in squared_distance");
    let mut acc = 0.0;
    for (x, y) in a.iter().zip(b.iter()) {
        let diff = x - y;
        acc += diff * diff;
    }
    acc
}

/// Euclidean distance `‖a − b‖`.
#[must_use]
#[inline]
pub fn distance(a: &[f64], b: &[f64]) -> f64 {
    squared_distance(a, b).sqrt()
}

/// Index of the nearest center to `point` and the squared distance to it.
///
/// Returns `None` when `centers` is empty.
#[must_use]
pub fn nearest_center(point: &[f64], centers: &Centers) -> Option<(usize, f64)> {
    if centers.is_empty() {
        return None;
    }
    let mut best_idx = 0;
    let mut best = f64::INFINITY;
    for (i, c) in centers.iter().enumerate() {
        let d = squared_distance(point, c);
        if d < best {
            best = d;
            best_idx = i;
        }
    }
    Some((best_idx, best))
}

/// Squared distance from `point` to the nearest of `centers`
/// (`D²(x, Ψ)`), or `+∞` when `centers` is empty.
#[must_use]
pub fn squared_distance_to_set(point: &[f64], centers: &Centers) -> f64 {
    nearest_center(point, centers).map_or(f64::INFINITY, |(_, d)| d)
}

/// Like [`nearest_center`], but searching a plain list of candidate rows in
/// flat row-major storage. Used by the coreset constructors which sample
/// representatives before they are wrapped in a [`Centers`] value.
///
/// Returns `None` if `rows` is empty or `dim == 0`.
#[must_use]
pub fn nearest_row(point: &[f64], rows: &[f64], dim: usize) -> Option<(usize, f64)> {
    if rows.is_empty() || dim == 0 {
        return None;
    }
    let mut best_idx = 0;
    let mut best = f64::INFINITY;
    for (i, c) in rows.chunks_exact(dim).enumerate() {
        let d = squared_distance(point, c);
        if d < best {
            best = d;
            best_idx = i;
        }
    }
    Some((best_idx, best))
}

/// Dot product `a · b`, accumulated in four independent lanes.
///
/// The four partial sums have no dependency on one another, so the loop can
/// sustain multiple fused multiply-adds per cycle on modern hardware; the
/// reassociation changes the rounding of the result by at most a few ULP
/// relative to a sequential sum.
///
/// # Panics
/// Panics (debug builds) if the slices have different lengths.
#[must_use]
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len(), "dimension mismatch in dot");
    let mut chunks_a = a.chunks_exact(4);
    let mut chunks_b = b.chunks_exact(4);
    let (mut s0, mut s1, mut s2, mut s3) = (0.0, 0.0, 0.0, 0.0);
    for (ca, cb) in (&mut chunks_a).zip(&mut chunks_b) {
        s0 += ca[0] * cb[0];
        s1 += ca[1] * cb[1];
        s2 += ca[2] * cb[2];
        s3 += ca[3] * cb[3];
    }
    let mut tail = 0.0;
    for (x, y) in chunks_a.remainder().iter().zip(chunks_b.remainder()) {
        tail += x * y;
    }
    (s0 + s1) + (s2 + s3) + tail
}

/// Squared Euclidean norm `‖a‖² = a · a`.
#[must_use]
#[inline]
pub fn squared_norm(a: &[f64]) -> f64 {
    dot(a, a)
}

/// Squared norms of every `dim`-length row of `coords`, in row order.
///
/// This is the one-time `O(nd)` pass that makes every subsequent fused
/// distance an `O(d)` dot product; [`crate::block::PointBlock`] caches the
/// result so repeated passes (k-means++ rounds, Lloyd iterations, repeated
/// k-means runs) never recompute it.
#[must_use]
pub fn squared_norms(coords: &[f64], dim: usize) -> Vec<f64> {
    assert!(dim > 0, "dimension must be positive");
    coords.chunks_exact(dim).map(squared_norm).collect()
}

/// Fused squared Euclidean distance `‖x − c‖² = ‖x‖² − 2·x·c + ‖c‖²` using
/// precomputed norms.
///
/// The result is clamped at zero: catastrophic cancellation can otherwise
/// produce a tiny negative value when `x ≈ c`.
///
/// # Panics
/// Panics (debug builds) if the slices have different lengths.
#[must_use]
#[inline]
pub fn sq_dist_block(x: &[f64], x_norm: f64, c: &[f64], c_norm: f64) -> f64 {
    sq_dist_from_dot(x_norm, dot(x, c), c_norm)
}

/// [`sq_dist_block`] with the dot product `x·c` already computed, for loops
/// that derive more than one value from it. Bit-identical to
/// `sq_dist_block(x, x_norm, c, c_norm)` when `x_dot_c == dot(x, c)`.
#[must_use]
#[inline]
pub(crate) fn sq_dist_from_dot(x_norm: f64, x_dot_c: f64, c_norm: f64) -> f64 {
    (x_norm - 2.0 * x_dot_c + c_norm).max(0.0)
}

/// The partial score `‖c‖² − 2·x·c` that [`nearest_block_row`] minimizes:
/// `‖x − c‖²` without the `‖x‖²` term, which is the same for every `c`.
#[must_use]
#[inline]
pub(crate) fn nearest_score(c_norm: f64, x_dot_c: f64) -> f64 {
    c_norm - 2.0 * x_dot_c
}

/// Fused nearest-row search over flat row-major `rows` with precomputed
/// `row_norms`: returns the index of the row minimizing `‖x − row‖²` and
/// that squared distance.
///
/// Internally compares the partial score `‖row‖² − 2·x·row` (monotone in the
/// squared distance for a fixed `x`), adding `‖x‖²` back only once at the
/// end. Ties resolve to the first row, matching [`nearest_center`].
///
/// Returns `None` if `rows` is empty or `dim == 0`.
///
/// # Panics
/// Panics (debug builds) when `row_norms` does not have one entry per row.
#[must_use]
pub fn nearest_block_row(
    x: &[f64],
    x_norm: f64,
    rows: &[f64],
    row_norms: &[f64],
    dim: usize,
) -> Option<(usize, f64)> {
    if rows.is_empty() || dim == 0 {
        return None;
    }
    debug_assert_eq!(rows.len(), row_norms.len() * dim, "norm cache mismatch");
    let mut nearest = Nearest::default();
    for (i, (c, &c_norm)) in rows.chunks_exact(dim).zip(row_norms).enumerate() {
        nearest.offer(i, nearest_score(c_norm, dot(x, c)));
    }
    Some((nearest.label, nearest.sq_dist(x_norm)))
}

/// Per-point state that a distance loop offers each center to, in center
/// order, with its [`nearest_score`]. `()` tracks nothing and compiles away;
/// [`Nearest`] keeps the argmin.
pub(crate) trait Track: Clone + Default {
    /// Offers center `center` at `score`.
    fn offer(&mut self, center: usize, score: f64);
}

impl Track for () {
    #[inline(always)]
    fn offer(&mut self, _center: usize, _score: f64) {}
}

/// Running argmin of [`nearest_score`]: a strictly smaller score wins, so
/// ties resolve to the first center offered. [`nearest_block_row`] and
/// [`crate::kmeanspp::kmeanspp_assign_block`] share it, which keeps their
/// labels and distances bit-identical.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Nearest {
    /// Index of the best center so far (0 before any offer).
    pub(crate) label: usize,
    /// Its score (`+∞` before any offer).
    pub(crate) score: f64,
}

impl Default for Nearest {
    fn default() -> Self {
        Self {
            label: 0,
            score: f64::INFINITY,
        }
    }
}

impl Track for Nearest {
    #[inline(always)]
    fn offer(&mut self, center: usize, score: f64) {
        if score < self.score {
            self.score = score;
            self.label = center;
        }
    }
}

impl Nearest {
    /// `‖x − c‖²` to the best center, given `‖x‖²`.
    #[must_use]
    #[inline]
    pub(crate) fn sq_dist(&self, x_norm: f64) -> f64 {
        (x_norm + self.score).max(0.0)
    }
}

/// Fused variant of [`nearest_center`]: nearest center to `x` using the
/// center coordinates and a precomputed center-norm cache (one `‖c‖²` per
/// center, typically computed once per pass over the data).
///
/// Returns `None` when `centers` is empty.
#[must_use]
#[inline]
pub fn nearest_center_block(
    x: &[f64],
    x_norm: f64,
    centers: &Centers,
    center_norms: &[f64],
) -> Option<(usize, f64)> {
    nearest_block_row(x, x_norm, centers.coords(), center_norms, centers.dim())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn squared_distance_basic() {
        assert_eq!(squared_distance(&[0.0, 0.0], &[3.0, 4.0]), 25.0);
        assert_eq!(squared_distance(&[1.0], &[1.0]), 0.0);
    }

    #[test]
    fn distance_is_sqrt_of_squared() {
        assert!((distance(&[0.0, 0.0], &[3.0, 4.0]) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn nearest_center_picks_minimum() {
        let centers =
            Centers::from_rows(2, &[vec![0.0, 0.0], vec![10.0, 0.0], vec![0.0, 3.0]]).unwrap();
        let (idx, d) = nearest_center(&[0.0, 2.0], &centers).unwrap();
        assert_eq!(idx, 2);
        assert!((d - 1.0).abs() < 1e-12);
    }

    #[test]
    fn nearest_center_of_empty_set_is_none() {
        let centers = Centers::new(2);
        assert!(nearest_center(&[0.0, 0.0], &centers).is_none());
        assert!(squared_distance_to_set(&[0.0, 0.0], &centers).is_infinite());
    }

    #[test]
    fn nearest_row_matches_nearest_center() {
        let rows = vec![0.0, 0.0, 10.0, 0.0, 0.0, 3.0];
        let centers =
            Centers::from_rows(2, &[vec![0.0, 0.0], vec![10.0, 0.0], vec![0.0, 3.0]]).unwrap();
        let p = [7.0, 1.0];
        let a = nearest_row(&p, &rows, 2).unwrap();
        let b = nearest_center(&p, &centers).unwrap();
        assert_eq!(a.0, b.0);
        assert!((a.1 - b.1).abs() < 1e-12);
    }

    #[test]
    fn nearest_row_empty_is_none() {
        assert!(nearest_row(&[1.0], &[], 1).is_none());
    }

    #[test]
    fn ties_resolve_to_first_center() {
        let centers = Centers::from_rows(1, &[vec![1.0], vec![-1.0]]).unwrap();
        let (idx, _) = nearest_center(&[0.0], &centers).unwrap();
        assert_eq!(idx, 0);
    }

    #[test]
    fn dot_handles_all_remainder_lengths() {
        // Exercise the 4-lane kernel across every tail length 0..=3.
        for d in 1..=9usize {
            let a: Vec<f64> = (0..d).map(|i| i as f64 + 1.0).collect();
            let b: Vec<f64> = (0..d).map(|i| 2.0 * i as f64 - 3.0).collect();
            let expected: f64 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
            assert!((dot(&a, &b) - expected).abs() < 1e-9, "d = {d}");
        }
    }

    #[test]
    fn squared_norms_match_per_row_norms() {
        let coords = vec![3.0, 4.0, 1.0, 0.0, -2.0, 2.0];
        let norms = squared_norms(&coords, 2);
        assert_eq!(norms, vec![25.0, 1.0, 8.0]);
    }

    #[test]
    fn fused_distance_matches_legacy() {
        let x = [1.5, -2.0, 3.0, 0.5, 7.0];
        let c = [0.0, 4.0, -1.0, 2.5, 6.0];
        let legacy = squared_distance(&x, &c);
        let fused = sq_dist_block(&x, squared_norm(&x), &c, squared_norm(&c));
        assert!((legacy - fused).abs() < 1e-9 * (1.0 + legacy));
    }

    #[test]
    fn fused_distance_clamps_cancellation_to_zero() {
        let x = [1e8, 1e8];
        let fused = sq_dist_block(&x, squared_norm(&x), &x, squared_norm(&x));
        assert_eq!(fused, 0.0);
    }

    #[test]
    fn nearest_block_row_matches_nearest_center() {
        let rows = vec![0.0, 0.0, 10.0, 0.0, 0.0, 3.0];
        let norms = squared_norms(&rows, 2);
        let centers =
            Centers::from_rows(2, &[vec![0.0, 0.0], vec![10.0, 0.0], vec![0.0, 3.0]]).unwrap();
        for p in [[7.0, 1.0], [0.0, 2.0], [-3.0, -3.0]] {
            let fused = nearest_block_row(&p, squared_norm(&p), &rows, &norms, 2).unwrap();
            let legacy = nearest_center(&p, &centers).unwrap();
            assert_eq!(fused.0, legacy.0, "point {p:?}");
            assert!((fused.1 - legacy.1).abs() < 1e-9 * (1.0 + legacy.1));
        }
    }

    #[test]
    fn nearest_block_row_empty_is_none() {
        assert!(nearest_block_row(&[1.0], 1.0, &[], &[], 1).is_none());
    }

    #[test]
    fn nearest_center_block_matches_plain_nearest() {
        let centers = Centers::from_rows(3, &[vec![1.0, 2.0, 3.0], vec![-4.0, 0.0, 1.0]]).unwrap();
        let norms = squared_norms(centers.coords(), 3);
        let p = [0.5, 0.5, 0.5];
        let fused = nearest_center_block(&p, squared_norm(&p), &centers, &norms).unwrap();
        let legacy = nearest_center(&p, &centers).unwrap();
        assert_eq!(fused.0, legacy.0);
        assert!((fused.1 - legacy.1).abs() < 1e-9);
    }
}
