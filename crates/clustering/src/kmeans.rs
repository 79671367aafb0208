//! Batch k-means: best-of-R runs of (k-means++ seeding, Lloyd refinement).
//!
//! This is the exact procedure the paper's evaluation uses whenever a
//! clustering must be extracted from a point set (Section 5.2): "take the
//! best clustering out of five independent runs of k-means++; each run of
//! k-means++ is followed by up to 20 iterations of Lloyd's algorithm".
//! It also serves as the batch baseline line in Figure 4.

use crate::block::{BlockView, PointBlock};
use crate::centers::Centers;
use crate::distance::squared_norms;
use crate::error::{ClusteringError, Result};
use crate::kmeanspp::kmeanspp_view;
use crate::lloyd::{lloyd_view, LloydConfig};
use crate::point::PointSet;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Configuration for the batch k-means procedure.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct KMeans {
    /// Number of clusters `k`.
    pub k: usize,
    /// Number of independent (seeding + refinement) runs; the best is kept.
    pub runs: usize,
    /// Maximum Lloyd iterations per run (0 disables refinement).
    pub max_lloyd_iterations: usize,
    /// Relative improvement threshold for Lloyd convergence.
    pub tolerance: f64,
}

impl KMeans {
    /// Creates a configuration with the paper's defaults: a single run and
    /// 20 Lloyd iterations.
    #[must_use]
    pub fn new(k: usize) -> Self {
        Self {
            k,
            runs: 1,
            max_lloyd_iterations: 20,
            tolerance: 1e-6,
        }
    }

    /// Sets the number of independent runs (the paper's harness uses 5).
    #[must_use]
    pub fn with_runs(mut self, runs: usize) -> Self {
        self.runs = runs;
        self
    }

    /// Sets the Lloyd iteration cap.
    #[must_use]
    pub fn with_max_lloyd_iterations(mut self, iters: usize) -> Self {
        self.max_lloyd_iterations = iters;
        self
    }

    /// Sets the convergence tolerance.
    #[must_use]
    pub fn with_tolerance(mut self, tol: f64) -> Self {
        self.tolerance = tol;
        self
    }

    /// Runs the procedure on a weighted point set.
    ///
    /// This is a thin adapter over the fused kernel path: the point-norm
    /// cache is computed once and shared by every seeding run, every Lloyd
    /// iteration and every cost evaluation.
    ///
    /// # Errors
    /// * [`ClusteringError::InvalidK`] if `k == 0`.
    /// * [`ClusteringError::EmptyInput`] if `points` is empty.
    /// * [`ClusteringError::InvalidParameter`] if `runs == 0`.
    pub fn fit<R: Rng + ?Sized>(&self, points: &PointSet, rng: &mut R) -> Result<KMeansResult> {
        self.validate(points.is_empty())?;
        let norms = squared_norms(points.coords(), points.dim());
        self.fit_view(BlockView::over(points, &norms), rng)
    }

    /// [`KMeans::fit`] over a [`PointBlock`], reusing its cached norms.
    ///
    /// # Errors
    /// Same failure modes as [`KMeans::fit`].
    pub fn fit_block<R: Rng + ?Sized>(
        &self,
        block: &PointBlock,
        rng: &mut R,
    ) -> Result<KMeansResult> {
        self.validate(block.is_empty())?;
        self.fit_view(block.view(), rng)
    }

    fn validate(&self, empty_input: bool) -> Result<()> {
        if self.k == 0 {
            return Err(ClusteringError::InvalidK { k: self.k });
        }
        if empty_input {
            return Err(ClusteringError::EmptyInput);
        }
        if self.runs == 0 {
            return Err(ClusteringError::InvalidParameter {
                name: "runs",
                message: "must be at least 1".to_string(),
            });
        }
        Ok(())
    }

    /// Fused-kernel core shared by [`KMeans::fit`] and [`KMeans::fit_block`].
    fn fit_view<R: Rng + ?Sized>(&self, view: BlockView<'_>, rng: &mut R) -> Result<KMeansResult> {
        let lloyd_config = LloydConfig {
            max_iterations: self.max_lloyd_iterations,
            tolerance: self.tolerance,
        };

        let mut best: Option<KMeansResult> = None;
        for _ in 0..self.runs {
            let (seeded, _) = kmeanspp_view::<_, ()>(view, self.k, rng)?;
            let (centers, cost, iterations) = if self.max_lloyd_iterations == 0 {
                let cost = crate::cost::kmeans_cost_view(view, &seeded);
                (seeded, cost, 0)
            } else {
                let out = lloyd_view(view, &seeded, lloyd_config);
                (out.centers, out.cost, out.iterations)
            };
            let candidate = KMeansResult {
                centers,
                cost,
                lloyd_iterations: iterations,
            };
            match &best {
                Some(b) if b.cost <= candidate.cost => {}
                _ => best = Some(candidate),
            }
        }
        Ok(best.expect("runs >= 1"))
    }
}

/// Result of [`KMeans::fit`].
#[derive(Debug, Clone)]
pub struct KMeansResult {
    /// The best centers found.
    pub centers: Centers,
    /// Weighted k-means cost of those centers on the training points.
    pub cost: f64,
    /// Lloyd iterations of the winning run.
    pub lloyd_iterations: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::kmeans_cost;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn four_blobs() -> PointSet {
        let mut s = PointSet::new(2);
        let anchors = [(0.0, 0.0), (20.0, 0.0), (0.0, 20.0), (20.0, 20.0)];
        for (ax, ay) in anchors {
            for i in 0..16 {
                let dx = f64::from(i % 4) * 0.2;
                let dy = f64::from(i / 4) * 0.2;
                s.push(&[ax + dx, ay + dy], 1.0);
            }
        }
        s
    }

    #[test]
    fn finds_four_blobs() {
        let points = four_blobs();
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let result = KMeans::new(4).with_runs(3).fit(&points, &mut rng).unwrap();
        assert_eq!(result.centers.len(), 4);
        // Within-blob spread is 0.6 x 0.6, so a correct clustering has a
        // tiny cost compared to merging any two blobs (distance 20 apart).
        assert!(result.cost < 50.0, "cost = {}", result.cost);
    }

    #[test]
    fn more_runs_never_hurt() {
        let points = four_blobs();
        let single = KMeans::new(4)
            .with_runs(1)
            .fit(&points, &mut ChaCha8Rng::seed_from_u64(3))
            .unwrap();
        let multi = KMeans::new(4)
            .with_runs(8)
            .fit(&points, &mut ChaCha8Rng::seed_from_u64(3))
            .unwrap();
        // The first run of the multi-run fit uses the same RNG stream as the
        // single run, so best-of-8 can only be at least as good.
        assert!(multi.cost <= single.cost + 1e-9);
    }

    #[test]
    fn reported_cost_is_consistent() {
        let points = four_blobs();
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let result = KMeans::new(3).fit(&points, &mut rng).unwrap();
        let recomputed = kmeans_cost(&points, &result.centers).unwrap();
        assert!((recomputed - result.cost).abs() <= 1e-9 * (1.0 + recomputed));
    }

    #[test]
    fn zero_lloyd_iterations_is_pure_seeding() {
        let points = four_blobs();
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let result = KMeans::new(4)
            .with_max_lloyd_iterations(0)
            .fit(&points, &mut rng)
            .unwrap();
        assert_eq!(result.lloyd_iterations, 0);
        assert!(result.cost.is_finite());
    }

    #[test]
    fn invalid_configs_are_errors() {
        let points = four_blobs();
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        assert!(KMeans::new(0).fit(&points, &mut rng).is_err());
        assert!(KMeans::new(2).with_runs(0).fit(&points, &mut rng).is_err());
        let empty = PointSet::new(2);
        assert!(KMeans::new(2).fit(&empty, &mut rng).is_err());
    }

    #[test]
    fn fit_block_matches_fit_exactly() {
        let points = four_blobs();
        let block = PointBlock::from_point_set(&points);
        let a = KMeans::new(4)
            .with_runs(2)
            .fit(&points, &mut ChaCha8Rng::seed_from_u64(5))
            .unwrap();
        let b = KMeans::new(4)
            .with_runs(2)
            .fit_block(&block, &mut ChaCha8Rng::seed_from_u64(5))
            .unwrap();
        assert_eq!(a.centers.to_rows(), b.centers.to_rows());
        assert!((a.cost - b.cost).abs() < 1e-12);
    }

    #[test]
    fn works_with_fewer_points_than_k() {
        let mut points = PointSet::new(2);
        points.push(&[0.0, 0.0], 1.0);
        points.push(&[5.0, 5.0], 1.0);
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let result = KMeans::new(10).fit(&points, &mut rng).unwrap();
        assert!(result.centers.len() <= 10);
        assert!(result.cost <= 1e-9);
    }
}
