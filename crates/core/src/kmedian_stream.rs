//! Streaming k-median with coreset caching (extension).
//!
//! The paper's conclusion suggests that the coreset-caching framework
//! extends naturally to streaming k-median. This module provides that
//! extension: [`KMedianCC`] reuses the Cached Coreset Tree (CC) machinery
//! verbatim — the same buckets, merge rule, cache and eviction policy — and
//! only changes the query-side extraction step, replacing k-means++ /
//! Lloyd by D-sampling seeding and Weiszfeld (geometric-median) refinement.
//!
//! This works because the k-means++-style coreset construction preserves
//! weighted point mass per region; a summary that approximates the k-means
//! objective for all center sets also approximates the k-median objective
//! up to slightly weaker constants (formally, via the standard
//! `D(x,Ψ) ≤ √(D²(x,Ψ))` relation and the bounded diameter of each
//! assignment cell), which is sufficient for the qualitative behaviour the
//! extension aims to demonstrate.

use crate::cc::CachedCoresetTree;
use crate::clusterer::{QueryStats, StreamingClusterer};
use crate::config::StreamConfig;
use rand::SeedableRng;
use rand_chacha::ChaCha20Rng;
use skm_clustering::error::Result;
use skm_clustering::kmedian::{kmedian_refine, kmedianpp};
use skm_clustering::Centers;

/// Streaming k-median clusterer built on the CC structure.
#[derive(Debug, Clone)]
pub struct KMedianCC {
    config: StreamConfig,
    inner: CachedCoresetTree,
    rng: ChaCha20Rng,
    /// Rounds of assign/re-median refinement at query time.
    refine_rounds: usize,
    /// Weiszfeld iterations per refinement round.
    weiszfeld_iterations: usize,
    last_stats: Option<QueryStats>,
}

impl KMedianCC {
    /// Creates a streaming k-median clusterer with the given configuration.
    ///
    /// # Errors
    /// Returns an error if the configuration is invalid.
    pub fn new(config: StreamConfig, seed: u64) -> Result<Self> {
        config.validate()?;
        Ok(Self {
            config,
            inner: CachedCoresetTree::new(config, seed.wrapping_add(17))?,
            rng: ChaCha20Rng::seed_from_u64(seed),
            refine_rounds: 3,
            weiszfeld_iterations: 20,
            last_stats: None,
        })
    }

    /// Overrides the number of refinement rounds used at query time.
    #[must_use]
    pub fn with_refine_rounds(mut self, rounds: usize) -> Self {
        self.refine_rounds = rounds;
        self
    }

    /// Overrides the Weiszfeld iteration count per refinement round.
    #[must_use]
    pub fn with_weiszfeld_iterations(mut self, iterations: usize) -> Self {
        self.weiszfeld_iterations = iterations;
        self
    }

    /// The configuration this clusterer was built with.
    #[must_use]
    pub fn config(&self) -> &StreamConfig {
        &self.config
    }
}

impl StreamingClusterer for KMedianCC {
    fn name(&self) -> &'static str {
        "KMedianCC"
    }

    fn update(&mut self, point: &[f64]) -> Result<()> {
        self.inner.update(point)
    }

    fn query(&mut self) -> Result<Centers> {
        // k-median works on plain Euclidean (not squared) distances, so the
        // candidates' norm cache goes unused.
        let (candidates, mut stats) = self.inner.query_candidates()?;
        let seeded = kmedianpp(&candidates, self.config.k, &mut self.rng)?;
        let (centers, _cost) = if self.refine_rounds == 0 {
            let cost = skm_clustering::kmedian::kmedian_cost(&candidates, &seeded)?;
            (seeded, cost)
        } else {
            kmedian_refine(
                &candidates,
                &seeded,
                self.refine_rounds,
                self.weiszfeld_iterations,
            )?
        };
        stats.ran_kmeans = true;
        self.last_stats = Some(stats);
        Ok(centers)
    }

    fn memory_points(&self) -> usize {
        self.inner.memory_points()
    }

    fn points_seen(&self) -> u64 {
        self.inner.points_seen()
    }

    fn last_query_stats(&self) -> Option<QueryStats> {
        self.last_stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;
    use skm_clustering::kmedian::kmedian_cost;
    use skm_clustering::PointBlock;

    fn config(k: usize) -> StreamConfig {
        StreamConfig::new(k)
            .with_bucket_size(20 * k)
            .with_kmeans_runs(1)
            .with_lloyd_iterations(2)
    }

    #[test]
    fn query_before_points_is_error() {
        let mut km = KMedianCC::new(config(3), 0).unwrap();
        assert!(km.query().is_err());
    }

    #[test]
    fn finds_separated_clusters() {
        let mut km = KMedianCC::new(config(3), 7).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let anchors = [[0.0, 0.0], [60.0, 0.0], [0.0, 60.0]];
        for i in 0..2_400usize {
            let a = anchors[i % 3];
            km.update(&[a[0] + rng.gen::<f64>(), a[1] + rng.gen::<f64>()])
                .unwrap();
        }
        let centers = km.query().unwrap();
        assert_eq!(centers.len(), 3);
        for anchor in [[0.5, 0.5], [60.5, 0.5], [0.5, 60.5]] {
            let nearest = centers
                .iter()
                .map(|c| skm_clustering::distance::distance(c, &anchor))
                .fold(f64::INFINITY, f64::min);
            assert!(nearest < 3.0, "anchor {anchor:?} missed by {nearest}");
        }
    }

    #[test]
    fn kmedian_centers_are_more_robust_to_outliers_than_kmeans() {
        // A single extreme outlier: the k-median center of the main blob
        // should stay near the blob; the (k=1) k-means center is dragged
        // noticeably toward the outlier.
        let mut km = KMedianCC::new(config(1).with_bucket_size(50), 3).unwrap();
        let mut cc = CachedCoresetTree::new(config(1).with_bucket_size(50), 3).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let mut all = PointBlock::new(1);
        for i in 0..600usize {
            let p = if i == 300 {
                [100_000.0]
            } else {
                [rng.gen::<f64>()]
            };
            km.update(&p).unwrap();
            cc.update(&p).unwrap();
            all.push(&p, 1.0);
        }
        let median_center = km.query().unwrap().center(0)[0];
        let mean_center = cc.query().unwrap().center(0)[0];
        assert!(
            median_center < 10.0,
            "k-median center {median_center} should ignore the outlier"
        );
        assert!(
            mean_center > median_center,
            "k-means center {mean_center} should be pulled further than {median_center}"
        );
    }

    #[test]
    fn memory_matches_inner_cc() {
        let mut km = KMedianCC::new(config(4), 11).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(13);
        for _ in 0..2_000 {
            km.update(&[rng.gen::<f64>(), rng.gen::<f64>(), rng.gen::<f64>()])
                .unwrap();
        }
        assert_eq!(km.points_seen(), 2_000);
        assert!(km.memory_points() < 1_000);
        km.query().unwrap();
        let mut probe = PointBlock::new(3);
        probe.push(&[0.5; 3], 1.0);
        let cost_probe = kmedian_cost(&probe, &km.query().unwrap()).unwrap();
        assert!(cost_probe.is_finite());
    }
}
