//! CT: the plain r-way coreset-tree streaming clusterer (streamkm++ when
//! `r = 2`).
//!
//! This is the state-of-the-art baseline the paper improves upon. Updates
//! are cheap (amortized `O(dm)` per point, Lemma 3), but a query must union
//! **all** active buckets of the tree — up to `(r−1)·log_r N` coresets — and
//! then run k-means++ on the union, which makes queries expensive when they
//! are frequent.

use crate::clusterer::{QueryStats, StreamingClusterer};
use crate::config::StreamConfig;
use crate::coreset_tree::CoresetTree;
use crate::driver::{extract_centers_block, extract_clustering_result, BucketBuffer};
use crate::publish::ClusteringResult;
use rand::SeedableRng;
use rand_chacha::ChaCha20Rng;
use serde::{Deserialize, Serialize};
use skm_clustering::error::{ClusteringError, Result};
use skm_clustering::{Centers, PointBlock};

/// Streaming clusterer built on the plain r-way coreset tree (Algorithm 2).
///
/// With the default merge degree `r = 2` and bucket size `20·k` this is the
/// streamkm++ configuration used throughout the paper's evaluation.
///
/// The whole clusterer state — configuration, tree, partial bucket and RNG
/// position — is `Serialize`/`Deserialize`, so a snapshot restored via
/// `serde_json` continues the stream bit-identically to an uninterrupted
/// run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CoresetTreeClusterer {
    config: StreamConfig,
    tree: CoresetTree,
    buffer: BucketBuffer,
    rng: ChaCha20Rng,
    last_stats: Option<QueryStats>,
}

impl CoresetTreeClusterer {
    /// Creates a CT clusterer with the given configuration and RNG seed.
    ///
    /// # Errors
    /// Returns an error if the configuration is invalid.
    pub fn new(config: StreamConfig, seed: u64) -> Result<Self> {
        config.validate()?;
        Ok(Self {
            config,
            tree: CoresetTree::new(&config)?,
            buffer: BucketBuffer::new(config.bucket_size)?,
            rng: ChaCha20Rng::seed_from_u64(seed),
            last_stats: None,
        })
    }

    /// The configuration this clusterer was built with.
    #[must_use]
    pub fn config(&self) -> &StreamConfig {
        &self.config
    }

    /// Read access to the underlying coreset tree (used by tests and the
    /// Table 1 reproduction).
    #[must_use]
    pub fn tree(&self) -> &CoresetTree {
        &self.tree
    }

    /// The candidate points a query would hand to k-means++ (as a
    /// norm-cached block): the union of every active tree bucket plus the
    /// partially filled base bucket, whose update-time norm cache is reused
    /// verbatim.
    ///
    /// # Errors
    /// Returns [`ClusteringError::EmptyInput`] when no points have arrived.
    pub fn query_candidates(&mut self) -> Result<(PointBlock, QueryStats)> {
        if self.buffer.points_seen() == 0 {
            return Err(ClusteringError::EmptyInput);
        }
        let dim = self.buffer.dim().unwrap_or(1);
        let (mut union, mut merged, max_level) = self.tree.union_all_block(dim)?;
        if let Some(partial) = self.buffer.partial() {
            if !partial.is_empty() {
                // Append the borrowed partial bucket directly — no
                // bucket-sized clone, and its cached norms ride along.
                union.extend_from_block(partial)?;
                merged += 1;
            }
        }
        let stats = QueryStats {
            coresets_merged: merged,
            candidate_points: union.len(),
            coreset_level: Some(max_level),
            used_cache: false,
            ran_kmeans: true,
        };
        Ok((union, stats))
    }

    /// Candidate points for a time-scoped window over the most recent
    /// `last_points` stream points: the suffix of active tree buckets whose
    /// spans intersect the window, plus the partial base bucket. The `u64`
    /// reports the exact (bucket-granular) coverage. See
    /// [`StreamingClusterer::query_window_clustering`].
    ///
    /// # Errors
    /// Returns [`ClusteringError::EmptyInput`] before the first point and
    /// an `InvalidParameter { name: "window" }` error for invalid windows.
    pub fn query_window_candidates(
        &mut self,
        last_points: u64,
    ) -> Result<(PointBlock, QueryStats, u64)> {
        crate::driver::window_candidates_from_suffix(
            &self.tree.active_coresets(),
            self.tree.buckets_inserted(),
            self.config.bucket_size,
            &self.buffer,
            last_points,
        )
    }

    /// The coverage a windowed query over the most recent `last_points`
    /// points would report, computed from span arithmetic alone (no merge,
    /// no RNG, no state change). `0` before the first point.
    #[must_use]
    pub fn window_coverage(&self, last_points: u64) -> u64 {
        crate::driver::window_coverage_from_suffix(
            &self.tree.active_coresets(),
            self.tree.buckets_inserted(),
            self.config.bucket_size,
            &self.buffer,
            last_points,
        )
    }
}

impl StreamingClusterer for CoresetTreeClusterer {
    fn name(&self) -> &'static str {
        "CT"
    }

    fn update(&mut self, point: &[f64]) -> Result<()> {
        if let Some(full_bucket) = self.buffer.push(point)? {
            self.tree.insert_bucket(full_bucket, &mut self.rng)?;
        }
        Ok(())
    }

    fn update_batch(&mut self, points: &[&[f64]]) -> Result<()> {
        let tree = &mut self.tree;
        let rng = &mut self.rng;
        self.buffer
            .push_batch(points, |full_bucket| tree.insert_bucket(full_bucket, rng))
    }

    fn query(&mut self) -> Result<Centers> {
        let (candidates, stats) = self.query_candidates()?;
        let centers = extract_centers_block(&candidates, &self.config, &mut self.rng)?;
        self.last_stats = Some(stats);
        Ok(centers)
    }

    fn query_clustering(&mut self) -> Result<ClusteringResult> {
        let (candidates, stats) = self.query_candidates()?;
        let result = extract_clustering_result(
            &candidates,
            stats,
            self.buffer.points_seen(),
            &self.config,
            &mut self.rng,
        )?;
        self.last_stats = Some(result.stats);
        Ok(result)
    }

    fn query_window_clustering(&mut self, last_points: u64) -> Result<ClusteringResult> {
        crate::clusterer::validate_window_points(last_points)?;
        if self.buffer.points_seen() == 0 {
            return Err(ClusteringError::EmptyInput);
        }
        if last_points >= self.buffer.points_seen() {
            // Whole-stream windows take the ordinary query path, so the
            // answer (and the RNG trajectory) is bit-identical to an
            // un-windowed query.
            return self.query_clustering();
        }
        let (candidates, stats, covered) = self.query_window_candidates(last_points)?;
        let mut result = extract_clustering_result(
            &candidates,
            stats,
            self.buffer.points_seen(),
            &self.config,
            &mut self.rng,
        )?;
        result.window = Some(crate::publish::WindowInfo {
            last_points,
            covered_points: covered,
        });
        self.last_stats = Some(result.stats);
        Ok(result)
    }

    fn memory_points(&self) -> usize {
        self.tree.stored_points() + self.buffer.buffered_points()
    }

    fn points_seen(&self) -> u64 {
        self.buffer.points_seen()
    }

    fn dim(&self) -> Option<usize> {
        self.buffer.dim()
    }

    fn last_query_stats(&self) -> Option<QueryStats> {
        self.last_stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;
    use rand_chacha::ChaCha8Rng;

    fn feed_clusters(clusterer: &mut impl StreamingClusterer, n: usize, seed: u64) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let anchors = [[0.0, 0.0], [30.0, 0.0], [0.0, 30.0]];
        for i in 0..n {
            let a = anchors[i % anchors.len()];
            let p = [a[0] + rng.gen::<f64>(), a[1] + rng.gen::<f64>()];
            clusterer.update(&p).unwrap();
        }
    }

    #[test]
    fn query_before_any_point_is_error() {
        let mut ct =
            CoresetTreeClusterer::new(StreamConfig::new(3).with_bucket_size(30), 1).unwrap();
        assert!(ct.query().is_err());
    }

    #[test]
    fn query_with_only_partial_bucket_works() {
        let mut ct =
            CoresetTreeClusterer::new(StreamConfig::new(2).with_bucket_size(100), 1).unwrap();
        feed_clusters(&mut ct, 10, 0);
        let centers = ct.query().unwrap();
        assert_eq!(centers.len(), 2);
        let stats = ct.last_query_stats().unwrap();
        assert_eq!(stats.coresets_merged, 1);
        assert_eq!(stats.candidate_points, 10);
    }

    #[test]
    fn finds_well_separated_clusters() {
        let config = StreamConfig::new(3)
            .with_bucket_size(60)
            .with_kmeans_runs(3);
        let mut ct = CoresetTreeClusterer::new(config, 7).unwrap();
        feed_clusters(&mut ct, 3_000, 1);
        let centers = ct.query().unwrap();
        assert_eq!(centers.len(), 3);
        // Each anchor must have a center within distance 2.
        for anchor in [[0.5, 0.5], [30.5, 0.5], [0.5, 30.5]] {
            let closest = centers
                .iter()
                .map(|c| skm_clustering::distance::distance(c, &anchor))
                .fold(f64::INFINITY, f64::min);
            assert!(
                closest < 2.0,
                "anchor {anchor:?} has no nearby center ({closest})"
            );
        }
    }

    #[test]
    fn memory_stays_sublinear() {
        let config = StreamConfig::new(2).with_bucket_size(40);
        let mut ct = CoresetTreeClusterer::new(config, 3).unwrap();
        feed_clusters(&mut ct, 8_000, 2);
        assert_eq!(ct.points_seen(), 8_000);
        // 8000 points / 40 per bucket = 200 buckets; the tree keeps at most
        // (r-1) * m * (log2(200)+1) ≈ 40 * 9 = 360 points.
        assert!(
            ct.memory_points() <= 400,
            "memory {} points is too large",
            ct.memory_points()
        );
    }

    #[test]
    fn stats_reflect_tree_shape() {
        let config = StreamConfig::new(2)
            .with_bucket_size(10)
            .with_kmeans_runs(1);
        let mut ct = CoresetTreeClusterer::new(config, 5).unwrap();
        // 70 points = 7 full buckets = (1,1,1)_2 -> 3 active coresets, no partial.
        feed_clusters(&mut ct, 70, 3);
        ct.query().unwrap();
        let stats = ct.last_query_stats().unwrap();
        assert_eq!(stats.coresets_merged, 3);
        assert_eq!(stats.coreset_level, Some(2));
        assert!(!stats.used_cache);
    }

    #[test]
    fn dimension_mismatch_is_reported() {
        let mut ct =
            CoresetTreeClusterer::new(StreamConfig::new(2).with_bucket_size(30), 1).unwrap();
        ct.update(&[1.0, 2.0]).unwrap();
        assert!(ct.update(&[1.0, 2.0, 3.0]).is_err());
    }

    #[test]
    fn invalid_config_is_rejected() {
        let bad = StreamConfig::new(5).with_bucket_size(2);
        assert!(CoresetTreeClusterer::new(bad, 0).is_err());
    }
}
