//! CluStream-style micro-cluster baseline (extension).
//!
//! The paper's related-work section discusses CluStream (Aggarwal et al.,
//! VLDB 2003), which "constructs micro-clusters that summarize subsets of
//! the stream, and further applies a weighted k-means algorithm on the
//! micro-clusters" — and notes that such methods also pay a non-trivial
//! cost at query time. This module implements the online half of CluStream
//! as an additional baseline for the benchmark harness:
//!
//! * A fixed budget of `q` micro-clusters, each a cluster-feature vector
//!   `(n, Σx, Σx²)` from which centroid and RMS radius are derived.
//! * A new point is absorbed by the nearest micro-cluster if it falls within
//!   `boundary_factor ×` that cluster's RMS radius; otherwise a new
//!   micro-cluster is created and, to stay within budget, the two closest
//!   existing micro-clusters are merged.
//! * A query runs weighted k-means++ (plus Lloyd) over the micro-cluster
//!   centroids, weighted by their point counts.

use crate::clusterer::{QueryStats, StreamingClusterer};
use crate::config::StreamConfig;
use crate::driver::extract_centers_block;
use crate::publish::ClusteringResult;
use rand::SeedableRng;
use rand_chacha::ChaCha20Rng;
use skm_clustering::distance::squared_distance;
use skm_clustering::error::{ClusteringError, Result};
use skm_clustering::{Centers, PointBlock};

/// One micro-cluster: a cluster feature (CF) vector.
#[derive(Debug, Clone)]
struct MicroCluster {
    /// Number of points absorbed.
    count: f64,
    /// Per-dimension linear sum `Σ x`.
    linear_sum: Vec<f64>,
    /// Sum of squared norms `Σ ‖x‖²` (sufficient for the RMS radius).
    squared_norm_sum: f64,
    /// Arrival index (1-based) of the most recent point absorbed; merges
    /// keep the max. This is the CluStream temporal component reduced to
    /// what time-scoped window queries need: selecting every micro-cluster
    /// that can contain a window point.
    last_update: u64,
}

impl MicroCluster {
    fn from_point(point: &[f64], now: u64) -> Self {
        Self {
            count: 1.0,
            linear_sum: point.to_vec(),
            squared_norm_sum: point.iter().map(|x| x * x).sum(),
            last_update: now,
        }
    }

    fn centroid(&self) -> Vec<f64> {
        self.linear_sum.iter().map(|s| s / self.count).collect()
    }

    /// Root-mean-square deviation of absorbed points from the centroid.
    fn rms_radius(&self) -> f64 {
        let centroid_norm2: f64 = self
            .linear_sum
            .iter()
            .map(|s| (s / self.count) * (s / self.count))
            .sum();
        let variance = (self.squared_norm_sum / self.count - centroid_norm2).max(0.0);
        variance.sqrt()
    }

    fn absorb(&mut self, point: &[f64], now: u64) {
        self.count += 1.0;
        for (s, x) in self.linear_sum.iter_mut().zip(point) {
            *s += x;
        }
        self.squared_norm_sum += point.iter().map(|x| x * x).sum::<f64>();
        self.last_update = now;
    }

    fn merge(&mut self, other: &MicroCluster) {
        self.count += other.count;
        for (s, o) in self.linear_sum.iter_mut().zip(&other.linear_sum) {
            *s += o;
        }
        self.squared_norm_sum += other.squared_norm_sum;
        self.last_update = self.last_update.max(other.last_update);
    }
}

/// CluStream-style streaming clusterer.
#[derive(Debug, Clone)]
pub struct CluStream {
    config: StreamConfig,
    /// Maximum number of micro-clusters kept online.
    max_micro_clusters: usize,
    /// Multiplier on the RMS radius used as the absorption boundary.
    boundary_factor: f64,
    micro_clusters: Vec<MicroCluster>,
    points_seen: u64,
    dim: Option<usize>,
    rng: ChaCha20Rng,
    last_stats: Option<QueryStats>,
}

impl CluStream {
    /// Creates a CluStream baseline. The micro-cluster budget defaults to
    /// `10·k` (the factor recommended by the CluStream paper) and the
    /// boundary factor to 2.0.
    ///
    /// # Errors
    /// Returns an error if the configuration is invalid.
    pub fn new(config: StreamConfig, seed: u64) -> Result<Self> {
        config.validate()?;
        Ok(Self {
            config,
            max_micro_clusters: 10 * config.k,
            boundary_factor: 2.0,
            micro_clusters: Vec::new(),
            points_seen: 0,
            dim: None,
            rng: ChaCha20Rng::seed_from_u64(seed),
            last_stats: None,
        })
    }

    /// Overrides the micro-cluster budget.
    #[must_use]
    pub fn with_max_micro_clusters(mut self, budget: usize) -> Self {
        self.max_micro_clusters = budget.max(self.config.k);
        self
    }

    /// Overrides the absorption boundary factor.
    #[must_use]
    pub fn with_boundary_factor(mut self, factor: f64) -> Self {
        self.boundary_factor = factor.max(0.0);
        self
    }

    /// Current number of micro-clusters.
    #[must_use]
    pub fn micro_cluster_count(&self) -> usize {
        self.micro_clusters.len()
    }

    /// Index of the micro-cluster whose centroid is nearest to `point`.
    fn nearest_micro_cluster(&self, point: &[f64]) -> Option<(usize, f64)> {
        let mut best = None;
        for (i, mc) in self.micro_clusters.iter().enumerate() {
            let d2 = squared_distance(point, &mc.centroid());
            match best {
                Some((_, bd)) if bd <= d2 => {}
                _ => best = Some((i, d2)),
            }
        }
        best
    }

    /// Merges the two closest micro-clusters to free one budget slot.
    fn merge_closest_pair(&mut self) {
        if self.micro_clusters.len() < 2 {
            return;
        }
        let mut best = (0usize, 1usize, f64::INFINITY);
        let centroids: Vec<Vec<f64>> = self
            .micro_clusters
            .iter()
            .map(MicroCluster::centroid)
            .collect();
        for i in 0..centroids.len() {
            for j in (i + 1)..centroids.len() {
                let d2 = squared_distance(&centroids[i], &centroids[j]);
                if d2 < best.2 {
                    best = (i, j, d2);
                }
            }
        }
        let (i, j, _) = best;
        let absorbed = self.micro_clusters.swap_remove(j);
        self.micro_clusters[i].merge(&absorbed);
    }

    /// Weighted summary of the current micro-clusters (centroid + count).
    ///
    /// # Errors
    /// [`ClusteringError::InvalidWeight`] if a micro-cluster count is not
    /// finite.
    fn summary(&self) -> Result<PointBlock> {
        let dim = self.dim.unwrap_or(1);
        let mut set = PointBlock::with_capacity(dim, self.micro_clusters.len());
        for mc in &self.micro_clusters {
            set.try_push(&mc.centroid(), mc.count)?;
        }
        Ok(set)
    }
}

impl StreamingClusterer for CluStream {
    fn name(&self) -> &'static str {
        "CluStream"
    }

    fn update(&mut self, point: &[f64]) -> Result<()> {
        if point.is_empty() {
            return Err(ClusteringError::InvalidParameter {
                name: "point",
                message: "points must have at least one dimension".to_string(),
            });
        }
        match self.dim {
            None => self.dim = Some(point.len()),
            Some(d) if d != point.len() => {
                return Err(ClusteringError::DimensionMismatch {
                    expected: d,
                    got: point.len(),
                });
            }
            Some(_) => {}
        }
        self.points_seen += 1;

        if let Some((idx, d2)) = self.nearest_micro_cluster(point) {
            let mc = &self.micro_clusters[idx];
            let boundary = if mc.count > 1.0 {
                self.boundary_factor * mc.rms_radius()
            } else {
                // A singleton has no radius of its own; CluStream uses the
                // distance to the closest *other* micro-cluster as a proxy.
                // Half that gap keeps a lone seed from swallowing points that
                // belong to a different cluster. With no other micro-cluster
                // yet, the boundary is zero and a new micro-cluster is
                // created instead.
                let own_centroid = mc.centroid();
                let nearest_other = self
                    .micro_clusters
                    .iter()
                    .enumerate()
                    .filter(|(j, _)| *j != idx)
                    .map(|(_, other)| squared_distance(&own_centroid, &other.centroid()).sqrt())
                    .fold(f64::INFINITY, f64::min);
                if nearest_other.is_finite() {
                    0.5 * nearest_other
                } else {
                    0.0
                }
            };
            if boundary > 0.0 && d2.sqrt() <= boundary {
                let now = self.points_seen;
                self.micro_clusters[idx].absorb(point, now);
                return Ok(());
            }
        }
        // Start a new micro-cluster; stay within budget by merging the
        // closest pair.
        self.micro_clusters
            .push(MicroCluster::from_point(point, self.points_seen));
        if self.micro_clusters.len() > self.max_micro_clusters {
            self.merge_closest_pair();
        }
        Ok(())
    }

    fn query(&mut self) -> Result<Centers> {
        if self.points_seen == 0 {
            return Err(ClusteringError::EmptyInput);
        }
        let summary = self.summary()?;
        let centers = extract_centers_block(&summary, &self.config, &mut self.rng)?;
        self.last_stats = Some(QueryStats {
            coresets_merged: 0,
            candidate_points: summary.len(),
            coreset_level: None,
            used_cache: false,
            ran_kmeans: true,
        });
        Ok(centers)
    }

    fn query_window_clustering(&mut self, last_points: u64) -> Result<ClusteringResult> {
        crate::clusterer::validate_window_points(last_points)?;
        if self.points_seen == 0 {
            return Err(ClusteringError::EmptyInput);
        }
        if last_points >= self.points_seen {
            // Whole-stream windows take the ordinary query path,
            // bit-identical to an un-windowed query.
            return self.query_clustering();
        }
        // Every window point was absorbed into a micro-cluster whose
        // recency stamp is at least that point's arrival index, so
        // selecting by stamp covers the window; older points absorbed into
        // the same micro-clusters widen the coverage, which is reported
        // honestly (like the coreset backends' bucket granularity).
        let cutoff = self.points_seen - last_points;
        let dim = self.dim.unwrap_or(1);
        let mut summary = PointBlock::with_capacity(dim, self.micro_clusters.len());
        let mut covered = 0.0f64;
        for mc in &self.micro_clusters {
            if mc.last_update > cutoff {
                summary.try_push(&mc.centroid(), mc.count)?;
                covered += mc.count;
            }
        }
        if summary.is_empty() {
            // Unreachable — the most recent arrival always stamps its
            // micro-cluster past any strict cutoff — but refuse rather
            // than panic inside k-means++ if the invariant ever breaks.
            return Err(ClusteringError::EmptyInput);
        }
        let centers = extract_centers_block(&summary, &self.config, &mut self.rng)?;
        let stats = QueryStats {
            coresets_merged: 0,
            candidate_points: summary.len(),
            coreset_level: None,
            used_cache: false,
            ran_kmeans: true,
        };
        self.last_stats = Some(stats);
        Ok(ClusteringResult {
            centers,
            cost: f64::NAN,
            points_seen: self.points_seen,
            stats,
            window: Some(crate::publish::WindowInfo {
                last_points,
                covered_points: covered as u64,
            }),
        })
    }

    fn memory_points(&self) -> usize {
        self.micro_clusters.len()
    }

    fn points_seen(&self) -> u64 {
        self.points_seen
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

    fn config(k: usize) -> StreamConfig {
        StreamConfig::new(k)
            .with_bucket_size(20 * k)
            .with_kmeans_runs(1)
            .with_lloyd_iterations(3)
    }

    #[test]
    fn query_before_points_is_error() {
        let mut c = CluStream::new(config(3), 0).unwrap();
        assert!(c.query().is_err());
    }

    #[test]
    fn micro_cluster_budget_is_respected() {
        let mut c = CluStream::new(config(3), 0)
            .unwrap()
            .with_max_micro_clusters(15);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        for _ in 0..2_000 {
            c.update(&[rng.gen::<f64>() * 100.0, rng.gen::<f64>() * 100.0])
                .unwrap();
            assert!(c.micro_cluster_count() <= 15);
        }
        assert_eq!(c.points_seen(), 2_000);
        assert_eq!(c.memory_points(), c.micro_cluster_count());
    }

    #[test]
    fn finds_separated_clusters() {
        let mut c = CluStream::new(config(3), 7).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let anchors = [[0.0, 0.0], [50.0, 0.0], [0.0, 50.0]];
        for i in 0..3_000usize {
            let a = anchors[i % 3];
            c.update(&[a[0] + rng.gen::<f64>(), a[1] + rng.gen::<f64>()])
                .unwrap();
        }
        let centers = c.query().unwrap();
        assert_eq!(centers.len(), 3);
        for anchor in [[0.5, 0.5], [50.5, 0.5], [0.5, 50.5]] {
            let nearest = centers
                .iter()
                .map(|c| skm_clustering::distance::distance(c, &anchor))
                .fold(f64::INFINITY, f64::min);
            assert!(nearest < 3.0, "anchor {anchor:?} missed by {nearest}");
        }
    }

    #[test]
    fn points_in_a_tight_blob_stay_within_the_budget() {
        let mut c = CluStream::new(config(2), 3).unwrap();
        let budget = 10 * 2;
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        for _ in 0..1_000 {
            c.update(&[5.0 + rng.gen::<f64>() * 0.01, 5.0]).unwrap();
            assert!(c.micro_cluster_count() <= budget);
        }
        // Most of the 1000 points were absorbed rather than proliferating
        // micro-clusters (the budget caps the count; absorption keeps the
        // total mass in place).
        assert!(c.micro_cluster_count() <= budget);
        assert_eq!(c.points_seen(), 1_000);
        let centers = c.query().unwrap();
        // Every center sits on the blob.
        for center in centers.iter() {
            assert!((center[0] - 5.0).abs() < 0.1, "center {center:?}");
            assert!((center[1] - 5.0).abs() < 0.1, "center {center:?}");
        }
    }

    #[test]
    fn dimension_mismatch_is_error() {
        let mut c = CluStream::new(config(2), 0).unwrap();
        c.update(&[1.0, 2.0]).unwrap();
        assert!(c.update(&[1.0]).is_err());
        assert!(c.update(&[]).is_err());
    }

    #[test]
    fn micro_cluster_cf_algebra() {
        let mut mc = MicroCluster::from_point(&[1.0, 1.0], 1);
        mc.absorb(&[3.0, 1.0], 2);
        assert_eq!(mc.count, 2.0);
        assert_eq!(mc.centroid(), vec![2.0, 1.0]);
        assert_eq!(mc.last_update, 2);
        // Points are at distance 1 from the centroid -> RMS radius 1.
        assert!((mc.rms_radius() - 1.0).abs() < 1e-9);
        let other = MicroCluster::from_point(&[2.0, 4.0], 5);
        mc.merge(&other);
        assert_eq!(mc.count, 3.0);
        assert_eq!(mc.centroid(), vec![2.0, 2.0]);
        // Merges keep the most recent stamp.
        assert_eq!(mc.last_update, 5);
    }

    #[test]
    fn window_query_selects_recent_micro_clusters() {
        let mut c = CluStream::new(config(2), 11).unwrap();
        // Phase 1: a blob at the origin; phase 2: a blob far away. A window
        // covering only phase 2 must answer from phase-2 micro-clusters.
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        for _ in 0..500 {
            c.update(&[rng.gen::<f64>(), rng.gen::<f64>()]).unwrap();
        }
        for _ in 0..500 {
            c.update(&[100.0 + rng.gen::<f64>(), 100.0 + rng.gen::<f64>()])
                .unwrap();
        }
        let result = c.query_window_clustering(400).unwrap();
        let info = result.window.unwrap();
        assert_eq!(info.last_points, 400);
        assert!(info.covered_points >= 400, "coverage {info:?}");
        // Every returned center sits on the recent blob, not the origin.
        for center in result.centers.iter() {
            assert!(center[0] > 50.0, "stale center {center:?}");
            assert!(center[1] > 50.0, "stale center {center:?}");
        }
        // A whole-stream window is the ordinary query (no window info).
        let whole = c.query_window_clustering(10_000).unwrap();
        assert!(whole.window.is_none());
        // Zero windows are rejected.
        assert!(c.query_window_clustering(0).is_err());
    }
}
