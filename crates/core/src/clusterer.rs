//! The [`StreamingClusterer`] trait and query diagnostics.
//!
//! Every algorithm in this crate — the CT baseline, CC, RCC, OnlineCC,
//! Sequential k-means and the batch reference — implements this trait, so
//! the examples and the benchmark harness can treat them uniformly
//! (including through `Box<dyn StreamingClusterer>`).

use crate::publish::ClusteringResult;
use serde::{Deserialize, Serialize};
use skm_clustering::error::{ClusteringError, Result};
use skm_clustering::Centers;

/// A streaming k-means clusterer: consumes points one at a time and answers
/// clustering queries for all points observed so far.
pub trait StreamingClusterer {
    /// Short human-readable algorithm name (for reports: `"CT"`, `"CC"`,
    /// `"RCC"`, `"OnlineCC"`, `"Sequential"`, `"BatchKMeansPP"`).
    fn name(&self) -> &'static str;

    /// Processes one arriving point (unit weight).
    ///
    /// # Errors
    /// Returns an error if the point's dimensionality is inconsistent with
    /// previously observed points or an internal invariant is violated.
    fn update(&mut self, point: &[f64]) -> Result<()>;

    /// Processes a batch of arriving points (unit weight each), in order.
    ///
    /// The default implementation is a per-point [`update`] loop. The
    /// coreset-based algorithms override it to push whole slices into their
    /// bucket buffer's spare capacity — one dimension check and one norm
    /// pass per batch — which is what the sharded ingestion layer
    /// ([`crate::shard::ShardedStream`]) and throughput-sensitive
    /// single-threaded callers use to amortize per-point call overhead.
    ///
    /// Batched ingestion is bit-identical to per-point ingestion (a
    /// property test pins this), so batch boundaries are purely a
    /// throughput knob:
    ///
    /// ```rust
    /// use skm_stream::{CachedCoresetTree, StreamConfig, StreamingClusterer};
    ///
    /// let config = StreamConfig::new(2).with_bucket_size(20).with_kmeans_runs(1);
    /// let mut batched = CachedCoresetTree::new(config, 7).unwrap();
    /// let mut per_point = CachedCoresetTree::new(config, 7).unwrap();
    ///
    /// let points: Vec<Vec<f64>> = (0..50)
    ///     .map(|i| vec![if i % 2 == 0 { 0.0 } else { 100.0 }, f64::from(i % 5)])
    ///     .collect();
    /// let refs: Vec<&[f64]> = points.iter().map(Vec::as_slice).collect();
    ///
    /// batched.update_batch(&refs).unwrap();
    /// for p in &refs {
    ///     per_point.update(p).unwrap();
    /// }
    /// assert_eq!(batched.query().unwrap(), per_point.query().unwrap());
    /// ```
    ///
    /// # Errors
    /// Returns the same errors as [`update`]. Overrides that pre-validate
    /// the batch reject it atomically (no point is consumed); the default
    /// loop stops at the first failing point.
    ///
    /// [`update`]: StreamingClusterer::update
    fn update_batch(&mut self, points: &[&[f64]]) -> Result<()> {
        for point in points {
            self.update(point)?;
        }
        Ok(())
    }

    /// Returns `k` cluster centers for everything observed so far.
    ///
    /// Querying an algorithm that has seen no points is an error.
    ///
    /// # Errors
    /// Returns an error when no points have been observed yet.
    fn query(&mut self) -> Result<Centers>;

    /// Runs a query and returns the complete answer in publishable form:
    /// centers, a coreset-estimated clustering cost, the points-seen
    /// watermark and the query diagnostics
    /// (see [`crate::publish::PublishedClustering`]).
    ///
    /// The coreset-based algorithms override this to compute a genuine cost
    /// estimate (one assignment pass over the query-time candidate set —
    /// deterministic, so the returned centers stay bit-identical to
    /// [`query`]). The default implementation wraps [`query`] with
    /// `cost = NaN`.
    ///
    /// # Errors
    /// Same failure modes as [`query`].
    ///
    /// [`query`]: StreamingClusterer::query
    fn query_clustering(&mut self) -> Result<ClusteringResult> {
        let centers = self.query()?;
        Ok(ClusteringResult {
            centers,
            cost: f64::NAN,
            points_seen: self.points_seen(),
            stats: self.last_query_stats().unwrap_or_default(),
            window: None,
        })
    }

    /// Runs a time-scoped query covering (at least) the most recent
    /// `last_points` stream points, answered from the algorithm's stored
    /// summary structure — no recomputation from raw history.
    ///
    /// A window spanning the whole stream (`last_points >=`
    /// [`points_seen`]) is answered by the ordinary whole-stream
    /// [`query_clustering`] path, bit-identically to never having asked
    /// for a window. Smaller windows select the suffix of stored summaries
    /// (buckets/coresets, plus the partial base bucket) that covers the
    /// window; the answer's [`ClusteringResult::window`] reports the exact
    /// coverage, which is bucket-granular and may exceed `last_points`.
    ///
    /// The default implementation supports only the trivial whole-stream
    /// window and reports an `InvalidParameter { name: "window" }` error
    /// otherwise; the coreset-tree algorithms (CT, CC, RCC, sharded) and
    /// CluStream override it.
    ///
    /// # Errors
    /// Returns an error when `last_points == 0`, when no points have been
    /// observed, or when the backend cannot answer windowed queries.
    ///
    /// [`points_seen`]: StreamingClusterer::points_seen
    /// [`query_clustering`]: StreamingClusterer::query_clustering
    fn query_window_clustering(&mut self, last_points: u64) -> Result<ClusteringResult> {
        validate_window_points(last_points)?;
        if last_points >= self.points_seen() && self.points_seen() > 0 {
            return self.query_clustering();
        }
        Err(ClusteringError::InvalidParameter {
            name: "window",
            message: format!(
                "the {} backend cannot answer windows smaller than the whole stream",
                self.name()
            ),
        })
    }

    /// Number of points currently held by the internal data structures
    /// (coreset tree + cache + partial bucket + …). This is the quantity the
    /// paper reports in Table 4.
    fn memory_points(&self) -> usize;

    /// Number of stream points observed so far.
    fn points_seen(&self) -> u64;

    /// Dimensionality of the stream, once it has been fixed by the first
    /// accepted point (`None` before that, or for algorithms that do not
    /// track it). Serving layers use this to pre-validate whole batches
    /// without consuming any point.
    fn dim(&self) -> Option<usize> {
        None
    }

    /// Diagnostics describing the most recent call to [`query`]
    /// (`None` before the first query).
    ///
    /// [`query`]: StreamingClusterer::query
    fn last_query_stats(&self) -> Option<QueryStats> {
        None
    }

    /// Checks a restored state against its own stream before it serves:
    /// every stored block has the stream's dimension, and a stream with no
    /// dimension yet stores no block. Restore paths run this after
    /// deserializing. The default accepts any state; the clusterers the
    /// serving layer restores (CT, CC, RCC) override it.
    ///
    /// # Errors
    /// `InvalidParameter { name: "snapshot" }` for the first stored block
    /// whose dimension disagrees.
    fn check_restored(&self) -> Result<()> {
        Ok(())
    }
}

/// Rejects a zero-length window before it can reach any summary-selection
/// arithmetic. Shared by every [`StreamingClusterer::query_window_clustering`]
/// implementation so the error (`InvalidParameter { name: "window" }`, which
/// serving layers map to their typed bad-window code) is identical across
/// backends.
///
/// # Errors
/// Returns [`ClusteringError::InvalidParameter`] when `last_points == 0`.
pub fn validate_window_points(last_points: u64) -> Result<()> {
    if last_points == 0 {
        return Err(ClusteringError::InvalidParameter {
            name: "window",
            message: "window must cover at least one point".to_string(),
        });
    }
    Ok(())
}

/// Diagnostics about a single clustering query, used to validate the
/// paper's analytical claims (coresets merged per query, coreset level) and
/// to drive the Table 1 reproduction.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct QueryStats {
    /// Number of stored coresets/buckets that were unioned to answer the
    /// query (CT merges up to `(r−1)·log_r N`, CC at most `r`, RCC `O(ι)`).
    pub coresets_merged: usize,
    /// Number of weighted points handed to k-means++ at query time.
    pub candidate_points: usize,
    /// Level (Definition 2) of the coreset the answer was derived from.
    /// `None` for algorithms that do not build coresets (Sequential, batch).
    pub coreset_level: Option<u32>,
    /// Whether a cached coreset was reused to answer this query.
    pub used_cache: bool,
    /// Whether OnlineCC fell back to the (expensive) CC path; `false` for
    /// other algorithms unless a k-means++ run happened at query time.
    pub ran_kmeans: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_stats_are_empty() {
        let s = QueryStats::default();
        assert_eq!(s.coresets_merged, 0);
        assert_eq!(s.candidate_points, 0);
        assert!(s.coreset_level.is_none());
        assert!(!s.used_cache);
        assert!(!s.ran_kmeans);
    }

    #[test]
    fn stats_fields_round_trip() {
        let s = QueryStats {
            coresets_merged: 3,
            candidate_points: 120,
            coreset_level: Some(2),
            used_cache: true,
            ran_kmeans: true,
        };
        let copy = s;
        assert_eq!(copy, s);
        assert_eq!(s.coreset_level, Some(2));
    }
}
