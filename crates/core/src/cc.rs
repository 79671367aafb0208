//! CC: the coreset tree with caching (Algorithm 3) — the paper's first
//! contribution.
//!
//! CC performs exactly the same updates as CT, but answers queries by
//! reusing a coreset cached at a previous query. When `N` base buckets have
//! arrived, the interval `[1, N]` is split as `[1, N₁] ∪ [N₁+1, N]` where
//! `N₁ = major(N, r)`: the prefix `[1, N₁]` is fetched from the cache (it was
//! stored by an earlier query, Lemma 4) and the suffix `[N₁+1, N]` consists
//! of at most `r − 1` coresets that all sit in a single level of the tree.
//! A query therefore merges at most `r` coresets instead of up to
//! `(r−1)·log_r N` (Lemma 7), while the level of the returned coreset stays
//! below `⌈2·log_r N⌉` (Lemma 5), preserving the `O(log k)` approximation
//! guarantee (Lemma 6).

use crate::cache::CoresetCache;
use crate::clusterer::{QueryStats, StreamingClusterer};
use crate::config::StreamConfig;
use crate::coreset_tree::CoresetTree;
use crate::driver::{
    check_stored_dims, extract_centers_block, extract_clustering_result, BucketBuffer,
};
use crate::numeric::{major, minor_term};
use crate::publish::ClusteringResult;
use rand::SeedableRng;
use rand_chacha::ChaCha20Rng;
use serde::{Deserialize, Serialize};
use skm_clustering::error::{ClusteringError, Result};
use skm_clustering::{Centers, PointBlock};
use skm_coreset::coreset::Coreset;
use skm_coreset::merge::merge_coresets;

/// Streaming clusterer implementing the Cached Coreset Tree (CC).
///
/// The whole clusterer state — configuration, tree, cache, partial bucket
/// and RNG position — is `Serialize`/`Deserialize`, so a snapshot restored
/// via `serde_json` continues the stream bit-identically to an
/// uninterrupted run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CachedCoresetTree {
    config: StreamConfig,
    tree: CoresetTree,
    cache: CoresetCache,
    buffer: BucketBuffer,
    rng: ChaCha20Rng,
    last_stats: Option<QueryStats>,
}

impl CachedCoresetTree {
    /// Creates a CC clusterer with the given configuration and RNG seed.
    ///
    /// # Errors
    /// Returns an error if the configuration is invalid.
    pub fn new(config: StreamConfig, seed: u64) -> Result<Self> {
        config.validate()?;
        Ok(Self {
            config,
            tree: CoresetTree::new(&config)?,
            cache: CoresetCache::new(),
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

    /// The underlying coreset tree (tests and diagnostics).
    #[must_use]
    pub fn tree(&self) -> &CoresetTree {
        &self.tree
    }

    /// The coreset cache (tests and diagnostics).
    #[must_use]
    pub fn cache(&self) -> &CoresetCache {
        &self.cache
    }

    /// `CC-Coreset` (Algorithm 3): returns a single coreset whose span is
    /// `[1, N]`, reusing the cache where possible, and maintains the cache
    /// (insert under key `N`, evict stale entries).
    ///
    /// Returns `None` when no complete base bucket has been inserted yet
    /// (`N = 0`); the caller then answers the query from the partial bucket
    /// alone.
    ///
    /// # Errors
    /// Propagates coreset-construction failures.
    pub fn query_coreset(&mut self) -> Result<Option<(Coreset, QueryStats)>> {
        let n = self.tree.buckets_inserted();
        if n == 0 {
            return Ok(None);
        }
        let r = self.tree.merge_degree();

        // Case 0: the coreset for [1, N] is already cached (repeated query
        // with no new complete bucket in between).
        if let Some(cached) = self.cache.lookup(n) {
            let stats = QueryStats {
                coresets_merged: 1,
                candidate_points: cached.len(),
                coreset_level: Some(cached.level()),
                used_cache: true,
                ran_kmeans: false,
            };
            return Ok(Some((cached.clone(), stats)));
        }

        let n1 = major(n, r);
        let prefix = if n1 == 0 { None } else { self.cache.lookup(n1) };
        let (inputs, used_cache): (Vec<Coreset>, bool) = match (prefix, minor_term(n, r)) {
            (Some(prefix), Some(minor)) => {
                // The suffix [N1+1, N] lives entirely at level α of the tree,
                // where minor(N, r) = β·r^α (all lower levels are empty
                // because the corresponding digits of N are zero).
                let suffix = self.tree.level(minor.alpha as usize);
                let mut v = Vec::with_capacity(1 + suffix.len());
                v.push(prefix.clone());
                v.extend(suffix.iter().cloned());
                (v, true)
            }
            // Fall back to the plain CT query: union every active bucket.
            // (This happens when queries are infrequent and the cache has
            // not been maintained recently — Section 4.1.)
            _ => (
                self.tree.active_coresets().into_iter().cloned().collect(),
                false,
            ),
        };

        debug_assert!(
            !inputs.is_empty(),
            "N > 0 implies at least one active bucket"
        );
        let merged_count = inputs.len();
        let reduced = merge_coresets(&inputs, self.tree.builder(), &mut self.rng)?;
        debug_assert_eq!(reduced.span().start(), 1);
        debug_assert_eq!(reduced.span().end(), n);

        let stats = QueryStats {
            coresets_merged: merged_count,
            candidate_points: reduced.len(),
            coreset_level: Some(reduced.level()),
            used_cache,
            ran_kmeans: false,
        };

        // Maintain the cache: store the new coreset under key N and drop
        // everything outside prefixsum(N, r) ∪ {N}.
        self.cache.insert(reduced.clone());
        self.cache.evict_stale(n, r);

        Ok(Some((reduced, stats)))
    }

    /// The candidate points a query hands to k-means++ (as a norm-cached
    /// block): the CC coreset for `[1, N]` unioned with the partially
    /// filled base bucket; both bring their cached norms along.
    ///
    /// # Errors
    /// Returns [`ClusteringError::EmptyInput`] when no points have arrived.
    pub fn query_candidates(&mut self) -> Result<(PointBlock, QueryStats)> {
        if self.buffer.points_seen() == 0 {
            return Err(ClusteringError::EmptyInput);
        }
        match self.query_coreset()? {
            Some((coreset, mut stats)) => {
                let mut candidates = coreset.into_points();
                if let Some(p) = self.buffer.partial() {
                    if !p.is_empty() {
                        // Borrowed append — no bucket-sized clone per query,
                        // and the buffered points' norms ride along.
                        candidates.extend_from_block(p)?;
                        stats.coresets_merged += 1;
                    }
                }
                stats.candidate_points = candidates.len();
                stats.ran_kmeans = true;
                Ok((candidates, stats))
            }
            None => {
                let candidates = self
                    .buffer
                    .partial()
                    .cloned()
                    .ok_or(ClusteringError::EmptyInput)?;
                let stats = QueryStats {
                    coresets_merged: 1,
                    candidate_points: candidates.len(),
                    coreset_level: Some(0),
                    used_cache: false,
                    ran_kmeans: true,
                };
                Ok((candidates, stats))
            }
        }
    }

    /// Candidate points for a time-scoped window over the most recent
    /// `last_points` stream points: the suffix of active *tree* buckets
    /// whose spans intersect the window, plus the partial base bucket.
    /// The coreset cache is keyed by prefix right-endpoints (`[1, e]`), so
    /// suffix windows bypass it — selection is pure bookkeeping with no
    /// merge and no RNG use. The `u64` reports the exact (bucket-granular)
    /// coverage.
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
    /// no RNG, no cache traffic). `0` before the first point.
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

impl StreamingClusterer for CachedCoresetTree {
    fn name(&self) -> &'static str {
        "CC"
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
            // Whole-stream windows take the ordinary (cached) query path,
            // bit-identical to an un-windowed query.
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
        self.tree.stored_points() + self.cache.stored_points() + self.buffer.buffered_points()
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

    fn check_restored(&self) -> Result<()> {
        check_stored_dims(
            self.buffer.dim(),
            self.tree
                .active_coresets()
                .into_iter()
                .chain(self.cache.coresets()),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::numeric::{ceil_log, prefixsum};
    use rand::Rng;
    use rand_chacha::ChaCha8Rng;

    fn config(k: usize, m: usize, r: u64) -> StreamConfig {
        StreamConfig::new(k)
            .with_bucket_size(m)
            .with_merge_degree(r)
            .with_kmeans_runs(1)
            .with_lloyd_iterations(2)
    }

    fn push_random_points(cc: &mut CachedCoresetTree, n: usize, seed: u64) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let anchors = [[0.0, 0.0], [40.0, 0.0], [0.0, 40.0], [40.0, 40.0]];
        for i in 0..n {
            let a = anchors[i % anchors.len()];
            cc.update(&[a[0] + rng.gen::<f64>(), a[1] + rng.gen::<f64>()])
                .unwrap();
        }
    }

    #[test]
    fn query_before_any_point_is_error() {
        let mut cc = CachedCoresetTree::new(config(2, 20, 2), 0).unwrap();
        assert!(cc.query().is_err());
    }

    #[test]
    fn query_with_partial_bucket_only() {
        let mut cc = CachedCoresetTree::new(config(2, 100, 2), 0).unwrap();
        push_random_points(&mut cc, 12, 1);
        let centers = cc.query().unwrap();
        assert_eq!(centers.len(), 2);
        let stats = cc.last_query_stats().unwrap();
        assert_eq!(stats.coreset_level, Some(0));
        assert!(!stats.used_cache);
    }

    #[test]
    fn lemma_4_cache_holds_prefixsum_when_queried_every_bucket() {
        // Query after every base bucket; before bucket N+1 arrives, the
        // cache must contain every element of prefixsum(N+1, r).
        let m = 10;
        let r = 2;
        let mut cc = CachedCoresetTree::new(config(2, m, r), 3).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        for bucket in 1..=32u64 {
            for _ in 0..m {
                cc.update(&[rng.gen::<f64>(), rng.gen::<f64>()]).unwrap();
            }
            cc.query().unwrap();
            // After the query at N = bucket, the cache must cover
            // prefixsum(N + 1, r) (Lemma 4 + Fact 2).
            for needed in prefixsum(bucket + 1, r) {
                assert!(
                    cc.cache().contains(needed),
                    "after bucket {bucket}: cache {:?} missing {needed}",
                    cc.cache().keys()
                );
            }
        }
    }

    #[test]
    fn lemma_5_coreset_level_bound() {
        // When queried after every bucket, the level of the returned coreset
        // is at most ceil(2 * log_r N) - 1... we check the slightly weaker
        // bound ceil(log_r N) + chi(N) - 1 <= 2*ceil(log_r N) from the proof.
        let m = 8;
        for r in [2u64, 3] {
            let mut cc = CachedCoresetTree::new(config(2, m, r), 11).unwrap();
            let mut rng = ChaCha8Rng::seed_from_u64(13);
            for bucket in 1..=40u64 {
                for _ in 0..m {
                    cc.update(&[rng.gen::<f64>(), rng.gen::<f64>()]).unwrap();
                }
                cc.query().unwrap();
                let stats = cc.last_query_stats().unwrap();
                let level = stats.coreset_level.unwrap();
                let bound = 2 * ceil_log(bucket, r).max(1);
                assert!(
                    level <= bound,
                    "r={r} N={bucket}: level {level} exceeds 2*ceil(log_r N) = {bound}"
                );
            }
        }
    }

    #[test]
    fn lemma_7_queries_merge_at_most_r_plus_partial() {
        // With queries after every bucket, CC must merge at most r coresets
        // (plus possibly the partial base bucket).
        let m = 10;
        let r = 3u64;
        let mut cc = CachedCoresetTree::new(config(2, m, r), 17).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(19);
        for _bucket in 1..=50u64 {
            for _ in 0..m {
                cc.update(&[rng.gen::<f64>(), rng.gen::<f64>()]).unwrap();
            }
            cc.query().unwrap();
            let stats = cc.last_query_stats().unwrap();
            assert!(
                stats.coresets_merged <= r as usize + 1,
                "merged {} coresets, expected at most r + 1 = {}",
                stats.coresets_merged,
                r + 1
            );
        }
    }

    #[test]
    fn infrequent_queries_fall_back_to_ct_and_still_work() {
        let m = 10;
        let mut cc = CachedCoresetTree::new(config(3, m, 2), 23).unwrap();
        push_random_points(&mut cc, 640, 29);
        // First query ever, after 64 buckets: cache is empty, must fall back.
        let centers = cc.query().unwrap();
        assert_eq!(centers.len(), 3);
        let stats = cc.last_query_stats().unwrap();
        assert!(!stats.used_cache);
        // Second immediate query hits the cache entry stored by the first.
        cc.query().unwrap();
        assert!(cc.last_query_stats().unwrap().used_cache);
    }

    #[test]
    fn clusters_are_found_accurately() {
        let mut cc = CachedCoresetTree::new(
            StreamConfig::new(4)
                .with_bucket_size(80)
                .with_kmeans_runs(3),
            31,
        )
        .unwrap();
        push_random_points(&mut cc, 4_000, 37);
        let centers = cc.query().unwrap();
        for anchor in [[0.5, 0.5], [40.5, 0.5], [0.5, 40.5], [40.5, 40.5]] {
            let closest = centers
                .iter()
                .map(|c| skm_clustering::distance::distance(c, &anchor))
                .fold(f64::INFINITY, f64::min);
            assert!(
                closest < 2.0,
                "anchor {anchor:?} missed (distance {closest})"
            );
        }
    }

    #[test]
    fn memory_is_within_constant_factor_of_ct() {
        use crate::ct::CoresetTreeClusterer;
        let cfg = config(3, 30, 2);
        let mut cc = CachedCoresetTree::new(cfg, 41).unwrap();
        let mut ct = CoresetTreeClusterer::new(cfg, 41).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(43);
        for i in 0..3_000usize {
            let p = [rng.gen::<f64>() * 10.0, rng.gen::<f64>() * 10.0];
            cc.update(&p).unwrap();
            ct.update(&p).unwrap();
            if i % 100 == 99 {
                cc.query().unwrap();
            }
        }
        // Table 4: CC's memory is below ~2x the memory of streamkm++ (CT).
        assert!(cc.memory_points() <= 2 * ct.memory_points() + cfg.bucket_size);
    }

    #[test]
    fn repeated_query_without_new_bucket_hits_cache() {
        let m = 10;
        let mut cc = CachedCoresetTree::new(config(2, m, 2), 47).unwrap();
        push_random_points(&mut cc, 40, 53); // exactly 4 buckets, no partial
        cc.query().unwrap();
        cc.query().unwrap();
        let stats = cc.last_query_stats().unwrap();
        assert!(stats.used_cache);
        assert_eq!(stats.coresets_merged, 1);
    }
}
