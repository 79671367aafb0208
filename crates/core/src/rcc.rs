//! RCC: the recursive coreset cache (Algorithms 4–6) — the paper's second
//! contribution.
//!
//! CC still merges up to `r` coresets per query and returns a coreset whose
//! level grows like `log_r N`. RCC keeps the merge degree *high* (so levels
//! stay low) and avoids paying `r` merges per query by applying the coreset
//! cache **recursively**: the buckets within a single level of the outer
//! structure are themselves managed by a lower-order RCC structure, which
//! can produce a single coreset for them quickly.
//!
//! An order-`i` structure uses merge degree `r_i = 2^(2^i)`; the inner
//! structure attached to each level has order `i − 1` (merge degree
//! `√r_i`). At query time the structure merges only two coresets — one from
//! its cache (covering `[1, major(N, r)]`) and one produced recursively by
//! the inner structure of the lowest non-empty level — so a query touches
//! `O(ι) = O(log log N)` coresets in total (Lemma 8), and the level of the
//! result stays `O(log N / log r_ι)` = `O(1)` for `ι ≈ log log N` (Table 2).

use crate::cache::CoresetCache;
use crate::clusterer::{QueryStats, StreamingClusterer};
use crate::config::StreamConfig;
use crate::driver::{extract_centers_block, extract_clustering_result, BucketBuffer};
use crate::numeric::major;
use crate::publish::ClusteringResult;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha20Rng;
use serde::{Deserialize, Serialize};
use skm_clustering::error::{ClusteringError, Result};
use skm_clustering::{Centers, PointBlock};
use skm_coreset::construct::CoresetBuilder;
use skm_coreset::coreset::Coreset;
use skm_coreset::merge::merge_coresets;

/// One level of an [`RccNode`]: the list `L_ℓ` of buckets plus (for orders
/// above 0) the recursive structure that mirrors the list's contents.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct RccLevel {
    list: Vec<Coreset>,
    inner: Option<Box<RccNode>>,
}

impl RccLevel {
    fn new(order: u32, merge_degree: u64, builder: CoresetBuilder) -> Self {
        let inner = if order > 0 {
            Some(Box::new(RccNode::new(
                order - 1,
                inner_merge_degree(merge_degree),
                builder,
            )))
        } else {
            None
        };
        Self {
            list: Vec::new(),
            inner,
        }
    }

    /// Appends a coreset to the list and mirrors it into the recursive
    /// structure.
    fn push<R: Rng + ?Sized>(&mut self, coreset: Coreset, rng: &mut R) -> Result<()> {
        if let Some(inner) = &mut self.inner {
            inner.insert(coreset.clone(), rng)?;
        }
        self.list.push(coreset);
        Ok(())
    }

    /// The recursive structure's coreset for this level's buckets, `None`
    /// at order 0 or when the structure holds nothing.
    fn query_recursive<R: Rng + ?Sized>(
        &mut self,
        rng: &mut R,
    ) -> Result<Option<(Coreset, usize)>> {
        match self.inner.as_mut() {
            Some(inner) => inner.query_coreset(rng),
            None => Ok(None),
        }
    }
}

/// Merge degree of the next-lower order: `√r`, but never below 2.
fn inner_merge_degree(r: u64) -> u64 {
    let root = (r as f64).sqrt().round() as u64;
    root.max(2)
}

/// The recursive data structure `RCC(i)` of Algorithms 4–6.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct RccNode {
    order: u32,
    merge_degree: u64,
    builder: CoresetBuilder,
    cache: CoresetCache,
    levels: Vec<RccLevel>,
    /// Buckets inserted into *this* structure since it was (re)initialized.
    buckets_inserted: u64,
}

impl RccNode {
    fn new(order: u32, merge_degree: u64, builder: CoresetBuilder) -> Self {
        Self {
            order,
            merge_degree: merge_degree.max(2),
            builder,
            cache: CoresetCache::new(),
            levels: Vec::new(),
            buckets_inserted: 0,
        }
    }

    /// `RCC-Update` (Algorithm 5): a base-r increment. The new bucket lands
    /// at level 0, and every level that reaches r coresets merges them into
    /// one carried a level up.
    fn insert<R: Rng + ?Sized>(&mut self, bucket: Coreset, rng: &mut R) -> Result<()> {
        self.buckets_inserted += 1;
        let r = self.merge_degree as usize;
        let mut carry = Some(bucket);
        for level in &mut self.levels {
            let Some(coreset) = carry.take() else {
                break;
            };
            level.push(coreset, rng)?;
            if level.list.len() >= r {
                let group = std::mem::take(&mut level.list);
                // Reset the emptied level's recursive structure (Algorithm
                // 5, lines 13–15).
                if self.order > 0 {
                    level.inner = Some(Box::new(RccNode::new(
                        self.order - 1,
                        inner_merge_degree(self.merge_degree),
                        self.builder,
                    )));
                }
                carry = Some(merge_coresets(&group, &self.builder, rng)?);
            }
        }
        if let Some(coreset) = carry {
            let mut level = RccLevel::new(self.order, self.merge_degree, self.builder);
            level.push(coreset, rng)?;
            self.levels.push(level);
        }
        Ok(())
    }

    /// `RCC-Coreset` (Algorithm 6). Returns the coreset for everything this
    /// structure has absorbed, plus the number of stored coresets that were
    /// merged (recursively) to produce it.
    fn query_coreset<R: Rng + ?Sized>(&mut self, rng: &mut R) -> Result<Option<(Coreset, usize)>> {
        let n = self.buckets_inserted;
        if n == 0 {
            return Ok(None);
        }
        if let Some(cached) = self.cache.lookup(n) {
            return Ok(Some((cached.clone(), 1)));
        }
        let r = self.merge_degree;
        let n1 = major(n, r);
        let cached_prefix = match n1 {
            0 => None,
            _ => self.cache.lookup(n1).cloned(),
        };

        let (inputs, merged_count) = match cached_prefix {
            // Algorithm 6, cache-miss branch: query each non-empty level
            // recursively (oldest first) so the inner caches keep the number
            // of touched coresets small even when this order's cache cannot
            // help. At order 0 there is no inner structure, so the raw list
            // buckets are used (there are at most r − 1 = 1 of them per
            // level).
            None => {
                let mut inputs = Vec::new();
                let mut count = 0usize;
                for level in self.levels.iter_mut().rev() {
                    if level.list.is_empty() {
                        continue;
                    }
                    match level.query_recursive(rng)? {
                        Some((coreset, inner_merged)) => {
                            inputs.push(coreset);
                            count += inner_merged;
                        }
                        None => {
                            count += level.list.len();
                            inputs.extend(level.list.iter().cloned());
                        }
                    }
                }
                (inputs, count)
            }
            // The suffix lives in the lowest non-empty level; use its
            // recursive structure when available so only O(1) coresets are
            // touched at this order.
            Some(prefix) => {
                let lowest = self
                    .levels
                    .iter_mut()
                    .find(|l| !l.list.is_empty())
                    .ok_or_else(|| ClusteringError::InvalidParameter {
                        name: "rcc_state",
                        message: format!(
                            "{n} buckets inserted past the cached prefix of {n1}, \
                             but every level is empty"
                        ),
                    })?;
                match lowest.query_recursive(rng)? {
                    Some((suffix, inner_merged)) => (vec![prefix, suffix], 1 + inner_merged),
                    None => {
                        let mut v = vec![prefix];
                        v.extend(lowest.list.iter().cloned());
                        let count = v.len();
                        (v, count)
                    }
                }
            }
        };

        if inputs.is_empty() {
            return Ok(None);
        }
        let reduced = merge_coresets(&inputs, &self.builder, rng)?;
        self.cache.insert(reduced.clone());
        self.cache.evict_stale(n, r);
        Ok(Some((reduced, merged_count)))
    }

    /// The stored coresets of this node's outer lists, oldest first
    /// (highest level down to level 0). Their spans partition
    /// `[1, buckets_inserted]` by the digit invariant, which is what the
    /// window driver needs; inner recursive structures mirror the lists'
    /// contents and are deliberately excluded (including them would count
    /// the same buckets twice).
    fn list_coresets(&self) -> Vec<&Coreset> {
        let mut out = Vec::new();
        for level in self.levels.iter().rev() {
            for c in &level.list {
                out.push(c);
            }
        }
        out
    }

    /// Points stored in lists, caches and recursive structures.
    fn stored_points(&self) -> usize {
        let lists: usize = self
            .levels
            .iter()
            .map(|l| {
                l.list.iter().map(Coreset::len).sum::<usize>()
                    + l.inner.as_ref().map_or(0, |i| i.stored_points())
            })
            .sum();
        lists + self.cache.stored_points()
    }

    fn max_list_level(&self) -> Option<usize> {
        self.levels
            .iter()
            .enumerate()
            .filter(|(_, l)| !l.list.is_empty())
            .map(|(i, _)| i)
            .next_back()
    }
}

/// Streaming clusterer implementing the Recursive Coreset Cache (RCC).
///
/// The whole clusterer state — including every recursive sub-structure and
/// its cache — is `Serialize`/`Deserialize`, so a snapshot restored via
/// `serde_json` continues the stream bit-identically to an uninterrupted
/// run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RecursiveCachedTree {
    config: StreamConfig,
    nesting_depth: u32,
    node: RccNode,
    buffer: BucketBuffer,
    rng: ChaCha20Rng,
    last_stats: Option<QueryStats>,
}

impl RecursiveCachedTree {
    /// Creates an RCC clusterer with nesting depth `ι` (the paper's
    /// experiments use `ι = 3`) and the default top-level merge degree
    /// `r_ι = 2^(2^ι)`.
    ///
    /// # Errors
    /// Returns an error if the configuration or nesting depth is invalid.
    pub fn new(config: StreamConfig, nesting_depth: u32, seed: u64) -> Result<Self> {
        let top = default_top_merge_degree(nesting_depth)?;
        Self::with_top_merge_degree(config, nesting_depth, top, seed)
    }

    /// Creates an RCC clusterer whose top-level merge degree is derived from
    /// the *expected* stream length, as the paper's evaluation does: with
    /// `B = ⌈expected_points / m⌉` expected base buckets, the top merge
    /// degree is `⌈√B⌉` and each inner order takes the square root of its
    /// parent (`B^{1/4}`, `B^{1/8}`, …), matching Section 5.2.
    ///
    /// # Errors
    /// Returns an error if the configuration or nesting depth is invalid.
    pub fn for_stream_length(
        config: StreamConfig,
        nesting_depth: u32,
        expected_points: usize,
        seed: u64,
    ) -> Result<Self> {
        config.validate()?;
        let buckets = (expected_points / config.bucket_size).max(4) as f64;
        let top = buckets.sqrt().ceil() as u64;
        Self::with_top_merge_degree(config, nesting_depth, top.max(2), seed)
    }

    /// Creates an RCC clusterer with an explicit top-level merge degree
    /// (the paper sets it to `N^{1/2}` when the stream length `N` is known
    /// in advance).
    ///
    /// # Errors
    /// Returns an error if the configuration is invalid or
    /// `top_merge_degree < 2`.
    pub fn with_top_merge_degree(
        config: StreamConfig,
        nesting_depth: u32,
        top_merge_degree: u64,
        seed: u64,
    ) -> Result<Self> {
        config.validate()?;
        if top_merge_degree < 2 {
            return Err(ClusteringError::InvalidParameter {
                name: "top_merge_degree",
                message: "must be at least 2".to_string(),
            });
        }
        if nesting_depth > 6 {
            return Err(ClusteringError::InvalidParameter {
                name: "nesting_depth",
                message: "nesting depths above 6 are not supported".to_string(),
            });
        }
        let builder = CoresetBuilder::new(config.k)
            .with_size(config.bucket_size)
            .with_method(config.coreset_method);
        Ok(Self {
            config,
            nesting_depth,
            node: RccNode::new(nesting_depth, top_merge_degree, builder),
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

    /// Nesting depth `ι`.
    #[must_use]
    pub fn nesting_depth(&self) -> u32 {
        self.nesting_depth
    }

    /// Top-level merge degree `r_ι`.
    #[must_use]
    pub fn top_merge_degree(&self) -> u64 {
        self.node.merge_degree
    }

    /// Highest outer-list level currently occupied (diagnostics).
    #[must_use]
    pub fn max_outer_level(&self) -> Option<usize> {
        self.node.max_list_level()
    }

    /// The candidate points a query hands to k-means++ (RCC coreset plus
    /// the partial bucket) as a norm-cached block, together with query
    /// statistics.
    ///
    /// # Errors
    /// Returns [`ClusteringError::EmptyInput`] when no points have arrived.
    pub fn query_candidates(&mut self) -> Result<(PointBlock, QueryStats)> {
        if self.buffer.points_seen() == 0 {
            return Err(ClusteringError::EmptyInput);
        }
        match self.node.query_coreset(&mut self.rng)? {
            Some((coreset, merged)) => {
                let level = coreset.level();
                let mut candidates = coreset.into_points();
                let mut merged = merged;
                if let Some(p) = self.buffer.partial() {
                    if !p.is_empty() {
                        // Borrowed append — no bucket-sized clone per query,
                        // and the buffered points' norms ride along.
                        candidates.extend_from_block(p)?;
                        merged += 1;
                    }
                }
                let stats = QueryStats {
                    coresets_merged: merged,
                    candidate_points: candidates.len(),
                    coreset_level: Some(level),
                    used_cache: true,
                    ran_kmeans: true,
                };
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
    /// `last_points` stream points: the suffix of the top-level outer-list
    /// coresets whose spans intersect the window, plus the partial base
    /// bucket. Caches and inner recursive structures are bypassed (they
    /// summarize prefixes, not suffixes), so selection uses no RNG. The
    /// `u64` reports the exact (bucket-granular) coverage.
    ///
    /// # Errors
    /// Returns [`ClusteringError::EmptyInput`] before the first point and
    /// an `InvalidParameter { name: "window" }` error for invalid windows.
    pub fn query_window_candidates(
        &mut self,
        last_points: u64,
    ) -> Result<(PointBlock, QueryStats, u64)> {
        crate::driver::window_candidates_from_suffix(
            &self.node.list_coresets(),
            self.node.buckets_inserted,
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
            &self.node.list_coresets(),
            self.node.buckets_inserted,
            self.config.bucket_size,
            &self.buffer,
            last_points,
        )
    }
}

/// `r_ι = 2^(2^ι)`, refused where it overflows `u64` (from `ι = 6`).
fn default_top_merge_degree(nesting_depth: u32) -> Result<u64> {
    1u32.checked_shl(nesting_depth)
        .and_then(|bits| 1u64.checked_shl(bits))
        .ok_or_else(|| ClusteringError::InvalidParameter {
            name: "nesting_depth",
            message: "the default top merge degree 2^(2^ι) overflows above ι = 5; \
                      pass an explicit degree"
                .to_string(),
        })
}

impl StreamingClusterer for RecursiveCachedTree {
    fn name(&self) -> &'static str {
        "RCC"
    }

    fn update(&mut self, point: &[f64]) -> Result<()> {
        if let Some(full_bucket) = self.buffer.push(point)? {
            let bucket_no = self.node.buckets_inserted + 1;
            let base = Coreset::base_bucket(full_bucket, bucket_no);
            self.node.insert(base, &mut self.rng)?;
        }
        Ok(())
    }

    fn update_batch(&mut self, points: &[&[f64]]) -> Result<()> {
        let node = &mut self.node;
        let rng = &mut self.rng;
        self.buffer.push_batch(points, |full_bucket| {
            let bucket_no = node.buckets_inserted + 1;
            let base = Coreset::base_bucket(full_bucket, bucket_no);
            node.insert(base, rng)
        })
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
            // Whole-stream windows take the ordinary (recursive, cached)
            // query path, bit-identical to an un-windowed query.
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
        self.node.stored_points() + self.buffer.buffered_points()
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
    use rand_chacha::ChaCha8Rng;

    fn config(k: usize, m: usize) -> StreamConfig {
        StreamConfig::new(k)
            .with_bucket_size(m)
            .with_kmeans_runs(1)
            .with_lloyd_iterations(2)
    }

    fn push_random_points(rcc: &mut RecursiveCachedTree, n: usize, seed: u64) {
        use rand::Rng;
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let anchors = [[0.0, 0.0], [40.0, 0.0], [0.0, 40.0]];
        for i in 0..n {
            let a = anchors[i % anchors.len()];
            rcc.update(&[a[0] + rng.gen::<f64>(), a[1] + rng.gen::<f64>()])
                .unwrap();
        }
    }

    #[test]
    fn default_merge_degrees() {
        assert_eq!(default_top_merge_degree(0).unwrap(), 2);
        assert_eq!(default_top_merge_degree(1).unwrap(), 4);
        assert_eq!(default_top_merge_degree(2).unwrap(), 16);
        assert_eq!(default_top_merge_degree(3).unwrap(), 256);
        assert_eq!(default_top_merge_degree(5).unwrap(), 1 << 32);
        // 2^64 does not fit: an error, not an overflowing shift.
        assert!(default_top_merge_degree(6).is_err());
        assert!(default_top_merge_degree(7).is_err());
        assert!(default_top_merge_degree(40).is_err());
        assert_eq!(inner_merge_degree(16), 4);
        assert_eq!(inner_merge_degree(4), 2);
        assert_eq!(inner_merge_degree(2), 2);
    }

    #[test]
    fn a_bucket_count_past_empty_levels_is_a_typed_error() {
        // A restored state can claim buckets its levels do not hold (a
        // hand-edited `--restore` file, a hostile primary's replica
        // snapshot): the cached prefix then has no suffix level to pair
        // with.
        let mut rcc = RecursiveCachedTree::with_top_merge_degree(config(2, 20), 0, 2, 1).unwrap();
        push_random_points(&mut rcc, 40, 1);
        rcc.query_candidates().unwrap(); // caches buckets [1, 2]
        rcc.node.buckets_inserted = 3; // major(3, 2) = 2: the cached prefix
        for level in &mut rcc.node.levels {
            level.list.clear();
        }
        let err = rcc.query_candidates().unwrap_err();
        assert!(
            matches!(
                err,
                ClusteringError::InvalidParameter {
                    name: "rcc_state",
                    ..
                }
            ),
            "{err:?}"
        );
    }

    #[test]
    fn query_before_any_point_is_error() {
        let mut rcc = RecursiveCachedTree::new(config(2, 20), 2, 0).unwrap();
        assert!(rcc.query().is_err());
    }

    #[test]
    fn query_with_partial_bucket_only() {
        let mut rcc = RecursiveCachedTree::new(config(2, 50), 2, 0).unwrap();
        push_random_points(&mut rcc, 7, 1);
        let centers = rcc.query().unwrap();
        assert_eq!(centers.len(), 2);
        assert_eq!(rcc.last_query_stats().unwrap().coreset_level, Some(0));
    }

    #[test]
    fn finds_clusters_with_queries_every_bucket() {
        let mut rcc = RecursiveCachedTree::new(
            StreamConfig::new(3)
                .with_bucket_size(30)
                .with_kmeans_runs(2),
            2,
            7,
        )
        .unwrap();
        use rand::Rng;
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let anchors = [[0.0, 0.0], [40.0, 0.0], [0.0, 40.0]];
        for i in 0..1_800usize {
            let a = anchors[i % 3];
            rcc.update(&[a[0] + rng.gen::<f64>(), a[1] + rng.gen::<f64>()])
                .unwrap();
            if i % 30 == 29 {
                rcc.query().unwrap();
            }
        }
        let centers = rcc.query().unwrap();
        for anchor in [[0.5, 0.5], [40.5, 0.5], [0.5, 40.5]] {
            let closest = centers
                .iter()
                .map(|c| skm_clustering::distance::distance(c, &anchor))
                .fold(f64::INFINITY, f64::min);
            assert!(closest < 2.0, "anchor {anchor:?} missed ({closest})");
        }
    }

    #[test]
    fn queries_touch_few_coresets_when_frequent() {
        // With queries after every bucket and nesting depth 2, the number of
        // coresets touched per query should stay well below the number of
        // active buckets (which is what CT would merge).
        let m = 8;
        let mut rcc = RecursiveCachedTree::with_top_merge_degree(config(2, m), 2, 8, 3).unwrap();
        use rand::Rng;
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let mut max_merged = 0usize;
        for bucket in 1..=64u64 {
            for _ in 0..m {
                rcc.update(&[rng.gen::<f64>(), rng.gen::<f64>()]).unwrap();
            }
            rcc.query().unwrap();
            let merged = rcc.last_query_stats().unwrap().coresets_merged;
            max_merged = max_merged.max(merged);
            let _ = bucket;
        }
        // 2 per order * (nesting depth + 1) + partial is a generous bound.
        assert!(max_merged <= 7, "max merged {max_merged}");
    }

    #[test]
    fn coreset_level_stays_low_with_high_merge_degree() {
        // With r = 16 at the top, 64 buckets only ever occupy levels 0 and 1
        // of the outer structure, so the coreset level stays bounded by a
        // small constant (independent of the number of buckets), even though
        // every query adds one reduction on top of cached/recursive inputs.
        let m = 8;
        let mut rcc = RecursiveCachedTree::with_top_merge_degree(config(2, m), 2, 16, 4).unwrap();
        use rand::Rng;
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let mut max_level = 0u32;
        for _ in 0..64 {
            for _ in 0..m {
                rcc.update(&[rng.gen::<f64>(), rng.gen::<f64>()]).unwrap();
            }
            rcc.query().unwrap();
            let level = rcc.last_query_stats().unwrap().coreset_level.unwrap();
            max_level = max_level.max(level);
        }
        assert!(
            max_level <= 8,
            "level {max_level} should stay a small constant (64 buckets inserted)"
        );
    }

    #[test]
    fn infrequent_queries_still_answer_correctly() {
        let mut rcc = RecursiveCachedTree::new(config(3, 25), 3, 11).unwrap();
        push_random_points(&mut rcc, 2_000, 13);
        let centers = rcc.query().unwrap();
        assert_eq!(centers.len(), 3);
    }

    #[test]
    fn memory_exceeds_cc_but_stays_sublinear() {
        let m = 20;
        let mut rcc = RecursiveCachedTree::new(config(2, m), 2, 17).unwrap();
        push_random_points(&mut rcc, 6_000, 19);
        assert_eq!(rcc.points_seen(), 6_000);
        assert!(
            rcc.memory_points() < 3_000,
            "memory {} not sublinear",
            rcc.memory_points()
        );
    }

    #[test]
    fn invalid_parameters_are_rejected() {
        assert!(RecursiveCachedTree::new(config(2, 20), 7, 0).is_err());
        assert!(RecursiveCachedTree::with_top_merge_degree(config(2, 20), 2, 1, 0).is_err());
        assert!(RecursiveCachedTree::new(StreamConfig::new(5).with_bucket_size(2), 2, 0).is_err());
    }
}
