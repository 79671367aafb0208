//! OnlineCC: the hybrid of CC and Sequential k-means (Algorithm 7) — the
//! paper's third contribution.
//!
//! CC and RCC make the *coreset construction* part of a query cheap, but a
//! query still runs k-means++ on `O(m)` points, which costs `O(kdm)`.
//! OnlineCC removes even that cost from the common case: it maintains a
//! current set of cluster centers with Sequential k-means (so a query is
//! usually `O(1)` — just return them), while also feeding every point into a
//! CC structure in the background. An upper bound `φ_now` on the cost of the
//! maintained centers is updated on every arrival (Lemma 10); when a query
//! finds `φ_now > α·φ_prev` — i.e. the cheap centers have degraded by more
//! than the switching threshold `α` since the last rebuild — the query
//! *falls back* to CC: it rebuilds the coreset, reruns k-means++, and resets
//! the estimates. This keeps the answer within `O(log k)` of optimal at all
//! times (Lemma 11).

use crate::cc::CachedCoresetTree;
use crate::clusterer::{QueryStats, StreamingClusterer};
use crate::config::StreamConfig;
use crate::driver::{extract_centers_block, extract_clustering_result};
use crate::publish::ClusteringResult;
use rand::SeedableRng;
use rand_chacha::ChaCha20Rng;
use skm_clustering::cost::assign_block;
use skm_clustering::distance::nearest_center;
use skm_clustering::error::{ClusteringError, Result};
use skm_clustering::{Centers, PointBlock};

/// Absolute slack added to the fallback threshold `φ_now > α·φ_prev`.
///
/// With a purely relative threshold, a rebuild that lands on a zero-cost
/// clustering (e.g. an all-duplicate or near-duplicate stream) sets
/// `φ_prev = 0`, after which *any* strictly positive `φ_now` — even one
/// produced by floating-point jitter — triggers a fallback on every query
/// forever, silently degrading OnlineCC into CC. The absolute term keeps
/// genuinely negligible costs on the O(1) fast path while leaving the
/// paper's switching behaviour untouched for any non-degenerate stream
/// (where `φ` values dwarf this slack).
///
/// Tradeoff: on streams whose *absolute* SSQ scale is below this slack
/// (e.g. coordinates around `1e-5`), fallbacks are suppressed until the
/// accumulated degradation itself exceeds `1e-9`. Since `φ_now` is a
/// running sum over all arrivals, that suppression is transient — the
/// relative test takes over as soon as the total degradation stops being
/// negligible in absolute terms.
const PHI_FALLBACK_EPS: f64 = 1e-9;

/// Streaming clusterer implementing the Online Coreset Cache (OnlineCC).
#[derive(Debug, Clone)]
pub struct OnlineCC {
    config: StreamConfig,
    /// Switching threshold `α > 1` (the paper's default is 1.2; Section 5.3
    /// finds 2–4 a good compromise when accuracy requirements allow it).
    alpha: f64,
    /// The CC structure processing every arriving point in the background.
    inner: CachedCoresetTree,
    /// Current cluster centers maintained by sequential updates; `None`
    /// until the initialization buffer has filled.
    centers: Option<Centers>,
    /// Buffer of the first `init_size` points used to initialize `centers`.
    init_buffer: Option<PointBlock>,
    /// Number of points used for initialization (`O(k)`, default `2k`).
    init_size: usize,
    /// Clustering cost at the previous fallback to CC.
    phi_prev: f64,
    /// Upper bound on the cost of `centers` on the stream so far.
    phi_now: f64,
    rng: ChaCha20Rng,
    last_stats: Option<QueryStats>,
    fallback_count: u64,
}

impl OnlineCC {
    /// Creates an OnlineCC clusterer with switching threshold `alpha`.
    ///
    /// # Errors
    /// Returns an error if the configuration is invalid or `alpha <= 1`.
    pub fn new(config: StreamConfig, alpha: f64, seed: u64) -> Result<Self> {
        config.validate()?;
        if alpha <= 1.0 || !alpha.is_finite() {
            return Err(ClusteringError::InvalidParameter {
                name: "alpha",
                message: format!("switching threshold must be a finite value > 1, got {alpha}"),
            });
        }
        Ok(Self {
            config,
            alpha,
            inner: CachedCoresetTree::new(config, seed.wrapping_add(1))?,
            centers: None,
            init_buffer: None,
            init_size: (2 * config.k).max(config.k + 1),
            phi_prev: 0.0,
            phi_now: 0.0,
            rng: ChaCha20Rng::seed_from_u64(seed),
            last_stats: None,
            fallback_count: 0,
        })
    }

    /// The switching threshold `α`.
    #[must_use]
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Number of times a query has fallen back to the CC path.
    #[must_use]
    pub fn fallback_count(&self) -> u64 {
        self.fallback_count
    }

    /// Current upper bound on the cost of the maintained centers.
    #[must_use]
    pub fn estimated_cost(&self) -> f64 {
        self.phi_now
    }

    /// Cost recorded at the last fallback to CC.
    #[must_use]
    pub fn previous_fallback_cost(&self) -> f64 {
        self.phi_prev
    }

    /// Whether the next query would fall back to CC (used by tests and by
    /// the Figure 11 harness to count rebuilds without triggering them).
    #[must_use]
    pub fn would_fall_back(&self) -> bool {
        self.centers.is_none() || self.needs_fallback()
    }

    /// The switching test: the maintained centers have degraded by more
    /// than the threshold `α` since the last rebuild, judged with a
    /// relative-plus-absolute comparison so a zero-cost `φ_prev` cannot
    /// force a fallback on every query.
    fn needs_fallback(&self) -> bool {
        self.phi_now > self.alpha * self.phi_prev + PHI_FALLBACK_EPS
    }

    /// Initializes the sequential centers from the buffered prefix by
    /// running k-means++ (plus Lloyd refinement) on it, as in
    /// `OnlineCC-Init`.
    fn initialize_centers(&mut self, buffer: &PointBlock) -> Result<()> {
        let mut centers = extract_centers_block(buffer, &self.config, &mut self.rng)?;
        let assignment = assign_block(buffer, &centers)?;
        for (j, mass) in assignment.cluster_weights.iter().enumerate() {
            // Sequential updates need a positive weight so the running
            // centroid formula is well defined.
            *centers.weight_mut(j) = mass.max(1.0);
        }
        self.phi_prev = assignment.cost;
        self.phi_now = assignment.cost;
        self.centers = Some(centers);
        Ok(())
    }

    /// Rebuilds the centers from the CC coreset (the "fall back to CC"
    /// branch of `OnlineCC-Query`).
    fn fall_back(&mut self) -> Result<Centers> {
        let (candidates, mut stats) = self.inner.query_candidates()?;
        let mut centers = extract_centers_block(&candidates, &self.config, &mut self.rng)?;
        let assignment = assign_block(&candidates, &centers)?;
        for (j, mass) in assignment.cluster_weights.iter().enumerate() {
            *centers.weight_mut(j) = mass.max(1.0);
        }
        self.phi_prev = assignment.cost;
        self.phi_now = self.phi_prev / (1.0 - self.config.epsilon);
        self.centers = Some(centers.clone());
        self.fallback_count += 1;
        stats.ran_kmeans = true;
        self.last_stats = Some(stats);
        Ok(centers)
    }
}

impl StreamingClusterer for OnlineCC {
    fn name(&self) -> &'static str {
        "OnlineCC"
    }

    fn update(&mut self, point: &[f64]) -> Result<()> {
        // Every point also flows into the background CC structure.
        self.inner.update(point)?;

        match &mut self.centers {
            None => {
                let buffer = match &mut self.init_buffer {
                    Some(b) => {
                        if b.dim() != point.len() {
                            return Err(ClusteringError::DimensionMismatch {
                                expected: b.dim(),
                                got: point.len(),
                            });
                        }
                        b
                    }
                    None => self
                        .init_buffer
                        .insert(PointBlock::with_capacity(point.len(), self.init_size)),
                };
                buffer.push(point, 1.0);
                if buffer.len() >= self.init_size {
                    let buffer = self.init_buffer.take().expect("just inserted");
                    self.initialize_centers(&buffer)?;
                }
            }
            Some(centers) => {
                let (idx, d2) = nearest_center(point, centers).expect("k >= 1 centers");
                self.phi_now += d2;
                let w = centers.weight(idx);
                {
                    let c = centers.center_mut(idx);
                    for (ci, xi) in c.iter_mut().zip(point) {
                        *ci = (w * *ci + xi) / (w + 1.0);
                    }
                }
                *centers.weight_mut(idx) = w + 1.0;
            }
        }
        Ok(())
    }

    fn query(&mut self) -> Result<Centers> {
        Ok(self.query_clustering()?.centers)
    }

    fn query_clustering(&mut self) -> Result<ClusteringResult> {
        if self.inner.points_seen() == 0 {
            return Err(ClusteringError::EmptyInput);
        }
        let points_seen = self.inner.points_seen();
        match &self.centers {
            // Not yet initialized (fewer than init_size points): answer from
            // the CC structure directly so early queries still succeed.
            None => {
                let (candidates, mut stats) = self.inner.query_candidates()?;
                stats.ran_kmeans = true;
                let result = extract_clustering_result(
                    &candidates,
                    stats,
                    points_seen,
                    &self.config,
                    &mut self.rng,
                )?;
                self.last_stats = Some(result.stats);
                Ok(result)
            }
            Some(current) => {
                if self.needs_fallback() {
                    let centers = self.fall_back()?;
                    // `fall_back` just reset `phi_now` to the rebuilt
                    // centers' (epsilon-corrected) coreset cost.
                    Ok(ClusteringResult {
                        centers,
                        cost: self.phi_now,
                        points_seen,
                        stats: self.last_stats.unwrap_or_default(),
                        window: None,
                    })
                } else {
                    // Fast path: O(1) — return the sequentially maintained
                    // centers; `phi_now` is the running cost upper bound.
                    let centers = current.clone();
                    let stats = QueryStats {
                        coresets_merged: 0,
                        candidate_points: centers.len(),
                        coreset_level: None,
                        used_cache: false,
                        ran_kmeans: false,
                    };
                    self.last_stats = Some(stats);
                    Ok(ClusteringResult {
                        centers,
                        cost: self.phi_now,
                        points_seen,
                        stats,
                        window: None,
                    })
                }
            }
        }
    }

    fn memory_points(&self) -> usize {
        let init = self.init_buffer.as_ref().map_or(0, PointBlock::len);
        let centers = self.centers.as_ref().map_or(0, Centers::len);
        self.inner.memory_points() + init + centers
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
    use skm_clustering::cost::kmeans_cost_block;

    fn config(k: usize, m: usize) -> StreamConfig {
        StreamConfig::new(k)
            .with_bucket_size(m)
            .with_kmeans_runs(1)
            .with_lloyd_iterations(3)
    }

    fn blob_stream(n: usize, seed: u64) -> Vec<[f64; 2]> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let anchors = [[0.0, 0.0], [50.0, 0.0], [0.0, 50.0]];
        (0..n)
            .map(|i| {
                let a = anchors[i % 3];
                [a[0] + rng.gen::<f64>(), a[1] + rng.gen::<f64>()]
            })
            .collect()
    }

    #[test]
    fn invalid_alpha_is_rejected() {
        assert!(OnlineCC::new(config(3, 60), 1.0, 0).is_err());
        assert!(OnlineCC::new(config(3, 60), 0.5, 0).is_err());
        assert!(OnlineCC::new(config(3, 60), f64::NAN, 0).is_err());
        assert!(OnlineCC::new(config(3, 60), 1.2, 0).is_ok());
    }

    #[test]
    fn query_before_points_is_error() {
        let mut o = OnlineCC::new(config(3, 60), 1.2, 0).unwrap();
        assert!(o.query().is_err());
    }

    #[test]
    fn early_queries_work_before_initialization() {
        let mut o = OnlineCC::new(config(3, 60), 1.2, 0).unwrap();
        for p in blob_stream(4, 1) {
            o.update(&p).unwrap();
        }
        let centers = o.query().unwrap();
        assert!(centers.len() <= 3);
    }

    #[test]
    fn fast_path_answers_in_o1_after_initialization() {
        let mut o = OnlineCC::new(config(3, 30), 4.0, 7).unwrap();
        for p in blob_stream(600, 2) {
            o.update(&p).unwrap();
        }
        // Warm up with one query (may fall back), then the cost estimate is
        // fresh and subsequent queries should take the fast path.
        o.query().unwrap();
        o.query().unwrap();
        let stats = o.last_query_stats().unwrap();
        assert!(!stats.ran_kmeans, "expected the O(1) fast path");
    }

    #[test]
    fn falls_back_when_cost_degrades() {
        // Feed one tight cluster, rebuild, then feed a brand-new faraway
        // cluster: the running cost estimate explodes and the next query
        // must fall back to CC.
        let mut o = OnlineCC::new(config(2, 30), 1.2, 9).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        for _ in 0..300 {
            o.update(&[rng.gen::<f64>(), rng.gen::<f64>()]).unwrap();
        }
        o.query().unwrap();
        let fallbacks_before = o.fallback_count();
        for _ in 0..300 {
            o.update(&[500.0 + rng.gen::<f64>(), 500.0 + rng.gen::<f64>()])
                .unwrap();
        }
        o.query().unwrap();
        assert!(
            o.fallback_count() > fallbacks_before,
            "expected a fallback after the distribution shifted"
        );
    }

    #[test]
    fn lemma_10_phi_now_upper_bounds_true_cost() {
        let mut o = OnlineCC::new(config(3, 30), 2.0, 11).unwrap();
        let stream = blob_stream(900, 4);
        let mut all = PointBlock::new(2);
        for p in &stream {
            o.update(p).unwrap();
            all.push(p, 1.0);
        }
        // Trigger at least one rebuild so phi_now is based on a coreset.
        let centers = o.query().unwrap();
        let true_cost = kmeans_cost_block(&all, &centers).unwrap();
        // phi_now is an upper bound up to the coreset approximation; allow a
        // 25% slack for the (1 - eps) correction and sampling noise.
        assert!(
            o.estimated_cost() * 1.25 >= true_cost,
            "phi_now = {} should upper-bound true cost {}",
            o.estimated_cost(),
            true_cost
        );
    }

    #[test]
    fn accuracy_is_comparable_to_cc() {
        let stream = blob_stream(3_000, 5);
        let mut all = PointBlock::new(2);
        for p in &stream {
            all.push(p, 1.0);
        }

        let mut online = OnlineCC::new(config(3, 60), 1.2, 13).unwrap();
        let mut cc = CachedCoresetTree::new(config(3, 60), 13).unwrap();
        for p in &stream {
            online.update(p).unwrap();
            cc.update(p).unwrap();
        }
        let online_cost = kmeans_cost_block(&all, &online.query().unwrap()).unwrap();
        let cc_cost = kmeans_cost_block(&all, &cc.query().unwrap()).unwrap();
        // Allow a factor-3 band; on well-separated blobs both algorithms
        // find the optimal structure and the costs are nearly identical.
        assert!(
            online_cost <= 3.0 * cc_cost + 1e-9,
            "OnlineCC cost {online_cost} much worse than CC cost {cc_cost}"
        );
    }

    #[test]
    fn higher_alpha_causes_fewer_fallbacks() {
        let stream = blob_stream(2_000, 6);
        let mut strict = OnlineCC::new(config(3, 40), 1.1, 17).unwrap();
        let mut loose = OnlineCC::new(config(3, 40), 8.0, 17).unwrap();
        for (i, p) in stream.iter().enumerate() {
            strict.update(p).unwrap();
            loose.update(p).unwrap();
            if i % 50 == 49 {
                strict.query().unwrap();
                loose.query().unwrap();
            }
        }
        assert!(
            loose.fallback_count() <= strict.fallback_count(),
            "loose α fell back {} times, strict α {} times",
            loose.fallback_count(),
            strict.fallback_count()
        );
    }

    #[test]
    fn duplicate_stream_does_not_fall_back_forever() {
        // Regression: a (near-)duplicate stream drives every clustering
        // cost to ~0, so `phi_prev = 0` after the first rebuild. With a
        // purely relative threshold, any strictly positive `phi_now` —
        // here, femtoscale floating-point jitter — then forced a fallback
        // on EVERY query, silently turning OnlineCC into CC. The
        // relative-plus-absolute threshold keeps these queries on the O(1)
        // fast path.
        let mut o = OnlineCC::new(config(2, 20), 1.2, 21).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(22);
        let anchors = [[0.0, 0.0], [1.0, 0.0]];
        let feed = |o: &mut OnlineCC, n: usize, rng: &mut ChaCha8Rng| {
            for i in 0..n {
                let a = anchors[i % 2];
                // Duplicates up to ~1e-9 jitter: every cost is ~1e-18.
                o.update(&[a[0] + rng.gen::<f64>() * 1e-9, a[1]]).unwrap();
            }
        };
        feed(&mut o, 40, &mut rng);
        o.query().unwrap();
        for _ in 0..10 {
            feed(&mut o, 50, &mut rng);
            o.query().unwrap();
        }
        assert_eq!(
            o.fallback_count(),
            0,
            "negligible-cost stream must stay on the fast path"
        );
        assert!(!o.last_query_stats().unwrap().ran_kmeans);
        assert!(!o.would_fall_back());
    }

    #[test]
    fn memory_tracks_inner_cc() {
        let mut o = OnlineCC::new(config(3, 30), 1.2, 19).unwrap();
        for p in blob_stream(1_200, 7) {
            o.update(&p).unwrap();
        }
        o.query().unwrap();
        // OnlineCC memory = CC memory + k centers (Table 4 shows them nearly
        // identical).
        assert!(o.memory_points() >= o.inner.memory_points());
        assert!(o.memory_points() <= o.inner.memory_points() + 3 + 6);
        assert_eq!(o.points_seen(), 1_200);
    }
}
