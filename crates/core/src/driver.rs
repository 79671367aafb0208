//! The stream-clustering driver (Algorithm 1) building blocks.
//!
//! Algorithm 1 of the paper keeps an auxiliary point set `C` that buffers
//! arriving points until `m` of them have accumulated; the full batch is
//! then handed to the clustering data structure `D` as a new base bucket.
//! At query time the driver unions `D`'s coreset with the partially-filled
//! buffer and runs k-means++ on the result.
//!
//! [`BucketBuffer`] implements the buffering part and
//! [`extract_centers_block`] implements the "run k-means++ (best of `R`
//! runs, each polished with Lloyd)" part, so that every algorithm in this
//! crate shares identical driver behaviour.

use crate::config::StreamConfig;
use rand::Rng;
use serde::{Deserialize, Serialize};
use skm_clustering::cost::assign_block;
use skm_clustering::error::{ClusteringError, Result};
use skm_clustering::kmeans::KMeans;
use skm_clustering::{Centers, PointBlock};

/// Validates one arriving stream point against an optional known stream
/// dimension, returning the (possibly newly learned) dimension on success.
///
/// Shared by [`BucketBuffer`], the sharded ingestion coordinator and the
/// serving engine's write-ahead path so all of them reject empty,
/// wrong-dimension and non-finite points identically — and, crucially,
/// without committing any state for rejected input (the caller stores the
/// returned dimension only after validation succeeds, so a rejected first
/// point cannot lock in a bogus stream dimension).
///
/// `index` is the point's position within the batch being validated
/// (0 for single-point pushes); it is reported in
/// [`ClusteringError::NonFiniteCoordinate`].
///
/// # Errors
/// [`ClusteringError::InvalidParameter`] for an empty point,
/// [`ClusteringError::DimensionMismatch`] when `point` disagrees with
/// `dim`, and [`ClusteringError::NonFiniteCoordinate`] for a NaN or
/// infinite coordinate.
pub fn validate_stream_point(dim: Option<usize>, point: &[f64], index: usize) -> Result<usize> {
    if point.is_empty() {
        return Err(ClusteringError::InvalidParameter {
            name: "point",
            message: "points must have at least one dimension".to_string(),
        });
    }
    if let Some(d) = dim {
        if d != point.len() {
            return Err(ClusteringError::DimensionMismatch {
                expected: d,
                got: point.len(),
            });
        }
    }
    if point.iter().any(|x| !x.is_finite()) {
        return Err(ClusteringError::NonFiniteCoordinate { index });
    }
    Ok(point.len())
}

/// Buffers arriving points into base buckets of `m` points.
///
/// The buffer is a [`PointBlock`]: the bucket's full capacity is reserved
/// when its first point arrives, and every subsequent update writes the
/// point (and its cached squared norm) straight into the block's spare
/// capacity — no per-update temporary, no reallocation during the fill, and
/// no eager replacement allocation when a bucket flushes (the next bucket's
/// buffers are only allocated when its first point actually arrives).
///
/// The buffer serializes with the rest of a clusterer's state (the partial
/// bucket's norm cache is rebuilt on restore), so snapshots taken mid-bucket
/// resume bit-identically. Deserialization re-checks the constructor's
/// invariants, so a hand-edited snapshot cannot smuggle in a state the
/// update path could never have produced.
#[derive(Debug, Clone, Serialize)]
pub struct BucketBuffer {
    bucket_size: usize,
    /// Dimension of the stream, fixed by the first point ever observed (it
    /// must outlive bucket flushes so a wrong-dimension point arriving
    /// right after a flush is still rejected).
    dim: Option<usize>,
    partial: Option<PointBlock>,
    points_seen: u64,
}

impl BucketBuffer {
    /// Creates an empty buffer for base buckets of `bucket_size` points.
    ///
    /// Bucket-size validation mirrors [`StreamConfig::validate`]: the
    /// clusterers construct their buffer from an already-validated
    /// configuration, and ad-hoc callers get the same
    /// [`ClusteringError::InvalidParameter`] instead of a panic.
    ///
    /// # Errors
    /// Returns [`ClusteringError::InvalidParameter`] if `bucket_size == 0`.
    pub fn new(bucket_size: usize) -> Result<Self> {
        if bucket_size == 0 {
            return Err(ClusteringError::InvalidParameter {
                name: "bucket_size",
                message: "must be positive".to_string(),
            });
        }
        Ok(Self {
            bucket_size,
            dim: None,
            partial: None,
            points_seen: 0,
        })
    }

    /// Number of points observed so far (both flushed and buffered).
    #[must_use]
    pub fn points_seen(&self) -> u64 {
        self.points_seen
    }

    /// Number of points currently sitting in the partial bucket.
    #[must_use]
    pub fn buffered_points(&self) -> usize {
        self.partial.as_ref().map_or(0, PointBlock::len)
    }

    /// Dimensionality inferred from the first observed point, if any.
    #[must_use]
    pub fn dim(&self) -> Option<usize> {
        self.dim
    }

    /// Appends one validated point to the partial bucket, returning the full
    /// bucket when this push completes it.
    fn push_validated(&mut self, point: &[f64]) -> Option<PointBlock> {
        let partial = match &mut self.partial {
            Some(p) => p,
            None => {
                // First point of a fresh bucket: reserve the whole bucket
                // up front so every later push lands in spare capacity.
                let mut block = PointBlock::new(point.len());
                block.reserve(self.bucket_size);
                self.partial.insert(block)
            }
        };
        partial.push(point, 1.0);
        self.points_seen += 1;
        if partial.len() == self.bucket_size {
            return self.partial.take();
        }
        None
    }

    /// Adds a point. When the buffer reaches the bucket size, the full base
    /// bucket is returned (as a norm-cached [`PointBlock`], moved out
    /// without copying) and the buffer restarts empty.
    ///
    /// # Errors
    /// Returns a dimension-mismatch error if `point` disagrees with earlier
    /// points (including points from already-flushed buckets), and
    /// [`ClusteringError::NonFiniteCoordinate`] if any coordinate is NaN or
    /// infinite (the point is rejected before touching the buffer).
    pub fn push(&mut self, point: &[f64]) -> Result<Option<PointBlock>> {
        self.dim = Some(validate_stream_point(self.dim, point, 0)?);
        Ok(self.push_validated(point))
    }

    /// Adds a whole batch of points, invoking `on_full` for every base
    /// bucket completed along the way.
    ///
    /// The entire batch is validated (one dimension check and finiteness
    /// pass) *before* any point is buffered, so a rejected batch leaves the
    /// buffer untouched, and the per-point bookkeeping of [`push`] is
    /// amortized across the batch.
    ///
    /// # Errors
    /// Returns the same validation errors as [`push`] (with the offending
    /// batch index in [`ClusteringError::NonFiniteCoordinate`]) and
    /// propagates errors from `on_full`.
    ///
    /// [`push`]: BucketBuffer::push
    pub fn push_batch<F>(&mut self, points: &[&[f64]], mut on_full: F) -> Result<()>
    where
        F: FnMut(PointBlock) -> Result<()>,
    {
        // Validate against a local dimension first: a rejected batch must
        // leave everything untouched, including a not-yet-learned stream
        // dimension (the batch's own points still have to agree with each
        // other, which threading `dim` through the loop enforces).
        let mut dim = self.dim;
        for (i, point) in points.iter().enumerate() {
            dim = Some(validate_stream_point(dim, point, i)?);
        }
        self.dim = dim;
        for point in points {
            if let Some(full) = self.push_validated(point) {
                on_full(full)?;
            }
        }
        Ok(())
    }

    /// Borrow of the partially filled bucket (`None` when no points are
    /// buffered). Borrowing instead of cloning keeps query paths free of
    /// bucket-sized temporary copies.
    #[must_use]
    pub fn partial(&self) -> Option<&PointBlock> {
        self.partial.as_ref()
    }
}

/// Restoring a buffer re-checks the invariants the update path maintains
/// (positive bucket size, a partial bucket strictly below it and matching
/// the learned dimension, bookkeeping that covers the buffered points), so
/// a tampered snapshot is rejected instead of producing a buffer that never
/// flushes or silently disagrees with its own dimension.
impl Deserialize for BucketBuffer {
    fn from_value(value: &serde::Value) -> std::result::Result<Self, serde::Error> {
        let map = match value {
            serde::Value::Map(m) => m,
            _ => return Err(serde::Error::custom("expected map for BucketBuffer")),
        };
        let bucket_size: usize = Deserialize::from_value(serde::get_field(map, "bucket_size")?)?;
        let dim: Option<usize> = Deserialize::from_value(serde::get_field(map, "dim")?)?;
        let partial: Option<PointBlock> =
            Deserialize::from_value(serde::get_field(map, "partial")?)?;
        let points_seen: u64 = Deserialize::from_value(serde::get_field(map, "points_seen")?)?;
        if bucket_size == 0 {
            return Err(serde::Error::custom("bucket_size must be positive"));
        }
        if let Some(block) = &partial {
            if block.is_empty() || block.len() >= bucket_size {
                return Err(serde::Error::custom(
                    "partial bucket must hold between 1 and bucket_size - 1 points",
                ));
            }
            if dim != Some(block.dim()) {
                return Err(serde::Error::custom(
                    "partial bucket dimension disagrees with the stream dimension",
                ));
            }
            if points_seen < block.len() as u64 {
                return Err(serde::Error::custom(
                    "points_seen is smaller than the buffered point count",
                ));
            }
        }
        Ok(Self {
            bucket_size,
            dim,
            partial,
            points_seen,
        })
    }
}

/// Runs the paper's query-side clustering procedure on a candidate coreset:
/// best of `config.kmeans_runs` k-means++ seedings, each refined with up to
/// `config.lloyd_iterations` Lloyd iterations. Every seeding run and Lloyd
/// iteration reuses the candidates' cached norms (including the ones the
/// bucket buffer computed at update time).
///
/// # Errors
/// Returns [`ClusteringError::EmptyInput`] when `candidates` is empty.
pub fn extract_centers_block<R: Rng + ?Sized>(
    candidates: &PointBlock,
    config: &StreamConfig,
    rng: &mut R,
) -> Result<Centers> {
    if candidates.is_empty() {
        return Err(ClusteringError::EmptyInput);
    }
    let result = KMeans::new(config.k)
        .with_runs(config.kmeans_runs)
        .with_max_lloyd_iterations(config.lloyd_iterations)
        .fit_block(candidates, rng)?;
    Ok(result.centers)
}

/// Clustering cost of `centers` over the query-time candidate coreset: the
/// weighted SSQ of the candidates against their nearest centers, which is
/// the standard coreset estimate of the cost over the whole stream. Shared
/// by every backend's [`query_clustering`] so published costs are computed
/// identically everywhere; the pass is deterministic (no RNG), so adding it
/// after center extraction cannot perturb query results.
///
/// # Errors
/// Returns [`ClusteringError::EmptyInput`] when `candidates` or `centers`
/// is empty.
///
/// [`query_clustering`]: crate::StreamingClusterer::query_clustering
pub fn candidate_cost(candidates: &PointBlock, centers: &Centers) -> Result<f64> {
    Ok(assign_block(candidates, centers)?.cost)
}

/// Selects the query-time candidate set for a time-scoped window covering
/// the most recent `last_points` stream points, from a backend's stored
/// summary suffix — the shared window driver of CT, CC and RCC (and, per
/// shard, of the sharded stream).
///
/// `active` is the backend's list of stored coresets, oldest first, whose
/// spans partition `[1, buckets_inserted]` (the digit-invariant layout all
/// tree-shaped backends maintain). The window maps to base buckets: with
/// `b` points in the partial bucket, the most recent `last_points` points
/// occupy the partial bucket plus the last `ceil((last_points - b) / m)`
/// base buckets, and the selected candidates are every stored coreset whose
/// span intersects that suffix. Coverage is therefore bucket-granular and
/// widens to the span boundaries of whatever merged coresets the structure
/// already holds; the returned `u64` reports the exact number of covered
/// points. Windows that fit entirely inside the partial bucket are answered
/// exactly (point-granular) from its most recent rows.
///
/// Selection is pure bookkeeping — no merge, no RNG — so interleaving
/// windowed and whole-stream queries perturbs neither.
///
/// # Errors
/// Returns [`ClusteringError::InvalidParameter`] when `last_points` is zero
/// or does not name a strict sub-window (callers normalize whole-stream
/// windows to the ordinary query path first), and
/// [`ClusteringError::EmptyInput`] when nothing has been observed.
pub(crate) fn window_candidates_from_suffix(
    active: &[&skm_coreset::coreset::Coreset],
    buckets_inserted: u64,
    bucket_size: usize,
    buffer: &BucketBuffer,
    last_points: u64,
) -> Result<(PointBlock, crate::clusterer::QueryStats, u64)> {
    crate::clusterer::validate_window_points(last_points)?;
    let total = buffer.points_seen();
    if total == 0 {
        return Err(ClusteringError::EmptyInput);
    }
    if last_points >= total {
        return Err(ClusteringError::InvalidParameter {
            name: "window",
            message: "whole-stream windows take the ordinary query path".to_string(),
        });
    }
    let buffered = buffer.buffered_points() as u64;
    let dim = buffer.dim().unwrap_or(1);

    // The window fits inside the partial base bucket: answer exactly from
    // its most recent rows (they are raw points, so no bucket granularity
    // applies).
    if last_points <= buffered {
        let partial = buffer.partial().ok_or(ClusteringError::EmptyInput)?;
        let skip = partial.len() - last_points as usize;
        let mut block = PointBlock::with_capacity(dim, last_points as usize);
        for i in skip..partial.len() {
            block.push(partial.point(i), partial.weight(i));
        }
        let stats = crate::clusterer::QueryStats {
            coresets_merged: 1,
            candidate_points: block.len(),
            coreset_level: Some(0),
            used_cache: false,
            ran_kmeans: true,
        };
        return Ok((block, stats, last_points));
    }

    // `last_points < total = buckets_inserted * m + buffered`, so the
    // flushed part of the window spans at most `buckets_inserted` buckets.
    let needed_flushed = last_points - buffered;
    let m = bucket_size as u64;
    let needed_buckets = needed_flushed.div_ceil(m);
    debug_assert!(needed_buckets <= buckets_inserted);
    let first_needed = buckets_inserted - needed_buckets + 1;

    let selected: Vec<&skm_coreset::coreset::Coreset> = active
        .iter()
        .filter(|c| c.span().end() >= first_needed)
        .copied()
        .collect();
    let mut merged = 0usize;
    let mut max_level = 0u32;
    let mut first_covered = buckets_inserted + 1;
    let total_points: usize = selected.iter().map(|c| c.len()).sum();
    let mut block = PointBlock::with_capacity(dim, total_points + buffered as usize);
    for c in &selected {
        block.extend_from_block(c.points())?;
        merged += 1;
        max_level = max_level.max(c.level());
        first_covered = first_covered.min(c.span().start());
    }
    let covered_flushed = (buckets_inserted + 1 - first_covered) * m;
    if let Some(partial) = buffer.partial() {
        if !partial.is_empty() {
            block.extend_from_block(partial)?;
            merged += 1;
        }
    }
    let stats = crate::clusterer::QueryStats {
        coresets_merged: merged,
        candidate_points: block.len(),
        coreset_level: Some(max_level),
        used_cache: false,
        ran_kmeans: true,
    };
    Ok((block, stats, covered_flushed + buffered))
}

/// The coverage a [`window_candidates_from_suffix`] call would report,
/// without materializing any candidate block: pure span arithmetic over the
/// stored coresets. Windowed stats use this so they stay exactly as
/// side-effect-free as plain stats (no merge, no RNG, no cache traffic) —
/// a requirement for WAL replay equivalence, since stats are logged as
/// plain markers.
///
/// Returns the shard/stream total when `last_points` covers the whole
/// stream, and `0` when nothing has been observed.
pub(crate) fn window_coverage_from_suffix(
    active: &[&skm_coreset::coreset::Coreset],
    buckets_inserted: u64,
    bucket_size: usize,
    buffer: &BucketBuffer,
    last_points: u64,
) -> u64 {
    let total = buffer.points_seen();
    if total == 0 || last_points == 0 {
        return 0;
    }
    if last_points >= total {
        return total;
    }
    let buffered = buffer.buffered_points() as u64;
    if last_points <= buffered {
        return last_points;
    }
    let m = bucket_size as u64;
    let needed_buckets = (last_points - buffered).div_ceil(m);
    let first_needed = buckets_inserted - needed_buckets + 1;
    let first_covered = active
        .iter()
        .filter(|c| c.span().end() >= first_needed)
        .map(|c| c.span().start())
        .min()
        .unwrap_or(buckets_inserted + 1);
    (buckets_inserted + 1 - first_covered) * m + buffered
}

/// The shared tail of every backend's [`query_clustering`]: extract centers
/// from the candidate block ([`extract_centers_block`]), estimate their
/// cost on the same candidates ([`candidate_cost`] — deterministic, after
/// extraction, so the centers and the RNG position are bit-identical to a
/// plain `query`), and assemble the publishable answer.
///
/// [`query_clustering`]: crate::StreamingClusterer::query_clustering
pub(crate) fn extract_clustering_result<R: Rng + ?Sized>(
    candidates: &PointBlock,
    stats: crate::clusterer::QueryStats,
    points_seen: u64,
    config: &StreamConfig,
    rng: &mut R,
) -> Result<crate::publish::ClusteringResult> {
    let centers = extract_centers_block(candidates, config, rng)?;
    let cost = candidate_cost(candidates, &centers)?;
    Ok(crate::publish::ClusteringResult {
        centers,
        cost,
        points_seen,
        stats,
        window: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn buffer_flushes_full_buckets() {
        let mut buf = BucketBuffer::new(3).unwrap();
        assert!(buf.push(&[1.0, 0.0]).unwrap().is_none());
        assert!(buf.push(&[2.0, 0.0]).unwrap().is_none());
        let full = buf.push(&[3.0, 0.0]).unwrap().unwrap();
        assert_eq!(full.len(), 3);
        assert_eq!(buf.buffered_points(), 0);
        assert_eq!(buf.points_seen(), 3);
        // Next bucket starts fresh.
        assert!(buf.push(&[4.0, 0.0]).unwrap().is_none());
        assert_eq!(buf.buffered_points(), 1);
        assert_eq!(buf.points_seen(), 4);
    }

    #[test]
    fn buffer_rejects_dimension_changes() {
        let mut buf = BucketBuffer::new(4).unwrap();
        buf.push(&[1.0, 2.0]).unwrap();
        assert!(buf.push(&[1.0]).is_err());
        assert!(buf.push(&[]).is_err());
    }

    #[test]
    fn buffer_rejects_dimension_change_right_after_flush() {
        // The partial block is consumed by a flush; the stream dimension
        // must survive it so the very next point is still validated.
        let mut buf = BucketBuffer::new(2).unwrap();
        buf.push(&[1.0, 2.0]).unwrap();
        let full = buf.push(&[3.0, 4.0]).unwrap().unwrap();
        assert_eq!(full.len(), 2);
        assert_eq!(buf.dim(), Some(2));
        assert!(buf.push(&[1.0, 2.0, 3.0]).is_err());
        assert_eq!(buf.points_seen(), 2);
    }

    #[test]
    fn partial_reflects_buffered_points() {
        let mut buf = BucketBuffer::new(5).unwrap();
        assert!(buf.partial().is_none());
        buf.push(&[1.0]).unwrap();
        buf.push(&[2.0]).unwrap();
        let p = buf.partial().unwrap();
        assert_eq!(p.len(), 2);
        assert_eq!(p.point(1), &[2.0]);
        assert_eq!(buf.dim(), Some(1));
    }

    #[test]
    fn extract_centers_returns_k_centers() {
        let mut points = PointBlock::new(2);
        for i in 0..100 {
            let base = if i % 2 == 0 { 0.0 } else { 50.0 };
            points.push(&[base + f64::from(i % 5) * 0.1, base], 1.0);
        }
        let config = StreamConfig::new(2).with_kmeans_runs(2);
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let centers = extract_centers_block(&points, &config, &mut rng).unwrap();
        assert_eq!(centers.len(), 2);
    }

    #[test]
    fn extract_centers_empty_is_error() {
        let config = StreamConfig::new(2);
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        assert!(extract_centers_block(&PointBlock::new(2), &config, &mut rng).is_err());
    }

    #[test]
    fn zero_bucket_size_is_an_error_not_a_panic() {
        // Regression: this used to `assert!` and abort the caller; the
        // validation now matches `StreamConfig::validate`.
        match BucketBuffer::new(0) {
            Err(ClusteringError::InvalidParameter { name, .. }) => {
                assert_eq!(name, "bucket_size");
            }
            other => panic!("expected InvalidParameter, got {other:?}"),
        }
    }

    #[test]
    fn non_finite_coordinates_are_rejected_without_poisoning_state() {
        let mut buf = BucketBuffer::new(4).unwrap();
        buf.push(&[1.0, 2.0]).unwrap();
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            match buf.push(&[bad, 0.0]) {
                Err(ClusteringError::NonFiniteCoordinate { index: 0 }) => {}
                other => panic!("expected NonFiniteCoordinate, got {other:?}"),
            }
        }
        // The rejected points must not have advanced any bookkeeping.
        assert_eq!(buf.points_seen(), 1);
        assert_eq!(buf.buffered_points(), 1);
        assert!(buf.partial().unwrap().norms().iter().all(|n| n.is_finite()));
    }

    #[test]
    fn rejected_first_point_does_not_lock_the_stream_dimension() {
        // A rejected point must not commit anything — including the stream
        // dimension learned from it: after a bad 2-d first point, a valid
        // 3-d stream must still be accepted.
        let mut buf = BucketBuffer::new(4).unwrap();
        assert!(buf.push(&[f64::NAN, 0.0]).is_err());
        assert_eq!(buf.dim(), None);
        buf.push(&[1.0, 2.0, 3.0]).unwrap();
        assert_eq!(buf.dim(), Some(3));

        // Same through the batch path: the rejected batch leaves the
        // dimension unlearned, but a batch must still be self-consistent.
        let mut buf = BucketBuffer::new(4).unwrap();
        let bad2d: &[f64] = &[f64::INFINITY, 0.0];
        assert!(buf.push_batch(&[bad2d], |_| Ok(())).is_err());
        assert_eq!(buf.dim(), None);
        let a: &[f64] = &[1.0, 2.0];
        let b: &[f64] = &[3.0];
        assert!(matches!(
            buf.push_batch(&[a, b], |_| Ok(())),
            Err(ClusteringError::DimensionMismatch {
                expected: 2,
                got: 1
            })
        ));
        assert_eq!(buf.dim(), None);
        buf.push_batch(&[a], |_| Ok(())).unwrap();
        assert_eq!(buf.dim(), Some(2));
    }

    #[test]
    fn push_batch_flushes_buckets_and_matches_per_point_pushes() {
        let points: Vec<Vec<f64>> = (0..7).map(|i| vec![f64::from(i), 1.0]).collect();
        let refs: Vec<&[f64]> = points.iter().map(Vec::as_slice).collect();

        let mut batched = BucketBuffer::new(3).unwrap();
        let mut batched_full = Vec::new();
        batched
            .push_batch(&refs, |b| {
                batched_full.push(b);
                Ok(())
            })
            .unwrap();

        let mut single = BucketBuffer::new(3).unwrap();
        let mut single_full = Vec::new();
        for p in &refs {
            if let Some(b) = single.push(p).unwrap() {
                single_full.push(b);
            }
        }

        assert_eq!(batched_full, single_full);
        assert_eq!(batched.points_seen(), single.points_seen());
        assert_eq!(batched.partial(), single.partial());
        assert_eq!(batched_full.len(), 2);
        assert_eq!(batched.buffered_points(), 1);
    }

    #[test]
    fn deserialize_rejects_states_the_update_path_cannot_produce() {
        use serde::{Deserialize as _, Serialize as _};

        let mut buf = BucketBuffer::new(4).unwrap();
        buf.push(&[1.0, 2.0]).unwrap();
        let good = buf.to_value();
        assert!(BucketBuffer::from_value(&good).is_ok());

        let tamper = |field: &str, value: serde::Value| {
            let mut map = match good.clone() {
                serde::Value::Map(m) => m,
                other => panic!("expected map, got {other:?}"),
            };
            let entry = map.iter_mut().find(|(k, _)| k == field).unwrap();
            entry.1 = value;
            serde::Value::Map(map)
        };

        // Zero bucket size: the partial bucket would never flush.
        assert!(BucketBuffer::from_value(&tamper("bucket_size", serde::Value::UInt(0))).is_err());
        // A partial at/above the bucket size should have flushed already.
        assert!(BucketBuffer::from_value(&tamper("bucket_size", serde::Value::UInt(1))).is_err());
        // Dimension bookkeeping must agree with the buffered block.
        assert!(BucketBuffer::from_value(&tamper("dim", serde::Value::UInt(3))).is_err());
        assert!(BucketBuffer::from_value(&tamper("dim", serde::Value::Null)).is_err());
        // points_seen cannot be smaller than what is sitting in the buffer.
        assert!(BucketBuffer::from_value(&tamper("points_seen", serde::Value::UInt(0))).is_err());
    }

    #[test]
    fn push_batch_rejects_whole_batch_before_buffering() {
        let mut buf = BucketBuffer::new(10).unwrap();
        let good = [0.0, 1.0];
        let bad = [2.0, f64::NAN];
        let batch: Vec<&[f64]> = vec![&good, &bad];
        match buf.push_batch(&batch, |_| Ok(())) {
            Err(ClusteringError::NonFiniteCoordinate { index: 1 }) => {}
            other => panic!("expected NonFiniteCoordinate, got {other:?}"),
        }
        // Validation happens before buffering: even the valid prefix point
        // must not have been consumed.
        assert_eq!(buf.points_seen(), 0);
        assert_eq!(buf.buffered_points(), 0);
    }
}
