//! The r-way merging coreset tree (CT) — Algorithm 2 of the paper.
//!
//! CT is the prior-art baseline (it generalizes streamkm++, which is the
//! special case `r = 2`). It maintains buckets at multiple levels:
//!
//! * level-0 buckets ("base buckets") hold `m` original input points;
//! * a level-`j` bucket is a coreset summarizing `r^j` base buckets.
//!
//! The distribution of buckets over levels mirrors the base-`r`
//! representation of the number `N` of base buckets inserted so far: if
//! `N = (s_q … s_1 s_0)_r` then level `i` holds exactly `s_i` buckets.
//! Inserting a base bucket is like incrementing a base-`r` counter: whenever
//! a level accumulates `r` buckets they are merged (reduced) into one bucket
//! at the next level.
//!
//! Answering a query unions **all** active buckets — up to `(r−1)·log_r N`
//! of them — which is exactly the cost the paper's CC/RCC algorithms avoid.

use crate::config::StreamConfig;
use rand::Rng;
use serde::{Deserialize, Serialize};
use skm_clustering::error::Result;
use skm_clustering::PointBlock;
use skm_coreset::construct::CoresetBuilder;
use skm_coreset::coreset::Coreset;
use skm_coreset::merge::merge_coresets;

/// The r-way merging coreset tree.
///
/// Serialization captures the full structure (levels, merge degree,
/// builder, insertion count), so a deserialized tree continues exactly
/// where the serialized one stopped.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CoresetTree {
    /// `levels[j]` holds the active buckets of level `j`, oldest first.
    levels: Vec<Vec<Coreset>>,
    /// Merge degree `r ≥ 2`.
    merge_degree: u64,
    /// Coreset constructor used when merging.
    builder: CoresetBuilder,
    /// Number of base buckets inserted so far (`N`).
    buckets_inserted: u64,
}

impl CoresetTree {
    /// Creates an empty tree from the shared configuration.
    ///
    /// # Errors
    /// Returns an error if the configuration is invalid.
    pub fn new(config: &StreamConfig) -> Result<Self> {
        config.validate()?;
        let builder = CoresetBuilder::new(config.k)
            .with_size(config.bucket_size)
            .with_method(config.coreset_method);
        Ok(Self {
            levels: Vec::new(),
            merge_degree: config.merge_degree,
            builder,
            buckets_inserted: 0,
        })
    }

    /// Merge degree `r`.
    #[must_use]
    pub fn merge_degree(&self) -> u64 {
        self.merge_degree
    }

    /// Number of base buckets inserted so far (`N`).
    #[must_use]
    pub fn buckets_inserted(&self) -> u64 {
        self.buckets_inserted
    }

    /// The coreset builder used for merges (shared with the cache logic in
    /// CC so both use identical construction parameters).
    #[must_use]
    pub fn builder(&self) -> &CoresetBuilder {
        &self.builder
    }

    /// `CT-Update` (Algorithm 2): inserts one full base bucket of original
    /// points and performs any merges required to restore the digit
    /// invariant. The bucket keeps the norm cache its buffer filled, so
    /// every later merge reuses it.
    ///
    /// # Errors
    /// Propagates coreset-construction errors.
    pub fn insert_bucket<R: Rng + ?Sized>(
        &mut self,
        bucket: PointBlock,
        rng: &mut R,
    ) -> Result<()> {
        self.buckets_inserted += 1;
        let r = self.merge_degree as usize;
        // Base-r increment: the new bucket lands at level 0, and every level
        // that reaches r buckets merges them into one carried a level up.
        let mut carry = Some(Coreset::base_bucket(bucket, self.buckets_inserted));
        for level in &mut self.levels {
            let Some(coreset) = carry.take() else {
                break;
            };
            level.push(coreset);
            if level.len() >= r {
                let group = std::mem::take(level);
                carry = Some(merge_coresets(&group, &self.builder, rng)?);
            }
        }
        if let Some(coreset) = carry {
            self.levels.push(vec![coreset]);
        }
        Ok(())
    }

    /// `CT-Coreset` (Algorithm 2): all active buckets across all levels.
    /// The returned references are ordered from the highest level (oldest
    /// data) to level 0 (newest data).
    #[must_use]
    pub fn active_coresets(&self) -> Vec<&Coreset> {
        let mut out = Vec::new();
        for level in self.levels.iter().rev() {
            for c in level {
                out.push(c);
            }
        }
        out
    }

    /// Buckets currently stored at `level` (empty slice when the level does
    /// not exist).
    #[must_use]
    pub fn level(&self, level: usize) -> &[Coreset] {
        self.levels.get(level).map_or(&[], Vec::as_slice)
    }

    /// Number of levels with at least one active bucket.
    #[must_use]
    pub fn active_levels(&self) -> usize {
        self.levels.iter().filter(|l| !l.is_empty()).count()
    }

    /// Highest level index holding an active bucket, or `None` when empty.
    #[must_use]
    pub fn max_level(&self) -> Option<usize> {
        self.levels
            .iter()
            .enumerate()
            .filter(|(_, l)| !l.is_empty())
            .map(|(i, _)| i)
            .next_back()
    }

    /// Union of all active buckets as one weighted point block, together
    /// with the number of buckets unioned and the maximum coreset level
    /// among them. The buckets' cached norms are copied into the union, so
    /// the query-side k-means runs on the fused kernels without a norm pass.
    ///
    /// Returns `(empty block, 0, 0)` when the tree holds no buckets.
    ///
    /// # Errors
    /// [`skm_clustering::ClusteringError::DimensionMismatch`] if two buckets
    /// disagree on the dimension.
    pub fn union_all_block(&self, dim_hint: usize) -> Result<(PointBlock, usize, u32)> {
        let coresets = self.active_coresets();
        let Some(first) = coresets.first() else {
            return Ok((PointBlock::new(dim_hint.max(1)), 0, 0));
        };
        let dim = first.points().dim();
        let total: usize = coresets.iter().map(|c| c.len()).sum();
        let mut union = PointBlock::with_capacity(dim, total);
        let mut max_level = 0;
        for c in &coresets {
            union.extend_from_block(c.points())?;
            max_level = max_level.max(c.level());
        }
        Ok((union, coresets.len(), max_level))
    }

    /// Total number of (weighted) points stored across all buckets.
    #[must_use]
    pub fn stored_points(&self) -> usize {
        self.levels
            .iter()
            .flat_map(|level| level.iter().map(Coreset::len))
            .sum()
    }

    /// Total weight stored across all buckets. Because every merge preserves
    /// total weight, this always equals the number of points fed into the
    /// tree (with unit weights); tests rely on this invariant.
    #[must_use]
    pub fn stored_weight(&self) -> f64 {
        self.levels
            .iter()
            .flat_map(|level| level.iter().map(Coreset::total_weight))
            .sum()
    }

    /// Checks the digit invariant: writing `N` in base `r`, level `i` must
    /// hold exactly `s_i` buckets. Returns `true` when the invariant holds.
    #[must_use]
    pub fn digit_invariant_holds(&self) -> bool {
        let r = self.merge_degree;
        let mut n = self.buckets_inserted;
        let mut level = 0usize;
        loop {
            let digit = (n % r) as usize;
            let actual = self.levels.get(level).map_or(0, Vec::len);
            if actual != digit {
                return false;
            }
            n /= r;
            level += 1;
            if n == 0 {
                break;
            }
        }
        // Any remaining levels must be empty.
        self.levels.iter().skip(level).all(Vec::is_empty)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::numeric::ceil_log;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn bucket(dim: usize, m: usize, offset: f64) -> PointBlock {
        let mut s = PointBlock::new(dim);
        for i in 0..m {
            let mut p = vec![offset; dim];
            p[0] += i as f64 * 0.01;
            s.push(&p, 1.0);
        }
        s
    }

    fn tree(k: usize, m: usize, r: u64) -> CoresetTree {
        let config = StreamConfig::new(k)
            .with_bucket_size(m)
            .with_merge_degree(r);
        CoresetTree::new(&config).unwrap()
    }

    #[test]
    fn empty_tree() {
        let t = tree(2, 40, 3);
        assert_eq!(t.buckets_inserted(), 0);
        assert_eq!(t.stored_points(), 0);
        assert!(t.max_level().is_none());
        assert!(t.digit_invariant_holds());
        let (u, merged, level) = t.union_all_block(2).unwrap();
        assert!(u.is_empty());
        assert_eq!(merged, 0);
        assert_eq!(level, 0);
    }

    #[test]
    fn figure_1_three_way_tree_shape() {
        // Reproduces Figure 1 of the paper: a 3-way tree after 1, 4, 6 and 9
        // base buckets.
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let mut t = tree(2, 30, 3);

        // (a) after 1 bucket: one level-0 bucket.
        t.insert_bucket(bucket(2, 30, 0.0), &mut rng).unwrap();
        assert_eq!(t.level(0).len(), 1);
        assert!(t.digit_invariant_holds());

        // (b) after 4 buckets: 4 = (1,1)_3 -> one level-1, one level-0.
        for i in 1..4 {
            t.insert_bucket(bucket(2, 30, f64::from(i)), &mut rng)
                .unwrap();
        }
        assert_eq!(t.level(0).len(), 1);
        assert_eq!(t.level(1).len(), 1);
        assert_eq!(t.level(1)[0].span(), skm_coreset::Span::new(1, 3));
        assert!(t.digit_invariant_holds());

        // (c) after 6 buckets: 6 = (2,0)_3 -> two level-1, zero level-0.
        for i in 4..6 {
            t.insert_bucket(bucket(2, 30, f64::from(i)), &mut rng)
                .unwrap();
        }
        assert_eq!(t.level(0).len(), 0);
        assert_eq!(t.level(1).len(), 2);
        assert_eq!(t.level(1)[1].span(), skm_coreset::Span::new(4, 6));
        assert!(t.digit_invariant_holds());

        // (d) after 9 buckets: 9 = (1,0,0)_3 -> a single level-2 bucket.
        for i in 6..9 {
            t.insert_bucket(bucket(2, 30, f64::from(i)), &mut rng)
                .unwrap();
        }
        assert_eq!(t.level(0).len(), 0);
        assert_eq!(t.level(1).len(), 0);
        assert_eq!(t.level(2).len(), 1);
        assert_eq!(t.level(2)[0].span(), skm_coreset::Span::new(1, 9));
        assert!(t.digit_invariant_holds());
    }

    #[test]
    fn digit_invariant_holds_for_many_n_and_r() {
        for r in [2u64, 3, 4] {
            let mut rng = ChaCha8Rng::seed_from_u64(r);
            let mut t = tree(2, 8, r);
            for i in 0..40 {
                t.insert_bucket(bucket(2, 8, f64::from(i)), &mut rng)
                    .unwrap();
                assert!(t.digit_invariant_holds(), "r = {r}, N = {}", i + 1);
            }
        }
    }

    #[test]
    fn fact_1_level_bound() {
        // Fact 1: the maximum level is at most ceil(log_r N).
        let r = 2u64;
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let mut t = tree(2, 8, r);
        for i in 0..64 {
            t.insert_bucket(bucket(2, 8, f64::from(i)), &mut rng)
                .unwrap();
            let n = t.buckets_inserted();
            if let Some(max_level) = t.max_level() {
                assert!(
                    max_level as u32 <= ceil_log(n, r),
                    "N = {n}: level {max_level} exceeds bound {}",
                    ceil_log(n, r)
                );
            }
            // The level metadata of every bucket matches its position.
            for (j, level) in (0..).zip(&t.levels) {
                for c in level {
                    assert_eq!(c.level(), j as u32);
                }
            }
        }
    }

    #[test]
    fn weight_is_preserved_across_merges() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let mut t = tree(3, 20, 2);
        for i in 0..17 {
            t.insert_bucket(bucket(2, 20, f64::from(i)), &mut rng)
                .unwrap();
        }
        // 17 buckets x 20 unit-weight points.
        assert!((t.stored_weight() - 340.0).abs() < 1e-6);
        let (u, merged, _) = t.union_all_block(2).unwrap();
        assert!((u.total_weight() - 340.0).abs() < 1e-6);
        assert_eq!(merged, t.active_coresets().len());
    }

    #[test]
    fn memory_stays_bounded_by_r_buckets_per_level() {
        let r = 3u64;
        let m = 15usize;
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let mut t = tree(2, m, r);
        for i in 0..100 {
            t.insert_bucket(bucket(2, m, f64::from(i)), &mut rng)
                .unwrap();
            for level in &t.levels {
                assert!(level.len() < r as usize);
            }
            // Total memory <= (r-1) * m * number of levels.
            let bound = (r as usize - 1) * m * (ceil_log(t.buckets_inserted(), r) as usize + 1);
            assert!(t.stored_points() <= bound);
        }
    }

    #[test]
    fn union_reports_merged_count_and_level() {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let mut t = tree(2, 10, 2);
        for i in 0..7 {
            t.insert_bucket(bucket(2, 10, f64::from(i)), &mut rng)
                .unwrap();
        }
        // 7 = (1,1,1)_2: one bucket at each of levels 0, 1, 2.
        let (_, merged, max_level) = t.union_all_block(2).unwrap();
        assert_eq!(merged, 3);
        assert_eq!(max_level, 2);
    }
}
