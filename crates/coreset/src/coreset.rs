//! The [`Coreset`] type: a weighted summary of a span of base buckets.

use crate::span::Span;
use serde::{Deserialize, Serialize};
use skm_clustering::PointBlock;

/// A weighted point block summarizing the base buckets in `span`, together
/// with its coreset *level* (Definition 2 of the paper).
///
/// * A **level-0** coreset of `P` is `P` itself — base buckets are level 0.
/// * A **level-ℓ** coreset is produced by running the coreset construction
///   on a union of coresets of level `< ℓ` (at least one of which has level
///   `ℓ − 1`).
///
/// Lemma 1 relates the level to the accuracy: a level-ℓ coreset built with
/// per-merge parameter `ε` is a `((1 + ε)^ℓ − 1)`-coreset of the original
/// points. The streaming algorithms therefore track levels explicitly, and
/// the tests verify the level bounds of Fact 1 (CT) and Lemma 5 (CC).
///
/// The points keep the squared norms their block cached when they were
/// pushed, so every merge and query reuses them instead of recomputing
/// them; a deserialized coreset rebuilds them (and validates its points)
/// through [`PointBlock`]'s deserializer.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Coreset {
    points: PointBlock,
    span: Span,
    level: u32,
}

impl Coreset {
    /// Wraps a raw base bucket (level 0) covering base bucket `bucket`.
    #[must_use]
    pub fn base_bucket(points: PointBlock, bucket: u64) -> Self {
        Self {
            points,
            span: Span::single(bucket),
            level: 0,
        }
    }

    /// Creates a coreset with an explicit span and level. Used by the
    /// constructors in [`crate::construct`] and [`crate::merge`].
    #[must_use]
    pub fn with_parts(points: PointBlock, span: Span, level: u32) -> Self {
        Self {
            points,
            span,
            level,
        }
    }

    /// The summarized weighted points.
    #[must_use]
    pub fn points(&self) -> &PointBlock {
        &self.points
    }

    /// Consumes the coreset and returns the underlying point block.
    #[must_use]
    pub fn into_points(self) -> PointBlock {
        self.points
    }

    /// The span `[l, r]` of base buckets this coreset summarizes.
    #[must_use]
    pub fn span(&self) -> Span {
        self.span
    }

    /// The coreset level (Definition 2).
    #[must_use]
    pub fn level(&self) -> u32 {
        self.level
    }

    /// The right endpoint `r` of the span — the key the coreset cache uses.
    #[must_use]
    pub fn right_endpoint(&self) -> u64 {
        self.span.end()
    }

    /// Number of stored (weighted) points.
    #[must_use]
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the summary holds no points.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Total weight carried by the summary. For an exact construction this
    /// equals the total weight of the summarized input.
    #[must_use]
    pub fn total_weight(&self) -> f64 {
        self.points.total_weight()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_points() -> PointBlock {
        let mut s = PointBlock::new(2);
        s.push(&[0.0, 0.0], 1.0);
        s.push(&[1.0, 1.0], 2.0);
        s
    }

    #[test]
    fn base_bucket_has_level_zero() {
        let c = Coreset::base_bucket(small_points(), 5);
        assert_eq!(c.level(), 0);
        assert_eq!(c.span(), Span::single(5));
        assert_eq!(c.right_endpoint(), 5);
        assert_eq!(c.len(), 2);
        assert!(!c.is_empty());
    }

    #[test]
    fn with_parts_preserves_metadata() {
        let c = Coreset::with_parts(small_points(), Span::new(3, 8), 4);
        assert_eq!(c.level(), 4);
        assert_eq!(c.span().len(), 6);
        assert_eq!(c.right_endpoint(), 8);
    }

    #[test]
    fn total_weight_and_memory() {
        let c = Coreset::base_bucket(small_points(), 1);
        assert!((c.total_weight() - 3.0).abs() < 1e-12);
        // Memory is accounted in stored points, as the streaming
        // algorithms' `memory_points` does (Table 4).
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn into_points_round_trips() {
        let c = Coreset::base_bucket(small_points(), 1);
        let p = c.into_points();
        assert_eq!(p.len(), 2);
    }
}
