//! Bucket spans.
//!
//! The stream is divided into *base buckets* of `m` points each, numbered
//! `1, 2, 3, …` in arrival order. Every coreset in the coreset tree and in
//! the cache summarizes a contiguous interval of base buckets; the paper
//! writes this interval `[l, r]` and calls `r` the *right endpoint* (the key
//! used by the coreset cache).

use serde::{Deserialize, Serialize};
use std::fmt;

/// An inclusive interval `[start, end]` of base-bucket numbers (1-based).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Span {
    start: u64,
    end: u64,
}

impl Span {
    /// Creates the span `[start, end]`.
    ///
    /// # Panics
    /// Panics if `start == 0` (buckets are 1-based) or `start > end`.
    #[must_use]
    pub fn new(start: u64, end: u64) -> Self {
        assert!(start >= 1, "bucket numbers are 1-based");
        assert!(start <= end, "span start must not exceed end");
        Self { start, end }
    }

    /// The span of a single base bucket `[b, b]`.
    #[must_use]
    pub fn single(bucket: u64) -> Self {
        Self::new(bucket, bucket)
    }

    /// First bucket covered (inclusive).
    #[must_use]
    pub fn start(&self) -> u64 {
        self.start
    }

    /// Last bucket covered (inclusive) — the *right endpoint* used as the
    /// cache key.
    #[must_use]
    pub fn end(&self) -> u64 {
        self.end
    }

    /// Number of base buckets covered.
    #[must_use]
    pub fn len(&self) -> u64 {
        self.end - self.start + 1
    }

    /// Spans are never empty, but the method exists for API symmetry.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Whether `self` immediately precedes `other` (so their union is a
    /// contiguous span).
    #[must_use]
    pub fn is_adjacent_before(&self, other: &Span) -> bool {
        self.end + 1 == other.start
    }

    /// Whether the two spans overlap.
    #[must_use]
    pub fn overlaps(&self, other: &Span) -> bool {
        self.start <= other.end && other.start <= self.end
    }

    /// The union of a sorted, contiguous, non-overlapping collection of
    /// spans, or `None` if the collection is empty, overlapping or has gaps.
    #[must_use]
    pub fn union_contiguous(spans: &[Span]) -> Option<Span> {
        let (first, rest) = spans.split_first()?;
        let mut acc = *first;
        for s in rest {
            if !acc.is_adjacent_before(s) {
                return None;
            }
            acc = Span::new(acc.start, s.end);
        }
        Some(acc)
    }
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {}]", self.start, self.end)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_accessors() {
        let s = Span::new(3, 7);
        assert_eq!(s.start(), 3);
        assert_eq!(s.end(), 7);
        assert_eq!(s.len(), 5);
        assert!(!s.is_empty());
        assert_eq!(s.to_string(), "[3, 7]");
    }

    #[test]
    fn single_bucket_span() {
        let s = Span::single(4);
        assert_eq!(s, Span::new(4, 4));
        assert_eq!(s.len(), 1);
    }

    #[test]
    #[should_panic(expected = "1-based")]
    fn zero_start_panics() {
        let _ = Span::new(0, 3);
    }

    #[test]
    #[should_panic(expected = "must not exceed")]
    fn inverted_span_panics() {
        let _ = Span::new(5, 3);
    }

    #[test]
    fn adjacency() {
        assert!(Span::new(1, 4).is_adjacent_before(&Span::new(5, 6)));
        assert!(!Span::new(1, 4).is_adjacent_before(&Span::new(6, 7)));
        assert!(!Span::new(1, 4).is_adjacent_before(&Span::new(4, 7)));
    }

    #[test]
    fn overlap() {
        assert!(Span::new(1, 4).overlaps(&Span::new(4, 9)));
        assert!(Span::new(2, 8).overlaps(&Span::new(3, 4)));
        assert!(!Span::new(1, 4).overlaps(&Span::new(5, 9)));
    }

    #[test]
    fn union_of_contiguous_spans() {
        let spans = [Span::new(1, 4), Span::new(5, 6), Span::new(7, 7)];
        assert_eq!(Span::union_contiguous(&spans), Some(Span::new(1, 7)));
    }

    #[test]
    fn union_rejects_gaps_and_overlaps() {
        assert_eq!(
            Span::union_contiguous(&[Span::new(1, 4), Span::new(6, 7)]),
            None
        );
        assert_eq!(
            Span::union_contiguous(&[Span::new(1, 4), Span::new(4, 7)]),
            None
        );
        assert_eq!(Span::union_contiguous(&[]), None);
    }

    #[test]
    fn ordering_is_lexicographic() {
        assert!(Span::new(1, 5) < Span::new(2, 3));
        assert!(Span::new(2, 3) < Span::new(2, 4));
    }
}
