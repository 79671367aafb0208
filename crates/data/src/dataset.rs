//! The [`Dataset`] container: a named point set used as a stream.

use rand::seq::SliceRandom;
use rand::Rng;
use skm_clustering::PointBlock;

/// A named, in-memory dataset that is consumed as a stream of points.
///
/// The paper randomly shuffles each dataset before streaming it "to erase
/// any potential special ordering within data" (Section 5.1); use
/// [`Dataset::shuffled`] to reproduce that.
#[derive(Debug, Clone)]
pub struct Dataset {
    name: String,
    points: PointBlock,
}

impl Dataset {
    /// Wraps a point set under a dataset name.
    #[must_use]
    pub fn new(name: impl Into<String>, points: PointBlock) -> Self {
        Self {
            name: name.into(),
            points,
        }
    }

    /// The dataset name (used in experiment reports).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The underlying points.
    #[must_use]
    pub fn points(&self) -> &PointBlock {
        &self.points
    }

    /// Number of points.
    #[must_use]
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the dataset is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Dimensionality of the points.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.points.dim()
    }

    /// Returns a copy with the point order randomly permuted.
    #[must_use]
    pub fn shuffled<R: Rng + ?Sized>(&self, rng: &mut R) -> Self {
        let mut order: Vec<usize> = (0..self.points.len()).collect();
        order.shuffle(rng);
        let mut shuffled = PointBlock::with_capacity(self.points.dim(), self.points.len());
        for idx in order {
            shuffled.push(self.points.point(idx), self.points.weight(idx));
        }
        Self {
            name: self.name.clone(),
            points: shuffled,
        }
    }

    /// Returns a copy truncated to the first `n` points (useful for quick
    /// benchmark runs). If `n >= len`, the copy is identical.
    #[must_use]
    pub fn truncated(&self, n: usize) -> Self {
        let keep = n.min(self.points.len());
        let mut points = PointBlock::with_capacity(self.points.dim(), keep);
        for i in 0..keep {
            points.push(self.points.point(i), self.points.weight(i));
        }
        Self {
            name: self.name.clone(),
            points,
        }
    }

    /// Iterates over the point coordinate slices in stream order.
    pub fn stream(&self) -> impl Iterator<Item = &[f64]> + '_ {
        self.points.iter().map(|(p, _, _)| p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn dataset() -> Dataset {
        let mut s = PointBlock::new(2);
        for i in 0..10 {
            s.push(&[f64::from(i), 0.0], 1.0);
        }
        Dataset::new("toy", s)
    }

    #[test]
    fn accessors() {
        let d = dataset();
        assert_eq!(d.name(), "toy");
        assert_eq!(d.len(), 10);
        assert_eq!(d.dim(), 2);
        assert!(!d.is_empty());
        assert_eq!(d.stream().count(), 10);
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let d = dataset();
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let s = d.shuffled(&mut rng);
        assert_eq!(s.len(), d.len());
        let mut original: Vec<f64> = d.stream().map(|p| p[0]).collect();
        let mut shuffled: Vec<f64> = s.stream().map(|p| p[0]).collect();
        assert_ne!(original, shuffled, "shuffle should change the order");
        original.sort_by(f64::total_cmp);
        shuffled.sort_by(f64::total_cmp);
        assert_eq!(original, shuffled, "shuffle must preserve the multiset");
    }

    #[test]
    fn truncation() {
        let d = dataset();
        assert_eq!(d.truncated(3).len(), 3);
        assert_eq!(d.truncated(100).len(), 10);
        assert_eq!(d.truncated(3).points().point(2), &[2.0, 0.0]);
    }
}
