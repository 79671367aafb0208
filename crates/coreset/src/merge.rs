//! Merge-and-reduce: combine several coresets into one.
//!
//! Observation 1 of the paper: the union of `(k, ε)`-coresets of disjoint
//! point sets is a `(k, ε)`-coreset of the union. Observation 2: taking a
//! coreset of a coreset compounds the errors multiplicatively. The streaming
//! algorithms therefore merge coresets by (a) unioning their weighted points
//! and (b) reducing the union back to `m` points with the coreset
//! constructor, which raises the *level* of the result to
//! `1 + max(levels of the inputs)` (Definition 2).

use crate::construct::CoresetBuilder;
use crate::coreset::Coreset;
use crate::span::Span;
use rand::Rng;
use skm_clustering::error::{ClusteringError, Result};
use skm_clustering::PointBlock;

/// Merges `inputs` (which must cover contiguous, non-overlapping,
/// consecutive spans, in order) into a single coreset of at most
/// `builder.size` points.
///
/// The resulting level is `1 + max(input levels)` as in Definition 2. The
/// resulting span is the union of the input spans.
///
/// # Errors
/// * [`ClusteringError::EmptyInput`] if `inputs` is empty or every input is
///   empty.
/// * [`ClusteringError::InvalidParameter`] if the spans are not contiguous
///   and ordered.
pub fn merge_coresets<R: Rng + ?Sized>(
    inputs: &[Coreset],
    builder: &CoresetBuilder,
    rng: &mut R,
) -> Result<Coreset> {
    let first = inputs.first().ok_or(ClusteringError::EmptyInput)?;
    let spans: Vec<Span> = inputs.iter().map(Coreset::span).collect();
    let union_span =
        Span::union_contiguous(&spans).ok_or_else(|| ClusteringError::InvalidParameter {
            name: "inputs",
            message: format!("spans are not contiguous and ordered: {spans:?}"),
        })?;

    let dim = first.points().dim();
    let total_points: usize = inputs.iter().map(Coreset::len).sum();
    if total_points == 0 {
        return Err(ClusteringError::EmptyInput);
    }
    // The inputs' cached norms are copied with their points, so the
    // reduction below runs on the fused kernels without a norm pass.
    let mut union = PointBlock::with_capacity(dim, total_points);
    for c in inputs {
        union.extend_from_block(c.points())?;
    }

    let level = 1 + inputs.iter().map(Coreset::level).max().unwrap_or(0);
    builder.build_block(&union, union_span, level, rng)
}

/// Unions norm-cached point blocks into a single block **without** reducing
/// them, reusing every input's cached squared norms.
///
/// Each shard of a sharded stream summarizes a *disjoint* slice of the
/// input, so by Observation 1 the union of the per-shard coresets is a
/// coreset of the whole stream. No reduction means no level increase, as
/// in `CT-Coreset` (Algorithm 2, line 10). The blocks carry the norms
/// their buffers computed at update time, so the union feeds the fused
/// query kernels without an extra norm pass. Empty inputs are skipped.
///
/// # Errors
/// Returns [`ClusteringError::EmptyInput`] when the inputs contain no
/// points at all, and a dimension-mismatch error when non-empty inputs
/// disagree on dimensionality.
pub fn union_blocks(inputs: &[PointBlock]) -> Result<PointBlock> {
    let total: usize = inputs.iter().map(PointBlock::len).sum();
    let first = inputs
        .iter()
        .find(|b| !b.is_empty())
        .ok_or(ClusteringError::EmptyInput)?;
    let mut out = PointBlock::with_capacity(first.dim(), total);
    for block in inputs {
        if !block.is_empty() {
            out.extend_from_block(block)?;
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn bucket(value: f64, n: usize, bucket_no: u64) -> Coreset {
        let mut s = PointBlock::new(1);
        for i in 0..n {
            s.push(&[value + i as f64 * 0.001], 1.0);
        }
        Coreset::base_bucket(s, bucket_no)
    }

    #[test]
    fn merge_produces_union_span_and_bumped_level() {
        let builder = CoresetBuilder::new(2).with_size(10);
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let a = bucket(0.0, 30, 1);
        let b = bucket(100.0, 30, 2);
        let merged = merge_coresets(&[a, b], &builder, &mut rng).unwrap();
        assert_eq!(merged.span(), Span::new(1, 2));
        assert_eq!(merged.level(), 1);
        assert!(merged.len() <= 10);
        assert!((merged.total_weight() - 60.0).abs() < 1e-9);
    }

    #[test]
    fn merge_of_merged_coresets_increments_level_again() {
        let builder = CoresetBuilder::new(2).with_size(10);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let ab = merge_coresets(
            &[bucket(0.0, 30, 1), bucket(10.0, 30, 2)],
            &builder,
            &mut rng,
        )
        .unwrap();
        let cd = merge_coresets(
            &[bucket(20.0, 30, 3), bucket(30.0, 30, 4)],
            &builder,
            &mut rng,
        )
        .unwrap();
        let all = merge_coresets(&[ab, cd], &builder, &mut rng).unwrap();
        assert_eq!(all.level(), 2);
        assert_eq!(all.span(), Span::new(1, 4));
    }

    #[test]
    fn merge_with_mixed_levels_uses_max_plus_one() {
        let builder = CoresetBuilder::new(2).with_size(10);
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let ab = merge_coresets(
            &[bucket(0.0, 30, 1), bucket(10.0, 30, 2)],
            &builder,
            &mut rng,
        )
        .unwrap();
        let c = bucket(20.0, 30, 3);
        let merged = merge_coresets(&[ab, c], &builder, &mut rng).unwrap();
        assert_eq!(merged.level(), 2);
        assert_eq!(merged.span(), Span::new(1, 3));
    }

    #[test]
    fn merge_rejects_gap_in_spans() {
        let builder = CoresetBuilder::new(2).with_size(10);
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let a = bucket(0.0, 5, 1);
        let c = bucket(1.0, 5, 3);
        assert!(merge_coresets(&[a, c], &builder, &mut rng).is_err());
    }

    #[test]
    fn merge_rejects_empty_input_list() {
        let builder = CoresetBuilder::new(2);
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        assert!(merge_coresets(&[], &builder, &mut rng).is_err());
    }

    #[test]
    fn union_points_concatenates() {
        let a = bucket(0.0, 5, 1);
        let b = bucket(1.0, 7, 2);
        let u = union_blocks(&[a.points().clone(), b.points().clone()]).unwrap();
        assert_eq!(u.len(), 12);
        assert!((u.total_weight() - 12.0).abs() < 1e-12);
        assert_eq!(u.point(0), a.points().point(0));
        assert_eq!(u.point(5), b.points().point(0));
        assert_eq!(u.point(11), b.points().point(6));
    }

    #[test]
    fn union_points_empty_is_error() {
        assert_eq!(union_blocks(&[]).unwrap_err(), ClusteringError::EmptyInput);
        let empty = Coreset::base_bucket(PointBlock::new(1), 1);
        assert_eq!(
            union_blocks(&[empty.points().clone()]).unwrap_err(),
            ClusteringError::EmptyInput
        );
    }

    #[test]
    fn union_blocks_concatenates_and_reuses_norms() {
        let a = bucket(3.0, 4, 1).into_points();
        let b = bucket(5.0, 2, 2).into_points();
        let empty = PointBlock::new(1);
        let u = union_blocks(&[a.clone(), empty, b.clone()]).unwrap();
        assert_eq!(u.len(), 6);
        assert_eq!(u.norms()[..4], a.norms()[..]);
        assert_eq!(u.norms()[4..], b.norms()[..]);
        assert!((u.total_weight() - 6.0).abs() < 1e-12);
    }

    #[test]
    fn union_blocks_rejects_empty_and_mismatched_inputs() {
        assert!(union_blocks(&[]).is_err());
        assert!(union_blocks(&[PointBlock::new(2)]).is_err());
        let a = bucket(1.0, 3, 1).into_points();
        let mut wrong = PointBlock::new(2);
        wrong.push(&[0.0, 0.0], 1.0);
        assert!(union_blocks(&[a, wrong]).is_err());
    }
}
