//! Tests of the weighted-point-set contract of [`PointBlock`] as its
//! callers use it: indexed access, validation of pushed points, multiset
//! union and clearing. The norm cache and serde checks live with the type
//! in [`crate::block`].

#[cfg(test)]
mod tests {
    use crate::block::PointBlock;
    use crate::error::ClusteringError;

    fn sample_set() -> PointBlock {
        let mut s = PointBlock::new(2);
        s.push(&[0.0, 0.0], 1.0);
        s.push(&[2.0, 0.0], 1.0);
        s.push(&[0.0, 2.0], 2.0);
        s
    }

    #[test]
    fn push_and_access() {
        let s = sample_set();
        assert_eq!(s.len(), 3);
        assert_eq!(s.dim(), 2);
        assert_eq!(s.point(1), &[2.0, 0.0]);
        assert_eq!(s.weight(2), 2.0);
        assert!((s.total_weight() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn dimension_mismatch_is_an_error() {
        let mut s = PointBlock::new(2);
        let err = s.try_push(&[1.0, 2.0, 3.0], 1.0).unwrap_err();
        assert_eq!(
            err,
            ClusteringError::DimensionMismatch {
                expected: 2,
                got: 3
            }
        );
        assert!(s.is_empty());
    }

    #[test]
    fn negative_weight_is_an_error() {
        let mut s = PointBlock::new(2);
        let err = s.try_push(&[1.0, 2.0], -1.0).unwrap_err();
        assert_eq!(err, ClusteringError::InvalidWeight { index: 0 });
        assert!(s.is_empty());
    }

    #[test]
    fn nan_weight_is_an_error() {
        let mut s = PointBlock::new(1);
        s.push(&[0.0], 1.0);
        let err = s.try_push(&[1.0], f64::NAN).unwrap_err();
        assert_eq!(err, ClusteringError::InvalidWeight { index: 1 });
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn extend_from_unions_multisets() {
        let mut a = sample_set();
        let b = sample_set();
        a.extend_from_block(&b).unwrap();
        assert_eq!(a.len(), 6);
        assert!((a.total_weight() - 8.0).abs() < 1e-12);
        assert_eq!(a.point(5), b.point(2));
        assert_eq!(a.weight(5), b.weight(2));
    }

    #[test]
    fn extend_from_rejects_dim_mismatch() {
        let mut a = sample_set();
        let mut b = PointBlock::new(3);
        b.push(&[1.0, 2.0, 3.0], 1.0);
        assert_eq!(
            a.extend_from_block(&b).unwrap_err(),
            ClusteringError::DimensionMismatch {
                expected: 2,
                got: 3
            }
        );
        assert_eq!(a, sample_set());
    }

    #[test]
    fn clear_keeps_dim() {
        let mut s = sample_set();
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.dim(), 2);
        assert_eq!(s.total_weight(), 0.0);
    }
}
