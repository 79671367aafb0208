//! Batch k-means++ reference: stores the entire stream and clusters it from
//! scratch at query time.
//!
//! The paper uses this as the accuracy yardstick in Figure 4 ("the clustering
//! costs of the streaming algorithms are nearly the same as that of running
//! the batch algorithm, which can see the input all at once"). It is not a
//! streaming algorithm — memory grows linearly and queries are very slow —
//! but it bounds what any streaming method could hope to achieve.

use crate::clusterer::{QueryStats, StreamingClusterer};
use crate::config::StreamConfig;
use crate::driver::extract_centers_block;
use rand::SeedableRng;
use rand_chacha::ChaCha20Rng;
use skm_clustering::error::{ClusteringError, Result};
use skm_clustering::{Centers, PointBlock};

/// The batch k-means++ (plus Lloyd refinement) reference "clusterer".
#[derive(Debug, Clone)]
pub struct BatchKMeansPP {
    config: StreamConfig,
    points: Option<PointBlock>,
    rng: ChaCha20Rng,
    last_stats: Option<QueryStats>,
}

impl BatchKMeansPP {
    /// Creates the batch reference with the given configuration and seed.
    ///
    /// # Errors
    /// Returns an error if the configuration is invalid.
    pub fn new(config: StreamConfig, seed: u64) -> Result<Self> {
        config.validate()?;
        Ok(Self {
            config,
            points: None,
            rng: ChaCha20Rng::seed_from_u64(seed),
            last_stats: None,
        })
    }

    /// Read access to the stored points (for tests).
    #[must_use]
    pub fn stored(&self) -> Option<&PointBlock> {
        self.points.as_ref()
    }
}

impl StreamingClusterer for BatchKMeansPP {
    fn name(&self) -> &'static str {
        "BatchKMeansPP"
    }

    fn update(&mut self, point: &[f64]) -> Result<()> {
        if point.is_empty() {
            return Err(ClusteringError::InvalidParameter {
                name: "point",
                message: "points must have at least one dimension".to_string(),
            });
        }
        let points = match &mut self.points {
            Some(p) => {
                if p.dim() != point.len() {
                    return Err(ClusteringError::DimensionMismatch {
                        expected: p.dim(),
                        got: point.len(),
                    });
                }
                p
            }
            None => self.points.insert(PointBlock::new(point.len())),
        };
        points.push(point, 1.0);
        Ok(())
    }

    fn query(&mut self) -> Result<Centers> {
        let points = self.points.as_ref().ok_or(ClusteringError::EmptyInput)?;
        let centers = extract_centers_block(points, &self.config, &mut self.rng)?;
        self.last_stats = Some(QueryStats {
            coresets_merged: 0,
            candidate_points: points.len(),
            coreset_level: None,
            used_cache: false,
            ran_kmeans: true,
        });
        Ok(centers)
    }

    fn memory_points(&self) -> usize {
        self.points.as_ref().map_or(0, PointBlock::len)
    }

    fn points_seen(&self) -> u64 {
        self.memory_points() as u64
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

    #[test]
    fn stores_every_point() {
        let mut b = BatchKMeansPP::new(StreamConfig::new(2).with_bucket_size(10), 0).unwrap();
        for i in 0..100 {
            b.update(&[f64::from(i), 0.0]).unwrap();
        }
        assert_eq!(b.memory_points(), 100);
        assert_eq!(b.points_seen(), 100);
    }

    #[test]
    fn query_before_points_is_error() {
        let mut b = BatchKMeansPP::new(StreamConfig::new(2).with_bucket_size(10), 0).unwrap();
        assert!(b.query().is_err());
    }

    #[test]
    fn clusters_blobs_near_optimally() {
        let mut b = BatchKMeansPP::new(
            StreamConfig::new(2)
                .with_bucket_size(10)
                .with_kmeans_runs(3),
            1,
        )
        .unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let mut all = PointBlock::new(1);
        for i in 0..500 {
            let base = if i % 2 == 0 { 0.0 } else { 100.0 };
            let p = [base + rng.gen::<f64>()];
            b.update(&p).unwrap();
            all.push(&p, 1.0);
        }
        let centers = b.query().unwrap();
        let cost = kmeans_cost_block(&all, &centers).unwrap();
        // Optimal cost is ~ 500 * Var(U(0,1)) ≈ 500/12 ≈ 42.
        assert!(cost < 60.0, "cost {cost}");
        assert!(b.last_query_stats().unwrap().ran_kmeans);
    }

    #[test]
    fn dimension_mismatch_is_error() {
        let mut b = BatchKMeansPP::new(StreamConfig::new(2).with_bucket_size(10), 0).unwrap();
        b.update(&[1.0, 2.0]).unwrap();
        assert!(b.update(&[1.0]).is_err());
        assert!(b.update(&[]).is_err());
    }
}
