//! Coreset construction: `coreset(k, ε, P)` of size `m`.
//!
//! The paper (Theorem 2, citing Feldman–Schmidt–Sohler) assumes an oracle
//! that, given `n` weighted points, produces a `(k, ε)`-coreset of size
//! `m = O(k/ε²)` in time `O(dnm)`. The evaluation section (5.2) states that,
//! as in streamkm++, the coresets are actually derived with **k-means++**:
//! sample `m` representatives by D² sampling and move every input point's
//! weight to its nearest representative.
//!
//! This module implements that construction ([`CoresetMethod::KMeansPP`])
//! in one `n × m` pass: [`kmeanspp_assign_block`] tracks each point's
//! nearest representative inside the D² sampling loop, from the dot products
//! the loop computes anyway. Nearest means the smallest unweighted score
//! `‖c‖² − 2·x·c` under a strict `<` in sampling order, so on a tie the
//! first-drawn representative wins: bit for bit what a separate
//! nearest-center pass gives. Every merge-and-reduce of the streaming
//! algorithms runs through it, on the update path and in the query-time
//! cache reduce.
//!
//! A second, *sensitivity sampling* construction
//! ([`CoresetMethod::SensitivitySampling`], Feldman–Langberg style
//! importance sampling) that is used by the ablation benchmark to show the
//! choice of constructor does not change the paper's conclusions.

use crate::coreset::Coreset;
use crate::span::Span;
use rand::Rng;
use serde::{Deserialize, Serialize};
use skm_clustering::distance::{sq_dist_block, squared_norms};
use skm_clustering::error::{ClusteringError, Result};
use skm_clustering::kmeanspp::kmeanspp_assign_block;
use skm_clustering::sampling::{cumulative_sums, sample_from_cumulative};
use skm_clustering::PointBlock;

/// Which coreset construction to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CoresetMethod {
    /// streamkm++ / paper construction: choose `m` representatives by
    /// k-means++ D² sampling; each representative receives the total weight
    /// of the input points assigned to it.
    KMeansPP,
    /// Importance (sensitivity) sampling: sample `m` points with probability
    /// proportional to an upper bound on their sensitivity and reweight by
    /// the inverse sampling probability.
    SensitivitySampling,
}

/// Configuration + entry point for coreset construction.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct CoresetBuilder {
    /// Number of clusters the coreset must preserve costs for.
    pub k: usize,
    /// Target coreset size `m` (the paper's *bucket size*, `20·k` by
    /// default).
    pub size: usize,
    /// Construction method.
    pub method: CoresetMethod,
}

impl CoresetBuilder {
    /// Creates a builder with the paper's defaults: size `m = 20·k`, k-means++
    /// construction.
    ///
    /// # Panics
    /// Panics if `k == 0`.
    #[must_use]
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "k must be positive");
        Self {
            k,
            size: 20 * k,
            method: CoresetMethod::KMeansPP,
        }
    }

    /// Overrides the coreset size `m`.
    #[must_use]
    pub fn with_size(mut self, size: usize) -> Self {
        self.size = size;
        self
    }

    /// Overrides the construction method.
    #[must_use]
    pub fn with_method(mut self, method: CoresetMethod) -> Self {
        self.method = method;
        self
    }

    /// Builds a coreset of `block`, labelling it with `span` and `level`.
    ///
    /// If `block` has at most `size` points the summary is exact: the points
    /// are copied verbatim (a 0-error coreset), which mirrors what the
    /// streaming algorithms do with partially filled buckets. Otherwise the
    /// k-means++ D² sampling and the weight transfer run through the fused
    /// distance kernels, reusing the block's cached squared norms.
    ///
    /// # Errors
    /// Returns an error if `block` is empty or the builder size is zero.
    pub fn build_block<R: Rng + ?Sized>(
        &self,
        block: &PointBlock,
        span: Span,
        level: u32,
        rng: &mut R,
    ) -> Result<Coreset> {
        if block.is_empty() {
            return Err(ClusteringError::EmptyInput);
        }
        if self.size == 0 {
            return Err(ClusteringError::InvalidParameter {
                name: "size",
                message: "coreset size must be positive".to_string(),
            });
        }
        if block.len() <= self.size {
            return Ok(Coreset::with_parts(block.clone(), span, level));
        }
        let summary = match self.method {
            CoresetMethod::KMeansPP => kmeanspp_coreset(block, self.size, rng)?,
            CoresetMethod::SensitivitySampling => {
                sensitivity_coreset(block, self.k, self.size, rng)?
            }
        };
        Ok(Coreset::with_parts(summary, span, level))
    }
}

/// k-means++ based construction: `size` representatives drawn by D²
/// sampling, each carrying the total weight of the input points nearest to
/// it (ties to the first-drawn representative), from one fused pass.
/// Representatives that receive no weight are dropped, which changes no
/// cost, so the result has at most `min(size, n)` points and the same total
/// weight as the input.
fn kmeanspp_coreset<R: Rng + ?Sized>(
    block: &PointBlock,
    size: usize,
    rng: &mut R,
) -> Result<PointBlock> {
    let (representatives, assignment) = kmeanspp_assign_block(block, size, rng)?;
    let mut out = PointBlock::with_capacity(block.dim(), representatives.len());
    for (rep, &w) in representatives.iter().zip(&assignment.cluster_weights) {
        if w > 0.0 {
            out.try_push(rep, w)?;
        }
    }
    Ok(out)
}

/// Sensitivity-sampling construction (Feldman–Langberg style).
///
/// 1. Compute a rough clustering `B` with k-means++ (`k` centers), with
///    every point assigned to its nearest center in the same pass.
/// 2. For every point, bound its sensitivity by
///    `s(x) = w(x)·d²(x,B)/φ_B(P) + w(x)/W(cluster(x))`.
/// 3. Sample `size` points with probability `p(x) ∝ s(x)` (with
///    replacement) and give each sampled point weight `w(x)/(size·p(x))`.
///
/// The returned summary preserves the total weight only in expectation; a
/// final rescaling step pins the total weight exactly, which empirically
/// improves stability without affecting the guarantee.
fn sensitivity_coreset<R: Rng + ?Sized>(
    points: &PointBlock,
    k: usize,
    size: usize,
    rng: &mut R,
) -> Result<PointBlock> {
    let (rough, assignment) = kmeanspp_assign_block(points, k, rng)?;
    let total_cost = assignment.cost;
    let total_weight = points.total_weight();

    // Sensitivity upper bounds, via the fused kernel and the cached norms.
    let rough_norms = squared_norms(rough.coords(), rough.dim());
    let clusters: Vec<(&[f64], f64, f64)> = rough
        .iter()
        .zip(&rough_norms)
        .zip(&assignment.cluster_weights)
        .map(|((center, &norm), &mass)| (center, norm, mass.max(f64::MIN_POSITIVE)))
        .collect();
    let mut sens = Vec::with_capacity(points.len());
    for ((p, w, norm), &label) in points.iter().zip(&assignment.labels) {
        let &(center, center_norm, cluster_mass) = clusters
            .get(label)
            .ok_or_else(|| sensitivity_error("the rough assignment names no such center"))?;
        let d2 = sq_dist_block(p, norm, center, center_norm);
        let cost_term = if total_cost > 0.0 {
            w * d2 / total_cost
        } else {
            0.0
        };
        sens.push(cost_term + w / cluster_mass);
    }
    let sens_total: f64 = sens.iter().sum();
    if sens_total <= 0.0 {
        // Degenerate: all points identical. Fall back to the k-means++
        // construction which handles this case.
        return kmeanspp_coreset(points, size, rng);
    }

    let cumulative = cumulative_sums(&sens);
    let mut out = PointBlock::with_capacity(points.dim(), size);
    for _ in 0..size {
        let (idx, s) = sample_from_cumulative(&cumulative, rng)
            .and_then(|idx| sens.get(idx).map(|&s| (idx, s)))
            .ok_or_else(|| sensitivity_error("no finite positive sensitivity to sample"))?;
        let prob = s / sens_total;
        let weight = points.weight(idx) / (size as f64 * prob);
        out.try_push(points.point(idx), weight)?;
    }
    // Rescale so the summary carries exactly the input mass.
    let out_weight = out.total_weight();
    if out_weight > 0.0 {
        let scale = total_weight / out_weight;
        let mut rescaled = PointBlock::with_capacity(out.dim(), out.len());
        for (p, w, _) in out.iter() {
            rescaled.try_push(p, w * scale)?;
        }
        return Ok(rescaled);
    }
    Ok(out)
}

/// The error for a sensitivity-sampling step that has nothing valid to work
/// with; reachable only through non-finite intermediate values.
fn sensitivity_error(message: &str) -> ClusteringError {
    ClusteringError::InvalidParameter {
        name: "sensitivity",
        message: message.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use skm_clustering::cost::kmeans_cost_block;
    use skm_clustering::kmeans::KMeans;

    /// A mixture of 4 Gaussian-ish blobs with 2000 points.
    fn blobs(seed: u64) -> PointBlock {
        use rand::Rng;
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let anchors = [(0.0, 0.0), (50.0, 0.0), (0.0, 50.0), (50.0, 50.0)];
        let mut s = PointBlock::new(2);
        for i in 0..2000 {
            let (ax, ay) = anchors[i % 4];
            let x: f64 = ax + rng.gen::<f64>() * 2.0 - 1.0;
            let y: f64 = ay + rng.gen::<f64>() * 2.0 - 1.0;
            s.push(&[x, y], 1.0);
        }
        s
    }

    #[test]
    fn small_inputs_are_copied_exactly() {
        let mut points = PointBlock::new(1);
        points.push(&[1.0], 2.0);
        points.push(&[3.0], 4.0);
        let builder = CoresetBuilder::new(2).with_size(10);
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let c = builder
            .build_block(&points, Span::single(1), 0, &mut rng)
            .unwrap();
        assert_eq!(c.len(), 2);
        assert_eq!(c.points().point(0), &[1.0]);
        assert!((c.total_weight() - 6.0).abs() < 1e-12);
    }

    #[test]
    fn kmeanspp_construction_has_requested_size_and_weight() {
        let points = blobs(1);
        let builder = CoresetBuilder::new(4).with_size(80);
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let c = builder
            .build_block(&points, Span::new(1, 4), 1, &mut rng)
            .unwrap();
        assert!(c.len() <= 80);
        assert!(c.len() >= 4);
        assert!((c.total_weight() - points.total_weight()).abs() < 1e-6);
        assert_eq!(c.level(), 1);
        assert_eq!(c.span(), Span::new(1, 4));
    }

    #[test]
    fn sensitivity_construction_preserves_total_weight() {
        let points = blobs(3);
        let builder = CoresetBuilder::new(4)
            .with_size(80)
            .with_method(CoresetMethod::SensitivitySampling);
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let c = builder
            .build_block(&points, Span::single(1), 1, &mut rng)
            .unwrap();
        assert_eq!(c.len(), 80);
        assert!((c.total_weight() - points.total_weight()).abs() < 1e-6);
    }

    /// The defining property (Definition 1), checked statistically: the cost
    /// of a good clustering evaluated on the coreset should be within a
    /// modest relative error of the cost evaluated on the full data.
    #[test]
    fn coreset_approximates_cost_of_good_clustering() {
        let points = blobs(5);
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let reference = KMeans::new(4)
            .with_runs(3)
            .fit_block(&points, &mut rng)
            .unwrap();
        for method in [CoresetMethod::KMeansPP, CoresetMethod::SensitivitySampling] {
            let builder = CoresetBuilder::new(4).with_size(200).with_method(method);
            let c = builder
                .build_block(&points, Span::single(1), 1, &mut rng)
                .unwrap();
            let full_cost = kmeans_cost_block(&points, &reference.centers).unwrap();
            let coreset_cost = kmeans_cost_block(c.points(), &reference.centers).unwrap();
            let rel_err = (full_cost - coreset_cost).abs() / full_cost;
            assert!(
                rel_err < 0.35,
                "method {method:?}: relative error too large: {rel_err}"
            );
        }
    }

    #[test]
    fn clustering_the_coreset_is_nearly_as_good_as_clustering_the_data() {
        let points = blobs(7);
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        let builder = CoresetBuilder::new(4).with_size(200);
        let c = builder
            .build_block(&points, Span::single(1), 1, &mut rng)
            .unwrap();

        let from_coreset = KMeans::new(4)
            .with_runs(3)
            .fit_block(c.points(), &mut rng)
            .unwrap();
        let from_data = KMeans::new(4)
            .with_runs(3)
            .fit_block(&points, &mut rng)
            .unwrap();

        let cost_via_coreset = kmeans_cost_block(&points, &from_coreset.centers).unwrap();
        // Clustering the coreset should cost at most ~2x clustering the data
        // directly (in practice it is nearly identical on separated blobs).
        assert!(
            cost_via_coreset <= 2.0 * from_data.cost + 1e-9,
            "coreset-derived centers cost {cost_via_coreset}, direct {}",
            from_data.cost
        );
    }

    #[test]
    fn empty_input_is_error() {
        let empty = PointBlock::new(2);
        let builder = CoresetBuilder::new(3);
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        assert!(builder
            .build_block(&empty, Span::single(1), 0, &mut rng)
            .is_err());
    }

    #[test]
    fn zero_size_is_error() {
        let points = blobs(9);
        let builder = CoresetBuilder::new(3).with_size(0);
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        assert!(builder
            .build_block(&points, Span::single(1), 0, &mut rng)
            .is_err());
    }

    #[test]
    fn deterministic_given_seed() {
        let points = blobs(11);
        let builder = CoresetBuilder::new(4).with_size(50);
        let a = builder
            .build_block(
                &points,
                Span::single(1),
                1,
                &mut ChaCha8Rng::seed_from_u64(42),
            )
            .unwrap();
        let b = builder
            .build_block(
                &points,
                Span::single(1),
                1,
                &mut ChaCha8Rng::seed_from_u64(42),
            )
            .unwrap();
        assert_eq!(a.points(), b.points());
    }
}
