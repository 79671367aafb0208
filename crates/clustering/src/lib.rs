//! # skm-clustering
//!
//! Batch clustering substrate for the *Streaming k-Means Clustering with Fast
//! Queries* reproduction (Zhang, Tangwongsan, Tirthapura — ICDE 2017).
//!
//! This crate contains everything the streaming algorithms need from the
//! "batch world":
//!
//! * [`PointBlock`] — the one weighted point container in `R^d` (Problem 1
//!   of the paper works on weighted points): flat structure-of-arrays
//!   storage with cached squared norms that feeds the fused distance
//!   kernels. Input buckets, coresets and query candidates all use it.
//! * [`Centers`] — a set of `k` cluster centers.
//! * [`distance`] — squared-Euclidean kernels (legacy and fused) and
//!   nearest-center search.
//! * [`cost`] — the k-means objective `φ_Ψ(P)` (weighted SSQ) and point
//!   assignments.
//! * [`kmeanspp`] — the weighted k-means++ seeding algorithm (Theorem 1).
//! * [`lloyd`] — weighted Lloyd iterations used to polish centers.
//! * [`kmeans`] — the "best of R runs of k-means++ followed by Lloyd"
//!   procedure used by the paper's evaluation (Section 5.2).
//! * [`sampling`] — weighted sampling utilities shared by k-means++ and the
//!   coreset constructors.
//!
//! All randomized routines take an explicit [`rand::Rng`] so results are
//! reproducible given a seed.
//!
//! ## Example
//!
//! ```
//! use rand::SeedableRng;
//! use rand_chacha::ChaCha8Rng;
//! use skm_clustering::{PointBlock, kmeans::KMeans};
//!
//! let mut points = PointBlock::new(2);
//! for i in 0..50 {
//!     let x = f64::from(i % 5);
//!     let y = f64::from(i / 5);
//!     points.push(&[x, y], 1.0);
//! }
//! let mut rng = ChaCha8Rng::seed_from_u64(7);
//! let result = KMeans::new(3).with_runs(2).fit_block(&points, &mut rng).unwrap();
//! assert_eq!(result.centers.len(), 3);
//! assert!(result.cost.is_finite());
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod block;
pub mod centers;
pub mod cost;
pub mod distance;
pub mod error;
pub mod kmeans;
pub mod kmeanspp;
pub mod kmedian;
pub mod lloyd;
#[cfg(test)]
mod point;
pub mod sampling;

pub use block::PointBlock;
pub use centers::Centers;
pub use error::{ClusteringError, Result};
pub use kmeans::{KMeans, KMeansResult};

/// Commonly used items, for glob import.
pub mod prelude {
    pub use crate::block::PointBlock;
    pub use crate::centers::Centers;
    pub use crate::cost::{assign_block, kmeans_cost_block};
    pub use crate::error::{ClusteringError, Result};
    pub use crate::kmeans::{KMeans, KMeansResult};
    pub use crate::kmeanspp::kmeanspp_block;
    pub use crate::lloyd::{lloyd_block, LloydOutcome};
}
