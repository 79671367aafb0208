//! # streaming-kmeans
//!
//! A from-scratch Rust reproduction of *Streaming k-Means Clustering with
//! Fast Queries* (Zhang, Tangwongsan, Tirthapura — ICDE 2017).
//!
//! This facade crate re-exports the workspace's public API:
//!
//! * [`clustering`] — weighted point sets, k-means++, Lloyd's algorithm and
//!   the k-means (SSQ) cost.
//! * [`coreset`] — k-means coresets with span/level bookkeeping and
//!   merge-and-reduce.
//! * [`stream`] — the streaming algorithms: the CT baseline (streamkm++),
//!   and the paper's CC, RCC and OnlineCC, plus Sequential k-means and a
//!   batch reference.
//! * [`data`] — workload generators (Gaussian mixtures, UCI-like synthetic
//!   datasets, drifting RBF streams) and query schedules.
//! * [`serve`] — the network serving layer: TCP/JSON ingest+query server,
//!   blocking client, load generator and snapshot/restore.
//! * [`metrics`] — measurement utilities used by the experiment harness.
//!
//! ## Quick start
//!
//! ```
//! use streaming_kmeans::prelude::*;
//! use rand::SeedableRng;
//! use rand_chacha::ChaCha8Rng;
//!
//! // A stream of 2-d points drawn from three clusters.
//! let mut rng = ChaCha8Rng::seed_from_u64(1);
//! let dataset = GaussianMixture::new(3, 2).unwrap().generate(3_000, &mut rng);
//!
//! // CC: coreset tree with caching, k = 3.
//! let config = StreamConfig::new(3).with_bucket_size(60);
//! let mut cc = CachedCoresetTree::new(config, 42).unwrap();
//! for point in dataset.stream() {
//!     cc.update(point).unwrap();
//! }
//! let centers = cc.query().unwrap();
//! assert_eq!(centers.len(), 3);
//! ```

pub use skm_clustering as clustering;
pub use skm_coreset as coreset;
pub use skm_data as data;
pub use skm_metrics as metrics;
pub use skm_serve as serve;
pub use skm_stream as stream;

/// One-stop prelude with the most common types from every sub-crate.
pub mod prelude {
    pub use skm_clustering::prelude::*;
    pub use skm_coreset::prelude::*;
    pub use skm_data::prelude::*;
    pub use skm_stream::prelude::*;
}
