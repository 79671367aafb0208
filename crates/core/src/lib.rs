//! # skm-stream
//!
//! Streaming k-means clustering with fast queries — the core algorithms of
//! the ICDE 2017 paper by Zhang, Tangwongsan and Tirthapura, implemented
//! from scratch in Rust.
//!
//! ## Algorithms
//!
//! | Type | Paper name | Role |
//! |------|-----------|------|
//! | [`CoresetTreeClusterer`] | CT (streamkm++ when `r = 2`) | prior-art baseline |
//! | [`CachedCoresetTree`] | CC | coreset caching (Algorithm 3) |
//! | [`RecursiveCachedTree`] | RCC | recursive coreset cache (Algorithms 4–6) |
//! | [`OnlineCC`] | OnlineCC | hybrid of CC and Sequential k-means (Algorithm 7) |
//! | [`SequentialKMeans`] | Sequential k-means | MacQueen's online baseline |
//! | [`BatchKMeansPP`] | batch k-means++ | accuracy reference (not streaming) |
//!
//! All of them implement [`StreamingClusterer`], so the examples and the
//! benchmark harness can drive them uniformly. The repository-level
//! `ARCHITECTURE.md` carries the full system picture: the ingest → bucket
//! buffer → coreset tree → merge → query data flow, the complete
//! algorithm-to-module table, the shard/thread model and the
//! snapshot-published read path.
//!
//! ## Structure
//!
//! * [`config`] — the shared [`StreamConfig`] (k, bucket size `m`, merge
//!   degree `r`, query-time k-means++ settings).
//! * [`driver`] — the Algorithm 1 driver pieces: [`driver::BucketBuffer`]
//!   and [`driver::extract_centers_block`].
//! * [`shard`] — [`ShardedStream`]: multi-threaded ingestion that
//!   partitions the stream round-robin across per-shard clusterers and
//!   merges their coresets at query time.
//! * [`publish`] — the snapshot-published query fast path:
//!   [`PublishedClustering`] values swapped through a [`PublishSlot`] so
//!   concurrent readers serve cached answers without the ingest lock.
//! * [`coreset_tree`] — the r-way merging coreset tree (Algorithm 2).
//! * [`cache`] — the coreset cache keyed by right endpoints.
//! * [`numeric`] — `major`, `minor` and `prefixsum` in base `r`
//!   (Section 4.1).
//!
//! ## Example
//!
//! ```
//! use skm_stream::prelude::*;
//!
//! let config = StreamConfig::new(2).with_bucket_size(40).with_kmeans_runs(1);
//! let mut cc = CachedCoresetTree::new(config, 7).unwrap();
//! for i in 0..500u32 {
//!     let x = if i % 2 == 0 { 0.0 } else { 100.0 };
//!     cc.update(&[x + f64::from(i % 10) * 0.01, 0.0]).unwrap();
//! }
//! let centers = cc.query().unwrap();
//! assert_eq!(centers.len(), 2);
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod batch;
pub mod cache;
pub mod cc;
pub mod clusterer;
pub mod clustream;
pub mod config;
pub mod coreset_tree;
pub mod ct;
pub mod decay;
pub mod driver;
pub mod kmedian_stream;
pub mod numeric;
pub mod online_cc;
pub mod publish;
pub mod rcc;
pub mod sequential;
pub mod shard;

pub use batch::BatchKMeansPP;
pub use cc::CachedCoresetTree;
pub use clusterer::{validate_window_points, QueryStats, StreamingClusterer};
pub use clustream::CluStream;
pub use config::StreamConfig;
pub use ct::CoresetTreeClusterer;
pub use decay::DecayedSequentialKMeans;
pub use driver::validate_stream_point;
pub use kmedian_stream::KMedianCC;
pub use online_cc::OnlineCC;
pub use publish::{ClusteringResult, PublishSlot, PublishedClustering, WindowInfo};
pub use rcc::RecursiveCachedTree;
pub use sequential::SequentialKMeans;
pub use shard::{ShardClusterer, ShardedStream, ShardedStreamState, StreamStats};

/// Commonly used items, for glob import.
pub mod prelude {
    pub use crate::batch::BatchKMeansPP;
    pub use crate::cc::CachedCoresetTree;
    pub use crate::clusterer::{QueryStats, StreamingClusterer};
    pub use crate::clustream::CluStream;
    pub use crate::config::StreamConfig;
    pub use crate::ct::CoresetTreeClusterer;
    pub use crate::decay::DecayedSequentialKMeans;
    pub use crate::kmedian_stream::KMedianCC;
    pub use crate::online_cc::OnlineCC;
    pub use crate::publish::{ClusteringResult, PublishSlot, PublishedClustering, WindowInfo};
    pub use crate::rcc::RecursiveCachedTree;
    pub use crate::sequential::SequentialKMeans;
    pub use crate::shard::{ShardClusterer, ShardedStream, ShardedStreamState, StreamStats};
}
