//! # skm-serve
//!
//! The network serving layer over the streaming clusterers: turn the
//! in-process `ShardedStream` machinery into an actual online service that
//! remote clients can feed and query *while the stream is live* — the
//! paper's headline claim (cheap queries against a continuously updated
//! summary) exercised under real request traffic.
//!
//! ## Pieces
//!
//! * [`protocol`] — the wire protocol model: typed
//!   [`Request`]/[`Response`] enums (including the revision-1.3
//!   `Hello` codec handshake and the revision-1.4 `Replicate`
//!   subscription), the [`protocol::Freshness`] knob
//!   (strict vs cached reads), the optional per-request `namespace` field
//!   (tenant selection; omitted means `"default"`), request limits, and
//!   the mapping from engine errors to typed [`protocol::ErrorCode`]s.
//!   The normative spec lives in `docs/PROTOCOL.md`.
//! * [`codec`] — the two framings of that model: newline-delimited JSON
//!   (the default, debuggable with netcat) and a compact length-prefixed
//!   binary codec negotiated on connect via `Hello{codec}`. Both sides of
//!   a connection switch together after the handshake response.
//! * [`engine`] — the [`Engine`] facade: a concurrent map of per-tenant
//!   streams (sharded CC by default; single-threaded CC/CT/RCC also
//!   available), each behind its own mutex for writes and strict reads
//!   with an atomically swapped published snapshot for cached reads.
//!   Tenants are created lazily (or via `Configure` with custom
//!   settings), and the coldest tenants (aged touch counts, recency
//!   breaking ties) are paged out to versioned JSON snapshots on disk and
//!   restored bit-identically on next touch. The same envelope serves
//!   explicit snapshot/restore of the complete state (configuration,
//!   coreset tree levels, caches, partial buckets, RNG positions,
//!   published epoch). With a write-ahead log
//!   attached ([`engine::WalConfig`], `skm-wal`), every state-mutating
//!   request is logged before it applies, group-committed, periodically
//!   checkpointed, and recovered bit-identically after a crash; the log
//!   is then the paging store, and paging a clean tenant in or out
//!   writes nothing to it.
//! * [`follower`] — follower replicas: a background thread
//!   ([`start_follower`]) tails a WAL-enabled primary's `Replicate`
//!   stream and applies it to a read-only engine
//!   ([`engine::Engine::with_follower`]) that serves cached reads within
//!   a bounded replication lag.
//! * [`server`] — the TCP [`Server`] over the *evented* I/O core
//!   ([`event`]): a small fixed pool of readiness-polling loops with
//!   per-connection state machines, explicit read/write backpressure, and
//!   request pipelining. Malformed input is answered with typed errors,
//!   and in-flight requests drain on shutdown.
//! * [`client`] — the blocking [`Client`], built via [`ClientBuilder`]
//!   (address, default namespace, codec, timeouts) and driven with typed
//!   per-request [`RequestOptions`].
//! * [`loadgen`] — the built-in load generator: N concurrent connections,
//!   configurable ingest:query mix, an optional Zipf-skewed multi-tenant
//!   traffic mix, a choice of wire codec, an idle-connection hold pool,
//!   and per-request latency collection (feeds the `BENCH_serving.json`
//!   workload in `skm-bench`), plus an optional paired follower target
//!   for cached-read replication benchmarks.
//!
//! ## Example
//!
//! ```
//! use skm_serve::prelude::*;
//! use std::sync::Arc;
//!
//! let config = StreamConfig::new(2).with_bucket_size(40).with_kmeans_runs(1);
//! let engine = Arc::new(Engine::new(&EngineSpec::sharded_cc(config, 2, 32, 7)).unwrap());
//! let server = Server::bind("127.0.0.1:0", Arc::clone(&engine), None).unwrap();
//! let handle = server.spawn().unwrap();
//!
//! let mut client = Client::connect(handle.addr()).unwrap();
//! for i in 0..200u32 {
//!     let x = if i % 2 == 0 { 0.0 } else { 100.0 };
//!     client.ingest(vec![x, f64::from(i % 10)]).unwrap();
//! }
//! let centers = client.query_centers().unwrap();
//! assert_eq!(centers.len(), 2);
//!
//! client.shutdown().unwrap();
//! handle.shutdown().unwrap();
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod client;
pub mod codec;
mod dispatch;
pub mod engine;
pub mod event;
pub mod follower;
pub mod loadgen;
pub mod protocol;
pub mod server;

pub use client::{Client, ClientBuilder, RequestOptions};
pub use codec::{Codec, CodecKind};
pub use engine::{
    BackendKind, Engine, EngineSpec, FollowerStatus, SnapshotFile, WalConfig, SNAPSHOT_VERSION,
};
pub use follower::{start_follower, FollowerHandle, FollowerSpec};
pub use loadgen::{run_load, LoadReport, LoadSpec};
pub use protocol::{
    Freshness, ReplicationRecord, Request, Response, TenantConfig, Window, WindowSpec,
    DEFAULT_NAMESPACE,
};
pub use server::{Server, ServerHandle};

/// Commonly used items, for glob import.
pub mod prelude {
    pub use crate::client::{Client, ClientBuilder, RequestOptions};
    pub use crate::codec::CodecKind;
    pub use crate::engine::{BackendKind, Engine, EngineSpec, WalConfig};
    pub use crate::loadgen::{run_load, LoadReport, LoadSpec};
    pub use crate::protocol::{
        ErrorCode, Freshness, Request, Response, TenantConfig, Window, WindowSpec,
        DEFAULT_NAMESPACE,
    };
    pub use crate::server::{Server, ServerHandle};
    pub use skm_stream::{PublishedClustering, StreamConfig, StreamStats, WindowInfo};
}
