//! Sharded, multi-threaded stream ingestion (extension).
//!
//! The paper's algorithms make a *single* update thread fast; this module
//! scales ingestion horizontally, the way the coreset machinery was built
//! to be scaled: partition the stream across `S` shards, let each shard
//! maintain its own clusterer (CT, CC or RCC) on a dedicated worker
//! thread, and at query time union the per-shard coreset summaries into
//! one candidate set for the usual k-means++ extraction. Because every
//! shard summarizes a *disjoint* sub-stream, Observation 1 applies: the
//! union of the per-shard `(k, ε)`-coresets is a `(k, ε)`-coreset of the
//! whole stream, so sharding costs no approximation quality beyond the
//! coreset guarantee the single-threaded algorithms already pay.
//!
//! ## Architecture
//!
//! * **Partitioning** is deterministic round-robin by arrival index: point
//!   `i` belongs to shard `i mod S`. Combined with per-shard seeds derived
//!   from the master seed, this makes the whole structure reproducible:
//!   for a fixed `(seed, shards, batch_size)` the merged query answer is
//!   bit-identical across runs regardless of thread scheduling, because
//!   each worker consumes a deterministic sub-stream and all cross-thread
//!   communication is ordered per-shard FIFO.
//! * **Batching**: the ingestion thread buffers each shard's points into a
//!   flat coordinate block and ships full blocks over an [`mpsc`] channel;
//!   workers ingest them via [`StreamingClusterer::update_batch`], so the
//!   per-point cost on both sides of the channel is amortized (one send
//!   per `batch_size` points, one dimension check and norm pass per batch).
//! * **Queries** enqueue a query command behind any in-flight batches
//!   (channel FIFO ⇒ a query observes every point accepted before it),
//!   collect the per-shard candidate blocks *in shard order*, union them
//!   with [`skm_coreset::merge::union_blocks`] and run the shared
//!   [`extract_centers_block`](crate::driver::extract_centers_block)
//!   driver on the result. The complete answer
//!   (centers, cost estimate, watermark, diagnostics) is then republished
//!   through a shared [`PublishSlot`], so
//!   concurrent readers can serve stale-but-consistent answers without
//!   stopping ingestion (see [`crate::publish`]).
//!
//! Sharding pays off when update cost dominates (frequent arrivals, spare
//! cores); on a single core it only adds channel overhead. Note that the
//! answer is deterministic for a fixed shard count but *not* identical
//! across different shard counts — the stream is partitioned differently,
//! so different (equally valid) coresets are built.

use crate::cc::CachedCoresetTree;
use crate::clusterer::{QueryStats, StreamingClusterer};
use crate::config::StreamConfig;
use crate::ct::CoresetTreeClusterer;
use crate::driver::extract_clustering_result;
use crate::publish::{ClusteringResult, PublishSlot, PublishedClustering};
use crate::rcc::RecursiveCachedTree;
use rand::SeedableRng;
use rand_chacha::ChaCha20Rng;
use serde::{Deserialize, Serialize};
use skm_clustering::error::{ClusteringError, Result};
use skm_clustering::{Centers, PointBlock};
use skm_coreset::merge::union_blocks;
use std::sync::{mpsc, Arc};
use std::thread;

/// Default number of points buffered per shard before a batch is shipped
/// to its worker thread.
pub const DEFAULT_BATCH_SIZE: usize = 128;

/// Upper bound on the shard count (a guard against typos like passing a
/// point count where a shard count belongs — far above any sensible
/// configuration, which tracks the machine's core count).
pub const MAX_SHARDS: usize = 256;

/// A streaming clusterer that can serve as a shard worker: besides the
/// per-point interface it exposes its query-time candidate coreset (as a
/// norm-cached block) so a coordinator can merge summaries across shards.
///
/// `Clone` lets the coordinator snapshot a worker's state without stopping
/// it (the worker ships a clone of itself over the reply channel and keeps
/// processing).
pub trait ShardClusterer: StreamingClusterer + Clone + Send + 'static {
    /// The candidate points covering (at least) this shard's most recent
    /// `last_points` points, plus diagnostics and the exact number of
    /// points covered (bucket-granular, `>= last_points`). A window
    /// spanning the shard's whole sub-stream (the coordinator's
    /// whole-stream query asks for `u64::MAX`) is answered with the
    /// shard's whole-stream candidates, with coverage equal to the shard's
    /// point count.
    ///
    /// # Errors
    /// Returns [`ClusteringError::EmptyInput`] when the shard has seen no
    /// points, and window-validation errors for `last_points == 0`.
    fn shard_window_candidates(
        &mut self,
        last_points: u64,
    ) -> Result<(PointBlock, QueryStats, u64)>;

    /// The coverage [`shard_window_candidates`] would report for this
    /// window, computed without touching any state (no merge, no RNG, no
    /// cache traffic). `0` when the shard is empty.
    ///
    /// [`shard_window_candidates`]: ShardClusterer::shard_window_candidates
    fn shard_window_coverage(&self, last_points: u64) -> u64;
}

impl ShardClusterer for CoresetTreeClusterer {
    fn shard_window_candidates(
        &mut self,
        last_points: u64,
    ) -> Result<(PointBlock, QueryStats, u64)> {
        crate::clusterer::validate_window_points(last_points)?;
        if last_points >= self.points_seen() {
            let seen = self.points_seen();
            let (block, stats) = self.query_candidates()?;
            return Ok((block, stats, seen));
        }
        self.query_window_candidates(last_points)
    }

    fn shard_window_coverage(&self, last_points: u64) -> u64 {
        self.window_coverage(last_points)
    }
}

impl ShardClusterer for CachedCoresetTree {
    fn shard_window_candidates(
        &mut self,
        last_points: u64,
    ) -> Result<(PointBlock, QueryStats, u64)> {
        crate::clusterer::validate_window_points(last_points)?;
        if last_points >= self.points_seen() {
            let seen = self.points_seen();
            let (block, stats) = self.query_candidates()?;
            return Ok((block, stats, seen));
        }
        self.query_window_candidates(last_points)
    }

    fn shard_window_coverage(&self, last_points: u64) -> u64 {
        self.window_coverage(last_points)
    }
}

impl ShardClusterer for RecursiveCachedTree {
    fn shard_window_candidates(
        &mut self,
        last_points: u64,
    ) -> Result<(PointBlock, QueryStats, u64)> {
        crate::clusterer::validate_window_points(last_points)?;
        if last_points >= self.points_seen() {
            let seen = self.points_seen();
            let (block, stats) = self.query_candidates()?;
            return Ok((block, stats, seen));
        }
        self.query_window_candidates(last_points)
    }

    fn shard_window_coverage(&self, last_points: u64) -> u64 {
        self.window_coverage(last_points)
    }
}

/// Commands the ingestion thread sends to a shard worker. Replies travel
/// over per-request channels so a worker never blocks on a slow consumer.
enum ShardCmd<C> {
    /// A flat row-major batch of `coords.len() / dim` points to ingest.
    Batch { dim: usize, coords: Vec<f64> },
    /// Produce the shard's candidate coreset for its most recent
    /// `last_points` points (`None` when the shard is empty), together
    /// with the exact point coverage; `u64::MAX` asks for the whole
    /// sub-stream. Ordered behind all previously sent batches, so the
    /// answer covers every point accepted before the query.
    WindowQuery {
        last_points: u64,
        reply: mpsc::Sender<Result<Option<(PointBlock, QueryStats, u64)>>>,
    },
    /// Report `(memory_points, points_seen)`; also used as a cheap barrier
    /// that drains the shard's queue.
    Stats { reply: mpsc::Sender<(usize, u64)> },
    /// Report how many points the shard's stored summaries would cover for
    /// a window over its most recent `last_points` points — pure span
    /// arithmetic, no merge, no RNG, no state change (windowed stats must
    /// be as side-effect-free as plain stats, or WAL replay equivalence
    /// breaks).
    WindowCoverage {
        last_points: u64,
        reply: mpsc::Sender<u64>,
    },
    /// Ship a clone of the clusterer's current state back to the
    /// coordinator (snapshot support). Ordered behind all previously sent
    /// batches, so the clone covers every point routed to this shard.
    Snapshot { reply: mpsc::Sender<Result<C>> },
}

/// The worker loop: owns one clusterer and processes commands FIFO until
/// the coordinator drops its sender. The first update error is latched and
/// reported on the next query instead of killing the thread, so the
/// coordinator can surface it as a normal `Result`.
fn shard_worker<C: ShardClusterer>(mut clusterer: C, commands: &mpsc::Receiver<ShardCmd<C>>) {
    let mut failed: Option<ClusteringError> = None;
    while let Ok(cmd) = commands.recv() {
        match cmd {
            ShardCmd::Batch { dim, coords } => {
                if failed.is_none() {
                    let points: Vec<&[f64]> = coords.chunks_exact(dim).collect();
                    if let Err(e) = clusterer.update_batch(&points) {
                        failed = Some(e);
                    }
                }
            }
            ShardCmd::WindowQuery { last_points, reply } => {
                let response = match &failed {
                    Some(e) => Err(e.clone()),
                    None if clusterer.points_seen() == 0 => Ok(None),
                    None => clusterer.shard_window_candidates(last_points).map(Some),
                };
                let _ = reply.send(response);
            }
            ShardCmd::Stats { reply } => {
                let _ = reply.send((clusterer.memory_points(), clusterer.points_seen()));
            }
            ShardCmd::WindowCoverage { last_points, reply } => {
                let _ = reply.send(clusterer.shard_window_coverage(last_points));
            }
            ShardCmd::Snapshot { reply } => {
                let response = match &failed {
                    Some(e) => Err(e.clone()),
                    None => Ok(clusterer.clone()),
                };
                let _ = reply.send(response);
            }
        }
    }
}

/// Error reported when a shard's worker thread is gone (it panicked or was
/// torn down); ingestion cannot continue correctly past a lost shard.
fn shard_disconnected(shard: usize) -> ClusteringError {
    ClusteringError::InvalidParameter {
        name: "shard",
        message: format!("worker thread of shard {shard} disconnected"),
    }
}

/// Derives a per-shard seed from the master seed (splitmix-style odd
/// multiplier keeps the seeds distinct and uncorrelated across shards).
fn shard_seed(seed: u64, shard: usize) -> u64 {
    seed ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(shard as u64 + 1)
}

/// Maps a serde failure while restoring a snapshot to a clustering error.
fn snapshot_error(e: serde::Error) -> ClusteringError {
    ClusteringError::InvalidParameter {
        name: "snapshot",
        message: e.to_string(),
    }
}

/// Aggregate statistics of a [`ShardedStream`], as reported by
/// [`ShardedStream::stats`]. Serializable so serving layers can hand it
/// straight to a wire protocol.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StreamStats {
    /// Total points accepted by the coordinator.
    pub points_seen: u64,
    /// Number of shards (worker threads).
    pub shards: usize,
    /// Points absorbed by each shard's clusterer, in shard order. When
    /// produced by [`ShardedStream::stats`] it sums to
    /// [`StreamStats::points_seen`] (the coordinator's buffers are flushed
    /// before collecting). Serving layers answering a *cached* stats
    /// request leave it **empty** instead: exact per-shard counts require
    /// a drain, which the lock-free read path deliberately avoids.
    pub per_shard_points: Vec<u64>,
    /// Diagnostics of the most recent query (`None` before the first).
    pub last_query: Option<QueryStats>,
}

/// Serialized form of a [`ShardedStream`], produced by
/// [`ShardedStream::snapshot`] and consumed by [`ShardedStream::restore`].
///
/// The per-shard clusterer states are stored in the self-describing
/// [`serde::Value`] form so this struct stays non-generic (the concrete
/// worker type is fixed again at restore time). Restoring a snapshot and
/// continuing the stream is bit-identical to never having stopped: the
/// coordinator RNG, per-shard clusterer states (including their RNG
/// positions and partial buckets) and the round-robin cursor are all
/// captured exactly.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ShardedStreamState {
    /// Configuration shared by every shard.
    pub config: StreamConfig,
    /// Points buffered per shard before a batch ships to its worker.
    pub batch_size: usize,
    /// Stream dimension learned from the first accepted point, if any.
    pub dim: Option<usize>,
    /// Shard the next arrival will be routed to.
    pub next_shard: usize,
    /// Total points accepted before the snapshot.
    pub points_seen: u64,
    /// Query-side k-means++ RNG, captured mid-stream.
    pub rng: ChaCha20Rng,
    /// Diagnostics of the most recent query at snapshot time.
    pub last_stats: Option<QueryStats>,
    /// The answer published at snapshot time, if any: restoring republishes
    /// it so the restored stream's readers continue from the same epoch
    /// instead of an empty slot.
    pub published: Option<PublishedClustering>,
    /// Per-shard clusterer states, in shard order.
    pub shards: Vec<serde::Value>,
}

/// Sharded multi-threaded ingestion over any [`ShardClusterer`].
///
/// See the [module documentation](self) for the architecture. Construct
/// with [`ShardedStream::with_factory`] (any clusterer) or the
/// [`cc`](ShardedStream::cc) / [`ct`](ShardedStream::ct) /
/// [`rcc`](ShardedStream::rcc) shorthands, then drive it through the
/// ordinary [`StreamingClusterer`] interface.
///
/// Every query republishes its full answer through a shared
/// [`PublishSlot`], so concurrent readers can serve stale-but-consistent
/// answers without stopping ingestion:
///
/// ```rust
/// use skm_stream::{ShardedStream, StreamConfig, StreamingClusterer};
///
/// let config = StreamConfig::new(2).with_bucket_size(20).with_kmeans_runs(1);
/// // 2 shards, 8-point batches, seed 7.
/// let mut stream = ShardedStream::cc(config, 2, 8, 7).unwrap();
/// for i in 0..200u32 {
///     let x = if i % 2 == 0 { 0.0 } else { 100.0 };
///     stream.update(&[x, f64::from(i % 10)]).unwrap();
/// }
/// let centers = stream.query().unwrap();
/// assert_eq!(centers.len(), 2);
///
/// // The query's answer is now published: another thread holding a clone
/// // of `stream.publish_slot()` reads it without touching the stream.
/// let published = stream.published().unwrap();
/// assert_eq!(published.epoch, 1);
/// assert_eq!(published.centers, centers);
/// assert_eq!(published.points_seen, 200);
/// ```
#[derive(Debug)]
pub struct ShardedStream<C: ShardClusterer> {
    config: StreamConfig,
    batch_size: usize,
    /// Stream dimension, fixed by the first point ever observed.
    dim: Option<usize>,
    senders: Vec<mpsc::Sender<ShardCmd<C>>>,
    workers: Vec<thread::JoinHandle<()>>,
    /// Per-shard flat coordinate buffers awaiting shipment.
    pending: Vec<Vec<f64>>,
    /// Shard of the next arrival (round-robin by arrival index).
    next_shard: usize,
    points_seen: u64,
    /// Query-side RNG (k-means++ extraction over the merged candidates).
    rng: ChaCha20Rng,
    last_stats: Option<QueryStats>,
    /// Shared cell the latest query answer is published into (the
    /// lock-free read path; see [`crate::publish`]).
    publish: Arc<PublishSlot>,
}

impl<C: ShardClusterer> ShardedStream<C> {
    /// Creates a sharded stream whose `shards` workers are built by
    /// `factory(shard_index, shard_seed)`. The factory runs on the calling
    /// thread; each clusterer is then moved onto its worker thread.
    ///
    /// `seed` drives both the per-shard seeds handed to `factory` and the
    /// query-side k-means++ RNG, making results reproducible for a fixed
    /// `(seed, shards)`.
    ///
    /// # Errors
    /// Returns [`ClusteringError::InvalidParameter`] for an invalid
    /// configuration, shard count, or batch size, and propagates factory
    /// failures.
    pub fn with_factory<F>(
        config: StreamConfig,
        shards: usize,
        batch_size: usize,
        seed: u64,
        mut factory: F,
    ) -> Result<Self>
    where
        F: FnMut(usize, u64) -> Result<C>,
    {
        config.validate()?;
        if shards == 0 || shards > MAX_SHARDS {
            return Err(ClusteringError::InvalidParameter {
                name: "shards",
                message: format!("must be in 1..={MAX_SHARDS}, got {shards}"),
            });
        }
        if batch_size == 0 {
            return Err(ClusteringError::InvalidParameter {
                name: "batch_size",
                message: "must be positive".to_string(),
            });
        }
        let mut stream = Self {
            config,
            batch_size,
            dim: None,
            senders: Vec::with_capacity(shards),
            workers: Vec::with_capacity(shards),
            pending: vec![Vec::new(); shards],
            next_shard: 0,
            points_seen: 0,
            rng: ChaCha20Rng::seed_from_u64(seed),
            last_stats: None,
            publish: Arc::new(PublishSlot::new()),
        };
        for shard in 0..shards {
            let clusterer = factory(shard, shard_seed(seed, shard))?;
            stream.spawn_worker(shard, clusterer)?;
        }
        Ok(stream)
    }

    /// Spawns the worker thread for `shard`, moving `clusterer` onto it.
    fn spawn_worker(&mut self, shard: usize, clusterer: C) -> Result<()> {
        let (tx, rx) = mpsc::channel();
        let handle = thread::Builder::new()
            .name(format!("skm-shard-{shard}"))
            .spawn(move || shard_worker(clusterer, &rx))
            .map_err(|e| ClusteringError::InvalidParameter {
                name: "shards",
                message: format!("cannot spawn worker thread {shard}: {e}"),
            })?;
        self.senders.push(tx);
        self.workers.push(handle);
        Ok(())
    }

    /// Number of shards (worker threads).
    #[must_use]
    pub fn shards(&self) -> usize {
        self.senders.len()
    }

    /// Points buffered per shard before a batch is shipped.
    #[must_use]
    pub fn batch_size(&self) -> usize {
        self.batch_size
    }

    /// The configuration shared by every shard.
    #[must_use]
    pub fn config(&self) -> &StreamConfig {
        &self.config
    }

    /// A handle to the publish slot this stream republishes its query
    /// answers into. Clone it onto reader threads: they can serve cached
    /// answers ([`PublishSlot::load`]) while this thread keeps ingesting —
    /// no shared lock on the stream itself.
    #[must_use]
    pub fn publish_slot(&self) -> Arc<PublishSlot> {
        Arc::clone(&self.publish)
    }

    /// The most recently published query answer, if any (shorthand for
    /// `publish_slot().load()`).
    #[must_use]
    pub fn published(&self) -> Option<Arc<PublishedClustering>> {
        self.publish.load()
    }

    /// Points currently sitting in the coordinator's per-shard batch
    /// buffers (not yet shipped to any worker).
    #[must_use]
    pub fn coordinator_buffered_points(&self) -> usize {
        match self.dim {
            Some(d) => self.pending.iter().map(|p| p.len() / d).sum(),
            None => 0,
        }
    }

    /// Ships shard `s`'s pending batch, if any.
    fn flush_shard(&mut self, shard: usize) -> Result<()> {
        // No dimension means no point was ever buffered: nothing to ship.
        let Some(dim) = self.dim else {
            return Ok(());
        };
        let Some(pending) = self.pending.get_mut(shard) else {
            return Ok(());
        };
        if pending.is_empty() {
            return Ok(());
        }
        // Keep a same-sized allocation in place so steady-state ingestion
        // reuses buffers instead of growing fresh ones from zero.
        let coords = std::mem::replace(pending, Vec::with_capacity(self.batch_size * dim));
        self.senders
            .get(shard)
            .ok_or_else(|| shard_disconnected(shard))?
            .send(ShardCmd::Batch { dim, coords })
            .map_err(|_| shard_disconnected(shard))
    }

    /// Ships every pending batch, sends each shard the command `command`
    /// builds around a reply channel (`None` skips the shard), and collects
    /// the replies in shard order. Every command is sent before any reply
    /// is awaited, so the workers run concurrently; channel FIFO makes each
    /// reply reflect every point routed to its shard so far, and shard
    /// order keeps merged answers deterministic.
    fn fan_out<R>(
        &mut self,
        mut command: impl FnMut(usize, mpsc::Sender<R>) -> Option<ShardCmd<C>>,
    ) -> Result<Vec<R>> {
        for shard in 0..self.shards() {
            self.flush_shard(shard)?;
        }
        let mut replies = Vec::with_capacity(self.shards());
        for (shard, sender) in self.senders.iter().enumerate() {
            let (tx, rx) = mpsc::channel();
            if let Some(cmd) = command(shard, tx) {
                sender.send(cmd).map_err(|_| shard_disconnected(shard))?;
                replies.push((shard, rx));
            }
        }
        replies
            .into_iter()
            .map(|(shard, rx)| rx.recv().map_err(|_| shard_disconnected(shard)))
            .collect()
    }

    /// Ships every pending batch and waits until all workers have caught
    /// up (a full barrier across shards). Useful to bound ingestion work
    /// before measuring, and before dropping the stream on a schedule.
    ///
    /// # Errors
    /// Returns an error when a worker thread is gone.
    pub fn drain(&mut self) -> Result<()> {
        // A Stats reply arrives only after the worker has processed
        // everything queued before it.
        self.fan_out(|_, reply| Some(ShardCmd::Stats { reply }))?;
        Ok(())
    }

    /// Runs a strict query — drain in-flight batches, collect and union the
    /// per-shard candidate coresets, extract centers with k-means++ — then
    /// republishes the complete answer through the [`PublishSlot`] and
    /// returns the freshly published value.
    ///
    /// This is what [`StreamingClusterer::query`] delegates to; use it
    /// directly when you also want the epoch, cost estimate and
    /// diagnostics without a second lookup.
    ///
    /// # Errors
    /// Returns [`ClusteringError::EmptyInput`] before the first point and
    /// propagates lost-worker failures.
    pub fn query_published(&mut self) -> Result<Arc<PublishedClustering>> {
        if self.points_seen == 0 {
            return Err(ClusteringError::EmptyInput);
        }
        // Every shard answers a window at least its own size with its
        // whole-stream candidates.
        self.publish_candidates(&vec![u64::MAX; self.shards()], None)
    }

    /// How many of the most recent `last_points` arrivals were routed to
    /// each shard. Points are routed round-robin by arrival index, so the
    /// window splits into `last_points / shards` per shard plus one extra
    /// for the `last_points % shards` shards that received the most recent
    /// arrivals (walking backwards from the next-arrival cursor).
    fn window_points_per_shard(&self, last_points: u64) -> Vec<u64> {
        let shards = self.shards();
        let mut counts = vec![last_points / shards as u64; shards];
        let rem = (last_points % shards as u64) as usize;
        for back in 1..=rem {
            // lint:allow(panic-freedom) index is reduced mod `shards` == counts.len()
            counts[(self.next_shard + shards - back) % shards] += 1;
        }
        counts
    }

    /// Runs a strict *windowed* query over the most recent `last_points`
    /// stream points: the window is split across shards by the round-robin
    /// arrival arithmetic, each involved shard contributes the summary
    /// suffix covering its slice, and the union feeds the same k-means++
    /// extraction as [`query_published`](ShardedStream::query_published).
    /// The published answer carries a [`crate::publish::WindowInfo`] with the exact
    /// (bucket-granular) coverage summed across shards.
    ///
    /// Windows of `points_seen` or more are normalized to the ordinary
    /// whole-stream query — same answer bytes, same RNG trajectory, and a
    /// `window`-free published value.
    ///
    /// # Errors
    /// Returns [`ClusteringError::EmptyInput`] before the first point,
    /// `InvalidParameter { name: "window" }` for `last_points == 0`, and
    /// propagates lost-worker failures.
    pub fn query_window_published(&mut self, last_points: u64) -> Result<Arc<PublishedClustering>> {
        crate::clusterer::validate_window_points(last_points)?;
        if self.points_seen == 0 {
            return Err(ClusteringError::EmptyInput);
        }
        if last_points >= self.points_seen {
            return self.query_published();
        }
        let counts = self.window_points_per_shard(last_points);
        self.publish_candidates(&counts, Some(last_points))
    }

    /// The tail both strict queries share: asks each shard for the
    /// candidates covering its most recent `counts[shard]` points (0 skips
    /// the shard), unions them in shard order, extracts centers and
    /// publishes the answer. `window` is the stream-level window a windowed
    /// answer reports its summed coverage against.
    fn publish_candidates(
        &mut self,
        counts: &[u64],
        window: Option<u64>,
    ) -> Result<Arc<PublishedClustering>> {
        let replies = self.fan_out(|shard, reply| {
            let last_points = counts.get(shard).copied().filter(|&n| n > 0)?;
            Some(ShardCmd::WindowQuery { last_points, reply })
        })?;
        let mut blocks = Vec::with_capacity(replies.len());
        let mut merged = 0usize;
        let mut level: Option<u32> = None;
        let mut used_cache = false;
        let mut covered = 0u64;
        for response in replies {
            if let Some((block, stats, shard_covered)) = response? {
                merged += stats.coresets_merged;
                level = level.max(stats.coreset_level);
                used_cache |= stats.used_cache;
                covered += shard_covered;
                blocks.push(block);
            }
        }
        let candidates = union_blocks(&blocks)?;
        let stats = QueryStats {
            coresets_merged: merged,
            candidate_points: candidates.len(),
            coreset_level: level,
            used_cache,
            ran_kmeans: true,
        };
        let mut result = extract_clustering_result(
            &candidates,
            stats,
            self.points_seen,
            &self.config,
            &mut self.rng,
        )?;
        result.window = window.map(|last_points| crate::publish::WindowInfo {
            last_points,
            covered_points: covered,
        });
        self.last_stats = Some(result.stats);
        Ok(self.publish.publish(result))
    }

    /// The coverage [`query_window_published`] would report for this
    /// window, summed across shards, without running any query: pure span
    /// arithmetic in each worker, no merge, no RNG, no cache traffic.
    /// Windowed stats rely on this staying exactly as side-effect-free as
    /// plain stats. Windows of `points_seen` or more cover the whole
    /// stream.
    ///
    /// # Errors
    /// Returns `InvalidParameter { name: "window" }` for `last_points == 0`
    /// and lost-worker failures; `Ok(0)` before the first point.
    ///
    /// [`query_window_published`]: ShardedStream::query_window_published
    pub fn window_coverage(&mut self, last_points: u64) -> Result<u64> {
        crate::clusterer::validate_window_points(last_points)?;
        if self.points_seen == 0 {
            return Ok(0);
        }
        if last_points >= self.points_seen {
            return Ok(self.points_seen);
        }
        let counts = self.window_points_per_shard(last_points);
        let covered = self.fan_out(|shard, reply| {
            let last_points = counts.get(shard).copied().filter(|&n| n > 0)?;
            Some(ShardCmd::WindowCoverage { last_points, reply })
        })?;
        Ok(covered.into_iter().sum())
    }

    /// Aggregated per-shard statistics: total and per-shard point counts
    /// plus the most recent query's diagnostics.
    ///
    /// Buffered points are flushed to their workers first, so the per-shard
    /// counts always sum to [`StreamingClusterer::points_seen`] (the call
    /// doubles as a drain barrier, like [`ShardedStream::drain`]).
    ///
    /// # Errors
    /// Returns an error when a worker thread is gone.
    pub fn stats(&mut self) -> Result<StreamStats> {
        let replies = self.fan_out(|_, reply| Some(ShardCmd::Stats { reply }))?;
        Ok(StreamStats {
            points_seen: self.points_seen,
            shards: self.shards(),
            per_shard_points: replies.into_iter().map(|(_, seen)| seen).collect(),
            last_query: self.last_stats,
        })
    }
}

impl<C: ShardClusterer + Serialize> ShardedStream<C> {
    /// Captures the complete stream state for persistence.
    ///
    /// Buffered points are flushed to their workers first (batch boundaries
    /// do not affect clusterer state, so this is behaviour-preserving), then
    /// every worker ships a clone of its clusterer back to the coordinator.
    /// Workers keep running: a snapshot does not stop ingestion, and the
    /// stream continues exactly as if the snapshot had never been taken.
    ///
    /// # Errors
    /// Returns an error when a worker thread is gone or has latched an
    /// ingestion failure (a poisoned shard must not be persisted silently).
    pub fn snapshot(&mut self) -> Result<ShardedStreamState> {
        let shards = self
            .fan_out(|_, reply| Some(ShardCmd::Snapshot { reply }))?
            .into_iter()
            .map(|clusterer| Ok(clusterer?.to_value()))
            .collect::<Result<Vec<_>>>()?;
        Ok(ShardedStreamState {
            config: self.config,
            batch_size: self.batch_size,
            dim: self.dim,
            next_shard: self.next_shard,
            points_seen: self.points_seen,
            rng: self.rng.clone(),
            last_stats: self.last_stats,
            published: self.published().map(|p| p.as_ref().clone()),
            shards,
        })
    }
}

impl<C: ShardClusterer + Deserialize> ShardedStream<C> {
    /// Reconstructs a sharded stream from a [`ShardedStreamState`], spawning
    /// one worker per serialized shard. Continuing the restored stream is
    /// bit-identical to continuing the stream the snapshot was taken from.
    ///
    /// # Errors
    /// Returns [`ClusteringError::InvalidParameter`] when the state is
    /// internally inconsistent (bad shard count, cursor out of range,
    /// malformed per-shard payload) and propagates configuration errors.
    pub fn restore(state: &ShardedStreamState) -> Result<Self> {
        state.config.validate()?;
        let shards = state.shards.len();
        if shards == 0 || shards > MAX_SHARDS {
            return Err(ClusteringError::InvalidParameter {
                name: "snapshot",
                message: format!("shard count must be in 1..={MAX_SHARDS}, got {shards}"),
            });
        }
        if state.batch_size == 0 {
            return Err(ClusteringError::InvalidParameter {
                name: "snapshot",
                message: "batch_size must be positive".to_string(),
            });
        }
        if state.next_shard >= shards {
            return Err(ClusteringError::InvalidParameter {
                name: "snapshot",
                message: format!(
                    "next_shard {} out of range for {shards} shards",
                    state.next_shard
                ),
            });
        }
        let mut stream = Self {
            config: state.config,
            batch_size: state.batch_size,
            dim: state.dim,
            senders: Vec::with_capacity(shards),
            workers: Vec::with_capacity(shards),
            pending: vec![Vec::new(); shards],
            next_shard: state.next_shard,
            points_seen: state.points_seen,
            rng: state.rng.clone(),
            last_stats: state.last_stats,
            publish: Arc::new(PublishSlot::new()),
        };
        // Republish the snapshot-time answer so readers of the restored
        // stream continue from the saved epoch, not from an empty slot.
        stream.publish.restore(state.published.clone());
        for (shard, value) in state.shards.iter().enumerate() {
            let clusterer = C::from_value(value).map_err(snapshot_error)?;
            clusterer.check_restored()?;
            if let Some(dim) = clusterer.dim().filter(|&d| state.dim != Some(d)) {
                return Err(ClusteringError::InvalidParameter {
                    name: "snapshot",
                    message: format!(
                        "shard {shard} has dimension {dim}, the stream dimension {:?}",
                        state.dim
                    ),
                });
            }
            stream.spawn_worker(shard, clusterer)?;
        }
        Ok(stream)
    }
}

impl ShardedStream<CachedCoresetTree> {
    /// Sharded ingestion over per-shard CC clusterers (the recommended
    /// default: cheap updates *and* cached queries on every shard).
    ///
    /// # Errors
    /// Propagates configuration validation errors.
    pub fn cc(config: StreamConfig, shards: usize, batch_size: usize, seed: u64) -> Result<Self> {
        Self::with_factory(config, shards, batch_size, seed, |_, s| {
            CachedCoresetTree::new(config, s)
        })
    }
}

impl ShardedStream<CoresetTreeClusterer> {
    /// Sharded ingestion over per-shard CT (streamkm++) clusterers.
    ///
    /// # Errors
    /// Propagates configuration validation errors.
    pub fn ct(config: StreamConfig, shards: usize, batch_size: usize, seed: u64) -> Result<Self> {
        Self::with_factory(config, shards, batch_size, seed, |_, s| {
            CoresetTreeClusterer::new(config, s)
        })
    }
}

impl ShardedStream<RecursiveCachedTree> {
    /// Sharded ingestion over per-shard RCC clusterers with the given
    /// nesting depth.
    ///
    /// # Errors
    /// Propagates configuration validation errors.
    pub fn rcc(
        config: StreamConfig,
        shards: usize,
        batch_size: usize,
        nesting_depth: u32,
        seed: u64,
    ) -> Result<Self> {
        Self::with_factory(config, shards, batch_size, seed, |_, s| {
            RecursiveCachedTree::new(config, nesting_depth, s)
        })
    }
}

impl<C: ShardClusterer> StreamingClusterer for ShardedStream<C> {
    fn name(&self) -> &'static str {
        "Sharded"
    }

    fn update(&mut self, point: &[f64]) -> Result<()> {
        // Validate on the ingestion thread so the caller learns about a bad
        // point synchronously (workers then never see invalid input, which
        // keeps their latched-error path for genuine internal failures).
        // The shared helper commits the learned dimension only on success.
        self.dim = Some(crate::driver::validate_stream_point(self.dim, point, 0)?);

        let shard = self.next_shard;
        self.next_shard = (shard + 1) % self.shards();
        let Some(pending) = self.pending.get_mut(shard) else {
            // `shard < self.shards() == self.pending.len()` by the modulo
            // above; refuse the point rather than lose it silently.
            return Err(shard_disconnected(shard));
        };
        pending.extend_from_slice(point);
        self.points_seen += 1;
        if pending.len() >= self.batch_size * point.len() {
            self.flush_shard(shard)?;
        }
        Ok(())
    }

    fn query(&mut self) -> Result<Centers> {
        Ok(self.query_published()?.centers.clone())
    }

    fn query_clustering(&mut self) -> Result<ClusteringResult> {
        // A window of every point is the whole-stream query.
        self.query_window_clustering(u64::MAX)
    }

    fn query_window_clustering(&mut self, last_points: u64) -> Result<ClusteringResult> {
        let published = self.query_window_published(last_points)?;
        Ok(ClusteringResult {
            centers: published.centers.clone(),
            cost: published.cost,
            points_seen: published.points_seen,
            stats: published.stats,
            window: published.window,
        })
    }

    fn memory_points(&self) -> usize {
        let mut total = self.coordinator_buffered_points();
        for sender in &self.senders {
            let (tx, rx) = mpsc::channel();
            if sender.send(ShardCmd::Stats { reply: tx }).is_ok() {
                if let Ok((memory, _)) = rx.recv() {
                    total += memory;
                }
            }
        }
        total
    }

    fn points_seen(&self) -> u64 {
        self.points_seen
    }

    fn dim(&self) -> Option<usize> {
        self.dim
    }

    fn last_query_stats(&self) -> Option<QueryStats> {
        self.last_stats
    }
}

impl<C: ShardClusterer> Drop for ShardedStream<C> {
    fn drop(&mut self) {
        // Hang up the command channels; each worker's `recv` then errors
        // and its loop exits. Joining keeps worker lifetime bounded by the
        // coordinator's (no detached threads outliving the stream).
        self.senders.clear();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;
    use rand_chacha::ChaCha8Rng;

    fn config(k: usize, m: usize) -> StreamConfig {
        StreamConfig::new(k)
            .with_bucket_size(m)
            .with_kmeans_runs(1)
            .with_lloyd_iterations(2)
    }

    fn blob(i: usize, rng: &mut ChaCha8Rng) -> [f64; 2] {
        let anchors = [[0.0, 0.0], [40.0, 0.0], [0.0, 40.0]];
        let a = anchors[i % anchors.len()];
        [a[0] + rng.gen::<f64>(), a[1] + rng.gen::<f64>()]
    }

    #[test]
    fn invalid_parameters_are_rejected() {
        assert!(ShardedStream::cc(config(2, 20), 0, 64, 1).is_err());
        assert!(ShardedStream::cc(config(2, 20), MAX_SHARDS + 1, 64, 1).is_err());
        assert!(ShardedStream::cc(config(2, 20), 2, 0, 1).is_err());
        assert!(ShardedStream::cc(StreamConfig::new(5).with_bucket_size(2), 2, 64, 1).is_err());
    }

    #[test]
    fn query_before_any_point_is_error() {
        let mut s = ShardedStream::cc(config(2, 20), 2, 16, 1).unwrap();
        assert!(s.query().is_err());
    }

    #[test]
    fn validates_points_at_ingestion() {
        let mut s = ShardedStream::cc(config(2, 20), 2, 16, 1).unwrap();
        assert!(s.update(&[]).is_err());
        s.update(&[1.0, 2.0]).unwrap();
        assert!(s.update(&[1.0]).is_err());
        assert!(s.update(&[f64::NAN, 0.0]).is_err());
        assert_eq!(s.points_seen(), 1);
    }

    #[test]
    fn rejected_first_point_does_not_lock_the_stream_dimension() {
        let mut s = ShardedStream::cc(config(2, 20), 2, 16, 1).unwrap();
        assert!(s.update(&[f64::NAN, 0.0]).is_err());
        // The rejected 2-d point must not have fixed the dimension.
        s.update(&[1.0, 2.0, 3.0]).unwrap();
        assert_eq!(s.points_seen(), 1);
        assert!(s.update(&[0.0, 0.0]).is_err());
    }

    #[test]
    fn round_robin_splits_points_evenly() {
        let mut s = ShardedStream::cc(config(2, 10), 3, 4, 7).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        for i in 0..91 {
            s.update(&blob(i, &mut rng)).unwrap();
        }
        assert_eq!(s.points_seen(), 91);
        // 91 points over 3 shards: shard 0 gets 31, shards 1-2 get 30 —
        // reported by the public stats aggregation (which flushes first, so
        // it doubles as the drain barrier).
        let stats = s.stats().unwrap();
        assert_eq!(s.coordinator_buffered_points(), 0);
        assert_eq!(stats.points_seen, 91);
        assert_eq!(stats.shards, 3);
        assert_eq!(stats.per_shard_points, vec![31, 30, 30]);
        assert_eq!(stats.last_query, None);
    }

    #[test]
    fn stats_counts_sum_to_points_seen_and_track_queries() {
        let mut s = ShardedStream::cc(config(2, 10), 2, 8, 3).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        for i in 0..137 {
            s.update(&blob(i, &mut rng)).unwrap();
        }
        s.query().unwrap();
        let stats = s.stats().unwrap();
        assert_eq!(stats.per_shard_points.iter().sum::<u64>(), 137);
        assert_eq!(stats.points_seen, s.points_seen());
        let q = stats.last_query.expect("query already ran");
        assert!(q.ran_kmeans);
        assert_eq!(stats.last_query, s.last_query_stats());
    }

    #[test]
    fn snapshot_restore_continue_is_bit_identical() {
        let total = 700usize;
        let cut = 337usize;
        let mk = || ShardedStream::cc(config(3, 20), 3, 16, 55).unwrap();
        let points: Vec<[f64; 2]> = {
            let mut rng = ChaCha8Rng::seed_from_u64(8);
            (0..total).map(|i| blob(i, &mut rng)).collect()
        };

        // Uninterrupted reference run.
        let mut reference = mk();
        for p in &points {
            reference.update(p).unwrap();
        }
        let expected = reference.query().unwrap();

        // Snapshot mid-stream, serialize through JSON, restore, continue.
        let mut first = mk();
        for p in &points[..cut] {
            first.update(p).unwrap();
        }
        let state = first.snapshot().unwrap();
        // Snapshots are non-destructive: the source keeps working...
        let json = serde_json::to_string(&state).unwrap();
        drop(first);
        let restored: ShardedStreamState = serde_json::from_str(&json).unwrap();
        let mut resumed = ShardedStream::<CachedCoresetTree>::restore(&restored).unwrap();
        assert_eq!(resumed.points_seen(), cut as u64);
        for p in &points[cut..] {
            resumed.update(p).unwrap();
        }
        assert_eq!(resumed.query().unwrap(), expected);
    }

    #[test]
    fn queries_publish_epochs_and_snapshots_carry_them() {
        let mut s = ShardedStream::cc(config(2, 10), 2, 8, 33).unwrap();
        let slot = s.publish_slot();
        assert!(s.published().is_none());
        assert_eq!(slot.epoch(), 0);

        let mut rng = ChaCha8Rng::seed_from_u64(6);
        for i in 0..120 {
            s.update(&blob(i, &mut rng)).unwrap();
        }
        let centers = s.query().unwrap();
        let published = s.published().expect("query published");
        assert_eq!(published.epoch, 1);
        assert_eq!(published.centers, centers);
        assert_eq!(published.points_seen, 120);
        assert!(published.cost.is_finite() && published.cost >= 0.0);
        assert_eq!(Some(published.stats), s.last_query_stats());
        // The externally held slot handle sees the same value.
        assert_eq!(slot.load().unwrap().epoch, 1);

        // Snapshots carry the published answer; restore republishes it and
        // the epoch sequence continues.
        let state = s.snapshot().unwrap();
        assert_eq!(state.published.as_ref().unwrap().epoch, 1);
        let restored = ShardedStream::<CachedCoresetTree>::restore(&state).unwrap();
        assert_eq!(restored.published().unwrap().as_ref(), published.as_ref());
        let mut restored = restored;
        restored.query().unwrap();
        assert_eq!(restored.published().unwrap().epoch, 2);
    }

    #[test]
    fn snapshot_does_not_perturb_the_source_stream() {
        let mut rng = ChaCha8Rng::seed_from_u64(12);
        let points: Vec<[f64; 2]> = (0..500).map(|i| blob(i, &mut rng)).collect();
        let run = |snapshot_at: Option<usize>| {
            let mut s = ShardedStream::cc(config(2, 15), 2, 8, 21).unwrap();
            for (i, p) in points.iter().enumerate() {
                s.update(p).unwrap();
                if snapshot_at == Some(i) {
                    s.snapshot().unwrap();
                }
            }
            s.query().unwrap()
        };
        assert_eq!(run(Some(250)), run(None));
    }

    #[test]
    fn restore_rejects_inconsistent_states() {
        let mut s = ShardedStream::cc(config(2, 10), 2, 8, 1).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        for i in 0..40 {
            s.update(&blob(i, &mut rng)).unwrap();
        }
        let good = s.snapshot().unwrap();

        let mut no_shards = good.clone();
        no_shards.shards.clear();
        assert!(ShardedStream::<CachedCoresetTree>::restore(&no_shards).is_err());

        let mut bad_cursor = good.clone();
        bad_cursor.next_shard = 99;
        assert!(ShardedStream::<CachedCoresetTree>::restore(&bad_cursor).is_err());

        let mut bad_batch = good.clone();
        bad_batch.batch_size = 0;
        assert!(ShardedStream::<CachedCoresetTree>::restore(&bad_batch).is_err());

        let mut bad_payload = good;
        bad_payload.shards[0] = serde::Value::Str("not a clusterer".to_string());
        assert!(ShardedStream::<CachedCoresetTree>::restore(&bad_payload).is_err());
    }

    #[test]
    fn finds_clusters_and_reports_stats() {
        let mut s = ShardedStream::cc(config(3, 30), 4, 32, 11).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        for i in 0..1_800 {
            s.update(&blob(i, &mut rng)).unwrap();
        }
        let centers = s.query().unwrap();
        assert_eq!(centers.len(), 3);
        for anchor in [[0.5, 0.5], [40.5, 0.5], [0.5, 40.5]] {
            let closest = centers
                .iter()
                .map(|c| skm_clustering::distance::distance(c, &anchor))
                .fold(f64::INFINITY, f64::min);
            assert!(closest < 2.0, "anchor {anchor:?} missed ({closest})");
        }
        let stats = s.last_query_stats().unwrap();
        assert!(stats.ran_kmeans);
        assert!(stats.candidate_points > 0);
        assert!(stats.coresets_merged >= 4, "one candidate set per shard");
    }

    #[test]
    fn deterministic_at_fixed_seed_and_shard_count() {
        let run = || {
            let mut s = ShardedStream::cc(config(3, 20), 3, 8, 99).unwrap();
            let mut rng = ChaCha8Rng::seed_from_u64(1);
            let mut mid = None;
            for i in 0..700 {
                s.update(&blob(i, &mut rng)).unwrap();
                if i == 350 {
                    mid = Some(s.query().unwrap());
                }
            }
            (mid.unwrap(), s.query().unwrap())
        };
        let (a_mid, a_end) = run();
        let (b_mid, b_end) = run();
        // Bit-identical, not approximately equal.
        assert_eq!(a_mid, b_mid);
        assert_eq!(a_end, b_end);
    }

    #[test]
    fn single_shard_batches_do_not_change_points_seen_accounting() {
        let mut s = ShardedStream::ct(config(2, 10), 1, 4, 3).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        for i in 0..25 {
            s.update(&blob(i, &mut rng)).unwrap();
        }
        assert_eq!(s.points_seen(), 25);
        s.drain().unwrap();
        // All 25 points are inside the worker now (tree + partial bucket).
        assert!(s.memory_points() >= 5);
        assert_eq!(s.coordinator_buffered_points(), 0);
    }

    #[test]
    fn rcc_sharding_works_end_to_end() {
        let mut s = ShardedStream::rcc(config(2, 16), 2, 16, 2, 5).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        for i in 0..400 {
            s.update(&blob(i, &mut rng)).unwrap();
        }
        let centers = s.query().unwrap();
        assert_eq!(centers.len(), 2);
        assert_eq!(s.name(), "Sharded");
        assert_eq!(s.shards(), 2);
        assert_eq!(s.batch_size(), 16);
    }
}
