//! The [`Engine`] facade: a concurrent map of per-tenant streams, each one
//! a clusterer behind its own mutex for writes and an atomically swapped
//! published snapshot for reads, plus snapshot/restore and LRU eviction.
//!
//! The engine is what connection handler threads talk to. Each **tenant**
//! (wire-level `namespace`) owns an independent stream: either a
//! [`ShardedStream`] over per-shard CC clusterers (the default — ingestion
//! parallelism comes from the shard worker threads, so the coordinator
//! mutex is held only for cheap buffering and channel sends) or one of the
//! single-threaded clusterers (CC, CT, RCC) for small deployments. Tenants
//! are created lazily on first touch from the engine's default spec, or
//! explicitly with a custom spec via [`Engine::configure`]; requests that
//! carry no namespace run against [`DEFAULT_NAMESPACE`], which exists from
//! construction — so an engine that never sees a namespace behaves exactly
//! like the pre-tenancy single-stream engine.
//!
//! ## The two read paths
//!
//! Every **strict** query runs under its tenant's ingest mutex, drains
//! in-flight batches, recomputes the answer and republishes it (with a
//! fresh epoch) through that tenant's [`PublishSlot`]. A **cached** query
//! never touches the mutex: it loads the currently published
//! [`PublishedClustering`] — one `Arc` clone — so a slow coreset merge or a
//! burst of ingest batches on *any* tenant cannot stall it. Cached answers
//! are stale (up to the time since the last publish) but never torn:
//! epoch, centers, cost and `points_seen` all come from one immutable
//! value.
//!
//! ## One mutation path
//!
//! A strict read is also a write (it drains buffers, caches a coreset,
//! draws from the RNG and publishes an epoch). Every live ingest, strict
//! query and strict stats request becomes a [`ReplicationRecord`] that one
//! private path checks, logs, applies, stamps with its arrival time and
//! checkpoints. WAL recovery and followers apply records through the same
//! apply step, so a replayed log runs exactly the code the live requests
//! ran.
//!
//! ## Eviction
//!
//! The engine holds at most `max_resident` tenants in memory. When a new
//! tenant would exceed the cap, the least-recently-touched resident is
//! paged out: its complete state is snapshotted to
//! `<dir>/tenant-<namespace>.json` (the same versioned JSON envelope as an
//! explicit snapshot) and it is dropped from the map. With a write-ahead
//! log, paging out is "checkpoint and drop" instead. The next request
//! that names the evicted tenant transparently restores it from that file
//! or log and continues the stream **bit-identically** — evict → restore →
//! continue equals never having evicted, including the republished epoch.
//! Without an eviction directory or a log the cap is a hard limit
//! (`tenant_limit`).
//!
//! Snapshots serialize the complete backend state — configuration, coreset
//! tree levels, caches, partially filled buckets and RNG positions — into a
//! versioned envelope ([`SnapshotFile`]), so a server restarted from a
//! snapshot continues the stream bit-identically to one that never stopped.
//! The envelope also carries the currently published answer, so a restored
//! engine republishes the same epoch instead of starting readers cold.
//! Everything a user can read or hand back is JSON text: wire snapshots,
//! replica bootstraps, `--restore` files and eviction files. WAL
//! checkpoints carry the same envelope in the binary
//! [`crate::codec::encode_state`] form, which keeps every `f64` bit and
//! spares page-out and page-in the printing and parsing of decimal text.

use crate::codec::{
    decode_replication_record, decode_state, encode_replication_record, encode_state,
};
use crate::protocol::{
    validate_namespace, Freshness, ReplicationRecord, Window, DEFAULT_NAMESPACE,
};
use serde::{Deserialize, Serialize};
use skm_clustering::error::{ClusteringError, Result};
use skm_stream::{
    validate_stream_point, CachedCoresetTree, CoresetTreeClusterer, PublishSlot,
    PublishedClustering, RecursiveCachedTree, ShardedStream, ShardedStreamState, StreamConfig,
    StreamStats, StreamingClusterer, WindowInfo,
};
use skm_wal::{Wal, WalError, WalOptions};
use std::collections::{HashMap, VecDeque};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, RwLock};
use std::time::{Duration, Instant};

/// Current snapshot envelope version; bump when [`SnapshotFile`] or any
/// serialized backend state changes shape incompatibly. Version 2 added the
/// `published` field; version 3 added the `namespace` field (per-tenant
/// snapshots and eviction files); version 4 stores coreset points as
/// `{dim, coords, weights}` point blocks (they were `{dim, data, weights}`).
pub const SNAPSHOT_VERSION: u32 = 4;

/// Default cap on resident (in-memory) tenants.
pub const DEFAULT_MAX_RESIDENT: usize = 64;

/// RNG seed recorded in the derived default spec when an engine is
/// cold-started from a snapshot (the backend's own RNG state is restored
/// bit-exactly from the file; this seed only parameterizes tenants created
/// lazily *afterwards*).
pub const DERIVED_SEED: u64 = 42;

/// The eviction file name for a tenant, relative to the eviction
/// directory. Namespaces pass [`validate_namespace`], so the result is
/// always a bare file name inside the directory.
#[must_use]
pub fn evict_file_name(namespace: &str) -> String {
    format!("tenant-{namespace}.json")
}

/// Durability settings for the engine's per-tenant write-ahead log.
///
/// With a WAL attached ([`Engine::with_wal`]), every accepted state
/// mutation — ingested points plus strict query/stats markers (strict
/// reads consume RNG and publish epochs, so replay must re-run them) — is
/// logged to `<dir>/<namespace>/` *before* it is applied, group-committed
/// on the configured fsync cadence, and periodically folded into an
/// incremental checkpoint. Crash recovery (and follower bootstrap) is
/// checkpoint + tail replay, bit-identical to the uninterrupted run. The
/// WAL also replaces eviction files: paging a tenant out becomes
/// "checkpoint and drop", and the log directory is the single on-disk
/// source of truth.
#[derive(Debug, Clone)]
pub struct WalConfig {
    /// Directory holding one log subdirectory per tenant.
    pub dir: PathBuf,
    /// Group-commit fsync interval in milliseconds; `0` makes every
    /// append durable before it is acknowledged.
    pub fsync_ms: u64,
    /// Fold the log into a fresh checkpoint once the tail exceeds this
    /// many bytes.
    pub checkpoint_bytes: usize,
}

impl WalConfig {
    /// Durability settings rooted at `dir` with the [`WalOptions`]
    /// defaults (5 ms group commit, 4 MiB checkpoint threshold).
    #[must_use]
    pub fn new(dir: PathBuf) -> Self {
        let defaults = WalOptions::default();
        WalConfig {
            dir,
            fsync_ms: defaults.fsync_interval.as_millis() as u64,
            checkpoint_bytes: defaults.checkpoint_bytes,
        }
    }

    /// Replaces the fsync interval (milliseconds; 0 = every append).
    #[must_use]
    pub fn with_fsync_ms(mut self, fsync_ms: u64) -> Self {
        self.fsync_ms = fsync_ms;
        self
    }

    /// Replaces the checkpoint threshold in tail bytes.
    #[must_use]
    pub fn with_checkpoint_bytes(mut self, bytes: usize) -> Self {
        self.checkpoint_bytes = bytes;
        self
    }

    /// The per-tenant log options this configuration expands to.
    #[must_use]
    pub fn options(&self) -> WalOptions {
        WalOptions::default()
            .with_fsync_ms(self.fsync_ms)
            .with_checkpoint_bytes(self.checkpoint_bytes)
    }

    /// The log directory for one tenant. Namespaces pass
    /// [`validate_namespace`], so the result is always directly inside
    /// `dir`.
    #[must_use]
    pub fn tenant_dir(&self, namespace: &str) -> PathBuf {
        self.dir.join(namespace)
    }
}

/// Replication position of a follower engine ([`Engine::with_follower`]),
/// shared between the tailing loop (the writer) and the serving path (the
/// reader). Lag is measured in log records: the primary's last known
/// sequence minus the last sequence applied locally.
#[derive(Debug)]
pub struct FollowerStatus {
    /// Cached reads are refused while the lag exceeds this many records.
    max_lag: u64,
    /// Last record sequence applied locally (0 before the first frame).
    applied_seq: AtomicU64,
    /// Highest primary sequence observed in any replication frame.
    primary_seq: AtomicU64,
    /// True while the tailing connection to the primary is up.
    live: AtomicBool,
    /// True once any bootstrap snapshot has been applied.
    synced: AtomicBool,
}

impl FollowerStatus {
    fn new(max_lag: u64) -> Self {
        FollowerStatus {
            max_lag,
            applied_seq: AtomicU64::new(0),
            primary_seq: AtomicU64::new(0),
            live: AtomicBool::new(false),
            synced: AtomicBool::new(false),
        }
    }

    /// Records a freshly applied bootstrap snapshot covering `seq`.
    pub fn note_snapshot(&self, seq: u64) {
        self.applied_seq.store(seq, Ordering::Release);
        self.primary_seq.fetch_max(seq, Ordering::AcqRel);
        self.synced.store(true, Ordering::Release);
        self.live.store(true, Ordering::Release);
    }

    /// Records one applied replication record and the primary position it
    /// was shipped with.
    pub fn note_record(&self, seq: u64, primary_seq: u64) {
        self.applied_seq.store(seq, Ordering::Release);
        self.primary_seq.fetch_max(primary_seq, Ordering::AcqRel);
        self.live.store(true, Ordering::Release);
    }

    /// Marks the tailing connection up or down.
    pub fn set_live(&self, live: bool) {
        self.live.store(live, Ordering::Release);
    }

    /// Whether a bootstrap snapshot has ever been applied.
    #[must_use]
    pub fn synced(&self) -> bool {
        self.synced.load(Ordering::Acquire)
    }

    /// Last record sequence applied locally.
    #[must_use]
    pub fn applied_seq(&self) -> u64 {
        self.applied_seq.load(Ordering::Acquire)
    }

    /// Current lag bound in records (primary position minus applied).
    #[must_use]
    pub fn lag(&self) -> u64 {
        self.primary_seq
            .load(Ordering::Acquire)
            .saturating_sub(self.applied_seq.load(Ordering::Acquire))
    }

    /// Why cached reads must currently be refused, or `None` when the
    /// follower is inside its lag bound.
    #[must_use]
    pub fn block_reason(&self) -> Option<String> {
        if !self.synced() {
            return Some("follower has not yet synchronized with its primary".to_string());
        }
        if !self.live.load(Ordering::Acquire) {
            return Some("follower lost contact with its primary".to_string());
        }
        let lag = self.lag();
        if lag > self.max_lag {
            return Some(format!(
                "follower lag of {lag} records exceeds the bound of {}",
                self.max_lag
            ));
        }
        None
    }
}

/// Maps a log failure to the engine's error type: corruption keeps its
/// typed identity (`wal_corrupt` ⇒ [`crate::protocol::ErrorCode::WalCorrupt`]),
/// I/O failures surface as internal errors.
fn wal_err(e: WalError) -> ClusteringError {
    ClusteringError::InvalidParameter {
        name: match e {
            WalError::Corrupt { .. } => "wal_corrupt",
            WalError::Io(_) => "wal_io",
        },
        message: e.to_string(),
    }
}

/// An envelope that cannot be built or restored.
fn invalid_snapshot(message: String) -> ClusteringError {
    ClusteringError::InvalidParameter {
        name: "snapshot",
        message,
    }
}

/// Which clusterer the engine runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendKind {
    /// Sharded multi-threaded ingestion over per-shard CC clusterers
    /// (the recommended default).
    ShardedCc,
    /// Single-threaded cached coreset tree.
    Cc,
    /// Single-threaded plain coreset tree (streamkm++).
    Ct,
    /// Single-threaded recursive coreset cache.
    Rcc,
}

impl BackendKind {
    /// The tag stored in snapshot files and accepted by
    /// [`BackendKind::parse`].
    #[must_use]
    pub fn tag(&self) -> &'static str {
        match self {
            BackendKind::ShardedCc => "sharded-cc",
            BackendKind::Cc => "cc",
            BackendKind::Ct => "ct",
            BackendKind::Rcc => "rcc",
        }
    }

    /// Parses a backend tag (case-insensitive).
    #[must_use]
    pub fn parse(tag: &str) -> Option<Self> {
        match tag.to_ascii_lowercase().as_str() {
            "sharded-cc" | "sharded" => Some(BackendKind::ShardedCc),
            "cc" => Some(BackendKind::Cc),
            "ct" => Some(BackendKind::Ct),
            "rcc" => Some(BackendKind::Rcc),
            _ => None,
        }
    }
}

/// How to build one tenant's stream (and, as the engine's default spec,
/// every lazily created tenant).
#[derive(Debug, Clone, Copy)]
pub struct EngineSpec {
    /// Backend to run.
    pub kind: BackendKind,
    /// Shared streaming configuration (k, bucket size, query settings).
    pub stream: StreamConfig,
    /// Shard count (only used by [`BackendKind::ShardedCc`]).
    pub shards: usize,
    /// Points buffered per shard before a batch ships (sharded backend).
    pub batch: usize,
    /// RCC nesting depth (only used by [`BackendKind::Rcc`]).
    pub nesting_depth: u32,
    /// Master RNG seed.
    pub seed: u64,
}

impl EngineSpec {
    /// The default serving spec: sharded CC with `shards` workers.
    #[must_use]
    pub fn sharded_cc(stream: StreamConfig, shards: usize, batch: usize, seed: u64) -> Self {
        Self {
            kind: BackendKind::ShardedCc,
            stream,
            shards,
            batch,
            nesting_depth: 2,
            seed,
        }
    }
}

/// The concrete clusterer behind a tenant's mutex.
#[derive(Debug)]
enum Backend {
    ShardedCc(ShardedStream<CachedCoresetTree>),
    Cc(CachedCoresetTree),
    Ct(CoresetTreeClusterer),
    Rcc(RecursiveCachedTree),
}

impl Backend {
    fn build(spec: &EngineSpec) -> Result<Self> {
        Ok(match spec.kind {
            BackendKind::ShardedCc => Backend::ShardedCc(ShardedStream::cc(
                spec.stream,
                spec.shards,
                spec.batch,
                spec.seed,
            )?),
            BackendKind::Cc => Backend::Cc(CachedCoresetTree::new(spec.stream, spec.seed)?),
            BackendKind::Ct => Backend::Ct(CoresetTreeClusterer::new(spec.stream, spec.seed)?),
            BackendKind::Rcc => Backend::Rcc(RecursiveCachedTree::new(
                spec.stream,
                spec.nesting_depth,
                spec.seed,
            )?),
        })
    }

    fn kind(&self) -> BackendKind {
        match self {
            Backend::ShardedCc(_) => BackendKind::ShardedCc,
            Backend::Cc(_) => BackendKind::Cc,
            Backend::Ct(_) => BackendKind::Ct,
            Backend::Rcc(_) => BackendKind::Rcc,
        }
    }

    /// Reconstructs a spec describing this backend. Used when an engine is
    /// cold-started from a snapshot: the restored tenant keeps its exact
    /// state, and tenants created lazily afterwards inherit this shape
    /// (with [`DERIVED_SEED`], since a backend's original seed is not
    /// recoverable from its mid-stream RNG position).
    fn derived_spec(&self) -> EngineSpec {
        match self {
            Backend::ShardedCc(s) => EngineSpec {
                kind: BackendKind::ShardedCc,
                stream: *s.config(),
                shards: s.shards(),
                batch: s.batch_size(),
                nesting_depth: 2,
                seed: DERIVED_SEED,
            },
            Backend::Cc(c) => EngineSpec {
                kind: BackendKind::Cc,
                stream: *c.config(),
                shards: 1,
                batch: 128,
                nesting_depth: 2,
                seed: DERIVED_SEED,
            },
            Backend::Ct(c) => EngineSpec {
                kind: BackendKind::Ct,
                stream: *c.config(),
                shards: 1,
                batch: 128,
                nesting_depth: 2,
                seed: DERIVED_SEED,
            },
            Backend::Rcc(c) => EngineSpec {
                kind: BackendKind::Rcc,
                stream: *c.config(),
                shards: 1,
                batch: 128,
                nesting_depth: c.nesting_depth(),
                seed: DERIVED_SEED,
            },
        }
    }

    fn clusterer(&mut self) -> &mut dyn StreamingClusterer {
        match self {
            Backend::ShardedCc(s) => s,
            Backend::Cc(c) => c,
            Backend::Ct(c) => c,
            Backend::Rcc(c) => c,
        }
    }

    fn stats(&mut self) -> Result<StreamStats> {
        match self {
            Backend::ShardedCc(s) => s.stats(),
            other => {
                let c = other.clusterer();
                Ok(StreamStats {
                    points_seen: c.points_seen(),
                    shards: 1,
                    per_shard_points: vec![c.points_seen()],
                    last_query: c.last_query_stats(),
                })
            }
        }
    }

    /// Runs one strict query — over the whole stream, or over its most
    /// recent `last_points` points — and publishes the answer. This is the
    /// one place that decides who publishes: the sharded stream publishes
    /// from inside its own query (its slot is the tenant's), single
    /// backends through `slot`.
    fn publish_query(
        &mut self,
        slot: &PublishSlot,
        last_points: Option<u64>,
    ) -> Result<Arc<PublishedClustering>> {
        let result = match (self, last_points) {
            (Backend::ShardedCc(s), None) => return s.query_published(),
            (Backend::ShardedCc(s), Some(n)) => return s.query_window_published(n),
            (other, None) => other.clusterer().query_clustering()?,
            (other, Some(n)) => other.clusterer().query_window_clustering(n)?,
        };
        Ok(slot.publish(result))
    }

    fn state_value(&mut self) -> Result<serde::Value> {
        Ok(match self {
            Backend::ShardedCc(s) => s.snapshot()?.to_value(),
            Backend::Cc(c) => c.to_value(),
            Backend::Ct(c) => c.to_value(),
            Backend::Rcc(c) => c.to_value(),
        })
    }

    fn from_state(kind: BackendKind, state: &serde::Value) -> Result<Self> {
        let restore_err = |e: serde::Error| ClusteringError::InvalidParameter {
            name: "snapshot",
            message: e.to_string(),
        };
        let mut backend = match kind {
            BackendKind::ShardedCc => {
                // `ShardedStream::restore` validates config and cursor
                // itself.
                let state = ShardedStreamState::from_value(state).map_err(restore_err)?;
                Backend::ShardedCc(ShardedStream::restore(&state)?)
            }
            BackendKind::Cc => {
                Backend::Cc(CachedCoresetTree::from_value(state).map_err(restore_err)?)
            }
            BackendKind::Ct => {
                Backend::Ct(CoresetTreeClusterer::from_value(state).map_err(restore_err)?)
            }
            BackendKind::Rcc => {
                Backend::Rcc(RecursiveCachedTree::from_value(state).map_err(restore_err)?)
            }
        };
        // A tampered single-backend snapshot must not smuggle in a
        // configuration the constructors would have rejected, nor a stored
        // block of another dimension than its stream (the sharded restore
        // checks each shard itself).
        match &backend {
            Backend::ShardedCc(_) => {}
            Backend::Cc(c) => c.config().validate()?,
            Backend::Ct(c) => c.config().validate()?,
            Backend::Rcc(c) => c.config().validate()?,
        }
        backend.clusterer().check_restored()?;
        Ok(backend)
    }
}

/// Versioned on-disk snapshot envelope: the backend tag picks the concrete
/// state type at restore time. Snapshots and eviction files hold it as
/// JSON text, WAL checkpoints as a [`crate::codec::encode_state`] blob.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SnapshotFile {
    /// Envelope version ([`SNAPSHOT_VERSION`]).
    pub snapshot_version: u32,
    /// The tenant this snapshot belongs to ([`DEFAULT_NAMESPACE`] for the
    /// anonymous pre-tenancy stream).
    pub namespace: String,
    /// Backend tag ([`BackendKind::tag`]).
    pub backend: String,
    /// The answer published at snapshot time, if any; restoring republishes
    /// it so cached reads resume at the saved epoch.
    pub published: Option<PublishedClustering>,
    /// The backend's serialized state.
    pub state: serde::Value,
}

/// Cap on retained arrival-log entries per tenant (entries are coalesced
/// per engine-clock millisecond, so this covers minutes of sustained
/// ingest; overflow folds the oldest entries into the un-timestamped
/// base).
const MAX_ARRIVAL_ENTRIES: usize = 4096;

/// Per-tenant record of *when* points arrived, on the engine's monotone
/// millisecond clock. This is what resolves a `last_secs` wire window to a
/// concrete point count **before** the query is logged, so a replayed
/// `QueryWindow` record never consults a clock.
///
/// Entries are `(ms, cumulative points after that ingest)`, coalesced per
/// millisecond. Points that predate the log — recovered, replicated or
/// restored points, which carry no timestamps — sit in `base` and are
/// older than any time window: **time windows never extend across a
/// restart** (point-count windows do; they are resolved against the
/// summary structure, not this log).
#[derive(Debug, Default)]
struct ArrivalLog {
    /// Points older than every timestamped entry.
    base: u64,
    /// `(engine ms, cumulative points seen after)` — ms strictly
    /// increasing.
    entries: VecDeque<(u64, u64)>,
}

impl ArrivalLog {
    /// Records one ingest: `before`/`after` are the tenant's points-seen
    /// around it. Called under the tenant's backend lock.
    fn record(&mut self, now_ms: u64, before: u64, after: u64) {
        if self.entries.is_empty() {
            self.base = before;
        }
        if let Some(last) = self.entries.back_mut() {
            if last.0 >= now_ms {
                last.1 = after;
                return;
            }
        }
        self.entries.push_back((now_ms, after));
        if self.entries.len() > MAX_ARRIVAL_ENTRIES {
            if let Some((_, cum)) = self.entries.pop_front() {
                self.base = cum;
            }
        }
    }

    /// How many of the tenant's `total` points arrived at or after
    /// `cutoff_ms`. A point that arrived exactly at the cutoff is exactly
    /// the window's span old and still belongs to "the last T seconds" —
    /// in particular, ingests coalesced into engine millisecond 0 must
    /// count when the cutoff saturates to 0. With no timestamped entry
    /// yet, every point predates the log and none is in any window.
    fn points_since(&self, cutoff_ms: u64, total: u64) -> u64 {
        if self.entries.is_empty() {
            return 0;
        }
        let mut old = self.base;
        for &(ms, cum) in &self.entries {
            if ms >= cutoff_ms {
                break;
            }
            old = cum;
        }
        total.saturating_sub(old)
    }
}

/// One resident tenant: its stream behind a mutex, its publish slot, and
/// the bookkeeping eviction needs.
#[derive(Debug)]
struct Tenant {
    namespace: String,
    backend: Mutex<Backend>,
    /// The published-answer cell cached reads are served from. For the
    /// sharded backend this is the stream's own slot (the stream publishes
    /// from inside its query); single-threaded backends publish into it
    /// through [`Backend::publish_query`].
    slot: Arc<PublishSlot>,
    /// Shard count, fixed at construction (reported by cached stats
    /// without taking the lock).
    shards: usize,
    /// Set under the backend mutex when this tenant is paged out. An
    /// operation that locked the backend through a stale `Arc` observes
    /// the flag and retries through the map, which restores the tenant —
    /// so no update can land on a zombie copy after its state went to
    /// disk.
    evicted: AtomicBool,
    /// Engine-clock timestamp of the last touch (LRU victim selection).
    last_touch: AtomicU64,
    /// Milliseconds since engine start at the last touch (idle eviction).
    last_touch_ms: AtomicU64,
    /// This tenant's write-ahead log, when the engine runs with one.
    /// Locked strictly **after** the backend mutex (lock order: map →
    /// tenant backend → tenant WAL), so appends serialize with the state
    /// mutations they describe.
    wal: Option<Mutex<Wal>>,
    /// Arrival timestamps for `last_secs` window resolution. Locked only
    /// while the backend mutex is held (same order as the WAL), never
    /// persisted: time windows do not extend across a restart.
    arrivals: Mutex<ArrivalLog>,
}

impl Tenant {
    /// Wraps a freshly built backend with its publish slot and shard count.
    fn assemble(namespace: &str, backend: Backend) -> Self {
        let (slot, shards) = match &backend {
            Backend::ShardedCc(s) => (s.publish_slot(), s.shards()),
            _ => (Arc::new(PublishSlot::new()), 1),
        };
        Tenant {
            namespace: namespace.to_string(),
            backend: Mutex::new(backend),
            slot,
            shards,
            evicted: AtomicBool::new(false),
            last_touch: AtomicU64::new(0),
            last_touch_ms: AtomicU64::new(0),
            wal: None,
            arrivals: Mutex::new(ArrivalLog::default()),
        }
    }

    fn create(namespace: &str, spec: &EngineSpec) -> Result<Self> {
        Ok(Self::assemble(namespace, Backend::build(spec)?))
    }

    /// Locks the backend, recovering from mutex poisoning.
    ///
    /// A poisoned lock means a handler thread panicked while holding it.
    /// The clusterers maintain their invariants through `Result`s — a panic
    /// indicates a bug, not a routine failure — and before this recovery
    /// existed, one such panic made *every* later request on *every*
    /// connection fail with an "engine poisoned" error until the process
    /// was restarted. Availability wins: recover the guard and keep
    /// serving.
    fn lock(&self) -> MutexGuard<'_, Backend> {
        self.backend.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Builds this tenant's versioned envelope. Caller holds the backend
    /// guard, so state and published answer come from one consistent lock
    /// hold.
    fn snapshot_file(&self, backend: &mut Backend) -> Result<SnapshotFile> {
        Ok(SnapshotFile {
            snapshot_version: SNAPSHOT_VERSION,
            namespace: self.namespace.clone(),
            backend: backend.kind().tag().to_string(),
            published: self.slot.load().map(|p| p.as_ref().clone()),
            state: backend.state_value()?,
        })
    }

    /// The envelope as JSON text: wire snapshots, replica bootstraps and
    /// eviction files.
    fn snapshot_string(&self, backend: &mut Backend) -> Result<String> {
        serde_json::to_string(&self.snapshot_file(backend)?)
            .map_err(|e| invalid_snapshot(e.to_string()))
    }

    /// The envelope as an [`encode_state`] blob: write-ahead-log
    /// checkpoints.
    fn checkpoint_blob(&self, backend: &mut Backend) -> Result<Vec<u8>> {
        Ok(encode_state(&self.snapshot_file(backend)?.to_value()))
    }

    /// Checkpoints this tenant into its write-ahead log, returning the
    /// sequence the checkpoint covers (`None` without a log). Caller holds
    /// the backend guard, so the checkpoint covers exactly the records
    /// appended so far.
    fn checkpoint(&self, backend: &mut Backend) -> Result<Option<u64>> {
        let Some(wal) = &self.wal else {
            return Ok(None);
        };
        let blob = self.checkpoint_blob(backend)?;
        wal.lock()
            .unwrap_or_else(PoisonError::into_inner)
            .checkpoint(&blob)
            .map(Some)
            .map_err(wal_err)
    }

    /// Rebuilds a tenant from a JSON snapshot envelope.
    fn from_snapshot_text(text: &str, expected_namespace: Option<&str>) -> Result<Self> {
        let file = serde_json::from_str(text).map_err(|e| invalid_snapshot(e.to_string()))?;
        Self::from_snapshot_file(file, expected_namespace)
    }

    /// Rebuilds a tenant from its log's checkpoint blob. A blob that does
    /// not restore — a torn or foreign file, a JSON checkpoint or an older
    /// snapshot version left by an earlier build — is `wal_corrupt`, naming
    /// the tenant.
    fn from_checkpoint(blob: &[u8], namespace: &str) -> Result<Self> {
        let corrupt = |message: String| ClusteringError::InvalidParameter {
            name: "wal_corrupt",
            message: format!("checkpoint for tenant `{namespace}`: {message}"),
        };
        let value = decode_state(blob).map_err(corrupt)?;
        let file = SnapshotFile::from_value(&value).map_err(|e| corrupt(e.to_string()))?;
        Self::from_snapshot_file(file, Some(namespace)).map_err(|e| corrupt(e.to_string()))
    }

    /// Validates an envelope and rebuilds its tenant. `expected_namespace`
    /// pins the envelope to the tenant a file or log is named after; a
    /// mismatch means it was renamed or tampered with.
    fn from_snapshot_file(file: SnapshotFile, expected_namespace: Option<&str>) -> Result<Self> {
        if file.snapshot_version != SNAPSHOT_VERSION {
            return Err(invalid_snapshot(format!(
                "unsupported snapshot version {} (this build reads version {SNAPSHOT_VERSION})",
                file.snapshot_version
            )));
        }
        validate_namespace(&file.namespace).map_err(invalid_snapshot)?;
        if let Some(expected) = expected_namespace {
            if file.namespace != expected {
                return Err(invalid_snapshot(format!(
                    "snapshot belongs to tenant `{}`, expected `{expected}`",
                    file.namespace
                )));
            }
        }
        let kind = BackendKind::parse(&file.backend)
            .ok_or_else(|| invalid_snapshot(format!("unknown backend `{}`", file.backend)))?;
        let tenant = Tenant::assemble(&file.namespace, Backend::from_state(kind, &file.state)?);
        // The sharded backend's state carries its own copy of the published
        // answer (in-process `ShardedStream` restores need it) and has
        // already seeded the slot with it. Both copies were written from
        // the same slot under one lock hold, so a disagreement means the
        // snapshot was tampered with or corrupted — reject it instead of
        // silently letting one copy win.
        if kind == BackendKind::ShardedCc
            && tenant.slot.load().map(|p| p.as_ref().clone()) != file.published
        {
            return Err(invalid_snapshot(
                "published answer in the envelope disagrees with the backend state".to_string(),
            ));
        }
        // Republish the snapshot-time answer so cached reads on the
        // restored tenant resume at the saved epoch.
        tenant.slot.restore(file.published);
        Ok(tenant)
    }
}

/// What applying one record produced: the answer of the live request that
/// logged it.
enum Applied {
    /// Points seen after an ingest.
    Seen(u64),
    /// The answer a strict query published.
    Published(Arc<PublishedClustering>),
    /// The stats a strict stats request collected.
    Stats(StreamStats),
}

impl Applied {
    fn seen(self) -> Result<u64> {
        match self {
            Applied::Seen(seen) => Ok(seen),
            _ => Err(Self::mismatch()),
        }
    }

    fn published(self) -> Result<Arc<PublishedClustering>> {
        match self {
            Applied::Published(published) => Ok(published),
            _ => Err(Self::mismatch()),
        }
    }

    fn stats(self) -> Result<StreamStats> {
        match self {
            Applied::Stats(stats) => Ok(stats),
            _ => Err(Self::mismatch()),
        }
    }

    /// Each record kind yields one variant, so a mismatch means the caller
    /// built the wrong record: an internal error, not a panic.
    fn mismatch() -> ClusteringError {
        ClusteringError::InvalidParameter {
            name: "record",
            message: "the applied record does not answer this request".to_string(),
        }
    }
}

/// The thread-safe serving facade over the tenant map.
///
/// All methods take `&self`; connection handler threads share the engine
/// through an `Arc`. Writes (and strict reads) serialize on the target
/// tenant's mutex only — tenants never contend with each other — and
/// cached reads go through the tenant's publish slot without any lock.
/// Lock order is strictly map → tenant; no path acquires the map lock
/// while holding a tenant's backend mutex.
#[derive(Debug)]
pub struct Engine {
    tenants: RwLock<HashMap<String, Arc<Tenant>>>,
    /// Spec used for every lazily created tenant (and the eagerly created
    /// default tenant).
    default_spec: EngineSpec,
    /// Cap on resident tenants (≥ 1).
    max_resident: usize,
    /// Where evicted tenants are paged out to; `None` makes the cap a hard
    /// limit.
    evict_dir: Option<PathBuf>,
    /// Monotone logical clock stamping tenant touches for LRU.
    clock: AtomicU64,
    /// Durability settings. `Some` attaches a per-tenant write-ahead log
    /// and makes the log directory the single on-disk source of truth
    /// (page-out becomes "checkpoint and drop"; eviction files are never
    /// written or read).
    wal: Option<WalConfig>,
    /// Engine start time: the zero point of `last_touch_ms` stamps (idle
    /// eviction measures against this clock).
    started: Instant,
    /// Follower mode: `Some` makes this engine a read-only replica —
    /// writes and strict reads are refused at dispatch, and state arrives
    /// through [`Engine::install_replica_snapshot_in`] /
    /// [`Engine::apply_replication_record_in`].
    follower: Option<FollowerStatus>,
}

impl Engine {
    /// Builds an engine from a spec with the default resident cap and no
    /// eviction directory. The [`DEFAULT_NAMESPACE`] tenant is created
    /// eagerly, so spec validation errors surface here rather than on the
    /// first request.
    ///
    /// # Errors
    /// Propagates configuration validation errors.
    pub fn new(spec: &EngineSpec) -> Result<Self> {
        Self::with_options(spec, DEFAULT_MAX_RESIDENT, None)
    }

    /// Builds an engine with an explicit resident-tenant cap and an
    /// optional eviction directory. A `max_resident` of 0 is treated as 1
    /// (the default tenant always exists).
    ///
    /// # Errors
    /// Propagates configuration validation errors.
    pub fn with_options(
        spec: &EngineSpec,
        max_resident: usize,
        evict_dir: Option<PathBuf>,
    ) -> Result<Self> {
        let default_tenant = Tenant::create(DEFAULT_NAMESPACE, spec)?;
        let mut map = HashMap::new();
        map.insert(DEFAULT_NAMESPACE.to_string(), Arc::new(default_tenant));
        Ok(Engine {
            tenants: RwLock::new(map),
            default_spec: *spec,
            max_resident: max_resident.max(1),
            evict_dir,
            clock: AtomicU64::new(1),
            wal: None,
            started: Instant::now(),
            follower: None,
        })
    }

    /// Replaces the resident cap and eviction directory (builder-style, for
    /// engines cold-started via [`Engine::from_snapshot_json`]).
    #[must_use]
    pub fn with_eviction(mut self, max_resident: usize, evict_dir: Option<PathBuf>) -> Self {
        self.max_resident = max_resident.max(1);
        self.evict_dir = evict_dir;
        self
    }

    /// Attaches a write-ahead log and runs crash recovery (builder-style,
    /// called once at startup before the engine serves requests).
    ///
    /// The default tenant — created fresh by the constructor — is rebuilt
    /// through recovery (checkpoint + tail replay), and every other
    /// tenant directory under the log root is recovered eagerly so
    /// corruption surfaces at startup rather than on first touch.
    ///
    /// # Errors
    /// Propagates I/O failures and [`skm_wal`] corruption verdicts
    /// (`wal_corrupt`).
    pub fn with_wal(mut self, config: WalConfig) -> Result<Self> {
        let root = config.dir.clone();
        std::fs::create_dir_all(&root).map_err(|e| wal_err(WalError::Io(e)))?;
        self.wal = Some(config);
        let default_tenant =
            Arc::new(self.create_or_recover(DEFAULT_NAMESPACE, &self.default_spec)?);
        {
            let mut map = self.write_map();
            // Drop the constructor's fresh default tenant in favour of the
            // recovered one.
            map.clear();
            self.touch(&default_tenant);
            map.insert(DEFAULT_NAMESPACE.to_string(), default_tenant);
        }
        let mut others = Vec::new();
        for entry in std::fs::read_dir(&root).map_err(|e| wal_err(WalError::Io(e)))? {
            let entry = entry.map_err(|e| wal_err(WalError::Io(e)))?;
            if !entry.path().is_dir() {
                continue;
            }
            let Some(name) = entry.file_name().to_str().map(String::from) else {
                continue;
            };
            if name != DEFAULT_NAMESPACE && validate_namespace(&name).is_ok() {
                others.push(name);
            }
        }
        // Deterministic recovery order (read_dir order is not).
        others.sort();
        for namespace in &others {
            self.tenant(namespace)?;
        }
        Ok(self)
    }

    /// Builds (or recovers) one tenant. Without a WAL this is a plain
    /// [`Tenant::create`]. With one, the tenant's log directory is opened
    /// and recovered: state = checkpoint blob + tail replayed through the
    /// same code paths that produced it, bit-identical to the
    /// uninterrupted run. A brand-new tenant writes **checkpoint 0**
    /// immediately — the fresh snapshot carries its configuration and
    /// seed, so recovery never needs a special "empty log" state.
    fn create_or_recover(&self, namespace: &str, spec: &EngineSpec) -> Result<Tenant> {
        let Some(cfg) = &self.wal else {
            return Tenant::create(namespace, spec);
        };
        let recovered = Wal::open(cfg.tenant_dir(namespace), cfg.options()).map_err(wal_err)?;
        let skm_wal::Recovered {
            mut wal,
            checkpoint,
            tail,
        } = recovered;
        let mut tenant = match checkpoint {
            Some((_, blob)) => Tenant::from_checkpoint(&blob, namespace)?,
            None => {
                // Records can only exist after checkpoint 0 was written;
                // records without any checkpoint mean the checkpoint was
                // deleted or never survived — unrecoverable.
                if !tail.is_empty() {
                    return Err(ClusteringError::InvalidParameter {
                        name: "wal_corrupt",
                        message: format!(
                            "log for tenant `{namespace}` has {} records but no checkpoint",
                            tail.len()
                        ),
                    });
                }
                let fresh = Tenant::create(namespace, spec)?;
                let blob = fresh.checkpoint_blob(&mut fresh.lock())?;
                wal.checkpoint(&blob).map_err(wal_err)?;
                fresh
            }
        };
        {
            let mut guard = tenant.lock();
            for (_, payload) in &tail {
                let record = decode_replication_record(payload).map_err(|message| {
                    ClusteringError::InvalidParameter {
                        name: "wal_corrupt",
                        message,
                    }
                })?;
                Self::apply_record(&mut guard, &tenant.slot, &record)?;
            }
        }
        tenant.wal = Some(Mutex::new(wal));
        Ok(tenant)
    }

    /// Applies one record to a backend and returns what the live request
    /// that logged it answers with. Live requests (through
    /// [`Engine::commit`]), WAL recovery and followers all run this, so a
    /// replayed record takes exactly the code path that produced it.
    /// Caller holds the backend guard.
    fn apply_record(
        backend: &mut Backend,
        slot: &PublishSlot,
        record: &ReplicationRecord,
    ) -> Result<Applied> {
        Ok(match record {
            ReplicationRecord::Ingest { point } => {
                let clusterer = backend.clusterer();
                clusterer.update(point)?;
                Applied::Seen(clusterer.points_seen())
            }
            ReplicationRecord::IngestBatch { points } => {
                let refs: Vec<&[f64]> = points.iter().map(Vec::as_slice).collect();
                let clusterer = backend.clusterer();
                clusterer.update_batch(&refs)?;
                Applied::Seen(clusterer.points_seen())
            }
            // Strict reads mutate: they drain buffers, consume coordinator
            // RNG and publish an epoch. Re-running them is what keeps
            // recovered state bit-identical (including the epoch counter).
            ReplicationRecord::Query {} => Applied::Published(backend.publish_query(slot, None)?),
            ReplicationRecord::Stats {} => Applied::Stats(backend.stats()?),
            // Windowed strict reads consume the shared query RNG just like
            // whole-stream ones (selection is pure, extraction is not), so
            // they carry the resolved point count and are re-run verbatim.
            // `last_secs` windows were resolved to points before logging,
            // so replay never consults a clock.
            ReplicationRecord::QueryWindow { last_points } => {
                Applied::Published(backend.publish_query(slot, Some(*last_points))?)
            }
        })
    }

    /// Bucket-granular coverage of a point window against a backend's
    /// summary structure: pure span arithmetic — no merge, no RNG, no
    /// cache traffic. Caller holds the backend guard.
    fn window_coverage(backend: &mut Backend, last_points: u64) -> Result<u64> {
        Ok(match backend {
            Backend::ShardedCc(s) => s.window_coverage(last_points)?,
            Backend::Cc(c) => c.window_coverage(last_points),
            Backend::Ct(c) => c.window_coverage(last_points),
            Backend::Rcc(c) => c.window_coverage(last_points),
        })
    }

    /// The spec lazily created tenants are built from.
    #[must_use]
    pub fn default_spec(&self) -> &EngineSpec {
        &self.default_spec
    }

    /// The resident-tenant cap.
    #[must_use]
    pub fn max_resident(&self) -> usize {
        self.max_resident
    }

    /// Namespaces of the currently resident tenants, in no particular
    /// order.
    #[must_use]
    pub fn resident_tenants(&self) -> Vec<String> {
        self.read_map().keys().cloned().collect()
    }

    fn read_map(&self) -> std::sync::RwLockReadGuard<'_, HashMap<String, Arc<Tenant>>> {
        self.tenants.read().unwrap_or_else(PoisonError::into_inner)
    }

    fn write_map(&self) -> std::sync::RwLockWriteGuard<'_, HashMap<String, Arc<Tenant>>> {
        self.tenants.write().unwrap_or_else(PoisonError::into_inner)
    }

    fn touch(&self, tenant: &Tenant) {
        tenant.last_touch.store(
            self.clock.fetch_add(1, Ordering::Relaxed),
            Ordering::Relaxed,
        );
        tenant.last_touch_ms.store(self.now_ms(), Ordering::Relaxed);
    }

    /// Milliseconds since engine construction (the clock `last_touch_ms`
    /// is stamped against).
    fn now_ms(&self) -> u64 {
        u64::try_from(self.started.elapsed().as_millis()).unwrap_or(u64::MAX)
    }

    fn bad_namespace(message: String) -> ClusteringError {
        ClusteringError::InvalidParameter {
            name: "namespace",
            message,
        }
    }

    fn evict_path(&self, namespace: &str) -> Option<PathBuf> {
        self.evict_dir
            .as_ref()
            .map(|d| d.join(evict_file_name(namespace)))
    }

    /// Pages one resident tenant out to disk. With a WAL this is
    /// "checkpoint and drop" — a binary checkpoint, after which the
    /// tenant's log directory holds everything; without one the state goes
    /// to a JSON eviction file. The caller holds the map write lock and
    /// removes the victim afterwards.
    fn page_out(&self, victim: &Tenant) -> Result<()> {
        // Snapshot and flag under the victim's backend lock: every
        // operation that raced us either completed before the snapshot
        // (and is in it) or will observe `evicted` and retry through the
        // map (and the restore).
        let mut guard = victim.lock();
        if victim.checkpoint(&mut guard)?.is_none() {
            let Some(path) = self.evict_path(&victim.namespace) else {
                return Err(ClusteringError::InvalidParameter {
                    name: "tenant_limit",
                    message: format!(
                        "resident tenant cap {} reached and no eviction directory is configured",
                        self.max_resident
                    ),
                });
            };
            let write_err = |e: std::io::Error| ClusteringError::InvalidParameter {
                name: "snapshot",
                message: format!("evicting tenant `{}`: {e}", victim.namespace),
            };
            let json = victim.snapshot_string(&mut guard)?;
            if let Some(parent) = path.parent() {
                std::fs::create_dir_all(parent).map_err(write_err)?;
            }
            std::fs::write(&path, json).map_err(write_err)?;
        }
        victim.evicted.store(true, Ordering::Release);
        Ok(())
    }

    /// Evicts least-recently-touched tenants until a new one fits under
    /// the cap. Caller holds the map write lock.
    fn make_room(&self, map: &mut HashMap<String, Arc<Tenant>>) -> Result<()> {
        while map.len() >= self.max_resident {
            let Some(victim) = map
                .values()
                .min_by_key(|t| t.last_touch.load(Ordering::Relaxed))
                .cloned()
            else {
                // `len >= cap >= 1` makes the map non-empty here; if that
                // invariant ever breaks, stop evicting rather than spin.
                return Ok(());
            };
            self.page_out(&victim)?;
            map.remove(&victim.namespace);
        }
        Ok(())
    }

    /// Pages out every tenant that has gone untouched for longer than
    /// `max_idle`, freeing its memory (its state stays on disk and the
    /// next request restores it transparently). A no-op unless the engine
    /// can page tenants to disk (WAL or eviction directory). Returns the
    /// namespaces paged out.
    ///
    /// # Errors
    /// Propagates page-out failures.
    pub fn evict_idle(&self, max_idle: Duration) -> Result<Vec<String>> {
        self.evict_idle_at(max_idle, self.now_ms())
    }

    /// Deterministic core of [`Engine::evict_idle`]: `now_ms` is the
    /// caller's reading of the engine clock (tests pin it).
    fn evict_idle_at(&self, max_idle: Duration, now_ms: u64) -> Result<Vec<String>> {
        if self.wal.is_none() && self.evict_dir.is_none() {
            return Ok(Vec::new());
        }
        let max_idle_ms = u64::try_from(max_idle.as_millis()).unwrap_or(u64::MAX);
        let mut map = self.write_map();
        let victims: Vec<Arc<Tenant>> = map
            .values()
            .filter(|t| {
                now_ms.saturating_sub(t.last_touch_ms.load(Ordering::Relaxed)) > max_idle_ms
            })
            .cloned()
            .collect();
        let mut paged_out = Vec::with_capacity(victims.len());
        for victim in victims {
            self.page_out(&victim)?;
            map.remove(&victim.namespace);
            paged_out.push(victim.namespace.clone());
        }
        Ok(paged_out)
    }

    /// Fetches (lazily creating or restoring) the tenant for `namespace`
    /// and stamps its LRU touch.
    fn tenant(&self, namespace: &str) -> Result<Arc<Tenant>> {
        validate_namespace(namespace).map_err(Self::bad_namespace)?;
        {
            let map = self.read_map();
            if let Some(tenant) = map.get(namespace) {
                self.touch(tenant);
                return Ok(Arc::clone(tenant));
            }
        }
        let mut map = self.write_map();
        // Double-check: another thread may have created it between locks.
        if let Some(tenant) = map.get(namespace) {
            self.touch(tenant);
            return Ok(Arc::clone(tenant));
        }
        self.make_room(&mut map)?;
        // With a WAL the log directory is the only on-disk source of
        // truth: `create_or_recover` both restores paged-out tenants and
        // creates brand-new ones, and eviction files are never consulted.
        let evicted_file = match &self.wal {
            Some(_) => None,
            None => self.evict_path(namespace).filter(|p| p.exists()),
        };
        let tenant = match &evicted_file {
            Some(path) => {
                let text = std::fs::read_to_string(path).map_err(|e| {
                    ClusteringError::InvalidParameter {
                        name: "snapshot",
                        message: format!("restoring tenant `{namespace}`: {e}"),
                    }
                })?;
                Tenant::from_snapshot_text(&text, Some(namespace))?
            }
            None => self.create_or_recover(namespace, &self.default_spec)?,
        };
        let tenant = Arc::new(tenant);
        self.touch(&tenant);
        map.insert(namespace.to_string(), Arc::clone(&tenant));
        // The tenant is resident again; drop the page-out file so disk and
        // map never disagree about where the live state is.
        if let Some(path) = evicted_file {
            std::fs::remove_file(path).ok();
        }
        Ok(tenant)
    }

    /// Runs `f` under the tenant's backend lock, retrying through the map
    /// if the tenant was evicted between the map lookup and the lock
    /// acquisition (the retry restores it from disk).
    fn with_backend<T>(
        &self,
        namespace: &str,
        mut f: impl FnMut(&mut Backend, &Tenant) -> Result<T>,
    ) -> Result<T> {
        loop {
            let tenant = self.tenant(namespace)?;
            let mut guard = tenant.lock();
            if tenant.evicted.load(Ordering::Acquire) {
                drop(guard);
                continue;
            }
            return f(&mut guard, &tenant);
        }
    }

    /// Creates `namespace` with an explicit spec instead of the engine
    /// default. Only valid before the tenant exists: reconfiguring a live
    /// (or paged-out) stream would invalidate its state.
    ///
    /// # Errors
    /// `tenant_exists` when the tenant is resident or evicted to disk;
    /// `tenant_limit` when the cap is full and no eviction directory is
    /// configured; otherwise spec validation errors.
    pub fn configure(&self, namespace: &str, spec: &EngineSpec) -> Result<(BackendKind, usize)> {
        validate_namespace(namespace).map_err(Self::bad_namespace)?;
        let exists = |namespace: &str| ClusteringError::InvalidParameter {
            name: "tenant_exists",
            message: format!("tenant `{namespace}` already exists"),
        };
        let mut map = self.write_map();
        if map.contains_key(namespace) {
            return Err(exists(namespace));
        }
        if self.evict_path(namespace).is_some_and(|p| p.exists()) {
            return Err(exists(namespace));
        }
        // A paged-out WAL tenant is just as much a duplicate as an
        // eviction file.
        if self
            .wal
            .as_ref()
            .is_some_and(|cfg| cfg.tenant_dir(namespace).exists())
        {
            return Err(exists(namespace));
        }
        self.make_room(&mut map)?;
        // `create_or_recover` found no log directory above, so in WAL mode
        // this creates the tenant and writes its checkpoint 0.
        let tenant = Arc::new(self.create_or_recover(namespace, spec)?);
        self.touch(&tenant);
        let shards = tenant.shards;
        map.insert(namespace.to_string(), tenant);
        Ok((spec.kind, shards))
    }

    /// Which backend lazily created tenants run (and, for an engine built
    /// from [`Engine::new`], the default tenant too).
    #[must_use]
    pub fn kind(&self) -> BackendKind {
        self.default_spec.kind
    }

    /// The one mutation path of a live request, run under the tenant's
    /// backend lock: check the record, log it, apply it through
    /// [`Engine::apply_record`] — the code WAL recovery and followers run,
    /// so replay equivalence holds by construction — stamp the arrival of
    /// ingested points, and checkpoint when due. A refused record is never
    /// logged, so the log and the applied state stay in lockstep.
    fn commit(
        &self,
        backend: &mut Backend,
        tenant: &Tenant,
        record: &ReplicationRecord,
    ) -> Result<Applied> {
        Self::check_record(backend, record)?;
        if let Some(wal) = &tenant.wal {
            Self::wal_append(wal, record)?;
        }
        let before = backend.clusterer().points_seen();
        let applied = Self::apply_record(backend, &tenant.slot, record)?;
        if let Applied::Seen(seen) = applied {
            // Live only: recovered, replicated and restored points carry
            // no arrival stamps (see `ArrivalLog`).
            tenant
                .arrivals
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .record(self.now_ms(), before, seen);
        }
        Self::wal_checkpoint_if_due(tenant, backend)?;
        Ok(applied)
    }

    /// Refuses a live record the backend would refuse, before anything is
    /// logged: a bad point; a bad batch, checked whole so that no point of
    /// it is consumed (the sharded coordinator's `update_batch` is a
    /// per-point loop); a strict query on an empty stream; a window with no
    /// points.
    fn check_record(backend: &mut Backend, record: &ReplicationRecord) -> Result<()> {
        let clusterer = backend.clusterer();
        match record {
            ReplicationRecord::Ingest { point } => {
                validate_stream_point(clusterer.dim(), point, 0)?;
            }
            ReplicationRecord::IngestBatch { points } => {
                let mut dim = clusterer.dim();
                for (index, point) in points.iter().enumerate() {
                    dim = Some(validate_stream_point(dim, point, index)?);
                }
            }
            ReplicationRecord::Query {} | ReplicationRecord::QueryWindow { .. }
                if clusterer.points_seen() == 0 =>
            {
                return Err(ClusteringError::EmptyInput);
            }
            ReplicationRecord::QueryWindow { last_points: 0 } => {
                return Err(ClusteringError::InvalidParameter {
                    name: "window",
                    message: "the time window contains no points".to_string(),
                });
            }
            ReplicationRecord::Query {}
            | ReplicationRecord::QueryWindow { .. }
            | ReplicationRecord::Stats {} => {}
        }
        Ok(())
    }

    /// Appends one record to a tenant's log (buffered; durability follows
    /// the group-commit policy). The caller holds the backend lock — that
    /// lock is what serializes appends with the mutations they describe.
    fn wal_append(wal: &Mutex<Wal>, record: &ReplicationRecord) -> Result<u64> {
        let payload = encode_replication_record(record);
        wal.lock()
            .unwrap_or_else(PoisonError::into_inner)
            .append(&payload)
            .map_err(wal_err)
    }

    /// Folds the log into a fresh checkpoint once the un-checkpointed tail
    /// outgrows the configured threshold. Caller holds the backend lock,
    /// so the snapshot covers exactly the records appended so far.
    fn wal_checkpoint_if_due(tenant: &Tenant, backend: &mut Backend) -> Result<()> {
        let Some(wal) = &tenant.wal else {
            return Ok(());
        };
        let due = wal
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .checkpoint_due();
        if due {
            tenant.checkpoint(backend)?;
        }
        Ok(())
    }

    /// Ingests one point into a tenant; returns its total points seen
    /// afterwards.
    ///
    /// # Errors
    /// Returns validation errors (dimension mismatch, non-finite
    /// coordinates, empty point, bad namespace); the tenant state is
    /// unchanged on error.
    pub fn ingest_in(&self, namespace: &str, point: &[f64]) -> Result<u64> {
        let record = ReplicationRecord::Ingest {
            point: point.to_vec(),
        };
        self.with_backend(namespace, |backend, tenant| {
            self.commit(backend, tenant, &record)?.seen()
        })
    }

    /// Ingests a batch of points atomically into a tenant: the whole batch
    /// is validated against the stream dimension before any point is
    /// consumed, so a rejected batch leaves the tenant untouched. The batch
    /// is logged as one record, so replay preserves its atomicity.
    ///
    /// # Errors
    /// Returns the first validation failure (with the offending in-batch
    /// index for non-finite coordinates).
    pub fn ingest_batch_in(&self, namespace: &str, points: &[Vec<f64>]) -> Result<u64> {
        let record = ReplicationRecord::IngestBatch {
            points: points.to_vec(),
        };
        self.with_backend(namespace, |backend, tenant| {
            self.commit(backend, tenant, &record)?.seen()
        })
    }

    /// Answers a clustering query on the requested read path for one
    /// tenant.
    ///
    /// [`Freshness::Strict`] drains in-flight ingestion under the tenant's
    /// mutex, recomputes, republishes and returns the new epoch — exactly
    /// the pre-freshness behaviour (bit-identical at a fixed seed).
    /// [`Freshness::Cached`] returns the last published epoch without
    /// taking the mutex; when nothing has been published yet it falls back
    /// to one strict query to seed the slot. Touching an evicted tenant
    /// (either path) transparently restores it first.
    ///
    /// # Errors
    /// Returns [`ClusteringError::EmptyInput`] before the tenant's first
    /// point.
    pub fn query_in(
        &self,
        namespace: &str,
        freshness: Freshness,
    ) -> Result<Arc<PublishedClustering>> {
        if freshness == Freshness::Cached {
            let tenant = self.tenant(namespace)?;
            if let Some(published) = tenant.slot.load() {
                return Ok(published);
            }
            // The seed-the-slot fallback below is a strict query, and
            // strict reads mutate (drain buffers, consume RNG, publish an
            // epoch). On a follower only replicated records may mutate —
            // with nothing published yet there is nothing to serve.
            self.refuse_unpublished_on_follower()?;
        }
        self.with_backend(namespace, |backend, tenant| {
            self.commit(backend, tenant, &ReplicationRecord::Query {})?
                .published()
        })
    }

    /// Resolves a validated wire window to a concrete point count for one
    /// tenant. Point windows pass through; time windows consult the
    /// tenant's arrival log against the engine clock reading `now_ms` —
    /// this happens **before** anything is logged or executed, so WAL
    /// replay and followers never consult a clock.
    fn resolve_window(tenant: &Tenant, window: Window, now_ms: u64, seen: u64) -> u64 {
        match window {
            Window::Points(n) => n,
            Window::Secs(t) => {
                // `t` is validated ≤ MAX_WINDOW_SECS (1e12), so the
                // millisecond span fits u64 comfortably; ceil so the span
                // covers at least the requested duration.
                let span_ms = (t * 1000.0).ceil() as u64;
                let cutoff = now_ms.saturating_sub(span_ms);
                tenant
                    .arrivals
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .points_since(cutoff, seen)
            }
        }
    }

    /// Answers a **strict** windowed clustering query: drains in-flight
    /// ingestion, resolves the window to a point count, recomputes from the
    /// smallest stored-summary suffix covering it, republishes and returns
    /// the new epoch. A window spanning the whole stream (or more) takes
    /// the ordinary strict path — bit-identical to an un-windowed query,
    /// and logged as one. Sub-windows are logged as `QueryWindow` records
    /// carrying the resolved point count, so recovery replays them
    /// clock-independently.
    ///
    /// Cached windowed reads never reach here: dispatch serves the
    /// published answer as-is (reporting the window *it* was computed for).
    ///
    /// # Errors
    /// [`ClusteringError::EmptyInput`] before the tenant's first point; a
    /// `window` parameter error (wire: [`crate::protocol::ErrorCode::BadWindow`])
    /// when a time window contains no points.
    pub fn query_window_in(
        &self,
        namespace: &str,
        window: Window,
    ) -> Result<Arc<PublishedClustering>> {
        let now_ms = self.now_ms();
        self.with_backend(namespace, |backend, tenant| {
            let seen = backend.clusterer().points_seen();
            let last_points = Self::resolve_window(tenant, window, now_ms, seen);
            // A window spanning the whole stream is the ordinary strict
            // query and is logged as one; on an empty stream that query is
            // what the check refuses with `EmptyInput`.
            let record = if last_points >= seen {
                ReplicationRecord::Query {}
            } else {
                ReplicationRecord::QueryWindow { last_points }
            };
            self.commit(backend, tenant, &record)?.published()
        })
    }

    /// **Strict** windowed stats: drains the coordinator buffers, collects
    /// the ordinary stream stats, then probes how many of the most recent
    /// points the stored summaries cover. The probe is pure span
    /// arithmetic — no merge, no RNG, no cache traffic — so the WAL logs
    /// the same `Stats` marker as an un-windowed strict stats request. A
    /// time window that contains no points reports `(0, 0)` coverage
    /// rather than an error: "nothing arrived lately" is an answer.
    ///
    /// # Errors
    /// Fails when a shard worker is gone.
    pub fn stats_window_in(
        &self,
        namespace: &str,
        window: Window,
    ) -> Result<(StreamStats, WindowInfo)> {
        let now_ms = self.now_ms();
        self.with_backend(namespace, |backend, tenant| {
            let stats = self
                .commit(backend, tenant, &ReplicationRecord::Stats {})?
                .stats()?;
            let last_points = Self::resolve_window(tenant, window, now_ms, stats.points_seen);
            let covered_points = if last_points == 0 {
                0
            } else {
                Self::window_coverage(backend, last_points)?
            };
            Ok((
                stats,
                WindowInfo {
                    last_points,
                    covered_points,
                },
            ))
        })
    }

    /// The tenant's currently published answer, if any (never takes the
    /// backend mutex, but restores the tenant if it was evicted).
    ///
    /// # Errors
    /// Returns namespace-validation or restore failures.
    pub fn published_in(&self, namespace: &str) -> Result<Option<Arc<PublishedClustering>>> {
        Ok(self.tenant(namespace)?.slot.load())
    }

    /// Epoch of the tenant's currently published answer (0 before its
    /// first strict query).
    ///
    /// # Errors
    /// Returns namespace-validation or restore failures.
    pub fn epoch_in(&self, namespace: &str) -> Result<u64> {
        Ok(self.tenant(namespace)?.slot.epoch())
    }

    /// Aggregated ingestion statistics for one tenant.
    ///
    /// [`Freshness::Strict`] flushes the coordinator buffers and collects
    /// exact per-shard counts under the tenant's mutex.
    /// [`Freshness::Cached`] answers from the published snapshot without
    /// the mutex: `points_seen` and `last_query` are as of the published
    /// epoch, and `per_shard_points` is empty (per-shard counts require a
    /// drain). Falls back to strict when nothing has been published yet.
    ///
    /// # Errors
    /// Fails when a shard worker is gone (strict path only).
    pub fn stats_in(&self, namespace: &str, freshness: Freshness) -> Result<StreamStats> {
        if freshness == Freshness::Cached {
            let tenant = self.tenant(namespace)?;
            if let Some(published) = tenant.slot.load() {
                return Ok(StreamStats {
                    points_seen: published.points_seen,
                    shards: tenant.shards,
                    per_shard_points: Vec::new(),
                    last_query: Some(published.stats),
                });
            }
            // Strict stats drain buffers: never run them implicitly on a
            // follower (see `query_in`).
            self.refuse_unpublished_on_follower()?;
        }
        self.with_backend(namespace, |backend, tenant| {
            self.commit(backend, tenant, &ReplicationRecord::Stats {})?
                .stats()
        })
    }

    /// Total points one tenant has ingested so far.
    ///
    /// # Errors
    /// Returns namespace-validation or restore failures.
    pub fn points_seen_in(&self, namespace: &str) -> Result<u64> {
        self.with_backend(namespace, |backend, _| {
            Ok(backend.clusterer().points_seen())
        })
    }

    /// Points held by one tenant's internal structures (paper accounting).
    ///
    /// # Errors
    /// Returns namespace-validation or restore failures.
    pub fn memory_points_in(&self, namespace: &str) -> Result<usize> {
        self.with_backend(namespace, |backend, _| {
            Ok(backend.clusterer().memory_points())
        })
    }

    /// Serializes one tenant's full state into the versioned JSON
    /// envelope: the text `--restore` and [`Engine::from_snapshot_json`]
    /// read back. (WAL checkpoints hold the same envelope in binary.)
    ///
    /// # Errors
    /// Fails when a shard has latched an error.
    pub fn snapshot_json_in(&self, namespace: &str) -> Result<String> {
        self.with_backend(namespace, |backend, tenant| tenant.snapshot_string(backend))
    }

    /// Points held in memory across **all** resident tenants (paper
    /// accounting; evicted tenants cost disk, not RAM).
    #[must_use]
    pub fn memory_points(&self) -> usize {
        let tenants: Vec<Arc<Tenant>> = self.read_map().values().cloned().collect();
        tenants
            .iter()
            .map(|t| t.lock().clusterer().memory_points())
            .sum()
    }

    /// Cold-starts an engine from a snapshot produced by
    /// [`Engine::snapshot_json_in`]. The
    /// restored tenant keeps the namespace recorded in the envelope;
    /// continuing it is bit-identical to continuing the engine the
    /// snapshot was taken from. Tenants created lazily afterwards inherit
    /// the restored backend's shape (see [`DERIVED_SEED`]).
    ///
    /// # Errors
    /// Returns [`ClusteringError::InvalidParameter`] for unparseable
    /// snapshots, unknown backends or unsupported versions.
    pub fn from_snapshot_json(text: &str) -> Result<Self> {
        let tenant = Tenant::from_snapshot_text(text, None)?;
        let default_spec = tenant.lock().derived_spec();
        let mut map = HashMap::new();
        map.insert(tenant.namespace.clone(), Arc::new(tenant));
        Ok(Engine {
            tenants: RwLock::new(map),
            default_spec,
            max_resident: DEFAULT_MAX_RESIDENT,
            evict_dir: None,
            clock: AtomicU64::new(1),
            wal: None,
            started: Instant::now(),
            follower: None,
        })
    }

    /// Whether a tenant currently lives on disk (paged out) rather than
    /// in memory. Diagnostic; the answer can change concurrently.
    #[must_use]
    pub fn is_evicted_to_disk(&self, namespace: &str) -> bool {
        if self.read_map().contains_key(namespace) {
            return false;
        }
        match &self.wal {
            Some(cfg) => cfg.tenant_dir(namespace).exists(),
            None => self.evict_path(namespace).is_some_and(|p| p.exists()),
        }
    }

    /// Whether this engine runs with a write-ahead log.
    #[must_use]
    pub fn wal_enabled(&self) -> bool {
        self.wal.is_some()
    }

    /// Group-commits every resident tenant's log whose oldest buffered
    /// record has waited at least the fsync interval. The server core
    /// calls this from its poll tick; appends that hit the byte or age
    /// bound sync themselves.
    ///
    /// Takes only each tenant's WAL mutex (never a backend lock), so it
    /// cannot deadlock against the append path's backend → WAL order.
    ///
    /// # Errors
    /// Propagates the first sync failure.
    pub fn wal_sync_all(&self) -> Result<()> {
        let tenants: Vec<Arc<Tenant>> = self.read_map().values().cloned().collect();
        for tenant in tenants {
            if let Some(wal) = &tenant.wal {
                wal.lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .maybe_sync()
                    .map_err(wal_err)?;
            }
        }
        Ok(())
    }

    fn wal_required() -> ClusteringError {
        ClusteringError::InvalidParameter {
            name: "wal_io",
            message: "replication requires a write-ahead log".to_string(),
        }
    }

    /// A consistent follower-bootstrap snapshot of one tenant: the log
    /// sequence it covers, the published epoch, and the full state
    /// envelope as JSON text. The log is group-committed first, so the
    /// snapshot never includes a record a crashed primary could forget — a
    /// follower can never get ahead of what its primary would recover to.
    ///
    /// # Errors
    /// Fails when the engine runs without a WAL, or on snapshot/log
    /// failures.
    pub fn replica_snapshot_in(&self, namespace: &str) -> Result<(u64, u64, String)> {
        self.with_backend(namespace, |backend, tenant| {
            let Some(wal) = &tenant.wal else {
                return Err(Self::wal_required());
            };
            let seq = wal
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .sync()
                .map_err(wal_err)?;
            let snapshot = tenant.snapshot_string(backend)?;
            Ok((seq, tenant.slot.epoch(), snapshot))
        })
    }

    /// One tenant's durable log records with `seq >= from_seq`, plus its
    /// last appended sequence (the follower's lag bound). `None` records
    /// mean `from_seq` was already compacted into a checkpoint — the
    /// follower must resynchronize from [`Engine::replica_snapshot_in`].
    ///
    /// # Errors
    /// Fails when the engine runs without a WAL.
    #[allow(clippy::type_complexity)]
    pub fn wal_tail_in(
        &self,
        namespace: &str,
        from_seq: u64,
    ) -> Result<(Option<Vec<(u64, Vec<u8>)>>, u64)> {
        self.with_backend(namespace, |_, tenant| {
            let Some(wal) = &tenant.wal else {
                return Err(Self::wal_required());
            };
            let wal = wal.lock().unwrap_or_else(PoisonError::into_inner);
            Ok((wal.records_since(from_seq), wal.last_seq()))
        })
    }

    /// Highest sequence number of one tenant's log known to be on stable
    /// storage.
    ///
    /// # Errors
    /// Fails when the engine runs without a WAL.
    pub fn wal_durable_seq_in(&self, namespace: &str) -> Result<u64> {
        self.with_backend(namespace, |_, tenant| {
            let Some(wal) = &tenant.wal else {
                return Err(Self::wal_required());
            };
            Ok(wal
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .durable_seq())
        })
    }

    /// Forces a checkpoint of one tenant's log right now, returning the
    /// sequence it covers. The hot path checkpoints on its own byte
    /// threshold; this is for the CLI `recover` command and tests.
    ///
    /// # Errors
    /// Fails when the engine runs without a WAL, or on snapshot/log
    /// failures.
    pub fn checkpoint_now_in(&self, namespace: &str) -> Result<u64> {
        self.with_backend(namespace, |backend, tenant| {
            tenant.checkpoint(backend)?.ok_or_else(Self::wal_required)
        })
    }

    /// Applies one replicated record to a tenant through the same code
    /// paths the primary ran. Follower mode: the follower's engine runs
    /// *without* a WAL of its own and feeds the primary's stream through
    /// here, staying bit-identical to the primary's applied state.
    ///
    /// # Errors
    /// Propagates the underlying update/query failure.
    pub fn apply_replication_record_in(
        &self,
        namespace: &str,
        record: &ReplicationRecord,
    ) -> Result<()> {
        self.with_backend(namespace, |backend, tenant| {
            Self::apply_record(backend, &tenant.slot, record).map(drop)
        })
    }

    /// Marks this engine a follower replica (builder-style): writes and
    /// strict reads are refused at dispatch with
    /// [`crate::protocol::ErrorCode::ReplicationLag`], and cached reads
    /// are served only while the replication lag stays within `max_lag`
    /// records.
    #[must_use]
    pub fn with_follower(mut self, max_lag: u64) -> Self {
        self.follower = Some(FollowerStatus::new(max_lag));
        self
    }

    /// This engine's follower status, `None` on a primary.
    #[must_use]
    pub fn follower(&self) -> Option<&FollowerStatus> {
        self.follower.as_ref()
    }

    /// Errors with the replication-lag class when this engine is a
    /// follower — called where a cached read would otherwise fall back to
    /// a mutating strict one.
    fn refuse_unpublished_on_follower(&self) -> Result<()> {
        if self.follower.is_some() {
            return Err(ClusteringError::InvalidParameter {
                name: "replication_lag",
                message: "the follower has not replicated a published answer yet".to_string(),
            });
        }
        Ok(())
    }

    /// Replaces one tenant's state wholesale with a replica-bootstrap
    /// snapshot from [`Engine::replica_snapshot_in`] on the primary.
    /// In-flight reads against the old state finish against it (they hold
    /// their own `Arc`); the next request sees the new state.
    ///
    /// # Errors
    /// Returns [`ClusteringError::InvalidParameter`] for unparseable
    /// snapshots.
    pub fn install_replica_snapshot_in(&self, namespace: &str, snapshot: &str) -> Result<()> {
        let tenant = Arc::new(Tenant::from_snapshot_text(snapshot, Some(namespace))?);
        self.touch(&tenant);
        self.write_map().insert(namespace.to_string(), tenant);
        Ok(())
    }

    /// The resident tenant namespaces, sorted (diagnostics and the CLI
    /// `recover` report).
    #[must_use]
    pub fn namespaces(&self) -> Vec<String> {
        let mut names: Vec<String> = self.read_map().keys().cloned().collect();
        names.sort();
        names
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(kind: BackendKind) -> EngineSpec {
        EngineSpec {
            kind,
            stream: StreamConfig::new(2)
                .with_bucket_size(20)
                .with_kmeans_runs(1)
                .with_lloyd_iterations(2),
            shards: 2,
            batch: 8,
            nesting_depth: 2,
            seed: 7,
        }
    }

    fn feed(engine: &Engine, n: usize, offset: f64) {
        feed_in(engine, DEFAULT_NAMESPACE, n, offset);
    }

    fn feed_in(engine: &Engine, namespace: &str, n: usize, offset: f64) {
        for i in 0..n {
            let x = if i % 2 == 0 { 0.0 } else { 60.0 };
            engine
                .ingest_in(namespace, &[x + offset, (i % 5) as f64 * 0.1])
                .unwrap();
        }
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "skm-engine-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn every_backend_ingests_and_queries() {
        for kind in [
            BackendKind::ShardedCc,
            BackendKind::Cc,
            BackendKind::Ct,
            BackendKind::Rcc,
        ] {
            let engine = Engine::new(&spec(kind)).unwrap();
            assert_eq!(engine.kind(), kind);
            assert_eq!(engine.epoch_in(DEFAULT_NAMESPACE).unwrap(), 0, "{kind:?}");
            feed(&engine, 300, 0.0);
            let published = engine
                .query_in(DEFAULT_NAMESPACE, Freshness::Strict)
                .unwrap();
            assert_eq!(published.centers.len(), 2, "{kind:?}");
            assert_eq!(published.points_seen, 300, "{kind:?}");
            assert_eq!(published.epoch, 1, "{kind:?}");
            assert!(published.cost.is_finite(), "{kind:?}");
            assert!(published.stats.ran_kmeans, "{kind:?}");
            let s = engine
                .stats_in(DEFAULT_NAMESPACE, Freshness::Strict)
                .unwrap();
            assert_eq!(s.points_seen, 300, "{kind:?}");
            assert_eq!(s.per_shard_points.iter().sum::<u64>(), 300, "{kind:?}");
            assert!(engine.memory_points() > 0, "{kind:?}");
        }
    }

    #[test]
    fn cached_queries_reuse_the_published_epoch() {
        for kind in [BackendKind::ShardedCc, BackendKind::Cc] {
            let engine = Engine::new(&spec(kind)).unwrap();
            feed(&engine, 100, 0.0);
            // Nothing published yet: the first cached query falls back to a
            // strict one (seeding the slot) instead of erroring.
            let seeded = engine
                .query_in(DEFAULT_NAMESPACE, Freshness::Cached)
                .unwrap();
            assert_eq!(seeded.epoch, 1, "{kind:?}");
            // More ingestion does not move the published answer …
            feed(&engine, 100, 0.5);
            let cached = engine
                .query_in(DEFAULT_NAMESPACE, Freshness::Cached)
                .unwrap();
            assert_eq!(cached.epoch, 1, "{kind:?}");
            assert_eq!(cached.points_seen, 100, "{kind:?}");
            assert_eq!(cached.centers, seeded.centers, "{kind:?}");
            // … until the next strict query republishes.
            let strict = engine
                .query_in(DEFAULT_NAMESPACE, Freshness::Strict)
                .unwrap();
            assert_eq!(strict.epoch, 2, "{kind:?}");
            assert_eq!(strict.points_seen, 200, "{kind:?}");
            let cached = engine
                .query_in(DEFAULT_NAMESPACE, Freshness::Cached)
                .unwrap();
            assert_eq!(cached.epoch, 2, "{kind:?}");

            // Cached stats come from the published snapshot, lock-free.
            let stats = engine
                .stats_in(DEFAULT_NAMESPACE, Freshness::Cached)
                .unwrap();
            assert_eq!(stats.points_seen, 200, "{kind:?}");
            assert!(stats.per_shard_points.is_empty(), "{kind:?}");
            assert_eq!(stats.last_query, Some(cached.stats), "{kind:?}");
        }
    }

    #[test]
    fn strict_queries_match_the_direct_clusterer_bit_for_bit() {
        // The engine's strict path must stay bit-identical to driving the
        // clusterer directly (the pre-publish code path) at a fixed seed.
        let engine = Engine::new(&spec(BackendKind::ShardedCc)).unwrap();
        let mut direct = ShardedStream::cc(
            spec(BackendKind::ShardedCc).stream,
            2, // shards, as in `spec`
            8, // batch, as in `spec`
            7, // seed, as in `spec`
        )
        .unwrap();
        for i in 0..300usize {
            let x = if i % 2 == 0 { 0.0 } else { 60.0 };
            let p = [x, (i % 5) as f64 * 0.1];
            engine.ingest_in(DEFAULT_NAMESPACE, &p).unwrap();
            direct.update(&p).unwrap();
        }
        let served = engine
            .query_in(DEFAULT_NAMESPACE, Freshness::Strict)
            .unwrap();
        let expected = direct.query().unwrap();
        assert_eq!(served.centers, expected);
    }

    #[test]
    fn a_panicked_handler_does_not_poison_the_engine() {
        // Regression: a handler thread panicking while holding a tenant's
        // backend lock used to poison it, after which every request on
        // every connection failed until restart. The engine now recovers.
        let engine = Arc::new(Engine::new(&spec(BackendKind::Cc)).unwrap());
        feed(&engine, 50, 0.0);
        let clone = Arc::clone(&engine);
        let panicked = std::thread::spawn(move || {
            let tenant = clone.tenant(DEFAULT_NAMESPACE).unwrap();
            let _guard = tenant.backend.lock().unwrap();
            panic!("handler bug while holding the engine lock");
        })
        .join();
        assert!(panicked.is_err(), "the helper thread must have panicked");

        // Every path still works.
        engine.ingest_in(DEFAULT_NAMESPACE, &[1.0, 2.0]).unwrap();
        assert_eq!(engine.points_seen_in(DEFAULT_NAMESPACE).unwrap(), 51);
        let published = engine
            .query_in(DEFAULT_NAMESPACE, Freshness::Strict)
            .unwrap();
        assert_eq!(published.centers.len(), 2);
        engine
            .query_in(DEFAULT_NAMESPACE, Freshness::Cached)
            .unwrap();
        engine
            .stats_in(DEFAULT_NAMESPACE, Freshness::Strict)
            .unwrap();
        engine.snapshot_json_in(DEFAULT_NAMESPACE).unwrap();
    }

    #[test]
    fn batch_rejection_is_atomic_for_every_backend() {
        for kind in [BackendKind::ShardedCc, BackendKind::Cc] {
            let engine = Engine::new(&spec(kind)).unwrap();
            engine.ingest_in(DEFAULT_NAMESPACE, &[1.0, 2.0]).unwrap();
            // Good point followed by a wrong-dimension point: nothing of the
            // batch may be consumed.
            let err = engine
                .ingest_batch_in(DEFAULT_NAMESPACE, &[vec![3.0, 4.0], vec![5.0]])
                .unwrap_err();
            assert!(matches!(
                err,
                ClusteringError::DimensionMismatch {
                    expected: 2,
                    got: 1
                }
            ));
            let err = engine
                .ingest_batch_in(DEFAULT_NAMESPACE, &[vec![3.0, 4.0], vec![f64::NAN, 0.0]])
                .unwrap_err();
            assert!(matches!(
                err,
                ClusteringError::NonFiniteCoordinate { index: 1 }
            ));
            assert!(engine
                .ingest_batch_in(DEFAULT_NAMESPACE, &[vec![3.0, 4.0], vec![]])
                .is_err());
            assert_eq!(
                engine.points_seen_in(DEFAULT_NAMESPACE).unwrap(),
                1,
                "{kind:?}"
            );
            // A self-inconsistent first batch on a fresh engine must also be
            // rejected whole.
            let fresh = Engine::new(&spec(kind)).unwrap();
            assert!(fresh
                .ingest_batch_in(DEFAULT_NAMESPACE, &[vec![1.0, 2.0], vec![1.0, 2.0, 3.0]])
                .is_err());
            assert_eq!(
                fresh.points_seen_in(DEFAULT_NAMESPACE).unwrap(),
                0,
                "{kind:?}"
            );
        }
    }

    #[test]
    fn snapshot_restore_continue_matches_uninterrupted() {
        for kind in [
            BackendKind::ShardedCc,
            BackendKind::Cc,
            BackendKind::Ct,
            BackendKind::Rcc,
        ] {
            let reference = Engine::new(&spec(kind)).unwrap();
            let snapshotted = Engine::new(&spec(kind)).unwrap();
            feed(&reference, 150, 0.0);
            feed(&snapshotted, 150, 0.0);
            let json = snapshotted.snapshot_json_in(DEFAULT_NAMESPACE).unwrap();
            drop(snapshotted);
            let restored = Engine::from_snapshot_json(&json).unwrap();
            assert_eq!(restored.kind(), kind);
            feed(&reference, 150, 0.5);
            feed(&restored, 150, 0.5);
            let a = reference
                .query_in(DEFAULT_NAMESPACE, Freshness::Strict)
                .unwrap();
            let b = restored
                .query_in(DEFAULT_NAMESPACE, Freshness::Strict)
                .unwrap();
            assert_eq!(
                a.centers, b.centers,
                "{kind:?} snapshot continuation diverged"
            );
        }
    }

    #[test]
    fn restored_engine_republishes_the_saved_epoch() {
        for kind in [BackendKind::ShardedCc, BackendKind::Cc] {
            let engine = Engine::new(&spec(kind)).unwrap();
            feed(&engine, 150, 0.0);
            engine
                .query_in(DEFAULT_NAMESPACE, Freshness::Strict)
                .unwrap();
            engine
                .query_in(DEFAULT_NAMESPACE, Freshness::Strict)
                .unwrap();
            let saved = engine.published_in(DEFAULT_NAMESPACE).unwrap().unwrap();
            assert_eq!(saved.epoch, 2, "{kind:?}");

            let json = engine.snapshot_json_in(DEFAULT_NAMESPACE).unwrap();
            let restored = Engine::from_snapshot_json(&json).unwrap();
            // Cached reads resume at the saved epoch, without any query.
            let republished = restored
                .query_in(DEFAULT_NAMESPACE, Freshness::Cached)
                .unwrap();
            assert_eq!(republished.as_ref(), saved.as_ref(), "{kind:?}");
            assert_eq!(restored.epoch_in(DEFAULT_NAMESPACE).unwrap(), 2, "{kind:?}");
            // The next strict query continues the sequence.
            let next = restored
                .query_in(DEFAULT_NAMESPACE, Freshness::Strict)
                .unwrap();
            assert_eq!(next.epoch, 3, "{kind:?}");
        }

        // An engine snapshotted before any query restores with an empty
        // slot (epoch 0), not a fabricated answer.
        let engine = Engine::new(&spec(BackendKind::Cc)).unwrap();
        feed(&engine, 30, 0.0);
        let restored =
            Engine::from_snapshot_json(&engine.snapshot_json_in(DEFAULT_NAMESPACE).unwrap())
                .unwrap();
        assert_eq!(restored.epoch_in(DEFAULT_NAMESPACE).unwrap(), 0);
        assert!(restored.published_in(DEFAULT_NAMESPACE).unwrap().is_none());
    }

    #[test]
    fn diverging_published_copies_in_a_sharded_snapshot_are_rejected() {
        // A sharded snapshot stores the published answer both in the
        // envelope and inside the stream state (the latter serves
        // in-process ShardedStream restores). The two are written from one
        // slot under one lock hold; a snapshot where they disagree was
        // tampered with or corrupted and must not restore as either copy.
        let engine = Engine::new(&spec(BackendKind::ShardedCc)).unwrap();
        feed(&engine, 150, 0.0);
        engine
            .query_in(DEFAULT_NAMESPACE, Freshness::Strict)
            .unwrap();
        let json = engine.snapshot_json_in(DEFAULT_NAMESPACE).unwrap();

        // The epoch appears exactly twice (envelope + stream state); bump
        // only the first (envelope-level) occurrence.
        assert_eq!(json.matches("\"epoch\":1").count(), 2, "fixture drifted");
        let tampered = json.replacen("\"epoch\":1", "\"epoch\":9", 1);
        assert!(Engine::from_snapshot_json(&tampered).is_err());

        // Untampered, the same snapshot restores fine.
        assert!(Engine::from_snapshot_json(&json).is_ok());
    }

    #[test]
    fn snapshot_envelope_is_versioned_and_validated() {
        let engine = Engine::new(&spec(BackendKind::Cc)).unwrap();
        feed(&engine, 30, 0.0);
        let json = engine.snapshot_json_in(DEFAULT_NAMESPACE).unwrap();
        assert!(json.contains("\"snapshot_version\":4"));
        assert!(json.contains("\"namespace\":\"default\""));
        assert!(json.contains("\"backend\":\"cc\""));

        assert!(Engine::from_snapshot_json("not json").is_err());
        let wrong_version = json.replace("\"snapshot_version\":4", "\"snapshot_version\":99");
        assert!(Engine::from_snapshot_json(&wrong_version).is_err());
        let wrong_backend = json.replace("\"backend\":\"cc\"", "\"backend\":\"nope\"");
        assert!(Engine::from_snapshot_json(&wrong_backend).is_err());
        // A namespace that could escape the snapshot directory must never
        // come back from disk either.
        let escaping = json.replace("\"namespace\":\"default\"", "\"namespace\":\"../x\"");
        assert!(Engine::from_snapshot_json(&escaping).is_err());
    }

    #[test]
    fn tampered_snapshots_are_rejected_not_restored() {
        let engine = Engine::new(&spec(BackendKind::Cc)).unwrap();
        feed(&engine, 30, 0.0);
        let json = engine.snapshot_json_in(DEFAULT_NAMESPACE).unwrap();

        // A hand-edited bucket size of 0 would make the partial bucket
        // never flush; both the buffer's own deserializer and the config
        // validation must refuse it.
        let zero_bucket = json.replace("\"bucket_size\":20", "\"bucket_size\":0");
        assert_ne!(zero_bucket, json, "fixture drifted: bucket_size not found");
        assert!(Engine::from_snapshot_json(&zero_bucket).is_err());

        // Same for a config-level k = 0.
        let zero_k = json.replace("\"k\":2", "\"k\":0");
        assert_ne!(zero_k, json, "fixture drifted: k not found");
        assert!(Engine::from_snapshot_json(&zero_k).is_err());

        // A stored coreset one coordinate short, or with a `null` (NaN)
        // coordinate, must be refused like a corrupt partial bucket: it
        // would otherwise publish NaN or misaligned centers.
        for kind in [
            BackendKind::ShardedCc,
            BackendKind::Cc,
            BackendKind::Ct,
            BackendKind::Rcc,
        ] {
            let engine = Engine::new(&spec(kind)).unwrap();
            feed(&engine, 130, 0.0);
            engine
                .query_in(DEFAULT_NAMESPACE, Freshness::Strict)
                .unwrap();
            let json = engine.snapshot_json_in(DEFAULT_NAMESPACE).unwrap();
            assert!(Engine::from_snapshot_json(&json).is_ok(), "{kind:?}");
            let short = tamper_first_coreset(&json, |coords| {
                coords.pop();
            });
            assert!(Engine::from_snapshot_json(&short).is_err(), "{kind:?}");
            let nan = tamper_first_coreset(&json, |coords| coords[0] = serde::Value::Null);
            assert!(Engine::from_snapshot_json(&nan).is_err(), "{kind:?}");
        }
    }

    /// Applies `edit` to the coordinate array of the first stored coreset in
    /// a snapshot (see [`tamper_first_points`]).
    fn tamper_first_coreset(json: &str, edit: impl Fn(&mut Vec<serde::Value>)) -> String {
        tamper_first_points(json, |points| {
            let coords = coordinate_array(points).expect("matched as a point block");
            assert!(!coords.is_empty());
            edit(coords);
        })
    }

    /// Applies `edit` to the points of the first stored coreset in a
    /// snapshot, found by structure rather than by key spelling: the first
    /// map under a `points` key that holds `dim`, `weights` and one other,
    /// array-valued entry.
    fn tamper_first_points(json: &str, edit: impl FnOnce(&mut serde::Value)) -> String {
        fn first_points(value: &mut serde::Value) -> Option<&mut serde::Value> {
            match value {
                serde::Value::Map(entries) => entries.iter_mut().find_map(|(key, child)| {
                    if key == "points" {
                        coordinate_array(child).is_some().then_some(child)
                    } else {
                        first_points(child)
                    }
                }),
                serde::Value::Seq(items) => items.iter_mut().find_map(first_points),
                _ => None,
            }
        }
        let mut value: serde::Value = serde_json::from_str(json).unwrap();
        edit(first_points(&mut value).expect("fixture drifted: no stored coreset"));
        serde_json::to_string(&value).unwrap()
    }

    /// The coordinate array of a serialized point block, `None` for any
    /// other value.
    fn coordinate_array(points: &mut serde::Value) -> Option<&mut Vec<serde::Value>> {
        let serde::Value::Map(fields) = points else {
            return None;
        };
        let has = |name: &str| fields.iter().any(|(k, _)| k == name);
        if fields.len() != 3 || !has("dim") || !has("weights") {
            return None;
        }
        fields.iter_mut().find_map(|(k, v)| match v {
            serde::Value::Seq(coords) if k != "weights" => Some(coords),
            _ => None,
        })
    }

    #[test]
    fn stored_coresets_of_another_dimension_are_refused_at_restore() {
        // An empty stored coreset with a huge `dim` passes the block's own
        // shape check (0 × dim = 0 coordinates). Once restored, the next
        // merge sized its union from that `dim` and aborted the process
        // (ct, cc, sharded-cc), or every strict query failed (rcc).
        let hostile: serde::Value =
            serde_json::from_str(r#"{"dim":1099511627776,"coords":[],"weights":[]}"#).unwrap();
        let refused = |text: &str, kind: BackendKind| {
            let err = Engine::from_snapshot_json(text).unwrap_err();
            assert!(
                matches!(
                    err,
                    ClusteringError::InvalidParameter {
                        name: "snapshot",
                        ..
                    }
                ),
                "{kind:?}: {err:?}"
            );
        };
        for kind in [
            BackendKind::ShardedCc,
            BackendKind::Cc,
            BackendKind::Ct,
            BackendKind::Rcc,
        ] {
            let engine = Engine::new(&spec(kind)).unwrap();
            feed(&engine, 130, 0.0);
            engine
                .query_in(DEFAULT_NAMESPACE, Freshness::Strict)
                .unwrap();
            let json = engine.snapshot_json_in(DEFAULT_NAMESPACE).unwrap();
            refused(
                &tamper_first_points(&json, |points| *points = hostile.clone()),
                kind,
            );

            // A stream with no dimension yet may store no coreset. At 160
            // points no buffer holds a partial bucket, so each buffer's
            // dimension can be cleared alone.
            feed(&engine, 30, 0.0);
            let json = engine.snapshot_json_in(DEFAULT_NAMESPACE).unwrap();
            let dimensionless = json.replace(
                "\"dim\":2,\"partial\":null",
                "\"dim\":null,\"partial\":null",
            );
            assert_ne!(dimensionless, json, "fixture drifted: {kind:?}");
            refused(&dimensionless, kind);
            assert!(Engine::from_snapshot_json(&json).is_ok(), "{kind:?}");
        }
    }

    #[test]
    fn time_windows_hold_only_live_arrivals_after_a_restore_or_a_recovery() {
        // Restored and recovered points carry no arrival stamps: they are
        // older than any time window, so the window starts empty and
        // counts live ingests only.
        let window = Window::Secs(60.0);
        let check = |engine: &Engine, kind: BackendKind| {
            let (stats, info) = engine.stats_window_in(DEFAULT_NAMESPACE, window).unwrap();
            assert_eq!(stats.points_seen, 130, "{kind:?}");
            assert_eq!((info.last_points, info.covered_points), (0, 0), "{kind:?}");
            let err = engine
                .query_window_in(DEFAULT_NAMESPACE, window)
                .unwrap_err();
            assert!(
                matches!(
                    err,
                    ClusteringError::InvalidParameter { name: "window", .. }
                ),
                "{kind:?}: {err:?}"
            );
            engine.ingest_in(DEFAULT_NAMESPACE, &[1.0, 0.0]).unwrap();
            let (_, info) = engine.stats_window_in(DEFAULT_NAMESPACE, window).unwrap();
            assert_eq!(info.last_points, 1, "{kind:?}");
        };
        for kind in [BackendKind::ShardedCc, BackendKind::Cc] {
            let engine = Engine::new(&spec(kind)).unwrap();
            feed(&engine, 130, 0.0);
            let json = engine.snapshot_json_in(DEFAULT_NAMESPACE).unwrap();
            check(&Engine::from_snapshot_json(&json).unwrap(), kind);

            let dir = temp_dir(&format!("window-{}", kind.tag()));
            std::fs::remove_dir_all(&dir).ok();
            let open = || {
                Engine::new(&spec(kind))
                    .unwrap()
                    .with_wal(WalConfig::new(dir.clone()))
                    .unwrap()
            };
            feed(&open(), 130, 0.0);
            check(&open(), kind);
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn backend_tags_round_trip() {
        for kind in [
            BackendKind::ShardedCc,
            BackendKind::Cc,
            BackendKind::Ct,
            BackendKind::Rcc,
        ] {
            assert_eq!(BackendKind::parse(kind.tag()), Some(kind));
        }
        assert_eq!(BackendKind::parse("SHARDED"), Some(BackendKind::ShardedCc));
        assert_eq!(BackendKind::parse("bogus"), None);
    }

    #[test]
    fn namespaces_are_isolated_streams() {
        let engine = Engine::new(&spec(BackendKind::Cc)).unwrap();
        feed_in(&engine, "a", 100, 0.0);
        feed_in(&engine, "b", 40, 10.0);
        feed(&engine, 10, 0.0);
        assert_eq!(engine.points_seen_in("a").unwrap(), 100);
        assert_eq!(engine.points_seen_in("b").unwrap(), 40);
        assert_eq!(engine.points_seen_in(DEFAULT_NAMESPACE).unwrap(), 10);

        let a = engine.query_in("a", Freshness::Strict).unwrap();
        let b = engine.query_in("b", Freshness::Strict).unwrap();
        assert_eq!(a.points_seen, 100);
        assert_eq!(b.points_seen, 40);
        // Epochs are per tenant, not global.
        assert_eq!(a.epoch, 1);
        assert_eq!(b.epoch, 1);
        assert_eq!(engine.epoch_in(DEFAULT_NAMESPACE).unwrap(), 0);

        // A tenant that was never touched does not exist until touched.
        let mut resident = engine.resident_tenants();
        resident.sort();
        assert_eq!(resident, vec!["a", "b", "default"]);
    }

    #[test]
    fn bad_namespaces_are_rejected_before_touching_anything() {
        let engine = Engine::new(&spec(BackendKind::Cc)).unwrap();
        for bad in ["", ".", "..", "a/b", "a\\b"] {
            let err = engine.ingest_in(bad, &[1.0, 2.0]).unwrap_err();
            assert!(
                matches!(
                    err,
                    ClusteringError::InvalidParameter {
                        name: "namespace",
                        ..
                    }
                ),
                "{bad:?}: {err:?}"
            );
        }
        assert_eq!(engine.resident_tenants().len(), 1);
    }

    #[test]
    fn lru_tenant_is_evicted_and_transparently_restored() {
        let dir = temp_dir("lru");
        let engine = Engine::with_options(&spec(BackendKind::Cc), 2, Some(dir.clone())).unwrap();
        feed_in(&engine, "a", 60, 0.0);
        engine.query_in("a", Freshness::Strict).unwrap();
        // Touch default so `a` is the LRU when `b` arrives.
        let _ = engine.points_seen_in(DEFAULT_NAMESPACE);
        feed_in(&engine, "b", 20, 0.0);

        assert!(engine.is_evicted_to_disk("a"), "a should be paged out");
        assert!(dir.join(evict_file_name("a")).exists());

        // Touching `a` restores it (and pages out the new LRU).
        assert_eq!(engine.points_seen_in("a").unwrap(), 60);
        assert!(!dir.join(evict_file_name("a")).exists());
        // Epoch continuity across the round trip.
        assert_eq!(engine.epoch_in("a").unwrap(), 1);
        assert_eq!(engine.resident_tenants().len(), 2);

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn evict_restore_continue_is_bit_identical() {
        let dir = temp_dir("bitident");
        // Twin A lives in an engine with an aggressive cap; twin B is
        // never evicted. Identical feeds must give identical answers.
        let evicting = Engine::with_options(&spec(BackendKind::Cc), 1, Some(dir.clone())).unwrap();
        let reference = Engine::new(&spec(BackendKind::Cc)).unwrap();
        feed_in(&evicting, "t", 100, 0.0);
        feed_in(&reference, "t", 100, 0.0);
        let a = evicting.query_in("t", Freshness::Strict).unwrap();
        let b = reference.query_in("t", Freshness::Strict).unwrap();
        assert_eq!(a.centers, b.centers);

        // Force `t` out by touching another tenant (cap is 1).
        feed_in(&evicting, "other", 10, 5.0);
        assert!(evicting.is_evicted_to_disk("t"));

        // Continue both twins; the restored one must not diverge.
        feed_in(&evicting, "t", 100, 0.5);
        feed_in(&reference, "t", 100, 0.5);
        let a = evicting.query_in("t", Freshness::Strict).unwrap();
        let b = reference.query_in("t", Freshness::Strict).unwrap();
        assert_eq!(a.centers, b.centers, "evict→restore→continue diverged");
        assert_eq!(a.epoch, b.epoch, "epoch sequence diverged");

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn tenant_cap_without_eviction_dir_is_a_hard_limit() {
        let engine = Engine::with_options(&spec(BackendKind::Cc), 2, None).unwrap();
        feed_in(&engine, "a", 10, 0.0);
        let err = engine.ingest_in("b", &[1.0, 2.0]).unwrap_err();
        assert!(
            matches!(
                err,
                ClusteringError::InvalidParameter {
                    name: "tenant_limit",
                    ..
                }
            ),
            "{err:?}"
        );
        // Existing tenants keep working at the cap.
        engine.ingest_in("a", &[1.0, 2.0]).unwrap();
        engine.ingest_in(DEFAULT_NAMESPACE, &[1.0, 2.0]).unwrap();
    }

    #[test]
    fn configure_creates_and_refuses_duplicates() {
        let engine = Engine::new(&spec(BackendKind::Cc)).unwrap();
        let custom = EngineSpec {
            stream: StreamConfig::new(3)
                .with_bucket_size(30)
                .with_kmeans_runs(1)
                .with_lloyd_iterations(2),
            ..spec(BackendKind::Cc)
        };
        let (kind, shards) = engine.configure("big", &custom).unwrap();
        assert_eq!(kind, BackendKind::Cc);
        assert_eq!(shards, 1);
        feed_in(&engine, "big", 200, 0.0);
        let q = engine.query_in("big", Freshness::Strict).unwrap();
        assert_eq!(q.centers.len(), 3, "configured k must win");

        // Resident duplicate (including the eagerly created default).
        for dup in ["big", DEFAULT_NAMESPACE] {
            let err = engine.configure(dup, &custom).unwrap_err();
            assert!(
                matches!(
                    err,
                    ClusteringError::InvalidParameter {
                        name: "tenant_exists",
                        ..
                    }
                ),
                "{dup}: {err:?}"
            );
        }
        // An evicted (on-disk) tenant is also a duplicate.
        let dir = temp_dir("cfgdup");
        let capped = Engine::with_options(&spec(BackendKind::Cc), 1, Some(dir.clone())).unwrap();
        feed_in(&capped, "t", 10, 0.0);
        let _ = capped.points_seen_in(DEFAULT_NAMESPACE); // make default the MRU
        assert!(capped.is_evicted_to_disk("t"));
        let err = capped.configure("t", &custom).unwrap_err();
        assert!(
            matches!(
                err,
                ClusteringError::InvalidParameter {
                    name: "tenant_exists",
                    ..
                }
            ),
            "{err:?}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn evicted_sharded_tenant_round_trips_with_epoch() {
        let dir = temp_dir("sharded-evict");
        let engine =
            Engine::with_options(&spec(BackendKind::ShardedCc), 1, Some(dir.clone())).unwrap();
        feed_in(&engine, "s", 120, 0.0);
        let before = engine.query_in("s", Freshness::Strict).unwrap();
        feed_in(&engine, "other", 8, 0.0); // evicts `s`
        assert!(engine.is_evicted_to_disk("s"));

        // Cached read on the restored tenant resumes at the saved epoch.
        let cached = engine.query_in("s", Freshness::Cached).unwrap();
        assert_eq!(cached.as_ref(), before.as_ref());
        let strict = engine.query_in("s", Freshness::Strict).unwrap();
        assert_eq!(strict.epoch, before.epoch + 1);

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn wal_recovery_matches_uninterrupted_for_every_backend() {
        for kind in [
            BackendKind::ShardedCc,
            BackendKind::Cc,
            BackendKind::Ct,
            BackendKind::Rcc,
        ] {
            let dir = temp_dir(&format!("wal-{}", kind.tag()));
            std::fs::remove_dir_all(&dir).ok();
            let reference = Engine::new(&spec(kind)).unwrap();
            let durable = Engine::new(&spec(kind))
                .unwrap()
                .with_wal(WalConfig::new(dir.clone()))
                .unwrap();
            // Interleave ingest with strict reads so the recovered run
            // must replay query/stats markers to reproduce RNG positions
            // and the epoch counter.
            feed(&reference, 120, 0.0);
            feed(&durable, 120, 0.0);
            reference
                .query_in(DEFAULT_NAMESPACE, Freshness::Strict)
                .unwrap();
            durable
                .query_in(DEFAULT_NAMESPACE, Freshness::Strict)
                .unwrap();
            reference
                .stats_in(DEFAULT_NAMESPACE, Freshness::Strict)
                .unwrap();
            durable
                .stats_in(DEFAULT_NAMESPACE, Freshness::Strict)
                .unwrap();
            feed(&reference, 80, 0.5);
            feed(&durable, 80, 0.5);
            // Drop without checkpointing: recovery replays the tail.
            drop(durable);

            let recovered = Engine::new(&spec(kind))
                .unwrap()
                .with_wal(WalConfig::new(dir.clone()))
                .unwrap();
            assert_eq!(
                recovered.points_seen_in(DEFAULT_NAMESPACE).unwrap(),
                200,
                "{kind:?}"
            );
            assert_eq!(
                recovered.epoch_in(DEFAULT_NAMESPACE).unwrap(),
                1,
                "{kind:?} recovered epoch"
            );
            let a = reference
                .query_in(DEFAULT_NAMESPACE, Freshness::Strict)
                .unwrap();
            let b = recovered
                .query_in(DEFAULT_NAMESPACE, Freshness::Strict)
                .unwrap();
            assert_eq!(a.centers, b.centers, "{kind:?} recovery diverged");
            assert_eq!(a.epoch, b.epoch, "{kind:?} epoch sequence diverged");

            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn a_json_checkpoint_from_an_earlier_build_is_refused_by_name() {
        let dir = temp_dir("wal-json-ckpt");
        std::fs::remove_dir_all(&dir).ok();
        // Earlier builds checkpointed the JSON envelope itself.
        let json = {
            let engine = Engine::new(&spec(BackendKind::Cc)).unwrap();
            feed_in(&engine, "old", 30, 0.0);
            engine.snapshot_json_in("old").unwrap()
        };
        let config = WalConfig::new(dir.clone());
        let mut wal = Wal::open(config.tenant_dir("old"), config.options())
            .unwrap()
            .wal;
        wal.checkpoint(json.as_bytes()).unwrap();
        drop(wal);

        let err = Engine::new(&spec(BackendKind::Cc))
            .unwrap()
            .with_wal(config.clone())
            .unwrap_err();
        match &err {
            ClusteringError::InvalidParameter {
                name: "wal_corrupt",
                message,
            } => {
                assert!(message.contains("tenant `old`"), "{message}");
                assert!(message.contains("JSON"), "{message}");
            }
            other => panic!("expected wal_corrupt, got {other:?}"),
        }
        // Refused, not replaced: no fresh tenant overwrote the log.
        let recovered = Wal::open(config.tenant_dir("old"), config.options()).unwrap();
        assert_eq!(
            recovered.checkpoint.map(|(_, b)| b),
            Some(json.into_bytes())
        );

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_checkpoint_of_an_older_snapshot_version_is_refused_by_name() {
        let dir = temp_dir("wal-v3-ckpt");
        std::fs::remove_dir_all(&dir).ok();
        // A binary checkpoint whose envelope says version 3, the last
        // version that spelled coreset points `data`.
        let blob = {
            let engine = Engine::new(&spec(BackendKind::Cc)).unwrap();
            feed_in(&engine, "old", 30, 0.0);
            let mut file: SnapshotFile =
                serde_json::from_str(&engine.snapshot_json_in("old").unwrap()).unwrap();
            file.snapshot_version = 3;
            encode_state(&file.to_value())
        };
        let config = WalConfig::new(dir.clone());
        let mut wal = Wal::open(config.tenant_dir("old"), config.options())
            .unwrap()
            .wal;
        wal.checkpoint(&blob).unwrap();
        drop(wal);

        let err = Engine::new(&spec(BackendKind::Cc))
            .unwrap()
            .with_wal(config.clone())
            .unwrap_err();
        match &err {
            ClusteringError::InvalidParameter {
                name: "wal_corrupt",
                message,
            } => {
                assert!(message.contains("tenant `old`"), "{message}");
                assert!(message.contains("version 3"), "{message}");
            }
            other => panic!("expected wal_corrupt, got {other:?}"),
        }
        // Refused, not replaced: no fresh tenant overwrote the log.
        let recovered = Wal::open(config.tenant_dir("old"), config.options()).unwrap();
        assert_eq!(recovered.checkpoint.map(|(_, b)| b), Some(blob));

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn wal_checkpoint_compaction_preserves_bit_identity() {
        let dir = temp_dir("wal-ckpt");
        std::fs::remove_dir_all(&dir).ok();
        // A tiny checkpoint threshold forces compaction every few appends;
        // restart must still continue bit-identically.
        let config = WalConfig::new(dir.clone()).with_checkpoint_bytes(512);
        let reference = Engine::new(&spec(BackendKind::Cc)).unwrap();
        let durable = Engine::new(&spec(BackendKind::Cc))
            .unwrap()
            .with_wal(config.clone())
            .unwrap();
        feed(&reference, 150, 0.0);
        feed(&durable, 150, 0.0);
        reference
            .query_in(DEFAULT_NAMESPACE, Freshness::Strict)
            .unwrap();
        durable
            .query_in(DEFAULT_NAMESPACE, Freshness::Strict)
            .unwrap();
        drop(durable);

        let recovered = Engine::new(&spec(BackendKind::Cc))
            .unwrap()
            .with_wal(config)
            .unwrap();
        feed(&reference, 150, 0.5);
        feed(&recovered, 150, 0.5);
        let a = reference
            .query_in(DEFAULT_NAMESPACE, Freshness::Strict)
            .unwrap();
        let b = recovered
            .query_in(DEFAULT_NAMESPACE, Freshness::Strict)
            .unwrap();
        assert_eq!(a.centers, b.centers, "compacted recovery diverged");
        assert_eq!(a.epoch, b.epoch);

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn wal_supersedes_eviction_files() {
        let dir = temp_dir("wal-evict");
        let evict = temp_dir("wal-evict-files");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::remove_dir_all(&evict).ok();
        std::fs::create_dir_all(&evict).unwrap();
        let engine = Engine::with_options(&spec(BackendKind::Cc), 2, Some(evict.clone()))
            .unwrap()
            .with_wal(WalConfig::new(dir.clone()))
            .unwrap();
        feed_in(&engine, "a", 60, 0.0);
        engine.query_in("a", Freshness::Strict).unwrap();
        let _ = engine.points_seen_in(DEFAULT_NAMESPACE); // make default the MRU
        feed_in(&engine, "b", 20, 0.0); // pages `a` out

        assert!(engine.is_evicted_to_disk("a"));
        // Page-out went through the log, not an eviction file.
        assert!(!evict.join(evict_file_name("a")).exists());
        assert!(dir.join("a").exists());

        // Restore continues the stream with its epoch.
        assert_eq!(engine.points_seen_in("a").unwrap(), 60);
        assert_eq!(engine.epoch_in("a").unwrap(), 1);

        std::fs::remove_dir_all(&dir).ok();
        std::fs::remove_dir_all(&evict).ok();
    }

    #[test]
    fn idle_tenants_are_paged_out_and_restored() {
        let dir = temp_dir("wal-idle");
        std::fs::remove_dir_all(&dir).ok();
        let engine = Engine::new(&spec(BackendKind::Cc))
            .unwrap()
            .with_wal(WalConfig::new(dir.clone()))
            .unwrap();
        feed_in(&engine, "busy", 40, 0.0);
        feed_in(&engine, "quiet", 40, 0.0);
        engine.query_in("quiet", Freshness::Strict).unwrap();

        // Pin the clock: `quiet` (and `default`) idle past the limit,
        // `busy` stays fresh.
        let now = engine.now_ms() + 10_000;
        engine
            .tenant("busy")
            .unwrap()
            .last_touch_ms
            .store(now, Ordering::Relaxed);
        let mut evicted = engine.evict_idle_at(Duration::from_secs(5), now).unwrap();
        evicted.sort();
        assert_eq!(evicted, vec!["default", "quiet"]);
        assert!(engine.is_evicted_to_disk("quiet"));
        assert!(!engine.is_evicted_to_disk("busy"));

        // Nothing left over the limit: second sweep is a no-op.
        assert!(engine
            .evict_idle_at(Duration::from_secs(5), now)
            .unwrap()
            .is_empty());

        // The paged-out tenant restores bit-identically on next touch.
        assert_eq!(engine.points_seen_in("quiet").unwrap(), 40);
        assert_eq!(engine.epoch_in("quiet").unwrap(), 1);

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn evict_idle_without_paging_store_is_a_no_op() {
        let engine = Engine::new(&spec(BackendKind::Cc)).unwrap();
        feed_in(&engine, "a", 10, 0.0);
        // No WAL and no eviction directory: nothing to page to, so nothing
        // is dropped (dropping would lose state).
        let evicted = engine.evict_idle_at(Duration::ZERO, u64::MAX).unwrap();
        assert!(evicted.is_empty());
        assert_eq!(engine.points_seen_in("a").unwrap(), 10);
    }

    #[test]
    fn configure_refuses_a_paged_out_wal_tenant() {
        let dir = temp_dir("wal-cfgdup");
        std::fs::remove_dir_all(&dir).ok();
        let engine = Engine::new(&spec(BackendKind::Cc))
            .unwrap()
            .with_wal(WalConfig::new(dir.clone()))
            .unwrap();
        feed_in(&engine, "t", 10, 0.0);
        let now = engine.now_ms() + 10_000;
        engine.evict_idle_at(Duration::from_secs(5), now).unwrap();
        assert!(engine.is_evicted_to_disk("t"));
        let err = engine.configure("t", &spec(BackendKind::Cc)).unwrap_err();
        assert!(
            matches!(
                err,
                ClusteringError::InvalidParameter {
                    name: "tenant_exists",
                    ..
                }
            ),
            "{err:?}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn replica_snapshot_and_tail_reproduce_the_primary() {
        let dir = temp_dir("wal-replica");
        std::fs::remove_dir_all(&dir).ok();
        // Sync every append: `wal_tail_in` serves only *durable* records
        // (a follower must never get ahead of what the primary would
        // recover to), so the test pins durability to the append.
        let primary = Engine::new(&spec(BackendKind::Cc))
            .unwrap()
            .with_wal(WalConfig::new(dir.clone()).with_fsync_ms(0))
            .unwrap();
        feed(&primary, 100, 0.0);
        primary
            .query_in(DEFAULT_NAMESPACE, Freshness::Strict)
            .unwrap();

        // Follower bootstrap: snapshot at seq, then tail from seq + 1.
        let (seq, epoch, snapshot) = primary.replica_snapshot_in(DEFAULT_NAMESPACE).unwrap();
        assert_eq!(epoch, 1);
        let follower = Engine::from_snapshot_json(&snapshot).unwrap();
        assert_eq!(follower.epoch_in(DEFAULT_NAMESPACE).unwrap(), 1);

        feed(&primary, 50, 0.5);
        primary
            .query_in(DEFAULT_NAMESPACE, Freshness::Strict)
            .unwrap();
        let (records, last_seq) = primary.wal_tail_in(DEFAULT_NAMESPACE, seq + 1).unwrap();
        let records = records.expect("tail not compacted");
        assert_eq!(records.last().map(|(s, _)| *s), Some(last_seq));
        for (_, payload) in &records {
            let record = decode_replication_record(payload).unwrap();
            follower
                .apply_replication_record_in(DEFAULT_NAMESPACE, &record)
                .unwrap();
        }

        // The follower applied the primary's exact input stream through
        // the same code paths: published answers are bit-identical.
        let a = primary.published_in(DEFAULT_NAMESPACE).unwrap().unwrap();
        let b = follower.published_in(DEFAULT_NAMESPACE).unwrap().unwrap();
        assert_eq!(a.as_ref(), b.as_ref(), "follower diverged from primary");

        // A compacted position forces a resync.
        primary.checkpoint_now_in(DEFAULT_NAMESPACE).unwrap();
        let (records, _) = primary.wal_tail_in(DEFAULT_NAMESPACE, seq + 1).unwrap();
        assert!(records.is_none(), "compacted tail must demand a resync");

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn wal_accessors_require_a_wal() {
        let engine = Engine::new(&spec(BackendKind::Cc)).unwrap();
        assert!(!engine.wal_enabled());
        assert!(engine.replica_snapshot_in(DEFAULT_NAMESPACE).is_err());
        assert!(engine.wal_tail_in(DEFAULT_NAMESPACE, 1).is_err());
        assert!(engine.wal_durable_seq_in(DEFAULT_NAMESPACE).is_err());
        assert!(engine.checkpoint_now_in(DEFAULT_NAMESPACE).is_err());
        // The sync tick is harmlessly empty without logs.
        engine.wal_sync_all().unwrap();
    }

    #[test]
    fn rejected_writes_are_not_logged() {
        // Check, then log, then apply: on every backend, no refused request
        // appends a record.
        for kind in [
            BackendKind::ShardedCc,
            BackendKind::Cc,
            BackendKind::Ct,
            BackendKind::Rcc,
        ] {
            let dir = temp_dir(&format!("wal-reject-{}", kind.tag()));
            std::fs::remove_dir_all(&dir).ok();
            let open = || {
                Engine::new(&spec(kind))
                    .unwrap()
                    .with_wal(WalConfig::new(dir.clone()))
                    .unwrap()
            };
            let unlogged = |engine: &Engine, refused: &dyn Fn(&Engine) -> ClusteringError| {
                let last_seq = || engine.wal_tail_in(DEFAULT_NAMESPACE, 1).unwrap().1;
                let before = last_seq();
                let err = refused(engine);
                assert_eq!(last_seq(), before, "{kind:?}: {err:?} was logged");
                err
            };

            // Strict queries on an empty stream, whole or windowed, answer
            // EmptyInput.
            let engine = open();
            for window in [None, Some(Window::Points(5))] {
                let err = unlogged(&engine, &|e| {
                    match window {
                        None => e.query_in(DEFAULT_NAMESPACE, Freshness::Strict),
                        Some(w) => e.query_window_in(DEFAULT_NAMESPACE, w),
                    }
                    .unwrap_err()
                });
                assert!(matches!(err, ClusteringError::EmptyInput), "{kind:?}");
            }

            // Every rejected ingest shape: empty, wrong dimension,
            // non-finite, and a batch poisoned mid-way.
            engine.ingest_in(DEFAULT_NAMESPACE, &[1.0, 2.0]).unwrap();
            let bad_points: [&[f64]; 3] = [&[], &[1.0], &[f64::NAN, 0.0]];
            for point in bad_points {
                unlogged(&engine, &|e| {
                    e.ingest_in(DEFAULT_NAMESPACE, point).unwrap_err()
                });
            }
            unlogged(&engine, &|e| {
                e.ingest_batch_in(DEFAULT_NAMESPACE, &[vec![3.0, 4.0], vec![5.0]])
                    .unwrap_err()
            });
            let (_, last_seq) = engine.wal_tail_in(DEFAULT_NAMESPACE, 1).unwrap();
            assert_eq!(last_seq, 1, "{kind:?}: only the accepted ingest is logged");
            drop(engine);

            // A time window over a freshly recovered tenant holds no point.
            let err = unlogged(&open(), &|e| {
                e.query_window_in(DEFAULT_NAMESPACE, Window::Secs(60.0))
                    .unwrap_err()
            });
            assert!(
                matches!(
                    err,
                    ClusteringError::InvalidParameter { name: "window", .. }
                ),
                "{kind:?}: {err:?}"
            );

            std::fs::remove_dir_all(&dir).ok();
        }
    }
}
