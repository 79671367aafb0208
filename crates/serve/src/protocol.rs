//! The newline-delimited JSON wire protocol.
//!
//! Every request and every response is one JSON document on one line,
//! terminated by `\n`. Requests are externally tagged by their variant name
//! (the shape the vendored serde derive produces), e.g.:
//!
//! ```text
//! {"Ingest":{"point":[1.0,2.0]}}
//! {"IngestBatch":{"points":[[1.0,2.0],[3.0,4.0]]}}
//! {"Query":{}}
//! {"Query":{"freshness":"cached","namespace":"alice"}}
//! {"Stats":{}}
//! {"Configure":{"namespace":"alice","k":4,"backend":"cc"}}
//! {"Snapshot":{"file":"state.json"}}
//! {"Shutdown":{}}
//! ```
//!
//! Responses mirror that shape (`Ingested`, `Centers`, `Stats`,
//! `Configured`, `Snapshotted`, `Bye`, `Error`). A malformed or oversized
//! line is answered with a typed [`Response::Error`] instead of dropping the
//! connection, so a client bug never takes down its session, let alone the
//! engine.
//!
//! `Query` and `Stats` accept an optional [`Freshness`] field selecting the
//! read path: `"strict"` (the default, and the behaviour when the field is
//! omitted — so pre-freshness clients keep working unchanged) drains
//! in-flight ingestion and recomputes, `"cached"` answers from the last
//! published epoch without taking the ingest lock.
//!
//! Every data request accepts an optional `namespace` field selecting the
//! tenant stream it applies to. An omitted (or `null`) namespace means
//! [`DEFAULT_NAMESPACE`] — byte-for-byte the pre-tenancy wire behaviour, so
//! single-tenant clients keep working unchanged. Namespaces are validated
//! with the same path-escaping rule as snapshot file names
//! ([`validate_namespace`]); a failing namespace is answered with
//! [`ErrorCode::BadNamespace`] before it can touch the engine (or name a
//! file outside the snapshot directory on eviction).
//!
//! The normative wire specification — every variant, every error code, the
//! request limits and one worked example per exchange — lives in
//! [`docs/PROTOCOL.md`](https://github.com/paper-repo-growth/streaming-kmeans/blob/main/docs/PROTOCOL.md);
//! this module is its implementation.

use serde::{Deserialize, Serialize};
use skm_clustering::error::ClusteringError;
use skm_stream::{QueryStats, StreamStats, WindowInfo};

/// Maximum points accepted in one `IngestBatch` request. Larger batches are
/// rejected with [`ErrorCode::BatchTooLarge`] before touching the engine,
/// bounding per-request memory; clients should split their load instead.
pub const MAX_BATCH_POINTS: usize = 4096;

/// Maximum `k` a `Configure` request may ask for. Each tenant reserves a
/// whole base bucket of `20·k` points on its first ingest, so `k` bounds
/// per-tenant memory; the paper's experiments stay at `k <= 50`.
pub const MAX_K: usize = 1024;

/// Maximum accepted request-line length in bytes. A line that reaches this
/// limit without a terminating `\n` is answered with
/// [`ErrorCode::LineTooLong`] and the connection is closed (there is no way
/// to resynchronize mid-line).
pub const MAX_LINE_BYTES: u64 = 8 * 1024 * 1024;

/// The tenant a request without a `namespace` field applies to. Requests
/// that spell it out explicitly are equivalent to omitting it.
pub const DEFAULT_NAMESPACE: &str = "default";

/// The protocol revision the server speaks, reported in
/// [`Response::Hello`]. Revision 1.3 added the `Hello` codec handshake and
/// the length-prefixed binary framing; revision 1.4 added the `Replicate`
/// follower stream and the durability error codes; revision 1.5 added the
/// optional time-scoped `window` field on `Query`/`Stats` (see
/// `docs/PROTOCOL.md`).
pub const PROTOCOL_REVISION: &str = "1.5";

/// Maximum accepted `last_points` window size: `2^53`, the largest integer
/// range JSON numbers carry exactly through every double-precision parser.
/// Larger windows are answered with [`ErrorCode::BadWindow`] (a window that
/// big means the whole stream anyway — omit the field instead).
pub const MAX_WINDOW_POINTS: u64 = 1 << 53;

/// Maximum accepted `last_secs` window: about 31,000 years. Bounds the
/// milliseconds arithmetic the server resolves the window with, far above
/// any meaningful retention.
pub const MAX_WINDOW_SECS: f64 = 1e12;

/// Maximum accepted namespace length in bytes (long names make poor file
/// names, and eviction persists one file per tenant).
pub const MAX_NAMESPACE_BYTES: usize = 128;

/// Is `name` safe to use as a bare file name inside a server-owned
/// directory? Shared by snapshot file names and tenant namespaces: no
/// separators, no parent references, no NUL, non-empty.
#[must_use]
pub fn is_bare_name(name: &str) -> bool {
    !name.is_empty()
        && name != "."
        && name != ".."
        && !name.contains('/')
        && !name.contains('\\')
        && !name.contains('\0')
}

/// Validates a tenant namespace: the same path-escaping rule as snapshot
/// file names ([`is_bare_name`]) plus a length cap, so a tenant id can
/// never write outside the snapshot directory when it is evicted to disk.
///
/// # Errors
/// Returns a human-readable description of the violated constraint (the
/// server wraps it in [`ErrorCode::BadNamespace`]).
pub fn validate_namespace(namespace: &str) -> std::result::Result<(), String> {
    if !is_bare_name(namespace) {
        return Err(format!(
            "namespace `{namespace}` must be non-empty and must not contain \
             path separators, NUL, or be `.`/`..`"
        ));
    }
    if namespace.len() > MAX_NAMESPACE_BYTES {
        return Err(format!(
            "namespace of {} bytes exceeds the limit of {MAX_NAMESPACE_BYTES}",
            namespace.len()
        ));
    }
    Ok(())
}

/// Which read path a `Query` or `Stats` request takes.
///
/// On the wire this is the optional `freshness` field, spelled `"strict"`
/// or `"cached"` (case-insensitive); an omitted field means
/// [`Freshness::Strict`], so clients written before the field existed keep
/// their exact pre-freshness semantics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Freshness {
    /// Drain in-flight ingestion and recompute the answer under the engine
    /// lock — linearizable with respect to every previously acknowledged
    /// ingest, and bit-identical at a fixed `(seed, shards, batch)` to the
    /// pre-freshness query path.
    #[default]
    Strict,
    /// Answer immediately from the last published epoch without taking the
    /// ingest lock. Stale by up to the time since the last strict
    /// query/publish, but always internally consistent (epoch, centers,
    /// cost and `points_seen` come from one immutable published value).
    Cached,
}

impl Freshness {
    /// The wire spelling (`"strict"` / `"cached"`).
    #[must_use]
    pub fn as_str(&self) -> &'static str {
        match self {
            Freshness::Strict => "strict",
            Freshness::Cached => "cached",
        }
    }

    /// Parses the wire spelling (case-insensitive).
    #[must_use]
    pub fn parse(tag: &str) -> Option<Self> {
        match tag.to_ascii_lowercase().as_str() {
            "strict" => Some(Freshness::Strict),
            "cached" => Some(Freshness::Cached),
            _ => None,
        }
    }
}

impl serde::Serialize for Freshness {
    fn to_value(&self) -> serde::Value {
        serde::Value::Str(self.as_str().to_string())
    }
}

impl serde::Deserialize for Freshness {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        match value {
            serde::Value::Str(s) => Self::parse(s).ok_or_else(|| {
                serde::Error::custom(format!(
                    "unknown freshness `{s}` (expected `strict` or `cached`)"
                ))
            }),
            _ => Err(serde::Error::custom("expected string for freshness")),
        }
    }
}

/// The optional `window` field of `Query`/`Stats`, as it arrives on the
/// wire (revision 1.5): exactly one of `last_points` (a count of most
/// recent stream points) or `last_secs` (a duration looking back from now).
///
/// This is the *carrier* — it admits any numeric values so that hostile
/// ones (zero, negative, astronomically large) parse successfully and are
/// rejected by [`WindowSpec::validate`] with the typed
/// [`ErrorCode::BadWindow`] instead of a generic parse failure. Fields of
/// the wrong *type* (a string where a number belongs) are malformed
/// requests, as everywhere else in the protocol.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct WindowSpec {
    /// Window over the most recent N stream points.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub last_points: Option<i128>,
    /// Window over the points that arrived in the last T seconds.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub last_secs: Option<f64>,
}

/// A validated window selector (the output of [`WindowSpec::validate`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Window {
    /// The most recent `N` stream points, `1..=`[`MAX_WINDOW_POINTS`].
    Points(u64),
    /// The points that arrived within the last `T` seconds — finite,
    /// positive, at most [`MAX_WINDOW_SECS`]. The server resolves this to a
    /// point count against the tenant's arrival log *before* logging or
    /// executing anything, so replay never consults a clock.
    Secs(f64),
}

impl WindowSpec {
    /// A points window (constructor for clients and tests).
    #[must_use]
    pub fn points(n: u64) -> Self {
        Self {
            last_points: Some(i128::from(n)),
            last_secs: None,
        }
    }

    /// A seconds window (constructor for clients and tests).
    #[must_use]
    pub fn secs(t: f64) -> Self {
        Self {
            last_points: None,
            last_secs: Some(t),
        }
    }

    /// Checks the carried values and produces the validated [`Window`].
    ///
    /// # Errors
    /// Returns a human-readable description of the violated constraint (the
    /// server wraps it in [`ErrorCode::BadWindow`]): both or neither field
    /// present, a non-positive or over-limit point count, or a
    /// non-positive, non-finite or over-limit duration.
    pub fn validate(&self) -> std::result::Result<Window, String> {
        match (self.last_points, self.last_secs) {
            (Some(_), Some(_)) => {
                Err("window must specify last_points or last_secs, not both".to_string())
            }
            (None, None) => Err("window must specify last_points or last_secs".to_string()),
            (Some(n), None) => {
                if n <= 0 {
                    return Err(format!("window last_points must be positive, got {n}"));
                }
                if n > i128::from(MAX_WINDOW_POINTS) {
                    return Err(format!(
                        "window last_points {n} exceeds the limit of {MAX_WINDOW_POINTS}"
                    ));
                }
                // lint:allow(panic-freedom) 0 < n <= 2^53 fits u64
                Ok(Window::Points(u64::try_from(n).expect("bounded above")))
            }
            (None, Some(t)) => {
                if !t.is_finite() || t <= 0.0 {
                    return Err(format!(
                        "window last_secs must be positive and finite, got {t}"
                    ));
                }
                if t > MAX_WINDOW_SECS {
                    return Err(format!(
                        "window last_secs {t} exceeds the limit of {MAX_WINDOW_SECS}"
                    ));
                }
                Ok(Window::Secs(t))
            }
        }
    }
}

/// One logged state mutation of a tenant stream: the unit of write-ahead
/// logging and of primary→follower replication.
///
/// The WAL and the `Replicate` stream carry the *inputs* of the stream, not
/// its outputs: a follower (or crash recovery) re-executes each record
/// through the same engine code, which reproduces centers, RNG state and
/// publish epochs bit-identically without ever shipping centers. Strict
/// queries and strict stats are logged as marker records because they
/// mutate tenant state (they drain ingest buffers, consume the coordinator
/// RNG and publish a fresh epoch); cached reads mutate nothing and are not
/// logged.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ReplicationRecord {
    /// One ingested point (an accepted `Ingest` request).
    Ingest {
        /// The point's coordinates.
        point: Vec<f64>,
    },
    /// One accepted atomic batch (an accepted `IngestBatch` request).
    IngestBatch {
        /// The batch's points.
        points: Vec<Vec<f64>>,
    },
    /// A strict query was executed (publishes an epoch, consumes RNG).
    Query {},
    /// Strict stats were collected (drains ingest buffers). Windowed
    /// strict stats log this same marker: their coverage probe is pure
    /// span arithmetic, so draining is their only state effect.
    Stats {},
    /// A strict *windowed* query was executed (publishes an epoch,
    /// consumes RNG — over the summary suffix covering the window). The
    /// logged count is always in points: `last_secs` windows are resolved
    /// against the tenant's arrival log *before* logging, so replaying
    /// this record never consults a clock.
    QueryWindow {
        /// The resolved window, in most-recent stream points.
        last_points: u64,
    },
}

/// Per-tenant engine settings carried by [`Request::Configure`]. Every
/// field is optional; an omitted field keeps the server's default for that
/// setting.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TenantConfig {
    /// Number of cluster centers `k` (derived settings such as the bucket
    /// size follow the paper defaults for this `k`).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub k: Option<usize>,
    /// Backend tag: `sharded-cc` (default), `cc`, `ct` or `rcc`.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub backend: Option<String>,
    /// Shard worker count (sharded backend only).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub shards: Option<usize>,
    /// Points buffered per shard before a batch ships (sharded backend).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub batch: Option<usize>,
    /// Master RNG seed for this tenant.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub seed: Option<u64>,
}

/// A client request (one frame: a JSON line, or a length-prefixed binary
/// message after a binary handshake).
///
/// On the wire every variant is externally tagged and its fields are
/// written in declaration order. Optional fields are left out when absent,
/// and an omitted field reads the same as an explicit `null`, so a request
/// that opts into no newer feature is byte-for-byte its oldest wire shape.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Request {
    /// Negotiate the connection codec. Only valid as the **first** frame on
    /// a connection, always sent in JSON; the connection switches to the
    /// requested codec after the server's [`Response::Hello`]. A connection
    /// that never sends `Hello` stays newline-JSON — the complete pre-1.3
    /// wire behaviour. An unknown codec (or a late `Hello`) is answered
    /// with [`ErrorCode::BadCodec`] and the connection stays on its current
    /// codec.
    Hello {
        /// Requested codec: `"json"` or `"binary"`.
        codec: String,
    },
    /// Ingest a single point.
    Ingest {
        /// The point's coordinates; must match the stream dimension.
        point: Vec<f64>,
        /// Tenant stream; `None` means [`DEFAULT_NAMESPACE`].
        #[serde(default, skip_serializing_if = "Option::is_none")]
        namespace: Option<String>,
    },
    /// Ingest a batch of points atomically: either every point is accepted
    /// or none is (the whole batch is validated before any point is fed to
    /// the engine).
    IngestBatch {
        /// The points, all of the stream dimension, at most
        /// [`MAX_BATCH_POINTS`] of them.
        points: Vec<Vec<f64>>,
        /// Tenant stream; `None` means [`DEFAULT_NAMESPACE`].
        #[serde(default, skip_serializing_if = "Option::is_none")]
        namespace: Option<String>,
    },
    /// Ask for the current k cluster centers.
    Query {
        /// Read path: strict (default) or cached.
        #[serde(default)]
        freshness: Freshness,
        /// Tenant stream; `None` means [`DEFAULT_NAMESPACE`].
        #[serde(default, skip_serializing_if = "Option::is_none")]
        namespace: Option<String>,
        /// Time-scoped window (revision 1.5); `None` means the whole
        /// stream — byte-for-byte the pre-1.5 wire shape and semantics.
        #[serde(default, skip_serializing_if = "Option::is_none")]
        window: Option<WindowSpec>,
    },
    /// Ask for ingestion statistics.
    Stats {
        /// Read path: strict (default) or cached.
        #[serde(default)]
        freshness: Freshness,
        /// Tenant stream; `None` means [`DEFAULT_NAMESPACE`].
        #[serde(default, skip_serializing_if = "Option::is_none")]
        namespace: Option<String>,
        /// Time-scoped window (revision 1.5): reports how many points the
        /// stored summaries would cover for that window. `None` means the
        /// whole stream — the pre-1.5 wire shape and semantics.
        #[serde(default, skip_serializing_if = "Option::is_none")]
        window: Option<WindowSpec>,
    },
    /// Create a tenant with non-default settings. Only valid before the
    /// tenant exists: a lazily created tenant (first touched by an ingest
    /// or query) uses the server defaults, and reconfiguring a live stream
    /// would invalidate its state, so configuring an existing tenant is
    /// answered with [`ErrorCode::TenantExists`].
    Configure {
        /// Tenant to create; `None` means [`DEFAULT_NAMESPACE`].
        #[serde(default, skip_serializing_if = "Option::is_none")]
        namespace: Option<String>,
        /// The settings to apply (each omitted field keeps the default),
        /// written next to `namespace` rather than nested.
        #[serde(flatten)]
        config: TenantConfig,
    },
    /// Persist one tenant's engine state to `file` inside the server's
    /// configured snapshot directory.
    Snapshot {
        /// Bare file name (no path separators) within the snapshot
        /// directory.
        file: String,
        /// Tenant to snapshot; `None` means [`DEFAULT_NAMESPACE`].
        #[serde(default, skip_serializing_if = "Option::is_none")]
        namespace: Option<String>,
    },
    /// Stop the server: the connection is answered with [`Response::Bye`]
    /// and the accept loop shuts down cleanly.
    Shutdown {},
    /// Subscribe this connection to one tenant's replication stream (a
    /// follower tailing a WAL-enabled primary). The connection is answered
    /// with a [`Response::ReplicaSnapshot`] (or resumes at `from_seq` when
    /// the primary still holds that position in its durable tail) and then
    /// receives a [`Response::Replicate`] frame per logged record, pushed
    /// as records become durable; it accepts no further requests. Requires
    /// the primary to run with a WAL ([`ErrorCode::ReplicationLag`]
    /// otherwise).
    Replicate {
        /// First sequence number the follower still needs; `0` (also what
        /// an omitted field means) requests a fresh snapshot
        /// unconditionally.
        #[serde(default)]
        from_seq: u64,
        /// Tenant stream to follow; `None` means [`DEFAULT_NAMESPACE`].
        #[serde(default, skip_serializing_if = "Option::is_none")]
        namespace: Option<String>,
    },
}

/// A server response (one frame: a JSON line, or a length-prefixed binary
/// message after a binary handshake). Encoded like [`Request`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Response {
    /// Answer to a [`Request::Hello`]: the handshake was accepted and the
    /// connection speaks `codec` from the next frame on.
    Hello {
        /// The codec now in effect (echo of the accepted request).
        codec: String,
        /// The protocol revision the server speaks
        /// ([`PROTOCOL_REVISION`]).
        revision: String,
    },
    /// Points were accepted.
    Ingested {
        /// Number of points accepted by this request.
        accepted: u64,
        /// Total points the engine has seen after this request.
        points_seen: u64,
    },
    /// Answer to a [`Request::Query`].
    Centers {
        /// The k cluster centers, one coordinate row per center.
        centers: Vec<Vec<f64>>,
        /// Total points summarized by this answer.
        points_seen: u64,
        /// Publish epoch this answer belongs to: strict queries return the
        /// epoch they just published, cached queries the epoch they read.
        epoch: u64,
        /// Coreset-estimated clustering cost of `centers` (JSON `null`
        /// when the backend cannot estimate it).
        cost: f64,
        /// Query diagnostics (coresets merged, cache usage, …).
        stats: QueryStats,
        /// Window this answer covers (revision 1.5): present exactly when
        /// the answer is windowed — strict windowed queries echo the
        /// resolved window and its coverage, cached queries report the
        /// window of the published answer they served (which may be
        /// `None`). Omitted on the wire when absent, so pre-1.5 answers
        /// are byte-identical.
        #[serde(default, skip_serializing_if = "Option::is_none")]
        window: Option<WindowInfo>,
    },
    /// Answer to a [`Request::Stats`].
    Stats {
        /// Aggregated ingestion statistics.
        stats: StreamStats,
        /// For windowed stats requests (revision 1.5): the resolved window
        /// and how many points the stored summaries cover for it. Omitted
        /// on the wire when absent.
        #[serde(default, skip_serializing_if = "Option::is_none")]
        window: Option<WindowInfo>,
    },
    /// Answer to a [`Request::Configure`]: the tenant was created.
    Configured {
        /// The tenant that was created.
        namespace: String,
        /// Backend tag the tenant runs (`sharded-cc`, `cc`, `ct`, `rcc`).
        backend: String,
        /// Number of cluster centers.
        k: u64,
        /// Shard worker count (1 for single-threaded backends).
        shards: u64,
    },
    /// Answer to a [`Request::Snapshot`]: the state was written.
    Snapshotted {
        /// Path of the snapshot file, as seen by the server.
        file: String,
        /// Size of the written snapshot in bytes.
        bytes: u64,
    },
    /// Answer to a [`Request::Shutdown`]; the server stops accepting.
    Bye {},
    /// First frame of a replication stream: the tenant's full state at
    /// `seq`, from which the follower bootstraps before applying
    /// [`Response::Replicate`] frames.
    ReplicaSnapshot {
        /// Every logged record with sequence number `<= seq` is folded
        /// into this snapshot; replication resumes at `seq + 1`.
        seq: u64,
        /// The tenant's published epoch at the snapshot point (0 when
        /// nothing is published yet).
        epoch: u64,
        /// The versioned engine snapshot envelope (the same JSON document
        /// `Snapshot` writes to disk).
        snapshot: String,
    },
    /// One logged record pushed to a replication-stream connection.
    Replicate {
        /// Sequence number of this record in the tenant's log.
        seq: u64,
        /// Highest durable sequence number on the primary when this frame
        /// was sent; `primary_seq - seq` bounds the follower's lag.
        primary_seq: u64,
        /// The replayable state mutation.
        record: ReplicationRecord,
    },
    /// A request failed; the engine state is unchanged (for ingest
    /// requests: no point of the failed request was consumed).
    Error {
        /// Machine-readable failure class.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
}

/// Machine-readable failure classes carried by [`Response::Error`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ErrorCode {
    /// The request line was not valid JSON or not a known request shape.
    MalformedRequest,
    /// The request line exceeded [`MAX_LINE_BYTES`].
    LineTooLong,
    /// A point's dimensionality disagrees with the stream's.
    DimensionMismatch,
    /// A coordinate was NaN or infinite.
    NonFiniteCoordinate,
    /// A point was empty or otherwise invalid.
    InvalidPoint,
    /// An `IngestBatch` exceeded [`MAX_BATCH_POINTS`].
    BatchTooLarge,
    /// A query arrived before any point was ingested.
    EmptyStream,
    /// Snapshotting is not available (no snapshot directory configured, or
    /// the file name tried to escape it).
    SnapshotUnavailable,
    /// A `namespace` failed [`validate_namespace`]: empty, contains a path
    /// separator or NUL, is `.`/`..`, or exceeds [`MAX_NAMESPACE_BYTES`].
    BadNamespace,
    /// The resident-tenant cap is full and the server has no eviction
    /// directory to page a tenant out to.
    TenantLimit,
    /// A `Configure` request named a tenant that already exists (resident
    /// or evicted to disk).
    TenantExists,
    /// A `Hello` handshake named an unknown codec, or arrived after the
    /// first frame of the connection. The connection stays on its current
    /// codec.
    BadCodec,
    /// A binary frame declared a length above the frame cap (the binary
    /// counterpart of [`ErrorCode::LineTooLong`]); the connection is closed
    /// because the stream cannot be resynchronized.
    FrameTooLarge,
    /// An unexpected server-side failure.
    Internal,
    /// Replication is unavailable or too far behind: a `Replicate` request
    /// against a primary without a WAL, a write or strict read sent to a
    /// follower (writes must go to the primary), or a follower answering a
    /// cached read while its lag exceeds its configured bound.
    ReplicationLag,
    /// The write-ahead log failed a checksum or structural check: the
    /// on-disk state is damaged in a way a torn trailing write cannot
    /// explain, and the affected tenant refuses writes rather than
    /// diverging from its log.
    WalCorrupt,
    /// A `window` field failed [`WindowSpec::validate`]: both or neither
    /// selector present, a zero/negative/over-limit `last_points`, or a
    /// non-positive, non-finite or over-limit `last_secs`. The value was
    /// well-typed (otherwise: [`ErrorCode::MalformedRequest`]) but names
    /// no valid window.
    BadWindow,
}

/// Maps an engine error to the wire-level failure class.
#[must_use]
pub fn error_code(e: &ClusteringError) -> ErrorCode {
    match e {
        ClusteringError::DimensionMismatch { .. } => ErrorCode::DimensionMismatch,
        ClusteringError::NonFiniteCoordinate { .. } => ErrorCode::NonFiniteCoordinate,
        ClusteringError::EmptyInput => ErrorCode::EmptyStream,
        ClusteringError::InvalidParameter { name, .. } => match *name {
            "point" => ErrorCode::InvalidPoint,
            "namespace" => ErrorCode::BadNamespace,
            "tenant_limit" => ErrorCode::TenantLimit,
            "tenant_exists" => ErrorCode::TenantExists,
            "replication_lag" => ErrorCode::ReplicationLag,
            "wal_corrupt" => ErrorCode::WalCorrupt,
            "window" => ErrorCode::BadWindow,
            _ => ErrorCode::Internal,
        },
        _ => ErrorCode::Internal,
    }
}

/// Builds the error response for an engine failure.
#[must_use]
pub fn error_response(e: &ClusteringError) -> Response {
    Response::Error {
        code: error_code(e),
        message: e.to_string(),
    }
}

impl Request {
    /// Encodes the request as one JSON line (without the trailing newline).
    #[must_use]
    pub fn to_line(&self) -> String {
        // lint:allow(panic-freedom) serializing our own enum of plain fields cannot fail
        serde_json::to_string(self).expect("request serialization is infallible")
    }

    /// Parses a request from one JSON line.
    ///
    /// # Errors
    /// Returns the parse failure message (the server wraps it in a
    /// [`Response::Error`] with [`ErrorCode::MalformedRequest`]).
    pub fn from_line(line: &str) -> Result<Self, String> {
        serde_json::from_str(line).map_err(|e| e.to_string())
    }
}

impl Response {
    /// Encodes the response as one JSON line (without the trailing newline).
    #[must_use]
    pub fn to_line(&self) -> String {
        // lint:allow(panic-freedom) serializing our own enum of plain fields cannot fail
        serde_json::to_string(self).expect("response serialization is infallible")
    }

    /// Parses a response from one JSON line.
    ///
    /// # Errors
    /// Returns the parse failure message.
    pub fn from_line(line: &str) -> Result<Self, String> {
        serde_json::from_str(line).map_err(|e| e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_round_trip_through_lines() {
        let requests = vec![
            Request::Hello {
                codec: "binary".to_string(),
            },
            Request::Ingest {
                point: vec![1.0, -2.5],
                namespace: None,
            },
            Request::Ingest {
                point: vec![1.0, -2.5],
                namespace: Some("tenant-a".to_string()),
            },
            Request::IngestBatch {
                points: vec![vec![0.5, 0.25], vec![3.0, 4.0]],
                namespace: None,
            },
            Request::IngestBatch {
                points: vec![vec![0.5, 0.25]],
                namespace: Some("tenant-a".to_string()),
            },
            Request::Query {
                freshness: Freshness::Strict,
                namespace: None,
                window: None,
            },
            Request::Query {
                freshness: Freshness::Cached,
                namespace: Some("tenant-b".to_string()),
                window: None,
            },
            Request::Stats {
                freshness: Freshness::Strict,
                namespace: None,
                window: None,
            },
            Request::Stats {
                freshness: Freshness::Cached,
                namespace: Some("tenant-b".to_string()),
                window: None,
            },
            Request::Configure {
                namespace: Some("tenant-c".to_string()),
                config: TenantConfig {
                    k: Some(8),
                    backend: Some("cc".to_string()),
                    shards: None,
                    batch: Some(64),
                    seed: Some(7),
                },
            },
            Request::Configure {
                namespace: None,
                config: TenantConfig::default(),
            },
            Request::Snapshot {
                file: "state.json".to_string(),
                namespace: None,
            },
            Request::Snapshot {
                file: "state.json".to_string(),
                namespace: Some("tenant-a".to_string()),
            },
            Request::Shutdown {},
            Request::Replicate {
                namespace: None,
                from_seq: 0,
            },
            Request::Replicate {
                namespace: Some("tenant-a".to_string()),
                from_seq: 118,
            },
        ];
        for req in requests {
            let line = req.to_line();
            assert!(!line.contains('\n'), "one request = one line: {line}");
            assert_eq!(Request::from_line(&line).unwrap(), req);
        }
    }

    #[test]
    fn omitted_freshness_parses_as_strict() {
        // The complete pre-freshness wire shapes must keep working, and an
        // explicit null is treated like an omitted field.
        for line in [
            r#"{"Query":{}}"#,
            r#"{"Query":{"freshness":null}}"#,
            r#"{"Query":{"freshness":"STRICT"}}"#,
        ] {
            assert_eq!(
                Request::from_line(line).unwrap(),
                Request::Query {
                    freshness: Freshness::Strict,
                    namespace: None,
                    window: None,
                },
                "{line}"
            );
        }
        assert_eq!(
            Request::from_line(r#"{"Stats":{}}"#).unwrap(),
            Request::Stats {
                freshness: Freshness::Strict,
                namespace: None,
                window: None,
            }
        );
        assert_eq!(
            Request::from_line(r#"{"Query":{"freshness":"cached"}}"#).unwrap(),
            Request::Query {
                freshness: Freshness::Cached,
                namespace: None,
                window: None,
            }
        );
        assert!(Request::from_line(r#"{"Query":{"freshness":"nope"}}"#).is_err());
        assert!(Request::from_line(r#"{"Query":{"freshness":3}}"#).is_err());
    }

    #[test]
    fn omitted_namespace_parses_as_none_and_is_not_emitted() {
        // Omitted and explicit-null namespaces both mean the default
        // tenant, and a `None` namespace round-trips to the exact
        // pre-tenancy wire bytes.
        for line in [
            r#"{"Ingest":{"point":[1,2]}}"#,
            r#"{"Ingest":{"point":[1,2],"namespace":null}}"#,
        ] {
            assert_eq!(
                Request::from_line(line).unwrap(),
                Request::Ingest {
                    point: vec![1.0, 2.0],
                    namespace: None,
                },
                "{line}"
            );
        }
        assert_eq!(
            Request::from_line(r#"{"Ingest":{"point":[1,2],"namespace":"t1"}}"#).unwrap(),
            Request::Ingest {
                point: vec![1.0, 2.0],
                namespace: Some("t1".to_string()),
            }
        );
        // A non-string namespace is malformed, not silently defaulted.
        assert!(Request::from_line(r#"{"Ingest":{"point":[1,2],"namespace":7}}"#).is_err());
    }

    #[test]
    fn configure_parses_with_flattened_optional_fields() {
        assert_eq!(
            Request::from_line(r#"{"Configure":{"namespace":"a","k":4,"backend":"sharded-cc","shards":2,"batch":128,"seed":42}}"#)
                .unwrap(),
            Request::Configure {
                namespace: Some("a".to_string()),
                config: TenantConfig {
                    k: Some(4),
                    backend: Some("sharded-cc".to_string()),
                    shards: Some(2),
                    batch: Some(128),
                    seed: Some(42),
                },
            }
        );
        // Every field is optional.
        assert_eq!(
            Request::from_line(r#"{"Configure":{}}"#).unwrap(),
            Request::Configure {
                namespace: None,
                config: TenantConfig::default(),
            }
        );
        assert!(Request::from_line(r#"{"Configure":{"k":"four"}}"#).is_err());
    }

    #[test]
    fn replicate_from_seq_defaults_to_zero() {
        // `from_seq` is optional on the wire: a follower that wants a
        // fresh snapshot can send the bare variant.
        for line in [
            r#"{"Replicate":{}}"#,
            r#"{"Replicate":{"from_seq":null}}"#,
            r#"{"Replicate":{"from_seq":0}}"#,
        ] {
            assert_eq!(
                Request::from_line(line).unwrap(),
                Request::Replicate {
                    namespace: None,
                    from_seq: 0,
                },
                "{line}"
            );
        }
        assert_eq!(
            Request::from_line(r#"{"Replicate":{"namespace":"t1","from_seq":9}}"#).unwrap(),
            Request::Replicate {
                namespace: Some("t1".to_string()),
                from_seq: 9,
            }
        );
        assert!(Request::from_line(r#"{"Replicate":{"from_seq":"nine"}}"#).is_err());
    }

    #[test]
    fn a_repeated_key_reads_its_first_occurrence() {
        // docs/PROTOCOL.md: if a key repeats within one object, the first
        // occurrence is used — at every nesting level alike.
        assert_eq!(
            Request::from_line(r#"{"Ingest":{"point":[1],"namespace":"a","namespace":"b"}}"#)
                .unwrap(),
            Request::Ingest {
                point: vec![1.0],
                namespace: Some("a".to_string()),
            }
        );
        for (line, window) in [
            (
                r#"{"Query":{"window":{"last_points":5,"last_points":6}}}"#,
                WindowSpec::points(5),
            ),
            (
                r#"{"Query":{"window":{"last_secs":1.5,"last_secs":null}}}"#,
                WindowSpec::secs(1.5),
            ),
        ] {
            assert_eq!(
                Request::from_line(line).unwrap(),
                Request::Query {
                    freshness: Freshness::Strict,
                    namespace: None,
                    window: Some(window),
                },
                "{line}"
            );
        }
    }

    #[test]
    fn namespace_validation_rejects_path_escapes() {
        for ok in ["default", "tenant-a", "t0", "a.b", "UPPER_case.9"] {
            assert!(validate_namespace(ok).is_ok(), "{ok}");
        }
        for bad in ["", ".", "..", "a/b", "a\\b", "a\0b", "../x", "/etc"] {
            assert!(validate_namespace(bad).is_err(), "{bad:?}");
        }
        assert!(validate_namespace(&"n".repeat(MAX_NAMESPACE_BYTES)).is_ok());
        assert!(validate_namespace(&"n".repeat(MAX_NAMESPACE_BYTES + 1)).is_err());
    }

    #[test]
    fn responses_round_trip_through_lines() {
        let responses = vec![
            Response::Hello {
                codec: "binary".to_string(),
                revision: PROTOCOL_REVISION.to_string(),
            },
            Response::Ingested {
                accepted: 3,
                points_seen: 100,
            },
            Response::Centers {
                centers: vec![vec![1.0, 2.0], vec![-3.0, 0.5]],
                points_seen: 100,
                epoch: 7,
                cost: 12.5,
                stats: QueryStats {
                    coresets_merged: 4,
                    candidate_points: 80,
                    coreset_level: Some(2),
                    used_cache: true,
                    ran_kmeans: true,
                },
                window: None,
            },
            Response::Centers {
                centers: vec![vec![1.0, 2.0]],
                points_seen: 100,
                epoch: 8,
                cost: 0.5,
                stats: QueryStats {
                    coresets_merged: 2,
                    candidate_points: 40,
                    coreset_level: None,
                    used_cache: false,
                    ran_kmeans: true,
                },
                window: Some(WindowInfo {
                    last_points: 60,
                    covered_points: 80,
                }),
            },
            Response::Stats {
                stats: StreamStats {
                    points_seen: 100,
                    shards: 2,
                    per_shard_points: vec![50, 50],
                    last_query: None,
                },
                window: None,
            },
            Response::Stats {
                stats: StreamStats {
                    points_seen: 100,
                    shards: 2,
                    per_shard_points: vec![50, 50],
                    last_query: None,
                },
                window: Some(WindowInfo {
                    last_points: 25,
                    covered_points: 40,
                }),
            },
            Response::Configured {
                namespace: "tenant-a".to_string(),
                backend: "sharded-cc".to_string(),
                k: 4,
                shards: 2,
            },
            Response::Snapshotted {
                file: "snaps/state.json".to_string(),
                bytes: 12345,
            },
            Response::Bye {},
            Response::ReplicaSnapshot {
                seq: 42,
                epoch: 3,
                snapshot: r#"{"snapshot_version":3}"#.to_string(),
            },
            Response::Replicate {
                seq: 43,
                primary_seq: 45,
                record: ReplicationRecord::Ingest {
                    point: vec![1.0, 2.0],
                },
            },
            Response::Replicate {
                seq: 44,
                primary_seq: 45,
                record: ReplicationRecord::IngestBatch {
                    points: vec![vec![0.5], vec![1.5]],
                },
            },
            Response::Replicate {
                seq: 45,
                primary_seq: 45,
                record: ReplicationRecord::Query {},
            },
            Response::Replicate {
                seq: 46,
                primary_seq: 46,
                record: ReplicationRecord::Stats {},
            },
            Response::Error {
                code: ErrorCode::DimensionMismatch,
                message: "expected 2, got 3".to_string(),
            },
            Response::Error {
                code: ErrorCode::BadNamespace,
                message: "namespace `../x` escapes".to_string(),
            },
            Response::Error {
                code: ErrorCode::ReplicationLag,
                message: "writes must go to the primary".to_string(),
            },
            Response::Error {
                code: ErrorCode::WalCorrupt,
                message: "crc mismatch".to_string(),
            },
        ];
        for resp in responses {
            let line = resp.to_line();
            assert!(!line.contains('\n'), "one response = one line: {line}");
            assert_eq!(Response::from_line(&line).unwrap(), resp);
        }
    }

    #[test]
    fn wire_shape_is_the_documented_external_tagging() {
        let line = Request::Ingest {
            point: vec![1.0, 2.0],
            namespace: None,
        }
        .to_line();
        assert_eq!(line, r#"{"Ingest":{"point":[1,2]}}"#);
        assert_eq!(
            Request::Query {
                freshness: Freshness::Strict,
                namespace: None,
                window: None,
            }
            .to_line(),
            r#"{"Query":{"freshness":"strict"}}"#
        );
        assert_eq!(
            Request::Query {
                freshness: Freshness::Cached,
                namespace: None,
                window: None,
            }
            .to_line(),
            r#"{"Query":{"freshness":"cached"}}"#
        );
        assert_eq!(
            Request::Query {
                freshness: Freshness::Strict,
                namespace: Some("t1".to_string()),
                window: None,
            }
            .to_line(),
            r#"{"Query":{"freshness":"strict","namespace":"t1"}}"#
        );
    }

    #[test]
    fn malformed_lines_are_parse_errors_not_panics() {
        assert!(Request::from_line("").is_err());
        assert!(Request::from_line("not json").is_err());
        assert!(Request::from_line("{\"Unknown\":{}}").is_err());
        assert!(Request::from_line("{\"Ingest\":{\"point\":\"oops\"}}").is_err());
        assert!(Request::from_line("[1,2,3]").is_err());
    }

    #[test]
    fn engine_errors_map_to_typed_codes() {
        assert_eq!(
            error_code(&ClusteringError::DimensionMismatch {
                expected: 2,
                got: 3
            }),
            ErrorCode::DimensionMismatch
        );
        assert_eq!(
            error_code(&ClusteringError::NonFiniteCoordinate { index: 1 }),
            ErrorCode::NonFiniteCoordinate
        );
        assert_eq!(
            error_code(&ClusteringError::EmptyInput),
            ErrorCode::EmptyStream
        );
        assert_eq!(
            error_code(&ClusteringError::InvalidParameter {
                name: "point",
                message: "empty".to_string()
            }),
            ErrorCode::InvalidPoint
        );
        assert_eq!(
            error_code(&ClusteringError::InvalidParameter {
                name: "namespace",
                message: "escapes".to_string()
            }),
            ErrorCode::BadNamespace
        );
        assert_eq!(
            error_code(&ClusteringError::InvalidParameter {
                name: "tenant_limit",
                message: "cap".to_string()
            }),
            ErrorCode::TenantLimit
        );
        assert_eq!(
            error_code(&ClusteringError::InvalidParameter {
                name: "tenant_exists",
                message: "resident".to_string()
            }),
            ErrorCode::TenantExists
        );
        assert_eq!(
            error_code(&ClusteringError::InvalidParameter {
                name: "replication_lag",
                message: "follower".to_string()
            }),
            ErrorCode::ReplicationLag
        );
        assert_eq!(
            error_code(&ClusteringError::InvalidParameter {
                name: "wal_corrupt",
                message: "crc".to_string()
            }),
            ErrorCode::WalCorrupt
        );
        assert_eq!(
            error_code(&ClusteringError::InvalidK { k: 0 }),
            ErrorCode::Internal
        );
    }
}
