//! Request execution, independent of the I/O layer.
//!
//! The evented core ([`crate::event`]) turns bytes into [`Request`]s and
//! [`Response`]s back into bytes; everything between — namespace
//! resolution, limits, engine calls, error mapping — lives here so the
//! transport and the semantics cannot drift apart. (When the blocking and
//! evented cores coexisted, this layer is what kept them identical.)

use crate::engine::{BackendKind, Engine, EngineSpec, FollowerStatus};
use crate::protocol::{
    error_response, is_bare_name, validate_namespace, ErrorCode, Freshness, Request, Response,
    TenantConfig, Window, WindowSpec, DEFAULT_NAMESPACE, MAX_BATCH_POINTS, MAX_K,
};
use skm_stream::shard::MAX_SHARDS;
use skm_stream::StreamConfig;
use std::path::Path;

/// Resolves the optional wire-level namespace to the tenant it names,
/// rejecting path-escaping names before they can reach the engine (or name
/// an eviction file).
pub(crate) fn resolve_namespace(namespace: Option<&str>) -> Result<&str, Response> {
    let namespace = namespace.unwrap_or(DEFAULT_NAMESPACE);
    match validate_namespace(namespace) {
        Ok(()) => Ok(namespace),
        Err(message) => Err(Response::Error {
            code: ErrorCode::BadNamespace,
            message,
        }),
    }
}

/// Executes one parsed request against the engine.
///
/// `Hello` is a transport concern, handled by the connection layers before
/// dispatch; one reaching this function is by definition not the first
/// frame of its connection, which is a protocol error.
pub(crate) fn dispatch(request: Request, engine: &Engine, snapshot_dir: Option<&Path>) -> Response {
    if let Some(follower) = engine.follower() {
        if let Some(refusal) = refuse_on_follower(&request, follower) {
            return refusal;
        }
    }
    match request {
        Request::Hello { .. } => Response::Error {
            code: ErrorCode::BadCodec,
            message: "Hello must be the first frame on a connection".to_string(),
        },
        Request::Ingest { point, namespace } => {
            let ns = match resolve_namespace(namespace.as_deref()) {
                Ok(ns) => ns,
                Err(response) => return response,
            };
            match engine.ingest_in(ns, &point) {
                Ok(points_seen) => Response::Ingested {
                    accepted: 1,
                    points_seen,
                },
                Err(e) => error_response(&e),
            }
        }
        Request::IngestBatch { points, namespace } => {
            let ns = match resolve_namespace(namespace.as_deref()) {
                Ok(ns) => ns,
                Err(response) => return response,
            };
            if points.len() > MAX_BATCH_POINTS {
                return Response::Error {
                    code: ErrorCode::BatchTooLarge,
                    message: format!(
                        "batch of {} points exceeds the limit of {MAX_BATCH_POINTS}",
                        points.len()
                    ),
                };
            }
            let accepted = points.len() as u64;
            match engine.ingest_batch_in(ns, &points) {
                Ok(points_seen) => Response::Ingested {
                    accepted,
                    points_seen,
                },
                Err(e) => error_response(&e),
            }
        }
        Request::Query {
            freshness,
            namespace,
            window,
        } => {
            let ns = match resolve_namespace(namespace.as_deref()) {
                Ok(ns) => ns,
                Err(response) => return response,
            };
            let window = match validate_window(window.as_ref()) {
                Ok(window) => window,
                Err(response) => return response,
            };
            let result = match (freshness, window) {
                // A cached windowed read serves the published answer as-is
                // — whatever window it was computed for, reported honestly
                // in the response — exactly like a cached un-windowed read.
                (Freshness::Strict, Some(window)) => engine.query_window_in(ns, window),
                _ => engine.query_in(ns, freshness),
            };
            match result {
                Ok(published) => Response::Centers {
                    centers: published.centers.to_rows(),
                    points_seen: published.points_seen,
                    epoch: published.epoch,
                    cost: published.cost,
                    stats: published.stats,
                    window: published.window,
                },
                Err(e) => error_response(&e),
            }
        }
        Request::Stats {
            freshness,
            namespace,
            window,
        } => {
            let ns = match resolve_namespace(namespace.as_deref()) {
                Ok(ns) => ns,
                Err(response) => return response,
            };
            let window = match validate_window(window.as_ref()) {
                Ok(window) => window,
                Err(response) => return response,
            };
            match (freshness, window) {
                // Windowed strict stats: ordinary strict stats plus a pure
                // coverage probe over the stored summaries.
                (Freshness::Strict, Some(window)) => match engine.stats_window_in(ns, window) {
                    Ok((stats, info)) => Response::Stats {
                        stats,
                        window: Some(info),
                    },
                    Err(e) => error_response(&e),
                },
                // A cached windowed stats read has no summary structure to
                // probe without the mutex; it reports the published
                // answer's window, like a cached windowed query.
                _ => match engine.stats_in(ns, freshness) {
                    Ok(stats) => Response::Stats {
                        stats,
                        window: if window.is_some() {
                            engine
                                .published_in(ns)
                                .ok()
                                .flatten()
                                .and_then(|p| p.window)
                        } else {
                            None
                        },
                    },
                    Err(e) => error_response(&e),
                },
            }
        }
        Request::Configure { namespace, config } => {
            let ns = match resolve_namespace(namespace.as_deref()) {
                Ok(ns) => ns,
                Err(response) => return response,
            };
            configure_tenant(engine, ns, &config)
        }
        Request::Snapshot { file, namespace } => {
            let ns = match resolve_namespace(namespace.as_deref()) {
                Ok(ns) => ns,
                Err(response) => return response,
            };
            snapshot_to(engine, ns, snapshot_dir, &file)
        }
        Request::Shutdown {} => Response::Bye {},
        // Like `Hello`, `Replicate` is a transport concern: the evented
        // core converts the connection into a subscription before dispatch
        // when the engine has a WAL. One reaching this function means the
        // server cannot replicate.
        Request::Replicate { namespace, .. } => {
            if let Err(response) = resolve_namespace(namespace.as_deref()) {
                return response;
            }
            Response::Error {
                code: ErrorCode::ReplicationLag,
                message: "replication requires a write-ahead log \
                          (start the server with --wal-dir)"
                    .to_string(),
            }
        }
    }
}

/// Validates an optional wire window spec, mapping violations to the typed
/// [`ErrorCode::BadWindow`] response. `None` (the pre-1.5 shape) stays
/// `None`: the whole stream.
fn validate_window(spec: Option<&WindowSpec>) -> Result<Option<Window>, Response> {
    match spec {
        None => Ok(None),
        Some(spec) => match spec.validate() {
            Ok(window) => Ok(Some(window)),
            Err(message) => Err(Response::Error {
                code: ErrorCode::BadWindow,
                message,
            }),
        },
    }
}

/// What a follower replica refuses: every write (state arrives only from
/// the primary's stream), every strict read (strict reads recompute —
/// they consume RNG and publish epochs, which only the primary may do),
/// and cached reads while the replication lag is out of bounds. Cached
/// reads inside the bound, `Snapshot` (a pure read of local state) and
/// `Shutdown` pass through.
fn refuse_on_follower(request: &Request, follower: &FollowerStatus) -> Option<Response> {
    let freshness = match request {
        Request::Ingest { .. } | Request::IngestBatch { .. } | Request::Configure { .. } => {
            return Some(Response::Error {
                code: ErrorCode::ReplicationLag,
                message: "follower replicas are read-only; send writes to the primary".to_string(),
            });
        }
        Request::Query { freshness, .. } | Request::Stats { freshness, .. } => *freshness,
        _ => return None,
    };
    if freshness == Freshness::Strict {
        return Some(Response::Error {
            code: ErrorCode::ReplicationLag,
            message: "strict reads recompute state and only run on the primary; \
                      use cached freshness on a follower"
                .to_string(),
        });
    }
    follower.block_reason().map(|message| Response::Error {
        code: ErrorCode::ReplicationLag,
        message,
    })
}

/// Builds a per-tenant spec from the engine's default spec plus the
/// request's overrides, and creates the tenant.
fn configure_tenant(engine: &Engine, namespace: &str, config: &TenantConfig) -> Response {
    // Out-of-range sizes are client errors, answered before anything is
    // created: `StreamConfig::new` panics on `k == 0`, and an oversized
    // `k` or `batch` would only fail later, as an allocation that aborts
    // the whole process on the tenant's first ingest or strict query.
    for (name, value, max) in [
        ("k", config.k, MAX_K),
        ("shards", config.shards, MAX_SHARDS),
        ("batch", config.batch, MAX_BATCH_POINTS),
    ] {
        if let Some(v) = value.filter(|&v| v == 0 || v > max) {
            return Response::Error {
                code: ErrorCode::MalformedRequest,
                message: format!("{name} must be in 1..={max}, got {v}"),
            };
        }
    }
    let mut spec: EngineSpec = *engine.default_spec();
    if let Some(tag) = &config.backend {
        match BackendKind::parse(tag) {
            Some(kind) => spec.kind = kind,
            None => {
                return Response::Error {
                    code: ErrorCode::MalformedRequest,
                    message: format!(
                        "unknown backend `{tag}` (expected sharded-cc, cc, ct or rcc)"
                    ),
                }
            }
        }
    }
    if let Some(k) = config.k {
        // Re-derive the k-dependent defaults (bucket size) for the new k
        // instead of keeping the default spec's.
        let fresh = StreamConfig::new(k);
        spec.stream.k = fresh.k;
        spec.stream.bucket_size = fresh.bucket_size;
    }
    if let Some(shards) = config.shards {
        spec.shards = shards;
    }
    if let Some(batch) = config.batch {
        spec.batch = batch;
    }
    if let Some(seed) = config.seed {
        spec.seed = seed;
    }
    match engine.configure(namespace, &spec) {
        Ok((kind, shards)) => Response::Configured {
            namespace: namespace.to_string(),
            backend: kind.tag().to_string(),
            k: spec.stream.k as u64,
            shards: shards as u64,
        },
        Err(e) => error_response(&e),
    }
}

/// Writes one tenant's snapshot to `file` inside `snapshot_dir`. The file
/// name must be bare (no separators, no `..`): the request names a file,
/// the server owns the directory.
fn snapshot_to(
    engine: &Engine,
    namespace: &str,
    snapshot_dir: Option<&Path>,
    file: &str,
) -> Response {
    let Some(dir) = snapshot_dir else {
        return Response::Error {
            code: ErrorCode::SnapshotUnavailable,
            message: "server was started without a snapshot directory".to_string(),
        };
    };
    if !is_bare_name(file) {
        return Response::Error {
            code: ErrorCode::SnapshotUnavailable,
            message: format!("snapshot file name `{file}` must be a bare file name"),
        };
    }
    let json = match engine.snapshot_json_in(namespace) {
        Ok(json) => json,
        Err(e) => return error_response(&e),
    };
    let path = dir.join(file);
    if let Err(e) = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, &json)) {
        return Response::Error {
            code: ErrorCode::Internal,
            message: format!("cannot write snapshot `{}`: {e}", path.display()),
        };
    }
    Response::Snapshotted {
        file: path.display().to_string(),
        bytes: json.len() as u64,
    }
}
