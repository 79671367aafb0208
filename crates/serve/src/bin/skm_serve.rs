//! `skm-serve` — run the TCP/JSON clustering server, or drive one with the
//! built-in load generator.
//!
//! ```text
//! skm-serve serve   [--addr 127.0.0.1:7878] [--backend sharded-cc|cc|ct|rcc]
//!                   [--k 8] [--shards 4] [--batch 128] [--seed 42]
//!                   [--snapshot-dir DIR] [--restore FILE] [--max-resident 64]
//!                   [--wal-dir DIR] [--fsync-ms 5] [--idle-evict-secs 0]
//! skm-serve follow  --primary HOST:PORT [--addr 127.0.0.1:7879]
//!                   [--namespace NS] [--max-lag 1024] [--codec json|binary]
//! skm-serve recover --wal-dir DIR
//! skm-serve bench   [--addr 127.0.0.1:7878] [--connections 4] [--points 20000]
//!                   [--dim 8] [--batch 128] [--query-every 8] [--seed 42]
//!                   [--freshness strict|cached] [--tenants 1] [--zipf 1.1]
//!                   [--codec json|binary] [--idle-conns 0] [--shutdown]
//!                   [--follower-of HOST:PORT]
//! ```
//!
//! `serve` blocks until a client sends `{"Shutdown":{}}`. At most
//! `--max-resident` tenant streams stay in memory; with `--snapshot-dir`
//! the coldest tenant (the fewest recent touches, the least recently
//! touched among equals) is paged out to disk (and restored transparently
//! on next touch), without it the cap is a hard limit.
//! `--wal-dir` attaches a per-tenant write-ahead log: every accepted
//! mutation is logged before it is applied, group-committed every
//! `--fsync-ms` milliseconds (0 = fsync every append), folded into
//! incremental checkpoints, and replayed bit-identically on restart. The
//! log directory then supersedes eviction files as the paging store, and
//! the server accepts `Replicate` subscriptions from followers. Paging a
//! clean tenant (nothing logged since its checkpoint) in or out writes
//! nothing to its log.
//! `--idle-evict-secs N` pages out tenants untouched for N seconds.
//!
//! `follow` runs a read-only replica: it tails the primary's replication
//! stream for one tenant, applies it locally, and serves cached reads
//! while its lag stays within `--max-lag` records (writes and strict
//! reads are refused with `ReplicationLag`).
//!
//! `recover` opens a write-ahead log directory offline, replays every
//! tenant (checkpoint + tail), folds the tails into fresh checkpoints and
//! reports per-tenant positions — a crash-recovery dry run and log
//! compactor in one.
//!
//! `bench` connects to an already-running server, drives it with a mixed
//! ingest:query workload of Gaussian-blob points — spread over `--tenants`
//! namespaces with Zipf(`--zipf`) skew when above 1 — and prints
//! per-request latency percentiles. `--codec binary` negotiates the
//! length-prefixed binary framing on each driving connection, and
//! `--idle-conns N` holds N extra idle connections open across the run
//! (liveness-checked at the end); `--conns` is an alias for
//! `--connections`, and `--shutdown` stops the server afterwards.
//! `--follower-of ADDR` pairs every interleaved primary query with a
//! cached query against a follower at ADDR, reporting follower latency
//! and lag refusals. See `docs/PROTOCOL.md` for the wire protocol.

use skm_serve::client::Client;
use skm_serve::codec::CodecKind;
use skm_serve::engine::{BackendKind, Engine, EngineSpec, WalConfig, DEFAULT_MAX_RESIDENT};
use skm_serve::follower::{start_follower, FollowerSpec};
use skm_serve::loadgen::{run_load, LoadSpec};
use skm_serve::protocol::{Freshness, MAX_BATCH_POINTS};
use skm_serve::server::Server;
use skm_stream::StreamConfig;
use std::net::ToSocketAddrs;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

/// Parsed flags shared by both subcommands (unused ones are ignored).
#[derive(Debug)]
struct Args {
    addr: String,
    backend: BackendKind,
    k: usize,
    shards: usize,
    batch: usize,
    seed: u64,
    snapshot_dir: Option<PathBuf>,
    restore: Option<PathBuf>,
    connections: usize,
    points: usize,
    dim: usize,
    query_every: usize,
    freshness: Freshness,
    max_resident: usize,
    tenants: usize,
    zipf_s: f64,
    codec: CodecKind,
    idle_conns: usize,
    shutdown: bool,
    wal_dir: Option<PathBuf>,
    fsync_ms: u64,
    idle_evict_secs: u64,
    primary: Option<String>,
    namespace: Option<String>,
    max_lag: u64,
    follower_of: Option<String>,
    errors: Vec<String>,
}

impl Default for Args {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:7878".to_string(),
            backend: BackendKind::ShardedCc,
            k: 8,
            shards: 4,
            batch: 128,
            seed: 42,
            snapshot_dir: None,
            restore: None,
            connections: 4,
            points: 20_000,
            dim: 8,
            query_every: 8,
            freshness: Freshness::Strict,
            max_resident: DEFAULT_MAX_RESIDENT,
            tenants: 1,
            zipf_s: 1.1,
            codec: CodecKind::Json,
            idle_conns: 0,
            shutdown: false,
            wal_dir: None,
            fsync_ms: 5,
            idle_evict_secs: 0,
            primary: None,
            namespace: None,
            max_lag: 1024,
            follower_of: None,
            errors: Vec::new(),
        }
    }
}

fn parse_args(tokens: impl Iterator<Item = String>) -> Args {
    let mut args = Args::default();
    let mut iter = tokens.peekable();
    while let Some(flag) = iter.next() {
        let mut take = |name: &str, errors: &mut Vec<String>| match iter.next() {
            Some(v) => Some(v),
            None => {
                errors.push(format!("flag `{name}` requires a value"));
                None
            }
        };
        match flag.as_str() {
            "--addr" => {
                if let Some(v) = take("--addr", &mut args.errors) {
                    args.addr = v;
                }
            }
            "--backend" => {
                if let Some(v) = take("--backend", &mut args.errors) {
                    match BackendKind::parse(&v) {
                        Some(kind) => args.backend = kind,
                        None => args.errors.push(format!("unknown backend `{v}`")),
                    }
                }
            }
            "--snapshot-dir" => {
                args.snapshot_dir = take("--snapshot-dir", &mut args.errors).map(PathBuf::from);
            }
            "--restore" => {
                args.restore = take("--restore", &mut args.errors).map(PathBuf::from);
            }
            "--wal-dir" => {
                args.wal_dir = take("--wal-dir", &mut args.errors).map(PathBuf::from);
            }
            "--primary" => {
                args.primary = take("--primary", &mut args.errors);
            }
            "--namespace" => {
                args.namespace = take("--namespace", &mut args.errors);
            }
            "--follower-of" => {
                args.follower_of = take("--follower-of", &mut args.errors);
            }
            "--freshness" => {
                if let Some(v) = take("--freshness", &mut args.errors) {
                    match Freshness::parse(&v) {
                        Some(freshness) => args.freshness = freshness,
                        None => args.errors.push(format!(
                            "unknown freshness `{v}` (expected `strict` or `cached`)"
                        )),
                    }
                }
            }
            "--zipf" => {
                if let Some(v) = take("--zipf", &mut args.errors) {
                    match v.parse::<f64>() {
                        Ok(s) if s >= 0.0 && s.is_finite() => args.zipf_s = s,
                        _ => args.errors.push(format!(
                            "flag `--zipf` wants a non-negative number, got `{v}`"
                        )),
                    }
                }
            }
            "--codec" => {
                if let Some(v) = take("--codec", &mut args.errors) {
                    match CodecKind::parse(&v) {
                        Some(codec) => args.codec = codec,
                        None => args
                            .errors
                            .push(format!("unknown codec `{v}` (expected `json` or `binary`)")),
                    }
                }
            }
            "--shutdown" => args.shutdown = true,
            "--k" | "--shards" | "--batch" | "--seed" | "--connections" | "--conns"
            | "--points" | "--dim" | "--query-every" | "--max-resident" | "--tenants"
            | "--idle-conns" | "--fsync-ms" | "--idle-evict-secs" | "--max-lag" => {
                let Some(v) = take(&flag, &mut args.errors) else {
                    continue;
                };
                let Ok(n) = v.parse::<u64>() else {
                    args.errors
                        .push(format!("flag `{flag}` wants a number, got `{v}`"));
                    continue;
                };
                match flag.as_str() {
                    "--k" => args.k = (n as usize).max(1),
                    "--shards" => args.shards = (n as usize).max(1),
                    "--batch" => args.batch = (n as usize).max(1),
                    "--seed" => args.seed = n,
                    "--connections" | "--conns" => args.connections = (n as usize).max(1),
                    "--points" => args.points = (n as usize).max(100),
                    "--dim" => args.dim = (n as usize).max(1),
                    "--query-every" => args.query_every = n as usize,
                    "--max-resident" => args.max_resident = (n as usize).max(1),
                    "--tenants" => args.tenants = (n as usize).max(1),
                    "--idle-conns" => args.idle_conns = n as usize,
                    "--fsync-ms" => args.fsync_ms = n,
                    "--idle-evict-secs" => args.idle_evict_secs = n,
                    "--max-lag" => args.max_lag = n,
                    _ => unreachable!(),
                }
            }
            other => eprintln!("ignoring unknown argument `{other}`"),
        }
    }
    args
}

fn default_spec(args: &Args) -> EngineSpec {
    EngineSpec {
        kind: args.backend,
        stream: StreamConfig::new(args.k),
        shards: args.shards,
        batch: args.batch,
        nesting_depth: 2,
        seed: args.seed,
    }
}

fn build_engine(args: &Args) -> Result<Engine, String> {
    // The snapshot directory doubles as the eviction directory: both hold
    // the same versioned envelope, and tenants must not be able to write
    // anywhere else.
    if let Some(path) = &args.restore {
        if args.wal_dir.is_some() {
            return Err(
                "--restore conflicts with --wal-dir: with a write-ahead log the log \
                 directory is the single source of truth (recovery replays it on start)"
                    .to_string(),
            );
        }
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read snapshot `{}`: {e}", path.display()))?;
        return Engine::from_snapshot_json(&text)
            .map(|e| e.with_eviction(args.max_resident, args.snapshot_dir.clone()))
            .map_err(|e| format!("cannot restore snapshot `{}`: {e}", path.display()));
    }
    let engine = Engine::with_options(
        &default_spec(args),
        args.max_resident,
        args.snapshot_dir.clone(),
    )
    .map_err(|e| format!("cannot build engine: {e}"))?;
    match &args.wal_dir {
        Some(dir) => engine
            .with_wal(WalConfig::new(dir.clone()).with_fsync_ms(args.fsync_ms))
            .map_err(|e| format!("cannot open write-ahead log `{}`: {e}", dir.display())),
        None => Ok(engine),
    }
}

fn serve(args: &Args) -> Result<(), String> {
    let engine = Arc::new(build_engine(args)?);
    if engine.wal_enabled() {
        println!(
            "write-ahead log at `{}` (group commit every {} ms)",
            args.wal_dir
                .as_deref()
                .unwrap_or_else(|| std::path::Path::new("?"))
                .display(),
            args.fsync_ms
        );
    }
    let mut server = Server::bind(args.addr.as_str(), engine, args.snapshot_dir.clone())
        .map_err(|e| format!("cannot bind `{}`: {e}", args.addr))?;
    if args.idle_evict_secs > 0 {
        server = server.with_idle_evict(Duration::from_secs(args.idle_evict_secs));
    }
    let addr = server.local_addr().map_err(|e| e.to_string())?;
    println!("skm-serve listening on {addr} (send {{\"Shutdown\":{{}}}} to stop)");
    server.run().map_err(|e| format!("server failed: {e}"))
}

/// Offline crash-recovery pass: open the log root, replay every tenant,
/// fold the tails into fresh checkpoints and report the positions.
fn recover(args: &Args) -> Result<(), String> {
    let Some(dir) = &args.wal_dir else {
        return Err("recover requires --wal-dir".to_string());
    };
    let engine = Engine::with_options(&default_spec(args), args.max_resident, None)
        .and_then(|e| e.with_wal(WalConfig::new(dir.clone()).with_fsync_ms(args.fsync_ms)))
        .map_err(|e| format!("recovery of `{}` failed: {e}", dir.display()))?;
    for namespace in engine.namespaces() {
        let durable = engine
            .wal_durable_seq_in(&namespace)
            .map_err(|e| format!("tenant `{namespace}`: {e}"))?;
        let covered = engine
            .checkpoint_now_in(&namespace)
            .map_err(|e| format!("cannot checkpoint tenant `{namespace}`: {e}"))?;
        println!(
            "recovered tenant `{namespace}`: durable through seq {durable}, \
             checkpoint now covers seq {covered}"
        );
    }
    Ok(())
}

/// Runs a read-only follower replica tailing `--primary`.
fn follow(args: &Args) -> Result<(), String> {
    let Some(primary) = &args.primary else {
        return Err("follow requires --primary HOST:PORT".to_string());
    };
    let engine = Arc::new(
        Engine::with_options(&default_spec(args), args.max_resident, None)
            .map_err(|e| format!("cannot build engine: {e}"))?
            .with_follower(args.max_lag),
    );
    let mut spec = FollowerSpec::new(primary.clone()).with_codec(args.codec);
    if let Some(namespace) = &args.namespace {
        spec = spec.with_namespace(namespace.clone());
    }
    let tail = start_follower(Arc::clone(&engine), spec)
        .map_err(|e| format!("cannot start follower: {e}"))?;
    let server = Server::bind(args.addr.as_str(), engine, None)
        .map_err(|e| format!("cannot bind `{}`: {e}", args.addr))?;
    let addr = server.local_addr().map_err(|e| e.to_string())?;
    println!(
        "skm-serve following {primary} on {addr} (cached reads only, lag bound {} records)",
        args.max_lag
    );
    let result = server.run().map_err(|e| format!("server failed: {e}"));
    tail.stop();
    result
}

/// Deterministic Gaussian-ish blobs for the bench subcommand (splitmix-style
/// hashing; no RNG crate needed in the binary).
fn blob_points(points: usize, dim: usize, k: usize, seed: u64) -> Vec<Vec<f64>> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
    let mut next = move || {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    (0..points)
        .map(|i| {
            let anchor = (i % k) as f64 * 50.0;
            (0..dim)
                .map(|d| anchor + next() + d as f64 * 0.01)
                .collect()
        })
        .collect()
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p / 100.0 * (sorted.len() - 1) as f64).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

fn bench(args: &Args) -> Result<(), String> {
    let addr = args
        .addr
        .to_socket_addrs()
        .map_err(|e| format!("cannot resolve `{}`: {e}", args.addr))?
        .next()
        .ok_or_else(|| format!("`{}` resolves to no address", args.addr))?;
    let points = blob_points(args.points, args.dim, args.k, args.seed);
    // The server rejects batches above the protocol limit outright; clamp
    // here so an oversized --batch degrades to the maximum instead of a
    // run where every request fails with BatchTooLarge.
    let batch = args.batch.min(MAX_BATCH_POINTS);
    if batch != args.batch {
        eprintln!(
            "--batch {} exceeds the protocol limit; clamped to {MAX_BATCH_POINTS}",
            args.batch
        );
    }
    let mut spec = LoadSpec::new(addr)
        .with_connections(args.connections)
        .with_batch(batch)
        .with_query_every(args.query_every)
        .with_freshness(args.freshness)
        .with_tenants(args.tenants, args.zipf_s)
        .with_codec(args.codec)
        .with_idle_conns(args.idle_conns);
    if let Some(follower) = &args.follower_of {
        let follower_addr = follower
            .to_socket_addrs()
            .map_err(|e| format!("cannot resolve follower `{follower}`: {e}"))?
            .next()
            .ok_or_else(|| format!("`{follower}` resolves to no address"))?;
        spec = spec.with_follower_of(follower_addr);
    }
    let report = run_load(&spec, &points).map_err(|e| format!("load generator failed: {e}"))?;
    let mut ingest = report.ingest_ns.clone();
    ingest.sort_by(f64::total_cmp);
    let mut query = report.query_ns.clone();
    query.sort_by(f64::total_cmp);
    println!(
        "sent {} points over {} connections, {} codec ({} ingest requests, {} queries, {} server errors)",
        report.points_sent,
        args.connections,
        args.codec.as_str(),
        ingest.len(),
        report.queries,
        report.server_errors
    );
    if args.idle_conns > 0 {
        println!(
            "held {} idle connections across the run (requested {})",
            report.idle_held, args.idle_conns
        );
    }
    println!(
        "ingest request latency: p50 {:>9.0} ns   p95 {:>9.0} ns   p99 {:>9.0} ns",
        percentile(&ingest, 50.0),
        percentile(&ingest, 95.0),
        percentile(&ingest, 99.0)
    );
    println!(
        "query latency:          p50 {:>9.0} ns   p95 {:>9.0} ns   p99 {:>9.0} ns",
        percentile(&query, 50.0),
        percentile(&query, 95.0),
        percentile(&query, 99.0)
    );
    if args.follower_of.is_some() {
        let mut follower_ns = report.follower_query_ns.clone();
        follower_ns.sort_by(f64::total_cmp);
        println!(
            "follower (cached) answered {} queries, refused {} for lag; \
             p50 {:>9.0} ns   p99 {:>9.0} ns",
            report.follower_queries,
            report.follower_lag_refusals,
            percentile(&follower_ns, 50.0),
            percentile(&follower_ns, 99.0)
        );
    }
    if report.server_errors > 0 {
        return Err(format!("{} server errors", report.server_errors));
    }
    if args.shutdown {
        let mut client =
            Client::connect(addr).map_err(|e| format!("cannot connect for shutdown: {e}"))?;
        client
            .shutdown()
            .map_err(|e| format!("shutdown request failed: {e}"))?;
    }
    Ok(())
}

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1);
    let subcommand = argv.next().unwrap_or_default();
    let args = parse_args(argv);
    if !args.errors.is_empty() {
        for e in &args.errors {
            eprintln!("{e}");
        }
        return ExitCode::FAILURE;
    }
    let result = match subcommand.as_str() {
        "serve" => serve(&args),
        "follow" => follow(&args),
        "recover" => recover(&args),
        "bench" => bench(&args),
        other => Err(format!(
            "unknown subcommand `{other}` (expected `serve`, `follow`, `recover` or `bench`)"
        )),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("skm-serve: {e}");
            ExitCode::FAILURE
        }
    }
}
