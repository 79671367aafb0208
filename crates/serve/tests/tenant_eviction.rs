//! Acceptance for snapshot-backed tenant eviction: paging a tenant out to
//! disk and transparently restoring it on the next touch must be invisible
//! to the tenant — bit-identical centers, continued epoch sequence — and
//! the LRU policy must pick the coldest resident tenant.

use skm_serve::engine::{evict_file_name, BackendKind, Engine, EngineSpec};
use skm_serve::protocol::{Freshness, DEFAULT_NAMESPACE};
use skm_serve::{Client, RequestOptions, Response, Server};
use skm_stream::StreamConfig;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn spec(kind: BackendKind, seed: u64, shards: usize, batch: usize) -> EngineSpec {
    EngineSpec {
        kind,
        stream: StreamConfig::new(2)
            .with_bucket_size(20)
            .with_kmeans_runs(1)
            .with_lloyd_iterations(2),
        shards,
        batch,
        nesting_depth: 2,
        seed,
    }
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "skm-evict-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The deterministic two-blob stream every test feeds (same shape as the
/// engine unit tests, offset so tenants can be told apart).
fn point(i: usize, offset: f64) -> [f64; 2] {
    let x = if i.is_multiple_of(2) { 0.0 } else { 60.0 };
    [x + offset, (i % 5) as f64 * 0.1]
}

fn feed_range(engine: &Engine, namespace: &str, range: std::ops::Range<usize>, offset: f64) {
    for i in range {
        engine.ingest_in(namespace, &point(i, offset)).unwrap();
    }
}

/// The tentpole property: for every (seed, shards, batch) in the grid, a
/// tenant that is evicted to disk mid-stream and transparently restored
/// answers exactly like a twin that was never evicted — same centers bit
/// for bit, same points_seen, same republished epoch.
#[test]
fn evict_restore_continue_is_bit_identical_to_an_uninterrupted_twin() {
    for (seed, shards, batch) in [(7u64, 2usize, 8usize), (11, 1, 16), (23, 4, 4)] {
        let tag = format!("prop-{seed}-{shards}-{batch}");
        let dir = temp_dir(&tag);
        let spec = spec(BackendKind::ShardedCc, seed, shards, batch);

        // Twin B: never evicted (cap high enough for everything).
        let twin = Engine::with_options(&spec, 64, None).unwrap();
        // Engine A: cap 2 (default + one more), eviction directory set.
        let engine = Engine::with_options(&spec, 2, Some(dir.clone())).unwrap();

        // Identical prefix into tenant `x` on both, with a mid-stream
        // strict query so the published epoch is non-zero before eviction.
        feed_range(&engine, "x", 0..137, 0.0);
        feed_range(&twin, "x", 0..137, 0.0);
        let a1 = engine.query_in("x", Freshness::Strict).unwrap();
        let b1 = twin.query_in("x", Freshness::Strict).unwrap();
        assert_eq!(a1.centers, b1.centers, "({seed},{shards},{batch}) prefix");
        assert_eq!(a1.epoch, 1);

        // Make `x` the LRU on A (touch default), then create `y`: the map
        // is at its cap, so `x` is paged out to disk.
        let _ = engine.points_seen_in(DEFAULT_NAMESPACE);
        engine.ingest_in("y", &point(0, 500.0)).unwrap();
        assert!(
            engine.is_evicted_to_disk("x"),
            "({seed},{shards},{batch}) expected x on disk"
        );
        assert!(dir.join(evict_file_name("x")).exists());
        assert!(!engine.resident_tenants().contains(&"x".to_string()));

        // Continue the identical suffix on both. Touching `x` on A
        // restores it transparently (and removes the evict file).
        feed_range(&engine, "x", 137..300, 0.0);
        feed_range(&twin, "x", 137..300, 0.0);
        assert!(
            !dir.join(evict_file_name("x")).exists(),
            "({seed},{shards},{batch}) evict file must be deleted on restore"
        );

        let a2 = engine.query_in("x", Freshness::Strict).unwrap();
        let b2 = twin.query_in("x", Freshness::Strict).unwrap();
        assert_eq!(
            a2.centers, b2.centers,
            "({seed},{shards},{batch}) evict→restore→continue diverged"
        );
        assert_eq!(a2.points_seen, 300);
        assert_eq!(b2.points_seen, 300);
        assert_eq!(
            a2.epoch, b2.epoch,
            "({seed},{shards},{batch}) epoch sequence must survive eviction"
        );
        assert_eq!(a2.epoch, 2, "strict query after restore republishes");

        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Single-threaded backends round-trip through eviction too (they share
/// the same envelope but a different state payload).
#[test]
fn single_threaded_backends_survive_eviction_bit_identically() {
    for kind in [BackendKind::Cc, BackendKind::Ct, BackendKind::Rcc] {
        let dir = temp_dir(&format!("kind-{}", kind.tag()));
        let spec = spec(kind, 7, 2, 8);
        let twin = Engine::with_options(&spec, 64, None).unwrap();
        let engine = Engine::with_options(&spec, 2, Some(dir.clone())).unwrap();

        feed_range(&engine, "x", 0..90, 0.0);
        feed_range(&twin, "x", 0..90, 0.0);
        let _ = engine.points_seen_in(DEFAULT_NAMESPACE);
        engine.ingest_in("y", &point(0, 500.0)).unwrap();
        assert!(engine.is_evicted_to_disk("x"), "{kind:?}");

        feed_range(&engine, "x", 90..200, 0.0);
        feed_range(&twin, "x", 90..200, 0.0);
        let restored = engine.query_in("x", Freshness::Strict).unwrap();
        let reference = twin.query_in("x", Freshness::Strict).unwrap();
        assert_eq!(restored.centers, reference.centers, "{kind:?}");
        assert_eq!(restored.epoch, reference.epoch, "{kind:?}");

        std::fs::remove_dir_all(&dir).ok();
    }
}

/// The LRU policy pages out the least-recently-touched tenant, not an
/// arbitrary one.
#[test]
fn the_least_recently_touched_tenant_is_the_victim() {
    let dir = temp_dir("lru-victim");
    // Cap 3: default + two more stay resident.
    let engine =
        Engine::with_options(&spec(BackendKind::Cc, 7, 1, 8), 3, Some(dir.clone())).unwrap();
    feed_range(&engine, "a", 0..30, 0.0);
    feed_range(&engine, "b", 0..30, 100.0);
    // Touch order now (coldest first): default, a, b. Refresh default so
    // `a` becomes the coldest resident — and therefore the victim.
    let _ = engine.points_seen_in(DEFAULT_NAMESPACE);
    engine.ingest_in("c", &point(0, 200.0)).unwrap();
    assert!(engine.is_evicted_to_disk("a"), "expected `a` paged out");
    assert!(!engine.is_evicted_to_disk("b"));
    let resident = engine.resident_tenants();
    assert!(resident.contains(&"b".to_string()), "{resident:?}");
    assert!(resident.contains(&"c".to_string()), "{resident:?}");
    std::fs::remove_dir_all(&dir).ok();
}

/// Without an eviction directory the resident cap is a hard limit: the
/// engine refuses new tenants instead of silently dropping state.
#[test]
fn the_cap_is_hard_without_an_eviction_directory() {
    let engine = Engine::with_options(&spec(BackendKind::Cc, 7, 1, 8), 2, None).unwrap();
    feed_range(&engine, "a", 0..10, 0.0);
    let err = engine.ingest_in("b", &point(0, 100.0)).unwrap_err();
    assert!(
        matches!(
            err,
            skm_clustering::error::ClusteringError::InvalidParameter {
                name: "tenant_limit",
                ..
            }
        ),
        "{err:?}"
    );
    // The existing tenants keep working.
    feed_range(&engine, "a", 10..20, 0.0);
    assert_eq!(engine.points_seen_in("a").unwrap(), 20);
}

/// The server's timer-driven idle sweep (`--idle-evict-secs` on the CLI,
/// [`Server::with_idle_evict`] in-process) pages a quiet tenant out to
/// disk without any client traffic, and the next touch restores it with
/// its published answer intact.
#[test]
fn the_server_sweeps_idle_tenants_to_disk_and_restores_them_on_touch() {
    let dir = temp_dir("idle-sweep");
    let engine = Arc::new(
        Engine::with_options(&spec(BackendKind::ShardedCc, 7, 2, 8), 8, Some(dir.clone())).unwrap(),
    );
    let server = Server::bind("127.0.0.1:0", Arc::clone(&engine), None)
        .unwrap()
        .with_idle_evict(Duration::from_millis(200))
        .spawn()
        .unwrap();

    let mut client = Client::builder(server.addr())
        .namespace("x")
        .connect()
        .unwrap();
    for i in 0..120 {
        client.ingest(point(i, 0.0).to_vec()).unwrap();
    }
    let published = match client.query().unwrap() {
        Response::Centers { centers, epoch, .. } => (centers, epoch),
        other => panic!("strict query answered {other:?}"),
    };

    // No traffic at all now: the sweep alone must page `x` out.
    let deadline = Instant::now() + Duration::from_secs(10);
    while !engine.is_evicted_to_disk("x") {
        assert!(
            Instant::now() < deadline,
            "idle sweep never paged the quiet tenant out"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
    assert!(dir.join(evict_file_name("x")).exists());

    // The next cached read restores it transparently, answer intact.
    match client.query_opts(&RequestOptions::cached()).unwrap() {
        Response::Centers { centers, epoch, .. } => {
            assert_eq!((centers, epoch), published, "restore changed the answer");
        }
        other => panic!("cached query after restore answered {other:?}"),
    }
    assert!(!engine.is_evicted_to_disk("x"));

    client.shutdown().unwrap();
    server.shutdown().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

/// Cached reads also restore an evicted tenant (the published slot is part
/// of the envelope, so the cached answer survives the round trip).
#[test]
fn cached_reads_survive_eviction() {
    let dir = temp_dir("cached");
    let engine =
        Engine::with_options(&spec(BackendKind::ShardedCc, 7, 2, 8), 2, Some(dir.clone())).unwrap();
    feed_range(&engine, "x", 0..120, 0.0);
    let published = engine.query_in("x", Freshness::Strict).unwrap();
    let _ = engine.points_seen_in(DEFAULT_NAMESPACE);
    engine.ingest_in("y", &point(0, 500.0)).unwrap();
    assert!(engine.is_evicted_to_disk("x"));

    let cached = engine.query_in("x", Freshness::Cached).unwrap();
    assert_eq!(cached.epoch, published.epoch);
    assert_eq!(cached.centers, published.centers);
    assert_eq!(cached.points_seen, published.points_seen);
    std::fs::remove_dir_all(&dir).ok();
}
