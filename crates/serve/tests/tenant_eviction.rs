//! Acceptance for tenant eviction: paging a tenant out to disk and
//! transparently restoring it on the next touch must be invisible to the
//! tenant — bit-identical centers, continued epoch sequence — on every
//! backend, through eviction files and through a write-ahead log. The
//! victim is the coldest resident: the smallest touch count, aged by
//! halving every [`AGING_TOUCHES`] touches, and among equal counts the
//! least recently touched. Paging a clean WAL tenant in and out writes
//! nothing to its log.

use skm_serve::engine::{
    evict_file_name, BackendKind, Engine, EngineSpec, Residency, WalConfig, AGING_TOUCHES,
};
use skm_serve::protocol::{Freshness, DEFAULT_NAMESPACE};
use skm_serve::{Client, RequestOptions, Response, Server};
use skm_stream::StreamConfig;
use std::collections::{BTreeMap, HashSet};
use std::path::{Path, PathBuf};
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
        // Engine A: cap 1, eviction directory set.
        let engine = Engine::with_options(&spec, 1, Some(dir.clone())).unwrap();

        // Identical prefix into tenant `x` on both, with a mid-stream
        // strict query so the published epoch is non-zero before eviction.
        feed_range(&engine, "x", 0..137, 0.0);
        feed_range(&twin, "x", 0..137, 0.0);
        let a1 = engine.query_in("x", Freshness::Strict).unwrap();
        let b1 = twin.query_in("x", Freshness::Strict).unwrap();
        assert_eq!(a1.centers, b1.centers, "({seed},{shards},{batch}) prefix");
        assert_eq!(a1.epoch, 1);

        // Create `y`: `x` is the only resident, so it is paged out to
        // disk.
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
        // Cap 1: `x` is the only resident when `y` arrives.
        let engine = Engine::with_options(&spec, 1, Some(dir.clone())).unwrap();

        feed_range(&engine, "x", 0..90, 0.0);
        feed_range(&twin, "x", 0..90, 0.0);
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

/// Touches `namespace` `n` times without changing its state.
fn touch(engine: &Engine, namespace: &str, n: usize) {
    for _ in 0..n {
        engine.points_seen_in(namespace).unwrap();
    }
}

fn resident(engine: &Engine, namespace: &str) -> bool {
    engine.resident_tenants().iter().any(|n| n == namespace)
}

/// Frequency beats recency: a tenant touched once, however recently,
/// goes before one touched often.
#[test]
fn a_tenant_touched_often_outlives_one_touched_once_more_recently() {
    let dir = temp_dir("freq-victim");
    // Cap 3: default + two more stay resident.
    let engine =
        Engine::with_options(&spec(BackendKind::Cc, 7, 1, 8), 3, Some(dir.clone())).unwrap();
    touch(&engine, "hot", 10);
    touch(&engine, DEFAULT_NAMESPACE, 5);
    touch(&engine, "once", 1);
    // LRU would page `hot` out here; `once` has the smallest count.
    touch(&engine, "new", 1);
    assert!(
        engine.is_evicted_to_disk("once"),
        "expected `once` paged out"
    );
    for namespace in ["hot", DEFAULT_NAMESPACE, "new"] {
        assert!(resident(&engine, namespace), "{namespace}");
    }
    assert_eq!(engine.residency().page_outs, 1);
    std::fs::remove_dir_all(&dir).ok();
}

/// With equal counts the policy is LRU.
#[test]
fn with_equal_counts_the_least_recently_touched_tenant_is_the_victim() {
    let dir = temp_dir("lru-tie");
    let engine =
        Engine::with_options(&spec(BackendKind::Cc, 7, 1, 8), 3, Some(dir.clone())).unwrap();
    touch(&engine, "a", 3);
    touch(&engine, "b", 3);
    touch(&engine, DEFAULT_NAMESPACE, 3);
    touch(&engine, "c", 1);
    assert!(engine.is_evicted_to_disk("a"), "expected `a` paged out");
    for namespace in ["b", DEFAULT_NAMESPACE, "c"] {
        assert!(resident(&engine, namespace), "{namespace}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Counts age: a tenant that was hot and went quiet becomes the victim
/// once its count has halved below the tenants still in use.
#[test]
fn a_formerly_hot_tenant_that_goes_quiet_becomes_the_victim() {
    let dir = temp_dir("aged-victim");
    let engine =
        Engine::with_options(&spec(BackendKind::Cc, 7, 1, 8), 3, Some(dir.clone())).unwrap();
    touch(&engine, "hot", 50);
    touch(&engine, "warm", 5);
    touch(&engine, "first", 1);
    assert!(engine.is_evicted_to_disk(DEFAULT_NAMESPACE));
    assert!(resident(&engine, "hot"), "hot while hot");
    // Four aging periods of traffic elsewhere halve `hot`'s 50 four times,
    // to 3, while `warm` and `first` gather about 2,000 each.
    for _ in 0..2 * AGING_TOUCHES {
        touch(&engine, "warm", 1);
        touch(&engine, "first", 1);
    }
    touch(&engine, "second", 1);
    assert!(engine.is_evicted_to_disk("hot"), "expected `hot` paged out");
    assert!(resident(&engine, "warm") && resident(&engine, "first"));
    assert_eq!(engine.residency().page_outs, 2);
    std::fs::remove_dir_all(&dir).ok();
}

/// A paged-out tenant keeps its count: a hot tenant paged out once comes
/// back hot, so the next miss pages out a colder tenant instead. Had the
/// page-out forgotten its count, `hot` would come back with 1 touch and
/// be the next victim.
#[test]
fn a_hot_tenant_paged_out_once_keeps_its_count() {
    let dir = temp_dir("kept-count");
    let engine =
        Engine::with_options(&spec(BackendKind::Cc, 7, 1, 8), 2, Some(dir.clone())).unwrap();
    touch(&engine, "hot", 50);
    // The idle sweep pages out everything untouched for over 0 ms.
    std::thread::sleep(Duration::from_millis(5));
    let mut swept = engine.evict_idle(Duration::ZERO).unwrap();
    swept.sort();
    assert_eq!(swept, vec![DEFAULT_NAMESPACE, "hot"]);
    touch(&engine, "a", 5);
    touch(&engine, "hot", 1);
    touch(&engine, "b", 1);
    assert!(engine.is_evicted_to_disk("a"), "expected `a` paged out");
    assert!(resident(&engine, "hot"), "`hot` lost its count at page-out");
    assert_eq!(
        engine.residency(),
        Residency {
            page_ins: 1,
            page_outs: 3,
            clean_page_outs: 0,
        }
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// On a skewed trace shaped like the tenants-wal benchmark's (32 tenants,
/// Zipf(1.5), 8 resident) the aged-frequency policy pages in fewer
/// tenants than LRU does on the same trace.
#[test]
fn on_a_zipf_trace_the_engine_pages_in_fewer_tenants_than_lru() {
    const TENANTS: usize = 32;
    const CAP: usize = 8;
    const TOUCHES: usize = 20_000;
    let weights: Vec<f64> = (1..=TENANTS).map(|r| (r as f64).powf(-1.5)).collect();
    let total: f64 = weights.iter().sum();
    let mut state = 0x2545_F491_4F6C_DD1Du64;
    let trace: Vec<String> = (0..TOUCHES)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let mut u = (state >> 11) as f64 / (1u64 << 53) as f64 * total;
            let rank = weights
                .iter()
                .position(|w| {
                    u -= w;
                    u < 0.0
                })
                .unwrap_or(TENANTS - 1);
            format!("t{rank}")
        })
        .collect();

    // LRU over the same trace, from the engine's start: `default`
    // resident. A page-in is a miss on a tenant touched before.
    let mut lru: Vec<&str> = vec![DEFAULT_NAMESPACE];
    let mut seen = HashSet::new();
    let mut lru_page_ins = 0u64;
    for namespace in &trace {
        match lru.iter().position(|n| n == namespace) {
            Some(at) => {
                lru.remove(at);
            }
            None => {
                if lru.len() == CAP {
                    lru.remove(0);
                }
                if seen.contains(namespace) {
                    lru_page_ins += 1;
                }
            }
        }
        seen.insert(namespace);
        lru.push(namespace);
    }

    let dir = temp_dir("zipf-trace");
    let engine =
        Engine::with_options(&spec(BackendKind::Cc, 7, 1, 8), CAP, Some(dir.clone())).unwrap();
    for namespace in &trace {
        touch(&engine, namespace, 1);
    }
    let page_ins = engine.residency().page_ins;
    assert!(
        page_ins < lru_page_ins,
        "{page_ins} page-ins against LRU's {lru_page_ins}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Every file in `dir` by name, with its bytes.
fn dir_image(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    std::fs::read_dir(dir)
        .unwrap()
        .map(|entry| {
            let entry = entry.unwrap();
            let name = entry.file_name().into_string().unwrap();
            (name, std::fs::read(entry.path()).unwrap())
        })
        .collect()
}

/// Copies a log root (one directory per tenant) to `to`: what a crash at
/// this point would leave on disk, since the log only counts on what it
/// has written.
fn copy_log_root(from: &Path, to: &Path) {
    for tenant in std::fs::read_dir(from).unwrap() {
        let tenant = tenant.unwrap().path();
        let target = to.join(tenant.file_name().unwrap());
        std::fs::create_dir_all(&target).unwrap();
        for (name, bytes) in dir_image(&tenant) {
            std::fs::write(target.join(name), bytes).unwrap();
        }
    }
}

/// With a write-ahead log, a read-only page-in and the page-out after it
/// write nothing to the tenant's log, and the tenant still continues
/// bit-identically — in process, and after a crash right after the skipped
/// page-out — on all four backends.
#[test]
fn clean_wal_tenants_page_in_and_out_without_writing() {
    for kind in [
        BackendKind::ShardedCc,
        BackendKind::Cc,
        BackendKind::Ct,
        BackendKind::Rcc,
    ] {
        let root = temp_dir(&format!("clean-{}", kind.tag()));
        std::fs::remove_dir_all(&root).ok();
        let crashed = root.join("crashed");
        let wal = WalConfig::new(root.join("log"));
        let spec = spec(kind, 7, 2, 8);
        let twin = Engine::with_options(&spec, 64, None).unwrap();
        // Cap 1: a touch of any other tenant pages `x` out.
        let engine = Engine::with_options(&spec, 1, None)
            .unwrap()
            .with_wal(wal.clone())
            .unwrap();
        feed_range(&engine, "x", 0..90, 0.0);
        feed_range(&twin, "x", 0..90, 0.0);
        let published = engine.query_in("x", Freshness::Strict).unwrap();
        twin.query_in("x", Freshness::Strict).unwrap();

        // `x` has logged records since its checkpoint: its page-out
        // checkpoints it.
        engine.ingest_in("y", &point(0, 500.0)).unwrap();
        let image = dir_image(&wal.tenant_dir("x"));
        // A cached read pages `x` in and changes nothing; paging it out
        // again skips the checkpoint.
        let cached = engine.query_in("x", Freshness::Cached).unwrap();
        assert_eq!(cached, published, "{kind:?}");
        assert_eq!(dir_image(&wal.tenant_dir("x")), image, "{kind:?}: page-in");
        engine.ingest_in("y", &point(1, 500.0)).unwrap();
        assert_eq!(dir_image(&wal.tenant_dir("x")), image, "{kind:?}: page-out");
        // Page-outs: default (clean, only its checkpoint 0), x (dirty),
        // y (dirty), x (clean). Page-ins: x, then y.
        assert_eq!(
            engine.residency(),
            Residency {
                page_ins: 2,
                page_outs: 4,
                clean_page_outs: 2,
            },
            "{kind:?}"
        );
        copy_log_root(&wal.dir, &crashed);

        // Both the live engine and one recovered from the crash image
        // continue `x` exactly like the twin that never paged.
        let recovered = Engine::with_options(&spec, 1, None)
            .unwrap()
            .with_wal(WalConfig::new(crashed.clone()))
            .unwrap();
        feed_range(&twin, "x", 90..200, 0.0);
        let reference = twin.query_in("x", Freshness::Strict).unwrap();
        for (engine, label) in [(&engine, "live"), (&recovered, "recovered")] {
            feed_range(engine, "x", 90..200, 0.0);
            let answer = engine.query_in("x", Freshness::Strict).unwrap();
            assert_eq!(answer.centers, reference.centers, "{kind:?} {label}");
            assert_eq!(answer.epoch, reference.epoch, "{kind:?} {label}");
            assert_eq!(answer.points_seen, 200, "{kind:?} {label}");
        }

        drop((engine, recovered));
        std::fs::remove_dir_all(&root).ok();
    }
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
    // Cap 1: `x` is the only resident when `y` arrives.
    let engine =
        Engine::with_options(&spec(BackendKind::ShardedCc, 7, 2, 8), 1, Some(dir.clone())).unwrap();
    feed_range(&engine, "x", 0..120, 0.0);
    let published = engine.query_in("x", Freshness::Strict).unwrap();
    engine.ingest_in("y", &point(0, 500.0)).unwrap();
    assert!(engine.is_evicted_to_disk("x"));

    let cached = engine.query_in("x", Freshness::Cached).unwrap();
    assert_eq!(cached.epoch, published.epoch);
    assert_eq!(cached.centers, published.centers);
    assert_eq!(cached.points_seen, published.points_seen);
    std::fs::remove_dir_all(&dir).ok();
}
