//! End-to-end acceptance for multi-tenant serving over TCP: namespace
//! isolation, wire-level back-compat of the omitted namespace, `Configure`
//! with custom per-tenant settings, the typed namespace/limit errors, and
//! transparent eviction/restore under live request traffic.

use skm_serve::engine::{Engine, EngineSpec};
use skm_serve::prelude::*;
use skm_serve::server::ServerHandle;

use std::path::PathBuf;
use std::sync::Arc;

fn spec() -> EngineSpec {
    EngineSpec::sharded_cc(
        StreamConfig::new(2)
            .with_bucket_size(20)
            .with_kmeans_runs(1)
            .with_lloyd_iterations(2),
        2,
        8,
        7,
    )
}

fn start_server() -> ServerHandle {
    let engine = Arc::new(Engine::new(&spec()).unwrap());
    Server::bind("127.0.0.1:0", engine, None)
        .unwrap()
        .spawn()
        .unwrap()
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "skm-mt-e2e-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Two well-separated blobs, offset per tenant so centers are tellable.
fn feed(client: &mut Client, n: usize, offset: f64) {
    feed_opts(client, &RequestOptions::new(), n, offset);
}

/// Like [`feed`], but addressed with explicit per-request options.
fn feed_opts(client: &mut Client, opts: &RequestOptions, n: usize, offset: f64) {
    for i in 0..n {
        let x = if i % 2 == 0 { 0.0 } else { 60.0 };
        client
            .ingest_opts(vec![x + offset, (i % 5) as f64 * 0.1], opts)
            .unwrap();
    }
}

/// Queries with explicit options and unwraps the centers.
fn centers_opts(client: &mut Client, opts: &RequestOptions) -> Vec<Vec<f64>> {
    match client.query_opts(opts).unwrap() {
        Response::Centers { centers, .. } => centers,
        other => panic!("query failed: {other:?}"),
    }
}

/// Successive strict queries re-run k-means from an advanced RNG position,
/// which can permute the returned rows; compare centers order-insensitively.
fn sorted(mut centers: Vec<Vec<f64>>) -> Vec<Vec<f64>> {
    centers.sort_by(|a, b| a.partial_cmp(b).unwrap());
    centers
}

fn expect_error(response: Response, code: ErrorCode) {
    match response {
        Response::Error { code: got, .. } => assert_eq!(got, code),
        other => panic!("expected {code:?} error, got {other:?}"),
    }
}

#[test]
fn tenants_are_isolated_and_the_default_is_untouched() {
    let handle = start_server();
    let mut alpha = Client::builder(handle.addr())
        .namespace("alpha")
        .connect()
        .unwrap();
    let mut beta = Client::builder(handle.addr())
        .namespace("beta")
        .connect()
        .unwrap();

    feed(&mut alpha, 60, 0.0);
    feed(&mut beta, 40, 1000.0);

    // Per-tenant counts are independent.
    assert_eq!(alpha.stats().unwrap().points_seen, 60);
    assert_eq!(beta.stats().unwrap().points_seen, 40);

    // Centers come from each tenant's own stream: beta's blobs live 1000
    // units away from alpha's.
    let alpha_centers = alpha.query_centers().unwrap();
    let beta_centers = beta.query_centers().unwrap();
    assert!(
        alpha_centers.iter().all(|c| c[0] < 500.0),
        "{alpha_centers:?}"
    );
    assert!(
        beta_centers.iter().all(|c| c[0] > 500.0),
        "{beta_centers:?}"
    );

    // The default tenant saw none of that traffic.
    let mut plain = Client::connect(handle.addr()).unwrap();
    match plain.query().unwrap() {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::EmptyStream),
        other => panic!("default tenant should be empty, got {other:?}"),
    }

    plain.shutdown().unwrap();
    handle.shutdown().unwrap();
}

#[test]
fn an_omitted_namespace_is_the_default_tenant() {
    let handle = start_server();
    // One client sends pre-tenancy requests (no namespace), the other
    // explicitly addresses `default`: both must hit the same stream.
    let mut plain = Client::connect(handle.addr()).unwrap();
    let mut explicit = Client::builder(handle.addr())
        .namespace(DEFAULT_NAMESPACE)
        .connect()
        .unwrap();

    feed(&mut plain, 30, 0.0);
    feed(&mut explicit, 30, 0.0);

    assert_eq!(plain.stats().unwrap().points_seen, 60);
    assert_eq!(explicit.stats().unwrap().points_seen, 60);
    let a = sorted(plain.query_centers().unwrap());
    let b = sorted(explicit.query_centers().unwrap());
    assert_eq!(a, b, "same tenant must serve both spellings");

    plain.shutdown().unwrap();
    handle.shutdown().unwrap();
}

#[test]
fn configure_creates_a_tenant_with_custom_settings_once() {
    let handle = start_server();
    let mut client = Client::builder(handle.addr())
        .namespace("big")
        .connect()
        .unwrap();

    // k=3 on the single-threaded CC backend, overriding the server default
    // (k=2 sharded).
    let config = TenantConfig {
        k: Some(3),
        backend: Some("cc".to_string()),
        ..TenantConfig::default()
    };
    match client.configure(config.clone()).unwrap() {
        Response::Configured {
            namespace,
            backend,
            k,
            shards,
        } => {
            assert_eq!(namespace, "big");
            assert_eq!(backend, "cc");
            assert_eq!(k, 3);
            assert_eq!(shards, 1);
        }
        other => panic!("configure failed: {other:?}"),
    }

    // The stream really runs with k=3.
    for i in 0..120 {
        let x = [0.0, 60.0, 120.0][i % 3];
        client.ingest(vec![x, (i % 5) as f64 * 0.1]).unwrap();
    }
    assert_eq!(client.query_centers().unwrap().len(), 3);

    // A second Configure on the same tenant is refused — even with the
    // same settings (create-once semantics, not upsert).
    expect_error(client.configure(config).unwrap(), ErrorCode::TenantExists);
    // The default tenant pre-exists, so it can never be configured.
    let mut plain = Client::connect(handle.addr()).unwrap();
    expect_error(
        plain.configure(TenantConfig::default()).unwrap(),
        ErrorCode::TenantExists,
    );
    // Unknown backend tags and k=0 are malformed, not tenant errors.
    let mut bad = Client::builder(handle.addr())
        .namespace("oops")
        .connect()
        .unwrap();
    expect_error(
        bad.configure(TenantConfig {
            backend: Some("quantum".to_string()),
            ..TenantConfig::default()
        })
        .unwrap(),
        ErrorCode::MalformedRequest,
    );
    expect_error(
        bad.configure(TenantConfig {
            k: Some(0),
            ..TenantConfig::default()
        })
        .unwrap(),
        ErrorCode::MalformedRequest,
    );

    plain.shutdown().unwrap();
    handle.shutdown().unwrap();
}

#[test]
fn configure_rejects_out_of_range_sizes_as_malformed() {
    // An oversized `k` or `batch` used to create the tenant, and its first
    // ingest or strict query then aborted the whole server on a huge
    // allocation; zero or too many shards came back as `Internal`. Nothing
    // is ingested here, so a regression fails an assertion, not the
    // process. Limits: k <= 1024, shards <= 256, batch <= 4096.
    let handle = start_server();
    let mut client = Client::builder(handle.addr())
        .namespace("sized")
        .connect()
        .unwrap();
    let oversized = [
        TenantConfig {
            k: Some(1 << 30),
            ..TenantConfig::default()
        },
        TenantConfig {
            k: Some(1025),
            backend: Some("cc".to_string()),
            ..TenantConfig::default()
        },
        TenantConfig {
            batch: Some(1 << 40),
            ..TenantConfig::default()
        },
        TenantConfig {
            batch: Some(4097),
            ..TenantConfig::default()
        },
        TenantConfig {
            batch: Some(0),
            ..TenantConfig::default()
        },
        TenantConfig {
            shards: Some(0),
            ..TenantConfig::default()
        },
        TenantConfig {
            shards: Some(257),
            ..TenantConfig::default()
        },
        TenantConfig {
            shards: Some(100_000),
            ..TenantConfig::default()
        },
    ];
    for config in oversized {
        expect_error(
            client.configure(config).unwrap(),
            ErrorCode::MalformedRequest,
        );
    }
    // A rejected Configure creates nothing, and the limits themselves are
    // accepted for the same namespace.
    let at_limits = TenantConfig {
        k: Some(1024),
        shards: Some(1),
        batch: Some(4096),
        ..TenantConfig::default()
    };
    match client.configure(at_limits).unwrap() {
        Response::Configured { k, shards, .. } => {
            assert_eq!(k, 1024);
            assert_eq!(shards, 1);
        }
        other => panic!("configure at the limits failed: {other:?}"),
    }
    client.shutdown().unwrap();
    handle.shutdown().unwrap();
}

#[test]
fn escaping_and_oversized_namespaces_get_the_typed_error() {
    let handle = start_server();
    let mut client = Client::connect(handle.addr()).unwrap();
    for bad in ["../evil", "a/b", "a\\b", "", ".", ".."] {
        let opts = RequestOptions::new().with_namespace(bad);
        expect_error(
            client.ingest_opts(vec![1.0, 2.0], &opts).unwrap(),
            ErrorCode::BadNamespace,
        );
        expect_error(client.query_opts(&opts).unwrap(), ErrorCode::BadNamespace);
    }
    let oversized = RequestOptions::new().with_namespace("x".repeat(129));
    expect_error(
        client.ingest_opts(vec![1.0, 2.0], &oversized).unwrap(),
        ErrorCode::BadNamespace,
    );

    // The connection survives every rejection, and a valid namespace works.
    let fine = RequestOptions::new().with_namespace("fine");
    match client.ingest_opts(vec![1.0, 2.0], &fine).unwrap() {
        Response::Ingested { accepted, .. } => assert_eq!(accepted, 1),
        other => panic!("valid namespace refused: {other:?}"),
    }
    client.shutdown().unwrap();
    handle.shutdown().unwrap();
}

#[test]
fn the_tenant_limit_is_a_typed_error_without_an_eviction_directory() {
    // Cap 2 and no directory: default + one tenant fit, the next is refused.
    let engine = Arc::new(Engine::with_options(&spec(), 2, None).unwrap());
    let handle = Server::bind("127.0.0.1:0", engine, None)
        .unwrap()
        .spawn()
        .unwrap();
    let mut client = Client::builder(handle.addr())
        .namespace("t1")
        .connect()
        .unwrap();
    feed(&mut client, 10, 0.0);
    let t2 = RequestOptions::new().with_namespace("t2");
    expect_error(
        client.ingest_opts(vec![1.0, 2.0], &t2).unwrap(),
        ErrorCode::TenantLimit,
    );
    // Existing tenants keep serving (the client's default namespace).
    assert_eq!(client.stats().unwrap().points_seen, 10);
    client.shutdown().unwrap();
    handle.shutdown().unwrap();
}

#[test]
fn eviction_and_restore_are_transparent_under_live_traffic() {
    // Cap 2 with an eviction directory: ping-ponging between tenants pages
    // them in and out underneath the protocol without any visible effect.
    let dir = temp_dir("live");
    let engine = Arc::new(Engine::with_options(&spec(), 2, Some(dir.clone())).unwrap());
    let handle = Server::bind("127.0.0.1:0", Arc::clone(&engine), None)
        .unwrap()
        .spawn()
        .unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    let hot = RequestOptions::new().with_namespace("hot");
    let cold = RequestOptions::new().with_namespace("cold");

    feed_opts(&mut client, &hot, 40, 0.0);
    let hot_before = sorted(centers_opts(&mut client, &hot));

    // Creating `cold` forces an eviction (cap 2: default + one): the
    // victim is whichever of {default, hot} is colder — touch default so
    // `hot` is paged out.
    let mut plain = Client::connect(handle.addr()).unwrap();
    let _ = plain.query(); // touches default (EmptyStream is fine)
    feed_opts(&mut client, &cold, 20, 1000.0);
    assert!(engine.is_evicted_to_disk("hot"));

    // Going back to `hot` restores it mid-connection; counts, centers and
    // further ingestion all continue as if nothing happened.
    assert_eq!(client.stats_opts(&hot).unwrap().points_seen, 40);
    assert_eq!(sorted(centers_opts(&mut client, &hot)), hot_before);
    feed_opts(&mut client, &hot, 10, 0.0);
    assert_eq!(client.stats_opts(&hot).unwrap().points_seen, 50);

    client.shutdown().unwrap();
    handle.shutdown().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}
