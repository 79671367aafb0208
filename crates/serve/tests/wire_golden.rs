//! Golden JSON bytes: the exact line of every `Request` and `Response`
//! variant, with each optional field both absent and present, and the
//! snapshot form of `PublishedClustering` with and without a window.
//!
//! These pins are what make the serde layer safe to refactor: a renamed,
//! reordered, newly emitted or newly omitted field fails here before it can
//! reach a client, a snapshot file or a WAL checkpoint. The parse side pins
//! the three tolerance rules of the protocol: an omitted field and an
//! explicit `null` read the same, unknown keys are ignored, and a field of
//! the wrong type is an error.

use skm_clustering::Centers;
use skm_serve::protocol::{
    ErrorCode, Freshness, ReplicationRecord, Request, Response, TenantConfig, WindowSpec,
};
use skm_stream::{PublishedClustering, QueryStats, StreamStats, WindowInfo};

/// Asserts `request` encodes to exactly `line` and `line` parses back to it.
fn pin_request(line: &str, request: &Request) {
    assert_eq!(request.to_line(), line);
    assert_eq!(&Request::from_line(line).unwrap(), request, "{line}");
}

/// Asserts `response` encodes to exactly `line` and `line` parses back to it.
fn pin_response(line: &str, response: &Response) {
    assert_eq!(response.to_line(), line);
    assert_eq!(&Response::from_line(line).unwrap(), response, "{line}");
}

fn query(freshness: Freshness, namespace: Option<&str>, window: Option<WindowSpec>) -> Request {
    Request::Query {
        freshness,
        namespace: namespace.map(str::to_string),
        window,
    }
}

fn stats(freshness: Freshness, namespace: Option<&str>, window: Option<WindowSpec>) -> Request {
    Request::Stats {
        freshness,
        namespace: namespace.map(str::to_string),
        window,
    }
}

fn window(last_points: Option<i128>, last_secs: Option<f64>) -> Option<WindowSpec> {
    Some(WindowSpec {
        last_points,
        last_secs,
    })
}

fn configure(namespace: Option<&str>, config: TenantConfig) -> Request {
    Request::Configure {
        namespace: namespace.map(str::to_string),
        config,
    }
}

fn query_stats(coreset_level: Option<u32>) -> QueryStats {
    QueryStats {
        coresets_merged: 4,
        candidate_points: 80,
        coreset_level,
        used_cache: true,
        ran_kmeans: false,
    }
}

const QUERY_STATS_JSON: &str = r#"{"coresets_merged":4,"candidate_points":80,"coreset_level":2,"used_cache":true,"ran_kmeans":false}"#;

fn stream_stats() -> StreamStats {
    StreamStats {
        points_seen: 100,
        shards: 2,
        per_shard_points: vec![60, 40],
        last_query: None,
    }
}

const STREAM_STATS_JSON: &str =
    r#"{"points_seen":100,"shards":2,"per_shard_points":[60,40],"last_query":null}"#;

#[test]
fn every_request_variant_has_pinned_json_bytes() {
    pin_request(
        r#"{"Hello":{"codec":"binary"}}"#,
        &Request::Hello {
            codec: "binary".to_string(),
        },
    );

    pin_request(
        r#"{"Ingest":{"point":[1,-2.5]}}"#,
        &Request::Ingest {
            point: vec![1.0, -2.5],
            namespace: None,
        },
    );
    pin_request(
        r#"{"Ingest":{"point":[1,-2.5],"namespace":"t1"}}"#,
        &Request::Ingest {
            point: vec![1.0, -2.5],
            namespace: Some("t1".to_string()),
        },
    );

    pin_request(
        r#"{"IngestBatch":{"points":[[0.5,0.25],[3,4]]}}"#,
        &Request::IngestBatch {
            points: vec![vec![0.5, 0.25], vec![3.0, 4.0]],
            namespace: None,
        },
    );
    pin_request(
        r#"{"IngestBatch":{"points":[],"namespace":"t1"}}"#,
        &Request::IngestBatch {
            points: Vec::new(),
            namespace: Some("t1".to_string()),
        },
    );

    // Query: freshness is always written; namespace and window only when
    // present, in that order.
    pin_request(
        r#"{"Query":{"freshness":"strict"}}"#,
        &query(Freshness::Strict, None, None),
    );
    pin_request(
        r#"{"Query":{"freshness":"cached","namespace":"t1"}}"#,
        &query(Freshness::Cached, Some("t1"), None),
    );
    pin_request(
        r#"{"Query":{"freshness":"strict","window":{"last_points":100}}}"#,
        &query(Freshness::Strict, None, Some(WindowSpec::points(100))),
    );
    pin_request(
        r#"{"Query":{"freshness":"cached","namespace":"t1","window":{"last_secs":2.5}}}"#,
        &query(Freshness::Cached, Some("t1"), Some(WindowSpec::secs(2.5))),
    );
    // Integral seconds print without a fraction and read back as a float.
    pin_request(
        r#"{"Query":{"freshness":"strict","window":{"last_secs":60}}}"#,
        &query(Freshness::Strict, None, Some(WindowSpec::secs(60.0))),
    );
    // The carrier admits invalid windows (both, neither, non-positive,
    // beyond u64) so validation can answer them with a typed error.
    pin_request(
        r#"{"Query":{"freshness":"strict","window":{"last_points":7,"last_secs":1.5}}}"#,
        &query(Freshness::Strict, None, window(Some(7), Some(1.5))),
    );
    pin_request(
        r#"{"Query":{"freshness":"strict","window":{}}}"#,
        &query(Freshness::Strict, None, window(None, None)),
    );
    pin_request(
        r#"{"Query":{"freshness":"strict","window":{"last_points":-3}}}"#,
        &query(Freshness::Strict, None, window(Some(-3), None)),
    );
    pin_request(
        r#"{"Query":{"freshness":"strict","window":{"last_points":0}}}"#,
        &query(Freshness::Strict, None, window(Some(0), None)),
    );
    pin_request(
        r#"{"Query":{"freshness":"strict","window":{"last_points":18446744073709551616}}}"#,
        &query(
            Freshness::Strict,
            None,
            window(Some(i128::from(u64::MAX) + 1), None),
        ),
    );
    pin_request(
        r#"{"Query":{"freshness":"strict","window":{"last_secs":-0.5}}}"#,
        &query(Freshness::Strict, None, window(None, Some(-0.5))),
    );

    pin_request(
        r#"{"Stats":{"freshness":"strict"}}"#,
        &stats(Freshness::Strict, None, None),
    );
    pin_request(
        r#"{"Stats":{"freshness":"cached","namespace":"t2"}}"#,
        &stats(Freshness::Cached, Some("t2"), None),
    );
    pin_request(
        r#"{"Stats":{"freshness":"strict","namespace":"t2","window":{"last_points":9007199254740992}}}"#,
        &stats(
            Freshness::Strict,
            Some("t2"),
            Some(WindowSpec::points(1 << 53)),
        ),
    );
    pin_request(
        r#"{"Stats":{"freshness":"cached","window":{"last_secs":0.125}}}"#,
        &stats(Freshness::Cached, None, Some(WindowSpec::secs(0.125))),
    );

    // Configure: the settings sit next to `namespace` (flattened), each
    // written only when set, in declaration order.
    pin_request(
        r#"{"Configure":{}}"#,
        &configure(None, TenantConfig::default()),
    );
    pin_request(
        r#"{"Configure":{"namespace":"a"}}"#,
        &configure(Some("a"), TenantConfig::default()),
    );
    pin_request(
        r#"{"Configure":{"k":8,"seed":7}}"#,
        &configure(
            None,
            TenantConfig {
                k: Some(8),
                seed: Some(7),
                ..TenantConfig::default()
            },
        ),
    );
    pin_request(
        r#"{"Configure":{"namespace":"a","k":4,"backend":"cc","batch":128}}"#,
        &configure(
            Some("a"),
            TenantConfig {
                k: Some(4),
                backend: Some("cc".to_string()),
                batch: Some(128),
                ..TenantConfig::default()
            },
        ),
    );
    pin_request(
        r#"{"Configure":{"namespace":"a","k":4,"backend":"sharded-cc","shards":2,"batch":128,"seed":18446744073709551615}}"#,
        &configure(
            Some("a"),
            TenantConfig {
                k: Some(4),
                backend: Some("sharded-cc".to_string()),
                shards: Some(2),
                batch: Some(128),
                seed: Some(u64::MAX),
            },
        ),
    );

    pin_request(
        r#"{"Snapshot":{"file":"state.json"}}"#,
        &Request::Snapshot {
            file: "state.json".to_string(),
            namespace: None,
        },
    );
    pin_request(
        r#"{"Snapshot":{"file":"state.json","namespace":"t1"}}"#,
        &Request::Snapshot {
            file: "state.json".to_string(),
            namespace: Some("t1".to_string()),
        },
    );

    pin_request(r#"{"Shutdown":{}}"#, &Request::Shutdown {});

    // `from_seq` is always written, ahead of the optional namespace.
    pin_request(
        r#"{"Replicate":{"from_seq":0}}"#,
        &Request::Replicate {
            namespace: None,
            from_seq: 0,
        },
    );
    pin_request(
        r#"{"Replicate":{"from_seq":118,"namespace":"e"}}"#,
        &Request::Replicate {
            namespace: Some("e".to_string()),
            from_seq: 118,
        },
    );
}

#[test]
fn every_response_variant_has_pinned_json_bytes() {
    pin_response(
        r#"{"Hello":{"codec":"binary","revision":"1.5"}}"#,
        &Response::Hello {
            codec: "binary".to_string(),
            revision: "1.5".to_string(),
        },
    );
    pin_response(
        r#"{"Ingested":{"accepted":3,"points_seen":100}}"#,
        &Response::Ingested {
            accepted: 3,
            points_seen: 100,
        },
    );

    let centers = |cost: f64, coreset_level, window| Response::Centers {
        centers: vec![vec![1.0, 2.0], vec![-3.0, 0.5]],
        points_seen: 100,
        epoch: 7,
        cost,
        stats: query_stats(coreset_level),
        window,
    };
    pin_response(
        &format!(
            r#"{{"Centers":{{"centers":[[1,2],[-3,0.5]],"points_seen":100,"epoch":7,"cost":12.5,"stats":{QUERY_STATS_JSON}}}}}"#
        ),
        &centers(12.5, Some(2), None),
    );
    pin_response(
        &format!(
            r#"{{"Centers":{{"centers":[[1,2],[-3,0.5]],"points_seen":100,"epoch":7,"cost":12.5,"stats":{QUERY_STATS_JSON},"window":{{"last_points":60,"covered_points":80}}}}}}"#
        ),
        &centers(
            12.5,
            Some(2),
            Some(WindowInfo {
                last_points: 60,
                covered_points: 80,
            }),
        ),
    );
    // A NaN cost (the backend cannot estimate it) is JSON `null` and reads
    // back as NaN, which defeats `PartialEq`: compare the re-encoding.
    let nan_line = r#"{"Centers":{"centers":[[1,2],[-3,0.5]],"points_seen":100,"epoch":7,"cost":null,"stats":{"coresets_merged":4,"candidate_points":80,"coreset_level":null,"used_cache":true,"ran_kmeans":false}}}"#;
    assert_eq!(centers(f64::NAN, None, None).to_line(), nan_line);
    let back = Response::from_line(nan_line).unwrap();
    assert!(matches!(back, Response::Centers { cost, .. } if cost.is_nan()));
    assert_eq!(back.to_line(), nan_line);

    pin_response(
        &format!(r#"{{"Stats":{{"stats":{STREAM_STATS_JSON}}}}}"#),
        &Response::Stats {
            stats: stream_stats(),
            window: None,
        },
    );
    pin_response(
        &format!(
            r#"{{"Stats":{{"stats":{STREAM_STATS_JSON},"window":{{"last_points":25,"covered_points":40}}}}}}"#
        ),
        &Response::Stats {
            stats: stream_stats(),
            window: Some(WindowInfo {
                last_points: 25,
                covered_points: 40,
            }),
        },
    );

    pin_response(
        r#"{"Configured":{"namespace":"a","backend":"sharded-cc","k":4,"shards":2}}"#,
        &Response::Configured {
            namespace: "a".to_string(),
            backend: "sharded-cc".to_string(),
            k: 4,
            shards: 2,
        },
    );
    pin_response(
        r#"{"Snapshotted":{"file":"snaps/state.json","bytes":12345}}"#,
        &Response::Snapshotted {
            file: "snaps/state.json".to_string(),
            bytes: 12345,
        },
    );
    pin_response(r#"{"Bye":{}}"#, &Response::Bye {});
    pin_response(
        r#"{"ReplicaSnapshot":{"seq":42,"epoch":3,"snapshot":"{\"snapshot_version\":3}"}}"#,
        &Response::ReplicaSnapshot {
            seq: 42,
            epoch: 3,
            snapshot: r#"{"snapshot_version":3}"#.to_string(),
        },
    );

    let replicate = |seq, record| Response::Replicate {
        seq,
        primary_seq: 50,
        record,
    };
    pin_response(
        r#"{"Replicate":{"seq":43,"primary_seq":50,"record":{"Ingest":{"point":[1,2]}}}}"#,
        &replicate(
            43,
            ReplicationRecord::Ingest {
                point: vec![1.0, 2.0],
            },
        ),
    );
    pin_response(
        r#"{"Replicate":{"seq":44,"primary_seq":50,"record":{"IngestBatch":{"points":[[0.5],[1.5]]}}}}"#,
        &replicate(
            44,
            ReplicationRecord::IngestBatch {
                points: vec![vec![0.5], vec![1.5]],
            },
        ),
    );
    pin_response(
        r#"{"Replicate":{"seq":45,"primary_seq":50,"record":{"Query":{}}}}"#,
        &replicate(45, ReplicationRecord::Query {}),
    );
    pin_response(
        r#"{"Replicate":{"seq":46,"primary_seq":50,"record":{"Stats":{}}}}"#,
        &replicate(46, ReplicationRecord::Stats {}),
    );
    pin_response(
        r#"{"Replicate":{"seq":47,"primary_seq":50,"record":{"QueryWindow":{"last_points":16}}}}"#,
        &replicate(47, ReplicationRecord::QueryWindow { last_points: 16 }),
    );

    pin_response(
        r#"{"Error":{"code":"BadWindow","message":"window \"x\"\nrejected"}}"#,
        &Response::Error {
            code: ErrorCode::BadWindow,
            message: "window \"x\"\nrejected".to_string(),
        },
    );
    pin_response(
        r#"{"Error":{"code":"MalformedRequest","message":""}}"#,
        &Response::Error {
            code: ErrorCode::MalformedRequest,
            message: String::new(),
        },
    );
}

fn published(window: Option<WindowInfo>) -> PublishedClustering {
    let mut centers = Centers::new(2);
    centers.push(&[1.0, 2.0], 10.0);
    centers.push(&[-0.5, 4.0], 2.5);
    PublishedClustering {
        epoch: 3,
        centers,
        cost: 3.5,
        points_seen: 42,
        stats: query_stats(Some(2)),
        window,
    }
}

#[test]
fn published_clustering_snapshot_bytes_are_pinned() {
    let whole = published(None);
    let whole_json = format!(
        r#"{{"epoch":3,"centers":{{"dim":2,"data":[1,2,-0.5,4],"weights":[10,2.5]}},"cost":3.5,"points_seen":42,"stats":{QUERY_STATS_JSON}}}"#
    );
    assert_eq!(serde_json::to_string(&whole).unwrap(), whole_json);
    assert_eq!(
        serde_json::from_str::<PublishedClustering>(&whole_json).unwrap(),
        whole
    );

    let windowed = published(Some(WindowInfo {
        last_points: 10,
        covered_points: 16,
    }));
    let windowed_json = format!(
        r#"{{"epoch":3,"centers":{{"dim":2,"data":[1,2,-0.5,4],"weights":[10,2.5]}},"cost":3.5,"points_seen":42,"stats":{QUERY_STATS_JSON},"window":{{"last_points":10,"covered_points":16}}}}"#
    );
    assert_eq!(serde_json::to_string(&windowed).unwrap(), windowed_json);
    assert_eq!(
        serde_json::from_str::<PublishedClustering>(&windowed_json).unwrap(),
        windowed
    );

    // Snapshots written before windows existed carry no `window` key; a
    // `null` one reads the same.
    let null_window = whole_json.replace(
        r#""ran_kmeans":false}}"#,
        r#""ran_kmeans":false},"window":null}"#,
    );
    assert_ne!(null_window, whole_json);
    assert_eq!(
        serde_json::from_str::<PublishedClustering>(&null_window).unwrap(),
        whole
    );
}

/// Lines that must parse to the same request: the first omits optional
/// fields, every other one spells some of them out as `null`.
const OMITTED_VS_NULL_REQUESTS: &[&[&str]] = &[
    &[
        r#"{"Ingest":{"point":[1,2]}}"#,
        r#"{"Ingest":{"point":[1,2],"namespace":null}}"#,
    ],
    &[
        r#"{"IngestBatch":{"points":[[1,2]]}}"#,
        r#"{"IngestBatch":{"points":[[1,2]],"namespace":null}}"#,
    ],
    &[
        r#"{"Query":{}}"#,
        r#"{"Query":{"freshness":null}}"#,
        r#"{"Query":{"namespace":null}}"#,
        r#"{"Query":{"window":null}}"#,
        r#"{"Query":{"freshness":null,"namespace":null,"window":null}}"#,
        r#"{"Query":{"freshness":"strict"}}"#,
    ],
    &[
        r#"{"Stats":{}}"#,
        r#"{"Stats":{"freshness":null,"namespace":null,"window":null}}"#,
    ],
    &[
        r#"{"Query":{"window":{"last_points":5}}}"#,
        r#"{"Query":{"window":{"last_points":5,"last_secs":null}}}"#,
    ],
    &[
        r#"{"Stats":{"window":{"last_secs":1.5}}}"#,
        r#"{"Stats":{"window":{"last_points":null,"last_secs":1.5}}}"#,
    ],
    &[
        r#"{"Query":{"window":{}}}"#,
        r#"{"Query":{"window":{"last_points":null,"last_secs":null}}}"#,
    ],
    &[
        r#"{"Configure":{}}"#,
        r#"{"Configure":{"namespace":null}}"#,
        r#"{"Configure":{"k":null,"backend":null,"shards":null,"batch":null,"seed":null}}"#,
    ],
    &[
        r#"{"Configure":{"k":3}}"#,
        r#"{"Configure":{"namespace":null,"k":3,"seed":null}}"#,
    ],
    &[
        r#"{"Snapshot":{"file":"s.json"}}"#,
        r#"{"Snapshot":{"file":"s.json","namespace":null}}"#,
    ],
    &[
        r#"{"Replicate":{}}"#,
        r#"{"Replicate":{"from_seq":null}}"#,
        r#"{"Replicate":{"namespace":null}}"#,
        r#"{"Replicate":{"from_seq":0}}"#,
    ],
];

const OMITTED_VS_NULL_RESPONSES: &[&[&str]] = &[
    &[
        r#"{"Centers":{"centers":[[1]],"points_seen":1,"epoch":1,"cost":0.5,"stats":{"coresets_merged":0,"candidate_points":1,"coreset_level":null,"used_cache":false,"ran_kmeans":true}}}"#,
        r#"{"Centers":{"centers":[[1]],"points_seen":1,"epoch":1,"cost":0.5,"stats":{"coresets_merged":0,"candidate_points":1,"coreset_level":null,"used_cache":false,"ran_kmeans":true},"window":null}}"#,
    ],
    &[
        r#"{"Stats":{"stats":{"points_seen":1,"shards":1,"per_shard_points":[],"last_query":null}}}"#,
        r#"{"Stats":{"stats":{"points_seen":1,"shards":1,"per_shard_points":[],"last_query":null},"window":null}}"#,
    ],
];

#[test]
fn omitted_and_null_optional_fields_parse_the_same() {
    for group in OMITTED_VS_NULL_REQUESTS {
        let expected = Request::from_line(group[0]).unwrap();
        for line in &group[1..] {
            assert_eq!(Request::from_line(line).unwrap(), expected, "{line}");
        }
    }
    for group in OMITTED_VS_NULL_RESPONSES {
        let expected = Response::from_line(group[0]).unwrap();
        for line in &group[1..] {
            assert_eq!(Response::from_line(line).unwrap(), expected, "{line}");
        }
    }
    // Spot-check what the omitted forms mean.
    assert_eq!(
        Request::from_line(r#"{"Query":{}}"#).unwrap(),
        query(Freshness::Strict, None, None)
    );
    assert_eq!(
        Request::from_line(r#"{"Replicate":{}}"#).unwrap(),
        Request::Replicate {
            namespace: None,
            from_seq: 0,
        }
    );
    assert_eq!(
        Request::from_line(r#"{"Configure":{"namespace":null,"k":3,"seed":null}}"#).unwrap(),
        configure(
            None,
            TenantConfig {
                k: Some(3),
                ..TenantConfig::default()
            }
        )
    );
}

#[test]
fn unknown_keys_are_ignored() {
    let requests = [
        (
            r#"{"Ingest":{"point":[1,2],"extra":true}}"#,
            r#"{"Ingest":{"point":[1,2]}}"#,
        ),
        (
            r#"{"Query":{"future":{"a":[1,2]},"freshness":"cached"}}"#,
            r#"{"Query":{"freshness":"cached"}}"#,
        ),
        (
            r#"{"Query":{"window":{"last_points":5,"unit":"points"}}}"#,
            r#"{"Query":{"window":{"last_points":5}}}"#,
        ),
        (
            r#"{"Configure":{"replicas":2,"k":3,"namespace":"a"}}"#,
            r#"{"Configure":{"namespace":"a","k":3}}"#,
        ),
        (
            r#"{"Snapshot":{"file":"s.json","compress":"zstd"}}"#,
            r#"{"Snapshot":{"file":"s.json"}}"#,
        ),
        (r#"{"Shutdown":{"now":true}}"#, r#"{"Shutdown":{}}"#),
        (
            r#"{"Replicate":{"from_seq":3,"batch":64}}"#,
            r#"{"Replicate":{"from_seq":3}}"#,
        ),
    ];
    for (with_unknown, plain) in requests {
        assert_eq!(
            Request::from_line(with_unknown).unwrap(),
            Request::from_line(plain).unwrap(),
            "{with_unknown}"
        );
    }
    let responses = [
        (r#"{"Bye":{"reason":"done"}}"#, r#"{"Bye":{}}"#),
        (
            r#"{"Ingested":{"accepted":1,"points_seen":2,"lag_ms":0}}"#,
            r#"{"Ingested":{"accepted":1,"points_seen":2}}"#,
        ),
        (
            r#"{"Stats":{"stats":{"points_seen":1,"shards":1,"per_shard_points":[],"last_query":null},"trace":[]}}"#,
            r#"{"Stats":{"stats":{"points_seen":1,"shards":1,"per_shard_points":[],"last_query":null}}}"#,
        ),
    ];
    for (with_unknown, plain) in responses {
        assert_eq!(
            Response::from_line(with_unknown).unwrap(),
            Response::from_line(plain).unwrap(),
            "{with_unknown}"
        );
    }
    let whole = serde_json::to_string(&published(None)).unwrap();
    let extended = whole.replacen('{', r#"{"shard_epochs":[1,2],"#, 1);
    assert_eq!(
        serde_json::from_str::<PublishedClustering>(&extended).unwrap(),
        published(None)
    );
}

#[test]
fn wrongly_typed_fields_are_errors() {
    for line in [
        // Not a single-variant object.
        r#""Shutdown""#,
        r#"{"Query":{},"Stats":{}}"#,
        r#"{"Query":[]}"#,
        r#"{"Shutdown":null}"#,
        // Missing required fields.
        r#"{"Hello":{}}"#,
        r#"{"Ingest":{}}"#,
        r#"{"IngestBatch":{"namespace":"a"}}"#,
        r#"{"Snapshot":{}}"#,
        // Wrong types.
        r#"{"Hello":{"codec":1}}"#,
        r#"{"Ingest":{"point":"oops"}}"#,
        r#"{"Ingest":{"point":[1,"2"]}}"#,
        r#"{"Ingest":{"point":[1,2],"namespace":7}}"#,
        r#"{"IngestBatch":{"points":[1,2]}}"#,
        r#"{"Query":{"freshness":3}}"#,
        r#"{"Query":{"freshness":"eventual"}}"#,
        r#"{"Query":{"namespace":["a"]}}"#,
        r#"{"Query":{"window":5}}"#,
        r#"{"Query":{"window":[]}}"#,
        r#"{"Query":{"window":{"last_points":"5"}}}"#,
        r#"{"Query":{"window":{"last_points":1.5}}}"#,
        r#"{"Query":{"window":{"last_points":true}}}"#,
        r#"{"Query":{"window":{"last_points":170141183460469231731687303715884105728}}}"#,
        r#"{"Stats":{"window":{"last_secs":"5"}}}"#,
        r#"{"Stats":{"window":{"last_secs":[]}}}"#,
        r#"{"Configure":{"namespace":5}}"#,
        r#"{"Configure":{"k":"four"}}"#,
        r#"{"Configure":{"k":-1}}"#,
        r#"{"Configure":{"backend":4}}"#,
        r#"{"Configure":{"shards":true}}"#,
        r#"{"Configure":{"batch":2.5}}"#,
        r#"{"Configure":{"seed":-7}}"#,
        r#"{"Configure":{"seed":18446744073709551616}}"#,
        r#"{"Snapshot":{"file":5}}"#,
        r#"{"Replicate":{"from_seq":"nine"}}"#,
        r#"{"Replicate":{"from_seq":-1}}"#,
        r#"{"Replicate":{"namespace":false}}"#,
    ] {
        assert!(Request::from_line(line).is_err(), "{line}");
    }
    for line in [
        r#""Bye""#,
        r#"{"Bye":[]}"#,
        r#"{"Ingested":{"accepted":"3","points_seen":1}}"#,
        r#"{"Ingested":{"accepted":3}}"#,
        r#"{"Centers":{"centers":[[1]],"points_seen":1,"epoch":1,"cost":"x","stats":{"coresets_merged":0,"candidate_points":1,"coreset_level":null,"used_cache":false,"ran_kmeans":true}}}"#,
        r#"{"Centers":{"centers":[[1]],"points_seen":1,"epoch":1,"cost":0.5,"stats":{"coresets_merged":0,"candidate_points":1,"coreset_level":null,"used_cache":false,"ran_kmeans":true},"window":5}}"#,
        r#"{"Stats":{"stats":{"points_seen":1,"shards":1,"per_shard_points":[],"last_query":null},"window":{"last_points":1}}}"#,
        r#"{"Replicate":{"seq":1,"primary_seq":1,"record":{"Flush":{}}}}"#,
        r#"{"Error":{"code":"Teapot","message":""}}"#,
    ] {
        assert!(Response::from_line(line).is_err(), "{line}");
    }
    let whole = serde_json::to_string(&published(None)).unwrap();
    for (from, to) in [
        (r#""epoch":3"#, r#""epoch":"3""#),
        (r#""cost":3.5"#, r#""cost":true"#),
        (r#""cost":3.5,"#, ""),
    ] {
        let broken = whole.replace(from, to);
        assert_ne!(broken, whole, "{from}");
        assert!(
            serde_json::from_str::<PublishedClustering>(&broken).is_err(),
            "{broken}"
        );
    }
    let bad_window = whole.replacen(
        '{',
        r#"{"window":{"last_points":-1,"covered_points":0},"#,
        1,
    );
    assert!(serde_json::from_str::<PublishedClustering>(&bad_window).is_err());
}
