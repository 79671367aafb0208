//! Protocol-layer robustness: every class of bad input is answered with a
//! typed error response over the wire, and the engine stays usable
//! afterwards — the regression surface the serving layer adds on top of
//! `BucketBuffer`'s own validation.

use skm_serve::prelude::*;
use skm_serve::protocol::MAX_BATCH_POINTS;
use std::sync::Arc;

fn start_server() -> ServerHandle {
    let config = StreamConfig::new(2)
        .with_bucket_size(20)
        .with_kmeans_runs(1)
        .with_lloyd_iterations(2);
    let engine = Arc::new(Engine::new(&EngineSpec::sharded_cc(config, 2, 8, 7)).unwrap());
    Server::bind("127.0.0.1:0", engine, None)
        .unwrap()
        .spawn()
        .unwrap()
}

fn expect_error(response: Response, expected: ErrorCode) {
    match response {
        Response::Error { code, message } => {
            assert_eq!(code, expected, "unexpected error class: {message}");
            assert!(!message.is_empty());
        }
        other => panic!("expected {expected:?} error, got {other:?}"),
    }
}

/// After any rejected request, the engine must still ingest and answer
/// queries on the same connection.
fn assert_still_usable(client: &mut Client, ingested_before: u64) {
    for i in 0..40u32 {
        let x = if i % 2 == 0 { 0.0 } else { 80.0 };
        match client.ingest(vec![x, f64::from(i % 7)]).unwrap() {
            Response::Ingested { .. } => {}
            other => panic!("healthy ingest failed: {other:?}"),
        }
    }
    let stats = client.stats().unwrap();
    assert_eq!(stats.points_seen, ingested_before + 40);
    let centers = client.query_centers().unwrap();
    assert_eq!(centers.len(), 2);
}

#[test]
fn malformed_json_lines_get_typed_errors_not_dropped_connections() {
    let handle = start_server();
    let mut client = Client::connect(handle.addr()).unwrap();
    // 64 KiB of nesting: far under the line cap, far past the parser's
    // depth bound. Unbounded recursion overflowed the handler's stack and
    // aborted the whole server.
    let deep_array = "[".repeat(64 * 1024);
    let deep_object = "{\"a\":".repeat(64 * 1024 / 5);
    for bad in [
        "this is not json",
        "{\"Ingest\":",
        "{\"NoSuchCommand\":{}}",
        "{\"Ingest\":{\"point\":\"strings are not points\"}}",
        "[1,2,3]",
        "42",
        deep_array.as_str(),
        deep_object.as_str(),
    ] {
        expect_error(
            client.send_raw_line(bad).unwrap(),
            ErrorCode::MalformedRequest,
        );
    }
    assert_still_usable(&mut client, 0);
    client.shutdown().unwrap();
    handle.shutdown().unwrap();
}

#[test]
fn invalid_utf8_lines_get_a_typed_error_and_the_connection_survives() {
    use std::io::{BufRead, BufReader, Write};

    let handle = start_server();
    let mut stream = std::net::TcpStream::connect(handle.addr()).unwrap();
    stream.set_nodelay(true).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());

    // A line of raw non-UTF-8 bytes: the newline boundary is intact, so
    // the server must answer with MalformedRequest and keep the
    // connection aligned for the next (valid) request.
    stream.write_all(&[0xFF, 0xFE, 0x80, b'\n']).unwrap();
    let mut reply = String::new();
    reader.read_line(&mut reply).unwrap();
    match Response::from_line(reply.trim()).unwrap() {
        Response::Error { code, message } => {
            assert_eq!(code, ErrorCode::MalformedRequest);
            assert!(message.contains("UTF-8"), "{message}");
        }
        other => panic!("expected MalformedRequest, got {other:?}"),
    }

    stream
        .write_all(b"{\"Ingest\":{\"point\":[1.0,2.0]}}\n")
        .unwrap();
    reply.clear();
    reader.read_line(&mut reply).unwrap();
    assert!(
        matches!(
            Response::from_line(reply.trim()).unwrap(),
            Response::Ingested { .. }
        ),
        "connection desynced after the invalid-UTF-8 line: {reply}"
    );
    drop(stream);

    let mut client = Client::connect(handle.addr()).unwrap();
    client.shutdown().unwrap();
    handle.shutdown().unwrap();
}

#[test]
fn wrong_dimension_ingest_is_rejected_and_engine_survives() {
    let handle = start_server();
    let mut client = Client::connect(handle.addr()).unwrap();
    client.ingest(vec![1.0, 2.0]).unwrap();

    expect_error(
        client.ingest(vec![1.0, 2.0, 3.0]).unwrap(),
        ErrorCode::DimensionMismatch,
    );
    expect_error(client.ingest(vec![]).unwrap(), ErrorCode::InvalidPoint);
    // Batch with a late wrong-dimension point: rejected atomically.
    expect_error(
        client
            .ingest_batch(vec![vec![5.0, 6.0], vec![7.0]])
            .unwrap(),
        ErrorCode::DimensionMismatch,
    );
    let stats = client.stats().unwrap();
    assert_eq!(stats.points_seen, 1, "rejected requests consumed points");

    assert_still_usable(&mut client, 1);
    client.shutdown().unwrap();
    handle.shutdown().unwrap();
}

#[test]
fn non_finite_coordinates_are_rejected_over_the_wire() {
    let handle = start_server();
    let mut client = Client::connect(handle.addr()).unwrap();
    client.ingest(vec![1.0, 2.0]).unwrap();

    // The vendored JSON layer prints non-finite floats as `null`, which the
    // wire then decodes as NaN — exactly the hostile input the engine's
    // finiteness validation must catch.
    expect_error(
        client
            .send_raw_line("{\"Ingest\":{\"point\":[null,0]}}")
            .unwrap(),
        ErrorCode::NonFiniteCoordinate,
    );
    expect_error(
        client
            .ingest_batch(vec![vec![3.0, 4.0], vec![f64::NAN, 0.0]])
            .unwrap(),
        ErrorCode::NonFiniteCoordinate,
    );
    let stats = client.stats().unwrap();
    assert_eq!(stats.points_seen, 1);

    assert_still_usable(&mut client, 1);
    client.shutdown().unwrap();
    handle.shutdown().unwrap();
}

#[test]
fn oversized_batches_are_rejected_before_touching_the_engine() {
    let handle = start_server();
    let mut client = Client::connect(handle.addr()).unwrap();
    let oversized: Vec<Vec<f64>> = (0..=MAX_BATCH_POINTS)
        .map(|i| vec![i as f64, 0.0])
        .collect();
    expect_error(
        client.ingest_batch(oversized).unwrap(),
        ErrorCode::BatchTooLarge,
    );
    assert_eq!(client.stats().unwrap().points_seen, 0);
    // The limit itself is accepted.
    let exactly: Vec<Vec<f64>> = (0..MAX_BATCH_POINTS).map(|i| vec![i as f64, 0.0]).collect();
    match client.ingest_batch(exactly).unwrap() {
        Response::Ingested { accepted, .. } => assert_eq!(accepted, MAX_BATCH_POINTS as u64),
        other => panic!("limit-sized batch rejected: {other:?}"),
    }
    assert_still_usable(&mut client, MAX_BATCH_POINTS as u64);
    client.shutdown().unwrap();
    handle.shutdown().unwrap();
}

#[test]
fn query_before_any_point_is_a_typed_empty_stream_error() {
    let handle = start_server();
    let mut client = Client::connect(handle.addr()).unwrap();
    expect_error(client.query().unwrap(), ErrorCode::EmptyStream);
    assert_still_usable(&mut client, 0);
    client.shutdown().unwrap();
    handle.shutdown().unwrap();
}

#[test]
fn snapshot_without_directory_and_path_escapes_are_refused() {
    let handle = start_server();
    let mut client = Client::connect(handle.addr()).unwrap();
    client.ingest(vec![1.0, 2.0]).unwrap();
    // This server has no snapshot directory configured.
    expect_error(
        client.snapshot("state.json").unwrap(),
        ErrorCode::SnapshotUnavailable,
    );
    client.shutdown().unwrap();
    handle.shutdown().unwrap();

    // A snapshot-enabled server still refuses names that escape the
    // directory.
    let dir = std::env::temp_dir().join(format!("skm-serve-snap-{}", std::process::id()));
    let config = StreamConfig::new(2)
        .with_bucket_size(20)
        .with_kmeans_runs(1);
    let engine = Arc::new(Engine::new(&EngineSpec::sharded_cc(config, 1, 8, 9)).unwrap());
    let handle = Server::bind("127.0.0.1:0", engine, Some(dir.clone()))
        .unwrap()
        .spawn()
        .unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    client.ingest(vec![1.0, 2.0]).unwrap();
    for bad in ["../escape.json", "a/b.json", "", ".."] {
        expect_error(
            client.snapshot(bad).unwrap(),
            ErrorCode::SnapshotUnavailable,
        );
    }
    match client.snapshot("ok.json").unwrap() {
        Response::Snapshotted { bytes, .. } => assert!(bytes > 0),
        other => panic!("legitimate snapshot failed: {other:?}"),
    }
    client.shutdown().unwrap();
    handle.shutdown().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn hostile_window_values_get_bad_window_not_panics_over_json() {
    let handle = start_server();
    let mut client = Client::connect(handle.addr()).unwrap();
    client.ingest(vec![1.0, 2.0]).unwrap();
    client.ingest(vec![80.0, 2.0]).unwrap();

    // Every out-of-domain value the wire can spell: zero, negative, above
    // the 2^53 cap, non-finite seconds, both selectors, neither selector.
    // All of them parse (the carrier is permissive by design) and die in
    // validation with the typed BadWindow.
    for kind in ["Query", "Stats"] {
        for bad in [
            "{\"last_points\":0}",
            "{\"last_points\":-5}",
            "{\"last_points\":18446744073709551615}",
            "{\"last_points\":9007199254740993}",
            "{\"last_secs\":0}",
            "{\"last_secs\":-1.5}",
            "{\"last_secs\":1e300}",
            "{\"last_points\":10,\"last_secs\":1.0}",
            "{}",
        ] {
            expect_error(
                client
                    .send_raw_line(&format!("{{\"{kind}\":{{\"window\":{bad}}}}}"))
                    .unwrap(),
                ErrorCode::BadWindow,
            );
        }
        // Wrong *types* are not a window problem, they are a parse
        // problem: MalformedRequest, exactly like any other bad field.
        for garbage in ["\"ten\"", "[1,2]", "{\"last_points\":\"ten\"}"] {
            expect_error(
                client
                    .send_raw_line(&format!("{{\"{kind}\":{{\"window\":{garbage}}}}}"))
                    .unwrap(),
                ErrorCode::MalformedRequest,
            );
        }
    }

    assert_still_usable(&mut client, 2);
    client.shutdown().unwrap();
    handle.shutdown().unwrap();
}

#[test]
fn hostile_window_values_get_bad_window_not_panics_over_binary() {
    let handle = start_server();
    let mut client = Client::builder(handle.addr())
        .codec(CodecKind::Binary)
        .connect()
        .unwrap();
    client.ingest(vec![1.0, 2.0]).unwrap();
    client.ingest(vec![80.0, 2.0]).unwrap();

    let hostile = [
        WindowSpec::points(0),
        WindowSpec::points(u64::MAX),
        WindowSpec::points((1 << 53) + 1),
        WindowSpec::secs(0.0),
        WindowSpec::secs(-1.5),
        WindowSpec::secs(1e300),
        WindowSpec::secs(f64::NAN),
        // Both selectors and neither: representable on the wire, rejected
        // in validation.
        WindowSpec {
            last_points: Some(10),
            last_secs: Some(1.0),
        },
        WindowSpec {
            last_points: None,
            last_secs: None,
        },
    ];
    for spec in hostile {
        for request in [
            Request::Query {
                freshness: Freshness::Strict,
                namespace: None,
                window: Some(spec),
            },
            Request::Stats {
                freshness: Freshness::Strict,
                namespace: None,
                window: Some(spec),
            },
        ] {
            match client.call(&request).unwrap() {
                Response::Error { code, message } => {
                    assert_eq!(code, ErrorCode::BadWindow, "{spec:?}: {message}");
                    assert!(!message.is_empty());
                }
                other => panic!("{spec:?} must be refused, got {other:?}"),
            }
        }
    }

    assert_still_usable(&mut client, 2);
    client.shutdown().unwrap();
    handle.shutdown().unwrap();
}

/// A truncated binary window section must read as an *incomplete or
/// malformed frame*, never silently as a windowless pre-1.5 request — the
/// invariant that makes appending the section to the frame tail safe.
#[test]
fn truncated_binary_window_sections_are_malformed_not_windowless() {
    use std::io::{BufRead, BufReader, Read, Write};

    let handle = start_server();
    let mut feeder = Client::connect(handle.addr()).unwrap();
    feeder.ingest(vec![1.0, 2.0]).unwrap();

    let mut stream = std::net::TcpStream::connect(handle.addr()).unwrap();
    stream.set_nodelay(true).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut line = String::new();
    stream
        .write_all(b"{\"Hello\":{\"codec\":\"binary\"}}\n")
        .unwrap();
    reader.read_line(&mut line).unwrap();

    // A full windowed Query payload is
    //   [0x03, freshness, ns-presence, points-presence, u64, secs-presence]
    // = 3 + 1 + 8 + 1 bytes. Every strict prefix that enters the window
    // section must be refused as malformed.
    let mut full = vec![0x03u8, 0x00, 0x00, 0x01];
    full.extend_from_slice(&500u64.to_le_bytes());
    full.push(0x00);
    for cut in 4..full.len() {
        let payload = &full[..cut];
        stream
            .write_all(&u32::try_from(payload.len()).unwrap().to_le_bytes())
            .unwrap();
        stream.write_all(payload).unwrap();
        let mut len = [0u8; 4];
        reader.read_exact(&mut len).unwrap();
        let mut response = vec![0u8; u32::from_le_bytes(len) as usize];
        reader.read_exact(&mut response).unwrap();
        // 0x87 = Error frame; anything else means the truncated section
        // was interpreted as data.
        assert_eq!(
            response[0], 0x87,
            "cut at {cut}: truncated window read as tag 0x{:02x}",
            response[0]
        );
    }
    drop(stream);

    feeder.shutdown().unwrap();
    handle.shutdown().unwrap();
}

#[test]
fn blank_lines_are_tolerated_and_multiple_clients_interleave() {
    let handle = start_server();
    let mut a = Client::connect(handle.addr()).unwrap();
    let mut b = Client::connect(handle.addr()).unwrap();
    // A blank line is skipped, not answered; follow with a real request to
    // confirm the connection is still aligned.
    match a
        .send_raw_line("\n{\"Ingest\":{\"point\":[0.0,0.0]}}")
        .unwrap()
    {
        Response::Ingested { .. } => {}
        other => panic!("blank line desynced the connection: {other:?}"),
    }
    b.ingest(vec![50.0, 50.0]).unwrap();
    let stats = a.stats().unwrap();
    assert_eq!(stats.points_seen, 2);
    a.shutdown().unwrap();
    handle.shutdown().unwrap();
}
