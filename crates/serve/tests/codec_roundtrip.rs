//! Codec property tests: every `Request`/`Response` variant survives the
//! JSON and binary framings byte-exactly, truncated frames are reported as
//! incomplete (never as garbage), oversized length prefixes die with the
//! typed `FrameTooLarge` error, hostile bytes never panic the decoder, and
//! pipelined frames concatenated on one buffer come back in order.
//!
//! The binary state codec of WAL checkpoints gets the same treatment:
//! random `Value` trees and real tenant checkpoints come back bit for bit,
//! and every hostile blob is an error, never a panic or an allocation the
//! blob's length does not pay for.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::Value;
use skm_serve::codec::{
    codec, decode_state, encode_state, CodecKind, MAX_FRAME_BYTES, MAX_STATE_DEPTH,
};
use skm_serve::engine::{BackendKind, Engine, EngineSpec, WalConfig};
use skm_serve::protocol::{
    ErrorCode, Freshness, ReplicationRecord, Request, Response, TenantConfig, WindowSpec,
};
use skm_stream::{QueryStats, StreamConfig, StreamStats, WindowInfo};
use std::path::PathBuf;

const ROUNDS: usize = 64;

/// Number of `Request` variants: a sweep over `0..REQUEST_VARIANTS` covers
/// the whole enum.
const REQUEST_VARIANTS: usize = 9;

/// Number of `Response` variants.
const RESPONSE_VARIANTS: usize = 10;

/// Finite floats that survive a decimal JSON round trip exactly: dyadic
/// rationals print with a finite decimal expansion.
fn nice_f64(rng: &mut ChaCha8Rng) -> f64 {
    f64::from(rng.gen_range(-1_000_000i32..1_000_000)) / 8.0
}

fn point(rng: &mut ChaCha8Rng) -> Vec<f64> {
    (0..rng.gen_range(1..5)).map(|_| nice_f64(rng)).collect()
}

fn maybe_namespace(rng: &mut ChaCha8Rng) -> Option<String> {
    rng.gen_bool(0.5)
        .then(|| format!("t{}", rng.gen_range(0..100)))
}

/// Half the generated `Query`/`Stats` requests carry a revision-1.5
/// window (point- or time-based); the other half are the pre-1.5 shape.
fn maybe_window(rng: &mut ChaCha8Rng) -> Option<WindowSpec> {
    if rng.gen_bool(0.5) {
        return None;
    }
    Some(if rng.gen_bool(0.5) {
        WindowSpec::points(rng.gen_range(1..1_000_000))
    } else {
        WindowSpec::secs(nice_f64(rng).abs() + 0.125)
    })
}

fn maybe_window_info(rng: &mut ChaCha8Rng) -> Option<WindowInfo> {
    rng.gen_bool(0.5).then(|| WindowInfo {
        last_points: rng.gen_range(1..1_000_000),
        covered_points: rng.gen_range(0..2_000_000),
    })
}

fn freshness(rng: &mut ChaCha8Rng) -> Freshness {
    if rng.gen_bool(0.5) {
        Freshness::Strict
    } else {
        Freshness::Cached
    }
}

fn query_stats(rng: &mut ChaCha8Rng) -> QueryStats {
    QueryStats {
        coresets_merged: rng.gen_range(0..50),
        candidate_points: rng.gen_range(0..10_000),
        coreset_level: rng.gen_bool(0.5).then(|| rng.gen_range(0..20)),
        used_cache: rng.gen_bool(0.5),
        ran_kmeans: rng.gen_bool(0.5),
    }
}

fn stream_stats(rng: &mut ChaCha8Rng) -> StreamStats {
    StreamStats {
        points_seen: rng.gen_range(0..1_000_000),
        shards: rng.gen_range(1..9),
        per_shard_points: (0..rng.gen_range(0..5))
            .map(|_| rng.gen_range(0..1000))
            .collect(),
        last_query: rng.gen_bool(0.5).then(|| query_stats(rng)),
    }
}

/// One value per `Request` variant, with randomized field contents; the
/// `variant` index makes a sweep over `0..REQUEST_VARIANTS` cover the whole
/// enum.
fn request(variant: usize, rng: &mut ChaCha8Rng) -> Request {
    match variant % REQUEST_VARIANTS {
        0 => Request::Hello {
            codec: if rng.gen_bool(0.5) { "json" } else { "binary" }.to_string(),
        },
        1 => Request::Ingest {
            point: point(rng),
            namespace: maybe_namespace(rng),
        },
        2 => Request::IngestBatch {
            points: (0..rng.gen_range(0..6)).map(|_| point(rng)).collect(),
            namespace: maybe_namespace(rng),
        },
        3 => Request::Query {
            freshness: freshness(rng),
            namespace: maybe_namespace(rng),
            window: maybe_window(rng),
        },
        4 => Request::Stats {
            freshness: freshness(rng),
            namespace: maybe_namespace(rng),
            window: maybe_window(rng),
        },
        5 => Request::Configure {
            namespace: maybe_namespace(rng),
            config: TenantConfig {
                k: rng.gen_bool(0.5).then(|| rng.gen_range(1..16)),
                backend: rng.gen_bool(0.5).then(|| "cc".to_string()),
                shards: rng.gen_bool(0.5).then(|| rng.gen_range(1..8)),
                batch: rng.gen_bool(0.5).then(|| rng.gen_range(1..512)),
                seed: rng.gen_bool(0.5).then(|| rng.gen()),
            },
        },
        6 => Request::Snapshot {
            file: format!("snap-{}.json", rng.gen_range(0..100)),
            namespace: maybe_namespace(rng),
        },
        7 => Request::Shutdown {},
        _ => Request::Replicate {
            from_seq: rng.gen_range(0..1_000_000),
            namespace: maybe_namespace(rng),
        },
    }
}

/// One value per `ReplicationRecord` variant; `kind` selects it.
fn replication_record(kind: usize, rng: &mut ChaCha8Rng) -> ReplicationRecord {
    match kind % 5 {
        0 => ReplicationRecord::Ingest { point: point(rng) },
        1 => ReplicationRecord::IngestBatch {
            points: (0..rng.gen_range(1..6)).map(|_| point(rng)).collect(),
        },
        2 => ReplicationRecord::Query {},
        3 => ReplicationRecord::Stats {},
        _ => ReplicationRecord::QueryWindow {
            last_points: rng.gen_range(1..1_000_000),
        },
    }
}

const ERROR_CODES: [ErrorCode; 17] = [
    ErrorCode::MalformedRequest,
    ErrorCode::LineTooLong,
    ErrorCode::DimensionMismatch,
    ErrorCode::NonFiniteCoordinate,
    ErrorCode::InvalidPoint,
    ErrorCode::BatchTooLarge,
    ErrorCode::EmptyStream,
    ErrorCode::SnapshotUnavailable,
    ErrorCode::BadNamespace,
    ErrorCode::TenantLimit,
    ErrorCode::TenantExists,
    ErrorCode::BadCodec,
    ErrorCode::FrameTooLarge,
    ErrorCode::Internal,
    ErrorCode::ReplicationLag,
    ErrorCode::WalCorrupt,
    ErrorCode::BadWindow,
];

/// One value per `Response` variant; successive sweeps over
/// `0..RESPONSE_VARIANTS` cycle `Replicate` through every record variant.
fn response(variant: usize, rng: &mut ChaCha8Rng) -> Response {
    match variant % RESPONSE_VARIANTS {
        0 => Response::Hello {
            codec: "binary".to_string(),
            revision: "1.3".to_string(),
        },
        1 => Response::Ingested {
            accepted: rng.gen_range(0..5000),
            points_seen: rng.gen_range(0..1_000_000),
        },
        2 => Response::Centers {
            centers: (0..rng.gen_range(1..5)).map(|_| point(rng)).collect(),
            points_seen: rng.gen_range(0..1_000_000),
            epoch: rng.gen_range(0..100),
            cost: nice_f64(rng).abs(),
            stats: query_stats(rng),
            window: maybe_window_info(rng),
        },
        3 => Response::Stats {
            stats: stream_stats(rng),
            window: maybe_window_info(rng),
        },
        4 => Response::Configured {
            namespace: format!("t{}", rng.gen_range(0..100)),
            backend: "sharded-cc".to_string(),
            k: rng.gen_range(1..16),
            shards: rng.gen_range(1..8),
        },
        5 => Response::Snapshotted {
            file: "/tmp/snap.json".to_string(),
            bytes: rng.gen_range(0..1_000_000),
        },
        6 => Response::Bye {},
        7 => Response::Error {
            code: ERROR_CODES[rng.gen_range(0..ERROR_CODES.len())],
            message: format!("synthetic failure {}", rng.gen_range(0..1000)),
        },
        8 => Response::ReplicaSnapshot {
            seq: rng.gen_range(0..1_000_000),
            epoch: rng.gen_range(0..100),
            snapshot: format!(
                r#"{{"snapshot_version":3,"seq":{}}}"#,
                rng.gen_range(0..100)
            ),
        },
        _ => Response::Replicate {
            seq: rng.gen_range(1..1_000_000),
            primary_seq: rng.gen_range(1..2_000_000),
            record: replication_record(variant / RESPONSE_VARIANTS, rng),
        },
    }
}

/// Frames `value` with `kind`, re-frames it off the buffer, decodes, and
/// checks the frame consumed the whole buffer.
fn frame_round_trip<T, E, D>(kind: CodecKind, encode: E, decode: D) -> T
where
    T: Clone,
    E: Fn(&mut Vec<u8>),
    D: Fn(&[u8]) -> Result<T, String>,
{
    let c = codec(kind);
    let mut wire = Vec::new();
    encode(&mut wire);
    let frame = c
        .next_frame(&wire)
        .expect("framing a freshly encoded value")
        .expect("a complete frame");
    assert_eq!(
        frame.consumed,
        wire.len(),
        "{kind:?} frame left trailing bytes"
    );
    decode(&wire[frame.start..frame.end]).expect("decoding a freshly encoded value")
}

#[test]
fn the_sweeps_cover_every_variant() {
    use std::collections::HashSet;
    use std::mem::discriminant;
    let mut rng = ChaCha8Rng::seed_from_u64(1);
    let requests: HashSet<_> = (0..ROUNDS)
        .map(|v| discriminant(&request(v, &mut rng)))
        .collect();
    assert_eq!(requests.len(), REQUEST_VARIANTS);
    let responses: Vec<Response> = (0..ROUNDS).map(|v| response(v, &mut rng)).collect();
    let kinds: HashSet<_> = responses.iter().map(discriminant).collect();
    assert_eq!(kinds.len(), RESPONSE_VARIANTS);
    let records: HashSet<_> = responses
        .iter()
        .filter_map(|r| match r {
            Response::Replicate { record, .. } => Some(discriminant(record)),
            _ => None,
        })
        .collect();
    assert_eq!(records.len(), 5, "every ReplicationRecord variant");
}

#[test]
fn every_request_variant_round_trips_through_both_codecs() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xC0DEC);
    for round in 0..ROUNDS {
        for kind in [CodecKind::Json, CodecKind::Binary] {
            let c = codec(kind);
            let original = request(round, &mut rng);
            let back = frame_round_trip(
                kind,
                |out| c.encode_request(&original, out),
                |payload| c.decode_request(payload),
            );
            assert_eq!(back, original, "{kind:?} round {round}");
        }
    }
}

#[test]
fn every_response_variant_round_trips_through_both_codecs() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xFACADE);
    for round in 0..ROUNDS {
        for kind in [CodecKind::Json, CodecKind::Binary] {
            let c = codec(kind);
            let original = response(round, &mut rng);
            let back = frame_round_trip(
                kind,
                |out| c.encode_response(&original, out),
                |payload| c.decode_response(payload),
            );
            assert_eq!(back, original, "{kind:?} round {round}");
        }
    }
}

#[test]
fn every_truncation_of_a_binary_frame_is_incomplete_not_garbage() {
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    let c = codec(CodecKind::Binary);
    for round in 0..REQUEST_VARIANTS {
        let mut wire = Vec::new();
        c.encode_request(&request(round, &mut rng), &mut wire);
        for cut in 0..wire.len() {
            match c.next_frame(&wire[..cut]) {
                Ok(None) => {}
                other => panic!("prefix of {cut}/{} bytes: {other:?}", wire.len()),
            }
        }
    }
}

#[test]
fn every_truncation_of_a_json_frame_is_incomplete_not_garbage() {
    let mut rng = ChaCha8Rng::seed_from_u64(8);
    let c = codec(CodecKind::Json);
    for round in 0..REQUEST_VARIANTS {
        let mut wire = Vec::new();
        c.encode_request(&request(round, &mut rng), &mut wire);
        // Up to (not including) the newline, the frame must be incomplete.
        for cut in 0..wire.len() - 1 {
            match c.next_frame(&wire[..cut]) {
                Ok(None) => {}
                other => panic!("prefix of {cut}/{} bytes: {other:?}", wire.len()),
            }
        }
    }
}

#[test]
fn an_oversized_length_prefix_is_the_typed_frame_too_large_error() {
    let c = codec(CodecKind::Binary);
    let oversized = (MAX_FRAME_BYTES as u32 + 1).to_le_bytes();
    let err = c.next_frame(&oversized).expect_err("must be rejected");
    assert_eq!(err.code, ErrorCode::FrameTooLarge);
    // The limit itself is fine (frame merely incomplete at 4 header bytes).
    let at_limit = (MAX_FRAME_BYTES as u32).to_le_bytes();
    assert!(matches!(c.next_frame(&at_limit), Ok(None)));
}

#[test]
fn random_garbage_never_panics_either_decoder() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xBAD);
    for _ in 0..256 {
        let len = rng.gen_range(0..200);
        let garbage: Vec<u8> = (0..len).map(|_| rng.gen::<u32>() as u8).collect();
        for kind in [CodecKind::Json, CodecKind::Binary] {
            let c = codec(kind);
            // Framing may fail or succeed; decoding whatever frame appears
            // may fail — but nothing panics.
            if let Ok(Some(frame)) = c.next_frame(&garbage) {
                let _ = c.decode_request(&garbage[frame.start..frame.end]);
                let _ = c.decode_response(&garbage[frame.start..frame.end]);
            }
        }
        // Behind a valid state header too, so the bytes reach the tree
        // decoder.
        let _ = decode_state(&[&STATE_HEADER[..], &garbage].concat());
    }
}

#[test]
fn pipelined_frames_on_one_buffer_come_back_in_order() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x91951);
    for kind in [CodecKind::Json, CodecKind::Binary] {
        let c = codec(kind);
        let originals: Vec<Request> = (0..2 * REQUEST_VARIANTS)
            .map(|v| request(v, &mut rng))
            .collect();
        let mut wire = Vec::new();
        for r in &originals {
            c.encode_request(r, &mut wire);
        }
        let mut decoded = Vec::new();
        let mut pos = 0;
        while pos < wire.len() {
            let frame = c
                .next_frame(&wire[pos..])
                .expect("well-formed pipeline")
                .expect("complete frame");
            decoded.push(
                c.decode_request(&wire[pos + frame.start..pos + frame.end])
                    .unwrap(),
            );
            pos += frame.consumed;
        }
        assert_eq!(decoded, originals, "{kind:?}");
    }
}

/// Magic and format byte of every state blob.
const STATE_HEADER: [u8; 5] = *b"SKMS\x01";

const EDGE_FLOATS: [f64; 8] = [
    0.0,
    -0.0,
    f64::MIN_POSITIVE,
    f64::MIN_POSITIVE / 4.0, // subnormal
    -5e-324,                 // smallest subnormal
    f64::MAX,
    f64::MIN,
    0.1,
];

const KEYS: [&str; 4] = ["", "k", "cl\u{e9}", "\u{1F600}\u{e9}t\u{e9}"];

/// A random `Value` tree over every variant, biased towards the edge values
/// a state blob must keep bit for bit.
fn value(depth: usize, rng: &mut ChaCha8Rng) -> Value {
    let variants = if depth >= 4 { 6 } else { 8 };
    match rng.gen_range(0..variants) {
        0 => Value::Null,
        1 => Value::Bool(rng.gen_bool(0.5)),
        2 => Value::UInt(match rng.gen_range(0..4) {
            0 => 0,
            1 => u128::MAX,
            2 => u128::from(u64::MAX) + 1,
            _ => u128::from(rng.gen::<u64>()),
        }),
        3 => Value::Int(match rng.gen_range(0..3) {
            0 => i64::MIN,
            1 => -1,
            _ => -rng.gen_range(1..i64::MAX),
        }),
        4 => Value::Float(if rng.gen_bool(0.5) {
            EDGE_FLOATS[rng.gen_range(0..EDGE_FLOATS.len())]
        } else {
            // Random bit patterns, kept finite: non-finite floats are
            // `Value::Null` at the serde layer.
            let f = f64::from_bits(rng.gen());
            if f.is_finite() {
                f
            } else {
                1.5
            }
        }),
        5 => Value::Str(KEYS[rng.gen_range(0..KEYS.len())].repeat(rng.gen_range(0..3))),
        6 => Value::Seq(
            (0..rng.gen_range(0..4))
                .map(|_| value(depth + 1, rng))
                .collect(),
        ),
        _ => Value::Map(
            (0..rng.gen_range(0..4))
                .map(|_| {
                    let key = KEYS[rng.gen_range(0..KEYS.len())].to_string();
                    (key, value(depth + 1, rng))
                })
                .collect(),
        ),
    }
}

/// Discriminant indices of every node in a tree.
fn variants_in(value: &Value, seen: &mut [bool; 8]) {
    let index = match value {
        Value::Null => 0,
        Value::Bool(_) => 1,
        Value::UInt(_) => 2,
        Value::Int(_) => 3,
        Value::Float(_) => 4,
        Value::Str(_) => 5,
        Value::Seq(items) => {
            items.iter().for_each(|v| variants_in(v, seen));
            6
        }
        Value::Map(entries) => {
            entries.iter().for_each(|(_, v)| variants_in(v, seen));
            7
        }
    };
    seen[index] = true;
}

/// Round trip that also pins the exact bits: a decoded tree re-encodes to
/// the very same bytes (`==` on `Value` cannot tell `-0.0` from `0.0`).
fn assert_state_round_trip(original: &Value, context: &str) -> Vec<u8> {
    let blob = encode_state(original);
    let back = decode_state(&blob).unwrap_or_else(|e| panic!("{context}: {e}"));
    assert_eq!(&back, original, "{context}");
    assert_eq!(encode_state(&back), blob, "{context}: bits changed");
    blob
}

#[test]
fn random_value_trees_round_trip_through_the_state_codec_bit_for_bit() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x57A7E);
    let mut seen = [false; 8];
    for round in 0..4 * ROUNDS {
        let tree = value(0, &mut rng);
        variants_in(&tree, &mut seen);
        assert_state_round_trip(&tree, &format!("round {round}"));
    }
    assert_eq!(seen, [true; 8], "every Value variant");
    // The empty containers and the sign of zero, on their own.
    for edge in [
        Value::Seq(Vec::new()),
        Value::Map(Vec::new()),
        Value::Str(String::new()),
        Value::Float(-0.0),
    ] {
        assert_state_round_trip(&edge, &format!("{edge:?}"));
    }
    let negative_zero = decode_state(&encode_state(&Value::Float(-0.0))).unwrap();
    assert!(matches!(negative_zero, Value::Float(z) if z.is_sign_negative()));
}

/// A fresh directory per test thread: tests share the process id.
fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "skm-state-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn tiny_spec(kind: BackendKind) -> EngineSpec {
    EngineSpec {
        kind,
        stream: StreamConfig::new(2)
            .with_bucket_size(4)
            .with_kmeans_runs(1)
            .with_lloyd_iterations(1),
        shards: 2,
        batch: 4,
        nesting_depth: 2,
        seed: 3,
    }
}

/// A tenant's real checkpoint blob: the engine runs with a log, takes
/// points and a strict query, and checkpoints; the blob is read back from
/// the log directory.
fn real_checkpoint(kind: BackendKind, points: usize) -> Vec<u8> {
    let dir = temp_dir(kind.tag());
    let config = WalConfig::new(dir.clone());
    let engine = Engine::new(&tiny_spec(kind))
        .unwrap()
        .with_wal(config.clone())
        .unwrap();
    for i in 0..points {
        let x = if i % 2 == 0 { -0.0 } else { 40.0 };
        engine.ingest_in("t", &[x, i as f64 / 7.0]).unwrap();
    }
    engine.query_in("t", Freshness::Strict).unwrap();
    engine.checkpoint_now_in("t").unwrap();
    drop(engine);
    let recovered = skm_wal::Wal::open(config.tenant_dir("t"), config.options()).unwrap();
    let (_, blob) = recovered.checkpoint.expect("a checkpoint");
    let _ = std::fs::remove_dir_all(&dir);
    blob
}

#[test]
fn real_tenant_checkpoints_round_trip_through_the_state_codec() {
    for kind in [
        BackendKind::Cc,
        BackendKind::Ct,
        BackendKind::Rcc,
        BackendKind::ShardedCc,
    ] {
        let blob = real_checkpoint(kind, 60);
        let state = decode_state(&blob).unwrap_or_else(|e| panic!("{kind:?}: {e}"));
        let again = assert_state_round_trip(&state, kind.tag());
        assert_eq!(again, blob, "{kind:?}: the log holds encode_state bytes");
    }
}

/// Offsets of every node's tag byte in a state blob, read off the
/// documented layout.
fn tag_offsets(blob: &[u8]) -> Vec<usize> {
    fn count_at(blob: &[u8], pos: usize) -> usize {
        u32::from_le_bytes(blob[pos..pos + 4].try_into().unwrap()) as usize
    }
    fn walk(blob: &[u8], pos: &mut usize, out: &mut Vec<usize>) {
        out.push(*pos);
        let tag = blob[*pos];
        *pos += 1;
        match tag {
            0x01..=0x03 => {}
            0x04 => *pos += 16,
            0x05 | 0x06 => *pos += 8,
            0x07 => *pos += 4 + count_at(blob, *pos),
            0x08 => {
                let n = count_at(blob, *pos);
                *pos += 4;
                for _ in 0..n {
                    walk(blob, pos, out);
                }
            }
            0x09 => {
                let n = count_at(blob, *pos);
                *pos += 4;
                for _ in 0..n {
                    *pos += 4 + count_at(blob, *pos);
                    walk(blob, pos, out);
                }
            }
            other => panic!("unexpected tag {other:#04x} at {}", *pos - 1),
        }
    }
    let mut pos = STATE_HEADER.len();
    let mut out = Vec::new();
    walk(blob, &mut pos, &mut out);
    assert_eq!(pos, blob.len(), "layout walk covers the blob");
    out
}

fn nested_seqs(depth: usize) -> Vec<u8> {
    let mut blob = STATE_HEADER.to_vec();
    for _ in 0..depth {
        blob.push(0x08);
        blob.extend_from_slice(&1u32.to_le_bytes());
    }
    blob.push(0x01);
    blob
}

#[test]
fn hostile_state_blobs_are_errors_not_panics() {
    let blob = real_checkpoint(BackendKind::Cc, 12);
    assert!(decode_state(&blob).is_ok());
    assert_eq!(&blob[..STATE_HEADER.len()], &STATE_HEADER);

    for cut in 0..blob.len() {
        assert!(decode_state(&blob[..cut]).is_err(), "prefix {cut}");
    }

    let tags = tag_offsets(&blob);
    assert!(tags.len() > 50, "fixture too small: {} nodes", tags.len());
    for &at in &tags {
        for unknown in [0x00, 0x0A, 0xFF] {
            let mut bad = blob.clone();
            bad[at] = unknown;
            let err = decode_state(&bad).expect_err("unknown tag accepted");
            assert!(err.contains("unknown state value tag"), "{at}: {err}");
        }
    }

    let mut trailing = blob.clone();
    trailing.push(0x01);
    assert!(decode_state(&trailing).unwrap_err().contains("trailing"));

    let mut wrong_format = blob.clone();
    wrong_format[4] = 2;
    assert!(decode_state(&wrong_format).is_err());

    // Counts are checked against the bytes left before anything is
    // allocated: a sequence, a map and a string each claiming more than
    // the blob holds.
    for tag in [0x07u8, 0x08, 0x09] {
        let mut bad = STATE_HEADER.to_vec();
        bad.push(tag);
        bad.extend_from_slice(&u32::MAX.to_le_bytes());
        bad.extend_from_slice(&[0x01; 64]);
        assert!(decode_state(&bad).is_err(), "tag {tag:#04x}");
    }
    // A count that fits the bytes left, but not beside the elements its
    // enclosing sequence still owes: refused at the count, so nested
    // containers can never pre-allocate the same bytes twice.
    let n = 100u32;
    let mut owed = STATE_HEADER.to_vec();
    owed.push(0x08);
    owed.extend_from_slice(&2u32.to_le_bytes());
    owed.push(0x08);
    owed.extend_from_slice(&(n + 1).to_le_bytes());
    owed.extend_from_slice(&vec![0x01; n as usize + 1]);
    let err = decode_state(&owed).unwrap_err();
    assert!(err.contains("does not fit"), "{err}");
    // One element fewer is the well-formed twin.
    owed[STATE_HEADER.len() + 6..STATE_HEADER.len() + 10].copy_from_slice(&n.to_le_bytes());
    assert!(decode_state(&owed).is_ok());

    assert!(decode_state(&nested_seqs(MAX_STATE_DEPTH)).is_ok());
    let err = decode_state(&nested_seqs(MAX_STATE_DEPTH + 1)).unwrap_err();
    assert!(err.contains("deeper than"), "{err}");

    // What a text-checkpointing build left in the log: the JSON envelope.
    let engine = Engine::new(&tiny_spec(BackendKind::Cc)).unwrap();
    engine.ingest_in("t", &[1.0, 2.0]).unwrap();
    let json = engine.snapshot_json_in("t").unwrap();
    let err = decode_state(json.as_bytes()).unwrap_err();
    assert!(err.contains("JSON"), "{err}");
}
