//! Codec property tests: every `Request`/`Response` variant survives the
//! JSON and binary framings byte-exactly, truncated frames are reported as
//! incomplete (never as garbage), oversized length prefixes die with the
//! typed `FrameTooLarge` error, hostile bytes never panic the decoder, and
//! pipelined frames concatenated on one buffer come back in order.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use skm_serve::codec::{codec, CodecKind, MAX_FRAME_BYTES};
use skm_serve::protocol::{
    ErrorCode, Freshness, ReplicationRecord, Request, Response, TenantConfig, WindowSpec,
};
use skm_stream::{QueryStats, StreamStats, WindowInfo};

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
