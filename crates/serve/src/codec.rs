//! Wire codecs: framing + encode/decode for [`Request`]/[`Response`].
//!
//! Revision 1.3 of the protocol (see `docs/PROTOCOL.md`) speaks two codecs
//! over the same message model:
//!
//! * [`JsonCodec`] — one externally-tagged JSON document per `\n`-terminated
//!   line. The default, the debug protocol, and the only codec a connection
//!   speaks until a `Hello{binary}` handshake succeeds; byte-compatible with
//!   every pre-1.3 client.
//! * [`BinaryCodec`] — length-prefixed compact binary: a `u32` little-endian
//!   payload length followed by a tag byte and fixed-width fields. No text
//!   parsing on the hot path, and `f64`s travel as IEEE-754 bit patterns
//!   (NaN costs survive a round trip, which JSON `null` cannot represent).
//!
//! Both implement the [`Codec`] trait: incremental frame extraction from a
//! receive buffer ([`Codec::next_frame`]) plus whole-message encode/decode.
//! The server, the client and the tests all share these two implementations,
//! so there is exactly one definition of the bytes on the wire.
//!
//! The same writers and bounds-checked reader define the bytes the
//! write-ahead log stores: [`encode_replication_record`] for log records
//! and [`encode_state`] for checkpoint blobs, a generic binary form of the
//! [`serde::Value`] tree that keeps every `f64` bit.

use crate::protocol::{
    ErrorCode, Freshness, ReplicationRecord, Request, Response, TenantConfig, MAX_LINE_BYTES,
};
use skm_stream::{QueryStats, StreamStats, WindowInfo};

/// Maximum frame payload in bytes, both codecs. For JSON this is the
/// existing [`MAX_LINE_BYTES`] line cap; for binary it bounds the declared
/// length prefix ([`ErrorCode::FrameTooLarge`] beyond it).
pub const MAX_FRAME_BYTES: usize = MAX_LINE_BYTES as usize;

/// Which codec a connection (or client) speaks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CodecKind {
    /// Newline-delimited JSON (the default and the debug protocol).
    #[default]
    Json,
    /// Length-prefixed compact binary.
    Binary,
}

impl CodecKind {
    /// The wire spelling used by `Hello{codec}` and `--codec` flags.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            CodecKind::Json => "json",
            CodecKind::Binary => "binary",
        }
    }

    /// Parses the wire spelling (case-insensitive).
    #[must_use]
    pub fn parse(tag: &str) -> Option<Self> {
        match tag.to_ascii_lowercase().as_str() {
            "json" => Some(CodecKind::Json),
            "binary" => Some(CodecKind::Binary),
            _ => None,
        }
    }
}

/// One complete frame located inside a receive buffer: the payload is
/// `&buf[start..end]`, and `consumed` bytes (payload plus framing) must be
/// drained from the front of the buffer once the frame is processed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Frame {
    /// Payload start offset in the scanned buffer.
    pub start: usize,
    /// Payload end offset (exclusive).
    pub end: usize,
    /// Total bytes this frame occupies at the front of the buffer.
    pub consumed: usize,
}

/// A framing-level failure: the connection cannot be resynchronized, so the
/// server answers with `code` and closes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrameError {
    /// [`ErrorCode::LineTooLong`] (JSON) or [`ErrorCode::FrameTooLarge`]
    /// (binary).
    pub code: ErrorCode,
    /// Human-readable detail.
    pub message: String,
}

/// A wire codec: framing plus message encode/decode. Implementations are
/// stateless unit structs shared via [`codec`].
pub trait Codec: std::fmt::Debug + Send + Sync {
    /// Which codec this is.
    fn kind(&self) -> CodecKind;

    /// Scans the front of a receive buffer for one complete frame.
    /// `Ok(None)` means more bytes are needed.
    ///
    /// # Errors
    /// A [`FrameError`] when the frame can never complete within
    /// [`MAX_FRAME_BYTES`]; the connection must be closed after reporting
    /// it.
    fn next_frame(&self, buf: &[u8]) -> Result<Option<Frame>, FrameError>;

    /// Appends one complete frame (framing included) encoding `request`.
    fn encode_request(&self, request: &Request, out: &mut Vec<u8>);

    /// Decodes a frame payload (as located by [`Codec::next_frame`]) into a
    /// request.
    ///
    /// # Errors
    /// A parse failure message (the server answers it as
    /// [`ErrorCode::MalformedRequest`]).
    fn decode_request(&self, payload: &[u8]) -> Result<Request, String>;

    /// Appends one complete frame (framing included) encoding `response`.
    fn encode_response(&self, response: &Response, out: &mut Vec<u8>);

    /// Decodes a frame payload into a response.
    ///
    /// # Errors
    /// A parse failure message.
    fn decode_response(&self, payload: &[u8]) -> Result<Response, String>;
}

/// The shared stateless instance for `kind` (codecs carry no state, so one
/// `'static` instance each serves every connection).
#[must_use]
pub fn codec(kind: CodecKind) -> &'static dyn Codec {
    match kind {
        CodecKind::Json => &JsonCodec,
        CodecKind::Binary => &BinaryCodec,
    }
}

/// Newline-delimited JSON codec (protocol default; see module docs).
#[derive(Debug, Clone, Copy)]
pub struct JsonCodec;

impl Codec for JsonCodec {
    fn kind(&self) -> CodecKind {
        CodecKind::Json
    }

    fn next_frame(&self, buf: &[u8]) -> Result<Option<Frame>, FrameError> {
        match buf.iter().position(|b| *b == b'\n') {
            Some(nl) => Ok(Some(Frame {
                start: 0,
                end: nl,
                consumed: nl + 1,
            })),
            None if buf.len() >= MAX_FRAME_BYTES => Err(FrameError {
                code: ErrorCode::LineTooLong,
                message: format!(
                    "request line exceeded the {MAX_FRAME_BYTES}-byte limit without a newline"
                ),
            }),
            None => Ok(None),
        }
    }

    fn encode_request(&self, request: &Request, out: &mut Vec<u8>) {
        out.extend_from_slice(request.to_line().as_bytes());
        out.push(b'\n');
    }

    fn decode_request(&self, payload: &[u8]) -> Result<Request, String> {
        let line = std::str::from_utf8(payload)
            .map_err(|_| "request line is not valid UTF-8".to_string())?;
        Request::from_line(line.trim())
    }

    fn encode_response(&self, response: &Response, out: &mut Vec<u8>) {
        out.extend_from_slice(response.to_line().as_bytes());
        out.push(b'\n');
    }

    fn decode_response(&self, payload: &[u8]) -> Result<Response, String> {
        let line = std::str::from_utf8(payload).map_err(|e| e.to_string())?;
        Response::from_line(line.trim())
    }
}

// Binary message tags. Requests are 0x01.., responses 0x81.. so a stray
// response frame can never parse as a request (and vice versa).
const TAG_REQ_INGEST: u8 = 0x01;
const TAG_REQ_INGEST_BATCH: u8 = 0x02;
const TAG_REQ_QUERY: u8 = 0x03;
const TAG_REQ_STATS: u8 = 0x04;
const TAG_REQ_CONFIGURE: u8 = 0x05;
const TAG_REQ_SNAPSHOT: u8 = 0x06;
const TAG_REQ_SHUTDOWN: u8 = 0x07;
const TAG_REQ_HELLO: u8 = 0x08;
const TAG_REQ_REPLICATE: u8 = 0x09;
const TAG_RESP_INGESTED: u8 = 0x81;
const TAG_RESP_CENTERS: u8 = 0x82;
const TAG_RESP_STATS: u8 = 0x83;
const TAG_RESP_CONFIGURED: u8 = 0x84;
const TAG_RESP_SNAPSHOTTED: u8 = 0x85;
const TAG_RESP_BYE: u8 = 0x86;
const TAG_RESP_ERROR: u8 = 0x87;
const TAG_RESP_HELLO: u8 = 0x88;
const TAG_RESP_REPLICA_SNAPSHOT: u8 = 0x89;
const TAG_RESP_REPLICATE: u8 = 0x8A;
// Windowed answers (revision 1.5) travel under their own tags instead of
// optional trailing bytes: a truncated frame must read as *incomplete*,
// never as a valid un-windowed answer.
const TAG_RESP_CENTERS_WINDOWED: u8 = 0x8B;
const TAG_RESP_STATS_WINDOWED: u8 = 0x8C;

// Replication-record tags (the payload byte of WAL records and of the
// `record` field inside `Replicate` responses). Append-only, like the
// frame tags; 0x00 is deliberately unused so an all-zeroes torn read can
// never decode as a record.
const TAG_RECORD_INGEST: u8 = 0x01;
const TAG_RECORD_INGEST_BATCH: u8 = 0x02;
const TAG_RECORD_QUERY: u8 = 0x03;
const TAG_RECORD_STATS: u8 = 0x04;
const TAG_RECORD_QUERY_WINDOW: u8 = 0x05;

/// Length-prefixed compact binary codec (see module docs and
/// `docs/PROTOCOL.md` §Binary framing for the normative byte layout).
#[derive(Debug, Clone, Copy)]
pub struct BinaryCodec;

impl Codec for BinaryCodec {
    fn kind(&self) -> CodecKind {
        CodecKind::Binary
    }

    fn next_frame(&self, buf: &[u8]) -> Result<Option<Frame>, FrameError> {
        let Some(&[b0, b1, b2, b3]) = buf.get(..4) else {
            return Ok(None);
        };
        let len = u32::from_le_bytes([b0, b1, b2, b3]) as usize;
        if len > MAX_FRAME_BYTES {
            return Err(FrameError {
                code: ErrorCode::FrameTooLarge,
                message: format!(
                    "frame declares {len} payload bytes, above the {MAX_FRAME_BYTES}-byte limit"
                ),
            });
        }
        if buf.len() < 4 + len {
            return Ok(None);
        }
        Ok(Some(Frame {
            start: 4,
            end: 4 + len,
            consumed: 4 + len,
        }))
    }

    fn encode_request(&self, request: &Request, out: &mut Vec<u8>) {
        with_length_prefix(out, |payload| encode_request_payload(request, payload));
    }

    fn decode_request(&self, payload: &[u8]) -> Result<Request, String> {
        let mut r = Reader::new(payload);
        let request = decode_request_payload(&mut r)?;
        r.finish()?;
        Ok(request)
    }

    fn encode_response(&self, response: &Response, out: &mut Vec<u8>) {
        with_length_prefix(out, |payload| encode_response_payload(response, payload));
    }

    fn decode_response(&self, payload: &[u8]) -> Result<Response, String> {
        let mut r = Reader::new(payload);
        let response = decode_response_payload(&mut r)?;
        r.finish()?;
        Ok(response)
    }
}

/// Reserves the 4-byte length slot, runs `fill` to append the payload, then
/// patches the slot with the payload length.
fn with_length_prefix(out: &mut Vec<u8>, fill: impl FnOnce(&mut Vec<u8>)) {
    let slot = out.len();
    out.extend_from_slice(&[0u8; 4]);
    fill(out);
    let len = out.len() - slot - 4;
    assert!(
        len <= MAX_FRAME_BYTES,
        "encoded frame exceeds MAX_FRAME_BYTES"
    );
    // lint:allow(panic-freedom) encode-side invariant: the assert above bounds len under u32
    let len32 = u32::try_from(len).expect("frame cap fits u32");
    if let Some(slot_bytes) = out.get_mut(slot..slot + 4) {
        slot_bytes.copy_from_slice(&len32.to_le_bytes());
    }
}

// ---- binary writers (all integers little-endian) ------------------------

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_bits().to_le_bytes());
}

fn put_bool(out: &mut Vec<u8>, v: bool) {
    out.push(u8::from(v));
}

fn put_usize(out: &mut Vec<u8>, v: usize) {
    put_u64(out, v as u64);
}

fn put_len(out: &mut Vec<u8>, len: usize) {
    // lint:allow(panic-freedom) encode-side invariant: lengths come from in-memory buffers (frames under the frame cap, state containers far below u32::MAX elements)
    put_u32(out, u32::try_from(len).expect("length fits a u32"));
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_len(out, s.len());
    out.extend_from_slice(s.as_bytes());
}

/// Option presence flag: 0 = absent, 1 = present followed by the value.
fn put_opt<T>(out: &mut Vec<u8>, opt: &Option<T>, put: impl FnOnce(&mut Vec<u8>, &T)) {
    match opt {
        None => out.push(0),
        Some(v) => {
            out.push(1);
            put(out, v);
        }
    }
}

fn put_row(out: &mut Vec<u8>, row: &[f64]) {
    put_len(out, row.len());
    for v in row {
        put_f64(out, *v);
    }
}

/// Row count, then each row as its own length + coordinates (rows are not
/// assumed rectangular; the message model is `Vec<Vec<f64>>`).
fn put_points(out: &mut Vec<u8>, points: &[Vec<f64>]) {
    put_len(out, points.len());
    for row in points {
        put_row(out, row);
    }
}

fn put_freshness(out: &mut Vec<u8>, f: Freshness) {
    out.push(match f {
        Freshness::Strict => 0,
        Freshness::Cached => 1,
    });
}

fn put_namespace(out: &mut Vec<u8>, ns: &Option<String>) {
    put_opt(out, ns, |out, s| put_str(out, s));
}

/// Window *request* section (revision 1.5): appended to `Query`/`Stats`
/// frames only when a window is present, so window-free frames are
/// byte-identical to their pre-1.5 encoding. Inside the section each
/// selector carries its own presence byte, so every carrier shape — even
/// hostile both/neither specs — round-trips and is rejected by validation
/// with the typed [`ErrorCode::BadWindow`] rather than being
/// unrepresentable.
///
/// Binary `last_points` travels as a `u64` (negative values are a
/// JSON-only hostile shape; encoding one saturates to 0, which validation
/// rejects the same way).
fn put_window_spec(out: &mut Vec<u8>, w: &crate::protocol::WindowSpec) {
    put_opt(out, &w.last_points, |out, n| {
        put_u64(out, u64::try_from(*n).unwrap_or(0));
    });
    put_opt(out, &w.last_secs, |out, t| put_f64(out, *t));
}

/// Window *response* info: the resolved window and its exact coverage.
fn put_window_info(out: &mut Vec<u8>, w: &skm_stream::WindowInfo) {
    put_u64(out, w.last_points);
    put_u64(out, w.covered_points);
}

fn put_replication_record(out: &mut Vec<u8>, record: &ReplicationRecord) {
    match record {
        ReplicationRecord::Ingest { point } => {
            out.push(TAG_RECORD_INGEST);
            put_row(out, point);
        }
        ReplicationRecord::IngestBatch { points } => {
            out.push(TAG_RECORD_INGEST_BATCH);
            put_points(out, points);
        }
        ReplicationRecord::Query {} => out.push(TAG_RECORD_QUERY),
        ReplicationRecord::Stats {} => out.push(TAG_RECORD_STATS),
        ReplicationRecord::QueryWindow { last_points } => {
            out.push(TAG_RECORD_QUERY_WINDOW);
            put_u64(out, *last_points);
        }
    }
}

/// Encodes one [`ReplicationRecord`] as a standalone binary payload: the
/// byte string stored in the write-ahead log and carried inside binary
/// `Replicate` frames. One definition of the bytes, so a WAL written by a
/// primary is replayable by any reader of this module.
#[must_use]
pub fn encode_replication_record(record: &ReplicationRecord) -> Vec<u8> {
    let mut out = Vec::new();
    put_replication_record(&mut out, record);
    out
}

/// Decodes a standalone [`ReplicationRecord`] payload (the inverse of
/// [`encode_replication_record`]), rejecting truncation, hostile counts
/// and trailing bytes.
///
/// # Errors
/// A parse failure message (WAL recovery surfaces it as corruption).
pub fn decode_replication_record(payload: &[u8]) -> Result<ReplicationRecord, String> {
    let mut r = Reader::new(payload);
    let record = r.replication_record()?;
    r.finish()?;
    Ok(record)
}

// ---- state blobs (WAL checkpoints) ---------------------------------------

/// First bytes of every state blob. A JSON envelope starts with `{`, so a
/// checkpoint written by an earlier, text-checkpointing build can never
/// pass for one.
const STATE_MAGIC: [u8; 4] = *b"SKMS";

/// Encoding revision, the byte after [`STATE_MAGIC`].
const STATE_FORMAT: u8 = 1;

/// Deepest container nesting [`decode_state`] accepts (the vendored JSON
/// parser's bound too). The deepest state the workspace writes is an RCC
/// envelope: 15 levels at the server's nesting depth 2, and 3 more per
/// order.
pub const MAX_STATE_DEPTH: usize = 128;

// Value-node tags. 0x00 is unused so zeroed bytes never decode.
const TAG_VALUE_NULL: u8 = 0x01;
const TAG_VALUE_FALSE: u8 = 0x02;
const TAG_VALUE_TRUE: u8 = 0x03;
const TAG_VALUE_UINT: u8 = 0x04;
const TAG_VALUE_INT: u8 = 0x05;
const TAG_VALUE_FLOAT: u8 = 0x06;
const TAG_VALUE_STR: u8 = 0x07;
const TAG_VALUE_SEQ: u8 = 0x08;
const TAG_VALUE_MAP: u8 = 0x09;

/// Smallest encoding of a sequence element (its tag) and of a map entry
/// (key length plus the value's tag).
const MIN_SEQ_ITEM_BYTES: usize = 1;
const MIN_MAP_ENTRY_BYTES: usize = 5;

fn put_value(out: &mut Vec<u8>, value: &serde::Value) {
    use serde::Value;
    match value {
        Value::Null => out.push(TAG_VALUE_NULL),
        Value::Bool(false) => out.push(TAG_VALUE_FALSE),
        Value::Bool(true) => out.push(TAG_VALUE_TRUE),
        Value::UInt(u) => {
            out.push(TAG_VALUE_UINT);
            out.extend_from_slice(&u.to_le_bytes());
        }
        Value::Int(i) => {
            out.push(TAG_VALUE_INT);
            out.extend_from_slice(&i.to_le_bytes());
        }
        Value::Float(f) => {
            out.push(TAG_VALUE_FLOAT);
            put_f64(out, *f);
        }
        Value::Str(s) => {
            out.push(TAG_VALUE_STR);
            put_str(out, s);
        }
        Value::Seq(items) => {
            out.push(TAG_VALUE_SEQ);
            put_len(out, items.len());
            for item in items {
                put_value(out, item);
            }
        }
        Value::Map(entries) => {
            out.push(TAG_VALUE_MAP);
            put_len(out, entries.len());
            for (key, item) in entries {
                put_str(out, key);
                put_value(out, item);
            }
        }
    }
}

/// Encodes a [`serde::Value`] tree as a binary state blob: the byte string
/// of every WAL checkpoint. The magic `SKMS` and a format byte, then one
/// tag byte per node. Floats travel as their exact little-endian IEEE-754
/// bits, integers as little-endian `u128`/`i64`; strings, sequences and
/// maps carry a little-endian `u32` count ahead of their bytes, elements
/// or `(key, value)` entries.
#[must_use]
pub fn encode_state(value: &serde::Value) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&STATE_MAGIC);
    out.push(STATE_FORMAT);
    put_value(&mut out, value);
    out
}

/// Decodes a blob written by [`encode_state`], rejecting a wrong magic,
/// truncation, unknown tags, nesting past [`MAX_STATE_DEPTH`] and trailing
/// bytes.
///
/// Hostile counts cannot make it allocate: every container's count,
/// together with the elements still owed by the containers it sits in,
/// must fit the bytes left at their smallest encodings. So the tree it
/// pre-allocates never holds more nodes than the blob has bytes.
///
/// # Errors
/// A parse failure message (WAL recovery surfaces it as corruption).
pub fn decode_state(blob: &[u8]) -> Result<serde::Value, String> {
    let mut r = Reader::new(blob);
    if r.take(STATE_MAGIC.len()).ok() != Some(&STATE_MAGIC[..]) {
        return Err(if blob.first() == Some(&b'{') {
            "a JSON envelope, not a binary state blob (an earlier build wrote it)".to_string()
        } else {
            "not a binary state blob (bad magic)".to_string()
        });
    }
    let format = r.u8()?;
    if format != STATE_FORMAT {
        return Err(format!(
            "state blob format {format} (this build reads format {STATE_FORMAT})"
        ));
    }
    let mut state = StateReader { r, owed: 0 };
    let value = state.value(0)?;
    state.r.finish()?;
    Ok(value)
}

/// [`Reader`] plus the bytes owed to declared container elements that
/// have not been read yet (at their smallest encodings).
struct StateReader<'a> {
    r: Reader<'a>,
    owed: usize,
}

impl StateReader<'_> {
    /// A container's element count, accepted only if the elements fit the
    /// bytes left beside everything already owed.
    fn count(&mut self, min_element_size: usize) -> Result<usize, String> {
        let n = self.r.u32()? as usize;
        let free = self.r.remaining().saturating_sub(self.owed);
        if n > free / min_element_size {
            return Err(format!(
                "declared count {n} does not fit the {free} unclaimed state bytes"
            ));
        }
        self.owed += n * min_element_size;
        Ok(n)
    }

    fn value(&mut self, depth: usize) -> Result<serde::Value, String> {
        use serde::Value;
        let tag = self.r.u8()?;
        if matches!(tag, TAG_VALUE_SEQ | TAG_VALUE_MAP) && depth >= MAX_STATE_DEPTH {
            return Err(format!("state nests deeper than {MAX_STATE_DEPTH} levels"));
        }
        Ok(match tag {
            TAG_VALUE_NULL => Value::Null,
            TAG_VALUE_FALSE => Value::Bool(false),
            TAG_VALUE_TRUE => Value::Bool(true),
            TAG_VALUE_UINT => {
                let b: [u8; 16] = self
                    .r
                    .take(16)?
                    .try_into()
                    .map_err(|_| "truncated state: short u128".to_string())?;
                Value::UInt(u128::from_le_bytes(b))
            }
            TAG_VALUE_INT => Value::Int(i64::from_le_bytes(self.r.u64()?.to_le_bytes())),
            TAG_VALUE_FLOAT => Value::Float(self.r.f64()?),
            TAG_VALUE_STR => Value::Str(self.r.str()?),
            TAG_VALUE_SEQ => {
                let n = self.count(MIN_SEQ_ITEM_BYTES)?;
                let mut items = Vec::with_capacity(n);
                for _ in 0..n {
                    self.owed -= MIN_SEQ_ITEM_BYTES;
                    items.push(self.value(depth + 1)?);
                }
                Value::Seq(items)
            }
            TAG_VALUE_MAP => {
                let n = self.count(MIN_MAP_ENTRY_BYTES)?;
                let mut entries = Vec::with_capacity(n);
                for _ in 0..n {
                    self.owed -= MIN_MAP_ENTRY_BYTES;
                    let key = self.r.str()?;
                    entries.push((key, self.value(depth + 1)?));
                }
                Value::Map(entries)
            }
            other => return Err(format!("unknown state value tag {other:#04x}")),
        })
    }
}

fn put_query_stats(out: &mut Vec<u8>, s: &QueryStats) {
    put_usize(out, s.coresets_merged);
    put_usize(out, s.candidate_points);
    put_opt(out, &s.coreset_level, |out, v| put_u32(out, *v));
    put_bool(out, s.used_cache);
    put_bool(out, s.ran_kmeans);
}

fn put_stream_stats(out: &mut Vec<u8>, s: &StreamStats) {
    put_u64(out, s.points_seen);
    put_usize(out, s.shards);
    put_len(out, s.per_shard_points.len());
    for v in &s.per_shard_points {
        put_u64(out, *v);
    }
    put_opt(out, &s.last_query, put_query_stats);
}

/// [`ErrorCode`] as a stable one-byte tag (wire order is part of the
/// protocol; append-only — see `docs/PROTOCOL.md`).
fn error_code_tag(code: ErrorCode) -> u8 {
    match code {
        ErrorCode::MalformedRequest => 0,
        ErrorCode::LineTooLong => 1,
        ErrorCode::DimensionMismatch => 2,
        ErrorCode::NonFiniteCoordinate => 3,
        ErrorCode::InvalidPoint => 4,
        ErrorCode::BatchTooLarge => 5,
        ErrorCode::EmptyStream => 6,
        ErrorCode::SnapshotUnavailable => 7,
        ErrorCode::BadNamespace => 8,
        ErrorCode::TenantLimit => 9,
        ErrorCode::TenantExists => 10,
        ErrorCode::Internal => 11,
        ErrorCode::BadCodec => 12,
        ErrorCode::FrameTooLarge => 13,
        ErrorCode::ReplicationLag => 14,
        ErrorCode::WalCorrupt => 15,
        ErrorCode::BadWindow => 16,
    }
}

fn error_code_from_tag(tag: u8) -> Result<ErrorCode, String> {
    Ok(match tag {
        0 => ErrorCode::MalformedRequest,
        1 => ErrorCode::LineTooLong,
        2 => ErrorCode::DimensionMismatch,
        3 => ErrorCode::NonFiniteCoordinate,
        4 => ErrorCode::InvalidPoint,
        5 => ErrorCode::BatchTooLarge,
        6 => ErrorCode::EmptyStream,
        7 => ErrorCode::SnapshotUnavailable,
        8 => ErrorCode::BadNamespace,
        9 => ErrorCode::TenantLimit,
        10 => ErrorCode::TenantExists,
        11 => ErrorCode::Internal,
        12 => ErrorCode::BadCodec,
        13 => ErrorCode::FrameTooLarge,
        14 => ErrorCode::ReplicationLag,
        15 => ErrorCode::WalCorrupt,
        16 => ErrorCode::BadWindow,
        other => return Err(format!("unknown error-code tag {other:#04x}")),
    })
}

fn encode_request_payload(request: &Request, out: &mut Vec<u8>) {
    match request {
        Request::Hello { codec } => {
            out.push(TAG_REQ_HELLO);
            put_str(out, codec);
        }
        Request::Ingest { point, namespace } => {
            out.push(TAG_REQ_INGEST);
            put_row(out, point);
            put_namespace(out, namespace);
        }
        Request::IngestBatch { points, namespace } => {
            out.push(TAG_REQ_INGEST_BATCH);
            put_points(out, points);
            put_namespace(out, namespace);
        }
        Request::Query {
            freshness,
            namespace,
            window,
        } => {
            out.push(TAG_REQ_QUERY);
            put_freshness(out, *freshness);
            put_namespace(out, namespace);
            // Appended only when present: a pre-1.5 Query frame is
            // byte-identical to one built by a pre-1.5 encoder.
            if let Some(w) = window {
                put_window_spec(out, w);
            }
        }
        Request::Stats {
            freshness,
            namespace,
            window,
        } => {
            out.push(TAG_REQ_STATS);
            put_freshness(out, *freshness);
            put_namespace(out, namespace);
            if let Some(w) = window {
                put_window_spec(out, w);
            }
        }
        Request::Configure { namespace, config } => {
            out.push(TAG_REQ_CONFIGURE);
            put_namespace(out, namespace);
            put_opt(out, &config.k, |out, v| put_usize(out, *v));
            put_opt(out, &config.backend, |out, s| put_str(out, s));
            put_opt(out, &config.shards, |out, v| put_usize(out, *v));
            put_opt(out, &config.batch, |out, v| put_usize(out, *v));
            put_opt(out, &config.seed, |out, v| put_u64(out, *v));
        }
        Request::Snapshot { file, namespace } => {
            out.push(TAG_REQ_SNAPSHOT);
            put_str(out, file);
            put_namespace(out, namespace);
        }
        Request::Shutdown {} => out.push(TAG_REQ_SHUTDOWN),
        Request::Replicate {
            namespace,
            from_seq,
        } => {
            out.push(TAG_REQ_REPLICATE);
            put_namespace(out, namespace);
            put_u64(out, *from_seq);
        }
    }
}

fn encode_response_payload(response: &Response, out: &mut Vec<u8>) {
    match response {
        Response::Hello { codec, revision } => {
            out.push(TAG_RESP_HELLO);
            put_str(out, codec);
            put_str(out, revision);
        }
        Response::Ingested {
            accepted,
            points_seen,
        } => {
            out.push(TAG_RESP_INGESTED);
            put_u64(out, *accepted);
            put_u64(out, *points_seen);
        }
        Response::Centers {
            centers,
            points_seen,
            epoch,
            cost,
            stats,
            window,
        } => {
            // Windowed answers get their own tag rather than optional
            // trailing bytes, so a truncated windowed frame reads as
            // incomplete — never as a valid un-windowed answer.
            out.push(if window.is_some() {
                TAG_RESP_CENTERS_WINDOWED
            } else {
                TAG_RESP_CENTERS
            });
            put_points(out, centers);
            put_u64(out, *points_seen);
            put_u64(out, *epoch);
            put_f64(out, *cost);
            put_query_stats(out, stats);
            if let Some(w) = window {
                put_window_info(out, w);
            }
        }
        Response::Stats { stats, window } => {
            out.push(if window.is_some() {
                TAG_RESP_STATS_WINDOWED
            } else {
                TAG_RESP_STATS
            });
            put_stream_stats(out, stats);
            if let Some(w) = window {
                put_window_info(out, w);
            }
        }
        Response::Configured {
            namespace,
            backend,
            k,
            shards,
        } => {
            out.push(TAG_RESP_CONFIGURED);
            put_str(out, namespace);
            put_str(out, backend);
            put_u64(out, *k);
            put_u64(out, *shards);
        }
        Response::Snapshotted { file, bytes } => {
            out.push(TAG_RESP_SNAPSHOTTED);
            put_str(out, file);
            put_u64(out, *bytes);
        }
        Response::Bye {} => out.push(TAG_RESP_BYE),
        Response::ReplicaSnapshot {
            seq,
            epoch,
            snapshot,
        } => {
            out.push(TAG_RESP_REPLICA_SNAPSHOT);
            put_u64(out, *seq);
            put_u64(out, *epoch);
            put_str(out, snapshot);
        }
        Response::Replicate {
            seq,
            primary_seq,
            record,
        } => {
            out.push(TAG_RESP_REPLICATE);
            put_u64(out, *seq);
            put_u64(out, *primary_seq);
            put_replication_record(out, record);
        }
        Response::Error { code, message } => {
            out.push(TAG_RESP_ERROR);
            out.push(error_code_tag(*code));
            put_str(out, message);
        }
    }
}

/// Bounds-checked little-endian reader over one frame payload. Every
/// variable-length count is validated against the bytes actually remaining
/// (`count * min_element_size ≤ remaining`) before any allocation, so a
/// hostile length field cannot balloon memory.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        let slice = self
            .buf
            .get(self.pos..self.pos.saturating_add(n))
            .ok_or_else(|| {
                format!(
                    "truncated frame: wanted {n} bytes, {} remain",
                    self.remaining()
                )
            })?;
        self.pos += n;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, String> {
        self.take(1)?
            .first()
            .copied()
            .ok_or_else(|| "truncated frame: empty byte read".to_string())
    }

    fn u32(&mut self) -> Result<u32, String> {
        let b: [u8; 4] = self
            .take(4)?
            .try_into()
            .map_err(|_| "truncated frame: short u32".to_string())?;
        Ok(u32::from_le_bytes(b))
    }

    fn u64(&mut self) -> Result<u64, String> {
        let b: [u8; 8] = self
            .take(8)?
            .try_into()
            .map_err(|_| "truncated frame: short u64".to_string())?;
        Ok(u64::from_le_bytes(b))
    }

    fn usize(&mut self) -> Result<usize, String> {
        usize::try_from(self.u64()?).map_err(|_| "count exceeds usize".to_string())
    }

    fn f64(&mut self) -> Result<f64, String> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn bool(&mut self) -> Result<bool, String> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(format!("invalid bool byte {other:#04x}")),
        }
    }

    /// A count of elements each at least `min_element_size` bytes; rejected
    /// if the declared count cannot fit in the remaining payload.
    fn count(&mut self, min_element_size: usize) -> Result<usize, String> {
        let n = self.u32()? as usize;
        if n > self.remaining() / min_element_size.max(1) {
            return Err(format!(
                "declared count {n} does not fit the {} remaining payload bytes",
                self.remaining()
            ));
        }
        Ok(n)
    }

    fn str(&mut self) -> Result<String, String> {
        let len = self.count(1)?;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|e| e.to_string())
    }

    fn opt<T>(
        &mut self,
        read: impl FnOnce(&mut Reader<'a>) -> Result<T, String>,
    ) -> Result<Option<T>, String> {
        match self.u8()? {
            0 => Ok(None),
            1 => read(self).map(Some),
            other => Err(format!("invalid option flag {other:#04x}")),
        }
    }

    fn row(&mut self) -> Result<Vec<f64>, String> {
        let n = self.count(8)?;
        let mut row = Vec::with_capacity(n);
        for _ in 0..n {
            row.push(self.f64()?);
        }
        Ok(row)
    }

    fn points(&mut self) -> Result<Vec<Vec<f64>>, String> {
        // Each row is at least its own 4-byte length.
        let n = self.count(4)?;
        let mut points = Vec::with_capacity(n);
        for _ in 0..n {
            points.push(self.row()?);
        }
        Ok(points)
    }

    fn freshness(&mut self) -> Result<Freshness, String> {
        match self.u8()? {
            0 => Ok(Freshness::Strict),
            1 => Ok(Freshness::Cached),
            other => Err(format!("invalid freshness byte {other:#04x}")),
        }
    }

    fn namespace(&mut self) -> Result<Option<String>, String> {
        self.opt(Reader::str)
    }

    fn window_spec(&mut self) -> Result<crate::protocol::WindowSpec, String> {
        Ok(crate::protocol::WindowSpec {
            last_points: self.opt(|r| r.u64().map(i128::from))?,
            last_secs: self.opt(Reader::f64)?,
        })
    }

    fn window_info(&mut self) -> Result<WindowInfo, String> {
        Ok(WindowInfo {
            last_points: self.u64()?,
            covered_points: self.u64()?,
        })
    }

    fn replication_record(&mut self) -> Result<ReplicationRecord, String> {
        match self.u8()? {
            TAG_RECORD_INGEST => Ok(ReplicationRecord::Ingest { point: self.row()? }),
            TAG_RECORD_INGEST_BATCH => Ok(ReplicationRecord::IngestBatch {
                points: self.points()?,
            }),
            TAG_RECORD_QUERY => Ok(ReplicationRecord::Query {}),
            TAG_RECORD_STATS => Ok(ReplicationRecord::Stats {}),
            TAG_RECORD_QUERY_WINDOW => Ok(ReplicationRecord::QueryWindow {
                last_points: self.u64()?,
            }),
            other => Err(format!("unknown replication-record tag {other:#04x}")),
        }
    }

    fn query_stats(&mut self) -> Result<QueryStats, String> {
        Ok(QueryStats {
            coresets_merged: self.usize()?,
            candidate_points: self.usize()?,
            coreset_level: self.opt(Reader::u32)?,
            used_cache: self.bool()?,
            ran_kmeans: self.bool()?,
        })
    }

    fn stream_stats(&mut self) -> Result<StreamStats, String> {
        let points_seen = self.u64()?;
        let shards = self.usize()?;
        let n = self.count(8)?;
        let mut per_shard_points = Vec::with_capacity(n);
        for _ in 0..n {
            per_shard_points.push(self.u64()?);
        }
        Ok(StreamStats {
            points_seen,
            shards,
            per_shard_points,
            last_query: self.opt(Reader::query_stats)?,
        })
    }

    /// Rejects trailing garbage: a valid frame is consumed exactly.
    fn finish(&self) -> Result<(), String> {
        if self.remaining() != 0 {
            return Err(format!(
                "{} trailing bytes after a complete message",
                self.remaining()
            ));
        }
        Ok(())
    }
}

fn decode_request_payload(r: &mut Reader<'_>) -> Result<Request, String> {
    match r.u8()? {
        TAG_REQ_HELLO => Ok(Request::Hello { codec: r.str()? }),
        TAG_REQ_INGEST => Ok(Request::Ingest {
            point: r.row()?,
            namespace: r.namespace()?,
        }),
        TAG_REQ_INGEST_BATCH => Ok(Request::IngestBatch {
            points: r.points()?,
            namespace: r.namespace()?,
        }),
        TAG_REQ_QUERY => Ok(Request::Query {
            freshness: r.freshness()?,
            namespace: r.namespace()?,
            // Absent in pre-1.5 frames; a frame that starts a window spec
            // must carry the whole thing (truncation is an error, not None).
            window: if r.remaining() == 0 {
                None
            } else {
                Some(r.window_spec()?)
            },
        }),
        TAG_REQ_STATS => Ok(Request::Stats {
            freshness: r.freshness()?,
            namespace: r.namespace()?,
            window: if r.remaining() == 0 {
                None
            } else {
                Some(r.window_spec()?)
            },
        }),
        TAG_REQ_CONFIGURE => Ok(Request::Configure {
            namespace: r.namespace()?,
            config: TenantConfig {
                k: r.opt(Reader::usize)?,
                backend: r.opt(Reader::str)?,
                shards: r.opt(Reader::usize)?,
                batch: r.opt(Reader::usize)?,
                seed: r.opt(Reader::u64)?,
            },
        }),
        TAG_REQ_SNAPSHOT => Ok(Request::Snapshot {
            file: r.str()?,
            namespace: r.namespace()?,
        }),
        TAG_REQ_SHUTDOWN => Ok(Request::Shutdown {}),
        TAG_REQ_REPLICATE => Ok(Request::Replicate {
            namespace: r.namespace()?,
            from_seq: r.u64()?,
        }),
        other => Err(format!("unknown request tag {other:#04x}")),
    }
}

fn decode_response_payload(r: &mut Reader<'_>) -> Result<Response, String> {
    match r.u8()? {
        TAG_RESP_HELLO => Ok(Response::Hello {
            codec: r.str()?,
            revision: r.str()?,
        }),
        TAG_RESP_INGESTED => Ok(Response::Ingested {
            accepted: r.u64()?,
            points_seen: r.u64()?,
        }),
        TAG_RESP_CENTERS => Ok(Response::Centers {
            centers: r.points()?,
            points_seen: r.u64()?,
            epoch: r.u64()?,
            cost: r.f64()?,
            stats: r.query_stats()?,
            window: None,
        }),
        TAG_RESP_CENTERS_WINDOWED => Ok(Response::Centers {
            centers: r.points()?,
            points_seen: r.u64()?,
            epoch: r.u64()?,
            cost: r.f64()?,
            stats: r.query_stats()?,
            window: Some(r.window_info()?),
        }),
        TAG_RESP_STATS => Ok(Response::Stats {
            stats: r.stream_stats()?,
            window: None,
        }),
        TAG_RESP_STATS_WINDOWED => Ok(Response::Stats {
            stats: r.stream_stats()?,
            window: Some(r.window_info()?),
        }),
        TAG_RESP_CONFIGURED => Ok(Response::Configured {
            namespace: r.str()?,
            backend: r.str()?,
            k: r.u64()?,
            shards: r.u64()?,
        }),
        TAG_RESP_SNAPSHOTTED => Ok(Response::Snapshotted {
            file: r.str()?,
            bytes: r.u64()?,
        }),
        TAG_RESP_BYE => Ok(Response::Bye {}),
        TAG_RESP_REPLICA_SNAPSHOT => Ok(Response::ReplicaSnapshot {
            seq: r.u64()?,
            epoch: r.u64()?,
            snapshot: r.str()?,
        }),
        TAG_RESP_REPLICATE => Ok(Response::Replicate {
            seq: r.u64()?,
            primary_seq: r.u64()?,
            record: r.replication_record()?,
        }),
        TAG_RESP_ERROR => Ok(Response::Error {
            code: error_code_from_tag(r.u8()?)?,
            message: r.str()?,
        }),
        other => Err(format!("unknown response tag {other:#04x}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame_of(codec: &dyn Codec, buf: &[u8]) -> Frame {
        codec
            .next_frame(buf)
            .expect("no frame error")
            .expect("complete frame")
    }

    #[test]
    fn json_framing_splits_on_newlines() {
        let c = codec(CodecKind::Json);
        assert_eq!(c.next_frame(b"{\"Query\":{}").unwrap(), None);
        let f = frame_of(c, b"{\"Query\":{}}\n{\"Stats\":{}}\n");
        assert_eq!((f.start, f.end, f.consumed), (0, 12, 13));
    }

    #[test]
    fn binary_framing_reads_length_prefix() {
        let c = codec(CodecKind::Binary);
        // Too short for the prefix, then too short for the payload.
        assert_eq!(c.next_frame(&[3, 0, 0]).unwrap(), None);
        assert_eq!(c.next_frame(&[3, 0, 0, 0, 1]).unwrap(), None);
        let f = frame_of(c, &[3, 0, 0, 0, 1, 2, 3, 99]);
        assert_eq!((f.start, f.end, f.consumed), (4, 7, 7));
    }

    #[test]
    fn oversized_frames_are_rejected_with_typed_codes() {
        let c = codec(CodecKind::Binary);
        let too_big = u32::try_from(MAX_FRAME_BYTES + 1).unwrap().to_le_bytes();
        let err = c.next_frame(&too_big).unwrap_err();
        assert_eq!(err.code, ErrorCode::FrameTooLarge);

        let c = codec(CodecKind::Json);
        let long_line = vec![b'x'; MAX_FRAME_BYTES];
        let err = c.next_frame(&long_line).unwrap_err();
        assert_eq!(err.code, ErrorCode::LineTooLong);
    }

    #[test]
    fn every_error_code_round_trips_through_its_tag() {
        for code in [
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
            ErrorCode::Internal,
            ErrorCode::BadCodec,
            ErrorCode::FrameTooLarge,
            ErrorCode::ReplicationLag,
            ErrorCode::WalCorrupt,
        ] {
            assert_eq!(error_code_from_tag(error_code_tag(code)).unwrap(), code);
        }
        assert!(error_code_from_tag(200).is_err());
    }

    #[test]
    fn binary_decoder_rejects_hostile_counts_and_trailing_bytes() {
        let c = codec(CodecKind::Binary);
        // Ingest with a row count claiming 2^32-1 coordinates in 4 bytes.
        let hostile = [TAG_REQ_INGEST, 0xFF, 0xFF, 0xFF, 0xFF];
        assert!(c.decode_request(&hostile).unwrap_err().contains("count"));
        // A valid Shutdown followed by trailing garbage.
        assert!(c
            .decode_request(&[TAG_REQ_SHUTDOWN, 0x00])
            .unwrap_err()
            .contains("trailing"));
    }

    #[test]
    fn replication_records_round_trip_as_standalone_payloads() {
        // The WAL stores exactly these bytes; both directions must agree.
        let records = vec![
            ReplicationRecord::Ingest {
                point: vec![1.5, -2.0],
            },
            ReplicationRecord::IngestBatch {
                points: vec![vec![0.0], vec![f64::NAN]],
            },
            ReplicationRecord::Query {},
            ReplicationRecord::Stats {},
            ReplicationRecord::QueryWindow {
                last_points: 1 << 53,
            },
        ];
        for record in records {
            let payload = encode_replication_record(&record);
            let back = decode_replication_record(&payload).unwrap();
            // NaN-carrying rows defeat PartialEq; compare re-encodings.
            assert_eq!(encode_replication_record(&back), payload);
        }
        // Truncation, a zero tag and trailing bytes are all typed errors.
        assert!(decode_replication_record(&[]).is_err());
        assert!(decode_replication_record(&[0x00]).is_err());
        let mut padded = encode_replication_record(&ReplicationRecord::Query {});
        padded.push(0xFF);
        assert!(decode_replication_record(&padded)
            .unwrap_err()
            .contains("trailing"));
    }

    #[test]
    fn nan_cost_survives_the_binary_round_trip() {
        let c = codec(CodecKind::Binary);
        let resp = Response::Centers {
            centers: vec![vec![1.0]],
            points_seen: 1,
            epoch: 1,
            cost: f64::NAN,
            stats: QueryStats {
                coresets_merged: 0,
                candidate_points: 0,
                coreset_level: None,
                used_cache: false,
                ran_kmeans: false,
            },
            window: None,
        };
        let mut wire = Vec::new();
        c.encode_response(&resp, &mut wire);
        let f = frame_of(c, &wire);
        let back = c.decode_response(&wire[f.start..f.end]).unwrap();
        match back {
            Response::Centers { cost, .. } => assert!(cost.is_nan()),
            other => panic!("wrong variant: {other:?}"),
        }
    }
}
