//! The log itself: segment writer with group commit, checkpoint
//! compaction, and the recovery scanner. See the crate docs for the
//! on-disk layout and the torn-write/corruption distinction.

use crate::crc::crc32;
use crate::{Result, WalError};
use std::collections::VecDeque;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Segment file magic (`SKMW` = streaming-k-means WAL).
const SEG_MAGIC: [u8; 4] = *b"SKMW";
/// Checkpoint file magic.
const CKPT_MAGIC: [u8; 4] = *b"SKMC";
/// On-disk format version of both file kinds.
const FORMAT_VERSION: u32 = 1;
/// Segment header: magic + version + first_seq.
const SEG_HEADER_BYTES: usize = 4 + 4 + 8;
/// Checkpoint header: magic + version + seq + blob len + blob crc.
const CKPT_HEADER_BYTES: usize = 4 + 4 + 8 + 4 + 4;
/// Per-record framing overhead: length prefix + CRC.
const RECORD_HEADER_BYTES: usize = 4 + 4;

/// Hard cap on a single record payload. Far above anything the serving
/// layer produces (wire frames cap at 8 MiB); its real job is bounding
/// the damage of a corrupt length prefix during recovery.
pub const MAX_RECORD_BYTES: usize = 16 * 1024 * 1024;

/// Tuning knobs of a [`Wal`]. The defaults favour the serving hot path:
/// appends buffer in memory and a group commit (write + `fsync`) happens
/// every 5 ms or 256 KiB, whichever comes first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalOptions {
    /// Group-commit latency bound: buffered records are synced once the
    /// oldest of them has waited this long. `ZERO` syncs every append.
    pub fsync_interval: Duration,
    /// Group-commit byte bound: buffered records are synced once their
    /// encoded size reaches this many bytes.
    pub flush_bytes: usize,
    /// A segment is sealed and a fresh one started once it grows past
    /// this many bytes.
    pub segment_bytes: usize,
    /// [`Wal::checkpoint_due`] turns true once the un-checkpointed tail
    /// exceeds this many bytes — the owner should fold the log into a
    /// fresh checkpoint (compaction is the owner's call because only it
    /// can produce the state blob).
    pub checkpoint_bytes: usize,
}

impl Default for WalOptions {
    fn default() -> Self {
        Self {
            fsync_interval: Duration::from_millis(5),
            flush_bytes: 256 * 1024,
            segment_bytes: 8 * 1024 * 1024,
            checkpoint_bytes: 4 * 1024 * 1024,
        }
    }
}

impl WalOptions {
    /// Sets the group-commit latency bound from milliseconds (`0` syncs
    /// every append).
    #[must_use]
    pub fn with_fsync_ms(mut self, ms: u64) -> Self {
        self.fsync_interval = Duration::from_millis(ms);
        self
    }

    /// Sets the compaction threshold ([`WalOptions::checkpoint_bytes`]).
    #[must_use]
    pub fn with_checkpoint_bytes(mut self, bytes: usize) -> Self {
        self.checkpoint_bytes = bytes;
        self
    }
}

/// What [`Wal::open`] found on disk: the latest checkpoint blob (if any)
/// and every complete record after it, in sequence order. Replaying
/// `checkpoint` then `tail` against the owning engine reproduces the
/// pre-crash state bit-identically.
#[derive(Debug)]
pub struct Recovered {
    /// The recovered log, positioned to append at `last recovered seq + 1`.
    pub wal: Wal,
    /// Sequence number covered by the checkpoint and its opaque blob
    /// (`None` for a log that never checkpointed).
    pub checkpoint: Option<(u64, Vec<u8>)>,
    /// Complete records after the checkpoint: `(seq, payload)` pairs.
    pub tail: Vec<(u64, Vec<u8>)>,
}

/// One tenant's write-ahead log. See the crate docs for the format and
/// durability model. Not internally synchronized — the owner serializes
/// access (the serve engine keeps one behind its per-tenant lock).
#[derive(Debug)]
pub struct Wal {
    dir: PathBuf,
    opts: WalOptions,
    /// Sequence number the next append receives.
    next_seq: u64,
    /// Highest sequence number known to be on stable storage.
    durable_seq: u64,
    /// Sequence number covered by the latest checkpoint (0 = none).
    checkpoint_seq: u64,
    /// Open segment: handle (`None` until [`Wal::sync`] writes its first
    /// record), first seq, bytes written (header included).
    file: Option<File>,
    segment_first: u64,
    segment_bytes: u64,
    /// Group-commit buffer of encoded-but-unwritten records.
    buffer: Vec<u8>,
    /// Arrival time of the oldest buffered record.
    dirty_since: Option<Instant>,
    /// In-memory copy of every record after the checkpoint, for follower
    /// replication ([`Wal::records_since`]). Compaction truncates it.
    tail: VecDeque<(u64, Vec<u8>)>,
    tail_bytes: usize,
    /// Group commits performed (observability: batching effectiveness).
    syncs: u64,
}

/// `seg-{first_seq:020}.wal`.
fn segment_name(first_seq: u64) -> String {
    format!("seg-{first_seq:020}.wal")
}

/// `ckpt-{seq:020}.snap`.
fn checkpoint_name(seq: u64) -> String {
    format!("ckpt-{seq:020}.snap")
}

/// Parses `prefix-{20 digits}.{ext}` names back to their number.
fn parse_numbered(name: &str, prefix: &str, ext: &str) -> Option<u64> {
    let digits = name.strip_prefix(prefix)?.strip_suffix(ext)?;
    (digits.len() == 20 && digits.bytes().all(|b| b.is_ascii_digit()))
        .then(|| digits.parse().ok())
        .flatten()
}

fn corrupt(path: &Path, offset: u64, reason: impl Into<String>) -> WalError {
    WalError::Corrupt {
        path: path.to_path_buf(),
        offset,
        reason: reason.into(),
    }
}

/// Reads a little-endian `u32` at `at` (caller guarantees bounds).
fn read_u32(bytes: &[u8], at: usize) -> u32 {
    match bytes.get(at..at + 4).map(TryInto::try_into) {
        Some(Ok(array)) => u32::from_le_bytes(array),
        _ => 0,
    }
}

/// Reads a little-endian `u64` at `at` (caller guarantees bounds).
fn read_u64(bytes: &[u8], at: usize) -> u64 {
    match bytes.get(at..at + 8).map(TryInto::try_into) {
        Some(Ok(array)) => u64::from_le_bytes(array),
        _ => 0,
    }
}

/// Best-effort directory fsync so renames/creates survive power loss on
/// filesystems that need it. Failure is ignored: not every platform
/// supports syncing a directory handle.
fn sync_dir(dir: &Path) {
    if let Ok(handle) = File::open(dir) {
        let _ = handle.sync_all();
    }
}

/// The parsed result of scanning one segment file.
struct ScannedSegment {
    first_seq: u64,
    records: Vec<Vec<u8>>,
}

/// Scans a segment, validating the header and every record CRC.
///
/// `last` marks the final segment of the log: only there may the file end
/// mid-record (torn group commit), in which case the partial trailing
/// record is truncated off the file. Anywhere else a short read is
/// corruption.
fn scan_segment(path: &Path, last: bool) -> Result<ScannedSegment> {
    let mut bytes = Vec::new();
    File::open(path)?.read_to_end(&mut bytes)?;
    if bytes.len() < SEG_HEADER_BYTES {
        if last {
            // A crash while the header itself was being written; the
            // segment holds no records, drop the partial header.
            fs::remove_file(path)?;
            return Ok(ScannedSegment {
                first_seq: 0,
                records: Vec::new(),
            });
        }
        return Err(corrupt(path, 0, "segment shorter than its header"));
    }
    if bytes.get(..4) != Some(&SEG_MAGIC[..]) {
        return Err(corrupt(path, 0, "bad segment magic"));
    }
    let version = read_u32(&bytes, 4);
    if version != FORMAT_VERSION {
        return Err(corrupt(
            path,
            4,
            format!("unsupported segment format version {version}"),
        ));
    }
    let first_seq = read_u64(&bytes, 8);
    let mut records = Vec::new();
    let mut at = SEG_HEADER_BYTES;
    while at < bytes.len() {
        let remaining = bytes.len() - at;
        if remaining < RECORD_HEADER_BYTES {
            return truncate_torn(path, last, &mut bytes, at, first_seq, records);
        }
        let len = read_u32(&bytes, at) as usize;
        if len > MAX_RECORD_BYTES {
            return Err(corrupt(
                path,
                at as u64,
                format!("record length {len} exceeds the {MAX_RECORD_BYTES}-byte cap"),
            ));
        }
        let expected_crc = read_u32(&bytes, at + 4);
        let start = at + RECORD_HEADER_BYTES;
        let Some(payload) = bytes.get(start..start + len) else {
            return truncate_torn(path, last, &mut bytes, at, first_seq, records);
        };
        let actual_crc = crc32(payload);
        if actual_crc != expected_crc {
            return Err(corrupt(
                path,
                at as u64,
                format!(
                    "record checksum mismatch (stored {expected_crc:#010x}, \
                     computed {actual_crc:#010x})"
                ),
            ));
        }
        records.push(payload.to_vec());
        at = start + len;
    }
    Ok(ScannedSegment { first_seq, records })
}

/// Handles a record cut short at byte `at`: in the last segment this is a
/// torn group commit — truncate the file back to the last complete record
/// and succeed; anywhere else it is corruption.
fn truncate_torn(
    path: &Path,
    last: bool,
    bytes: &mut Vec<u8>,
    at: usize,
    first_seq: u64,
    records: Vec<Vec<u8>>,
) -> Result<ScannedSegment> {
    if !last {
        return Err(corrupt(
            path,
            at as u64,
            "record cut short before the final segment",
        ));
    }
    bytes.truncate(at);
    let file = OpenOptions::new().write(true).open(path)?;
    file.set_len(at as u64)?;
    file.sync_data()?;
    Ok(ScannedSegment { first_seq, records })
}

/// Reads and validates a checkpoint file, returning `(seq, blob)`.
fn read_checkpoint(path: &Path) -> Result<(u64, Vec<u8>)> {
    let mut bytes = Vec::new();
    File::open(path)?.read_to_end(&mut bytes)?;
    if bytes.len() < CKPT_HEADER_BYTES {
        return Err(corrupt(path, 0, "checkpoint shorter than its header"));
    }
    if bytes.get(..4) != Some(&CKPT_MAGIC[..]) {
        return Err(corrupt(path, 0, "bad checkpoint magic"));
    }
    let version = read_u32(&bytes, 4);
    if version != FORMAT_VERSION {
        return Err(corrupt(
            path,
            4,
            format!("unsupported checkpoint format version {version}"),
        ));
    }
    let seq = read_u64(&bytes, 8);
    let len = read_u32(&bytes, 16) as usize;
    let expected_crc = read_u32(&bytes, 20);
    let Some(blob) = bytes.get(CKPT_HEADER_BYTES..CKPT_HEADER_BYTES + len) else {
        return Err(corrupt(path, 16, "checkpoint blob cut short"));
    };
    let actual_crc = crc32(blob);
    if actual_crc != expected_crc {
        return Err(corrupt(
            path,
            20,
            format!(
                "checkpoint checksum mismatch (stored {expected_crc:#010x}, \
                 computed {actual_crc:#010x})"
            ),
        ));
    }
    Ok((seq, blob.to_vec()))
}

impl Wal {
    /// Opens (or creates) the log rooted at `dir`, running crash recovery:
    /// the latest checkpoint is loaded, segments are scanned in order with
    /// every CRC verified, a torn trailing record is truncated away, and
    /// the returned [`Recovered`] carries everything the owner must replay.
    ///
    /// # Errors
    /// [`WalError::Io`] on filesystem failure; [`WalError::Corrupt`] when
    /// the on-disk state cannot be explained by a torn trailing write
    /// (checksum mismatch, bad header, sequence gap).
    pub fn open(dir: impl Into<PathBuf>, opts: WalOptions) -> Result<Recovered> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;

        // Inventory the directory.
        let mut segment_seqs: Vec<u64> = Vec::new();
        let mut checkpoint_seqs: Vec<u64> = Vec::new();
        for entry in fs::read_dir(&dir)? {
            let name = entry?.file_name();
            let Some(name) = name.to_str() else { continue };
            if let Some(seq) = parse_numbered(name, "seg-", ".wal") {
                segment_seqs.push(seq);
            } else if let Some(seq) = parse_numbered(name, "ckpt-", ".snap") {
                checkpoint_seqs.push(seq);
            }
        }
        segment_seqs.sort_unstable();
        checkpoint_seqs.sort_unstable();

        // Latest checkpoint wins; older ones are leftovers from a crash
        // between rename and cleanup.
        let checkpoint = match checkpoint_seqs.last() {
            Some(&seq) => Some(read_checkpoint(&dir.join(checkpoint_name(seq)))?),
            None => None,
        };
        let checkpoint_seq = checkpoint.as_ref().map_or(0, |(seq, _)| *seq);
        for &old in checkpoint_seqs.iter().rev().skip(1) {
            let _ = fs::remove_file(dir.join(checkpoint_name(old)));
        }

        // Scan segments in order, verifying continuity and collecting the
        // records the checkpoint does not cover.
        let mut tail: Vec<(u64, Vec<u8>)> = Vec::new();
        let mut next_seq = checkpoint_seq + 1;
        let mut expected_first: Option<u64> = None;
        let last_index = segment_seqs.len().saturating_sub(1);
        for (index, &first_seq) in segment_seqs.iter().enumerate() {
            let path = dir.join(segment_name(first_seq));
            let scanned = scan_segment(&path, index == last_index)?;
            if !scanned.records.is_empty() && scanned.first_seq != first_seq {
                return Err(corrupt(
                    &path,
                    8,
                    format!(
                        "segment header says first seq {} but the file is named {first_seq}",
                        scanned.first_seq
                    ),
                ));
            }
            let record_count = scanned.records.len() as u64;
            // Nothing to replay: an empty trailing segment (a roll or an
            // open by an earlier build that nothing was written to), or a
            // segment the checkpoint covers whole (a compaction whose
            // deletions had not reached the disk). Covered segments skip
            // the continuity check: any subset of them may survive.
            if (record_count == 0 && index == last_index)
                || first_seq + record_count <= checkpoint_seq + 1
            {
                let _ = fs::remove_file(&path);
                continue;
            }
            if let Some(expected) = expected_first {
                if first_seq != expected {
                    return Err(corrupt(
                        &path,
                        0,
                        format!("sequence gap: segment starts at {first_seq}, expected {expected}"),
                    ));
                }
            }
            expected_first = Some(first_seq + record_count);
            for (offset, payload) in scanned.records.into_iter().enumerate() {
                let seq = first_seq + offset as u64;
                if seq > checkpoint_seq {
                    if seq != next_seq {
                        return Err(corrupt(
                            &path,
                            0,
                            format!("sequence gap: record {seq} follows {}", next_seq - 1),
                        ));
                    }
                    tail.push((seq, payload));
                    next_seq = seq + 1;
                }
            }
        }

        // Appending resumes in a new segment, so the recovered ones stay
        // immutable; it is created when its first record is written.
        let tail_bytes = tail
            .iter()
            .map(|(_, p)| p.len() + RECORD_HEADER_BYTES)
            .sum();
        let wal = Self {
            dir,
            opts,
            next_seq,
            durable_seq: next_seq - 1,
            checkpoint_seq,
            file: None,
            segment_first: next_seq,
            segment_bytes: SEG_HEADER_BYTES as u64,
            buffer: Vec::new(),
            dirty_since: None,
            tail: tail.iter().cloned().collect(),
            tail_bytes,
            syncs: 0,
        };
        Ok(Recovered {
            wal,
            checkpoint,
            tail,
        })
    }

    /// The directory this log lives in.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Sequence number the next [`Wal::append`] will return.
    #[must_use]
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Highest appended sequence number (0 when the log is empty).
    #[must_use]
    pub fn last_seq(&self) -> u64 {
        self.next_seq - 1
    }

    /// Highest sequence number guaranteed on stable storage.
    #[must_use]
    pub fn durable_seq(&self) -> u64 {
        self.durable_seq
    }

    /// Sequence number covered by the latest checkpoint (0 = none yet).
    #[must_use]
    pub fn checkpoint_seq(&self) -> u64 {
        self.checkpoint_seq
    }

    /// Group commits performed so far (each one write + fsync).
    #[must_use]
    pub fn sync_count(&self) -> u64 {
        self.syncs
    }

    /// Bytes of record data appended since the last checkpoint.
    #[must_use]
    pub fn tail_bytes(&self) -> usize {
        self.tail_bytes
    }

    /// True once the un-checkpointed tail has outgrown
    /// [`WalOptions::checkpoint_bytes`]: the owner should snapshot its
    /// state and call [`Wal::checkpoint`].
    #[must_use]
    pub fn checkpoint_due(&self) -> bool {
        self.tail_bytes >= self.opts.checkpoint_bytes
    }

    /// Appends one record, returning its sequence number. The record is
    /// buffered; durability follows the group-commit policy (see
    /// [`WalOptions`]). Call [`Wal::sync`] to force it.
    ///
    /// # Errors
    /// [`WalError::Io`] when the payload exceeds [`MAX_RECORD_BYTES`] or a
    /// triggered group commit fails.
    pub fn append(&mut self, payload: &[u8]) -> Result<u64> {
        if payload.len() > MAX_RECORD_BYTES {
            return Err(WalError::Io(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("record of {} bytes exceeds MAX_RECORD_BYTES", payload.len()),
            )));
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        let len = payload.len() as u32;
        self.buffer.extend_from_slice(&len.to_le_bytes());
        self.buffer.extend_from_slice(&crc32(payload).to_le_bytes());
        self.buffer.extend_from_slice(payload);
        self.tail.push_back((seq, payload.to_vec()));
        self.tail_bytes += payload.len() + RECORD_HEADER_BYTES;
        if self.dirty_since.is_none() {
            self.dirty_since = Some(Instant::now());
        }
        let due_by_bytes = self.buffer.len() >= self.opts.flush_bytes;
        let due_by_age = self
            .dirty_since
            .is_some_and(|since| since.elapsed() >= self.opts.fsync_interval);
        if due_by_bytes || due_by_age {
            self.sync()?;
        }
        Ok(seq)
    }

    /// Group-commits the buffer if the oldest buffered record has waited
    /// at least [`WalOptions::fsync_interval`]. Returns whether a commit
    /// happened. Intended for a periodic flusher tick.
    ///
    /// # Errors
    /// Propagates the underlying [`Wal::sync`] failure.
    pub fn maybe_sync(&mut self) -> Result<bool> {
        let due = self
            .dirty_since
            .is_some_and(|since| since.elapsed() >= self.opts.fsync_interval);
        if due {
            self.sync()?;
            return Ok(true);
        }
        Ok(false)
    }

    /// Forces a group commit: writes the buffer to the open segment and
    /// `fsync`s it, creating the segment file first when this is its
    /// first record. Returns the new durable sequence number. Seals the
    /// segment once it has outgrown [`WalOptions::segment_bytes`]. With
    /// nothing buffered it writes nothing.
    ///
    /// # Errors
    /// [`WalError::Io`] on write/sync failure.
    pub fn sync(&mut self) -> Result<u64> {
        if !self.buffer.is_empty() {
            let file = match self.file.take() {
                Some(file) => file,
                None => {
                    let file = create_segment(&self.dir, self.segment_first)?;
                    sync_dir(&self.dir);
                    file
                }
            };
            let file = self.file.insert(file);
            file.write_all(&self.buffer)?;
            file.sync_data()?;
            self.segment_bytes += self.buffer.len() as u64;
            self.buffer.clear();
            self.syncs += 1;
        }
        self.dirty_since = None;
        self.durable_seq = self.next_seq - 1;
        if self.segment_bytes >= self.opts.segment_bytes as u64 {
            self.seal_segment();
        }
        Ok(self.durable_seq)
    }

    /// Closes the open segment: the next record written starts a fresh
    /// one at `next_seq`.
    fn seal_segment(&mut self) {
        self.file = None;
        self.segment_first = self.next_seq;
        self.segment_bytes = SEG_HEADER_BYTES as u64;
    }

    /// Compaction: folds everything appended so far into a checkpoint.
    ///
    /// `blob` is the owner's serialized state covering every record up to
    /// [`Wal::last_seq`] (the owner produces it while holding the same
    /// lock that serializes appends, so no record can race past it). The
    /// sequence is: group-commit outstanding records, write the
    /// checkpoint via temp file + rename, then delete the covered segments
    /// and truncate the in-memory tail. The next record starts a fresh
    /// segment.
    ///
    /// # Errors
    /// [`WalError::Io`] on any filesystem failure; the log stays usable
    /// (the old checkpoint remains authoritative until the rename lands).
    pub fn checkpoint(&mut self, blob: &[u8]) -> Result<u64> {
        self.sync()?;
        let seq = self.last_seq();
        let mut bytes = Vec::with_capacity(CKPT_HEADER_BYTES + blob.len());
        bytes.extend_from_slice(&CKPT_MAGIC);
        bytes.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        bytes.extend_from_slice(&seq.to_le_bytes());
        bytes.extend_from_slice(&(blob.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&crc32(blob).to_le_bytes());
        bytes.extend_from_slice(blob);
        let tmp = self.dir.join("ckpt.tmp");
        {
            let mut file = File::create(&tmp)?;
            file.write_all(&bytes)?;
            file.sync_data()?;
        }
        let final_path = self.dir.join(checkpoint_name(seq));
        fs::rename(&tmp, &final_path)?;
        sync_dir(&self.dir);

        // The rename is the commit point; everything after is cleanup.
        let old_checkpoint = self.checkpoint_seq;
        self.checkpoint_seq = seq;
        self.tail.clear();
        self.tail_bytes = 0;
        if old_checkpoint != seq {
            let _ = fs::remove_file(self.dir.join(checkpoint_name(old_checkpoint)));
        }
        // Every record so far is <= seq, so every segment goes, the open
        // one included. Recovery deletes any that outlive a crash here.
        self.seal_segment();
        for first in self.list_segments()? {
            let _ = fs::remove_file(self.dir.join(segment_name(first)));
        }
        Ok(seq)
    }

    /// The first-record sequence numbers of every segment on disk.
    fn list_segments(&self) -> Result<Vec<u64>> {
        let mut seqs = Vec::new();
        for entry in fs::read_dir(&self.dir)? {
            let name = entry?.file_name();
            if let Some(seq) = name
                .to_str()
                .and_then(|n| parse_numbered(n, "seg-", ".wal"))
            {
                seqs.push(seq);
            }
        }
        Ok(seqs)
    }

    /// Durable records with `seq >= from_seq`, for follower replication.
    ///
    /// Returns `None` when `from_seq` has already been compacted away
    /// (`from_seq <= checkpoint_seq`) — the caller must resynchronize the
    /// follower from a state snapshot instead. Only records that have
    /// been group-committed are returned, so a follower can never get
    /// ahead of what this log would recover to after a crash.
    #[must_use]
    pub fn records_since(&self, from_seq: u64) -> Option<Vec<(u64, Vec<u8>)>> {
        if from_seq <= self.checkpoint_seq {
            return None;
        }
        Some(
            self.tail
                .iter()
                .filter(|(seq, _)| *seq >= from_seq && *seq <= self.durable_seq)
                .cloned()
                .collect(),
        )
    }
}

impl Drop for Wal {
    fn drop(&mut self) {
        // Best-effort final group commit: a clean shutdown should not
        // lose the buffered suffix. (Crash durability is governed by the
        // sync policy, not by Drop.)
        let _ = self.sync();
    }
}

/// Creates a fresh segment file and writes and syncs its header.
fn create_segment(dir: &Path, first_seq: u64) -> Result<File> {
    let path = dir.join(segment_name(first_seq));
    let mut file = match OpenOptions::new().write(true).create_new(true).open(&path) {
        Ok(file) => file,
        Err(e) if e.kind() == io::ErrorKind::AlreadyExists => {
            // Only an empty segment can collide (a segment with records
            // would have advanced next_seq past its name): one an earlier
            // failed attempt left, or one recovery could not delete.
            // Replace it.
            OpenOptions::new()
                .write(true)
                .create(true)
                .truncate(true)
                .open(&path)?
        }
        Err(e) => return Err(WalError::Io(e)),
    };
    let mut header = Vec::with_capacity(SEG_HEADER_BYTES);
    header.extend_from_slice(&SEG_MAGIC);
    header.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    header.extend_from_slice(&first_seq.to_le_bytes());
    file.write_all(&header)?;
    file.sync_data()?;
    Ok(file)
}
