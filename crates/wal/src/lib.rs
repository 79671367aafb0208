//! Batched, checksummed write-ahead logging for `skm-serve` tenants.
//!
//! One [`Wal`] instance owns one directory and logs one tenant's totally
//! ordered record stream. The crate deliberately knows nothing about what
//! a record *means*: payloads are opaque byte strings (the serving layer
//! encodes typed replication records with its protocol codec), so the
//! format below is stable against protocol evolution and the crate stays
//! dependency-free.
//!
//! ## On-disk layout
//!
//! ```text
//! <dir>/
//!   seg-00000000000000000042.wal   append-only record segments
//!   seg-00000000000000000117.wal   (file name = seq of the first record)
//!   ckpt-00000000000000000116.snap latest checkpoint (covers seq <= 116)
//! ```
//!
//! A **segment** is a 16-byte header (`SKMW` magic, format version,
//! first-record sequence number) followed by length-prefixed records:
//!
//! ```text
//! [len: u32 LE][crc32(payload): u32 LE][payload: len bytes]
//! ```
//!
//! Sequence numbers are implicit — the `i`-th record of a segment has
//! `seq = first_seq + i` — so the stream is contiguous by construction
//! and recovery can verify cross-segment continuity.
//!
//! A **checkpoint** is an opaque caller-provided blob (the engine's
//! versioned tenant snapshot) stored with its own magic/version/CRC
//! header and written via temp-file + rename, covering every record with
//! `seq <= N`. [`Wal::checkpoint`] folds the whole sealed prefix into the
//! checkpoint and deletes the covered segments: compaction truncates the
//! tail to empty and the next record starts a fresh segment.
//!
//! A segment file is created when its first record is written, never
//! ahead of it: opening a log and dropping it without an append, or
//! checkpointing it, leaves no empty segment behind. Recovery deletes the
//! empty trailing segment an earlier build created eagerly.
//!
//! ## Durability model
//!
//! Appends are buffered (group commit) and become durable at the next
//! [`Wal::sync`] — triggered inline when the buffered bytes exceed
//! [`WalOptions::flush_bytes`] or the oldest buffered record is older
//! than [`WalOptions::fsync_interval`], and by callers ticking
//! [`Wal::maybe_sync`] from a timer. `fsync_interval = 0` degenerates to
//! sync-on-every-append.
//!
//! ## Crash recovery
//!
//! [`Wal::open`] restores the latest checkpoint and replays the segment
//! tail, distinguishing two failure shapes:
//!
//! * **Torn write** — the final segment ends mid-record (incomplete
//!   header or short payload). This is the expected shape of a crash
//!   during a group-commit `write`; the partial record is truncated away
//!   and recovery succeeds with every complete record.
//! * **Corruption** — a complete record whose CRC does not match, a
//!   mangled header, a sequence gap, or a short record *before* the end
//!   of the log. These are never silently dropped:
//!   [`WalError::Corrupt`] names the file and offset.

mod crc;
mod log;

pub use crate::log::{Recovered, Wal, WalOptions, MAX_RECORD_BYTES};
pub use crc::crc32;

use std::fmt;
use std::io;
use std::path::PathBuf;

/// Failures surfaced by the log.
#[derive(Debug)]
pub enum WalError {
    /// An underlying filesystem operation failed.
    Io(io::Error),
    /// The on-disk state is invalid in a way a torn trailing write cannot
    /// explain: checksum mismatch, bad magic, or a sequence gap.
    Corrupt {
        /// File the corruption was detected in.
        path: PathBuf,
        /// Byte offset of the offending record or header.
        offset: u64,
        /// Human-readable description of the mismatch.
        reason: String,
    },
}

impl fmt::Display for WalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Io(e) => write!(f, "wal i/o error: {e}"),
            Self::Corrupt {
                path,
                offset,
                reason,
            } => write!(
                f,
                "wal corruption in {} at byte {offset}: {reason}",
                path.display()
            ),
        }
    }
}

impl std::error::Error for WalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Io(e) => Some(e),
            Self::Corrupt { .. } => None,
        }
    }
}

impl From<io::Error> for WalError {
    fn from(e: io::Error) -> Self {
        Self::Io(e)
    }
}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, WalError>;
