//! Behavioural suite of the write-ahead log: append/recover round trips,
//! group-commit batching, segment rolling, checkpoint compaction, and the
//! crash-injection matrix (torn trailing writes truncate, bit flips are
//! loud typed corruption errors).

use skm_wal::{Wal, WalError, WalOptions, MAX_RECORD_BYTES};
use std::fs;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// A scratch directory unique to the calling test.
fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "skm-wal-{tag}-{}-{}",
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .as_nanos()
    ));
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// Options that never sync or checkpoint on their own — the test drives
/// every durability event explicitly.
fn manual() -> WalOptions {
    WalOptions {
        fsync_interval: Duration::from_secs(3600),
        flush_bytes: usize::MAX,
        segment_bytes: u64::MAX as usize,
        checkpoint_bytes: usize::MAX,
    }
}

fn payload(i: u64) -> Vec<u8> {
    format!("record-{i}-{}", "x".repeat((i % 7) as usize)).into_bytes()
}

/// The single `.wal` segment file in `dir` (panics unless exactly one).
fn only_segment(dir: &Path) -> PathBuf {
    let mut segments: Vec<PathBuf> = fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "wal"))
        .collect();
    segments.sort();
    assert_eq!(segments.len(), 1, "expected one segment in {dir:?}");
    segments.remove(0)
}

#[test]
fn append_sync_recover_round_trip() {
    let dir = temp_dir("round-trip");
    let mut recovered = Wal::open(&dir, manual()).unwrap();
    assert!(recovered.checkpoint.is_none());
    assert!(recovered.tail.is_empty());
    for i in 1..=10 {
        let seq = recovered.wal.append(&payload(i)).unwrap();
        assert_eq!(seq, i);
    }
    assert_eq!(recovered.wal.durable_seq(), 0, "nothing synced yet");
    assert_eq!(recovered.wal.sync().unwrap(), 10);
    drop(recovered);

    let reopened = Wal::open(&dir, manual()).unwrap();
    assert!(reopened.checkpoint.is_none());
    let seqs: Vec<u64> = reopened.tail.iter().map(|(s, _)| *s).collect();
    assert_eq!(seqs, (1..=10).collect::<Vec<_>>());
    for (i, (_, bytes)) in reopened.tail.iter().enumerate() {
        assert_eq!(bytes, &payload(i as u64 + 1));
    }
    assert_eq!(reopened.wal.next_seq(), 11);
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn group_commit_batches_fsyncs() {
    let dir = temp_dir("group-commit");
    let mut opts = manual();
    opts.flush_bytes = 4 * 1024;
    let mut wal = Wal::open(&dir, opts).unwrap().wal;
    for i in 0..1000u64 {
        wal.append(&payload(i)).unwrap();
    }
    wal.sync().unwrap();
    // ~16 KiB of records against a 4 KiB threshold: a handful of commits,
    // not one per append.
    assert!(wal.sync_count() >= 2, "threshold should have triggered");
    assert!(
        wal.sync_count() < 50,
        "group commit collapsed {} appends into {} syncs",
        1000,
        wal.sync_count()
    );
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn zero_interval_syncs_every_append() {
    let dir = temp_dir("sync-every");
    let opts = WalOptions::default().with_fsync_ms(0);
    let mut wal = Wal::open(&dir, opts).unwrap().wal;
    for i in 0..5u64 {
        wal.append(&payload(i)).unwrap();
        assert_eq!(wal.durable_seq(), i + 1);
    }
    assert_eq!(wal.sync_count(), 5);
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn maybe_sync_respects_the_interval() {
    let dir = temp_dir("maybe-sync");
    let mut opts = manual();
    opts.fsync_interval = Duration::from_millis(20);
    let mut wal = Wal::open(&dir, opts).unwrap().wal;
    wal.append(b"hello").unwrap();
    assert!(!wal.maybe_sync().unwrap(), "interval has not elapsed");
    std::thread::sleep(Duration::from_millis(25));
    assert!(wal.maybe_sync().unwrap(), "interval elapsed");
    assert_eq!(wal.durable_seq(), 1);
    assert!(!wal.maybe_sync().unwrap(), "nothing buffered");
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn drop_flushes_buffered_records() {
    let dir = temp_dir("drop-flush");
    {
        let mut wal = Wal::open(&dir, manual()).unwrap().wal;
        wal.append(b"buffered-only").unwrap();
    } // Drop group-commits.
    let reopened = Wal::open(&dir, manual()).unwrap();
    assert_eq!(reopened.tail.len(), 1);
    assert_eq!(reopened.tail[0].1, b"buffered-only");
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn segments_roll_and_recovery_spans_them() {
    let dir = temp_dir("roll");
    let mut opts = manual();
    opts.segment_bytes = 512; // tiny: force many rolls
    opts.flush_bytes = 128;
    let mut wal = Wal::open(&dir, opts).unwrap().wal;
    for i in 1..=200u64 {
        wal.append(&payload(i)).unwrap();
    }
    wal.sync().unwrap();
    let segments = fs::read_dir(&dir)
        .unwrap()
        .filter(|e| {
            e.as_ref()
                .unwrap()
                .path()
                .extension()
                .is_some_and(|x| x == "wal")
        })
        .count();
    assert!(segments > 2, "expected multiple segments, got {segments}");
    drop(wal);

    let reopened = Wal::open(&dir, opts).unwrap();
    let seqs: Vec<u64> = reopened.tail.iter().map(|(s, _)| *s).collect();
    assert_eq!(seqs, (1..=200).collect::<Vec<_>>());
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn checkpoint_compacts_and_recovery_prefers_it() {
    let dir = temp_dir("checkpoint");
    let mut wal = Wal::open(&dir, manual()).unwrap().wal;
    for i in 1..=20u64 {
        wal.append(&payload(i)).unwrap();
    }
    let covered = wal.checkpoint(b"state-at-20").unwrap();
    assert_eq!(covered, 20);
    assert_eq!(wal.checkpoint_seq(), 20);
    assert_eq!(wal.tail_bytes(), 0, "compaction truncates the tail");
    for i in 21..=25u64 {
        wal.append(&payload(i)).unwrap();
    }
    wal.sync().unwrap();
    drop(wal);

    let recovered = Wal::open(&dir, manual()).unwrap();
    let (seq, blob) = recovered.checkpoint.expect("checkpoint recovered");
    assert_eq!(seq, 20);
    assert_eq!(blob, b"state-at-20");
    let seqs: Vec<u64> = recovered.tail.iter().map(|(s, _)| *s).collect();
    assert_eq!(seqs, vec![21, 22, 23, 24, 25]);
    assert_eq!(recovered.wal.next_seq(), 26);

    // Compaction removed the pre-checkpoint segments.
    let wal_files = fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|n| n.ends_with(".wal"))
        .count();
    assert!(wal_files <= 2, "old segments must be gone, saw {wal_files}");
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn repeated_checkpoints_keep_only_the_latest() {
    let dir = temp_dir("re-checkpoint");
    let mut wal = Wal::open(&dir, manual()).unwrap().wal;
    for round in 1..=3u64 {
        for i in 0..5u64 {
            wal.append(&payload(round * 10 + i)).unwrap();
        }
        wal.checkpoint(format!("round-{round}").as_bytes()).unwrap();
    }
    drop(wal);
    let snaps: Vec<String> = fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|n| n.ends_with(".snap"))
        .collect();
    assert_eq!(snaps.len(), 1, "exactly one checkpoint file: {snaps:?}");
    let recovered = Wal::open(&dir, manual()).unwrap();
    let (seq, blob) = recovered.checkpoint.unwrap();
    assert_eq!(seq, 15);
    assert_eq!(blob, b"round-3");
    assert!(recovered.tail.is_empty());
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn torn_trailing_record_is_truncated_not_fatal() {
    // Simulate a kill-9 mid-group-commit: the segment ends with a prefix
    // of a record. Recovery must keep every complete record and drop the
    // partial one silently.
    for cut in [1usize, 4, 7, 9, 12] {
        let dir = temp_dir(&format!("torn-{cut}"));
        let mut wal = Wal::open(&dir, manual()).unwrap().wal;
        for i in 1..=5u64 {
            wal.append(&payload(i)).unwrap();
        }
        wal.sync().unwrap();
        drop(wal);

        let seg = only_segment(&dir);
        let bytes = fs::read(&seg).unwrap();
        // Append a partial record: `cut` bytes of what would be a longer
        // record (length prefix claims 100 bytes).
        let mut torn = bytes.clone();
        let mut fake = Vec::new();
        fake.extend_from_slice(&100u32.to_le_bytes());
        fake.extend_from_slice(&0xDEAD_BEEFu32.to_le_bytes());
        fake.extend_from_slice(&[0xAB; 100]);
        torn.extend_from_slice(&fake[..cut]);
        fs::write(&seg, &torn).unwrap();

        let recovered = Wal::open(&dir, manual()).unwrap();
        let seqs: Vec<u64> = recovered.tail.iter().map(|(s, _)| *s).collect();
        assert_eq!(seqs, vec![1, 2, 3, 4, 5], "cut={cut}");
        assert_eq!(recovered.wal.next_seq(), 6, "cut={cut}");
        // The torn suffix is physically gone after recovery.
        assert_eq!(fs::read(&seg).unwrap().len(), bytes.len(), "cut={cut}");
        fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn bit_flip_is_a_typed_corruption_error() {
    let dir = temp_dir("bit-flip");
    let mut wal = Wal::open(&dir, manual()).unwrap().wal;
    for i in 1..=5u64 {
        wal.append(&payload(i)).unwrap();
    }
    wal.sync().unwrap();
    drop(wal);

    let seg = only_segment(&dir);
    let mut bytes = fs::read(&seg).unwrap();
    // Flip one bit in the final record's payload: the record stays
    // complete (so this cannot be mistaken for a torn write) but its CRC
    // no longer matches.
    let last = bytes.len() - 1;
    bytes[last] ^= 0x40;
    fs::write(&seg, &bytes).unwrap();

    match Wal::open(&dir, manual()) {
        Err(WalError::Corrupt { path, reason, .. }) => {
            assert_eq!(path, seg);
            assert!(reason.contains("checksum"), "reason: {reason}");
        }
        other => panic!("expected Corrupt, got {other:?}"),
    }
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn short_record_before_the_end_is_corruption() {
    let dir = temp_dir("mid-short");
    let mut opts = manual();
    opts.segment_bytes = 256; // several segments
    opts.flush_bytes = 64;
    let mut wal = Wal::open(&dir, opts).unwrap().wal;
    for i in 1..=60u64 {
        wal.append(&payload(i)).unwrap();
    }
    wal.sync().unwrap();
    drop(wal);

    // Truncate the FIRST segment (not the last): loud corruption.
    let mut segments: Vec<PathBuf> = fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "wal"))
        .collect();
    segments.sort();
    assert!(segments.len() > 2);
    let first = &segments[0];
    let bytes = fs::read(first).unwrap();
    fs::write(first, &bytes[..bytes.len() - 3]).unwrap();

    assert!(
        matches!(Wal::open(&dir, opts), Err(WalError::Corrupt { .. })),
        "mid-log truncation must not be silently repaired"
    );
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn corrupt_checkpoint_is_loud() {
    let dir = temp_dir("bad-ckpt");
    let mut wal = Wal::open(&dir, manual()).unwrap().wal;
    for i in 1..=5u64 {
        wal.append(&payload(i)).unwrap();
    }
    wal.checkpoint(b"good-state").unwrap();
    drop(wal);

    let snap = fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| p.extension().is_some_and(|e| e == "snap"))
        .unwrap();
    let mut bytes = fs::read(&snap).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0x01;
    fs::write(&snap, &bytes).unwrap();

    assert!(matches!(
        Wal::open(&dir, manual()),
        Err(WalError::Corrupt { .. })
    ));
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn records_since_serves_the_durable_tail() {
    let dir = temp_dir("records-since");
    let mut wal = Wal::open(&dir, manual()).unwrap().wal;
    for i in 1..=10u64 {
        wal.append(&payload(i)).unwrap();
    }
    // Nothing synced: followers see nothing yet.
    assert_eq!(wal.records_since(1).unwrap().len(), 0);
    wal.sync().unwrap();
    let all = wal.records_since(1).unwrap();
    assert_eq!(all.len(), 10);
    assert_eq!(all[0], (1, payload(1)));
    let suffix = wal.records_since(8).unwrap();
    let seqs: Vec<u64> = suffix.iter().map(|(s, _)| *s).collect();
    assert_eq!(seqs, vec![8, 9, 10]);
    // Beyond the end: empty, not None.
    assert_eq!(wal.records_since(11).unwrap().len(), 0);

    // After compaction the early seqs are gone: resync required.
    wal.checkpoint(b"ckpt").unwrap();
    assert!(wal.records_since(5).is_none());
    assert_eq!(wal.records_since(11).unwrap().len(), 0);
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn oversized_records_are_rejected() {
    let dir = temp_dir("oversize");
    let mut wal = Wal::open(&dir, manual()).unwrap().wal;
    let huge = vec![0u8; MAX_RECORD_BYTES + 1];
    assert!(matches!(wal.append(&huge), Err(WalError::Io(_))));
    // The failed append must not have consumed a sequence number.
    assert_eq!(wal.append(b"ok").unwrap(), 1);
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn empty_trailing_segment_from_a_crashed_roll_is_harmless() {
    let dir = temp_dir("empty-roll");
    let mut wal = Wal::open(&dir, manual()).unwrap().wal;
    for i in 1..=3u64 {
        wal.append(&payload(i)).unwrap();
    }
    wal.sync().unwrap();
    drop(wal);
    // Reopen twice in a row without writing: each open rolls a fresh
    // (empty) segment; recovery must tolerate and reuse/remove them.
    for _ in 0..2 {
        let recovered = Wal::open(&dir, manual()).unwrap();
        assert_eq!(recovered.tail.len(), 3);
        assert_eq!(recovered.wal.next_seq(), 4);
    }
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn recovery_resumes_appending_after_a_torn_write() {
    // Full cycle: torn tail → recover → append more → recover again.
    let dir = temp_dir("torn-resume");
    let mut wal = Wal::open(&dir, manual()).unwrap().wal;
    for i in 1..=4u64 {
        wal.append(&payload(i)).unwrap();
    }
    wal.sync().unwrap();
    drop(wal);
    let seg = only_segment(&dir);
    let mut bytes = fs::read(&seg).unwrap();
    bytes.extend_from_slice(&[0x03, 0x00]); // 2 bytes of a length prefix
    fs::write(&seg, &bytes).unwrap();

    let mut recovered = Wal::open(&dir, manual()).unwrap();
    assert_eq!(recovered.wal.next_seq(), 5);
    for i in 5..=8u64 {
        assert_eq!(recovered.wal.append(&payload(i)).unwrap(), i);
    }
    recovered.wal.sync().unwrap();
    drop(recovered);

    let again = Wal::open(&dir, manual()).unwrap();
    let seqs: Vec<u64> = again.tail.iter().map(|(s, _)| *s).collect();
    assert_eq!(seqs, (1..=8).collect::<Vec<_>>());
    fs::remove_dir_all(&dir).unwrap();
}

/// Every file in `dir` by name, with its bytes.
fn dir_image(dir: &Path) -> std::collections::BTreeMap<String, Vec<u8>> {
    fs::read_dir(dir)
        .unwrap()
        .map(|e| {
            let e = e.unwrap();
            (
                e.file_name().into_string().unwrap(),
                fs::read(e.path()).unwrap(),
            )
        })
        .collect()
}

/// A segment file's bytes: the `SKMW` header, then each record framed as
/// `[len][crc32][payload]`.
fn segment_bytes(first_seq: u64, payloads: &[Vec<u8>]) -> Vec<u8> {
    let mut bytes = b"SKMW".to_vec();
    bytes.extend_from_slice(&1u32.to_le_bytes());
    bytes.extend_from_slice(&first_seq.to_le_bytes());
    for payload in payloads {
        bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&skm_wal::crc32(payload).to_le_bytes());
        bytes.extend_from_slice(payload);
    }
    bytes
}

/// Builds the files by hand, in the layout of a build that created each
/// segment eagerly: a checkpoint covering seq 5, a segment holding the
/// tail 6..=9, and the empty segment its last open created at seq 10.
#[test]
fn a_log_with_an_eagerly_created_empty_segment_recovers_and_appends() {
    let dir = temp_dir("eager-layout");
    let blob = b"state-at-5".to_vec();
    let mut checkpoint = b"SKMC".to_vec();
    checkpoint.extend_from_slice(&1u32.to_le_bytes());
    checkpoint.extend_from_slice(&5u64.to_le_bytes());
    checkpoint.extend_from_slice(&(blob.len() as u32).to_le_bytes());
    checkpoint.extend_from_slice(&skm_wal::crc32(&blob).to_le_bytes());
    checkpoint.extend_from_slice(&blob);
    let tail: Vec<Vec<u8>> = (6..=9).map(payload).collect();
    fs::write(dir.join(format!("ckpt-{:020}.snap", 5)), &checkpoint).unwrap();
    fs::write(
        dir.join(format!("seg-{:020}.wal", 6)),
        segment_bytes(6, &tail),
    )
    .unwrap();
    fs::write(
        dir.join(format!("seg-{:020}.wal", 10)),
        segment_bytes(10, &[]),
    )
    .unwrap();

    let recovered = Wal::open(&dir, manual()).unwrap();
    assert_eq!(recovered.checkpoint, Some((5, blob.clone())));
    let expected: Vec<(u64, Vec<u8>)> = (6..=9).map(|i| (i, payload(i))).collect();
    assert_eq!(recovered.tail, expected);
    assert_eq!(recovered.wal.next_seq(), 10);
    drop(recovered);
    // Recovery dropped the empty segment and nothing else; opening and
    // dropping the log again without an append writes nothing.
    let image = dir_image(&dir);
    let names: Vec<&str> = image.keys().map(String::as_str).collect();
    assert_eq!(
        names,
        [
            "ckpt-00000000000000000005.snap",
            "seg-00000000000000000006.wal"
        ]
    );
    drop(Wal::open(&dir, manual()).unwrap());
    assert_eq!(dir_image(&dir), image);

    // The next append starts a fresh segment at seq 10.
    let mut wal = Wal::open(&dir, manual()).unwrap().wal;
    assert_eq!(wal.append(&payload(10)).unwrap(), 10);
    wal.sync().unwrap();
    drop(wal);
    assert_eq!(
        fs::read(dir.join(format!("seg-{:020}.wal", 10))).unwrap(),
        segment_bytes(10, &[payload(10)])
    );
    let again = Wal::open(&dir, manual()).unwrap();
    let seqs: Vec<u64> = again.tail.iter().map(|(s, _)| *s).collect();
    assert_eq!(seqs, (6..=10).collect::<Vec<_>>());
    assert_eq!(again.checkpoint, Some((5, blob)));
    fs::remove_dir_all(&dir).unwrap();
}

/// A segment the checkpoint covers whole is garbage: recovery deletes
/// any subset of them that outlived a crash, gaps between them included,
/// instead of calling the gap corruption.
#[test]
fn covered_segments_left_by_an_interrupted_compaction_are_deleted() {
    let dir = temp_dir("covered-leftovers");
    let mut wal = Wal::open(&dir, manual()).unwrap().wal;
    for i in 1..=20u64 {
        wal.append(&payload(i)).unwrap();
    }
    wal.checkpoint(b"state-at-20").unwrap();
    for i in 21..=22u64 {
        wal.append(&payload(i)).unwrap();
    }
    wal.sync().unwrap();
    drop(wal);
    // Segments 1..=10 and 16..=20 survived the compaction, 11..=15 did not.
    let early: Vec<Vec<u8>> = (1..=10).map(payload).collect();
    let late: Vec<Vec<u8>> = (16..=20).map(payload).collect();
    fs::write(
        dir.join(format!("seg-{:020}.wal", 1)),
        segment_bytes(1, &early),
    )
    .unwrap();
    fs::write(
        dir.join(format!("seg-{:020}.wal", 16)),
        segment_bytes(16, &late),
    )
    .unwrap();

    let recovered = Wal::open(&dir, manual()).unwrap();
    let seqs: Vec<u64> = recovered.tail.iter().map(|(s, _)| *s).collect();
    assert_eq!(seqs, vec![21, 22]);
    drop(recovered);
    let names: Vec<String> = dir_image(&dir).into_keys().collect();
    assert_eq!(
        names,
        [
            "ckpt-00000000000000000020.snap",
            "seg-00000000000000000021.wal"
        ]
    );
    fs::remove_dir_all(&dir).unwrap();
}
