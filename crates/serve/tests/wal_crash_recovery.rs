//! Out-of-process crash recovery: start the real `skm-serve` binary with a
//! write-ahead log, feed it acknowledged writes, kill it with SIGKILL (no
//! drain, no Drop — the closest a test gets to yanking the power cord),
//! restart it on the same log directory and require the recovered state to
//! continue **bit-identically** to an uninterrupted in-process run of the
//! same workload. Also exercises the `recover` subcommand as an offline
//! replay + compaction pass.

use skm_serve::engine::{BackendKind, Engine, EngineSpec};
use skm_serve::prelude::*;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};

const K: usize = 2;
const SHARDS: usize = 2;
const BATCH: usize = 8;
const SEED: u64 = 7;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("skm-crash-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The CLI builds its engine from `StreamConfig::new(k)` defaults; the
/// in-process reference must match exactly for bit-identity.
fn cli_spec() -> EngineSpec {
    EngineSpec {
        kind: BackendKind::ShardedCc,
        stream: StreamConfig::new(K),
        shards: SHARDS,
        batch: BATCH,
        nesting_depth: 2,
        seed: SEED,
    }
}

/// Starts the real binary with `--fsync-ms 0` (every acknowledged write is
/// durable) on an ephemeral port, and parses the bound address from its
/// startup banner.
fn spawn_server(wal_dir: &Path) -> (Child, SocketAddr) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_skm-serve"))
        .args([
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--wal-dir",
            wal_dir.to_str().unwrap(),
            "--fsync-ms",
            "0",
            "--k",
            &K.to_string(),
            "--shards",
            &SHARDS.to_string(),
            "--batch",
            &BATCH.to_string(),
            "--seed",
            &SEED.to_string(),
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn skm-serve");
    let stdout = child.stdout.take().expect("captured stdout");
    let mut lines = BufReader::new(stdout).lines();
    let addr = loop {
        let line = lines
            .next()
            .expect("server printed its banner")
            .expect("readable stdout");
        if let Some(rest) = line.strip_prefix("skm-serve listening on ") {
            let addr = rest.split_whitespace().next().expect("address token");
            break addr.parse::<SocketAddr>().expect("parseable address");
        }
    };
    (child, addr)
}

fn point(i: usize, offset: f64) -> Vec<f64> {
    let x = if i.is_multiple_of(2) { 0.0 } else { 60.0 };
    vec![x + offset, (i % 5) as f64 * 0.1]
}

fn served_strict_centers(client: &mut Client) -> (Vec<Vec<f64>>, u64, u64) {
    match client.query().unwrap() {
        Response::Centers {
            centers,
            epoch,
            points_seen,
            ..
        } => (centers, epoch, points_seen),
        other => panic!("strict query answered {other:?}"),
    }
}

#[test]
fn sigkill_then_restart_continues_bit_identically() {
    let dir = temp_dir("kill9");

    // Uninterrupted in-process reference over the identical workload:
    // 150 ingests, a strict query, 50 more ingests, a closing strict
    // query. Recovery of the killed server must land exactly here.
    let reference = Engine::new(&cli_spec()).unwrap();
    for i in 0..150 {
        reference
            .ingest_in(DEFAULT_NAMESPACE, &point(i, 0.0))
            .unwrap();
    }
    let _ = reference
        .query_in(DEFAULT_NAMESPACE, Freshness::Strict)
        .unwrap();
    for i in 0..50 {
        reference
            .ingest_in(DEFAULT_NAMESPACE, &point(i, 1.0))
            .unwrap();
    }
    let expected = reference
        .query_in(DEFAULT_NAMESPACE, Freshness::Strict)
        .unwrap();

    // Run 1: feed the same prefix through the wire, then SIGKILL the
    // process with 50 acknowledged-but-uncheckpointed writes in the log.
    let (mut child, addr) = spawn_server(&dir);
    let mut client = Client::connect(addr).unwrap();
    for i in 0..150 {
        match client.ingest(point(i, 0.0)).unwrap() {
            Response::Ingested { .. } => {}
            other => panic!("ingest answered {other:?}"),
        }
    }
    let (run1_centers, run1_epoch, run1_seen) = served_strict_centers(&mut client);
    assert_eq!((run1_epoch, run1_seen), (1, 150));
    for i in 0..50 {
        match client.ingest(point(i, 1.0)).unwrap() {
            Response::Ingested { .. } => {}
            other => panic!("ingest answered {other:?}"),
        }
    }
    drop(client);
    child.kill().expect("SIGKILL the server");
    let _ = child.wait();
    // Sanity: run 1 was on the reference trajectory before the crash.
    {
        let probe = Engine::new(&cli_spec()).unwrap();
        for i in 0..150 {
            probe.ingest_in(DEFAULT_NAMESPACE, &point(i, 0.0)).unwrap();
        }
        let probe_q = probe
            .query_in(DEFAULT_NAMESPACE, Freshness::Strict)
            .unwrap();
        assert_eq!(run1_centers, probe_q.centers.to_rows());
    }

    // Run 2: same log directory. Recovery = checkpoint + tail replay; the
    // next strict query must equal the uninterrupted run's, bit for bit.
    let (mut child, addr) = spawn_server(&dir);
    let mut client = Client::connect(addr).unwrap();
    let (recovered_centers, recovered_epoch, recovered_seen) = served_strict_centers(&mut client);
    assert_eq!(recovered_seen, 200, "all acknowledged writes survived");
    assert_eq!(recovered_epoch, expected.epoch, "published epoch recovered");
    assert_eq!(
        recovered_centers,
        expected.centers.to_rows(),
        "recovered centers must be bit-identical to the uninterrupted run"
    );
    client.shutdown().unwrap();
    let status = child.wait().expect("server exits after Shutdown");
    assert!(
        status.success(),
        "clean shutdown after recovery: {status:?}"
    );

    // Offline `recover` replays and compacts the same directory.
    let output = Command::new(env!("CARGO_BIN_EXE_skm-serve"))
        .args([
            "recover",
            "--wal-dir",
            dir.to_str().unwrap(),
            "--k",
            &K.to_string(),
            "--shards",
            &SHARDS.to_string(),
            "--batch",
            &BATCH.to_string(),
            "--seed",
            &SEED.to_string(),
        ])
        .output()
        .expect("run skm-serve recover");
    assert!(output.status.success(), "recover failed: {output:?}");
    let report = String::from_utf8_lossy(&output.stdout);
    assert!(
        report.contains("recovered tenant `default`"),
        "recover report: {report}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_torn_trailing_record_is_truncated_not_fatal() {
    let dir = temp_dir("torn");

    // Produce a real log via the binary, SIGKILL it, then tear the last
    // segment by chopping bytes off its end — the shape a crash mid-write
    // leaves behind.
    let (mut child, addr) = spawn_server(&dir);
    let mut client = Client::connect(addr).unwrap();
    for i in 0..60 {
        client.ingest(point(i, 0.0)).unwrap();
    }
    drop(client);
    child.kill().expect("SIGKILL the server");
    let _ = child.wait();

    let tenant_dir = dir.join("default");
    let mut segments: Vec<PathBuf> = std::fs::read_dir(&tenant_dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("seg-") && n.ends_with(".wal"))
        })
        .collect();
    segments.sort();
    let last = segments.last().expect("at least one segment").clone();
    let bytes = std::fs::read(&last).unwrap();
    assert!(bytes.len() > 7, "segment long enough to tear");
    std::fs::write(&last, &bytes[..bytes.len() - 7]).unwrap();

    // Restart: the torn tail is truncated, everything before it survives.
    let (mut child, addr) = spawn_server(&dir);
    let mut client = Client::connect(addr).unwrap();
    let (_, _, seen) = served_strict_centers(&mut client);
    assert!(
        seen < 60,
        "the torn trailing record must be dropped (saw {seen})"
    );
    assert!(seen >= 58, "only the torn tail may be lost (saw {seen})");
    client.shutdown().unwrap();
    let status = child.wait().unwrap();
    assert!(status.success());
    let _ = std::fs::remove_dir_all(&dir);
}
