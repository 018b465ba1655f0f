//! The kill-and-recover acceptance test: no receipted record is lost to
//! `kill -9`.
//!
//! A real `seqd` subprocess is started with a persistent store (which turns
//! the ingest WAL on), fed a corpus whose receipt confirms every record was
//! accepted *and fsynced*, then SIGKILLed before its residue ever flushes
//! (the batch size is set far above the corpus). A second daemon — in
//! process, same store and WAL directory — must replay the log, mine every
//! record, reconcile its counters, and end up with exactly the pattern sets
//! a crash-free offline run produces.

use seqd::loadgen;
use seqd::server::{start, SeqdConfig};
use sequence_rtg::{LogRecord, RtgConfig, SequenceRtg};
use std::collections::BTreeSet;
use std::io::{BufRead, BufReader, Read};
use std::net::SocketAddr;
use std::process::{Command, Stdio};

fn corpus(total: usize) -> Vec<LogRecord> {
    loghub_synth::generate_stream(loghub_synth::CorpusConfig {
        services: 5,
        total,
        seed: 4242,
    })
    .into_iter()
    .map(|item| LogRecord::new(item.service, item.message))
    .collect()
}

/// The (service, rendered pattern, match count) triples in a store — the
/// daemon and the offline reference must agree on all three.
fn pattern_triples(engine: &mut SequenceRtg) -> BTreeSet<(String, String, u64)> {
    engine
        .store_mut()
        .patterns(None)
        .expect("patterns")
        .into_iter()
        .map(|p| (p.service, p.pattern_text, p.count))
        .collect()
}

/// Spawn a real `seqd` subprocess on the given store and return it with the
/// address it announced on stderr.
fn spawn_seqd(
    store_dir: &std::path::Path,
    batch_size: &str,
    miners: &str,
) -> (std::process::Child, SocketAddr) {
    spawn_seqd_with(&[
        "--store",
        store_dir.to_str().unwrap(),
        "--shards",
        "2",
        "--batch-size",
        batch_size,
        "--miners",
        miners,
    ])
}

/// Spawn `seqd --addr 127.0.0.1:0 <args>` and wait for its listen banner.
fn spawn_seqd_with(args: &[&str]) -> (std::process::Child, SocketAddr) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_seqd"))
        .args(["--addr", "127.0.0.1:0"])
        .args(args)
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn seqd");
    let mut stderr = BufReader::new(child.stderr.take().expect("child stderr"));
    let mut found = None;
    for line in stderr.by_ref().lines() {
        let line = line.expect("read child stderr");
        if let Some(rest) = line.strip_prefix("seqd: listening on ") {
            let addr = rest.split_whitespace().next().unwrap();
            found = Some(addr.parse().expect("listen addr"));
            break;
        }
    }
    let addr: SocketAddr = found.expect("seqd never announced its address");
    // Hand the pipe back: the daemon reports its drain on stderr, and a
    // closed pipe would turn that `eprintln!` into a panic.
    child.stderr = Some(stderr.into_inner());
    (child, addr)
}

#[test]
fn kill_dash_nine_loses_no_receipted_record() {
    const N: usize = 600;
    let corpus = corpus(N);

    let dir = std::env::temp_dir().join(format!("seqd-crash-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store_dir = dir.join("store");
    let wal_dir = store_dir.join("ingest-wal");

    // --- Phase 1: a real subprocess, WAL on (follows --store), batch size
    // far above the corpus so nothing flushes before the kill.
    let (mut child, addr) = spawn_seqd(&store_dir, "100000", "1");

    // The receipt is the durability promise: once it says `accepted`, the
    // records are in the fsynced WAL.
    let receipt = loadgen::replay_records(addr, &corpus).expect("replay");
    assert_eq!(receipt.accepted, N as u64, "receipt: {receipt:?}");
    assert_eq!(receipt.rejected + receipt.malformed, 0);

    // --- The crash: SIGKILL, no drain, no checkpoint.
    child.kill().expect("kill -9");
    child.wait().expect("reap");

    let wal_bytes: u64 = std::fs::read_dir(&wal_dir)
        .expect("wal dir exists")
        .map(|e| e.unwrap().metadata().unwrap().len())
        .sum();
    assert!(
        wal_bytes > 0,
        "the WAL must still hold the receipted corpus"
    );

    // --- Phase 2: restart on the same data. Every logged record is
    // replayed into the workers and mined at the drain flush.
    let config = SeqdConfig {
        shards: 2,
        rtg: RtgConfig {
            batch_size: 100_000,
            ..SeqdConfig::default().rtg
        },
        wal_dir: Some(wal_dir.clone()),
        ..SeqdConfig::default()
    };
    let rtg = config.rtg;
    let store = patterndb::PatternStore::open(&store_dir).expect("reopen store");
    let handle = start(store, config, "127.0.0.1:0").expect("restart");
    handle.initiate_shutdown();
    let finals = handle.join().expect("drain");

    assert_eq!(finals.replayed, N as u64, "{finals:?}");
    assert_eq!(finals.ingested, N as u64, "{finals:?}");
    assert_eq!(finals.matched + finals.unmatched, N as u64, "{finals:?}");
    assert_eq!(finals.dropped, 0, "{finals:?}");
    assert!(finals.reconciles(), "{finals:?}");

    // The released WAL holds nothing for a third start to replay.
    let store = patterndb::PatternStore::open(&store_dir).expect("third open");
    let third = start(
        store,
        SeqdConfig {
            shards: 2,
            wal_dir: Some(wal_dir),
            ..SeqdConfig::default()
        },
        "127.0.0.1:0",
    )
    .expect("third start");
    third.initiate_shutdown();
    let empty = third.join().expect("third drain");
    assert_eq!(empty.replayed, 0, "released WAL must not replay: {empty:?}");

    // --- The recovered store equals a crash-free run of the same corpus.
    let mut reference = SequenceRtg::in_memory(rtg);
    reference.analyze_by_service(&corpus, 1).expect("reference");
    let store = patterndb::PatternStore::open(&store_dir).expect("final open");
    let mut recovered = SequenceRtg::new(store, rtg).expect("reload");
    assert_eq!(
        pattern_triples(&mut recovered),
        pattern_triples(&mut reference),
        "recovered store must equal the crash-free run"
    );

    std::fs::remove_dir_all(&dir).expect("cleanup");
}

/// The background-pipeline variant: kill -9 while the miner pool is in full
/// swing. A tiny batch size keeps jobs flowing through the pool as the
/// corpus streams in, so the SIGKILL lands with some batches committed and
/// WAL-released, some committed but unreleased, and some still queued or
/// mid-commit. At-least-once is the contract here: the restart replays
/// every unreleased record and mines it again, so pattern *counts* may
/// exceed a crash-free run — but the stored counts can never sum below the
/// receipted corpus, and nothing is dropped.
#[test]
fn kill_dash_nine_mid_mine_replays_unreleased_records() {
    const N: usize = 600;
    let corpus = corpus(N);

    let dir = std::env::temp_dir().join(format!("seqd-crash-midmine-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store_dir = dir.join("store");
    let wal_dir = store_dir.join("ingest-wal");

    // --- Phase 1: small batches, a real miner pool, SIGKILL right after
    // the receipt — well before the pool can commit and release the tail.
    let (mut child, addr) = spawn_seqd(&store_dir, "40", "2");
    let receipt = loadgen::replay_records(addr, &corpus).expect("replay");
    assert_eq!(receipt.accepted, N as u64, "receipt: {receipt:?}");
    child.kill().expect("kill -9");
    child.wait().expect("reap");

    // --- Phase 2: restart on the same data and drain. Whatever the pool
    // had not released comes back through the WAL.
    let config = SeqdConfig {
        shards: 2,
        wal_dir: Some(wal_dir),
        miners: 1,
        ..SeqdConfig::default()
    };
    let store = patterndb::PatternStore::open(&store_dir).expect("reopen store");
    let handle = start(store, config, "127.0.0.1:0").expect("restart");
    handle.initiate_shutdown();
    let finals = handle.join().expect("drain");

    assert!(
        finals.replayed >= 1,
        "the kill must land before every WAL range was released: {finals:?}"
    );
    assert_eq!(finals.ingested, finals.replayed, "{finals:?}");
    assert_eq!(finals.dropped, 0, "{finals:?}");
    assert!(finals.reconciles(), "{finals:?}");

    // Every receipted record is accounted in the store at least once:
    // mined or matched pre-crash, or replayed and mined post-crash.
    let mut store = patterndb::PatternStore::open(&store_dir).expect("final open");
    let counted: u64 = store
        .patterns(None)
        .expect("patterns")
        .iter()
        .map(|p| p.count)
        .sum();
    assert!(
        counted >= N as u64,
        "stored counts ({counted}) must cover the {N} receipted records"
    );

    std::fs::remove_dir_all(&dir).expect("cleanup");
}

/// The flags `benchmark/src/daemon.rs` (`SEQD_FLAGS`) starts every daemon
/// workload with. The harness is frozen, so the CLI must keep accepting
/// exactly this — including `--wire event-loop` and `--evolve batch`, now
/// no-ops.
const BENCHMARK_FLAGS: [&str; 10] = [
    "--shards",
    "1",
    "--pollers",
    "1",
    "--miners",
    "1",
    "--evolve",
    "batch",
    "--wire",
    "event-loop",
];

#[test]
fn benchmark_invocation_starts_serves_and_drains() {
    let (mut child, addr) = spawn_seqd_with(&BENCHMARK_FLAGS);
    assert_eq!(
        loadgen::control_get(addr, "/healthz").expect("healthz"),
        "ok\n"
    );
    loadgen::control_post(addr, "/shutdown").expect("shutdown");
    let status = child.wait().expect("reap");
    assert!(status.success(), "drain must exit 0: {status:?}");
}

/// The retired modes are refused at the command line, not silently mapped
/// onto the surviving path, and so is a zero for a count that must be
/// positive, not silently clamped to 1.
#[test]
fn retired_modes_and_zero_counts_exit_2() {
    for (args, naming) in [
        (["--wire", "blocking"], "removed"),
        (["--evolve", "online"], "removed"),
        (["--miners", "0"], "at least 1"),
        (["--batch-size", "0"], "at least 1"),
        (["--shards", "0"], "at least 1"),
        (["--queue-capacity", "0"], "at least 1"),
        (
            ["--wal-sync-every", "0"],
            "wal_sync_every must be at least 1",
        ),
        (["--max-line-len", "8"], "max_line_len must be at least 16"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_seqd"))
            .args(args)
            .output()
            .expect("run seqd");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(naming), "{args:?}: {stderr}");
    }
}
