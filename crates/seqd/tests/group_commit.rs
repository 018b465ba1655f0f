//! Group-commit durability under the event-loop wire path.
//!
//! The poller amortises WAL fsyncs: appends from every connection that
//! finished in a poll iteration are committed with ONE `sync_wal` before
//! any of their receipts go out. With `--wal-sync-every 64` the append
//! path itself almost never syncs — so if the group commit were missing or
//! misordered, a `kill -9` right after the receipts would lose acked
//! records. This test drives several receipted waves at a real subprocess,
//! SIGKILLs it, and requires every acked record to be either credited in
//! the store already or replayed by the restart, across all three shards,
//! and none to be counted twice.

use seqd::loadgen;
use seqd::server::{start, SeqdConfig};
use sequence_rtg::{LogRecord, RtgConfig};
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::process::{Command, Stdio};

const WAVES: usize = 5;
const WAVE_LEN: usize = 120;

fn wave(i: usize) -> Vec<LogRecord> {
    loghub_synth::generate_stream(loghub_synth::CorpusConfig {
        services: 7, // spread across all 3 shards
        total: WAVE_LEN,
        seed: 9000 + i as u64,
    })
    .into_iter()
    .map(|item| LogRecord::new(item.service, item.message))
    .collect()
}

#[test]
fn receipt_after_group_commit_survives_kill_dash_nine() {
    let total = (WAVES * WAVE_LEN) as u64;
    let dir = std::env::temp_dir().join(format!("seqd-groupcommit-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store_dir = dir.join("store");
    let wal_dir = store_dir.join("ingest-wal");

    // Lazy append-path sync (every 64), huge batch size so nothing ever
    // flushes to the store: receipt-time group commit is the ONLY thing
    // standing between an ack and data loss.
    let mut child = Command::new(env!("CARGO_BIN_EXE_seqd"))
        .args([
            "--addr",
            "127.0.0.1:0",
            "--store",
            store_dir.to_str().unwrap(),
            "--shards",
            "3",
            "--batch-size",
            "100000",
            "--wal-sync-every",
            "64",
        ])
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn seqd");
    let addr: SocketAddr = {
        let stderr = BufReader::new(child.stderr.take().expect("child stderr"));
        let mut found = None;
        for line in stderr.lines() {
            let line = line.expect("read child stderr");
            if let Some(rest) = line.strip_prefix("seqd: listening on ") {
                found = Some(rest.split_whitespace().next().unwrap().parse().unwrap());
                break;
            }
        }
        found.expect("seqd never announced its address")
    };

    // Separate connections, so each wave's receipt rides its own poll
    // iteration's group commit.
    for i in 0..WAVES {
        let receipt = loadgen::replay_records(addr, &wave(i)).expect("replay wave");
        assert_eq!(receipt.accepted, WAVE_LEN as u64, "wave {i}: {receipt:?}");
        assert_eq!(receipt.rejected + receipt.malformed, 0, "wave {i}");
    }

    // SIGKILL. The batch size (100000 ≫ 600) keeps every record out of a
    // full batch, but a shard hands a partial one to the miner after one
    // idle tick, so a wave may already be mined, credited in the store and
    // released from the WAL by now.
    child.kill().expect("kill -9");
    child.wait().expect("reap");

    // What the store already credited before the restart.
    let credited = credited_count(&store_dir);

    // Restart on the same WAL: every acked record not credited must come
    // back, into the same shard layout, and reconcile at the drain.
    let config = SeqdConfig {
        shards: 3,
        rtg: RtgConfig {
            batch_size: 100_000,
            ..SeqdConfig::default().rtg
        },
        wal_dir: Some(wal_dir),
        ..SeqdConfig::default()
    };
    let store = patterndb::PatternStore::open(&store_dir).expect("reopen store");
    let handle = start(store, config, "127.0.0.1:0").expect("restart");
    handle.initiate_shutdown();
    let finals = handle.join().expect("drain");

    // No acked record is lost: each is credited or replayed.
    assert!(
        credited + finals.replayed >= total,
        "acked records lost: {credited} credited before the restart, {finals:?}"
    );
    assert_eq!(finals.ingested, finals.replayed, "{finals:?}");
    assert_eq!(
        finals.matched + finals.unmatched,
        finals.replayed,
        "{finals:?}"
    );
    assert_eq!(finals.dropped, 0, "{finals:?}");
    assert!(finals.reconciles(), "{finals:?}");
    // And none is counted twice: a replayed record was not also credited
    // before the kill.
    let counted = credited_count(&store_dir);
    assert!(
        counted <= total,
        "{counted} counted for {total} acked ({credited} before the restart, {finals:?})"
    );

    std::fs::remove_dir_all(&dir).expect("cleanup");
}

/// Σ `cnt` over the store's patterns: the records it has credited.
fn credited_count(store_dir: &std::path::Path) -> u64 {
    let mut store = patterndb::PatternStore::open(store_dir).expect("open store");
    let rows = store
        .db()
        .query("SELECT SUM(cnt) FROM patterns")
        .expect("sum counts");
    rows[0][0].as_integer().unwrap_or(0) as u64
}
