//! Group-commit durability under the event-loop wire path.
//!
//! The poller amortises WAL fsyncs: appends from every connection that
//! finished in a poll iteration are committed with ONE `sync_wal` before
//! any of their receipts go out. With `--wal-sync-every 64` the append
//! path itself almost never syncs — so if the group commit were missing or
//! misordered, a `kill -9` right after the receipts would lose acked
//! records. This test drives several receipted waves at a real subprocess,
//! SIGKILLs it, and requires the restart to replay every single acked
//! record across all three shards.

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

    // SIGKILL with every record still unflushed (batch 100000 ≫ 600).
    child.kill().expect("kill -9");
    child.wait().expect("reap");

    // Restart on the same WAL: every acked record must come back, into
    // the same shard layout, and reconcile at the drain.
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

    assert_eq!(finals.replayed, total, "acked records lost: {finals:?}");
    assert_eq!(finals.ingested, total, "{finals:?}");
    assert_eq!(finals.matched + finals.unmatched, total, "{finals:?}");
    assert_eq!(finals.dropped, 0, "{finals:?}");
    assert!(finals.reconciles(), "{finals:?}");

    std::fs::remove_dir_all(&dir).expect("cleanup");
}
