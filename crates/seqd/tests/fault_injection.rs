//! Property tests driving seqd through deterministic fault schedules.
//!
//! Three layers, each hammered with seeded `testkit::fault` injection:
//!
//! 1. **Wire** — `serve_ingest` (the framing reference `protocol_torture`
//!    pins the event loop to) over a [`FaultyStream`] that interleaves
//!    short reads, `Interrupted`, `WouldBlock` (socket deadline),
//!    connection resets, and write failures into the stream. Whatever the
//!    connection's fate, the counter invariant must hold: every line the
//!    daemon counted `ingested` is in a queue or accounted rejected /
//!    malformed — no record may vanish because a socket misbehaved.
//! 2. **WAL** — records appended to an [`IngestWal`] that is dropped
//!    without release (the crash), possibly with a torn final line, then
//!    reopened under a *different* shard count. The replay must be exactly
//!    the appended multiset with per-service order preserved.
//! 3. **Store** — a [`ShardWorker`] handing residue to a [`Miner`] whose
//!    store operations fail on a schedule — both the inline miner and a
//!    background pool. The counters must reconcile, never drop more than
//!    was mined-or-abandoned, and drop nothing when no fault fired.
//!
//! All cases derive from the runner seed (`TESTKIT_PROP_SEED` overrides);
//! failures shrink and print a `cc` regression line for
//! `proptest-regressions/fault_injection.txt`.

use seqd::metrics::Ops;
use seqd::miner::{Miner, MinerDeps};
use seqd::protocol::serve_ingest;
use seqd::queue::BoundedQueue;
use seqd::shard::{shard_for, Router, ShardWorker};
use seqd::swap::PatternBoard;
use seqd::wal::{Accepted, IngestWal};
use sequence_rtg::{LogRecord, Mining, RtgConfig};
use std::io::{BufReader, Cursor};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;
use testkit::fault::{FailingStore, FaultSchedule, FaultyStream};
use testkit::prop::{self, Config};
use testkit::prop_assert;
use testkit::prop_assert_eq;

fn regressions() -> String {
    concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/proptest-regressions/fault_injection.txt"
    )
    .to_string()
}

fn scratch_dir(tag: &str) -> std::path::PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "seqd-faultprop-{tag}-{}-{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Layer 1: the ingest loop under socket-level faults. ≥500 cases — the
/// acceptance bar for this PR's harness.
#[test]
fn ingest_counters_reconcile_under_socket_faults() {
    const CAP: usize = 64; // small line cap so long messages go oversized
    let config = Config::cases(500).with_regressions(regressions());
    let strategy = (
        prop::range(0u64..u64::MAX),
        prop::range(0u64..24), // records in the stream
        prop::range(0u64..60), // fault probability, percent
    );
    prop::check(&config, &strategy, |&(seed, n, prob_pct)| {
        // Deterministic corpus: a third of services repeat, every 7th
        // message blows past the line cap, every 5th line is garbage.
        let mut input = String::new();
        for i in 0..n {
            if i % 5 == 4 {
                input.push_str("not json at all\n");
                continue;
            }
            let fill = if i % 7 == 3 {
                "x".repeat(CAP + 40)
            } else {
                format!("u{i}")
            };
            input.push_str(&format!(
                "{{\"service\":\"svc-{}\",\"message\":\"event {i} {fill}\"}}\n",
                i % 3
            ));
        }
        let schedule = Arc::new(FaultSchedule::new(seed, prob_pct as f64 / 100.0));
        let mut reader = BufReader::new(FaultyStream::new(
            Cursor::new(input.into_bytes()),
            Arc::clone(&schedule),
        ));
        let mut writer = FaultyStream::new(Vec::new(), Arc::clone(&schedule));

        let queues: Vec<_> = (0..2).map(|_| Arc::new(BoundedQueue::new(64))).collect();
        let ops = Arc::new(Ops::new());
        let router = Router::new(queues.clone(), Arc::clone(&ops), Duration::from_millis(1));

        let result = serve_ingest(&mut reader, &mut writer, &router, &ops, CAP);

        // The invariant that survives ANY socket behaviour: every counted
        // line is queued or accounted. (No workers run, so matched and
        // unmatched stay zero and queue depth is the in-flight term.)
        let s = ops.snapshot();
        let queued: u64 = queues.iter().map(|q| q.depth() as u64).sum();
        prop_assert_eq!(s.ingested, s.rejected + s.malformed + queued);

        // When the connection completed, the receipt must agree with the
        // shared counters exactly.
        if let Ok(summary) = result {
            prop_assert_eq!(
                summary.received,
                summary.accepted + summary.rejected + summary.malformed
            );
            prop_assert_eq!(summary.accepted, queued);
            prop_assert_eq!(summary.malformed, s.malformed);
        }
        Ok(())
    });
}

/// Layer 2: WAL crash-consistency. Append, "crash" (drop without release,
/// maybe a torn tail), reopen under a different shard layout: the replay
/// is the appended multiset, per-service order intact.
#[test]
fn wal_replay_is_exact_across_crash_and_reshard() {
    let config = Config::cases(128).with_regressions(regressions());
    let strategy = (
        prop::range(0u64..u64::MAX),
        prop::range(0u64..40), // records appended before the crash
        prop::range(1u64..5),  // shards before
    );
    prop::check(&config, &strategy, |&(seed, n, shards_before)| {
        let shards_after = (seed % 4 + 1) as usize;
        let dir = scratch_dir("wal");
        let (wal, replay) =
            IngestWal::open(&dir, shards_before as usize, 8).map_err(|e| format!("open: {e}"))?;
        prop_assert!(replay.iter().all(|r| r.is_empty()));

        let queue = Arc::new(BoundedQueue::new(64));
        let mut appended: Vec<(String, String)> = Vec::new();
        for i in 0..n {
            let record = LogRecord::new(
                format!("svc-{}", (seed.wrapping_add(i)) % 3),
                format!("event {i} of seed {seed}"),
            );
            appended.push((record.service.clone(), record.message.clone()));
            let shard = shard_for(&record.service, shards_before as usize);
            let accepted =
                wal.append_route_batch(shard, vec![record], &queue, Duration::from_millis(5));
            prop_assert_eq!(accepted, 1);
            // Keep the bounded queue from filling; the WAL is the subject.
            let _ = queue.pop_batch(1, Duration::from_millis(5));
        }
        wal.sync().map_err(|e| format!("sync: {e}"))?;
        drop(wal); // the crash: nothing released

        if seed % 3 == 0 {
            // A torn final line (power loss mid-append) must be dropped
            // without corrupting the records before it.
            use std::io::Write;
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(dir.join("shard-0.wal"))
                .map_err(|e| format!("torn open: {e}"))?;
            f.write_all(br#"{"service":"svc-0","mess"#)
                .map_err(|e| format!("torn write: {e}"))?;
        }

        let (_wal2, replay) =
            IngestWal::open(&dir, shards_after, 8).map_err(|e| format!("reopen: {e}"))?;
        let mut replayed: Vec<(String, String)> = Vec::new();
        for (shard, batch) in replay.iter().enumerate() {
            let mut last_index_per_service: std::collections::HashMap<&str, u64> =
                std::collections::HashMap::new();
            for acc in batch {
                prop_assert_eq!(shard_for(&acc.record.service, shards_after), shard);
                // "event {i} ..." — per-service order must be ascending.
                let i: u64 = acc
                    .record
                    .message
                    .split_whitespace()
                    .nth(1)
                    .and_then(|v| v.parse().ok())
                    .ok_or("unparseable replayed message")?;
                if let Some(prev) = last_index_per_service.insert(&acc.record.service, i) {
                    prop_assert!(prev < i, "per-service order violated: {prev} !< {i}");
                }
                replayed.push((acc.record.service.clone(), acc.record.message.clone()));
            }
        }
        let mut expected = appended;
        expected.sort();
        replayed.sort();
        prop_assert_eq!(replayed, expected);

        let _ = std::fs::remove_dir_all(&dir);
        Ok(())
    });
}

/// Build a worker + miner pair over a fault-hooked store. `pool_threads`
/// of 0 means the inline miner.
fn faulty_mining_rig(
    schedule: &Arc<FaultSchedule>,
    retries: u32,
    pool_threads: usize,
) -> Result<
    (
        Arc<BoundedQueue<Accepted>>,
        Arc<Miner>,
        ShardWorker,
        Arc<Ops>,
    ),
    String,
> {
    let failing = FailingStore::new(Arc::clone(schedule));
    let mut store = patterndb::PatternStore::in_memory();
    store.set_fault_hook(Some(failing.hook()));
    let mining = Arc::new(Mining::new(RtgConfig {
        batch_size: 4, // several handoffs per case
        ..RtgConfig::default()
    }));
    let board = Arc::new(PatternBoard::new());
    let ops = Arc::new(Ops::new());
    let deps = MinerDeps {
        mining: Arc::clone(&mining),
        store: Arc::new(Mutex::new(store)),
        board: Arc::clone(&board),
        ops: Arc::clone(&ops),
        wal: None,
        retries,
        backoff: Duration::from_millis(1),
        drain: Arc::new(seqd::miner::DrainSignal::new()),
    };
    let miner = Arc::new(if pool_threads == 0 {
        Miner::inline(deps)
    } else {
        Miner::background(deps, pool_threads, 64)
    });
    let queue = Arc::new(BoundedQueue::new(64));
    let worker = ShardWorker {
        shard_id: 0,
        queue: Arc::clone(&queue),
        miner: Arc::clone(&miner),
        board,
        ops: Arc::clone(&ops),
        residue_len: Arc::new(AtomicUsize::new(0)),
        replay: Vec::new(),
        mining,
    };
    Ok((queue, miner, worker, ops))
}

/// Drive `n` records through the rig and check the loss-accounting
/// invariants that must hold under ANY store fault schedule.
fn check_mining_invariants(
    schedule: &Arc<FaultSchedule>,
    n: u64,
    pool_threads: usize,
    retries: u32,
) -> Result<(), String> {
    let (queue, miner, worker, ops) = faulty_mining_rig(schedule, retries, pool_threads)?;
    for i in 0..n {
        // The ingest path counts `ingested`; this harness bypasses it.
        Ops::inc(&ops.ingested);
        let record = LogRecord::new("svc", format!("session opened for user u{i}"));
        let pushed = queue.push_batch(vec![Accepted::untracked(record)], Duration::from_millis(10));
        prop_assert_eq!(pushed, 1);
    }
    queue.close();
    worker.run();
    // Same order as the daemon's drain: workers first, then the miner.
    miner.close();
    miner.join();

    let s = ops.snapshot();
    prop_assert!(s.reconciles(), "must reconcile: {:?}", s);
    prop_assert_eq!(s.ingested, n);
    prop_assert!(
        s.dropped <= s.unmatched,
        "dropped ({}) is a subset of unmatched ({})",
        s.dropped,
        s.unmatched
    );
    if schedule.injected() == 0 {
        prop_assert_eq!(s.dropped, 0);
    }
    Ok(())
}

/// Layer 3a: the inline miner (the synchronous reference executor) under
/// store faults. `dropped` is exact, and zero when no fault fired.
#[test]
fn worker_flush_reconciles_under_store_faults() {
    let config = Config::cases(200).with_regressions(regressions());
    let strategy = (
        prop::range(0u64..u64::MAX),
        prop::range(1u64..12), // records per case
        prop::range(0u64..70), // fault probability, percent
    );
    prop::check(&config, &strategy, |&(seed, n, prob_pct)| {
        let schedule = Arc::new(FaultSchedule::new(seed, prob_pct as f64 / 100.0));
        check_mining_invariants(&schedule, n, 0, (seed % 3) as u32)
    });
}

/// Layer 3b: the background miner pool under the same fault schedules —
/// handoff, coalescing and multi-threaded commits must preserve the exact
/// loss accounting the inline path has.
#[test]
fn miner_pool_reconciles_under_store_faults() {
    let config = Config::cases(96).with_regressions(regressions());
    let strategy = (
        prop::range(0u64..u64::MAX),
        prop::range(1u64..24), // records per case
        prop::range(0u64..70), // fault probability, percent
    );
    prop::check(&config, &strategy, |&(seed, n, prob_pct)| {
        let schedule = Arc::new(FaultSchedule::new(seed, prob_pct as f64 / 100.0));
        let threads = (seed % 3 + 1) as usize; // 1..=3 miner threads
        check_mining_invariants(&schedule, n, threads, (seed % 3) as u32)
    });
}
