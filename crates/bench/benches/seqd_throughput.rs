//! Daemon ingest throughput: NDJSON over a real loopback socket, through
//! the event-loop wire path to a durable receipt.
//!
//! **What is timed:** the ingest wire path — first payload byte written
//! until the daemon's receipt line is read back. That window covers the
//! socket read, frame split, JSON parse, shard routing, queue admission,
//! WAL group commit (when configured) and the batched ack: everything the
//! daemon promises a client at the moment it acknowledges. It is the
//! quantity the event-loop rework targets — the thread-per-connection
//! blocking path acked the same wave ~6× slower.
//!
//! **What is not timed:** the shard workers' scan+match drain. On a
//! single-core host the matcher (~5 µs/record; see `BENCH_parser.json`
//! for its own ceiling) bounds end-to-end completion no matter how fast
//! the wire is, so each iteration still *asserts* the full drain — every
//! acked record matched or unmatched, nothing dropped — but via
//! `iter_custom` the drain happens outside the measured window.
//!
//! The daemon is started over a pre-mined store (the steady-state posture:
//! patterns already known, re-mining quiescent) with a batch size large
//! enough that no flush fires mid-measurement. The client side is
//! [`loadgen::replay_blob`]: the wave is serialised once up front, so the
//! generator's per-line cost is a memcpy and can never be the bottleneck
//! being measured. One element = one log record.
//!
//! A second record, `seqd/ingest_tcp_remine`, measures the same wire
//! window while churn waves force the background miner to re-mine
//! mid-run — the number that shows re-mining has left the ingest hot
//! path. Its companion `seqd/mine_stall` record is the worker-observed
//! handoff pause (`seqd_mine_stall_seconds`), which `ci.sh` gates at an
//! absolute 5 ms.
//!
//! JSON lands in `results/BENCH_seqd.json` for the PR-over-PR trajectory.

use loghub_synth::{generate_stream, CorpusConfig};
use patterndb::PatternStore;
use seqd::loadgen;
use seqd::server::{start, SeqdConfig};
use sequence_rtg::{LogRecord, RtgConfig, SequenceRtg};
use std::net::SocketAddr;
use std::sync::OnceLock;
use std::time::{Duration, Instant};
use testkit::bench::{criterion_group, Criterion, Throughput};

// Large enough that per-wave fixed costs (connect, receipt read, the final
// partial ack batch) amortise away and the event loop's vectored reads see
// deep buffers — at 5k the wave was gone before the pipeline warmed up.
const WAVE: usize = 50_000;

fn corpus(seed: u64) -> Vec<LogRecord> {
    generate_stream(CorpusConfig {
        services: 25,
        total: WAVE,
        seed,
    })
    .into_iter()
    .map(|item| LogRecord::new(item.service, item.message))
    .collect()
}

/// Records fully processed so far (matched + unmatched), via `/stats`.
fn processed(addr: SocketAddr) -> u64 {
    let stats = loadgen::control_get(addr, "/stats").expect("/stats");
    let v = jsonlite::parse(&stats).expect("stats json");
    let field = |k: &str| v.get(k).and_then(|x| x.as_i64()).unwrap_or(0) as u64;
    field("matched") + field("unmatched")
}

fn bench_socket_ingest(c: &mut Criterion) {
    // Pre-mine the pattern store offline so the daemon starts in steady
    // state and the bench never pays for re-mining.
    let mut miner = SequenceRtg::in_memory(RtgConfig {
        save_threshold: 0,
        ..RtgConfig::default()
    });
    miner.analyze_by_service(&corpus(31), 0).expect("pre-mine");
    let store = std::mem::replace(miner.store_mut(), PatternStore::in_memory());

    let config = SeqdConfig {
        // One shard: on a single-core host every extra worker thread
        // steals CPU share from the poller during the timed window, and
        // shard parallelism has nothing to offer the wire measurement.
        shards: 1,
        // Far beyond anything the bench accumulates: no mid-wave flush.
        batch_size: 100 * WAVE,
        queue_capacity: 2 * WAVE,
        ..SeqdConfig::default()
    };
    let handle = start(store, config, "127.0.0.1:0").expect("start daemon");
    let addr = handle.addr();

    // A fresh wave from the same services (mostly matched, like
    // production), serialised once into a single wire blob.
    let payload: Vec<u8> = corpus(62)
        .iter()
        .flat_map(|r| {
            let mut line = r.to_json_line().into_bytes();
            line.push(b'\n');
            line
        })
        .collect();

    let mut group = c.benchmark_group("seqd");
    group.throughput(Throughput::Elements(WAVE as u64));
    group.bench_function("ingest_tcp", |b| {
        b.iter_custom(|n| {
            let mut timed = Duration::ZERO;
            for _ in 0..n {
                let before = processed(addr);
                let started = Instant::now();
                let receipt = loadgen::replay_blob(addr, &payload).expect("replay");
                timed += started.elapsed();
                // Everything below runs outside the measured window.
                assert_eq!(receipt.accepted, WAVE as u64, "receipt: {receipt:?}");
                while processed(addr) < before + WAVE as u64 {
                    std::thread::sleep(Duration::from_micros(200));
                }
            }
            timed
        })
    });
    group.finish();

    handle.initiate_shutdown();
    handle.join().expect("drain");
}

// --- ingest under forced re-mining -----------------------------------------

/// Wave size for the churn bench: smaller than the quiescent wave so the
/// 16 pre-built payload variants stay cheap to hold.
const CHURN_WAVE: usize = 20_000;
/// Distinct churn vocabularies; more than criterion's warm-up + samples, so
/// every measured wave carries genuinely novel residue.
const CHURN_VARIANTS: usize = 16;

/// `seqd_mine_stall_seconds` quantiles, captured *before* the churn daemon
/// drains so the record covers ingest-path handoff pauses only (the drain's
/// final blocking submission is shutdown work, not an ingest pause).
static MINE_STALL: OnceLock<(u64, u64, u64)> = OnceLock::new();

/// One churn wave: ~88% replays the pre-mined services (matched on
/// arrival, the production steady state), every 8th record speaks a
/// per-variant vocabulary the daemon has never seen. The novel residue
/// crosses the mining batch size early in the wave — around the 4000th
/// record, which the shard worker reaches while the ack window is still
/// open — so re-mines run concurrently with the measured ingest instead
/// of in a quiet lab.
fn churn_payload(variant: usize) -> Vec<u8> {
    corpus(1_000 + variant as u64)
        .iter()
        .take(CHURN_WAVE)
        .enumerate()
        .flat_map(|(k, r)| {
            let record;
            let r = if k % 8 == 7 {
                record = LogRecord::new(
                    format!("churn-{variant}"),
                    format!(
                        "epoch{variant} job {k} finished in {} ms on node{variant}-{}",
                        k % 97,
                        k % 31
                    ),
                );
                &record
            } else {
                r
            };
            let mut line = r.to_json_line().into_bytes();
            line.push(b'\n');
            line
        })
        .collect()
}

/// Re-mine runs completed so far, via `/stats`.
fn remine_runs(addr: SocketAddr) -> i64 {
    let stats = loadgen::control_get(addr, "/stats").expect("/stats");
    let v = jsonlite::parse(&stats).expect("stats json");
    v.get("remine_runs").and_then(|x| x.as_i64()).unwrap_or(0)
}

/// Block until the miner pool is quiescent (no queued or in-flight jobs).
/// Run between iterations — outside the measured window — so every sample
/// starts from the same daemon state instead of inheriting whatever
/// backlog the previous wave left behind.
fn wait_mine_quiescent(addr: SocketAddr) {
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let stats = loadgen::control_get(addr, "/stats").expect("/stats");
        let v = jsonlite::parse(&stats).expect("stats json");
        if v.get("mine_backlog").and_then(|x| x.as_i64()).unwrap_or(0) == 0 {
            return;
        }
        assert!(Instant::now() < deadline, "miner never drained: {stats}");
        std::thread::sleep(Duration::from_micros(500));
    }
}

fn bench_socket_ingest_remine(c: &mut Criterion) {
    // Same pre-mined steady state as the quiescent bench...
    let mut miner = SequenceRtg::in_memory(RtgConfig {
        save_threshold: 0,
        ..RtgConfig::default()
    });
    let seed_corpus: Vec<LogRecord> = corpus(31).into_iter().take(CHURN_WAVE).collect();
    miner.analyze_by_service(&seed_corpus, 0).expect("pre-mine");
    let store = std::mem::replace(miner.store_mut(), PatternStore::in_memory());

    let config = SeqdConfig {
        shards: 1,
        // ...but a small mining batch: the churn tail crosses it several
        // times per wave, handing jobs to the background miner mid-run.
        batch_size: 500,
        queue_capacity: 2 * CHURN_WAVE,
        miners: 1,
        ..SeqdConfig::default()
    };
    let handle = start(store, config, "127.0.0.1:0").expect("start daemon");
    let addr = handle.addr();

    let payloads: Vec<Vec<u8>> = (0..CHURN_VARIANTS).map(churn_payload).collect();
    let mut next_variant = 0usize;

    let mut group = c.benchmark_group("seqd");
    group.throughput(Throughput::Elements(CHURN_WAVE as u64));
    group.bench_function("ingest_tcp_remine", |b| {
        b.iter_custom(|n| {
            let mut timed = Duration::ZERO;
            for _ in 0..n {
                let payload = &payloads[next_variant % CHURN_VARIANTS];
                next_variant += 1;
                let before = processed(addr);
                let started = Instant::now();
                let receipt = loadgen::replay_blob(addr, payload).expect("replay");
                timed += started.elapsed();
                assert_eq!(receipt.accepted, CHURN_WAVE as u64, "receipt: {receipt:?}");
                while processed(addr) < before + CHURN_WAVE as u64 {
                    std::thread::sleep(Duration::from_micros(200));
                }
                wait_mine_quiescent(addr);
            }
            timed
        })
    });
    group.finish();

    // The bench is only honest if mining actually ran during it.
    let remines = remine_runs(addr);
    assert!(
        remines >= 2,
        "churn waves must force re-mines mid-run, saw {remines}"
    );
    if let Some(snap) = obs::registry().snapshot("seqd_mine_stall_seconds") {
        let q = |p: f64| snap.quantile_ns(p).unwrap_or(0);
        let _ = MINE_STALL.set((snap.count, q(0.99), q(1.0)));
    }

    handle.initiate_shutdown();
    handle.join().expect("drain");
}

criterion_group!(benches, bench_socket_ingest, bench_socket_ingest_remine);

/// The per-line ingest latency record, from the daemon's own
/// `seqd_ingest_line_seconds` histogram (the daemon ran in-process, so the
/// global `obs` registry holds every sample the waves produced). Appended to
/// the same JSON-lines file as the throughput record; `ci.sh` gates the p99
/// against a frozen baseline.
fn ingest_latency_record() -> Option<String> {
    let snap = obs::registry().snapshot("seqd_ingest_line_seconds")?;
    let q = |p: f64| snap.quantile_ns(p).unwrap_or(0);
    Some(format!(
        "{{\"id\":\"seqd/ingest_line_latency\",\"count\":{},\"p50_ns\":{},\"p95_ns\":{},\"p99_ns\":{}}}",
        snap.count,
        q(0.50),
        q(0.95),
        q(0.99),
    ))
}

/// The mine-stall record: the pause a shard worker saw handing residue to
/// the miner, captured by the churn bench before its daemon drained. The
/// whole point of the background pipeline is that this stays microscopic;
/// `ci.sh` fails the run if the maximum exceeds 5 ms.
fn mine_stall_record() -> Option<String> {
    let (count, p99_ns, max_ns) = *MINE_STALL.get()?;
    Some(format!(
        "{{\"id\":\"seqd/mine_stall\",\"count\":{count},\"p99_ns\":{p99_ns},\"max_ns\":{max_ns}}}"
    ))
}

fn main() {
    let mut c = Criterion::from_args();
    benches(&mut c);
    c.final_summary();
    let default_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results/BENCH_seqd.json");
    if !Criterion::json_redirected() {
        match c.write_json(default_path) {
            Ok(()) => println!("wrote {default_path}"),
            Err(e) => eprintln!("{default_path}: write failed: {e}"),
        }
    }
    let mut records = Vec::new();
    if let Some(record) = ingest_latency_record() {
        records.push(record);
    }
    if let Some(record) = mine_stall_record() {
        records.push(record);
    }
    if !records.is_empty() {
        let path = std::env::var("TESTKIT_BENCH_JSON").unwrap_or_else(|_| default_path.into());
        let blob = records.join("\n") + "\n";
        let appended = std::fs::OpenOptions::new()
            .append(true)
            .create(true)
            .open(&path)
            .and_then(|mut f| std::io::Write::write_all(&mut f, blob.as_bytes()));
        match appended {
            Ok(()) => println!("appended latency + mine-stall records to {path}"),
            Err(e) => eprintln!("{path}: record append failed: {e}"),
        }
    }
}
