//! Observational equivalence of mining execution: pool size and inline.
//!
//! A background pool only changes *when* mining runs, never *what* it
//! computes: the worker hands off the same residue batches at the same
//! boundaries, the miner runs the same plan/commit sequence against the
//! published sets, and per-shard jobs stay serialized. So a workload
//! that waits for mining to settle between waves must leave byte-identical
//! pattern state behind whatever the pool size — the same
//! `(service, pattern text, count)` triples in the store and the same
//! matched/unmatched split in the counters — and a pool forced to coalesce
//! must match [`Miner::inline`], the synchronous reference executor.

use seqd::loadgen;
use seqd::metrics::Ops;
use seqd::miner::{DrainSignal, MineJob, Miner, MinerDeps};
use seqd::server::{start, SeqdConfig};
use seqd::shard::shard_for;
use seqd::swap::PatternBoard;
use seqd::OpsSnapshot;
use sequence_rtg::{Arrival, LogRecord, Mining, OpenBatch, RtgConfig, SequenceRtg};
use std::collections::{BTreeSet, HashMap};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use testkit::prop::{self, Config};
use testkit::prop_assert;
use testkit::rng::Rng;

const SHARDS: usize = 2;
const WAVE: usize = 2_500;

fn corpus(seed: u64) -> Vec<LogRecord> {
    loghub_synth::generate_stream(loghub_synth::CorpusConfig {
        services: 6,
        total: WAVE,
        seed,
    })
    .into_iter()
    .map(|item| LogRecord::new(item.service, item.message))
    .collect()
}

/// Poll `/stats` until `remine_runs` reaches `n` — mining has settled.
fn wait_for_remines(addr: std::net::SocketAddr, n: i64, timeout: Duration) {
    let deadline = Instant::now() + timeout;
    loop {
        let stats = loadgen::control_get(addr, "/stats").expect("/stats");
        let v = jsonlite::parse(&stats).expect("stats json");
        if v.get("remine_runs").and_then(|x| x.as_i64()).unwrap_or(0) >= n {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "daemon never reached {n} re-mines; last stats: {stats}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Run one daemon over the two-wave workload and return its final pattern
/// triples and counter snapshot.
fn run_mode(miners: usize, tag: &str) -> (BTreeSet<(String, String, u64)>, OpsSnapshot) {
    let wave_a = corpus(11);
    let wave_b = corpus(12);
    // Wave A is all-novel residue: one settled mine per shard that saw
    // traffic. (Every wave uses the same services, so the set is fixed.)
    let busy_shards = wave_a
        .iter()
        .map(|r| shard_for(&r.service, SHARDS))
        .collect::<BTreeSet<_>>()
        .len() as i64;

    let dir =
        std::env::temp_dir().join(format!("seqd-equiv-{tag}-{}-{miners}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = SeqdConfig {
        shards: SHARDS,
        // Above the wave size: within a wave only the idle handoff fires,
        // so batch boundaries cannot depend on mining latency.
        rtg: RtgConfig {
            batch_size: 2 * WAVE,
            ..SeqdConfig::default().rtg
        },
        queue_capacity: 4 * WAVE,
        miners,
        ..SeqdConfig::default()
    };
    let rtg = config.rtg;
    let store = patterndb::PatternStore::open(&dir).expect("open store");
    let handle = start(store, config, "127.0.0.1:0").expect("start daemon");
    let addr = handle.addr();

    let receipt = loadgen::replay_records(addr, &wave_a).expect("replay A");
    assert_eq!(receipt.accepted, WAVE as u64, "receipt: {receipt:?}");
    wait_for_remines(addr, busy_shards, Duration::from_secs(120));

    let receipt = loadgen::replay_records(addr, &wave_b).expect("replay B");
    assert_eq!(receipt.accepted, WAVE as u64, "receipt: {receipt:?}");
    loadgen::wait_until_processed(addr, 2 * WAVE as u64, Duration::from_secs(120))
        .expect("drain B");

    handle.initiate_shutdown();
    let finals = handle.join().expect("join");
    assert!(finals.reconciles(), "{finals:?}");
    assert_eq!(finals.dropped, 0, "{finals:?}");

    let store = patterndb::PatternStore::open(&dir).expect("reopen store");
    let mut reloaded = SequenceRtg::new(store, rtg).expect("reload");
    let triples: BTreeSet<(String, String, u64)> = reloaded
        .store_mut()
        .patterns(None)
        .expect("patterns")
        .into_iter()
        .map(|p| (p.service, p.pattern_text, p.count))
        .collect();
    std::fs::remove_dir_all(&dir).expect("cleanup");
    (triples, finals)
}

#[test]
fn pool_size_is_observationally_irrelevant() {
    let (one_triples, one_finals) = run_mode(1, "one");
    let (two_triples, two_finals) = run_mode(2, "two");

    assert!(!one_triples.is_empty(), "workload must mine something");
    assert_eq!(
        two_triples, one_triples,
        "store triples must not depend on the miner pool size"
    );
    assert_eq!(two_finals.matched, one_finals.matched);
    assert_eq!(two_finals.unmatched, one_finals.unmatched);
    assert!(
        two_finals.matched > 0,
        "wave B must re-use wave A's patterns: {two_finals:?}"
    );
}

/// Property: the miner-pool queue discipline — at most one pending job per
/// shard ([`MineJob::merge`] folds later submissions in), at most one job
/// in flight per shard — preserves per-service record order end to end.
/// Random submission streams are pushed through a faithful simulation of
/// that discipline (coalesce-or-mine decided per submission by the seed)
/// and the concatenation of mined batches must keep every service's
/// records in their original sequence.
#[test]
fn coalescing_preserves_per_service_record_order() {
    let config = Config::cases(300).with_regressions(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/proptest-regressions/miner_equivalence.txt"
    ));
    let strategy = (
        prop::range(0u64..u64::MAX),
        prop::range(1u64..12), // submissions
        prop::range(1u64..8),  // records per submission
    );
    prop::check(&config, &strategy, |&(seed, submissions, per_batch)| {
        let mut rng = Rng::seed_from_u64(seed);
        let mut next_seq: HashMap<String, u64> = HashMap::new();
        let mut mined: Vec<MineJob> = Vec::new();
        let mut pending: Option<MineJob> = None;
        let mut expected_counts: HashMap<String, u64> = HashMap::new();
        let mut max_release = 0u64;

        for s in 0..submissions {
            // A submission: seq-stamped records across up to three
            // services, plus match counts and a WAL high-water mark.
            let mut job = MineJob {
                shard_id: 7,
                batch: OpenBatch::default(),
                release_up_to: s + 1,
                enqueued: Instant::now(),
            };
            max_release = s + 1;
            for _ in 0..per_batch {
                let service = format!("svc-{}", rng.bounded(3));
                let seq = next_seq.entry(service.clone()).or_insert(0);
                // The residue keeps messages only: the message names its
                // service.
                let record = LogRecord::new(&service, format!("{service} seq {}", *seq));
                job.batch.take(&record, Arrival::Residue);
                *seq += 1;
            }
            let id = format!("p{}", rng.bounded(2));
            let matched = Arrival::Matched {
                id: &id,
                multiline: false,
            };
            let record = LogRecord::new("svc-0", "matched");
            job.batch.take(&record, matched);
            *expected_counts.entry(id).or_insert(0) += 1;

            match pending.take() {
                // The shard already has a queued job: the pool coalesces.
                Some(mut p) => {
                    p.merge(job);
                    pending = Some(p);
                }
                None => pending = Some(job),
            }
            // Seed-chosen schedule: sometimes a miner thread picks the
            // pending job up before the next submission arrives.
            if rng.gen_bool(0.5) {
                if let Some(p) = pending.take() {
                    mined.push(p);
                }
            }
        }
        if let Some(p) = pending.take() {
            mined.push(p);
        }

        // Per-shard jobs mine in pickup order; concatenating their batches
        // is the exact stream the analyser sees. Every service's sequence
        // numbers must come out 0, 1, 2, ... with none lost or reordered.
        let mut seen: HashMap<&str, u64> = HashMap::new();
        let mut total = 0u64;
        for job in &mined {
            for message in job.batch.residue() {
                let (service, seq) = message.split_once(" seq ").ok_or("no seq")?;
                let expect = seen.entry(service).or_insert(0);
                let seq: u64 = seq.parse().map_err(|_| "unparseable seq")?;
                prop_assert!(
                    seq == *expect,
                    "service {} saw seq {} after {} mined jobs, expected {}",
                    service,
                    seq,
                    mined.len(),
                    *expect
                );
                *expect += 1;
                total += 1;
            }
        }
        prop_assert!(total == submissions * per_batch, "records lost in merge");

        // Merging also folds counts additively and keeps the highest WAL
        // mark — the other two fields a coalesced job must not corrupt.
        let mut merged_counts: HashMap<String, u64> = HashMap::new();
        let mut merged_release = 0u64;
        for job in &mined {
            for (id, n) in job.batch.match_counts() {
                *merged_counts.entry(id.to_string()).or_insert(0) += n;
            }
            merged_release = merged_release.max(job.release_up_to);
        }
        prop_assert!(merged_counts == expected_counts, "counts corrupted");
        prop_assert!(merged_release == max_release, "WAL mark regressed");
        Ok(())
    });
}

/// Force *real* coalescing through a live one-thread pool — a slow store
/// commit holds the first job in flight while later submissions pile onto
/// the shard's pending slot — and require the outcome to be byte-identical
/// to inline mining of the same waves.
#[test]
fn forced_coalescing_matches_inline_mining() {
    fn wave(i: u64) -> Vec<LogRecord> {
        (0..4)
            .map(|j| {
                LogRecord::new(
                    format!("svc-{}", j % 2),
                    format!("wave event user-{} online", i * 10 + j),
                )
            })
            .collect()
    }
    fn job(i: u64) -> MineJob {
        let mut batch = OpenBatch::default();
        for r in wave(i) {
            batch.take(&r, Arrival::Residue);
        }
        MineJob {
            shard_id: 0,
            batch,
            release_up_to: 0,
            enqueued: Instant::now(),
        }
    }
    fn triples(deps: &MinerDeps) -> BTreeSet<(String, String, u64)> {
        deps.store
            .lock()
            .unwrap()
            .patterns(None)
            .unwrap()
            .into_iter()
            .map(|p| (p.service, p.pattern_text, p.count))
            .collect()
    }
    fn deps_with_slow_commit(slow: bool) -> MinerDeps {
        let mut store = patterndb::PatternStore::in_memory();
        if slow {
            // Never fails — just stalls each transaction long enough for
            // the submitter to outrun the single mining thread.
            store.set_fault_hook(Some(Arc::new(|op: &str| {
                if op == "begin" {
                    std::thread::sleep(Duration::from_millis(150));
                }
                false
            })));
        }
        MinerDeps {
            mining: Arc::new(Mining::new(RtgConfig::default())),
            store: Arc::new(Mutex::new(store)),
            board: Arc::new(PatternBoard::new()),
            ops: Arc::new(Ops::new()),
            wal: None,
            retries: 0,
            backoff: Duration::from_millis(1),
            drain: Arc::new(DrainSignal::new()),
        }
    }

    let inline_deps = deps_with_slow_commit(false);
    let inline = Miner::inline(inline_deps.clone());
    for i in 0..5 {
        inline.try_submit(job(i)).unwrap();
    }

    let pool_deps = deps_with_slow_commit(true);
    let pool = Miner::background(pool_deps.clone(), 1, 10_000);
    for i in 0..5 {
        pool.submit_blocking(job(i));
    }
    pool.close();
    pool.join();

    let s = pool_deps.ops.snapshot();
    assert!(
        s.mine_coalesced >= 1,
        "the slow commit must force at least one coalesce: {s:?}"
    );
    assert_eq!(s.mine_jobs + s.mine_coalesced, 5, "{s:?}");
    assert_eq!(s.dropped, 0, "{s:?}");
    assert_eq!(
        triples(&pool_deps),
        triples(&inline_deps),
        "coalesced mining diverged from inline"
    );
}
