//! End-to-end test of the observability plane: a known workload through a
//! real `seqd` daemon, then every surface the `obs` crate feeds is checked —
//! `/metrics` (lint-clean histograms that reconcile with the ingest
//! counters), `/stats` (its key set, per-stage and per-service
//! percentiles), and `/debug/slow` (the bounded slowest-operations ring).
//!
//! One test function on purpose: the `obs` registry is process-global, so a
//! single workload keeps every count assertion exact.

use sequence_rtg_repro::patterndb::PatternStore;
use sequence_rtg_repro::seqd::loadgen;
use sequence_rtg_repro::seqd::server::{start, SeqdConfig};
use sequence_rtg_repro::sequence_rtg::{LogRecord, RtgConfig};
use sequence_rtg_repro::{jsonlite, loghub_synth, obs};
use std::time::Duration;

const BATCH: usize = 2_000;

fn corpus(seed: u64, total: usize) -> Vec<LogRecord> {
    loghub_synth::generate_stream(loghub_synth::CorpusConfig {
        services: 6,
        total,
        seed,
    })
    .into_iter()
    .map(|item| LogRecord::new(item.service, item.message))
    .collect()
}

/// One counter sample's value from the Prometheus text.
fn series(metrics: &str, name: &str) -> u64 {
    metrics
        .lines()
        .find(|l| l.starts_with(name) && !l.starts_with('#'))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse::<f64>().ok())
        .unwrap_or_else(|| panic!("series {name} missing in:\n{metrics}")) as u64
}

#[test]
fn metrics_stats_and_slow_ring_reflect_a_known_workload() {
    let config = SeqdConfig {
        shards: 2,
        rtg: RtgConfig {
            batch_size: BATCH,
            ..SeqdConfig::default().rtg
        },
        queue_capacity: 2 * BATCH,
        ..SeqdConfig::default()
    };
    let handle = start(PatternStore::in_memory(), config, "127.0.0.1:0").expect("start daemon");
    let addr = handle.addr();

    // The known workload: two waves, so the second is mostly matched against
    // the patterns mined from the first.
    let receipt = loadgen::replay_records(addr, &corpus(41, BATCH)).expect("replay A");
    assert_eq!(receipt.accepted, BATCH as u64, "receipt: {receipt:?}");
    loadgen::wait_until_processed(addr, BATCH as u64, Duration::from_secs(120)).expect("drain A");
    let receipt = loadgen::replay_records(addr, &corpus(42, BATCH)).expect("replay B");
    assert_eq!(receipt.accepted, BATCH as u64);
    loadgen::wait_until_processed(addr, 2 * BATCH as u64, Duration::from_secs(120))
        .expect("drain B");
    // Mining runs behind the ingest path; wait for wave A's re-mine to land
    // so the analyze/flush surfaces below have something to show.
    let deadline = std::time::Instant::now() + Duration::from_secs(120);
    loop {
        let stats = loadgen::control_get(addr, "/stats").expect("/stats");
        let v = jsonlite::parse(&stats).expect("stats json");
        if v.get("remine_runs").and_then(|x| x.as_i64()).unwrap_or(0) >= 1 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "daemon never re-mined; last stats: {stats}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }

    // --- /metrics: every series self-describing and lint-clean.
    let metrics = loadgen::control_get(addr, "/metrics").expect("/metrics");
    let errors = obs::promlint::lint(&metrics);
    assert!(errors.is_empty(), "promlint on /metrics: {errors:?}");

    // The exported name set equals the checked-in contract (the same file
    // ci.sh diffs against a live daemon scrape).
    let golden = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/metrics_names.txt"
    ))
    .expect("golden metric names");
    let expected: Vec<String> = golden.lines().map(str::to_string).collect();
    assert_eq!(
        obs::promlint::metric_names(&metrics),
        expected,
        "exported metric names diverged from tests/golden/metrics_names.txt"
    );

    // The ingest-line histogram records exactly once per ingested line, so
    // its `_count` reconciles with the daemon's own ingest counter — both in
    // the exported text and in the in-process registry the daemon shares
    // with this test.
    let ingested = series(&metrics, "seqd_ingested_total");
    assert_eq!(ingested, 2 * BATCH as u64);
    assert_eq!(series(&metrics, "seqd_ingest_line_seconds_count"), ingested);
    let snap = obs::registry()
        .snapshot("seqd_ingest_line_seconds")
        .expect("preregistered");
    assert_eq!(snap.count, ingested);
    // Matches flow through the match-stage histogram one for one.
    assert_eq!(
        series(&metrics, "seqd_match_seconds_count"),
        series(&metrics, "seqd_matched_total") + series(&metrics, "seqd_unmatched_total"),
    );
    // No record is ever double-counted: the fate counters never run ahead
    // of `ingested` (the over-accounting direction `in_flight`'s
    // saturating subtraction used to silently swallow).
    assert_eq!(series(&metrics, "seqd_counter_drift_total"), 0);

    // --- /stats: the top-level key set equals the checked-in contract
    // (seqbench parses 14 of these keys), then per-stage and per-service
    // percentiles.
    let stats = loadgen::control_get(addr, "/stats").expect("/stats");
    let v = jsonlite::parse(&stats).expect("stats json");
    let golden = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/stats_keys.txt"
    ))
    .expect("golden stats keys");
    let keys: Vec<&str> = v
        .as_object()
        .expect("stats object")
        .keys()
        .map(String::as_str)
        .collect();
    assert_eq!(
        keys,
        golden.lines().collect::<Vec<_>>(),
        "/stats keys diverged from tests/golden/stats_keys.txt"
    );
    let latency = v.get("latency_ms").expect("latency_ms");
    for stage in ["ingest_line", "queue_wait", "match", "analyze"] {
        let q = latency
            .get(stage)
            .unwrap_or_else(|| panic!("latency_ms.{stage} missing in {stats}"));
        let count = q.get("count").and_then(|x| x.as_i64()).unwrap_or(0);
        assert!(count > 0, "latency_ms.{stage} never recorded: {stats}");
        for p in ["p50", "p95", "p99"] {
            let ms = q.get(p).and_then(|x| x.as_f64());
            assert!(ms.is_some(), "latency_ms.{stage}.{p} missing: {stats}");
        }
        // Quantiles are monotone by construction.
        let p50 = q.get("p50").unwrap().as_f64().unwrap();
        let p99 = q.get("p99").unwrap().as_f64().unwrap();
        assert!(p99 >= p50, "latency_ms.{stage}: p99 {p99} < p50 {p50}");
    }
    let per_service = v
        .get("service_latency_ms")
        .and_then(|x| x.as_object())
        .expect("service_latency_ms");
    assert!(!per_service.is_empty(), "no per-service latency: {stats}");
    for (service, q) in per_service {
        let count = q.get("count").and_then(|x| x.as_i64()).unwrap_or(0);
        assert!(count > 0, "service {service} has empty quantiles: {stats}");
    }

    // --- /debug/slow: the ring holds the slowest operations with their
    // attributes; a flush of BATCH records is always slow enough to place.
    let slow = loadgen::control_get(addr, "/debug/slow").expect("/debug/slow");
    let v = jsonlite::parse(&slow).expect("slow json");
    let ops = v.as_array().expect("slow ops array");
    assert!(!ops.is_empty(), "slow ring empty after {ingested} records");
    let mut last_ns = i64::MAX;
    for op in ops {
        let name = op.get("name").and_then(|x| x.as_str()).expect("op name");
        assert!(!name.is_empty());
        let ns = op.get("dur_ns").and_then(|x| x.as_i64()).expect("dur_ns");
        assert!(ns <= last_ns, "ring not sorted slowest-first: {slow}");
        last_ns = ns;
    }
    assert!(
        ops.iter()
            .any(|op| op.get("name").and_then(|x| x.as_str()) == Some("seqd.flush")),
        "no flush span in the slow ring: {slow}"
    );

    handle.initiate_shutdown();
    let finals = handle.join().expect("join");
    assert!(finals.reconciles(), "{finals:?}");
    assert_eq!(finals.counter_drift(), 0, "{finals:?}");
}
