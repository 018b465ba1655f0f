//! The daemon, end to end on loopback: start `seqd`, stream a synthetic
//! corpus at it over TCP, watch the control plane, drain.
//!
//! This is the paper's Fig. 6 deployment in one process: a collector
//! (here the load generator) pipes the composite JSON stream into the
//! pattern-mining service; known messages are parsed immediately, the
//! unknown residue is re-mined in batches, and operators observe the whole
//! thing over plain HTTP.
//!
//! ```text
//! cargo run --example seqd_demo
//! ```

use sequence_rtg_repro::loghub_synth::{generate_stream, CorpusConfig};
use sequence_rtg_repro::patterndb::PatternStore;
use sequence_rtg_repro::seqd::loadgen;
use sequence_rtg_repro::seqd::server::{start, SeqdConfig};
use sequence_rtg_repro::sequence_rtg::{LogRecord, RtgConfig};
use std::time::Duration;

fn main() {
    let config = SeqdConfig {
        shards: 2,
        rtg: RtgConfig {
            batch_size: 4_000,
            ..SeqdConfig::default().rtg
        },
        ..SeqdConfig::default()
    };
    let shards = config.shards;
    let handle = start(PatternStore::in_memory(), config, "127.0.0.1:0").expect("start daemon");
    let addr = handle.addr();
    println!("seqd listening on {addr} ({shards} shards)\n");

    // Two waves from the same services: the first is all-novel and triggers
    // re-mining; the second mostly matches the freshly published patterns.
    for (wave, seed) in [(1, 31u64), (2, 62u64)] {
        let records: Vec<LogRecord> = generate_stream(CorpusConfig {
            services: 25,
            total: 8_000,
            seed,
        })
        .into_iter()
        .map(|item| LogRecord::new(item.service, item.message))
        .collect();
        let receipt = loadgen::replay_records(addr, &records).expect("replay");
        println!("wave {wave}: receipt {}", receipt.to_json_line());
        loadgen::wait_until_processed(
            addr,
            (wave * records.len()) as u64,
            Duration::from_secs(120),
        )
        .expect("processing");
        let stats = loadgen::control_get(addr, "/stats").expect("/stats");
        println!("wave {wave}: /stats {stats}\n");
    }

    let metrics = loadgen::control_get(addr, "/metrics").expect("/metrics");
    let counters: Vec<&str> = metrics
        .lines()
        .filter(|l| !l.starts_with('#') && !l.contains("queue_depth") && !l.contains("residue"))
        .collect();
    println!("/metrics (counters):\n{}", counters.join("\n"));

    loadgen::control_post(addr, "/shutdown").expect("shutdown");
    let finals = handle.join().expect("drain");
    println!(
        "\ndrained: ingested {} = matched {} + unmatched {} + rejected {} + malformed {} (reconciles: {})",
        finals.ingested,
        finals.matched,
        finals.unmatched,
        finals.rejected,
        finals.malformed,
        finals.reconciles(),
    );
}
