//! `/debug/memory`'s heap figure against a count kept at the allocator.
//!
//! `mallinfo2()` reports what glibc handed out; `testkit::alloc` counts
//! every byte the Rust code asked for. On an in-process daemon, with the
//! policy pinned here as the `seqd` binary pins it, the first must cover the
//! second: glibc adds a chunk header and rounding to every block and holds
//! the C runtime's own few allocations besides. This binary installs
//! `testkit::alloc::CountingAlloc` as the global allocator and must
//! therefore contain exactly one `#[test]`: the counters are process-wide.

use jsonlite::Value;
use patterndb::PatternStore;
use seqd::loadgen;
use seqd::server::{start, SeqdConfig};
use sequence_rtg::LogRecord;
use std::time::Duration;
use testkit::alloc;

#[global_allocator]
static ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;

/// How far the counted live bytes may run ahead of the allocator's figure:
/// blocks freed between the count and the `mallinfo2()` call of the
/// request (the control thread's own request and response buffers).
const SLACK: f64 = (256 << 10) as f64;

#[test]
fn heap_in_use_covers_what_the_program_holds() {
    assert!(
        seqd::memory::pin_allocator_policy(),
        "glibc pins the policy"
    );
    let handle = start(
        PatternStore::in_memory(),
        SeqdConfig {
            shards: 2,
            miners: 1,
            ..SeqdConfig::default()
        },
        "127.0.0.1:0",
    )
    .unwrap();
    let addr = handle.addr();
    let records: Vec<LogRecord> = loghub_synth::generate_stream(loghub_synth::CorpusConfig {
        services: 24,
        total: 30_000,
        seed: 4_701,
    })
    .into_iter()
    .map(|item| LogRecord::new(item.service, item.message))
    .collect();
    // In chunks, each processed before the next: no record is refused by
    // backpressure, however slow the build.
    let mut sent = 0;
    for chunk in records.chunks(2_000) {
        let receipt = loadgen::replay_records(addr, chunk).unwrap();
        assert_eq!(receipt.accepted, chunk.len() as u64, "{receipt:?}");
        sent += chunk.len() as u64;
        loadgen::wait_until_processed(addr, sent, Duration::from_secs(60)).unwrap();
    }

    // Read the count just before and just after the request, so whatever
    // the daemon's threads do meanwhile is bracketed.
    let before = alloc::live_bytes() as f64;
    let body = loadgen::control_get(addr, "/debug/memory").unwrap();
    let after = alloc::live_bytes() as f64;
    let memory = jsonlite::parse(&body).unwrap();
    let field = |k: &str| memory.get(k).and_then(Value::as_f64).unwrap();
    let in_use = field("heap_in_use_bytes");
    let live = before.min(after);
    assert!(
        in_use + SLACK >= live,
        "heap in use {in_use} below the counted live bytes {live} (less {SLACK}): {body}"
    );
    // And not far above it: the chunk overhead of a heap of small blocks,
    // not a second heap.
    assert!(
        in_use <= 1.5 * before.max(after) + (1 << 20) as f64,
        "heap in use {in_use} against {live} counted live: {body}"
    );
    assert_eq!(
        memory.get("mmap_threshold_bytes").and_then(Value::as_f64),
        Some(seqd::memory::MMAP_THRESHOLD as f64)
    );

    handle.initiate_shutdown();
    assert!(handle.join().unwrap().reconciles());
}
