//! What the ingest WAL costs to hold per acked-but-unreleased record —
//! counted at the allocator.
//!
//! The log file is the pending set; in memory a shard keeps one eight-byte
//! extent per append, not per line. A daemon whose stream never pauses
//! must not grow by a copy of every line it has acknowledged, nor by an
//! index entry for each. This binary installs
//! `testkit::alloc::CountingAlloc` as the global allocator and must
//! therefore contain exactly one `#[test]`: the counters are process-wide.

use seqd::queue::BoundedQueue;
use seqd::wal::{Accepted, IngestWal};
use sequence_rtg::LogRecord;
use std::time::Duration;
use testkit::alloc;

#[global_allocator]
static ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;

const RECORDS: usize = 200_000;
const BATCH: usize = 500;

/// Append `n` records in batches, draining the queue as a worker would so
/// that only the WAL's own state stays live. Returns the last sequence.
fn append(wal: &IngestWal, queue: &BoundedQueue<Accepted>, n: usize) -> u64 {
    let mut last = 0;
    for batch in 0..n / BATCH {
        let records: Vec<LogRecord> = (0..BATCH)
            .map(|i| {
                LogRecord::new(
                    "sshd",
                    format!(
                        "Accepted password for user{} from 10.0.0.7 port 51022 ssh2",
                        batch * BATCH + i
                    ),
                )
            })
            .collect();
        assert_eq!(
            wal.append_route_batch(0, records, queue, Duration::ZERO),
            BATCH
        );
        let popped = queue.pop_batch(BATCH, Duration::ZERO).unwrap();
        last = popped.last().expect("a full batch").seq;
    }
    last
}

#[test]
fn pending_records_cost_an_extent_per_append_and_release_gives_it_back() {
    let dir = std::env::temp_dir().join(format!("seqd-wal-memory-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (wal, _) = IngestWal::open(&dir, 1, 4096).unwrap();
    let queue = BoundedQueue::new(BATCH);
    // Lazy statics (stage histograms, thread-locals) and the reused
    // serialisation buffer come to life outside the measured window.
    let warm = append(&wal, &queue, BATCH);
    wal.sync().unwrap();
    wal.release(0, warm).unwrap();
    let baseline = alloc::live_bytes();

    let last = append(&wal, &queue, RECORDS);
    assert_eq!(wal.depths(), vec![RECORDS]);
    let held = alloc::live_bytes() - baseline;
    let per_record = held as f64 / RECORDS as f64;
    let (_, log_bytes) = wal.pending()[0];
    eprintln!(
        "{RECORDS} pending records, {} B/record in the log: {per_record:.2} B/record live",
        log_bytes / RECORDS as u64
    );
    assert!(
        per_record <= 0.5,
        "{per_record:.2} B of heap per pending record, more than one extent per append"
    );

    // Everything released: the file is empty and the index gives its
    // memory back rather than keeping the high-water mark.
    wal.release(0, last).unwrap();
    assert_eq!(wal.pending(), vec![(0, 0)]);
    assert_eq!(std::fs::metadata(dir.join("shard-0.wal")).unwrap().len(), 0);
    let after = alloc::live_bytes() - baseline;
    assert!(
        after.abs() <= 4 * 1024,
        "{after} B from the baseline after releasing everything"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}
