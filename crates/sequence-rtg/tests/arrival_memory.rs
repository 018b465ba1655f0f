//! What the CLI's two passes hold while they run — counted at the
//! allocator.
//!
//! * A batch holds its residue, not what it received: a record that matches
//!   a known pattern on arrival becomes a count and is dropped, so pushing
//!   fifty thousand matched records into an open batch grows nothing but
//!   the per-pattern counts.
//! * The residue is held as bytes: each service's unmatched messages end
//!   to end in one buffer, plus one offset a line. Both grow by doubling,
//!   so a service's residue takes a few dozen allocations however many
//!   lines it holds, not two a line.
//! * An export streams: rows are read and written one at a time, so its
//!   peak is the sort order of the rows (a few words each), not the rows.
//!
//! This binary installs `testkit::alloc::CountingAlloc` as the global
//! allocator and must therefore contain exactly one `#[test]`: the counters
//! are process-wide.

use patterndb::export::{export_patterns, ExportFormat, ExportSelection};
use patterndb::PatternStore;
use sequence_core::analyzer::DiscoveredPattern;
use sequence_core::Pattern;
use sequence_rtg::{Arrival, LogRecord, OpenBatch, Pipeline, RtgConfig, SequenceRtg};
use std::collections::HashSet;
use testkit::alloc;
use testkit::rng::Rng;

#[global_allocator]
static ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;

const BATCH: usize = 100_000;
const MATCHED: usize = 50_000;
const PATTERNS: usize = 20_000;
const RESIDUE: usize = 20_000;
/// What doubling allows one service's residue, however many lines it
/// holds: a growth of its buffer or its offsets per doubling (≈ 16 and 12
/// at 5 000 lines of ≈ 42 B), and one each for its key and map slot.
const ALLOCS_PER_SERVICE: u64 = 32;
const SERVICES: u64 = 4;
const MIB: i64 = 1 << 20;

/// A record of one of four services' event shapes, its variables drawn
/// from `rng`.
fn record(rng: &mut Rng) -> LogRecord {
    let n = |rng: &mut Rng, hi: u32| rng.gen_range(1..hi);
    match rng.gen_range(0..4u32) {
        0 => LogRecord::new(
            "sshd",
            format!(
                "Accepted password for user{} from 10.0.{}.{} port {} ssh2",
                n(rng, 500),
                n(rng, 250),
                n(rng, 250),
                n(rng, 60_000)
            ),
        ),
        1 => LogRecord::new(
            "worker",
            format!(
                "worker {} finished job {} in {} ms",
                n(rng, 64),
                n(rng, 100_000),
                n(rng, 9_000)
            ),
        ),
        2 => LogRecord::new(
            "kernel",
            format!(
                "eth0: link up at {} Mbps, {} queues",
                n(rng, 10_000),
                n(rng, 64)
            ),
        ),
        _ => LogRecord::new(
            "cron",
            format!("job {} exited with status {}", n(rng, 10_000), n(rng, 256)),
        ),
    }
}

/// Live bytes added by pushing `MATCHED` matched records into an open
/// batch of `BATCH` on a store that knows their patterns.
fn open_batch_growth() -> i64 {
    let mut rng = Rng::seed_from_u64(7);
    let mut rtg = SequenceRtg::in_memory(RtgConfig {
        batch_size: BATCH,
        ..RtgConfig::default()
    });
    let training: Vec<LogRecord> = (0..4_000).map(|_| record(&mut rng)).collect();
    rtg.analyze_by_service(&training, 1).unwrap();
    drop(training);
    let mut pipeline = Pipeline::new(rtg);
    // Every service and pattern seen once, and the scan and match buffers
    // grown, before the window opens.
    for _ in 0..1_000 {
        assert!(pipeline.push(record(&mut rng), 2).unwrap().is_none());
    }
    let before = alloc::live_bytes();
    for _ in 0..MATCHED {
        assert!(pipeline.push(record(&mut rng), 2).unwrap().is_none());
    }
    let grown = alloc::live_bytes() - before;
    let report = pipeline.flush(2).unwrap().expect("the batch holds records");
    assert_eq!(report.received, (MATCHED + 1_000) as u64);
    assert_eq!(
        report.matched_known, report.received,
        "every record matched a known pattern: {report:?}"
    );
    grown
}

/// Allocations and live bytes added by taking `RESIDUE` unmatched records
/// of four services into an open batch, and the bytes of their messages.
fn residue_cost() -> (u64, i64, i64) {
    let mut rng = Rng::seed_from_u64(11);
    let records: Vec<LogRecord> = (0..RESIDUE).map(|_| record(&mut rng)).collect();
    let message_bytes: usize = records.iter().map(|r| r.message.len()).sum();
    let services: HashSet<&str> = records.iter().map(|r| r.service.as_str()).collect();
    assert_eq!(services.len() as u64, SERVICES);
    let before = alloc::live_bytes();
    let (batch, allocs) = alloc::measure(|| {
        let mut batch = OpenBatch::default();
        for r in &records {
            batch.take(r, Arrival::Residue);
        }
        batch
    });
    let grown = alloc::live_bytes() - before;
    assert_eq!(batch.residue_len(), RESIDUE);
    let kept: usize = batch.residue().map(str::len).sum();
    assert_eq!(kept, message_bytes, "every message byte is kept once");
    drop(batch);
    assert_eq!(
        alloc::live_bytes(),
        before,
        "dropping the batch frees it all"
    );
    (allocs, grown, message_bytes as i64)
}

fn discovered(i: usize) -> DiscoveredPattern {
    let text = format!("worker {i} finished job %integer% on %string% in %integer% ms");
    DiscoveredPattern {
        pattern: Pattern::parse(&text).unwrap(),
        match_count: 3,
        examples: (0..3)
            .map(|j| format!("worker {i} finished job {j} on node{j}.example.org in {j}7 ms"))
            .collect(),
        member_indices: Vec::new(),
    }
}

/// The most live bytes each format's export of a `PATTERNS`-pattern store
/// to `io::sink()` added.
fn export_peaks() -> Vec<(ExportFormat, i64)> {
    let mut store = PatternStore::in_memory();
    for i in 0..PATTERNS {
        store
            .upsert_discovered(&format!("svc{}", i % 40), &discovered(i), 1)
            .unwrap();
    }
    [
        ExportFormat::SyslogNg,
        ExportFormat::Yaml,
        ExportFormat::Grok,
    ]
    .into_iter()
    .map(|format| {
        let before = alloc::live_bytes();
        alloc::reset_peak();
        let skipped = export_patterns(
            &mut store,
            format,
            ExportSelection::default(),
            &mut std::io::sink(),
        )
        .unwrap();
        assert!(skipped.is_empty());
        (format, alloc::peak_live_bytes() - before)
    })
    .collect()
}

#[test]
fn a_batch_holds_its_residue_and_an_export_holds_no_rows() {
    let grown = open_batch_growth();
    assert!(
        grown < MIB,
        "{MATCHED} matched records grew the open batch by {grown} B; they were \
         to become counts, not records"
    );
    // A buffer per service grows by doubling: at most twice the bytes it
    // holds, and its offsets at most twice eight bytes a line.
    let (allocs, grown, message_bytes) = residue_cost();
    eprintln!("{RESIDUE} residue lines: {allocs} allocations, {grown} B for {message_bytes} B of messages");
    assert!(
        allocs <= ALLOCS_PER_SERVICE * SERVICES,
        "{RESIDUE} residue lines of {SERVICES} services took {allocs} allocations; \
         they were to be bytes in a buffer per service, not a block each"
    );
    let bound = 2 * message_bytes + 16 * RESIDUE as i64;
    assert!(
        grown <= bound,
        "{RESIDUE} residue lines ({message_bytes} B of messages) grew the batch \
         by {grown} B, more than {bound}"
    );
    // Holding the rows, the parsed entries and the document would cost tens
    // of MB here. A streamed export holds the rows' sort order (≈ 120 B a
    // row, 2.3 MB at this size) and one row at a time.
    for (format, peak) in export_peaks() {
        assert!(
            peak < 3 * MIB,
            "a {format:?} export of {PATTERNS} patterns peaked at {peak} B above \
             its start; it was to stream them"
        );
    }
}
