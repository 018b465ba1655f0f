//! What an open pattern-store transaction costs to hold — counted at the
//! allocator, on a store the size a busy daemon reaches.
//!
//! `seqd`'s miner opens two transactions per job and a batch touches a few
//! hundred patterns of tens of thousands, so a transaction must cost what it
//! touches, not a copy of the store. This binary installs
//! `testkit::alloc::CountingAlloc` as the global allocator and must
//! therefore contain exactly one `#[test]`: the counters are process-wide.

use patterndb::PatternStore;
use sequence_core::analyzer::DiscoveredPattern;
use sequence_core::Pattern;
use testkit::alloc;

#[global_allocator]
static ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;

const PATTERNS: usize = 20_000;
const TOUCHED: usize = 100;

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

/// One mining batch inside an open transaction: `TOUCHED` patterns never
/// seen before (numbered from `first_new`) and `TOUCHED` known ones matched
/// again. Returns the live bytes held while the transaction is open.
fn open_batch(store: &mut PatternStore, ids: &[String], first_new: usize) -> i64 {
    store.begin().unwrap();
    for i in first_new..first_new + TOUCHED {
        assert!(store.upsert_discovered("svc", &discovered(i), 2).unwrap().1);
    }
    for id in ids.iter().step_by(PATTERNS / TOUCHED) {
        store.record_matches(id, 5, 2).unwrap();
    }
    alloc::live_bytes()
}

#[test]
fn a_transaction_holds_what_it_touches_and_gives_it_back() {
    // Lazy statics (the transaction histogram, thread-locals) come to life
    // outside the measured window.
    let mut warm = PatternStore::in_memory();
    warm.begin().unwrap();
    warm.upsert_discovered("svc", &discovered(0), 1).unwrap();
    warm.commit().unwrap();
    drop(warm);

    let empty = alloc::live_bytes();
    let mut store = PatternStore::in_memory();
    let ids: Vec<String> = (0..PATTERNS)
        .map(|i| store.upsert_discovered("svc", &discovered(i), 1).unwrap().0)
        .collect();
    // The store alone: this test's own list of ids is not part of it.
    let id_list =
        ids.capacity() * size_of::<String>() + ids.iter().map(String::capacity).sum::<usize>();
    let store_bytes = alloc::live_bytes() - empty - id_list as i64;
    let per_pattern = store_bytes / PATTERNS as i64;
    eprintln!(
        "store: {per_pattern} B per pattern (bound 450; 553 with a 9-cell array per row), \
         and {} B per pattern of listed ids",
        id_list / PATTERNS
    );
    assert!(per_pattern <= 450, "{per_pattern} B per pattern");
    let original = store.patterns(None).unwrap();
    assert_eq!(original.len(), PATTERNS);
    assert!(original.iter().all(|p| p.examples.len() == 3));
    let baseline = alloc::live_bytes();
    let share = |bytes: i64| bytes as f64 / store_bytes as f64;

    // Rolled back: everything the transaction held is given back (grown
    // `Vec`/`HashMap` capacity may stay) and no row shows it ever ran.
    let inside = open_batch(&mut store, &ids, PATTERNS) - baseline;
    store.rollback().unwrap();
    let after_rollback = alloc::live_bytes() - baseline;
    eprintln!(
        "store of {PATTERNS} patterns: {store_bytes} B; open transaction +{inside} B \
         ({:.2} %), after rollback {after_rollback:+} B",
        100.0 * share(inside)
    );
    assert!(
        share(inside) < 0.05,
        "an open transaction holds {:.1} % of the store",
        100.0 * share(inside)
    );
    assert!(
        share(after_rollback).abs() < 0.01,
        "{after_rollback} B from the baseline after rollback"
    );
    assert_eq!(store.pattern_count().unwrap(), PATTERNS as u64);
    assert!(store.patterns(None).unwrap() == original);

    // Committed: the same transaction costs the same while open, and leaves
    // the new rows behind and nothing else.
    let baseline = alloc::live_bytes();
    let inside = open_batch(&mut store, &ids, PATTERNS) - baseline;
    store.commit().unwrap();
    let after_commit = alloc::live_bytes() - baseline;
    eprintln!("committed: open +{inside} B, after commit {after_commit:+} B");
    assert!(share(inside) < 0.05);
    let new_rows = TOUCHED as f64 / PATTERNS as f64;
    assert!(
        after_commit > 0 && share(after_commit) < 2.0 * new_rows,
        "{after_commit} B kept after commit; {TOUCHED} new rows are {:.0} B",
        new_rows * store_bytes as f64
    );
    assert_eq!(store.pattern_count().unwrap(), (PATTERNS + TOUCHED) as u64);
}
