//! What a compiled [`PatternSet`] costs to hold, to clone and to drop —
//! counted at the allocator, on a set the size a busy service reaches.
//!
//! `seqd` keeps every service's set resident for the daemon's lifetime and
//! hands each to the serving plane by cloning it, so the cost per pattern
//! and the cost of a clone are what its memory grows by. This binary
//! installs `testkit::alloc::CountingAlloc` as the global allocator and must
//! therefore contain exactly one `#[test]`: the counters are process-wide.

use loghub_synth::loghub2;
use sequence_rtg_repro::sequence_core::{Analyzer, Pattern, PatternSet, Scanner};
use std::collections::HashSet;
use testkit::alloc;

#[global_allocator]
static ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;

const PATTERNS: usize = 2_000;
const PUBLISHES: usize = 100;
/// Bytes a pattern may hold: measured 461 once built and at most 476 across
/// the publishes below (doubling on every publish took 539), plus a margin.
const PER_PATTERN: f64 = 500.0;

/// Mine `n` distinct patterns from Thunderbird, the widest LogHub-2.0
/// family, batch by batch as a service's residue would be, into one set.
fn build(n: usize) -> PatternSet {
    let (scanner, analyzer) = (Scanner::new(), Analyzer::new());
    let mut lines = loghub2::stream("Thunderbird", 400_000, 20210906);
    let mut seen = HashSet::new();
    let mut set = PatternSet::new();
    while set.len() < n {
        let batch: Vec<_> = lines
            .by_ref()
            .take(2_000)
            .map(|l| scanner.scan(&l.raw))
            .collect();
        assert!(
            !batch.is_empty(),
            "stream ran dry at {} patterns",
            set.len()
        );
        for d in analyzer.analyze(&batch) {
            if set.len() < n && seen.insert(d.pattern.render()) {
                set.insert(format!("{:040x}", set.len()), d.pattern);
            }
        }
    }
    set
}

#[test]
fn a_set_is_cheap_to_hold_free_to_clone_and_gives_everything_back() {
    // Lazy statics (span registry, thread-locals) come to life outside the
    // measured window.
    drop(build(50));
    let baseline = alloc::live_bytes();

    // Mining's temporaries are gone when `build` returns: what is live
    // beyond `baseline` is what the set owns, patterns and ids included.
    let mut set = build(PATTERNS);
    let held = alloc::live_bytes() - baseline;
    let per_pattern = held as f64 / PATTERNS as f64;
    eprintln!(
        "{PATTERNS} patterns, {} index nodes: {per_pattern:.0} B/pattern live, \
         heap_bytes() says {:.0}",
        set.index_node_count(),
        set.heap_bytes() as f64 / PATTERNS as f64,
    );
    assert!(
        per_pattern <= PER_PATTERN,
        "{per_pattern:.0} B per pattern held, more than {PER_PATTERN}"
    );
    // The O(1) estimate behind `seqd_pattern_index_bytes` tracks the truth.
    let estimate = set.heap_bytes() as f64 / held as f64;
    assert!(
        (0.8..=1.2).contains(&estimate),
        "heap_bytes() is {estimate:.2} of the measured {held} bytes"
    );

    // A clone is a handle on the same allocation…
    let (snapshot, allocs) = alloc::measure(|| set.clone());
    assert_eq!(allocs, 0, "clone allocated");
    assert!(snapshot.ptr_eq(&set));
    // …and the copy an insert into a shared set makes costs no more than
    // the set — a few flat arrays, however many patterns — plus the step
    // the arrays the insert appends to grow by (the eighth allowed for here).
    let one_more = || Pattern::parse("one more %n:integer%").unwrap();
    let before = alloc::live_bytes();
    let ((), allocs) = alloc::measure(|| set.insert("one-more", one_more()));
    let copied = alloc::live_bytes() - before;
    eprintln!("copy-on-write copy: {copied} of {held} bytes in {allocs} allocations");
    assert!(!snapshot.ptr_eq(&set));
    assert_eq!((snapshot.len(), set.len()), (PATTERNS, PATTERNS + 1));
    assert!(
        copied <= held + held / 8 && allocs < 64,
        "the copy-on-write copy took {copied} of {held} bytes, {allocs} allocations"
    );
    // An insert into a handle nobody shares copies nothing.
    drop(snapshot);
    let before = alloc::live_bytes();
    set.insert("and-another", one_more());
    let grown = alloc::live_bytes() - before;
    assert!(grown < 1024, "an unshared insert allocated {grown} bytes");

    // Publish-shaped growth, as `PatternBoard::grow` does it: clone the
    // published set, insert a batch's patterns into the clone, drop the old
    // set. Each clone's arrays are exactly full, so the first insert into
    // it grows every one of them: by an eighth, not double.
    let mut published = set;
    let mut worst = 0.0f64;
    for round in 0..PUBLISHES {
        let mut next = published.clone();
        for k in 0..3 {
            let text = format!("published {round} kind {k} %n:integer%");
            next.insert(
                format!("{round:036x}{k:04x}"),
                Pattern::parse(&text).unwrap(),
            );
        }
        drop(published);
        published = next;
        let live = (alloc::live_bytes() - baseline) as f64;
        worst = worst.max(live / published.len() as f64);
    }
    eprintln!("{PUBLISHES} publishes: at most {worst:.0} B/pattern live");
    assert!(
        worst <= PER_PATTERN,
        "{worst:.0} B per pattern held after a publish, more than {PER_PATTERN}"
    );
    let set = published;

    drop(set);
    let left = alloc::live_bytes() - baseline;
    assert!(
        left.abs() < 4096,
        "{left} bytes still live after the set was dropped"
    );
}
