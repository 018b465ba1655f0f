//! The examples log and the database commit as one: whatever point of the
//! two-file commit a crash or a failure lands on, a reopened store returns
//! every committed pattern's examples byte for byte and holds no byte of the
//! log that no committed row points at.

use patterndb::{pattern_id, PatternStore, StoreError};
use sequence_core::analyzer::DiscoveredPattern;
use sequence_core::Pattern;
use std::collections::BTreeMap;
use std::fs;
use std::panic::{self, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use testkit::prop::{self, Config};
use testkit::prop_assert_eq;
use testkit::rng::Rng;

fn tmpdir(tag: &str) -> PathBuf {
    static CASE: AtomicUsize = AtomicUsize::new(0);
    let n = CASE.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("patterndb-{tag}-{}-{n}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn discovered(text: &str, examples: &[String], match_count: u64) -> DiscoveredPattern {
    DiscoveredPattern {
        pattern: Pattern::parse(text).unwrap(),
        match_count,
        examples: examples.to_vec(),
        member_indices: Vec::new(),
    }
}

/// The pattern `worker <k> …` with three examples of its own.
fn worker(k: usize) -> DiscoveredPattern {
    let examples: Vec<String> = (0..3)
        .map(|j| format!("worker {k} done: job {j}\n  on nodé{j}"))
        .collect();
    discovered(&format!("worker {k} done: %string%"), &examples, 2)
}

/// The one examples log file in `dir` and its length.
fn log_len(dir: &Path) -> u64 {
    let logs: Vec<_> = fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .filter(|name| name.starts_with("examples.") && name.ends_with(".log"))
        .collect();
    assert_eq!(logs.len(), 1, "one generation at a time: {logs:?}");
    fs::metadata(dir.join(&logs[0])).unwrap().len()
}

/// Bytes the rows point at, and Σ `cnt`.
fn live_and_count(store: &mut PatternStore) -> (u64, i64) {
    let rows = store
        .db()
        .query("SELECT SUM(examples_len), SUM(cnt) FROM patterns")
        .unwrap();
    let int = |i: usize| rows[0][i].as_integer().unwrap_or(0);
    (int(0) as u64, int(1))
}

/// Each write between the log's append and the WAL's `COMMIT`, inside a
/// transaction and outside one.
const CRASH_POINTS: [(&str, bool); 4] = [
    ("examples_append", true),
    ("examples_sync", true),
    ("commit", true),
    ("examples_sync", false),
];

/// A panicking fault hook stops the store mid-commit and drops it without
/// a rollback, as a crash would leave the files: the reopened store has
/// every committed row with its examples, no uncommitted log byte, and the
/// same Σ `cnt`.
#[test]
fn a_crash_inside_the_two_file_commit_loses_and_keeps_nothing_it_should_not() {
    for (point, in_txn) in CRASH_POINTS {
        let dir = tmpdir("crash");
        let mut store = PatternStore::open(&dir).unwrap();
        let ids: Vec<String> = (0..4)
            .map(|k| store.upsert_discovered("svc", &worker(k), 1).unwrap().0)
            .collect();
        let committed = store.patterns(None).unwrap();
        let (live, count) = live_and_count(&mut store);
        store.set_fault_hook(Some(Arc::new(move |op: &str| {
            assert!(op != point, "crash at {point}");
            false
        })));
        let crashed = panic::catch_unwind(AssertUnwindSafe(move || {
            if in_txn {
                store.begin().unwrap();
                store.record_matches(&ids[0], 40, 2).unwrap();
                store.upsert_discovered("svc", &worker(7), 2).unwrap();
                store.upsert_discovered("svc", &worker(8), 2).unwrap();
                store.commit().unwrap();
            } else {
                store.upsert_discovered("svc", &worker(7), 2).unwrap();
            }
        }));
        assert!(crashed.is_err(), "{point}: the hook fired");
        if point != "examples_append" {
            assert!(log_len(&dir) > live, "{point}: the crash left a tail");
        }
        let mut store = PatternStore::open(&dir).unwrap();
        assert_eq!(store.patterns(None).unwrap(), committed, "{point}");
        assert_eq!(live_and_count(&mut store), (live, count), "{point}");
        assert_eq!(log_len(&dir), live, "{point}: the tail is cut");
        // What is written next lands where the tail was, and survives.
        store.upsert_discovered("svc", &worker(9), 3).unwrap();
        let after = store.patterns(None).unwrap();
        drop(store);
        assert_eq!(
            PatternStore::open(&dir).unwrap().patterns(None).unwrap(),
            after
        );
        fs::remove_dir_all(&dir).unwrap();
    }
}

/// A hook that fails an operation instead: the commit rolls back, the log
/// is cut back to its length at `BEGIN` at once, and a retry commits.
#[test]
fn a_failed_commit_cuts_the_log_back_and_a_retry_commits() {
    for (point, in_txn) in CRASH_POINTS {
        let dir = tmpdir("fail");
        let mut store = PatternStore::open(&dir).unwrap();
        store.upsert_discovered("svc", &worker(0), 1).unwrap();
        let committed = store.patterns(None).unwrap();
        let before = log_len(&dir);
        store.set_fault_hook(Some(Arc::new(move |op: &str| op == point)));
        let attempt = |store: &mut PatternStore| -> Result<(), StoreError> {
            if in_txn {
                store.begin()?;
                store.upsert_discovered("svc", &worker(5), 2)?;
                store.commit()
            } else {
                store.upsert_discovered("svc", &worker(5), 2).map(drop)
            }
        };
        match attempt(&mut store) {
            Err(StoreError::Injected(op)) => assert_eq!(op, point),
            other => panic!("{point}: {other:?}"),
        }
        if in_txn && point == "examples_append" {
            store.rollback().unwrap();
        }
        assert_eq!(log_len(&dir), before, "{point}");
        assert_eq!(store.patterns(None).unwrap(), committed, "{point}");
        store.set_fault_hook(None);
        attempt(&mut store).unwrap();
        let after = store.patterns(None).unwrap();
        assert_eq!(after.len(), 2);
        drop(store);
        assert_eq!(
            PatternStore::open(&dir).unwrap().patterns(None).unwrap(),
            after
        );
        fs::remove_dir_all(&dir).unwrap();
    }
}

/// A checkpoint that finds more orphaned bytes than live ones copies the
/// live bodies into the next generation. A crash before that switch
/// commits keeps the old generation; one after it keeps the new; either way
/// the other file is gone on the next open.
#[test]
fn a_checkpoint_rewrites_a_mostly_orphaned_log_into_the_next_generation() {
    for crash in [None, Some("begin"), Some("commit")] {
        let dir = tmpdir("rewrite");
        let mut store = PatternStore::open(&dir).unwrap();
        let ids: Vec<String> = (0..4)
            .map(|k| store.upsert_discovered("svc", &worker(k), 1).unwrap().0)
            .collect();
        for id in &ids[1..] {
            store.discard(id).unwrap();
        }
        let kept = store.patterns(None).unwrap();
        let (live, _) = live_and_count(&mut store);
        assert!(log_len(&dir) > 2 * live);
        let generation = match crash {
            None => {
                store.checkpoint().unwrap();
                assert!(!dir.join("examples.0.log").exists());
                drop(store);
                1
            }
            Some(point) => {
                store.set_fault_hook(Some(Arc::new(move |op: &str| {
                    assert!(op != point, "crash at {point}");
                    false
                })));
                let crashed = panic::catch_unwind(AssertUnwindSafe(move || {
                    store.checkpoint().unwrap();
                }));
                assert!(crashed.is_err());
                assert!(dir.join("examples.1.log").exists(), "{point}: copied");
                0
            }
        };
        let mut store = PatternStore::open(&dir).unwrap();
        assert_eq!(store.patterns(None).unwrap(), kept, "{crash:?}");
        let name = format!("examples.{generation}.log");
        assert_eq!(log_len(&dir), fs::metadata(dir.join(name)).unwrap().len());
        if crash.is_none() {
            assert_eq!(log_len(&dir), live, "only live bodies are copied");
        }
        fs::remove_dir_all(&dir).unwrap();
    }
}

/// The next generation's directory entry is synced before the `COMMIT`
/// that names it. A failure injected at that sync fails the checkpoint
/// before the switch: the store still names generation 0, `wal.sql` is not
/// truncated, and a reopen returns every committed row and example.
#[test]
fn a_failed_directory_sync_keeps_the_old_generation_and_the_wal() {
    use patterndb::log::{inject, Fault};
    let dir = tmpdir("dir-sync");
    let mut store = PatternStore::open(&dir).unwrap();
    let ids: Vec<String> = (0..4)
        .map(|k| store.upsert_discovered("svc", &worker(k), 1).unwrap().0)
        .collect();
    for id in &ids[1..] {
        store.discard(id).unwrap();
    }
    let kept = store.patterns(None).unwrap();
    let wal = fs::read(dir.join("wal.sql")).unwrap();
    let generation = |store: &mut PatternStore| {
        let rows = store.db().query("SELECT generation FROM examples_log");
        rows.unwrap()[0][0].as_integer()
    };
    inject(Some(Fault::DirSync));
    assert!(matches!(store.checkpoint(), Err(StoreError::Examples(_))));
    assert_eq!(fs::read(dir.join("wal.sql")).unwrap(), wal);
    assert_eq!(generation(&mut store), Some(0));
    assert_eq!(store.patterns(None).unwrap(), kept);
    drop(store);
    let mut store = PatternStore::open(&dir).unwrap();
    assert_eq!(store.patterns(None).unwrap(), kept);
    assert!(!dir.join("examples.1.log").exists(), "open removes it");
    store.checkpoint().unwrap();
    assert_eq!(fs::metadata(dir.join("wal.sql")).unwrap().len(), 0);
    drop(store);
    assert_eq!(
        PatternStore::open(&dir).unwrap().patterns(None).unwrap(),
        kept
    );
    fs::remove_dir_all(&dir).unwrap();
}

/// One step inside a transaction.
#[derive(Clone, Debug)]
enum Step {
    Insert(usize),
    Match(usize, u64),
    Discard(usize),
}

#[derive(Clone, Debug)]
enum Op {
    /// An upsert outside a transaction.
    Insert(usize),
    Txn {
        steps: Vec<Step>,
        commit: bool,
    },
    Discard(usize),
    Checkpoint,
    Reopen,
}

/// A pool of patterns, each with its own examples (any characters, up to
/// four offered, three kept), and a sequence of operations over them.
#[derive(Clone, Debug)]
struct Case {
    pool: Vec<Vec<String>>,
    ops: Vec<Op>,
}

fn body(rng: &mut Rng) -> String {
    const CHARS: [char; 8] = ['a', 'é', ':', '\n', '9', ' ', '\'', '字'];
    (0..rng.gen_range(0..12usize))
        .map(|_| CHARS[rng.gen_range(0..CHARS.len())])
        .collect()
}

fn case(rng: &mut Rng) -> Case {
    let pool: Vec<Vec<String>> = (0..rng.gen_range(2..10usize))
        .map(|_| (0..rng.gen_range(0..5usize)).map(|_| body(rng)).collect())
        .collect();
    let k = |rng: &mut Rng| rng.gen_range(0..pool.len());
    let ops = (0..rng.gen_range(1..24usize))
        .map(|_| match rng.gen_range(0..10u32) {
            0..=2 => Op::Insert(k(rng)),
            3..=5 => Op::Txn {
                steps: (0..rng.gen_range(0..6usize))
                    .map(|_| match rng.gen_range(0..3u32) {
                        0 => Step::Insert(k(rng)),
                        1 => Step::Match(k(rng), rng.gen_range(1..9u64)),
                        _ => Step::Discard(k(rng)),
                    })
                    .collect(),
                commit: rng.gen_bool(0.6),
            },
            6 | 7 => Op::Discard(k(rng)),
            8 => Op::Checkpoint,
            _ => Op::Reopen,
        })
        .collect();
    Case { pool, ops }
}

/// What a store that kept examples in memory would hold: id → (Σ `cnt`,
/// examples).
type Model = BTreeMap<String, (u64, Vec<String>)>;

fn text(k: usize) -> String {
    format!("pooled {k} %string%")
}

fn model_insert(model: &mut Model, pool: &[Vec<String>], k: usize) {
    let count = 1 + k as u64 % 3;
    let entry = model
        .entry(pattern_id(&text(k), "svc"))
        .or_insert_with(|| (0, pool[k].iter().take(3).cloned().collect()));
    entry.0 += count;
}

fn store_insert(store: &mut PatternStore, pool: &[Vec<String>], k: usize) {
    let d = discovered(&text(k), &pool[k], 1 + k as u64 % 3);
    store.upsert_discovered("svc", &d, 1).unwrap();
}

fn held(store: &mut PatternStore) -> Model {
    store
        .patterns(None)
        .unwrap()
        .into_iter()
        .map(|p| (p.id, (p.count, p.examples)))
        .collect()
}

#[test]
fn any_mix_of_writes_reads_back_like_examples_kept_in_memory() {
    prop::check(&Config::cases(48), &prop::from_fn(case), |case| {
        let dir = tmpdir("prop");
        let pool = &case.pool;
        let mut store = PatternStore::open(&dir).unwrap();
        let mut model = Model::new();
        let id = |k: usize| pattern_id(&text(k), "svc");
        for op in &case.ops {
            match op {
                Op::Insert(k) => {
                    store_insert(&mut store, pool, *k);
                    model_insert(&mut model, pool, *k);
                }
                Op::Txn { steps, commit } => {
                    let mut inside = model.clone();
                    store.begin().unwrap();
                    for step in steps {
                        match step {
                            Step::Insert(k) => {
                                store_insert(&mut store, pool, *k);
                                model_insert(&mut inside, pool, *k);
                            }
                            Step::Match(k, n) => {
                                store.record_matches(&id(*k), *n, 2).unwrap();
                                if let Some(entry) = inside.get_mut(&id(*k)) {
                                    entry.0 += n;
                                }
                            }
                            Step::Discard(k) => {
                                store.discard(&id(*k)).unwrap();
                                inside.remove(&id(*k));
                            }
                        }
                    }
                    if *commit {
                        store.commit().unwrap();
                        model = inside;
                    } else {
                        store.rollback().unwrap();
                    }
                }
                Op::Discard(k) => {
                    store.discard(&id(*k)).unwrap();
                    model.remove(&id(*k));
                }
                Op::Checkpoint => {
                    store.checkpoint().unwrap();
                    let (live, _) = live_and_count(&mut store);
                    let orphaned = log_len(&dir) - live;
                    testkit::prop_assert!(
                        orphaned <= live,
                        "after a checkpoint {orphaned} orphaned bytes, {live} live"
                    );
                }
                Op::Reopen => {
                    drop(store);
                    store = PatternStore::open(&dir).unwrap();
                }
            }
            prop_assert_eq!(&held(&mut store), &model, "after {op:?}");
        }
        drop(store);
        let mut reopened = PatternStore::open(&dir).unwrap();
        prop_assert_eq!(&held(&mut reopened), &model, "reopened");
        fs::remove_dir_all(&dir).unwrap();
        Ok(())
    });
}
