//! The SQL the store writes is the SQL its database replays. Every write
//! path runs on an on-disk store, which is then reopened twice — once
//! replaying `wal.sql`, once from the `snapshot.sql` of a checkpoint — and
//! must come back exactly as it was closed, examples included. A store
//! directory written by an earlier build still opens.

use patterndb::{PatternStore, StoredPattern};
use sequence_core::analyzer::DiscoveredPattern;
use sequence_core::{Analyzer, Scanner};
use std::fs;
use std::path::{Path, PathBuf};

fn discover(msgs: &[&str]) -> Vec<DiscoveredPattern> {
    let scanner = Scanner::new();
    let scanned: Vec<_> = msgs.iter().map(|m| scanner.scan(m)).collect();
    Analyzer::new().analyze(&scanned)
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("patterndb-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// The database and every pattern with its examples.
fn contents(store: &mut PatternStore) -> (String, Vec<StoredPattern>) {
    (store.db().dump(), store.patterns(None).unwrap())
}

fn reopened(dir: &Path) -> (String, Vec<StoredPattern>) {
    contents(&mut PatternStore::open(dir).unwrap())
}

#[test]
fn every_write_path_survives_wal_replay_and_checkpoint() {
    let dir = tmpdir("replay");
    let sshd = discover(&[
        "Accepted password for root from 10.2.3.4 port 22 ssh2",
        "Accepted password for admin from 10.9.9.9 port 2200 ssh2",
        "Accepted password for o'brien from 172.16.0.5 port 22022 ssh2",
    ]);
    let once = discover(&["panic: it's over\n  at frame 1"]);
    let rare = discover(&["rare event seen exactly once"]);
    let closed = {
        let mut store = PatternStore::open(&dir).unwrap();
        let (id, new) = store.upsert_discovered("sshd", &sshd[0], 100).unwrap();
        assert!(new);
        assert!(!store.upsert_discovered("sshd", &sshd[0], 200).unwrap().1);
        let (panic_id, _) = store.upsert_discovered("app", &once[0], 100).unwrap();
        store.record_matches(&id, 5, 300).unwrap();
        store
            .record_matches_bulk(&[(id.clone(), 2), (panic_id.clone(), 9)], 400)
            .unwrap();
        store.promote(&id).unwrap();
        let (rare_id, _) = store.upsert_discovered("cron", &rare[0], 100).unwrap();
        let (doomed, _) = store
            .upsert_discovered("cron", &discover(&["a b c"])[0], 1)
            .unwrap();
        store.discard(&doomed).unwrap();

        store.begin().unwrap();
        store.record_matches(&rare_id, 1000, 500).unwrap();
        store.discard(&panic_id).unwrap();
        store.rollback().unwrap();

        store.begin().unwrap();
        store.record_matches(&panic_id, 1, 600).unwrap();
        store.upsert_discovered("cron", &rare[0], 600).unwrap();
        store.commit().unwrap();

        assert_eq!(store.prune_below_threshold(3).unwrap(), 1);
        assert_eq!(store.pattern_count().unwrap(), 2);
        contents(&mut store)
    };
    assert!(closed.1.iter().all(|p| !p.examples.is_empty()));
    assert!(
        !dir.join("snapshot.sql").exists(),
        "nothing checkpointed yet"
    );
    assert_eq!(reopened(&dir), closed, "replayed from wal.sql");

    PatternStore::open(&dir).unwrap().checkpoint().unwrap();
    assert_eq!(fs::metadata(dir.join("wal.sql")).unwrap().len(), 0);
    assert_eq!(reopened(&dir), closed, "loaded from snapshot.sql");
    fs::remove_dir_all(&dir).unwrap();
}

/// `tests/fixtures/store` was written by the engine at commit 7208539, whose
/// SQL subset was wider: a checkpointed `snapshot.sql`, then a `wal.sql`
/// holding two transaction groups and two plain frames. It keeps each
/// example as a row of an `examples` table, which the first open moves into
/// the examples log; the second open finds nothing left to do.
#[test]
fn a_store_written_by_an_earlier_build_still_opens() {
    let dir = tmpdir("fixture");
    fs::create_dir_all(&dir).unwrap();
    let fixture = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/store");
    for file in ["snapshot.sql", "wal.sql"] {
        fs::copy(fixture.join(file), dir.join(file)).unwrap();
    }
    let mut store = PatternStore::open(&dir).unwrap();
    assert_eq!(store.pattern_count().unwrap(), 3);
    let sshd = store.patterns(Some("sshd")).unwrap();
    assert_eq!(sshd.len(), 1);
    let p = &sshd[0];
    assert_eq!(p.id, "6a28422cce07991bbcbc98f209872535567543ad");
    assert_eq!(
        p.pattern_text,
        "Accepted password for %object% from %srcip:ipv4% port %port:integer% ssh2"
    );
    assert_eq!(
        (p.count, p.first_seen, p.last_matched),
        (10, 1_630_000_000, 1_630_000_100)
    );
    assert!(p.promoted);
    assert_eq!(p.examples.len(), 3);
    let app = &store.patterns(Some("app")).unwrap()[0];
    assert_eq!(app.examples[1], "panic: it's 'quoted'\n  at frame 2");

    let (sets, unloaded) = store.load_pattern_sets().unwrap();
    assert!(unloaded.is_empty());
    let mut services: Vec<_> = sets
        .iter()
        .map(|(s, set)| (s.as_str(), set.len()))
        .collect();
    services.sort();
    assert_eq!(services, [("app", 1), ("cron", 1), ("sshd", 1)]);
    let line = Scanner::new().scan("Accepted password for eve from 203.0.113.9 port 4022 ssh2");
    assert!(sets["sshd"].match_message(&line).is_some());

    let migrated = contents(&mut store);
    let log = fs::read(dir.join("examples.0.log")).unwrap();
    drop(store);
    assert_eq!(reopened(&dir), migrated, "the second open migrates nothing");
    assert_eq!(fs::read(dir.join("examples.0.log")).unwrap(), log);
    fs::remove_dir_all(&dir).unwrap();
}
