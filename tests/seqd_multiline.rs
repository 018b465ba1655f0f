//! Paper limitation #6 (multi-line messages) through the *daemon*, not just
//! the batch pipeline: a JSON-escaped `\n` survives the NDJSON wire intact,
//! mining truncates at the first newline and appends the ignore-rest
//! `%...%` tail, and the daemon ends up byte-identical to the offline
//! pipeline — pinned by a golden snapshot.
//!
//! The wire detail under test: `LogRecord::to_json_line` escapes embedded
//! newlines, so a multi-line message is *one* NDJSON line on the socket and
//! one WAL line on disk; nothing in the daemon path may split it.
//!
//! Regenerating after an intentional behaviour change:
//!
//! ```text
//! TESTKIT_REGEN_GOLDEN=1 cargo test --test seqd_multiline
//! git diff tests/golden/   # review, then commit
//! ```

use sequence_rtg_repro::jsonlite;
use sequence_rtg_repro::patterndb::PatternStore;
use sequence_rtg_repro::seqd::loadgen;
use sequence_rtg_repro::seqd::server::{start, SeqdConfig};
use sequence_rtg_repro::sequence_rtg::{LogRecord, RtgConfig, SequenceRtg};
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::time::{Duration, Instant};

fn corpus() -> Vec<LogRecord> {
    let mut records = Vec::new();
    // Multi-line exceptions: shared first line shape, per-record stacks.
    for (thread, stack) in [
        (
            "main",
            "  at Foo.bar(Foo.java:10)\n  at Main.main(Main.java:3)",
        ),
        ("worker", "  at Baz.qux(Baz.java:77)"),
        ("scheduler", "no stack available"),
    ] {
        records.push(LogRecord::new(
            "app",
            format!("Exception in thread {thread}\n{stack}"),
        ));
    }
    // Single-line control group on the same service.
    for user in ["alice", "bob", "carol"] {
        records.push(LogRecord::new(
            "app",
            format!("session opened for user {user}"),
        ));
    }
    records
}

/// Poll `/stats` until the daemon has completed `n` re-mining runs.
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

fn triples(engine: &mut SequenceRtg) -> BTreeSet<(String, String, u64)> {
    engine
        .store_mut()
        .patterns(None)
        .expect("patterns")
        .into_iter()
        .map(|p| (p.service, p.pattern_text, p.count))
        .collect()
}

fn render(triples: &BTreeSet<(String, String, u64)>) -> String {
    let mut out = String::from(
        "# golden snapshot: multi-line records through the seqd daemon\n\
         # regen: TESTKIT_REGEN_GOLDEN=1 cargo test --test seqd_multiline\n",
    );
    for (service, pattern, count) in triples {
        out.push_str(&format!("{count}\t{service}\t{pattern}\n"));
    }
    out
}

#[test]
fn multiline_records_mine_identically_through_the_daemon() {
    let corpus = corpus();
    let batch = corpus.len();
    let dir = std::env::temp_dir().join(format!("seqd-multiline-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let config = SeqdConfig {
        shards: 1, // determinism: one worker, one flush order
        rtg: RtgConfig {
            batch_size: batch,
            ..SeqdConfig::default().rtg
        },
        ..SeqdConfig::default()
    };
    let store = PatternStore::open(&dir).expect("open store");
    let handle = start(store, config.clone(), "127.0.0.1:0").expect("start");
    let addr = handle.addr();

    // Wave 1: every record novel; the batch-size-th record triggers the
    // re-mine. The receipt proves each multi-line message stayed ONE line.
    let receipt = loadgen::replay_records(addr, &corpus).expect("replay");
    assert_eq!(receipt.received, batch as u64, "{receipt:?}");
    assert_eq!(receipt.accepted, batch as u64, "{receipt:?}");
    assert_eq!(receipt.malformed, 0);
    wait_for_remines(addr, 1, Duration::from_secs(60));

    // Wave 2: a fresh multi-line exception with an unseen tail must match
    // the published ignore-rest pattern — truncation worked end to end.
    let followup = LogRecord::new("app", "Exception in thread reaper\nunique tail 12345");
    let receipt = loadgen::replay_records(addr, std::slice::from_ref(&followup)).expect("wave 2");
    assert_eq!(receipt.accepted, 1);
    loadgen::wait_until_processed(addr, (batch + 1) as u64, Duration::from_secs(60))
        .expect("drain");

    loadgen::control_post(addr, "/shutdown").expect("shutdown");
    let finals = handle.join().expect("join");
    assert!(finals.reconciles(), "{finals:?}");
    assert_eq!(finals.matched, 1, "the follow-up must match: {finals:?}");

    // Offline reference: same corpus, same config, same two waves.
    let mut reference = SequenceRtg::in_memory(config.rtg);
    reference.analyze_by_service(&corpus, 1).expect("reference");
    reference
        .analyze_by_service(std::slice::from_ref(&followup), 2)
        .expect("reference wave 2");
    let expected = triples(&mut reference);

    let store = PatternStore::open(&dir).expect("reopen");
    let mut recovered = SequenceRtg::new(store, config.rtg).expect("reload");
    let served = triples(&mut recovered);
    assert_eq!(served, expected, "daemon must equal the offline pipeline");

    // The exception pattern carries the ignore-rest marker.
    let exception = served
        .iter()
        .find(|(_, p, _)| p.starts_with("Exception in thread"))
        .expect("exception pattern");
    assert!(
        exception.1.ends_with("%...%"),
        "multi-line truncation must leave the ignore-rest tail: {}",
        exception.1
    );

    // Golden snapshot of the daemon-mined store.
    let actual = render(&served);
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/seqd_multiline.txt");
    if std::env::var_os("TESTKIT_REGEN_GOLDEN").is_some() {
        std::fs::write(&path, &actual).expect("write golden");
        eprintln!("regenerated {}", path.display());
    } else {
        let goldenfile = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "missing golden file {} ({e}); regenerate with \
                 TESTKIT_REGEN_GOLDEN=1 cargo test --test seqd_multiline",
                path.display()
            )
        });
        assert_eq!(
            actual, goldenfile,
            "daemon-mined patterns diverged from tests/golden/seqd_multiline.txt; if \
             intentional, regenerate with TESTKIT_REGEN_GOLDEN=1 cargo test --test seqd_multiline"
        );
    }

    std::fs::remove_dir_all(&dir).expect("cleanup");
}
