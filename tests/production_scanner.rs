//! What the production scanner (`ScannerOptions::default()`: the path FSM
//! and single-digit time parts on) does to mining at LogHub-2.0 scale.
//!
//! With the published scanner a filesystem path scans as a literal word, so
//! HDFS's `BLOCK* NameSystem.allocateBlock: <path> <blk>` has two adjacent
//! literal slots that the sibling merge never folds, and every distinct
//! path becomes a pattern of its own. The first test pins the patterns per
//! observed template on four families; the second pins what happens to a
//! store an earlier, paper-scanner binary mined: its path-position patterns
//! no longer match, and their lines are re-mined once.

use loghub_synth::loghub2;
use sequence_rtg_repro::patterndb::PatternStore;
use sequence_rtg_repro::sequence_core::ScannerOptions;
use sequence_rtg_repro::sequence_rtg::{LogRecord, RtgConfig, SequenceRtg};
use std::collections::HashSet;

const SEED: u64 = 20210906;
const LINES: usize = 20_000;

/// One `analyze_by_service` batch of `lines` labelled lines, with the
/// number of distinct templates among them.
fn batch(service: &str, lines: &[loghub_synth::LabeledLine]) -> (Vec<LogRecord>, usize) {
    let records = lines
        .iter()
        .map(|l| LogRecord::new(service, l.raw.as_str()))
        .collect();
    let templates: HashSet<&str> = lines.iter().map(|l| l.event.as_str()).collect();
    (records, templates.len())
}

#[test]
fn each_observed_template_is_about_one_stored_pattern() {
    let (mut patterns, mut templates) = (0u64, 0usize);
    for family in ["HDFS", "Zookeeper", "OpenSSH", "Apache"] {
        let lines: Vec<_> = loghub2::stream(family, LINES, SEED).collect();
        let (records, observed) = batch(family, &lines);
        let mut rtg = SequenceRtg::in_memory(RtgConfig::default());
        rtg.analyze_by_service(&records, 0).expect("analysis");
        let stored = rtg.store_mut().pattern_count().expect("count");
        eprintln!("{family}: {stored} patterns for {observed} templates");
        if family == "HDFS" {
            assert!(
                stored as f64 <= 1.5 * observed as f64,
                "HDFS fragments: {stored} patterns for {observed} templates"
            );
        }
        patterns += stored;
        templates += observed;
    }
    eprintln!("all four: {patterns} patterns for {templates} templates");
    assert!(
        patterns as f64 <= 1.5 * templates as f64,
        "{patterns} patterns for {templates} templates"
    );
}

#[test]
fn a_store_mined_by_the_paper_scanner_is_re_mined_once() {
    let dir = std::env::temp_dir().join(format!("rtg-scanner-upgrade-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let lines: Vec<_> = loghub2::stream("HDFS", 3 * LINES, SEED).collect();
    let mut days = lines.chunks(LINES).map(|day| batch("hdfs", day));

    let (first, _) = days.next().unwrap();
    {
        let paper = RtgConfig {
            scanner: ScannerOptions::paper(),
            ..RtgConfig::default()
        };
        let store = PatternStore::open(&dir).expect("open store");
        let mut rtg = SequenceRtg::new(store, paper).expect("load store");
        rtg.analyze_by_service(&first, 0)
            .expect("mine with the paper scanner");
        rtg.store_mut().checkpoint().expect("checkpoint");
    }

    let store = PatternStore::open(&dir).expect("reopen store");
    let mut rtg = SequenceRtg::new(store, RtgConfig::default()).expect("load old patterns");
    let (second, observed) = days.next().unwrap();
    let r = rtg.analyze_by_service(&second, 1).expect("upgrade batch");
    eprintln!(
        "upgrade batch: {} matched, {} re-mined, {} new patterns for {observed} templates",
        r.matched_known, r.analyzed, r.new_patterns
    );
    assert_eq!(r.matched_known + r.analyzed, LINES as u64);
    assert!(
        r.new_patterns as f64 <= 2.0 * observed as f64,
        "{} new patterns for {observed} templates",
        r.new_patterns
    );

    let (third, _) = days.next().unwrap();
    let r = rtg.analyze_by_service(&third, 2).expect("steady batch");
    eprintln!("next batch: {} of {LINES} matched", r.matched_known);
    assert!(
        r.matched_known as f64 >= 0.99 * LINES as f64,
        "only {} of {LINES} matched after the upgrade",
        r.matched_known
    );
    drop(rtg);
    std::fs::remove_dir_all(&dir).unwrap();
}
