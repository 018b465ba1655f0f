//! One integration test per claim the paper makes about Sequence-RTG: the
//! six addressed limitations (§III), the documented remaining limitations
//! (§IV) — both sides must reproduce — and the shape of the evaluation
//! (Tables II and III, Fig. 5, the in-text batch statistics), stated in
//! quantities that repeat exactly at the fixed seed. `paper-tables`, `fig5`
//! and `fig7` print the numbers these tests hold.

use sequence_rtg_repro::evalharness::harness::{score_dataset, score_rtg, FamilyAccuracy};
use sequence_rtg_repro::evalharness::perf::{fig5_records, trie_node_counts};
use sequence_rtg_repro::evalharness::{Variant, DATASET_LINES, DEFAULT_SEED};
use sequence_rtg_repro::loghub_synth::{generate, Dataset, DATASET_NAMES};
use sequence_rtg_repro::sequence_core::analyzer::DiscoveredPattern;
use sequence_rtg_repro::sequence_core::{
    Analyzer, AnalyzerOptions, Pattern, PatternParseError, Scanner, ScannerOptions,
};
use sequence_rtg_repro::sequence_rtg::{LogRecord, RtgConfig, SequenceRtg, StreamIngester};
use std::io::Cursor;
use std::sync::OnceLock;

/// One Table II/III stand-in at the experiment size and seed.
fn dataset(name: &str) -> Dataset {
    generate(name, DATASET_LINES, DEFAULT_SEED)
}

/// The published analyser on the given scanner: every Table II/III claim
/// is about Sequence-RTG as published.
fn paper_config(scanner: ScannerOptions) -> RtgConfig {
    RtgConfig {
        scanner,
        analyzer: AnalyzerOptions::paper(),
        ..RtgConfig::default()
    }
}

/// Every tool scored on all 16 pre-processed datasets, in `DATASET_NAMES`
/// order — the rows `paper-tables` prints. Computed once per test binary.
fn preprocessed_rows() -> &'static [Vec<FamilyAccuracy>] {
    static ROWS: OnceLock<Vec<Vec<FamilyAccuracy>>> = OnceLock::new();
    ROWS.get_or_init(|| {
        let config = paper_config(ScannerOptions::default());
        DATASET_NAMES
            .iter()
            .map(|name| score_dataset(&dataset(name), Variant::Preprocessed, config))
            .collect()
    })
}

/// Sequence-RTG's Table II score (mapping accuracy) on one variant.
fn rtg_score(d: &Dataset, variant: Variant, scanner: ScannerOptions) -> f64 {
    let config = paper_config(scanner);
    score_rtg(d, variant, config).mapping_accuracy
}

/// Limitation 1: "Sequence expects to read from a single file from a single
/// source system" → Sequence-RTG ingests a composite JSON stream.
#[test]
fn limitation1_composite_stream_ingestion() {
    let json = concat!(
        "{\"service\":\"sshd\",\"message\":\"session opened for user root\"}\n",
        "{\"service\":\"nginx\",\"message\":\"GET /index.html 200\"}\n",
        "{\"service\":\"cron\",\"message\":\"job backup started\"}\n",
    );
    let mut ing = StreamIngester::new(Cursor::new(json.to_string()), 10);
    let batch = ing.next_batch().unwrap().unwrap();
    assert_eq!(batch.len(), 3);
    let services: Vec<&str> = batch.iter().map(|r| r.service.as_str()).collect();
    assert_eq!(services, vec!["sshd", "nginx", "cron"]);
}

/// Limitation 2: patterns persist in a database between executions instead
/// of a regenerated text file.
#[test]
fn limitation2_patterns_persist_between_executions() {
    let dir = std::env::temp_dir().join(format!("rtg-claim2-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let batch: Vec<LogRecord> = (0..5)
        .map(|i| LogRecord::new("svc", format!("tick number {i} observed")))
        .collect();
    {
        let store = sequence_rtg_repro::patterndb::PatternStore::open(&dir).unwrap();
        let mut rtg = SequenceRtg::new(store, RtgConfig::default()).unwrap();
        let r = rtg.analyze_by_service(&batch, 1).unwrap();
        assert_eq!(r.new_patterns, 1);
        rtg.store_mut().checkpoint().unwrap();
    }
    {
        // A new execution loads the stored patterns and parses immediately.
        let store = sequence_rtg_repro::patterndb::PatternStore::open(&dir).unwrap();
        let mut rtg = SequenceRtg::new(store, RtgConfig::default()).unwrap();
        let r = rtg.analyze_by_service(&batch, 2).unwrap();
        assert_eq!(r.matched_known, 5);
        assert_eq!(r.new_patterns, 0);
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Limitation 3: exact whitespace reconstruction — no spurious spaces
/// between tokens that were not separated in the original message.
#[test]
fn limitation3_exact_spacing_in_patterns() {
    let scanner = Scanner::new();
    let batch: Vec<_> = (0..3)
        .map(|i| scanner.scan(&format!("audit: pid={i}00 uid=0 res=success")))
        .collect();
    let out = Analyzer::new().analyze(&batch);
    assert_eq!(out.len(), 1);
    let rendered = out[0].pattern.render();
    // `pid=` has no space around `=`; the seminal Sequence would emit
    // `pid = % pid %`-style spacing.
    assert!(rendered.contains("pid=%pid:integer%"), "{rendered}");
    assert!(rendered.contains("uid=0"), "{rendered}");
}

/// Limitation 4: quality control demotes never-varying variables, which the
/// seminal analyser keeps.
#[test]
fn limitation4_variable_minimisation() {
    let scanner = Scanner::new();
    let batch: Vec<_> = (0..4)
        .map(|i| scanner.scan(&format!("request {i} finished with status 200 in 35 ms")))
        .collect();
    let rtg_out = Analyzer::new().analyze(&batch);
    let seminal_out = Analyzer::with_options(
        sequence_rtg_repro::sequence_core::AnalyzerOptions::seminal_sequence(),
    )
    .analyze(&batch);
    let rtg_vars = rtg_out[0].pattern.variable_count();
    let seminal_vars = seminal_out[0].pattern.variable_count();
    assert!(
        rtg_vars < seminal_vars,
        "quality control should reduce variables: {rtg_vars} vs {seminal_vars}"
    );
    // The constant status and duration are static text for RTG.
    assert!(
        rtg_out[0].pattern.render().contains("status 200"),
        "{}",
        rtg_out[0].pattern.render()
    );

    // The ablation on a whole dataset: raw OpenSSH mined with and without
    // quality control covers the same messages, and the quality-controlled
    // patterns capture fewer variables over them (10 385 vs 10 646).
    let corpus: Vec<_> = dataset("OpenSSH")
        .lines
        .iter()
        .map(|l| scanner.scan(&l.raw))
        .collect();
    let rtg = Analyzer::new().analyze(&corpus);
    let seminal = Analyzer::with_options(AnalyzerOptions::seminal_sequence()).analyze(&corpus);
    let covered = |ds: &[DiscoveredPattern]| -> u64 { ds.iter().map(|d| d.match_count).sum() };
    let captured = |ds: &[DiscoveredPattern]| -> u64 {
        ds.iter()
            .map(|d| d.pattern.variable_count() as u64 * d.match_count)
            .sum()
    };
    assert_eq!(covered(&rtg), covered(&seminal), "same coverage");
    let (v_rtg, v_seminal) = (captured(&rtg), captured(&seminal));
    assert!(
        v_rtg < v_seminal,
        "quality control captures fewer variables: {v_rtg} vs {v_seminal}"
    );
}

/// Limitation 5: service partitioning keeps per-trie workloads bounded and
/// services isolated (no cross-service patterns).
#[test]
fn limitation5_service_partitioning_isolates_services() {
    let mut batch = Vec::new();
    for svc in ["a", "b"] {
        for i in 0..5 {
            batch.push(LogRecord::new(svc, format!("shared shape value {i}")));
        }
    }
    let mut rtg = SequenceRtg::in_memory(RtgConfig::default());
    rtg.analyze_by_service(&batch, 1).unwrap();
    // Identical text, but one pattern per service with distinct ids.
    let patterns = rtg.store_mut().patterns(None).unwrap();
    assert_eq!(patterns.len(), 2);
    assert_ne!(patterns[0].id, patterns[1].id);
    assert_eq!(patterns[0].pattern_text, patterns[1].pattern_text);

    // The ablation on a composite batch: "better quality patterns compared
    // with processing them as a single group". The mixed (seminal) analysis
    // files some service's messages under another service's pattern rows
    // (47 of 48 services keep a row); partitioning keeps all 48.
    let records = fig5_records(8_000, 48, DEFAULT_SEED);
    let mut mixed = SequenceRtg::in_memory(RtgConfig::seminal());
    mixed.analyze_all(&records, 0).unwrap();
    let mut partitioned = SequenceRtg::in_memory(RtgConfig::default());
    partitioned.analyze_by_service(&records, 0).unwrap();
    let mixed_services = mixed.store_mut().service_summary().unwrap().len();
    let partitioned_services = partitioned.store_mut().service_summary().unwrap().len();
    assert!(
        mixed_services < 48,
        "mixed analysis loses service attribution: {mixed_services} of 48"
    );
    assert_eq!(partitioned_services, 48);
}

/// Limitation 6: multi-line messages are truncated at the first line break
/// and matched with an ignore-rest marker.
#[test]
fn limitation6_multiline_messages() {
    let mut rtg = SequenceRtg::in_memory(RtgConfig::default());
    let batch = vec![
        LogRecord::new(
            "app",
            "Exception in thread main\n  at Foo.bar(Foo.java:10)\n  at Main.main(Main.java:3)",
        ),
        LogRecord::new(
            "app",
            "Exception in thread worker\n  at Baz.qux(Baz.java:77)",
        ),
        LogRecord::new("app", "Exception in thread scheduler\nno stack available"),
    ];
    let r = rtg.analyze_by_service(&batch, 1).unwrap();
    assert_eq!(r.multiline, 3);
    let stored = rtg.store_mut().patterns(Some("app")).unwrap();
    assert_eq!(stored.len(), 1);
    assert!(
        stored[0].pattern_text.ends_with("%...%"),
        "{}",
        stored[0].pattern_text
    );
    // A new multi-line message with a totally different tail still matches.
    let r2 = rtg
        .analyze_by_service(
            &[LogRecord::new(
                "app",
                "Exception in thread reaper\nunique tail 12345",
            )],
            2,
        )
        .unwrap();
    assert_eq!(r2.matched_known, 1);
}

/// §IV remaining limitation: time stamps without leading zeros break the
/// published datetime FSM; the future-work fix, on in the default scanner,
/// folds them.
#[test]
fn remaining_limitation_single_digit_time_parts() {
    let default = Scanner::with_options(ScannerOptions::paper());
    let fixed = Scanner::new();
    let msg = "20171224-0:7:20:444 calculateCaloriesWithCache totalCalories=391";
    let d = default.scan(msg);
    let f = fixed.scan(msg);
    assert!(
        f.token_count() < d.token_count(),
        "fixed FSM folds the stamp into one token"
    );
    assert_eq!(
        f.tokens[0].ty,
        sequence_rtg_repro::sequence_core::TokenType::Time
    );
}

/// §IV remaining limitation: a `%` sign in static pattern text causes an
/// unknown tag error at parsing time.
#[test]
fn remaining_limitation_percent_sign_unknown_tag() {
    let err = Pattern::parse("disk at 93% full on %device%").unwrap_err();
    assert!(matches!(err, PatternParseError::UnknownTag(_)));
}

/// §IV remaining limitation: one or two examples yield word-for-word or
/// under-generalised patterns; the save threshold is the mitigation.
#[test]
fn remaining_limitation_save_threshold_for_singletons() {
    let mut rtg = SequenceRtg::in_memory(RtgConfig {
        save_threshold: 2,
        ..RtgConfig::default()
    });
    let r = rtg
        .analyze_by_service(
            &[LogRecord::new("svc", "completely singular occurrence text")],
            1,
        )
        .unwrap();
    assert_eq!(r.new_patterns, 1);
    // ... but the save threshold prunes it right away.
    assert_eq!(rtg.store_mut().pattern_count().unwrap(), 0);
}

/// Table II: raw logs score about as well as pre-processed ones, except
/// HealthApp, whose zero-less time stamps (`20171224-0:7:20:444`) the
/// published datetime FSM cannot read (0.909 → 0.580; paper 0.968 → 0.689).
#[test]
fn table2_healthapp_raw_logs_drop() {
    let d = dataset("HealthApp");
    let paper = ScannerOptions::paper();
    let pre = rtg_score(&d, Variant::Preprocessed, paper);
    let raw = rtg_score(&d, Variant::Raw, paper);
    assert!(
        raw < pre - 0.1,
        "HealthApp raw {raw} vs pre-processed {pre}"
    );
}

/// Table II: Proxifier is Sequence-RTG's weakest pre-processed dataset
/// (0.699; paper 0.643): its byte count flips between `64` and `64*`, one
/// event becoming two patterns.
#[test]
fn table2_proxifier_is_the_weakest_preprocessed_dataset() {
    let mut scores: Vec<(f64, &str)> = preprocessed_rows()
        .iter()
        .map(|rows| (rows[0].mapping_accuracy, rows[0].family))
        .collect();
    scores.sort_by(|a, b| a.0.total_cmp(&b.0));
    assert_eq!(scores[0].1, "Proxifier", "{scores:?}");
    assert!(scores[0].0 < scores[1].0, "{scores:?}");
}

/// Table II: "comparable to the state of the art" — Sequence-RTG equals or
/// beats the best of the four baselines on at least 8 of the 16 datasets,
/// the paper's count (10 here).
#[test]
fn table2_sequence_rtg_matches_the_best_baseline_on_half_the_datasets() {
    let wins: Vec<&str> = preprocessed_rows()
        .iter()
        .filter(|rows| {
            let best = rows[1..]
                .iter()
                .map(|r| r.grouping_accuracy)
                .fold(0.0f64, f64::max);
            rows[0].mapping_accuracy >= best
        })
        .map(|rows| rows[0].family)
        .collect();
    assert!(wins.len() >= 8, "only {} of 16: {wins:?}", wins.len());
}

/// Table III as a rank, not a score: "the Drain algorithm is ranked best
/// overall", and Spell has the lowest mean of the four, as in Zhu et al.
#[test]
fn table3_drain_ranks_first_and_spell_last() {
    // Summed over the same 16 datasets, so ranked exactly as the means.
    let mut sums: Vec<(f64, &str)> = ["ael", "iplom", "spell", "drain"]
        .into_iter()
        .map(|tool| {
            let cells = preprocessed_rows().iter().flatten();
            let sum = cells
                .filter(|c| c.tool == tool)
                .map(|c| c.grouping_accuracy);
            (sum.sum(), tool)
        })
        .collect();
    sums.sort_by(|a, b| a.0.total_cmp(&b.0));
    assert_eq!((sums[3].1, sums[0].1), ("drain", "spell"), "{sums:?}");
}

/// §VI future work: a datetime FSM that accepts single-digit time parts
/// (with the path FSM, the default `ScannerOptions`) recovers raw HealthApp
/// from the published scanner's score to near its pre-processed one
/// (0.580 → 0.883) and leaves Proxifier, whose failure is the type flip,
/// flat (0.699 both).
#[test]
fn future_work_scanner_recovers_healthapp_but_not_proxifier() {
    let (paper, default) = (ScannerOptions::paper(), ScannerOptions::default());
    let health = dataset("HealthApp");
    let pre = rtg_score(&health, Variant::Preprocessed, paper);
    let raw = rtg_score(&health, Variant::Raw, paper);
    let fixed = rtg_score(&health, Variant::Raw, default);
    assert!(
        fixed > raw + 0.2 && fixed > pre - 0.05,
        "HealthApp raw {raw} -> {fixed} (pre-processed {pre})"
    );
    let proxifier = dataset("Proxifier");
    let raw = rtg_score(&proxifier, Variant::Raw, paper);
    let fixed = rtg_score(&proxifier, Variant::Raw, default);
    assert!(
        (fixed - raw).abs() < 0.005,
        "Proxifier raw {raw} -> {fixed}"
    );
}

/// Fig. 5's mechanism: "the load induced by having a very large analyser
/// trie to store in memory". On the 241-service stream the one mixed trie
/// of `Analyze` has at least 5× the nodes of the largest per-service trie
/// of `AnalyzeByService` (13.6×, 12.2× and 10.8× at these sizes).
#[test]
fn fig5_mixed_trie_dwarfs_every_per_service_trie() {
    for size in [2_000, 8_000, 24_000] {
        let (mixed, max_service) = trie_node_counts(&fig5_records(size, 241, DEFAULT_SEED));
        assert!(
            mixed >= 5 * max_service,
            "{size} records: mixed {mixed} vs largest service {max_service}"
        );
    }
}

/// §IV: "this will lighten the load on Sequence-RTG over time as more
/// patterns are discovered". With the first batch's patterns stored, the
/// parse step of the second batch (fresh records, same 241 services)
/// matches at least 85 % of it (86.3 %) before any analysis.
#[test]
fn parse_first_lightens_later_batches() {
    let mut rtg = SequenceRtg::in_memory(RtgConfig::default());
    let first = rtg
        .analyze_by_service(&fig5_records(10_000, 241, DEFAULT_SEED), 0)
        .unwrap();
    assert_eq!(first.matched_known, 0, "empty database");
    let second = rtg
        .analyze_by_service(&fig5_records(10_000, 241, DEFAULT_SEED + 1), 1)
        .unwrap();
    assert!(
        second.matched_ratio() >= 0.85,
        "batch 2 matched {} of {}",
        second.matched_known,
        second.received
    );
}
