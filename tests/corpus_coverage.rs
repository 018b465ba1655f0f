//! Corpus-wide robustness: run the scanner, analyser and exporters over
//! every synthetic dataset and check structural invariants on realistic
//! content — headers with exotic timestamps, `|`-separated fields, masked
//! `<*>` markers, multi-byte text.

use sequence_rtg_repro::loghub_synth::{generate, DATASET_NAMES};
use sequence_rtg_repro::patterndb::export::{export_patterns, ExportFormat, ExportSelection};
use sequence_rtg_repro::patterndb::PatternStore;
use sequence_rtg_repro::sequence_core::{Scanner, ScannerOptions, TokenType};
use sequence_rtg_repro::sequence_rtg::{LogRecord, RtgConfig, SequenceRtg};

/// One export document, written into a `Vec<u8>`.
fn export(store: &mut PatternStore, format: ExportFormat, selection: ExportSelection) -> String {
    let mut doc = Vec::new();
    export_patterns(store, format, selection, &mut doc).unwrap();
    String::from_utf8(doc).unwrap()
}

#[test]
fn scanner_handles_every_dataset_line() {
    let scanner = Scanner::new();
    for name in DATASET_NAMES {
        let d = generate(name, 300, 77);
        for line in &d.lines {
            let t = scanner.scan(&line.raw);
            assert!(!t.tokens.is_empty(), "{name}: no tokens for {:?}", line.raw);
            // Tokens concatenate back to the (single-spaced) message text.
            let rebuilt = t.reconstruct();
            let normalised: String = line.raw.split_whitespace().collect::<Vec<_>>().join(" ");
            let rebuilt_norm: String = rebuilt.split_whitespace().collect::<Vec<_>>().join(" ");
            assert_eq!(
                rebuilt_norm, normalised,
                "{name}: token loss in {:?}",
                line.raw
            );
        }
    }
}

#[test]
fn headers_with_timestamps_scan_to_time_tokens() {
    let scanner = Scanner::new();
    // Services whose headers start with (or contain) a recognisable stamp.
    for (name, expect_rate) in [
        ("Hadoop", 0.95),
        ("Spark", 0.95),
        ("Windows", 0.95),
        ("OpenSSH", 0.95),
        ("BGL", 0.95),
    ] {
        let d = generate(name, 200, 3);
        let with_time = d
            .lines
            .iter()
            .filter(|l| {
                scanner
                    .scan(&l.raw)
                    .tokens
                    .iter()
                    .any(|t| t.ty == TokenType::Time)
            })
            .count();
        let rate = with_time as f64 / d.lines.len() as f64;
        assert!(
            rate >= expect_rate,
            "{name}: only {rate:.2} of lines have a Time token"
        );
    }
}

#[test]
fn healthapp_headers_mostly_lack_time_tokens_in_the_paper_scanner() {
    // The designed failure: most HealthApp stamps have a single-digit part
    // somewhere and the published FSM rejects them.
    let scanner = Scanner::with_options(ScannerOptions::paper());
    let d = generate("HealthApp", 300, 3);
    let with_time = d
        .lines
        .iter()
        .filter(|l| {
            scanner
                .scan(&l.raw)
                .tokens
                .iter()
                .any(|t| t.ty == TokenType::Time)
        })
        .count();
    let rate = with_time as f64 / d.lines.len() as f64;
    assert!(
        rate < 0.6,
        "most HealthApp stamps must fail the published FSM: {rate:.2}"
    );
    assert!(
        rate > 0.05,
        "but the all-two-digit minority must succeed: {rate:.2}"
    );
}

#[test]
fn syslogng_export_is_well_formed_xml_for_real_mined_patterns() {
    let d = generate("OpenSSH", 800, 5);
    let records: Vec<LogRecord> = d
        .lines
        .iter()
        .map(|l| LogRecord::new("sshd", l.raw.as_str()))
        .collect();
    let mut rtg = SequenceRtg::in_memory(RtgConfig::default());
    rtg.analyze_by_service(&records, 1).unwrap();
    let xml = export(
        rtg.store_mut(),
        ExportFormat::SyslogNg,
        ExportSelection::default(),
    );
    check_balanced_xml(&xml);
    // Raw examples contain timestamps with digits and colons; none of that
    // may leak outside escaped text.
    assert!(!xml.contains("]]>"));
}

/// A minimal XML well-formedness check: tags balance and nest properly,
/// text regions contain no bare `<`/`>`/`&`.
fn check_balanced_xml(xml: &str) {
    let mut stack: Vec<String> = Vec::new();
    let mut rest = xml;
    // Skip the declaration.
    if let Some(pos) = rest.find("?>") {
        rest = &rest[pos + 2..];
    }
    while let Some(open) = rest.find('<') {
        let text = &rest[..open];
        assert!(
            !text.contains('>'),
            "bare '>' in text near {:?}",
            &text[..text.len().min(40)]
        );
        assert!(
            !text.contains('&')
                || text.contains("&amp;")
                || text.contains("&lt;")
                || text.contains("&gt;")
                || text.contains("&apos;")
                || text.contains("&quot;"),
            "bare '&' in text"
        );
        let close = rest[open..].find('>').expect("unterminated tag") + open;
        let tag = &rest[open + 1..close];
        if let Some(stripped) = tag.strip_prefix("!--") {
            let _ = stripped;
            // comment: skip to -->
            let end = rest.find("-->").expect("unterminated comment");
            rest = &rest[end + 3..];
            continue;
        }
        if let Some(name) = tag.strip_prefix('/') {
            let top = stack
                .pop()
                .unwrap_or_else(|| panic!("close without open: </{name}>"));
            assert_eq!(top, name, "mismatched close tag");
        } else if !tag.ends_with('/') {
            let name: String = tag
                .split(|c: char| c.is_whitespace())
                .next()
                .unwrap_or("")
                .to_string();
            stack.push(name);
        }
        rest = &rest[close + 1..];
    }
    assert!(stack.is_empty(), "unclosed tags: {stack:?}");
}

#[test]
fn grok_and_yaml_exports_cover_all_patterns() {
    let d = generate("HDFS", 600, 6);
    let records: Vec<LogRecord> = d
        .lines
        .iter()
        .map(|l| LogRecord::new("hdfs", l.raw.as_str()))
        .collect();
    let mut rtg = SequenceRtg::in_memory(RtgConfig::default());
    let report = rtg.analyze_by_service(&records, 1).unwrap();
    let grok = export(
        rtg.store_mut(),
        ExportFormat::Grok,
        ExportSelection::default(),
    );
    let yaml = export(
        rtg.store_mut(),
        ExportFormat::Yaml,
        ExportSelection::default(),
    );
    assert_eq!(grok.matches("filter {").count() as u64, report.new_patterns);
    assert_eq!(yaml.matches("- id: ").count() as u64, report.new_patterns);
}

#[test]
fn extended_scanner_improves_healthapp_consistency() {
    let d = generate("HealthApp", 400, 9);
    let paper = Scanner::with_options(ScannerOptions::paper());
    let default_scanner = Scanner::new();
    let distinct_counts = |scanner: &Scanner| -> std::collections::HashSet<usize> {
        d.lines
            .iter()
            .map(|l| scanner.scan(&l.raw).token_count())
            .collect()
    };
    // With the future-work fix every header folds into one Time token, so
    // the number of distinct token-count shapes shrinks.
    let paper_shapes = distinct_counts(&paper).len();
    let default_shapes = distinct_counts(&default_scanner).len();
    assert!(
        default_shapes < paper_shapes,
        "default scanner unifies shapes: {default_shapes} vs {paper_shapes}"
    );
}
