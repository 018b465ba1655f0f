//! End-to-end integration: JSON stream → ingester → pipeline →
//! pattern store → export, across all the workspace crates.

use sequence_rtg_repro::loghub_synth::{generate_stream, to_json_lines, CorpusConfig};
use sequence_rtg_repro::patterndb::export::{export_patterns, ExportFormat, ExportSelection};
use sequence_rtg_repro::patterndb::PatternStore;
use sequence_rtg_repro::sequence_rtg::{Pipeline, RtgConfig, SequenceRtg, StreamIngester};
use std::io::Cursor;

/// One export document, written into a `Vec<u8>`.
fn export(store: &mut PatternStore, format: ExportFormat, selection: ExportSelection) -> String {
    let mut doc = Vec::new();
    export_patterns(store, format, selection, &mut doc).unwrap();
    String::from_utf8(doc).unwrap()
}

fn run_stream(total: usize, batch_size: usize) -> Pipeline {
    let stream = generate_stream(CorpusConfig {
        services: 12,
        total,
        seed: 5,
    });
    let json = to_json_lines(&stream);
    let config = RtgConfig {
        batch_size,
        ..RtgConfig::default()
    };
    let mut pipeline = Pipeline::new(SequenceRtg::in_memory(config));
    let mut ingester = StreamIngester::new(Cursor::new(json), batch_size);
    while let Some(batch) = ingester.next_batch().unwrap() {
        for r in batch {
            pipeline.push(r, 1).unwrap();
        }
    }
    pipeline.flush(1).unwrap();
    pipeline
}

#[test]
fn stream_to_store_to_export() {
    let mut pipeline = run_stream(3_000, 500);
    let engine = pipeline.engine_mut();
    assert!(
        engine.board().total_patterns() > 20,
        "{}",
        engine.board().total_patterns()
    );

    // Every export format renders the mined store.
    for fmt in [
        ExportFormat::SyslogNg,
        ExportFormat::Yaml,
        ExportFormat::Grok,
    ] {
        let doc = export(engine.store_mut(), fmt, ExportSelection::default());
        assert!(
            doc.len() > 500,
            "export should be substantial: {} bytes",
            doc.len()
        );
    }
    let xml = export(
        engine.store_mut(),
        ExportFormat::SyslogNg,
        ExportSelection::default(),
    );
    assert!(xml.contains("<patterndb version='4'"));
    assert!(xml.contains("test_message"));
}

#[test]
fn later_batches_parse_against_earlier_patterns() {
    let mut pipeline = run_stream(6_000, 1_000);
    assert_eq!(pipeline.batches_run(), 6);
    // Re-run the same stream through the same engine: nearly everything
    // should now hit the parse-first path.
    let stream = generate_stream(CorpusConfig {
        services: 12,
        total: 1_000,
        seed: 6,
    });
    let records: Vec<_> = stream
        .iter()
        .map(|i| {
            sequence_rtg_repro::sequence_rtg::LogRecord::new(i.service.as_str(), i.message.as_str())
        })
        .collect();
    let report = pipeline
        .engine_mut()
        .analyze_by_service(&records, 2)
        .unwrap();
    let ratio = report.matched_ratio();
    assert!(
        ratio > 0.8,
        "most messages parse against mined patterns: {ratio}"
    );
}

#[test]
fn store_statistics_accumulate_across_batches() {
    let mut pipeline = run_stream(4_000, 800);
    let store = pipeline.engine_mut().store_mut();
    let patterns = store.patterns(None).unwrap();
    let total: u64 = patterns.iter().map(|p| p.count).sum();
    // Empty (tokenless) messages aside, every message is attributed to some
    // pattern either at parse or analysis time.
    assert!(total >= 3_900, "counts cover the stream: {total}");
    // Examples were captured.
    assert!(patterns.iter().all(|p| !p.examples.is_empty()));
    // Complexity scores are sane.
    assert!(patterns.iter().all(|p| (0.0..=1.0).contains(&p.complexity)));
}
