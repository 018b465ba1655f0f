//! Pattern export in all three formats of the paper: syslog-ng pattern
//! database XML (Fig. 3), YAML for DevOps tooling, and Logstash Grok
//! (Fig. 4) — including the selection filters (save threshold, complexity
//! score) administrators use to pick "only the strongest patterns".
//!
//! ```text
//! cargo run --example export_patterns
//! ```

use sequence_rtg_repro::loghub_synth::generate;
use sequence_rtg_repro::patterndb::export::{export_patterns, ExportFormat, ExportSelection};
use sequence_rtg_repro::patterndb::PatternStore;
use sequence_rtg_repro::sequence_rtg::{LogRecord, RtgConfig, SequenceRtg};

fn main() {
    // Mine patterns from a synthetic OpenSSH corpus.
    let dataset = generate("OpenSSH", 1500, 42);
    let records: Vec<LogRecord> = dataset
        .lines
        .iter()
        .map(|l| LogRecord::new("sshd", l.raw.as_str()))
        .collect();
    let mut rtg = SequenceRtg::in_memory(RtgConfig::default());
    let report = rtg.analyze_by_service(&records, 1_630_000_000).unwrap();
    println!(
        "mined {} patterns from {} messages\n",
        report.new_patterns, report.received
    );

    let store = rtg.store_mut();

    // Selection: "this score can then be used to select only the strongest
    // patterns when exporting them for review".
    let strong = ExportSelection {
        min_count: 10,
        max_complexity: 0.8,
        ..Default::default()
    };
    let all = ExportSelection::default();

    let xml = export(store, ExportFormat::SyslogNg, strong);
    println!("=== syslog-ng patterndb XML (strong patterns only) ===");
    println!("{}", first_lines(&xml, 30));

    let yaml = export(store, ExportFormat::Yaml, strong);
    println!("\n=== YAML (for e.g. Puppet) ===");
    println!("{}", first_lines(&yaml, 20));

    let grok = export(store, ExportFormat::Grok, strong);
    println!("\n=== Logstash Grok filters ===");
    println!("{}", first_lines(&grok, 18));

    let n_all = export(store, ExportFormat::Yaml, all)
        .matches("- id:")
        .count();
    let n_strong = yaml.matches("- id:").count();
    println!("\nselection effect: {n_all} patterns total, {n_strong} pass the strong filter");
}

/// One export document. `export_patterns` streams to any writer; a
/// `Vec<u8>` keeps it for printing excerpts.
fn export(store: &mut PatternStore, format: ExportFormat, selection: ExportSelection) -> String {
    let mut doc = Vec::new();
    export_patterns(store, format, selection, &mut doc).unwrap();
    String::from_utf8(doc).unwrap()
}

fn first_lines(s: &str, n: usize) -> String {
    let mut out: Vec<&str> = s.lines().take(n).collect();
    if s.lines().count() > n {
        out.push("  ...");
    }
    out.join("\n")
}
