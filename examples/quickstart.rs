//! Quickstart: mine patterns from a handful of log messages and match new
//! ones against them.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use sequence_rtg_repro::patterndb::export::{export_patterns, ExportFormat, ExportSelection};
use sequence_rtg_repro::patterndb::PatternStore;
use sequence_rtg_repro::sequence_core::{Analyzer, Scanner};

fn main() {
    // 1. Tokenise: the scanner needs no prior knowledge of the format and no
    //    regular expressions — its finite state machines type timestamps,
    //    IPs, integers, MACs and URLs on the fly.
    let scanner = Scanner::new();
    let batch: Vec<_> = [
        "Accepted password for root from 10.2.3.4 port 22 ssh2",
        "Accepted password for admin from 10.9.9.9 port 2200 ssh2",
        "Accepted password for guest from 172.16.0.5 port 22022 ssh2",
        "Failed password for invalid user eve from 203.0.113.50 port 1042 ssh2",
        "Failed password for invalid user mallory from 203.0.113.51 port 1099 ssh2",
        "Failed password for invalid user trent from 203.0.113.52 port 2211 ssh2",
        "session opened for user root by (uid=0)",
        "session opened for user deploy by (uid=0)",
        "session opened for user backup by (uid=0)",
    ]
    .iter()
    .map(|m| scanner.scan(m))
    .collect();

    // 2. Analyse: build the trie, merge siblings, extract patterns.
    let discovered = Analyzer::new().analyze(&batch);
    println!("discovered {} patterns:", discovered.len());
    for d in &discovered {
        println!("  [{} msgs] {}", d.match_count, d.pattern.render());
    }

    // 3. Parse: match a new message against the mined patterns.
    let new_msg = scanner.scan("Accepted password for onlooker from 198.51.100.7 port 40022 ssh2");
    for d in &discovered {
        if let Some(captures) = d.pattern.match_message(&new_msg) {
            println!("\nnew message matches: {}", d.pattern.render());
            for (name, value) in &captures.values {
                println!("  %{name}% = {value}");
            }
        }
    }

    // 4. Persist and export: store patterns with reproducible SHA1 ids and
    //    render them for Logstash (also available: syslog-ng XML, YAML).
    let mut store = PatternStore::in_memory();
    for d in &discovered {
        store.upsert_discovered("sshd", d, 1_630_000_000).unwrap();
    }
    let mut grok = Vec::new();
    export_patterns(
        &mut store,
        ExportFormat::Grok,
        ExportSelection::default(),
        &mut grok,
    )
    .unwrap();
    println!(
        "\nLogstash Grok export:\n{}",
        String::from_utf8_lossy(&grok)
    );
}
