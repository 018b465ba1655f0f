//! The complete workflow of the paper's Fig. 6, end to end in one process:
//!
//! ```text
//! stream ──► pattern database match
//!                   │ unmatched
//!                   ▼
//!            Sequence-RTG mining ──► review/promote ──► pattern database
//! ```
//!
//! Day 1 runs with a nearly empty pattern database; its unmatched messages
//! are mined; the strong candidates are promoted; day 2 runs with the grown
//! database and most of its stream matches.
//!
//! ```text
//! cargo run --release --example full_workflow
//! ```

use sequence_rtg_repro::loghub_synth::{generate_stream, CorpusConfig};
use sequence_rtg_repro::sequence_core::{MatchScratch, PatternSet, Scanner};
use sequence_rtg_repro::sequence_rtg::{LogRecord, RtgConfig, SequenceRtg};
use std::collections::HashMap;

fn main() {
    let mut rtg = SequenceRtg::in_memory(RtgConfig {
        save_threshold: 2,
        ..RtgConfig::default()
    });
    let mut promoted: HashMap<String, PatternSet> = HashMap::new();
    let scanner = Scanner::new();
    let mut scratch = MatchScratch::default();

    for day in 1..=2u64 {
        let stream = generate_stream(CorpusConfig {
            services: 20,
            total: 6_000,
            seed: 100 + day,
        });
        let mut unmatched: Vec<LogRecord> = Vec::new();
        for item in &stream {
            let scanned = scanner.scan_parse_only(&item.message);
            let hit = promoted
                .get(&item.service)
                .and_then(|set| set.match_message_with(&scanned, &mut scratch));
            if hit.is_none() {
                unmatched.push(LogRecord::new(item.service.as_str(), item.message.as_str()));
            }
        }
        println!(
            "day {day}: {} messages — matched {} / unmatched {} ({:.0}% unknown)",
            stream.len(),
            stream.len() - unmatched.len(),
            unmatched.len(),
            100.0 * unmatched.len() as f64 / stream.len() as f64
        );

        // The unmatched stream feeds Sequence-RTG ...
        let report = rtg.analyze_by_service(&unmatched, day).unwrap();
        println!(
            "       sequence-rtg mined {} new patterns from {} unmatched messages",
            report.new_patterns, report.analyzed
        );
        // ... and an administrator review promotes the strong candidates.
        let mut promoted_now = 0;
        for c in rtg.store_mut().patterns(None).unwrap() {
            if c.count >= 5 && c.complexity <= 0.9 {
                if let Ok(p) = c.pattern() {
                    promoted
                        .entry(c.service.clone())
                        .or_default()
                        .insert(c.id.clone(), p);
                    promoted_now += 1;
                }
            }
        }
        println!("       review session promoted {promoted_now} patterns\n");
    }
}
