//! The complete Fig. 6 production loop in one integration test: stream →
//! pattern-database match, unmatched → Sequence-RTG → review (conflict
//! resolution + promotion) → pattern database.

use sequence_rtg_repro::loghub_synth::{generate_stream, CorpusConfig};
use sequence_rtg_repro::patterndb::ReviewQueue;
use sequence_rtg_repro::sequence_core::{MatchScratch, PatternSet, Scanner};
use sequence_rtg_repro::sequence_rtg::{LogRecord, RtgConfig, SequenceRtg};
use std::collections::HashMap;

#[test]
fn figure6_loop_end_to_end() {
    let mut rtg = SequenceRtg::in_memory(RtgConfig {
        save_threshold: 2,
        ..RtgConfig::default()
    });
    let mut promoted: HashMap<String, PatternSet> = HashMap::new();
    let scanner = Scanner::new();
    let mut scratch = MatchScratch::default();

    let mut day2_ratio = 0.0;
    for day in 1..=3u64 {
        let stream = generate_stream(CorpusConfig {
            services: 15,
            total: 3_000,
            seed: 40 + day,
        });
        // The stream is parsed against the promoted pattern database only.
        let mut unmatched = Vec::new();
        for item in &stream {
            let scanned = scanner.scan_parse_only(&item.message);
            let hit = promoted
                .get(&item.service)
                .and_then(|set| set.match_message_with(&scanned, &mut scratch));
            if hit.is_none() {
                unmatched.push(LogRecord::new(item.service.as_str(), item.message.as_str()));
            }
        }
        let unmatched_ratio = unmatched.len() as f64 / stream.len() as f64;

        // Unmatched messages feed the miner.
        rtg.analyze_by_service(&unmatched, day).unwrap();

        // Administrator review: resolve conflicts, promote the queue.
        let candidates = rtg.store_mut().patterns(None).unwrap();
        for c in sequence_rtg_repro::patterndb::find_conflicts(&candidates) {
            let _ = sequence_rtg_repro::patterndb::resolve_conflict(rtg.store_mut(), &c);
        }
        let queue = ReviewQueue::build(rtg.store_mut()).unwrap();
        let decisions: Vec<_> = queue
            .items()
            .iter()
            .filter(|i| i.pattern.count >= 3 && i.pattern.complexity < 0.95)
            .map(|i| {
                (
                    i.pattern.id.clone(),
                    i.pattern.service.clone(),
                    i.pattern.pattern().ok(),
                )
            })
            .collect();
        for (id, service, parsed) in decisions {
            if let Some(p) = parsed {
                rtg.store_mut().promote(&id).unwrap();
                promoted.entry(service).or_default().insert(id, p);
            }
        }
        if day == 2 {
            day2_ratio = unmatched_ratio;
        } else if day == 3 {
            // The headline effect: by day 3 most of the stream matches.
            assert!(
                unmatched_ratio < 0.35,
                "unmatched should collapse after promotions: {unmatched_ratio:.2}"
            );
            assert!(unmatched_ratio < day2_ratio + 0.05);
        }
    }

    // The promoted database is consistent with the store's flags.
    let flagged = rtg
        .store_mut()
        .patterns(None)
        .unwrap()
        .iter()
        .filter(|p| p.promoted)
        .count();
    let in_memory: usize = promoted.values().map(|s| s.len()).sum();
    assert_eq!(flagged, in_memory);
}
