//! Scores the patterns a run left behind against the labelled sample.

use crate::corpus::Labelled;
use evalharness::accuracy::group_accuracy;
use patterndb::store::row_to_strings;
use patterndb::PatternStore;
use sequence_core::{MatchScratch, Pattern, PatternSet, Scanner, TokenizedMessage};
use sequence_rtg::RtgConfig;
use std::collections::HashMap;
use std::io;
use std::path::Path;

/// Quality of the pattern database a run left behind.
#[derive(Debug, Clone, Copy)]
pub struct Quality {
    /// `evalharness::accuracy::group_accuracy` over the sample; a sample
    /// line no pattern matches is its own wrong group.
    pub grouping_accuracy: f64,
    /// Patterns in the store.
    pub patterns: usize,
    /// Of those, patterns whose stored text no longer parses (the documented
    /// `%`-collision limitation); they match nothing here, as in the daemon
    /// after a restart.
    pub unparseable: usize,
    /// Share of sample lines some pattern matched.
    pub matched_share: f64,
}

/// Open the checkpointed store at `store_dir`, match every sample line with
/// the public scanner and `PatternSet` matcher, and score the grouping.
pub fn score(store_dir: &Path, sample: &[Labelled]) -> io::Result<Quality> {
    let mut store = PatternStore::open(store_dir)
        .map_err(|e| io::Error::other(format!("cannot open the store left behind: {e}")))?;
    // Read the rows directly: `PatternStore::load_pattern_sets` also fetches
    // every pattern's examples, one unindexed query each, which takes longer
    // than the timed window once a run has left 10⁴ patterns behind.
    let rows = store
        .db()
        .query("SELECT id, service, pattern FROM patterns")
        .map_err(|e| io::Error::other(format!("cannot read patterns: {e}")))?;
    let mut sets: HashMap<String, PatternSet> = HashMap::new();
    let mut unparseable = 0usize;
    for row in &rows {
        let [id, service, text] = <[String; 3]>::try_from(row_to_strings(row))
            .map_err(|_| io::Error::other("pattern row without three columns"))?;
        match Pattern::parse(&text) {
            Ok(pattern) => sets.entry(service).or_default().insert(id, pattern),
            Err(_) => unparseable += 1,
        }
    }
    let scanner = Scanner::with_options(RtgConfig::default().scanner);
    let mut tokens = TokenizedMessage::default();
    let mut scratch = MatchScratch::default();
    let mut matched = 0usize;
    let predicted: Vec<String> = sample
        .iter()
        .enumerate()
        .map(|(i, line)| {
            scanner.scan_into(&line.message, &mut tokens);
            let hit = sets
                .get(&line.service)
                .and_then(|set| set.match_message_with(&tokens, &mut scratch));
            match hit {
                Some(outcome) => {
                    matched += 1;
                    outcome.pattern_id
                }
                None => format!("unmatched-{i}"),
            }
        })
        .collect();
    let truth: Vec<&str> = sample.iter().map(|l| l.truth.as_str()).collect();
    Ok(Quality {
        grouping_accuracy: group_accuracy(&predicted, &truth),
        patterns: rows.len(),
        unparseable,
        matched_share: matched as f64 / sample.len().max(1) as f64,
    })
}
