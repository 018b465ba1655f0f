//! The `AnalyzeByService` workflow (paper §III, Fig. 2).
//!
//! "It performs a first partitioning of the data which groups the log records
//! into subsets by service and then scans the messages into token sets. These
//! scanned messages are then sent to the Sequence parser to see if they match
//! an already known pattern. If a match is found the last matched date and
//! the number of examples matched to this pattern are adjusted accordingly
//! and no further processing occurs for this message. Any message for which a
//! match is not found is sent on to the analyser to be mined for new
//! patterns. A second partitioning of these unmatched messages occurs based
//! on count of tokens in the set." (The second partitioning is performed
//! inside [`sequence_core::Analyzer::analyze`].)

use crate::batch::{publish, Mining, OpenBatch};
use crate::config::RtgConfig;
use crate::record::LogRecord;
use crate::service::commit_plans;
use crate::swap::PatternBoard;
use patterndb::{PatternStore, StoreError};
use sequence_core::{MatchScratch, Pattern, TokenizedMessage};
use std::collections::BTreeMap;

/// Summary of one batch run, for operator visibility and the experiments.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BatchReport {
    /// Records received.
    pub received: u64,
    /// Messages matched to an already-known pattern during the parse step.
    pub matched_known: u64,
    /// Messages sent to the analyser (unmatched).
    pub analyzed: u64,
    /// Patterns newly created in the database by this batch.
    pub new_patterns: u64,
    /// Patterns that already existed and had their stats updated.
    pub updated_patterns: u64,
    /// Messages with embedded line breaks (truncated to their first line).
    pub multiline: u64,
    /// Messages that produced no tokens at all.
    pub empty_messages: u64,
    /// Distinct services seen in the batch.
    pub services: u64,
}

impl BatchReport {
    /// Fraction of received messages matched to a known pattern before
    /// analysis — the quantity tracked in the paper's Fig. 7.
    pub fn matched_ratio(&self) -> f64 {
        if self.received == 0 {
            return 0.0;
        }
        self.matched_known as f64 / self.received as f64
    }

    /// Merge another report into this one.
    pub fn merge(&mut self, other: &BatchReport) {
        self.received += other.received;
        self.matched_known += other.matched_known;
        self.analyzed += other.analyzed;
        self.new_patterns += other.new_patterns;
        self.updated_patterns += other.updated_patterns;
        self.multiline += other.multiline;
        self.empty_messages += other.empty_messages;
        self.services += other.services;
    }
}

/// The Sequence-RTG engine: scanner + analyser + parser + pattern store,
/// kept consistent across batches.
#[derive(Debug)]
pub struct SequenceRtg {
    mining: Mining,
    store: PatternStore,
    /// The per-service pattern sets, mirroring the store.
    board: PatternBoard,
    /// Reusable trie-walk buffers for the parse step (one engine, one
    /// thread): parsing a whole batch performs no per-message frontier
    /// allocations.
    scratch: MatchScratch,
    /// Reused token buffer of arrival matching.
    tokens: TokenizedMessage,
}

/// Publish every pattern of `store` on `board`, naming the ones that do not
/// parse on stderr: a mid-run reload has no caller to tell.
fn reload(board: &PatternBoard, store: &mut PatternStore) -> Result<(), StoreError> {
    if let Some(line) = board.reload(store)? {
        eprintln!("{line}");
    }
    Ok(())
}

impl SequenceRtg {
    /// Build an engine over a pattern store, loading any persisted patterns
    /// into the in-memory parser sets.
    pub fn new(mut store: PatternStore, config: RtgConfig) -> Result<SequenceRtg, StoreError> {
        let board = PatternBoard::new();
        reload(&board, &mut store)?;
        Ok(SequenceRtg {
            mining: Mining::new(config),
            store,
            board,
            scratch: MatchScratch::default(),
            tokens: TokenizedMessage::default(),
        })
    }

    /// An engine over a fresh in-memory store (tests, experiments).
    pub fn in_memory(config: RtgConfig) -> SequenceRtg {
        SequenceRtg::new(PatternStore::in_memory(), config).expect("empty store loads")
    }

    /// The active configuration.
    pub fn config(&self) -> RtgConfig {
        self.mining.config()
    }

    /// The underlying store (e.g. for exporting patterns).
    pub fn store_mut(&mut self) -> &mut PatternStore {
        &mut self.store
    }

    /// The compiled pattern sets, one per service with a pattern.
    pub fn board(&self) -> &PatternBoard {
        &self.board
    }

    /// The new Sequence-RTG entry point: partition by service, parse known
    /// messages first, analyse the rest per service, persist discoveries.
    /// It is the [`crate::Pipeline`]'s batch, filled at once: each record
    /// arrives, then the batch runs.
    pub fn analyze_by_service(
        &mut self,
        batch: &[LogRecord],
        now: u64,
    ) -> Result<BatchReport, StoreError> {
        let mut open = OpenBatch::default();
        for record in batch {
            self.arrive(&mut open, record);
        }
        self.run_batch(open, now)
    }

    /// Take one record into `batch`, matched against its service's set.
    pub(crate) fn arrive(&mut self, batch: &mut OpenBatch, record: &LogRecord) {
        let set = self.board.load(&record.service);
        let arrival = self.mining.arrival(
            set.as_deref(),
            &record.message,
            &mut self.tokens,
            &mut self.scratch,
        );
        batch.take(record, arrival);
    }

    /// Close `batch`: plan, commit in one transaction (a crash mid-batch
    /// must not leave a half-updated pattern database behind), publish,
    /// then prune by the save threshold.
    pub(crate) fn run_batch(
        &mut self,
        mut batch: OpenBatch,
        now: u64,
    ) -> Result<BatchReport, StoreError> {
        let mut analyze_span = obs::span!("rtg.analyze");
        analyze_span.attr_u64("batch", batch.received());
        let plans = self.mining.plan(&self.board, &mut batch, &mut self.scratch);
        analyze_span.attr_u64("services", plans.len() as u64);
        let outcomes = commit_plans(
            &mut self.store,
            plans.iter().map(|(s, p)| (s.as_str(), p)),
            now,
        )?;
        let mut report = BatchReport {
            received: batch.received(),
            services: plans.len() as u64,
            ..Default::default()
        };
        for ((_, plan), outcome) in plans.iter().zip(&outcomes) {
            report.matched_known += plan.matched_known;
            report.analyzed += plan.analyzed;
            report.multiline += plan.multiline;
            report.empty_messages += plan.empty_messages;
            report.new_patterns += outcome.new_patterns;
            report.updated_patterns += outcome.updated_patterns;
        }
        publish(&self.board, &plans, outcomes);
        let threshold = self.mining.config().save_threshold;
        if threshold > 0 && self.store.prune_below_threshold(threshold)? > 0 {
            reload(&self.board, &mut self.store)?;
        }
        Ok(report)
    }

    /// The seminal `Analyze` behaviour, for the Fig. 5 comparison: no service
    /// partitioning and no parse-first step — every record goes into the
    /// per-token-count analysis tries together, regardless of source. The
    /// discovered patterns are still persisted under each record's service
    /// (keyed by the *first* covering record's service, as a single mixed
    /// trie cannot do better — this is precisely the quality problem the
    /// paper's first partitioning step removes).
    pub fn analyze_all(
        &mut self,
        batch: &[LogRecord],
        now: u64,
    ) -> Result<BatchReport, StoreError> {
        let mut report = BatchReport {
            received: batch.len() as u64,
            ..Default::default()
        };
        let mut scanned = Vec::with_capacity(batch.len());
        for r in batch {
            let t = self.mining.scanner.scan(&r.message);
            if t.truncated_multiline {
                report.multiline += 1;
            }
            if t.tokens.is_empty() {
                report.empty_messages += 1;
            }
            scanned.push(t);
        }
        let discovered = self.mining.analyzer.analyze(&scanned);
        report.analyzed = report.received - report.empty_messages;
        let mut inserted: BTreeMap<&str, Vec<(String, Pattern)>> = BTreeMap::new();
        for d in &discovered {
            let service = d
                .member_indices
                .first()
                .map(|&i| batch[i as usize].service.as_str())
                .unwrap_or("unknown");
            let (id, new) = self.store.upsert_discovered(service, d, now)?;
            if new {
                report.new_patterns += 1;
                let patterns = inserted.entry(service).or_default();
                patterns.push((id, d.pattern.clone()));
            } else {
                report.updated_patterns += 1;
            }
        }
        for (service, patterns) in inserted {
            self.board.grow(service, patterns);
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::unloaded_notice;

    fn known(rtg: &SequenceRtg, service: &str) -> usize {
        rtg.board().load(service).map_or(0, |s| s.len())
    }

    fn sshd_batch() -> Vec<LogRecord> {
        [
            "Accepted password for root from 10.2.3.4 port 22 ssh2",
            "Accepted password for admin from 10.9.9.9 port 2200 ssh2",
            "Accepted password for guest from 172.16.0.5 port 22022 ssh2",
        ]
        .iter()
        .map(|m| LogRecord::new("sshd", *m))
        .collect()
    }

    #[test]
    fn batch_report_merge_sums_fields() {
        let a = BatchReport {
            received: 10,
            matched_known: 4,
            analyzed: 6,
            new_patterns: 2,
            updated_patterns: 1,
            multiline: 1,
            empty_messages: 0,
            services: 2,
        };
        let mut b = a.clone();
        b.merge(&a);
        assert_eq!(b.received, 20);
        assert_eq!(b.matched_known, 8);
        assert_eq!(b.new_patterns, 4);
        assert!((a.matched_ratio() - 0.4).abs() < 1e-12);
        assert_eq!(BatchReport::default().matched_ratio(), 0.0);
    }

    #[test]
    fn first_batch_discovers_second_batch_parses() {
        let mut rtg = SequenceRtg::in_memory(RtgConfig::default());
        let r1 = rtg.analyze_by_service(&sshd_batch(), 100).unwrap();
        assert_eq!(r1.received, 3);
        assert_eq!(r1.matched_known, 0);
        assert_eq!(r1.analyzed, 3);
        assert_eq!(r1.new_patterns, 1);

        let batch2 = vec![LogRecord::new(
            "sshd",
            "Accepted password for eve from 203.0.113.7 port 999 ssh2",
        )];
        let r2 = rtg.analyze_by_service(&batch2, 200).unwrap();
        assert_eq!(r2.matched_known, 1);
        assert_eq!(r2.analyzed, 0);
        assert_eq!(r2.new_patterns, 0);
        assert!((r2.matched_ratio() - 1.0).abs() < 1e-12);

        // The store accumulated the match.
        let patterns = rtg.store_mut().patterns(Some("sshd")).unwrap();
        assert_eq!(patterns.len(), 1);
        assert_eq!(patterns[0].count, 4);
        assert_eq!(patterns[0].last_matched, 200);
    }

    #[test]
    fn services_are_isolated() {
        let mut rtg = SequenceRtg::in_memory(RtgConfig::default());
        let mut batch = sshd_batch();
        // Same text under a different service must become its own pattern.
        batch.push(LogRecord::new("sshd-backup", &batch[0].message));
        let r = rtg.analyze_by_service(&batch, 1).unwrap();
        assert_eq!(r.services, 2);
        assert_eq!(known(&rtg, "sshd"), 1);
        assert_eq!(known(&rtg, "sshd-backup"), 1);
        // And parsing one service's message does not consult the other's set.
        assert_eq!(known(&rtg, "nginx"), 0);
    }

    /// A batch over two services whose second upsert fails commits nothing:
    /// the store rolls back and the in-memory sets are not touched.
    #[test]
    fn failed_commit_leaves_store_and_sets_untouched() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let batch = vec![
            LogRecord::new("alpha", "alpha service came up"),
            LogRecord::new("beta", "beta service came up"),
        ];
        let mut rtg = SequenceRtg::in_memory(RtgConfig::default());
        let upserts = AtomicUsize::new(0);
        rtg.store_mut()
            .set_fault_hook(Some(std::sync::Arc::new(move |op: &str| {
                op == "upsert" && upserts.fetch_add(1, Ordering::Relaxed) == 1
            })));
        assert!(rtg.analyze_by_service(&batch, 1).is_err());
        assert_eq!(rtg.store_mut().pattern_count().unwrap(), 0);
        assert_eq!(rtg.board().total_patterns(), 0);

        rtg.store_mut().set_fault_hook(None);
        let r = rtg.analyze_by_service(&batch, 1).unwrap();
        assert_eq!(r.new_patterns, 2);
        assert_eq!(rtg.store_mut().pattern_count().unwrap(), 2);
        assert_eq!(rtg.board().total_patterns(), 2);
    }

    #[test]
    fn multiline_counted_and_pattern_has_ignore_rest() {
        let mut rtg = SequenceRtg::in_memory(RtgConfig::default());
        let batch = vec![
            LogRecord::new("app", "panic: oh no\n  at frame 1"),
            LogRecord::new("app", "panic: oh dear\n  at frame 2"),
            LogRecord::new("app", "panic: oh my\nstack"),
        ];
        let r = rtg.analyze_by_service(&batch, 1).unwrap();
        assert_eq!(r.multiline, 3);
        let p = &rtg.store_mut().patterns(Some("app")).unwrap()[0];
        assert!(p.pattern().unwrap().has_ignore_rest());
        // A later multi-line message with different continuation matches.
        let again = vec![LogRecord::new(
            "app",
            "panic: oh help\ncompletely different tail",
        )];
        let r2 = rtg.analyze_by_service(&again, 2).unwrap();
        assert_eq!(r2.matched_known, 1);
    }

    #[test]
    fn save_threshold_prunes_weak_patterns() {
        let mut rtg = SequenceRtg::in_memory(RtgConfig {
            save_threshold: 2,
            ..RtgConfig::default()
        });
        let batch = vec![
            LogRecord::new("svc", "one of a kind message never repeated"),
            LogRecord::new("svc", "common event alpha"),
            LogRecord::new("svc", "common event beta"),
            LogRecord::new("svc", "common event gamma"),
        ];
        rtg.analyze_by_service(&batch, 1).unwrap();
        let patterns = rtg.store_mut().patterns(Some("svc")).unwrap();
        assert_eq!(patterns.len(), 1, "singleton pattern pruned: {patterns:?}");
        assert_eq!(patterns[0].count, 3);
    }

    #[test]
    fn analyze_all_mixes_services() {
        // The seminal path analyses everything together; messages with the
        // same shape from different services collapse into one pattern row.
        let mut rtg = SequenceRtg::in_memory(RtgConfig::seminal());
        let batch = vec![
            LogRecord::new("svc-a", "session opened for user alice"),
            LogRecord::new("svc-b", "session opened for user bob"),
            LogRecord::new("svc-c", "session opened for user carol"),
        ];
        let r = rtg.analyze_all(&batch, 1).unwrap();
        assert_eq!(r.new_patterns, 1);
        assert_eq!(rtg.store_mut().pattern_count().unwrap(), 1);
    }

    #[test]
    fn empty_messages_do_not_crash_or_pattern() {
        let mut rtg = SequenceRtg::in_memory(RtgConfig::default());
        let batch = vec![LogRecord::new("svc", ""), LogRecord::new("svc", "   ")];
        let r = rtg.analyze_by_service(&batch, 1).unwrap();
        assert_eq!(r.empty_messages, 2);
        assert_eq!(r.analyzed, 0);
        assert_eq!(rtg.store_mut().pattern_count().unwrap(), 0);
    }

    #[test]
    fn repeated_batches_update_not_duplicate() {
        let mut rtg = SequenceRtg::in_memory(RtgConfig::default());
        rtg.analyze_by_service(&sshd_batch(), 1).unwrap();
        // Force the same discovery again by clearing in-memory sets (as if a
        // second instance shared the store).
        let mut rtg2 = SequenceRtg::new(
            std::mem::replace(rtg.store_mut(), PatternStore::in_memory()),
            RtgConfig::default(),
        )
        .unwrap();
        let r = rtg2.analyze_by_service(&sshd_batch(), 2).unwrap();
        // Patterns were reloaded from the store, so everything matches.
        assert_eq!(r.matched_known, 3);
        assert_eq!(rtg2.store_mut().pattern_count().unwrap(), 1);
    }

    #[test]
    fn a_stored_pattern_that_no_longer_parses_is_reported_not_silently_dropped() {
        let mut rtg = SequenceRtg::in_memory(RtgConfig::default());
        rtg.analyze_by_service(&sshd_batch(), 1).unwrap();
        let mut store = std::mem::replace(rtg.store_mut(), PatternStore::in_memory());
        assert_eq!(unloaded_notice(&store.load_pattern_sets().unwrap().1), None);
        // What a mined `load at 95% of %max:integer%` looks like after a
        // restart: the paper's unknown-tag limitation.
        store
            .db()
            .execute_with(
                "INSERT INTO patterns (id, service, pattern) VALUES (?, ?, ?)",
                &[
                    "bad1".into(),
                    "sshd".into(),
                    "load at 95% of %max:integer%".into(),
                ],
            )
            .unwrap();
        let skipped = store.load_pattern_sets().unwrap().1;
        let line = unloaded_notice(&skipped).expect("one pattern was skipped");
        assert!(
            line.starts_with("1 stored patterns do not parse and were not loaded; first: bad1: "),
            "{line}"
        );
        // The good pattern still loads and matches.
        let mut reloaded = SequenceRtg::new(store, RtgConfig::default()).unwrap();
        assert_eq!(known(&reloaded, "sshd"), 1);
        let r = reloaded.analyze_by_service(&sshd_batch(), 2).unwrap();
        assert_eq!(r.matched_known, 3);
    }
}
