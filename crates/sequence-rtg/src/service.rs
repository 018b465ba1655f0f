//! Per-service-scoped mining entry points: the `AnalyzeByService` workflow
//! split into a compute-only *plan* phase and a store-writing *commit* phase.
//!
//! The mining step both drivers run ([`crate::batch`]) composes them:
//! planning reads only the service's published set and holds no lock (so
//! `seqd`'s mining jobs for *different* shards never serialize on the
//! expensive part), and committing holds the store lock only for the brief
//! transaction that persists the results. A failed commit can be retried
//! without re-planning — the plan is pure data, computed once.

use crate::config::RtgConfig;
use crate::record::LogRecord;
use patterndb::{PatternStore, StoreError};
use sequence_core::{
    Analyzer, DiscoveredPattern, MatchScratch, Pattern, PatternSet, Scanner, TokenizedMessage,
};
use std::collections::HashMap;

/// What to tell the operator about the stored patterns a load skipped (the
/// second half of [`PatternStore::load_pattern_sets`]): one line, `None` when
/// everything loaded. A pattern whose static text contains `%` matches in
/// memory until the next load and then no longer parses; without this line
/// it just stops matching.
pub fn unloaded_notice(skipped: &[StoreError]) -> Option<String> {
    let first = match skipped.first()? {
        StoreError::BadPattern { id, err } => format!("{id}: {err}"),
        other => other.to_string(),
    };
    let n = skipped.len();
    Some(format!(
        "{n} stored patterns do not parse and were not loaded; first: {first}"
    ))
}

/// The compute-only result of scanning, parsing and analysing one service's
/// slice of a batch. No store state is touched to build one; everything a
/// commit needs is captured by value.
#[derive(Debug, Clone, Default)]
pub struct ServicePlan {
    /// Matches against the known set, as `(pattern id, count)` sorted by id
    /// for a deterministic store write order.
    pub match_counts: Vec<(String, u64)>,
    /// Patterns mined from the unmatched messages; their `member_indices`
    /// index the planned messages.
    pub discovered: Vec<DiscoveredPattern>,
    /// Records planned.
    pub received: u64,
    /// Messages matched to an already-known pattern.
    pub matched_known: u64,
    /// Messages sent to the analyser (unmatched, non-empty).
    pub analyzed: u64,
    /// Messages with embedded line breaks (truncated to their first line).
    pub multiline: u64,
    /// Messages that produced no tokens at all.
    pub empty_messages: u64,
}

/// What one committed plan did to the store. The in-memory pattern set is
/// *not* mutated by [`commit_service`]; the caller applies `inserted` after
/// the enclosing transaction commits, so a rollback leaves the set exactly
/// as the store: unchanged.
#[derive(Debug, Clone, Default)]
pub struct CommitOutcome {
    /// Patterns newly created, as `(store id, pattern)` to insert into the
    /// service's compiled set once the transaction is durable.
    pub inserted: Vec<(String, Pattern)>,
    /// Count of newly created patterns (`inserted.len()`, as u64).
    pub new_patterns: u64,
    /// Patterns that already existed and had their stats updated.
    pub updated_patterns: u64,
}

/// Count one match of pattern `id`, copying the id only on its first hit.
pub(crate) fn count_match(counts: &mut HashMap<String, u64>, id: &str) {
    match counts.get_mut(id) {
        Some(n) => *n += 1,
        None => {
            counts.insert(id.to_string(), 1);
        }
    }
}

/// Plan one service's slice of a batch: scan, parse against `set`, analyse
/// the unmatched remainder. Pure compute — the only shared state read is the
/// pattern set snapshot, and nothing is written anywhere. `_config` is
/// unused: `scanner` and `analyzer` already carry its options.
pub fn plan_service(
    scanner: &Scanner,
    analyzer: &Analyzer,
    _config: &RtgConfig,
    set: Option<&PatternSet>,
    scratch: &mut MatchScratch,
    records: &[&LogRecord],
) -> ServicePlan {
    let messages = records.iter().map(|r| r.message.as_str());
    plan_messages(scanner, analyzer, set, scratch, messages)
}

/// [`plan_service`] over the messages alone: what a batch keeps of a
/// service's residue. The plan's `member_indices` index `messages`.
pub(crate) fn plan_messages<'m>(
    scanner: &Scanner,
    analyzer: &Analyzer,
    set: Option<&PatternSet>,
    scratch: &mut MatchScratch,
    messages: impl ExactSizeIterator<Item = &'m str>,
) -> ServicePlan {
    let mut plan = ServicePlan {
        received: messages.len() as u64,
        ..ServicePlan::default()
    };
    let scanned: Vec<TokenizedMessage> = {
        let _scan_span = obs::span!("rtg.scan");
        messages
            .map(|message| {
                let t = scanner.scan(message);
                if t.truncated_multiline {
                    plan.multiline += 1;
                }
                if t.tokens.is_empty() {
                    plan.empty_messages += 1;
                }
                t
            })
            .collect()
    };
    // Parse step: match against the known set; the rest is analyser input.
    let mut unmatched = Vec::new();
    {
        let mut parse_span = obs::span!("rtg.parse");
        parse_span.attr_u64("messages", scanned.len() as u64);
        let mut match_counts: HashMap<String, u64> = HashMap::new();
        for (i, msg) in scanned.iter().enumerate() {
            if msg.tokens.is_empty() {
                continue;
            }
            match set.and_then(|s| s.match_id_with(msg, scratch)) {
                Some(id) => {
                    count_match(&mut match_counts, id);
                    plan.matched_known += 1;
                }
                None => unmatched.push(i as u32),
            }
        }
        plan.match_counts = match_counts.into_iter().collect();
        plan.match_counts.sort_unstable();
    }
    if unmatched.is_empty() {
        return plan;
    }
    plan.analyzed = unmatched.len() as u64;
    plan.discovered = analyzer.analyze_subset(&scanned, unmatched);
    plan
}

/// Persist one plan: record the match statistics, then upsert the mined
/// patterns, in the same store write order the single-lock engine used. The
/// caller owns transaction boundaries (`begin`/`commit`/`rollback`) — a
/// batch spanning several services still commits atomically.
pub fn commit_service(
    store: &mut PatternStore,
    service: &str,
    plan: &ServicePlan,
    now: u64,
) -> Result<CommitOutcome, StoreError> {
    let mut outcome = CommitOutcome::default();
    for (id, n) in &plan.match_counts {
        store.record_matches(id, *n, now)?;
    }
    for d in &plan.discovered {
        let (id, inserted) = store.upsert_discovered(service, d, now)?;
        if inserted {
            outcome.new_patterns += 1;
            outcome.inserted.push((id, d.pattern.clone()));
        } else {
            outcome.updated_patterns += 1;
        }
    }
    Ok(outcome)
}

/// Persist a batch's plans, in the order given, in one transaction: one
/// outcome per plan, or an error after which the transaction is rolled back
/// wholesale, so a retry of the same plans starts clean. The plans are
/// borrowed through an iterator, so the caller's own layout needs no copy.
pub fn commit_plans<'p>(
    store: &mut PatternStore,
    plans: impl IntoIterator<Item = (&'p str, &'p ServicePlan)>,
    now: u64,
) -> Result<Vec<CommitOutcome>, StoreError> {
    let plans = plans.into_iter();
    let mut outcomes = Vec::with_capacity(plans.size_hint().0);
    store.begin()?;
    for (service, plan) in plans {
        match commit_service(store, service, plan, now) {
            Ok(outcome) => outcomes.push(outcome),
            Err(e) => {
                store.rollback()?;
                return Err(e);
            }
        }
    }
    store.commit()?;
    Ok(outcomes)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn records(msgs: &[&str]) -> Vec<LogRecord> {
        msgs.iter().map(|m| LogRecord::new("sshd", *m)).collect()
    }

    fn plan_over(set: Option<&PatternSet>, owned: &[LogRecord]) -> ServicePlan {
        let config = RtgConfig::default();
        let refs: Vec<&LogRecord> = owned.iter().collect();
        plan_service(
            &Scanner::with_options(config.scanner),
            &Analyzer::with_options(config.analyzer),
            &config,
            set,
            &mut MatchScratch::default(),
            &refs,
        )
    }

    #[test]
    fn plan_is_pure_and_commit_applies_it() {
        let owned = records(&[
            "Accepted password for root from 10.2.3.4 port 22 ssh2",
            "Accepted password for admin from 10.9.9.9 port 2200 ssh2",
            "Accepted password for guest from 172.16.0.5 port 22022 ssh2",
        ]);
        let plan = plan_over(None, &owned);
        assert_eq!(plan.received, 3);
        assert_eq!(plan.matched_known, 0);
        assert_eq!(plan.analyzed, 3);
        assert_eq!(plan.discovered.len(), 1);
        assert!(plan.match_counts.is_empty());

        let mut store = PatternStore::in_memory();
        store.begin().unwrap();
        let outcome = commit_service(&mut store, "sshd", &plan, 7).unwrap();
        store.commit().unwrap();
        assert_eq!(outcome.new_patterns, 1);
        assert_eq!(outcome.updated_patterns, 0);
        assert_eq!(outcome.inserted.len(), 1);
        assert_eq!(store.pattern_count().unwrap(), 1);

        // Apply the insertion to a set and the next plan parses against it.
        let mut set = PatternSet::default();
        for (id, p) in &outcome.inserted {
            set.insert(id.clone(), p.clone());
        }
        let next = records(&["Accepted password for eve from 203.0.113.7 port 999 ssh2"]);
        let plan2 = plan_over(Some(&set), &next);
        assert_eq!(plan2.matched_known, 1);
        assert_eq!(plan2.analyzed, 0);
        assert_eq!(plan2.match_counts.len(), 1);
        assert!(plan2.discovered.is_empty());

        // Committing the match-only plan bumps the stored statistics.
        store.begin().unwrap();
        let outcome2 = commit_service(&mut store, "sshd", &plan2, 9).unwrap();
        store.commit().unwrap();
        assert_eq!(outcome2.new_patterns + outcome2.updated_patterns, 0);
        let p = &store.patterns(Some("sshd")).unwrap()[0];
        assert_eq!(p.count, 4);
        assert_eq!(p.last_matched, 9);
    }

    #[test]
    fn failed_commit_leaves_no_set_mutation_to_undo() {
        let owned = records(&["one of a kind message here"]);
        let plan = plan_over(None, &owned);
        let mut store = PatternStore::in_memory();
        store.set_fault_hook(Some(std::sync::Arc::new(|op: &str| op == "upsert")));
        store.begin().unwrap();
        let err = commit_service(&mut store, "sshd", &plan, 1);
        assert!(err.is_err());
        store.rollback().unwrap();
        // The plan is reusable: clear the fault and the same plan commits.
        store.set_fault_hook(None);
        store.begin().unwrap();
        let outcome = commit_service(&mut store, "sshd", &plan, 1).unwrap();
        store.commit().unwrap();
        assert_eq!(outcome.new_patterns, 1);
    }

    #[test]
    fn empty_and_multiline_messages_are_counted() {
        let owned = vec![
            LogRecord::new("sshd", ""),
            LogRecord::new("sshd", "panic: oh no\n  at frame 1"),
        ];
        let plan = plan_over(None, &owned);
        assert_eq!(plan.empty_messages, 1);
        assert_eq!(plan.multiline, 1);
        assert_eq!(plan.analyzed, 1, "empty messages skip the analyser");
    }
}
