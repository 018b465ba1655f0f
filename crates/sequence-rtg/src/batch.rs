//! The mining step of the CLI's [`crate::Pipeline`] and of `seqd`'s shard
//! workers. Both fill an [`OpenBatch`] on arrival, and at a cut point (each
//! driver keeps its own cut rule) mine it in three calls: [`Mining::plan`]
//! (pure compute, no lock held), [`crate::commit_plans`] (one store
//! transaction) and [`publish`].

use crate::config::RtgConfig;
use crate::record::LogRecord;
use crate::service::{count_match, plan_service, CommitOutcome, ServicePlan};
use crate::swap::PatternBoard;
use sequence_core::{Analyzer, MatchScratch, PatternSet, Scanner, TokenizedMessage};
use std::borrow::Cow;
use std::collections::HashMap;
use std::time::{SystemTime, UNIX_EPOCH};

/// What arrival matching made of one record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arrival<'s> {
    /// Matched pattern `id` of its service's set.
    Matched {
        /// The pattern's id.
        id: &'s str,
        /// The message had a line break.
        multiline: bool,
    },
    /// No tokens at all.
    Empty {
        /// The message had a line break.
        multiline: bool,
    },
    /// Unmatched, or its service has no set yet: kept for the analyser.
    Residue,
}

/// One service's share of an [`OpenBatch`]: what arrival matching absorbed,
/// as counts, and the raw records it could not.
#[derive(Debug, Default)]
struct ServiceArrivals<'a> {
    match_counts: HashMap<String, u64>,
    multiline: u64,
    empty_messages: u64,
    residue: Vec<Cow<'a, LogRecord>>,
}

impl<'a> ServiceArrivals<'a> {
    fn take(&mut self, arrival: Arrival<'_>, record: Cow<'a, LogRecord>) {
        match arrival {
            Arrival::Matched { id, multiline } => {
                count_match(&mut self.match_counts, id);
                self.multiline += multiline as u64;
            }
            Arrival::Empty { multiline } => {
                self.empty_messages += 1;
                self.multiline += multiline as u64;
            }
            Arrival::Residue => self.residue.push(record),
        }
    }

    /// Append a later share of the same service: residue in order, counts
    /// summed.
    fn merge(&mut self, later: ServiceArrivals<'a>) {
        for (id, n) in later.match_counts {
            *self.match_counts.entry(id).or_insert(0) += n;
        }
        self.multiline += later.multiline;
        self.empty_messages += later.empty_messages;
        self.residue.extend(later.residue);
    }
}

/// The batch being filled, record by record (the paper's first
/// partitioning, done on arrival). A batch costs what its unmatched
/// records cost, not what it received.
#[derive(Debug, Default)]
pub struct OpenBatch<'a> {
    received: u64,
    residue: usize,
    services: HashMap<String, ServiceArrivals<'a>>,
}

impl<'a> OpenBatch<'a> {
    /// Records received since the batch opened.
    pub fn received(&self) -> u64 {
        self.received
    }

    /// Records kept for the analyser, across services.
    pub fn residue_len(&self) -> usize {
        self.residue
    }

    /// Whether no record arrived.
    pub fn is_empty(&self) -> bool {
        self.received == 0
    }

    /// The residue, service by service, each in arrival order.
    pub fn residue(&self) -> impl Iterator<Item = &LogRecord> {
        self.services
            .values()
            .flat_map(|s| s.residue.iter().map(|r| &**r))
    }

    /// Arrival matches as `(pattern id, count)`, in no particular order.
    pub fn match_counts(&self) -> impl Iterator<Item = (&str, u64)> {
        let counts = self.services.values().flat_map(|s| &s.match_counts);
        counts.map(|(id, n)| (id.as_str(), *n))
    }

    /// Take one record in, as arrival matching classified it.
    pub fn take(&mut self, record: Cow<'a, LogRecord>, arrival: Arrival<'_>) {
        self.received += 1;
        self.residue += (arrival == Arrival::Residue) as usize;
        // The service key is copied the first time the batch sees it only.
        match self.services.get_mut(record.service.as_str()) {
            Some(arrivals) => arrivals.take(arrival, record),
            None => {
                let service = record.service.clone();
                let mut arrivals = ServiceArrivals::default();
                arrivals.take(arrival, record);
                self.services.insert(service, arrivals);
            }
        }
    }

    /// Append a batch filled after this one: per service, its residue
    /// follows this batch's and its counts add up. Mining the result is
    /// mining one batch filled with both in turn.
    pub fn merge(&mut self, later: OpenBatch<'a>) {
        self.received += later.received;
        self.residue += later.residue;
        for (service, arrivals) in later.services {
            self.services.entry(service).or_default().merge(arrivals);
        }
    }
}

/// The immutable half of mining: configuration, scanner and analyser.
/// Both drivers own one; each keeps its own store and board beside it.
#[derive(Debug)]
pub struct Mining {
    config: RtgConfig,
    pub(crate) scanner: Scanner,
    pub(crate) analyzer: Analyzer,
}

impl Mining {
    /// Mining under `config`.
    pub fn new(config: RtgConfig) -> Mining {
        Mining {
            config,
            scanner: Scanner::with_options(config.scanner),
            analyzer: Analyzer::with_options(config.analyzer),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> RtgConfig {
        self.config
    }

    /// Classify one message of a service whose published set is `set`, for
    /// [`OpenBatch::take`]. Without a set the message is residue, unscanned.
    pub fn arrival<'s>(
        &self,
        set: Option<&'s PatternSet>,
        message: &str,
        tokens: &mut TokenizedMessage,
        scratch: &mut MatchScratch,
    ) -> Arrival<'s> {
        let Some(set) = set else {
            return Arrival::Residue;
        };
        self.scanner.scan_into(message, tokens);
        let multiline = tokens.truncated_multiline;
        if tokens.tokens.is_empty() {
            return Arrival::Empty { multiline };
        }
        match set.match_id_with(tokens, scratch) {
            Some(id) => Arrival::Matched { id, multiline },
            None => Arrival::Residue,
        }
    }

    /// Plan each service's residue against its set on `board`, in sorted
    /// service order, with the arrival counts folded in. The residue stays
    /// in `batch`: freeing it between plans scattered the next plan's
    /// allocations through the heap and slowed a cold day's mining by a
    /// tenth.
    pub fn plan(
        &self,
        board: &PatternBoard,
        batch: &mut OpenBatch<'_>,
        scratch: &mut MatchScratch,
    ) -> Vec<(String, ServicePlan)> {
        let mut services: Vec<_> = batch.services.iter_mut().collect();
        services.sort_unstable_by_key(|(service, _)| *service);
        services
            .into_iter()
            .map(|(service, arrivals)| {
                let residue: Vec<&LogRecord> = arrivals.residue.iter().map(|r| &**r).collect();
                let set = board.load(service);
                let mut plan = plan_service(
                    &self.scanner,
                    &self.analyzer,
                    &self.config,
                    set.as_deref(),
                    scratch,
                    &residue,
                );
                let matched: u64 = arrivals.match_counts.values().sum();
                plan.received += matched + arrivals.empty_messages;
                plan.matched_known += matched;
                plan.multiline += arrivals.multiline;
                plan.empty_messages += arrivals.empty_messages;
                // Residue can match now: a set published since it arrived.
                let mut counts = std::mem::take(&mut arrivals.match_counts);
                for (id, n) in plan.match_counts.drain(..) {
                    *counts.entry(id).or_insert(0) += n;
                }
                plan.match_counts = counts.into_iter().collect();
                plan.match_counts.sort_unstable();
                (service.clone(), plan)
            })
            .collect()
    }
}

/// After a durable [`crate::commit_plans`] of `plans`, grow the set of
/// each service that gained patterns. Returns the number of sets published.
pub fn publish(
    board: &PatternBoard,
    plans: &[(String, ServicePlan)],
    outcomes: Vec<CommitOutcome>,
) -> u64 {
    let mut published = 0;
    for ((service, _), outcome) in plans.iter().zip(outcomes) {
        if !outcome.inserted.is_empty() {
            board.grow(service, outcome.inserted);
            published += 1;
        }
    }
    published
}

/// Seconds since the Unix epoch: the `now` both drivers commit with.
pub fn now_unix() -> u64 {
    let since = SystemTime::now().duration_since(UNIX_EPOCH);
    since.map(|d| d.as_secs()).unwrap_or(0)
}
