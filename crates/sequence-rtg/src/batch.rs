//! The mining step of the CLI's [`crate::Pipeline`] and of `seqd`'s shard
//! workers. Both fill an [`OpenBatch`] on arrival, and at a cut point (each
//! driver keeps its own cut rule) mine it in three calls: [`Mining::plan`]
//! (pure compute, no lock held), [`crate::commit_plans`] (one store
//! transaction) and [`publish`].

use crate::config::RtgConfig;
use crate::record::LogRecord;
use crate::service::{count_match, plan_messages, CommitOutcome, ServicePlan};
use crate::swap::PatternBoard;
use sequence_core::{Analyzer, MatchScratch, PatternSet, Scanner, TokenizedMessage};
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
/// as counts, and the messages it could not, end to end in one buffer. The
/// service name is the batch's key, held once, not once per line.
#[derive(Debug, Default)]
struct ServiceArrivals {
    match_counts: HashMap<String, u64>,
    multiline: u64,
    empty_messages: u64,
    /// The residue's messages, end to end, in arrival order.
    residue: String,
    /// Where each residue message ends in `residue`.
    ends: Vec<usize>,
}

impl ServiceArrivals {
    /// Take one record in; returns how many bytes the residue buffers grew.
    fn take(&mut self, arrival: Arrival<'_>, message: &str) -> usize {
        match arrival {
            Arrival::Matched { id, multiline } => {
                count_match(&mut self.match_counts, id);
                self.multiline += multiline as u64;
            }
            Arrival::Empty { multiline } => {
                self.empty_messages += 1;
                self.multiline += multiline as u64;
            }
            Arrival::Residue => {
                let before = self.residue_bytes();
                self.residue.push_str(message);
                self.ends.push(self.residue.len());
                return self.residue_bytes() - before;
            }
        }
        0
    }

    /// Heap bytes of the residue buffers: their capacities, not their
    /// lengths.
    fn residue_bytes(&self) -> usize {
        self.residue.capacity() + self.ends.capacity() * std::mem::size_of::<usize>()
    }

    /// Append a later share of the same service: residue in order, counts
    /// summed.
    fn merge(&mut self, later: ServiceArrivals) {
        for (id, n) in later.match_counts {
            *self.match_counts.entry(id).or_insert(0) += n;
        }
        self.multiline += later.multiline;
        self.empty_messages += later.empty_messages;
        if self.ends.is_empty() {
            (self.residue, self.ends) = (later.residue, later.ends);
            return;
        }
        let base = self.residue.len();
        self.residue.push_str(&later.residue);
        self.ends.extend(later.ends.iter().map(|end| base + end));
    }

    /// The residue's messages, in arrival order.
    fn messages(&self) -> impl ExactSizeIterator<Item = &str> {
        (0..self.ends.len()).map(|i| {
            let start = if i == 0 { 0 } else { self.ends[i - 1] };
            &self.residue[start..self.ends[i]]
        })
    }
}

/// The batch being filled, record by record (the paper's first
/// partitioning, done on arrival). A batch costs what its unmatched
/// messages cost, not what it received: their bytes, plus one offset each.
#[derive(Debug, Default)]
pub struct OpenBatch {
    received: u64,
    residue: usize,
    /// [`ServiceArrivals::residue_bytes`] summed over services.
    residue_bytes: usize,
    services: HashMap<String, ServiceArrivals>,
}

impl OpenBatch {
    /// Records received since the batch opened.
    pub fn received(&self) -> u64 {
        self.received
    }

    /// Records kept for the analyser, across services. Planning frees the
    /// messages but not this count.
    pub fn residue_len(&self) -> usize {
        self.residue
    }

    /// Heap bytes the residue's buffers hold, across services: what the
    /// batch costs beyond its match counts. Zero once [`Mining::plan`] ran.
    pub fn residue_bytes(&self) -> usize {
        self.residue_bytes
    }

    /// Whether no record arrived.
    pub fn is_empty(&self) -> bool {
        self.received == 0
    }

    /// The residue's messages, service by service, each in arrival order;
    /// nothing once [`Mining::plan`] ran.
    pub fn residue(&self) -> impl Iterator<Item = &str> {
        self.services.values().flat_map(ServiceArrivals::messages)
    }

    /// Arrival matches as `(pattern id, count)`, in no particular order.
    pub fn match_counts(&self) -> impl Iterator<Item = (&str, u64)> {
        let counts = self.services.values().flat_map(|s| &s.match_counts);
        counts.map(|(id, n)| (id.as_str(), *n))
    }

    /// Take one record in, as arrival matching classified it. The batch
    /// copies what it keeps; the caller drops the record.
    pub fn take(&mut self, record: &LogRecord, arrival: Arrival<'_>) {
        self.received += 1;
        self.residue += (arrival == Arrival::Residue) as usize;
        // The service key is copied the first time the batch sees it only.
        self.residue_bytes += match self.services.get_mut(record.service.as_str()) {
            Some(arrivals) => arrivals.take(arrival, &record.message),
            None => {
                let mut arrivals = ServiceArrivals::default();
                let grown = arrivals.take(arrival, &record.message);
                self.services.insert(record.service.clone(), arrivals);
                grown
            }
        };
    }

    /// Append a batch filled after this one: per service, its residue
    /// follows this batch's and its counts add up. Mining the result is
    /// mining one batch filled with both in turn.
    pub fn merge(&mut self, later: OpenBatch) {
        self.received += later.received;
        self.residue += later.residue;
        for (service, arrivals) in later.services {
            let mine = self.services.entry(service).or_default();
            self.residue_bytes -= mine.residue_bytes();
            mine.merge(arrivals);
            self.residue_bytes += mine.residue_bytes();
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
    /// service order, with the arrival counts folded in. A service's
    /// messages are freed as soon as it is planned: its plan holds all that
    /// the commit, a retry of it and the publish read. Each service's
    /// residue is one buffer, so freeing it returns one block, not a block
    /// per line scattered between the next plan's allocations.
    pub fn plan(
        &self,
        board: &PatternBoard,
        batch: &mut OpenBatch,
        scratch: &mut MatchScratch,
    ) -> Vec<(String, ServicePlan)> {
        let mut services: Vec<_> = batch.services.iter_mut().collect();
        services.sort_unstable_by_key(|(service, _)| *service);
        services
            .into_iter()
            .map(|(service, arrivals)| {
                let set = board.load(service);
                let mut plan = plan_messages(
                    &self.scanner,
                    &self.analyzer,
                    set.as_deref(),
                    scratch,
                    arrivals.messages(),
                );
                batch.residue_bytes -= arrivals.residue_bytes();
                (arrivals.residue, arrivals.ends) = (String::new(), Vec::new());
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

#[cfg(test)]
mod tests {
    use super::*;

    /// Each service's residue, in the order [`OpenBatch::residue`] yields
    /// it, keyed by the service its messages name before the first `:`.
    fn residue_by_service(batch: &OpenBatch) -> HashMap<&str, Vec<&str>> {
        let mut out: HashMap<&str, Vec<&str>> = HashMap::new();
        for message in batch.residue() {
            let service = message.split(':').next().unwrap();
            out.entry(service).or_default().push(message);
        }
        out
    }

    #[test]
    fn an_empty_message_without_a_set_is_residue_and_planned_as_empty() {
        let mining = Mining::new(RtgConfig::default());
        let (mut tokens, mut scratch) = (TokenizedMessage::default(), MatchScratch::default());
        let arrival = mining.arrival(None, "", &mut tokens, &mut scratch);
        assert_eq!(
            arrival,
            Arrival::Residue,
            "a service with no set scans nothing"
        );
        let mut batch = OpenBatch::default();
        batch.take(&LogRecord::new("fresh", ""), arrival);
        batch.take(
            &LogRecord::new("fresh", "disk sda1 is full"),
            Arrival::Residue,
        );
        batch.take(&LogRecord::new("fresh", ""), Arrival::Residue);
        assert_eq!(
            batch.residue().collect::<Vec<_>>(),
            ["", "disk sda1 is full", ""]
        );

        let plans = mining.plan(&PatternBoard::new(), &mut batch, &mut scratch);
        let (service, plan) = &plans[0];
        assert_eq!(service, "fresh");
        assert_eq!(
            (plan.received, plan.empty_messages, plan.analyzed),
            (3, 2, 1)
        );
        // Planned, the messages are freed; the count is kept.
        assert_eq!(batch.residue().count(), 0);
        assert_eq!(batch.residue_len(), 3);
    }

    #[test]
    fn multi_byte_messages_come_back_byte_identical() {
        let messages = [
            "café: utilisateur «zoé» connecté ✓",
            "日本語: ログイン 成功 ユーザー 42",
            "emoji: 🚀 launched in 3 ms",
            "emoji: 🚀🚀 launched in 17 ms",
        ];
        let mut batch = OpenBatch::default();
        for m in messages {
            batch.take(&LogRecord::new("intl", m), Arrival::Residue);
        }
        assert_eq!(batch.residue().collect::<Vec<_>>(), messages);

        let mining = Mining::new(RtgConfig::default());
        let plans = mining.plan(
            &PatternBoard::new(),
            &mut batch,
            &mut MatchScratch::default(),
        );
        let plan = &plans[0].1;
        assert_eq!(plan.analyzed, 4);
        let mut members: Vec<u32> = plan
            .discovered
            .iter()
            .flat_map(|d| d.member_indices.iter().copied())
            .collect();
        members.sort_unstable();
        assert_eq!(
            members,
            [0, 1, 2, 3],
            "each message is one line of the plan"
        );
    }

    #[test]
    fn take_then_merge_keeps_every_message_in_arrival_order() {
        let services = ["alpha", "beta", "gamma"];
        let message = |i: usize| {
            let service = services[i * 7 % 3];
            // Lengths vary, the odd one is empty past its prefix.
            let tail = "x".repeat(i % 5);
            (service, format!("{service}:{i} é{tail}"))
        };
        let fill = |range: std::ops::Range<usize>| {
            let mut batch = OpenBatch::default();
            for i in range {
                let (service, message) = message(i);
                let arrival = if i % 4 == 0 {
                    Arrival::Matched {
                        id: "p",
                        multiline: false,
                    }
                } else {
                    Arrival::Residue
                };
                batch.take(&LogRecord::new(service, message), arrival);
            }
            batch
        };
        let mut whole = fill(0..60);
        let mut merged = fill(0..25);
        merged.merge(fill(25..40));
        merged.merge(OpenBatch::default());
        merged.merge(fill(40..60));
        assert_eq!(merged.received(), 60);
        assert_eq!(merged.residue_len(), whole.residue_len());
        assert_eq!(merged.residue_len(), 45);

        let want: HashMap<&str, Vec<String>> = services
            .iter()
            .map(|&s| {
                let of_s = (0..60).filter(|i| i % 4 != 0).map(message);
                (s, of_s.filter(|(t, _)| *t == s).map(|(_, m)| m).collect())
            })
            .collect();
        for batch in [&merged, &whole] {
            let got = residue_by_service(batch);
            for s in services {
                assert_eq!(got[s], want[s], "{s}");
            }
            // The running byte count is what the buffers hold.
            let held: usize = batch.services.values().map(|s| s.residue_bytes()).sum();
            assert_eq!(batch.residue_bytes(), held);
            assert!(held >= got.values().flatten().map(|m| m.len() + 8).sum());
        }
        let counts: Vec<_> = merged.match_counts().collect();
        assert_eq!(counts.iter().map(|(_, n)| n).sum::<u64>(), 15);

        // The merge plans exactly like one batch filled with both.
        let mining = Mining::new(RtgConfig::default());
        let board = PatternBoard::new();
        let mut scratch = MatchScratch::default();
        let a = mining.plan(&board, &mut whole, &mut scratch);
        let b = mining.plan(&board, &mut merged, &mut scratch);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        assert_eq!((whole.residue_bytes(), merged.residue_bytes()), (0, 0));
    }
}
