//! The daemon's operation counters and the Prometheus-style text rendering
//! behind `GET /metrics`.
//!
//! All counters are relaxed atomics: they are monotonic event counts with no
//! ordering relationship to each other, and the hot ingest path must not pay
//! for synchronisation it does not need. The one invariant that matters —
//! `ingested = matched + unmatched + rejected + malformed` — holds exactly
//! once the queues are drained, and is asserted that way by the tests.

use obs::Histogram;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

/// Append one self-describing counter to a Prometheus text exposition.
/// Every series rendered through these helpers carries `# HELP`/`# TYPE`
/// by construction — the class of bug the `promlint` CI gate watches for.
pub fn push_counter(out: &mut String, name: &str, help: &str, value: u64) {
    out.push_str(&format!(
        "# HELP {name} {help}\n# TYPE {name} counter\n{name} {value}\n"
    ));
}

/// Append one self-describing gauge.
pub fn push_gauge(out: &mut String, name: &str, help: &str, value: f64) {
    out.push_str(&format!(
        "# HELP {name} {help}\n# TYPE {name} gauge\n{name} {value}\n"
    ));
}

/// Append a self-describing gauge family with one sample per
/// `(label_value, value)` pair: one `HELP`/`TYPE` header, then the series.
pub fn push_labeled_gauges(
    out: &mut String,
    name: &str,
    help: &str,
    label: &str,
    series: impl IntoIterator<Item = (String, f64)>,
) {
    out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} gauge\n"));
    for (value_label, value) in series {
        out.push_str(&format!("{name}{{{label}=\"{value_label}\"}} {value}\n"));
    }
}

/// The pipeline-stage latency histograms. Each accessor resolves its
/// handle from the process-global [`obs::registry`] once and caches it, so
/// hot paths pay two relaxed atomic adds per record. [`preregister`] creates
/// the whole set up front, making the `/metrics` name contract independent
/// of which code paths have run — the golden-file diff in `ci.sh` relies on
/// this.
pub mod stages {
    use super::*;

    /// Time to parse and route one ingest line (recorded exactly once per
    /// `ingested`-counted line, so `_count` reconciles with the counter).
    pub fn ingest_line() -> &'static Arc<Histogram> {
        obs::histogram!(
            "seqd_ingest_line_seconds",
            "Time to parse and route one ingest line"
        )
    }

    /// Time a record spends in its shard queue between route and pop.
    pub fn queue_wait() -> &'static Arc<Histogram> {
        obs::histogram!(
            "seqd_queue_wait_seconds",
            "Time a record waits in its shard queue before a worker picks it up"
        )
    }

    /// Time to scan and match one record against the published set.
    pub fn match_record() -> &'static Arc<Histogram> {
        obs::histogram!(
            "seqd_match_seconds",
            "Time to scan one record and match it against the published pattern set"
        )
    }

    /// Time for one shard residue flush (bulk stats + re-mine + publish).
    pub fn flush() -> &'static Arc<Histogram> {
        obs::histogram!(
            "seqd_flush_seconds",
            "Time for a shard residue flush: bulk match stats, re-mine, publish"
        )
    }

    /// Time a mining job waits in the miner's queue before a mining thread
    /// picks it up (coalesced batches keep their oldest enqueue stamp).
    pub fn mine_queue_wait() -> &'static Arc<Histogram> {
        obs::histogram!(
            "seqd_mine_queue_wait_seconds",
            "Time a mining job waits in the miner queue before pickup"
        )
    }

    /// Time for one mining job's compute-and-commit core (scan, parse,
    /// analyse, persist) — publishing and WAL release are separate stages.
    pub fn mine() -> &'static Arc<Histogram> {
        obs::histogram!(
            "seqd_mine_seconds",
            "Time for one mining job's plan and commit phases"
        )
    }

    /// Time a shard worker spends paused handing a job to the miner — the
    /// whole ingest pause attributable to a re-mine. Sub-millisecond when
    /// the miner queue has room; grows only at the backpressure cap.
    pub fn mine_stall() -> &'static Arc<Histogram> {
        obs::histogram!(
            "seqd_mine_stall_seconds",
            "Ingest-worker pause per mining handoff (the re-mine stall)"
        )
    }

    /// Time to append one record to the ingest WAL.
    pub fn wal_append() -> &'static Arc<Histogram> {
        obs::histogram!(
            "seqd_wal_append_seconds",
            "Time to append one accepted record to the ingest WAL"
        )
    }

    /// Time for one ingest WAL fsync.
    pub fn wal_fsync() -> &'static Arc<Histogram> {
        obs::histogram!(
            "seqd_wal_fsync_seconds",
            "Time for one ingest WAL fsync (sync_data)"
        )
    }

    /// Time to replay the ingest WAL at daemon start.
    pub fn wal_replay() -> &'static Arc<Histogram> {
        obs::histogram!(
            "seqd_wal_replay_seconds",
            "Time to replay leftover ingest WAL records at start"
        )
    }

    /// Time one event-loop poller spends blocked in `poll(2)` per
    /// iteration (idle waits included — this is the loop's duty cycle).
    pub fn poll_wait() -> &'static Arc<Histogram> {
        obs::histogram!(
            "seqd_poll_wait_seconds",
            "Time an event-loop poller spends blocked in poll(2) per iteration"
        )
    }

    /// Time to drain one ready connection's socket into its ring buffer
    /// (the vectored-read batch of one poll iteration).
    pub fn batch_read() -> &'static Arc<Histogram> {
        obs::histogram!(
            "seqd_batch_read_seconds",
            "Time to drain one ready connection into its ring buffer per poll iteration"
        )
    }

    /// Time to split and parse the NDJSON frames of one drained read.
    pub fn frame_split() -> &'static Arc<Histogram> {
        obs::histogram!(
            "seqd_frame_split_seconds",
            "Time to split and parse the NDJSON frames of one drained read"
        )
    }

    /// Per-service match latency family
    /// (`seqd_service_match_seconds{service="..."}`).
    pub fn service_match(service: &str) -> Arc<Histogram> {
        obs::registry().family_histogram(
            "seqd_service_match_seconds",
            "Per-service scan-and-match latency",
            "service",
            service,
        )
    }

    /// Create every stage histogram this workspace records — the seqd hot
    /// paths above plus the analyser, store, and core-scan stages owned by
    /// other crates — so a scrape exposes the full contract from the first
    /// request.
    pub fn preregister() {
        ingest_line();
        queue_wait();
        match_record();
        flush();
        mine_queue_wait();
        mine();
        mine_stall();
        obs::registry().histogram(
            "seqd_mine_publish_seconds",
            "Time to apply a mining job's insertions and swap the published sets",
        );
        obs::registry().histogram(
            "seqd_mine_wal_release_seconds",
            "Time to release a mined batch's records from the ingest WAL",
        );
        wal_append();
        wal_fsync();
        wal_replay();
        poll_wait();
        batch_read();
        frame_split();
        let r = obs::registry();
        r.histogram(
            "rtg_analyze_seconds",
            "Time for one analyze_by_service batch (scan, mine, persist)",
        );
        r.histogram(
            "rtg_scan_seconds",
            "Time to scan one service's slice of a batch",
        );
        r.histogram(
            "rtg_parse_seconds",
            "Time to parse one service's slice against known patterns",
        );
        r.histogram(
            "patterndb_txn_seconds",
            "Pattern store transaction time, begin to commit",
        );
        r.histogram(
            "patterndb_checkpoint_seconds",
            "Pattern store checkpoint time",
        );
        r.histogram(
            "core_scan_seconds",
            "Tokeniser scan time per message (sampled 1/16)",
        );
        r.histogram(
            "core_match_seconds",
            "Compiled-trie match time per message (sampled 1/16)",
        );
    }
}

/// Monotonic operation counters for one ingest plane.
#[derive(Debug, Default)]
pub struct Ops {
    /// Non-empty stream lines received (accepted + rejected + malformed).
    pub ingested: AtomicU64,
    /// Records matched to an already-known pattern at ingest time.
    pub matched: AtomicU64,
    /// Records that matched nothing and joined the re-mining residue.
    pub unmatched: AtomicU64,
    /// Records refused because a shard queue stayed full past the
    /// backpressure timeout (or the daemon was shutting down).
    pub rejected: AtomicU64,
    /// Lines that were not valid `{service, message}` JSON (including
    /// lines over the ingest length cap).
    pub malformed: AtomicU64,
    /// Residue records abandoned after the bounded flush-retry budget was
    /// exhausted. A subset of `unmatched` — the invariant is untouched —
    /// but any nonzero value means mining lost data and deserves an alert.
    pub dropped: AtomicU64,
    /// Records recovered from the ingest WAL at start (a subset of
    /// `ingested`: replayed records count as ingested again in this
    /// process, since their original receipt was issued by the dead one).
    pub replayed: AtomicU64,
    /// Pattern-set publications (one per service per re-mine).
    pub swaps: AtomicU64,
    /// Mining jobs handed to the miner (queued or run inline; coalesced
    /// submissions merge into an already-queued job and are *not* counted
    /// here — `jobs` is the number of mining runs the executor will perform).
    pub mine_jobs: AtomicU64,
    /// Mining submissions that merged into a job already queued for the
    /// same shard instead of queueing a stale re-mine behind it.
    pub mine_coalesced: AtomicU64,
    /// Residue records a shard accumulated past its batch size because the
    /// mining queue was full (backpressure made visible, never a drop).
    pub mine_overflow: AtomicU64,
    /// Re-mining runs (residue flushes through the analyser).
    pub remines: AtomicU64,
    /// Total nanoseconds spent re-mining.
    pub remine_ns_total: AtomicU64,
    /// Nanoseconds spent in the most recent re-mine.
    pub remine_ns_last: AtomicU64,
}

impl Ops {
    /// A fresh zeroed counter set.
    pub fn new() -> Ops {
        Ops::default()
    }

    /// Add one to a counter (relaxed).
    pub fn inc(counter: &AtomicU64) {
        counter.fetch_add(1, Relaxed);
    }

    /// Add `n` to a counter (relaxed).
    pub fn add(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Relaxed);
    }

    /// Record one re-mining run of the given duration.
    pub fn record_remine(&self, elapsed: std::time::Duration) {
        let ns = elapsed.as_nanos() as u64;
        self.remines.fetch_add(1, Relaxed);
        self.remine_ns_total.fetch_add(ns, Relaxed);
        self.remine_ns_last.store(ns, Relaxed);
    }

    /// A consistent-enough point-in-time copy (each counter read relaxed).
    pub fn snapshot(&self) -> OpsSnapshot {
        OpsSnapshot {
            ingested: self.ingested.load(Relaxed),
            matched: self.matched.load(Relaxed),
            unmatched: self.unmatched.load(Relaxed),
            rejected: self.rejected.load(Relaxed),
            malformed: self.malformed.load(Relaxed),
            dropped: self.dropped.load(Relaxed),
            replayed: self.replayed.load(Relaxed),
            swaps: self.swaps.load(Relaxed),
            mine_jobs: self.mine_jobs.load(Relaxed),
            mine_coalesced: self.mine_coalesced.load(Relaxed),
            mine_overflow: self.mine_overflow.load(Relaxed),
            remines: self.remines.load(Relaxed),
            remine_ns_total: self.remine_ns_total.load(Relaxed),
            remine_ns_last: self.remine_ns_last.load(Relaxed),
        }
    }
}

/// A plain-value copy of [`Ops`] for reporting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpsSnapshot {
    /// See [`Ops::ingested`].
    pub ingested: u64,
    /// See [`Ops::matched`].
    pub matched: u64,
    /// See [`Ops::unmatched`].
    pub unmatched: u64,
    /// See [`Ops::rejected`].
    pub rejected: u64,
    /// See [`Ops::malformed`].
    pub malformed: u64,
    /// See [`Ops::dropped`].
    pub dropped: u64,
    /// See [`Ops::replayed`].
    pub replayed: u64,
    /// See [`Ops::swaps`].
    pub swaps: u64,
    /// See [`Ops::mine_jobs`].
    pub mine_jobs: u64,
    /// See [`Ops::mine_coalesced`].
    pub mine_coalesced: u64,
    /// See [`Ops::mine_overflow`].
    pub mine_overflow: u64,
    /// See [`Ops::remines`].
    pub remines: u64,
    /// See [`Ops::remine_ns_total`].
    pub remine_ns_total: u64,
    /// See [`Ops::remine_ns_last`].
    pub remine_ns_last: u64,
}

impl OpsSnapshot {
    /// Whether every ingested line is accounted for. Only guaranteed after
    /// the shard queues drain — in flight, `ingested` runs ahead.
    pub fn reconciles(&self) -> bool {
        self.ingested == self.matched + self.unmatched + self.rejected + self.malformed
    }

    /// Records still queued (or mid-processing) between ingest and shards.
    pub fn in_flight(&self) -> u64 {
        self.ingested
            .saturating_sub(self.matched + self.unmatched + self.rejected + self.malformed)
    }

    /// Counter drift: how far the per-fate counters run *ahead* of
    /// `ingested`. Always zero in a healthy plane — in flight, `ingested`
    /// leads and [`OpsSnapshot::in_flight`] is positive instead. The
    /// `saturating_sub` there used to mask exactly this over-accounting (a
    /// record double-counted as both matched and unmatched would read as
    /// `in_flight = 0`, indistinguishable from quiescence), so the negative
    /// direction now gets its own series: `seqd_counter_drift_total`,
    /// asserted zero after drain by the observability end-to-end tests.
    pub fn counter_drift(&self) -> u64 {
        (self.matched + self.unmatched + self.rejected + self.malformed)
            .saturating_sub(self.ingested)
    }

    /// Render the Prometheus text exposition format. `queue_depths` become
    /// one `seqd_queue_depth{shard="i"}` gauge per shard; pass `&[]` from
    /// contexts without queues.
    pub fn render_prometheus(&self, queue_depths: &[usize]) -> String {
        let mut out = String::with_capacity(1024);
        for (name, help, value) in [
            (
                "seqd_ingested_total",
                "Non-empty stream lines received",
                self.ingested,
            ),
            (
                "seqd_matched_total",
                "Records matched to a known pattern",
                self.matched,
            ),
            (
                "seqd_unmatched_total",
                "Records sent to the re-mining residue",
                self.unmatched,
            ),
            (
                "seqd_rejected_total",
                "Records refused by backpressure",
                self.rejected,
            ),
            (
                "seqd_malformed_total",
                "Lines that were not valid records",
                self.malformed,
            ),
            (
                "seqd_dropped_total",
                "Residue records abandoned after flush retries",
                self.dropped,
            ),
            (
                "seqd_replayed_total",
                "Records recovered from the ingest WAL at start",
                self.replayed,
            ),
            (
                "seqd_pattern_swaps_total",
                "Pattern-set publications",
                self.swaps,
            ),
            (
                "seqd_mine_jobs_total",
                "Mining jobs accepted by the background miner",
                self.mine_jobs,
            ),
            (
                "seqd_mine_coalesced_total",
                "Mining submissions merged into an already-pending job",
                self.mine_coalesced,
            ),
            (
                "seqd_mine_overflow_total",
                "Residue records held past the batch size while the mining queue was full",
                self.mine_overflow,
            ),
            (
                "seqd_remine_runs_total",
                "Residue re-mining runs",
                self.remines,
            ),
            (
                "seqd_counter_drift_total",
                "Fate counters running ahead of ingested (over-accounting; alert on nonzero)",
                self.counter_drift(),
            ),
        ] {
            push_counter(&mut out, name, help, value);
        }
        out.push_str(&format!(
            "# HELP seqd_remine_seconds_total Total time spent re-mining\n\
             # TYPE seqd_remine_seconds_total counter\n\
             seqd_remine_seconds_total {:.6}\n",
            self.remine_ns_total as f64 / 1e9
        ));
        push_gauge(
            &mut out,
            "seqd_remine_seconds_last",
            "Duration of the most recent re-mine",
            self.remine_ns_last as f64 / 1e9,
        );
        if !queue_depths.is_empty() {
            push_labeled_gauges(
                &mut out,
                "seqd_queue_depth",
                "Records waiting in each shard queue",
                "shard",
                queue_depths
                    .iter()
                    .enumerate()
                    .map(|(i, &d)| (i.to_string(), d as f64)),
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reconciliation_accounts_for_every_line() {
        let ops = Ops::new();
        Ops::add(&ops.ingested, 10);
        Ops::add(&ops.matched, 4);
        Ops::add(&ops.unmatched, 3);
        Ops::add(&ops.rejected, 2);
        Ops::inc(&ops.malformed);
        let s = ops.snapshot();
        assert!(s.reconciles());
        assert_eq!(s.in_flight(), 0);
        Ops::inc(&ops.ingested);
        let s = ops.snapshot();
        assert!(!s.reconciles());
        assert_eq!(s.in_flight(), 1);
        assert_eq!(s.counter_drift(), 0, "records in flight are not drift");
    }

    /// The masked direction of the reconciliation invariant: fate counters
    /// running *ahead* of `ingested` used to vanish into `in_flight`'s
    /// `saturating_sub`; `counter_drift` makes it observable.
    #[test]
    fn over_accounting_surfaces_as_counter_drift() {
        let ops = Ops::new();
        Ops::add(&ops.ingested, 5);
        Ops::add(&ops.matched, 4);
        Ops::add(&ops.unmatched, 2); // one record double-counted
        let s = ops.snapshot();
        assert!(!s.reconciles());
        assert_eq!(s.in_flight(), 0, "the saturating_sub hides the bug");
        assert_eq!(s.counter_drift(), 1, "the drift series exposes it");
        let text = s.render_prometheus(&[]);
        assert!(text.contains("seqd_counter_drift_total 1"), "{text}");
    }

    #[test]
    fn prometheus_rendering_has_every_series() {
        let ops = Ops::new();
        Ops::add(&ops.ingested, 7);
        ops.record_remine(std::time::Duration::from_millis(5));
        let text = ops.snapshot().render_prometheus(&[3, 0]);
        for name in [
            "seqd_ingested_total 7",
            "seqd_matched_total 0",
            "seqd_unmatched_total 0",
            "seqd_rejected_total 0",
            "seqd_malformed_total 0",
            "seqd_dropped_total 0",
            "seqd_replayed_total 0",
            "seqd_pattern_swaps_total 0",
            "seqd_mine_jobs_total 0",
            "seqd_mine_coalesced_total 0",
            "seqd_mine_overflow_total 0",
            "seqd_remine_runs_total 1",
            "seqd_counter_drift_total 0",
            "seqd_remine_seconds_total 0.005",
            "seqd_remine_seconds_last 0.005",
            "seqd_queue_depth{shard=\"0\"} 3",
            "seqd_queue_depth{shard=\"1\"} 0",
        ] {
            assert!(text.contains(name), "missing {name} in:\n{text}");
        }
        // Every series carries HELP and TYPE comments.
        assert_eq!(
            text.matches("# HELP").count(),
            text.matches("# TYPE").count()
        );
    }

    /// The self-description contract, enforced at the unit level with the
    /// same linter `ci.sh` runs against a live scrape.
    #[test]
    fn prometheus_rendering_passes_promlint() {
        let ops = Ops::new();
        Ops::add(&ops.ingested, 7);
        ops.record_remine(std::time::Duration::from_millis(5));
        let text = ops.snapshot().render_prometheus(&[3, 0]);
        assert_eq!(obs::promlint::lint(&text), Vec::new(), "lint:\n{text}");
    }

    #[test]
    fn stage_histograms_preregister_and_render_cleanly() {
        stages::preregister();
        stages::ingest_line().record_ns(1_000);
        stages::service_match("sshd").record_ns(2_000);
        let text = obs::registry().render_prometheus();
        assert_eq!(obs::promlint::lint(&text), Vec::new(), "lint:\n{text}");
        let names = obs::promlint::metric_names(&text);
        for required in [
            "seqd_ingest_line_seconds",
            "seqd_queue_wait_seconds",
            "seqd_match_seconds",
            "seqd_flush_seconds",
            "seqd_mine_queue_wait_seconds",
            "seqd_mine_seconds",
            "seqd_mine_stall_seconds",
            "seqd_mine_publish_seconds",
            "seqd_mine_wal_release_seconds",
            "seqd_wal_append_seconds",
            "seqd_wal_fsync_seconds",
            "seqd_wal_replay_seconds",
            "seqd_poll_wait_seconds",
            "seqd_batch_read_seconds",
            "seqd_frame_split_seconds",
            "seqd_service_match_seconds",
            "rtg_analyze_seconds",
            "patterndb_txn_seconds",
            "core_scan_seconds",
        ] {
            assert!(names.iter().any(|n| n == required), "missing {required}");
        }
    }

    #[test]
    fn remine_timing_accumulates() {
        let ops = Ops::new();
        ops.record_remine(std::time::Duration::from_millis(2));
        ops.record_remine(std::time::Duration::from_millis(3));
        let s = ops.snapshot();
        assert_eq!(s.remines, 2);
        assert_eq!(s.remine_ns_total, 5_000_000);
        assert_eq!(s.remine_ns_last, 3_000_000);
    }
}
