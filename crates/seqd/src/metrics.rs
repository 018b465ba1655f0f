//! The daemon's operation counters, the one declaration of its own
//! `/metrics` series (`SERIES`), and the two renderings of a per-request
//! `Snapshot`: Prometheus text for `GET /metrics` and JSON for
//! `GET /stats`.
//!
//! All counters are relaxed atomics: they are monotonic event counts with no
//! ordering relationship to each other, and the hot ingest path must not pay
//! for synchronisation it does not need. The one invariant that matters —
//! `ingested = matched + unmatched + rejected + malformed` — holds exactly
//! once the queues are drained, and is asserted that way by the tests.
//!
//! [`Ops`] is a struct per daemon, not a set of `obs` registry entries: the
//! registry is process-global, and one process (a test binary) may run
//! several daemons, each of whose counters must reconcile exactly. What the
//! two share is the text writer: every series here goes through
//! [`obs::write_header`] / [`obs::write_sample`], like the registry's
//! histograms that `/metrics` appends after them.

use jsonlite::Value;
use obs::{Histogram, MetricType};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

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
}

/// One shard's gauges, read for one request.
#[derive(Debug, Default)]
pub(crate) struct ShardSnapshot {
    /// Records waiting in the shard queue.
    pub queue_depth: u64,
    /// Unmatched records awaiting re-mining.
    pub residue: u64,
    /// Unreleased ingest-WAL records and their bytes; `None` without a WAL.
    pub wal_pending: Option<(u64, u64)>,
}

/// Everything `/metrics` and `/stats` report of the daemon, read once per
/// request; both endpoints render it through [`SERIES`].
#[derive(Debug, Default)]
pub(crate) struct Snapshot {
    /// The operation counters.
    pub ops: OpsSnapshot,
    /// One entry per shard, in shard order.
    pub shards: Vec<ShardSnapshot>,
    /// Mining jobs waiting in the miner queue.
    pub mine_queue_depth: u64,
    /// Mining jobs queued or being mined.
    pub mine_backlog: u64,
    /// Services with a published pattern set.
    pub published_services: u64,
    /// Patterns across the published sets.
    pub published_patterns: u64,
    /// Approximate heap bytes of the published sets.
    pub pattern_index_bytes: u64,
    /// Connections currently open.
    pub open_connections: u64,
    /// Seconds since the daemon started.
    pub uptime_seconds: f64,
    /// The store's own pattern count (read for `/stats` only; `None` when a
    /// commit held the store lock).
    pub store_patterns: Option<u64>,
}

/// How a series reads its samples from a [`Snapshot`].
#[derive(Clone, Copy)]
pub(crate) enum Reading {
    /// One unlabelled sample.
    One(fn(&Snapshot) -> f64),
    /// One sample per shard, labelled `shard="<i>"`. `None` (no ingest WAL)
    /// is written as 0 on `/metrics`, so the name set does not depend on the
    /// configuration, and as `null` on `/stats`.
    PerShard(fn(&ShardSnapshot) -> Option<u64>),
}

/// Where a series appears in `/stats`.
#[derive(Clone, Copy)]
pub(crate) enum StatsKey {
    /// Not in `/stats`.
    Omit,
    /// Under this key: the value, or a per-shard series' sum over shards.
    Total(&'static str),
    /// Under this key, one array element per shard.
    Each(&'static str),
}

/// One daemon series: its Prometheus name, help and type, how it is read,
/// and its `/stats` key.
pub(crate) struct Series {
    /// Prometheus metric name.
    pub name: &'static str,
    /// `# HELP` text.
    pub help: &'static str,
    /// `# TYPE`.
    pub ty: MetricType,
    /// How its samples are read.
    pub reading: Reading,
    /// Its `/stats` key, if any.
    pub stats: StatsKey,
}

use MetricType::{Counter, Gauge};
use Reading::{One, PerShard};
use StatsKey::{Each, Omit, Total};

/// Every series the daemon itself exports, in `/metrics` order; the stage
/// histograms of [`stages`] follow from the `obs` registry.
#[rustfmt::skip]
pub(crate) const SERIES: [Series; 23] = [
    Series { name: "seqd_ingested_total", help: "Non-empty stream lines received",
        ty: Counter, reading: One(|s| s.ops.ingested as f64), stats: Total("ingested") },
    Series { name: "seqd_matched_total", help: "Records matched to a known pattern",
        ty: Counter, reading: One(|s| s.ops.matched as f64), stats: Total("matched") },
    Series { name: "seqd_unmatched_total", help: "Records sent to the re-mining residue",
        ty: Counter, reading: One(|s| s.ops.unmatched as f64), stats: Total("unmatched") },
    Series { name: "seqd_rejected_total", help: "Records refused by backpressure",
        ty: Counter, reading: One(|s| s.ops.rejected as f64), stats: Total("rejected") },
    Series { name: "seqd_malformed_total", help: "Lines that were not valid records",
        ty: Counter, reading: One(|s| s.ops.malformed as f64), stats: Total("malformed") },
    Series { name: "seqd_dropped_total", help: "Residue records abandoned after flush retries",
        ty: Counter, reading: One(|s| s.ops.dropped as f64), stats: Total("dropped") },
    Series { name: "seqd_replayed_total", help: "Records recovered from the ingest WAL at start",
        ty: Counter, reading: One(|s| s.ops.replayed as f64), stats: Total("replayed") },
    Series { name: "seqd_pattern_swaps_total", help: "Pattern-set publications",
        ty: Counter, reading: One(|s| s.ops.swaps as f64), stats: Total("pattern_swaps") },
    Series { name: "seqd_mine_jobs_total", help: "Mining jobs accepted by the background miner",
        ty: Counter, reading: One(|s| s.ops.mine_jobs as f64), stats: Omit },
    Series { name: "seqd_mine_coalesced_total",
        help: "Mining submissions merged into an already-pending job",
        ty: Counter, reading: One(|s| s.ops.mine_coalesced as f64), stats: Omit },
    Series { name: "seqd_mine_overflow_total",
        help: "Residue records held past the batch size while the mining queue was full",
        ty: Counter, reading: One(|s| s.ops.mine_overflow as f64), stats: Omit },
    Series { name: "seqd_remine_runs_total", help: "Residue re-mining runs",
        ty: Counter, reading: One(|s| s.ops.remines as f64), stats: Total("remine_runs") },
    Series { name: "seqd_counter_drift_total",
        help: "Fate counters running ahead of ingested (over-accounting; alert on nonzero)",
        ty: Counter, reading: One(|s| s.ops.counter_drift() as f64), stats: Total("counter_drift") },
    Series { name: "seqd_remine_seconds_total", help: "Total time spent re-mining",
        ty: Counter, reading: One(|s| s.ops.remine_ns_total as f64 / 1e9),
        stats: Total("remine_seconds_total") },
    Series { name: "seqd_remine_seconds_last", help: "Duration of the most recent re-mine",
        ty: Gauge, reading: One(|s| s.ops.remine_ns_last as f64 / 1e9), stats: Omit },
    Series { name: "seqd_queue_depth", help: "Records waiting in each shard queue",
        ty: Gauge, reading: PerShard(|s| Some(s.queue_depth)), stats: Each("queue_depths") },
    Series { name: "seqd_residue_len", help: "Unmatched records awaiting re-mining per shard",
        ty: Gauge, reading: PerShard(|s| Some(s.residue)), stats: Total("residue") },
    Series { name: "seqd_open_connections", help: "Connection threads currently live",
        ty: Gauge, reading: One(|s| s.open_connections as f64), stats: Total("open_connections") },
    Series { name: "seqd_wal_pending", help: "Unreleased records in each shard's ingest WAL",
        ty: Gauge, reading: PerShard(|s| s.wal_pending.map(|(n, _)| n)),
        stats: Total("wal_pending") },
    Series { name: "seqd_wal_pending_bytes",
        help: "Bytes of unreleased records in each shard's ingest WAL file",
        ty: Gauge, reading: PerShard(|s| s.wal_pending.map(|(_, b)| b)),
        stats: Total("wal_pending_bytes") },
    Series { name: "seqd_mine_queue_depth", help: "Mining jobs waiting in the background miner queue",
        ty: Gauge, reading: One(|s| s.mine_queue_depth as f64), stats: Omit },
    Series { name: "seqd_pattern_index_bytes",
        help: "Approximate heap bytes of the published pattern sets (entries and matcher index)",
        ty: Gauge, reading: One(|s| s.pattern_index_bytes as f64),
        stats: Total("pattern_index_bytes") },
    Series { name: "seqd_uptime_seconds", help: "Seconds since daemon start",
        ty: Gauge, reading: One(|s| s.uptime_seconds), stats: Total("uptime_seconds") },
];

impl Snapshot {
    /// The daemon's own series in Prometheus text, in [`SERIES`] order.
    pub(crate) fn render_prometheus(&self) -> String {
        let mut out = String::with_capacity(4096);
        for series in &SERIES {
            obs::write_header(&mut out, series.name, series.help, series.ty);
            match series.reading {
                One(read) => obs::write_sample(&mut out, series.name, &[], read(self)),
                PerShard(read) => {
                    for (i, shard) in self.shards.iter().enumerate() {
                        let value = read(shard).unwrap_or(0) as f64;
                        obs::write_sample(
                            &mut out,
                            series.name,
                            &[("shard", &i.to_string())],
                            value,
                        );
                    }
                }
            }
        }
        out
    }

    /// The `/stats` body: every series with a `/stats` key under it, then
    /// the keys `/stats` alone reports, with per-stage and per-service
    /// latency percentiles from the `obs` registry.
    pub(crate) fn render_stats(&self) -> String {
        let number = |n: Option<u64>| n.map_or(Value::Null, |n| Value::from(n as f64));
        let mut stats = std::collections::BTreeMap::new();
        for series in &SERIES {
            let (key, value) = match (series.stats, series.reading) {
                (Omit, _) => continue,
                (Total(key) | Each(key), One(read)) => (key, Value::from(read(self))),
                (Total(key), PerShard(read)) => (key, number(self.shards.iter().map(read).sum())),
                (Each(key), PerShard(read)) => (
                    key,
                    Value::Array(self.shards.iter().map(|s| number(read(s))).collect()),
                ),
            };
            stats.insert(key.to_string(), value);
        }
        for (key, value) in [
            ("in_flight", number(Some(self.ops.in_flight()))),
            ("mine_backlog", number(Some(self.mine_backlog))),
            ("published_services", number(Some(self.published_services))),
            ("published_patterns", number(Some(self.published_patterns))),
            ("store_patterns", number(self.store_patterns)),
            ("latency_ms", latency_json()),
            ("service_latency_ms", service_latency_json()),
        ] {
            stats.insert(key.to_string(), value);
        }
        jsonlite::to_string(&Value::Object(stats))
    }
}

/// p50/p95/p99 (milliseconds) of one histogram snapshot, or `null` when
/// the stage has not recorded yet.
fn quantiles_value(snap: Option<obs::HistSnapshot>) -> Value {
    let Some(snap) = snap.filter(|s| s.count > 0) else {
        return Value::Null;
    };
    let [p50, p95, p99] = snap
        .quantiles_ns([0.50, 0.95, 0.99])
        .map(|ns| ns.map_or(Value::Null, |ns| Value::from(ns as f64 / 1e9 * 1e3)));
    jsonlite::object::<&str, Value>([
        ("count", (snap.count as i64).into()),
        ("p50", p50),
        ("p95", p95),
        ("p99", p99),
    ])
}

/// Pipeline-stage percentiles for `/stats`.
fn latency_json() -> Value {
    let stages = [
        ("ingest_line", "seqd_ingest_line_seconds"),
        ("queue_wait", "seqd_queue_wait_seconds"),
        ("match", "seqd_match_seconds"),
        ("analyze", "rtg_analyze_seconds"),
        ("flush", "seqd_flush_seconds"),
        ("mine", "seqd_mine_seconds"),
        ("mine_stall", "seqd_mine_stall_seconds"),
        ("wal_fsync", "seqd_wal_fsync_seconds"),
    ];
    let r = obs::registry();
    jsonlite::object(stages.map(|(key, hist)| (key, quantiles_value(r.snapshot(hist)))))
}

/// Per-service match-latency percentiles for `/stats`.
fn service_latency_json() -> Value {
    let series = obs::registry().family_snapshots("seqd_service_match_seconds");
    Value::Object(
        series
            .into_iter()
            .filter(|(_, snap)| snap.count > 0)
            .map(|(service, snap)| (service, quantiles_value(Some(snap))))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A snapshot of `ops` alone, with one shard per queue depth.
    fn with_queues(ops: OpsSnapshot, depths: &[u64]) -> Snapshot {
        let shard = |&queue_depth: &u64| ShardSnapshot {
            queue_depth,
            ..ShardSnapshot::default()
        };
        Snapshot {
            ops,
            shards: depths.iter().map(shard).collect(),
            ..Snapshot::default()
        }
    }

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
        let text = with_queues(s, &[]).render_prometheus();
        assert!(text.contains("seqd_counter_drift_total 1"), "{text}");
    }

    #[test]
    fn prometheus_rendering_has_every_series() {
        let ops = Ops::new();
        Ops::add(&ops.ingested, 7);
        ops.record_remine(std::time::Duration::from_millis(5));
        let text = with_queues(ops.snapshot(), &[3, 0]).render_prometheus();
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
        let text = with_queues(ops.snapshot(), &[3, 0]).render_prometheus();
        assert_eq!(obs::promlint::lint(&text), Vec::new(), "lint:\n{text}");
    }

    /// Every sample of one series in a Prometheus text, in order.
    fn samples(text: &str, name: &str) -> Vec<f64> {
        text.lines()
            .filter(|l| !l.starts_with('#'))
            .filter_map(|l| l.rsplit_once(' '))
            .filter(|(series, _)| series.split('{').next() == Some(name))
            .map(|(_, v)| v.parse().unwrap())
            .collect()
    }

    /// A snapshot whose every reading is distinct, so a `/stats` key wired
    /// to the wrong series cannot hold the right number by accident.
    fn distinct_snapshot(wal: bool) -> Snapshot {
        let ops = OpsSnapshot {
            ingested: 1_000,
            matched: 500,
            unmatched: 300,
            rejected: 20,
            malformed: 10,
            dropped: 3,
            replayed: 4,
            swaps: 5,
            mine_jobs: 6,
            mine_coalesced: 7,
            mine_overflow: 8,
            remines: 9,
            remine_ns_total: 2_500_000_000,
            remine_ns_last: 125_000_000,
        };
        let shard = |i: u64| ShardSnapshot {
            queue_depth: 11 + i,
            residue: 13 + i,
            wal_pending: wal.then_some((17 + i, 1_900 + i)),
        };
        Snapshot {
            ops,
            shards: vec![shard(0), shard(1)],
            mine_queue_depth: 23,
            mine_backlog: 29,
            published_services: 31,
            published_patterns: 37,
            pattern_index_bytes: 41_000,
            open_connections: 43,
            uptime_seconds: 47.5,
            store_patterns: Some(53),
        }
    }

    /// `/metrics` and `/stats` rendered from one snapshot agree: every
    /// `/stats` key that has a Prometheus series holds that series' value
    /// (a per-shard series' sum, or its samples as an array for
    /// `queue_depths`), and the stats-only keys hold their readings.
    #[test]
    fn metrics_and_stats_render_one_snapshot_alike() {
        for wal in [true, false] {
            let snap = distinct_snapshot(wal);
            let text = snap.render_prometheus();
            assert_eq!(obs::promlint::lint(&text), Vec::new(), "lint:\n{text}");
            assert_eq!(text.matches("# TYPE").count(), SERIES.len());
            let stats = jsonlite::parse(&snap.render_stats()).unwrap();
            let stat = |key: &str| stats.get(key).unwrap_or_else(|| panic!("no {key}"));
            for (key, name) in [
                ("ingested", "seqd_ingested_total"),
                ("matched", "seqd_matched_total"),
                ("unmatched", "seqd_unmatched_total"),
                ("rejected", "seqd_rejected_total"),
                ("malformed", "seqd_malformed_total"),
                ("dropped", "seqd_dropped_total"),
                ("replayed", "seqd_replayed_total"),
                ("pattern_swaps", "seqd_pattern_swaps_total"),
                ("remine_runs", "seqd_remine_runs_total"),
                ("counter_drift", "seqd_counter_drift_total"),
                ("remine_seconds_total", "seqd_remine_seconds_total"),
                ("residue", "seqd_residue_len"),
                ("open_connections", "seqd_open_connections"),
                ("wal_pending", "seqd_wal_pending"),
                ("wal_pending_bytes", "seqd_wal_pending_bytes"),
                ("pattern_index_bytes", "seqd_pattern_index_bytes"),
                ("uptime_seconds", "seqd_uptime_seconds"),
            ] {
                let values = samples(&text, name);
                assert!(!values.is_empty(), "{name} not rendered:\n{text}");
                if !wal && key.starts_with("wal_") {
                    assert!(stat(key).is_null(), "{key} without a WAL");
                    assert_eq!(values, [0.0, 0.0], "{name} without a WAL");
                } else {
                    let total: f64 = values.iter().sum();
                    assert_eq!(stat(key).as_f64(), Some(total), "{key} vs {name}");
                }
            }
            let depths: Vec<f64> = stat("queue_depths")
                .as_array()
                .unwrap()
                .iter()
                .map(|v| v.as_f64().unwrap())
                .collect();
            assert_eq!(depths, samples(&text, "seqd_queue_depth"));
            assert_eq!(samples(&text, "seqd_remine_seconds_total"), [2.5]);
            for (key, value) in [
                ("in_flight", 170.0),
                ("mine_backlog", 29.0),
                ("published_services", 31.0),
                ("published_patterns", 37.0),
                ("store_patterns", 53.0),
            ] {
                assert_eq!(stat(key).as_f64(), Some(value), "{key}");
            }
        }
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
