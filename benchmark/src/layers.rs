//! The traced pass: the daemon's (or the CLI's) chain of layers re-composed
//! in this process from each layer's **public** functions, one thread, with
//! a span around every call into a layer.
//!
//! Spans live in memory and are written out when the pass ends. A layer's
//! self time is its spans' duration minus what their child spans cover.
//! The pass runs the chain three times on one set of state: the
//! pre-training corpus (untimed), then `n` lines with spans off, then `n`
//! other, statistically identical lines with spans on — the difference of
//! the last two is the tracing overhead.

use crate::corpus::{Corpus, Inputs};
use crate::workloads::{metric, Metric};
use patterndb::PatternStore;
use seqd::queue::BoundedQueue;
use seqd::ringbuf::RingBuf;
use seqd::swap::PatternBoard;
use seqd::wal::{Accepted, IngestWal};
use sequence_core::{Analyzer, MatchScratch, PatternSet, Scanner, TokenizedMessage};
use sequence_rtg::{
    commit_service, plan_service, LogRecord, Pipeline, RtgConfig, SequenceRtg, ServicePlan,
    StreamIngester,
};
use std::collections::{BTreeMap, HashMap};
use std::io::{self, Write};
use std::path::Path;
use std::time::{Duration, Instant};

/// Lines of the timed corpus the traced pass covers (fewer when half the
/// corpus is smaller).
pub const LAYER_LINES: usize = 200_000;

/// Lines per chunk: what a shard worker pops from its queue at once.
const CHUNK: usize = 512;

/// "Waves" of the traced pass, for the span's wave id.
const PASS_WAVES: usize = 10;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<u32>,
    /// Wave of the traced pass the span belongs to.
    pub wave: u32,
}

/// Records spans while enabled; a disabled tracer makes every call a no-op
/// so the same chain code runs untraced.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    wave: u32,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            wave: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let index = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            wave: self.wave,
        });
        self.open.push(index);
    }

    /// Close the innermost open span.
    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let index = self.open.pop().expect("exit without enter");
        self.spans[index as usize].end_ns = self.now_ns();
    }
}

/// Total self time and span count of one layer.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTime {
    pub self_ns: u64,
    pub total_ns: u64,
    pub spans: u64,
}

/// Self time per span name: duration minus the children's durations.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, LayerTime> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p as usize] += s.end_ns - s.start_ns;
        }
    }
    let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for (s, &children) in spans.iter().zip(&child_ns) {
        let total = s.end_ns - s.start_ns;
        let t = out.entry(s.name).or_default();
        t.self_ns += total.saturating_sub(children);
        t.total_ns += total;
        t.spans += 1;
    }
    out
}

/// Counts taken at the layer boundaries of the traced pass.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counts {
    pub lines: u64,
    pub message_bytes: u64,
    pub tokens: u64,
    pub wal_bytes: u64,
    pub analysed: u64,
    pub analyzer_probe_ns: u64,
}

/// The result of one traced pass.
#[derive(Debug)]
pub struct Trace {
    pub spans: Vec<Span>,
    pub counts: Counts,
    /// Wall time of the `n` untraced lines.
    pub untraced_s: f64,
    /// Wall time of the `n` traced lines.
    pub traced_s: f64,
}

impl Trace {
    /// Write the spans as compact JSON: a name table and one
    /// `[name, start_ns, end_ns, parent, wave]` row per span (`parent` is a
    /// row index, −1 for a root).
    pub fn write_json(&self, path: &Path) -> io::Result<()> {
        let mut names: Vec<&'static str> = Vec::new();
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        write!(
            out,
            "{{\"lines\":{},\"untraced_s\":{},\"traced_s\":{},\"columns\":[\"name\",\
             \"start_ns\",\"end_ns\",\"parent\",\"wave\"],\"spans\":[",
            self.counts.lines, self.untraced_s, self.traced_s,
        )?;
        for (i, s) in self.spans.iter().enumerate() {
            let name = names.iter().position(|n| *n == s.name).unwrap_or_else(|| {
                names.push(s.name);
                names.len() - 1
            });
            let comma = if i > 0 { "," } else { "" };
            let parent = s.parent.map_or(-1, i64::from);
            write!(
                out,
                "{comma}[{name},{},{},{parent},{}]",
                s.start_ns, s.end_ns, s.wave
            )?;
        }
        let names: Vec<String> = names.iter().map(|n| format!("{n:?}")).collect();
        writeln!(out, "],\"names\":[{}]}}", names.join(","))?;
        out.flush()
    }

    fn overhead_share(&self) -> f64 {
        (self.traced_s - self.untraced_s) / self.untraced_s
    }
}

/// The daemon's state, single-threaded: what `seqd::server::start` wires
/// up, minus sockets and threads.
struct Chain {
    config: RtgConfig,
    scanner: Scanner,
    analyzer: Analyzer,
    store: PatternStore,
    wal: IngestWal,
    wal_path: std::path::PathBuf,
    queue: BoundedQueue<Accepted>,
    board: PatternBoard,
    sets: HashMap<String, PatternSet>,
    ring: RingBuf,
    ring_scratch: Vec<u8>,
    tokens: TokenizedMessage,
    scratch: MatchScratch,
    residue: Vec<LogRecord>,
    match_counts: HashMap<String, u64>,
    max_seq: u64,
    counts: Counts,
}

impl Chain {
    fn open(dir: &Path) -> io::Result<Chain> {
        let daemon = seqd::SeqdConfig::default();
        let config = daemon.rtg;
        let store = PatternStore::open(dir.join("store")).map_err(io::Error::other)?;
        let wal_dir = dir.join("store").join("ingest-wal");
        let (wal, _replay) = IngestWal::open(&wal_dir, 1, daemon.wal_sync_every)?;
        Ok(Chain {
            config,
            scanner: Scanner::with_options(config.scanner),
            analyzer: Analyzer::with_options(config.analyzer),
            store,
            wal,
            wal_path: wal_dir.join("shard-0.wal"),
            queue: BoundedQueue::new(daemon.queue_capacity),
            board: PatternBoard::new(),
            sets: HashMap::new(),
            ring: RingBuf::new(daemon.max_line_len + 1),
            ring_scratch: Vec::new(),
            tokens: TokenizedMessage::default(),
            scratch: MatchScratch::default(),
            residue: Vec::new(),
            match_counts: HashMap::new(),
            max_seq: 0,
            counts: Counts::default(),
        })
    }

    /// Run lines `from..to` of `corpus` through every layer.
    fn run(&mut self, corpus: &Corpus, from: usize, to: usize, t: &mut Tracer) -> io::Result<()> {
        let wave_lines = (to - from).div_ceil(PASS_WAVES).max(1);
        let mut at = from;
        while at < to {
            t.wave = ((at - from) / wave_lines) as u32;
            let end = (at + CHUNK).min(to);
            self.chunk(corpus.slice(at, end), t)?;
            at = end;
        }
        // The idle tick: hand over what is left so the WAL is released.
        self.mine(t)
    }

    fn chunk(&mut self, mut wire: &[u8], t: &mut Tracer) -> io::Result<()> {
        // eventloop: fill the connection's ring, split frames, parse each.
        let mut records: Vec<LogRecord> = Vec::with_capacity(CHUNK);
        t.enter("ringbuf.frame_split");
        while !wire.is_empty() {
            self.ring.fill(&mut wire)?;
            while self.ring.next_line_len().is_some() {
                let parsed = self.ring.with_line(&mut self.ring_scratch, |bytes| {
                    t.enter("jsonlite.parse");
                    let text = String::from_utf8_lossy(bytes);
                    let record = LogRecord::from_json_line(text.trim());
                    t.exit();
                    record
                });
                match parsed {
                    Some(Ok(record)) => records.push(record),
                    other => {
                        return Err(io::Error::other(format!(
                            "generated line did not parse: {other:?}"
                        )))
                    }
                }
            }
        }
        t.exit();
        let lines = records.len();

        // router: WAL append (fsync every `wal_sync_every`) and queue push,
        // one public call.
        let log_before = std::fs::metadata(&self.wal_path)?.len();
        t.enter("wal.append_route");
        let accepted =
            self.wal
                .append_route_batch(0, records, &self.queue, Duration::from_millis(250));
        t.exit();
        if accepted != lines {
            return Err(io::Error::other(
                "queue rejected records in the traced pass",
            ));
        }
        self.counts.wal_bytes += std::fs::metadata(&self.wal_path)?.len() - log_before;

        // shard worker: pop, scan, match.
        t.enter("queue.pop");
        let batch = self
            .queue
            .pop_batch(CHUNK, Duration::ZERO)
            .map_err(|()| io::Error::other("queue closed"))?;
        t.exit();
        for Accepted { seq, record } in batch {
            self.max_seq = self.max_seq.max(seq);
            t.enter("scanner.scan");
            self.scanner.scan_into(&record.message, &mut self.tokens);
            t.exit();
            t.enter("matcher.match");
            let hit = self
                .board
                .load(&record.service)
                .and_then(|set| set.match_message_with(&self.tokens, &mut self.scratch));
            t.exit();
            self.counts.lines += 1;
            self.counts.message_bytes += record.message.len() as u64;
            self.counts.tokens += self.tokens.tokens.len() as u64;
            match hit {
                Some(outcome) => *self.match_counts.entry(outcome.pattern_id).or_insert(0) += 1,
                None => self.residue.push(record),
            }
            if self.residue.len() >= self.config.batch_size {
                self.mine(t)?;
            }
        }
        Ok(())
    }

    /// One mining job, as `seqd::miner::mine_job` runs it: plan each
    /// service, commit in one transaction, publish, release the WAL.
    fn mine(&mut self, t: &mut Tracer) -> io::Result<()> {
        if self.residue.is_empty() && self.match_counts.is_empty() {
            return Ok(());
        }
        let now = seqd::shard::now_unix();
        let batch = std::mem::take(&mut self.residue);
        let mut counts: Vec<(String, u64)> = self.match_counts.drain().collect();
        counts.sort_unstable();
        let mut by_service: BTreeMap<&str, Vec<&LogRecord>> = BTreeMap::new();
        for r in &batch {
            by_service.entry(r.service.as_str()).or_default().push(r);
        }

        t.enter("miner.plan");
        let plans: Vec<(&str, ServicePlan)> = by_service
            .iter()
            .map(|(service, records)| {
                let plan = plan_service(
                    &self.scanner,
                    &self.analyzer,
                    &self.config,
                    self.sets.get(*service),
                    &mut self.scratch,
                    records,
                );
                (*service, plan)
            })
            .collect();
        t.exit();

        if t.enabled {
            // The analyser runs inside `plan_service`, where no span of
            // ours reaches. Probe it: analyse the same residue again,
            // discard the result, keep the time out of the chain's budget.
            for records in by_service.values() {
                let scanned: Vec<TokenizedMessage> = records
                    .iter()
                    .map(|r| self.scanner.scan(&r.message))
                    .collect();
                let probing = Instant::now();
                std::hint::black_box(self.analyzer.analyze(&scanned));
                self.counts.analyzer_probe_ns += probing.elapsed().as_nanos() as u64;
                self.counts.analysed += scanned.len() as u64;
            }
        }

        t.enter("miner.commit");
        t.enter("patterndb.txn");
        self.store
            .record_matches_bulk(&counts, now)
            .map_err(io::Error::other)?;
        t.exit();
        let mut outcomes = Vec::with_capacity(plans.len());
        if !batch.is_empty() {
            t.enter("patterndb.txn");
            self.store.begin().map_err(io::Error::other)?;
            for (service, plan) in &plans {
                outcomes.push(
                    commit_service(&mut self.store, service, plan, now)
                        .map_err(io::Error::other)?,
                );
            }
            self.store.commit().map_err(io::Error::other)?;
            t.exit();
        }
        t.exit();

        t.enter("swap.publish");
        for ((service, _), outcome) in plans.iter().zip(outcomes) {
            let set = self.sets.entry(service.to_string()).or_default();
            for (id, pattern) in outcome.inserted {
                set.insert(id, pattern);
            }
            self.board.publish(service, set.clone());
        }
        t.exit();

        t.enter("wal.release");
        self.wal.release(0, self.max_seq)?;
        t.exit();
        Ok(())
    }
}

/// The traced pass of a daemon workload over `inputs`, with its store and
/// WAL under `dir`.
pub fn daemon_chain(inputs: &Inputs, dir: &Path) -> io::Result<Trace> {
    let corpus = &inputs.timed;
    let n = LAYER_LINES.min(corpus.lines() / 2);
    let mut chain = Chain::open(dir)?;
    let mut off = Tracer::new(false);
    chain.run(&inputs.pretrain, 0, inputs.pretrain.lines(), &mut off)?;

    let started = Instant::now();
    chain.run(corpus, n, 2 * n, &mut off)?;
    let untraced_s = started.elapsed().as_secs_f64();

    chain.counts = Counts::default();
    let mut on = Tracer::new(true);
    let started = Instant::now();
    chain.run(corpus, 0, n, &mut on)?;
    let traced_s = started.elapsed().as_secs_f64() - chain.counts.analyzer_probe_ns as f64 / 1e9;
    Ok(Trace {
        spans: on.spans,
        counts: chain.counts,
        untraced_s,
        traced_s,
    })
}

fn per_line(times: &BTreeMap<&'static str, LayerTime>, name: &str, lines: u64) -> f64 {
    times.get(name).map_or(0.0, |t| t.self_ns as f64) / lines.max(1) as f64
}

fn ms_per_span(times: &BTreeMap<&'static str, LayerTime>, name: &str) -> f64 {
    times
        .get(name)
        .map_or(0.0, |t| t.total_ns as f64 / 1e6 / t.spans.max(1) as f64)
}

/// Budget metrics shared by both chains: Σ self times per line, and that
/// sum as a share of the CPU the real program spent per line.
fn budget(
    trace: &Trace,
    times: &BTreeMap<&'static str, LayerTime>,
    extra_ns_per_line: f64,
    cpu_ns_per_line: f64,
) -> Vec<Metric> {
    let sum: u64 = times.values().map(|t| t.self_ns).sum();
    let sum = sum as f64 / trace.counts.lines.max(1) as f64 + extra_ns_per_line;
    vec![
        metric("budget.sum_ns_per_line", sum),
        metric("budget.coverage", sum / cpu_ns_per_line),
        metric("trace.overhead_share", trace.overhead_share()),
    ]
}

/// Per-layer metrics of a daemon workload's traced pass.
pub fn daemon_metrics(trace: &Trace, cpu_ns_per_line: f64) -> Vec<Metric> {
    let times = self_times(&trace.spans);
    let c = trace.counts;
    let scan_ns = per_line(&times, "scanner.scan", c.lines);
    let mut m = vec![
        metric(
            "ringbuf.frame_split_ns_per_line",
            per_line(&times, "ringbuf.frame_split", c.lines),
        ),
        metric(
            "jsonlite.parse_ns_per_line",
            per_line(&times, "jsonlite.parse", c.lines),
        ),
        metric(
            "wal.append_route_ns_per_line",
            per_line(&times, "wal.append_route", c.lines),
        ),
        metric(
            "wal.release_ns_per_line",
            per_line(&times, "wal.release", c.lines),
        ),
        metric(
            "wal.bytes_per_line",
            c.wal_bytes as f64 / c.lines.max(1) as f64,
        ),
        metric(
            "queue.pop_ns_per_line",
            per_line(&times, "queue.pop", c.lines),
        ),
        metric("scanner.scan_ns_per_line", scan_ns),
        metric(
            "scanner.mb_per_s",
            c.message_bytes as f64 / c.lines.max(1) as f64 / scan_ns * 1e3,
        ),
        metric(
            "scanner.tokens_per_line",
            c.tokens as f64 / c.lines.max(1) as f64,
        ),
        metric(
            "matcher.match_ns_per_line",
            per_line(&times, "matcher.match", c.lines),
        ),
        metric(
            "analyzer.analyze_ns_per_line",
            c.analyzer_probe_ns as f64 / c.analysed.max(1) as f64,
        ),
        metric("miner.plan_ms_per_batch", ms_per_span(&times, "miner.plan")),
        metric(
            "miner.commit_ms_per_batch",
            ms_per_span(&times, "miner.commit"),
        ),
        metric(
            "miner.ns_per_line",
            per_line(&times, "miner.plan", c.lines)
                + per_line(&times, "miner.commit", c.lines)
                + per_line(&times, "patterndb.txn", c.lines)
                + per_line(&times, "swap.publish", c.lines),
        ),
    ];
    m.extend(budget(trace, &times, 0.0, cpu_ns_per_line));
    m
}

/// The traced pass of `batch_cli`: stream ingest and the batch pipeline,
/// as the CLI's `main` composes them. The export is not repeated here (it
/// is most of the window); its layer number is the export process's wall.
pub fn cli_chain(inputs: &Inputs) -> io::Result<Trace> {
    let config = RtgConfig {
        batch_size: 100_000, // the CLI's default
        ..RtgConfig::default()
    };
    let rtg = SequenceRtg::new(PatternStore::in_memory(), config).map_err(io::Error::other)?;
    let mut pipeline = Pipeline::new(rtg);
    let n = LAYER_LINES.min(inputs.timed.lines() / 2);
    let mut counts = Counts::default();
    let mut feed = |wire: &[u8], t: &mut Tracer, counts: &mut Counts| -> io::Result<()> {
        let mut ingester = StreamIngester::new(wire, config.batch_size);
        loop {
            t.enter("cli.ingest");
            let batch = ingester.next_batch()?;
            t.exit();
            let Some(batch) = batch else { break };
            counts.lines += batch.len() as u64;
            t.enter("cli.pipeline");
            for record in batch {
                pipeline.push(record, 0).map_err(io::Error::other)?;
            }
            t.exit();
        }
        t.enter("cli.pipeline");
        pipeline.flush(0).map_err(io::Error::other)?;
        t.exit();
        Ok(())
    };
    let mut off = Tracer::new(false);
    feed(&inputs.pretrain.bytes, &mut off, &mut counts)?;
    let started = Instant::now();
    feed(inputs.timed.slice(n, 2 * n), &mut off, &mut counts)?;
    let untraced_s = started.elapsed().as_secs_f64();
    counts = Counts::default();
    let mut on = Tracer::new(true);
    let started = Instant::now();
    feed(inputs.timed.slice(0, n), &mut on, &mut counts)?;
    let traced_s = started.elapsed().as_secs_f64();
    Ok(Trace {
        spans: on.spans,
        counts,
        untraced_s,
        traced_s,
    })
}

/// Per-layer metrics of the CLI's traced pass. `export_ns_per_line` is the
/// export process's wall per timed line, which completes the budget.
pub fn cli_metrics(trace: &Trace, export_ns_per_line: f64, cpu_ns_per_line: f64) -> Vec<Metric> {
    let times = self_times(&trace.spans);
    let lines = trace.counts.lines;
    let mut m = vec![
        metric(
            "cli.ingest_ns_per_line",
            per_line(&times, "cli.ingest", lines),
        ),
        metric(
            "cli.pipeline_ns_per_line",
            per_line(&times, "cli.pipeline", lines),
        ),
    ];
    m.extend(budget(trace, &times, export_ns_per_line, cpu_ns_per_line));
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            wave: 0,
        }
    }

    #[test]
    fn self_time_is_the_span_minus_its_children() {
        let spans = vec![
            span("split", 0, 100, None),
            span("parse", 10, 30, Some(0)),
            span("parse", 40, 70, Some(0)),
            span("scan", 100, 150, None),
            span("inner", 45, 50, Some(2)), // grandchild: charged to "parse" only
        ];
        let t = self_times(&spans);
        assert_eq!(t["split"].self_ns, 50);
        assert_eq!(t["split"].total_ns, 100);
        assert_eq!(t["parse"].self_ns, 45);
        assert_eq!(t["parse"].spans, 2);
        assert_eq!(t["inner"].self_ns, 5);
        assert_eq!(t["scan"].self_ns, 50);
        // Self times partition the traced interval exactly.
        let sum: u64 = t.values().map(|x| x.self_ns).sum();
        assert_eq!(sum, 150);
    }

    #[test]
    fn tracer_nests_and_a_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(true);
        t.enter("outer");
        t.wave = 3;
        t.enter("inner");
        t.exit();
        t.exit();
        assert_eq!(t.spans.len(), 2);
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.spans[1].wave, 3);
        assert!(t.spans[0].end_ns >= t.spans[1].end_ns);
        let mut off = Tracer::new(false);
        off.enter("x");
        off.exit();
        assert!(off.spans.is_empty());
    }

    #[test]
    fn the_chain_counts_every_line_and_releases_the_wal() {
        let inputs = crate::corpus::steady_match_sized(11, 600, 0);
        let dir = std::env::temp_dir().join(format!("seqbench-layers-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut chain = Chain::open(&dir).unwrap();
        let mut t = Tracer::new(true);
        chain.run(&inputs.timed, 0, 6_000, &mut t).unwrap();
        assert_eq!(chain.counts.lines, 6_000);
        assert_eq!(chain.wal.depths(), vec![0]);
        assert!(chain.board.total_patterns() > 0);
        let times = self_times(&t.spans);
        assert_eq!(times["scanner.scan"].spans, 6_000);
        assert_eq!(times["jsonlite.parse"].spans, 6_000);
        assert!(times["miner.plan"].spans >= 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
