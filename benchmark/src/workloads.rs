//! The four workload drivers: set-up, timed window, output checks, metrics.

use crate::accuracy;
use crate::corpus::{self, Corpus, Inputs, WAVES};
use crate::daemon::{self, Daemon, Stats};
use crate::layers;
use crate::prom::Scrape;
use crate::sender::{self, Seen, SendReport};
use crate::stats::median;
use seqd::IngestSummary;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Workload names, in running order.
pub const WORKLOADS: [&str; 4] = ["steady_match", "churn_mine", "wire_small", "batch_cli"];

/// Waves of a traced daemon window. The traced run only feeds per-layer
/// metrics (all per line or per batch), so it is the one to keep short.
const TRACED_WAVES: usize = 4;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// A name listed in [`crate::spec`], which also holds its unit.
    pub name: &'static str,
    pub value: f64,
}

/// Shorthand constructor.
pub fn metric(name: &'static str, value: f64) -> Metric {
    Metric { name, value }
}

/// The outcome of one workload run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// The end-to-end metrics of an untraced run followed by its `window.*`
    /// timings, or the per-layer metrics of a traced one.
    pub metrics: Vec<Metric>,
    /// Counts that must repeat exactly from run to run on one seed.
    pub exact: Vec<(&'static str, u64)>,
    /// Lines sent to the program under test.
    pub attempted: u64,
    /// 0, or all of them when an output check failed (a lost line fails
    /// the run at once, so there is nothing in between).
    pub failed: u64,
    /// Every output check that failed, by name.
    pub failures: Vec<String>,
}

/// What a run needs to know besides its workload.
#[derive(Debug, Clone)]
pub struct RunSpec {
    pub seed: u64,
    pub trace: bool,
    /// `benchmark/out`: scratch stores and trace files live here.
    pub out_dir: PathBuf,
}

/// Run one workload by name.
pub fn run(workload: &str, spec: &RunSpec) -> io::Result<Outcome> {
    let scratch = spec
        .out_dir
        .join("scratch")
        .join(format!("{workload}-{}", std::process::id()));
    if scratch.exists() {
        std::fs::remove_dir_all(&scratch)?;
    }
    std::fs::create_dir_all(&scratch)?;
    let result = match workload {
        "steady_match" => daemon_workload(workload, corpus::steady_match, true, spec, &scratch),
        "churn_mine" => daemon_workload(workload, corpus::churn_mine, false, spec, &scratch),
        "wire_small" => daemon_workload(workload, corpus::wire_small, true, spec, &scratch),
        "batch_cli" => batch_cli(spec, &scratch),
        other => Err(io::Error::other(format!("unknown workload {other:?}"))),
    };
    let cleaned = std::fs::remove_dir_all(&scratch);
    let outcome = result?;
    cleaned?;
    Ok(outcome)
}

/// Records a named check; a failed one is remembered and printed.
struct Checks(Vec<String>);

impl Checks {
    fn require(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.0.push(what());
        }
    }
}

/// Total size of the regular files under `dir`, MiB.
fn dir_mb(dir: &Path) -> io::Result<f64> {
    let mut bytes = 0u64;
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        for entry in std::fs::read_dir(d)? {
            let entry = entry?;
            let meta = entry.metadata()?;
            if meta.is_dir() {
                stack.push(entry.path());
            } else {
                bytes += meta.len();
            }
        }
    }
    Ok(bytes as f64 / (1024.0 * 1024.0))
}

/// The end-to-end metrics, in `BENCHMARK.json` order.
fn end_to_end(
    peak_rss_mb: f64,
    lines: u64,
    failed: u64,
    quality: &accuracy::Quality,
    templates_seen: usize,
    setup_s: f64,
) -> Vec<Metric> {
    vec![
        metric("peak_rss_mb", peak_rss_mb),
        metric("ok_share", (lines - failed) as f64 / lines as f64),
        metric("grouping_accuracy", quality.grouping_accuracy),
        metric(
            "patterns_per_template",
            quality.patterns as f64 / templates_seen as f64,
        ),
        metric("setup_s", setup_s),
    ]
}

/// The timings of a window. They are per-layer metrics: on the review host
/// they do not repeat within the bounds an end-to-end metric needs.
fn window_timings(lines_per_s: f64, cpu_s_per_mline: f64, window_s: f64) -> [Metric; 3] {
    [
        metric("window.e2e_lines_per_s", lines_per_s),
        metric("window.cpu_s_per_mline", cpu_s_per_mline),
        metric("window.seconds", window_s),
    ]
}

/// What the traced run says about the patterns left behind.
fn quality_metrics(quality: &accuracy::Quality, templates_seen: usize) -> [Metric; 4] {
    [
        metric("quality.sample_matched_share", quality.matched_share),
        metric("quality.patterns", quality.patterns as f64),
        metric("quality.unparseable_patterns", quality.unparseable as f64),
        metric("quality.templates_seen", templates_seen as f64),
    ]
}

/// Read the single receipt line the daemon answers a half-closed ingest
/// connection with.
fn receipt(mut conn: TcpStream) -> io::Result<IngestSummary> {
    conn.flush()?;
    conn.shutdown(Shutdown::Write)?;
    let mut line = String::new();
    BufReader::new(conn).read_line(&mut line)?;
    IngestSummary::from_json_line(&line)
        .ok_or_else(|| io::Error::other(format!("bad ingest receipt {line:?}")))
}

/// One ingest connection.
fn connect(daemon: &Daemon) -> io::Result<TcpStream> {
    let conn = TcpStream::connect(daemon.addr())?;
    conn.set_nodelay(true)?;
    Ok(conn)
}

/// Send lines `first..first + lines` of `corpus` over `conn` through the
/// closed loop and wait for the drain. Returns the generator's
/// report and the `/stats` reads before the first byte and after the drain.
/// A rejected, malformed or dropped line, or counter drift, fails the run
/// at once: the wave would otherwise wait for a line that is never counted.
fn feed(
    daemon: &Daemon,
    conn: &mut TcpStream,
    corpus: &Corpus,
    first: u64,
    lines: u64,
) -> io::Result<(SendReport, Stats, Stats)> {
    let base = daemon.stats()?;
    let mut last = base;
    let report = sender::run_wave(conn, corpus, first, lines, || {
        last = daemon.stats()?;
        seen_since(&base, &last)
    })?;
    Ok((report, base, last))
}

/// What one `/stats` read says about the wave that started at `base`.
fn seen_since(base: &Stats, now: &Stats) -> io::Result<Seen> {
    let lost = (now.rejected - base.rejected)
        + (now.malformed - base.malformed)
        + (now.dropped - base.dropped);
    if lost > 0 || now.counter_drift != 0 {
        return Err(io::Error::other(format!("daemon lost lines: {now:?}")));
    }
    Ok(Seen {
        processed: now.processed() - base.processed(),
        drained: now.drained(),
    })
}

/// What one wave of a daemon window measured.
#[derive(Debug, Clone, Copy)]
struct Wave {
    report: SendReport,
    /// Lines of the wave the daemon counted unmatched (sent to mining).
    unmatched: u64,
}

/// `steady_match`, `churn_mine` and `wire_small`: a `seqd` child driven over
/// one ingest connection by the windowed closed loop, wave after wave.
fn daemon_workload(
    name: &str,
    build: fn(u64) -> Inputs,
    pretrained: bool,
    spec: &RunSpec,
    scratch: &Path,
) -> io::Result<Outcome> {
    // ---- set-up (timed as `setup_s`) ----
    let setup_started = Instant::now();
    let inputs = build(spec.seed);
    let waves = if spec.trace { TRACED_WAVES } else { WAVES };
    let wave_lines = inputs.wave_lines as u64;
    let timed_lines = wave_lines * waves as u64;
    let store = scratch.join("store");
    let mut checks = Checks(Vec::new());

    let (mut daemon, mut restart) = Daemon::spawn(&store)?;
    let mut pretrain_checkpoint = Duration::ZERO;
    if pretrained {
        let pre_lines = inputs.pretrain.lines() as u64;
        let mut conn = connect(&daemon)?;
        feed(&daemon, &mut conn, &inputs.pretrain, 0, pre_lines)?;
        let summary = receipt(conn)?;
        checks.require(summary.accepted == pre_lines, || {
            format!("pre-training receipt {summary:?}, sent {pre_lines}")
        });
        pretrain_checkpoint = daemon.shutdown()?;
        (daemon, restart) = Daemon::spawn(&store)?;
    }
    // A fifth of a wave, untimed, through the same closed loop, so the
    // pattern sets, caches, allocator arenas and the first WAL segment are
    // hot. It sends the head of the pre-training corpus: no timed line is
    // sent before the window.
    let mut conn = connect(&daemon)?;
    let warm_lines = wave_lines / 5;
    feed(&daemon, &mut conn, &inputs.pretrain, 0, warm_lines)?;
    let scrape_start = spec.trace.then(|| daemon.metrics()).transpose()?;
    let cpu_start = daemon.sample()?.cpu_s;
    let setup_s = setup_started.elapsed().as_secs_f64();

    // ---- timed window ----
    let mut window: Vec<Wave> = Vec::with_capacity(waves);
    let (mut base, mut end) = (None, Stats::default());
    for k in 0..waves as u64 {
        let (report, before, after) = feed(
            &daemon,
            &mut conn,
            &inputs.timed,
            k * wave_lines,
            wave_lines,
        )?;
        window.push(Wave {
            report,
            unmatched: after.unmatched - before.unmatched,
        });
        base.get_or_insert(before);
        end = after;
    }
    let base = base.expect("a window has at least one wave");
    let at_end = daemon.sample()?;
    let scrape_end = spec.trace.then(|| daemon.metrics()).transpose()?;

    // ---- output checks ----
    let summary = receipt(conn)?;
    let sent = warm_lines + timed_lines;
    checks.require(
        summary.accepted == sent && summary.rejected == 0 && summary.malformed == 0,
        || format!("receipt {summary:?}, sent {sent}"),
    );
    let counted = end.processed() - base.processed();
    checks.require(counted == timed_lines, || {
        format!("matched+unmatched grew by {counted}, sent {timed_lines}")
    });
    checks.require(
        end.ingested == end.matched + end.unmatched + end.rejected + end.malformed,
        || format!("counters do not reconcile: {end:?}"),
    );
    checks.require(end.counter_drift == 0, || {
        format!("counter_drift {}", end.counter_drift)
    });
    checks.require(end.dropped == 0, || format!("dropped {}", end.dropped));
    checks.require(end.wal_pending == 0, || {
        format!("WAL not released: {} pending", end.wal_pending)
    });
    let max_in_flight = window.iter().map(|w| w.report.max_in_flight).max();
    checks.require(max_in_flight <= Some(sender::WINDOW), || {
        format!("{max_in_flight:?} lines in flight")
    });
    let checkpoint = daemon.shutdown()?;
    let quality = accuracy::score(&store, &inputs.sample)?;
    checks.require(quality.patterns > 0, || "no patterns left behind".into());

    let failed = if checks.0.is_empty() { 0 } else { timed_lines };
    let rates: Vec<f64> = window
        .iter()
        .map(|w| wave_lines as f64 / w.report.wave_s)
        .collect();
    let window_s: f64 = window.iter().map(|w| w.report.wave_s).sum();
    // One stalled wave (a noisy neighbour, a long fsync) must not move the
    // rate: the median of the ten wave rates, not lines ÷ window.
    let lines_per_s = median(&rates);
    let cpu_s_per_mline = (at_end.cpu_s - cpu_start) / timed_lines as f64 * 1e6;
    let total = |f: fn(&SendReport) -> f64| -> f64 { window.iter().map(|w| f(&w.report)).sum() };
    let wait_share = total(|r| r.wait_s) / window_s;
    eprintln!(
        "seqbench: {name}: window {window_s:.2} s, generator asleep on a full window {wait_share:.3} \
         of it, {} of {timed_lines} lines matched, wave rates {:?}",
        end.matched - base.matched,
        rates.iter().map(|r| r.round()).collect::<Vec<_>>(),
    );
    let mut outcome = Outcome {
        attempted: timed_lines,
        failed,
        failures: checks.0,
        exact: vec![("seqd.matched+unmatched", counted)],
        ..Outcome::default()
    };
    let timings = window_timings(lines_per_s, cpu_s_per_mline, window_s);
    if !spec.trace {
        outcome.metrics = end_to_end(
            at_end.peak_rss_mb,
            timed_lines,
            failed,
            &quality,
            inputs.templates_seen,
            setup_s,
        );
        outcome.metrics.extend(timings);
        return Ok(outcome);
    }

    // ---- per-layer metrics (traced run only) ----
    let scrape = Scrape::delta(
        &scrape_start.expect("traced runs scrape at window start"),
        &scrape_end.expect("traced runs scrape at window end"),
    );
    let trace = layers::daemon_chain(&inputs, &scratch.join("layers"))?;
    trace.write_json(&spec.out_dir.join(format!("trace-{name}.json")))?;
    let sent_bytes: u64 = window.iter().map(|w| w.report.bytes).sum();
    let polls: u64 = window.iter().map(|w| w.report.polls).sum();
    let starved: u64 = window.iter().map(|w| w.report.starved_polls).sum();
    let mined_share = window
        .iter()
        .map(|w| w.unmatched as f64 / wave_lines as f64)
        .fold(f64::INFINITY, f64::min);
    let mut m = layers::daemon_metrics(&trace, cpu_s_per_mline * 1e3);
    m.extend([
        metric("gen.window_wait_share", wait_share),
        metric("gen.poll_share", total(|r| r.poll_s) / window_s),
        metric("gen.starved_poll_share", starved as f64 / polls as f64),
        metric(
            "gen.send_mb_per_s",
            sent_bytes as f64 / 1e6 / total(|r| r.send_s),
        ),
        metric("wal.sync_ms_p50", scrape.p50_ms("seqd_wal_fsync_seconds")),
        metric("wal.syncs", scrape.count("seqd_wal_fsync_seconds")),
        metric(
            "wal.release_ms_p50",
            scrape.p50_ms("seqd_mine_wal_release_seconds"),
        ),
        metric("matcher.set_patterns", end.published_patterns as f64),
        metric(
            "matcher.hit_share",
            (end.matched - base.matched) as f64 / timed_lines as f64,
        ),
        metric("miner.batches", scrape.counter("seqd_mine_jobs_total")),
        metric("miner.lines_mined_share", mined_share),
        metric(
            "patterndb.txn_ms_p50",
            scrape.p50_ms("patterndb_txn_seconds"),
        ),
        metric(
            "patterndb.checkpoint_s",
            checkpoint.max(pretrain_checkpoint).as_secs_f64(),
        ),
        metric("patterndb.store_mb", dir_mb(&store)?),
        metric(
            "swap.publishes",
            (end.pattern_swaps - base.pattern_swaps) as f64,
        ),
        metric(
            "seqd.remine_runs",
            (end.remine_runs - base.remine_runs) as f64,
        ),
        metric("seqd.matched", (end.matched - base.matched) as f64),
        metric("seqd.unmatched", (end.unmatched - base.unmatched) as f64),
        metric("seqd.rejected", (end.rejected - base.rejected) as f64),
        metric(
            "seqd.queue_wait_ms_p50",
            scrape.p50_ms("seqd_queue_wait_seconds"),
        ),
        metric("seqd.restart_s", restart.as_secs_f64()),
    ]);
    m.extend(timings);
    m.extend(quality_metrics(&quality, inputs.templates_seen));
    outcome.metrics = m;
    Ok(outcome)
}

/// Polls a child's peak resident set until told to stop (the kernel drops
/// `VmHWM` once the process exits, so it has to be read while it lives).
fn watch_peak_rss(pid: u32, stop: &AtomicBool) -> f64 {
    let mut peak = 0.0f64;
    while !stop.load(Ordering::SeqCst) {
        if let Ok(status) = std::fs::read_to_string(format!("/proc/{pid}/status")) {
            if let Some(mb) = daemon::peak_rss_mb_from_status(&status) {
                peak = peak.max(mb);
            }
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    peak
}

/// What one `sequence-rtg` child did.
struct CliRun {
    wall_s: f64,
    peak_rss_mb: f64,
    stdout: Vec<u8>,
    stderr: String,
}

/// Run `sequence-rtg` with `args`, piping `input` to its stdin, and require
/// exit code 0.
fn run_cli(args: &[&str], db: &Path, input: &[u8]) -> io::Result<CliRun> {
    let started = Instant::now();
    let mut child = Command::new(daemon::sibling_binary("sequence-rtg")?)
        .arg("--db")
        .arg(db)
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()?;
    let pid = child.id();
    let mut stdin = child.stdin.take().expect("stdin was piped");
    let mut stdout = child.stdout.take().expect("stdout was piped");
    let mut stderr = child.stderr.take().expect("stderr was piped");
    let stop = AtomicBool::new(false);
    let (peak_rss_mb, out, err, fed) = std::thread::scope(|scope| {
        let watcher = scope.spawn(|| watch_peak_rss(pid, &stop));
        let out = scope.spawn(move || {
            let mut buf = Vec::new();
            stdout.read_to_end(&mut buf).map(|_| buf)
        });
        let err = scope.spawn(move || {
            let mut buf = String::new();
            stderr.read_to_string(&mut buf).map(|_| buf)
        });
        let fed = stdin.write_all(input);
        drop(stdin); // end of stream
        let out = out.join().expect("stdout reader panicked");
        let err = err.join().expect("stderr reader panicked");
        stop.store(true, Ordering::SeqCst);
        (watcher.join().expect("watcher panicked"), out, err, fed)
    });
    let status = child.wait()?;
    let wall_s = started.elapsed().as_secs_f64();
    let stderr = err?;
    fed?;
    if !status.success() {
        return Err(io::Error::other(format!(
            "sequence-rtg {args:?} exited with {status}: {stderr}"
        )));
    }
    Ok(CliRun {
        wall_s,
        peak_rss_mb,
        stdout: out?,
        stderr,
    })
}

/// Count the grok blocks of an export and check each has a non-empty match
/// string and a SHA-1 tag. Returns the block count or what is wrong.
pub fn check_grok_export(doc: &str) -> Result<usize, String> {
    let mut matches = 0usize;
    let mut tags = 0usize;
    for line in doc.lines().map(str::trim) {
        if let Some(rest) = line.strip_prefix("match => {\"message\" => \"") {
            let pattern = rest
                .strip_suffix("\"}")
                .ok_or_else(|| format!("unterminated match line {line:?}"))?;
            if pattern.trim().is_empty() {
                return Err(format!("empty grok pattern in block {}", matches + 1));
            }
            matches += 1;
        } else if let Some(rest) = line.strip_prefix("add_tag => [\"") {
            let id = rest.split('"').next().unwrap_or("");
            if id.len() != 40 || !id.bytes().all(|b| b.is_ascii_hexdigit()) {
                return Err(format!("bad pattern id {id:?}"));
            }
            tags += 1;
        }
    }
    if matches == 0 {
        return Err("export holds no pattern".into());
    }
    if matches != tags {
        return Err(format!("{matches} match lines but {tags} tags"));
    }
    Ok(matches)
}

/// `batch_cli`: the paper's deployment — pipe a day of lines to
/// `sequence-rtg` against a populated database, then export for review.
fn batch_cli(spec: &RunSpec, scratch: &Path) -> io::Result<Outcome> {
    // ---- set-up: generate every day and mine the earlier ones, a CLI run
    // per day as the deployment would have ----
    let setup_started = Instant::now();
    let inputs = corpus::batch_cli(spec.seed);
    let db = scratch.join("db");
    let day_lines = inputs.pretrain.lines() / corpus::size::BATCH_EARLIER_DAYS;
    for day in 0..corpus::size::BATCH_EARLIER_DAYS {
        let bytes = inputs
            .pretrain
            .slice(day * day_lines, (day + 1) * day_lines);
        run_cli(&["--quiet"], &db, bytes)?;
    }
    let lines = inputs.timed.lines() as u64;
    let cpu_start = daemon::reaped_children_cpu_s()?;
    let setup_s = setup_started.elapsed().as_secs_f64();

    // ---- timed window: mine today, then export ----
    let window = Instant::now();
    let mine_args: &[&str] = if spec.trace { &[] } else { &["--quiet"] };
    let mine = run_cli(mine_args, &db, &inputs.timed.bytes)?;
    let export = run_cli(&["--export", "grok"], &db, b"")?;
    let window_s = window.elapsed().as_secs_f64();
    let cpu_s = daemon::reaped_children_cpu_s()? - cpu_start;

    // ---- output checks ----
    let mut checks = Checks(Vec::new());
    let doc = String::from_utf8_lossy(&export.stdout);
    let exported = match check_grok_export(&doc) {
        Ok(n) => n,
        Err(why) => {
            checks.0.push(format!("export: {why}"));
            0
        }
    };
    let quality = accuracy::score(&db, &inputs.sample)?;
    let exportable = quality.patterns - quality.unparseable;
    checks.require(exported == exportable, || {
        format!("exported {exported} patterns, database holds {exportable} that parse")
    });
    let failed = if checks.0.is_empty() { 0 } else { lines };
    let mut outcome = Outcome {
        attempted: lines,
        failed,
        failures: checks.0,
        exact: vec![("patterndb.export_patterns", exported as u64)],
        ..Outcome::default()
    };
    let cpu_s_per_mline = cpu_s / lines as f64 * 1e6;
    let timings = window_timings(lines as f64 / window_s, cpu_s_per_mline, window_s);
    if !spec.trace {
        outcome.metrics = end_to_end(
            mine.peak_rss_mb.max(export.peak_rss_mb),
            lines,
            failed,
            &quality,
            inputs.templates_seen,
            setup_s,
        );
        outcome.metrics.extend(timings);
        return Ok(outcome);
    }

    // ---- per-layer metrics (traced run only) ----
    let batches = mine
        .stderr
        .lines()
        .filter(|l| l.starts_with("[batch ") || l.starts_with("[final batch "))
        .count();
    let trace = layers::cli_chain(&inputs)?;
    trace.write_json(&spec.out_dir.join("trace-batch_cli.json"))?;
    let cpu_ns_per_line = cpu_s_per_mline * 1e3;
    let export_ns_per_line = export.wall_s * 1e9 / lines as f64;
    let mut m = layers::cli_metrics(&trace, export_ns_per_line, cpu_ns_per_line);
    m.extend([
        metric("patterndb.store_mb", dir_mb(&db)?),
        metric("patterndb.export_s", export.wall_s),
        metric("patterndb.export_patterns", exported as f64),
        metric("cli.mine_s", mine.wall_s),
        metric("cli.batches", batches as f64),
        metric("matcher.set_patterns", quality.patterns as f64),
    ]);
    m.extend(timings);
    m.extend(quality_metrics(&quality, inputs.templates_seen));
    outcome.metrics = m;
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grok_export_checks() {
        let good = "filter {\n  grok {\n    match => {\"message\" => \"%{INT:a} up\"}\n    \
                    add_tag => [\"2908692bdd6cb4eca096eaa19afebd9e15650b4d\", \"pattern_id\"]\n  }\n}\n";
        assert_eq!(check_grok_export(good), Ok(1));
        assert_eq!(check_grok_export(&good.repeat(3)), Ok(3));
        assert!(check_grok_export("").is_err());
        assert!(check_grok_export(&good.replace("%{INT:a} up", " ")).is_err());
        assert!(check_grok_export(&good.replace("2908", "zzzz")).is_err());
    }

    /// A wave boundary read off a synthetic `/stats` sequence: the wave ends
    /// at the first read where all its lines are counted *and* nothing is
    /// left in the queues, the residue, the miner or the WAL.
    #[test]
    fn wave_boundary_from_a_synthetic_stats_sequence() {
        let at =
            |matched: u64, unmatched: u64, in_flight, residue, mine_backlog, wal_pending| Stats {
                ingested: 500 + matched + unmatched,
                matched: 400 + matched,
                unmatched: 100 + unmatched,
                in_flight,
                residue,
                mine_backlog,
                wal_pending,
                ..Stats::default()
            };
        let base = at(0, 0, 0, 0, 0, 0);
        let reads = [
            at(3_000, 0, 4_000, 0, 0, 7_000),
            at(6_500, 500, 1_000, 500, 0, 8_000),
            at(7_200, 800, 0, 800, 0, 8_000), // all counted, residue held
            at(7_200, 800, 0, 0, 1, 8_000),   // handed to the miner
            at(7_200, 800, 0, 0, 0, 800),     // mined, WAL not yet released
            at(7_200, 800, 0, 0, 0, 0),
        ];
        let mut reads = reads.iter();
        let mut corpus = Corpus::default();
        for _ in 0..8_000 {
            corpus.push("s", "m");
        }
        let mut polls = 0;
        let report = sender::run_wave(&mut Vec::new(), &corpus, 0, 8_000, || {
            polls += 1;
            seen_since(&base, reads.next().expect("the wave ended too late"))
        })
        .unwrap();
        assert_eq!(polls, 6, "the wave ends at the first drained read");
        assert_eq!(report.lines, 8_000);

        let lost = Stats {
            rejected: 1,
            ..at(10, 0, 0, 0, 0, 0)
        };
        assert!(seen_since(&base, &lost).is_err());
        let drift = Stats {
            counter_drift: -1,
            ..at(10, 0, 0, 0, 0, 0)
        };
        assert!(seen_since(&base, &drift).is_err());
    }
}
