//! The Sequence-RTG command-line tool.
//!
//! Mirrors the production deployment in the paper (§IV, Fig. 6): syslog-ng
//! pipes JSON records — `{"service": "...", "message": "..."}`, one per
//! line — to standard input; Sequence-RTG matches each record as it arrives,
//! analyses the unmatched residue of each full batch, and keeps the pattern
//! database up to date. `--export` streams the stored patterns in a chosen
//! format for review and promotion.

use patterndb::export::{export_patterns, ExportFormat, ExportSelection};
use patterndb::{PatternStore, StoreError};
use sequence_rtg::{now_unix, unloaded_notice, Pipeline, RtgConfig, SequenceRtg, StreamIngester};
use std::io::{BufReader, BufWriter, Write};
use std::process::ExitCode;

struct Options {
    db: Option<String>,
    batch_size: usize,
    save_threshold: u64,
    seminal: bool,
    export: Option<ExportFormat>,
    min_count: u64,
    max_complexity: f64,
    quiet: bool,
    review: bool,
    resolve_conflicts: bool,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            db: None,
            batch_size: RtgConfig::default().batch_size,
            save_threshold: 0,
            seminal: false,
            export: None,
            min_count: 1,
            max_complexity: 1.0,
            quiet: false,
            review: false,
            resolve_conflicts: false,
        }
    }
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options::default();
    let mut i = 0usize;
    let value = |i: &mut usize, flag: &str| -> Result<String, String> {
        *i += 1;
        args.get(*i)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    while i < args.len() {
        match args[i].as_str() {
            "--db" => opts.db = Some(value(&mut i, "--db")?),
            "--batch-size" => {
                opts.batch_size = value(&mut i, "--batch-size")?
                    .parse()
                    .ok()
                    .filter(|&n| n > 0)
                    .ok_or_else(|| "--batch-size expects a positive integer".to_string())?
            }
            "--save-threshold" => {
                opts.save_threshold = value(&mut i, "--save-threshold")?
                    .parse()
                    .map_err(|_| "--save-threshold expects an integer".to_string())?
            }
            "--seminal" => opts.seminal = true,
            "--export" => {
                let v = value(&mut i, "--export")?;
                opts.export = Some(ExportFormat::from_flag(&v).ok_or_else(|| {
                    format!("unknown export format {v:?} (syslog-ng | yaml | grok)")
                })?)
            }
            "--min-count" => {
                opts.min_count = value(&mut i, "--min-count")?
                    .parse()
                    .map_err(|_| "--min-count expects an integer".to_string())?
            }
            "--max-complexity" => {
                opts.max_complexity = value(&mut i, "--max-complexity")?
                    .parse()
                    .map_err(|_| "--max-complexity expects a float".to_string())?
            }
            "--quiet" => opts.quiet = true,
            "--review" => opts.review = true,
            "--resolve-conflicts" => opts.resolve_conflicts = true,
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown flag {other:?}")),
        }
        i += 1;
    }
    Ok(opts)
}

/// Records read from stdin at a time. The batch is the pipeline's: a record
/// is matched when it is read, so this only bounds the read buffer.
const READ_CHUNK: usize = 1024;

/// The pattern store until the first record arrives, then the pipeline
/// over it: a run with no input (an export) never compiles a pattern set.
#[allow(clippy::large_enum_variant)] // one value, for the whole run
enum Engine {
    Idle(PatternStore, RtgConfig),
    Mining(Pipeline),
}

impl Engine {
    /// The pipeline, built on the first call (loading the pattern sets).
    fn pipeline(&mut self) -> Result<&mut Pipeline, StoreError> {
        if let Engine::Idle(store, config) = self {
            let store = std::mem::replace(store, PatternStore::in_memory());
            *self = Engine::Mining(Pipeline::new(SequenceRtg::new(store, *config)?));
        }
        match self {
            Engine::Mining(pipeline) => Ok(pipeline),
            Engine::Idle(..) => unreachable!("the pipeline was just built"),
        }
    }

    fn store_mut(&mut self) -> &mut PatternStore {
        match self {
            Engine::Idle(store, _) => store,
            Engine::Mining(pipeline) => pipeline.engine_mut().store_mut(),
        }
    }

    /// Patterns the parser holds, or would hold once loaded; an idle engine
    /// parses each stored pattern and keeps none, saying on stderr which do
    /// not parse, as loading them would.
    fn known_patterns(&mut self) -> Result<usize, StoreError> {
        match self {
            Engine::Mining(pipeline) => Ok(pipeline.engine_mut().board().total_patterns()),
            Engine::Idle(store, _) => {
                let mut known = 0;
                let skipped = store.each_parsed_pattern(|_, _, _| known += 1)?;
                if let Some(line) = unloaded_notice(&skipped) {
                    eprintln!("{line}");
                }
                Ok(known)
            }
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("error: {msg}\n");
            }
            eprintln!("usage: sequence-rtg [--db DIR] [--batch-size N] [--save-threshold N] [--seminal] [--export syslog-ng|yaml|grok] [--min-count N] [--max-complexity F] [--review] [--resolve-conflicts] [--quiet]");
            eprintln!(
                "  --seminal   mine as seminal Sequence: the published scanner, no quality control"
            );
            return if msg.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(2)
            };
        }
    };

    let mut config = if opts.seminal {
        RtgConfig::seminal()
    } else {
        RtgConfig::default()
    };
    config.batch_size = opts.batch_size;
    config.save_threshold = opts.save_threshold;

    let store = match &opts.db {
        Some(dir) => match PatternStore::open(dir) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("error: cannot open pattern database at {dir}: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => PatternStore::in_memory(),
    };
    let mut engine = Engine::Idle(store, config);

    // The data stream ingester: stdin, line-delimited JSON records.
    let stdin = std::io::stdin();
    let mut ingester = StreamIngester::new(BufReader::new(stdin.lock()), READ_CHUNK);
    loop {
        match ingester.next_batch() {
            Ok(None) => break,
            Ok(Some(records)) => {
                let now = now_unix();
                let pipeline = match engine.pipeline() {
                    Ok(p) => p,
                    Err(e) => {
                        eprintln!("error: cannot load patterns: {e}");
                        return ExitCode::FAILURE;
                    }
                };
                for record in records {
                    match pipeline.push(record, now) {
                        Ok(Some(report)) if !opts.quiet => {
                            eprintln!(
                                "[batch {}] received={} matched={} analyzed={} new_patterns={} services={}",
                                pipeline.batches_run(),
                                report.received,
                                report.matched_known,
                                report.analyzed,
                                report.new_patterns,
                                report.services,
                            );
                        }
                        Ok(_) => {}
                        Err(e) => {
                            eprintln!("error: batch analysis failed: {e}");
                            return ExitCode::FAILURE;
                        }
                    }
                }
            }
            Err(e) => {
                eprintln!("error: reading stream: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if let Engine::Mining(pipeline) = &mut engine {
        match pipeline.flush(now_unix()) {
            Ok(Some(report)) if !opts.quiet => {
                eprintln!(
                    "[final batch {}] received={} matched={} analyzed={} new_patterns={}",
                    pipeline.batches_run(),
                    report.received,
                    report.matched_known,
                    report.analyzed,
                    report.new_patterns,
                );
            }
            Ok(_) => {}
            Err(e) => {
                eprintln!("error: final batch analysis failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    let known = match engine.known_patterns() {
        Ok(n) => n,
        Err(e) => {
            eprintln!("error: cannot load patterns: {e}");
            return ExitCode::FAILURE;
        }
    };
    let stats = ingester.stats();
    if !opts.quiet {
        eprintln!(
            "stream done: lines={} records={} malformed={} empty={} | known patterns={}",
            stats.lines, stats.records, stats.malformed, stats.empty, known,
        );
        for (line, err) in ingester.errors() {
            eprintln!("  line {line}: {err}");
        }
    }

    if opts.review {
        let store = engine.store_mut();
        // Multi-match conflicts first ("the most correct pattern would be
        // promoted and the other discarded").
        let candidates = match store.patterns(None) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("error: cannot list candidates: {e}");
                return ExitCode::FAILURE;
            }
        };
        let conflicts = patterndb::find_conflicts(&candidates);
        if !conflicts.is_empty() {
            println!("multi-match conflicts ({}):", conflicts.len());
            for c in conflicts.iter().take(20) {
                println!(
                    "  {} vs {}  example: {:?}",
                    &c.pattern_a[..8],
                    &c.pattern_b[..8],
                    c.example
                );
            }
            if opts.resolve_conflicts {
                let mut resolved = 0;
                let mut dropped: std::collections::HashSet<String> = Default::default();
                for c in &conflicts {
                    if dropped.contains(&c.pattern_a) || dropped.contains(&c.pattern_b) {
                        continue;
                    }
                    if let Ok((_w, l)) = patterndb::resolve_conflict(store, c) {
                        dropped.insert(l);
                        resolved += 1;
                    }
                }
                println!("resolved {resolved} conflicts (kept the more specific pattern)");
            }
        }
        // The priority-ordered review queue.
        match patterndb::ReviewQueue::build(store) {
            Ok(queue) => {
                println!(
                    "
review queue ({} candidates):",
                    queue.items().len()
                );
                println!(
                    "{:>8} {:>8} {:>10} {:<10} pattern",
                    "priority", "count", "complexity", "service"
                );
                for item in queue.top(25) {
                    println!(
                        "{:>8.2} {:>8} {:>10.2} {:<10} {}",
                        item.priority,
                        item.pattern.count,
                        item.pattern.complexity,
                        item.pattern.service,
                        item.pattern.pattern_text,
                    );
                }
            }
            Err(e) => {
                eprintln!("error: cannot build review queue: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    if let Some(format) = opts.export {
        let selection = ExportSelection {
            min_count: opts.min_count,
            max_complexity: opts.max_complexity,
            ..Default::default()
        };
        let mut out = BufWriter::new(std::io::stdout().lock());
        let exported = export_patterns(engine.store_mut(), format, selection, &mut out);
        match exported.and_then(|_skipped| Ok(out.flush()?)) {
            Ok(()) => {}
            Err(StoreError::Io(_)) => return ExitCode::FAILURE,
            Err(e) => {
                eprintln!("error: export failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if opts.db.is_some() {
        if let Err(e) = engine.store_mut().checkpoint() {
            eprintln!("error: checkpoint failed: {e}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
