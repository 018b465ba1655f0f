//! `seqd` — run the streaming pattern-mining daemon.
//!
//! ```text
//! seqd [--addr HOST:PORT] [--store PATH] [--shards N] [--batch-size N]
//!      [--queue-capacity N] [--io-timeout-ms N] [--max-line-len N]
//!      [--wal-dir PATH] [--wal-sync-every N]
//!      [--pollers N] [--miners N] [--evolve batch]
//!      [--wire event-loop]
//! ```
//!
//! `--miners N` sizes the background mining pool (default: a quarter of the
//! cores; at least 1).
//!
//! `--wire event-loop` and `--evolve batch` are no-ops: the event loop is
//! the only wire path and batch re-mining the only mining path. The flags
//! are still parsed because the frozen benchmark harness passes them
//! (`SEQD_FLAGS` in `benchmark/src/daemon.rs`), and go when a `benchmark`
//! issue drops them there. Any other value exits 2.
//!
//! With `--store` the pattern database is loaded from (and checkpointed back
//! to) the given path, and the ingest WAL defaults to `<store>/ingest-wal`
//! alongside it — so a killed daemon restarted on the same paths replays
//! every receipted-but-unflushed record (`--wal-dir` relocates it).
//! Otherwise the daemon runs on an in-memory store with no WAL and mined
//! patterns live only for the process lifetime. The process exits after a
//! `POST /shutdown` completes the drain.

use patterndb::PatternStore;
use seqd::server::{start, SeqdConfig};
use std::process::ExitCode;
use std::time::Duration;

fn main() -> ExitCode {
    // Before any thread or large block exists: freed job memory must go
    // back to the kernel, not stay in a thread's arena (DESIGN.md, "Memory
    // policy").
    seqd::memory::pin_allocator_policy();
    let mut addr = "127.0.0.1:7464".to_string();
    let mut store_path: Option<String> = None;
    let mut wal_dir: Option<String> = None;
    let mut config = SeqdConfig::default();

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| {
            args.next()
                .unwrap_or_else(|| fail(&format!("{flag} needs a value")))
        };
        match arg.as_str() {
            "--addr" => addr = value("--addr"),
            "--store" => store_path = Some(value("--store")),
            "--shards" => config.shards = positive(&value("--shards"), "--shards"),
            "--batch-size" => {
                config.rtg.batch_size = positive(&value("--batch-size"), "--batch-size")
            }
            "--queue-capacity" => {
                config.queue_capacity = positive(&value("--queue-capacity"), "--queue-capacity")
            }
            "--io-timeout-ms" => {
                config.io_timeout = Duration::from_millis(parse(
                    &value("--io-timeout-ms"),
                    "--io-timeout-ms",
                ) as u64)
            }
            "--max-line-len" => {
                config.max_line_len = parse(&value("--max-line-len"), "--max-line-len")
            }
            "--wal-dir" => wal_dir = Some(value("--wal-dir")),
            "--wal-sync-every" => {
                config.wal_sync_every = parse(&value("--wal-sync-every"), "--wal-sync-every")
            }
            "--wire" => {
                let wire = value("--wire");
                if wire != "event-loop" {
                    fail(&format!(
                        "--wire {wire}: the thread-per-connection wire path was removed; \
                         event-loop is the only wire path (the flag is a no-op)"
                    ));
                }
            }
            "--pollers" => config.pollers = parse(&value("--pollers"), "--pollers"),
            "--evolve" => {
                let evolve = value("--evolve");
                if evolve != "batch" {
                    fail(&format!(
                        "--evolve {evolve}: the online evolver was removed; \
                         batch is the only mining path (the flag is a no-op)"
                    ));
                }
            }
            "--miners" => config.miners = positive(&value("--miners"), "--miners"),
            "--help" | "-h" => {
                println!(
                    "usage: seqd [--addr HOST:PORT] [--store PATH] [--shards N] \
                     [--batch-size N] [--queue-capacity N] [--io-timeout-ms N] \
                     [--max-line-len N] [--wal-dir PATH] [--wal-sync-every N] \
                     [--pollers N] [--miners N] [--evolve batch] \
                     [--wire event-loop]\n\
                     --wire event-loop and --evolve batch are no-ops kept for the \
                     benchmark harness: the event loop is the only wire path and \
                     batch re-mining the only mining path"
                );
                return ExitCode::SUCCESS;
            }
            other => fail(&format!("unknown flag: {other}")),
        }
    }

    let store = match &store_path {
        Some(path) => match PatternStore::open(path) {
            Ok(s) => s,
            Err(e) => fail(&format!("cannot open store {path}: {e}")),
        },
        None => PatternStore::in_memory(),
    };

    // Durability follows the store: a persistent store gets a WAL next to
    // it; an in-memory store has nothing to recover into.
    config.wal_dir = match (&wal_dir, &store_path) {
        (Some(dir), _) => Some(dir.into()),
        (None, Some(store)) => Some(std::path::Path::new(store).join("ingest-wal")),
        (None, None) => None,
    };

    let shards = config.shards;
    let batch_size = config.rtg.batch_size;
    let miners = config.miners;
    let wal_desc = config
        .wal_dir
        .as_ref()
        .map(|p| p.display().to_string())
        .unwrap_or_else(|| "disabled".to_string());
    let handle = match start(store, config, &addr) {
        Ok(h) => h,
        Err(e) => fail(&format!("cannot start daemon on {addr}: {e}")),
    };
    eprintln!(
        "seqd: listening on {} ({} shards, batch {}, {} miners, store {}, wal {})",
        handle.addr(),
        shards,
        batch_size,
        miners,
        store_path.as_deref().unwrap_or("in-memory"),
        wal_desc,
    );
    if let Some(line) = handle.unloaded_notice() {
        eprintln!("seqd: {line}");
    }

    match handle.join() {
        Ok(ops) => {
            eprintln!(
                "seqd: drained — ingested {} matched {} unmatched {} rejected {} \
                 malformed {} dropped {} replayed {}",
                ops.ingested,
                ops.matched,
                ops.unmatched,
                ops.rejected,
                ops.malformed,
                ops.dropped,
                ops.replayed
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("seqd: shutdown failed: {e}");
            ExitCode::FAILURE
        }
    }
}

fn parse(s: &str, flag: &str) -> usize {
    s.parse()
        .unwrap_or_else(|_| fail(&format!("{flag} expects a number, got {s:?}")))
}

/// A count that must be at least 1.
fn positive(s: &str, flag: &str) -> usize {
    match parse(s, flag) {
        0 => fail(&format!("{flag} needs at least 1")),
        n => n,
    }
}

fn fail(msg: &str) -> ! {
    eprintln!("seqd: {msg}");
    std::process::exit(2);
}
