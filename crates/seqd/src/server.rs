//! The daemon itself: one TCP listener, two protocols, graceful drain.
//!
//! ```text
//!              ┌────────────────────────────── seqd ───────────────────────────────┐
//!   NDJSON ──▶ │ acceptor ─▶ router ─▶ [bounded queue]×N ─▶ shard workers          │
//!   HTTP   ──▶ │    │          │ WAL                         │  match on arrival   │
//!              │    └─▶ control plane (/healthz /stats        │  into OpenBatch    │
//!              │         /metrics /patterns /shutdown)        ▼  miners: plan ─┐   │
//!              │                                   PatternStore ◀── commit ◀───┤   │
//!              │                                   PatternBoard ◀── publish ◀──┘   │
//!              └───────────────────────────────────────────────────────────────────┘
//! ```
//!
//! A connection's first bytes decide its protocol: `GET ` / `POST ` / `HEAD`
//! means HTTP control plane, anything else is an NDJSON ingest stream — so
//! one port serves both, like any modern single-binary daemon.
//!
//! The acceptor hands every socket to the [`crate::eventloop`] pollers,
//! which sniff the protocol, serve ingest streams, and pass HTTP requests
//! back here to a short-lived control-plane thread. Every connection lives
//! under [`SeqdConfig::io_timeout`]: the pollers evict an idle ingest peer
//! (with a receipt for what it completed) and control sockets carry
//! read/write deadlines — a slow-loris client cannot pin a thread or delay
//! shutdown past the deadline.
//!
//! With [`SeqdConfig::wal_dir`] set, accepted records are written to a
//! per-shard ingest WAL and fsynced before the connection receipt, then
//! released by the miner once the records' fate is committed; on start,
//! leftover WAL records are replayed into the shard workers (see
//! `DESIGN.md` §8 for the exact guarantees).
//!
//! Re-mining runs on a background [`Miner`] pool ([`SeqdConfig::miners`]),
//! so a worker's only pause per re-mine is the job handoff (see `DESIGN.md`
//! §11).
//!
//! `POST /shutdown` (or [`SeqdHandle::initiate_shutdown`]) starts the drain:
//! the acceptor stops, queues close (late pushes reject), each worker drains
//! its queue and hands its residue to the miner in one final blocking
//! submission, the miner drains its pending jobs, and [`SeqdHandle::join`]
//! waits out in-flight connections (bounded by the deadline) and
//! checkpoints the store before returning the final counter snapshot.

use crate::eventloop::{self, EventLoop, EventLoopDeps};
use crate::http::{respond, Request};
use crate::memory::{self, HeapInfo};
use crate::metrics::{Ops, OpsSnapshot, ShardSnapshot, Snapshot};
use crate::miner::{DrainSignal, Miner, MinerDeps};
use crate::queue::BoundedQueue;
use crate::shard::{Router, ShardWorker};
use crate::swap::PatternBoard;
use crate::wal::IngestWal;
use jsonlite::Value;
use patterndb::PatternStore;
use sequence_rtg::{Mining, RtgConfig};
use std::io::{self, BufReader, BufWriter, Read};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Daemon configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct SeqdConfig {
    /// Worker threads; each owns a disjoint slice of the service space.
    pub shards: usize,
    /// Bounded queue slots per shard.
    pub queue_capacity: usize,
    /// Longest accepted ingest line, terminator included; longer lines are
    /// counted `malformed` and discarded without being buffered.
    pub max_line_len: usize,
    /// Idle deadline for every accepted connection: ingest peers silent
    /// this long are evicted, control sockets time out their reads and
    /// writes. `Duration::ZERO` disables it (not recommended outside tests:
    /// a stalled peer then holds its slot until it closes).
    pub io_timeout: Duration,
    /// Directory for the per-shard ingest WAL; `None` disables durability
    /// (a crash loses queued-but-unflushed records, as pre-WAL seqd did).
    pub wal_dir: Option<PathBuf>,
    /// Fsync the WAL after this many appends (the receipt path always
    /// syncs, so this only bounds work lost to an *OS* crash mid-stream).
    pub wal_sync_every: usize,
    /// Background mining threads (at least one); the default is a quarter
    /// of the cores.
    pub miners: usize,
    /// Event-loop poller threads; `0` means auto (one per core, capped).
    pub pollers: usize,
    /// Mining configuration. Its `batch_size` is the unmatched-residue size
    /// that triggers a re-mine (the paper's batch size, applied to the
    /// *unmatched* stream as in the Fig. 6 deployment). `save_threshold`
    /// must be 0, or [`start`] refuses the configuration: store-wide
    /// pruning from one shard would silently invalidate sets owned by the
    /// others (prune offline, between runs, instead).
    pub rtg: RtgConfig,
}

impl Default for SeqdConfig {
    fn default() -> Self {
        SeqdConfig {
            shards: 4,
            queue_capacity: 10_000,
            max_line_len: 1 << 20,
            io_timeout: Duration::from_secs(30),
            wal_dir: None,
            wal_sync_every: 256,
            miners: default_miners(),
            pollers: 0,
            rtg: RtgConfig {
                batch_size: 5_000,
                save_threshold: 0,
                ..RtgConfig::default()
            },
        }
    }
}

/// How long ingest blocks on a full shard queue before rejecting.
const ENQUEUE_TIMEOUT: Duration = Duration::from_millis(250);

/// Extra mining-commit attempts after the first store failure before a
/// residue batch is abandoned (counted in `dropped`).
const COMMIT_RETRIES: u32 = 3;

/// Backoff before the first commit retry; doubles per attempt.
const COMMIT_BACKOFF: Duration = Duration::from_millis(50);

/// The default miner-pool size: mining is bursty and each job is already
/// internally cheap next to ingest, so a quarter of the cores is plenty.
pub fn default_miners() -> usize {
    std::thread::available_parallelism()
        .map(|n| (n.get() / 4).max(1))
        .unwrap_or(1)
}

struct Shared {
    ops: Arc<Ops>,
    board: Arc<PatternBoard>,
    store: Arc<Mutex<PatternStore>>,
    /// [`sequence_rtg::unloaded_notice`] for the store's load at start.
    unloaded: Option<String>,
    miner: Arc<Miner>,
    router: Arc<Router>,
    residues: Vec<Arc<AtomicUsize>>,
    /// Heap bytes of each shard's residue in hand.
    residue_bytes: Vec<Arc<AtomicUsize>>,
    /// Heap bytes of the open connections' buffers.
    buffer_bytes: Arc<AtomicUsize>,
    wal: Option<Arc<IngestWal>>,
    /// Interrupts mining-retry backoffs once the drain begins.
    drain: Arc<DrainSignal>,
    connections: Arc<AtomicUsize>,
    io_timeout: Duration,
    max_line_len: usize,
    shutdown: Arc<AtomicBool>,
    /// Wake pipes for the event-loop pollers; shutdown kicks them out of
    /// `poll` so the drain starts promptly.
    /// `OnceLock` because the pollers start after `Shared` is built (their
    /// control-handoff closure captures it).
    poller_wakers: std::sync::OnceLock<Vec<UnixStream>>,
    started: Instant,
    addr: SocketAddr,
}

/// Decrements the live-connection gauge when a control-plane thread exits
/// — or when its spawn failed and the closure is dropped unrun.
struct ConnGuard(Arc<Shared>);

impl Drop for ConnGuard {
    fn drop(&mut self) {
        self.0.connections.fetch_sub(1, Ordering::SeqCst);
    }
}

/// A running daemon. Dropping the handle without [`SeqdHandle::join`] leaves
/// the threads running detached; join for a clean drain + checkpoint.
pub struct SeqdHandle {
    shared: Arc<Shared>,
    acceptor: JoinHandle<()>,
    workers: Vec<JoinHandle<()>>,
    event_loop: EventLoop,
}

/// Start the daemon on `addr` (use port 0 for an ephemeral port) over the
/// given pattern store. Patterns already in the store are published to the
/// matching plane immediately. With a WAL directory configured, records
/// left in the log by a previous crash are replayed into the workers
/// before live traffic. A configuration the daemon cannot run as given is
/// refused with `InvalidInput`, never clamped: a zero count, a
/// `max_line_len` below [`eventloop::MIN_LINE_LEN`], or a nonzero
/// `config.rtg.save_threshold`.
pub fn start(mut store: PatternStore, config: SeqdConfig, addr: &str) -> io::Result<SeqdHandle> {
    let invalid = |msg: String| Err(io::Error::new(io::ErrorKind::InvalidInput, msg));
    if config.rtg.save_threshold != 0 {
        return invalid(
            "SeqdConfig::rtg.save_threshold must be 0: the daemon never prunes".to_string(),
        );
    }
    for (name, n) in [
        ("shards", config.shards),
        ("queue_capacity", config.queue_capacity),
        ("miners", config.miners),
        ("rtg.batch_size", config.rtg.batch_size),
        ("wal_sync_every", config.wal_sync_every),
    ] {
        if n == 0 {
            return invalid(format!("SeqdConfig::{name} must be at least 1"));
        }
    }
    if config.max_line_len < eventloop::MIN_LINE_LEN {
        return invalid(format!(
            "SeqdConfig::max_line_len must be at least {}",
            eventloop::MIN_LINE_LEN
        ));
    }
    // Create the full stage-histogram contract up front: the first scrape
    // (and the golden metric-name diff in ci.sh) must not depend on which
    // hot paths have seen traffic.
    crate::metrics::stages::preregister();
    let board = Arc::new(PatternBoard::new());
    let unloaded = board
        .reload(&mut store)
        .map_err(|e| io::Error::other(format!("pattern store load failed: {e}")))?;
    let store = Arc::new(Mutex::new(store));
    let mining = Arc::new(Mining::new(config.rtg));
    let ops = Arc::new(Ops::new());

    let shards = config.shards;
    let (wal, mut replays) = match &config.wal_dir {
        Some(dir) => {
            let (wal, replays) = IngestWal::open(dir, shards, config.wal_sync_every)?;
            (Some(Arc::new(wal)), replays)
        }
        None => (None, vec![Vec::new(); shards]),
    };

    let queues: Vec<_> = (0..shards)
        .map(|_| {
            Arc::new(
                BoundedQueue::new(config.queue_capacity)
                    .with_wait_histogram(Arc::clone(crate::metrics::stages::queue_wait())),
            )
        })
        .collect();
    let router = Arc::new(
        Router::new(queues.clone(), Arc::clone(&ops), ENQUEUE_TIMEOUT).with_wal(wal.clone()),
    );
    let residues: Vec<_> = (0..shards).map(|_| Arc::new(AtomicUsize::new(0))).collect();
    let residue_bytes: Vec<_> = (0..shards).map(|_| Arc::new(AtomicUsize::new(0))).collect();

    // The mining pool. Its queue is bounded by residue records — several
    // batches of headroom per shard, so a miner that falls one job behind
    // a bursty shard absorbs the backlog without tripping the workers'
    // blocking backpressure path (which would put mining right back on
    // the ingest hot path it was moved off of).
    let drain = Arc::new(DrainSignal::new());
    let deps = MinerDeps {
        mining: Arc::clone(&mining),
        store: Arc::clone(&store),
        board: Arc::clone(&board),
        ops: Arc::clone(&ops),
        wal: wal.clone(),
        retries: COMMIT_RETRIES,
        backoff: COMMIT_BACKOFF,
        drain: Arc::clone(&drain),
    };
    let miner = Arc::new(Miner::background(
        deps,
        config.miners,
        config.rtg.batch_size * shards * 8,
    ));

    let listener = TcpListener::bind(addr)?;
    let local_addr = listener.local_addr()?;

    let shared = Arc::new(Shared {
        ops: Arc::clone(&ops),
        board: Arc::clone(&board),
        store,
        unloaded,
        miner: Arc::clone(&miner),
        router: Arc::clone(&router),
        residues: residues.clone(),
        residue_bytes: residue_bytes.clone(),
        buffer_bytes: Arc::new(AtomicUsize::new(0)),
        wal: wal.clone(),
        drain,
        connections: Arc::new(AtomicUsize::new(0)),
        io_timeout: config.io_timeout,
        max_line_len: config.max_line_len,
        shutdown: Arc::new(AtomicBool::new(false)),
        poller_wakers: std::sync::OnceLock::new(),
        started: Instant::now(),
        addr: local_addr,
    });

    let workers: Vec<JoinHandle<()>> = (0..shards)
        .map(|shard_id| {
            let worker = ShardWorker {
                shard_id,
                queue: Arc::clone(&queues[shard_id]),
                miner: Arc::clone(&miner),
                board: Arc::clone(&board),
                ops: Arc::clone(&ops),
                residue_len: Arc::clone(&residues[shard_id]),
                residue_bytes: Arc::clone(&residue_bytes[shard_id]),
                replay: std::mem::take(&mut replays[shard_id]),
                mining: Arc::clone(&mining),
            };
            std::thread::Builder::new()
                .name(format!("seqd-shard-{shard_id}"))
                .spawn(move || worker.run())
                .expect("spawn shard worker")
        })
        .collect();

    // The event-loop pool: pollers own the ingest sockets; HTTP connections
    // are handed back to the blocking control plane with their
    // already-buffered bytes prepended.
    let control: Arc<dyn Fn(TcpStream, Vec<u8>) + Send + Sync> = {
        let shared = Arc::clone(&shared);
        Arc::new(move |stream: TcpStream, prefix: Vec<u8>| {
            let shared = Arc::clone(&shared);
            // The guard rides into the thread; a failed spawn drops
            // the closure unrun and still decrements the gauge.
            let guard = ConnGuard(Arc::clone(&shared));
            let _ = std::thread::Builder::new()
                .name("seqd-ctl".to_string())
                .spawn(move || {
                    let _guard = guard;
                    let _ = stream.set_nonblocking(false);
                    // `Some(ZERO)` is an error to the socket API, so ZERO
                    // means "no deadline" here.
                    if !shared.io_timeout.is_zero() {
                        let _ = stream.set_read_timeout(Some(shared.io_timeout));
                        let _ = stream.set_write_timeout(Some(shared.io_timeout));
                    }
                    let Ok(clone) = stream.try_clone() else {
                        return;
                    };
                    let mut reader = io::Cursor::new(prefix).chain(BufReader::new(clone));
                    let mut writer = BufWriter::new(stream);
                    let _ = serve_control(&mut reader, &mut writer, &shared);
                });
        })
    };
    let pollers = if config.pollers == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(2)
            .clamp(1, 8)
    } else {
        config.pollers
    };
    let deps = EventLoopDeps {
        router: Arc::clone(&router),
        ops: Arc::clone(&ops),
        connections: Arc::clone(&shared.connections),
        buffer_bytes: Arc::clone(&shared.buffer_bytes),
        shutdown: Arc::clone(&shared.shutdown),
        max_line_len: shared.max_line_len,
        io_timeout: shared.io_timeout,
        control,
    };
    let (event_loop, mut dispatcher) = EventLoop::start(deps, pollers)?;
    shared
        .poller_wakers
        .set(event_loop.wakers()?)
        .map_err(|_| io::Error::other("poller wakers already set"))?;

    let acceptor = {
        let shared = Arc::clone(&shared);
        std::thread::Builder::new()
            .name("seqd-acceptor".to_string())
            .spawn(move || {
                for conn in listener.incoming() {
                    if shared.shutdown.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = conn else { continue };
                    // The poller owns the socket from here (nonblocking;
                    // deadlines become idle eviction).
                    shared.connections.fetch_add(1, Ordering::SeqCst);
                    if !dispatcher.dispatch(stream) {
                        shared.connections.fetch_sub(1, Ordering::SeqCst);
                    }
                }
            })
            .expect("spawn acceptor")
    };

    Ok(SeqdHandle {
        shared,
        acceptor,
        workers,
        event_loop,
    })
}

impl SeqdHandle {
    /// The bound address (the actual port when started with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// One line about stored patterns that did not parse at start-up and
    /// were left out of the sets, `None` when all loaded. Kept for the
    /// binary to print: clients read its `listening on` line first.
    pub fn unloaded_notice(&self) -> Option<&str> {
        self.shared.unloaded.as_deref()
    }

    /// Live counter snapshot.
    pub fn ops(&self) -> OpsSnapshot {
        self.shared.ops.snapshot()
    }

    /// Begin the drain, exactly as `POST /shutdown` does. Idempotent.
    pub fn initiate_shutdown(&self) {
        initiate_shutdown(&self.shared);
    }

    /// Wait for the drain to complete (blocks until a shutdown has been
    /// initiated by either [`SeqdHandle::initiate_shutdown`] or
    /// `POST /shutdown`), then checkpoint the store and return the final
    /// counters. In-flight connections get a bounded grace period — at most
    /// one io-deadline plus change — so a stalled peer cannot delay
    /// shutdown indefinitely. After `join` returns, every accepted record
    /// is accounted for: `ingested = matched + unmatched + rejected +
    /// malformed`.
    pub fn join(self) -> io::Result<OpsSnapshot> {
        self.acceptor
            .join()
            .map_err(|_| io::Error::other("acceptor panicked"))?;
        // Pollers see the shutdown flag, receipt every open ingest stream,
        // and exit; their queue pushes all reject once the router closes.
        self.event_loop.join()?;
        for w in self.workers {
            w.join()
                .map_err(|_| io::Error::other("shard worker panicked"))?;
        }
        // Workers are done submitting; let the miner drain its pending jobs
        // (a worker's final blocking submit has already been accepted, so
        // nothing can be lost between the two joins).
        self.shared.miner.close();
        self.shared.miner.join();
        // Give in-flight control-plane threads one deadline's worth of time
        // to answer and exit.
        let grace = self.shared.io_timeout.max(Duration::from_secs(1)) + Duration::from_secs(1);
        let waited = Instant::now();
        while self.shared.connections.load(Ordering::SeqCst) > 0 && waited.elapsed() < grace {
            std::thread::sleep(Duration::from_millis(5));
        }
        let mut store = self
            .shared
            .store
            .lock()
            .map_err(|_| io::Error::other("store lock poisoned"))?;
        store
            .checkpoint()
            .map_err(|e| io::Error::other(format!("store checkpoint failed: {e}")))?;
        Ok(self.shared.ops.snapshot())
    }
}

fn initiate_shutdown(shared: &Shared) {
    if shared.shutdown.swap(true, Ordering::SeqCst) {
        return; // already draining
    }
    shared.router.close();
    // Cut any in-progress mining-retry backoff short: the drain must not
    // wait out the exponential ladder (see `DrainSignal`).
    shared.drain.trip();
    // Kick sleeping pollers so they finalize their connections now.
    if let Some(wakers) = shared.poller_wakers.get() {
        eventloop::wake(wakers);
    }
    // Wake the acceptor out of `accept()` with a throwaway connection.
    let _ = TcpStream::connect(shared.addr);
}

fn serve_control<R: io::BufRead, W: io::Write>(
    reader: &mut R,
    writer: &mut W,
    shared: &Shared,
) -> io::Result<()> {
    let Some(req) = Request::read_from(reader) else {
        return respond(writer, 400, "text/plain; charset=utf-8", "bad request\n");
    };
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => respond(writer, 200, "text/plain; charset=utf-8", "ok\n"),
        ("GET", "/stats") => {
            let mut snap = snapshot(shared);
            // The store's own pattern count needs the store lock; a commit
            // may hold it briefly, so report `null` rather than stall.
            snap.store_patterns = shared
                .store
                .try_lock()
                .ok()
                .and_then(|mut store| store.pattern_count().ok());
            respond(writer, 200, "application/json", &snap.render_stats())
        }
        ("GET", "/metrics") => {
            let mut snap = snapshot(shared);
            // The allocator's totals take every arena's lock, so they are
            // read here and for `/debug/memory`, not for `/stats`.
            snap.resident_bytes = memory::resident().0;
            snap.heap = HeapInfo::read();
            let mut body = snap.render_prometheus();
            // The pipeline-stage latency histograms (obs registry): scan,
            // match, analyse, flush, WAL — the "where does a millisecond
            // go" half of the exposition.
            body.push_str(&obs::registry().render_prometheus());
            respond(
                writer,
                200,
                "text/plain; version=0.0.4; charset=utf-8",
                &body,
            )
        }
        ("GET", "/debug/memory") => respond(
            writer,
            200,
            "application/json",
            &memory_report(shared).to_json(),
        ),
        ("GET", "/debug/slow") => {
            let body = format!("{}\n", obs::registry().slow().to_json());
            respond(writer, 200, "application/json", &body)
        }
        ("GET", "/patterns") => {
            let body = patterns_json(shared, req.query.get("service").map(|s| s.as_str()));
            respond(writer, 200, "application/json", &body)
        }
        ("POST", "/shutdown") => {
            initiate_shutdown(shared);
            respond(writer, 200, "application/json", "{\"draining\":true}\n")
        }
        ("POST", _) | ("GET", _) | ("HEAD", _) => {
            respond(writer, 404, "text/plain; charset=utf-8", "not found\n")
        }
        _ => respond(
            writer,
            405,
            "text/plain; charset=utf-8",
            "method not allowed\n",
        ),
    }
}

/// Read what `/metrics` and `/stats` report, once per request (all but
/// the store's pattern count, which `/stats` adds).
fn snapshot(shared: &Shared) -> Snapshot {
    let ops = shared.ops.snapshot();
    let depths = shared.router.depths();
    let wal = shared.wal.as_ref().map(|w| w.pending());
    let shards = depths
        .iter()
        .zip(&shared.residues)
        .enumerate()
        .map(|(i, (&depth, residue))| ShardSnapshot {
            queue_depth: depth as u64,
            residue: residue.load(Ordering::Relaxed) as u64,
            wal_pending: wal.as_ref().map(|p| (p[i].0 as u64, p[i].1)),
        })
        .collect();
    let (mine_queue_depth, mine_backlog) = shared.miner.depths();
    Snapshot {
        ops,
        shards,
        mine_queue_depth: mine_queue_depth as u64,
        mine_backlog: mine_backlog as u64,
        published_services: shared.board.service_count() as u64,
        published_patterns: shared.board.total_patterns() as u64,
        pattern_index_bytes: shared.board.index_bytes() as u64,
        open_connections: shared.connections.load(Ordering::SeqCst) as u64,
        uptime_seconds: shared.started.elapsed().as_secs_f64(),
        ..Snapshot::default()
    }
}

/// Where the resident set goes: the allocator's totals beside what each
/// named owner holds. The owners are read first and the allocator last, so
/// an owner that shrinks in between reads as unattributed, not as a
/// negative remainder.
fn memory_report(shared: &Shared) -> memory::MemoryReport {
    let sum = |gauges: &[Arc<AtomicUsize>]| -> u64 {
        gauges
            .iter()
            .map(|g| g.load(Ordering::Relaxed) as u64)
            .sum()
    };
    let owners = memory::Owners {
        pattern_sets: shared.board.index_bytes() as u64,
        store_rows: shared.store.lock().map_or(0, |s| s.heap_bytes() as u64),
        shard_residue: sum(&shared.residue_bytes),
        mining_jobs: shared.miner.residue_bytes() as u64,
        shard_queues: shared.router.queue_bytes() as u64,
        ingest_wal: shared.wal.as_ref().map_or(0, |w| w.heap_bytes() as u64),
        connection_buffers: shared.buffer_bytes.load(Ordering::Relaxed) as u64,
    };
    let heap = HeapInfo::read();
    let (resident, resident_peak) = memory::resident();
    memory::MemoryReport {
        resident,
        resident_peak,
        heap,
        owners,
    }
}

fn patterns_json(shared: &Shared, service: Option<&str>) -> String {
    match service {
        Some(service) => {
            let patterns: Vec<Value> = shared
                .board
                .load(service)
                .map(|set| {
                    set.iter()
                        .map(|(id, p)| {
                            jsonlite::object([("id", id), ("pattern", p.render().as_str())])
                        })
                        .collect()
                })
                .unwrap_or_default();
            jsonlite::to_string(&jsonlite::object::<&str, Value>([
                ("service", service.into()),
                ("patterns", Value::Array(patterns)),
            ]))
        }
        None => {
            let services: Vec<Value> = shared
                .board
                .services()
                .into_iter()
                .map(|svc| {
                    let n = shared.board.load(&svc).map_or(0, |s| s.len());
                    jsonlite::object::<&str, Value>([
                        ("service", svc.as_str().into()),
                        ("patterns", (n as i64).into()),
                    ])
                })
                .collect();
            jsonlite::to_string(&jsonlite::object::<&str, Value>([(
                "services",
                Value::Array(services),
            )]))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loadgen;
    use sequence_rtg::SequenceRtg;
    use std::io::{Read, Write};

    fn http(addr: SocketAddr, request: &str) -> (u16, String) {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(request.as_bytes()).unwrap();
        let mut raw = String::new();
        stream.read_to_string(&mut raw).unwrap();
        let status: u16 = raw
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .unwrap_or(0);
        let body = raw.split_once("\r\n\r\n").map(|(_, b)| b).unwrap_or("");
        (status, body.to_string())
    }

    fn get(addr: SocketAddr, path: &str) -> (u16, String) {
        http(addr, &format!("GET {path} HTTP/1.1\r\nHost: t\r\n\r\n"))
    }

    #[test]
    fn daemon_serves_both_protocols_and_drains() {
        let handle = start(
            PatternStore::in_memory(),
            SeqdConfig {
                shards: 2,
                ..SeqdConfig::default()
            },
            "127.0.0.1:0",
        )
        .unwrap();
        let addr = handle.addr();

        let (status, body) = get(addr, "/healthz");
        assert_eq!((status, body.as_str()), (200, "ok\n"));

        // Ingest a few records over a real socket.
        let lines: Vec<String> = (0..20)
            .map(|i| format!(r#"{{"service":"sshd","message":"session opened for user u{i}"}}"#))
            .collect();
        let summary = loadgen::replay_lines(addr, lines.iter().map(|s| s.as_str())).unwrap();
        assert_eq!(summary.accepted, 20);

        // /stats reflects the ingest once the queues drain.
        loadgen::wait_until_processed(addr, 20, Duration::from_secs(10)).unwrap();
        let (_, stats) = get(addr, "/stats");
        let v = jsonlite::parse(&stats).unwrap();
        assert_eq!(v.get("ingested").unwrap().as_i64(), Some(20));
        assert_eq!(v.get("in_flight").unwrap().as_i64(), Some(0));
        assert_eq!(v.get("dropped").unwrap().as_i64(), Some(0));
        assert_eq!(v.get("replayed").unwrap().as_i64(), Some(0));
        assert_eq!(
            v.get("wal_pending").unwrap().as_i64(),
            None,
            "no WAL configured"
        );

        let (_, metrics) = get(addr, "/metrics");
        assert!(metrics.contains("seqd_ingested_total 20"), "{metrics}");
        assert!(metrics.contains("seqd_uptime_seconds"), "{metrics}");
        assert!(metrics.contains("seqd_open_connections"), "{metrics}");

        for name in [
            "seqd_resident_bytes",
            "seqd_heap_in_use_bytes",
            "seqd_allocator_free_bytes",
        ] {
            assert!(metrics.contains(name), "{name} in {metrics}");
        }

        // /debug/memory: the owners, the allocator's free bytes and the
        // remainder add up to the heap.
        let (status, body) = get(addr, "/debug/memory");
        assert_eq!(status, 200);
        let memory = jsonlite::parse(&body).unwrap();
        let n = |k: &str| memory.get(k).and_then(Value::as_f64).unwrap();
        assert_eq!(
            n("owned_bytes") + n("allocator_free_bytes") + n("unattributed_bytes"),
            n("heap_bytes"),
            "{body}"
        );
        assert!(n("resident_bytes") > 0.0, "{body}");
        // The library does not pin the allocator policy; only the binary does.
        assert!(
            memory.get("mmap_threshold_bytes").unwrap().is_null(),
            "{body}"
        );
        let owners = memory.get("owners").and_then(Value::as_object).unwrap();
        assert!(owners["shard_queues"].as_f64().unwrap() > 0.0, "{body}");

        let (status, _) = get(addr, "/nope");
        assert_eq!(status, 404);

        // Drain via the control plane.
        let (status, body) = http(addr, "POST /shutdown HTTP/1.1\r\nHost: t\r\n\r\n");
        assert_eq!(status, 200);
        assert!(body.contains("draining"));
        let final_ops = handle.join().unwrap();
        assert!(final_ops.reconciles(), "{final_ops:?}");
        assert_eq!(final_ops.ingested, 20);
        // All 20 were unmatched (empty store) and mined at drain.
        assert_eq!(final_ops.unmatched, 20);
        assert!(final_ops.remines >= 1);
    }

    #[test]
    fn preloaded_store_patterns_are_served_immediately() {
        // Mine a pattern offline, then hand the store to the daemon.
        let mut engine = SequenceRtg::in_memory(RtgConfig::default());
        let batch: Vec<sequence_rtg::LogRecord> = ["alice", "bob", "carol"]
            .iter()
            .map(|u| sequence_rtg::LogRecord::new("sshd", format!("login from {u} ok")))
            .collect();
        engine.analyze_by_service(&batch, 1).unwrap();
        let store = std::mem::replace(engine.store_mut(), PatternStore::in_memory());

        let handle = start(store, SeqdConfig::default(), "127.0.0.1:0").unwrap();
        let addr = handle.addr();
        let (_, body) = get(addr, "/patterns?service=sshd");
        let v = jsonlite::parse(&body).unwrap();
        assert_eq!(v.get("patterns").unwrap().as_array().unwrap().len(), 1);
        let (_, listing) = get(addr, "/patterns");
        assert!(listing.contains("sshd"), "{listing}");

        // A matching record is counted as matched, not re-mined.
        loadgen::replay_lines(
            addr,
            [r#"{"service":"sshd","message":"login from mallory ok"}"#].into_iter(),
        )
        .unwrap();
        loadgen::wait_until_processed(addr, 1, Duration::from_secs(10)).unwrap();
        handle.initiate_shutdown();
        let ops = handle.join().unwrap();
        assert_eq!(ops.matched, 1);
        assert_eq!(ops.unmatched, 0);
    }

    /// A zero count or a line cap below the ring's floor is refused at
    /// start, not clamped.
    #[test]
    fn zero_counts_and_a_tiny_line_cap_are_refused() {
        let base = SeqdConfig::default;
        let rtg = RtgConfig {
            batch_size: 0,
            ..base().rtg
        };
        for (name, config) in [
            (
                "shards",
                SeqdConfig {
                    shards: 0,
                    ..base()
                },
            ),
            (
                "queue_capacity",
                SeqdConfig {
                    queue_capacity: 0,
                    ..base()
                },
            ),
            (
                "miners",
                SeqdConfig {
                    miners: 0,
                    ..base()
                },
            ),
            ("rtg.batch_size", SeqdConfig { rtg, ..base() }),
            (
                "wal_sync_every",
                SeqdConfig {
                    wal_sync_every: 0,
                    ..base()
                },
            ),
            (
                "max_line_len",
                SeqdConfig {
                    max_line_len: 8,
                    ..base()
                },
            ),
        ] {
            let err = start(PatternStore::in_memory(), config, "127.0.0.1:0")
                .err()
                .expect("refused");
            assert_eq!(err.kind(), io::ErrorKind::InvalidInput, "{name}");
            assert!(err.to_string().contains(name), "{name}: {err}");
        }
    }

    /// The daemon never prunes, so a save threshold is refused at start,
    /// not silently ignored.
    #[test]
    fn a_nonzero_save_threshold_is_refused() {
        let mut config = SeqdConfig::default();
        config.rtg.save_threshold = 2;
        let err = start(PatternStore::in_memory(), config, "127.0.0.1:0")
            .err()
            .expect("refused");
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert!(err.to_string().contains("rtg.save_threshold"), "{err}");
    }

    #[test]
    fn malformed_http_gets_400_and_daemon_survives() {
        let handle = start(
            PatternStore::in_memory(),
            SeqdConfig::default(),
            "127.0.0.1:0",
        )
        .unwrap();
        let addr = handle.addr();
        let (status, _) = http(addr, "GET incomplete\r\n\r\n");
        assert_eq!(status, 400);
        let (status, _) = get(addr, "/healthz");
        assert_eq!(status, 200);
        handle.initiate_shutdown();
        handle.join().unwrap();
    }

    /// The slow-loris regression this PR fixes: a client that connects,
    /// sends half a line, and goes silent used to pin its handler thread in
    /// a deadline-less `read_line` forever. With deadlines armed, shutdown
    /// completes within the configured timeout plus grace — not "whenever
    /// the peer feels like closing".
    #[test]
    fn stalled_client_cannot_delay_shutdown_past_the_deadline() {
        let io_timeout = Duration::from_millis(200);
        let handle = start(
            PatternStore::in_memory(),
            SeqdConfig {
                shards: 1,
                io_timeout,
                ..SeqdConfig::default()
            },
            "127.0.0.1:0",
        )
        .unwrap();
        let addr = handle.addr();

        // The loris: a partial NDJSON line, never terminated, socket held
        // open for the whole test.
        let mut loris = TcpStream::connect(addr).unwrap();
        loris
            .write_all(br#"{"service":"svc","message":"never finis"#)
            .unwrap();

        // Real traffic still flows while the loris dangles.
        let summary = loadgen::replay_lines(
            addr,
            [r#"{"service":"svc","message":"normal record"}"#].into_iter(),
        )
        .unwrap();
        assert_eq!(summary.accepted, 1);
        loadgen::wait_until_processed(addr, 1, Duration::from_secs(10)).unwrap();

        let (status, _) = http(addr, "POST /shutdown HTTP/1.1\r\nHost: t\r\n\r\n");
        assert_eq!(status, 200);
        let shutdown_started = Instant::now();
        let finals = handle.join().unwrap();
        assert!(
            shutdown_started.elapsed() < Duration::from_secs(5),
            "join blocked on the stalled client: {:?}",
            shutdown_started.elapsed()
        );
        assert!(finals.reconciles(), "{finals:?}");
        // The loris's partial line was never a received record.
        assert_eq!(finals.ingested, 1);
        drop(loris);
    }
}
