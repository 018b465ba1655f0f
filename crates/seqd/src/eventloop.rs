//! The wire path: a nonblocking readiness event loop.
//!
//! A small fixed pool of poller threads, each owning a set of nonblocking
//! sockets watched through [`crate::poll::poll_fds`], serves every ingest
//! connection. Bytes land in a per-connection [`RingBuf`] via vectored
//! reads, NDJSON frames are split in place and parsed through `jsonlite`'s
//! borrow mode (two `String`s per record — the fields that outlive the
//! buffer — and nothing else), and all records collected in one poll
//! iteration are routed in per-shard batches with one queue lock and one
//! WAL append each, followed by a single group-commit `fsync` covering
//! every connection that finished this iteration.
//!
//! The protocol is *observationally identical* to the framing reference
//! [`crate::protocol::serve_ingest`] — same counting, same receipt, same
//! oversized/deadline/EOF semantics — which the protocol-torture suite
//! pins by running both over adversarial byte streams. The state machine
//! lives in [`Session`], deliberately fed through the plain [`Read`] trait
//! so those tests run hermetically, without sockets.

use crate::metrics::Ops;
use crate::poll::{poll_fds, PollFd, POLLIN, POLLOUT};
use crate::protocol::IngestSummary;
use crate::ringbuf::RingBuf;
use crate::shard::Router;
use obs::Histogram;
use sequence_rtg::LogRecord;
use std::io::{self, ErrorKind, Read, Write};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Fills per connection per poll iteration, so one firehose peer cannot
/// starve its poller's other connections (level-triggered polling re-flags
/// the socket immediately if it still has data).
const FILL_ROUNDS: usize = 16;

/// Upper bound on one poll sleep: bounds shutdown latency and keeps idle
/// eviction timely even when `io_timeout` is long.
const MAX_POLL: Duration = Duration::from_millis(250);

/// What one [`Session::pump`] call concluded about the stream.
#[derive(Debug)]
pub enum Pump {
    /// The socket has no more bytes right now (`WouldBlock`).
    Drained,
    /// The per-iteration fill cap was reached; the socket may hold more.
    CapReached,
    /// Clean EOF: the final fragment (if any) has been processed and the
    /// connection should be receipted once its records are routed.
    Eof,
    /// The first line classified as HTTP; the payload is every buffered
    /// byte, to be re-served through the blocking control plane.
    Http(Vec<u8>),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Sniffing,
    Ingest,
}

/// How one line judged: skipped blank, parsed record, or malformed.
enum Verdict {
    Blank,
    Record(LogRecord),
    Malformed,
}

fn judge(bytes: &[u8]) -> Verdict {
    // Mirrors the framing reference byte for byte: lossy UTF-8, trim (strips
    // `\n` / `\r\n` and stray blanks), skip empty, then parse. On valid
    // UTF-8 the lossy conversion borrows, so no copy happens here.
    let text = String::from_utf8_lossy(bytes);
    let trimmed = text.trim();
    if trimmed.is_empty() {
        return Verdict::Blank;
    }
    match LogRecord::from_json_line(trimmed) {
        Ok(record) => Verdict::Record(record),
        Err(_) => Verdict::Malformed,
    }
}

fn looks_http(first_line: &[u8]) -> bool {
    first_line.starts_with(b"GET ")
        || first_line.starts_with(b"POST ")
        || first_line.starts_with(b"HEAD ")
}

/// Per-`pump` I/O accounting, drained by the poller into the stage
/// histograms (`seqd_batch_read_seconds` / `seqd_frame_split_seconds`).
#[derive(Debug, Default, Clone, Copy)]
pub struct PumpStats {
    /// Nanoseconds spent in `read`/`readv` syscalls.
    pub read_ns: u64,
    /// Nanoseconds spent splitting and parsing frames.
    pub split_ns: u64,
    /// Bytes read (any progress resets the idle-eviction clock).
    pub bytes: u64,
}

/// One connection's protocol state machine, independent of any socket.
///
/// Feed it any [`Read`] via [`Session::pump`]; parsed records accumulate in
/// the caller's vector (the caller routes them and fills in
/// `summary.accepted` / `summary.rejected` afterwards). `received` and
/// `malformed` are counted here, exactly as the reference counts them.
pub struct Session {
    ring: RingBuf,
    scratch: Vec<u8>,
    state: State,
    /// Mid-discard of an oversized line (already counted malformed).
    discarding: bool,
    max_line_len: usize,
    line_hist: Arc<Histogram>,
    stats: PumpStats,
    /// The connection receipt, accumulated across pumps.
    pub summary: IngestSummary,
}

/// The shortest `max_line_len` a [`Session`] accepts (the ring's floor).
pub const MIN_LINE_LEN: usize = 16;

impl Session {
    /// A fresh session enforcing `max_line_len` (terminator included), at
    /// least [`MIN_LINE_LEN`].
    ///
    /// The ring is one byte larger than the cap so an EOF-terminated
    /// fragment of exactly `max_line_len` bytes — which the reference
    /// accepts — is still distinguishable from an oversized line.
    pub fn new(max_line_len: usize) -> Session {
        debug_assert!(max_line_len >= MIN_LINE_LEN, "{max_line_len}");
        Session {
            ring: RingBuf::new(max_line_len + 1),
            scratch: Vec::new(),
            state: State::Sniffing,
            discarding: false,
            max_line_len,
            line_hist: Arc::clone(crate::metrics::stages::ingest_line()),
            stats: PumpStats::default(),
            summary: IngestSummary::default(),
        }
    }

    /// Still waiting for the first complete line? (An evicted sniffing
    /// connection closes silently: it never sent a record to receipt.)
    pub fn is_sniffing(&self) -> bool {
        self.state == State::Sniffing
    }

    /// Heap bytes of the session's ring and line scratch.
    pub fn buffer_bytes(&self) -> usize {
        self.ring.capacity() + self.scratch.capacity()
    }

    /// Drain the accumulated I/O accounting.
    pub fn take_stats(&mut self) -> PumpStats {
        std::mem::take(&mut self.stats)
    }

    fn count_malformed(&mut self, ops: &Ops) {
        self.summary.received += 1;
        self.summary.malformed += 1;
        Ops::inc(&ops.ingested);
        Ops::inc(&ops.malformed);
        self.line_hist.record_ns(0);
    }

    fn apply(&mut self, verdict: Verdict, ns: u64, ops: &Ops, out: &mut Vec<LogRecord>) {
        match verdict {
            Verdict::Blank => {}
            Verdict::Record(record) => {
                self.summary.received += 1;
                Ops::inc(&ops.ingested);
                self.line_hist.record_ns(ns);
                out.push(record);
            }
            Verdict::Malformed => {
                self.summary.received += 1;
                self.summary.malformed += 1;
                Ops::inc(&ops.ingested);
                Ops::inc(&ops.malformed);
                self.line_hist.record_ns(ns);
            }
        }
    }

    /// Read as much as is available (bounded by the fairness cap), splitting
    /// and parsing complete frames after every fill. `Interrupted` reads are
    /// retried; `WouldBlock` returns [`Pump::Drained`]; any other error
    /// propagates (the connection is dropped without a receipt).
    pub fn pump(
        &mut self,
        stream: &mut impl Read,
        ops: &Ops,
        out: &mut Vec<LogRecord>,
    ) -> io::Result<Pump> {
        let mut rounds = 0;
        loop {
            // Split first: a previous cap-limited pump may have left
            // complete lines buffered, and splitting guarantees free ring
            // space (a full terminator-less ring resolves to discard mode).
            if let Some(prefix) = self.split(ops, out) {
                return Ok(Pump::Http(prefix));
            }
            if rounds == FILL_ROUNDS {
                return Ok(Pump::CapReached);
            }
            rounds += 1;
            let started = Instant::now();
            let filled = self.ring.fill(stream);
            self.stats.read_ns += started.elapsed().as_nanos() as u64;
            match filled {
                Ok(0) => return self.finish_eof(ops, out),
                Ok(n) => self.stats.bytes += n as u64,
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(Pump::Drained),
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
    }

    fn split(&mut self, ops: &Ops, out: &mut Vec<LogRecord>) -> Option<Vec<u8>> {
        let started = Instant::now();
        let handoff = self.split_inner(ops, out);
        self.stats.split_ns += started.elapsed().as_nanos() as u64;
        handoff
    }

    fn split_inner(&mut self, ops: &Ops, out: &mut Vec<LogRecord>) -> Option<Vec<u8>> {
        // One clock read per judged line instead of an enter/exit pair:
        // each line's histogram sample is the time since the previous line
        // finished (frame scan + parse), chained through one timestamp. Two
        // reads cost ~65 ns against a ~500 ns line budget.
        let mut last = Instant::now();
        loop {
            if self.discarding {
                if !self.ring.discard_to_newline() {
                    return None; // still inside the oversized line
                }
                self.discarding = false;
            }
            if self.state == State::Sniffing {
                match self.ring.next_line_len() {
                    Some(n) if n > self.max_line_len => {
                        // A flood with no plausible HTTP request line:
                        // ingest, with the oversized line pre-counted.
                        self.state = State::Ingest;
                        self.count_malformed(ops);
                        self.ring.consume(n);
                        continue;
                    }
                    Some(_) => {
                        let is_http = self
                            .ring
                            .peek_line(&mut self.scratch, looks_http)
                            .unwrap_or(false);
                        if is_http {
                            return Some(self.ring.drain_to_vec());
                        }
                        self.state = State::Ingest;
                    }
                    None if self.ring.is_full() => {
                        self.state = State::Ingest;
                        self.count_malformed(ops);
                        self.ring.clear();
                        self.discarding = true;
                        continue;
                    }
                    None => return None, // need more bytes to classify
                }
            }
            match self.ring.next_line_len() {
                Some(n) if n > self.max_line_len => {
                    self.count_malformed(ops);
                    self.ring.consume(n);
                }
                Some(_) => {
                    let verdict = self
                        .ring
                        .with_line(&mut self.scratch, judge)
                        .expect("next_line_len reported a complete line");
                    let now = Instant::now();
                    let ns = now.duration_since(last).as_nanos() as u64;
                    last = now;
                    self.apply(verdict, ns, ops, out);
                }
                None if self.ring.is_full() => {
                    self.count_malformed(ops);
                    self.ring.clear();
                    self.discarding = true;
                }
                None => return None,
            }
        }
    }

    fn finish_eof(&mut self, ops: &Ops, out: &mut Vec<LogRecord>) -> io::Result<Pump> {
        if self.discarding {
            // EOF ends the oversized line too; it was counted when the
            // overflow was detected.
            self.ring.clear();
            self.discarding = false;
            return Ok(Pump::Eof);
        }
        if self.state == State::Sniffing {
            if self.ring.is_empty() {
                return Ok(Pump::Eof); // connect-and-close probe
            }
            // An EOF-terminated first fragment still classifies.
            let bytes = self.ring.drain_to_vec();
            if looks_http(&bytes) {
                return Ok(Pump::Http(bytes));
            }
            self.state = State::Ingest;
            let started = Instant::now();
            let verdict = judge(&bytes);
            self.apply(verdict, started.elapsed().as_nanos() as u64, ops, out);
            return Ok(Pump::Eof);
        }
        // The EOF fragment is a final line (`read_line_capped` semantics).
        if !self.ring.is_empty() {
            let bytes = self.ring.drain_to_vec();
            let started = Instant::now();
            let verdict = judge(&bytes);
            self.apply(verdict, started.elapsed().as_nanos() as u64, ops, out);
        }
        Ok(Pump::Eof)
    }
}

/// Everything a poller thread needs from the daemon.
pub struct EventLoopDeps {
    /// Record router.
    pub router: Arc<Router>,
    /// Shared counters.
    pub ops: Arc<Ops>,
    /// Live-connection gauge (incremented by the acceptor).
    pub connections: Arc<AtomicUsize>,
    /// Heap bytes of the open connections' buffers and the pollers'
    /// routing vectors, across pollers (`/debug/memory`).
    pub buffer_bytes: Arc<AtomicUsize>,
    /// Drain flag; pollers receipt everything and exit when set.
    pub shutdown: Arc<AtomicBool>,
    /// Longest accepted ingest line, terminator included.
    pub max_line_len: usize,
    /// Idle eviction deadline; `ZERO` disables eviction.
    pub io_timeout: Duration,
    /// Takes ownership of an HTTP connection plus its already-buffered
    /// bytes (the control plane stays blocking; requests are rare).
    pub control: Arc<dyn Fn(TcpStream, Vec<u8>) + Send + Sync>,
}

enum Phase {
    /// Reading (sniffing or ingesting).
    Open,
    /// EOF or eviction seen: receipt after this iteration's routing.
    Finish,
    /// Receipt partially written; waiting for `POLLOUT`.
    Write(Vec<u8>, usize),
    /// Hand the socket (and buffered bytes) to the control plane.
    Handoff(Vec<u8>),
    /// Remove, decrement the gauge.
    Dead,
}

struct Conn {
    stream: TcpStream,
    session: Session,
    last_activity: Instant,
    phase: Phase,
}

/// Round-robin connection dispatch for the acceptor thread.
pub struct Dispatcher {
    senders: Vec<Sender<TcpStream>>,
    wakers: Vec<UnixStream>,
    next: usize,
}

impl Dispatcher {
    /// Hand `stream` to the next poller. Returns `false` (stream dropped)
    /// if that poller is gone.
    pub fn dispatch(&mut self, stream: TcpStream) -> bool {
        let i = self.next % self.senders.len();
        self.next = self.next.wrapping_add(1);
        if self.senders[i].send(stream).is_err() {
            return false;
        }
        // Best-effort wake byte; a full pipe means the poller is already
        // due to wake.
        let _ = (&self.wakers[i]).write(&[1]);
        true
    }
}

/// The running poller pool. Join after initiating shutdown.
pub struct EventLoop {
    threads: Vec<JoinHandle<()>>,
    wakers: Vec<UnixStream>,
}

impl EventLoop {
    /// Spawn `pollers` threads (min 1) and return the pool handle plus the
    /// acceptor-side dispatcher.
    pub fn start(deps: EventLoopDeps, pollers: usize) -> io::Result<(EventLoop, Dispatcher)> {
        let deps = Arc::new(deps);
        let n = pollers.max(1);
        let mut threads = Vec::with_capacity(n);
        let mut senders = Vec::with_capacity(n);
        let mut wakers = Vec::with_capacity(n);
        let mut dispatch_wakers = Vec::with_capacity(n);
        for i in 0..n {
            let (tx, rx) = channel::<TcpStream>();
            let (wake_tx, wake_rx) = UnixStream::pair()?;
            wake_tx.set_nonblocking(true)?;
            wake_rx.set_nonblocking(true)?;
            dispatch_wakers.push(wake_tx.try_clone()?);
            let deps = Arc::clone(&deps);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("seqd-poll-{i}"))
                    .spawn(move || run_poller(&deps, &rx, &wake_rx))
                    .map_err(io::Error::other)?,
            );
            senders.push(tx);
            wakers.push(wake_tx);
        }
        Ok((
            EventLoop { threads, wakers },
            Dispatcher {
                senders,
                wakers: dispatch_wakers,
                next: 0,
            },
        ))
    }

    /// Clones of the wake pipes, for `initiate_shutdown` to kick sleeping
    /// pollers from any thread.
    pub fn wakers(&self) -> io::Result<Vec<UnixStream>> {
        self.wakers.iter().map(|w| w.try_clone()).collect()
    }

    /// Wake every poller and wait for them to finish their drain.
    pub fn join(self) -> io::Result<()> {
        for w in &self.wakers {
            let _ = (&*w).write(&[1]);
        }
        for t in self.threads {
            t.join().map_err(|_| io::Error::other("poller panicked"))?;
        }
        Ok(())
    }
}

/// Wake any poller sleeping in `poll` (used by shutdown).
pub fn wake(wakers: &[UnixStream]) {
    for w in wakers {
        let _ = (&*w).write(&[1]);
    }
}

fn drain_wake_pipe(wake: &UnixStream) {
    let mut sink = [0u8; 64];
    loop {
        match (&*wake).read(&mut sink) {
            Ok(0) => return,
            Ok(_) => continue,
            Err(ref e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => return, // WouldBlock: drained
        }
    }
}

/// Write as much of `buf[off..]` as the socket takes right now.
enum WriteStep {
    Done,
    Blocked(usize),
    Gone,
}

fn write_nonblocking(stream: &mut TcpStream, buf: &[u8], mut off: usize) -> WriteStep {
    while off < buf.len() {
        match stream.write(&buf[off..]) {
            Ok(0) => return WriteStep::Gone,
            Ok(n) => off += n,
            Err(ref e) if e.kind() == ErrorKind::WouldBlock => return WriteStep::Blocked(off),
            Err(ref e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => return WriteStep::Gone,
        }
    }
    WriteStep::Done
}

fn run_poller(deps: &EventLoopDeps, intake: &Receiver<TcpStream>, wake: &UnixStream) {
    let shards = deps.router.depths().len();
    let poll_hist = Arc::clone(crate::metrics::stages::poll_wait());
    let read_hist = Arc::clone(crate::metrics::stages::batch_read());
    let split_hist = Arc::clone(crate::metrics::stages::frame_split());
    let mut conns: Vec<Conn> = Vec::new();
    let mut fds: Vec<PollFd> = Vec::new();
    let mut records: Vec<LogRecord> = Vec::new();
    // Per-shard routing batches and their (conn-index) attribution tags,
    // reused across iterations.
    let mut batches: Vec<Vec<LogRecord>> = (0..shards).map(|_| Vec::new()).collect();
    let mut tags: Vec<Vec<usize>> = (0..shards).map(|_| Vec::new()).collect();
    // This poller's share of `deps.buffer_bytes`.
    let mut buffers_published = 0usize;

    loop {
        fds.clear();
        fds.push(PollFd::new(wake.as_raw_fd(), POLLIN));
        for c in &conns {
            let events = match c.phase {
                Phase::Open => POLLIN,
                Phase::Write(..) => POLLOUT,
                _ => 0,
            };
            fds.push(PollFd::new(c.stream.as_raw_fd(), events));
        }
        let timeout = if deps.io_timeout.is_zero() {
            MAX_POLL
        } else {
            deps.io_timeout.min(MAX_POLL)
        };
        let started = Instant::now();
        let _ = poll_fds(&mut fds, timeout);
        poll_hist.record(started.elapsed());

        if fds[0].ready(POLLIN) {
            drain_wake_pipe(wake);
        }
        // `polled` existing conns have poll verdicts; later intake arrivals
        // are optimistically treated as ready.
        let polled = conns.len();
        for stream in intake.try_iter() {
            let _ = stream.set_nonblocking(true);
            conns.push(Conn {
                stream,
                session: Session::new(deps.max_line_len),
                last_activity: Instant::now(),
                phase: Phase::Open,
            });
        }
        let shutting_down = deps.shutdown.load(Ordering::SeqCst);
        let now = Instant::now();
        let mut read_ns = 0u64;
        let mut split_ns = 0u64;

        for i in 0..conns.len() {
            let ready = i >= polled || fds[i + 1].ready(POLLIN | POLLOUT);
            let conn = &mut conns[i];
            match conn.phase {
                Phase::Open if ready => {
                    let outcome = conn.session.pump(&mut conn.stream, &deps.ops, &mut records);
                    let stats = conn.session.take_stats();
                    read_ns += stats.read_ns;
                    split_ns += stats.split_ns;
                    if stats.bytes > 0 {
                        conn.last_activity = now;
                    }
                    match outcome {
                        Ok(Pump::Drained) | Ok(Pump::CapReached) => {}
                        Ok(Pump::Eof) => conn.phase = Phase::Finish,
                        Ok(Pump::Http(prefix)) => conn.phase = Phase::Handoff(prefix),
                        // Peer reset or hard error: no receipt.
                        Err(_) => conn.phase = Phase::Dead,
                    }
                    for record in records.drain(..) {
                        let shard = deps.router.shard_of(&record.service);
                        batches[shard].push(record);
                        tags[shard].push(i);
                    }
                }
                Phase::Write(..) if ready => {
                    let (buf, off) = match std::mem::replace(&mut conn.phase, Phase::Dead) {
                        Phase::Write(buf, off) => (buf, off),
                        _ => unreachable!(),
                    };
                    match write_nonblocking(&mut conn.stream, &buf, off) {
                        WriteStep::Done | WriteStep::Gone => {} // already Dead
                        WriteStep::Blocked(off) => {
                            conn.last_activity = now;
                            conn.phase = Phase::Write(buf, off);
                        }
                    }
                }
                _ => {}
            }
            // Idle eviction: a sniffing peer is dropped silently, an
            // ingesting peer gets a receipt for what was processed (the
            // reference's read-deadline rule), a stuck receipt write is
            // abandoned.
            if !deps.io_timeout.is_zero()
                && now.duration_since(conn.last_activity) >= deps.io_timeout
            {
                match conn.phase {
                    Phase::Open => {
                        conn.phase = if conn.session.is_sniffing() {
                            Phase::Dead
                        } else {
                            Phase::Finish
                        };
                    }
                    Phase::Write(..) => conn.phase = Phase::Dead,
                    _ => {}
                }
            }
            if shutting_down {
                if let Phase::Open = conn.phase {
                    conn.phase = if conn.session.is_sniffing() {
                        Phase::Dead
                    } else {
                        Phase::Finish
                    };
                }
            }
        }
        if read_ns > 0 {
            read_hist.record_ns(read_ns);
        }
        if split_ns > 0 {
            split_hist.record_ns(split_ns);
        }

        // Route every record collected this iteration, one batch per shard,
        // and attribute the accepted prefix back to each connection.
        for shard in 0..shards {
            if batches[shard].is_empty() {
                continue;
            }
            let total = batches[shard].len();
            let accepted = deps.router.route_batch(shard, &mut batches[shard]);
            for (k, &conn_idx) in tags[shard].iter().enumerate().take(total) {
                if k < accepted {
                    conns[conn_idx].session.summary.accepted += 1;
                } else {
                    conns[conn_idx].session.summary.rejected += 1;
                }
            }
            tags[shard].clear();
        }

        // Group commit: one fsync covers every connection finishing this
        // iteration, then their receipts go out. A receipt is a durability
        // promise, so the barrier must precede the first receipt byte.
        if conns.iter().any(|c| matches!(c.phase, Phase::Finish)) {
            if let Err(e) = deps.router.sync_wal() {
                eprintln!("seqd: WAL sync failed before receipts: {e}");
            }
            for conn in &mut conns {
                if !matches!(conn.phase, Phase::Finish) {
                    continue;
                }
                let mut receipt = conn.session.summary.to_json_line().into_bytes();
                receipt.push(b'\n');
                if shutting_down {
                    // Last chance to deliver: briefly re-block the socket.
                    let _ = conn.stream.set_nonblocking(false);
                    let _ = conn.stream.set_write_timeout(Some(Duration::from_secs(1)));
                    let _ = conn.stream.write_all(&receipt);
                    conn.phase = Phase::Dead;
                } else {
                    match write_nonblocking(&mut conn.stream, &receipt, 0) {
                        WriteStep::Done | WriteStep::Gone => conn.phase = Phase::Dead,
                        WriteStep::Blocked(off) => {
                            conn.last_activity = now;
                            conn.phase = Phase::Write(receipt, off);
                        }
                    }
                }
            }
        }

        if shutting_down {
            // Flush any receipt still mid-write, briefly re-blocking.
            for conn in &mut conns {
                if let Phase::Write(..) = conn.phase {
                    let (buf, off) = match std::mem::replace(&mut conn.phase, Phase::Dead) {
                        Phase::Write(buf, off) => (buf, off),
                        _ => unreachable!(),
                    };
                    let _ = conn.stream.set_nonblocking(false);
                    let _ = conn.stream.set_write_timeout(Some(Duration::from_secs(1)));
                    let _ = conn.stream.write_all(&buf[off..]);
                }
            }
        }

        // Sweep: drop dead connections, hand off HTTP ones. The handoff
        // keeps the gauge slot (the control plane decrements when done).
        let mut i = 0;
        while i < conns.len() {
            match conns[i].phase {
                Phase::Dead => {
                    let conn = conns.swap_remove(i);
                    drop(conn.stream);
                    deps.connections.fetch_sub(1, Ordering::SeqCst);
                }
                Phase::Handoff(_) => {
                    let conn = conns.swap_remove(i);
                    match conn.phase {
                        Phase::Handoff(prefix) => (deps.control)(conn.stream, prefix),
                        _ => unreachable!(),
                    }
                }
                _ => i += 1,
            }
        }
        // The sessions' rings and this poller's reused routing vectors.
        let routing: usize = batches.iter().chain([&records]).map(Vec::capacity).sum();
        let sessions: usize = conns.iter().map(|c| c.session.buffer_bytes()).sum();
        let buffers = sessions + routing * std::mem::size_of::<LogRecord>();
        if buffers != buffers_published {
            deps.buffer_bytes.fetch_add(buffers, Ordering::Relaxed);
            deps.buffer_bytes
                .fetch_sub(buffers_published, Ordering::Relaxed);
            buffers_published = buffers;
        }

        if shutting_down {
            // Connections dispatched but never registered still hold gauge
            // slots from the acceptor.
            for stream in intake.try_iter() {
                drop(stream);
                deps.connections.fetch_sub(1, Ordering::SeqCst);
            }
            debug_assert!(conns.is_empty(), "every conn finalized at shutdown");
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn pump_all(session: &mut Session, input: &[u8], ops: &Ops) -> (Vec<LogRecord>, Pump) {
        let mut out = Vec::new();
        let mut cursor = Cursor::new(input.to_vec());
        loop {
            match session.pump(&mut cursor, ops, &mut out).unwrap() {
                Pump::CapReached => continue,
                done => return (out, done),
            }
        }
    }

    #[test]
    fn session_counts_like_the_reference() {
        let ops = Ops::new();
        let mut session = Session::new(1 << 20);
        let input = concat!(
            r#"{"service":"sshd","message":"session opened"}"#,
            "\n",
            "\n",
            "garbage\n",
            r#"{"service":"sshd","message":"session closed"}"#,
            "\n",
        );
        let (records, done) = pump_all(&mut session, input.as_bytes(), &ops);
        assert!(matches!(done, Pump::Eof));
        assert_eq!(records.len(), 2);
        assert_eq!(session.summary.received, 3);
        assert_eq!(session.summary.malformed, 1);
        let s = ops.snapshot();
        assert_eq!((s.ingested, s.malformed), (3, 1));
    }

    #[test]
    fn eof_fragment_is_a_final_line() {
        let ops = Ops::new();
        let mut session = Session::new(1 << 20);
        let input = r#"{"service":"svc","message":"no terminator"}"#;
        let (records, done) = pump_all(&mut session, input.as_bytes(), &ops);
        assert!(matches!(done, Pump::Eof));
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].message, "no terminator");
    }

    #[test]
    fn http_first_line_hands_off_all_buffered_bytes() {
        let ops = Ops::new();
        let mut session = Session::new(1 << 20);
        let input = b"POST /shutdown HTTP/1.1\r\nHost: t\r\n\r\n";
        let (records, done) = pump_all(&mut session, input, &ops);
        assert!(records.is_empty());
        match done {
            Pump::Http(prefix) => assert_eq!(prefix, input),
            other => panic!("expected Http, got {other:?}"),
        }
        assert_eq!(ops.snapshot().ingested, 0);
    }

    #[test]
    fn oversized_line_counts_once_and_stream_survives() {
        let ops = Ops::new();
        let mut session = Session::new(64);
        let huge = format!(
            "{{\"service\":\"svc\",\"message\":\"{}\"}}\n",
            "x".repeat(1 << 12)
        );
        let input = format!("{huge}{}\n", r#"{"service":"svc","message":"alive"}"#);
        let (records, done) = pump_all(&mut session, input.as_bytes(), &ops);
        assert!(matches!(done, Pump::Eof));
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].message, "alive");
        assert_eq!(session.summary.received, 2);
        assert_eq!(session.summary.malformed, 1);
    }

    /// The exactly-at-cap EOF fragment the reference accepts: the ring
    /// must not misread it as oversized.
    #[test]
    fn eof_fragment_at_exactly_the_cap_is_accepted() {
        let ops = Ops::new();
        let cap = 64;
        let mut session = Session::new(cap);
        // A malformed-but-countable line of exactly `cap` bytes, no
        // terminator.
        let input = "z".repeat(cap);
        let (records, done) = pump_all(&mut session, input.as_bytes(), &ops);
        assert!(matches!(done, Pump::Eof));
        assert!(records.is_empty());
        assert_eq!(session.summary.received, 1);
        assert_eq!(
            session.summary.malformed, 1,
            "counted as a line, not oversized"
        );
    }

    /// One byte over the cap without a terminator IS oversized, matching
    /// `read_line_capped`'s overflow rule.
    #[test]
    fn terminatorless_flood_over_the_cap_is_oversized() {
        let ops = Ops::new();
        let cap = 64;
        let mut session = Session::new(cap);
        let input = "z".repeat(cap + 1);
        let (records, done) = pump_all(&mut session, input.as_bytes(), &ops);
        assert!(matches!(done, Pump::Eof));
        assert!(records.is_empty());
        assert_eq!(session.summary.received, 1);
        assert_eq!(session.summary.malformed, 1);
    }

    #[test]
    fn would_block_pauses_and_resumes_mid_line() {
        let ops = Ops::new();
        let mut session = Session::new(1 << 20);
        let mut out = Vec::new();
        struct Flaky {
            chunks: Vec<Vec<u8>>,
        }
        impl Read for Flaky {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                match self.chunks.pop() {
                    None => Ok(0),
                    Some(chunk) if chunk.is_empty() => {
                        Err(io::Error::new(ErrorKind::WouldBlock, "later"))
                    }
                    Some(chunk) => {
                        buf[..chunk.len()].copy_from_slice(&chunk);
                        Ok(chunk.len())
                    }
                }
            }
        }
        let line = br#"{"service":"svc","message":"split across polls"}"#;
        let (a, b) = line.split_at(17);
        let mut stream = Flaky {
            // Popped back-to-front.
            chunks: vec![b"\n".to_vec(), b.to_vec(), Vec::new(), a.to_vec()],
        };
        assert!(matches!(
            session.pump(&mut stream, &ops, &mut out).unwrap(),
            Pump::Drained
        ));
        assert!(out.is_empty(), "no complete line before the block");
        assert!(matches!(
            session.pump(&mut stream, &ops, &mut out).unwrap(),
            Pump::Eof
        ));
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].message, "split across polls");
    }
}
