//! Per-service-shard workers: the online half of `AnalyzeByService`.
//!
//! The acceptor routes each record to a shard by service hash, so one
//! service's records always land on one worker and per-service arrival order
//! is preserved (the property the paper's "no crossover with patterns
//! between different services" scale-out relies on). Each worker:
//!
//! 1. scans the message and matches it against the service's published
//!    [`sequence_core::PatternSet`] (an `Arc` loaded from the
//!    [`PatternBoard`] — never blocked by re-mining); a service with no set
//!    yet skips the scan,
//! 2. takes the record into its arrival batch, the CLI's
//!    [`OpenBatch`]: a match becomes a per-pattern count, an unmatched
//!    record joins the *residue*, and an empty message of a service with a
//!    set is counted and dropped (all but matches count `unmatched`),
//! 3. when the residue reaches the configured batch size — or one idle
//!    tick passes with a partial batch in hand, or [`HANDOFF_RECORDS`]
//!    records have been processed since the last handoff, or the drain
//!    begins — hands a [`MineJob`] to the background [`Miner`] and
//!    immediately resumes draining — re-mining, publishing, retries and
//!    WAL release all happen off the ingest hot path (see
//!    [`crate::miner`]). The record budget is what keeps a shard that is
//!    never idle and matches everything from sitting on its match counts,
//!    and on its WAL, for as long as the stream lasts.
//!
//! When the mining queue is full the worker keeps its residue and keeps
//! draining — counted per record in `mine_overflow`, never dropped — up to
//! eight times either trigger (`ShardWorker::maybe_handoff`), where it
//! blocks for queue space: the same backpressure-not-loss policy as the
//! ingest queues. So the residue the daemon holds at once is at most
//!
//! * 8 × `batch_size` records in each worker's hand,
//! * `batch_size × shards × 8` records in the miner queue (the bound
//!   [`Miner::background`] is given; a job never exceeds it),
//! * and the jobs in flight, one per miner thread and per shard at most,
//!   each within the queue's bound.
//!
//! A residue record costs its message's bytes plus an 8-byte offset in its
//! service's buffer, up to twice that while the buffer doubles; the service
//! name is stored once per batch. Held as one record each, it cost a 48-byte
//! slot plus two heap blocks, a copy of the service name and the message:
//! about a hundred bytes beyond the message. A mining job frees each
//! service's buffer as soon as that service is planned.

use crate::metrics::{stages, Ops};
use crate::miner::{MineJob, Miner};
use crate::queue::BoundedQueue;
use crate::swap::PatternBoard;
use crate::wal::{Accepted, IngestWal};
use sequence_core::{MatchScratch, TokenizedMessage};
use sequence_rtg::{Arrival, LogRecord, Mining, OpenBatch};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long a worker holding a partial batch waits for more input before
/// handing what it has to the miner. Only in force while residue or match
/// counts are pending — an empty-handed worker parks with no tick at all.
const IDLE_HANDOFF: Duration = Duration::from_millis(50);

/// How many records a worker processes, at most, before it hands over what
/// it holds even though it was never idle and its residue is short of a
/// batch: the bound on what one shard's WAL covers under sustained load
/// (1 MiB of line lengths; 36 MiB of log at 144-byte lines).
const HANDOFF_RECORDS: usize = 262_144;

pub use sequence_rtg::now_unix;

/// The shard a service hashes to among `shards` shards. Shared by the
/// router and WAL recovery, so replayed records land on the shard the
/// *current* layout assigns even if `--shards` changed across the restart.
///
/// FNV-1a rather than `DefaultHasher`: SipHash costs ~50 ns per call on
/// the per-line ingest path, and its keyed/DoS-resistant properties buy
/// nothing here — service names are short, the hash is recomputed from
/// scratch on replay (never persisted), and a pathological skew merely
/// unbalances shards.
pub fn shard_for(service: &str, shards: usize) -> usize {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in service.as_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    (h % shards.max(1) as u64) as usize
}

/// The ingest-side router: hashes a record's service to a shard queue and
/// pushes batches with the backpressure policy (block up to the timeout,
/// then reject and count). With a WAL attached, accepted records are logged
/// before the connection receipt can be written.
#[derive(Debug)]
pub struct Router {
    queues: Vec<Arc<BoundedQueue<Accepted>>>,
    ops: Arc<Ops>,
    enqueue_timeout: Duration,
    wal: Option<Arc<IngestWal>>,
}

impl Router {
    /// A router over `queues` (one per shard), without durability.
    pub fn new(
        queues: Vec<Arc<BoundedQueue<Accepted>>>,
        ops: Arc<Ops>,
        enqueue_timeout: Duration,
    ) -> Router {
        assert!(!queues.is_empty(), "at least one shard");
        Router {
            queues,
            ops,
            enqueue_timeout,
            wal: None,
        }
    }

    /// Attach (or detach) the ingest WAL.
    pub fn with_wal(mut self, wal: Option<Arc<IngestWal>>) -> Router {
        self.wal = wal;
        self
    }

    /// The shard a service hashes to.
    pub fn shard_of(&self, service: &str) -> usize {
        shard_for(service, self.queues.len())
    }

    /// Route a batch of records that all hash to shard `shard` (the caller
    /// groups by [`Router::shard_of`]). One queue lock, one WAL append,
    /// one condvar wake for the whole batch. Returns how many records from
    /// the *front* were accepted; the rest — the shard queue stayed full
    /// past the timeout, or the daemon is draining — are counted `rejected`.
    /// Accepted records are appended to the WAL (when one is attached);
    /// rejected ones never are.
    pub fn route_batch(&self, shard: usize, records: Vec<LogRecord>) -> usize {
        let total = records.len();
        if total == 0 {
            return 0;
        }
        let queue = &self.queues[shard];
        let accepted = match &self.wal {
            Some(wal) => wal.append_route_batch(shard, records, queue, self.enqueue_timeout),
            None => {
                let batch: Vec<Accepted> = records.into_iter().map(Accepted::untracked).collect();
                queue.push_batch(batch, self.enqueue_timeout)
            }
        };
        if accepted < total {
            Ops::add(&self.ops.rejected, (total - accepted) as u64);
        }
        accepted
    }

    /// Fsync the WAL (no-op without one): the receipt barrier.
    pub fn sync_wal(&self) -> std::io::Result<()> {
        match &self.wal {
            Some(wal) => wal.sync(),
            None => Ok(()),
        }
    }

    /// Close every shard queue for pushes (drain begins).
    pub fn close(&self) {
        for q in &self.queues {
            q.close();
        }
    }

    /// Per-shard queue depths, for `/metrics`.
    pub fn depths(&self) -> Vec<usize> {
        self.queues.iter().map(|q| q.depth()).collect()
    }
}

/// Everything one worker thread needs.
pub struct ShardWorker {
    /// Shard index (metrics labels, diagnostics).
    pub shard_id: usize,
    /// This shard's input queue.
    pub queue: Arc<BoundedQueue<Accepted>>,
    /// The mining executor residue is handed off to.
    pub miner: Arc<Miner>,
    /// The published pattern sets.
    pub board: Arc<PatternBoard>,
    /// Shared counters.
    pub ops: Arc<Ops>,
    /// Gauge of this shard's current residue length.
    pub residue_len: Arc<AtomicUsize>,
    /// Records recovered from the WAL, processed before the live queue.
    pub replay: Vec<Accepted>,
    /// The mining configuration, scanner and analyser. Its `batch_size` is
    /// the residue size that triggers a mining handoff.
    pub mining: Arc<Mining>,
}

/// What a worker holds between two handoffs to the miner.
#[derive(Default)]
struct InHand {
    /// The records processed since the last handoff the miner took.
    batch: OpenBatch,
    /// Highest WAL sequence this worker has fully taken charge of; a
    /// handoff releases the log up to here.
    max_seq: u64,
}

impl ShardWorker {
    /// Run until the queue is closed and drained; hands remaining residue
    /// to the miner in one final blocking submission before returning.
    /// WAL-recovered records are processed first (counted `ingested` and
    /// `replayed`), preserving per-service order ahead of any live traffic.
    pub fn run(mut self) {
        let mut scratch = MatchScratch::default();
        // Reused token buffer: after the first few records the scan itself
        // allocates nothing (tokens are stored inline up to the cap).
        let mut tokens = TokenizedMessage::default();
        let mut hand = InHand::default();
        // Per-service histogram handles, cached so the hot loop skips the
        // registry lock that `stages::service_match` takes per call.
        let mut svc_hists: HashMap<String, Arc<obs::Histogram>> = HashMap::new();

        for accepted in std::mem::take(&mut self.replay) {
            Ops::inc(&self.ops.ingested);
            Ops::inc(&self.ops.replayed);
            self.process(
                accepted,
                &mut scratch,
                &mut tokens,
                &mut svc_hists,
                &mut hand,
            );
            self.maybe_handoff(&mut hand);
        }

        // Pop in batches: one queue lock per burst instead of per record.
        // Empty-handed, the worker parks on the queue's condvar — no
        // periodic re-check tick; a close wakes it immediately. With a
        // partial batch in hand it switches to a timed pop, so one quiet
        // tick hands the residue (and pending match counts, releasing
        // their WAL range) to the miner instead of sitting on them until
        // the next burst.
        let pop_cap = self.mining.config().batch_size.clamp(1, 512);
        loop {
            let popped = if hand.batch.is_empty() {
                self.queue.pop_batch_blocking(pop_cap)
            } else {
                match self.queue.pop_batch(pop_cap, IDLE_HANDOFF) {
                    Ok(batch) if batch.is_empty() => {
                        self.handoff(&mut hand, false);
                        continue;
                    }
                    other => other,
                }
            };
            match popped {
                Ok(batch) => {
                    for accepted in batch {
                        self.process(
                            accepted,
                            &mut scratch,
                            &mut tokens,
                            &mut svc_hists,
                            &mut hand,
                        );
                        self.maybe_handoff(&mut hand);
                    }
                }
                Err(()) => {
                    // Closed and drained: hand over whatever is left. The
                    // blocking submit cannot lose it — a closed miner runs
                    // the job right here on this thread.
                    self.handoff(&mut hand, true);
                    return;
                }
            }
        }
    }

    /// Match one accepted record into the arrival batch.
    fn process(
        &self,
        accepted: Accepted,
        scratch: &mut MatchScratch,
        tokens: &mut TokenizedMessage,
        svc_hists: &mut HashMap<String, Arc<obs::Histogram>>,
        hand: &mut InHand,
    ) {
        let Accepted { seq, record } = accepted;
        hand.max_seq = hand.max_seq.max(seq);
        let started = Instant::now();
        // Parse-only scan into the worker's reused token buffer; only the
        // winner's id is needed, copied once per pattern per handoff.
        let set = self.board.load(&record.service);
        let arrival = self
            .mining
            .arrival(set.as_deref(), &record.message, tokens, scratch);
        // Attribute construction is deferred behind the slow-ring's atomic
        // gate, so the per-record cost stays two atomic adds per histogram.
        let ns = started.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        stages::match_record().record_ns(ns);
        match svc_hists.get(record.service.as_str()) {
            Some(hist) => hist.record_ns(ns),
            None => {
                let hist = stages::service_match(&record.service);
                hist.record_ns(ns);
                svc_hists.insert(record.service.clone(), hist);
            }
        }
        let ring = obs::registry().slow();
        if ring.admits(ns) {
            ring.offer(
                "seqd.match",
                ns,
                vec![
                    ("shard", obs::AttrValue::U64(self.shard_id as u64)),
                    ("service", obs::AttrValue::Str(record.service.clone())),
                    // A service with no set yet was not scanned.
                    (
                        "tokens",
                        obs::AttrValue::U64(set.as_ref().map_or(0, |_| tokens.tokens.len()) as u64),
                    ),
                ],
            );
        }
        match arrival {
            Arrival::Matched { .. } => Ops::inc(&self.ops.matched),
            Arrival::Empty { .. } | Arrival::Residue => Ops::inc(&self.ops.unmatched),
        }
        hand.batch.take(&record, arrival);
        self.residue_len
            .store(hand.batch.residue_len(), Ordering::Relaxed);
    }

    /// Called once per processed record: hand off when the residue has
    /// reached the batch size or the record budget is spent. Below the
    /// backpressure ceiling (eight times either trigger) a full mining
    /// queue just means "keep accumulating"; at the ceiling the worker
    /// blocks for space.
    fn maybe_handoff(&self, hand: &mut InHand) {
        let batch_size = self.mining.config().batch_size;
        let (residue, records) = (hand.batch.residue_len(), hand.batch.received() as usize);
        if residue >= batch_size || records >= HANDOFF_RECORDS {
            let block = residue >= batch_size.saturating_mul(8) || records >= 8 * HANDOFF_RECORDS;
            self.handoff(hand, block);
        }
    }

    /// Hand everything in hand to the miner as one [`MineJob`].
    /// Non-blocking submissions that find the mining queue full take
    /// everything back untouched (counted in `mine_overflow`); blocking
    /// ones always succeed — a closed miner runs the job inline. The miner
    /// records the worker's pause in `seqd_mine_stall_seconds`.
    fn handoff(&self, hand: &mut InHand, block: bool) {
        if hand.batch.is_empty() {
            return;
        }
        let job = MineJob {
            shard_id: self.shard_id,
            batch: std::mem::take(&mut hand.batch),
            release_up_to: hand.max_seq,
            enqueued: Instant::now(),
        };
        if block {
            self.miner.submit_blocking(job);
        } else if let Err(job) = self.miner.try_submit(job) {
            // Queue full: take the records back and keep draining. One
            // tick per record accumulated past the trigger.
            hand.batch = job.batch;
            Ops::inc(&self.ops.mine_overflow);
            return;
        }
        self.residue_len.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::miner::MinerDeps;
    use patterndb::PatternStore;
    use sequence_core::Scanner;
    use sequence_rtg::RtgConfig;
    use std::sync::Mutex;

    fn record(service: &str, message: &str) -> LogRecord {
        LogRecord::new(service, message)
    }

    fn test_deps(
        store: &Arc<Mutex<PatternStore>>,
        board: &Arc<PatternBoard>,
        ops: &Arc<Ops>,
    ) -> MinerDeps {
        MinerDeps {
            mining: Arc::new(Mining::new(RtgConfig::default())),
            store: Arc::clone(store),
            board: Arc::clone(board),
            ops: Arc::clone(ops),
            wal: None,
            retries: 0,
            backoff: Duration::from_millis(1),
            drain: Arc::new(crate::miner::DrainSignal::new()),
        }
    }

    fn test_worker(
        queue: &Arc<BoundedQueue<Accepted>>,
        miner: Arc<Miner>,
        board: &Arc<PatternBoard>,
        ops: &Arc<Ops>,
    ) -> ShardWorker {
        ShardWorker {
            shard_id: 0,
            queue: Arc::clone(queue),
            miner,
            board: Arc::clone(board),
            ops: Arc::clone(ops),
            residue_len: Arc::new(AtomicUsize::new(0)),
            replay: Vec::new(),
            // Batches of 1 000: only the drain handoff fires.
            mining: Arc::new(Mining::new(RtgConfig {
                batch_size: 1_000,
                ..RtgConfig::default()
            })),
        }
    }

    /// A shard-0 job of `records`, all residue.
    fn residue_job(records: Vec<LogRecord>) -> MineJob {
        let mut batch = OpenBatch::default();
        for r in records {
            batch.take(&r, Arrival::Residue);
        }
        MineJob {
            shard_id: 0,
            batch,
            release_up_to: 0,
            enqueued: Instant::now(),
        }
    }

    /// Put one untracked record straight on a worker's queue.
    fn enqueue(queue: &BoundedQueue<Accepted>, record: LogRecord) {
        let batch = vec![Accepted::untracked(record)];
        assert_eq!(queue.push_batch(batch, Duration::from_millis(10)), 1);
    }

    /// Route one record to the shard its service hashes to.
    fn route_one(router: &Router, record: LogRecord) -> bool {
        router.route_batch(router.shard_of(&record.service), vec![record]) == 1
    }

    fn test_setup(
        queue_capacity: usize,
        shards: usize,
    ) -> (Router, Vec<Arc<BoundedQueue<Accepted>>>, Arc<Ops>) {
        let queues: Vec<_> = (0..shards)
            .map(|_| Arc::new(BoundedQueue::new(queue_capacity)))
            .collect();
        let ops = Arc::new(Ops::new());
        let router = Router::new(queues.clone(), Arc::clone(&ops), Duration::from_millis(10));
        (router, queues, ops)
    }

    /// The acceptance-criteria backpressure scenario: 1-slot queue, stalled
    /// shard (no worker running). Ingest gets a reject — no OOM, no panic —
    /// and the `rejected` counter increments.
    #[test]
    fn stalled_shard_rejects_and_counts() {
        let (router, queues, ops) = test_setup(1, 1);
        assert!(route_one(
            &router,
            record("svc", "first fills the only slot")
        ));
        assert!(!route_one(
            &router,
            record("svc", "second must be rejected")
        ));
        assert!(!route_one(&router, record("svc", "third too")));
        assert_eq!(ops.snapshot().rejected, 2);
        // Bounded: the queue still holds exactly its one slot.
        assert_eq!(queues[0].depth(), 1);
        assert_eq!(router.depths(), vec![1]);
    }

    #[test]
    fn route_batch_counts_the_rejected_suffix() {
        let (router, queues, ops) = test_setup(2, 1);
        let records: Vec<LogRecord> = (0..5)
            .map(|i| record("svc", &format!("event {i}")))
            .collect();
        assert_eq!(router.route_batch(0, records), 2);
        assert_eq!(ops.snapshot().rejected, 3);
        assert_eq!(queues[0].depth(), 2);
        assert_eq!(router.route_batch(0, Vec::new()), 0);
    }

    #[test]
    fn closed_router_rejects_with_count() {
        let (router, _queues, ops) = test_setup(8, 2);
        router.close();
        assert!(!route_one(&router, record("svc", "too late")));
        assert_eq!(ops.snapshot().rejected, 1);
    }

    #[test]
    fn same_service_always_routes_to_same_shard() {
        let (router, queues, _ops) = test_setup(64, 4);
        for i in 0..32 {
            assert!(route_one(&router, record("sshd", &format!("event {i}"))));
        }
        let populated: Vec<usize> = queues.iter().map(|q| q.depth()).collect();
        assert_eq!(populated.iter().sum::<usize>(), 32);
        assert_eq!(
            populated.iter().filter(|&&d| d > 0).count(),
            1,
            "one service must land on exactly one shard: {populated:?}"
        );
        assert_eq!(router.shard_of("sshd"), router.shard_of("sshd"));
        assert_eq!(router.shard_of("sshd"), shard_for("sshd", 4));
    }

    /// Drive a worker end to end in-process: unmatched residue is mined on
    /// drain, the set is published, and a second pass matches against it.
    #[test]
    fn worker_mines_residue_and_publishes_on_drain() {
        let queue = Arc::new(BoundedQueue::new(64));
        let ops = Arc::new(Ops::new());
        let board = Arc::new(PatternBoard::new());
        let store = Arc::new(Mutex::new(PatternStore::in_memory()));
        let miner = Arc::new(Miner::inline(test_deps(&store, &board, &ops)));
        let worker = test_worker(&queue, miner, &board, &ops);
        for user in ["alice", "bob", "carol"] {
            enqueue(
                &queue,
                record("sshd", &format!("session opened for user {user}")),
            );
        }
        queue.close();
        worker.run();
        let s = ops.snapshot();
        assert_eq!(s.unmatched, 3);
        assert_eq!(s.matched, 0);
        assert_eq!(s.remines, 1);
        assert_eq!(s.dropped, 0);
        assert!(s.swaps >= 1);
        let set = board.load("sshd").expect("published set");
        let msg = Scanner::new().scan("session opened for user mallory");
        assert!(set.match_message(&msg).is_some());
        // Store got the discovery too.
        let mut store = store.lock().unwrap();
        assert_eq!(store.pattern_count().unwrap(), 1);
    }

    /// Matched records bump the store's statistics in the job's commit.
    #[test]
    fn worker_records_match_stats_in_bulk() {
        let store = Arc::new(Mutex::new(PatternStore::in_memory()));
        let board = Arc::new(PatternBoard::new());
        // Pre-mine one pattern and publish it, as a prior job would (its
        // own throwaway counters: the assertions below watch the live run).
        let pattern_id = {
            let seed_ops = Arc::new(Ops::new());
            let seeder = Miner::inline(test_deps(&store, &board, &seed_ops));
            let batch: Vec<LogRecord> = ["alice", "bob", "carol"]
                .iter()
                .map(|u| record("sshd", &format!("session opened for user {u}")))
                .collect();
            seeder.try_submit(residue_job(batch)).unwrap();
            store.lock().unwrap().patterns(Some("sshd")).unwrap()[0]
                .id
                .clone()
        };
        let queue = Arc::new(BoundedQueue::new(64));
        let ops = Arc::new(Ops::new());
        let miner = Arc::new(Miner::inline(test_deps(&store, &board, &ops)));
        let worker = test_worker(&queue, miner, &board, &ops);
        for user in ["dave", "erin"] {
            enqueue(
                &queue,
                record("sshd", &format!("session opened for user {user}")),
            );
        }
        queue.close();
        worker.run();
        let s = ops.snapshot();
        assert_eq!(s.matched, 2);
        assert_eq!(s.unmatched, 0);
        let mut store = store.lock().unwrap();
        let stored = &store.patterns(Some("sshd")).unwrap()[0];
        assert_eq!(stored.id, pattern_id);
        assert_eq!(stored.count, 3 + 2);
    }

    /// A shard that is never idle — the producer keeps its queue non-empty
    /// for more than four record budgets of fully matched traffic — still
    /// hands its match counts over and has its WAL released: the log never
    /// covers more than the budget, the queue and what the worker gets
    /// through while the miner commits one handoff (a second budget, to be
    /// generous), and the counts are in the store before the stream ends.
    /// (An idle tick, should the producer ever stall for 50 ms, hands over
    /// sooner and restarts the count; the bounds hold either way.)
    #[test]
    fn busy_shard_hands_off_on_the_record_budget() {
        const QUEUE: usize = 4_096;
        const TOTAL: usize = 4 * HANDOFF_RECORDS + 100;
        let dir = std::env::temp_dir().join(format!("seqd-shard-budget-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (wal, _) = IngestWal::open(&dir, 1, usize::MAX).unwrap();
        let wal = Arc::new(wal);
        let store = Arc::new(Mutex::new(PatternStore::in_memory()));
        let board = Arc::new(PatternBoard::new());
        let ops = Arc::new(Ops::new());
        let mut deps = test_deps(&store, &board, &ops);
        deps.wal = Some(Arc::clone(&wal));
        // A pool, as in the daemon: the release takes the WAL lock, which
        // the producer holds while it waits for queue space — an inline
        // miner would stop the very worker that makes the space.
        let miner = Arc::new(Miner::background(deps, 1, 1_000));
        // Learn the one pattern every record of the stream matches.
        let seed: Vec<LogRecord> = ["alice", "bob", "carol"]
            .iter()
            .map(|u| record("sshd", &format!("login {u}")))
            .collect();
        miner.submit_blocking(residue_job(seed));
        let quiesce = || {
            while miner.backlog() > 0 {
                std::thread::yield_now();
            }
        };
        let stored = || store.lock().unwrap().patterns(Some("sshd")).unwrap()[0].count;
        quiesce();
        assert_eq!(stored(), 3);

        let queue = Arc::new(BoundedQueue::new(QUEUE));
        let worker = test_worker(&queue, Arc::clone(&miner), &board, &ops);
        let worker = std::thread::spawn(move || worker.run());
        let mut sent = 0;
        while sent < TOTAL {
            let batch: Vec<LogRecord> = (sent..TOTAL.min(sent + 512))
                .map(|i| record("sshd", &format!("login u{i}")))
                .collect();
            let n = batch.len();
            // Blocks while the queue is full: the worker is never starved.
            let accepted = wal.append_route_batch(0, batch, &queue, Duration::from_secs(60));
            assert_eq!(accepted, n);
            sent += n;
            let pending = wal.depths()[0];
            assert!(
                pending <= 2 * HANDOFF_RECORDS + QUEUE,
                "{pending} records pending in the log after {sent} sent"
            );
        }
        // Everything is sent and the queue was never closed: what the store
        // holds now got there without a drain, and the worker has less
        // than one budget left in hand.
        while (ops.snapshot().matched as usize) < TOTAL {
            std::thread::yield_now();
        }
        quiesce();
        assert!(stored() > (3 + TOTAL - HANDOFF_RECORDS) as u64);
        assert!(wal.depths()[0] < HANDOFF_RECORDS);
        queue.close();
        worker.join().unwrap();
        miner.close();
        miner.join();
        assert_eq!(stored(), 3 + TOTAL as u64);
        assert_eq!(wal.depths(), vec![0]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A transiently failing store is retried within the bounded budget and
    /// the batch survives; nothing is dropped.
    #[test]
    fn flush_retries_through_transient_store_failures() {
        use std::sync::atomic::AtomicU32;
        let mut store = patterndb::PatternStore::in_memory();
        let remaining = Arc::new(AtomicU32::new(2)); // first two write ops fail
        let gate = Arc::clone(&remaining);
        store.set_fault_hook(Some(Arc::new(move |_op: &str| {
            gate.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| n.checked_sub(1))
                .is_ok()
        })));
        let store = Arc::new(Mutex::new(store));
        let queue = Arc::new(BoundedQueue::new(64));
        let ops = Arc::new(Ops::new());
        let board = Arc::new(PatternBoard::new());
        let mut deps = test_deps(&store, &board, &ops);
        deps.retries = 4;
        let miner = Arc::new(Miner::inline(deps));
        let worker = test_worker(&queue, miner, &board, &ops);
        for user in ["alice", "bob", "carol"] {
            enqueue(
                &queue,
                record("sshd", &format!("session opened for user {user}")),
            );
        }
        queue.close();
        worker.run();
        let s = ops.snapshot();
        assert_eq!(s.dropped, 0, "retries must absorb transient failures");
        assert_eq!(s.remines, 1);
        let mut store = store.lock().unwrap();
        assert_eq!(store.pattern_count().unwrap(), 1);
    }

    /// A permanently failing store exhausts the budget: the batch is
    /// dropped *and counted* — the silent-drop bug this PR fixes.
    #[test]
    fn exhausted_flush_retries_count_dropped_records() {
        let mut store = patterndb::PatternStore::in_memory();
        store.set_fault_hook(Some(Arc::new(|op: &str| op == "begin")));
        let store = Arc::new(Mutex::new(store));
        let queue = Arc::new(BoundedQueue::new(64));
        let ops = Arc::new(Ops::new());
        let board = Arc::new(PatternBoard::new());
        let mut deps = test_deps(&store, &board, &ops);
        deps.retries = 2;
        let miner = Arc::new(Miner::inline(deps));
        let worker = test_worker(&queue, miner, &board, &ops);
        // The ingest path counts `ingested`; this test bypasses it.
        Ops::add(&ops.ingested, 3);
        for i in 0..3 {
            enqueue(&queue, record("svc", &format!("event {i}")));
        }
        queue.close();
        worker.run();
        let s = ops.snapshot();
        assert_eq!(s.dropped, 3, "the abandoned batch must be counted");
        assert_eq!(s.unmatched, 3, "dropped is a subset of unmatched");
        assert!(s.reconciles(), "{s:?}");
        assert_eq!(s.remines, 0);
    }

    /// Replay records are processed before live-queue records and counted
    /// as both ingested and replayed, keeping the invariant across a
    /// recovery.
    #[test]
    fn worker_processes_replay_before_queue() {
        let queue = Arc::new(BoundedQueue::new(64));
        let ops = Arc::new(Ops::new());
        let board = Arc::new(PatternBoard::new());
        let store = Arc::new(Mutex::new(PatternStore::in_memory()));
        let miner = Arc::new(Miner::inline(test_deps(&store, &board, &ops)));
        let mut worker = test_worker(&queue, miner, &board, &ops);
        worker.replay = (0..3)
            .map(|i| Accepted {
                seq: i + 1,
                record: record("sshd", &format!("recovered event {i}")),
            })
            .collect();
        // Live records are counted `ingested` by the ingest path, which
        // this test bypasses; mirror it for the pushed record.
        Ops::inc(&ops.ingested);
        enqueue(&queue, record("sshd", "live event"));
        queue.close();
        worker.run();
        let s = ops.snapshot();
        assert_eq!(s.ingested, 4, "replayed records count as ingested here");
        assert_eq!(s.replayed, 3);
        assert!(s.reconciles(), "{s:?}");
    }
}
