//! The background mining pipeline: re-mining off the ingest hot path.
//!
//! A flush — the mining step the CLI runs too (plan, one commit of match
//! counts and mined patterns, publish; see [`sequence_rtg::batch`]), then
//! the WAL release — runs on a small pool of mining threads fed by a
//! bounded job queue:
//!
//! * A worker hands off its arrival batch (residue and match counts) and
//!   its WAL high-water mark as a [`MineJob`] and immediately resumes
//!   draining its queue, matching new records against the *currently
//!   published* sets until the miner publishes fresh ones through the
//!   [`PatternBoard`].
//! * A shard runs at most one job at a time, and a service hashes to exactly
//!   one shard, so no two jobs ever touch one service's pattern set at once.
//!   That rule is the only guard on a set: a job plans against the set it
//!   loads from the board, with no lock held, and publishes the grown set
//!   back. Jobs for different shards plan in parallel; only their commits
//!   share the store lock in [`MinerDeps::store`].
//! * A second submission for a shard whose job is still queued *coalesces*
//!   into the pending job (counted in `mine_coalesced`) instead of queueing
//!   a stale re-mine behind it, so the queue holds at most one job per
//!   shard.
//! * The queue is bounded by *records*, not jobs. When it is full a worker
//!   keeps accumulating residue past its batch size (counted per record in
//!   `mine_overflow`, never dropped) up to a hard cap, where it blocks —
//!   the same backpressure-not-loss policy as the ingest queues.
//! * WAL release happens in the miner's post-commit step: a record's log
//!   entry survives until its fate (mined, matched, or counted dropped) is
//!   decided, preserving the crash-safety contract end to end.
//!
//! Once the pool is closed, a submission mines on the submitting thread,
//! after its shard's queued or in-flight job is done. [`Miner::inline`] is a
//! pool with no threads, closed from the start: the daemon never builds one;
//! tests use it as the synchronous executor and as the reference a pool's
//! outcome is compared against.

use crate::metrics::{stages, Ops};
use crate::shard::now_unix;
use crate::swap::PatternBoard;
use crate::wal::IngestWal;
use patterndb::PatternStore;
use sequence_core::MatchScratch;
use sequence_rtg::{commit_plans, publish, Mining, OpenBatch};
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A drain signal that interrupts mining-retry backoff sleeps: once the
/// daemon starts draining, a commit-retry ladder must not hold `POST
/// /shutdown` for the full exponential backoff — remaining attempts run
/// back to back instead.
#[derive(Debug, Default)]
pub struct DrainSignal {
    tripped: AtomicBool,
    lock: Mutex<()>,
    wake: Condvar,
}

impl DrainSignal {
    /// A fresh, untripped signal.
    pub fn new() -> DrainSignal {
        DrainSignal::default()
    }

    /// Mark the drain as begun and wake every sleeper. Idempotent.
    pub fn trip(&self) {
        self.tripped.store(true, Ordering::SeqCst);
        let _guard = self.lock.lock().expect("drain lock");
        self.wake.notify_all();
    }

    /// Whether the drain has begun.
    pub fn is_tripped(&self) -> bool {
        self.tripped.load(Ordering::SeqCst)
    }

    /// Sleep for `dur`, returning early (with `true`) if the drain begins —
    /// or began before the call. Returns `false` after a full sleep.
    pub fn sleep(&self, dur: Duration) -> bool {
        if self.is_tripped() {
            return true;
        }
        let guard = self.lock.lock().expect("drain lock");
        let (_guard, _timeout) = self
            .wake
            .wait_timeout_while(guard, dur, |_| !self.is_tripped())
            .expect("drain lock");
        self.is_tripped()
    }
}

/// One unit of handed-off mining work: a shard's arrival batch (residue
/// and match counts) and the WAL mark it covers.
#[derive(Debug)]
pub struct MineJob {
    /// The submitting shard (per-shard jobs are serialized, so one
    /// service's records are never mined out of order).
    pub shard_id: usize,
    /// The shard's arrival batch: unmatched records to re-mine and
    /// ingest-time match counts.
    pub batch: OpenBatch,
    /// Highest WAL sequence the shard has taken charge of; released after
    /// the job's fate is committed. Zero means nothing to release.
    pub release_up_to: u64,
    /// When the oldest records in this job were handed off (coalesced jobs
    /// keep the earlier stamp, so queue-wait reflects the worst record).
    pub enqueued: Instant,
}

impl MineJob {
    /// Fold a later submission for the same shard into this pending job.
    pub fn merge(&mut self, other: MineJob) {
        debug_assert_eq!(self.shard_id, other.shard_id);
        self.batch.merge(other.batch);
        self.release_up_to = self.release_up_to.max(other.release_up_to);
        self.enqueued = self.enqueued.min(other.enqueued);
    }

    fn is_trivial(&self) -> bool {
        self.batch.is_empty() && self.release_up_to == 0
    }
}

/// Everything a mining run needs besides the job itself.
#[derive(Debug, Clone)]
pub struct MinerDeps {
    /// The mining configuration, scanner and analyser.
    pub mining: Arc<Mining>,
    /// The pattern store, behind one lock held only for the commit
    /// transactions and control-plane reads.
    pub store: Arc<Mutex<PatternStore>>,
    /// The published sets: what jobs plan against and publish to.
    pub board: Arc<PatternBoard>,
    /// Shared counters.
    pub ops: Arc<Ops>,
    /// The ingest WAL, released as jobs commit.
    pub wal: Option<Arc<IngestWal>>,
    /// Extra commit attempts after the first failure before dropping.
    pub retries: u32,
    /// Backoff before the first retry; doubles per subsequent attempt.
    pub backoff: Duration,
    /// Tripped when the daemon starts draining: pending retry backoffs are
    /// cut short so shutdown never waits out the full backoff ladder.
    pub drain: Arc<DrainSignal>,
}

/// Run one mining job to completion through the shared mining step: plan
/// each service against its published set, commit the match counts and the
/// mined patterns in one store transaction (retried with exponential
/// backoff up to the bounded budget, then abandoned and counted in
/// `Ops::dropped`), publish the sets of the services that gained patterns,
/// and release the job's records from the ingest WAL.
///
/// The caller guarantees that no other job of the same shard runs at the
/// same time; nothing here locks a service's set.
pub fn mine_job(deps: &MinerDeps, scratch: &mut MatchScratch, job: MineJob) {
    if job.is_trivial() {
        return;
    }
    let MineJob {
        shard_id,
        mut batch,
        release_up_to,
        enqueued,
    } = job;
    stages::mine_queue_wait().record_ns(elapsed_ns(enqueued));
    let now = now_unix();
    let started = Instant::now();
    let residue = batch.residue_len();

    // The whole job still records as one `seqd.flush` — the name operators
    // (and the slow-ring tests) already watch for a re-mine.
    let mut flush_span = obs::span!("seqd.flush");
    flush_span.attr_u64("shard", shard_id as u64);
    flush_span.attr_u64("batch", residue as u64);
    flush_span.attr_u64("match_counts", batch.match_counts().count() as u64);

    // Plans are reusable data, so a failed commit retries without paying
    // for the analysis again.
    let plans = deps.mining.plan(&deps.board, &mut batch, scratch);
    flush_span.attr_u64("services", plans.len() as u64);
    if let Some((first, _)) = plans.first() {
        flush_span.attr_str("service", first);
    }
    let mut attempt: u32 = 0;
    let outcomes = loop {
        let job_plans = plans.iter().map(|(service, plan)| (service.as_str(), plan));
        // The lock is held for one attempt only: backoff sleeps must not
        // starve other jobs' commits.
        let committed = commit_plans(&mut deps.store.lock().expect("store lock"), job_plans, now);
        match committed {
            Ok(outcomes) => break Some(outcomes),
            Err(e) => eprintln!(
                "seqd[miner, shard {shard_id}]: mining commit failed (attempt {attempt}): {e}"
            ),
        }
        if attempt >= deps.retries {
            // Abandon the job: the transaction rolled back, so nothing
            // partial is in the store or the sets. Count the loss.
            Ops::add(&deps.ops.dropped, residue as u64);
            eprintln!(
                "seqd[miner, shard {shard_id}]: dropping {residue} residue records and their \
                 shard's match statistics after {} attempts",
                attempt + 1
            );
            break None;
        }
        // A drain begun mid-ladder cuts the backoff short: the remaining
        // attempts run back to back so shutdown is never held for it.
        deps.drain
            .sleep(deps.backoff * 2u32.saturating_pow(attempt));
        attempt += 1;
    };

    let core_ns = elapsed_ns(started);
    stages::mine().record_ns(core_ns);
    if residue > 0 {
        // The miner *is* the analyse stage now; keep the rtg-level latency
        // series (and `/stats`'s analyze line) populated.
        obs::registry()
            .histogram(
                "rtg_analyze_seconds",
                "Time for one analyze_by_service batch (scan, mine, persist)",
            )
            .record_ns(core_ns);
    }

    // A job without residue only counted: it is not a re-mine. Publish
    // *before* `record_remine` — pollers that watch `remine_runs` take the
    // bump to mean the new sets are visible.
    if let Some(outcomes) = outcomes.filter(|_| residue > 0) {
        let mut publish_span = obs::span!("seqd.mine.publish");
        publish_span.attr_u64("shard", shard_id as u64);
        publish_span.attr_u64("services", plans.len() as u64);
        Ops::add(&deps.ops.swaps, publish(&deps.board, &plans, outcomes));
        deps.ops.record_remine(started.elapsed());
    }

    if release_up_to > 0 {
        if let Some(wal) = &deps.wal {
            let mut release_span = obs::span!("seqd.mine.wal_release");
            release_span.attr_u64("shard", shard_id as u64);
            release_span.attr_u64("up_to", release_up_to);
            if let Err(e) = wal.release(shard_id, release_up_to) {
                eprintln!("seqd[miner, shard {shard_id}]: wal release failed: {e}");
            }
        }
    }
}

fn elapsed_ns(since: Instant) -> u64 {
    since.elapsed().as_nanos().min(u64::MAX as u128) as u64
}

/// What one pending-queue insertion did.
#[derive(Debug, PartialEq, Eq)]
enum Enqueued {
    /// Queued as a fresh job.
    Fresh,
    /// Merged into the shard's already-pending job.
    Coalesced,
}

/// The miner pool's shared queue state. At most one pending job per shard
/// (later submissions coalesce), and at most one *in-flight* job per shard
/// (`mining` gates pickup), so per-service mining order matches submission
/// order even with many threads.
#[derive(Debug, Default)]
struct PoolState {
    pending: HashMap<usize, MineJob>,
    /// Shard pickup order (FIFO by first submission).
    order: VecDeque<usize>,
    /// Shards whose job is currently being mined.
    mining: HashSet<usize>,
    /// Residue records across all pending jobs — the capacity unit.
    queued_records: usize,
    closed: bool,
}

impl PoolState {
    /// Try to queue or coalesce `job` within `capacity` residue records.
    /// An empty queue always accepts (a single oversized batch must still
    /// make progress). Gives the job back on `Err` so the caller can keep
    /// accumulating — backpressure, never loss.
    fn enqueue(&mut self, job: MineJob, capacity: usize) -> Result<Enqueued, MineJob> {
        let len = job.batch.residue_len();
        if self.queued_records > 0 && self.queued_records + len > capacity {
            return Err(job);
        }
        self.queued_records += len;
        match self.pending.get_mut(&job.shard_id) {
            Some(pending) => {
                pending.merge(job);
                Ok(Enqueued::Coalesced)
            }
            None => {
                self.order.push_back(job.shard_id);
                self.pending.insert(job.shard_id, job);
                Ok(Enqueued::Fresh)
            }
        }
    }

    /// Pop the oldest pending job whose shard is not already being mined.
    fn pop_ready(&mut self) -> Option<MineJob> {
        let pos = self
            .order
            .iter()
            .position(|shard| !self.mining.contains(shard))?;
        let shard = self.order.remove(pos).expect("indexed position");
        let job = self.pending.remove(&shard).expect("ordered shard pending");
        self.mining.insert(shard);
        self.queued_records -= job.batch.residue_len();
        Some(job)
    }
}

#[derive(Debug)]
struct PoolShared {
    deps: MinerDeps,
    state: Mutex<PoolState>,
    /// Signalled on enqueue, on a shard finishing (its next pending job
    /// becomes eligible), and on close.
    job_ready: Condvar,
    /// Signalled when records leave the queue, on close, and — once closed
    /// — on a shard finishing, for a submitter waiting to mine inline.
    space: Condvar,
    capacity_records: usize,
}

impl PoolShared {
    /// Mark `shard`'s in-flight job done and wake whoever waits on it.
    fn finish(&self, shard: usize) {
        let mut state = self.state.lock().expect("miner state lock");
        state.mining.remove(&shard);
        if state.pending.contains_key(&shard) {
            // The shard queued another job while this one mined; it just
            // became eligible, so wake a (possibly waiting) thread for it.
            self.job_ready.notify_one();
        }
        if state.closed {
            self.space.notify_all();
        }
    }
}

/// The mining executor: a pool of background mining threads over a
/// bounded job queue.
#[derive(Debug)]
pub struct Miner {
    shared: Arc<PoolShared>,
    handles: Mutex<Vec<JoinHandle<()>>>,
}

impl Miner {
    /// An inline miner: a pool with no threads, closed from the start, so
    /// every submission mines on the calling thread.
    pub fn inline(deps: MinerDeps) -> Miner {
        let miner = Miner::spawn(deps, 0, 1);
        miner.close();
        miner
    }

    /// A background pool of `threads` mining threads over a queue bounded
    /// at `capacity_records` residue records.
    pub fn background(deps: MinerDeps, threads: usize, capacity_records: usize) -> Miner {
        assert!(threads > 0, "a background pool needs at least one miner");
        Miner::spawn(deps, threads, capacity_records)
    }

    fn spawn(deps: MinerDeps, threads: usize, capacity_records: usize) -> Miner {
        let shared = Arc::new(PoolShared {
            deps,
            state: Mutex::new(PoolState::default()),
            job_ready: Condvar::new(),
            space: Condvar::new(),
            capacity_records: capacity_records.max(1),
        });
        let handles = (0..threads)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("seqd-miner-{i}"))
                    .spawn(move || miner_thread(shared))
                    .expect("spawn miner thread")
            })
            .collect();
        Miner {
            shared,
            handles: Mutex::new(handles),
        }
    }

    /// Submit without blocking. `Err` returns the job untouched (queue at
    /// capacity) — the caller keeps its residue and tries again later.
    /// A closed pool runs the job on this thread instead, so a submission
    /// is never lost.
    pub fn try_submit(&self, job: MineJob) -> Result<(), MineJob> {
        self.submit(job, false)
    }

    /// Submit, waiting for queue space if necessary. Never fails: a closed
    /// pool mines the job on this thread.
    pub fn submit_blocking(&self, job: MineJob) {
        let queued = self.submit(job, true);
        debug_assert!(queued.is_ok(), "a waiting submit always lands");
    }

    /// Queue `job` (waiting for space when `wait`), or mine it here once
    /// the pool is closed.
    ///
    /// The submitter-observed pause lands in `seqd_mine_stall_seconds`:
    /// queue admission (lock plus enqueue, plus any wait for space — the
    /// backpressure ceiling in action) for an open pool, the whole mine
    /// for a closed one. The wake of a pool thread is deliberately outside
    /// the measured window — it is asynchronous signalling, not admission,
    /// and on a single-core host the futex wake is a scheduler preemption
    /// point that would charge an arbitrary thread's timeslice to the
    /// handoff.
    fn submit(&self, mut job: MineJob, wait: bool) -> Result<(), MineJob> {
        if job.is_trivial() {
            return Ok(());
        }
        let shared = &*self.shared;
        let stall = Instant::now();
        let shard = job.shard_id;
        let mut state = shared.state.lock().expect("miner state lock");
        while !state.closed {
            match state.enqueue(job, shared.capacity_records) {
                Ok(kind) => {
                    let ops = &shared.deps.ops;
                    Ops::inc(match kind {
                        Enqueued::Fresh => &ops.mine_jobs,
                        Enqueued::Coalesced => &ops.mine_coalesced,
                    });
                    stages::mine_stall().record_ns(elapsed_ns(stall));
                    // Wake a miner only when the job is actually eligible:
                    // a shard that is mining serialises behind its
                    // in-flight job, whose completion does its own wake.
                    if !state.mining.contains(&shard) {
                        shared.job_ready.notify_one();
                    }
                    return Ok(());
                }
                Err(back) if !wait => {
                    stages::mine_stall().record_ns(elapsed_ns(stall));
                    return Err(back);
                }
                Err(back) => job = back,
            }
            state = shared.space.wait(state).expect("miner state lock");
        }
        // Closed: the mining threads are draining or gone, so the submitter
        // mines — after the shard's queued and in-flight jobs, keeping one
        // job per shard at a time and the shard's submission order.
        while state.mining.contains(&shard) || state.pending.contains_key(&shard) {
            state = shared.space.wait(state).expect("miner state lock");
        }
        state.mining.insert(shard);
        drop(state);
        Ops::inc(&shared.deps.ops.mine_jobs);
        mine_job(&shared.deps, &mut MatchScratch::default(), job);
        stages::mine_stall().record_ns(elapsed_ns(stall));
        shared.finish(shard);
        Ok(())
    }

    /// Pending jobs in the queue — the `seqd_mine_queue_depth` gauge.
    pub fn queue_depth(&self) -> usize {
        self.shared
            .state
            .lock()
            .expect("miner state lock")
            .pending
            .len()
    }

    /// Queued *plus* in-flight jobs: the whole mining backlog. `0` means
    /// the pool is quiescent — every handed-off batch has been mined,
    /// committed and WAL-released.
    pub fn backlog(&self) -> usize {
        let state = self.shared.state.lock().expect("miner state lock");
        state.pending.len() + state.mining.len()
    }

    /// Stop accepting queued submissions. Pending jobs still run; later
    /// submissions mine on the submitting thread.
    pub fn close(&self) {
        let mut state = self.shared.state.lock().expect("miner state lock");
        state.closed = true;
        self.shared.job_ready.notify_all();
        self.shared.space.notify_all();
    }

    /// Wait for the mining threads to drain every pending job and exit.
    /// Call [`Miner::close`] first (after the shard workers have joined).
    pub fn join(&self) {
        let handles: Vec<_> = self
            .handles
            .lock()
            .expect("miner handles lock")
            .drain(..)
            .collect();
        for h in handles {
            let _ = h.join();
        }
    }
}

/// One mining thread: pick the oldest eligible job, mine it, repeat until
/// the pool is closed *and* drained. Per-shard eligibility (`mining`)
/// keeps one shard's jobs in submission order across the whole pool.
fn miner_thread(shared: Arc<PoolShared>) {
    let mut scratch = MatchScratch::default();
    loop {
        let job = {
            let mut state = shared.state.lock().expect("miner state lock");
            loop {
                if let Some(job) = state.pop_ready() {
                    shared.space.notify_all();
                    break job;
                }
                if state.closed && state.pending.is_empty() {
                    // Siblings may be parked here from when the queue still
                    // held jobs for in-flight shards; no further submission
                    // or completion will notify them, so chain the wake.
                    shared.job_ready.notify_all();
                    return;
                }
                state = shared.job_ready.wait(state).expect("miner state lock");
            }
        };
        let shard = job.shard_id;
        mine_job(&shared.deps, &mut scratch, job);
        shared.finish(shard);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sequence_core::{PatternSet, Scanner};
    use sequence_rtg::{Arrival, LogRecord, RtgConfig};
    use std::collections::BTreeSet;

    fn record(service: &str, message: &str) -> LogRecord {
        LogRecord::new(service, message)
    }

    fn sshd_batch() -> Vec<LogRecord> {
        ["alice", "bob", "carol"]
            .iter()
            .map(|u| record("sshd", &format!("session opened for user {u}")))
            .collect()
    }

    fn test_deps() -> MinerDeps {
        deps_for(PatternStore::in_memory())
    }

    fn deps_for(store: PatternStore) -> MinerDeps {
        MinerDeps {
            mining: Arc::new(Mining::new(RtgConfig::default())),
            store: Arc::new(Mutex::new(store)),
            board: Arc::new(PatternBoard::new()),
            ops: Arc::new(Ops::new()),
            wal: None,
            retries: 0,
            backoff: Duration::from_millis(1),
            drain: Arc::new(DrainSignal::new()),
        }
    }

    fn job(shard_id: usize, residue: Vec<LogRecord>) -> MineJob {
        let mut batch = OpenBatch::default();
        for r in residue {
            batch.take(&r, Arrival::Residue);
        }
        MineJob {
            shard_id,
            batch,
            release_up_to: 0,
            enqueued: Instant::now(),
        }
    }

    /// Count `n` arrival matches of pattern `id` of `sshd` into `job`.
    fn count(job: &mut MineJob, id: &str, n: u64) {
        for _ in 0..n {
            let matched = Arrival::Matched {
                id,
                multiline: false,
            };
            job.batch.take(&record("sshd", "matched"), matched);
        }
    }

    #[test]
    fn inline_miner_mines_commits_and_publishes() {
        let deps = test_deps();
        let miner = Miner::inline(deps.clone());
        miner.try_submit(job(0, sshd_batch())).unwrap();
        let s = deps.ops.snapshot();
        assert_eq!(s.mine_jobs, 1);
        assert_eq!(s.remines, 1);
        assert_eq!(s.dropped, 0);
        assert!(s.swaps >= 1);
        let set = deps.board.load("sshd").expect("published set");
        let msg = Scanner::new().scan("session opened for user mallory");
        assert!(set.match_message(&msg).is_some());
        assert_eq!(deps.store.lock().unwrap().pattern_count().unwrap(), 1);
        assert_eq!(miner.queue_depth(), 0);
    }

    /// Mining and the board share one set: a job plans against the board's
    /// set — a set seeded there is what its records match — and a job whose
    /// plan only matches swaps nothing.
    #[test]
    fn engine_and_board_share_the_set_and_match_only_jobs_do_not_republish() {
        let deps = test_deps();
        let mut seeded = PatternSet::new();
        let known = sequence_core::Pattern::parse("session opened for user %user%").unwrap();
        seeded.insert("known", known);
        deps.board.publish("sshd", seeded);
        let published = deps.board.load("sshd").unwrap();
        let miner = Miner::inline(deps.clone());
        miner.try_submit(job(0, sshd_batch())).unwrap();
        let s = deps.ops.snapshot();
        assert_eq!((s.remines, s.swaps), (1, 0), "{s:?}");
        assert!(Arc::ptr_eq(&published, &deps.board.load("sshd").unwrap()));
        let store = &deps.store;
        assert_eq!(store.lock().unwrap().pattern_count().unwrap(), 0);
    }

    /// One job per shard is the only guard on a service's set. Four miner
    /// threads serve three shards of four services each, and every round
    /// brings templates no earlier round has seen. A gate holds the first
    /// commit until the pool is closed: round 0 of every shard is in
    /// flight, rounds 1–3 queue and coalesce behind it, and `close` wakes
    /// the spare thread with only in-flight shards pending. A last round
    /// goes in after `close`, mined on the submitting thread behind each
    /// shard's jobs. Two jobs of one shard at once would both plan against
    /// the same published set, and the later publish would drop the
    /// earlier one's patterns.
    #[test]
    fn one_job_per_shard_keeps_every_published_set_equal_to_the_store() {
        const SHARDS: usize = 3;
        const SERVICES: usize = 4;
        const ROUNDS: usize = 4;
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let mut store = PatternStore::in_memory();
        let held = Arc::clone(&gate);
        store.set_fault_hook(Some(Arc::new(move |op: &str| {
            if op == "begin" {
                let (open, opened) = &*held;
                let open = open.lock().unwrap();
                drop(opened.wait_while(open, |open| !*open).unwrap());
            }
            false
        })));
        let deps = deps_for(store);
        let miner = Miner::background(deps.clone(), 4, 1_000_000);
        // Round `r` gives every service a template of `r + 4` tokens, so no
        // earlier pattern matches it and no two rounds merge.
        let round = |r: usize, shard: usize| {
            let batch = (0..SERVICES)
                .flat_map(|k| {
                    (0..3).map(move |n| {
                        let steps = " step".repeat(r);
                        let message = format!("job{steps} finished in {} ms", 10 * n + k);
                        record(&format!("svc-{shard}-{k}"), &message)
                    })
                })
                .collect();
            job(shard, batch)
        };
        for shard in 0..SHARDS {
            miner.submit_blocking(round(0, shard));
        }
        while miner.queue_depth() > 0 {
            std::thread::yield_now();
        }
        for r in 1..ROUNDS {
            for shard in 0..SHARDS {
                miner.submit_blocking(round(r, shard));
            }
        }
        miner.close();
        *gate.0.lock().unwrap() = true;
        gate.1.notify_all();
        for shard in 0..SHARDS {
            miner.submit_blocking(round(ROUNDS, shard));
        }
        miner.join();

        let s = deps.ops.snapshot();
        assert_eq!(s.dropped, 0, "{s:?}");
        assert!(s.mine_coalesced > 0, "{s:?}");
        let mut store = deps.store.lock().unwrap();
        for shard in 0..SHARDS {
            for k in 0..SERVICES {
                let service = format!("svc-{shard}-{k}");
                let stored: BTreeSet<String> = store
                    .patterns(Some(&service))
                    .unwrap()
                    .into_iter()
                    .map(|p| p.id)
                    .collect();
                assert_eq!(stored.len(), ROUNDS + 1, "{service}");
                let set = deps.board.load(&service).expect("published set");
                let published: BTreeSet<String> =
                    set.iter().map(|(id, _)| id.to_string()).collect();
                assert_eq!(published, stored, "{service}");
            }
        }
    }

    #[test]
    fn match_counts_commit_with_the_job() {
        let deps = test_deps();
        let miner = Miner::inline(deps.clone());
        miner.try_submit(job(0, sshd_batch())).unwrap();
        let id = deps.store.lock().unwrap().patterns(Some("sshd")).unwrap()[0]
            .id
            .clone();
        let mut counts_only = job(0, Vec::new());
        count(&mut counts_only, &id, 5);
        miner.try_submit(counts_only).unwrap();
        let store = &deps.store;
        let p = &store.lock().unwrap().patterns(Some("sshd")).unwrap()[0];
        assert_eq!(p.count, 3 + 5);
        // A counts-only job is not a re-mine.
        assert_eq!(deps.ops.snapshot().remines, 1);
    }

    #[test]
    fn pool_state_coalesces_per_shard_and_bounds_by_records() {
        let mut state = PoolState::default();
        let early = Instant::now();
        let mut first = job(3, sshd_batch());
        first.enqueued = early;
        count(&mut first, "p1", 2);
        first.release_up_to = 10;
        assert!(matches!(state.enqueue(first, 8), Ok(Enqueued::Fresh)));

        let mut second = job(3, vec![record("sshd", "another line here")]);
        count(&mut second, "p1", 1);
        count(&mut second, "p2", 4);
        second.release_up_to = 17;
        assert!(matches!(state.enqueue(second, 8), Ok(Enqueued::Coalesced)));
        assert_eq!(state.pending.len(), 1);
        assert_eq!(state.queued_records, 4);
        let merged = &state.pending[&3];
        assert_eq!(merged.batch.residue_len(), 4);
        let counts: HashMap<&str, u64> = merged.batch.match_counts().collect();
        assert_eq!(counts["p1"], 3);
        assert_eq!(counts["p2"], 4);
        assert_eq!(merged.release_up_to, 17);
        assert_eq!(merged.enqueued, early, "coalescing keeps the oldest stamp");

        // A different shard over capacity bounces back intact…
        let rejected = state.enqueue(job(5, sshd_batch()), 6).unwrap_err();
        assert_eq!(rejected.shard_id, 5);
        assert_eq!(rejected.batch.residue_len(), 3);
        // …and so does a further merge that would blow the record bound.
        assert!(state.enqueue(job(3, sshd_batch()), 6).is_err());
        // An empty queue accepts even an oversized batch (progress).
        let mut fresh = PoolState::default();
        assert!(matches!(
            fresh.enqueue(job(0, sshd_batch()), 1),
            Ok(Enqueued::Fresh)
        ));
    }

    #[test]
    fn pool_state_serializes_in_flight_shards() {
        let mut state = PoolState::default();
        state.enqueue(job(1, sshd_batch()), 100).unwrap();
        let first = state.pop_ready().expect("one ready job");
        assert_eq!(first.shard_id, 1);
        assert_eq!(state.queued_records, 0);
        // The same shard resubmits while in flight: queued but not ready.
        state.enqueue(job(1, sshd_batch()), 100).unwrap();
        assert!(state.pop_ready().is_none(), "shard 1 is still mining");
        // Another shard's job is picked around the blocked one.
        state.enqueue(job(2, sshd_batch()), 100).unwrap();
        assert_eq!(state.pop_ready().expect("shard 2 ready").shard_id, 2);
        // Finishing shard 1 makes its pending job eligible again.
        state.mining.remove(&1);
        assert_eq!(state.pop_ready().expect("shard 1 ready").shard_id, 1);
    }

    #[test]
    fn background_pool_drains_pending_jobs_on_join() {
        let deps = test_deps();
        let miner = Miner::background(deps.clone(), 2, 1_000);
        for shard in 0..4 {
            let batch = vec![
                record(&format!("svc-{shard}"), "connection reset by peer now"),
                record(&format!("svc-{shard}"), "connection reset by peer again"),
            ];
            miner.submit_blocking(job(shard, batch));
        }
        miner.close();
        miner.join();
        let s = deps.ops.snapshot();
        assert_eq!(s.mine_jobs + s.mine_coalesced, 4);
        assert_eq!(s.dropped, 0);
        for shard in 0..4 {
            assert!(
                deps.board.load(&format!("svc-{shard}")).is_some(),
                "svc-{shard} set published"
            );
        }
        assert_eq!(deps.store.lock().unwrap().pattern_count().unwrap(), 4);
    }

    #[test]
    fn closed_pool_mines_inline_instead_of_losing_the_job() {
        let deps = test_deps();
        let miner = Miner::background(deps.clone(), 1, 1_000);
        miner.close();
        miner.join();
        miner.submit_blocking(job(0, sshd_batch()));
        assert_eq!(deps.ops.snapshot().remines, 1);
        assert!(deps.board.load("sshd").is_some());
    }

    #[test]
    fn exhausted_retries_drop_and_count() {
        let mut store = PatternStore::in_memory();
        store.set_fault_hook(Some(Arc::new(|op: &str| op == "begin")));
        let mut deps = deps_for(store);
        deps.retries = 2;
        let miner = Miner::inline(deps.clone());
        miner.try_submit(job(0, sshd_batch())).unwrap();
        let s = deps.ops.snapshot();
        assert_eq!(s.dropped, 3, "the abandoned batch must be counted");
        assert_eq!(s.remines, 0);
        assert!(deps.board.load("sshd").is_none(), "nothing published");
    }

    /// The shutdown-stall regression: a draining daemon must not wait out
    /// the full exponential backoff ladder between commit retries.
    #[test]
    fn drain_signal_cuts_retry_backoff_short() {
        let mut store = PatternStore::in_memory();
        store.set_fault_hook(Some(Arc::new(|op: &str| op == "begin")));
        let mut deps = deps_for(store);
        deps.retries = 3;
        // Untripped, the ladder would sleep 5 + 10 + 20 seconds.
        deps.backoff = Duration::from_secs(5);
        deps.drain.trip();
        let miner = Miner::inline(deps.clone());
        let started = Instant::now();
        miner.try_submit(job(0, sshd_batch())).unwrap();
        assert!(
            started.elapsed() < Duration::from_secs(2),
            "drain did not interrupt the backoff: {:?}",
            started.elapsed()
        );
        // The retry budget itself is preserved — attempts still happen and
        // the batch is dropped and counted, exactly as without a drain.
        assert_eq!(deps.ops.snapshot().dropped, 3);
    }

    /// The same interruption mid-sleep: trip from another thread while the
    /// first backoff is in progress.
    #[test]
    fn drain_signal_wakes_a_sleeper_mid_backoff() {
        let signal = Arc::new(DrainSignal::new());
        let tripper = Arc::clone(&signal);
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(50));
            tripper.trip();
        });
        let started = Instant::now();
        let interrupted = signal.sleep(Duration::from_secs(30));
        assert!(interrupted);
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "sleeper not woken: {:?}",
            started.elapsed()
        );
        t.join().unwrap();
        // And a pre-tripped signal does not sleep at all.
        let started = Instant::now();
        assert!(signal.sleep(Duration::from_secs(30)));
        assert!(started.elapsed() < Duration::from_secs(1));
    }

    #[test]
    fn failed_commit_retries_reuse_the_plan() {
        use std::sync::atomic::{AtomicU32, Ordering};
        let mut store = PatternStore::in_memory();
        let remaining = Arc::new(AtomicU32::new(2)); // first two write ops fail
        let gate = Arc::clone(&remaining);
        store.set_fault_hook(Some(Arc::new(move |_op: &str| {
            gate.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| n.checked_sub(1))
                .is_ok()
        })));
        let mut deps = deps_for(store);
        deps.retries = 4;
        let miner = Miner::inline(deps.clone());
        miner.try_submit(job(0, sshd_batch())).unwrap();
        let s = deps.ops.snapshot();
        assert_eq!(s.dropped, 0, "retries must absorb transient failures");
        assert_eq!(s.remines, 1);
        assert_eq!(deps.store.lock().unwrap().pattern_count().unwrap(), 1);
    }
}
