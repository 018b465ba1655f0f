//! The ingest write-ahead log: crash safety for accepted-but-unmined records.
//!
//! Without it, a record the daemon has *receipted* lives only in a shard
//! queue or a worker's in-memory residue until the next flush — a `kill -9`
//! silently loses it and the paper's "production-ready" claim with it. The
//! WAL closes that window:
//!
//! * every accepted record is appended to its shard's log **before** the
//!   connection receipt goes out (the receipt path fsyncs the logs first,
//!   batched with [`IngestWal::sync`]);
//! * after a worker flush lands the records in the pattern store, the shard
//!   log is cut down to what is still outstanding ([`IngestWal::release`]:
//!   truncate in place when nothing is, else copy the file's tail to a
//!   temp and rename it over);
//! * on start, leftover logs are replayed: surviving records are re-routed
//!   (the shard count may have changed), re-logged, and handed to the
//!   workers as pre-queue residue, so
//!   `ingested = matched + unmatched + rejected + malformed` holds across
//!   the crash.
//!
//! The format is the ingest wire format itself: one
//! [`LogRecord::to_json_line`] per line. `to_json_line` escapes `\n`, so a
//! record can never span lines, and a crash mid-append leaves at most one
//! torn *final* line, which replay drops — exactly the semantics of the
//! receipt (an unreceipted record may be lost; a receipted one may not).
//!
//! The file *is* the pending set. In memory a shard holds one extent per
//! append — its line count and byte length, from which `release` derives
//! the byte offset its survivors start at — and never the lines
//! themselves, so what the daemon holds per acked-but-unreleased record
//! does not grow with the record, nor with the record count beyond eight
//! bytes per append (`seqd_wal_pending_bytes` reports what the file holds).
//! An extent is at most [`BATCH_BYTES`] plus one line long: a release that
//! cuts inside one reads that extent back from the file and counts its
//! newlines, which no WAL line holds raw.
//!
//! The file handling is [`patterndb::log`]'s, shared with the pattern
//! store's logs; this module keeps the line grammar, the extent index and
//! the staged recovery.
//!
//! Guarantee grade: **at-least-once**. A crash between the store commit and
//! the log release replays records that were already mined; re-mining them
//! bumps pattern match counts but converges to the same pattern *sets*.

use crate::eventloop::BATCH_BYTES;
use crate::queue::BoundedQueue;
use crate::shard::shard_for;
use patterndb::log::{self, AppendFile};
use sequence_rtg::LogRecord;
use std::collections::VecDeque;
use std::fs;
use std::io::{self, BufRead, Read};
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Duration;

/// A record accepted into a shard queue, tagged with its WAL sequence
/// number. Sequences are per-shard and start at 1; `0` marks a record
/// accepted while the WAL is disabled.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Accepted {
    /// Per-shard WAL sequence (0 = untracked).
    pub seq: u64,
    /// The accepted record.
    pub record: LogRecord,
}

impl Accepted {
    /// A record accepted without durability tracking.
    pub fn untracked(record: LogRecord) -> Accepted {
        Accepted { seq: 0, record }
    }

    /// Heap bytes of the record's service name and message.
    pub fn heap_bytes(&self) -> usize {
        self.record.service.capacity() + self.record.message.capacity()
    }
}

/// A run of whole lines written by one append: the index keeps one per
/// append, not one per line.
#[derive(Debug, Clone, Copy)]
struct Extent {
    lines: u32,
    bytes: u32,
}

/// One shard's log state, guarded by a mutex so the append+enqueue pair is
/// atomic with respect to [`IngestWal::release`] — a released sequence can
/// never race ahead of its queue entry.
#[derive(Debug)]
struct ShardWal {
    /// `shard-N.wal`; its length is the sum of the extents' bytes.
    file: AppendFile,
    next_seq: u64,
    /// The file's lines, oldest first, as the extents of the appends that
    /// wrote them; the lines themselves are held nowhere else. They are
    /// labelled with the `lines` sequences below `next_seq`: exact while
    /// appends succeed; a failed one (sequences queued, lines not logged)
    /// moves the older lines' labels up, so they are released late, never
    /// early.
    extents: VecDeque<Extent>,
    /// Lines in the file: the sum of the extents' lines.
    lines: usize,
    /// Serialisation buffer, reused across batches.
    buf: String,
    appends_since_sync: usize,
}

impl ShardWal {
    /// Serialise `records` into the reused buffer, ahead of the queue push
    /// that decides how many of them are logged.
    fn stage<'a>(&mut self, records: impl Iterator<Item = &'a LogRecord>) {
        self.buf.clear();
        for record in records {
            record.write_json_line(&mut self.buf);
            self.buf.push('\n');
        }
    }

    /// Write the first `accepted` of the `staged` lines in the buffer with
    /// one append, one syscall per batch, and index them as extents of at
    /// most [`BATCH_BYTES`] plus one line. A failed append is cut back out
    /// of the file and indexes nothing, so extents and file agree.
    fn append(&mut self, staged: usize, accepted: usize, sync_every: usize) -> io::Result<()> {
        if accepted > 0 {
            let started = std::time::Instant::now();
            let len = if accepted == staged {
                self.buf.len()
            } else {
                line_end(self.buf.as_bytes(), accepted)
            };
            let bytes = &self.buf.as_bytes()[..len];
            self.file.append(bytes)?;
            crate::metrics::stages::wal_append().record(started.elapsed());
            push_extents(&mut self.extents, bytes, accepted);
            self.lines += accepted;
            self.appends_since_sync += accepted;
        }
        // Hold a batch's worth, not the largest batch seen.
        if self.buf.capacity() > 2 * BATCH_BYTES {
            self.buf = String::new();
        }
        if accepted > 0 && self.appends_since_sync >= sync_every {
            self.sync()?;
        }
        Ok(())
    }

    fn sync(&mut self) -> io::Result<()> {
        let started = std::time::Instant::now();
        if self.file.sync()? {
            crate::metrics::stages::wal_fsync().record(started.elapsed());
        }
        self.appends_since_sync = 0;
        Ok(())
    }

    /// Drop the lines labelled `up_to` and below from the front of the log.
    /// With no survivors the file is truncated in place. Otherwise the
    /// file's tail is copied to `shard-N.rewrite`, synced and renamed over
    /// it; the temp name matches no recovery glob, so a crash mid-rewrite
    /// is recovered from the untouched original. Neither step syncs the
    /// directory: a truncation or a rename the disk loses only replays
    /// released records, which at-least-once allows.
    fn release(&mut self, up_to: u64) -> io::Result<()> {
        let before_first = self.next_seq - 1 - self.lines as u64;
        let released = (up_to.saturating_sub(before_first)).min(self.lines as u64) as usize;
        if released == 0 {
            return Ok(());
        }
        if released == self.lines {
            self.file.cut(0)?;
            self.extents.clear();
        } else {
            // Whole extents first, then the released lines of the one the
            // cut falls inside, counted in its bytes read back.
            let (mut whole, mut offset, mut left) = (0, 0u64, released);
            while left >= self.extents[whole].lines as usize {
                left -= self.extents[whole].lines as usize;
                offset += u64::from(self.extents[whole].bytes);
                whole += 1;
            }
            let within = self.file.read_from(offset)?;
            let mut within = io::BufReader::new(within.take(self.extents[whole].bytes.into()));
            let mut partial = 0;
            for _ in 0..left {
                partial += within.skip_until(b'\n')? as u64;
            }
            offset += partial;
            let live = &self.file;
            let tmp = live.path().with_extension("rewrite");
            self.file = log::replace(live.path(), &tmp, |out| {
                io::copy(&mut live.read_from(offset)?, out).map(drop)
            })?;
            self.extents.drain(..whole);
            let cut = &mut self.extents[0];
            cut.lines -= u32::try_from(left).expect("fewer than the extent's lines");
            cut.bytes -= u32::try_from(partial).expect("fewer than the extent's bytes");
        }
        self.lines -= released;
        // Hold memory for what is pending, not for the largest backlog seen.
        self.extents.shrink_to(2 * self.extents.len());
        self.appends_since_sync = 0;
        Ok(())
    }
}

/// Index the `lines` whole lines of `bytes`, just appended, as extents of
/// at most [`BATCH_BYTES`] plus one line.
fn push_extents(extents: &mut VecDeque<Extent>, mut bytes: &[u8], mut lines: usize) {
    while !bytes.is_empty() {
        let (len, n) = if bytes.len() <= BATCH_BYTES {
            (bytes.len(), lines)
        } else {
            // Cut after the line that crosses the budget.
            let len = BATCH_BYTES + line_end(&bytes[BATCH_BYTES..], 1);
            (len, bytes[..len].iter().filter(|&&b| b == b'\n').count())
        };
        extents.push_back(Extent {
            lines: u32::try_from(n).expect("an extent holds under 4 Gi lines"),
            bytes: u32::try_from(len).expect("an extent is under 4 GiB"),
        });
        bytes = &bytes[len..];
        lines -= n;
    }
}

/// Byte length of the first `lines` lines of `bytes`, which holds at least
/// that many.
fn line_end(bytes: &[u8], lines: usize) -> usize {
    let (at, _) = bytes
        .iter()
        .enumerate()
        .filter(|&(_, &b)| b == b'\n')
        .nth(lines - 1)
        .expect("the bytes hold the lines");
    at + 1
}

/// The per-shard ingest write-ahead log. One instance serves the whole
/// daemon; all methods take `&self` and lock only the touched shard.
#[derive(Debug)]
pub struct IngestWal {
    shards: Vec<Mutex<ShardWal>>,
    sync_every: usize,
}

impl IngestWal {
    /// Open (or create) the log directory for `shards` shards, replaying
    /// whatever a previous process left behind. Returns the WAL plus, per
    /// shard, the recovered records (already re-logged under fresh
    /// sequences) for the workers to process before their queues.
    ///
    /// Recovery is shard-count agnostic: leftover records are re-routed by
    /// the *current* `shard_for` hash, so a restart with a different
    /// `--shards` keeps per-service ordering intact.
    pub fn open(
        dir: impl AsRef<Path>,
        shards: usize,
        sync_every: usize,
    ) -> io::Result<(IngestWal, Vec<Vec<Accepted>>)> {
        let dir = dir.as_ref();
        let shards = shards.max(1);
        fs::create_dir_all(dir)?;
        // The whole recovery — read leftovers, stage, re-route, re-log —
        // is one replay observation; a slow one shows up in /debug/slow.
        let mut replay_span = obs::span!("seqd.wal_replay");

        // 1. Read every leftover log. `.wal` files are the previous run's
        // logs; `.staged` files are from a recovery that itself crashed
        // (duplicates possible — at-least-once, see the module docs).
        // Stray `.rewrite` temps are superseded by their `.wal` original.
        let mut leftovers: Vec<PathBuf> = Vec::new();
        for entry in fs::read_dir(dir)? {
            let path = entry?.path();
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if name.ends_with(".wal") || name.ends_with(".staged") {
                leftovers.push(path);
            } else if name.ends_with(".rewrite") {
                let _ = fs::remove_file(&path);
            }
        }
        leftovers.sort();
        let mut recovered: Vec<LogRecord> = Vec::new();
        for path in &leftovers {
            let bytes = fs::read(path)?;
            for line in complete_lines(&bytes) {
                if let Ok(record) = LogRecord::from_json_line(line) {
                    recovered.push(record);
                }
            }
        }

        // 2. Stage the leftovers out of the `.wal` namespace before writing
        // fresh logs: if we crash after this point, the staged copies are
        // still read by the next recovery, so nothing is lost (only
        // possibly duplicated).
        for (i, path) in leftovers.iter().enumerate() {
            if path.extension().and_then(|e| e.to_str()) == Some("wal") {
                fs::rename(path, dir.join(format!("recover-{i}.staged")))?;
            }
        }

        // 3. Re-route the survivors into fresh per-shard logs and pending
        // queues. Per-service order is preserved: a service's records sit
        // in one leftover file in arrival order and hash to one new shard.
        let mut replay: Vec<Vec<Accepted>> = (0..shards).map(|_| Vec::new()).collect();
        for record in recovered {
            let survivors = &mut replay[shard_for(&record.service, shards)];
            // Sequences restart at 1 in the fresh logs.
            let seq = survivors.len() as u64 + 1;
            survivors.push(Accepted { seq, record });
        }
        let mut shard_wals = Vec::with_capacity(shards);
        for (shard, survivors) in replay.iter().enumerate() {
            let mut sw = ShardWal {
                file: AppendFile::create(dir.join(format!("shard-{shard}.wal")))?,
                next_seq: survivors.len() as u64 + 1,
                extents: VecDeque::new(),
                lines: 0,
                buf: String::new(),
                appends_since_sync: 0,
            };
            sw.stage(survivors.iter().map(|a| &a.record));
            sw.append(survivors.len(), survivors.len(), usize::MAX)?;
            sw.sync()?;
            shard_wals.push(Mutex::new(sw));
        }
        let wal = IngestWal {
            shards: shard_wals,
            sync_every,
        };

        // 4. Only now, with the fresh logs and their directory entries
        // durable, drop the staged copies.
        log::sync_dir(dir)?;
        for entry in fs::read_dir(dir)? {
            let path = entry?.path();
            if path.extension().and_then(|e| e.to_str()) == Some("staged") {
                fs::remove_file(&path)?;
            }
        }
        let replayed: usize = replay.iter().map(|r| r.len()).sum();
        replay_span.attr_u64("replayed", replayed as u64);
        Ok((wal, replay))
    }

    /// Number of shards the log is laid out for.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Append `records` to shard `shard`'s log and enqueue them, atomically
    /// with respect to [`IngestWal::release`]: one shard lock, one queue
    /// batch push, and one log write for the whole batch. Returns how many
    /// records from the *front* of `records` were accepted; the rest were
    /// rejected by the queue (backpressure or shutdown). The queue push
    /// runs before the log write: a rejected record must leave no log entry
    /// behind, or replay would resurrect a record the client was told was
    /// dropped.
    pub fn append_route_batch(
        &self,
        shard: usize,
        mut records: Vec<LogRecord>,
        queue: &BoundedQueue<Accepted>,
        timeout: Duration,
    ) -> usize {
        self.append_route(shard, &mut records, queue, timeout)
    }

    /// [`IngestWal::append_route_batch`] that empties `records` and leaves
    /// the caller its buffer: a poller reuses one vector per shard instead
    /// of allocating, and mapping, a fresh one every iteration.
    pub fn append_route(
        &self,
        shard: usize,
        records: &mut Vec<LogRecord>,
        queue: &BoundedQueue<Accepted>,
        timeout: Duration,
    ) -> usize {
        if records.is_empty() {
            return 0;
        }
        let mut sw = self.shards[shard].lock().expect("wal lock");
        sw.stage(records.iter());
        let staged = records.len();
        let base = sw.next_seq;
        let batch = records.drain(..).enumerate().map(|(i, record)| Accepted {
            seq: base + i as u64,
            record,
        });
        let accepted = queue.push_batch(batch, timeout);
        sw.next_seq += accepted as u64;
        if let Err(e) = sw.append(staged, accepted, self.sync_every) {
            // The records are queued and will be processed; only their
            // durability copy is gone. Degrade loudly rather than reject
            // records the queue already owns.
            eprintln!("seqd: wal batch append failed on shard {shard}: {e}");
        }
        accepted
    }

    /// Fsync every shard log with unsynced appends. Called on the receipt
    /// path: after `sync` returns, every receipted record is on disk.
    pub fn sync(&self) -> io::Result<()> {
        for sw in &self.shards {
            sw.lock().expect("wal lock").sync()?;
        }
        Ok(())
    }

    /// Drop shard `shard`'s log entries with sequence ≤ `up_to` (they are
    /// now in the pattern store, or accounted as dropped) and cut the log
    /// down to the survivors.
    pub fn release(&self, shard: usize, up_to: u64) -> io::Result<()> {
        self.shards[shard].lock().expect("wal lock").release(up_to)
    }

    /// Per-shard count of records still covered by the log.
    pub fn depths(&self) -> Vec<usize> {
        self.pending()
            .into_iter()
            .map(|(records, _)| records)
            .collect()
    }

    /// Heap bytes of every shard's extent index and reused serialisation
    /// buffer (`/debug/memory`).
    pub fn heap_bytes(&self) -> usize {
        let shard = |sw: &Mutex<ShardWal>| {
            let sw = sw.lock().expect("wal lock");
            sw.extents.capacity() * std::mem::size_of::<Extent>() + sw.buf.capacity()
        };
        self.shards.iter().map(shard).sum()
    }

    /// Per-shard `(records, bytes)` still covered by the log.
    pub fn pending(&self) -> Vec<(usize, u64)> {
        self.shards
            .iter()
            .map(|sw| {
                let sw = sw.lock().expect("wal lock");
                (sw.lines, sw.file.len())
            })
            .collect()
    }
}

/// The newline-terminated lines of `bytes`; a torn final line (no
/// terminator — a crash mid-append) is dropped, like minisql's WAL tail.
fn complete_lines(bytes: &[u8]) -> impl Iterator<Item = &str> {
    bytes
        .split_inclusive(|&b| b == b'\n')
        .filter_map(|l| std::str::from_utf8(l.strip_suffix(b"\n")?).ok())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    fn scratch_dir(tag: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "seqd-wal-{tag}-{}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn record(service: &str, message: &str) -> LogRecord {
        LogRecord::new(service, message)
    }

    /// Route one record through the WAL: a batch of one.
    fn append_one(
        wal: &IngestWal,
        shard: usize,
        record: LogRecord,
        queue: &BoundedQueue<Accepted>,
    ) {
        let accepted = wal.append_route_batch(shard, vec![record], queue, Duration::from_millis(5));
        assert_eq!(accepted, 1);
    }

    #[test]
    fn append_route_batch_logs_accepted_records_only() {
        let dir = scratch_dir("accept");
        let (wal, replay) = IngestWal::open(&dir, 1, 1).unwrap();
        assert!(replay.iter().all(|r| r.is_empty()));
        let queue = Arc::new(BoundedQueue::new(1));
        append_one(&wal, 0, record("svc", "fits"), &queue);
        // Queue full: rejected, and crucially *not* logged.
        let rejected = vec![record("svc", "rejected")];
        assert_eq!(
            wal.append_route_batch(0, rejected, &queue, Duration::from_millis(5)),
            0
        );
        assert_eq!(wal.depths(), vec![1]);
        let (_, replay) = IngestWal::open(&dir, 1, 1).unwrap();
        assert_eq!(replay[0].len(), 1);
        assert_eq!(replay[0][0].record.message, "fits");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn append_route_batch_logs_only_the_accepted_prefix() {
        let dir = scratch_dir("batch");
        let (wal, _) = IngestWal::open(&dir, 1, 2).unwrap();
        let queue = Arc::new(BoundedQueue::new(3));
        let records: Vec<LogRecord> = (0..5)
            .map(|i| record("svc", &format!("event {i}")))
            .collect();
        let accepted = wal.append_route_batch(0, records, &queue, Duration::from_millis(5));
        assert_eq!(accepted, 3);
        assert_eq!(wal.depths(), vec![3]);
        // Queue entries carry contiguous sequences starting at 1.
        let batch = queue.pop_batch(8, Duration::from_millis(5)).unwrap();
        assert_eq!(
            batch.iter().map(|a| a.seq).collect::<Vec<_>>(),
            vec![1, 2, 3]
        );
        wal.sync().unwrap();
        drop(wal);
        // Replay recovers exactly the accepted prefix, in order.
        let (_, replay) = IngestWal::open(&dir, 1, 2).unwrap();
        let messages: Vec<&str> = replay[0]
            .iter()
            .map(|a| a.record.message.as_str())
            .collect();
        assert_eq!(messages, vec!["event 0", "event 1", "event 2"]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn release_truncates_and_survives_reopen() {
        let dir = scratch_dir("release");
        let (wal, _) = IngestWal::open(&dir, 1, 1).unwrap();
        let queue = Arc::new(BoundedQueue::new(16));
        for i in 0..4 {
            append_one(&wal, 0, record("svc", &format!("event {i}")), &queue);
        }
        wal.release(0, 2).unwrap();
        assert_eq!(wal.depths(), vec![2]);
        // A post-release append lands after the rewrite.
        append_one(&wal, 0, record("svc", "event 4"), &queue);
        wal.sync().unwrap();
        drop(wal);
        // Recovery re-logs the survivors under fresh sequences, so a second
        // crash before any release replays them again.
        for _ in 0..2 {
            let (_, replay) = IngestWal::open(&dir, 1, 1).unwrap();
            let survivors: Vec<(u64, &str)> = replay[0]
                .iter()
                .map(|a| (a.seq, a.record.message.as_str()))
                .collect();
            assert_eq!(
                survivors,
                vec![(1, "event 2"), (2, "event 3"), (3, "event 4")]
            );
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A log write that fails part-way must leave neither bytes in the file
    /// nor lengths in the index: offsets derived from the lengths would
    /// otherwise cut every later release in the wrong place.
    #[test]
    fn failed_append_is_rolled_back_out_of_file_and_index() {
        let dir = scratch_dir("short-write");
        let (wal, _) = IngestWal::open(&dir, 1, 1).unwrap();
        let queue = Arc::new(BoundedQueue::new(16));
        append_one(&wal, 0, record("svc", "before 0"), &queue);
        append_one(&wal, 0, record("svc", "before 1"), &queue);
        let good = fs::read(dir.join("shard-0.wal")).unwrap();

        // The queue takes both records (sequences 3 and 4); the log write
        // stops seven bytes in.
        log::inject(Some(log::Fault::TornWrite(7)));
        let lost = vec![record("svc", "lost 0"), record("svc", "lost 1")];
        assert_eq!(
            wal.append_route_batch(0, lost, &queue, Duration::ZERO),
            2,
            "the queue owns the records; only their durability copy is gone"
        );
        assert_eq!(wal.depths(), vec![2]);
        assert_eq!(wal.pending()[0].1, good.len() as u64);
        assert_eq!(fs::read(dir.join("shard-0.wal")).unwrap(), good);

        append_one(&wal, 0, record("svc", "after"), &queue); // sequence 5
                                                             // Releasing the first record's own sequence is late by the two lost
                                                             // ones — never early.
        wal.release(0, 1).unwrap();
        assert_eq!(wal.depths(), vec![3]);
        wal.release(0, 3).unwrap();
        assert_eq!(wal.depths(), vec![2]);
        wal.sync().unwrap();
        drop(wal);
        let (_, replay) = IngestWal::open(&dir, 1, 1).unwrap();
        let messages: Vec<&str> = replay[0]
            .iter()
            .map(|a| a.record.message.as_str())
            .collect();
        assert_eq!(messages, vec!["before 1", "after"]);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Random interleavings of batch appends (with queue-rejected suffixes
    /// and short writes), releases at arbitrary sequences, syncs and
    /// drop-and-reopen, against a `VecDeque` of labelled lines: counts,
    /// bytes, the file's exact content and every replay must agree.
    #[test]
    fn log_file_tracks_a_queue_model_through_random_operations() {
        use testkit::prop::{self, Config};
        use testkit::{prop_assert, prop_assert_eq};

        const QUEUE: usize = 5;
        let ops = prop::vec((prop::range(0u8..10), prop::range(0u64..1 << 20)), 1..48);
        prop::check(&Config::cases(96), &ops, |ops| {
            let dir = scratch_dir("model");
            let log = dir.join("shard-0.wal");
            let (mut wal, _) = IngestWal::open(&dir, 1, 3).unwrap();
            let mut queue = BoundedQueue::new(QUEUE);
            // (release label, record) of every line the log should hold.
            let mut model: VecDeque<(u64, LogRecord)> = VecDeque::new();
            let mut next_seq = 1u64;
            for (step, &(op, arg)) in ops.iter().enumerate() {
                match op {
                    // Append 1–6 records to a queue with 1–5 free slots; one
                    // time in five the log write is torn.
                    0..=4 => {
                        let _ = queue.pop_batch((arg >> 4) as usize % QUEUE + 1, Duration::ZERO);
                        let space = QUEUE - queue.depth();
                        let records: Vec<LogRecord> = (0..arg % 6 + 1)
                            .map(|i| {
                                let tail = "\u{e9}\n\"".repeat((arg >> 8) as usize % 4);
                                record("svc", &format!("step {step} record {i} {tail}"))
                            })
                            .collect();
                        let torn = op == 4;
                        if torn {
                            let torn_at = (arg >> 12) as usize % 64;
                            log::inject(Some(log::Fault::TornWrite(torn_at)));
                        }
                        let accepted =
                            wal.append_route_batch(0, records.clone(), &queue, Duration::ZERO);
                        prop_assert_eq!(accepted, space.min(records.len()));
                        if torn && accepted > 0 {
                            // Nothing logged: older lines are released late.
                            model
                                .iter_mut()
                                .for_each(|(label, _)| *label += accepted as u64);
                        } else {
                            log::inject(None);
                            for (i, r) in records.into_iter().take(accepted).enumerate() {
                                model.push_back((next_seq + i as u64, r));
                            }
                        }
                        next_seq += accepted as u64;
                    }
                    5..=7 => {
                        // Anywhere from nothing to past the end; or everything.
                        let up_to = if op == 7 {
                            u64::MAX
                        } else {
                            arg % (next_seq + 2)
                        };
                        wal.release(0, up_to).unwrap();
                        while model.front().is_some_and(|(label, _)| *label <= up_to) {
                            model.pop_front();
                        }
                    }
                    8 => wal.sync().unwrap(),
                    _ => {
                        // Crash and recover, past a stray rewrite temp.
                        drop(wal);
                        fs::write(dir.join("shard-0.rewrite"), "half a rewrite").unwrap();
                        let (reopened, replay) = IngestWal::open(&dir, 1, 3).unwrap();
                        prop_assert!(!dir.join("shard-0.rewrite").exists());
                        let expected: Vec<Accepted> = model
                            .iter()
                            .zip(1u64..)
                            .map(|((_, r), seq)| Accepted {
                                seq,
                                record: r.clone(),
                            })
                            .collect();
                        prop_assert_eq!(&replay[0], &expected);
                        wal = reopened;
                        queue = BoundedQueue::new(QUEUE);
                        next_seq = model.len() as u64 + 1;
                        for ((label, _), seq) in model.iter_mut().zip(1u64..) {
                            *label = seq;
                        }
                    }
                }
                let expected: String = model.iter().map(|(_, r)| r.to_json_line() + "\n").collect();
                prop_assert_eq!(wal.depths(), vec![model.len()]);
                prop_assert_eq!(wal.pending(), vec![(model.len(), expected.len() as u64)]);
                prop_assert_eq!(fs::read_to_string(&log).unwrap(), expected);
            }
            fs::remove_dir_all(&dir).unwrap();
            Ok(())
        });
    }

    /// A log of several appends, one of them over the byte budget (so it
    /// is indexed as more than one extent), released one sequence at a
    /// time: after every release the file holds exactly the lines the
    /// queue model still holds, whether the cut falls on an extent's edge
    /// or inside it.
    #[test]
    fn releasing_at_every_sequence_of_a_multi_extent_log_cuts_exactly() {
        let dir = scratch_dir("extents");
        let log = dir.join("shard-0.wal");
        let (wal, _) = IngestWal::open(&dir, 1, 64).unwrap();
        let queue = BoundedQueue::new(1 << 12);
        let mut model: VecDeque<LogRecord> = VecDeque::new();
        let long = "\u{e9}\n\"".repeat(BATCH_BYTES / 800);
        for (batch, size) in [1usize, 3, 40, 300, 2, 17].into_iter().enumerate() {
            let records: Vec<LogRecord> = (0..size)
                .map(|i| {
                    let tail = if size == 300 { long.as_str() } else { "" };
                    record("svc", &format!("batch {batch} record {i} {tail}"))
                })
                .collect();
            model.extend(records.iter().cloned());
            let accepted = wal.append_route_batch(0, records, &queue, Duration::ZERO);
            assert_eq!(accepted, size);
        }
        let extents = wal.shards[0].lock().unwrap().extents.len();
        assert!(
            extents > 6,
            "{extents} extents: the 300-line append was not split"
        );
        let total = model.len() as u64;
        for up_to in 1..=total {
            wal.release(0, up_to).unwrap();
            model.pop_front();
            let expected: String = model.iter().map(|r| r.to_json_line() + "\n").collect();
            assert_eq!(wal.pending(), vec![(model.len(), expected.len() as u64)]);
            assert!(
                fs::read_to_string(&log).unwrap() == expected,
                "file and model differ after release({up_to})"
            );
        }
        assert_eq!(fs::metadata(&log).unwrap().len(), 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_final_line_is_dropped_on_replay() {
        let dir = scratch_dir("torn");
        fs::create_dir_all(&dir).unwrap();
        let good = record("svc", "complete").to_json_line();
        let torn = &record("svc", "torn mid-append").to_json_line()[..10];
        fs::write(dir.join("shard-0.wal"), format!("{good}\n{torn}")).unwrap();
        let (_, replay) = IngestWal::open(&dir, 1, 1).unwrap();
        assert_eq!(replay[0].len(), 1);
        assert_eq!(replay[0][0].record.message, "complete");
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A crash may cut the log at any byte: replay holds exactly the
    /// records wholly before the cut.
    #[test]
    fn a_log_cut_at_any_byte_replays_exactly_its_whole_records() {
        let dir = scratch_dir("cut");
        let (wal, _) = IngestWal::open(&dir, 1, 1).unwrap();
        let queue = Arc::new(BoundedQueue::new(8));
        let records: Vec<LogRecord> = ["first", "two\nlinés", "a \"quoted\" one", "last"]
            .iter()
            .map(|m| record("svc", m))
            .collect();
        for r in &records {
            append_one(&wal, 0, r.clone(), &queue);
        }
        drop(wal);
        let log = fs::read(dir.join("shard-0.wal")).unwrap();
        let ends: Vec<usize> = (0..log.len()).filter(|&i| log[i] == b'\n').collect();
        assert_eq!(ends.len(), records.len());
        for cut in 0..=log.len() {
            fs::write(dir.join("shard-0.wal"), &log[..cut]).unwrap();
            let (_, replay) = IngestWal::open(&dir, 1, 1).unwrap();
            let whole = ends.iter().filter(|&&end| end < cut).count();
            let replayed: Vec<&LogRecord> = replay[0].iter().map(|a| &a.record).collect();
            let expected: Vec<&LogRecord> = records[..whole].iter().collect();
            assert_eq!(replayed, expected, "shard-0.wal cut at byte {cut}");
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Recovery syncs the directory — the fresh logs' entries — before it
    /// deletes the staged copies. A failure injected there fails the open
    /// with the staged copy kept, and the next open replays every record
    /// twice: staged and re-logged (at-least-once).
    #[test]
    fn a_failed_directory_sync_keeps_the_staged_copies() {
        let dir = scratch_dir("dir-sync");
        let (wal, _) = IngestWal::open(&dir, 1, 1).unwrap();
        let queue = Arc::new(BoundedQueue::new(8));
        append_one(&wal, 0, record("svc", "a"), &queue);
        append_one(&wal, 0, record("svc", "b"), &queue);
        drop(wal);
        log::inject(Some(log::Fault::DirSync));
        assert!(IngestWal::open(&dir, 1, 1).is_err());
        assert!(dir.join("recover-0.staged").exists());
        let (_, replay) = IngestWal::open(&dir, 1, 1).unwrap();
        let mut messages: Vec<&str> = replay[0]
            .iter()
            .map(|a| a.record.message.as_str())
            .collect();
        messages.sort_unstable();
        assert_eq!(messages, vec!["a", "a", "b", "b"]);
        assert!(!dir.join("recover-0.staged").exists());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn recovery_reroutes_across_shard_count_changes() {
        let dir = scratch_dir("reshard");
        let (wal, _) = IngestWal::open(&dir, 4, 1).unwrap();
        let services = ["auth", "db", "web", "cache", "mq"];
        let queues: Vec<_> = (0..4).map(|_| Arc::new(BoundedQueue::new(64))).collect();
        for i in 0..20 {
            let service = services[i % services.len()];
            let shard = shard_for(service, 4);
            let rec = record(service, &format!("{service} event {i}"));
            append_one(&wal, shard, rec, &queues[shard]);
        }
        wal.sync().unwrap();
        drop(wal);

        let (wal2, replay) = IngestWal::open(&dir, 2, 1).unwrap();
        assert_eq!(wal2.shards(), 2);
        let all: Vec<&Accepted> = replay.iter().flatten().collect();
        assert_eq!(all.len(), 20);
        // Every record landed on the shard the *new* hash assigns, and
        // per-service order (the suffix index) is preserved.
        for (shard, records) in replay.iter().enumerate() {
            let mut last_index: std::collections::HashMap<&str, usize> = Default::default();
            for a in records {
                assert_eq!(shard_for(&a.record.service, 2), shard);
                let index: usize = a
                    .record
                    .message
                    .rsplit(' ')
                    .next()
                    .unwrap()
                    .parse()
                    .unwrap();
                if let Some(prev) = last_index.insert(a.record.service.as_str(), index) {
                    assert!(prev < index, "per-service order must survive re-routing");
                }
            }
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn staged_files_from_a_crashed_recovery_are_still_replayed() {
        let dir = scratch_dir("staged");
        fs::create_dir_all(&dir).unwrap();
        // Simulate a recovery that staged the old log, wrote a fresh one,
        // and died before deleting the stage: both must be read.
        fs::write(
            dir.join("recover-0.staged"),
            format!("{}\n", record("svc", "from staged").to_json_line()),
        )
        .unwrap();
        fs::write(
            dir.join("shard-0.wal"),
            format!("{}\n", record("svc", "from wal").to_json_line()),
        )
        .unwrap();
        let (_, replay) = IngestWal::open(&dir, 1, 1).unwrap();
        let mut messages: Vec<&str> = replay[0]
            .iter()
            .map(|a| a.record.message.as_str())
            .collect();
        messages.sort_unstable();
        assert_eq!(messages, vec!["from staged", "from wal"]);
        // A clean recovery leaves no staged files behind.
        let leftover: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.path().extension().and_then(|x| x.to_str()) == Some("staged"))
            .collect();
        assert!(leftover.is_empty());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn multiline_messages_cannot_span_wal_lines() {
        let dir = scratch_dir("multiline");
        let (wal, _) = IngestWal::open(&dir, 1, 1).unwrap();
        let queue = Arc::new(BoundedQueue::new(4));
        let rec = record("app", "panic: oh no\n  at frame 1\n  at frame 2");
        append_one(&wal, 0, rec, &queue);
        wal.sync().unwrap();
        drop(wal);
        let (_, replay) = IngestWal::open(&dir, 1, 1).unwrap();
        assert_eq!(replay[0].len(), 1);
        assert!(replay[0][0].record.message.contains('\n'));
        fs::remove_dir_all(&dir).unwrap();
    }
}
