//! The NDJSON ingest wire protocol, and its framing reference.
//!
//! A client connects, streams one `{"service": ..., "message": ...}` JSON
//! object per line (the paper's composite stream format, `\n` or `\r\n`
//! terminated), then half-closes its write side. The daemon answers with a
//! single JSON summary line —
//! `{"received":N,"accepted":N,"rejected":N,"malformed":N}` — and closes.
//! There are no per-line acks: the stream stays write-only at full speed, and
//! the summary is the client's delivery receipt ([`IngestSummary`]).
//! Rejected lines (shard queue full past the backpressure timeout) and
//! malformed lines are *counted, not fatal*: one bad producer must not sever
//! the connection for the rest of its buffer.
//!
//! The daemon serves this protocol from [`crate::eventloop`]; nothing under
//! [`crate::server`] calls [`serve_ingest`]. It is the protocol written the
//! obvious way — one blocking [`BufRead`], one line at a time through
//! [`read_line_capped`] — and stays as the hermetic *reference* the
//! protocol-torture suite runs the event loop's `Session` against: same
//! bytes in, same counters, same records, same receipt. The rules it fixes:
//!
//! * **Line cap** — [`read_line_capped`] never buffers more than the cap,
//!   so a client streaming bytes with no newline cannot exhaust memory.
//!   Oversized lines are discarded to their terminator, counted
//!   `malformed`, and the connection stays alive.
//! * **Deadlines** — a timed-out read (`WouldBlock`/`TimedOut`) ends the
//!   stream early: the receipt for everything processed so far is still
//!   sent.
//! * **Durability** — when the router carries an ingest WAL, it is fsynced
//!   *before* the receipt is written: a receipt is a durability promise.

use crate::metrics::Ops;
use crate::shard::Router;
use jsonlite::Value;
use sequence_rtg::LogRecord;
use std::io::{self, BufRead, ErrorKind, Write};

/// Per-connection ingest counters, echoed back as the summary line.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IngestSummary {
    /// Non-empty lines received on this connection.
    pub received: u64,
    /// Records accepted into a shard queue.
    pub accepted: u64,
    /// Records rejected by backpressure (or during drain).
    pub rejected: u64,
    /// Lines that did not parse as a `{service, message}` record (including
    /// lines over the length cap).
    pub malformed: u64,
}

impl IngestSummary {
    /// Serialise as the one-line JSON receipt.
    pub fn to_json_line(&self) -> String {
        format!(
            r#"{{"received":{},"accepted":{},"rejected":{},"malformed":{}}}"#,
            self.received, self.accepted, self.rejected, self.malformed
        )
    }

    /// Parse a receipt line (the load generator's side).
    pub fn from_json_line(line: &str) -> Option<IngestSummary> {
        let v = jsonlite::parse(line.trim()).ok()?;
        let field = |k: &str| -> Option<u64> {
            match v.get(k)? {
                Value::Number(n) if *n >= 0.0 => Some(*n as u64),
                _ => None,
            }
        };
        Some(IngestSummary {
            received: field("received")?,
            accepted: field("accepted")?,
            rejected: field("rejected")?,
            malformed: field("malformed")?,
        })
    }
}

/// Outcome of one capped line read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LineOutcome {
    /// Clean end of stream before any byte of a new line.
    Eof,
    /// One line, terminator included (or an EOF-terminated final fragment).
    Line(String),
    /// The line exceeded the cap; its bytes were discarded through the
    /// terminator (or EOF) without being buffered.
    Oversized,
}

/// Read one line of at most `cap` bytes (terminator included), never
/// buffering more than the cap. `Interrupted` reads are retried; any other
/// error (including a socket deadline's `WouldBlock`) is returned to the
/// caller with at most one buffered line's worth of state lost.
pub fn read_line_capped<R: BufRead>(reader: &mut R, cap: usize) -> io::Result<LineOutcome> {
    enum Step {
        /// A partial line (no terminator yet) was absorbed into `buf`.
        Absorbed,
        /// A full line (or an Oversized verdict) is ready.
        Done(LineOutcome),
        /// The cap was exceeded mid-line: discard through the terminator.
        Overflow,
    }
    let mut buf: Vec<u8> = Vec::new();
    loop {
        // `fill_buf`'s borrow of `reader` must end before `consume`, hence
        // the (bytes-to-consume, step) pair computed inside this scope.
        let (consume, step) = {
            let available = match reader.fill_buf() {
                Ok(b) => b,
                Err(ref e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            };
            if available.is_empty() {
                let out = if buf.is_empty() {
                    LineOutcome::Eof
                } else {
                    LineOutcome::Line(String::from_utf8_lossy(&buf).into_owned())
                };
                return Ok(out);
            }
            match available.iter().position(|&b| b == b'\n') {
                Some(i) => {
                    if buf.len() + i + 1 > cap {
                        (i + 1, Step::Done(LineOutcome::Oversized))
                    } else {
                        buf.extend_from_slice(&available[..=i]);
                        (
                            i + 1,
                            Step::Done(LineOutcome::Line(
                                String::from_utf8_lossy(&buf).into_owned(),
                            )),
                        )
                    }
                }
                None => {
                    let n = available.len();
                    if buf.len() + n > cap {
                        (n, Step::Overflow)
                    } else {
                        buf.extend_from_slice(available);
                        (n, Step::Absorbed)
                    }
                }
            }
        };
        reader.consume(consume);
        match step {
            Step::Absorbed => {}
            Step::Done(out) => return Ok(out),
            Step::Overflow => {
                discard_to_newline(reader)?;
                return Ok(LineOutcome::Oversized);
            }
        }
    }
}

/// Consume bytes up to and including the next `\n` (or EOF) without
/// buffering them.
fn discard_to_newline<R: BufRead>(reader: &mut R) -> io::Result<()> {
    loop {
        let (n, done) = {
            let available = match reader.fill_buf() {
                Ok(b) => b,
                Err(ref e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            };
            if available.is_empty() {
                return Ok(()); // EOF ends the oversized line too
            }
            match available.iter().position(|&b| b == b'\n') {
                Some(i) => (i + 1, true),
                None => (available.len(), false),
            }
        };
        reader.consume(n);
        if done {
            return Ok(());
        }
    }
}

/// The reference implementation of one ingest connection: read NDJSON until
/// EOF (or the read deadline), route each record as a batch of one, sync
/// the WAL, write the summary. Lines longer than `max_line_len` are counted
/// malformed without severing the connection.
pub fn serve_ingest<R: BufRead, W: Write>(
    reader: &mut R,
    writer: &mut W,
    router: &Router,
    ops: &Ops,
    max_line_len: usize,
) -> std::io::Result<IngestSummary> {
    let mut summary = IngestSummary::default();
    // One histogram sample per `ingested`-counted line — including
    // malformed and oversized ones — so `seqd_ingest_line_seconds_count`
    // reconciles exactly with `seqd_ingested_total` once queues drain.
    let line_hist = crate::metrics::stages::ingest_line();
    let count_malformed = |summary: &mut IngestSummary| {
        summary.received += 1;
        summary.malformed += 1;
        Ops::inc(&ops.ingested);
        Ops::inc(&ops.malformed);
        line_hist.record_ns(0);
    };
    loop {
        let line = match read_line_capped(reader, max_line_len) {
            Ok(LineOutcome::Eof) => break, // client half-closed: stream complete
            Ok(LineOutcome::Line(line)) => line,
            Ok(LineOutcome::Oversized) => {
                count_malformed(&mut summary);
                continue;
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                // The socket deadline expired on an idle peer: end the
                // stream here and receipt what was processed.
                break;
            }
            Err(e) => return Err(e),
        };
        // `trim` strips the `\n` / `\r\n` terminator (and stray blanks), so
        // CRLF producers never leak a `\r` into the parsed message.
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        summary.received += 1;
        Ops::inc(&ops.ingested);
        // Timed from parse to routed (queue push + WAL append); the socket
        // read above is excluded — it measures the client, not the daemon.
        let started = std::time::Instant::now();
        match LogRecord::from_json_line(trimmed) {
            Ok(record) => {
                let shard = router.shard_of(&record.service);
                if router.route_batch(shard, vec![record]) == 1 {
                    summary.accepted += 1;
                } else {
                    summary.rejected += 1; // router already counted ops.rejected
                }
            }
            Err(_) => {
                summary.malformed += 1;
                Ops::inc(&ops.malformed);
            }
        }
        line_hist.record(started.elapsed());
    }
    // The durability barrier: accepted records hit disk before the client
    // hears "accepted".
    router.sync_wal()?;
    writer.write_all(summary.to_json_line().as_bytes())?;
    writer.write_all(b"\n")?;
    writer.flush()?;
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::BoundedQueue;
    use crate::wal::Accepted;
    use std::io::Cursor;
    use std::sync::Arc;
    use std::time::Duration;

    const CAP: usize = 1 << 20;

    fn router(capacity: usize) -> (Router, Arc<Ops>, Vec<Arc<BoundedQueue<Accepted>>>) {
        let queues = vec![Arc::new(BoundedQueue::new(capacity))];
        let ops = Arc::new(Ops::new());
        (
            Router::new(queues.clone(), Arc::clone(&ops), Duration::from_millis(5)),
            ops,
            queues,
        )
    }

    #[test]
    fn summary_round_trips() {
        let s = IngestSummary {
            received: 10,
            accepted: 7,
            rejected: 2,
            malformed: 1,
        };
        assert_eq!(IngestSummary::from_json_line(&s.to_json_line()), Some(s));
        assert_eq!(IngestSummary::from_json_line("not json"), None);
        assert_eq!(IngestSummary::from_json_line(r#"{"received":1}"#), None);
    }

    #[test]
    fn ingest_counts_and_routes() {
        let (router, ops, queues) = router(64);
        let input = concat!(
            r#"{"service":"sshd","message":"session opened"}"#,
            "\n",
            "\n", // blank: skipped entirely
            "garbage\n",
            r#"{"service":"sshd","message":"session closed"}"#,
            "\n",
        );
        let mut out = Vec::new();
        let summary = serve_ingest(&mut Cursor::new(input), &mut out, &router, &ops, CAP).unwrap();
        assert_eq!(
            summary,
            IngestSummary {
                received: 3,
                accepted: 2,
                rejected: 0,
                malformed: 1,
            }
        );
        assert_eq!(queues[0].depth(), 2);
        let s = ops.snapshot();
        assert_eq!((s.ingested, s.malformed, s.rejected), (3, 1, 0));
        let receipt = String::from_utf8(out).unwrap();
        assert_eq!(
            IngestSummary::from_json_line(&receipt).unwrap(),
            summary,
            "receipt line: {receipt}"
        );
    }

    #[test]
    fn crlf_terminated_lines_do_not_leak_carriage_returns() {
        let (router, ops, queues) = router(64);
        let input = "{\"service\":\"win\",\"message\":\"event viewer ok\"}\r\n";
        let mut out = Vec::new();
        serve_ingest(&mut Cursor::new(input), &mut out, &router, &ops, CAP).unwrap();
        let accepted = queues[0]
            .pop_batch(1, Duration::from_millis(10))
            .unwrap()
            .remove(0);
        assert_eq!(accepted.record.message, "event viewer ok");
        assert!(!accepted.record.message.contains('\r'));
        assert!(!accepted.record.service.contains('\r'));
    }

    #[test]
    fn backpressure_rejects_are_reported_in_the_receipt() {
        let (router, ops, _queues) = router(1); // 1 slot, no worker: stalled shard
        let mut lines = String::new();
        for i in 0..4 {
            lines.push_str(&format!(
                "{{\"service\":\"svc\",\"message\":\"event {i}\"}}\n"
            ));
        }
        let mut out = Vec::new();
        let summary = serve_ingest(&mut Cursor::new(lines), &mut out, &router, &ops, CAP).unwrap();
        assert_eq!(summary.accepted, 1);
        assert_eq!(summary.rejected, 3);
        assert_eq!(ops.snapshot().rejected, 3);
        // Reconciliation holds even with rejects: nothing was queued beyond
        // the slot, nothing processed yet.
        let s = ops.snapshot();
        assert_eq!(s.ingested, s.rejected + s.malformed + 1 /* queued */);
    }

    /// The unbounded-buffer fix: a line over the cap is counted malformed,
    /// never buffered whole, and later lines on the same connection still
    /// go through.
    #[test]
    fn oversized_line_is_malformed_and_connection_survives() {
        let (router, ops, queues) = router(64);
        let cap = 64;
        let huge = format!(
            "{{\"service\":\"svc\",\"message\":\"{}\"}}\n",
            "x".repeat(1 << 16)
        );
        let after = r#"{"service":"svc","message":"still alive"}"#;
        let input = format!("{huge}{after}\n");
        let mut out = Vec::new();
        let summary = serve_ingest(&mut Cursor::new(input), &mut out, &router, &ops, cap).unwrap();
        assert_eq!(
            summary,
            IngestSummary {
                received: 2,
                accepted: 1,
                rejected: 0,
                malformed: 1,
            }
        );
        let accepted = queues[0]
            .pop_batch(1, Duration::from_millis(10))
            .unwrap()
            .remove(0);
        assert_eq!(accepted.record.message, "still alive");
        // The accepted record is still in flight (no worker); everything
        // else is accounted for.
        assert_eq!(ops.snapshot().in_flight(), 1);
    }

    /// A terminator-less stream over the cap (the OOM attack) is bounded:
    /// discarded, counted once, receipt still sent at EOF.
    #[test]
    fn unterminated_flood_is_bounded_and_counted() {
        let (router, ops, queues) = router(64);
        let input = "y".repeat(1 << 16); // no newline at all
        let mut out = Vec::new();
        let summary = serve_ingest(&mut Cursor::new(input), &mut out, &router, &ops, 128).unwrap();
        assert_eq!(summary.received, 1);
        assert_eq!(summary.malformed, 1);
        assert_eq!(queues[0].depth(), 0);
        assert!(ops.snapshot().reconciles());
    }

    #[test]
    fn read_line_capped_eof_and_fragments() {
        let mut r = Cursor::new("short\nno-terminator");
        assert_eq!(
            read_line_capped(&mut r, 64).unwrap(),
            LineOutcome::Line("short\n".into())
        );
        assert_eq!(
            read_line_capped(&mut r, 64).unwrap(),
            LineOutcome::Line("no-terminator".into()),
            "an EOF-terminated fragment is still a line"
        );
        assert_eq!(read_line_capped(&mut r, 64).unwrap(), LineOutcome::Eof);
    }

    #[test]
    fn read_line_capped_exact_cap_passes() {
        let mut r = Cursor::new("abcd\nabcde\n");
        assert_eq!(
            read_line_capped(&mut r, 5).unwrap(),
            LineOutcome::Line("abcd\n".into()),
            "terminator included, exactly at cap"
        );
        assert_eq!(read_line_capped(&mut r, 5).unwrap(), LineOutcome::Oversized);
        assert_eq!(read_line_capped(&mut r, 5).unwrap(), LineOutcome::Eof);
    }
}
