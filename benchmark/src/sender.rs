//! The load generator: a closed loop with a window.
//!
//! One thread, one ingest connection. At most [`WINDOW`] lines are ever
//! sent but not yet counted matched or unmatched — fewer than the daemon's
//! 10 000-slot shard queue, so a rejected line is a failure of the daemon
//! and never an artefact of the generator. A wave ends only when every one
//! of its lines is counted *and* the daemon is drained (queues, residue,
//! mining backlog and WAL all empty), so a wave's time is first byte to
//! "matched or mined, counted, WAL released" for exactly its own lines.

use crate::corpus::Corpus;
use std::io::{self, Write};
use std::time::{Duration, Instant};

/// Most lines in flight (sent, not yet processed).
pub const WINDOW: u64 = 8192;

/// `/stats` polling interval while a wave is being sent. The cadence is
/// fixed: one poll and at most one top-up of the window every `POLL`, however
/// fast the daemon answers, so the control-plane load on the daemon is the
/// same 100 requests a second on every commit.
pub const POLL: Duration = Duration::from_millis(10);

/// `/stats` polling interval once a wave is fully sent: the wave's end is
/// read off these polls, so they set its resolution.
pub const DRAIN_POLL: Duration = Duration::from_millis(2);

/// A wait with no progress at all for this long fails the run.
const STALL: Duration = Duration::from_secs(60);

/// What the daemon reports at one poll.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Seen {
    /// Lines counted matched or unmatched since the wave started.
    pub processed: u64,
    /// Queues, residue, mining backlog and WAL are all empty.
    pub drained: bool,
}

/// What the generator did during one wave.
#[derive(Debug, Clone, Copy, Default)]
pub struct SendReport {
    /// Lines written to the socket.
    pub lines: u64,
    /// Bytes written to the socket.
    pub bytes: u64,
    /// Seconds spent inside socket writes.
    pub send_s: f64,
    /// Seconds spent asleep between polls while lines were still to be
    /// sent: the window was full and the daemon set the pace.
    pub wait_s: f64,
    /// Seconds spent inside `/stats` round trips.
    pub poll_s: f64,
    /// Polls made while lines were still to be sent.
    pub polls: u64,
    /// Of those, polls that found every sent line already processed: the
    /// daemon ran dry and the generator was the limit.
    pub starved_polls: u64,
    /// Seconds from the first byte to the drained daemon.
    pub wave_s: f64,
    /// Most lines ever in flight.
    pub max_in_flight: u64,
}

/// Send lines `first..first + total` of `corpus`, never exceeding
/// [`WINDOW`] lines in flight. Returns once everything was processed and
/// the daemon is drained.
pub fn run_wave(
    sink: &mut impl Write,
    corpus: &Corpus,
    first: u64,
    total: u64,
    mut progress: impl FnMut() -> io::Result<Seen>,
) -> io::Result<SendReport> {
    assert!(
        first + total <= corpus.lines() as u64,
        "the corpus ends before the wave"
    );
    let started = Instant::now();
    let mut report = SendReport::default();
    let mut processed = 0u64;
    let mut last_progress = started;
    let mut last_poll = started;
    loop {
        // Top the window up, once per poll.
        let room = WINDOW - (report.lines - processed);
        let top_up = room.min(total - report.lines);
        if top_up > 0 {
            let writing = Instant::now();
            let from = (first + report.lines) as usize;
            let bytes = corpus.slice(from, from + top_up as usize);
            sink.write_all(bytes)?;
            sink.flush()?;
            report.bytes += bytes.len() as u64;
            report.lines += top_up;
            report.send_s += writing.elapsed().as_secs_f64();
            report.max_in_flight = report.max_in_flight.max(report.lines - processed);
        }
        // Sleep out the rest of the polling interval.
        let sending = report.lines < total;
        let due = last_poll + if sending { POLL } else { DRAIN_POLL };
        let now = Instant::now();
        if now < due {
            std::thread::sleep(due - now);
            if sending {
                report.wait_s += now.elapsed().as_secs_f64();
            }
        }
        last_poll = Instant::now();
        let seen = progress()?;
        if sending {
            report.poll_s += last_poll.elapsed().as_secs_f64();
            report.polls += 1;
            report.starved_polls += u64::from(seen.processed == report.lines);
        }
        if seen.processed > processed {
            last_progress = last_poll;
        }
        processed = seen.processed;
        if processed > report.lines {
            return Err(io::Error::other(format!(
                "daemon processed {processed} lines of {} sent",
                report.lines
            )));
        }
        if processed == total && seen.drained {
            report.wave_s = started.elapsed().as_secs_f64();
            return Ok(report);
        }
        if last_progress.elapsed() > STALL {
            return Err(io::Error::other(format!(
                "no progress for {STALL:?}: {processed} of {} sent lines processed",
                report.lines
            )));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    fn corpus(lines: usize) -> Corpus {
        let mut c = Corpus::default();
        for i in 0..lines {
            c.push("s", &format!("line {i}"));
        }
        c
    }

    /// A daemon that finishes `per_poll` lines between reads and needs
    /// `drain_polls` further reads after the last line to drain.
    fn run(
        first: u64,
        total: u64,
        corpus_lines: usize,
        per_poll: u64,
        drain_polls: u32,
    ) -> (SendReport, Vec<u8>, u32) {
        let corpus = corpus(corpus_lines);
        let mut sink = Vec::new();
        let done = Cell::new(0u64);
        let polls_after_done = Cell::new(0u32);
        // The sink cannot tell lines, so the fake daemon learns how much
        // was sent from the in-flight bound: at most WINDOW beyond `done`.
        let report = run_wave(&mut sink, &corpus, first, total, || {
            let sent = (done.get() + WINDOW).min(total);
            done.set((done.get() + per_poll).min(sent));
            if done.get() == total {
                polls_after_done.set(polls_after_done.get() + 1);
            }
            Ok(Seen {
                processed: done.get(),
                drained: polls_after_done.get() > drain_polls,
            })
        })
        .unwrap();
        (report, sink, polls_after_done.get())
    }

    #[test]
    fn never_more_than_the_window_in_flight() {
        for per_poll in [1_000, 8_192, 50_000] {
            let (report, _, _) = run(0, 40_000, 40_000, per_poll, 0);
            assert_eq!(report.lines, 40_000);
            assert!(report.max_in_flight <= WINDOW, "{}", report.max_in_flight);
        }
    }

    #[test]
    fn one_top_up_per_poll_on_a_fixed_cadence() {
        // A daemon that finishes everything between two polls: the
        // generator still tops up only once per poll, so 20 000 lines take
        // three top-ups, and the two polls between them, a polling interval
        // apart, both find the daemon dry.
        let started = Instant::now();
        let (report, _, _) = run(0, 20_000, 20_000, 50_000, 0);
        assert_eq!(report.polls, 2);
        assert_eq!(report.starved_polls, 2);
        assert!(started.elapsed() >= 2 * POLL);
        assert!(report.wait_s > 0.0 && report.wait_s <= report.wave_s);
        assert!(report.wait_s + report.poll_s + report.send_s <= report.wave_s);
    }

    #[test]
    fn a_wave_ends_only_once_the_daemon_is_drained() {
        // All lines are counted at the first read after the last send, but
        // the daemon reports drained only three reads later.
        let (report, _, polls) = run(0, 100, 100, 100, 3);
        assert_eq!(report.lines, 100);
        assert_eq!(polls, 4);
    }

    #[test]
    fn a_wave_sends_its_own_lines_whole_and_in_order() {
        let (report, sink, _) = run(7, 25, 40, 3, 0);
        let text = String::from_utf8(sink).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 25);
        assert_eq!(report.bytes as usize, text.len());
        for (i, line) in lines.iter().enumerate() {
            assert!(line.ends_with(&format!("line {}\"}}", 7 + i)), "{line}");
        }
    }

    #[test]
    fn a_daemon_that_invents_lines_is_an_error() {
        let corpus = corpus(10);
        let result = run_wave(&mut Vec::new(), &corpus, 0, 10, || {
            Ok(Seen {
                processed: 11,
                drained: true,
            })
        });
        assert!(result.is_err());
    }
}
