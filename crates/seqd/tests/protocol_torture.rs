//! Protocol-torture suite: the event-loop wire path must be observationally
//! identical to the framing reference (`protocol::serve_ingest`, the
//! protocol over one blocking reader) under ANY byte-stream segmentation.
//!
//! TCP makes no promises about read boundaries, so the framing layer must
//! produce identical counters, identical parsed records, and identical
//! receipts whether a payload arrives in one read, one byte at a time, cut
//! mid-UTF-8-sequence, mid-escape, or exactly at a terminator. Four layers:
//!
//! 1. **Hermetic framing properties** — 1000+ seeded cases pump a
//!    [`Session`] through a [`FaultyStream`] (short reads, `Interrupted`,
//!    `WouldBlock`, resets) and compare against the reference over the
//!    same bytes: same counters, same records. A reset mid-stream must
//!    leave a clean *prefix*, never corruption. A second property does
//!    the same with a 256 KiB line cap and lines long enough to make the
//!    session's ring grow, shrink back and meet its cap.
//! 2. **Exhaustive split points** — a crafted payload holding multi-byte
//!    UTF-8, JSON escapes, CRLF, blanks, an oversized line and an EOF
//!    fragment is replayed once per possible split position.
//! 3. **Protocol sniffing under segmentation** — `POST /stats` delivered
//!    one byte per write must still reach the control plane (the
//!    regression: readiness-driven sniffing cannot assume the first read
//!    holds a complete request line).
//! 4. **Live daemon vs reference + hostile peers** — a live daemon's
//!    receipts and drained counters equal the reference's over the same
//!    client payloads, with stalled / byte-at-a-time / fast peers
//!    interleaved on the same poller, and peers sending more than the
//!    poller's byte budget each into one shard have each line credited
//!    to its own receipt.

use seqd::eventloop::{Pump, Session};
use seqd::loadgen;
use seqd::metrics::Ops;
use seqd::protocol::{serve_ingest, IngestSummary};
use seqd::queue::BoundedQueue;
use seqd::server::{start, SeqdConfig};
use seqd::shard::Router;
use seqd::wal::Accepted;
use sequence_rtg::LogRecord;
use std::io::{self, BufReader, Cursor, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::Arc;
use std::time::Duration;
use testkit::fault::{FaultSchedule, FaultyStream};
use testkit::prop::{self, Config, Strategy};
use testkit::prop_assert;
use testkit::prop_assert_eq;

fn regressions() -> String {
    concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/proptest-regressions/protocol_torture.txt"
    )
    .to_string()
}

/// Run the framing reference over `payload` and return its summary plus
/// every record it routed, in order.
fn blocking_reference(payload: &[u8], cap: usize) -> (IngestSummary, Vec<LogRecord>) {
    let queues: Vec<_> = vec![Arc::new(BoundedQueue::<Accepted>::new(1 << 14))];
    let ops = Arc::new(Ops::new());
    let router = Router::new(queues.clone(), Arc::clone(&ops), Duration::from_millis(1));
    let mut reader = BufReader::new(Cursor::new(payload.to_vec()));
    let mut out = Vec::new();
    let summary = serve_ingest(&mut reader, &mut out, &router, &ops, cap).expect("clean cursor");
    let records = queues[0]
        .pop_batch(usize::MAX, Duration::ZERO)
        .expect("queue open")
        .into_iter()
        .map(|accepted| accepted.record)
        .collect();
    (summary, records)
}

/// Pump a [`Session`] over `stream` until EOF or a hard error, retrying
/// readiness pauses exactly as the poller does.
fn pump_to_end(
    session: &mut Session,
    stream: &mut impl Read,
    ops: &Ops,
) -> io::Result<Vec<LogRecord>> {
    let mut records = Vec::new();
    loop {
        match session.pump(stream, ops, &mut records)? {
            Pump::Drained | Pump::CapReached => continue,
            Pump::Eof => return Ok(records),
            Pump::Http(_) => panic!("ingest payload classified as HTTP"),
        }
    }
}

/// Layer 1: 1000 seeded cases of adversarial segmentation. The session fed
/// through a fault-injecting stream must agree byte-for-byte with the
/// reference on counters and parsed records — or, after an injected
/// reset, stop at a clean prefix.
#[test]
fn framing_is_identical_under_adversarial_segmentation() {
    const CAP: usize = 96;
    let config = Config::cases(1000).with_regressions(regressions());
    let line = prop::one_of::<String>(vec![
        Box::new(
            (prop::word(1..8), prop::unicode_string(0..32)).map(|(s, m)| {
                let v = jsonlite::object::<&str, jsonlite::Value>([
                    ("service", s.as_str().into()),
                    ("message", m.as_str().into()),
                ]);
                format!("{}\n", jsonlite::to_string(&v))
            }),
        ),
        Box::new(
            (prop::word(1..6), prop::word(1..12))
                .map(|(s, m)| format!("{{\"service\":\"{s}\",\"message\":\"{m}\"}}\r\n")),
        ),
        Box::new(prop::ascii_string(0..24).map(|g| format!("{g}\n"))),
        Box::new(prop::unicode_string(0..16).map(|g| format!("{g}\n"))),
        Box::new(prop::just("\n".to_string())),
        Box::new(prop::just("   \n".to_string())),
        Box::new(prop::range(0usize..64).map(|n| format!("{}\n", "x".repeat(CAP + n)))),
    ]);
    let strategy = (
        prop::vec(line, 0..16),
        prop::range(0u64..u64::MAX), // fault seed; its low bit also decides
        // whether the final terminator is stripped (EOF fragment)
        prop::range(0u64..50), // fault probability, percent
    );
    prop::check(&config, &strategy, |(lines, seed, prob_pct)| {
        let strip = seed % 2 == 1;
        let mut payload = lines.concat().into_bytes();
        if strip && payload.last() == Some(&b'\n') {
            payload.pop();
        }
        // Keep every case on the ingest path: generated garbage could open
        // with an HTTP method by chance, and the hermetic reference has no
        // sniffing stage. A leading blank line is skipped identically by
        // both paths.
        if payload.starts_with(b"GET ")
            || payload.starts_with(b"POST ")
            || payload.starts_with(b"HEAD ")
        {
            payload.insert(0, b'\n');
        }
        let (ref_summary, ref_records) = blocking_reference(&payload, CAP);

        let schedule =
            Arc::new(FaultSchedule::new(*seed, *prob_pct as f64 / 100.0).with_budget(256));
        let mut stream = FaultyStream::new(Cursor::new(payload), schedule);
        let ops = Ops::new();
        let mut session = Session::new(CAP);
        match pump_to_end(&mut session, &mut stream, &ops) {
            Ok(records) => {
                prop_assert_eq!(session.summary.received, ref_summary.received);
                prop_assert_eq!(session.summary.malformed, ref_summary.malformed);
                prop_assert_eq!(records.len() as u64, ref_summary.accepted);
                prop_assert_eq!(records, ref_records);
                let s = ops.snapshot();
                prop_assert_eq!(s.ingested, ref_summary.received);
                prop_assert_eq!(s.malformed, ref_summary.malformed);
            }
            Err(e) => {
                // An injected reset severs the stream mid-way; everything
                // processed up to it must be a clean prefix of the
                // uninterrupted run.
                prop_assert_eq!(e.kind(), io::ErrorKind::ConnectionReset, "{}", e);
                prop_assert!(
                    session.summary.received <= ref_summary.received,
                    "received {} > reference {}",
                    session.summary.received,
                    ref_summary.received
                );
                prop_assert!(
                    session.summary.malformed <= ref_summary.malformed,
                    "malformed {} > reference {}",
                    session.summary.malformed,
                    ref_summary.malformed
                );
            }
        }
        Ok(())
    });
}

/// A reader that hands out at most `sizes[i]` bytes on its `i`-th read,
/// cycling through `sizes`.
struct Chunked {
    inner: Cursor<Vec<u8>>,
    sizes: Vec<usize>,
    reads: usize,
}

impl Read for Chunked {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let size = self.sizes[self.reads % self.sizes.len()];
        self.reads += 1;
        let n = buf.len().min(size);
        self.inner.read(&mut buf[..n])
    }
}

/// Layer 1b: the same comparison across ring growth. With a 256 KiB line
/// cap, lines from a few bytes to past the cap make the session's ring
/// grow from its initial size, shrink back and meet the cap, under random
/// read sizes and injected faults.
#[test]
fn framing_is_identical_while_the_ring_grows() {
    const CAP: usize = 256 << 10;
    let initial = seqd::ringbuf::INITIAL_CAPACITY;
    let config = Config::cases(24).with_regressions(regressions());
    let record = |s: &str, m: &str| format!("{{\"service\":\"{s}\",\"message\":\"{m}\"}}\n");
    let line = prop::one_of::<String>(vec![
        Box::new((prop::word(1..8), prop::word(1..40)).map(move |(s, m)| record(&s, &m))),
        // From just under the initial ring size to just past the cap.
        Box::new(
            (prop::word(1..8), prop::range(initial - 64..CAP + 64))
                .map(move |(s, n)| record(&s, &"m".repeat(n))),
        ),
        // Exactly the cap, terminator included, and one byte over it.
        Box::new(prop::range(0usize..2).map(|over| format!("{}\n", "x".repeat(CAP - 1 + over)))),
        Box::new(prop::just("\n".to_string())),
    ]);
    let strategy = (
        (
            prop::vec(line, 0..8),
            prop::vec(prop::range(1usize..3 * initial), 1..8),
        ),
        prop::range(0u64..u64::MAX), // fault seed; low bit strips the last terminator
        prop::range(0u64..20),       // fault probability, percent
    );
    prop::check(&config, &strategy, |((lines, sizes), seed, prob_pct)| {
        let mut payload = lines.concat().into_bytes();
        if seed % 2 == 1 && payload.last() == Some(&b'\n') {
            payload.pop();
        }
        let (ref_summary, ref_records) = blocking_reference(&payload, CAP);

        let schedule =
            Arc::new(FaultSchedule::new(*seed, *prob_pct as f64 / 100.0).with_budget(64));
        let chunked = Chunked {
            inner: Cursor::new(payload),
            sizes: sizes.clone(),
            reads: 0,
        };
        let mut stream = FaultyStream::new(chunked, schedule);
        let ops = Ops::new();
        let mut session = Session::new(CAP);
        match pump_to_end(&mut session, &mut stream, &ops) {
            Ok(records) => {
                prop_assert_eq!(session.summary.received, ref_summary.received);
                prop_assert_eq!(session.summary.malformed, ref_summary.malformed);
                prop_assert_eq!(records.len() as u64, ref_summary.accepted);
                prop_assert!(records == ref_records, "records differ from the reference");
            }
            Err(e) => {
                prop_assert_eq!(e.kind(), io::ErrorKind::ConnectionReset, "{}", e);
                prop_assert!(session.summary.received <= ref_summary.received);
                prop_assert!(session.summary.malformed <= ref_summary.malformed);
            }
        }
        prop_assert!(session.buffer_bytes() <= CAP + 1 + CAP, "ring past its cap");
        Ok(())
    });
}

/// A reader that serves `head`, reports one `WouldBlock` (the poll
/// boundary), then serves `tail` and EOF.
struct SplitStream {
    head: Cursor<Vec<u8>>,
    tail: Cursor<Vec<u8>>,
    blocked: bool,
}

impl Read for SplitStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self.head.read(buf)? {
            0 if !self.blocked => {
                self.blocked = true;
                Err(io::Error::new(io::ErrorKind::WouldBlock, "poll boundary"))
            }
            0 => self.tail.read(buf),
            n => Ok(n),
        }
    }
}

/// Layer 2: every split position of a payload that packs the hard cases —
/// multi-byte UTF-8, `\uXXXX` escapes, CRLF, blanks, an oversized line, a
/// terminator-less EOF fragment.
#[test]
fn every_split_point_of_a_hostile_payload_frames_identically() {
    const CAP: usize = 96;
    let payload: Vec<u8> = [
        r#"{"service":"svc","message":"café naïve \n tab\t"}"#.as_bytes(),
        b"\n",
        "{\"service\":\"svc\",\"message\":\"日本語のログ行です\"}\r\n".as_bytes(),
        b"\n",
        b"   \n",
        b"plain garbage line \xff\xfe broken utf8\n",
    ]
    .concat()
    .into_iter()
    .chain(format!("{}\n", "y".repeat(CAP + 13)).into_bytes())
    .chain(
        br#"{"service":"tail","message":"final fragment, no newline"}"#
            .iter()
            .copied(),
    )
    .collect();

    let (ref_summary, ref_records) = blocking_reference(&payload, CAP);
    assert!(ref_summary.accepted >= 3, "corpus sanity: {ref_summary:?}");
    assert!(ref_summary.malformed >= 2, "corpus sanity: {ref_summary:?}");

    for split in 1..payload.len() {
        let ops = Ops::new();
        let mut session = Session::new(CAP);
        let mut stream = SplitStream {
            head: Cursor::new(payload[..split].to_vec()),
            tail: Cursor::new(payload[split..].to_vec()),
            blocked: false,
        };
        let records = pump_to_end(&mut session, &mut stream, &ops).expect("no injected faults");
        assert_eq!(
            (session.summary.received, session.summary.malformed),
            (ref_summary.received, ref_summary.malformed),
            "counter divergence at split {split}"
        );
        assert_eq!(records, ref_records, "record divergence at split {split}");
    }
}

fn read_all(stream: &mut TcpStream) -> String {
    let mut raw = String::new();
    let _ = stream.read_to_string(&mut raw);
    raw
}

fn daemon(io_timeout: Duration) -> seqd::SeqdHandle {
    start(
        patterndb::PatternStore::in_memory(),
        SeqdConfig {
            shards: 2,
            io_timeout,
            pollers: 2,
            ..SeqdConfig::default()
        },
        "127.0.0.1:0",
    )
    .expect("start daemon")
}

/// Layer 3: the sniffing regression. A control request delivered one byte
/// per write must classify as HTTP — buffer-driven sniffing cannot assume
/// the first readiness event carries the complete request line.
#[test]
fn post_stats_one_byte_per_write_reaches_the_control_plane() {
    let handle = daemon(Duration::from_secs(30));
    let addr = handle.addr();

    let drip = |request: &[u8]| {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.set_nodelay(true).unwrap();
        for &b in request {
            stream.write_all(&[b]).unwrap();
            stream.flush().unwrap();
            std::thread::sleep(Duration::from_millis(1));
        }
        read_all(&mut stream)
    };
    // The live route: a dripped GET must produce the stats document.
    let raw = drip(b"GET /stats HTTP/1.1\r\nHost: t\r\n\r\n");
    assert!(
        raw.starts_with("HTTP/1.1 200"),
        "unexpected response: {raw:?}"
    );
    let body = raw.split_once("\r\n\r\n").map(|(_, b)| b).unwrap_or("");
    let v = jsonlite::parse(body).unwrap_or_else(|e| panic!("body {body:?}: {e}"));
    assert!(v.get("ingested").is_some(), "{body}");
    // A dripped POST must still classify as HTTP — a well-formed HTTP
    // error, never an NDJSON receipt or a malformed-line count.
    let raw = drip(b"POST /stats HTTP/1.1\r\nHost: t\r\n\r\n");
    assert!(
        raw.starts_with("HTTP/1.1 "),
        "POST not handed to the control plane: {raw:?}"
    );

    handle.initiate_shutdown();
    let finals = handle.join().unwrap();
    assert_eq!(finals.ingested, 0, "control bytes counted as ingest lines");
}

/// One connection's worth of wire bytes: every line `\n`-terminated, as
/// `loadgen::replay_lines` sends them.
fn terminated(lines: &[String]) -> Vec<u8> {
    lines
        .iter()
        .flat_map(|l| format!("{l}\n").into_bytes())
        .collect()
}

/// The three client payloads of layer 4a, as the bytes on the wire.
fn client_payloads() -> [Vec<u8>; 3] {
    // Fast bulk client.
    let bulk: Vec<String> = (0..200)
        .map(|i| {
            format!(
                "{{\"service\":\"svc-{}\",\"message\":\"event {i} ok\"}}",
                i % 5
            )
        })
        .collect();
    // Mixed hostile client: garbage, blanks, CRLF-free valid lines.
    let mixed = [
        "{\"service\":\"mix\",\"message\":\"first\"}",
        "not json at all",
        "",
        "   ",
        "{\"service\":\"mix\",\"message\":\"second\"}",
    ]
    .map(String::from);
    // EOF-fragment client: a CRLF line, then a final record with no
    // terminator, closed by the half-close alone.
    let fragment = [
        b"{\"service\":\"frag\",\"message\":\"terminated\"}\r\n".as_slice(),
        br#"{"service":"frag","message":"eof fragment"}"#,
    ]
    .concat();
    [terminated(&bulk), terminated(&mixed), fragment]
}

/// Layer 4a: a live daemon receipts each client exactly as the hermetic
/// reference does over the same bytes, and its drained counters are the
/// sum of those receipts.
#[test]
fn live_daemon_receipts_and_counters_match_the_reference() {
    let payloads = client_payloads();
    let cap = SeqdConfig::default().max_line_len;
    let reference: Vec<IngestSummary> = payloads
        .iter()
        .map(|payload| blocking_reference(payload, cap).0)
        .collect();
    assert!(reference[0].accepted == 200, "corpus sanity: {reference:?}");
    assert!(reference[1].malformed == 1, "corpus sanity: {reference:?}");
    assert!(reference[2].accepted == 2, "corpus sanity: {reference:?}");

    let handle = daemon(Duration::from_secs(30));
    let addr = handle.addr();
    let receipts: Vec<IngestSummary> = payloads
        .iter()
        .map(|payload| loadgen::replay_blob(addr, payload).unwrap())
        .collect();
    assert_eq!(receipts, reference, "receipts diverged from the reference");

    let sum = |field: fn(&IngestSummary) -> u64| reference.iter().map(field).sum::<u64>();
    loadgen::wait_until_processed(addr, sum(|r| r.accepted), Duration::from_secs(10)).unwrap();
    handle.initiate_shutdown();
    let finals = handle.join().unwrap();
    assert!(finals.reconciles(), "{finals:?}");
    for (name, live, expected) in [
        ("ingested", finals.ingested, sum(|r| r.received)),
        (
            "matched + unmatched",
            finals.matched + finals.unmatched,
            sum(|r| r.accepted),
        ),
        ("rejected", finals.rejected, sum(|r| r.rejected)),
        ("malformed", finals.malformed, sum(|r| r.malformed)),
        ("dropped", finals.dropped, 0),
    ] {
        assert_eq!(
            live, expected,
            "{name}: live {live} vs reference {expected}"
        );
    }
}

/// Layer 4b: hostile peers sharing one event loop. A stalled peer is
/// evicted with a receipt for what it completed, a byte-at-a-time peer
/// survives as long as bytes keep trickling, and a fast peer is unaffected
/// by either.
#[test]
fn stalled_slow_and_fast_peers_coexist_on_the_event_loop() {
    let io_timeout = Duration::from_millis(400);
    let handle = daemon(io_timeout);
    let addr = handle.addr();

    let stalled = std::thread::spawn(move || {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .write_all(b"{\"service\":\"stall\",\"message\":\"complete\"}\n")
            .unwrap();
        stream
            .write_all(br#"{"service":"stall","message":"never finis"#)
            .unwrap();
        // Keep the write side OPEN and go silent: only idle eviction can
        // end this stream.
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        read_all(&mut stream)
    });
    let slow = std::thread::spawn(move || {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.set_nodelay(true).unwrap();
        for &b in b"{\"service\":\"slow\",\"message\":\"drip drip\"}\n" {
            stream.write_all(&[b]).unwrap();
            stream.flush().unwrap();
            // Each byte resets the idle clock; the whole line takes longer
            // than the io-timeout, but no single gap does.
            std::thread::sleep(Duration::from_millis(15));
        }
        stream.shutdown(Shutdown::Write).unwrap();
        read_all(&mut stream)
    });
    let fast = std::thread::spawn(move || {
        let lines: Vec<String> = (0..100)
            .map(|i| format!("{{\"service\":\"fast\",\"message\":\"event {i}\"}}"))
            .collect();
        loadgen::replay_lines(addr, lines.iter().map(|s| s.as_str())).unwrap()
    });

    let stalled_receipt = stalled.join().unwrap();
    let stalled_receipt =
        IngestSummary::from_json_line(&stalled_receipt).expect("eviction still sends a receipt");
    assert_eq!(
        (stalled_receipt.received, stalled_receipt.accepted),
        (1, 1),
        "the complete line was processed, the dangling fragment was not: {stalled_receipt:?}"
    );
    let slow_receipt = slow.join().unwrap();
    let slow_receipt = IngestSummary::from_json_line(&slow_receipt).expect("slow receipt");
    assert_eq!(
        (slow_receipt.received, slow_receipt.accepted),
        (1, 1),
        "byte-at-a-time peer must not be evicted mid-line: {slow_receipt:?}"
    );
    let fast_receipt = fast.join().unwrap();
    assert_eq!(fast_receipt.accepted, 100, "{fast_receipt:?}");

    loadgen::wait_until_processed(addr, 102, Duration::from_secs(10)).unwrap();
    handle.initiate_shutdown();
    let finals = handle.join().unwrap();
    assert!(finals.reconciles(), "{finals:?}");
    assert_eq!(finals.ingested, 102, "{finals:?}");
}

/// Layer 4c: two peers on one poller and one shard, each sending several
/// byte budgets' worth, so their records share routing batches that are
/// routed as they fill: every receipt counts exactly its own lines.
#[test]
fn batches_routed_at_the_budget_credit_each_peer_its_own_lines() {
    let handle = start(
        patterndb::PatternStore::in_memory(),
        SeqdConfig {
            shards: 1,
            pollers: 1,
            ..SeqdConfig::default()
        },
        "127.0.0.1:0",
    )
    .expect("start daemon");
    let addr = handle.addr();
    let peer = |name: &'static str, n: usize| {
        std::thread::spawn(move || {
            let lines: Vec<String> = (0..n)
                .map(|i| {
                    format!("{{\"service\":\"{name}\",\"message\":\"event {i} from {name} padded {}\"}}", "p".repeat(200))
                })
                .collect();
            loadgen::replay_lines(addr, lines.iter().map(|s| s.as_str())).unwrap()
        })
    };
    // A line holds ≈ 250 B of record, so a budget is ≈ BATCH_BYTES / 250 lines.
    let budget = seqd::eventloop::BATCH_BYTES / 250;
    let (n_a, n_b) = (3 * budget + 17, 5 * budget + 3);
    let (a, b) = (peer("alpha", n_a), peer("beta", n_b));
    let (a, b) = (a.join().unwrap(), b.join().unwrap());
    for (receipt, n) in [(&a, n_a as u64), (&b, n_b as u64)] {
        assert_eq!(
            (receipt.received, receipt.accepted + receipt.rejected),
            (n, n),
            "{receipt:?}"
        );
    }
    loadgen::wait_until_processed(addr, a.accepted + b.accepted, Duration::from_secs(10)).unwrap();
    handle.initiate_shutdown();
    let finals = handle.join().unwrap();
    assert!(finals.reconciles(), "{finals:?}");
    assert_eq!(finals.ingested, (n_a + n_b) as u64, "{finals:?}");
}
