//! Load-generator client: replay a corpus at the daemon over real sockets.
//!
//! This is the other half of the wire protocol in [`crate::protocol`]: open a
//! TCP connection, stream NDJSON records, half-close the write side, and read
//! back the one-line [`IngestSummary`] receipt. It doubles as the reference
//! client implementation — the integration tests, the `seqd_demo` example
//! and the `seqd-loadgen` binary all drive the daemon through these
//! functions.

use crate::protocol::IngestSummary;
use sequence_rtg::LogRecord;
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::net::{Shutdown, TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

/// Client-side socket deadline: generous (the daemon may legitimately take
/// a while to drain before receipting), but bounded — a wedged daemon must
/// not hang the client forever.
const CLIENT_IO_TIMEOUT: Duration = Duration::from_secs(120);

fn connect(addr: impl ToSocketAddrs) -> io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(CLIENT_IO_TIMEOUT))?;
    stream.set_write_timeout(Some(CLIENT_IO_TIMEOUT))?;
    Ok(stream)
}

/// Replay raw NDJSON lines (already-serialised records) to the daemon and
/// return its receipt.
pub fn replay_lines<'a>(
    addr: impl ToSocketAddrs,
    lines: impl Iterator<Item = &'a str>,
) -> io::Result<IngestSummary> {
    let stream = connect(addr)?;
    // A generous buffer keeps the syscall count (and thus the client's own
    // overhead) out of throughput measurements: ~256 KiB per write instead
    // of the 8 KiB default.
    let mut writer = BufWriter::with_capacity(1 << 18, stream.try_clone()?);
    for line in lines {
        writer.write_all(line.as_bytes())?;
        writer.write_all(b"\n")?;
    }
    writer.flush()?;
    // Half-close: tells the daemon the stream is complete, keeps the read
    // side open for the receipt.
    stream.shutdown(Shutdown::Write)?;
    let mut receipt = String::new();
    BufReader::new(stream).read_line(&mut receipt)?;
    IngestSummary::from_json_line(&receipt).ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("bad ingest receipt: {receipt:?}"),
        )
    })
}

/// Replay structured records (serialising each as one NDJSON line).
pub fn replay_records(
    addr: impl ToSocketAddrs + Copy,
    records: &[LogRecord],
) -> io::Result<IngestSummary> {
    let lines: Vec<String> = records.iter().map(|r| r.to_json_line()).collect();
    replay_lines(addr, lines.iter().map(|s| s.as_str()))
}

/// Replay a pre-serialised NDJSON payload in one pass. The wire bytes are
/// prepared entirely by the caller, so the client's per-line cost during a
/// throughput measurement is a plain `memcpy` into the socket — the
/// generator can never be the bottleneck being measured.
pub fn replay_blob(addr: impl ToSocketAddrs, payload: &[u8]) -> io::Result<IngestSummary> {
    let mut stream = connect(addr)?;
    stream.write_all(payload)?;
    stream.shutdown(Shutdown::Write)?;
    let mut receipt = String::new();
    BufReader::new(stream).read_line(&mut receipt)?;
    IngestSummary::from_json_line(&receipt).ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("bad ingest receipt: {receipt:?}"),
        )
    })
}

/// Fetch a control-plane path (e.g. `/stats`) and return the response body.
pub fn control_get(addr: impl ToSocketAddrs, path: &str) -> io::Result<String> {
    control_request(addr, "GET", path)
}

/// Send a control-plane POST (e.g. `/shutdown`) and return the response body.
pub fn control_post(addr: impl ToSocketAddrs, path: &str) -> io::Result<String> {
    control_request(addr, "POST", path)
}

fn control_request(addr: impl ToSocketAddrs, method: &str, path: &str) -> io::Result<String> {
    let mut stream = connect(addr)?;
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: seqd\r\nConnection: close\r\n\r\n"
    )?;
    let mut raw = String::new();
    BufReader::new(stream).read_to_string(&mut raw)?;
    let (head, body) = raw.split_once("\r\n\r\n").ok_or_else(|| {
        io::Error::new(io::ErrorKind::InvalidData, "response without header break")
    })?;
    let status = head.split_whitespace().nth(1).unwrap_or("");
    if status != "200" {
        return Err(io::Error::other(format!(
            "control plane returned {status} for {method} {path}"
        )));
    }
    Ok(body.to_string())
}

/// Poll `/stats` until at least `n` records have been fully processed
/// (matched or unmatched — i.e. out of the queues), or time out.
pub fn wait_until_processed(
    addr: impl ToSocketAddrs + Copy,
    n: u64,
    timeout: Duration,
) -> io::Result<()> {
    let deadline = Instant::now() + timeout;
    loop {
        let body = control_get(addr, "/stats")?;
        if let Ok(v) = jsonlite::parse(&body) {
            let field = |k: &str| v.get(k).and_then(|x| x.as_i64()).unwrap_or(0) as u64;
            if field("matched") + field("unmatched") >= n {
                return Ok(());
            }
        }
        if Instant::now() >= deadline {
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                format!("daemon did not process {n} records in {timeout:?}"),
            ));
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replay_against_closed_port_is_an_error() {
        // Bind-then-drop guarantees the port is unused.
        let addr = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap()
        };
        assert!(replay_lines(addr, ["x"].into_iter()).is_err());
    }
}
