//! A minimal in-tree HTTP/1.1 server side: just enough for the control
//! plane (`/healthz`, `/stats`, `/metrics`, `/patterns`, `/debug/*`,
//! `/shutdown`).
//!
//! One request per connection, `Connection: close` semantics: parse the
//! request line and headers, ignore any body, write one response with a
//! `Content-Length`, done. No keep-alive, no chunking, no TLS — operators
//! curl these endpoints or scrape them with Prometheus, both of which are
//! happy with close-delimited 1.1 responses.

use crate::protocol::{read_line_capped, LineOutcome};
use std::collections::HashMap;
use std::io::{BufRead, Read, Take, Write};

/// Longest request-head line read, terminator included.
const MAX_HEAD_LINE: usize = 8 << 10;

/// Most bytes read for a whole request head (request line and headers).
const MAX_HEAD: u64 = 64 << 10;

/// A parsed control-plane request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// `GET`, `POST`, …
    pub method: String,
    /// Path without the query string (`/patterns`).
    pub path: String,
    /// Decoded query parameters (`?service=sshd`).
    pub query: HashMap<String, String>,
}

impl Request {
    /// Read and parse one request head. `None` on malformed input, and on
    /// a head line over `MAX_HEAD_LINE` or a head over `MAX_HEAD` bytes: a
    /// client streaming an endless head costs one capped line of memory
    /// and `MAX_HEAD` bytes of reading, then gets its `400`.
    pub fn read_from<R: BufRead>(reader: &mut R) -> Option<Request> {
        let mut head = reader.take(MAX_HEAD);
        let line = head_line(&mut head)?;
        let mut parts = line.split_whitespace();
        let method = parts.next()?.to_string();
        let target = parts.next()?;
        let version = parts.next()?;
        if !version.starts_with("HTTP/1.") {
            return None;
        }
        // Drain headers until the blank line; the control plane needs none
        // of them (no endpoint accepts a body).
        while !head_line(&mut head)?.trim().is_empty() {}
        let (path, query_str) = match target.split_once('?') {
            Some((p, q)) => (p, q),
            None => (target, ""),
        };
        let mut query = HashMap::new();
        for pair in query_str.split('&').filter(|p| !p.is_empty()) {
            let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
            query.insert(percent_decode(k), percent_decode(v));
        }
        Some(Request {
            method,
            path: path.to_string(),
            query,
        })
    }
}

/// One line of a request head; the empty string at end of stream. `None`
/// when the line is over a cap or the read fails.
fn head_line<R: BufRead>(head: &mut Take<R>) -> Option<String> {
    match read_line_capped(head, MAX_HEAD_LINE).ok()? {
        LineOutcome::Line(line) if line.ends_with('\n') || head.limit() > 0 => Some(line),
        LineOutcome::Eof => Some(String::new()),
        _ => None,
    }
}

/// Minimal percent-decoding (`%2F` → `/`, `+` → space) for query values —
/// service names can contain almost anything.
fn percent_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b'%' => {
                if let (Some(h), Some(l)) = (
                    bytes.get(i + 1).and_then(|b| (*b as char).to_digit(16)),
                    bytes.get(i + 2).and_then(|b| (*b as char).to_digit(16)),
                ) {
                    out.push((h * 16 + l) as u8);
                    i += 3;
                } else {
                    out.push(b'%');
                    i += 1;
                }
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// Write one complete response.
pub fn respond<W: Write>(
    writer: &mut W,
    status: u16,
    content_type: &str,
    body: &str,
) -> std::io::Result<()> {
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        _ => "Internal Server Error",
    };
    write!(
        writer,
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )?;
    writer.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn parses_request_line_and_query() {
        let raw = "GET /patterns?service=svc-001-HDFS&limit=10 HTTP/1.1\r\nHost: x\r\nUser-Agent: curl\r\n\r\n";
        let req = Request::read_from(&mut Cursor::new(raw)).unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/patterns");
        assert_eq!(req.query["service"], "svc-001-HDFS");
        assert_eq!(req.query["limit"], "10");
    }

    #[test]
    fn decodes_percent_escapes_in_query() {
        let raw = "GET /patterns?service=my%2Fapp+prod HTTP/1.1\r\n\r\n";
        let req = Request::read_from(&mut Cursor::new(raw)).unwrap();
        assert_eq!(req.query["service"], "my/app prod");
    }

    #[test]
    fn rejects_non_http_garbage() {
        assert!(Request::read_from(&mut Cursor::new("{\"service\":\"x\"}\n")).is_none());
        assert!(Request::read_from(&mut Cursor::new("")).is_none());
    }

    #[test]
    fn over_long_heads_are_refused() {
        let pad = "a".repeat(4 << 20);
        let raw = format!("GET /healthz HTTP/1.1\r\nX-Pad: {pad}\r\n\r\n");
        assert!(Request::read_from(&mut Cursor::new(raw)).is_none());
        // Many short headers, none over the line cap, past the head cap.
        let many = "X-Pad: aaaaaaaaaaaaaaaa\r\n".repeat(8 << 10);
        let raw = format!("GET /healthz HTTP/1.1\r\n{many}\r\n");
        assert!(Request::read_from(&mut Cursor::new(raw)).is_none());
        let long_target = format!("GET /{} HTTP/1.1\r\n\r\n", "p".repeat(MAX_HEAD_LINE));
        assert!(Request::read_from(&mut Cursor::new(long_target)).is_none());
        // A head just inside both caps still parses.
        let fits = "X-Pad: aaaaaaaaaaaaaaaa\r\n".repeat(2 << 10);
        let raw = format!("GET /healthz HTTP/1.1\r\n{fits}\r\n");
        assert_eq!(
            Request::read_from(&mut Cursor::new(raw)).unwrap().path,
            "/healthz"
        );
    }

    #[test]
    fn response_has_content_length_and_close() {
        let mut out = Vec::new();
        respond(&mut out, 200, "text/plain; charset=utf-8", "ok\n").unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 3\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.ends_with("\r\n\r\nok\n"));
    }

    #[test]
    fn response_statuses_have_reasons() {
        for (code, reason) in [
            (400, "Bad Request"),
            (404, "Not Found"),
            (405, "Method Not Allowed"),
        ] {
            let mut out = Vec::new();
            respond(&mut out, code, "text/plain", "").unwrap();
            assert!(String::from_utf8(out).unwrap().contains(reason));
        }
    }
}
