//! Per-connection ring buffer: vectored reads in, borrowed lines out.
//!
//! The event-loop wire path owns exactly one buffer per connection. Socket
//! bytes are read with `read_vectored` into the ring's (up to two) free
//! regions — no intermediate copy — and complete NDJSON frames are handed
//! to the parser as `&[u8]` slices *into the ring* whenever the line is
//! contiguous. Only a line that happens to span the wrap point is copied
//! (into a reusable scratch buffer), which is at most one line per
//! `capacity` bytes of traffic.
//!
//! The capacity doubles as the oversized-line bound: the server sizes the
//! ring to `max_line_len`, so "the ring is full and holds no newline" is
//! exactly the blocking path's "buffered more than the cap without a
//! terminator" condition.

use std::io::{self, IoSliceMut, Read};

/// A fixed-capacity byte ring with contiguous-slice line extraction.
#[derive(Debug)]
pub struct RingBuf {
    buf: Box<[u8]>,
    /// Read position (start of buffered data).
    head: usize,
    /// Buffered byte count.
    len: usize,
    /// Bytes from `head` already scanned for `\n` (no match), so repeated
    /// partial-line polls do not rescan from the start.
    scanned: usize,
}

impl RingBuf {
    /// A ring holding at most `capacity` bytes (clamped to ≥ 16).
    pub fn new(capacity: usize) -> RingBuf {
        RingBuf {
            buf: vec![0u8; capacity.max(16)].into_boxed_slice(),
            head: 0,
            len: 0,
            scanned: 0,
        }
    }

    /// Total capacity.
    pub fn capacity(&self) -> usize {
        self.buf.len()
    }

    /// Buffered bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// No buffered bytes?
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// No free space left?
    pub fn is_full(&self) -> bool {
        self.len == self.buf.len()
    }

    /// One vectored read from `stream` into the free space (split across
    /// the wrap point when needed). Returns the byte count — `Ok(0)` means
    /// EOF, never "ring full": callers must check [`RingBuf::is_full`]
    /// first.
    pub fn fill(&mut self, stream: &mut impl Read) -> io::Result<usize> {
        let cap = self.buf.len();
        debug_assert!(self.len < cap, "fill() on a full ring");
        let tail = (self.head + self.len) % cap;
        let n = if tail >= self.head && self.len < cap {
            // Free space: [tail..cap) then [0..head).
            let (left, right) = self.buf.split_at_mut(tail);
            let first = right; // [tail..cap)
            let second = &mut left[..self.head.min(tail)]; // [0..head)
            if second.is_empty() {
                stream.read(first)?
            } else {
                let mut iov = [IoSliceMut::new(first), IoSliceMut::new(second)];
                stream.read_vectored(&mut iov)?
            }
        } else {
            // Free space is one contiguous region [tail..head).
            stream.read(&mut self.buf[tail..self.head])?
        };
        self.len += n;
        Ok(n)
    }

    /// Locate the next complete line (everything up to and including the
    /// next `\n`). Returns its total length in bytes, or `None` if no
    /// terminator is buffered yet.
    fn find_line(&mut self) -> Option<usize> {
        let cap = self.buf.len();
        while self.scanned < self.len {
            let pos = (self.head + self.scanned) % cap;
            // Scan the contiguous stretch starting at `pos` (ends at the
            // wrap point or at the end of buffered data, whichever first).
            let stretch = (self.len - self.scanned).min(cap - pos);
            match self.buf[pos..pos + stretch]
                .iter()
                .position(|&b| b == b'\n')
            {
                Some(i) => {
                    let line_len = self.scanned + i + 1;
                    self.scanned = 0;
                    return Some(line_len);
                }
                None => self.scanned += stretch,
            }
        }
        None
    }

    /// Length (terminator included) of the next complete line, without
    /// consuming it — the caller's oversized check happens here, before the
    /// line is handed out.
    pub fn next_line_len(&mut self) -> Option<usize> {
        self.find_line()
    }

    /// Consume through the next `\n` (inclusive). Returns `true` when a
    /// terminator was found; `false` when everything buffered was dropped
    /// without one (the caller stays in discard mode until more data).
    pub fn discard_to_newline(&mut self) -> bool {
        match self.find_line() {
            Some(n) => {
                self.consume(n);
                true
            }
            None => {
                self.clear();
                false
            }
        }
    }

    /// Pop the next complete line and run `f` over its bytes (terminator
    /// excluded). Contiguous lines borrow straight from the ring; a line
    /// spanning the wrap point is assembled in `scratch`. Returns `None`
    /// when no complete line is buffered.
    pub fn with_line<R>(&mut self, scratch: &mut Vec<u8>, f: impl FnOnce(&[u8]) -> R) -> Option<R> {
        let line_len = self.find_line()?;
        let cap = self.buf.len();
        let body = line_len - 1; // strip '\n'
        let result = if self.head + body <= cap {
            f(&self.buf[self.head..self.head + body])
        } else {
            let first = cap - self.head;
            scratch.clear();
            scratch.extend_from_slice(&self.buf[self.head..]);
            scratch.extend_from_slice(&self.buf[..body - first]);
            f(scratch)
        };
        self.consume(line_len);
        Some(result)
    }

    /// Peek the next complete line without consuming it (for protocol
    /// sniffing, which must leave ingest bytes in place). Same borrowing
    /// rules as [`RingBuf::with_line`].
    pub fn peek_line<R>(&mut self, scratch: &mut Vec<u8>, f: impl FnOnce(&[u8]) -> R) -> Option<R> {
        let line_len = self.find_line()?;
        let cap = self.buf.len();
        let body = line_len - 1;
        Some(if self.head + body <= cap {
            f(&self.buf[self.head..self.head + body])
        } else {
            let first = cap - self.head;
            scratch.clear();
            scratch.extend_from_slice(&self.buf[self.head..]);
            scratch.extend_from_slice(&self.buf[..body - first]);
            f(scratch)
        })
    }

    /// Drop `n` buffered bytes from the front.
    pub fn consume(&mut self, n: usize) {
        let n = n.min(self.len);
        self.head = (self.head + n) % self.buf.len();
        self.len -= n;
        self.scanned = self.scanned.saturating_sub(n);
        if self.len == 0 {
            // Re-anchor: maximises the contiguous free region for the next
            // fill and keeps wrap-spanning lines rare.
            self.head = 0;
        }
    }

    /// Discard everything buffered.
    pub fn clear(&mut self) {
        self.head = 0;
        self.len = 0;
        self.scanned = 0;
    }

    /// Copy out everything buffered, in order (HTTP handoff: the control
    /// path re-reads these bytes through a blocking reader).
    pub fn drain_to_vec(&mut self) -> Vec<u8> {
        let cap = self.buf.len();
        let mut out = Vec::with_capacity(self.len);
        if self.head + self.len <= cap {
            out.extend_from_slice(&self.buf[self.head..self.head + self.len]);
        } else {
            out.extend_from_slice(&self.buf[self.head..]);
            out.extend_from_slice(&self.buf[..(self.head + self.len) % cap]);
        }
        self.clear();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn lines(ring: &mut RingBuf) -> Vec<String> {
        let mut scratch = Vec::new();
        let mut out = Vec::new();
        while let Some(s) =
            ring.with_line(&mut scratch, |b| String::from_utf8_lossy(b).into_owned())
        {
            out.push(s);
        }
        out
    }

    #[test]
    fn fills_and_splits_lines() {
        let mut ring = RingBuf::new(64);
        let mut src = Cursor::new(b"alpha\nbeta\ngam".to_vec());
        while ring.fill(&mut src).unwrap() > 0 {}
        assert_eq!(lines(&mut ring), vec!["alpha", "beta"]);
        assert_eq!(ring.len(), 3); // "gam" partial stays buffered
        assert_eq!(ring.drain_to_vec(), b"gam");
        assert!(ring.is_empty());
    }

    #[test]
    fn wrap_spanning_line_is_assembled_in_scratch() {
        let mut ring = RingBuf::new(16);
        // Fill the ring exactly: an 11-byte line plus a 5-byte partial.
        ring.fill(&mut Cursor::new(b"0123456789\nabcde".to_vec()))
            .unwrap();
        assert_eq!(lines(&mut ring), vec!["0123456789"]);
        assert_eq!(ring.len(), 5); // "abcde" parked at [11..16)
                                   // The continuation lands at [0..6): the line spans the wrap point.
        ring.fill(&mut Cursor::new(b"fghij\n".to_vec())).unwrap();
        assert_eq!(lines(&mut ring), vec!["abcdefghij"]);
        assert!(ring.is_empty());
    }

    #[test]
    fn byte_at_a_time_fills_reassemble() {
        let mut ring = RingBuf::new(32);
        let payload = b"{\"a\":1}\nnext\n";
        for &b in payload.iter() {
            ring.fill(&mut Cursor::new(vec![b])).unwrap();
        }
        assert_eq!(lines(&mut ring), vec!["{\"a\":1}", "next"]);
    }

    #[test]
    fn full_ring_without_newline_is_detectable() {
        let mut ring = RingBuf::new(16);
        ring.fill(&mut Cursor::new(vec![b'x'; 32])).unwrap();
        assert!(ring.is_full());
        let mut scratch = Vec::new();
        assert!(ring.with_line(&mut scratch, |_| ()).is_none());
        // Oversized discard: drop the buffered bytes, keep going.
        ring.clear();
        assert!(ring.is_empty());
    }

    #[test]
    fn peek_line_does_not_consume() {
        let mut ring = RingBuf::new(64);
        ring.fill(&mut Cursor::new(b"GET /stats HTTP/1.1\r\nrest".to_vec()))
            .unwrap();
        let mut scratch = Vec::new();
        let first = ring
            .peek_line(&mut scratch, |b| String::from_utf8_lossy(b).into_owned())
            .unwrap();
        assert_eq!(first, "GET /stats HTTP/1.1\r");
        assert_eq!(ring.len(), 25, "peek must leave everything buffered");
        let all = ring.drain_to_vec();
        assert_eq!(all, b"GET /stats HTTP/1.1\r\nrest");
    }

    #[test]
    fn eof_returns_zero_only_at_eof() {
        let mut ring = RingBuf::new(16);
        let mut src = Cursor::new(b"ab".to_vec());
        assert_eq!(ring.fill(&mut src).unwrap(), 2);
        assert_eq!(ring.fill(&mut src).unwrap(), 0); // true EOF
    }
}
