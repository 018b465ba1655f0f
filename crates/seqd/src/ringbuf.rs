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
//! The ring starts at [`INITIAL_CAPACITY`] (or its cap, if smaller) and
//! grows only for a line that needs it: a fill into a ring that is full
//! and holds no newline first doubles it, re-linearising what it holds, up
//! to the cap. Once what it holds fits in half the initial size it goes
//! back to it, so a connection holds the initial size unless a long line
//! is in flight. The server caps the ring at `max_line_len + 1`, so "full at the
//! cap and holds no newline" ([`RingBuf::is_full`]) is exactly the
//! reference's "buffered more than the cap without a terminator" condition.

use std::io::{self, IoSliceMut, Read};

/// A ring's allocation while no line longer than this is in flight.
pub const INITIAL_CAPACITY: usize = 64 << 10;

/// A byte ring, grown on demand up to a cap, with contiguous-slice line
/// extraction.
#[derive(Debug)]
pub struct RingBuf {
    buf: Box<[u8]>,
    /// The most the ring may grow to.
    cap: usize,
    /// Read position (start of buffered data).
    head: usize,
    /// Buffered byte count.
    len: usize,
    /// Bytes from `head` already scanned for `\n` (no match), so repeated
    /// partial-line polls do not rescan from the start.
    scanned: usize,
}

impl RingBuf {
    /// A ring holding at most `cap` bytes (clamped to ≥ 16), allocated at
    /// [`INITIAL_CAPACITY`] or `cap`, whichever is smaller.
    pub fn new(cap: usize) -> RingBuf {
        let cap = cap.max(16);
        RingBuf {
            buf: vec![0u8; cap.min(INITIAL_CAPACITY)].into_boxed_slice(),
            cap,
            head: 0,
            len: 0,
            scanned: 0,
        }
    }

    /// Current allocation: what the ring holds in memory now.
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

    /// Full at the cap: no fill can add a byte.
    pub fn is_full(&self) -> bool {
        self.len == self.cap
    }

    /// One vectored read from `stream` into the free space (split across
    /// the wrap point when needed). A ring that is full below its cap grows
    /// first. Returns the byte count — `Ok(0)` means EOF, never "ring
    /// full": callers must check [`RingBuf::is_full`] first, and split every
    /// complete line out before filling, so that a ring that grows holds no
    /// newline.
    pub fn fill(&mut self, stream: &mut impl Read) -> io::Result<usize> {
        self.fill_at_most(stream, usize::MAX)
    }

    /// [`RingBuf::fill`] reading at most `limit` (≥ 1) bytes.
    pub fn fill_at_most(&mut self, stream: &mut impl Read, limit: usize) -> io::Result<usize> {
        debug_assert!(self.len < self.cap, "fill() on a full ring");
        debug_assert!(limit > 0, "fill() of nothing reads as EOF");
        if self.len == self.buf.len() {
            self.resize((2 * self.buf.len()).min(self.cap));
        }
        let cap = self.buf.len();
        let tail = (self.head + self.len) % cap;
        let n = if tail >= self.head && self.len < cap {
            // Free space: [tail..cap) then [0..head).
            let (left, right) = self.buf.split_at_mut(tail);
            let first_len = limit.min(right.len());
            let second_len = self.head.min(limit - first_len);
            let first = &mut right[..first_len]; // [tail..cap)
            let second = &mut left[..second_len]; // [0..head)
            if second.is_empty() {
                stream.read(first)?
            } else {
                let mut iov = [IoSliceMut::new(first), IoSliceMut::new(second)];
                stream.read_vectored(&mut iov)?
            }
        } else {
            // Free space is one contiguous region [tail..head).
            let end = self.head.min(tail.saturating_add(limit));
            stream.read(&mut self.buf[tail..end])?
        };
        self.len += n;
        Ok(n)
    }

    /// Move what the ring holds, linearised from index 0, into a fresh
    /// allocation of `size` bytes.
    fn resize(&mut self, size: usize) {
        debug_assert!(self.len <= size && size <= self.cap, "{} {size}", self.len);
        let mut buf = vec![0u8; size].into_boxed_slice();
        let first = self.len.min(self.buf.len() - self.head);
        buf[..first].copy_from_slice(&self.buf[self.head..self.head + first]);
        buf[first..self.len].copy_from_slice(&self.buf[..self.len - first]);
        self.buf = buf;
        self.head = 0;
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
        self.shrink();
    }

    /// Discard everything buffered.
    pub fn clear(&mut self) {
        self.head = 0;
        self.len = 0;
        self.scanned = 0;
        self.shrink();
    }

    /// Back to [`INITIAL_CAPACITY`] once the long line that grew the ring
    /// is gone: what it holds fits in half of that. (Half, not all, so a
    /// second long line right behind the first does not shrink and regrow
    /// the ring at once.)
    fn shrink(&mut self) {
        if self.buf.len() > INITIAL_CAPACITY && self.len <= INITIAL_CAPACITY / 2 {
            self.resize(INITIAL_CAPACITY);
        }
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
    fn fill_reads_at_most_its_limit_across_the_wrap_point() {
        let mut ring = RingBuf::new(16);
        let mut src = Cursor::new(b"0123456789\nabcdefghij".to_vec());
        assert_eq!(ring.fill_at_most(&mut src, 12).unwrap(), 12);
        assert_eq!(lines(&mut ring), vec!["0123456789"]);
        // Free space is [12..16) then [0..1): a limit of 5 takes both.
        assert_eq!(ring.fill_at_most(&mut src, 5).unwrap(), 5);
        assert_eq!(ring.len(), 6);
        assert_eq!(ring.drain_to_vec(), b"abcdef");
    }

    #[test]
    fn fill_into_a_wrapped_ring_reads_up_to_the_head() {
        let mut ring = RingBuf::new(16);
        ring.fill(&mut Cursor::new(b"0123456789\nab".to_vec()))
            .unwrap();
        assert_eq!(lines(&mut ring), vec!["0123456789"]);
        // "ab" at [11..13); "cdef" lands at [13..16) and [0..1).
        ring.fill(&mut Cursor::new(b"cdef".to_vec())).unwrap();
        // The free space is now [1..11), before the head.
        assert_eq!(
            ring.fill(&mut Cursor::new(b"gh\nijklmnopq".to_vec()))
                .unwrap(),
            10
        );
        assert_eq!(lines(&mut ring), vec!["abcdefgh"]);
        assert_eq!(ring.drain_to_vec(), b"ijklmno");
    }

    /// Random lines (short, around the initial size, exactly the cap and
    /// one byte over it) fed in random fill sizes through a ring whose cap
    /// is above its initial size, split the way the event loop splits,
    /// against a `Vec<u8>` model of what the ring buffers: the same lines
    /// come out, the ring grows only when full without a newline, never
    /// past its cap, and is back at the initial size once it holds half of
    /// that or less.
    #[test]
    fn a_growing_ring_agrees_with_a_vec_model() {
        use testkit::prop::{self, Config};
        use testkit::{prop_assert, prop_assert_eq};

        let strategy = (
            prop::range(1usize..3 * INITIAL_CAPACITY),
            prop::vec((prop::range(0u8..6), prop::range(0usize..200)), 1..10),
            prop::vec(prop::range(1usize..2 * INITIAL_CAPACITY), 1..16),
        );
        prop::check(&Config::cases(48), &strategy, |(extra, shapes, fills)| {
            let cap = INITIAL_CAPACITY + extra;
            // Line lengths, terminator included.
            let lens: Vec<usize> = shapes
                .iter()
                .map(|&(kind, n)| match kind {
                    0 | 1 => n + 1,
                    2 => INITIAL_CAPACITY - 100 + n,
                    3 => cap,
                    4 => cap + 1,
                    _ => cap - n.min(cap - 1),
                })
                .collect();
            let mut payload = Vec::new();
            for (i, &len) in lens.iter().enumerate() {
                payload.extend((0..len - 1).map(|k| b'a' + ((i + k) % 26) as u8));
                payload.push(b'\n');
            }
            let expected: Vec<Vec<u8>> = payload
                .split_inclusive(|&b| b == b'\n')
                .filter(|l| l.len() <= cap)
                .map(|l| l[..l.len() - 1].to_vec())
                .collect();

            let mut ring = RingBuf::new(cap);
            let mut model: Vec<u8> = Vec::new();
            let mut src = Cursor::new(payload);
            let mut scratch = Vec::new();
            let mut got: Vec<Vec<u8>> = Vec::new();
            let mut discarding = false;
            for &limit in fills.iter().cycle() {
                loop {
                    if discarding {
                        let found = ring.discard_to_newline();
                        match model.iter().position(|&b| b == b'\n') {
                            Some(p) => drop(model.drain(..=p)),
                            None => model.clear(),
                        }
                        prop_assert_eq!(ring.len(), model.len());
                        if !found {
                            break;
                        }
                        discarding = false;
                    }
                    match ring.with_line(&mut scratch, <[u8]>::to_vec) {
                        Some(line) => {
                            let p = model.iter().position(|&b| b == b'\n');
                            prop_assert_eq!(Some(line.len()), p);
                            prop_assert_eq!(&line[..], &model[..line.len()]);
                            model.drain(..=line.len());
                            got.push(line);
                        }
                        None => {
                            prop_assert!(!model.contains(&b'\n'));
                            if ring.is_full() {
                                prop_assert_eq!(model.len(), cap);
                                ring.clear();
                                model.clear();
                                discarding = true;
                                continue;
                            }
                            break;
                        }
                    }
                }
                prop_assert_eq!(ring.len(), model.len());
                prop_assert!(ring.len() <= ring.capacity() && ring.capacity() <= cap);
                if ring.len() <= INITIAL_CAPACITY / 2 {
                    prop_assert_eq!(ring.capacity(), INITIAL_CAPACITY);
                }
                let (before, at) = (ring.capacity(), src.position() as usize);
                let full = ring.len() == before;
                let n = ring.fill_at_most(&mut src, limit).unwrap();
                if n == 0 {
                    break;
                }
                prop_assert!(n <= limit);
                prop_assert!(ring.capacity() == before || full, "grew with room to spare");
                model.extend_from_slice(&src.get_ref()[at..at + n]);
            }
            prop_assert_eq!(ring.drain_to_vec(), model);
            prop_assert_eq!(got, expected);
            Ok(())
        });
    }

    #[test]
    fn eof_returns_zero_only_at_eof() {
        let mut ring = RingBuf::new(16);
        let mut src = Cursor::new(b"ab".to_vec());
        assert_eq!(ring.fill(&mut src).unwrap(), 2);
        assert_eq!(ring.fill(&mut src).unwrap(), 0); // true EOF
    }
}
