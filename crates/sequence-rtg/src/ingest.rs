//! The data stream ingester.
//!
//! "We added a listener for the command line that allows the data to be piped
//! in directly from the log management system without any message
//! pre-processing required and Sequence-RTG waits to execute until the batch
//! size is reached. [...] This limit is configurable and passed as a command
//! line argument."

use crate::record::{LogRecord, RecordError};
use std::io::BufRead;

/// Counters describing one ingestion run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IngestStats {
    /// Lines read from the stream.
    pub lines: u64,
    /// Lines successfully parsed into records.
    pub records: u64,
    /// Lines skipped: empty.
    pub empty: u64,
    /// Lines skipped: malformed (bad JSON or missing fields).
    pub malformed: u64,
}

/// A batching stream ingester over any line-oriented reader.
#[derive(Debug)]
pub struct StreamIngester<R> {
    reader: R,
    batch_size: usize,
    stats: IngestStats,
    /// First few malformed-line errors, for diagnostics.
    errors: Vec<(u64, RecordError)>,
}

/// How many malformed-line errors to retain for reporting.
const MAX_RETAINED_ERRORS: usize = 16;

impl<R: BufRead> StreamIngester<R> {
    /// Wrap a reader with the given batch size (the paper uses 100,000 in
    /// production at CC-IN2P3).
    pub fn new(reader: R, batch_size: usize) -> StreamIngester<R> {
        StreamIngester {
            reader,
            batch_size: batch_size.max(1),
            stats: IngestStats::default(),
            errors: Vec::new(),
        }
    }

    /// The configured batch size.
    pub fn batch_size(&self) -> usize {
        self.batch_size
    }

    /// Cumulative ingestion counters.
    pub fn stats(&self) -> IngestStats {
        self.stats
    }

    /// Retained malformed-line diagnostics: `(line number, error)`.
    pub fn errors(&self) -> &[(u64, RecordError)] {
        &self.errors
    }

    /// Read until a full batch is available or the stream ends. Returns
    /// `None` when the stream is exhausted and no records remain; a final
    /// partial batch is returned as `Some`. A line that is not valid UTF-8
    /// is decoded lossily (each bad sequence becomes U+FFFD), as `seqd`
    /// decodes its wire: one bad byte costs a character, not the stream.
    pub fn next_batch(&mut self) -> std::io::Result<Option<Vec<LogRecord>>> {
        let mut batch = Vec::with_capacity(self.batch_size);
        let mut line = Vec::new();
        while batch.len() < self.batch_size {
            line.clear();
            let n = self.reader.read_until(b'\n', &mut line)?;
            if n == 0 {
                break; // EOF
            }
            self.stats.lines += 1;
            let decoded = String::from_utf8_lossy(&line);
            let trimmed = decoded.trim();
            if trimmed.is_empty() {
                self.stats.empty += 1;
                continue;
            }
            match LogRecord::from_json_line(trimmed) {
                Ok(r) => {
                    self.stats.records += 1;
                    batch.push(r);
                }
                Err(e) => {
                    self.stats.malformed += 1;
                    if self.errors.len() < MAX_RETAINED_ERRORS {
                        self.errors.push((self.stats.lines, e));
                    }
                }
            }
        }
        if batch.is_empty() {
            Ok(None)
        } else {
            Ok(Some(batch))
        }
    }

    /// Iterate over all batches until EOF.
    pub fn batches(mut self) -> impl Iterator<Item = std::io::Result<Vec<LogRecord>>> {
        std::iter::from_fn(move || self.next_batch().transpose())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn stream(lines: &[&str]) -> Cursor<String> {
        Cursor::new(lines.join("\n"))
    }

    #[test]
    fn batches_of_requested_size() {
        let lines: Vec<String> = (0..7)
            .map(|i| format!(r#"{{"service":"s","message":"event {i}"}}"#))
            .collect();
        let refs: Vec<&str> = lines.iter().map(|s| s.as_str()).collect();
        let mut ing = StreamIngester::new(stream(&refs), 3);
        assert_eq!(ing.next_batch().unwrap().unwrap().len(), 3);
        assert_eq!(ing.next_batch().unwrap().unwrap().len(), 3);
        // Final partial batch.
        assert_eq!(ing.next_batch().unwrap().unwrap().len(), 1);
        assert!(ing.next_batch().unwrap().is_none());
        assert_eq!(ing.stats().records, 7);
    }

    #[test]
    fn malformed_and_empty_lines_skipped() {
        let mut ing = StreamIngester::new(
            stream(&[
                r#"{"service":"a","message":"ok"}"#,
                "",
                "garbage",
                r#"{"service":"a"}"#,
                r#"{"service":"a","message":"ok2"}"#,
            ]),
            10,
        );
        let batch = ing.next_batch().unwrap().unwrap();
        assert_eq!(batch.len(), 2);
        let s = ing.stats();
        assert_eq!(s.empty, 1);
        assert_eq!(s.malformed, 2);
        assert_eq!(ing.errors().len(), 2);
    }

    #[test]
    fn empty_stream_yields_none() {
        let mut ing = StreamIngester::new(Cursor::new(String::new()), 5);
        assert!(ing.next_batch().unwrap().is_none());
    }

    #[test]
    fn batch_size_zero_clamped_to_one() {
        let mut ing = StreamIngester::new(stream(&[r#"{"service":"a","message":"x"}"#]), 0);
        assert_eq!(ing.batch_size(), 1);
        assert_eq!(ing.next_batch().unwrap().unwrap().len(), 1);
    }

    #[test]
    fn malformed_beyond_retention_cap_still_counted() {
        // 20 bad lines + 1 good one: retention stops at MAX_RETAINED_ERRORS,
        // the malformed *counter* must not.
        let mut lines: Vec<String> = (0..20).map(|i| format!("not json {i}")).collect();
        lines.push(r#"{"service":"a","message":"ok"}"#.to_string());
        let refs: Vec<&str> = lines.iter().map(|s| s.as_str()).collect();
        let mut ing = StreamIngester::new(stream(&refs), 10);
        let batch = ing.next_batch().unwrap().unwrap();
        assert_eq!(batch.len(), 1);
        assert_eq!(ing.stats().malformed, 20);
        assert_eq!(ing.errors().len(), MAX_RETAINED_ERRORS);
        // Retained diagnostics are the *first* failures, with line numbers.
        assert_eq!(ing.errors()[0].0, 1);
        assert_eq!(
            ing.errors()[MAX_RETAINED_ERRORS - 1].0,
            MAX_RETAINED_ERRORS as u64
        );
    }

    #[test]
    fn crlf_terminated_lines_do_not_leak_carriage_returns() {
        let raw = "{\"service\":\"win\",\"message\":\"event ok\"}\r\n\
                   {\"service\":\"win\",\"message\":\"event two\"}\r\n";
        let mut ing = StreamIngester::new(Cursor::new(raw.to_string()), 10);
        let batch = ing.next_batch().unwrap().unwrap();
        assert_eq!(batch.len(), 2);
        for record in &batch {
            assert!(
                !record.message.contains('\r'),
                "CR leaked: {:?}",
                record.message
            );
            assert!(!record.service.contains('\r'));
        }
        assert_eq!(batch[0].message, "event ok");
        assert_eq!(ing.stats().malformed, 0);
    }

    #[test]
    fn invalid_utf8_is_decoded_lossily_not_fatal() {
        let mut raw = b"{\"service\":\"x\",\"message\":\"ok\"}\n".to_vec();
        raw.extend_from_slice(b"{\"service\":\"x\",\"message\":\"bad \xff byte\"}\n");
        raw.extend_from_slice(b"{\"service\":\"x\",\"message\":\"ok again\"}\n");
        let mut ing = StreamIngester::new(Cursor::new(raw), 10);
        let batch = ing.next_batch().unwrap().unwrap();
        assert_eq!(batch.len(), 3);
        assert_eq!(batch[1].message, "bad \u{fffd} byte");
        assert_eq!(ing.stats().malformed, 0);
    }

    #[test]
    fn batches_iterator() {
        let lines: Vec<String> = (0..5)
            .map(|i| format!(r#"{{"service":"s","message":"m {i}"}}"#))
            .collect();
        let refs: Vec<&str> = lines.iter().map(|s| s.as_str()).collect();
        let ing = StreamIngester::new(stream(&refs), 2);
        let sizes: Vec<usize> = ing.batches().map(|b| b.unwrap().len()).collect();
        assert_eq!(sizes, vec![2, 2, 1]);
    }
}
