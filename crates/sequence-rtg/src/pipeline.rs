//! The continuous production pipeline.
//!
//! In production (paper §IV, Fig. 6), syslog-ng pipes unmatched messages to
//! Sequence-RTG's standard input and Sequence-RTG runs one analysis per full
//! batch. [`Pipeline`] is that loop as a reusable component: feed records
//! in, get a [`BatchReport`] back whenever a batch completes.
//!
//! A record is matched when it arrives, not when its batch runs: "if a
//! match is found [...] no further processing occurs for this message", so
//! a matched record becomes one count against its pattern and is dropped.
//! Only the unmatched residue waits for the batch to fill, as message bytes
//! in one buffer per service. The pipeline's memory is the pattern sets
//! plus that residue, whatever the batch size. The match runs on the
//! engine's compiled matcher index (`sequence_core::matcher`), so
//! throughput stays flat as the pattern database grows.

use crate::analyze_by_service::{BatchReport, SequenceRtg};
use crate::batch::OpenBatch;
use crate::record::LogRecord;
use patterndb::StoreError;

/// A batching wrapper around [`SequenceRtg`].
#[derive(Debug)]
pub struct Pipeline {
    rtg: SequenceRtg,
    open: OpenBatch,
    batches_run: u64,
}

impl Pipeline {
    /// Wrap an engine; batch size comes from the engine's config.
    pub fn new(rtg: SequenceRtg) -> Pipeline {
        Pipeline {
            rtg,
            open: OpenBatch::default(),
            batches_run: 0,
        }
    }

    /// The wrapped engine.
    pub fn engine_mut(&mut self) -> &mut SequenceRtg {
        &mut self.rtg
    }

    /// Number of completed analysis runs.
    pub fn batches_run(&self) -> u64 {
        self.batches_run
    }

    /// Add one record, matching it on arrival; runs an analysis when the
    /// batch fills and returns its report.
    pub fn push(&mut self, record: LogRecord, now: u64) -> Result<Option<BatchReport>, StoreError> {
        self.rtg.arrive(&mut self.open, &record);
        if self.open.received() >= self.rtg.config().batch_size as u64 {
            return Ok(Some(self.run_batch(now)?));
        }
        Ok(None)
    }

    /// Analyse whatever is pending, even a partial batch. `None` when empty.
    pub fn flush(&mut self, now: u64) -> Result<Option<BatchReport>, StoreError> {
        if self.open.received() == 0 {
            return Ok(None);
        }
        Ok(Some(self.run_batch(now)?))
    }

    fn run_batch(&mut self, now: u64) -> Result<BatchReport, StoreError> {
        let batch = std::mem::take(&mut self.open);
        self.batches_run += 1;
        self.rtg.run_batch(batch, now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RtgConfig;

    fn engine(batch_size: usize) -> SequenceRtg {
        SequenceRtg::in_memory(RtgConfig {
            batch_size,
            ..RtgConfig::default()
        })
    }

    #[test]
    fn batches_trigger_at_configured_size() {
        let mut p = Pipeline::new(engine(3));
        assert!(p
            .push(LogRecord::new("s", "alpha beta 1"), 1)
            .unwrap()
            .is_none());
        assert!(p
            .push(LogRecord::new("s", "alpha beta 2"), 1)
            .unwrap()
            .is_none());
        let report = p
            .push(LogRecord::new("s", "alpha beta 3"), 1)
            .unwrap()
            .unwrap();
        assert_eq!(report.received, 3);
        assert_eq!(p.batches_run(), 1);
        assert!(p.flush(1).unwrap().is_none(), "the full batch left nothing");
    }

    #[test]
    fn flush_handles_partial_batches() {
        let mut p = Pipeline::new(engine(100));
        p.push(LogRecord::new("s", "only one"), 1).unwrap();
        let report = p.flush(1).unwrap().unwrap();
        assert_eq!(report.received, 1);
        assert!(p.flush(1).unwrap().is_none());

        // Batching never loses coverage: at any batch size, every record
        // pushed ends up matched, analysed or empty, counting the final
        // partial batch that only a flush runs.
        let records: Vec<LogRecord> = (0..24_500)
            .map(|i| {
                let message = match i % 50 {
                    0 => String::new(),
                    k if k % 2 == 0 => format!("worker {i} spawned on node{} in {k} ms", i % 7),
                    k => format!("cache shard {k} evicted {} keys", i % 1000),
                };
                LogRecord::new(format!("svc{}", i % 60), message)
            })
            .collect();
        for batch_size in [1_000, 24_000] {
            let mut p = Pipeline::new(engine(batch_size));
            let mut total = BatchReport::default();
            for r in &records {
                if let Some(report) = p.push(r.clone(), 0).unwrap() {
                    total.merge(&report);
                }
            }
            total.merge(&p.flush(0).unwrap().expect("a partial batch is left"));
            assert_eq!(total.received, records.len() as u64);
            assert!(total.empty_messages > 0 && total.matched_known > 0);
            assert_eq!(
                total.matched_known + total.analyzed + total.empty_messages,
                total.received,
                "batch={batch_size}"
            );
        }
    }

    #[test]
    fn knowledge_carries_across_batches() {
        let mut p = Pipeline::new(engine(2));
        for i in 0..2 {
            p.push(LogRecord::new("s", format!("worker {i} spawned")), 1)
                .unwrap();
        }
        // Second batch: same event shape should parse, not re-analyse.
        p.push(LogRecord::new("s", "worker 77 spawned"), 2).unwrap();
        let report = p
            .push(LogRecord::new("s", "worker 78 spawned"), 2)
            .unwrap()
            .unwrap();
        assert_eq!(report.matched_known, 2);
        assert_eq!(report.new_patterns, 0);
    }
}
