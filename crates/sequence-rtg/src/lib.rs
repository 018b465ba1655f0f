//! # sequence-rtg
//!
//! The paper's contribution: **Sequence-RTG** (Sequence-Ready-To-Go), a
//! production-ready, efficient pattern-mining tool for system log messages,
//! built on the `sequence-core` re-implementation of the seminal Sequence
//! framework.
//!
//! The six limitations of Sequence the paper addresses, and where each fix
//! lives:
//!
//! 1. **Single-file input** → [`ingest::StreamIngester`] + [`record`]: a
//!    stream of composite JSON records (`{"service", "message"}`) with
//!    configurable batch size.
//! 2. **Flat-file pattern output** → the [`patterndb`] crate: a SQL-backed
//!    persistent pattern store with SHA1 ids, statistics and examples.
//! 3. **Whitespace inserted between tokens** → `is_space_before` in
//!    `sequence-core` and exact-spacing pattern reconstruction.
//! 4. **Too many variables** → analyser quality control (demoting
//!    never-varying variables), enabled by default in [`RtgConfig`].
//! 5. **Unbounded analysis tries** → [`SequenceRtg::analyze_by_service`]:
//!    partition by service, parse known messages first, partition the rest
//!    by token count, and bound everything by the batch size.
//! 6. **Multi-line messages** → first-line truncation + `%...%` ignore-rest
//!    markers, counted per batch in [`BatchReport`].
//!
//! Extensions implemented from the paper's future-work list: a path FSM and
//! single-digit time parts, on in the default scanner
//! (`ScannerOptions::paper()` is the published one). Beyond the paper, the
//! default analyser keeps up to eight distinct leading words apart and
//! folds every digit-bearing word at a position into one trie node, so a
//! template is not mined once per value of such a word
//! (`AnalyzerOptions::paper()` does neither, as published). The §VI
//! semi-constant splitting is not built: the leading-word rule fixes the
//! over-merge it targeted without lowering any other family.
//!
//! The paper scales out by "sending groups of services to any number (of)
//! instances". This crate analyses one batch on one thread; the `seqd`
//! daemon is where services are spread over shards and mined in parallel.
//!
//! ```
//! use sequence_rtg::{LogRecord, RtgConfig, SequenceRtg};
//!
//! let mut rtg = SequenceRtg::in_memory(RtgConfig::default());
//! let batch: Vec<LogRecord> = [
//!     "Accepted password for root from 10.2.3.4 port 22 ssh2",
//!     "Accepted password for admin from 10.9.9.9 port 2200 ssh2",
//!     "Accepted password for guest from 172.16.0.5 port 22022 ssh2",
//! ].iter().map(|m| LogRecord::new("sshd", *m)).collect();
//!
//! let report = rtg.analyze_by_service(&batch, 1_630_000_000).unwrap();
//! assert_eq!(report.new_patterns, 1);
//!
//! // The next batch parses against the stored pattern instead of re-mining.
//! let next = vec![LogRecord::new("sshd",
//!     "Accepted password for eve from 203.0.113.9 port 4022 ssh2")];
//! let report = rtg.analyze_by_service(&next, 1_630_000_060).unwrap();
//! assert_eq!(report.matched_known, 1);
//! ```

#![warn(missing_docs)]

pub mod analyze_by_service;
pub mod batch;
pub mod config;
pub mod ingest;
pub mod pipeline;
pub mod record;
pub mod service;
pub mod swap;

pub use analyze_by_service::{BatchReport, SequenceRtg};
pub use batch::{now_unix, publish, Arrival, Mining, OpenBatch};
pub use config::RtgConfig;
pub use ingest::{IngestStats, StreamIngester};
pub use pipeline::Pipeline;
pub use record::{LogRecord, RecordError};
pub use service::{
    commit_plans, commit_service, plan_service, unloaded_notice, CommitOutcome, ServicePlan,
};
pub use swap::PatternBoard;
