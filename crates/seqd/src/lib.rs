//! # seqd — the Sequence-RTG streaming daemon
//!
//! The paper frames Sequence-RTG as "production-ready": a service that sits
//! on the log stream, parses what it knows, and periodically re-mines what it
//! doesn't ("Run-Time Generation"). The batch pipeline in `sequence-rtg`
//! covers the algorithmic half; this crate is the operational half — a
//! long-running daemon built entirely from `std` and the in-tree crates:
//!
//! * **Wire protocol** ([`eventloop`], [`loadgen`]): NDJSON ingest over TCP
//!   with a single JSON receipt line; no per-record acks. One readiness
//!   event loop serves it; [`protocol`] holds the receipt type and the
//!   framing reference the tests compare the event loop against.
//! * **Control plane** ([`http`], [`server`]): a minimal HTTP/1.1 server
//!   exposing `/healthz`, `/stats`, `/metrics` (Prometheus text),
//!   `/patterns`, `/debug/slow`, `/debug/memory` and `POST /shutdown`,
//!   sharing the ingest port via first-bytes protocol sniffing.
//! * **Memory** ([`memory`]): the binary's one allocator setting (glibc's
//!   mmap threshold, pinned) and the `/debug/memory` report of who holds
//!   the heap.
//! * **Sharded matching** ([`shard`], [`queue`]): an acceptor routes records
//!   to per-service-shard workers through bounded queues; backpressure is
//!   block-with-timeout then *reject and count*, never unbounded buffering.
//! * **Lock-free serving** ([`swap`]): workers match against atomically
//!   published `Arc<PatternSet>` snapshots; re-mining builds the next set off
//!   to the side and swaps the pointer, so readers never block on mining.
//! * **Observability** ([`metrics`]): one relaxed-atomic counter struct
//!   per daemon ([`Ops`]), on which the core invariant
//!   `ingested = matched + unmatched + rejected + malformed` is checked
//!   after a drain. Each request reads one `metrics::Snapshot`;
//!   `metrics::SERIES` declares every daemon series once (name, help,
//!   type, per-shard label, `/stats` key), `/metrics` writes it through
//!   `obs`'s Prometheus writer before the registry's stage histograms, and
//!   `/stats` renders the same snapshot under the same keys.
//! * **Durability** ([`wal`]): a per-shard ingest write-ahead log, on
//!   whenever the store is persistent.
//!   Accepted records are appended (fsync-batched) before the NDJSON
//!   receipt is written, released after their residue flush commits, and
//!   replayed into the shard workers on start — so a `kill -9` between
//!   receipt and flush loses nothing (at-least-once; see `DESIGN.md` §8).
//!
//! ```no_run
//! use patterndb::PatternStore;
//! use seqd::server::{start, SeqdConfig};
//!
//! let handle = start(PatternStore::in_memory(), SeqdConfig::default(), "127.0.0.1:0")?;
//! println!("listening on {}", handle.addr());
//! // ... stream NDJSON at it, curl /metrics ...
//! handle.initiate_shutdown();
//! let finals = handle.join()?; // drains, re-mines residue, checkpoints
//! assert!(finals.reconciles());
//! # Ok::<(), std::io::Error>(())
//! ```

#![warn(missing_docs)]

pub mod eventloop;
pub mod http;
pub mod loadgen;
pub mod memory;
pub mod metrics;
pub mod miner;
pub mod poll;
pub mod protocol;
pub mod queue;
pub mod ringbuf;
pub mod server;
pub mod shard;
pub mod swap;
pub mod wal;

pub use metrics::{Ops, OpsSnapshot};
pub use protocol::IngestSummary;
pub use server::{start, SeqdConfig, SeqdHandle};
