//! # testkit
//!
//! The workspace's hermetic test toolkit. Everything the repo previously
//! pulled from crates.io for testing and benchmarking lives here, written
//! against `std` only, so `cargo build && cargo test` succeed with zero
//! network access (DESIGN.md, "Hermetic-build policy"):
//!
//! * [`rng`] — a deterministic, seedable xoshiro256\*\* PRNG (SplitMix64
//!   seeding) with the small surface the repo actually uses (`gen_range`,
//!   `gen_bool`, `shuffle`, `choose`, raw words). Replaces `rand`.
//! * [`prop`] — a minimal property-testing runner: seeded case generation,
//!   failure shrinking for integers, vectors and strings, and persisted
//!   regression seeds compatible with proptest's
//!   `proptest-regressions/*.txt` files. Replaces `proptest`.
//! * [`fault`] — deterministic fault injection: seeded [`fault::FaultSchedule`]
//!   decision streams, [`fault::FaultyStream`] `Read`/`Write` wrappers
//!   (short reads/writes, `Interrupted`, `WouldBlock`, resets), and the
//!   [`fault::FailingStore`] hook adapter for storage-layer failures.
//! * [`bench`] — a warm-up + calibrated-iteration timer with median/p95
//!   reporting behind a criterion-compatible facade (`Criterion`,
//!   `BenchmarkId`, `Throughput`, `criterion_group!`),
//!   so the bench names/IDs of `crates/bench` stay stable. Replaces
//!   `criterion`.
//! * [`alloc`] — a counting `#[global_allocator]` wrapper so golden tests
//!   can pin "this hot path performs zero heap allocations" against real
//!   allocator traffic instead of code review.
//!
//! Determinism is the point: every generator is seeded, the default
//! property-test seed is fixed (override with `TESTKIT_PROP_SEED`), and the
//! synthetic corpora built on [`rng::Rng`] are reproducible byte for byte.

#![warn(missing_docs)]

pub mod alloc;
pub mod bench;
pub mod fault;
pub mod prop;
pub mod rng;

pub use rng::Rng;
