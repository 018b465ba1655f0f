//! # evalharness
//!
//! One accuracy scorer ([`harness`]) and the experiment binaries that
//! regenerate the Sequence-RTG paper's evaluation (§IV):
//!
//! | Paper artefact | Module / binary |
//! |---|---|
//! | Table II (accuracy, pre-processed + raw vs best) and Table III (AEL / IPLoM / Spell / Drain) | [`harness`], `cargo run --release -p evalharness --bin paper-tables` |
//! | Fig. 5 (Analyze vs AnalyzeByService time, trie nodes) | [`perf`], `--bin fig5` |
//! | Fig. 7 (unmatched-ratio evolution over 60 days) | [`production`], `--bin fig7` |
//! | LogHub-2.0 accuracy floor (this reproduction's addition) | [`harness`], `--bin bench-accuracy` |
//!
//! The binaries print; the paper's shape claims are asserted by the
//! workspace's `tests/paper_claims.rs` from the same functions. Metrics are
//! in [`accuracy`]; the corpora are the synthetic LogHub stand-ins from
//! `loghub-synth`; published reference values are embedded in
//! [`runner::paper`] so each binary prints paper-vs-measured side by side.

#![warn(missing_docs)]

pub mod accuracy;
pub mod harness;
pub mod perf;
pub mod production;
pub mod runner;

pub use runner::Variant;

/// The number of lines per accuracy dataset (matching LogHub's 2k samples).
pub const DATASET_LINES: usize = 2000;

/// The seed used by the experiment binaries (fixed for reproducibility).
pub const DEFAULT_SEED: u64 = 20210906;
