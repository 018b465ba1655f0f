//! Umbrella crate for the Sequence-RTG reproduction workspace.
//!
//! This crate re-exports the member crates so that examples and integration
//! tests can use a single import root. The real functionality lives in the
//! `crates/` members; see `DESIGN.md` for the system inventory.

pub use baselines;
pub use evalharness;
pub use jsonlite;
pub use loghub_synth;
pub use minisql;
pub use obs;
pub use patterndb;
pub use seqd;
pub use sequence_core;
pub use sequence_rtg;
