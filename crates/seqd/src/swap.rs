//! The published pattern sets, shared with the CLI: see [`sequence_rtg::swap`].

pub use sequence_rtg::swap::PatternBoard;
