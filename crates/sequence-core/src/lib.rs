//! # sequence-core
//!
//! A Rust re-implementation of the **Sequence** high-performance log analyser
//! and parser — the framework that *Sequence-RTG: Efficient and
//! Production-Ready Pattern Mining in System Log Messages* (HPCMASPA /
//! IEEE CLUSTER 2021) extends. This crate covers the three pattern-mining
//! steps the paper describes:
//!
//! 1. **Tokenisation** ([`scanner`]): a single-pass scanner built from three
//!    finite state machines (datetime, hexadecimal, general text/number) that
//!    needs no prior knowledge of the message structure and no regular
//!    expressions. Scan-time token types: time, IPv4, IPv6, MAC address,
//!    integer, float, URL, literal (plus hex strings, and — as an implemented
//!    future-work extension, on by default — filesystem paths).
//! 2. **Analysis** ([`analyzer`]): a trie over token sequences; tokens at the
//!    same level that share the same parent and child nodes are merged into
//!    variable placeholders, yielding patterns. Key/value pairs, email
//!    addresses and host names are detected during analysis.
//! 3. **Parsing** ([`parser`]): matching new messages against the known
//!    pattern set, through a compiled discrimination-trie index
//!    ([`matcher`]) so the per-message cost scales with token count, not
//!    pattern count.
//!
//! Sequence-RTG-specific behaviour implemented at this layer:
//!
//! * the `is_space_before` token property and exact-spacing pattern
//!   reconstruction (limitation 3 of the paper);
//! * multi-line truncation with an "ignore rest" pattern marker
//!   (limitation 6);
//! * analysis-time quality control that demotes never-varying variables
//!   (limitation 4).
//!
//! Two departures from the published analyser, on under
//! [`AnalyzerOptions::default`] and off under [`AnalyzerOptions::paper`]:
//! up to eight distinct leading words stay apart, and every digit-bearing
//! word at a position shares one trie node (Drain's `has_digits` routing),
//! so a template is one pattern rather than one per value of such a word,
//! and the trie stays small on high-cardinality input (limitation 5).
//!
//! The stream ingester, the persistent pattern database, `AnalyzeByService`
//! and the exporters live in the `sequence-rtg` and `patterndb` crates.
//!
//! ## Quick example
//!
//! ```
//! use sequence_core::{Analyzer, Scanner};
//!
//! let scanner = Scanner::new();
//! let batch: Vec<_> = [
//!     "Accepted password for root from 10.2.3.4 port 22 ssh2",
//!     "Accepted password for admin from 10.9.9.9 port 2200 ssh2",
//!     "Accepted password for guest from 172.16.0.5 port 22022 ssh2",
//! ]
//! .iter()
//! .map(|m| scanner.scan(m))
//! .collect();
//!
//! let patterns = Analyzer::new().analyze(&batch);
//! assert_eq!(patterns.len(), 1);
//! assert_eq!(
//!     patterns[0].pattern.render(),
//!     "Accepted password for %object% from %srcip:ipv4% port %port:integer% ssh2",
//! );
//! ```

#![warn(missing_docs)]

pub mod analyzer;
pub mod matcher;
pub mod parser;
pub mod pattern;
pub mod scanner;
pub mod text;
pub mod token;

pub use analyzer::{Analyzer, AnalyzerOptions, DiscoveredPattern};
pub use matcher::MatchScratch;
pub use parser::{ParseOutcome, PatternSet};
pub use pattern::{Captures, Pattern, PatternElement, PatternParseError};
pub use scanner::{Scanner, ScannerOptions};
pub use text::TokenText;
pub use token::{Token, TokenType, TokenizedMessage};
