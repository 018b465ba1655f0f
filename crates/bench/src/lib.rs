//! Bench crate: all content lives in `benches/` — `scanner_throughput` and
//! `parser_throughput`, the two per-message hot paths (DESIGN.md §3).
