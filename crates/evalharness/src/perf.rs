//! Fig. 5: processing time of `Analyze` vs `AnalyzeByService` as the data
//! set grows.
//!
//! "The tests were run with an empty pattern database, so all records would
//! be sent for analysis. [...] we want to measure the maximum likely running
//! time in this experiment." The datasets "contained an average of 241
//! unique services".

use loghub_synth::{generate_stream, CorpusConfig};
use sequence_rtg::{LogRecord, RtgConfig, SequenceRtg};
use std::collections::HashMap;
use std::time::Instant;

/// One measurement row of the Fig. 5 sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig5Row {
    /// Data set size (records).
    pub size: usize,
    /// Seminal `Analyze` wall time, seconds (single mixed analysis).
    pub analyze_secs: f64,
    /// `AnalyzeByService` wall time, seconds.
    pub analyze_by_service_secs: f64,
    /// Patterns discovered by `AnalyzeByService` (sanity signal).
    pub patterns: u64,
    /// Total analysis-trie nodes allocated by the mixed `Analyze` path —
    /// the quantity the paper blames for the degradation ("the load induced
    /// by having a very large analyser trie to store in memory").
    pub mixed_trie_nodes: usize,
    /// Largest single-service trie allocation under `AnalyzeByService`
    /// (bounded by the biggest service, not the whole batch).
    pub max_service_trie_nodes: usize,
}

/// The Fig. 5 input: a `size`-record composite stream over `services`
/// virtual services.
pub fn fig5_records(size: usize, services: usize, seed: u64) -> Vec<LogRecord> {
    // Copy rather than move the generator's strings: records that own them,
    // scattered among the generator's freed temporaries, made
    // `AnalyzeByService` ≈ 1.4× slower at 100k–500k records (2-vCPU Xeon).
    generate_stream(CorpusConfig {
        services,
        total: size,
        seed,
    })
    .iter()
    .map(|item| LogRecord::new(item.service.as_str(), item.message.as_str()))
    .collect()
}

/// Pre-merge analysis-trie node counts of one batch: the single mixed trie
/// `Analyze` builds over every record, and the largest per-service trie
/// `AnalyzeByService` builds.
pub fn trie_node_counts(records: &[LogRecord]) -> (usize, usize) {
    let analyzer = sequence_core::Analyzer::new();
    let scanner = sequence_core::Scanner::new();
    let mut scanned_all = Vec::with_capacity(records.len());
    let mut by_service: HashMap<&str, Vec<sequence_core::TokenizedMessage>> = HashMap::new();
    for r in records {
        // Node counting never looks at the raw text; skip the copy.
        let t = scanner.scan_parse_only(&r.message);
        by_service
            .entry(r.service.as_str())
            .or_default()
            .push(t.clone());
        scanned_all.push(t);
    }
    let max_service = by_service
        .values()
        .map(|msgs| analyzer.trie_node_count(msgs))
        .max()
        .unwrap_or(0);
    (analyzer.trie_node_count(&scanned_all), max_service)
}

/// Run the Fig. 5 sweep. Every size gets a fresh engine with an empty
/// pattern database, exactly like the paper's setup.
pub fn run_fig5(sizes: &[usize], services: usize, seed: u64) -> Vec<Fig5Row> {
    let mut rows = Vec::with_capacity(sizes.len());
    for &size in sizes {
        let records = fig5_records(size, services, seed);

        let mut seminal = SequenceRtg::in_memory(RtgConfig::seminal());
        let t0 = Instant::now();
        seminal
            .analyze_all(&records, 0)
            .expect("in-memory analysis");
        let analyze_secs = t0.elapsed().as_secs_f64();

        let mut rtg = SequenceRtg::in_memory(RtgConfig::default());
        let t1 = Instant::now();
        let report = rtg
            .analyze_by_service(&records, 0)
            .expect("in-memory analysis");
        let analyze_by_service_secs = t1.elapsed().as_secs_f64();

        let (mixed_trie_nodes, max_service_trie_nodes) = trie_node_counts(&records);
        rows.push(Fig5Row {
            size,
            analyze_secs,
            analyze_by_service_secs,
            patterns: report.new_patterns,
            mixed_trie_nodes,
            max_service_trie_nodes,
        });
    }
    rows
}

/// The default size sweep: scaled from the paper's 0.25M–13.25M range down
/// to laptop-friendly sizes while preserving the growth shape.
pub const DEFAULT_SIZES: [usize; 6] = [10_000, 25_000, 50_000, 100_000, 250_000, 500_000];

/// Render the rows as an aligned text table.
pub fn render_fig5(rows: &[Fig5Row]) -> String {
    let mut out = String::new();
    out.push_str("Fig. 5 — processing time vs data set size (empty pattern database)\n");
    out.push_str(&format!(
        "{:>10} {:>13} {:>19} {:>9} {:>8} {:>13} {:>15}\n",
        "records",
        "Analyze (s)",
        "AnalyzeBySvc (s)",
        "patterns",
        "speedup",
        "mixed trie",
        "max svc trie"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:>10} {:>13.3} {:>19.3} {:>9} {:>8.2} {:>13} {:>15}\n",
            r.size,
            r.analyze_secs,
            r.analyze_by_service_secs,
            r.patterns,
            r.analyze_secs / r.analyze_by_service_secs.max(1e-9),
            r.mixed_trie_nodes,
            r.max_service_trie_nodes,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_sweep_runs_and_counts_patterns() {
        let rows = run_fig5(&[500, 1_000], 24, 1);
        assert_eq!(rows.len(), 2);
        for r in &rows {
            assert!(r.analyze_secs > 0.0 && r.analyze_by_service_secs > 0.0);
            assert!(r.patterns > 10, "found {} patterns", r.patterns);
        }
        let table = render_fig5(&rows);
        assert!(table.contains("AnalyzeBySvc"));
        // Memory accounting: a mixed trie is at least as large as the
        // biggest per-service trie.
        for r in &rows {
            assert!(r.mixed_trie_nodes >= r.max_service_trie_nodes);
            assert!(r.max_service_trie_nodes > 0);
        }
    }
}
