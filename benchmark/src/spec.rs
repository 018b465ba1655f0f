//! The names this benchmark reports, with their units. `BENCHMARK.json` lists
//! the same names, units and bounds (a unit test compares the two) and adds
//! which direction is better; later issues cite these names.

/// End-to-end metrics, the same five on every workload:
/// `(name, unit, bound)`. The bound is the share of the parent's median by
/// which a change may worsen the metric.
pub const END_TO_END: [(&str, &str, f64); 5] = [
    ("peak_rss_mb", "MiB", 0.10),
    ("ok_share", "share", 0.001),
    ("grouping_accuracy", "share", 0.02),
    ("patterns_per_template", "ratio", 0.05),
    ("setup_s", "s", 0.10),
];

/// The two timings ISSUE 13 listed end to end, with the bounds it fixed for
/// them. On the review host the same code does not repeat within those
/// bounds, so by the issue's rule 7 they are per-layer metrics (no bound);
/// `seqbench calib` keeps showing how far off they are.
pub const DEMOTED: [(&str, f64); 2] = [
    ("window.e2e_lines_per_s", 0.08),
    ("window.cpu_s_per_mline", 0.06),
];

/// Metrics whose two calibration sets are compared by absolute difference:
/// shares near 1, for which ISSUE 13 fixed absolute bounds.
pub const ABSOLUTE: [&str; 2] = ["ok_share", "grouping_accuracy"];

/// Per-layer metrics of the traced run: `(name, unit)`. A metric a
/// workload has no layer for (the WAL on `batch_cli`, the export on a
/// daemon) is reported as 0 there.
pub const PER_LAYER: [(&str, &str); 51] = [
    ("window.e2e_lines_per_s", "1/s"),
    ("window.cpu_s_per_mline", "s"),
    ("window.seconds", "s"),
    ("gen.window_wait_share", "share"),
    ("gen.poll_share", "share"),
    ("gen.starved_poll_share", "share"),
    ("gen.send_mb_per_s", "MB/s"),
    ("ringbuf.frame_split_ns_per_line", "ns"),
    ("jsonlite.parse_ns_per_line", "ns"),
    ("queue.pop_ns_per_line", "ns"),
    ("wal.append_route_ns_per_line", "ns"),
    ("wal.release_ns_per_line", "ns"),
    ("wal.sync_ms_p50", "ms"),
    ("wal.syncs", "count"),
    ("wal.bytes_per_line", "B"),
    ("wal.release_ms_p50", "ms"),
    ("scanner.scan_ns_per_line", "ns"),
    ("scanner.mb_per_s", "MB/s"),
    ("scanner.tokens_per_line", "count"),
    ("matcher.match_ns_per_line", "ns"),
    ("matcher.set_patterns", "count"),
    ("matcher.hit_share", "share"),
    ("analyzer.analyze_ns_per_line", "ns"),
    ("miner.plan_ms_per_batch", "ms"),
    ("miner.commit_ms_per_batch", "ms"),
    ("miner.ns_per_line", "ns"),
    ("miner.batches", "count"),
    ("miner.lines_mined_share", "share"),
    ("patterndb.txn_ms_p50", "ms"),
    ("patterndb.checkpoint_s", "s"),
    ("patterndb.store_mb", "MiB"),
    ("patterndb.export_s", "s"),
    ("patterndb.export_patterns", "count"),
    ("cli.mine_s", "s"),
    ("cli.batches", "count"),
    ("cli.ingest_ns_per_line", "ns"),
    ("cli.pipeline_ns_per_line", "ns"),
    ("swap.publishes", "count"),
    ("seqd.remine_runs", "count"),
    ("seqd.matched", "count"),
    ("seqd.unmatched", "count"),
    ("seqd.rejected", "count"),
    ("seqd.queue_wait_ms_p50", "ms"),
    ("seqd.restart_s", "s"),
    ("budget.sum_ns_per_line", "ns"),
    ("budget.coverage", "ratio"),
    ("trace.overhead_share", "share"),
    ("quality.sample_matched_share", "share"),
    ("quality.patterns", "count"),
    ("quality.unparseable_patterns", "count"),
    ("quality.templates_seen", "count"),
];
