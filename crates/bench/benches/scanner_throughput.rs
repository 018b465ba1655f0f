//! Micro-benchmark: single-pass scanner throughput.
//!
//! The paper attributes Sequence's speed to its scanner: "thanks to these
//! state machines, Sequence can process messages in a single pass which
//! makes it incredibly fast". This bench measures messages/second over a
//! representative mix (timestamps, IPs, MACs, key/value fields, URLs,
//! multi-line messages).

use loghub_synth::{generate, DATASET_NAMES};
use sequence_core::{Scanner, TokenizedMessage};
use std::hint::black_box;
use testkit::bench::{criterion_group, Criterion, Throughput};

fn corpus() -> Vec<String> {
    let mut v = Vec::new();
    for name in DATASET_NAMES {
        for line in generate(name, 200, 99).lines {
            v.push(line.raw);
        }
    }
    v
}

fn bench_scanner(c: &mut Criterion) {
    let messages = corpus();
    let total_bytes: usize = messages.iter().map(|m| m.len()).sum();
    let mut group = c.benchmark_group("scanner");
    group.throughput(Throughput::Bytes(total_bytes as u64));

    let default = Scanner::new();
    group.bench_function("default_options", |b| {
        b.iter(|| {
            let mut tokens = 0usize;
            for m in &messages {
                tokens += default.scan(black_box(m)).tokens.len();
            }
            tokens
        })
    });

    // The allocation-lean hot-path variants: no raw copy, and (for
    // `scan_into_reuse`) one token buffer reused across the whole stream —
    // the shape parse-only consumers like `LogSink::ingest` use.
    group.bench_function("parse_only", |b| {
        b.iter(|| {
            let mut tokens = 0usize;
            for m in &messages {
                tokens += default.scan_parse_only(black_box(m)).tokens.len();
            }
            tokens
        })
    });
    group.bench_function("scan_into_reuse", |b| {
        let mut out = TokenizedMessage::default();
        b.iter(|| {
            let mut tokens = 0usize;
            for m in &messages {
                default.scan_into(black_box(m), &mut out);
                tokens += out.tokens.len();
            }
            tokens
        })
    });
    group.finish();
}

criterion_group!(benches, bench_scanner);

fn main() {
    let mut c = Criterion::from_args();
    benches(&mut c);
    c.final_summary();
    if !Criterion::json_redirected() {
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../results/BENCH_scanner.json"
        );
        match c.write_json(path) {
            Ok(()) => println!("wrote {path}"),
            Err(e) => eprintln!("{path}: write failed: {e}"),
        }
    }
}
