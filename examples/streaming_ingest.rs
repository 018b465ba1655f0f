//! Streaming ingestion: the production shape of Sequence-RTG.
//!
//! A composite JSON stream (one `{"service", "message"}` object per line,
//! exactly what syslog-ng pipes to the tool in the paper's Fig. 6) is
//! ingested in batches; each full batch triggers one `AnalyzeByService` run;
//! knowledge accumulates in the pattern store between batches.
//!
//! ```text
//! cargo run --example streaming_ingest
//! ```

use sequence_rtg_repro::loghub_synth::{generate_stream, to_json_lines, CorpusConfig};
use sequence_rtg_repro::sequence_rtg::{Pipeline, RtgConfig, SequenceRtg, StreamIngester};
use std::io::Cursor;

fn main() {
    // Synthesize a 25k-message stream from 40 services — stands in for
    // `journalctl -o json | sequence-rtg` style input.
    let stream = generate_stream(CorpusConfig {
        services: 40,
        total: 25_000,
        seed: 7,
    });
    let json = to_json_lines(&stream);
    println!("stream: {} JSON lines from 40 services\n", stream.len());

    let config = RtgConfig {
        batch_size: 5_000,
        save_threshold: 0,
        ..RtgConfig::default()
    };
    let mut pipeline = Pipeline::new(SequenceRtg::in_memory(config));

    let mut ingester = StreamIngester::new(Cursor::new(json), config.batch_size);
    let mut batch_no = 0;
    while let Some(batch) = ingester.next_batch().expect("in-memory read") {
        for record in batch {
            if let Some(report) = pipeline.push(record, batch_no).expect("analysis") {
                batch_no += 1;
                println!(
                    "batch {batch_no}: received={:5}  matched-known={:5}  analysed={:5}  new-patterns={:4}",
                    report.received, report.matched_known, report.analyzed, report.new_patterns
                );
            }
        }
    }
    if let Some(report) = pipeline.flush(batch_no).expect("analysis") {
        println!(
            "final  : received={:5}  matched-known={:5}  analysed={:5}  new-patterns={:4}",
            report.received, report.matched_known, report.analyzed, report.new_patterns
        );
    }

    let engine = pipeline.engine_mut();
    println!(
        "\ntotal patterns now known: {}",
        engine.board().total_patterns()
    );
    println!("top services by pattern count:");
    for (service, patterns, matches) in engine
        .store_mut()
        .service_summary()
        .unwrap()
        .into_iter()
        .take(8)
    {
        println!("  {service:<20} {patterns:3} patterns, {matches:6} messages covered");
    }
    println!("\nnote how later batches match far more messages than the first —");
    println!("the pattern store carries knowledge across batches (paper limitation 2).");
}
