//! `paper-tables` — regenerate Tables II and III on the 16 synthetic
//! LogHub stand-ins, with the paper's published values alongside.
//!
//! ```text
//! paper-tables
//! ```
//!
//! One pass scores every tool on every dataset: [`score_dataset`] on the
//! pre-processed variant plus Sequence-RTG alone, with the published
//! scanner ([`ScannerOptions::paper`]), on the raw one. Sequence-RTG runs
//! the published analyser ([`AnalyzerOptions::paper`]) throughout. Table
//! II reads Sequence-RTG's mapping accuracy and the best baseline's group
//! accuracy from those rows, Table III the four baselines' group accuracy.
//! The shape claims both tables support are asserted by
//! `tests/paper_claims.rs`.

use evalharness::harness::{score_dataset, score_rtg, FamilyAccuracy};
use evalharness::runner::{paper, Variant};
use evalharness::{DATASET_LINES, DEFAULT_SEED};
use loghub_synth::{generate, DATASET_NAMES};
use sequence_core::{AnalyzerOptions, ScannerOptions};
use sequence_rtg::RtgConfig;

fn main() {
    if let Some(arg) = std::env::args().nth(1) {
        eprintln!("unknown argument {arg}\nusage: paper-tables");
        std::process::exit(2);
    }
    let paper_scanner = RtgConfig {
        scanner: ScannerOptions::paper(),
        ..paper_analyser()
    };
    let mut preprocessed = Vec::with_capacity(DATASET_NAMES.len());
    let mut raw = Vec::with_capacity(DATASET_NAMES.len());
    for name in DATASET_NAMES {
        let d = generate(name, DATASET_LINES, DEFAULT_SEED);
        preprocessed.push(score_dataset(&d, Variant::Preprocessed, paper_analyser()));
        raw.push(score_rtg(&d, Variant::Raw, paper_scanner).mapping_accuracy);
    }
    print_table2(&preprocessed, &raw);
    print_table3(&preprocessed);
}

/// The default scanner with the published analyser.
fn paper_analyser() -> RtgConfig {
    RtgConfig {
        analyzer: AnalyzerOptions::paper(),
        ..RtgConfig::default()
    }
}

fn print_table2(preprocessed: &[Vec<FamilyAccuracy>], raw: &[f64]) {
    println!("Table II — Sequence-RTG parser accuracy (synthetic LogHub stand-ins)");
    println!("Columns: measured on this corpus | (paper's published values in parentheses)\n");
    println!("Dataset          Pre-proc          Raw        Best*   paper (pre, raw, best)");
    let mut sums = [0.0f64; 3];
    for ((rows, &raw), (name, ppre, praw, pbest)) in preprocessed.iter().zip(raw).zip(paper::TABLE2)
    {
        let pre = rows[0].mapping_accuracy;
        let best = rows[1..]
            .iter()
            .map(|r| r.grouping_accuracy)
            .fold(0.0, f64::max);
        for (sum, value) in sums.iter_mut().zip([pre, raw, best]) {
            *sum += value;
        }
        let flag = if pre >= best { "*" } else { " " };
        println!("{name:<12} {pre:>11.3}{flag} {raw:>12.3} {best:>12.3}   ({ppre:.3}, {praw:.3}, {pbest:.3})");
    }
    let [pre, raw_avg, best] = sums.map(|s| s / DATASET_NAMES.len() as f64);
    let (ppre, praw, pbest) = paper::TABLE2_AVG;
    println!("Average      {pre:>12.3} {raw_avg:>12.3} {best:>12.3}   ({ppre:.3}, {praw:.3}, {pbest:.3})");
    println!("\n* Best = best of our four baseline implementations (AEL, IPLoM, Spell, Drain)");
    println!("  on the pre-processed variant; the paper's Best is the best of 13 parsers.");
    println!("  A '*' after the pre-processed score marks datasets where Sequence-RTG");
    println!("  equals or beats the best baseline (the paper reports 8 of 16).");

    // The paper's future-work scanner fixes, on in the default scanner:
    // single-digit time parts (and the path FSM) recover the HealthApp
    // raw-log failure. Proxifier's integer/literal type flip is a different
    // limitation they leave flat.
    println!("\nFuture-work scanner fixes on the failing datasets (raw logs):");
    println!("Dataset      paper scanner  default scanner   (single-digit time parts + path FSM)");
    for name in ["HealthApp", "Proxifier"] {
        let index = DATASET_NAMES.iter().position(|n| *n == name);
        let paper = raw[index.expect("a Table II dataset")];
        let d = generate(name, DATASET_LINES, DEFAULT_SEED);
        let fixed = score_rtg(&d, Variant::Raw, paper_analyser()).mapping_accuracy;
        println!("{name:<12} {paper:>13.3} {fixed:>16.3}");
    }
}

fn print_table3(preprocessed: &[Vec<FamilyAccuracy>]) {
    println!("Table III — baseline parser accuracy on pre-processed data");
    println!("Measured on this synthetic corpus | (published values in parentheses)\n");
    println!("Dataset           AEL    IPLoM    Spell    Drain   paper (AEL, IPLoM, Spell, Drain)");
    let mut sums = [0.0f64; 4];
    for (rows, (name, p1, p2, p3, p4)) in preprocessed.iter().zip(paper::TABLE3) {
        let [a1, a2, a3, a4] = [1, 2, 3, 4].map(|tool| rows[tool].grouping_accuracy);
        for (sum, value) in sums.iter_mut().zip([a1, a2, a3, a4]) {
            *sum += value;
        }
        println!("{name:<12} {a1:>8.3} {a2:>8.3} {a3:>8.3} {a4:>8.3}   ({p1:.3}, {p2:.3}, {p3:.3}, {p4:.3})");
    }
    let [a1, a2, a3, a4] = sums.map(|s| s / DATASET_NAMES.len() as f64);
    let (p1, p2, p3, p4) = paper::TABLE3_AVG;
    println!("Average      {a1:>8.3} {a2:>8.3} {a3:>8.3} {a4:>8.3}   ({p1:.3}, {p2:.3}, {p3:.3}, {p4:.3})");
}
