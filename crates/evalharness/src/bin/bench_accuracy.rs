//! `bench-accuracy` — score Sequence-RTG and the four
//! baselines on scaled-down fixed-seed LogHub-2.0 corpora, one JSON line
//! per (family, tool) cell.
//!
//! ```text
//! bench-accuracy [--lines N] [--seed S] [--families A,B,C]
//!                [--variant preprocessed|content|raw] [--out PATH]
//! ```
//!
//! Defaults reproduce the recorded `results/BENCH_accuracy.json`
//! (`--lines 2000 --seed 20210906 --variant preprocessed`, all 14
//! families). `ci.sh` runs this binary live and gates the per-family
//! `sequence-rtg` grouping accuracy, split lines and merged lines against
//! the frozen `results/BENCH_accuracy.baseline.json`. `--variant` feeds
//! every tool the unmasked content or the raw lines (header included)
//! instead. Each tool's stderr line names its five most-split templates
//! and their pattern counts.

use evalharness::harness::{render_json, score_dataset};
use evalharness::Variant;
use loghub_synth::loghub2::{self, LOGHUB2_FAMILIES};
use sequence_rtg::RtgConfig;

const USAGE: &str = "usage: bench-accuracy [--lines N] [--seed S] [--families A,B,C] \
                     [--variant preprocessed|content|raw] [--out PATH]";

fn main() {
    let mut lines_n = evalharness::DATASET_LINES;
    let mut seed = evalharness::DEFAULT_SEED;
    let mut out: Option<String> = None;
    let mut families: Vec<String> = LOGHUB2_FAMILIES.iter().map(|s| s.to_string()).collect();
    let mut variant = Variant::Preprocessed;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .unwrap_or_else(|| panic!("{name} requires a value"))
        };
        match arg.as_str() {
            "--lines" => lines_n = value("--lines").parse().expect("--lines: integer"),
            "--seed" => seed = value("--seed").parse().expect("--seed: integer"),
            "--out" => out = Some(value("--out")),
            "--variant" => {
                variant = match value("--variant").as_str() {
                    "preprocessed" => Variant::Preprocessed,
                    "content" => Variant::Content,
                    "raw" => Variant::Raw,
                    other => {
                        eprintln!("unknown variant {other}\n{USAGE}");
                        std::process::exit(2);
                    }
                }
            }
            "--families" => {
                families = value("--families")
                    .split(',')
                    .map(|s| s.trim().to_string())
                    .filter(|s| !s.is_empty())
                    .collect();
            }
            other => {
                eprintln!("unknown argument {other}\n{USAGE}");
                std::process::exit(2);
            }
        }
    }

    let mut rows = Vec::new();
    for family in &families {
        eprintln!("scoring {family} ({lines_n} {variant:?} lines, seed {seed})...");
        let dataset = loghub2::dataset(family, lines_n, seed);
        let family_rows = score_dataset(&dataset, variant, RtgConfig::default());
        for r in &family_rows {
            let worst: Vec<String> = r
                .worst_templates
                .iter()
                .map(|(t, n)| format!("{t}:{n}"))
                .collect();
            eprintln!(
                "  {:<20} GA {:.4}  F1 {:.4}  groups {:>4}  split {:>4}  merged {:>4}  \
                 ppt {:.3} (max {:>3}; {})  {:>8.1} ms",
                r.tool,
                r.grouping_accuracy,
                r.template.f1,
                r.found_groups,
                r.split_lines,
                r.merged_lines,
                r.patterns_per_template,
                r.max_patterns_per_template,
                worst.join(" "),
                r.elapsed_ms
            );
        }
        rows.extend(family_rows);
    }

    let json = render_json(&rows, lines_n, seed);
    match out {
        Some(path) => {
            std::fs::write(&path, &json).expect("write output file");
            eprintln!("wrote {} rows to {path}", rows.len());
        }
        None => print!("{json}"),
    }
}
