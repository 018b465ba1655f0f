//! The LogHub-2.0 accuracy harness: per-family scoring of Sequence-RTG
//! against the four in-tree baselines, over the statistically faithful
//! [`loghub_synth::loghub2`] corpora.
//!
//! Where [`crate::runner`] reproduces the paper's own Tables II/III on the
//! 2k-line LogHub samples, this module is the forward-looking quality
//! floor: every tool is scored on every one of the 14 LogHub-2.0 families
//! with grouping accuracy *and* template-level precision/recall/F1, the
//! rows are emitted as `results/BENCH_accuracy.json`, and `ci.sh` gates
//! Sequence-RTG's grouping accuracy against the frozen baseline.
//!
//! All tools are fed the same pre-processed variant (Zhu et al.'s masking),
//! so the comparison isolates grouping quality from masking quality.

use crate::accuracy::{group_accuracy, mapping_accuracy, template_prf, TemplateScore};
use crate::runner::{truth_labels, variant_lines, Variant};
use loghub_synth::loghub2;
use loghub_synth::Dataset;
use sequence_rtg::RtgConfig;
use std::collections::HashSet;
use std::time::Instant;

/// Tool order of a family's result rows: Sequence-RTG, then the baselines
/// in [`baselines::all_parsers`] order.
pub const TOOL_COUNT: usize = 5;

/// One scored (family, tool) cell.
#[derive(Debug, Clone)]
pub struct FamilyAccuracy {
    /// LogHub-2.0 family name.
    pub family: &'static str,
    /// Tool under test (`sequence-rtg`, `ael`, `iplom`, `spell`, `drain`).
    pub tool: &'static str,
    /// Scored corpus size in lines.
    pub lines: usize,
    /// Template count of the family's generator catalog.
    pub catalog_templates: usize,
    /// Distinct ground-truth events that actually appear in the sample.
    pub observed_events: usize,
    /// Distinct groups the tool produced.
    pub found_groups: usize,
    /// Strict group accuracy (Zhu et al.).
    pub grouping_accuracy: f64,
    /// Greedy one-to-one mapping accuracy (the paper's Table II metric).
    pub mapping_accuracy: f64,
    /// Template-level precision/recall/F1.
    pub template: TemplateScore,
    /// Wall-clock scoring time for this cell, milliseconds.
    pub elapsed_ms: f64,
}

/// Score one tool's assignment vector against a dataset's ground truth.
fn score(
    family: &'static str,
    tool: &'static str,
    dataset: &Dataset,
    assignments: &[String],
    elapsed_ms: f64,
) -> FamilyAccuracy {
    let truth = truth_labels(dataset);
    let found: HashSet<&String> = assignments.iter().collect();
    let observed: HashSet<&&str> = truth.iter().collect();
    FamilyAccuracy {
        family,
        tool,
        lines: dataset.lines.len(),
        catalog_templates: dataset.event_count,
        observed_events: observed.len(),
        found_groups: found.len(),
        grouping_accuracy: group_accuracy(assignments, &truth),
        mapping_accuracy: mapping_accuracy(assignments, &truth),
        template: template_prf(assignments, &truth),
        elapsed_ms,
    }
}

/// Score all five tools on one LogHub-2.0 family: a scaled-down fixed-seed
/// corpus of `lines` lines, pre-processed variant for every tool.
pub fn score_family(family: &str, lines_n: usize, seed: u64) -> Vec<FamilyAccuracy> {
    let dataset = loghub2::dataset(family, lines_n, seed);
    let family: &'static str = dataset.name;
    let lines = variant_lines(&dataset, Variant::Preprocessed);
    let config = RtgConfig::default();
    let mut rows = Vec::with_capacity(TOOL_COUNT);

    let t0 = Instant::now();
    let batch = crate::runner::rtg_assignments(&dataset, Variant::Preprocessed, config);
    rows.push(score(
        family,
        "sequence-rtg",
        &dataset,
        &batch,
        t0.elapsed().as_secs_f64() * 1e3,
    ));

    for parser in baselines::all_parsers() {
        let t0 = Instant::now();
        let result = parser.parse_batch(&lines);
        let assignments: Vec<String> = result.assignments.iter().map(|a| a.to_string()).collect();
        rows.push(score(
            family,
            baseline_tool_name(parser.name()),
            &dataset,
            &assignments,
            t0.elapsed().as_secs_f64() * 1e3,
        ));
    }
    rows
}

/// Canonical lowercase tool slug for a baseline parser.
fn baseline_tool_name(name: &str) -> &'static str {
    match name {
        "AEL" => "ael",
        "IPLoM" => "iplom",
        "Spell" => "spell",
        "Drain" => "drain",
        other => panic!("unknown baseline parser {other}"),
    }
}

/// Score every family (or a subset) and return all rows in family-major,
/// tool-minor order.
pub fn score_families(families: &[&str], lines_n: usize, seed: u64) -> Vec<FamilyAccuracy> {
    let mut rows = Vec::with_capacity(families.len() * TOOL_COUNT);
    for family in families {
        rows.extend(score_family(family, lines_n, seed));
    }
    rows
}

/// Render result rows in the repo's flat JSON-lines format (one object per
/// line, fixed field order, sed-extractable — same conventions as
/// `results/BENCH_parser.json`).
pub fn render_json(rows: &[FamilyAccuracy], lines_n: usize, seed: u64) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{{\"suite\":\"loghub2-accuracy\",\"lines_per_family\":{lines_n},\"seed\":{seed}}}\n"
    ));
    for r in rows {
        out.push_str(&format!(
            "{{\"id\":\"accuracy/{family}/{tool}\",\"family\":\"{family}\",\"tool\":\"{tool}\",\
             \"lines\":{lines},\"catalog_templates\":{cat},\"observed_events\":{obs},\
             \"found_groups\":{found},\"grouping_accuracy\":{ga:.4},\
             \"mapping_accuracy\":{ma:.4},\"precision\":{p:.4},\"recall\":{rc:.4},\
             \"f1\":{f1:.4},\"elapsed_ms\":{ms:.1}}}\n",
            family = r.family,
            tool = r.tool,
            lines = r.lines,
            cat = r.catalog_templates,
            obs = r.observed_events,
            found = r.found_groups,
            ga = r.grouping_accuracy,
            ma = r.mapping_accuracy,
            p = r.template.precision,
            rc = r.template.recall,
            f1 = r.template.f1,
            ms = r.elapsed_ms,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn apache_all_tools_produce_defined_scores() {
        // Small corpus: these run under `cargo test` in debug mode.
        let rows = score_family("Apache", 400, 1);
        assert_eq!(rows.len(), TOOL_COUNT);
        let tools: Vec<&str> = rows.iter().map(|r| r.tool).collect();
        assert_eq!(tools, ["sequence-rtg", "ael", "iplom", "spell", "drain"]);
        for r in &rows {
            assert!(
                r.grouping_accuracy.is_finite() && (0.0..=1.0).contains(&r.grouping_accuracy),
                "{}: {}",
                r.tool,
                r.grouping_accuracy
            );
            assert!(r.template.f1.is_finite());
            assert_eq!(r.lines, 400);
            assert_eq!(r.catalog_templates, 29);
        }
        // Sequence-RTG should do well on Apache's small catalog.
        assert!(
            rows[0].grouping_accuracy > 0.6,
            "batch: {}",
            rows[0].grouping_accuracy
        );
    }

    #[test]
    fn render_json_is_flat_and_sed_extractable() {
        let rows = score_family("Proxifier", 120, 3);
        let json = render_json(&rows, 120, 3);
        assert_eq!(json.lines().count(), 1 + TOOL_COUNT);
        for line in json.lines().skip(1) {
            assert!(line.starts_with("{\"id\":\"accuracy/Proxifier/"), "{line}");
            assert!(line.contains("\"grouping_accuracy\":"), "{line}");
            assert!(line.contains("\"f1\":"), "{line}");
            assert!(line.ends_with('}'), "{line}");
        }
    }

    #[test]
    fn scores_are_deterministic_across_runs() {
        let a = score_family("OpenSSH", 200, 4);
        let b = score_family("OpenSSH", 200, 4);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.tool, y.tool);
            assert_eq!(x.grouping_accuracy, y.grouping_accuracy);
            assert_eq!(x.template.f1, y.template.f1);
        }
    }
}
