//! The one accuracy scorer: Sequence-RTG and the four in-tree baselines,
//! scored on any labelled [`Dataset`] with every metric at once.
//!
//! [`score_dataset`] feeds every tool the same text variant and returns one
//! [`FamilyAccuracy`] row per tool, carrying both the paper's Table II metric
//! (`mapping_accuracy`) and Zhu et al.'s Table III metric
//! (`grouping_accuracy`), plus template-level precision/recall/F1.
//! `bench-accuracy` scores the 14 [`loghub_synth::loghub2`] families with it
//! (`ci.sh` gates the result), `paper-tables` and `tests/paper_claims.rs`
//! the 16 Table II/III stand-ins of [`loghub_synth::generate`].
//!
//! [`score_rtg`] is the Sequence-RTG row on its own, for the raw variant and
//! other scanner configurations, where the baselines are not needed.

use crate::accuracy::{
    group_accuracy, mapping_accuracy, patterns_per_template, split_merged_lines, template_prf,
    TemplateScore,
};
use crate::runner::{rtg_assignments, truth_labels, variant_lines, Variant};
use loghub_synth::Dataset;
use sequence_rtg::RtgConfig;
use std::collections::HashSet;
use std::time::Instant;

/// Tool order of a dataset's result rows: Sequence-RTG, then the baselines
/// in [`baselines::all_parsers`] order.
pub const TOOL_COUNT: usize = 5;

/// One scored (dataset, tool) cell.
#[derive(Debug, Clone)]
pub struct FamilyAccuracy {
    /// Dataset (LogHub family) name.
    pub family: &'static str,
    /// Tool under test (`sequence-rtg`, `ael`, `iplom`, `spell`, `drain`).
    pub tool: &'static str,
    /// Scored corpus size in lines.
    pub lines: usize,
    /// Template count of the dataset's generator catalog.
    pub catalog_templates: usize,
    /// Distinct ground-truth events that actually appear in the sample.
    pub observed_events: usize,
    /// Distinct groups the tool produced.
    pub found_groups: usize,
    /// Strict group accuracy (Zhu et al.; the paper's Table III metric).
    pub grouping_accuracy: f64,
    /// Greedy one-to-one mapping accuracy (the paper's Table II metric).
    pub mapping_accuracy: f64,
    /// Template-level precision/recall/F1.
    pub template: TemplateScore,
    /// Wall-clock scoring time for this cell, milliseconds.
    pub elapsed_ms: f64,
    /// Lines of a template the tool split over more than one group.
    pub split_lines: usize,
    /// Lines of a group the tool merged over more than one template.
    pub merged_lines: usize,
    /// Mean, over the observed templates, of the groups each template's
    /// lines fall into (1.0 when no template is split).
    pub patterns_per_template: f64,
    /// The most groups any one template's lines fall into.
    pub max_patterns_per_template: usize,
    /// Up to five split templates and their group counts, most first.
    pub worst_templates: Vec<(String, usize)>,
}

/// Score one tool's assignment vector against a dataset's ground truth;
/// `started` is when the tool began its run.
fn score(
    tool: &'static str,
    dataset: &Dataset,
    assignments: &[String],
    started: Instant,
) -> FamilyAccuracy {
    let elapsed_ms = started.elapsed().as_secs_f64() * 1e3;
    let truth = truth_labels(dataset);
    let found: HashSet<&String> = assignments.iter().collect();
    let observed: HashSet<&&str> = truth.iter().collect();
    let (split_lines, merged_lines) = split_merged_lines(assignments, &truth);
    let per_template = patterns_per_template(assignments, &truth);
    let groups: usize = per_template.iter().map(|&(_, n)| n).sum();
    FamilyAccuracy {
        family: dataset.name,
        tool,
        lines: dataset.lines.len(),
        catalog_templates: dataset.event_count,
        observed_events: observed.len(),
        found_groups: found.len(),
        grouping_accuracy: group_accuracy(assignments, &truth),
        mapping_accuracy: mapping_accuracy(assignments, &truth),
        template: template_prf(assignments, &truth),
        elapsed_ms,
        split_lines,
        merged_lines,
        patterns_per_template: if per_template.is_empty() {
            1.0
        } else {
            groups as f64 / per_template.len() as f64
        },
        max_patterns_per_template: per_template.first().map_or(0, |&(_, n)| n),
        worst_templates: per_template
            .iter()
            .take_while(|&&(_, n)| n > 1)
            .take(5)
            .map(|&(t, n)| (t.to_string(), n))
            .collect(),
    }
}

/// Score Sequence-RTG under `config` on one variant of a dataset.
pub fn score_rtg(dataset: &Dataset, variant: Variant, config: RtgConfig) -> FamilyAccuracy {
    let started = Instant::now();
    let assignments = rtg_assignments(dataset, variant, config);
    score("sequence-rtg", dataset, &assignments, started)
}

/// Score all five tools on one variant of a dataset: Sequence-RTG under
/// `config`, then every baseline on the identical lines.
pub fn score_dataset(
    dataset: &Dataset,
    variant: Variant,
    config: RtgConfig,
) -> Vec<FamilyAccuracy> {
    let lines = variant_lines(dataset, variant);
    let mut rows = Vec::with_capacity(TOOL_COUNT);
    rows.push(score_rtg(dataset, variant, config));
    for parser in baselines::all_parsers() {
        let started = Instant::now();
        let result = parser.parse_batch(&lines);
        let assignments: Vec<String> = result.assignments.iter().map(|a| a.to_string()).collect();
        rows.push(score(
            baseline_tool_name(parser.name()),
            dataset,
            &assignments,
            started,
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
             \"f1\":{f1:.4},\"elapsed_ms\":{ms:.1},\"split_lines\":{split},\
             \"merged_lines\":{merged},\"patterns_per_template\":{ppt:.4},\
             \"max_patterns_per_template\":{max_ppt}}}\n",
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
            split = r.split_lines,
            merged = r.merged_lines,
            ppt = r.patterns_per_template,
            max_ppt = r.max_patterns_per_template,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use loghub_synth::loghub2;

    fn score_family(family: &str, lines: usize, seed: u64) -> Vec<FamilyAccuracy> {
        score_dataset(
            &loghub2::dataset(family, lines, seed),
            Variant::Preprocessed,
            RtgConfig::default(),
        )
    }

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
            assert!(line.contains(",\"split_lines\":"), "{line}");
            assert!(line.contains(",\"merged_lines\":"), "{line}");
            assert!(line.contains(",\"patterns_per_template\":"), "{line}");
            assert!(line.contains(",\"max_patterns_per_template\":"), "{line}");
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
