//! The parsing-accuracy metric of Zhu et al. (ICSE-SEIP 2019), as used by
//! the paper.
//!
//! "They measured the accuracy using the ratio of correctly parsed log
//! messages over the total number of log messages." A message is *correctly
//! parsed* when the event its parser assigned groups together exactly the
//! same set of messages as the ground-truth event — the strict *group
//! accuracy* definition: over-splitting an event or merging two events
//! marks every affected message wrong.

use std::collections::{HashMap, HashSet};

/// Compute group accuracy.
///
/// `predicted` and `truth` give, for each message, its predicted cluster id
/// and ground-truth event label. Returns the fraction of messages whose
/// predicted cluster is a *perfect* reconstruction of their true event.
/// Edge-case policy shared by every metric in this module:
///
/// * **Empty input** (no messages on either side) scores **1.0** — a parser
///   shown nothing has grouped nothing wrong. The vacuous-truth convention
///   keeps per-family CI gates well-defined when a scaled-down corpus
///   filters to zero lines.
/// * **Length mismatch** does not panic: messages are compared over the
///   zipped prefix and the denominator is `max(len)`, so every unpaired
///   message counts as wrong. A parser that dropped (or invented) lines is
///   penalised, not crashed on.
pub fn group_accuracy<P, T>(predicted: &[P], truth: &[T]) -> f64
where
    P: std::hash::Hash + Eq + Clone,
    T: std::hash::Hash + Eq + Clone,
{
    if predicted.is_empty() && truth.is_empty() {
        return 1.0;
    }
    let denom = predicted.len().max(truth.len());
    // Sizes of each true event and each predicted cluster, over the paired
    // prefix only (unpaired suffix messages can never score).
    let paired = predicted.len().min(truth.len());
    let mut truth_sizes: HashMap<&T, usize> = HashMap::new();
    for t in &truth[..paired] {
        *truth_sizes.entry(t).or_insert(0) += 1;
    }
    let mut pred_sizes: HashMap<&P, usize> = HashMap::new();
    for p in &predicted[..paired] {
        *pred_sizes.entry(p).or_insert(0) += 1;
    }
    // Joint counts.
    let mut joint: HashMap<(&P, &T), usize> = HashMap::new();
    for (p, t) in predicted.iter().zip(truth) {
        *joint.entry((p, t)).or_insert(0) += 1;
    }
    // A predicted cluster P is correct iff it consists of exactly one truth
    // label T and |P| == |T| (it captured the whole event and nothing else).
    let mut correct = 0usize;
    for ((p, t), &n) in &joint {
        if pred_sizes[p] == n && truth_sizes[t] == n {
            correct += n;
        }
    }
    correct as f64 / denom as f64
}

/// Compute *mapping accuracy*: the metric the Sequence-RTG authors describe
/// for Table II.
///
/// The paper's artifact maps each Sequence-RTG pattern id to a ground-truth
/// event label ("a CSV file for each service to map Sequence-RTG patternids
/// to the corresponding labels") and scores "if the event label in the
/// pre-processed file matches the event determined by the tool". That is a
/// one-to-one assignment between predicted clusters and true events: each
/// event keeps its single best pattern; messages in secondary patterns of a
/// split event count as wrong (hence Proxifier's "nearly 50% of the results
/// invalid"), and a merged cluster can only be right for one of its events.
///
/// Implemented as a greedy maximum-overlap one-to-one matching (largest
/// joint counts first), which is exact for the dominant-diagonal confusion
/// matrices log parsers produce.
pub fn mapping_accuracy<P, T>(predicted: &[P], truth: &[T]) -> f64
where
    P: std::hash::Hash + Eq + Clone,
    T: std::hash::Hash + Eq + Clone,
{
    if predicted.is_empty() && truth.is_empty() {
        return 1.0;
    }
    let denom = predicted.len().max(truth.len());
    let mut joint: HashMap<(&P, &T), usize> = HashMap::new();
    for (p, t) in predicted.iter().zip(truth) {
        *joint.entry((p, t)).or_insert(0) += 1;
    }
    let mut pairs: Vec<((&P, &T), usize)> = joint.into_iter().collect();
    // Deterministic order: overlap descending, then stable by insertion via
    // full re-sort on counts only is ambiguous — break ties by comparing the
    // first message index of each pair.
    let mut first_index: HashMap<(&P, &T), usize> = HashMap::new();
    for (i, (p, t)) in predicted.iter().zip(truth).enumerate() {
        first_index.entry((p, t)).or_insert(i);
    }
    pairs.sort_by(|a, b| {
        b.1.cmp(&a.1)
            .then(first_index[&a.0].cmp(&first_index[&b.0]))
    });
    let mut used_p: std::collections::HashSet<&P> = std::collections::HashSet::new();
    let mut used_t: std::collections::HashSet<&T> = std::collections::HashSet::new();
    let mut correct = 0usize;
    for ((p, t), n) in pairs {
        if used_p.contains(p) || used_t.contains(t) {
            continue;
        }
        used_p.insert(p);
        used_t.insert(t);
        correct += n;
    }
    correct as f64 / denom as f64
}

/// The two halves of the grouping gap, in lines: `(split, merged)`. A
/// *split* line belongs to a ground-truth template that was predicted as
/// more than one group; a *merged* line belongs to a predicted group that
/// covers more than one template. A line can be both. Only the paired
/// prefix is counted.
pub fn split_merged_lines<P, T>(predicted: &[P], truth: &[T]) -> (usize, usize)
where
    P: std::hash::Hash + Eq,
    T: std::hash::Hash + Eq,
{
    let mut groups_of: HashMap<&T, HashSet<&P>> = HashMap::new();
    let mut templates_of: HashMap<&P, HashSet<&T>> = HashMap::new();
    for (p, t) in predicted.iter().zip(truth) {
        groups_of.entry(t).or_default().insert(p);
        templates_of.entry(p).or_default().insert(t);
    }
    let mut split = 0;
    let mut merged = 0;
    for (p, t) in predicted.iter().zip(truth) {
        split += usize::from(groups_of[t].len() > 1);
        merged += usize::from(templates_of[p].len() > 1);
    }
    (split, merged)
}

/// How many predicted groups each ground-truth template's lines fall into,
/// one `(template, groups)` entry per template of the paired prefix, the
/// most-split first (ties by template). Its mean over templates is the
/// accuracy rows' `patterns_per_template`.
pub fn patterns_per_template<'t, P, T>(predicted: &[P], truth: &'t [T]) -> Vec<(&'t T, usize)>
where
    P: std::hash::Hash + Eq,
    T: std::hash::Hash + Eq + Ord,
{
    let mut groups_of: HashMap<&T, HashSet<&P>> = HashMap::new();
    for (p, t) in predicted.iter().zip(truth) {
        groups_of.entry(t).or_default().insert(p);
    }
    let mut out: Vec<(&T, usize)> = groups_of.into_iter().map(|(t, g)| (t, g.len())).collect();
    out.sort_unstable_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(b.0)));
    out
}

/// Template-level precision/recall/F1 over groups (the FGA-style metric of
/// the LogHub-2.0 benchmark).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TemplateScore {
    /// Fraction of predicted groups that exactly reconstruct a truth event.
    pub precision: f64,
    /// Fraction of observed truth events exactly reconstructed by some
    /// predicted group.
    pub recall: f64,
    /// Harmonic mean of precision and recall (0.0 when both are 0).
    pub f1: f64,
    /// Number of distinct predicted groups.
    pub predicted_groups: usize,
    /// Number of distinct ground-truth events observed in the sample.
    pub truth_groups: usize,
    /// Predicted groups whose member set equals a truth event's member set.
    pub correct_groups: usize,
}

/// Compute template-level P/R/F1: a predicted group is *correct* iff its
/// member set is exactly the member set of one ground-truth event. This is
/// the group-level companion to [`group_accuracy`] (which weights by
/// messages); LogHub-2.0 calls it FGA (F1 of Group Accuracy).
///
/// Edge cases follow the module policy: both sides empty → P=R=F1=1.0;
/// length mismatch compares the zipped prefix, with every unpaired message
/// forced into a synthetic never-correct group on the short side so the
/// mismatch shows up in precision/recall rather than a panic.
pub fn template_prf<P, T>(predicted: &[P], truth: &[T]) -> TemplateScore
where
    P: std::hash::Hash + Eq + Clone,
    T: std::hash::Hash + Eq + Clone,
{
    if predicted.is_empty() && truth.is_empty() {
        return TemplateScore {
            precision: 1.0,
            recall: 1.0,
            f1: 1.0,
            predicted_groups: 0,
            truth_groups: 0,
            correct_groups: 0,
        };
    }
    let paired = predicted.len().min(truth.len());
    let mut truth_sizes: HashMap<&T, usize> = HashMap::new();
    for t in truth {
        *truth_sizes.entry(t).or_insert(0) += 1;
    }
    let mut pred_sizes: HashMap<&P, usize> = HashMap::new();
    for p in predicted {
        *pred_sizes.entry(p).or_insert(0) += 1;
    }
    let mut joint: HashMap<(&P, &T), usize> = HashMap::new();
    for (p, t) in predicted.iter().zip(truth) {
        *joint.entry((p, t)).or_insert(0) += 1;
    }
    // Unpaired messages on the longer side still inflate that side's group
    // count (their groups exist but can never be "correct"); the shorter
    // side's notional extra group is accounted as one synthetic group.
    let mut predicted_groups = pred_sizes.len();
    let mut truth_groups = truth_sizes.len();
    if predicted.len() < truth.len() && paired < truth.len() {
        predicted_groups += 1; // the missing-assignments pseudo-group
    }
    if truth.len() < predicted.len() && paired < predicted.len() {
        truth_groups += 1; // the unlabeled-messages pseudo-group
    }
    let mut correct_groups = 0usize;
    for ((p, t), &n) in &joint {
        if pred_sizes[p] == n && truth_sizes[t] == n {
            correct_groups += 1;
        }
    }
    let precision = if predicted_groups == 0 {
        1.0
    } else {
        correct_groups as f64 / predicted_groups as f64
    };
    let recall = if truth_groups == 0 {
        1.0
    } else {
        correct_groups as f64 / truth_groups as f64
    };
    let f1 = if precision + recall == 0.0 {
        0.0
    } else {
        2.0 * precision * recall / (precision + recall)
    };
    TemplateScore {
        precision,
        recall,
        f1,
        predicted_groups,
        truth_groups,
        correct_groups,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_grouping() {
        let pred = vec![0, 0, 1, 1, 2];
        let truth = vec!["a", "a", "b", "b", "c"];
        assert_eq!(group_accuracy(&pred, &truth), 1.0);
    }

    #[test]
    fn cluster_ids_do_not_matter() {
        let pred = vec![9, 9, 4, 4];
        let truth = vec!["a", "a", "b", "b"];
        assert_eq!(group_accuracy(&pred, &truth), 1.0);
    }

    #[test]
    fn split_event_counts_all_members_wrong() {
        // Event `a` split across clusters 0 and 1: all three `a` messages
        // are wrong; `b` stays right.
        let pred = vec![0, 0, 1, 2];
        let truth = vec!["a", "a", "a", "b"];
        assert_eq!(group_accuracy(&pred, &truth), 0.25);
    }

    #[test]
    fn merged_events_count_both_wrong() {
        let pred = vec![0, 0, 0, 0];
        let truth = vec!["a", "a", "b", "b"];
        assert_eq!(group_accuracy(&pred, &truth), 0.0);
    }

    #[test]
    fn split_and_merged_lines_count_each_side() {
        // `a` is split over clusters 0 and 1; cluster 2 merges `b` and `c`;
        // `d` is right.
        let pred = vec![0, 1, 1, 2, 2, 2, 3];
        let truth = vec!["a", "a", "a", "b", "b", "c", "d"];
        assert_eq!(split_merged_lines(&pred, &truth), (3, 3));
        // A line in a split template and a merged cluster counts on both.
        assert_eq!(split_merged_lines(&[0, 0, 1], &["a", "b", "a"]), (2, 2));
        assert_eq!(split_merged_lines::<u32, &str>(&[], &[]), (0, 0));
    }

    #[test]
    fn patterns_per_template_counts_groups_most_split_first() {
        let pred = vec![0, 1, 1, 2, 2, 2, 3, 4];
        let truth = vec!["a", "a", "a", "b", "b", "c", "d", "d"];
        assert_eq!(
            patterns_per_template(&pred, &truth),
            [(&"a", 2), (&"d", 2), (&"b", 1), (&"c", 1)]
        );
        assert!(patterns_per_template::<u32, &str>(&[], &[]).is_empty());
    }

    #[test]
    fn partial_credit_mixture() {
        // Cluster 0 = all of a (correct, 2 msgs); clusters 1,2 split b.
        let pred = vec![0, 0, 1, 2, 2];
        let truth = vec!["a", "a", "b", "b", "b"];
        assert_eq!(group_accuracy(&pred, &truth), 0.4);
    }

    #[test]
    fn empty_input_is_vacuously_perfect() {
        let pred: Vec<u32> = vec![];
        let truth: Vec<&str> = vec![];
        assert_eq!(group_accuracy(&pred, &truth), 1.0);
        assert_eq!(mapping_accuracy(&pred, &truth), 1.0);
        let s = template_prf(&pred, &truth);
        assert_eq!((s.precision, s.recall, s.f1), (1.0, 1.0, 1.0));
        assert_eq!(s.predicted_groups, 0);
        assert_eq!(s.truth_groups, 0);
    }

    #[test]
    fn single_group_is_well_defined() {
        let pred = vec![0, 0, 0];
        let truth = vec!["a", "a", "a"];
        assert_eq!(group_accuracy(&pred, &truth), 1.0);
        assert_eq!(mapping_accuracy(&pred, &truth), 1.0);
        let s = template_prf(&pred, &truth);
        assert_eq!((s.precision, s.recall, s.f1), (1.0, 1.0, 1.0));
        assert_eq!(s.correct_groups, 1);
        // And a lone message:
        assert_eq!(group_accuracy(&[7], &["x"]), 1.0);
    }

    #[test]
    fn length_mismatch_penalises_instead_of_panicking() {
        // Three labelled messages, but the parser only assigned two: the
        // paired prefix is perfect, the unpaired message counts wrong.
        let pred = vec![0, 0];
        let truth = vec!["a", "a", "b"];
        let ga = group_accuracy(&pred, &truth);
        assert!((ga - 2.0 / 3.0).abs() < 1e-12, "{ga}");
        let ma = mapping_accuracy(&pred, &truth);
        assert!((ma - 2.0 / 3.0).abs() < 1e-12, "{ma}");
        assert!(ga.is_finite() && ma.is_finite());
        // Symmetric case: extra predictions with no labels.
        let ga2 = group_accuracy(&[0, 0, 1], &["a", "a"]);
        assert!((ga2 - 2.0 / 3.0).abs() < 1e-12, "{ga2}");
        // Template level: the truth event "b" has no correct predicted
        // group, and the pseudo-group dilutes precision.
        let s = template_prf(&pred, &truth);
        assert_eq!(s.correct_groups, 1);
        assert_eq!(s.predicted_groups, 2);
        assert_eq!(s.truth_groups, 2);
        assert!(s.f1.is_finite());
    }

    #[test]
    fn template_prf_scores_groups_not_messages() {
        // Cluster 0 reconstructs a (correct); b split across 1 and 2.
        let pred = vec![0, 0, 1, 2, 2];
        let truth = vec!["a", "a", "b", "b", "b"];
        let s = template_prf(&pred, &truth);
        assert_eq!(s.predicted_groups, 3);
        assert_eq!(s.truth_groups, 2);
        assert_eq!(s.correct_groups, 1);
        assert!((s.precision - 1.0 / 3.0).abs() < 1e-12);
        assert!((s.recall - 0.5).abs() < 1e-12);
        let expect_f1 = 2.0 * (1.0 / 3.0) * 0.5 / (1.0 / 3.0 + 0.5);
        assert!((s.f1 - expect_f1).abs() < 1e-12);
    }

    #[test]
    fn template_prf_zero_when_nothing_matches() {
        let pred = vec![0, 0, 0, 0];
        let truth = vec!["a", "a", "b", "b"];
        let s = template_prf(&pred, &truth);
        assert_eq!(s.correct_groups, 0);
        assert_eq!((s.precision, s.recall, s.f1), (0.0, 0.0, 0.0));
    }

    #[test]
    fn mapping_accuracy_gives_majority_credit_on_splits() {
        // Event `a` split 3/1 across clusters 0 and 1: the majority pattern
        // keeps its 3 messages (strict GA would score all four wrong).
        let pred = vec![0, 0, 0, 1, 2];
        let truth = vec!["a", "a", "a", "a", "b"];
        assert_eq!(mapping_accuracy(&pred, &truth), 0.8);
        assert_eq!(group_accuracy(&pred, &truth), 0.2);
    }

    #[test]
    fn mapping_accuracy_punishes_merges_once() {
        // Events a (3 msgs) and b (1 msg) merged: cluster maps to a.
        let pred = vec![0, 0, 0, 0];
        let truth = vec!["a", "a", "a", "b"];
        assert_eq!(mapping_accuracy(&pred, &truth), 0.75);
    }

    #[test]
    fn mapping_accuracy_perfect_case() {
        let pred = vec![5, 5, 9, 9];
        let truth = vec!["a", "a", "b", "b"];
        assert_eq!(mapping_accuracy(&pred, &truth), 1.0);
    }

    #[test]
    fn mapping_accuracy_fifty_fifty_split() {
        // The Proxifier case: an even split keeps only one half.
        let pred = vec![0, 0, 1, 1];
        let truth = vec!["a", "a", "a", "a"];
        assert_eq!(mapping_accuracy(&pred, &truth), 0.5);
    }

    #[test]
    fn proxifier_style_fifty_percent() {
        // One event whose messages land in two patterns of equal size —
        // the paper's "nearly 50% of the results invalid" — scores 0 for
        // that event (both halves are incomplete groups).
        let pred = vec![0, 0, 1, 1, 7];
        let truth = vec!["a", "a", "a", "a", "b"];
        assert_eq!(group_accuracy(&pred, &truth), 0.2);
    }
}
