//! Semi-constant variable splitting (paper §VI, future work — implemented
//! here as an opt-in extension).
//!
//! "Another interesting feature would be to consider tokens that exhibit
//! *semi-constant* values. In other words, tokens for which a variable only
//! takes a few different values. In the current version of Sequence-RTG, a
//! single pattern will be identified. However, it would be more interesting
//! to create as many patterns as there are variations of this semi-constant
//! variable, each pattern having a constant value at its position."

use sequence_core::analyzer::DiscoveredPattern;
use sequence_core::{Pattern, PatternElement, TokenizedMessage};
use std::collections::BTreeMap;

/// Most distinct values a variable may take and still count as
/// semi-constant.
const MAX_VALUES: usize = 3;

/// Post-process analyser output: any variable that takes at most
/// `MAX_VALUES` (3) distinct values across the pattern's member messages is
/// *semi-constant*; the pattern is split into one variant per combination of
/// semi-constant values, with those positions demoted to literals.
///
/// Patterns whose variables are all genuinely variable pass through
/// untouched. Variants that would cover a single message are not split off
/// (that would recreate the under-generalisation the save threshold guards
/// against) — if any combination is a singleton the split is abandoned for
/// that pattern.
pub fn split_semi_constant(
    discovered: Vec<DiscoveredPattern>,
    messages: &[TokenizedMessage],
) -> Vec<DiscoveredPattern> {
    let mut out = Vec::with_capacity(discovered.len());
    for d in discovered {
        match try_split(&d, messages) {
            Some(variants) => {
                // Variants may themselves contain further semi-constant
                // positions; recurse (bounded: each split fixes a position).
                out.extend(split_semi_constant(variants, messages));
            }
            None => out.push(d),
        }
    }
    out
}

/// Attempt to split `d` at its *most* semi-constant variable position (the
/// one with the fewest distinct values). One position at a time: splitting on
/// all positions jointly would fragment membership into singleton
/// combinations.
fn try_split(
    d: &DiscoveredPattern,
    messages: &[TokenizedMessage],
) -> Option<Vec<DiscoveredPattern>> {
    if d.member_indices.len() < 4 {
        return None;
    }
    let elements = d.pattern.elements();
    let fixed = d.pattern.fixed_token_count();
    // Semi-constant variable positions, with their distinct-value count.
    let mut candidates: Vec<(usize, usize)> = Vec::new();
    for (pos, el) in elements.iter().take(fixed).enumerate() {
        if !el.is_variable() {
            continue;
        }
        let mut values: BTreeMap<&str, usize> = BTreeMap::new();
        for &mi in &d.member_indices {
            let tok = &messages[mi as usize].tokens[pos];
            *values.entry(tok.text.as_str()).or_insert(0) += 1;
            if values.len() > MAX_VALUES {
                break;
            }
        }
        if (2..=MAX_VALUES).contains(&values.len()) {
            candidates.push((values.len(), pos));
        }
    }
    candidates.sort_unstable();
    // Try candidates in order of increasing distinct count; take the first
    // whose per-value groups all have at least two members.
    for (_, pos) in candidates {
        let mut groups: BTreeMap<String, Vec<u32>> = BTreeMap::new();
        for &mi in &d.member_indices {
            groups
                .entry(messages[mi as usize].tokens[pos].text.to_string())
                .or_default()
                .push(mi);
        }
        if groups.values().any(|g| g.len() < 2) {
            continue;
        }
        let mut variants = Vec::with_capacity(groups.len());
        for (value, members) in groups {
            let mut els = elements.to_vec();
            let space_before = match &els[pos] {
                PatternElement::Variable { space_before, .. } => *space_before,
                _ => unreachable!("candidate positions are variables"),
            };
            els[pos] = PatternElement::Literal {
                text: value,
                space_before,
            };
            let pattern = Pattern::new(els).expect("ignore-rest position unchanged");
            let mut examples: Vec<String> = Vec::new();
            for &mi in &members {
                let raw = messages[mi as usize].source();
                if !examples.iter().any(|e| *e == raw) {
                    examples.push(raw.into_owned());
                    if examples.len() == 3 {
                        break;
                    }
                }
            }
            variants.push(DiscoveredPattern {
                pattern,
                match_count: members.len() as u64,
                examples,
                member_indices: members,
            });
        }
        return Some(variants);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use sequence_core::{Analyzer, Scanner};

    fn discover(msgs: &[&str]) -> (Vec<DiscoveredPattern>, Vec<TokenizedMessage>) {
        let scanner = Scanner::new();
        let scanned: Vec<_> = msgs.iter().map(|m| scanner.scan(m)).collect();
        (Analyzer::new().analyze(&scanned), scanned)
    }

    #[test]
    fn splits_two_valued_variable() {
        let (d, msgs) = discover(&[
            "link up on eth0",
            "link down on eth0",
            "link up on eth1",
            "link down on eth2",
        ]);
        assert_eq!(
            d.len(),
            1,
            "analyser merges up/down into one variable: {d:?}"
        );
        let split = split_semi_constant(d, &msgs);
        assert_eq!(split.len(), 2);
        let mut renders: Vec<String> = split.iter().map(|v| v.pattern.render()).collect();
        renders.sort();
        assert!(renders[0].starts_with("link down on"), "{renders:?}");
        assert!(renders[1].starts_with("link up on"), "{renders:?}");
        // Counts partition the original membership.
        assert_eq!(split.iter().map(|v| v.match_count).sum::<u64>(), 4);
    }

    #[test]
    fn leaves_fully_variable_patterns_alone() {
        let (d, msgs) = discover(&[
            "job j1 finished",
            "job j2 finished",
            "job j3 finished",
            "job j4 finished",
            "job j5 finished",
        ]);
        let n_before = d.len();
        let split = split_semi_constant(d, &msgs);
        assert_eq!(split.len(), n_before);
        assert!(split[0].pattern.render().contains('%'));
    }

    #[test]
    fn refuses_singleton_variants() {
        // Three values but one appears once: splitting would make a
        // single-example pattern, so nothing changes.
        let (d, msgs) = discover(&[
            "state now active",
            "state now active",
            "state now idle",
            "state now unknown",
        ]);
        let split = split_semi_constant(d.clone(), &msgs);
        assert_eq!(split.len(), d.len());
    }

    #[test]
    fn small_groups_not_split() {
        let (d, msgs) = discover(&["mode a set", "mode b set"]);
        let split = split_semi_constant(d.clone(), &msgs);
        assert_eq!(split.len(), d.len());
    }
}
