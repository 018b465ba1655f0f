//! IPLoM: Iterative Partitioning Log Mining
//! (Makanju, Zincir-Heywood, Milios — KDD 2009).
//!
//! "After tokenising, the algorithm takes four steps. First, it clusters the
//! token sets that are of the same length, then it builds sub-clusters based
//! on token position. In other words, it looks for a word that is common at
//! the same position of many messages. The third step searches for bijective
//! relationships between two tokens, i.e. where the two values are always
//! the same in their respective positions. The last step is to output the
//! pattern. If all the values at the same position are the same, it is
//! constant in the pattern, if there is a high variation, then it is marked
//! as a variable." (paper §V)
//!
//! This implementation keeps the published structure (four steps, a cluster
//! goodness threshold that stops partitioning of already-coherent clusters,
//! and the 1-1 / 1-M / M-1 / M-M bijection cases) with the simplification
//! that M-M relations are left unsplit.

use crate::template::{tokenize, BatchParser, ParseResult, WILDCARD};
use std::collections::{HashMap, HashSet};

/// IPLoM configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IplomConfig {
    /// Cluster goodness threshold: a partition whose fraction of constant
    /// positions is at least this is not partitioned further.
    pub cluster_goodness: f64,
    /// Maximum distinct values a position may have and still be used as a
    /// step-2 split position, as a fraction of the partition size.
    pub split_cardinality_ratio: f64,
    /// Partitions smaller than this are emitted as-is.
    pub min_partition: usize,
}

impl Default for IplomConfig {
    fn default() -> Self {
        IplomConfig {
            cluster_goodness: 0.6,
            split_cardinality_ratio: 0.5,
            min_partition: 2,
        }
    }
}

/// The IPLoM parser.
#[derive(Debug, Clone, Default)]
pub struct Iplom {
    config: IplomConfig,
}

impl Iplom {
    /// IPLoM with default parameters.
    pub fn new() -> Iplom {
        Iplom::default()
    }

    /// IPLoM with explicit parameters.
    pub fn with_config(config: IplomConfig) -> Iplom {
        Iplom { config }
    }

    /// Distinct token counts per position over a partition.
    fn cardinalities(msgs: &[Vec<String>], members: &[usize]) -> Vec<usize> {
        let width = msgs[members[0]].len();
        (0..width)
            .map(|pos| {
                let mut set = HashSet::new();
                for &mi in members {
                    set.insert(msgs[mi][pos].as_str());
                }
                set.len()
            })
            .collect()
    }

    /// Fraction of positions with a single distinct value.
    fn goodness(cards: &[usize]) -> f64 {
        if cards.is_empty() {
            return 1.0;
        }
        cards.iter().filter(|&&c| c == 1).count() as f64 / cards.len() as f64
    }

    /// Step 2: split by the position with the lowest cardinality > 1, if its
    /// cardinality is small relative to the partition.
    fn step2_split(
        &self,
        msgs: &[Vec<String>],
        members: &[usize],
        cards: &[usize],
    ) -> Option<Vec<Vec<usize>>> {
        let limit = ((members.len() as f64) * self.config.split_cardinality_ratio).ceil() as usize;
        let pos = cards
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 1 && c <= limit.max(2))
            .min_by_key(|(_, &c)| c)
            .map(|(p, _)| p)?;
        let mut groups: HashMap<&str, Vec<usize>> = HashMap::new();
        for &mi in members {
            groups.entry(msgs[mi][pos].as_str()).or_default().push(mi);
        }
        if groups.len() < 2 {
            return None;
        }
        let mut out: Vec<Vec<usize>> = groups.into_values().collect();
        out.sort_by_key(|g| *g.iter().min().unwrap());
        Some(out)
    }

    /// Step 3: bijection search between the two positions whose cardinality
    /// equals the most frequent cardinality (> 1). 1-1 and 1-M / M-1
    /// relations split on the "1" side; M-M partitions stay together.
    fn step3_split(
        &self,
        msgs: &[Vec<String>],
        members: &[usize],
        cards: &[usize],
    ) -> Option<Vec<Vec<usize>>> {
        // Most frequent cardinality among positions with card > 1; a tie
        // goes to the lower cardinality, never to the hash order.
        let mut freq: HashMap<usize, usize> = HashMap::new();
        for &c in cards.iter().filter(|&&c| c > 1) {
            *freq.entry(c).or_insert(0) += 1;
        }
        let (&mode, _) = freq
            .iter()
            .max_by_key(|&(&c, &n)| (n, std::cmp::Reverse(c)))?;
        let chosen: Vec<usize> = cards
            .iter()
            .enumerate()
            .filter(|(_, &c)| c == mode)
            .map(|(p, _)| p)
            .take(2)
            .collect();
        if chosen.len() < 2 {
            return None;
        }
        let (p1, p2) = (chosen[0], chosen[1]);
        // Forward and reverse mappings between values at p1 and p2.
        let mut fwd: HashMap<&str, HashSet<&str>> = HashMap::new();
        let mut rev: HashMap<&str, HashSet<&str>> = HashMap::new();
        for &mi in members {
            let a = msgs[mi][p1].as_str();
            let b = msgs[mi][p2].as_str();
            fwd.entry(a).or_default().insert(b);
            rev.entry(b).or_default().insert(a);
        }
        let mut groups: HashMap<String, Vec<usize>> = HashMap::new();
        for &mi in members {
            let a = msgs[mi][p1].as_str();
            let b = msgs[mi][p2].as_str();
            let a_maps = fwd[a].len();
            let b_maps = rev[b].len();
            let key = if a_maps == 1 && b_maps == 1 {
                format!("11:{a}") // 1-1: one sub-partition per pair
            } else if a_maps == 1 {
                format!("m1:{b}") // M-1: split on the "1" side (p2 value)
            } else if b_maps == 1 {
                format!("1m:{a}") // 1-M: split on the p1 value
            } else {
                "mm".to_string() // M-M: leave together
            };
            groups.entry(key).or_default().push(mi);
        }
        if groups.len() < 2 {
            return None;
        }
        let mut out: Vec<Vec<usize>> = groups.into_values().collect();
        out.sort_by_key(|g| *g.iter().min().unwrap());
        Some(out)
    }
}

impl BatchParser for Iplom {
    fn name(&self) -> &'static str {
        "IPLoM"
    }

    fn parse_batch(&self, lines: &[String]) -> ParseResult {
        let msgs: Vec<Vec<String>> = lines
            .iter()
            .map(|l| tokenize(l).iter().map(|t| t.to_string()).collect())
            .collect();
        // Step 1: partition by token count.
        let mut by_len: HashMap<usize, Vec<usize>> = HashMap::new();
        for (i, m) in msgs.iter().enumerate() {
            by_len.entry(m.len()).or_default().push(i);
        }
        let mut lens: Vec<usize> = by_len.keys().copied().collect();
        lens.sort_unstable();

        let mut final_partitions: Vec<Vec<usize>> = Vec::new();
        for len in lens {
            let members = by_len[&len].clone();
            if len == 0 {
                final_partitions.push(members);
                continue;
            }
            // Step 2 on each length partition.
            let mut queue = vec![(members, 2u8)];
            while let Some((part, step)) = queue.pop() {
                if part.len() < self.config.min_partition {
                    final_partitions.push(part);
                    continue;
                }
                let cards = Self::cardinalities(&msgs, &part);
                if Self::goodness(&cards) >= self.config.cluster_goodness {
                    final_partitions.push(part);
                    continue;
                }
                let split = match step {
                    2 => self.step2_split(&msgs, &part, &cards),
                    _ => self.step3_split(&msgs, &part, &cards),
                };
                match split {
                    Some(subs) if step == 2 => {
                        for s in subs {
                            queue.push((s, 3));
                        }
                    }
                    Some(subs) => final_partitions.extend(subs),
                    None if step == 2 => queue.push((part, 3)),
                    None => final_partitions.push(part),
                }
            }
        }
        final_partitions.sort_by_key(|p| *p.iter().min().unwrap_or(&usize::MAX));

        // Step 4: derive templates and assignments.
        let mut assignments = vec![0usize; lines.len()];
        let mut templates = Vec::with_capacity(final_partitions.len());
        for part in &final_partitions {
            let event_id = templates.len();
            let template: String = if part.is_empty() || msgs[part[0]].is_empty() {
                String::new()
            } else {
                let cards = Self::cardinalities(&msgs, part);
                let first = &msgs[part[0]];
                first
                    .iter()
                    .zip(&cards)
                    .map(|(tok, &c)| if c == 1 { tok.as_str() } else { WILDCARD })
                    .collect::<Vec<&str>>()
                    .join(" ")
            };
            templates.push(template);
            for &mi in part {
                assignments[mi] = event_id;
            }
        }
        ParseResult {
            assignments,
            templates,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lines(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn step1_by_length() {
        let r = Iplom::new().parse_batch(&lines(&["a b", "a b c", "a b"]));
        assert_eq!(r.assignments[0], r.assignments[2]);
        assert_ne!(r.assignments[0], r.assignments[1]);
    }

    #[test]
    fn step2_low_cardinality_split() {
        let r = Iplom::new().parse_batch(&lines(&[
            "start job j1 now",
            "start job j2 now",
            "stop task t1 now",
            "stop task t2 now",
        ]));
        assert_eq!(r.event_count(), 2);
        let mut t = r.templates.clone();
        t.sort();
        assert_eq!(t, vec!["start job <*> now", "stop task <*> now"]);
    }

    #[test]
    fn good_clusters_stop_early() {
        let r = Iplom::new().parse_batch(&lines(&[
            "link up on port 1",
            "link up on port 2",
            "link up on port 3",
        ]));
        assert_eq!(r.event_count(), 1);
        assert_eq!(r.templates[0], "link up on port <*>");
    }

    #[test]
    fn constant_messages_constant_template() {
        let r = Iplom::new().parse_batch(&lines(&["sync done", "sync done"]));
        assert_eq!(r.templates[0], "sync done");
    }

    #[test]
    fn bijection_splits_correlated_positions() {
        // Positions 1 and 2 are 1-1 correlated (open↔file, close↔socket):
        // step 3 separates the two flows even though step 2's low-cardinality
        // split may pick position 1 first (same outcome either way).
        let r = Iplom::new().parse_batch(&lines(&[
            "op open file f1 zz",
            "op open file f2 zz",
            "op close socket s1 zz",
            "op close socket s2 zz",
        ]));
        assert_eq!(r.event_count(), 2);
    }

    #[test]
    fn step3_breaks_cardinality_ties_the_same_way_every_run() {
        // Cardinalities 2 (positions 0, 1) and 3 (positions 2, 3) tie for
        // the mode. The lower one wins: positions 0 and 1 are 1-1, giving
        // two groups, where positions 2 and 3 would give four. Every HashMap
        // draws fresh hash keys, so repeated calls would see both outcomes
        // if the iteration order decided the tie.
        let msgs: Vec<Vec<String>> = ["a x p u", "a x q v", "b y r w", "b y p v"]
            .iter()
            .map(|l| l.split(' ').map(str::to_string).collect())
            .collect();
        for _ in 0..64 {
            let split = Iplom::new().step3_split(&msgs, &[0, 1, 2, 3], &[2, 2, 3, 3]);
            assert_eq!(split, Some(vec![vec![0, 1], vec![2, 3]]));
        }
    }

    #[test]
    fn empty_input_and_empty_lines() {
        let r = Iplom::new().parse_batch(&lines(&["", "  ", "x y"]));
        // Empty token lists form their own partition.
        assert_eq!(r.assignments[0], r.assignments[1]);
        assert_ne!(r.assignments[0], r.assignments[2]);
    }
}
