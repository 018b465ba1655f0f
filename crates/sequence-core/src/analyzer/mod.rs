//! The Sequence analyser: mining patterns from batches of tokenised messages.
//!
//! The analyser groups messages by token count (one analysis trie per
//! length — "only token sets of the same length are compared in the same
//! analysis trie"), inserts each message into the trie, runs the sibling-merge
//! pass, and extracts one pattern per remaining root-to-leaf path.
//!
//! Sequence-RTG's quality control (limitation 4: "Sequence tends to add too
//! many variables into patterns") is applied at extraction time: typed
//! variables whose observed values never vary are demoted back to literals
//! when the group is large enough to be confident.
//!
//! The default options depart from the published analyser in two ways (see
//! the [`trie`] module): a few distinct leading words stay apart, and every
//! digit-bearing word at a position shares one trie node, which extraction
//! turns back into the literal when it saw one value only.

mod semantics;
mod trie;

pub use semantics::{is_email, is_hostname, name_variables};
pub use trie::{AnalysisTrie, Node, NodeKey};

use crate::pattern::{Pattern, PatternElement};
use crate::token::{TokenType, TokenizedMessage};
use std::collections::HashMap;

/// Minimum group size before a constant *typed* token may be demoted to a
/// literal. Small groups (the paper: "if only one or two examples of the
/// message is present") keep their typed variables conservative.
const MIN_GROUP_FOR_DEMOTION: usize = 3;

/// Analyser configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnalyzerOptions {
    /// Demote variables whose observed values never vary (Sequence-RTG's
    /// limitation-4 fix). `false` reproduces plain Sequence behaviour where
    /// every typed token becomes a variable.
    pub quality_control: bool,
    /// Drain's routing in the analysis trie, its two departures from the
    /// published analyser: keep up to eight distinct leading words apart
    /// instead of merging them into a variable, and key every digit-bearing
    /// word at a position to one node.
    drain_routing: bool,
}

impl Default for AnalyzerOptions {
    fn default() -> Self {
        AnalyzerOptions {
            quality_control: true,
            drain_routing: true,
        }
    }
}

impl AnalyzerOptions {
    /// The Sequence-RTG analyser as published: quality control on, leading
    /// words merged like any other siblings, and one trie node per distinct
    /// word.
    pub fn paper() -> Self {
        AnalyzerOptions {
            drain_routing: false,
            ..AnalyzerOptions::default()
        }
    }

    /// Options reproducing the seminal Sequence analyser (no Sequence-RTG
    /// quality control).
    pub fn seminal_sequence() -> Self {
        AnalyzerOptions {
            quality_control: false,
            drain_routing: false,
        }
    }
}

/// A pattern discovered by one analysis run, with its supporting evidence.
#[derive(Debug, Clone, PartialEq)]
pub struct DiscoveredPattern {
    /// The mined pattern.
    pub pattern: Pattern,
    /// How many messages of the analysed batch the pattern covers.
    pub match_count: u64,
    /// Up to three unique example messages (the paper stores "up to three
    /// unique examples for each pattern which are used as test cases").
    pub examples: Vec<String>,
    /// Indices of all covered messages, into the slice passed to
    /// [`Analyzer::analyze`] or [`Analyzer::analyze_subset`] (so a subset's
    /// members index the whole slice, not the subset).
    pub member_indices: Vec<u32>,
}

/// The analyser. See the module docs.
#[derive(Debug, Clone, Default)]
pub struct Analyzer {
    opts: AnalyzerOptions,
}

impl Analyzer {
    /// An analyser with Sequence-RTG defaults.
    pub fn new() -> Analyzer {
        Analyzer::default()
    }

    /// An analyser with explicit options.
    pub fn with_options(opts: AnalyzerOptions) -> Analyzer {
        Analyzer { opts }
    }

    /// The active options.
    pub fn options(&self) -> AnalyzerOptions {
        self.opts
    }

    /// Mine patterns from a batch of messages. This is the seminal `Analyze`
    /// entry point: all messages go through the same set of per-length tries
    /// regardless of their source service. (`AnalyzeByService`, the
    /// Sequence-RTG extension, lives in the `sequence-rtg` crate and calls
    /// into this after partitioning.)
    pub fn analyze(&self, messages: &[TokenizedMessage]) -> Vec<DiscoveredPattern> {
        self.analyze_subset(messages, 0..messages.len() as u32)
    }

    /// Mine patterns from the messages at `indices` of `messages`, as if
    /// they alone had been passed to [`Analyzer::analyze`]; the result's
    /// `member_indices` index `messages`. Lets a caller mine the residue of
    /// a scanned batch without copying it.
    pub fn analyze_subset(
        &self,
        messages: &[TokenizedMessage],
        indices: impl IntoIterator<Item = u32>,
    ) -> Vec<DiscoveredPattern> {
        let mut out = Vec::new();
        for (_len, indices) in partition_by_token_count(messages, indices) {
            out.extend(self.analyze_same_length(messages, &indices));
        }
        out
    }

    /// Mine patterns from messages that all share one token count.
    fn analyze_same_length(
        &self,
        messages: &[TokenizedMessage],
        indices: &[u32],
    ) -> Vec<DiscoveredPattern> {
        let mut trie = AnalysisTrie::new();
        for &i in indices {
            trie.insert(i, &messages[i as usize].tokens, &self.opts);
        }
        trie.merge(&self.opts);
        let mut out = Vec::new();
        for path in trie.paths() {
            out.push(self.extract(messages, &path.nodes, path.terminal));
        }
        out
    }

    /// Peak trie size for a batch, without extraction — used by the memory
    /// accounting experiments around Fig. 5.
    pub fn trie_node_count(&self, messages: &[TokenizedMessage]) -> usize {
        let mut total = 0usize;
        for (_len, indices) in partition_by_token_count(messages, 0..messages.len() as u32) {
            let mut trie = AnalysisTrie::new();
            for &i in &indices {
                trie.insert(i, &messages[i as usize].tokens, &self.opts);
            }
            total += trie.node_count();
        }
        total
    }

    /// Turn one merged trie path into a pattern.
    fn extract(
        &self,
        messages: &[TokenizedMessage],
        nodes: &[&Node],
        terminal: &[u32],
    ) -> DiscoveredPattern {
        let group_size = terminal.len();
        let mut elements = Vec::with_capacity(nodes.len());
        for node in nodes {
            elements.push(element_for(&self.opts, node, group_size));
        }
        // Multi-line messages: pattern covers the first line only; tell the
        // parser to ignore everything after it (limitation 6).
        let multiline = terminal
            .iter()
            .any(|&i| messages[i as usize].truncated_multiline);
        let pattern = finalize_pattern(elements, multiline);
        let mut examples: Vec<String> = Vec::new();
        for &i in terminal {
            let raw = messages[i as usize].source();
            if !examples.iter().any(|e| *e == raw) {
                examples.push(raw.into_owned());
                if examples.len() == 3 {
                    break;
                }
            }
        }
        DiscoveredPattern {
            pattern,
            match_count: group_size as u64,
            examples,
            member_indices: terminal.to_vec(),
        }
    }
}

/// Turn one trie position into a pattern element — the variable-induction
/// semantics. A position is summarised by its node (key, the distinct values
/// observed there as a bounded sample, whether all of them were emails or
/// host names, spacing) and the size of the group the containing pattern
/// covers (quality-control demotion is only confident on groups of
/// `MIN_GROUP_FOR_DEMOTION` or more).
fn element_for(opts: &AnalyzerOptions, node: &Node, group_size: usize) -> PatternElement {
    let (observed, space_before) = (&node.observed, node.space_before);
    // The digit fold's node is its one value's literal when it saw only one.
    let single_digits = match &node.key {
        NodeKey::Digits if observed.len() == 1 => observed.first(),
        _ => None,
    };
    match (&node.key, single_digits) {
        (NodeKey::Lit(text), _) | (NodeKey::Digits, Some(text)) => {
            // Analysis-time special types: a constant email or host
            // name is still worth capturing as a typed variable.
            if is_email(text) {
                PatternElement::Variable {
                    name: String::new(),
                    ty: TokenType::Email,
                    space_before,
                }
            } else if is_hostname(text) {
                PatternElement::Variable {
                    name: String::new(),
                    ty: TokenType::Hostname,
                    space_before,
                }
            } else {
                PatternElement::Literal {
                    text: text.clone(),
                    space_before,
                }
            }
        }
        (NodeKey::Typed(ty), _) => {
            let constant = observed.len() == 1;
            if opts.quality_control && constant && group_size >= MIN_GROUP_FOR_DEMOTION {
                // Limitation-4 fix: a typed token that never varies is
                // static text, not a variable.
                PatternElement::Literal {
                    text: observed.iter().next().unwrap().clone(),
                    space_before,
                }
            } else {
                PatternElement::Variable {
                    name: String::new(),
                    ty: *ty,
                    space_before,
                }
            }
        }
        (NodeKey::Var(_) | NodeKey::Digits, _) => PatternElement::Variable {
            name: String::new(),
            ty: refine_string_type(node),
            space_before,
        },
    }
}

/// Finish a pattern from its positional elements: append the multi-line
/// `IgnoreRest` marker (limitation 6), run semantic variable naming, and
/// build the [`Pattern`].
fn finalize_pattern(mut elements: Vec<PatternElement>, multiline: bool) -> Pattern {
    if multiline {
        elements.push(PatternElement::IgnoreRest);
    }
    name_variables(&mut elements);
    Pattern::new(elements).expect("ignore-rest only appended at the end")
}

/// Second-level partitioning — one analysis trie per token count ("only
/// token sets of the same length are compared in the same analysis trie").
/// Empty messages are skipped; groups come back in ascending length order so
/// extraction is deterministic. Shared by [`Analyzer::analyze_subset`] and
/// [`Analyzer::trie_node_count`].
fn partition_by_token_count(
    messages: &[TokenizedMessage],
    indices: impl IntoIterator<Item = u32>,
) -> Vec<(usize, Vec<u32>)> {
    let mut by_len: HashMap<usize, Vec<u32>> = HashMap::new();
    for i in indices {
        let m = &messages[i as usize];
        if m.tokens.is_empty() {
            continue;
        }
        by_len.entry(m.token_count()).or_default().push(i);
    }
    let mut groups: Vec<(usize, Vec<u32>)> = by_len.into_iter().collect();
    groups.sort_unstable_by_key(|&(len, _)| len);
    groups
}

/// Refine a merged string variable's type from the values its node saw: if
/// every one of them (not only the sampled ones) is an email (or host name),
/// the variable is typed accordingly, so the pattern matches every line it
/// was mined from.
fn refine_string_type(node: &Node) -> TokenType {
    if node.all_email {
        TokenType::Email
    } else if node.all_host {
        TokenType::Hostname
    } else {
        TokenType::Literal
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::PatternSet;
    use crate::scanner::Scanner;
    use testkit::prop::{self, Config};
    use testkit::rng::Rng;
    use testkit::{prop_assert, prop_assert_eq};

    fn analyze(msgs: &[&str]) -> Vec<DiscoveredPattern> {
        let scanner = Scanner::new();
        let scanned: Vec<_> = msgs.iter().map(|m| scanner.scan(m)).collect();
        Analyzer::new().analyze(&scanned)
    }

    #[test]
    fn single_event_with_varying_fields() {
        let out = analyze(&[
            "Accepted password for root from 10.2.3.4 port 22 ssh2",
            "Accepted password for admin from 10.9.9.9 port 2200 ssh2",
            "Accepted password for guest from 172.16.0.5 port 22022 ssh2",
        ]);
        assert_eq!(out.len(), 1);
        assert_eq!(
            out[0].pattern.render(),
            "Accepted password for %object% from %srcip:ipv4% port %port:integer% ssh2"
        );
        assert_eq!(out[0].match_count, 3);
        assert_eq!(out[0].examples.len(), 3);
    }

    #[test]
    fn two_events_two_patterns() {
        let out = analyze(&[
            "link up on port 7",
            "link up on port 9",
            "fan speed changed to 4000 rpm",
            "fan speed changed to 2000 rpm",
        ]);
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn quality_control_demotes_constant_integer() {
        // `ssh2` ends with a digit but scans as literal; the constant port 22
        // would be %integer% under plain Sequence but is demoted by RTG.
        let out = analyze(&[
            "Failed password for invalid user alice from 1.2.3.4 port 22",
            "Failed password for invalid user bob from 1.2.3.5 port 22",
            "Failed password for invalid user carol from 1.2.3.6 port 22",
        ]);
        assert_eq!(out.len(), 1);
        let rendered = out[0].pattern.render();
        assert!(
            rendered.ends_with("port 22"),
            "constant port should be demoted to a literal: {rendered}"
        );
    }

    #[test]
    fn seminal_sequence_keeps_constant_typed_variables() {
        let scanner = Scanner::new();
        let msgs: Vec<_> = [
            "Failed password for invalid user alice from 1.2.3.4 port 22",
            "Failed password for invalid user bob from 1.2.3.5 port 22",
            "Failed password for invalid user carol from 1.2.3.6 port 22",
        ]
        .iter()
        .map(|m| scanner.scan(m))
        .collect();
        let out = Analyzer::with_options(AnalyzerOptions::seminal_sequence()).analyze(&msgs);
        let rendered = out[0].pattern.render();
        assert!(
            rendered.contains("port %"),
            "seminal Sequence keeps the constant port as a variable: {rendered}"
        );
    }

    #[test]
    fn singleton_message_word_for_word() {
        let out = analyze(&["completely unique message text here"]);
        assert_eq!(out.len(), 1);
        assert_eq!(
            out[0].pattern.render(),
            "completely unique message text here"
        );
        assert_eq!(out[0].pattern.variable_count(), 0);
    }

    #[test]
    fn singleton_with_typed_tokens_keeps_variables() {
        // Group of one: demotion threshold not reached, typed tokens stay
        // variables (paper: under-patternised singletons are a limitation,
        // mitigated by the save threshold, not by the analyser).
        let out = analyze(&["request took 35 ms"]);
        assert_eq!(
            out[0].pattern.render(),
            "request took %duration:integer% ms"
        );
    }

    #[test]
    fn multiline_gets_ignore_rest() {
        let out = analyze(&[
            "panic: oh no\n  at frame 1\n  at frame 2",
            "panic: oh dear\n  at frame 9",
            "panic: oh my\nstack",
        ]);
        assert_eq!(out.len(), 1);
        assert!(out[0].pattern.has_ignore_rest());
        assert!(out[0].pattern.render().ends_with("%...%"));
    }

    #[test]
    fn email_refinement() {
        let out = analyze(&[
            "mail rejected for alice@example.com spam",
            "mail rejected for bob@corp.example.org spam",
            "mail rejected for eve@mail.example.net spam",
        ]);
        assert_eq!(out.len(), 1);
        assert!(
            out[0].pattern.render().contains(":email%"),
            "{}",
            out[0].pattern.render()
        );
    }

    #[test]
    fn constant_hostname_becomes_typed_variable() {
        let out = analyze(&[
            "query from ns1.example.com ok",
            "query from ns1.example.com ok",
            "query from ns1.example.com ok",
        ]);
        assert!(
            out[0].pattern.render().contains(":host%"),
            "{}",
            out[0].pattern.render()
        );
    }

    #[test]
    fn kv_fields_named_after_key() {
        let out = analyze(&[
            "audit: pid=100 uid=0 success",
            "audit: pid=200 uid=0 success",
            "audit: pid=300 uid=0 success",
        ]);
        assert_eq!(out.len(), 1);
        let r = out[0].pattern.render();
        assert!(r.contains("pid=%pid:integer%"), "{r}");
        // uid is constant 0 → demoted to literal by quality control.
        assert!(r.contains("uid=0"), "{r}");
    }

    #[test]
    fn empty_messages_ignored() {
        let out = analyze(&["", "   ", "real message"]);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].pattern.render(), "real message");
    }

    #[test]
    fn member_indices_cover_all_messages() {
        let out = analyze(&["a x 1", "a y 2", "b deep structure here"]);
        let mut all: Vec<u32> = out.iter().flat_map(|d| d.member_indices.clone()).collect();
        all.sort_unstable();
        assert_eq!(all, vec![0, 1, 2]);
    }

    #[test]
    fn examples_unique_and_capped_at_three() {
        let msgs: Vec<String> = (0..10).map(|i| format!("worker {i} spawned")).collect();
        let refs: Vec<&str> = msgs.iter().map(|s| s.as_str()).collect();
        let out = analyze(&refs);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].examples.len(), 3);
        assert_eq!(out[0].match_count, 10);
    }

    #[test]
    fn distinct_leading_words_stay_apart() {
        let scanner = Scanner::new();
        let scanned: Vec<_> = [
            "Accepted password for root from 10.2.3.4 port 22 ssh2",
            "Accepted password for root from 10.9.9.9 port 2200 ssh2",
            "Failed password for root from 172.16.0.5 port 22022 ssh2",
            "Failed password for root from 10.0.0.7 port 4022 ssh2",
        ]
        .iter()
        .map(|m| scanner.scan(m))
        .collect();
        let out = Analyzer::new().analyze(&scanned);
        let mut renders: Vec<String> = out.iter().map(|d| d.pattern.render()).collect();
        renders.sort();
        assert_eq!(
            renders,
            [
                "Accepted password for root from %srcip:ipv4% port %port:integer% ssh2",
                "Failed password for root from %srcip:ipv4% port %port:integer% ssh2",
            ]
        );
        let paper = Analyzer::with_options(AnalyzerOptions::paper()).analyze(&scanned);
        assert_eq!(paper.len(), 1, "the published merge");
    }

    /// Digit-bearing constants the generator never produces stay literal
    /// when single-valued, each leading word keeping its own pattern.
    #[test]
    fn single_valued_digit_constants_stay_literal_under_each_leading_word() {
        let msgs: Vec<String> = ["GET", "PUT"]
            .iter()
            .flat_map(|verb| {
                (0..4).map(move |i| {
                    format!("{verb} blob sha256 from 192.168.7.7 via HTTP/1.1 took {i}{i}7 ms")
                })
            })
            .collect();
        let refs: Vec<&str> = msgs.iter().map(|s| s.as_str()).collect();
        let out = analyze(&refs);
        assert_eq!(out.len(), 2, "{out:?}");
        for d in &out {
            let r = d.pattern.render();
            assert!(r.starts_with("GET ") || r.starts_with("PUT "), "{r}");
            for constant in [" sha256 ", " 192.168.7.7 ", " HTTP/1.1 "] {
                assert!(r.contains(constant), "{constant:?} stays literal: {r}");
            }
            assert!(r.contains("took %"), "the duration varies: {r}");
        }
    }

    /// A leading user or host name takes many values: past eight it is a
    /// variable, digit-bearing or not.
    #[test]
    fn high_fan_out_leading_names_still_merge() {
        let users: Vec<String> = (0..12)
            .map(|i| {
                format!(
                    "user{} logged in from tty{}",
                    "abcdefghijkl".as_bytes()[i] as char,
                    i % 3
                )
            })
            .collect();
        let hosts: Vec<String> = (0..12)
            .map(|i| format!("node{i}x kernel: link is up"))
            .collect();
        for msgs in [users, hosts] {
            let refs: Vec<&str> = msgs.iter().map(|s| s.as_str()).collect();
            let out = analyze(&refs);
            assert_eq!(out.len(), 1, "{out:?}");
            assert!(
                out[0].pattern.elements()[0].is_variable(),
                "{}",
                out[0].pattern.render()
            );
        }
    }

    /// A merged variable is typed host name only if every value it took is
    /// one, not only the eight it sampled, so the pattern matches every line
    /// it was credited with.
    #[test]
    fn refinement_reads_every_value_not_the_sample() {
        let mut msgs: Vec<String> = ('a'..='h')
            .map(|c| format!("query from ns{c}.example.com ok"))
            .collect();
        msgs.push("query from plainword ok".to_string());
        msgs.push("query from otherword ok".to_string());
        let scanner = Scanner::new();
        let scanned: Vec<_> = msgs.iter().map(|m| scanner.scan(m)).collect();
        for opts in [AnalyzerOptions::default(), AnalyzerOptions::paper()] {
            let out = Analyzer::with_options(opts).analyze(&scanned);
            assert_eq!(out.len(), 1, "{out:?}");
            assert_eq!(out[0].match_count, 10);
            let r = out[0].pattern.render();
            assert!(!r.contains(":host%"), "{r}");
            let mut set = PatternSet::new();
            set.insert("p", out[0].pattern.clone());
            let matched = scanned
                .iter()
                .filter(|m| set.match_message(m).is_some())
                .count();
            assert_eq!(matched, 10, "{r}");
        }
    }

    /// HealthApp-style pairs of digit-bearing words drawn from small pools:
    /// every value has a different set of successors, so no two literal
    /// siblings would merge, but the digit fold keys each position to one
    /// node.
    #[test]
    fn digit_bearing_fan_out_folds_into_one_pattern() {
        let msgs: Vec<String> = (0..10)
            .map(|i| {
                format!(
                    "onStandStepChanged onreceive{} buffer{} flushed",
                    [97, 12, 5, 40][i % 4],
                    [31, 7, 66, 2, 18][i % 5]
                )
            })
            .collect();
        let refs: Vec<&str> = msgs.iter().map(|s| s.as_str()).collect();
        let out = analyze(&refs);
        assert_eq!(out.len(), 1, "{out:?}");
        let elements = out[0].pattern.elements();
        assert!(elements[1].is_variable() && elements[2].is_variable());
        assert!(
            out[0].pattern.render().ends_with("% flushed"),
            "{}",
            out[0].pattern.render()
        );
    }

    /// The digit fold's cost on raw lines: two events that differ only by a
    /// digit-bearing constant at one position merge into one pattern, where
    /// the published merge keeps them apart.
    #[test]
    fn digit_bearing_constants_of_two_events_merge() {
        let msgs: Vec<String> = [
            ("HTTP/1.1", "alice"),
            ("HTTP/1.1", "bob"),
            ("HTTP/2", "carol"),
            ("HTTP/2", "dave"),
        ]
        .iter()
        .map(|(proto, user)| format!("request via {proto} {user} served"))
        .collect();
        let scanner = Scanner::new();
        let scanned: Vec<_> = msgs.iter().map(|m| scanner.scan(m)).collect();
        let out = Analyzer::new().analyze(&scanned);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].pattern.elements()[2].is_variable());
        let paper = Analyzer::with_options(AnalyzerOptions::paper()).analyze(&scanned);
        let mut renders: Vec<String> = paper.iter().map(|d| d.pattern.render()).collect();
        renders.sort();
        assert_eq!(renders.len(), 2, "{renders:?}");
        assert!(
            renders[0].starts_with("request via HTTP/1.1 %"),
            "{renders:?}"
        );
        assert!(
            renders[1].starts_with("request via HTTP/2 %"),
            "{renders:?}"
        );
    }

    /// The Proxifier flip survives the fold: a digit-bearing literal seen
    /// once is its literal again, and the typed integer stays apart.
    #[test]
    fn typed_flip_survives_the_digit_fold() {
        let out = analyze(&["sent 64 bytes", "sent 64* bytes", "sent 128 bytes"]);
        let mut renders: Vec<String> = out.iter().map(|d| d.pattern.render()).collect();
        renders.sort();
        assert_eq!(renders.len(), 2, "{renders:?}");
        assert_eq!(renders[0], "sent %integer0:integer% bytes");
        assert_eq!(renders[1], "sent 64* bytes");
    }

    /// One to three letters outside the hex digits.
    fn letters(rng: &mut Rng) -> String {
        (0..rng.gen_range(1..4usize))
            .map(|_| (b'g' + rng.gen_range(0..20u8)) as char)
            .collect()
    }

    /// N lines of 2 to 5 words, every word distinct and digit-bearing.
    fn distinct_digit_words(rng: &mut Rng) -> Vec<Vec<String>> {
        let mut seen = std::collections::HashSet::new();
        let mut lines = Vec::new();
        for _ in 0..rng.gen_range(1..40usize) {
            let mut line = Vec::new();
            while line.len() < rng.gen_range(2..6usize) {
                let w = format!(
                    "{}{}{}",
                    letters(rng),
                    rng.gen_range(0..1000u32),
                    letters(rng)
                );
                if seen.insert(w.clone()) {
                    line.push(w);
                }
            }
            lines.push(line);
        }
        lines
    }

    /// The trie's bound (paper limitation 5): lines of distinct
    /// digit-bearing words give one node per position per token count, and
    /// one pattern per token count. The published merge mines one pattern
    /// per line.
    #[test]
    fn distinct_digit_words_fold_to_one_node_per_position() {
        prop::check(
            &Config::cases(100),
            &prop::from_fn(distinct_digit_words),
            |lines| {
                let scanner = Scanner::new();
                let scanned: Vec<_> = lines.iter().map(|l| scanner.scan(&l.join(" "))).collect();
                for (m, l) in scanned.iter().zip(lines) {
                    prop_assert_eq!(m.token_count(), l.len());
                    prop_assert!(m.tokens.iter().all(|t| !t.ty.is_typed()));
                }
                let lengths: std::collections::BTreeSet<usize> =
                    lines.iter().map(|l| l.len()).collect();
                let analyzer = Analyzer::new();
                prop_assert_eq!(
                    analyzer.trie_node_count(&scanned),
                    lengths.iter().map(|k| 1 + k).sum::<usize>()
                );
                prop_assert_eq!(analyzer.analyze(&scanned).len(), lengths.len());
                let paper = Analyzer::with_options(AnalyzerOptions::paper());
                prop_assert_eq!(paper.analyze(&scanned).len(), lines.len());
                Ok(())
            },
        );
    }

    /// One tail position: a fixed word or a typed token whose value varies
    /// per message.
    #[derive(Debug, Clone, Copy)]
    enum Tail {
        Word(&'static str),
        Integer,
        Ipv4,
    }

    #[derive(Debug, Clone)]
    struct LeadingWords {
        words: Vec<String>,
        tails: usize,
        messages: Vec<String>,
    }

    /// k distinct leading words, each followed by every one of up to three
    /// tails of distinct lengths (0 to 6 tokens), one to three messages per
    /// pair.
    fn leading_words(rng: &mut Rng) -> LeadingWords {
        const TAIL_WORDS: [&str; 8] = [
            "for", "from", "port", "ssh2", "session", "closed", "by", "user",
        ];
        let k = rng.gen_range(1..13usize);
        let mut words: Vec<String> = Vec::with_capacity(k);
        while words.len() < k {
            let len = rng.gen_range(2..9usize);
            let w: String = (0..len)
                .map(|_| (b'a' + rng.gen_range(0..26u8)) as char)
                .collect();
            if !words.contains(&w) {
                words.push(w);
            }
        }
        let mut lengths: Vec<usize> = (0..7).collect();
        rng.shuffle(&mut lengths);
        lengths.truncate(rng.gen_range(1..4usize));
        let tails: Vec<Vec<Tail>> = lengths
            .iter()
            .map(|&n| {
                (0..n)
                    .map(|_| match rng.gen_range(0..4u32) {
                        0 => Tail::Integer,
                        1 => Tail::Ipv4,
                        _ => Tail::Word(rng.choose(&TAIL_WORDS).unwrap()),
                    })
                    .collect()
            })
            .collect();
        let mut messages = Vec::new();
        for word in &words {
            for tail in &tails {
                for _ in 0..rng.gen_range(1..4usize) {
                    let mut msg = word.clone();
                    for tok in tail {
                        msg.push(' ');
                        match tok {
                            Tail::Word(w) => msg.push_str(w),
                            Tail::Integer => {
                                msg.push_str(&rng.gen_range(0..100_000u32).to_string())
                            }
                            Tail::Ipv4 => msg.push_str(&format!(
                                "10.{}.{}.{}",
                                rng.gen_range(0..256u32),
                                rng.gen_range(0..256u32),
                                rng.gen_range(1..255u32)
                            )),
                        }
                    }
                    messages.push(msg);
                }
            }
        }
        LeadingWords {
            words,
            tails: tails.len(),
            messages,
        }
    }

    /// The leading-word rule: k distinct leading words with identical tails
    /// give k patterns per tail when k ≤ 8, and one pattern with a leading
    /// variable when k ≥ 9.
    #[test]
    fn leading_words_split_up_to_eight_then_merge() {
        prop::check(&Config::cases(200), &prop::from_fn(leading_words), |case| {
            let refs: Vec<&str> = case.messages.iter().map(|s| s.as_str()).collect();
            let out = analyze(&refs);
            let k = case.words.len();
            let per_tail = if k <= 8 { k } else { 1 };
            prop_assert_eq!(out.len(), case.tails * per_tail);
            for d in &out {
                match &d.pattern.elements()[0] {
                    PatternElement::Literal { text, .. } => {
                        prop_assert!(
                            k <= 8 && case.words.contains(text),
                            "{}",
                            d.pattern.render()
                        )
                    }
                    other => prop_assert!(k > 8 && other.is_variable(), "{}", d.pattern.render()),
                }
            }
            Ok(())
        });
    }
}
