//! Property test: the compiled discrimination-trie matcher behind
//! [`PatternSet::match_message`] returns bit-for-bit the same outcome —
//! winning pattern id *and* captures — as the naive linear reference scan
//! ([`PatternSet::match_message_linear`]), on randomly generated pattern
//! sets and messages; the set's packed entries rebuild exactly the patterns
//! that were inserted; and a copy-on-write clone never sees a later insert.
//! Coverage deliberately includes ignore-rest patterns, predicate-guarded
//! email/hostname variables, structural duplicates (exact specificity ties
//! resolved by insertion order), messages that match nothing, and patterns
//! only [`Pattern::new`] can build — static text with a `%` or a space in
//! it, arbitrary `space_before` bits — which a set that stored its patterns
//! as rendered text would lose.

use sequence_rtg_repro::sequence_core::{
    MatchScratch, ParseOutcome, Pattern, PatternElement, PatternSet, Scanner, TokenType,
    TokenizedMessage,
};
use testkit::prop::{self, Config, Strategy};
use testkit::rng::Rng;
use testkit::{prop_assert, prop_assert_eq};

const VOCAB: &[&str] = &[
    "session", "opened", "closed", "for", "from", "port", "worker", "panic", "alpha", "beta",
    "gamma", "failed", "retry", "22",
];

/// Static text `render()` → `parse()` does not bring back: `%` opens a tag
/// (the paper's unknown-tag limitation), a space splits the literal.
const UNRENDERABLE: &[&str] = &["%", "95%", "%d", "two words"];

const NAMES: &[&str] = &["user", "srcip", "n", "object-id", "string_1"];

const TYPES: &[TokenType] = &[
    TokenType::Literal,
    TokenType::Integer,
    TokenType::Float,
    TokenType::Ipv4,
    TokenType::Email,
    TokenType::Hostname,
    TokenType::Hex,
];

/// `(pattern_id, pattern)` pairs plus raw messages to match.
#[derive(Clone, Debug)]
struct Case {
    patterns: Vec<(String, Pattern)>,
    messages: Vec<String>,
}

struct MatcherCase;

impl Strategy for MatcherCase {
    type Value = Case;

    fn generate(&self, rng: &mut Rng) -> Case {
        // Straddles 32 patterns, where a small-set linear dispatch used to
        // take over from the index.
        let n_patterns = rng.gen_range(1..60usize);
        let mut patterns: Vec<(String, Pattern)> = Vec::with_capacity(n_patterns);
        for i in 0..n_patterns {
            // Structural duplicates force exact specificity ties, which the
            // trie must resolve by insertion order just like the linear scan.
            let pattern = if i > 0 && rng.gen_bool(0.2) {
                patterns[rng.gen_range(0..i)].1.clone()
            } else {
                gen_pattern(rng)
            };
            patterns.push((format!("p{i:02}"), pattern));
        }
        let n_messages = rng.gen_range(1..9usize);
        let messages = (0..n_messages)
            .map(|_| {
                if rng.gen_bool(0.7) {
                    let donor = &patterns[rng.gen_range(0..patterns.len())].1;
                    instantiate(rng, donor)
                } else {
                    gen_soup(rng)
                }
            })
            .collect();
        Case { patterns, messages }
    }

    fn shrink(&self, case: &Case) -> Vec<Case> {
        let mut out = Vec::new();
        if case.patterns.len() > 1 {
            for i in 0..case.patterns.len() {
                let mut c = case.clone();
                c.patterns.remove(i);
                out.push(c);
            }
        }
        if case.messages.len() > 1 {
            for i in 0..case.messages.len() {
                let mut c = case.clone();
                c.messages.remove(i);
                out.push(c);
            }
        }
        out
    }
}

fn gen_pattern(rng: &mut Rng) -> Pattern {
    let n = rng.gen_range(1..6usize);
    let mut elements = Vec::with_capacity(n + 1);
    for pos in 0..n {
        let space_before = rng.gen_bool(0.8);
        elements.push(if rng.gen_bool(0.55) {
            let words = if rng.gen_bool(0.1) {
                UNRENDERABLE
            } else {
                VOCAB
            };
            PatternElement::Literal {
                text: rng.choose(words).unwrap().to_string(),
                space_before,
            }
        } else {
            // Mostly positional names, so that sets share them; sometimes one
            // the patterns before it may never have used.
            let name = if rng.gen_bool(0.3) {
                rng.choose(NAMES).unwrap().to_string()
            } else {
                format!("v{pos}")
            };
            PatternElement::Variable {
                name,
                ty: *rng.choose(TYPES).unwrap(),
                space_before,
            }
        });
    }
    if rng.gen_bool(0.25) {
        elements.push(PatternElement::IgnoreRest);
    }
    Pattern::new(elements).expect("ignore-rest is last")
}

/// A message built to satisfy `pattern` (modulo scanner quirks — near-misses
/// are fine, the property holds either way).
fn instantiate(rng: &mut Rng, pattern: &Pattern) -> String {
    let mut words: Vec<String> = Vec::new();
    for el in pattern.elements() {
        words.push(match el {
            PatternElement::IgnoreRest => gen_soup(rng),
            PatternElement::Literal { text, .. } => text.clone(),
            PatternElement::Variable { ty, .. } => match ty {
                TokenType::Integer => format!("{}", rng.gen_range(0..100_000u32)),
                TokenType::Float => "3.25".to_string(),
                TokenType::Ipv4 => format!(
                    "10.0.{}.{}",
                    rng.gen_range(0..256u32),
                    rng.gen_range(0..256u32)
                ),
                TokenType::Email => "alice@example.com".to_string(),
                TokenType::Hostname => "node-1.example.org".to_string(),
                TokenType::Hex => "0xdeadbeef".to_string(),
                // Free-text variable: any word that scans as a literal.
                _ => rng
                    .choose(&["alice", "root", "eth0", "cron"])
                    .unwrap()
                    .to_string(),
            },
        });
    }
    words.retain(|w| !w.is_empty());
    words.join(" ")
}

fn gen_soup(rng: &mut Rng) -> String {
    let n = rng.gen_range(0..5usize);
    (0..n)
        .map(|_| rng.choose(VOCAB).unwrap().to_string())
        .collect::<Vec<_>>()
        .join(" ")
}

fn build_set(patterns: &[(String, Pattern)]) -> PatternSet {
    let mut set = PatternSet::new();
    for (id, pattern) in patterns {
        set.insert(id.clone(), pattern.clone());
    }
    set
}

/// What [`PatternSet::iter`] documents: the inserted pairs, by fixed token
/// count and then insertion order.
fn in_iter_order(patterns: &[(String, Pattern)]) -> Vec<(&str, Pattern)> {
    let mut pairs: Vec<(&str, Pattern)> = patterns
        .iter()
        .map(|(id, pattern)| (id.as_str(), pattern.clone()))
        .collect();
    pairs.sort_by_key(|(_, pattern)| pattern.fixed_token_count()); // stable
    pairs
}

/// What [`PatternSet::match_all`] documents, by scanning `patterns`.
fn match_all_linear(patterns: &[(String, Pattern)], msg: &TokenizedMessage) -> Vec<ParseOutcome> {
    let mut hits: Vec<(usize, ParseOutcome)> = Vec::new();
    for (i, (id, pattern)) in patterns.iter().enumerate() {
        if let Some(captures) = pattern.match_tokens(&msg.tokens) {
            let pattern_id = id.clone();
            hits.push((
                i,
                ParseOutcome {
                    pattern_id,
                    captures,
                },
            ));
        }
    }
    hits.sort_by(|(a, oa), (b, ob)| {
        let (pa, pb) = (&patterns[*a].1, &patterns[*b].1);
        pb.literal_count()
            .cmp(&pa.literal_count())
            .then_with(|| oa.pattern_id.cmp(&ob.pattern_id))
            .then_with(|| pa.has_ignore_rest().cmp(&pb.has_ignore_rest()))
            .then_with(|| a.cmp(b))
    });
    hits.into_iter().map(|(_, outcome)| outcome).collect()
}

/// The compiled trie index — `match_message`, `match_message_with` with a
/// reused scratch, and the id-only `match_id_with` — agrees bit-for-bit with
/// the naive linear reference scan at every set size.
#[test]
fn trie_matches_linear_reference() {
    let scanner = Scanner::new();
    prop::check(&Config::cases(1200), &MatcherCase, |case| {
        let set = build_set(&case.patterns);
        let mut scratch = MatchScratch::default();
        for m in &case.messages {
            let msg: TokenizedMessage = scanner.scan_parse_only(m);
            let linear = set.match_message_linear(&msg);
            prop_assert_eq!(&set.match_message(&msg), &linear, "message {:?}", m);
            prop_assert_eq!(
                &set.match_message_with(&msg, &mut scratch),
                &linear,
                "reused scratch on {:?}",
                m
            );
            prop_assert_eq!(
                set.match_id_with(&msg, &mut scratch),
                linear.as_ref().map(|o| o.pattern_id.as_str()),
                "id-only match on {:?}",
                m
            );
        }
        Ok(())
    });
}

/// The packed entries are exact: `iter()` gives back every inserted id and
/// pattern — each element's text, type and `space_before` bit, the
/// ignore-rest marker — in the documented order.
#[test]
fn iter_rebuilds_the_inserted_patterns() {
    prop::check(&Config::cases(600), &MatcherCase, |case| {
        let set = build_set(&case.patterns);
        let listed: Vec<(&str, Pattern)> = set.iter().collect();
        prop_assert_eq!(&listed, &in_iter_order(&case.patterns));
        Ok(())
    });
}

/// `match_all` returns exactly what scanning the inserted patterns returns —
/// ids and captures (whose names come out of the set's name interner) — in
/// the documented order: most literals first, then id, exact before
/// ignore-rest, then insertion order.
#[test]
fn match_all_matches_linear_reference() {
    let scanner = Scanner::new();
    prop::check(&Config::cases(600), &MatcherCase, |case| {
        let set = build_set(&case.patterns);
        for m in &case.messages {
            let msg = scanner.scan_parse_only(m);
            prop_assert_eq!(
                &set.match_all(&msg),
                &match_all_linear(&case.patterns, &msg),
                "message {:?}",
                m
            );
        }
        Ok(())
    });
}

/// Copy-on-write isolation: a clone taken part-way through a build keeps
/// returning exactly what a set built from that prefix alone returns — ids,
/// captures and patterns — while the original goes on to intern new literals
/// and new variable names and to match like a set built in one piece.
#[test]
fn clone_is_isolated_from_later_inserts() {
    let scanner = Scanner::new();
    prop::check(&Config::cases(300), &MatcherCase, |case| {
        let (prefix, rest) = case.patterns.split_at(case.patterns.len() / 2);
        let mut grown = build_set(prefix);
        let snapshot = grown.clone();
        prop_assert!(snapshot.ptr_eq(&grown), "clone copies nothing");
        for (id, pattern) in rest {
            grown.insert(id.clone(), pattern.clone());
        }
        prop_assert!(!snapshot.ptr_eq(&grown), "insert copied first");
        let listed: Vec<(&str, Pattern)> = snapshot.iter().collect();
        prop_assert_eq!(&listed, &in_iter_order(prefix), "snapshot's patterns");
        let listed: Vec<(&str, Pattern)> = grown.iter().collect();
        prop_assert_eq!(&listed, &in_iter_order(&case.patterns), "grown handle's");
        let (half, whole) = (build_set(prefix), build_set(&case.patterns));
        for m in &case.messages {
            let msg = scanner.scan_parse_only(m);
            for (handle, alone, inserted) in [
                (&snapshot, &half, prefix),
                (&grown, &whole, &case.patterns[..]),
            ] {
                let n = handle.len();
                prop_assert_eq!(
                    &handle.match_message(&msg),
                    &alone.match_message(&msg),
                    "handle of {} on {:?}",
                    n,
                    m
                );
                prop_assert_eq!(
                    &handle.match_all(&msg),
                    &match_all_linear(inserted, &msg),
                    "handle of {} on {:?}",
                    n,
                    m
                );
            }
        }
        Ok(())
    });
}
