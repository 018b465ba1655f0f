//! Cross-crate property-based tests on the core invariants
//! (testkit::prop; hermetic, seeded, shrinking).

use sequence_rtg_repro::loghub_synth::loghub2::{self, LOGHUB2_FAMILIES};
use sequence_rtg_repro::sequence_core::{
    Analyzer, AnalyzerOptions, Pattern, PatternSet, Scanner, ScannerOptions,
};
use testkit::prop::{self, Config, Strategy};
use testkit::rng::Rng;
use testkit::{prop_assert, prop_assert_eq, prop_assert_ne};

/// Strategy: a log-message-ish token list (printable ASCII words, numbers,
/// IPs, punctuation, the odd timestamp). The value is the word list so the
/// runner can shrink by dropping words; properties join with single spaces.
struct MessageWords;

impl Strategy for MessageWords {
    type Value = Vec<String>;

    fn generate(&self, rng: &mut Rng) -> Vec<String> {
        let n = rng.gen_range(1..10usize);
        (0..n).map(|_| gen_word(rng)).collect()
    }

    fn shrink(&self, words: &Vec<String>) -> Vec<Vec<String>> {
        let mut out = Vec::new();
        if words.len() > 1 {
            for i in 0..words.len() {
                let mut w = words.clone();
                w.remove(i);
                out.push(w);
            }
        }
        out
    }
}

fn gen_word(rng: &mut Rng) -> String {
    const IDENT_FIRST: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ";
    const IDENT_REST: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_.-";
    match rng.gen_range(0..8u32) {
        0 => {
            let mut w = String::new();
            w.push(char::from(*rng.choose(IDENT_FIRST).unwrap()));
            for _ in 0..rng.gen_range(0..12usize) {
                w.push(char::from(*rng.choose(IDENT_REST).unwrap()));
            }
            w
        }
        1 => {
            let n = rng.gen_range(1..9usize);
            (0..n)
                .map(|_| char::from(rng.gen_range(b'0'..=b'9')))
                .collect()
        }
        2 => format!(
            "{}.{}.{}.{}",
            if rng.gen_bool(0.5) { 10 } else { 192 },
            rng.gen_range(0..1000),
            rng.gen_range(0..1000),
            rng.gen_range(0..1000)
        ),
        3 => "pid=1234".to_string(),
        4 => "[core]".to_string(),
        5 => "2021-09-08 12:34:56".to_string(),
        6 => "0xdeadbeef".to_string(),
        _ => "done.".to_string(),
    }
}

fn join(words: &[String]) -> String {
    words.join(" ")
}

/// The scanner's `is_space_before` bookkeeping reconstructs any
/// single-spaced message exactly (limitation 3).
#[test]
fn scanner_reconstructs_single_spaced_messages() {
    prop::check(&Config::cases(200), &MessageWords, |words| {
        let msg = join(words);
        let t = Scanner::new().scan(&msg);
        prop_assert_eq!(t.reconstruct(), msg);
        Ok(())
    });
}

/// Scanning is total and deterministic on arbitrary input.
#[test]
fn scanner_total_and_deterministic() {
    prop::check(&Config::cases(200), &prop::unicode_string(0..200), |msg| {
        let a = Scanner::new().scan(msg);
        let b = Scanner::new().scan(msg);
        prop_assert_eq!(&a, &b);
        let paper = Scanner::with_options(ScannerOptions::paper()).scan(msg);
        prop_assert_eq!(paper.raw_text().expect("scan() keeps raw"), msg.as_str());
        Ok(())
    });
}

/// Every message that contributed to a mined pattern matches that pattern
/// (analysis → parsing consistency), and membership covers every non-empty
/// message exactly once.
#[test]
fn members_match_their_pattern() {
    prop::check(
        &Config::cases(200),
        &prop::vec(MessageWords, 1..20),
        |msg_words| {
            let msgs: Vec<String> = msg_words.iter().map(|w| join(w)).collect();
            let scanner = Scanner::new();
            let scanned: Vec<_> = msgs.iter().map(|m| scanner.scan(m)).collect();
            let discovered = Analyzer::new().analyze(&scanned);
            for d in &discovered {
                for &mi in &d.member_indices {
                    prop_assert!(
                        d.pattern.match_message(&scanned[mi as usize]).is_some(),
                        "message {:?} must match its own pattern {:?}",
                        msgs[mi as usize],
                        d.pattern.render()
                    );
                }
            }
            let mut covered: Vec<u32> = discovered
                .iter()
                .flat_map(|d| d.member_indices.clone())
                .collect();
            covered.sort_unstable();
            let expected: Vec<u32> = (0..scanned.len() as u32)
                .filter(|&i| !scanned[i as usize].tokens.is_empty())
                .collect();
            prop_assert_eq!(covered, expected);
            Ok(())
        },
    );
}

/// A batch for the analyser: a small `loghub2` sample (pre-processed,
/// content or raw lines), or messages built on a few shared skeletons with
/// one slot each that mostly holds a host name, else an email, a
/// digit-bearing word or a plain word, so merged variables see mixed values.
/// Half the time the host names arrive first, as they did when a variable's
/// type was refined from its first few values only.
fn mining_batch(rng: &mut Rng) -> Vec<String> {
    if rng.gen_bool(0.5) {
        let family = rng.choose(&LOGHUB2_FAMILIES).unwrap();
        let lines = rng.gen_range(20..300usize);
        let dataset = loghub2::dataset(family, lines, rng.gen_range(0..1000u64));
        let variant = rng.gen_range(0..3u32);
        return dataset
            .lines
            .into_iter()
            .map(|l| match variant {
                0 => l.preprocessed,
                1 => l.content,
                _ => l.raw,
            })
            .collect();
    }
    let skeletons: Vec<Vec<String>> = (0..rng.gen_range(1..4usize))
        .map(|_| MessageWords.generate(rng))
        .collect();
    let mut msgs: Vec<String> = (0..rng.gen_range(1..60usize))
        .map(|_| {
            let mut words = rng.choose(&skeletons).unwrap().clone();
            let slot = rng.gen_range(0..words.len());
            words[slot] = match rng.gen_range(0..10u32) {
                0..=5 => format!("ns{}.example.com", rng.gen_range(0..20u32)),
                6 => format!("user{}@example.org", rng.gen_range(0..20u32)),
                7 => format!("buffer{}", rng.gen_range(0..20u32)),
                8 => rng.choose(&["plainword", "otherword"]).unwrap().to_string(),
                _ => return join(&words),
            };
            join(&words)
        })
        .collect();
    if rng.gen_bool(0.5) {
        msgs.sort_by_key(|m| !m.contains(".example.com"));
    }
    msgs
}

/// Every mined pattern, alone in a `PatternSet`, matches each message it
/// was credited with, under the default and the published analyser.
#[test]
fn mined_patterns_match_their_members_through_a_set() {
    prop::check(&Config::cases(100), &prop::from_fn(mining_batch), |msgs| {
        let scanner = Scanner::new();
        let scanned: Vec<_> = msgs.iter().map(|m| scanner.scan(m)).collect();
        for opts in [AnalyzerOptions::default(), AnalyzerOptions::paper()] {
            for d in Analyzer::with_options(opts).analyze(&scanned) {
                let mut set = PatternSet::new();
                set.insert("p", d.pattern.clone());
                for &mi in &d.member_indices {
                    prop_assert!(
                        set.match_message(&scanned[mi as usize]).is_some(),
                        "{:?} does not match its pattern {:?} ({opts:?})",
                        msgs[mi as usize],
                        d.pattern.render()
                    );
                }
            }
        }
        Ok(())
    });
}

/// Mined patterns survive a render → parse round trip structurally.
#[test]
fn mined_patterns_round_trip() {
    prop::check(
        &Config::cases(200),
        &prop::vec(MessageWords, 1..12),
        |msg_words| {
            let msgs: Vec<String> = msg_words.iter().map(|w| join(w)).collect();
            let scanner = Scanner::new();
            let scanned: Vec<_> = msgs.iter().map(|m| scanner.scan(m)).collect();
            for d in Analyzer::new().analyze(&scanned) {
                let text = d.pattern.render();
                match Pattern::parse(&text) {
                    Ok(parsed) => {
                        prop_assert_eq!(parsed.render(), text, "re-render must be stable")
                    }
                    // A literal containing `%` is the paper's documented
                    // unknown-tag limitation — acceptable.
                    Err(e) => prop_assert!(
                        text.contains('%'),
                        "unexpected parse failure {e} for {text:?}"
                    ),
                }
            }
            Ok(())
        },
    );
}

/// The pattern id is a pure function of (pattern text, service).
#[test]
fn pattern_ids_reproducible() {
    let strategy = (
        prop::string("abcdefghijklmnopqrstuvwxyz %", 1..41),
        prop::word(1..13),
    );
    prop::check(&Config::cases(200), &strategy, |(text, svc)| {
        let a = sequence_rtg_repro::patterndb::pattern_id(text, svc);
        let b = sequence_rtg_repro::patterndb::pattern_id(text, svc);
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(a.len(), 40);
        let other = sequence_rtg_repro::patterndb::pattern_id(text, "different");
        prop_assert_ne!(a, other);
        Ok(())
    });
}

/// JSON stream round trip for arbitrary service names and messages
/// (including newlines and quotes).
#[test]
fn stream_record_round_trip() {
    let svc_chars = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_-";
    let strategy = (prop::string(svc_chars, 1..17), prop::unicode_string(0..120));
    prop::check(&Config::cases(200), &strategy, |(svc, msg)| {
        use sequence_rtg_repro::sequence_rtg::LogRecord;
        let r = LogRecord::new(svc.clone(), msg.clone());
        let line = r.to_json_line();
        prop_assert!(!line.contains('\n'));
        prop_assert_eq!(&LogRecord::from_json_line(&line).unwrap(), &r);
        Ok(())
    });
}
