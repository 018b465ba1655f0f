//! The Sequence scanner: single-pass tokenisation of raw log messages.
//!
//! The scanner walks the message once. At each token start it gives the
//! specialised finite state machines a chance, in priority order — URL,
//! datetime, hexadecimal (MAC / IPv6 / hex string) — and otherwise extracts a
//! word and classifies it with the general machine. Break punctuation
//! (brackets, quotes, `=`, `:` …) forms single-character literal tokens, so a
//! `key=value` field scans to three tokens, which is what the analyser's
//! key/value detection relies on.
//!
//! Sequence-RTG additions implemented here:
//!
//! * every token records `is_space_before` (limitation 3: exact pattern
//!   reconstruction);
//! * multi-line messages are truncated to their first line and flagged, so the
//!   caller can append an "ignore rest" marker to the discovered pattern
//!   (limitation 6).

mod general;
mod hex_fsm;
mod time_fsm;

pub use general::{classify_word, is_break_char, match_url};

use crate::token::{Token, TokenType, TokenizedMessage};

/// Configuration for the scanner.
///
/// The default is the production scanner: both of the paper's future-work
/// machines (§VI) are on. [`ScannerOptions::paper`] is the scanner as
/// published (§IV), kept to reproduce the paper's documented limitations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScannerOptions {
    /// Recognise filesystem paths as a dedicated token type (the paper's
    /// future-work "fourth finite state machine"). The published scanner
    /// leaves paths as literals, which the paper lists as a limitation.
    detect_paths: bool,
    /// Accept single-digit hour/minute/second fields in timestamps (the
    /// paper's future-work fix for the HealthApp failure). The published
    /// scanner needs two digits.
    allow_single_digit_time: bool,
}

impl Default for ScannerOptions {
    fn default() -> Self {
        ScannerOptions {
            detect_paths: true,
            allow_single_digit_time: true,
        }
    }
}

impl ScannerOptions {
    /// The scanner as published: paths scan as literals and timestamps need
    /// two-digit time parts — the limitations §IV documents.
    pub fn paper() -> Self {
        ScannerOptions {
            detect_paths: false,
            allow_single_digit_time: false,
        }
    }
}

/// The single-pass tokenizer.
#[derive(Debug, Clone, Default)]
pub struct Scanner {
    opts: ScannerOptions,
}

impl Scanner {
    /// A scanner with the default (production) options.
    pub fn new() -> Scanner {
        Scanner::default()
    }

    /// A scanner with explicit options.
    pub fn with_options(opts: ScannerOptions) -> Scanner {
        Scanner { opts }
    }

    /// The active options.
    pub fn options(&self) -> ScannerOptions {
        self.opts
    }

    /// Tokenise a message, capturing the raw text (one allocation). If the
    /// message spans several lines only the first line is scanned and the
    /// result is flagged `truncated_multiline`.
    ///
    /// Use this on paths that need the original text afterwards (the
    /// analyser stores raw examples in the pattern database). Pure matching
    /// paths should prefer [`Scanner::scan_parse_only`] or
    /// [`Scanner::scan_into`], which skip the raw copy.
    pub fn scan(&self, raw: &str) -> TokenizedMessage {
        let mut out = TokenizedMessage {
            raw: Some(raw.into()),
            tokens: Vec::new(),
            truncated_multiline: false,
        };
        self.scan_body(raw, &mut out);
        out
    }

    /// Tokenise a message without copying the raw text — the allocation-lean
    /// variant for the parse-only hot path (`TokenizedMessage.raw` is
    /// `None`). Token structure is identical to [`Scanner::scan`].
    pub fn scan_parse_only(&self, raw: &str) -> TokenizedMessage {
        let mut out = TokenizedMessage {
            raw: None,
            tokens: Vec::new(),
            truncated_multiline: false,
        };
        self.scan_body(raw, &mut out);
        out
    }

    /// Tokenise a message into a caller-owned buffer, reusing its token
    /// `Vec` allocation across calls. The raw text is not captured. This is
    /// the zero-allocation-steady-state API for tight loops over a message
    /// stream: tokens up to [`crate::text::TokenText::INLINE_CAP`] bytes are
    /// stored inline, so once the buffer has grown to the stream's working
    /// size a scan typically allocates nothing.
    pub fn scan_into(&self, raw: &str, out: &mut TokenizedMessage) {
        out.raw = None;
        out.tokens.clear();
        out.truncated_multiline = false;
        self.scan_body(raw, out);
    }

    fn scan_body(&self, raw: &str, out: &mut TokenizedMessage) {
        // Sampled 1-in-16: the scanner is the tightest loop in the system
        // (~1.7M msgs/s); sampling keeps the probe overhead under the noise
        // floor while still populating `core_scan_seconds`.
        let _s = obs::sampled_span!("core.scan", 4);
        let (line, truncated) = match raw.find('\n') {
            Some(pos) => (&raw[..pos], true),
            None => (raw, false),
        };
        let line = line.strip_suffix('\r').unwrap_or(line);
        out.truncated_multiline = truncated;
        self.scan_line_into(line, &mut out.tokens);
    }

    fn scan_line_into(&self, line: &str, tokens: &mut Vec<Token>) {
        let b = line.as_bytes();
        let mut i = 0usize;
        let mut space_before = false;
        while i < b.len() {
            let c = b[i] as char;
            if c.is_ascii_whitespace() {
                space_before = true;
                i += 1;
                continue;
            }
            let rest = &line[i..];
            // URL machine (must run before word extraction: URLs contain
            // break characters).
            if let Some(len) = general::match_url(rest) {
                tokens.push(Token::new(&rest[..len], TokenType::Url, space_before));
                i += len;
                space_before = false;
                continue;
            }
            // Datetime machine.
            if let Some(len) = time_fsm::match_at(rest, self.opts.allow_single_digit_time) {
                if general::is_boundary(b, i + len) {
                    tokens.push(Token::new(&rest[..len], TokenType::Time, space_before));
                    i += len;
                    space_before = false;
                    continue;
                }
            }
            // Hexadecimal machine.
            if let Some((len, ty)) = hex_fsm::match_at(rest) {
                if general::is_boundary(b, i + len) {
                    tokens.push(Token::new(&rest[..len], ty, space_before));
                    i += len;
                    space_before = false;
                    continue;
                }
            }
            // Break punctuation: a single-character literal token.
            if general::is_break_char(c) {
                tokens.push(Token::literal(c, space_before));
                i += 1;
                space_before = false;
                continue;
            }
            // General machine: extract a word (maximal run of non-break,
            // non-whitespace bytes; multi-byte UTF-8 sequences count as word
            // characters) and classify it.
            let start = i;
            while i < b.len() {
                let wc = b[i] as char;
                if b[i] < 0x80 && (wc.is_ascii_whitespace() || general::is_break_char(wc)) {
                    break;
                }
                i += 1;
            }
            let mut word = &line[start..i];
            // Split trailing sentence dots off the word ("done." → "done",
            // ".") unless the word is nothing but dots.
            let mut trailing_dots = 0usize;
            while word.len() > trailing_dots + 1
                && word.as_bytes()[word.len() - 1 - trailing_dots] == b'.'
            {
                trailing_dots += 1;
            }
            if trailing_dots > 0 && word.len() > trailing_dots {
                let head = &word[..word.len() - trailing_dots];
                // Only strip when the head itself does not end in a digit run
                // that the dots belong to (ellipses after numbers are rare;
                // sentence dots after words are common). We strip in all
                // cases: "3.14." → "3.14" + ".".
                word = head;
            }
            let ty = general::classify_word(word, self.opts.detect_paths);
            tokens.push(Token::new(word, ty, space_before));
            space_before = false;
            for k in 0..trailing_dots {
                let at = start + word.len() + k;
                tokens.push(Token::literal(&line[at..at + 1], false));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan(s: &str) -> Vec<Token> {
        Scanner::new().scan(s).tokens
    }

    fn types(s: &str) -> Vec<TokenType> {
        scan(s).iter().map(|t| t.ty).collect()
    }

    fn texts(s: &str) -> Vec<String> {
        scan(s).iter().map(|t| t.text.to_string()).collect()
    }

    #[test]
    fn simple_words() {
        assert_eq!(texts("connection closed"), vec!["connection", "closed"]);
        assert_eq!(
            types("connection closed"),
            vec![TokenType::Literal, TokenType::Literal]
        );
    }

    #[test]
    fn ssh_like_message() {
        let toks = scan("Accepted password for root from 10.2.3.4 port 22 ssh2");
        let tys: Vec<_> = toks.iter().map(|t| t.ty).collect();
        assert_eq!(
            tys,
            vec![
                TokenType::Literal, // Accepted
                TokenType::Literal, // password
                TokenType::Literal, // for
                TokenType::Literal, // root
                TokenType::Literal, // from
                TokenType::Ipv4,    // 10.2.3.4
                TokenType::Literal, // port
                TokenType::Integer, // 22
                TokenType::Literal, // ssh2
            ]
        );
    }

    #[test]
    fn space_before_tracking() {
        let toks = scan("pid=123 uid=0");
        let texts: Vec<_> = toks
            .iter()
            .map(|t| (t.text.as_str(), t.is_space_before))
            .collect();
        assert_eq!(
            texts,
            vec![
                ("pid", false),
                ("=", false),
                ("123", false),
                ("uid", true),
                ("=", false),
                ("0", false),
            ]
        );
    }

    #[test]
    fn exact_reconstruction() {
        for msg in [
            "Accepted password for root from 10.2.3.4 port 22 ssh2",
            "pid=123 uid=0 comm=sshd",
            "GET /index.html HTTP/1.1",
            "error [core:notice] caught SIGTERM, shutting down",
            "up 3.5 days, load 0.12",
        ] {
            let t = Scanner::new().scan(msg);
            assert_eq!(t.reconstruct(), msg, "reconstruction of {msg:?}");
        }
    }

    #[test]
    fn syslog_timestamp_single_token() {
        let toks = scan("Jun 14 15:16:01 combo sshd(pam_unix)[19939]: check pass");
        assert_eq!(toks[0].ty, TokenType::Time);
        assert_eq!(toks[0].text, "Jun 14 15:16:01");
    }

    #[test]
    fn datetime_boundary_respected() {
        // A digit run continuing after a would-be timestamp prevents the match.
        let toks = scan("12:34:56789xyz");
        assert_ne!(toks[0].ty, TokenType::Time);
    }

    #[test]
    fn punctuation_singles() {
        assert_eq!(
            texts("[x] (y) k=v"),
            vec!["[", "x", "]", "(", "y", ")", "k", "=", "v"]
        );
    }

    #[test]
    fn trailing_sentence_dot_is_split() {
        assert_eq!(texts("shutting down."), vec!["shutting", "down", "."]);
        // but a float keeps its inner dot
        assert_eq!(types("3.14"), vec![TokenType::Float]);
    }

    #[test]
    fn urls() {
        let toks = scan("fetch https://example.com/a?b=1 done");
        assert_eq!(toks[1].ty, TokenType::Url);
        assert_eq!(toks[1].text, "https://example.com/a?b=1");
    }

    #[test]
    fn mac_and_ipv6() {
        let toks = scan("dev 00:1a:2b:3c:4d:5e addr fe80::1");
        assert_eq!(toks[1].ty, TokenType::Mac);
        assert_eq!(toks[3].ty, TokenType::Ipv6);
    }

    #[test]
    fn multiline_truncated() {
        let t = Scanner::new().scan("first line here\nsecond line\nthird");
        assert!(t.truncated_multiline);
        assert_eq!(t.reconstruct(), "first line here");
    }

    #[test]
    fn windows_crlf() {
        let t = Scanner::new().scan("one two\r\nthree");
        assert!(t.truncated_multiline);
        assert_eq!(t.reconstruct(), "one two");
    }

    #[test]
    fn paths_typed_by_default_literal_in_the_paper_scanner() {
        assert_eq!(
            types("open /var/log/messages"),
            vec![TokenType::Literal, TokenType::Path]
        );
        let paper = Scanner::with_options(ScannerOptions::paper());
        let tys: Vec<_> = paper
            .scan("open /var/log/messages")
            .tokens
            .iter()
            .map(|t| t.ty)
            .collect();
        assert_eq!(tys, vec![TokenType::Literal, TokenType::Literal]);
    }

    #[test]
    fn proxifier_like_alnum_flip() {
        // `64` scans as Integer but `64*` as Literal — the type flip behind
        // the paper's Proxifier accuracy drop.
        assert_eq!(
            types("sent 64"),
            vec![TokenType::Literal, TokenType::Integer]
        );
        assert_eq!(
            types("sent 64*"),
            vec![TokenType::Literal, TokenType::Literal]
        );
    }

    #[test]
    fn non_ascii_words() {
        assert_eq!(texts("étoile détectée"), vec!["étoile", "détectée"]);
    }

    #[test]
    fn empty_and_whitespace_only() {
        assert!(scan("").is_empty());
        assert!(scan("   \t ").is_empty());
    }

    #[test]
    fn preprocessed_wildcard_marker() {
        // LogHub pre-processed data masks fields as `<*>`; it scans to three
        // punctuation/literal tokens that are identical across messages.
        assert_eq!(
            texts("blk <*> served"),
            vec!["blk", "<", "*", ">", "served"]
        );
    }

    #[test]
    fn negative_and_signed_numbers() {
        assert_eq!(
            types("delta -5 +7 -0.5"),
            vec![
                TokenType::Literal,
                TokenType::Integer,
                TokenType::Integer,
                TokenType::Float,
            ]
        );
    }
}
