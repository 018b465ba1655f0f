//! syslog-ng pattern database XML export (paper Fig. 3).
//!
//! Produces a `patterndb` version 4 document: one `<ruleset>` per service,
//! one `<rule>` per pattern (the rule id is the reproducible SHA1 pattern
//! id), the pattern translated into syslog-ng's `@PARSER:name@` syntax, and
//! the stored examples as `<test_message>` entries — "these test cases are
//! used by syslog-ng to ensure that all the example messages match their
//! pattern, and no other in the whole pattern database".

use super::ExportEntry;
use sequence_core::{PatternElement, TokenType};
use std::io::{self, Write};

/// The XML declaration and the opening `<patterndb>` tag.
pub fn write_header(out: &mut impl Write) -> io::Result<()> {
    out.write_all(
        b"<?xml version='1.0' encoding='UTF-8'?>\n<patterndb version='4' pub_date='1970-01-01'>\n",
    )
}

/// Open the ruleset of `service`.
pub fn open_ruleset(out: &mut impl Write, service: &str) -> io::Result<()> {
    write!(
        out,
        "  <ruleset name='{0}' id='ruleset-{0}'>\n    <pattern>{0}</pattern>\n    <rules>\n",
        xml_escape(service)
    )
}

/// One pattern as a `<rule>` of its service's open ruleset, with its
/// examples as test messages.
pub fn write_rule(out: &mut impl Write, e: &ExportEntry) -> io::Result<()> {
    let p = &e.stored;
    writeln!(
        out,
        "      <rule provider='sequence-rtg' id='{}' class='system'>",
        xml_escape(&p.id)
    )?;
    out.write_all(b"        <patterns>\n")?;
    writeln!(
        out,
        "          <pattern>{}</pattern>",
        xml_escape(&pattern_to_syslogng(&e.pattern))
    )?;
    out.write_all(b"        </patterns>\n")?;
    if !p.examples.is_empty() {
        out.write_all(b"        <examples>\n")?;
        let program = xml_escape(&p.service);
        for ex in &p.examples {
            writeln!(
                out,
                "          <example>\n            <test_message program='{program}'>{}</test_message>\n          </example>",
                xml_escape(ex)
            )?;
        }
        out.write_all(b"        </examples>\n")?;
    }
    writeln!(
        out,
        "        <!-- count={} last_matched={} complexity={:.3} -->\n      </rule>",
        p.count, p.last_matched, p.complexity
    )
}

/// Close the open ruleset.
pub fn close_ruleset(out: &mut impl Write) -> io::Result<()> {
    out.write_all(b"    </rules>\n  </ruleset>\n")
}

/// The closing `</patterndb>` tag.
pub fn write_footer(out: &mut impl Write) -> io::Result<()> {
    out.write_all(b"</patterndb>\n")
}

/// Translate a pattern into syslog-ng patterndb syntax.
///
/// String variables become `@ESTRING:name:<delimiter>@` when a delimiter is
/// known (the next element's leading space or first character) and
/// `@ANYSTRING:name@` in final position. Because `ESTRING` *consumes* its
/// delimiter, the delimiter is then omitted from the literal text that
/// follows. Typed variables map onto syslog-ng's native parsers.
pub fn pattern_to_syslogng(p: &sequence_core::Pattern) -> String {
    let els = p.elements();
    let mut out = String::new();
    let mut swallow_space = false;
    for (i, el) in els.iter().enumerate() {
        let space = match el {
            PatternElement::Literal { space_before, .. }
            | PatternElement::Variable { space_before, .. } => *space_before,
            PatternElement::IgnoreRest => true,
        };
        if i > 0 && space && !swallow_space {
            out.push(' ');
        }
        swallow_space = false;
        match el {
            PatternElement::Literal { text, .. } => {
                out.push_str(&text.replace('@', "@@"));
            }
            PatternElement::Variable { name, ty, .. } => match ty {
                TokenType::Integer => out.push_str(&format!("@NUMBER:{name}@")),
                TokenType::Float => out.push_str(&format!("@FLOAT:{name}@")),
                TokenType::Ipv4 => out.push_str(&format!("@IPv4:{name}@")),
                TokenType::Ipv6 => out.push_str(&format!("@IPv6:{name}@")),
                TokenType::Mac => out.push_str(&format!("@MACADDR:{name}@")),
                TokenType::Email => out.push_str(&format!("@EMAIL:{name}@")),
                TokenType::Hex
                | TokenType::Url
                | TokenType::Path
                | TokenType::Time
                | TokenType::Hostname
                | TokenType::Literal => {
                    // Free-text-ish field: ESTRING up to the next delimiter.
                    match next_delimiter(els, i) {
                        Some(d) => {
                            out.push_str(&format!("@ESTRING:{name}:{d}@"));
                            if d == ' ' {
                                swallow_space = true;
                            }
                        }
                        None => out.push_str(&format!("@ANYSTRING:{name}@")),
                    }
                }
            },
            PatternElement::IgnoreRest => {
                out.push_str("@ANYSTRING:rest@");
            }
        }
    }
    out
}

/// The delimiter for an ESTRING at position `i`: the space before the next
/// element, or the next literal's first character. `None` in final position.
fn next_delimiter(els: &[PatternElement], i: usize) -> Option<char> {
    let next = els.get(i + 1)?;
    match next {
        PatternElement::Literal { text, space_before } => {
            if *space_before {
                Some(' ')
            } else {
                text.chars().next()
            }
        }
        PatternElement::Variable { space_before, .. } => {
            if *space_before {
                Some(' ')
            } else {
                // Two adjacent variables with no delimiter: not expressible
                // as ESTRING; fall back to space.
                Some(' ')
            }
        }
        PatternElement::IgnoreRest => Some(' '),
    }
}

/// Escape XML text content and attribute values.
pub fn xml_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '\'' => out.push_str("&apos;"),
            '"' => out.push_str("&quot;"),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::StoredPattern;
    use sequence_core::Pattern;

    fn entry(service: &str, pattern: &str, examples: &[&str]) -> ExportEntry {
        let p = Pattern::parse(pattern).unwrap();
        ExportEntry {
            stored: StoredPattern {
                id: crate::sha1::pattern_id(pattern, service),
                service: service.to_string(),
                pattern_text: pattern.to_string(),
                count: 5,
                first_seen: 1,
                last_matched: 2,
                complexity: p.complexity_score(),
                examples: examples.iter().map(|s| s.to_string()).collect(),
                promoted: false,
            },
            pattern: p,
        }
    }

    fn render(entries: &[ExportEntry]) -> String {
        super::super::render(super::super::ExportFormat::SyslogNg, entries)
    }

    #[test]
    fn paper_example_translation() {
        let p = Pattern::parse("%action% from %srcip:ipv4% port %srcport:integer%").unwrap();
        assert_eq!(
            pattern_to_syslogng(&p),
            "@ESTRING:action: @from @IPv4:srcip@ port @NUMBER:srcport@"
        );
    }

    #[test]
    fn trailing_string_is_anystring() {
        let p = Pattern::parse("session closed for %user%").unwrap();
        assert_eq!(
            pattern_to_syslogng(&p),
            "session closed for @ANYSTRING:user@"
        );
    }

    #[test]
    fn ignore_rest_is_anystring() {
        let p = Pattern::parse("panic : %...%").unwrap();
        assert!(pattern_to_syslogng(&p).ends_with("@ANYSTRING:rest@"));
    }

    #[test]
    fn at_sign_escaped_in_literals() {
        let p = Pattern::parse("user root@box logged in").unwrap();
        // Note: "root@box" stays a literal here because the pattern was
        // authored that way.
        assert!(pattern_to_syslogng(&p).contains("root@@box"));
    }

    #[test]
    fn estring_with_punctuation_delimiter() {
        let p = Pattern::parse("job %name%, done").unwrap();
        assert_eq!(pattern_to_syslogng(&p), "job @ESTRING:name:,@, done");
    }

    #[test]
    fn full_document_structure() {
        let doc = render(&[
            entry(
                "sshd",
                "%action% from %srcip:ipv4% port %srcport:integer%",
                &["x from 1.2.3.4 port 5"],
            ),
            entry("nginx", "GET %path% done", &[]),
        ]);
        assert!(doc.starts_with("<?xml"));
        assert_eq!(doc.matches("<ruleset").count(), 2);
        assert_eq!(doc.matches("<rule ").count(), 2);
        assert!(doc.contains("provider='sequence-rtg'"));
        assert!(doc.contains("<test_message program='sshd'>x from 1.2.3.4 port 5</test_message>"));
        assert!(doc.contains("</patterndb>"));
    }

    #[test]
    fn xml_escaping() {
        assert_eq!(xml_escape("a<b>&'\"c"), "a&lt;b&gt;&amp;&apos;&quot;c");
        let doc = render(&[entry(
            "svc",
            "found %n:integer% <errors>",
            &["found 2 <errors>"],
        )]);
        assert!(doc.contains("&lt;errors&gt;"));
        assert!(!doc.contains("<errors>"));
    }
}
