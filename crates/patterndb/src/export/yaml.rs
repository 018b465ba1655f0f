//! YAML export.
//!
//! "We also implemented a YAML version that can be used alongside a DevOps
//! tool such as Puppet to build the pattern database XML. YAML can be easier
//! to use if files are maintained by hand."

use super::ExportEntry;
use std::io::{self, Write};

/// The document's opening lines, up to the `patterns:` key.
pub fn write_header(out: &mut impl Write) -> io::Result<()> {
    out.write_all(b"# Sequence-RTG pattern export\npatterns:")
}

/// One pattern as an item of the `patterns` list; the first item also ends
/// the key's line.
pub fn write_entry(out: &mut impl Write, e: &ExportEntry, first: bool) -> io::Result<()> {
    if first {
        out.write_all(b"\n")?;
    }
    let p = &e.stored;
    writeln!(out, "- id: {}", p.id)?;
    writeln!(out, "  service: {}", yaml_string(&p.service))?;
    writeln!(out, "  pattern: {}", yaml_string(&p.pattern_text))?;
    writeln!(out, "  count: {}", p.count)?;
    writeln!(out, "  first_seen: {}", p.first_seen)?;
    writeln!(out, "  last_matched: {}", p.last_matched)?;
    writeln!(out, "  complexity: {:.4}", p.complexity)?;
    if p.examples.is_empty() {
        return out.write_all(b"  examples: []\n");
    }
    out.write_all(b"  examples:\n")?;
    for ex in &p.examples {
        writeln!(out, "  - {}", yaml_string(ex))?;
    }
    Ok(())
}

/// End the document: an export with no pattern is an empty list.
pub fn write_footer(out: &mut impl Write, empty: bool) -> io::Result<()> {
    match empty {
        true => out.write_all(b" []\n"),
        false => Ok(()),
    }
}

/// Quote a string for YAML using double quotes with JSON-compatible escapes
/// (a valid YAML scalar form that round-trips any content, including
/// newlines in multi-line examples).
pub fn yaml_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::StoredPattern;
    use sequence_core::Pattern;

    fn entry() -> ExportEntry {
        let text = "%action% from %srcip:ipv4% port %srcport:integer%";
        let p = Pattern::parse(text).unwrap();
        ExportEntry {
            stored: StoredPattern {
                id: "abc123".into(),
                service: "sshd".into(),
                pattern_text: text.into(),
                count: 42,
                first_seen: 100,
                last_matched: 200,
                complexity: 0.6,
                examples: vec![
                    "Accepted from 1.2.3.4 port 22".into(),
                    "line1\nline2".into(),
                ],
                promoted: false,
            },
            pattern: p,
        }
    }

    fn render(entries: &[ExportEntry]) -> String {
        super::super::render(super::super::ExportFormat::Yaml, entries)
    }

    #[test]
    fn document_shape() {
        let doc = render(&[entry()]);
        assert!(doc.contains("- id: abc123"));
        assert!(doc.contains("  service: \"sshd\""));
        assert!(doc.contains("  count: 42"));
        assert!(doc.contains("  complexity: 0.6000"));
        assert!(doc.contains("\\nline2"));
    }

    #[test]
    fn empty_export() {
        assert_eq!(render(&[]), "# Sequence-RTG pattern export\npatterns: []\n");
        assert!(render(&[entry()]).starts_with("# Sequence-RTG pattern export\npatterns:\n- id: "));
    }

    #[test]
    fn string_quoting() {
        assert_eq!(yaml_string("plain"), "\"plain\"");
        assert_eq!(yaml_string("a\"b"), "\"a\\\"b\"");
        assert_eq!(yaml_string("x\ny"), "\"x\\ny\"");
        assert_eq!(yaml_string("t\tab"), "\"t\\tab\"");
    }
}
