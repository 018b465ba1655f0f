//! Logstash Grok export (paper Fig. 4).
//!
//! Each pattern becomes a `filter { grok { ... } }` block whose match string
//! uses Grok's `%{TYPE:name}` placeholders and whose `add_tag` carries the
//! reproducible SHA1 pattern id:
//!
//! ```text
//! filter {
//!   grok {
//!     match => {"message" => "%{DATA:action} from %{IP:srcip} port %{INT:srcport}"}
//!     add_tag => ["2908692bdd6cb4eca096eaa19afebd9e15650b4d", "pattern_id"]
//!   }
//! }
//! ```

use super::ExportEntry;
use sequence_core::{PatternElement, TokenType};
use std::io::{self, Write};

/// Write one pattern as a Logstash filter block.
pub fn write_filter(out: &mut impl Write, e: &ExportEntry) -> io::Result<()> {
    write!(
        out,
        "filter {{\n  grok {{\n    match => {{\"message\" => \"{}\"}}\n    add_tag => [\"{}\", \"pattern_id\"]\n  }}\n}}\n",
        dq_escape(&pattern_to_grok(&e.pattern)),
        dq_escape(&e.stored.id)
    )
}

/// Grok pattern name for each token type.
pub fn grok_type(ty: TokenType) -> &'static str {
    match ty {
        TokenType::Literal => "DATA",
        TokenType::Integer => "INT",
        TokenType::Float => "NUMBER",
        TokenType::Ipv4 | TokenType::Ipv6 => "IP",
        TokenType::Mac => "MAC",
        TokenType::Url => "URI",
        TokenType::Email => "EMAILADDRESS",
        TokenType::Hostname => "HOSTNAME",
        TokenType::Hex => "BASE16NUM",
        TokenType::Path => "PATH",
        TokenType::Time => "DATA",
    }
}

/// Translate a pattern to a Grok match string. Literal text is regex-escaped
/// (Grok matches are regular expressions).
pub fn pattern_to_grok(p: &sequence_core::Pattern) -> String {
    let mut out = String::new();
    for (i, el) in p.elements().iter().enumerate() {
        let space = match el {
            PatternElement::Literal { space_before, .. }
            | PatternElement::Variable { space_before, .. } => *space_before,
            PatternElement::IgnoreRest => true,
        };
        if i > 0 && space {
            out.push(' ');
        }
        match el {
            PatternElement::Literal { text, .. } => out.push_str(&regex_escape(text)),
            PatternElement::Variable { name, ty, .. } => {
                out.push_str(&format!("%{{{}:{}}}", grok_type(*ty), name));
            }
            PatternElement::IgnoreRest => out.push_str("%{GREEDYDATA:rest}"),
        }
    }
    out
}

/// Escape regex metacharacters in literal text.
pub fn regex_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        if matches!(
            c,
            '.' | '?' | '*' | '+' | '(' | ')' | '[' | ']' | '{' | '}' | '|' | '^' | '$' | '\\'
        ) {
            out.push('\\');
        }
        out.push(c);
    }
    out
}

fn dq_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::StoredPattern;
    use sequence_core::Pattern;

    #[test]
    fn paper_figure_4_shape() {
        let text = "%action% from %srcip:ipv4% port %srcport:integer%";
        let p = Pattern::parse(text).unwrap();
        assert_eq!(
            pattern_to_grok(&p),
            "%{DATA:action} from %{IP:srcip} port %{INT:srcport}"
        );
        let e = ExportEntry {
            stored: StoredPattern {
                id: "2908692bdd6cb4eca096eaa19afebd9e15650b4d".into(),
                service: "sshd".into(),
                pattern_text: text.into(),
                count: 1,
                first_seen: 0,
                last_matched: 0,
                complexity: 0.6,
                examples: vec![],
                promoted: false,
            },
            pattern: p,
        };
        let doc = super::super::render(super::super::ExportFormat::Grok, &[e]);
        assert!(doc.contains(
            "match => {\"message\" => \"%{DATA:action} from %{IP:srcip} port %{INT:srcport}\"}"
        ));
        assert!(doc
            .contains("add_tag => [\"2908692bdd6cb4eca096eaa19afebd9e15650b4d\", \"pattern_id\"]"));
    }

    #[test]
    fn literal_regex_metachars_escaped() {
        let p = Pattern::parse("GET /index.html (cached) %ms:integer%").unwrap();
        let g = pattern_to_grok(&p);
        assert!(g.contains("/index\\.html"));
        assert!(g.contains("\\(cached\\)"));
        assert!(g.ends_with("%{INT:ms}"));
    }

    #[test]
    fn ignore_rest_becomes_greedydata() {
        let p = Pattern::parse("panic : %...%").unwrap();
        assert!(pattern_to_grok(&p).ends_with("%{GREEDYDATA:rest}"));
    }

    #[test]
    fn type_mapping_covers_all() {
        use TokenType::*;
        for ty in [
            Literal, Time, Ipv4, Ipv6, Mac, Integer, Float, Url, Hex, Path, Email, Hostname,
        ] {
            assert!(!grok_type(ty).is_empty());
        }
    }
}
