//! JSON serialisation.

use crate::value::Value;
use std::fmt::Write as _;

/// Serialise a value to compact JSON.
pub fn to_string(v: &Value) -> String {
    let mut out = String::new();
    write_value(v, &mut out);
    out
}

/// Serialise a value to pretty-printed JSON (two-space indent).
pub fn to_string_pretty(v: &Value) -> String {
    let mut out = String::new();
    write_pretty(v, 0, &mut out);
    out
}

fn write_value(v: &Value, out: &mut String) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::Number(n) => write_number(*n, out),
        Value::String(s) => write_string(s, out),
        Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_value(item, out);
            }
            out.push(']');
        }
        Value::Object(map) => {
            out.push('{');
            for (i, (k, val)) in map.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_string(k, out);
                out.push(':');
                write_value(val, out);
            }
            out.push('}');
        }
    }
}

fn write_pretty(v: &Value, indent: usize, out: &mut String) {
    match v {
        Value::Array(items) if !items.is_empty() => {
            out.push_str("[\n");
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(",\n");
                }
                push_indent(indent + 1, out);
                write_pretty(item, indent + 1, out);
            }
            out.push('\n');
            push_indent(indent, out);
            out.push(']');
        }
        Value::Object(map) if !map.is_empty() => {
            out.push_str("{\n");
            for (i, (k, val)) in map.iter().enumerate() {
                if i > 0 {
                    out.push_str(",\n");
                }
                push_indent(indent + 1, out);
                write_string(k, out);
                out.push_str(": ");
                write_pretty(val, indent + 1, out);
            }
            out.push('\n');
            push_indent(indent, out);
            out.push('}');
        }
        other => write_value(other, out),
    }
}

fn push_indent(n: usize, out: &mut String) {
    for _ in 0..n {
        out.push_str("  ");
    }
}

fn write_number(n: f64, out: &mut String) {
    if n.is_nan() || n.is_infinite() {
        // JSON has no NaN/Inf; emit null like most tolerant encoders.
        out.push_str("null");
    } else if n.fract() == 0.0 && n.abs() < 9.007_199_254_740_992e15 {
        let _ = write!(out, "{}", n as i64);
    } else {
        let _ = write!(out, "{n}");
    }
}

/// Write a JSON string literal with all required escaping. Every byte
/// that needs an escape is ASCII, so the runs between them are copied
/// whole and always split on character boundaries.
pub fn write_string(s: &str, out: &mut String) {
    out.push('"');
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        let escape = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0x08 => "\\b",
            0x0C => "\\f",
            0x00..=0x1F => &format!("\\u{b:04x}"),
            _ => continue,
        };
        out.push_str(&s[run..i]);
        out.push_str(escape);
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse;
    use crate::value::object;

    #[test]
    fn scalars() {
        assert_eq!(to_string(&Value::Null), "null");
        assert_eq!(to_string(&Value::Bool(true)), "true");
        assert_eq!(to_string(&Value::Number(42.0)), "42");
        assert_eq!(to_string(&Value::Number(0.5)), "0.5");
        assert_eq!(to_string(&Value::String("hi".into())), "\"hi\"");
    }

    #[test]
    fn escaping() {
        assert_eq!(
            to_string(&Value::String("a\"b\\c\nd".into())),
            r#""a\"b\\c\nd""#
        );
        assert_eq!(to_string(&Value::String("\u{01}".into())), "\"\\u0001\"");
    }

    /// The escaping rule one character at a time — the reference the
    /// run-copying `write_string` must agree with byte for byte (the ingest
    /// WAL's on-disk format is made of its output).
    fn write_string_by_char(s: &str, out: &mut String) {
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                '\u{0008}' => out.push_str("\\b"),
                '\u{000C}' => out.push_str("\\f"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out.push('"');
    }

    #[test]
    fn write_string_matches_the_per_character_reference() {
        use testkit::prop::{self, Config};
        let chars = "ab 1:/{}\"\\\n\r\t\u{8}\u{c}\u{0}\u{1}\u{1f}\u{7f}\u{e9}\u{20ac}\u{1f980}";
        prop::check(&Config::cases(512), &prop::string(chars, 0..32), |s| {
            let (mut fast, mut reference) = (String::new(), String::new());
            write_string(s, &mut fast);
            write_string_by_char(s, &mut reference);
            testkit::prop_assert_eq!(fast, reference);
            Ok(())
        });
    }

    #[test]
    fn containers() {
        let v = object([
            ("b", Value::from(1i64)),
            ("a", Value::Array(vec![Value::Null])),
        ]);
        assert_eq!(to_string(&v), r#"{"a":[null],"b":1}"#);
    }

    #[test]
    fn round_trip() {
        let inputs = [
            r#"{"service":"sshd","message":"Accepted password for root from 1.2.3.4"}"#,
            r#"[1,2.5,"x",null,true,{"k":[]}]"#,
        ];
        for s in inputs {
            let v = parse(s).unwrap();
            assert_eq!(parse(&to_string(&v)).unwrap(), v);
        }
    }

    #[test]
    fn non_finite_become_null() {
        assert_eq!(to_string(&Value::Number(f64::NAN)), "null");
        assert_eq!(to_string(&Value::Number(f64::INFINITY)), "null");
    }

    #[test]
    fn pretty_printing() {
        let v = object([("a", Value::from(1i64))]);
        assert_eq!(to_string_pretty(&v), "{\n  \"a\": 1\n}");
        assert_eq!(to_string_pretty(&Value::Array(vec![])), "[]");
    }
}
