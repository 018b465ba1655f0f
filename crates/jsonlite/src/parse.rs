//! The owned-tree entry point and the parse error types (RFC 8259).

use crate::value::Value;
use std::fmt;

/// A parse error with byte offset into the input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the error.
    pub offset: usize,
    /// What went wrong.
    pub kind: ErrorKind,
}

/// Parse error categories.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ErrorKind {
    /// Input ended mid-value.
    UnexpectedEof,
    /// A byte that cannot start or continue the current construct.
    UnexpectedChar(char),
    /// Malformed number literal.
    BadNumber,
    /// Malformed `\` escape in a string.
    BadEscape,
    /// Invalid `\uXXXX` escape (bad hex or unpaired surrogate).
    BadUnicodeEscape,
    /// Input is not valid UTF-8 inside a string.
    BadUtf8,
    /// Trailing non-whitespace after the top-level value.
    TrailingData,
    /// Object/array nesting beyond the safety limit.
    TooDeep,
    /// Control character appearing unescaped inside a string.
    ControlCharInString,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "json parse error at byte {}: {:?}",
            self.offset, self.kind
        )
    }
}

impl std::error::Error for ParseError {}

/// Parse a complete JSON document. Trailing whitespace is allowed; any other
/// trailing data is an error.
///
/// The crate has one parser, [`crate::borrow`]; this is its tree converted
/// to the owned [`Value`].
pub fn parse(input: &str) -> Result<Value, ParseError> {
    crate::borrow::parse(input).map(crate::borrow::Value::into_owned)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::object;

    #[test]
    fn scalars() {
        assert_eq!(parse("null").unwrap(), Value::Null);
        assert_eq!(parse("true").unwrap(), Value::Bool(true));
        assert_eq!(parse("false").unwrap(), Value::Bool(false));
        assert_eq!(parse("42").unwrap(), Value::Number(42.0));
        assert_eq!(parse("-3.5e2").unwrap(), Value::Number(-350.0));
        assert_eq!(parse("\"hi\"").unwrap(), Value::String("hi".into()));
    }

    #[test]
    fn stream_item_shape() {
        let v = parse(r#"{"service": "sshd", "message": "Accepted password for root"}"#).unwrap();
        assert_eq!(v.get("service").unwrap().as_str(), Some("sshd"));
        assert_eq!(
            v.get("message").unwrap().as_str(),
            Some("Accepted password for root")
        );
    }

    #[test]
    fn nested_structures() {
        let v = parse(r#"{"a": [1, 2, {"b": [true, null]}], "c": {}}"#).unwrap();
        let a = v.get("a").unwrap().as_array().unwrap();
        assert_eq!(a.len(), 3);
        assert_eq!(v.get("c"), Some(&object::<String, Value>([])));
    }

    #[test]
    fn escapes() {
        assert_eq!(
            parse(r#""a\nb\t\"c\"\\""#).unwrap().as_str(),
            Some("a\nb\t\"c\"\\")
        );
        assert_eq!(parse(r#""étoile""#).unwrap().as_str(), Some("étoile"));
        assert_eq!(parse(r#""😀""#).unwrap().as_str(), Some("😀"));
        assert_eq!(parse(r#""\/""#).unwrap().as_str(), Some("/"));
    }

    #[test]
    fn bad_escapes_rejected() {
        assert!(matches!(
            parse(r#""\q""#).unwrap_err().kind,
            ErrorKind::BadEscape
        ));
        assert!(matches!(
            parse(r#""\u12""#).unwrap_err().kind,
            ErrorKind::UnexpectedEof
        ));
        assert!(matches!(
            parse(r#""\ud800x""#).unwrap_err().kind,
            ErrorKind::BadUnicodeEscape
        ));
        assert!(matches!(
            parse(r#""\udc00""#).unwrap_err().kind,
            ErrorKind::BadUnicodeEscape
        ));
    }

    #[test]
    fn unescaped_control_char_rejected() {
        assert!(matches!(
            parse("\"a\u{01}b\"").unwrap_err().kind,
            ErrorKind::ControlCharInString
        ));
    }

    #[test]
    fn trailing_data_rejected() {
        assert!(matches!(
            parse("1 2").unwrap_err().kind,
            ErrorKind::TrailingData
        ));
        assert!(parse("  1  ").is_ok());
    }

    #[test]
    fn truncated_inputs() {
        for s in ["{", "[1,", "\"abc", "{\"a\":", "tru", "-"] {
            assert!(parse(s).is_err(), "should fail: {s}");
        }
    }

    #[test]
    fn bad_numbers() {
        for s in ["01", "1.", "1e", "1e+", ".5", "- 1"] {
            assert!(parse(s).is_err(), "should fail: {s}");
        }
    }

    #[test]
    fn deep_nesting_bounded() {
        let s = "[".repeat(200) + &"]".repeat(200);
        assert!(matches!(parse(&s).unwrap_err().kind, ErrorKind::TooDeep));
    }

    #[test]
    fn empty_containers() {
        assert_eq!(parse("[]").unwrap(), Value::Array(vec![]));
        assert_eq!(parse("{}").unwrap(), Value::Object(Default::default()));
        assert_eq!(parse("[ ]").unwrap(), Value::Array(vec![]));
    }

    #[test]
    fn whitespace_tolerance() {
        let v = parse(" {\n\t\"a\" :\r 1 ,\"b\": [ 1 , 2 ] } ").unwrap();
        assert_eq!(v.get("a").unwrap().as_i64(), Some(1));
    }

    #[test]
    fn duplicate_keys_last_wins() {
        let v = parse(r#"{"a": 1, "a": 2}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_i64(), Some(2));
    }
}
