//! The crate's one JSON parser: values that reference the input buffer.
//!
//! An owned tree allocates a `String` for every JSON string and a
//! `BTreeMap` for every object. On the daemon ingest hot path that is pure
//! overhead: a stream line is parsed once, two fields are pulled out, and
//! the rest is discarded. This module provides two allocation-avoiding
//! entry points:
//!
//! * [`parse`] — a full borrowed value tree. Strings are `Cow<'a, str>`:
//!   escape-free strings borrow straight from the input (`Cow::Borrowed`),
//!   strings containing escapes are unescaped into an owned copy
//!   (`Cow::Owned`). A borrow is therefore never *wrong* — the copy path is
//!   taken exactly when the raw bytes differ from the decoded text.
//! * [`object_fields`] — the ingest fast path. Extracts up to `N` named
//!   string fields from a top-level object without building any tree. On
//!   escape-free input it performs **zero heap allocations**: the returned
//!   fields are borrowed slices of the input (pinned by a golden test using
//!   the testkit allocation counter).
//!
//! [`crate::parse`] is [`parse`] followed by [`Value::into_owned`]. Both
//! entry points here accept exactly the same documents and reject with the
//! same [`ParseError`] (same offset, same kind); the crate's property tests
//! pin that case-by-case.

use crate::parse::{ErrorKind, ParseError};
use std::borrow::Cow;

/// Maximum nesting depth; protects against stack exhaustion on adversarial
/// input piped into the ingester.
const MAX_DEPTH: usize = 128;

/// A JSON value borrowing from the parsed input where possible.
#[derive(Debug, Clone, PartialEq)]
pub enum Value<'a> {
    /// JSON `null`.
    Null,
    /// JSON `true` / `false`.
    Bool(bool),
    /// A JSON number (f64).
    Number(f64),
    /// A string: borrowed when escape-free, owned when unescaping copied.
    String(Cow<'a, str>),
    /// An array of values.
    Array(Vec<Value<'a>>),
    /// An object as an ordered pair list; duplicate keys are kept in
    /// document order and [`Value::get`] resolves them last-wins, matching
    /// the owned tree's `BTreeMap::insert` semantics.
    Object(Vec<(Cow<'a, str>, Value<'a>)>),
}

impl<'a> Value<'a> {
    /// The string slice if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s.as_ref()),
            _ => None,
        }
    }

    /// The object pair list if this is an object.
    pub fn as_object(&self) -> Option<&[(Cow<'a, str>, Value<'a>)]> {
        match self {
            Value::Object(pairs) => Some(pairs),
            _ => None,
        }
    }

    /// Object field lookup, last occurrence wins (duplicate-key semantics
    /// of the owned tree).
    pub fn get(&self, key: &str) -> Option<&Value<'a>> {
        match self {
            Value::Object(pairs) => pairs.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Convert into the owned [`crate::Value`] representation.
    pub fn into_owned(self) -> crate::Value {
        match self {
            Value::Null => crate::Value::Null,
            Value::Bool(b) => crate::Value::Bool(b),
            Value::Number(n) => crate::Value::Number(n),
            Value::String(s) => crate::Value::String(s.into_owned()),
            Value::Array(items) => {
                crate::Value::Array(items.into_iter().map(Value::into_owned).collect())
            }
            Value::Object(pairs) => crate::Value::Object(
                // In-order insertion reproduces last-wins on duplicates.
                pairs
                    .into_iter()
                    .map(|(k, v)| (k.into_owned(), v.into_owned()))
                    .collect(),
            ),
        }
    }
}

/// Why [`object_fields`] could not extract from the input.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldsError {
    /// The input is not valid JSON (the error [`parse`] reports).
    Json(ParseError),
    /// The input is valid JSON but the top-level value is not an object.
    NotAnObject,
}

/// Parse a complete JSON document into a borrowed value tree.
///
/// Trailing whitespace is allowed; any other trailing data is an error.
/// Escape-free strings borrow from `input`.
pub fn parse(input: &str) -> Result<Value<'_>, ParseError> {
    let mut p = Parser {
        b: input.as_bytes(),
        i: 0,
    };
    p.skip_ws();
    let v = p.value(0)?;
    p.skip_ws();
    if p.i != p.b.len() {
        return Err(p.err(ErrorKind::TrailingData));
    }
    Ok(v)
}

/// Extract up to `N` named string fields from a top-level JSON object
/// without building a value tree.
///
/// The whole document is validated (nesting depth, escapes, UTF-8,
/// trailing data) with [`parse`]'s exact error semantics. For each
/// requested key the *last* occurrence wins; a key that is missing, or
/// whose final value is not a string, yields `None`. Extra fields are
/// skipped without allocating. On escape-free input every returned field
/// is `Cow::Borrowed` and the call performs no heap allocation at all.
pub fn object_fields<'a, const N: usize>(
    input: &'a str,
    keys: [&str; N],
) -> Result<[Option<Cow<'a, str>>; N], FieldsError> {
    let mut p = Parser {
        b: input.as_bytes(),
        i: 0,
    };
    p.skip_ws();
    match p.peek() {
        None => return Err(FieldsError::Json(p.err(ErrorKind::UnexpectedEof))),
        Some(b'{') => {}
        Some(_) => {
            // Not an object at the top level. Classify exactly like `parse`
            // then a shape check: a document that fails to parse is a JSON
            // error; one that parses is NotAnObject.
            return match p.skip_value(0).and_then(|()| {
                p.skip_ws();
                if p.i != p.b.len() {
                    Err(p.err(ErrorKind::TrailingData))
                } else {
                    Ok(())
                }
            }) {
                Ok(()) => Err(FieldsError::NotAnObject),
                Err(e) => Err(FieldsError::Json(e)),
            };
        }
    }

    let mut out: [Option<Cow<'a, str>>; N] = std::array::from_fn(|_| None);
    p.i += 1; // consume '{'
    p.skip_ws();
    if p.peek() == Some(b'}') {
        p.i += 1;
    } else {
        loop {
            p.skip_ws();
            let key = p.string_cow().map_err(FieldsError::Json)?;
            p.skip_ws();
            p.expect(b':').map_err(FieldsError::Json)?;
            p.skip_ws();
            let wanted = keys.iter().position(|k| key.as_ref() == *k);
            match wanted {
                Some(j) if p.peek() == Some(b'"') => {
                    out[j] = Some(p.string_cow().map_err(FieldsError::Json)?);
                }
                Some(j) => {
                    // Non-string value for a requested key: last wins, so
                    // it must *clear* any earlier string occurrence.
                    p.skip_value(1).map_err(FieldsError::Json)?;
                    out[j] = None;
                }
                None => p.skip_value(1).map_err(FieldsError::Json)?,
            }
            p.skip_ws();
            match p.peek() {
                Some(b',') => p.i += 1,
                Some(b'}') => {
                    p.i += 1;
                    break;
                }
                Some(c) => {
                    return Err(FieldsError::Json(
                        p.err(ErrorKind::UnexpectedChar(c as char)),
                    ))
                }
                None => return Err(FieldsError::Json(p.err(ErrorKind::UnexpectedEof))),
            }
        }
    }
    p.skip_ws();
    if p.i != p.b.len() {
        return Err(FieldsError::Json(p.err(ErrorKind::TrailingData)));
    }
    Ok(out)
}

/// The recursive-descent parser core. `value` and `skip_value` bump the
/// offset and raise errors at the same sites, so building a tree and
/// skipping one report byte-identical `ParseError`s.
struct Parser<'a> {
    b: &'a [u8],
    i: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, kind: ErrorKind) -> ParseError {
        ParseError {
            offset: self.i,
            kind,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.b.get(self.i).copied()
    }

    /// View a plain run as `&str` without re-validating it.
    ///
    /// SAFETY: `self.b` comes from `input.as_bytes()` where `input: &str`,
    /// so the whole buffer is valid UTF-8. [`Parser::scan_plain_run`] stops
    /// only at the ASCII bytes `"`, `\`, or a control byte, and an ASCII
    /// byte can never be the interior of a multi-byte UTF-8 sequence — so
    /// every run boundary lands on a character boundary and the sub-slice
    /// is itself valid UTF-8. Re-validating here cost ~60 ns per ingest
    /// line; `debug_assert!` keeps the check in debug builds.
    fn run_str(&self, range: std::ops::Range<usize>) -> &'a str {
        let bytes = &self.b[range];
        debug_assert!(std::str::from_utf8(bytes).is_ok());
        unsafe { std::str::from_utf8_unchecked(bytes) }
    }

    /// Advance past a run of plain string bytes (anything but `"`, `\`, or
    /// a control character). One slice scan instead of a byte-at-a-time
    /// `peek` loop: the predicate is branch-free enough for the optimiser
    /// to unroll, and string payload is where almost every input byte
    /// lives, so this is the parser's hottest loop.
    fn scan_plain_run(&mut self) {
        let rest = &self.b[self.i..];
        let n = rest
            .iter()
            .position(|&c| c == b'"' || c == b'\\' || c < 0x20)
            .unwrap_or(rest.len());
        self.i += n;
    }

    fn skip_ws(&mut self) {
        while let Some(c) = self.peek() {
            if matches!(c, b' ' | b'\t' | b'\n' | b'\r') {
                self.i += 1;
            } else {
                break;
            }
        }
    }

    fn expect(&mut self, c: u8) -> Result<(), ParseError> {
        match self.peek() {
            Some(x) if x == c => {
                self.i += 1;
                Ok(())
            }
            Some(x) => Err(self.err(ErrorKind::UnexpectedChar(x as char))),
            None => Err(self.err(ErrorKind::UnexpectedEof)),
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value<'a>, ParseError> {
        if depth > MAX_DEPTH {
            return Err(self.err(ErrorKind::TooDeep));
        }
        match self.peek() {
            None => Err(self.err(ErrorKind::UnexpectedEof)),
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Value::String(self.string_cow()?)),
            Some(b't') => self.keyword(b"true", Value::Bool(true)),
            Some(b'f') => self.keyword(b"false", Value::Bool(false)),
            Some(b'n') => self.keyword(b"null", Value::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => Ok(Value::Number(self.number()?)),
            Some(c) => Err(self.err(ErrorKind::UnexpectedChar(c as char))),
        }
    }

    /// Validate one value without materialising anything. Same acceptance
    /// and errors as `value`, zero allocation.
    fn skip_value(&mut self, depth: usize) -> Result<(), ParseError> {
        if depth > MAX_DEPTH {
            return Err(self.err(ErrorKind::TooDeep));
        }
        match self.peek() {
            None => Err(self.err(ErrorKind::UnexpectedEof)),
            Some(b'{') => self.skip_object(depth),
            Some(b'[') => self.skip_array(depth),
            Some(b'"') => self.skip_string(),
            Some(b't') => self.keyword(b"true", Value::Null).map(|_| ()),
            Some(b'f') => self.keyword(b"false", Value::Null).map(|_| ()),
            Some(b'n') => self.keyword(b"null", Value::Null).map(|_| ()),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number().map(|_| ()),
            Some(c) => Err(self.err(ErrorKind::UnexpectedChar(c as char))),
        }
    }

    fn keyword(&mut self, word: &[u8], v: Value<'a>) -> Result<Value<'a>, ParseError> {
        if self.b.len() - self.i >= word.len() && &self.b[self.i..self.i + word.len()] == word {
            self.i += word.len();
            Ok(v)
        } else {
            Err(self.err(ErrorKind::UnexpectedChar(self.peek().unwrap_or(0) as char)))
        }
    }

    fn object(&mut self, depth: usize) -> Result<Value<'a>, ParseError> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.i += 1;
            return Ok(Value::Object(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string_cow()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value(depth + 1)?;
            pairs.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.i += 1;
                }
                Some(b'}') => {
                    self.i += 1;
                    return Ok(Value::Object(pairs));
                }
                Some(c) => return Err(self.err(ErrorKind::UnexpectedChar(c as char))),
                None => return Err(self.err(ErrorKind::UnexpectedEof)),
            }
        }
    }

    fn skip_object(&mut self, depth: usize) -> Result<(), ParseError> {
        self.expect(b'{')?;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.i += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            self.skip_string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            self.skip_value(depth + 1)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.i += 1;
                }
                Some(b'}') => {
                    self.i += 1;
                    return Ok(());
                }
                Some(c) => return Err(self.err(ErrorKind::UnexpectedChar(c as char))),
                None => return Err(self.err(ErrorKind::UnexpectedEof)),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Value<'a>, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.i += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.i += 1;
                }
                Some(b']') => {
                    self.i += 1;
                    return Ok(Value::Array(items));
                }
                Some(c) => return Err(self.err(ErrorKind::UnexpectedChar(c as char))),
                None => return Err(self.err(ErrorKind::UnexpectedEof)),
            }
        }
    }

    fn skip_array(&mut self, depth: usize) -> Result<(), ParseError> {
        self.expect(b'[')?;
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.i += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            self.skip_value(depth + 1)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.i += 1;
                }
                Some(b']') => {
                    self.i += 1;
                    return Ok(());
                }
                Some(c) => return Err(self.err(ErrorKind::UnexpectedChar(c as char))),
                None => return Err(self.err(ErrorKind::UnexpectedEof)),
            }
        }
    }

    /// One string, borrowed when possible.
    ///
    /// The fast path scans a run of plain bytes; if the run reaches the
    /// closing quote the slice is borrowed directly (see [`Parser::run_str`]
    /// for why no UTF-8 re-validation is needed). The first escape (or a
    /// multi-run string) falls back to accumulating an owned copy.
    fn string_cow(&mut self) -> Result<Cow<'a, str>, ParseError> {
        self.expect(b'"')?;
        let start = self.i;
        self.scan_plain_run();
        let first_run = start..self.i;
        match self.peek() {
            None => Err(self.err(ErrorKind::UnexpectedEof)),
            Some(b'"') => {
                let chunk = self.run_str(first_run);
                self.i += 1;
                Ok(Cow::Borrowed(chunk))
            }
            Some(b'\\') => {
                // Copy path: seed with the first run, then alternate
                // escapes and plain runs.
                let mut out = String::new();
                out.push_str(self.run_str(first_run));
                self.i += 1;
                self.escape(&mut out)?;
                loop {
                    let run = self.i;
                    self.scan_plain_run();
                    if self.i > run {
                        out.push_str(self.run_str(run..self.i));
                    }
                    match self.peek() {
                        None => return Err(self.err(ErrorKind::UnexpectedEof)),
                        Some(b'"') => {
                            self.i += 1;
                            return Ok(Cow::Owned(out));
                        }
                        Some(b'\\') => {
                            self.i += 1;
                            self.escape(&mut out)?;
                        }
                        Some(_) => return Err(self.err(ErrorKind::ControlCharInString)),
                    }
                }
            }
            Some(_) => Err(self.err(ErrorKind::ControlCharInString)),
        }
    }

    /// Validate one string without materialising it. Zero allocation.
    fn skip_string(&mut self) -> Result<(), ParseError> {
        self.expect(b'"')?;
        loop {
            self.scan_plain_run();
            match self.peek() {
                None => return Err(self.err(ErrorKind::UnexpectedEof)),
                Some(b'"') => {
                    self.i += 1;
                    return Ok(());
                }
                Some(b'\\') => {
                    self.i += 1;
                    let mut sink = Discard;
                    self.escape(&mut sink)?;
                }
                Some(_) => return Err(self.err(ErrorKind::ControlCharInString)),
            }
        }
    }

    /// Decode one escape sequence (after the `\`) into `out`.
    fn escape(&mut self, out: &mut impl PushChar) -> Result<(), ParseError> {
        let c = self
            .peek()
            .ok_or_else(|| self.err(ErrorKind::UnexpectedEof))?;
        self.i += 1;
        match c {
            b'"' => out.push_char('"'),
            b'\\' => out.push_char('\\'),
            b'/' => out.push_char('/'),
            b'b' => out.push_char('\u{0008}'),
            b'f' => out.push_char('\u{000C}'),
            b'n' => out.push_char('\n'),
            b'r' => out.push_char('\r'),
            b't' => out.push_char('\t'),
            b'u' => {
                let hi = self.hex4()?;
                let ch = if (0xD800..0xDC00).contains(&hi) {
                    if self.peek() == Some(b'\\') && self.b.get(self.i + 1) == Some(&b'u') {
                        self.i += 2;
                        let lo = self.hex4()?;
                        if !(0xDC00..0xE000).contains(&lo) {
                            return Err(self.err(ErrorKind::BadUnicodeEscape));
                        }
                        let code = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                        char::from_u32(code).ok_or_else(|| self.err(ErrorKind::BadUnicodeEscape))?
                    } else {
                        return Err(self.err(ErrorKind::BadUnicodeEscape));
                    }
                } else if (0xDC00..0xE000).contains(&hi) {
                    return Err(self.err(ErrorKind::BadUnicodeEscape));
                } else {
                    char::from_u32(hi).ok_or_else(|| self.err(ErrorKind::BadUnicodeEscape))?
                };
                out.push_char(ch);
            }
            _ => return Err(self.err(ErrorKind::BadEscape)),
        }
        Ok(())
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        if self.b.len() - self.i < 4 {
            return Err(self.err(ErrorKind::UnexpectedEof));
        }
        let mut v = 0u32;
        for _ in 0..4 {
            let c = self.b[self.i];
            let d = match c {
                b'0'..=b'9' => (c - b'0') as u32,
                b'a'..=b'f' => (c - b'a' + 10) as u32,
                b'A'..=b'F' => (c - b'A' + 10) as u32,
                _ => return Err(self.err(ErrorKind::BadUnicodeEscape)),
            };
            v = v * 16 + d;
            self.i += 1;
        }
        Ok(v)
    }

    fn number(&mut self) -> Result<f64, ParseError> {
        let start = self.i;
        if self.peek() == Some(b'-') {
            self.i += 1;
        }
        match self.peek() {
            Some(b'0') => self.i += 1,
            Some(c) if c.is_ascii_digit() => {
                while self.peek().map_or(false, |c| c.is_ascii_digit()) {
                    self.i += 1;
                }
            }
            _ => return Err(self.err(ErrorKind::BadNumber)),
        }
        if self.peek() == Some(b'.') {
            self.i += 1;
            if !self.peek().map_or(false, |c| c.is_ascii_digit()) {
                return Err(self.err(ErrorKind::BadNumber));
            }
            while self.peek().map_or(false, |c| c.is_ascii_digit()) {
                self.i += 1;
            }
        }
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            self.i += 1;
            if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                self.i += 1;
            }
            if !self.peek().map_or(false, |c| c.is_ascii_digit()) {
                return Err(self.err(ErrorKind::BadNumber));
            }
            while self.peek().map_or(false, |c| c.is_ascii_digit()) {
                self.i += 1;
            }
        }
        let text = std::str::from_utf8(&self.b[start..self.i]).expect("ascii");
        text.parse::<f64>()
            .map_err(|_| self.err(ErrorKind::BadNumber))
    }
}

/// Escape-decoding sink: `String` collects, `Discard` only validates.
trait PushChar {
    fn push_char(&mut self, c: char);
}

impl PushChar for String {
    fn push_char(&mut self, c: char) {
        self.push(c);
    }
}

struct Discard;

impl PushChar for Discard {
    fn push_char(&mut self, _c: char) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_free_strings_borrow() {
        let input = r#"{"service":"sshd","message":"Accepted password"}"#;
        let v = parse(input).unwrap();
        match v.get("message").unwrap() {
            Value::String(Cow::Borrowed(s)) => assert_eq!(*s, "Accepted password"),
            other => panic!("expected borrowed string, got {other:?}"),
        }
    }

    #[test]
    fn escapes_force_the_copy_path() {
        let v = parse(r#""a\nb""#).unwrap();
        match v {
            Value::String(Cow::Owned(s)) => assert_eq!(s, "a\nb"),
            other => panic!("expected owned string, got {other:?}"),
        }
    }

    #[test]
    fn into_owned_builds_the_owned_tree() {
        use crate::value::object;
        let input = r#"{"a": [1, 2, {"b": [true, null]}], "c": {}, "s": "x\ty", "a": [3]}"#;
        let expected = object::<&str, crate::Value>([
            ("a", crate::Value::Array(vec![3.into()])), // last duplicate wins
            ("c", object::<&str, crate::Value>([])),
            ("s", "x\ty".into()),
        ]);
        assert_eq!(parse(input).unwrap().into_owned(), expected);
    }

    /// Pinned `(kind, offset)` per malformed input: `ParseError` carries
    /// both to callers, so neither may drift.
    #[test]
    fn error_kind_and_offset_are_pinned() {
        use ErrorKind::*;
        let deep = "[".repeat(200) + &"]".repeat(200);
        for (bad, kind, offset) in [
            ("not json", UnexpectedChar('n'), 0),
            ("", UnexpectedEof, 0),
            ("   ", UnexpectedEof, 3),
            // Truncation.
            ("{", UnexpectedEof, 1),
            ("[1,", UnexpectedEof, 3),
            ("\"abc", UnexpectedEof, 4),
            ("{\"a\":", UnexpectedEof, 5),
            ("\"\\", UnexpectedEof, 2),
            ("tru", UnexpectedChar('t'), 0),
            ("nul", UnexpectedChar('n'), 0),
            // Numbers.
            ("-", BadNumber, 1),
            ("- 1", BadNumber, 1),
            ("01", TrailingData, 1),
            ("1.", BadNumber, 2),
            ("1e", BadNumber, 2),
            ("1e+", BadNumber, 3),
            (".5", UnexpectedChar('.'), 0),
            // Trailing data and structure.
            ("1 2", TrailingData, 2),
            ("[1 2]", UnexpectedChar('2'), 3),
            ("{1:2}", UnexpectedChar('1'), 1),
            ("{\"a\" 1}", UnexpectedChar('1'), 5),
            ("{\"a\":1,}", UnexpectedChar('}'), 7),
            // Escapes, lone surrogates, control characters.
            (r#""\q""#, BadEscape, 3),
            (r#""\u12""#, UnexpectedEof, 3),
            (r#""\u12g4""#, BadUnicodeEscape, 5),
            (r#""\ud800x""#, BadUnicodeEscape, 7),
            (r#""\ud800A""#, BadUnicodeEscape, 7),
            (r#""\udc00""#, BadUnicodeEscape, 7),
            ("\"a\u{01}b\"", ControlCharInString, 2),
            // The depth bound.
            (deep.as_str(), TooDeep, 129),
        ] {
            let expected = ParseError { offset, kind };
            assert_eq!(parse(bad).unwrap_err(), expected, "borrow on {bad:?}");
            assert_eq!(crate::parse(bad).unwrap_err(), expected, "owned on {bad:?}");
        }
    }

    #[test]
    fn object_fields_extracts_last_wins() {
        let [service, message] = object_fields(
            r#"{"service":"a","extra":[1,{"x":2}],"message":"m","service":"b"}"#,
            ["service", "message"],
        )
        .unwrap();
        assert_eq!(service.as_deref(), Some("b"));
        assert_eq!(message.as_deref(), Some("m"));
    }

    #[test]
    fn object_fields_non_string_last_occurrence_clears() {
        let [service] = object_fields(r#"{"service":"a","service":1}"#, ["service"]).unwrap();
        assert_eq!(service, None);
    }

    #[test]
    fn object_fields_rejects_non_objects_and_bad_json() {
        assert_eq!(
            object_fields("[1,2]", ["service"]),
            Err(FieldsError::NotAnObject)
        );
        assert!(matches!(
            object_fields("[1,2", ["service"]),
            Err(FieldsError::Json(_))
        ));
        assert!(matches!(
            object_fields(r#"{"a":1} trailing"#, ["a"]),
            Err(FieldsError::Json(ParseError {
                kind: ErrorKind::TrailingData,
                ..
            }))
        ));
    }

    #[test]
    fn object_fields_borrows_when_escape_free() {
        let input = r#"{"service":"sshd","message":"plain text"}"#;
        let [service, message] = object_fields(input, ["service", "message"]).unwrap();
        assert!(matches!(service, Some(Cow::Borrowed("sshd"))));
        assert!(matches!(message, Some(Cow::Borrowed("plain text"))));
        let escaped = r#"{"service":"sshd","message":"a\nb"}"#;
        let [_, message] = object_fields(escaped, ["service", "message"]).unwrap();
        assert!(matches!(message, Some(Cow::Owned(_))));
    }

    #[test]
    fn object_fields_escaped_key_still_matches() {
        // Key comparison happens after unescaping: "service" == "service".
        let [service] = object_fields("{\"serv\\u0069ce\":\"x\"}", ["service"]).unwrap();
        assert_eq!(service.as_deref(), Some("x"));
    }

    #[test]
    fn empty_object_yields_all_none() {
        let [a, b] = object_fields("{}", ["a", "b"]).unwrap();
        assert_eq!(a, None);
        assert_eq!(b, None);
    }
}
