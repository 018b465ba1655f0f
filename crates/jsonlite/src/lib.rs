//! # jsonlite
//!
//! A small, dependency-free JSON parser and serialiser (RFC 8259).
//!
//! Sequence-RTG's data stream ingester expects "each item in the stream
//! [to be] using a JSON format with only two fields: `service` [...] and the
//! unaltered log `message`". This crate provides the JSON substrate for that
//! ingester (and for anything else in the workspace that needs structured
//! text), standing in for `serde_json`, which is outside the allowed offline
//! dependency set — see DESIGN.md §2.
//!
//! ```
//! let item = jsonlite::parse(r#"{"service":"sshd","message":"session opened"}"#).unwrap();
//! assert_eq!(item.get("service").unwrap().as_str(), Some("sshd"));
//! assert_eq!(jsonlite::parse(&jsonlite::to_string(&item)).unwrap(), item);
//! ```

#![warn(missing_docs)]

pub mod borrow;
pub mod parse;
pub mod ser;
pub mod value;

pub use parse::{parse, ErrorKind, ParseError};
pub use ser::{to_string, to_string_pretty};
pub use value::{object, Value};

#[cfg(test)]
mod proptests {
    use super::*;
    use std::collections::BTreeMap;
    use testkit::prop::{self, Config, Strategy};
    use testkit::prop_assert_eq;
    use testkit::rng::Rng;

    /// Recursive JSON value strategy with structural shrinking: containers
    /// shrink toward fewer entries and then toward their children; leaves
    /// shrink toward `null`.
    struct ArbValue {
        depth: u32,
    }

    fn arb_value() -> ArbValue {
        ArbValue { depth: 4 }
    }

    const STRING_CHARS: &str = "abcXYZ09 _%/.:=-\\\"\u{e9}\u{4e2d}\n\t";

    fn gen_value(rng: &mut Rng, depth: u32) -> Value {
        let leaf_only = depth == 0;
        match rng.gen_range(0..if leaf_only { 6 } else { 8 }) {
            0 => Value::Null,
            1 => Value::Bool(rng.gen_bool(0.5)),
            // Finite numbers only (JSON cannot express NaN/Inf).
            2 => Value::Number(rng.gen_range(-1.0e12..1.0e12)),
            3 => Value::Number(rng.gen_range(i32::MIN as i64..i32::MAX as i64 + 1) as f64),
            4 => Value::Number(rng.gen_range(-1000..1000i64) as f64),
            5 => {
                let chars: Vec<char> = STRING_CHARS.chars().collect();
                let n = rng.gen_range(0..24usize);
                Value::String((0..n).map(|_| *rng.choose(&chars).unwrap()).collect())
            }
            6 => {
                let n = rng.gen_range(0..6usize);
                Value::Array((0..n).map(|_| gen_value(rng, depth - 1)).collect())
            }
            _ => {
                let n = rng.gen_range(0..6usize);
                let mut map = BTreeMap::new();
                for _ in 0..n {
                    let klen = rng.gen_range(1..9usize);
                    let key: String = (0..klen)
                        .map(|_| char::from(rng.gen_range(b'a'..=b'z')))
                        .collect();
                    map.insert(key, gen_value(rng, depth - 1));
                }
                Value::Object(map)
            }
        }
    }

    fn shrink_value(v: &Value) -> Vec<Value> {
        let mut out = Vec::new();
        match v {
            Value::Null => {}
            Value::Bool(_) | Value::Number(_) => out.push(Value::Null),
            Value::String(s) => {
                out.push(Value::Null);
                if !s.is_empty() {
                    let cs: Vec<char> = s.chars().collect();
                    out.push(Value::String(cs[..cs.len() / 2].iter().collect()));
                    for i in 0..cs.len().min(8) {
                        let mut c = cs.clone();
                        c.remove(i);
                        out.push(Value::String(c.into_iter().collect()));
                    }
                }
            }
            Value::Array(items) => {
                out.push(Value::Null);
                // Promote each child (dives below the container), drop each
                // element, then shrink elements in place.
                out.extend(items.iter().cloned());
                for i in 0..items.len() {
                    let mut v = items.clone();
                    v.remove(i);
                    out.push(Value::Array(v));
                }
                for (i, item) in items.iter().enumerate() {
                    for cand in shrink_value(item) {
                        let mut v = items.clone();
                        v[i] = cand;
                        out.push(Value::Array(v));
                        if out.len() >= 48 {
                            return out;
                        }
                    }
                }
            }
            Value::Object(map) => {
                out.push(Value::Null);
                out.extend(map.values().cloned());
                for key in map.keys() {
                    let mut m = map.clone();
                    m.remove(key);
                    out.push(Value::Object(m));
                }
                for (key, val) in map {
                    for cand in shrink_value(val) {
                        let mut m = map.clone();
                        m.insert(key.clone(), cand);
                        out.push(Value::Object(m));
                        if out.len() >= 48 {
                            return out;
                        }
                    }
                }
            }
        }
        out
    }

    impl Strategy for ArbValue {
        type Value = Value;

        fn generate(&self, rng: &mut Rng) -> Value {
            gen_value(rng, self.depth)
        }

        fn shrink(&self, v: &Value) -> Vec<Value> {
            shrink_value(v)
        }
    }

    /// Serialise → parse is the identity for every finite value.
    #[test]
    fn round_trip() {
        prop::check(&Config::default(), &arb_value(), |v| {
            let s = to_string(v);
            let back = parse(&s).map_err(|e| format!("{e:?} for {s:?}"))?;
            prop_assert_eq!(&back, v);
            Ok(())
        });
    }

    /// Pretty output parses back to the same value.
    #[test]
    fn pretty_round_trip() {
        prop::check(&Config::default(), &arb_value(), |v| {
            let back = parse(&to_string_pretty(v)).map_err(|e| format!("{e:?}"))?;
            prop_assert_eq!(&back, v);
            Ok(())
        });
    }

    /// The parser never panics on arbitrary input.
    #[test]
    fn parser_total() {
        prop::check(&Config::default(), &prop::unicode_string(0..200), |s| {
            let _ = parse(s);
            Ok(())
        });
    }

    /// Parsing arbitrary printable input either fails or yields a value
    /// that round-trips.
    #[test]
    fn parse_then_round_trip() {
        prop::check(&Config::default(), &prop::ascii_string(0..64), |s| {
            if let Ok(v) = parse(s) {
                prop_assert_eq!(&parse(&to_string(&v)).unwrap(), &v);
            }
            Ok(())
        });
    }

    /// A borrow is never wrong: the zero-copy fast path is taken exactly
    /// when the encoded string has no escapes.
    #[test]
    fn escapes_always_force_the_copy_path() {
        let strategy = (arb_value(), arb_value());
        prop::check(&Config::default(), &strategy, |(service, message)| {
            let line = to_string(&object([
                ("service", service.clone()),
                ("message", message.clone()),
            ]));
            let v = borrow::parse(&line).map_err(|e| format!("{e:?}"))?;
            for key in ["service", "message"] {
                let encoded = to_string(parse(&line).unwrap().get(key).unwrap());
                if let Some(borrow::Value::String(cow)) = v.get(key) {
                    let has_escape = encoded.contains('\\');
                    prop_assert_eq!(
                        matches!(cow, std::borrow::Cow::Owned(_)),
                        has_escape,
                        "copy-path mismatch for {encoded:?}"
                    );
                }
            }
            Ok(())
        });
    }

    /// The ingest fast path `object_fields` agrees with the owned
    /// parse-then-lookup derivation on record-shaped lines (including
    /// escapes, duplicate keys, extra fields, and invalid documents).
    #[test]
    fn object_fields_equals_owned_derivation() {
        let strategy = (arb_value(), prop::unicode_string(0..80));
        prop::check(&Config::cases(400), &strategy, |(v, garbage)| {
            let mut lines = vec![to_string(v), garbage.clone()];
            if let Value::String(s) = v {
                lines.push(format!(
                    "{{\"service\":{0},\"message\":{0},\"service\":{0}}}",
                    to_string(&Value::String(s.clone()))
                ));
            }
            for line in lines {
                let expected = match parse(&line) {
                    Err(e) => Err(borrow::FieldsError::Json(e)),
                    Ok(v) => match v.as_object() {
                        None => Err(borrow::FieldsError::NotAnObject),
                        Some(obj) => Ok([
                            obj.get("service")
                                .and_then(|x| x.as_str())
                                .map(String::from),
                            obj.get("message")
                                .and_then(|x| x.as_str())
                                .map(String::from),
                        ]),
                    },
                };
                let got = borrow::object_fields(&line, ["service", "message"])
                    .map(|f| f.map(|o| o.map(|c| c.into_owned())));
                prop_assert_eq!(&got, &expected, "line {:?}", &line);
            }
            Ok(())
        });
    }
}
