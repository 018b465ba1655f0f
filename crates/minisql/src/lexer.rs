//! SQL tokenizer.

use crate::error::Error;

/// A lexical token.
#[derive(Debug, Clone, PartialEq)]
pub enum Tok {
    /// Keyword or identifier (keywords are recognised case-insensitively by
    /// the parser; the lexer just uppercases a copy for comparison).
    Ident(String),
    /// `'single quoted'` string literal; `''` escapes a quote.
    Str(String),
    /// Integer literal. A leading `-` is a token of its own, so the
    /// magnitude is unsigned: `-9223372036854775808` (`i64::MIN`) lexes.
    Int(u64),
    /// Float literal.
    Float(f64),
    /// `?` positional parameter.
    Param,
    /// Punctuation / operator.
    Punct(&'static str),
}

impl Tok {
    /// Uppercased identifier text, for keyword checks.
    pub fn keyword(&self) -> Option<String> {
        match self {
            Tok::Ident(s) => Some(s.to_ascii_uppercase()),
            _ => None,
        }
    }
}

/// Tokenise a statement.
pub fn lex(sql: &str) -> Result<Vec<Tok>, Error> {
    let b = sql.as_bytes();
    let mut i = 0usize;
    let mut out = Vec::new();
    while i < b.len() {
        let c = b[i];
        if c.is_ascii_whitespace() {
            i += 1;
            continue;
        }
        // Line comments.
        if c == b'-' && b.get(i + 1) == Some(&b'-') {
            while i < b.len() && b[i] != b'\n' {
                i += 1;
            }
            continue;
        }
        if c == b'\'' {
            let mut s = String::new();
            i += 1;
            loop {
                match b.get(i) {
                    None => return Err(Error::Lex("unterminated string literal".into())),
                    Some(b'\'') => {
                        if b.get(i + 1) == Some(&b'\'') {
                            s.push('\'');
                            i += 2;
                        } else {
                            i += 1;
                            break;
                        }
                    }
                    Some(_) => {
                        // Consume one UTF-8 scalar.
                        let rest = &sql[i..];
                        let ch = rest.chars().next().unwrap();
                        s.push(ch);
                        i += ch.len_utf8();
                    }
                }
            }
            out.push(Tok::Str(s));
            continue;
        }
        if c.is_ascii_digit() {
            let start = i;
            let mut is_float = false;
            while i < b.len() && (b[i].is_ascii_digit() || b[i] == b'.') {
                is_float |= b[i] == b'.';
                i += 1;
            }
            let text = &sql[start..i];
            let bad = || Error::Lex(format!("bad number {text}"));
            out.push(match is_float {
                true => Tok::Float(text.parse().map_err(|_| bad())?),
                false => Tok::Int(text.parse().map_err(|_| bad())?),
            });
            continue;
        }
        if c.is_ascii_alphabetic() || c == b'_' {
            let start = i;
            while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
                i += 1;
            }
            out.push(Tok::Ident(sql[start..i].to_string()));
            continue;
        }
        if c == b'?' {
            out.push(Tok::Param);
            i += 1;
            continue;
        }
        // Two-byte operators first.
        let punct = match (c, b.get(i + 1)) {
            (b'<', Some(b'=')) => Some("<="),
            (b'>', Some(b'=')) => Some(">="),
            (b'!', Some(b'=')) => Some("!="),
            (b'<', Some(b'>')) => Some("<>"),
            _ => None,
        };
        if let Some(p) = punct {
            out.push(Tok::Punct(p));
            i += 2;
            continue;
        }
        let one = match c {
            b'(' => "(",
            b')' => ")",
            b',' => ",",
            b'=' => "=",
            b'<' => "<",
            b'>' => ">",
            b'*' => "*",
            b'+' => "+",
            b'-' => "-",
            _ => return Err(Error::Lex(format!("unexpected character {:?}", c as char))),
        };
        out.push(Tok::Punct(one));
        i += 1;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_statement() {
        let toks = lex("SELECT a, b FROM t WHERE a = 'x''y' AND b >= 1.5").unwrap();
        assert!(toks.contains(&Tok::Str("x'y".into())));
        assert!(toks.contains(&Tok::Punct(">=")));
        assert!(toks.contains(&Tok::Float(1.5)));
    }

    #[test]
    fn params_and_comments() {
        let toks = lex("INSERT INTO t VALUES (?, ?) -- trailing comment").unwrap();
        assert_eq!(toks.iter().filter(|t| **t == Tok::Param).count(), 2);
    }

    #[test]
    fn unterminated_string_errors() {
        assert!(lex("SELECT 'oops").is_err());
    }

    #[test]
    fn negative_handled_as_punct_minus() {
        let toks = lex("-5").unwrap();
        assert_eq!(toks, vec![Tok::Punct("-"), Tok::Int(5)]);
    }

    #[test]
    fn unicode_in_strings() {
        let toks = lex("'étoile 😀'").unwrap();
        assert_eq!(toks, vec![Tok::Str("étoile 😀".into())]);
    }

    #[test]
    fn unexpected_char_errors() {
        assert!(lex("SELECT @x").is_err());
        assert!(lex("SELECT a FROM t WHERE a || 'x'").is_err());
        assert!(lex("SELECT a FROM t WHERE a <é").is_err());
    }
}
