//! The stream item: one log record from one service.
//!
//! "Each item in the stream is simply expected to be using a JSON format with
//! only two fields: `service` (the source system) from where the message
//! originated and the unaltered log `message`."

use std::fmt;

/// One log record of the composite input stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogRecord {
    /// The source system ("service") the message came from.
    pub service: String,
    /// The unaltered log message.
    pub message: String,
}

/// Why a stream line could not be turned into a [`LogRecord`].
#[derive(Debug, Clone, PartialEq)]
pub enum RecordError {
    /// The line is not valid JSON.
    Json(jsonlite::ParseError),
    /// The JSON value is not an object.
    NotAnObject,
    /// `service` missing or not a string.
    MissingService,
    /// `message` missing or not a string.
    MissingMessage,
}

impl fmt::Display for RecordError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecordError::Json(e) => write!(f, "invalid JSON: {e}"),
            RecordError::NotAnObject => write!(f, "stream item is not a JSON object"),
            RecordError::MissingService => write!(f, "missing string field 'service'"),
            RecordError::MissingMessage => write!(f, "missing string field 'message'"),
        }
    }
}

impl std::error::Error for RecordError {}

impl LogRecord {
    /// Construct a record directly.
    pub fn new(service: impl Into<String>, message: impl Into<String>) -> LogRecord {
        LogRecord {
            service: service.into(),
            message: message.into(),
        }
    }

    /// Parse one JSON stream line.
    ///
    /// Uses the jsonlite borrow mode: the document is validated in full,
    /// but no value tree is built and — on escape-free lines — the only
    /// heap allocations are the two returned field `String`s.
    pub fn from_json_line(line: &str) -> Result<LogRecord, RecordError> {
        match jsonlite::borrow::object_fields(line.trim(), ["service", "message"]) {
            Ok([service, message]) => {
                let service = service.ok_or(RecordError::MissingService)?;
                let message = message.ok_or(RecordError::MissingMessage)?;
                Ok(LogRecord {
                    service: service.into_owned(),
                    message: message.into_owned(),
                })
            }
            Err(jsonlite::borrow::FieldsError::NotAnObject) => Err(RecordError::NotAnObject),
            Err(jsonlite::borrow::FieldsError::Json(e)) => Err(RecordError::Json(e)),
        }
    }

    /// Serialise back to the stream format (multi-line messages stay one
    /// JSON line thanks to `\n` escaping — this is how Sequence-RTG "can
    /// process the complete message as one unit", limitation 6).
    pub fn to_json_line(&self) -> String {
        let mut line = String::new();
        self.write_json_line(&mut line);
        line
    }

    /// Append the [`LogRecord::to_json_line`] form to `out` (no trailing
    /// newline): compact, keys in the sorted order `jsonlite` objects
    /// serialise in. The ingest WAL writes whole batches through this into
    /// one reused buffer, without a value tree or a `String` per line.
    pub fn write_json_line(&self, out: &mut String) {
        out.push_str("{\"message\":");
        jsonlite::ser::write_string(&self.message, out);
        out.push_str(",\"service\":");
        jsonlite::ser::write_string(&self.service, out);
        out.push('}');
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_stream_item() {
        let r = LogRecord::from_json_line(
            r#"{"service": "sshd", "message": "Accepted password for root"}"#,
        )
        .unwrap();
        assert_eq!(r.service, "sshd");
        assert_eq!(r.message, "Accepted password for root");
    }

    #[test]
    fn round_trip_with_multiline_message() {
        let r = LogRecord::new("app", "panic: boom\n  at frame 1\n  at frame 2");
        let line = r.to_json_line();
        assert!(!line.contains('\n'));
        assert_eq!(LogRecord::from_json_line(&line).unwrap(), r);
    }

    /// `write_json_line` is the one serialiser of the stream format: it
    /// emits byte for byte what the generic `jsonlite` object path does
    /// (the WAL's on-disk format must not move), and parses back.
    #[test]
    fn write_json_line_matches_the_generic_serialiser_and_round_trips() {
        use testkit::prop::{self, Config};
        use testkit::prop_assert_eq;
        // Quotes, backslashes, named and unnamed control bytes, DEL, and
        // two-, three- and four-byte UTF-8, mixed into plain text.
        let field = || {
            prop::string(
                "ab 1:/{}[],\"\\\n\r\t\u{8}\u{c}\u{0}\u{1}\u{1f}\u{7f}\u{e9}\u{20ac}\u{1f980}",
                0..24,
            )
        };
        prop::check(
            &Config::cases(512),
            &(field(), field()),
            |(service, message)| {
                let r = LogRecord::new(service.as_str(), message.as_str());
                let mut line = String::from("kept"); // appends, never clears
                r.write_json_line(&mut line);
                let generic = jsonlite::to_string(&jsonlite::object([
                    ("service", r.service.as_str()),
                    ("message", r.message.as_str()),
                ]));
                prop_assert_eq!(&line["kept".len()..], generic.as_str());
                prop_assert_eq!(LogRecord::from_json_line(&generic).unwrap(), r);
                Ok(())
            },
        );
    }

    #[test]
    fn extra_fields_tolerated() {
        let r =
            LogRecord::from_json_line(r#"{"service":"x","message":"m","host":"ignored"}"#).unwrap();
        assert_eq!(r.service, "x");
    }

    #[test]
    fn errors() {
        assert!(matches!(
            LogRecord::from_json_line("not json"),
            Err(RecordError::Json(_))
        ));
        assert!(matches!(
            LogRecord::from_json_line("[1,2]"),
            Err(RecordError::NotAnObject)
        ));
        assert!(matches!(
            LogRecord::from_json_line(r#"{"message":"m"}"#),
            Err(RecordError::MissingService)
        ));
        assert!(matches!(
            LogRecord::from_json_line(r#"{"service":"s"}"#),
            Err(RecordError::MissingMessage)
        ));
        assert!(matches!(
            LogRecord::from_json_line(r#"{"service":1,"message":"m"}"#),
            Err(RecordError::MissingService)
        ));
    }

    #[test]
    fn whitespace_tolerated() {
        assert!(LogRecord::from_json_line("  {\"service\":\"s\",\"message\":\"m\"}  \n").is_ok());
    }
}
