//! The datetime finite state machine.
//!
//! Sequence's scanner uses a dedicated state machine to recognise date and
//! time stamps in a single pass. Date-time stamps are the main reason log
//! tokenisation cannot simply split on whitespace: formats such as
//! `Jan  2 15:04:05` or `2021-09-08 12:34:56` span spaces.
//!
//! The machine is table-driven: a list of format descriptions, each a sequence
//! of [`Part`]s, is matched against the input and the longest successful match
//! wins. This mirrors a classical FSM where each format is one path through
//! the state graph.
//!
//! The paper documents a limitation of the original machine: it "cannot
//! correctly detect time stamps where the leading zero on a time part is not
//! present" (e.g. the HealthApp format `20171224-0:7:20:444`). The default
//! scanner applies the paper's future-work fix, which relaxes
//! hour/minute/second fields to accept one digit;
//! [`ScannerOptions::paper`](super::ScannerOptions::paper) reproduces the
//! published limitation.

/// One field of a date-time format.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Part {
    /// A four-digit year (1900–2099).
    Year4,
    /// A two-digit month, 01–12.
    Month2,
    /// A two-digit day of month, 01–31.
    Day2,
    /// A day of month that may be a single digit, optionally space-padded
    /// (syslog writes `Jan  2`).
    DayPadded,
    /// An abbreviated or full English month name.
    MonthName,
    /// Hours 00–23. Two digits unless single-digit parts are allowed.
    Hour,
    /// Minutes or seconds, 00–59. Two digits unless single-digit parts are
    /// allowed.
    MinSec,
    /// A literal separator character.
    Sep(char),
    /// An optional sub-sequence: fractional seconds introduced by `.` or `,`.
    OptFraction,
    /// An optional timezone: `Z`, `UTC`, `GMT`, or `+hhmm`/`-hhmm`/`+hh:mm`.
    OptTimeZone,
    /// An optional ` AM`/` PM` marker (also lower case).
    OptAmPm,
    /// An eight-digit compact date `YYYYMMDD` (HealthApp).
    CompactDate,
    /// A two-digit year (Spark writes `17/06/09`).
    Year2,
    /// Milliseconds introduced by `:` (HealthApp writes `hh:mm:ss:SSS`).
    OptColonMillis,
    /// `T` or a single space between date and time.
    DateTimeSep,
}

use Part::*;

/// All recognised date-time formats, most specific first. The matcher tries
/// every format and keeps the longest match, so the ordering only breaks ties.
const FORMATS: &[&[Part]] = &[
    // 2021-09-08T12:34:56.789+02:00 / 2021-09-08 12:34:56
    &[
        Year4,
        Sep('-'),
        Month2,
        Sep('-'),
        Day2,
        DateTimeSep,
        Hour,
        Sep(':'),
        MinSec,
        Sep(':'),
        MinSec,
        OptFraction,
        OptTimeZone,
    ],
    // 2021/09/08 12:34:56
    &[
        Year4,
        Sep('/'),
        Month2,
        Sep('/'),
        Day2,
        DateTimeSep,
        Hour,
        Sep(':'),
        MinSec,
        Sep(':'),
        MinSec,
        OptFraction,
        OptTimeZone,
    ],
    // 09/08/2021 12:34:56 (also 8/9/2021 via DayPadded-ish month handled below)
    &[
        Month2,
        Sep('/'),
        Day2,
        Sep('/'),
        Year4,
        DateTimeSep,
        Hour,
        Sep(':'),
        MinSec,
        Sep(':'),
        MinSec,
        OptFraction,
        OptAmPm,
    ],
    // 08/Sep/2021:12:34:56 +0200 (Apache common log format)
    &[
        Day2,
        Sep('/'),
        MonthName,
        Sep('/'),
        Year4,
        Sep(':'),
        Hour,
        Sep(':'),
        MinSec,
        Sep(':'),
        MinSec,
        OptTimeZone,
    ],
    // Sep  8 12:34:56 / Sep 08 12:34:56 (classic syslog)
    &[
        MonthName,
        Sep(' '),
        DayPadded,
        Sep(' '),
        Hour,
        Sep(':'),
        MinSec,
        Sep(':'),
        MinSec,
        OptFraction,
    ],
    // Sep 8 2021 12:34:56
    &[
        MonthName,
        Sep(' '),
        DayPadded,
        Sep(' '),
        Year4,
        Sep(' '),
        Hour,
        Sep(':'),
        MinSec,
        Sep(':'),
        MinSec,
        OptFraction,
    ],
    // 20171224-00:07:20:444 (HealthApp)
    &[
        CompactDate,
        Sep('-'),
        Hour,
        Sep(':'),
        MinSec,
        Sep(':'),
        MinSec,
        OptColonMillis,
    ],
    // 17/06/09 20:10:40 (Spark-style two-digit year; only accepted with the
    // time attached, to avoid matching fraction-like text)
    &[
        Year2,
        Sep('/'),
        Month2,
        Sep('/'),
        Day2,
        Sep(' '),
        Hour,
        Sep(':'),
        MinSec,
        Sep(':'),
        MinSec,
        OptFraction,
    ],
    // 2005.06.03 12:34:56 (BGL-style dotted date)
    &[
        Year4,
        Sep('.'),
        Month2,
        Sep('.'),
        Day2,
        DateTimeSep,
        Hour,
        Sep(':'),
        MinSec,
        Sep(':'),
        MinSec,
        OptFraction,
    ],
    // 2021-09-08 (date only)
    &[Year4, Sep('-'), Month2, Sep('-'), Day2],
    // 2005.06.03 (dotted date only)
    &[Year4, Sep('.'), Month2, Sep('.'), Day2],
    // 12:34:56.789 / 12:34:56,789 / 12:34:56 (time only; requires three parts
    // to avoid matching arbitrary `a:b` literals)
    &[
        Hour,
        Sep(':'),
        MinSec,
        Sep(':'),
        MinSec,
        OptFraction,
        OptAmPm,
    ],
];

const MONTH_NAMES: &[&str] = &[
    "January",
    "February",
    "March",
    "April",
    "May",
    "June",
    "July",
    "August",
    "September",
    "October",
    "November",
    "December",
    "Jan",
    "Feb",
    "Mar",
    "Apr",
    "Jun",
    "Jul",
    "Aug",
    "Sep",
    "Oct",
    "Nov",
    "Dec",
];

/// Attempt to match a date-time stamp at the start of `s`.
///
/// Returns the byte length of the longest match, or `None`. The caller is
/// responsible for checking that the match ends at a token boundary.
pub fn match_at(s: &str, allow_single_digit: bool) -> Option<usize> {
    let b = s.as_bytes();
    // Fast rejection: every format starts with a digit or an upper/lower-case
    // month name letter.
    let first = *b.first()?;
    if !first.is_ascii_digit() && !first.is_ascii_alphabetic() {
        return None;
    }
    let mut best: Option<usize> = None;
    for fmt in FORMATS {
        if let Some(len) = match_format(b, fmt, allow_single_digit) {
            if best.map_or(true, |cur| len > cur) {
                best = Some(len);
            }
        }
    }
    best
}

fn match_format(b: &[u8], fmt: &[Part], allow_single: bool) -> Option<usize> {
    let mut i = 0usize;
    for part in fmt {
        match part {
            Year4 => {
                let d = digits(b, i, 4, 4)?;
                let year: u32 = parse_num(b, i, d);
                if !(1900..=2099).contains(&year) {
                    return None;
                }
                i += d;
            }
            Month2 => {
                let d = digits(b, i, 2, 2)?;
                let v: u32 = parse_num(b, i, d);
                if !(1..=12).contains(&v) {
                    return None;
                }
                i += d;
            }
            Day2 => {
                let d = digits(b, i, 2, 2)?;
                let v: u32 = parse_num(b, i, d);
                if !(1..=31).contains(&v) {
                    return None;
                }
                i += d;
            }
            DayPadded => {
                // syslog pads a single-digit day with a space: `Jan  2`. The
                // preceding Sep(' ') already consumed one space; accept an
                // optional second space followed by one digit, or two digits.
                if i < b.len() && b[i] == b' ' {
                    i += 1;
                    let d = digits(b, i, 1, 1)?;
                    let v: u32 = parse_num(b, i, d);
                    if !(1..=9).contains(&v) {
                        return None;
                    }
                    i += d;
                } else {
                    let d = digits(b, i, 1, 2)?;
                    let v: u32 = parse_num(b, i, d);
                    if !(1..=31).contains(&v) {
                        return None;
                    }
                    i += d;
                }
            }
            MonthName => {
                let rest = &b[i..];
                let name = MONTH_NAMES.iter().find(|m| {
                    rest.len() >= m.len()
                        && rest[..m.len()].eq_ignore_ascii_case(m.as_bytes())
                        // Must not be a prefix of a longer word ("Decode").
                        && rest.get(m.len()).map_or(true, |&c| !c.is_ascii_alphabetic())
                })?;
                i += name.len();
            }
            Hour => {
                let max_digits = 2;
                let min_digits = if allow_single { 1 } else { 2 };
                let d = digits(b, i, min_digits, max_digits)?;
                let v: u32 = parse_num(b, i, d);
                if v > 23 {
                    return None;
                }
                i += d;
            }
            MinSec => {
                let min_digits = if allow_single { 1 } else { 2 };
                let d = digits(b, i, min_digits, 2)?;
                let v: u32 = parse_num(b, i, d);
                if v > 59 {
                    return None;
                }
                i += d;
            }
            Sep(c) => {
                if i < b.len() && b[i] == *c as u8 {
                    i += 1;
                } else {
                    return None;
                }
            }
            DateTimeSep => {
                if i < b.len() && (b[i] == b' ' || b[i] == b'T') {
                    i += 1;
                } else {
                    return None;
                }
            }
            OptFraction => {
                if i < b.len() && (b[i] == b'.' || b[i] == b',') {
                    if let Some(d) = digits(b, i + 1, 1, 9) {
                        i += 1 + d;
                    }
                }
            }
            OptColonMillis => {
                if i < b.len() && b[i] == b':' {
                    if let Some(d) = digits(b, i + 1, 1, 9) {
                        i += 1 + d;
                    }
                }
            }
            OptTimeZone => {
                i += match_timezone(&b[i..]);
            }
            OptAmPm => {
                let rest = &b[i..];
                for marker in [b" AM".as_slice(), b" PM", b" am", b" pm"] {
                    if rest.len() >= marker.len() && rest[..marker.len()] == *marker {
                        i += marker.len();
                        break;
                    }
                }
            }
            Year2 => {
                let d = digits(b, i, 2, 2)?;
                i += d;
            }
            CompactDate => {
                let d = digits(b, i, 8, 8)?;
                let year: u32 = parse_num(b, i, 4);
                let month: u32 = parse_num(b, i + 4, 2);
                let day: u32 = parse_num(b, i + 6, 2);
                if !(1900..=2099).contains(&year)
                    || !(1..=12).contains(&month)
                    || !(1..=31).contains(&day)
                {
                    return None;
                }
                i += d;
            }
        }
    }
    Some(i)
}

/// Match an optional timezone suffix, returning the number of bytes consumed
/// (possibly zero).
fn match_timezone(b: &[u8]) -> usize {
    if b.is_empty() {
        return 0;
    }
    // `Z`
    if b[0] == b'Z' && b.get(1).map_or(true, |&c| !c.is_ascii_alphanumeric()) {
        return 1;
    }
    // ` UTC` / ` GMT`
    for marker in [b" UTC".as_slice(), b" GMT"] {
        if b.len() >= marker.len()
            && b[..marker.len()] == *marker
            && b.get(marker.len())
                .map_or(true, |&c| !c.is_ascii_alphanumeric())
        {
            return marker.len();
        }
    }
    // `+hhmm`, `-hhmm`, `+hh:mm`, optionally preceded by a space
    let (mut i, had_space) = if b[0] == b' ' { (1, true) } else { (0, false) };
    if i < b.len() && (b[i] == b'+' || b[i] == b'-') {
        i += 1;
        if let Some(d) = digits(b, i, 2, 2) {
            i += d;
            if i < b.len() && b[i] == b':' {
                if let Some(d2) = digits(b, i + 1, 2, 2) {
                    return i + 1 + d2;
                }
            }
            if let Some(d2) = digits(b, i, 2, 2) {
                return i + d2;
            }
            // `+hh` alone is too ambiguous; only accept with minutes.
            let _ = had_space;
        }
    }
    0
}

/// Count `min..=max` ASCII digits at `b[at..]`; `None` if fewer than `min`.
/// Consumes at most `max` even if more digits follow.
fn digits(b: &[u8], at: usize, min: usize, max: usize) -> Option<usize> {
    let mut n = 0usize;
    while n < max && at + n < b.len() && b[at + n].is_ascii_digit() {
        n += 1;
    }
    if n >= min {
        Some(n)
    } else {
        None
    }
}

fn parse_num(b: &[u8], at: usize, len: usize) -> u32 {
    let mut v = 0u32;
    for &c in &b[at..at + len] {
        v = v * 10 + (c - b'0') as u32;
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(s: &str) -> Option<usize> {
        match_at(s, false)
    }
    fn ms(s: &str) -> Option<usize> {
        match_at(s, true)
    }

    #[test]
    fn iso_datetime() {
        assert_eq!(m("2021-09-08 12:34:56 rest"), Some(19));
        assert_eq!(m("2021-09-08T12:34:56Z rest"), Some(20));
        assert_eq!(m("2021-09-08 12:34:56.789"), Some(23));
        assert_eq!(m("2021-09-08 12:34:56,789"), Some(23));
    }

    #[test]
    fn iso_with_timezone() {
        assert_eq!(m("2021-09-08T12:34:56+02:00"), Some(25));
        assert_eq!(m("2021-09-08 12:34:56 +0200"), Some(25));
    }

    #[test]
    fn date_only() {
        assert_eq!(m("2021-09-08 foo"), Some(10));
        assert_eq!(m("2021-13-08"), None); // invalid month
    }

    #[test]
    fn slash_dates() {
        assert_eq!(m("2021/09/08 12:34:56"), Some(19));
        assert_eq!(m("09/08/2021 12:34:56"), Some(19));
    }

    #[test]
    fn spark_two_digit_year() {
        assert_eq!(m("17/06/09 20:10:40 INFO"), Some(17));
        // Without the time part the shape is too ambiguous to claim.
        assert_eq!(m("17/06/09 rest"), None);
        // Middle field must be a valid month.
        assert_eq!(m("17/13/09 20:10:40"), None);
    }

    #[test]
    fn dotted_dates_bgl_style() {
        assert_eq!(m("2005.06.03 rest"), Some(10));
        assert_eq!(m("2005.06.03 15:42:50.675872"), Some(26));
        // A plain decimal must not match (month out of range).
        assert_eq!(m("2005.99"), None);
    }

    #[test]
    fn apache_clf() {
        assert_eq!(m("08/Sep/2021:12:34:56 +0200"), Some(26));
    }

    #[test]
    fn syslog_month_day() {
        assert_eq!(m("Sep  8 12:34:56 host"), Some(15));
        assert_eq!(m("Sep 08 12:34:56 host"), Some(15));
        assert_eq!(m("Jun 14 15:16:01 combo"), Some(15));
    }

    #[test]
    fn syslog_month_day_year() {
        assert_eq!(m("Sep 8 2021 12:34:56"), Some(19));
    }

    #[test]
    fn time_only() {
        assert_eq!(m("12:34:56 next"), Some(8));
        assert_eq!(m("12:34:56.789"), Some(12));
        // Two-part times are not matched (too ambiguous).
        assert_eq!(m("12:34 next"), None);
    }

    #[test]
    fn healthapp_compact_with_leading_zeros() {
        assert_eq!(m("20171224-00:07:20:444"), Some(21));
    }

    #[test]
    fn healthapp_single_digit_reproduces_paper_limitation() {
        // Default scanner: fails, exactly as §IV's limitation describes.
        assert_eq!(m("20171224-0:7:20:444"), None);
        // Future-work fix enabled: matches.
        assert_eq!(ms("20171224-0:7:20:444"), Some(19));
    }

    #[test]
    fn rejects_plain_words_and_numbers() {
        assert_eq!(m("hello world"), None);
        assert_eq!(m("123456"), None);
        assert_eq!(m("December"), None); // month name alone is not a timestamp
        assert_eq!(m("Decode 12"), None); // month-name prefix of longer word
    }

    #[test]
    fn rejects_invalid_field_values() {
        assert_eq!(m("25:00:00"), None); // hour 25
        assert_eq!(m("12:61:00"), None); // minute 61
        assert_eq!(m("2021-09-32"), None); // day 32
    }

    #[test]
    fn am_pm_suffix() {
        assert_eq!(m("09/08/2021 11:34:56 PM x"), Some(22));
    }

    #[test]
    fn longest_match_wins() {
        // Date-only format also matches a prefix of the full stamp; the full
        // stamp must win.
        assert_eq!(m("2021-09-08 12:34:56"), Some(19));
    }
}
