//! A linter for the Prometheus text exposition format.
//!
//! This is the CI contract checker for `/metrics`: it verifies that every
//! exported series is self-describing (`# HELP` + `# TYPE` before the first
//! sample), that histogram buckets are cumulative-monotone and end in
//! `+Inf` with `_count` equal to the `+Inf` bucket, that `_sum`/`_count`
//! are present for every histogram series, and that no series (name +
//! label set) is exported twice. It also extracts the metric-family name
//! set so `ci.sh` can diff it against the checked-in golden contract.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// One lint finding, with the 1-based line number it was found on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LintError {
    /// 1-based line number in the scraped text.
    pub line: usize,
    /// Human-readable description of the violation.
    pub message: String,
}

impl fmt::Display for LintError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

#[derive(Debug, Clone, PartialEq)]
struct Sample {
    line: usize,
    name: String,
    labels: Vec<(String, String)>,
    value: f64,
}

/// Lint `text`; returns all findings (empty means the exposition is clean).
pub fn lint(text: &str) -> Vec<LintError> {
    let mut errors = Vec::new();
    let mut help: BTreeMap<String, usize> = BTreeMap::new();
    let mut types: BTreeMap<String, (String, usize)> = BTreeMap::new();
    let mut samples: Vec<Sample> = Vec::new();
    let mut seen_series: BTreeSet<String> = BTreeSet::new();
    let mut first_sample_line: BTreeMap<String, usize> = BTreeMap::new();

    for (i, raw) in text.lines().enumerate() {
        let lineno = i + 1;
        let line = raw.trim_end();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix('#') {
            let rest = rest.trim_start();
            if let Some(spec) = rest.strip_prefix("HELP ") {
                match spec.split_once(' ') {
                    Some((name, _)) if valid_name(name) => {
                        if help.insert(name.to_string(), lineno).is_some() {
                            errors.push(err(lineno, format!("duplicate HELP for {name}")));
                        }
                    }
                    _ => errors.push(err(lineno, format!("malformed HELP line: {line}"))),
                }
            } else if let Some(spec) = rest.strip_prefix("TYPE ") {
                let mut parts = spec.split_whitespace();
                match (parts.next(), parts.next(), parts.next()) {
                    (Some(name), Some(ty), None)
                        if valid_name(name)
                            && matches!(
                                ty,
                                "counter" | "gauge" | "histogram" | "summary" | "untyped"
                            ) =>
                    {
                        if types
                            .insert(name.to_string(), (ty.to_string(), lineno))
                            .is_some()
                        {
                            errors.push(err(lineno, format!("duplicate TYPE for {name}")));
                        }
                    }
                    _ => errors.push(err(lineno, format!("malformed TYPE line: {line}"))),
                }
            }
            // Other comments are allowed and ignored.
            continue;
        }
        match parse_sample(line) {
            Ok((name, labels, value)) => {
                if !valid_name(&name) {
                    errors.push(err(lineno, format!("invalid metric name: {name}")));
                }
                for (k, _) in &labels {
                    if !valid_label(k) {
                        errors.push(err(lineno, format!("invalid label name: {k}")));
                    }
                }
                let series_key = format!("{name}{{{}}}", canonical_labels(&labels));
                if !seen_series.insert(series_key.clone()) {
                    errors.push(err(lineno, format!("duplicate series: {series_key}")));
                }
                first_sample_line.entry(name.clone()).or_insert(lineno);
                samples.push(Sample {
                    line: lineno,
                    name,
                    labels,
                    value,
                });
            }
            Err(msg) => errors.push(err(lineno, msg)),
        }
    }

    // Every sample must belong to a family with HELP and TYPE, declared
    // before the family's first sample.
    for s in &samples {
        let family = family_of(&s.name, &types);
        match family {
            Some(f) => {
                let (_, type_line) = &types[&f];
                if *type_line > s.line {
                    errors.push(err(
                        s.line,
                        format!("sample {} precedes its TYPE declaration", s.name),
                    ));
                }
                match help.get(&f) {
                    None => errors.push(err(s.line, format!("series {} has no HELP", s.name))),
                    Some(help_line) if *help_line > s.line => errors.push(err(
                        s.line,
                        format!("sample {} precedes its HELP declaration", s.name),
                    )),
                    _ => {}
                }
            }
            None => errors.push(err(s.line, format!("series {} has no TYPE", s.name))),
        }
    }

    // Histogram structure checks, per (family, non-le label set).
    let histogram_families: BTreeSet<String> = types
        .iter()
        .filter(|(_, (ty, _))| ty == "histogram")
        .map(|(name, _)| name.clone())
        .collect();
    for fam in &histogram_families {
        check_histogram(fam, &samples, &mut errors);
    }

    errors.sort_by_key(|e| e.line);
    errors
}

fn check_histogram(fam: &str, samples: &[Sample], errors: &mut Vec<LintError>) {
    // Group by the label set excluding `le`.
    let mut groups: BTreeMap<String, Vec<&Sample>> = BTreeMap::new();
    for s in samples {
        let base = s
            .name
            .strip_suffix("_bucket")
            .or_else(|| s.name.strip_suffix("_sum"))
            .or_else(|| s.name.strip_suffix("_count"))
            .unwrap_or(&s.name);
        if base != fam {
            continue;
        }
        let non_le: Vec<(String, String)> = s
            .labels
            .iter()
            .filter(|(k, _)| k != "le")
            .cloned()
            .collect();
        groups.entry(canonical_labels(&non_le)).or_default().push(s);
    }
    for (labels, group) in groups {
        let series = if labels.is_empty() {
            fam.to_string()
        } else {
            format!("{fam}{{{labels}}}")
        };
        let mut buckets: Vec<&Sample> = Vec::new();
        let mut sum = None;
        let mut count = None;
        for s in &group {
            if s.name.ends_with("_bucket") {
                buckets.push(s);
            } else if s.name.ends_with("_sum") {
                sum = Some(*s);
            } else if s.name.ends_with("_count") {
                count = Some(*s);
            }
        }
        let first_line = group.first().map(|s| s.line).unwrap_or(0);
        if sum.is_none() {
            errors.push(err(first_line, format!("histogram {series} has no _sum")));
        }
        let Some(count) = count else {
            errors.push(err(first_line, format!("histogram {series} has no _count")));
            continue;
        };
        if buckets.is_empty() {
            errors.push(err(
                first_line,
                format!("histogram {series} has no _bucket samples"),
            ));
            continue;
        }
        let mut prev_le = f64::NEG_INFINITY;
        let mut prev_cum = -1.0f64;
        let mut has_inf = false;
        for b in &buckets {
            let le = match b.labels.iter().find(|(k, _)| k == "le") {
                Some((_, v)) if v == "+Inf" => f64::INFINITY,
                Some((_, v)) => match v.parse::<f64>() {
                    Ok(x) => x,
                    Err(_) => {
                        errors.push(err(b.line, format!("histogram {series}: bad le \"{v}\"")));
                        continue;
                    }
                },
                None => {
                    errors.push(err(
                        b.line,
                        format!("histogram {series}: _bucket without le label"),
                    ));
                    continue;
                }
            };
            if le <= prev_le {
                errors.push(err(
                    b.line,
                    format!("histogram {series}: le values not strictly increasing"),
                ));
            }
            if b.value < prev_cum {
                errors.push(err(
                    b.line,
                    format!("histogram {series}: bucket counts not cumulative-monotone"),
                ));
            }
            if le.is_infinite() {
                has_inf = true;
            }
            prev_le = le;
            prev_cum = b.value;
        }
        if !has_inf {
            errors.push(err(
                buckets.last().unwrap().line,
                format!("histogram {series}: buckets do not end in +Inf"),
            ));
        } else if let Some(last) = buckets.last() {
            if (last.value - count.value).abs() > f64::EPSILON * count.value.max(1.0) {
                errors.push(err(
                    count.line,
                    format!(
                        "histogram {series}: _count ({}) != +Inf bucket ({})",
                        count.value, last.value
                    ),
                ));
            }
        }
    }
}

/// The family a sample belongs to, given the declared TYPEs. For histogram
/// and summary types, `_bucket`/`_sum`/`_count` suffixes map back to the
/// base family; everything else must match a TYPE by exact name.
fn family_of(name: &str, types: &BTreeMap<String, (String, usize)>) -> Option<String> {
    if types.contains_key(name) {
        return Some(name.to_string());
    }
    for suffix in ["_bucket", "_sum", "_count"] {
        if let Some(base) = name.strip_suffix(suffix) {
            if let Some((ty, _)) = types.get(base) {
                if ty == "histogram" || ty == "summary" {
                    return Some(base.to_string());
                }
            }
        }
    }
    None
}

/// The sorted set of metric-family names in `text` (samples folded to
/// their base family using the declared TYPEs).
pub fn metric_names(text: &str) -> Vec<String> {
    let mut types: BTreeMap<String, (String, usize)> = BTreeMap::new();
    for line in text.lines() {
        if let Some(spec) = line.trim().strip_prefix("# TYPE ") {
            let mut parts = spec.split_whitespace();
            if let (Some(name), Some(ty)) = (parts.next(), parts.next()) {
                types.insert(name.to_string(), (ty.to_string(), 0));
            }
        }
    }
    let mut names: BTreeSet<String> = BTreeSet::new();
    for line in text.lines() {
        let line = line.trim_end();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Ok((name, _, _)) = parse_sample(line) {
            names.insert(family_of(&name, &types).unwrap_or(name));
        }
    }
    names.into_iter().collect()
}

fn err(line: usize, message: String) -> LintError {
    LintError { line, message }
}

fn canonical_labels(labels: &[(String, String)]) -> String {
    let mut sorted: Vec<&(String, String)> = labels.iter().collect();
    sorted.sort();
    sorted
        .iter()
        .map(|(k, v)| format!("{k}=\"{v}\""))
        .collect::<Vec<_>>()
        .join(",")
}

fn valid_name(name: &str) -> bool {
    crate::registry::valid_metric_name(name)
}

fn valid_label(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// A parsed sample line: name, labels in order, value.
type ParsedSample = (String, Vec<(String, String)>, f64);

/// Parse one sample line: `name{k="v",...} value [timestamp]`.
fn parse_sample(line: &str) -> Result<ParsedSample, String> {
    let line = line.trim();
    let name_end = line
        .find(|c: char| c == '{' || c.is_whitespace())
        .ok_or_else(|| format!("malformed sample (no value): {line}"))?;
    let name = line[..name_end].to_string();
    let rest = &line[name_end..];
    let (labels, rest) = if let Some(body) = rest.strip_prefix('{') {
        let close =
            find_label_close(body).ok_or_else(|| format!("unterminated label set: {line}"))?;
        (parse_labels(&body[..close])?, &body[close + 1..])
    } else {
        (Vec::new(), rest)
    };
    let mut fields = rest.split_whitespace();
    let value_str = fields
        .next()
        .ok_or_else(|| format!("sample has no value: {line}"))?;
    let value = parse_value(value_str)
        .ok_or_else(|| format!("unparseable sample value \"{value_str}\""))?;
    if let Some(ts) = fields.next() {
        if ts.parse::<i64>().is_err() {
            return Err(format!("unparseable timestamp \"{ts}\""));
        }
    }
    if fields.next().is_some() {
        return Err(format!("trailing garbage after sample: {line}"));
    }
    Ok((name, labels, value))
}

fn parse_value(s: &str) -> Option<f64> {
    match s {
        "+Inf" | "Inf" => Some(f64::INFINITY),
        "-Inf" => Some(f64::NEG_INFINITY),
        "NaN" => Some(f64::NAN),
        _ => s.parse::<f64>().ok(),
    }
}

/// Index of the `}` closing the label set, honouring quoted values.
fn find_label_close(body: &str) -> Option<usize> {
    let mut in_quotes = false;
    let mut escaped = false;
    for (i, c) in body.char_indices() {
        if escaped {
            escaped = false;
            continue;
        }
        match c {
            '\\' if in_quotes => escaped = true,
            '"' => in_quotes = !in_quotes,
            '}' if !in_quotes => return Some(i),
            _ => {}
        }
    }
    None
}

fn parse_labels(body: &str) -> Result<Vec<(String, String)>, String> {
    let mut labels = Vec::new();
    let mut rest = body.trim();
    while !rest.is_empty() {
        let eq = rest
            .find('=')
            .ok_or_else(|| format!("label without '=': {rest}"))?;
        let key = rest[..eq].trim().to_string();
        let after = rest[eq + 1..].trim_start();
        let mut chars = after.char_indices();
        match chars.next() {
            Some((_, '"')) => {}
            _ => return Err(format!("label value not quoted: {rest}")),
        }
        let mut value = String::new();
        let mut end = None;
        let mut escaped = false;
        for (i, c) in chars {
            if escaped {
                match c {
                    'n' => value.push('\n'),
                    '\\' => value.push('\\'),
                    '"' => value.push('"'),
                    other => {
                        value.push('\\');
                        value.push(other);
                    }
                }
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                end = Some(i);
                break;
            } else {
                value.push(c);
            }
        }
        let end = end.ok_or_else(|| format!("unterminated label value: {rest}"))?;
        labels.push((key, value));
        rest = after[end + 1..].trim_start();
        if let Some(r) = rest.strip_prefix(',') {
            rest = r.trim_start();
        } else if !rest.is_empty() {
            return Err(format!("expected ',' between labels: {rest}"));
        }
    }
    Ok(labels)
}

#[cfg(test)]
mod tests {
    use super::*;

    const CLEAN: &str = "\
# HELP x_total total xs
# TYPE x_total counter
x_total 4
# HELP lat_seconds latency
# TYPE lat_seconds histogram
lat_seconds_bucket{le=\"0.001\"} 3
lat_seconds_bucket{le=\"0.01\"} 5
lat_seconds_bucket{le=\"+Inf\"} 6
lat_seconds_sum 0.042
lat_seconds_count 6
";

    #[test]
    fn clean_exposition_lints_clean() {
        assert_eq!(lint(CLEAN), Vec::new());
    }

    #[test]
    fn extracts_family_names() {
        assert_eq!(metric_names(CLEAN), vec!["lat_seconds", "x_total"]);
    }

    #[test]
    fn missing_type_is_an_error() {
        let text = "orphan_total 3\n";
        let errs = lint(text);
        assert!(
            errs.iter().any(|e| e.message.contains("has no TYPE")),
            "{errs:?}"
        );
    }

    #[test]
    fn missing_help_is_an_error() {
        let text = "# TYPE a_total counter\na_total 1\n";
        let errs = lint(text);
        assert!(
            errs.iter().any(|e| e.message.contains("has no HELP")),
            "{errs:?}"
        );
    }

    #[test]
    fn type_after_sample_is_an_error() {
        let text = "a_total 1\n# HELP a_total a\n# TYPE a_total counter\n";
        let errs = lint(text);
        assert!(
            errs.iter().any(|e| e.message.contains("precedes its TYPE")),
            "{errs:?}"
        );
    }

    #[test]
    fn histogram_without_inf_is_an_error() {
        let text = "\
# HELP h_seconds h
# TYPE h_seconds histogram
h_seconds_bucket{le=\"1\"} 2
h_seconds_sum 1.0
h_seconds_count 2
";
        let errs = lint(text);
        assert!(
            errs.iter().any(|e| e.message.contains("end in +Inf")),
            "{errs:?}"
        );
    }

    #[test]
    fn non_monotone_buckets_are_an_error() {
        let text = "\
# HELP h_seconds h
# TYPE h_seconds histogram
h_seconds_bucket{le=\"0.1\"} 5
h_seconds_bucket{le=\"1\"} 3
h_seconds_bucket{le=\"+Inf\"} 5
h_seconds_sum 1.0
h_seconds_count 5
";
        let errs = lint(text);
        assert!(
            errs.iter()
                .any(|e| e.message.contains("cumulative-monotone")),
            "{errs:?}"
        );
    }

    #[test]
    fn count_mismatch_is_an_error() {
        let text = "\
# HELP h_seconds h
# TYPE h_seconds histogram
h_seconds_bucket{le=\"+Inf\"} 5
h_seconds_sum 1.0
h_seconds_count 4
";
        let errs = lint(text);
        assert!(
            errs.iter().any(|e| e.message.contains("!= +Inf bucket")),
            "{errs:?}"
        );
    }

    #[test]
    fn duplicate_series_is_an_error() {
        let text = "\
# HELP a_total a
# TYPE a_total counter
a_total{svc=\"x\"} 1
a_total{svc=\"x\"} 2
";
        let errs = lint(text);
        assert!(
            errs.iter().any(|e| e.message.contains("duplicate series")),
            "{errs:?}"
        );
    }

    #[test]
    fn per_label_histograms_are_checked_independently() {
        let text = "\
# HELP h_seconds h
# TYPE h_seconds histogram
h_seconds_bucket{service=\"a\",le=\"0.1\"} 1
h_seconds_bucket{service=\"a\",le=\"+Inf\"} 2
h_seconds_sum{service=\"a\"} 0.3
h_seconds_count{service=\"a\"} 2
h_seconds_bucket{service=\"b\",le=\"+Inf\"} 7
h_seconds_sum{service=\"b\"} 0.9
h_seconds_count{service=\"b\"} 7
";
        assert_eq!(lint(text), Vec::new());
    }

    #[test]
    fn missing_sum_is_an_error() {
        let text = "\
# HELP h_seconds h
# TYPE h_seconds histogram
h_seconds_bucket{le=\"+Inf\"} 1
h_seconds_count 1
";
        let errs = lint(text);
        assert!(
            errs.iter().any(|e| e.message.contains("has no _sum")),
            "{errs:?}"
        );
    }

    #[test]
    fn garbage_lines_are_errors() {
        let errs = lint("this is not prometheus\n");
        assert!(!errs.is_empty());
    }

    #[test]
    fn registry_render_passes_the_linter() {
        let r = crate::registry::Registry::new(4);
        let h = r.histogram("pipe_seconds", "pipeline stage");
        for i in 0..1000u64 {
            h.record_ns(i * 1_000);
        }
        r.family_histogram("svc_seconds", "per-service", "service", "ssh\"d")
            .record_ns(123_456);
        let text = r.render_prometheus();
        assert_eq!(lint(&text), Vec::new(), "render must self-lint:\n{text}");
        assert_eq!(metric_names(&text), vec!["pipe_seconds", "svc_seconds"]);
    }
}
