//! Pattern export for other log-management components.
//!
//! "We developed a new function (`ExportPatterns`) that can be run on-demand
//! or periodically by system administrators when they want to review
//! patterns." Three formats are supported, matching the paper:
//!
//! * [`syslogng`] — syslog-ng pattern database XML (Fig. 3), including the
//!   stored example messages as `<test_message>` test cases;
//! * [`yaml`] — a YAML form "that can be used alongside a DevOps tool such as
//!   Puppet to build the pattern database XML";
//! * [`grok`] — Logstash Grok filter blocks (Fig. 4).
//!
//! [`export_patterns`] streams: it reads the store one row at a time and
//! writes each selected pattern as it goes, so neither the rows nor the
//! document are ever held whole.

pub mod grok;
pub mod syslogng;
pub mod yaml;

use crate::store::{PatternStore, StoreError, StoredPattern};
use sequence_core::Pattern;
use std::io::{self, Write};

/// Which export format to produce ("selecting the pattern export format is a
/// command-line flag").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExportFormat {
    /// syslog-ng pattern database XML.
    SyslogNg,
    /// YAML for DevOps tooling.
    Yaml,
    /// Logstash Grok filters.
    Grok,
}

impl ExportFormat {
    /// Parse a command-line flag value.
    pub fn from_flag(s: &str) -> Option<ExportFormat> {
        match s.to_ascii_lowercase().as_str() {
            "syslog-ng" | "syslogng" | "patterndb" | "xml" => Some(ExportFormat::SyslogNg),
            "yaml" | "yml" => Some(ExportFormat::Yaml),
            "grok" | "logstash" => Some(ExportFormat::Grok),
            _ => None,
        }
    }
}

/// Filters applied when selecting patterns for export: "this score can then
/// be used to select only the strongest patterns when exporting them".
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExportSelection {
    /// Minimum match count (the save threshold).
    pub min_count: u64,
    /// Maximum allowed complexity score (1.0 admits everything; patterns
    /// consisting entirely of variables score exactly 1.0 and are usually
    /// "overly patternised").
    pub max_complexity: f64,
    /// Export only patterns an administrator has promoted (see
    /// `patterndb::review`). Off by default: exports are usually *for*
    /// review.
    pub promoted_only: bool,
}

impl Default for ExportSelection {
    fn default() -> Self {
        ExportSelection {
            min_count: 1,
            max_complexity: 1.0,
            promoted_only: false,
        }
    }
}

/// A pattern selected for export, with its parsed form.
#[derive(Debug, Clone)]
pub struct ExportEntry {
    /// The stored row.
    pub stored: StoredPattern,
    /// Parsed pattern.
    pub pattern: Pattern,
}

/// Hand each stored pattern that passes `selection` to `f`, parsed, one row
/// at a time in [`PatternStore::patterns`]' order (by service, then count
/// descending, then id), with its examples read from the log only
/// `with_examples`. Rows that no longer parse are skipped and returned.
pub fn each_selected(
    store: &mut PatternStore,
    selection: ExportSelection,
    with_examples: bool,
    mut f: impl FnMut(ExportEntry),
) -> Result<Vec<StoreError>, StoreError> {
    let mut skipped = Vec::new();
    let keep = |stored: &StoredPattern| {
        !(stored.count < selection.min_count
            || stored.complexity > selection.max_complexity
            || (selection.promoted_only && !stored.promoted))
    };
    store.each_row(None, keep, with_examples, |stored| match stored.pattern() {
        Ok(pattern) => f(ExportEntry { stored, pattern }),
        Err(e) => skipped.push(e),
    })?;
    Ok(skipped)
}

/// Write the selected patterns to `out` in the requested format, one row
/// at a time: neither the rows nor the document are held whole. Returns
/// the rows skipped because they no longer parse.
pub fn export_patterns(
    store: &mut PatternStore,
    format: ExportFormat,
    selection: ExportSelection,
    out: &mut impl Write,
) -> Result<Vec<StoreError>, StoreError> {
    let mut doc = ExportWriter::new(format, out)?;
    let mut written = Ok(());
    // A Grok filter prints no examples.
    let with_examples = format != ExportFormat::Grok;
    let skipped = each_selected(store, selection, with_examples, |e| {
        if written.is_ok() {
            written = doc.entry(&e);
        }
    })?;
    written?;
    doc.finish()?;
    Ok(skipped)
}

/// A document being written: its header on creation, one entry per
/// pattern in listing order, its footer on [`ExportWriter::finish`].
#[derive(Debug)]
struct ExportWriter<W> {
    out: W,
    format: ExportFormat,
    /// The syslog-ng ruleset left open: the service of the last entry.
    ruleset: Option<String>,
    entries: u64,
}

impl<W: Write> ExportWriter<W> {
    /// Start a document, writing its header.
    fn new(format: ExportFormat, mut out: W) -> io::Result<ExportWriter<W>> {
        match format {
            ExportFormat::SyslogNg => syslogng::write_header(&mut out)?,
            ExportFormat::Yaml => yaml::write_header(&mut out)?,
            ExportFormat::Grok => {}
        }
        Ok(ExportWriter {
            out,
            format,
            ruleset: None,
            entries: 0,
        })
    }

    /// Write one pattern. Entries of one service must come together: the
    /// syslog-ng document opens a ruleset each time the service changes.
    fn entry(&mut self, e: &ExportEntry) -> io::Result<()> {
        let out = &mut self.out;
        match self.format {
            ExportFormat::SyslogNg => {
                let service = &e.stored.service;
                if self.ruleset.as_ref() != Some(service) {
                    if self.ruleset.is_some() {
                        syslogng::close_ruleset(out)?;
                    }
                    syslogng::open_ruleset(out, service)?;
                    self.ruleset = Some(service.clone());
                }
                syslogng::write_rule(out, e)?;
            }
            ExportFormat::Yaml => yaml::write_entry(out, e, self.entries == 0)?,
            ExportFormat::Grok => grok::write_filter(out, e)?,
        }
        self.entries += 1;
        Ok(())
    }

    /// Write the footer and hand the writer back.
    fn finish(mut self) -> io::Result<W> {
        match self.format {
            ExportFormat::SyslogNg => {
                if self.ruleset.is_some() {
                    syslogng::close_ruleset(&mut self.out)?;
                }
                syslogng::write_footer(&mut self.out)?;
            }
            ExportFormat::Yaml => yaml::write_footer(&mut self.out, self.entries == 0)?,
            ExportFormat::Grok => {}
        }
        Ok(self.out)
    }
}

/// `entries` as one document (the format modules' tests).
#[cfg(test)]
fn render(format: ExportFormat, entries: &[ExportEntry]) -> String {
    let mut doc = ExportWriter::new(format, Vec::new()).unwrap();
    for e in entries {
        doc.entry(e).unwrap();
    }
    String::from_utf8(doc.finish().unwrap()).unwrap()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sequence_core::{Analyzer, Scanner};

    fn store_with_patterns() -> PatternStore {
        let mut store = PatternStore::in_memory();
        let scanner = Scanner::new();
        let scanned: Vec<_> = [
            "Accepted password for root from 10.2.3.4 port 22 ssh2",
            "Accepted password for admin from 10.9.9.9 port 2200 ssh2",
            "Accepted password for guest from 172.16.0.5 port 22022 ssh2",
        ]
        .iter()
        .map(|m| scanner.scan(m))
        .collect();
        for d in Analyzer::new().analyze(&scanned) {
            store.upsert_discovered("sshd", &d, 1_630_000_000).unwrap();
        }
        store
    }

    fn select(store: &mut PatternStore, selection: ExportSelection) -> (Vec<ExportEntry>, usize) {
        let mut entries = Vec::new();
        let skipped = each_selected(store, selection, true, |e| entries.push(e)).unwrap();
        (entries, skipped.len())
    }

    #[test]
    fn selection_filters_by_count() {
        let mut store = store_with_patterns();
        let (all, _) = select(&mut store, ExportSelection::default());
        assert_eq!(all.len(), 1);
        let (none, _) = select(
            &mut store,
            ExportSelection {
                min_count: 100,
                ..Default::default()
            },
        );
        assert!(none.is_empty());
    }

    #[test]
    fn selection_filters_by_complexity() {
        let mut store = store_with_patterns();
        let (none, _) = select(
            &mut store,
            ExportSelection {
                max_complexity: 0.01,
                ..Default::default()
            },
        );
        assert!(none.is_empty());
    }

    #[test]
    fn promoted_only_selection() {
        let mut store = store_with_patterns();
        let sel = ExportSelection {
            promoted_only: true,
            ..Default::default()
        };
        let (none, _) = select(&mut store, sel);
        assert!(none.is_empty(), "nothing promoted yet");
        let id = store.patterns(None).unwrap()[0].id.clone();
        store.promote(&id).unwrap();
        let (one, _) = select(&mut store, sel);
        assert_eq!(one.len(), 1);
    }

    /// A row that no longer parses is left out of the document and
    /// returned, and the syslog-ng document opens one ruleset per service
    /// as the rows go by.
    #[test]
    fn unparseable_rows_are_skipped_and_returned() {
        let mut store = store_with_patterns();
        for (id, service, pattern) in [
            ("bad1", "sshd", "load at 95% of %max:integer%"),
            ("cron1", "cron", "job %n:integer% done"),
        ] {
            store
                .db()
                .execute_with(
                    "INSERT INTO patterns (id, service, pattern, cnt) VALUES (?, ?, ?, 1)",
                    &[id.into(), service.into(), pattern.into()],
                )
                .unwrap();
        }
        let mut doc = Vec::new();
        let skipped = export_patterns(
            &mut store,
            ExportFormat::SyslogNg,
            ExportSelection::default(),
            &mut doc,
        )
        .unwrap();
        assert!(matches!(&skipped[..], [StoreError::BadPattern { id, .. }] if id == "bad1"));
        let doc = String::from_utf8(doc).unwrap();
        let rulesets: Vec<&str> = doc
            .lines()
            .filter_map(|l| l.trim().strip_prefix("<ruleset name='"))
            .collect();
        assert_eq!(rulesets.len(), 2, "{doc}");
        assert!(rulesets[0].starts_with("cron'") && rulesets[1].starts_with("sshd'"));
        assert_eq!(doc.matches("<rule ").count(), 2);
        assert!(!doc.contains("bad1"));
    }

    #[test]
    fn format_flags() {
        assert_eq!(ExportFormat::from_flag("XML"), Some(ExportFormat::SyslogNg));
        assert_eq!(ExportFormat::from_flag("yaml"), Some(ExportFormat::Yaml));
        assert_eq!(
            ExportFormat::from_flag("logstash"),
            Some(ExportFormat::Grok)
        );
        assert_eq!(ExportFormat::from_flag("csv"), None);
    }

    #[test]
    fn all_formats_render_nonempty() {
        let mut store = store_with_patterns();
        for fmt in [
            ExportFormat::SyslogNg,
            ExportFormat::Yaml,
            ExportFormat::Grok,
        ] {
            let mut out = Vec::new();
            let skipped =
                export_patterns(&mut store, fmt, ExportSelection::default(), &mut out).unwrap();
            assert!(!out.is_empty() && skipped.is_empty());
        }
    }
}
