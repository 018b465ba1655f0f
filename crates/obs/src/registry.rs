//! Process-global metric registry.
//!
//! One registry per process (lazily created by [`registry`]); every crate
//! in the workspace records into it, so the daemon, the offline eval
//! harness, and the benches all export the same series from the same place.
//! Histograms are created on first use and live forever — scrape-side code
//! can therefore pre-register the full contract up front (see
//! `seqd::metrics::preregister`) so the exported name set does not depend
//! on which code paths have run.
//!
//! The module also holds the workspace's one Prometheus text writer
//! ([`write_header`], [`write_sample`]): the registry's histograms and
//! `seqd`'s own counters and gauges are written through it.

use crate::hist::{bucket_upper_ns, HistSnapshot, Histogram};
use crate::slow::SlowRing;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Arc, OnceLock, RwLock};

/// Default capacity of the process-wide slow-op ring.
pub const SLOW_RING_CAPACITY: usize = 32;

/// A metric registry: named histograms, labelled histogram families, and
/// the slow-op ring.
pub struct Registry {
    hists: RwLock<BTreeMap<String, Entry>>,
    families: RwLock<BTreeMap<String, Family>>,
    slow: SlowRing,
}

struct Entry {
    help: &'static str,
    hist: Arc<Histogram>,
}

struct Family {
    help: &'static str,
    label: &'static str,
    series: BTreeMap<String, Arc<Histogram>>,
}

static GLOBAL: OnceLock<Registry> = OnceLock::new();

/// The process-global registry.
pub fn registry() -> &'static Registry {
    GLOBAL.get_or_init(|| Registry::new(SLOW_RING_CAPACITY))
}

impl Registry {
    /// A fresh registry (tests; production code uses [`registry`]).
    pub fn new(slow_capacity: usize) -> Registry {
        Registry {
            hists: RwLock::new(BTreeMap::new()),
            families: RwLock::new(BTreeMap::new()),
            slow: SlowRing::new(slow_capacity),
        }
    }

    /// The slow-op ring.
    pub fn slow(&self) -> &SlowRing {
        &self.slow
    }

    /// Get or create the named histogram. `name` must be a valid Prometheus
    /// metric name (enforced by debug assertion; the promlint CI gate is
    /// the backstop in release builds).
    pub fn histogram(&self, name: &str, help: &'static str) -> Arc<Histogram> {
        debug_assert!(valid_metric_name(name), "bad metric name: {name}");
        if let Some(e) = self
            .hists
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .get(name)
        {
            return Arc::clone(&e.hist);
        }
        let mut map = self.hists.write().unwrap_or_else(|e| e.into_inner());
        Arc::clone(
            &map.entry(name.to_string())
                .or_insert_with(|| Entry {
                    help,
                    hist: Arc::new(Histogram::new()),
                })
                .hist,
        )
    }

    /// Get or create one series of a labelled histogram family, e.g.
    /// `seqd_service_match_seconds{service="sshd"}`. A series has one
    /// stripe ([`Histogram::single_writer`]): a family has a series per
    /// label value, each written by one thread (seqd's per-service series,
    /// by the service's shard worker), and a scrape merges every one.
    pub fn family_histogram(
        &self,
        name: &str,
        help: &'static str,
        label: &'static str,
        value: &str,
    ) -> Arc<Histogram> {
        debug_assert!(valid_metric_name(name), "bad metric name: {name}");
        {
            let fams = self.families.read().unwrap_or_else(|e| e.into_inner());
            if let Some(f) = fams.get(name) {
                if let Some(h) = f.series.get(value) {
                    return Arc::clone(h);
                }
            }
        }
        let mut fams = self.families.write().unwrap_or_else(|e| e.into_inner());
        let fam = fams.entry(name.to_string()).or_insert_with(|| Family {
            help,
            label,
            series: BTreeMap::new(),
        });
        Arc::clone(
            fam.series
                .entry(value.to_string())
                .or_insert_with(|| Arc::new(Histogram::single_writer())),
        )
    }

    /// Snapshot a named histogram, if it exists.
    pub fn snapshot(&self, name: &str) -> Option<HistSnapshot> {
        self.hists
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .get(name)
            .map(|e| e.hist.snapshot())
    }

    /// Snapshot every series of a labelled family, in label order, handing
    /// each to `visit` as `(label_value, snapshot)` under the registry's
    /// read lock: no label is copied.
    pub fn visit_family(&self, name: &str, mut visit: impl FnMut(&str, HistSnapshot)) {
        let families = self.families.read().unwrap_or_else(|e| e.into_inner());
        if let Some(f) = families.get(name) {
            for (v, h) in &f.series {
                visit(v, h.snapshot());
            }
        }
    }

    /// Render every histogram in Prometheus text exposition format.
    ///
    /// Buckets are cumulative and sparse: empty buckets are skipped (the
    /// format does not require them) but `+Inf` is always present, so the
    /// output stays compact while `_count == +Inf` holds by construction.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        let hists = self.hists.read().unwrap_or_else(|e| e.into_inner());
        for (name, entry) in hists.iter() {
            write_header(&mut out, name, entry.help, MetricType::Histogram);
            write_histogram(&mut out, name, None, &entry.hist.snapshot());
        }
        drop(hists);
        let fams = self.families.read().unwrap_or_else(|e| e.into_inner());
        for (name, fam) in fams.iter() {
            write_header(&mut out, name, fam.help, MetricType::Histogram);
            for (value, hist) in fam.series.iter() {
                write_histogram(&mut out, name, Some((fam.label, value)), &hist.snapshot());
            }
        }
        out
    }

    /// Names of all registered metric families, sorted.
    pub fn metric_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .hists
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .keys()
            .cloned()
            .collect();
        names.extend(
            self.families
                .read()
                .unwrap_or_else(|e| e.into_inner())
                .keys()
                .cloned(),
        );
        names.sort();
        names
    }
}

/// The `# TYPE` of a metric family.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricType {
    /// A monotonic count.
    Counter,
    /// A value that goes up and down.
    Gauge,
    /// Cumulative buckets plus `_sum` and `_count`.
    Histogram,
}

/// Append a family's `# HELP` and `# TYPE` lines. Every series in the
/// workspace's expositions is written through this function and
/// [`write_sample`], so each one is self-describing by construction.
pub fn write_header(out: &mut String, name: &str, help: &str, ty: MetricType) {
    let ty = match ty {
        MetricType::Counter => "counter",
        MetricType::Gauge => "gauge",
        MetricType::Histogram => "histogram",
    };
    let _ = writeln!(out, "# HELP {name} {help}\n# TYPE {name} {ty}");
}

/// Append one sample line, `name{label="value",...} value`: label values
/// escaped, integral values without a fraction (`7`, not `7.0`), and
/// infinities spelled `+Inf` / `-Inf`.
pub fn write_sample(out: &mut String, name: &str, labels: &[(&str, &str)], value: f64) {
    out.push_str(name);
    for (i, (label, v)) in labels.iter().enumerate() {
        out.push(if i == 0 { '{' } else { ',' });
        let _ = write!(out, "{label}=\"");
        for c in v.chars() {
            match c {
                '\\' => out.push_str("\\\\"),
                '"' => out.push_str("\\\""),
                '\n' => out.push_str("\\n"),
                c => out.push(c),
            }
        }
        out.push('"');
    }
    if !labels.is_empty() {
        out.push('}');
    }
    let _ = if value.is_infinite() {
        writeln!(out, " {}Inf", if value > 0.0 { '+' } else { '-' })
    } else {
        writeln!(out, " {value}")
    };
}

/// Append one histogram series: its non-empty cumulative buckets, `+Inf`,
/// `_sum` in seconds and `_count`.
fn write_histogram(out: &mut String, name: &str, label: Option<(&str, &str)>, snap: &HistSnapshot) {
    let bucket_name = format!("{name}_bucket");
    let bucket = |out: &mut String, le: &str, n: u64| match label {
        Some(l) => write_sample(out, &bucket_name, &[l, ("le", le)], n as f64),
        None => write_sample(out, &bucket_name, &[("le", le)], n as f64),
    };
    let mut cumulative = 0u64;
    for (i, &n) in snap.buckets.iter().enumerate() {
        if n == 0 {
            continue;
        }
        cumulative += n;
        // The overflow bucket has no upper edge: it is folded into +Inf.
        if let Some(up) = bucket_upper_ns(i) {
            bucket(out, &fmt_le(up as f64 / 1e9), cumulative);
        }
    }
    bucket(out, "+Inf", snap.count);
    let labels = label.as_slice();
    write_sample(
        out,
        &format!("{name}_sum"),
        labels,
        snap.sum_ns as f64 / 1e9,
    );
    write_sample(out, &format!("{name}_count"), labels, snap.count as f64);
}

/// Format a bucket edge without trailing-zero noise (e.g. `0.000262144`).
fn fmt_le(v: f64) -> String {
    let s = format!("{v:.9}");
    let s = s.trim_end_matches('0').trim_end_matches('.');
    if s.is_empty() {
        "0".to_string()
    } else {
        s.to_string()
    }
}

/// Whether `name` is a legal Prometheus metric name.
pub fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_or_create_returns_the_same_histogram() {
        let r = Registry::new(4);
        let a = r.histogram("x_seconds", "x");
        let b = r.histogram("x_seconds", "x");
        a.record_ns(1_000);
        assert_eq!(b.snapshot().count, 1);
    }

    #[test]
    fn render_has_help_type_and_inf_for_every_series() {
        let r = Registry::new(4);
        r.histogram("a_seconds", "stage a").record_ns(5_000);
        r.family_histogram("svc_seconds", "per-service", "service", "sshd")
            .record_ns(9_000);
        let text = r.render_prometheus();
        for name in ["a_seconds", "svc_seconds"] {
            assert!(text.contains(&format!("# HELP {name} ")));
            assert!(text.contains(&format!("# TYPE {name} histogram")));
            assert!(text.contains(&format!("{name}_count")));
        }
        assert!(text.contains("a_seconds_bucket{le=\"+Inf\"} 1"));
        assert!(text.contains("svc_seconds_bucket{service=\"sshd\",le=\"+Inf\"} 1"));
    }

    #[test]
    fn samples_escape_labels_and_format_values() {
        let mut out = String::new();
        write_header(&mut out, "x_total", "an x", MetricType::Counter);
        write_sample(&mut out, "x_total", &[], 7.0);
        write_sample(
            &mut out,
            "x_total",
            &[("a", "q\"b\\c\nd"), ("le", "+Inf")],
            0.25,
        );
        write_sample(&mut out, "x_total", &[("a", "e")], f64::INFINITY);
        assert_eq!(
            out,
            "# HELP x_total an x\n# TYPE x_total counter\n\
             x_total 7\n\
             x_total{a=\"q\\\"b\\\\c\\nd\",le=\"+Inf\"} 0.25\n\
             x_total{a=\"e\"} +Inf\n"
        );
        assert_eq!(crate::promlint::lint(&out), Vec::new());
    }

    #[test]
    fn family_series_are_per_label_value() {
        let r = Registry::new(4);
        r.family_histogram("m_seconds", "h", "service", "a")
            .record_ns(100);
        r.family_histogram("m_seconds", "h", "service", "b")
            .record_ns(200);
        let mut snaps = Vec::new();
        r.visit_family("m_seconds", |v, s| snaps.push((v.to_string(), s.count)));
        assert_eq!(snaps, [("a".to_string(), 1), ("b".to_string(), 1)]);
    }

    #[test]
    fn metric_names_are_sorted_and_complete() {
        let r = Registry::new(4);
        r.histogram("z_seconds", "z");
        r.histogram("a_seconds", "a");
        r.family_histogram("m_seconds", "m", "service", "x");
        assert_eq!(
            r.metric_names(),
            vec!["a_seconds", "m_seconds", "z_seconds"]
        );
    }
}
