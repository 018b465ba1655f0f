//! Criterion-free micro-benchmarking.
//!
//! A warm-up + calibrated-iteration timer behind a facade that mirrors the
//! slice of criterion's API the `bench` crate uses — [`Criterion`],
//! [`BenchmarkGroup`], [`BenchmarkId`], [`Throughput`] and
//! [`criterion_group!`](crate::criterion_group) — so every benchmark keeps
//! its name and ID (`group/function/param`) and historical `BENCH_*.json`
//! trajectories stay comparable.
//!
//! Measurement model: one warm-up call calibrates an inner iteration count
//! so each sample spans ≥ ~2 ms (or a single call for slow benchmarks),
//! then `sample_size` samples are timed and summarised as min / mean /
//! median / p95 per-iteration time, plus derived throughput when the group
//! declares one.
//!
//! Environment knobs:
//!
//! * `TESTKIT_BENCH_SAMPLES=n` — override every group's sample count
//!   (e.g. `1` for a CI smoke run).
//! * `TESTKIT_BENCH_JSON=path` — append the machine-readable summary (one
//!   JSON object per line, stable `id` field) after all groups finish, so
//!   one `cargo bench` over several bench binaries collects all of them.
//!
//! Run via `cargo bench -p bench` exactly as before; a positional argument
//! substring-filters benchmark IDs (`cargo bench -p bench -- scanner`).

use std::fmt::Display;
use std::hint::black_box;
use std::io::Write;
use std::time::{Duration, Instant};

/// Work-per-iteration declaration, for derived throughput reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Throughput {
    /// Iteration processes this many logical elements (e.g. messages).
    Elements(u64),
    /// Iteration processes this many bytes.
    Bytes(u64),
}

/// A `function/parameter` benchmark ID (criterion-compatible rendering).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// `BenchmarkId::new("analyze", 8000)` renders as `analyze/8000`.
    pub fn new(function: impl Into<String>, parameter: impl Display) -> Self {
        BenchmarkId {
            id: format!("{}/{}", function.into(), parameter),
        }
    }
}

impl From<&str> for BenchmarkId {
    fn from(s: &str) -> Self {
        BenchmarkId { id: s.to_string() }
    }
}

/// Summary statistics for one benchmark, in nanoseconds per iteration.
#[derive(Debug, Clone)]
pub struct BenchReport {
    /// Full ID: `group/function/param`.
    pub id: String,
    /// Samples actually taken.
    pub samples: usize,
    /// Fastest sample.
    pub min_ns: f64,
    /// Arithmetic mean.
    pub mean_ns: f64,
    /// Median (the headline number).
    pub median_ns: f64,
    /// 95th percentile.
    pub p95_ns: f64,
    /// Declared per-iteration work, if any.
    pub throughput: Option<Throughput>,
}

impl BenchReport {
    /// Units of declared work per second, at the median.
    pub fn throughput_per_sec(&self) -> Option<f64> {
        self.throughput.map(|t| {
            let units = match t {
                Throughput::Elements(n) | Throughput::Bytes(n) => n as f64,
            };
            units / (self.median_ns / 1e9)
        })
    }

    fn render(&self) -> String {
        let mut line = format!(
            "{:<52} median {:>12}  p95 {:>12}  (n={})",
            self.id,
            fmt_ns(self.median_ns),
            fmt_ns(self.p95_ns),
            self.samples
        );
        if let Some(per_sec) = self.throughput_per_sec() {
            match self.throughput {
                Some(Throughput::Bytes(_)) => {
                    line.push_str(&format!("  {:.2} MiB/s", per_sec / (1024.0 * 1024.0)));
                }
                Some(Throughput::Elements(_)) => {
                    line.push_str(&format!("  {:.0} elem/s", per_sec));
                }
                None => {}
            }
        }
        line
    }

    fn to_json(&self) -> String {
        let mut throughput = match self.throughput {
            Some(Throughput::Elements(n)) => format!(r#","elements":{n}"#),
            Some(Throughput::Bytes(n)) => format!(r#","bytes":{n}"#),
            None => String::new(),
        };
        if let Some(per_sec) = self.throughput_per_sec() {
            throughput.push_str(&format!(r#","per_sec":{per_sec:.1}"#));
        }
        format!(
            r#"{{"id":"{}","samples":{},"min_ns":{:.1},"mean_ns":{:.1},"median_ns":{:.1},"p95_ns":{:.1}{}}}"#,
            self.id,
            self.samples,
            self.min_ns,
            self.mean_ns,
            self.median_ns,
            self.p95_ns,
            throughput
        )
    }
}

fn fmt_ns(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.1} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.2} µs", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.2} ms", ns / 1_000_000.0)
    } else {
        format!("{:.3} s", ns / 1_000_000_000.0)
    }
}

/// The benchmark driver (criterion facade).
pub struct Criterion {
    filter: Option<String>,
    samples_override: Option<usize>,
    reports: Vec<BenchReport>,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion {
            filter: None,
            samples_override: None,
            reports: Vec::new(),
        }
    }
}

impl Criterion {
    /// Build from `cargo bench` CLI arguments: flags are ignored, the first
    /// positional argument becomes an ID substring filter.
    pub fn from_args() -> Self {
        let filter = std::env::args().skip(1).find(|a| !a.starts_with('-'));
        let samples_override = std::env::var("TESTKIT_BENCH_SAMPLES")
            .ok()
            .and_then(|s| s.parse::<usize>().ok())
            .map(|n| n.max(1));
        Criterion {
            filter,
            samples_override,
            reports: Vec::new(),
        }
    }

    /// Start a named benchmark group.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.into(),
            sample_size: 10,
            throughput: None,
            criterion: self,
        }
    }

    /// All reports collected so far.
    pub fn reports(&self) -> &[BenchReport] {
        &self.reports
    }

    /// Print the run summary and append to `TESTKIT_BENCH_JSON` if
    /// requested.
    pub fn final_summary(&mut self) {
        println!("\n{} benchmark(s) measured", self.reports.len());
        if let Ok(path) = std::env::var("TESTKIT_BENCH_JSON") {
            let appended = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(&path)
                .and_then(|mut f| f.write_all(self.json_lines().as_bytes()));
            match appended {
                Ok(()) => println!("appended to {path}"),
                Err(e) => eprintln!("TESTKIT_BENCH_JSON={path}: write failed: {e}"),
            }
        }
    }

    /// Write all collected reports as JSON lines to `path`, replacing it.
    /// Benches call this after [`Criterion::final_summary`] to record their
    /// default trajectory file (e.g. `results/BENCH_parser.json`) when
    /// `TESTKIT_BENCH_JSON` did not already redirect the output.
    pub fn write_json(&self, path: &str) -> std::io::Result<()> {
        std::fs::write(path, self.json_lines())
    }

    fn json_lines(&self) -> String {
        let mut out = String::new();
        for r in &self.reports {
            out.push_str(&r.to_json());
            out.push('\n');
        }
        out
    }

    /// Whether `TESTKIT_BENCH_JSON` redirected this run's JSON output.
    pub fn json_redirected() -> bool {
        std::env::var_os("TESTKIT_BENCH_JSON").is_some()
    }
}

/// A group of related benchmarks sharing sample-size and throughput config.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    sample_size: usize,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup<'_> {
    /// Set the number of timed samples per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    /// Declare per-iteration work for throughput reporting.
    pub fn throughput(&mut self, t: Throughput) -> &mut Self {
        self.throughput = Some(t);
        self
    }

    /// Measure one benchmark.
    pub fn bench_function<F>(&mut self, id: impl Into<BenchmarkId>, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let full_id = format!("{}/{}", self.name, id.into().id);
        if let Some(filter) = &self.criterion.filter {
            if !full_id.contains(filter.as_str()) {
                return self;
            }
        }
        let samples = self.criterion.samples_override.unwrap_or(self.sample_size);
        let mut bencher = Bencher {
            samples,
            stats: None,
        };
        f(&mut bencher);
        let Some(mut report) = bencher.stats else {
            eprintln!("warning: benchmark {full_id} never called Bencher::iter");
            return self;
        };
        report.id = full_id;
        report.throughput = self.throughput;
        println!("{}", report.render());
        self.criterion.reports.push(report);
        self
    }

    /// Measure one benchmark with a borrowed input (criterion signature).
    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        self.bench_function(id, |b| f(b, input))
    }

    /// End the group (parity with criterion; reporting is incremental).
    pub fn finish(self) {}
}

/// Passed to the benchmark closure; [`Bencher::iter`] times the payload.
pub struct Bencher {
    samples: usize,
    stats: Option<BenchReport>,
}

impl Bencher {
    /// Time `f`: one warm-up/calibration call, then `samples` timed samples
    /// of an inner loop sized so each sample spans ≥ ~2 ms.
    pub fn iter<R, F: FnMut() -> R>(&mut self, mut f: F) {
        let warmup_start = Instant::now();
        black_box(f());
        let once = warmup_start.elapsed();
        let inner = Self::inner_iters(once);

        let mut per_iter_ns: Vec<f64> = Vec::with_capacity(self.samples);
        for _ in 0..self.samples {
            let start = Instant::now();
            for _ in 0..inner {
                black_box(f());
            }
            per_iter_ns.push(start.elapsed().as_nanos() as f64 / inner as f64);
        }
        self.record(per_iter_ns);
    }

    /// Inner-loop size so one sample spans ≥ ~2 ms.
    fn inner_iters(once: Duration) -> u64 {
        let target = Duration::from_millis(2);
        if once >= target {
            1
        } else {
            (target.as_nanos() / once.as_nanos().max(1)).clamp(1, 100_000) as u64
        }
    }

    fn record(&mut self, mut per_iter_ns: Vec<f64>) {
        per_iter_ns.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));

        let n = per_iter_ns.len();
        let median = if n % 2 == 1 {
            per_iter_ns[n / 2]
        } else {
            (per_iter_ns[n / 2 - 1] + per_iter_ns[n / 2]) / 2.0
        };
        let p95 = per_iter_ns[((n as f64 * 0.95).ceil() as usize).min(n) - 1];
        self.stats = Some(BenchReport {
            id: String::new(),
            samples: n,
            min_ns: per_iter_ns[0],
            mean_ns: per_iter_ns.iter().sum::<f64>() / n as f64,
            median_ns: median,
            p95_ns: p95,
            throughput: None,
        });
    }
}

/// Criterion-compatible group declaration: defines `fn $name(&mut Criterion)`
/// running each listed benchmark function.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name(c: &mut $crate::bench::Criterion) {
            $( $target(c); )+
        }
    };
}

pub use crate::criterion_group;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_ids_render_like_criterion() {
        assert_eq!(BenchmarkId::new("analyze", 8000).id, "analyze/8000");
        assert_eq!(BenchmarkId::from("plain").id, "plain");
    }

    #[test]
    fn bencher_produces_sane_stats() {
        let mut c = Criterion::default();
        {
            let mut g = c.benchmark_group("unit");
            g.sample_size(5);
            g.throughput(Throughput::Elements(100));
            g.bench_function("spin", |b| {
                b.iter(|| {
                    let mut acc = 0u64;
                    for i in 0..100u64 {
                        acc = acc.wrapping_add(black_box(i));
                    }
                    acc
                })
            });
            g.finish();
        }
        let r = &c.reports()[0];
        assert_eq!(r.id, "unit/spin");
        assert_eq!(r.samples, 5);
        assert!(r.min_ns > 0.0 && r.min_ns <= r.median_ns && r.median_ns <= r.p95_ns);
        let per_sec = r.throughput_per_sec().unwrap();
        assert!(per_sec > 0.0);
    }

    #[test]
    fn filter_skips_non_matching_benchmarks() {
        let mut c = Criterion {
            filter: Some("only_this".into()),
            samples_override: None,
            reports: vec![],
        };
        let mut ran = false;
        {
            let mut g = c.benchmark_group("g");
            g.bench_function("something_else", |b| {
                ran = true;
                b.iter(|| 1 + 1)
            });
            g.finish();
        }
        assert!(!ran, "filtered benchmark must not run");
        assert!(c.reports().is_empty());
    }

    #[test]
    fn json_lines_are_well_formed() {
        let r = BenchReport {
            id: "g/f/1".into(),
            samples: 3,
            min_ns: 1.0,
            mean_ns: 2.0,
            median_ns: 2.0,
            p95_ns: 3.0,
            throughput: Some(Throughput::Bytes(1024)),
        };
        let j = r.to_json();
        assert!(j.starts_with('{') && j.ends_with('}'), "{j}");
        assert!(j.contains(r#""id":"g/f/1""#), "{j}");
        assert!(j.contains(r#""bytes":1024"#), "{j}");
    }

    #[test]
    fn bench_with_input_passes_the_input_through() {
        let mut c = Criterion::default();
        let data = vec![1u64, 2, 3];
        {
            let mut g = c.benchmark_group("g");
            g.sample_size(2);
            g.bench_with_input(BenchmarkId::new("sum", data.len()), &data, |b, d| {
                b.iter(|| d.iter().sum::<u64>())
            });
            g.finish();
        }
        assert_eq!(c.reports()[0].id, "g/sum/3");
    }
}
