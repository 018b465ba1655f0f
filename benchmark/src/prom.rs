//! Reads two `/metrics` scrapes (window start and end) and answers with
//! window deltas: counters, histogram counts and sums, and bucket medians.
//! Only series the daemon already exports are read.

use std::collections::BTreeMap;

/// One parsed exposition: unlabelled samples, and the cumulative buckets of
/// unlabelled histograms as `(le seconds, cumulative count)` in `le` order.
#[derive(Debug, Default)]
struct Exposition {
    samples: BTreeMap<String, f64>,
    buckets: BTreeMap<String, Vec<(f64, f64)>>,
}

impl Exposition {
    fn parse(text: &str) -> Exposition {
        let mut exp = Exposition::default();
        for line in text.lines() {
            if line.starts_with('#') {
                continue;
            }
            let Some((series, value)) = line.rsplit_once(' ') else {
                continue;
            };
            let Ok(value) = value.parse::<f64>() else {
                continue;
            };
            match series.split_once('{') {
                None => {
                    exp.samples.insert(series.to_string(), value);
                }
                Some((name, labels)) => {
                    // Only `name_bucket{le="x"}`; labelled families are
                    // per-service breakdowns the benchmark does not read.
                    let Some(hist) = name.strip_suffix("_bucket") else {
                        continue;
                    };
                    let Some(le) = labels
                        .strip_prefix("le=\"")
                        .and_then(|l| l.strip_suffix("\"}"))
                    else {
                        continue;
                    };
                    let le = if le == "+Inf" {
                        f64::INFINITY
                    } else {
                        match le.parse::<f64>() {
                            Ok(x) => x,
                            Err(_) => continue,
                        }
                    };
                    exp.buckets
                        .entry(hist.to_string())
                        .or_default()
                        .push((le, value));
                }
            }
        }
        for series in exp.buckets.values_mut() {
            series.sort_by(|a, b| a.0.total_cmp(&b.0));
        }
        exp
    }

    /// Cumulative count at `le`. Empty buckets are not rendered, so this is
    /// the count of the last rendered bucket at or below `le`.
    fn cumulative(&self, hist: &str, le: f64) -> f64 {
        self.buckets
            .get(hist)
            .and_then(|b| b.iter().rev().find(|(edge, _)| *edge <= le))
            .map_or(0.0, |(_, n)| *n)
    }
}

/// The difference between two scrapes of one process.
#[derive(Debug)]
pub struct Scrape {
    start: Exposition,
    end: Exposition,
}

impl Scrape {
    /// Parse both scrapes.
    pub fn delta(start: &str, end: &str) -> Scrape {
        Scrape {
            start: Exposition::parse(start),
            end: Exposition::parse(end),
        }
    }

    /// Growth of an unlabelled counter over the window (0 when absent).
    pub fn counter(&self, name: &str) -> f64 {
        let at = |e: &Exposition| e.samples.get(name).copied().unwrap_or(0.0);
        at(&self.end) - at(&self.start)
    }

    /// Observations a histogram recorded over the window.
    pub fn count(&self, hist: &str) -> f64 {
        self.counter(&format!("{hist}_count"))
    }

    /// Median of the window's observations, milliseconds, as the upper edge
    /// of the bucket holding it; 0 when the window recorded nothing.
    pub fn p50_ms(&self, hist: &str) -> f64 {
        let total = self.count(hist);
        if total <= 0.0 {
            return 0.0;
        }
        let Some(edges) = self.end.buckets.get(hist) else {
            return 0.0;
        };
        for &(le, cumulative) in edges {
            let in_window = cumulative - self.start.cumulative(hist, le);
            if in_window >= total / 2.0 {
                return le * 1e3;
            }
        }
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const START: &str = "# HELP x_seconds x\n# TYPE x_seconds histogram\n\
        x_seconds_bucket{le=\"0.001\"} 10\n\
        x_seconds_bucket{le=\"+Inf\"} 10\n\
        x_seconds_sum 0.005\nx_seconds_count 10\n\
        jobs_total 3\n\
        fam_seconds_bucket{service=\"a\",le=\"0.5\"} 99\n";
    const END: &str = "x_seconds_bucket{le=\"0.001\"} 12\n\
        x_seconds_bucket{le=\"0.004\"} 19\n\
        x_seconds_bucket{le=\"0.016\"} 20\n\
        x_seconds_bucket{le=\"+Inf\"} 20\n\
        x_seconds_sum 0.050\nx_seconds_count 20\n\
        jobs_total 8\n";

    #[test]
    fn counters_and_counts_are_window_deltas() {
        let s = Scrape::delta(START, END);
        assert_eq!(s.counter("jobs_total"), 5.0);
        assert_eq!(s.counter("absent_total"), 0.0);
        assert_eq!(s.count("x_seconds"), 10.0);
    }

    #[test]
    fn median_comes_from_the_window_s_own_observations() {
        // Window: 2 below 1 ms, 7 in (1 ms, 4 ms], 1 in (4 ms, 16 ms]. The
        // bucket absent at start (0.004) inherits the start count at 0.001.
        let s = Scrape::delta(START, END);
        assert_eq!(s.p50_ms("x_seconds"), 4.0);
        assert_eq!(s.p50_ms("absent_seconds"), 0.0);
        assert!(!s.start.buckets.contains_key("fam_seconds"));
    }
}
