//! `seqbench calib`: does the same code agree with itself?
//!
//! Runs the whole untraced benchmark in two interleaved sets (A B A B …),
//! every run on the same seed, so that what differs between two runs is the
//! host and nothing else. Prints per workload × metric the two medians, their
//! difference and each set's interquartile spread next to the bound. A row is
//! `PASS` when the medians differ by at most half the bound and both spreads
//! stay within it — the margin a later parent-versus-change comparison needs
//! — and `UNRESOLVED` otherwise. The counts that must repeat exactly are
//! compared across all runs.

use crate::spec::{ABSOLUTE, DEMOTED, END_TO_END};
use crate::stats::{iqr_share, median};
use crate::workloads::{self, RunSpec, WORKLOADS};
use std::collections::BTreeMap;
use std::io;
use std::time::Duration;

/// One row of the table: a metric on a workload.
struct Row {
    workload: &'static str,
    name: &'static str,
    bound: f64,
    /// End to end (it gates the verdict), or one of [`DEMOTED`].
    end_to_end: bool,
    sets: [Vec<f64>; 2],
}

impl Row {
    /// How far apart the two medians are: absolutely for the shares of
    /// [`ABSOLUTE`], as a share of the first median otherwise.
    fn difference(&self) -> f64 {
        let (a, b) = (median(&self.sets[0]), median(&self.sets[1]));
        if ABSOLUTE.contains(&self.name) || a == 0.0 {
            (b - a).abs()
        } else {
            ((b - a) / a).abs()
        }
    }

    fn resolved(&self) -> bool {
        self.difference() <= self.bound / 2.0
            && self.sets.iter().all(|set| iqr_share(set) <= self.bound)
    }
}

/// Run the calibration; `Ok(true)` when every end-to-end row passes and
/// every exact count repeats.
pub fn run(spec: &RunSpec, runs: usize) -> io::Result<bool> {
    let spec = RunSpec {
        trace: false,
        ..spec.clone()
    };
    let tracked = END_TO_END
        .iter()
        .map(|m| (m.0, m.2, true))
        .chain(DEMOTED.iter().map(|m| (m.0, m.1, false)));
    let mut rows: Vec<Row> = WORKLOADS
        .iter()
        .flat_map(|workload| {
            tracked.clone().map(|(name, bound, end_to_end)| Row {
                workload,
                name,
                bound,
                end_to_end,
                sets: [Vec::new(), Vec::new()],
            })
        })
        .collect();
    let mut exact: BTreeMap<(&str, &str), Vec<u64>> = BTreeMap::new();
    for i in 0..runs {
        for set in 0..2 {
            for workload in WORKLOADS {
                std::thread::sleep(Duration::from_secs(1));
                let outcome = workloads::run(workload, &spec)?;
                if !outcome.failures.is_empty() {
                    return Err(io::Error::other(format!(
                        "{workload}: {:?}",
                        outcome.failures
                    )));
                }
                for row in rows.iter_mut().filter(|r| r.workload == workload) {
                    let value = outcome
                        .metrics
                        .iter()
                        .find(|m| m.name == row.name)
                        .ok_or_else(|| io::Error::other(format!("{workload} lacks {}", row.name)))?
                        .value;
                    row.sets[set].push(value);
                }
                for (name, count) in outcome.exact {
                    exact.entry((workload, name)).or_default().push(count);
                }
                eprintln!(
                    "seqbench: calib run {}/{runs} set {} {workload} done",
                    i + 1,
                    ["A", "B"][set]
                );
            }
        }
    }
    let rows_ok = print_table(&rows);
    Ok(print_exact(&exact) && rows_ok)
}

fn print_table(rows: &[Row]) -> bool {
    println!("| workload | metric | class | median A | median B | difference | spread A | spread B | bound | verdict |");
    println!("|---|---|---|---|---|---|---|---|---|---|");
    let mut all_pass = true;
    for row in rows {
        let resolved = row.resolved();
        all_pass &= resolved || !row.end_to_end;
        println!(
            "| {} | {} | {} | {:.6} | {:.6} | {:.4} | {:.4} | {:.4} | {} | {} |",
            row.workload,
            row.name,
            if row.end_to_end {
                "end-to-end"
            } else {
                "per-layer"
            },
            median(&row.sets[0]),
            median(&row.sets[1]),
            row.difference(),
            iqr_share(&row.sets[0]),
            iqr_share(&row.sets[1]),
            row.bound,
            if resolved { "PASS" } else { "UNRESOLVED" },
        );
    }
    all_pass
}

/// One line per exact count; `true` when each repeated in every run.
fn print_exact(exact: &BTreeMap<(&str, &str), Vec<u64>>) -> bool {
    let mut all_repeat = true;
    for ((workload, name), counts) in exact {
        let repeats = counts.iter().all(|c| *c == counts[0]);
        all_repeat &= repeats;
        println!(
            "exact {workload} {name}: {} in {} runs{}",
            counts[0],
            counts.len(),
            if repeats {
                String::new()
            } else {
                format!(" — DIFFERS: {counts:?}")
            }
        );
    }
    all_repeat
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(name: &'static str, bound: f64, a: Vec<f64>, b: Vec<f64>) -> Row {
        Row {
            workload: "w",
            name,
            bound,
            end_to_end: true,
            sets: [a, b],
        }
    }

    #[test]
    fn a_row_is_unresolved_on_medians_further_apart_than_half_the_bound() {
        let set = |x: f64| vec![x, x, x];
        assert!(row("setup_s", 0.10, set(100.0), set(104.0)).resolved());
        assert!(!row("setup_s", 0.10, set(100.0), set(106.0)).resolved());
        assert!(!row("setup_s", 0.10, set(100.0), set(94.0)).resolved());
    }

    #[test]
    fn a_row_is_unresolved_on_a_spread_wider_than_the_bound_in_either_set() {
        let wide = vec![88.0, 100.0, 112.0];
        let steady = vec![100.0; 3];
        assert!(!row("setup_s", 0.10, wide.clone(), steady.clone()).resolved());
        assert!(!row("setup_s", 0.10, steady.clone(), wide).resolved());
        assert!(row("setup_s", 0.10, steady.clone(), steady).resolved());
    }

    #[test]
    fn shares_are_compared_absolutely() {
        // 0.50 → 0.508 is 1.6 % of the median but 0.008 absolute: within
        // half of grouping_accuracy's 0.02, outside half of a relative one.
        let (a, b) = (vec![0.50; 3], vec![0.508; 3]);
        assert!(row("grouping_accuracy", 0.02, a.clone(), b.clone()).resolved());
        assert!(!row("patterns_per_template", 0.02, a, b).resolved());
    }

    #[test]
    fn a_demoted_row_never_fails_the_calibration_and_an_exact_count_does() {
        let mut noisy = row(
            "window.e2e_lines_per_s",
            0.08,
            vec![100.0; 3],
            vec![120.0; 3],
        );
        noisy.end_to_end = false;
        assert!(print_table(&[noisy]));
        let mut exact = BTreeMap::new();
        exact.insert(("w", "count"), vec![7, 7, 7]);
        assert!(print_exact(&exact));
        exact.insert(("w", "other"), vec![7, 8, 7]);
        assert!(!print_exact(&exact));
    }
}
