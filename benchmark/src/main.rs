//! `seqbench` — the repository's benchmark.
//!
//! ```text
//! seqbench [--workload W] [--seed N] [--trace 0|1] [--seconds 21] [--out DIR]
//! seqbench calib [--runs N] [--seed N] [--out DIR]
//! ```
//!
//! Runs one workload (or all four, one after another) against the release
//! `seqd` and `sequence-rtg` binaries built next to this one, checks their
//! outputs, prints every metric as `workload metric value unit`, and ends
//! with one JSON object per workload. `benchmark/run.sh` builds all three
//! binaries and then calls this. See `benchmark/README.md`.

mod accuracy;
mod calib;
mod corpus;
mod daemon;
mod layers;
mod prom;
mod sender;
mod spec;
mod stats;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;
use workloads::{Metric, Outcome, RunSpec, WORKLOADS};

/// The seed used when none is given.
const DEFAULT_SEED: u64 = 20_210_906;

/// `run_seconds` of `BENCHMARK.json`: the length of a window on the review
/// host. It describes the frozen line counts of `corpus::size`; it does not
/// set them. The acceptance pipeline passes it as `--seconds`, which is
/// accepted for that reason and refused with any other value.
const RUN_SECONDS: u64 = 21;

struct Args {
    calib: bool,
    workload: Option<String>,
    runs: usize,
    spec: RunSpec,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        calib: false,
        workload: None,
        runs: 5,
        spec: RunSpec {
            seed: DEFAULT_SEED,
            trace: false,
            out_dir: PathBuf::from("benchmark/out"),
        },
    };
    let mut argv = std::env::args().skip(1).peekable();
    while let Some(arg) = argv.next() {
        let mut value = |flag: &str| argv.next().ok_or(format!("{flag} needs a value"));
        match arg.as_str() {
            "calib" => args.calib = true,
            "--workload" => {
                let w = value("--workload")?;
                if !WORKLOADS.contains(&w.as_str()) {
                    return Err(format!("unknown workload {w:?}; one of {WORKLOADS:?}"));
                }
                args.workload = Some(w);
            }
            "--seed" => {
                args.spec.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed expects a whole number")?
            }
            "--seconds" => {
                if value("--seconds")?.parse() != Ok(RUN_SECONDS) {
                    return Err(format!(
                        "the work of a run is fixed by line count: --seconds takes only \
                         {RUN_SECONDS}, the run_seconds of BENCHMARK.json"
                    ));
                }
            }
            "--trace" => {
                args.spec.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace expects 0 or 1, got {other:?}")),
                }
            }
            "--runs" => {
                args.runs = match value("--runs")?.parse() {
                    Ok(n @ 2..) => n,
                    _ => return Err("--runs expects a whole number, at least 2".into()),
                }
            }
            "--out" => args.spec.out_dir = PathBuf::from(value("--out")?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

/// The `metrics` object of the result line: every name of `listed`, in
/// order, with 0 for a metric the workload has no layer for.
fn metrics_json(reported: &[Metric], listed: &[(&str, &str)]) -> String {
    let fields: Vec<String> = listed
        .iter()
        .map(|(name, unit)| {
            let value = reported
                .iter()
                .find(|m| m.name == *name)
                .map_or(0.0, |m| m.value);
            let value = if value.is_finite() { value } else { 0.0 };
            format!("{name:?}: {{\"value\": {value}, \"unit\": {unit:?}}}")
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// Print one workload's outcome: a line per metric, every failed check, and
/// the JSON result line, which holds the end-to-end metrics of an untraced
/// run or the per-layer metrics of a traced one.
fn report(workload: &str, trace: bool, outcome: &Outcome) {
    let end_to_end = spec::END_TO_END.iter().map(|m| (m.0, m.1));
    let listed: Vec<(&str, &str)> = if trace {
        spec::PER_LAYER.to_vec()
    } else {
        end_to_end.clone().collect()
    };
    for m in &outcome.metrics {
        let (_, unit) = end_to_end
            .clone()
            .chain(spec::PER_LAYER)
            .find(|(name, _)| *name == m.name)
            .unwrap_or_else(|| panic!("{} is not listed in spec.rs", m.name));
        println!("{workload} {} {} {unit}", m.name, m.value);
    }
    for failure in &outcome.failures {
        eprintln!("seqbench: {workload}: FAILED CHECK: {failure}");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.failures.is_empty(),
        outcome.attempted,
        outcome.failed,
        metrics_json(&outcome.metrics, &listed),
    );
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("seqbench: {msg}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    eprintln!(
        "seqbench: nproc {nproc}, seed {}, trace {}, seqd flags: {}",
        args.spec.seed,
        u8::from(args.spec.trace),
        daemon::SEQD_FLAGS.join(" "),
    );
    if args.calib {
        return match calib::run(&args.spec, args.runs) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("seqbench: calib: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let selected: Vec<&str> = match &args.workload {
        Some(w) => vec![w.as_str()],
        None => WORKLOADS.to_vec(),
    };
    let mut ok = true;
    for (i, workload) in selected.iter().enumerate() {
        if i > 0 {
            // Let the previous workload's page-cache writeback and exit
            // settle before the next set-up starts.
            std::thread::sleep(Duration::from_secs(1));
        }
        match workloads::run(workload, &args.spec) {
            Ok(outcome) => {
                report(workload, args.spec.trace, &outcome);
                ok &= outcome.failures.is_empty();
            }
            Err(e) => {
                eprintln!("seqbench: {workload}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` and the code agree on every name, unit, bound,
    /// workload and on `run_seconds`.
    #[test]
    fn benchmark_json_lists_what_the_code_reports() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = jsonlite::parse(&text).expect("BENCHMARK.json parses");
        let text_of = |v: &jsonlite::Value, k: &str| -> String {
            v.get(k)
                .and_then(|x| x.as_str())
                .unwrap_or_else(|| panic!("{k} missing"))
                .to_string()
        };
        let list = |k: &str| -> Vec<jsonlite::Value> {
            doc.get(k)
                .and_then(|x| x.as_array())
                .unwrap_or_else(|| panic!("{k} missing"))
                .to_vec()
        };
        let names: Vec<String> = list("workloads")
            .iter()
            .map(|w| text_of(w, "name"))
            .collect();
        assert_eq!(names, WORKLOADS);
        let e2e: Vec<(String, String, f64)> = list("end_to_end")
            .iter()
            .map(|m| {
                let bound = m.get("bound").and_then(|b| b.as_f64()).expect("bound");
                (text_of(m, "name"), text_of(m, "unit"), bound)
            })
            .collect();
        let want: Vec<(String, String, f64)> = spec::END_TO_END
            .iter()
            .map(|m| (m.0.into(), m.1.into(), m.2))
            .collect();
        assert_eq!(e2e, want);
        let layers: Vec<(String, String)> = list("per_layer")
            .iter()
            .map(|m| (text_of(m, "name"), text_of(m, "unit")))
            .collect();
        let want: Vec<(String, String)> = spec::PER_LAYER
            .iter()
            .map(|m| (m.0.into(), m.1.into()))
            .collect();
        assert_eq!(layers, want);
        let seconds = doc.get("run_seconds").and_then(|s| s.as_i64());
        assert_eq!(seconds, Some(RUN_SECONDS as i64));
    }

    #[test]
    fn result_line_fills_absent_metrics_with_zero() {
        let reported = [workloads::metric("b", 1.5)];
        let json = metrics_json(&reported, &[("a", "ms"), ("b", "s")]);
        assert_eq!(
            json,
            r#"{"a": {"value": 0, "unit": "ms"}, "b": {"value": 1.5, "unit": "s"}}"#
        );
        assert!(jsonlite::parse(&json).is_ok());
    }
}
