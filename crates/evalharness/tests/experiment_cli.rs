//! The experiment binaries refuse what they cannot honour: an unknown
//! argument or a bad value exits 2 with a usage line instead of silently
//! running a different experiment.

use std::process::Command;

/// Exit code, stdout and stderr of one run.
fn run(bin: &str, args: &[&str]) -> (Option<i32>, String, String) {
    let out = Command::new(bin).args(args).output().expect("spawn");
    let text = |bytes| String::from_utf8(bytes).unwrap();
    (out.status.code(), text(out.stdout), text(out.stderr))
}

fn assert_usage_error(bin: &str, args: &[&str], usage: &str) {
    let (code, stdout, stderr) = run(bin, args);
    assert_eq!((code, stdout.as_str()), (Some(2), ""), "{args:?}: {stderr}");
    assert!(stderr.contains(usage), "{args:?}: {stderr}");
}

#[test]
fn fig5_rejects_sizes_that_are_not_positive_integers() {
    // `10k` used to be dropped, running the full 500k default sweep.
    for args in [&["10k"][..], &["2000", "x"], &["0"]] {
        assert_usage_error(env!("CARGO_BIN_EXE_fig5"), args, "usage: fig5 [SIZE ...]");
    }
}

#[test]
fn fig7_rejects_unknown_arguments_and_bad_values() {
    // `--days x` used to fall back to 60 days; `--bogus` was ignored.
    let usage = "usage: fig7 [--days N] [--daily N]";
    for args in [
        &["--bogus"][..],
        &["--days", "x"],
        &["--days"],
        &["--daily", "0"],
    ] {
        assert_usage_error(env!("CARGO_BIN_EXE_fig7"), args, usage);
    }
}

#[test]
fn paper_tables_takes_no_arguments() {
    let bin = env!("CARGO_BIN_EXE_paper-tables");
    assert_usage_error(bin, &["--seed", "1"], "usage: paper-tables");
}

#[test]
fn valid_arguments_still_run() {
    let (code, stdout, _) = run(env!("CARGO_BIN_EXE_fig5"), &["300"]);
    assert!(
        code == Some(0) && stdout.contains("\n       300 "),
        "{stdout}"
    );
    let fig7 = env!("CARGO_BIN_EXE_fig7");
    let (code, stdout, _) = run(fig7, &["--days", "2", "--daily", "300"]);
    assert!(
        code == Some(0) && stdout.contains("day 2 unmatched"),
        "{stdout}"
    );
}
