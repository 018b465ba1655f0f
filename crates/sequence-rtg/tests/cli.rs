//! Integration tests for the `sequence-rtg` command-line tool: the
//! production invocation shape of Fig. 6 (JSON on stdin, patterns out).

use std::io::Write;
use std::process::{Command, Stdio};

fn run_cli(args: &[&str], stdin: &str) -> (String, String, bool) {
    run_cli_bytes(args, stdin.as_bytes())
}

fn run_cli_bytes(args: &[&str], stdin: &[u8]) -> (String, String, bool) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_sequence-rtg"))
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn sequence-rtg");
    child.stdin.as_mut().unwrap().write_all(stdin).unwrap();
    let out = child.wait_with_output().unwrap();
    (
        String::from_utf8_lossy(&out.stdout).to_string(),
        String::from_utf8_lossy(&out.stderr).to_string(),
        out.status.success(),
    )
}

fn sample_stream() -> String {
    let mut s = String::new();
    for i in 0..20 {
        s.push_str(&format!(
            "{{\"service\":\"sshd\",\"message\":\"Accepted password for user{i} from 10.0.0.{i} port {} ssh2\"}}\n",
            2200 + i
        ));
    }
    s
}

#[test]
fn pipes_stream_and_reports() {
    let (_, stderr, ok) = run_cli(&["--batch-size", "10"], &sample_stream());
    assert!(ok, "{stderr}");
    assert!(stderr.contains("[batch 1]"), "{stderr}");
    assert!(stderr.contains("new_patterns=1"), "{stderr}");
    assert!(stderr.contains("stream done"), "{stderr}");
}

#[test]
fn grok_export_to_stdout() {
    let (stdout, stderr, ok) = run_cli(
        &["--batch-size", "10", "--quiet", "--export", "grok"],
        &sample_stream(),
    );
    assert!(ok, "{stderr}");
    assert!(stdout.contains("%{IP:srcip}"), "{stdout}");
    assert!(stdout.contains("pattern_id"), "{stdout}");
    assert!(stderr.is_empty(), "{stderr}");
}

#[test]
fn syslogng_export_with_selection() {
    let (stdout, _, ok) = run_cli(
        &[
            "--batch-size",
            "10",
            "--quiet",
            "--export",
            "syslog-ng",
            "--min-count",
            "1",
        ],
        &sample_stream(),
    );
    assert!(ok);
    assert!(stdout.contains("<patterndb version='4'"));
    assert!(stdout.contains("<test_message program='sshd'>"));
}

#[test]
fn malformed_lines_are_skipped_and_reported() {
    let stream = format!("not json at all\n{}{{\"service\":1}}\n", sample_stream());
    let (_, stderr, ok) = run_cli(&["--batch-size", "50"], &stream);
    assert!(ok, "{stderr}");
    assert!(stderr.contains("malformed=2"), "{stderr}");
}

#[test]
fn persistent_db_across_invocations() {
    let dir = std::env::temp_dir().join(format!("rtg-cli-db-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let db = dir.to_str().unwrap();
    let (_, stderr1, ok1) = run_cli(&["--db", db, "--batch-size", "10"], &sample_stream());
    assert!(ok1, "{stderr1}");
    // Second invocation matches everything against the persisted patterns.
    let (_, stderr2, ok2) = run_cli(&["--db", db, "--batch-size", "10"], &sample_stream());
    assert!(ok2, "{stderr2}");
    assert!(stderr2.contains("matched=10"), "{stderr2}");
    assert!(stderr2.contains("new_patterns=0"), "{stderr2}");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// One byte that is not UTF-8 costs a character, not the batch: the line is
/// decoded lossily, as `seqd` decodes its wire, and all seven records are
/// mined and stored.
#[test]
fn a_non_utf8_byte_is_decoded_lossily_and_the_batch_is_mined() {
    let dir = std::env::temp_dir().join(format!("rtg-cli-utf8-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let db = dir.to_str().unwrap();
    let line = |i: u32| format!("{{\"service\":\"x\",\"message\":\"job {i} done\"}}\n");
    let mut stream: Vec<u8> = (0..3).flat_map(|i| line(i).into_bytes()).collect();
    stream.extend_from_slice(b"{\"service\":\"x\",\"message\":\"bad \xff byte\"}\n");
    stream.extend((3..6).flat_map(|i| line(i).into_bytes()));
    let (_, stderr, ok) = run_cli_bytes(&["--db", db], &stream);
    assert!(ok, "{stderr}");
    assert!(stderr.contains("received=7"), "{stderr}");
    assert!(stderr.contains("records=7 malformed=0"), "{stderr}");
    let (yaml, stderr, ok) = run_cli(&["--db", db, "--quiet", "--export", "yaml"], "");
    assert!(ok, "{stderr}");
    let stored: u64 = yaml
        .lines()
        .filter_map(|l| l.strip_prefix("  count: "))
        .map(|n| n.parse::<u64>().unwrap())
        .sum();
    assert_eq!(stored, 7, "{yaml}");
    assert!(yaml.contains("bad \u{fffd} byte"), "{yaml}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn batch_size_zero_is_a_usage_error() {
    let out = Command::new(env!("CARGO_BIN_EXE_sequence-rtg"))
        .args(["--batch-size", "0"])
        .stdin(Stdio::null())
        .output()
        .expect("run sequence-rtg");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(
        stderr.contains("--batch-size expects a positive integer"),
        "{stderr}"
    );
    assert!(stderr.contains("usage:"), "{stderr}");
}

#[test]
fn bad_flags_fail_with_usage() {
    let (_, stderr, ok) = run_cli(&["--no-such-flag"], "");
    assert!(!ok);
    assert!(stderr.contains("usage:"), "{stderr}");
}

#[test]
fn seminal_mode_runs() {
    let (_, stderr, ok) = run_cli(&["--seminal", "--batch-size", "10"], &sample_stream());
    assert!(ok, "{stderr}");
}

/// Semi-constant splitting and its `--extended` flag are gone: the flag is
/// unknown, not silently ignored.
#[test]
fn extended_is_an_unknown_flag() {
    let out = Command::new(env!("CARGO_BIN_EXE_sequence-rtg"))
        .arg("--extended")
        .stdin(Stdio::null())
        .output()
        .expect("run sequence-rtg");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("unknown flag \"--extended\""), "{stderr}");
    assert!(stderr.contains("usage:"), "{stderr}");
}

#[test]
fn review_mode_prints_queue() {
    let (stdout, stderr, ok) = run_cli(
        &["--batch-size", "10", "--quiet", "--review"],
        &sample_stream(),
    );
    assert!(ok, "{stderr}");
    assert!(stdout.contains("review queue"), "{stdout}");
    assert!(stdout.contains("priority"), "{stdout}");
    assert!(stdout.contains("Accepted password for"), "{stdout}");
}

#[test]
fn review_with_conflict_resolution_flag_runs() {
    let (stdout, stderr, ok) = run_cli(
        &[
            "--batch-size",
            "10",
            "--quiet",
            "--review",
            "--resolve-conflicts",
        ],
        &sample_stream(),
    );
    assert!(ok, "{stderr}");
    assert!(stdout.contains("review queue"), "{stdout}");
}
