//! The `seqd` child process: spawn with the benchmark's fixed flags, read
//! `/stats`, sample `/proc`, shut down.

use seqd::loadgen::{control_get, control_post};
use std::io::{self, BufRead, BufReader, Read};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The flags every daemon workload runs with: one of each stage, nothing
/// left to an `nproc`-dependent default.
pub const SEQD_FLAGS: [&str; 10] = [
    "--shards",
    "1",
    "--pollers",
    "1",
    "--miners",
    "1",
    "--evolve",
    "batch",
    "--wire",
    "event-loop",
];

/// How long any wait on the daemon may take before the run fails.
const PATIENCE: Duration = Duration::from_secs(60);

/// A binary built next to this one (`run.sh` builds all three into one
/// target directory).
pub fn sibling_binary(name: &str) -> io::Result<PathBuf> {
    let exe = std::env::current_exe()?;
    let path = exe
        .parent()
        .map(|dir| dir.join(name))
        .ok_or_else(|| io::Error::other("benchmark executable has no parent directory"))?;
    if path.is_file() {
        Ok(path)
    } else {
        Err(io::Error::other(format!(
            "{} not found: build it with benchmark/run.sh",
            path.display()
        )))
    }
}

/// The counters of one `/stats` read that the benchmark uses.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Stats {
    pub ingested: u64,
    pub matched: u64,
    pub unmatched: u64,
    pub rejected: u64,
    pub malformed: u64,
    pub dropped: u64,
    pub in_flight: u64,
    pub residue: u64,
    pub wal_pending: u64,
    pub mine_backlog: u64,
    pub counter_drift: i64,
    pub pattern_swaps: u64,
    pub remine_runs: u64,
    pub published_patterns: u64,
}

impl Stats {
    /// Lines fully processed: matched or unmatched.
    pub fn processed(&self) -> u64 {
        self.matched + self.unmatched
    }

    /// Nothing left anywhere between the socket and the store.
    pub fn drained(&self) -> bool {
        self.in_flight == 0 && self.mine_backlog == 0 && self.residue == 0 && self.wal_pending == 0
    }

    /// Parse the `/stats` body.
    pub fn parse(body: &str) -> io::Result<Stats> {
        let v = jsonlite::parse(body)
            .map_err(|e| io::Error::other(format!("unparseable /stats: {e:?}")))?;
        let int = |k: &str| -> io::Result<i64> {
            v.get(k)
                .and_then(|x| x.as_i64())
                .ok_or_else(|| io::Error::other(format!("/stats lacks {k}")))
        };
        let count = |k: &str| int(k).map(|n| n.max(0) as u64);
        Ok(Stats {
            ingested: count("ingested")?,
            matched: count("matched")?,
            unmatched: count("unmatched")?,
            rejected: count("rejected")?,
            malformed: count("malformed")?,
            dropped: count("dropped")?,
            in_flight: count("in_flight")?,
            residue: count("residue")?,
            wal_pending: count("wal_pending")?,
            mine_backlog: count("mine_backlog")?,
            counter_drift: int("counter_drift")?,
            pattern_swaps: count("pattern_swaps")?,
            remine_runs: count("remine_runs")?,
            published_patterns: count("published_patterns")?,
        })
    }
}

/// CPU and memory of a process, from `/proc`.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProcSample {
    /// User + system CPU seconds since the process started.
    pub cpu_s: f64,
    /// Peak resident set (`VmHWM`) in MiB.
    pub peak_rss_mb: f64,
}

/// Kernel clock ticks per second for `/proc/<pid>/stat` times. Linux has
/// exported `USER_HZ = 100` to user space on every architecture since 2.6.
const USER_HZ: f64 = 100.0;

/// User + system CPU seconds from a `/proc/<pid>/stat` line: fields 14 and
/// 15, counted after the parenthesised command name (which may hold spaces).
pub fn cpu_seconds_from_stat(stat: &str, first_field: usize) -> Option<f64> {
    let after = &stat[stat.rfind(')')? + 1..];
    // `after` starts at field 3 (state).
    let mut fields = after.split_whitespace().skip(first_field - 3);
    let a: f64 = fields.next()?.parse().ok()?;
    let b: f64 = fields.next()?.parse().ok()?;
    Some((a + b) / USER_HZ)
}

/// Peak resident set in MiB from a `/proc/<pid>/status` body.
pub fn peak_rss_mb_from_status(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Sample a live process.
pub fn sample_proc(pid: u32) -> io::Result<ProcSample> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat"))?;
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))?;
    Ok(ProcSample {
        cpu_s: cpu_seconds_from_stat(&stat, 14)
            .ok_or_else(|| io::Error::other("unparseable /proc stat"))?,
        peak_rss_mb: peak_rss_mb_from_status(&status)
            .ok_or_else(|| io::Error::other("no VmHWM in /proc status"))?,
    })
}

/// CPU seconds of every child this process has waited for so far
/// (`cutime + cstime`, fields 16 and 17 of `/proc/self/stat`).
pub fn reaped_children_cpu_s() -> io::Result<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat")?;
    cpu_seconds_from_stat(&stat, 16).ok_or_else(|| io::Error::other("unparseable /proc stat"))
}

/// A running daemon.
pub struct Daemon {
    child: Child,
    addr: SocketAddr,
    stderr: Option<JoinHandle<String>>,
}

impl Daemon {
    /// Spawn `seqd` on `store` with [`SEQD_FLAGS`] and wait for `/healthz`.
    /// Returns the daemon and the spawn → healthy time.
    pub fn spawn(store: &Path) -> io::Result<(Daemon, Duration)> {
        let started = Instant::now();
        let mut child = Command::new(sibling_binary("seqd")?)
            .args(["--addr", "127.0.0.1:0", "--store"])
            .arg(store)
            .args(SEQD_FLAGS)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()?;
        let mut lines = BufReader::new(child.stderr.take().expect("stderr was piped"));
        let mut banner = String::new();
        lines.read_line(&mut banner)?;
        let Some(addr) = banner
            .strip_prefix("seqd: listening on ")
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|a| a.parse::<SocketAddr>().ok())
        else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(io::Error::other(format!("seqd did not start: {banner:?}")));
        };
        // Keep draining stderr so the daemon can never block on the pipe.
        let stderr = std::thread::spawn(move || {
            let mut rest = String::new();
            let _ = lines.read_to_string(&mut rest);
            rest
        });
        let daemon = Daemon {
            child,
            addr,
            stderr: Some(stderr),
        };
        loop {
            if control_get(addr, "/healthz").is_ok() {
                return Ok((daemon, started.elapsed()));
            }
            if started.elapsed() > PATIENCE {
                return Err(io::Error::other("seqd never became healthy"));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// The daemon's listen address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// One `/stats` read over a short-lived control connection.
    pub fn stats(&self) -> io::Result<Stats> {
        Stats::parse(&control_get(self.addr, "/stats")?)
    }

    /// The `/metrics` exposition.
    pub fn metrics(&self) -> io::Result<String> {
        control_get(self.addr, "/metrics")
    }

    /// CPU and peak memory so far.
    pub fn sample(&self) -> io::Result<ProcSample> {
        sample_proc(self.child.id())
    }

    /// `POST /shutdown`, wait for the drain and checkpoint, and require a
    /// clean exit. Returns the shutdown → exit time.
    pub fn shutdown(mut self) -> io::Result<Duration> {
        let started = Instant::now();
        control_post(self.addr, "/shutdown")?;
        let status = self.child.wait()?;
        let took = started.elapsed();
        let stderr = self
            .stderr
            .take()
            .and_then(|h| h.join().ok())
            .unwrap_or_default();
        if !status.success() {
            return Err(io::Error::other(format!(
                "seqd exited with {status}: {stderr}"
            )));
        }
        Ok(took)
    }
}

impl Drop for Daemon {
    /// A failed run must not leave a daemon behind: kill and reap. After a
    /// clean [`Daemon::shutdown`] the child is already reaped and both calls
    /// are no-ops.
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_fields_are_found_after_a_hostile_command_name() {
        let stat = "77 (a b) c) S 1 77 77 0 -1 4194304 100 0 0 0 250 50 30 20 20 0 3 0 1 2 3";
        assert_eq!(cpu_seconds_from_stat(stat, 14), Some(3.0));
        assert_eq!(cpu_seconds_from_stat(stat, 16), Some(0.5));
    }

    #[test]
    fn peak_rss_is_read_in_mib() {
        let status = "Name:\tseqd\nVmPeak:\t  900 kB\nVmHWM:\t   20480 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(peak_rss_mb_from_status(status), Some(20.0));
    }

    #[test]
    fn stats_parse_and_drained() {
        let body = r#"{"ingested":10,"matched":7,"unmatched":3,"rejected":0,"malformed":0,
            "dropped":0,"in_flight":0,"residue":0,"wal_pending":null,"mine_backlog":0,
            "counter_drift":0,"pattern_swaps":2,"remine_runs":1,"published_patterns":5}"#;
        assert!(
            Stats::parse(body).is_err(),
            "a daemon without a WAL is refused"
        );
        let stats = Stats::parse(&body.replace("null", "4")).unwrap();
        assert_eq!(stats.processed(), 10);
        assert!(!stats.drained());
    }
}
