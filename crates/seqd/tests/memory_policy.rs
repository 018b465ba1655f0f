//! The `seqd` binary's allocation policy, read back through
//! `/debug/memory`.
//!
//! A real subprocess (the policy is pinned in the binary's `main`, not in
//! the library) takes waves of services it has never seen, each wave mined
//! in jobs whose residue buffers, scanned tokens and plans are above the
//! pinned mmap threshold. Once everything is mined, those blocks must be
//! back with the kernel. Under glibc's default dynamic threshold the first
//! such free raises the threshold, the later blocks are carved from the
//! miner's and the worker's arenas, the arenas keep them when they are
//! freed, and the bound below fails (≈ 10 MiB kept against ≈ 0.5 MiB).
//!
//! The report must also add up: the named owners, the allocator's free
//! bytes and the unattributed remainder are the heap, exactly.

use jsonlite::Value;
use seqd::loadgen;
use sequence_rtg::LogRecord;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

const WAVES: u64 = 4;
const SERVICES: usize = 2;
const WAVE_LEN: usize = 30;
/// Records sent per connection: each chunk is processed before the next
/// goes out, so few records are ever in flight at once.
const CHUNK: usize = 10;
/// Residue records that make a mining job.
const BATCH: &str = "15";
/// Every message ends in one token longer than the pinned threshold, so
/// the blocks a job allocates for it (the residue buffer, the scanned
/// token, the plan's copy) are each above it.
const PAD: usize = 140 << 10;

/// What the allocator may hold free once every job is mined. The pinned
/// policy leaves ≈ 0.5 MiB here; the dynamic threshold ≈ 10 MiB.
const FREE_BOUND: f64 = (4 << 20) as f64;

/// Wave `w`: `SERVICES` services no earlier wave had.
fn wave(w: u64) -> Vec<LogRecord> {
    loghub_synth::generate_stream(loghub_synth::CorpusConfig {
        services: SERVICES,
        total: WAVE_LEN,
        seed: 4_700 + w,
    })
    .into_iter()
    .map(|item| {
        let message = format!("{} {}", item.message, "q".repeat(PAD));
        LogRecord::new(format!("w{w}-{}", item.service), message)
    })
    .collect()
}

/// The daemon subprocess, killed if the test fails before its drain.
struct Seqd(Child);

impl Drop for Seqd {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

fn spawn_seqd() -> (Seqd, SocketAddr) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_seqd"))
        .args(["--addr", "127.0.0.1:0", "--shards", "1", "--pollers", "1"])
        .args(["--miners", "1", "--batch-size", BATCH])
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn seqd");
    let mut stderr = BufReader::new(child.stderr.take().expect("child stderr")).lines();
    let seqd = Seqd(child);
    let banner = stderr
        .next()
        .expect("a banner line")
        .expect("read child stderr");
    let rest = banner
        .strip_prefix("seqd: listening on ")
        .unwrap_or_else(|| panic!("not the banner: {banner}"));
    let addr = rest.split_whitespace().next().unwrap().parse().unwrap();
    // Keep reading, so the daemon's last lines do not meet a closed pipe.
    std::thread::spawn(move || stderr.for_each(drop));
    (seqd, addr)
}

/// A numeric field of a JSON document.
fn field(doc: &Value, key: &str) -> f64 {
    doc.get(key)
        .and_then(Value::as_f64)
        .unwrap_or_else(|| panic!("no number {key}"))
}

fn get_json(addr: SocketAddr, path: &str) -> Value {
    jsonlite::parse(&loadgen::control_get(addr, path).expect(path)).expect("JSON body")
}

/// Wait until every record is counted, no shard holds residue and the
/// miner has nothing queued or in flight.
fn wait_until_mined(addr: SocketAddr, records: u64) {
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let stats = get_json(addr, "/stats");
        let counted = field(&stats, "matched") + field(&stats, "unmatched");
        let idle = field(&stats, "residue") == 0.0 && field(&stats, "mine_backlog") == 0.0;
        if counted >= records as f64 && idle {
            return;
        }
        assert!(Instant::now() < deadline, "not mined in time: {stats:?}");
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn freed_job_memory_goes_back_and_the_report_adds_up() {
    let (mut seqd, addr) = spawn_seqd();
    let mut sent = 0u64;
    for w in 0..WAVES {
        for chunk in wave(w).chunks(CHUNK) {
            let receipt = loadgen::replay_records(addr, chunk).expect("replay");
            assert_eq!(receipt.accepted, chunk.len() as u64, "{receipt:?}");
            sent += chunk.len() as u64;
            loadgen::wait_until_processed(addr, sent, Duration::from_secs(60)).unwrap();
        }
        // One wave mined at a time: what the allocator keeps does not
        // depend on how ingest and mining interleave.
        wait_until_mined(addr, sent);
    }

    let memory = get_json(addr, "/debug/memory");
    let owners = memory.get("owners").and_then(Value::as_object).unwrap();
    let owned: f64 = owners.values().map(|v| v.as_f64().unwrap()).sum();
    assert_eq!(owned, field(&memory, "owned_bytes"), "{memory:?}");
    assert_eq!(
        owned + field(&memory, "allocator_free_bytes") + field(&memory, "unattributed_bytes"),
        field(&memory, "heap_bytes"),
        "{memory:?}"
    );
    assert!(owners["pattern_sets"].as_f64().unwrap() > 0.0, "{memory:?}");
    assert!(owners["store_rows"].as_f64().unwrap() > 0.0, "{memory:?}");
    assert_eq!(owners["mining_jobs"].as_f64(), Some(0.0), "{memory:?}");
    assert_eq!(owners["shard_residue"].as_f64(), Some(0.0), "{memory:?}");
    let free = field(&memory, "allocator_free_bytes");
    assert!(
        free < FREE_BOUND,
        "the allocator kept {:.1} MiB of freed memory: {memory:?}",
        free / (1 << 20) as f64
    );
    assert_eq!(
        memory.get("mmap_threshold_bytes").and_then(Value::as_f64),
        Some(seqd::memory::MMAP_THRESHOLD as f64),
        "{memory:?}"
    );

    loadgen::control_post(addr, "/shutdown").expect("shutdown");
    assert!(seqd.0.wait().expect("seqd exits").success());
}
