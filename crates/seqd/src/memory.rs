//! The daemon's allocation policy and the `/debug/memory` view of where
//! its resident set goes — no `libc` crate, no counting allocator.
//!
//! **Policy.** glibc's default mmap threshold is *dynamic*: once a block
//! above it is freed, the threshold rises to that block's size (up to
//! 32 MiB), and from then on every block of that size is carved from an
//! arena. A mining job's residue buffers, plans and set arrays are such
//! blocks. When the job ends they go back to the arena of the thread that
//! freed them, which keeps the memory, fragmented between the miner's, the
//! shard worker's and the poller's arenas. [`pin_allocator_policy`] fixes
//! the threshold at [`MMAP_THRESHOLD`] with one `mallopt`. That also turns
//! off the dynamic adjustment of the threshold and of the trim threshold.
//! A block above the threshold is then mapped on its own and unmapped when
//! it is freed. Only the `seqd` binary calls it, first thing in `main`: a
//! library does not change its host process's allocator, so an in-process
//! daemon (a test, the benchmark's layer replay) keeps glibc's defaults.
//!
//! **Count.** [`MemoryReport`] reads glibc's `mallinfo2()` (glibc ≥ 2.33)
//! and `/proc/self/status`, and lists the daemon's named owners beside
//! them. It costs nothing per allocation, but `mallinfo2` takes every
//! arena's lock, so it is read for `/metrics` and `/debug/memory`, never
//! for `/stats`.
//!
//! Both are glibc-only and compiled under
//! `cfg(all(target_os = "linux", target_env = "gnu"))`. Elsewhere the
//! policy is a no-op and the heap figures read 0.

use jsonlite::Value;
use std::sync::atomic::{AtomicBool, Ordering};

/// The pinned mmap threshold: a block of this size or more is mapped on
/// its own and returned to the kernel when freed. glibc's own starting
/// value, kept from rising.
pub const MMAP_THRESHOLD: usize = 128 << 10;

/// Set once [`pin_allocator_policy`] succeeded.
static PINNED: AtomicBool = AtomicBool::new(false);

#[cfg(all(target_os = "linux", target_env = "gnu"))]
mod glibc {
    use std::os::raw::c_int;

    /// `M_MMAP_THRESHOLD` of `<malloc.h>`.
    pub const M_MMAP_THRESHOLD: c_int = -3;

    /// `struct mallinfo2` of `<malloc.h>`: ten `size_t` fields.
    #[repr(C)]
    #[derive(Debug, Default, Clone, Copy)]
    pub struct MallInfo2 {
        pub arena: usize,
        pub ordblks: usize,
        pub smblks: usize,
        pub hblks: usize,
        pub hblkhd: usize,
        pub usmblks: usize,
        pub fsmblks: usize,
        pub uordblks: usize,
        pub fordblks: usize,
        pub keepcost: usize,
    }

    extern "C" {
        pub fn mallopt(param: c_int, value: c_int) -> c_int;
        pub fn mallinfo2() -> MallInfo2;
    }
}

/// Pin glibc's mmap threshold at [`MMAP_THRESHOLD`], which also stops
/// glibc from moving it and the trim threshold on its own. Returns whether
/// the policy is in force (always `false` off glibc). Call it once, before
/// the process starts its threads.
pub fn pin_allocator_policy() -> bool {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        // SAFETY: `mallopt` only changes allocator parameters; it takes the
        // main arena's lock itself.
        let ok = unsafe { glibc::mallopt(glibc::M_MMAP_THRESHOLD, MMAP_THRESHOLD as _) } == 1;
        PINNED.store(ok, Ordering::Relaxed);
    }
    PINNED.load(Ordering::Relaxed)
}

/// What the allocator holds, from `mallinfo2()`.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct HeapInfo {
    /// Bytes in use: arena chunks handed out plus mapped blocks
    /// (`uordblks + hblkhd`).
    pub in_use: u64,
    /// Bytes the arenas hold free, their top chunks included (`fordblks`).
    pub free: u64,
    /// Of `in_use`, the blocks mapped on their own (`hblkhd`).
    pub mapped: u64,
}

impl HeapInfo {
    /// Read the allocator's totals across every arena. Zero off glibc.
    pub fn read() -> HeapInfo {
        #[cfg(all(target_os = "linux", target_env = "gnu"))]
        {
            // SAFETY: `mallinfo2` fills and returns a plain struct.
            let m = unsafe { glibc::mallinfo2() };
            HeapInfo {
                in_use: (m.uordblks + m.hblkhd) as u64,
                free: m.fordblks as u64,
                mapped: m.hblkhd as u64,
            }
        }
        #[cfg(not(all(target_os = "linux", target_env = "gnu")))]
        HeapInfo::default()
    }

    /// Everything the allocator holds: in use plus free.
    pub fn total(&self) -> u64 {
        self.in_use + self.free
    }
}

/// `VmRSS` and `VmHWM` of this process, in bytes (0 when unreadable).
pub fn resident() -> (u64, u64) {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kib = |key: &str| {
        let line = status.lines().find(|l| l.starts_with(key));
        let kb = line.and_then(|l| l.split_whitespace().nth(1)?.parse::<u64>().ok());
        kb.map_or(0, |kb| kb << 10)
    };
    (kib("VmRSS:"), kib("VmHWM:"))
}

/// The daemon's named holders of heap, in bytes. Each is what the owner
/// itself can count (buffer capacities, row sizes), not what the allocator
/// rounds it up to.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Owners {
    /// The published pattern sets, entries and matcher index.
    pub pattern_sets: u64,
    /// The pattern store's rows and unique indexes.
    pub store_rows: u64,
    /// Residue the shard workers hold before handing it off.
    pub shard_residue: u64,
    /// Residue of the mining jobs queued and in flight.
    pub mining_jobs: u64,
    /// Records waiting in the shard queues, slots included.
    pub shard_queues: u64,
    /// The ingest WAL's extent index and serialisation buffers.
    pub ingest_wal: u64,
    /// The ingest connections' ring buffers at their current size and the
    /// pollers' routing vectors, connection tags included.
    pub connection_buffers: u64,
}

impl Owners {
    fn named(&self) -> [(&'static str, u64); 7] {
        [
            ("pattern_sets", self.pattern_sets),
            ("store_rows", self.store_rows),
            ("shard_residue", self.shard_residue),
            ("mining_jobs", self.mining_jobs),
            ("shard_queues", self.shard_queues),
            ("ingest_wal", self.ingest_wal),
            ("connection_buffers", self.connection_buffers),
        ]
    }

    /// All named owners together.
    pub fn total(&self) -> u64 {
        self.named().iter().map(|(_, n)| n).sum()
    }
}

/// One reading of `/debug/memory`.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct MemoryReport {
    /// `VmRSS`, bytes.
    pub resident: u64,
    /// `VmHWM`, bytes.
    pub resident_peak: u64,
    /// The allocator's totals.
    pub heap: HeapInfo,
    /// The named owners.
    pub owners: Owners,
}

impl MemoryReport {
    /// Heap in use that no named owner claims. Negative when the owners'
    /// own counts run ahead of the allocator's (an owner that counts
    /// capacity it has not touched yet, say).
    pub fn unattributed(&self) -> i64 {
        self.heap.in_use as i64 - self.owners.total() as i64
    }

    /// The `/debug/memory` body. `owned + allocator_free + unattributed`
    /// is `heap` exactly. `mmap_threshold_bytes` is `null` unless this
    /// process pinned the policy.
    pub fn to_json(&self) -> String {
        let bytes = |n: u64| Value::from(n as f64);
        let owners = self.owners.named().map(|(k, n)| (k, bytes(n)));
        let threshold = match PINNED.load(Ordering::Relaxed) {
            true => bytes(MMAP_THRESHOLD as u64),
            false => Value::Null,
        };
        let unattributed = Value::from(self.unattributed() as f64);
        let fields = [
            ("resident_bytes", bytes(self.resident)),
            ("resident_peak_bytes", bytes(self.resident_peak)),
            ("heap_bytes", bytes(self.heap.total())),
            ("heap_in_use_bytes", bytes(self.heap.in_use)),
            ("heap_mapped_bytes", bytes(self.heap.mapped)),
            ("allocator_free_bytes", bytes(self.heap.free)),
            ("owners", jsonlite::object(owners)),
            ("owned_bytes", bytes(self.owners.total())),
            ("unattributed_bytes", unattributed),
            ("mmap_threshold_bytes", threshold),
        ];
        let mut body = jsonlite::to_string(&jsonlite::object(fields));
        body.push('\n');
        body
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_report_adds_up_to_the_heap() {
        let report = MemoryReport {
            resident: 40 << 20,
            resident_peak: 50 << 20,
            heap: HeapInfo {
                in_use: 30 << 20,
                free: 2 << 20,
                mapped: 4 << 20,
            },
            owners: Owners {
                pattern_sets: 20 << 20,
                store_rows: 5 << 20,
                connection_buffers: 1 << 20,
                ..Owners::default()
            },
        };
        assert_eq!(report.unattributed(), 4 << 20);
        let v = jsonlite::parse(&report.to_json()).unwrap();
        let n = |k: &str| v.get(k).and_then(Value::as_f64).unwrap();
        assert_eq!(
            n("owned_bytes") + n("allocator_free_bytes") + n("unattributed_bytes"),
            n("heap_bytes")
        );
        assert_eq!(n("heap_bytes"), (32u64 << 20) as f64);
        let owners = v.get("owners").and_then(Value::as_object).unwrap();
        assert_eq!(owners.len(), 7);
        let sum: f64 = owners.values().filter_map(Value::as_f64).sum();
        assert_eq!(sum, n("owned_bytes"));
    }

    #[test]
    fn owners_ahead_of_the_allocator_read_negative() {
        let report = MemoryReport {
            heap: HeapInfo {
                in_use: 1 << 20,
                ..HeapInfo::default()
            },
            owners: Owners {
                shard_queues: 3 << 20,
                ..Owners::default()
            },
            ..MemoryReport::default()
        };
        assert_eq!(report.unattributed(), -(2 << 20));
    }

    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    #[test]
    fn the_allocator_and_the_kernel_are_read() {
        // Opaque to the optimiser: a release build would otherwise drop an
        // allocation that is only ever measured.
        let held = std::hint::black_box(vec![1u8; 4 << 20]);
        let heap = HeapInfo::read();
        assert!(heap.in_use >= held.len() as u64, "{heap:?}");
        assert!(heap.in_use >= heap.mapped, "{heap:?}");
        let (rss, hwm) = resident();
        assert!(rss >= held.len() as u64 && hwm >= rss, "{rss} {hwm}");
        drop(held);
    }
}
