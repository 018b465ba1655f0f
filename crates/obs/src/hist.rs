//! Log-linear latency histograms with lock-free recording.
//!
//! The bucket scheme is HDR-style log-linear: each power-of-two octave is
//! split into [`SUBS`] linear sub-buckets, so the relative bucket width is
//! at most `1 / SUBS` (25% with the default 4 sub-buckets). Durations are
//! recorded in integer nanoseconds and exported in seconds, matching the
//! Prometheus convention for `*_seconds` histograms.
//!
//! Recording is two relaxed `fetch_add`s on a per-thread *stripe* — threads
//! are assigned round-robin to one of [`STRIPES`] shards, so concurrent
//! recorders on different threads rarely touch the same cache lines and
//! never take a lock. A scrape merges all stripes into a [`HistSnapshot`];
//! because every increment lands in exactly one stripe, the merge is
//! lossless (the property test in `tests/` pins this down).

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// log2 of the number of linear sub-buckets per octave.
pub const SUB_BITS: u32 = 2;
/// Linear sub-buckets per power-of-two octave.
pub const SUBS: usize = 1 << SUB_BITS;

/// Smallest octave tracked precisely: values below `2^MIN_EXP` ns collapse
/// into the buckets of the first octave (256 ns resolution floor).
pub const MIN_EXP: u32 = 8;
/// Largest octave tracked precisely: values at or above `2^(MAX_EXP+1)` ns
/// (~137 s) all land in the final overflow bucket.
pub const MAX_EXP: u32 = 36;

/// Total bucket count, including the final overflow bucket.
pub const BUCKETS: usize = ((MAX_EXP - MIN_EXP + 1) as usize) * SUBS + 1;

/// Number of independent recording stripes (power of two).
pub const STRIPES: usize = 16;

/// Map a duration in nanoseconds to its bucket index.
#[inline]
pub fn bucket_index(ns: u64) -> usize {
    let v = ns.max(1 << MIN_EXP);
    let exp = 63 - v.leading_zeros();
    if exp > MAX_EXP {
        return BUCKETS - 1;
    }
    let sub = ((v >> (exp - SUB_BITS)) as usize) & (SUBS - 1);
    ((exp - MIN_EXP) as usize) * SUBS + sub
}

/// Exclusive upper edge of bucket `idx` in nanoseconds, or `None` for the
/// overflow bucket (rendered as `+Inf`).
pub fn bucket_upper_ns(idx: usize) -> Option<u64> {
    if idx >= BUCKETS - 1 {
        return None;
    }
    let exp = MIN_EXP + (idx / SUBS) as u32;
    let sub = (idx % SUBS) as u64;
    Some((SUBS as u64 + sub + 1) << (exp - SUB_BITS))
}

#[repr(align(128))]
struct Stripe {
    buckets: [AtomicU64; BUCKETS],
    sum_ns: AtomicU64,
}

impl Stripe {
    fn new() -> Stripe {
        Stripe {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum_ns: AtomicU64::new(0),
        }
    }
}

static NEXT_STRIPE: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static MY_STRIPE: usize = NEXT_STRIPE.fetch_add(1, Ordering::Relaxed) & (STRIPES - 1);
}

/// A concurrent log-linear histogram of durations in nanoseconds.
pub struct Histogram {
    stripes: Vec<Stripe>,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram {
            stripes: (0..STRIPES).map(|_| Stripe::new()).collect(),
        }
    }

    /// An empty histogram with one stripe, for a series one thread writes:
    /// nothing contends for its cache lines, and a scrape merges one stripe
    /// instead of [`STRIPES`]. Other threads may still record into it.
    pub fn single_writer() -> Histogram {
        Histogram {
            stripes: vec![Stripe::new()],
        }
    }

    /// Record one duration. Lock-free: two relaxed atomic adds on this
    /// thread's stripe.
    #[inline]
    pub fn record_ns(&self, ns: u64) {
        // The stripe count is 1 or `STRIPES`, both powers of two.
        let s = MY_STRIPE.with(|s| *s) & (self.stripes.len() - 1);
        let stripe = &self.stripes[s];
        stripe.buckets[bucket_index(ns)].fetch_add(1, Ordering::Relaxed);
        stripe.sum_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Record a `std::time::Duration`.
    #[inline]
    pub fn record(&self, d: std::time::Duration) {
        self.record_ns(d.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Merge all stripes into a point-in-time snapshot.
    pub fn snapshot(&self) -> HistSnapshot {
        let mut buckets = [0u64; BUCKETS];
        let mut sum_ns = 0u64;
        for stripe in &self.stripes {
            for (i, b) in stripe.buckets.iter().enumerate() {
                buckets[i] += b.load(Ordering::Relaxed);
            }
            sum_ns = sum_ns.wrapping_add(stripe.sum_ns.load(Ordering::Relaxed));
        }
        let count = buckets.iter().sum();
        HistSnapshot {
            buckets,
            sum_ns,
            count,
        }
    }
}

/// A merged, immutable view of a [`Histogram`].
#[derive(Clone)]
pub struct HistSnapshot {
    /// Per-bucket (non-cumulative) counts.
    pub buckets: [u64; BUCKETS],
    /// Sum of all recorded durations, in nanoseconds.
    pub sum_ns: u64,
    /// Total number of recorded durations.
    pub count: u64,
}

impl HistSnapshot {
    /// The `q`-quantile (0.0 ..= 1.0) as the upper edge of the bucket the
    /// quantile falls in — a conservative estimate whose error is bounded
    /// by the bucket width. Returns `None` for an empty histogram.
    pub fn quantile_ns(&self, q: f64) -> Option<u64> {
        self.quantiles_ns([q])[0]
    }

    /// [`HistSnapshot::quantile_ns`] of each of `qs`, given in ascending
    /// order, in one walk over the buckets.
    pub fn quantiles_ns<const N: usize>(&self, qs: [f64; N]) -> [Option<u64>; N] {
        let mut out = [None; N];
        if self.count == 0 {
            return out;
        }
        let rank = |q: f64| ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let (mut next, mut seen) = (0, 0u64);
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b;
            while next < N && seen >= rank(qs[next]) {
                out[next] = Some(bucket_upper_ns(i).unwrap_or(1 << (MAX_EXP + 1)));
                next += 1;
            }
            if next == N {
                break;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_monotone_and_total() {
        let mut last = 0usize;
        for exp in 0..63u32 {
            for off in [0u64, 1, 3] {
                let v = (1u64 << exp) + off;
                let idx = bucket_index(v);
                assert!(idx < BUCKETS);
                assert!(idx >= last, "bucket index must not decrease: {v}");
                last = idx;
            }
        }
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
        assert_eq!(bucket_index(0), 0);
    }

    #[test]
    fn bucket_edges_are_strictly_increasing() {
        let mut prev = 0u64;
        for i in 0..BUCKETS - 1 {
            let up = bucket_upper_ns(i).unwrap();
            assert!(up > prev, "edge {i} not increasing");
            prev = up;
        }
        assert!(bucket_upper_ns(BUCKETS - 1).is_none());
    }

    #[test]
    fn values_land_below_their_upper_edge() {
        for v in [1u64, 255, 256, 257, 1000, 4096, 1 << 20, (1 << 36) - 1] {
            let idx = bucket_index(v);
            if let Some(up) = bucket_upper_ns(idx) {
                assert!(v.max(1 << MIN_EXP) < up, "value {v} at/above edge {up}");
            }
            if idx > 0 {
                let lower = bucket_upper_ns(idx - 1).unwrap();
                assert!(
                    v.max(1 << MIN_EXP) >= lower,
                    "value {v} below lower {lower}"
                );
            }
        }
    }

    #[test]
    fn record_and_quantile_roundtrip() {
        let h = Histogram::new();
        for _ in 0..90 {
            h.record_ns(1_000); // 1 µs
        }
        for _ in 0..10 {
            h.record_ns(1_000_000); // 1 ms
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 100);
        assert_eq!(snap.sum_ns, 90 * 1_000 + 10 * 1_000_000);
        let p50 = snap.quantile_ns(0.50).unwrap();
        assert!((1_000..=1_280).contains(&p50), "p50 = {p50}");
        let p99 = snap.quantile_ns(0.99).unwrap();
        assert!((1_000_000..=1_310_720).contains(&p99), "p99 = {p99}");
        let p90 = snap.quantile_ns(0.90).unwrap();
        assert_eq!(
            snap.quantiles_ns([0.50, 0.90, 0.95, 0.99]),
            [Some(p50), Some(p90), snap.quantile_ns(0.95), Some(p99)]
        );
    }

    /// One stripe loses nothing, whichever threads record into it.
    #[test]
    fn a_single_writer_histogram_counts_every_thread() {
        let h = Histogram::single_writer();
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let h = &h;
                s.spawn(move || (0..1000).for_each(|_| h.record_ns(1_000 * (t + 1))));
            }
        });
        let snap = h.snapshot();
        assert_eq!(snap.count, 4000);
        assert_eq!(snap.sum_ns, 1000 * (1_000 + 2_000 + 3_000 + 4_000));
    }

    #[test]
    fn empty_histogram_has_no_quantiles() {
        assert!(Histogram::new().snapshot().quantile_ns(0.99).is_none());
    }
}
