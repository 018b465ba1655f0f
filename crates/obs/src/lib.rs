//! In-tree observability for the Sequence-RTG reproduction.
//!
//! The paper's pitch is production-readiness; this crate is the substrate
//! that lets the reproduction *prove* it: where does a millisecond go
//! between scan → match → analyse → flush → WAL fsync? It provides
//!
//! * [`hist::Histogram`] — log-linear (HDR-style) latency histograms with
//!   lock-free recording via per-thread stripes merged on scrape;
//! * [`span!`] — a scope timer that records into a named histogram on drop
//!   and offers itself to the slow-op ring;
//! * [`slow::SlowRing`] — a bounded buffer of the N *slowest* operations
//!   with their attributes (service, batch size, token count), dumped as
//!   JSON on `seqd`'s `/debug/slow`;
//! * [`registry`] — the process-global registry `seqd` and the library
//!   crates it runs record into, rendered in Prometheus text format on
//!   `/metrics` by the workspace's one text writer ([`write_header`],
//!   [`write_sample`]);
//! * [`promlint`] — a linter for the Prometheus text format, run by
//!   `ci.sh` against a live scrape so the metrics contract (self-describing
//!   series, monotone buckets ending in `+Inf`, `_sum`/`_count`
//!   consistency, no duplicates, stable name set) is enforced forever.
//!
//! The crate is std-only and depends on nothing, keeping the workspace
//! hermetic; it sits at the bottom of the dependency graph so every other
//! crate can instrument its hot paths.

pub mod hist;
pub mod promlint;
pub mod registry;
pub mod slow;
pub mod span;

pub use hist::{HistSnapshot, Histogram};
pub use registry::{registry, write_header, write_sample, MetricType, Registry};
pub use slow::{AttrValue, SlowOp, SlowRing};
pub use span::Span;

/// Time the current scope into the histogram derived from the span name:
/// `span!("seqd.flush")` records into `seqd_flush_seconds`. The histogram
/// handle is resolved once per call site and cached in a `OnceLock`, so
/// the steady-state cost is an `Instant` pair plus two relaxed atomic
/// adds. Returns the [`Span`]; bind it (`let _span = ...`) so it lives to
/// the end of the scope, and use [`Span::attr_u64`]/[`Span::attr_str`] to
/// attach slow-op attributes.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span!($name, "latency of this pipeline stage in seconds")
    };
    ($name:expr, $help:expr) => {{
        static HANDLE: ::std::sync::OnceLock<::std::sync::Arc<$crate::Histogram>> =
            ::std::sync::OnceLock::new();
        $crate::span::enter_cached($name, $help, &HANDLE)
    }};
}

/// Like [`span!`], but samples 1 in `2^rate_log2` calls — for paths so hot
/// that even two relaxed atomic adds per call would show up in the benches
/// (e.g. `sequence-core`'s per-message scan and trie match, which run at
/// over 1M ops/s). The unsampled cost is one thread-local increment and a
/// branch. Sampled histograms undercount `_count` by the sampling factor;
/// their quantiles remain representative. Returns `Option<Span>` — bind it
/// (`let _s = ...`) so the sampled span lives to the end of the scope.
#[macro_export]
macro_rules! sampled_span {
    ($name:expr, $rate_log2:expr) => {{
        ::std::thread_local! {
            static TICK: ::std::cell::Cell<u32> = const { ::std::cell::Cell::new(0) };
        }
        let fire = TICK.with(|t| {
            let v = t.get().wrapping_add(1);
            t.set(v);
            v & ((1u32 << $rate_log2) - 1) == 0
        });
        if fire {
            Some($crate::span!(
                $name,
                "latency of this pipeline stage in seconds (sampled)"
            ))
        } else {
            None
        }
    }};
}

/// Resolve (once per call site) a named histogram from the global
/// registry: `histogram!("seqd_queue_wait_seconds", "time spent queued")`.
/// Use this instead of [`span!`] when the measured interval does not match
/// a lexical scope (e.g. stamped on queue push, recorded on pop).
#[macro_export]
macro_rules! histogram {
    ($name:expr, $help:expr) => {{
        static HANDLE: ::std::sync::OnceLock<::std::sync::Arc<$crate::Histogram>> =
            ::std::sync::OnceLock::new();
        HANDLE.get_or_init(|| $crate::registry().histogram($name, $help))
    }};
}

#[cfg(test)]
mod tests {
    #[test]
    fn span_macro_registers_and_records() {
        {
            let mut s = crate::span!("obs.selftest");
            s.attr_u64("n", 1);
        }
        let snap = crate::registry()
            .snapshot("obs_selftest_seconds")
            .expect("span! must register its histogram");
        assert!(snap.count >= 1);
    }

    #[test]
    fn histogram_macro_returns_a_cached_handle() {
        let h = crate::histogram!("obs_selftest2_seconds", "test");
        h.record_ns(42_000);
        let snap = crate::registry().snapshot("obs_selftest2_seconds").unwrap();
        assert!(snap.count >= 1);
    }
}
