//! The bounded shard queue: backpressure that is observable and bounded.
//!
//! `std::sync::mpsc::sync_channel` blocks forever when full; the daemon
//! instead wants the paper's production posture — block briefly to absorb a
//! burst, then *reject* so the upstream collector can buffer or drop with
//! full knowledge, and so memory stays bounded no matter how stalled a shard
//! gets. A `Mutex<VecDeque>` + two condvars gives exactly that, plus a depth
//! gauge for `/metrics`.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

struct State<T> {
    /// Each item carries its enqueue instant, so the pop side can record
    /// queue-wait latency (the `seqd_queue_wait_seconds` histogram).
    items: VecDeque<(Instant, T)>,
    closed: bool,
}

/// A multi-producer bounded queue with a rejecting timed batch push.
pub struct BoundedQueue<T> {
    state: Mutex<State<T>>,
    capacity: usize,
    /// Signalled when an item is enqueued or the queue closes.
    not_empty: Condvar,
    /// Signalled when an item is dequeued or the queue closes.
    not_full: Condvar,
    /// Queue-wait latency, recorded at pop when attached.
    wait_hist: Option<Arc<obs::Histogram>>,
}

impl<T> BoundedQueue<T> {
    /// A queue holding at most `capacity` items (clamped to ≥ 1).
    pub fn new(capacity: usize) -> BoundedQueue<T> {
        BoundedQueue {
            state: Mutex::new(State {
                items: VecDeque::with_capacity(capacity.max(1)),
                closed: false,
            }),
            capacity: capacity.max(1),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            wait_hist: None,
        }
    }

    /// Record each item's queue wait (push → pop) into `hist`.
    pub fn with_wait_histogram(mut self, hist: Arc<obs::Histogram>) -> BoundedQueue<T> {
        self.wait_hist = Some(hist);
        self
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Items currently queued.
    pub fn depth(&self) -> usize {
        self.state.lock().expect("queue lock").items.len()
    }

    /// Heap bytes the queue holds: its slot array plus `item_bytes` of
    /// every queued item. Walks the queue under its lock.
    pub fn heap_bytes(&self, item_bytes: impl Fn(&T) -> usize) -> usize {
        let st = self.state.lock().expect("queue lock");
        let slots = st.items.capacity() * std::mem::size_of::<(Instant, T)>();
        slots
            + st.items
                .iter()
                .map(|(_, item)| item_bytes(item))
                .sum::<usize>()
    }

    /// Enqueue a batch under one lock acquisition, blocking up to `timeout`
    /// total for space. Returns how many items from the *front* of `items`
    /// were accepted; the rest were rejected (queue full past the deadline,
    /// or closed) and dropped. One condvar wake covers the whole batch —
    /// this is the event-loop wire path's answer to per-item futex traffic.
    /// A `Vec`'s `drain(..)` passes its items while the caller keeps the
    /// vector's buffer for the next batch.
    pub fn push_batch<I>(&self, items: I, timeout: Duration) -> usize
    where
        I: IntoIterator<Item = T>,
        I::IntoIter: ExactSizeIterator,
    {
        let mut it = items.into_iter();
        let total = it.len();
        if total == 0 {
            return 0;
        }
        let deadline = Instant::now() + timeout;
        let mut accepted = 0usize;
        let mut st = self.state.lock().expect("queue lock");
        loop {
            if st.closed {
                break;
            }
            if st.items.len() < self.capacity {
                // One enqueue stamp per refill keeps the hot path at a
                // single clock read; queue-wait skew within a burst is
                // far below the histogram's bucket resolution.
                let pushed_at = Instant::now();
                while st.items.len() < self.capacity {
                    match it.next() {
                        Some(item) => {
                            st.items.push_back((pushed_at, item));
                            accepted += 1;
                        }
                        None => break,
                    }
                }
            }
            if accepted == total {
                break;
            }
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            let (guard, _res) = self
                .not_full
                .wait_timeout(st, deadline - now)
                .expect("queue lock");
            st = guard;
        }
        drop(st);
        if accepted > 0 {
            self.not_empty.notify_one();
        }
        accepted
    }

    /// Pop up to `max` queued items out of a locked state (which must be
    /// non-empty), recording queue-wait latency, and wake one blocked pusher.
    fn drain_locked(&self, mut st: std::sync::MutexGuard<'_, State<T>>, max: usize) -> Vec<T> {
        let n = st.items.len().min(max.max(1));
        let mut out = Vec::with_capacity(n);
        let popped_at = Instant::now();
        for _ in 0..n {
            let (pushed_at, item) = st.items.pop_front().expect("n <= len");
            if let Some(hist) = &self.wait_hist {
                hist.record(popped_at.saturating_duration_since(pushed_at));
            }
            out.push(item);
        }
        drop(st);
        self.not_full.notify_all();
        out
    }

    /// Dequeue up to `max` items under one lock acquisition, blocking up to
    /// `timeout` for the first item. `Ok(empty)` on timeout; `Err(())` once
    /// the queue is closed *and* drained.
    ///
    /// The unit error stays: the benchmark's queue layer matches it
    /// (`map_err(|()| ..)`), so a named error type would break that code.
    #[allow(clippy::result_unit_err)]
    pub fn pop_batch(&self, max: usize, timeout: Duration) -> Result<Vec<T>, ()> {
        let deadline = Instant::now() + timeout;
        let mut st = self.state.lock().expect("queue lock");
        loop {
            if !st.items.is_empty() {
                return Ok(self.drain_locked(st, max));
            }
            if st.closed {
                return Err(());
            }
            let now = Instant::now();
            if now >= deadline {
                return Ok(Vec::new());
            }
            let (guard, _res) = self
                .not_empty
                .wait_timeout(st, deadline - now)
                .expect("queue lock");
            st = guard;
        }
    }

    /// Dequeue up to `max` items, parking until something arrives — no
    /// periodic re-check tick. [`BoundedQueue::close`] notifies `not_empty`,
    /// so a drain wakes every blocked consumer immediately instead of
    /// costing up to one tick of idle latency per shard. `Err(())` once the
    /// queue is closed *and* drained (a unit error for the same reason as
    /// [`BoundedQueue::pop_batch`]).
    #[allow(clippy::result_unit_err)]
    pub fn pop_batch_blocking(&self, max: usize) -> Result<Vec<T>, ()> {
        let mut st = self.state.lock().expect("queue lock");
        loop {
            if !st.items.is_empty() {
                return Ok(self.drain_locked(st, max));
            }
            if st.closed {
                return Err(());
            }
            st = self.not_empty.wait(st).expect("queue lock");
        }
    }

    /// Close the queue: pushes accept nothing from here on; pops keep
    /// draining what is already queued.
    pub fn close(&self) {
        let mut st = self.state.lock().expect("queue lock");
        st.closed = true;
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }
}

impl<T> std::fmt::Debug for BoundedQueue<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BoundedQueue")
            .field("capacity", &self.capacity)
            .field("depth", &self.depth())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    const TICK: Duration = Duration::from_millis(10);

    #[test]
    fn fifo_order_preserved() {
        let q = BoundedQueue::new(8);
        for i in 0..5 {
            assert_eq!(q.push_batch(vec![i], TICK), 1);
        }
        assert_eq!(q.depth(), 5);
        for i in 0..5 {
            assert_eq!(q.pop_batch(1, TICK).unwrap(), vec![i]);
        }
        assert_eq!(q.pop_batch(1, TICK).unwrap(), Vec::<i32>::new());
    }

    #[test]
    fn full_queue_with_stalled_consumer_rejects_not_blocks() {
        // The acceptance scenario: a 1-slot queue, nobody consuming.
        let q: BoundedQueue<u32> = BoundedQueue::new(1);
        assert_eq!(q.push_batch(vec![1], TICK), 1);
        let start = Instant::now();
        assert_eq!(q.push_batch(vec![2], TICK), 0);
        assert!(start.elapsed() >= TICK, "must block for the timeout first");
        // Memory stays bounded: the rejected item was never enqueued.
        assert_eq!(q.depth(), 1);
    }

    #[test]
    fn close_fails_pushes_but_drains_pops() {
        let q = BoundedQueue::new(4);
        assert_eq!(q.push_batch(vec!["a", "b"], TICK), 2);
        q.close();
        assert_eq!(q.push_batch(vec!["c"], TICK), 0);
        assert_eq!(q.pop_batch(1, TICK).unwrap(), vec!["a"]);
        assert_eq!(q.pop_batch(1, TICK).unwrap(), vec!["b"]);
        assert_eq!(q.pop_batch(1, TICK), Err(()));
    }

    #[test]
    fn close_wakes_blocked_consumer() {
        let q: Arc<BoundedQueue<u32>> = Arc::new(BoundedQueue::new(1));
        let q2 = Arc::clone(&q);
        let t = std::thread::spawn(move || q2.pop_batch(1, Duration::from_secs(10)));
        std::thread::sleep(Duration::from_millis(20));
        q.close();
        assert_eq!(t.join().unwrap(), Err(()));
    }

    #[test]
    fn attached_histogram_records_queue_wait() {
        let hist = Arc::new(obs::Histogram::new());
        let q = BoundedQueue::new(4).with_wait_histogram(Arc::clone(&hist));
        q.push_batch(vec![1u32], TICK);
        std::thread::sleep(Duration::from_millis(5));
        q.push_batch(vec![2u32, 3], TICK);
        assert_eq!(q.pop_batch(8, TICK).unwrap().len(), 3);
        let snap = hist.snapshot();
        // One sample per item, each measured from its own push.
        assert_eq!(snap.count, 3);
        // The first item waited through the sleep; its wait dominates.
        assert!(snap.sum_ns >= 5_000_000, "sum = {}", snap.sum_ns);
    }

    #[test]
    fn push_batch_accepts_a_prefix_when_full() {
        let q = BoundedQueue::new(3);
        assert_eq!(q.push_batch(vec![1, 2, 3, 4, 5], TICK), 3);
        assert_eq!(q.depth(), 3);
        // FIFO: the accepted prefix is the front of the batch.
        assert_eq!(q.pop_batch(16, TICK).unwrap(), vec![1, 2, 3]);
        assert_eq!(q.push_batch(Vec::<u32>::new(), TICK), 0);
    }

    #[test]
    fn push_batch_rejects_everything_when_closed() {
        let q = BoundedQueue::new(8);
        q.close();
        assert_eq!(q.push_batch(vec![1, 2], TICK), 0);
    }

    #[test]
    fn pop_batch_caps_drains_and_signals_closure() {
        let q = BoundedQueue::new(8);
        assert_eq!(q.push_batch(0..6, TICK), 6);
        assert_eq!(q.pop_batch(4, TICK).unwrap(), vec![0, 1, 2, 3]);
        q.close();
        assert_eq!(q.pop_batch(4, TICK).unwrap(), vec![4, 5]);
        assert_eq!(q.pop_batch(4, TICK), Err(()));
    }

    #[test]
    fn push_batch_completes_when_consumer_catches_up() {
        let q = Arc::new(BoundedQueue::new(2));
        let q2 = Arc::clone(&q);
        let t = std::thread::spawn(move || {
            let mut got = Vec::new();
            while got.len() < 5 {
                got.extend(q2.pop_batch(8, Duration::from_millis(200)).unwrap());
            }
            got
        });
        assert_eq!(q.push_batch(0..5, Duration::from_secs(5)), 5);
        assert_eq!(t.join().unwrap(), vec![0, 1, 2, 3, 4]);
    }

    /// The drain-latency satellite: a consumer parked in the untimed pop is
    /// woken by `close()` itself, not by a periodic re-check tick.
    #[test]
    fn blocking_pop_wakes_promptly_on_close() {
        let q: Arc<BoundedQueue<u32>> = Arc::new(BoundedQueue::new(8));
        let q2 = Arc::clone(&q);
        let t = std::thread::spawn(move || {
            let first = q2.pop_batch_blocking(8);
            let second = q2.pop_batch_blocking(8);
            (first, second, Instant::now())
        });
        std::thread::sleep(Duration::from_millis(20));
        q.push_batch(vec![7], TICK);
        std::thread::sleep(Duration::from_millis(20));
        let closed_at = Instant::now();
        q.close();
        let (first, second, woke) = t.join().unwrap();
        assert_eq!(first.unwrap(), vec![7]);
        assert_eq!(second, Err(()));
        // The close-side wake must beat the old 50 ms POP_TICK by a mile.
        assert!(
            woke.saturating_duration_since(closed_at) < Duration::from_millis(40),
            "consumer waited {:?} past close",
            woke.saturating_duration_since(closed_at)
        );
    }

    #[test]
    fn zero_capacity_clamps_to_one() {
        let q = BoundedQueue::new(0);
        assert_eq!(q.capacity(), 1);
        assert_eq!(q.push_batch(vec![1, 2], TICK), 1);
    }

    #[test]
    fn heap_bytes_counts_slots_and_queued_items() {
        let q: BoundedQueue<String> = BoundedQueue::new(4);
        let slots = q.heap_bytes(String::capacity);
        assert!(slots >= 4 * std::mem::size_of::<(Instant, String)>());
        q.push_batch(vec!["a".repeat(100), "b".repeat(50)], TICK);
        assert_eq!(q.heap_bytes(String::capacity), slots + 150);
        q.pop_batch(1, TICK).unwrap();
        assert_eq!(q.heap_bytes(String::capacity), slots + 50);
    }
}
