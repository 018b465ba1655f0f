//! Hot-swappable compiled pattern sets.
//!
//! Re-mining runs for seconds; matching must never wait on it. The
//! [`PatternBoard`] maps each service to an `Arc` of its compiled
//! [`PatternSet`]: readers clone the `Arc` under a read lock held for
//! nanoseconds, the miner builds the new set *outside* any lock and swaps
//! the pointer in under the write lock. A reader that loaded the old `Arc`
//! keeps matching against a consistent set until its next load — exactly
//! the semantics of syslog-ng reloading a pattern database file, minus the
//! reload pause.
//!
//! The board is the only registry of published sets: the miner plans a job
//! against the set it loads from here and publishes the grown set back.
//! Nothing else serializes two jobs on one service — a service hashes to
//! one shard, and a shard runs at most one mining job at a time (see
//! [`crate::miner`]). A [`PatternSet`] is a copy-on-write handle, so the
//! miner's clone of a published set shares its allocation until the first
//! insert copies the index once, leaving the published allocation, and any
//! reader still holding it, untouched.

use sequence_core::PatternSet;
use std::collections::HashMap;
use std::sync::{Arc, RwLock};

/// The per-service registry of published pattern sets, shared between the
/// shard workers and the control plane (readers) and the miner (writer).
#[derive(Debug, Default)]
pub struct PatternBoard {
    services: RwLock<HashMap<String, Arc<PatternSet>>>,
}

impl PatternBoard {
    /// An empty board.
    pub fn new() -> PatternBoard {
        PatternBoard::default()
    }

    /// Seed the board from pre-existing per-service sets (store reload at
    /// daemon start).
    pub fn seed(&self, sets: HashMap<String, PatternSet>) {
        let mut map = self.services.write().expect("board lock");
        for (service, set) in sets {
            map.insert(service, Arc::new(set));
        }
    }

    /// The current set for `service`, if any pattern was ever published.
    pub fn load(&self, service: &str) -> Option<Arc<PatternSet>> {
        self.services
            .read()
            .expect("board lock")
            .get(service)
            .cloned()
    }

    /// Publish a new compiled set for `service`, creating its entry on first
    /// publication. Returns the number of patterns published.
    pub fn publish(&self, service: &str, set: PatternSet) -> usize {
        let n = set.len();
        let mut set = Arc::new(set);
        {
            let mut map = self.services.write().expect("board lock");
            match map.get_mut(service) {
                Some(slot) => std::mem::swap(slot, &mut set),
                None => {
                    map.insert(service.to_string(), set);
                    return n;
                }
            }
        }
        // `set` now holds the replaced set; it is dropped here, outside the
        // lock.
        n
    }

    /// Services with a published set, sorted.
    pub fn services(&self) -> Vec<String> {
        let mut out: Vec<String> = self
            .services
            .read()
            .expect("board lock")
            .keys()
            .cloned()
            .collect();
        out.sort();
        out
    }

    /// Total published patterns across services.
    pub fn total_patterns(&self) -> usize {
        self.sum_over_sets(PatternSet::len)
    }

    /// Approximate heap bytes of the published sets, entries and matcher
    /// index together (the `seqd_pattern_index_bytes` gauge).
    pub fn index_bytes(&self) -> usize {
        self.sum_over_sets(PatternSet::heap_bytes)
    }

    fn sum_over_sets(&self, measure: fn(&PatternSet) -> usize) -> usize {
        self.services
            .read()
            .expect("board lock")
            .values()
            .map(|set| measure(set))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sequence_core::{Pattern, Scanner};

    fn one_pattern(text: &str) -> PatternSet {
        let mut set = PatternSet::new();
        set.insert("p1", Pattern::parse(text).unwrap());
        set
    }

    #[test]
    fn publish_then_load_round_trips() {
        let board = PatternBoard::new();
        assert!(board.load("sshd").is_none());
        board.publish("sshd", one_pattern("Accepted password for %user:string%"));
        let set = board.load("sshd").unwrap();
        let msg = Scanner::new().scan("Accepted password for root");
        assert!(set.match_message(&msg).is_some());
        assert_eq!(board.services(), vec!["sshd".to_string()]);
        assert_eq!(board.total_patterns(), 1);
        assert_eq!(board.index_bytes(), set.heap_bytes());
    }

    #[test]
    fn old_readers_keep_a_consistent_set_across_a_swap() {
        let board = PatternBoard::new();
        board.publish("svc", one_pattern("alpha %x:integer%"));
        let old = board.load("svc").unwrap();
        board.publish("svc", one_pattern("beta %x:integer%"));
        // The pre-swap Arc still matches the old world…
        let scanner = Scanner::new();
        assert!(old.match_message(&scanner.scan("alpha 1")).is_some());
        assert!(old.match_message(&scanner.scan("beta 1")).is_none());
        // …while a fresh load sees the new one.
        let new = board.load("svc").unwrap();
        assert!(new.match_message(&scanner.scan("beta 1")).is_some());
    }

    /// The copy-on-write rule from the publisher's side: publishing shares
    /// the publisher's allocation, and its next insert neither disturbs a
    /// reader of the published set nor shows up before the next publish.
    #[test]
    fn publishing_shares_until_the_publisher_inserts() {
        let board = PatternBoard::new();
        let mut mine = one_pattern("alpha %x:integer%");
        board.publish("svc", mine.clone());
        let reader = board.load("svc").unwrap();
        assert!(reader.ptr_eq(&mine), "publish copied the set");
        mine.insert("p2", Pattern::parse("beta %x:integer%").unwrap());
        assert!(!reader.ptr_eq(&mine));
        let beta = Scanner::new().scan("beta 1");
        assert!(reader.match_message(&beta).is_none());
        assert!(board.load("svc").unwrap().match_message(&beta).is_none());
        board.publish("svc", mine.clone());
        assert!(reader.match_message(&beta).is_none(), "old Arc is frozen");
        assert!(board.load("svc").unwrap().match_message(&beta).is_some());
    }

    #[test]
    fn seed_installs_initial_sets() {
        let board = PatternBoard::new();
        let mut sets = HashMap::new();
        sets.insert("a".to_string(), one_pattern("x %n:integer%"));
        sets.insert("b".to_string(), PatternSet::new());
        board.seed(sets);
        assert_eq!(board.services(), vec!["a".to_string(), "b".to_string()]);
        assert_eq!(board.total_patterns(), 1);
    }

    #[test]
    fn concurrent_swap_and_load_do_not_block_each_other() {
        let board = Arc::new(PatternBoard::new());
        board.publish("svc", one_pattern("event %n:integer%"));
        let writer = {
            let board = Arc::clone(&board);
            std::thread::spawn(move || {
                for i in 0..200 {
                    board.publish("svc", one_pattern(&format!("event-{i} %n:integer%")));
                }
            })
        };
        // Interleave loads with the swaps; every observed set is complete.
        while !writer.is_finished() {
            let set = board.load("svc").unwrap();
            assert_eq!(set.len(), 1);
        }
        writer.join().unwrap();
        // After the last swap the final published set is visible.
        let set = board.load("svc").unwrap();
        let msg = Scanner::new().scan("event-199 7");
        assert!(set.match_message(&msg).is_some());
    }
}
