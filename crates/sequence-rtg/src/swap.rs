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
//! The board is the only registry of published sets, for the CLI's
//! [`crate::SequenceRtg`] and for `seqd` alike: a batch plans against the
//! sets it loads from here and [`crate::batch::publish`] grows them back.
//! Nothing else serializes two batches on one service: the CLI mines one
//! batch at a time, and in `seqd` a service hashes to one shard, and a
//! shard runs at most one mining job at a time. A [`PatternSet`] is a
//! copy-on-write handle, so a clone of a published set shares its
//! allocation until the first insert copies the index once, leaving the
//! published allocation, and any reader still holding it, untouched.

use crate::service::unloaded_notice;
use patterndb::{PatternStore, StoreError};
use sequence_core::{Pattern, PatternSet};
use std::collections::HashMap;
use std::sync::{Arc, RwLock};

/// The per-service registry of published pattern sets: arrival matching
/// and the control plane read it, the publish step writes it.
#[derive(Debug, Default)]
pub struct PatternBoard {
    services: RwLock<HashMap<String, Arc<PatternSet>>>,
}

impl PatternBoard {
    /// An empty board.
    pub fn new() -> PatternBoard {
        PatternBoard::default()
    }

    /// Replace every published set with `sets`: a service missing from
    /// `sets` is left with none.
    pub fn seed(&self, sets: HashMap<String, PatternSet>) {
        let sets = sets.into_iter().map(|(s, set)| (s, Arc::new(set)));
        *self.services.write().expect("board lock") = sets.collect();
    }

    /// Publish every pattern `store` holds, in place of what was published.
    /// Returns [`unloaded_notice`] for the stored patterns that did not
    /// parse and were left out, for the caller to tell the operator.
    pub fn reload(&self, store: &mut PatternStore) -> Result<Option<String>, StoreError> {
        let (sets, skipped) = store.load_pattern_sets()?;
        self.seed(sets);
        Ok(unloaded_notice(&skipped))
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

    /// Publish `service`'s set grown by `inserted`. Only the service's one
    /// writer calls this, so the set it grows is the one it planned
    /// against.
    pub fn grow(&self, service: &str, inserted: impl IntoIterator<Item = (String, Pattern)>) {
        let mut set = self
            .load(service)
            .map_or_else(PatternSet::new, |s| (*s).clone());
        for (id, pattern) in inserted {
            set.insert(id, pattern);
        }
        self.publish(service, set);
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

    /// Services with a published set, counted under the read lock (no
    /// copy of their names).
    pub fn service_count(&self) -> usize {
        self.services.read().expect("board lock").len()
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
        assert_eq!(board.service_count(), 1);
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
        // A later seed replaces the board: a pruned-away service goes.
        board.seed(HashMap::from([("b".to_string(), PatternSet::new())]));
        assert_eq!(board.services(), vec!["b".to_string()]);
    }

    #[test]
    fn reload_keeps_the_notice_for_stored_patterns_it_could_not_load() {
        let board = PatternBoard::new();
        assert_eq!(board.reload(&mut PatternStore::in_memory()).unwrap(), None);
        let mut store = PatternStore::in_memory();
        for (id, text) in [("bad1", "load at 95% of %max:integer%"), ("ok1", "up %n%")] {
            let row = [id.into(), "svc".into(), text.into()];
            let sql = "INSERT INTO patterns (id, service, pattern) VALUES (?, ?, ?)";
            store.db().execute_with(sql, &row).unwrap();
        }
        let line = board.reload(&mut store).unwrap();
        let line = line.expect("one pattern was skipped");
        assert_eq!(
            board.load("svc").unwrap().len(),
            1,
            "the good pattern is served"
        );
        assert!(line.starts_with("1 stored patterns do not parse"), "{line}");
        assert!(line.contains("first: bad1: "), "{line}");
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
