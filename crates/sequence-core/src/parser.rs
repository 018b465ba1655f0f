//! The Sequence parser: matching new messages against known patterns.
//!
//! "Sequence has its own parser to match new messages against existing known
//! patterns. It follows a similar process as while learning the messages, by
//! first tokenising the messages, but instead of discovering patterns, it
//! attempts to match new messages to a known pattern." (paper §III)
//!
//! [`PatternSet`] compiles every inserted pattern into a discrimination trie
//! (see [`crate::matcher`]), so a lookup walks the message's tokens once
//! instead of scanning every same-length candidate. When several patterns
//! match, the one with the most literal elements wins — the most *specific*
//! pattern, which mirrors how syslog-ng's pattern database resolves
//! multi-matches during review ("the most correct pattern would be
//! promoted"); exact-length matches beat ignore-rest matches of equal
//! specificity, and insertion order breaks remaining ties. The winning
//! entry's id is cloned exactly once, and captures are materialised only for
//! the winner.
//!
//! A set does not keep the [`Pattern`]s it is given. An entry is an integer:
//! offsets into one array of ids and one of [`Packed`] elements (eight bytes
//! each, text named by interner symbol), so an insert allocates nothing per
//! pattern and [`PatternSet::iter`] rebuilds the patterns, field for field.

use crate::matcher::{Interner, MatchScratch, MatcherTrie, Packed, ReserveTight};
use crate::pattern::{Captures, Pattern};
use crate::token::TokenizedMessage;
use std::mem::size_of;
use std::sync::Arc;

/// Where an entry starts in [`Inner::ids`] and [`Inner::elements`]; it ends
/// where the next one starts. An entry's number is its insertion order.
#[derive(Debug, Clone, Copy)]
struct Entry {
    id: u32,
    elements: u32,
    /// Number of literal elements: the entry's specificity.
    literals: u32,
}

/// An indexed set of patterns for one stream of messages.
///
/// A set is a copy-on-write handle: [`Clone`] is a reference-count bump, and
/// [`PatternSet::insert`] copies the set first only while another handle
/// shares it — flat arrays and interner refcounts, no text. A holder that
/// publishes a clone after every change (the `seqd` miner) therefore shares
/// one allocation with its readers.
#[derive(Debug, Clone, Default)]
pub struct PatternSet {
    inner: Arc<Inner>,
}

#[derive(Debug, Clone, Default)]
struct Inner {
    /// All patterns, in insertion order (the order is the final tie-break
    /// during specificity resolution).
    entries: Vec<Entry>,
    /// The callers' ids (e.g. the pattern database's SHA1 ids), end to end.
    ids: String,
    elements: Vec<Packed>,
    /// Variable names, by the symbols [`Packed::Variable`] holds.
    names: Interner,
    /// The compiled matcher index over `entries`; owns the literal interner.
    trie: MatcherTrie,
}

impl Inner {
    fn id(&self, idx: usize) -> &str {
        let next = self.entries.get(idx + 1);
        let end = next.map_or(self.ids.len(), |e| e.id as usize);
        &self.ids[self.entries[idx].id as usize..end]
    }

    fn elements(&self, idx: usize) -> &[Packed] {
        let next = self.entries.get(idx + 1);
        let end = next.map_or(self.elements.len(), |e| e.elements as usize);
        &self.elements[self.entries[idx].elements as usize..end]
    }

    /// The pattern entry `idx` was inserted as.
    fn pattern(&self, idx: usize) -> Pattern {
        let unpack = |el: &Packed| el.unpack(&self.trie.literals, &self.names);
        Pattern::new(self.elements(idx).iter().map(unpack).collect())
            .expect("packed from a valid pattern")
    }

    /// Build the owned outcome for a trie-confirmed candidate: the single
    /// point where an id is cloned and captures are materialised. The walk
    /// has already checked every element against its token, so this only
    /// collects — the same pairs [`Pattern::match_tokens`] would return.
    fn outcome(&self, idx: usize, msg: &TokenizedMessage) -> ParseOutcome {
        let elements = self.elements(idx);
        let mut values = Vec::with_capacity(elements.len() - self.entries[idx].literals as usize);
        for (el, tok) in elements.iter().zip(&msg.tokens) {
            if let Packed::Variable(name, ..) = *el {
                values.push((self.names.text(name).to_string(), tok.text.to_string()));
            }
        }
        ParseOutcome {
            pattern_id: self.id(idx).to_string(),
            captures: Captures { values },
        }
    }
}

/// A successful parse.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseOutcome {
    /// The id the pattern was inserted under.
    pub pattern_id: String,
    /// Variable captures.
    pub captures: Captures,
}

impl PatternSet {
    /// An empty set.
    pub fn new() -> PatternSet {
        PatternSet::default()
    }

    /// Number of patterns in the set.
    pub fn len(&self) -> usize {
        self.inner.entries.len()
    }

    /// `true` when no patterns are present.
    pub fn is_empty(&self) -> bool {
        self.inner.entries.is_empty()
    }

    /// Number of nodes in the compiled matcher trie (diagnostics).
    pub fn index_node_count(&self) -> usize {
        self.inner.trie.node_count()
    }

    /// Approximate heap bytes held by the set — entries plus index — in
    /// O(1). Handles sharing one allocation each report all of it.
    pub fn heap_bytes(&self) -> usize {
        let inner = &*self.inner;
        size_of::<Inner>()
            + inner.entries.capacity() * size_of::<Entry>()
            + inner.ids.capacity()
            + inner.elements.capacity() * size_of::<Packed>()
            + inner.names.heap_bytes()
            + inner.trie.heap_bytes()
    }

    /// Whether both handles share one allocation (no copy has happened
    /// since one was cloned from the other).
    pub fn ptr_eq(&self, other: &PatternSet) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }

    /// Insert a pattern under an id, compiling it into the matcher index.
    /// Duplicate ids are allowed (the caller — normally the pattern
    /// database — is responsible for dedup).
    pub fn insert(&mut self, id: impl Into<String>, given: Pattern) {
        let inner = Arc::make_mut(&mut self.inner);
        let offset = |len: usize| u32::try_from(len).expect("a pattern set stays under 4 GiB");
        inner.entries.reserve_tight(1);
        inner.entries.push(Entry {
            id: offset(inner.ids.len()),
            elements: offset(inner.elements.len()),
            literals: given.literal_count() as u32,
        });
        let id = id.into();
        inner.ids.reserve_tight(id.len());
        inner.ids.push_str(&id);
        let first = inner.elements.len();
        inner.elements.reserve_tight(given.elements().len());
        for el in given.elements() {
            let packed = Packed::pack(el, &mut inner.trie.literals, &mut inner.names);
            inner.elements.push(packed);
        }
        inner.trie.insert(&inner.elements[first..]);
    }

    /// Match a tokenised message against the set. Returns the most specific
    /// match (most literal elements; exact-length matches beat ignore-rest
    /// matches of equal specificity).
    pub fn match_message(&self, msg: &TokenizedMessage) -> Option<ParseOutcome> {
        self.match_message_with(msg, &mut MatchScratch::default())
    }

    /// [`PatternSet::match_message`] with a caller-owned [`MatchScratch`],
    /// so tight loops over a stream reuse the trie-walk buffers instead of
    /// allocating per message.
    pub fn match_message_with(
        &self,
        msg: &TokenizedMessage,
        scratch: &mut MatchScratch,
    ) -> Option<ParseOutcome> {
        let idx = self.best(msg, scratch)?;
        Some(self.inner.outcome(idx, msg))
    }

    /// The id of the pattern [`PatternSet::match_message_with`] would
    /// return, without materialising captures or cloning the id — for
    /// callers that only count matches.
    pub fn match_id_with(
        &self,
        msg: &TokenizedMessage,
        scratch: &mut MatchScratch,
    ) -> Option<&str> {
        self.best(msg, scratch).map(|idx| self.inner.id(idx))
    }

    /// The most specific entry the trie walk finds for `msg`.
    fn best(&self, msg: &TokenizedMessage, scratch: &mut MatchScratch) -> Option<usize> {
        // Sampled 1-in-16: this path runs at >1M msgs/s, so a full span per
        // call would dominate the work it measures.
        let _s = obs::sampled_span!("core.match", 4);
        let entries = &self.inner.entries;
        let mut best: Option<(u32, bool, u32)> = None;
        self.inner.trie.walk(&msg.tokens, scratch, |idx, exact| {
            let literals = entries[idx as usize].literals;
            let better = match best {
                None => true,
                Some((bl, bex, bidx)) => {
                    (literals, exact) > (bl, bex) || ((literals, exact) == (bl, bex) && idx < bidx)
                }
            };
            if better {
                best = Some((literals, exact, idx));
            }
        });
        best.map(|(_, _, idx)| idx as usize)
    }

    /// All patterns the message matches, not just the most specific one —
    /// the check syslog-ng's pattern database performs on its test cases
    /// ("all the example messages match their pattern, and no other in the
    /// whole pattern database"). Ordered most specific first.
    pub fn match_all(&self, msg: &TokenizedMessage) -> Vec<ParseOutcome> {
        let inner = &*self.inner;
        let mut hits: Vec<usize> = Vec::new();
        inner
            .trie
            .walk(&msg.tokens, &mut MatchScratch::default(), |idx, _| {
                hits.push(idx as usize)
            });
        // Most literals first, then id; equal (literals, id) keep exact
        // entries before ignore-rest ones and insertion order within each —
        // the order the reference linear scan produces.
        let ignore_rest = |idx| matches!(inner.elements(idx).last(), Some(Packed::IgnoreRest));
        hits.sort_by(|&a, &b| {
            (inner.entries[b].literals.cmp(&inner.entries[a].literals))
                .then_with(|| inner.id(a).cmp(inner.id(b)))
                .then_with(|| ignore_rest(a).cmp(&ignore_rest(b)))
                .then_with(|| a.cmp(&b))
        });
        hits.into_iter()
            .map(|idx| inner.outcome(idx, msg))
            .collect()
    }

    /// Reference linear matcher, semantically identical to
    /// [`PatternSet::match_message`]: rebuild every entry's pattern and scan
    /// them in insertion order, keeping the strictly-better match at each
    /// step. Kept for the `matcher_equivalence` property test and as
    /// executable documentation of the specificity rules; the trie walk must
    /// return bit-for-bit the same outcome.
    pub fn match_message_linear(&self, msg: &TokenizedMessage) -> Option<ParseOutcome> {
        let mut best: Option<(usize, bool, usize, Captures)> = None;
        for idx in 0..self.len() {
            let pattern = self.inner.pattern(idx);
            let Some(captures) = pattern.match_tokens(&msg.tokens) else {
                continue;
            };
            let rank = (pattern.literal_count(), !pattern.has_ignore_rest());
            if best.as_ref().is_none_or(|(bl, bex, ..)| rank > (*bl, *bex)) {
                best = Some((rank.0, rank.1, idx, captures));
            }
        }
        best.map(|(_, _, idx, captures)| ParseOutcome {
            pattern_id: self.inner.id(idx).to_string(),
            captures,
        })
    }

    /// Iterate over `(id, pattern)` pairs — each pattern rebuilt, equal to
    /// the one inserted — ordered by fixed token count and then insertion
    /// order: a deterministic order, so exports and golden snapshots are
    /// stable across runs.
    pub fn iter(&self) -> impl Iterator<Item = (&str, Pattern)> {
        let pair = |idx| (self.inner.id(idx), self.inner.pattern(idx));
        let mut pairs: Vec<(&str, Pattern)> = (0..self.len()).map(pair).collect();
        pairs.sort_by_key(|(_, pattern)| pattern.fixed_token_count()); // stable
        pairs.into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scanner::Scanner;

    fn set(patterns: &[(&str, &str)]) -> PatternSet {
        let mut s = PatternSet::new();
        for (id, p) in patterns {
            s.insert(*id, Pattern::parse(p).unwrap());
        }
        s
    }

    fn scan(m: &str) -> TokenizedMessage {
        Scanner::new().scan(m)
    }

    #[test]
    fn empty_set_matches_nothing() {
        let s = PatternSet::new();
        assert!(s.is_empty());
        assert!(s.match_message(&scan("anything")).is_none());
    }

    #[test]
    fn basic_match_with_captures() {
        let s = set(&[("p1", "%action% from %srcip:ipv4% port %srcport:integer%")]);
        let out = s
            .match_message(&scan("accepted from 10.0.0.1 port 22"))
            .unwrap();
        assert_eq!(out.pattern_id, "p1");
        assert_eq!(out.captures.get("srcip"), Some("10.0.0.1"));
    }

    #[test]
    fn length_index_prevents_cross_length_match() {
        let s = set(&[("p1", "a %x% c")]);
        assert!(s.match_message(&scan("a b c d")).is_none());
        assert!(s.match_message(&scan("a b")).is_none());
        assert!(s.match_message(&scan("a b c")).is_some());
    }

    #[test]
    fn most_specific_pattern_wins() {
        let s = set(&[
            ("generic", "%a% %b% %c%"),
            ("specific", "session %b% closed"),
        ]);
        let out = s.match_message(&scan("session xyz closed")).unwrap();
        assert_eq!(out.pattern_id, "specific");
    }

    #[test]
    fn exact_length_beats_ignore_rest_at_equal_specificity() {
        let s = set(&[
            ("ir", "session %b% closed %...%"),
            ("exact", "session %b% closed"),
        ]);
        let out = s.match_message(&scan("session xyz closed")).unwrap();
        assert_eq!(out.pattern_id, "exact");
    }

    #[test]
    fn ignore_rest_matches_longer_messages() {
        let s = set(&[("ir", "panic : %...%")]);
        assert!(s
            .match_message(&scan("panic: something terrible happened here"))
            .is_some());
        assert!(s.match_message(&scan("panic:")).is_some());
        assert!(s.match_message(&scan("panic")).is_none());
    }

    #[test]
    fn insertion_order_breaks_exact_ties() {
        // Structurally identical patterns under different ids: the first
        // inserted must win, exactly like the reference linear scan.
        let s = set(&[("first", "job %a% done"), ("second", "job %b% done")]);
        let msg = scan("job nightly done");
        let out = s.match_message(&msg).unwrap();
        assert_eq!(out.pattern_id, "first");
        assert_eq!(out.captures.get("a"), Some("nightly"));
        assert_eq!(s.match_message_linear(&msg).unwrap(), out);
    }

    #[test]
    fn trie_and_linear_agree_on_handpicked_cases() {
        let s = set(&[
            ("g", "%a% %b% %c%"),
            ("s", "session %b% closed"),
            ("ir", "session %b% %...%"),
            ("ir2", "%...%"),
            ("kv", "pid = %p:integer%"),
        ]);
        for m in [
            "session xyz closed",
            "session xyz opened wide",
            "pid = 123",
            "pid = abc",
            "one two three",
            "completely different and longer than the rest",
            "",
        ] {
            let msg = scan(m);
            assert_eq!(
                s.match_message(&msg),
                s.match_message_linear(&msg),
                "mismatch on {m:?}"
            );
        }
    }

    #[test]
    fn iter_yields_all_in_deterministic_order() {
        let s = set(&[
            ("long", "a b c d %v%"),
            ("b", "y %v% %...%"),
            ("a", "x %v%"),
            ("a2", "z %w%"),
        ]);
        let ids: Vec<&str> = s.iter().map(|(id, _)| id).collect();
        // Sorted by fixed token count, then insertion order ("b", "a" and
        // "a2" all have two fixed tokens; "b" was inserted first).
        assert_eq!(ids, vec!["b", "a", "a2", "long"]);
        assert_eq!(s.len(), 4);
    }

    #[test]
    fn type_mismatch_rejected_by_all_candidates() {
        let s = set(&[("p", "count %n:integer% items")]);
        assert!(s.match_message(&scan("count 12 items")).is_some());
        assert!(s.match_message(&scan("count twelve items")).is_none());
    }

    #[test]
    fn scratch_reuse_is_equivalent() {
        let s = set(&[("p", "%a% from %b:ipv4%"), ("q", "beat %...%")]);
        let mut scratch = MatchScratch::default();
        for m in ["x from 1.2.3.4", "beat it", "no match here at all"] {
            let msg = scan(m);
            assert_eq!(
                s.match_message_with(&msg, &mut scratch),
                s.match_message(&msg)
            );
        }
    }

    #[test]
    fn match_all_orders_most_specific_first() {
        let s = set(&[
            ("generic", "%a% %b% %c%"),
            ("specific", "session %b% closed"),
            ("ir", "session %b% %...%"),
        ]);
        let outs = s.match_all(&scan("session xyz closed"));
        let ids: Vec<&str> = outs.iter().map(|o| o.pattern_id.as_str()).collect();
        assert_eq!(ids, vec!["specific", "ir", "generic"]);
    }
}
