//! The compiled matcher index: a discrimination trie over pattern elements.
//!
//! [`crate::PatternSet`] compiles every inserted pattern into this trie so
//! that matching a message walks the trie once — O(token count × branching)
//! — instead of scanning every candidate pattern. This is the structure that
//! keeps `match_message` fast at production pattern counts (the paper's
//! Fig. 6/7 deployment filters the *entire* log stream through the pattern
//! database). It is also the largest resident structure of a daemon that has
//! mined for a while, so it is laid out flat: **a node is an integer**, and
//! a trie of N nodes is five tables, not a few allocations per node.
//!
//! * A per-set **literal [`Interner`]** maps each distinct literal element
//!   text to a *symbol* and back (the set stores patterns as [`Packed`]
//!   elements, text named by symbol); the [`TokenType`] indices are the first
//!   [`TOKEN_TYPE_COUNT`] edge symbols, so every edge is `(node, symbol) → child`.
//!   A literal element matches on text alone, whatever the token's scan-time
//!   type (`port 22` mined as two literals matches the integer token `22`);
//!   `%x:integer%` follows the `Integer` symbol, the free-text `%x%` the
//!   `Literal` symbol, and the analysis-time refinements
//!   `%x:email%`/`%x:host%` their symbols *guarded* by the text predicates
//!   the linear matcher applies ([`is_email`] / [`is_hostname`]).
//! * A node's **first edge is inline** in the node array; its further edges
//!   are in one set-wide **edge table** keyed `(node, symbol)`.
//! * A **terminal side table** keyed `(node, exact?)` names the entries whose
//!   pattern ends at a node: exact terminals (the pattern consumed the whole
//!   message) apart from ignore-rest ones (prefix consumed, rest discarded).
//!
//! A token may legally follow several edges at once (the integer token `22`
//! follows both a `22` literal edge and an `Integer` variable edge), so the
//! walk keeps a small frontier of live nodes rather than a single cursor.
//! The frontier never holds duplicates: the trie is a tree and each parent's
//! edges lead to distinct children.
//!
//! The walk only *finds* candidates; specificity resolution (most literal
//! elements wins, exact beats ignore-rest, earliest insertion breaks
//! remaining ties) stays in [`crate::PatternSet`], which guarantees
//! bit-for-bit the same outcome as the reference linear scan — see the
//! `matcher_equivalence` property test.

use crate::analyzer::{is_email, is_hostname};
use crate::pattern::PatternElement;
use crate::token::{Token, TokenType, TOKEN_TYPE_COUNT};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::mem::size_of;
use std::sync::Arc;

/// A multiply-xor hasher (the FxHash construction) for the index tables.
/// The walk probes the edge table once per live frontier node on every
/// token of every message — with the default SipHash that single operation
/// dominated the whole walk at small pattern counts. Hash-flooding
/// resistance is irrelevant here (keys come from the mined patterns, not
/// the message stream), so the cheap hash is the right trade.
#[derive(Default)]
struct FxHasher {
    hash: u64,
}

impl FxHasher {
    const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

    fn mix(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(Self::SEED);
    }
}

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.mix(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let mut tail = 0u64;
        for &b in chunks.remainder() {
            tail = (tail << 8) | b as u64;
        }
        self.mix(tail);
    }

    fn write_u32(&mut self, n: u32) {
        self.mix(n as u64);
    }

    fn write_u8(&mut self, n: u8) {
        self.mix(n as u64);
    }

    fn finish(&self) -> u64 {
        self.hash
    }
}

type FxMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// Approximate heap bytes behind a hash table of this capacity: one
/// `(K, V)` slot plus one control byte per bucket at the table's 7/8
/// maximum load.
fn table_bytes<K, V>(map: &FxMap<K, V>) -> usize {
    map.capacity() * 8 / 7 * (size_of::<(K, V)>() + 1)
}

/// Room for `extra` more, growing by an eighth where `push` would double.
/// A set's arrays are resident for a daemon's lifetime and exactly full
/// after every copy-on-write clone, so doubling would double them on the
/// first insert after every publish.
pub(crate) trait ReserveTight {
    fn reserve_tight(&mut self, extra: usize);
}

impl<T> ReserveTight for Vec<T> {
    fn reserve_tight(&mut self, extra: usize) {
        self.reserve_exact(tight_growth(self.len(), self.capacity(), extra));
    }
}

impl ReserveTight for String {
    fn reserve_tight(&mut self, extra: usize) {
        self.reserve_exact(tight_growth(self.len(), self.capacity(), extra));
    }
}

fn tight_growth(len: usize, capacity: usize, extra: usize) -> usize {
    if capacity - len < extra {
        extra.max(len / 8)
    } else {
        0
    }
}

/// Distinct texts numbered densely from 0, both ways. Each text is one
/// `Arc` shared by the map and its inverse, so a copy-on-write clone of the
/// set bumps refcounts instead of copying text.
#[derive(Debug, Clone, Default)]
pub(crate) struct Interner {
    symbols: FxMap<Arc<str>, u32>,
    texts: Vec<Arc<str>>,
    /// Total text bytes interned (memory accounting).
    text_bytes: usize,
}

impl Interner {
    pub(crate) fn intern(&mut self, text: &str) -> u32 {
        if let Some(&symbol) = self.symbols.get(text) {
            return symbol;
        }
        let (symbol, text) = (self.texts.len() as u32, Arc::<str>::from(text));
        self.text_bytes += text.len();
        self.texts.reserve_tight(1);
        self.texts.push(text.clone());
        self.symbols.insert(text, symbol);
        symbol
    }

    pub(crate) fn text(&self, symbol: u32) -> &str {
        &self.texts[symbol as usize]
    }

    /// Approximate heap bytes (O(1)).
    pub(crate) fn heap_bytes(&self) -> usize {
        table_bytes(&self.symbols)
            + self.texts.capacity() * size_of::<Arc<str>>()
            + self.texts.len() * 2 * size_of::<usize>() // Arc counts
            + self.text_bytes
    }
}

/// One pattern element as a set stores it: a [`PatternElement`] with an
/// interner symbol where its text was — eight bytes, no `String`.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Packed {
    /// The text's symbol in [`MatcherTrie::literals`], and `space_before`.
    Literal(u32, bool),
    /// The name's symbol in the set's name interner, type, `space_before`.
    Variable(u32, TokenType, bool),
    IgnoreRest,
}

const _: () = assert!(size_of::<Packed>() == 8);

impl Packed {
    pub(crate) fn pack(el: &PatternElement, literals: &mut Interner, names: &mut Interner) -> Self {
        match el {
            PatternElement::Literal { text, space_before } => {
                Packed::Literal(literals.intern(text), *space_before)
            }
            PatternElement::Variable {
                name,
                ty,
                space_before,
            } => Packed::Variable(names.intern(name), *ty, *space_before),
            PatternElement::IgnoreRest => Packed::IgnoreRest,
        }
    }

    /// The element [`Packed::pack`] was given, field for field.
    pub(crate) fn unpack(self, literals: &Interner, names: &Interner) -> PatternElement {
        match self {
            Packed::Literal(symbol, space_before) => PatternElement::Literal {
                text: literals.text(symbol).to_string(),
                space_before,
            },
            Packed::Variable(name, ty, space_before) => PatternElement::Variable {
                name: names.text(name).to_string(),
                ty,
                space_before,
            },
            Packed::IgnoreRest => PatternElement::IgnoreRest,
        }
    }
}

/// A node's first edge, held inline: most nodes sit on an unshared chain and
/// never get a second one, so the walk resolves them with one array read and
/// probes the edge table only below nodes that branch.
#[derive(Debug, Clone, Copy)]
struct Node {
    /// The edge's symbol, [`NONE`] on a leaf.
    symbol: u32,
    child: u32,
    /// Whether the edge table holds further edges of this node.
    branches: bool,
    /// Whether any edge of this node is a literal one. Variable positions
    /// have none, and below them the walk never hashes the token's text.
    literal_edges: bool,
}

const LEAF: Node = Node {
    symbol: NONE,
    child: NONE,
    branches: false,
    literal_edges: false,
};

/// Reusable frontier buffers for [`MatcherTrie::walk`]. Hot loops should
/// hold one scratch per thread and pass it to
/// [`crate::PatternSet::match_message_with`] so matching a whole stream
/// performs no per-message frontier allocations.
#[derive(Debug, Clone, Default)]
pub struct MatchScratch {
    cur: Vec<u32>,
    next: Vec<u32>,
}

/// The compiled discrimination trie over a set's pattern elements.
#[derive(Debug, Clone)]
pub(crate) struct MatcherTrie {
    /// Literal element texts; text `s` labels edges as symbol
    /// [`FIRST_LITERAL`]` + s`.
    pub(crate) literals: Interner,
    /// Per node, its first-inserted edge.
    nodes: Vec<Node>,
    /// `(node, symbol)` → child node, for every edge after a node's first.
    edges: FxMap<(u32, u32), u32>,
    /// `(node, is_exact)` → the latest entry whose pattern ends there.
    terminals: FxMap<(u32, bool), u32>,
    /// Per entry: the previous entry ending at the same terminal (a
    /// structural duplicate), or [`NONE`].
    prev: Vec<u32>,
    /// Bit `i` is set when some typed-variable edge with symbol `i` exists,
    /// so the walk skips probes no node can answer.
    var_symbols: u16,
    /// Whether any ignore-rest terminal exists (they are probed at every
    /// depth; most sets have none).
    has_ignore: bool,
}

const ROOT: u32 = 0;
const NONE: u32 = u32::MAX;
/// Symbols below this are [`TokenType::index`] values.
const FIRST_LITERAL: u32 = TOKEN_TYPE_COUNT as u32;
const _: () = assert!(TOKEN_TYPE_COUNT <= u16::BITS as usize);

impl Default for MatcherTrie {
    fn default() -> Self {
        MatcherTrie::new()
    }
}

impl MatcherTrie {
    pub(crate) fn new() -> MatcherTrie {
        MatcherTrie {
            literals: Interner::default(),
            nodes: vec![LEAF],
            edges: FxMap::default(),
            terminals: FxMap::default(),
            prev: Vec::new(),
            var_symbols: 0,
            has_ignore: false,
        }
    }

    /// Number of allocated trie nodes (diagnostics / memory accounting).
    pub(crate) fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Approximate heap bytes held by the index (O(1): table capacities
    /// plus the running interned-text total).
    pub(crate) fn heap_bytes(&self) -> usize {
        self.literals.heap_bytes()
            + self.nodes.capacity() * size_of::<Node>()
            + table_bytes(&self.edges)
            + table_bytes(&self.terminals)
            + self.prev.capacity() * size_of::<u32>()
    }

    /// Compile one pattern (literals interned in [`Self::literals`]) as the
    /// next entry (entries are numbered densely from 0 in insertion order).
    pub(crate) fn insert(&mut self, pattern: &[Packed]) {
        let entry_idx = self.prev.len() as u32;
        let mut at = ROOT;
        self.nodes.reserve_tight(pattern.len());
        for el in pattern {
            let symbol = match *el {
                Packed::Literal(symbol, _) => FIRST_LITERAL + symbol,
                Packed::Variable(_, ty, _) => {
                    self.var_symbols |= 1 << ty.index();
                    ty.index() as u32
                }
                Packed::IgnoreRest => break,
            };
            let fresh = self.nodes.len() as u32;
            let node = &mut self.nodes[at as usize];
            node.literal_edges |= symbol >= FIRST_LITERAL;
            at = if node.symbol == symbol {
                node.child
            } else if node.symbol == NONE {
                (node.symbol, node.child) = (symbol, fresh);
                fresh
            } else {
                node.branches = true;
                *self.edges.entry((at, symbol)).or_insert(fresh)
            };
            if at == fresh {
                self.nodes.push(LEAF);
            }
        }
        let exact = !matches!(pattern.last(), Some(Packed::IgnoreRest));
        self.has_ignore |= !exact;
        let earlier = self.terminals.insert((at, exact), entry_idx);
        self.prev.reserve_tight(1);
        self.prev.push(earlier.unwrap_or(NONE));
    }

    /// Report every entry ending at `(node, exact)`, latest first.
    fn report<F: FnMut(u32, bool)>(&self, node: u32, exact: bool, on_candidate: &mut F) {
        let mut e = self.terminals.get(&(node, exact)).copied().unwrap_or(NONE);
        while e != NONE {
            on_candidate(e, exact);
            e = self.prev[e as usize];
        }
    }

    /// Walk the trie over `tokens`, reporting every candidate entry:
    /// `on_candidate(entry_idx, is_exact)`. Ignore-rest terminals fire at
    /// any consumed depth (their suffix matches whatever remains); exact
    /// terminals fire only when the whole token sequence was consumed.
    pub(crate) fn walk<F: FnMut(u32, bool)>(
        &self,
        tokens: &[Token],
        scratch: &mut MatchScratch,
        mut on_candidate: F,
    ) {
        let has_var = |ty: TokenType| self.var_symbols & (1 << ty.index()) != 0;
        let (email_edges, host_edges) = (has_var(TokenType::Email), has_var(TokenType::Hostname));
        scratch.cur.clear();
        scratch.cur.push(ROOT);
        if self.has_ignore {
            self.report(ROOT, false, &mut on_candidate);
        }
        for tok in tokens {
            scratch.next.clear();
            // The token's symbol, interned on first need: its text is hashed
            // at most once, everything else is integer compares and probes.
            let mut literal: Option<Option<u32>> = None;
            let typed = has_var(tok.ty).then_some(tok.ty.index() as u32);
            for &nid in &scratch.cur {
                let node = self.nodes[nid as usize];
                let child = |symbol: u32| {
                    if node.symbol == symbol {
                        Some(node.child)
                    } else if node.branches {
                        self.edges.get(&(nid, symbol)).copied()
                    } else {
                        None
                    }
                };
                if node.literal_edges {
                    let symbol = literal.get_or_insert_with(|| {
                        let known = self.literals.symbols.get(tok.text.as_str());
                        known.map(|s| FIRST_LITERAL + s)
                    });
                    scratch.next.extend(symbol.and_then(child));
                }
                scratch.next.extend(typed.and_then(child));
                if tok.ty == TokenType::Literal {
                    // Analysis-time refinements accept literal tokens whose
                    // text satisfies the predicate (the scanner itself never
                    // produces Email/Hostname tokens).
                    if email_edges {
                        let next = child(TokenType::Email.index() as u32);
                        scratch.next.extend(next.filter(|_| is_email(&tok.text)));
                    }
                    if host_edges {
                        let next = child(TokenType::Hostname.index() as u32);
                        scratch.next.extend(next.filter(|_| is_hostname(&tok.text)));
                    }
                }
            }
            std::mem::swap(&mut scratch.cur, &mut scratch.next);
            if scratch.cur.is_empty() {
                return;
            }
            if self.has_ignore {
                for &nid in &scratch.cur {
                    self.report(nid, false, &mut on_candidate);
                }
            }
        }
        for &nid in &scratch.cur {
            self.report(nid, true, &mut on_candidate);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trie_with(patterns: &[&str]) -> MatcherTrie {
        let mut t = MatcherTrie::new();
        let mut names = Interner::default();
        for p in patterns {
            let pattern = crate::Pattern::parse(p).unwrap();
            let packed: Vec<Packed> = pattern
                .elements()
                .iter()
                .map(|el| Packed::pack(el, &mut t.literals, &mut names))
                .collect();
            t.insert(&packed);
        }
        t
    }

    fn candidates(t: &MatcherTrie, msg: &str) -> Vec<(u32, bool)> {
        let scanned = crate::scanner::Scanner::new().scan_parse_only(msg);
        let mut out = Vec::new();
        t.walk(&scanned.tokens, &mut MatchScratch::default(), |e, exact| {
            out.push((e, exact))
        });
        out
    }

    #[test]
    fn shared_prefixes_share_nodes() {
        let t = trie_with(&["session %id:integer% opened", "session %id:integer% closed"]);
        // root + session + <integer> + {opened, closed}
        assert_eq!(t.node_count(), 5);
    }

    #[test]
    fn literal_edge_matches_typed_token() {
        // A literal `22` element must match the *integer* token `22`.
        let t = trie_with(&["port 22"]);
        assert_eq!(candidates(&t, "port 22"), vec![(0, true)]);
        assert!(candidates(&t, "port 23").is_empty());
    }

    #[test]
    fn frontier_follows_literal_and_var_edges_at_once() {
        let t = trie_with(&["port 22", "port %p:integer%"]);
        let mut c = candidates(&t, "port 22");
        c.sort_unstable();
        assert_eq!(c, vec![(0, true), (1, true)]);
        assert_eq!(candidates(&t, "port 8080"), vec![(1, true)]);
    }

    #[test]
    fn ignore_rest_fires_at_every_depth_including_root() {
        let t = trie_with(&["%...%", "panic %...%"]);
        let c = candidates(&t, "panic at the disco");
        assert!(c.contains(&(0, false)));
        assert!(c.contains(&(1, false)));
        // The bare ignore-rest matches even an empty token sequence.
        assert_eq!(candidates(&t, ""), vec![(0, false)]);
    }

    #[test]
    fn dead_frontier_short_circuits() {
        let t = trie_with(&["alpha beta gamma"]);
        assert!(candidates(&t, "zzz beta gamma").is_empty());
        assert!(candidates(&t, "alpha beta").is_empty());
        assert!(candidates(&t, "alpha beta gamma delta").is_empty());
    }

    #[test]
    fn email_and_hostname_edges_are_predicate_guarded() {
        let t = trie_with(&["from %e:email%", "from %h:host%", "from %w%"]);
        let ids = |msg: &str| {
            candidates(&t, msg)
                .iter()
                .map(|&(e, _)| e)
                .collect::<Vec<_>>()
        };
        let mut hit = ids("from alice@example.com");
        hit.sort_unstable();
        assert_eq!(hit, vec![0, 2]);
        let mut hit = ids("from node-1.example.org");
        hit.sort_unstable();
        assert_eq!(hit, vec![1, 2]);
        assert_eq!(ids("from plainword"), vec![2]);
    }
}
