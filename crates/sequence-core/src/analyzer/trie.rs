//! The analysis trie and its sibling-merge pass.
//!
//! "After tokenisation, the Sequence analyser builds a trie with the tokens
//! [...] Once the trie is built it performs a comparison of all of the tokens
//! positioned at the same level that share the same parent and child nodes.
//! During this comparison the relevant parts are merged to produce the
//! patterns." (paper §III)
//!
//! The trie here follows that description. Every message (a token sequence) is
//! one root-to-leaf path. Node keys are either a literal text, a scan-time
//! token *type* (typed tokens — integers, IPs, timestamps — are variables by
//! construction, so all integers at a position share one node), or a variable
//! produced by merging.
//!
//! The merge pass visits each node and unifies literal children that share
//! the same *child key set* (the "same parent and same child nodes" rule).
//! Merged children become a string variable node whose subtrees are unioned
//! recursively. The pass loops until a fixpoint, then recurses down. Typed
//! children never merge with literal children: this is what produces two
//! patterns for Proxifier's sometimes-numeric field, reproducing the paper's
//! documented limitation.
//!
//! Two departures from the published analyser, both on by default and off
//! under [`AnalyzerOptions::paper`]. Both are Drain's routing heuristics:
//!
//! - *Leading words stay apart.* At the first token position a group of at
//!   most `MAX_OBSERVED` literal siblings stays unmerged. A message's
//!   leading word is usually its event (`Accepted password for root` and
//!   `Failed password for root` are two events), while a leading user or
//!   host name takes many values and still becomes a variable. It is
//!   Drain's "leading tokens are tree keys", bounded as Drain bounds a
//!   node's children.
//! - *Digit-bearing words fold.* Every literal token that contains an ASCII
//!   digit (`onreceive97`, `proc[4242]:`) is keyed [`NodeKey::Digits`], one
//!   node per position, instead of one subtree per value. The node merges
//!   with its siblings as a `Var` does; extraction turns it back into the
//!   literal when it saw one value only. It is Drain's `has_digits` routing.

use super::{is_email, is_hostname, AnalyzerOptions};
use crate::token::{Token, TokenType};
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeSet, HashMap};
use std::hash::{Hash, Hasher};

/// Key discriminating sibling nodes at one trie level.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum NodeKey {
    /// A literal token with this exact text.
    Lit(String),
    /// A typed (non-literal) token: one node per type.
    Typed(TokenType),
    /// A string variable created by the merge pass. The id disambiguates
    /// sibling variables produced by different merge groups (they represent
    /// different branches and must not collide in the children map).
    Var(u32),
    /// Every literal token containing an ASCII digit, at one position (the
    /// digit fold; only under options that enable it).
    Digits,
}

impl NodeKey {
    /// `true` for merge-produced variables.
    pub fn is_var(&self) -> bool {
        matches!(self, NodeKey::Var(_))
    }
}

/// One node of the analysis trie.
#[derive(Debug)]
pub struct Node {
    /// This node's key.
    pub key: NodeKey,
    /// Whether a space preceded the first token inserted here.
    pub space_before: bool,
    /// Child node ids, by key.
    pub children: HashMap<NodeKey, usize>,
    /// Indices (into the analysed message slice) of messages that end at this
    /// node.
    pub terminal: Vec<u32>,
    /// Distinct literal texts observed at this position (bounded sample, used
    /// to demote single-valued variables).
    pub observed: BTreeSet<String>,
    /// Whether every value seen here, not only the sampled ones, is an email
    /// address (refines a variable's type).
    pub all_email: bool,
    /// Whether every value seen here is a host name.
    pub all_host: bool,
    /// Total number of tokens that passed through this node.
    pub count: u64,
}

/// How many distinct observed values a node keeps; beyond this the exact set
/// no longer matters (the variable is clearly multi-valued). The same bound
/// decides when distinct leading words are many enough to merge; it works
/// from 7 to 18 (DESIGN.md §2).
const MAX_OBSERVED: usize = 8;

impl Node {
    fn new(key: NodeKey, space_before: bool) -> Node {
        Node {
            key,
            space_before,
            children: HashMap::new(),
            terminal: Vec::new(),
            observed: BTreeSet::new(),
            all_email: true,
            all_host: true,
            count: 0,
        }
    }

    fn observe(&mut self, text: &str) {
        self.count += 1;
        if self.observed.len() < MAX_OBSERVED {
            self.observed.insert(text.to_string());
        }
        self.all_email = self.all_email && is_email(text);
        self.all_host = self.all_host && is_hostname(text);
    }
}

/// The analysis trie over one group of messages (same service, after the
/// first Sequence-RTG partitioning step).
#[derive(Debug)]
pub struct AnalysisTrie {
    nodes: Vec<Node>,
}

/// Id of the synthetic root node.
const ROOT: usize = 0;

impl AnalysisTrie {
    /// An empty trie.
    pub fn new() -> AnalysisTrie {
        AnalysisTrie {
            nodes: vec![Node::new(NodeKey::Var(0), false)],
        }
    }

    /// Total number of allocated trie nodes (used by memory accounting and
    /// the Fig. 5 experiment narrative about very large tries).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Insert message `idx` with the given tokens as one root-to-leaf path.
    pub fn insert(&mut self, idx: u32, tokens: &[Token], opts: &AnalyzerOptions) {
        let mut at = ROOT;
        for tok in tokens {
            let key = key_for(tok, opts);
            let next = match self.nodes[at].children.get(&key) {
                Some(&id) => id,
                None => {
                    let id = self.nodes.len();
                    self.nodes.push(Node::new(key.clone(), tok.is_space_before));
                    self.nodes[at].children.insert(key, id);
                    id
                }
            };
            self.nodes[next].observe(&tok.text);
            at = next;
        }
        self.nodes[at].terminal.push(idx);
    }

    /// Run the sibling-merge pass over the whole trie (breadth-first, each
    /// level to a fixpoint). Under the default options the root's children
    /// (the leading words) merge only in groups of more than `MAX_OBSERVED`.
    pub fn merge(&mut self, opts: &AnalyzerOptions) {
        let mut queue = vec![ROOT];
        while let Some(at) = queue.pop() {
            let min_group = if at == ROOT && opts.drain_routing {
                MAX_OBSERVED + 1
            } else {
                2
            };
            self.merge_children_of(at, min_group);
            queue.extend(self.nodes[at].children.values().copied());
        }
    }

    /// Merge the literal, `Digits` and `Var` children of `at` that share a
    /// child key set, in groups of at least `min_group`; repeat until no
    /// merge applies (a merged `Var` node can in turn share a child key set
    /// with a remaining literal sibling).
    fn merge_children_of(&mut self, at: usize, min_group: usize) {
        loop {
            // Group mergeable children (literals, the digit node and existing
            // Var nodes) by the signature of their child key set.
            let mut groups: HashMap<u64, Vec<usize>> = HashMap::new();
            for (key, &id) in &self.nodes[at].children {
                match key {
                    NodeKey::Lit(_) | NodeKey::Digits | NodeKey::Var(_) => {
                        let sig = self.child_set_signature(id);
                        groups.entry(sig).or_default().push(id);
                    }
                    NodeKey::Typed(_) => {}
                }
            }
            let mut merged_any = false;
            for (_, mut ids) in groups {
                if ids.len() < min_group {
                    continue;
                }
                // Deterministic merge target regardless of hash order.
                ids.sort_unstable();
                self.merge_siblings(at, &ids);
                merged_any = true;
            }
            if !merged_any {
                return;
            }
        }
    }

    /// A stable signature for a node's set of child keys.
    fn child_set_signature(&self, id: usize) -> u64 {
        let mut keys: Vec<&NodeKey> = self.nodes[id].children.keys().collect();
        keys.sort();
        let mut h = DefaultHasher::new();
        keys.len().hash(&mut h);
        for k in keys {
            k.hash(&mut h);
        }
        h.finish()
    }

    /// Replace sibling nodes `ids` (all children of `at`) by a single `Var`
    /// node whose subtrees are the recursive union of theirs.
    fn merge_siblings(&mut self, at: usize, ids: &[usize]) {
        // Remove the merged children from the parent.
        let id_set: std::collections::HashSet<usize> = ids.iter().copied().collect();
        self.nodes[at].children.retain(|_, v| !id_set.contains(v));
        // Union into the first node, which becomes the Var node.
        let target = ids[0];
        for &other in &ids[1..] {
            self.union_into(target, other);
        }
        let key = NodeKey::Var(target as u32);
        self.nodes[target].key = key.clone();
        self.nodes[at].children.insert(key, target);
    }

    /// Recursively union node `other` into node `target` (same child key
    /// sets by construction at the top level; deeper levels may differ and
    /// are unioned key-by-key).
    fn union_into(&mut self, target: usize, other: usize) {
        // Move terminals, counts and observed values.
        let (terminal, observed, count, all_email, all_host) = {
            let o = &mut self.nodes[other];
            (
                std::mem::take(&mut o.terminal),
                std::mem::take(&mut o.observed),
                o.count,
                o.all_email,
                o.all_host,
            )
        };
        {
            let t = &mut self.nodes[target];
            t.terminal.extend(terminal);
            t.count += count;
            t.all_email &= all_email;
            t.all_host &= all_host;
            for v in observed {
                if t.observed.len() >= MAX_OBSERVED {
                    break;
                }
                t.observed.insert(v);
            }
        }
        // Union children.
        let other_children: Vec<(NodeKey, usize)> = self.nodes[other].children.drain().collect();
        for (key, child) in other_children {
            match self.nodes[target].children.get(&key) {
                Some(&existing) => self.union_into(existing, child),
                None => {
                    self.nodes[target].children.insert(key, child);
                }
            }
        }
    }

    /// Extract the pattern paths after merging. Each returned path is the
    /// node-id sequence from below the root to a terminal node.
    pub fn paths(&self) -> Vec<PathOut<'_>> {
        let mut out = Vec::new();
        let mut stack: Vec<usize> = Vec::new();
        self.walk(ROOT, &mut stack, &mut out);
        out
    }

    fn walk<'a>(&'a self, at: usize, stack: &mut Vec<usize>, out: &mut Vec<PathOut<'a>>) {
        let node = &self.nodes[at];
        if !node.terminal.is_empty() {
            out.push(PathOut {
                nodes: stack.iter().map(|&id| &self.nodes[id]).collect(),
                terminal: &node.terminal,
            });
        }
        // Deterministic child order for reproducible output.
        let mut kids: Vec<(&NodeKey, &usize)> = node.children.iter().collect();
        kids.sort_by(|a, b| a.0.cmp(b.0));
        for (_, &child) in kids {
            stack.push(child);
            self.walk(child, stack, out);
            stack.pop();
        }
    }
}

impl Default for AnalysisTrie {
    fn default() -> Self {
        AnalysisTrie::new()
    }
}

/// One extracted root-to-leaf path.
pub struct PathOut<'a> {
    /// The nodes along the path (root excluded).
    pub nodes: Vec<&'a Node>,
    /// Messages terminating at the leaf.
    pub terminal: &'a [u32],
}

fn key_for(tok: &Token, opts: &AnalyzerOptions) -> NodeKey {
    if tok.ty.is_typed() {
        NodeKey::Typed(tok.ty)
    } else if opts.drain_routing && tok.text.bytes().any(|b| b.is_ascii_digit()) {
        NodeKey::Digits
    } else {
        NodeKey::Lit(tok.text.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scanner::Scanner;

    fn build(msgs: &[&str], opts: &AnalyzerOptions) -> AnalysisTrie {
        let scanner = Scanner::new();
        let mut trie = AnalysisTrie::new();
        for (i, m) in msgs.iter().enumerate() {
            let t = scanner.scan(m);
            trie.insert(i as u32, &t.tokens, opts);
        }
        trie.merge(opts);
        trie
    }

    fn pattern_strings(trie: &AnalysisTrie) -> Vec<String> {
        trie.paths()
            .iter()
            .map(|p| {
                p.nodes
                    .iter()
                    .map(|n| match &n.key {
                        NodeKey::Lit(t) => t.clone(),
                        NodeKey::Typed(ty) => format!("<{ty}>"),
                        NodeKey::Var(_) | NodeKey::Digits => "<*>".to_string(),
                    })
                    .collect::<Vec<_>>()
                    .join(" ")
            })
            .collect()
    }

    #[test]
    fn identical_messages_one_path() {
        let trie = build(
            &["session closed", "session closed"],
            &AnalyzerOptions::default(),
        );
        let pats = pattern_strings(&trie);
        assert_eq!(pats, vec!["session closed"]);
        assert_eq!(trie.paths()[0].terminal.len(), 2);
    }

    #[test]
    fn typed_tokens_share_a_node() {
        let trie = build(
            &["port 22 open", "port 8080 open"],
            &AnalyzerOptions::default(),
        );
        assert_eq!(pattern_strings(&trie), vec!["port <integer> open"]);
    }

    #[test]
    fn literal_siblings_with_same_children_merge() {
        let trie = build(
            &["Accepted password for root", "Failed password for root"],
            &AnalyzerOptions::paper(),
        );
        assert_eq!(pattern_strings(&trie), vec!["<*> password for root"]);
    }

    #[test]
    fn trailing_literal_variance_merges_at_leaf() {
        let trie = build(
            &["job alpha done", "job beta done", "job gamma done"],
            &AnalyzerOptions::default(),
        );
        assert_eq!(pattern_strings(&trie), vec!["job <*> done"]);
    }

    #[test]
    fn divergent_structure_stays_separate() {
        let trie = build(
            &["start job now", "stop service gracefully"],
            &AnalyzerOptions::default(),
        );
        let mut pats = pattern_strings(&trie);
        pats.sort();
        assert_eq!(pats, vec!["start job now", "stop service gracefully"]);
    }

    #[test]
    fn typed_never_merges_with_literal() {
        // The Proxifier flip: `64` (integer) vs `64*` (literal) at the same
        // position must yield two patterns. This prints node keys, so it
        // runs the published merge; `analyzer::tests::
        // typed_flip_survives_the_digit_fold` pins the default options.
        let trie = build(
            &["sent 64 bytes", "sent 64* bytes", "sent 128 bytes"],
            &AnalyzerOptions::paper(),
        );
        let mut pats = pattern_strings(&trie);
        pats.sort();
        assert_eq!(pats, vec!["sent 64* bytes", "sent <integer> bytes"]);
    }

    #[test]
    fn var_absorbs_later_compatible_literal() {
        let trie = build(
            &[
                "user alice logged in",
                "user bob logged in",
                "user carol logged in",
            ],
            &AnalyzerOptions::default(),
        );
        assert_eq!(pattern_strings(&trie), vec!["user <*> logged in"]);
        // observed values kept for quality control
        let paths = trie.paths();
        let var_node = paths[0].nodes.iter().find(|n| n.key.is_var()).unwrap();
        assert_eq!(var_node.observed.len(), 3);
    }

    #[test]
    fn different_lengths_never_interfere() {
        let trie = build(&["a b c", "a b"], &AnalyzerOptions::default());
        let mut pats = pattern_strings(&trie);
        pats.sort();
        assert_eq!(pats, vec!["a b", "a b c"]);
    }

    #[test]
    fn node_count_grows_with_distinct_paths() {
        // Merging detaches nodes but never frees them.
        let trie = build(&["x a", "x b", "x c"], &AnalyzerOptions::default());
        // root + x + {a,b,c}
        assert_eq!(trie.node_count(), 5);
    }
}
