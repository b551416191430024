//! Radix-tree prefix cache over KV blocks.
//!
//! Prompts are matched token-by-token against a radix tree whose nodes own
//! [`KvBlock`]s — position-independent copies of the KV rows a prefix
//! produces. A hit lets the scheduler append the cached rows into a slot's
//! cache and prefill only the unmatched suffix; because KV rows at
//! position `t` are a pure function of the token prefix `0..=t` (and the
//! adapter), and [`apollo_nn::DecodeCaches::append_block`] is a bitwise
//! copy, decoding on top of a hit is **bit-identical** to cold prefill in
//! Exact mode (pinned by `nn/tests/decode_equivalence.rs` and
//! `infer/tests/prefix_churn.rs`).
//!
//! # Admission
//!
//! - A token span gets KV only once a second request has shared it. The
//!   first sighting of a span leaves a *ghost*: a node holding the tokens
//!   and no block, so nothing is exported for it.
//! - On insertion, the part of the prompt that matches existing nodes,
//!   ghost or KV, has been seen twice. Its ghost spans are exported and
//!   become KV, split at the end of the match where it stops mid-span. The
//!   unmatched rest becomes one ghost leaf.
//! - Every KV node's ancestors hold KV. A lookup stops at the first ghost
//!   and never leases or returns one.
//!
//! # Ownership and eviction rules
//!
//! - Every node owns its block outright; lookups hand back *copies*
//!   (sliced to the matched length), so eviction can never corrupt a slot
//!   that already appended a block — there is no aliasing to protect.
//! - Ref-counting exists purely as an eviction guard: a lookup leases
//!   every node on its matched path, and [`PrefixCache::release`] returns
//!   the lease at retirement. Eviction only considers nodes with zero
//!   leases and zero children (childless leaves), so an in-use or interior
//!   node is never dropped.
//! - The byte budget counts KV block bytes plus each ghost's whole
//!   footprint: its token storage, its arena slot, its LRU entry and its
//!   entry in its parent's child list. A KV node's slot is not charged: its
//!   block holds at least one KV row, which dwarfs it. Insertion evicts
//!   least-recently-used unleased leaves, KV or ghost, until the cache
//!   fits. A budget of zero disables the cache.
//! - Every node sits in an LRU index keyed by its last use, and knows its
//!   parent. A node is touched whenever a descendant is, so the oldest
//!   unleased leaf is found near the front of the index, and a victim is
//!   detached from its parent's one child list.
//! - Adapters key separate roots: a prefix cached under one adapter is
//!   never served to another (their KV rows differ).

use std::collections::BTreeSet;
use std::mem;

use apollo_nn::KvBlock;

/// What a node hangs from: a root child list (an index into
/// `PrefixCache::roots`) or another node.
#[derive(Clone, Copy)]
enum Parent {
    Root(usize),
    Node(usize),
}

/// One radix-tree node: a token span, its KV rows, and its children.
struct Node {
    /// Tokens this edge covers (≥ 1).
    tokens: Vec<u32>,
    /// KV rows for exactly those tokens, owned by the node; `None` for a
    /// ghost, a span seen by one request only.
    block: Option<KvBlock>,
    parent: Parent,
    /// Child node ids; their spans start with pairwise-distinct tokens.
    children: Vec<usize>,
    /// Outstanding lookup leases (eviction guard, not aliasing).
    leases: usize,
    /// Logical clock of the last lookup/insert touching this node.
    last_use: u64,
}

/// Bytes a node costs besides its KV rows or tokens: its arena slot, its
/// LRU index entry and its entry in its parent's child list.
const NODE_BYTES: usize =
    mem::size_of::<Option<Node>>() + mem::size_of::<(u64, usize)>() + mem::size_of::<usize>();

/// Budget bytes a ghost of `tokens` tokens costs: its token storage plus
/// [`NODE_BYTES`].
fn ghost_bytes(tokens: usize) -> usize {
    NODE_BYTES + tokens * mem::size_of::<u32>()
}

/// An outstanding lease on a matched path. Must be given back via
/// [`PrefixCache::release`] when the request retires.
#[derive(Debug)]
pub struct PrefixLease {
    path: Vec<usize>,
}

/// A successful lookup: blocks to append (in order), covering `matched`
/// prompt tokens, plus the lease guarding the path.
pub struct PrefixHit {
    /// Owned copies of the matched KV rows, in prompt order.
    pub blocks: Vec<KvBlock>,
    /// Prompt tokens covered (always `< prompt.len()`).
    pub matched: usize,
    /// Eviction guard for the matched path.
    pub lease: PrefixLease,
}

/// Token-level radix tree of cached KV prefixes with per-adapter roots,
/// second-sighting admission, lease-guarded LRU eviction, and a byte
/// budget.
pub struct PrefixCache {
    /// Arena; `None` slots are free (ids are recycled via `free`).
    nodes: Vec<Option<Node>>,
    free: Vec<usize>,
    /// Live nodes.
    live: usize,
    /// Every live node as `(last_use, id)`, oldest first.
    lru: BTreeSet<(u64, usize)>,
    /// Root child lists, one per adapter key (`None` = base model).
    roots: Vec<(Option<u32>, Vec<usize>)>,
    /// KV block bytes.
    bytes: usize,
    /// Budget bytes of the ghost nodes (see [`ghost_bytes`]).
    ghost_bytes: usize,
    budget: usize,
    clock: u64,
    lookups: u64,
    hits: u64,
    hit_tokens: u64,
    evictions: u64,
    admissions: u64,
}

impl PrefixCache {
    /// A cache evicting down to `budget_bytes` (KV blocks plus ghosts)
    /// after each insertion. Zero disables caching entirely.
    pub fn new(budget_bytes: usize) -> Self {
        PrefixCache {
            nodes: Vec::new(),
            free: Vec::new(),
            live: 0,
            lru: BTreeSet::new(),
            roots: Vec::new(),
            bytes: 0,
            ghost_bytes: 0,
            budget: budget_bytes,
            clock: 0,
            lookups: 0,
            hits: 0,
            hit_tokens: 0,
            evictions: 0,
            admissions: 0,
        }
    }

    /// Whether the cache stores anything at all.
    pub fn enabled(&self) -> bool {
        self.budget > 0
    }

    /// Longest cached prefix of `prompt` under `adapter`, capped at
    /// `prompt.len() - 1` so at least one suffix token remains to prefill
    /// (the requester needs the last prompt row's logits to sample from).
    /// The match ends at the first ghost. Returns `None` on a miss (zero
    /// tokens matched).
    pub fn lookup(&mut self, adapter: Option<u32>, prompt: &[u32]) -> Option<PrefixHit> {
        if !self.enabled() {
            return None;
        }
        self.lookups += 1;
        self.clock += 1;
        let max_match = prompt.len().saturating_sub(1);
        let mut children: &[usize] = match self.roots.iter().find(|(a, _)| *a == adapter) {
            Some((_, c)) => c,
            None => &[],
        };
        let mut blocks = Vec::new();
        let mut path = Vec::new();
        let mut matched = 0;
        while matched < max_match {
            let Some(&child) = children
                .iter()
                .find(|&&id| self.node(id).tokens[0] == prompt[matched])
            else {
                break;
            };
            let node = self.node(child);
            let Some(block) = &node.block else {
                break; // a ghost: no KV here or below
            };
            let lcp = node
                .tokens
                .iter()
                .zip(&prompt[matched..])
                .take_while(|(a, b)| a == b)
                .count()
                .min(max_match - matched);
            debug_assert!(lcp >= 1);
            if lcp == node.tokens.len() {
                blocks.push(block.clone());
            } else {
                blocks.push(block.slice(0, lcp));
            }
            path.push(child);
            matched += lcp;
            if lcp < node.tokens.len() {
                break; // partial edge: nothing below can extend the match
            }
            children = &node.children;
        }
        if matched == 0 {
            return None;
        }
        self.hits += 1;
        self.hit_tokens += matched as u64;
        let now = self.clock;
        for &id in &path {
            self.node_mut(id).leases += 1;
            self.touch(id, now);
        }
        Some(PrefixHit {
            blocks,
            matched,
            lease: PrefixLease { path },
        })
    }

    /// Returns a lease taken by [`PrefixCache::lookup`], re-arming its path
    /// for eviction once no other lease holds it.
    pub fn release(&mut self, lease: PrefixLease) {
        for id in lease.path {
            let n = self.node_mut(id);
            debug_assert!(n.leases > 0, "release without a lease");
            n.leases = n.leases.saturating_sub(1);
        }
    }

    /// Records that a request under `adapter` prefilled `tokens`. The part
    /// that matches existing nodes has now been seen twice: each ghost span
    /// in it is exported via `export(lo, hi)` (global token offsets — the
    /// scheduler maps these straight onto a freshly-prefilled slot's cache)
    /// and becomes KV. The unmatched rest becomes a ghost leaf, with
    /// nothing exported. Splits partial edges as needed. Evicts down to the
    /// budget afterwards.
    pub fn insert(
        &mut self,
        adapter: Option<u32>,
        tokens: &[u32],
        mut export: impl FnMut(usize, usize) -> KvBlock,
    ) {
        if !self.enabled() || tokens.is_empty() {
            return;
        }
        self.clock += 1;
        let root = match self.roots.iter().position(|(a, _)| *a == adapter) {
            Some(i) => i,
            None => {
                self.roots.push((adapter, Vec::new()));
                self.roots.len() - 1
            }
        };
        let mut parent = Parent::Root(root);
        let mut pos = 0;
        while pos < tokens.len() {
            let next = self
                .children(parent)
                .iter()
                .copied()
                .find(|&id| self.node(id).tokens[0] == tokens[pos]);
            let Some(child) = next else { break };
            let span_len = self.node(child).tokens.len();
            let lcp = self
                .node(child)
                .tokens
                .iter()
                .zip(&tokens[pos..])
                .take_while(|(a, b)| a == b)
                .count();
            // Diverges (or ends) mid-edge: split the edge at `lcp`. The
            // original node keeps the shared head (and its leases — a lease
            // only ever guards a prefix of what it copied); the new child
            // takes the tail.
            if lcp < span_len {
                self.split(child, lcp);
            }
            if self.node(child).block.is_none() {
                let block = export(pos, pos + lcp);
                self.ghost_bytes -= ghost_bytes(lcp);
                self.bytes += block.memory_bytes();
                self.admissions += 1;
                self.node_mut(child).block = Some(block);
            }
            self.touch(child, self.clock);
            pos += lcp;
            parent = Parent::Node(child);
            if lcp < span_len {
                break; // nothing below the split can extend the match
            }
        }
        if pos < tokens.len() {
            self.ghost_bytes += ghost_bytes(tokens.len() - pos);
            let id = self.alloc(Node {
                tokens: tokens[pos..].to_vec(),
                block: None,
                parent,
                children: Vec::new(),
                leases: 0,
                last_use: self.clock,
            });
            self.children_mut(parent).push(id);
        }
        self.evict_to_budget();
    }

    /// Splits node `id`'s span at `at` (`1 ≤ at < len`): the node keeps
    /// `tokens[..at]` and block rows `0..at`; a new child takes the rest,
    /// inheriting the node's children. KV rows and tokens are partitioned
    /// exactly; a ghost's split charges the new ghost's [`NODE_BYTES`].
    fn split(&mut self, id: usize, at: usize) {
        let n = self.node_mut(id);
        debug_assert!(at >= 1 && at < n.tokens.len());
        let tokens = n.tokens.split_off(at);
        let block = n.block.as_mut().map(|b| {
            let tail = b.slice(at, at + tokens.len());
            *b = b.slice(0, at);
            tail
        });
        let children = mem::take(&mut n.children);
        let last_use = n.last_use;
        if block.is_none() {
            self.ghost_bytes += NODE_BYTES;
        }
        let tail = self.alloc(Node {
            tokens,
            block,
            parent: Parent::Node(id),
            children: Vec::new(),
            leases: 0,
            last_use,
        });
        for &c in &children {
            self.node_mut(c).parent = Parent::Node(tail);
        }
        self.node_mut(tail).children = children;
        self.node_mut(id).children.push(tail);
    }

    /// Evicts least-recently-used unleased childless leaves until the
    /// cache fits its budget (or no evictable node remains). A node is
    /// touched whenever a descendant is, so the walk from the oldest end of
    /// the index passes over leased paths only.
    fn evict_to_budget(&mut self) {
        while self.bytes + self.ghost_bytes > self.budget {
            let victim = self.lru.iter().copied().find(|&(_, id)| {
                let n = self.node(id);
                n.children.is_empty() && n.leases == 0
            });
            let Some((last_use, id)) = victim else { break };
            self.lru.remove(&(last_use, id));
            let node = self.nodes[id].take().expect("victim is live");
            self.live -= 1;
            match &node.block {
                Some(block) => self.bytes -= block.memory_bytes(),
                None => self.ghost_bytes -= ghost_bytes(node.tokens.len()),
            }
            self.free.push(id);
            self.evictions += 1;
            self.children_mut(node.parent).retain(|&c| c != id);
        }
    }

    /// Moves node `id` to `now` in the LRU index.
    fn touch(&mut self, id: usize, now: u64) {
        let was = mem::replace(&mut self.node_mut(id).last_use, now);
        self.lru.remove(&(was, id));
        self.lru.insert((now, id));
    }

    fn alloc(&mut self, node: Node) -> usize {
        self.live += 1;
        let last_use = node.last_use;
        let id = match self.free.pop() {
            Some(id) => {
                self.nodes[id] = Some(node);
                id
            }
            None => {
                self.nodes.push(Some(node));
                self.nodes.len() - 1
            }
        };
        self.lru.insert((last_use, id));
        id
    }

    fn node(&self, id: usize) -> &Node {
        self.nodes[id].as_ref().expect("live node")
    }

    fn node_mut(&mut self, id: usize) -> &mut Node {
        self.nodes[id].as_mut().expect("live node")
    }

    fn children(&self, parent: Parent) -> &[usize] {
        match parent {
            Parent::Root(r) => &self.roots[r].1,
            Parent::Node(id) => &self.node(id).children,
        }
    }

    fn children_mut(&mut self, parent: Parent) -> &mut Vec<usize> {
        match parent {
            Parent::Root(r) => &mut self.roots[r].1,
            Parent::Node(id) => &mut self.node_mut(id).children,
        }
    }

    /// Bytes of cached KV block storage.
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// Budget bytes held by ghosts: their tokens and node storage.
    pub fn ghost_bytes(&self) -> usize {
        self.ghost_bytes
    }

    /// Live node count, ghosts included.
    pub fn node_count(&self) -> usize {
        self.live
    }

    /// Lookups since construction.
    pub fn lookup_count(&self) -> u64 {
        self.lookups
    }

    /// Lookups that matched at least one token.
    pub fn hit_count(&self) -> u64 {
        self.hits
    }

    /// Total prompt tokens served from cache.
    pub fn hit_token_count(&self) -> u64 {
        self.hit_tokens
    }

    /// Leaf evictions (KV or ghost) since construction.
    pub fn eviction_count(&self) -> u64 {
        self.evictions
    }

    /// Ghost spans given KV on a second sighting since construction.
    pub fn admission_count(&self) -> u64 {
        self.admissions
    }
}

impl std::fmt::Debug for PrefixCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PrefixCache")
            .field("nodes", &self.node_count())
            .field("bytes", &self.bytes)
            .field("ghost_bytes", &self.ghost_bytes)
            .field("budget", &self.budget)
            .field("hits", &self.hits)
            .field("lookups", &self.lookups)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apollo_nn::{DecodeBackend, LinearMode, LlamaModel, ModelConfig};
    use apollo_tensor::Rng;

    /// A backend plus one prefilled slot per call, so tests can export
    /// genuine KV blocks for arbitrary token vectors.
    struct Rig {
        backend: DecodeBackend,
    }

    impl Rig {
        fn new() -> Self {
            let cfg = ModelConfig::test_tiny();
            let mut rng = Rng::seed_from_u64(0xF1F0);
            let model = LlamaModel::new(&cfg, LinearMode::Dense, &mut rng);
            Rig {
                backend: DecodeBackend::from(model),
            }
        }

        /// Prefills `tokens` cold and exports rows `lo..hi`.
        fn block(&self, tokens: &[u32], lo: usize, hi: usize) -> KvBlock {
            let mut caches = self.backend.new_caches(1, 64);
            let rows: Vec<(usize, u32)> = tokens.iter().map(|&t| (0, t)).collect();
            self.backend.forward_cached(&mut caches, &rows);
            caches.export_rows(0, lo, hi)
        }

        /// Decoding `prompt`'s next row on top of `hit`'s blocks gives the
        /// logits of a cold prefill, bit for bit.
        fn assert_serves_cold_bits(&self, prompt: &[u32], hit: &PrefixHit) {
            let fresh = self.block(prompt, 0, hit.matched);
            let mut caches = self.backend.new_caches(2, 16);
            for block in &hit.blocks {
                caches.append_block(0, block);
            }
            caches.append_block(1, &fresh);
            let next = prompt[hit.matched];
            let h = self
                .backend
                .forward_cached(&mut caches, &[(0, next), (1, next)]);
            let logits = self.backend.lm_logits(&h);
            for (x, y) in logits.row(0).iter().zip(logits.row(1)) {
                assert!(x.to_bits() == y.to_bits(), "stale KV served");
            }
        }
    }

    #[test]
    fn miss_then_hit_with_suffix_reserved() {
        let rig = Rig::new();
        let mut pc = PrefixCache::new(1 << 20);
        let prompt = [1u32, 2, 3, 4, 5];
        assert!(pc.lookup(None, &prompt).is_none());
        pc.insert(None, &prompt, |_, _| panic!("first sighting: no export"));
        pc.insert(None, &prompt, |lo, hi| rig.block(&prompt, lo, hi));
        assert_eq!(pc.node_count(), 1);
        // Same prompt again: match caps at len-1, leaving one suffix token.
        let hit = pc.lookup(None, &prompt).expect("hit");
        assert_eq!(hit.matched, 4);
        assert_eq!(hit.blocks.iter().map(KvBlock::rows).sum::<usize>(), 4);
        pc.release(hit.lease);
        // A longer prompt sharing the prefix matches all 5 cached rows.
        let longer = [1u32, 2, 3, 4, 5, 6, 7];
        let hit = pc.lookup(None, &longer).expect("hit");
        assert_eq!(hit.matched, 5);
        pc.release(hit.lease);
        assert_eq!(pc.hit_count(), 2);
        assert_eq!(pc.lookup_count(), 3);
        assert_eq!(pc.hit_token_count(), 9);
    }

    #[test]
    fn diverging_prompts_split_edges() {
        let rig = Rig::new();
        let mut pc = PrefixCache::new(1 << 20);
        let a = [1u32, 2, 3, 4, 5];
        let b = [1u32, 2, 9, 9, 9];
        pc.insert(None, &a, |_, _| panic!("first sighting: no export"));
        pc.insert(None, &b, |lo, hi| rig.block(&b, lo, hi));
        pc.insert(None, &a, |lo, hi| rig.block(&a, lo, hi));
        pc.insert(None, &b, |lo, hi| rig.block(&b, lo, hi));
        // Shared head [1,2] + two tails.
        assert_eq!(pc.node_count(), 3);
        let hit = pc.lookup(None, &b).expect("hit");
        assert_eq!(hit.matched, 4);
        pc.release(hit.lease);
        // The shared head still serves the first prompt.
        let hit = pc.lookup(None, &a).expect("hit");
        assert_eq!(hit.matched, 4);
        pc.release(hit.lease);
        // Re-inserting either is a no-op.
        let before = pc.node_count();
        pc.insert(None, &a, |_, _| panic!("fully covered: no export"));
        assert_eq!(pc.node_count(), before);
    }

    #[test]
    fn adapters_do_not_share_prefixes() {
        let rig = Rig::new();
        let mut pc = PrefixCache::new(1 << 20);
        let prompt = [1u32, 2, 3, 4];
        pc.insert(Some(0), &prompt, |_, _| panic!("first sighting: no export"));
        pc.insert(Some(0), &prompt, |lo, hi| rig.block(&prompt, lo, hi));
        assert!(pc.lookup(Some(1), &prompt).is_none());
        assert!(pc.lookup(None, &prompt).is_none());
        let hit = pc.lookup(Some(0), &prompt).expect("own root hits");
        pc.release(hit.lease);
    }

    #[test]
    fn budget_evicts_lru_but_never_leased_nodes() {
        let rig = Rig::new();
        let a = [1u32, 2, 3, 4, 5, 6, 7, 8];
        let one = rig.block(&a, 0, 8).memory_bytes();
        // Room for ~2 full prompts' rows.
        let mut pc = PrefixCache::new(2 * one + 1);
        pc.insert(None, &a, |_, _| panic!("first sighting: no export"));
        pc.insert(None, &a, |lo, hi| rig.block(&a, lo, hi));
        let b = [11u32, 12, 13, 14, 15, 16, 17, 18];
        pc.insert(None, &b, |_, _| panic!("first sighting: no export"));
        pc.insert(None, &b, |lo, hi| rig.block(&b, lo, hi));
        assert_eq!(pc.eviction_count(), 0);
        // Hold a lease on `a`'s path; inserting a third prompt must evict
        // `b` (LRU, unleased), never `a`.
        let hit = pc.lookup(None, &a).expect("hit");
        let c = [21u32, 22, 23, 24, 25, 26, 27, 28];
        pc.insert(None, &c, |_, _| panic!("first sighting: no export"));
        pc.insert(None, &c, |lo, hi| rig.block(&c, lo, hi));
        assert!(pc.eviction_count() >= 1);
        assert!(pc.lookup(None, &b).is_none(), "b evicted");
        let again = pc.lookup(None, &a).expect("leased path survives");
        pc.release(again.lease);
        pc.release(hit.lease);
        assert!(pc.bytes() <= 2 * one + 1);
    }

    #[test]
    fn zero_budget_disables_the_cache() {
        let mut pc = PrefixCache::new(0);
        assert!(!pc.enabled());
        let prompt = [1u32, 2, 3];
        pc.insert(None, &prompt, |_, _| panic!("disabled: no export"));
        assert!(pc.lookup(None, &prompt).is_none());
        assert_eq!(pc.lookup_count(), 0);
    }

    #[test]
    fn eviction_then_reinsertion_serves_fresh_blocks() {
        // The stale-KV regression this cache must never have: evict a
        // prefix, re-insert different tokens reusing the same arena slot,
        // and verify lookups return the *new* tokens' rows.
        let rig = Rig::new();
        let a = [1u32, 2, 3, 4];
        let one = rig.block(&a, 0, 4).memory_bytes();
        let mut pc = PrefixCache::new(one); // room for exactly one prompt
        pc.insert(None, &a, |_, _| panic!("first sighting: no export"));
        pc.insert(None, &a, |lo, hi| rig.block(&a, lo, hi));
        let b = [5u32, 6, 7, 8];
        pc.insert(None, &b, |_, _| panic!("first sighting: no export"));
        pc.insert(None, &b, |lo, hi| rig.block(&b, lo, hi));
        assert!(pc.lookup(None, &a).is_none(), "a evicted");
        let hit = pc.lookup(None, &b).expect("b cached");
        assert_eq!(hit.matched, 3);
        // The cached rows must be b's genuine KV rows, bit for bit.
        rig.assert_serves_cold_bits(&b, &hit);
        pc.release(hit.lease);
    }

    /// Walks the tree: parent and child links agree, every KV node's
    /// ancestors hold KV and were used no earlier than it, the LRU index
    /// holds exactly the live nodes, and the counters equal what the nodes
    /// hold.
    fn check_tree(pc: &PrefixCache) {
        let (mut kv, mut ghost, mut live) = (0, 0, 0);
        for (id, n) in pc.nodes.iter().enumerate() {
            let Some(n) = n else { continue };
            live += 1;
            assert!(pc.lru.contains(&(n.last_use, id)), "LRU entry");
            assert!(pc.children(n.parent).contains(&id), "parent link");
            for &c in &n.children {
                assert!(matches!(pc.node(c).parent, Parent::Node(p) if p == id));
                assert!(pc.node(c).last_use <= n.last_use, "child used later");
            }
            match &n.block {
                Some(b) => {
                    assert_eq!(b.rows(), n.tokens.len());
                    kv += b.memory_bytes();
                    let mut up = n.parent;
                    while let Parent::Node(p) = up {
                        assert!(pc.node(p).block.is_some(), "KV node under a ghost");
                        up = pc.node(p).parent;
                    }
                }
                None => ghost += ghost_bytes(n.tokens.len()),
            }
        }
        assert_eq!((pc.bytes(), pc.ghost_bytes()), (kv, ghost));
        assert_eq!((pc.node_count(), pc.lru.len()), (live, live));
    }

    #[test]
    fn one_sighting_exports_nothing_and_misses() {
        let mut pc = PrefixCache::new(1 << 20);
        let prompt = [1u32, 2, 3, 4, 5];
        pc.insert(None, &prompt, |_, _| panic!("first sighting: no export"));
        assert!(pc.lookup(None, &prompt).is_none(), "a ghost never hits");
        assert!(pc.lookup(None, &[1, 2, 3, 9]).is_none());
        assert_eq!(pc.bytes(), 0);
        assert_eq!(pc.ghost_bytes(), ghost_bytes(5));
        assert_eq!(pc.admission_count(), 0);
        check_tree(&pc);
    }

    #[test]
    fn second_sighting_exports_the_shared_rows_and_a_third_hits_them() {
        let rig = Rig::new();
        let mut pc = PrefixCache::new(1 << 20);
        let a = [1u32, 2, 3, 4, 5, 6];
        let b = [1u32, 2, 3, 9, 9, 9];
        pc.insert(None, &a, |_, _| panic!("first sighting: no export"));
        let mut exported = Vec::new();
        pc.insert(None, &b, |lo, hi| {
            exported.push((lo, hi));
            rig.block(&b, lo, hi)
        });
        assert_eq!(exported, [(0, 3)], "only the shared head is exported");
        assert_eq!(pc.admission_count(), 1);
        assert_eq!(pc.bytes(), rig.block(&b, 0, 3).memory_bytes());
        assert_eq!(
            pc.ghost_bytes(),
            2 * ghost_bytes(3),
            "both tails stay ghosts"
        );
        check_tree(&pc);
        let c = [1u32, 2, 3, 7];
        let hit = pc.lookup(None, &c).expect("the shared head hits");
        assert_eq!(hit.matched, 3);
        rig.assert_serves_cold_bits(&c, &hit);
        pc.release(hit.lease);
        // The lookup stopped at the ghost tails: `a` matches the head only.
        let hit = pc.lookup(None, &a).expect("hit");
        assert_eq!(hit.matched, 3);
        pc.release(hit.lease);
    }

    #[test]
    fn ghost_bytes_count_toward_the_budget_and_are_evicted_lru() {
        let rig = Rig::new();
        let prompts: Vec<[u32; 8]> = (0..4u32).map(|p| [10 * p + 1; 8]).collect();
        let three = 3 * ghost_bytes(8);
        let mut pc = PrefixCache::new(three);
        for p in &prompts[..3] {
            pc.insert(None, p, |_, _| panic!("first sighting: no export"));
        }
        assert_eq!((pc.ghost_bytes(), pc.eviction_count()), (three, 0));
        pc.insert(None, &prompts[3], |_, _| {
            panic!("first sighting: no export")
        });
        assert_eq!((pc.ghost_bytes(), pc.eviction_count()), (three, 1));
        assert_eq!(pc.node_count(), 3);
        check_tree(&pc);
        // The oldest ghost went: seeing prompt 0 again is a first sighting.
        pc.insert(None, &prompts[0], |_, _| panic!("evicted: no export"));
        assert_eq!(pc.eviction_count(), 2);
        // Prompt 2 is still a ghost: its second sighting exports it.
        let mut exported = Vec::new();
        pc.insert(None, &prompts[2], |lo, hi| {
            exported.push((lo, hi));
            rig.block(&prompts[2], lo, hi)
        });
        assert_eq!(exported, [(0, 8)]);
        check_tree(&pc);
    }

    #[test]
    fn short_one_off_prompts_cannot_outgrow_the_budget() {
        // Ghosts of 2-4 tokens hold little token data; their node storage
        // is what the budget must bound.
        let budget = 64 << 10;
        let mut pc = PrefixCache::new(budget);
        for i in 0..20_000u32 {
            let len = 2 + (i % 3) as usize;
            let prompt: Vec<u32> = (0..len as u32).map(|k| i * 7 + k).collect();
            pc.insert(None, &prompt, |_, _| panic!("one-off: no export"));
            assert!(pc.ghost_bytes() <= budget);
            assert!(pc.node_count() <= budget / mem::size_of::<Option<Node>>());
        }
        assert!(pc.eviction_count() > 10_000);
        check_tree(&pc);
    }

    #[test]
    fn growing_prompts_hit_the_turn_before_last() {
        // A chat resends its whole history each turn. Turn k's prompt
        // extends turn k-1's; only the part turn k-1 shared with turn k-2
        // has KV when turn k looks up, so turn 2 misses and turn k hits
        // turn k-2's prompt.
        let rig = Rig::new();
        let mut pc = PrefixCache::new(1 << 20);
        let history: Vec<u32> = (1..=20).collect();
        let turns = [4, 8, 12, 16, 20];
        let mut matched = Vec::new();
        for &len in &turns {
            let prompt = &history[..len];
            matched.push(pc.lookup(None, prompt).map_or(0, |hit| {
                pc.release(hit.lease);
                hit.matched
            }));
            pc.insert(None, prompt, |lo, hi| rig.block(prompt, lo, hi));
            check_tree(&pc);
        }
        assert_eq!(matched, [0, 0, 4, 8, 12]);
    }

    #[test]
    fn every_kv_node_has_kv_ancestors_under_churn() {
        let rig = Rig::new();
        let one = rig.block(&[1, 2, 3, 4, 5, 6], 0, 6).memory_bytes();
        let mut pc = PrefixCache::new(4 * one);
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut draw = |n: u64| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1);
            (state >> 33) % n
        };
        let mut held = Vec::new();
        for _ in 0..120 {
            // A three-letter alphabet makes shared heads and splits common.
            let len = 2 + draw(7) as usize;
            let prompt: Vec<u32> = (0..len).map(|_| 1 + draw(3) as u32).collect();
            if let Some(hit) = pc.lookup(None, &prompt) {
                held.push(hit.lease);
            }
            pc.insert(None, &prompt, |lo, hi| rig.block(&prompt, lo, hi));
            check_tree(&pc);
            if draw(2) == 0 {
                if let Some(lease) = held.pop() {
                    pc.release(lease);
                }
            }
        }
        assert!(pc.admission_count() > 0 && pc.eviction_count() > 0);
        for lease in held {
            pc.release(lease);
        }
    }
}
