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
//! - Under a byte budget, insertion evicts least-recently-used unleased
//!   leaves until the cache fits. A budget of zero disables the cache.
//! - Adapters key separate roots: a prefix cached under one adapter is
//!   never served to another (their KV rows differ).

use std::mem;

use apollo_nn::KvBlock;

/// One radix-tree node: a token span, its KV rows, and its children.
struct Node {
    /// Tokens this edge covers (≥ 1).
    tokens: Vec<u32>,
    /// KV rows for exactly those tokens, owned by the node.
    block: KvBlock,
    /// Child node ids; their spans start with pairwise-distinct tokens.
    children: Vec<usize>,
    /// Outstanding lookup leases (eviction guard, not aliasing).
    leases: usize,
    /// Logical clock of the last lookup/insert touching this node.
    last_use: u64,
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
/// lease-guarded LRU eviction, and a byte budget.
pub struct PrefixCache {
    /// Arena; `None` slots are free (ids are recycled via `free`).
    nodes: Vec<Option<Node>>,
    free: Vec<usize>,
    /// Root child lists, one per adapter key (`None` = base model).
    roots: Vec<(Option<u32>, Vec<usize>)>,
    bytes: usize,
    budget: usize,
    clock: u64,
    lookups: u64,
    hits: u64,
    hit_tokens: u64,
    evictions: u64,
}

impl PrefixCache {
    /// A cache evicting down to `budget_bytes` of block storage after each
    /// insertion. Zero disables caching entirely.
    pub fn new(budget_bytes: usize) -> Self {
        PrefixCache {
            nodes: Vec::new(),
            free: Vec::new(),
            roots: Vec::new(),
            bytes: 0,
            budget: budget_bytes,
            clock: 0,
            lookups: 0,
            hits: 0,
            hit_tokens: 0,
            evictions: 0,
        }
    }

    /// Whether the cache stores anything at all.
    pub fn enabled(&self) -> bool {
        self.budget > 0
    }

    /// Longest cached prefix of `prompt` under `adapter`, capped at
    /// `prompt.len() - 1` so at least one suffix token remains to prefill
    /// (the requester needs the last prompt row's logits to sample from).
    /// Returns `None` on a miss (zero tokens matched).
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
            let lcp = node
                .tokens
                .iter()
                .zip(&prompt[matched..])
                .take_while(|(a, b)| a == b)
                .count()
                .min(max_match - matched);
            debug_assert!(lcp >= 1);
            if lcp == node.tokens.len() {
                blocks.push(node.block.clone());
            } else {
                blocks.push(node.block.slice(0, lcp));
            }
            path.push(child);
            matched += lcp;
            if lcp < self.node(child).tokens.len() {
                break; // partial edge: nothing below can extend the match
            }
            children = &self.nodes[child].as_ref().expect("live node").children;
        }
        if matched == 0 {
            return None;
        }
        self.hits += 1;
        self.hit_tokens += matched as u64;
        let now = self.clock;
        for &id in &path {
            let n = self.node_mut(id);
            n.leases += 1;
            n.last_use = now;
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

    /// Inserts `tokens`' KV rows under `adapter`, exporting only the rows
    /// not already cached via `export(lo, hi)` (global token offsets —
    /// the scheduler maps these straight onto a freshly-prefilled slot's
    /// cache). Splits partial edges as needed; a fully-covered insertion
    /// is a no-op. Evicts down to the budget afterwards.
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
        // Walk down; `parent` of `None` means the root child list.
        let mut parent: Option<usize> = None;
        let mut pos = 0;
        loop {
            let children: &[usize] = match parent {
                None => &self.roots[root].1,
                Some(p) => &self.node(p).children,
            };
            let next = children
                .iter()
                .copied()
                .find(|&id| self.node(id).tokens[0] == tokens[pos]);
            let Some(child) = next else {
                // No edge starts with tokens[pos]: add the whole remainder
                // as one new leaf.
                let block = export(pos, tokens.len());
                self.bytes += block.memory_bytes();
                let id = self.alloc(Node {
                    tokens: tokens[pos..].to_vec(),
                    block,
                    children: Vec::new(),
                    leases: 0,
                    last_use: self.clock,
                });
                match parent {
                    None => self.roots[root].1.push(id),
                    Some(p) => self.node_mut(p).children.push(id),
                }
                break;
            };
            let span_len = self.node(child).tokens.len();
            let lcp = self
                .node(child)
                .tokens
                .iter()
                .zip(&tokens[pos..])
                .take_while(|(a, b)| a == b)
                .count();
            self.node_mut(child).last_use = self.clock;
            if lcp == span_len {
                pos += lcp;
                if pos == tokens.len() {
                    break; // fully covered already
                }
                parent = Some(child);
                continue;
            }
            // Diverges (or ends) mid-edge: split the edge at `lcp`. The
            // original node keeps the shared head (and its leases — a lease
            // only ever guards a prefix of what it copied); the new child
            // takes the tail, the block split is an exact row partition.
            self.split(child, lcp);
            pos += lcp;
            if pos < tokens.len() {
                let block = export(pos, tokens.len());
                self.bytes += block.memory_bytes();
                let id = self.alloc(Node {
                    tokens: tokens[pos..].to_vec(),
                    block,
                    children: Vec::new(),
                    leases: 0,
                    last_use: self.clock,
                });
                self.node_mut(child).children.push(id);
            }
            break;
        }
        self.evict_to_budget();
    }

    /// Splits node `id`'s span at `at` (`1 ≤ at < len`): the node keeps
    /// `tokens[..at]` and block rows `0..at`; a new child takes the rest,
    /// inheriting the node's children. Total bytes are unchanged (an exact
    /// row partition), so no budget accounting is needed.
    fn split(&mut self, id: usize, at: usize) {
        let (tail_tokens, tail_block, old_children, last_use) = {
            let n = self.node_mut(id);
            debug_assert!(at >= 1 && at < n.tokens.len());
            let tail_tokens = n.tokens.split_off(at);
            let tail_block = n.block.slice(at, at + tail_tokens.len());
            n.block = n.block.slice(0, at);
            (
                tail_tokens,
                tail_block,
                mem::take(&mut n.children),
                n.last_use,
            )
        };
        let tail = self.alloc(Node {
            tokens: tail_tokens,
            block: tail_block,
            children: old_children,
            leases: 0,
            last_use,
        });
        self.node_mut(id).children.push(tail);
    }

    /// Evicts least-recently-used unleased childless leaves until the
    /// cache fits its budget (or no evictable node remains).
    fn evict_to_budget(&mut self) {
        while self.bytes > self.budget {
            let victim = self
                .nodes
                .iter()
                .enumerate()
                .filter_map(|(id, n)| n.as_ref().map(|n| (id, n)))
                .filter(|(_, n)| n.children.is_empty() && n.leases == 0)
                .min_by_key(|(_, n)| n.last_use)
                .map(|(id, _)| id);
            let Some(id) = victim else { break };
            let node = self.nodes[id].take().expect("victim is live");
            self.bytes -= node.block.memory_bytes();
            self.free.push(id);
            self.evictions += 1;
            for (_, roots) in &mut self.roots {
                roots.retain(|&c| c != id);
            }
            for n in self.nodes.iter_mut().flatten() {
                n.children.retain(|&c| c != id);
            }
        }
    }

    fn alloc(&mut self, node: Node) -> usize {
        match self.free.pop() {
            Some(id) => {
                self.nodes[id] = Some(node);
                id
            }
            None => {
                self.nodes.push(Some(node));
                self.nodes.len() - 1
            }
        }
    }

    fn node(&self, id: usize) -> &Node {
        self.nodes[id].as_ref().expect("live node")
    }

    fn node_mut(&mut self, id: usize) -> &mut Node {
        self.nodes[id].as_mut().expect("live node")
    }

    /// Bytes of cached block storage.
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// Live node count.
    pub fn node_count(&self) -> usize {
        self.nodes.iter().flatten().count()
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

    /// Leaf evictions since construction.
    pub fn eviction_count(&self) -> u64 {
        self.evictions
    }
}

impl std::fmt::Debug for PrefixCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PrefixCache")
            .field("nodes", &self.node_count())
            .field("bytes", &self.bytes)
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
    }

    #[test]
    fn miss_then_hit_with_suffix_reserved() {
        let rig = Rig::new();
        let mut pc = PrefixCache::new(1 << 20);
        let prompt = [1u32, 2, 3, 4, 5];
        assert!(pc.lookup(None, &prompt).is_none());
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
        pc.insert(None, &a, |lo, hi| rig.block(&a, lo, hi));
        let b = [11u32, 12, 13, 14, 15, 16, 17, 18];
        pc.insert(None, &b, |lo, hi| rig.block(&b, lo, hi));
        assert_eq!(pc.eviction_count(), 0);
        // Hold a lease on `a`'s path; inserting a third prompt must evict
        // `b` (LRU, unleased), never `a`.
        let hit = pc.lookup(None, &a).expect("hit");
        let c = [21u32, 22, 23, 24, 25, 26, 27, 28];
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
        pc.insert(None, &a, |lo, hi| rig.block(&a, lo, hi));
        let b = [5u32, 6, 7, 8];
        pc.insert(None, &b, |lo, hi| rig.block(&b, lo, hi));
        assert!(pc.lookup(None, &a).is_none(), "a evicted");
        let hit = pc.lookup(None, &b).expect("b cached");
        assert_eq!(hit.matched, 3);
        // The cached rows must be b's genuine KV rows, bit for bit.
        let fresh = rig.block(&b, 0, 3);
        let mut caches = rig.backend.new_caches(2, 16);
        caches.append_block(0, &hit.blocks[0]);
        caches.append_block(1, &fresh);
        let h = rig
            .backend
            .forward_cached(&mut caches, &[(0, b[3]), (1, b[3])]);
        let logits = rig.backend.lm_logits(&h);
        for (x, y) in logits.row(0).iter().zip(logits.row(1)) {
            assert!(x.to_bits() == y.to_bits(), "stale KV served");
        }
        pc.release(hit.lease);
    }
}
