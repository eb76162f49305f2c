//! LRU stack-distance models.
//!
//! The working-set profiler of Section 6.1 needs, for every memory reference,
//! the *LRU stack distance* of the referenced line: the number of distinct
//! lines accessed since the previous access to that line.  A fully-associative
//! LRU cache of capacity `K` lines hits exactly when the distance is `< K`,
//! so one pass over a trace yields the miss counts for *every* cache size at
//! once.
//!
//! Two implementations are provided:
//!
//! * [`OrderStatStack`] — the paper's `LruTree` structure: the LRU stack with a
//!   counted search tree on top so that distance queries and moves-to-front
//!   cost `O(log n)`.  We use a treap with parent pointers in place of the
//!   paper's B-tree; the asymptotics and the one-pass property are identical;
//! * [`NaiveLruStack`] — a `Vec`-backed stack with `O(n)` accesses, the
//!   oracle `OrderStatStack` is tested against.

use std::collections::HashMap;

/// Common interface of the stack-distance models.
pub trait StackDistanceModel {
    /// Access `line`, returning its LRU stack distance **before** the access
    /// (0 means the line was the most recently used), or `None` if the line
    /// has never been accessed (a cold miss at every cache size).
    fn access(&mut self, line: u64) -> Option<u64>;

    /// Number of distinct lines seen so far.
    fn num_lines(&self) -> usize;
}

// ---------------------------------------------------------------------------
// Naive reference implementation
// ---------------------------------------------------------------------------

/// `O(n)`-per-access reference implementation of the LRU stack.
#[derive(Clone, Debug, Default)]
pub struct NaiveLruStack {
    /// Front (index 0) is the most recently used line.
    stack: Vec<u64>,
}

impl NaiveLruStack {
    /// An empty stack.
    pub fn new() -> Self {
        Self::default()
    }
}

impl StackDistanceModel for NaiveLruStack {
    fn access(&mut self, line: u64) -> Option<u64> {
        if let Some(pos) = self.stack.iter().position(|&l| l == line) {
            self.stack.remove(pos);
            self.stack.insert(0, line);
            Some(pos as u64)
        } else {
            self.stack.insert(0, line);
            None
        }
    }

    fn num_lines(&self) -> usize {
        self.stack.len()
    }
}

// ---------------------------------------------------------------------------
// Order-statistic treap ("LruTree")
// ---------------------------------------------------------------------------

const NIL: u32 = u32::MAX;

#[derive(Clone, Debug)]
struct TreapNode {
    left: u32,
    right: u32,
    parent: u32,
    prio: u64,
    size: u32,
    line: u64,
}

/// The paper's `LruTree`: an LRU stack augmented with a counted tree so a
/// reference's stack distance can be computed and the line moved to the top
/// in `O(log n)`.
///
/// Internally this is an *implicit treap* (tree ordered by stack position,
/// heap-ordered by random priorities) stored in an arena, with parent pointers
/// so the rank of a node can be recovered from a handle by walking to the
/// root.
#[derive(Clone, Debug)]
pub struct OrderStatStack {
    nodes: Vec<TreapNode>,
    free: Vec<u32>,
    root: u32,
    handles: HashMap<u64, u32>,
    rng_state: u64,
}

impl Default for OrderStatStack {
    fn default() -> Self {
        Self::new()
    }
}

impl OrderStatStack {
    /// An empty stack.
    pub fn new() -> Self {
        OrderStatStack {
            nodes: Vec::new(),
            free: Vec::new(),
            root: NIL,
            handles: HashMap::new(),
            rng_state: 0x9E37_79B9_7F4A_7C15,
        }
    }

    /// An empty stack with space pre-reserved for `capacity` lines.
    pub fn with_capacity(capacity: usize) -> Self {
        let mut s = Self::new();
        s.nodes.reserve(capacity);
        s.handles.reserve(capacity);
        s
    }

    fn next_prio(&mut self) -> u64 {
        // xorshift64*
        let mut x = self.rng_state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng_state = x;
        x
    }

    #[inline]
    fn size(&self, i: u32) -> u32 {
        if i == NIL {
            0
        } else {
            self.nodes[i as usize].size
        }
    }

    #[inline]
    fn update(&mut self, i: u32) {
        let l = self.size(self.nodes[i as usize].left);
        let r = self.size(self.nodes[i as usize].right);
        self.nodes[i as usize].size = 1 + l + r;
    }

    #[inline]
    fn set_left(&mut self, p: u32, c: u32) {
        self.nodes[p as usize].left = c;
        if c != NIL {
            self.nodes[c as usize].parent = p;
        }
    }

    #[inline]
    fn set_right(&mut self, p: u32, c: u32) {
        self.nodes[p as usize].right = c;
        if c != NIL {
            self.nodes[c as usize].parent = p;
        }
    }

    fn merge(&mut self, a: u32, b: u32) -> u32 {
        if a == NIL {
            if b != NIL {
                self.nodes[b as usize].parent = NIL;
            }
            return b;
        }
        if b == NIL {
            self.nodes[a as usize].parent = NIL;
            return a;
        }
        if self.nodes[a as usize].prio > self.nodes[b as usize].prio {
            let ar = self.nodes[a as usize].right;
            let r = self.merge(ar, b);
            self.set_right(a, r);
            self.update(a);
            self.nodes[a as usize].parent = NIL;
            a
        } else {
            let bl = self.nodes[b as usize].left;
            let l = self.merge(a, bl);
            self.set_left(b, l);
            self.update(b);
            self.nodes[b as usize].parent = NIL;
            b
        }
    }

    /// Split into (first `k` nodes, rest).
    fn split(&mut self, t: u32, k: u32) -> (u32, u32) {
        if t == NIL {
            return (NIL, NIL);
        }
        let left_size = self.size(self.nodes[t as usize].left);
        if left_size >= k {
            let tl = self.nodes[t as usize].left;
            let (l, r) = self.split(tl, k);
            self.set_left(t, r);
            self.update(t);
            self.nodes[t as usize].parent = NIL;
            if l != NIL {
                self.nodes[l as usize].parent = NIL;
            }
            (l, t)
        } else {
            let tr = self.nodes[t as usize].right;
            let (l, r) = self.split(tr, k - left_size - 1);
            self.set_right(t, l);
            self.update(t);
            self.nodes[t as usize].parent = NIL;
            if r != NIL {
                self.nodes[r as usize].parent = NIL;
            }
            (t, r)
        }
    }

    /// Stack position of the node `h` (0 = top of stack).
    fn rank(&self, h: u32) -> u64 {
        let mut r = self.size(self.nodes[h as usize].left) as u64;
        let mut cur = h;
        loop {
            let p = self.nodes[cur as usize].parent;
            if p == NIL {
                break;
            }
            if self.nodes[p as usize].right == cur {
                r += self.size(self.nodes[p as usize].left) as u64 + 1;
            }
            cur = p;
        }
        r
    }

    fn alloc_node(&mut self, line: u64) -> u32 {
        let prio = self.next_prio();
        if let Some(idx) = self.free.pop() {
            let n = &mut self.nodes[idx as usize];
            n.left = NIL;
            n.right = NIL;
            n.parent = NIL;
            n.prio = prio;
            n.size = 1;
            n.line = line;
            idx
        } else {
            let idx = self.nodes.len() as u32;
            self.nodes.push(TreapNode {
                left: NIL,
                right: NIL,
                parent: NIL,
                prio,
                size: 1,
                line,
            });
            idx
        }
    }

    /// The line currently at the bottom of the stack (the LRU line), if any.
    pub fn lru_line(&self) -> Option<u64> {
        if self.root == NIL {
            return None;
        }
        let mut cur = self.root;
        while self.nodes[cur as usize].right != NIL {
            cur = self.nodes[cur as usize].right;
        }
        Some(self.nodes[cur as usize].line)
    }

    /// Remove and return the LRU (bottom) line.  Used when this structure
    /// backs a bounded LRU cache rather than an unbounded profiler stack.
    pub fn pop_lru(&mut self) -> Option<u64> {
        let n = self.size(self.root);
        if n == 0 {
            return None;
        }
        let (rest, last) = self.split(self.root, n - 1);
        self.root = rest;
        debug_assert_eq!(self.size(last), 1);
        let line = self.nodes[last as usize].line;
        self.handles.remove(&line);
        self.free.push(last);
        Some(line)
    }

    /// The current stack contents from most- to least-recently used
    /// (an `O(n)` operation, intended for tests and debugging).
    pub fn to_vec(&self) -> Vec<u64> {
        let mut out = Vec::with_capacity(self.size(self.root) as usize);
        // Iterative in-order traversal.
        let mut stack = Vec::new();
        let mut cur = self.root;
        while cur != NIL || !stack.is_empty() {
            while cur != NIL {
                stack.push(cur);
                cur = self.nodes[cur as usize].left;
            }
            let n = stack.pop().unwrap();
            out.push(self.nodes[n as usize].line);
            cur = self.nodes[n as usize].right;
        }
        out
    }
}

impl StackDistanceModel for OrderStatStack {
    fn access(&mut self, line: u64) -> Option<u64> {
        if let Some(&h) = self.handles.get(&line) {
            let r = self.rank(h);
            // Remove the node at rank r ...
            let (a, bc) = self.split(self.root, r as u32);
            let (b, c) = self.split(bc, 1);
            debug_assert_eq!(b, h, "rank/handle mismatch in OrderStatStack");
            let rest = self.merge(a, c);
            // ... and reinsert it at the top of the stack.
            self.nodes[h as usize].left = NIL;
            self.nodes[h as usize].right = NIL;
            self.nodes[h as usize].parent = NIL;
            self.nodes[h as usize].size = 1;
            self.root = self.merge(h, rest);
            Some(r)
        } else {
            let h = self.alloc_node(line);
            self.handles.insert(line, h);
            self.root = self.merge(h, self.root);
            None
        }
    }

    fn num_lines(&self) -> usize {
        self.handles.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn distances<M: StackDistanceModel>(model: &mut M, trace: &[u64]) -> Vec<Option<u64>> {
        trace.iter().map(|&l| model.access(l)).collect()
    }

    #[test]
    fn naive_known_sequence() {
        let mut m = NaiveLruStack::new();
        let d = distances(&mut m, &[1, 2, 3, 1, 2, 2, 3]);
        assert_eq!(
            d,
            vec![None, None, None, Some(2), Some(2), Some(0), Some(2)]
        );
        assert_eq!(m.num_lines(), 3);
    }

    #[test]
    fn treap_matches_naive_on_known_sequence() {
        let trace = [1u64, 2, 3, 1, 2, 2, 3, 4, 1, 4, 3, 2, 1];
        let mut naive = NaiveLruStack::new();
        let mut treap = OrderStatStack::new();
        assert_eq!(distances(&mut naive, &trace), distances(&mut treap, &trace));
    }

    #[test]
    fn all_models_agree_on_pseudorandom_trace() {
        // Deterministic pseudo-random trace with a skewed reuse pattern.
        let mut x: u64 = 12345;
        let mut trace = Vec::new();
        for _ in 0..5000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            trace.push(x % 257);
        }
        let mut naive = NaiveLruStack::new();
        let mut treap = OrderStatStack::new();
        assert_eq!(distances(&mut naive, &trace), distances(&mut treap, &trace));
        assert_eq!(naive.num_lines(), treap.num_lines());
    }

    #[test]
    fn treap_stack_order_matches_naive() {
        let mut x: u64 = 999;
        let mut naive = NaiveLruStack::new();
        let mut treap = OrderStatStack::new();
        for _ in 0..2000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let line = x % 97;
            naive.access(line);
            treap.access(line);
        }
        assert_eq!(treap.to_vec(), naive.stack);
    }

    #[test]
    fn treap_pop_lru_removes_bottom() {
        let mut treap = OrderStatStack::new();
        for l in [10u64, 20, 30] {
            treap.access(l);
        }
        assert_eq!(treap.lru_line(), Some(10));
        assert_eq!(treap.pop_lru(), Some(10));
        assert_eq!(treap.num_lines(), 2);
        // 10 is gone, so re-accessing it is a cold access.
        assert_eq!(treap.access(10), None);
    }

    #[test]
    fn repeated_single_line_distance_zero() {
        let mut treap = OrderStatStack::new();
        assert_eq!(treap.access(5), None);
        for _ in 0..100 {
            assert_eq!(treap.access(5), Some(0));
        }
        assert_eq!(treap.num_lines(), 1);
    }

    #[test]
    fn streaming_scan_has_no_reuse() {
        let mut treap = OrderStatStack::new();
        for l in 0..10_000u64 {
            assert_eq!(treap.access(l), None);
        }
        assert_eq!(treap.num_lines(), 10_000);
    }

    #[test]
    fn cyclic_scan_distance_equals_working_set() {
        // Scanning N lines cyclically gives distance N-1 after the first lap.
        let n = 64u64;
        let mut treap = OrderStatStack::new();
        let mut naive = NaiveLruStack::new();
        for lap in 0..4 {
            for l in 0..n {
                let expect = if lap == 0 { None } else { Some(n - 1) };
                assert_eq!(treap.access(l), expect);
                assert_eq!(naive.access(l), expect);
            }
        }
    }
}
