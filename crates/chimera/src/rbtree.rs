//! A from-scratch red-black tree.
//!
//! The paper notes that "on each node, Chimera provides a logical tree view
//! of other nodes in the overlay, implemented as a red-black tree". This
//! module reproduces that data structure rather than borrowing
//! `std::collections::BTreeMap`: a left-leaning red-black tree (Sedgewick's
//! 2-3 variant), which satisfies the classic red-black invariants —
//! the root is black, no red node has a red child, and every root-to-leaf
//! path crosses the same number of black nodes — guaranteeing `O(log n)`
//! lookups, inserts, and deletes.
//!
//! The overlay uses it as the ordered view of all known peers, from which
//! leaf sets (ring neighbours) and `chimeraGetDecision` candidate lists are
//! derived.
//!
//! The nodes of one tree live in one arena (a `Vec`) and link by `u32`
//! index, so a view of n peers is one allocation, not n. The arena grows by
//! an eighth at a time, not by doubling, and stays dense: a removal moves
//! the last node into the freed slot. [`RbTree::from_sorted`] lays out ascending entries in
//! O(n) without a single rotation, and [`RbTree::upsert`] finds or inserts
//! in one descent. Every reader answers from the set of keys alone, never
//! from the tree's shape, so two trees with the same entries answer alike
//! however they were built.

use std::cmp::Ordering;
use std::fmt;

/// The absent link.
const NIL: u32 = u32::MAX;

/// The deepest left spine an in-order walk can stack: a left-leaning
/// red-black tree of n nodes is at most 2·log₂(n + 1) high, and an arena
/// indexed by `u32` holds fewer than 2³² nodes.
const MAX_DEPTH: usize = 64;

#[derive(Debug, Clone)]
struct Node<K, V> {
    key: K,
    value: V,
    left: u32,
    right: u32,
    red: bool,
}

/// An ordered map implemented as a left-leaning red-black tree.
///
/// # Examples
///
/// ```
/// use c4h_chimera::RbTree;
///
/// let mut t = RbTree::new();
/// t.insert(3, "c");
/// t.insert(1, "a");
/// t.insert(2, "b");
/// assert_eq!(t.get(&2), Some(&"b"));
/// let keys: Vec<i32> = t.iter().map(|(k, _)| *k).collect();
/// assert_eq!(keys, vec![1, 2, 3]);
/// assert_eq!(t.remove(&2), Some("b"));
/// assert_eq!(t.len(), 2);
/// ```
#[derive(Clone)]
pub struct RbTree<K, V> {
    nodes: Vec<Node<K, V>>,
    root: u32,
}

/// What [`RbTree::seek`] finds around a key in one descent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Seek<'a, K, V> {
    /// The entry at the key itself.
    pub hit: Option<(&'a K, &'a V)>,
    /// The largest entry with a key strictly less.
    pub prev: Option<(&'a K, &'a V)>,
    /// The smallest entry with a key strictly greater.
    pub next: Option<(&'a K, &'a V)>,
}

impl<K: fmt::Debug, V: fmt::Debug> fmt::Debug for RbTree<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

impl<K, V> Default for RbTree<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

/// The height of the shortest 2-3 tree holding `n` keys: the least `h`
/// with 3^h − 1 ≥ n.
fn height_23(n: usize) -> u32 {
    let mut h = 0;
    while 3u128.pow(h) - 1 < n as u128 {
        h += 1;
    }
    h
}

impl<K, V> RbTree<K, V> {
    /// Creates an empty tree.
    pub fn new() -> Self {
        RbTree {
            nodes: Vec::new(),
            root: NIL,
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Returns `true` if the tree holds no entries.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// In-order iterator over entries. Allocates nothing.
    pub fn iter(&self) -> Iter<'_, K, V> {
        let mut it = Iter {
            nodes: &self.nodes,
            stack: [NIL; MAX_DEPTH],
            depth: 0,
        };
        it.push_left(self.root);
        it
    }

    /// In-order iterator over keys.
    pub fn keys(&self) -> impl Iterator<Item = &K> {
        self.iter().map(|(k, _)| k)
    }

    fn is_red(&self, i: u32) -> bool {
        i != NIL && self.nodes[i as usize].red
    }

    /// Whether `i` is a node whose left child is red.
    fn is_red_left(&self, i: u32) -> bool {
        i != NIL && self.is_red(self.left(i))
    }

    fn left(&self, i: u32) -> u32 {
        self.nodes[i as usize].left
    }

    fn right(&self, i: u32) -> u32 {
        self.nodes[i as usize].right
    }

    fn entry(&self, i: u32) -> Option<(&K, &V)> {
        (i != NIL).then(|| {
            let n = &self.nodes[i as usize];
            (&n.key, &n.value)
        })
    }

    /// Appends a detached node, growing the arena by an eighth when full
    /// rather than doubling it: a view bulk-loaded at join and then grown
    /// by a few announced peers keeps little spare capacity.
    fn push(&mut self, key: K, value: V, red: bool) -> u32 {
        assert!(
            self.nodes.len() < NIL as usize,
            "an arena holds < 2³² − 1 nodes"
        );
        if self.nodes.len() == self.nodes.capacity() {
            self.nodes.reserve_exact((self.nodes.len() / 8).max(4));
        }
        self.nodes.push(Node {
            key,
            value,
            left: NIL,
            right: NIL,
            red,
        });
        (self.nodes.len() - 1) as u32
    }

    fn rotate_left(&mut self, h: u32) -> u32 {
        let x = self.right(h);
        debug_assert_ne!(x, NIL, "rotate_left requires a right child");
        self.nodes[h as usize].right = self.left(x);
        self.nodes[x as usize].left = h;
        self.nodes[x as usize].red = self.nodes[h as usize].red;
        self.nodes[h as usize].red = true;
        x
    }

    fn rotate_right(&mut self, h: u32) -> u32 {
        let x = self.left(h);
        debug_assert_ne!(x, NIL, "rotate_right requires a left child");
        self.nodes[h as usize].left = self.right(x);
        self.nodes[x as usize].right = h;
        self.nodes[x as usize].red = self.nodes[h as usize].red;
        self.nodes[h as usize].red = true;
        x
    }

    fn flip_colors(&mut self, h: u32) {
        for i in [h, self.left(h), self.right(h)] {
            if i != NIL {
                let n = &mut self.nodes[i as usize];
                n.red = !n.red;
            }
        }
    }

    fn fix_up(&mut self, mut h: u32) -> u32 {
        if self.is_red(self.right(h)) && !self.is_red(self.left(h)) {
            h = self.rotate_left(h);
        }
        if self.is_red(self.left(h)) && self.is_red_left(self.left(h)) {
            h = self.rotate_right(h);
        }
        if self.is_red(self.left(h)) && self.is_red(self.right(h)) {
            self.flip_colors(h);
        }
        h
    }

    fn move_red_left(&mut self, mut h: u32) -> u32 {
        self.flip_colors(h);
        let r = self.right(h);
        if self.is_red_left(r) {
            self.nodes[h as usize].right = self.rotate_right(r);
            h = self.rotate_left(h);
            self.flip_colors(h);
        }
        h
    }

    fn move_red_right(&mut self, mut h: u32) -> u32 {
        self.flip_colors(h);
        if self.is_red_left(self.left(h)) {
            h = self.rotate_right(h);
            self.flip_colors(h);
        }
        h
    }

    /// Detaches the minimum of the subtree at `h`; returns the subtree's
    /// new root and the detached node.
    fn remove_min_rec(&mut self, mut h: u32) -> (u32, u32) {
        if self.left(h) == NIL {
            return (NIL, h);
        }
        if !self.is_red(self.left(h)) && !self.is_red_left(self.left(h)) {
            h = self.move_red_left(h);
        }
        let (l, min) = self.remove_min_rec(self.left(h));
        self.nodes[h as usize].left = l;
        (self.fix_up(h), min)
    }

    /// Frees the detached node `gone`: the last node moves into its slot
    /// and the link that reached it follows.
    fn compact(&mut self, gone: u32) -> Node<K, V>
    where
        K: Ord,
    {
        let last = (self.nodes.len() - 1) as u32;
        if gone != last {
            let key = &self.nodes[last as usize].key;
            let mut link: Option<u32> = None;
            let mut cur = self.root;
            while cur != last {
                link = Some(cur);
                let n = &self.nodes[cur as usize];
                cur = if *key < n.key { n.left } else { n.right };
            }
            match link {
                None => self.root = gone,
                Some(p) if self.left(p) == last => self.nodes[p as usize].left = gone,
                Some(p) => self.nodes[p as usize].right = gone,
            }
        }
        self.nodes.swap_remove(gone as usize)
    }
}

impl<K: Ord, V> RbTree<K, V> {
    /// Builds a tree from entries in strictly ascending key order, in O(n)
    /// and one allocation when the iterator knows its upper bound.
    ///
    /// The entries form the shortest 2-3 tree that holds them, every leaf
    /// at the same depth, each 3-node encoded as a black node with a red
    /// left child.
    ///
    /// # Panics
    ///
    /// Panics if the keys are not strictly ascending.
    ///
    /// # Examples
    ///
    /// ```
    /// use c4h_chimera::RbTree;
    ///
    /// let t = RbTree::from_sorted((0..10).map(|k| (k, k * k)));
    /// assert_eq!(t.get(&7), Some(&49));
    /// assert!(t.check_invariants().is_ok());
    /// ```
    pub fn from_sorted<I: IntoIterator<Item = (K, V)>>(entries: I) -> Self {
        let entries = entries.into_iter();
        let (lower, upper) = entries.size_hint();
        let mut nodes: Vec<Node<K, V>> = Vec::with_capacity(upper.unwrap_or(lower));
        for (key, value) in entries {
            if let Some(prev) = nodes.last() {
                assert!(prev.key < key, "from_sorted: keys not strictly ascending");
            }
            nodes.push(Node {
                key,
                value,
                left: NIL,
                right: NIL,
                red: false,
            });
        }
        let mut tree = RbTree { nodes, root: NIL };
        let n = tree.nodes.len();
        assert!(n < NIL as usize, "an arena holds < 2³² − 1 nodes");
        tree.root = tree.link_23(0, n, height_23(n));
        debug_assert_eq!(tree.check_invariants(), Ok(()));
        tree
    }

    /// Links the arena slots `first..first + n`, already in key order, as
    /// a 2-3 tree of height `h` (which must hold n: 2^h − 1 ≤ n ≤ 3^h − 1)
    /// and returns its root.
    fn link_23(&mut self, first: usize, n: usize, h: u32) -> u32 {
        if n == 0 {
            return NIL;
        }
        let sub = h - 1;
        if (n as u128) < 2 * 3u128.pow(sub) {
            // A 2-node: one key between two subtrees of height h − 1.
            let a = (n - 1) / 2;
            let l = self.link_23(first, a, sub);
            let x = (first + a) as u32;
            let r = self.link_23(first + a + 1, n - 1 - a, sub);
            let node = &mut self.nodes[x as usize];
            (node.left, node.right) = (l, r);
            x
        } else {
            // A 3-node: keys y < x between three subtrees, encoded as black
            // x with red left child y.
            let rest = n - 2;
            let a = rest / 3;
            let b = (rest - a) / 2;
            let c = rest - a - b;
            let y = (first + a) as u32;
            let x = (first + a + 1 + b) as u32;
            let yl = self.link_23(first, a, sub);
            let yr = self.link_23(first + a + 1, b, sub);
            let xr = self.link_23(first + a + b + 2, c, sub);
            let small = &mut self.nodes[y as usize];
            (small.left, small.right, small.red) = (yl, yr, true);
            let big = &mut self.nodes[x as usize];
            (big.left, big.right) = (y, xr);
            x
        }
    }

    fn find(&self, key: &K) -> u32 {
        let mut cur = self.root;
        while cur != NIL {
            let n = &self.nodes[cur as usize];
            match key.cmp(&n.key) {
                Ordering::Less => cur = n.left,
                Ordering::Greater => cur = n.right,
                Ordering::Equal => return cur,
            }
        }
        NIL
    }

    /// Looks up the value for `key`.
    pub fn get(&self, key: &K) -> Option<&V> {
        self.entry(self.find(key)).map(|(_, v)| v)
    }

    /// Looks up the value for `key`, mutably.
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        match self.find(key) {
            NIL => None,
            i => Some(&mut self.nodes[i as usize].value),
        }
    }

    /// Returns `true` if the tree contains `key`.
    pub fn contains(&self, key: &K) -> bool {
        self.find(key) != NIL
    }

    /// Inserts a key-value pair, returning the previous value if the key was
    /// present.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        let mut value = Some(value);
        let (slot, inserted) = self.upsert(key, || value.take().expect("made once"));
        match value {
            Some(value) if !inserted => Some(std::mem::replace(slot, value)),
            _ => None,
        }
    }

    /// The value for `key`, inserting `make()` first if the key is absent,
    /// in one descent. The flag says whether it inserted.
    ///
    /// # Examples
    ///
    /// ```
    /// use c4h_chimera::RbTree;
    ///
    /// let mut t = RbTree::new();
    /// let (v, inserted) = t.upsert("k", || 1);
    /// assert!(inserted);
    /// *v += 1;
    /// assert_eq!(t.upsert("k", || 0), (&mut 2, false));
    /// ```
    pub fn upsert(&mut self, key: K, make: impl FnOnce() -> V) -> (&mut V, bool) {
        let mut at = (NIL, false);
        let root = self.upsert_rec(self.root, key, make, &mut at);
        self.root = root;
        self.nodes[root as usize].red = false;
        (&mut self.nodes[at.0 as usize].value, at.1)
    }

    fn upsert_rec(
        &mut self,
        h: u32,
        key: K,
        make: impl FnOnce() -> V,
        at: &mut (u32, bool),
    ) -> u32 {
        if h == NIL {
            let i = self.push(key, make(), true);
            *at = (i, true);
            return i;
        }
        match key.cmp(&self.nodes[h as usize].key) {
            Ordering::Less => {
                let l = self.upsert_rec(self.left(h), key, make, at);
                self.nodes[h as usize].left = l;
            }
            Ordering::Greater => {
                let r = self.upsert_rec(self.right(h), key, make, at);
                self.nodes[h as usize].right = r;
            }
            Ordering::Equal => {
                *at = (h, false);
                return h;
            }
        }
        // A hit changed no link below, so the path needs no fix-up.
        if at.1 {
            self.fix_up(h)
        } else {
            h
        }
    }

    /// Removes `key`, returning its value if present.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        if !self.contains(key) {
            return None;
        }
        // LLRB delete requires the root to be treated as red when both
        // children are black.
        let root = self.root;
        if !self.is_red(self.left(root)) && !self.is_red(self.right(root)) {
            self.nodes[root as usize].red = true;
        }
        let mut gone = NIL;
        self.root = self.remove_rec(root, key, &mut gone);
        if self.root != NIL {
            self.nodes[self.root as usize].red = false;
        }
        Some(self.compact(gone).value)
    }

    /// Removes `key` from the subtree at `h`, leaving its node detached in
    /// `gone`; returns the subtree's new root.
    fn remove_rec(&mut self, mut h: u32, key: &K, gone: &mut u32) -> u32 {
        if *key < self.nodes[h as usize].key {
            if !self.is_red(self.left(h)) && !self.is_red_left(self.left(h)) {
                h = self.move_red_left(h);
            }
            let l = self.remove_rec(self.left(h), key, gone);
            self.nodes[h as usize].left = l;
            return self.fix_up(h);
        }
        if self.is_red(self.left(h)) {
            h = self.rotate_right(h);
        }
        if *key == self.nodes[h as usize].key && self.right(h) == NIL {
            *gone = h;
            return NIL;
        }
        if !self.is_red(self.right(h)) && !self.is_red_left(self.right(h)) {
            h = self.move_red_right(h);
        }
        if *key == self.nodes[h as usize].key {
            // The successor (min of the right subtree) takes h's place.
            let (r, min) = self.remove_min_rec(self.right(h));
            let (left, red) = (self.left(h), self.nodes[h as usize].red);
            let m = &mut self.nodes[min as usize];
            (m.left, m.right, m.red) = (left, r, red);
            *gone = h;
            self.fix_up(min)
        } else {
            let r = self.remove_rec(self.right(h), key, gone);
            self.nodes[h as usize].right = r;
            self.fix_up(h)
        }
    }

    /// The smallest entry.
    pub fn min(&self) -> Option<(&K, &V)> {
        let mut cur = self.root;
        while cur != NIL && self.left(cur) != NIL {
            cur = self.left(cur);
        }
        self.entry(cur)
    }

    /// The largest entry.
    pub fn max(&self) -> Option<(&K, &V)> {
        let mut cur = self.root;
        while cur != NIL && self.right(cur) != NIL {
            cur = self.right(cur);
        }
        self.entry(cur)
    }

    /// The smallest entry with key strictly greater than `key`.
    pub fn next_after(&self, key: &K) -> Option<(&K, &V)> {
        self.seek(key).next
    }

    /// The largest entry with key strictly less than `key`.
    pub fn prev_before(&self, key: &K) -> Option<(&K, &V)> {
        self.seek(key).prev
    }

    /// The entry at `key` and its strict neighbours, in one descent: past
    /// a hit the walk goes on down the hit's two subtrees' inner spines.
    pub fn seek(&self, key: &K) -> Seek<'_, K, V> {
        let (mut hit, mut prev, mut next) = (NIL, NIL, NIL);
        let mut cur = self.root;
        while cur != NIL {
            let n = &self.nodes[cur as usize];
            match key.cmp(&n.key) {
                Ordering::Less => {
                    next = cur;
                    cur = n.left;
                }
                Ordering::Greater => {
                    prev = cur;
                    cur = n.right;
                }
                Ordering::Equal => {
                    hit = cur;
                    break;
                }
            }
        }
        if hit != NIL {
            let mut cur = self.left(hit);
            while cur != NIL {
                prev = cur;
                cur = self.right(cur);
            }
            let mut cur = self.right(hit);
            while cur != NIL {
                next = cur;
                cur = self.left(cur);
            }
        }
        Seek {
            hit: self.entry(hit),
            prev: self.entry(prev),
            next: self.entry(next),
        }
    }

    /// Verifies the red-black invariants; used by tests and debug assertions.
    ///
    /// Checks: root is black; no red node has a red child and no red link
    /// leans right; every path from the root to a leaf crosses the same
    /// number of black nodes; keys are in strict order; every arena slot is
    /// reached exactly once.
    pub fn check_invariants(&self) -> Result<(), String> {
        if self.is_red(self.root) {
            return Err("root is red".into());
        }
        fn walk<K: Ord, V>(
            t: &RbTree<K, V>,
            i: u32,
            lo: Option<&K>,
            hi: Option<&K>,
            seen: &mut usize,
        ) -> Result<usize, String> {
            if i == NIL {
                return Ok(1);
            }
            let Some(n) = t.nodes.get(i as usize) else {
                return Err(format!("link {i} past the arena's {} slots", t.nodes.len()));
            };
            *seen += 1;
            if *seen > t.nodes.len() {
                return Err("a slot is reached twice".into());
            }
            if lo.is_some_and(|lo| n.key <= *lo) {
                return Err("key order violated (lower bound)".into());
            }
            if hi.is_some_and(|hi| n.key >= *hi) {
                return Err("key order violated (upper bound)".into());
            }
            if n.red && (t.is_red(n.left) || t.is_red(n.right)) {
                return Err("red node with red child".into());
            }
            if t.is_red(n.right) {
                return Err("red link leans right".into());
            }
            let lb = walk(t, n.left, lo, Some(&n.key), seen)?;
            let rb = walk(t, n.right, Some(&n.key), hi, seen)?;
            if lb != rb {
                return Err(format!("black-height mismatch: {lb} vs {rb}"));
            }
            Ok(lb + usize::from(!n.red))
        }
        let mut seen = 0;
        walk(self, self.root, None, None, &mut seen)?;
        if seen != self.nodes.len() {
            return Err(format!(
                "{seen} of the arena's {} slots are in the tree",
                self.nodes.len()
            ));
        }
        Ok(())
    }
}

impl<K: Ord, V> FromIterator<(K, V)> for RbTree<K, V> {
    fn from_iter<I: IntoIterator<Item = (K, V)>>(iter: I) -> Self {
        let mut t = RbTree::new();
        t.extend(iter);
        t
    }
}

impl<K: Ord, V> Extend<(K, V)> for RbTree<K, V> {
    fn extend<I: IntoIterator<Item = (K, V)>>(&mut self, iter: I) {
        for (k, v) in iter {
            self.insert(k, v);
        }
    }
}

/// In-order iterator over a [`RbTree`]. Its stack is a fixed array, so
/// iterating allocates nothing.
#[derive(Debug)]
pub struct Iter<'a, K, V> {
    nodes: &'a [Node<K, V>],
    stack: [u32; MAX_DEPTH],
    depth: usize,
}

impl<K, V> Iter<'_, K, V> {
    fn push_left(&mut self, mut cur: u32) {
        while cur != NIL {
            self.stack[self.depth] = cur;
            self.depth += 1;
            cur = self.nodes[cur as usize].left;
        }
    }
}

impl<'a, K, V> Iterator for Iter<'a, K, V> {
    type Item = (&'a K, &'a V);

    fn next(&mut self) -> Option<Self::Item> {
        self.depth = self.depth.checked_sub(1)?;
        let n = &self.nodes[self.stack[self.depth] as usize];
        self.push_left(n.right);
        Some((&n.key, &n.value))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut t = RbTree::new();
        assert!(t.is_empty());
        for i in 0..100 {
            assert_eq!(t.insert(i, i * 10), None);
        }
        assert_eq!(t.len(), 100);
        for i in 0..100 {
            assert_eq!(t.get(&i), Some(&(i * 10)));
        }
        for i in (0..100).step_by(2) {
            assert_eq!(t.remove(&i), Some(i * 10));
        }
        assert_eq!(t.len(), 50);
        assert_eq!(t.get(&2), None);
        assert_eq!(t.get(&3), Some(&30));
        t.check_invariants().unwrap();
    }

    #[test]
    fn insert_replaces_and_returns_old() {
        let mut t = RbTree::new();
        t.insert("k", 1);
        assert_eq!(t.insert("k", 2), Some(1));
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(&"k"), Some(&2));
    }

    #[test]
    fn remove_missing_returns_none() {
        let mut t: RbTree<i32, i32> = RbTree::new();
        assert_eq!(t.remove(&5), None);
        t.insert(1, 1);
        assert_eq!(t.remove(&5), None);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn iteration_is_in_order() {
        let mut t = RbTree::new();
        for i in [5, 3, 8, 1, 4, 7, 9, 2, 6, 0] {
            t.insert(i, ());
        }
        let keys: Vec<i32> = t.keys().copied().collect();
        assert_eq!(keys, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn min_max_next_prev() {
        let t: RbTree<i32, ()> = [10, 20, 30].into_iter().map(|k| (k, ())).collect();
        assert_eq!(t.min().unwrap().0, &10);
        assert_eq!(t.max().unwrap().0, &30);
        assert_eq!(t.next_after(&10).unwrap().0, &20);
        assert_eq!(t.next_after(&15).unwrap().0, &20);
        assert_eq!(t.next_after(&30), None);
        assert_eq!(t.prev_before(&30).unwrap().0, &20);
        assert_eq!(t.prev_before(&10), None);
    }

    #[test]
    fn get_mut_mutates() {
        let mut t = RbTree::new();
        t.insert(1, vec![1]);
        t.get_mut(&1).unwrap().push(2);
        assert_eq!(t.get(&1), Some(&vec![1, 2]));
        assert_eq!(t.get_mut(&2), None);
    }

    #[test]
    fn invariants_hold_under_mixed_workload() {
        let mut t = RbTree::new();
        // Deterministic pseudo-random insert/remove mix.
        let mut x: u64 = 0x9E3779B97F4A7C15;
        let mut present = std::collections::BTreeSet::new();
        for step in 0..2000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let k = (x >> 33) % 500;
            if step % 3 == 0 && !present.is_empty() {
                let pick = *present.iter().next().unwrap();
                assert!(t.remove(&pick).is_some());
                present.remove(&pick);
            } else {
                t.insert(k, step);
                present.insert(k);
            }
            if step % 97 == 0 {
                t.check_invariants().unwrap();
                assert_eq!(t.len(), present.len());
            }
        }
        t.check_invariants().unwrap();
        let keys: Vec<u64> = t.keys().copied().collect();
        let expect: Vec<u64> = present.into_iter().collect();
        assert_eq!(keys, expect);
    }

    #[test]
    fn debug_format_is_nonempty() {
        let t: RbTree<i32, i32> = RbTree::new();
        assert_eq!(format!("{t:?}"), "{}");
        let t: RbTree<i32, i32> = [(1, 2)].into_iter().collect();
        assert_eq!(format!("{t:?}"), "{1: 2}");
    }

    #[test]
    fn bulk_loads_of_every_size_to_3_to_the_6th_are_valid_2_3_trees() {
        for n in 0..=729usize {
            let t = RbTree::from_sorted((0..n).map(|k| (k, k)));
            t.check_invariants().unwrap();
            assert_eq!(t.nodes.capacity(), n, "one exact allocation");
            assert!(t.keys().copied().eq(0..n));
        }
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn bulk_load_refuses_unsorted_keys() {
        RbTree::from_sorted([(2, ()), (1, ())]);
    }

    #[test]
    fn arena_grows_by_an_eighth_and_stays_dense() {
        let mut t = RbTree::new();
        for i in 0..5_000u32 {
            t.insert(i.wrapping_mul(2_654_435_761), ());
            assert!(t.nodes.capacity() <= t.len() + t.len() / 8 + 4);
        }
        for i in (0..5_000u32).step_by(3) {
            assert_eq!(t.remove(&i.wrapping_mul(2_654_435_761)), Some(()));
        }
        t.check_invariants().unwrap();
        assert_eq!(t.nodes.len(), t.len());
    }

    #[test]
    fn seek_finds_hit_and_strict_neighbours() {
        let t = RbTree::from_sorted([10, 20, 30, 40].map(|k| (k, ())));
        let keys = |s: Seek<'_, i32, ()>| {
            (
                s.hit.map(|e| *e.0),
                s.prev.map(|e| *e.0),
                s.next.map(|e| *e.0),
            )
        };
        assert_eq!(keys(t.seek(&20)), (Some(20), Some(10), Some(30)));
        assert_eq!(keys(t.seek(&25)), (None, Some(20), Some(30)));
        assert_eq!(keys(t.seek(&5)), (None, None, Some(10)));
        assert_eq!(keys(t.seek(&40)), (Some(40), Some(30), None));
    }
}
