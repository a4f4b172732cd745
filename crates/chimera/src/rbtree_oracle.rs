//! Differential oracle for the membership view in one arena.
//!
//! Before the view's nodes lived in one arena, [`RbTree`] boxed every node
//! and linked them by pointer. [`old`] is that tree, kept verbatim; the
//! proptest below drives random scripts of `insert`, `upsert` (on the old
//! tree, `get_mut` then `insert`, as the overlay learned a peer), `remove`
//! of present and absent keys, `get`, `next_after`, `prev_before`, `seek`,
//! `min`, `max`, `iter` and `from_sorted` of 0-2 000 entries (on the old
//! tree, one `insert` each) followed by more edits through both, and after
//! every step requires the same answers and the same entries in order,
//! and the new tree's `check_invariants`.
//!
//! Run in release with `cargo test -q --release -p c4h-chimera --lib
//! rbtree_oracle`.

use proptest::prelude::*;

use crate::rbtree::RbTree;

#[allow(dead_code)] // kept verbatim: not every method is driven
mod old {
    use std::cmp::Ordering;
    use std::fmt;

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Color {
        Red,
        Black,
    }

    #[derive(Debug, Clone)]
    struct Node<K, V> {
        key: K,
        value: V,
        color: Color,
        left: Link<K, V>,
        right: Link<K, V>,
    }

    type Link<K, V> = Option<Box<Node<K, V>>>;

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
        root: Link<K, V>,
        len: usize,
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

    fn is_red<K, V>(link: &Link<K, V>) -> bool {
        matches!(link, Some(n) if n.color == Color::Red)
    }

    fn rotate_left<K, V>(mut h: Box<Node<K, V>>) -> Box<Node<K, V>> {
        let mut x = h.right.take().expect("rotate_left requires right child");
        h.right = x.left.take();
        x.color = h.color;
        h.color = Color::Red;
        x.left = Some(h);
        x
    }

    fn rotate_right<K, V>(mut h: Box<Node<K, V>>) -> Box<Node<K, V>> {
        let mut x = h.left.take().expect("rotate_right requires left child");
        h.left = x.right.take();
        x.color = h.color;
        h.color = Color::Red;
        x.right = Some(h);
        x
    }

    fn flip_colors<K, V>(h: &mut Node<K, V>) {
        fn flip(c: Color) -> Color {
            match c {
                Color::Red => Color::Black,
                Color::Black => Color::Red,
            }
        }
        h.color = flip(h.color);
        if let Some(l) = h.left.as_mut() {
            l.color = flip(l.color);
        }
        if let Some(r) = h.right.as_mut() {
            r.color = flip(r.color);
        }
    }

    fn fix_up<K, V>(mut h: Box<Node<K, V>>) -> Box<Node<K, V>> {
        if is_red(&h.right) && !is_red(&h.left) {
            h = rotate_left(h);
        }
        if is_red(&h.left) && h.left.as_ref().is_some_and(|l| is_red(&l.left)) {
            h = rotate_right(h);
        }
        if is_red(&h.left) && is_red(&h.right) {
            flip_colors(&mut h);
        }
        h
    }

    fn move_red_left<K, V>(mut h: Box<Node<K, V>>) -> Box<Node<K, V>> {
        flip_colors(&mut h);
        if h.right.as_ref().is_some_and(|r| is_red(&r.left)) {
            h.right = Some(rotate_right(h.right.take().expect("checked above")));
            h = rotate_left(h);
            flip_colors(&mut h);
        }
        h
    }

    fn move_red_right<K, V>(mut h: Box<Node<K, V>>) -> Box<Node<K, V>> {
        flip_colors(&mut h);
        if h.left.as_ref().is_some_and(|l| is_red(&l.left)) {
            h = rotate_right(h);
            flip_colors(&mut h);
        }
        h
    }

    impl<K, V> RbTree<K, V> {
        /// Creates an empty tree.
        pub fn new() -> Self {
            RbTree { root: None, len: 0 }
        }

        /// Number of entries.
        pub fn len(&self) -> usize {
            self.len
        }

        /// Returns `true` if the tree holds no entries.
        pub fn is_empty(&self) -> bool {
            self.len == 0
        }

        /// In-order iterator over entries.
        pub fn iter(&self) -> Iter<'_, K, V> {
            let mut stack = Vec::new();
            let mut cur = self.root.as_deref();
            while let Some(n) = cur {
                stack.push(n);
                cur = n.left.as_deref();
            }
            Iter { stack }
        }

        /// In-order iterator over keys.
        pub fn keys(&self) -> impl Iterator<Item = &K> {
            self.iter().map(|(k, _)| k)
        }
    }

    impl<K: Ord, V> RbTree<K, V> {
        /// Looks up the value for `key`.
        pub fn get(&self, key: &K) -> Option<&V> {
            let mut cur = self.root.as_deref();
            while let Some(n) = cur {
                match key.cmp(&n.key) {
                    Ordering::Less => cur = n.left.as_deref(),
                    Ordering::Greater => cur = n.right.as_deref(),
                    Ordering::Equal => return Some(&n.value),
                }
            }
            None
        }

        /// Looks up the value for `key`, mutably.
        pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
            let mut cur = self.root.as_deref_mut();
            while let Some(n) = cur {
                match key.cmp(&n.key) {
                    Ordering::Less => cur = n.left.as_deref_mut(),
                    Ordering::Greater => cur = n.right.as_deref_mut(),
                    Ordering::Equal => return Some(&mut n.value),
                }
            }
            None
        }

        /// Returns `true` if the tree contains `key`.
        pub fn contains(&self, key: &K) -> bool {
            self.get(key).is_some()
        }

        /// Inserts a key-value pair, returning the previous value if the key was
        /// present.
        pub fn insert(&mut self, key: K, value: V) -> Option<V> {
            let (root, old) = Self::insert_rec(self.root.take(), key, value);
            let mut root = root;
            root.color = Color::Black;
            self.root = Some(root);
            if old.is_none() {
                self.len += 1;
            }
            old
        }

        fn insert_rec(link: Link<K, V>, key: K, value: V) -> (Box<Node<K, V>>, Option<V>) {
            let Some(mut h) = link else {
                return (
                    Box::new(Node {
                        key,
                        value,
                        color: Color::Red,
                        left: None,
                        right: None,
                    }),
                    None,
                );
            };
            let old = match key.cmp(&h.key) {
                Ordering::Less => {
                    let (l, old) = Self::insert_rec(h.left.take(), key, value);
                    h.left = Some(l);
                    old
                }
                Ordering::Greater => {
                    let (r, old) = Self::insert_rec(h.right.take(), key, value);
                    h.right = Some(r);
                    old
                }
                Ordering::Equal => Some(std::mem::replace(&mut h.value, value)),
            };
            (fix_up(h), old)
        }

        /// Removes `key`, returning its value if present.
        pub fn remove(&mut self, key: &K) -> Option<V> {
            if !self.contains(key) {
                return None;
            }
            // LLRB delete requires the root to be treated as red when both
            // children are black.
            let mut root = self.root.take().expect("contains() implies non-empty");
            if !is_red(&root.left) && !is_red(&root.right) {
                root.color = Color::Red;
            }
            let (link, removed) = Self::remove_rec(root, key);
            self.root = link;
            if let Some(r) = self.root.as_mut() {
                r.color = Color::Black;
            }
            self.len -= 1;
            Some(removed)
        }

        fn remove_rec(mut h: Box<Node<K, V>>, key: &K) -> (Link<K, V>, V) {
            if key < &h.key {
                if !is_red(&h.left) && !h.left.as_ref().is_some_and(|l| is_red(&l.left)) {
                    h = move_red_left(h);
                }
                let (l, removed) =
                    Self::remove_rec(h.left.take().expect("key is in left subtree"), key);
                h.left = l;
                (Some(fix_up(h)), removed)
            } else {
                if is_red(&h.left) {
                    h = rotate_right(h);
                }
                if key == &h.key && h.right.is_none() {
                    return (None, h.value);
                }
                if !is_red(&h.right) && !h.right.as_ref().is_some_and(|r| is_red(&r.left)) {
                    h = move_red_right(h);
                }
                if key == &h.key {
                    // Replace with the successor (min of right subtree).
                    let (r, min) =
                        Self::remove_min_rec(h.right.take().expect("right checked above"));
                    h.right = r;
                    let removed = std::mem::replace(&mut h.value, min.value);
                    h.key = min.key;
                    (Some(fix_up(h)), removed)
                } else {
                    let (r, removed) =
                        Self::remove_rec(h.right.take().expect("key is in right subtree"), key);
                    h.right = r;
                    (Some(fix_up(h)), removed)
                }
            }
        }

        fn remove_min_rec(mut h: Box<Node<K, V>>) -> (Link<K, V>, Box<Node<K, V>>) {
            if h.left.is_none() {
                return (None, h);
            }
            if !is_red(&h.left) && !h.left.as_ref().is_some_and(|l| is_red(&l.left)) {
                h = move_red_left(h);
            }
            let (l, min) = Self::remove_min_rec(h.left.take().expect("left checked above"));
            h.left = l;
            (Some(fix_up(h)), min)
        }

        /// The smallest entry.
        pub fn min(&self) -> Option<(&K, &V)> {
            let mut cur = self.root.as_deref()?;
            while let Some(l) = cur.left.as_deref() {
                cur = l;
            }
            Some((&cur.key, &cur.value))
        }

        /// The largest entry.
        pub fn max(&self) -> Option<(&K, &V)> {
            let mut cur = self.root.as_deref()?;
            while let Some(r) = cur.right.as_deref() {
                cur = r;
            }
            Some((&cur.key, &cur.value))
        }

        /// The smallest entry with key strictly greater than `key`.
        pub fn next_after(&self, key: &K) -> Option<(&K, &V)> {
            let mut best: Option<&Node<K, V>> = None;
            let mut cur = self.root.as_deref();
            while let Some(n) = cur {
                if &n.key > key {
                    best = Some(n);
                    cur = n.left.as_deref();
                } else {
                    cur = n.right.as_deref();
                }
            }
            best.map(|n| (&n.key, &n.value))
        }

        /// The largest entry with key strictly less than `key`.
        pub fn prev_before(&self, key: &K) -> Option<(&K, &V)> {
            let mut best: Option<&Node<K, V>> = None;
            let mut cur = self.root.as_deref();
            while let Some(n) = cur {
                if &n.key < key {
                    best = Some(n);
                    cur = n.right.as_deref();
                } else {
                    cur = n.left.as_deref();
                }
            }
            best.map(|n| (&n.key, &n.value))
        }

        /// Verifies the red-black invariants; used by tests and debug assertions.
        ///
        /// Checks: root is black; no red node has a red child; every path from
        /// the root to a leaf crosses the same number of black nodes; keys are
        /// in strict order.
        pub fn check_invariants(&self) -> Result<(), String> {
            if is_red(&self.root) {
                return Err("root is red".into());
            }
            fn walk<K: Ord, V>(
                link: &Link<K, V>,
                lo: Option<&K>,
                hi: Option<&K>,
            ) -> Result<usize, String> {
                let Some(n) = link else {
                    return Ok(1);
                };
                if let Some(lo) = lo {
                    if &n.key <= lo {
                        return Err("key order violated (lower bound)".into());
                    }
                }
                if let Some(hi) = hi {
                    if &n.key >= hi {
                        return Err("key order violated (upper bound)".into());
                    }
                }
                if n.color == Color::Red && (is_red(&n.left) || is_red(&n.right)) {
                    return Err("red node with red child".into());
                }
                let lb = walk(&n.left, lo, Some(&n.key))?;
                let rb = walk(&n.right, Some(&n.key), hi)?;
                if lb != rb {
                    return Err(format!("black-height mismatch: {lb} vs {rb}"));
                }
                Ok(lb + usize::from(n.color == Color::Black))
            }
            walk(&self.root, None, None).map(|_| ())
        }
    }

    impl<K: Ord, V> FromIterator<(K, V)> for RbTree<K, V> {
        fn from_iter<I: IntoIterator<Item = (K, V)>>(iter: I) -> Self {
            let mut t = RbTree::new();
            for (k, v) in iter {
                t.insert(k, v);
            }
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

    /// In-order iterator over a [`RbTree`].
    #[derive(Debug)]
    pub struct Iter<'a, K, V> {
        stack: Vec<&'a Node<K, V>>,
    }

    impl<'a, K, V> Iterator for Iter<'a, K, V> {
        type Item = (&'a K, &'a V);

        fn next(&mut self) -> Option<Self::Item> {
            let n = self.stack.pop()?;
            let mut cur = n.right.as_deref();
            while let Some(c) = cur {
                self.stack.push(c);
                cur = c.left.as_deref();
            }
            Some((&n.key, &n.value))
        }
    }
}

/// One step of a script; keys are drawn from `0..KEYS`.
#[derive(Debug, Clone)]
enum Step {
    Insert(u32, u32),
    Upsert(u32, u32),
    Remove(u32),
    Get(u32),
    NextAfter(u32),
    PrevBefore(u32),
    Seek(u32),
    MinMax,
    Iter,
    /// Rebuild both trees from `len` ascending keys: gaps of 1-4 from a
    /// start, values from a seed.
    FromSorted {
        len: usize,
        start: u32,
        seed: u64,
    },
}

/// The key domain: wide enough for a 2 000-entry bulk load with gaps, narrow
/// enough that edits hit loaded keys.
const KEYS: u32 = 9_000;

fn step() -> impl Strategy<Value = Step> {
    let key = || 0..KEYS;
    prop_oneof![
        (key(), any::<u32>()).prop_map(|(k, v)| Step::Insert(k, v)),
        (key(), any::<u32>()).prop_map(|(k, v)| Step::Insert(k, v)),
        (key(), any::<u32>()).prop_map(|(k, v)| Step::Upsert(k, v)),
        (key(), any::<u32>()).prop_map(|(k, v)| Step::Upsert(k, v)),
        key().prop_map(Step::Remove),
        key().prop_map(Step::Remove),
        key().prop_map(Step::Get),
        key().prop_map(Step::NextAfter),
        key().prop_map(Step::PrevBefore),
        key().prop_map(Step::Seek),
        Just(Step::MinMax),
        Just(Step::Iter),
        (0..2_001usize, 0..200u32, any::<u64>()).prop_map(|(len, start, seed)| Step::FromSorted {
            len,
            start,
            seed
        }),
    ]
}

/// The entries a [`Step::FromSorted`] loads.
fn sorted_entries(len: usize, start: u32, seed: u64) -> Vec<(u32, u32)> {
    let mut x = seed | 1;
    let mut k = start;
    (0..len)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let entry = (k, x as u32);
            k += 1 + (x >> 40) as u32 % 4;
            entry
        })
        .collect()
}

/// The cases per run: the full count in release (CI's oracle step), fewer
/// in debug builds, where every bulk load also checks its own invariants.
const CASES: u32 = if cfg!(debug_assertions) { 48 } else { 256 };

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    #[test]
    fn rbtree_oracle_scripts_match_the_boxed_tree(
        script in proptest::collection::vec(step(), 0..160)
    ) {
        let mut new: RbTree<u32, u32> = RbTree::new();
        let mut old: old::RbTree<u32, u32> = old::RbTree::new();
        for (i, step) in script.iter().enumerate() {
            match *step {
                Step::Insert(k, v) => prop_assert_eq!(new.insert(k, v), old.insert(k, v)),
                Step::Upsert(k, v) => {
                    let (slot, inserted) = new.upsert(k, || v);
                    if !inserted {
                        *slot = (*slot).max(v);
                    }
                    let was = match old.get_mut(&k) {
                        Some(slot) => {
                            *slot = (*slot).max(v);
                            true
                        }
                        None => old.insert(k, v).is_some(),
                    };
                    prop_assert_eq!(inserted, !was, "upsert({}) at step {}", k, i);
                }
                Step::Remove(k) => prop_assert_eq!(new.remove(&k), old.remove(&k)),
                Step::Get(k) => {
                    prop_assert_eq!(new.get(&k), old.get(&k));
                    prop_assert_eq!(new.contains(&k), old.contains(&k));
                }
                Step::NextAfter(k) => prop_assert_eq!(new.next_after(&k), old.next_after(&k)),
                Step::PrevBefore(k) => prop_assert_eq!(new.prev_before(&k), old.prev_before(&k)),
                Step::Seek(k) => {
                    let seek = new.seek(&k);
                    let hit = old.get(&k).map(|v| (&k, v));
                    prop_assert_eq!(seek.hit.map(|(k, v)| (*k, *v)), hit.map(|(k, v)| (*k, *v)));
                    prop_assert_eq!(seek.prev, old.prev_before(&k));
                    prop_assert_eq!(seek.next, old.next_after(&k));
                }
                Step::MinMax => {
                    prop_assert_eq!(new.min(), old.min());
                    prop_assert_eq!(new.max(), old.max());
                }
                Step::Iter => prop_assert!(new.iter().eq(old.iter()), "iter at step {}", i),
                Step::FromSorted { len, start, seed } => {
                    let entries = sorted_entries(len, start, seed);
                    new = RbTree::from_sorted(entries.iter().copied());
                    old = old::RbTree::new();
                    for &(k, v) in &entries {
                        old.insert(k, v);
                    }
                }
            }
            prop_assert_eq!(new.len(), old.len(), "len at step {} ({:?})", i, step);
            prop_assert!(new.iter().eq(old.iter()), "entries at step {} ({:?})", i, step);
            new.check_invariants()
                .map_err(|e| TestCaseError::fail(format!("step {i} ({step:?}): {e}")))?;
        }
    }
}
