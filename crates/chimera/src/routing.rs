//! Prefix routing table and leaf set.
//!
//! Chimera provides "functionality to that of prefix routing protocols like
//! Tapestry and Pastry": a message for key *k* is forwarded to a node whose
//! ID shares a longer hex-digit prefix with *k* than the current node, and a
//! *leaf set* of ring neighbours handles final numeric delivery. This module
//! implements both structures over the 40-bit key space.

use crate::key::{root_of, Key, KEY_DIGITS};
use crate::rbtree::RbTree;

/// Number of columns per routing-table row (one per hex digit value).
pub const ROW_WIDTH: usize = 16;

/// A Pastry-style prefix routing table.
///
/// Row `r`, column `c` holds a node whose ID shares exactly `r` leading
/// digits with the owner and whose digit `r` equals `c`.
///
/// # Examples
///
/// ```
/// use c4h_chimera::{Key, RoutingTable};
///
/// let owner = Key::from_raw(0x1234567890);
/// let mut rt = RoutingTable::new(owner);
/// let peer = Key::from_raw(0x1239000000); // shares 3 digits, digit 3 = 9
/// rt.add(peer);
/// assert_eq!(rt.next_hop(Key::from_raw(0x1239ABCDEF)), Some(peer));
/// ```
#[derive(Debug, Clone)]
pub struct RoutingTable {
    owner: Key,
    rows: Vec<[Option<Key>; ROW_WIDTH]>,
}

impl RoutingTable {
    /// Creates an empty table for `owner`.
    pub fn new(owner: Key) -> Self {
        RoutingTable {
            owner,
            rows: vec![[None; ROW_WIDTH]; KEY_DIGITS],
        }
    }

    /// The node this table belongs to.
    pub fn owner(&self) -> Key {
        self.owner
    }

    /// Records a peer in its prefix slot.
    ///
    /// An occupied slot is replaced only if the new peer is numerically
    /// closer to the owner (a cheap stand-in for Pastry's proximity metric).
    /// Adding the owner itself is a no-op.
    pub fn add(&mut self, peer: Key) {
        if peer == self.owner {
            return;
        }
        let row = self.owner.shared_prefix_len(peer);
        debug_assert!(row < KEY_DIGITS, "distinct keys share < KEY_DIGITS digits");
        let col = peer.digit(row) as usize;
        let slot = &mut self.rows[row][col];
        match slot {
            None => *slot = Some(peer),
            Some(existing) => {
                if peer.ring_distance(self.owner) < existing.ring_distance(self.owner) {
                    *slot = Some(peer);
                }
            }
        }
    }

    /// Removes a peer wherever it appears.
    pub fn remove(&mut self, peer: Key) {
        for row in &mut self.rows {
            for slot in row.iter_mut() {
                if *slot == Some(peer) {
                    *slot = None;
                }
            }
        }
    }

    /// The prefix-routing next hop for `key`: a node sharing at least one
    /// more leading digit with `key` than the owner does.
    pub fn next_hop(&self, key: Key) -> Option<Key> {
        let row = self.owner.shared_prefix_len(key);
        if row >= KEY_DIGITS {
            return None; // key == owner
        }
        self.rows[row][key.digit(row) as usize]
    }

    /// All peers currently in the table.
    pub fn entries(&self) -> impl Iterator<Item = Key> + '_ {
        self.rows.iter().flatten().filter_map(|s| *s)
    }
}

/// The leaf set: the owner's nearest ring neighbours on each side.
///
/// Rebuilt from the ordered peer view (the red-black tree) whenever
/// membership changes; used for final-hop delivery, join/leave
/// announcements, and replica placement.
#[derive(Debug, Clone, Default)]
pub struct LeafSet {
    /// Counter-clockwise neighbours, nearest first.
    left: Vec<Key>,
    /// Clockwise neighbours, nearest first.
    right: Vec<Key>,
}

impl LeafSet {
    /// Creates an empty leaf set.
    pub fn new() -> Self {
        LeafSet::default()
    }

    /// Rebuilds both sides from the ordered peer view.
    ///
    /// `peers` must not contain `owner`. Each side holds up to
    /// `size_per_side` distinct nodes; with few peers the sides may overlap
    /// (the same node can be both nearest-left and nearest-right on a small
    /// ring).
    pub fn rebuild<V>(&mut self, owner: Key, peers: &RbTree<Key, V>, size_per_side: usize) {
        self.left.clear();
        self.right.clear();
        if peers.is_empty() {
            return;
        }
        // Clockwise (right): successors of owner, wrapping at the ring top.
        let mut cur = owner;
        for _ in 0..size_per_side.min(peers.len()) {
            let next = peers
                .next_after(&cur)
                .or_else(|| peers.min())
                .map(|(k, _)| *k)
                .expect("peers is non-empty");
            if next == owner || self.right.contains(&next) {
                break;
            }
            self.right.push(next);
            cur = next;
        }
        // Counter-clockwise (left): predecessors, wrapping at the ring bottom.
        let mut cur = owner;
        for _ in 0..size_per_side.min(peers.len()) {
            let prev = peers
                .prev_before(&cur)
                .or_else(|| peers.max())
                .map(|(k, _)| *k)
                .expect("peers is non-empty");
            if prev == owner || self.left.contains(&prev) {
                break;
            }
            self.left.push(prev);
            cur = prev;
        }
    }

    /// Nearest counter-clockwise neighbours, nearest first.
    pub fn left(&self) -> &[Key] {
        &self.left
    }

    /// Nearest clockwise neighbours, nearest first.
    pub fn right(&self) -> &[Key] {
        &self.right
    }

    /// The immediate neighbours (one per side, deduplicated) that join/leave
    /// announcements are sent to, left first. Owned, so callers may send
    /// while iterating.
    pub fn immediate_neighbors(&self) -> impl Iterator<Item = Key> {
        let left = self.left.first().copied();
        let right = self.right.first().copied().filter(|&r| Some(r) != left);
        [left, right].into_iter().flatten()
    }

    /// Whether `key` falls inside the ring interval spanned by the leaf set
    /// (from the farthest left member, through `owner`, to the farthest
    /// right member). Inside this interval the numerically closest leaf (or
    /// the owner) is guaranteed to be the key's root, because the leaf set
    /// contains *every* node in the interval.
    pub fn covers(&self, owner: Key, key: Key) -> bool {
        let lo = self.left.last().copied().unwrap_or(owner);
        let hi = self.right.last().copied().unwrap_or(owner);
        lo.clockwise_distance(key) <= lo.clockwise_distance(hi)
    }

    /// Replica targets for a record rooted at the owner: the `n` nearest
    /// distinct neighbours, alternating sides, written over `out`. The
    /// caller reuses `out`, so a node replicating record after record grows
    /// it once.
    pub fn fill_replica_targets(&self, n: usize, out: &mut Vec<Key>) {
        out.clear();
        let (mut right, mut left) = (self.right.iter(), self.left.iter());
        while out.len() < n {
            let (r, l) = (right.next(), left.next());
            if r.is_none() && l.is_none() {
                break;
            }
            for &k in r.into_iter().chain(l) {
                if out.len() < n && !out.contains(&k) {
                    out.push(k);
                }
            }
        }
    }
}

/// The routing decision for a key at one node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NextHop {
    /// This node is the key's root; deliver locally.
    Deliver,
    /// Forward to the given node.
    Forward(Key),
}

/// Computes the next hop for `key` at `owner`.
///
/// Order of preference, mirroring Pastry:
/// 1. if `key` falls within the leaf-set interval, deliver to the
///    numerically closest of the owner and its leaves (final delivery);
/// 2. otherwise forward along the prefix routing table (each hop shares a
///    strictly longer digit prefix with the key);
/// 3. otherwise fall back to the closest node in the full membership view
///    (the red-black tree), which strictly decreases ring distance.
pub fn route<V>(
    owner: Key,
    key: Key,
    leaf: &LeafSet,
    table: &RoutingTable,
    peers: &RbTree<Key, V>,
) -> NextHop {
    if peers.is_empty() {
        return NextHop::Deliver;
    }
    let best = if leaf.covers(owner, key) {
        // Final delivery via the leaf set. The fold is a minimum under a
        // total order, so side order and a node on both sides do not matter.
        let leaves = leaf.left().iter().chain(leaf.right()).copied();
        root_of(key, leaves.chain(std::iter::once(owner))).expect("owner is a candidate")
    } else if let Some(hop) = table.next_hop(key) {
        // Prefix routing step: guaranteed prefix progress.
        return NextHop::Forward(hop);
    } else {
        closest_known(key, peers, Some(owner)).expect("owner is a candidate")
    };
    if best == owner {
        NextHop::Deliver
    } else {
        NextHop::Forward(best)
    }
}

/// The root of `key` among `peers` and `owner` (when given): what
/// [`root_of`] over all of them returns, in one O(log n) descent.
///
/// `root_of` picks the minimum of a total order — ring distance to `key`,
/// then raw key. The key itself, when present, is at distance 0. Otherwise
/// a peer at the least distance `d` sits at `key + d` or `key - d` with no
/// peer nearer on that side, so it is the first peer clockwise or the first
/// counter-clockwise from `key` (each side wrapping around the ring through
/// the tree's minimum or maximum, a second descent only for a key past
/// either end), and an exact tie is between those two.
pub(crate) fn closest_known<V>(
    key: Key,
    peers: &RbTree<Key, V>,
    owner: Option<Key>,
) -> Option<Key> {
    let seek = peers.seek(&key);
    let hit = seek.hit.map(|(k, _)| *k);
    let next = seek.next.or_else(|| peers.min());
    let prev = seek.prev.or_else(|| peers.max());
    let ring = [next, prev].into_iter().flatten().map(|(k, _)| *k);
    let best = root_of(key, hit.into_iter().chain(ring).chain(owner));
    debug_assert_eq!(
        best,
        root_of(key, peers.keys().copied().chain(owner)),
        "closest_known disagrees with the full scan for {key}"
    );
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tree(keys: &[u64]) -> RbTree<Key, ()> {
        keys.iter().map(|&k| (Key::from_raw(k), ())).collect()
    }

    #[test]
    fn routing_table_slots_by_prefix() {
        let owner = Key::from_raw(0x0000000000);
        let mut rt = RoutingTable::new(owner);
        let p1 = Key::from_raw(0x1000000000); // row 0, col 1
        let p2 = Key::from_raw(0x0100000000); // row 1, col 1
        rt.add(p1);
        rt.add(p2);
        rt.add(owner); // no-op
        assert_eq!(rt.next_hop(Key::from_raw(0x1FFFFFFFFF)), Some(p1));
        assert_eq!(rt.next_hop(Key::from_raw(0x01FFFFFFFF)), Some(p2));
        assert_eq!(rt.next_hop(Key::from_raw(0x2000000000)), None);
        assert_eq!(rt.entries().count(), 2);
    }

    #[test]
    fn routing_table_prefers_closer_on_conflict() {
        let owner = Key::from_raw(0x0000000000);
        let mut rt = RoutingTable::new(owner);
        let far = Key::from_raw(0x1F00000000);
        let near = Key::from_raw(0x1000000001);
        rt.add(far);
        rt.add(near);
        assert_eq!(rt.next_hop(Key::from_raw(0x1234567890)), Some(near));
        // Re-adding the farther node does not displace the nearer one.
        rt.add(far);
        assert_eq!(rt.next_hop(Key::from_raw(0x1234567890)), Some(near));
    }

    #[test]
    fn routing_table_remove() {
        let owner = Key::from_raw(0);
        let mut rt = RoutingTable::new(owner);
        let p = Key::from_raw(0x5000000000);
        rt.add(p);
        rt.remove(p);
        assert_eq!(rt.next_hop(Key::from_raw(0x5000000001)), None);
    }

    #[test]
    fn leaf_set_wraps_around_the_ring() {
        let owner = Key::from_raw(0x8000000000);
        let peers = tree(&[0x1000000000, 0x7000000000, 0x9000000000, 0xF000000000]);
        let mut leaf = LeafSet::new();
        leaf.rebuild(owner, &peers, 2);
        assert_eq!(
            leaf.right(),
            &[Key::from_raw(0x9000000000), Key::from_raw(0xF000000000)]
        );
        assert_eq!(
            leaf.left(),
            &[Key::from_raw(0x7000000000), Key::from_raw(0x1000000000)]
        );
    }

    #[test]
    fn leaf_set_on_tiny_ring_deduplicates() {
        let owner = Key::from_raw(0x10);
        let peers = tree(&[0x20]);
        let mut leaf = LeafSet::new();
        leaf.rebuild(owner, &peers, 2);
        assert_eq!(
            leaf.immediate_neighbors().collect::<Vec<_>>(),
            vec![Key::from_raw(0x20)]
        );
        assert_eq!(leaf.left(), &[Key::from_raw(0x20)]);
        assert_eq!(leaf.right(), &[Key::from_raw(0x20)]);
    }

    #[test]
    fn replica_targets_alternate_sides() {
        let owner = Key::from_raw(0x8000000000);
        let peers = tree(&[0x6000000000, 0x7000000000, 0x9000000000, 0xA000000000]);
        let mut leaf = LeafSet::new();
        leaf.rebuild(owner, &peers, 2);
        let mut reps = vec![Key::from_raw(1); 5];
        leaf.fill_replica_targets(3, &mut reps);
        assert_eq!(
            reps,
            vec![
                Key::from_raw(0x9000000000),
                Key::from_raw(0x7000000000),
                Key::from_raw(0xA000000000),
            ]
        );
        leaf.fill_replica_targets(0, &mut reps);
        assert_eq!(reps, Vec::<Key>::new());
    }

    #[test]
    fn route_delivers_at_root() {
        let owner = Key::from_raw(0x8000000000);
        let peers = tree(&[0x1000000000, 0xF000000000]);
        let mut leaf = LeafSet::new();
        leaf.rebuild(owner, &peers, 2);
        let rt = RoutingTable::new(owner);
        // Key right next to the owner: we are the root.
        let hop = route(owner, Key::from_raw(0x8000000001), &leaf, &rt, &peers);
        assert_eq!(hop, NextHop::Deliver);
    }

    #[test]
    fn route_forwards_to_numerically_closest_leaf() {
        let owner = Key::from_raw(0x1000000000);
        let peers = tree(&[0x8000000000, 0xF000000000]);
        let mut leaf = LeafSet::new();
        leaf.rebuild(owner, &peers, 2);
        let mut rt = RoutingTable::new(owner);
        for k in peers.keys() {
            rt.add(*k);
        }
        let hop = route(owner, Key::from_raw(0x8000000001), &leaf, &rt, &peers);
        assert_eq!(hop, NextHop::Forward(Key::from_raw(0x8000000000)));
    }

    #[test]
    fn route_uses_prefix_table_when_root_unknown_locally() {
        // Owner knows a far node only through the routing table (not leaf):
        // simulate by rebuilding the leaf with size 1 over nearer peers.
        let owner = Key::from_raw(0x0000000000);
        let peers = tree(&[0x0000000001, 0x0000000002, 0x8800000000, 0x8000000000]);
        let mut leaf = LeafSet::new();
        leaf.rebuild(owner, &peers, 1);
        let mut rt = RoutingTable::new(owner);
        for k in peers.keys() {
            rt.add(*k);
        }
        let hop = route(owner, Key::from_raw(0x8800000007), &leaf, &rt, &peers);
        assert_eq!(hop, NextHop::Forward(Key::from_raw(0x8800000000)));
    }
}

/// The allocating replica-target loop, kept verbatim as the oracle for the
/// buffer-filling [`LeafSet::fill_replica_targets`] (CI runs these by name:
/// `record_oracle`).
#[cfg(test)]
mod record_oracle {
    use super::*;
    use proptest::prelude::*;

    fn old_replica_targets(leaf: &LeafSet, n: usize) -> Vec<Key> {
        let mut out = Vec::new();
        let mut li = leaf.right.iter();
        let mut ri = leaf.left.iter();
        while out.len() < n {
            let mut advanced = false;
            if let Some(&k) = li.next() {
                if !out.contains(&k) {
                    out.push(k);
                }
                advanced = true;
            }
            if out.len() >= n {
                break;
            }
            if let Some(&k) = ri.next() {
                if !out.contains(&k) {
                    out.push(k);
                }
                advanced = true;
            }
            if !advanced {
                break;
            }
        }
        out.truncate(n);
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random rings from one peer up: with fewer peers than leaf slots
        /// the two sides share members, which the targets must list once.
        #[test]
        fn replica_targets_match_the_allocating_loop(
            raw in proptest::collection::vec(any::<u64>(), 1..12),
            owner in any::<u64>(),
            size in 1usize..5,
            wants in proptest::collection::vec(0usize..10, 1..6),
        ) {
            let owner = Key::from_raw(owner);
            let peers: RbTree<Key, ()> = raw
                .iter()
                .map(|&r| (Key::from_raw(r), ()))
                .filter(|&(k, _)| k != owner)
                .collect();
            let mut leaf = LeafSet::new();
            leaf.rebuild(owner, &peers, size);
            // One buffer for every call, as a node reuses it record after
            // record: what an earlier call left in it must not show.
            let mut buf = Vec::new();
            for n in wants {
                let want = old_replica_targets(&leaf, n);
                leaf.fill_replica_targets(n, &mut buf);
                prop_assert_eq!(&buf, &want);
            }
        }
    }
}
