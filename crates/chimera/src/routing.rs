//! Prefix routing table and leaf set.
//!
//! Chimera provides "functionality to that of prefix routing protocols like
//! Tapestry and Pastry": a message for key *k* is forwarded to a node whose
//! ID shares a longer hex-digit prefix with *k* than the current node, and a
//! *leaf set* of ring neighbours handles final numeric delivery. This module
//! implements both structures over the 40-bit key space.

use crate::key::{Key, KEY_DIGITS};
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

    /// Members of both sides, deduplicated, nearest first per side.
    pub fn members(&self) -> Vec<Key> {
        let mut out = self.left.clone();
        for &r in &self.right {
            if !out.contains(&r) {
                out.push(r);
            }
        }
        out
    }

    /// Replica targets for a record rooted at the owner: the `n` nearest
    /// distinct neighbours, alternating sides.
    pub fn replica_targets(&self, n: usize) -> Vec<Key> {
        let mut out = Vec::new();
        let mut li = self.right.iter();
        let mut ri = self.left.iter();
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
    // Final delivery via the leaf set.
    if leaf.covers(owner, key) {
        let best = crate::key::root_of(
            key,
            leaf.members().into_iter().chain(std::iter::once(owner)),
        )
        .expect("owner is always a candidate");
        return if best == owner {
            NextHop::Deliver
        } else {
            NextHop::Forward(best)
        };
    }
    // Prefix routing step: guaranteed prefix progress.
    if let Some(hop) = table.next_hop(key) {
        return NextHop::Forward(hop);
    }
    // Fallback on the complete logical tree view.
    let best_known = crate::key::root_of(key, peers.keys().copied().chain(std::iter::once(owner)))
        .expect("at least the owner is a candidate");
    if best_known == owner {
        NextHop::Deliver
    } else {
        NextHop::Forward(best_known)
    }
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
        assert_eq!(leaf.members(), vec![Key::from_raw(0x20)]);
    }

    #[test]
    fn replica_targets_alternate_sides() {
        let owner = Key::from_raw(0x8000000000);
        let peers = tree(&[0x6000000000, 0x7000000000, 0x9000000000, 0xA000000000]);
        let mut leaf = LeafSet::new();
        leaf.rebuild(owner, &peers, 2);
        let reps = leaf.replica_targets(3);
        assert_eq!(
            reps,
            vec![
                Key::from_raw(0x9000000000),
                Key::from_raw(0x7000000000),
                Key::from_raw(0xA000000000),
            ]
        );
        assert_eq!(leaf.replica_targets(0), Vec::<Key>::new());
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
