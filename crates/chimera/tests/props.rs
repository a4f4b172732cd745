//! Property-based tests for the overlay's core data structures and
//! invariants.

use std::collections::BTreeMap;

use c4h_chimera::{
    root_of, ChimeraConfig, ChimeraNode, Key, LocalStore, MetaCache, OverwritePolicy, RbTree,
    StoredValue,
};
use c4h_simnet::SimTime;
use proptest::prelude::*;

/// Model-based operations applied to both the red-black tree and a
/// `BTreeMap` oracle.
#[derive(Debug, Clone)]
enum Op {
    Insert(u16, u32),
    Remove(u16),
    Get(u16),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (any::<u16>(), any::<u32>()).prop_map(|(k, v)| Op::Insert(k % 512, v)),
        any::<u16>().prop_map(|k| Op::Remove(k % 512)),
        any::<u16>().prop_map(|k| Op::Get(k % 512)),
    ]
}

proptest! {
    #[test]
    fn rbtree_matches_btreemap_model(ops in proptest::collection::vec(op_strategy(), 0..400)) {
        let mut tree = RbTree::new();
        let mut model = BTreeMap::new();
        for op in ops {
            match op {
                Op::Insert(k, v) => {
                    prop_assert_eq!(tree.insert(k, v), model.insert(k, v));
                }
                Op::Remove(k) => {
                    prop_assert_eq!(tree.remove(&k), model.remove(&k));
                }
                Op::Get(k) => {
                    prop_assert_eq!(tree.get(&k), model.get(&k));
                }
            }
            prop_assert_eq!(tree.len(), model.len());
        }
        tree.check_invariants().map_err(TestCaseError::fail)?;
        let tree_pairs: Vec<(u16, u32)> = tree.iter().map(|(k, v)| (*k, *v)).collect();
        let model_pairs: Vec<(u16, u32)> = model.iter().map(|(k, v)| (*k, *v)).collect();
        prop_assert_eq!(tree_pairs, model_pairs);
    }

    #[test]
    fn rbtree_neighbors_match_model(keys in proptest::collection::btree_set(any::<u32>(), 1..100), probe in any::<u32>()) {
        let tree: RbTree<u32, ()> = keys.iter().map(|&k| (k, ())).collect();
        let after = keys.range((probe + 1)..).next().copied();
        let before = keys.range(..probe).next_back().copied();
        prop_assert_eq!(tree.next_after(&probe).map(|(k, _)| *k), after);
        prop_assert_eq!(tree.prev_before(&probe).map(|(k, _)| *k), before);
    }

    #[test]
    fn ring_distance_is_symmetric_and_bounded(a in any::<u64>(), b in any::<u64>()) {
        let a = Key::from_raw(a);
        let b = Key::from_raw(b);
        prop_assert_eq!(a.ring_distance(b), b.ring_distance(a));
        prop_assert!(a.ring_distance(b) <= (1u64 << 39));
        prop_assert_eq!(a.ring_distance(a), 0);
    }

    #[test]
    fn clockwise_distances_sum_to_ring_size(a in any::<u64>(), b in any::<u64>()) {
        let a = Key::from_raw(a);
        let b = Key::from_raw(b);
        prop_assume!(a != b);
        let total = a.clockwise_distance(b) + b.clockwise_distance(a);
        prop_assert_eq!(total, 1u64 << 40);
    }

    #[test]
    fn shared_prefix_is_symmetric_and_consistent_with_digits(a in any::<u64>(), b in any::<u64>()) {
        let a = Key::from_raw(a);
        let b = Key::from_raw(b);
        let p = a.shared_prefix_len(b);
        prop_assert_eq!(p, b.shared_prefix_len(a));
        for i in 0..p {
            prop_assert_eq!(a.digit(i), b.digit(i));
        }
        if p < c4h_chimera::KEY_DIGITS {
            prop_assert_ne!(a.digit(p), b.digit(p));
        }
    }

    #[test]
    fn root_selection_is_unique_and_stable(
        nodes in proptest::collection::btree_set(any::<u64>(), 1..40),
        key in any::<u64>(),
    ) {
        let nodes: Vec<Key> = nodes.into_iter().map(Key::from_raw).collect();
        let key = Key::from_raw(key);
        let root = root_of(key, nodes.iter().copied()).unwrap();
        // The root is a member and no other member is strictly closer.
        prop_assert!(nodes.contains(&root));
        for &n in &nodes {
            prop_assert!(!n.closer_to(key, root), "{n} beats chosen root {root}");
        }
        // Shuffling candidate order does not change the winner.
        let mut rev = nodes.clone();
        rev.reverse();
        prop_assert_eq!(root_of(key, rev.into_iter()), Some(root));
    }

    #[test]
    fn dht_stores_and_serves_arbitrary_bytes(
        names in proptest::collection::vec("[a-z]{1,12}", 1..20),
        payload in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        let now = SimTime::ZERO;
        let mut nodes: Vec<ChimeraNode> = (0..5)
            .map(|i| ChimeraNode::new(Key::from_name(&format!("p{i}")), ChimeraConfig::default()))
            .collect();
        nodes[0].bootstrap(now);
        let seed = nodes[0].id();
        for i in 1..5 {
            nodes[i].join_via(seed, now);
            pump(&mut nodes);
        }
        for name in &names {
            let key = Key::from_name(name);
            nodes[0]
                .put(key, payload.clone(), OverwritePolicy::Overwrite, now)
                .unwrap();
            pump(&mut nodes);
            nodes[3].get(key, now).unwrap();
            pump(&mut nodes);
            let mut found = false;
            while let Some(e) = nodes[3].poll_event() {
                if let c4h_chimera::DhtEvent::GetCompleted { value, .. } = e {
                    prop_assert_eq!(value.as_ref().map(|v| v.latest()), Some(payload.as_slice()));
                    found = true;
                }
            }
            prop_assert!(found);
        }
    }
}

fn pump(nodes: &mut [ChimeraNode]) {
    let now = SimTime::ZERO;
    for _ in 0..100_000 {
        let mut moved = false;
        for i in 0..nodes.len() {
            while let Some(env) = nodes[i].poll_send() {
                moved = true;
                if let Some(j) = nodes.iter().position(|n| n.id() == env.to) {
                    nodes[j].handle(env, now);
                }
            }
        }
        if !moved {
            return;
        }
    }
    panic!("cluster failed to quiesce");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Graceful churn never loses acknowledged records: after any sequence
    /// of puts interleaved with graceful leaves (keeping ≥3 nodes), every
    /// put issued while its origin was joined remains readable.
    #[test]
    fn graceful_churn_preserves_acked_records(
        put_count in 4usize..16,
        leave_picks in proptest::collection::vec(0usize..8, 0..3),
    ) {
        let now = SimTime::ZERO;
        let mut nodes: Vec<ChimeraNode> = (0..8)
            .map(|i| {
                let cfg = ChimeraConfig {
                    replication: 2,
                    ..ChimeraConfig::default()
                };
                ChimeraNode::new(Key::from_name(&format!("churn-{i}")), cfg)
            })
            .collect();
        nodes[0].bootstrap(now);
        let seed_key = nodes[0].id();
        for i in 1..8 {
            nodes[i].join_via(seed_key, now);
            pump(&mut nodes);
        }
        // Interleave puts and graceful leaves.
        let mut gone = std::collections::HashSet::new();
        let mut keys = Vec::new();
        for p in 0..put_count {
            let key = Key::from_name(&format!("churn-rec-{p}"));
            let origin = (0..8).find(|i| !gone.contains(i)).unwrap();
            nodes[origin]
                .put(key, vec![p as u8], OverwritePolicy::Overwrite, now)
                .unwrap();
            pump(&mut nodes);
            keys.push(key);
            if let Some(&pick) = leave_picks.get(p % leave_picks.len().max(1)) {
                if p < leave_picks.len() && !gone.contains(&pick) && 8 - gone.len() > 3 {
                    nodes[pick].leave(now);
                    pump(&mut nodes);
                    gone.insert(pick);
                }
            }
        }
        // Every record is still readable from a surviving node.
        let reader = (0..8).find(|i| !gone.contains(i)).unwrap();
        for (p, key) in keys.iter().enumerate() {
            nodes[reader].get(*key, now).unwrap();
            pump(&mut nodes);
            let mut value = None;
            while let Some(e) = nodes[reader].poll_event() {
                if let c4h_chimera::DhtEvent::GetCompleted { value: v, .. } = e {
                    value = v;
                }
            }
            prop_assert_eq!(
                value.as_ref().map(|v| v.latest().to_vec()),
                Some(vec![p as u8]),
                "record {} lost after churn", p
            );
        }
    }
}

/// The record representation the shared chain replaced, kept as the model: a
/// plain vector of versions, oldest first, deep-copied on every clone.
#[derive(Debug, Clone, PartialEq, Default)]
struct ModelValue {
    versions: Vec<Vec<u8>>,
    version: u64,
}

impl ModelValue {
    fn apply(&mut self, data: Vec<u8>, policy: OverwritePolicy) -> bool {
        match policy {
            OverwritePolicy::Overwrite => self.versions = vec![data],
            OverwritePolicy::Chain => self.versions.push(data),
            OverwritePolicy::Error => return false,
        }
        self.version += 1;
        true
    }

    /// `LocalStore::install` / `MetaCache::insert`: the newer version wins.
    fn install_over(slot: &mut Option<ModelValue>, value: ModelValue) {
        if slot.as_ref().is_none_or(|old| old.version < value.version) {
            *slot = Some(value);
        }
    }
}

/// One step of the record model test. Indexes pick a held copy modulo the
/// number of copies alive at that moment.
#[derive(Debug, Clone)]
enum RecOp {
    /// `apply` on a held copy (diverges it from every copy sharing its tail).
    Apply(usize, Vec<u8>, OverwritePolicy),
    /// `clone` a held copy into a new one.
    Clone(usize),
    /// `LocalStore::put` at the root.
    Put(Vec<u8>, OverwritePolicy),
    /// Take a copy of the root's record (what `handle_put` re-reads).
    ReadRoot,
    /// `LocalStore::install` of a held copy (replica adoption / key transfer).
    Install(usize),
    /// `MetaCache::insert` of a held copy (a `GetReply` passing by).
    CacheInsert(usize),
    /// `MetaCache::update_in_place` (a `Put` passing by).
    CacheUpdate(Vec<u8>, OverwritePolicy),
}

/// Appends twice as likely as the others: long shared tails are the point.
fn policy_strategy() -> impl Strategy<Value = OverwritePolicy> {
    prop_oneof![
        Just(OverwritePolicy::Overwrite),
        Just(OverwritePolicy::Chain),
        Just(OverwritePolicy::Chain),
        Just(OverwritePolicy::Error),
    ]
}

fn rec_op_strategy() -> impl Strategy<Value = RecOp> {
    let data = || proptest::collection::vec(any::<u8>(), 0..4);
    prop_oneof![
        (any::<usize>(), data(), policy_strategy()).prop_map(|(i, d, p)| RecOp::Apply(i, d, p)),
        any::<usize>().prop_map(RecOp::Clone),
        (data(), policy_strategy()).prop_map(|(d, p)| RecOp::Put(d, p)),
        Just(RecOp::ReadRoot),
        any::<usize>().prop_map(RecOp::Install),
        any::<usize>().prop_map(RecOp::CacheInsert),
        (data(), policy_strategy()).prop_map(|(d, p)| RecOp::CacheUpdate(d, p)),
    ]
}

/// Everything observable about a record agrees with its model.
fn check_record(real: &StoredValue, model: &ModelValue) -> Result<(), TestCaseError> {
    let versions: Vec<&[u8]> = model.versions.iter().map(Vec::as_slice).collect();
    prop_assert_eq!(real.versions(), versions);
    prop_assert_eq!(
        real.latest(),
        model.versions.last().map_or(&[][..], Vec::as_slice)
    );
    prop_assert_eq!(real.version(), model.version);
    Ok(())
}

proptest! {
    /// The shared chain behaves like the deep-copied vector it replaced under
    /// any interleaving of appends, overwrites, copies, installs and cache
    /// updates — and a copy taken earlier never sees a later update: every
    /// held copy is re-checked against its model after every step.
    #[test]
    fn stored_value_matches_deep_copy_model(
        ops in proptest::collection::vec(rec_op_strategy(), 0..80),
    ) {
        let key = Key::from_raw(7);
        let mut held: Vec<(StoredValue, ModelValue)> =
            vec![(StoredValue::default(), ModelValue::default())];
        let (mut root, mut root_model) = (LocalStore::new(), None::<ModelValue>);
        let (mut cache, mut cache_model) = (MetaCache::new(4), None::<ModelValue>);
        for op in ops {
            match op {
                RecOp::Apply(i, data, policy) => {
                    let i = i % held.len();
                    let (real, model) = &mut held[i];
                    let ok = real.apply(data.clone(), policy).is_ok();
                    prop_assert_eq!(ok, model.apply(data, policy));
                }
                RecOp::Clone(i) => {
                    let copy = held[i % held.len()].clone();
                    held.push(copy);
                }
                RecOp::Put(data, policy) => {
                    let got = root.put(key, data.clone(), policy).ok();
                    let want = match &mut root_model {
                        Some(m) => m.apply(data, policy).then_some(m.version),
                        None => {
                            root_model = Some(ModelValue { versions: vec![data], version: 1 });
                            Some(1)
                        }
                    };
                    prop_assert_eq!(got, want);
                }
                RecOp::ReadRoot => {
                    if let (Some(real), Some(model)) = (root.get(key), &root_model) {
                        held.push((real.clone(), model.clone()));
                    }
                }
                RecOp::Install(i) => {
                    let (real, model) = held[i % held.len()].clone();
                    root.install(key, real);
                    ModelValue::install_over(&mut root_model, model);
                }
                RecOp::CacheInsert(i) => {
                    let (real, model) = held[i % held.len()].clone();
                    cache.insert(key, real);
                    ModelValue::install_over(&mut cache_model, model);
                }
                RecOp::CacheUpdate(data, policy) => {
                    cache.update_in_place(key, &data, policy);
                    if let Some(m) = &mut cache_model {
                        m.apply(data, policy);
                    }
                }
            }
            prop_assert_eq!(root.get(key).is_some(), root_model.is_some());
            if let (Some(real), Some(model)) = (root.get(key), &root_model) {
                check_record(real, model)?;
            }
            let cached = cache.lookup(key);
            prop_assert_eq!(cached.is_some(), cache_model.is_some());
            if let (Some(real), Some(model)) = (&cached, &cache_model) {
                check_record(real, model)?;
            }
            for (real, model) in &held {
                check_record(real, model)?;
            }
            // `==` is by content: it agrees with the models' for every pair,
            // whether or not the two copies share any storage.
            let newest = held.last().expect("never empty");
            for (real, model) in &held {
                prop_assert_eq!(*real == newest.0, *model == newest.1);
                if let (Some(r), Some(m)) = (root.get(key), &root_model) {
                    prop_assert_eq!(real == r, model == m);
                }
            }
        }
    }
}
