//! Integration tests driving whole overlays of [`ChimeraNode`]s through an
//! in-memory message pump (no network model — pure protocol behaviour).

use std::time::Duration;

use c4h_chimera::{
    root_of, ChimeraConfig, ChimeraNode, DhtError, DhtEvent, Envelope, Key, Message,
    OverwritePolicy, PutError, StoredValue,
};
use c4h_simnet::SimTime;

/// A cluster of overlay nodes with synchronous message delivery.
struct Cluster {
    nodes: Vec<ChimeraNode>,
    alive: Vec<bool>,
    now: SimTime,
    events: Vec<Vec<DhtEvent>>,
}

impl Cluster {
    /// Builds an `n`-node overlay: node 0 bootstraps, the rest join through
    /// it one at a time.
    fn build(n: usize, config: ChimeraConfig) -> Self {
        let ids: Vec<Key> = (0..n)
            .map(|i| Key::from_name(&format!("node-{i}")))
            .collect();
        let mut c = Cluster {
            nodes: ids
                .iter()
                .map(|&id| ChimeraNode::new(id, config.clone()))
                .collect(),
            alive: vec![true; n],
            now: SimTime::ZERO,
            events: vec![Vec::new(); n],
        };
        c.nodes[0].bootstrap(c.now);
        let seed = c.nodes[0].id();
        for i in 1..n {
            c.nodes[i].join_via(seed, c.now);
            c.pump();
        }
        c
    }

    fn ids(&self) -> Vec<Key> {
        self.nodes.iter().map(|n| n.id()).collect()
    }

    fn index_of(&self, id: Key) -> usize {
        self.nodes
            .iter()
            .position(|n| n.id() == id)
            .unwrap_or_else(|| panic!("unknown node {id}"))
    }

    /// Delivers messages until the cluster is quiescent. Messages to dead
    /// nodes vanish (simulated crash).
    fn pump(&mut self) {
        self.pump_losing(|_| false);
    }

    /// [`Self::pump`] over a network that loses the envelopes `lost` picks.
    fn pump_losing(&mut self, mut lost: impl FnMut(&Envelope) -> bool) {
        for _ in 0..100_000 {
            let mut moved = false;
            for i in 0..self.nodes.len() {
                while let Some(env) = self.nodes[i].poll_send() {
                    moved = true;
                    let j = self.index_of(env.to);
                    if self.alive[j] && !lost(&env) {
                        let now = self.now;
                        self.nodes[j].handle(env, now);
                    }
                }
            }
            if !moved {
                self.collect_events();
                return;
            }
        }
        panic!("cluster failed to quiesce");
    }

    fn collect_events(&mut self) {
        for (i, n) in self.nodes.iter_mut().enumerate() {
            while let Some(e) = n.poll_event() {
                self.events[i].push(e);
            }
        }
    }

    /// Advances virtual time in `step` increments, ticking all live nodes.
    fn run_for(&mut self, total: Duration, step: Duration) {
        let end = self.now + total;
        while self.now < end {
            self.now += step;
            for i in 0..self.nodes.len() {
                if self.alive[i] {
                    let now = self.now;
                    self.nodes[i].tick(now);
                }
            }
            self.pump();
        }
    }

    fn put(&mut self, origin: usize, key: Key, data: &[u8], policy: OverwritePolicy) {
        let now = self.now;
        self.nodes[origin]
            .put(key, data.to_vec(), policy, now)
            .unwrap();
        self.pump();
    }

    /// Issues a get and returns `(value, from_cache, hops)`.
    fn get(&mut self, origin: usize, key: Key) -> (Option<Vec<u8>>, bool, u8) {
        let (value, from_cache, hops) = self.get_record(origin, key);
        (value.map(|v| v.latest().to_vec()), from_cache, hops)
    }

    /// Issues a get and returns `(record, from_cache, hops)`.
    fn get_record(&mut self, origin: usize, key: Key) -> (Option<StoredValue>, bool, u8) {
        let now = self.now;
        let req = self.nodes[origin].get(key, now).unwrap();
        self.pump();
        for e in self.events[origin].drain(..) {
            if let DhtEvent::GetCompleted {
                req: r,
                value,
                from_cache,
                hops,
                result,
                ..
            } = e
            {
                if r == req {
                    result.unwrap();
                    return (value, from_cache, hops);
                }
            }
        }
        panic!("get did not complete");
    }

    fn last_put_result(&mut self, origin: usize) -> Result<u64, DhtError> {
        for e in self.events[origin].drain(..).rev() {
            if let DhtEvent::PutCompleted { result, .. } = e {
                return result;
            }
        }
        panic!("no put completion recorded");
    }

    fn crash(&mut self, i: usize) {
        self.alive[i] = false;
    }
}

fn cfg() -> ChimeraConfig {
    ChimeraConfig::default()
}

#[test]
fn six_node_overlay_forms_complete_view() {
    let c = Cluster::build(6, cfg());
    for n in &c.nodes {
        assert!(n.is_joined());
        assert_eq!(n.peer_keys().len(), 5, "node {} sees all peers", n.id());
    }
}

#[test]
fn put_get_roundtrip_from_every_node() {
    let mut c = Cluster::build(6, cfg());
    let keys: Vec<Key> = (0..24)
        .map(|i| Key::from_name(&format!("obj-{i}")))
        .collect();
    for (i, &k) in keys.iter().enumerate() {
        let data = format!("value-{i}");
        c.put(i % 6, k, data.as_bytes(), OverwritePolicy::Overwrite);
    }
    for (i, &k) in keys.iter().enumerate() {
        let (v, _, _) = c.get((i + 3) % 6, k);
        assert_eq!(v.unwrap(), format!("value-{i}").into_bytes());
    }
}

#[test]
fn records_land_on_the_ring_root() {
    let mut c = Cluster::build(6, cfg());
    let ids = c.ids();
    let keys: Vec<Key> = (0..40)
        .map(|i| Key::from_name(&format!("rooted-{i}")))
        .collect();
    for &k in &keys {
        c.put(0, k, b"x", OverwritePolicy::Overwrite);
    }
    for &k in &keys {
        let expected_root = root_of(k, ids.iter().copied()).unwrap();
        let root_idx = c.index_of(expected_root);
        assert!(
            c.nodes[root_idx].local_get(k).is_some(),
            "key {k} should live on its root {expected_root}"
        );
    }
}

#[test]
fn overwrite_policy_replaces_chain_appends_error_rejects() {
    let mut c = Cluster::build(4, cfg());
    let k = Key::from_name("policy-object");

    c.put(1, k, b"v1", OverwritePolicy::Overwrite);
    c.put(2, k, b"v2", OverwritePolicy::Overwrite);
    let (v, _, _) = c.get(3, k);
    assert_eq!(v.unwrap(), b"v2");

    c.put(1, k, b"v3", OverwritePolicy::Chain);
    let root = c.index_of(root_of(k, c.ids()).unwrap());
    let rec = c.nodes[root].local_get(k).unwrap();
    assert_eq!(rec.versions().len(), 2, "chain keeps both versions");
    assert_eq!(rec.latest(), b"v3");

    c.put(2, k, b"v4", OverwritePolicy::Error);
    let res = c.last_put_result(2);
    assert_eq!(res, Err(DhtError::Rejected(PutError::Exists)));
}

#[test]
fn get_missing_key_returns_none() {
    let mut c = Cluster::build(3, cfg());
    let (v, from_cache, _) = c.get(1, Key::from_name("never-stored"));
    assert_eq!(v, None);
    assert!(!from_cache);
}

#[test]
fn graceful_leave_redistributes_keys() {
    let mut c = Cluster::build(6, cfg());
    let keys: Vec<Key> = (0..30)
        .map(|i| Key::from_name(&format!("leave-{i}")))
        .collect();
    for &k in &keys {
        c.put(0, k, b"persisted", OverwritePolicy::Overwrite);
    }
    // Node 3 leaves gracefully.
    let now = c.now;
    let left_id = c.nodes[3].id();
    c.nodes[3].leave(now);
    c.pump();
    c.crash(3); // it no longer participates
    for n in c
        .nodes
        .iter()
        .enumerate()
        .filter(|(i, _)| *i != 3)
        .map(|(_, n)| n)
    {
        assert!(
            !n.peer_keys().contains(&left_id),
            "peers should drop the departed node"
        );
    }
    // All records remain reachable.
    for &k in &keys {
        let (v, _, _) = c.get(1, k);
        assert_eq!(v.unwrap(), b"persisted", "key {k} lost after leave");
    }
}

#[test]
fn crash_failover_serves_replicated_keys() {
    let mut config = cfg();
    config.replication = 2;
    let mut c = Cluster::build(6, config);
    let keys: Vec<Key> = (0..30)
        .map(|i| Key::from_name(&format!("crash-{i}")))
        .collect();
    for &k in &keys {
        c.put(0, k, b"replicated", OverwritePolicy::Overwrite);
    }
    // Crash a node that owns at least one key.
    let ids = c.ids();
    let victim_id = keys
        .iter()
        .map(|&k| root_of(k, ids.iter().copied()).unwrap())
        .find(|&r| r != c.nodes[0].id())
        .expect("some key rooted away from node 0");
    let victim = c.index_of(victim_id);
    c.crash(victim);

    // Let liveness detection run: ping interval 1 s, 3 misses to fail.
    c.run_for(Duration::from_secs(10), Duration::from_millis(500));
    for (i, n) in c.nodes.iter().enumerate() {
        if i != victim {
            assert!(
                !n.peer_keys().contains(&victim_id),
                "node {} still lists the crashed peer",
                n.id()
            );
        }
    }
    // Every key is still readable from a surviving node.
    let reader = (victim + 1) % 6;
    for &k in &keys {
        let (v, _, _) = c.get(reader, k);
        assert_eq!(v.unwrap(), b"replicated", "key {k} lost after crash");
    }
}

/// Replication ships the whole record, so a replica that misses one
/// `Replicate` is whole again after the next: the root can crash at any
/// point and the promoted replica serves every version up to the last
/// `Replicate` it received. (An append-only delta would leave a hole.)
#[test]
fn lost_replicate_is_healed_by_the_next_one() {
    let mut config = cfg();
    config.replication = 2;
    let mut c = Cluster::build(6, config);
    let key = Key::from_name("dir/long");
    let root = c.index_of(root_of(key, c.ids()).unwrap());
    let origin = (root + 1) % 6;
    let entry = |i: u64| format!("entry-{i}").into_bytes();
    for i in 1..=50u64 {
        let now = c.now;
        c.nodes[origin]
            .put(key, entry(i), OverwritePolicy::Chain, now)
            .unwrap();
        // The 25th append reaches the root but none of its replicas.
        c.pump_losing(|env| i == 25 && matches!(env.msg, Message::Replicate { .. }));
        assert_eq!(c.last_put_result(origin), Ok(i));
        let replicas: Vec<u64> = (0..6)
            .filter(|&j| j != root)
            .filter_map(|j| c.nodes[j].local_get(key).map(StoredValue::version))
            .collect();
        let want = if i == 25 { 24 } else { i };
        assert_eq!(replicas, [want, want], "after append {i}");
    }
    c.crash(root);
    c.run_for(Duration::from_secs(10), Duration::from_millis(500));
    let (record, _, _) = c.get_record(origin, key);
    let record = record.expect("a replica was promoted");
    let all: Vec<Vec<u8>> = (1..=50).map(entry).collect();
    assert_eq!(record.versions(), all);
    assert_eq!(record.version(), 50);
}

#[test]
fn join_via_dead_seed_times_out() {
    let mut node = ChimeraNode::new(Key::from_name("lonely"), cfg());
    node.join_via(Key::from_name("ghost-seed"), SimTime::ZERO);
    while node.poll_send().is_some() {}
    node.tick(SimTime::from_secs(10));
    let mut saw_failure = false;
    while let Some(e) = node.poll_event() {
        if matches!(e, DhtEvent::JoinFailed) {
            saw_failure = true;
        }
    }
    assert!(saw_failure);
    assert!(!node.is_joined());
}

#[test]
fn request_to_crashed_root_times_out() {
    let mut c = Cluster::build(4, cfg());
    let k = Key::from_name("orphan-key");
    let ids = c.ids();
    let root = c.index_of(root_of(k, ids.iter().copied()).unwrap());
    let origin = (root + 1) % 4;
    c.crash(root);
    // Issue the get before anyone notices the crash.
    let now = c.now;
    let req = c.nodes[origin].get(k, now).unwrap();
    c.pump();
    c.run_for(Duration::from_secs(5), Duration::from_secs(1));
    let timed_out = c.events[origin].iter().any(|e| {
        matches!(
            e,
            DhtEvent::GetCompleted { req: r, result: Err(DhtError::Timeout), .. } if *r == req
        )
    });
    assert!(timed_out, "expected a timeout completion");
}

#[test]
fn rejoin_after_leave_works() {
    let mut c = Cluster::build(4, cfg());
    let now = c.now;
    c.nodes[2].leave(now);
    c.pump();
    // Rejoin through node 0.
    let seed = c.nodes[0].id();
    let now = c.now;
    c.nodes[2].join_via(seed, now);
    c.pump();
    assert!(c.nodes[2].is_joined());
    for n in &c.nodes {
        assert_eq!(n.peer_keys().len(), 3, "full view restored at {}", n.id());
    }
}

#[test]
fn large_overlay_multi_hop_routing_and_caching() {
    // 48 nodes with small leaf sets: lookups outside the leaf interval must
    // traverse the prefix routing table, and repeated lookups hit caches at
    // intermediate hops.
    let mut config = cfg();
    config.leaf_size = 2;
    let mut c = Cluster::build(48, config);
    let keys: Vec<Key> = (0..64)
        .map(|i| Key::from_name(&format!("big-{i}")))
        .collect();
    for &k in &keys {
        c.put(0, k, b"data", OverwritePolicy::Overwrite);
    }
    let mut max_hops = 0u8;
    for (i, &k) in keys.iter().enumerate() {
        let (v, _, hops) = c.get(i % 48, k);
        assert_eq!(v.unwrap(), b"data");
        max_hops = max_hops.max(hops);
    }
    assert!(
        max_hops > 2,
        "48-node overlay should need multi-hop routing, saw max {max_hops}"
    );
    // Repeat the same lookups: some must now be answered from caches.
    for (i, &k) in keys.iter().enumerate() {
        let _ = c.get(i % 48, k);
    }
    let cache_answers: u64 = c.nodes.iter().map(|n| n.stats().cache_answers).sum();
    assert!(cache_answers > 0, "repeated lookups should hit path caches");
}

#[test]
fn replication_counts_match_configuration() {
    let mut config = cfg();
    config.replication = 2;
    let mut c = Cluster::build(6, config);
    let k = Key::from_name("replicated-object");
    c.put(0, k, b"r", OverwritePolicy::Overwrite);
    let holders = c.nodes.iter().filter(|n| n.local_get(k).is_some()).count();
    // Root + 2 replicas.
    assert_eq!(holders, 3, "expected root plus two replicas");
}

#[test]
fn stats_track_operations() {
    let mut c = Cluster::build(3, cfg());
    let k = Key::from_name("stats-object");
    c.put(0, k, b"s", OverwritePolicy::Overwrite);
    let _ = c.get(1, k);
    assert_eq!(c.nodes[0].stats().puts, 1);
    assert_eq!(c.nodes[1].stats().gets, 1);
    let ids_with_traffic = c.nodes.iter().filter(|n| n.stats().msgs_out > 0).count();
    assert!(ids_with_traffic >= 2);
}

#[test]
fn local_membership_helpers_are_consistent() {
    let c = Cluster::build(5, cfg());
    let ids = c.ids();
    for n in &c.nodes {
        let mut expected: Vec<Key> = ids.iter().copied().filter(|&k| k != n.id()).collect();
        expected.sort();
        assert_eq!(n.peer_keys(), expected);
        // is_root_for agrees with the global model.
        for probe in 0..20u64 {
            let k = Key::from_name(&format!("probe-{probe}"));
            let global = root_of(k, ids.iter().copied()).unwrap();
            assert_eq!(n.is_root_for(k), global == n.id());
        }
    }
}

#[test]
fn delete_removes_record_everywhere() {
    let mut config = cfg();
    config.replication = 2;
    let mut c = Cluster::build(6, config);
    let k = Key::from_name("deleted-object");
    c.put(0, k, b"data", OverwritePolicy::Overwrite);
    assert_eq!(
        c.nodes.iter().filter(|n| n.local_get(k).is_some()).count(),
        3,
        "root plus two replicas before deletion"
    );
    let now = c.now;
    let req = c.nodes[2].delete(k, now).unwrap();
    c.pump();
    let ok = c.events[2].drain(..).any(
        |e| matches!(e, DhtEvent::DeleteCompleted { req: r, result: Ok(true), .. } if r == req),
    );
    assert!(ok, "delete should acknowledge an existing record");
    assert_eq!(
        c.nodes.iter().filter(|n| n.local_get(k).is_some()).count(),
        0,
        "no copy survives deletion"
    );
    let (v, _, _) = c.get(1, k);
    assert_eq!(v, None);
}

#[test]
fn delete_of_missing_key_reports_not_existed() {
    let mut c = Cluster::build(4, cfg());
    let now = c.now;
    let req = c.nodes[1].delete(Key::from_name("ghost"), now).unwrap();
    c.pump();
    let ok = c.events[1].drain(..).any(
        |e| matches!(e, DhtEvent::DeleteCompleted { req: r, result: Ok(false), .. } if r == req),
    );
    assert!(ok);
}

#[test]
fn delete_invalidates_path_caches() {
    let mut config = cfg();
    config.leaf_size = 2;
    let mut c = Cluster::build(32, config);
    let k = Key::from_name("cached-then-deleted");
    c.put(0, k, b"v", OverwritePolicy::Overwrite);
    // Warm caches along a multi-hop path.
    for _ in 0..3 {
        let (v, _, _) = c.get(7, k);
        assert_eq!(v.as_deref(), Some(&b"v"[..]));
    }
    let now = c.now;
    c.nodes[7].delete(k, now).unwrap();
    c.pump();
    c.events[7].clear();
    // A fresh lookup must not resurrect the record from a stale cache.
    let (v, from_cache, _) = c.get(7, k);
    assert_eq!(v, None, "stale cache served a deleted record");
    assert!(!from_cache);
}

#[test]
fn delete_before_join_is_rejected() {
    let mut node = ChimeraNode::new(Key::from_name("solo"), cfg());
    assert_eq!(
        node.delete(Key::from_name("x"), SimTime::ZERO).unwrap_err(),
        DhtError::NotJoined
    );
}
