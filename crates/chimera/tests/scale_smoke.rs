//! Scale smoke tests: overlay construction plus a mixed workload, under
//! explicit wall-clock budgets, at two scales.
//!
//! This is the engine-speed canary the `engine_throughput` bench can't be
//! (benches don't gate CI): if the event engine, the overlay's hot maps,
//! or the message pump regress to accidentally-quadratic behavior, the
//! budget blows and the release-tier CI step fails. The pump here is
//! O(messages) — a work queue of nodes with pending sends and an
//! `FxHashMap` id→index route table — so the budget measures the
//! per-message cost, not harness overhead.
//!
//! Two construction paths are exercised:
//!
//! - **Protocol join** (10k nodes): every node joins through the seed and
//!   the announcement flood runs to quiescence — O(n²) deliveries, the
//!   full protocol cost.
//! - **Bulk assembly** (10⁶ nodes): the harness sorts the whole key
//!   population once and hands each node its true ring neighbourhood plus
//!   one representative per populated prefix-table slot via
//!   [`ChimeraNode::assemble`] — zero messages, O(view) per node. A
//!   debug-tier test pins the two paths to identical record placement and
//!   read results on the same key population.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use c4h_chimera::{ChimeraConfig, ChimeraNode, DhtEvent, Key, OverwritePolicy, KEY_DIGITS};
use c4h_simnet::{FxHashMap, SimTime};

/// Deterministic splitmix64 stream for origin/key selection.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// An overlay harness built for size: O(1) id→index routing and a
/// message pump that only visits nodes with work.
struct ScaleCluster {
    nodes: Vec<ChimeraNode>,
    index: FxHashMap<Key, usize>,
    now: SimTime,
}

impl ScaleCluster {
    /// Generates `n` distinct node keys plus the id→index map. Keys live
    /// in a 40-bit space, so at 10⁶ nodes a birthday collision is more
    /// likely than not (~0.45 expected); colliding names are salted until
    /// unique so both builders see the same well-formed population.
    fn keys_for(n: usize) -> (Vec<Key>, FxHashMap<Key, usize>) {
        let mut keys = Vec::with_capacity(n);
        let mut index = FxHashMap::default();
        for i in 0..n {
            let mut salt = 0u64;
            let id = loop {
                let k = if salt == 0 {
                    Key::from_name(&format!("scale-node-{i}"))
                } else {
                    Key::from_name(&format!("scale-node-{i}-{salt}"))
                };
                if !index.contains_key(&k) {
                    break k;
                }
                salt += 1;
            };
            index.insert(id, i);
            keys.push(id);
        }
        (keys, index)
    }

    fn empty(n: usize) -> (Self, Vec<Key>) {
        let config = ChimeraConfig::default();
        let (keys, index) = Self::keys_for(n);
        let mut c = ScaleCluster {
            nodes: Vec::with_capacity(n),
            index,
            now: SimTime::ZERO,
        };
        for &id in &keys {
            c.nodes.push(ChimeraNode::new(id, config.clone()));
        }
        (c, keys)
    }

    fn build(n: usize) -> Self {
        let (mut c, _) = Self::empty(n);
        c.nodes[0].bootstrap(c.now);
        let seed = c.nodes[0].id();
        for i in 1..n {
            c.nodes[i].join_via(seed, c.now);
            c.drain_from(i, None);
        }
        c
    }

    /// Builds the overlay through [`ChimeraNode::assemble`]: sort the key
    /// population once, then hand each node its true ring neighbourhood
    /// (`leaf_size` keys per side — the correctness contract) plus one
    /// representative per populated prefix-table slot. Prefix ranges are
    /// contiguous in the sorted list, so each slot's representative is one
    /// binary search; `rows` covers log₁₆ n digits, past which slots are
    /// almost surely empty. Zero messages, O(n · view) total work — the
    /// only construction that is feasible at 10⁶ nodes, where protocol
    /// join would need ~10¹² deliveries.
    fn build_assembled(n: usize) -> Self {
        let (mut c, keys) = Self::empty(n);
        let leaf_size = c.nodes[0].config().leaf_size;
        let mut sorted = keys;
        sorted.sort_unstable();
        let raws: Vec<u64> = sorted.iter().map(|k| k.raw()).collect();
        let rows = (usize::BITS - n.leading_zeros())
            .div_ceil(4)
            .min(KEY_DIGITS as u32);
        let now = c.now;
        for (r, &id) in sorted.iter().enumerate() {
            let own = id.raw();
            let mut view = Vec::with_capacity(2 * leaf_size + 15 * rows as usize);
            // True ring neighbours; on tiny rings the window may wrap onto
            // self or repeat — `assemble` deduplicates and skips self.
            for d in 1..=leaf_size {
                view.push(sorted[(r + d) % n]);
                view.push(sorted[(r + n - d) % n]);
            }
            for row in 0..rows as usize {
                let shift = 4 * (KEY_DIGITS - 1 - row) as u64;
                let prefix = own >> (shift + 4) << (shift + 4);
                for c4 in 0..16u64 {
                    if c4 == (own >> shift) & 0xF {
                        continue;
                    }
                    let lo = prefix | (c4 << shift);
                    let p = raws.partition_point(|&x| x < lo);
                    if p < n && raws[p] < lo + (1u64 << shift) {
                        view.push(sorted[p]);
                    }
                }
            }
            let i = c.index[&id];
            c.nodes[i].assemble(view, now);
            while c.nodes[i].poll_event().is_some() {}
        }
        c
    }

    /// Delivers every message transitively reachable from `start`'s
    /// outbox. Visiting only nodes known to have work keeps one pump at
    /// O(messages) instead of O(nodes), and discarding byproduct events
    /// (`PeerJoined` floods — ~n per node over a full join) as they appear
    /// keeps memory flat; `keep`'s events are preserved for the caller.
    fn drain_from(&mut self, start: usize, keep: Option<usize>) {
        let mut work: VecDeque<usize> = VecDeque::new();
        work.push_back(start);
        let mut delivered: u64 = 0;
        while let Some(i) = work.pop_front() {
            if Some(i) != keep {
                while self.nodes[i].poll_event().is_some() {}
            }
            while let Some(env) = self.nodes[i].poll_send() {
                delivered += 1;
                assert!(
                    delivered < 50_000_000,
                    "overlay failed to quiesce (message storm)"
                );
                let j = *self
                    .index
                    .get(&env.to)
                    .unwrap_or_else(|| panic!("unknown destination {}", env.to));
                let now = self.now;
                self.nodes[j].handle(env, now);
                if Some(j) != keep {
                    while self.nodes[j].poll_event().is_some() {}
                }
                work.push_back(j);
            }
        }
    }

    fn put(&mut self, origin: usize, key: Key, data: Vec<u8>) {
        let now = self.now;
        self.nodes[origin]
            .put(key, data, OverwritePolicy::Overwrite, now)
            .expect("node is joined");
        self.drain_from(origin, None);
    }

    fn get(&mut self, origin: usize, key: Key) -> Option<Vec<u8>> {
        let now = self.now;
        let req = self.nodes[origin].get(key, now).expect("node is joined");
        self.drain_from(origin, Some(origin));
        while let Some(e) = self.nodes[origin].poll_event() {
            if let DhtEvent::GetCompleted {
                req: r,
                value,
                result,
                ..
            } = e
            {
                if r == req {
                    result.expect("get failed");
                    return value.map(|v| v.latest().to_vec());
                }
            }
        }
        panic!("get {key} did not complete");
    }
}

/// Runs `ops` mixed puts/gets against a built cluster and asserts every
/// read returns the last written bytes.
fn churn(cluster: &mut ScaleCluster, ops: usize) {
    let n = cluster.nodes.len();
    let mut mix = Mix(0xC10D_4B0E);
    let mut written: Vec<(Key, Vec<u8>)> = Vec::new();
    for i in 0..ops {
        let origin = (mix.next() % n as u64) as usize;
        // 50/50 put/get, reads always hitting previously written keys.
        if written.is_empty() || i % 2 == 0 {
            let key = Key::from_name(&format!("scale-obj-{i}"));
            let data = format!("payload-{i}-{}", mix.next()).into_bytes();
            cluster.put(origin, key, data.clone());
            written.push((key, data));
        } else {
            let (key, expect) = &written[(mix.next() % written.len() as u64) as usize];
            let got = cluster.get(origin, *key);
            assert_eq!(
                got.as_deref(),
                Some(expect.as_slice()),
                "read returned wrong bytes for {key}"
            );
        }
    }
}

/// Builds an `n`-node cluster via `build`, runs `ops` mixed puts/gets,
/// and asserts the whole run fits in `budget` wall-clock time.
fn build_and_churn(
    n: usize,
    ops: usize,
    budget: Duration,
    build: impl FnOnce(usize) -> ScaleCluster,
) {
    let started = Instant::now();
    let mut cluster = build(n);
    let join_elapsed = started.elapsed();
    churn(&mut cluster, ops);
    let elapsed = started.elapsed();
    assert!(
        elapsed <= budget,
        "scale smoke blew its wall-clock budget: {n} nodes built in \
         {join_elapsed:?}, {ops} ops finished at {elapsed:?} (budget {budget:?}) \
         — the engine or overlay has regressed super-linearly"
    );
}

/// Release-tier smoke: 10k nodes, 1k mixed ops. Full membership makes
/// the join flood inherently O(n²) messages (~5×10⁷ deliveries), which
/// dominate the run: 181 s in release on a shared 2-core x86-64 box with
/// the arena membership view (207 s with one boxed node per view entry).
/// The budget, 1 200 s, is loose enough for slower CI runners and tight
/// enough to catch super-linear regressions (which overshoot by an order
/// of magnitude). Debug builds skip it (`cargo test --release` runs it;
/// see the CI release step).
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "release-tier scale smoke; run with --release"
)]
fn ten_k_node_join_and_mixed_workload() {
    build_and_churn(
        10_000,
        1_000,
        Duration::from_secs(1200),
        ScaleCluster::build,
    );
}

/// Release-tier milestone: a 10⁶-node overlay, bulk-assembled (protocol
/// join at this scale would be ~10¹² deliveries), then a mixed workload
/// routed through partial views. Exercises the whole read/write path at
/// a population where per-node state must stay O(log n): true leaf sets,
/// sampled prefix tables, closest-known fallback. The budget bounds
/// assembly (sort + per-node view computation + view install) plus the
/// workload; super-linear regressions in either overshoot it by an order
/// of magnitude.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "release-tier scale milestone; run with --release"
)]
fn million_node_assembled_overlay_and_mixed_workload() {
    build_and_churn(
        1_000_000,
        1_000,
        Duration::from_secs(1200),
        ScaleCluster::build_assembled,
    );
}

/// Debug-tier variant: same shape at 1/10 scale so every `cargo test`
/// still exercises the scale harness end to end.
#[test]
fn one_k_node_join_and_mixed_workload() {
    build_and_churn(1_000, 100, Duration::from_secs(120), ScaleCluster::build);
}

/// Debug-tier assembly check at 1/1000 scale: the assembled builder's
/// partial views (ring window + prefix samples) must serve the workload
/// exactly like the full-membership protocol path.
#[test]
fn one_k_node_assembled_overlay_and_mixed_workload() {
    build_and_churn(
        1_000,
        100,
        Duration::from_secs(120),
        ScaleCluster::build_assembled,
    );
}

/// Bulk assembly is a construction-path optimization, not a semantic
/// change: on the same key population and op stream, an assembled overlay
/// must place every record on exactly the node a protocol-joined overlay
/// places it on (same roots, same replica sets) and return the same
/// bytes. Pins the `assemble` contract — true leaf sets make partial
/// views indistinguishable from full membership for routing decisions.
#[test]
fn assembled_overlay_matches_protocol_join() {
    let n = 48;
    let mut joined = ScaleCluster::build(n);
    let mut assembled = ScaleCluster::build_assembled(n);
    churn(&mut joined, 60);
    churn(&mut assembled, 60);
    for i in 0..n {
        assert_eq!(joined.nodes[i].id(), assembled.nodes[i].id());
        assert_eq!(
            joined.nodes[i].owned_records(),
            assembled.nodes[i].owned_records(),
            "node {i} owns a different record set under assembly"
        );
        assert_eq!(
            joined.nodes[i].replica_records(),
            assembled.nodes[i].replica_records(),
            "node {i} holds a different replica set under assembly"
        );
    }
}
