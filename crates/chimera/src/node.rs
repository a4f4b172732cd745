//! The sans-io overlay node state machine.
//!
//! [`ChimeraNode`] implements the full overlay lifecycle — bootstrap, join,
//! graceful leave, failure detection — and the DHT operations (`put`/`get`
//! with overwrite policies, path caching, and replication) as a pure state
//! machine: inputs are [`Envelope`]s, timer ticks, and API calls; outputs
//! are drained through [`ChimeraNode::poll_send`] (messages for the
//! transport) and [`ChimeraNode::poll_event`] (completions for the
//! application).
//!
//! This mirrors how the paper layers VStore++ over Chimera: the metadata and
//! resource-management layer issues key-value operations, and the overlay
//! routes them to the responsible node ("the object name is hashed, and the
//! object information is routed to a node with an ID closest to the hash
//! value").

use std::collections::VecDeque;
use std::sync::Arc;

use c4h_simnet::FxHashMap;
use std::time::Duration;

use c4h_simnet::SimTime;
use c4h_telemetry::{ArgValue, Recorder, SpanStart};

use crate::key::Key;
use crate::messages::{Envelope, Message, ReqId};
use crate::rbtree::RbTree;
use crate::routing::{closest_known, route, LeafSet, NextHop, RoutingTable};
use crate::store::{LocalStore, MetaCache, OverwritePolicy, PutError, StoredValue};

/// Tunables of the overlay node.
#[derive(Debug, Clone, PartialEq)]
pub struct ChimeraConfig {
    /// Leaf-set size per side.
    pub leaf_size: usize,
    /// Number of replicas maintained beyond the root ("state can be
    /// replicated using a fixed replication factor").
    pub replication: usize,
    /// Intermediate-hop metadata cache capacity (0 disables caching).
    pub cache_capacity: usize,
    /// How long the origin waits before failing a pending request.
    pub request_timeout: Duration,
    /// Interval between liveness probes of ring neighbours.
    pub ping_interval: Duration,
    /// Consecutive missed probes before a neighbour is declared failed.
    pub fail_after_missed: u32,
    /// Routing-hop safety cap.
    pub max_hops: u8,
}

impl Default for ChimeraConfig {
    fn default() -> Self {
        ChimeraConfig {
            leaf_size: 2,
            replication: 1,
            cache_capacity: 128,
            request_timeout: Duration::from_secs(3),
            ping_interval: Duration::from_secs(1),
            fail_after_missed: 3,
            max_hops: 32,
        }
    }
}

/// Errors surfaced through [`DhtEvent`]s or returned by the request API.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DhtError {
    /// The node has not joined an overlay.
    NotJoined,
    /// The root rejected the update.
    Rejected(PutError),
    /// No reply arrived within the request timeout.
    Timeout,
}

impl std::fmt::Display for DhtError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DhtError::NotJoined => write!(f, "node has not joined an overlay"),
            DhtError::Rejected(e) => write!(f, "put rejected: {e}"),
            DhtError::Timeout => write!(f, "request timed out"),
        }
    }
}

impl std::error::Error for DhtError {}

/// Completions and membership notifications delivered to the application.
#[derive(Debug, Clone, PartialEq)]
pub enum DhtEvent {
    /// This node completed its join.
    Joined {
        /// Number of peers learned at join time.
        peers: usize,
    },
    /// A join attempt timed out.
    JoinFailed,
    /// A `put` finished.
    PutCompleted {
        /// The request.
        req: ReqId,
        /// Resulting record version, or the failure.
        result: Result<u64, DhtError>,
        /// Routing hops taken.
        hops: u8,
    },
    /// A `delete` finished.
    DeleteCompleted {
        /// The request.
        req: ReqId,
        /// `Ok(true)` if a record existed and was removed.
        result: Result<bool, DhtError>,
        /// Routing hops taken.
        hops: u8,
    },
    /// A `get` finished.
    GetCompleted {
        /// The request.
        req: ReqId,
        /// The record key.
        key: Key,
        /// The value, if any (`None` can also mean timeout — see `result`).
        value: Option<StoredValue>,
        /// Whether an intermediate cache answered.
        from_cache: bool,
        /// Routing hops taken (request + reply legs).
        hops: u8,
        /// `Err` on timeout.
        result: Result<(), DhtError>,
    },
    /// A new peer entered the overlay.
    PeerJoined {
        /// The new peer.
        node: Key,
    },
    /// A peer left gracefully.
    PeerRetired {
        /// The departed peer.
        node: Key,
    },
    /// A peer was declared failed by the liveness detector.
    PeerFailed {
        /// The failed peer.
        node: Key,
    },
}

/// What the membership view keeps per peer.
#[derive(Debug, Clone)]
struct PeerState {
    incarnation: u32,
}

#[derive(Debug, Clone)]
enum PendingKind {
    Join,
    Put,
    Get { key: Key },
    Delete,
}

impl PendingKind {
    /// The request's `dht.*` span name; a join has no span.
    fn span_name(&self) -> Option<&'static str> {
        match self {
            PendingKind::Join => None,
            PendingKind::Put => Some("dht.put"),
            PendingKind::Get { .. } => Some("dht.get"),
            PendingKind::Delete => Some("dht.delete"),
        }
    }
}

#[derive(Debug)]
struct Pending {
    kind: PendingKind,
    deadline: SimTime,
    /// Where the request's `dht.*` span began; inert while recording is
    /// off.
    span: SpanStart,
}

/// Message-level statistics, exposed for the experiment harness.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeStats {
    /// Envelopes processed from the network.
    pub msgs_in: u64,
    /// Envelopes queued for the network.
    pub msgs_out: u64,
    /// `put` requests originated here.
    pub puts: u64,
    /// `get` requests originated here.
    pub gets: u64,
    /// Sum of hops over completed lookups (for mean-hop statistics).
    pub lookup_hops: u64,
    /// Lookups answered by an intermediate cache.
    pub cache_answers: u64,
}

/// A Chimera overlay node: prefix routing, leaf sets, a red-black-tree view
/// of the membership, and a replicated, cached key-value store.
///
/// # Examples
///
/// Two nodes, one join, one put/get round trip (driven without any network
/// by delivering envelopes directly):
///
/// ```
/// use c4h_chimera::{ChimeraConfig, ChimeraNode, DhtEvent, Key, OverwritePolicy};
/// use c4h_simnet::SimTime;
///
/// let now = SimTime::ZERO;
/// let mut a = ChimeraNode::new(Key::from_name("node-a"), ChimeraConfig::default());
/// let mut b = ChimeraNode::new(Key::from_name("node-b"), ChimeraConfig::default());
/// a.bootstrap(now);
/// b.join_via(a.id(), now);
///
/// // Pump messages until quiescent.
/// let mut nodes = [&mut a, &mut b];
/// loop {
///     let mut moved = false;
///     for i in 0..nodes.len() {
///         while let Some(env) = nodes[i].poll_send() {
///             moved = true;
///             let dst = nodes.iter_mut().find(|n| n.id() == env.to).unwrap();
///             dst.handle(env, now);
///         }
///     }
///     if !moved { break; }
/// }
/// assert!(nodes[1].is_joined());
/// ```
#[derive(Debug)]
pub struct ChimeraNode {
    id: Key,
    incarnation: u32,
    config: ChimeraConfig,
    peers: RbTree<Key, PeerState>,
    /// Outstanding liveness probes: a peer is present while a ping to it
    /// awaits its answer, mapped to the rounds that found it unanswered.
    /// Only known peers have one, and it survives the peer leaving the
    /// leaf set.
    probes: FxHashMap<Key, u32>,
    retired: FxHashMap<Key, u32>,
    table: RoutingTable,
    leaf: LeafSet,
    store: LocalStore,
    replicas: LocalStore,
    cache: MetaCache,
    pending: FxHashMap<ReqId, Pending>,
    outbox: VecDeque<Envelope>,
    events: VecDeque<DhtEvent>,
    joined: bool,
    next_req: ReqId,
    last_ping_round: Option<SimTime>,
    stats: NodeStats,
    telemetry: Option<(Recorder, u64)>,
    /// Replica targets of the record being replicated, refilled per record.
    targets: Vec<Key>,
}

impl ChimeraNode {
    /// Creates a node with the given overlay ID.
    pub fn new(id: Key, config: ChimeraConfig) -> Self {
        let cache_capacity = config.cache_capacity;
        ChimeraNode {
            id,
            incarnation: 1,
            table: RoutingTable::new(id),
            leaf: LeafSet::new(),
            peers: RbTree::new(),
            probes: FxHashMap::default(),
            retired: FxHashMap::default(),
            store: LocalStore::new(),
            replicas: LocalStore::new(),
            cache: MetaCache::new(cache_capacity),
            pending: FxHashMap::default(),
            outbox: VecDeque::new(),
            events: VecDeque::new(),
            joined: false,
            next_req: 1,
            last_ping_round: None,
            config,
            stats: NodeStats::default(),
            telemetry: None,
            targets: Vec::new(),
        }
    }

    /// Attaches a telemetry recorder. Every originated `put`/`get`/`delete`
    /// request becomes a `dht.*` span on `track`, closed with the routing
    /// hop count and outcome; completed lookups also feed the
    /// `chimera.lookup_hops` histogram.
    pub fn set_telemetry(&mut self, recorder: Recorder, track: u64) {
        self.telemetry = Some((recorder, track));
    }

    /// Records an originated request as pending until `now` plus the
    /// request timeout, with its span begun. With recording off the span
    /// costs the recorder's one relaxed load.
    fn insert_pending(&mut self, req: ReqId, kind: PendingKind, now: SimTime) {
        let span = match &self.telemetry {
            Some((rec, _)) => rec.begin(now.as_nanos()),
            None => SpanStart::default(),
        };
        let deadline = now + self.config.request_timeout;
        self.pending.insert(
            req,
            Pending {
                kind,
                deadline,
                span,
            },
        );
    }

    /// Closes an originated request's span with its hop count and outcome.
    /// Completed lookups also feed the hop histogram.
    fn close_req_span(&self, req: ReqId, p: Pending, now: SimTime, hops: u8, ok: bool) {
        let Some((rec, track)) = &self.telemetry else {
            return;
        };
        if let Some(name) = p.kind.span_name() {
            let args = [
                ("req", ArgValue::from(req)),
                ("hops", ArgValue::from(u64::from(hops))),
                ("ok", ArgValue::from(ok)),
            ];
            rec.end(p.span, "dht", name, *track, now.as_nanos(), args);
        }
        if ok && matches!(p.kind, PendingKind::Get { .. }) {
            rec.observe("chimera.lookup_hops", u64::from(hops));
        }
    }

    /// This node's overlay ID.
    pub fn id(&self) -> Key {
        self.id
    }

    /// Whether the node has completed bootstrap or join.
    pub fn is_joined(&self) -> bool {
        self.joined
    }

    /// The node's configuration.
    pub fn config(&self) -> &ChimeraConfig {
        &self.config
    }

    /// Message statistics.
    pub fn stats(&self) -> NodeStats {
        self.stats
    }

    /// Cache hit/miss counters `(hits, misses)`.
    pub fn cache_stats(&self) -> (u64, u64) {
        (self.cache.hits(), self.cache.misses())
    }

    /// Number of keys currently populated in the prefix routing table — a
    /// health-plane gauge for overlay connectivity.
    pub fn routing_table_size(&self) -> usize {
        self.table.entries().count()
    }

    /// The known peers, in key order — the red-black-tree "logical tree
    /// view" used by `chimeraGetDecision` to enumerate candidate nodes.
    pub fn peer_keys(&self) -> Vec<Key> {
        self.peers.keys().copied().collect()
    }

    /// Number of records this node owns as root.
    pub fn owned_records(&self) -> usize {
        self.store.len()
    }

    /// Number of replica records held for neighbours.
    pub fn replica_records(&self) -> usize {
        self.replicas.len()
    }

    /// Reads a record directly from local state (root or replica copy),
    /// bypassing the overlay.
    pub fn local_get(&self, key: Key) -> Option<&StoredValue> {
        self.store.get(key).or_else(|| self.replicas.get(key))
    }

    /// Drops any cached copy of `key`'s record. Cache entries are refreshed
    /// only by puts routed *through* this node, so a record rewritten
    /// elsewhere (e.g. an object converted to erasure-coded form) can leave
    /// a stale copy here indefinitely; control planes that know a record
    /// changed call this to force the next lookup back to the root.
    pub fn invalidate_cached(&mut self, key: Key) {
        self.cache.invalidate(key);
    }

    /// Whether this node is the root for `key` among its known membership.
    pub fn is_root_for(&self, key: Key) -> bool {
        closest_known(key, &self.peers, Some(self.id)) == Some(self.id)
    }

    /// Starts a brand-new overlay with this node as the only member.
    pub fn bootstrap(&mut self, _now: SimTime) {
        self.joined = true;
        self.events.push_back(DhtEvent::Joined { peers: 0 });
    }

    /// Joins an existing overlay through `seed`.
    ///
    /// Emits [`DhtEvent::Joined`] on success or [`DhtEvent::JoinFailed`] on
    /// timeout.
    pub fn join_via(&mut self, seed: Key, now: SimTime) {
        let req = self.alloc_req();
        self.insert_pending(req, PendingKind::Join, now);
        self.send(
            seed,
            Message::WelcomeRequest {
                joiner: self.id,
                incarnation: self.incarnation,
            },
        );
    }

    /// Installs a membership view directly and marks the node joined,
    /// without exchanging a single message — the bulk-assembly path for
    /// constructing very large overlays. A protocol join floods O(n)
    /// announcements per joiner (O(n²) deliveries for a full cluster), and
    /// full membership views cost O(n) entries per node; at 10⁶ nodes both
    /// are ruinous. Assembly sidesteps both: the caller computes each
    /// node's view offline (it knows the whole key population) and installs
    /// it in O(view) time and memory.
    ///
    /// Correctness contract: routing delivers at the true root only when
    /// every node's leaf set holds its *true* ring neighbours, so `view`
    /// must include at least this node's `leaf_size` closest live keys on
    /// each side of the identifier ring (slice a window around the node in
    /// the globally sorted key list). Any further keys — e.g. one
    /// representative per populated prefix-table slot, found by binary
    /// search on that same sorted list — only shorten routes; with true
    /// leaf sets, `covers`-based final delivery, prefix-table hops, and
    /// the closest-known fallback all remain exact (each hop strictly
    /// decreases ring distance to the root, so lookups terminate).
    ///
    /// Peers already known keep their state; this node's own key and
    /// retired incarnations are ignored, mirroring a Welcome import.
    /// Emits [`DhtEvent::Joined`] exactly like a protocol join.
    pub fn assemble<I: IntoIterator<Item = Key>>(&mut self, view: I, _now: SimTime) {
        if self.peers.is_empty() {
            // An empty view is bulk-loaded: the routing table sees the keys
            // in the caller's order, as one import each would show them.
            let mut keys: Vec<Key> = view.into_iter().filter(|&k| !self.skips(k, 1)).collect();
            for &k in &keys {
                self.table.add(k);
            }
            keys.sort_unstable();
            keys.dedup();
            self.load_view(keys.into_iter().map(|k| (k, 1)));
        } else {
            for k in view {
                self.learn_peer_quiet(k, 1);
            }
        }
        self.rebuild_views();
        self.joined = true;
        self.events.push_back(DhtEvent::Joined {
            peers: self.peers.len(),
        });
    }

    /// Leaves the overlay gracefully: redistributes owned records to their
    /// new roots and announces retirement to ring neighbours ("a departing
    /// node's keys are always redistributed among the available set of
    /// nodes").
    pub fn leave(&mut self, _now: SimTime) {
        if !self.joined {
            return;
        }
        // Hand each owned record to the closest remaining peer. BTreeMap so
        // the transfer order is identical across same-seed runs.
        let mut by_target: std::collections::BTreeMap<Key, Vec<(Key, StoredValue)>> =
            std::collections::BTreeMap::new();
        for (k, v) in self.store.drain_matching(|_| true) {
            if let Some(target) = closest_known(k, &self.peers, None) {
                by_target.entry(target).or_default().push((k, v));
            }
        }
        for (target, records) in by_target {
            self.send(target, Message::KeyTransfer { records });
        }
        for n in self.leaf.immediate_neighbors() {
            self.send(
                n,
                Message::Retire {
                    node: self.id,
                    incarnation: self.incarnation,
                },
            );
        }
        self.joined = false;
        self.incarnation += 1;
    }

    /// Issues a `put` of `data` under `key` with the given overwrite policy.
    /// The bytes are shared, never copied, from here to the root's record,
    /// the caches on the way and the replicas.
    ///
    /// Completion is reported via [`DhtEvent::PutCompleted`].
    ///
    /// # Errors
    ///
    /// Returns [`DhtError::NotJoined`] before bootstrap/join completes.
    pub fn put(
        &mut self,
        key: Key,
        data: impl Into<Arc<[u8]>>,
        policy: OverwritePolicy,
        now: SimTime,
    ) -> Result<ReqId, DhtError> {
        if !self.joined {
            return Err(DhtError::NotJoined);
        }
        let req = self.alloc_req();
        self.stats.puts += 1;
        self.insert_pending(req, PendingKind::Put, now);
        let msg = Message::Put {
            req,
            origin: self.id,
            key,
            data: data.into(),
            policy,
            hops: 0,
        };
        self.process_local(msg, now);
        Ok(req)
    }

    /// Issues a `get` for `key`.
    ///
    /// Completion is reported via [`DhtEvent::GetCompleted`].
    ///
    /// # Errors
    ///
    /// Returns [`DhtError::NotJoined`] before bootstrap/join completes.
    pub fn get(&mut self, key: Key, now: SimTime) -> Result<ReqId, DhtError> {
        if !self.joined {
            return Err(DhtError::NotJoined);
        }
        let req = self.alloc_req();
        self.stats.gets += 1;
        self.insert_pending(req, PendingKind::Get { key }, now);
        let msg = Message::Get {
            req,
            origin: self.id,
            key,
            path: vec![self.id],
        };
        self.process_local(msg, now);
        Ok(req)
    }

    /// Issues a `delete` of `key`'s record.
    ///
    /// Completion is reported via [`DhtEvent::DeleteCompleted`]; replicas
    /// and path caches of the key are expunged.
    ///
    /// # Errors
    ///
    /// Returns [`DhtError::NotJoined`] before bootstrap/join completes.
    pub fn delete(&mut self, key: Key, now: SimTime) -> Result<ReqId, DhtError> {
        if !self.joined {
            return Err(DhtError::NotJoined);
        }
        let req = self.alloc_req();
        self.insert_pending(req, PendingKind::Delete, now);
        let msg = Message::Delete {
            req,
            origin: self.id,
            key,
            hops: 0,
        };
        self.process_local(msg, now);
        Ok(req)
    }

    /// Feeds a received envelope into the state machine.
    pub fn handle(&mut self, env: Envelope, now: SimTime) {
        debug_assert_eq!(env.to, self.id, "envelope delivered to wrong node");
        self.stats.msgs_in += 1;
        self.process(env.from, env.msg, now);
    }

    /// Advances timers: request timeouts and neighbour liveness probing.
    pub fn tick(&mut self, now: SimTime) {
        self.expire_pending(now);
        if !self.joined {
            return;
        }
        let due = match self.last_ping_round {
            None => true,
            Some(t) => now
                .checked_duration_since(t)
                .is_some_and(|d| d >= self.config.ping_interval),
        };
        if !due {
            return;
        }
        self.last_ping_round = Some(now);
        let mut failed = Vec::new();
        for n in self.leaf.immediate_neighbors() {
            debug_assert!(
                self.peers.contains(&n),
                "leaf member {n} is not a known peer"
            );
            if let Some(missed) = self.probes.get_mut(&n) {
                *missed += 1;
                if *missed >= self.config.fail_after_missed {
                    failed.push((n, self.peers.get(&n).expect("leaf ⊆ peers").incarnation));
                    continue;
                }
            } else {
                self.probes.insert(n, 0);
            }
            self.send(n, Message::Ping { from: self.id });
        }
        for (node, inc) in failed {
            self.declare_failed(node, inc, now);
        }
    }

    /// Whether an envelope or application event is waiting to be polled.
    pub fn has_output(&self) -> bool {
        !self.outbox.is_empty() || !self.events.is_empty()
    }

    /// Drains the next outgoing envelope, if any.
    pub fn poll_send(&mut self) -> Option<Envelope> {
        self.outbox.pop_front()
    }

    /// Drains the next application event, if any.
    pub fn poll_event(&mut self) -> Option<DhtEvent> {
        self.events.pop_front()
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    fn alloc_req(&mut self) -> ReqId {
        let r = self.next_req;
        self.next_req += 1;
        r
    }

    fn send(&mut self, to: Key, msg: Message) {
        debug_assert_ne!(to, self.id, "use process_local for self-delivery");
        self.stats.msgs_out += 1;
        self.outbox.push_back(Envelope {
            from: self.id,
            to,
            msg,
        });
    }

    /// Processes a message originated locally (put/get start) without
    /// counting it as network traffic.
    fn process_local(&mut self, msg: Message, now: SimTime) {
        let from = self.id;
        self.process(from, msg, now);
    }

    fn process(&mut self, from: Key, msg: Message, now: SimTime) {
        // Any message from a peer is liveness evidence: drop its probe so
        // lossy links do not trigger false failure declarations (SWIM-style
        // suspicion damping). This is all a `Pong` does.
        if from != self.id && !self.probes.is_empty() {
            self.probes.remove(&from);
        }
        match msg {
            Message::WelcomeRequest {
                joiner,
                incarnation,
            } => {
                // Sized once: the view plus this node, or one less when the
                // joiner was known.
                let mut peers = Vec::with_capacity(self.peers.len() + 1);
                peers.extend(
                    self.peers
                        .iter()
                        .filter(|(k, _)| **k != joiner)
                        .map(|(k, s)| (*k, s.incarnation)),
                );
                peers.push((self.id, self.incarnation));
                self.send(joiner, Message::Welcome { peers });
                self.learn_peer(joiner, incarnation, Some(from), now);
            }
            Message::Welcome { peers } => {
                if !self.import_welcome(&peers) {
                    for (k, inc) in peers {
                        self.learn_peer_quiet(k, inc);
                    }
                }
                self.rebuild_views();
                if !self.joined {
                    self.joined = true;
                    // Complete the pending join.
                    let join_reqs: Vec<ReqId> = self
                        .pending
                        .iter()
                        .filter(|(_, p)| matches!(p.kind, PendingKind::Join))
                        .map(|(r, _)| *r)
                        .collect();
                    for r in join_reqs {
                        self.pending.remove(&r);
                    }
                    self.events.push_back(DhtEvent::Joined {
                        peers: self.peers.len(),
                    });
                    // Announce ourselves to our new ring neighbours.
                    for n in self.leaf.immediate_neighbors() {
                        self.send(
                            n,
                            Message::Announce {
                                node: self.id,
                                incarnation: self.incarnation,
                            },
                        );
                    }
                }
            }
            Message::Announce { node, incarnation } => {
                self.learn_peer(node, incarnation, Some(from), now);
            }
            Message::Retire { node, incarnation } => {
                self.retire_peer(node, incarnation, false, now);
            }
            Message::KeyTransfer { records } => {
                for (k, v) in records {
                    self.store.install(k, v.clone());
                    self.replicate_record(k, v);
                }
            }
            Message::Put {
                req,
                origin,
                key,
                data,
                policy,
                hops,
            } => {
                self.handle_put(req, origin, key, data, policy, hops, now);
            }
            Message::PutOk { req, version, hops } => {
                if let Some(p) = self.pending.remove(&req) {
                    self.close_req_span(req, p, now, hops, true);
                    self.events.push_back(DhtEvent::PutCompleted {
                        req,
                        result: Ok(version),
                        hops,
                    });
                }
            }
            Message::PutFailed { req, error, hops } => {
                if let Some(p) = self.pending.remove(&req) {
                    self.close_req_span(req, p, now, hops, false);
                    self.events.push_back(DhtEvent::PutCompleted {
                        req,
                        result: Err(DhtError::Rejected(error)),
                        hops,
                    });
                }
            }
            Message::Get {
                req,
                origin,
                key,
                path,
            } => {
                self.handle_get(req, origin, key, path, now);
            }
            Message::GetReply {
                req,
                key,
                value,
                from_cache,
                path,
                path_pos,
                hops,
            } => {
                self.handle_get_reply(req, key, value, from_cache, path, path_pos, hops, now);
            }
            Message::Delete {
                req,
                origin,
                key,
                hops,
            } => {
                self.handle_delete(req, origin, key, hops);
            }
            Message::DeleteOk { req, existed, hops } => {
                if let Some(p) = self.pending.remove(&req) {
                    self.close_req_span(req, p, now, hops, true);
                    self.events.push_back(DhtEvent::DeleteCompleted {
                        req,
                        result: Ok(existed),
                        hops,
                    });
                }
            }
            Message::Expunge { key } => {
                self.replicas.remove(key);
                self.cache.invalidate(key);
            }
            Message::Replicate { key, value } => {
                self.replicas.install(key, value);
            }
            Message::Ping { from: prober } => {
                self.send(prober, Message::Pong { from: self.id });
            }
            Message::Pong { .. } => {}
        }
    }

    #[allow(clippy::too_many_arguments)] // mirrors the Put message fields
    fn handle_put(
        &mut self,
        req: ReqId,
        origin: Key,
        key: Key,
        data: Arc<[u8]>,
        policy: OverwritePolicy,
        hops: u8,
        _now: SimTime,
    ) {
        let decision = if hops >= self.config.max_hops {
            NextHop::Deliver
        } else {
            route(self.id, key, &self.leaf, &self.table, &self.peers)
        };
        match decision {
            NextHop::Deliver => {
                let result = self.store.put(key, data, policy);
                match result {
                    Ok(version) => {
                        let value = self.store.get(key).expect("just stored").clone();
                        self.replicate_record(key, value);
                        let reply = Message::PutOk {
                            req,
                            version,
                            hops: hops + 1,
                        };
                        self.reply_to(origin, reply);
                    }
                    Err(e) => {
                        let reply = Message::PutFailed {
                            req,
                            error: e,
                            hops: hops + 1,
                        };
                        self.reply_to(origin, reply);
                    }
                }
            }
            NextHop::Forward(next) => {
                // Keep any cached copy coherent with the update passing by.
                self.cache.update_in_place(key, &data, policy);
                self.send(
                    next,
                    Message::Put {
                        req,
                        origin,
                        key,
                        data,
                        policy,
                        hops: hops + 1,
                    },
                );
            }
        }
    }

    fn handle_delete(&mut self, req: ReqId, origin: Key, key: Key, hops: u8) {
        let decision = if hops >= self.config.max_hops {
            NextHop::Deliver
        } else {
            route(self.id, key, &self.leaf, &self.table, &self.peers)
        };
        match decision {
            NextHop::Deliver => {
                let existed =
                    self.store.remove(key).is_some() | self.replicas.remove(key).is_some();
                self.cache.invalidate(key);
                // Tombstone replicas and any caches on the reply path.
                self.send_to_replicas(|| Message::Expunge { key });
                let reply = Message::DeleteOk {
                    req,
                    existed,
                    hops: hops + 1,
                };
                self.reply_to(origin, reply);
            }
            NextHop::Forward(next) => {
                // Drop any cached copy of a record being removed.
                self.cache.invalidate(key);
                self.send(
                    next,
                    Message::Delete {
                        req,
                        origin,
                        key,
                        hops: hops + 1,
                    },
                );
            }
        }
    }

    /// Sends a reply, handling the origin-is-self case without the network.
    fn reply_to(&mut self, origin: Key, msg: Message) {
        if origin == self.id {
            let from = self.id;
            // `now` is irrelevant for completion messages.
            self.process(from, msg, SimTime::ZERO);
        } else {
            self.send(origin, msg);
        }
    }

    fn handle_get(&mut self, req: ReqId, origin: Key, key: Key, path: Vec<Key>, _now: SimTime) {
        let decision = if path.len() as u8 >= self.config.max_hops {
            NextHop::Deliver
        } else {
            route(self.id, key, &self.leaf, &self.table, &self.peers)
        };
        match decision {
            NextHop::Deliver => {
                let value = self.local_get(key).cloned();
                let pos = path.len().saturating_sub(1);
                self.send_get_reply(req, key, value, false, path, pos);
            }
            NextHop::Forward(next) => {
                // Intermediate cache: answer without routing further.
                if self.id != origin {
                    if let Some(cached) = self.cache.lookup(key) {
                        self.stats.cache_answers += 1;
                        let pos = path.len().saturating_sub(1);
                        self.send_get_reply(req, key, Some(cached), true, path, pos);
                        return;
                    }
                }
                let mut path = path;
                if *path.last().expect("path contains at least origin") != self.id {
                    path.push(self.id);
                }
                self.send(
                    next,
                    Message::Get {
                        req,
                        origin,
                        key,
                        path,
                    },
                );
            }
        }
    }

    fn send_get_reply(
        &mut self,
        req: ReqId,
        key: Key,
        value: Option<StoredValue>,
        from_cache: bool,
        path: Vec<Key>,
        path_pos: usize,
    ) {
        let hops = path.len() as u8;
        let target = path[path_pos];
        let msg = Message::GetReply {
            req,
            key,
            value,
            from_cache,
            path,
            path_pos,
            hops,
        };
        if target == self.id {
            self.process_local(msg, SimTime::ZERO);
        } else {
            self.send(target, msg);
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn handle_get_reply(
        &mut self,
        req: ReqId,
        key: Key,
        value: Option<StoredValue>,
        from_cache: bool,
        path: Vec<Key>,
        path_pos: usize,
        hops: u8,
        now: SimTime,
    ) {
        // Cache the entry at every hop on the reply path ("key-value entries
        // are cached onto intermediate hops on each request's path").
        if let Some(v) = &value {
            self.cache.insert(key, v.clone());
        }
        if path_pos == 0 {
            // We are the origin.
            if let Some(p) = self.pending.remove(&req) {
                self.stats.lookup_hops += hops as u64;
                self.close_req_span(req, p, now, hops, true);
                self.events.push_back(DhtEvent::GetCompleted {
                    req,
                    key,
                    value,
                    from_cache,
                    hops,
                    result: Ok(()),
                });
            }
            return;
        }
        let next = path[path_pos - 1];
        let msg = Message::GetReply {
            req,
            key,
            value,
            from_cache,
            path,
            path_pos: path_pos - 1,
            hops: hops + 1,
        };
        if next == self.id {
            self.process_local(msg, SimTime::ZERO);
        } else {
            self.send(next, msg);
        }
    }

    /// Adds a peer without flooding or view rebuilds (bulk Welcome import).
    fn learn_peer_quiet(&mut self, node: Key, incarnation: u32) -> bool {
        if self.skips(node, incarnation) {
            return false;
        }
        let (state, inserted) = self.peers.upsert(node, || PeerState { incarnation });
        if inserted {
            self.table.add(node);
            return true;
        }
        if state.incarnation >= incarnation {
            return false;
        }
        state.incarnation = incarnation;
        self.probes.remove(&node);
        true
    }

    /// Whether learning `(node, incarnation)` is a no-op: it is this node
    /// itself or an incarnation it saw retire.
    fn skips(&self, node: Key, incarnation: u32) -> bool {
        node == self.id || self.retired.get(&node).copied() >= Some(incarnation)
    }

    /// Imports a `Welcome`'s peer list — the sender's view in key order,
    /// then the sender itself — into an empty view without a descent per
    /// peer: the routing table sees the entries `learn_peer_quiet` would
    /// keep, in list order, and the view is bulk-loaded from them with the
    /// sender placed by binary search. Returns `false`, having changed
    /// nothing, when the view is not empty or the list is not in that
    /// shape.
    fn import_welcome(&mut self, peers: &[(Key, u32)]) -> bool {
        let Some((sender, view)) = peers.split_last() else {
            return false;
        };
        let at = view.partition_point(|(k, _)| *k < sender.0);
        if !self.peers.is_empty()
            || !view.windows(2).all(|w| w[0].0 < w[1].0)
            || view.get(at).is_some_and(|(k, _)| *k == sender.0)
        {
            return false;
        }
        for &(k, inc) in peers {
            if !self.skips(k, inc) {
                self.table.add(k);
            }
        }
        let (lo, hi) = view.split_at(at);
        self.load_view(lo.iter().chain([sender]).chain(hi).copied());
        true
    }

    /// Bulk-loads the empty view from entries in strictly ascending key
    /// order, skipping those `learn_peer_quiet` would.
    fn load_view(&mut self, sorted: impl Iterator<Item = (Key, u32)>) {
        debug_assert!(self.peers.is_empty(), "bulk load over a non-empty view");
        let view = RbTree::from_sorted(
            sorted
                .filter(|&(k, inc)| !self.skips(k, inc))
                .map(|(k, incarnation)| (k, PeerState { incarnation })),
        );
        self.peers = view;
    }

    /// Adds a peer, rebuilds views, propagates the announcement, and hands
    /// over records whose root moved.
    fn learn_peer(&mut self, node: Key, incarnation: u32, exclude: Option<Key>, _now: SimTime) {
        if !self.learn_peer_quiet(node, incarnation) {
            return;
        }
        // The leaf set is a pure function of (owner, ordered peers, size):
        // when both sides are already full and the new node falls outside
        // the covered ring interval, a rebuild reproduces the identical
        // leaf set. Announce floods visit every node for every join, so
        // skipping the redundant O(leaf_size · log n) tree walks here is
        // the difference between a linear and a quadratic-feeling join.
        // `covers` describes the arc lo→owner→hi only when the two sides
        // are disjoint, which needs strictly more pre-insert peers than
        // leaf slots (on tiny rings the sides wrap and overlap) — hence
        // the strict `>` against the post-insert count.
        let leaf_unchanged = self.peers.len() > 2 * self.config.leaf_size
            && self.leaf.left().len() == self.config.leaf_size
            && self.leaf.right().len() == self.config.leaf_size
            && !self.leaf.covers(self.id, node);
        if !leaf_unchanged {
            self.rebuild_views();
        } else if cfg!(debug_assertions) {
            let before = self.leaf.clone();
            self.rebuild_views();
            debug_assert!(
                before.left() == self.leaf.left() && before.right() == self.leaf.right(),
                "leaf skip was not a no-op: node={node} owner={} before=({:?},{:?}) after=({:?},{:?})",
                self.id,
                before.left(),
                before.right(),
                self.leaf.left(),
                self.leaf.right(),
            );
        }
        self.events.push_back(DhtEvent::PeerJoined { node });
        // Propagate along the ring ("it sends a message to its right and
        // left nodes in the logical tree structure").
        for n in self.leaf.immediate_neighbors() {
            if Some(n) != exclude && n != node {
                self.send(n, Message::Announce { node, incarnation });
            }
        }
        // Redistribute records the new node now owns; keep local replicas.
        // With nothing stored there is nothing to move or re-replicate —
        // announce floods hit every node for every join, and this is their
        // hot path.
        if !self.store.is_empty() {
            let moved = self
                .store
                .drain_matching(|k| closest_known(k, &self.peers, Some(self.id)) == Some(node));
            if !moved.is_empty() {
                for (k, v) in &moved {
                    self.replicas.install(*k, v.clone());
                }
                self.send(node, Message::KeyTransfer { records: moved });
            }
            self.refresh_replication();
        }
    }

    fn retire_peer(&mut self, node: Key, incarnation: u32, failed: bool, now: SimTime) {
        if node == self.id {
            // Refutation: we are alive but someone declared us failed.
            // Bump our incarnation past the retirement and re-announce
            // (SWIM's alive-refutes-suspect rule).
            if self.joined && incarnation >= self.incarnation {
                self.incarnation = incarnation + 1;
                for n in self.leaf.immediate_neighbors() {
                    self.send(
                        n,
                        Message::Announce {
                            node: self.id,
                            incarnation: self.incarnation,
                        },
                    );
                }
            }
            return;
        }
        let known = match self.peers.get(&node) {
            Some(state) => state.incarnation <= incarnation,
            None => false,
        };
        let already_retired = self.retired.get(&node).copied() >= Some(incarnation);
        if already_retired || !known {
            self.retired
                .entry(node)
                .and_modify(|i| *i = (*i).max(incarnation))
                .or_insert(incarnation);
            return;
        }
        self.retired.insert(node, incarnation);
        self.peers.remove(&node);
        self.probes.remove(&node);
        self.table.remove(node);
        self.rebuild_views();
        self.events.push_back(if failed {
            DhtEvent::PeerFailed { node }
        } else {
            DhtEvent::PeerRetired { node }
        });
        for n in self.leaf.immediate_neighbors() {
            self.send(n, Message::Retire { node, incarnation });
        }
        self.promote_orphaned_replicas(now);
        self.refresh_replication();
    }

    fn declare_failed(&mut self, node: Key, incarnation: u32, now: SimTime) {
        self.retire_peer(node, incarnation, true, now);
    }

    /// Adopts replicas whose root has vanished and is now this node.
    fn promote_orphaned_replicas(&mut self, _now: SimTime) {
        let mine = self
            .replicas
            .drain_matching(|k| closest_known(k, &self.peers, Some(self.id)) == Some(self.id));
        for (k, v) in mine {
            self.store.install(k, v.clone());
            self.replicate_record(k, v);
        }
    }

    /// Pushes a record to its replica targets.
    fn replicate_record(&mut self, key: Key, value: StoredValue) {
        self.send_to_replicas(|| Message::Replicate {
            key,
            value: value.clone(),
        });
    }

    /// Sends one `msg()` to each replica target of a record rooted here.
    fn send_to_replicas(&mut self, mut msg: impl FnMut() -> Message) {
        let mut targets = std::mem::take(&mut self.targets);
        self.leaf
            .fill_replica_targets(self.config.replication, &mut targets);
        for &target in &targets {
            self.send(target, msg());
        }
        self.targets = targets;
    }

    /// Re-replicates every owned record (after membership changes).
    fn refresh_replication(&mut self) {
        let mut records: Vec<(Key, StoredValue)> =
            self.store.iter().map(|(k, v)| (k, v.clone())).collect();
        // Deterministic send order across same-seed runs.
        records.sort_unstable_by_key(|(k, _)| *k);
        for (k, v) in records {
            self.replicate_record(k, v);
        }
    }

    fn rebuild_views(&mut self) {
        self.leaf
            .rebuild(self.id, &self.peers, self.config.leaf_size);
    }

    fn expire_pending(&mut self, now: SimTime) {
        let mut expired: Vec<ReqId> = self
            .pending
            .iter()
            .filter(|(_, p)| p.deadline <= now)
            .map(|(r, _)| *r)
            .collect();
        // Retransmissions must fire in the same order across same-seed runs.
        expired.sort_unstable();
        for req in expired {
            let Some(p) = self.pending.remove(&req) else {
                continue;
            };
            let event = match p.kind {
                PendingKind::Join => DhtEvent::JoinFailed,
                PendingKind::Put => DhtEvent::PutCompleted {
                    req,
                    result: Err(DhtError::Timeout),
                    hops: 0,
                },
                PendingKind::Delete => DhtEvent::DeleteCompleted {
                    req,
                    result: Err(DhtError::Timeout),
                    hops: 0,
                },
                PendingKind::Get { key } => DhtEvent::GetCompleted {
                    req,
                    key,
                    value: None,
                    from_cache: false,
                    hops: 0,
                    result: Err(DhtError::Timeout),
                },
            };
            self.close_req_span(req, p, now, 0, false);
            self.events.push_back(event);
        }
    }
}
