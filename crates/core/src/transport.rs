//! The overlay's transport: what carries an envelope from one node's outbox
//! to another's inbox, and everything a fault plan can do to it on the way
//! — a partition, independent loss, bursty per-route loss, a slow receiver.
//!
//! [`Transport`] is the sub-state; [`Cloud4Home::pump`] is the one loop
//! that drains overlay output through it, visiting only the nodes the
//! worklist names.

use std::time::Duration;

use c4h_chimera::DhtEvent;
use c4h_simnet::{Addr, DetRng, FxHashMap, GilbertElliott, Partition, Topology};

use crate::runtime::{Cloud4Home, DhtWaiter, Event};
use crate::worklist::DirtyNodes;

/// Link conditions between overlay nodes, and the worklist of nodes with
/// output to carry.
#[derive(Debug)]
pub(crate) struct Transport {
    /// Probability that a control envelope is lost, independently of every
    /// other.
    message_loss: f64,
    /// Active reachability cut over node/cloud addresses.
    partition: Partition,
    /// Template for per-route bursty loss chains; `None` disables them.
    bursty: Option<GilbertElliott>,
    /// Per-directed-route Gilbert–Elliott chains, spawned lazily from
    /// `bursty`. Keyed access only — never iterated — so `HashMap` ordering
    /// cannot perturb determinism.
    ge_chains: FxHashMap<(Addr, Addr), GilbertElliott>,
    /// Per-node gray-failure processing-delay multiplier (1.0 = healthy).
    slow_factor: Vec<f64>,
    /// Nodes whose overlay may hold undelivered output: what `pump` drains
    /// instead of scanning the world. Marked by `Cloud4Home::overlay_mut`.
    dirty: DirtyNodes,
    /// How many nodes `pump` has polled; against the events `step` has
    /// processed this is the scale gate in `tests/world_scaling.rs`.
    node_visits: u64,
}

impl Transport {
    pub(crate) fn new(nodes: usize) -> Self {
        Transport {
            message_loss: 0.0,
            partition: Partition::default(),
            bursty: None,
            ge_chains: FxHashMap::default(),
            slow_factor: vec![1.0; nodes],
            dirty: DirtyNodes::new(nodes),
            node_visits: 0,
        }
    }

    /// Puts node `i` on `pump`'s worklist.
    pub(crate) fn mark(&mut self, i: usize) {
        self.dirty.mark(i);
    }

    /// Whether two addresses can currently exchange traffic (no partition
    /// cut between them).
    pub(crate) fn connected(&self, a: Addr, b: Addr) -> bool {
        self.partition.connected(a, b)
    }

    /// Replaces the active partition (the default one cuts nothing).
    pub(crate) fn set_partition(&mut self, partition: Partition) {
        self.partition = partition;
    }

    /// Replaces the bursty-loss template; every route's chain restarts
    /// from it.
    pub(crate) fn set_bursty(&mut self, template: Option<GilbertElliott>) {
        self.ge_chains.clear();
        self.bursty = template;
    }

    pub(crate) fn set_slow_factor(&mut self, node: usize, factor: f64) {
        self.slow_factor[node] = factor;
    }

    /// Decides one envelope's fate on the route `src → dst` (`to` is the
    /// receiver's index): `None` when it is lost, else the delay until the
    /// receiver has processed it. The order is load-bearing — partition
    /// check, independent loss draw, burst-chain step, latency draw — since
    /// each draw moves the shared RNG.
    fn carry(
        &mut self,
        src: Addr,
        dst: Addr,
        to: usize,
        topology: &Topology,
        rng: &mut DetRng,
        chimera_proc: Duration,
    ) -> Option<Duration> {
        if !self.partition.connected(src, dst) {
            return None; // severed by the active partition
        }
        if self.message_loss > 0.0 && rng.chance(self.message_loss) {
            return None; // lost on the wireless link
        }
        if let Some(template) = self.bursty {
            let chain = self.ge_chains.entry((src, dst)).or_insert(template);
            if chain.step(rng) {
                return None; // lost in a burst on this route
            }
        }
        let latency = topology
            .message_latency(src, dst, rng)
            .unwrap_or(Duration::from_millis(1));
        // Gray failure: a throttled receiver processes slower.
        Some(latency + chimera_proc.mul_f64(self.slow_factor[to]))
    }
}

impl Cloud4Home {
    /// Whether two home nodes can currently exchange traffic (no partition
    /// cut between them).
    pub(crate) fn node_reachable(&self, a: usize, b: usize) -> bool {
        self.transport
            .connected(self.nodes[a].addr, self.nodes[b].addr)
    }

    /// Whether a node can currently reach the remote cloud.
    pub(crate) fn cloud_reachable(&self, i: usize) -> bool {
        match &self.cloud {
            Some(c) => self.transport.connected(self.nodes[i].addr, c.addr),
            None => false,
        }
    }

    /// Injects overlay message loss: each control envelope is independently
    /// dropped with probability `p`. Request timeouts and the operation
    /// layer's retries recover; this models flaky home wireless links.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= p < 1.0`.
    pub fn set_message_loss(&mut self, p: f64) {
        assert!(
            (0.0..1.0).contains(&p),
            "loss probability must be in [0, 1)"
        );
        self.transport.message_loss = p;
    }

    /// How many times `pump` has polled a node's overlay for output. With
    /// [`Self::steps`] this gives node visits per event, which must not
    /// grow with the size of the world.
    pub fn pump_node_visits(&self) -> u64 {
        self.transport.node_visits
    }

    /// Drains overlay outboxes into scheduled deliveries and overlay events
    /// into operation continuations, until quiescent.
    ///
    /// Visits only marked nodes, in the order a scan of the whole world
    /// would reach them: ascending index within a round, a node marked
    /// while a lower index drains still in the same round, a node marked at
    /// or below the one draining in the next. [`Transport::carry`]'s loss,
    /// burst-chain and latency draws therefore happen in the scan's order.
    pub(crate) fn pump(&mut self) {
        let mut cursor = 0;
        while !self.transport.dirty.is_empty() {
            let Some(i) = self.transport.dirty.take_from(cursor) else {
                cursor = 0; // round over, marks remain below the cursor
                continue;
            };
            cursor = i + 1;
            self.transport.node_visits += 1;
            // Outgoing envelopes.
            while let Some(env) = self.nodes[i].poll_send() {
                let Some(&to) = self.node_of_key.get(&env.to) else {
                    continue; // stale peer
                };
                let (src, dst) = (self.nodes[i].addr, self.nodes[to].addr);
                let chimera_proc = self.config.timing.chimera_proc;
                let topology = self.net.topology();
                let fate =
                    self.transport
                        .carry(src, dst, to, topology, &mut self.rng, chimera_proc);
                match fate {
                    Some(delay) => {
                        self.queue.schedule_in(delay, Event::Deliver { to, env });
                    }
                    None => self.stats.envelopes_dropped += 1,
                }
            }
            // Application-visible DHT events.
            while let Some(ev) = self.nodes[i].poll_event() {
                let req = match &ev {
                    DhtEvent::PutCompleted { req, .. } => Some(*req),
                    DhtEvent::GetCompleted { req, .. } => Some(*req),
                    DhtEvent::DeleteCompleted { req, .. } => Some(*req),
                    DhtEvent::PeerFailed { node } => {
                        // Failure detection feeds the repair daemon.
                        let node = *node;
                        self.handle_peer_failed(node);
                        continue;
                    }
                    _ => None,
                };
                let Some(req) = req else { continue };
                match self.dht_waiters.remove(&(i, req)) {
                    Some(DhtWaiter::Op(op)) => {
                        // Completion crosses the VStore++ ↔ Chimera IPC
                        // boundary.
                        self.queue
                            .schedule_in(self.config.timing.chimera_ipc, Event::DhtDone { op, ev });
                    }
                    Some(DhtWaiter::Ignore) | None => {}
                }
            }
        }
        debug_assert!(
            self.nodes.iter().all(|n| !n.has_output()),
            "an overlay node holds output pump was never told about"
        );
    }
}
