//! The store machine (§III-B "store"): the object crosses the guest →
//! dom0 channel, a placement class picks the client's own disk, a home
//! peer's voluntary bin or the cloud, the primary copy is written, the
//! replica fan-out runs concurrently, and the metadata and directory entry
//! are published.

use std::collections::{BTreeMap, VecDeque};

use c4h_chimera::{DhtEvent, Key};
use c4h_cloud::{S3Url, REQUEST_LATENCY};
use c4h_kvstore::{object_key, Location, ObjectMeta, Record};
use c4h_resources::Bin;
use c4h_simnet::{FlowId, SimTime, Sym};
use c4h_telemetry::ArgValue;

use super::{Family, OpCore, OpInput, OpKind, ResourceQuery, Stage, StepOutcome, COMMAND_BYTES};
use crate::config::NodeId;
use crate::ledger::{CauseKind, LEDGER_NONE};
use crate::object::Object;
use crate::policy::{PlacementClass, StorePolicy};
use crate::report::{OpError, OpId};
use crate::runtime::{Cloud4Home, CLOUD_ADDR};

/// What a store carries beyond the core.
#[derive(Debug)]
pub(super) struct Store {
    object: Object,
    policy: StorePolicy,
    blocking: bool,
    /// The home node the store flows to and writes on (the client itself
    /// for a local-first store); once the copy is installed, the primary.
    peer: usize,
    /// The peers' resource records, queried before a voluntary-bin pick.
    query: ResourceQuery,
    /// Pending store-time replica targets (node indices).
    replica_targets: VecDeque<usize>,
    /// Overlay keys of replicas successfully written during this store.
    replicas_done: Vec<Key>,
    /// In-flight replica transfers of the fan-out, by flow. `BTreeMap` so
    /// any iteration is deterministic.
    replica_flows: BTreeMap<FlowId, ReplicaFlight>,
    /// Pending replica disk writes of the fan-out: sub-task token (the
    /// target node index) → write start time.
    replica_writes: BTreeMap<u64, SimTime>,
}

/// One in-flight replica transfer of a store fan-out.
#[derive(Debug, Clone, Copy)]
struct ReplicaFlight {
    /// Destination node index.
    target: usize,
    /// When the transfer started (for the retroactive stage span).
    started: SimTime,
}

impl Cloud4Home {
    /// Stores an object from an application on `client`, placing it
    /// according to `policy`. Blocking stores include the acknowledgement
    /// round trip in their completion time.
    ///
    /// # Panics
    ///
    /// Panics if `client` is out of range or the node is offline.
    pub fn store_object(
        &mut self,
        client: NodeId,
        object: Object,
        policy: StorePolicy,
        blocking: bool,
    ) -> OpId {
        let size = object.size_bytes();
        let store = Store {
            object,
            policy,
            blocking,
            peer: client.0,
            query: ResourceQuery::default(),
            replica_targets: VecDeque::new(),
            replicas_done: Vec::new(),
            replica_flows: BTreeMap::new(),
            replica_writes: BTreeMap::new(),
        };
        let name = store.object.name;
        let op = self.new_op(OpKind::Store, client, name, Family::Store(store));
        // CreateObject + StoreObject: command packet, then the object
        // crosses the guest → dom0 shared-memory channel.
        self.submit(op, size)
    }

    pub(super) fn store_step(
        &mut self,
        op: &mut OpCore,
        st: &mut Store,
        input: OpInput,
    ) -> StepOutcome {
        // The fan-out's concurrent branches are routed by what arrived, not
        // by a stage of their own: a replica's flow completion, a replica's
        // write wake (a sub-task token). A token that arrives after the
        // stage moved on (a write detached by a quorum publish) is a no-op,
        // as is a stray wake during the fan-out.
        if op.stage == Stage::StoreFanout {
            return match input {
                OpInput::SubWake { token } => self.fanout_write_done(op, st, token),
                OpInput::FlowDone { flow } => self.fanout_flow_done(op, st, flow),
                _ => None,
            };
        }
        if matches!(input, OpInput::SubWake { .. }) {
            return None;
        }
        match op.stage {
            Stage::StoreChannelIn => {
                self.charge(op);
                self.store_decide_placement(op, st)
            }
            Stage::StoreQueryPeers => {
                st.query.absorb(input, self);
                if st.query.pending > 0 {
                    return None;
                }
                self.charge(op);
                self.store_pick_peer(op, st)
            }
            Stage::StoreFlowToPeer => {
                let write = self.nodes[st.peer].disk.write_time(st.object.size_bytes());
                self.enter_for(op, Stage::StoreDiskWrite, write)
            }
            Stage::StoreDiskWrite => {
                self.charge(op);
                self.store_install(op, st)
            }
            Stage::StoreFlowToCloud => self.enter_for(op, Stage::StoreCloudPut, REQUEST_LATENCY),
            Stage::StoreCloudPut => {
                self.charge(op);
                self.breaker_success(CLOUD_ADDR);
                let object = &st.object;
                let cloud = self.cloud.as_mut().expect("cloud path requires a cloud");
                let at = S3Url {
                    bucket: cloud.bucket,
                    key: object.name,
                };
                let url = cloud
                    .s3
                    .put_at(at, object.blob.clone(), object.size_bytes())
                    .expect("bucket exists");
                op.via_cloud = true;
                let url = Sym::from_fmt(format_args!("{url}"));
                self.store_meta_put(op, st, Location::Cloud { url })
            }
            Stage::StoreMetaPut => {
                let OpInput::Dht(ev) = input else { return None };
                let DhtEvent::PutCompleted { result, .. } = ev else {
                    return None;
                };
                self.charge(op);
                if let Err(e) = result {
                    return Some(Err(e.into()));
                }
                self.dir_entry_put(op, Stage::StoreDirPut);
                None
            }
            Stage::StoreDirPut => {
                let OpInput::Dht(DhtEvent::PutCompleted { result, .. }) = input else {
                    return None;
                };
                self.charge(op);
                if let Err(e) = result {
                    return Some(Err(e.into()));
                }
                if st.blocking {
                    // "Blocking operations incur the cost of an additional
                    // acknowledgement."
                    let ack = self.config.nodes[op.client]
                        .channel
                        .transfer_time(COMMAND_BYTES)
                        + self.config.timing.command_proc;
                    self.enter_for(op, Stage::StoreAck, ack)
                } else {
                    Some(Ok(op.bytes_output(st.object.size_bytes())))
                }
            }
            Stage::StoreAck => {
                self.charge(op);
                Some(Ok(op.bytes_output(st.object.size_bytes())))
            }
            // The sub-stages name spans only, and no other family's stage
            // is ever current on a store.
            _ => None,
        }
    }

    /// One of the store's transfers was severed: a replica flight's loss
    /// costs the store one copy, a lost primary transfer spills to the
    /// cloud, a lost cloud upload fails the store.
    pub(super) fn store_severed(
        &mut self,
        op: &mut OpCore,
        st: &mut Store,
        flow: FlowId,
        why: &str,
    ) -> StepOutcome {
        match op.stage {
            Stage::StoreFanout => {
                // One replica flight died; the rest of the fan-out (and the
                // store itself) carries on with one copy fewer.
                let flight = st.replica_flows.remove(&flow)?;
                self.breaker_failure(self.nodes[flight.target].addr);
                op.failovers += 1;
                op.partial_replication += 1;
                self.stats.partial_replication += 1;
                self.store_fanout_check(op, st)
            }
            Stage::StoreFlowToPeer => {
                self.breaker_failure(self.nodes[st.peer].addr);
                self.store_spill_or_fail(op, st)
            }
            stage => {
                if stage == Stage::StoreFlowToCloud {
                    self.breaker_failure(CLOUD_ADDR);
                }
                Some(Err(OpError::OwnerUnreachable(why.to_owned())))
            }
        }
    }

    /// A store completing with replica flights still in the air (its
    /// client crashed) abandons them: nobody is left to publish them.
    pub(super) fn store_abandon(&mut self, st: &mut Store) {
        for flow in std::mem::take(&mut st.replica_flows).into_keys() {
            self.cancel_flow(flow);
        }
    }

    fn store_decide_placement(&mut self, op: &mut OpCore, st: &mut Store) -> StepOutcome {
        let class = st.policy.classify(&st.object);
        let size = st.object.size_bytes();
        match class {
            PlacementClass::LocalFirst => {
                if self.nodes[op.client].bins.fits(size, Bin::Mandatory) {
                    let write = self.nodes[op.client].disk.write_time(size);
                    st.peer = op.client;
                    self.enter_for(op, Stage::StoreDiskWrite, write)
                } else {
                    self.store_query_peers(op, st)
                }
            }
            PlacementClass::HomePeer => self.store_query_peers(op, st),
            PlacementClass::RemoteCloud => {
                if self.cloud.is_some() && !self.breaker_blocks_path(CLOUD_ADDR, op.id) {
                    self.store_go_cloud(op, st)
                } else {
                    // No cloud, or its uplink breaker is open: fall back to
                    // the home tier rather than queue onto a dead WAN.
                    self.store_query_peers(op, st)
                }
            }
        }
    }

    /// Queries every live peer's resource record before picking a
    /// voluntary-bin target.
    fn store_query_peers(&mut self, op: &mut OpCore, st: &mut Store) -> StepOutcome {
        self.charge(op);
        let peers: Vec<Key> = self
            .nodes
            .iter()
            .enumerate()
            .filter(|(j, n)| *j != op.client && n.alive)
            .map(|(_, n)| n.resource_key)
            .collect();
        if peers.is_empty() {
            return self.store_spill_or_fail(op, st);
        }
        op.stage = Stage::StoreQueryPeers;
        self.query_resources(op, &mut st.query, peers);
        None
    }

    fn store_pick_peer(&mut self, op: &mut OpCore, st: &mut Store) -> StepOutcome {
        let size = st.object.size_bytes();
        let need_mib = size.div_ceil(1 << 20);
        // Choose the peer advertising the most voluntary space that fits.
        let best = st
            .query
            .records
            .iter()
            .filter(|r| r.voluntary_free_mib >= need_mib)
            .max_by_key(|r| r.voluntary_free_mib)
            .and_then(|r| self.node_index(r.node))
            .filter(|&j| self.nodes[j].alive && j != op.client);
        match best {
            Some(peer) => {
                st.peer = peer;
                self.enter(op, Stage::StoreFlowToPeer);
                let src = self.nodes[op.client].addr;
                let dst = self.nodes[peer].addr;
                self.start_flow_for_op(op.id, src, dst, size);
                None
            }
            None => self.store_spill_or_fail(op, st),
        }
    }

    fn store_spill_or_fail(&mut self, op: &mut OpCore, st: &mut Store) -> StepOutcome {
        if st.policy.may_spill_to_cloud()
            && self.cloud.is_some()
            && !self.breaker_blocks_path(CLOUD_ADDR, op.id)
        {
            self.store_go_cloud(op, st)
        } else {
            Some(Err(OpError::NoSpace(op.name.to_string())))
        }
    }

    fn store_go_cloud(&mut self, op: &mut OpCore, st: &mut Store) -> StepOutcome {
        self.enter(op, Stage::StoreFlowToCloud);
        let src = self.nodes[op.client].addr;
        let dst = self.cloud.as_ref().expect("checked by caller").addr;
        self.start_flow_for_op(op.id, src, dst, st.object.size_bytes());
        None
    }

    /// Writes the object into the target node's file system and bins, then
    /// starts the replica fan-out (which publishes its metadata).
    fn store_install(&mut self, op: &mut OpCore, st: &mut Store) -> StepOutcome {
        let (object, target) = (&st.object, st.peer);
        let bin = if target == op.client {
            Bin::Mandatory
        } else {
            Bin::Voluntary
        };
        let size = object.size_bytes();
        let name = object.name;
        // Re-storing an existing name overwrites it ("one-to-one mapping of
        // objects to files": the file is replaced).
        if self.nodes[target].bins.lookup(name.as_str()).is_some() {
            self.nodes[target].bins.remove(name.as_str());
        }
        if self.nodes[target]
            .bins
            .store(name.as_str(), size, bin)
            .is_err()
        {
            // Stale resource record: the bin filled since we queried.
            return self.store_spill_or_fail(op, st);
        }
        self.nodes[target].objects.insert(name, object.blob.clone());
        if self.config.replication > 1 {
            st.replica_targets = self.store_pick_replicas(size, target);
            let want = self.config.replication - 1;
            let got = st.replica_targets.len();
            if got < want {
                // Record the shortfall instead of silently
                // under-replicating.
                let short = (want - got) as u32;
                op.partial_replication += short;
                self.stats.partial_replication += u64::from(short);
                self.op_instant(op, "store.partial_replication", || {
                    [
                        ("object", ArgValue::from(op.name.as_str())),
                        ("want", ArgValue::from(want as u64)),
                        ("got", ArgValue::from(got as u64)),
                    ]
                });
            }
        }
        self.store_begin_fanout(op, st)
    }

    /// Picks up to `replication - 1` peer nodes to hold extra copies:
    /// live, reachable from the primary, with voluntary space, preferring
    /// the most free space. Replicas never leave the home cloud, so the
    /// object's privacy class is preserved.
    fn store_pick_replicas(&mut self, size: u64, primary: usize) -> VecDeque<usize> {
        let mut peers = vec![0; self.config.replication.saturating_sub(1)];
        let found = self.roomiest_peers(size, &mut peers, |j| {
            j != primary && self.node_reachable(primary, j)
        });
        peers.truncate(found);
        peers.into()
    }

    /// Starts every pending replica transfer at once. The stage completes
    /// (and the metadata is published) when the last copy lands — or when
    /// the configured quorum is reached, in which case the stragglers
    /// detach and finish in the background.
    fn store_begin_fanout(&mut self, op: &mut OpCore, st: &mut Store) -> StepOutcome {
        let primary = st.peer;
        let size = st.object.size_bytes();
        self.enter(op, Stage::StoreFanout);
        let now = self.now();
        while let Some(target) = st.replica_targets.pop_front() {
            // Conditions may have changed since the targets were picked.
            if !self.nodes[target].alive
                || !self.node_reachable(primary, target)
                || !self.nodes[target].bins.fits(size, Bin::Voluntary)
            {
                op.failovers += 1;
                op.partial_replication += 1;
                self.stats.partial_replication += 1;
                self.op_instant(op, "store.replica_skip", || {
                    [
                        ("object", ArgValue::from(op.name.as_str())),
                        (
                            "skipped",
                            ArgValue::from(self.nodes[target].name_sym.as_str()),
                        ),
                    ]
                });
                continue;
            }
            let src = self.nodes[primary].addr;
            let dst = self.nodes[target].addr;
            let flow = self.start_flow_for_op(op.id, src, dst, size);
            st.replica_flows.insert(
                flow,
                ReplicaFlight {
                    target,
                    started: now,
                },
            );
        }
        self.store_fanout_check(op, st)
    }

    /// The number of total copies (primary included) that must exist before
    /// the store publishes, or 0 for "all of them".
    fn effective_quorum(&self) -> usize {
        match self.config.replica_quorum {
            0 => 0,
            q => q.clamp(1, self.config.replication),
        }
    }

    /// Publishes the store's metadata once the fan-out is complete or has
    /// reached quorum; otherwise keeps waiting.
    fn store_fanout_check(&mut self, op: &mut OpCore, st: &mut Store) -> StepOutcome {
        let pending = st.replica_flows.len() + st.replica_writes.len();
        if pending == 0 {
            return self.store_publish_meta(op, st, false);
        }
        let quorum = self.effective_quorum();
        if quorum > 0 && 1 + st.replicas_done.len() >= quorum {
            return self.store_publish_meta(op, st, true);
        }
        None
    }

    /// Closes the fan-out stage and publishes the object's metadata. With
    /// `at_quorum`, replica work still in flight detaches first.
    fn store_publish_meta(
        &mut self,
        op: &mut OpCore,
        st: &mut Store,
        at_quorum: bool,
    ) -> StepOutcome {
        if at_quorum {
            let detached = st.replica_flows.len() as u64;
            self.detach_fanout(op, st);
            self.stats.quorum_publishes += 1;
            self.op_instant(op, "store.quorum_publish", || {
                [
                    ("object", ArgValue::from(op.name.as_str())),
                    ("copies", ArgValue::from(1 + st.replicas_done.len() as u64)),
                ]
            });
            self.ledger_op(
                op.id,
                CauseKind::QuorumDetach,
                LEDGER_NONE,
                1 + st.replicas_done.len() as u64,
                detached,
            );
        }
        self.charge(op);
        let location = Location::Home {
            node: self.nodes[st.peer].key,
        };
        self.store_meta_put(op, st, location)
    }

    /// One replica transfer of the fan-out delivered its last byte: record
    /// its span and start the destination's disk write as a sub-task.
    fn fanout_flow_done(&mut self, op: &mut OpCore, st: &mut Store, flow: FlowId) -> StepOutcome {
        let flight = st.replica_flows.remove(&flow)?;
        let size = st.object.size_bytes();
        let now = self.now();
        self.emit_substage(op.id, Stage::StoreReplicaFlow, flight.started, now);
        // Replica transfers are bandwidth observations for their targets.
        let secs = now
            .checked_duration_since(flight.started)
            .unwrap_or_default()
            .as_secs_f64();
        let addr = self.nodes[flight.target].addr;
        self.peer_bw.observe(addr.raw(), size, secs);
        self.breaker_success(addr);
        let write = self.nodes[flight.target].disk.write_time(size);
        let token = flight.target as u64;
        st.replica_writes.insert(token, now);
        self.wake_sub_in(op.id, token, write);
        None
    }

    /// One replica's disk write finished: install the copy and publish if
    /// the fan-out is now complete (or at quorum).
    fn fanout_write_done(&mut self, op: &mut OpCore, st: &mut Store, token: u64) -> StepOutcome {
        let started = st.replica_writes.remove(&token)?;
        let now = self.now();
        self.emit_substage(op.id, Stage::StoreReplicaWrite, started, now);
        self.install_replica_copy(st, token as usize);
        self.store_fanout_check(op, st)
    }

    /// Installs one landed replica copy on its target node.
    fn install_replica_copy(&mut self, st: &mut Store, target: usize) {
        let object = &st.object;
        let name = object.name;
        let size = object.size_bytes();
        let blob = object.blob.clone();
        if self.nodes[target].alive && self.nodes[target].install_voluntary(name, size, blob) {
            st.replicas_done.push(self.nodes[target].key);
            self.stats.replicas_written += 1;
        }
    }

    /// Hands the fan-out's unfinished replica work to the runtime so a
    /// quorum publish doesn't abandon the remaining copies: pending disk
    /// writes (bytes already delivered) are installed immediately so the
    /// published metadata includes them, and in-flight transfers become
    /// background copies that republish the metadata when they land.
    fn detach_fanout(&mut self, op: &OpCore, st: &mut Store) {
        let now = self.now();
        for (token, started) in std::mem::take(&mut st.replica_writes) {
            self.emit_substage(op.id, Stage::StoreReplicaWrite, started, now);
            self.install_replica_copy(st, token as usize);
        }
        for (flow, flight) in std::mem::take(&mut st.replica_flows) {
            let blob = st.object.blob.clone();
            self.detach_straggler(flow, flight.started, op.name, flight.target, blob);
        }
    }

    /// Records a concurrent sub-stage span (one replica's transfer or disk
    /// write) on the operation's track, mirroring [`Self::charge`]'s naming
    /// and zero-length skip.
    fn emit_substage(&self, op: OpId, stage: Stage, from: SimTime, to: SimTime) {
        if to > from && self.telemetry.enabled() {
            self.stage_span(op, stage, from.as_nanos(), to.as_nanos());
        }
    }

    fn store_meta_put(
        &mut self,
        op: &mut OpCore,
        st: &mut Store,
        location: Location,
    ) -> StepOutcome {
        let object = &st.object;
        let meta = ObjectMeta {
            name: object.name,
            size_bytes: object.size_bytes(),
            content_type: object.content_type,
            tags: object.tags.clone(),
            location,
            private: object.private,
            owner: self.nodes[op.client].key,
            acl: object.acl.clone(),
            created_at_ns: self.now().as_nanos(),
            // Published once: the fan-out is complete or detached.
            replicas: std::mem::take(&mut st.replicas_done),
            ec: None,
        };
        if self.config.adaptive.enabled {
            // A re-store supersedes any erasure-coded form of the same
            // name; scrub stale stripes so readers never decode old bytes.
            self.ec_scrub(meta.name);
        }
        // Index replicated home objects for the background repair daemon.
        // With the adaptive plane on, single-copy home objects are indexed
        // too: the heat pass walks this index to grow, shrink, or convert
        // them.
        if (self.config.replication > 1 || self.config.adaptive.enabled)
            && matches!(meta.location, Location::Home { .. })
        {
            self.replicas.insert(meta.name, meta.clone());
            // A store that lost replica flights publishes short; hand the
            // shortfall to the repair daemon now instead of hoping an
            // unrelated peer death triggers a scan that happens to cover
            // this object.
            if op.partial_replication > 0 {
                self.maybe_repair(meta.name);
            }
        } else {
            self.replicas.remove(meta.name);
        }
        let record = Record::Object(meta);
        let bytes = self.encode_record(&record);
        let Record::Object(meta) = record else {
            unreachable!("an object record");
        };
        op.meta = Some(meta);
        self.enter(op, Stage::StoreMetaPut);
        self.dht_put_for_op(op.id, op.client, object_key(op.name.as_str()), bytes);
        None
    }
}
