//! The Cloud4Home runtime: the discrete-event loop binding the overlay,
//! network, virtualization, resource-monitoring, service, and cloud
//! substrates into one home cloud.
//!
//! [`Cloud4Home`] owns one simulated deployment: a set of virtualized home
//! nodes (each running a VStore++ daemon in dom0, a Chimera overlay node, a
//! resource monitor, and its deployed services), plus an optional public
//! cloud (S3-like storage and an EC2-like instance) behind the WAN. Client
//! operations — store, fetch, process, fetch+process — are submitted
//! against a node and advance as event-driven state machines
//! (see [`crate::ops`]); each completes with an
//! [`OpReport`](crate::report::OpReport) carrying the Table-I-style cost
//! breakdown.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Arc;
use std::time::Duration;

use c4h_chimera::{ChimeraNode, DhtEvent, Envelope, Key, OverwritePolicy, ReqId};
use c4h_cloud::{Ec2Fleet, S3Store};
use c4h_kvstore::{
    node_resource_key, object_key, service_key, ObjectMeta, Record, ResourceRecord, ServiceRecord,
};
use c4h_resources::{Bin, BinWatcher, ResourceMonitor, ResourceSampler, SamplerConfig};
use c4h_services::{
    Compress, FaceDetect, FaceRecognize, Service, ServiceRegistry, TrainingSet, Transcode,
};
use c4h_simnet::{
    presets, Addr, ChunkSpec, DetRng, EventQueue, FlowCounters, FlowEvent, FlowId, FlowNet,
    FxHashMap, NetError, SimTime, Sym, SymMap,
};
use c4h_telemetry::{ArgValue, CauseKind, LedgerEvent, OpLedger, Recorder, LEDGER_NONE};
use c4h_vmm::{DiskModel, DomId, GrantTable, Machine, PlatformSpec, VmSpec, XenChannel};

use crate::adaptive::{ObjectHeat, PeerBandwidth};
use crate::background::Jobs;
use crate::config::{Config, NodeId, ServiceKind};
use crate::fault::FaultEvent;
use crate::health::HealthPlane;
use crate::object::{synth_bytes, Blob};
use crate::ops::{Op, OpInput};
use crate::overload::OverloadPlane;
use crate::replicas::ReplicaIndex;
use crate::report::{OpId, OpReport};
use crate::transfers::{FlowOwner, FlowTable};
use crate::transport::Transport;

/// Address offset of the cloud site endpoint.
pub(crate) const CLOUD_ADDR: Addr = Addr::new(10_000);

/// Ledger ring key of the background plane (breaker trips, repair
/// triggers, adaptive actions) — decisions with no single owning op.
pub(crate) const BACKGROUND_RING: u64 = u64::MAX;

/// Tick period driving overlay timers and resource publishing.
const TICK_PERIOD: Duration = Duration::from_millis(500);

/// Trace track carrying runtime-wide instants (faults, churn).
pub(crate) const RUNTIME_TRACK: u64 = 0;

/// Trace track base for per-node DHT request spans (base + node index).
const DHT_TRACK_BASE: u64 = 3_000_000;

/// Trace track base for background repair spans (base + flow id).
pub(crate) const REPAIR_TRACK_BASE: u64 = 4_000_000;

/// Trace track base for detached replica fan-out spans (base + flow id).
pub(crate) const FANOUT_TRACK_BASE: u64 = 5_000_000;

/// Trace track base for per-stripe fetch transfer spans (base + flow id).
pub(crate) const STRIPE_TRACK_BASE: u64 = 6_000_000;

/// One home node's full runtime state.
#[derive(Debug)]
pub(crate) struct NodeRt {
    pub(crate) name: String,
    /// The node name interned, so hot paths can stamp it into jobs and
    /// telemetry without cloning the `String`.
    pub(crate) name_sym: Sym,
    pub(crate) addr: Addr,
    pub(crate) key: Key,
    /// Where this node's resource record lives in the key-value store
    /// (derived from `key`; every publish and every placement query uses it).
    pub(crate) resource_key: Key,
    pub(crate) machine: Machine,
    pub(crate) service_vm: VmSpec,
    pub(crate) channel: XenChannel,
    pub(crate) grants: GrantTable,
    pub(crate) disk: DiskModel,
    /// Private to this module: the runtime mutates it only through
    /// [`Cloud4Home::overlay_mut`], which is what keeps `pump`'s worklist
    /// complete.
    chimera: ChimeraNode,
    pub(crate) sampler: ResourceSampler,
    pub(crate) bins: BinWatcher,
    pub(crate) monitor: ResourceMonitor,
    pub(crate) registry: ServiceRegistry,
    /// The node's object file system (one file per object, interned keys).
    pub(crate) objects: SymMap<Blob>,
    pub(crate) gateway: bool,
    pub(crate) alive: bool,
}

/// The remote public cloud's runtime state.
#[derive(Debug)]
pub(crate) struct CloudRt {
    pub(crate) addr: Addr,
    pub(crate) bucket: String,
    pub(crate) s3: S3Store<Blob>,
    pub(crate) fleet: Ec2Fleet,
    pub(crate) registry: ServiceRegistry,
    pub(crate) instance_vm: VmSpec,
    pub(crate) active_tasks: u32,
}

impl CloudRt {
    /// The platform the cloud's compute instance runs on.
    pub(crate) fn platform(&self) -> PlatformSpec {
        let instance = self.fleet.iter().next().expect("fleet has an instance");
        instance.machine.platform().clone()
    }
}

/// Events in the runtime's queue.
#[derive(Debug)]
pub(crate) enum Event {
    /// An overlay envelope arrives at a node.
    Deliver { to: usize, env: Envelope },
    /// Periodic timers: overlay ticks + resource publishing.
    Tick,
    /// A delayed operation continuation.
    OpWake { op: OpId },
    /// A delayed continuation of one concurrent sub-task of an operation
    /// (e.g. one replica's disk write during a store fan-out). The token
    /// identifies the sub-task to the operation's state machine.
    OpSubWake { op: OpId, token: u64 },
    /// A DHT request completed for an operation (after IPC cost).
    DhtDone { op: OpId, ev: DhtEvent },
    /// A scheduled fault-plan event fires.
    Fault(FaultEvent),
    /// The health plane's periodic gauge sample fires.
    HealthSample,
}

/// Who is waiting on a DHT request.
#[derive(Debug, Clone, Copy)]
pub(crate) enum DhtWaiter {
    /// An operation continuation.
    Op(OpId),
    /// Background bookkeeping (resource publishing); result dropped.
    Ignore,
}

/// Aggregate runtime statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunStats {
    /// Completed operations.
    pub ops_completed: u64,
    /// Bulk transfer flows started.
    pub flows_started: u64,
    /// Overlay envelopes delivered.
    pub envelopes_delivered: u64,
    /// Overlay envelopes dropped by loss models or partitions.
    pub envelopes_dropped: u64,
    /// DHT requests reissued after a timeout.
    pub dht_retries: u64,
    /// Fetches redirected to another live replica holder.
    pub fetch_failovers: u64,
    /// Process operations re-dispatched after an executor failure.
    pub proc_redispatches: u64,
    /// Peer data replicas written during stores and repairs.
    pub replicas_written: u64,
    /// Background re-replication transfers started.
    pub repairs_started: u64,
    /// Background re-replication transfers completed and installed.
    pub repairs_completed: u64,
    /// Stores that placed fewer replica copies than `replication` asked
    /// for because too few live peers were available.
    pub partial_replication: u64,
    /// Bulk transfers that were split into pipelined chunks.
    pub chunked_transfers: u64,
    /// Stores whose metadata was published at quorum, before every replica
    /// flow finished (the stragglers detach and land in the background).
    pub quorum_publishes: u64,
    /// Fetches that split the read into concurrent stripes pulled from
    /// several holders (or parallel cloud range reads).
    pub striped_fetches: u64,
    /// Tail stripes re-issued from a second holder because the original
    /// source's ETA exceeded the hedging threshold.
    pub hedged_fetches: u64,
    /// Metadata lookups answered from a node-local cache instead of a
    /// remote overlay request.
    pub cache_answers: u64,
    /// Metadata-cache hits across all nodes.
    pub cache_hits: u64,
    /// Metadata-cache misses across all nodes.
    pub cache_misses: u64,
    /// Operations rejected at admission by the overload plane
    /// (`OpError::Overloaded` fast-fails).
    pub ops_shed: u64,
    /// Retries (DHT reissues, fetch backoff waits, repair starts) denied
    /// because a node's retry budget was exhausted.
    pub retry_budget_denied: u64,
    /// Circuit-breaker trips (closed/half-open → open transitions).
    pub breaker_trips: u64,
    /// Transfer attempts skipped because the path's breaker was open.
    pub breaker_fast_fails: u64,
    /// Aggregate critical-path nanoseconds on DHT/metadata work, across
    /// completed ops (collected only while tracing is enabled).
    pub crit_dht_ns: u64,
    /// Aggregate critical-path nanoseconds on local disk I/O.
    pub crit_disk_ns: u64,
    /// Aggregate critical-path nanoseconds on home-network transfers.
    pub crit_lan_ns: u64,
    /// Aggregate critical-path nanoseconds on WAN/cloud transfers.
    pub crit_wan_ns: u64,
    /// Aggregate critical-path nanoseconds executing services.
    pub crit_service_ns: u64,
    /// Aggregate critical-path nanoseconds in retry back-off.
    pub crit_backoff_ns: u64,
    /// Aggregate critical-path nanoseconds of queueing/control remainder.
    pub crit_other_ns: u64,
}

/// Why a churn action could not be carried out.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChurnError {
    /// No live, joined node exists to bootstrap the rejoin through.
    NoLiveSeed,
}

impl std::fmt::Display for ChurnError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChurnError::NoLiveSeed => {
                write!(f, "no live node to rejoin through")
            }
        }
    }
}

impl std::error::Error for ChurnError {}

/// One simulated Cloud4Home deployment.
///
/// # Examples
///
/// ```
/// use cloud4home::{Cloud4Home, Config, NodeId, Object, StorePolicy};
///
/// let mut home = Cloud4Home::new(Config::paper_testbed(42));
/// let obj = Object::synthetic("photos/door.jpg", 7, 512 * 1024, "jpeg");
/// let op = home.store_object(NodeId(0), obj, StorePolicy::MandatoryFirst, true);
/// let report = home.run_until_complete(op);
/// report.expect_ok();
/// let op = home.fetch_object(NodeId(3), "photos/door.jpg");
/// let report = home.run_until_complete(op);
/// assert_eq!(report.expect_ok().bytes, 512 * 1024);
/// ```
#[derive(Debug)]
pub struct Cloud4Home {
    pub(crate) config: Config,
    pub(crate) queue: EventQueue<Event>,
    pub(crate) net: FlowNet,
    pub(crate) rng: DetRng,
    pub(crate) nodes: Vec<NodeRt>,
    pub(crate) cloud: Option<CloudRt>,
    pub(crate) node_of_key: FxHashMap<Key, usize>,
    pub(crate) ops: FxHashMap<OpId, Op>,
    pub(crate) reports: FxHashMap<OpId, OpReport>,
    pub(crate) dht_waiters: FxHashMap<(usize, ReqId), DhtWaiter>,
    /// Every in-flight bulk transfer with its endpoints and its one
    /// accountable owner (see [`crate::transfers`]).
    pub(crate) flows: FlowTable,
    /// The background jobs those flows belong to when no operation owns
    /// them (see [`crate::background`]).
    pub(crate) jobs: Jobs,
    pub(crate) next_op: u64,
    pub(crate) stats: RunStats,
    /// Link conditions between overlay nodes and `pump`'s worklist (see
    /// [`crate::transport`]).
    pub(crate) transport: Transport,
    /// Metadata of replicated home objects with its inverse holder index,
    /// and the names the anti-entropy sweep and the adaptive pass still
    /// have to look at (see [`crate::replicas`]).
    pub(crate) replicas: ReplicaIndex,
    /// How many events `step` has processed; against the transport's node
    /// visits this is the scale gate in `tests/world_scaling.rs`.
    steps: u64,
    /// Reusable scratch buffer for [`FlowNet::advance_into`] — the main
    /// loop drains flow completions every step, so the allocation is paid
    /// once instead of per step. Taken (`mem::take`) while in use; a
    /// nested advance during completion handling just starts from an
    /// empty spare.
    pub(crate) flow_scratch: Vec<FlowEvent>,
    /// Reusable scratch buffers for the periodic scans (anti-entropy,
    /// adaptive review, peer-failure repair): the names one scan walks —
    /// a snapshot, because the work a visit starts re-marks its name — and
    /// the live holders of the object being looked at. Same take/restore
    /// discipline as `flow_scratch`, so a scan of objects that need no
    /// work allocates nothing.
    pub(crate) names_scratch: Vec<Sym>,
    pub(crate) holders_scratch: Vec<usize>,
    /// Peers whose failure the repair daemon has already reacted to.
    pub(crate) repaired_peers: BTreeSet<Key>,
    /// Per-peer bandwidth estimates (keyed by raw address) learned from
    /// completed transfers; drives fetch source ranking and hedging.
    pub(crate) peer_bw: PeerBandwidth,
    /// Per-object fetch-heat tracker feeding the adaptive placement pass.
    /// Only populated when `config.adaptive.enabled`.
    pub(crate) object_heat: ObjectHeat,
    /// Original blobs of erasure-coded objects: the stripes cover the
    /// content sample window, so the logical object handed back to a
    /// decoding fetch (and verified against the decode) is staged here.
    /// `BTreeMap` for deterministic iteration.
    pub(crate) ec_originals: BTreeMap<Sym, Blob>,
    /// The stripe names of each object that has (or is getting) a layout,
    /// in row order: filled when a conversion starts, dropped by
    /// [`Self::ec_scrub`]. Every anti-entropy pass asks for all `k + m` of
    /// them per object. Keyed access only.
    pub(crate) ec_row_names: SymMap<Vec<Sym>>,
    /// The deployment-wide telemetry collector; clones of this handle live
    /// in the flow network and every overlay node.
    pub(crate) telemetry: Recorder,
    /// SLO windows, critical-path ring, and the post-mortem flight
    /// recorder (see [`crate::health`]).
    pub(crate) health: HealthPlane,
    /// Admission control, load shedding, retry budgets, and circuit
    /// breakers (see [`crate::overload`]). Inert unless
    /// `config.overload.enabled`.
    pub(crate) overload: OverloadPlane,
    /// The causal op ledger: bounded per-op decision rings feeding the
    /// explain plane (see [`c4h_telemetry::OpLedger`]). `BACKGROUND_RING`
    /// keys the shared background-plane ring. Inert (one relaxed atomic
    /// load per decision point) unless enabled.
    pub(crate) ledger: OpLedger,
    /// Completed op ids still holding full explain detail (stage spans +
    /// causal chain); bounded by `config.explain_ring` — past capacity the
    /// oldest report's detail is released.
    pub(crate) explain_ring: VecDeque<OpId>,
    tick_armed: bool,
    tick_horizon: SimTime,
}

impl NodeRt {
    /// Moves `bytes` across the guest ↔ dom0 shared-memory channel with the
    /// full descriptor exchange the paper describes: the receiver grants a
    /// page ring, the sender maps it, data is copied, and the grant is torn
    /// down. Returns the transfer duration.
    pub(crate) fn channel_transfer(&mut self, bytes: u64) -> Duration {
        let pages = self.channel.config().pages;
        let gref = self
            .grants
            .grant(DomId(1), pages, true)
            .expect("bounded concurrent transfers per node");
        self.grants.map(gref).expect("fresh grant maps");
        let cost = self.channel.transfer(bytes);
        self.grants.unmap(gref).expect("mapped above");
        self.grants.revoke(gref).expect("unmapped above");
        cost
    }

    /// The overlay's next outgoing envelope. Polling (like
    /// [`Self::poll_event`] and [`Self::has_output`]) leaves nothing new
    /// behind, so unlike a mutation it needs no worklist mark.
    pub(crate) fn poll_send(&mut self) -> Option<Envelope> {
        self.chimera.poll_send()
    }

    /// The overlay's next application-visible event.
    pub(crate) fn poll_event(&mut self) -> Option<DhtEvent> {
        self.chimera.poll_event()
    }

    /// Whether the overlay holds anything `pump` has yet to forward.
    pub(crate) fn has_output(&self) -> bool {
        self.chimera.has_output()
    }

    /// Installs a copy (or stripe) in the voluntary bin, replacing any
    /// stale entry of the same name. Returns whether it fit.
    pub(crate) fn install_voluntary(&mut self, name: Sym, bytes: u64, blob: Blob) -> bool {
        if self.bins.lookup(name.as_str()).is_some() {
            self.bins.remove(name.as_str());
        }
        if self
            .bins
            .store(name.as_str(), bytes, Bin::Voluntary)
            .is_err()
        {
            return false;
        }
        self.objects.insert(name, blob);
        true
    }

    /// Removes `name`'s bytes and its bin entry, if the node has them.
    pub(crate) fn evict(&mut self, name: Sym) {
        self.objects.remove(&name);
        self.bins.remove(name.as_str());
    }
}

impl Cloud4Home {
    /// Builds and warms up a deployment: forms the overlay, publishes
    /// service records, and seeds initial resource records.
    ///
    /// # Panics
    ///
    /// Panics if [`Config::validate`] rejects the configuration.
    pub fn new(config: Config) -> Self {
        if let Err(why) = config.validate() {
            panic!("invalid config: {why}");
        }
        let mut rng = DetRng::seed(config.seed);

        // Topology: the paper testbed shape, one address per node.
        let mut tb = presets::paper_testbed();
        for (i, _) in config.nodes.iter().enumerate() {
            tb.topology.attach(Addr::new(i as u64), tb.home);
        }
        tb.topology.attach(CLOUD_ADDR, tb.cloud);
        let telemetry = Recorder::new();
        let mut net = FlowNet::new(tb.topology);
        net.set_recorder(telemetry.clone());

        // Shared face-recognition training set (synthetic imagery).
        let examples: Vec<Vec<u8>> = (0..16)
            .map(|i| synth_bytes(0x5EED_0000 + i, 64 * 1024))
            .collect();
        let training = TrainingSet::from_examples(examples.iter().map(Vec::as_slice));

        let build_registry = |kinds: &[ServiceKind]| {
            let mut reg = ServiceRegistry::new();
            for k in kinds {
                let svc: Arc<dyn Service> = match k {
                    ServiceKind::FaceDetect => Arc::new(FaceDetect::new()),
                    ServiceKind::FaceRecognize => Arc::new(FaceRecognize::new(training.clone())),
                    ServiceKind::Transcode => Arc::new(Transcode::new()),
                    ServiceKind::Compress => Arc::new(Compress::new()),
                };
                reg.deploy(svc);
            }
            reg
        };

        let mut nodes = Vec::new();
        let mut node_of_key = FxHashMap::default();
        for (i, spec) in config.nodes.iter().enumerate() {
            let key = Key::from_name(&spec.name);
            assert!(
                node_of_key.insert(key, i).is_none(),
                "node name collision for {}",
                spec.name
            );
            let mut machine = Machine::new(spec.platform.clone(), VmSpec::new(256, 1));
            machine
                .spawn_guest(spec.service_vm)
                .expect("service VM must fit the platform");
            nodes.push(NodeRt {
                name: spec.name.clone(),
                name_sym: Sym::new(&spec.name),
                addr: Addr::new(i as u64),
                key,
                resource_key: node_resource_key(&key.to_string()),
                disk: DiskModel::for_platform(&spec.platform),
                machine,
                service_vm: spec.service_vm,
                channel: XenChannel::new(spec.channel),
                grants: GrantTable::new(256),
                chimera: ChimeraNode::new(key, config.chimera.clone()),
                sampler: ResourceSampler::new(SamplerConfig {
                    baseline_load: spec.ambient_load,
                    mem_total_mib: spec.platform.ram_mib,
                    battery: spec.battery,
                    ..SamplerConfig::default()
                }),
                bins: BinWatcher::new(spec.mandatory_bytes, spec.voluntary_bytes),
                monitor: ResourceMonitor::new(config.monitor),
                registry: build_registry(&spec.services),
                objects: SymMap::default(),
                gateway: spec.gateway,
                alive: true,
            });
        }
        for (i, n) in nodes.iter_mut().enumerate() {
            n.chimera
                .set_telemetry(telemetry.clone(), DHT_TRACK_BASE + i as u64);
        }

        let cloud = config.cloud.as_ref().map(|spec| {
            let mut s3 = S3Store::new();
            s3.create_bucket(&spec.bucket).expect("fresh bucket");
            let mut fleet = Ec2Fleet::new();
            let id = fleet.launch(spec.instance_platform.clone(), spec.instance_vm);
            for k in &spec.services {
                fleet.deploy_service(id, k.id()).expect("instance exists");
            }
            CloudRt {
                addr: CLOUD_ADDR,
                bucket: spec.bucket.clone(),
                s3,
                fleet,
                registry: build_registry(&spec.services),
                instance_vm: spec.instance_vm,
                active_tasks: 0,
            }
        });

        let mut home = Cloud4Home {
            rng: rng.fork(),
            queue: EventQueue::new(),
            net,
            nodes,
            cloud,
            node_of_key,
            ops: FxHashMap::default(),
            reports: FxHashMap::default(),
            dht_waiters: FxHashMap::default(),
            flows: FlowTable::default(),
            jobs: Jobs::default(),
            next_op: 1,
            stats: RunStats::default(),
            transport: Transport::new(config.nodes.len()),
            replicas: ReplicaIndex::default(),
            steps: 0,
            flow_scratch: Vec::new(),
            names_scratch: Vec::new(),
            holders_scratch: Vec::new(),
            repaired_peers: BTreeSet::new(),
            // Prior: the LAN's nominal per-flow TCP cap. Unseen peers all
            // rank equal, so candidate order matches the metadata until
            // real transfers are observed.
            peer_bw: PeerBandwidth::new(10.3e6, 0.3),
            object_heat: ObjectHeat::new(config.adaptive.heat_alpha),
            ec_originals: BTreeMap::new(),
            ec_row_names: SymMap::default(),
            telemetry,
            health: HealthPlane::new(&config),
            overload: OverloadPlane::new(&config),
            ledger: OpLedger::new(config.ledger_ring),
            explain_ring: VecDeque::new(),
            tick_armed: false,
            tick_horizon: SimTime::ZERO,
            config,
        };
        home.warmup();
        // Recording starts after warm-up so traces cover only submitted
        // work, and identically so for every run of the same seed.
        home.telemetry.set_enabled(home.config.tracing);
        home.ledger.set_enabled(home.config.ledger);
        home.ensure_health();
        home
    }

    /// Forms the overlay and publishes service + initial resource records.
    fn warmup(&mut self) {
        let now = self.queue.now();
        self.overlay_mut(0).bootstrap(now);
        let seed_key = self.nodes[0].key;
        for i in 1..self.nodes.len() {
            self.overlay_mut(i).join_via(seed_key, now);
        }
        self.run_for(Duration::from_secs(2));
        debug_assert!(self.nodes.iter().all(|n| n.chimera.is_joined()));
        self.publish_service_records();
        self.publish_all_resources();
        self.run_for(Duration::from_secs(2));
    }

    /// Publishes the aggregated service-availability records ("every node
    /// registers its list of services with the key-value store").
    pub(crate) fn publish_service_records(&mut self) {
        let kinds = [
            ServiceKind::FaceDetect,
            ServiceKind::FaceRecognize,
            ServiceKind::Transcode,
            ServiceKind::Compress,
        ];
        let publisher = self
            .nodes
            .iter()
            .position(|n| n.gateway && n.alive)
            .unwrap_or(0);
        for kind in kinds {
            let providers: Vec<Key> = self
                .nodes
                .iter()
                .filter(|n| n.alive && n.registry.provides(c4h_services::ServiceId(kind.id())))
                .map(|n| n.key)
                .collect();
            let cloud_available = self
                .cloud
                .as_ref()
                .is_some_and(|c| c.registry.provides(c4h_services::ServiceId(kind.id())));
            let record = Record::Service(ServiceRecord {
                name: kind.name().to_owned(),
                service_id: kind.id(),
                providers,
                cloud_available,
                policy: "performance".into(),
            });
            self.publish_background(publisher, service_key(kind.name(), kind.id()), record);
        }
    }

    /// Forces every node to publish a fresh resource record now.
    fn publish_all_resources(&mut self) {
        for i in 0..self.nodes.len() {
            self.publish_resources(i);
        }
    }

    /// Publishes node `i`'s resource record into the key-value store.
    pub(crate) fn publish_resources(&mut self, i: usize) {
        // Checked here too: the sample below draws from the RNG.
        if !self.nodes[i].alive || !self.nodes[i].chimera.is_joined() {
            return;
        }
        let now = self.queue.now();
        let (up, down) = self.node_bandwidth(i);
        let n = &mut self.nodes[i];
        let record =
            n.monitor
                .publish(n.key, now, &mut n.sampler, &n.bins, up, down, &mut self.rng);
        let key = n.resource_key;
        self.publish_background(i, key, Record::Resource(record));
    }

    /// Best-effort DHT put from node `i` whose completion nobody waits
    /// for: resource and service records, republished object metadata,
    /// stripe records. A node that is down or outside the overlay
    /// publishes nothing — checked before the record is encoded, because
    /// encoding counts in `kvstore.record_encodes`.
    pub(crate) fn publish_background(&mut self, i: usize, key: Key, record: Record) {
        if !self.nodes[i].alive || !self.nodes[i].chimera.is_joined() {
            return;
        }
        let now = self.now();
        if let Ok(req) =
            self.overlay_mut(i)
                .put(key, record.encode(), OverwritePolicy::Overwrite, now)
        {
            self.dht_waiters.insert((i, req), DhtWaiter::Ignore);
        }
    }

    /// A node's nominal (up, down) bandwidth in bytes/second.
    fn node_bandwidth(&self, i: usize) -> (f64, f64) {
        let lan = presets::home_lan_capacity_bps();
        if self.nodes[i].gateway {
            (
                presets::wan_up_capacity_bps(),
                presets::wan_down_capacity_bps(),
            )
        } else {
            (lan, lan)
        }
    }

    // ------------------------------------------------------------------
    // Public inspection API
    // ------------------------------------------------------------------

    /// The current virtual time.
    pub fn now(&self) -> SimTime {
        self.queue.now()
    }

    /// Number of home nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// A node's name.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range id.
    pub fn node_name(&self, id: NodeId) -> &str {
        &self.nodes[id.0].name
    }

    /// The node holding the gateway role, or `None` if the configuration
    /// deploys no gateway (a cloud-less home cloud).
    pub fn gateway(&self) -> Option<NodeId> {
        self.nodes.iter().position(|n| n.gateway).map(NodeId)
    }

    /// The placement rule every background and store path shares: fills
    /// `best` with the live peers that have voluntary room for `size` bytes
    /// and pass `viable`, roomiest first, equal room to the lower index,
    /// and returns how many it found. One pass over the nodes, nothing
    /// allocated.
    pub(crate) fn roomiest_peers(
        &self,
        size: u64,
        best: &mut [usize],
        viable: impl Fn(usize) -> bool,
    ) -> usize {
        let room = |j: usize| self.nodes[j].bins.free_bytes(Bin::Voluntary);
        let mut len = 0;
        for j in 0..self.nodes.len() {
            let free = room(j);
            // `j` ascends, so a kept peer with equal room wins the tie.
            let beaten = len == best.len() && best.last().is_none_or(|&b| free <= room(b));
            if beaten || free < size || !self.nodes[j].alive || !viable(j) {
                continue;
            }
            let at = best[..len].partition_point(|&b| room(b) >= free);
            len = (len + 1).min(best.len());
            best.copy_within(at..len - 1, at + 1);
            best[at] = j;
        }
        len
    }

    /// [`Self::roomiest_peers`] for a single destination.
    pub(crate) fn roomiest_peer(&self, size: u64, viable: impl Fn(usize) -> bool) -> Option<usize> {
        let mut best = [0];
        (self.roomiest_peers(size, &mut best, viable) == 1).then_some(best[0])
    }

    /// Runtime statistics. The metadata-cache fields are aggregated live
    /// from the per-node kvstore counters.
    pub fn stats(&self) -> RunStats {
        let mut s = self.stats;
        let (hits, misses) = self.cache_stats();
        s.cache_hits = hits;
        s.cache_misses = misses;
        s.cache_answers = self
            .nodes
            .iter()
            .map(|n| n.chimera.stats().cache_answers)
            .sum();
        s
    }

    /// The deployment's telemetry recorder (spans, instants, counters,
    /// histograms). Clones share one buffer; see [`c4h_telemetry`].
    pub fn telemetry(&self) -> &Recorder {
        &self.telemetry
    }

    /// Turns trace/metric recording on or off at runtime. Spans opened
    /// while enabled still close cleanly after a disable. Enabling also
    /// arms the health plane's gauge sampler.
    pub fn set_tracing(&mut self, on: bool) {
        self.telemetry.set_enabled(on);
        if on {
            self.ensure_health();
        }
    }

    /// Whether trace/metric recording is currently enabled.
    pub fn tracing_enabled(&self) -> bool {
        self.telemetry.enabled()
    }

    /// Serializes everything recorded so far as Chrome `trace_event` JSON
    /// (loadable in `chrome://tracing` or Perfetto). Deterministic: the
    /// same seed and workload produce byte-identical output.
    pub fn chrome_trace_json(&self) -> String {
        self.telemetry.chrome_trace_json()
    }

    /// Serializes recorded counters and histograms as a flat, sorted JSON
    /// document, with the aggregate [`RunStats`] mirrored in under
    /// `stats.*`. Deterministic for a given seed and workload.
    pub fn metrics_json(&self) -> String {
        self.sync_stats_counters();
        self.telemetry.metrics_json()
    }

    /// Serializes counters, the latest gauge values, and histograms in the
    /// Prometheus text exposition format (metric names prefixed `c4h_`).
    /// Deterministic for a given seed and workload.
    pub fn prometheus_text(&self) -> String {
        self.sync_stats_counters();
        self.telemetry.prometheus_text()
    }

    /// Serializes every recorded gauge time series (full history, virtual
    /// timestamps in nanoseconds) as sorted JSON. Deterministic for a given
    /// seed and workload.
    pub fn series_json(&self) -> String {
        self.telemetry.series_json()
    }

    /// Serializes the flight recorder's post-mortem dumps — one JSON object
    /// per hard operation failure, carrying the op's stage spans, recent
    /// fault notes, and the last gauge samples before the failure.
    /// Deterministic for a given seed and workload.
    pub fn postmortem_json(&self) -> String {
        self.health.flight.dumps_json()
    }

    /// The first line of every text report: what it is and when it was
    /// taken.
    fn report_header(&self, what: &str) -> String {
        format!("{what} @ {} ms\n", self.now().as_nanos() / 1_000_000)
    }

    /// A human-readable health summary: per-op-kind sliding-window latency
    /// percentiles against their objectives, violation and post-mortem
    /// counts. Integer-only formatting, deterministic per seed.
    pub fn health_text(&self) -> String {
        let now = self.now();
        let mut out = self.report_header("health");
        let summaries = self.health.summaries(now);
        if summaries.is_empty() {
            out.push_str("no operations observed in the window\n");
        }
        for (kind, h) in summaries {
            let slo = match h.slo_ns {
                Some(slo_ns) => {
                    let status = if h.p99_ns > slo_ns { "BREACH" } else { "ok" };
                    format!("slo {} ms [{status}]", slo_ns / 1_000_000)
                }
                None => "no slo".to_owned(),
            };
            out.push_str(&format!(
                "{kind:8} n={} p50={} ms p95={} ms p99={} ms {slo}\n",
                h.count,
                h.p50_ns / 1_000_000,
                h.p95_ns / 1_000_000,
                h.p99_ns / 1_000_000,
            ));
        }
        out.push_str(&format!(
            "violations={} postmortems={} (dropped {})\n",
            self.health.violations,
            self.health.flight.dumps().len(),
            self.health.flight.dropped(),
        ));
        out
    }

    /// A `top`-style snapshot: the latest gauge sample plus the slowest
    /// recently completed operations with their dominant critical-path
    /// bucket. Integer-only formatting, deterministic per seed.
    ///
    /// Takes a fresh gauge sample first (when recording is on and none was
    /// taken at the current instant), so the snapshot is always live.
    pub fn top_text(&mut self) -> String {
        if self.telemetry.enabled()
            && !self.health.sample_period.is_zero()
            && self.health.last_sample != Some(self.now())
        {
            self.sample_health();
        }
        let mut out = self.report_header("top");
        let snap = self.telemetry.snapshot();
        let mut latest: Vec<(String, i64)> = snap
            .series
            .iter()
            .filter_map(|(name, s)| s.last().map(|(_, v)| (name.clone(), v)))
            .collect();
        latest.sort_by(|a, b| a.0.cmp(&b.0));
        if latest.is_empty() {
            out.push_str("no gauge samples recorded\n");
        }
        for (name, v) in latest {
            out.push_str(&format!("{name} = {v}\n"));
        }
        let worst = self.health.worst_paths(8);
        if !worst.is_empty() {
            out.push_str("slowest ops:\n");
            for row in worst {
                let (bucket, ns) = row.path.dominant();
                out.push_str(&format!(
                    "{} {} {} total={} ms dominant={bucket} ({} ms)\n",
                    row.op,
                    row.kind,
                    row.object,
                    row.total_ns / 1_000_000,
                    ns / 1_000_000,
                ));
            }
        }
        out
    }

    /// A human-readable admission/shedding summary: whether the overload
    /// plane is active, the shed controller's current rejection
    /// probability, breach and rejection totals, and per-tenant inflight
    /// rows. Integer-only formatting, deterministic per seed.
    pub fn shed_text(&self) -> String {
        let mut out = self.report_header("shed");
        if !self.overload.enabled {
            out.push_str("overload plane disabled\n");
            return out;
        }
        out.push_str(&format!(
            "drop_permille={} breaches={} shed={} inflight={}\n",
            self.overload.shed_permille(),
            self.overload.breaches(),
            self.stats.ops_shed,
            self.overload.inflight(),
        ));
        out.push_str(&format!(
            "retry_budget_denied={}\n",
            self.stats.retry_budget_denied
        ));
        for (tenant, inflight) in self.overload.tenant_rows() {
            let name = self.nodes.get(tenant).map_or("?", |n| n.name.as_str());
            out.push_str(&format!(
                "tenant {name} inflight={inflight} retry_tokens={}\n",
                self.overload.retry_tokens(tenant)
            ));
        }
        out
    }

    /// A human-readable circuit-breaker summary: one row per path that has
    /// recorded at least one failure, with its state, consecutive-failure
    /// count, and trip total. Integer-only formatting, deterministic per
    /// seed.
    pub fn breaker_text(&self) -> String {
        let mut out = self.report_header("breakers");
        if !self.overload.enabled {
            out.push_str("overload plane disabled\n");
            return out;
        }
        let mut any = false;
        for (addr, b) in self.overload.breaker_rows() {
            any = true;
            let path = self.path_name(Addr::new(addr));
            out.push_str(&format!(
                "{path} state={} failures={} trips={}\n",
                b.state(),
                b.failures(),
                b.trips,
            ));
        }
        if !any {
            out.push_str("no paths have recorded failures\n");
        }
        out.push_str(&format!(
            "open={} trips_total={} fast_fails={}\n",
            self.overload.breakers_open(),
            self.stats.breaker_trips,
            self.stats.breaker_fast_fails,
        ));
        out
    }

    /// Turns the causal op ledger on or off at runtime. While off, every
    /// decision point costs one relaxed atomic load and no per-op causal
    /// state is retained, so default-config runs stay byte-identical.
    /// Engine-introspection gauges ride the health sampler's cadence and
    /// only appear while the ledger is on.
    pub fn set_ledger(&mut self, on: bool) {
        self.ledger.set_enabled(on);
    }

    /// Whether the causal op ledger is currently recording.
    pub fn ledger_enabled(&self) -> bool {
        self.ledger.enabled()
    }

    /// Renders a completed op's annotated critical-path timeline: each DAG
    /// edge with its offset, duration, and latency bucket, the causal
    /// decisions that fell inside it, the full ledger chain, and the
    /// exact-sum invariant restated with real numbers. Integer-only
    /// formatting, deterministic per seed. Reports completed with the
    /// ledger off render a one-line fallback.
    pub fn explain_text(&self, op: OpId) -> String {
        match self.reports.get(&op) {
            Some(report) => crate::explain::explain_text(report),
            None => format!("no completed report for {op}\n"),
        }
    }

    /// Serializes a completed op's critical-path DAG and causal ledger as
    /// a byte-stable JSON object, or `None` when no report exists for
    /// `op`. Deterministic for a given seed and workload.
    pub fn explain_json(&self, op: OpId) -> Option<String> {
        self.reports.get(&op).map(crate::explain::explain_json)
    }

    /// One summary line for each of the `n` slowest recently completed
    /// operations (the health plane's sliding window), with the dominant
    /// critical-path edge when the op completed under the ledger.
    /// Integer-only formatting, deterministic per seed.
    pub fn slowest_text(&self, n: usize) -> String {
        let mut out = self.report_header("slowest");
        let worst = self.health.worst_paths(n);
        if worst.is_empty() {
            out.push_str("no completed operations in the window\n");
            return out;
        }
        for row in worst {
            match self.reports.get(&row.op) {
                Some(report) => {
                    out.push_str(&crate::explain::summary_line(report));
                    out.push('\n');
                }
                None => out.push_str(&format!(
                    "{} {} object={} latency={}ns (report evicted)\n",
                    row.op, row.kind, row.object, row.total_ns,
                )),
            }
        }
        out
    }

    /// Summary lines for completed ops of `kind` whose latency reached the
    /// p99.9 of that kind's full-run histogram — the tail the SLO plane
    /// cares about. Scans completed reports in (latency desc, op id)
    /// order, capped at eight rows. Integer-only, deterministic per seed.
    pub fn outliers_text(&self, kind: &str) -> String {
        let mut out = self.report_header(&format!("outliers op.{kind}"));
        let snap = self.telemetry.snapshot();
        let Some(h) = snap.histograms.get(&format!("op.{kind}.total_ns")) else {
            out.push_str("no latency histogram for this kind (tracing off or no ops)\n");
            return out;
        };
        let p999 = h.value_at_quantile(999, 1000);
        out.push_str(&format!("n={} p99.9={}ns\n", h.count, p999));
        let mut picks: Vec<(u64, u64, OpId)> = self
            .reports
            .iter()
            .filter(|(_, r)| r.kind == kind)
            .map(|(id, r)| {
                let lat = r.completed.as_nanos() - r.submitted.as_nanos();
                (lat, id.0, *id)
            })
            .filter(|(lat, _, _)| *lat >= p999)
            .collect();
        picks.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        picks.truncate(8);
        if picks.is_empty() {
            out.push_str("no retained reports at or above the threshold\n");
        }
        for (_, _, id) in picks {
            if let Some(report) = self.reports.get(&id) {
                out.push_str(&crate::explain::summary_line(report));
                out.push('\n');
            }
        }
        out
    }

    /// The background plane's causal events — breaker trips, repair
    /// triggers, adaptive placement actions — in record order (bounded by
    /// the configured ring size). Empty while the ledger is off.
    pub fn background_ledger(&self) -> &[LedgerEvent] {
        self.ledger.chain(BACKGROUND_RING)
    }

    /// Mirrors [`RunStats`] into the metrics registry so dumps carry the
    /// runtime aggregates alongside subsystem counters.
    fn sync_stats_counters(&self) {
        let s = self.stats();
        for (name, v) in [
            ("stats.ops_completed", s.ops_completed),
            ("stats.flows_started", s.flows_started),
            ("stats.envelopes_delivered", s.envelopes_delivered),
            ("stats.envelopes_dropped", s.envelopes_dropped),
            ("stats.dht_retries", s.dht_retries),
            ("stats.fetch_failovers", s.fetch_failovers),
            ("stats.proc_redispatches", s.proc_redispatches),
            ("stats.replicas_written", s.replicas_written),
            ("stats.repairs_started", s.repairs_started),
            ("stats.repairs_completed", s.repairs_completed),
            ("stats.partial_replication", s.partial_replication),
            ("stats.chunked_transfers", s.chunked_transfers),
            ("stats.quorum_publishes", s.quorum_publishes),
            ("stats.striped_fetches", s.striped_fetches),
            ("stats.hedged_fetches", s.hedged_fetches),
            ("stats.cache_answers", s.cache_answers),
            ("stats.cache_hits", s.cache_hits),
            ("stats.cache_misses", s.cache_misses),
            ("stats.ops_shed", s.ops_shed),
            ("stats.retry_budget_denied", s.retry_budget_denied),
            ("stats.breaker_trips", s.breaker_trips),
            ("stats.breaker_fast_fails", s.breaker_fast_fails),
            ("stats.crit_dht_ns", s.crit_dht_ns),
            ("stats.crit_disk_ns", s.crit_disk_ns),
            ("stats.crit_lan_ns", s.crit_lan_ns),
            ("stats.crit_wan_ns", s.crit_wan_ns),
            ("stats.crit_service_ns", s.crit_service_ns),
            ("stats.crit_backoff_ns", s.crit_backoff_ns),
            ("stats.crit_other_ns", s.crit_other_ns),
        ] {
            self.telemetry.set_counter(name, v);
        }
    }

    // ------------------------------------------------------------------
    // Causal-ledger hooks (one relaxed atomic load while disabled)
    // ------------------------------------------------------------------

    /// Records one causal decision event on an op's ledger ring. Returns
    /// the event's seq for chaining, or `LEDGER_NONE` while the ledger is
    /// disabled (in which case nothing is recorded).
    pub(crate) fn ledger_op(
        &mut self,
        op: OpId,
        kind: CauseKind,
        cause: u32,
        a: u64,
        b: u64,
    ) -> u32 {
        if !self.ledger.enabled() {
            return LEDGER_NONE;
        }
        let ts = self.now().as_nanos();
        self.ledger.record(op.0, kind, cause, ts, a, b)
    }

    /// Records one background-plane causal event (breaker trips, repair
    /// triggers, adaptive actions) on the shared background ring.
    pub(crate) fn ledger_bg(&mut self, kind: CauseKind, a: u64, b: u64) {
        if !self.ledger.enabled() {
            return;
        }
        let ts = self.now().as_nanos();
        self.ledger
            .record(BACKGROUND_RING, kind, LEDGER_NONE, ts, a, b);
    }

    // ------------------------------------------------------------------
    // Overload-plane hooks (all no-ops while the plane is disabled)
    // ------------------------------------------------------------------

    /// Human name of a breaker path address: a node name or the cloud
    /// uplink. Returns the interned name, so the common cases (known
    /// node, cloud) never allocate; an unknown address formats once and
    /// its interned fallback is reused from then on.
    fn path_name(&self, addr: Addr) -> Sym {
        if addr == CLOUD_ADDR {
            return Sym::new("cloud-uplink");
        }
        self.nodes
            .iter()
            .find(|n| n.addr == addr)
            .map_or_else(|| Sym::new(&format!("addr-{}", addr.raw())), |n| n.name_sym)
    }

    /// Counts and traces one breaker transition or fast-fail on `addr`'s
    /// path.
    fn note_breaker(&self, name: &'static str, addr: Addr) {
        let path = self.path_name(addr);
        self.telemetry.add(name, 1);
        self.telemetry.instant_args(
            "overload",
            name,
            RUNTIME_TRACK,
            self.now().as_nanos(),
            vec![("path", ArgValue::from(path.as_str()))],
        );
    }

    /// Records a successful transfer on a path, closing its breaker when a
    /// half-open probe just succeeded.
    pub(crate) fn breaker_success(&mut self, addr: Addr) {
        if !self.overload.enabled {
            return;
        }
        if self.overload.record_success(addr.raw()) {
            self.note_breaker("breaker.close", addr);
        }
    }

    /// Records a failed transfer on a path, tripping its breaker open after
    /// the configured consecutive-failure threshold.
    pub(crate) fn breaker_failure(&mut self, addr: Addr) {
        if !self.overload.enabled {
            return;
        }
        let now_ns = self.now().as_nanos();
        if self.overload.record_failure(addr.raw(), now_ns) {
            self.stats.breaker_trips += 1;
            self.ledger_bg(CauseKind::BreakerTrip, addr.raw(), 0);
            self.note_breaker("breaker.trip", addr);
        }
    }

    /// Whether `addr`'s breaker currently blocks traffic for `op`. Counts
    /// and traces the fast-fail when it does (and stamps a `breaker.skip`
    /// event on the op's causal ledger); may move an open breaker to
    /// half-open (the deterministic probe path).
    pub(crate) fn breaker_blocks_path(&mut self, addr: Addr, op: OpId) -> bool {
        if !self.overload.enabled {
            return false;
        }
        let now_ns = self.now().as_nanos();
        if !self.overload.breaker_blocks(addr.raw(), now_ns) {
            return false;
        }
        self.stats.breaker_fast_fails += 1;
        self.ledger_op(op, CauseKind::BreakerSkip, LEDGER_NONE, addr.raw(), 0);
        self.note_breaker("breaker.fast_fail", addr);
        true
    }

    /// Takes one retry token from `node`'s budget, tracing the denial when
    /// the bucket is dry. Always grants while the plane is disabled.
    pub(crate) fn retry_budget_take(
        &mut self,
        node: usize,
        site: &'static str,
        object: Sym,
    ) -> bool {
        let now_ns = self.now().as_nanos();
        if self.overload.retry_allowed(node, now_ns) {
            return true;
        }
        self.stats.retry_budget_denied += 1;
        self.telemetry.add("retry.budget_denied", 1);
        self.telemetry.instant_args(
            "overload",
            "retry.budget_denied",
            RUNTIME_TRACK,
            now_ns,
            vec![
                ("site", ArgValue::from(site)),
                ("node", ArgValue::from(self.nodes[node].name.as_str())),
                ("object", ArgValue::from(object.as_str())),
            ],
        );
        false
    }

    /// Objects currently stored on a node.
    pub fn objects_on(&self, id: NodeId) -> usize {
        self.nodes[id.0].objects.len()
    }

    /// Bytes currently occupying a node's storage bins (mandatory plus
    /// voluntary). Summed across nodes this is the deployment's physical
    /// footprint — the numerator of the storage-overhead experiments.
    pub fn stored_bytes(&self, id: NodeId) -> u64 {
        let bins = &self.nodes[id.0].bins;
        bins.used_bytes(Bin::Mandatory) + bins.used_bytes(Bin::Voluntary)
    }

    /// How many objects the repair daemon's scans have visited in total.
    /// Peer-failure scans are proportional to the dead peer's holdings,
    /// not the deployment's object count; tests assert that narrowing
    /// here.
    pub fn repair_scan_visits(&self) -> u64 {
        self.replicas.repair_scan_visits
    }

    /// How many objects the adaptive pass has reviewed in total. An object
    /// is reviewed once per event that touches it (its store, a fetch, a
    /// holder's crash or return) and then every pass only while it is warm
    /// or has placement work outstanding — not once per pass for as long
    /// as it exists; tests assert that here.
    pub fn adaptive_review_visits(&self) -> u64 {
        self.replicas.adaptive_review_visits
    }

    /// The flow engine's own counts. `derives` is its passes over its flows
    /// (one per flow start, cancel, topology change or internal instant
    /// reached, none for a clock move that reaches no such instant —
    /// however often a driver polls); `solves` of those ran the max-min
    /// solve, at a cost of `candidates` evaluations.
    pub fn flow_counters(&self) -> FlowCounters {
        self.net.counters()
    }

    /// How many events the loop has processed since construction.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Bandwidth samples observed for transfers from a node's address.
    /// Zero for an untrained (or crash-reset) peer, whose estimate sits
    /// at the prior.
    pub fn peer_bw_samples(&self, id: NodeId) -> u64 {
        self.peer_bw.samples(self.nodes[id.0].addr.raw())
    }

    /// Whether `name` is currently stored as erasure-coded stripes
    /// rather than full copies.
    pub fn is_erasure_coded(&self, name: &str) -> bool {
        Sym::lookup(name)
            .and_then(|sym| self.replicas.get(sym))
            .is_some_and(|meta| meta.ec.is_some())
    }

    /// The stripe holders of an erasure-coded object, in code-row order
    /// (empty when `name` is not erasure-coded or unknown).
    pub fn stripe_holders(&self, name: &str) -> Vec<NodeId> {
        Sym::lookup(name)
            .and_then(|sym| self.replicas.get(sym))
            .and_then(|meta| meta.ec.as_ref())
            .map(|layout| {
                layout
                    .holders
                    .iter()
                    .filter_map(|&key| self.node_index(key).map(NodeId))
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Live nodes currently holding a full copy of `name`'s bytes (the
    /// home primary plus replicas), per the repair daemon's index.
    pub fn live_copies(&self, name: &str) -> usize {
        let Some(name) = Sym::lookup(name) else {
            return 0;
        };
        let Some(meta) = self.replicas.get(name) else {
            return 0;
        };
        let mut holders = Vec::new();
        self.live_holders_into(meta, &mut holders);
        holders.retain(|&j| self.nodes[j].objects.contains_key(&name));
        holders.len()
    }

    /// Whether a node is currently up (not crashed by a fault plan).
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range id.
    pub fn node_alive(&self, id: NodeId) -> bool {
        self.nodes[id.0].alive
    }

    /// Total DHT lookup hops across nodes (for overlay statistics).
    pub fn dht_lookup_hops(&self) -> u64 {
        self.nodes
            .iter()
            .map(|n| n.chimera.stats().lookup_hops)
            .sum()
    }

    /// Aggregate metadata-cache hit/miss counters across nodes.
    pub fn cache_stats(&self) -> (u64, u64) {
        self.nodes
            .iter()
            .map(|n| n.chimera.cache_stats())
            .fold((0, 0), |(h, m), (nh, nm)| (h + nh, m + nm))
    }

    /// Scales the WAN's per-flow bandwidth availability (1.0 = nominal) to
    /// model changing network conditions — the paper's open issue (iv):
    /// "mechanisms that adapt to the changing network conditions".
    ///
    /// New transfers and the decision engine's movement estimates see the
    /// change immediately; flows already in flight keep the conditions they
    /// sampled at start.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 < factor <= 1.0` (flows can never exceed the
    /// nominal TCP caps).
    pub fn set_wan_quality(&mut self, factor: f64) {
        assert!(
            factor > 0.0 && factor <= 1.0,
            "WAN quality factor must be in (0, 1]"
        );
        let nominal = presets::wan_bandwidth_median();
        for (src, dst) in self.net.topology().route_pairs() {
            let is_wan = {
                let route = self.net.topology().route(src, dst).expect("pair listed");
                // WAN routes are the ones with variability configured.
                route.bandwidth_sigma > 0.0
            };
            if is_wan {
                let route = self
                    .net
                    .topology_mut()
                    .route_mut(src, dst)
                    .expect("pair listed");
                route.bandwidth_median = nominal * factor;
            }
        }
    }

    // ------------------------------------------------------------------
    // Churn API
    // ------------------------------------------------------------------

    /// The one place a node's liveness flips. Every object the node holds
    /// just lost or regained a live copy, so each goes back to both
    /// periodic passes.
    fn set_alive(&mut self, i: usize, alive: bool) {
        self.nodes[i].alive = alive;
        self.replicas.holder_flipped(self.nodes[i].key);
    }

    /// Crashes a node: it stops responding, transfers it was part of abort
    /// (the waiting operations fail over to surviving replicas where they
    /// can), and its unreplicated state is lost until failure detection
    /// recovers what replicas hold.
    pub fn crash_node(&mut self, id: NodeId) {
        self.set_alive(id.0, false);
        let addr = self.nodes[id.0].addr;
        let name = self.nodes[id.0].name_sym;
        let args = vec![
            ("node", ArgValue::from(name.as_str())),
            ("addr", ArgValue::from(addr.raw())),
        ];
        self.note_fault("fault.crash", args, || format!("crash {name}"));
        let why = format!("transfer peer {} crashed", self.nodes[id.0].name);
        self.abort_flows(|src, dst| src == addr || dst == addr, &why);
        // A rejoined instance starts cold: bandwidth observed before the
        // crash says nothing about the machine that comes back, so the
        // EWMA entry reverts to the prior instead of ranking the ghost.
        self.peer_bw.reset(addr.raw());
        self.ensure_tick();
    }

    /// Cancels every in-flight bulk transfer whose endpoints satisfy `cut`,
    /// rerouting the operations that were waiting on them. A background
    /// job that loses a leg aborts whole once the cut is made (see
    /// [`Self::job_abort`]): a repair is dropped (the daemon retries on
    /// the next failure notification or anti-entropy sweep), a severed
    /// fan-out straggler or row rebuild routes its object straight back
    /// into the repair daemon, a conversion leaves the full copies as they
    /// were.
    pub(crate) fn abort_flows(&mut self, cut: impl Fn(Addr, Addr) -> bool, why: &str) {
        let mut severed = Vec::new();
        for flow in self.flows.cut(cut) {
            // Rerouting an earlier flow's operation may already have
            // canceled this one; `None` then, and nothing left to do.
            match self.cancel_flow(flow) {
                Some(FlowOwner::Op(op)) => self.transfer_failed(op, flow, why),
                Some(FlowOwner::Job(id)) => {
                    self.job_leg_severed(flow, id);
                    severed.push(id);
                }
                None => {}
            }
        }
        self.abort_severed_jobs(severed);
    }

    /// Cancels one in-flight transfer and releases its table entry,
    /// yielding whoever owned it. `None` if it already completed or was
    /// canceled.
    pub(crate) fn cancel_flow(&mut self, flow: FlowId) -> Option<FlowOwner> {
        self.net.cancel(flow);
        self.flows.remove(flow)
    }

    /// Gracefully removes a node: it redistributes its DHT records and
    /// announces departure before going offline.
    pub fn leave_node(&mut self, id: NodeId) {
        let now = self.now();
        self.overlay_mut(id.0).leave(now);
        self.pump();
        self.set_alive(id.0, false);
        self.publish_service_records();
    }

    /// Rejoins a previously crashed or departed node through a live peer.
    ///
    /// # Errors
    ///
    /// Returns [`ChurnError::NoLiveSeed`] (leaving the node down) when no
    /// live, joined peer exists to bootstrap through.
    pub fn rejoin_node(&mut self, id: NodeId) -> Result<(), ChurnError> {
        let seed = self
            .nodes
            .iter()
            .position(|n| n.alive && n.chimera.is_joined())
            .ok_or(ChurnError::NoLiveSeed)?;
        let seed_key = self.nodes[seed].key;
        self.set_alive(id.0, true);
        // The peer is back: let the repair daemon react afresh if it fails
        // again later.
        let key = self.nodes[id.0].key;
        self.repaired_peers.remove(&key);
        let name = self.nodes[id.0].name_sym;
        let args = vec![("node", ArgValue::from(name.as_str()))];
        self.note_fault("fault.rejoin", args, || format!("rejoin {name}"));
        let now = self.now();
        self.overlay_mut(id.0).join_via(seed_key, now);
        self.run_for(Duration::from_secs(2));
        self.publish_service_records();
        self.publish_resources(id.0);
        Ok(())
    }

    // ------------------------------------------------------------------
    // Event loop
    // ------------------------------------------------------------------

    /// Ensures the periodic tick chain is armed.
    pub(crate) fn ensure_tick(&mut self) {
        if !self.tick_armed {
            self.tick_armed = true;
            self.queue.schedule_in(TICK_PERIOD, Event::Tick);
        }
        self.ensure_health();
    }

    /// Ensures the health plane's gauge-sample chain is armed, if the
    /// sampler is configured and recording is on.
    pub(crate) fn ensure_health(&mut self) {
        if !self.health.armed && !self.health.sample_period.is_zero() && self.telemetry.enabled() {
            self.health.armed = true;
            self.queue
                .schedule_in(self.health.sample_period, Event::HealthSample);
        }
    }

    /// Runs the simulation for a fixed span of virtual time.
    pub fn run_for(&mut self, d: Duration) {
        let target = self.now() + d;
        self.tick_horizon = self.tick_horizon.max(target);
        self.ensure_tick();
        while self.next_time().is_some_and(|t| t <= target) {
            self.step();
        }
        if self.now() < target {
            // Nothing is due by the horizon: both clocks just move.
            self.queue.advance_to(target);
            self.drain_net(target);
        }
    }

    /// Advances the flow engine to `to` and reaps every completion that
    /// surfaces, at the queue's current instant.
    fn drain_net(&mut self, to: SimTime) {
        let mut events = std::mem::take(&mut self.flow_scratch);
        self.net.advance_into(to, &mut events);
        for &FlowEvent::Completed { flow, .. } in &events {
            self.reap_flow(flow);
        }
        self.flow_scratch = events;
    }

    /// Routes one completed flow to its owner. A flow nobody owns
    /// (canceled between completion and routing) is inert.
    fn reap_flow(&mut self, flow: FlowId) {
        match self.flows.remove(flow) {
            Some(FlowOwner::Op(op)) => self.op_continue(op, OpInput::FlowDone { flow }),
            Some(FlowOwner::Job(id)) => self.job_flow_done(flow, id),
            None => {}
        }
    }

    /// Runs until the given operation completes, returning its report.
    ///
    /// Other in-flight operations keep progressing concurrently.
    ///
    /// # Panics
    ///
    /// Panics if the simulation runs out of events before the operation
    /// completes (a runtime bug) or the id is unknown.
    pub fn run_until_complete(&mut self, op: OpId) -> OpReport {
        assert!(
            self.reports.contains_key(&op) || self.ops.contains_key(&op),
            "unknown operation {op}"
        );
        loop {
            if let Some(r) = self.reports.get(&op) {
                return r.clone();
            }
            self.ensure_tick();
            assert!(self.step(), "simulation stalled while {op} pending");
        }
    }

    /// Runs until no operations remain in flight and every background
    /// transfer (detached store fan-out stragglers, repair re-replication)
    /// has landed.
    pub fn run_until_idle(&mut self) {
        while !self.ops.is_empty() || self.flows.background() > 0 {
            debug_assert_eq!(
                self.jobs.is_empty(),
                self.flows.background() == 0,
                "every background flow is a leg of a job, every job has a leg"
            );
            self.ensure_tick();
            assert!(self.step(), "simulation stalled with operations pending");
        }
        // Flush a final gauge sample at quiescence so the series always
        // ends with the settled state, even off the sampling cadence.
        if self.telemetry.enabled()
            && !self.health.sample_period.is_zero()
            && self.health.last_sample != Some(self.now())
        {
            self.sample_health();
        }
    }

    /// Takes a completed report, if present.
    pub fn take_report(&mut self, op: OpId) -> Option<OpReport> {
        self.reports.remove(&op)
    }

    /// The earliest pending instant across the queue and the flow network.
    fn next_time(&mut self) -> Option<SimTime> {
        match (self.queue.peek_time(), self.net.next_event()) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Advances the simulation by one event. Returns `false` when idle.
    pub(crate) fn step(&mut self) -> bool {
        // Route passive-layer metrics (kvstore codec, service kernels) to
        // this deployment's recorder for the duration of the step.
        let _dispatch = c4h_telemetry::install(&self.telemetry);
        self.pump();
        let qt = self.queue.peek_time();
        let nt = self.net.next_event();
        let t = match (qt, nt) {
            (None, None) => return false,
            (Some(a), Some(b)) => a.min(b),
            (Some(a), None) => a,
            (None, Some(b)) => b,
        };
        if nt == Some(t) {
            self.queue.advance_to(t);
            self.drain_net(t);
        } else {
            // No completion is due before `nt`: this only moves the flow
            // engine's clock, so that what dispatch reads from it or starts
            // on it is at `t`.
            self.drain_net(t);
            let (_, event) = self.queue.pop().expect("queue has an event at t");
            self.dispatch(event);
        }
        self.pump();
        self.steps += 1;
        true
    }

    fn dispatch(&mut self, event: Event) {
        match event {
            Event::Deliver { to, env } => {
                if self.nodes[to].alive {
                    let now = self.now();
                    self.stats.envelopes_delivered += 1;
                    self.overlay_mut(to).handle(env, now);
                }
            }
            Event::Tick => {
                self.tick_armed = false;
                let now = self.now();
                if self.telemetry.enabled() {
                    // Queue depths sampled on event boundaries: every tick
                    // is one deterministic sample point.
                    self.telemetry
                        .observe("runtime.queue_depth", self.queue.len() as u64);
                    self.telemetry
                        .observe("runtime.ops_inflight", self.ops.len() as u64);
                    self.telemetry
                        .observe("runtime.flows_inflight", self.flows.len() as u64);
                }
                for i in 0..self.nodes.len() {
                    if self.nodes[i].alive {
                        self.overlay_mut(i).tick(now);
                        if self.nodes[i].monitor.due(now) {
                            self.publish_resources(i);
                        }
                    }
                }
                self.anti_entropy_sweep(now);
                self.adaptive_pass(now);
                if !self.ops.is_empty() || self.now() < self.tick_horizon {
                    self.ensure_tick();
                }
            }
            Event::OpWake { op } => self.op_continue(op, OpInput::Wake),
            Event::OpSubWake { op, token } => self.op_continue(op, OpInput::SubWake { token }),
            Event::DhtDone { op, ev } => self.op_continue(op, OpInput::Dht(ev)),
            Event::Fault(ev) => self.apply_fault(ev),
            Event::HealthSample => {
                self.health.armed = false;
                if self.telemetry.enabled() && !self.health.sample_period.is_zero() {
                    self.sample_health();
                    // Re-arm directly (not via ensure_health) so the cadence
                    // stays exactly periodic while work remains.
                    if !self.ops.is_empty() || self.now() < self.tick_horizon {
                        self.health.armed = true;
                        self.queue
                            .schedule_in(self.health.sample_period, Event::HealthSample);
                    }
                }
            }
        }
    }

    /// Records one gauge sample row: runtime queue depths, per-link
    /// utilization, and per-node resource/overlay gauges. Read-only with
    /// respect to simulation state and draws no randomness, so enabling the
    /// sampler cannot perturb event timing or the RNG stream. Names come
    /// from the health plane's table (formatted once, shared with the
    /// flight ring) and the row reaches the recorder in one call.
    pub(crate) fn sample_health(&mut self) {
        let now = self.now();
        self.health.last_sample = Some(now);
        let ts = now.as_nanos();
        let names = &mut self.health.gauge_names;
        let mut row: Vec<(Arc<str>, i64)> = Vec::with_capacity(names.len());
        let mut put = |name: Arc<str>, value: i64| row.push((name, value));
        put(names.plain("runtime.queue_depth"), self.queue.len() as i64);
        put(names.plain("runtime.ops_inflight"), self.ops.len() as i64);
        put(
            names.plain("runtime.flows_inflight"),
            self.flows.op_owned() as i64,
        );
        put(
            names.plain("runtime.background_jobs"),
            self.flows.background() as i64,
        );
        for (i, load) in self.net.segment_loads().iter().enumerate() {
            put(
                names.of("net.", i, &load.name, ".util_permille"),
                load.util_permille() as i64,
            );
            put(names.of("net.", i, &load.name, ".flows"), load.flows as i64);
        }
        for (i, n) in self.nodes.iter().enumerate().filter(|(_, n)| n.alive) {
            let peek = n.sampler.peek();
            put(
                names.of("node.", i, &n.name, ".cpu_milli"),
                (peek.cpu_load * 1000.0).round() as i64,
            );
            put(
                names.of("node.", i, &n.name, ".mem_free_mib"),
                peek.mem_free_mib as i64,
            );
            put(
                names.of("node.", i, &n.name, ".disk_used_bytes"),
                (n.bins.used_bytes(Bin::Mandatory) + n.bins.used_bytes(Bin::Voluntary)) as i64,
            );
            put(
                names.of("node.", i, &n.name, ".dht_table"),
                n.chimera.routing_table_size() as i64,
            );
            let (hits, misses) = n.chimera.cache_stats();
            let permille = (hits * 1000).checked_div(hits + misses).unwrap_or(0);
            put(
                names.of("node.", i, &n.name, ".cache_hit_permille"),
                permille as i64,
            );
        }
        if self.overload.enabled {
            put(
                names.plain("overload.shed_permille"),
                i64::from(self.overload.shed_permille()),
            );
            put(
                names.plain("overload.breakers_open"),
                self.overload.breakers_open() as i64,
            );
            put(
                names.plain("overload.tenants_inflight"),
                self.overload.inflight() as i64,
            );
        }
        if self.ledger.enabled() {
            // Engine introspection rides the same cadence but only when the
            // causal ledger is on, so default-config gauge output (and with
            // it the golden corpus) stays byte-identical.
            let qs = self.queue.stats();
            put(names.plain("engine.wheel.len"), qs.len as i64);
            put(names.plain("engine.wheel.ready"), qs.ready as i64);
            put(names.plain("engine.wheel.cascades"), qs.cascades as i64);
            put(
                names.plain("engine.wheel.cascaded_slots"),
                qs.cascaded_slots as i64,
            );
            for (lvl, occ) in qs.level_occupancy.iter().enumerate() {
                put(
                    names.of("engine.wheel.l", lvl, lvl, "_occupied"),
                    i64::from(*occ),
                );
            }
            put(names.plain("engine.slab.cells"), qs.slab_cells as i64);
            put(names.plain("engine.slab.free"), qs.free_cells as i64);
            put(names.plain("engine.spare.buckets"), qs.spare_buckets as i64);
            put(
                names.plain("engine.spare.capacity"),
                qs.spare_capacity as i64,
            );
            put(
                names.plain("engine.intern.count"),
                Sym::interned_count() as i64,
            );
            let fc = self.net.counters();
            put(names.plain("engine.flows.started"), fc.started as i64);
            put(names.plain("engine.flows.completed"), fc.completed as i64);
            put(names.plain("engine.flows.canceled"), fc.canceled as i64);
            put(
                names.plain("engine.flows.inflight"),
                self.net.in_flight() as i64,
            );
            put(
                names.plain("engine.ledger.rings"),
                self.ledger.rings_live() as i64,
            );
            put(
                names.plain("engine.ledger.recorded"),
                self.ledger.recorded() as i64,
            );
            put(
                names.plain("engine.ledger.dropped"),
                self.ledger.dropped() as i64,
            );
            if self.overload.enabled {
                for (kind, tokens) in self.overload.admit_token_rows() {
                    // Keyed by the kind itself: the set of kinds can grow.
                    put(
                        names.of("overload.admit_tokens.", 0, "", kind),
                        tokens as i64,
                    );
                }
            }
        }
        // Names are distinct, so the unstable sort (which does not
        // allocate) orders the row exactly as a stable one would.
        row.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        self.telemetry.gauge_row(ts, &row);
        self.health.flight.note_gauges(ts, row);
    }

    /// The one way the runtime reaches a node's overlay mutably. Any such
    /// call (`handle`, `tick`, `get`/`put`/`delete`, `join_via`, `leave`,
    /// `bootstrap`) may leave envelopes or events behind, so the node goes
    /// on `pump`'s worklist. Marking a node that ends up with nothing to
    /// send costs one empty poll; a node with output and no mark would be
    /// a hung request, which `pump`'s exit assertion catches.
    fn overlay_mut(&mut self, i: usize) -> &mut ChimeraNode {
        self.transport.mark(i);
        &mut self.nodes[i].chimera
    }

    // ------------------------------------------------------------------
    // Shared helpers used by the op state machines
    // ------------------------------------------------------------------

    /// Allocates the next operation id.
    pub(crate) fn alloc_op(&mut self) -> OpId {
        let id = OpId(self.next_op);
        self.next_op += 1;
        id
    }

    /// The chunking policy for a transfer of `bytes`, from the configured
    /// knobs: `None` leaves the transfer monolithic.
    pub(crate) fn chunk_spec(&self, bytes: u64) -> Option<ChunkSpec> {
        if self.config.chunk_bytes == 0 || bytes <= self.config.chunk_bytes {
            return None;
        }
        Some(ChunkSpec {
            chunk_bytes: self.config.chunk_bytes,
            window: self.config.chunk_window.max(2),
        })
    }

    /// Starts a bulk transfer (chunked when configured and large enough)
    /// and parks the operation on its completion. Returns the logical flow
    /// id so callers tracking several concurrent transfers can tell their
    /// completions apart.
    pub(crate) fn start_flow_for_op(
        &mut self,
        op: OpId,
        src: Addr,
        dst: Addr,
        bytes: u64,
    ) -> FlowId {
        let chunking = self.chunk_spec(bytes);
        if chunking.is_some() {
            self.stats.chunked_transfers += 1;
        }
        self.start_flow(FlowOwner::Op(op), src, dst, bytes, chunking)
            .expect("routes exist between all configured sites")
    }

    /// Starts a bulk transfer owned by `owner` and enters it in the
    /// ownership table. The one place transfers begin; `step` and `run_for`
    /// keep the flow engine's clock on the queue's.
    pub(crate) fn start_flow(
        &mut self,
        owner: FlowOwner,
        src: Addr,
        dst: Addr,
        bytes: u64,
        chunking: Option<ChunkSpec>,
    ) -> Result<FlowId, NetError> {
        let now = self.now();
        debug_assert_eq!(self.net.now(), now, "flow engine fell behind the queue");
        let flow = self
            .net
            .start_transfer(now, src, dst, bytes, chunking, &mut self.rng)?;
        self.stats.flows_started += 1;
        self.flows.insert(flow, src, dst, owner);
        Ok(flow)
    }

    /// Issues a DHT get from node `i` on behalf of an operation.
    pub(crate) fn dht_get_for_op(&mut self, op: OpId, i: usize, key: Key) {
        let now = self.now();
        let req = self.overlay_mut(i).get(key, now).expect("node is joined");
        self.dht_waiters.insert((i, req), DhtWaiter::Op(op));
    }

    /// Issues a DHT put from node `i` on behalf of an operation.
    pub(crate) fn dht_put_for_op(&mut self, op: OpId, i: usize, key: Key, value: Vec<u8>) {
        let now = self.now();
        let req = self
            .overlay_mut(i)
            .put(key, value, OverwritePolicy::Overwrite, now)
            .expect("node is joined");
        self.dht_waiters.insert((i, req), DhtWaiter::Op(op));
    }

    /// Issues a chained DHT put (the `Chain` overwrite policy) from node
    /// `i` on behalf of an operation — used for directory entry chains.
    pub(crate) fn dht_chain_for_op(&mut self, op: OpId, i: usize, key: Key, value: Vec<u8>) {
        let now = self.now();
        let req = self
            .overlay_mut(i)
            .put(key, value, OverwritePolicy::Chain, now)
            .expect("node is joined");
        self.dht_waiters.insert((i, req), DhtWaiter::Op(op));
    }

    /// Issues a DHT delete from node `i` on behalf of an operation.
    pub(crate) fn dht_delete_for_op(&mut self, op: OpId, i: usize, key: Key) {
        let now = self.now();
        let req = self
            .overlay_mut(i)
            .delete(key, now)
            .expect("node is joined");
        self.dht_waiters.insert((i, req), DhtWaiter::Op(op));
    }

    /// Schedules an operation wake after `delay`.
    pub(crate) fn wake_in(&mut self, op: OpId, delay: Duration) {
        self.queue.schedule_in(delay, Event::OpWake { op });
    }

    /// Schedules a sub-task wake (one concurrent branch of an operation)
    /// after `delay`.
    pub(crate) fn wake_sub_in(&mut self, op: OpId, token: u64, delay: Duration) {
        self.queue
            .schedule_in(delay, Event::OpSubWake { op, token });
    }

    /// Analytic single-flow transfer estimate between two endpoints,
    /// used by the decision engine for movement costs.
    pub(crate) fn estimate_transfer(&self, src: Addr, dst: Addr, bytes: u64) -> Duration {
        if src == dst {
            return Duration::ZERO;
        }
        match self.net.topology().route_between(src, dst) {
            Some(route) => {
                let bottleneck = self
                    .net
                    .topology()
                    .bottleneck_bps(src, dst)
                    .unwrap_or(f64::INFINITY);
                match self.chunk_spec(bytes) {
                    Some(spec) => route.tcp.chunked_transfer_time(
                        bytes,
                        spec.chunk_bytes,
                        spec.window,
                        bottleneck,
                        route.bandwidth_median,
                    ),
                    None => route
                        .tcp
                        .transfer_time(bytes, bottleneck, route.bandwidth_median),
                }
            }
            None => Duration::from_secs(3600),
        }
    }

    /// Looks up the node index for an overlay key.
    pub(crate) fn node_index(&self, key: Key) -> Option<usize> {
        self.node_of_key.get(&key).copied()
    }

    /// Decodes the freshest resource record bytes into a typed record.
    pub(crate) fn decode_resource(bytes: &[u8]) -> Option<ResourceRecord> {
        Record::decode(bytes)
            .ok()
            .and_then(|r| r.as_resource().cloned())
    }

    /// Best-effort background publish of an object metadata record from
    /// node `i` (result dropped; callers don't wait).
    pub(crate) fn publish_meta_background(&mut self, i: usize, meta: ObjectMeta) {
        self.publish_background(i, object_key(meta.name.as_str()), Record::Object(meta));
    }

    /// Drops any cached copy of `name`'s metadata record on every node.
    /// Placement changes rewrite the record at its root, but bounded FIFO
    /// caches on nodes off the republish path would otherwise serve the
    /// stale pre-change record forever.
    pub(crate) fn invalidate_meta_caches(&mut self, name: Sym) {
        let key = object_key(name.as_str());
        for n in &mut self.nodes {
            // Dropping a cache entry sends nothing: no worklist mark.
            n.chimera.invalidate_cached(key);
        }
    }
}

#[cfg(test)]
mod step_order_tests {
    //! Pins the two orderings [`Cloud4Home::step`] keeps between the flow
    //! engine and the event queue (DESIGN.md §12):
    //!
    //! * **The net wins a same-instant tie.** When a flow completion and a
    //!   queued event land on the identical virtual nanosecond, the
    //!   completion is reaped *first* and the queue event is delivered after
    //!   it, within the same instant: `step` takes the net branch whenever
    //!   `net_t <= queue_t`.
    //! * **A completion is never processed after a queue event of a strictly
    //!   earlier instant.** The instant `FlowNet::next_event` announces is
    //!   the instant the flow lands, so a clock move short of it (the queue
    //!   branch's, `run_for`'s horizon) surfaces nothing, and `step` always
    //!   picks the earlier of the two.

    use super::*;

    /// Discovers the completion instant of a raw flow via a twin run, then
    /// schedules an inert queue event at exactly that instant and asserts
    /// the step at the tie reaps the network completion while the queue
    /// event stays pending.
    #[test]
    fn net_completion_wins_same_instant_tie_against_queue_event() {
        let config = Config::paper_testbed(9);
        let bytes = 256 << 10;

        // Twin run: learn the exact completion instant. Drain the
        // construction-time overlay join traffic first so the raw flow is
        // the only thing in flight (the drain consumes rng identically in
        // both runs, keeping them in lockstep).
        let mut twin = Cloud4Home::new(config.clone());
        while twin.step() {}
        let (src, dst) = (twin.nodes[0].addr, twin.nodes[1].addr);
        let now = twin.now();
        let flow = twin
            .net
            .start_flow(now, src, dst, bytes, &mut twin.rng)
            .expect("route exists");
        let mut events = Vec::new();
        let done_at = loop {
            let t = twin.net.next_event().expect("flow must complete");
            twin.net.advance_into(t, &mut events);
            if events
                .iter()
                .any(|FlowEvent::Completed { flow: f, .. }| *f == flow)
            {
                break t;
            }
        };

        // Main run: identical flow, plus a queue event at the completion
        // instant. A wake for an operation that does not exist is inert, so
        // it observes ordering without perturbing state.
        let mut home = Cloud4Home::new(config);
        while home.step() {}
        let now = home.now();
        let flow = home
            .net
            .start_flow(now, src, dst, bytes, &mut home.rng)
            .expect("route exists");
        let nobody = OpId(u64::MAX);
        home.queue
            .schedule_at(done_at, Event::OpWake { op: nobody });

        // Drain the flow engine's internal rate-change instants, all
        // strictly before the completion; the marker must stay pending.
        while home.net.next_event().is_some_and(|t| t < done_at) {
            assert!(home.step());
            assert_eq!(home.queue.peek_time(), Some(done_at));
        }
        assert_eq!(home.net.next_event(), Some(done_at), "twin diverged");
        assert_eq!(home.queue.peek_time(), Some(done_at));
        assert!(home.net.progress(flow).is_some());

        // The tie step: net completion reaped, queue event still pending,
        // clock parked on the shared instant.
        assert!(home.step());
        assert_eq!(home.now(), done_at);
        assert!(
            home.net.progress(flow).is_none(),
            "the step at the tie must consume the flow completion"
        );
        assert_eq!(
            home.queue.peek_time(),
            Some(done_at),
            "the same-instant queue event must be delivered after the completion"
        );
        assert_eq!(home.queue.len(), 1);

        // The queue event drains at the same instant; nothing remains.
        assert!(home.step());
        assert_eq!(home.now(), done_at);
        assert!(home.queue.is_empty());
        assert_eq!(home.net.next_event(), None);
    }
}
