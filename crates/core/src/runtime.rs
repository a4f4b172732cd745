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

use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Duration;

use c4h_chimera::{ChimeraNode, DhtEvent, Envelope, Key, OverwritePolicy, ReqId};
use c4h_cloud::S3Store;
use c4h_kvstore::{
    node_resource_key, object_key, service_key, ObjectMeta, Record, ServiceRecord, WireError,
};
use c4h_resources::{Bin, BinWatcher, ResourceMonitor, ResourceSampler, SamplerConfig};
use c4h_services::{
    Compress, FaceDetect, FaceRecognize, Service, ServiceOutput, ServiceRegistry, TrainingSet,
    Transcode,
};
use c4h_simnet::{
    presets, Addr, ChunkSpec, DetRng, EventQueue, FlowCounters, FlowEvent, FlowId, FlowNet,
    FxHashMap, NetError, QueueStats, SimTime, Sym, SymMap,
};
use c4h_telemetry::{ArgValue, CauseKind, GaugeId, LedgerEvent, OpLedger, Recorder, LEDGER_NONE};
use c4h_vmm::DiskModel;

use crate::adaptive::{ObjectHeat, PeerBandwidth};
use crate::background::{EcRegistry, Jobs};
use crate::config::{Config, NodeId, ServiceKind};
use crate::fault::FaultEvent;
use crate::health::{node_gauges, HealthPlane};
use crate::object::{synth_bytes, Blob};
use crate::ops::{OpInput, OpTable};
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
    /// The node's health gauges, registered the first time it is sampled
    /// (see [`node_gauges`]).
    pub(crate) gauges: Option<[GaugeId; 5]>,
}

/// The remote public cloud's runtime state.
#[derive(Debug)]
pub(crate) struct CloudRt {
    pub(crate) addr: Addr,
    pub(crate) bucket: Sym,
    pub(crate) s3: S3Store<Blob>,
    pub(crate) registry: ServiceRegistry,
    pub(crate) active_tasks: u32,
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

/// Declares [`RunStats`] and, from the same field list, the counter each
/// field is mirrored into: `stats.<field>`.
macro_rules! run_stats {
    ($($(#[$doc:meta])* $field:ident,)*) => {
        /// Aggregate runtime statistics.
        #[derive(Debug, Clone, Copy, Default)]
        pub struct RunStats {
            $($(#[$doc])* pub $field: u64,)*
        }

        impl RunStats {
            /// Each field under its counter name, in declaration order.
            fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> {
                [$((concat!("stats.", stringify!($field)), self.$field),)*].into_iter()
            }
        }
    };
}

run_stats! {
    /// Completed operations.
    ops_completed,
    /// Bulk transfer flows started.
    flows_started,
    /// Overlay envelopes delivered.
    envelopes_delivered,
    /// Overlay envelopes dropped by loss models or partitions.
    envelopes_dropped,
    /// DHT requests reissued after a timeout.
    dht_retries,
    /// Fetches redirected to another live replica holder.
    fetch_failovers,
    /// Process operations re-dispatched after an executor failure.
    proc_redispatches,
    /// Peer data replicas written during stores and repairs.
    replicas_written,
    /// Background re-replication transfers started.
    repairs_started,
    /// Background re-replication transfers completed and installed.
    repairs_completed,
    /// Stores that placed fewer replica copies than `replication` asked
    /// for because too few live peers were available.
    partial_replication,
    /// Bulk transfers that were split into pipelined chunks.
    chunked_transfers,
    /// Stores whose metadata was published at quorum, before every replica
    /// flow finished (the stragglers detach and land in the background).
    quorum_publishes,
    /// Fetches that split the read into concurrent stripes pulled from
    /// several holders (or parallel cloud range reads).
    striped_fetches,
    /// Tail stripes re-issued from a second holder because the original
    /// source's ETA exceeded the hedging threshold.
    hedged_fetches,
    /// Metadata lookups answered from a node-local cache instead of a
    /// remote overlay request.
    cache_answers,
    /// Metadata-cache hits across all nodes.
    cache_hits,
    /// Metadata-cache misses across all nodes.
    cache_misses,
    /// Operations rejected at admission by the overload plane
    /// (`OpError::Overloaded` fast-fails).
    ops_shed,
    /// Retries (DHT reissues, fetch backoff waits, repair starts) denied
    /// because a node's retry budget was exhausted.
    retry_budget_denied,
    /// Circuit-breaker trips (closed/half-open → open transitions).
    breaker_trips,
    /// Transfer attempts skipped because the path's breaker was open.
    breaker_fast_fails,
    /// Aggregate critical-path nanoseconds on DHT/metadata work, across
    /// completed ops (collected only while tracing is enabled).
    crit_dht_ns,
    /// Aggregate critical-path nanoseconds on local disk I/O.
    crit_disk_ns,
    /// Aggregate critical-path nanoseconds on home-network transfers.
    crit_lan_ns,
    /// Aggregate critical-path nanoseconds on WAN/cloud transfers.
    crit_wan_ns,
    /// Aggregate critical-path nanoseconds executing services.
    crit_service_ns,
    /// Aggregate critical-path nanoseconds in retry back-off.
    crit_backoff_ns,
    /// Aggregate critical-path nanoseconds of queueing/control remainder.
    crit_other_ns,
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
    /// Op ids, the ops in flight and the completed reports (see
    /// [`OpTable`]).
    pub(crate) ops: OpTable,
    /// The op waiting on each DHT request a node issued for it. Background
    /// publishes wait for nothing and have no entry.
    pub(crate) dht_waiters: FxHashMap<(usize, ReqId), OpId>,
    /// Every in-flight bulk transfer with its endpoints and its one
    /// accountable owner (see [`crate::transfers`]).
    pub(crate) flows: FlowTable,
    /// The background jobs those flows belong to when no operation owns
    /// them (see [`crate::background`]).
    pub(crate) jobs: Jobs,
    pub(crate) stats: RunStats,
    /// Link conditions between overlay nodes and `pump`'s worklist (see
    /// [`crate::transport`]).
    pub(crate) transport: Transport,
    /// Metadata of replicated home objects with its inverse holder index,
    /// and the names the anti-entropy sweep and the adaptive pass still
    /// have to look at (see [`crate::replicas`]).
    pub(crate) replicas: ReplicaIndex,
    chains: Chains,
    scratch: Scratch,
    /// Peers whose failure the repair daemon has already reacted to.
    pub(crate) repaired_peers: BTreeSet<Key>,
    /// Per-peer bandwidth estimates (keyed by raw address) learned from
    /// completed transfers; drives fetch source ranking and hedging.
    pub(crate) peer_bw: PeerBandwidth,
    /// Per-object fetch-heat tracker feeding the adaptive placement pass.
    /// Only populated when `config.adaptive.enabled`.
    pub(crate) object_heat: ObjectHeat,
    /// Stripe names and staged originals of erasure-coded objects (see
    /// [`EcRegistry`]).
    pub(crate) ec: EcRegistry,
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
}

/// The runtime's two periodic event chains, and the count of events the
/// loop has processed.
///
/// `Tick` drives overlay timers, resource publishing and the periodic
/// passes; `HealthSample` drives the gauge sampler. Each chain keeps at
/// most one event pending: arming schedules it, firing disarms it, and the
/// fired event re-arms its own chain only while [`Chains::go_on`] holds.
/// Anything that starts work arms both through
/// [`Cloud4Home::ensure_tick`], tick first; turning recording on arms the
/// sampler alone.
#[derive(Debug, Default)]
struct Chains {
    tick_armed: bool,
    sample_armed: bool,
    /// Gauge sampling cadence; zero disables the sampler.
    sample_period: Duration,
    /// When the latest gauge sample was taken.
    last_sample: Option<SimTime>,
    /// The furthest instant a `run_for` has been asked to reach.
    horizon: SimTime,
    /// Against the transport's node visits, the scale gate in
    /// `tests/world_scaling.rs`.
    steps: u64,
}

impl Chains {
    /// Whether a chain whose event just fired at `now` goes on: while an
    /// op is in flight, and until the first event at or past the horizon.
    fn go_on(&self, ops_in_flight: usize, now: SimTime) -> bool {
        ops_in_flight > 0 || now < self.horizon
    }

    /// Whether the gauge sampler runs: recording on and a cadence set.
    fn sampling(&self, recording: bool) -> bool {
        recording && !self.sample_period.is_zero()
    }
}

/// Reusable buffers for the loops that walk a snapshot while they mutate
/// the runtime: the flow completions `drain_net` reaps every step, the
/// names a periodic pass or a peer-failure scan visits (a snapshot,
/// because the work a visit starts re-marks its name), and the live
/// holders of the object one visit looks at. Each is lent out by
/// [`Cloud4Home::with_scratch`], so a loop allocates only while its buffer
/// grows.
#[derive(Debug, Default)]
struct Scratch {
    flow_events: Vec<FlowEvent>,
    names: Vec<Sym>,
    holders: Vec<usize>,
}

impl NodeRt {
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
            nodes.push(NodeRt {
                name: spec.name.clone(),
                name_sym: Sym::new(&spec.name),
                addr: Addr::new(i as u64),
                key,
                resource_key: node_resource_key(&key.to_string()),
                disk: DiskModel::for_platform(&spec.platform),
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
                gauges: None,
            });
        }
        for (i, n) in nodes.iter_mut().enumerate() {
            n.chimera
                .set_telemetry(telemetry.clone(), DHT_TRACK_BASE + i as u64);
        }

        let cloud = config.cloud.as_ref().map(|spec| {
            let mut s3 = S3Store::new();
            s3.create_bucket(&spec.bucket).expect("fresh bucket");
            CloudRt {
                addr: CLOUD_ADDR,
                bucket: Sym::new(&spec.bucket),
                s3,
                registry: build_registry(&spec.services),
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
            ops: OpTable::default(),
            dht_waiters: FxHashMap::default(),
            flows: FlowTable::default(),
            jobs: Jobs::default(),
            stats: RunStats::default(),
            transport: Transport::new(config.nodes.len()),
            replicas: ReplicaIndex::default(),
            chains: Chains {
                sample_period: Duration::from_millis(config.health_sample_ms),
                ..Chains::default()
            },
            scratch: Scratch::default(),
            repaired_peers: BTreeSet::new(),
            // Prior: the LAN's nominal per-flow TCP cap. Unseen peers all
            // rank equal, so candidate order matches the metadata until
            // real transfers are observed.
            peer_bw: PeerBandwidth::new(10.3e6, 0.3),
            object_heat: ObjectHeat::new(config.adaptive.heat_alpha),
            ec: EcRegistry::default(),
            telemetry,
            health: HealthPlane::new(&config),
            overload: OverloadPlane::new(&config),
            ledger: OpLedger::new(config.ledger_ring),
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
        for i in 0..self.nodes.len() {
            self.publish_resources(i);
        }
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
                name: Sym::new(kind.name()),
                service_id: kind.id(),
                providers,
                cloud_available,
                policy: "performance".into(),
            });
            self.publish_background(publisher, service_key(kind.name(), kind.id()), record);
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
        let (bytes, now) = (self.encode_record(&record), self.now());
        let _ = self
            .overlay_mut(i)
            .put(key, bytes, OverwritePolicy::Overwrite, now);
    }

    // The key-value store and the services are libraries the runtime
    // calls; it counts the calls it makes, one helper per counted call.

    /// Encodes `record` for the DHT, counting it in
    /// `kvstore.record_encodes` and its size in `kvstore.record_bytes`.
    pub(crate) fn encode_record(&self, record: &Record) -> Arc<[u8]> {
        let bytes = record.encode();
        self.telemetry.add("kvstore.record_encodes", 1);
        self.telemetry
            .observe("kvstore.record_bytes", bytes.len() as u64);
        bytes
    }

    /// Decodes DHT value bytes, counting the attempt in
    /// `kvstore.record_decodes`, malformed input included.
    pub(crate) fn decode_record(&self, bytes: &[u8]) -> Result<Record, WireError> {
        self.telemetry.add("kvstore.record_decodes", 1);
        Record::decode(bytes)
    }

    /// Runs a service kernel, counting it in `services.executions` and
    /// its bytes in `services.input_bytes` and `services.output_bytes`.
    pub(crate) fn run_service(&self, svc: &dyn Service, input: &[u8]) -> ServiceOutput {
        let out = svc.run(input);
        self.telemetry.add("services.executions", 1);
        self.telemetry
            .observe("services.input_bytes", input.len() as u64);
        self.telemetry
            .observe("services.output_bytes", out.data.len() as u64);
        out
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

    /// Turns trace/metric recording on or off at runtime. A span begun
    /// while enabled is still recorded when it ends after a disable; one
    /// begun while disabled is not recorded after an enable. Enabling also
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
    /// document. While recording is on, the aggregate [`RunStats`] are
    /// read into the counters under `stats.*`; the export stores nothing.
    /// Deterministic for a given seed and workload.
    pub fn metrics_json(&self) -> String {
        self.telemetry.metrics_json(self.stats().counters())
    }

    /// Serializes counters (with the `stats.*` view, as
    /// [`Cloud4Home::metrics_json`] writes them), the latest gauge values,
    /// and histograms in the Prometheus text exposition format (metric
    /// names prefixed `c4h_`). Deterministic for a given seed and workload.
    pub fn prometheus_text(&self) -> String {
        self.telemetry.prometheus_text(self.stats().counters())
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
    pub(crate) fn report_header(&self, what: &str) -> String {
        format!("{what} @ {} ms\n", self.now().as_nanos() / 1_000_000)
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

    /// The background plane's causal events — breaker trips, repair
    /// triggers, adaptive placement actions — in record order (bounded by
    /// the configured ring size). Empty while the ledger is off.
    pub fn background_ledger(&self) -> &[LedgerEvent] {
        self.ledger.chain(BACKGROUND_RING)
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
        self.chains.steps
    }

    /// The event queue's own counts (pops, clock advances) and its
    /// length now.
    pub fn queue_stats(&self) -> QueueStats {
        self.queue.stats()
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
            // WAN routes are the ones with variability configured.
            let route = self.net.topology().route(src, dst).expect("pair listed");
            if route.bandwidth_sigma > 0.0 {
                let route = self.net.topology_mut().route_mut(src, dst);
                route.expect("pair listed").bandwidth_median = nominal * factor;
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
        let args = [
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
        let args = [("node", ArgValue::from(name.as_str()))];
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

    /// Ensures the tick chain is armed, then the gauge-sample chain.
    pub(crate) fn ensure_tick(&mut self) {
        if !self.chains.tick_armed {
            self.chains.tick_armed = true;
            self.queue.schedule_in(TICK_PERIOD, Event::Tick);
        }
        self.ensure_health();
    }

    /// Ensures the gauge-sample chain is armed, if the sampler runs.
    fn ensure_health(&mut self) {
        let chains = &mut self.chains;
        if !chains.sample_armed && chains.sampling(self.telemetry.enabled()) {
            chains.sample_armed = true;
            self.queue
                .schedule_in(chains.sample_period, Event::HealthSample);
        }
    }

    /// Takes a gauge sample off the cadence, unless the sampler is off or
    /// one was taken at this instant already, so a report or a quiescent
    /// run ends on the settled state.
    pub(crate) fn flush_sample(&mut self) {
        let fresh = self.chains.last_sample == Some(self.now());
        if self.chains.sampling(self.telemetry.enabled()) && !fresh {
            self.sample_health();
        }
    }

    /// Runs the simulation for a fixed span of virtual time.
    pub fn run_for(&mut self, d: Duration) {
        let target = self.now() + d;
        self.chains.horizon = self.chains.horizon.max(target);
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
        self.with_scratch(
            |s| &mut s.flow_events,
            |home, events| {
                home.net.advance_into(to, events);
                for &FlowEvent::Completed { flow, .. } in events.iter() {
                    home.reap_flow(flow);
                }
            },
        );
    }

    /// Lends `f` the scratch buffer `pick` selects, empty, for the length
    /// of the call. The buffer is out of the runtime meanwhile, so `f` may
    /// mutate anything; a nested loan of the same buffer starts from an
    /// empty spare.
    fn with_scratch<T, R>(
        &mut self,
        pick: fn(&mut Scratch) -> &mut Vec<T>,
        f: impl FnOnce(&mut Self, &mut Vec<T>) -> R,
    ) -> R {
        let mut buf = std::mem::take(pick(&mut self.scratch));
        buf.clear();
        let out = f(self, &mut buf);
        *pick(&mut self.scratch) = buf;
        out
    }

    /// Lends `f` the names buffer (see [`Self::with_scratch`]).
    pub(crate) fn with_names<R>(&mut self, f: impl FnOnce(&mut Self, &mut Vec<Sym>) -> R) -> R {
        self.with_scratch(|s| &mut s.names, f)
    }

    /// Lends `f` the holders buffer (see [`Self::with_scratch`]).
    pub(crate) fn with_holders<R>(&mut self, f: impl FnOnce(&mut Self, &mut Vec<usize>) -> R) -> R {
        self.with_scratch(|s| &mut s.holders, f)
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
        assert!(self.ops.knows(op), "unknown operation {op}");
        loop {
            if let Some(r) = self.ops.report(op) {
                return r.clone();
            }
            self.ensure_tick();
            assert!(self.step(), "simulation stalled while {op} pending");
        }
    }

    /// Runs until any of `ops` completes, returning its index in `ops` and
    /// its report, taken as by [`Self::take_report`]. Steps one event at a
    /// time, so the caller sees a completion at its own instant: a closed
    /// loop can issue its next request with no polling delay.
    ///
    /// # Panics
    ///
    /// Panics if `ops` is empty or the simulation runs out of events first.
    pub fn run_until_any(&mut self, ops: &[OpId]) -> (usize, OpReport) {
        assert!(!ops.is_empty(), "no operations to wait for");
        loop {
            let mut done = ops.iter().enumerate();
            match done.find_map(|(i, &op)| Some((i, self.ops.take_report(op)?))) {
                Some(found) => return found,
                None => self.ensure_tick(),
            }
            assert!(self.step(), "simulation stalled with {ops:?} pending");
        }
    }

    /// Runs until no operations remain in flight and every background
    /// transfer (detached store fan-out stragglers, repair re-replication)
    /// has landed.
    pub fn run_until_idle(&mut self) {
        while self.ops.in_flight() > 0 || self.flows.background() > 0 {
            debug_assert_eq!(
                self.jobs.is_empty(),
                self.flows.background() == 0,
                "every background flow is a leg of a job, every job has a leg"
            );
            self.ensure_tick();
            assert!(self.step(), "simulation stalled with operations pending");
        }
        self.flush_sample();
    }

    /// Takes a completed report, if present.
    pub fn take_report(&mut self, op: OpId) -> Option<OpReport> {
        self.ops.take_report(op)
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
        self.pump();
        let nt = self.net.next_event();
        let Some(t) = self.queue.peek_time().into_iter().chain(nt).min() else {
            return false;
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
        self.chains.steps += 1;
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
                self.chains.tick_armed = false;
                let now = self.now();
                if self.telemetry.enabled() {
                    // Queue depths sampled on event boundaries: every tick
                    // is one deterministic sample point.
                    self.telemetry
                        .observe("runtime.queue_depth", self.queue.len() as u64);
                    self.telemetry
                        .observe("runtime.ops_inflight", self.ops.in_flight() as u64);
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
                if self.chains.go_on(self.ops.in_flight(), now) {
                    self.ensure_tick();
                }
            }
            Event::OpWake { op } => self.op_continue(op, OpInput::Wake),
            Event::OpSubWake { op, token } => self.op_continue(op, OpInput::SubWake { token }),
            Event::DhtDone { op, ev } => self.op_continue(op, OpInput::Dht(ev)),
            Event::Fault(ev) => self.apply_fault(ev),
            Event::HealthSample => {
                self.chains.sample_armed = false;
                if self.chains.sampling(self.telemetry.enabled()) {
                    self.sample_health();
                    // Re-arms its own chain only (not via `ensure_tick`),
                    // so the cadence stays exactly periodic.
                    if self.chains.go_on(self.ops.in_flight(), self.now()) {
                        self.ensure_health();
                    }
                }
            }
        }
    }

    /// Records one gauge sample row: runtime queue depths, per-link
    /// utilization, and per-node resource/overlay gauges. Read-only with
    /// respect to simulation state and draws no randomness, so enabling the
    /// sampler cannot perturb event timing or the RNG stream. The row is
    /// written as `(GaugeId, value)` pairs into the health plane's reused
    /// buffer (each gauge registered the first time its subject is
    /// sampled, see [`crate::health::GaugeColumns`]) and reaches the
    /// recorder and the flight ring in one call each.
    pub(crate) fn sample_health(&mut self) {
        let now = self.now();
        self.chains.last_sample = Some(now);
        let rec = &self.telemetry;
        let cols = &mut self.health.columns;
        let fixed = cols.start(rec);
        let depths = [
            self.queue.len(),
            self.ops.in_flight(),
            self.flows.op_owned(),
            self.flows.background(),
        ];
        cols.put(fixed.runtime, depths.map(|n| n as i64));
        cols.put_segments(rec, &mut self.net);
        for n in self.nodes.iter_mut().filter(|n| n.alive) {
            let ids = *n.gauges.get_or_insert_with(|| node_gauges(rec, &n.name));
            let peek = n.sampler.peek();
            let (hits, misses) = n.chimera.cache_stats();
            let disk = n.bins.used_bytes(Bin::Mandatory) + n.bins.used_bytes(Bin::Voluntary);
            cols.put(
                ids,
                [
                    (peek.cpu_load * 1000.0).round() as i64,
                    peek.mem_free_mib as i64,
                    disk as i64,
                    n.chimera.routing_table_size() as i64,
                    (hits * 1000).checked_div(hits + misses).unwrap_or(0) as i64,
                ],
            );
        }
        if self.overload.enabled {
            let o = &self.overload;
            let values = [
                i64::from(o.shed_permille()),
                o.breakers_open() as i64,
                o.inflight() as i64,
            ];
            cols.put(fixed.overload, values);
        }
        if self.ledger.enabled() {
            // Engine introspection rides the same cadence but only when the
            // causal ledger is on, so default-config gauge output (and with
            // it the golden corpus) stays byte-identical.
            let fc = self.net.counters();
            let values = [
                self.queue.len() as u64,
                Sym::interned_count() as u64,
                fc.started,
                fc.completed,
                fc.canceled,
                self.net.in_flight() as u64,
                self.ledger.rings_live() as u64,
                self.ledger.recorded(),
                self.ledger.dropped(),
            ];
            cols.put(fixed.engine, values.map(|n| n as i64));
            if self.overload.enabled {
                cols.put_admit_tokens(rec, self.overload.admit_token_rows());
            }
        }
        let ts = now.as_nanos();
        rec.gauge_sample(ts, cols.row());
        self.health.flight.note_gauges(ts, cols.row());
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
        self.dht_waiters.insert((i, req), op);
    }

    /// Issues a DHT put from node `i` on behalf of an operation.
    pub(crate) fn dht_put_for_op(&mut self, op: OpId, i: usize, key: Key, value: Arc<[u8]>) {
        let now = self.now();
        let req = self
            .overlay_mut(i)
            .put(key, value, OverwritePolicy::Overwrite, now)
            .expect("node is joined");
        self.dht_waiters.insert((i, req), op);
    }

    /// Issues a chained DHT put (the `Chain` overwrite policy) from node
    /// `i` on behalf of an operation — used for directory entry chains.
    pub(crate) fn dht_chain_for_op(&mut self, op: OpId, i: usize, key: Key, value: Arc<[u8]>) {
        let now = self.now();
        let req = self
            .overlay_mut(i)
            .put(key, value, OverwritePolicy::Chain, now)
            .expect("node is joined");
        self.dht_waiters.insert((i, req), op);
    }

    /// Issues a DHT delete from node `i` on behalf of an operation.
    pub(crate) fn dht_delete_for_op(&mut self, op: OpId, i: usize, key: Key) {
        let now = self.now();
        let req = self
            .overlay_mut(i)
            .delete(key, now)
            .expect("node is joined");
        self.dht_waiters.insert((i, req), op);
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
        let topology = self.net.topology();
        let Some(route) = topology.route_between(src, dst) else {
            return Duration::from_secs(3600);
        };
        let bottleneck = topology.bottleneck_bps(src, dst).unwrap_or(f64::INFINITY);
        let (tcp, median) = (&route.tcp, route.bandwidth_median);
        match self.chunk_spec(bytes) {
            Some(c) => {
                tcp.chunked_transfer_time(bytes, c.chunk_bytes, c.window, bottleneck, median)
            }
            None => tcp.transfer_time(bytes, bottleneck, median),
        }
    }

    /// Looks up the node index for an overlay key.
    pub(crate) fn node_index(&self, key: Key) -> Option<usize> {
        self.node_of_key.get(&key).copied()
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

#[cfg(test)]
mod chain_tests {
    //! The two periodic chains, `Tick` and `HealthSample`: each goes on
    //! while an op is in flight or the run's horizon is ahead, and an idle
    //! runtime ends each at its first event at or past the horizon. Read
    //! from what the events leave with tracing on: every tick observes
    //! `runtime.queue_depth` once, every gauge sample adds one point to the
    //! series of the same name.

    use super::*;
    use crate::{NodeId, Object, StorePolicy};

    const SAMPLE_PERIOD: Duration = Duration::from_millis(300);

    fn ticks(home: &Cloud4Home) -> u64 {
        let snap = home.telemetry.snapshot();
        snap.histograms
            .get("runtime.queue_depth")
            .map_or(0, |h| h.count)
    }

    fn samples(home: &Cloud4Home) -> Vec<u64> {
        let snap = home.telemetry.snapshot();
        let series = snap.series.get("runtime.queue_depth");
        series.map_or(Vec::new(), |s| s.points().iter().map(|&(t, _)| t).collect())
    }

    /// The instants `from + k·period` (k ≥ 1) at or before `to`.
    fn beats(from: SimTime, to: SimTime, period: Duration) -> Vec<u64> {
        let step = period.as_nanos() as u64;
        let n = (to.as_nanos() - from.as_nanos()) / step;
        (1..=n).map(|k| from.as_nanos() + k * step).collect()
    }

    /// Steps until nothing is pending; a chain that never stops fails.
    fn drain(home: &mut Cloud4Home) {
        for _ in 0..100_000 {
            if !home.step() {
                return;
            }
        }
        panic!("a periodic chain never stopped");
    }

    #[test]
    fn chains_go_on_while_work_is_in_flight_and_stop_at_the_horizon_when_idle() {
        let mut config = Config::paper_testbed(12);
        config.tracing = true;
        config.health_sample_ms = SAMPLE_PERIOD.as_millis() as u64;
        let mut home = Cloud4Home::new(config);
        drain(&mut home);

        // Idle, horizon 1.2 s ahead: ticks at +0.5 and +1.0 go on, the one
        // at +1.5 ends its chain; the sample at +1.2 is the horizon itself
        // and ends its own.
        let t0 = home.now();
        let (ticks0, samples0) = (ticks(&home), samples(&home).len());
        home.run_for(Duration::from_millis(1_200));
        drain(&mut home);
        assert_eq!(ticks(&home) - ticks0, 3);
        let want = beats(t0, t0 + Duration::from_millis(1_200), SAMPLE_PERIOD);
        assert_eq!(samples(&home)[samples0..], want[..]);

        // An op in flight keeps both chains going past the horizon, every
        // beat, until it completes.
        let t1 = home.now();
        let (ticks1, samples1) = (ticks(&home), samples(&home).len());
        let obj = Object::synthetic("chains/wan.bin", 3, 2 << 20, "tar");
        let op = home.store_object(NodeId(0), obj, StorePolicy::ForceCloud, true);
        home.run_for(Duration::from_millis(100));
        let done = home.run_until_complete(op).completed;
        assert!(
            done > t1 + Duration::from_secs(2),
            "the op outlives the horizon"
        );
        let tick_beats = beats(t1, done, TICK_PERIOD).len() as u64;
        assert_eq!(ticks(&home) - ticks1, tick_beats);
        let sample_beats = beats(t1, done, SAMPLE_PERIOD);
        assert_eq!(samples(&home)[samples1..], sample_beats[..]);

        // `run_until_idle` closes with a sample at this instant, once.
        home.run_until_idle();
        let closed = samples(&home);
        assert_eq!(closed.len(), samples1 + sample_beats.len() + 1);
        assert_eq!(closed.last(), Some(&done.as_nanos()));
        home.run_until_idle();
        assert_eq!(samples(&home), closed, "one closing sample per instant");

        // Idle again: each chain fires once more, at its first beat past
        // the completion, and stops.
        drain(&mut home);
        assert_eq!(ticks(&home) - ticks1, tick_beats + 1);
        let next = t1.as_nanos() + (sample_beats.len() as u64 + 1) * 300_000_000;
        let end = samples(&home);
        assert_eq!(end.len(), closed.len() + 1);
        assert_eq!(end.last(), Some(&next));
    }
}
