//! The VStore++ operation state machines.
//!
//! Each client operation — store, fetch, process, fetch+process — advances
//! through explicit stages driven by runtime events: wakeups after charged
//! delays (command handling, XenSocket copies, disk accesses, service
//! execution), bulk-flow completions, and DHT completions. The stages
//! mirror the paper's §III-B operation descriptions, and every stage
//! attributes its elapsed virtual time to a [`Breakdown`] component so the
//! harness can regenerate Table I.

use std::collections::{BTreeMap, VecDeque};
use std::time::Duration;

use c4h_chimera::{DhtError, DhtEvent, Key};
use c4h_cloud::{S3Url, REQUEST_LATENCY};
use c4h_kvstore::{
    directory_key, object_key, parent_dir, service_key, DirEntry, Location, ObjectMeta, Record,
    ResourceRecord, ServiceRecord,
};
use c4h_resources::Bin;
use c4h_services::{ServiceDemand, ServiceId, ServiceOutput};
use c4h_simnet::{Addr, FlowId, SimTime, Sym};
use c4h_telemetry::{ArgValue, CauseKind, PathBucket, LEDGER_NONE};

use crate::config::{NodeId, ServiceKind};
use crate::decision::{choose, estimate_exec, meets_minimum, Candidate, LOCATE_TIME};
use crate::ec::ErasureCode;
use crate::health::{attribute, PathRow};
use crate::object::{Blob, Object, SAMPLE_WINDOW};
use crate::overload::{shed_reason_code, AdmitDecision};
use crate::policy::{PlacementClass, RoutePolicy, StorePolicy};
use crate::report::{
    Breakdown, CausalEvent, Column, OpError, OpId, OpOutput, OpReport, PathAttribution,
};
use crate::runtime::{Cloud4Home, CLOUD_ADDR, STRIPE_TRACK_BASE};

/// Size of a command packet on the guest ↔ dom0 channel ("commands are
/// usually less than 50 bytes").
const COMMAND_BYTES: u64 = 48;

/// Where a process operation executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecTarget {
    /// A home-cloud node, by index.
    Node(usize),
    /// The remote cloud's compute instance.
    Cloud,
}

/// Explicit placement request for process operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// Run the full decision procedure (resource queries + scoring).
    Auto,
    /// Pin execution to a specific home node.
    Pin(NodeId),
    /// Pin execution to the remote cloud.
    Cloud,
}

/// Inputs that advance an operation.
#[derive(Debug)]
pub(crate) enum OpInput {
    /// A scheduled wake fired.
    Wake,
    /// An awaited bulk flow delivered its last byte. Operations tracking
    /// several concurrent transfers (store fan-out) tell completions apart
    /// by the flow id.
    FlowDone { flow: FlowId },
    /// A scheduled sub-task wake fired (one concurrent branch of the
    /// operation, identified by its token).
    SubWake { token: u64 },
    /// The awaited DHT request completed.
    Dht(DhtEvent),
}

/// Where an operation is in its state machine. What each stage *means* to
/// the reports — its span name, its Table-I column, its critical-path
/// bucket — is its row of [`STAGES`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Stage {
    // --- store ---
    StoreChannelIn,
    StoreQueryPeers,
    StoreFlowToPeer,
    StoreDiskWrite,
    /// All pending replica transfers run concurrently; the stage ends when
    /// the last replica lands or a quorum is reached.
    StoreFanout,
    /// One replica's transfer and its disk write: concurrent sub-stages of
    /// [`Stage::StoreFanout`]. They name spans only — an op's `stage` never
    /// holds them and the fan-out's elapsed time is charged once, by the
    /// parent stage.
    StoreReplicaFlow,
    StoreReplicaWrite,
    StoreFlowToCloud,
    StoreCloudPut,
    StoreMetaPut,
    StoreDirPut,
    StoreAck,
    // --- fetch ---
    FetchChannelIn,
    FetchMetaGet,
    FetchOwnerRequest,
    FetchFlowHome,
    /// The object is being pulled as concurrent stripes from several
    /// holders (or as parallel cloud range reads). The stage ends when the
    /// last stripe lands; a lost stripe is reassigned to another holder
    /// without restarting the fetch.
    FetchStriped,
    FetchRetry,
    FetchCloudRequest,
    FetchFlowCloud,
    FetchDiskLocal,
    FetchChannelOut,
    // --- delete ---
    DelChannelIn,
    DelMetaGet,
    DelDhtDelete,
    DelRemoveBytes,
    DelDirPut,
    // --- list ---
    ListChannelIn,
    ListDirGet,
    // --- process ---
    ProcChannelIn,
    /// Object metadata and service record fetched with one batched pair of
    /// concurrent DHT gets.
    ProcMetaSvcGet,
    ProcQueryResources,
    ProcDecide,
    ProcReadArg,
    ProcMoveArg,
    ProcExec,
    ProcMoveResult,
    ProcChannelOut,
}

/// One row of the stage table: everything the reports derive from "stage S
/// ran from t₀ to t₁".
#[derive(Debug)]
pub(crate) struct StageInfo {
    stage: Stage,
    /// Trace-span name (dotted `<op>.<step>` form). An export format: the
    /// names are hashed into the golden digests.
    pub(crate) name: &'static str,
    /// Name of the stage's latency histogram, `phase.<name>_ns`.
    hist: &'static str,
    /// The [`Breakdown`] component the stage's elapsed time is charged to.
    /// `None` for control time Table I leaves in the remainder.
    pub(crate) column: Option<Column>,
    /// Critical-path bucket; see [`Stage::bucket`] for the one exception.
    bucket: PathBucket,
}

macro_rules! row {
    ($stage:ident, $name:literal, $column:expr, $bucket:ident) => {
        StageInfo {
            stage: Stage::$stage,
            name: $name,
            hist: concat!("phase.", $name, "_ns"),
            column: $column,
            bucket: PathBucket::$bucket,
        }
    };
}

/// The stage table, indexed by discriminant.
#[rustfmt::skip]
const STAGES: [StageInfo; 38] = {
    use Column::*;
    [
        row!(StoreChannelIn,     "store.channel_in",     Some(InterDomain), Other),
        row!(StoreQueryPeers,    "store.query_peers",    Some(Decision),    Dht),
        row!(StoreFlowToPeer,    "store.flow_to_peer",   Some(InterNode),   Lan),
        row!(StoreDiskWrite,     "store.disk_write",     Some(Disk),        Disk),
        row!(StoreFanout,        "store.fanout",         Some(InterNode),   Lan),
        row!(StoreReplicaFlow,   "store.replica_flow",   None,              Other),
        row!(StoreReplicaWrite,  "store.replica_write",  None,              Other),
        row!(StoreFlowToCloud,   "store.flow_to_cloud",  Some(InterNode),   Wan),
        row!(StoreCloudPut,      "store.cloud_put",      Some(InterNode),   Wan),
        row!(StoreMetaPut,       "store.meta_put",       Some(Dht),         Dht),
        row!(StoreDirPut,        "store.dir_put",        Some(Dht),         Dht),
        row!(StoreAck,           "store.ack",            Some(InterDomain), Other),
        row!(FetchChannelIn,     "fetch.channel_in",     Some(InterDomain), Other),
        row!(FetchMetaGet,       "fetch.meta_get",       Some(Dht),         Dht),
        // The request's modelled holder disk read is charged separately,
        // on completion; the control round trip stays in the remainder.
        row!(FetchOwnerRequest,  "fetch.owner_request",  None,              Lan),
        row!(FetchFlowHome,      "fetch.flow_home",      Some(InterNode),   Lan),
        // Wan when the stripes are cloud range reads: see `Stage::bucket`.
        row!(FetchStriped,       "fetch.striped",        Some(InterNode),   Lan),
        row!(FetchRetry,         "fetch.retry_wait",     Some(InterNode),   Backoff),
        row!(FetchCloudRequest,  "fetch.cloud_request",  Some(InterNode),   Wan),
        row!(FetchFlowCloud,     "fetch.flow_cloud",     Some(InterNode),   Wan),
        row!(FetchDiskLocal,     "fetch.disk_local",     Some(Disk),        Disk),
        row!(FetchChannelOut,    "fetch.channel_out",    Some(InterDomain), Other),
        row!(DelChannelIn,       "delete.channel_in",    Some(InterDomain), Other),
        row!(DelMetaGet,         "delete.meta_get",      Some(Dht),         Dht),
        row!(DelDhtDelete,       "delete.dht_delete",    Some(Dht),         Dht),
        row!(DelRemoveBytes,     "delete.remove_bytes",  Some(Disk),        Disk),
        row!(DelDirPut,          "delete.dir_put",       Some(Dht),         Dht),
        row!(ListChannelIn,      "list.channel_in",      Some(InterDomain), Other),
        row!(ListDirGet,         "list.dir_get",         Some(Dht),         Dht),
        row!(ProcChannelIn,      "proc.channel_in",      Some(InterDomain), Other),
        row!(ProcMetaSvcGet,     "proc.meta_svc_get",    Some(Dht),         Dht),
        row!(ProcQueryResources, "proc.query_resources", Some(Decision),    Dht),
        row!(ProcDecide,         "proc.decide",          Some(Decision),    Other),
        row!(ProcReadArg,        "proc.read_arg",        Some(Disk),        Disk),
        row!(ProcMoveArg,        "proc.move_arg",        Some(InterNode),   Lan),
        row!(ProcExec,           "proc.exec",            Some(Exec),        Service),
        row!(ProcMoveResult,     "proc.move_result",     Some(InterNode),   Lan),
        row!(ProcChannelOut,     "proc.channel_out",     Some(InterDomain), Other),
    ]
};

// Rows sit in discriminant order, so `info` is an index.
const _: () = {
    let mut i = 0;
    while i < STAGES.len() {
        assert!(STAGES[i].stage as usize == i);
        i += 1;
    }
};

impl Stage {
    /// This stage's row of the table.
    pub(crate) const fn info(self) -> &'static StageInfo {
        &STAGES[self as usize]
    }

    /// The stage whose span name is `name` (cold path: rendering only).
    pub(crate) fn from_name(name: &str) -> Option<Stage> {
        STAGES.iter().find(|r| r.name == name).map(|r| r.stage)
    }

    /// The critical-path bucket the stage's time falls in. `fetch.striped`
    /// pulls either from home peers or from the cloud via parallel range
    /// reads; `via_cloud`, known at completion, disambiguates.
    pub(crate) fn bucket(self, via_cloud: bool) -> PathBucket {
        match self {
            Stage::FetchStriped if via_cloud => PathBucket::Wan,
            _ => self.info().bucket,
        }
    }

    /// Whether the stage tolerates a lost DHT reply itself (resource
    /// queries score whoever answered; the batched lookup reissues only
    /// what is missing) instead of leaning on [`Cloud4Home::retry_dht`].
    fn absorbs_lost_reply(self) -> bool {
        matches!(
            self,
            Stage::StoreQueryPeers | Stage::ProcQueryResources | Stage::ProcMetaSvcGet
        )
    }
}

/// The kind of a client operation. One table carries its public name and
/// the names of its per-kind metrics; declared in name order, so an array
/// indexed by kind iterates the way a map keyed by name would.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum OpKind {
    Delete,
    Fetch,
    FetchProcess,
    List,
    Pipeline,
    Process,
    Store,
}

/// One row of the op-kind table.
#[derive(Debug)]
pub(crate) struct OpKindInfo {
    kind: OpKind,
    /// The kind's public name ([`OpReport::kind`], `Config::slo_ms` keys).
    pub(crate) name: &'static str,
    /// The stage an admitted op of this kind starts in.
    first: Stage,
    /// Counters `op.<kind>.ok` / `op.<kind>.err`.
    ok: &'static str,
    err: &'static str,
    /// Histogram `op.<kind>.total_ns`.
    total_ns: &'static str,
    /// Counter `shed.<kind>`.
    shed: &'static str,
    /// Counter `slo.violation.<kind>`.
    slo_violation: &'static str,
}

macro_rules! kind_row {
    ($kind:ident, $name:literal, $first:ident) => {
        OpKindInfo {
            kind: OpKind::$kind,
            name: $name,
            first: Stage::$first,
            ok: concat!("op.", $name, ".ok"),
            err: concat!("op.", $name, ".err"),
            total_ns: concat!("op.", $name, ".total_ns"),
            shed: concat!("shed.", $name),
            slo_violation: concat!("slo.violation.", $name),
        }
    };
}

/// The op-kind table, indexed by discriminant.
const OP_KINDS: [OpKindInfo; 7] = [
    kind_row!(Delete, "delete", DelChannelIn),
    kind_row!(Fetch, "fetch", FetchChannelIn),
    kind_row!(FetchProcess, "fetch_process", ProcChannelIn),
    kind_row!(List, "list", ListChannelIn),
    kind_row!(Pipeline, "pipeline", ProcChannelIn),
    kind_row!(Process, "process", ProcChannelIn),
    kind_row!(Store, "store", StoreChannelIn),
];

const _: () = {
    let mut i = 0;
    while i < OP_KINDS.len() {
        assert!(OP_KINDS[i].kind as usize == i);
        i += 1;
    }
};

impl OpKind {
    /// How many kinds there are (the length of a per-kind array).
    pub(crate) const COUNT: usize = OP_KINDS.len();

    /// Every kind, in name order.
    pub(crate) fn all() -> impl Iterator<Item = OpKind> {
        OP_KINDS.iter().map(|row| row.kind)
    }

    /// This kind's row of the table.
    pub(crate) const fn info(self) -> &'static OpKindInfo {
        &OP_KINDS[self as usize]
    }

    /// The kind's public name.
    pub(crate) const fn name(self) -> &'static str {
        self.info().name
    }

    /// The kind called `name`, if any.
    pub(crate) fn from_name(name: &str) -> Option<OpKind> {
        OP_KINDS.iter().find(|r| r.name == name).map(|r| r.kind)
    }
}

/// One in-flight operation.
#[derive(Debug)]
pub(crate) struct Op {
    pub(crate) id: OpId,
    pub(crate) kind: OpKind,
    pub(crate) client: usize,
    pub(crate) submitted: SimTime,
    pub(crate) name: Sym,
    pub(crate) payload: Option<Object>,
    pub(crate) blocking: bool,
    pub(crate) store_policy: StorePolicy,
    pub(crate) route: RoutePolicy,
    pub(crate) placement: Placement,
    pub(crate) service: Option<ServiceKind>,
    /// Remaining services of a pipeline invocation (first = current).
    pub(crate) pipeline: Vec<ServiceKind>,
    pub(crate) pipeline_idx: usize,
    pub(crate) stage: Stage,
    /// The home node the current stage works with: the node a store flows
    /// to and writes on (the client itself for a local-first store), the
    /// holder a fetch requests and pulls from.
    pub(crate) peer: usize,
    /// The parsed S3 location a cloud fetch requests, parked between
    /// routing and the request's completion.
    pub(crate) cloud_url: Option<S3Url>,
    pub(crate) breakdown: Breakdown,
    pub(crate) phase_started: SimTime,
    pub(crate) meta: Option<ObjectMeta>,
    pub(crate) svc_record: Option<ServiceRecord>,
    pub(crate) pending_gets: usize,
    pub(crate) resources: Vec<ResourceRecord>,
    pub(crate) staged: Option<Blob>,
    pub(crate) exec_target: Option<ExecTarget>,
    pub(crate) exec_demand: Option<ServiceDemand>,
    pub(crate) output: Option<ServiceOutput>,
    pub(crate) via_cloud: bool,
    pub(crate) result_bytes: u64,
    /// Metadata-request retries consumed (lossy-network recovery).
    pub(crate) retries: u8,
    /// Failover redirects taken (replica fetches, executor re-dispatches).
    pub(crate) failovers: u32,
    /// Untried fetch candidates: node indices holding the bytes, best first.
    pub(crate) fetch_candidates: VecDeque<usize>,
    /// Ranked surviving executor candidates for process re-dispatch.
    pub(crate) exec_candidates: VecDeque<ExecTarget>,
    /// Pending store-time replica targets (node indices).
    pub(crate) replica_targets: VecDeque<usize>,
    /// Overlay keys of replicas successfully written during this store.
    pub(crate) replicas_done: Vec<Key>,
    /// In-flight replica transfers of the store fan-out, by flow.
    /// `BTreeMap` so any iteration is deterministic.
    pub(crate) replica_flows: BTreeMap<FlowId, ReplicaFlight>,
    /// Pending replica disk writes of the store fan-out: sub-task token
    /// (the target node index) → write start time.
    pub(crate) replica_writes: BTreeMap<u64, SimTime>,
    /// In-flight stripe transfers of a striped fetch, by flow. `BTreeMap`
    /// so any iteration is deterministic.
    pub(crate) stripe_flows: BTreeMap<FlowId, StripeFlight>,
    /// Outstanding stripe control requests (owner request + disk read in
    /// progress at a holder): sub-task token → request.
    pub(crate) stripe_requests: BTreeMap<u64, StripeRequest>,
    /// Ranked holder pool the striped fetch may (re)assign stripes from.
    pub(crate) stripe_sources: Vec<usize>,
    /// Decode plan of an erasure-coded fetch (`None` for plain fetches).
    pub(crate) ec_plan: Option<EcPlan>,
    /// Stripes this fetch was split into.
    pub(crate) stripes_total: u32,
    /// Stripes whose bytes have fully arrived.
    pub(crate) stripes_done: u32,
    /// Replica copies this store could not place (too few live peers, or a
    /// replica flow died with no substitute).
    pub(crate) partial_replication: u32,
    /// Whether any get of the current batched-lookup stage timed out.
    pub(crate) batch_timed_out: bool,
    /// Home node index the store's primary copy landed on.
    pub(crate) store_target: Option<usize>,
    /// Current failover backoff; doubles on each retry round.
    pub(crate) backoff: Duration,
    /// Absolute recovery deadline; failovers past it fail with `Timeout`.
    pub(crate) deadline: SimTime,
    /// Sequential stage spans `(stage, start_ns, end_ns)` recorded while
    /// tracing or the causal ledger is on; the critical-path analyzer
    /// buckets them at completion and the explain plane tiles them into
    /// the op's DAG. Empty when both are disabled.
    pub(crate) stage_log: Vec<(Stage, u64, u64)>,
    /// Whether the overload plane rejected this op at admission. Shed ops
    /// never held a tenant slot and never enter the SLO windows.
    pub(crate) shed: bool,
    /// Causal link carried between ledger events of the same recovery
    /// chain (a transfer failure feeding the backoff it induces, a retry
    /// chaining to the previous retry). `LEDGER_NONE` when the next
    /// decision recorded is a root.
    pub(crate) ledger_cause: u32,
    /// Ledger seq of the hedge launch racing each stripe, so the losing
    /// copy's cancellation links back to the launch that started the race.
    pub(crate) hedge_launches: BTreeMap<u32, u32>,
}

impl Op {
    fn new(id: OpId, kind: OpKind, client: usize, name: Sym, now: SimTime) -> Self {
        Op {
            id,
            kind,
            client,
            submitted: now,
            name,
            payload: None,
            blocking: true,
            store_policy: StorePolicy::default(),
            route: RoutePolicy::default(),
            placement: Placement::Auto,
            service: None,
            pipeline: Vec::new(),
            pipeline_idx: 0,
            stage: kind.info().first,
            peer: client,
            cloud_url: None,
            breakdown: Breakdown::default(),
            phase_started: now,
            meta: None,
            svc_record: None,
            pending_gets: 0,
            resources: Vec::new(),
            staged: None,
            exec_target: None,
            exec_demand: None,
            output: None,
            via_cloud: false,
            result_bytes: 0,
            retries: 0,
            failovers: 0,
            fetch_candidates: VecDeque::new(),
            exec_candidates: VecDeque::new(),
            replica_targets: VecDeque::new(),
            replicas_done: Vec::new(),
            replica_flows: BTreeMap::new(),
            replica_writes: BTreeMap::new(),
            stripe_flows: BTreeMap::new(),
            stripe_requests: BTreeMap::new(),
            stripe_sources: Vec::new(),
            ec_plan: None,
            stripes_total: 0,
            stripes_done: 0,
            partial_replication: 0,
            batch_timed_out: false,
            store_target: None,
            backoff: INITIAL_BACKOFF,
            deadline: now + OP_DEADLINE,
            stage_log: Vec::new(),
            shed: false,
            ledger_cause: LEDGER_NONE,
            hedge_launches: BTreeMap::new(),
        }
    }

    /// Size of the object this operation moves.
    fn object_bytes(&self) -> u64 {
        self.payload
            .as_ref()
            .map(Object::size_bytes)
            .or_else(|| self.meta.as_ref().map(|m| m.size_bytes))
            .unwrap_or(0)
    }
}

/// Maximum metadata-request retries per operation.
const MAX_DHT_RETRIES: u8 = 2;

/// Initial failover backoff; doubles on each subsequent retry round.
const INITIAL_BACKOFF: Duration = Duration::from_millis(50);

/// Per-operation recovery deadline: failover loops past this fail with
/// [`OpError::Timeout`] instead of retrying forever.
const OP_DEADLINE: Duration = Duration::from_secs(60);

/// Ceiling on the exponential fetch-retry backoff, so one doubling can
/// never sleep past the deadline in a single jump.
const MAX_FETCH_BACKOFF: Duration = Duration::from_secs(5);

/// Relative spread of the deterministic jitter applied to each fetch-retry
/// backoff interval.
const BACKOFF_JITTER: f64 = 0.2;

/// One in-flight replica transfer of a store fan-out.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ReplicaFlight {
    /// Destination node index.
    pub(crate) target: usize,
    /// When the transfer started (for the retroactive stage span).
    pub(crate) started: SimTime,
}

/// Token bit marking a stripe control request as a hedge copy, so a hedge
/// and the original of the same stripe never collide in `stripe_requests`.
const STRIPE_HEDGE_BIT: u64 = 1 << 32;

/// One in-flight stripe transfer of a striped fetch.
#[derive(Debug, Clone, Copy)]
pub(crate) struct StripeFlight {
    /// Stripe index within the object (0-based, contiguous split).
    pub(crate) stripe: u32,
    /// Serving home node index, or `None` for a cloud range read.
    pub(crate) holder: Option<usize>,
    /// Source network address (feeds the per-peer bandwidth table).
    pub(crate) src: Addr,
    /// Byte offset of the stripe within the object.
    pub(crate) offset: u64,
    /// Stripe length in bytes.
    pub(crate) bytes: u64,
    /// When the transfer started (for the retroactive stripe span).
    pub(crate) started: SimTime,
    /// Whether this is the hedged (re-issued) copy of its stripe.
    pub(crate) hedge: bool,
}

/// The decode plan of an erasure-coded fetch: which code rows the `k`
/// stripe slots are reading and who holds each row. Present on an op only
/// while a coded read is in flight; the stripe machinery branches on it.
#[derive(Debug, Clone)]
pub(crate) struct EcPlan {
    /// Data shards needed to decode.
    pub(crate) k: u32,
    /// Bytes per stripe (the cost model charges every row this much).
    pub(crate) stripe_len: u64,
    /// Node index holding each code row (`None` = key resolves to no
    /// known node).
    pub(crate) row_holders: Vec<Option<usize>>,
    /// The code row each stripe slot `0..k` is currently reading; a slot
    /// whose row is lost re-points here at a spare parity row.
    pub(crate) slot_rows: Vec<u32>,
}

/// A stripe's control request + holder disk read still in progress.
#[derive(Debug, Clone, Copy)]
pub(crate) struct StripeRequest {
    /// Stripe index within the object.
    pub(crate) stripe: u32,
    /// Home node the request was sent to.
    pub(crate) holder: usize,
    /// Byte offset of the stripe within the object.
    pub(crate) offset: u64,
    /// Stripe length in bytes.
    pub(crate) bytes: u64,
    /// Whether this request is a hedge copy.
    pub(crate) hedge: bool,
}

/// Whether a DHT completion is a timeout (lost request or reply).
fn dht_timed_out(input: &OpInput) -> bool {
    match input {
        OpInput::Dht(DhtEvent::GetCompleted { result, .. }) => {
            matches!(result, Err(c4h_chimera::DhtError::Timeout))
        }
        OpInput::Dht(DhtEvent::PutCompleted { result, .. }) => {
            matches!(result, Err(c4h_chimera::DhtError::Timeout))
        }
        OpInput::Dht(DhtEvent::DeleteCompleted { result, .. }) => {
            matches!(result, Err(c4h_chimera::DhtError::Timeout))
        }
        _ => false,
    }
}

/// Result of one state-machine step: `Some` completes the op.
type StepOutcome = Option<Result<OpOutput, OpError>>;

/// The aggregate demand of running a whole pipeline at one location: summed
/// work, peak working set, and the final stage's output size. Returns
/// `None` if any stage is not deployed there.
fn combined_demand(
    registry: &c4h_services::ServiceRegistry,
    pipeline: &[ServiceKind],
    input_bytes: u64,
) -> Option<ServiceDemand> {
    let mut total: Option<ServiceDemand> = None;
    for kind in pipeline {
        let svc = registry.get(ServiceId(kind.id()))?;
        let d = svc.demand(input_bytes);
        total = Some(match total {
            None => d,
            Some(mut t) => {
                t.work += d.work;
                t.exec.mem_required_mib = t.exec.mem_required_mib.max(d.exec.mem_required_mib);
                t.exec.parallel_fraction = t.exec.parallel_fraction.min(d.exec.parallel_fraction);
                t.output_bytes = d.output_bytes;
                t
            }
        });
    }
    total
}

impl Cloud4Home {
    // ------------------------------------------------------------------
    // Public operation API
    // ------------------------------------------------------------------

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
        let mut op = self.new_op(OpKind::Store, client, object.name);
        op.blocking = blocking;
        op.store_policy = policy;
        // CreateObject + StoreObject: command packet, then the object
        // crosses the guest → dom0 shared-memory channel.
        let channel_bytes = object.size_bytes();
        op.payload = Some(object);
        self.submit(op, channel_bytes)
    }

    /// Fetches an object by name to an application on `client`.
    ///
    /// # Panics
    ///
    /// Panics if `client` is out of range or the node is offline.
    pub fn fetch_object(&mut self, client: NodeId, name: &str) -> OpId {
        let op = self.new_op(OpKind::Fetch, client, Sym::new(name));
        self.submit(op, COMMAND_BYTES)
    }

    /// Deletes an object: its metadata is removed from the key-value store
    /// (with replicas and path caches expunged) and its bytes are removed
    /// from whichever bin or bucket holds them.
    ///
    /// Only the node that stored the object may delete it.
    ///
    /// # Panics
    ///
    /// Panics if `client` is out of range or the node is offline.
    pub fn delete_object(&mut self, client: NodeId, name: &str) -> OpId {
        let op = self.new_op(OpKind::Delete, client, Sym::new(name));
        self.submit(op, COMMAND_BYTES)
    }

    /// Lists the objects in a directory (the prefix before the final `/` of
    /// each object name), reading the directory's chained entry record from
    /// the key-value store.
    ///
    /// # Panics
    ///
    /// Panics if `client` is out of range or the node is offline.
    pub fn list_objects(&mut self, client: NodeId, dir: &str) -> OpId {
        let op = self.new_op(OpKind::List, client, Sym::new(dir));
        self.submit(op, COMMAND_BYTES)
    }

    /// Invokes a processing service on a stored object, choosing the
    /// execution location with the full decision procedure under `route`.
    pub fn process_object(
        &mut self,
        client: NodeId,
        name: &str,
        service: ServiceKind,
        route: RoutePolicy,
    ) -> OpId {
        self.submit_process(
            client,
            name,
            service,
            Placement::Auto,
            route,
            OpKind::Process,
        )
    }

    /// Invokes a processing service at an explicitly pinned location
    /// (used to measure individual placements, as in Figure 7).
    pub fn process_object_at(
        &mut self,
        client: NodeId,
        name: &str,
        service: ServiceKind,
        placement: Placement,
    ) -> OpId {
        self.submit_process(
            client,
            name,
            service,
            placement,
            RoutePolicy::Performance,
            OpKind::Process,
        )
    }

    /// Fetch joined with processing: per the paper, the requesting node
    /// runs the service itself when capable, else the owner, else the
    /// decision procedure picks among the remaining providers.
    pub fn fetch_and_process(
        &mut self,
        client: NodeId,
        name: &str,
        service: ServiceKind,
        route: RoutePolicy,
    ) -> OpId {
        self.submit_process(
            client,
            name,
            service,
            Placement::Auto,
            route,
            OpKind::FetchProcess,
        )
    }

    /// Runs a sequence of services on the object at a single dynamically
    /// chosen location — the paper's surveillance pattern ("a process
    /// operation may be invoked on a set of stored images, to first perform
    /// face detection, and next face recognition"), with the argument moved
    /// once and every pipeline step executed in place.
    ///
    /// # Panics
    ///
    /// Panics if `services` is empty, `client` is out of range, or the node
    /// is offline.
    pub fn process_pipeline(
        &mut self,
        client: NodeId,
        name: &str,
        services: &[ServiceKind],
        route: RoutePolicy,
    ) -> OpId {
        assert!(!services.is_empty(), "pipeline needs at least one service");
        let id = self.submit_process(
            client,
            name,
            services[0],
            Placement::Auto,
            route,
            OpKind::Pipeline,
        );
        // The overload plane may have shed the submission, in which case
        // the op already completed and is no longer in flight.
        if let Some(op) = self.ops.get_mut(&id) {
            op.pipeline = services.to_vec();
        }
        id
    }

    fn submit_process(
        &mut self,
        client: NodeId,
        name: &str,
        service: ServiceKind,
        placement: Placement,
        route: RoutePolicy,
        kind: OpKind,
    ) -> OpId {
        let mut op = self.new_op(kind, client, Sym::new(name));
        op.service = Some(service);
        op.pipeline = vec![service];
        op.placement = placement;
        op.route = route;
        self.submit(op, COMMAND_BYTES)
    }

    /// Builds the op a live `client` is submitting, in its kind's first
    /// stage.
    fn new_op(&mut self, kind: OpKind, client: NodeId, name: Sym) -> Op {
        assert!(client.0 < self.nodes.len(), "no such node {client}");
        assert!(self.nodes[client.0].alive, "{client} is offline");
        Op::new(self.alloc_op(), kind, client.0, name, self.now())
    }

    /// Puts a new op through admission and, if admitted, starts it: its
    /// first stage lasts until `channel_bytes` have crossed the guest →
    /// dom0 channel and the command is processed.
    fn submit(&mut self, op: Op, channel_bytes: u64) -> OpId {
        let id = op.id;
        let Some(op) = self.admit_gate(op) else {
            return id;
        };
        let channel = self.nodes[op.client].channel_transfer(channel_bytes);
        self.wake_in(id, self.config.timing.command_proc + channel);
        self.ops.insert(id, op);
        self.ensure_tick();
        id
    }

    /// Runs the overload plane's admission check for a newly built op.
    /// Admitted ops are handed back for normal dispatch; rejected ops
    /// complete immediately as [`OpError::Overloaded`] — a fast-fail whose
    /// report is available to the caller at once, with no channel transfer,
    /// queueing, or deadline attrition.
    fn admit_gate(&mut self, mut op: Op) -> Option<Op> {
        match self
            .overload
            .admit(op.kind.name(), op.client, self.now().as_nanos())
        {
            AdmitDecision::Admitted => {
                self.ledger_op(op.id, CauseKind::Admit, LEDGER_NONE, 0, 0);
                Some(op)
            }
            AdmitDecision::Shed(reason) => {
                op.shed = true;
                self.ledger_op(
                    op.id,
                    CauseKind::Shed,
                    LEDGER_NONE,
                    shed_reason_code(reason),
                    0,
                );
                self.stats.ops_shed += 1;
                self.telemetry.add(op.kind.info().shed, 1);
                self.telemetry.instant_args(
                    "overload",
                    "shed.drop",
                    op.id.0,
                    self.now().as_nanos(),
                    vec![
                        ("kind", ArgValue::from(op.kind.name())),
                        ("reason", ArgValue::from(reason)),
                        ("object", ArgValue::from(op.name.as_str())),
                        (
                            "tenant",
                            ArgValue::from(self.nodes[op.client].name.as_str()),
                        ),
                    ],
                );
                let name = op.name.to_string();
                self.complete_op(op, Err(OpError::Overloaded(name)));
                None
            }
        }
    }

    // ------------------------------------------------------------------
    // State machine driver
    // ------------------------------------------------------------------

    /// Reroutes an operation whose bulk transfer was severed by a crash or
    /// partition: fetches fail over to the next live replica, store
    /// replica fan-outs skip the lost target, peer stores spill to the
    /// cloud, and process moves re-dispatch to the next-best executor.
    /// Stages with no recovery path fail the operation.
    pub(crate) fn transfer_failed(&mut self, id: OpId, flow: FlowId, why: &str) {
        let Some(mut op) = self.ops.remove(&id) else {
            return;
        };
        self.telemetry.instant_args(
            "op",
            "op.transfer_failed",
            op.id.0,
            self.now().as_nanos(),
            vec![
                ("stage", ArgValue::from(op.stage.info().name)),
                ("why", ArgValue::from(why)),
            ],
        );
        // Causal ledger: the severed transfer is the inducing event for
        // whatever recovery decision follows in this call chain.
        let cause = std::mem::take(&mut op.ledger_cause);
        op.ledger_cause = self.ledger_op(op.id, CauseKind::TransferFailed, cause, flow.raw(), 0);
        if !self.nodes[op.client].alive {
            // The requesting client itself is gone; nobody to recover for.
            self.complete_op(op, Err(OpError::OwnerUnreachable(why.to_owned())));
            return;
        }
        // Circuit breakers: charge the severed path before recovery
        // reroutes around it, so a repeat offender trips open and later
        // candidate selection steers clear without burning a flow on it.
        let failed_addr = match op.stage {
            Stage::FetchFlowHome | Stage::StoreFlowToPeer => Some(self.nodes[op.peer].addr),
            Stage::FetchStriped => op.stripe_flows.get(&flow).map(|f| match f.holder {
                Some(h) => self.nodes[h].addr,
                None => CLOUD_ADDR,
            }),
            Stage::StoreFanout => op
                .replica_flows
                .get(&flow)
                .map(|f| self.nodes[f.target].addr),
            Stage::StoreFlowToCloud | Stage::FetchFlowCloud => Some(CLOUD_ADDR),
            _ => None,
        };
        if let Some(addr) = failed_addr {
            self.breaker_failure(addr);
        }
        let outcome = match op.stage {
            Stage::FetchFlowHome => self.fetch_try_next(&mut op, true),
            Stage::FetchStriped => {
                // Only the severed stripe is affected; reassign it (or lean
                // on a hedge copy already racing) while the rest keep
                // flowing. Cloud range reads have no alternate source, so
                // losing one abandons the stripes and fails over as a
                // whole-fetch retry would.
                if let Some(flight) = op.stripe_flows.remove(&flow) {
                    self.emit_stripe_span(&op, flow, &flight, false);
                    if flight.holder.is_some() {
                        self.stripe_reassign(
                            &mut op,
                            flight.stripe,
                            flight.offset,
                            flight.bytes,
                            why,
                        )
                    } else {
                        let flows: Vec<FlowId> = op.stripe_flows.keys().copied().collect();
                        for f in flows {
                            self.stripe_drop_flow(&mut op, f);
                        }
                        op.stripes_total = 0;
                        op.stripes_done = 0;
                        op.staged = None;
                        Some(Err(OpError::OwnerUnreachable(why.to_owned())))
                    }
                } else {
                    None
                }
            }
            Stage::StoreFanout => {
                // One replica flight died; the rest of the fan-out (and the
                // store itself) carries on with one copy fewer.
                if op.replica_flows.remove(&flow).is_some() {
                    op.failovers += 1;
                    op.partial_replication += 1;
                    self.stats.partial_replication += 1;
                    self.store_fanout_check(&mut op)
                } else {
                    None
                }
            }
            Stage::StoreFlowToPeer => self.store_spill_or_fail(&mut op),
            Stage::ProcMoveArg | Stage::ProcMoveResult => self.proc_redispatch(&mut op, why),
            _ => Some(Err(OpError::OwnerUnreachable(why.to_owned()))),
        };
        match outcome {
            Some(result) => self.complete_op(op, result),
            None => {
                self.ops.insert(id, op);
            }
        }
    }

    pub(crate) fn op_continue(&mut self, id: OpId, input: OpInput) {
        let Some(mut op) = self.ops.remove(&id) else {
            return;
        };
        let outcome = self.op_step(&mut op, input);
        match outcome {
            Some(result) => self.complete_op(op, result),
            None => {
                self.ops.insert(id, op);
            }
        }
    }

    fn complete_op(&mut self, mut op: Op, outcome: Result<OpOutput, OpError>) {
        // A store failing with replica flights still in the air (e.g. the
        // client crashed) abandons them: nobody is left to publish them.
        for flow in std::mem::take(&mut op.replica_flows).into_keys() {
            self.cancel_flow(flow);
        }
        // Likewise a striped fetch failing with stripes still in flight
        // (e.g. the client crashed) abandons them.
        if !op.stripe_flows.is_empty() {
            for (flow, flight) in std::mem::take(&mut op.stripe_flows) {
                self.cancel_flow(flow);
                self.emit_stripe_span(&op, flow, &flight, false);
            }
            op.stripe_requests.clear();
        }
        self.stats.ops_completed += 1;
        let now = self.now();
        let total_ns = now.as_nanos().saturating_sub(op.submitted.as_nanos());
        // SLO windows: fold the latency in, flag a breach if the sliding
        // p99 now exceeds the kind's objective. Shed ops never enter the
        // windows — their fast-fail latency would dilute the admitted-op
        // p99 the shed controller steers by.
        let breach = if (self.telemetry.enabled() || self.overload.enabled || self.ledger.enabled())
            && !op.shed
        {
            self.health.observe_latency(op.kind, now, total_ns)
        } else {
            None
        };
        if self.overload.enabled && !op.shed {
            self.overload.tenant_done(op.client);
            self.overload.observe_completion(breach.is_some());
        }
        // Causal ledger: a breach stamps a terminal slo.breach event whose
        // id the violation counter's exemplar (and the trace instant's
        // `ledger` arg) point back at.
        let mut breach_seq = LEDGER_NONE;
        if self.ledger.enabled() {
            if let Some(b) = breach {
                breach_seq = self.ledger.record(
                    op.id.0,
                    CauseKind::SloBreach,
                    LEDGER_NONE,
                    now.as_nanos(),
                    b.p99_ns,
                    b.slo_ns,
                );
                self.telemetry.set_exemplar(
                    op.kind.info().slo_violation,
                    format!("op{}#{breach_seq}", op.id.0),
                );
            }
        }
        let mut critical = PathAttribution::default();
        if self.telemetry.enabled() || self.ledger.enabled() {
            // Critical-path attribution: bucket the recorded stage spans,
            // with queueing/control time as the remainder. The ledger
            // needs it too: `slowest` ranks ops by these rows.
            critical = attribute(&op.stage_log, total_ns, op.via_cloud);
            self.health.record_path(PathRow {
                op: op.id,
                kind: op.kind.name(),
                object: op.name,
                total_ns,
                path: critical,
            });
        }
        if self.telemetry.enabled() {
            let ok = outcome.is_ok();
            let kind = op.kind.info();
            self.telemetry.span_args(
                "op",
                kind.name,
                op.id.0,
                op.submitted.as_nanos(),
                now.as_nanos(),
                vec![
                    ("object", ArgValue::from(op.name.as_str())),
                    ("ok", ArgValue::from(ok)),
                    ("retries", ArgValue::from(u64::from(op.retries))),
                    ("failovers", ArgValue::from(u64::from(op.failovers))),
                ],
            );
            self.telemetry.add(if ok { kind.ok } else { kind.err }, 1);
            self.telemetry.observe(kind.total_ns, total_ns);

            self.stats.crit_dht_ns += critical.dht_ns;
            self.stats.crit_disk_ns += critical.disk_ns;
            self.stats.crit_lan_ns += critical.lan_ns;
            self.stats.crit_wan_ns += critical.wan_ns;
            self.stats.crit_service_ns += critical.service_ns;
            self.stats.crit_backoff_ns += critical.backoff_ns;
            self.stats.crit_other_ns += critical.other_ns;

            if let Some(breach) = breach {
                let mut args = vec![
                    ("kind", ArgValue::from(kind.name)),
                    ("p99_ns", ArgValue::from(breach.p99_ns)),
                    ("slo_ns", ArgValue::from(breach.slo_ns)),
                ];
                if breach_seq != LEDGER_NONE {
                    args.push(("ledger", ArgValue::from(u64::from(breach_seq))));
                }
                self.telemetry.instant_args(
                    "health",
                    "slo.violation",
                    op.id.0,
                    now.as_nanos(),
                    args,
                );
                self.telemetry.add(kind.slo_violation, 1);
            }

            // Flight recorder: hard failures (deadline blown, every executor
            // dead, owner gone) cut a post-mortem dump with recent context.
            if let Err(e) = &outcome {
                if matches!(
                    e,
                    OpError::Timeout(_) | OpError::ExecutorFailed(_) | OpError::OwnerUnreachable(_)
                ) {
                    let stages = op
                        .stage_log
                        .iter()
                        .map(|&(stage, s, e)| (stage.info().name.to_owned(), s, e))
                        .collect();
                    self.health.flight.record(
                        now.as_nanos(),
                        op.id.0,
                        kind.name,
                        op.name.as_str(),
                        e.label(),
                        op.submitted.as_nanos(),
                        stages,
                    );
                    self.telemetry.add("health.postmortems", 1);
                }
            }
        }
        // Heat tracking: each successful fetch feeds the per-object rate
        // EWMA and reader history that the adaptive placement pass steers
        // replica counts and placement by.
        if self.config.adaptive.enabled && op.kind == OpKind::Fetch && outcome.is_ok() {
            self.object_heat
                .observe_fetch(op.name, op.client, now.as_nanos());
            self.replicas.fetched(op.name);
        }
        // Explain plane: completed with the ledger on, the report carries
        // its stage spans and causal chain so the critical-path DAG can be
        // materialized after the fact. The per-op ring is consumed (moved,
        // not copied) either way, so disabled runs leak nothing.
        let mut stages: Vec<(&'static str, u64, u64)> = Vec::new();
        let mut ledger: Vec<CausalEvent> = Vec::new();
        if self.ledger.enabled() {
            stages = op
                .stage_log
                .iter()
                .map(|&(stage, s, e)| (stage.info().name, s, e))
                .collect();
            ledger = self
                .ledger
                .finish(op.id.0)
                .into_iter()
                .map(CausalEvent::from)
                .collect();
        } else {
            self.ledger.discard(op.id.0);
        }
        let has_detail = !stages.is_empty() || !ledger.is_empty();
        let report = OpReport {
            id: op.id,
            kind: op.kind.name(),
            object: op.name,
            submitted: op.submitted,
            completed: self.now(),
            breakdown: op.breakdown,
            retries: u32::from(op.retries),
            failovers: op.failovers,
            partial_replication: op.partial_replication,
            critical_path: critical,
            stages,
            ledger,
            outcome,
        };
        self.reports.insert(op.id, report);
        // The explain ring bounds how many completed reports keep full
        // detail: past capacity, the oldest report's stages and chain are
        // released (the report itself survives for its outcome and
        // breakdown).
        if has_detail {
            self.explain_ring.push_back(op.id);
            while self.explain_ring.len() > self.config.explain_ring {
                if let Some(old) = self.explain_ring.pop_front() {
                    if let Some(r) = self.reports.get_mut(&old) {
                        r.stages = Vec::new();
                        r.ledger = Vec::new();
                    }
                }
            }
        }
    }

    /// Closes the stage `op.stage` at the current instant and returns the
    /// time it took. This is the one place an op's time is accounted: the
    /// elapsed time goes to the stage's Table-I column and — while tracing
    /// or the causal ledger is on — becomes a child span on the op's track,
    /// a sample of the stage's latency histogram and an entry of the op's
    /// stage log, from which the critical path and the explain DAG derive.
    /// Zero-length closes — bookkeeping transitions within one event — do
    /// nothing, so traces show only stages that consumed virtual time.
    fn charge(&self, op: &mut Op) -> Duration {
        let now = self.now();
        let started = std::mem::replace(&mut op.phase_started, now);
        let elapsed = now.checked_duration_since(started).unwrap_or_default();
        if elapsed.is_zero() {
            return elapsed;
        }
        if let Some(column) = op.stage.info().column {
            op.breakdown.add(column, elapsed);
        }
        let (start_ns, end_ns) = (started.as_nanos(), now.as_nanos());
        let traced = self.telemetry.enabled();
        if traced {
            self.stage_span(op.id, op.stage, start_ns, end_ns);
        }
        if traced || self.ledger.enabled() {
            op.stage_log.push((op.stage, start_ns, end_ns));
        }
        elapsed
    }

    /// Records one run of `stage` on the op's track: a `stage` span under
    /// the table's name and a sample of the stage's latency histogram.
    fn stage_span(&self, op: OpId, stage: Stage, start_ns: u64, end_ns: u64) {
        let info = stage.info();
        self.telemetry
            .span("stage", info.name, op.0, start_ns, end_ns);
        self.telemetry.observe(info.hist, end_ns - start_ns);
    }

    /// Closes the current stage and enters `next`.
    fn enter(&self, op: &mut Op, next: Stage) {
        self.charge(op);
        op.stage = next;
    }

    /// Enters `next`, a stage that lasts `duration`: the op is woken when
    /// it is over.
    fn enter_for(&mut self, op: &mut Op, next: Stage, duration: Duration) -> StepOutcome {
        self.enter(op, next);
        self.wake_in(op.id, duration);
        None
    }

    fn op_step(&mut self, op: &mut Op, input: OpInput) -> StepOutcome {
        // Sub-task continuations (concurrent branches of the fan-out) are
        // routed by token, never by the current stage. A token that arrives
        // after its stage moved on (e.g. a write detached by a quorum
        // publish) is a no-op.
        if let OpInput::SubWake { token } = input {
            return match op.stage {
                Stage::StoreFanout => self.fanout_write_done(op, token),
                Stage::FetchStriped => self.stripe_request_done(op, token),
                _ => None,
            };
        }
        if matches!(op.stage, Stage::StoreFanout) {
            if let OpInput::FlowDone { flow } = input {
                return self.fanout_flow_done(op, flow);
            }
        }
        if matches!(op.stage, Stage::FetchStriped) {
            if let OpInput::FlowDone { flow } = input {
                return self.stripe_flow_done(op, flow);
            }
        }
        // Lossy-network recovery: a timed-out metadata request is reissued
        // (bounded) instead of failing the operation. The per-op cap keeps
        // one op from looping; the node-level retry budget (overload plane)
        // keeps a whole node's ops from amplifying a sick DHT.
        if dht_timed_out(&input) {
            if op.retries < MAX_DHT_RETRIES {
                let budgeted = self.retry_budget_take(op.client, "dht", op.name);
                if budgeted && self.retry_dht(op) {
                    op.retries += 1;
                    self.stats.dht_retries += 1;
                    self.telemetry.instant_args(
                        "dht",
                        "dht.retry",
                        op.id.0,
                        self.now().as_nanos(),
                        vec![
                            ("stage", ArgValue::from(op.stage.info().name)),
                            ("retries", ArgValue::from(u64::from(op.retries))),
                        ],
                    );
                    // Retries chain retry-to-retry: the first is a root,
                    // each subsequent one links to its predecessor.
                    let cause = std::mem::take(&mut op.ledger_cause);
                    op.ledger_cause =
                        self.ledger_op(op.id, CauseKind::DhtRetry, cause, u64::from(op.retries), 0);
                    return None;
                }
                if !budgeted {
                    let cause = std::mem::take(&mut op.ledger_cause);
                    self.ledger_op(op.id, CauseKind::RetryDenied, cause, 1, 0);
                }
                if !budgeted && !op.stage.absorbs_lost_reply() {
                    return Some(Err(OpError::Timeout(op.name.to_string())));
                }
            }
            // Retry cap exhausted on a stage that has no fallback of its
            // own: surface the exhaustion as an operation timeout. Stages
            // that absorb missing replies (resource queries) fall through.
            if op.retries >= MAX_DHT_RETRIES && !op.stage.absorbs_lost_reply() {
                return Some(Err(OpError::Timeout(op.name.to_string())));
            }
        }
        match op.stage {
            // ---------------- store ----------------
            Stage::StoreChannelIn => {
                self.charge(op);
                self.store_decide_placement(op)
            }
            Stage::StoreQueryPeers => {
                self.absorb_resource_reply(op, input);
                if op.pending_gets > 0 {
                    return None;
                }
                self.charge(op);
                self.store_pick_peer(op)
            }
            Stage::StoreFlowToPeer => {
                let write = self.nodes[op.peer].disk.write_time(op.object_bytes());
                self.enter_for(op, Stage::StoreDiskWrite, write)
            }
            Stage::StoreDiskWrite => {
                self.charge(op);
                self.store_install(op, op.peer)
            }
            // Flow completions, write wakes and request wakes of the two
            // concurrent stages are routed by the intercepts above; anything
            // else (a stray wake) is inert. The sub-stages are never current.
            Stage::StoreFanout
            | Stage::FetchStriped
            | Stage::StoreReplicaFlow
            | Stage::StoreReplicaWrite => None,
            Stage::StoreFlowToCloud => self.enter_for(op, Stage::StoreCloudPut, REQUEST_LATENCY),
            Stage::StoreCloudPut => {
                self.charge(op);
                self.breaker_success(CLOUD_ADDR);
                let object = op.payload.as_ref().expect("store carries payload");
                let cloud = self.cloud.as_mut().expect("cloud path requires a cloud");
                let url = cloud
                    .s3
                    .put(
                        &cloud.bucket.clone(),
                        object.name.as_str(),
                        object.blob.clone(),
                        object.size_bytes(),
                    )
                    .expect("bucket exists");
                op.via_cloud = true;
                self.store_meta_put(
                    op,
                    Location::Cloud {
                        url: url.to_string(),
                    },
                )
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
                // Append the object to its directory's entry chain.
                let entry = DirEntry {
                    name: op.name,
                    tombstone: false,
                };
                let dir = parent_dir(op.name.as_str());
                op.stage = Stage::StoreDirPut;
                self.dht_chain_for_op(op.id, op.client, directory_key(dir), entry.encode());
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
                if op.blocking {
                    // "Blocking operations incur the cost of an additional
                    // acknowledgement."
                    let ack = self.nodes[op.client].channel_transfer(COMMAND_BYTES)
                        + self.config.timing.command_proc;
                    self.enter_for(op, Stage::StoreAck, ack)
                } else {
                    Some(Ok(self.bytes_output(op)))
                }
            }
            Stage::StoreAck => {
                self.charge(op);
                Some(Ok(self.bytes_output(op)))
            }

            // ---------------- fetch ----------------
            Stage::FetchChannelIn => {
                self.enter(op, Stage::FetchMetaGet);
                self.dht_get_for_op(op.id, op.client, object_key(op.name.as_str()));
                None
            }
            Stage::FetchMetaGet => {
                let meta = match self.take_object_meta(op, input) {
                    Ok(m) => m,
                    Err(e) => return Some(Err(e)),
                };
                self.charge(op);
                self.fetch_route_to_owner(op, meta)
            }
            Stage::FetchOwnerRequest => {
                let owner = op.peer;
                // The holder may have crashed or been cut off while the
                // control request was in flight: fail over instead of
                // starting a doomed transfer.
                if !self.nodes[owner].alive || !self.node_reachable(op.client, owner) {
                    let addr = self.nodes[owner].addr;
                    self.breaker_failure(addr);
                    return self.fetch_try_next(op, true);
                }
                // Request handled; owner has read the object from disk. The
                // read is charged here, on completion — a holder that died
                // before responding must not leave its read time behind.
                op.breakdown.disk += self.nodes[owner].disk.read_time(op.object_bytes());
                self.enter(op, Stage::FetchFlowHome);
                let src = self.nodes[owner].addr;
                let dst = self.nodes[op.client].addr;
                self.start_flow_for_op(op.id, src, dst, op.object_bytes());
                None
            }
            Stage::FetchFlowHome => {
                let owner = op.peer;
                let addr = self.nodes[owner].addr;
                // The completed transfer is a bandwidth observation for
                // this holder (the stage covers exactly the flow).
                let el = self.charge(op);
                self.peer_bw
                    .observe(addr.raw(), op.object_bytes(), el.as_secs_f64());
                self.breaker_success(addr);
                match self.nodes[owner].objects.get(&op.name) {
                    Some(blob) => {
                        op.staged = Some(blob.clone());
                        self.fetch_channel_out(op)
                    }
                    // The holder dropped the bytes mid-transfer; try the
                    // next replica.
                    None => self.fetch_try_next(op, true),
                }
            }
            Stage::FetchRetry => {
                self.charge(op);
                // With the adaptive plane on, the object may have changed
                // shape while this op was backing off (converted to coded
                // stripes, replicas re-placed); the snapshot in `op.meta`
                // — and any cached copy of the record — can be stale, so
                // re-read the authoritative metadata before retrying.
                if self.config.adaptive.enabled {
                    op.stage = Stage::FetchMetaGet;
                    self.dht_get_for_op(op.id, op.client, object_key(op.name.as_str()));
                    return None;
                }
                // Re-derive the candidate set: a holder may have rejoined
                // or the partition healed since the last attempt.
                let meta = op.meta.clone().expect("set in FetchMetaGet");
                self.fetch_route_to_owner(op, meta)
            }
            Stage::FetchCloudRequest => {
                self.charge(op);
                let url = op
                    .cloud_url
                    .take()
                    .expect("parked when the fetch was routed");
                let cloud = self.cloud.as_mut().expect("cloud fetch requires a cloud");
                match cloud.s3.get(&url) {
                    Ok(obj) => {
                        op.staged = Some(obj.payload.clone());
                        op.via_cloud = true;
                        let src = cloud.addr;
                        let dst = self.nodes[op.client].addr;
                        let bytes = op.object_bytes();
                        // A WAN flow's TCP cap sits well below the downlink
                        // segment, so parallel range reads of the same S3
                        // object fill the pipe a single flow cannot.
                        let sources = self.config.fetch_sources as u64;
                        if sources >= 2 && bytes >= sources {
                            return self.fetch_begin_cloud_stripes(op, src, dst, bytes);
                        }
                        op.stage = Stage::FetchFlowCloud;
                        self.start_flow_for_op(op.id, src, dst, bytes);
                        None
                    }
                    Err(_) => Some(Err(OpError::NotFound(op.name.to_string()))),
                }
            }
            Stage::FetchFlowCloud => {
                self.charge(op);
                self.breaker_success(CLOUD_ADDR);
                self.fetch_channel_out(op)
            }
            Stage::FetchDiskLocal => {
                self.charge(op);
                match self.nodes[op.client].objects.get(&op.name) {
                    Some(blob) => {
                        op.staged = Some(blob.clone());
                        self.fetch_channel_out(op)
                    }
                    None => Some(Err(OpError::NotFound(op.name.to_string()))),
                }
            }
            Stage::FetchChannelOut => {
                self.charge(op);
                Some(Ok(self.bytes_output(op)))
            }

            // ---------------- delete ----------------
            Stage::DelChannelIn => {
                self.enter(op, Stage::DelMetaGet);
                self.dht_get_for_op(op.id, op.client, object_key(op.name.as_str()));
                None
            }
            Stage::DelMetaGet => {
                let OpInput::Dht(DhtEvent::GetCompleted { value, result, .. }) = input else {
                    return None;
                };
                self.charge(op);
                if let Err(e) = result {
                    return Some(Err(e.into()));
                }
                let meta = value
                    .as_ref()
                    .and_then(|v| Record::decode(v.latest()).ok())
                    .and_then(|r| r.as_object().cloned());
                let Some(meta) = meta else {
                    return Some(Err(OpError::NotFound(op.name.to_string())));
                };
                // Only the owner principal may delete.
                if meta.owner != self.nodes[op.client].key {
                    return Some(Err(OpError::AccessDenied(op.name.to_string())));
                }
                op.meta = Some(meta);
                op.stage = Stage::DelDhtDelete;
                self.dht_delete_for_op(op.id, op.client, object_key(op.name.as_str()));
                None
            }
            Stage::DelDhtDelete => {
                let OpInput::Dht(DhtEvent::DeleteCompleted { result, .. }) = input else {
                    return None;
                };
                self.charge(op);
                if let Err(e) = result {
                    return Some(Err(e.into()));
                }
                self.delete_remove_bytes(op)
            }
            Stage::DelRemoveBytes => {
                self.charge(op);
                let entry = DirEntry {
                    name: op.name,
                    tombstone: true,
                };
                let dir = parent_dir(op.name.as_str());
                op.stage = Stage::DelDirPut;
                self.dht_chain_for_op(op.id, op.client, directory_key(dir), entry.encode());
                None
            }
            Stage::DelDirPut => {
                let OpInput::Dht(DhtEvent::PutCompleted { result, .. }) = input else {
                    return None;
                };
                self.charge(op);
                if let Err(e) = result {
                    return Some(Err(e.into()));
                }
                Some(Ok(self.bytes_output(op)))
            }

            // ---------------- list ----------------
            Stage::ListChannelIn => {
                self.enter(op, Stage::ListDirGet);
                self.dht_get_for_op(op.id, op.client, directory_key(op.name.as_str()));
                None
            }
            Stage::ListDirGet => {
                let OpInput::Dht(DhtEvent::GetCompleted { value, result, .. }) = input else {
                    return None;
                };
                self.charge(op);
                if let Err(e) = result {
                    return Some(Err(e.into()));
                }
                let listing = match &value {
                    Some(v) => DirEntry::fold_listing(v.versions()),
                    None => Vec::new(),
                };
                Some(Ok(OpOutput {
                    bytes: 0,
                    via_cloud: false,
                    exec_target: None,
                    summary: Some(format!("{} objects", listing.len())),
                    listing: Some(listing.iter().map(|s| s.as_str().to_owned()).collect()),
                }))
            }

            // ---------------- process ----------------
            Stage::ProcChannelIn => {
                self.charge(op);
                // The object-metadata and service-record lookups are
                // independent: issue both at once and pay one round trip.
                let kind = op.service.expect("process carries a service");
                op.stage = Stage::ProcMetaSvcGet;
                op.pending_gets = 2;
                op.batch_timed_out = false;
                self.dht_get_for_op(op.id, op.client, object_key(op.name.as_str()));
                self.dht_get_for_op(op.id, op.client, service_key(kind.name(), kind.id()));
                None
            }
            Stage::ProcMetaSvcGet => {
                let OpInput::Dht(DhtEvent::GetCompleted { value, result, .. }) = input else {
                    return None;
                };
                op.pending_gets = op.pending_gets.saturating_sub(1);
                match result {
                    Err(DhtError::Timeout) => op.batch_timed_out = true,
                    Err(e) => return Some(Err(e.into())),
                    Ok(()) => {
                        // Replies are told apart by record type, not
                        // arrival order.
                        match value.as_ref().and_then(|v| Record::decode(v.latest()).ok()) {
                            Some(Record::Object(m)) => op.meta = Some(m),
                            Some(Record::Service(s)) => op.svc_record = Some(s),
                            _ => {}
                        }
                    }
                }
                if op.pending_gets > 0 {
                    return None;
                }
                let kind = op.service.expect("process carries a service");
                // Reissue only whichever lookups a timeout left missing.
                if op.batch_timed_out
                    && (op.meta.is_none() || op.svc_record.is_none())
                    && op.retries < MAX_DHT_RETRIES
                    && self.retry_budget_take(op.client, "dht", op.name)
                {
                    op.retries += 1;
                    self.stats.dht_retries += 1;
                    op.batch_timed_out = false;
                    self.telemetry.instant_args(
                        "dht",
                        "dht.retry",
                        op.id.0,
                        self.now().as_nanos(),
                        vec![
                            ("stage", ArgValue::from(op.stage.info().name)),
                            ("retries", ArgValue::from(u64::from(op.retries))),
                        ],
                    );
                    if op.meta.is_none() {
                        op.pending_gets += 1;
                        self.dht_get_for_op(op.id, op.client, object_key(op.name.as_str()));
                    }
                    if op.svc_record.is_none() {
                        op.pending_gets += 1;
                        self.dht_get_for_op(op.id, op.client, service_key(kind.name(), kind.id()));
                    }
                    return None;
                }
                self.charge(op);
                let timed_out = op.batch_timed_out;
                let Some(meta) = op.meta.clone() else {
                    return Some(Err(if timed_out {
                        OpError::Timeout(op.name.to_string())
                    } else {
                        OpError::NotFound(op.name.to_string())
                    }));
                };
                if !meta.acl.permits(self.nodes[op.client].key, meta.owner) {
                    return Some(Err(OpError::AccessDenied(op.name.to_string())));
                }
                if op.svc_record.is_none() {
                    return Some(Err(if timed_out {
                        OpError::Timeout(op.name.to_string())
                    } else {
                        OpError::ServiceUnavailable(kind.id())
                    }));
                }
                self.proc_resolve_placement(op)
            }
            Stage::ProcQueryResources => {
                self.absorb_resource_reply(op, input);
                if op.pending_gets > 0 {
                    return None;
                }
                self.charge(op);
                self.proc_choose_target(op)
            }
            Stage::ProcDecide => {
                self.charge(op);
                self.proc_move_argument(op)
            }
            Stage::ProcReadArg => {
                self.charge(op);
                self.proc_start_move_flow(op)
            }
            Stage::ProcMoveArg => {
                self.charge(op);
                self.proc_start_exec(op)
            }
            Stage::ProcExec => {
                self.charge(op);
                self.proc_finish_exec(op)
            }
            Stage::ProcMoveResult => {
                self.charge(op);
                self.proc_channel_out(op)
            }
            Stage::ProcChannelOut => {
                self.charge(op);
                Some(Ok(OpOutput {
                    bytes: op.result_bytes,
                    via_cloud: op.via_cloud,
                    exec_target: Some(self.target_name(op.exec_target.expect("exec ran"))),
                    summary: op.output.take().map(|o| o.summary),
                    listing: None,
                }))
            }
        }
    }

    /// Reissues the metadata request the current stage is waiting on.
    /// Returns `false` for stages that tolerate missing replies themselves.
    fn retry_dht(&mut self, op: &mut Op) -> bool {
        match op.stage {
            Stage::FetchMetaGet | Stage::DelMetaGet => {
                self.dht_get_for_op(op.id, op.client, object_key(op.name.as_str()));
                true
            }
            Stage::StoreMetaPut => {
                let meta = op.meta.clone().expect("set before the put");
                self.dht_put_for_op(
                    op.id,
                    op.client,
                    object_key(op.name.as_str()),
                    Record::Object(meta).encode(),
                );
                true
            }
            Stage::StoreDirPut | Stage::DelDirPut => {
                let entry = DirEntry {
                    name: op.name,
                    tombstone: matches!(op.stage, Stage::DelDirPut),
                };
                let dir = parent_dir(op.name.as_str());
                self.dht_chain_for_op(op.id, op.client, directory_key(dir), entry.encode());
                true
            }
            Stage::DelDhtDelete => {
                self.dht_delete_for_op(op.id, op.client, object_key(op.name.as_str()));
                true
            }
            Stage::ListDirGet => {
                self.dht_get_for_op(op.id, op.client, directory_key(op.name.as_str()));
                true
            }
            _ => false,
        }
    }

    // ------------------------------------------------------------------
    // Store helpers
    // ------------------------------------------------------------------

    fn store_decide_placement(&mut self, op: &mut Op) -> StepOutcome {
        let object = op.payload.as_ref().expect("store carries payload");
        let class = op.store_policy.classify(object);
        let size = object.size_bytes();
        match class {
            PlacementClass::LocalFirst => {
                if self.nodes[op.client].bins.fits(size, Bin::Mandatory) {
                    let write = self.nodes[op.client].disk.write_time(size);
                    op.peer = op.client;
                    self.enter_for(op, Stage::StoreDiskWrite, write)
                } else {
                    self.store_query_peers(op)
                }
            }
            PlacementClass::HomePeer => self.store_query_peers(op),
            PlacementClass::RemoteCloud => {
                if self.cloud.is_some() && !self.breaker_blocks_path(CLOUD_ADDR, op.id) {
                    self.store_go_cloud(op)
                } else {
                    // No cloud, or its uplink breaker is open: fall back to
                    // the home tier rather than queue onto a dead WAN.
                    self.store_query_peers(op)
                }
            }
        }
    }

    /// Queries every live peer's resource record before picking a
    /// voluntary-bin target.
    fn store_query_peers(&mut self, op: &mut Op) -> StepOutcome {
        self.charge(op);
        op.resources.clear();
        op.pending_gets = 0;
        let peers: Vec<Key> = self
            .nodes
            .iter()
            .enumerate()
            .filter(|(j, n)| *j != op.client && n.alive)
            .map(|(_, n)| n.resource_key)
            .collect();
        if peers.is_empty() {
            return self.store_spill_or_fail(op);
        }
        op.stage = Stage::StoreQueryPeers;
        for key in peers {
            op.pending_gets += 1;
            self.dht_get_for_op(op.id, op.client, key);
        }
        None
    }

    fn store_pick_peer(&mut self, op: &mut Op) -> StepOutcome {
        let size = op.object_bytes();
        let need_mib = size.div_ceil(1 << 20);
        // Choose the peer advertising the most voluntary space that fits.
        let best = op
            .resources
            .iter()
            .filter(|r| r.voluntary_free_mib >= need_mib)
            .max_by_key(|r| r.voluntary_free_mib)
            .and_then(|r| self.node_index(r.node))
            .filter(|&j| self.nodes[j].alive && j != op.client);
        match best {
            Some(peer) => {
                op.peer = peer;
                self.enter(op, Stage::StoreFlowToPeer);
                let src = self.nodes[op.client].addr;
                let dst = self.nodes[peer].addr;
                self.start_flow_for_op(op.id, src, dst, size);
                None
            }
            None => self.store_spill_or_fail(op),
        }
    }

    fn store_spill_or_fail(&mut self, op: &mut Op) -> StepOutcome {
        if op.store_policy.may_spill_to_cloud()
            && self.cloud.is_some()
            && !self.breaker_blocks_path(CLOUD_ADDR, op.id)
        {
            self.store_go_cloud(op)
        } else {
            Some(Err(OpError::NoSpace(op.name.to_string())))
        }
    }

    fn store_go_cloud(&mut self, op: &mut Op) -> StepOutcome {
        self.enter(op, Stage::StoreFlowToCloud);
        let src = self.nodes[op.client].addr;
        let dst = self.cloud.as_ref().expect("checked by caller").addr;
        let bytes = op.object_bytes();
        self.start_flow_for_op(op.id, src, dst, bytes);
        None
    }

    /// Writes the object into the target node's file system and bins, then
    /// publishes its metadata.
    fn store_install(&mut self, op: &mut Op, target: usize) -> StepOutcome {
        let object = op.payload.as_ref().expect("store carries payload");
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
            return self.store_spill_or_fail(op);
        }
        self.nodes[target].objects.insert(name, object.blob.clone());
        op.store_target = Some(target);
        if self.config.replication > 1 {
            op.replica_targets = self.store_pick_replicas(op, target);
            let want = self.config.replication - 1;
            let got = op.replica_targets.len();
            if got < want {
                // Record the shortfall instead of silently
                // under-replicating.
                let short = (want - got) as u32;
                op.partial_replication += short;
                self.stats.partial_replication += u64::from(short);
                self.telemetry.instant_args(
                    "op",
                    "store.partial_replication",
                    op.id.0,
                    self.now().as_nanos(),
                    vec![
                        ("object", ArgValue::from(op.name.as_str())),
                        ("want", ArgValue::from(want as u64)),
                        ("got", ArgValue::from(got as u64)),
                    ],
                );
            }
        }
        self.store_begin_fanout(op)
    }

    /// Picks up to `replication - 1` peer nodes to hold extra copies:
    /// live, reachable from the primary, with voluntary space, preferring
    /// the most free space. Replicas never leave the home cloud, so the
    /// object's privacy class is preserved.
    fn store_pick_replicas(&mut self, op: &Op, primary: usize) -> VecDeque<usize> {
        let mut peers = vec![0; self.config.replication.saturating_sub(1)];
        let found = self.roomiest_peers(op.object_bytes(), &mut peers, |j| {
            j != primary && self.node_reachable(primary, j)
        });
        peers.truncate(found);
        peers.into()
    }

    /// Starts every pending replica transfer at once. The stage completes
    /// (and the metadata is published) when the last copy lands — or when
    /// the configured quorum is reached, in which case the stragglers
    /// detach and finish in the background.
    fn store_begin_fanout(&mut self, op: &mut Op) -> StepOutcome {
        let primary = op.store_target.expect("primary copy installed");
        let size = op.object_bytes();
        self.enter(op, Stage::StoreFanout);
        let now = self.now();
        while let Some(target) = op.replica_targets.pop_front() {
            // Conditions may have changed since the targets were picked.
            if !self.nodes[target].alive
                || !self.node_reachable(primary, target)
                || !self.nodes[target].bins.fits(size, Bin::Voluntary)
            {
                op.failovers += 1;
                op.partial_replication += 1;
                self.stats.partial_replication += 1;
                self.telemetry.instant_args(
                    "op",
                    "store.replica_skip",
                    op.id.0,
                    self.now().as_nanos(),
                    vec![
                        ("object", ArgValue::from(op.name.as_str())),
                        ("skipped", ArgValue::from(self.nodes[target].name.as_str())),
                    ],
                );
                continue;
            }
            let src = self.nodes[primary].addr;
            let dst = self.nodes[target].addr;
            let flow = self.start_flow_for_op(op.id, src, dst, size);
            op.replica_flows.insert(
                flow,
                ReplicaFlight {
                    target,
                    started: now,
                },
            );
        }
        self.store_fanout_check(op)
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
    fn store_fanout_check(&mut self, op: &mut Op) -> StepOutcome {
        let pending = op.replica_flows.len() + op.replica_writes.len();
        if pending == 0 {
            return self.store_publish_meta(op, false);
        }
        let quorum = self.effective_quorum();
        if quorum > 0 && 1 + op.replicas_done.len() >= quorum {
            return self.store_publish_meta(op, true);
        }
        None
    }

    /// Closes the fan-out stage and publishes the object's metadata. With
    /// `at_quorum`, replica work still in flight detaches first.
    fn store_publish_meta(&mut self, op: &mut Op, at_quorum: bool) -> StepOutcome {
        if at_quorum {
            let detached = op.replica_flows.len() as u64;
            self.detach_fanout(op);
            self.stats.quorum_publishes += 1;
            self.telemetry.instant_args(
                "op",
                "store.quorum_publish",
                op.id.0,
                self.now().as_nanos(),
                vec![
                    ("object", ArgValue::from(op.name.as_str())),
                    ("copies", ArgValue::from(1 + op.replicas_done.len() as u64)),
                ],
            );
            self.ledger_op(
                op.id,
                CauseKind::QuorumDetach,
                LEDGER_NONE,
                1 + op.replicas_done.len() as u64,
                detached,
            );
        }
        self.charge(op);
        let primary = op.store_target.expect("primary copy installed");
        let location = Location::Home {
            node: self.nodes[primary].key,
        };
        self.store_meta_put(op, location)
    }

    /// One replica transfer of the fan-out delivered its last byte: record
    /// its span and start the destination's disk write as a sub-task.
    fn fanout_flow_done(&mut self, op: &mut Op, flow: FlowId) -> StepOutcome {
        let flight = op.replica_flows.remove(&flow)?;
        let now = self.now();
        self.emit_substage(op.id, Stage::StoreReplicaFlow, flight.started, now);
        // Replica transfers are bandwidth observations for their targets.
        let secs = now
            .checked_duration_since(flight.started)
            .unwrap_or_default()
            .as_secs_f64();
        self.peer_bw.observe(
            self.nodes[flight.target].addr.raw(),
            op.object_bytes(),
            secs,
        );
        let addr = self.nodes[flight.target].addr;
        self.breaker_success(addr);
        let write = self.nodes[flight.target].disk.write_time(op.object_bytes());
        let token = flight.target as u64;
        op.replica_writes.insert(token, now);
        self.wake_sub_in(op.id, token, write);
        None
    }

    /// One replica's disk write finished: install the copy and publish if
    /// the fan-out is now complete (or at quorum).
    fn fanout_write_done(&mut self, op: &mut Op, token: u64) -> StepOutcome {
        let started = op.replica_writes.remove(&token)?;
        let now = self.now();
        self.emit_substage(op.id, Stage::StoreReplicaWrite, started, now);
        self.install_replica_copy(op, token as usize);
        self.store_fanout_check(op)
    }

    /// Installs one landed replica copy on its target node.
    fn install_replica_copy(&mut self, op: &mut Op, target: usize) {
        let object = op.payload.as_ref().expect("store carries payload");
        let name = object.name;
        let size = object.size_bytes();
        let blob = object.blob.clone();
        if self.nodes[target].alive && self.nodes[target].install_voluntary(name, size, blob) {
            op.replicas_done.push(self.nodes[target].key);
            self.stats.replicas_written += 1;
        }
    }

    /// Hands the fan-out's unfinished replica work to the runtime so a
    /// quorum publish doesn't abandon the remaining copies: pending disk
    /// writes (bytes already delivered) are installed immediately so the
    /// published metadata includes them, and in-flight transfers become
    /// background copies that republish the metadata when they land.
    fn detach_fanout(&mut self, op: &mut Op) {
        let now = self.now();
        for (token, started) in std::mem::take(&mut op.replica_writes) {
            self.emit_substage(op.id, Stage::StoreReplicaWrite, started, now);
            self.install_replica_copy(op, token as usize);
        }
        for (flow, flight) in std::mem::take(&mut op.replica_flows) {
            let object = op.payload.as_ref().expect("store carries payload");
            let blob = object.blob.clone();
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

    fn store_meta_put(&mut self, op: &mut Op, location: Location) -> StepOutcome {
        let object = op.payload.as_ref().expect("store carries payload");
        let meta = ObjectMeta {
            name: object.name,
            size_bytes: object.size_bytes(),
            content_type: object.content_type.clone(),
            tags: object.tags.clone(),
            location,
            private: object.private,
            owner: self.nodes[op.client].key,
            acl: object.acl.clone(),
            created_at_ns: self.now().as_nanos(),
            replicas: op.replicas_done.clone(),
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
        op.meta = Some(meta.clone());
        self.enter(op, Stage::StoreMetaPut);
        self.dht_put_for_op(
            op.id,
            op.client,
            object_key(op.name.as_str()),
            Record::Object(meta).encode(),
        );
        None
    }

    /// The output of an op that only moved (or removed) the object's bytes.
    fn bytes_output(&self, op: &Op) -> OpOutput {
        OpOutput {
            bytes: op.object_bytes(),
            via_cloud: op.via_cloud,
            exec_target: None,
            summary: None,
            listing: None,
        }
    }

    // ------------------------------------------------------------------
    // Fetch helpers
    // ------------------------------------------------------------------

    /// Extracts decoded object metadata from a DHT completion.
    fn take_object_meta(&mut self, op: &mut Op, input: OpInput) -> Result<ObjectMeta, OpError> {
        let OpInput::Dht(DhtEvent::GetCompleted { value, result, .. }) = input else {
            return Err(OpError::Dht("unexpected completion".into()));
        };
        result.map_err(OpError::from)?;
        let meta = value
            .as_ref()
            .and_then(|v| Record::decode(v.latest()).ok())
            .and_then(|r| r.as_object().cloned())
            .ok_or_else(|| OpError::NotFound(op.name.to_string()))?;
        // Access control: the reader must be permitted by the object's ACL.
        if !meta.acl.permits(self.nodes[op.client].key, meta.owner) {
            return Err(OpError::AccessDenied(op.name.to_string()));
        }
        Ok(meta)
    }

    fn fetch_route_to_owner(&mut self, op: &mut Op, meta: ObjectMeta) -> StepOutcome {
        op.meta = Some(meta.clone());
        // An erasure-coded object has no full copy anywhere: the read is
        // k concurrent stripe pulls plus a decode, not a holder fetch.
        if meta.ec.is_some() {
            return self.fetch_begin_ec(op);
        }
        match meta.location {
            Location::Home { node } => {
                // Candidate holders: the primary owner and every replica,
                // ranked by liveness and the observed-bandwidth estimates
                // rather than raw metadata order.
                let mut candidates: Vec<usize> = Vec::new();
                for key in std::iter::once(node).chain(meta.replicas.iter().copied()) {
                    if let Some(j) = self.node_index(key) {
                        if !candidates.contains(&j) {
                            candidates.push(j);
                        }
                    }
                }
                self.rank_fetch_candidates(op, &mut candidates);
                op.fetch_candidates = candidates.into();
                self.fetch_try_next(op, false)
            }
            Location::Cloud { ref url } => {
                if self.cloud.is_none() {
                    return Some(Err(OpError::OwnerUnreachable(op.name.to_string())));
                }
                // An open cloud-uplink breaker fails the fetch fast; the
                // half-open probe after cooldown is the first op allowed
                // through again.
                if self.breaker_blocks_path(CLOUD_ADDR, op.id) {
                    return Some(Err(OpError::OwnerUnreachable(op.name.to_string())));
                }
                let Some(url) = S3Url::parse(url) else {
                    return Some(Err(OpError::NotFound(op.name.to_string())));
                };
                op.cloud_url = Some(url);
                self.enter_for(op, Stage::FetchCloudRequest, REQUEST_LATENCY)
            }
        }
    }

    /// Routes the fetch to the next live, reachable holder of the object's
    /// bytes. With `failing_over` the previous attempt failed: the failover
    /// is counted and charged. When every candidate is down but the object
    /// is replicated, the fetch backs off exponentially and retries until
    /// its deadline (a holder may rejoin or a partition heal); unreplicated
    /// objects fail promptly.
    fn fetch_try_next(&mut self, op: &mut Op, failing_over: bool) -> StepOutcome {
        if failing_over {
            op.failovers += 1;
            self.stats.fetch_failovers += 1;
            self.telemetry.instant_args(
                "op",
                "fetch.failover",
                op.id.0,
                self.now().as_nanos(),
                vec![("object", ArgValue::from(op.name.as_str()))],
            );
        }
        if self.now() > op.deadline {
            return Some(Err(OpError::Timeout(op.name.to_string())));
        }
        let size = op.object_bytes();
        // With several live holders (none of them the client itself, whose
        // local disk beats any transfer), split the read into concurrent
        // stripes instead of pulling everything from the front-runner.
        if self.config.fetch_sources >= 2 && size >= self.config.fetch_sources as u64 {
            let now_ns = self.now().as_nanos();
            let viable: Vec<usize> = op
                .fetch_candidates
                .iter()
                .copied()
                .filter(|&j| {
                    self.nodes[j].alive
                        && self.node_reachable(op.client, j)
                        && self.nodes[j].objects.contains_key(&op.name)
                        && !self
                            .overload
                            .breaker_would_block(self.nodes[j].addr.raw(), now_ns)
                })
                .collect();
            if viable.len() >= 2 && !viable.contains(&op.client) {
                return self.fetch_begin_stripes(op, viable);
            }
        }
        while let Some(j) = op.fetch_candidates.pop_front() {
            // An open breaker on the path to an otherwise-servable holder
            // skips it like a dead one (but without wasting a probe on
            // nodes already ruled out by liveness). Local reads have no
            // network path to break.
            let servable = self.nodes[j].alive
                && self.node_reachable(op.client, j)
                && self.nodes[j].objects.contains_key(&op.name);
            let addr = self.nodes[j].addr;
            if !servable || (j != op.client && self.breaker_blocks_path(addr, op.id)) {
                // A holder that cannot serve us counts as a failover even on
                // the first routing pass (e.g. the primary died before the
                // fetch started and we go straight to a replica).
                op.failovers += 1;
                self.stats.fetch_failovers += 1;
                self.telemetry.instant_args(
                    "op",
                    "fetch.failover",
                    op.id.0,
                    self.now().as_nanos(),
                    vec![
                        ("object", ArgValue::from(op.name.as_str())),
                        ("skipped", ArgValue::from(self.nodes[j].name.as_str())),
                    ],
                );
                continue;
            }
            // The holder's disk read is part of either wait; a remote
            // one is charged when the request completes, not here: a
            // holder that dies before responding must not leave its read
            // in the breakdown.
            let read = self.nodes[j].disk.read_time(size);
            if j == op.client {
                return self.enter_for(op, Stage::FetchDiskLocal, read);
            }
            // Control message to the holder plus its disk read.
            let latency = self
                .net
                .topology()
                .message_latency(
                    self.nodes[op.client].addr,
                    self.nodes[j].addr,
                    &mut self.rng,
                )
                .unwrap_or_default();
            op.peer = j;
            let request = latency + self.config.timing.peer_request + read;
            return self.enter_for(op, Stage::FetchOwnerRequest, request);
        }
        let replicated = op.meta.as_ref().is_some_and(|m| !m.replicas.is_empty());
        if replicated {
            // Exponential backoff, capped so one doubling can never sleep
            // past the deadline, with deterministic jitter to spread
            // concurrent retries off the same instant.
            let remaining = op
                .deadline
                .checked_duration_since(self.now())
                .unwrap_or_default();
            if remaining.is_zero() {
                return Some(Err(OpError::Timeout(op.name.to_string())));
            }
            // Each backoff-and-retry cycle draws on the node's retry
            // budget: under overload the budget drains and the op fails
            // promptly instead of amplifying load until its deadline.
            if !self.retry_budget_take(op.client, "fetch", op.name) {
                let cause = std::mem::take(&mut op.ledger_cause);
                self.ledger_op(op.id, CauseKind::RetryDenied, cause, 2, 0);
                return Some(Err(OpError::Timeout(op.name.to_string())));
            }
            let wait = op
                .backoff
                .mul_f64(self.rng.jitter_factor(BACKOFF_JITTER))
                .min(remaining)
                .max(Duration::from_millis(1));
            op.backoff = op.backoff.saturating_mul(2).min(MAX_FETCH_BACKOFF);
            // The backoff chains to the failure (or previous backoff) that
            // induced it; the wait it chose is the event's payload.
            let cause = std::mem::take(&mut op.ledger_cause);
            op.ledger_cause = self.ledger_op(
                op.id,
                CauseKind::Backoff,
                cause,
                wait.as_nanos() as u64,
                u64::from(op.failovers),
            );
            return self.enter_for(op, Stage::FetchRetry, wait);
        }
        Some(Err(OpError::OwnerUnreachable(op.name.to_string())))
    }

    /// Orders fetch candidates best-first: holders that can actually serve
    /// the object ahead of dead or cut-off ones, then by the per-peer
    /// bandwidth *class* (see [`PeerBandwidth::class`]), with metadata
    /// order breaking ties — so untrained or noise-level estimates
    /// preserve the primary-first behaviour and only categorically slower
    /// holders (a WAN-limited peer among LAN ones) are demoted. Demoting a
    /// non-viable primary below a live replica is the same redirect the
    /// serial path used to discover by failing, so it is still counted and
    /// traced as a failover.
    fn rank_fetch_candidates(&mut self, op: &mut Op, candidates: &mut [usize]) {
        let Some(&primary) = candidates.first() else {
            return;
        };
        let now_ns = self.now().as_nanos();
        let viable = |s: &Self, j: usize| {
            s.nodes[j].alive
                && s.node_reachable(op.client, j)
                && s.nodes[j].objects.contains_key(&op.name)
                && !s
                    .overload
                    .breaker_would_block(s.nodes[j].addr.raw(), now_ns)
        };
        candidates.sort_by_key(|&j| {
            (
                u8::from(!viable(self, j)),
                -self.peer_bw.class(self.nodes[j].addr.raw()),
            )
        });
        if !viable(self, primary) && candidates.first().is_some_and(|&j| viable(self, j)) {
            op.failovers += 1;
            self.stats.fetch_failovers += 1;
            self.telemetry.instant_args(
                "op",
                "fetch.failover",
                op.id.0,
                self.now().as_nanos(),
                vec![
                    ("object", ArgValue::from(op.name.as_str())),
                    ("skipped", ArgValue::from(self.nodes[primary].name.as_str())),
                ],
            );
        }
        let order: Vec<&str> = candidates
            .iter()
            .map(|&j| self.nodes[j].name.as_str())
            .collect();
        self.telemetry.instant_args(
            "op",
            "fetch.rank",
            op.id.0,
            self.now().as_nanos(),
            vec![
                ("object", ArgValue::from(op.name.as_str())),
                ("order", ArgValue::from(order.join(",").as_str())),
            ],
        );
        // Typed counters mirroring the instant's payload, so dashboards can
        // aggregate without parsing trace args.
        self.telemetry.add("fetch.rank.events", 1);
        let demoted = candidates.iter().filter(|&&j| !viable(self, j)).count();
        self.telemetry.add("fetch.rank.demotions", demoted as u64);
        if demoted > 0 {
            let cause = std::mem::take(&mut op.ledger_cause);
            self.ledger_op(op.id, CauseKind::RankDemote, cause, demoted as u64, 0);
        }
    }

    /// Splits the fetch into contiguous stripes pulled concurrently from
    /// the best-ranked viable holders, one stripe per source.
    fn fetch_begin_stripes(&mut self, op: &mut Op, viable: Vec<usize>) -> StepOutcome {
        let size = op.object_bytes();
        let stripes = viable.len().min(self.config.fetch_sources) as u64;
        op.fetch_candidates.clear();
        op.stripe_sources = viable;
        op.stripes_total = stripes as u32;
        op.stripes_done = 0;
        self.stats.striped_fetches += 1;
        self.telemetry.instant_args(
            "op",
            "fetch.stripe_plan",
            op.id.0,
            self.now().as_nanos(),
            vec![
                ("object", ArgValue::from(op.name.as_str())),
                ("stripes", ArgValue::from(stripes)),
                ("bytes", ArgValue::from(size)),
            ],
        );
        self.enter(op, Stage::FetchStriped);
        let base = size / stripes;
        for s in 0..stripes {
            let offset = s * base;
            let bytes = if s == stripes - 1 {
                size - offset
            } else {
                base
            };
            let holder = op.stripe_sources[s as usize];
            self.stripe_issue_request(op, s as u32, holder, offset, bytes, false);
        }
        None
    }

    /// Splits a cloud fetch into parallel range reads of the same S3
    /// object. A single source means no hedging and no reassignment — a
    /// severed range read fails the fetch exactly like a severed
    /// monolithic cloud flow did.
    fn fetch_begin_cloud_stripes(
        &mut self,
        op: &mut Op,
        src: Addr,
        dst: Addr,
        size: u64,
    ) -> StepOutcome {
        let stripes = self.config.fetch_sources as u64;
        op.stripes_total = stripes as u32;
        op.stripes_done = 0;
        self.stats.striped_fetches += 1;
        self.telemetry.instant_args(
            "op",
            "fetch.stripe_plan",
            op.id.0,
            self.now().as_nanos(),
            vec![
                ("object", ArgValue::from(op.name.as_str())),
                ("stripes", ArgValue::from(stripes)),
                ("bytes", ArgValue::from(size)),
            ],
        );
        op.stage = Stage::FetchStriped;
        let now = self.now();
        let base = size / stripes;
        for s in 0..stripes {
            let offset = s * base;
            let bytes = if s == stripes - 1 {
                size - offset
            } else {
                base
            };
            let flow = self.start_flow_for_op(op.id, src, dst, bytes);
            op.stripe_flows.insert(
                flow,
                StripeFlight {
                    stripe: s as u32,
                    holder: None,
                    src,
                    offset,
                    bytes,
                    started: now,
                    hedge: false,
                },
            );
        }
        None
    }

    /// Sends one stripe's control request to a holder: message latency plus
    /// the holder's disk read, after which the stripe's transfer starts.
    fn stripe_issue_request(
        &mut self,
        op: &mut Op,
        stripe: u32,
        holder: usize,
        offset: u64,
        bytes: u64,
        hedge: bool,
    ) {
        let latency = self
            .net
            .topology()
            .message_latency(
                self.nodes[op.client].addr,
                self.nodes[holder].addr,
                &mut self.rng,
            )
            .unwrap_or_default();
        let read = self.nodes[holder].disk.read_time(bytes);
        let token = u64::from(stripe) | if hedge { STRIPE_HEDGE_BIT } else { 0 };
        op.stripe_requests.insert(
            token,
            StripeRequest {
                stripe,
                holder,
                offset,
                bytes,
                hedge,
            },
        );
        self.wake_sub_in(
            op.id,
            token,
            latency + self.config.timing.peer_request + read,
        );
    }

    /// A stripe's control request (and the holder's disk read) completed:
    /// start the transfer, or reassign if the holder died meanwhile. Wakes
    /// for requests that were cancelled (lost hedge races, aborted striped
    /// fetches) find no entry and are inert.
    fn stripe_request_done(&mut self, op: &mut Op, token: u64) -> StepOutcome {
        let req = op.stripe_requests.remove(&token)?;
        // The bytes a holder serves: the object itself, or — on a coded
        // read — the stripe of the code row this slot is assigned to.
        let want = match &op.ec_plan {
            Some(plan) => self.ec_stripe_name(op.name, plan.slot_rows[req.stripe as usize]),
            None => op.name,
        };
        if !self.nodes[req.holder].alive
            || !self.node_reachable(op.client, req.holder)
            || !self.nodes[req.holder].objects.contains_key(&want)
        {
            return self.stripe_reassign(
                op,
                req.stripe,
                req.offset,
                req.bytes,
                "holder lost before serving stripe",
            );
        }
        // The holder's read finished; charge it on completion (mirroring
        // the single-source path's accounting fix).
        op.breakdown.disk += self.nodes[req.holder].disk.read_time(req.bytes);
        let src = self.nodes[req.holder].addr;
        let dst = self.nodes[op.client].addr;
        let flow = self.start_flow_for_op(op.id, src, dst, req.bytes);
        op.stripe_flows.insert(
            flow,
            StripeFlight {
                stripe: req.stripe,
                holder: Some(req.holder),
                src,
                offset: req.offset,
                bytes: req.bytes,
                started: self.now(),
                hedge: req.hedge,
            },
        );
        None
    }

    /// One stripe delivered its last byte: record it, feed the bandwidth
    /// table, cancel any losing hedge copy of the same stripe, and either
    /// finish the fetch or consider hedging the new slowest stripe.
    fn stripe_flow_done(&mut self, op: &mut Op, flow: FlowId) -> StepOutcome {
        let flight = op.stripe_flows.remove(&flow)?;
        let now = self.now();
        self.emit_stripe_span(op, flow, &flight, true);
        let secs = now
            .checked_duration_since(flight.started)
            .unwrap_or_default()
            .as_secs_f64();
        self.peer_bw.observe(flight.src.raw(), flight.bytes, secs);
        self.breaker_success(flight.src);
        op.stripes_done += 1;
        // The losing copy of a hedged stripe — a racing flow or a control
        // request still pending — is cancelled so its bytes are never
        // delivered (or counted) twice.
        let losers: Vec<FlowId> = op
            .stripe_flows
            .iter()
            .filter(|(_, f)| f.stripe == flight.stripe)
            .map(|(&f, _)| f)
            .collect();
        for loser in losers {
            self.stripe_drop_flow(op, loser);
        }
        let stale: Vec<u64> = op
            .stripe_requests
            .iter()
            .filter(|(_, r)| r.stripe == flight.stripe)
            .map(|(&t, _)| t)
            .collect();
        for t in stale {
            op.stripe_requests.remove(&t);
        }
        // A resolved hedge race cancels the losing copy; the cancellation
        // links back to the launch that started the race.
        if let Some(launch) = op.hedge_launches.remove(&flight.stripe) {
            self.ledger_op(
                op.id,
                CauseKind::HedgeCancel,
                launch,
                u64::from(flight.stripe),
                0,
            );
        }
        if op.stripes_done >= op.stripes_total {
            debug_assert!(op.stripe_flows.is_empty() && op.stripe_requests.is_empty());
            return self.stripe_finish(op);
        }
        self.stripe_maybe_hedge(op);
        None
    }

    /// Cancels one in-flight stripe flow (a lost hedge race or an aborted
    /// striped fetch) and records its span as lost.
    fn stripe_drop_flow(&mut self, op: &mut Op, flow: FlowId) {
        let Some(flight) = op.stripe_flows.remove(&flow) else {
            return;
        };
        self.cancel_flow(flow);
        self.emit_stripe_span(op, flow, &flight, false);
    }

    /// Every stripe landed: close the striped stage and hand the bytes to
    /// the client channel.
    fn stripe_finish(&mut self, op: &mut Op) -> StepOutcome {
        self.charge(op);
        if op.ec_plan.is_some() {
            return self.ec_decode_finish(op);
        }
        if op.staged.is_none() {
            // Home stripes: stage the bytes from any surviving holder
            // (cloud stripes staged them at the S3 get).
            let blob = op
                .stripe_sources
                .iter()
                .copied()
                .filter(|&j| self.nodes[j].alive)
                .find_map(|j| self.nodes[j].objects.get(&op.name).cloned());
            match blob {
                Some(b) => op.staged = Some(b),
                // Every holder vanished in the final instant; fall back to
                // the retry path, which re-derives the candidate set.
                None => return self.fetch_try_next(op, true),
            }
        }
        op.stripe_sources.clear();
        self.fetch_channel_out(op)
    }

    /// Hedged tail requests: when the slowest in-flight stripe's estimated
    /// time to completion exceeds `fetch_hedge ×` what the best idle holder
    /// would need for the whole stripe, re-issue it there and race the two
    /// copies. Evaluated only at stripe completions, so the decision is a
    /// deterministic function of simulation state.
    fn stripe_maybe_hedge(&mut self, op: &mut Op) {
        let factor = self.config.fetch_hedge;
        if factor <= 0.0 {
            return;
        }
        if op.ec_plan.is_some() {
            // Coded reads have no second copy of a row to race; a slow
            // row is handled by reassignment to a spare parity row.
            return;
        }
        // The slowest unhedged home stripe by predicted remaining seconds.
        // Cloud ranges have no second source; hedges never re-hedge.
        let mut slowest: Option<StripeFlight> = None;
        let mut slowest_eta = 0.0_f64;
        for (&flow, flight) in &op.stripe_flows {
            if flight.holder.is_none() || flight.hedge {
                continue;
            }
            let partnered = op
                .stripe_requests
                .values()
                .any(|r| r.stripe == flight.stripe)
                || op
                    .stripe_flows
                    .values()
                    .any(|f| f.stripe == flight.stripe && f.hedge);
            if partnered {
                continue;
            }
            let Some(p) = self.net.progress(flow) else {
                continue;
            };
            if p.rate_bps <= 0.0 {
                continue; // still in connection setup; no estimate yet
            }
            let eta = (p.total_bytes as f64 - p.sent_bytes).max(0.0) / p.rate_bps;
            if slowest.is_none() || eta > slowest_eta {
                slowest = Some(*flight);
                slowest_eta = eta;
            }
        }
        let Some(flight) = slowest else { return };
        let slow_holder = flight.holder.expect("cloud stripes filtered above");
        let Some(idle) = self.stripe_pick_source(op, true, Some(slow_holder)) else {
            return;
        };
        let est = self
            .peer_bw
            .predict_secs(self.nodes[idle].addr.raw(), flight.bytes);
        if slowest_eta <= factor * est {
            return;
        }
        self.stats.hedged_fetches += 1;
        self.telemetry.instant_args(
            "op",
            "fetch.hedge",
            op.id.0,
            self.now().as_nanos(),
            vec![
                ("object", ArgValue::from(op.name.as_str())),
                ("stripe", ArgValue::from(u64::from(flight.stripe))),
                (
                    "slow",
                    ArgValue::from(self.nodes[slow_holder].name.as_str()),
                ),
                ("via", ArgValue::from(self.nodes[idle].name.as_str())),
                ("eta_us", ArgValue::from((slowest_eta * 1e6) as u64)),
                ("est_us", ArgValue::from((est * 1e6) as u64)),
            ],
        );
        // Typed counter + histograms mirroring the instant's payload.
        self.telemetry.add("fetch.hedge.events", 1);
        self.telemetry
            .observe("fetch.hedge.eta_us", (slowest_eta * 1e6) as u64);
        self.telemetry
            .observe("fetch.hedge.est_us", (est * 1e6) as u64);
        let seq = self.ledger_op(
            op.id,
            CauseKind::HedgeLaunch,
            LEDGER_NONE,
            u64::from(flight.stripe),
            idle as u64,
        );
        if seq != LEDGER_NONE {
            op.hedge_launches.insert(flight.stripe, seq);
        }
        self.stripe_issue_request(op, flight.stripe, idle, flight.offset, flight.bytes, true);
    }

    /// The best holder to (re)issue a stripe from: live, reachable, still
    /// holding the bytes; idle holders (nothing in flight or requested)
    /// outrank busy ones, then the higher bandwidth estimate, then rank
    /// order. With `require_idle`, busy holders are excluded outright.
    fn stripe_pick_source(
        &self,
        op: &Op,
        require_idle: bool,
        exclude: Option<usize>,
    ) -> Option<usize> {
        let busy = |j: usize| {
            op.stripe_flows.values().any(|f| f.holder == Some(j))
                || op.stripe_requests.values().any(|r| r.holder == j)
        };
        let now_ns = self.now().as_nanos();
        op.stripe_sources
            .iter()
            .copied()
            .filter(|&j| {
                Some(j) != exclude
                    && !(require_idle && busy(j))
                    && self.nodes[j].alive
                    && self.node_reachable(op.client, j)
                    && self.nodes[j].objects.contains_key(&op.name)
                    && !self
                        .overload
                        .breaker_would_block(self.nodes[j].addr.raw(), now_ns)
            })
            .min_by(|&a, &b| {
                busy(a).cmp(&busy(b)).then_with(|| {
                    self.peer_bw
                        .bps(self.nodes[b].addr.raw())
                        .partial_cmp(&self.peer_bw.bps(self.nodes[a].addr.raw()))
                        .unwrap_or(std::cmp::Ordering::Equal)
                })
            })
    }

    /// One stripe lost its source (a severed flow, or a holder death
    /// discovered when its control request completed). A partner copy still
    /// racing means nothing needs doing; otherwise only this stripe is
    /// re-issued to the best remaining holder — the other stripes keep
    /// flowing. With no holder left, the striped attempt is abandoned and
    /// the fetch falls back to the capped retry path.
    fn stripe_reassign(
        &mut self,
        op: &mut Op,
        stripe: u32,
        offset: u64,
        bytes: u64,
        why: &str,
    ) -> StepOutcome {
        if op.ec_plan.is_some() {
            // Coded reads substitute rows, not holders: the slot re-points
            // at a spare parity row instead of re-pulling the same bytes.
            return self.ec_slot_reassign(op, stripe, why);
        }
        let covered = op.stripe_flows.values().any(|f| f.stripe == stripe)
            || op.stripe_requests.values().any(|r| r.stripe == stripe);
        if covered {
            return None;
        }
        op.failovers += 1;
        self.stats.fetch_failovers += 1;
        self.telemetry.instant_args(
            "op",
            "fetch.failover",
            op.id.0,
            self.now().as_nanos(),
            vec![
                ("object", ArgValue::from(op.name.as_str())),
                ("stripe", ArgValue::from(u64::from(stripe))),
            ],
        );
        match self.stripe_pick_source(op, false, None) {
            Some(holder) => {
                self.telemetry.instant_args(
                    "op",
                    "fetch.stripe_reassign",
                    op.id.0,
                    self.now().as_nanos(),
                    vec![
                        ("object", ArgValue::from(op.name.as_str())),
                        ("stripe", ArgValue::from(u64::from(stripe))),
                        ("via", ArgValue::from(self.nodes[holder].name.as_str())),
                        ("why", ArgValue::from(why)),
                    ],
                );
                let cause = std::mem::take(&mut op.ledger_cause);
                self.ledger_op(
                    op.id,
                    CauseKind::StripeReassign,
                    cause,
                    u64::from(stripe),
                    holder as u64,
                );
                self.stripe_issue_request(op, stripe, holder, offset, bytes, false);
                None
            }
            None => {
                let flows: Vec<FlowId> = op.stripe_flows.keys().copied().collect();
                for flow in flows {
                    self.stripe_drop_flow(op, flow);
                }
                op.stripe_requests.clear();
                op.stripe_sources.clear();
                op.stripes_total = 0;
                op.stripes_done = 0;
                op.fetch_candidates.clear();
                self.fetch_try_next(op, false)
            }
        }
    }

    /// Records one stripe transfer on the stripe track (base + flow id),
    /// with `won` false for severed flows and lost hedge races. Zero-length
    /// spans (cancelled the instant they started) are skipped like
    /// [`Self::charge`]'s.
    fn emit_stripe_span(&self, op: &Op, flow: FlowId, flight: &StripeFlight, won: bool) {
        let now = self.now();
        let elapsed = now
            .checked_duration_since(flight.started)
            .unwrap_or_default();
        if elapsed.is_zero() || !self.telemetry.enabled() {
            return;
        }
        let src = match flight.holder {
            Some(j) => self.nodes[j].name.as_str(),
            None => "cloud",
        };
        self.telemetry.span_args(
            "stripe",
            "fetch.stripe",
            STRIPE_TRACK_BASE + flow.raw(),
            flight.started.as_nanos(),
            now.as_nanos(),
            vec![
                ("object", ArgValue::from(op.name.as_str())),
                ("stripe", ArgValue::from(u64::from(flight.stripe))),
                ("src", ArgValue::from(src)),
                ("offset", ArgValue::from(flight.offset)),
                ("bytes", ArgValue::from(flight.bytes)),
                ("hedge", ArgValue::from(flight.hedge)),
                ("won", ArgValue::from(won)),
            ],
        );
    }

    // ------------------------------------------------------------------
    // Erasure-coded fetch (decode read path)
    // ------------------------------------------------------------------

    /// Whether code row `row` of `name` can serve a stripe read for
    /// `client` right now: holder resolved, alive, reachable, still
    /// holding the stripe, path breaker not open.
    fn ec_row_viable(&self, client: usize, name: Sym, holder: Option<usize>, row: u32) -> bool {
        let now_ns = self.now().as_nanos();
        holder.is_some_and(|j| {
            self.nodes[j].alive
                && self.node_reachable(client, j)
                && self.nodes[j]
                    .objects
                    .contains_key(&self.ec_stripe_name(name, row))
                && !self
                    .overload
                    .breaker_would_block(self.nodes[j].addr.raw(), now_ns)
        })
    }

    /// Routes a fetch of an erasure-coded object: pick `k` viable code
    /// rows (fastest holders first), pull each as one concurrent stripe,
    /// and decode when they all land. Fewer than `k` viable rows means
    /// the object is momentarily unreadable — back off and retry like the
    /// replicated path does (a repair may restore rows, or holders
    /// rejoin).
    fn fetch_begin_ec(&mut self, op: &mut Op) -> StepOutcome {
        let layout = op
            .meta
            .as_ref()
            .and_then(|m| m.ec.clone())
            .expect("caller checked meta.ec");
        let k = layout.k as usize;
        let stripe_len = layout.stripe_len;
        let row_holders: Vec<Option<usize>> = layout
            .holders
            .iter()
            .map(|&key| self.node_index(key))
            .collect();
        let mut viable: Vec<u32> = (0..row_holders.len() as u32)
            .filter(|&r| self.ec_row_viable(op.client, op.name, row_holders[r as usize], r))
            .collect();
        if viable.len() < k {
            return self.ec_fetch_backoff(op);
        }
        // The k fastest rows by the holder's bandwidth class; row order
        // breaks ties, so on a uniform LAN the data rows are read first
        // and the decode is a plain reassembly.
        viable.sort_by_key(|&r| {
            let j = row_holders[r as usize].expect("viable rows resolved");
            (-self.peer_bw.class(self.nodes[j].addr.raw()), r)
        });
        viable.truncate(k);
        let slot_rows = viable;
        self.stats.striped_fetches += 1;
        self.telemetry.instant_args(
            "op",
            "fetch.ec_plan",
            op.id.0,
            self.now().as_nanos(),
            vec![
                ("object", ArgValue::from(op.name.as_str())),
                ("k", ArgValue::from(u64::from(layout.k))),
                ("m", ArgValue::from(u64::from(layout.m))),
                ("stripe_len", ArgValue::from(stripe_len)),
            ],
        );
        self.enter(op, Stage::FetchStriped);
        op.fetch_candidates.clear();
        op.stripe_sources.clear();
        op.stripes_total = k as u32;
        op.stripes_done = 0;
        op.ec_plan = Some(EcPlan {
            k: layout.k,
            stripe_len,
            row_holders: row_holders.clone(),
            slot_rows: slot_rows.clone(),
        });
        for (slot, &row) in slot_rows.iter().enumerate() {
            let holder = row_holders[row as usize].expect("viable rows resolved");
            self.stripe_issue_request(
                op,
                slot as u32,
                holder,
                u64::from(row) * stripe_len,
                stripe_len,
                false,
            );
        }
        None
    }

    /// Too few live stripe holders to decode: back off and retry until
    /// the deadline (a rebuild may restore rows, or holders rejoin),
    /// failing with [`OpError::StripesLost`] once the retry budget or
    /// deadline runs out.
    fn ec_fetch_backoff(&mut self, op: &mut Op) -> StepOutcome {
        op.ec_plan = None;
        let remaining = op
            .deadline
            .checked_duration_since(self.now())
            .unwrap_or_default();
        if remaining.is_zero() {
            return Some(Err(OpError::StripesLost(op.name.to_string())));
        }
        if !self.retry_budget_take(op.client, "fetch", op.name) {
            return Some(Err(OpError::StripesLost(op.name.to_string())));
        }
        let wait = op
            .backoff
            .mul_f64(self.rng.jitter_factor(BACKOFF_JITTER))
            .min(remaining)
            .max(Duration::from_millis(1));
        op.backoff = op.backoff.saturating_mul(2).min(MAX_FETCH_BACKOFF);
        self.enter_for(op, Stage::FetchRetry, wait)
    }

    /// One stripe slot of a coded read lost its source. Re-point the slot
    /// at a spare viable code row (one no slot is reading); with none
    /// left the decode cannot finish — the remaining slots are dropped
    /// and the fetch backs off.
    fn ec_slot_reassign(&mut self, op: &mut Op, slot: u32, why: &str) -> StepOutcome {
        let covered = op.stripe_flows.values().any(|f| f.stripe == slot)
            || op.stripe_requests.values().any(|r| r.stripe == slot);
        if covered {
            return None;
        }
        op.failovers += 1;
        self.stats.fetch_failovers += 1;
        self.telemetry.instant_args(
            "op",
            "fetch.failover",
            op.id.0,
            self.now().as_nanos(),
            vec![
                ("object", ArgValue::from(op.name.as_str())),
                ("stripe", ArgValue::from(u64::from(slot))),
            ],
        );
        let (row_holders, slot_rows, stripe_len) = {
            let plan = op.ec_plan.as_ref().expect("caller checked ec_plan");
            (
                plan.row_holders.clone(),
                plan.slot_rows.clone(),
                plan.stripe_len,
            )
        };
        let spare = (0..row_holders.len() as u32)
            .filter(|r| !slot_rows.contains(r))
            .find(|&r| self.ec_row_viable(op.client, op.name, row_holders[r as usize], r));
        match spare {
            Some(row) => {
                let holder = row_holders[row as usize].expect("viable row resolved");
                op.ec_plan.as_mut().expect("checked above").slot_rows[slot as usize] = row;
                self.telemetry.instant_args(
                    "op",
                    "fetch.stripe_reassign",
                    op.id.0,
                    self.now().as_nanos(),
                    vec![
                        ("object", ArgValue::from(op.name.as_str())),
                        ("stripe", ArgValue::from(u64::from(slot))),
                        ("row", ArgValue::from(u64::from(row))),
                        ("via", ArgValue::from(self.nodes[holder].name.as_str())),
                        ("why", ArgValue::from(why)),
                    ],
                );
                self.stripe_issue_request(
                    op,
                    slot,
                    holder,
                    u64::from(row) * stripe_len,
                    stripe_len,
                    false,
                );
                None
            }
            None => {
                let flows: Vec<FlowId> = op.stripe_flows.keys().copied().collect();
                for flow in flows {
                    self.stripe_drop_flow(op, flow);
                }
                op.stripe_requests.clear();
                op.stripes_total = 0;
                op.stripes_done = 0;
                self.ec_fetch_backoff(op)
            }
        }
    }

    /// Every stripe slot landed: gather the `k` shard byte windows from
    /// their holders, invert the code, and verify the decode against the
    /// original staged at conversion time before handing the object to
    /// the client channel.
    fn ec_decode_finish(&mut self, op: &mut Op) -> StepOutcome {
        let plan = op.ec_plan.take().expect("caller checked ec_plan");
        let k = plan.k as usize;
        let code = ErasureCode::new(k, plan.row_holders.len() - k);
        let mut survivors: Vec<(usize, Vec<u8>)> = Vec::with_capacity(k);
        for &row in &plan.slot_rows {
            let shard = plan.row_holders[row as usize]
                .filter(|&j| self.nodes[j].alive)
                .and_then(|j| {
                    self.nodes[j]
                        .objects
                        .get(&self.ec_stripe_name(op.name, row))
                })
                .map(|b| b.sample(usize::MAX));
            match shard {
                Some(s) => survivors.push((row as usize, s)),
                // A holder vanished in the final instant; re-plan.
                None => return self.ec_fetch_backoff(op),
            }
        }
        let Some(original) = self.ec_originals.get(&op.name).cloned() else {
            // The conversion registry lost the object (deleted or
            // re-stored mid-fetch); the stripes alone cannot serve it.
            return Some(Err(OpError::StripesLost(op.name.to_string())));
        };
        let window = original.sample(SAMPLE_WINDOW);
        let refs: Vec<(usize, &[u8])> = survivors.iter().map(|(r, s)| (*r, s.as_slice())).collect();
        let decoded = code
            .reconstruct_data(&refs)
            .map(|shards| code.assemble(&shards, window.len()));
        match decoded {
            Some(bytes) if bytes == window => {
                self.telemetry.add("fetch.ec_decodes", 1);
                op.staged = Some(original);
                self.fetch_channel_out(op)
            }
            _ => Some(Err(OpError::StripesLost(op.name.to_string()))),
        }
    }

    /// Removes the deleted object's bytes from its bin or bucket, charging
    /// the appropriate access costs.
    fn delete_remove_bytes(&mut self, op: &mut Op) -> StepOutcome {
        let meta = op.meta.clone().expect("set in DelMetaGet");
        // Expunge peer data replicas and the repair daemon's index entry
        // regardless of the primary's liveness.
        for key in &meta.replicas {
            if let Some(j) = self.node_index(*key) {
                self.nodes[j].evict(op.name);
            }
        }
        if self.config.adaptive.enabled {
            self.ec_scrub(op.name);
            self.object_heat.forget(op.name);
        }
        self.replicas.remove(op.name);
        match &meta.location {
            Location::Home { node } => {
                let Some(owner) = self.node_index(*node).filter(|&j| self.nodes[j].alive) else {
                    // Bytes are already unreachable; the metadata is gone,
                    // which is the user-visible effect.
                    return Some(Ok(OpOutput {
                        bytes: meta.size_bytes,
                        via_cloud: false,
                        exec_target: None,
                        summary: None,
                        listing: None,
                    }));
                };
                self.nodes[owner].evict(op.name);
                let latency = if owner == op.client {
                    Duration::ZERO
                } else {
                    self.net
                        .topology()
                        .message_latency(
                            self.nodes[op.client].addr,
                            self.nodes[owner].addr,
                            &mut self.rng,
                        )
                        .unwrap_or_default()
                        + self.config.timing.peer_request
                };
                let unlink = self.nodes[owner].disk.access_latency;
                self.enter_for(op, Stage::DelRemoveBytes, latency + unlink)
            }
            Location::Cloud { url } => {
                if let (Some(cloud), Some(url)) = (self.cloud.as_mut(), S3Url::parse(url)) {
                    let _ = cloud.s3.delete(&url);
                    op.via_cloud = true;
                }
                self.enter_for(op, Stage::DelRemoveBytes, REQUEST_LATENCY)
            }
        }
    }

    fn fetch_channel_out(&mut self, op: &mut Op) -> StepOutcome {
        let bytes = op.object_bytes();
        let channel = self.nodes[op.client].channel_transfer(bytes);
        self.enter_for(op, Stage::FetchChannelOut, channel)
    }

    // ------------------------------------------------------------------
    // Process helpers
    // ------------------------------------------------------------------

    fn absorb_resource_reply(&mut self, op: &mut Op, input: OpInput) {
        if let OpInput::Dht(DhtEvent::GetCompleted { value, .. }) = input {
            op.pending_gets = op.pending_gets.saturating_sub(1);
            if let Some(rec) = value
                .as_ref()
                .and_then(|v| Cloud4Home::decode_resource(v.latest()))
            {
                op.resources.push(rec);
            }
        }
    }

    /// Applies the paper's fetch+process short-circuits, then either pins
    /// or launches the resource-query decision.
    fn proc_resolve_placement(&mut self, op: &mut Op) -> StepOutcome {
        let kind = op.service.expect("process carries a service");
        let sid = ServiceId(kind.id());
        let record = op.svc_record.clone().expect("set in ProcMetaSvcGet");

        if op.kind == OpKind::FetchProcess && op.placement == Placement::Auto {
            // "It uses the service identifier to first determine if the
            // requesting node is capable of executing the service itself."
            if self.nodes[op.client].registry.provides(sid) {
                op.placement = Placement::Pin(NodeId(op.client));
            } else if let Some(Location::Home { node }) =
                op.meta.as_ref().map(|m| m.location.clone())
            {
                // "Otherwise, the object owner checks whether it is capable
                // of performing the required service."
                if let Some(owner) = self.node_index(node) {
                    if self.nodes[owner].alive && self.nodes[owner].registry.provides(sid) {
                        op.placement = Placement::Pin(NodeId(owner));
                    }
                }
            }
        }

        let provides_all = |reg: &c4h_services::ServiceRegistry, pipeline: &[ServiceKind]| {
            pipeline.iter().all(|k| reg.provides(ServiceId(k.id())))
        };
        match op.placement {
            Placement::Pin(node) => {
                if !self.nodes[node.0].alive
                    || !provides_all(&self.nodes[node.0].registry, &op.pipeline)
                {
                    return Some(Err(OpError::ServiceUnavailable(kind.id())));
                }
                op.exec_target = Some(ExecTarget::Node(node.0));
                self.enter_for(op, Stage::ProcDecide, LOCATE_TIME)
            }
            Placement::Cloud => {
                if self.cloud.is_none() || !record.cloud_available {
                    return Some(Err(OpError::ServiceUnavailable(kind.id())));
                }
                op.exec_target = Some(ExecTarget::Cloud);
                self.enter_for(op, Stage::ProcDecide, LOCATE_TIME)
            }
            Placement::Auto => {
                // Query each provider's resource record.
                self.charge(op);
                op.resources.clear();
                op.pending_gets = 0;
                // Live providers, as the keys of their resource records.
                let providers: Vec<Key> = record
                    .providers
                    .iter()
                    .filter_map(|k| self.node_index(*k).filter(|&j| self.nodes[j].alive))
                    .map(|j| self.nodes[j].resource_key)
                    .collect();
                if providers.is_empty() {
                    if record.cloud_available && self.cloud.is_some() {
                        op.exec_target = Some(ExecTarget::Cloud);
                        return self.enter_for(op, Stage::ProcDecide, LOCATE_TIME);
                    }
                    return Some(Err(OpError::ServiceUnavailable(kind.id())));
                }
                op.stage = Stage::ProcQueryResources;
                for key in providers {
                    op.pending_gets += 1;
                    self.dht_get_for_op(op.id, op.client, key);
                }
                None
            }
        }
    }

    /// Scores every candidate ("the time to locate the target node, the
    /// associated data movement costs … and the service processing
    /// requirements and execution time") and picks the winner.
    fn proc_choose_target(&mut self, op: &mut Op) -> StepOutcome {
        let kind = op.service.expect("process carries a service");
        let sid = ServiceId(kind.id());
        let record = op.svc_record.clone().expect("set in ProcMetaSvcGet");
        let size = op.object_bytes();
        let owner_addr = self.owner_addr(op);

        let mut candidates: Vec<Candidate<ExecTarget>> = Vec::new();
        for rec in &op.resources {
            let Some(j) = self.node_index(rec.node).filter(|&j| self.nodes[j].alive) else {
                continue;
            };
            // The candidate must provide every pipeline stage.
            let Some(demand) = combined_demand(&self.nodes[j].registry, &op.pipeline, size) else {
                continue;
            };
            let svc = self.nodes[j]
                .registry
                .get(sid)
                .cloned()
                .expect("combined_demand verified the first stage");
            let platform = self.nodes[j].machine.platform().clone();
            let vm = self.nodes[j].service_vm;
            candidates.push(Candidate {
                target: ExecTarget::Node(j),
                movement: self.estimate_transfer(owner_addr, self.nodes[j].addr, size),
                exec: estimate_exec(&demand, &platform, vm, rec.cpu_load),
                cpu_load: rec.cpu_load,
                battery_pct: rec.battery_pct,
                meets_min: meets_minimum(&svc.min_requirements(), &platform, vm),
            });
        }
        if record.cloud_available {
            if let Some(cloud) = &self.cloud {
                if let (Some(_), Some(demand)) = (
                    cloud.registry.get(sid),
                    combined_demand(&cloud.registry, &op.pipeline, size),
                ) {
                    let platform = cloud
                        .fleet
                        .iter()
                        .next()
                        .expect("fleet has an instance")
                        .machine
                        .platform()
                        .clone();
                    candidates.push(Candidate {
                        target: ExecTarget::Cloud,
                        movement: self.estimate_transfer(owner_addr, cloud.addr, size),
                        exec: estimate_exec(&demand, &platform, cloud.instance_vm, 0.15),
                        cpu_load: 0.15,
                        battery_pct: None,
                        meets_min: true,
                    });
                }
            }
        }
        let Some(winner) = choose(op.route, &candidates) else {
            return Some(Err(OpError::ServiceUnavailable(kind.id())));
        };
        op.exec_target = Some(candidates[winner].target);
        // Keep the runners-up, ranked by completion estimate, as failover
        // executors should the winner crash mid-operation.
        let mut rest: Vec<(Duration, ExecTarget)> = candidates
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != winner)
            .map(|(_, c)| (c.completion_estimate(), c.target))
            .collect();
        rest.sort_by_key(|(est, _)| *est);
        op.exec_candidates = rest.into_iter().map(|(_, t)| t).collect();
        self.enter_for(op, Stage::ProcDecide, LOCATE_TIME)
    }

    /// Re-dispatches a process operation to the next-best surviving
    /// decision candidate after its chosen executor failed. Restarts the
    /// pipeline from its first stage (partial results died with the
    /// executor).
    fn proc_redispatch(&mut self, op: &mut Op, why: &str) -> StepOutcome {
        while let Some(next) = op.exec_candidates.pop_front() {
            if Some(next) == op.exec_target {
                continue;
            }
            let viable = match next {
                ExecTarget::Node(j) => self.nodes[j].alive && self.node_reachable(op.client, j),
                ExecTarget::Cloud => self.cloud.is_some() && self.cloud_reachable(op.client),
            };
            if !viable {
                continue;
            }
            op.exec_target = Some(next);
            op.failovers += 1;
            self.stats.proc_redispatches += 1;
            let target_desc = match next {
                ExecTarget::Node(j) => self.nodes[j].name.clone(),
                ExecTarget::Cloud => "cloud".to_owned(),
            };
            self.telemetry.instant_args(
                "op",
                "proc.redispatch",
                op.id.0,
                self.now().as_nanos(),
                vec![
                    ("object", ArgValue::from(op.name.as_str())),
                    ("target", ArgValue::from(target_desc)),
                ],
            );
            op.pipeline_idx = 0;
            op.output = None;
            op.staged = None;
            return self.enter_for(op, Stage::ProcDecide, LOCATE_TIME);
        }
        Some(Err(OpError::ExecutorFailed(format!("{} ({why})", op.name))))
    }

    /// The address currently holding the object's bytes.
    fn owner_addr(&self, op: &Op) -> Addr {
        match op.meta.as_ref().map(|m| &m.location) {
            Some(Location::Home { node }) => self
                .node_index(*node)
                .map(|j| self.nodes[j].addr)
                .unwrap_or(self.nodes[op.client].addr),
            Some(Location::Cloud { .. }) => self
                .cloud
                .as_ref()
                .map(|c| c.addr)
                .unwrap_or(self.nodes[op.client].addr),
            None => self.nodes[op.client].addr,
        }
    }

    /// Stages the argument object: owner disk read, then a move flow when
    /// the execution target differs from the owner.
    fn proc_move_argument(&mut self, op: &mut Op) -> StepOutcome {
        let mut meta = op.meta.clone().expect("set in ProcMetaSvcGet");
        match &meta.location {
            Location::Home { node } => {
                // Stage from the first live holder: primary, then replicas.
                let holder = std::iter::once(*node)
                    .chain(meta.replicas.iter().copied())
                    .filter_map(|key| self.node_index(key))
                    .find(|&j| {
                        self.nodes[j].alive
                            && self.node_reachable(op.client, j)
                            && self.nodes[j].objects.contains_key(&op.name)
                    });
                let Some(owner) = holder else {
                    return Some(Err(OpError::OwnerUnreachable(op.name.to_string())));
                };
                let Some(blob) = self.nodes[owner].objects.get(&op.name).cloned() else {
                    return Some(Err(OpError::NotFound(op.name.to_string())));
                };
                // Record the effective holder so the move flow and movement
                // estimates use the copy actually being read. The displaced
                // primary stays in the replica set only while it is alive;
                // holders confirmed dead are pruned, and the updated record
                // is re-published so later fetches don't fail over through
                // a dead replica.
                let owner_key = self.nodes[owner].key;
                if owner_key != *node {
                    let old_primary = *node;
                    meta.replicas.retain(|k| *k != owner_key);
                    let old_alive = self
                        .node_index(old_primary)
                        .is_some_and(|j| self.nodes[j].alive);
                    if old_alive && !meta.replicas.contains(&old_primary) {
                        meta.replicas.push(old_primary);
                    }
                    meta.replicas
                        .retain(|k| self.node_index(*k).is_none_or(|j| self.nodes[j].alive));
                    meta.location = Location::Home { node: owner_key };
                    if self.replicas.get(meta.name).is_some() {
                        self.replicas.insert(meta.name, meta.clone());
                    }
                    self.publish_meta_background(op.client, meta.clone());
                } else {
                    meta.location = Location::Home { node: owner_key };
                }
                op.meta = Some(meta.clone());
                op.staged = Some(blob);
                let read = self.nodes[owner].disk.read_time(meta.size_bytes);
                self.enter_for(op, Stage::ProcReadArg, read)
            }
            Location::Cloud { url } => {
                let Some(url) = S3Url::parse(url) else {
                    return Some(Err(OpError::NotFound(op.name.to_string())));
                };
                let cloud = self.cloud.as_mut().expect("cloud location requires cloud");
                match cloud.s3.get(&url) {
                    Ok(obj) => {
                        op.staged = Some(obj.payload.clone());
                        op.via_cloud = true;
                        self.enter_for(op, Stage::ProcReadArg, REQUEST_LATENCY)
                    }
                    Err(_) => Some(Err(OpError::NotFound(op.name.to_string()))),
                }
            }
        }
    }

    fn proc_start_move_flow(&mut self, op: &mut Op) -> StepOutcome {
        let src = self.owner_addr(op);
        let dst = self.target_addr(op.exec_target.expect("target chosen"));
        if src == dst {
            return self.proc_start_exec(op);
        }
        self.enter(op, Stage::ProcMoveArg);
        self.start_flow_for_op(op.id, src, dst, op.object_bytes());
        None
    }

    fn target_addr(&self, target: ExecTarget) -> Addr {
        match target {
            ExecTarget::Node(j) => self.nodes[j].addr,
            ExecTarget::Cloud => self.cloud.as_ref().expect("cloud target").addr,
        }
    }

    fn target_name(&self, target: ExecTarget) -> String {
        match target {
            ExecTarget::Node(j) => self.nodes[j].name.clone(),
            ExecTarget::Cloud => "cloud".into(),
        }
    }

    fn proc_start_exec(&mut self, op: &mut Op) -> StepOutcome {
        let kind = op
            .pipeline
            .get(op.pipeline_idx)
            .copied()
            .or(op.service)
            .expect("process carries a service");
        let sid = ServiceId(kind.id());
        let target = op.exec_target.expect("target chosen");
        // The executor may have died or been cut off since it was chosen.
        match target {
            ExecTarget::Node(j) if !self.nodes[j].alive || !self.node_reachable(op.client, j) => {
                return self.proc_redispatch(op, "executor offline");
            }
            ExecTarget::Cloud if self.cloud.is_none() || !self.cloud_reachable(op.client) => {
                return self.proc_redispatch(op, "cloud unreachable");
            }
            _ => {}
        }
        let size = op.object_bytes();
        let (duration, demand) = match target {
            ExecTarget::Node(j) => {
                let svc = self.nodes[j]
                    .registry
                    .get(sid)
                    .cloned()
                    .expect("placement validated the service");
                let demand = svc.demand(size);
                let load =
                    self.nodes[j].sampler.active_tasks() as f64 + self.config.nodes[j].ambient_load;
                let d = estimate_exec(
                    &demand,
                    &self.nodes[j].machine.platform().clone(),
                    self.nodes[j].service_vm,
                    load,
                );
                self.nodes[j]
                    .sampler
                    .task_started(demand.exec.mem_required_mib);
                (d, demand)
            }
            ExecTarget::Cloud => {
                let cloud = self.cloud.as_mut().expect("cloud target");
                let svc = cloud
                    .registry
                    .get(sid)
                    .cloned()
                    .expect("placement validated the service");
                let demand = svc.demand(size);
                let platform = cloud
                    .fleet
                    .iter()
                    .next()
                    .expect("fleet has an instance")
                    .machine
                    .platform()
                    .clone();
                let load = cloud.active_tasks as f64 * 0.2 + 0.15;
                let d = estimate_exec(&demand, &platform, cloud.instance_vm, load);
                cloud.active_tasks += 1;
                (d, demand)
            }
        };
        op.exec_demand = Some(demand);
        self.enter_for(op, Stage::ProcExec, duration)
    }

    fn proc_finish_exec(&mut self, op: &mut Op) -> StepOutcome {
        let kind = op
            .pipeline
            .get(op.pipeline_idx)
            .copied()
            .or(op.service)
            .expect("process carries a service");
        let sid = ServiceId(kind.id());
        let target = op.exec_target.expect("target chosen");
        let demand = op.exec_demand.expect("set at exec start");
        // The executor crashed mid-execution: the partial work died with
        // it, so re-dispatch to the next-best candidate.
        if let ExecTarget::Node(j) = target {
            if !self.nodes[j].alive {
                return self.proc_redispatch(op, "executor crashed");
            }
        }
        // Release the execution slot and run the real kernel on the staged
        // sample.
        let output = match target {
            ExecTarget::Node(j) => {
                self.nodes[j]
                    .sampler
                    .task_finished(demand.exec.mem_required_mib);
                let svc = self.nodes[j].registry.get(sid).cloned().expect("deployed");
                svc.run_traced(
                    &op.staged
                        .as_ref()
                        .expect("argument staged")
                        .sample(SAMPLE_WINDOW),
                )
            }
            ExecTarget::Cloud => {
                let cloud = self.cloud.as_mut().expect("cloud target");
                cloud.active_tasks = cloud.active_tasks.saturating_sub(1);
                let svc = cloud.registry.get(sid).cloned().expect("deployed");
                svc.run_traced(
                    &op.staged
                        .as_ref()
                        .expect("argument staged")
                        .sample(SAMPLE_WINDOW),
                )
            }
        };
        op.result_bytes = demand.output_bytes.max(output.data.len() as u64);
        op.output = Some(output);
        // Pipeline: run the next service at the same target, no re-movement.
        if op.pipeline_idx + 1 < op.pipeline.len() {
            op.pipeline_idx += 1;
            return self.proc_start_exec(op);
        }
        // Return the result to the requester.
        let src = self.target_addr(target);
        let dst = self.nodes[op.client].addr;
        if src == dst {
            self.proc_channel_out(op)
        } else {
            self.enter(op, Stage::ProcMoveResult);
            self.start_flow_for_op(op.id, src, dst, op.result_bytes);
            None
        }
    }

    fn proc_channel_out(&mut self, op: &mut Op) -> StepOutcome {
        let channel = self.nodes[op.client].channel_transfer(op.result_bytes);
        self.enter_for(op, Stage::ProcChannelOut, channel)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The stage table is an export format: span names, `phase.*_ns`
    /// histogram names and `stats.crit_*` shares are hashed into the golden
    /// digests, and `Breakdown` is Table I. This is the frozen copy.
    #[test]
    fn stage_table_is_frozen() {
        // (span name, Breakdown column, bucket, bucket when via_cloud)
        let frozen: [(&str, &str, &str, &str); 38] = [
            ("store.channel_in", "InterDomain", "other", "other"),
            ("store.query_peers", "Decision", "dht", "dht"),
            ("store.flow_to_peer", "InterNode", "lan", "lan"),
            ("store.disk_write", "Disk", "disk", "disk"),
            ("store.fanout", "InterNode", "lan", "lan"),
            ("store.replica_flow", "-", "other", "other"),
            ("store.replica_write", "-", "other", "other"),
            ("store.flow_to_cloud", "InterNode", "wan", "wan"),
            ("store.cloud_put", "InterNode", "wan", "wan"),
            ("store.meta_put", "Dht", "dht", "dht"),
            ("store.dir_put", "Dht", "dht", "dht"),
            ("store.ack", "InterDomain", "other", "other"),
            ("fetch.channel_in", "InterDomain", "other", "other"),
            ("fetch.meta_get", "Dht", "dht", "dht"),
            ("fetch.owner_request", "-", "lan", "lan"),
            ("fetch.flow_home", "InterNode", "lan", "lan"),
            ("fetch.striped", "InterNode", "lan", "wan"),
            ("fetch.retry_wait", "InterNode", "backoff", "backoff"),
            ("fetch.cloud_request", "InterNode", "wan", "wan"),
            ("fetch.flow_cloud", "InterNode", "wan", "wan"),
            ("fetch.disk_local", "Disk", "disk", "disk"),
            ("fetch.channel_out", "InterDomain", "other", "other"),
            ("delete.channel_in", "InterDomain", "other", "other"),
            ("delete.meta_get", "Dht", "dht", "dht"),
            ("delete.dht_delete", "Dht", "dht", "dht"),
            ("delete.remove_bytes", "Disk", "disk", "disk"),
            ("delete.dir_put", "Dht", "dht", "dht"),
            ("list.channel_in", "InterDomain", "other", "other"),
            ("list.dir_get", "Dht", "dht", "dht"),
            ("proc.channel_in", "InterDomain", "other", "other"),
            ("proc.meta_svc_get", "Dht", "dht", "dht"),
            ("proc.query_resources", "Decision", "dht", "dht"),
            ("proc.decide", "Decision", "other", "other"),
            ("proc.read_arg", "Disk", "disk", "disk"),
            ("proc.move_arg", "InterNode", "lan", "lan"),
            ("proc.exec", "Exec", "service", "service"),
            ("proc.move_result", "InterNode", "lan", "lan"),
            ("proc.channel_out", "InterDomain", "other", "other"),
        ];
        for (row, want) in STAGES.iter().zip(frozen) {
            let stage = row.stage;
            let column = row.column.map_or("-".to_owned(), |c| format!("{c:?}"));
            let got = (
                row.name,
                column.as_str(),
                stage.bucket(false).label(),
                stage.bucket(true).label(),
            );
            assert_eq!(got, want);
            assert_eq!(row.hist, ["phase.", row.name, "_ns"].concat());
            // Names are unique: the first row with this name is this row.
            assert_eq!(Stage::from_name(row.name), Some(stage));
        }
        assert_eq!(Stage::from_name("not.a.stage"), None);
    }

    #[test]
    fn op_kind_table_is_frozen_and_in_name_order() {
        let names: Vec<&str> = OpKind::all().map(OpKind::name).collect();
        assert_eq!(
            names,
            [
                "delete",
                "fetch",
                "fetch_process",
                "list",
                "pipeline",
                "process",
                "store"
            ]
        );
        assert!(names.windows(2).all(|w| w[0] < w[1]));
        for kind in OpKind::all() {
            assert_eq!(OpKind::from_name(kind.name()), Some(kind));
        }
        assert_eq!(OpKind::from_name("fetchh"), None);
        let fetch = OpKind::Fetch.info();
        assert_eq!(
            [
                fetch.ok,
                fetch.err,
                fetch.total_ns,
                fetch.shed,
                fetch.slo_violation
            ],
            [
                "op.fetch.ok",
                "op.fetch.err",
                "op.fetch.total_ns",
                "shed.fetch",
                "slo.violation.fetch"
            ]
        );
    }
}
