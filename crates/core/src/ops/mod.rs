//! The VStore++ operation state machines.
//!
//! Each client operation — store, fetch, process, fetch+process, delete,
//! list — advances through explicit stages driven by runtime events:
//! wakeups after charged delays (command handling, XenSocket copies, disk
//! accesses, service execution), bulk-flow completions, and DHT
//! completions. The stages mirror the paper's §III-B operation
//! descriptions, and every stage attributes its elapsed virtual time to a
//! [`Breakdown`] component so the harness can regenerate Table I.
//!
//! # Layout
//!
//! The paper describes `store`, `fetch` and `process` as three separate
//! staged procedures, and so does this module: an [`Op`] is a shared
//! [`OpCore`] plus the state of exactly one family.
//!
//! * **This file** owns what every kind shares: the [`Stage`] and
//!   [`OpKind`] tables, admission ([`Cloud4Home::submit`]), the driver
//!   ([`Cloud4Home::op_continue`], the DHT-retry intercept), the one place
//!   time is accounted ([`Cloud4Home::charge`] via `enter` / `enter_for`),
//!   completion ([`Cloud4Home::complete_op`]), the [`OpTable`] of ids,
//!   parked ops and reports — and the two kinds too small
//!   to have a state of their own, delete and list.
//! * [`store`], [`fetch`] and [`process`] each own their family's state
//!   (`Store`, `Fetch`, `Process`), its public entry points and its stage
//!   arms. The one `match` in `op_step` hands a family its state by
//!   reference, so a store helper cannot be reached with a fetch's op and
//!   no accessor has to panic on the wrong kind.
//!
//! # What a family owes the core
//!
//! * `step(core, state, input)` — advance on one input; `Some` completes.
//! * `severed(core, state, flow, why)` — one of the op's transfers was cut
//!   by a crash or partition: charge the path's breaker, then recover
//!   (fail over, skip the target, spill, re-dispatch) or fail the op.
//! * `abandon(state)` — the op is completing with work still in flight
//!   (its client crashed, its deadline ran out): cancel every transfer the
//!   state still tracks. After it, nothing in the flow table names the op.

mod fetch;
mod process;
mod store;

use std::collections::VecDeque;
use std::time::Duration;

use c4h_chimera::{DhtEvent, Key};
use c4h_cloud::{S3Url, REQUEST_LATENCY};
use c4h_kvstore::{
    directory_key, object_key, parent_dir, DirEntry, Location, ObjectMeta, Record, ResourceRecord,
};
use c4h_simnet::{FlowId, FxHashMap, SimTime, Sym};
use c4h_telemetry::{Arg, ArgValue, CauseKind, LEDGER_NONE};

use crate::config::NodeId;
use crate::health::{attribute, PathRow};
use crate::overload::{AdmitDecision, RetrySite};
use crate::report::{
    Breakdown, Column, OpError, OpId, OpOutput, OpReport, PathAttribution, PathBucket, StageSpan,
};
use crate::runtime::Cloud4Home;

pub use process::{ExecTarget, Placement};

/// Size of a command packet on the guest ↔ dom0 channel ("commands are
/// usually less than 50 bytes").
const COMMAND_BYTES: u64 = 48;

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
    /// The stages an op of this kind can charge: its family's rows of the
    /// stage table, fan-out sub-stages left out. What its stage log
    /// reserves, so an op without retries logs without regrowing.
    stages: usize,
    /// Counters `op.<kind>.ok` / `op.<kind>.err`.
    ok: &'static str,
    err: &'static str,
    /// Histogram `op.<kind>.total_ns`.
    pub(crate) total_ns: &'static str,
    /// Counter `shed.<kind>`.
    shed: &'static str,
    /// Counter `slo.violation.<kind>`.
    slo_violation: &'static str,
}

macro_rules! kind_row {
    ($kind:ident, $name:literal, $first:ident, $stages:literal) => {
        OpKindInfo {
            kind: OpKind::$kind,
            name: $name,
            first: Stage::$first,
            stages: $stages,
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
    kind_row!(Delete, "delete", DelChannelIn, 5),
    kind_row!(Fetch, "fetch", FetchChannelIn, 10),
    kind_row!(FetchProcess, "fetch_process", ProcChannelIn, 9),
    kind_row!(List, "list", ListChannelIn, 2),
    kind_row!(Pipeline, "pipeline", ProcChannelIn, 9),
    kind_row!(Process, "process", ProcChannelIn, 9),
    kind_row!(Store, "store", StoreChannelIn, 10),
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

/// What every in-flight operation carries, whatever its kind.
#[derive(Debug)]
struct OpCore {
    id: OpId,
    kind: OpKind,
    client: usize,
    submitted: SimTime,
    name: Sym,
    stage: Stage,
    breakdown: Breakdown,
    phase_started: SimTime,
    /// The object's metadata: read by a fetch, process or delete, built by
    /// a store before it publishes.
    meta: Option<ObjectMeta>,
    via_cloud: bool,
    /// Metadata-request retries consumed (lossy-network recovery).
    retries: u8,
    /// Failover redirects taken (replica fetches, executor re-dispatches).
    failovers: u32,
    /// Replica copies a store could not place (too few live peers, or a
    /// replica flow died with no substitute).
    partial_replication: u32,
    /// Absolute recovery deadline; failovers past it fail with `Timeout`.
    deadline: SimTime,
    /// Sequential stage spans recorded while tracing or the causal ledger
    /// is on; the critical-path analyzer buckets them at completion and a
    /// ledger-on report takes them, for the explain plane to tile into the
    /// op's DAG. Empty when both are disabled.
    stage_log: Vec<StageSpan>,
    /// Whether the overload plane rejected this op at admission. Shed ops
    /// never held a tenant slot and never enter the SLO windows.
    shed: bool,
    /// Causal link carried between ledger events of the same recovery
    /// chain (a transfer failure feeding the backoff it induces, a retry
    /// chaining to the previous retry). `LEDGER_NONE` when the next
    /// decision recorded is a root.
    ledger_cause: u32,
}

impl OpCore {
    /// Size of the object per its metadata (0 before the metadata is in).
    fn meta_bytes(&self) -> u64 {
        self.meta.as_ref().map_or(0, |m| m.size_bytes)
    }

    /// The output of an op that only moved (or removed) `bytes` of object.
    fn bytes_output(&self, bytes: u64) -> OpOutput {
        OpOutput {
            bytes,
            via_cloud: self.via_cloud,
            exec_target: None,
            summary: None,
            listing: None,
        }
    }
}

/// One in-flight operation: the shared core and its family's state.
#[derive(Debug)]
pub(crate) struct Op {
    core: OpCore,
    family: Family,
}

/// The typed state of an op's family, held inline: an op costs no
/// allocation for being of one kind rather than another.
#[derive(Debug)]
#[allow(clippy::large_enum_variant)]
enum Family {
    Store(store::Store),
    Fetch(fetch::Fetch),
    Process(process::Process),
    /// Delete and list carry nothing beyond the core.
    Plain,
}

/// A round of resource-record lookups, one per queried node, and the
/// records that came back. A reply lost to a timeout is simply missing:
/// whoever answered is scored.
#[derive(Debug, Default)]
struct ResourceQuery {
    pending: usize,
    records: Vec<ResourceRecord>,
}

impl ResourceQuery {
    /// Folds one lookup completion in, decoding through `home`.
    fn absorb(&mut self, input: OpInput, home: &Cloud4Home) {
        if let OpInput::Dht(DhtEvent::GetCompleted { value, .. }) = input {
            self.pending = self.pending.saturating_sub(1);
            let record = value.as_ref().map(|v| home.decode_record(v.latest()));
            if let Some(Ok(Record::Resource(rec))) = record {
                self.records.push(rec);
            }
        }
    }
}

/// Maximum metadata-request retries per operation.
const MAX_DHT_RETRIES: u8 = 2;

/// Per-operation recovery deadline: failover loops past this fail with
/// [`OpError::Timeout`] instead of retrying forever.
const OP_DEADLINE: Duration = Duration::from_secs(60);

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

/// Every op the runtime has handed an id: the ones in flight and the
/// completed reports.
///
/// An op in flight is parked here between inputs and taken out for each
/// step, so what is parked is what is in flight. A report is filed once,
/// at completion. Only the newest `Config::explain_ring` reports that
/// carry explain detail keep it: filing one more releases the oldest one's
/// stage spans and causal chain, while its outcome and breakdown stay.
#[derive(Debug, Default)]
pub(crate) struct OpTable {
    live: FxHashMap<OpId, Op>,
    reports: FxHashMap<OpId, OpReport>,
    last_id: u64,
    /// Reports still holding explain detail, oldest first.
    detailed: VecDeque<OpId>,
}

impl OpTable {
    /// The next op id; the first is 1.
    fn alloc(&mut self) -> OpId {
        self.last_id += 1;
        OpId(self.last_id)
    }

    /// Parks an op until its next input.
    fn park(&mut self, op: Op) {
        self.live.insert(op.core.id, op);
    }

    /// Takes a parked op out to step it.
    fn take(&mut self, id: OpId) -> Option<Op> {
        self.live.remove(&id)
    }

    /// How many ops are in flight.
    pub(crate) fn in_flight(&self) -> usize {
        self.live.len()
    }

    /// Whether `id` is in flight or has a report.
    pub(crate) fn knows(&self, id: OpId) -> bool {
        self.reports.contains_key(&id) || self.live.contains_key(&id)
    }

    pub(crate) fn report(&self, id: OpId) -> Option<&OpReport> {
        self.reports.get(&id)
    }

    /// Every report not yet taken, in no particular order.
    pub(crate) fn reports(&self) -> impl Iterator<Item = &OpReport> {
        self.reports.values()
    }

    pub(crate) fn take_report(&mut self, id: OpId) -> Option<OpReport> {
        self.reports.remove(&id)
    }

    /// Files a completed op's report; past `explain_ring` detailed
    /// reports, the oldest one's detail is released.
    fn file(&mut self, report: OpReport, explain_ring: usize) {
        if !report.stages.is_empty() || !report.ledger.is_empty() {
            self.detailed.push_back(report.id);
        }
        self.reports.insert(report.id, report);
        while self.detailed.len() > explain_ring {
            let oldest = self.detailed.pop_front();
            if let Some(r) = oldest.and_then(|old| self.reports.get_mut(&old)) {
                r.stages = Vec::new();
                r.ledger = Vec::new();
            }
        }
    }
}

impl Cloud4Home {
    // ------------------------------------------------------------------
    // Public operation API (store, fetch and process submit from their
    // own modules)
    // ------------------------------------------------------------------

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
        let op = self.new_op(OpKind::Delete, client, Sym::new(name), Family::Plain);
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
        let op = self.new_op(OpKind::List, client, Sym::new(dir), Family::Plain);
        self.submit(op, COMMAND_BYTES)
    }

    /// Builds the op a live `client` is submitting, in its kind's first
    /// stage.
    fn new_op(&mut self, kind: OpKind, client: NodeId, name: Sym, family: Family) -> Op {
        assert!(client.0 < self.nodes.len(), "no such node {client}");
        assert!(self.nodes[client.0].alive, "{client} is offline");
        let now = self.now();
        let core = OpCore {
            id: self.ops.alloc(),
            kind,
            client: client.0,
            submitted: now,
            name,
            stage: kind.info().first,
            breakdown: Breakdown::default(),
            phase_started: now,
            meta: None,
            via_cloud: false,
            retries: 0,
            failovers: 0,
            partial_replication: 0,
            deadline: now + OP_DEADLINE,
            stage_log: Vec::new(),
            shed: false,
            ledger_cause: LEDGER_NONE,
        };
        Op { core, family }
    }

    /// Puts a new op through admission and, if admitted, starts it: its
    /// first stage lasts until `channel_bytes` have crossed the guest →
    /// dom0 channel and the command is processed.
    fn submit(&mut self, op: Op, channel_bytes: u64) -> OpId {
        let id = op.core.id;
        let Some(op) = self.admit_gate(op) else {
            return id;
        };
        let channel = self.config.nodes[op.core.client]
            .channel
            .transfer_time(channel_bytes);
        self.wake_in(id, self.config.timing.command_proc + channel);
        self.ops.park(op);
        self.ensure_tick();
        id
    }

    /// Runs the overload plane's admission check for a newly built op.
    /// Admitted ops are handed back for normal dispatch; rejected ops
    /// complete immediately as [`OpError::Overloaded`] — a fast-fail whose
    /// report is available to the caller at once, with no channel transfer,
    /// queueing, or deadline attrition.
    fn admit_gate(&mut self, mut op: Op) -> Option<Op> {
        let core = &mut op.core;
        match self
            .overload
            .admit(core.kind, core.client, self.now().as_nanos())
        {
            AdmitDecision::Admitted => {
                self.ledger_op(core.id, CauseKind::Admit, LEDGER_NONE, 0, 0);
                Some(op)
            }
            AdmitDecision::Shed(reason) => {
                core.shed = true;
                self.ledger_op(core.id, CauseKind::Shed, LEDGER_NONE, reason as u64, 0);
                self.stats.ops_shed += 1;
                self.telemetry.add(core.kind.info().shed, 1);
                let tenant = self.nodes[core.client].name_sym.as_str();
                self.telemetry.instant_args(
                    "overload",
                    "shed.drop",
                    core.id.0,
                    self.now().as_nanos(),
                    [
                        ("kind", ArgValue::from(core.kind.name())),
                        ("reason", ArgValue::from(reason.label())),
                        ("object", ArgValue::from(core.name.as_str())),
                        ("tenant", ArgValue::from(tenant)),
                    ],
                );
                let name = core.name.to_string();
                self.complete_op(op, Err(OpError::Overloaded(name)));
                None
            }
        }
    }

    // ------------------------------------------------------------------
    // State machine driver
    // ------------------------------------------------------------------

    /// Reroutes an operation whose bulk transfer was severed by a crash or
    /// partition, through its family's `severed`: fetches fail over to the
    /// next live replica, store replica fan-outs skip the lost target, peer
    /// stores spill to the cloud, and process moves re-dispatch to the
    /// next-best executor. Stages with no recovery path fail the operation.
    pub(crate) fn transfer_failed(&mut self, id: OpId, flow: FlowId, why: &str) {
        let Some(mut op) = self.ops.take(id) else {
            return;
        };
        let Op { core, family } = &mut op;
        self.op_instant(core, "op.transfer_failed", || {
            [
                ("stage", ArgValue::from(core.stage.info().name)),
                ("why", ArgValue::from(why.to_owned())),
            ]
        });
        // Causal ledger: the severed transfer is the inducing event for
        // whatever recovery decision follows in this call chain.
        let cause = std::mem::take(&mut core.ledger_cause);
        core.ledger_cause = self.ledger_op(id, CauseKind::TransferFailed, cause, flow.raw(), 0);
        let outcome = if !self.nodes[core.client].alive {
            // The requesting client itself is gone; nobody to recover for.
            Some(Err(OpError::OwnerUnreachable(why.to_owned())))
        } else {
            match family {
                Family::Store(st) => self.store_severed(core, st, flow, why),
                Family::Fetch(f) => self.fetch_severed(core, f, flow, why),
                Family::Process(p) => self.proc_severed(core, p, why),
                Family::Plain => Some(Err(OpError::OwnerUnreachable(why.to_owned()))),
            }
        };
        self.settle(op, outcome);
    }

    pub(crate) fn op_continue(&mut self, id: OpId, input: OpInput) {
        let Some(mut op) = self.ops.take(id) else {
            return;
        };
        let outcome = self.op_step(&mut op, input);
        self.settle(op, outcome);
    }

    /// Completes a stepped op, or parks it again to wait for its next
    /// input.
    fn settle(&mut self, op: Op, outcome: StepOutcome) {
        match outcome {
            Some(result) => self.complete_op(op, result),
            None => self.ops.park(op),
        }
    }

    fn complete_op(&mut self, op: Op, outcome: Result<OpOutput, OpError>) {
        let Op {
            core: op,
            mut family,
        } = op;
        // An op failing with transfers still in the air (e.g. its client
        // crashed) abandons them: nobody is left to publish a replica or
        // take a stripe.
        match &mut family {
            Family::Store(st) => self.store_abandon(st),
            Family::Fetch(f) => self.abandon_stripes(&op, f),
            Family::Process(_) | Family::Plain => {}
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
                [
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
                let args = [
                    ("kind", ArgValue::from(kind.name)),
                    ("p99_ns", ArgValue::from(breach.p99_ns)),
                    ("slo_ns", ArgValue::from(breach.slo_ns)),
                ];
                let ledger = (breach_seq != LEDGER_NONE)
                    .then(|| ("ledger", ArgValue::from(u64::from(breach_seq))));
                self.telemetry.instant_args(
                    "health",
                    "slo.violation",
                    op.id.0,
                    now.as_nanos(),
                    args.into_iter().chain(ledger),
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
                        .map(|s| (s.name(), s.start_ns, s.end_ns))
                        .collect();
                    self.health.flight.record(
                        now.as_nanos(),
                        op.id.0,
                        kind.name,
                        op.name.as_str(),
                        e.label(),
                        op.submitted.as_nanos(),
                        stages,
                        &self.telemetry,
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
        // Explain plane: completed with the ledger on, the report takes
        // the op's stage log and causal chain so the critical-path DAG can
        // be materialized after the fact. The per-op ring is consumed
        // (moved, not copied) either way, so disabled runs leak nothing.
        let (stages, ledger) = if self.ledger.enabled() {
            let events = self.ledger.finish_with(op.id.0, <[_]>::to_vec);
            (op.stage_log, events)
        } else {
            self.ledger.discard(op.id.0);
            (Vec::new(), Vec::new())
        };
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
        self.ops.file(report, self.config.explain_ring);
    }

    /// Closes the stage `op.stage` at the current instant and returns the
    /// time it took. This is the one place an op's time is accounted: the
    /// elapsed time goes to the stage's Table-I column and — while tracing
    /// or the causal ledger is on — becomes a child span on the op's track,
    /// a sample of the stage's latency histogram and an entry of the op's
    /// stage log, from which the critical path and the explain DAG derive.
    /// Zero-length closes — bookkeeping transitions within one event — do
    /// nothing, so traces show only stages that consumed virtual time.
    fn charge(&self, op: &mut OpCore) -> Duration {
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
            if op.stage_log.capacity() == 0 {
                op.stage_log.reserve_exact(op.kind.info().stages);
            }
            op.stage_log.push(StageSpan {
                stage: op.stage,
                start_ns,
                end_ns,
            });
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
    fn enter(&self, op: &mut OpCore, next: Stage) {
        self.charge(op);
        op.stage = next;
    }

    /// Enters `next`, a stage that lasts `duration`: the op is woken when
    /// it is over.
    fn enter_for(&mut self, op: &mut OpCore, next: Stage, duration: Duration) -> StepOutcome {
        self.enter(op, next);
        self.wake_in(op.id, duration);
        None
    }

    /// Marks a decision of the op's machine on the op's own track, at the
    /// current instant. `args` runs only while recording is on: with it
    /// off, an instant costs the recorder's one relaxed load, not the
    /// strings of its payload.
    fn op_instant<A: IntoIterator<Item = Arg>>(
        &self,
        op: &OpCore,
        name: &'static str,
        args: impl FnOnce() -> A,
    ) {
        if self.telemetry.enabled() {
            self.telemetry
                .instant_args("op", name, op.id.0, self.now().as_nanos(), args());
        }
    }

    /// Counts, traces and stamps on the op's ledger one reissue of the
    /// metadata request `op.stage` waits on.
    fn note_dht_retry(&mut self, op: &mut OpCore) {
        op.retries += 1;
        self.stats.dht_retries += 1;
        if self.telemetry.enabled() {
            self.telemetry.instant_args(
                "dht",
                "dht.retry",
                op.id.0,
                self.now().as_nanos(),
                [
                    ("stage", ArgValue::from(op.stage.info().name)),
                    ("retries", ArgValue::from(u64::from(op.retries))),
                ],
            );
        }
        // Retries chain retry-to-retry: the first is a root, each
        // subsequent one links to its predecessor.
        let cause = std::mem::take(&mut op.ledger_cause);
        op.ledger_cause =
            self.ledger_op(op.id, CauseKind::DhtRetry, cause, u64::from(op.retries), 0);
    }

    /// Stamps a retry the node's budget denied on the op's ledger, chained
    /// to what caused it.
    fn note_retry_denied(&mut self, op: &mut OpCore, site: RetrySite) {
        let cause = std::mem::take(&mut op.ledger_cause);
        self.ledger_op(op.id, CauseKind::RetryDenied, cause, site as u64, 0);
    }

    /// Starts a round of resource-record lookups from the op's client.
    fn query_resources(&mut self, op: &OpCore, query: &mut ResourceQuery, keys: Vec<Key>) {
        query.records.clear();
        query.pending = keys.len();
        for key in keys {
            self.dht_get_for_op(op.id, op.client, key);
        }
    }

    fn op_step(&mut self, op: &mut Op, input: OpInput) -> StepOutcome {
        let Op { core, family } = op;
        // Lossy-network recovery: a timed-out metadata request is reissued
        // (bounded) instead of failing the operation. The per-op cap keeps
        // one op from looping; the node-level retry budget (overload plane)
        // keeps a whole node's ops from amplifying a sick DHT.
        if dht_timed_out(&input) {
            let op = &mut *core;
            if op.retries < MAX_DHT_RETRIES {
                let budgeted = self.retry_budget_take(op.client, RetrySite::Dht, op.name);
                if budgeted && self.retry_dht(op) {
                    self.note_dht_retry(op);
                    return None;
                }
                if !budgeted {
                    self.note_retry_denied(op, RetrySite::Dht);
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
        match family {
            Family::Store(st) => self.store_step(core, st, input),
            Family::Fetch(f) => self.fetch_step(core, f, input),
            Family::Process(p) => self.proc_step(core, p, input),
            Family::Plain => self.plain_step(core, input),
        }
    }

    /// Enters `stage` — `StoreDirPut` or `DelDirPut` — by appending the
    /// object (for a delete, its tombstone) to its directory's entry chain.
    fn dir_entry_put(&mut self, op: &mut OpCore, stage: Stage) {
        let entry = DirEntry {
            name: op.name,
            tombstone: stage == Stage::DelDirPut,
        };
        let dir = parent_dir(op.name.as_str());
        op.stage = stage;
        self.dht_chain_for_op(op.id, op.client, directory_key(dir), entry.encode());
    }

    /// Reissues the metadata request the current stage is waiting on.
    /// Returns `false` for stages that tolerate missing replies themselves.
    fn retry_dht(&mut self, op: &mut OpCore) -> bool {
        match op.stage {
            Stage::FetchMetaGet | Stage::DelMetaGet => {
                self.dht_get_for_op(op.id, op.client, object_key(op.name.as_str()));
                true
            }
            Stage::StoreMetaPut => {
                let meta = op.meta.clone().expect("set before the put");
                let bytes = self.encode_record(&Record::Object(meta));
                self.dht_put_for_op(op.id, op.client, object_key(op.name.as_str()), bytes);
                true
            }
            Stage::StoreDirPut | Stage::DelDirPut => {
                self.dir_entry_put(op, op.stage);
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
    // Delete and list: the two kinds with no state beyond the core
    // ------------------------------------------------------------------

    fn plain_step(&mut self, op: &mut OpCore, input: OpInput) -> StepOutcome {
        match op.stage {
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
                    .and_then(|v| self.decode_record(v.latest()).ok())
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
                self.dir_entry_put(op, Stage::DelDirPut);
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
                Some(Ok(op.bytes_output(op.meta_bytes())))
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
            // Stages of the three families are never current on these ops.
            _ => None,
        }
    }

    /// Removes the deleted object's bytes from its bin or bucket, charging
    /// the appropriate access costs.
    fn delete_remove_bytes(&mut self, op: &mut OpCore) -> StepOutcome {
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
                if let (Some(cloud), Some(url)) = (self.cloud.as_mut(), S3Url::parse(url.as_str()))
                {
                    let _ = cloud.s3.delete(&url);
                    op.via_cloud = true;
                }
                self.enter_for(op, Stage::DelRemoveBytes, REQUEST_LATENCY)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An op is moved out of and back into the op table on every step, and
    /// its family's state is held inline (1 224 bytes when every kind
    /// carried every field).
    #[test]
    fn op_is_no_larger_than_its_largest_family() {
        assert!(std::mem::size_of::<Op>() <= 720);
    }

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
            assert_eq!(STAGES.iter().filter(|r| r.name == row.name).count(), 1);
        }
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
