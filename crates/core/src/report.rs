//! Operation reports and cost breakdowns.
//!
//! Every VStore++ operation completes with an [`OpReport`] carrying the
//! virtual-time cost breakdown the paper's Table I tabulates: total time,
//! inter-node transfer, inter-domain (XenSocket) transfer, DHT metadata
//! access — plus the decision and execution components that Figures 7–8
//! analyze.

use std::time::Duration;

use c4h_chimera::DhtError;
use c4h_simnet::{SimTime, Sym};
use c4h_telemetry::PathBucket;
use serde::{Deserialize, Serialize};

/// Correlates a submitted operation with its report.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct OpId(pub u64);

impl std::fmt::Display for OpId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "op#{}", self.0)
    }
}

/// Where time went during an operation (Table I's columns and more).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct Breakdown {
    /// Guest VM ↔ dom0 shared-memory channel time ("inter domain").
    pub inter_domain: Duration,
    /// Node ↔ node and home ↔ cloud data movement ("inter node").
    pub inter_node: Duration,
    /// Metadata key-value store access time ("DHT lookup").
    pub dht: Duration,
    /// Placement decision time (resource queries + scoring).
    pub decision: Duration,
    /// Local file-system time at whichever node held the bytes.
    pub disk: Duration,
    /// Service execution time.
    pub exec: Duration,
}

/// One [`Breakdown`] component: the Table-I column a stage charges its
/// elapsed time to (see the stage table in `ops/mod.rs`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Column {
    InterDomain,
    InterNode,
    Dht,
    Decision,
    Disk,
    Exec,
}

impl Breakdown {
    /// Adds `elapsed` to one component.
    pub(crate) fn add(&mut self, column: Column, elapsed: Duration) {
        *match column {
            Column::InterDomain => &mut self.inter_domain,
            Column::InterNode => &mut self.inter_node,
            Column::Dht => &mut self.dht,
            Column::Decision => &mut self.decision,
            Column::Disk => &mut self.disk,
            Column::Exec => &mut self.exec,
        } += elapsed;
    }

    /// The sum of all accounted components (the remainder of an operation's
    /// total is queueing plus command processing).
    pub fn accounted(&self) -> Duration {
        self.inter_domain + self.inter_node + self.dht + self.decision + self.disk + self.exec
    }
}

/// Successful operation output.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OpOutput {
    /// Bytes delivered to (or accepted from) the application.
    pub bytes: u64,
    /// Whether the remote cloud served or received the data.
    pub via_cloud: bool,
    /// Name of the node (or `"cloud"`) that executed a service, if any.
    pub exec_target: Option<String>,
    /// Service output summary, if a service ran.
    pub summary: Option<String>,
    /// Directory contents, for list operations.
    pub listing: Option<Vec<String>>,
}

/// Operation failures.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum OpError {
    /// No metadata exists for the object.
    NotFound(String),
    /// No bin (nor the cloud, under the policy) could hold the object.
    NoSpace(String),
    /// No reachable node provides the requested service.
    ServiceUnavailable(u32),
    /// A metadata operation failed.
    Dht(String),
    /// The object's owner is unreachable.
    OwnerUnreachable(String),
    /// The object's access-control list rejects the requesting node.
    AccessDenied(String),
    /// The operation exhausted its retry budget or per-operation deadline.
    Timeout(String),
    /// Every candidate executor for a service crashed before completing it.
    ExecutorFailed(String),
    /// The gateway's overload-protection plane rejected the operation at
    /// admission (token bucket empty, tenant over its fair share, or the
    /// SLO-driven shed controller dropped it). Rejected operations fail
    /// fast instead of queueing toward the 60 s deadline.
    Overloaded(String),
    /// An erasure-coded object has fewer than `k` stripe holders alive, so
    /// the original bytes cannot be decoded until a repair restores them.
    StripesLost(String),
}

impl std::fmt::Display for OpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OpError::NotFound(n) => write!(f, "object not found: {n}"),
            OpError::NoSpace(n) => write!(f, "no storage space for {n}"),
            OpError::ServiceUnavailable(id) => write!(f, "service {id} unavailable"),
            OpError::Dht(e) => write!(f, "metadata operation failed: {e}"),
            OpError::OwnerUnreachable(n) => write!(f, "owner of {n} unreachable"),
            OpError::AccessDenied(n) => write!(f, "access to {n} denied by its ACL"),
            OpError::Timeout(n) => write!(f, "operation on {n} timed out"),
            OpError::ExecutorFailed(n) => write!(f, "every executor for {n} failed"),
            OpError::Overloaded(n) => write!(f, "operation on {n} shed by overload control"),
            OpError::StripesLost(n) => {
                write!(f, "too few surviving stripes to decode {n}")
            }
        }
    }
}

impl OpError {
    /// A stable short label for metrics and post-mortems (no payload).
    pub fn label(&self) -> &'static str {
        match self {
            OpError::NotFound(_) => "NotFound",
            OpError::NoSpace(_) => "NoSpace",
            OpError::ServiceUnavailable(_) => "ServiceUnavailable",
            OpError::Dht(_) => "Dht",
            OpError::OwnerUnreachable(_) => "OwnerUnreachable",
            OpError::AccessDenied(_) => "AccessDenied",
            OpError::Timeout(_) => "Timeout",
            OpError::ExecutorFailed(_) => "ExecutorFailed",
            OpError::Overloaded(_) => "Overloaded",
            OpError::StripesLost(_) => "StripesLost",
        }
    }
}

impl std::error::Error for OpError {}

impl From<DhtError> for OpError {
    fn from(e: DhtError) -> Self {
        OpError::Dht(e.to_string())
    }
}

/// Critical-path attribution of one operation's end-to-end latency: which
/// kind of work the elapsed virtual time was spent on, bucketed by the
/// health plane's analyzer. Buckets sum to [`OpReport::total`] (`other_ns`
/// absorbs queueing/control time not covered by a recorded stage).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PathAttribution {
    /// Nanoseconds on overlay lookups and metadata access.
    pub dht_ns: u64,
    /// Nanoseconds on local disk I/O.
    pub disk_ns: u64,
    /// Nanoseconds on home-network (LAN) transfers.
    pub lan_ns: u64,
    /// Nanoseconds on wide-area transfers and cloud requests.
    pub wan_ns: u64,
    /// Nanoseconds executing services.
    pub service_ns: u64,
    /// Nanoseconds waiting in retry back-off.
    pub backoff_ns: u64,
    /// Nanoseconds of queueing, command processing, and control.
    pub other_ns: u64,
}

impl PathAttribution {
    /// Adds `ns` to one bucket (saturating).
    pub(crate) fn add(&mut self, bucket: PathBucket, ns: u64) {
        let slot = match bucket {
            PathBucket::Dht => &mut self.dht_ns,
            PathBucket::Disk => &mut self.disk_ns,
            PathBucket::Lan => &mut self.lan_ns,
            PathBucket::Wan => &mut self.wan_ns,
            PathBucket::Service => &mut self.service_ns,
            PathBucket::Backoff => &mut self.backoff_ns,
            PathBucket::Other => &mut self.other_ns,
        };
        *slot = slot.saturating_add(ns);
    }

    /// `(label, ns)` pairs in fixed bucket order.
    pub fn buckets(&self) -> [(&'static str, u64); 7] {
        [
            ("dht", self.dht_ns),
            ("disk", self.disk_ns),
            ("lan", self.lan_ns),
            ("wan", self.wan_ns),
            ("service", self.service_ns),
            ("backoff", self.backoff_ns),
            ("other", self.other_ns),
        ]
    }

    /// Sum over all buckets, nanoseconds.
    pub fn total_ns(&self) -> u64 {
        self.buckets().iter().map(|&(_, ns)| ns).sum()
    }

    /// The bucket charged the most time (first in bucket order on ties).
    pub fn dominant(&self) -> (&'static str, u64) {
        let mut best = ("other", 0);
        for (label, ns) in self.buckets() {
            if ns > best.1 {
                best = (label, ns);
            }
        }
        best
    }
}

/// One causal-ledger decision event attached to a completed report: a
/// serialization-friendly copy of `c4h_telemetry::LedgerEvent` with the
/// kind resolved to its stable label.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CausalEvent {
    /// Sequence number within the op's ring (1-based; 0 never occurs).
    pub seq: u32,
    /// `seq` of the inducing event, or 0 for a root decision.
    pub cause: u32,
    /// Virtual-time instant of the decision, nanoseconds.
    pub ts_ns: u64,
    /// Stable kind label (`"backoff.wait"`, `"hedge.launch"`, …).
    pub kind: String,
    /// Kind-specific detail.
    pub a: u64,
    /// Kind-specific detail.
    pub b: u64,
}

impl From<c4h_telemetry::LedgerEvent> for CausalEvent {
    fn from(e: c4h_telemetry::LedgerEvent) -> Self {
        CausalEvent {
            seq: e.seq,
            cause: e.cause,
            ts_ns: e.ts_ns,
            kind: e.kind.label().to_owned(),
            a: e.a,
            b: e.b,
        }
    }
}

/// The completed record of one operation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OpReport {
    /// The operation.
    pub id: OpId,
    /// `"store"`, `"fetch"`, `"delete"`, `"list"`, `"process"`,
    /// `"fetch_process"`, or `"pipeline"`.
    pub kind: &'static str,
    /// The object operated on (interned name).
    pub object: Sym,
    /// Submission time.
    pub submitted: SimTime,
    /// Completion time.
    pub completed: SimTime,
    /// Cost components.
    pub breakdown: Breakdown,
    /// Metadata (DHT) request retries the operation needed.
    pub retries: u32,
    /// Failovers the operation performed: fetches redirected to another
    /// replica, process executions re-dispatched to another candidate, or
    /// store replica targets skipped after a crash.
    pub failovers: u32,
    /// Replica copies a `store` could not place because fewer live peers
    /// than `replication - 1` were available (or a replica flow failed
    /// with no substitute). Zero for fully replicated stores and for all
    /// other operation kinds.
    pub partial_replication: u32,
    /// Where the operation's wall-clock time went, bucketed by the
    /// critical-path analyzer. All-zero when tracing was disabled (stage
    /// timings are only collected while the recorder is on).
    #[serde(default)]
    pub critical_path: PathAttribution,
    /// The op's completed stage spans as `(name, start_ns, end_ns)`,
    /// sequential and non-overlapping. Populated only while the causal
    /// ledger is enabled (the explain plane's DAG tiles these against the
    /// op window); empty otherwise.
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub stages: Vec<(&'static str, u64, u64)>,
    /// The op's causal-ledger decision events, in `seq` order. Populated
    /// only while the causal ledger is enabled; empty otherwise.
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub ledger: Vec<CausalEvent>,
    /// Success output or failure.
    pub outcome: Result<OpOutput, OpError>,
}

impl OpReport {
    /// Total operation latency.
    pub fn total(&self) -> Duration {
        self.completed - self.submitted
    }

    /// Unwraps a successful outcome.
    ///
    /// # Panics
    ///
    /// Panics with the error message if the operation failed.
    pub fn expect_ok(&self) -> &OpOutput {
        match &self.outcome {
            Ok(o) => o,
            Err(e) => panic!("{} on {} failed: {e}", self.kind, self.object),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breakdown_accounts_components() {
        let b = Breakdown {
            inter_domain: Duration::from_millis(25),
            inter_node: Duration::from_millis(100),
            dht: Duration::from_millis(12),
            decision: Duration::from_millis(5),
            disk: Duration::from_millis(30),
            exec: Duration::from_millis(0),
        };
        assert_eq!(b.accounted(), Duration::from_millis(172));
    }

    #[test]
    fn report_total_is_elapsed() {
        let r = OpReport {
            id: OpId(1),
            kind: "fetch",
            object: "x".into(),
            submitted: SimTime::from_millis(100),
            completed: SimTime::from_millis(350),
            breakdown: Breakdown::default(),
            retries: 0,
            failovers: 0,
            partial_replication: 0,
            critical_path: PathAttribution::default(),
            stages: Vec::new(),
            ledger: Vec::new(),
            outcome: Ok(OpOutput {
                bytes: 10,
                via_cloud: false,
                exec_target: None,
                summary: None,
                listing: None,
            }),
        };
        assert_eq!(r.total(), Duration::from_millis(250));
        assert_eq!(r.expect_ok().bytes, 10);
        assert_eq!(OpId(1).to_string(), "op#1");
    }

    #[test]
    #[should_panic(expected = "object not found")]
    fn expect_ok_panics_on_failure() {
        let r = OpReport {
            id: OpId(2),
            kind: "fetch",
            object: "ghost".into(),
            submitted: SimTime::ZERO,
            completed: SimTime::ZERO,
            breakdown: Breakdown::default(),
            retries: 0,
            failovers: 1,
            partial_replication: 0,
            critical_path: PathAttribution::default(),
            stages: Vec::new(),
            ledger: Vec::new(),
            outcome: Err(OpError::NotFound("ghost".into())),
        };
        r.expect_ok();
    }

    #[test]
    fn path_attribution_totals_and_dominant() {
        let mut p = PathAttribution::default();
        p.add(PathBucket::Wan, 700);
        p.add(PathBucket::Dht, 200);
        p.add(PathBucket::Other, 100);
        assert_eq!(p.wan_ns, 700);
        assert_eq!(p.total_ns(), 1000);
        assert_eq!(PathBucket::Backoff.label(), "backoff");
        assert_eq!(p.dominant(), ("wan", 700));
        assert_eq!(PathAttribution::default().dominant(), ("other", 0));
    }

    #[test]
    fn error_labels_are_stable() {
        assert_eq!(OpError::Timeout("x".into()).label(), "Timeout");
        assert_eq!(
            OpError::ExecutorFailed("x".into()).label(),
            "ExecutorFailed"
        );
        assert_eq!(
            OpError::OwnerUnreachable("x".into()).label(),
            "OwnerUnreachable"
        );
        assert_eq!(OpError::Overloaded("x".into()).label(), "Overloaded");
        assert_eq!(OpError::StripesLost("x".into()).label(), "StripesLost");
    }

    #[test]
    fn errors_display() {
        assert!(OpError::NoSpace("x".into()).to_string().contains("x"));
        assert!(OpError::ServiceUnavailable(3).to_string().contains('3'));
        let e: OpError = DhtError::Timeout.into();
        assert!(e.to_string().contains("timed out"));
        assert!(OpError::Timeout("y".into())
            .to_string()
            .contains("timed out"));
        assert!(OpError::ExecutorFailed("svc".into())
            .to_string()
            .contains("executor"));
        assert!(OpError::Overloaded("hot".into())
            .to_string()
            .contains("shed"));
    }
}
