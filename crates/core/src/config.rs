//! Home-cloud configuration and the paper-testbed preset.

use std::collections::BTreeMap;
use std::time::Duration;

use c4h_chimera::ChimeraConfig;
use c4h_resources::{BatteryConfig, MonitorConfig};
use c4h_vmm::{PlatformSpec, VmSpec, XenChannelConfig};

use crate::ops::OpKind;

/// Handle of a home-cloud node within a [`Cloud4Home`](crate::Cloud4Home)
/// instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub usize);

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "node{}", self.0)
    }
}

/// A service deployable on nodes or cloud instances.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServiceKind {
    /// CPU-intensive face detection.
    FaceDetect,
    /// Memory-intensive face recognition (with a resident training set).
    FaceRecognize,
    /// x264-style media conversion.
    Transcode,
    /// Lossless archival compression.
    Compress,
}

impl ServiceKind {
    /// The service's stable wire id.
    pub fn id(self) -> u32 {
        match self {
            ServiceKind::FaceDetect => 1,
            ServiceKind::FaceRecognize => 2,
            ServiceKind::Transcode => 3,
            ServiceKind::Compress => 4,
        }
    }

    /// The service's registered name.
    pub fn name(self) -> &'static str {
        match self {
            ServiceKind::FaceDetect => "face-detect",
            ServiceKind::FaceRecognize => "face-recognize",
            ServiceKind::Transcode => "x264-convert",
            ServiceKind::Compress => "archive-compress",
        }
    }
}

/// Memory a home node's control domain (dom0, where VStore++ runs) keeps
/// for itself; a node's `service_vm` gets at most the rest of its RAM.
pub(crate) const DOM0_MEM_MIB: u64 = 256;

/// Memory the cloud instance's control domain keeps for itself; the
/// `instance_vm` gets at most the rest of the instance's RAM.
pub(crate) const CLOUD_DOM0_MEM_MIB: u64 = 512;

/// Configuration of one home-cloud node.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeSpec {
    /// Node name (also its identity in the overlay).
    pub name: String,
    /// The physical platform.
    pub platform: PlatformSpec,
    /// Resource grant of the VM that executes services.
    pub service_vm: VmSpec,
    /// Mandatory bin capacity, bytes.
    pub mandatory_bytes: u64,
    /// Voluntary bin capacity, bytes.
    pub voluntary_bytes: u64,
    /// Battery model for portable devices.
    pub battery: Option<BatteryConfig>,
    /// Services deployed on this node.
    pub services: Vec<ServiceKind>,
    /// Whether this node hosts the public-cloud interface module.
    pub gateway: bool,
    /// Mean ambient CPU load.
    pub ambient_load: f64,
    /// Guest ↔ dom0 shared-memory channel configuration ("the receiver
    /// allocates thirty two 4 KB pages … the page size can be increased up
    /// to 2 MB if the devices have larger memory").
    pub channel: XenChannelConfig,
}

impl NodeSpec {
    /// A testbed Atom netbook node.
    pub fn netbook(name: &str) -> Self {
        NodeSpec {
            name: name.to_owned(),
            platform: PlatformSpec::atom_netbook(),
            service_vm: VmSpec::new(512, 1),
            mandatory_bytes: 2 << 30,
            voluntary_bytes: 8 << 30,
            battery: Some(BatteryConfig::default()),
            services: vec![],
            gateway: false,
            ambient_load: 0.12,
            channel: XenChannelConfig::prototype(),
        }
    }

    /// The testbed quad-core desktop node.
    pub fn desktop(name: &str) -> Self {
        NodeSpec {
            name: name.to_owned(),
            platform: PlatformSpec::desktop_quad(),
            service_vm: VmSpec::new(1024, 4),
            mandatory_bytes: 20 << 30,
            voluntary_bytes: 60 << 30,
            battery: None,
            services: vec![],
            gateway: true,
            ambient_load: 0.08,
            channel: XenChannelConfig::prototype(),
        }
    }

    /// Builder-style: set deployed services.
    pub fn with_services(mut self, services: &[ServiceKind]) -> Self {
        self.services = services.to_vec();
        self
    }
}

/// Remote public-cloud configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct CloudSpec {
    /// S3 bucket objects are stored under.
    pub bucket: String,
    /// The compute instance platform (the paper's extra-large EC2).
    pub instance_platform: PlatformSpec,
    /// The instance's service VM grant.
    pub instance_vm: VmSpec,
    /// Services deployed in the cloud.
    pub services: Vec<ServiceKind>,
}

impl Default for CloudSpec {
    fn default() -> Self {
        CloudSpec {
            bucket: "home-bucket".into(),
            instance_platform: PlatformSpec::ec2_extra_large(),
            instance_vm: VmSpec::new(12 * 1024, 5),
            services: vec![
                ServiceKind::FaceDetect,
                ServiceKind::FaceRecognize,
                ServiceKind::Transcode,
                ServiceKind::Compress,
            ],
        }
    }
}

/// Command- and IPC-level timing constants.
///
/// Calibrated so a one-hop metadata lookup in a six-node home cloud costs
/// the 12–16 ms Table I reports (VStore++ ↔ Chimera IPC plus per-hop
/// processing dominates the sub-millisecond LAN latency).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimingConfig {
    /// VStore++ ↔ Chimera IPC cost, charged at request issue and completion.
    pub chimera_ipc: Duration,
    /// Per-message Chimera processing at a receiving node.
    pub chimera_proc: Duration,
    /// Dom0 command-packet handling cost.
    pub command_proc: Duration,
    /// Direct node-to-node object request handling (non-DHT control
    /// message).
    pub peer_request: Duration,
}

impl Default for TimingConfig {
    fn default() -> Self {
        TimingConfig {
            chimera_ipc: Duration::from_millis(2),
            chimera_proc: Duration::from_micros(3600),
            command_proc: Duration::from_micros(1500),
            peer_request: Duration::from_millis(2),
        }
    }
}

/// Overload-protection plane knobs: gateway admission control, SLO-driven
/// load shedding, per-node retry budgets, and per-path circuit breakers.
///
/// With `enabled == false` (the default) the plane is completely inert: no
/// admission checks run, no budget tokens are consumed, no breaker state
/// mutates, and no RNG is drawn, so default-config runs stay byte-identical
/// to builds that predate the plane.
#[derive(Debug, Clone, PartialEq)]
pub struct OverloadConfig {
    /// Master switch for the whole plane.
    pub enabled: bool,
    /// Token-bucket admission rate per op kind, operations per second of
    /// virtual time. `0` disables rate-based admission (the shed controller
    /// and tenant caps still apply when the plane is enabled).
    pub admit_rate: u32,
    /// Token-bucket burst capacity (tokens the bucket can hold).
    pub admit_burst: u32,
    /// How much the shed controller raises the rejection probability on
    /// each SLO-window breach, permille.
    pub shed_step_permille: u32,
    /// How much each healthy (non-breaching) completion decays the
    /// rejection probability, permille.
    pub shed_decay_permille: u32,
    /// Ceiling on the rejection probability, permille (at most 1000).
    pub shed_max_permille: u32,
    /// Hard cap on admitted-but-incomplete operations per tenant (client
    /// node). A tenant at the cap is rejected outright; `0` disables the
    /// cap. Tenants above their fair share of total inflight work also
    /// shed at double the controller's current probability, so one hot
    /// tenant cannot starve the rest.
    pub tenant_max_inflight: u32,
    /// Leaky-bucket retry budget per node: capacity in retry tokens.
    /// DHT retries, fetch backoff-retries, and repair starts each consume
    /// one token; an exhausted budget fails the retry deterministically
    /// instead of riding the 60 s op deadline.
    pub retry_budget: u32,
    /// Retry-budget refill rate, tokens per second of virtual time.
    pub retry_refill_per_sec: u32,
    /// Consecutive recorded failures on a path (peer or cloud uplink)
    /// that trip its circuit breaker open.
    pub breaker_failures: u32,
    /// How long an open breaker blocks its path before allowing a single
    /// half-open probe, milliseconds of virtual time.
    pub breaker_cooldown_ms: u64,
}

impl Default for OverloadConfig {
    fn default() -> Self {
        OverloadConfig {
            enabled: false,
            admit_rate: 0,
            admit_burst: 64,
            shed_step_permille: 125,
            shed_decay_permille: 10,
            shed_max_permille: 950,
            tenant_max_inflight: 0,
            retry_budget: 16,
            retry_refill_per_sec: 4,
            breaker_failures: 3,
            breaker_cooldown_ms: 5_000,
        }
    }
}

/// Adaptive-placement plane knobs: heat-driven replica counts, reader-local
/// re-placement, and (k, m) erasure coding for cold bulk data.
///
/// With `enabled == false` (the default) the plane is completely inert —
/// no heat is tracked, replica counts never move, nothing converts to
/// erasure-coded form, and no RNG is drawn — so default-config runs stay
/// byte-identical to builds that predate the plane (the same contract the
/// overload plane keeps).
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptiveConfig {
    /// Master switch for the whole plane.
    pub enabled: bool,
    /// Floor on the number of full copies the plane may shrink a cooling
    /// object down to.
    pub replication_min: usize,
    /// Ceiling on the number of full copies the plane may grow a hot
    /// object up to.
    pub replication_max: usize,
    /// EWMA smoothing factor for the per-object fetch-rate estimate.
    pub heat_alpha: f64,
    /// Fetch rate (fetches per minute of virtual time) at or above which
    /// an object counts as hot and gains replicas toward recent readers.
    pub hot_per_min: f64,
    /// Fetch rate (fetches per minute) at or below which an object counts
    /// as cold: replicas shrink toward `replication_min`, and large-enough
    /// objects convert to erasure-coded stripes. Must stay below
    /// `hot_per_min` so the two bands cannot overlap.
    pub cold_per_min: f64,
    /// Cadence of the adaptive placement pass, milliseconds of virtual
    /// time (rounded up to the 500 ms runtime tick).
    pub interval_ms: u64,
    /// Cold objects of at least this many bytes convert from full copies
    /// to (k, m) erasure-coded stripes. `0` keeps every object on full
    /// copies (erasure coding off) while the rest of the plane still runs.
    pub ec_threshold_bytes: u64,
    /// Data stripes per erasure-coded object.
    pub ec_k: usize,
    /// Parity stripes per erasure-coded object: the object survives any
    /// `ec_m` simultaneous stripe-holder losses.
    pub ec_m: usize,
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        AdaptiveConfig {
            enabled: false,
            replication_min: 1,
            replication_max: 3,
            heat_alpha: 0.3,
            hot_per_min: 4.0,
            cold_per_min: 0.5,
            interval_ms: 2_000,
            ec_threshold_bytes: 1 << 20,
            ec_k: 3,
            ec_m: 2,
        }
    }
}

/// Complete home-cloud configuration.
#[derive(Debug, Clone)]
pub struct Config {
    /// Home nodes (at least one; the first bootstraps the overlay).
    pub nodes: Vec<NodeSpec>,
    /// Remote cloud, if reachable.
    pub cloud: Option<CloudSpec>,
    /// Overlay tunables.
    pub chimera: ChimeraConfig,
    /// Resource-monitor period.
    pub monitor: MonitorConfig,
    /// IPC/command timing constants.
    pub timing: TimingConfig,
    /// Master RNG seed.
    pub seed: u64,
    /// Bytes of synthetic training imagery behind the face-recognition
    /// service's resident set.
    pub training_bytes: u64,
    /// Object-data replication factor: total copies of each home-stored
    /// object's bytes (primary plus `replication - 1` peer replicas).
    /// `1` (the default) disables data replication. Replicas always stay
    /// inside the home cloud, so privacy policies that pin data home are
    /// never violated by replication.
    pub replication: usize,
    /// How many total copies (primary plus landed replicas) must exist
    /// before a `store` publishes its metadata and completes. `0` (the
    /// default) means all `replication` copies; any other value is clamped
    /// to `1..=replication`. With a quorum below `replication`, the
    /// remaining replica flows detach and finish in the background, after
    /// which the metadata record is re-published with the full replica set.
    pub replica_quorum: usize,
    /// Objects larger than this are shipped as pipelined chunks of this
    /// size instead of one monolithic flow, so TCP slow-start amortizes
    /// and segments on either side of a LAN/WAN split overlap. `0` (the
    /// default) disables chunking.
    pub chunk_bytes: u64,
    /// How many chunks of a chunked transfer may be in flight at once
    /// (minimum 2).
    pub chunk_window: usize,
    /// Maximum concurrent sources a `fetch` may stripe a read across.
    /// With `1` (the default) fetches pull the whole object from a single
    /// holder; with `k >= 2` an object held by several live peers — or by
    /// the cloud, via parallel range reads — is split into up to `k`
    /// contiguous stripes pulled concurrently, which sidesteps per-flow
    /// TCP ramp and sustained-rate caps on both LAN and WAN segments.
    pub fetch_sources: usize,
    /// Hedged-request threshold for striped fetches. Whenever a stripe
    /// completes, if the slowest in-flight stripe's estimated time to
    /// completion exceeds `fetch_hedge ×` the time the best *idle* holder
    /// would need for the whole stripe, that stripe is re-issued there and
    /// the two copies race; the loser is cancelled. `0.0` disables
    /// hedging; `2.0` is a conservative tail-latency guard.
    pub fetch_hedge: f64,
    /// Whether virtual-time tracing and metrics collection start enabled.
    /// Recording can also be toggled at runtime with
    /// [`Cloud4Home::set_tracing`](crate::Cloud4Home::set_tracing); either
    /// way, the overlay warm-up is never recorded.
    pub tracing: bool,
    /// Per-op-kind latency objectives, milliseconds of virtual time, keyed
    /// by op kind ([`OpReport::kind`](crate::OpReport::kind): `"store"`,
    /// `"fetch"`, `"delete"`, `"list"`, `"process"`, `"fetch_process"`,
    /// `"pipeline"`). When the sliding-window p99 for a kind exceeds its
    /// threshold at op completion, the health plane emits an
    /// `slo.violation` instant and bumps `slo.violation.<kind>`. Kinds
    /// without an entry are never checked; a key that names no kind is
    /// rejected by [`Config::validate`].
    pub slo_ms: BTreeMap<String, u64>,
    /// Health-plane gauge sampling cadence, milliseconds of virtual time.
    /// Samples are recorded only while tracing is enabled; `0` disables the
    /// periodic sampler entirely.
    pub health_sample_ms: u64,
    /// Width of the sliding latency window the SLO check and the `health`
    /// shell command evaluate percentiles over, milliseconds of virtual
    /// time.
    pub health_window_ms: u64,
    /// Overload-protection plane (admission control, load shedding, retry
    /// budgets, circuit breakers). Disabled by default.
    pub overload: OverloadConfig,
    /// Adaptive-placement plane (heat-driven replication, reader-local
    /// copies, erasure coding for cold bulk data). Disabled by default.
    pub adaptive: AdaptiveConfig,
    /// Anti-entropy sweep cadence, milliseconds of virtual time: a
    /// low-cadence scan (piggybacked on the runtime tick) that re-checks
    /// replicated objects for holders lost to failed straggler flows and
    /// queues repairs, instead of waiting for an unrelated peer death to
    /// trigger a full scan. `0` disables the sweep.
    pub anti_entropy_ms: u64,
    /// Flight-recorder fault-ring depth: how many recent fault/lifecycle
    /// notes a post-mortem dump can carry.
    pub fault_ring: usize,
    /// Flight-recorder gauge-ring depth: how many recent gauge rows a
    /// post-mortem dump can carry.
    pub gauge_ring: usize,
    /// Maximum post-mortem dumps retained per run.
    pub dump_cap: usize,
    /// How many worst critical-path rows the health plane retains for the
    /// `top` shell command.
    pub path_ring: usize,
    /// Causal op ledger: record per-op decision events (admission, retries,
    /// backoff, breaker actions, hedging, reassignment, adaptive moves) for
    /// the `explain` plane. Off by default; the disabled path is one
    /// relaxed atomic load per decision point, and default-config runs stay
    /// byte-identical.
    pub ledger: bool,
    /// Per-op causal-ring depth: how many decision events one op retains
    /// (eviction protects the live cause chain).
    pub ledger_ring: usize,
    /// How many completed op reports the explain plane keeps addressable
    /// by `explain <op>` (oldest evicted first).
    pub explain_ring: usize,
}

impl Config {
    /// The paper's testbed: five Atom netbooks plus one desktop (the
    /// gateway), with surveillance services on the desktop and one netbook,
    /// media conversion on the desktop, and the full service set in the
    /// cloud.
    pub fn paper_testbed(seed: u64) -> Self {
        let mut nodes = Vec::new();
        for i in 0..5 {
            let mut n = NodeSpec::netbook(&format!("netbook-{i}"));
            if i == 0 {
                n.services = vec![ServiceKind::FaceDetect, ServiceKind::FaceRecognize];
            }
            if i == 1 {
                n.services = vec![ServiceKind::Transcode];
            }
            nodes.push(n);
        }
        nodes.push(NodeSpec::desktop("desktop").with_services(&[
            ServiceKind::FaceDetect,
            ServiceKind::FaceRecognize,
            ServiceKind::Transcode,
        ]));
        Config {
            nodes,
            cloud: Some(CloudSpec::default()),
            chimera: ChimeraConfig::default(),
            monitor: MonitorConfig::default(),
            timing: TimingConfig::default(),
            seed,
            training_bytes: 60 << 20,
            replication: 1,
            replica_quorum: 0,
            chunk_bytes: 0,
            chunk_window: 4,
            fetch_sources: 1,
            fetch_hedge: 2.0,
            tracing: false,
            // Generous defaults sized to the testbed's WAN-bound worst
            // cases (Table I: a 100 MB cloud store runs minutes), so
            // healthy runs stay quiet and genuine stalls still surface.
            slo_ms: BTreeMap::from([
                ("store".to_owned(), 300_000),
                ("fetch".to_owned(), 240_000),
                ("process".to_owned(), 600_000),
                ("delete".to_owned(), 60_000),
            ]),
            health_sample_ms: 500,
            health_window_ms: 30_000,
            overload: OverloadConfig::default(),
            adaptive: AdaptiveConfig::default(),
            anti_entropy_ms: 10_000,
            fault_ring: 32,
            gauge_ring: 8,
            dump_cap: 16,
            path_ring: 64,
            ledger: false,
            ledger_ring: 64,
            explain_ring: 128,
        }
    }

    /// Checks the configuration for incoherent combinations that would
    /// otherwise misbehave silently at runtime. Called by
    /// [`Cloud4Home::new`](crate::Cloud4Home::new), which panics on the
    /// returned message; call it directly to validate ahead of time.
    ///
    /// Rejections:
    /// - no nodes configured, or more than 10 000 (node `i` gets address
    ///   `i`, and the cloud site's address is 10 000);
    /// - a node whose `service_vm` does not fit its platform's RAM beside
    ///   dom0's 256 MiB, or a cloud whose `instance_vm` does not fit
    ///   `instance_platform`'s RAM beside the instance's own 512 MiB;
    /// - `replica_quorum > replication` (the quorum could never be met, so
    ///   every store would silently behave as quorum = replication);
    /// - `fetch_sources == 0` (fetches would have no source budget at all;
    ///   `1` is the no-striping default);
    /// - chunking enabled (`chunk_bytes > 0`) with `chunk_window < 2`
    ///   (today the window is silently clamped up to 2);
    /// - a health sampling cadence coarser than the SLO window
    ///   (`health_sample_ms > health_window_ms`, both nonzero): windows
    ///   would expire between samples, a sampling mismatch. `chunk_bytes
    ///   == 0` and windows shorter than an SLO threshold stay legal — the
    ///   former is the documented chunking-off sentinel, the latter merely
    ///   means the window holds fewer breaching completions;
    /// - a negative or non-finite `fetch_hedge`;
    /// - empty flight-recorder rings (`fault_ring`, `gauge_ring`, or
    ///   `path_ring` of 0; `dump_cap` may be 0 to discard post-mortems);
    /// - with the causal ledger enabled: a `ledger_ring` below 2 (a ring
    ///   that cannot hold a cause and its effect) or an `explain_ring` of 0
    ///   (nothing would be addressable by `explain`);
    /// - with the overload plane enabled: `shed_max_permille > 1000`,
    ///   `breaker_failures == 0`, a positive `admit_rate` with
    ///   `admit_burst == 0`, or a positive `retry_refill_per_sec` with
    ///   `retry_budget == 0`;
    /// - with the adaptive plane enabled: a replication band that does not
    ///   bracket the static factor (`replication_min ≤ replication ≤
    ///   replication_max` must hold, with `replication_min ≥ 1`), `ec_k`
    ///   or `ec_m` of 0 when erasure coding is on (`ec_threshold_bytes >
    ///   0`), `ec_k + ec_m` beyond GF(256)'s 255 distinct rows or beyond
    ///   the home-node count (stripes never leave the home cloud), a
    ///   `heat_alpha` outside `(0, 1]`, a non-finite or negative heat
    ///   threshold, a cold threshold at or above the hot threshold, or an
    ///   `interval_ms` of 0.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violation found.
    pub fn validate(&self) -> Result<(), String> {
        if self.nodes.is_empty() {
            return Err("need at least one home node".into());
        }
        // Node `i` sits at address `i`, below the cloud site's.
        let (nodes, cloud) = (self.nodes.len(), crate::runtime::CLOUD_ADDR.raw());
        if nodes as u64 > cloud {
            return Err(format!(
                "{nodes} home nodes: node {cloud} would take the cloud site's address {cloud}"
            ));
        }
        if let Some(n) = self
            .nodes
            .iter()
            .find(|n| !n.service_vm.fits_beside_dom0(&n.platform, DOM0_MEM_MIB))
        {
            return Err(format!(
                "node {}: service VM of {} MiB does not fit beside dom0's {DOM0_MEM_MIB} MiB \
                 in {} MiB of RAM",
                n.name, n.service_vm.mem_mib, n.platform.ram_mib
            ));
        }
        if let Some(c) = self.cloud.as_ref().filter(|c| {
            !c.instance_vm
                .fits_beside_dom0(&c.instance_platform, CLOUD_DOM0_MEM_MIB)
        }) {
            return Err(format!(
                "cloud instance VM of {} MiB does not fit beside the instance's \
                 {CLOUD_DOM0_MEM_MIB} MiB control domain in {} MiB of RAM",
                c.instance_vm.mem_mib, c.instance_platform.ram_mib
            ));
        }
        if self.replica_quorum > self.replication {
            return Err(format!(
                "replica_quorum {} exceeds replication {}: the quorum can never be met",
                self.replica_quorum, self.replication
            ));
        }
        if self.fetch_sources == 0 {
            return Err("fetch_sources must be at least 1 (1 disables striping)".into());
        }
        if self.chunk_bytes > 0 && self.chunk_window < 2 {
            return Err(format!(
                "chunk_window {} is below the pipelining minimum of 2",
                self.chunk_window
            ));
        }
        if self.health_window_ms > 0
            && self.health_sample_ms > 0
            && self.health_sample_ms > self.health_window_ms
        {
            return Err(format!(
                "health_sample_ms {} is coarser than health_window_ms {}: \
                 SLO windows would expire between samples",
                self.health_sample_ms, self.health_window_ms
            ));
        }
        if let Some(key) = self.slo_ms.keys().find(|k| OpKind::from_name(k).is_none()) {
            return Err(format!(
                "slo_ms key {key:?} names no op kind: its objective would never be checked"
            ));
        }
        if !self.fetch_hedge.is_finite() || self.fetch_hedge < 0.0 {
            return Err(format!(
                "fetch_hedge {} must be finite and non-negative (0 disables hedging)",
                self.fetch_hedge
            ));
        }
        if self.fault_ring == 0 || self.gauge_ring == 0 || self.path_ring == 0 {
            return Err("flight-recorder rings (fault_ring, gauge_ring, path_ring) \
                 must be non-empty"
                .into());
        }
        if self.ledger && (self.ledger_ring < 2 || self.explain_ring == 0) {
            return Err(format!(
                "causal ledger needs ledger_ring >= 2 (a cause and its effect; \
                 have {}) and explain_ring >= 1 (have {})",
                self.ledger_ring, self.explain_ring
            ));
        }
        if self.overload.enabled {
            let o = &self.overload;
            if o.shed_max_permille > 1000 {
                return Err(format!(
                    "shed_max_permille {} exceeds 1000 (a probability ceiling)",
                    o.shed_max_permille
                ));
            }
            if o.breaker_failures == 0 {
                return Err("breaker_failures must be at least 1".into());
            }
            if o.admit_rate > 0 && o.admit_burst == 0 {
                return Err("admit_rate without admit_burst admits nothing".into());
            }
            if o.retry_refill_per_sec > 0 && o.retry_budget == 0 {
                return Err("retry_refill_per_sec without retry_budget capacity \
                     refills into a zero-size bucket"
                    .into());
            }
        }
        if self.adaptive.enabled {
            let a = &self.adaptive;
            if a.replication_min == 0 {
                return Err("replication_min must be at least 1".into());
            }
            if !(a.replication_min <= self.replication && self.replication <= a.replication_max) {
                return Err(format!(
                    "adaptive replication band [{}, {}] must bracket replication {}",
                    a.replication_min, a.replication_max, self.replication
                ));
            }
            if a.ec_threshold_bytes > 0 {
                if a.ec_k == 0 {
                    return Err("ec_k must be at least 1 when erasure coding is on".into());
                }
                if a.ec_m == 0 {
                    return Err(
                        "ec_m must be at least 1 when erasure coding is on (0 parity \
                         stripes protect nothing)"
                            .into(),
                    );
                }
                if a.ec_k + a.ec_m > 255 {
                    return Err(format!(
                        "ec_k {} + ec_m {} exceeds GF(256)'s 255 distinct code rows",
                        a.ec_k, a.ec_m
                    ));
                }
                if a.ec_k + a.ec_m > self.nodes.len() {
                    return Err(format!(
                        "ec_k {} + ec_m {} stripes need as many distinct home nodes \
                         (have {})",
                        a.ec_k,
                        a.ec_m,
                        self.nodes.len()
                    ));
                }
            }
            if !(a.heat_alpha > 0.0 && a.heat_alpha <= 1.0) {
                return Err(format!("heat_alpha {} must be in (0, 1]", a.heat_alpha));
            }
            if !a.hot_per_min.is_finite()
                || !a.cold_per_min.is_finite()
                || a.cold_per_min < 0.0
                || a.hot_per_min <= a.cold_per_min
            {
                return Err(format!(
                    "heat thresholds must be finite with cold_per_min {} below \
                     hot_per_min {}",
                    a.cold_per_min, a.hot_per_min
                ));
            }
            if a.interval_ms == 0 {
                return Err("adaptive interval_ms of 0 would re-plan every tick; \
                     disable the plane instead"
                    .into());
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_testbed_shape() {
        let c = Config::paper_testbed(1);
        assert_eq!(c.nodes.len(), 6);
        assert_eq!(c.nodes.iter().filter(|n| n.gateway).count(), 1);
        assert!(c.cloud.is_some());
        // Netbooks are battery powered, the desktop is not.
        assert!(c.nodes[0].battery.is_some());
        assert!(c.nodes[5].battery.is_none());
    }

    #[test]
    fn service_kind_ids_are_stable() {
        assert_eq!(ServiceKind::FaceDetect.id(), 1);
        assert_eq!(ServiceKind::FaceRecognize.id(), 2);
        assert_eq!(ServiceKind::Transcode.id(), 3);
        assert_eq!(ServiceKind::Compress.id(), 4);
        assert_eq!(ServiceKind::Transcode.name(), "x264-convert");
        assert_eq!(ServiceKind::Compress.name(), "archive-compress");
    }

    #[test]
    fn node_builders_compose() {
        let n = NodeSpec::netbook("n").with_services(&[ServiceKind::Transcode]);
        assert_eq!(n.services, vec![ServiceKind::Transcode]);
        assert_eq!(NodeId(3).to_string(), "node3");
    }

    #[test]
    fn default_testbed_validates() {
        assert_eq!(Config::paper_testbed(1).validate(), Ok(()));
        // The chunking-off sentinel and sub-SLO windows are both legal.
        let mut c = Config::paper_testbed(1);
        c.chunk_bytes = 0;
        c.health_window_ms = 1_000;
        assert_eq!(c.validate(), Ok(()));
    }

    #[test]
    fn validate_rejects_empty_node_set() {
        let mut c = Config::paper_testbed(1);
        c.nodes.clear();
        assert!(c.validate().unwrap_err().contains("home node"));
    }

    #[test]
    fn validate_rejects_a_node_on_the_cloud_address() {
        let mut c = Config::paper_testbed(1);
        let spec = c.nodes[0].clone();
        c.nodes.resize(10_000, spec.clone());
        assert_eq!(c.validate(), Ok(()), "nodes 0..=9999 sit below the cloud");
        c.nodes.push(spec);
        let err = c.validate().unwrap_err();
        assert!(err.contains("cloud site's address 10000"), "{err}");
    }

    #[test]
    fn validate_rejects_a_service_vm_that_does_not_fit_beside_dom0() {
        let mut c = Config::paper_testbed(1);
        let ram = c.nodes[0].platform.ram_mib;
        c.nodes[0].service_vm = VmSpec::new(ram - DOM0_MEM_MIB, 1);
        assert_eq!(c.validate(), Ok(()), "an exact fit is legal");
        c.nodes[0].service_vm = VmSpec::new(ram - DOM0_MEM_MIB + 1, 1);
        let err = c.validate().unwrap_err();
        assert!(err.contains("netbook-0") && err.contains("dom0"), "{err}");
        // A platform smaller than dom0 alone fits no service VM at all.
        c.nodes[0].platform.ram_mib = DOM0_MEM_MIB - 1;
        c.nodes[0].service_vm = VmSpec::new(0, 1);
        assert!(c.validate().is_err());
    }

    #[test]
    fn validate_rejects_a_cloud_instance_vm_that_does_not_fit_its_platform() {
        let mut c = Config::paper_testbed(1);
        let cloud = c.cloud.as_mut().expect("the testbed has a cloud");
        let ram = cloud.instance_platform.ram_mib;
        cloud.instance_vm = VmSpec::new(ram - CLOUD_DOM0_MEM_MIB, 5);
        assert_eq!(c.validate(), Ok(()), "an exact fit is legal");
        let cloud = c.cloud.as_mut().expect("the testbed has a cloud");
        cloud.instance_vm = VmSpec::new(ram - CLOUD_DOM0_MEM_MIB + 1, 5);
        let err = c.validate().unwrap_err();
        assert!(err.contains("cloud instance VM"), "{err}");
        c.cloud = None;
        assert_eq!(c.validate(), Ok(()), "no cloud, nothing to fit");
    }

    #[test]
    fn validate_rejects_unmeetable_quorum() {
        let mut c = Config::paper_testbed(1);
        c.replication = 2;
        c.replica_quorum = 3;
        assert!(c.validate().unwrap_err().contains("quorum"));
    }

    #[test]
    fn validate_rejects_zero_fetch_sources() {
        let mut c = Config::paper_testbed(1);
        c.fetch_sources = 0;
        assert!(c.validate().unwrap_err().contains("fetch_sources"));
    }

    #[test]
    fn validate_rejects_unpipelined_chunk_window() {
        let mut c = Config::paper_testbed(1);
        c.chunk_bytes = 1 << 20;
        c.chunk_window = 1;
        assert!(c.validate().unwrap_err().contains("chunk_window"));
        // Window 1 is fine while chunking stays disabled.
        c.chunk_bytes = 0;
        assert_eq!(c.validate(), Ok(()));
    }

    #[test]
    fn validate_rejects_sampling_mismatch() {
        let mut c = Config::paper_testbed(1);
        c.health_sample_ms = 60_000;
        c.health_window_ms = 30_000;
        assert!(c.validate().unwrap_err().contains("coarser"));
        // A disabled sampler is not a mismatch.
        c.health_sample_ms = 0;
        assert_eq!(c.validate(), Ok(()));
    }

    #[test]
    fn validate_rejects_slo_for_unknown_op_kind() {
        let mut c = Config::paper_testbed(1);
        for kind in [
            "store",
            "fetch",
            "delete",
            "list",
            "process",
            "fetch_process",
            "pipeline",
        ] {
            c.slo_ms.insert(kind.to_owned(), 1_000);
        }
        assert_eq!(c.validate(), Ok(()));
        c.slo_ms.insert("fetchh".to_owned(), 1_000);
        assert!(c.validate().unwrap_err().contains("\"fetchh\""));
    }

    #[test]
    fn validate_rejects_bad_hedge_factor() {
        let mut c = Config::paper_testbed(1);
        c.fetch_hedge = -1.0;
        assert!(c.validate().unwrap_err().contains("fetch_hedge"));
        c.fetch_hedge = f64::NAN;
        assert!(c.validate().is_err());
    }

    #[test]
    fn validate_rejects_empty_rings() {
        for field in 0..3 {
            let mut c = Config::paper_testbed(1);
            match field {
                0 => c.fault_ring = 0,
                1 => c.gauge_ring = 0,
                _ => c.path_ring = 0,
            }
            assert!(c.validate().unwrap_err().contains("ring"));
        }
        // dump_cap 0 just discards post-mortems; it stays legal.
        let mut c = Config::paper_testbed(1);
        c.dump_cap = 0;
        assert_eq!(c.validate(), Ok(()));
    }

    #[test]
    fn validate_rejects_degenerate_ledger_rings() {
        let mut c = Config::paper_testbed(1);
        // Off by default, and degenerate rings are fine while off.
        assert!(!c.ledger);
        c.ledger_ring = 0;
        c.explain_ring = 0;
        assert_eq!(c.validate(), Ok(()));

        c.ledger = true;
        assert!(c.validate().unwrap_err().contains("ledger_ring"));
        c.ledger_ring = 1; // cannot hold a cause and its effect
        assert!(c.validate().is_err());
        c.ledger_ring = 2;
        assert!(c.validate().unwrap_err().contains("explain_ring"));
        c.explain_ring = 1;
        assert_eq!(c.validate(), Ok(()));
    }

    #[test]
    fn validate_rejects_incoherent_overload_knobs() {
        let mut c = Config::paper_testbed(1);
        c.overload.enabled = true;
        assert_eq!(c.validate(), Ok(()));

        c.overload.shed_max_permille = 1_001;
        assert!(c.validate().unwrap_err().contains("shed_max_permille"));
        c.overload.shed_max_permille = 950;

        c.overload.breaker_failures = 0;
        assert!(c.validate().unwrap_err().contains("breaker_failures"));
        c.overload.breaker_failures = 3;

        c.overload.admit_rate = 10;
        c.overload.admit_burst = 0;
        assert!(c.validate().unwrap_err().contains("admit_burst"));
        c.overload.admit_burst = 4;
        assert_eq!(c.validate(), Ok(()));

        c.overload.retry_budget = 0;
        assert!(c.validate().unwrap_err().contains("retry_budget"));

        // All of those knobs are ignored while the plane is off.
        c.overload.enabled = false;
        assert_eq!(c.validate(), Ok(()));
    }

    #[test]
    fn validate_rejects_adaptive_band_outside_replication() {
        let mut c = Config::paper_testbed(1);
        c.adaptive.enabled = true;
        assert_eq!(c.validate(), Ok(()), "defaults must be coherent");

        // replication below the floor…
        c.adaptive.replication_min = 2;
        assert!(c.validate().unwrap_err().contains("bracket"));
        c.adaptive.replication_min = 1;

        // …or above the ceiling is rejected.
        c.replication = 5;
        c.adaptive.replication_max = 3;
        assert!(c.validate().unwrap_err().contains("bracket"));
        c.adaptive.replication_max = 5;
        assert_eq!(c.validate(), Ok(()));

        c.adaptive.replication_min = 0;
        assert!(c.validate().unwrap_err().contains("replication_min"));
    }

    #[test]
    fn validate_rejects_degenerate_ec_shape() {
        let mut c = Config::paper_testbed(1);
        c.adaptive.enabled = true;

        c.adaptive.ec_k = 0;
        assert!(c.validate().unwrap_err().contains("ec_k"));
        c.adaptive.ec_k = 3;

        c.adaptive.ec_m = 0;
        assert!(c.validate().unwrap_err().contains("ec_m"));
        c.adaptive.ec_m = 2;

        // More stripes than home nodes cannot all land on distinct nodes.
        c.adaptive.ec_k = 5;
        c.adaptive.ec_m = 2;
        assert!(c.validate().unwrap_err().contains("distinct home nodes"));

        // GF(256) runs out of rows past 255.
        c.adaptive.ec_k = 200;
        c.adaptive.ec_m = 56;
        assert!(c.validate().unwrap_err().contains("GF(256)"));

        // The threshold-0 sentinel turns erasure coding off and the shape
        // knobs become inert.
        c.adaptive.ec_threshold_bytes = 0;
        c.adaptive.ec_k = 0;
        c.adaptive.ec_m = 0;
        assert_eq!(c.validate(), Ok(()));
    }

    #[test]
    fn validate_rejects_incoherent_heat_knobs() {
        let mut c = Config::paper_testbed(1);
        c.adaptive.enabled = true;

        c.adaptive.heat_alpha = 0.0;
        assert!(c.validate().unwrap_err().contains("heat_alpha"));
        c.adaptive.heat_alpha = 1.5;
        assert!(c.validate().unwrap_err().contains("heat_alpha"));
        c.adaptive.heat_alpha = 0.3;

        // An inverted (or touching) hot/cold band can never classify.
        c.adaptive.hot_per_min = 0.5;
        c.adaptive.cold_per_min = 0.5;
        assert!(c.validate().unwrap_err().contains("hot_per_min"));
        c.adaptive.hot_per_min = f64::NAN;
        assert!(c.validate().is_err());
        c.adaptive.hot_per_min = 4.0;
        c.adaptive.cold_per_min = 0.5;

        c.adaptive.interval_ms = 0;
        assert!(c.validate().unwrap_err().contains("interval_ms"));
        c.adaptive.interval_ms = 2_000;
        assert_eq!(c.validate(), Ok(()));

        // Every adaptive knob is ignored while the plane is off.
        c.adaptive.enabled = false;
        c.adaptive.heat_alpha = -3.0;
        c.adaptive.ec_k = 0;
        c.adaptive.replication_min = 0;
        assert_eq!(c.validate(), Ok(()));
    }
}
