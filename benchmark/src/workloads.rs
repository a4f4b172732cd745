//! The four frozen workloads: deployment config, preloaded catalog, op
//! stream and fault plan, all derived from `--seed` and nothing else.
//!
//! Why these four is recorded per workload in `README.md` and, in one line
//! each, in `BENCHMARK.json`. Op counts are constants (never a time
//! budget), so every virtual-time metric and every count compares exactly
//! between two commits run on the same seed.

use std::time::Duration;

use c4h_simnet::DetRng;
use c4h_workloads::{arrivals, generate, Arrival, OpKind, OpenLoopConfig, TraceConfig};
use cloud4home::{Config, FaultEvent, NodeId, NodeSpec, ServiceKind, StorePolicy};

use crate::stats::Fnv;

const KIB: u64 = 1 << 10;
const MIB: u64 = 1 << 20;

/// Seeds whose generated inputs are pinned (see [`Workload::pinned_digest`]).
pub const PINNED_SEEDS: [u64; 2] = [2011, 1300];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    TestbedTrace,
    Neighborhood1k,
    FlashCrowd,
    PlanesGray,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::TestbedTrace,
        Workload::Neighborhood1k,
        Workload::FlashCrowd,
        Workload::PlanesGray,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::TestbedTrace => "testbed-trace",
            Workload::Neighborhood1k => "neighborhood-1k",
            Workload::FlashCrowd => "flash-crowd",
            Workload::PlanesGray => "planes-gray",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Measured-phase op count at full scale.
    pub fn full_ops(self) -> usize {
        match self {
            Workload::TestbedTrace => 10_000,
            Workload::Neighborhood1k => 3_600,
            // Two phases of 80 steady ops plus four bursts of 85 stores or
            // 70 fetches; `flash_crowd` holds those counts.
            Workload::FlashCrowd => 780,
            Workload::PlanesGray => 4_000,
        }
    }

    /// FNV-1a digest of the generated inputs at full scale for a pinned
    /// seed. A run on a pinned seed aborts when its inputs hash to
    /// anything else, so a later edit to `c4h-workloads`, to this file or
    /// to `Config`'s defaults cannot silently move the benchmark.
    pub fn pinned_digest(self, seed: u64) -> Option<u64> {
        let table: [u64; 2] = match self {
            Workload::TestbedTrace => [0xee88_2797_3275_11ff, 0xff36_6cbf_5a30_5755],
            Workload::Neighborhood1k => [0x5af0_e338_bb76_6acc, 0xfded_7494_6cf9_2fb8],
            Workload::FlashCrowd => [0x6c63_bcdc_eb54_8482, 0x362d_5da2_a671_743f],
            Workload::PlanesGray => [0x256c_9073_8a55_b6b3, 0x2177_e871_c0cb_c72e],
        };
        PINNED_SEEDS
            .iter()
            .position(|&s| s == seed)
            .map(|i| table[i])
    }
}

/// Which processing request a `process` op makes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProcKind {
    FaceDetect,
    /// Face detection then recognition, as one `process_pipeline`.
    FacePipeline,
    Transcode,
}

impl ProcKind {
    const ALL: [ProcKind; 3] = [
        ProcKind::FaceDetect,
        ProcKind::FacePipeline,
        ProcKind::Transcode,
    ];
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    Store,
    Fetch,
    Process(ProcKind),
}

/// One object the workload names: preloaded, stored, fetched or processed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObjectSpec {
    pub name: String,
    pub size: u64,
    pub content_seed: u64,
    pub content_type: &'static str,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpSpec {
    /// Index into [`Inputs::clients`].
    pub client: usize,
    /// Index into [`Inputs::objects`].
    pub object: usize,
    pub action: Action,
    /// Closed loop: think time after the client's previous completion.
    /// Open loop: due instant, as an offset from the measured phase's start.
    pub when: Duration,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Loop {
    /// Each client submits its next op only after its previous one
    /// completes (plus think time).
    Closed,
    /// Ops are submitted at their due instants whatever the backlog.
    /// `boundary` separates the upload surge from the download surge.
    Open {
        horizon: Duration,
        boundary: Duration,
    },
}

/// Everything one repetition consumes. Every repetition of a run
/// regenerates it (generation is part of set-up) and gets the same value.
#[derive(Debug, Clone)]
pub struct Inputs {
    pub workload: Workload,
    pub config: Config,
    pub clients: Vec<NodeId>,
    pub objects: Vec<ObjectSpec>,
    /// The first `preload` objects are stored during set-up, round-robin
    /// by the first `preload_clients` clients.
    pub preload: usize,
    pub preload_clients: usize,
    pub policy: StorePolicy,
    pub ops: Vec<OpSpec>,
    pub shape: Loop,
    /// `(n, fault)`: applied once `n` ops of the stream have completed, so
    /// a product change to virtual latency cannot slide the faults along
    /// the op stream.
    pub faults: Vec<(usize, FaultEvent)>,
    /// FNV-1a over everything above, the whole `Config` included.
    pub digest: u64,
}

/// Generates a workload's inputs. `scale_div` divides the op count (1 for
/// the real benchmark, 50 for the smoke tier).
pub fn build(workload: Workload, seed: u64, scale_div: usize) -> Inputs {
    let ops = (workload.full_ops() / scale_div).max(40);
    let mut inputs = match workload {
        Workload::TestbedTrace => testbed_trace(seed, ops),
        Workload::Neighborhood1k => neighborhood(seed, ops, scale_div),
        Workload::FlashCrowd => flash_crowd(seed, scale_div),
        Workload::PlanesGray => planes_gray(seed, ops),
    };
    inputs.digest = digest(&inputs);
    inputs
}

fn digest(inputs: &Inputs) -> u64 {
    let mut h = Fnv::default();
    h.str(inputs.workload.name());
    // The whole deployment config, defaults included: a product change to
    // `Config::paper_testbed` moves the benchmark as surely as an edit here.
    h.str(&format!("{:?}", inputs.config));
    h.str(&format!("{:?}", inputs.shape));
    for c in &inputs.clients {
        h.u64(c.0 as u64);
    }
    h.u64(inputs.preload as u64);
    h.u64(inputs.preload_clients as u64);
    h.str(&format!("{:?}", inputs.policy));
    for o in &inputs.objects {
        h.str(&o.name);
        h.u64(o.size);
        h.u64(o.content_seed);
        h.str(o.content_type);
    }
    for op in &inputs.ops {
        h.u64(op.client as u64);
        h.u64(op.object as u64);
        h.u64(match op.action {
            Action::Store => 0,
            Action::Fetch => 1,
            Action::Process(p) => 2 + p as u64,
        });
        h.u64(op.when.as_nanos() as u64);
    }
    for (after, ev) in &inputs.faults {
        h.u64(*after as u64);
        h.str(&format!("{ev:?}"));
    }
    h.finish()
}

/// The trace's files as benchmark objects. File `i` is the `i`-th most
/// popular (Zipf rank), and its size is re-drawn here from a
/// golden-ratio sequence over `[lo, hi)` instead of the generator's
/// independent uniform draw: with Zipf 0.9 the five hottest files take a
/// fifth of all ops, so whether they happen to be small, large or
/// cloud-bound would otherwise decide the run (29 % goodput spread between
/// seeds). Stratified, every seed's popularity head holds the same size
/// mix; the seed still moves op order, clients, kinds and content.
fn trace_objects(trace: &c4h_workloads::Trace, (lo, hi): (u64, u64)) -> Vec<ObjectSpec> {
    const GOLDEN: f64 = 0.618_033_988_749_894_9;
    trace
        .files
        .iter()
        .enumerate()
        .map(|(rank, f)| ObjectSpec {
            name: f.name.clone(),
            size: lo + ((rank as f64 * GOLDEN).fract() * (hi - lo) as f64) as u64,
            content_seed: f.content_seed,
            content_type: f.kind.content_type(),
        })
        .collect()
}

fn trace_action(op: OpKind) -> Action {
    match op {
        OpKind::Store => Action::Store,
        OpKind::Fetch => Action::Fetch,
    }
}

/// Paper testbed, default config, the reshaped eDonkey trace with every
/// tenth op turned into a processing request.
fn testbed_trace(seed: u64, ops: usize) -> Inputs {
    let sizes = (64 * KIB, 4 * MIB);
    let mut tc = TraceConfig::paper_default(ops);
    tc.size_override = Some(sizes);
    tc.mean_think = Duration::ZERO;
    let trace = generate(&tc, seed);
    let ops = trace
        .ops
        .iter()
        .enumerate()
        .map(|(i, t)| OpSpec {
            client: t.client,
            object: t.file,
            action: if i % 10 == 9 {
                Action::Process(ProcKind::ALL[(i / 10) % ProcKind::ALL.len()])
            } else {
                trace_action(t.op)
            },
            when: t.think,
        })
        .collect();
    Inputs {
        workload: Workload::TestbedTrace,
        config: Config::paper_testbed(seed),
        clients: (0..tc.clients).map(NodeId).collect(),
        objects: trace_objects(&trace, sizes),
        preload: trace.files.len(),
        preload_clients: tc.clients,
        // The paper's hybrid placement: large objects go to the cloud, so
        // the WAN, S3 and the gateway's public-cloud module all see work.
        policy: StorePolicy::SizeThreshold {
            cloud_at_bytes: 3 * MIB,
        },
        ops,
        shape: Loop::Closed,
        faults: Vec::new(),
        digest: 0,
    }
}

/// 999 netbooks + 1 desktop gateway on one LAN; 16 closed-loop clients on
/// spread nodes over a 512-object catalog of 64 KiB objects.
fn neighborhood(seed: u64, ops: usize, scale_div: usize) -> Inputs {
    // The smoke tier shrinks the world too: the O(n^2) join is the point
    // of the full workload and would not fit a unit-test budget.
    let nodes = if scale_div == 1 { 1000 } else { 64 };
    let clients = 16;
    let mut config = Config::paper_testbed(seed);
    config.chimera.leaf_size = 2;
    config.replication = 2;
    config.nodes.clear();
    for i in 0..nodes - 1 {
        config.nodes.push(NodeSpec::netbook(&format!("nb-{i:03}")));
    }
    config
        .nodes
        .push(NodeSpec::desktop("nb-gateway").with_services(&[ServiceKind::Transcode]));

    let sizes = (64 * KIB, 64 * KIB + 1);
    let tc = TraceConfig {
        clients,
        files: 512,
        store_fraction: 0.4,
        size_override: Some(sizes),
        mean_think: Duration::ZERO,
        ..TraceConfig::paper_default(ops)
    };
    let trace = generate(&tc, seed);
    let ops = trace
        .ops
        .iter()
        .map(|t| OpSpec {
            client: t.client,
            object: t.file,
            action: trace_action(t.op),
            when: t.think,
        })
        .collect();
    Inputs {
        workload: Workload::Neighborhood1k,
        config,
        clients: (0..clients)
            .map(|c| NodeId((c * (nodes / clients) + 7) % nodes))
            .collect(),
        objects: trace_objects(&trace, sizes),
        preload: trace.files.len(),
        preload_clients: tc.clients,
        policy: StorePolicy::ForceHome,
        ops,
        shape: Loop::Closed,
        faults: Vec::new(),
        digest: 0,
    }
}

/// `n` arrivals of a Poisson stream, time-warped to span `[start, start +
/// len)`. The count is fixed because host cost here grows with the cube of
/// the backlog: a Poisson count (±7 % at n = 200) would move host time by
/// tens of percent between seeds. The seed still moves every instant,
/// tenant and object.
fn window(
    mut c: OpenLoopConfig,
    n: usize,
    start: Duration,
    len: Duration,
    seed: u64,
) -> Vec<Arrival> {
    c.horizon = len;
    c.base_rate_hz = (2 * n + 20) as f64 / len.as_secs_f64();
    let mut stream = arrivals(&c, seed);
    assert!(
        stream.len() > n,
        "Poisson stream fell short of {n} arrivals"
    );
    let scale = len.as_secs_f64() / stream[n].at.as_secs_f64();
    stream.truncate(n);
    for a in &mut stream {
        a.at = start + a.at.mul_f64(scale);
    }
    stream
}

/// Open loop on the paper testbed: a steady mixed base load, an upload
/// surge of new 256 KiB objects, then a download surge by two guest
/// devices on a hot Zipf catalog.
fn flash_crowd(seed: u64, scale_div: usize) -> Inputs {
    const CATALOG: usize = 2048;
    const OBJ: u64 = 256 * KIB;
    // Netbooks 3 and 4 (clients 4 and 5) are guests: they contribute no voluntary storage,
    // so they never receive a replica and every catalog fetch they make
    // crosses the LAN. Without that, whether a fetch is local is a coin
    // flip per (tenant, object) and the surge's backlog, hence host time,
    // moves by tens of percent between seeds.
    const GUESTS: [usize; 2] = [4, 5];
    // 85 stores in 1 s put 170 replica flows on a LAN that carries ~45
    // such transfers a second; 70 striped fetches in 0.5 s put 210 stripes
    // on it.
    const UPLOADS_PER_SURGE: usize = 85;
    const DOWNLOADS_PER_SURGE: usize = 70;
    const STEADY_PER_PHASE: usize = 80;
    let mut config = Config::paper_testbed(seed);
    let order = [0, 1, 2, 5, 3, 4]; // client index -> node: guests last
    for g in GUESTS {
        config.nodes[order[g]].voluntary_bytes = 0;
    }
    config.replication = 3;
    config.replica_quorum = 2;
    config.fetch_sources = 3;
    let tenants = config.nodes.len();

    // Two phases, uploads then downloads. Each is a thin steady stream plus
    // SURGES short bursts far above what the LAN carries, spaced so one
    // drains before the next: several medium backlogs cost the host less
    // per op than one large one (cost per op grows with the square of the
    // backlog) and leave more latency samples per host-second.
    let surges = 4u32;
    let gap = Duration::from_secs(6);
    // Bursts are short against the time they take to drain, so an op's
    // latency is set by the backlog, not by where in the burst it arrived.
    let surge_lens = [Duration::from_millis(1000), Duration::from_millis(500)];
    let phase = gap * surges;
    let count = |full: usize| (full / scale_div).max(4);
    let stream = |store_fraction: f64, tenants: usize| {
        let mut c = OpenLoopConfig::steady(1.0, phase, tenants);
        c.store_fraction = store_fraction;
        c.catalog = CATALOG;
        c
    };
    let mut mixed = Vec::new();
    for (p, (store_fraction, per_surge, steady)) in [
        (1.0, count(UPLOADS_PER_SURGE), count(STEADY_PER_PHASE)),
        (0.0, count(DOWNLOADS_PER_SURGE), count(STEADY_PER_PHASE)),
    ]
    .into_iter()
    .enumerate()
    {
        let start = phase * p as u32;
        let salt = seed ^ (0xA5A5 << (16 * p));
        // Downloads come from the guests only (clients 4 and 5).
        let who = if p == 0 { tenants } else { GUESTS.len() };
        let mut part = window(stream(store_fraction, who), steady, start, phase, salt);
        for k in 0..surges {
            let at = start + gap * k + Duration::from_secs(1);
            part.extend(window(
                stream(store_fraction, who),
                per_surge,
                at,
                surge_lens[p],
                salt ^ (u64::from(k) + 1),
            ));
        }
        if p == 1 {
            for a in &mut part {
                a.tenant = GUESTS[a.tenant];
            }
        }
        mixed.extend(part);
    }
    mixed.sort_by_key(|a| a.at);

    let mut objects: Vec<ObjectSpec> = (0..CATALOG)
        .map(|i| ObjectSpec {
            name: format!("catalog/obj-{i:04}.bin"),
            size: OBJ,
            content_seed: seed.wrapping_mul(31).wrapping_add(i as u64),
            content_type: "doc",
        })
        .collect();
    let mut ops = Vec::with_capacity(mixed.len());
    for a in &mixed {
        let object = match a.op {
            OpKind::Fetch => a.object,
            OpKind::Store => {
                objects.push(ObjectSpec {
                    name: format!("open/st-{:05}.bin", ops.len()),
                    size: OBJ,
                    content_seed: seed.wrapping_mul(131).wrapping_add(ops.len() as u64),
                    content_type: "doc",
                });
                objects.len() - 1
            }
        };
        ops.push(OpSpec {
            client: a.tenant,
            object,
            action: trace_action(a.op),
            when: a.at,
        });
    }

    Inputs {
        workload: Workload::FlashCrowd,
        config,
        clients: order.into_iter().map(NodeId).collect(),
        objects,
        preload: CATALOG,
        // Guests come last and do not preload: they hold nothing.
        preload_clients: tenants - GUESTS.len(),
        policy: StorePolicy::MandatoryFirst,
        ops,
        shape: Loop::Open {
            horizon: phase * 2,
            boundary: phase,
        },
        faults: Vec::new(),
        digest: 0,
    }
}

/// 12 nodes, every plane on, and the gray failures the planes mask
/// completely.
fn planes_gray(seed: u64, ops: usize) -> Inputs {
    let nodes = 12;
    let clients = 8;
    let mut config = Config::paper_testbed(seed);
    config.nodes.clear();
    for i in 0..nodes - 1 {
        let mut n = NodeSpec::netbook(&format!("gray-{i:02}"));
        if i % 4 == 0 {
            n.services = vec![ServiceKind::FaceDetect, ServiceKind::FaceRecognize];
        }
        if i % 4 == 1 {
            n.services = vec![ServiceKind::Transcode];
        }
        config.nodes.push(n);
    }
    config
        .nodes
        .push(NodeSpec::desktop("gray-gateway").with_services(&[
            ServiceKind::FaceDetect,
            ServiceKind::FaceRecognize,
            ServiceKind::Transcode,
        ]));
    config.chimera.replication = 3;
    config.replication = 3;
    config.replica_quorum = 2;
    config.chunk_bytes = 512 * KIB;
    config.fetch_sources = 3;
    config.overload.enabled = true;
    // Adaptive plane on for its heat tracking and (3, 2) erasure coding of
    // cold objects; the replica band is pinned at 3 because, at this
    // commit, shrinking a cooling object races with fetches of it
    // (OwnerUnreachable on ~1 op in 1000 with no fault injected), and the
    // benchmark's workloads must not fail ops.
    config.adaptive.enabled = true;
    config.adaptive.replication_min = 3;
    config.adaptive.replication_max = 3;
    config.ledger = true;
    config.tracing = true;
    config.health_sample_ms = 500;

    let sizes = (256 * KIB, 3 * MIB);
    let tc = TraceConfig {
        clients,
        files: 400,
        size_override: Some(sizes),
        mean_think: Duration::from_millis(600),
        ..TraceConfig::paper_default(ops)
    };
    let trace = generate(&tc, seed);
    let mut objects = trace_objects(&trace, sizes);
    let catalog = objects.len();
    // At this commit `process` cannot read an erasure-coded object (it
    // fails with OwnerUnreachable once the adaptive plane has converted
    // it), so processing requests go to the nearest-ranked object below
    // the EC threshold, which always keeps full copies.
    let ec_threshold = config.adaptive.ec_threshold_bytes;
    let processable: Vec<usize> = (0..catalog)
        .map(|file| {
            (0..catalog)
                .map(|d| (file + d) % catalog)
                .find(|&i| objects[i].size < ec_threshold)
                .expect("some object is below the EC threshold")
        })
        .collect();
    // Fetches and processing read the preloaded catalog; stores write new
    // objects of the same size mix. At this commit, with the planes on, a
    // fetch that overlaps an overwrite of the same name can fail NotFound
    // (2 seeds in 24), and the contract wants no failing ops.
    let ops: Vec<OpSpec> = trace
        .ops
        .iter()
        .enumerate()
        .map(|(i, t)| {
            let (object, action) = if i % 8 == 7 {
                let kind = ProcKind::ALL[(i / 8) % ProcKind::ALL.len()];
                (processable[t.file], Action::Process(kind))
            } else if t.op == OpKind::Store {
                objects.push(ObjectSpec {
                    name: format!("gray/new-{i:05}.{}", objects[t.file].content_type),
                    content_seed: objects[t.file].content_seed ^ i as u64,
                    ..objects[t.file].clone()
                });
                (objects.len() - 1, Action::Store)
            } else {
                (t.file, Action::Fetch)
            };
            OpSpec {
                client: t.client,
                object,
                action,
                when: t.think,
            }
        })
        .collect();

    // Gray failures only, at fixed points of the op stream: a client node
    // running 3x slow for 45 % of the ops and a WAN brown-out for 50 %,
    // overlapping. The brown-out is that long because cloud-bound stores
    // inside it (50 s each) carry `virt_op_ms_mean`: the more of the stream
    // it covers, the less their count moves between seeds. The contract
    // wants workloads on which no op fails, and at this commit every harder
    // fault fails some (README.md has the list): a crash leaves a stale
    // overlay route behind on 1 seed in 40 (one client then times out a
    // sixth of its ops for the rest of the run); crash + rejoin fails an op
    // on 3 seeds in 20; cutting one node off for 15 % of the run fails ops
    // on 2 seeds in 8; 1 % Gilbert-Elliott loss fails ~7 % of ops.
    let mut rng = DetRng::seed(seed ^ 0xC4A0_5EED);
    let slow = NodeId(rng.uniform_u64(0, clients as u64) as usize);
    let after = |share: f64| (ops.len() as f64 * share) as usize;
    let faults = vec![
        (
            after(0.15),
            FaultEvent::SlowNode {
                node: slow,
                factor: 3.0,
            },
        ),
        (after(0.30), FaultEvent::WanDegrade(0.3)),
        (
            after(0.60),
            FaultEvent::SlowNode {
                node: slow,
                factor: 1.0,
            },
        ),
        (after(0.80), FaultEvent::WanDegrade(1.0)),
    ];

    Inputs {
        workload: Workload::PlanesGray,
        config,
        clients: (0..clients).map(NodeId).collect(),
        objects,
        preload: catalog,
        preload_clients: tc.clients,
        policy: StorePolicy::SizeThreshold {
            cloud_at_bytes: 2 * MIB + 512 * KIB,
        },
        ops,
        shape: Loop::Closed,
        faults,
        digest: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_covers_config_shape_and_fault_points() {
        let base = build(Workload::FlashCrowd, 7, 50);
        let mut moved = base.clone();
        moved.config.chunk_bytes += 1;
        assert_ne!(digest(&moved), base.digest);
        let mut moved = base.clone();
        moved.shape = Loop::Closed;
        assert_ne!(digest(&moved), base.digest);

        let base = build(Workload::PlanesGray, 7, 50);
        let mut moved = base.clone();
        moved.faults[0].0 += 1;
        assert_ne!(digest(&moved), base.digest);
    }
}
