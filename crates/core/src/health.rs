//! The runtime half of the continuous health plane.
//!
//! `c4h-telemetry` provides the deterministic substrate (gauge series,
//! sliding histograms, the flight recorder); this module gives those
//! primitives their Cloud4Home meaning: which op kinds have latency
//! objectives, how a completed op's stage log maps onto critical-path
//! buckets, and what context a post-mortem carries. The runtime drives it
//! from the event loop — see `Event::HealthSample` in `runtime.rs`.
//!
//! Determinism rules (the same ones the rest of the telemetry stack obeys):
//! the health plane reads simulation state, it never mutates it; it draws
//! no randomness; every derived value is integer fixed-point; and every
//! collection it keeps is bounded and deterministically ordered. With
//! tracing disabled none of this code runs beyond one relaxed atomic load
//! per call site.

use std::collections::VecDeque;

use c4h_simnet::{FlowNet, SegmentLoad, SimTime, Sym};
use c4h_telemetry::{FlightRecorder, GaugeId, PathBucket, Recorder, SlidingHistogram};

use crate::config::Config;
use crate::ops::{OpKind, Stage};
use crate::report::{OpId, PathAttribution};
use crate::runtime::Cloud4Home;

/// Sliding-window slices per window (granularity of expiry).
///
/// The ring depths that used to live beside this constant (`FAULT_RING`,
/// `GAUGE_RING`, `DUMP_CAP`, `PATH_RING`) are now `Config` fields
/// (`fault_ring`, `gauge_ring`, `dump_cap`, `path_ring`) with the same
/// defaults.
const WINDOW_SLICES: u64 = 16;

/// One completed operation's critical path, kept for the `top` surface.
#[derive(Debug, Clone)]
pub(crate) struct PathRow {
    pub(crate) op: OpId,
    pub(crate) kind: &'static str,
    pub(crate) object: Sym,
    pub(crate) total_ns: u64,
    pub(crate) path: PathAttribution,
}

/// An SLO breach detected at op completion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SloBreach {
    /// The sliding window's p99 at completion, nanoseconds.
    pub(crate) p99_ns: u64,
    /// The configured objective, nanoseconds.
    pub(crate) slo_ns: u64,
}

/// Runtime depth gauges, sampled on every row.
const RUNTIME_GAUGES: [&str; 4] = [
    "runtime.queue_depth",
    "runtime.ops_inflight",
    "runtime.flows_inflight",
    "runtime.background_jobs",
];

/// Overload-plane gauges, sampled while the plane is on.
const OVERLOAD_GAUGES: [&str; 3] = [
    "overload.shed_permille",
    "overload.breakers_open",
    "overload.tenants_inflight",
];

/// Engine introspection gauges, sampled while the causal ledger is on.
/// `engine.wheel.len` is the event queue's length, named for the timer
/// wheel the queue once was; `benchmark/src/layers.rs` reads it by name.
const ENGINE_GAUGES: [&str; 9] = [
    "engine.wheel.len",
    "engine.intern.count",
    "engine.flows.started",
    "engine.flows.completed",
    "engine.flows.canceled",
    "engine.flows.inflight",
    "engine.ledger.rings",
    "engine.ledger.recorded",
    "engine.ledger.dropped",
];

/// A live node's gauges: `node.<name><suffix>`.
const NODE_GAUGES: [&str; 5] = [
    ".cpu_milli",
    ".mem_free_mib",
    ".disk_used_bytes",
    ".dht_table",
    ".cache_hit_permille",
];

/// A topology segment's gauges: `net.<name><suffix>`.
const SEGMENT_GAUGES: [&str; 2] = [".util_permille", ".flows"];

/// Registers `{prefix}{label}{suffix}` for each suffix.
fn register_labelled<const N: usize>(
    rec: &Recorder,
    prefix: &str,
    label: &str,
    suffixes: [&str; N],
) -> [GaugeId; N] {
    suffixes.map(|suffix| rec.register_gauge(&format!("{prefix}{label}{suffix}")))
}

/// A node's gauge ids, registered the first time the node is sampled and
/// kept on the node (`NodeRt::gauges`); the values go in `NODE_GAUGES`
/// order.
pub(crate) fn node_gauges(rec: &Recorder, name: &str) -> [GaugeId; 5] {
    register_labelled(rec, "node.", name, NODE_GAUGES)
}

/// The ids of the gauges every deployment has, registered on the first
/// sample. Values go in the order of the matching name table.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FixedGauges {
    pub(crate) runtime: [GaugeId; 4],
    pub(crate) overload: [GaugeId; 3],
    pub(crate) engine: [GaugeId; 9],
}

/// The gauge sampler's columns: the ids it writes a row with, and the row.
///
/// Every gauge is registered with the recorder once, the first time its
/// subject is sampled — its name formatted then and never again — and
/// found from then on by position: a fixed slot, the node's own field, the
/// index of a segment, the op kind of an admit-token row. A
/// steady sample looks up no name, hashes nothing and sorts nothing, and
/// its row and segment-load buffers are reused.
#[derive(Debug, Default)]
pub(crate) struct GaugeColumns {
    fixed: Option<FixedGauges>,
    segments: Vec<[GaugeId; 2]>,
    /// Admit-token gauges by op kind.
    admit: [Option<GaugeId>; OpKind::COUNT],
    loads: Vec<SegmentLoad>,
    row: Vec<(GaugeId, i64)>,
}

impl GaugeColumns {
    /// Starts a row; the first call registers the fixed gauges.
    pub(crate) fn start(&mut self, rec: &Recorder) -> FixedGauges {
        self.row.clear();
        *self.fixed.get_or_insert_with(|| FixedGauges {
            runtime: RUNTIME_GAUGES.map(|name| rec.register_gauge(name)),
            overload: OVERLOAD_GAUGES.map(|name| rec.register_gauge(name)),
            engine: ENGINE_GAUGES.map(|name| rec.register_gauge(name)),
        })
    }

    /// Adds the values of `ids`, pairwise.
    pub(crate) fn put<const N: usize>(&mut self, ids: [GaugeId; N], values: [i64; N]) {
        self.row.extend(ids.into_iter().zip(values));
    }

    /// Adds every segment's utilization and flow count.
    pub(crate) fn put_segments(&mut self, rec: &Recorder, net: &mut FlowNet) {
        net.segment_loads_into(&mut self.loads);
        for (i, load) in self.loads.iter().enumerate() {
            // Loads come in segment-id order, and segments are only added.
            if i == self.segments.len() {
                let name = net.topology().segment(load.segment).name();
                let ids = register_labelled(rec, "net.", name, SEGMENT_GAUGES);
                self.segments.push(ids);
            }
            let [util, flows] = self.segments[i];
            self.row.push((util, load.util_permille() as i64));
            self.row.push((flows, load.flows as i64));
        }
    }

    /// Adds the admission tokens of each kind given.
    pub(crate) fn put_admit_tokens(
        &mut self,
        rec: &Recorder,
        rows: impl Iterator<Item = (OpKind, u64)>,
    ) {
        for (kind, tokens) in rows {
            let id = *self.admit[kind as usize].get_or_insert_with(|| {
                rec.register_gauge(&format!("overload.admit_tokens.{}", kind.name()))
            });
            self.row.push((id, tokens as i64));
        }
    }

    /// The row written since [`GaugeColumns::start`].
    pub(crate) fn row(&self) -> &[(GaugeId, i64)] {
        &self.row
    }
}

/// Runtime state of the health plane: SLO windows, the worst-path ring,
/// the flight recorder, and the gauge sampler's columns. When the sampler
/// fires is the runtime's periodic-chain state.
#[derive(Debug)]
pub(crate) struct HealthPlane {
    window_ns: u64,
    slice_ns: u64,
    /// Latency objectives by op kind, nanoseconds.
    slo_ns: [Option<u64>; OpKind::COUNT],
    /// Per-op-kind sliding latency windows, populated on first completion.
    windows: [Option<SlidingHistogram>; OpKind::COUNT],
    /// Post-mortem context ring + dumps.
    pub(crate) flight: FlightRecorder,
    /// The gauge sampler's registered columns and row buffer.
    pub(crate) columns: GaugeColumns,
    paths: VecDeque<PathRow>,
    /// Bound on `paths` (`Config::path_ring`).
    path_ring: usize,
    /// Total SLO violations detected.
    pub(crate) violations: u64,
}

impl HealthPlane {
    pub(crate) fn new(config: &Config) -> Self {
        let window_ns = config.health_window_ms.saturating_mul(1_000_000).max(1);
        let mut slo_ns = [None; OpKind::COUNT];
        for kind in OpKind::all() {
            slo_ns[kind as usize] = config
                .slo_ms
                .get(kind.name())
                .map(|ms| ms.saturating_mul(1_000_000));
        }
        HealthPlane {
            window_ns,
            slice_ns: (window_ns / WINDOW_SLICES).max(1),
            slo_ns,
            windows: Default::default(),
            flight: FlightRecorder::new(config.fault_ring, config.gauge_ring, config.dump_cap),
            columns: GaugeColumns::default(),
            paths: VecDeque::new(),
            path_ring: config.path_ring,
            violations: 0,
        }
    }

    /// Feeds one completed op's latency into its kind's sliding window and
    /// checks the window p99 against the kind's objective, if configured.
    pub(crate) fn observe_latency(
        &mut self,
        kind: OpKind,
        now: SimTime,
        total_ns: u64,
    ) -> Option<SloBreach> {
        let window = self.windows[kind as usize]
            .get_or_insert_with(|| SlidingHistogram::new(self.window_ns, self.slice_ns));
        window.observe(now.as_nanos(), total_ns);
        let slo_ns = self.slo_ns[kind as usize]?;
        let p99_ns = window.merged(now.as_nanos()).value_at_quantile(99, 100);
        if p99_ns > slo_ns {
            self.violations += 1;
            Some(SloBreach { p99_ns, slo_ns })
        } else {
            None
        }
    }

    /// Remembers a completed op's critical path (bounded ring).
    pub(crate) fn record_path(&mut self, row: PathRow) {
        while self.paths.len() >= self.path_ring {
            self.paths.pop_front();
        }
        self.paths.push_back(row);
    }

    /// The `n` slowest recently completed ops, worst first (ties keep
    /// completion order, so the output is deterministic).
    pub(crate) fn worst_paths(&self, n: usize) -> Vec<PathRow> {
        let mut rows: Vec<PathRow> = self.paths.iter().cloned().collect();
        rows.sort_by(|a, b| b.total_ns.cmp(&a.total_ns).then(a.op.0.cmp(&b.op.0)));
        rows.truncate(n);
        rows
    }
}

impl Cloud4Home {
    /// A human-readable health summary: per-op-kind sliding-window latency
    /// percentiles against their objectives, violation and post-mortem
    /// counts. Integer-only formatting, deterministic per seed.
    pub fn health_text(&self) -> String {
        let (now, health) = (self.now().as_nanos(), &self.health);
        let mut out = self.report_header("health");
        if health.windows.iter().all(Option::is_none) {
            out.push_str("no operations observed in the window\n");
        }
        // The kinds seen so far, in name order.
        for kind in OpKind::all() {
            let Some(window) = &health.windows[kind as usize] else {
                continue;
            };
            let (name, m) = (kind.name(), window.merged(now));
            let p99_ns = m.value_at_quantile(99, 100);
            let slo = match health.slo_ns[kind as usize] {
                Some(slo_ns) => {
                    let status = if p99_ns > slo_ns { "BREACH" } else { "ok" };
                    format!("slo {} ms [{status}]", slo_ns / 1_000_000)
                }
                None => "no slo".to_owned(),
            };
            out.push_str(&format!(
                "{name:8} n={} p50={} ms p95={} ms p99={} ms {slo}\n",
                m.count,
                m.value_at_quantile(1, 2) / 1_000_000,
                m.value_at_quantile(95, 100) / 1_000_000,
                p99_ns / 1_000_000,
            ));
        }
        out.push_str(&format!(
            "violations={} postmortems={} (dropped {})\n",
            health.violations,
            health.flight.dumps().len(),
            health.flight.dropped(),
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
        self.flush_sample();
        let mut out = self.report_header("top");
        let latest = self.telemetry.latest_gauges();
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
}

/// Attributes an op's end-to-end latency across buckets from its stage log
/// (the sequential `(stage, start_ns, end_ns)` spans `charge()` recorded).
///
/// Stages on the sequential path never overlap, so bucket sums plus the
/// `Other` remainder (queueing, command processing, uncharged transitions)
/// equal `total_ns` exactly.
pub(crate) fn attribute(
    stage_log: &[(Stage, u64, u64)],
    total_ns: u64,
    via_cloud: bool,
) -> PathAttribution {
    let mut cp = PathAttribution::default();
    for &(stage, start_ns, end_ns) in stage_log {
        cp.add(stage.bucket(via_cloud), end_ns.saturating_sub(start_ns));
    }
    let accounted = cp.total_ns();
    cp.add(PathBucket::Other, total_ns.saturating_sub(accounted));
    cp
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use super::*;

    fn plane(slo_fetch_ms: u64) -> HealthPlane {
        let mut cfg = Config::paper_testbed(1);
        cfg.slo_ms = BTreeMap::from([("fetch".to_owned(), slo_fetch_ms)]);
        cfg.health_window_ms = 10_000;
        HealthPlane::new(&cfg)
    }

    #[test]
    fn breach_fires_iff_window_p99_exceeds_slo() {
        let mut hp = plane(100); // 100 ms objective
        let t = SimTime::from_secs(1);
        assert!(hp.observe_latency(OpKind::Fetch, t, 50_000_000).is_none());
        let breach = hp
            .observe_latency(OpKind::Fetch, t, 500_000_000)
            .expect("p99 is now 500ms > 100ms");
        assert_eq!(breach.slo_ns, 100_000_000);
        assert!(breach.p99_ns >= 500_000_000);
        assert_eq!(hp.violations, 1);
        // Kinds without an objective are tracked but never breach.
        assert!(hp.observe_latency(OpKind::Store, t, u64::MAX / 2).is_none());
        assert_eq!(hp.windows.iter().flatten().count(), 2);
    }

    #[test]
    fn stale_samples_age_out_of_the_window() {
        let mut hp = plane(100);
        let slow = 500_000_000;
        assert!(hp
            .observe_latency(OpKind::Fetch, SimTime::from_secs(1), slow)
            .is_some());
        // 60s later (window is 10s) the slow sample is gone; a fast op
        // completes without a breach.
        assert!(hp
            .observe_latency(OpKind::Fetch, SimTime::from_secs(61), 1_000_000)
            .is_none());
        let fetch = hp.windows[OpKind::Fetch as usize].as_ref().expect("seen");
        assert_eq!(fetch.merged(61_000_000_000).count, 1);
    }

    #[test]
    fn gauge_columns_register_once_and_write_by_position() {
        let rec = Recorder::new();
        let mut cols = GaugeColumns::default();
        let name = |row: &[(GaugeId, i64)], i: usize| rec.gauge_name(row[i].0).to_string();
        let fixed = cols.start(&rec);
        assert_eq!(rec.gauges_registered(), 4 + 3 + 9);
        assert_eq!(&*rec.gauge_name(fixed.runtime[0]), "runtime.queue_depth");
        assert_eq!(&*rec.gauge_name(fixed.engine[0]), "engine.wheel.len");
        assert_eq!(&*rec.gauge_name(fixed.engine[8]), "engine.ledger.dropped");
        let [cpu, ..] = node_gauges(&rec, "netbook-3");
        assert_eq!(&*rec.gauge_name(cpu), "node.netbook-3.cpu_milli");
        cols.put(fixed.overload, [5, 0, 7]);
        cols.put_admit_tokens(&rec, [(OpKind::Fetch, 3), (OpKind::Store, 4)].into_iter());
        assert_eq!(name(cols.row(), 2), "overload.tenants_inflight");
        assert_eq!(name(cols.row(), 3), "overload.admit_tokens.fetch");
        let registered = rec.gauges_registered();

        // A second sample registers nothing new unless a kind appears, and
        // a kind that sorts first shifts the others' places, not their ids.
        let first = cols.row().to_vec();
        assert_eq!(cols.start(&rec).runtime, fixed.runtime);
        assert!(cols.row().is_empty(), "a row starts empty");
        cols.put(fixed.overload, [1, 1, 1]);
        cols.put_admit_tokens(
            &rec,
            [(OpKind::Delete, 1), (OpKind::Fetch, 2), (OpKind::Store, 0)].into_iter(),
        );
        assert_eq!(rec.gauges_registered(), registered + 1);
        let ids: Vec<GaugeId> = cols.row().iter().map(|&(id, _)| id).collect();
        assert_eq!(ids[..3], [first[0].0, first[1].0, first[2].0]);
        assert_eq!(name(cols.row(), 3), "overload.admit_tokens.delete");
        assert_eq!(ids[4..], [first[3].0, first[4].0]);
        assert_eq!(cols.row()[4], (first[3].0, 2));
    }

    #[test]
    fn attribution_sums_to_total_with_other_as_remainder() {
        let log = [
            (Stage::FetchMetaGet, 0, 10),
            (Stage::FetchFlowHome, 10, 70),
            (Stage::FetchChannelOut, 70, 80),
        ];
        let cp = attribute(&log, 100, false);
        assert_eq!(cp.dht_ns, 10);
        assert_eq!(cp.lan_ns, 60);
        assert_eq!(cp.other_ns, 30); // 10 charged + 20 gap
        assert_eq!(cp.total_ns(), 100);
        assert_eq!(cp.dominant(), ("lan", 60));
    }

    #[test]
    fn worst_paths_sort_descending_and_stay_bounded() {
        let mut hp = plane(100);
        let ring = Config::paper_testbed(1).path_ring as u64;
        for i in 0..(ring + 10) {
            hp.record_path(PathRow {
                op: OpId(i),
                kind: "fetch",
                object: Sym::new(&format!("o{i}")),
                total_ns: i * 100,
                path: PathAttribution::default(),
            });
        }
        let worst = hp.worst_paths(3);
        assert_eq!(worst.len(), 3);
        assert!(worst[0].total_ns > worst[1].total_ns);
        assert_eq!(worst[0].op, OpId(ring + 9));
    }

    #[test]
    fn path_ring_cap_follows_config() {
        let mut cfg = Config::paper_testbed(1);
        cfg.path_ring = 2;
        let mut hp = HealthPlane::new(&cfg);
        for i in 0..5u64 {
            hp.record_path(PathRow {
                op: OpId(i),
                kind: "fetch",
                object: Sym::new(&format!("o{i}")),
                total_ns: i,
                path: PathAttribution::default(),
            });
        }
        let worst = hp.worst_paths(10);
        assert_eq!(worst.len(), 2, "ring honors the configured cap");
        assert_eq!(worst[0].op, OpId(4));
    }
}
