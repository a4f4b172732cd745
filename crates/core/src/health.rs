//! The continuous health plane.
//!
//! `c4h-telemetry`'s recorder keeps the gauge series; this module keeps
//! the rest and gives it its Cloud4Home meaning: sliding latency windows
//! per op kind and their objectives, how a completed op's stage log maps
//! onto critical-path buckets, and the flight recorder, whose post-mortem
//! dumps keep a failed op's kind, stage log and gauge ids typed until they
//! are rendered. The runtime drives it from the event loop — see
//! `Event::HealthSample` in `runtime.rs`.
//!
//! Determinism rules (the same ones the rest of the telemetry stack obeys):
//! the health plane reads simulation state, it never mutates it; it draws
//! no randomness; every derived value is integer fixed-point; and every
//! collection it keeps is bounded and deterministically ordered. With
//! tracing disabled none of this code runs beyond one relaxed atomic load
//! per call site.

use std::collections::VecDeque;
use std::fmt::Write;
use std::sync::Arc;

use c4h_simnet::{FlowNet, SegmentLoad, SimTime, Sym};
use c4h_telemetry::{escape_into, GaugeId, Histogram, Recorder, TimeNs};

use crate::config::Config;
use crate::ops::OpKind;
use crate::report::{OpId, PathAttribution, PathBucket, StageSpan};
use crate::runtime::Cloud4Home;

/// Sliding-window slices per window (granularity of expiry).
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

/// A latency histogram over a sliding virtual-time window.
///
/// Samples land in fixed-width time slices; queries merge the slices that
/// overlap `(now - window, now]`. Slice granularity bounds both memory
/// (`window / slice + 1` slices) and staleness (an expired sample lingers
/// at most one slice).
#[derive(Debug, Clone)]
pub(crate) struct SlidingHistogram {
    window_ns: u64,
    slice_ns: u64,
    slices: VecDeque<(TimeNs, Histogram)>,
}

impl SlidingHistogram {
    /// Creates a window of `window_ns` with `slice_ns` granularity.
    ///
    /// # Panics
    ///
    /// Panics if either is zero or the slice exceeds the window.
    pub(crate) fn new(window_ns: u64, slice_ns: u64) -> Self {
        assert!(slice_ns > 0, "slice must be non-zero");
        assert!(
            window_ns >= slice_ns,
            "window must cover at least one slice"
        );
        SlidingHistogram {
            window_ns,
            slice_ns,
            slices: VecDeque::new(),
        }
    }

    /// Records one sample observed at virtual time `ts_ns`.
    pub(crate) fn observe(&mut self, ts_ns: TimeNs, value: u64) {
        let start = ts_ns - ts_ns % self.slice_ns;
        match self.slices.back_mut() {
            Some((s, h)) if *s == start => h.observe(value),
            _ => {
                let mut h = Histogram::default();
                h.observe(value);
                self.slices.push_back((start, h));
            }
        }
        self.evict(ts_ns);
    }

    fn evict(&mut self, now: TimeNs) {
        let horizon = now.saturating_sub(self.window_ns);
        while let Some(&(start, _)) = self.slices.front() {
            if start + self.slice_ns <= horizon {
                self.slices.pop_front();
            } else {
                break;
            }
        }
    }

    /// Merges every slice overlapping `(now - window, now]` into one
    /// histogram; empty when no live samples remain.
    pub(crate) fn merged(&self, now: TimeNs) -> Histogram {
        let horizon = now.saturating_sub(self.window_ns);
        let mut out = Histogram::default();
        for (start, h) in &self.slices {
            if *start + self.slice_ns > horizon && *start <= now {
                out.merge(h);
            }
        }
        out
    }
}

/// One gauge sample row as the sampler wrote it: `(gauge, value)` pairs in
/// sample order.
type GaugeRow = Vec<(GaugeId, i64)>;

/// One post-mortem dump: everything needed to explain a failed operation
/// without replaying the run. It keeps what the op and the rings held —
/// the op's kind, its stage log, the gauge ids — and names them only in
/// [`Postmortem::to_json`].
#[derive(Debug, Clone)]
pub(crate) struct Postmortem {
    /// Virtual time the failure was recorded.
    ts_ns: TimeNs,
    /// Dumps cut before this one in the same virtual instant (a burst of
    /// timeouts at one deadline), so the id `pm-<ts_ns>-<seq>` is unique.
    seq: u32,
    op: OpId,
    kind: OpKind,
    /// Object name the operation targeted.
    object: Sym,
    /// Error label, e.g. `"Timeout"`.
    error: &'static str,
    /// Virtual time the operation was submitted.
    submitted_ns: TimeNs,
    /// The op's completed stages.
    stages: Vec<StageSpan>,
    /// Recent fault events as `(ts_ns, description)`, oldest first.
    faults: Vec<(TimeNs, String)>,
    /// Recent gauge sample rows, oldest first.
    gauges: Vec<(TimeNs, GaugeRow)>,
}

/// The separator before the `i`-th element of a JSON list.
fn sep(i: usize) -> &'static str {
    if i > 0 {
        ","
    } else {
        ""
    }
}

impl Postmortem {
    /// The gauge rows, each named by `rec` (the recorder that registered
    /// the ring's gauges) and sorted by name — stably, so a gauge named
    /// twice in one row keeps its two points in row order.
    fn named_gauges<'a>(
        &'a self,
        rec: &'a Recorder,
    ) -> impl Iterator<Item = (TimeNs, Vec<(Arc<str>, i64)>)> + 'a {
        self.gauges.iter().map(move |(ts, row)| {
            let mut named: Vec<(Arc<str>, i64)> =
                row.iter().map(|&(id, v)| (rec.gauge_name(id), v)).collect();
            named.sort_by(|a, b| a.0.cmp(&b.0));
            (*ts, named)
        })
    }

    /// Serializes this dump as one byte-stable JSON object; `rec` names
    /// the gauges. The kind, stage and error names come from fixed tables
    /// of plain identifiers, so only the object name, the fault notes and
    /// the gauge names are escaped.
    fn to_json(&self, out: &mut String, rec: &Recorder) {
        let (ts, seq, op, kind) = (self.ts_ns, self.seq, self.op.0, self.kind.name());
        let _ = write!(
            out,
            "{{\"id\":\"pm-{ts}-{seq}\",\"ts_ns\":{ts},\"op\":{op},"
        );
        let _ = write!(out, "\"kind\":\"{kind}\",\"object\":\"");
        escape_into(out, self.object.as_str());
        let (error, submitted) = (self.error, self.submitted_ns);
        let _ = write!(
            out,
            "\",\"error\":\"{error}\",\"submitted_ns\":{submitted},\"stages\":["
        );
        for (i, s) in self.stages.iter().enumerate() {
            let (name, start, end) = (s.name(), s.start_ns, s.end_ns);
            let _ = write!(out, "{}[\"{name}\",{start},{end}]", sep(i));
        }
        out.push_str("],\"faults\":[");
        for (i, (ts, desc)) in self.faults.iter().enumerate() {
            let _ = write!(out, "{}[{ts},\"", sep(i));
            escape_into(out, desc);
            out.push_str("\"]");
        }
        out.push_str("],\"gauges\":[");
        for (i, (ts, row)) in self.named_gauges(rec).enumerate() {
            let _ = write!(out, "{}[{ts},{{", sep(i));
            for (j, (name, value)) in row.iter().enumerate() {
                let _ = write!(out, "{}\"", sep(j));
                escape_into(out, name);
                let _ = write!(out, "\":{value}");
            }
            out.push_str("}]");
        }
        out.push_str("]}");
    }
}

/// A bounded ring of recent health context plus the post-mortem dumps cut
/// from it when operations fail.
///
/// The recorder itself never samples anything: the runtime feeds it fault
/// notes and gauge rows as they happen, and calls [`FlightRecorder::record`]
/// on terminal op errors. All capacities are fixed (`Config::fault_ring`,
/// `gauge_ring`, `dump_cap`) so a chaotic run cannot grow this without
/// bound; once the gauge ring is full, each new row is copied into the
/// buffer of the row it evicts.
#[derive(Debug, Clone)]
pub(crate) struct FlightRecorder {
    fault_cap: usize,
    gauge_cap: usize,
    dump_cap: usize,
    faults: VecDeque<(TimeNs, String)>,
    gauges: VecDeque<(TimeNs, GaugeRow)>,
    /// The dumps recorded so far, oldest first.
    dumps: Vec<Postmortem>,
    /// Dumps dropped because the cap was reached.
    dropped: u64,
}

impl FlightRecorder {
    /// Creates a recorder keeping the last `fault_cap` fault notes, the
    /// last `gauge_cap` gauge rows, and at most `dump_cap` dumps.
    pub(crate) fn new(fault_cap: usize, gauge_cap: usize, dump_cap: usize) -> Self {
        FlightRecorder {
            fault_cap,
            gauge_cap,
            dump_cap,
            faults: VecDeque::new(),
            gauges: VecDeque::new(),
            dumps: Vec::new(),
            dropped: 0,
        }
    }

    /// Notes a fault event (crash, partition, heal, …).
    pub(crate) fn note_fault(&mut self, ts_ns: TimeNs, description: String) {
        if self.faults.len() == self.fault_cap {
            self.faults.pop_front();
        }
        self.faults.push_back((ts_ns, description));
    }

    /// Notes one gauge sample row (`(gauge, value)` pairs).
    pub(crate) fn note_gauges(&mut self, ts_ns: TimeNs, row: &[(GaugeId, i64)]) {
        let mut buf = GaugeRow::new();
        if self.gauges.len() == self.gauge_cap {
            if let Some((_, evicted)) = self.gauges.pop_front() {
                buf = evicted;
            }
        }
        buf.clear();
        buf.extend_from_slice(row);
        self.gauges.push_back((ts_ns, buf));
    }

    /// Cuts a post-mortem dump for a failed op, attaching the current fault
    /// and gauge rings. Dumps beyond the cap are counted, not stored.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn record(
        &mut self,
        ts_ns: TimeNs,
        op: OpId,
        kind: OpKind,
        object: Sym,
        error: &'static str,
        submitted_ns: TimeNs,
        stages: Vec<StageSpan>,
    ) {
        if self.dumps.len() >= self.dump_cap {
            self.dropped += 1;
            return;
        }
        let seq = match self.dumps.last() {
            Some(last) if last.ts_ns == ts_ns => last.seq + 1,
            _ => 0,
        };
        self.dumps.push(Postmortem {
            ts_ns,
            seq,
            op,
            kind,
            object,
            error,
            submitted_ns,
            stages,
            faults: self.faults.iter().cloned().collect(),
            gauges: self.gauges.iter().cloned().collect(),
        });
    }

    /// Serializes every dump as one byte-stable JSON array; `rec` is the
    /// recorder that registered the ring's gauges, and names them.
    pub(crate) fn dumps_json(&self, rec: &Recorder) -> String {
        let mut out = String::with_capacity(64 + self.dumps.len() * 512);
        out.push_str("[\n");
        for (i, d) in self.dumps.iter().enumerate() {
            out.push_str(if i > 0 { ",\n" } else { "" });
            d.to_json(&mut out, rec);
        }
        out.push_str("\n]\n");
        out
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
            health.flight.dumps.len(),
            health.flight.dropped,
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
/// (the sequential spans `charge()` recorded).
///
/// Stages on the sequential path never overlap, so bucket sums plus the
/// `Other` remainder (queueing, command processing, uncharged transitions)
/// equal `total_ns` exactly.
pub(crate) fn attribute(
    stage_log: &[StageSpan],
    total_ns: u64,
    via_cloud: bool,
) -> PathAttribution {
    let mut cp = PathAttribution::default();
    for s in stage_log {
        cp.add(
            s.stage.bucket(via_cloud),
            s.end_ns.saturating_sub(s.start_ns),
        );
    }
    let accounted = cp.total_ns();
    cp.add(PathBucket::Other, total_ns.saturating_sub(accounted));
    cp
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use super::*;
    use crate::ops::Stage;

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
        ]
        .map(|(stage, start_ns, end_ns)| StageSpan {
            stage,
            start_ns,
            end_ns,
        });
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

    const MS: u64 = 1_000_000;

    fn span(stage: Stage, start_ns: u64, end_ns: u64) -> StageSpan {
        StageSpan {
            stage,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn sliding_window_expires_old_slices() {
        let mut w = SlidingHistogram::new(10 * MS, MS);
        w.observe(0, 100);
        w.observe(8 * MS, 200);
        let m = w.merged(8 * MS);
        assert_eq!(m.count, 2);
        // At t=16ms the t=0 slice (16ms old) has left the 10ms window; the
        // t=8ms slice (8ms old) is still live.
        w.observe(16 * MS, 300);
        let m = w.merged(16 * MS);
        assert_eq!(m.count, 2);
        assert_eq!(m.min, 200);
        // Eviction also bounds the slice deque itself.
        assert!(w.slices.len() <= 11);
    }

    #[test]
    fn sliding_window_percentiles_use_live_samples_only() {
        let mut w = SlidingHistogram::new(10 * MS, MS);
        for i in 0..10u64 {
            w.observe(i * MS, 10);
        }
        w.observe(30 * MS, 5000);
        let m = w.merged(30 * MS);
        assert_eq!(m.count, 1);
        assert_eq!(m.value_at_quantile(99, 100), 5000);
    }

    #[test]
    fn flight_recorder_rings_are_bounded() {
        let rec = Recorder::new();
        let (g, a) = (rec.register_gauge("g"), rec.register_gauge("a"));
        let mut fr = FlightRecorder::new(2, 2, 1);
        for i in 0..5u64 {
            fr.note_fault(i, format!("fault{i}"));
            fr.note_gauges(i, &[(g, i as i64), (a, -1)]);
        }
        let (obj, stages) = (Sym::new("obj"), vec![span(Stage::FetchMetaGet, 0, 9)]);
        fr.record(9, OpId(1), OpKind::Fetch, obj, "Timeout", 0, stages);
        fr.record(10, OpId(2), OpKind::Fetch, obj, "Timeout", 0, vec![]);
        assert_eq!(fr.dumps.len(), 1);
        assert_eq!(fr.dropped, 1);
        let d = &fr.dumps[0];
        assert_eq!(d.faults, vec![(3, "fault3".into()), (4, "fault4".into())]);
        // The last two rows, their names resolved and sorted.
        let row = |v: i64| vec![(Arc::from("a"), -1), (Arc::from("g"), v)];
        let named: Vec<_> = d.named_gauges(&rec).collect();
        assert_eq!(named, vec![(3, row(3)), (4, row(4))]);
        let json = fr.dumps_json(&rec);
        assert!(json.contains("\"error\":\"Timeout\""));
        assert!(json.starts_with("[\n{\"id\":\"pm-9-0\",\"ts_ns\":9"));
    }

    #[test]
    fn same_instant_dumps_get_distinct_ids() {
        // Regression: two ops timing out at the same virtual instant used
        // to collide on a timestamp-only post-mortem id.
        let mut fr = FlightRecorder::new(2, 2, 8);
        let (fetch, store) = (OpKind::Fetch, OpKind::Store);
        fr.record(100, OpId(1), fetch, Sym::new("a"), "Timeout", 0, vec![]);
        fr.record(100, OpId(2), fetch, Sym::new("b"), "Timeout", 0, vec![]);
        fr.record(100, OpId(3), store, Sym::new("c"), "Timeout", 0, vec![]);
        fr.record(250, OpId(4), fetch, Sym::new("d"), "Timeout", 0, vec![]);
        let json = fr.dumps_json(&Recorder::new());
        let ids: Vec<&str> = json
            .split("\"id\":\"")
            .skip(1)
            .map(|s| &s[..s.find('"').unwrap()])
            .collect();
        assert_eq!(ids, vec!["pm-100-0", "pm-100-1", "pm-100-2", "pm-250-0"]);
        let mut uniq = ids.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), ids.len(), "post-mortem ids must be unique");
    }

    #[test]
    fn postmortem_json_is_reproducible() {
        let rec = Recorder::new();
        let d = Postmortem {
            ts_ns: 5,
            seq: 0,
            op: OpId(3),
            kind: OpKind::Store,
            object: Sym::new("a\"b"),
            error: "NoSpace",
            submitted_ns: 1,
            stages: vec![span(Stage::StoreDiskWrite, 1, 4)],
            faults: vec![(2, "crash node4".into())],
            gauges: vec![(3, vec![(rec.register_gauge("cpu"), 250)])],
        };
        let json = |d: &Postmortem| {
            let mut out = String::new();
            d.to_json(&mut out, &rec);
            out
        };
        assert_eq!(json(&d), json(&d.clone()));
        assert!(json(&d).contains("\"object\":\"a\\\"b\""));
        assert!(json(&d).contains("[\"store.disk_write\",1,4]"));
        assert!(json(&d).contains("[3,{\"cpu\":250}]"));
    }
}

#[cfg(test)]
mod gauge_oracle {
    //! The post-mortem half of the gauge column oracle (the recorder half
    //! is `c4h-telemetry`'s `gauge_oracle`).
    //!
    //! Before gauges were registered columns, the flight ring kept each
    //! sample row as name-sorted `(String, i64)` pairs, and a dump copied
    //! those rows and renamed the op's stage log into `(name, start, end)`
    //! rows when it was cut. [`OldDump`] and the ring of name-sorted rows
    //! are that recorder, kept verbatim; the proptest below runs random
    //! scripts of gauge registrations, sample rows, `clear`,
    //! enable/disable, fault notes and post-mortem cuts against both, and
    //! requires the same dump rows and the same `dumps_json` bytes after
    //! every step — so names resolved when a dump is rendered equal the
    //! names the old dump copied when it was cut.
    //!
    //! Run in release with `cargo test -q --release -p cloud4home --lib
    //! gauge_oracle`.

    use std::collections::VecDeque;
    use std::fmt::Write;

    use proptest::collection;
    use proptest::prelude::*;

    use super::*;
    use crate::ops::Stage;

    /// Gauge names the scripts draw from: JSON escapes, a control character,
    /// non-ASCII, and names whose byte order differs from their
    /// case-folded order.
    const NAMES: [&str; 14] = [
        "runtime.queue_depth",
        "node.netbook-0.cpu_milli",
        "node.desktop.cpu_milli",
        "net.home-ethernet.flows",
        "a",
        "a.b",
        "a_b",
        "Z",
        "",
        "quote\"d",
        "back\\slash",
        "new\nline\ttab",
        "ctl\u{1}",
        "unicode-Ω☃",
    ];

    /// Post-mortem gauge ring depth of the scripts' flight recorders.
    const RING: usize = 3;

    /// Fault ring depth of the scripts' flight recorders.
    const FAULTS: usize = 2;

    /// Stages a dump's stage log draws from.
    const STAGES: [Stage; 4] = [
        Stage::FetchMetaGet,
        Stage::FetchFlowHome,
        Stage::StoreDiskWrite,
        Stage::ProcExec,
    ];

    /// Error labels a dump draws from.
    const ERRORS: [&str; 3] = ["Timeout", "ExecutorFailed", "OwnerUnreachable"];

    /// One dump as the old flight recorder cut it: names copied in.
    #[derive(Debug, Clone, PartialEq, Eq)]
    struct OldDump {
        id: String,
        ts_ns: TimeNs,
        op_id: u64,
        kind: &'static str,
        object: &'static str,
        error: &'static str,
        submitted_ns: TimeNs,
        stages: Vec<(&'static str, TimeNs, TimeNs)>,
        faults: Vec<(TimeNs, String)>,
        gauges: Vec<(TimeNs, Vec<(String, i64)>)>,
    }

    impl OldDump {
        fn to_json(&self) -> String {
            let mut out = String::with_capacity(512);
            out.push_str("{\"id\":\"");
            escape_into(&mut out, &self.id);
            let _ = write!(
                out,
                "\",\"ts_ns\":{},\"op\":{},\"kind\":\"",
                self.ts_ns, self.op_id
            );
            escape_into(&mut out, self.kind);
            out.push_str("\",\"object\":\"");
            escape_into(&mut out, self.object);
            out.push_str("\",\"error\":\"");
            escape_into(&mut out, self.error);
            let _ = write!(
                out,
                "\",\"submitted_ns\":{},\"stages\":[",
                self.submitted_ns
            );
            for (i, (name, s, e)) in self.stages.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str("[\"");
                escape_into(&mut out, name);
                let _ = write!(out, "\",{s},{e}]");
            }
            out.push_str("],\"faults\":[");
            for (i, (ts, desc)) in self.faults.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "[{ts},\"");
                escape_into(&mut out, desc);
                out.push_str("\"]");
            }
            out.push_str("],\"gauges\":[");
            for (i, (ts, row)) in self.gauges.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "[{ts},{{");
                for (j, (name, value)) in row.iter().enumerate() {
                    if j > 0 {
                        out.push(',');
                    }
                    out.push('"');
                    escape_into(&mut out, name);
                    let _ = write!(out, "\":{value}");
                }
                out.push_str("}]");
            }
            out.push_str("]}");
            out
        }
    }

    fn old_dumps_json(dumps: &[OldDump]) -> String {
        let mut out = String::with_capacity(64 + dumps.len() * 512);
        out.push_str("[\n");
        for (i, d) in dumps.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            out.push_str(&d.to_json());
        }
        out.push_str("\n]\n");
        out
    }

    /// One script step.
    #[derive(Debug, Clone)]
    enum Step {
        /// Registers `NAMES[i]`.
        Register(usize),
        /// One sample row; a gauge named twice gets two points at one
        /// instant, and a gauge left out is a gap (a dead node's row).
        Sample(Vec<(usize, i64)>),
        /// The last `Sample` row again, `n` times one nanosecond apart.
        Repeat(usize),
        Clear,
        Enable(bool),
        /// Moves the clock; 0 samples twice at one instant.
        Advance(u64),
        /// Notes fault `n`.
        Fault(u8),
        /// Cuts a post-mortem for an op of kind `OpKind::all()[k]`, error
        /// `ERRORS[e]`, with stage log `(STAGES[i], start, len)`.
        Dump(usize, usize, Vec<(usize, u64, u64)>),
    }

    fn step() -> impl Strategy<Value = Step> {
        let row = || collection::vec((0..NAMES.len(), -5i64..5), 0..12).prop_map(Step::Sample);
        let stages = collection::vec((0..STAGES.len(), 0u64..50, 0u64..50), 0..5);
        prop_oneof![
            row(),
            row(),
            row(),
            (0..NAMES.len()).prop_map(Step::Register),
            (1usize..20).prop_map(Step::Repeat),
            Just(Step::Clear),
            any::<bool>().prop_map(Step::Enable),
            (0u64..3).prop_map(Step::Advance),
            any::<u8>().prop_map(Step::Fault),
            (0..OpKind::COUNT, 0..ERRORS.len(), stages).prop_map(|(k, e, s)| Step::Dump(k, e, s)),
        ]
    }

    /// The recorder and its flight recorder beside the ring of name-sorted
    /// rows, the fault ring and the dumps they replaced.
    struct Both {
        rec: Recorder,
        flight: FlightRecorder,
        old_ring: VecDeque<(TimeNs, Vec<(String, i64)>)>,
        old_faults: VecDeque<(TimeNs, String)>,
        old_dumps: Vec<OldDump>,
    }

    impl Both {
        /// Writes the sample row `points` at `ts` to both sides.
        fn sample(&mut self, ts: TimeNs, points: &[(usize, i64)]) {
            let mut row = Vec::new();
            let mut old_row: Vec<(String, i64)> = Vec::new();
            for &(i, v) in points {
                row.push((self.rec.register_gauge(NAMES[i]), v));
                old_row.push((NAMES[i].to_owned(), v));
            }
            self.rec.gauge_sample(ts, &row);
            self.flight.note_gauges(ts, &row);
            old_row.sort_by(|a, b| a.0.cmp(&b.0));
            if self.old_ring.len() == RING {
                self.old_ring.pop_front();
            }
            self.old_ring.push_back((ts, old_row));
        }

        fn fault(&mut self, ts: TimeNs, n: u8) {
            let desc = format!("crash node{n}");
            self.flight.note_fault(ts, desc.clone());
            if self.old_faults.len() == FAULTS {
                self.old_faults.pop_front();
            }
            self.old_faults.push_back((ts, desc));
        }

        fn dump(&mut self, ts: TimeNs, kind: OpKind, error: &'static str, log: Vec<StageSpan>) {
            let op = self.old_dumps.len() as u64 + 1;
            let seq = self.old_dumps.iter().filter(|d| d.ts_ns == ts).count();
            self.old_dumps.push(OldDump {
                id: format!("pm-{ts}-{seq}"),
                ts_ns: ts,
                op_id: op,
                kind: kind.name(),
                object: "obj",
                error,
                submitted_ns: 0,
                stages: log
                    .iter()
                    .map(|s| (s.name(), s.start_ns, s.end_ns))
                    .collect(),
                faults: self.old_faults.iter().cloned().collect(),
                gauges: Vec::from(self.old_ring.clone()),
            });
            let obj = Sym::new("obj");
            self.flight.record(ts, OpId(op), kind, obj, error, 0, log);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn dumps_render_like_the_name_sorted_ring(
            script in collection::vec(step(), 0..64),
        ) {
            let mut both = Both {
                rec: Recorder::new(),
                flight: FlightRecorder::new(FAULTS, RING, 64),
                old_ring: VecDeque::new(),
                old_faults: VecDeque::new(),
                old_dumps: Vec::new(),
            };
            both.rec.set_enabled(true);
            let mut last_row = Vec::new();
            let mut ts: TimeNs = 0;
            for step in script {
                match step {
                    Step::Register(i) => {
                        both.rec.register_gauge(NAMES[i]);
                    }
                    Step::Sample(points) => {
                        both.sample(ts, &points);
                        last_row = points;
                    }
                    Step::Repeat(n) => {
                        for _ in 0..n {
                            ts += 1;
                            both.sample(ts, &last_row);
                        }
                    }
                    Step::Clear => both.rec.clear(),
                    Step::Enable(on) => both.rec.set_enabled(on),
                    Step::Advance(dt) => ts += dt,
                    Step::Fault(n) => both.fault(ts, n),
                    Step::Dump(k, e, stages) => {
                        let kind = OpKind::all().nth(k).expect("a kind");
                        let log = stages
                            .into_iter()
                            .map(|(i, start_ns, len)| StageSpan {
                                stage: STAGES[i],
                                start_ns,
                                end_ns: start_ns + len,
                            })
                            .collect();
                        both.dump(ts, kind, ERRORS[e], log);
                        let dump = both.flight.dumps.last().expect("below the dump cap");
                        let named: Vec<(TimeNs, Vec<(String, i64)>)> = dump
                            .named_gauges(&both.rec)
                            .map(|(ts, row)| {
                                (ts, row.into_iter().map(|(n, v)| (n.to_string(), v)).collect())
                            })
                            .collect();
                        prop_assert_eq!(&named, &Vec::from(both.old_ring.clone()));
                    }
                }
                prop_assert_eq!(
                    both.flight.dumps_json(&both.rec),
                    old_dumps_json(&both.old_dumps)
                );
            }
        }
    }
}
