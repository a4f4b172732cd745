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

use std::collections::{BTreeMap, VecDeque};
use std::fmt::Display;
use std::sync::Arc;
use std::time::Duration;

use c4h_simnet::{FxHashMap, SimTime, Sym};
use c4h_telemetry::{FlightRecorder, PathBucket, SlidingHistogram};

use crate::config::Config;
use crate::ops::{OpKind, Stage};
use crate::report::{OpId, PathAttribution};

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

/// Per-kind latency summary for the `health` surface.
#[derive(Debug, Clone, Copy)]
pub(crate) struct KindHealth {
    pub(crate) count: u64,
    pub(crate) p50_ns: u64,
    pub(crate) p95_ns: u64,
    pub(crate) p99_ns: u64,
    /// Configured objective, if any.
    pub(crate) slo_ns: Option<u64>,
}

/// The gauge sampler's name table. A gauge is keyed by what its name is
/// made of — `(prefix, index, suffix)`, the index standing for the node,
/// segment or wheel level whose label sits between the two — so a name is
/// formatted the first time it is sampled and shared from then on: by the
/// row, the recorder's lookup and the flight ring. Bounded by the gauges
/// the deployment can report (≈ 5 per node); keyed access only.
#[derive(Debug, Default)]
pub(crate) struct GaugeNames(FxHashMap<(&'static str, usize, &'static str), Arc<str>>);

impl GaugeNames {
    /// The shared name of the fixed gauge `name`.
    pub(crate) fn plain(&mut self, name: &'static str) -> Arc<str> {
        self.of(name, 0, "", "")
    }

    /// The shared name `{prefix}{label}{suffix}`; `label` must be the same
    /// whenever `(prefix, index, suffix)` is.
    pub(crate) fn of(
        &mut self,
        prefix: &'static str,
        index: usize,
        label: impl Display,
        suffix: &'static str,
    ) -> Arc<str> {
        let name = self
            .0
            .entry((prefix, index, suffix))
            .or_insert_with(|| format!("{prefix}{label}{suffix}").into());
        Arc::clone(name)
    }

    /// How many distinct gauges have been sampled so far.
    pub(crate) fn len(&self) -> usize {
        self.0.len()
    }
}

/// Runtime state of the health plane: SLO windows, the worst-path ring,
/// the flight recorder, and the sampler's arming bookkeeping.
#[derive(Debug)]
pub(crate) struct HealthPlane {
    /// Gauge sampling cadence; `Duration::ZERO` disables the sampler.
    pub(crate) sample_period: Duration,
    window_ns: u64,
    slice_ns: u64,
    /// Latency objectives by op-kind name, nanoseconds.
    slo_ns: BTreeMap<String, u64>,
    /// Per-op-kind sliding latency windows, populated on first completion.
    windows: [Option<SlidingHistogram>; OpKind::COUNT],
    /// Post-mortem context ring + dumps.
    pub(crate) flight: FlightRecorder,
    /// Names of the gauges sampled so far.
    pub(crate) gauge_names: GaugeNames,
    paths: VecDeque<PathRow>,
    /// Bound on `paths` (`Config::path_ring`).
    path_ring: usize,
    /// Virtual time of the most recent gauge sample.
    pub(crate) last_sample: Option<SimTime>,
    /// Whether a `HealthSample` event is pending in the queue.
    pub(crate) armed: bool,
    /// Total SLO violations detected.
    pub(crate) violations: u64,
}

impl HealthPlane {
    pub(crate) fn new(config: &Config) -> Self {
        let window_ns = config.health_window_ms.saturating_mul(1_000_000).max(1);
        HealthPlane {
            sample_period: Duration::from_millis(config.health_sample_ms),
            window_ns,
            slice_ns: (window_ns / WINDOW_SLICES).max(1),
            slo_ns: config
                .slo_ms
                .iter()
                .map(|(k, ms)| (k.clone(), ms.saturating_mul(1_000_000)))
                .collect(),
            windows: Default::default(),
            flight: FlightRecorder::new(config.fault_ring, config.gauge_ring, config.dump_cap),
            gauge_names: GaugeNames::default(),
            paths: VecDeque::new(),
            path_ring: config.path_ring,
            last_sample: None,
            armed: false,
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
        let slo_ns = *self.slo_ns.get(kind.name())?;
        let p99_ns = window.merged(now.as_nanos()).value_at_quantile(99, 100);
        if p99_ns > slo_ns {
            self.violations += 1;
            Some(SloBreach { p99_ns, slo_ns })
        } else {
            None
        }
    }

    /// Current window summaries of the kinds seen so far, in name order.
    pub(crate) fn summaries(&self, now: SimTime) -> Vec<(&'static str, KindHealth)> {
        OpKind::all()
            .filter_map(|kind| {
                let m = self.windows[kind as usize].as_ref()?.merged(now.as_nanos());
                Some((
                    kind.name(),
                    KindHealth {
                        count: m.count,
                        p50_ns: m.value_at_quantile(1, 2),
                        p95_ns: m.value_at_quantile(95, 100),
                        p99_ns: m.value_at_quantile(99, 100),
                        slo_ns: self.slo_ns.get(kind.name()).copied(),
                    },
                ))
            })
            .collect()
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
        assert_eq!(hp.summaries(t).len(), 2);
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
        let (_, h) = hp.summaries(SimTime::from_secs(61))[0];
        assert_eq!(h.count, 1);
    }

    #[test]
    fn gauge_names_are_formatted_once_and_shared() {
        let mut names = GaugeNames::default();
        let cpu = names.of("node.", 3, "netbook-3", ".cpu_milli");
        assert_eq!(&*cpu, "node.netbook-3.cpu_milli");
        assert!(Arc::ptr_eq(
            &cpu,
            &names.of("node.", 3, "unused", ".cpu_milli")
        ));
        assert_eq!(
            &*names.of("node.", 4, "desktop", ".cpu_milli"),
            "node.desktop.cpu_milli"
        );
        assert_eq!(
            &*names.of("engine.wheel.l", 2, 2, "_occupied"),
            "engine.wheel.l2_occupied"
        );
        assert_eq!(
            &*names.of("overload.admit_tokens.", 0, "", "fetch"),
            "overload.admit_tokens.fetch"
        );
        assert_eq!(&*names.plain("runtime.queue_depth"), "runtime.queue_depth");
        assert_eq!(names.len(), 5);
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
