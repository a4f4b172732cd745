//! End-to-end metrics: what a user of the modelled home cloud sees
//! (virtual time), what a user of the simulator pays (host clock), and the
//! exact counts that compare bit for bit between two commits.
//!
//! The model is unvalidated against hardware — the repo holds no reference
//! measurements — so no error figure accompanies the virtual-time metrics.

use std::collections::BTreeMap;

use crate::driver::{Kind, Rec, Rep, SEGMENTS};
use crate::stats::{median, nearest_rank};
use crate::workloads::{Action, Inputs, Loop};

/// Which clock a metric reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// Wall clock of the machine running the simulator; noisy.
    Host,
    /// The simulator's virtual clock; repeats exactly for a seed.
    Virtual,
    /// A count; repeats exactly for a seed.
    Exact,
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    pub clock: Clock,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

const fn def(
    name: &'static str,
    unit: &'static str,
    higher_is_better: bool,
    clock: Clock,
    bound: f64,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better,
        clock,
        bound,
    }
}

/// The end-to-end metrics, same names on every workload. Must match
/// `end_to_end` in `BENCHMARK.json` (the smoke tier checks it).
pub const END_TO_END: [MetricDef; 12] = [
    def("setup_s", "s", false, Clock::Host, 0.25),
    def("host_ops_per_s", "1/s", true, Clock::Host, 0.25),
    def("peak_rss_mib", "MiB", false, Clock::Host, 0.10),
    def("allocs_per_op", "count", false, Clock::Exact, 0.20),
    def("stored_bytes_ratio", "ratio", false, Clock::Exact, 0.10),
    def("ok_ops_share", "ratio", true, Clock::Exact, 0.01),
    def("virt_goodput_ops_per_s", "1/s", true, Clock::Virtual, 0.25),
    def("virt_fetch_ms_p50", "ms", false, Clock::Virtual, 0.20),
    def("virt_fetch_ms_p99", "ms", false, Clock::Virtual, 0.25),
    def("virt_store_ms_p50", "ms", false, Clock::Virtual, 0.25),
    def("virt_store_ms_p99", "ms", false, Clock::Virtual, 0.25),
    def("virt_op_ms_mean", "ms", false, Clock::Virtual, 0.25),
];

/// Open-loop latency limits: an op that completes later, fails or is
/// refused misses the limit and does not count toward goodput.
const FETCH_LIMIT_NS: u64 = 2_000_000_000;
const STORE_LIMIT_NS: u64 = 4_000_000_000;

/// A sample spread across repetitions wider than this marks the run noisy.
const NOISY_SPREAD: f64 = 0.15;

/// Sorted ok-latencies of one kind (all kinds when `kind` is `None`).
pub fn latencies(recs: &[Rec], kind: Option<Kind>) -> Vec<u64> {
    let mut l: Vec<u64> = recs
        .iter()
        .filter(|r| r.err.is_none() && kind.is_none_or(|k| r.kind == k))
        .map(Rec::latency_ns)
        .collect();
    l.sort_unstable();
    l
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Host-clock summary across repetitions: the reported value, and how
/// far the repetitions spread.
#[derive(Debug, Clone, Copy)]
pub struct HostSummary {
    pub fastest: f64,
    pub median: f64,
    /// `(max − min) / min` across repetitions.
    pub spread: f64,
}

/// The measured phase as if no piece of it had been disturbed: for each
/// piece of the op stream, the fastest any repetition ran it, summed. The
/// simulator is deterministic, so every repetition does identical work in
/// piece `k` and host noise can only add to it; taking the minimum piece
/// by piece lets one quiet stretch in any repetition count, where the
/// fastest whole repetition needs a repetition quiet from end to end.
pub fn undisturbed_measure_s(reps: &[Rep]) -> f64 {
    (0..SEGMENTS)
        .map(|k| {
            reps.iter()
                .map(|r| r.host.segments_s[k])
                .fold(f64::INFINITY, f64::min)
        })
        .sum()
}

pub fn host_summary(seconds: &[f64]) -> HostSummary {
    let min = seconds.iter().copied().fold(f64::INFINITY, f64::min);
    let max = seconds.iter().copied().fold(0.0, f64::max);
    HostSummary {
        fastest: min,
        median: median(seconds),
        spread: (max - min) / min,
    }
}

/// `VmHWM` of this process, MiB (0 where `/proc` is unavailable).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Bytes held on nodes and in the cloud ÷ bytes users have had
/// acknowledged, at quiescence. The cloud's share is reconstructed from the
/// reports (the runtime exposes no bucket size): a name whose last
/// acknowledged store went to the cloud holds its size there.
fn stored_bytes_ratio(inputs: &Inputs, rep: &Rep) -> f64 {
    let mut last: BTreeMap<usize, bool> =
        rep.preload_via_cloud.iter().copied().enumerate().collect();
    let mut order: Vec<(u64, usize, bool)> = rep
        .recs
        .iter()
        .zip(&inputs.ops)
        .filter(|(r, op)| op.action == Action::Store && r.err.is_none())
        .map(|(r, op)| (r.completed_ns, op.object, r.via_cloud))
        .collect();
    order.sort_unstable();
    for (_, object, via_cloud) in order {
        last.insert(object, via_cloud);
    }
    let acked: u64 = last.keys().map(|&o| inputs.objects[o].size).sum();
    let cloud: u64 = last
        .iter()
        .filter(|(_, &via)| via)
        .map(|(&o, _)| inputs.objects[o].size)
        .sum();
    (rep.node_bytes + cloud) as f64 / acked as f64
}

/// Values of the end-to-end metrics plus the detail printed beside them.
#[derive(Debug)]
pub struct EndToEnd {
    pub values: BTreeMap<&'static str, f64>,
    pub setup: HostSummary,
    pub measure: HostSummary,
    pub samples: BTreeMap<&'static str, usize>,
    pub attempted: u64,
    pub failed: u64,
    pub noisy: bool,
}

/// Computes the end-to-end metrics from the untraced repetitions.
/// `gen_s` is the input-generation time, part of set-up.
pub fn end_to_end(inputs: &Inputs, reps: &[Rep], gen_s: &[f64]) -> EndToEnd {
    let first = &reps[0];
    let setups: Vec<f64> = reps
        .iter()
        .zip(gen_s)
        .map(|(r, g)| r.host.setup_s + g)
        .collect();
    let measures: Vec<f64> = reps.iter().map(|r| r.host.measure_s).collect();
    let setup = host_summary(&setups);
    let measure = host_summary(&measures);

    let attempted = first.recs.len() as u64;
    let failed = first.recs.iter().filter(|r| r.err.is_some()).count() as u64;
    let ok = attempted - failed;

    // Repetition 1 also pays the process-global interner's first sight of
    // every name, so the steady-state count comes from the later ones.
    let steady = reps.get(1).unwrap_or(first);
    let allocs_per_op = steady.allocs as f64 / attempted as f64;

    let goodput = match inputs.shape {
        Loop::Closed => {
            let elapsed = (first.virt_last_ns - first.virt_start_ns) as f64 / 1e9;
            ok as f64 / elapsed
        }
        Loop::Open { horizon, .. } => {
            let good = first
                .recs
                .iter()
                .filter(|r| {
                    r.err.is_none()
                        && r.latency_ns()
                            <= match r.kind {
                                Kind::Fetch => FETCH_LIMIT_NS,
                                _ => STORE_LIMIT_NS,
                            }
                })
                .count();
            good as f64 / horizon.as_secs_f64()
        }
    };

    let mut values = BTreeMap::new();
    let mut samples = BTreeMap::new();
    values.insert("setup_s", setup.median);
    values.insert(
        "host_ops_per_s",
        attempted as f64 / undisturbed_measure_s(reps),
    );
    values.insert("peak_rss_mib", peak_rss_mib());
    values.insert("allocs_per_op", allocs_per_op);
    values.insert("stored_bytes_ratio", stored_bytes_ratio(inputs, first));
    values.insert("ok_ops_share", ok as f64 / attempted as f64);
    values.insert("virt_goodput_ops_per_s", goodput);
    for (kind, p50, p99, label) in [
        (
            Kind::Fetch,
            "virt_fetch_ms_p50",
            "virt_fetch_ms_p99",
            "fetch",
        ),
        (
            Kind::Store,
            "virt_store_ms_p50",
            "virt_store_ms_p99",
            "store",
        ),
    ] {
        let l = latencies(&first.recs, Some(kind));
        samples.insert(label, l.len());
        values.insert(p50, ms(nearest_rank(&l, 50)));
        values.insert(p99, ms(nearest_rank(&l, 99)));
    }
    let all = latencies(&first.recs, None);
    samples.insert("op", all.len());
    values.insert(
        "virt_op_ms_mean",
        all.iter().map(|&ns| ms(ns)).sum::<f64>() / all.len() as f64,
    );

    EndToEnd {
        values,
        setup,
        measure,
        samples,
        attempted,
        failed,
        noisy: setup.spread > NOISY_SPREAD || measure.spread > NOISY_SPREAD,
    }
}
