//! The traced run: one extra repetition with `Config::tracing` and
//! `Config::ledger` on and driver-side spans around every call into `core`,
//! then the per-layer table — counts read from `RunStats`, the recorder's
//! counters and gauge series and the reports; unit costs from the isolated
//! probes at the operating points the repetition observed.
//!
//! Layers are the repo's modules. `X.host_share_est` = (X's work count on
//! this workload × X's isolated unit cost) ÷ measured-phase wall of the
//! fastest untraced repetition. `core.runtime.host_share_residual` is what
//! no probe reaches: the step/pump/tick loop and the op state machines.
//! Which end-to-end metric each layer metric should move, and where, is
//! tabulated in `README.md`.

use std::fmt::Write as _;

use c4h_telemetry::GaugeSeries;
use cloud4home::Snapshot;

use crate::driver::{run_rep, Kind, Rec, Rep};
use crate::metrics::latencies;
use crate::probes;
use crate::run::RunOpts;
use crate::spans::Tracer;
use crate::stats::{median, nearest_rank};
use crate::workloads::{Inputs, Workload};

/// Per-layer metric names and units, in output order. Must match
/// `per_layer` in `BENCHMARK.json` (the smoke tier checks it).
pub const PER_LAYER: [(&str, &str); 83] = [
    ("workloads.gen_ms", "ms"),
    ("workloads.ops_generated", "count"),
    ("core.new_ms", "ms"),
    ("core.preload_ms", "ms"),
    ("core.submit_us_mean", "us"),
    ("core.run_ms", "ms"),
    ("core.take_report_us_mean", "us"),
    ("core.host_us_per_op", "us"),
    ("core.host_us_per_virt_ms", "us"),
    ("core.surge_store_host_s", "s"),
    ("core.surge_fetch_host_s", "s"),
    ("core.runtime.host_share_residual", "ratio"),
    ("core.ops_completed", "count"),
    ("core.failed_ops_share", "ratio"),
    ("core.dht_retries", "count"),
    ("core.fetch_failovers", "count"),
    ("core.proc_redispatches", "count"),
    ("core.replicas_written", "count"),
    ("core.repairs_completed", "count"),
    ("core.quorum_publishes", "count"),
    ("core.striped_fetches", "count"),
    ("core.hedged_fetches", "count"),
    ("core.ops_shed", "count"),
    ("core.breaker_trips", "count"),
    ("core.virt.dht_share", "ratio"),
    ("core.virt.inter_node_share", "ratio"),
    ("core.virt.inter_domain_share", "ratio"),
    ("core.virt.disk_share", "ratio"),
    ("core.virt.exec_share", "ratio"),
    ("core.virt.decision_share", "ratio"),
    ("core.virt.queue_share", "ratio"),
    ("core.crit.lan_share", "ratio"),
    ("core.crit.wan_share", "ratio"),
    ("core.crit.backoff_share", "ratio"),
    ("core.ec.host_us_per_mib", "us"),
    ("core.ec.converts", "count"),
    ("simnet.queue.pending_mean", "count"),
    ("simnet.queue.cascades", "count"),
    ("simnet.queue.events_est", "count"),
    ("simnet.queue.host_ns_per_event", "ns"),
    ("simnet.queue.host_share_est", "ratio"),
    ("simnet.flow.started", "count"),
    ("simnet.flow.canceled", "count"),
    ("simnet.flow.inflight_mean", "count"),
    ("simnet.flow.inflight_at_change", "count"),
    ("simnet.flow.inflight_max", "count"),
    ("simnet.flow.host_us_per_change", "us"),
    ("simnet.flow.host_share_est", "ratio"),
    ("simnet.flow.lan_util_mean", "ratio"),
    ("simnet.flow.wan_util_mean", "ratio"),
    ("simnet.intern.count", "count"),
    ("simnet.intern.first_rep_extra_allocs", "count"),
    ("chimera.join_envelopes", "count"),
    ("chimera.envelopes_per_op", "count"),
    ("chimera.envelopes_dropped", "count"),
    ("chimera.lookup_hops_per_op", "count"),
    ("chimera.cache_hit_ratio", "ratio"),
    ("chimera.host_ns_per_handle", "ns"),
    ("chimera.host_share_est", "ratio"),
    ("kvstore.record_encodes", "count"),
    ("kvstore.record_decodes", "count"),
    ("kvstore.record_bytes_mean", "B"),
    ("kvstore.host_ns_per_codec", "ns"),
    ("kvstore.host_share_est", "ratio"),
    ("vmm.host_ns_per_command", "ns"),
    ("vmm.virt.inter_domain_ms_mean", "ms"),
    ("resources.host_ns_per_sample", "ns"),
    ("resources.host_share_est", "ratio"),
    ("services.executions", "count"),
    ("services.input_bytes_mean", "B"),
    ("services.host_us_per_exec", "us"),
    ("services.host_share_est", "ratio"),
    ("services.virt.process_ms_p50", "ms"),
    ("services.virt.process_ms_p99", "ms"),
    ("cloud.via_cloud_share", "ratio"),
    ("cloud.host_ns_per_s3_op", "ns"),
    ("telemetry.tracing_overhead_ratio", "ratio"),
    ("telemetry.spans_recorded", "count"),
    ("telemetry.ledger_recorded", "count"),
    ("telemetry.ledger_dropped", "count"),
    ("telemetry.host_ns_per_span", "ns"),
    ("telemetry.host_ns_disabled_probe", "ns"),
    ("telemetry.export_ms", "ms"),
];

/// The per-layer metrics where a larger value is the better one (the rest
/// are costs, or counts of work one would rather not do).
pub const HIGHER_IS_BETTER: [&str; 3] = [
    "workloads.ops_generated",
    "core.ops_completed",
    "chimera.cache_hit_ratio",
];

/// Span records kept for the trace file (totals cover every call).
const SPAN_RECORDS: usize = 100_000;

pub struct LayerOutcome {
    pub metrics: Vec<(String, f64, &'static str)>,
    pub problems: Vec<String>,
}

/// Summary of a gauge series over the measured phase.
struct Gauge {
    mean: f64,
    max: f64,
    last: f64,
    /// For a gauge that only counts up: how far it rose over the measured
    /// phase (last sample minus the last one taken during set-up).
    rise: f64,
    /// Mean weighted by the value itself: what a unit of the gauged
    /// quantity sees (the in-flight count a flow change meets).
    self_weighted: f64,
}

fn gauge(series: Option<&GaugeSeries>, from_ns: u64) -> Gauge {
    let all = series.map_or(&[][..], GaugeSeries::points);
    let measured = all.partition_point(|(ts, _)| *ts < from_ns);
    let pts: Vec<f64> = all[measured..].iter().map(|&(_, v)| v as f64).collect();
    if pts.is_empty() {
        return Gauge {
            mean: 0.0,
            max: 0.0,
            last: 0.0,
            rise: 0.0,
            self_weighted: 0.0,
        };
    }
    let at_setup = all[..measured].last().map_or(0.0, |&(_, v)| v as f64);
    let sum: f64 = pts.iter().sum();
    let sq: f64 = pts.iter().map(|v| v * v).sum();
    Gauge {
        mean: sum / pts.len() as f64,
        max: pts.iter().copied().fold(0.0, f64::max),
        last: *pts.last().expect("non-empty"),
        rise: pts.last().expect("non-empty") - at_setup,
        self_weighted: if sum > 0.0 { sq / sum } else { 0.0 },
    }
}

fn share(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

/// Values by metric name; [`Table::finish`] lays them out in
/// [`PER_LAYER`] order and insists every declared metric was set.
#[derive(Default)]
struct Table(std::collections::BTreeMap<&'static str, f64>);

impl Table {
    fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "{name} is not a declared per-layer metric"
        );
        self.0.insert(name, value);
    }

    fn finish(self) -> Vec<(String, f64, &'static str)> {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let value = *self
                    .0
                    .get(name)
                    .unwrap_or_else(|| panic!("per-layer metric {name} was never set"));
                (name.to_owned(), value, unit)
            })
            .collect()
    }
}

/// Runs the traced repetition and the probes, writes the span trace, and
/// returns the per-layer table in [`PER_LAYER`] order.
pub fn traced_run(
    opts: &RunOpts,
    inputs: &Inputs,
    untraced: &[Rep],
    gen_s: &[f64],
    notes: &mut String,
) -> LayerOutcome {
    let mut problems = Vec::new();
    let mut tr = Tracer::on(SPAN_RECORDS);
    let traced = run_rep(inputs, &mut tr, true);
    for v in traced.violations.iter().take(5) {
        problems.push(format!("traced repetition: {v}"));
    }
    // planes-gray already runs with tracing and the ledger on, so its
    // traced repetition must reproduce the untraced ones exactly.
    if inputs.workload == Workload::PlanesGray && traced.digest != untraced[0].digest {
        problems.push("traced repetition's result digest differs".to_owned());
    }
    if let Some(dir) = &opts.out_dir {
        let path = dir.join(format!("trace_{}.json", inputs.workload.name()));
        let written =
            std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, tr.chrome_json()));
        match written {
            Ok(()) => {
                let _ = writeln!(
                    notes,
                    "  wrote {} ({} spans)",
                    path.display(),
                    tr.spans().len()
                );
            }
            Err(e) => problems.push(format!("cannot write {}: {e}", path.display())),
        }
    }

    let fastest = untraced
        .iter()
        .min_by(|a, b| a.host.measure_s.total_cmp(&b.host.measure_s))
        .expect("untraced repetitions ran");
    let first = &untraced[0];
    let wall_s = fastest.host.measure_s;
    let wall_ns = wall_s * 1e9;
    let ops = first.recs.len() as f64;
    let exports = traced.exports.as_ref().expect("traced repetition exports");
    let snap: &Snapshot = &exports.snapshot;
    let from = traced.virt_start_ns;
    let series = |name: &str| gauge(snap.series.get(name), from);
    // Recorder counters and histograms are cumulative since `new`; the
    // measured phase is what they gained after set-up.
    let counter = |name: &str| {
        (snap.counter(name) - exports.setup_counters.get(name).copied().unwrap_or(0)) as f64
    };
    let hist_mean = |name: &str| {
        let (count, sum) = snap
            .histograms
            .get(name)
            .map_or((0, 0), |h| (h.count, h.sum));
        let (count0, sum0) = exports
            .setup_histograms
            .get(name)
            .map_or((0, 0), |h| (h.count, h.sum));
        share((sum - sum0) as f64, (count - count0) as f64)
    };
    let stat = |f: fn(&cloud4home::RunStats) -> u64| {
        (f(&first.stats_end) - f(&first.stats_after_setup)) as f64
    };
    let virt_s = (first.virt_idle_ns - first.virt_start_ns) as f64 / 1e9;

    let mut t = Table::default();

    // workloads
    t.set("workloads.gen_ms", median(gen_s) * 1e3);
    t.set("workloads.ops_generated", ops);

    // core: spans around its public calls (traced repetition), host time
    // per op (fastest untraced repetition).
    let span_ms = |name: &str| tr.total(name).dur_ns as f64 / 1e6;
    let total_of = |names: &[&str]| {
        names
            .iter()
            .map(|n| tr.total(n))
            .fold((0u64, 0u64), |(ns, calls), t| {
                (ns + t.dur_ns, calls + t.calls)
            })
    };
    let (submit_ns, submits) = total_of(&[
        "core.store_object",
        "core.fetch_object",
        "core.process_object",
        "core.process_pipeline",
    ]);
    let (run_ns, _) = total_of(&["core.run_for", "core.run_until_idle"]);
    let (take_ns, takes) = total_of(&["core.take_report"]);
    t.set("core.new_ms", span_ms("core.new"));
    t.set("core.preload_ms", span_ms("preload"));
    t.set(
        "core.submit_us_mean",
        share(submit_ns as f64 / 1e3, submits as f64),
    );
    t.set("core.run_ms", run_ns as f64 / 1e6);
    t.set(
        "core.take_report_us_mean",
        share(take_ns as f64 / 1e3, takes as f64),
    );
    t.set("core.host_us_per_op", wall_s * 1e6 / ops);
    t.set(
        "core.host_us_per_virt_ms",
        share(wall_s * 1e6, virt_s * 1e3),
    );
    t.set("core.surge_store_host_s", fastest.host.surge_store_s);
    t.set("core.surge_fetch_host_s", fastest.host.surge_fetch_s);

    // Unit costs at the observed operating points.
    let pending = series("engine.wheel.len");
    let inflight = series("engine.flows.inflight");
    let queue_ns = probes::queue_ns_per_event(pending.mean.round() as usize);
    let flow_us = probes::flow_us_per_change(inflight.self_weighted.round() as usize);
    let chimera_ns =
        probes::chimera_ns_per_handle(inputs.config.nodes.len(), inputs.config.chimera.leaf_size);
    let codec_ns = probes::kvstore_ns_per_codec();
    let sample_ns = probes::resources_ns_per_sample();
    let exec_us = probes::services_us_per_exec();
    let (span_ns, disabled_ns) = probes::telemetry_ns();

    // Work counts.
    let envelopes = stat(|s| s.envelopes_delivered);
    let flows = stat(|s| s.flows_started);
    let stages: f64 = traced.recs.iter().map(|r| f64::from(r.stages)).sum();
    // Every delivery, op continuation, flow completion and 500 ms tick is
    // one queue event; there is no public pop counter to read instead.
    let events_est = envelopes + stages + flows + virt_s * 2.0;
    let encodes = counter("kvstore.record_encodes");
    let decodes = counter("kvstore.record_decodes");
    let executions = counter("services.executions");
    // One sampler per node per publish period.
    let publish_s = inputs.config.monitor.update_period.as_secs_f64();
    let samples = inputs.config.nodes.len() as f64 * share(virt_s, publish_s);

    let queue_share = share(events_est * queue_ns, wall_ns);
    let flow_share = share(flows * 2.0 * flow_us * 1e3, wall_ns);
    let chimera_share = share(envelopes * chimera_ns, wall_ns);
    let kvstore_share = share((encodes + decodes) * codec_ns, wall_ns);
    let resources_share = share(samples * sample_ns, wall_ns);
    let services_share = share(executions * exec_us * 1e3, wall_ns);
    let residual = 1.0
        - (queue_share
            + flow_share
            + chimera_share
            + kvstore_share
            + resources_share
            + services_share);
    t.set("core.runtime.host_share_residual", residual);

    // core: counts over the measured phase.
    let failed = first.recs.iter().filter(|r| r.err.is_some()).count() as f64;
    t.set("core.ops_completed", stat(|s| s.ops_completed));
    t.set("core.failed_ops_share", failed / ops);
    t.set("core.dht_retries", stat(|s| s.dht_retries));
    t.set("core.fetch_failovers", stat(|s| s.fetch_failovers));
    t.set("core.proc_redispatches", stat(|s| s.proc_redispatches));
    t.set("core.replicas_written", stat(|s| s.replicas_written));
    t.set("core.repairs_completed", stat(|s| s.repairs_completed));
    t.set("core.quorum_publishes", stat(|s| s.quorum_publishes));
    t.set("core.striped_fetches", stat(|s| s.striped_fetches));
    t.set("core.hedged_fetches", stat(|s| s.hedged_fetches));
    t.set("core.ops_shed", stat(|s| s.ops_shed));
    t.set("core.breaker_trips", stat(|s| s.breaker_trips));

    // core: where virtual latency goes. `breakdown` is always on; the
    // critical path is collected only while tracing.
    let ok: Vec<&Rec> = first.recs.iter().filter(|r| r.err.is_none()).collect();
    let total_ns: f64 = ok.iter().map(|r| r.latency_ns() as f64).sum();
    let part = |f: fn(&cloud4home::Breakdown) -> std::time::Duration| {
        share(
            ok.iter().map(|r| f(&r.breakdown).as_nanos() as f64).sum(),
            total_ns,
        )
    };
    let parts = [
        ("core.virt.dht_share", part(|b| b.dht)),
        ("core.virt.inter_node_share", part(|b| b.inter_node)),
        ("core.virt.inter_domain_share", part(|b| b.inter_domain)),
        ("core.virt.disk_share", part(|b| b.disk)),
        ("core.virt.exec_share", part(|b| b.exec)),
        ("core.virt.decision_share", part(|b| b.decision)),
    ];
    for (name, v) in parts {
        t.set(name, v);
    }
    t.set(
        "core.virt.queue_share",
        1.0 - parts.iter().map(|(_, v)| v).sum::<f64>(),
    );
    let crit_total: f64 = traced.recs.iter().map(|r| r.crit.total_ns() as f64).sum();
    let crit = |f: fn(&cloud4home::PathAttribution) -> u64| {
        share(
            traced.recs.iter().map(|r| f(&r.crit) as f64).sum(),
            crit_total,
        )
    };
    t.set("core.crit.lan_share", crit(|c| c.lan_ns));
    t.set("core.crit.wan_share", crit(|c| c.wan_ns));
    t.set("core.crit.backoff_share", crit(|c| c.backoff_ns));
    t.set("core.ec.host_us_per_mib", probes::ec_us_per_mib());
    t.set("core.ec.converts", counter("adaptive.ec_converted"));

    // simnet
    t.set("simnet.queue.pending_mean", pending.mean);
    t.set(
        "simnet.queue.cascades",
        series("engine.wheel.cascades").rise,
    );
    t.set("simnet.queue.events_est", events_est);
    t.set("simnet.queue.host_ns_per_event", queue_ns);
    t.set("simnet.queue.host_share_est", queue_share);
    t.set("simnet.flow.started", flows);
    t.set("simnet.flow.canceled", series("engine.flows.canceled").rise);
    t.set("simnet.flow.inflight_mean", inflight.mean);
    t.set("simnet.flow.inflight_at_change", inflight.self_weighted);
    t.set("simnet.flow.inflight_max", inflight.max);
    t.set("simnet.flow.host_us_per_change", flow_us);
    t.set("simnet.flow.host_share_est", flow_share);
    t.set(
        "simnet.flow.lan_util_mean",
        series("net.home-ethernet.util_permille").mean / 1e3,
    );
    t.set(
        "simnet.flow.wan_util_mean",
        series("net.wireless-uplink.util_permille")
            .mean
            .max(series("net.wireless-downlink.util_permille").mean)
            / 1e3,
    );
    t.set("simnet.intern.count", series("engine.intern.count").last);
    t.set(
        "simnet.intern.first_rep_extra_allocs",
        untraced
            .get(1)
            .map_or(0.0, |second| first.allocs as f64 - second.allocs as f64),
    );

    // chimera
    let (hits, misses) = first.cache;
    t.set("chimera.join_envelopes", first.join_envelopes as f64);
    t.set("chimera.envelopes_per_op", envelopes / ops);
    t.set("chimera.envelopes_dropped", stat(|s| s.envelopes_dropped));
    t.set("chimera.lookup_hops_per_op", first.lookup_hops as f64 / ops);
    t.set(
        "chimera.cache_hit_ratio",
        share(hits as f64, (hits + misses) as f64),
    );
    t.set("chimera.host_ns_per_handle", chimera_ns);
    t.set("chimera.host_share_est", chimera_share);

    // kvstore
    t.set("kvstore.record_encodes", encodes);
    t.set("kvstore.record_decodes", decodes);
    t.set(
        "kvstore.record_bytes_mean",
        hist_mean("kvstore.record_bytes"),
    );
    t.set("kvstore.host_ns_per_codec", codec_ns);
    t.set("kvstore.host_share_est", kvstore_share);

    // vmm
    t.set("vmm.host_ns_per_command", probes::vmm_ns_per_command());
    t.set(
        "vmm.virt.inter_domain_ms_mean",
        share(
            ok.iter()
                .map(|r| r.breakdown.inter_domain.as_secs_f64() * 1e3)
                .sum(),
            ok.len() as f64,
        ),
    );

    // resources
    t.set("resources.host_ns_per_sample", sample_ns);
    t.set("resources.host_share_est", resources_share);

    // services
    let process = latencies(&first.recs, Some(Kind::Process));
    let pct = |p| {
        if process.is_empty() {
            0.0
        } else {
            nearest_rank(&process, p) as f64 / 1e6
        }
    };
    t.set("services.executions", executions);
    t.set(
        "services.input_bytes_mean",
        hist_mean("services.input_bytes"),
    );
    t.set("services.host_us_per_exec", exec_us);
    t.set("services.host_share_est", services_share);
    t.set("services.virt.process_ms_p50", pct(50));
    t.set("services.virt.process_ms_p99", pct(99));

    // cloud
    t.set(
        "cloud.via_cloud_share",
        share(
            ok.iter().filter(|r| r.via_cloud).count() as f64,
            ok.len() as f64,
        ),
    );
    t.set("cloud.host_ns_per_s3_op", probes::cloud_ns_per_s3_op());

    // telemetry
    t.set(
        "telemetry.tracing_overhead_ratio",
        traced.host.measure_s / wall_s,
    );
    t.set(
        "telemetry.spans_recorded",
        (snap.events.len() - exports.setup_events) as f64,
    );
    t.set(
        "telemetry.ledger_recorded",
        series("engine.ledger.recorded").rise,
    );
    t.set(
        "telemetry.ledger_dropped",
        series("engine.ledger.dropped").rise,
    );
    t.set("telemetry.host_ns_per_span", span_ns);
    t.set("telemetry.host_ns_disabled_probe", disabled_ns);
    t.set("telemetry.export_ms", exports.export_s * 1e3);

    let metrics = t.finish();
    let _ = writeln!(notes, "  per-layer metrics (traced repetition + probes):");
    for (name, value, unit) in &metrics {
        let _ = writeln!(notes, "  {name:<40} {value:>16.4} {unit}");
    }
    LayerOutcome { metrics, problems }
}
