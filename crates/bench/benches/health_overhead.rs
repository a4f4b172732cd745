//! Health-plane overhead — recording cost of gauges, SLO windows, and
//! critical-path attribution.
//!
//! Runs the same seeded mixed workload three ways — tracing disabled,
//! tracing enabled at the default 500 ms gauge cadence, and tracing enabled
//! at an aggressive 100 ms cadence — and reports host-time cost plus the
//! volume of health data each configuration produced.
//!
//! Five acceptance properties are asserted, not just printed:
//!
//! 1. The health plane must not perturb the simulation: all three runs
//!    finish at the identical virtual time (sampling draws no randomness
//!    and mutates no simulated state).
//! 2. With tracing disabled the plane is entirely dark: zero telemetry
//!    events, zero gauge series, zero post-mortems — the per-call cost is
//!    one relaxed atomic load.
//! 3. A steady gauge sample writes integers into registered columns, as
//!    runs of equal values over one sample clock: at most 1 heap
//!    acquisition per sample (≈ 0.1: the clock's and the runs' `Vec`
//!    doubling spread over the samples; a count, not a clock; this world's
//!    42 gauges once cost 98.6 per sample, when every name was formatted,
//!    cloned and looked up each time, then 2.6 with the names formatted
//!    once, then 0.6 with one `(ts, value)` vector per gauge).
//! 4. A steady sample keeps at most 128 heap bytes
//!    (`live_bytes_per_health_sample`, ≈ 40): a gauge that holds its
//!    value adds nothing, the row adds 8 bytes to the shared clock, and a
//!    changed gauge 16. A `(ts, value)` point per gauge kept ≈ 840.
//! 5. Over the same 200 idle seconds no gauge is registered: every column
//!    exists after the first sample of its subject, so a steady sample
//!    looks up no name (`gauge_registrations_per_steady_sample`, exactly
//!    0).
//!
//! Run with: `cargo bench -p c4h-bench --bench health_overhead`
//! (set `C4H_SMOKE=1` for the CI smoke variant: a smaller workload).

use std::time::{Duration, Instant};

use c4h_bench::{allocations, banner, live_bytes, smoke, BenchReport, CountingAlloc};
use cloud4home::{Cloud4Home, Config, NodeId, Object, RoutePolicy, ServiceKind, StorePolicy};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const SEED: u64 = 2024;

/// Heap bytes a steady gauge sample may keep: its clock row (8) plus 16
/// per run a changed gauge starts, with the `Vec`s' doubling slack. A
/// point stored per gauge keeps at least 16 × 42 = 672.
const LIVE_BYTES_PER_SAMPLE: f64 = 128.0;

fn objects() -> usize {
    if smoke() {
        4
    } else {
        12
    }
}

/// Runs the mixed workload; `health_sample_ms = 0` disables the gauge
/// sampler outright (the SLO/critical-path hooks still gate on `tracing`).
fn run_workload(tracing: bool, health_sample_ms: u64) -> Cloud4Home {
    let mut cfg = Config::paper_testbed(SEED);
    cfg.replication = 2;
    cfg.tracing = tracing;
    cfg.health_sample_ms = health_sample_ms;
    let mut home = Cloud4Home::new(cfg);
    let n = objects();
    for i in 0..n {
        let name = format!("health/img-{i:03}.jpg");
        let obj = Object::synthetic(&name, 900 + i as u64, 512 << 10, "jpeg");
        let op = home.store_object(NodeId(i % 4), obj, StorePolicy::ForceHome, true);
        home.run_until_complete(op).expect_ok();
    }
    for i in 0..n {
        let name = format!("health/img-{i:03}.jpg");
        let op = home.fetch_object(NodeId((i + 2) % 4), &name);
        home.run_until_complete(op).expect_ok();
    }
    for i in 0..n.min(4) {
        let name = format!("health/img-{i:03}.jpg");
        let op = home.process_object(
            NodeId(0),
            &name,
            ServiceKind::FaceDetect,
            RoutePolicy::Performance,
        );
        home.run_until_complete(op).expect_ok();
    }
    home.run_until_idle();
    home
}

/// Host time and resulting deployment for one configuration.
fn timed(tracing: bool, cadence_ms: u64) -> (std::time::Duration, Cloud4Home) {
    let t = Instant::now();
    let home = run_workload(tracing, cadence_ms);
    (t.elapsed(), home)
}

/// What the sampler costs over 200 idle virtual seconds after the
/// workload.
struct Steady {
    /// Heap acquisitions per gauge sample.
    allocs_per_sample: f64,
    /// Heap bytes per gauge sample still live at the window's end.
    live_bytes_per_sample: f64,
    /// Gauges registered over the window.
    registrations: usize,
    /// Samples the window took.
    samples: usize,
}

/// Measures [`Steady`]. The sampler perturbs nothing, so the same 200 idle
/// virtual seconds, traced with the sampler on and with it off, differ by
/// exactly the sampler's own acquisitions and the bytes it keeps.
fn steady_samples() -> Steady {
    let idle = |cadence_ms: u64| {
        let mut home = run_workload(true, cadence_ms);
        let points = |home: &Cloud4Home| {
            let series = home.telemetry().snapshot().series;
            series.get("runtime.queue_depth").map_or(0, |s| s.len())
        };
        let registered = |home: &Cloud4Home| home.telemetry().gauges_registered();
        let (points0, registered0) = (points(&home), registered(&home));
        let (allocs0, live0) = (allocations(), live_bytes());
        home.run_for(Duration::from_secs(200));
        let allocs = allocations() - allocs0;
        let live = live_bytes() as i64 - live0 as i64;
        let registrations = registered(&home) - registered0;
        (allocs, live, registrations, points(&home) - points0)
    };
    let (off, live_off, _, _) = idle(0);
    let (on, live_on, registrations, samples) = idle(500);
    Steady {
        allocs_per_sample: on.saturating_sub(off) as f64 / samples as f64,
        live_bytes_per_sample: (live_on - live_off) as f64 / samples as f64,
        registrations,
        samples,
    }
}

fn main() {
    banner(
        "Health plane",
        "recording overhead of gauges, SLO windows, and attribution",
    );

    let mut report = BenchReport::new("health_overhead");
    report.config("smoke", smoke());
    report.config("objects", objects());
    report.config("seed", SEED);

    let (host_off, baseline) = timed(false, 500);
    let (host_500, at_500) = timed(true, 500);
    let (host_100, at_100) = timed(true, 100);

    // Property 1: the health plane never perturbs virtual time.
    report.check(
        "virtual_time_unperturbed_500ms",
        baseline.now() == at_500.now(),
        "health sampling must not perturb virtual time",
    );
    report.check(
        "virtual_time_unperturbed_100ms",
        baseline.now() == at_100.now(),
        "a 5x denser cadence must not perturb virtual time either",
    );

    // Property 2: disabled tracing means a completely dark health plane.
    let dark = baseline.telemetry().snapshot();
    report.check(
        "disabled_recorder_is_dark",
        dark.events.is_empty() && dark.series.is_empty() && dark.counters.is_empty(),
        format!(
            "disabled recorder must store nothing ({} events, {} series, {} counters)",
            dark.events.len(),
            dark.series.len(),
            dark.counters.len()
        ),
    );
    report.check(
        "disabled_recorder_no_postmortems",
        baseline.postmortem_json() == "[\n\n]\n",
        "disabled recorder must cut no post-mortems",
    );

    println!(
        "{:>16} | {:>12} {:>10} {:>10} {:>12}",
        "configuration", "host time", "series", "points", "overhead %"
    );
    println!("{}", "-".repeat(68));
    for (label, host, home) in [
        ("tracing off", host_off, &baseline),
        ("on, 500ms", host_500, &at_500),
        ("on, 100ms", host_100, &at_100),
    ] {
        let snap = home.telemetry().snapshot();
        let points: usize = snap.series.values().map(|s| s.len()).sum();
        println!(
            "{label:>16} | {:>12.2?} {:>10} {:>10} {:>+11.1}%",
            host,
            snap.series.len(),
            points,
            (host.as_secs_f64() / host_off.as_secs_f64() - 1.0) * 100.0,
        );
        report.push_row(vec![
            ("configuration", label.into()),
            ("host_ms", (host.as_secs_f64() * 1e3).into()),
            ("series", snap.series.len().into()),
            ("points", points.into()),
            (
                "overhead_pct",
                ((host.as_secs_f64() / host_off.as_secs_f64() - 1.0) * 100.0).into(),
            ),
        ]);
    }

    // Denser cadence ⇒ strictly more gauge points, same virtual outcome.
    let p500: usize = at_500
        .telemetry()
        .snapshot()
        .series
        .values()
        .map(|s| s.len())
        .sum();
    let p100: usize = at_100
        .telemetry()
        .snapshot()
        .series
        .values()
        .map(|s| s.len())
        .sum();
    report.check(
        "denser_cadence_more_points",
        p100 > p500,
        format!("100 ms cadence must sample more points than 500 ms ({p100} vs {p500})"),
    );

    let Steady {
        allocs_per_sample,
        live_bytes_per_sample,
        registrations,
        samples,
    } = steady_samples();
    println!(
        "\nper gauge sample: {allocs_per_sample:.2} allocations, {live_bytes_per_sample:.1} live \
         bytes; gauges registered: {registrations} (over {samples} samples)"
    );
    report.push_row(vec![
        ("configuration", "on, 500ms, idle".into()),
        ("samples", samples.into()),
        ("allocs_per_health_sample", allocs_per_sample.into()),
        ("live_bytes_per_health_sample", live_bytes_per_sample.into()),
        ("gauge_registrations", registrations.into()),
    ]);
    report.check(
        "allocs_per_health_sample",
        samples >= 300 && allocs_per_sample <= 1.0,
        format!(
            "{allocs_per_sample:.2} heap acquisitions per gauge sample over {samples} samples \
             (bound 1)"
        ),
    );
    report.check(
        "live_bytes_per_health_sample",
        samples >= 300 && live_bytes_per_sample <= LIVE_BYTES_PER_SAMPLE,
        format!(
            "{live_bytes_per_sample:.1} heap bytes kept per gauge sample over {samples} samples \
             (bound {LIVE_BYTES_PER_SAMPLE})"
        ),
    );
    report.check(
        "gauge_registrations_per_steady_sample",
        samples >= 300 && registrations == 0,
        format!("{registrations} gauges registered over {samples} steady samples (must be 0)"),
    );

    let snap = at_500.telemetry().snapshot();
    println!(
        "\nhealth data at 500ms: {} slo violations, {} postmortems, \
         crit path: wan {} ms / lan {} ms / dht {} ms",
        snap.counter("slo.violation.store")
            + snap.counter("slo.violation.fetch")
            + snap.counter("slo.violation.process"),
        snap.counter("health.postmortems"),
        at_500.stats().crit_wan_ns / 1_000_000,
        at_500.stats().crit_lan_ns / 1_000_000,
        at_500.stats().crit_dht_ns / 1_000_000,
    );
    report.finish();
}
