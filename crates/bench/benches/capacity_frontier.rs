//! Capacity frontier — offered load vs latency vs goodput, with and
//! without the overload-protection plane.
//!
//! Sweeps an open-loop Poisson arrival stream (60/40 fetch/store mix over
//! a pre-seeded catalog) across offered rates that span the testbed's
//! capacity, running each point twice: plane off (every arrival admitted,
//! queues grow without bound past saturation) and plane on (SLO-driven
//! shedding plus per-tenant inflight caps). Reports the admitted-op p99,
//! goodput (ok completions inside their SLO per virtual second), and shed
//! rate at every point — the frontier the paper's @home deployment would
//! steer by.
//!
//! Two acceptance properties are asserted, not just printed:
//!
//! 1. With the plane off nothing is ever shed, at any offered load.
//! 2. Past saturation the plane keeps the admitted fetch p99 within its
//!    objective while the unprotected run blows through it.
//!
//! Run with: `cargo bench -p c4h-bench --bench capacity_frontier`
//! (set `C4H_SMOKE=1` for the CI smoke variant: fewer points, shorter
//! horizon). The frontier table lands in `BENCH_capacity_frontier.json`
//! like every bench's.

use std::collections::BTreeMap;
use std::time::Duration;

use c4h_bench::{banner, smoke, BenchReport};
use c4h_workloads::{arrivals, Arrival, OpKind, OpenLoopConfig};
use cloud4home::{Cloud4Home, Config, NodeId, Object, OpError, OpReport, RunStats, StorePolicy};

const SEED: u64 = 7_191;
const OBJ_BYTES: u64 = 256 << 10;
const FETCH_SLO_MS: u64 = 2_000;
const STORE_SLO_MS: u64 = 4_000;
const TENANTS: usize = 4;
const CATALOG: usize = 12;

fn offered_rates() -> Vec<f64> {
    // The 60/40 fetch/store mix puts ~45% of offered bytes on the shared
    // LAN (stores land on the client's own disk; a quarter of fetches are
    // local), so the ~12 MB/s segment saturates near 100 op/s: the top
    // rate must sit well past that to build a queue worth shedding.
    if smoke() {
        vec![10.0, 60.0, 200.0]
    } else {
        vec![10.0, 25.0, 50.0, 100.0, 200.0]
    }
}

fn horizon() -> Duration {
    if smoke() {
        Duration::from_secs(4)
    } else {
        Duration::from_secs(10)
    }
}

fn config(protected: bool) -> Config {
    let mut cfg = Config::paper_testbed(SEED);
    cfg.tracing = true;
    cfg.slo_ms = BTreeMap::from([
        ("fetch".to_owned(), FETCH_SLO_MS),
        ("store".to_owned(), STORE_SLO_MS),
    ]);
    // Track the open-loop surge in near real time (the 30 s default lets
    // pre-surge samples mask a breach for seconds).
    cfg.health_window_ms = 5_000;
    if protected {
        cfg.overload.enabled = true;
        cfg.overload.shed_step_permille = 450;
        cfg.overload.shed_decay_permille = 10;
        cfg.overload.shed_max_permille = 950;
        cfg.overload.tenant_max_inflight = 16;
    }
    cfg
}

/// Pre-stores the fetch catalog so every open-loop fetch has a holder.
fn seed_catalog(home: &mut Cloud4Home) -> Vec<String> {
    let mut names = Vec::with_capacity(CATALOG);
    for i in 0..CATALOG {
        let name = format!("catalog/obj-{i:03}.bin");
        let obj = Object::synthetic(&name, 10_000 + i as u64, OBJ_BYTES, "doc");
        let op = home.store_object(NodeId(i % TENANTS), obj, StorePolicy::MandatoryFirst, true);
        home.run_until_complete(op).expect_ok();
        names.push(name);
    }
    home.run_until_idle();
    names
}

/// Submits every arrival at its appointed virtual time (open loop: the
/// stream does not slow down for a backlogged system), drains, and
/// collects the reports.
fn drive(home: &mut Cloud4Home, stream: &[Arrival], catalog: &[String]) -> Vec<OpReport> {
    let start = home.now();
    let mut ids = Vec::with_capacity(stream.len());
    for (n, a) in stream.iter().enumerate() {
        let target = start + a.at;
        if let Some(gap) = target.checked_duration_since(home.now()) {
            home.run_for(gap);
        }
        let client = NodeId(a.tenant);
        let id = match a.op {
            OpKind::Store => {
                let name = format!("open/st-{n:05}.bin");
                let obj = Object::synthetic(&name, 50_000 + n as u64, OBJ_BYTES, "doc");
                home.store_object(client, obj, StorePolicy::MandatoryFirst, true)
            }
            OpKind::Fetch => home.fetch_object(client, &catalog[a.object % catalog.len()]),
        };
        ids.push(id);
    }
    home.run_until_idle();
    ids.iter()
        .map(|&id| home.take_report(id).expect("run drained to idle"))
        .collect()
}

/// One swept point of the frontier.
struct Point {
    offered_hz: f64,
    protected: bool,
    admitted: usize,
    shed: usize,
    fetch_p99_ms: f64,
    goodput_hz: f64,
    /// The run's counters; the rows take the plane's other three from
    /// here (retries its budgets refused, breakers it tripped, ops those
    /// breakers failed fast).
    stats: RunStats,
}

fn slo_ns(kind: &str) -> u64 {
    let ms = if kind == "fetch" {
        FETCH_SLO_MS
    } else {
        STORE_SLO_MS
    };
    ms * 1_000_000
}

fn p99_ms(mut lat_ns: Vec<u64>) -> f64 {
    if lat_ns.is_empty() {
        return 0.0;
    }
    lat_ns.sort_unstable();
    lat_ns[(lat_ns.len() - 1) * 99 / 100] as f64 / 1e6
}

fn run_point(offered_hz: f64, protected: bool) -> Point {
    let stream = arrivals(&OpenLoopConfig::steady(offered_hz, horizon(), TENANTS), 91);
    let mut home = Cloud4Home::new(config(protected));
    let catalog = seed_catalog(&mut home);
    let reports = drive(&mut home, &stream, &catalog);

    let shed = reports
        .iter()
        .filter(|r| matches!(r.outcome, Err(OpError::Overloaded(_))))
        .count();
    let fetch_lat: Vec<u64> = reports
        .iter()
        .filter(|r| r.kind == "fetch" && r.outcome.is_ok())
        .map(|r| r.total().as_nanos() as u64)
        .collect();
    let good = reports
        .iter()
        .filter(|r| r.outcome.is_ok() && (r.total().as_nanos() as u64) <= slo_ns(r.kind))
        .count();
    Point {
        offered_hz,
        protected,
        admitted: reports.len() - shed,
        shed,
        fetch_p99_ms: p99_ms(fetch_lat),
        goodput_hz: good as f64 / horizon().as_secs_f64(),
        stats: home.stats(),
    }
}

fn main() {
    banner(
        "Capacity frontier",
        "offered load vs p99 vs goodput, overload plane off/on",
    );

    let mut points = Vec::new();
    for &rate in &offered_rates() {
        for protected in [false, true] {
            points.push(run_point(rate, protected));
        }
    }

    let mut report = BenchReport::new("capacity_frontier");
    report.config("smoke", smoke());
    report.config("seed", SEED);
    report.config("horizon_s", horizon().as_secs());
    report.config("fetch_slo_ms", FETCH_SLO_MS);
    report.config("store_slo_ms", STORE_SLO_MS);

    println!(
        "{:>10} | {:>9} | {:>9} {:>7} {:>13} {:>12} {:>7}",
        "offered/s", "plane", "admitted", "shed", "fetch p99 ms", "goodput/s", "shed %"
    );
    println!("{}", "-".repeat(78));
    for p in &points {
        let total = p.admitted + p.shed;
        println!(
            "{:>10.0} | {:>9} | {:>9} {:>7} {:>13.1} {:>12.1} {:>6.1}%",
            p.offered_hz,
            if p.protected { "on" } else { "off" },
            p.admitted,
            p.shed,
            p.fetch_p99_ms,
            p.goodput_hz,
            100.0 * p.shed as f64 / total.max(1) as f64,
        );
        report.push_row(vec![
            ("offered_hz", p.offered_hz.into()),
            ("protected", p.protected.into()),
            ("admitted", p.admitted.into()),
            ("shed", p.shed.into()),
            ("fetch_p99_ms", p.fetch_p99_ms.into()),
            ("goodput_hz", p.goodput_hz.into()),
            ("retry_budget_denied", p.stats.retry_budget_denied.into()),
            ("breaker_trips", p.stats.breaker_trips.into()),
            ("breaker_fast_fails", p.stats.breaker_fast_fails.into()),
        ]);
    }

    // Property 1: the plane off never sheds.
    let off_shed: usize = points.iter().filter(|p| !p.protected).map(|p| p.shed).sum();
    report.check(
        "plane_off_never_sheds",
        off_shed == 0,
        format!("plane off must never shed (total shed {off_shed})"),
    );

    // Property 2: at the top offered load the unprotected run blows the
    // fetch objective while the protected run stays within it and sheds.
    let top = *offered_rates().last().expect("rates are non-empty") as u64;
    let unprot = points
        .iter()
        .find(|p| !p.protected && p.offered_hz as u64 == top)
        .expect("swept the top rate unprotected");
    let prot = points
        .iter()
        .find(|p| p.protected && p.offered_hz as u64 == top)
        .expect("swept the top rate protected");
    report.check(
        "top_load_saturates_unprotected",
        unprot.fetch_p99_ms > FETCH_SLO_MS as f64,
        format!(
            "top load must saturate the unprotected testbed \
             (p99 {:.1} ms vs slo {FETCH_SLO_MS} ms)",
            unprot.fetch_p99_ms
        ),
    );
    report.check(
        "protected_sheds_at_top_load",
        prot.shed > 0,
        "the protected run must shed at the top offered load",
    );
    report.check(
        "protected_p99_within_slo",
        prot.fetch_p99_ms <= FETCH_SLO_MS as f64,
        format!(
            "the plane must keep the admitted fetch p99 within the objective \
             (p99 {:.1} ms vs slo {FETCH_SLO_MS} ms)",
            prot.fetch_p99_ms
        ),
    );

    report.finish();
}
