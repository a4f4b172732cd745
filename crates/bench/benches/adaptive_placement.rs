//! Adaptive placement — storage overhead vs fetch latency at equal
//! durability.
//!
//! Static replication must provision every object for its hottest moment:
//! three full copies of everything buys 2-loss tolerance at 3x the bytes.
//! The adaptive plane follows the heat instead — hot objects grow replicas
//! toward their readers, cold ones shrink and (above the size threshold)
//! convert to (k, m) erasure-coded stripes that tolerate the same m = 2
//! losses at (k + m)/k = 1.67x. Both arms replay the same drifting-hotset
//! schedule; the table compares their physical footprint, fetch latency
//! tail, and measured loss tolerance.
//!
//! Run with: `cargo bench -p c4h-bench --bench adaptive_placement`
//! (set `C4H_SMOKE=1` for the CI smoke variant). The table lands in
//! `BENCH_adaptive_placement.json` like every bench's.

use std::fmt::Write as _;
use std::time::Duration;

use c4h_bench::{banner, mean_std, ms, BenchReport};
use c4h_workloads::{hotset_fetches, HotsetConfig};
use cloud4home::{Cloud4Home, Config, NodeId, Object, StorePolicy};

const OBJECT_BYTES: u64 = 2 << 20; // over the 1 MiB erasure-coding threshold

fn smoke() -> bool {
    std::env::var_os("C4H_SMOKE").is_some()
}

fn p99(samples: &mut [f64]) -> f64 {
    assert!(!samples.is_empty(), "p99 of empty sample");
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    samples[(samples.len() - 1) * 99 / 100]
}

struct Arm {
    label: &'static str,
    logical_bytes: u64,
    stored_bytes: u64,
    fetch_mean_ms: f64,
    fetch_p99_ms: f64,
    ec_objects: usize,
    loss_floor: usize,
}

/// Replays the drifting-hotset schedule against one configuration and
/// measures the end-state footprint and the fetch latency distribution.
fn run_arm(label: &'static str, mut config: Config, workload: &HotsetConfig, seed: u64) -> Arm {
    let names: Vec<String> = (0..workload.catalog)
        .map(|i| format!("hotset/obj-{i}.bin"))
        .collect();
    config.anti_entropy_ms = 10_000;
    let mut home = Cloud4Home::new(config);

    for (i, name) in names.iter().enumerate() {
        let obj = Object::synthetic(name, seed + i as u64, OBJECT_BYTES, "doc");
        let op = home.store_object(
            NodeId(i % workload.clients),
            obj,
            StorePolicy::ForceHome,
            true,
        );
        home.run_until_complete(op).expect_ok();
    }
    home.run_until_idle();

    let start_ns = home.now().as_nanos();
    let mut latencies = Vec::new();
    for f in hotset_fetches(workload, seed) {
        let target_ns = start_ns + f.at.as_nanos() as u64;
        let now_ns = home.now().as_nanos();
        if target_ns > now_ns {
            home.run_for(Duration::from_nanos(target_ns - now_ns));
        }
        let op = home.fetch_object(NodeId(f.client), &names[f.object]);
        let r = home.run_until_complete(op);
        r.expect_ok();
        latencies.push(ms(r.total()));
    }

    // A long cool-down: the last phase's hot set goes cold, shrinks, and
    // converts, so the end-state footprint reflects steady state.
    home.run_for(Duration::from_secs(300));
    home.run_until_idle();

    let stored: u64 = (0..home.node_count())
        .map(|i| home.stored_bytes(NodeId(i)))
        .sum();
    let ec_objects = names.iter().filter(|n| home.is_erasure_coded(n)).count();
    let loss_floor = names
        .iter()
        .map(|n| {
            if home.is_erasure_coded(n) {
                // Every row on a distinct live holder: tolerates m losses.
                home.stripe_holders(n).len().saturating_sub(3) // k = 3
            } else {
                home.live_copies(n).saturating_sub(1)
            }
        })
        .min()
        .unwrap_or(0);

    let (mean, _) = mean_std(&latencies);
    Arm {
        label,
        logical_bytes: OBJECT_BYTES * workload.catalog as u64,
        stored_bytes: stored,
        fetch_mean_ms: mean,
        fetch_p99_ms: p99(&mut latencies),
        ec_objects,
        loss_floor,
    }
}

fn main() {
    banner(
        "Adaptive placement",
        "heat-driven replication + (k, m) erasure coding vs static copies",
    );
    let workload = if smoke() {
        HotsetConfig::drifting(8, 2, 2, Duration::from_secs(150))
    } else {
        HotsetConfig::drifting(24, 4, 4, Duration::from_secs(240))
    };
    let mut fetch_hz_note = String::new();
    let _ = write!(
        fetch_hz_note,
        "{} objects x {} MiB, {} phases x {:?}, hot window {}",
        workload.catalog,
        OBJECT_BYTES >> 20,
        workload.phases,
        workload.phase_len,
        workload.hot,
    );
    println!("workload: {fetch_hz_note}");

    let mut report = BenchReport::new("adaptive_placement");
    report.config("smoke", smoke());
    report.config("catalog", workload.catalog);
    report.config("object_bytes", OBJECT_BYTES);
    report.config("phases", workload.phases);
    report.config("phase_len_s", workload.phase_len.as_secs());

    let mut static_cfg = Config::paper_testbed(9200);
    static_cfg.replication = 3;
    static_cfg.replica_quorum = 1;
    let static_arm = run_arm("static rep=3", static_cfg, &workload, 9200);

    let mut adaptive_cfg = Config::paper_testbed(9200);
    adaptive_cfg.adaptive.enabled = true; // rep stays 1; heat does the rest
    let adaptive_arm = run_arm("adaptive + EC(3,2)", adaptive_cfg, &workload, 9200);

    println!(
        "\n{:>20} | {:>9} {:>9} {:>10} {:>10} {:>6} {:>6}",
        "arm", "stored", "overhead", "mean (ms)", "p99 (ms)", "EC", "floor"
    );
    println!("{}", "-".repeat(80));
    for a in [&static_arm, &adaptive_arm] {
        println!(
            "{:>20} | {:>7} MiB {:>8.2}x {:>10.1} {:>10.1} {:>6} {:>6}",
            a.label,
            a.stored_bytes >> 20,
            a.stored_bytes as f64 / a.logical_bytes as f64,
            a.fetch_mean_ms,
            a.fetch_p99_ms,
            a.ec_objects,
            a.loss_floor,
        );
        report.push_row(vec![
            ("arm", a.label.into()),
            ("logical_bytes", a.logical_bytes.into()),
            ("stored_bytes", a.stored_bytes.into()),
            (
                "overhead",
                (a.stored_bytes as f64 / a.logical_bytes as f64).into(),
            ),
            ("fetch_mean_ms", a.fetch_mean_ms.into()),
            ("fetch_p99_ms", a.fetch_p99_ms.into()),
            ("ec_objects", a.ec_objects.into()),
            ("loss_floor", a.loss_floor.into()),
        ]);
    }
    println!(
        "\nThe adaptive arm converts cold objects to (3, 2) stripes — the\n\
         same 2-loss tolerance as three full copies at 1.67x instead of 3x\n\
         — while hot objects keep full replicas near their readers."
    );

    // CI gates: the storage win and the conversion machinery must hold.
    report.check(
        "cooldown_erasure_codes_cold_objects",
        adaptive_arm.ec_objects >= 1,
        "the cool-down must erasure-code at least one cold object",
    );
    report.check(
        "adaptive_beats_static_footprint",
        adaptive_arm.stored_bytes < static_arm.stored_bytes,
        format!(
            "adaptive placement ({} B) must beat static rep=3 ({} B) on footprint",
            adaptive_arm.stored_bytes, static_arm.stored_bytes
        ),
    );
    println!(
        "\nheadline: {} MiB adaptive vs {} MiB static ({:.0}% of the bytes)",
        adaptive_arm.stored_bytes >> 20,
        static_arm.stored_bytes >> 20,
        100.0 * adaptive_arm.stored_bytes as f64 / static_arm.stored_bytes as f64
    );

    report.finish();
}
