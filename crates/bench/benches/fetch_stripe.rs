//! Striped fetch sweep — fetch latency vs source count and object size.
//!
//! A single fetch flow is capped by per-flow TCP behaviour on both sides
//! of the home gateway: ~10.3 MB/s on the LAN (sagging for long
//! transfers) and ~0.215 MB/s per WAN stream against a ~0.81 MB/s
//! downlink segment. Striping the read across several replica holders —
//! or as parallel S3 range reads — fills the pipe a single flow cannot.
//! This sweep measures both segments, plus the hedged-request guard on
//! the tail stripe.
//!
//! Run with: `cargo bench -p c4h-bench --bench fetch_stripe`
//! (set `C4H_SMOKE=1` for the CI smoke variant: one trial per point).

use c4h_bench::{banner, mean_std, ms, smoke, BenchReport};
use cloud4home::{Cloud4Home, Config, NodeId, Object, StorePolicy};

/// Mean fetch latency over `trials` fresh deployments. The object is
/// stored — replicated across `holders` home nodes for home placement,
/// so every stripe has its own source (and a spare, when `holders`
/// exceeds `sources`, gives hedges somewhere to go) — before the timed
/// fetch runs from a non-holding client.
fn fetch_latency(
    sources: usize,
    holders: usize,
    bytes: u64,
    policy: StorePolicy,
    hedge: f64,
    trials: u64,
) -> (f64, f64) {
    let mut samples = Vec::new();
    for t in 0..trials {
        let mut config = Config::paper_testbed(9200 + t);
        config.replication = if policy == StorePolicy::ForceHome {
            holders.max(1)
        } else {
            1
        };
        config.fetch_sources = sources;
        config.fetch_hedge = hedge;
        let mut home = Cloud4Home::new(config);
        let obj = Object::synthetic(&format!("stripe/{t}.bin"), t, bytes, "doc");
        let op = home.store_object(NodeId(1), obj, policy.clone(), true);
        home.run_until_complete(op).expect_ok();
        home.run_until_idle();
        let client = (0..home.node_count())
            .map(NodeId)
            .find(|&id| home.objects_on(id) == 0)
            .expect("a non-holding client");
        let op = home.fetch_object(client, &format!("stripe/{t}.bin"));
        let r = home.run_until_complete(op);
        r.expect_ok();
        samples.push(ms(r.total()));
    }
    mean_std(&samples)
}

fn main() {
    let trials = if smoke() { 1 } else { 5 };
    banner(
        "Striped fetch sweep",
        "multi-source striped reads with bandwidth ranking and hedging (fetch data path)",
    );
    let mut report = BenchReport::new("fetch_stripe");
    report.config("smoke", smoke());
    report.config("trials", trials);

    println!("Home LAN, replicated holders (fetch latency, ms):");
    println!(
        "{:>8} | {:>10} {:>10} {:>10} {:>14}",
        "size", "k=1", "k=2", "k=3", "speedup k=3"
    );
    println!("{}", "-".repeat(60));
    for shift in [22u32, 24, 26] {
        let bytes = 1u64 << shift;
        let (k1, _) = fetch_latency(1, 1, bytes, StorePolicy::ForceHome, 0.0, trials);
        let (k2, _) = fetch_latency(2, 2, bytes, StorePolicy::ForceHome, 0.0, trials);
        let (k3, _) = fetch_latency(3, 3, bytes, StorePolicy::ForceHome, 0.0, trials);
        println!(
            "{:>6}MB | {k1:>10.1} {k2:>10.1} {k3:>10.1} {:>13.2}x",
            bytes >> 20,
            k1 / k3
        );
        report.push_row(vec![
            ("segment", "lan".into()),
            ("bytes", bytes.into()),
            ("k1_ms", k1.into()),
            ("k2_ms", k2.into()),
            ("k3_ms", k3.into()),
            ("speedup_k3", (k1 / k3).into()),
        ]);
    }

    println!("\nWAN cloud object, parallel range reads (fetch latency, ms):");
    println!(
        "{:>8} | {:>10} {:>10} {:>10} {:>14}",
        "size", "k=1", "k=2", "k=3", "speedup k=3"
    );
    println!("{}", "-".repeat(60));
    let mut wan_single = 0.0;
    let mut wan_striped = 0.0;
    for shift in [21u32, 22, 23] {
        let bytes = 1u64 << shift;
        let (k1, _) = fetch_latency(1, 1, bytes, StorePolicy::ForceCloud, 0.0, trials);
        let (k2, _) = fetch_latency(2, 1, bytes, StorePolicy::ForceCloud, 0.0, trials);
        let (k3, _) = fetch_latency(3, 1, bytes, StorePolicy::ForceCloud, 0.0, trials);
        println!(
            "{:>6}MB | {k1:>10.1} {k2:>10.1} {k3:>10.1} {:>13.2}x",
            bytes >> 20,
            k1 / k3
        );
        report.push_row(vec![
            ("segment", "wan".into()),
            ("bytes", bytes.into()),
            ("k1_ms", k1.into()),
            ("k2_ms", k2.into()),
            ("k3_ms", k3.into()),
            ("speedup_k3", (k1 / k3).into()),
        ]);
        wan_single = k1;
        wan_striped = k3;
    }

    // Hedging is a tail-latency guard: the spare holder races the slowest
    // stripe and the loser is cancelled, so on a healthy LAN the numbers
    // must come out identical — hedges fire but never hurt.
    println!("\nHedged tail requests (48 MiB home object, k=2 of 3 holders):");
    for (label, hedge) in [
        ("hedging off", 0.0),
        ("hedge=0.5", 0.5),
        ("hedge=0.01", 0.01),
    ] {
        let mut config = Config::paper_testbed(9200);
        config.replication = 3;
        config.fetch_sources = 2;
        config.fetch_hedge = hedge;
        let mut home = Cloud4Home::new(config);
        let obj = Object::synthetic("stripe/hedge.bin", 1, 48 << 20, "doc");
        let op = home.store_object(NodeId(1), obj, StorePolicy::ForceHome, true);
        home.run_until_complete(op).expect_ok();
        home.run_until_idle();
        let client = (0..home.node_count())
            .map(NodeId)
            .find(|&id| home.objects_on(id) == 0)
            .expect("a non-holding client");
        let op = home.fetch_object(client, "stripe/hedge.bin");
        let r = home.run_until_complete(op);
        r.expect_ok();
        println!(
            "  {label:>12}: {:>9.1} ms ({} hedged)",
            ms(r.total()),
            home.stats().hedged_fetches
        );
        report.push_row(vec![
            ("segment", "hedge".into()),
            ("hedge", hedge.into()),
            ("fetch_ms", ms(r.total()).into()),
            ("hedged_fetches", home.stats().hedged_fetches.into()),
        ]);
    }

    // The headline regression gate, recorded so the smoke run in CI fails
    // loudly if striping ever stops beating a single WAN flow.
    report.check(
        "wan_striping_beats_single_flow",
        wan_striped < wan_single * 0.55,
        format!(
            "k=3 WAN fetch ({wan_striped:.1} ms) should be well under half of k=1 \
             ({wan_single:.1} ms)"
        ),
    );
    println!(
        "\nheadline: 8 MiB cloud fetch {wan_striped:.1} ms striped (k=3) vs {wan_single:.1} ms \
         single-flow — the WAN downlink fits ~3.7 per-flow TCP streams"
    );
    report.finish();
}
