//! Overlay scaling study — the paper's future-work item (iii):
//! "to understand how to scale to larger numbers of @home … participants".
//!
//! Measures metadata-operation cost as the home cloud grows from the
//! paper's 6 devices to neighbourhood scale: DHT lookup latency (the
//! VStore++ client's view), mean routing hops, and join traffic — and
//! what the simulator pays for it: host time per processed event and the
//! nodes `pump` polls per event, neither of which may grow with the world.
//!
//! Run with: `cargo bench -p c4h-bench --bench scaling`
//! (set `C4H_SMOKE=1` for the CI smoke variant: no 1000-node row, one
//! repetition, wall-clock check recorded but not enforced).

use std::time::Instant;

use c4h_bench::{banner, mean_std, ms, BenchReport};
use cloud4home::{Cloud4Home, Config, NodeId, NodeSpec, Object, ServiceKind, StorePolicy};

const SIZES: [usize; 7] = [6, 12, 24, 48, 96, 384, 1000];

fn smoke() -> bool {
    std::env::var_os("C4H_SMOKE").is_some()
}

fn build(n: usize, seed: u64) -> Cloud4Home {
    let mut config = Config::paper_testbed(seed);
    config.chimera.leaf_size = 2;
    config.nodes.clear();
    for i in 0..n - 1 {
        config.nodes.push(NodeSpec::netbook(&format!("scale-{i}")));
    }
    let mut d = NodeSpec::desktop("scale-desktop");
    d.services = vec![ServiceKind::Transcode];
    config.nodes.push(d);
    Cloud4Home::new(config)
}

/// One row: the deployment's whole life (join, 12 stores, 36 fetches).
/// Everything but `host_s` is deterministic.
struct Row {
    dht_ms: f64,
    hops: f64,
    join_envelopes: u64,
    steps: u64,
    visits: u64,
    host_s: f64,
}

fn run(n: usize) -> Row {
    let started = Instant::now();
    let mut home = build(n, 4000 + n as u64);
    let join_envelopes = home.stats().envelopes_delivered;
    // Store a working set, then look it up from many distinct clients.
    for i in 0..12u64 {
        let obj = Object::synthetic(&format!("scale/{i}"), i, 128 << 10, "doc");
        let op = home.store_object(NodeId((i as usize) % n), obj, StorePolicy::ForceHome, true);
        home.run_until_complete(op).expect_ok();
    }
    let mut dht_ms = Vec::new();
    let mut lookups = 0u64;
    for round in 0..3usize {
        for i in 0..12u64 {
            let client = NodeId((i as usize * 7 + round * 3 + 1) % n);
            let op = home.fetch_object(client, &format!("scale/{i}"));
            let r = home.run_until_complete(op);
            r.expect_ok();
            dht_ms.push(ms(r.breakdown.dht));
            lookups += 1;
        }
    }
    Row {
        dht_ms: mean_std(&dht_ms).0,
        hops: home.dht_lookup_hops() as f64 / lookups as f64,
        join_envelopes,
        steps: home.steps(),
        visits: home.pump_node_visits(),
        host_s: started.elapsed().as_secs_f64(),
    }
}

fn main() {
    banner(
        "Scaling",
        "metadata and simulator costs vs overlay size (paper future-work iii)",
    );
    let reps: u32 = if smoke() { 1 } else { 3 };
    let mut report = BenchReport::new("scaling");
    report.config("smoke", smoke());
    report.config("repetitions", reps);
    println!(
        "{:>7} | {:>14} {:>10} {:>15} {:>14} {:>12}",
        "nodes", "dht mean (ms)", "mean hops", "join envelopes", "host us/event", "visits/step"
    );
    println!("{}", "-".repeat(83));
    let (mut small, mut large) = (f64::NAN, f64::NAN);
    for n in SIZES {
        if smoke() && n > 384 {
            continue;
        }
        // The run is deterministic, so the host can only slow it down:
        // the fastest repetition is the one to report.
        let mut row = run(n);
        for _ in 1..reps {
            row.host_s = row.host_s.min(run(n).host_s);
        }
        let us = row.host_s * 1e6 / row.steps as f64;
        let visits = row.visits as f64 / row.steps as f64;
        println!(
            "{n:>7} | {:>14.1} {:>10.2} {:>15} {us:>14.2} {visits:>12.2}",
            row.dht_ms, row.hops, row.join_envelopes
        );
        report.push_row(vec![
            ("nodes", n.into()),
            ("dht_mean_ms", row.dht_ms.into()),
            ("mean_hops", row.hops.into()),
            ("join_envelopes", row.join_envelopes.into()),
            ("steps", row.steps.into()),
            ("host_us_per_event", us.into()),
            ("pump_visits_per_step", visits.into()),
        ]);
        match n {
            24 => small = us,
            384 => large = us,
            _ => {}
        }
    }
    println!(
        "\nLookup cost grows logarithmically with membership (prefix routing),\n\
         while join traffic grows linearly (full-view announcements) — the\n\
         scaling limit the paper anticipates for its home-scale design. The\n\
         simulator's own cost per event stays flat: `pump` visits the nodes\n\
         that have output, not the world."
    );
    // Wall-clock on a shared CI runner is advisory: smoke mode records the
    // verdict's numbers but never fails on them.
    report.check(
        "host_us_per_event_flat",
        smoke() || large <= 2.0 * small,
        format!("384 nodes {large:.2} us/event vs 24 nodes {small:.2} (bound 2x)"),
    );
    report.finish();
}
