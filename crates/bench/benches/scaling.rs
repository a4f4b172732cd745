//! Overlay scaling study — the paper's future-work item (iii):
//! "to understand how to scale to larger numbers of @home … participants".
//!
//! Measures metadata-operation cost as the home cloud grows from the
//! paper's 6 devices to neighbourhood scale: DHT lookup latency (the
//! VStore++ client's view), mean routing hops, and join traffic — and
//! what the simulator pays for it: host time per processed event and the
//! nodes `pump` polls per event, neither of which may grow with the world.
//!
//! A second axis grows the *object population* of a 12-node world with
//! the adaptive plane on: the host time of one `Tick` and the objects its
//! periodic passes (adaptive review, anti-entropy) look at must follow
//! what can change, not what exists — settled objects cost nothing.
//!
//! Run with: `cargo bench -p c4h-bench --bench scaling`
//! (set `C4H_SMOKE=1` for the CI smoke variant: no 1000-node and no
//! 50 000-object row, one repetition, wall-clock checks recorded but not
//! enforced).

use std::time::{Duration, Instant};

use c4h_bench::{banner, mean_std, ms, smoke, BenchReport};
use cloud4home::{Cloud4Home, Config, NodeId, NodeSpec, Object, ServiceKind, StorePolicy};

const SIZES: [usize; 7] = [6, 12, 24, 48, 96, 384, 1000];

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

/// One object-population row: what the periodic passes look at, and what
/// a `Tick` costs the host, while `objects` settled objects sit idle.
struct IdleRow {
    visits_per_pass: f64,
    host_us_per_tick: f64,
}

/// A 12-node world, replication 3, adaptive plane on with the band pinned
/// at 3 (so nothing shrinks) and every object below the erasure-coding
/// threshold: `objects` stores, a minute to settle, then a minute of idle
/// ticks — 120 `Tick`s, 30 adaptive passes, 6 anti-entropy sweeps.
fn idle_ticks(objects: usize, reps: u32) -> IdleRow {
    let mut config = Config::paper_testbed(1900);
    config.chimera.leaf_size = 2;
    config.nodes = (0..11)
        .map(|i| NodeSpec::netbook(&format!("pop-{i}")))
        .collect();
    config.nodes.push(NodeSpec::desktop("pop-desktop"));
    config.replication = 3;
    config.adaptive.enabled = true;
    config.adaptive.replication_min = 3;
    config.adaptive.replication_max = 3;
    let mut home = Cloud4Home::new(config);
    for i in 0..objects {
        let name = format!("pop/{:02}/obj-{i}", i % 64);
        let obj = Object::synthetic(&name, i as u64, 4 << 10, "doc");
        let op = home.store_object(NodeId(i % 12), obj, StorePolicy::ForceHome, true);
        home.run_until_complete(op).expect_ok();
    }
    home.run_until_idle();
    home.run_for(Duration::from_secs(60));

    let window = Duration::from_secs(60);
    let (ticks, passes) = (120.0, 36.0);
    let before = home.adaptive_review_visits() + home.repair_scan_visits();
    let mut host_s = f64::INFINITY;
    for _ in 0..reps {
        let started = Instant::now();
        home.run_for(window);
        host_s = host_s.min(started.elapsed().as_secs_f64());
    }
    let visits = home.adaptive_review_visits() + home.repair_scan_visits() - before;
    IdleRow {
        visits_per_pass: visits as f64 / (passes * f64::from(reps)),
        host_us_per_tick: host_s * 1e6 / ticks,
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

    println!(
        "\n{:>9} | {:>16} {:>14}",
        "objects", "visits per pass", "host us/tick"
    );
    println!("{}", "-".repeat(45));
    let populations: &[usize] = if smoke() {
        &[1_000, 10_000]
    } else {
        &[1_000, 10_000, 50_000]
    };
    let rows: Vec<IdleRow> = populations
        .iter()
        .map(|&objects| {
            let row = idle_ticks(objects, reps);
            println!(
                "{objects:>9} | {:>16.2} {:>14.1}",
                row.visits_per_pass, row.host_us_per_tick
            );
            report.push_row(vec![
                ("objects", objects.into()),
                ("pass_visits_per_pass", row.visits_per_pass.into()),
                ("host_us_per_tick", row.host_us_per_tick.into()),
            ]);
            row
        })
        .collect();
    println!(
        "\nSettled objects leave the passes' work sets: a `Tick` looks at the\n\
         objects an event touched since the last one, not at the catalogue."
    );
    report.check(
        "tick_visits_flat_in_objects",
        rows.iter().all(|r| r.visits_per_pass == 0.0),
        format!(
            "review + repair visits per pass over idle settled objects: {:?} (must all be 0)",
            rows.iter().map(|r| r.visits_per_pass).collect::<Vec<_>>()
        ),
    );
    report.check(
        "tick_host_flat_in_objects",
        smoke() || rows[1].host_us_per_tick <= 2.0 * rows[0].host_us_per_tick,
        format!(
            "10 000 objects {:.1} us/tick vs 1 000 objects {:.1} (bound 2x)",
            rows[1].host_us_per_tick, rows[0].host_us_per_tick
        ),
    );
    report.finish();
}
