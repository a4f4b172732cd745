//! Replica fan-out sweep — store latency vs replication factor.
//!
//! The serial data path the bugfix PR replaced shipped replica copies one
//! after another, so store latency grew linearly with the replication
//! factor. The parallel fan-out starts every replica flow at once, and a
//! write quorum lets the store publish before the stragglers land. This
//! sweep measures both knobs on the home-LAN preset, plus the effect of
//! chunked transfers on the WAN upload path.
//!
//! Run with: `cargo bench -p c4h-bench --bench fanout_sweep`
//! (set `C4H_SMOKE=1` for the CI smoke variant: one trial per point).

use std::time::Duration;

use c4h_bench::{banner, mean_std, ms, smoke, BenchReport};
use cloud4home::{Cloud4Home, Config, NodeId, Object, StorePolicy};

const OBJECT_BYTES: u64 = 4 << 20;

/// Mean (and spread) of store latency over `trials` fresh deployments.
fn store_latency(
    replication: usize,
    quorum: usize,
    chunk_bytes: u64,
    policy: StorePolicy,
    trials: u64,
) -> (f64, f64) {
    let mut samples = Vec::new();
    for t in 0..trials {
        let mut config = Config::paper_testbed(9000 + t);
        config.replication = replication;
        config.replica_quorum = quorum;
        config.chunk_bytes = chunk_bytes;
        let mut home = Cloud4Home::new(config);
        let obj = Object::synthetic(&format!("sweep/{t}.bin"), t, OBJECT_BYTES, "doc");
        let op = home.store_object(NodeId(1), obj, policy.clone(), true);
        let r = home.run_until_complete(op);
        r.expect_ok();
        samples.push(ms(r.total()));
        // Background stragglers must drain cleanly either way.
        home.run_until_idle();
    }
    mean_std(&samples)
}

fn main() {
    let trials = if smoke() { 1 } else { 5 };
    banner(
        "Fan-out sweep",
        "parallel replica fan-out and write quorums (store data path)",
    );
    let mut report = BenchReport::new("fanout_sweep");
    report.config("smoke", smoke());
    report.config("trials", trials);
    report.config("object_bytes", OBJECT_BYTES);
    println!(
        "{:>5} | {:>18} {:>18} {:>8}",
        "rep", "all copies (ms)", "quorum=1 (ms)", "ratio"
    );
    println!("{}", "-".repeat(56));
    let (base, _) = store_latency(1, 0, 0, StorePolicy::ForceHome, trials);
    for rep in 1..=4usize {
        let (all, _) = store_latency(rep, 0, 0, StorePolicy::ForceHome, trials);
        let (q1, _) = store_latency(rep, 1, 0, StorePolicy::ForceHome, trials);
        println!("{rep:>5} | {all:>18.1} {q1:>18.1} {:>8.2}", q1 / base);
        report.push_row(vec![
            ("replication", rep.into()),
            ("all_copies_ms", all.into()),
            ("quorum1_ms", q1.into()),
            ("quorum1_vs_rep1", (q1 / base).into()),
        ]);
    }
    println!(
        "\nWith all copies foreground, latency tracks the extra bytes the\n\
         shared LAN must carry; at quorum=1 the replica flows detach and\n\
         rep=4 stays within 1.5x of an unreplicated store (ratio column)."
    );

    println!("\nChunked vs monolithic WAN upload ({} MiB):", 8);
    let chunked = [0u64, 1 << 20, 4 << 20];
    for chunk in chunked {
        let mut config = Config::paper_testbed(9100);
        config.chunk_bytes = chunk;
        let mut home = Cloud4Home::new(config);
        let obj = Object::synthetic("sweep/wan.bin", 7, 8 << 20, "doc");
        let op = home.store_object(NodeId(1), obj, StorePolicy::ForceCloud, true);
        let r = home.run_until_complete(op);
        r.expect_ok();
        let label = if chunk == 0 {
            "monolithic".to_owned()
        } else {
            format!("{} MiB chunks", chunk >> 20)
        };
        println!(
            "  {label:>14}: {:>9.1} ms ({} chunked transfers)",
            ms(r.total()),
            home.stats().chunked_transfers
        );
        report.push_row(vec![
            ("wan_chunk_bytes", chunk.into()),
            ("wan_store_ms", ms(r.total()).into()),
            ("chunked_transfers", home.stats().chunked_transfers.into()),
        ]);
    }

    // The headline regression gate, recorded so the smoke run in CI fails
    // loudly if the fan-out path ever serializes again.
    let (fanned, _) = store_latency(4, 1, 0, StorePolicy::ForceHome, trials);
    report.check(
        "fanout_within_1_5x",
        Duration::from_secs_f64(fanned / 1e3) <= Duration::from_secs_f64(base / 1e3).mul_f64(1.5),
        format!("rep=4 quorum=1 store ({fanned:.1} ms) must stay within 1.5x rep=1 ({base:.1} ms)"),
    );
    println!("\nheadline: rep=4 quorum=1 {fanned:.1} ms vs rep=1 {base:.1} ms — within 1.5x");
    report.finish();
}
