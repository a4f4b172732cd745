//! PAPER.md §V, every table: Table I, Figures 4–6, the §V-B split
//! processing experiment, Figures 7–8, and the introduction's thin-client
//! vs end-point comparison; then the mechanism studies beyond the paper,
//! from path caching to the replica fan-out, striped fetch, capacity
//! frontier and adaptive placement sweeps.
//! The rows come from `c4h_bench::paper`, and every verdict line from its
//! claim tables, which `tests/paper_shapes.rs` asserts.
//!
//! Run with: `cargo bench -p c4h-bench --bench paper`

use std::fmt::Debug;

use c4h_bench::{banner, paper};

/// Prints the experiment banner, the column header and a rule `width` wide.
fn table(id: &str, title: &str, header: &str, width: usize) {
    banner(id, title);
    println!("{header}\n{}", "-".repeat(width));
}

/// Prints, after a blank line, each of `experiment`'s claims with its
/// verdict on `rows`.
fn verdicts<R: Debug>(experiment: &paper::Experiment<R>, rows: &R) {
    println!();
    for (claim, holds) in experiment.verdicts(rows) {
        let flag = if holds { "holds" } else { "NOT REPRODUCED" };
        println!("{flag}: {} — {}", claim.name, claim.says);
    }
}

fn table1() {
    table(
        "Table I",
        "home cloud fetch cost breakdown (measured vs paper, ms)",
        "  size |     total inter-node   inter-dom     dht |   P:total   P:i-node     P:i-dom   P:dht",
        100,
    );
    let rows = paper::TABLE1.rows(0);
    for (r, p) in rows.iter().zip(&paper::TABLE1_PAPER) {
        let (mb, t, i, d, k) = (r.mb, r.total, r.inter_node, r.inter_domain, r.dht);
        let (pt, pi, pd, pk) = (p.total, p.inter_node, p.inter_domain, p.dht);
        println!(
            "{mb:>4}MB | {t:>9.0} {i:>10.0} {d:>11.0} {k:>7.1} | {pt:>9.0} {pi:>10.0} {pd:>11.0} {pk:>7.0}"
        );
    }
    verdicts(&paper::TABLE1, &rows);
}

fn fig4() {
    let rows = paper::FIG4.rows(0);
    table(
        "Figure 4",
        "home vs remote cloud access latency and variability (seconds)",
        "  size |       home store       home fetch |        cloud store        cloud fetch",
        84,
    );
    for r in &rows {
        let (hs, hf, cs, cf) = (r.home_store, r.home_fetch, r.cloud_store, r.cloud_fetch);
        println!(
            "{:>4}MB | {:>8.2} ±{:>5.2}s {:>8.2} ±{:>5.2}s | {:>9.1} ±{:>6.1}s {:>9.1} ±{:>6.1}s",
            r.mb, hs.mean, hs.std, hf.mean, hf.std, cs.mean, cs.std, cf.mean, cf.std
        );
    }
    let last = rows.last().expect("Figure 4 has rows");
    let (mb, hf, cf) = (last.mb, last.home_fetch, last.cloud_fetch);
    let (ratio, cloud_var, home_var) = (cf.mean / hf.mean, cf.std / cf.mean, hf.std / hf.mean);
    println!(
        "\ncloud/home fetch latency at {mb} MB: {ratio:.0}x; relative variability: cloud {cloud_var:.2} vs home {home_var:.2}"
    );
    verdicts(&paper::FIG4, &rows);
}

fn fig5() {
    table(
        "Figure 5",
        "remote-cloud throughput vs object size (Mbit/s); optimum ≈ 20 MB",
        "   size |  Method 1 (Mbit/s)  Method 2 (Mbit/s)",
        50,
    );
    let rows = paper::FIG5.rows(0);
    for r in &rows {
        println!("{:>5}MB | {:>18.2} {:>18.2}", r.mb, r.method1, r.method2);
    }
    let m1 = paper::fig5_peak(&rows, |r| r.method1);
    let m2 = paper::fig5_peak(&rows, |r| r.method2);
    println!("\noptimal object size: Method 1 = {m1} MB, Method 2 = {m2} MB (paper: ≈20 MB)");
    verdicts(&paper::FIG5, &rows);
}

fn fig6() {
    table(
        "Figure 6",
        "aggregate fetch throughput (MB/s) vs % data in remote cloud",
        " % remote |   1 thread  2 threads  3 threads |  remote-only",
        62,
    );
    let fig = paper::FIG6.rows(0);
    for r in &fig.rows {
        let ([t1, t2, t3], pct, only) = (r.threads, r.remote_pct, fig.remote_only);
        println!("{pct:>8}% | {t1:>10.2} {t2:>10.2} {t3:>10.2} | {only:>12.2}");
    }
    let gain = paper::concurrency_gain(&fig, 10);
    println!("\nconcurrency gain at 10% remote (3 threads vs 1): {gain:.0}% (paper: ~45%)");
    verdicts(&paper::FIG6, &fig);
}

fn split() {
    table(
        "§V-B split processing",
        "image-sequence recognition: home 162 s / remote 127 s / split 98 s (paper)",
        "scenario                     measured (s)    paper (s)",
        56,
    );
    let s = paper::SPLIT.rows(0);
    let cloud_share = paper::SPLIT_IMAGES - s.home_share;
    let (home, cloud) = (
        ("(i)   home only", s.home),
        ("(ii)  remote cloud only", s.cloud),
    );
    for ((label, secs), paper) in [home, cloud].into_iter().zip([162, 127]) {
        println!("{label:<28} {secs:>12.0} {paper:>12}");
    }
    println!(
        "{:<28} {:>12.0} {:>12}   ({} images home / {cloud_share} cloud)",
        "(iii) split home+cloud", s.split, 98, s.home_share
    );
    verdicts(&paper::SPLIT, &s);
}

fn fig7() {
    let rows = paper::FIG7.rows(0);
    table(
        "Figure 7",
        "surveillance pipeline (FDet+FRec) cost by placement, from S1",
        "   image |     S1 (s)     S2 (s)     S3 (s) |   winner",
        62,
    );
    for r in &rows {
        let ([s1, s2, s3], kib, winner, moved) = (r.totals, r.kib, r.winner(), r.s3_movement);
        println!(
            "{kib:>5}KiB | {s1:>10.2} {s2:>10.2} {s3:>10.2} | {winner:>8}   (S3 movement {moved:.1}s)"
        );
    }
    let winners: Vec<_> = rows.iter().map(paper::Fig7Row::winner).collect();
    println!("\npaper shape: S1 wins smallest, S2 the middle, S3 the largest — got {winners:?}");
    verdicts(&paper::FIG7, &rows);
}

fn fig8() {
    table(
        "Figure 8",
        "media conversion at owner (Town) vs dynamically routed (Topt)",
        "   size |   Town (s)   Topt (s)   speedup |   move (ms) decide (ms)       chosen",
        84,
    );
    let rows = paper::FIG8.rows(0);
    for r in &rows {
        let (mb, town, topt, speedup) = (r.mb, r.town, r.topt, r.town / r.topt);
        let (moved, decide, chosen) = (r.move_ms, r.decide_ms, &r.chosen);
        println!(
            "{mb:>5}MB | {town:>10.2} {topt:>10.2} {speedup:>8.2}x | {moved:>11.0} {decide:>11.0} {chosen:>12}"
        );
    }
    verdicts(&paper::FIG8, &rows);
}

fn baselines() {
    table(
        "Baselines",
        "Cloud4Home vs the pure architectures its introduction argues against",
        "architecture       workload (s)   failed",
        42,
    );
    let b = paper::BASELINES.rows(0);
    let runs = [
        ("all-cloud", b.all_cloud),
        ("all-home", b.all_home),
        ("cloud4home", b.cloud4home),
    ];
    for (label, r) in runs {
        println!("{label:<14} {:>16.1} {:>8}", r.secs, r.failed);
    }
    verdicts(&paper::BASELINES, &b);
    let speedup = b.all_cloud.secs / b.cloud4home.secs;
    println!("Cloud4Home completes the whole workload {speedup:.1}x faster than the thin client.");
}

/// Prints a study's title and column header.
fn study(title: &str, header: &str) {
    println!("\n--- {title} ---\n{header}");
}

fn path_caching() {
    study(
        "metadata path caching (32-node overlay, repeated lookups)",
        "cache capacity   mean dht (ms)   cache hits",
    );
    let rows = paper::PATH_CACHING.rows(0);
    for r in &rows {
        println!("{:>14} {:>15.1} {:>12}", r.capacity, r.dht_ms, r.hits);
    }
    verdicts(&paper::PATH_CACHING, &rows);
}

fn metadata_replication() {
    study(
        "replication factor vs crash survival",
        "replication   metadata survived",
    );
    let (rows, n) = (paper::METADATA_REPLICATION.rows(0), paper::STUDY_OBJECTS);
    for (factor, resolved) in rows.iter().enumerate() {
        println!("{factor:>11} {resolved:>16}/{n}");
    }
    verdicts(&paper::METADATA_REPLICATION, &rows);
}

fn route_policies() {
    study(
        "decision policies on a transcode batch",
        "policy         mean (s)   on desktop   on battery node",
    );
    let rows = paper::ROUTE_POLICIES.rows(0);
    for r in &rows {
        let (policy, mean, desktop, netbook) = (r.policy, r.mean_s, r.on_desktop, r.on_netbook);
        println!(
            "{:<12} {mean:>10.2} {desktop:>10}/6 {netbook:>15}/6",
            format!("{policy:?}")
        );
    }
    verdicts(&paper::ROUTE_POLICIES, &rows);
}

fn blocking_stores() {
    study(
        "blocking vs non-blocking stores (1 MiB, home)",
        "store          mean (ms)",
    );
    let r = paper::BLOCKING_STORES.rows(0);
    let (bm, nm) = (r.blocking_ms, r.non_blocking_ms);
    println!(
        "blocking     {bm:>10.1}\nnon-blocking {nm:>10.1}   (ack saved: {:.1} ms)",
        bm - nm
    );
    verdicts(&paper::BLOCKING_STORES, &r);
}

fn replica_failover() {
    study(
        "chaos: data replication factor x bursty loss",
        "replication     loss     fetch ok    failovers    repairs",
    );
    let (rows, n) = (paper::REPLICA_FAILOVER.rows(0), paper::FAILOVER_OBJECTS);
    for r in &rows {
        let (f, loss, ok, failovers, repairs) =
            (r.factor, r.loss, r.fetched, r.failovers, r.repairs);
        println!("{f:<12} {loss:>8.2} {ok:>10}/{n} {failovers:>12} {repairs:>10}");
    }
    verdicts(&paper::REPLICA_FAILOVER, &rows);
}

fn fanout_sweep() {
    study(
        "replica fan-out and write quorums (4 MiB home store, mean of 5)",
        "  rep |    all copies (ms)      quorum=1 (ms)    ratio",
    );
    let f = paper::FANOUT_SWEEP.rows(0);
    let base = f.rows[0].all_copies_ms;
    for r in &f.rows {
        let (rep, all, q1) = (r.replication, r.all_copies_ms, r.quorum1_ms);
        println!("{rep:>5} | {all:>18.1} {q1:>18.1} {:>8.2}", q1 / base);
    }
    println!("\nChunked vs monolithic WAN upload (8 MiB):");
    for u in &f.uploads {
        let label = match u.chunk_bytes {
            0 => "monolithic".to_owned(),
            bytes => format!("{} MiB chunks", bytes >> 20),
        };
        let (ms, chunked) = (u.ms, u.chunked);
        println!("  {label:>14}: {ms:>9.1} ms ({chunked} chunked transfers)");
    }
    verdicts(&paper::FANOUT_SWEEP, &f);
}

fn fetch_stripe() {
    study(
        "striped fetches with bandwidth ranking and hedging (mean of 5)",
        "segment     size |        k=1        k=2        k=3    speedup k=3",
    );
    let s = paper::FETCH_STRIPE.rows(0);
    for r in &s.rows {
        let (segment, mb, [k1, k2, k3]) = (if r.cloud { "WAN" } else { "LAN" }, r.mb, r.k_ms);
        println!(
            "{segment:<7} {mb:>6}MB | {k1:>10.1} {k2:>10.1} {k3:>10.1} {:>13.2}x",
            k1 / k3
        );
    }
    println!("\nHedged tail requests (48 MiB home object, k=2 of 3 holders):");
    for h in &s.hedges {
        let label = match h.hedge {
            0.0 => "hedging off".to_owned(),
            hedge => format!("hedge={hedge}"),
        };
        println!(
            "  {label:>12}: {:>9.1} ms ({} hedged)",
            h.fetch_ms, h.hedged
        );
    }
    verdicts(&paper::FETCH_STRIPE, &s);
}

fn capacity_frontier() {
    study(
        "capacity frontier: open-loop load, overload plane off/on (10 s per point)",
        " offered/s | plane |  admitted    shed  fetch p99 ms    goodput/s  shed %",
    );
    let rows = paper::CAPACITY_FRONTIER.rows(0);
    for r in &rows {
        for (plane, p) in [("off", r.off), ("on", r.on)] {
            let shed_pct = 100.0 * p.shed as f64 / (p.admitted + p.shed).max(1) as f64;
            println!(
                "{:>10} | {plane:>5} | {:>9} {:>7} {:>13.1} {:>12.1} {shed_pct:>6.1}%",
                r.offered_hz, p.admitted, p.shed, p.fetch_p99_ms, p.goodput_hz
            );
        }
    }
    verdicts(&paper::CAPACITY_FRONTIER, &rows);
}

fn adaptive_placement() {
    let w = paper::hotset();
    study(
        &format!(
            "adaptive placement vs static copies ({} objects x 2 MiB, {} phases x {:?}, hot window {})",
            w.catalog, w.phases, w.phase_len, w.hot
        ),
        "               arm |    stored  overhead  mean (ms)   p99 (ms)     EC  floor",
    );
    let arms = paper::ADAPTIVE_PLACEMENT.rows(0);
    for a in &arms {
        println!(
            "{:>18} | {:>5} MiB {:>8.2}x {:>10.1} {:>10.1} {:>6} {:>6}",
            a.label,
            a.stored_bytes >> 20,
            a.stored_bytes as f64 / a.logical_bytes as f64,
            a.fetch_mean_ms,
            a.fetch_p99_ms,
            a.ec_objects,
            a.loss_floor,
        );
    }
    verdicts(&paper::ADAPTIVE_PLACEMENT, &arms);
}

fn main() {
    table1();
    fig4();
    fig5();
    fig6();
    split();
    fig7();
    fig8();
    baselines();
    banner(
        "Beyond the paper",
        "mechanism studies of Cloud4Home design choices",
    );
    path_caching();
    metadata_replication();
    route_policies();
    blocking_stores();
    replica_failover();
    fanout_sweep();
    fetch_stripe();
    capacity_frontier();
    adaptive_placement();
}
