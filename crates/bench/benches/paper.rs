//! PAPER.md §V, every table: Table I, Figures 4–6, the §V-B split
//! processing experiment, Figures 7–8, and the introduction's thin-client
//! vs end-point comparison. The rows come from `c4h_bench::paper`, and
//! every verdict line from its shape predicates, which
//! `tests/paper_shapes.rs` asserts.
//!
//! Run with: `cargo bench -p c4h-bench --bench paper`

use c4h_bench::{banner, paper};

/// Prints the experiment banner, the column header and a rule `width` wide.
fn table(id: &str, title: &str, header: &str, width: usize) {
    banner(id, title);
    println!("{header}\n{}", "-".repeat(width));
}

/// Prints `claim` after a blank line if it holds, or flags it as not
/// reproduced.
fn verdict(holds: bool, claim: &str) {
    let flag = if holds { "" } else { "NOT REPRODUCED: " };
    println!("\n{flag}{claim}");
}

fn table1() {
    table(
        "Table I",
        "home cloud fetch cost breakdown (measured vs paper, ms)",
        "  size |     total inter-node   inter-dom     dht |   P:total   P:i-node     P:i-dom   P:dht",
        100,
    );
    let rows = paper::table1();
    for (r, p) in rows.iter().zip(&paper::TABLE1_PAPER) {
        let (mb, t, i, d, k) = (r.mb, r.total, r.inter_node, r.inter_domain, r.dht);
        let (pt, pi, pd, pk) = (p.total, p.inter_node, p.inter_domain, p.dht);
        println!(
            "{mb:>4}MB | {t:>9.0} {i:>10.0} {d:>11.0} {k:>7.1} | {pt:>9.0} {pi:>10.0} {pd:>11.0} {pk:>7.0}"
        );
    }
    verdict(
        paper::inter_node_linear(&rows)
            && paper::inter_domain_below_inter_node(&rows)
            && paper::dht_flat(&rows),
        "Shape checks: inter-node ≈ linear in size; inter-domain ≈ linear and\n\
         ~10x smaller; DHT lookup constant and negligible for large objects.",
    );
}

fn fig4() {
    let rows = paper::fig4();
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
    verdict(
        paper::cloud_fetch_10x_home(&rows)
            && paper::cloud_store_slower(&rows)
            && paper::cloud_spread_grows(&rows),
        "Shape checks: cloud fetch ≥ 10x home fetch at every size; cloud store\n\
         slower than cloud fetch (upload 4.5 vs download 6.5 Mbps); both cloud\n\
         spreads grow with size.",
    );
}

fn fig5() {
    table(
        "Figure 5",
        "remote-cloud throughput vs object size (Mbit/s); optimum ≈ 20 MB",
        "   size |  Method 1 (Mbit/s)  Method 2 (Mbit/s)",
        50,
    );
    let rows = paper::fig5();
    for r in &rows {
        println!("{:>5}MB | {:>18.2} {:>18.2}", r.mb, r.method1, r.method2);
    }
    let m1 = paper::fig5_peak(&rows, |r| r.method1);
    let m2 = paper::fig5_peak(&rows, |r| r.method2);
    println!("\noptimal object size: Method 1 = {m1} MB, Method 2 = {m2} MB (paper: ≈20 MB)");
    verdict(
        m1 == 20 && m2 == 20,
        "Both methods peak at 20 MB, the paper's remote-cloud optimum.",
    );
}

fn fig6() {
    table(
        "Figure 6",
        "aggregate fetch throughput (MB/s) vs % data in remote cloud",
        " % remote |   1 thread  2 threads  3 threads |  remote-only",
        62,
    );
    let fig = paper::fig6();
    for r in &fig.rows {
        let ([t1, t2, t3], pct, only) = (r.threads, r.remote_pct, fig.remote_only);
        println!("{pct:>8}% | {t1:>10.2} {t2:>10.2} {t3:>10.2} | {only:>12.2}");
    }
    let gain = paper::concurrency_gain(&fig, 10);
    println!("\nconcurrency gain at 10% remote (3 threads vs 1): {gain:.0}% (paper: ~45%)");
    verdict(
        paper::more_threads_never_worse(&fig)
            && paper::remote_only_lowest(&fig)
            && paper::all_home_beats_remote(&fig),
        "Shape checks: more threads never hurt; remote-only is the lowest line;\n\
         the all-home row is on top.",
    );
}

fn split() {
    table(
        "§V-B split processing",
        "image-sequence recognition: home 162 s / remote 127 s / split 98 s (paper)",
        "scenario                     measured (s)    paper (s)",
        56,
    );
    let s = paper::split();
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
    verdict(
        paper::split_beats_both(&s),
        "joint usage of home and remote resources wins — the paper's claim.",
    );
}

fn fig7() {
    let rows = paper::fig7();
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
    verdict(
        winners == paper::FIG7_PAPER_WINNERS,
        "The winning placement at every size is the paper's.",
    );
}

fn fig8() {
    table(
        "Figure 8",
        "media conversion at owner (Town) vs dynamically routed (Topt)",
        "   size |   Town (s)   Topt (s)   speedup |   move (ms) decide (ms)       chosen",
        84,
    );
    let rows = paper::fig8();
    for r in &rows {
        let (mb, town, topt, speedup) = (r.mb, r.town, r.topt, r.town / r.topt);
        let (moved, decide, chosen) = (r.move_ms, r.decide_ms, &r.chosen);
        println!(
            "{mb:>5}MB | {town:>10.2} {topt:>10.2} {speedup:>8.2}x | {moved:>11.0} {decide:>11.0} {chosen:>12}"
        );
    }
    verdict(
        paper::topt_beats_town(&rows) && paper::topt_picks_desktop(&rows),
        "Topt < Town at every size, routed to the desktop: dynamic routing pays\n\
         for its movement and decision overheads (paper Figure 8's observation).",
    );
}

fn baselines() {
    table(
        "Baselines",
        "Cloud4Home vs the pure architectures its introduction argues against",
        "architecture       workload (s)   failed",
        42,
    );
    let b = paper::baselines();
    let runs = [
        ("all-cloud", b.all_cloud),
        ("all-home", b.all_home),
        ("cloud4home", b.cloud4home),
    ];
    for (label, r) in runs {
        println!("{label:<14} {:>16.1} {:>8}", r.secs, r.failed);
    }
    verdict(
        paper::beats_thin_client(&b)
            && paper::completes_everything(&b)
            && paper::end_point_fails_archive(&b),
        &format!(
            "The thin client pays WAN latency for everything; pure end-point\n\
             operation is fast but cannot absorb the archival data at all.\n\
             Cloud4Home completes the whole workload {:.1}x faster than the thin\n\
             client — the paper's thesis ('quality in service delivery that\n\
             exceeds that of the pure in-the-cloud or at-the-edge service\n\
             realizations').",
            b.all_cloud.secs / b.cloud4home.secs
        ),
    );
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
}
