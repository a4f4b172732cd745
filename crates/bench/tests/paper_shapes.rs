//! The shape claims of the paper's evaluation (§V), asserted on full sweeps.
//!
//! Every assertion goes through a predicate of `c4h_bench::paper`, the same
//! one whose verdict `cargo bench -p c4h-bench --bench paper` prints. Each
//! bound comes from the paper's words (in quotes where verbatim) or its
//! Table I values, named beside the assertion; none is fitted to a measured
//! row. A failing claim is a finding to report, not a bound to loosen.

use c4h_bench::paper;

#[test]
fn table1_cost_breakdown() {
    let rows = paper::table1();
    // Table I: inter-node cost per MB ranges 93.6–135.8 ms (1.45×).
    assert!(
        paper::inter_node_linear(&rows),
        "inter-node ≈ linear: {rows:?}"
    );
    // Table I: inter-domain (25 → 1 603 ms) below inter-node at every size.
    assert!(
        paper::inter_domain_below_inter_node(&rows),
        "inter-domain below inter-node: {rows:?}"
    );
    // Table I: DHT lookup 12–16 ms (a 4 ms band) from 1 MB to 100 MB.
    assert!(paper::dht_flat(&rows), "DHT lookup flat: {rows:?}");
}

#[test]
fn fig4_home_vs_remote() {
    let rows = paper::fig4();
    // Remote latencies are far higher (at least 10×) …
    assert!(
        paper::cloud_fetch_10x_home(&rows),
        "cloud ≥ 10× home: {rows:?}"
    );
    // Upload (4.5 Mbit/s) is scarcer than download (6.5 Mbit/s).
    assert!(
        paper::cloud_store_slower(&rows),
        "cloud store > fetch: {rows:?}"
    );
    // … and far more variable, increasingly so for larger objects.
    assert!(
        paper::cloud_spread_grows(&rows),
        "cloud spread grows: {rows:?}"
    );
}

#[test]
fn fig5_optimal_object_size() {
    let rows = paper::fig5();
    // "Remote Cloud - optimal object size": ≈ 20 MB by both methods.
    assert_eq!(
        paper::fig5_peak(&rows, |r| r.method1),
        20,
        "Method 1: {rows:?}"
    );
    assert_eq!(
        paper::fig5_peak(&rows, |r| r.method2),
        20,
        "Method 2: {rows:?}"
    );
}

#[test]
fn fig6_fetch_throughput() {
    let fig = paper::fig6();
    // More client threads overlap remote stalls with home accesses.
    assert!(paper::more_threads_never_worse(&fig), "threads: {fig:?}");
    // The remote-cloud-only line sits at the bottom.
    assert!(
        paper::remote_only_lowest(&fig),
        "remote-only lowest: {fig:?}"
    );
    // Throughput falls as more content lives behind the WAN.
    assert!(
        paper::all_home_beats_remote(&fig),
        "0 % row on top: {fig:?}"
    );

    // Why the 20 % row beats the 10 % row: in both, no stream makes more
    // than one remote fetch, so each makespan is one remote fetch plus local
    // ones; 20 % only puts that one fetch in more streams.
    let row = |pct| *fig.rows.iter().find(|r| r.remote_pct == pct).unwrap();
    let (ten, twenty) = (row(10), row(20));
    assert_eq!(ten.remote_fetches, [2, 3, 3], "of 18, 36 and 54 fetches");
    assert_eq!(twenty.remote_fetches, [3, 6, 9], "of 18, 36 and 54 fetches");
    assert_eq!(ten.remote_per_stream, [1, 1, 1]);
    assert_eq!(twenty.remote_per_stream, [1, 1, 1]);
}

#[test]
fn split_processing() {
    let s = paper::split();
    // "… are 162 sec, 127 sec, and 98 sec, respectively": the split wins.
    assert!(
        paper::split_beats_both(&s),
        "(iii) beats (i) and (ii): {s:?}"
    );
}

#[test]
fn fig7_service_placement() {
    let rows = paper::fig7();
    // S1 for the smallest images, S2 in the middle, and at 2 MB S3 "despite
    // the even greater data movement costs".
    for (row, paper_winner) in rows.iter().zip(paper::FIG7_PAPER_WINNERS) {
        assert_eq!(row.winner(), paper_winner, "{} KiB: {row:?}", row.kib);
    }
    assert_eq!(rows.len(), paper::FIG7_PAPER_WINNERS.len());
}

#[test]
fn fig8_dynamic_routing() {
    let rows = paper::fig8();
    // "the latter case results in substantial performance gains, despite the
    // additional costs for moving data from owner to the desktop node".
    assert!(paper::topt_beats_town(&rows), "Topt < Town: {rows:?}");
    assert!(
        paper::topt_picks_desktop(&rows),
        "routed to the desktop: {rows:?}"
    );
}

#[test]
fn baselines_thin_client_and_end_point() {
    let b = paper::baselines();
    // "'thin client' models … can suffer from high and variable delays".
    assert!(paper::beats_thin_client(&b), "faster than all-cloud: {b:?}");
    assert!(paper::completes_everything(&b), "no failed op: {b:?}");
    // "purely end-point based solutions cannot take advantage of the large
    // storage and computational capacities present in large scale datacenters".
    assert!(paper::end_point_fails_archive(&b), "all-home drops: {b:?}");
}
