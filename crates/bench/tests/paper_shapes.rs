//! The shape claims of the paper's evaluation (§V), and of the mechanism
//! studies EXPERIMENTS.md reports beyond it, asserted on full sweeps.
//!
//! Every assertion is a claim of `c4h_bench::paper`'s tables, the same one
//! whose verdict `cargo bench -p c4h-bench --bench paper` prints, run on the
//! committed seeds (`paper::COMMITTED`). Each claim's bound comes from the
//! paper's words (in quotes where verbatim), its Table I values or a
//! study's own sentence, written beside its predicate; none is fitted to a
//! measured row. A failing claim is a finding to report, not a bound to
//! loosen.

use c4h_bench::paper;

/// One test per experiment, asserting every claim of its table.
macro_rules! shape_tests {
    ($($test:ident: $experiment:ident,)*) => {$(
        #[test]
        fn $test() {
            paper::$experiment.assert_holds(0);
        }
    )*};
}

shape_tests! {
    table1_cost_breakdown: TABLE1,
    fig4_home_vs_remote: FIG4,
    fig5_optimal_object_size: FIG5,
    fig6_fetch_throughput: FIG6,
    split_processing: SPLIT,
    fig7_service_placement: FIG7,
    fig8_dynamic_routing: FIG8,
    baselines_thin_client_and_end_point: BASELINES,
    path_caching: PATH_CACHING,
    metadata_replication: METADATA_REPLICATION,
    route_policies: ROUTE_POLICIES,
    blocking_stores: BLOCKING_STORES,
    replica_failover: REPLICA_FAILOVER,
    fanout_sweep: FANOUT_SWEEP,
    fetch_stripe: FETCH_STRIPE,
    capacity_frontier: CAPACITY_FRONTIER,
    adaptive_placement: ADAPTIVE_PLACEMENT,
}

/// The finding that on salt 3 `balanced` puts no transcode on the idle
/// netbooks — 5 of the 6 on the desktop, the sixth on the cloud
/// (EXPERIMENTS.md, "Claims over seeds") — held red until the decision
/// engine spreads that batch.
#[test]
#[should_panic(expected = "policies_route_as_named")]
fn route_policies_balanced_skips_the_netbooks_on_salt_3() {
    paper::ROUTE_POLICIES.assert_holds(3);
}

/// Each claim's pass count over salts 0–31 of every experiment's
/// deployment seed, pinned as a digest is: a change that moves virtual time
/// reports which counts it moved, and a mismatch prints the salts each
/// claim fails on. Salt 0 is the committed seeds. About 1.6 s per salt in
/// release:
/// `cargo test --release -p c4h-bench --test paper_shapes -- --ignored paper_seeds`.
#[test]
#[ignore = "32 salts of every experiment; run in release"]
fn paper_seeds() {
    let sweep = paper::sweep(0..32);
    let counts: Vec<_> = sweep
        .iter()
        .map(|(claim, failed)| (*claim, 32 - failed.len()))
        .collect();
    let pinned = [
        ("inter_node_linear", 28),
        ("inter_domain_below_inter_node", 32),
        ("dht_flat", 26),
        ("cloud_fetch_10x_home", 32),
        ("cloud_store_slower", 32),
        ("cloud_spread_grows", 6),
        ("method1_peaks_at_20mb", 32),
        ("method2_peaks_at_20mb", 23),
        ("more_threads_never_worse", 32),
        ("remote_only_lowest", 32),
        ("all_home_beats_remote", 32),
        ("one_remote_fetch_per_stream", 32),
        ("split_beats_both", 32),
        ("paper_winners", 30),
        ("topt_beats_town", 32),
        ("topt_picks_desktop", 32),
        ("beats_thin_client", 32),
        ("completes_everything", 32),
        ("end_point_fails_archive", 32),
        ("path_caching_lowers_dht", 32),
        ("replication_2_resolves_all", 32),
        ("policies_route_as_named", 31),
        ("blocking_store_costs_more", 32),
        ("replica_survives_owner", 32),
        ("fanout_within_1_5x", 32),
        ("every_replica_lands", 32),
        ("foreground_tracks_bytes", 32),
        ("chunked_wan_beats_monolithic", 32),
        ("wan_striping_beats_single_flow", 29),
        ("stripes_exactly_when_sources_allow", 32),
        ("wan_reads_scale_with_stripes", 32),
        ("lan_two_stripes_fill_the_wire", 32),
        ("hedges_fire_latency_neutral", 32),
        ("plane_off_never_sheds", 32),
        ("plane_invisible_below_saturation", 32),
        ("top_load_saturates_unprotected", 32),
        ("protected_sheds_at_top_load", 32),
        ("protected_p99_within_slo", 32),
        ("plane_costs_about_5pct_goodput", 32),
        ("cooldown_erasure_codes_cold_objects", 32),
        ("adaptive_beats_static_footprint", 32),
        ("same_loss_floor_at_1_67x", 32),
        ("adaptive_tail_undercuts_static", 32),
        ("adaptive_mean_competitive", 32),
        ("every claim", 3),
    ];
    assert_eq!(counts, pinned, "salts each claim fails on: {sweep:#?}");
}
