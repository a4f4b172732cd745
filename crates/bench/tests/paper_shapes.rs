//! The shape claims of the paper's evaluation (§V), and of the mechanism
//! studies beyond it, asserted on full sweeps, and the blocks EXPERIMENTS.md
//! holds checked against the same rows.
//!
//! Every assertion is a claim of `c4h_bench::paper`'s tables, the same one
//! whose verdict line `cargo bench -p c4h-bench --bench paper` prints, run
//! on the committed seeds (`paper::COMMITTED`). Each claim's bound comes
//! from the paper's words (in quotes where verbatim), its Table I values or
//! a study's own sentence, written beside its predicate; none is fitted to
//! a measured row. A failing claim is a finding to report, not a bound to
//! loosen. A stale block is regenerated: paste the bench's output for it.

use c4h_bench::paper;

/// The document whose marked blocks must equal their renderings.
const EXPERIMENTS_MD: &str = include_str!("../../../EXPERIMENTS.md");

/// Asserts that EXPERIMENTS.md holds `fresh`, the block `name` rendered
/// from this run's rows, markers included.
fn assert_committed(name: &str, fresh: &str) {
    let open = format!("<!-- paper:{name} -->\n");
    let close = format!("<!-- /paper:{name} -->\n");
    let committed = EXPERIMENTS_MD.find(&open).and_then(|start| {
        let end = EXPERIMENTS_MD[start..].find(&close)? + close.len();
        Some(&EXPERIMENTS_MD[start..start + end])
    });
    assert!(
        committed == Some(fresh),
        "EXPERIMENTS.md's `{name}` block is stale or missing; the rows render:\n{fresh}"
    );
}

/// One test per experiment, asserting every claim of its table and then
/// its committed block, rendered from the same rows. The list restates
/// `paper::EVERY` so that libtest runs the experiments on parallel threads
/// and names the one that fails; `every_block_is_committed_in_bench_order`
/// holds the two lists equal.
macro_rules! shape_tests {
    ($($test:ident: $experiment:ident,)*) => {
        $(
            #[test]
            fn $test() {
                let experiment = &paper::$experiment;
                assert_committed(experiment.name, &experiment.assert_holds(0));
            }
        )*

        /// The experiments the tests above cover, in order.
        const TESTED: &[&str] = &[$(paper::$experiment.name),*];
    };
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
    overlay_scaling: OVERLAY_SCALING,
}

/// Every experiment has a test above, and EXPERIMENTS.md holds the seeds
/// block, rendered from `paper::SEED_PINS`, and then every experiment's
/// block once each, in the order the bench prints them.
#[test]
fn every_block_is_committed_in_bench_order() {
    let every: Vec<_> = paper::EVERY.iter().map(|e| e.name()).collect();
    assert_eq!(TESTED, every, "a shape test per experiment, in order");
    let marked: Vec<_> = EXPERIMENTS_MD
        .lines()
        .filter_map(|line| line.strip_prefix("<!-- paper:")?.strip_suffix(" -->"))
        .collect();
    assert_eq!(marked, [&["seeds"][..], &every].concat());
    assert_committed("seeds", &paper::seeds_block());
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
/// deployment seed, pinned in `paper::SEED_PINS` as a digest is: a change
/// that moves virtual time reports which counts it moved, and a mismatch
/// prints the salts each claim fails on. Salt 0 is the committed seeds.
/// About 1.6 s per salt in release:
/// `cargo test --release -p c4h-bench --test paper_shapes -- --ignored paper_seeds`.
#[test]
#[ignore = "32 salts of every experiment; run in release"]
fn paper_seeds() {
    let sweep = paper::sweep(paper::SWEEP_SALTS);
    let salts = paper::SWEEP_SALTS.end - paper::SWEEP_SALTS.start;
    let counts: Vec<_> = sweep
        .iter()
        .map(|(claim, failed)| (*claim, salts - failed.len() as u64))
        .collect();
    assert_eq!(
        counts,
        paper::SEED_PINS,
        "salts each claim fails on: {sweep:#?}"
    );
}
