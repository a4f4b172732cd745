//! Sampled host-time profile of four windows, by frame: the share of
//! samples interrupted inside each function (self) and with it anywhere on
//! the stack (inclusive), and the self share rolled up by the innermost
//! product module on each stack (the layer view), so the next optimisation
//! is chosen from a profile anyone can re-take.
//!
//! * **join**: `Cloud4Home::new` on the `neighborhood-1k` world (1 000
//!   nodes, leaf sets of 2, replication 2), three times — the protocol join
//!   that is that workload's set-up;
//! * **loop**: rounds of store, fetch and process of fresh objects from
//!   rotating nodes on the warmed paper testbed, recording off;
//! * **set-up**: the `testbed-trace` workload's set-up as the benchmark
//!   driver runs it, three times — `generate` of its trace,
//!   `Cloud4Home::new` on the paper testbed, and the preload of its 1 300
//!   files in waves of 8 under the 3 MiB cloud threshold, each wave drained
//!   with `run_until_idle` (`c4h_bench::testbed_trace_loop`);
//! * **measured phase**: that workload's measured phase after the set-up,
//!   10 000 ops on seed 2011 from six closed-loop clients polled every
//!   20 ms (`TraceReplay::run`).
//!
//! A sample taken inside a library without frame pointers (libm's `pow`,
//! say) keeps only its innermost frame: its stack ends at "(outside the
//! binary)", so its time shows in that row's self share and in no caller's
//! inclusive share.
//!
//! `c4h_bench::sample_profile` samples every 100 µs by frame pointers, and
//! frames resolve through `addr2line -i`. Ignored by default; build with
//! frame pointers and the bench profile (release with debug info):
//!
//! ```text
//! RUSTFLAGS="-C force-frame-pointers=yes" cargo test --profile bench \
//!     -p c4h-bench --test host_profile -- --ignored --nocapture
//! ```
//!
//! Without frame pointers the self shares still hold, but stacks stop at
//! the first frame that keeps none and inclusive shares undercount.

use c4h_bench::{
    neighborhood_config, sample_profile, testbed_round, testbed_trace_loop, warmed_testbed,
};
use cloud4home::Cloud4Home;

/// Frames printed per table.
const TOP: usize = 30;

#[test]
#[ignore = "samples for seconds and shells out to addr2line; run by hand, see the module docs"]
fn host_profile_of_the_join_the_testbed_loop_and_testbed_trace() {
    const JOINS: usize = 3;
    let ((), join) = sample_profile(|| {
        for _ in 0..JOINS {
            drop(Cloud4Home::new(neighborhood_config(1_000, 2011)));
        }
    });
    println!(
        "{}",
        join.table(
            &format!("join window ({JOINS} x Cloud4Home::new, neighborhood-1k world)"),
            TOP
        )
    );

    const WARM_ROUNDS: u64 = 4;
    const ROUNDS: u64 = 2_000;
    let mut home = warmed_testbed(false);
    for r in 0..WARM_ROUNDS {
        testbed_round(&mut home, r);
    }
    let (ops, looped) = sample_profile(|| {
        (WARM_ROUNDS..WARM_ROUNDS + ROUNDS)
            .map(|r| testbed_round(&mut home, r))
            .sum::<u64>()
    });
    println!(
        "{}",
        looped.table(
            &format!("store/fetch/process loop ({ops} ops, recording off)"),
            TOP
        )
    );

    const SETUPS: usize = 3;
    let (via_cloud, setup) = sample_profile(|| {
        (0..SETUPS)
            .map(|_| testbed_trace_loop(10_000, 2011).via_cloud)
            .sum::<usize>()
    });
    println!(
        "{}",
        setup.table(
            &format!(
                "set-up window ({SETUPS} x testbed-trace generate + new + preload, \
                 {} files via the cloud)",
                via_cloud / SETUPS
            ),
            TOP
        )
    );

    const OPS: usize = 10_000;
    let mut replay = testbed_trace_loop(OPS, 2011);
    let (ok, measured) = sample_profile(|| replay.run());
    let title = format!("measured-phase window (testbed-trace, {OPS} ops, {ok} ok)");
    println!("{}", measured.table(&title, TOP));
    assert!(
        join.samples() > 0 && looped.samples() > 0 && setup.samples() > 0 && measured.samples() > 0,
        "the sampler took nothing"
    );
}
