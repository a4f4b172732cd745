//! Sampled host-time profile of two windows, by frame: the share of
//! samples interrupted inside each function (self) and with it anywhere on
//! the stack (inclusive), so the next optimisation is chosen from a profile
//! anyone can re-take.
//!
//! * **join**: `Cloud4Home::new` on the `neighborhood-1k` world (1 000
//!   nodes, leaf sets of 2, replication 2), three times — the protocol join
//!   that is that workload's set-up;
//! * **loop**: rounds of store, fetch and process of fresh objects from
//!   rotating nodes on the warmed paper testbed, recording off.
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

use c4h_bench::{neighborhood_config, sample_profile, testbed_round, warmed_testbed};
use cloud4home::Cloud4Home;

/// Frames printed per table.
const TOP: usize = 30;

#[test]
#[ignore = "samples for seconds and shells out to addr2line; run by hand, see the module docs"]
fn host_profile_of_the_join_and_the_testbed_loop() {
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
    assert!(
        join.samples() > 0 && looped.samples() > 0,
        "the sampler took nothing"
    );
}
