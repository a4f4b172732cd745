//! Sampled host-time profile of three windows, by frame: the share of
//! samples interrupted inside each function (self) and with it anywhere on
//! the stack (inclusive), so the next optimisation is chosen from a profile
//! anyone can re-take.
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
//!   with `run_until_idle`.
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
    neighborhood_config, sample_profile, testbed_round, testbed_trace_config, warmed_testbed,
};
use c4h_workloads::generate;
use cloud4home::{Cloud4Home, Config, NodeId, Object, StorePolicy};

/// Frames printed per table.
const TOP: usize = 30;

/// Stores in flight per preload wave, as the benchmark driver uses.
const PRELOAD_WAVE: usize = 8;

/// `testbed-trace`'s set-up as `benchmark/src/{workloads,driver}.rs` run
/// it: the trace, the paper testbed, and every file preloaded from the six
/// clients in turn, in waves drained by `run_until_idle`. File `rank`'s
/// size comes from the same golden-ratio sequence over 64 KiB-4 MiB the
/// benchmark uses. Returns the files placed in the cloud.
fn testbed_trace_setup(seed: u64) -> usize {
    const GOLDEN: f64 = 0.618_033_988_749_894_9;
    let tc = testbed_trace_config(10_000);
    let (lo, hi) = tc.size_override.expect("the shape fixes its sizes");
    let trace = generate(&tc, seed);
    let mut home = Cloud4Home::new(Config::paper_testbed(seed));
    let policy = StorePolicy::SizeThreshold {
        cloud_at_bytes: 3 << 20,
    };
    let mut wave = Vec::with_capacity(PRELOAD_WAVE);
    let mut via_cloud = 0;
    for (rank, f) in trace.files.iter().enumerate() {
        let size = lo + ((rank as f64 * GOLDEN).fract() * (hi - lo) as f64) as u64;
        let obj = Object::synthetic(&f.name, f.content_seed, size, f.kind.content_type());
        let client = NodeId(rank % tc.clients);
        wave.push(home.store_object(client, obj, policy.clone(), true));
        if wave.len() == PRELOAD_WAVE || rank + 1 == trace.files.len() {
            home.run_until_idle();
            for id in wave.drain(..) {
                let report = home
                    .take_report(id)
                    .expect("a preload store files a report");
                via_cloud += usize::from(report.expect_ok().via_cloud);
            }
        }
    }
    via_cloud
}

#[test]
#[ignore = "samples for seconds and shells out to addr2line; run by hand, see the module docs"]
fn host_profile_of_the_join_the_testbed_loop_and_its_setup() {
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
            .map(|_| testbed_trace_setup(2011))
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
    assert!(
        join.samples() > 0 && looped.samples() > 0 && setup.samples() > 0,
        "the sampler took nothing"
    );
}
