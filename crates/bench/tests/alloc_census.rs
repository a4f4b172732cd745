//! Allocation census of the paper testbed: every heap acquisition in a
//! window, grouped by the first product frame on its stack (the innermost
//! function of a `c4h-*` or `cloud4home` crate), so a rise in
//! `allocs_per_op` can be traced to the code that makes it.
//!
//! Three warmed windows on `Config::paper_testbed(2011)`, and the
//! `testbed-trace` benchmark workload's measured phase:
//!
//! * **idle**: 600 s of virtual time with no ops, recording off — only the
//!   background plane (resource records every 2 s per node, overlay
//!   liveness probes);
//! * **loop**: rounds of store, fetch and process of fresh objects from
//!   rotating nodes, recording off;
//! * **recorded loop**: the same rounds with tracing and the causal ledger
//!   on, as the `planes-gray` benchmark workload runs — what the recording
//!   plane itself allocates per op;
//! * **testbed-trace**: `c4h_bench::testbed_trace_loop` over 3 000 ops on
//!   seed 2011 — the benchmark driver's closed loop after its 1 300-file
//!   preload, so its per-op figure is that workload's `allocs_per_op`
//!   (within the driver's own few bookkeeping allocations).
//!
//! Ignored by default: capturing and resolving a stack per allocation takes
//! seconds. Built with the bench profile (release with debug info), so
//! inlined frames still resolve to their functions:
//!
//! ```text
//! cargo test --profile bench -p c4h-bench --test alloc_census -- --ignored --nocapture
//! ```

use std::backtrace::Backtrace;
use std::collections::BTreeMap;
use std::time::Duration;

use c4h_bench::{
    census, testbed_round as round, testbed_trace_loop, warmed_testbed, CountingAlloc,
};
use cloud4home::Config;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// The symbol of one frame line of a formatted backtrace (`  12: path`),
/// without its `::h…` hash suffix.
fn frame_symbol(line: &str) -> Option<&str> {
    let (index, symbol) = line.trim_start().split_once(": ")?;
    if !index.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    let symbol = symbol.trim();
    Some(match symbol.rsplit_once("::h") {
        Some((head, hash)) if hash.len() == 16 && hash.bytes().all(|b| b.is_ascii_hexdigit()) => {
            head
        }
        _ => symbol,
    })
}

/// Whether a frame belongs to the product (not std, not this harness).
fn is_product(symbol: &str) -> bool {
    let path = symbol.trim_start_matches('<');
    (path.starts_with("c4h_") || path.starts_with("cloud4home::")) && !path.starts_with("c4h_bench")
}

/// The first product frame of `stack`.
fn site(stack: &Backtrace) -> String {
    stack
        .to_string()
        .lines()
        .filter_map(frame_symbol)
        .find(|s| is_product(s))
        .unwrap_or("(no product frame)")
        .to_owned()
}

/// Prints one window's allocations by site, largest first, per `unit`.
fn print_table(title: &str, stacks: &[Backtrace], units: u64, unit: &str) {
    let mut by_site: BTreeMap<String, u64> = BTreeMap::new();
    for stack in stacks {
        *by_site.entry(site(stack)).or_default() += 1;
    }
    let mut rows: Vec<(String, u64)> = by_site.into_iter().collect();
    rows.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    println!(
        "\n{title}: {} allocations, {:.2} per {unit} ({units} {unit}s)",
        stacks.len(),
        stacks.len() as f64 / units as f64
    );
    println!("{:>9} {:>9}  first product frame", "allocs", "per_unit");
    for (site, n) in rows {
        println!("{n:>9} {:>9.3}  {site}", n as f64 / units as f64);
    }
}

#[test]
#[ignore = "captures a stack per allocation; run by hand, see the module docs"]
fn allocation_census_of_the_paper_testbed() {
    const IDLE: Duration = Duration::from_secs(600);
    let mut home = warmed_testbed(false);
    let ((), stacks) = census(|| home.run_for(IDLE));
    let period = Config::paper_testbed(2011).monitor.update_period;
    let records = home.node_count() as u64 * IDLE.as_secs() / period.as_secs();
    print_table(
        "idle window (600 s, recording off)",
        &stacks,
        records,
        "resource record",
    );

    const WARM_ROUNDS: u64 = 4;
    const ROUNDS: u64 = 40;
    for (recording, title) in [
        (false, "store/fetch/process loop (recording off)"),
        (true, "store/fetch/process loop (tracing and ledger on)"),
    ] {
        let mut home = warmed_testbed(recording);
        for r in 0..WARM_ROUNDS {
            round(&mut home, r);
        }
        let (ops, stacks) = census(|| {
            (WARM_ROUNDS..WARM_ROUNDS + ROUNDS)
                .map(|r| round(&mut home, r))
                .sum::<u64>()
        });
        print_table(title, &stacks, ops, "op");
        assert!(!stacks.is_empty(), "the census captured nothing");
    }

    const TRACE_OPS: usize = 3_000;
    let mut replay = testbed_trace_loop(TRACE_OPS, 2011);
    let (ok, stacks) = census(|| replay.run());
    assert_eq!(ok, TRACE_OPS, "every op of the replay succeeds");
    print_table(
        "testbed-trace measured phase (seed 2011, recording off)",
        &stacks,
        TRACE_OPS as u64,
        "op",
    );
}
