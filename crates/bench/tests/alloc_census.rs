//! Allocation census of the paper testbed: every heap acquisition in a
//! window, grouped by the first product frame on its stack (the innermost
//! function of a `c4h-*` or `cloud4home` crate), so a rise in
//! `allocs_per_op` can be traced to the code that makes it.
//!
//! Two warmed windows on `Config::paper_testbed(2011)`, recording off:
//!
//! * **idle**: 600 s of virtual time with no ops — only the background
//!   plane (resource records every 2 s per node, overlay liveness probes);
//! * **loop**: rounds of store, fetch and process of fresh objects from
//!   rotating nodes.
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

use c4h_bench::{census, CountingAlloc};
use cloud4home::{Cloud4Home, Config, NodeId, Object, RoutePolicy, ServiceKind, StorePolicy};

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

/// The testbed after a minute of virtual time, recording off.
fn warmed_testbed() -> Cloud4Home {
    let mut home = Cloud4Home::new(Config::paper_testbed(2011));
    home.set_tracing(false);
    home.run_for(Duration::from_secs(60));
    home
}

/// One round of the loop window: a store, a fetch and a process of a fresh
/// object, each from a different node. Returns the ops it ran.
fn round(home: &mut Cloud4Home, r: u64) -> u64 {
    let n = home.node_count();
    let at = |k: u64| NodeId((r + k) as usize % n);
    let name = format!("census/{r}.avi");
    let obj = Object::synthetic(&name, r, (256 + 64 * (r % 4)) << 10, "avi");
    let op = home.store_object(at(0), obj, StorePolicy::MandatoryFirst, true);
    home.run_until_complete(op).expect_ok();
    let op = home.fetch_object(at(2), &name);
    home.run_until_complete(op).expect_ok();
    let op = home.process_object(
        at(4),
        &name,
        ServiceKind::Transcode,
        RoutePolicy::Performance,
    );
    home.run_until_complete(op).expect_ok();
    3
}

#[test]
#[ignore = "captures a stack per allocation; run by hand, see the module docs"]
fn allocation_census_of_the_paper_testbed() {
    const IDLE: Duration = Duration::from_secs(600);
    let mut home = warmed_testbed();
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
    let mut home = warmed_testbed();
    for r in 0..WARM_ROUNDS {
        round(&mut home, r);
    }
    let (ops, stacks) = census(|| {
        (WARM_ROUNDS..WARM_ROUNDS + ROUNDS)
            .map(|r| round(&mut home, r))
            .sum::<u64>()
    });
    print_table(
        "store/fetch/process loop (recording off)",
        &stacks,
        ops,
        "op",
    );
    assert!(!stacks.is_empty(), "the census captured nothing");
}
