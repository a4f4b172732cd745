//! Shared helpers for the Cloud4Home experiment harness.
//!
//! Every paper table and figure has a dedicated bench target under
//! `benches/` (run with `cargo bench -p c4h-bench --bench <name>`); this
//! library holds the statistics and scheduling utilities they share.

use std::alloc::{GlobalAlloc, Layout, System};
use std::backtrace::Backtrace;
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use c4h_chimera::ChimeraNode;
use c4h_simnet::SimTime;
use c4h_workloads::TraceConfig;
use cloud4home::{
    Cloud4Home, Config, NodeId, NodeSpec, Object, OpId, OpReport, RoutePolicy, ServiceKind,
    StorePolicy,
};

mod profile;
mod report;

pub use profile::{sample_profile, FrameShare, Profile};
pub use report::{BenchReport, JsonVal};

static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// A counting wrapper around the system allocator.
///
/// Install it in a bench binary with
/// `#[global_allocator] static ALLOC: CountingAlloc = CountingAlloc;`
/// and bracket the measured region with [`allocations`] to count how many
/// heap acquisitions it performed. Counts allocations and reallocations
/// (the events a steady-state hot path must not produce); frees are not
/// counted. Relaxed ordering is fine — the benches are single-threaded
/// and only need a consistent total at the two read points. Inside a
/// [`census`] window it also records where each allocation came from.
pub struct CountingAlloc;

// SAFETY: delegates every operation unchanged to `System`; the counter
// update and the census capture have no effect on the returned memory. The
// capture allocates through this allocator again, but only once per
// outer call (`IN_CENSUS` turns the nested calls into plain delegation),
// and it does not panic: a poisoned stack lock skips the push.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        census_note();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        census_note();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Total heap acquisitions (alloc + realloc) since process start, as seen
/// by [`CountingAlloc`]. Always zero unless the binary installed it as the
/// global allocator.
pub fn allocations() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Whether a [`census`] window is open.
static CENSUS_OPEN: AtomicBool = AtomicBool::new(false);

/// The stacks a [`census`] window captured, one per allocation.
static CENSUS_STACKS: Mutex<Vec<Backtrace>> = Mutex::new(Vec::new());

thread_local! {
    /// Set while this thread captures a stack: the capture allocates
    /// itself, and those allocations are the census's, not the program's.
    static IN_CENSUS: Cell<bool> = const { Cell::new(false) };
}

/// Captures the current stack into the open census window, if any.
fn census_note() {
    if !CENSUS_OPEN.load(Ordering::Relaxed) {
        return;
    }
    IN_CENSUS.with(|busy| {
        if busy.replace(true) {
            return;
        }
        let stack = Backtrace::force_capture();
        // A poisoned lock means the census's owner panicked; the stack is
        // dropped rather than panicking inside the allocator.
        if let Ok(mut stacks) = CENSUS_STACKS.lock() {
            stacks.push(stack);
        }
        busy.set(false);
    });
}

/// Runs `f` with an allocation census open and returns its result with
/// one captured stack per heap acquisition (alloc or realloc) `f` made.
/// Only binaries that install [`CountingAlloc`] capture anything. Stacks
/// are captured unresolved; formatting one resolves its symbols.
pub fn census<R>(f: impl FnOnce() -> R) -> (R, Vec<Backtrace>) {
    let lock = || CENSUS_STACKS.lock().expect("no census window panicked");
    lock().clear();
    CENSUS_OPEN.store(true, Ordering::Relaxed);
    let out = f();
    CENSUS_OPEN.store(false, Ordering::Relaxed);
    let stacks = std::mem::take(&mut *lock());
    (out, stacks)
}

/// Sample mean and (population) standard deviation.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn mean_std(xs: &[f64]) -> (f64, f64) {
    assert!(!xs.is_empty(), "mean_std of empty sample");
    let n = xs.len() as f64;
    let mean = xs.iter().sum::<f64>() / n;
    let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n;
    (mean, var.sqrt())
}

/// Runs the simulation until any of `pending` completes; returns its index
/// and report.
///
/// Used by closed-loop multi-stream workloads (Figure 6's client threads):
/// each completion immediately triggers the stream's next request.
///
/// # Panics
///
/// Panics if `pending` is empty or the simulation stalls.
pub fn run_until_any(home: &mut Cloud4Home, pending: &[OpId]) -> (usize, OpReport) {
    assert!(!pending.is_empty(), "no pending operations");
    loop {
        for (i, &op) in pending.iter().enumerate() {
            if let Some(r) = home.take_report(op) {
                return (i, r);
            }
        }
        home.run_for(Duration::from_millis(200));
    }
}

/// Delivers overlay envelopes between `nodes` directly — no network model,
/// virtual time held at zero — until none has anything left to send.
/// Envelopes addressed outside `nodes` are dropped.
pub fn pump_overlay(nodes: &mut [ChimeraNode]) {
    loop {
        let mut moved = false;
        for i in 0..nodes.len() {
            while let Some(env) = nodes[i].poll_send() {
                moved = true;
                if let Some(j) = nodes.iter().position(|n| n.id() == env.to) {
                    nodes[j].handle(env, SimTime::ZERO);
                }
            }
        }
        if !moved {
            return;
        }
    }
}

/// The world of the `neighborhood-1k` benchmark workload at `nodes` nodes:
/// netbooks on one LAN and a desktop gateway offering transcoding, leaf
/// sets of 2 per side, objects replicated twice. `Cloud4Home::new` on it
/// is the protocol join the workload pays in its set-up.
pub fn neighborhood_config(nodes: usize, seed: u64) -> Config {
    let mut config = Config::paper_testbed(seed);
    config.chimera.leaf_size = 2;
    config.replication = 2;
    config.nodes.clear();
    for i in 0..nodes - 1 {
        config.nodes.push(NodeSpec::netbook(&format!("nb-{i:03}")));
    }
    config
        .nodes
        .push(NodeSpec::desktop("nb-gateway").with_services(&[ServiceKind::Transcode]));
    config
}

/// The trace shape of the `testbed-trace` benchmark workload: the paper's
/// reshaped eDonkey trace (6 clients, 1 300 Zipf-popular files, 60 %
/// stores) over `ops` operations, files of 64 KiB-4 MiB, no think time.
pub fn testbed_trace_config(ops: usize) -> TraceConfig {
    let mut tc = TraceConfig::paper_default(ops);
    tc.size_override = Some((64 << 10, 4 << 20));
    tc.mean_think = Duration::ZERO;
    tc
}

/// The paper testbed after a minute of virtual time, with tracing and the
/// causal ledger both on or both off.
pub fn warmed_testbed(recording: bool) -> Cloud4Home {
    let mut home = Cloud4Home::new(Config::paper_testbed(2011));
    home.set_tracing(recording);
    home.set_ledger(recording);
    home.run_for(Duration::from_secs(60));
    home
}

/// One round of a store/fetch/process loop on the testbed: a store, a
/// fetch and a process of a fresh object, each from a different node.
/// Returns the ops it ran.
pub fn testbed_round(home: &mut Cloud4Home, r: u64) -> u64 {
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

/// Formats a duration in milliseconds with fixed width.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Prints the standard experiment banner.
pub fn banner(id: &str, paper: &str) {
    println!("==================================================================");
    println!("{id}: {paper}");
    println!("==================================================================");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_std_basics() {
        let (m, s) = mean_std(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert!((m - 5.0).abs() < 1e-9);
        assert!((s - 2.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "empty sample")]
    fn mean_std_rejects_empty() {
        mean_std(&[]);
    }

    #[test]
    fn ms_converts() {
        assert_eq!(ms(Duration::from_millis(250)), 250.0);
    }
}
