//! Shared helpers for the Cloud4Home experiment harness.
//!
//! Every paper table and figure has a dedicated bench target under
//! `benches/` (run with `cargo bench -p c4h-bench --bench <name>`); this
//! library holds the statistics and scheduling utilities they share.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use c4h_chimera::ChimeraNode;
use c4h_simnet::SimTime;
use cloud4home::{Cloud4Home, OpId, OpReport};

mod report;

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
/// and only need a consistent total at the two read points.
pub struct CountingAlloc;

// SAFETY: delegates every operation unchanged to `System`; the counter
// update has no effect on the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Total heap acquisitions (alloc + realloc) since process start, as seen
/// by [`CountingAlloc`]. Always zero unless the binary installed it as the
/// global allocator.
pub fn allocations() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
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
