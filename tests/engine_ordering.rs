//! Regression tests for completion-vs-event interleaving at equal
//! timestamps — the ordering hazard class PR 6 fixed (flow completions
//! surfacing at queue-event instants).
//!
//! The three `drain_net()` call sites (`run_for`, `step`'s two branches)
//! all promise: a flow completion landing at the same virtual instant as
//! queued events is routed to its waiter at that instant, never stranded,
//! and the interleaving is identical under the same seed. These tests drive the paths hard — pipelined chunked
//! transfers make same-instant collisions routine because every chunk
//! boundary is a completion that can coincide with `OpSubWake`/`Tick`
//! events — and pin both liveness (no stalled waiter panics) and byte
//! determinism. The surgical single-instant ordering pin lives as a unit
//! test in `cloud4home::runtime` where the queue and flow engine are
//! directly reachable.

use std::time::Duration;

use cloud4home::{Cloud4Home, Config, NodeId, Object, OpId, StorePolicy};

/// Chunked, replicated, striped: maximal concurrent-completion pressure.
fn collision_config(seed: u64) -> Config {
    let mut config = Config::paper_testbed(seed);
    config.tracing = true;
    config.chunk_bytes = 32 << 10; // many chunk-completion instants
    config.chunk_window = 4;
    config.replication = 3;
    config.replica_quorum = 2; // stragglers detach to background flows
    config.fetch_sources = 3; // striped reads: concurrent sub-flows
    config
}

/// Launches a wave of overlapping stores and fetches without draining
/// between submissions, so dozens of flows are concurrently in flight.
fn stampede(home: &mut Cloud4Home) -> Vec<OpId> {
    let n = home.node_count();
    let mut ops = Vec::new();
    for i in 0..10u64 {
        let name = format!("collide/{i}.bin");
        let obj = Object::synthetic(&name, 7 + i, (96 + 32 * (i % 4)) << 10, "doc");
        ops.push(home.store_object(NodeId(i as usize % n), obj, StorePolicy::ForceHome, true));
    }
    // Overlap the stores with time-sliced progress, then pile fetches on
    // top while replica fan-out stragglers are still landing.
    home.run_for(Duration::from_millis(350));
    for i in 0..10u64 {
        let name = format!("collide/{i}.bin");
        ops.push(home.fetch_object(NodeId((i as usize + 2) % n), &name));
    }
    ops
}

/// Liveness: every waiter is continued even when chunk completions collide
/// with queued events at equal instants. A dropped completion would strand
/// an op and `run_until_complete`/`run_until_idle` would panic ("simulation
/// stalled").
#[test]
fn chunked_stampede_strands_no_waiters() {
    let mut home = Cloud4Home::new(collision_config(4242));
    let ops = stampede(&mut home);
    for op in ops {
        let report = home.run_until_complete(op);
        report.expect_ok();
    }
    home.run_until_idle();
    let stats = home.stats();
    assert!(
        stats.chunked_transfers > 0,
        "the workload must actually exercise chunk pipelining: {stats:?}"
    );
    assert!(
        stats.replicas_written > 0,
        "the workload must actually fan out replicas: {stats:?}"
    );
}

/// Determinism: the interleaving of same-instant completions and events is
/// a function of the seed alone — two runs agree on every exported byte.
#[test]
fn same_instant_interleaving_is_deterministic() {
    let run = || {
        let mut home = Cloud4Home::new(collision_config(77));
        let ops = stampede(&mut home);
        for op in ops {
            home.run_until_complete(op).expect_ok();
        }
        home.run_until_idle();
        (
            home.now(),
            format!("{:?}", home.stats()),
            home.metrics_json(),
        )
    };
    let (now_a, stats_a, metrics_a) = run();
    let (now_b, stats_b, metrics_b) = run();
    assert_eq!(now_a, now_b, "virtual end times diverged");
    assert_eq!(stats_a, stats_b, "stats diverged");
    assert!(metrics_a == metrics_b, "metrics exports diverged");
}
