//! Integration tests for the concurrent store data path: parallel replica
//! fan-out, quorum publishing with detached stragglers, chunked transfers,
//! and the capped fetch-retry backoff — plus the determinism guarantees
//! that must survive all of it.

use std::time::Duration;

use cloud4home::{Cloud4Home, Config, FaultEvent, FaultPlan, NodeId, Object, StorePolicy};

fn fanout_config(seed: u64) -> Config {
    let mut config = Config::paper_testbed(seed);
    config.replication = 4;
    config.tracing = true;
    config
}

/// Total object copies held across all nodes.
fn copies(home: &Cloud4Home) -> usize {
    (0..home.node_count())
        .map(|j| home.objects_on(NodeId(j)))
        .sum()
}

#[test]
fn replica_fanout_runs_in_parallel() {
    let mut home = Cloud4Home::new(fanout_config(70));
    let obj = Object::synthetic("fan/out.bin", 1, 8 << 20, "doc");
    let op = home.store_object(NodeId(1), obj, StorePolicy::ForceHome, true);
    let r = home.run_until_complete(op);
    r.expect_ok();
    assert_eq!(r.partial_replication, 0, "all peers were live");
    assert_eq!(copies(&home), 4, "primary + 3 replicas");
    assert_eq!(home.stats().replicas_written, 3);

    // The per-replica transfer sub-stages must overlap in virtual time:
    // the fan-out starts every replica flow at once, so with three flows
    // the spans cannot be disjoint.
    let snap = home.telemetry().snapshot();
    let flows: Vec<_> = snap
        .spans()
        .filter(|s| s.cat == "stage" && s.name == "store.replica_flow")
        .collect();
    assert_eq!(flows.len(), 3, "one transfer span per replica");
    for pair in flows.windows(2) {
        assert!(
            pair[0].start_ns < pair[1].end_ns && pair[1].start_ns < pair[0].end_ns,
            "replica flows must overlap: [{}, {}] vs [{}, {}]",
            pair[0].start_ns,
            pair[0].end_ns,
            pair[1].start_ns,
            pair[1].end_ns
        );
    }
    // And each flow span sits inside the single store.fanout stage span.
    let fanout = snap
        .spans()
        .find(|s| s.cat == "stage" && s.name == "store.fanout")
        .expect("fan-out stage span recorded");
    for f in &flows {
        assert!(f.start_ns >= fanout.start_ns && f.end_ns <= fanout.end_ns);
    }
}

#[test]
fn quorum_publish_detaches_stragglers_and_replicas_still_land() {
    let mut quorum = fanout_config(72);
    quorum.replica_quorum = 2;
    let mut home = Cloud4Home::new(quorum);
    let obj = Object::synthetic("quorum/big.bin", 3, 16 << 20, "doc");
    let op = home.store_object(NodeId(1), obj, StorePolicy::ForceHome, true);
    let r = home.run_until_complete(op);
    r.expect_ok();
    assert_eq!(home.stats().quorum_publishes, 1, "published at quorum");

    // The straggler replicas finish in the background and re-publish the
    // metadata with the full replica set.
    home.run_until_idle();
    assert_eq!(copies(&home), 4, "every replica lands eventually");
    assert_eq!(home.stats().replicas_written, 3);

    // Same store with quorum = all copies must not complete sooner.
    let mut home_all = Cloud4Home::new(fanout_config(72));
    let obj = Object::synthetic("quorum/big.bin", 3, 16 << 20, "doc");
    let op = home_all.store_object(NodeId(1), obj, StorePolicy::ForceHome, true);
    let all = home_all.run_until_complete(op);
    all.expect_ok();
    assert_eq!(home_all.stats().quorum_publishes, 0);
    assert!(
        r.total() <= all.total(),
        "quorum publish ({:?}) must not be slower than waiting for all ({:?})",
        r.total(),
        all.total()
    );
}

#[test]
fn chunked_transfers_account_every_byte() {
    let run = |chunk_bytes: u64| {
        let mut config = Config::paper_testbed(73);
        config.chunk_bytes = chunk_bytes;
        config.chunk_window = 4;
        config.tracing = true;
        let mut home = Cloud4Home::new(config);
        let obj = Object::synthetic("chunk/video.avi", 4, 4 << 20, "avi");
        let op = home.store_object(NodeId(1), obj, StorePolicy::ForceHome, true);
        assert_eq!(home.run_until_complete(op).expect_ok().bytes, 4 << 20);
        let op = home.fetch_object(NodeId(2), "chunk/video.avi");
        let fetched = home.run_until_complete(op);
        assert_eq!(fetched.expect_ok().bytes, 4 << 20);
        home
    };

    let chunked = run(256 << 10);
    assert!(
        chunked.stats().chunked_transfers >= 1,
        "transfers above the threshold must chunk: {:?}",
        chunked.stats()
    );
    // The transfer facade reports the whole object on one flow span, with
    // the pipelined chunk count alongside.
    let snap = chunked.telemetry().snapshot();
    let split = snap
        .spans()
        .find(|s| s.name == "net.flow" && s.arg("chunks").is_some())
        .expect("a chunked net.flow span");
    assert_eq!(split.arg("bytes").and_then(|v| v.as_u64()), Some(4 << 20));
    assert_eq!(
        split.arg("chunks").and_then(|v| v.as_u64()),
        Some((4u64 << 20).div_ceil(256 << 10))
    );
    let keys: Vec<&str> = split.args.iter().map(|(k, _)| *k).collect();
    assert_eq!(keys, ["src", "dst", "bytes", "chunks", "sent", "done"]);

    // Chunking must never change how many bytes the application sees.
    let plain = run(0);
    assert_eq!(plain.stats().chunked_transfers, 0);
    assert_eq!(copies(&plain), copies(&chunked));
}

#[test]
fn replica_crash_mid_fanout_degrades_gracefully() {
    let run = || {
        let mut config = Config::paper_testbed(74);
        config.replication = 3;
        let mut home = Cloud4Home::new(config);
        // 20 MiB keeps the replica flows in flight well past the crash.
        let obj = Object::synthetic("chaos/big.bin", 5, 20 << 20, "doc");
        let op = home.store_object(NodeId(1), obj, StorePolicy::ForceHome, true);
        // Advance until the fan-out's replica flows are actually on the
        // wire (the first flows this run starts), then kill a target.
        while home.stats().flows_started == 0 {
            home.run_for(Duration::from_millis(50));
        }
        // The desktop (largest voluntary bin) is always a replica target.
        home.crash_node(NodeId(5));
        let r = home.run_until_complete(op);
        (r, format!("{:?}", home.stats()))
    };

    let (r, stats) = run();
    r.expect_ok();
    assert!(r.failovers >= 1, "the severed replica flow is a failover");
    assert!(
        r.partial_replication >= 1,
        "the lost copy must be reported: {r:?}"
    );
    assert!(stats.contains("partial_replication: 1"), "stats: {stats}");

    // The same seed must deal the same crash outcome, byte for byte.
    let (r2, stats2) = run();
    assert_eq!(format!("{r:?}"), format!("{r2:?}"), "reports diverged");
    assert_eq!(stats, stats2, "stats diverged");
}

#[test]
fn store_records_partial_replication_when_peers_are_scarce() {
    let mut config = Config::paper_testbed(75);
    config.replication = 5;
    let mut home = Cloud4Home::new(config);
    // Four live nodes remain: a primary plus three peers for the four
    // requested replica copies.
    home.crash_node(NodeId(3));
    home.crash_node(NodeId(4));
    home.run_for(Duration::from_secs(12));

    let obj = Object::synthetic("scarce/x.bin", 6, 1 << 20, "doc");
    let op = home.store_object(NodeId(0), obj, StorePolicy::ForceHome, true);
    let r = home.run_until_complete(op);
    r.expect_ok();
    assert_eq!(
        r.partial_replication, 1,
        "5-way replication with 4 live nodes is short one copy: {r:?}"
    );
    assert_eq!(home.stats().partial_replication, 1);
}

#[test]
fn fetch_backoff_is_capped_under_long_partitions() {
    // Cut both holders off for 20 s. Uncapped exponential backoff would
    // keep doubling (…6.4 s, 12.8 s, 25.6 s) and could sleep far past the
    // heal; the 5 s cap bounds the post-heal delay to one jittered round.
    let mut config = Config::paper_testbed(76);
    config.replication = 2;
    let mut home = Cloud4Home::new(config);
    let obj = Object::synthetic("cap/big.bin", 7, 20 << 20, "doc");
    let op = home.store_object(NodeId(1), obj, StorePolicy::ForceHome, true);
    home.run_until_complete(op).expect_ok();
    assert_eq!(home.objects_on(NodeId(5)), 1, "replica on the desktop");

    let op = home.fetch_object(NodeId(0), "cap/big.bin");
    home.run_for(Duration::from_millis(500));
    home.apply_fault(FaultEvent::Partition(vec![vec![NodeId(1), NodeId(5)]]));
    home.inject_faults(FaultPlan::new().at(Duration::from_secs(20), FaultEvent::Heal));
    let r = home.run_until_complete(op);
    assert!(
        r.outcome.is_ok(),
        "fetch must outlast the cut: {:?}",
        r.outcome
    );
    assert!(
        r.total() > Duration::from_secs(20),
        "completed after the heal"
    );
    assert!(
        r.total() < Duration::from_secs(30),
        "capped backoff retries promptly after the heal, took {:?}",
        r.total()
    );
}

/// Two same-seed runs of a scenario exercising every new mechanism at once
/// — parallel fan-out, quorum publish, chunked transfers, and a mid-fan-out
/// crash — must export byte-identical traces and metrics.
#[test]
fn concurrent_data_path_is_byte_deterministic() {
    let run = || {
        let mut config = fanout_config(77);
        config.replica_quorum = 2;
        config.chunk_bytes = 512 << 10;
        let mut home = Cloud4Home::new(config);
        let mut ops = Vec::new();
        for i in 0..6u64 {
            let obj = Object::synthetic(&format!("det/{i}.bin"), i, (1 + i) << 20, "doc");
            ops.push(home.store_object(
                NodeId((i % 6) as usize),
                obj,
                StorePolicy::ForceHome,
                true,
            ));
        }
        home.run_for(Duration::from_millis(200));
        home.crash_node(NodeId(4));
        home.run_until_idle();
        for op in ops {
            home.take_report(op).expect("every store resolves");
        }
        for i in 0..6u64 {
            let op = home.fetch_object(NodeId((i as usize + 1) % 4), &format!("det/{i}.bin"));
            let _ = home.run_until_complete(op);
        }
        home
    };
    let a = run();
    let b = run();
    assert_eq!(a.now(), b.now(), "virtual clocks diverged");
    assert!(
        a.chrome_trace_json() == b.chrome_trace_json(),
        "Chrome traces differ between same-seed runs"
    );
    assert!(
        a.metrics_json() == b.metrics_json(),
        "metrics dumps differ between same-seed runs"
    );
}
