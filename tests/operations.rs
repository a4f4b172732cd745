//! Operation-semantics integration tests: cost breakdowns, processing
//! placement, concurrency, and the paper's fetch+process short-circuits.

use std::time::Duration;

use cloud4home::{
    Cloud4Home, Config, NodeId, Object, OpError, Placement, RoutePolicy, ServiceKind, StorePolicy,
};

fn testbed(seed: u64) -> Cloud4Home {
    Cloud4Home::new(Config::paper_testbed(seed))
}

/// Stores an object on a specific home node by making it the client with a
/// roomy mandatory bin (the default testbed nodes have space).
fn store_home(home: &mut Cloud4Home, client: usize, name: &str, bytes: u64, seed: u64) {
    let obj = Object::synthetic(name, seed, bytes, "jpeg");
    let op = home.store_object(NodeId(client), obj, StorePolicy::ForceHome, true);
    home.run_until_complete(op).expect_ok();
}

#[test]
fn fetch_breakdown_has_table1_components() {
    let mut home = testbed(20);
    store_home(&mut home, 1, "t1/obj.bin", 5 << 20, 1);
    let op = home.fetch_object(NodeId(2), "t1/obj.bin");
    let r = home.run_until_complete(op);
    r.expect_ok();
    let b = r.breakdown;
    assert!(b.inter_node > Duration::ZERO, "remote fetch moves bytes");
    assert!(b.inter_domain > Duration::ZERO, "XenSocket charged");
    assert!(b.dht > Duration::ZERO, "metadata lookup charged");
    assert!(b.disk > Duration::ZERO, "owner disk read charged");
    assert!(
        b.accounted() <= r.total(),
        "components fit inside the total"
    );
}

#[test]
fn dht_lookup_cost_is_roughly_constant_across_sizes() {
    let mut home = testbed(21);
    let mut lookups = Vec::new();
    for (i, mb) in [1u64, 10, 50].into_iter().enumerate() {
        let name = format!("t2/{mb}.bin");
        store_home(&mut home, 1, &name, mb << 20, i as u64);
        let op = home.fetch_object(NodeId(2), &name);
        let r = home.run_until_complete(op);
        r.expect_ok();
        lookups.push(r.breakdown.dht);
    }
    let min = lookups.iter().min().unwrap();
    let max = lookups.iter().max().unwrap();
    assert!(
        max.as_millis() <= min.as_millis() + 20,
        "DHT lookups should not scale with object size: {lookups:?}"
    );
}

#[test]
fn process_auto_picks_the_desktop_for_midsize_images() {
    let mut home = testbed(24);
    store_home(&mut home, 0, "t5/img.jpg", 1 << 20, 1);
    let op = home.process_object(
        NodeId(0),
        "t5/img.jpg",
        ServiceKind::FaceDetect,
        RoutePolicy::Performance,
    );
    let r = home.run_until_complete(op);
    let out = r.expect_ok();
    assert_eq!(out.exec_target.as_deref(), Some("desktop"));
    assert!(
        r.breakdown.decision > Duration::ZERO,
        "decision time charged"
    );
    assert!(r.breakdown.exec > Duration::ZERO);
    assert!(out.summary.is_some());
}

#[test]
fn fetch_and_process_short_circuits_to_capable_requester() {
    let mut home = testbed(26);
    // netbook-0 provides the surveillance services in the paper testbed.
    store_home(&mut home, 2, "t7/img.jpg", 256 << 10, 1);
    let op = home.fetch_and_process(
        NodeId(0),
        "t7/img.jpg",
        ServiceKind::FaceRecognize,
        RoutePolicy::Performance,
    );
    let r = home.run_until_complete(op);
    let out = r.expect_ok();
    assert_eq!(
        out.exec_target.as_deref(),
        Some("netbook-0"),
        "the requesting node is capable and must run the service itself"
    );
    // The short-circuit skips the resource-query decision.
    assert!(r.breakdown.decision < Duration::from_millis(50));
}

#[test]
fn fetch_and_process_falls_back_to_capable_owner() {
    let mut home = testbed(27);
    // Owner = desktop (capable); requester = netbook-2 (no services).
    store_home(&mut home, 5, "t8/img.jpg", 256 << 10, 1);
    let op = home.fetch_and_process(
        NodeId(2),
        "t8/img.jpg",
        ServiceKind::FaceDetect,
        RoutePolicy::Performance,
    );
    let r = home.run_until_complete(op);
    let out = r.expect_ok();
    assert_eq!(out.exec_target.as_deref(), Some("desktop"));
}

#[test]
fn process_without_any_provider_fails() {
    let mut config = Config::paper_testbed(28);
    for n in &mut config.nodes {
        n.services.clear();
    }
    config.cloud.as_mut().unwrap().services.clear();
    let mut home = Cloud4Home::new(config);
    store_home(&mut home, 0, "t9/img.jpg", 1 << 20, 1);
    let op = home.process_object(
        NodeId(0),
        "t9/img.jpg",
        ServiceKind::FaceDetect,
        RoutePolicy::Performance,
    );
    let r = home.run_until_complete(op);
    assert!(matches!(r.outcome, Err(OpError::ServiceUnavailable(_))));
}

#[test]
fn cloud_only_service_executes_in_the_cloud() {
    let mut config = Config::paper_testbed(29);
    for n in &mut config.nodes {
        n.services.clear();
    }
    let mut home = Cloud4Home::new(config);
    store_home(&mut home, 0, "t10/img.jpg", 512 << 10, 1);
    let op = home.process_object(
        NodeId(0),
        "t10/img.jpg",
        ServiceKind::FaceDetect,
        RoutePolicy::Performance,
    );
    let r = home.run_until_complete(op);
    let out = r.expect_ok();
    assert_eq!(out.exec_target.as_deref(), Some("cloud"));
}

#[test]
fn run_until_any_returns_the_first_completion_at_its_instant() {
    let mut home = testbed(31);
    store_home(&mut home, 1, "any/big.bin", 8 << 20, 1);
    store_home(&mut home, 2, "any/small.bin", 64 << 10, 2);
    let big = home.fetch_object(NodeId(3), "any/big.bin");
    let small = home.fetch_object(NodeId(4), "any/small.bin");

    let (idx, first) = home.run_until_any(&[big, small]);
    assert_eq!((idx, first.id), (1, small), "the small fetch lands first");
    assert_eq!(home.now(), first.completed, "seen at its own instant");
    assert!(home.take_report(small).is_none(), "the report was taken");

    let (idx, second) = home.run_until_any(&[big]);
    assert_eq!((idx, second.id), (0, big));
    assert_eq!(home.now(), second.completed);
    second.expect_ok();
}

#[test]
fn concurrent_lan_fetches_contend_for_bandwidth() {
    let mut home = testbed(30);
    store_home(&mut home, 1, "t11/a.bin", 20 << 20, 1);
    store_home(&mut home, 2, "t11/b.bin", 20 << 20, 2);

    // Solo baseline.
    let op = home.fetch_object(NodeId(3), "t11/a.bin");
    let solo = home.run_until_complete(op).total();

    // Two concurrent fetches crossing the same shared LAN segment.
    let op_a = home.fetch_object(NodeId(3), "t11/a.bin");
    let op_b = home.fetch_object(NodeId(4), "t11/b.bin");
    let t_a = home.run_until_complete(op_a).total();
    let t_b = home.run_until_complete(op_b).total();
    let slowest = t_a.max(t_b);
    assert!(
        slowest.as_secs_f64() > 1.3 * solo.as_secs_f64(),
        "two 20 MiB flows on a 95.5 Mbps LAN must contend: solo {solo:?}, concurrent {slowest:?}"
    );
}

#[test]
fn transcode_produces_smaller_output_and_reports_it() {
    let mut home = testbed(31);
    store_home(&mut home, 1, "t12/video.avi", 4 << 20, 1);
    let op = home.process_object(
        NodeId(1),
        "t12/video.avi",
        ServiceKind::Transcode,
        RoutePolicy::Performance,
    );
    let r = home.run_until_complete(op);
    let out = r.expect_ok();
    assert!(out.bytes < 4 << 20, "converted output is smaller");
    assert!(out.summary.as_deref().unwrap_or("").contains("converted"));
}

#[test]
fn loaded_node_slows_concurrent_execution() {
    let mut home = testbed(32);
    store_home(&mut home, 0, "t13/a.jpg", 1 << 20, 1);
    store_home(&mut home, 0, "t13/b.jpg", 1 << 20, 2);
    // Solo execution pinned at the desktop.
    let op = home.process_object_at(
        NodeId(0),
        "t13/a.jpg",
        ServiceKind::FaceDetect,
        Placement::Pin(NodeId(5)),
    );
    let solo = home.run_until_complete(op).breakdown.exec;
    // Two executions racing on the same node.
    let op_a = home.process_object_at(
        NodeId(0),
        "t13/a.jpg",
        ServiceKind::FaceDetect,
        Placement::Pin(NodeId(5)),
    );
    let op_b = home.process_object_at(
        NodeId(0),
        "t13/b.jpg",
        ServiceKind::FaceDetect,
        Placement::Pin(NodeId(5)),
    );
    let e_a = home.run_until_complete(op_a).breakdown.exec;
    let e_b = home.run_until_complete(op_b).breakdown.exec;
    assert!(
        e_a.max(e_b) > solo,
        "the second task must see a loaded node: solo {solo:?} vs {e_a:?}/{e_b:?}"
    );
}

#[test]
fn battery_saver_routes_away_from_netbooks() {
    let mut config = Config::paper_testbed(33);
    // Both a netbook and the desktop provide transcoding.
    config.nodes[0].services = vec![ServiceKind::Transcode];
    let mut home = Cloud4Home::new(config);
    store_home(&mut home, 0, "t14/video.avi", 2 << 20, 1);
    let op = home.process_object(
        NodeId(0),
        "t14/video.avi",
        ServiceKind::Transcode,
        RoutePolicy::BatterySaver,
    );
    let r = home.run_until_complete(op);
    let out = r.expect_ok();
    assert_eq!(
        out.exec_target.as_deref(),
        Some("desktop"),
        "battery saver avoids the battery-powered netbook"
    );
}

#[test]
fn process_on_cloud_stored_object_can_run_in_cloud_without_wan_movement() {
    let mut home = testbed(34);
    let obj = Object::synthetic("t15/big.avi", 1, 30 << 20, "avi");
    let op = home.store_object(NodeId(0), obj, StorePolicy::ForceCloud, true);
    home.run_until_complete(op).expect_ok();
    // For a 30 MiB object already in the cloud, processing at the cloud
    // avoids moving it back over the WAN: Auto must pick the cloud.
    let op = home.process_object(
        NodeId(0),
        "t15/big.avi",
        ServiceKind::Transcode,
        RoutePolicy::Performance,
    );
    let r = home.run_until_complete(op);
    let out = r.expect_ok();
    assert_eq!(out.exec_target.as_deref(), Some("cloud"));
    // Only the (smaller, transcoded) result crosses the WAN instead of the
    // full 30 MiB source — fetching the source home first would add ≈230 s
    // of WAN transfer before execution even starts.
    assert!(
        r.total().as_secs_f64() < 200.0,
        "processing in place avoids moving the source over the WAN: {:?}",
        r.total()
    );
}
