//! Integration tests for the striped multi-source fetch data path:
//! concurrent stripes pulled from several holders, bandwidth-ranked
//! candidate order, hedged tail requests, parallel cloud range reads,
//! mid-stripe holder loss, every recovery arm of the striped machine — and
//! the byte accounting and determinism guarantees that must survive all of
//! it. (The coded read's arms are in `adaptive_plane.rs`.)

use std::time::Duration;

use cloud4home::{Cloud4Home, Config, FaultEvent, NodeId, Object, OpError, StorePolicy};

fn striped_config(seed: u64, sources: usize) -> Config {
    let mut config = Config::paper_testbed(seed);
    config.replication = 3;
    config.fetch_sources = sources;
    config.fetch_hedge = 0.0;
    config.tracing = true;
    config
}

/// A node holding no copy of anything — a clean fetch client, so the
/// striping path is never short-circuited by a local disk read.
fn non_holder(home: &Cloud4Home) -> NodeId {
    (0..home.node_count())
        .map(NodeId)
        .find(|&id| home.objects_on(id) == 0)
        .expect("some node holds no copy")
}

/// The winning stripe spans as `(offset, bytes, src, start_ns, end_ns)`,
/// sorted by offset.
fn won_stripes(home: &Cloud4Home) -> Vec<(u64, u64, String, u64, u64)> {
    let snap = home.telemetry().snapshot();
    let mut out: Vec<_> = snap
        .spans()
        .filter(|s| s.cat == "stripe" && s.name == "fetch.stripe")
        .filter(|s| s.arg("won").and_then(|v| v.as_bool()) == Some(true))
        .map(|s| {
            (
                s.arg("offset").and_then(|v| v.as_u64()).expect("offset"),
                s.arg("bytes").and_then(|v| v.as_u64()).expect("bytes"),
                s.arg("src")
                    .and_then(|v| v.as_str())
                    .expect("src")
                    .to_owned(),
                s.start_ns,
                s.end_ns,
            )
        })
        .collect();
    out.sort();
    out
}

/// Asserts the winning stripes tile `[0, size)` exactly: contiguous
/// offsets, no overlap, no gap, no byte delivered twice.
fn assert_exact_coverage(stripes: &[(u64, u64, String, u64, u64)], size: u64) {
    let mut next = 0;
    for (offset, bytes, _, _, _) in stripes {
        assert_eq!(*offset, next, "stripes must tile the object: {stripes:?}");
        next += bytes;
    }
    assert_eq!(next, size, "stripes must cover every byte: {stripes:?}");
}

#[test]
fn striped_fetch_pulls_stripes_concurrently_and_accounts_every_byte() {
    let mut home = Cloud4Home::new(striped_config(80, 3));
    let size = 24 << 20;
    let obj = Object::synthetic("stripe/big.avi", 1, size, "avi");
    let op = home.store_object(NodeId(1), obj, StorePolicy::ForceHome, true);
    home.run_until_complete(op).expect_ok();
    home.run_until_idle();

    let client = non_holder(&home);
    let op = home.fetch_object(client, "stripe/big.avi");
    let r = home.run_until_complete(op);
    assert_eq!(r.expect_ok().bytes, size);
    assert_eq!(home.stats().striped_fetches, 1);
    assert_eq!(home.stats().hedged_fetches, 0, "hedging disabled");

    // One winning span per stripe, each from a different holder, jointly
    // covering the object exactly once.
    let stripes = won_stripes(&home);
    assert_eq!(stripes.len(), 3, "one span per stripe: {stripes:?}");
    assert_exact_coverage(&stripes, size);
    let mut srcs: Vec<&str> = stripes.iter().map(|s| s.2.as_str()).collect();
    srcs.dedup();
    assert_eq!(srcs.len(), 3, "each stripe has its own source: {srcs:?}");

    // The concurrency proof: all three transfers overlap in virtual time.
    for pair in stripes.windows(2) {
        assert!(
            pair[0].3 < pair[1].4 && pair[1].3 < pair[0].4,
            "stripes must overlap: {stripes:?}"
        );
    }

    // A single-source fetch of the same object moves the same bytes.
    let mut single = Cloud4Home::new(striped_config(80, 1));
    let obj = Object::synthetic("stripe/big.avi", 1, size, "avi");
    let op = single.store_object(NodeId(1), obj, StorePolicy::ForceHome, true);
    single.run_until_complete(op).expect_ok();
    single.run_until_idle();
    let op = single.fetch_object(client, "stripe/big.avi");
    assert_eq!(single.run_until_complete(op).expect_ok().bytes, size);
    assert_eq!(single.stats().striped_fetches, 0);
}

#[test]
fn cloud_striping_fills_the_wan_pipe() {
    // The WAN downlink fits ~3.7 per-flow TCP streams, so three parallel
    // range reads of the same S3 object finish close to 3× sooner than
    // one monolithic flow — the acceptance headline for striped fetches.
    let fetch_secs = |sources: usize| {
        let mut config = Config::paper_testbed(81);
        config.fetch_sources = sources;
        let mut home = Cloud4Home::new(config);
        let obj = Object::synthetic("wan/archive.zip", 2, 4 << 20, "doc");
        let op = home.store_object(NodeId(1), obj, StorePolicy::ForceCloud, true);
        home.run_until_complete(op).expect_ok();
        let op = home.fetch_object(NodeId(2), "wan/archive.zip");
        let r = home.run_until_complete(op);
        let out = r.expect_ok();
        assert_eq!(out.bytes, 4 << 20);
        assert!(out.via_cloud, "the object lives in the cloud");
        assert_eq!(
            home.stats().striped_fetches,
            u64::from(sources > 1),
            "cloud fetches stripe exactly when sources allow"
        );
        r.total()
    };
    let single = fetch_secs(1);
    let striped = fetch_secs(3);
    assert!(
        striped.as_secs_f64() < single.as_secs_f64() * 0.55,
        "3 range reads took {striped:?}, expected well under half of {single:?}"
    );
}

#[test]
fn hedged_stripe_races_without_duplicating_bytes() {
    // Two stripes across two of the three holders leave the third idle;
    // an aggressive hedging threshold re-issues the tail stripe there as
    // soon as the first stripe lands, and the copies race.
    let mut config = striped_config(82, 2);
    config.fetch_hedge = 0.01;
    let mut home = Cloud4Home::new(config);
    let size = 48 << 20;
    let obj = Object::synthetic("hedge/big.avi", 3, size, "avi");
    let op = home.store_object(NodeId(1), obj, StorePolicy::ForceHome, true);
    home.run_until_complete(op).expect_ok();
    home.run_until_idle();

    let client = non_holder(&home);
    let op = home.fetch_object(client, "hedge/big.avi");
    let r = home.run_until_complete(op);
    assert_eq!(r.expect_ok().bytes, size);
    assert_eq!(home.stats().striped_fetches, 1);
    assert!(
        home.stats().hedged_fetches >= 1,
        "the tail stripe must hedge: {:?}",
        home.stats()
    );
    let snap = home.telemetry().snapshot();
    assert!(
        snap.instants().any(|i| i.name == "fetch.hedge"),
        "hedges leave an instant in the trace"
    );

    // Whoever won each race, the winning spans still tile the object
    // exactly — the losing copy is cancelled, never delivered twice.
    let stripes = won_stripes(&home);
    assert_eq!(stripes.len(), 2, "one winner per stripe: {stripes:?}");
    assert_exact_coverage(&stripes, size);
}

#[test]
fn mid_stripe_holder_crash_reassigns_only_that_stripe() {
    let mut home = Cloud4Home::new(striped_config(83, 3));
    let size = 24 << 20;
    let obj = Object::synthetic("crash/big.avi", 4, size, "avi");
    let op = home.store_object(NodeId(1), obj, StorePolicy::ForceHome, true);
    home.run_until_complete(op).expect_ok();
    home.run_until_idle();
    assert_eq!(home.objects_on(NodeId(5)), 1, "replica on the desktop");

    let client = non_holder(&home);
    let before = home.stats().flows_started;
    let op = home.fetch_object(client, "crash/big.avi");
    // Advance until all three stripe transfers are on the wire, then kill
    // one of the serving holders.
    while home.stats().flows_started < before + 3 {
        home.run_for(Duration::from_millis(20));
    }
    home.crash_node(NodeId(5));
    let r = home.run_until_complete(op);
    assert_eq!(r.expect_ok().bytes, size, "fetch survives the crash");
    assert!(r.failovers >= 1, "the lost stripe is a failover: {r:?}");

    let snap = home.telemetry().snapshot();
    assert!(
        snap.instants().any(|i| i.name == "fetch.stripe_reassign"),
        "the reassignment must be visible in the trace"
    );
    // The severed transfer leaves a lost span; the winners still cover
    // the object exactly despite the mid-flight source change.
    assert!(
        snap.spans()
            .any(|s| s.name == "fetch.stripe"
                && s.arg("won").and_then(|v| v.as_bool()) == Some(false)),
        "the severed stripe leaves a lost span"
    );
    assert_exact_coverage(&won_stripes(&home), size);
}

#[test]
fn ranking_demotes_dead_primary_even_for_single_source_fetches() {
    // fetch_sources = 1: no striping, but candidates are still ranked, so
    // a fetch never wastes a round on a holder known to be dead — and the
    // redirect is still counted and traced as a failover.
    let mut config = Config::paper_testbed(84);
    config.replication = 2;
    config.tracing = true;
    let mut home = Cloud4Home::new(config);
    let obj = Object::synthetic("rank/doc.pdf", 5, 2 << 20, "doc");
    let op = home.store_object(NodeId(1), obj, StorePolicy::ForceHome, true);
    home.run_until_complete(op).expect_ok();
    home.run_until_idle();

    home.crash_node(NodeId(1)); // the primary
    let client = non_holder(&home);
    let op = home.fetch_object(client, "rank/doc.pdf");
    let r = home.run_until_complete(op);
    assert_eq!(r.expect_ok().bytes, 2 << 20);
    assert!(r.failovers >= 1, "skipping the dead primary counts: {r:?}");

    let snap = home.telemetry().snapshot();
    let order = snap
        .instants()
        .filter(|i| i.name == "fetch.rank")
        .filter_map(|i| i.arg("order").and_then(|v| v.as_str()))
        .last()
        .expect("ranked fetches leave a fetch.rank instant")
        .to_owned();
    assert!(
        !order.starts_with("netbook-1"),
        "the dead primary must not rank first: {order}"
    );
    assert!(
        snap.instants().any(|i| i.name == "fetch.failover"
            && i.arg("skipped").and_then(|v| v.as_str()) == Some("netbook-1")),
        "the demoted primary is traced as the skipped holder"
    );
}

/// Two same-seed runs of a scenario exercising striping, hedging, chunked
/// stripe transfers, and a mid-fetch crash must export byte-identical
/// traces and metrics.
#[test]
fn striped_fetches_are_byte_deterministic() {
    let run = || {
        let mut config = striped_config(85, 3);
        config.fetch_hedge = 0.01;
        config.chunk_bytes = 512 << 10;
        let mut home = Cloud4Home::new(config);
        for i in 0..4u64 {
            let obj = Object::synthetic(&format!("det/{i}.bin"), i, (4 + i) << 20, "doc");
            let op = home.store_object(NodeId((i % 3) as usize), obj, StorePolicy::ForceHome, true);
            home.run_until_complete(op).expect_ok();
        }
        home.run_until_idle();
        let mut ops = Vec::new();
        for i in 0..4u64 {
            ops.push(home.fetch_object(NodeId(4), &format!("det/{i}.bin")));
        }
        home.run_for(Duration::from_millis(400));
        home.crash_node(NodeId(5));
        home.run_until_idle();
        for op in ops {
            let _ = home.take_report(op).expect("every fetch resolves");
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

// ----------------------------------------------------------------------
// Recovery arms of the striped machine, at the public surface. Each ends
// with the transfers settled: a flow that outlives the fetch that started
// it is a leak.
// ----------------------------------------------------------------------

/// Stores a 24 MiB object on three holders and returns a client that holds
/// no copy, so its fetch stripes across all three.
fn three_holders(home: &mut Cloud4Home, name: &str) -> NodeId {
    let obj = Object::synthetic(name, 6, 24 << 20, "avi");
    let op = home.store_object(NodeId(1), obj, StorePolicy::ForceHome, true);
    home.run_until_complete(op).expect_ok();
    home.run_until_idle();
    non_holder(home)
}

/// The nodes holding a copy of the one stored object.
fn holders(home: &Cloud4Home) -> Vec<NodeId> {
    (0..home.node_count())
        .map(NodeId)
        .filter(|&id| home.objects_on(id) == 1)
        .collect()
}

/// Steps virtual time in 5 ms polls until `flows` more transfers than
/// `before` are on the wire.
fn run_until_flows(home: &mut Cloud4Home, before: u64, flows: u64) {
    while home.stats().flows_started < before + flows {
        home.run_for(Duration::from_millis(5));
    }
}

fn has_instant(home: &Cloud4Home, name: &str) -> bool {
    home.telemetry()
        .snapshot()
        .instants()
        .any(|i| i.name == name)
}

fn has_stage_span(home: &Cloud4Home, name: &str) -> bool {
    home.telemetry()
        .snapshot()
        .spans()
        .any(|s| s.cat == "stage" && s.name == name)
}

/// Nothing the fetch started is still in flight: the flow engine settled
/// every transfer it began, and the gauge row `run_until_idle` flushes at
/// quiescence shows an empty flow table.
fn assert_no_flow_leaked(home: &mut Cloud4Home) {
    home.run_until_idle();
    let fc = home.flow_counters();
    assert_eq!(
        fc.started,
        fc.completed + fc.canceled,
        "a transfer is still in the flow engine: {fc:?}"
    );
    let snap = home.telemetry().snapshot();
    for gauge in ["runtime.flows_inflight", "runtime.background_jobs"] {
        let (_, last) = snap
            .series
            .get(gauge)
            .and_then(|s| s.last())
            .unwrap_or_else(|| panic!("no sample of `{gauge}`"));
        assert_eq!(last, 0, "`{gauge}` must read 0 at idle");
    }
}

/// Every source of a home-striped read dies while its stripes are on the
/// wire: the last loss finds no holder to re-issue to, the plan is dropped
/// and the fetch falls back to the capped retry path — where a holder that
/// comes back serves it.
#[test]
fn losing_every_stripe_source_falls_back_to_the_retry_path() {
    let mut home = Cloud4Home::new(striped_config(86, 3));
    let client = three_holders(&mut home, "lost/all.avi");
    let sources = holders(&home);
    assert_eq!(sources.len(), 3);

    let before = home.stats().flows_started;
    let op = home.fetch_object(client, "lost/all.avi");
    run_until_flows(&mut home, before, 3);
    for &id in &sources {
        home.crash_node(id);
    }
    home.run_for(Duration::from_millis(200));
    assert!(
        home.take_report(op).is_none(),
        "a replicated object backs off instead of failing"
    );
    home.rejoin_node(sources[0]).expect("live seed exists");
    let r = home.run_until_complete(op);
    assert_eq!(r.expect_ok().bytes, 24 << 20);
    assert!(r.failovers >= 3, "each lost source is a failover: {r:?}");
    assert!(has_instant(&home, "fetch.stripe_reassign"));
    assert!(
        has_stage_span(&home, "fetch.retry_wait"),
        "the fetch must have waited on the retry path"
    );
    assert_no_flow_leaked(&mut home);
}

/// A holder dies after a stripe's control request went out but before it
/// completes (the holder's disk read is still in progress, no transfer has
/// started): only that stripe is re-issued.
#[test]
fn holder_death_before_its_stripe_starts_reissues_the_request() {
    let mut home = Cloud4Home::new(striped_config(87, 3));
    let client = three_holders(&mut home, "early/big.avi");
    let victim = *holders(&home).last().expect("three holders");

    let before = home.stats().flows_started;
    let op = home.fetch_object(client, "early/big.avi");
    while !has_instant(&home, "fetch.stripe_plan") {
        home.run_for(Duration::from_millis(1));
    }
    assert_eq!(
        home.stats().flows_started,
        before,
        "the holders are still reading: no stripe is on the wire yet"
    );
    home.crash_node(victim);
    let r = home.run_until_complete(op);
    assert_eq!(r.expect_ok().bytes, 24 << 20);
    assert_eq!(r.failovers, 1, "{r:?}");
    let snap = home.telemetry().snapshot();
    let why = snap
        .instants()
        .find(|i| i.name == "fetch.stripe_reassign")
        .and_then(|i| i.arg("why").and_then(|v| v.as_str()))
        .expect("the re-issue is traced");
    assert_eq!(why, "holder lost before serving stripe");
    assert_exact_coverage(&won_stripes(&home), 24 << 20);
    assert_no_flow_leaked(&mut home);
}

/// Cloud range reads have one source: a partition that cuts the gateway
/// (and the uplink with it) fails the fetch, and the sibling ranges are
/// cancelled with the severed one.
#[test]
fn partitioned_gateway_fails_cloud_range_reads_without_a_leak() {
    let mut config = Config::paper_testbed(88);
    config.fetch_sources = 3;
    config.tracing = true;
    let mut home = Cloud4Home::new(config);
    let obj = Object::synthetic("wan/cut.zip", 7, 4 << 20, "doc");
    let op = home.store_object(NodeId(1), obj, StorePolicy::ForceCloud, true);
    home.run_until_complete(op).expect_ok();
    let gateway = home.gateway().expect("the testbed has a gateway");
    let client = NodeId(2);
    assert_ne!(client, gateway);

    let before = home.stats().flows_started;
    let op = home.fetch_object(client, "wan/cut.zip");
    run_until_flows(&mut home, before, 3);
    home.apply_fault(FaultEvent::Partition(vec![vec![gateway]]));
    let r = home.run_until_complete(op);
    assert!(
        matches!(r.outcome, Err(OpError::OwnerUnreachable(_))),
        "{r:?}"
    );
    let lost = home
        .telemetry()
        .snapshot()
        .spans()
        .filter(|s| s.name == "fetch.stripe")
        .filter(|s| s.arg("won").and_then(|v| v.as_bool()) == Some(false))
        .count();
    assert_eq!(lost, 3, "every range read ends as a lost span");
    home.apply_fault(FaultEvent::Heal);
    assert_no_flow_leaked(&mut home);
}

/// The client crashes with three stripes inbound: the fetch fails (nobody
/// is left to recover for) and every stripe transfer is cancelled with it.
#[test]
fn client_crash_mid_striped_fetch_cancels_every_stripe() {
    let mut home = Cloud4Home::new(striped_config(89, 3));
    let client = three_holders(&mut home, "gone/client.avi");

    let before = home.stats().flows_started;
    let op = home.fetch_object(client, "gone/client.avi");
    run_until_flows(&mut home, before, 3);
    let canceled = home.flow_counters().canceled;
    home.crash_node(client);
    let r = home.take_report(op).expect("the crash resolves the fetch");
    assert!(
        matches!(r.outcome, Err(OpError::OwnerUnreachable(_))),
        "{r:?}"
    );
    assert_eq!(home.flow_counters().canceled, canceled + 3);
    assert_no_flow_leaked(&mut home);
}

/// The object is deleted under a striped read: the stripes still land, but
/// no holder is left to stage the bytes from. The fetch falls back to the
/// retry path instead of handing out nothing, and resolves by its deadline.
#[test]
fn delete_under_a_striped_read_falls_back_instead_of_panicking() {
    let mut home = Cloud4Home::new(striped_config(90, 3));
    let client = three_holders(&mut home, "gone/object.avi");

    let before = home.stats().flows_started;
    let fetch = home.fetch_object(client, "gone/object.avi");
    run_until_flows(&mut home, before, 3);
    let delete = home.delete_object(NodeId(1), "gone/object.avi");
    home.run_until_complete(delete).expect_ok();
    assert!(holders(&home).is_empty(), "the delete removed every copy");

    let r = home.run_until_complete(fetch);
    assert!(matches!(r.outcome, Err(OpError::Timeout(_))), "{r:?}");
    assert_eq!(won_stripes(&home).len(), 3, "the stripes did land");
    assert!(has_stage_span(&home, "fetch.retry_wait"));
    assert_no_flow_leaked(&mut home);
}
