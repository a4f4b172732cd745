//! Integration tests for the heat-driven adaptive placement plane and
//! the repair-plane fixes that ride along with it: straggler-flow
//! failures repairing without any peer death, peer-failure scans
//! narrowed to the dead peer's holdings, bandwidth estimates reset on
//! crash, (k, m) erasure-coded objects surviving `m` holder losses, and the
//! recovery arms of the coded read.

use std::fmt::Write as _;
use std::time::Duration;

use cloud4home::{CauseKind, Cloud4Home, Config, FaultEvent, NodeId, Object, OpError, StorePolicy};

/// A run with the adaptive plane disabled must be byte-identical no
/// matter how the (inert) adaptive knobs are set: the whole plane has to
/// be invisible until switched on.
#[test]
fn disabled_adaptive_knobs_do_not_perturb_runs() {
    let transcript = |mut config: Config| {
        config.tracing = true;
        let mut home = Cloud4Home::new(config);
        let mut t = String::new();
        for i in 0..4u64 {
            let name = format!("inert/obj-{i}.bin");
            let obj = Object::synthetic(&name, 50 + i, (96 + 32 * i) << 10, "doc");
            let op = home.store_object(NodeId(i as usize % 3), obj, StorePolicy::ForceHome, true);
            let _ = writeln!(t, "store -> {:?}", home.run_until_complete(op).outcome);
        }
        for i in 0..4u64 {
            let op = home.fetch_object(NodeId((i as usize + 2) % 5), &format!("inert/obj-{i}.bin"));
            let _ = writeln!(t, "fetch -> {:?}", home.run_until_complete(op).outcome);
        }
        home.run_until_idle();
        let _ = writeln!(t, "now_ns={}", home.now().as_nanos());
        let _ = writeln!(t, "stats={:?}", home.stats());
        t.push_str(&home.metrics_json());
        t.push_str(&home.prometheus_text());
        t
    };

    let baseline = transcript(Config::paper_testbed(77));

    let mut tweaked = Config::paper_testbed(77);
    assert!(!tweaked.adaptive.enabled, "adaptive must default off");
    tweaked.adaptive.replication_max = 4;
    tweaked.adaptive.heat_alpha = 0.9;
    tweaked.adaptive.hot_per_min = 50.0;
    tweaked.adaptive.cold_per_min = 0.25;
    tweaked.adaptive.interval_ms = 1000;
    tweaked.adaptive.ec_threshold_bytes = 4096;
    tweaked.adaptive.ec_k = 4;
    tweaked.adaptive.ec_m = 1;
    let perturbed = transcript(tweaked);

    assert_eq!(
        baseline, perturbed,
        "inert adaptive knobs changed a disabled run's bytes"
    );
}

/// A detached fan-out straggler severed by a transient partition — no
/// peer dies — must still be healed: the abort routes the object into the
/// repair daemon, and the anti-entropy sweep retries once the network is
/// back.
#[test]
fn straggler_flow_failure_repairs_without_peer_death() {
    let mut config = Config::paper_testbed(83);
    config.replication = 3;
    config.replica_quorum = 1; // publish early; stragglers detach
    config.anti_entropy_ms = 5_000;
    let mut home = Cloud4Home::new(config);

    let obj = Object::synthetic("straggle/archive.bin", 9, 8 << 20, "tar");
    let op = home.store_object(NodeId(0), obj, StorePolicy::ForceHome, true);
    home.run_until_complete(op).expect_ok();
    assert!(
        home.stats().quorum_publishes >= 1,
        "store should have published at quorum with a straggler in flight"
    );

    // A momentary full partition severs every in-flight transfer, then
    // heals. No node crashes at any point.
    home.apply_fault(FaultEvent::Partition(vec![
        vec![NodeId(0)],
        vec![NodeId(1)],
        vec![NodeId(2)],
        vec![NodeId(3)],
        vec![NodeId(4)],
    ]));
    assert!(
        home.live_copies("straggle/archive.bin") < 3,
        "the partition should have severed the straggler before it landed"
    );
    home.apply_fault(FaultEvent::Heal);

    home.run_for(Duration::from_secs(30));
    home.run_until_idle();

    for i in 0..home.node_count() {
        assert!(home.node_alive(NodeId(i)), "no peer may die in this test");
    }
    assert_eq!(
        home.live_copies("straggle/archive.bin"),
        3,
        "the repair plane must restore full replication without a peer death"
    );
    assert!(
        home.stats().repairs_completed >= 1,
        "the shortfall must be healed by a repair, not a lucky retransmit"
    );
}

/// A peer-failure scan must be proportional to the dead peer's holdings,
/// not the deployment's object count.
#[test]
fn peer_failure_scan_visits_only_dead_peers_holdings() {
    let mut config = Config::paper_testbed(84);
    config.replication = 2;
    config.anti_entropy_ms = 0; // isolate the failure-driven scan
    let mut home = Cloud4Home::new(config);

    let total = 12u64;
    for i in 0..total {
        let obj = Object::synthetic(&format!("narrow/obj-{i}.bin"), i, 128 << 10, "doc");
        let op = home.store_object(NodeId((i % 3) as usize), obj, StorePolicy::ForceHome, true);
        home.run_until_complete(op).expect_ok();
    }
    home.run_until_idle();

    let victim = NodeId(4);
    let victim_holdings = home.objects_on(victim) as u64;
    assert!(
        victim_holdings < total,
        "test needs a victim that holds only part of the corpus \
         (holds {victim_holdings} of {total})"
    );
    let visits_before = home.repair_scan_visits();

    home.crash_node(victim);
    home.run_for(Duration::from_secs(10));
    home.run_until_idle();

    let scan_visits = home.repair_scan_visits() - visits_before;
    assert!(
        scan_visits <= victim_holdings,
        "peer-failure scan visited {scan_visits} objects but the dead peer \
         held only {victim_holdings} — the scan is walking the whole index"
    );
}

/// The per-peer bandwidth EWMA must reset when its peer crashes: the
/// machine that rejoins later says nothing about the ghost that built
/// the estimate.
#[test]
fn peer_bandwidth_estimate_resets_on_crash() {
    let mut home = Cloud4Home::new(Config::paper_testbed(85));

    let obj = Object::synthetic("bw/sample.bin", 3, 512 << 10, "doc");
    let op = home.store_object(NodeId(1), obj, StorePolicy::ForceHome, true);
    home.run_until_complete(op).expect_ok();

    for client in [2usize, 3, 4] {
        let op = home.fetch_object(NodeId(client), "bw/sample.bin");
        home.run_until_complete(op).expect_ok();
    }
    assert!(
        home.peer_bw_samples(NodeId(1)) > 0,
        "fetch transfers from the holder should have trained its estimate"
    );

    home.crash_node(NodeId(1));
    assert_eq!(
        home.peer_bw_samples(NodeId(1)),
        0,
        "a crash must reset the peer's bandwidth estimate to the prior"
    );

    home.rejoin_node(NodeId(1)).expect("live seed exists");
    assert_eq!(
        home.peer_bw_samples(NodeId(1)),
        0,
        "the rejoined instance starts cold until new transfers are observed"
    );
}

/// A cold, large object converts to (k, m) erasure-coded stripes, and
/// the coded form survives `m` simultaneous holder crashes: fetches
/// decode from any `k` survivors while the repair daemon rebuilds the
/// lost rows.
#[test]
fn erasure_coded_object_survives_m_holder_crashes() {
    let mut config = Config::paper_testbed(86);
    config.adaptive.enabled = true;
    let (k, m) = (config.adaptive.ec_k, config.adaptive.ec_m);
    let mut home = Cloud4Home::new(config);

    let size = 2u64 << 20; // over the 1 MiB conversion threshold
    let obj = Object::synthetic("cold/backup.bin", 17, size, "tar");
    let op = home.store_object(NodeId(0), obj, StorePolicy::ForceHome, true);
    home.run_until_complete(op).expect_ok();

    // Never fetched → stone cold; the adaptive pass converts it.
    home.run_for(Duration::from_secs(15));
    assert!(
        home.is_erasure_coded("cold/backup.bin"),
        "a cold object over the threshold must convert to stripes"
    );
    let holders = home.stripe_holders("cold/backup.bin");
    assert_eq!(holders.len(), k + m, "one holder per code row");
    assert_eq!(
        home.live_copies("cold/backup.bin"),
        0,
        "conversion must strip the full copies"
    );

    // Lose m holders at once — the worst case the code tolerates.
    for &id in holders.iter().take(m) {
        home.crash_node(id);
    }

    // A decode fetch succeeds immediately from the k survivors, before
    // any repair lands. Pick a client that is still alive.
    let client = (0..home.node_count())
        .map(NodeId)
        .find(|&id| home.node_alive(id))
        .expect("live client exists");
    let op = home.fetch_object(client, "cold/backup.bin");
    let report = home.run_until_complete(op);
    assert_eq!(
        report.expect_ok().bytes,
        size,
        "decode fetch must reproduce the full object"
    );

    // The repair daemon rebuilds the lost rows from survivors.
    home.run_for(Duration::from_secs(30));
    home.run_until_idle();
    assert!(
        home.stats().repairs_completed >= m as u64,
        "every lost stripe row must be rebuilt"
    );
    let op = home.fetch_object(client, "cold/backup.bin");
    home.run_until_complete(op).expect_ok();
}

/// An owner whose voluntary bin cannot hold its own stripe row must not
/// start (or pay the encode for) a conversion: pass after pass, the cold
/// object stays a full copy and nothing in the deployment moves.
#[test]
fn full_owner_skips_erasure_conversion_every_pass() {
    let mut config = Config::paper_testbed(88);
    config.adaptive.enabled = true;
    config.nodes[0].voluntary_bytes = 64 << 10; // below one stripe row
    let interval = Duration::from_millis(config.adaptive.interval_ms);
    let mut home = Cloud4Home::new(config);

    let obj = Object::synthetic("cold/full-owner.bin", 23, 2 << 20, "tar");
    let op = home.store_object(NodeId(0), obj, StorePolicy::ForceHome, true);
    home.run_until_complete(op).expect_ok();
    home.run_until_idle();

    let footprint = |home: &Cloud4Home| -> Vec<(u64, usize)> {
        (0..home.node_count())
            .map(|j| (home.stored_bytes(NodeId(j)), home.objects_on(NodeId(j))))
            .collect()
    };
    let (bins_before, stats_before) = (footprint(&home), home.stats());
    for pass in 1..=8 {
        home.run_for(interval);
        let stats = home.stats();
        assert_eq!(footprint(&home), bins_before, "pass {pass} moved bytes");
        assert_eq!(
            (
                stats.flows_started,
                stats.replicas_written,
                stats.repairs_started
            ),
            (
                stats_before.flows_started,
                stats_before.replicas_written,
                stats_before.repairs_started
            ),
            "pass {pass} started placement work"
        );
    }
    assert!(!home.is_erasure_coded("cold/full-owner.bin"));
    assert_eq!(home.live_copies("cold/full-owner.bin"), 1);
}

/// A hot object grows replicas toward its recent readers, and cooling
/// shrinks it back — but never below copies parked at recent readers.
#[test]
fn hot_object_grows_then_cools_back() {
    let mut config = Config::paper_testbed(87);
    config.adaptive.enabled = true;
    let mut home = Cloud4Home::new(config);

    let obj = Object::synthetic("hot/reel.bin", 21, 256 << 10, "mp4");
    let op = home.store_object(NodeId(0), obj, StorePolicy::ForceHome, true);
    home.run_until_complete(op).expect_ok();
    assert_eq!(home.live_copies("hot/reel.bin"), 1);

    // A burst of fetches from node 3 heats the object well past the
    // hot band (fetch gaps of ~2 virtual seconds ≫ 4/min).
    for _ in 0..8 {
        let op = home.fetch_object(NodeId(3), "hot/reel.bin");
        home.run_until_complete(op).expect_ok();
        home.run_for(Duration::from_secs(2));
    }
    home.run_for(Duration::from_secs(10));
    home.run_until_idle();
    let grown = home.live_copies("hot/reel.bin");
    assert!(
        grown > 1,
        "a hot object must gain replicas (still at {grown})"
    );

    // Long silence cools it; copies shrink back toward the floor, except
    // copies parked at recent readers (reader affinity holds them).
    home.run_for(Duration::from_secs(300));
    home.run_until_idle();
    let cooled = home.live_copies("hot/reel.bin");
    assert!(
        cooled < grown || grown == 2,
        "a cold object must drop surplus replicas (still at {cooled})"
    );
    assert!(cooled >= 1, "shrinking must never drop the last copy");
}

// ----------------------------------------------------------------------
// Background-job lifecycle edges, at the public surface. Each ends with
// `run_until_idle` returning (it waits for every background flow, so a
// stranded job or transfer would hang it) and with the bins and object
// counts the edge must leave behind.
// ----------------------------------------------------------------------

/// A deployment whose one cold 2 MiB object converts from two full copies
/// to (2, 1) stripes on the first adaptive pass that finds it settled.
fn striping_config(seed: u64) -> Config {
    let mut config = Config::paper_testbed(seed);
    config.tracing = true; // the tests watch `adaptive.*` counters and flow spans
    config.replication = 2;
    config.adaptive.enabled = true;
    config.adaptive.replication_min = 2; // convert straight from both copies
    config.adaptive.ec_k = 2;
    config.adaptive.ec_m = 1;
    config
}

const STRIPED: &str = "edge/cold.bin";

fn store_cold(home: &mut Cloud4Home) {
    let obj = Object::synthetic(STRIPED, 31, 2 << 20, "tar");
    let op = home.store_object(NodeId(0), obj, StorePolicy::ForceHome, true);
    home.run_until_complete(op).expect_ok();
    home.run_until_idle();
}

/// (stored bytes, objects) per node.
fn footprint(home: &Cloud4Home) -> Vec<(u64, usize)> {
    (0..home.node_count())
        .map(|j| (home.stored_bytes(NodeId(j)), home.objects_on(NodeId(j))))
        .collect()
}

fn counter(home: &Cloud4Home, name: &str) -> u64 {
    home.telemetry().snapshot().counter(name)
}

/// Steps virtual time until `done` holds (at most 60 s).
fn run_until(home: &mut Cloud4Home, what: &str, done: impl Fn(&Cloud4Home) -> bool) {
    for _ in 0..1_200 {
        if done(home) {
            return;
        }
        home.run_for(Duration::from_millis(50));
    }
    panic!("timed out waiting for {what}");
}

/// The stripe sites the conversion picks, learned from a twin run of the
/// same seed (the choice is deterministic, and not observable mid-flight).
fn twin_stripe_holders(seed: u64) -> Vec<NodeId> {
    let mut twin = Cloud4Home::new(striping_config(seed));
    store_cold(&mut twin);
    run_until(&mut twin, "the twin's conversion", |h| {
        h.is_erasure_coded(STRIPED)
    });
    twin.stripe_holders(STRIPED)
}

/// Crash a stripe site while the conversion's transfers are in flight:
/// the conversion aborts whole, every full copy is untouched, no stripe
/// is left on any live node, and a later pass converts the object.
#[test]
fn crash_mid_conversion_keeps_full_copies_and_leaves_no_stripe() {
    let seed = 91;
    let sites = twin_stripe_holders(seed);
    let mut home = Cloud4Home::new(striping_config(seed));
    store_cold(&mut home);
    let before = footprint(&home);
    assert_eq!(home.live_copies(STRIPED), 2);
    // A site that holds no full copy, so the crash itself costs none.
    let victim = *sites[1..]
        .iter()
        .find(|id| before[id.0].1 == 0)
        .expect("a stripe site without a full copy");

    run_until(&mut home, "the conversion to start", |h| {
        counter(h, "adaptive.ec_converts") == 1
    });
    assert_ne!(footprint(&home), before, "the owner's row is installed");
    home.crash_node(victim);

    assert_eq!(counter(&home, "adaptive.ec_converts_aborted"), 1);
    assert_eq!(home.live_copies(STRIPED), 2, "every full copy is intact");
    assert!(!home.is_erasure_coded(STRIPED));
    for j in (0..home.node_count()).filter(|&j| j != victim.0) {
        assert_eq!(
            footprint(&home)[j],
            before[j],
            "a stripe was left on node {j}"
        );
    }

    run_until(&mut home, "a later pass to convert", |h| {
        h.is_erasure_coded(STRIPED)
    });
    home.run_until_idle();
    assert_eq!(home.live_copies(STRIPED), 0);
    assert!(!home.stripe_holders(STRIPED).contains(&victim));
    let op = home.fetch_object(NodeId(3), STRIPED);
    assert_eq!(home.run_until_complete(op).expect_ok().bytes, 2 << 20);
}

/// Delete an object while its conversion is in flight: the stripe
/// transfers are cancelled with the conversion, nothing lands later, and
/// no byte of the object is left anywhere.
#[test]
fn delete_mid_conversion_leaves_no_stripe_and_no_job() {
    let mut home = Cloud4Home::new(striping_config(92));
    let empty = footprint(&home);
    store_cold(&mut home);
    run_until(&mut home, "the conversion to start", |h| {
        counter(h, "adaptive.ec_converts") == 1
    });
    let flows = home.stats().flows_started;

    let op = home.delete_object(NodeId(0), STRIPED);
    home.run_until_complete(op).expect_ok();
    home.run_until_idle();
    assert_eq!(counter(&home, "adaptive.ec_converts_aborted"), 1);
    assert_eq!(counter(&home, "adaptive.ec_converted"), 0);
    assert_eq!(footprint(&home), empty, "bytes of a deleted object remain");

    // Nothing of it is still on its way, and no pass picks it up again.
    home.run_for(Duration::from_secs(10));
    home.run_until_idle();
    assert_eq!(footprint(&home), empty, "a stripe landed after the delete");
    assert_eq!(home.stats().flows_started, flows);
    assert!(!home.is_erasure_coded(STRIPED));
}

/// Partition away one source of a row rebuild while its `k` survivor
/// transfers are in flight: the sibling transfer is cancelled with it,
/// and the row is rebuilt once the network heals.
#[test]
fn severed_rebuild_source_cancels_siblings_and_rebuilds_after_heal() {
    let mut config = striping_config(93);
    config.anti_entropy_ms = 4_000;
    let mut home = Cloud4Home::new(config);
    store_cold(&mut home);
    run_until(&mut home, "the conversion", |h| h.is_erasure_coded(STRIPED));
    home.run_until_idle();
    let holders = home.stripe_holders(STRIPED);
    assert_eq!(holders.len(), 3);

    // Lose the parity row; rows 0 and 1 are the rebuild's two sources.
    let lost = holders[2];
    home.crash_node(lost);
    let started = home.stats().repairs_started;
    run_until(&mut home, "the rebuild to start", |h| {
        h.stats().repairs_started > started
    });
    let done = home.stats().repairs_completed;
    let cut_at = home.now().as_nanos();
    home.apply_fault(FaultEvent::Partition(vec![vec![holders[1]]]));
    let ended_unfinished = home
        .telemetry()
        .snapshot()
        .spans()
        .filter(|s| {
            s.name == "net.flow"
                && s.end_ns == cut_at
                && s.arg("done").and_then(|v| v.as_u64()) == Some(0)
        })
        .count();
    assert_eq!(
        ended_unfinished, 2,
        "the severed transfer and its sibling both end at the cut"
    );

    home.run_for(Duration::from_secs(3));
    assert_eq!(
        home.stats().repairs_completed,
        done,
        "nothing rebuilds while a source is unreachable"
    );
    home.apply_fault(FaultEvent::Heal);
    run_until(&mut home, "the rebuild after the heal", |h| {
        h.stats().repairs_completed > done
    });
    home.run_until_idle();
    let rehomed = home.stripe_holders(STRIPED);
    assert!(!rehomed.contains(&lost), "the lost row has a new holder");
    assert_eq!(rehomed[..2], holders[..2]);
    let op = home.fetch_object(NodeId(0), STRIPED);
    assert_eq!(home.run_until_complete(op).expect_ok().bytes, 2 << 20);
}

/// What the background ledger says about an object must not depend on
/// what else this process interned, and in which order: the payload is
/// the object's DHT key, never its interning id.
#[test]
fn background_ledger_names_objects_by_key_not_by_interning_order() {
    let scenario = || {
        let mut config = striping_config(94);
        config.ledger = true;
        config.adaptive.replication_min = 1; // shrink first, then convert
        let mut home = Cloud4Home::new(config);
        store_cold(&mut home);
        run_until(&mut home, "the conversion", |h| h.is_erasure_coded(STRIPED));
        home.crash_node(home.stripe_holders(STRIPED)[2]);
        home.run_for(Duration::from_secs(20));
        home.run_until_idle();
        home.background_ledger().to_vec()
    };
    let first = scenario();
    for i in 0..64 {
        let _ = Object::synthetic(&format!("noise/interned-{i}"), i, 1, "x");
    }
    let second = scenario();
    assert_eq!(first, second);

    let key = c4h_kvstore::object_key(STRIPED).raw();
    let about_objects: Vec<_> = first
        .iter()
        .filter(|e| {
            matches!(
                e.kind,
                CauseKind::RepairTrigger
                    | CauseKind::AdaptiveGrow
                    | CauseKind::AdaptiveShrink
                    | CauseKind::AdaptiveEncode
            )
        })
        .collect();
    assert!(
        about_objects
            .iter()
            .any(|e| e.kind == CauseKind::AdaptiveShrink)
            && about_objects
                .iter()
                .any(|e| e.kind == CauseKind::AdaptiveEncode),
        "the scenario must shrink and convert: {about_objects:?}"
    );
    for e in about_objects {
        assert_eq!(e.a, key, "{e:?} does not carry the object's key");
    }
}

// ----------------------------------------------------------------------
// Recovery arms of the coded read, at the public surface: a (2, 1) object
// read as two concurrent row stripes, with the third row as the one spare.
// ----------------------------------------------------------------------

/// A deployment whose cold object has settled into its (2, 1) coded form,
/// with the row holders and a client that holds no row.
fn coded(seed: u64) -> (Cloud4Home, Vec<NodeId>, NodeId) {
    let mut home = Cloud4Home::new(striping_config(seed));
    store_cold(&mut home);
    run_until(&mut home, "the conversion", |h| h.is_erasure_coded(STRIPED));
    home.run_until_idle();
    let rows = home.stripe_holders(STRIPED);
    assert_eq!(rows.len(), 3);
    let client = (0..home.node_count())
        .map(NodeId)
        .find(|id| !rows.contains(id))
        .expect("a node without a row");
    (home, rows, client)
}

/// Starts a coded read and returns it with both row stripes on the wire.
fn coded_read_in_flight(home: &mut Cloud4Home, client: NodeId) -> cloud4home::OpId {
    let before = home.stats().flows_started;
    let op = home.fetch_object(client, STRIPED);
    while home.stats().flows_started < before + 2 {
        home.run_for(Duration::from_millis(2));
    }
    op
}

fn stage_spans(home: &Cloud4Home, name: &str) -> usize {
    let snap = home.telemetry().snapshot();
    snap.spans()
        .filter(|s| s.cat == "stage" && s.name == name)
        .count()
}

fn instants(home: &Cloud4Home, name: &str) -> usize {
    let snap = home.telemetry().snapshot();
    snap.instants().filter(|i| i.name == name).count()
}

/// A row holder crashes mid-stripe: the slot re-points at the spare parity
/// row and the other stripe keeps flowing.
#[test]
fn coded_read_repoints_a_lost_slot_at_the_spare_row() {
    let (mut home, rows, client) = coded(95);
    let op = coded_read_in_flight(&mut home, client);
    home.crash_node(rows[1]);
    let r = home.run_until_complete(op);
    assert_eq!(r.expect_ok().bytes, 2 << 20, "the decode is byte-identical");
    assert_eq!(r.failovers, 1, "{r:?}");
    let snap = home.telemetry().snapshot();
    let reassign = snap
        .instants()
        .find(|i| i.name == "fetch.stripe_reassign")
        .expect("the re-pointing is traced");
    assert_eq!(reassign.arg("row").and_then(|v| v.as_u64()), Some(2));
    assert_eq!(
        reassign.arg("via").and_then(|v| v.as_str()),
        Some(home.node_name(rows[2]))
    );
    assert_eq!(stage_spans(&home, "fetch.retry_wait"), 0, "no backoff");
    home.run_until_idle();
}

/// More than `m` rows are lost mid-read: the slot has no spare to re-point
/// at, the surviving stripe is dropped and the read backs off — until a
/// holder is back.
#[test]
fn coded_read_that_loses_too_many_rows_backs_off_until_a_holder_rejoins() {
    let (mut home, rows, client) = coded(96);
    let op = coded_read_in_flight(&mut home, client);
    let canceled = home.flow_counters().canceled;
    home.crash_node(rows[2]); // the spare: nothing of the read notices
    assert_eq!(home.flow_counters().canceled, canceled);
    home.crash_node(rows[1]);
    assert_eq!(
        home.flow_counters().canceled,
        canceled + 2,
        "the severed stripe and its now useless sibling"
    );
    home.run_for(Duration::from_secs(3));
    assert!(home.take_report(op).is_none(), "the read is backing off");
    home.rejoin_node(rows[1]).expect("live seed exists");
    let r = home.run_until_complete(op);
    assert_eq!(r.expect_ok().bytes, 2 << 20);
    assert_eq!(r.failovers, 1, "{r:?}");
    assert!(stage_spans(&home, "fetch.retry_wait") >= 1);
    assert_eq!(
        instants(&home, "fetch.ec_plan"),
        2,
        "planned, then re-planned"
    );
    home.run_until_idle();
}

/// The same loss with nobody coming back: the read keeps backing off and
/// fails as `StripesLost` once its deadline is spent.
#[test]
fn coded_read_without_enough_rows_fails_as_stripes_lost_by_its_deadline() {
    let (mut home, rows, client) = coded(97);
    let op = coded_read_in_flight(&mut home, client);
    home.crash_node(rows[2]);
    home.crash_node(rows[1]);
    let r = home.run_until_complete(op);
    assert!(matches!(r.outcome, Err(OpError::StripesLost(_))), "{r:?}");
    assert!(
        r.total() >= Duration::from_secs(60),
        "it used its whole recovery deadline: {:?}",
        r.total()
    );
    assert!(stage_spans(&home, "fetch.retry_wait") >= 2);
    home.run_until_idle();
    let fc = home.flow_counters();
    assert_eq!(fc.started, fc.completed + fc.canceled, "{fc:?}");
}

/// Fewer than `k` rows are readable when the read is planned: that is a
/// wait, not a failure.
#[test]
fn coded_read_with_too_few_rows_at_plan_time_waits_for_one() {
    let (mut home, rows, client) = coded(98);
    home.crash_node(rows[0]);
    home.crash_node(rows[2]);
    let op = home.fetch_object(client, STRIPED);
    home.run_for(Duration::from_secs(3));
    assert!(home.take_report(op).is_none(), "the read is backing off");
    assert_eq!(instants(&home, "fetch.ec_plan"), 0, "nothing to plan with");
    home.rejoin_node(rows[0]).expect("live seed exists");
    let r = home.run_until_complete(op);
    assert_eq!(r.expect_ok().bytes, 2 << 20);
    assert!(stage_spans(&home, "fetch.retry_wait") >= 1);
    assert_eq!(instants(&home, "fetch.ec_plan"), 1);
    home.run_until_idle();
}

/// A row holder crashes after its stripe landed but before the last one
/// does: the decode finds the shard gone and re-plans over the rows that
/// are left, instead of panicking or decoding from nothing.
#[test]
fn coded_read_replans_when_a_landed_rows_holder_vanishes_before_decode() {
    let (mut home, _rows, client) = coded(99);
    let op = coded_read_in_flight(&mut home, client);
    let landed = |home: &Cloud4Home| -> Vec<String> {
        let snap = home.telemetry().snapshot();
        snap.spans()
            .filter(|s| s.name == "fetch.stripe")
            .filter(|s| s.arg("won").and_then(|v| v.as_bool()) == Some(true))
            .filter_map(|s| s.arg("src").and_then(|v| v.as_str()).map(str::to_owned))
            .collect()
    };
    while landed(&home).is_empty() {
        home.run_for(Duration::from_micros(200));
    }
    let first = landed(&home);
    assert_eq!(first.len(), 1, "one stripe landed, one is in flight");
    let holder = (0..home.node_count())
        .map(NodeId)
        .find(|&id| home.node_name(id) == first[0])
        .expect("the span names a node");
    home.crash_node(holder);
    let r = home.run_until_complete(op);
    assert_eq!(r.expect_ok().bytes, 2 << 20);
    assert_eq!(stage_spans(&home, "fetch.retry_wait"), 1, "one re-plan");
    assert_eq!(instants(&home, "fetch.ec_plan"), 2);
    home.run_until_idle();
}
