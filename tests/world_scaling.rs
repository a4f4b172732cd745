//! Scale gates that are counts, not clocks.
//!
//! `pump` used to poll every node's overlay after every event, so one
//! `step()` cost grew with the world even when it moved a single envelope.
//! These tests pin the replacement: the number of nodes `pump` visits per
//! event is a small constant at any world size, and the single-pass
//! replica placement picks exactly what collecting and sorting every
//! candidate picked. A directory's record is likewise shared between the
//! copies the overlay makes of it, not copied (the allocation count is the
//! `dht_chain_append_allocs_flat` gate of `c4h_bench::gates`); the twin
//! here pins what a reader of a long chain must still see. The periodic
//! passes (adaptive review, anti-entropy) likewise look at the objects an
//! event touched, not at every object that exists: a warm object is
//! reviewed until it cools, a crash sends the victim's holdings to the
//! sweep, and settled objects cost a pass nothing, whatever their number
//! (the `tick_visits_flat_in_objects` gate, at 1 000 to 50 000 objects).
//! And the flow engine passes over its flows when a flow starts, ends or
//! reaches a boundary of its own rate cap — never because a driver polled:
//! the derivation count of a run is the same at any polling cadence, and
//! bounded by what its flows did. A pass re-solves only when a cap that
//! bound, or binds, moved, and a solve's filling round looks at one flow
//! unless a cap may bind in it.

use std::time::Duration;

use c4h_simnet::{presets, Addr, DetRng, FlowNet, SimTime, TcpProfile};
use cloud4home::{Cloud4Home, Config, NodeId, NodeSpec, Object, StorePolicy};

const KIB: u64 = 1 << 10;
const MIB: u64 = 1 << 20;

/// `nodes - 1` netbooks and a desktop gateway on one LAN.
fn world(nodes: usize, seed: u64) -> Config {
    let mut config = Config::paper_testbed(seed);
    config.chimera.leaf_size = 2;
    config.replication = 2;
    config.nodes = (0..nodes - 1)
        .map(|i| NodeSpec::netbook(&format!("nb-{i:03}")))
        .collect();
    config.nodes.push(NodeSpec::desktop("nb-gateway"));
    config
}

/// Builds the world, runs 20 stores and 20 fetches from clients spread over
/// it, and returns how many nodes `pump` polled per processed event over
/// the deployment's whole life (overlay join included).
fn visits_per_step(nodes: usize) -> f64 {
    let mut home = Cloud4Home::new(world(nodes, 7));
    let names: Vec<String> = (0..20).map(|i| format!("scale/obj-{i:02}.bin")).collect();
    for (i, name) in names.iter().enumerate() {
        let obj = Object::synthetic(name, 40 + i as u64, 64 * KIB, "doc");
        let client = NodeId((i * 13 + 5) % nodes);
        let op = home.store_object(client, obj, StorePolicy::ForceHome, true);
        home.run_until_complete(op).expect_ok();
    }
    for (i, name) in names.iter().enumerate() {
        let op = home.fetch_object(NodeId((i * 19 + 2) % nodes), name);
        home.run_until_complete(op).expect_ok();
    }
    home.run_until_idle();
    home.pump_node_visits() as f64 / home.steps() as f64
}

#[test]
fn pump_visits_per_event_do_not_grow_with_the_world() {
    let small = visits_per_step(32);
    let large = visits_per_step(512);
    // The world scan polled every node at least twice per event.
    assert!(
        large < 4.0,
        "512 nodes: {large:.2} node visits per event — pump is scanning again"
    );
    assert!(
        large <= 1.25 * small,
        "node visits per event grew with the world: {small:.2} at 32 nodes, {large:.2} at 512"
    );
}

/// Stores 200 objects of a few sizes from random clients into a world whose
/// voluntary bins are small and unequal, so they fill, tie and overflow as
/// the run goes on. Before each store the replica set is predicted from a
/// model of the bins with the old placement code — collect every peer with
/// room, sort by `(Reverse(free), index)`, truncate — and afterwards every
/// node's stored bytes must match the model.
#[test]
fn replica_placement_matches_collect_and_sort() {
    let nodes = 24;
    let mut rng = DetRng::seed(2011);
    let mut config = world(nodes, 3);
    config.replication = 3;
    for spec in &mut config.nodes {
        // Steps of 96 KiB from 96 KiB to 2.25 MiB: many equal bins, and a
        // few too small for the larger objects from the start.
        spec.voluntary_bytes = rng.uniform_u64(1, 25) * 96 * KIB;
    }
    let mut free: Vec<u64> = config.nodes.iter().map(|n| n.voluntary_bytes).collect();
    let mut stored = vec![0u64; nodes];
    let mut home = Cloud4Home::new(config);
    let (mut short, mut tied) = (0, 0);
    for i in 0..200 {
        let size = [64, 96, 128][rng.uniform_u64(0, 3) as usize] * KIB;
        let client = rng.uniform_u64(0, nodes as u64) as usize;

        let mut picks: Vec<usize> = (0..nodes)
            .filter(|&j| j != client && size <= free[j])
            .collect();
        picks.sort_by_key(|&j| (std::cmp::Reverse(free[j]), j));
        if picks.len() > 2 && free[picks[1]] == free[picks[2]] {
            tied += 1;
        }
        picks.truncate(2);
        short += usize::from(picks.len() < 2);
        stored[client] += size;
        for &j in &picks {
            free[j] -= size;
            stored[j] += size;
        }

        let obj = Object::synthetic(&format!("pick/obj-{i:03}.bin"), 900 + i, size, "doc");
        let op = home.store_object(NodeId(client), obj, StorePolicy::ForceHome, true);
        home.run_until_complete(op).expect_ok();
        home.run_until_idle();
        let actual: Vec<u64> = (0..nodes).map(|j| home.stored_bytes(NodeId(j))).collect();
        assert_eq!(actual, stored, "store {i}: {size} bytes from node {client}");
    }
    // The script must have reached the cases the tie-break and the room
    // check exist for.
    assert!(
        tied >= 20,
        "only {tied} stores had an equal-room tie at the cut"
    );
    assert!(short >= 5, "only {short} stores ran out of peers with room");
}

/// 600 stores into one directory of the six-node testbed append 600 entries
/// to one chained record; `list` is the one reader of the whole chain and
/// folds it oldest first, so it returns the names in store order, and a name
/// stored again keeps its first position and appears once.
#[test]
fn long_directory_lists_in_store_order() {
    let mut home = Cloud4Home::new(Config::paper_testbed(18));
    let nodes = home.node_count();
    let names: Vec<String> = (0..600).map(|i| format!("bulk/obj-{i:03}.txt")).collect();
    // The last three are owners storing their object again.
    for i in (0..600).chain([17, 599, 300]) {
        let obj = Object::new(&names[i], &b"entry"[..], "txt");
        let op = home.store_object(NodeId(i % nodes), obj, StorePolicy::ForceHome, true);
        home.run_until_complete(op).expect_ok();
    }
    let op = home.list_objects(NodeId(3), "bulk");
    let listing = home.run_until_complete(op).expect_ok().listing.clone();
    assert_eq!(listing, Some(names));
}

/// A 12-node world with the adaptive plane on and nothing for it to do:
/// the band is pinned at the replication factor and the objects stored by
/// [`archive`] are below the erasure-coding threshold.
fn pinned_band_world(seed: u64) -> Cloud4Home {
    let mut config = world(12, seed);
    config.adaptive.enabled = true;
    config.adaptive.replication_min = 2;
    config.adaptive.replication_max = 2;
    config.adaptive.ec_threshold_bytes = 1 << 20;
    Cloud4Home::new(config)
}

/// Stores objects `from..to` (64 KiB each) from clients spread over the
/// world and leaves them alone for a minute of virtual time.
fn archive(home: &mut Cloud4Home, from: usize, to: usize) {
    let nodes = home.node_count();
    for i in from..to {
        let obj = Object::synthetic(&format!("cold/obj-{i:03}.bin"), i as u64, 64 * KIB, "doc");
        let op = home.store_object(
            NodeId((i * 5 + 1) % nodes),
            obj,
            StorePolicy::ForceHome,
            true,
        );
        home.run_until_complete(op).expect_ok();
    }
    home.run_until_idle();
    home.run_for(Duration::from_secs(60));
}

/// Two fetches give one object a heat estimate: it alone is reviewed, once
/// per pass, until silence has cooled it to the cold rate (60 / 0.5 per
/// minute = 120 s, sixty 2 s passes), and then not at all. No repair visit
/// is made at any point — a fetch says nothing about durability.
#[test]
fn a_warm_object_is_the_only_review_until_it_cools() {
    let mut home = pinned_band_world(20);
    archive(&mut home, 0, 50);
    for client in [3, 8] {
        let op = home.fetch_object(NodeId(client), "cold/obj-017.bin");
        home.run_until_complete(op).expect_ok();
    }
    let repairs = home.repair_scan_visits();
    let mut reviews_per_pass = Vec::new();
    for _ in 0..70 {
        let before = home.adaptive_review_visits();
        home.run_for(Duration::from_secs(2));
        reviews_per_pass.push(home.adaptive_review_visits() - before);
    }
    let warm = reviews_per_pass.iter().take_while(|&&n| n == 1).count();
    assert!(
        (55..=62).contains(&warm),
        "reviewed for {warm} passes: {reviews_per_pass:?}"
    );
    assert!(
        reviews_per_pass[warm..].iter().all(|&n| n == 0),
        "once cold the object is settled again: {reviews_per_pass:?}"
    );
    assert_eq!(home.repair_scan_visits(), repairs);
}

/// A crashed holder's objects — and only they — go back to the sweep: the
/// sweep after the crash visits exactly the victim's holdings (the failure
/// detector's own scan of the same holdings, once, may share its window),
/// later sweeps visit those still short, and once every object is back at
/// two live copies the sweeps visit nothing.
#[test]
fn a_crash_sends_exactly_the_victims_holdings_to_the_sweep() {
    let mut home = pinned_band_world(21);
    archive(&mut home, 0, 50);
    let victim = NodeId(4);
    let held = home.objects_on(victim) as u64;
    assert!((1..20).contains(&held), "victim holds {held} of 50 objects");
    let sweep = Duration::from_secs(10);

    let before = home.repair_scan_visits();
    home.crash_node(victim);
    home.run_for(sweep);
    let first = home.repair_scan_visits() - before;
    assert!(
        first == held || first == 2 * held,
        "first sweep after the crash made {first} visits, the victim held {held}"
    );
    let mut later = Vec::new();
    for _ in 0..8 {
        let before = home.repair_scan_visits();
        home.run_for(sweep);
        later.push(home.repair_scan_visits() - before);
    }
    home.run_until_idle();
    assert!(
        later.iter().all(|&n| n <= 2 * held),
        "later sweeps: {later:?}"
    );
    assert_eq!(later[5..], [0, 0, 0], "repaired objects left the sweep");
    for i in 0..50 {
        assert_eq!(home.live_copies(&format!("cold/obj-{i:03}.bin")), 2);
    }
}

/// One 32 MiB store to the cloud — setup, the whole slow-start ramp, the
/// ISP's shaping threshold, the last byte — driven by polling every `poll`
/// of virtual time. Returns the flow engine's derivations and solves and the
/// instant the store completed.
fn wan_store_polled_every(poll: Duration) -> (u64, u64, SimTime) {
    let mut home = Cloud4Home::new(Config::paper_testbed(22));
    home.run_until_idle();
    let before = home.flow_counters();
    let obj = Object::synthetic("wan/big.bin", 22, 32 * MIB, "doc");
    let op = home.store_object(NodeId(1), obj, StorePolicy::ForceCloud, true);
    let report = loop {
        home.run_for(poll);
        if let Some(report) = home.take_report(op) {
            break report;
        }
    };
    report.expect_ok();
    home.run_until_idle();
    let after = home.flow_counters();
    let (derives, solves) = (after.derives - before.derives, after.solves - before.solves);
    (derives, solves, report.completed)
}

#[test]
fn polling_cadence_moves_neither_the_derivation_count_nor_the_completion() {
    let coarse = wan_store_polled_every(Duration::from_secs(1));
    let fine = wan_store_polled_every(Duration::from_millis(20));
    assert_eq!(
        fine, coarse,
        "(derivations, solves, completed) at 20 ms vs 1 s polls"
    );
    // ≈ 380 s of virtual time is 19 000 polls at 20 ms; the engine derives
    // once per event of the flow's own: its start, setup, 93 ramp steps,
    // the threshold and the end.
    let own = 4 + presets::wan_up_profile().steps_to_saturation();
    assert_eq!(fine.0, own, "derivations for one flow's own events");
    // Alone on the uplink the flow runs at its cap, so every one of those
    // is a change the solver must see (the start's pass, with the flow
    // still in setup, is this engine's first solve, of no flow) — and the
    // store lands where it always has.
    assert_eq!(fine.1, own, "a binding cap re-solves at every step");
    assert_eq!(fine.2, SimTime::from_nanos(378_352_432_351));
}

/// A closed loop of home and cloud stores and fetches, two clients, polled
/// every 20 ms: the engine derives at most once per flow start, per flow
/// end and per cap boundary a flow crosses (setup completion, each ramp
/// step up to saturation, the sustained threshold), plus once.
#[test]
fn derivations_are_bounded_by_what_the_flows_did() {
    let mut home = Cloud4Home::new(Config::paper_testbed(23));
    home.run_until_idle();
    let (flows0, derives0) = (home.stats().flows_started, home.flow_counters().derives);
    let mut rng = DetRng::seed(23);
    let (mut pending, mut names, mut polls) = (Vec::new(), Vec::new(), 0u64);
    // Cloud transfers, and the ramp steps they lived long enough to cross.
    let (mut wan_flows, mut wan_steps) = (0u64, 0u64);
    let wan = presets::wan_up_profile();
    for i in 0..60u64 {
        let client = NodeId((i % 5) as usize);
        let op = if i < 20 || rng.chance(0.4) {
            let name = format!("mixed/obj-{i:02}.bin");
            let size = rng.uniform_u64(64, 1024) * KIB;
            let policy = if i % 4 == 3 {
                StorePolicy::ForceCloud
            } else {
                StorePolicy::ForceHome
            };
            if i < 20 {
                names.push(name.clone());
            }
            home.store_object(
                client,
                Object::synthetic(&name, i, size, "doc"),
                policy,
                true,
            )
        } else {
            let name = &names[rng.uniform_u64(0, names.len() as u64) as usize];
            home.fetch_object(client, name)
        };
        pending.push(op);
        // Two ops in flight; the twenty objects the fetches read are all
        // stored before the first fetch.
        while pending.len() >= if i == 19 { 1 } else { 2 } {
            home.run_for(Duration::from_millis(20));
            polls += 1;
            pending.retain(|&op| match home.take_report(op) {
                Some(report) => {
                    if report.expect_ok().via_cloud {
                        let life = report.completed - report.submitted;
                        let steps = life.as_nanos() / wan.ramp_step.as_nanos() + 1;
                        wan_flows += 1;
                        wan_steps += wan.steps_to_saturation().min(steps as u64);
                    }
                    false
                }
                None => true,
            });
        }
    }
    home.run_until_idle();
    let flows = home.stats().flows_started - flows0;
    let lan_flows = flows - wan_flows;
    // Start, end, setup, threshold: 4 per flow; plus its ramp steps.
    let lan_steps = lan_flows * presets::lan_tcp_profile().steps_to_saturation();
    let bound = 1 + 4 * flows + lan_steps + wan_steps;
    let derives = home.flow_counters().derives - derives0;
    assert!(
        wan_flows >= 5 && lan_flows >= 10,
        "{wan_flows} WAN, {lan_flows} LAN flows"
    );
    assert!(
        derives <= bound,
        "{derives} derivations for {lan_flows} LAN + {wan_flows} WAN flows (bound {bound}) \
         over {polls} polls"
    );
    assert!(derives < polls, "{derives} derivations, {polls} polls");
}

/// 200 replicated stores submitted at once: 200 LAN flows sharing one
/// segment, each offered far less than its cap from its first byte to its
/// last. The engine derives at every flow's start, setup, three ramp steps
/// and end, but only a flow joining or leaving the active set moves a rate,
/// so only those solve; and every filling round of a solve is a tie its
/// first flow wins, so a solve of F flows evaluates F candidates, not
/// F² / 2. A derivation re-reads the caps of the flows at their own
/// instant only, not of every flow in flight.
#[test]
fn a_lan_surge_solves_per_arrival_and_departure_at_one_candidate_a_round() {
    let mut config = Config::paper_testbed(24);
    config.replication = 2;
    let mut home = Cloud4Home::new(config);
    home.run_until_idle();
    let (flows0, before) = (home.stats().flows_started, home.flow_counters());
    let ops: Vec<_> = (0..200u64)
        .map(|i| {
            let name = format!("surge/obj-{i:03}.bin");
            let obj = Object::synthetic(&name, i, (192 + i) * KIB, "doc");
            home.store_object(NodeId((i % 5) as usize), obj, StorePolicy::ForceHome, true)
        })
        .collect();
    home.run_until_idle();
    for op in ops {
        home.take_report(op).expect("idle").expect_ok();
    }
    let flows = home.stats().flows_started - flows0;
    let after = home.flow_counters();
    let (derives, solves, candidates, cap_reads) = (
        after.derives - before.derives,
        after.solves - before.solves,
        after.candidates - before.candidates,
        after.cap_reads - before.cap_reads,
    );
    assert_eq!(flows, 200, "one replica flow per store");
    assert!(
        solves <= 2 * flows + 1,
        "{solves} solves for {flows} flows: a ramp step of a flow below its cap re-solved"
    );
    let ramp_steps = flows * presets::lan_tcp_profile().steps_to_saturation();
    assert!(
        derives - solves >= ramp_steps,
        "{derives} derivations, {solves} solves: the {ramp_steps} ramp steps were not derived"
    );
    // The j-th arrival solves at most j flows and the j-th departure at
    // most `flows - j`: at most `flows²` rounds in all.
    assert!(
        candidates <= 2 * flows * flows,
        "{candidates} candidates over {solves} solves of ≤ {flows} flows: rounds scan again"
    );
    // At most one read per own instant (start, setup, three ramp steps,
    // end); reading every flow in flight at every derivation is ≈ flows².
    assert!(
        cap_reads <= 6 * flows,
        "{cap_reads} caps read over {derives} derivations of ≤ {flows} flows"
    );
}

/// The other end: caps that always bind. 60 flows of distinct sizes on a
/// segment that could carry them all leave one by one; every round of every
/// solve may be decided by a cap, so every round scans every unfixed flow —
/// exactly what every round used to cost, and no more.
#[test]
fn a_cap_limited_world_costs_what_the_full_scan_did() {
    let mut tb = presets::paper_testbed();
    let (a, b) = (Addr::new(0), Addr::new(1));
    tb.topology.attach(a, tb.home);
    tb.topology.attach(b, tb.home);
    let lan = tb.topology.route_mut(tb.home, tb.home).expect("LAN route");
    lan.tcp = TcpProfile::constant_rate(presets::home_lan_capacity_bps() / 100.0);
    let mut net = FlowNet::new(tb.topology);
    let mut rng = DetRng::seed(25);
    let flows = 60u64;
    for i in 0..flows {
        net.start_flow(SimTime::ZERO, a, b, (64 + i) * KIB, &mut rng)
            .expect("attached");
    }
    let (mut events, mut quadratic) = (Vec::new(), 0);
    while let Some(t) = net.next_event() {
        let active = net.in_flight() as u64;
        quadratic += active * (active + 1) / 2;
        net.advance_into(t, &mut events);
    }
    let c = net.counters();
    assert_eq!(c.completed, flows);
    assert!(c.solves >= flows, "{} solves", c.solves);
    assert!(
        c.candidates <= quadratic,
        "{} candidates, the full scan of every round made {quadratic}",
        c.candidates
    );
}
