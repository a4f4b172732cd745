//! Scale gates that are counts, not clocks.
//!
//! `pump` used to poll every node's overlay after every event, so one
//! `step()` cost grew with the world even when it moved a single envelope.
//! These tests pin the replacement: the number of nodes `pump` visits per
//! event is a small constant at any world size, and the single-pass
//! replica placement picks exactly what collecting and sorting every
//! candidate picked. A directory's record is likewise shared between the
//! copies the overlay makes of it, not copied (the allocation count lives
//! in the `engine_throughput` bench's `dht_chain_append` row); the twin here
//! pins what a reader of a long chain must still see.

use c4h_simnet::DetRng;
use cloud4home::{Cloud4Home, Config, NodeId, NodeSpec, Object, StorePolicy};

const KIB: u64 = 1 << 10;

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
