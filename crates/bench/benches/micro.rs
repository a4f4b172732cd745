//! Timed micro-benchmarks of the Cloud4Home building blocks:
//! key hashing, the red-black tree, prefix routing, the wire codecs, the
//! TCP transfer model, the byte kernels under every stored object's content
//! (synthesis, erasure coding, stripe checksums), the service kernels, the
//! telemetry recorder's hot paths, and a full in-memory DHT round trip.
//!
//! Run with: `cargo bench -p c4h-bench --bench micro`

use std::hint::black_box;
use std::time::{Duration, Instant};

use c4h_bench::pump_overlay;
use c4h_chimera::{ChimeraConfig, ChimeraNode, Key, OverwritePolicy, RbTree, RoutingTable};
use c4h_kvstore::{object_key, stripe_checksums, Acl, Location, ObjectMeta, Record};
use c4h_services::{FaceDetect, FaceRecognize, Service, TrainingSet, Transcode};
use c4h_simnet::{mib, SimTime};
use c4h_telemetry::Recorder;
use c4h_vmm::{CommandPacket, CommandType, DomId};
use cloud4home::{synth_bytes, ErasureCode, SAMPLE_WINDOW};

fn bench_key_hash() {
    bench("key/from_name", || {
        Key::from_name(black_box("camera/front-door/img-0042.jpg"))
    });
}

fn bench_rbtree() {
    bench("rbtree/insert_remove_1k", || {
        let mut t = RbTree::new();
        for i in 0..1000u32 {
            t.insert(black_box(i.wrapping_mul(2654435761)), i);
        }
        for i in 0..1000u32 {
            t.remove(&black_box(i.wrapping_mul(2654435761)));
        }
        t.len()
    });
    let tree: RbTree<u32, u32> = (0..1000u32)
        .map(|i| (i.wrapping_mul(2654435761), i))
        .collect();
    bench("rbtree/lookup", || {
        tree.get(&black_box(423u32.wrapping_mul(2654435761)))
    });
}

fn bench_routing() {
    let owner = Key::from_name("owner");
    let mut table = RoutingTable::new(owner);
    for i in 0..256 {
        table.add(Key::from_name(&format!("peer-{i}")));
    }
    bench("routing/next_hop", || {
        table.next_hop(black_box(Key::from_name("some-object")))
    });
}

fn bench_codecs() {
    let record = Record::Object(ObjectMeta {
        name: "videos/vacation-2011.avi".into(),
        size_bytes: 24 << 20,
        content_type: "avi".into(),
        tags: vec!["vacation".into(), "family".into()],
        location: Location::Home {
            node: Key::from_name("desktop"),
        },
        private: false,
        owner: Key::from_name("desktop"),
        acl: Acl::Public,
        created_at_ns: 123_456_789,
        replicas: vec![Key::from_name("netbook-1")],
        ec: None,
    });
    let encoded = record.encode();
    bench("kvstore/record_encode", || record.encode());
    bench("kvstore/record_decode", || {
        Record::decode(black_box(&encoded)).unwrap()
    });

    let pkt = CommandPacket::new(
        CommandType::FetchObject,
        3,
        DomId(1),
        0xABCD,
        b"videos/vacation-2011.avi".to_vec(),
    );
    let wire = pkt.encode();
    bench("vmm/command_roundtrip", || {
        CommandPacket::decode(black_box(&wire)).unwrap()
    });
}

fn bench_tcp_model() {
    let profile = c4h_simnet::presets::wan_down_profile();
    bench("simnet/transfer_time_20mib", || {
        profile.transfer_time(black_box(mib(20)), 1e6, 0.9)
    });
}

/// The three byte kernels at the size the runtime runs them: one 64 KiB
/// sample window, (3, 2)-coded into five 21.8 KiB stripes.
fn bench_byte_kernels() {
    bench("object/synth_bytes_64k", || {
        synth_bytes(black_box(7), SAMPLE_WINDOW)
    });
    let window = synth_bytes(7, SAMPLE_WINDOW);
    let code = ErasureCode::new(3, 2);
    bench("ec/encode_3_2_64k", || code.encode(black_box(&window)));
    let stripes = code.encode(&window);
    // Two parity rows among the survivors: every data row but one is derived.
    let survivors: Vec<(usize, &[u8])> = [0, 3, 4]
        .iter()
        .map(|&r| (r, stripes[r].as_slice()))
        .collect();
    bench("ec/reconstruct_3_2_64k", || {
        code.reconstruct_data(black_box(&survivors))
    });
    bench("kvstore/stripe_checksums_5x22k", || {
        stripe_checksums(black_box(&stripes)).fold(0, |acc, h| acc ^ h)
    });
}

fn bench_services() {
    let image = synth_bytes(7, 64 * 1024);
    let fd = FaceDetect::new();
    bench("services/face_detect_64k", || fd.run(black_box(&image)));
    let t = Transcode::new();
    bench("services/transcode_64k", || t.run(black_box(&image)));
    // The runtime's training set: 16 enrolled 64 KiB images.
    let examples: Vec<Vec<u8>> = (0..16)
        .map(|i| synth_bytes(0x5EED_0000 + i, 64 * 1024))
        .collect();
    let fr = FaceRecognize::new(TrainingSet::from_examples(
        examples.iter().map(Vec::as_slice),
    ));
    bench("services/face_recognize_64k", || fr.run(black_box(&image)));
}

fn bench_telemetry() {
    // The disabled path is what every instrumented call site pays when
    // tracing is off — it must stay at one relaxed atomic load.
    let off = Recorder::new();
    bench("telemetry/span_disabled", || {
        let id = off.begin("op", "fetch", black_box(1), 0);
        off.end(id, 100);
    });
    bench("telemetry/observe_disabled", || {
        off.observe("h", black_box(42))
    });

    let on = Recorder::new();
    on.set_enabled(true);
    bench("telemetry/span_enabled", || {
        let id = on.begin("op", "fetch", black_box(1), 0);
        on.end(id, 100);
    });
    bench("telemetry/observe_enabled", || {
        on.observe("h", black_box(42))
    });

    let export = Recorder::new();
    export.set_enabled(true);
    for i in 0..1000u64 {
        export.span("op", "fetch", i % 8, i * 1000, i * 1000 + 500);
    }
    bench("telemetry/chrome_export_1k_spans", || {
        export.chrome_trace_json().len()
    });
}

fn bench_dht_round() {
    // Build a 6-node overlay once; each iteration does a fresh put+get.
    let now = SimTime::ZERO;
    let mut nodes: Vec<ChimeraNode> = (0..6)
        .map(|i| {
            ChimeraNode::new(
                Key::from_name(&format!("bench-{i}")),
                ChimeraConfig::default(),
            )
        })
        .collect();
    nodes[0].bootstrap(now);
    let seed = nodes[0].id();
    for i in 1..6 {
        nodes[i].join_via(seed, now);
        pump_overlay(&mut nodes);
    }
    let mut counter = 0u64;
    bench("chimera/put_get_round_6_nodes", || {
        counter += 1;
        let key = object_key(&format!("bench-object-{counter}"));
        nodes[0]
            .put(key, vec![1, 2, 3], OverwritePolicy::Overwrite, now)
            .unwrap();
        pump_overlay(&mut nodes);
        nodes[3].get(key, now).unwrap();
        pump_overlay(&mut nodes);
        while nodes[3].poll_event().is_some() {}
        while nodes[0].poll_event().is_some() {}
    });
}

/// Times `f`: 3 warm-up calls, then as many calls as fit in 200 ms (at
/// most 100 000), and prints the mean time per call.
fn bench<O>(name: &str, mut f: impl FnMut() -> O) {
    for _ in 0..3 {
        black_box(f());
    }
    let budget = Duration::from_millis(200);
    let start = Instant::now();
    let mut iters = 0u32;
    while start.elapsed() < budget && iters < 100_000 {
        black_box(f());
        iters += 1;
    }
    println!("{name:<40} {:>12.3?}/iter", start.elapsed() / iters.max(1));
}

fn main() {
    bench_key_hash();
    bench_rbtree();
    bench_routing();
    bench_codecs();
    bench_tcp_model();
    bench_byte_kernels();
    bench_services();
    bench_telemetry();
    bench_dht_round();
}
