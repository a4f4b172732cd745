//! Criterion micro-benchmarks of the Cloud4Home building blocks:
//! key hashing, the red-black tree, prefix routing, the wire codecs, the
//! TCP transfer model, the service kernels, the telemetry recorder's
//! hot paths, and a full in-memory DHT round trip.
//!
//! Run with: `cargo bench -p c4h-bench --bench micro`

use c4h_bench::pump_overlay;
use c4h_chimera::{ChimeraConfig, ChimeraNode, Key, OverwritePolicy, RbTree, RoutingTable};
use c4h_kvstore::{object_key, Acl, Location, ObjectMeta, Record};
use c4h_services::{FaceDetect, Service, Transcode};
use c4h_simnet::{mib, SimTime};
use c4h_telemetry::Recorder;
use c4h_vmm::{CommandPacket, CommandType, DomId};
use cloud4home::synth_bytes;
use criterion::{black_box, criterion_group, criterion_main, Criterion};

fn bench_key_hash(c: &mut Criterion) {
    c.bench_function("key/from_name", |b| {
        b.iter(|| Key::from_name(black_box("camera/front-door/img-0042.jpg")))
    });
}

fn bench_rbtree(c: &mut Criterion) {
    c.bench_function("rbtree/insert_remove_1k", |b| {
        b.iter(|| {
            let mut t = RbTree::new();
            for i in 0..1000u32 {
                t.insert(black_box(i.wrapping_mul(2654435761)), i);
            }
            for i in 0..1000u32 {
                t.remove(&black_box(i.wrapping_mul(2654435761)));
            }
            t.len()
        })
    });
    let tree: RbTree<u32, u32> = (0..1000u32)
        .map(|i| (i.wrapping_mul(2654435761), i))
        .collect();
    c.bench_function("rbtree/lookup", |b| {
        b.iter(|| tree.get(&black_box(423u32.wrapping_mul(2654435761))))
    });
}

fn bench_routing(c: &mut Criterion) {
    let owner = Key::from_name("owner");
    let mut table = RoutingTable::new(owner);
    for i in 0..256 {
        table.add(Key::from_name(&format!("peer-{i}")));
    }
    c.bench_function("routing/next_hop", |b| {
        b.iter(|| table.next_hop(black_box(Key::from_name("some-object"))))
    });
}

fn bench_codecs(c: &mut Criterion) {
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
    c.bench_function("kvstore/record_encode", |b| b.iter(|| record.encode()));
    c.bench_function("kvstore/record_decode", |b| {
        b.iter(|| Record::decode(black_box(&encoded)).unwrap())
    });

    let pkt = CommandPacket::new(
        CommandType::FetchObject,
        3,
        DomId(1),
        0xABCD,
        b"videos/vacation-2011.avi".to_vec(),
    );
    let wire = pkt.encode();
    c.bench_function("vmm/command_roundtrip", |b| {
        b.iter(|| CommandPacket::decode(black_box(&wire)).unwrap())
    });
}

fn bench_tcp_model(c: &mut Criterion) {
    let profile = c4h_simnet::presets::wan_down_profile();
    c.bench_function("simnet/transfer_time_20mib", |b| {
        b.iter(|| profile.transfer_time(black_box(mib(20)), 1e6, 0.9))
    });
}

fn bench_services(c: &mut Criterion) {
    let image = synth_bytes(7, 64 * 1024);
    let fd = FaceDetect::new();
    c.bench_function("services/face_detect_64k", |b| {
        b.iter(|| fd.run(black_box(&image)))
    });
    let t = Transcode::new();
    c.bench_function("services/transcode_64k", |b| {
        b.iter(|| t.run(black_box(&image)))
    });
}

fn bench_telemetry(c: &mut Criterion) {
    // The disabled path is what every instrumented call site pays when
    // tracing is off — it must stay at one relaxed atomic load.
    let off = Recorder::new();
    c.bench_function("telemetry/span_disabled", |b| {
        b.iter(|| {
            let id = off.begin("op", "fetch", black_box(1), 0);
            off.end(id, 100);
        })
    });
    c.bench_function("telemetry/observe_disabled", |b| {
        b.iter(|| off.observe("h", black_box(42)))
    });

    let on = Recorder::new();
    on.set_enabled(true);
    c.bench_function("telemetry/span_enabled", |b| {
        b.iter(|| {
            let id = on.begin("op", "fetch", black_box(1), 0);
            on.end(id, 100);
        })
    });
    c.bench_function("telemetry/observe_enabled", |b| {
        b.iter(|| on.observe("h", black_box(42)))
    });

    let export = Recorder::new();
    export.set_enabled(true);
    for i in 0..1000u64 {
        export.span("op", "fetch", i % 8, i * 1000, i * 1000 + 500);
    }
    c.bench_function("telemetry/chrome_export_1k_spans", |b| {
        b.iter(|| export.chrome_trace_json().len())
    });
}

fn bench_dht_round(c: &mut Criterion) {
    c.bench_function("chimera/put_get_round_6_nodes", |b| {
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
        b.iter(|| {
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
        })
    });
}

criterion_group!(
    benches,
    bench_key_hash,
    bench_rbtree,
    bench_routing,
    bench_codecs,
    bench_tcp_model,
    bench_services,
    bench_telemetry,
    bench_dht_round
);
criterion_main!(benches);
