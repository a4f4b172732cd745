//! Isolated unit-cost probes: one layer's public functions driven alone,
//! at the operating point the traced repetition observed, to price a unit
//! of that layer's work in host time.
//!
//! A probe is an estimate, not an attribution: it runs with warm caches
//! and nothing else contending, so `count × unit cost` bounds the layer's
//! share from below more often than from above.

use std::hint::black_box;
use std::time::{Duration, Instant};

use c4h_chimera::{ChimeraConfig, ChimeraNode, Key, OverwritePolicy};
use c4h_cloud::{S3Store, S3Url};
use c4h_kvstore::{Acl, Location, ObjectMeta, Record};
use c4h_resources::{ResourceSampler, SamplerConfig};
use c4h_services::{FaceDetect, Service};
use c4h_simnet::{presets, Addr, DetRng, EventQueue, FlowNet, SimTime, Sym};
use c4h_telemetry::Recorder;
use c4h_vmm::{CommandPacket, CommandType, DomId};
use cloud4home::{synth_bytes, ErasureCode};

fn per_iter_ns(start: Instant, iters: u64) -> f64 {
    start.elapsed().as_nanos() as f64 / iters as f64
}

/// `EventQueue` hold model: `pending` events resident, each iteration pops
/// the earliest and schedules a successor a pseudo-random delay ahead.
pub fn queue_ns_per_event(pending: usize) -> f64 {
    const ITERS: u64 = 400_000;
    let pending = pending.max(1);
    let mut rng = DetRng::seed(0x51EE);
    let mut q: EventQueue<u64> = EventQueue::new();
    let delay = |rng: &mut DetRng| Duration::from_nanos(rng.uniform_u64(1_000, 500_000_000));
    for i in 0..pending {
        q.schedule_in(delay(&mut rng), i as u64);
    }
    // One warm-up pass so slab and bucket capacities have settled.
    for _ in 0..pending.min(50_000) {
        let (_, e) = q.pop().expect("hold model keeps the queue non-empty");
        q.schedule_in(delay(&mut rng), e);
    }
    let t = Instant::now();
    for _ in 0..ITERS {
        let (_, e) = q.pop().expect("hold model keeps the queue non-empty");
        q.schedule_in(delay(&mut rng), black_box(e));
    }
    per_iter_ns(t, ITERS)
}

/// `FlowNet` on the paper testbed's topology holding `inflight` LAN flows
/// of mixed sizes: the cost of one membership change (a transfer starting
/// or completing), with `next_event` and `advance_into` between them as the
/// runtime calls them.
pub fn flow_us_per_change(inflight: usize) -> f64 {
    let inflight = inflight.max(1);
    let nodes = 6u64;
    let mut tb = presets::paper_testbed();
    for i in 0..nodes {
        tb.topology.attach(Addr::new(i), tb.home);
    }
    let mut net = FlowNet::new(tb.topology);
    let mut rng = DetRng::seed(0xF10);
    let mut now = SimTime::ZERO;
    let mut started = 0u64;
    // Tops the network back up to `inflight`; returns how many it started.
    let mut refill = |net: &mut FlowNet, now: SimTime, rng: &mut DetRng| {
        let before = started;
        while net.in_flight() < inflight {
            let src = started % nodes;
            let dst = (src + 1 + (started / nodes) % (nodes - 1)) % nodes;
            let bytes = rng.uniform_u64(128 << 10, 384 << 10);
            net.start_transfer(now, Addr::new(src), Addr::new(dst), bytes, None, rng)
                .expect("both endpoints are attached");
            started += 1;
        }
        started - before
    };
    refill(&mut net, now, &mut rng);
    // A change costs O(in-flight^2) today; bound the probe's run time.
    let target = (4_000_000 / (inflight as u64 * inflight as u64).max(1)).clamp(100, 40_000);
    let (mut completed, mut restarted) = (0u64, 0u64);
    let mut out = Vec::new();
    let t = Instant::now();
    while completed < target {
        now = net.next_event().expect("flows are in flight");
        out.clear();
        net.advance_into(now, &mut out);
        completed += out.len() as u64;
        restarted += refill(&mut net, now, &mut rng);
    }
    t.elapsed().as_nanos() as f64 / (completed + restarted) as f64 / 1e3
}

/// `n` `ChimeraNode`s joined by direct delivery, then put/get round trips
/// from spread origins; the cost of one `handle` call.
pub fn chimera_ns_per_handle(n: usize, leaf_size: usize) -> f64 {
    let n = n.clamp(2, 1000);
    let now = SimTime::ZERO;
    let config = ChimeraConfig {
        leaf_size,
        ..ChimeraConfig::default()
    };
    let ids: Vec<Key> = (0..n)
        .map(|i| Key::from_name(&format!("probe-{i}")))
        .collect();
    let index: std::collections::HashMap<Key, usize> =
        ids.iter().enumerate().map(|(i, &k)| (k, i)).collect();
    let mut nodes: Vec<ChimeraNode> = ids
        .iter()
        .map(|&id| ChimeraNode::new(id, config.clone()))
        .collect();
    // Delivers until quiescent; returns (envelopes handled, time inside
    // `handle`).
    let pump = |nodes: &mut Vec<ChimeraNode>, timed: bool| -> (u64, Duration) {
        let (mut handled, mut spent) = (0u64, Duration::ZERO);
        loop {
            let mut moved = false;
            for i in 0..nodes.len() {
                while let Some(env) = nodes[i].poll_send() {
                    moved = true;
                    let Some(&j) = index.get(&env.to) else {
                        continue;
                    };
                    if timed {
                        let t = Instant::now();
                        nodes[j].handle(env, now);
                        spent += t.elapsed();
                    } else {
                        nodes[j].handle(env, now);
                    }
                    handled += 1;
                }
                while nodes[i].poll_event().is_some() {}
            }
            if !moved {
                return (handled, spent);
            }
        }
    };
    nodes[0].bootstrap(now);
    for i in 1..n {
        nodes[i].join_via(ids[0], now);
        // Settle the overlay every 16 joins rather than pumping n
        // concurrent joins at once.
        if i % 16 == 0 {
            pump(&mut nodes, false);
        }
    }
    pump(&mut nodes, false);

    let value = vec![7u8; 200];
    let (mut handled, mut spent) = (0u64, Duration::ZERO);
    for r in 0..400usize {
        let origin = (r * 37) % n;
        let key = Key::from_name(&format!("probe-object-{}", r % 64));
        let _ = nodes[origin].put(key, value.clone(), OverwritePolicy::Overwrite, now);
        let (h, s) = pump(&mut nodes, true);
        handled += h;
        spent += s;
        let _ = nodes[(origin + n / 2) % n].get(key, now);
        let (h, s) = pump(&mut nodes, true);
        handled += h;
        spent += s;
    }
    spent.as_nanos() as f64 / handled.max(1) as f64
}

/// One `Record::Object` encode plus decode.
pub fn kvstore_ns_per_codec() -> f64 {
    const ITERS: u64 = 100_000;
    let record = Record::Object(ObjectMeta {
        name: Sym::new("edonkey/jpeg/file-00042.jpeg"),
        size_bytes: 2 << 20,
        content_type: "jpeg".into(),
        tags: vec!["topic-8".into(), "jpeg".into()],
        location: Location::Home {
            node: Key::from_name("netbook-2"),
        },
        private: false,
        owner: Key::from_name("netbook-2"),
        acl: Acl::Public,
        created_at_ns: 123_456_789,
        replicas: vec![Key::from_name("desktop"), Key::from_name("netbook-0")],
        ec: None,
    });
    let t = Instant::now();
    for _ in 0..ITERS {
        let bytes = black_box(&record).encode();
        black_box(Record::decode(&bytes).expect("round trip"));
    }
    // Two codec calls per iteration.
    per_iter_ns(t, ITERS * 2)
}

/// One `CommandPacket` encode plus decode.
pub fn vmm_ns_per_command() -> f64 {
    const ITERS: u64 = 200_000;
    let packet = CommandPacket::new(
        CommandType::FetchObject,
        0,
        DomId(1),
        0xBEEF,
        b"edonkey/jpeg/file-00042.jpeg".to_vec(),
    );
    let t = Instant::now();
    for _ in 0..ITERS {
        let bytes = black_box(&packet).encode();
        black_box(CommandPacket::decode(&bytes).expect("round trip"));
    }
    per_iter_ns(t, ITERS)
}

/// One `ResourceSampler::sample`.
pub fn resources_ns_per_sample() -> f64 {
    const ITERS: u64 = 200_000;
    let mut sampler = ResourceSampler::new(SamplerConfig::default());
    let mut rng = DetRng::seed(0x5A);
    let t = Instant::now();
    for i in 0..ITERS {
        black_box(sampler.sample(SimTime::from_millis(i * 500), &mut rng));
    }
    per_iter_ns(t, ITERS)
}

/// One face-detection kernel run on a 64 KiB sample window (what the
/// runtime feeds a service for a synthetic object).
pub fn services_us_per_exec() -> f64 {
    const ITERS: u64 = 40;
    let input = synth_bytes(99, cloud4home::SAMPLE_WINDOW);
    let svc = FaceDetect::new();
    let t = Instant::now();
    for _ in 0..ITERS {
        black_box(svc.run(black_box(&input)));
    }
    per_iter_ns(t, ITERS) / 1e3
}

/// One S3 put plus get.
pub fn cloud_ns_per_s3_op() -> f64 {
    const ITERS: u64 = 100_000;
    let mut s3: S3Store<u64> = S3Store::new();
    s3.create_bucket("probe").expect("fresh bucket");
    let keys: Vec<String> = (0..256).map(|i| format!("objects/k{i:03}")).collect();
    let urls: Vec<S3Url> = keys.iter().map(|k| S3Url::new("probe", k)).collect();
    let t = Instant::now();
    for i in 0..ITERS {
        let k = i as usize % keys.len();
        black_box(
            s3.put("probe", &keys[k], i, 1 << 20)
                .expect("bucket exists"),
        );
        black_box(s3.get(&urls[k]).expect("just put").size_bytes);
    }
    per_iter_ns(t, ITERS * 2)
}

/// Host microseconds to (3, 2)-encode one MiB.
pub fn ec_us_per_mib() -> f64 {
    const ITERS: u64 = 8;
    let code = ErasureCode::new(3, 2);
    let data = synth_bytes(5, 1 << 20);
    let t = Instant::now();
    for _ in 0..ITERS {
        black_box(code.encode(black_box(&data)));
    }
    per_iter_ns(t, ITERS) / 1e3
}

/// `(ns per recorded span, ns per call on a disabled recorder)` — the
/// second is the "one relaxed load" contract every plane-off path keeps.
pub fn telemetry_ns() -> (f64, f64) {
    const ITERS: u64 = 200_000;
    let on = Recorder::new();
    on.set_enabled(true);
    let t = Instant::now();
    for i in 0..ITERS {
        on.span("probe", "stage", 1, i, i + 10);
    }
    let per_span = per_iter_ns(t, ITERS);
    black_box(on.snapshot().events.len());

    let off = Recorder::new();
    let t = Instant::now();
    for i in 0..ITERS * 10 {
        off.span("probe", "stage", 1, black_box(i), i + 10);
    }
    (per_span, per_iter_ns(t, ITERS * 10))
}
