//! Property tests for the flow engine: the event-driven simulation must
//! agree with the analytic single-flow oracle, conserve bytes, respect
//! capacity under contention, and be *poll-independent* — how often and
//! when a driver looks at the engine moves no completion instant, no rate
//! bit and no byte count (DESIGN.md, "Poll-independence contract"). The
//! solver's shortcuts — rounds bounded from below, solves skipped for caps
//! that never bound — are checked bit for bit against a copy of the loop
//! that takes neither.

use std::collections::BTreeMap;
use std::time::Duration;

use c4h_simnet::{
    presets, Addr, ChunkSpec, DetRng, FlowEvent, FlowId, FlowNet, LatencyModel, SegmentId, SimTime,
    SustainedCap, TcpProfile, Topology,
};
use c4h_telemetry::Recorder;
use proptest::prelude::*;

fn topology(seg_cap: f64, tcp: TcpProfile) -> Topology {
    let mut b = Topology::builder();
    let lan = b.segment("seg", seg_cap);
    let site = b.site("site");
    b.route(
        site,
        site,
        vec![lan],
        LatencyModel {
            base: Duration::from_millis(1),
            jitter: 0.0,
        },
        tcp,
        1.0,
        0.0,
    );
    let mut t = b.build();
    for i in 0..16 {
        t.attach(Addr::new(i), site);
    }
    t
}

/// Site pairs of the chain topology that have a route, as (from, to) site
/// indices: a route crosses segments `from..to`.
const ROUTES: [(u64, u64); 6] = [(0, 1), (1, 2), (2, 3), (0, 2), (1, 3), (0, 3)];

/// A chain of four sites joined by three segments; `profile(hops)` is the
/// TCP profile of the routes that many segments long. Site `k` holds
/// addresses `8k..8k + 8`.
fn chain(caps: &[f64], profile: impl Fn(usize) -> TcpProfile) -> (Topology, Vec<SegmentId>) {
    let lat = LatencyModel {
        base: Duration::from_millis(1),
        jitter: 0.0,
    };
    let mut b = Topology::builder();
    let segs: Vec<SegmentId> = caps
        .iter()
        .enumerate()
        .map(|(i, &cap)| b.segment(&format!("seg{i}"), cap))
        .collect();
    let sites: Vec<_> = (0..4).map(|i| b.site(&format!("site{i}"))).collect();
    for (from, to) in ROUTES.map(|(f, t)| (f as usize, t as usize)) {
        let path = segs[from..to].to_vec();
        b.route(
            sites[from],
            sites[to],
            path,
            lat,
            profile(to - from),
            1.0,
            0.0,
        );
    }
    let mut t = b.build();
    for (k, &site) in sites.iter().enumerate() {
        for i in 0..8 {
            t.attach(Addr::new(8 * k as u64 + i), site);
        }
    }
    (t, segs)
}

/// The engine's present rates are a max-min fair allocation.
fn assert_max_min_fair(net: &FlowNet, segs: &[SegmentId]) -> Result<(), TestCaseError> {
    let flows = net.flow_ids();
    let rate = |id| net.progress(id).unwrap().rate_bps;
    let on_seg = |id, seg: SegmentId| net.flow_path(id).unwrap().contains(&seg);
    let seg_load = |seg: SegmentId| -> f64 {
        flows
            .iter()
            .filter(|&&f| on_seg(f, seg))
            .map(|&f| rate(f))
            .sum()
    };
    // No segment above capacity.
    for &seg in segs {
        let cap = net.topology().segment(seg).capacity_bps();
        prop_assert!(
            seg_load(seg) <= cap * 1.001,
            "segment {} over capacity: {} > {cap}",
            net.topology().segment(seg).name(),
            seg_load(seg)
        );
    }
    // Every cap-limited flow gets its cap; every other flow has a
    // saturated bottleneck segment where it is no worse off than any
    // competitor.
    for &f in &flows {
        let cap = net.flow_cap(f).unwrap();
        let r = rate(f);
        prop_assert!(r <= cap * 1.001, "flow rate {r} exceeds its cap {cap}");
        if r >= cap * 0.999 {
            continue;
        }
        let bottleneck = net.flow_path(f).unwrap().iter().find(|&&seg| {
            let seg_cap = net.topology().segment(seg).capacity_bps();
            seg_load(seg) >= seg_cap * 0.999
                && flows
                    .iter()
                    .all(|&g| !on_seg(g, seg) || rate(g) <= r * 1.001)
        });
        prop_assert!(
            bottleneck.is_some(),
            "flow below its cap ({r} < {cap}) has no max-min bottleneck"
        );
    }
    Ok(())
}

fn drain_completions(net: &mut FlowNet) -> Vec<(FlowId, SimTime)> {
    let (mut out, mut events) = (Vec::new(), Vec::new());
    let mut guard = 0;
    while let Some(t) = net.next_event() {
        guard += 1;
        assert!(guard < 1_000_000, "flow engine failed to converge");
        net.advance_into(t, &mut events);
        out.extend(completions(&events));
    }
    out
}

fn drain_completion_times(net: &mut FlowNet) -> Vec<SimTime> {
    drain_completions(net)
        .into_iter()
        .map(|(_, at)| at)
        .collect()
}

fn profile_strategy() -> impl Strategy<Value = TcpProfile> {
    (
        0u64..2000,                                        // setup ms
        1.0e3..1.0e7f64,                                   // floor bps
        0.0..1.0e6f64,                                     // ramp bps/s
        50u64..2000,                                       // ramp step ms
        1.0e4..2.0e7f64,                                   // cap bps
        proptest::option::of((1u64..64, 1.0e3..1.0e6f64)), // sustained
    )
        .prop_map(|(setup_ms, floor, ramp, step_ms, cap, sustained)| {
            let cap = cap.max(floor); // cap at least the floor
            TcpProfile {
                setup: Duration::from_millis(setup_ms),
                rate_floor_bps: floor,
                ramp_bps_per_sec: ramp,
                ramp_step: Duration::from_millis(step_ms),
                rate_cap_bps: cap,
                sustained: sustained.map(|(mb, rate)| SustainedCap {
                    threshold_bytes: mb << 20,
                    rate_bps: rate,
                }),
            }
        })
}

const SITES: usize = 3;

/// A random world: 2–4 segments and a route for every ordered site pair,
/// each over its own multi-hop segment list and TCP profile.
#[derive(Debug, Clone)]
struct World {
    capacities: Vec<f64>,
    /// Per ordered site pair: segment mask (reduced to the world's segment
    /// count, never empty), profile, bandwidth sigma.
    routes: Vec<(u8, TcpProfile, f64)>,
}

impl World {
    fn topology(&self, capacities: &[f64]) -> Topology {
        let mut b = Topology::builder();
        let segs: Vec<SegmentId> = capacities
            .iter()
            .enumerate()
            .map(|(i, &c)| b.segment(&format!("seg{i}"), c))
            .collect();
        let sites: Vec<_> = (0..SITES).map(|i| b.site(&format!("site{i}"))).collect();
        let lat = LatencyModel {
            base: Duration::from_millis(1),
            jitter: 0.0,
        };
        for (k, (mask, tcp, sigma)) in self.routes.iter().enumerate() {
            let mask = match mask % (1 << segs.len()) {
                0 => 1,
                m => m,
            };
            let path = (0..segs.len())
                .filter(|i| (mask >> i) & 1 == 1)
                .map(|i| segs[i])
                .collect();
            let (src, dst) = (sites[k / SITES], sites[k % SITES]);
            b.route(src, dst, path, lat, tcp.clone(), 0.8, *sigma);
        }
        let mut t = b.build();
        for (i, &site) in sites.iter().enumerate() {
            for a in 0..2 {
                t.attach(Addr::new((i * 2 + a) as u64), site);
            }
        }
        t
    }
}

/// Ramp, sustained threshold and zero setup, alone and mixed; every third
/// profile is the LAN shape (50 ms steps: `0.15 / 0.05` floors to 2 in
/// `f64`, the step index the engine once read a boundary late by).
fn mixed_profile_strategy() -> impl Strategy<Value = TcpProfile> {
    (
        (0u64..3, 0u64..4),                                 // shape, setup ms
        (1.0e4..4.0e5f64, 0.0..2.0e6f64, 1.0e4..1.0e6f64),  // floor, ramp, cap
        5u64..200,                                          // ramp step ms
        proptest::option::of((4u64..256, 5.0e3..2.0e5f64)), // sustained KiB, bps
    )
        .prop_map(
            |((shape, setup_ms), (floor, ramp, cap), step_ms, sustained)| {
                let mut p = TcpProfile {
                    setup: Duration::from_millis(setup_ms),
                    rate_floor_bps: floor,
                    ramp_bps_per_sec: ramp,
                    ramp_step: Duration::from_millis(step_ms),
                    rate_cap_bps: cap.max(floor),
                    sustained: sustained.map(|(kib, rate_bps)| SustainedCap {
                        threshold_bytes: kib << 10,
                        rate_bps,
                    }),
                };
                if shape == 0 {
                    p.ramp_step = Duration::from_millis(50);
                    p.ramp_bps_per_sec = 1.0e6;
                    p.rate_cap_bps = p.rate_floor_bps + 4.0e5;
                }
                p
            },
        )
}

fn world_strategy() -> impl Strategy<Value = World> {
    (
        proptest::collection::vec(2.0e4..2.0e6f64, 2..5),
        proptest::collection::vec(
            (
                1u8..16,
                mixed_profile_strategy(),
                prop_oneof![Just(0.0), Just(0.4)],
            ),
            SITES * SITES..SITES * SITES + 1,
        ),
    )
        .prop_map(|(capacities, routes)| World { capacities, routes })
}

/// One step of a driver's script. Both engines of a poll-independence run
/// execute the same script at the same instants.
#[derive(Debug, Clone)]
enum Op {
    Start {
        src: usize,
        dst: usize,
        bytes: u64,
        chunking: Option<ChunkSpec>,
    },
    /// Cancels the `pick`-th in-flight logical transfer.
    Cancel { pick: usize },
    /// Moves the clock `permille` of the way to the next internal event
    /// (1000 = exactly onto it, above = across several).
    Advance { permille: u64 },
    /// Swaps in a topology whose segment capacities are scaled.
    Recapacity { scale: f64 },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let start = |chunked: bool| {
        (0..SITES, 0..SITES, 1u64..(384 << 10), 1u64..64, 2usize..5).prop_map(
            move |(src, dst, bytes, chunk_kib, window)| Op::Start {
                src,
                dst,
                bytes,
                chunking: chunked.then_some(ChunkSpec {
                    chunk_bytes: chunk_kib << 10,
                    window,
                }),
            },
        )
    };
    let advance = |lo: u64, hi: u64| (lo..hi).prop_map(|permille| Op::Advance { permille });
    prop_oneof![
        start(false),
        start(false),
        start(true),
        (0usize..64).prop_map(|pick| Op::Cancel { pick }),
        Just(Op::Advance { permille: 1000 }),
        Just(Op::Advance { permille: 1000 }),
        advance(1, 1000),
        advance(1001, 4000),
        (0.3..1.5f64).prop_map(|scale| Op::Recapacity { scale }),
    ]
}

/// What [`apply`] did.
#[derive(Debug, PartialEq)]
enum Applied {
    Started(FlowId),
    /// The transfer canceled and the bytes it had delivered.
    Canceled(FlowId, f64),
    /// An [`Op::Advance`]: the instant to move the clock to (not moved yet).
    AdvanceTo(SimTime),
    Nothing,
}

/// Runs everything of `op` that is not a clock move.
fn apply(net: &mut FlowNet, world: &World, op: &Op, rng: &mut DetRng) -> Applied {
    match *op {
        Op::Start {
            src,
            dst,
            bytes,
            chunking,
        } => {
            let (src, dst) = (Addr::new(src as u64 * 2), Addr::new(dst as u64 * 2 + 1));
            let id = net.start_transfer(net.now(), src, dst, bytes, chunking, rng);
            Applied::Started(id.expect("every site pair has a route"))
        }
        Op::Cancel { pick } => {
            let ids = net.flow_ids();
            let Some(&id) = ids.get(pick % ids.len().max(1)) else {
                return Applied::Nothing;
            };
            let sent = net.progress(id).expect("listed").sent_bytes;
            assert!(net.cancel(id));
            Applied::Canceled(id, sent)
        }
        Op::Advance { permille } => {
            let Some(t) = net.next_event() else {
                return Applied::Nothing;
            };
            let now = net.now().as_nanos();
            let span = (t.as_nanos() - now) as u128 * permille as u128 / 1000;
            Applied::AdvanceTo(SimTime::from_nanos(now + span as u64))
        }
        Op::Recapacity { scale } => {
            let scaled: Vec<f64> = world.capacities.iter().map(|c| c * scale).collect();
            *net.topology_mut() = world.topology(&scaled);
            Applied::Nothing
        }
    }
}

/// Everything a caller can read of the engine at its present instant, rates
/// and caps by their bits.
fn observe(net: &mut FlowNet) -> Vec<(FlowId, u64, u64, Option<u64>)> {
    net.next_event(); // rates as of now
    let row = |id| {
        let p = net.progress(id).expect("listed");
        let cap = net.flow_cap(id).map(f64::to_bits);
        (id, p.sent_bytes.to_bits(), p.rate_bps.to_bits(), cap)
    };
    net.flow_ids().into_iter().map(row).collect()
}

fn completions(events: &[FlowEvent]) -> impl Iterator<Item = (FlowId, SimTime)> + '_ {
    events
        .iter()
        .map(|&FlowEvent::Completed { flow, at }| (flow, at))
}

/// Reads the engine the ways a runtime does between events, as `noise`
/// decides: the next instant, the health sampler's segment loads, a
/// hedge's progress estimate.
fn look(net: &mut FlowNet, noise: &mut DetRng) {
    if noise.chance(0.5) {
        net.next_event();
    }
    if noise.chance(0.3) {
        net.segment_loads();
    }
    if noise.chance(0.5) {
        for id in net.flow_ids() {
            let _ = (net.progress(id), net.flow_cap(id));
        }
    }
}

/// Moves the clock to `to` the way a polling driver does: through up to
/// four instants `noise` picks on the way, looking at the engine at each.
fn poll_to(net: &mut FlowNet, to: SimTime, noise: &mut DetRng, done: &mut Vec<(FlowId, SimTime)>) {
    let (now, mut events) = (net.now().as_nanos(), Vec::new());
    let mut stops: Vec<u64> = (0..noise.uniform_u64(0, 5))
        .map(|_| noise.uniform_u64(now, to.as_nanos() + 1))
        .collect();
    stops.sort_unstable();
    stops.push(to.as_nanos());
    for stop in stops {
        look(net, noise);
        net.advance_into(SimTime::from_nanos(stop), &mut events);
        done.extend(completions(&events));
    }
}

/// The solver as it stood before a round could stop at its lower bound and
/// a solve be skipped for a cap that never bound: every filling round scans
/// every unfixed flow, the first of the smallest candidates wins, and
/// nothing is remembered between calls. Built on the engine's public view
/// only; returns the fixed-point rate (2⁻²⁰ B/s units) of every flow of
/// `active` (the flows past setup, ascending id).
fn full_scan_rates(net: &FlowNet, active: &[FlowId]) -> Vec<(FlowId, u64)> {
    // `World::topology` names segment `i` "seg{i}".
    let index = |g: &SegmentId| -> usize {
        let name = net.topology().segment(*g).name();
        name["seg".len()..].parse().expect("seg{i}")
    };
    let segments = net.topology().segments();
    let mut residual: Vec<f64> = segments.iter().map(|g| g.capacity_bps()).collect();
    let mut count = vec![0usize; residual.len()];
    let mut unfixed: Vec<(FlowId, Vec<usize>, f64)> = active
        .iter()
        .map(|&id| {
            let path = net.flow_path(id).expect("in flight").iter();
            (
                id,
                path.map(index).collect(),
                net.flow_cap(id).expect("plain"),
            )
        })
        .collect();
    for g in unfixed.iter().flat_map(|(_, path, _)| path) {
        count[*g] += 1;
    }
    let mut rates = Vec::new();
    while !unfixed.is_empty() {
        let mut best: Option<(f64, usize)> = None;
        for (k, (_, path, cap)) in unfixed.iter().enumerate() {
            let share = path
                .iter()
                .map(|&g| residual[g].max(0.0) / count[g].max(1) as f64)
                .fold(f64::INFINITY, f64::min);
            let r = cap.min(share);
            if best.is_none_or(|(b, _)| r < b) {
                best = Some((r, k));
            }
        }
        let (rate, k) = best.expect("unfixed flows must yield a candidate");
        let (id, path, _) = unfixed.swap_remove(k);
        rates.push((id, (rate * (1u64 << 20) as f64) as u64));
        for g in path {
            residual[g] -= rate;
            count[g] -= 1;
        }
    }
    rates
}

/// Progress units (2⁻²⁰ B/s × ns) per byte.
const BYTE: u128 = (1 << 20) * 1_000_000_000;

/// A flow as the reference sees it: when its setup ends, and the epoch its
/// reference rate opened — progress `sent` at `anchor`, `rate` since.
#[derive(Debug, Clone, Copy)]
struct RefFlow {
    active_from: SimTime,
    total: u64,
    anchor: SimTime,
    sent: u128,
    rate: u64,
}

impl RefFlow {
    /// The first nanosecond the last byte is in.
    fn lands(&self) -> SimTime {
        let left = u128::from(self.total) * BYTE - self.sent;
        let dt = left.div_ceil(u128::from(self.rate));
        SimTime::from_nanos(self.anchor.as_nanos() + dt as u64)
    }
}

/// Solves the engine's present state with [`full_scan_rates`], checks every
/// rate the engine reports against it by bits, and moves the reference's
/// epochs to the rates that changed.
fn check_against_full_scans(
    net: &mut FlowNet,
    model: &mut BTreeMap<FlowId, RefFlow>,
) -> Result<(), TestCaseError> {
    net.next_event(); // rates as of now
    let now = net.now();
    let active: Vec<FlowId> = model
        .iter()
        .filter(|(_, f)| now >= f.active_from)
        .map(|(&id, _)| id)
        .collect();
    for (id, rate) in full_scan_rates(net, &active) {
        let f = model.get_mut(&id).expect("listed");
        if rate != f.rate {
            let dt = u128::from(now.as_nanos() - f.anchor.as_nanos());
            (f.sent, f.anchor, f.rate) = (f.sent + u128::from(f.rate) * dt, now, rate);
        }
    }
    for (&id, f) in model.iter() {
        let reported = net.progress(id).expect("in flight").rate_bps;
        let expected = f.rate as f64 / (1u64 << 20) as f64;
        prop_assert_eq!(
            reported.to_bits(),
            expected.to_bits(),
            "{:?} at {}: engine {} B/s, full scans {} B/s",
            id,
            now,
            reported,
            expected
        );
    }
    Ok(())
}

/// Rounds the world onto a coarse grid — capacities and every profile's
/// floor, cap and ramp to multiples of 32 KiB/s, no bandwidth variability —
/// so that caps equal each other, shares equal each other across paths and
/// a cap lands exactly on its share.
fn tie_storm(mut world: World) -> World {
    let grid = |x: f64| ((x / 32_768.0).round().max(1.0)) * 32_768.0;
    for c in &mut world.capacities {
        *c = grid(*c);
    }
    for (_, tcp, sigma) in &mut world.routes {
        tcp.rate_floor_bps = grid(tcp.rate_floor_bps);
        tcp.rate_cap_bps = grid(tcp.rate_cap_bps).max(tcp.rate_floor_bps);
        tcp.ramp_bps_per_sec = grid(tcp.ramp_bps_per_sec);
        tcp.ramp_step = Duration::from_millis(250);
        if let Some(s) = &mut tcp.sustained {
            s.rate_bps = grid(s.rate_bps);
        }
        *sigma = 0.0;
    }
    world
}

/// A lone flow of each testbed profile lands where the decision engine's
/// analytic estimate says, to the microsecond: `transfer_time` walks the
/// same `cap_at` schedule the engine does, so the two stay one model.
#[test]
fn lone_preset_flows_land_on_the_analytic_estimate() {
    let profiles = [
        ("lan", presets::lan_tcp_profile()),
        ("wan-down", presets::wan_down_profile()),
        ("wan-up", presets::wan_up_profile()),
        ("cloud-lan", presets::cloud_lan_profile()),
    ];
    for (name, profile) in profiles {
        for bytes in [64 << 10, 1 << 20, 4 << 20, 32 << 20] {
            let seg_cap = presets::home_lan_capacity_bps();
            let mut net = FlowNet::new(topology(seg_cap, profile.clone()));
            let mut rng = DetRng::seed(5);
            net.start_flow(SimTime::ZERO, Addr::new(0), Addr::new(1), bytes, &mut rng)
                .unwrap();
            let done = drain_completion_times(&mut net);
            assert_eq!(done.len(), 1);
            let estimate = SimTime::ZERO + profile.transfer_time(bytes, seg_cap, 1.0);
            let off = done[0].as_nanos().abs_diff(estimate.as_nanos());
            assert!(
                off <= 1_000,
                "{name}, {bytes} bytes: engine {} vs estimate {estimate}, {off} ns apart",
                done[0]
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A lone flow's engine completion time matches the analytic oracle.
    #[test]
    fn engine_matches_analytic_oracle(
        profile in profile_strategy(),
        kib in 1u64..(64 << 10),
        seg_cap in 1.0e4..5.0e7f64,
    ) {
        let bytes = kib << 10;
        let oracle = profile.transfer_time(bytes, seg_cap, 1.0);
        let mut net = FlowNet::new(topology(seg_cap, profile));
        let mut rng = DetRng::seed(1);
        net.start_flow(SimTime::ZERO, Addr::new(0), Addr::new(1), bytes, &mut rng)
            .unwrap();
        let done = drain_completion_times(&mut net);
        prop_assert_eq!(done.len(), 1);
        let engine = done[0].as_secs_f64();
        let oracle = oracle.as_secs_f64();
        let tolerance = (oracle * 0.02).max(0.002);
        prop_assert!(
            (engine - oracle).abs() <= tolerance,
            "engine {engine:.4}s vs oracle {oracle:.4}s"
        );
    }

    /// N identical concurrent flows never finish before bytes/capacity
    /// allows, and all complete.
    #[test]
    fn contention_respects_segment_capacity(
        n in 2usize..8,
        kib in 8u64..1024,
        seg_cap in 1.0e4..1.0e6f64,
    ) {
        let bytes = kib << 10;
        let profile = TcpProfile::constant_rate(2.0 * seg_cap); // segment-limited
        let mut net = FlowNet::new(topology(seg_cap, profile));
        let mut rng = DetRng::seed(2);
        for i in 0..n {
            net.start_flow(
                SimTime::ZERO,
                Addr::new(i as u64),
                Addr::new((i + 8) as u64),
                bytes,
                &mut rng,
            )
            .unwrap();
        }
        let done = drain_completion_times(&mut net);
        prop_assert_eq!(done.len(), n);
        let last = done.iter().max().unwrap().as_secs_f64();
        let floor = (n as f64 * bytes as f64) / seg_cap;
        prop_assert!(
            last >= floor * 0.999,
            "finished at {last:.4}s, but {floor:.4}s of capacity-seconds are required"
        );
        // Identical symmetric flows finish together.
        let first = done.iter().min().unwrap().as_secs_f64();
        prop_assert!((last - first).abs() < 1e-6);
    }

    /// The same over a chain: concurrent flows on one-, two- and three-hop
    /// routes never finish before the bytes crossing each segment fit
    /// through its capacity, all complete, and the identical flows of one
    /// route finish together.
    #[test]
    fn chain_contention_respects_segment_capacity(
        counts in proptest::collection::vec(0usize..4, 6..7),
        kib in 8u64..1024,
        caps in proptest::collection::vec(1.0e4..1.0e6f64, 3..4),
    ) {
        prop_assume!(counts.iter().any(|&c| c > 0));
        let bytes = kib << 10;
        // Segment-limited: no flow's own cap binds.
        let (t, segs) = chain(&caps, |_| TcpProfile::constant_rate(4.0e6));
        let mut net = FlowNet::new(t);
        let mut rng = DetRng::seed(2);
        let mut crossing = [0u64; 3];
        let mut groups: Vec<Vec<FlowId>> = Vec::new();
        for (route, &count) in ROUTES.iter().zip(&counts) {
            let group = (0..count as u64).map(|i| {
                let (src, dst) = (Addr::new(8 * route.0 + i), Addr::new(8 * route.1 + i + 4));
                net.start_flow(SimTime::ZERO, src, dst, bytes, &mut rng).unwrap()
            });
            groups.push(group.collect());
            for hop in route.0..route.1 {
                crossing[hop as usize] += count as u64 * bytes;
            }
        }
        let done = drain_completions(&mut net);
        prop_assert_eq!(done.len(), counts.iter().sum::<usize>());
        let last = done.iter().map(|&(_, at)| at).max().unwrap().as_secs_f64();
        for (hop, seg) in segs.iter().enumerate() {
            let floor = crossing[hop] as f64 / net.topology().segment(*seg).capacity_bps();
            prop_assert!(
                last >= floor * 0.999,
                "finished at {last:.4}s, but segment {hop} needs {floor:.4}s of capacity-seconds"
            );
        }
        // Same route, same bytes, same start: same share throughout.
        for group in groups.iter().filter(|g| !g.is_empty()) {
            let times = || done.iter().filter(|(f, _)| group.contains(f)).map(|&(_, at)| at);
            let spread = times().max().unwrap() - times().min().unwrap();
            prop_assert!(
                spread.as_secs_f64() < 1e-6,
                "flows of one route finished {spread:?} apart"
            );
        }
    }

    /// The progressive-filling allocation is max-min fair at every rate
    /// change of a run with ramping caps: no segment is ever driven above
    /// its capacity, and any flow held below its own rate cap is
    /// bottlenecked on some saturated segment of its path where no
    /// competing flow gets more than it does.
    #[test]
    fn allocation_is_max_min_fair(
        counts in proptest::collection::vec(0usize..4, 6..7),
        caps in proptest::collection::vec(1.0e4..1.0e6f64, 3..4),
        rates in proptest::collection::vec((1.0e4..1.0e6f64, 0.0..2.0e6f64), 3..4),
    ) {
        prop_assume!(counts.iter().any(|&c| c > 0));
        // A chain A —0— B —1— C —2— D; longer routes compete with local
        // traffic on every segment they cross. Caps ramp from a tenth of
        // their ceiling, one profile per hop count.
        let (t, segs) = chain(&caps, |hops| TcpProfile {
            setup: Duration::ZERO,
            rate_floor_bps: rates[hops - 1].0 / 10.0,
            ramp_bps_per_sec: rates[hops - 1].1,
            ramp_step: Duration::from_millis(50),
            rate_cap_bps: rates[hops - 1].0,
            sustained: None,
        });
        let mut net = FlowNet::new(t);
        let mut rng = DetRng::seed(4);
        for (route, &count) in ROUTES.iter().zip(&counts) {
            for i in 0..count as u64 {
                let (src, dst) = (Addr::new(8 * route.0 + i), Addr::new(8 * route.1 + i + 4));
                // Sizes spread so that flows leave one at a time.
                let bytes = (64 + 48 * i + 16 * route.1) << 10;
                net.start_flow(SimTime::ZERO, src, dst, bytes, &mut rng).unwrap();
            }
        }
        let mut events = Vec::new();
        for _ in 0..24 {
            let Some(t) = net.next_event() else { break }; // forces the rate allocation
            assert_max_min_fair(&net, &segs)?;
            net.advance_into(t, &mut events);
        }
    }

    /// Progress accounting conserves bytes at arbitrary intermediate times.
    #[test]
    fn partial_progress_never_exceeds_totals(
        kib in 8u64..4096,
        cut_ms in 1u64..10_000,
    ) {
        let bytes = kib << 10;
        let profile = TcpProfile::constant_rate(100_000.0);
        let mut net = FlowNet::new(topology(1.0e9, profile));
        let mut rng = DetRng::seed(3);
        let id = net
            .start_flow(SimTime::ZERO, Addr::new(0), Addr::new(1), bytes, &mut rng)
            .unwrap();
        net.next_event();
        net.advance_into(SimTime::from_millis(cut_ms), &mut Vec::new());
        if let Some(p) = net.progress(id) {
            prop_assert!(p.sent_bytes <= p.total_bytes as f64);
            // No tolerance: 100 000 B/s is a whole number of rate units and
            // the cut a whole number of milliseconds, so the product is a
            // whole number of bytes and the engine holds exactly that.
            prop_assert_eq!(p.sent_bytes, (100 * cut_ms) as f64);
        }
    }

    /// Two engines run one script; one of them is also polled — extra
    /// `next_event` / `advance_into` / `progress` / `segment_loads` calls at
    /// arbitrary instants on the way. Completion sequences, byte counts and
    /// the bits of every rate and cap agree after every step.
    #[test]
    fn polling_moves_no_bit(
        world in world_strategy(),
        ops in proptest::collection::vec(op_strategy(), 1..80),
        seed in any::<u64>(),
    ) {
        let mut plain = FlowNet::new(world.topology(&world.capacities));
        let mut polled = FlowNet::new(world.topology(&world.capacities));
        let (mut rng, mut polled_rng) = (DetRng::seed(seed), DetRng::seed(seed));
        let mut noise = DetRng::seed(seed ^ 0x9e37_79b9);
        let (mut done, mut polled_done, mut events) = (Vec::new(), Vec::new(), Vec::new());
        // The script, then event by event to idle.
        let mut script = ops.iter();
        let mut guard = 0;
        loop {
            let applied = match script.next() {
                Some(op) => {
                    let applied = apply(&mut plain, &world, op, &mut rng);
                    prop_assert_eq!(&applied, &apply(&mut polled, &world, op, &mut polled_rng));
                    applied
                }
                None => match plain.next_event() {
                    Some(t) => Applied::AdvanceTo(t),
                    None => break,
                },
            };
            if let Applied::AdvanceTo(to) = applied {
                plain.advance_into(to, &mut events);
                done.extend(completions(&events));
                poll_to(&mut polled, to, &mut noise, &mut polled_done);
            }
            look(&mut polled, &mut noise);
            prop_assert_eq!(&done, &polled_done);
            prop_assert_eq!(plain.now(), polled.now());
            prop_assert_eq!(observe(&mut plain), observe(&mut polled));
            prop_assert_eq!(plain.next_event(), polled.next_event());
            guard += 1;
            prop_assert!(guard < 100_000, "engine failed to converge");
        }
        prop_assert_eq!(polled.next_event(), None);
        prop_assert_eq!(plain.in_flight(), 0);
    }

    /// The instant `next_event` announces is the instant flows land: a
    /// clock move short of it completes nothing and leaves it standing, and
    /// every completion carries it. Bytes are whole and exact: a completed
    /// transfer is credited its total on every segment it crossed, a
    /// canceled one the whole bytes it had delivered, never more than its
    /// total.
    #[test]
    fn completions_land_on_the_announced_instant(
        world in world_strategy(),
        ops in proptest::collection::vec(op_strategy(), 1..80),
        seed in any::<u64>(),
    ) {
        let rec = Recorder::new();
        rec.set_enabled(true);
        let mut net = FlowNet::new(world.topology(&world.capacities));
        net.set_recorder(rec.clone());
        let mut rng = DetRng::seed(seed);
        let mut noise = DetRng::seed(seed ^ 0x9e37_79b9);
        let mut events = Vec::new();
        // Per in-flight transfer: its segments' counters and total; per
        // counter: the bytes retired transfers must have credited it.
        let mut inflight: BTreeMap<FlowId, (Vec<String>, u64)> = BTreeMap::new();
        let mut credited: BTreeMap<String, u64> = BTreeMap::new();
        let mut script = ops.iter();
        let mut guard = 0;
        loop {
            let applied = match script.next() {
                Some(op) => apply(&mut net, &world, op, &mut rng),
                None => match net.next_event() {
                    Some(t) => Applied::AdvanceTo(t),
                    None => break,
                },
            };
            match applied {
                Applied::Started(id) => {
                    let total = net.progress(id).expect("just started").total_bytes;
                    let path = net.flow_path(id).expect("just started").iter();
                    let name = |&seg| net.topology().segment(seg).name();
                    let keys = path.map(|seg| format!("net.segment_bytes.{}", name(seg)));
                    inflight.insert(id, (keys.collect(), total));
                }
                Applied::Canceled(id, sent) => {
                    let (path, total) = inflight.remove(&id).expect("was in flight");
                    prop_assert!(sent.fract() == 0.0 && sent <= total as f64, "{sent} of {total}");
                    for key in path {
                        *credited.entry(key).or_default() += sent as u64;
                    }
                }
                Applied::AdvanceTo(to) => loop {
                    let next = net.next_event();
                    let stop = next.filter(|&t| t <= to).unwrap_or(to);
                    if net.now() < stop {
                        let short = noise.uniform_u64(net.now().as_nanos(), stop.as_nanos());
                        net.advance_into(SimTime::from_nanos(short), &mut events);
                        prop_assert!(events.is_empty(), "{events:?} before {next:?}");
                        prop_assert_eq!(net.next_event(), next);
                        for id in net.flow_ids() {
                            let p = net.progress(id).expect("listed");
                            prop_assert!(p.sent_bytes.fract() == 0.0, "{p:?}");
                            prop_assert!(p.sent_bytes <= p.total_bytes as f64, "{p:?}");
                        }
                    }
                    net.advance_into(stop, &mut events);
                    for (flow, at) in completions(&events) {
                        prop_assert_eq!(Some(at), next);
                        let (path, total) = inflight.remove(&flow).expect("was in flight");
                        for key in path {
                            *credited.entry(key).or_default() += total;
                        }
                    }
                    if stop == to {
                        break;
                    }
                },
                Applied::Nothing => {}
            }
            guard += 1;
            prop_assert!(guard < 100_000, "engine failed to converge");
        }
        prop_assert!(inflight.is_empty());
        let counters = rec.snapshot();
        for (key, &bytes) in &credited {
            prop_assert_eq!(counters.counter(key), bytes, "{}", key);
        }
    }

    /// One script, one engine, and beside it the solver as it was: after
    /// every step the engine's rates equal, bit for bit, what a full scan
    /// of every round over the same caps, paths and capacities gives, and
    /// every completion lands on the instant the reference's own epochs
    /// put it. Half the worlds are tie storms.
    #[test]
    fn rates_and_landings_match_the_full_scan_solver(
        world in world_strategy(),
        storm in any::<bool>(),
        ops in proptest::collection::vec(op_strategy(), 1..80),
        seed in any::<u64>(),
    ) {
        let world = if storm { tie_storm(world) } else { world };
        let mut net = FlowNet::new(world.topology(&world.capacities));
        let mut rng = DetRng::seed(seed);
        let mut model: BTreeMap<FlowId, RefFlow> = BTreeMap::new();
        let mut events = Vec::new();
        let (mut script, mut guard, mut landed) = (ops.iter(), 0, 0);
        loop {
            let applied = match script.next() {
                // The reference reads a flow's cap; a chunk flow's is not
                // on the public surface.
                Some(&Op::Start { src, dst, bytes, .. }) => {
                    let op = Op::Start { src, dst, bytes, chunking: None };
                    let Applied::Started(id) = apply(&mut net, &world, &op, &mut rng) else {
                        unreachable!("a start starts");
                    };
                    let (now, setup) = (net.now(), world.routes[src * SITES + dst].1.setup);
                    let flow = RefFlow { active_from: now + setup, total: bytes, anchor: now, sent: 0, rate: 0 };
                    model.insert(id, flow);
                    Applied::Started(id)
                }
                Some(op) => apply(&mut net, &world, op, &mut rng),
                None => match net.next_event() {
                    Some(t) => Applied::AdvanceTo(t),
                    None => break,
                },
            };
            match applied {
                Applied::Canceled(id, _) => {
                    model.remove(&id);
                }
                // Event by event: the reference re-solves where the engine
                // does.
                Applied::AdvanceTo(to) => loop {
                    let stop = net.next_event().filter(|&t| t <= to).unwrap_or(to);
                    net.advance_into(stop, &mut events);
                    for (flow, at) in completions(&events) {
                        let f = model.remove(&flow).expect("was in flight");
                        prop_assert_eq!(at, f.lands(), "{:?} of {:?}", flow, f);
                        landed += 1;
                    }
                    check_against_full_scans(&mut net, &mut model)?;
                    if stop == to {
                        break;
                    }
                },
                Applied::Started(_) | Applied::Nothing => {}
            }
            check_against_full_scans(&mut net, &mut model)?;
            guard += 1;
            prop_assert!(guard < 100_000, "engine failed to converge");
        }
        prop_assert!(model.is_empty());
        prop_assert_eq!(net.counters().completed, landed);
    }
}
