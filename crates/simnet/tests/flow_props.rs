//! Property tests for the flow engine: the event-driven simulation must
//! agree with the analytic single-flow oracle, conserve bytes, and respect
//! capacity under contention.

use std::time::Duration;

use c4h_simnet::{
    Addr, DetRng, FlowEvent, FlowId, FlowNet, LatencyModel, SegmentId, SimTime, SustainedCap,
    TcpProfile, Topology,
};
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
        out.extend(
            events
                .iter()
                .map(|&FlowEvent::Completed { flow, at }| (flow, at)),
        );
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
            prop_assert!(p.sent_bytes <= p.total_bytes as f64 + 1.0);
            let expected = (100_000.0 * cut_ms as f64 / 1e3).min(bytes as f64);
            prop_assert!(
                (p.sent_bytes - expected).abs() < 120.0,
                "sent {} vs expected {expected}",
                p.sent_bytes
            );
        }
    }
}
