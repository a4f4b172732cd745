//! Differential oracle for the flow engine.
//!
//! [`RefNet`] is the engine as it stood before the dense-store rework —
//! `BTreeMap` flow store, a path clone per flow, progressive filling that
//! recomputes every cap and share per inner iteration, reallocation at
//! every boundary — kept verbatim minus telemetry, and compiled only into
//! this crate's unit tests. The proptest drives it and [`FlowNet`] with the
//! same operation sequence over random multi-segment topologies and
//! demands `to_bits()`-equal rates and byte counts after every single call
//! and an identical `(FlowId, SimTime)` completion sequence.
//!
//! It is a second engine, and is kept only while "not one bit moves" is the
//! contract. A change that moves bits on purpose (ROADMAP 5a, integer byte
//! accounting, is the planned one) should not be made twice: delete this
//! file with that change, or copy the engine of the commit before it over
//! `RefNet` if a later rework wants the same guarantee again.

use std::collections::BTreeMap;
use std::time::Duration;

use proptest::prelude::*;

use super::{ChunkSpec, FlowEvent, FlowId, FlowNet, NetError, COMPLETE_EPS};
use crate::tcp::{SustainedCap, TcpProfile};
use crate::time::{duration_from_secs_f64, SimTime};
use crate::topology::{Addr, LatencyModel, SegmentId, Topology};
use crate::DetRng;

#[derive(Debug)]
struct RefFlow {
    id: FlowId,
    path: Vec<SegmentId>,
    total_bytes: u64,
    sent: f64,
    tcp: TcpProfile,
    factor: f64,
    active_from: SimTime,
    rate: f64,
    parent: Option<FlowId>,
}

#[derive(Debug)]
struct RefTransfer {
    path: Vec<SegmentId>,
    tcp: TcpProfile,
    factor: f64,
    chunk_bytes: u64,
    total_bytes: u64,
    undispatched: u64,
    live: Vec<FlowId>,
    delivered: u64,
}

impl RefFlow {
    fn is_active(&self, now: SimTime) -> bool {
        now >= self.active_from
    }

    fn cap(&self, now: SimTime) -> f64 {
        let active = now
            .checked_duration_since(self.active_from)
            .unwrap_or_default();
        self.tcp.cap_at(active, self.sent as u64) * self.factor
    }

    fn next_cap_change(&self, now: SimTime) -> Option<SimTime> {
        if !self.is_active(now) {
            return Some(self.active_from);
        }
        let mut next: Option<SimTime> = None;
        let sustained_active = self
            .tcp
            .sustained
            .is_some_and(|s| self.sent as u64 >= s.threshold_bytes);
        if !sustained_active
            && self.tcp.ramp_bps_per_sec > 0.0
            && !self.tcp.ramp_step.is_zero()
            && self.cap(now) < self.tcp.rate_cap_bps * self.factor
        {
            let step_ns = self.tcp.ramp_step.as_nanos() as u64;
            let active_ns = (now - self.active_from).as_nanos() as u64;
            let k = active_ns / step_ns;
            let boundary = SimTime::from_nanos(self.active_from.as_nanos() + (k + 1) * step_ns);
            next = Some(boundary);
        }
        if let Some(s) = self.tcp.sustained {
            if (self.sent as u64) < s.threshold_bytes && self.rate > 0.0 {
                let secs = (s.threshold_bytes as f64 - self.sent) / self.rate;
                let at = now + duration_from_secs_f64(secs).max(Duration::from_nanos(1));
                next = Some(next.map_or(at, |n| n.min(at)));
            }
        }
        next
    }

    fn completion_time(&self, now: SimTime) -> Option<SimTime> {
        if !self.is_active(now) || self.rate <= 0.0 {
            return None;
        }
        let remaining = (self.total_bytes as f64 - self.sent).max(0.0);
        if remaining <= COMPLETE_EPS {
            return Some(now);
        }
        let secs = remaining / self.rate;
        Some(now + duration_from_secs_f64(secs).max(Duration::from_nanos(1)))
    }
}

#[derive(Debug)]
struct RefNet {
    topology: Topology,
    now: SimTime,
    flows: BTreeMap<FlowId, RefFlow>,
    transfers: BTreeMap<FlowId, RefTransfer>,
    next_id: u64,
    alloc_dirty: bool,
}

impl RefNet {
    fn new(topology: Topology) -> Self {
        RefNet {
            topology,
            now: SimTime::ZERO,
            flows: BTreeMap::new(),
            transfers: BTreeMap::new(),
            next_id: 0,
            alloc_dirty: false,
        }
    }

    fn flow_ids(&self) -> Vec<FlowId> {
        let mut ids: Vec<FlowId> = self
            .flows
            .values()
            .filter(|f| f.parent.is_none())
            .map(|f| f.id)
            .chain(self.transfers.keys().copied())
            .collect();
        ids.sort();
        ids
    }

    fn start_flow(
        &mut self,
        now: SimTime,
        src: Addr,
        dst: Addr,
        bytes: u64,
        rng: &mut DetRng,
    ) -> Result<FlowId, NetError> {
        assert!(now >= self.now);
        self.now = now;
        let route = self
            .topology
            .route_between(src, dst)
            .ok_or(NetError::NoRoute { src, dst })?;
        let factor = route.sample_bandwidth_factor(rng);
        let id = FlowId(self.next_id);
        self.next_id += 1;
        let flow = RefFlow {
            id,
            path: route.segments.clone(),
            total_bytes: bytes.max(1),
            sent: 0.0,
            tcp: route.tcp.clone(),
            factor,
            active_from: now + route.tcp.setup,
            rate: 0.0,
            parent: None,
        };
        self.flows.insert(id, flow);
        self.alloc_dirty = true;
        Ok(id)
    }

    fn start_transfer(
        &mut self,
        now: SimTime,
        src: Addr,
        dst: Addr,
        bytes: u64,
        chunking: Option<ChunkSpec>,
        rng: &mut DetRng,
    ) -> Result<FlowId, NetError> {
        let bytes = bytes.max(1);
        let Some(spec) = chunking else {
            return self.start_flow(now, src, dst, bytes, rng);
        };
        if spec.chunk_bytes == 0 || bytes <= spec.chunk_bytes || spec.window < 2 {
            return self.start_flow(now, src, dst, bytes, rng);
        }
        assert!(now >= self.now);
        self.now = now;
        let route = self
            .topology
            .route_between(src, dst)
            .ok_or(NetError::NoRoute { src, dst })?;
        let factor = route.sample_bandwidth_factor(rng);
        let id = FlowId(self.next_id);
        self.next_id += 1;
        let mut transfer = RefTransfer {
            path: route.segments.clone(),
            tcp: route.tcp.clone(),
            factor,
            chunk_bytes: spec.chunk_bytes,
            total_bytes: bytes,
            undispatched: bytes,
            live: Vec::new(),
            delivered: 0,
        };
        for _ in 0..spec.window {
            if !self.dispatch_chunk(id, &mut transfer) {
                break;
            }
        }
        self.transfers.insert(id, transfer);
        self.alloc_dirty = true;
        Ok(id)
    }

    fn dispatch_chunk(&mut self, parent: FlowId, transfer: &mut RefTransfer) -> bool {
        if transfer.undispatched == 0 {
            return false;
        }
        let bytes = transfer.undispatched.min(transfer.chunk_bytes);
        transfer.undispatched -= bytes;
        let id = FlowId(self.next_id);
        self.next_id += 1;
        let flow = RefFlow {
            id,
            path: transfer.path.clone(),
            total_bytes: bytes,
            sent: 0.0,
            tcp: transfer.tcp.clone(),
            factor: transfer.factor,
            active_from: self.now + transfer.tcp.setup,
            rate: 0.0,
            parent: Some(parent),
        };
        self.flows.insert(id, flow);
        transfer.live.push(id);
        true
    }

    fn cancel(&mut self, id: FlowId) -> bool {
        if let Some(transfer) = self.transfers.remove(&id) {
            for chunk in &transfer.live {
                self.flows.remove(chunk);
            }
            self.alloc_dirty = true;
            return true;
        }
        let Some(flow) = self.flows.remove(&id) else {
            return false;
        };
        self.alloc_dirty = true;
        if let Some(parent) = flow.parent {
            if let Some(t) = self.transfers.get_mut(&parent) {
                t.live.retain(|f| *f != id);
                t.total_bytes = t.total_bytes.saturating_sub(flow.total_bytes);
            }
        }
        true
    }

    fn next_event(&mut self) -> Option<SimTime> {
        if self.alloc_dirty {
            self.reallocate();
        }
        self.next_internal_event()
    }

    fn advance_into(&mut self, to: SimTime, out: &mut Vec<FlowEvent>) {
        assert!(to >= self.now, "cannot rewind flow engine");
        out.clear();
        while self.now < to {
            if self.alloc_dirty {
                self.reallocate();
            }
            let step_end = self
                .next_internal_event()
                .map_or(to, |t| t.min(to))
                .max(self.now);
            let dt = (step_end - self.now).as_secs_f64();
            if dt > 0.0 {
                for f in self.flows.values_mut() {
                    if f.is_active(self.now) && f.rate > 0.0 {
                        f.sent = (f.sent + f.rate * dt).min(f.total_bytes as f64);
                    }
                }
            }
            self.now = step_end;
            self.fire_completions(out);
            // Caps may have changed at this boundary (setup completion, ramp
            // step, sustained-threshold crossing) — always refresh rates.
            self.alloc_dirty = true;
        }
        // Completions landing exactly on `to` when the loop body didn't run.
        self.fire_completions(out);
    }

    fn fire_completions(&mut self, out: &mut Vec<FlowEvent>) {
        let now = self.now;
        let done: Vec<FlowId> = self
            .flows
            .values()
            .filter(|f| f.is_active(now) && f.sent + COMPLETE_EPS >= f.total_bytes as f64)
            .map(|f| f.id)
            .collect();
        for id in done {
            let flow = self.flows.remove(&id).expect("completion listed a flow");
            self.alloc_dirty = true;
            let Some(parent) = flow.parent else {
                out.push(FlowEvent::Completed { flow: id, at: now });
                continue;
            };
            let Some(mut transfer) = self.transfers.remove(&parent) else {
                continue;
            };
            transfer.live.retain(|f| *f != id);
            transfer.delivered += flow.total_bytes;
            self.dispatch_chunk(parent, &mut transfer);
            if transfer.live.is_empty() && transfer.undispatched == 0 {
                out.push(FlowEvent::Completed {
                    flow: parent,
                    at: now,
                });
            } else {
                self.transfers.insert(parent, transfer);
            }
        }
    }

    fn next_internal_event(&self) -> Option<SimTime> {
        let mut next: Option<SimTime> = None;
        for f in self.flows.values() {
            for t in [f.completion_time(self.now), f.next_cap_change(self.now)]
                .into_iter()
                .flatten()
            {
                next = Some(next.map_or(t, |n| n.min(t)));
            }
        }
        next
    }

    fn reallocate(&mut self) {
        let now = self.now;
        let mut residual: Vec<f64> = self
            .topology
            .segments()
            .iter()
            .map(|s| s.capacity_bps())
            .collect();
        let mut count = vec![0usize; residual.len()];
        let mut unfixed: Vec<FlowId> = Vec::new();
        for f in self.flows.values_mut() {
            if f.is_active(now) {
                for s in &f.path {
                    count[s.0] += 1;
                }
                unfixed.push(f.id);
            } else {
                f.rate = 0.0;
            }
        }
        while !unfixed.is_empty() {
            // Find the unfixed flow with the smallest achievable rate.
            let mut best: Option<(f64, usize)> = None;
            for (i, id) in unfixed.iter().enumerate() {
                let f = &self.flows[id];
                let share = f
                    .path
                    .iter()
                    .map(|s| residual[s.0].max(0.0) / count[s.0].max(1) as f64)
                    .fold(f64::INFINITY, f64::min);
                let r = f.cap(now).min(share);
                if best.is_none_or(|(b, _)| r < b) {
                    best = Some((r, i));
                }
            }
            let (rate, idx) = best.expect("unfixed flows must yield a candidate");
            let id = unfixed.swap_remove(idx);
            let path = {
                let f = self.flows.get_mut(&id).expect("flow exists");
                f.rate = rate;
                f.path.clone()
            };
            for s in &path {
                residual[s.0] -= rate;
                count[s.0] -= 1;
            }
        }
        self.alloc_dirty = false;
    }
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
/// profile is the LAN shape whose `0.15 / 0.05` ramp-step floor lands one
/// event after its integer-nanosecond boundary.
fn profile_strategy() -> impl Strategy<Value = TcpProfile> {
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
                profile_strategy(),
                prop_oneof![Just(0.0), Just(0.4)],
            ),
            SITES * SITES..SITES * SITES + 1,
        ),
    )
        .prop_map(|(capacities, routes)| World { capacities, routes })
}

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
    /// `next_event` alone: re-derives rates without moving the clock.
    Peek,
    /// Advances `permille` of the way to the next internal event
    /// (1000 = exactly onto it, above = across several boundaries).
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
        Just(Op::Peek),
        Just(Op::Advance { permille: 1000 }),
        Just(Op::Advance { permille: 1000 }),
        advance(1, 1000),
        advance(1001, 4000),
        (0.3..1.5f64).prop_map(|scale| Op::Recapacity { scale }),
    ]
}

/// Both engines hold bit-identical state.
fn compare(net: &FlowNet, oracle: &RefNet) -> Result<(), TestCaseError> {
    prop_assert_eq!(net.now, oracle.now);
    prop_assert_eq!(net.flows.len(), oracle.flows.len());
    for (f, r) in net.flows.iter().zip(oracle.flows.values()) {
        prop_assert_eq!(f.id, r.id);
        prop_assert_eq!(
            f.rate.to_bits(),
            r.rate.to_bits(),
            "rate of {:?}: {} vs {}",
            f.id,
            f.rate,
            r.rate
        );
        prop_assert_eq!(f.sent.to_bits(), r.sent.to_bits());
        prop_assert_eq!(&*net.paths[f.path], &*r.path);
        prop_assert_eq!(
            (f.total_bytes, f.active_from, f.parent),
            (r.total_bytes, r.active_from, r.parent)
        );
    }
    prop_assert_eq!(net.transfers.len(), oracle.transfers.len());
    for ((id, t), (rid, r)) in net.transfers.iter().zip(&oracle.transfers) {
        prop_assert_eq!(id, rid);
        prop_assert_eq!(&t.live, &r.live);
        prop_assert_eq!(
            (t.total_bytes, t.undispatched, t.delivered),
            (r.total_bytes, r.undispatched, r.delivered)
        );
    }
    prop_assert_eq!(net.flow_ids(), oracle.flow_ids());
    prop_assert_eq!(net.in_flight(), oracle.flow_ids().len());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn engine_matches_pre_rework_reference(
        world in world_strategy(),
        ops in proptest::collection::vec(op_strategy(), 1..120),
        seed in any::<u64>(),
    ) {
        let mut net = FlowNet::new(world.topology(&world.capacities));
        let mut oracle = RefNet::new(world.topology(&world.capacities));
        let (mut rng, mut oracle_rng) = (DetRng::seed(seed), DetRng::seed(seed));
        let (mut events, mut oracle_events) = (Vec::new(), Vec::new());
        let mut step = |net: &mut FlowNet, oracle: &mut RefNet, to: SimTime| {
            net.advance_into(to, &mut events);
            oracle.advance_into(to, &mut oracle_events);
            prop_assert_eq!(&events, &oracle_events);
            Ok(())
        };
        for op in ops {
            match op {
                Op::Start { src, dst, bytes, chunking } => {
                    let now = oracle.now;
                    let (src, dst) = (Addr::new(src as u64 * 2), Addr::new(dst as u64 * 2 + 1));
                    let id = net.start_transfer(now, src, dst, bytes, chunking, &mut rng);
                    let want = oracle.start_transfer(now, src, dst, bytes, chunking, &mut oracle_rng);
                    prop_assert_eq!(id, want);
                }
                Op::Cancel { pick } => {
                    let ids = oracle.flow_ids();
                    if let Some(&id) = ids.get(pick % ids.len().max(1)) {
                        prop_assert_eq!(net.cancel(id), oracle.cancel(id));
                    }
                }
                Op::Peek => prop_assert_eq!(net.next_event(), oracle.next_event()),
                Op::Advance { permille } => {
                    let next = oracle.next_event();
                    prop_assert_eq!(net.next_event(), next);
                    if let Some(t) = next {
                        let now = oracle.now.as_nanos();
                        let span = (t.as_nanos() - now) as u128 * permille as u128 / 1000;
                        step(&mut net, &mut oracle, SimTime::from_nanos(now + span as u64))?;
                    }
                }
                Op::Recapacity { scale } => {
                    let scaled: Vec<f64> = world.capacities.iter().map(|c| c * scale).collect();
                    *net.topology_mut() = world.topology(&scaled);
                    oracle.topology = world.topology(&scaled);
                }
            }
            compare(&net, &oracle)?;
        }
        // Drain both to idle in lockstep.
        let mut guard = 0;
        while let Some(t) = oracle.next_event() {
            prop_assert_eq!(net.next_event(), Some(t));
            step(&mut net, &mut oracle, t)?;
            compare(&net, &oracle)?;
            guard += 1;
            prop_assert!(guard < 100_000, "engines failed to converge");
        }
        prop_assert_eq!(net.next_event(), None);
        prop_assert_eq!(net.in_flight(), 0);
    }
}
