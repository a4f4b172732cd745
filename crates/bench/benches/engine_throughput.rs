//! Event-engine throughput — slab wheel vs `BinaryHeap`.
//!
//! Two sections:
//!
//! 1. **Hold model** (classic calendar-queue benchmark): pre-fill the
//!    queue with N pending events, then repeatedly pop-one/push-one so the
//!    population holds at N. Reports raw events/sec for the production
//!    slab-arena wheel (`EventQueue`) and the reference heap
//!    (`queue::reference::RefQueue`) at N = 1k / 10k / 100k / 1M. Delays
//!    span nine orders of magnitude (same splitmix64 stream for both
//!    engines), so the wheel pays its real cascade costs. Payloads are
//!    112 bytes — `size_of` of the runtime's event enum — so the heap
//!    moves what it would move in production.
//! 2. **Flow engine steady state**: `FlowNet` holding 200 LAN flows on the
//!    testbed topology, topped up as they finish. Rounds of `next_event` +
//!    `advance_into` that complete nothing must not allocate at all, and a
//!    flow's start and finish together at most a small constant. The polled
//!    variant moves the clock 10⁵ times without reaching any flow's next
//!    instant, as a driver polling `run_for(20 ms)` does: that must cost no
//!    pass over the flows (0 derivations, an exact count) and no allocation.
//!    The `flownet_solve` rows hold 50 / 200 / 800 flows on the LAN and time
//!    the max-min solve alone, once with every flow below its cap (a round
//!    evaluates one candidate — at most 2 per round is asserted, an exact
//!    count) and once with every cap binding (a round scans every unfixed
//!    flow).
//! 3. **DHT chained append**: chained puts to one key on a small overlay
//!    with replica targets — what every `store` does to its directory. The
//!    allocations one append makes must not depend on how many versions the
//!    record already holds (records are shared between copies, not copied).
//! 4. **Runtime ops/sec**: end-to-end mixed store/fetch workload on the
//!    paper testbed — how much of the engine win survives under the full
//!    stack (overlay, flows, services).
//!
//! The binary installs a counting global allocator and asserts — in smoke
//! and full mode alike, at every size including 10⁶ pending — that the
//! slab engine reaches an **allocation-free steady state**: hold chunks
//! run until an entire chunk performs zero heap acquisitions, and that
//! quiescent chunk is the reported measurement. The delay stream is
//! deterministic, so this is a hard regression gate, not a flaky timing
//! check. In full mode one speedup is also asserted: ≥ 2× over the heap
//! at 100k (the PR-6 bar).
//!
//! Run with: `cargo bench -p c4h-bench --bench engine_throughput`
//! (set `C4H_SMOKE=1` for the CI smoke variant: fewer hold ops, no
//! speedup assertion — the zero-alloc assertion still gates). The table
//! lands in `BENCH_engine_throughput.json` like every bench's.

use std::time::{Duration, Instant};

use c4h_bench::{allocations, banner, pump_overlay, BenchReport, CountingAlloc};
use c4h_chimera::{ChimeraConfig, ChimeraNode, DhtEvent, Key, OverwritePolicy};
use c4h_simnet::queue::reference::RefQueue;
use c4h_simnet::{presets, Addr, DetRng, EventQueue, FlowNet, SimTime, TcpProfile};
use c4h_telemetry::{CauseKind, OpLedger, Recorder, LEDGER_NONE};
use cloud4home::{Cloud4Home, Config, NodeId, Object, StorePolicy};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const SIZES: [usize; 4] = [1_000, 10_000, 100_000, 1_000_000];

/// 112-byte payload — exactly `size_of::<Event>()` for the runtime's
/// event enum, so the heap's sift moves what it would move in production.
type Payload = [u64; 14];

fn payload(seed: u64) -> Payload {
    [seed; 14]
}

fn smoke() -> bool {
    std::env::var_os("C4H_SMOKE").is_some()
}

/// Hold operations measured per size (after warmup).
fn hold_ops() -> u64 {
    if smoke() {
        200_000
    } else {
        2_000_000
    }
}

/// Deterministic splitmix64 — identical delay streams for all engines.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Delays from 1 ns to ~30 s, log-uniform-ish, with occasional exact
    /// ties — the distribution simulation timers actually draw from.
    fn delay(&mut self) -> u64 {
        let r = self.next();
        if r.is_multiple_of(16) {
            0
        } else {
            r % (1u64 << (4 + (r >> 8) % 31))
        }
    }
}

/// Chunks to try before giving up on allocator quiescence.
const MAX_CHUNKS: u64 = 40;

/// Generates a hold-model runner for one queue engine. Both engines
/// share the schedule_in/pop API, identical seeds, and identical op
/// streams; each returns (events/sec, heap acquisitions, warm chunks).
///
/// Steady state is found, not assumed: bucket vectors and the slab
/// free-list grow toward high-water marks that a fixed warmup cannot be
/// proven to reach (capacity records keep creeping, ever more rarely).
/// So the runner executes hold chunks of `max(ops, n)` events until one
/// entire chunk performs **zero** heap acquisitions, and reports that
/// chunk's throughput and allocation count. The splitmix64 stream is
/// deterministic, so the number of warm chunks — and the final verdict —
/// is reproducible, not timing-dependent. If no chunk quiesces within
/// [`MAX_CHUNKS`], the last chunk's (rate, allocs) is returned and the
/// caller's assertion reports the failure.
macro_rules! hold_model {
    ($(#[$doc:meta])* $name:ident, $queue:ty) => {
        $(#[$doc])*
        fn $name(n: usize, ops: u64) -> (f64, u64, u64) {
            let mut q: $queue = <$queue>::new();
            let mut mix = Mix(0x000e_1113 + n as u64);
            for i in 0..n as u64 {
                q.schedule_in(Duration::from_nanos(mix.delay()), payload(i));
            }
            let chunk = ops.max(n as u64);
            let mut rate = 0.0;
            let mut allocs = u64::MAX;
            let mut warm = 0;
            for c in 0..MAX_CHUNKS {
                let allocs0 = allocations();
                let started = Instant::now();
                for i in 0..chunk {
                    let (_, p) = q.pop().expect("population is held at n");
                    q.schedule_in(Duration::from_nanos(mix.delay()), payload(p[0] ^ i));
                }
                rate = chunk as f64 / started.elapsed().as_secs_f64();
                allocs = allocations() - allocs0;
                warm = c;
                if allocs == 0 {
                    break;
                }
            }
            (rate, allocs, warm)
        }
    };
}

hold_model!(
    /// The production slab-arena wheel: POD slots in buckets, payloads
    /// parked in a generational slab with free-list reuse.
    hold_slab,
    EventQueue<Payload>
);
hold_model!(
    /// The `BinaryHeap` oracle.
    hold_heap,
    RefQueue<Payload>
);

/// Causal-ledger steady-state overhead on the hold model at 100k pending.
///
/// Base chunks run pop/push plus the production *disabled* path (one
/// relaxed `enabled()` load per event). Ledger chunks additionally record
/// one causal event per [`DECISION_EVERY`] pops into a warmed working set
/// of [`LEDGER_RINGS`] op rings — still denser than production, where an
/// op records a handful of decisions across *thousands* of engine events,
/// and harsher: every warmed ring sits at capacity, so each record pays
/// the full chain-protecting eviction, the ledger's worst case. Both
/// modes run chunks until one performs zero heap acquisitions (same
/// quiescence protocol as the hold model), then report the best of three
/// quiescent chunks each, interleaved to share thermal/scheduler drift.
/// Returns (base events/sec, ledger events/sec, ledger-chunk allocs).
fn explain_overhead(ops: u64) -> (f64, f64, u64) {
    const N: usize = 100_000;
    const LEDGER_RINGS: u64 = 128;
    const DECISION_EVERY: u64 = 64;
    let chunk = ops.max(N as u64);

    let mut q: EventQueue<Payload> = EventQueue::new();
    let mut mix = Mix(0x000e_1113 + N as u64);
    for i in 0..N as u64 {
        q.schedule_in(Duration::from_nanos(mix.delay()), payload(i));
    }
    let mut ledger = OpLedger::new(64);
    // Warm every ring in the working set: the first record for an op id
    // allocates its ring; steady state then reuses it forever.
    ledger.set_enabled(true);
    for op in 0..LEDGER_RINGS {
        ledger.record(op, CauseKind::Admit, LEDGER_NONE, 0, 0, 0);
    }

    // One closure drives both modes so the instruction stream differs only
    // by the ledger work itself.
    let mut run_chunk = |ledger: &mut OpLedger, on: bool| -> (f64, u64) {
        ledger.set_enabled(on);
        let allocs0 = allocations();
        let started = Instant::now();
        for i in 0..chunk {
            let (t, p) = q.pop().expect("population is held at n");
            q.schedule_in(Duration::from_nanos(mix.delay()), payload(p[0] ^ i));
            if i.is_multiple_of(DECISION_EVERY) {
                // Disabled: this is the one-relaxed-load fast path.
                ledger.record(
                    p[0] % LEDGER_RINGS,
                    CauseKind::Backoff,
                    LEDGER_NONE,
                    t.as_nanos(),
                    i,
                    0,
                );
            }
        }
        let rate = chunk as f64 / started.elapsed().as_secs_f64();
        (rate, allocations() - allocs0)
    };

    let mut quiesce = |ledger: &mut OpLedger, on: bool| -> u64 {
        for _ in 0..MAX_CHUNKS {
            let (_, allocs) = run_chunk(ledger, on);
            if allocs == 0 {
                return 0;
            }
        }
        run_chunk(ledger, on).1
    };
    let base_allocs = quiesce(&mut ledger, false);
    let ledger_allocs = quiesce(&mut ledger, true);

    let mut base = 0.0f64;
    let mut on = 0.0f64;
    let mut on_allocs = base_allocs.max(ledger_allocs);
    for _ in 0..3 {
        let (r, _) = run_chunk(&mut ledger, false);
        base = base.max(r);
        let (r, a) = run_chunk(&mut ledger, true);
        on = on.max(r);
        on_allocs = on_allocs.max(a);
    }
    (base, on, on_allocs)
}

/// Flows the steady-state `FlowNet` row keeps in flight.
const FLOWNET_INFLIGHT: usize = 200;

/// Home nodes attached to the `FlowNet` rows' testbed topology.
const NODES: u64 = 6;

/// `FlowNet` on the paper testbed's topology with [`NODES`] home nodes and
/// a (disabled) recorder attached as the runtime attaches one.
fn testbed_flownet() -> FlowNet {
    let mut tb = presets::paper_testbed();
    for i in 0..NODES {
        tb.topology.attach(Addr::new(i), tb.home);
    }
    let mut net = FlowNet::new(tb.topology);
    net.set_recorder(Recorder::new());
    net
}

/// [`testbed_flownet`] holding [`FLOWNET_INFLIGHT`] LAN flows of mixed
/// sizes. After a warm-up that lets every buffer reach its
/// high-water mark, each `next_event` + `advance_into` round is charged to
/// "quiet" when it completed nothing and to "churn" — together with the
/// refill that follows — when it did. Returns (flows finished per second,
/// quiet-round allocations, churn allocations per finished flow).
fn flownet_steady(finishes: u64) -> (f64, u64, f64) {
    let mut net = testbed_flownet();
    let mut rng = DetRng::seed(0xF10);
    let mut started = 0u64;
    let mut refill = |net: &mut FlowNet, now: SimTime| {
        while net.in_flight() < FLOWNET_INFLIGHT {
            let src = started % NODES;
            let dst = (src + 1 + (started / NODES) % (NODES - 1)) % NODES;
            let bytes = rng.uniform_u64(128 << 10, 384 << 10);
            net.start_flow(now, Addr::new(src), Addr::new(dst), bytes, &mut rng)
                .expect("both endpoints are attached");
            started += 1;
        }
    };
    refill(&mut net, SimTime::ZERO);
    let mut out = Vec::new();
    let mut run = |net: &mut FlowNet, finishes: u64| -> (u64, u64) {
        let (mut done, mut quiet, mut churn) = (0, 0, 0);
        while done < finishes {
            let allocs0 = allocations();
            let now = net.next_event().expect("flows are in flight");
            net.advance_into(now, &mut out);
            if out.is_empty() {
                quiet += allocations() - allocs0;
            } else {
                done += out.len() as u64;
                refill(net, now);
                churn += allocations() - allocs0;
            }
        }
        (quiet, churn)
    };
    run(&mut net, 2 * FLOWNET_INFLIGHT as u64);
    let timer = Instant::now();
    let (quiet, churn) = run(&mut net, finishes);
    let rate = finishes as f64 / timer.elapsed().as_secs_f64();
    (rate, quiet, churn as f64 / finishes as f64)
}

/// Clock moves the polled `FlowNet` row makes between two internal instants.
const FLOWNET_POLLS: u64 = 100_000;

/// The same [`FLOWNET_INFLIGHT`] LAN flows, polled: once the flows are out
/// of setup, [`FLOWNET_POLLS`] `advance_into` + `next_event` rounds spread
/// over the gap before the engine's next internal instant, reaching none.
/// Returns (derivations, allocations, ns per poll) over those rounds.
fn flownet_polled() -> (u64, u64, f64) {
    let mut net = testbed_flownet();
    let mut rng = DetRng::seed(0xF10);
    for i in 0..FLOWNET_INFLIGHT as u64 {
        let (src, dst) = (Addr::new(i % NODES), Addr::new((i + 1) % NODES));
        let bytes = rng.uniform_u64(128 << 10, 384 << 10);
        net.start_flow(SimTime::ZERO, src, dst, bytes, &mut rng)
            .expect("both endpoints are attached");
    }
    let mut out = Vec::new();
    let active = net.next_event().expect("flows are in setup");
    net.advance_into(active, &mut out);
    let next = net.next_event().expect("flows are moving").as_nanos();
    let gap = next - active.as_nanos();
    assert!(gap > FLOWNET_POLLS, "no room to poll before {next}");
    let (derives0, allocs0) = (net.counters().derives, allocations());
    let timer = Instant::now();
    for i in 1..=FLOWNET_POLLS {
        let to = active.as_nanos() + gap * i / (FLOWNET_POLLS + 1);
        net.advance_into(SimTime::from_nanos(to), &mut out);
        assert!(out.is_empty() && net.next_event().is_some_and(|t| t.as_nanos() == next));
    }
    let ns = timer.elapsed().as_nanos() as f64 / FLOWNET_POLLS as f64;
    let derives = net.counters().derives - derives0;
    (derives, allocations() - allocs0, ns)
}

/// In-flight flow counts of the `flownet_solve` rows.
const SOLVE_INFLIGHT: [usize; 3] = [50, 200, 800];

/// The max-min solve alone, at `inflight` LAN flows topped up as they
/// finish: with the LAN's own profile every flow is offered less than its
/// cap, with `cap_limited` every flow's cap is a quarter of its share. Setup
/// is zero in both, so a solve's filling rounds number the flows in flight.
/// Times the engine calls that solved, over `solves` of them; returns (ns
/// per solve, candidates per filling round).
fn flownet_solve(inflight: usize, cap_limited: bool, solves: u64) -> (f64, f64) {
    let mut tb = presets::paper_testbed();
    for i in 0..NODES {
        tb.topology.attach(Addr::new(i), tb.home);
    }
    let lan = tb.topology.route_mut(tb.home, tb.home).expect("LAN route");
    if cap_limited {
        let share = presets::home_lan_capacity_bps() / inflight as f64;
        lan.tcp = TcpProfile::constant_rate(share / 4.0);
    }
    lan.tcp.setup = Duration::ZERO;
    let mut net = FlowNet::new(tb.topology);
    let mut rng = DetRng::seed(0x501);
    let mut started = 0u64;
    let mut refill = |net: &mut FlowNet, now: SimTime| {
        while net.in_flight() < inflight {
            let (src, dst) = (started % NODES, (started + 1) % NODES);
            let bytes = rng.uniform_u64(128 << 10, 384 << 10);
            net.start_flow(now, Addr::new(src), Addr::new(dst), bytes, &mut rng)
                .expect("both endpoints are attached");
            started += 1;
        }
    };
    refill(&mut net, SimTime::ZERO);
    let mut out = Vec::new();
    // (time spent in calls that solved, filling rounds of those solves)
    let mut tally = (Duration::ZERO, 0u64);
    let first = net.counters();
    // A finish solves twice: inside `advance_into` for the flows left, and
    // at the next `next_event` once the refill has joined them.
    while net.counters().solves - first.solves < solves {
        let now = timed_if_solved(&mut net, &mut tally, |net| {
            net.next_event().expect("flows are in flight")
        });
        timed_if_solved(&mut net, &mut tally, |net| net.advance_into(now, &mut out));
        refill(&mut net, now);
    }
    let (spent, rounds) = tally;
    let last = net.counters();
    let ns = spent.as_nanos() as f64 / (last.solves - first.solves) as f64;
    (
        ns,
        (last.candidates - first.candidates) as f64 / rounds as f64,
    )
}

/// Runs `call` and, if it made the engine solve, adds its duration and the
/// solve's filling rounds (the flows in flight) to `tally`.
fn timed_if_solved<T>(
    net: &mut FlowNet,
    tally: &mut (Duration, u64),
    call: impl FnOnce(&mut FlowNet) -> T,
) -> T {
    let before = net.counters().solves;
    let timer = Instant::now();
    let result = call(net);
    let took = timer.elapsed();
    if net.counters().solves > before {
        tally.0 += took;
        tally.1 += net.in_flight() as u64;
    }
    result
}

/// Chain lengths at which [`dht_chain_append`] measures one append.
const CHAIN_LENGTHS: [u64; 3] = [10, 1_000, 100_000];

/// Appends measured at each chain length.
const CHAIN_WINDOW: u64 = 64;

/// Chained puts to one key on four overlay nodes wired by direct delivery,
/// two replica targets per record: the root appends, re-reads the record and
/// sends a copy to each target, as for every directory entry a `store`
/// writes. Returns (allocations per append, ns per append) over
/// [`CHAIN_WINDOW`] appends starting at each of [`CHAIN_LENGTHS`]; an append
/// runs from `put` until the origin has its `PutCompleted`.
fn dht_chain_append() -> Vec<(f64, f64)> {
    let now = SimTime::ZERO;
    let config = ChimeraConfig {
        replication: 2,
        ..ChimeraConfig::default()
    };
    let mut nodes: Vec<ChimeraNode> = (0..4)
        .map(|i| ChimeraNode::new(Key::from_name(&format!("chain-{i}")), config.clone()))
        .collect();
    nodes[0].bootstrap(now);
    let seed = nodes[0].id();
    for i in 1..nodes.len() {
        nodes[i].join_via(seed, now);
        pump_overlay(&mut nodes);
    }
    let key = Key::from_name("chain/dir");
    let mut len = 0u64;
    let mut append = |nodes: &mut Vec<ChimeraNode>| {
        len += 1;
        let entry = len.to_le_bytes().to_vec();
        nodes[0]
            .put(key, entry, OverwritePolicy::Chain, now)
            .expect("joined");
        pump_overlay(nodes);
        let mut acked = false;
        while let Some(ev) = nodes[0].poll_event() {
            acked |= matches!(ev, DhtEvent::PutCompleted { result: Ok(v), .. } if v == len);
        }
        assert!(acked, "append {len} was not acknowledged");
        len
    };
    let mut rows = Vec::new();
    for start in CHAIN_LENGTHS {
        while append(&mut nodes) < start {}
        let allocs0 = allocations();
        let timer = Instant::now();
        for _ in 0..CHAIN_WINDOW {
            append(&mut nodes);
        }
        let ns = timer.elapsed().as_nanos() as f64 / CHAIN_WINDOW as f64;
        let allocs = (allocations() - allocs0) as f64 / CHAIN_WINDOW as f64;
        rows.push((allocs, ns));
    }
    // The root and both replica targets hold the whole chain.
    let holders = nodes.iter().filter_map(|n| n.local_get(key));
    assert_eq!(holders.filter(|v| v.version() == len).count(), 3);
    rows
}

/// End-to-end ops/sec: a mixed store/fetch workload on the paper testbed,
/// wall-clock timed through the full stack.
fn runtime_ops_per_sec() -> (u64, f64) {
    let rounds = if smoke() { 4u64 } else { 40 };
    let mut config = Config::paper_testbed(61_803);
    config.replication = 2;
    let mut home = Cloud4Home::new(config);
    let n = home.node_count();
    let started = Instant::now();
    let mut done = 0u64;
    for r in 0..rounds {
        for i in 0..6u64 {
            let name = format!("engine/{r}/{i}.bin");
            let obj = Object::synthetic(&name, r * 6 + i, (64 + 32 * i) << 10, "doc");
            let op = home.store_object(
                NodeId((r as usize + i as usize) % n),
                obj,
                StorePolicy::MandatoryFirst,
                true,
            );
            home.run_until_complete(op).expect_ok();
            let op = home.fetch_object(NodeId((r as usize + i as usize + 3) % n), &name);
            home.run_until_complete(op).expect_ok();
            done += 2;
        }
    }
    home.run_until_idle();
    (done, done as f64 / started.elapsed().as_secs_f64())
}

fn main() {
    banner(
        "Engine throughput",
        "slab wheel vs BinaryHeap (hold model + full stack)",
    );
    let ops = hold_ops();
    println!(
        "{:>8} | {:>13} {:>13} {:>8} {:>9}",
        "pending", "slab (ev/s)", "heap (ev/s)", "vs heap", "allocs"
    );
    println!("{}", "-".repeat(58));

    let mut report = BenchReport::new("engine_throughput");
    report.config("smoke", smoke());
    report.config("hold_ops_per_point", ops);

    let mut vs_heap_100k = 0.0;
    for n in SIZES {
        let (slab, slab_allocs, warm) = hold_slab(n, ops);
        let (heap, _, _) = hold_heap(n, ops);
        let vs_heap = slab / heap;
        if n == 100_000 {
            vs_heap_100k = vs_heap;
        }
        println!("{n:>8} | {slab:>13.0} {heap:>13.0} {vs_heap:>7.2}x {slab_allocs:>9}");
        report.push_row(vec![
            ("pending", n.into()),
            ("slab_events_per_sec", slab.round().into()),
            ("heap_events_per_sec", heap.round().into()),
            ("speedup_vs_heap", vs_heap.into()),
            ("slab_allocs", slab_allocs.into()),
            ("warm_chunks", warm.into()),
        ]);
        // The tentpole contract: once warm, the slab engine never touches
        // the heap — at any population, 10⁶ included. Deterministic delay
        // stream ⇒ deterministic verdict.
        report.check(
            &format!("zero_alloc_steady_state_{n}"),
            slab_allocs == 0,
            format!(
                "slab EventQueue steady-state chunk at n={n} made {slab_allocs} \
                 allocations ({MAX_CHUNKS} chunks tried); the hot path must be \
                 allocation-free"
            ),
        );
    }

    // Causal-ledger overhead: recording decisions into warmed rings must
    // stay allocation-free and within 3% of the ledger-off rate. Hard
    // gates in smoke and full mode alike — the alloc check is exact and
    // the rate check compares two interleaved best-of-three chunk runs on
    // the same core, so it doesn't inherit shared-runner absolute-speed
    // noise the way a wall-clock bar would.
    let (base, on, ledger_allocs) = explain_overhead(ops);
    let ratio = on / base;
    println!(
        "\nexplain overhead @100k: base {base:.0} ev/s, ledger-on {on:.0} ev/s \
         ({:.1}% cost, {ledger_allocs} allocs)",
        (1.0 - ratio) * 100.0
    );
    report.push_row(vec![
        ("pending", 100_000u64.into()),
        ("ledger_off_events_per_sec", base.round().into()),
        ("ledger_on_events_per_sec", on.round().into()),
        ("ledger_on_ratio", ratio.into()),
        ("ledger_allocs", ledger_allocs.into()),
    ]);
    report.check(
        "explain_zero_alloc",
        ledger_allocs == 0,
        format!("ledger-enabled steady-state chunk made {ledger_allocs} allocations"),
    );
    report.check(
        "explain_overhead_3pct",
        ratio >= 0.97,
        format!(
            "ledger-enabled hold rate is {:.1}% of base at 100k pending \
             (must stay >= 97%)",
            ratio * 100.0
        ),
    );

    // Flow engine steady state: exact allocation counts, gated in smoke
    // and full mode alike.
    let flow_finishes = if smoke() { 2_000 } else { 20_000 };
    let (flow_rate, quiet_allocs, churn_allocs) = flownet_steady(flow_finishes);
    println!(
        "flownet steady @{FLOWNET_INFLIGHT} flows: {flow_rate:.0} flows/sec, \
         {quiet_allocs} allocs in quiet rounds, {churn_allocs:.2} allocs per finished flow"
    );
    report.push_row(vec![
        ("flownet_inflight", FLOWNET_INFLIGHT.into()),
        ("flownet_flows_per_sec", flow_rate.round().into()),
        ("flownet_quiet_allocs", quiet_allocs.into()),
        ("flownet_allocs_per_flow", churn_allocs.into()),
    ]);
    report.check(
        "flownet_steady_zero_alloc",
        quiet_allocs == 0,
        format!(
            "next_event + advance_into rounds that completed no flow made \
             {quiet_allocs} allocations; reallocation must reuse its buffers"
        ),
    );
    report.check(
        "flownet_steady_allocs_per_flow",
        churn_allocs <= 2.0,
        format!(
            "starting and finishing a flow made {churn_allocs:.2} allocations \
             (must stay <= 2)"
        ),
    );

    let (poll_derives, poll_allocs, poll_ns) = flownet_polled();
    println!(
        "flownet polled @{FLOWNET_INFLIGHT} flows: {FLOWNET_POLLS} clock moves short of the \
         next instant, {poll_derives} derivations, {poll_allocs} allocs, {poll_ns:.1} ns per poll"
    );
    report.push_row(vec![
        ("flownet_inflight", FLOWNET_INFLIGHT.into()),
        ("flownet_polls", FLOWNET_POLLS.into()),
        ("flownet_poll_derives", poll_derives.into()),
        ("flownet_poll_allocs", poll_allocs.into()),
        ("flownet_ns_per_poll", poll_ns.into()),
    ]);
    report.check(
        "flownet_polled_zero_derives",
        poll_derives == 0,
        format!(
            "{FLOWNET_POLLS} clock moves that reached no internal instant made the engine \
             pass over its flows {poll_derives} times; a poll must be `now = to`"
        ),
    );
    report.check(
        "flownet_polled_zero_alloc",
        poll_allocs == 0,
        format!("polling made {poll_allocs} allocations"),
    );

    // The solve's cost follows what binds: one candidate per filling round
    // while no cap can bind (an exact count, gated in both modes), a scan
    // of the unfixed flows per round when every cap does.
    for inflight in SOLVE_INFLIGHT {
        for cap_limited in [false, true] {
            let solves = if smoke() { 200 } else { 2_000 };
            let (ns, per_round) = flownet_solve(inflight, cap_limited, solves);
            let kind = if cap_limited {
                "cap-limited"
            } else {
                "share-limited"
            };
            println!(
                "flownet solve @{inflight:>3} flows, {kind:>13}: {ns:>9.0} ns per solve, \
                 {per_round:.2} candidates per round"
            );
            report.push_row(vec![
                ("flownet_solve_inflight", inflight.into()),
                ("flownet_solve_cap_limited", cap_limited.into()),
                ("flownet_solve_ns", ns.round().into()),
                ("flownet_solve_candidates_per_round", per_round.into()),
            ]);
            if !cap_limited {
                report.check(
                    &format!("flownet_solve_candidates_per_round_{inflight}"),
                    per_round <= 2.0,
                    format!(
                        "a filling round of {inflight} flows below their caps evaluated \
                         {per_round:.2} candidates (must stay <= 2: the round's lower bound \
                         is its answer)"
                    ),
                );
            }
        }
    }

    // A count gate, not a clock: an append to a 100 000-entry directory
    // allocates exactly what an append to a 10-entry one does. Copying the
    // record anywhere on the put path adds one allocation per entry per copy.
    let chain = dht_chain_append();
    for (&len, &(allocs, ns)) in CHAIN_LENGTHS.iter().zip(&chain) {
        println!("dht chain append @{len:>6} versions: {allocs:.2} allocs, {ns:.0} ns per append");
        report.push_row(vec![
            ("dht_chain_len", len.into()),
            ("dht_chain_append_allocs", allocs.into()),
            ("dht_chain_append_ns", ns.round().into()),
        ]);
    }
    let (short, long) = (chain[0].0, chain[CHAIN_LENGTHS.len() - 1].0);
    report.check(
        "dht_chain_append_allocs_flat",
        short == long,
        format!(
            "a chained put allocates {short:.2} times at {} versions but {long:.2} at {}; \
             the record must be shared between its copies, not copied",
            CHAIN_LENGTHS[0],
            CHAIN_LENGTHS[CHAIN_LENGTHS.len() - 1]
        ),
    );

    let (runtime_ops, runtime_rate) = runtime_ops_per_sec();
    println!("full stack: {runtime_ops} mixed ops at {runtime_rate:.0} ops/sec wall");
    report.push_row(vec![
        ("runtime_ops", runtime_ops.into()),
        ("runtime_ops_per_sec", runtime_rate.into()),
    ]);

    // Timing acceptance bar. Smoke runs (CI shared runners, tiny op
    // counts) print but don't gate on wall-clock ratios; the zero-alloc
    // and ledger-overhead checks above gate everywhere.
    if !smoke() {
        report.check(
            "speedup_vs_heap_100k",
            vs_heap_100k >= 2.0,
            format!(
                "slab wheel must be >=2x the BinaryHeap reference at 100k \
                 pending events; measured {vs_heap_100k:.2}x"
            ),
        );
    }
    report.finish();
}
