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
//!    128 bytes — `size_of` of the runtime's event enum — so the heap
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
//!    flow). They also print the caps a derivation re-read: those of the
//!    flows at their own instant, not of every flow in flight.
//! 3. **DHT chained append**: chained puts to one key on a small overlay
//!    with replica targets — what every `store` does to its directory. The
//!    allocations one append makes must not depend on how many versions the
//!    record already holds (records are shared between copies, not copied).
//! 4. **Overlay deliveries** (`overlay_1k`): rings of 64 and 1 000 nodes,
//!    each holding the whole ring as its view, through ping/pong rounds by
//!    direct delivery, then leaf-covered and full-view-fallback `route`
//!    calls. Neither may allocate (an exact count); what a delivery and a
//!    route call cost at each size is printed — they should not grow with
//!    the ring.
//! 5. **Service kernels**: the allocations one `run` of the transcoder,
//!    the face detector and the face recognizer makes on a 64 KiB window,
//!    gated at what the byte-at-a-time kernels made.
//! 6. **Runtime ops/sec**: end-to-end mixed store/fetch workload on the
//!    paper testbed — how much of the engine win survives under the full
//!    stack (overlay, flows, services). Its event queue may scan the wheel
//!    for the earliest bucket at most once per popped event or clock
//!    advance (an exact count).
//! 7. **One allocation per DHT record**: `Record::encode` of every kind (and
//!    `DirEntry::encode`) makes exactly one allocation, the record's shared
//!    bytes; an overwrite put on a chimera-only ring, with a recorder
//!    attached but switched off, that crosses forwarding hops holding the
//!    key in their path caches and replicates to the leaf set makes none;
//!    and on the warmed idle paper testbed (recording off) the runtime
//!    allocates at most 1.1 times per resource record it publishes. All
//!    three are counts.
//! 8. **A recording plane that allocates nothing per event**: after a
//!    warm-up, 10 000 mixed `begin`/`end`/`span`/`instant` calls with 0-7
//!    arguments (borrowed strings included, spans ended out of order)
//!    allocate only the event log's own chunk growth — at most 32 in all
//!    (the event-per-record recorder made 2-3 per event) — and the same
//!    calls on a disabled recorder allocate nothing. Both are counts.
//!
//! 9. **The membership view in one arena**: `Cloud4Home::new` on the
//!    `neighborhood-1k` world (1 000 nodes, leaf sets of 2, replication 2)
//!    joins every node by protocol; it makes at most 50 000 allocations (a
//!    boxed view made 561 704, one per view entry). A view bulk-loaded from
//!    1 000 sorted entries is exactly one allocation, and iterating it
//!    allocates nothing. All three are counts; the join's host time is
//!    printed, and in full mode the 2 000-node join too.
//! 10. **Input generation**: host milliseconds per `generate` of the
//!     `testbed-trace` trace shape (10 000 ops over 1 300 files) and per
//!     1 000 `arrivals` over `flash-crowd`'s 2 048-object catalog — the
//!     benchmark counts both in `setup_s`. Printed as advisory host time,
//!     the fastest of a few calls; not gated.
//! 11. **Per-op copies**: the exact heap acquisitions of one home store
//!     (an overwrite), one home fetch, one fetch of a cloud-located object
//!     and one transcode on the paper testbed, recording off: 3 / 2 / 1 /
//!     17 (the `String`-field records made 7 / 6 / 10 / 37). What is left
//!     is the records' own bytes, a directory version's chain link, the
//!     `Get` path, the decision's candidate lists and the kernel's output —
//!     a per-op `String` or record copy that comes back fails the gate.
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

use std::sync::Arc;
use std::time::{Duration, Instant};

use c4h_bench::{
    allocations, banner, neighborhood_config, pump_overlay, testbed_trace_config, BenchReport,
    CountingAlloc,
};
use c4h_chimera::{
    route, ChimeraConfig, ChimeraNode, DhtEvent, Key, LeafSet, OverwritePolicy, RbTree,
    RoutingTable, StoredValue,
};
use c4h_kvstore::{
    Acl, DirEntry, Location, ObjectMeta, Record, ResourceRecord, ServiceRecord, StripeRecord,
};
use c4h_services::{FaceDetect, FaceRecognize, Service, TrainingSet, Transcode};
use c4h_simnet::queue::reference::RefQueue;
use c4h_simnet::{
    presets, Addr, DetRng, EventQueue, FlowNet, FxHashMap, QueueStats, SimTime, TcpProfile,
};
use c4h_telemetry::{ArgValue, CauseKind, OpLedger, Recorder, SpanId, LEDGER_NONE};
use c4h_workloads::{arrivals, generate, OpenLoopConfig};
use cloud4home::{
    synth_bytes, Cloud4Home, Config, NodeId, Object, OpId, RoutePolicy, ServiceKind, StorePolicy,
    SAMPLE_WINDOW,
};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const SIZES: [usize; 4] = [1_000, 10_000, 100_000, 1_000_000];

/// 128-byte payload — exactly `size_of::<Event>()` for the runtime's
/// event enum, so the heap's sift moves what it would move in production.
type Payload = [u64; 16];

fn payload(seed: u64) -> Payload {
    [seed; 16]
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

/// What [`explain_overhead`] measured over its three interleaved pairs of
/// quiescent chunks.
struct ExplainOverhead {
    /// Best ledger-off and ledger-on hold rates (events/sec): advisory.
    base_rate: f64,
    on_rate: f64,
    /// Heap acquisitions of the worst ledger-on chunk.
    on_allocs: u64,
    /// Hold events per mode, and ledger records made in each mode.
    events: u64,
    off_records: u64,
    on_records: u64,
    /// Records the ledger-on chunks must make: one per [`DECISION_EVERY`]
    /// events, exactly.
    on_records_due: u64,
}

/// Hold events per causal decision in [`explain_overhead`].
const DECISION_EVERY: u64 = 64;

/// Causal-ledger steady-state cost on the hold model at 100k pending.
///
/// Base chunks run pop/push plus the production *disabled* path (one
/// relaxed `enabled()` load per event). Ledger chunks additionally record
/// one causal event per [`DECISION_EVERY`] pops into a warmed working set
/// of [`LEDGER_RINGS`] op rings — still denser than production, where an
/// op records a handful of decisions across *thousands* of engine events,
/// and harsher: every warmed ring sits at capacity, so each record pays
/// the full chain-protecting eviction, the ledger's worst case. Both
/// modes run chunks until one performs zero heap acquisitions (same
/// quiescence protocol as the hold model), then three quiescent chunks
/// each, interleaved. The gated results are counts — allocations and
/// ledger records per event; the two rates are printed as advisory.
fn explain_overhead(ops: u64) -> ExplainOverhead {
    const N: usize = 100_000;
    const LEDGER_RINGS: u64 = 128;
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
    // by the ledger work itself. Returns (rate, allocations, records).
    let mut run_chunk = |ledger: &mut OpLedger, on: bool| -> (f64, u64, u64) {
        ledger.set_enabled(on);
        let (allocs0, records0) = (allocations(), ledger.recorded());
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
        (rate, allocations() - allocs0, ledger.recorded() - records0)
    };

    let mut quiesce = |ledger: &mut OpLedger, on: bool| -> u64 {
        for _ in 0..MAX_CHUNKS {
            let (_, allocs, _) = run_chunk(ledger, on);
            if allocs == 0 {
                return 0;
            }
        }
        run_chunk(ledger, on).1
    };
    let base_allocs = quiesce(&mut ledger, false);
    let ledger_allocs = quiesce(&mut ledger, true);

    let mut out = ExplainOverhead {
        base_rate: 0.0,
        on_rate: 0.0,
        on_allocs: base_allocs.max(ledger_allocs),
        events: 3 * chunk,
        off_records: 0,
        on_records: 0,
        on_records_due: 3 * chunk.div_ceil(DECISION_EVERY),
    };
    for _ in 0..3 {
        let (r, _, records) = run_chunk(&mut ledger, false);
        out.base_rate = out.base_rate.max(r);
        out.off_records += records;
        let (r, a, records) = run_chunk(&mut ledger, true);
        out.on_rate = out.on_rate.max(r);
        out.on_allocs = out.on_allocs.max(a);
        out.on_records += records;
    }
    out
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
/// per solve, candidates per filling round, caps read per derivation).
fn flownet_solve(inflight: usize, cap_limited: bool, solves: u64) -> (f64, f64, f64) {
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
        (last.cap_reads - first.cap_reads) as f64 / (last.derives - first.derives) as f64,
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

/// Encodes per kind in the `record_encode` row.
const ENCODE_REPS: u64 = 64;

/// Allocations per encode for a record of each kind at the shape the
/// workloads publish, and for a directory entry. Each encode is the
/// record's one allocation: its exactly sized shared bytes.
fn record_encode_allocs() -> Vec<(&'static str, f64)> {
    let key = |name: &str| Key::from_name(name);
    let records = [
        (
            "resource",
            Record::Resource(ResourceRecord {
                node: key("netbook-1"),
                cpu_load: 0.35,
                mem_free_mib: 412,
                bandwidth_up_bps: 500_000.0,
                bandwidth_down_bps: 900_000.0,
                battery_pct: Some(62.0),
                mandatory_free_mib: 900,
                voluntary_free_mib: 4_000,
                updated_at_ns: 600_000_000_000,
            }),
        ),
        (
            "object",
            Record::Object(ObjectMeta {
                name: "edonkey/jpeg/file-00042.jpeg".into(),
                size_bytes: 2 << 20,
                content_type: "jpeg".into(),
                tags: vec!["topic-8".into(), "jpeg".into()],
                location: Location::Home {
                    node: key("netbook-2"),
                },
                private: false,
                owner: key("netbook-2"),
                acl: Acl::Public,
                created_at_ns: 123_456_789,
                replicas: vec![key("desktop"), key("netbook-0")],
                ec: None,
            }),
        ),
        (
            "service",
            Record::Service(ServiceRecord {
                name: "face-detect".into(),
                service_id: 11,
                providers: vec![key("desktop"), key("netbook-0"), key("netbook-1")],
                cloud_available: true,
                policy: "performance".into(),
            }),
        ),
        (
            "stripe",
            Record::Stripe(StripeRecord {
                object: "videos/trip.avi".into(),
                row: 4,
                len: 700 << 10,
                holder: key("netbook-3"),
                checksum: 0xDEAD_BEEF,
            }),
        ),
    ];
    let entry = DirEntry {
        name: "edonkey/jpeg/file-00042.jpeg".into(),
        tombstone: false,
    };
    // The first encode on a thread sizes the reused buffer.
    for (_, record) in &records {
        std::hint::black_box(record.encode());
    }
    let per_encode = |encode: &dyn Fn() -> Arc<[u8]>| {
        let before = allocations();
        for _ in 0..ENCODE_REPS {
            std::hint::black_box(encode());
        }
        (allocations() - before) as f64 / ENCODE_REPS as f64
    };
    let mut rows: Vec<(&'static str, f64)> = records
        .iter()
        .map(|(kind, record)| (*kind, per_encode(&|| record.encode())))
        .collect();
    rows.push(("dir_entry", per_encode(&|| entry.encode())));
    rows
}

/// Nodes on the `dht_put_path` ring.
const PUT_RING: usize = 16;

/// What one counted put on the `dht_put_path` ring did.
struct PutPath {
    allocs: u64,
    hops: u8,
    /// Whether a later lookup was answered by a forwarding hop's cache with
    /// the counted put's bytes (the put refreshed the cached copy).
    cache_refreshed: bool,
    replicas: usize,
}

/// An overwrite put on a chimera-only ring of [`PUT_RING`] nodes, each
/// knowing only its leaf set, so the put walks the ring hop by hop. Every
/// node has a recorder attached but switched off. The key is rooted half
/// way round the ring from the origin; a lookup has cached it at every hop
/// of the path, and the root replicates it to two leaf-set neighbours. The
/// put's bytes exist before counting starts: the count runs from `put`
/// until the origin has its `PutCompleted`.
fn dht_put_path() -> PutPath {
    let now = SimTime::ZERO;
    let config = ChimeraConfig {
        replication: 2,
        ..ChimeraConfig::default()
    };
    let mut ids: Vec<Key> = (0..PUT_RING)
        .map(|i| Key::from_name(&format!("path-{i}")))
        .collect();
    ids.sort_unstable();
    let recorder = Recorder::new();
    recorder.set_enabled(false);
    let mut nodes: Vec<ChimeraNode> = ids
        .iter()
        .enumerate()
        .map(|(i, &id)| {
            let mut node = ChimeraNode::new(id, config.clone());
            node.set_telemetry(recorder.clone(), i as u64);
            let view = (1..=config.leaf_size)
                .flat_map(|d| [ids[(i + d) % PUT_RING], ids[(i + PUT_RING - d) % PUT_RING]]);
            node.assemble(view, now);
            while node.poll_event().is_some() {}
            node
        })
        .collect();
    let key = Key::from_raw(ids[PUT_RING / 2].raw() + 1);
    let mut version = 0;
    let mut put = |nodes: &mut Vec<ChimeraNode>, data: Arc<[u8]>| -> u8 {
        version += 1;
        nodes[0]
            .put(key, data, OverwritePolicy::Overwrite, now)
            .expect("assembled");
        pump_overlay(nodes);
        let mut hops = None;
        while let Some(ev) = nodes[0].poll_event() {
            if let DhtEvent::PutCompleted {
                result: Ok(v),
                hops: h,
                ..
            } = ev
            {
                assert_eq!(v, version, "put {version} answered with version {v}");
                hops = Some(h);
            }
        }
        hops.expect("the put was acknowledged")
    };
    let get = |nodes: &mut Vec<ChimeraNode>| -> Option<(StoredValue, bool)> {
        nodes[0].get(key, now).expect("assembled");
        pump_overlay(nodes);
        std::iter::from_fn(|| nodes[0].poll_event()).find_map(|ev| match ev {
            DhtEvent::GetCompleted {
                value, from_cache, ..
            } => value.map(|v| (v, from_cache)),
            _ => None,
        })
    };
    let record = |b: u8| -> Arc<[u8]> { Arc::from(vec![b; 53]) };
    // Warm every buffer on the path, with the key cached along it.
    put(&mut nodes, record(1));
    assert!(get(&mut nodes).is_some_and(|(_, cached)| !cached));
    put(&mut nodes, record(2));
    let data = record(3);
    let before = allocations();
    let hops = put(&mut nodes, Arc::clone(&data));
    let allocs = allocations() - before;
    let cache_refreshed =
        get(&mut nodes).is_some_and(|(v, cached)| cached && v.latest() == &data[..]);
    let replicas = nodes
        .iter()
        .filter(|n| n.local_get(key).is_some_and(|v| v.latest() == &data[..]))
        .count();
    PutPath {
        allocs,
        hops,
        cache_refreshed,
        replicas,
    }
}

/// Virtual time the `idle_publish` testbed runs before counting.
const IDLE_WARM: Duration = Duration::from_secs(60);

/// Virtual time the `idle_publish` row counts over.
const IDLE_WINDOW: Duration = Duration::from_secs(600);

/// The paper testbed left idle: (allocations, resource records published)
/// over [`IDLE_WINDOW`] after [`IDLE_WARM`], recording off. The records
/// are counted on a twin world with recording on, which publishes the
/// same records (recording moves no virtual instant).
fn idle_publish() -> (u64, u64) {
    let config = Config::paper_testbed(2011);
    let records = {
        let mut home = Cloud4Home::new(config.clone());
        home.set_tracing(true);
        home.run_for(IDLE_WARM);
        let encodes = |home: &Cloud4Home| {
            home.telemetry()
                .snapshot()
                .counter("kvstore.record_encodes")
        };
        let before = encodes(&home);
        home.run_for(IDLE_WINDOW);
        encodes(&home) - before
    };
    let mut home = Cloud4Home::new(config);
    home.set_tracing(false);
    home.run_for(IDLE_WARM);
    let before = allocations();
    home.run_for(IDLE_WINDOW);
    (allocations() - before, records)
}

/// Runs of each op before the gated ones: the interner, the metadata
/// caches and the event wheel's spare buckets have settled by then.
const OP_WARM: usize = 16;

/// Gated runs of each op; the gate reads the fewest allocations among
/// them.
const OP_REPS: usize = 8;

/// Exact allocations of one op of each kind (see [`op_allocs`]).
const OP_ALLOCS: [(&str, u64); 4] = [
    ("home_store", 3),
    ("home_fetch", 2),
    ("cloud_fetch", 1),
    ("process", 17),
];

/// Heap acquisitions of one op of each kind on the paper testbed,
/// recording off: a store overwriting a home object, a fetch of it, a
/// fetch of an object the cloud holds, and a transcode of the home object.
/// Each op runs from submit to its report as the benchmark driver runs one
/// (20 ms polls, `take_report`). The resource monitor publishes hourly, so
/// no record publish lands inside an op; the count is the fewest of
/// [`OP_REPS`] runs after [`OP_WARM`], because an event-wheel bucket that
/// one run happens to adopt is the wheel's, not the op's.
fn op_allocs() -> [(&'static str, u64); 4] {
    fn run(home: &mut Cloud4Home, op: OpId) {
        loop {
            if let Some(report) = home.take_report(op) {
                report.expect_ok();
                return;
            }
            home.run_for(Duration::from_millis(20));
        }
    }
    let mut config = Config::paper_testbed(2011);
    config.monitor.update_period = Duration::from_secs(3_600);
    let mut home = Cloud4Home::new(config);
    home.run_for(IDLE_WARM);
    let cloud = Object::synthetic("gate/cloud.avi", 2, 256 << 10, "avi");
    let op = home.store_object(NodeId(1), cloud, StorePolicy::ForceCloud, true);
    run(&mut home, op);
    type Submit = fn(&mut Cloud4Home) -> OpId;
    let ops: [(&str, Submit); 4] = [
        ("home_store", |home| {
            let obj = Object::synthetic("gate/home.avi", 1, 256 << 10, "avi");
            home.store_object(NodeId(0), obj, StorePolicy::MandatoryFirst, true)
        }),
        ("home_fetch", |home| {
            home.fetch_object(NodeId(2), "gate/home.avi")
        }),
        ("cloud_fetch", |home| {
            home.fetch_object(NodeId(2), "gate/cloud.avi")
        }),
        ("process", |home| {
            let route = RoutePolicy::Performance;
            home.process_object(NodeId(4), "gate/home.avi", ServiceKind::Transcode, route)
        }),
    ];
    for (_, submit) in &ops {
        for _ in 0..OP_WARM {
            let op = submit(&mut home);
            run(&mut home, op);
        }
    }
    ops.map(|(kind, submit)| {
        let fewest = (0..OP_REPS)
            .map(|_| {
                let before = allocations();
                let op = submit(&mut home);
                run(&mut home, op);
                allocations() - before
            })
            .min()
            .expect("at least one run");
        (kind, fewest)
    })
}

/// Recorder calls per window of the recorder rows.
const RECORDER_CALLS: u64 = 10_000;

/// Spans the recorder rows keep open at most.
const RECORDER_OPEN: usize = 16;

/// `calls` mixed recorder calls: begins (while fewer than
/// [`RECORDER_OPEN`] spans are open), ends of a span picked from the open
/// ones (so out of order), complete spans and instants, each with 0-7
/// arguments — integers and borrowed strings, as the runtime's call sites
/// pass them.
fn recorder_calls(rec: &Recorder, mix: &mut Mix, open: &mut Vec<SpanId>, calls: u64) {
    let args = [
        ("object", ArgValue::from("census/7.avi")),
        ("ok", ArgValue::from(true)),
        ("bytes", ArgValue::from(262_144u64)),
        ("node", ArgValue::from("netbook-3")),
        ("retries", ArgValue::from(2u64)),
        ("delta", ArgValue::from(-5i64)),
        ("why", ArgValue::from("a \"quoted\" reason")),
    ];
    for t in 0..calls {
        let r = mix.next();
        let n = (r >> 8) as usize % (args.len() + 1);
        let args = args[..n].iter().cloned();
        match r % 4 {
            0 if open.len() < RECORDER_OPEN => {
                open.push(rec.begin_args("dht", "dht.get", r % 8, t, args))
            }
            0 | 1 if !open.is_empty() => {
                let span = open.swap_remove((r >> 32) as usize % open.len());
                rec.end_args(span, t, args);
            }
            2 => rec.span_args("stage", "fetch.flow_home", r % 8, t, t + 5, args),
            _ => rec.instant_args("op", "fetch.failover", r % 8, t, args),
        }
    }
}

/// Allocations of [`RECORDER_CALLS`] recorder calls after as many warm-up
/// calls, on an enabled and on a disabled recorder.
fn recorder_allocs() -> (u64, u64) {
    let window = |enabled: bool| {
        let rec = Recorder::new();
        rec.set_enabled(enabled);
        let (mut mix, mut open) = (Mix(0x5eed_0034), Vec::with_capacity(RECORDER_OPEN));
        recorder_calls(&rec, &mut mix, &mut open, RECORDER_CALLS);
        let before = allocations();
        recorder_calls(&rec, &mut mix, &mut open, RECORDER_CALLS);
        allocations() - before
    };
    (window(true), window(false))
}

/// Ring sizes of the `overlay_1k` rows.
const OVERLAY_PEERS: [usize; 2] = [64, 1_000];

/// Keys per kind of `route` call in an `overlay_1k` row.
const OVERLAY_KEYS: usize = 64;

/// What one `overlay_1k` row measured.
struct OverlayRow {
    deliveries: u64,
    delivery_allocs: u64,
    ns_per_delivery: f64,
    route_calls: u64,
    route_allocs: u64,
    ns_per_covered_route: f64,
    ns_per_fallback_route: f64,
}

/// `n` overlay nodes, each assembled with the whole ring as its view — the
/// view a protocol join leaves, as on the `neighborhood-1k` world — driven
/// by direct delivery. Each ping round ticks every node, which pings its two
/// ring neighbours, and delivers until quiet: every ping is answered, so
/// nobody is ever declared failed. After two warm-up rounds, `rounds` rounds
/// are counted. Then `route` runs on node 0's view for keys its leaf set
/// covers, and — with an empty prefix table, as when the table has no hop —
/// for keys it does not, which reach the full-view fallback.
fn overlay_ring(n: usize, rounds: u64, route_reps: u64) -> OverlayRow {
    let ids: Vec<Key> = (0..n)
        .map(|i| Key::from_name(&format!("ring-{i}")))
        .collect();
    let index: FxHashMap<Key, usize> = ids.iter().enumerate().map(|(i, &k)| (k, i)).collect();
    let mut nodes: Vec<ChimeraNode> = ids
        .iter()
        .map(|&id| {
            let mut node = ChimeraNode::new(id, ChimeraConfig::default());
            node.assemble(ids.iter().copied(), SimTime::ZERO);
            while node.poll_event().is_some() {}
            node
        })
        .collect();
    let mut round = 0u64;
    let mut ping_round = |nodes: &mut [ChimeraNode]| -> u64 {
        round += 1;
        let now = SimTime::from_secs(round);
        for node in nodes.iter_mut() {
            node.tick(now);
        }
        let mut delivered = 0;
        loop {
            let before = delivered;
            for i in 0..nodes.len() {
                while let Some(env) = nodes[i].poll_send() {
                    let j = index[&env.to];
                    nodes[j].handle(env, now);
                    delivered += 1;
                }
            }
            if delivered == before {
                return delivered;
            }
        }
    };
    ping_round(&mut nodes);
    ping_round(&mut nodes);
    let (allocs0, timer) = (allocations(), Instant::now());
    let deliveries: u64 = (0..rounds).map(|_| ping_round(&mut nodes)).sum();
    let ns_per_delivery = timer.elapsed().as_nanos() as f64 / deliveries as f64;
    let delivery_allocs = allocations() - allocs0;
    assert!(
        nodes.iter().all(|node| node.peer_keys().len() == n - 1),
        "a node dropped a peer that answered every ping"
    );

    let owner = ids[0];
    let peers: RbTree<Key, ()> = ids[1..].iter().map(|&k| (k, ())).collect();
    let mut leaf = LeafSet::new();
    leaf.rebuild(owner, &peers, ChimeraConfig::default().leaf_size);
    let mut table = RoutingTable::new(owner);
    for &k in &ids[1..] {
        table.add(k);
    }
    // The leaf set covers the arc from its farthest left to its farthest
    // right member.
    let lo = *leaf.left().last().expect("the ring has peers");
    let span = lo.clockwise_distance(*leaf.right().last().expect("the ring has peers"));
    let covered: Vec<Key> = (0..OVERLAY_KEYS as u64)
        .map(|t| Key::from_raw(lo.raw() + span * t / OVERLAY_KEYS as u64))
        .collect();
    let mut mix = Mix(n as u64);
    let fallback: Vec<Key> = std::iter::repeat_with(|| Key::from_raw(mix.next()))
        .filter(|&k| !leaf.covers(owner, k))
        .take(OVERLAY_KEYS)
        .collect();
    let no_table = RoutingTable::new(owner);
    let timed_routes = |keys: &[Key], table: &RoutingTable| -> (f64, u64) {
        let (allocs0, timer) = (allocations(), Instant::now());
        for _ in 0..route_reps {
            for &key in keys {
                std::hint::black_box(route(owner, key, &leaf, table, &peers));
            }
        }
        let calls = route_reps * keys.len() as u64;
        (
            timer.elapsed().as_nanos() as f64 / calls as f64,
            allocations() - allocs0,
        )
    };
    let (ns_per_covered_route, covered_allocs) = timed_routes(&covered, &table);
    let (ns_per_fallback_route, fallback_allocs) = timed_routes(&fallback, &no_table);
    OverlayRow {
        deliveries,
        delivery_allocs,
        ns_per_delivery,
        route_calls: 2 * route_reps * OVERLAY_KEYS as u64,
        route_allocs: covered_allocs + fallback_allocs,
        ns_per_covered_route,
        ns_per_fallback_route,
    }
}

/// The most allocations the 1 000-node protocol join may make.
const JOIN_1K_ALLOC_BOUND: u64 = 50_000;

/// Allocations and host seconds of `Cloud4Home::new` on the
/// `neighborhood-1k` world at `nodes` nodes.
fn join_allocs(nodes: usize) -> (u64, f64) {
    let config = neighborhood_config(nodes, 2011);
    let (before, timer) = (allocations(), Instant::now());
    let home = Cloud4Home::new(config);
    let (allocs, secs) = (allocations() - before, timer.elapsed().as_secs_f64());
    drop(home);
    (allocs, secs)
}

/// Allocations of a 1 000-entry membership view bulk-loaded from sorted
/// keys, and of one full in-order walk over it.
fn view_allocs() -> (u64, u64) {
    let entries = (0..1_000u64).map(|i| (Key::from_raw(i << 20), i as u32));
    let before = allocations();
    let view = RbTree::from_sorted(entries);
    let load = allocations() - before;
    let before = allocations();
    let sum: u64 = view.iter().map(|(k, &v)| k.raw() ^ u64::from(v)).sum();
    std::hint::black_box(sum);
    (load, allocations() - before)
}

/// End-to-end ops/sec: a mixed store/fetch workload on the paper testbed,
/// wall-clock timed through the full stack, and the event queue's counts
/// over it.
fn runtime_ops_per_sec() -> (u64, f64, QueueStats) {
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
    (
        done,
        done as f64 / started.elapsed().as_secs_f64(),
        home.queue_stats(),
    )
}

/// Heap acquisitions one `run` of each service kernel makes on the
/// runtime's 64 KiB sample window — a count, not a clock, so a kernel is
/// not made faster by allocating more. The bounds are what the
/// byte-at-a-time kernels made on it: the transcoder's coefficient stream,
/// its run-length output (grown once) and the summary; the detector's
/// integral image, its 203 detections (grown from 4 to 256) and output; the
/// recognizer's output and summary.
const SERVICE_ALLOC_BOUNDS: [(&str, u64); 3] =
    [("transcode", 4), ("face_detect", 11), ("face_recognize", 2)];

fn service_kernel_allocs() -> [(&'static str, u64); 3] {
    let image = synth_bytes(7, SAMPLE_WINDOW);
    let examples: Vec<Vec<u8>> = (0..16)
        .map(|i| synth_bytes(0x5EED_0000 + i, SAMPLE_WINDOW))
        .collect();
    let recognize = FaceRecognize::new(TrainingSet::from_examples(
        examples.iter().map(Vec::as_slice),
    ));
    let services: [(&'static str, &dyn Service); 3] = [
        ("transcode", &Transcode::new()),
        ("face_detect", &FaceDetect::new()),
        ("face_recognize", &recognize),
    ];
    services.map(|(name, svc)| {
        let before = allocations();
        std::hint::black_box(svc.run(&image));
        (name, allocations() - before)
    })
}

/// The fastest of `reps` calls of `f`, in host milliseconds, and the
/// value of the last call.
fn fastest_ms<T>(reps: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut best = f64::INFINITY;
    let mut last = None;
    for _ in 0..reps {
        let timer = Instant::now();
        last = Some(std::hint::black_box(f()));
        best = best.min(timer.elapsed().as_secs_f64() * 1e3);
    }
    (best, last.expect("at least one call"))
}

/// Host milliseconds per `generate` of the `testbed-trace` shape and per
/// 1 000 `arrivals` over a 2 048-object catalog (six tenants, 24 s at 50
/// arrivals a second, half stores).
fn generation_ms() -> (f64, f64) {
    let reps = if smoke() { 3 } else { 20 };
    let (trace_ms, _) = fastest_ms(reps, || generate(&testbed_trace_config(10_000), 2011));
    let mut stream = OpenLoopConfig::steady(50.0, Duration::from_secs(24), 6);
    stream.store_fraction = 0.5;
    stream.catalog = 2048;
    let (arrivals_ms, drawn) = fastest_ms(reps, || arrivals(&stream, 2011).len());
    (trace_ms, arrivals_ms * 1_000.0 / drawn as f64)
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

    // Causal-ledger cost: recording decisions into warmed rings must stay
    // allocation-free and record exactly one event per decision — none
    // while disabled. Both are counts, gated in smoke and full mode alike;
    // the rate ratio is advisory (a wall-clock ratio on a shared box moves
    // by a point or more between runs of the same code).
    let ex = explain_overhead(ops);
    let ratio = ex.on_rate / ex.base_rate;
    let per_event = |records: u64| records as f64 / ex.events as f64;
    println!(
        "\nexplain overhead @100k: {:.5} ledger records per event on, {} off, {} allocs; \
         advisory: base {:.0} ev/s, ledger-on {:.0} ev/s ({:.1}% cost)",
        per_event(ex.on_records),
        ex.off_records,
        ex.on_allocs,
        ex.base_rate,
        ex.on_rate,
        (1.0 - ratio) * 100.0
    );
    report.push_row(vec![
        ("pending", 100_000u64.into()),
        ("ledger_off_events_per_sec", ex.base_rate.round().into()),
        ("ledger_on_events_per_sec", ex.on_rate.round().into()),
        ("ledger_on_ratio", ratio.into()),
        ("ledger_allocs", ex.on_allocs.into()),
        ("ledger_records_per_event", per_event(ex.on_records).into()),
        ("ledger_off_records", ex.off_records.into()),
    ]);
    report.check(
        "explain_zero_alloc",
        ex.on_allocs == 0,
        format!(
            "ledger-enabled steady-state chunk made {} allocations",
            ex.on_allocs
        ),
    );
    report.check(
        "explain_records_per_event",
        ex.on_records == ex.on_records_due && ex.off_records == 0,
        format!(
            "{} hold events per mode made {} ledger records enabled (must be exactly {}, one \
             per {DECISION_EVERY} events) and {} disabled (must be 0)",
            ex.events, ex.on_records, ex.on_records_due, ex.off_records
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
            let (ns, per_round, reads) = flownet_solve(inflight, cap_limited, solves);
            let kind = if cap_limited {
                "cap-limited"
            } else {
                "share-limited"
            };
            println!(
                "flownet solve @{inflight:>3} flows, {kind:>13}: {ns:>9.0} ns per solve, \
                 {per_round:.2} candidates per round, {reads:.2} caps read per derivation"
            );
            report.push_row(vec![
                ("flownet_solve_inflight", inflight.into()),
                ("flownet_solve_cap_limited", cap_limited.into()),
                ("flownet_solve_ns", ns.round().into()),
                ("flownet_solve_candidates_per_round", per_round.into()),
                ("flownet_solve_cap_reads_per_derive", reads.into()),
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

    // A count gate, not a clock: overlay deliveries and `route` calls on a
    // full-view ring allocate nothing, at 64 peers and at 1 000. What a
    // delivery costs at each size is printed only.
    let (rounds, route_reps) = if smoke() { (20, 200) } else { (200, 2_000) };
    let mut overlay_allocs = Vec::new();
    for n in OVERLAY_PEERS {
        let row = overlay_ring(n, rounds, route_reps);
        println!(
            "overlay_1k @{n:>5} peers: {} deliveries, {} allocs, {:.0} ns per delivery; \
             {} route calls, {} allocs, {:.0} ns covered, {:.0} ns fallback",
            row.deliveries,
            row.delivery_allocs,
            row.ns_per_delivery,
            row.route_calls,
            row.route_allocs,
            row.ns_per_covered_route,
            row.ns_per_fallback_route
        );
        report.push_row(vec![
            ("overlay_peers", n.into()),
            ("overlay_deliveries", row.deliveries.into()),
            ("overlay_delivery_allocs", row.delivery_allocs.into()),
            (
                "overlay_ns_per_delivery",
                row.ns_per_delivery.round().into(),
            ),
            ("overlay_route_calls", row.route_calls.into()),
            ("overlay_route_allocs", row.route_allocs.into()),
            (
                "overlay_ns_per_covered_route",
                row.ns_per_covered_route.round().into(),
            ),
            (
                "overlay_ns_per_fallback_route",
                row.ns_per_fallback_route.round().into(),
            ),
        ]);
        overlay_allocs.push((n, row.delivery_allocs, row.route_allocs));
    }
    report.check(
        "overlay_1k_zero_alloc",
        overlay_allocs.iter().all(|&(_, d, r)| d == 0 && r == 0),
        format!(
            "(peers, delivery allocs, route allocs) = {overlay_allocs:?}; a ping round and a \
             route call must not allocate at any ring size"
        ),
    );

    // Counts, not clocks: the membership view is one arena per node, filled
    // in one bulk load from a `Welcome`.
    let (join_1k, join_1k_s) = join_allocs(1_000);
    println!(
        "protocol join @ 1000 nodes (neighborhood-1k world): {join_1k} allocations, \
         {join_1k_s:.3} s"
    );
    report.push_row(vec![
        ("join_nodes", 1_000u64.into()),
        ("join_allocs", join_1k.into()),
        ("join_host_s", join_1k_s.into()),
    ]);
    if !smoke() {
        let (join_2k, join_2k_s) = join_allocs(2_000);
        println!("protocol join @ 2000 nodes: {join_2k} allocations, {join_2k_s:.3} s");
        report.push_row(vec![
            ("join_nodes", 2_000u64.into()),
            ("join_allocs", join_2k.into()),
            ("join_host_s", join_2k_s.into()),
        ]);
    }
    report.check(
        "join_1k_allocs",
        join_1k <= JOIN_1K_ALLOC_BOUND,
        format!(
            "the 1 000-node join made {join_1k} allocations (must stay <= \
             {JOIN_1K_ALLOC_BOUND}; a boxed view made 561 704, one per view entry)"
        ),
    );
    let (load_allocs, iter_allocs) = view_allocs();
    println!(
        "membership view of 1000 peers: bulk load {load_allocs} allocations, \
         in-order walk {iter_allocs}"
    );
    report.push_row(vec![
        ("view_bulk_load_allocs", load_allocs.into()),
        ("view_iter_allocs", iter_allocs.into()),
    ]);
    report.check(
        "view_bulk_load_one_alloc",
        load_allocs == 1,
        format!("a 1 000-entry bulk load made {load_allocs} allocations (must be exactly 1)"),
    );
    report.check(
        "view_iter_zero_alloc",
        iter_allocs == 0,
        format!("an in-order walk of 1 000 entries made {iter_allocs} allocations (must be 0)"),
    );

    // Counts, not clocks: a record is one allocation from its encode to its
    // last replica.
    let encodes = record_encode_allocs();
    println!("record encodes, allocations per encode: {encodes:?}");
    report.push_row(encodes.iter().map(|&(kind, n)| (kind, n.into())).collect());
    report.check(
        "record_encode_one_alloc",
        encodes.iter().all(|&(_, n)| n == 1.0),
        format!(
            "allocations per encode {encodes:?}; an encode must be exactly its record's \
             shared bytes (a writer grown from empty made 2-4 at these sizes)"
        ),
    );
    let path = dht_put_path();
    println!(
        "dht put path @{PUT_RING} nodes: {} hops, {} allocs, cached copy refreshed: {}, \
         {} holders of the new bytes",
        path.hops, path.allocs, path.cache_refreshed, path.replicas
    );
    report.push_row(vec![
        ("dht_put_hops", u64::from(path.hops).into()),
        ("dht_put_allocs", path.allocs.into()),
        ("dht_put_cache_refreshed", path.cache_refreshed.into()),
        ("dht_put_holders", (path.replicas as u64).into()),
    ]);
    report.check(
        "dht_put_zero_alloc",
        path.allocs == 0 && path.hops >= 3 && path.cache_refreshed && path.replicas == 3,
        format!(
            "an overwrite put over {} hops made {} allocations inside the overlay (must be 0: \
             the bytes are shared by every hop, cache, root and replica); a forwarding hop's \
             cache refreshed: {} (must be true); root and replicas holding the new bytes: {} \
             (must be 3)",
            path.hops, path.allocs, path.cache_refreshed, path.replicas
        ),
    );
    let (idle_allocs, idle_records) = idle_publish();
    let per_record = idle_allocs as f64 / idle_records as f64;
    println!(
        "idle paper testbed, {}s after {}s warm-up, recording off: {idle_allocs} allocations \
         for {idle_records} published records ({per_record:.2} per record)",
        IDLE_WINDOW.as_secs(),
        IDLE_WARM.as_secs()
    );
    report.push_row(vec![
        ("idle_publish_allocs", idle_allocs.into()),
        ("idle_publish_records", idle_records.into()),
        ("idle_publish_allocs_per_record", per_record.into()),
    ]);
    report.check(
        "idle_publish_allocs_per_record",
        idle_records > 0 && per_record <= 1.1,
        format!(
            "the idle testbed made {idle_allocs} allocations for {idle_records} published \
             records ({per_record:.2} per record, must stay <= 1.1: one for the record's \
             bytes, the rest the event wheel's bucket adoptions)"
        ),
    );

    let per_op = op_allocs();
    println!("paper testbed, recording off, allocations per op: {per_op:?}");
    report.push_row(per_op.iter().map(|&(kind, n)| (kind, n.into())).collect());
    report.check(
        "op_allocs_exact",
        per_op == OP_ALLOCS,
        format!(
            "allocations per op {per_op:?}, pinned at {OP_ALLOCS:?}: records hold interned \
             strings and the op paths borrow them, so a per-op String or record copy shows \
             here as one more"
        ),
    );

    let (on_allocs, off_allocs) = recorder_allocs();
    println!(
        "recorder: {RECORDER_CALLS} mixed begin/end/span/instant calls with 0-7 args after \
         warm-up: {on_allocs} allocations enabled, {off_allocs} disabled"
    );
    report.push_row(vec![
        ("recorder_calls", RECORDER_CALLS.into()),
        ("recorder_on_allocs", on_allocs.into()),
        ("recorder_off_allocs", off_allocs.into()),
    ]);
    report.check(
        "recorder_zero_alloc",
        on_allocs <= 32,
        format!(
            "{RECORDER_CALLS} recorder calls made {on_allocs} allocations (must stay <= 32: \
             only the event log's chunk growth; an event allocates nothing of its own)"
        ),
    );
    report.check(
        "recorder_off_zero_alloc",
        off_allocs == 0,
        format!("{RECORDER_CALLS} calls on a disabled recorder made {off_allocs} allocations"),
    );

    let allocs = service_kernel_allocs();
    println!("service kernels on a 64 KiB window, allocations per run: {allocs:?}");
    report.push_row(allocs.iter().map(|&(name, n)| (name, n.into())).collect());
    report.check(
        "service_kernel_allocs",
        allocs
            .iter()
            .zip(SERVICE_ALLOC_BOUNDS)
            .all(|(&(_, n), (_, bound))| n <= bound),
        format!(
            "allocations per run {allocs:?} exceed the byte-at-a-time kernels' \
             {SERVICE_ALLOC_BOUNDS:?}"
        ),
    );

    let (runtime_ops, runtime_rate, qs) = runtime_ops_per_sec();
    println!(
        "full stack: {runtime_ops} mixed ops at {runtime_rate:.0} ops/sec wall; \
         queue: {} pops, {} advances, {} full wheel scans ({:.3} per pop or advance), \
         {} cascades",
        qs.pops,
        qs.advances,
        qs.scans,
        qs.scans as f64 / (qs.pops + qs.advances) as f64,
        qs.cascades
    );
    report.push_row(vec![
        ("runtime_ops", runtime_ops.into()),
        ("runtime_ops_per_sec", runtime_rate.into()),
        ("runtime_queue_pops", qs.pops.into()),
        ("runtime_queue_advances", qs.advances.into()),
        ("runtime_queue_scans", qs.scans.into()),
    ]);
    // A count gate, not a clock: the loop peeks the queue two or three
    // times per event (`run_for`'s horizon check, `step`'s merge with the
    // flow engine, `pop` or `advance_to`), and a scan's answer is kept until
    // a pop takes its bucket, so the wheel is scanned at most once per event.
    report.check(
        "runtime_queue_one_scan_per_event",
        qs.scans <= qs.pops + qs.advances,
        format!(
            "{} full wheel scans for {} pops and {} clock advances; the earliest \
             bucket must be found once per event, not once per peek",
            qs.scans, qs.pops, qs.advances
        ),
    );

    let (trace_ms, arrivals_ms) = generation_ms();
    println!(
        "input generation (advisory host time): {trace_ms:.2} ms per testbed-trace \
         generate, {arrivals_ms:.3} ms per 1 000 arrivals over a 2 048-object catalog"
    );
    report.push_row(vec![
        ("generate_testbed_trace_host_ms", trace_ms.into()),
        ("arrivals_per_1k_host_ms", arrivals_ms.into()),
    ]);

    // Timing acceptance bar. Smoke runs (CI shared runners, tiny op
    // counts) print but don't gate on wall-clock ratios; the count checks
    // above gate everywhere.
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
