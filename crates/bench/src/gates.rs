//! Every host-side count CI gates, stated once: one table of [`Gate`]s,
//! each a check name, the sentence saying why it exists, a bound (exact or
//! at-most) and one measuring function that returns the counts and any
//! advisory columns — host time, and counts nothing gates — printed beside
//! them. The `gates` bench target runs the table (`cargo bench -p c4h-bench
//! --bench gates`), prints one line per gate, writes `BENCH_gates.json` and
//! then fails on any gate out of bound. The measuring functions count
//! allocations through [`CountingAlloc`](crate::CountingAlloc), which only
//! that target installs, and run at one size.
//!
//! A gate's bound is a count, never a clock: host time and its ratios
//! spread too widely between runs of the same code to gate anything. The
//! gates run in table order in one process, and a gate whose window would
//! grow what the process shares (the string interner's table, a thread's
//! record-encoding buffer: `join_1k_allocs`, `ec_convert_live_bytes`)
//! grows it before the window opens, so no count depends on the gates run
//! before it.

use std::fmt;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use c4h_chimera::{
    route, ChimeraConfig, ChimeraNode, DhtEvent, Key, LeafSet, OverwritePolicy, RbTree,
    RoutingTable, StoredValue,
};
use c4h_kvstore::{
    Acl, DirEntry, Location, ObjectMeta, Record, ResourceRecord, ServiceRecord, StripeRecord,
};
use c4h_services::{FaceDetect, FaceRecognize, Service, TrainingSet, Transcode};
use c4h_simnet::{presets, Addr, DetRng, EventQueue, FlowNet, FxHashMap, SimTime, Sym, TcpProfile};
use c4h_telemetry::{ArgValue, EventRec, Recorder, SpanStart};
use cloud4home::{
    synth_bytes, CauseKind, Cloud4Home, Config, NodeId, NodeSpec, Object, OpId, OpLedger,
    RoutePolicy, ServiceKind, StorePolicy, LEDGER_NONE, SAMPLE_WINDOW,
};

use crate::{allocations, live_bytes, neighborhood_config, paper, pump_overlay, JsonVal};

/// What a gate's counts must be, entry by entry.
#[derive(Debug, Clone, Copy)]
pub enum Bound {
    /// Each count equals its entry.
    Exact(&'static [f64]),
    /// Each count is at most its entry.
    AtMost(&'static [f64]),
}

impl Bound {
    /// Whether `counts` has one count per entry, each within its entry.
    pub fn holds(self, counts: &[f64]) -> bool {
        let (limits, within): (_, fn(f64, f64) -> bool) = match self {
            Bound::Exact(limits) => (limits, |c, l| c == l),
            Bound::AtMost(limits) => (limits, |c, l| c <= l),
        };
        counts.len() == limits.len() && counts.iter().zip(limits).all(|(&c, &l)| within(c, l))
    }
}

impl fmt::Display for Bound {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (word, limits) = match self {
            Bound::Exact(limits) => ("exactly", limits),
            Bound::AtMost(limits) => ("at most", limits),
        };
        let limits: Vec<String> = limits.iter().map(|&l| count_text(l)).collect();
        write!(f, "{word} {}", limits.join(" / "))
    }
}

/// A count as text: whole counts without a fraction, others to two places.
pub fn count_text(count: f64) -> String {
    if count.fract() == 0.0 {
        format!("{count}")
    } else {
        format!("{count:.2}")
    }
}

/// What a measuring function returns: the gated counts, named, in the order
/// of the gate's bound, and the advisory columns printed beside them.
#[derive(Debug)]
pub struct Measured {
    pub counts: Vec<(&'static str, f64)>,
    pub advisory: Vec<(&'static str, JsonVal)>,
}

impl Measured {
    fn of(counts: impl IntoIterator<Item = (&'static str, f64)>) -> Self {
        Measured {
            counts: counts.into_iter().collect(),
            advisory: Vec::new(),
        }
    }

    fn advise(mut self, column: &'static str, value: impl Into<JsonVal>) -> Self {
        self.advisory.push((column, value.into()));
        self
    }
}

/// One count gate.
#[derive(Debug)]
pub struct Gate {
    pub name: &'static str,
    /// Why the gate exists: what a count out of bound would mean.
    pub why: &'static str,
    pub bound: Bound,
    measure: fn() -> Measured,
}

impl Gate {
    /// Runs the measuring function. A set-up assertion inside it that fails
    /// fails this gate with the assertion's message, not the whole run.
    pub fn measure(&self) -> Result<Measured, String> {
        std::panic::catch_unwind(self.measure).map_err(|payload| {
            payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_owned()))
                .unwrap_or_else(|| "the measuring function panicked".to_owned())
        })
    }
}

/// Every count gate, in the order the `gates` target runs them.
pub const GATES: &[Gate] = &[
    Gate {
        name: "zero_alloc_steady_state_1000",
        why: "once warm, the event queue's pop-one/push-one hold loop at 1 000 pending events never touches the allocator",
        bound: Bound::Exact(&[0.0]),
        measure: || hold_gate(1_000),
    },
    Gate {
        name: "zero_alloc_steady_state_10000",
        why: "once warm, the event queue's pop-one/push-one hold loop at 10 000 pending events never touches the allocator",
        bound: Bound::Exact(&[0.0]),
        measure: || hold_gate(10_000),
    },
    Gate {
        name: "zero_alloc_steady_state_100000",
        why: "once warm, the event queue's pop-one/push-one hold loop at 100 000 pending events never touches the allocator",
        bound: Bound::Exact(&[0.0]),
        measure: || hold_gate(100_000),
    },
    Gate {
        name: "zero_alloc_steady_state_1000000",
        why: "once warm, the event queue's pop-one/push-one hold loop at 10⁶ pending events never touches the allocator",
        bound: Bound::Exact(&[0.0]),
        measure: || hold_gate(1_000_000),
    },
    Gate {
        name: "explain_zero_alloc",
        why: "recording causal decisions into warmed op-ledger rings, at 100 000 pending events, allocates nothing",
        bound: Bound::Exact(&[0.0]),
        measure: || {
            let ex = explain();
            Measured::of([("ledger_on_allocs", ex.on_allocs as f64)])
                .advise("ledger_off_events_per_sec", ex.base_rate.round())
                .advise("ledger_on_events_per_sec", ex.on_rate.round())
                .advise("ledger_on_ratio", ex.on_rate / ex.base_rate)
        },
    },
    Gate {
        name: "explain_records_per_event",
        why: "the op ledger makes exactly one record per decision (one per 64 hold events) while enabled, and none while disabled",
        bound: Bound::Exact(&[EXPLAIN_RECORDS_DUE as f64, 0.0]),
        measure: || {
            let ex = explain();
            Measured::of([
                ("ledger_on_records", ex.on_records as f64),
                ("ledger_off_records", ex.off_records as f64),
            ])
            .advise("hold_events_per_mode", ex.events)
        },
    },
    Gate {
        name: "flownet_steady_zero_alloc",
        why: "`FlowNet` rounds that complete no flow reuse their buffers: no allocation at 200 LAN flows in flight",
        bound: Bound::Exact(&[0.0]),
        measure: || {
            let steady = flownet_steady();
            Measured::of([("quiet_round_allocs", steady.quiet_allocs as f64)])
                .advise("flows_per_sec", steady.rate.round())
        },
    },
    Gate {
        name: "flownet_steady_allocs_per_flow",
        why: "starting and finishing a flow costs `FlowNet` a small constant of allocations, not one per flow in flight",
        bound: Bound::AtMost(&[2.0]),
        measure: || Measured::of([("allocs_per_flow", flownet_steady().churn_allocs)]),
    },
    Gate {
        name: "flownet_polled_zero_derives",
        why: "a clock move that reaches no internal instant of `FlowNet` is `now = to`: 10⁵ of them make no pass over the flows",
        bound: Bound::Exact(&[0.0]),
        measure: || {
            let polled = flownet_polled();
            Measured::of([("derivations", polled.derives as f64)])
                .advise("ns_per_poll", polled.ns)
        },
    },
    Gate {
        name: "flownet_polled_zero_alloc",
        why: "the same 10⁵ clock moves allocate nothing",
        bound: Bound::Exact(&[0.0]),
        measure: || Measured::of([("allocs", flownet_polled().allocs as f64)]),
    },
    Gate {
        name: "flownet_solve_candidates_per_round_50",
        why: "a filling round of the max-min solve over 50 flows below their caps evaluates one candidate: the round's lower bound is its answer",
        bound: Bound::AtMost(&[2.0]),
        measure: || solve_gate(50),
    },
    Gate {
        name: "flownet_solve_candidates_per_round_200",
        why: "a filling round of the max-min solve over 200 flows below their caps evaluates one candidate: the round's lower bound is its answer",
        bound: Bound::AtMost(&[2.0]),
        measure: || solve_gate(200),
    },
    Gate {
        name: "flownet_solve_candidates_per_round_800",
        why: "a filling round of the max-min solve over 800 flows below their caps evaluates one candidate: the round's lower bound is its answer",
        bound: Bound::AtMost(&[2.0]),
        measure: || solve_gate(800),
    },
    Gate {
        name: "dht_chain_append_allocs_flat",
        why: "a chained put to a 100 000-version directory allocates what one to a 10-version directory does: records are shared between their copies, never copied",
        bound: Bound::Exact(&[0.0]),
        measure: dht_chain_gate,
    },
    Gate {
        name: "join_1k_allocs",
        why: "the membership view is one arena per node: the protocol join of the 1 000-node `neighborhood-1k` world stays far below the 561 704 allocations of one boxed node per view entry",
        bound: Bound::AtMost(&[50_000.0]),
        measure: || {
            let (allocs_1k, secs_1k) = join_allocs(1_000);
            let (allocs_2k, secs_2k) = join_allocs(2_000);
            Measured::of([("join_allocs", allocs_1k as f64)])
                .advise("join_host_s", secs_1k)
                .advise("join_2000_allocs", allocs_2k)
                .advise("join_2000_host_s", secs_2k)
        },
    },
    Gate {
        name: "view_bulk_load_one_alloc",
        why: "a 1 000-entry membership view bulk-loaded from sorted keys is one allocation",
        bound: Bound::Exact(&[1.0]),
        measure: || Measured::of([("bulk_load_allocs", view_allocs().0 as f64)]),
    },
    Gate {
        name: "view_iter_zero_alloc",
        why: "an in-order walk of that view allocates nothing",
        bound: Bound::Exact(&[0.0]),
        measure: || Measured::of([("walk_allocs", view_allocs().1 as f64)]),
    },
    Gate {
        name: "record_encode_one_alloc",
        why: "an encode of every record kind, and of a directory entry, is exactly its record's shared bytes (a writer grown from empty made 2-4)",
        bound: Bound::Exact(&[1.0; 5]),
        measure: || Measured::of(record_encode_allocs()),
    },
    Gate {
        name: "dht_put_zero_alloc",
        why: "an overwrite put over 5 hops, through caching hops and on to two replicas, allocates nothing inside the overlay: every hop, cache, root and replica shares the bytes",
        bound: Bound::Exact(&[0.0]),
        measure: || {
            let path = dht_put_path();
            Measured::of([("allocs", path.allocs as f64)])
                .advise("hops", u64::from(path.hops))
                .advise("holders", path.replicas)
        },
    },
    Gate {
        name: "idle_publish_allocs_per_record",
        why: "the warmed idle paper testbed, recording off, allocates about once per resource record it publishes: the record's bytes",
        bound: Bound::AtMost(&[1.1]),
        measure: || {
            let (allocs, records) = idle_publish();
            Measured::of([("allocs_per_record", allocs as f64 / records as f64)])
                .advise("allocs", allocs)
                .advise("records", records)
        },
    },
    Gate {
        name: "op_allocs_exact",
        why: "records hold interned strings and op paths borrow them: a home store, home fetch, cloud fetch and transcode on the paper testbed make exactly these allocations, so a per-op `String` or record copy shows as one more",
        bound: Bound::Exact(&[3.0, 2.0, 1.0, 17.0]),
        measure: || Measured::of(op_allocs().map(|(kind, n)| (kind, n as f64))),
    },
    Gate {
        name: "recorder_zero_alloc",
        why: "10 000 mixed recorder calls with 0-7 arguments, after a warm-up, allocate only the event log's own chunk growth: an event allocates nothing of its own",
        bound: Bound::AtMost(&[32.0]),
        measure: || Measured::of([("allocs", recorder_allocs(true) as f64)]),
    },
    Gate {
        name: "recorder_off_zero_alloc",
        why: "the same calls on a disabled recorder allocate nothing",
        bound: Bound::Exact(&[0.0]),
        measure: || Measured::of([("allocs", recorder_allocs(false) as f64)]),
    },
    Gate {
        name: "event_log_bytes_per_event",
        why: "the event log writes each event as varints, its start and track as deltas from the event before: 10 000 mixed recorder calls with 0-7 arguments take at most this many stream bytes per event (32-byte heads and 16-byte argument slots took `columns_bytes_per_event`, advisory)",
        bound: Bound::AtMost(&[17.58]),
        measure: event_log_gate,
    },
    Gate {
        name: "service_kernel_allocs",
        why: "a run of the transcoder, face detector and face recognizer on the 64 KiB sample window allocates no more than the byte-at-a-time kernels did",
        bound: Bound::AtMost(&[4.0, 11.0, 2.0]),
        measure: || Measured::of(service_kernel_allocs().map(|(kind, n)| (kind, n as f64))),
    },
    Gate {
        name: "ec_convert_live_bytes",
        why: "an erasure-coded row is a recipe, not bytes: a batch of 256 cold objects coded on the paper testbed keeps at most 8 KiB of live heap per object (rows holding their bytes kept about 109 KiB more)",
        bound: Bound::AtMost(&[EC_LIVE_BYTES_PER_OBJECT]),
        measure: || Measured::of([("live_bytes_per_object", ec_convert_live_bytes(256) as f64)]),
    },
    Gate {
        name: "overlay_1k_zero_alloc",
        why: "ping/pong rounds by direct delivery and leaf-covered and full-view-fallback `route` calls allocate nothing on 64- and 1 000-node full-view rings",
        bound: Bound::Exact(&[0.0, 0.0]),
        measure: overlay_gate,
    },
    Gate {
        name: "allocs_per_health_sample",
        why: "a steady gauge sample pushes integers into registered columns: at most one heap acquisition per sample, the columns' `Vec` doubling",
        bound: Bound::AtMost(&[1.0]),
        measure: || {
            let steady = steady_samples();
            Measured::of([("allocs_per_sample", steady.allocs_per_sample)])
                .advise("samples", steady.samples)
        },
    },
    Gate {
        name: "live_bytes_per_health_sample",
        why: "a steady gauge sample keeps its clock row and a run per changed gauge: at most 128 heap bytes, where a point per gauge kept about 840",
        bound: Bound::AtMost(&[128.0]),
        measure: || Measured::of([("live_bytes_per_sample", steady_samples().live_bytes_per_sample)]),
    },
    Gate {
        name: "gauge_registrations_per_steady_sample",
        why: "every gauge column exists after its subject's first sample, so 200 idle seconds of samples look up no name",
        bound: Bound::Exact(&[0.0]),
        measure: || Measured::of([("registrations", steady_samples().registrations as f64)]),
    },
    Gate {
        name: "tick_visits_flat_in_objects",
        why: "the adaptive review and the anti-entropy sweep look at the objects an event touched, not at the catalogue: settled objects cost a pass nothing, at 1 000, 10 000 and 50 000 of them",
        bound: Bound::Exact(&[0.0, 0.0, 0.0]),
        measure: tick_gate,
    },
];

/// Hold events per chunk of the event-queue gates, more than any
/// population they hold.
const HOLD_OPS: u64 = 2_000_000;

/// 128-byte payload — exactly `size_of::<Event>()` for the runtime's
/// event enum, so the heap's sift moves what it would move in production.
type Payload = [u64; 16];

fn payload(seed: u64) -> Payload {
    [seed; 16]
}

/// Deterministic splitmix64 — the same delay stream on every run.
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

/// The hold model on the production [`EventQueue`] at `n` pending, delays
/// spanning nine orders of magnitude: pre-fill the queue, then pop one and
/// push one so the population holds at `n`.
///
/// Steady state is found, not assumed: hold chunks of [`HOLD_OPS`] events
/// run until one entire chunk performs zero heap acquisitions, and
/// that chunk's allocations (the gated count) and events per second are
/// reported, with the warm chunks before it. The delay stream is
/// deterministic, so the verdict is reproducible; if no chunk quiesces
/// within [`MAX_CHUNKS`], the last chunk's count is reported.
fn hold_gate(n: usize) -> Measured {
    let mut q: EventQueue<Payload> = EventQueue::new();
    let mut mix = Mix(0x000e_1113 + n as u64);
    for i in 0..n as u64 {
        q.schedule_in(Duration::from_nanos(mix.delay()), payload(i));
    }
    let (mut rate, mut allocs, mut warm) = (0.0, u64::MAX, 0);
    for c in 0..MAX_CHUNKS {
        let allocs0 = allocations();
        let started = Instant::now();
        for i in 0..HOLD_OPS {
            let (_, p) = q.pop().expect("population is held at n");
            q.schedule_in(Duration::from_nanos(mix.delay()), payload(p[0] ^ i));
        }
        rate = HOLD_OPS as f64 / started.elapsed().as_secs_f64();
        allocs = allocations() - allocs0;
        warm = c;
        if allocs == 0 {
            break;
        }
    }
    Measured::of([("allocs", allocs as f64)])
        .advise("events_per_sec", rate.round())
        .advise("warm_chunks", warm)
}

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
}

/// Hold events per causal decision in [`explain_overhead`].
const DECISION_EVERY: u64 = 64;

/// Pending events of the [`explain_overhead`] hold model.
const EXPLAIN_PENDING: u64 = 100_000;

/// Records the three ledger-on chunks of [`explain_overhead`] must make:
/// one per [`DECISION_EVERY`] events, exactly.
const EXPLAIN_RECORDS_DUE: u64 = 3 * HOLD_OPS.div_ceil(DECISION_EVERY);

/// [`explain_overhead`], run once for the two gates that read it.
fn explain() -> &'static ExplainOverhead {
    static RUN: OnceLock<ExplainOverhead> = OnceLock::new();
    RUN.get_or_init(explain_overhead)
}

/// Causal-ledger steady-state cost on the hold model at 100k pending.
///
/// Base chunks run pop/push plus the production *disabled* path (one
/// relaxed `enabled()` load per event). Ledger chunks additionally record
/// one causal event per [`DECISION_EVERY`] pops into a warmed working set
/// of `LEDGER_RINGS` op rings — still denser than production, where an
/// op records a handful of decisions across *thousands* of engine events,
/// and harsher: every warmed ring sits at capacity, so each record pays
/// the full chain-protecting eviction, the ledger's worst case. Both
/// modes run chunks until one performs zero heap acquisitions (same
/// quiescence protocol as the hold model), then three quiescent chunks
/// each, interleaved. The gated results are counts — allocations and
/// ledger records; the two rates are advisory.
fn explain_overhead() -> ExplainOverhead {
    const LEDGER_RINGS: u64 = 128;
    let chunk = HOLD_OPS;

    let mut q: EventQueue<Payload> = EventQueue::new();
    let mut mix = Mix(0x000e_1113 + EXPLAIN_PENDING);
    for i in 0..EXPLAIN_PENDING {
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

/// Flows the steady-state `FlowNet` gates keep in flight.
const FLOWNET_INFLIGHT: usize = 200;

/// Home nodes attached to the `FlowNet` gates' testbed topology.
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

/// What [`flownet_steady`] measured.
struct FlowSteady {
    /// Flows finished per second: advisory.
    rate: f64,
    /// Allocations of the rounds that completed nothing.
    quiet_allocs: u64,
    /// Allocations per finished flow of the rounds that completed one,
    /// with their refills.
    churn_allocs: f64,
}

/// [`testbed_flownet`] holding [`FLOWNET_INFLIGHT`] LAN flows of mixed
/// sizes, topped up as they finish, over 20 000 finishes. After a warm-up
/// that lets every buffer reach its high-water mark, each `next_event` +
/// `advance_into` round is charged to "quiet" when it completed nothing and
/// to "churn" — together with the refill that follows — when it did. Run
/// once for the two gates that read it.
fn flownet_steady() -> &'static FlowSteady {
    static RUN: OnceLock<FlowSteady> = OnceLock::new();
    RUN.get_or_init(|| {
        const FINISHES: u64 = 20_000;
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
        let (quiet, churn) = run(&mut net, FINISHES);
        FlowSteady {
            rate: FINISHES as f64 / timer.elapsed().as_secs_f64(),
            quiet_allocs: quiet,
            churn_allocs: churn as f64 / FINISHES as f64,
        }
    })
}

/// Clock moves the polled `FlowNet` gates make between two internal instants.
const FLOWNET_POLLS: u64 = 100_000;

/// What [`flownet_polled`] measured over its clock moves.
struct FlowPolled {
    derives: u64,
    allocs: u64,
    /// Host ns per poll: advisory.
    ns: f64,
}

/// The same [`FLOWNET_INFLIGHT`] LAN flows, polled: once the flows are out
/// of setup, [`FLOWNET_POLLS`] `advance_into` + `next_event` rounds spread
/// over the gap before the engine's next internal instant, reaching none.
/// Run once for the two gates that read it.
fn flownet_polled() -> &'static FlowPolled {
    static RUN: OnceLock<FlowPolled> = OnceLock::new();
    RUN.get_or_init(|| {
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
        FlowPolled {
            ns: timer.elapsed().as_nanos() as f64 / FLOWNET_POLLS as f64,
            derives: net.counters().derives - derives0,
            allocs: allocations() - allocs0,
        }
    })
}

/// Solves timed per `flownet_solve` run.
const SOLVES: u64 = 2_000;

/// The max-min solve at `inflight` LAN flows: the gated candidates per
/// filling round with every flow below its cap, and, advisory, the solve's
/// host time and caps read per derivation there and with every cap binding
/// (where a round scans every unfixed flow).
fn solve_gate(inflight: usize) -> Measured {
    let (ns, per_round, reads) = flownet_solve(inflight, false);
    let (capped_ns, capped_per_round, capped_reads) = flownet_solve(inflight, true);
    Measured::of([("candidates_per_round", per_round)])
        .advise("ns_per_solve", ns.round())
        .advise("cap_reads_per_derive", reads)
        .advise("cap_limited_ns_per_solve", capped_ns.round())
        .advise("cap_limited_candidates_per_round", capped_per_round)
        .advise("cap_limited_cap_reads_per_derive", capped_reads)
}

/// The max-min solve alone, at `inflight` LAN flows topped up as they
/// finish: with the LAN's own profile every flow is offered less than its
/// cap, with `cap_limited` every flow's cap is a quarter of its share. Setup
/// is zero in both, so a solve's filling rounds number the flows in flight.
/// Times the engine calls that solved, over [`SOLVES`] of them; returns (ns
/// per solve, candidates per filling round, caps read per derivation).
fn flownet_solve(inflight: usize, cap_limited: bool) -> (f64, f64, f64) {
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
    while net.counters().solves - first.solves < SOLVES {
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

/// Chain lengths at which [`dht_chain_gate`] measures one append.
const CHAIN_LENGTHS: [u64; 3] = [10, 1_000, 100_000];

/// Appends measured at each chain length.
const CHAIN_WINDOW: u64 = 64;

/// Chained puts to one key on four overlay nodes wired by direct delivery,
/// two replica targets per record: the root appends, re-reads the record and
/// sends a copy to each target, as for every directory entry a `store`
/// writes. Counts allocations per append over [`CHAIN_WINDOW`] appends
/// starting at each of [`CHAIN_LENGTHS`] (an append runs from `put` until
/// the origin has its `PutCompleted`); the gated count is how many more the
/// longest chain's append makes than the shortest's.
fn dht_chain_gate() -> Measured {
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
    let [(short, ns_10), (_, ns_1000), (long, ns_100000)] = CHAIN_LENGTHS.map(|start| {
        while append(&mut nodes) < start {}
        let allocs0 = allocations();
        let timer = Instant::now();
        for _ in 0..CHAIN_WINDOW {
            append(&mut nodes);
        }
        let ns = timer.elapsed().as_nanos() as f64 / CHAIN_WINDOW as f64;
        let allocs = (allocations() - allocs0) as f64 / CHAIN_WINDOW as f64;
        (allocs, ns.round())
    });
    // The root and both replica targets hold the whole chain.
    let holders = nodes.iter().filter_map(|n| n.local_get(key));
    assert_eq!(holders.filter(|v| v.version() == len).count(), 3);
    Measured::of([("allocs_growth", long - short)])
        .advise("allocs_at_10", short)
        .advise("allocs_at_100000", long)
        .advise("ns_at_10", ns_10)
        .advise("ns_at_1000", ns_1000)
        .advise("ns_at_100000", ns_100000)
}

/// Encodes per kind in [`record_encode_allocs`].
const ENCODE_REPS: u64 = 64;

/// Allocations per encode for a record of each kind at the shape the
/// workloads publish, and for a directory entry.
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

/// Nodes on the [`dht_put_path`] ring.
const PUT_RING: usize = 16;

/// What one counted put on the [`dht_put_path`] ring did.
struct PutPath {
    allocs: u64,
    hops: u8,
    replicas: usize,
}

/// An overwrite put on a chimera-only ring of [`PUT_RING`] nodes, each
/// knowing only its leaf set, so the put walks the ring hop by hop. Every
/// node has a recorder attached but switched off. The key is rooted half
/// way round the ring from the origin; a lookup has cached it at every hop
/// of the path, and the root replicates it to two leaf-set neighbours. The
/// put's bytes exist before counting starts: the count runs from `put`
/// until the origin has its `PutCompleted`. Asserts that the put crossed at
/// least 3 hops, refreshed a forwarding hop's cached copy and reached the
/// root and both replicas.
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
    assert!(
        hops >= 3,
        "the put crossed {hops} hops, not a path of forwarding hops"
    );
    assert!(
        get(&mut nodes).is_some_and(|(v, cached)| cached && v.latest() == &data[..]),
        "the put did not refresh a forwarding hop's cached copy"
    );
    let replicas = nodes
        .iter()
        .filter(|n| n.local_get(key).is_some_and(|v| v.latest() == &data[..]))
        .count();
    assert_eq!(replicas, 3, "root and replicas holding the new bytes");
    PutPath {
        allocs,
        hops,
        replicas,
    }
}

/// Virtual time the idle and per-op testbeds run before counting.
const IDLE_WARM: Duration = Duration::from_secs(60);

/// Virtual time [`idle_publish`] counts over.
const IDLE_WINDOW: Duration = Duration::from_secs(600);

/// The paper testbed left idle: (allocations, resource records published)
/// over [`IDLE_WINDOW`] after [`IDLE_WARM`], recording off. The records
/// are counted on a twin world that records the window alone, which
/// publishes the same records (recording moves no virtual instant), in one
/// snapshot after it.
fn idle_publish() -> (u64, u64) {
    let config = Config::paper_testbed(2011);
    let mut twin = Cloud4Home::new(config.clone());
    twin.run_for(IDLE_WARM);
    twin.set_tracing(true);
    twin.run_for(IDLE_WINDOW);
    let records = twin
        .telemetry()
        .snapshot()
        .counter("kvstore.record_encodes");
    assert!(records > 0, "the idle testbed published no record");
    let mut home = Cloud4Home::new(config);
    home.set_tracing(false);
    home.run_for(IDLE_WARM);
    let before = allocations();
    home.run_for(IDLE_WINDOW);
    (allocations() - before, records)
}

/// Runs of each op before the gated ones: the interner, the metadata
/// caches and the event queue's buffer have settled by then.
const OP_WARM: usize = 16;

/// Gated runs of each op; the gate reads the fewest allocations among
/// them.
const OP_REPS: usize = 8;

/// Heap acquisitions of one op of each kind on the paper testbed,
/// recording off: a store overwriting a home object, a fetch of it, a
/// fetch of an object the cloud holds, and a transcode of the home object.
/// Each op runs from submit to its report as the benchmark driver runs one
/// (20 ms polls, `take_report`). The resource monitor publishes hourly, so
/// no record publish lands inside an op; the count is the fewest of
/// [`OP_REPS`] runs after [`OP_WARM`], because an event-queue buffer that
/// one run happens to grow is the queue's, not the op's.
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

/// Live heap bytes one erasure-coded object may keep (see
/// [`ec_convert_live_bytes`]): about 3.3 KiB today, of which 1.5 KiB any
/// stored object keeps on full copies and 1.4 KiB are its five stripe
/// records in the overlay. One row holding its bytes adds 21.8 KiB.
const EC_LIVE_BYTES_PER_OBJECT: f64 = 8_192.0;

/// The paper testbed with the adaptive plane on, recording off, stores
/// cold synthetic objects of twice the conversion threshold in two batches
/// of `batch`, each run until every object is erasure-coded and nothing
/// is in flight. The first batch grows what the conversions use in bulk
/// (flow and job tables, the event queue) to its working size; the second
/// is measured. Returns the live heap bytes the second batch gained per
/// object, and asserts that every object of it was coded.
fn ec_convert_live_bytes(batch: usize) -> u64 {
    let mut config = Config::paper_testbed(2011);
    config.adaptive.enabled = true;
    let size = 2 * config.adaptive.ec_threshold_bytes;
    let rows = config.adaptive.ec_k + config.adaptive.ec_m;
    let mut home = Cloud4Home::new(config);
    home.run_for(IDLE_WARM);
    home.run_until_idle();
    let names: Vec<String> = (0..2 * batch)
        .map(|i| format!("gate/cold-{i}.bin"))
        .collect();
    let convert = |home: &mut Cloud4Home, names: &[String]| {
        for (i, name) in names.iter().enumerate() {
            let obj = Object::synthetic(name, i as u64, size, "tar");
            let client = NodeId(i % home.node_count());
            let op = home.store_object(client, obj, StorePolicy::ForceHome, true);
            home.run_until_complete(op).expect_ok();
        }
        let coded = |home: &Cloud4Home| names.iter().filter(|n| home.is_erasure_coded(n)).count();
        for _ in 0..600 {
            if coded(home) == names.len() {
                break;
            }
            home.run_for(Duration::from_secs(1));
        }
        // The last conversions' records and caches settle.
        home.run_for(Duration::from_secs(10));
        home.run_until_idle();
        coded(home)
    };
    let (warm, measured) = names.split_at(batch);
    convert(&mut home, warm);
    // The interner's table is the process's: the measured objects' names
    // and their stripe names go in before the window opens, so its growth
    // is not counted by whichever gate first uses a name.
    for name in measured {
        Sym::new(name);
        for row in 0..rows {
            Sym::from_fmt(format_args!("{name}.ec{row}"));
        }
    }
    let interned = Sym::interned_count();
    let before = live_bytes();
    let coded = convert(&mut home, measured);
    let gained = live_bytes().saturating_sub(before);
    assert_eq!(coded, batch, "objects of the measured batch erasure-coded");
    assert_eq!(
        Sym::interned_count(),
        interned,
        "the window interned no name"
    );
    gained / batch as u64
}

/// Recorder calls per window of [`recorder_allocs`].
const RECORDER_CALLS: u64 = 10_000;

/// Spans [`recorder_calls`] keeps open at most.
const RECORDER_OPEN: usize = 16;

/// A span [`recorder_calls`] began: its token, its track and how many
/// begin arguments its end passes first.
type OpenSpan = (SpanStart, u64, usize);

/// `calls` mixed recorder calls: begins (while fewer than
/// [`RECORDER_OPEN`] spans are open), ends of a span picked from the open
/// ones (so out of order), complete spans and instants, each with 0-7
/// arguments — integers and borrowed strings, as the runtime's call sites
/// pass them. An end passes its span's begin arguments, then its own.
fn recorder_calls(rec: &Recorder, mix: &mut Mix, open: &mut Vec<OpenSpan>, calls: u64) {
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
        match r % 4 {
            0 if open.len() < RECORDER_OPEN => open.push((rec.begin(t), r % 8, n)),
            0 | 1 if !open.is_empty() => {
                let (span, track, begun) = open.swap_remove((r >> 32) as usize % open.len());
                let args = args[..begun].iter().chain(&args[..n]).cloned();
                rec.end(span, "dht", "dht.get", track, t, args);
            }
            2 => rec.span_args(
                "stage",
                "fetch.flow_home",
                r % 8,
                t,
                t + 5,
                args[..n].iter().cloned(),
            ),
            _ => rec.instant_args("op", "fetch.failover", r % 8, t, args[..n].iter().cloned()),
        }
    }
}

/// Allocations of [`RECORDER_CALLS`] recorder calls after as many warm-up
/// calls, on an enabled or a disabled recorder.
fn recorder_allocs(enabled: bool) -> u64 {
    let rec = Recorder::new();
    rec.set_enabled(enabled);
    let (mut mix, mut open) = (Mix(0x5eed_0034), Vec::with_capacity(RECORDER_OPEN));
    recorder_calls(&rec, &mut mix, &mut open, RECORDER_CALLS);
    let before = allocations();
    recorder_calls(&rec, &mut mix, &mut open, RECORDER_CALLS);
    allocations() - before
}

/// The event log's stream bytes per event over [`RECORDER_CALLS`] calls
/// of [`recorder_calls`]' mix, and, advisory, what 32-byte heads and
/// 16-byte argument slots held for the same events.
fn event_log_gate() -> Measured {
    let rec = Recorder::new();
    rec.set_enabled(true);
    let (mut mix, mut open) = (Mix(0x5eed_0034), Vec::with_capacity(RECORDER_OPEN));
    recorder_calls(&rec, &mut mix, &mut open, RECORDER_CALLS);
    let events = rec.snapshot().events;
    let args: usize = events
        .iter()
        .map(|ev| match ev {
            EventRec::Span(span) => span.args.len(),
            EventRec::Instant(instant) => instant.args.len(),
        })
        .sum();
    let bytes = rec.event_log_bytes();
    let per_event = |bytes: usize| bytes as f64 / events.len() as f64;
    Measured::of([("bytes_per_event", per_event(bytes))])
        .advise(
            "columns_bytes_per_event",
            per_event(32 * events.len() + 16 * args),
        )
        .advise("bytes", bytes)
        .advise("events", events.len())
}

/// Ring sizes of [`overlay_gate`].
const OVERLAY_PEERS: [usize; 2] = [64, 1_000];

/// Keys per kind of `route` call in [`overlay_ring`].
const OVERLAY_KEYS: usize = 64;

/// Ping rounds [`overlay_ring`] counts.
const OVERLAY_ROUNDS: u64 = 200;

/// Repetitions of each key set's `route` calls in [`overlay_ring`].
const ROUTE_REPS: u64 = 2_000;

/// What one [`overlay_ring`] measured: the allocations of its ping rounds
/// and `route` calls, and what a delivery and a route call cost the host.
struct OverlayRing {
    allocs: u64,
    ns_per_delivery: f64,
    ns_per_covered_route: f64,
    ns_per_fallback_route: f64,
}

/// The overlay gate: allocations of the ping rounds and `route` calls at 64
/// and 1 000 peers. Advisory beside them: what a delivery and a route call
/// cost the host at each ring size, and what one processed event costs it
/// on [`paper::OVERLAY_SCALING`]'s 24- and 384-node worlds (the fastest of
/// three runs of each) — none of which should grow with the world.
fn overlay_gate() -> Measured {
    let [small, large] = OVERLAY_PEERS.map(overlay_ring);
    let host_us_per_event = |nodes: usize| {
        (0..3)
            .map(|_| {
                let timer = Instant::now();
                let row = paper::overlay_row(nodes, 0);
                timer.elapsed().as_secs_f64() * 1e6 / row.steps as f64
            })
            .fold(f64::INFINITY, f64::min)
    };
    let (us_24, us_384) = (host_us_per_event(24), host_us_per_event(384));
    Measured::of([
        ("allocs_64_peers", small.allocs as f64),
        ("allocs_1000_peers", large.allocs as f64),
    ])
    .advise("ns_per_delivery_64", small.ns_per_delivery)
    .advise("ns_per_delivery_1000", large.ns_per_delivery)
    .advise("ns_per_covered_route_64", small.ns_per_covered_route)
    .advise("ns_per_covered_route_1000", large.ns_per_covered_route)
    .advise("ns_per_fallback_route_64", small.ns_per_fallback_route)
    .advise("ns_per_fallback_route_1000", large.ns_per_fallback_route)
    .advise("host_us_per_event_24_nodes", us_24)
    .advise("host_us_per_event_384_nodes", us_384)
    .advise("host_us_per_event_ratio", us_384 / us_24)
}

/// `n` overlay nodes, each assembled with the whole ring as its view — the
/// view a protocol join leaves, as on the `neighborhood-1k` world — driven
/// by direct delivery. Each ping round ticks every node, which pings its two
/// ring neighbours, and delivers until quiet: every ping is answered, so
/// nobody is ever declared failed. After two warm-up rounds,
/// [`OVERLAY_ROUNDS`] rounds are counted. Then `route` runs on node 0's view
/// for keys its leaf set covers, and — with an empty prefix table, as when
/// the table has no hop — for keys it does not, which reach the full-view
/// fallback.
fn overlay_ring(n: usize) -> OverlayRing {
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
    let deliveries: u64 = (0..OVERLAY_ROUNDS).map(|_| ping_round(&mut nodes)).sum();
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
        for _ in 0..ROUTE_REPS {
            for &key in keys {
                std::hint::black_box(route(owner, key, &leaf, table, &peers));
            }
        }
        let calls = ROUTE_REPS * keys.len() as u64;
        (
            timer.elapsed().as_nanos() as f64 / calls as f64,
            allocations() - allocs0,
        )
    };
    let (ns_per_covered_route, covered_allocs) = timed_routes(&covered, &table);
    let (ns_per_fallback_route, fallback_allocs) = timed_routes(&fallback, &no_table);
    OverlayRing {
        allocs: delivery_allocs + covered_allocs + fallback_allocs,
        ns_per_delivery,
        ns_per_covered_route,
        ns_per_fallback_route,
    }
}

/// Allocations and host seconds of `Cloud4Home::new` on the
/// `neighborhood-1k` world at `nodes` nodes, in a process that has built
/// that world once already.
fn join_allocs(nodes: usize) -> (u64, f64) {
    let config = neighborhood_config(nodes, 2011);
    // A first join grows what every join in the process shares: the
    // interner's table, which takes each node's name, and this thread's
    // record-encoding buffer. The second join is measured.
    drop(Cloud4Home::new(config.clone()));
    let interned = Sym::interned_count();
    let (before, timer) = (allocations(), Instant::now());
    let home = Cloud4Home::new(config);
    let (allocs, secs) = (allocations() - before, timer.elapsed().as_secs_f64());
    drop(home);
    assert_eq!(Sym::interned_count(), interned, "the join interned no name");
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

/// Heap acquisitions one `run` of each service kernel makes on the
/// runtime's 64 KiB sample window — a count, not a clock, so a kernel is
/// not made faster by allocating more. The bounds are what the
/// byte-at-a-time kernels made on it: the transcoder's coefficient stream,
/// its run-length output (grown once) and the summary; the detector's
/// integral image, its 203 detections (grown from 4 to 256) and output; the
/// recognizer's output and summary.
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

/// A seeded mixed workload on a two-replica paper testbed, recording on:
/// twelve 512 KiB images stored, fetched from other nodes, four of them
/// face-detected, then drained; `health_sample_ms = 0` disables the gauge
/// sampler outright.
fn health_workload(health_sample_ms: u64) -> Cloud4Home {
    const OBJECTS: usize = 12;
    let mut cfg = Config::paper_testbed(2024);
    cfg.replication = 2;
    cfg.tracing = true;
    cfg.health_sample_ms = health_sample_ms;
    let mut home = Cloud4Home::new(cfg);
    let name = |i: usize| format!("health/img-{i:03}.jpg");
    for i in 0..OBJECTS {
        let obj = Object::synthetic(&name(i), 900 + i as u64, 512 << 10, "jpeg");
        let op = home.store_object(NodeId(i % 4), obj, StorePolicy::ForceHome, true);
        home.run_until_complete(op).expect_ok();
    }
    for i in 0..OBJECTS {
        let op = home.fetch_object(NodeId((i + 2) % 4), &name(i));
        home.run_until_complete(op).expect_ok();
    }
    for i in 0..4 {
        let (detect, route) = (ServiceKind::FaceDetect, RoutePolicy::Performance);
        let op = home.process_object(NodeId(0), &name(i), detect, route);
        home.run_until_complete(op).expect_ok();
    }
    home.run_until_idle();
    home
}

/// What the gauge sampler costs over 200 idle virtual seconds after
/// [`health_workload`].
struct Steady {
    /// Heap acquisitions per gauge sample.
    allocs_per_sample: f64,
    /// Heap bytes per gauge sample still live at the window's end.
    live_bytes_per_sample: f64,
    /// Gauges registered over the window.
    registrations: usize,
    /// Samples the window took.
    samples: usize,
}

/// Measures [`Steady`], once for the three gates that read it. The sampler
/// perturbs nothing, so the same 200 idle virtual seconds, traced with the
/// sampler on and with it off, differ by exactly the sampler's own
/// acquisitions and the bytes it keeps. One snapshot, after the window,
/// counts the samples; asserts there were at least 300.
fn steady_samples() -> &'static Steady {
    static RUN: OnceLock<Steady> = OnceLock::new();
    RUN.get_or_init(|| {
        let idle = |cadence_ms: u64| {
            let mut home = health_workload(cadence_ms);
            let registered0 = home.telemetry().gauges_registered();
            let (start, allocs0, live0) = (home.now(), allocations(), live_bytes());
            home.run_for(Duration::from_secs(200));
            let allocs = allocations() - allocs0;
            let live = live_bytes() as i64 - live0 as i64;
            let registrations = home.telemetry().gauges_registered() - registered0;
            (allocs, live, registrations, start, home)
        };
        let (off, live_off, ..) = idle(0);
        let (on, live_on, registrations, start, home) = idle(500);
        let series = home.telemetry().snapshot().series;
        let depth = series
            .get("runtime.queue_depth")
            .map_or(&[][..], |s| s.points());
        let samples = depth
            .iter()
            .filter(|&&(ts, _)| ts > start.as_nanos())
            .count();
        assert!(
            samples >= 300,
            "{samples} gauge samples in 200 idle seconds"
        );
        Steady {
            allocs_per_sample: on.saturating_sub(off) as f64 / samples as f64,
            live_bytes_per_sample: (live_on - live_off) as f64 / samples as f64,
            registrations,
            samples,
        }
    })
}

/// Settled-object populations of [`tick_gate`].
const POPULATIONS: [usize; 3] = [1_000, 10_000, 50_000];

/// The periodic passes over [`POPULATIONS`] settled objects: review and
/// repair visits per pass (the gated counts) and, advisory, the host µs of
/// one `Tick` at each size and its ratio at 10 000 to 1 000 objects.
fn tick_gate() -> Measured {
    let [(visits_1k, us_1k), (visits_10k, us_10k), (visits_50k, us_50k)] =
        POPULATIONS.map(idle_ticks);
    Measured::of([
        ("visits_per_pass_1000", visits_1k),
        ("visits_per_pass_10000", visits_10k),
        ("visits_per_pass_50000", visits_50k),
    ])
    .advise("host_us_per_tick_1000", us_1k)
    .advise("host_us_per_tick_10000", us_10k)
    .advise("host_us_per_tick_50000", us_50k)
    .advise("host_us_per_tick_ratio", us_10k / us_1k)
}

/// A 12-node world, replication 3, adaptive plane on with the band pinned
/// at 3 (so nothing shrinks) and every object below the erasure-coding
/// threshold: `objects` stores, a minute to settle, then three minutes of
/// idle ticks — 120 `Tick`s, 30 adaptive passes and 6 anti-entropy sweeps
/// each. Returns (review + repair visits per pass, host µs per `Tick` of
/// the fastest minute).
fn idle_ticks(objects: usize) -> (f64, f64) {
    const REPS: u32 = 3;
    let mut config = Config::paper_testbed(1900);
    config.chimera.leaf_size = 2;
    config.nodes = (0..11)
        .map(|i| NodeSpec::netbook(&format!("pop-{i}")))
        .collect();
    config.nodes.push(NodeSpec::desktop("pop-desktop"));
    config.replication = 3;
    config.adaptive.enabled = true;
    config.adaptive.replication_min = 3;
    config.adaptive.replication_max = 3;
    let mut home = Cloud4Home::new(config);
    for i in 0..objects {
        let name = format!("pop/{:02}/obj-{i}", i % 64);
        let obj = Object::synthetic(&name, i as u64, 4 << 10, "doc");
        let op = home.store_object(NodeId(i % 12), obj, StorePolicy::ForceHome, true);
        home.run_until_complete(op).expect_ok();
    }
    home.run_until_idle();
    home.run_for(Duration::from_secs(60));

    let window = Duration::from_secs(60);
    let (ticks, passes) = (120.0, 36.0);
    let before = home.adaptive_review_visits() + home.repair_scan_visits();
    let mut host_s = f64::INFINITY;
    for _ in 0..REPS {
        let started = Instant::now();
        home.run_for(window);
        host_s = host_s.min(started.elapsed().as_secs_f64());
    }
    let visits = home.adaptive_review_visits() + home.repair_scan_visits() - before;
    (
        visits as f64 / (passes * f64::from(REPS)),
        host_s * 1e6 / ticks,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounds_hold_entry_by_entry() {
        assert!(Bound::Exact(&[3.0, 2.0]).holds(&[3.0, 2.0]));
        assert!(!Bound::Exact(&[3.0, 2.0]).holds(&[3.0, 1.0]));
        assert!(
            !Bound::Exact(&[3.0, 2.0]).holds(&[3.0]),
            "one count per entry"
        );
        assert!(Bound::AtMost(&[4.0, 11.0]).holds(&[3.0, 11.0]));
        assert!(!Bound::AtMost(&[4.0, 11.0]).holds(&[5.0, 0.0]));
        assert_eq!(Bound::AtMost(&[1.1]).to_string(), "at most 1.10");
        assert_eq!(Bound::Exact(&[3.0, 17.0]).to_string(), "exactly 3 / 17");
    }

    #[test]
    fn every_gate_is_named_once() {
        let mut names: Vec<_> = GATES.iter().map(|g| g.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), GATES.len());
    }

    #[test]
    fn a_panicking_measure_fails_its_gate_with_the_message() {
        let gate = Gate {
            name: "demo",
            why: "",
            bound: Bound::Exact(&[0.0]),
            measure: || panic!("set-up went wrong"),
        };
        assert_eq!(gate.measure().unwrap_err(), "set-up went wrong");
    }
}
