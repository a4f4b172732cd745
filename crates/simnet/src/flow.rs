//! Fluid-flow bulk-transfer engine with max-min fair bandwidth sharing.
//!
//! Bulk object transfers are modeled as *flows*: a source, a destination, a
//! byte count, and a path of shared [`Segment`](crate::topology::Segment)s.
//! At any instant every flow has a rate, computed by progressive-filling
//! max-min fair allocation subject to each flow's TCP cap (which ramps up
//! over time and may degrade after a sustained-byte threshold — see
//! [`TcpProfile`]). Between rate changes the system is linear, so the engine
//! only needs to handle discrete events: flow arrival, setup completion,
//! ramp steps, sustained-threshold crossings, and completions.
//!
//! The engine is pull-based: the simulation runtime asks for
//! [`FlowNet::next_event`] and merges it with its own event queue, then calls
//! [`FlowNet::advance_into`] to move the clock and collect completions.
//!
//! Between two of its own events a flow's state is a pure function of
//! virtual time: it holds a *rate epoch* — an anchor instant, the progress
//! made by then and a fixed-point rate — and its bytes at `t`, its
//! completion instant and its sustained-threshold crossing are all read off
//! those integers, so the instant [`FlowNet::next_event`] announces is the
//! instant the flow lands. A clock move that reaches no such instant is
//! `now = to` and nothing else; only a start, a cancel, a
//! [`FlowNet::topology_mut`] call or reaching the announced instant makes
//! the engine look at its flows again (one *derivation*: re-read the caps
//! of the flows at their own instant, re-solve if the solver's inputs
//! moved, re-anchor the flows whose rate did, find the next instant). See
//! DESIGN.md ("Poll-independence contract").
//!
//! A derivation pays for what changed and the solve for what binds, on
//! three lemmas (`FlowNet::reallocate`, DESIGN.md §12). *Lower-bound
//! round:* when the smallest share any path offers is no larger than a
//! lower bound on the unfixed flows' caps, that share is the round's
//! minimum and the first flow to tie at it wins — the round costs the
//! shares plus the flows looked at before that one, not a scan of all.
//! *Replayed trace:* a derivation whose inputs differ from the last one's
//! only in caps that never bound, then or now, would replay the solve round
//! for round, so it keeps the stored rates. *Own instants:* a cap moves
//! only at its flow's setup end, ramp steps and sustained threshold, each
//! an instant the flow announces, so a flow caches its cap and a derivation
//! reads only the flows whose instant it is, the segment capacities and
//! whether a flow of the last inputs left. The orders the rates' bits
//! depend on — flows enter in ascending id, the first of equal candidates
//! wins, `swap_remove` picks who is seen first next — are kept exactly;
//! [`FlowCounters`] counts solves, candidate evaluations and cap reads.

use std::collections::BTreeMap;

use c4h_telemetry::{ArgValue, Recorder, SpanStart};

use crate::hash::FxHashMap;
use crate::intern::Sym;
use crate::tcp::{SustainedCap, TcpProfile};
use crate::time::SimTime;
use crate::topology::{Addr, SegmentId, Topology};
use crate::DetRng;

/// Telemetry track base for network-flow spans: flow `n` renders on track
/// `NET_TRACK_BASE + n`, keeping flows clear of the per-operation tracks.
pub const NET_TRACK_BASE: u64 = 2_000_000;

/// Identifier of an in-flight bulk transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FlowId(u64);

impl FlowId {
    /// The raw identifier.
    pub const fn raw(self) -> u64 {
        self.0
    }
}

/// Chunking policy for a bulk transfer started via
/// [`FlowNet::start_transfer`].
///
/// Objects larger than `chunk_bytes` are split into pipelined chunks of at
/// most `chunk_bytes` each, with up to `window` chunk flows in flight at
/// once. Each chunk is an ordinary flow subject to max-min fair sharing and
/// the route's TCP profile, so chunking amortizes slow-start ramp-up and —
/// because per-flow caps apply per chunk — lets one logical transfer use
/// more of a segment than a single capped flow could.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkSpec {
    /// Maximum bytes per chunk; transfers at or below this size are not
    /// split.
    pub chunk_bytes: u64,
    /// Maximum concurrent chunk flows for one transfer.
    pub window: usize,
}

/// An event produced by the flow engine during [`FlowNet::advance_into`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlowEvent {
    /// The flow delivered its final byte at the given instant.
    Completed {
        /// The finished transfer.
        flow: FlowId,
        /// When the final byte arrived.
        at: SimTime,
    },
}

/// Errors returned by [`FlowNet::start_flow`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetError {
    /// No route is configured between the endpoints' sites.
    NoRoute {
        /// The transfer's source endpoint.
        src: Addr,
        /// The transfer's destination endpoint.
        dst: Addr,
    },
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::NoRoute { src, dst } => {
                write!(f, "no route between {src} and {dst}")
            }
        }
    }
}

impl std::error::Error for NetError {}

/// Rates are whole numbers of 2⁻²⁰ bytes per second, so progress — rate
/// units × nanoseconds — is exact integer arithmetic and a byte is
/// [`BYTE`] units of it. At the slowest preset rate (62 kB/s) the rounding
/// is 1.5e-11 of the rate: 55 ns on an hour-long transfer.
const RATE_ONE: f64 = (1u64 << 20) as f64;

/// Progress units per byte.
const BYTE: u128 = (1 << 20) * 1_000_000_000;

/// An allocated rate in fixed point, rounded down so that a segment's
/// flows never add up to more than it was solved for.
fn fixed(rate_bps: f64) -> u64 {
    (rate_bps * RATE_ONE) as u64
}

/// Index into [`FlowNet::paths`]: a route's segment list, shared by every
/// flow started on that route.
type PathId = usize;

#[derive(Debug)]
struct Flow {
    id: FlowId,
    path: PathId,
    total_bytes: u64,
    tcp: TcpProfile,
    /// Per-flow bandwidth availability factor (WAN variability).
    factor: f64,
    /// Instant the connection setup completes and bytes start moving.
    active_from: SimTime,
    /// The rate epoch: `sent` progress units had moved by `anchor`, and
    /// `rate` (fixed point, 0 while in setup) more move every nanosecond
    /// since. Rewritten only when a solve gives the flow a different rate.
    anchor: SimTime,
    sent: u128,
    rate: u64,
    /// The flow's own next event — setup completion, ramp step, sustained
    /// threshold or last byte, whichever is first in this epoch. At or
    /// before the engine's clock it means "not derived yet".
    due: SimTime,
    /// The largest share the flow's path was offered in a round of the last
    /// solve the flow was still unfixed in: a cap at or above it did not
    /// bind.
    bound: f64,
    /// The flow's cap, whether the sustained cap applies, and whether its
    /// next ramp step still raises the cap — read at its last own instant
    /// past setup, and constant until the next one (DESIGN.md §12). `cap` is
    /// NaN until that first read: the flow has not joined a solve's input.
    cap: f64,
    shaped: bool,
    ramping: bool,
    /// Chunked-transfer parent, when this flow carries one chunk of a
    /// larger logical transfer. Chunk completions feed the parent instead of
    /// surfacing as [`FlowEvent`]s.
    parent: Option<FlowId>,
}

/// A chunked logical transfer: a facade over a pipeline of chunk flows,
/// exposed to callers under a single parent [`FlowId`].
#[derive(Debug)]
struct Transfer {
    path: PathId,
    tcp: TcpProfile,
    /// One bandwidth factor sampled at transfer start and shared by every
    /// chunk, so chunk dispatch never consumes randomness mid-run.
    factor: f64,
    chunk_bytes: u64,
    total_bytes: u64,
    /// Bytes not yet dispatched as chunk flows.
    undispatched: u64,
    /// Chunk flows currently in flight.
    live: Vec<FlowId>,
    /// Bytes of fully delivered chunks.
    delivered: u64,
}

impl Flow {
    fn new(
        id: FlowId,
        path: PathId,
        bytes: u64,
        tcp: &TcpProfile,
        factor: f64,
        now: SimTime,
        parent: Option<FlowId>,
    ) -> Flow {
        Flow {
            id,
            path,
            total_bytes: bytes,
            tcp: tcp.clone(),
            factor,
            active_from: now + tcp.setup,
            anchor: now,
            sent: 0,
            rate: 0,
            due: now,
            bound: f64::INFINITY,
            cap: f64::NAN,
            shaped: false,
            ramping: false,
            parent,
        }
    }

    /// Whether the flow is in the solver's input: its cap was read past
    /// setup.
    fn joined(&self) -> bool {
        !self.cap.is_nan()
    }

    fn is_active(&self, now: SimTime) -> bool {
        now >= self.active_from
    }

    /// Progress units moved by `at`: the one function every byte count and
    /// every predicted instant of this epoch is read from.
    fn progress(&self, at: SimTime) -> u128 {
        let dt = at.as_nanos() - self.anchor.as_nanos();
        self.sent + u128::from(self.rate) * u128::from(dt)
    }

    /// Whole bytes delivered by `at`.
    fn bytes(&self, at: SimTime) -> u64 {
        // Above 1 GB/s the last nanosecond moves more than a byte.
        ((self.progress(at) / BYTE) as u64).min(self.total_bytes)
    }

    fn rate_bps(&self) -> f64 {
        self.rate as f64 / RATE_ONE
    }

    /// Opens a new epoch at `now` if `rate` differs from the present one.
    fn set_rate(&mut self, now: SimTime, rate: u64) {
        if rate != self.rate {
            (self.sent, self.anchor, self.rate) = (self.progress(now), now, rate);
            self.due = now;
        }
    }

    /// The flow's own rate cap at `now` (before sharing), whether the
    /// sustained cap applies (`bytes(now) >= threshold`, without the
    /// division) and whether the next ramp step raises the cap: what
    /// [`Flow::refresh`] caches, read off the profile.
    fn cap_state(&self, now: SimTime) -> (f64, bool, bool) {
        let tcp = &self.tcp;
        let crossed = |s: SustainedCap| self.progress(now) >= u128::from(s.threshold_bytes) * BYTE;
        let shaped = tcp.sustained.is_some_and(crossed);
        let active = now
            .checked_duration_since(self.active_from)
            .unwrap_or_default();
        // `cap_at` reads the byte count against the threshold only.
        let cap = tcp.cap_at(active, if shaped { u64::MAX } else { 0 });
        let ramping = !shaped
            && !tcp.ramp_step.is_zero()
            && tcp.ramp_bps_per_sec > 0.0
            && cap < tcp.rate_cap_bps;
        (cap * self.factor, shaped, ramping)
    }

    /// Re-reads the cached cap state: at one of the flow's own instants
    /// past setup, the only instants it can move at.
    fn refresh(&mut self, now: SimTime) {
        (self.cap, self.shaped, self.ramping) = self.cap_state(now);
    }

    /// The flow's next event after `now`, given its present epoch and its
    /// cached cap state.
    fn next_due(&self, now: SimTime) -> SimTime {
        if !self.is_active(now) {
            return self.active_from;
        }
        let mut due = SimTime::MAX;
        if self.ramping {
            let step = self.tcp.ramp_step.as_nanos() as u64;
            let active = now.as_nanos() - self.active_from.as_nanos();
            due = SimTime::from_nanos(now.as_nanos() + step - active % step);
        }
        if self.rate > 0 {
            // The first nanosecond at which `progress` reaches the next
            // byte count that matters. It is after `now`: a flow is retired
            // in the instant it reaches its total.
            let target = match self.tcp.sustained {
                Some(s) if !self.shaped => s.threshold_bytes.min(self.total_bytes),
                _ => self.total_bytes,
            };
            let left = (u128::from(target) * BYTE).saturating_sub(self.sent);
            let lands = u64::try_from(left.div_ceil(u128::from(self.rate)))
                .ok()
                .and_then(|dt| self.anchor.as_nanos().checked_add(dt));
            due = due.min(lands.map_or(SimTime::MAX, SimTime::from_nanos));
        }
        due
    }

    /// Whether the last byte has landed by `now`.
    fn is_complete(&self, now: SimTime) -> bool {
        self.progress(now) >= u128::from(self.total_bytes) * BYTE
    }
}

/// Progress report for an in-flight transfer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlowProgress {
    /// Bytes delivered so far.
    pub sent_bytes: f64,
    /// Total bytes to deliver.
    pub total_bytes: u64,
    /// Current allocated rate (bytes/second).
    pub rate_bps: f64,
}

/// Point-in-time load on one topology segment, for the health plane.
#[derive(Debug, Clone, PartialEq)]
pub struct SegmentLoad {
    /// The segment ([`Topology::segment`] has its name).
    pub segment: SegmentId,
    /// Sum of the rates currently allocated to flows crossing the segment,
    /// bytes/second.
    pub allocated_bps: f64,
    /// The segment's configured capacity, bytes/second.
    pub capacity_bps: f64,
    /// Number of active flows (chunk flows included) crossing the segment.
    pub flows: usize,
}

impl SegmentLoad {
    /// Utilization as integer permille of capacity, clamped to `[0, 1000]`.
    ///
    /// Integer fixed-point keeps gauge exports byte-stable; the max-min
    /// allocator never overfills a segment, so the clamp only guards
    /// floating-point rounding at the top.
    pub fn util_permille(&self) -> u64 {
        if self.capacity_bps <= 0.0 {
            return 0;
        }
        let permille = (self.allocated_bps * 1000.0 / self.capacity_bps).round();
        (permille.max(0.0) as u64).min(1000)
    }
}

/// An active flow the solve under way has not given a rate yet.
#[derive(Debug, Clone, Copy)]
struct Unfixed {
    /// Index in [`FlowNet::flows`].
    flow: usize,
    path: PathId,
    cap: f64,
}

/// Buffers [`FlowNet::reallocate`] reuses, so a warmed-up engine solves
/// without touching the allocator.
#[derive(Debug, Default)]
struct AllocScratch {
    /// Every segment's capacity bits at the last derivation.
    capacities: Vec<u64>,
    /// The last derivation's signature of the solver's inputs, rebuilt
    /// from scratch: what the replay decision is checked against.
    #[cfg(debug_assertions)]
    signature: Vec<u64>,
    unfixed: Vec<Unfixed>,
    /// Per segment: capacity left and unfixed flows crossing it.
    residual: Vec<f64>,
    count: Vec<usize>,
    /// Per path: unfixed flows on it, and this filling round's fair share
    /// along it (computed only while some flow is left to read it).
    waiting: Vec<usize>,
    share: Vec<f64>,
    /// Per path: the largest share it was offered in this solve.
    peak: Vec<f64>,
    /// Not the solver's: the `net.segment_bytes.<name>` counter key per
    /// segment, built when first needed and dropped by
    /// [`FlowNet::topology_mut`] (segments may be renamed or added through
    /// it). It lives behind the box to pay for the engine's two solve
    /// counters, whose size is pinned.
    segment_keys: Vec<&'static str>,
    /// Not the solver's either: the `net.flow` span of each logical
    /// transfer begun while recording. A hash map, where a `BTreeMap`
    /// allocated and freed nodes as transfers came and went; it is never
    /// iterated.
    spans: FxHashMap<FlowId, FlowSpan>,
}

/// A logical transfer's `net.flow` span until the transfer retires: where
/// it began and its begin arguments.
#[derive(Debug)]
struct FlowSpan {
    start: SpanStart,
    src: Addr,
    dst: Addr,
    bytes: u64,
    /// A chunked transfer's chunk count; 0 for a single flow.
    chunks: u64,
}

/// What `path`'s segments can still give one more flow: the least of
/// their residual capacities divided among the unfixed flows crossing each.
fn path_share(path: &[SegmentId], residual: &[f64], count: &[usize]) -> f64 {
    path.iter()
        .map(|g| residual[g.0].max(0.0) / count[g.0].max(1) as f64)
        .fold(f64::INFINITY, f64::min)
}

/// The first of the smallest candidates `min(cap, share)`: the whole of
/// the scan every filling round used to be, kept as the oracle the rounds
/// are checked against.
#[cfg(debug_assertions)]
fn first_smallest(unfixed: &[Unfixed], share: &[f64]) -> (f64, usize) {
    let mut best: Option<(f64, usize)> = None;
    for (k, u) in unfixed.iter().enumerate() {
        let r = u.cap.min(share[u.path]);
        if best.is_none_or(|(b, _)| r < b) {
            best = Some((r, k));
        }
    }
    best.expect("unfixed flows must yield a candidate")
}

/// The replay test as it was before caps were cached: rebuild the signature
/// `[segment count, capacity bits…, (id, cap bits) per active flow…]` with
/// every cap read off its profile, and replay when it matches `last` up to
/// caps that never bound, then or now. Leaves the new signature in `last`.
#[cfg(debug_assertions)]
fn replays_by_signature(
    last: &mut Vec<u64>,
    flows: &[Flow],
    segments: &[crate::topology::Segment],
    now: SimTime,
) -> bool {
    let mut probe = vec![segments.len() as u64];
    probe.extend(segments.iter().map(|g| g.capacity_bps().to_bits()));
    let mut replays = last.starts_with(&probe);
    for f in flows.iter().filter(|f| f.is_active(now)) {
        let cap = f.cap_state(now).0;
        let at = probe.len();
        replays = replays
            && match last.get(at..at + 2) {
                Some(&[id, solved]) => {
                    let never_bound = cap.min(f64::from_bits(solved)) >= f.bound;
                    id == f.id.0 && (solved == cap.to_bits() || never_bound)
                }
                _ => false,
            };
        probe.extend([f.id.0, cap.to_bits()]);
    }
    replays = replays && probe.len() == last.len();
    *last = probe;
    replays
}

/// Progressive filling with the full scan in every round and nothing
/// carried between solves: `(index in flows, fixed-point rate)` per active
/// flow. What a skipped solve is checked against.
#[cfg(debug_assertions)]
fn solve_by_full_scans(
    mut unfixed: Vec<Unfixed>,
    paths: &[Box<[SegmentId]>],
    capacities: impl Iterator<Item = f64>,
) -> Vec<(usize, u64)> {
    let mut residual: Vec<f64> = capacities.collect();
    let mut count = vec![0usize; residual.len()];
    for u in &unfixed {
        for g in &paths[u.path] {
            count[g.0] += 1;
        }
    }
    let mut rates = Vec::new();
    while !unfixed.is_empty() {
        let share = paths.iter().map(|path| path_share(path, &residual, &count));
        let share: Vec<f64> = share.collect();
        let (rate, k) = first_smallest(&unfixed, &share);
        let u = unfixed.swap_remove(k);
        rates.push((u.flow, fixed(rate)));
        for g in &paths[u.path] {
            residual[g.0] -= rate;
            count[g.0] -= 1;
        }
    }
    rates
}

/// The fluid-flow bulk transfer network.
///
/// # Examples
///
/// ```
/// use c4h_simnet::{Addr, FlowNet, LatencyModel, SimTime, TcpProfile, Topology, DetRng};
/// use std::time::Duration;
///
/// let mut b = Topology::builder();
/// let lan = b.segment("lan", 1000.0);
/// let home = b.site("home");
/// b.route(
///     home,
///     home,
///     vec![lan],
///     LatencyModel { base: Duration::from_millis(1), jitter: 0.0 },
///     TcpProfile::constant_rate(2000.0),
///     1.0,
///     0.0,
/// );
/// let mut topo = b.build();
/// topo.attach(Addr::new(1), home);
/// topo.attach(Addr::new(2), home);
///
/// let mut net = FlowNet::new(topo);
/// let mut rng = DetRng::seed(0);
/// net.start_flow(SimTime::ZERO, Addr::new(1), Addr::new(2), 1000, &mut rng).unwrap();
/// // The 1000-byte flow is segment-limited to 1000 B/s: done after 1 s.
/// let done_at = net.next_event().unwrap();
/// assert_eq!(done_at, SimTime::from_secs(1));
/// let mut events = Vec::new();
/// net.advance_into(done_at, &mut events);
/// assert_eq!(events.len(), 1);
/// ```
#[derive(Debug)]
pub struct FlowNet {
    topology: Topology,
    now: SimTime,
    /// Every in-flight flow (chunk flows included) in ascending [`FlowId`]
    /// order: ids are handed out monotonically, so `push` keeps it sorted.
    flows: Vec<Flow>,
    /// The distinct segment lists of the routes flows were started on: a
    /// handful, found by a scan at each start. Kept on a measurement — with
    /// flows holding their route's list behind an `Arc` instead (no table,
    /// per-segment shares, a fold per flow per round) `flash-crowd` ran
    /// 25 % slower. A topology with many distinct routes wants a dense
    /// route index from `Topology` here.
    paths: Vec<Box<[SegmentId]>>,
    transfers: BTreeMap<FlowId, Transfer>,
    next_id: u64,
    /// The flow set or the topology changed, or the clock reached `next`,
    /// since rates and `next` were derived. A clock move short of `next`
    /// does not set it.
    stale: bool,
    /// A flow of the last derivation's solver input was removed since.
    left: bool,
    /// Memo of the earliest flow's `due` ([`SimTime::MAX`] when idle);
    /// valid while `!stale`.
    next: SimTime,
    /// Boxed to keep `FlowNet`, which the runtime embeds by value, eleven
    /// `Vec` headers smaller. Measured neutral since the runtime stopped
    /// polling every node per event (ROADMAP, lesson (i)).
    scratch: Box<AllocScratch>,
    recorder: Option<Recorder>,
    counters: FlowCounters,
}

/// Cumulative logical-transfer counts, maintained whether or not a
/// telemetry recorder is attached — the engine-introspection view of the
/// flow network (a chunked transfer counts once).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FlowCounters {
    /// Transfers started.
    pub started: u64,
    /// Transfers that delivered every byte.
    pub completed: u64,
    /// Transfers canceled in flight.
    pub canceled: u64,
    /// Passes over the flow set (a re-solve and the search for the next
    /// internal instant count as one). A clock move that reaches no
    /// internal instant makes none.
    pub derives: u64,
    /// Derivations that had to run the max-min solve: the rest found the
    /// stored rates still the answer.
    pub solves: u64,
    /// Evaluations of a flow's `min(cap, share)` over all filling rounds of
    /// all solves — what the solves cost.
    pub candidates: u64,
    /// Caps derivations re-read: one per flow past setup at its own
    /// instant (setup end, ramp step, sustained threshold), the only
    /// instants a cap moves at.
    pub cap_reads: u64,
}

impl FlowNet {
    /// Creates an engine over a fully attached topology.
    pub fn new(topology: Topology) -> Self {
        FlowNet {
            topology,
            now: SimTime::ZERO,
            flows: Vec::new(),
            paths: Vec::new(),
            transfers: BTreeMap::new(),
            next_id: 0,
            stale: false,
            left: false,
            next: SimTime::MAX,
            scratch: Box::default(),
            recorder: None,
            counters: FlowCounters::default(),
        }
    }

    /// Attaches a telemetry recorder: every flow becomes a `net.flow` span
    /// (with `src`/`dst`/`bytes` arguments) on track
    /// [`NET_TRACK_BASE`]` + flow id`, and delivered bytes accumulate into
    /// per-segment counters.
    pub fn set_recorder(&mut self, recorder: Recorder) {
        self.recorder = Some(recorder);
    }

    /// Position of a flow in the id-ordered store.
    fn index_of(&self, id: FlowId) -> Option<usize> {
        self.flows.binary_search_by_key(&id, |f| f.id).ok()
    }

    /// Ids of all in-flight logical transfers (plain flows and chunked
    /// parents), in creation order.
    pub fn flow_ids(&self) -> Vec<FlowId> {
        let mut ids: Vec<FlowId> = self
            .flows
            .iter()
            .filter(|f| f.parent.is_none())
            .map(|f| f.id)
            .chain(self.transfers.keys().copied())
            .collect();
        ids.sort();
        ids
    }

    /// The segments a flow's bytes traverse, if it is still in flight.
    pub fn flow_path(&self, id: FlowId) -> Option<&[SegmentId]> {
        let path = match self.index_of(id) {
            Some(i) => self.flows[i].path,
            None => self.transfers.get(&id)?.path,
        };
        Some(&self.paths[path])
    }

    /// A flow's own rate cap (TCP profile and bandwidth factor, before
    /// max-min sharing) at the engine's current instant.
    pub fn flow_cap(&self, id: FlowId) -> Option<f64> {
        self.index_of(id)
            .map(|i| self.flows[i].cap_state(self.now).0)
    }

    /// Opens the `net.flow` span of a starting logical transfer.
    fn begin_flow_telemetry(&mut self, id: FlowId, src: Addr, dst: Addr, bytes: u64, chunks: u64) {
        self.counters.started += 1;
        let Some(rec) = self.recorder.as_ref().filter(|r| r.enabled()) else {
            return;
        };
        rec.add("net.flows_started", 1);
        let span = FlowSpan {
            start: rec.begin(self.now.as_nanos()),
            src,
            dst,
            bytes,
            chunks,
        };
        self.scratch.spans.insert(id, span);
    }

    /// Credits a finished or canceled flow's delivered bytes to the
    /// per-segment byte counters and closes its span.
    fn retire_flow_telemetry(&mut self, id: FlowId, sent: u64, path: PathId, done: bool) {
        if done {
            self.counters.completed += 1;
        } else {
            self.counters.canceled += 1;
        }
        let span = self.scratch.spans.remove(&id);
        let Some(rec) = &self.recorder else { return };
        if self.scratch.segment_keys.is_empty() {
            let segments = self.topology.segments().iter();
            self.scratch.segment_keys.extend(
                segments.map(|s| Sym::new(&format!("net.segment_bytes.{}", s.name())).as_str()),
            );
        }
        for seg in &self.paths[path] {
            rec.add(self.scratch.segment_keys[seg.0], sent);
        }
        rec.add(
            if done {
                "net.flows_completed"
            } else {
                "net.flows_canceled"
            },
            1,
        );
        if let Some(span) = span {
            let args = [
                ("src", ArgValue::from(span.src.raw())),
                ("dst", ArgValue::from(span.dst.raw())),
                ("bytes", ArgValue::from(span.bytes)),
            ];
            let chunks = (span.chunks > 0).then(|| ("chunks", ArgValue::from(span.chunks)));
            let outcome = [
                ("sent", ArgValue::from(sent)),
                ("done", ArgValue::from(done)),
            ];
            let (track, now) = (NET_TRACK_BASE + id.0, self.now.as_nanos());
            let args = args.into_iter().chain(chunks).chain(outcome);
            rec.end(span.start, "net", "net.flow", track, now, args);
        }
    }

    /// The static topology (for latency sampling and analytic estimates).
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Mutable topology access, for modeling changing network conditions.
    /// In-flight flows keep their already-sampled parameters.
    pub fn topology_mut(&mut self) -> &mut Topology {
        self.scratch.segment_keys.clear();
        self.stale = true;
        &mut self.topology
    }

    /// The engine's current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of logical transfers currently in flight (a chunked transfer
    /// counts once, however many chunk flows it has live).
    pub fn in_flight(&self) -> usize {
        let c = &self.counters;
        let n = (c.started - c.completed - c.canceled) as usize;
        debug_assert_eq!(
            n,
            self.flows.iter().filter(|f| f.parent.is_none()).count() + self.transfers.len()
        );
        n
    }

    /// Cumulative started/completed/canceled logical-transfer counts and
    /// the engine's derivation count (kept with or without a recorder
    /// attached).
    pub fn counters(&self) -> FlowCounters {
        self.counters
    }

    /// Current load on every topology segment, in segment-id order.
    ///
    /// Takes `&mut self` because pending flow arrivals/departures may have
    /// left the allocation stale; rates are re-derived first (like
    /// [`FlowNet::next_event`]) so the report reflects the engine's present
    /// instant. A derivation happens at the instant of the change that
    /// called for it whoever asks first, so probing for health samples
    /// never perturbs flow outcomes.
    pub fn segment_loads(&mut self) -> Vec<SegmentLoad> {
        let mut loads = Vec::new();
        self.segment_loads_into(&mut loads);
        loads
    }

    /// [`FlowNet::segment_loads`] into a caller-held buffer: `loads` is
    /// cleared and refilled, so a caller that keeps it allocates only when
    /// the topology grows.
    pub fn segment_loads_into(&mut self, loads: &mut Vec<SegmentLoad>) {
        self.next_event();
        loads.clear();
        loads.extend(
            self.topology
                .segments()
                .iter()
                .enumerate()
                .map(|(i, s)| SegmentLoad {
                    segment: SegmentId(i),
                    allocated_bps: 0.0,
                    capacity_bps: s.capacity_bps(),
                    flows: 0,
                }),
        );
        for f in &self.flows {
            for seg in &self.paths[f.path] {
                let load = &mut loads[seg.0];
                load.allocated_bps += f.rate_bps();
                load.flows += 1;
            }
        }
    }

    /// Progress of a flow or chunked transfer, if still in flight.
    pub fn progress(&self, id: FlowId) -> Option<FlowProgress> {
        if let Some(t) = self.transfers.get(&id) {
            let chunks = t
                .live
                .iter()
                .filter_map(|c| self.index_of(*c).map(|i| &self.flows[i]));
            let live_sent: u64 = chunks.clone().map(|f| f.bytes(self.now)).sum();
            let rate: f64 = chunks.map(Flow::rate_bps).sum();
            return Some(FlowProgress {
                sent_bytes: (t.delivered + live_sent) as f64,
                total_bytes: t.total_bytes,
                rate_bps: rate,
            });
        }
        self.index_of(id).map(|i| {
            let f = &self.flows[i];
            FlowProgress {
                sent_bytes: f.bytes(self.now) as f64,
                total_bytes: f.total_bytes,
                rate_bps: f.rate_bps(),
            }
        })
    }

    /// The front half of every start: moves the clock to `now`, resolves
    /// the route, samples the transfer's bandwidth factor and hands out its
    /// id.
    fn open(
        &mut self,
        now: SimTime,
        src: Addr,
        dst: Addr,
        rng: &mut DetRng,
    ) -> Result<(FlowId, PathId, TcpProfile, f64), NetError> {
        assert!(
            now >= self.now,
            "transfer start at {now} is in the engine's past ({})",
            self.now
        );
        if now > self.now {
            // Whatever is stale is derived at the instant it changed.
            assert!(
                self.next_event().is_none_or(|t| t >= now),
                "caller must advance_into() before starting transfers"
            );
            self.now = now;
        }
        let route = self
            .topology
            .route_between(src, dst)
            .ok_or(NetError::NoRoute { src, dst })?;
        // Only now is a flow certain to join: a start that found no route
        // changed nothing a derivation reads.
        self.stale = true;
        let factor = route.sample_bandwidth_factor(rng);
        let path = match self.paths.iter().position(|p| **p == *route.segments) {
            Some(known) => known,
            None => {
                self.paths.push(route.segments.clone().into_boxed_slice());
                self.paths.len() - 1
            }
        };
        let id = FlowId(self.next_id);
        self.next_id += 1;
        Ok((id, path, route.tcp.clone(), factor))
    }

    /// Starts a bulk transfer of `bytes` from `src` to `dst`.
    ///
    /// The route's TCP profile governs setup cost, ramp-up, and long-transfer
    /// degradation; a per-flow bandwidth factor is sampled from the route's
    /// variability model using `rng`.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::NoRoute`] if the endpoints' sites are not
    /// connected.
    ///
    /// # Panics
    ///
    /// Panics if `now` is in the engine's past — call
    /// [`FlowNet::advance_into`] first.
    pub fn start_flow(
        &mut self,
        now: SimTime,
        src: Addr,
        dst: Addr,
        bytes: u64,
        rng: &mut DetRng,
    ) -> Result<FlowId, NetError> {
        let (id, path, tcp, factor) = self.open(now, src, dst, rng)?;
        self.flows
            .push(Flow::new(id, path, bytes.max(1), &tcp, factor, now, None));
        self.begin_flow_telemetry(id, src, dst, bytes, 0);
        Ok(id)
    }

    /// Starts a bulk transfer that is split into pipelined chunk flows when
    /// `chunking` applies (the transfer exceeds `chunk_bytes`). The caller
    /// sees one [`FlowId`]: a single `Completed` event fires when the last
    /// chunk lands, and [`FlowNet::cancel`]/[`FlowNet::progress`] operate on
    /// the whole transfer. With `chunking == None` (or a transfer small
    /// enough not to split) this is exactly [`FlowNet::start_flow`].
    ///
    /// # Errors
    ///
    /// Returns [`NetError::NoRoute`] if the endpoints' sites are not
    /// connected.
    ///
    /// # Panics
    ///
    /// Panics if `now` is in the engine's past — call
    /// [`FlowNet::advance_into`] first.
    pub fn start_transfer(
        &mut self,
        now: SimTime,
        src: Addr,
        dst: Addr,
        bytes: u64,
        chunking: Option<ChunkSpec>,
        rng: &mut DetRng,
    ) -> Result<FlowId, NetError> {
        let bytes = bytes.max(1);
        let spec = match chunking {
            Some(s) if s.chunk_bytes > 0 && bytes > s.chunk_bytes && s.window >= 2 => s,
            _ => return self.start_flow(now, src, dst, bytes, rng),
        };
        let (id, path, tcp, factor) = self.open(now, src, dst, rng)?;
        let mut transfer = Transfer {
            path,
            tcp,
            factor,
            chunk_bytes: spec.chunk_bytes,
            total_bytes: bytes,
            undispatched: bytes,
            live: Vec::new(),
            delivered: 0,
        };
        self.begin_flow_telemetry(id, src, dst, bytes, bytes.div_ceil(spec.chunk_bytes));
        for _ in 0..spec.window {
            if !self.dispatch_chunk(id, &mut transfer) {
                break;
            }
        }
        self.transfers.insert(id, transfer);
        Ok(id)
    }

    /// Launches the next chunk flow of a chunked transfer, if any bytes
    /// remain undispatched. Chunks reuse the factor sampled at transfer
    /// start, so dispatch is deterministic and consumes no randomness.
    fn dispatch_chunk(&mut self, parent: FlowId, transfer: &mut Transfer) -> bool {
        if transfer.undispatched == 0 {
            return false;
        }
        let bytes = transfer.undispatched.min(transfer.chunk_bytes);
        transfer.undispatched -= bytes;
        let id = FlowId(self.next_id);
        self.next_id += 1;
        let (path, tcp, factor) = (transfer.path, &transfer.tcp, transfer.factor);
        self.flows.push(Flow::new(
            id,
            path,
            bytes,
            tcp,
            factor,
            self.now,
            Some(parent),
        ));
        transfer.live.push(id);
        if let Some(rec) = &self.recorder {
            rec.add("net.chunks_started", 1);
        }
        true
    }

    /// Takes the flow at `i` out of the store — the one way a flow leaves
    /// it, so that the next derivation knows the solver's inputs lost it.
    fn remove_flow(&mut self, i: usize) -> Flow {
        let flow = self.flows.remove(i);
        self.left |= flow.joined();
        flow
    }

    /// Cancels an in-flight transfer (and, for a chunked transfer, every
    /// live chunk flow). Returns `true` if it existed.
    pub fn cancel(&mut self, id: FlowId) -> bool {
        if let Some(transfer) = self.transfers.remove(&id) {
            let mut sent = transfer.delivered;
            for chunk in &transfer.live {
                if let Some(i) = self.index_of(*chunk) {
                    sent += self.remove_flow(i).bytes(self.now);
                }
            }
            self.stale = true;
            self.retire_flow_telemetry(id, sent, transfer.path, false);
            return true;
        }
        let Some(i) = self.index_of(id) else {
            self.scratch.spans.remove(&id);
            return false;
        };
        let flow = self.remove_flow(i);
        self.stale = true;
        if let Some(parent) = flow.parent {
            // A chunk canceled directly just shrinks its parent transfer.
            if let Some(t) = self.transfers.get_mut(&parent) {
                t.live.retain(|f| *f != id);
                t.total_bytes = t.total_bytes.saturating_sub(flow.total_bytes);
            }
            return true;
        }
        self.retire_flow_telemetry(id, flow.bytes(self.now), flow.path, false);
        true
    }

    /// The next instant at which the flow engine has something to report
    /// (a completion or an internal rate change), or `None` when idle.
    ///
    /// The runtime merges this with its own event queue and calls
    /// [`FlowNet::advance_into`] up to the earlier of the two. The answer
    /// is a memo: it is worked out again only after a start, a cancel, a
    /// [`FlowNet::topology_mut`] call or the clock reaching it.
    pub fn next_event(&mut self) -> Option<SimTime> {
        if self.stale {
            self.derive();
        }
        (self.next != SimTime::MAX).then_some(self.next)
    }

    /// Advances the engine to `to` and collects the completions that
    /// occurred (in completion order) into `out` (cleared first), so a
    /// caller-held buffer amortizes across the simulation's main loop.
    /// Short of [`FlowNet::next_event`] this moves the clock and touches no
    /// flow; every completion's `at` is a `next_event()` that preceded it.
    ///
    /// # Panics
    ///
    /// Panics if `to` is in the past.
    pub fn advance_into(&mut self, to: SimTime, out: &mut Vec<FlowEvent>) {
        assert!(to >= self.now, "cannot rewind flow engine");
        out.clear();
        while let Some(t) = self.next_event().filter(|&t| t <= to) {
            self.now = t;
            self.fire_completions(out);
            self.stale = true;
        }
        self.now = to;
    }

    /// Removes completed flows at the current instant, in ascending id
    /// order.
    fn fire_completions(&mut self, out: &mut Vec<FlowEvent>) {
        let now = self.now;
        // Only a flow whose own event this is can have landed. Chunks
        // dispatched below land behind `live` and start at zero bytes, so
        // the scan never needs to reach them.
        let (mut i, mut live) = (0, self.flows.len());
        while i < live {
            let f = &self.flows[i];
            if f.due > now || !f.is_complete(now) {
                i += 1;
                continue;
            }
            let flow = self.remove_flow(i);
            live -= 1;
            let Some(parent) = flow.parent else {
                out.push(FlowEvent::Completed {
                    flow: flow.id,
                    at: now,
                });
                self.retire_flow_telemetry(flow.id, flow.total_bytes, flow.path, true);
                continue;
            };
            // A chunk landed: credit the parent, keep the pipeline full, and
            // surface the parent's completion once the last chunk is in.
            let Some(mut transfer) = self.transfers.remove(&parent) else {
                continue;
            };
            transfer.live.retain(|f| *f != flow.id);
            transfer.delivered += flow.total_bytes;
            self.dispatch_chunk(parent, &mut transfer);
            if transfer.live.is_empty() && transfer.undispatched == 0 {
                out.push(FlowEvent::Completed {
                    flow: parent,
                    at: now,
                });
                self.retire_flow_telemetry(parent, transfer.total_bytes, transfer.path, true);
            } else {
                self.transfers.insert(parent, transfer);
            }
        }
    }

    /// One derivation at the present instant: re-read the caps of the flows
    /// at their own instant, re-solve if the solver's inputs moved, open a
    /// new epoch for every flow whose rate did, and find the earliest
    /// `due`. Of a flow whose rate stayed and whose own event is still
    /// ahead, only `due` is read.
    fn derive(&mut self) {
        self.counters.derives += 1;
        self.reallocate();
        let now = self.now;
        self.next = SimTime::MAX;
        for f in &mut self.flows {
            if f.due <= now {
                f.due = f.next_due(now);
                // Anything else holds `advance_into` at this instant for ever.
                assert!(f.due > now || f.is_complete(now), "{:?} stalls", f.id);
            }
            self.next = self.next.min(f.due);
        }
        self.stale = false;
    }

    /// Progressive-filling max-min fair allocation subject to per-flow caps.
    ///
    /// Every order below is part of the result's bits: flows enter in
    /// ascending id, the first of equal candidates wins a round, and
    /// `swap_remove` decides who is looked at first in the next. What a
    /// derivation *pays* follows what changed and what binds, by three
    /// lemmas (DESIGN.md §12):
    ///
    /// * **Lower-bound round.** `floor` is at most the smallest cap among
    ///   the unfixed flows, so no candidate `min(cap, share[p])` is below
    ///   `min(floor, smallest share)`. When the smallest share is no larger
    ///   than `floor`, every flow on the path offering it ties at exactly
    ///   that share: it is the round's minimum, and the winner is the first
    ///   unfixed flow whose candidate equals it — the scan stops there.
    ///   Otherwise some cap may bind: the full first-wins scan runs and
    ///   takes `floor` anew on its way.
    /// * **Replayed trace.** The rates are a pure function of the solver's
    ///   inputs: the capacities, and `(id, cap)` per active flow in id
    ///   order. Inputs that differ from the last derivation's only in caps
    ///   that were and are at or above the largest share their flow was
    ///   ever offered replay the solve round for round — every
    ///   `min(cap, share)` reads the share both times — so the stored rates
    ///   already are the answer, as they are when the inputs are equal (a
    ///   flow still in setup joined or left).
    /// * **Own instants.** A cap moves only at its flow's own instant — its
    ///   setup end, a ramp step that raises it, its sustained threshold —
    ///   and each of those is a `due`. So the inputs differ from the last
    ///   derivation's exactly where a capacity moved, a flow of them was
    ///   removed (`left`), or a flow at its own instant joined or re-read a
    ///   different cap: only those flows are read.
    ///
    /// Debug builds check every round against the full scan, every cached
    /// cap state against its profile, the replay decision against the
    /// signature it replaced, and every skipped solve against a solve from
    /// scratch.
    fn reallocate(&mut self) {
        let now = self.now;
        let (flows, paths, segments) = (&mut self.flows, &self.paths, self.topology.segments());
        let s = &mut *self.scratch;
        let capacities = segments.iter().map(|g| g.capacity_bps().to_bits());
        let same_capacities = s.capacities.iter().copied().eq(capacities.clone());
        if !same_capacities {
            s.capacities.clear();
            s.capacities.extend(capacities);
        }
        // Same flows over the same capacities, and no cap that moved bound
        // before or binds now?
        let left = std::mem::take(&mut self.left);
        let mut replays = same_capacities && !left;
        let at_own_instant = flows
            .iter_mut()
            .filter(|f| f.due <= now && f.is_active(now));
        for f in at_own_instant {
            self.counters.cap_reads += 1;
            let (joins, was) = (!f.joined(), f.cap);
            f.refresh(now);
            let never_bound = was.min(f.cap) >= f.bound;
            replays = replays && !joins && (was.to_bits() == f.cap.to_bits() || never_bound);
        }
        #[cfg(debug_assertions)]
        {
            for f in flows.iter().filter(|f| f.is_active(now)) {
                let (cap, shaped, ramping) = f.cap_state(now);
                let cached = (f.cap.to_bits(), f.shaped, f.ramping);
                debug_assert_eq!(cached, (cap.to_bits(), shaped, ramping), "{:?}", f.id);
            }
            let by_signature = replays_by_signature(&mut s.signature, flows, segments, now);
            debug_assert_eq!(replays, by_signature, "replay decision at {now}");
        }
        // Flows still in setup have held rate 0.0 since they were created.
        let active = flows.iter().enumerate().filter(|(_, f)| f.is_active(now));
        let unfixed = active.map(|(flow, f)| Unfixed {
            flow,
            path: f.path,
            cap: f.cap,
        });
        if replays {
            #[cfg(debug_assertions)]
            {
                let capacities = segments.iter().map(|g| g.capacity_bps());
                for (i, rate) in solve_by_full_scans(unfixed.collect(), paths, capacities) {
                    debug_assert_eq!(flows[i].rate, rate, "skipped a solve that moves {i}");
                }
            }
            return;
        }
        self.counters.solves += 1;
        s.unfixed.clear();
        s.unfixed.extend(unfixed);

        s.residual.clear();
        s.residual.extend(segments.iter().map(|g| g.capacity_bps()));
        s.count.clear();
        s.count.resize(segments.len(), 0);
        s.waiting.clear();
        s.waiting.resize(paths.len(), 0);
        s.peak.clear();
        s.peak.resize(paths.len(), 0.0);
        // At most the smallest cap among the unfixed flows; not always
        // tight, since a fixed flow's cap stays in it until the next scan.
        let mut floor = f64::INFINITY;
        for u in &s.unfixed {
            s.waiting[u.path] += 1;
            floor = floor.min(u.cap);
            for g in &paths[u.path] {
                s.count[g.0] += 1;
            }
        }
        while !s.unfixed.is_empty() {
            // What a path's segments can still give one more flow is the
            // same whichever flow on that path asks.
            s.share.clear();
            let mut low_share = f64::INFINITY;
            for (p, path) in paths.iter().enumerate() {
                if s.waiting[p] == 0 {
                    s.share.push(f64::INFINITY); // nobody left to read it
                    continue;
                }
                let share = path_share(path, &s.residual, &s.count);
                s.share.push(share);
                s.peak[p] = s.peak[p].max(share);
                low_share = low_share.min(share);
            }
            // Find the first unfixed flow with the smallest achievable rate.
            let (rate, k) = if low_share <= floor {
                let mut candidates = s.unfixed.iter().enumerate();
                let (rate, k) = candidates
                    .find_map(|(k, u)| {
                        let r = u.cap.min(s.share[u.path]);
                        (r == low_share).then_some((r, k))
                    })
                    .expect("the flows of the path offering the least share tie at it");
                self.counters.candidates += k as u64 + 1;
                (rate, k)
            } else {
                floor = f64::INFINITY;
                let mut best: Option<(f64, usize)> = None;
                for (k, u) in s.unfixed.iter().enumerate() {
                    // A branch that is almost never taken; `f64::min` here
                    // chains every iteration behind the one before (1.5× on
                    // the scan at 800 flows).
                    if u.cap < floor {
                        floor = u.cap;
                    }
                    let r = u.cap.min(s.share[u.path]);
                    if best.is_none_or(|(b, _)| r < b) {
                        best = Some((r, k));
                    }
                }
                self.counters.candidates += s.unfixed.len() as u64;
                best.expect("unfixed flows must yield a candidate")
            };
            #[cfg(debug_assertions)]
            {
                let (r, first) = first_smallest(&s.unfixed, &s.share);
                debug_assert_eq!((rate.to_bits(), k), (r.to_bits(), first));
            }
            let u = s.unfixed.swap_remove(k);
            flows[u.flow].set_rate(now, fixed(rate));
            flows[u.flow].bound = s.peak[u.path];
            s.waiting[u.path] -= 1;
            for g in &paths[u.path] {
                s.residual[g.0] -= rate;
                s.count[g.0] -= 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::LatencyModel;
    use std::time::Duration;

    fn topo(seg_cap: f64, flow_cap: f64) -> Topology {
        topo_with(seg_cap, TcpProfile::constant_rate(flow_cap))
    }

    fn topo_with(seg_cap: f64, tcp: TcpProfile) -> Topology {
        let mut b = Topology::builder();
        let lan = b.segment("lan", seg_cap);
        let home = b.site("home");
        b.route(
            home,
            home,
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
        for i in 0..8 {
            t.attach(Addr::new(i), home);
        }
        t
    }

    fn drain(net: &mut FlowNet) -> Vec<(FlowId, SimTime)> {
        let mut out = Vec::new();
        let mut events = Vec::new();
        while let Some(t) = net.next_event() {
            net.advance_into(t, &mut events);
            for &FlowEvent::Completed { flow, at } in &events {
                out.push((flow, at));
            }
        }
        out
    }

    /// The runtime embeds the engine by value; growing it cost
    /// `neighborhood-1k` 12 % of its set-up time once (PR 15).
    #[test]
    fn engine_is_no_larger_than_before_integer_accounting() {
        assert!(std::mem::size_of::<FlowNet>() <= 312);
    }

    #[test]
    fn a_clock_move_short_of_the_next_instant_derives_nothing() {
        let mut net = FlowNet::new(topo(1_000.0, 2_000.0));
        let mut rng = DetRng::seed(0);
        for i in 0..2 {
            let (src, dst) = (Addr::new(i), Addr::new(i + 2));
            net.start_flow(SimTime::ZERO, src, dst, 1_000 + 1_000 * i, &mut rng)
                .unwrap();
        }
        // Both starts are one derivation; polling adds none.
        let first = net.next_event().unwrap();
        assert_eq!(first, SimTime::from_secs(2));
        assert_eq!(net.counters().derives, 1);
        let mut events = Vec::new();
        for ms in 1..2_000 {
            net.advance_into(SimTime::from_millis(ms), &mut events);
            assert!(events.is_empty());
            assert_eq!(net.next_event(), Some(first));
            net.segment_loads();
        }
        assert_eq!(net.counters().derives, 1);
        // Reaching the instant fires the completion due at it and derives
        // once more, for the survivor.
        net.advance_into(first, &mut events);
        assert_eq!(events.len(), 1);
        assert_eq!(net.next_event(), Some(SimTime::from_secs(3)));
        assert_eq!(net.counters().derives, 2);
    }

    /// `n` flows started together on a one-segment world, derived once.
    fn surge(seg_cap: f64, tcp: TcpProfile, n: u64) -> FlowNet {
        let mut net = FlowNet::new(topo_with(seg_cap, tcp));
        let mut rng = DetRng::seed(0);
        for _ in 0..n {
            net.start_flow(SimTime::ZERO, Addr::new(0), Addr::new(1), 1 << 20, &mut rng)
                .unwrap();
        }
        net.next_event();
        net
    }

    #[test]
    fn a_start_that_finds_no_route_forces_no_derivation() {
        let mut net = surge(1_000.0, TcpProfile::constant_rate(2_000.0), 2);
        let before = net.counters();
        let mut rng = DetRng::seed(0);
        let late = SimTime::from_millis(10);
        let err = net.start_flow(late, Addr::new(0), Addr::new(99), 10, &mut rng);
        assert!(matches!(err, Err(NetError::NoRoute { .. })));
        assert_eq!(net.now(), late);
        net.next_event();
        net.segment_loads();
        assert_eq!(net.counters(), before);
    }

    #[test]
    fn a_round_costs_one_candidate_unless_a_cap_may_bind() {
        // 50 flows offered 20 B/s each against caps of 2000: every round is
        // a 50-way tie the first flow wins.
        let shared = surge(1_000.0, TcpProfile::constant_rate(2_000.0), 50).counters();
        assert_eq!((shared.solves, shared.candidates), (1, 50));
        // Caps of 10 against the same shares: every round scans every
        // unfixed flow, as every round used to.
        let capped = surge(1_000.0, TcpProfile::constant_rate(10.0), 50).counters();
        assert_eq!((capped.solves, capped.candidates), (1, 50 * 51 / 2));
    }

    #[test]
    fn a_cap_re_solves_only_when_it_bound_or_binds() {
        // Two flows on a 1000 B/s segment, caps ramping 500, 600, … 1000 in
        // steps of 1 s: 500 equals the share exactly and still does not
        // bind; after 4000 bytes the cap falls to 100, which does.
        let tcp = TcpProfile {
            setup: Duration::ZERO,
            rate_floor_bps: 500.0,
            ramp_bps_per_sec: 100.0,
            ramp_step: Duration::from_secs(1),
            rate_cap_bps: 1_000.0,
            sustained: Some(SustainedCap {
                threshold_bytes: 4_000,
                rate_bps: 100.0,
            }),
        };
        let mut net = surge(1_000.0, tcp, 2);
        let rates = |net: &FlowNet| -> Vec<u64> { net.flows.iter().map(|f| f.rate).collect() };
        assert_eq!(rates(&net), [fixed(500.0); 2]);
        let mut events = Vec::new();
        for step in 1..=5 {
            net.advance_into(SimTime::from_secs(step), &mut events);
            net.next_event();
            assert_eq!(rates(&net), [fixed(500.0); 2], "after ramp step {step}");
        }
        let c = net.counters();
        assert_eq!(
            (c.derives, c.solves),
            (6, 1),
            "ramp steps derive, none solves"
        );
        // Both flows cross the threshold at 8 s; the survivor of the first
        // round is then offered 900 against a cap of 100.
        net.advance_into(SimTime::from_secs(8), &mut events);
        net.next_event();
        assert_eq!(rates(&net), [fixed(100.0); 2]);
        assert_eq!(net.counters().solves, 2);
    }

    #[test]
    fn segment_loads_report_allocation_and_flow_counts() {
        // Segment 1000 B/s, per-flow cap 2000: two flows get 500 each.
        let mut net = FlowNet::new(topo(1_000.0, 2_000.0));
        let mut rng = DetRng::seed(0);
        for i in 0..2 {
            net.start_flow(
                SimTime::ZERO,
                Addr::new(i),
                Addr::new(i + 2),
                10_000,
                &mut rng,
            )
            .unwrap();
        }
        let loads = net.segment_loads();
        assert_eq!(loads.len(), 1);
        let lan = &loads[0];
        assert_eq!(net.topology().segment(lan.segment).name(), "lan");
        assert_eq!(lan.flows, 2);
        assert_eq!(lan.capacity_bps, 1_000.0);
        assert!((lan.allocated_bps - 1_000.0).abs() < 1e-6);
        assert_eq!(lan.util_permille(), 1000);
        drain(&mut net);
        // A held buffer is refilled, not appended to.
        let mut idle = loads;
        net.segment_loads_into(&mut idle);
        assert_eq!(idle.len(), 1);
        assert_eq!(idle[0].flows, 0);
        assert_eq!(idle[0].util_permille(), 0);
    }

    #[test]
    fn single_flow_is_cap_limited() {
        let mut net = FlowNet::new(topo(10_000.0, 1_000.0));
        let mut rng = DetRng::seed(0);
        net.start_flow(SimTime::ZERO, Addr::new(0), Addr::new(1), 2_000, &mut rng)
            .unwrap();
        let done = drain(&mut net);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].1, SimTime::from_secs(2));
    }

    #[test]
    fn two_flows_share_the_segment_fairly() {
        // Segment 1000 B/s, per-flow cap 2000: two flows get 500 each.
        let mut net = FlowNet::new(topo(1_000.0, 2_000.0));
        let mut rng = DetRng::seed(0);
        for i in 0..2 {
            net.start_flow(
                SimTime::ZERO,
                Addr::new(i),
                Addr::new(i + 2),
                1_000,
                &mut rng,
            )
            .unwrap();
        }
        let done = drain(&mut net);
        assert_eq!(done.len(), 2);
        // Both finish together at t = 1000 / 500 = 2 s.
        for (_, at) in &done {
            assert_eq!(*at, SimTime::from_secs(2));
        }
    }

    #[test]
    fn segment_byte_counters_follow_a_replaced_topology() {
        let rec = Recorder::new();
        rec.set_enabled(true);
        let mut net = FlowNet::new(topo(1_000.0, 2_000.0));
        net.set_recorder(rec.clone());
        let mut rng = DetRng::seed(0);
        net.start_flow(SimTime::ZERO, Addr::new(0), Addr::new(1), 500, &mut rng)
            .unwrap();
        drain(&mut net);
        assert_eq!(rec.snapshot().counter("net.segment_bytes.lan"), 500);

        // A world whose route crosses a second, new segment.
        let mut b = Topology::builder();
        let (lan, wan) = (b.segment("lan2", 1_000.0), b.segment("wan", 1_000.0));
        let home = b.site("home");
        let lat = LatencyModel {
            base: Duration::from_millis(1),
            jitter: 0.0,
        };
        let tcp = TcpProfile::constant_rate(2_000.0);
        b.route(home, home, vec![lan, wan], lat, tcp, 1.0, 0.0);
        *net.topology_mut() = b.build();
        for i in 0..2 {
            net.topology_mut().attach(Addr::new(i), home);
        }
        net.start_flow(net.now(), Addr::new(0), Addr::new(1), 300, &mut rng)
            .unwrap();
        drain(&mut net);
        let counters = rec.snapshot();
        assert_eq!(counters.counter("net.segment_bytes.lan"), 500);
        assert_eq!(counters.counter("net.segment_bytes.lan2"), 300);
        assert_eq!(counters.counter("net.segment_bytes.wan"), 300);
    }

    #[test]
    fn departing_flow_frees_bandwidth() {
        // Two flows on a 1000 B/s segment; one is short. After it finishes,
        // the survivor speeds up to the full segment rate.
        let mut net = FlowNet::new(topo(1_000.0, 2_000.0));
        let mut rng = DetRng::seed(0);
        let _short = net
            .start_flow(SimTime::ZERO, Addr::new(0), Addr::new(1), 500, &mut rng)
            .unwrap();
        let long = net
            .start_flow(SimTime::ZERO, Addr::new(2), Addr::new(3), 1_500, &mut rng)
            .unwrap();
        let done = drain(&mut net);
        // short: 500 B at 500 B/s -> t=1s. long: 500 B by t=1s, then
        // 1000 B at 1000 B/s -> t=2s.
        assert_eq!(done[0].1, SimTime::from_secs(1));
        assert_eq!(done[1], (long, SimTime::from_secs(2)));
    }

    #[test]
    fn caps_below_fair_share_leave_bandwidth_for_others() {
        // Segment 1000; flow A capped at 200 -> flow B gets 800.
        let mut b = Topology::builder();
        let lan = b.segment("lan", 1_000.0);
        let home = b.site("home");
        let slow_site = b.site("slow");
        let lat = LatencyModel {
            base: Duration::from_millis(1),
            jitter: 0.0,
        };
        b.route(
            home,
            home,
            vec![lan],
            lat,
            TcpProfile::constant_rate(2_000.0),
            1.0,
            0.0,
        );
        b.route(
            home,
            slow_site,
            vec![lan],
            lat,
            TcpProfile::constant_rate(200.0),
            1.0,
            0.0,
        );
        let mut t = b.build();
        t.attach(Addr::new(0), home);
        t.attach(Addr::new(1), home);
        t.attach(Addr::new(2), slow_site);
        let mut net = FlowNet::new(t);
        let mut rng = DetRng::seed(0);
        let slow = net
            .start_flow(SimTime::ZERO, Addr::new(0), Addr::new(2), 200, &mut rng)
            .unwrap();
        let fast = net
            .start_flow(SimTime::ZERO, Addr::new(0), Addr::new(1), 800, &mut rng)
            .unwrap();
        let done = drain(&mut net);
        // Both finish at exactly 1 s: 200 at 200 B/s and 800 at 800 B/s.
        assert_eq!(done.len(), 2);
        assert!(done
            .iter()
            .any(|&(f, at)| f == slow && at == SimTime::from_secs(1)));
        assert!(done
            .iter()
            .any(|&(f, at)| f == fast && at == SimTime::from_secs(1)));
    }

    #[test]
    fn setup_cost_delays_first_byte() {
        let mut b = Topology::builder();
        let lan = b.segment("lan", 1_000.0);
        let home = b.site("home");
        let mut p = TcpProfile::constant_rate(1_000.0);
        p.setup = Duration::from_secs(1);
        b.route(
            home,
            home,
            vec![lan],
            LatencyModel {
                base: Duration::from_millis(1),
                jitter: 0.0,
            },
            p,
            1.0,
            0.0,
        );
        let mut t = b.build();
        t.attach(Addr::new(0), home);
        t.attach(Addr::new(1), home);
        let mut net = FlowNet::new(t);
        let mut rng = DetRng::seed(0);
        net.start_flow(SimTime::ZERO, Addr::new(0), Addr::new(1), 1_000, &mut rng)
            .unwrap();
        let done = drain(&mut net);
        assert_eq!(done[0].1, SimTime::from_secs(2));
    }

    #[test]
    fn no_route_is_an_error() {
        let mut net = FlowNet::new(topo(1.0, 1.0));
        let mut rng = DetRng::seed(0);
        let err = net
            .start_flow(SimTime::ZERO, Addr::new(0), Addr::new(99), 10, &mut rng)
            .unwrap_err();
        assert!(matches!(err, NetError::NoRoute { .. }));
        assert!(err.to_string().contains("no route"));
    }

    #[test]
    fn cancel_removes_flow() {
        let mut net = FlowNet::new(topo(1_000.0, 1_000.0));
        let mut rng = DetRng::seed(0);
        let id = net
            .start_flow(SimTime::ZERO, Addr::new(0), Addr::new(1), 10_000, &mut rng)
            .unwrap();
        assert_eq!(net.in_flight(), 1);
        assert!(net.cancel(id));
        assert!(!net.cancel(id));
        assert_eq!(net.in_flight(), 0);
        assert!(net.next_event().is_none());
    }

    #[test]
    fn progress_reports_rate_and_bytes() {
        let mut net = FlowNet::new(topo(1_000.0, 1_000.0));
        let mut rng = DetRng::seed(0);
        let id = net
            .start_flow(SimTime::ZERO, Addr::new(0), Addr::new(1), 2_000, &mut rng)
            .unwrap();
        net.next_event();
        net.advance_into(SimTime::from_millis(500), &mut Vec::new());
        let p = net.progress(id).unwrap();
        assert!((p.sent_bytes - 500.0).abs() < 1.0, "{p:?}");
        assert_eq!(p.total_bytes, 2_000);
        assert!((p.rate_bps - 1_000.0).abs() < 1e-6);
    }

    #[test]
    fn ramping_flow_completes_later_than_constant_rate() {
        let mut b = Topology::builder();
        let lan = b.segment("lan", 10_000.0);
        let home = b.site("home");
        let ramping = TcpProfile {
            setup: Duration::ZERO,
            rate_floor_bps: 100.0,
            ramp_bps_per_sec: 100.0,
            ramp_step: Duration::from_millis(250),
            rate_cap_bps: 1_000.0,
            sustained: None,
        };
        b.route(
            home,
            home,
            vec![lan],
            LatencyModel {
                base: Duration::from_millis(1),
                jitter: 0.0,
            },
            ramping.clone(),
            1.0,
            0.0,
        );
        let mut t = b.build();
        t.attach(Addr::new(0), home);
        t.attach(Addr::new(1), home);
        let mut net = FlowNet::new(t);
        let mut rng = DetRng::seed(0);
        net.start_flow(SimTime::ZERO, Addr::new(0), Addr::new(1), 5_000, &mut rng)
            .unwrap();
        let done = drain(&mut net);
        let at = done[0].1;
        // Oracle: the analytic single-flow model must agree with the engine.
        let oracle = ramping.transfer_time(5_000, 10_000.0, 1.0);
        let diff = at.as_secs_f64() - oracle.as_secs_f64();
        assert!(diff.abs() < 0.01, "engine {at} vs oracle {oracle:?}");
        // And it must be slower than a constant-rate 1000 B/s flow (5 s).
        assert!(at > SimTime::from_secs(5));
    }

    #[test]
    fn sustained_threshold_slows_large_transfer() {
        let mut b = Topology::builder();
        let lan = b.segment("lan", 10_000.0);
        let home = b.site("home");
        let p = TcpProfile {
            setup: Duration::ZERO,
            rate_floor_bps: 1_000.0,
            ramp_bps_per_sec: 0.0,
            ramp_step: Duration::from_secs(1),
            rate_cap_bps: 1_000.0,
            sustained: Some(crate::tcp::SustainedCap {
                threshold_bytes: 1_000,
                rate_bps: 100.0,
            }),
        };
        b.route(
            home,
            home,
            vec![lan],
            LatencyModel {
                base: Duration::from_millis(1),
                jitter: 0.0,
            },
            p,
            1.0,
            0.0,
        );
        let mut t = b.build();
        t.attach(Addr::new(0), home);
        t.attach(Addr::new(1), home);
        let mut net = FlowNet::new(t);
        let mut rng = DetRng::seed(0);
        net.start_flow(SimTime::ZERO, Addr::new(0), Addr::new(1), 2_000, &mut rng)
            .unwrap();
        let done = drain(&mut net);
        // 1000 B at 1000 B/s = 1 s, then 1000 B at 100 B/s = 10 s.
        assert_eq!(done[0].1, SimTime::from_secs(11));
    }

    #[test]
    fn chunked_transfer_completes_as_one_event_with_all_bytes() {
        // Per-flow cap 500 on a 2000 B/s segment: a single 4000-byte flow
        // takes 8 s, but four 1000-byte chunks with window 4 share the
        // segment at 500 B/s each and land together at 2 s.
        let mut net = FlowNet::new(topo(2_000.0, 500.0));
        let mut rng = DetRng::seed(0);
        let id = net
            .start_transfer(
                SimTime::ZERO,
                Addr::new(0),
                Addr::new(1),
                4_000,
                Some(ChunkSpec {
                    chunk_bytes: 1_000,
                    window: 4,
                }),
                &mut rng,
            )
            .unwrap();
        assert_eq!(net.in_flight(), 1);
        let done = drain(&mut net);
        assert_eq!(done, vec![(id, SimTime::from_secs(2))]);
        assert_eq!(net.in_flight(), 0);
    }

    #[test]
    fn chunk_pipeline_refills_the_window() {
        // 6 chunks, window 2, per-flow cap 500, segment 1000: two chunks at
        // 500 each finish every 2 s -> three waves, 6 s total.
        let mut net = FlowNet::new(topo(1_000.0, 500.0));
        let mut rng = DetRng::seed(0);
        let id = net
            .start_transfer(
                SimTime::ZERO,
                Addr::new(0),
                Addr::new(1),
                6_000,
                Some(ChunkSpec {
                    chunk_bytes: 1_000,
                    window: 2,
                }),
                &mut rng,
            )
            .unwrap();
        let done = drain(&mut net);
        assert_eq!(done, vec![(id, SimTime::from_secs(6))]);
    }

    #[test]
    fn small_transfer_is_not_chunked() {
        let mut net = FlowNet::new(topo(1_000.0, 1_000.0));
        let mut rng = DetRng::seed(0);
        net.start_transfer(
            SimTime::ZERO,
            Addr::new(0),
            Addr::new(1),
            800,
            Some(ChunkSpec {
                chunk_bytes: 1_000,
                window: 4,
            }),
            &mut rng,
        )
        .unwrap();
        // One ordinary flow, no transfer facade.
        assert_eq!(net.in_flight(), 1);
        let done = drain(&mut net);
        assert_eq!(done.len(), 1);
    }

    #[test]
    fn cancel_chunked_transfer_removes_all_chunks() {
        let mut net = FlowNet::new(topo(1_000.0, 500.0));
        let mut rng = DetRng::seed(0);
        let plain = net
            .start_flow(SimTime::ZERO, Addr::new(2), Addr::new(3), 10_000, &mut rng)
            .unwrap();
        let id = net
            .start_transfer(
                SimTime::ZERO,
                Addr::new(0),
                Addr::new(1),
                10_000,
                Some(ChunkSpec {
                    chunk_bytes: 1_000,
                    window: 3,
                }),
                &mut rng,
            )
            .unwrap();
        net.next_event();
        net.advance_into(SimTime::from_secs(1), &mut Vec::new());
        assert!(net.cancel(id));
        assert!(!net.cancel(id));
        assert_eq!(net.in_flight(), 1);
        // Three chunks and the plain flow shared the segment; the plain
        // flow alone runs at its cap.
        net.next_event();
        assert_eq!(net.progress(plain).unwrap().rate_bps, 500.0);
        assert!(net.cancel(plain));
        assert!(net.next_event().is_none());
    }

    #[test]
    fn chunked_progress_aggregates_live_chunks() {
        let mut net = FlowNet::new(topo(1_000.0, 500.0));
        let mut rng = DetRng::seed(0);
        let id = net
            .start_transfer(
                SimTime::ZERO,
                Addr::new(0),
                Addr::new(1),
                4_000,
                Some(ChunkSpec {
                    chunk_bytes: 1_000,
                    window: 2,
                }),
                &mut rng,
            )
            .unwrap();
        net.next_event();
        net.advance_into(SimTime::from_secs(1), &mut Vec::new());
        let p = net.progress(id).unwrap();
        // Two live chunks at 500 B/s each for 1 s.
        assert!((p.sent_bytes - 1_000.0).abs() < 1.0, "{p:?}");
        assert_eq!(p.total_bytes, 4_000);
        assert!((p.rate_bps - 1_000.0).abs() < 1e-6);
    }

    #[test]
    fn advance_to_intermediate_time_accrues_partial_progress() {
        let mut net = FlowNet::new(topo(1_000.0, 1_000.0));
        let mut rng = DetRng::seed(0);
        let id = net
            .start_flow(SimTime::ZERO, Addr::new(0), Addr::new(1), 10_000, &mut rng)
            .unwrap();
        net.next_event();
        let mut events = vec![];
        net.advance_into(SimTime::from_secs(3), &mut events);
        assert!(events.is_empty());
        let p = net.progress(id).unwrap();
        assert!((p.sent_bytes - 3_000.0).abs() < 1.0);
    }
}
