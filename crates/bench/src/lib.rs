//! Shared helpers for the Cloud4Home experiment harness.
//!
//! [`paper`] holds every table and figure of the paper's evaluation, and the
//! mechanism studies beyond it, as rows plus one table of the claims made
//! about them; the `paper` bench target prints them (`cargo bench -p
//! c4h-bench --bench paper`), `tests/paper_shapes.rs` asserts them and
//! [`paper::sweep`] names the seeds each fails on. [`gates`] holds every
//! host-side count CI gates, each with its bound; the `gates` bench target
//! runs them (`cargo bench -p c4h-bench --bench gates`). This library also
//! holds the statistics, allocation-counting and profiling utilities they
//! share.

use std::alloc::{GlobalAlloc, Layout, System};
use std::backtrace::Backtrace;
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use c4h_chimera::ChimeraNode;
use c4h_simnet::SimTime;
use c4h_workloads::TraceConfig;
use cloud4home::{
    Cloud4Home, Config, NodeId, NodeSpec, Object, OpId, RoutePolicy, ServiceKind, StorePolicy,
};

pub mod gates;
pub mod paper;
mod profile;
mod report;

pub use profile::{sample_profile, FrameShare, Profile};
pub use report::{BenchReport, JsonVal};

static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// Bytes handed out and not yet freed.
static LIVE: AtomicU64 = AtomicU64::new(0);

/// A counting wrapper around the system allocator.
///
/// Install it in a bench binary with
/// `#[global_allocator] static ALLOC: CountingAlloc = CountingAlloc;`
/// and bracket the measured region with [`allocations`] to count how many
/// heap acquisitions it performed. Counts allocations and reallocations
/// (the events a steady-state hot path must not produce); frees are not
/// counted. It also keeps the heap bytes live, read by [`live_bytes`].
/// Relaxed ordering is fine — the benches are single-threaded and only
/// need a consistent total at the two read points. Inside a [`census`]
/// window it also records where each allocation came from.
pub struct CountingAlloc;

// SAFETY: delegates every operation unchanged to `System`; the counter
// update and the census capture have no effect on the returned memory. The
// capture allocates through this allocator again, but only once per
// outer call (`IN_CENSUS` turns the nested calls into plain delegation),
// and it does not panic: a poisoned stack lock skips the push.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        census_note();
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            LIVE.fetch_add(layout.size() as u64, Ordering::Relaxed);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        census_note();
        let moved = unsafe { System.realloc(ptr, layout, new_size) };
        if !moved.is_null() {
            // Wrapping: a shrink adds the two's complement of the drop.
            let delta = (new_size as u64).wrapping_sub(layout.size() as u64);
            LIVE.fetch_add(delta, Ordering::Relaxed);
        }
        moved
    }
}

/// Total heap acquisitions (alloc + realloc) since process start, as seen
/// by [`CountingAlloc`]. Always zero unless the binary installed it as the
/// global allocator.
pub fn allocations() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Heap bytes allocated through [`CountingAlloc`] and not yet freed. Zero
/// unless the binary installed it as the global allocator.
pub fn live_bytes() -> u64 {
    LIVE.load(Ordering::Relaxed)
}

/// Whether a [`census`] window is open.
static CENSUS_OPEN: AtomicBool = AtomicBool::new(false);

/// The stacks a [`census`] window captured, one per allocation.
static CENSUS_STACKS: Mutex<Vec<Backtrace>> = Mutex::new(Vec::new());

thread_local! {
    /// Set while this thread captures a stack: the capture allocates
    /// itself, and those allocations are the census's, not the program's.
    static IN_CENSUS: Cell<bool> = const { Cell::new(false) };
}

/// Captures the current stack into the open census window, if any.
fn census_note() {
    if !CENSUS_OPEN.load(Ordering::Relaxed) {
        return;
    }
    IN_CENSUS.with(|busy| {
        if busy.replace(true) {
            return;
        }
        let stack = Backtrace::force_capture();
        // A poisoned lock means the census's owner panicked; the stack is
        // dropped rather than panicking inside the allocator.
        if let Ok(mut stacks) = CENSUS_STACKS.lock() {
            stacks.push(stack);
        }
        busy.set(false);
    });
}

/// Runs `f` with an allocation census open and returns its result with
/// one captured stack per heap acquisition (alloc or realloc) `f` made.
/// Only binaries that install [`CountingAlloc`] capture anything. Stacks
/// are captured unresolved; formatting one resolves its symbols.
pub fn census<R>(f: impl FnOnce() -> R) -> (R, Vec<Backtrace>) {
    let lock = || CENSUS_STACKS.lock().expect("no census window panicked");
    lock().clear();
    CENSUS_OPEN.store(true, Ordering::Relaxed);
    let out = f();
    CENSUS_OPEN.store(false, Ordering::Relaxed);
    let stacks = std::mem::take(&mut *lock());
    (out, stacks)
}

/// Sample mean and (population) standard deviation.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn mean_std(xs: &[f64]) -> (f64, f64) {
    assert!(!xs.is_empty(), "mean_std of empty sample");
    let n = xs.len() as f64;
    let mean = xs.iter().sum::<f64>() / n;
    let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n;
    (mean, var.sqrt())
}

/// Delivers overlay envelopes between `nodes` directly — no network model,
/// virtual time held at zero — until none has anything left to send.
/// Envelopes addressed outside `nodes` are dropped.
pub fn pump_overlay(nodes: &mut [ChimeraNode]) {
    loop {
        let mut moved = false;
        for i in 0..nodes.len() {
            while let Some(env) = nodes[i].poll_send() {
                moved = true;
                if let Some(j) = nodes.iter().position(|n| n.id() == env.to) {
                    nodes[j].handle(env, SimTime::ZERO);
                }
            }
        }
        if !moved {
            return;
        }
    }
}

/// The world of the `neighborhood-1k` benchmark workload at `nodes` nodes:
/// netbooks on one LAN and a desktop gateway offering transcoding, leaf
/// sets of 2 per side, objects replicated twice. `Cloud4Home::new` on it
/// is the protocol join the workload pays in its set-up.
pub fn neighborhood_config(nodes: usize, seed: u64) -> Config {
    let mut config = Config::paper_testbed(seed);
    config.chimera.leaf_size = 2;
    config.replication = 2;
    config.nodes.clear();
    for i in 0..nodes - 1 {
        config.nodes.push(NodeSpec::netbook(&format!("nb-{i:03}")));
    }
    config
        .nodes
        .push(NodeSpec::desktop("nb-gateway").with_services(&[ServiceKind::Transcode]));
    config
}

/// The trace shape of the `testbed-trace` benchmark workload: the paper's
/// reshaped eDonkey trace (6 clients, 1 300 Zipf-popular files, 60 %
/// stores) over `ops` operations, files of 64 KiB-4 MiB, no think time.
pub fn testbed_trace_config(ops: usize) -> TraceConfig {
    let mut tc = TraceConfig::paper_default(ops);
    tc.size_override = Some((64 << 10, 4 << 20));
    tc.mean_think = Duration::ZERO;
    tc
}

/// Stores in flight per preload wave of [`testbed_trace_loop`], as the
/// benchmark driver uses.
const PRELOAD_WAVE: usize = 8;

/// How often [`TraceReplay::run`] looks for completions, in virtual time,
/// as the benchmark driver's closed loop does.
const POLL: Duration = Duration::from_millis(20);

/// What one op of [`testbed_trace_loop`] does.
#[derive(Debug, Clone, Copy)]
enum Action {
    Store,
    Fetch,
    Process(ServiceKind),
    /// Face detection then recognition, as one `process_pipeline`.
    FacePipeline,
}

/// One op of the replayed stream: a client, an index into the catalog and
/// an action (think times are zero in this shape).
#[derive(Debug, Clone, Copy)]
struct ReplayOp {
    client: usize,
    object: usize,
    action: Action,
}

/// One file of the replayed catalog.
#[derive(Debug, Clone)]
struct ReplayFile {
    name: String,
    seed: u64,
    size: u64,
    content_type: &'static str,
}

impl ReplayFile {
    fn object(&self) -> Object {
        Object::synthetic(&self.name, self.seed, self.size, self.content_type)
    }
}

/// `testbed-trace` after its set-up, ready to replay its measured phase;
/// see [`testbed_trace_loop`].
#[derive(Debug)]
pub struct TraceReplay {
    home: Cloud4Home,
    files: Vec<ReplayFile>,
    ops: Vec<ReplayOp>,
    clients: usize,
    /// Preloaded files the store policy placed in the cloud.
    pub via_cloud: usize,
}

/// The `testbed-trace` benchmark workload as `benchmark/src/{workloads,
/// driver}.rs` run it, over `ops` operations on `seed`: [`generate`] of
/// the [`testbed_trace_config`] trace, `Cloud4Home::new` on the paper
/// testbed, and the preload of all 1 300 files from the six clients in
/// turn, in waves of 8 drained by `run_until_idle`, under the 3 MiB cloud
/// threshold. File `rank`'s size comes from the benchmark's golden-ratio
/// sequence over 64 KiB-4 MiB, and every tenth op is a processing request
/// rotating face detection, the detect → recognise pipeline and
/// transcoding. [`TraceReplay::run`] replays the measured phase, so the
/// set-up done here stays out of a window put around it.
///
/// # Panics
///
/// Panics if a preload store files no report or fails.
///
/// [`generate`]: c4h_workloads::generate
pub fn testbed_trace_loop(ops: usize, seed: u64) -> TraceReplay {
    const GOLDEN: f64 = 0.618_033_988_749_894_9;
    const ROTATION: [Action; 3] = [
        Action::Process(ServiceKind::FaceDetect),
        Action::FacePipeline,
        Action::Process(ServiceKind::Transcode),
    ];
    let tc = testbed_trace_config(ops);
    let (lo, hi) = tc.size_override.expect("the shape fixes its sizes");
    let trace = c4h_workloads::generate(&tc, seed);
    let files: Vec<ReplayFile> = trace
        .files
        .iter()
        .enumerate()
        .map(|(rank, f)| ReplayFile {
            name: f.name.clone(),
            seed: f.content_seed,
            size: lo + ((rank as f64 * GOLDEN).fract() * (hi - lo) as f64) as u64,
            content_type: f.kind.content_type(),
        })
        .collect();
    let ops = trace
        .ops
        .iter()
        .enumerate()
        .map(|(i, t)| ReplayOp {
            client: t.client,
            object: t.file,
            action: match t.op {
                _ if i % 10 == 9 => ROTATION[(i / 10) % ROTATION.len()],
                c4h_workloads::OpKind::Store => Action::Store,
                c4h_workloads::OpKind::Fetch => Action::Fetch,
            },
        })
        .collect();
    let mut home = Cloud4Home::new(Config::paper_testbed(seed));
    let mut wave = Vec::with_capacity(PRELOAD_WAVE);
    let mut via_cloud = 0;
    for (idx, f) in files.iter().enumerate() {
        let client = NodeId(idx % tc.clients);
        wave.push(home.store_object(client, f.object(), trace_policy(), true));
        if wave.len() == PRELOAD_WAVE || idx + 1 == files.len() {
            home.run_until_idle();
            for id in wave.drain(..) {
                let report = home
                    .take_report(id)
                    .expect("a preload store files a report");
                via_cloud += usize::from(report.expect_ok().via_cloud);
            }
        }
    }
    TraceReplay {
        home,
        files,
        ops,
        clients: tc.clients,
        via_cloud,
    }
}

/// `testbed-trace`'s store policy: objects of 3 MiB and up go to the cloud.
fn trace_policy() -> StorePolicy {
    StorePolicy::SizeThreshold {
        cloud_at_bytes: 3 << 20,
    }
}

impl TraceReplay {
    /// The measured phase: each client submits its next op as soon as its
    /// previous one completes, completions are looked for every 20 ms of
    /// virtual time, and the deployment is drained to idle at the end.
    /// Returns the ops that succeeded.
    ///
    /// # Panics
    ///
    /// Panics if called twice.
    pub fn run(&mut self) -> usize {
        assert!(!self.ops.is_empty(), "the measured phase runs once");
        let mut queues: Vec<Vec<usize>> = vec![Vec::new(); self.clients];
        for (i, op) in self.ops.iter().enumerate() {
            queues[op.client].push(i);
        }
        let mut cursor = vec![0usize; self.clients];
        let mut inflight: Vec<Option<OpId>> = vec![None; self.clients];
        let mut remaining = self.ops.len();
        let mut ok = 0;
        loop {
            for c in 0..self.clients {
                if let Some(id) = inflight[c] {
                    if let Some(report) = self.home.take_report(id) {
                        ok += usize::from(report.outcome.is_ok());
                        inflight[c] = None;
                        remaining -= 1;
                    }
                }
                if inflight[c].is_none() {
                    if let Some(&i) = queues[c].get(cursor[c]) {
                        cursor[c] += 1;
                        inflight[c] = Some(self.submit(i));
                    }
                }
            }
            if remaining == 0 {
                break;
            }
            self.home.run_for(POLL);
        }
        self.home.run_until_idle();
        self.ops.clear();
        ok
    }

    fn submit(&mut self, i: usize) -> OpId {
        let op = self.ops[i];
        let client = NodeId(op.client);
        let file = &self.files[op.object];
        let route = RoutePolicy::Performance;
        let home = &mut self.home;
        match op.action {
            Action::Store => home.store_object(client, file.object(), trace_policy(), true),
            Action::Fetch => home.fetch_object(client, &file.name),
            Action::Process(kind) => home.process_object(client, &file.name, kind, route),
            Action::FacePipeline => {
                let chain = [ServiceKind::FaceDetect, ServiceKind::FaceRecognize];
                home.process_pipeline(client, &file.name, &chain, route)
            }
        }
    }
}

/// The paper testbed after a minute of virtual time, with tracing and the
/// causal ledger both on or both off.
pub fn warmed_testbed(recording: bool) -> Cloud4Home {
    let mut home = Cloud4Home::new(Config::paper_testbed(2011));
    home.set_tracing(recording);
    home.set_ledger(recording);
    home.run_for(Duration::from_secs(60));
    home
}

/// One round of a store/fetch/process loop on the testbed: a store, a
/// fetch and a process of a fresh object, each from a different node.
/// Returns the ops it ran.
pub fn testbed_round(home: &mut Cloud4Home, r: u64) -> u64 {
    let n = home.node_count();
    let at = |k: u64| NodeId((r + k) as usize % n);
    let name = format!("census/{r}.avi");
    let obj = Object::synthetic(&name, r, (256 + 64 * (r % 4)) << 10, "avi");
    let op = home.store_object(at(0), obj, StorePolicy::MandatoryFirst, true);
    home.run_until_complete(op).expect_ok();
    let op = home.fetch_object(at(2), &name);
    home.run_until_complete(op).expect_ok();
    let op = home.process_object(
        at(4),
        &name,
        ServiceKind::Transcode,
        RoutePolicy::Performance,
    );
    home.run_until_complete(op).expect_ok();
    3
}

/// Formats a duration in milliseconds with fixed width.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Prints the standard experiment banner.
pub fn banner(id: &str, paper: &str) {
    println!("==================================================================");
    println!("{id}: {paper}");
    println!("==================================================================");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_std_basics() {
        let (m, s) = mean_std(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert!((m - 5.0).abs() < 1e-9);
        assert!((s - 2.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "empty sample")]
    fn mean_std_rejects_empty() {
        mean_std(&[]);
    }

    #[test]
    fn trace_replay_runs_every_op() {
        let mut replay = testbed_trace_loop(60, 2011);
        assert!(
            replay.via_cloud > 0,
            "the 3 MiB threshold sends some files out"
        );
        assert_eq!(replay.run(), 60, "every op of the replay succeeds");
    }

    #[test]
    fn ms_converts() {
        assert_eq!(ms(Duration::from_millis(250)), 250.0);
    }
}
