//! One repetition of a workload: set-up phase, measured phase, output
//! checks — driving `Cloud4Home` through its public calls only.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use c4h_telemetry::Histogram;

use cloud4home::{
    Breakdown, Cloud4Home, NodeId, Object, OpId, OpReport, PathAttribution, RoutePolicy, RunStats,
    ServiceKind, Snapshot,
};

use crate::alloc::allocations;
use crate::spans::Tracer;
use crate::stats::Fnv;
use crate::workloads::{Action, Inputs, Loop, OpSpec, ProcKind, Workload};

/// Closed loops look for completions every 20 ms of virtual time.
const POLL: Duration = Duration::from_millis(20);
/// Preload waves: this many stores in flight, then drain.
const PRELOAD_WAVE: usize = 8;

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Kind {
    Store,
    Fetch,
    Process,
}

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::Store, Kind::Fetch, Kind::Process];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Store => "store",
            Kind::Fetch => "fetch",
            Kind::Process => "process",
        }
    }
}

/// What the benchmark keeps of one op's report.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rec {
    pub kind: Kind,
    /// When the op was due (open loop) or submitted (closed loop), virtual ns.
    pub due_ns: u64,
    pub submitted_ns: u64,
    pub completed_ns: u64,
    /// `None` when the op succeeded, else the error's label.
    pub err: Option<&'static str>,
    pub bytes: u64,
    pub via_cloud: bool,
    pub breakdown: Breakdown,
    pub crit: PathAttribution,
    /// Stage spans the report carries (traced repetition only): one per
    /// continuation of the op's state machine.
    pub stages: u32,
}

impl Rec {
    /// Latency as the requester sees it: from the due instant.
    pub fn latency_ns(&self) -> u64 {
        self.completed_ns - self.due_ns
    }

    fn from_report(action: Action, due_ns: u64, r: &OpReport) -> Rec {
        let (err, bytes, via_cloud) = match &r.outcome {
            Ok(out) => (None, out.bytes, out.via_cloud),
            Err(e) => (Some(e.label()), 0, false),
        };
        Rec {
            kind: match action {
                Action::Store => Kind::Store,
                Action::Fetch => Kind::Fetch,
                Action::Process(_) => Kind::Process,
            },
            due_ns,
            submitted_ns: r.submitted.as_nanos(),
            completed_ns: r.completed.as_nanos(),
            err,
            bytes,
            via_cloud,
            breakdown: r.breakdown,
            crit: r.critical_path,
            stages: r.stages.len() as u32,
        }
    }
}

/// Host-clock readings of one repetition, seconds.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct HostTimes {
    pub new_s: f64,
    pub preload_s: f64,
    /// `new` + preload + drain (input generation is added by the caller).
    pub setup_s: f64,
    pub measure_s: f64,
    /// Measured-phase wall before / after the open loop's surge boundary.
    pub surge_store_s: f64,
    pub surge_fetch_s: f64,
    /// The measured phase cut at fixed points of the op stream (the last
    /// piece includes the drain). Every repetition does identical work in
    /// piece `k`, so the fastest `k` across repetitions is the best
    /// estimate of that piece undisturbed.
    pub segments_s: [f64; SEGMENTS],
}

/// Pieces the measured phase is cut into for [`HostTimes::segments_s`].
pub const SEGMENTS: usize = 16;

/// Everything one repetition produced.
#[derive(Debug)]
pub struct Rep {
    pub host: HostTimes,
    /// Heap acquisitions during the measured phase.
    pub allocs: u64,
    /// One per op, in op-stream order.
    pub recs: Vec<Rec>,
    /// Whether each preloaded object was placed in the cloud.
    pub preload_via_cloud: Vec<bool>,
    pub stats_after_setup: RunStats,
    pub stats_end: RunStats,
    /// Envelopes delivered by the time `Cloud4Home::new` returned.
    pub join_envelopes: u64,
    /// Virtual instants: measured-phase start, last op completion, idle.
    pub virt_start_ns: u64,
    pub virt_last_ns: u64,
    pub virt_idle_ns: u64,
    /// Bytes on home nodes at quiescence.
    pub node_bytes: u64,
    /// DHT lookup hops and metadata-cache (hits, misses) of the measured
    /// phase alone, like the `RunStats` deltas above: the join and the
    /// preload are set-up's work, not the op stream's.
    pub lookup_hops: u64,
    pub cache: (u64, u64),
    pub digest: u64,
    /// Problems the output checks found (empty when the run is correct).
    pub violations: Vec<String>,
    /// Exporter output, captured on the traced repetition only.
    pub exports: Option<Exports>,
}

/// What the traced repetition's recorder held, and what exporting it cost.
#[derive(Debug)]
pub struct Exports {
    pub snapshot: Snapshot,
    /// What the recorder's cumulative counters, histograms and event log
    /// had reached when set-up ended; the measured phase is the difference.
    pub setup_counters: BTreeMap<String, u64>,
    pub setup_histograms: BTreeMap<String, Histogram>,
    pub setup_events: usize,
    /// Host seconds spent in `metrics_json` + `series_json` +
    /// `chrome_trace_json`.
    pub export_s: f64,
}

fn object_of(inputs: &Inputs, idx: usize) -> Object {
    let o = &inputs.objects[idx];
    Object::synthetic(&o.name, o.content_seed, o.size, o.content_type)
}

fn submit(home: &mut Cloud4Home, inputs: &Inputs, op: &OpSpec, tr: &mut Tracer) -> OpId {
    let client = inputs.clients[op.client];
    let name = &inputs.objects[op.object].name;
    let route = RoutePolicy::Performance;
    let (span, id) = match op.action {
        Action::Store => {
            let obj = object_of(inputs, op.object);
            let s = tr.enter("core.store_object");
            (
                s,
                home.store_object(client, obj, inputs.policy.clone(), true),
            )
        }
        Action::Fetch => {
            let s = tr.enter("core.fetch_object");
            (s, home.fetch_object(client, name))
        }
        Action::Process(ProcKind::FaceDetect) => {
            let s = tr.enter("core.process_object");
            (
                s,
                home.process_object(client, name, ServiceKind::FaceDetect, route),
            )
        }
        Action::Process(ProcKind::Transcode) => {
            let s = tr.enter("core.process_object");
            (
                s,
                home.process_object(client, name, ServiceKind::Transcode, route),
            )
        }
        Action::Process(ProcKind::FacePipeline) => {
            let s = tr.enter("core.process_pipeline");
            let chain = [ServiceKind::FaceDetect, ServiceKind::FaceRecognize];
            (s, home.process_pipeline(client, name, &chain, route))
        }
    };
    tr.exit_op(span, id.0);
    id
}

fn take(span: &'static str, home: &mut Cloud4Home, id: OpId, tr: &mut Tracer) -> Option<OpReport> {
    let s = tr.enter(span);
    let r = home.take_report(id);
    tr.exit_op(s, id.0);
    r
}

fn run_for(home: &mut Cloud4Home, d: Duration, tr: &mut Tracer) {
    let s = tr.enter("core.run_for");
    home.run_for(d);
    tr.exit(s);
}

fn run_until_idle(span: &'static str, home: &mut Cloud4Home, tr: &mut Tracer) {
    let s = tr.enter(span);
    home.run_until_idle();
    tr.exit(s);
}

/// Stores the catalog in small waves so set-up exercises the store path
/// without building a flow backlog of its own. Its spans are named
/// `preload.*` so the measured phase's totals stay its own.
fn preload(
    home: &mut Cloud4Home,
    inputs: &Inputs,
    tr: &mut Tracer,
    violations: &mut Vec<String>,
) -> Vec<bool> {
    let mut via_cloud = Vec::with_capacity(inputs.preload);
    let mut wave = Vec::with_capacity(PRELOAD_WAVE);
    for idx in 0..inputs.preload {
        let client = inputs.clients[idx % inputs.preload_clients];
        let s = tr.enter("preload.store_object");
        let id = home.store_object(client, object_of(inputs, idx), inputs.policy.clone(), true);
        tr.exit_op(s, id.0);
        wave.push(id);
        if wave.len() == PRELOAD_WAVE || idx + 1 == inputs.preload {
            run_until_idle("preload.run_until_idle", home, tr);
            for id in wave.drain(..) {
                match take("preload.take_report", home, id, tr).map(|r| (r.object, r.outcome)) {
                    Some((_, Ok(out))) => via_cloud.push(out.via_cloud),
                    Some((name, Err(e))) => {
                        via_cloud.push(false);
                        violations.push(format!("preload of {name} failed: {e}"));
                    }
                    None => {
                        via_cloud.push(false);
                        violations.push(format!("preload {id} left no report"));
                    }
                }
            }
        }
    }
    via_cloud
}

struct Measured {
    recs: Vec<Option<Rec>>,
    surge_split: Option<Instant>,
    max_lateness_ns: u64,
    /// When piece `k` of the op stream ended (all but the last piece).
    marks: Vec<Instant>,
}

/// Ops handled when piece `k` (0-based) of `total` ends.
fn piece_end(k: usize, total: usize) -> usize {
    (k + 1) * total / SEGMENTS
}

fn drive_closed(home: &mut Cloud4Home, inputs: &Inputs, tr: &mut Tracer) -> Measured {
    let clients = inputs.clients.len();
    let mut queues: Vec<Vec<usize>> = vec![Vec::new(); clients];
    for (i, op) in inputs.ops.iter().enumerate() {
        queues[op.client].push(i);
    }
    let mut cursor = vec![0usize; clients];
    let mut inflight: Vec<Option<(OpId, usize)>> = vec![None; clients];
    let start = home.now();
    let mut due: Vec<_> = queues
        .iter()
        .map(|q| start + q.first().map_or(Duration::ZERO, |&i| inputs.ops[i].when))
        .collect();
    let mut recs = vec![None; inputs.ops.len()];
    let mut remaining = inputs.ops.len();
    let mut marks = Vec::with_capacity(SEGMENTS);
    let mut faults = inputs.faults.iter().peekable();
    loop {
        // Faults fire at fixed points of the op stream, between polls.
        let done = inputs.ops.len() - remaining;
        while let Some((_, ev)) = faults.next_if(|(after, _)| *after <= done) {
            let s = tr.enter("core.apply_fault");
            home.apply_fault(ev.clone());
            tr.exit(s);
        }
        let now = home.now();
        for c in 0..clients {
            if let Some((id, i)) = inflight[c] {
                if let Some(r) = take("core.take_report", home, id, tr) {
                    recs[i] = Some(Rec::from_report(
                        inputs.ops[i].action,
                        r.submitted.as_nanos(),
                        &r,
                    ));
                    inflight[c] = None;
                    remaining -= 1;
                    let done = inputs.ops.len() - remaining;
                    while marks.len() + 1 < SEGMENTS
                        && done >= piece_end(marks.len(), inputs.ops.len())
                    {
                        marks.push(Instant::now());
                    }
                    if let Some(&next) = queues[c].get(cursor[c]) {
                        due[c] = r.completed + inputs.ops[next].when;
                    }
                }
            }
            if inflight[c].is_none() && due[c] <= now {
                if let Some(&i) = queues[c].get(cursor[c]) {
                    cursor[c] += 1;
                    inflight[c] = Some((submit(home, inputs, &inputs.ops[i], tr), i));
                }
            }
        }
        if remaining == 0 {
            break;
        }
        run_for(home, POLL, tr);
    }
    Measured {
        recs,
        surge_split: None,
        max_lateness_ns: 0,
        marks,
    }
}

fn drive_open(
    home: &mut Cloud4Home,
    inputs: &Inputs,
    boundary: Duration,
    tr: &mut Tracer,
) -> Measured {
    assert!(inputs.faults.is_empty(), "open loops carry no fault plan");
    let start = home.now();
    let mut ids = Vec::with_capacity(inputs.ops.len());
    let mut surge_split = None;
    let mut max_lateness_ns = 0u64;
    let mut marks = Vec::with_capacity(SEGMENTS);
    for (i, op) in inputs.ops.iter().enumerate() {
        if surge_split.is_none() && op.when >= boundary {
            surge_split = Some(Instant::now());
        }
        while marks.len() + 1 < SEGMENTS && i >= piece_end(marks.len(), inputs.ops.len()) {
            marks.push(Instant::now());
        }
        let due = start + op.when;
        if let Some(gap) = due.checked_duration_since(home.now()) {
            if !gap.is_zero() {
                run_for(home, gap, tr);
            }
        }
        let late = home.now().as_nanos() - due.as_nanos();
        max_lateness_ns = max_lateness_ns.max(late);
        ids.push(submit(home, inputs, op, tr));
    }
    run_until_idle("core.run_until_idle", home, tr);
    let recs = ids
        .iter()
        .zip(&inputs.ops)
        .map(|(&id, op)| {
            take("core.take_report", home, id, tr)
                .map(|r| Rec::from_report(op.action, (start + op.when).as_nanos(), &r))
        })
        .collect();
    Measured {
        recs,
        surge_split,
        max_lateness_ns,
        marks,
    }
}

/// Error labels that faults and the overload plane can legitimately cause.
/// The planes-gray fault plan is chosen so that none occurs; if one does,
/// the op counts as failed but the run's outputs are not thereby wrong.
const FAULT_CAUSED: [&str; 6] = [
    "Timeout",
    "Dht",
    "OwnerUnreachable",
    "ExecutorFailed",
    "Overloaded",
    "StripesLost",
];

fn check_outputs(inputs: &Inputs, recs: &[Option<Rec>], violations: &mut Vec<String>) {
    for (i, (rec, op)) in recs.iter().zip(&inputs.ops).enumerate() {
        let Some(rec) = rec else {
            violations.push(format!("op {i} left no report"));
            continue;
        };
        let object = &inputs.objects[op.object];
        match rec.err {
            None => {
                // Every name has one size for the whole run, so the length
                // last acknowledged for a name is that size.
                let moves_object = matches!(op.action, Action::Store | Action::Fetch);
                if moves_object && rec.bytes != object.size {
                    violations.push(format!(
                        "op {i} ({:?} {}) returned {} bytes, expected {}",
                        op.action, object.name, rec.bytes, object.size
                    ));
                }
            }
            Some(label) => {
                let tolerated =
                    inputs.workload == Workload::PlanesGray && FAULT_CAUSED.contains(&label);
                if !tolerated {
                    violations.push(format!(
                        "op {i} ({:?} {}) failed with {label}",
                        op.action, object.name
                    ));
                }
            }
        }
        if rec.completed_ns < rec.submitted_ns || rec.submitted_ns < rec.due_ns {
            violations.push(format!("op {i} has out-of-order instants"));
        }
    }
}

fn result_digest(recs: &[Rec]) -> u64 {
    let mut h = Fnv::default();
    for (i, r) in recs.iter().enumerate() {
        h.u64(i as u64);
        h.u64(r.kind as u64);
        h.u64(r.submitted_ns);
        h.u64(r.completed_ns);
        h.str(r.err.unwrap_or("ok"));
        h.u64(r.bytes);
    }
    h.finish()
}

/// Runs one repetition. With a recording `tracer`, tracing and the ledger
/// are switched on in the deployment and the exporters are captured.
pub fn run_rep(inputs: &Inputs, tr: &mut Tracer, traced: bool) -> Rep {
    let mut violations = Vec::new();
    let mut config = inputs.config.clone();
    if traced {
        config.tracing = true;
        config.ledger = true;
    }

    let t_setup = Instant::now();
    let phase = tr.enter("setup");
    let s = tr.enter("core.new");
    let mut home = Cloud4Home::new(config);
    tr.exit(s);
    let new_s = t_setup.elapsed().as_secs_f64();
    let join_envelopes = home.stats().envelopes_delivered;
    tr.exit(phase);

    let t_preload = Instant::now();
    let phase = tr.enter("preload");
    let preload_via_cloud = preload(&mut home, inputs, tr, &mut violations);
    tr.exit(phase);
    let preload_s = t_preload.elapsed().as_secs_f64();
    let setup_s = t_setup.elapsed().as_secs_f64();
    let stats_after_setup = home.stats();
    let hops_after_setup = home.dht_lookup_hops();
    let cache_after_setup = home.cache_stats();
    let recorded_after_setup = traced.then(|| {
        let s = home.telemetry().snapshot();
        (s.counters, s.histograms, s.events.len())
    });

    let allocs_before = allocations();
    let t_measure = Instant::now();
    let phase = tr.enter("measure");
    let virt_start_ns = home.now().as_nanos();
    let measured = match inputs.shape {
        Loop::Closed => drive_closed(&mut home, inputs, tr),
        Loop::Open { boundary, .. } => drive_open(&mut home, inputs, boundary, tr),
    };
    tr.exit(phase);
    let phase = tr.enter("drain");
    run_until_idle("core.run_until_idle", &mut home, tr);
    tr.exit(phase);
    let t_end = Instant::now();
    let allocs = allocations() - allocs_before;
    let measure_s = (t_end - t_measure).as_secs_f64();
    let mut segments_s = [0.0; SEGMENTS];
    let mut from = t_measure;
    for (slot, &to) in segments_s
        .iter_mut()
        .zip(measured.marks.iter().chain(std::iter::once(&t_end)))
    {
        *slot = (to - from).as_secs_f64();
        from = to;
    }
    let (surge_store_s, surge_fetch_s) = match measured.surge_split {
        Some(split) => (
            (split - t_measure).as_secs_f64(),
            (t_end - split).as_secs_f64(),
        ),
        None => (0.0, 0.0),
    };

    check_outputs(inputs, &measured.recs, &mut violations);
    if measured.max_lateness_ns != 0 {
        violations.push(format!(
            "open-loop generator ran {} ns late",
            measured.max_lateness_ns
        ));
    }
    let recs: Vec<Rec> = measured.recs.into_iter().flatten().collect();
    let virt_last_ns = recs
        .iter()
        .map(|r| r.completed_ns)
        .max()
        .unwrap_or(virt_start_ns);

    let exports = traced.then(|| {
        let t = Instant::now();
        let s = tr.enter("core.metrics_json");
        std::hint::black_box(home.metrics_json().len());
        tr.exit(s);
        let s = tr.enter("core.series_json");
        std::hint::black_box(home.series_json().len());
        tr.exit(s);
        let s = tr.enter("core.chrome_trace_json");
        std::hint::black_box(home.chrome_trace_json().len());
        tr.exit(s);
        let export_s = t.elapsed().as_secs_f64();
        let (setup_counters, setup_histograms, setup_events) =
            recorded_after_setup.expect("snapshot taken when traced");
        Exports {
            snapshot: home.telemetry().snapshot(),
            setup_counters,
            setup_histograms,
            setup_events,
            export_s,
        }
    });
    let cache = home.cache_stats();

    Rep {
        host: HostTimes {
            new_s,
            preload_s,
            setup_s,
            measure_s,
            surge_store_s,
            surge_fetch_s,
            segments_s,
        },
        allocs,
        digest: result_digest(&recs),
        recs,
        preload_via_cloud,
        stats_after_setup,
        stats_end: home.stats(),
        join_envelopes,
        virt_start_ns,
        virt_last_ns,
        virt_idle_ns: home.now().as_nanos(),
        node_bytes: (0..home.node_count())
            .map(|i| home.stored_bytes(NodeId(i)))
            .sum(),
        lookup_hops: home.dht_lookup_hops() - hops_after_setup,
        cache: (cache.0 - cache_after_setup.0, cache.1 - cache_after_setup.1),
        violations,
        exports,
    }
}
