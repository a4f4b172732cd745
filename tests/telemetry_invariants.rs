//! Trace-based invariant tests for the telemetry layer.
//!
//! The chaos scenario from the robustness PR (eDonkey trace replay under a
//! seeded crash + partition + bursty-loss fault plan) is replayed with
//! tracing enabled, and the recorded spans and instants are then checked
//! against system-level invariants that must hold for *every* operation:
//! failed fetch attempts are always followed by a failover, no transfer
//! span crosses an active partition, and the whole trace — Chrome export
//! and metrics dump included — is byte-identical across same-seed runs.
//!
//! The last section ties the latency views of one op together: its Table-I
//! `Breakdown`, its stage spans, its critical-path buckets and its explain
//! DAG are all derived from the same "stage S ran from t₀ to t₁" facts, so
//! they must agree to the nanosecond on every report.

use std::collections::BTreeSet;
use std::time::Duration;

use c4h_workloads::{generate, OpKind, TraceConfig};
use cloud4home::{
    Cloud4Home, Config, FaultEvent, FaultPlan, InstantRec, NodeId, Object, OpReport, RoutePolicy,
    ServiceKind, Snapshot, SpanRec, StorePolicy,
};

/// Runtime instants (fault injections, churn) render on track 0.
const RUNTIME_TRACK: u64 = 0;

/// Replays the acceptance chaos scenario with tracing enabled, then (after
/// the heal) runs one store + process pair so the trace also contains a
/// service-execution operation. Returns the deployment for inspection.
fn chaos_traced() -> Cloud4Home {
    let mut config = Config::paper_testbed(53);
    config.replication = 2;
    config.tracing = true;
    let mut home = Cloud4Home::new(config);
    home.inject_faults(
        FaultPlan::new()
            .at(
                Duration::ZERO,
                FaultEvent::BurstyLoss {
                    mean_loss: 0.10,
                    mean_burst_len: 8.0,
                },
            )
            .at(Duration::from_secs(5), FaultEvent::Crash(NodeId(4)))
            .at(
                Duration::from_secs(8),
                FaultEvent::Partition(vec![vec![NodeId(2)]]),
            )
            .at(Duration::from_secs(38), FaultEvent::Heal),
    );

    let mut trace_cfg = TraceConfig::paper_default(60);
    trace_cfg.files = 40;
    trace_cfg.size_override = Some((256 << 10, 1 << 20));
    let trace = generate(&trace_cfg, 9);

    const CLIENTS: [usize; 4] = [0, 1, 3, 5];
    for top in &trace.ops {
        let client = NodeId(CLIENTS[top.client % CLIENTS.len()]);
        let file = &trace.files[top.file];
        let op = match top.op {
            OpKind::Store => {
                let obj = Object::synthetic(
                    &file.name,
                    file.content_seed,
                    file.size_bytes,
                    file.kind.content_type(),
                );
                home.store_object(client, obj, StorePolicy::MandatoryFirst, true)
            }
            OpKind::Fetch => home.fetch_object(client, &file.name),
        };
        // Under chaos some operations legitimately fail; the invariants
        // below must hold either way.
        let _ = home.run_until_complete(op);
    }

    // Post-heal: a processing operation so the trace covers service
    // execution alongside stores and fetches. The bursty-loss model stays
    // active for the whole run, so individual attempts may still fail —
    // retry with fresh names until one completes (deterministically).
    let mut processed = false;
    for i in 0..8u64 {
        let name = format!("post/heal-{i}.jpg");
        let obj = Object::synthetic(&name, 77 + i, 512 << 10, "jpeg");
        let op = home.store_object(NodeId(0), obj, StorePolicy::ForceHome, true);
        if home.run_until_complete(op).outcome.is_err() {
            continue;
        }
        let op = home.process_object(
            NodeId(0),
            &name,
            ServiceKind::FaceDetect,
            RoutePolicy::Performance,
        );
        if home.run_until_complete(op).outcome.is_ok() {
            processed = true;
            break;
        }
    }
    assert!(processed, "no post-heal process operation completed");
    home
}

/// The single operation span recorded on an op's track, if any.
fn op_span_on_track(snap: &Snapshot, track: u64) -> Option<&SpanRec> {
    snap.spans().find(|s| s.cat == "op" && s.track == track)
}

#[test]
fn chaos_trace_covers_all_span_kinds() {
    let home = chaos_traced();
    let snap = home.telemetry().snapshot();

    for kind in ["store", "fetch", "process"] {
        assert!(
            snap.spans().any(|s| s.cat == "op" && s.name == kind),
            "trace must contain an `{kind}` operation span"
        );
    }
    for cat in ["stage", "dht", "net"] {
        assert!(
            snap.spans().any(|s| s.cat == cat),
            "trace must contain `{cat}` spans"
        );
    }
    assert!(
        snap.instants().any(|i| i.name == "fault.crash"),
        "the injected crash must leave an instant"
    );

    // Every stage span nests inside the single op span on its track: the
    // Chrome export relies on timestamp containment for nesting.
    for stage in snap.spans().filter(|s| s.cat == "stage") {
        let op = op_span_on_track(&snap, stage.track)
            .unwrap_or_else(|| panic!("stage span {} has no op span", stage.name));
        assert!(
            stage.start_ns >= op.start_ns && stage.end_ns <= op.end_ns,
            "stage {} [{}, {}] escapes its op span [{}, {}]",
            stage.name,
            stage.start_ns,
            stage.end_ns,
            op.start_ns,
            op.end_ns
        );
    }
}

/// Checks the failover invariant over a snapshot and returns how many
/// failed fetch attempts it covered: every mid-transfer fetch failure must
/// be followed, on the same operation's track, by a failover attempt
/// (which may itself conclude that no candidate is left and fail the
/// operation — but the attempt must be there). And a fetch span that
/// reports failovers in its arguments must show the instants inside it.
fn assert_failed_fetches_failover(snap: &Snapshot) -> usize {
    let mut checked = 0;
    for failure in snap.instants().filter(|i| {
        i.name == "op.transfer_failed"
            && i.arg("stage")
                .and_then(|v| v.as_str())
                .is_some_and(|s| s.starts_with("fetch."))
    }) {
        checked += 1;
        assert!(
            snap.instants().any(|i| i.name == "fetch.failover"
                && i.track == failure.track
                && i.ts_ns >= failure.ts_ns),
            "fetch transfer failure at {} ns (track {}) has no failover",
            failure.ts_ns,
            failure.track
        );
    }
    for op in snap
        .spans()
        .filter(|s| s.cat == "op" && s.name == "fetch")
        .filter(|s| s.arg("failovers").and_then(|v| v.as_u64()).unwrap_or(0) > 0)
    {
        assert!(
            snap.instants().any(|i| i.name == "fetch.failover"
                && i.track == op.track
                && i.ts_ns >= op.start_ns
                && i.ts_ns <= op.end_ns),
            "fetch on track {} claims failovers but records none",
            op.track
        );
    }
    checked
}

#[test]
fn failed_fetch_attempts_are_followed_by_failover() {
    // Universally over the chaos trace (whatever failures the seed deals)…
    let home = chaos_traced();
    assert_failed_fetches_failover(&home.telemetry().snapshot());

    // …and non-vacuously on a scenario guaranteed to sever a fetch
    // mid-transfer: a partition cuts both holders off while 20 MiB are in
    // flight, and the fetch must fail over, back off, and outlast the cut.
    let mut config = Config::paper_testbed(51);
    config.replication = 2;
    config.tracing = true;
    let mut home = Cloud4Home::new(config);
    let obj = Object::synthetic("part/big.bin", 4, 20 << 20, "doc");
    let op = home.store_object(NodeId(1), obj, StorePolicy::ForceHome, true);
    home.run_until_complete(op).expect_ok();

    let op = home.fetch_object(NodeId(0), "part/big.bin");
    home.run_for(Duration::from_millis(500));
    home.apply_fault(FaultEvent::Partition(vec![vec![NodeId(1), NodeId(5)]]));
    home.inject_faults(FaultPlan::new().at(Duration::from_secs(8), FaultEvent::Heal));
    home.run_until_complete(op).expect_ok();

    let covered = assert_failed_fetches_failover(&home.telemetry().snapshot());
    assert!(
        covered > 0,
        "the severed transfer must leave a failure instant"
    );
}

/// Partition groups as recorded in the `fault.partition` instant: explicit
/// groups split by `|`, member addresses by `,`; every unlisted address
/// belongs to the implicit remainder group.
fn parse_groups(instant: &InstantRec) -> Vec<BTreeSet<u64>> {
    let desc = instant
        .arg("groups")
        .and_then(|v| v.as_str())
        .expect("fault.partition records its groups");
    desc.split('|')
        .map(|g| g.split(',').map(|a| a.parse().expect("addr")).collect())
        .collect()
}

fn group_of(groups: &[BTreeSet<u64>], addr: u64) -> usize {
    groups
        .iter()
        .position(|g| g.contains(&addr))
        .unwrap_or(groups.len())
}

#[test]
fn no_transfer_crosses_an_active_partition() {
    let home = chaos_traced();
    let snap = home.telemetry().snapshot();

    // Reconstruct partition windows [cut, heal) from the fault instants.
    let mut windows: Vec<(u64, u64, Vec<BTreeSet<u64>>)> = Vec::new();
    for i in snap.instants().filter(|i| i.track == RUNTIME_TRACK) {
        match i.name {
            "fault.partition" => windows.push((i.ts_ns, u64::MAX, parse_groups(i))),
            "fault.heal" => {
                if let Some(w) = windows.last_mut() {
                    w.1 = i.ts_ns;
                }
            }
            _ => {}
        }
    }
    assert!(!windows.is_empty(), "chaos plan must cut a partition");

    // No transfer between nodes in different groups may overlap an active
    // window: flows in flight when the cut lands are severed at the cut
    // instant, and no crossing flow may start before the heal.
    for flow in snap.spans().filter(|s| s.name == "net.flow") {
        let src = flow.arg("src").and_then(|v| v.as_u64()).expect("src");
        let dst = flow.arg("dst").and_then(|v| v.as_u64()).expect("dst");
        for (cut, heal, groups) in &windows {
            if group_of(groups, src) == group_of(groups, dst) {
                continue;
            }
            assert!(
                flow.end_ns <= *cut || flow.start_ns >= *heal,
                "flow {src}->{dst} [{}, {}] crosses the partition [{cut}, {heal})",
                flow.start_ns,
                flow.end_ns
            );
        }
    }
}

#[test]
fn owner_crash_failover_is_visible_in_the_trace() {
    let mut config = Config::paper_testbed(41);
    config.replication = 2;
    config.tracing = true;
    let mut home = Cloud4Home::new(config);
    let obj = Object::synthetic("depart/data.bin", 1, 512 << 10, "doc");
    let op = home.store_object(NodeId(3), obj, StorePolicy::ForceHome, true);
    home.run_until_complete(op).expect_ok();

    home.crash_node(NodeId(3));
    home.run_for(Duration::from_secs(8));
    let op = home.fetch_object(NodeId(1), "depart/data.bin");
    home.run_until_complete(op).expect_ok();

    let snap = home.telemetry().snapshot();
    let fetch = snap
        .spans()
        .find(|s| s.cat == "op" && s.name == "fetch")
        .expect("fetch span recorded");
    assert_eq!(fetch.arg("ok").and_then(|v| v.as_u64()), Some(1));
    assert!(
        fetch.arg("failovers").and_then(|v| v.as_u64()).unwrap_or(0) >= 1,
        "fetch must report the failover in its span arguments"
    );
    assert!(
        snap.instants().any(|i| i.name == "fetch.failover"
            && i.track == fetch.track
            && i.ts_ns >= fetch.start_ns
            && i.ts_ns <= fetch.end_ns),
        "the failover instant must nest inside the fetch span"
    );
    assert!(
        snap.instants().any(|i| i.name == "fault.crash"),
        "the crash must be on the runtime track"
    );
}

#[test]
fn chrome_trace_and_metrics_are_byte_deterministic() {
    let a = chaos_traced();
    let b = chaos_traced();
    assert_eq!(a.now(), b.now(), "same-seed runs diverged in virtual time");

    let (trace_a, trace_b) = (a.chrome_trace_json(), b.chrome_trace_json());
    assert!(trace_a == trace_b, "Chrome traces differ between runs");
    let (metrics_a, metrics_b) = (a.metrics_json(), b.metrics_json());
    assert!(metrics_a == metrics_b, "metrics dumps differ between runs");

    // Smoke-check the export shape: a Chrome trace with process metadata,
    // complete events for the main span kinds, and instant events.
    for needle in [
        "\"traceEvents\"",
        "\"ph\":\"X\"",
        "\"ph\":\"i\"",
        "\"ph\":\"M\"",
        "\"name\":\"store\"",
        "\"name\":\"fetch\"",
        "\"name\":\"process\"",
        "\"name\":\"net.flow\"",
        "\"cat\":\"dht\"",
    ] {
        assert!(trace_a.contains(needle), "trace export lacks {needle}");
    }
    for needle in ["op.store.ok", "stats.ops_completed", "chimera.lookup_hops"] {
        assert!(metrics_a.contains(needle), "metrics dump lacks {needle}");
    }
}

/// The `stats.*` rows of the exports are a view of `RunStats`: they carry
/// the live aggregates, and taking an export writes nothing into the
/// recorder.
#[test]
fn exports_read_the_run_stats_without_writing_them() {
    let mut config = Config::paper_testbed(75);
    config.tracing = true;
    let mut home = Cloud4Home::new(config);
    let obj = Object::synthetic("views/stats.bin", 3, 64 << 10, "doc");
    let op = home.store_object(NodeId(1), obj, StorePolicy::ForceHome, true);
    home.run_until_complete(op).expect_ok();

    let before = home.telemetry().snapshot().counters;
    let metrics = home.metrics_json();
    let prom = home.prometheus_text();
    assert_eq!(
        home.telemetry().snapshot().counters,
        before,
        "an export wrote into the recorder"
    );
    let completed = home.stats().ops_completed;
    assert!(metrics.contains(&format!("\"stats.ops_completed\":{completed}")));
    assert!(prom.contains(&format!("\nc4h_stats_ops_completed {completed}\n")));
}

/// A mixed workload run to completion one op at a time: twelve stores and
/// twelve fetches of 512 KiB images on a two-replica testbed, then four
/// face detections, with gauges sampled every `health_sample_ms` while
/// tracing. Returns the deployment and every op's report.
fn mixed_workload(tracing: bool, health_sample_ms: u64) -> (Cloud4Home, Vec<OpReport>) {
    const OBJECTS: usize = 12;
    let mut config = Config::paper_testbed(2024);
    config.replication = 2;
    config.tracing = tracing;
    config.health_sample_ms = health_sample_ms;
    let mut home = Cloud4Home::new(config);
    let mut reports = Vec::new();
    let name = |i: usize| format!("attr/img-{i:03}.jpg");
    for i in 0..OBJECTS {
        let obj = Object::synthetic(&name(i), 900 + i as u64, 512 << 10, "jpeg");
        let op = home.store_object(NodeId(i % 4), obj, StorePolicy::ForceHome, true);
        reports.push(home.run_until_complete(op));
    }
    for i in 0..OBJECTS {
        let op = home.fetch_object(NodeId((i + 2) % 4), &name(i));
        reports.push(home.run_until_complete(op));
    }
    for i in 0..4 {
        let (detect, route) = (ServiceKind::FaceDetect, RoutePolicy::Performance);
        let op = home.process_object(NodeId(0), &name(i), detect, route);
        reports.push(home.run_until_complete(op));
    }
    (home, reports)
}

/// Recording observes and never steers: the same workload with tracing off
/// and on — gauges sampled at the default 500 ms and at a 5× denser 100 ms
/// — ends at the same virtual instant, every op completes at the same
/// instant with the same outcome, and the trace holds exactly one `op`
/// span per op, on the op's own track. With tracing off the recorder is
/// dark: no event, series or counter, and no post-mortem; the denser
/// cadence samples more gauge points.
#[test]
fn tracing_moves_no_instant_and_leaves_one_op_span_per_op() {
    let (off, off_reports) = mixed_workload(false, 500);
    let dark = off.telemetry().snapshot();
    assert!(
        dark.events.is_empty() && dark.series.is_empty() && dark.counters.is_empty(),
        "a disabled recorder stores nothing ({} events, {} series, {} counters)",
        dark.events.len(),
        dark.series.len(),
        dark.counters.len()
    );
    assert_eq!(
        off.postmortem_json(),
        "[\n\n]\n",
        "a disabled recorder cuts no post-mortem"
    );
    let mut points = Vec::new();
    for cadence_ms in [500, 100] {
        let (on, on_reports) = mixed_workload(true, cadence_ms);
        assert_eq!(
            off.now(),
            on.now(),
            "tracing at {cadence_ms} ms moved virtual time"
        );
        assert_eq!(off_reports.len(), on_reports.len());
        for (a, b) in off_reports.iter().zip(&on_reports) {
            assert_eq!(
                (a.id, a.completed, &a.outcome, a.breakdown),
                (b.id, b.completed, &b.outcome, b.breakdown),
                "tracing moved an op"
            );
            a.expect_ok();
        }

        let snap = on.telemetry().snapshot();
        let ok = ["store", "fetch", "process"].map(|k| snap.counter(&format!("op.{k}.ok")));
        assert_eq!(ok, [12, 12, 4], "the op counters sum to the ops run");
        for r in &on_reports {
            let on_track = snap.spans().filter(|s| s.cat == "op" && s.track == r.id.0);
            assert_eq!(on_track.count(), 1, "{} leaves one op span", r.id);
        }
        let op_spans = snap.spans().filter(|s| s.cat == "op").count();
        assert_eq!(op_spans, on_reports.len(), "every op span is an op's");
        points.push(snap.series.values().map(|s| s.len()).sum::<usize>());
    }
    assert!(
        points[1] > points[0],
        "100 ms samples no more than 500 ms: {points:?}"
    );
}

// ----------------------------------------------------------------------
// One decomposition, four views
// ----------------------------------------------------------------------

/// The `Breakdown` column a stage span is charged to; `None` for control
/// time Table I leaves in the remainder. The crate keeps this in its stage
/// table; the span names and their columns are an export format, so the
/// test carries its own copy.
fn column_of(stage: &str) -> Option<&'static str> {
    Some(match stage {
        "store.channel_in" | "store.ack" | "fetch.channel_in" | "fetch.channel_out"
        | "delete.channel_in" | "list.channel_in" | "proc.channel_in" | "proc.channel_out" => {
            "inter_domain"
        }
        "store.flow_to_peer"
        | "store.fanout"
        | "store.flow_to_cloud"
        | "store.cloud_put"
        | "fetch.flow_home"
        | "fetch.striped"
        | "fetch.retry_wait"
        | "fetch.cloud_request"
        | "fetch.flow_cloud"
        | "proc.move_arg"
        | "proc.move_result" => "inter_node",
        "store.meta_put" | "store.dir_put" | "fetch.meta_get" | "delete.meta_get"
        | "delete.dht_delete" | "delete.dir_put" | "list.dir_get" | "proc.meta_svc_get" => "dht",
        "store.query_peers" | "proc.query_resources" | "proc.decide" => "decision",
        "store.disk_write" | "fetch.disk_local" | "delete.remove_bytes" | "proc.read_arg" => "disk",
        "proc.exec" => "exec",
        "fetch.owner_request" => return None,
        other => panic!("stage span {other} is not in the frozen name list"),
    })
}

/// Checks one report completed with the ledger on: every `Breakdown`
/// column equals the summed length of the stage spans charged to it
/// (`disk` may exceed its spans by the modelled holder reads, which have
/// no span of their own), and both the critical-path buckets and the
/// explain DAG's edges sum to the op's latency.
fn assert_views_agree(report: &OpReport) {
    let spans = |column: &str| -> u64 {
        report
            .stages
            .iter()
            .filter(|span| column_of(span.name()) == Some(column))
            .map(|span| span.end_ns - span.start_ns)
            .sum()
    };
    let b = &report.breakdown;
    for (column, charged) in [
        ("inter_domain", b.inter_domain),
        ("inter_node", b.inter_node),
        ("dht", b.dht),
        ("decision", b.decision),
        ("exec", b.exec),
    ] {
        assert_eq!(
            charged.as_nanos() as u64,
            spans(column),
            "{} {}: breakdown.{column} disagrees with its stage spans {:?}",
            report.id,
            report.kind,
            report.stages
        );
    }
    assert!(
        b.disk.as_nanos() as u64 >= spans("disk"),
        "{} {}: breakdown.disk is below its stage spans",
        report.id,
        report.kind
    );
    let total = report.total().as_nanos() as u64;
    assert!(b.accounted().as_nanos() as u64 <= total + b.disk.as_nanos() as u64);
    assert_eq!(report.critical_path.total_ns(), total);
    let dag: u64 = report
        .critical_dag()
        .iter()
        .map(|e| e.end_ns - e.start_ns)
        .sum();
    assert_eq!(dag, total);
}

fn span_count(report: &OpReport, stage: &str) -> usize {
    report
        .stages
        .iter()
        .filter(|span| span.name() == stage)
        .count()
}

/// The runtime counts the key-value store and service calls it makes,
/// wherever it makes them: every kernel it runs is one
/// `services.executions`, and the records a direct `rejoin_node`
/// publishes after its own run (four service records, the node's resource
/// record) are encodes like any other. With recording off the deployment
/// holds no counter at all.
#[test]
fn the_runtime_counts_the_calls_it_makes() {
    let run = |tracing: bool| {
        let mut config = Config::paper_testbed(73);
        config.tracing = tracing;
        // No periodic resource publish inside the test's horizon: only the
        // rejoin's own publishes encode while nothing is in flight.
        config.monitor.update_period = Duration::from_secs(3_600);
        let mut home = Cloud4Home::new(config);
        let counter = |home: &Cloud4Home, name| home.telemetry().snapshot().counter(name);

        home.crash_node(NodeId(3));
        home.run_for(Duration::from_secs(5));
        let before = counter(&home, "kvstore.record_encodes");
        home.rejoin_node(NodeId(3)).expect("live seed");
        let rejoin_encodes = counter(&home, "kvstore.record_encodes") - before;

        let name = "counted/frame.jpg";
        let obj = Object::synthetic(name, 5, 256 << 10, "jpeg");
        let op = home.store_object(NodeId(0), obj, StorePolicy::ForceHome, true);
        home.run_until_complete(op).expect_ok();
        let services = [
            ServiceKind::FaceDetect,
            ServiceKind::FaceRecognize,
            ServiceKind::Transcode,
        ];
        for (i, service) in services.into_iter().enumerate() {
            let op = home.process_object(NodeId(i), name, service, RoutePolicy::Performance);
            home.run_until_complete(op).expect_ok();
        }
        let counters = home.telemetry().snapshot().counters.len();
        (
            rejoin_encodes,
            counter(&home, "services.executions"),
            counters,
        )
    };
    let (rejoin_encodes, executions, _) = run(true);
    assert_eq!(rejoin_encodes, 4 + 1, "service records + resource record");
    assert_eq!(executions, 3, "one per kernel run");
    assert_eq!(run(false), (0, 0, 0), "recording off counts nothing");
}

#[test]
fn breakdown_equals_its_stage_spans_on_every_op_kind() {
    let mut config = Config::paper_testbed(71);
    config.ledger = true;
    let mut home = Cloud4Home::new(config);
    let check = |home: &mut Cloud4Home, op| {
        let report = home.run_until_complete(op);
        report.expect_ok();
        assert!(!report.stages.is_empty(), "the ledger records stage spans");
        assert_views_agree(&report);
        report
    };

    // Local-first, peer and cloud placements, then every op kind on them.
    let policies = [
        StorePolicy::MandatoryFirst,
        StorePolicy::ForceHome,
        StorePolicy::SizeThreshold {
            cloud_at_bytes: 128 << 10,
        },
    ];
    for (i, policy) in policies.into_iter().enumerate() {
        let name = format!("views/obj-{i}.jpg");
        let obj = Object::synthetic(&name, 40 + i as u64, (96 + 64 * i as u64) << 10, "jpeg");
        let op = home.store_object(NodeId(i), obj, policy, true);
        let stored = check(&mut home, op);
        let op = home.fetch_object(NodeId(i + 2), &name);
        let fetched = check(&mut home, op);
        assert_eq!(
            fetched.expect_ok().via_cloud,
            stored.expect_ok().via_cloud,
            "{name} is read from where it was placed"
        );
    }
    let op = home.list_objects(NodeId(1), "views");
    check(&mut home, op);
    let op = home.process_object(
        NodeId(4),
        "views/obj-0.jpg",
        ServiceKind::FaceDetect,
        RoutePolicy::Performance,
    );
    let processed = check(&mut home, op);
    assert!(processed.breakdown.exec > Duration::ZERO);
    let op = home.fetch_and_process(
        NodeId(5),
        "views/obj-1.jpg",
        ServiceKind::Compress,
        RoutePolicy::Performance,
    );
    check(&mut home, op);
    let op = home.delete_object(NodeId(0), "views/obj-0.jpg");
    check(&mut home, op);
}

#[test]
fn breakdown_equals_its_stage_spans_on_striped_and_coded_fetches() {
    // Three copies, three sources: the fetch is one `fetch.striped` stage
    // whose holder reads are modelled, not spanned.
    let mut config = Config::paper_testbed(72);
    config.ledger = true;
    config.replication = 3;
    config.fetch_sources = 3;
    let mut home = Cloud4Home::new(config);
    let obj = Object::synthetic("views/striped.bin", 7, 3 << 20, "doc");
    let op = home.store_object(NodeId(1), obj, StorePolicy::ForceHome, true);
    let stored = home.run_until_complete(op);
    stored.expect_ok();
    assert_views_agree(&stored);
    home.run_until_idle();
    let client = (0..home.node_count())
        .map(NodeId)
        .find(|&id| home.objects_on(id) == 0)
        .expect("some node holds no copy");
    let op = home.fetch_object(client, "views/striped.bin");
    let fetched = home.run_until_complete(op);
    fetched.expect_ok();
    assert_eq!(span_count(&fetched, "fetch.striped"), 1);
    assert!(fetched.breakdown.disk > Duration::ZERO);
    assert_views_agree(&fetched);

    // A cold object over the threshold converts to coded stripes; its
    // fetch is k stripe pulls and a decode.
    let mut config = Config::paper_testbed(73);
    config.ledger = true;
    config.adaptive.enabled = true;
    let mut home = Cloud4Home::new(config);
    let obj = Object::synthetic("views/coded.bin", 8, 2 << 20, "tar");
    let op = home.store_object(NodeId(0), obj, StorePolicy::ForceHome, true);
    home.run_until_complete(op).expect_ok();
    home.run_for(Duration::from_secs(15));
    assert!(home.is_erasure_coded("views/coded.bin"));
    let op = home.fetch_object(NodeId(2), "views/coded.bin");
    let fetched = home.run_until_complete(op);
    fetched.expect_ok();
    assert_eq!(span_count(&fetched, "fetch.striped"), 1);
    assert_views_agree(&fetched);
}

/// A transfer severed mid-flight is time the op spent moving bytes between
/// nodes: the aborted `fetch.flow_home` span must be in `inter_node` like
/// the one that finally delivered the object.
#[test]
fn a_severed_transfers_time_stays_in_the_breakdown() {
    let mut config = Config::paper_testbed(74);
    config.ledger = true;
    config.replication = 2;
    let mut home = Cloud4Home::new(config);
    let obj = Object::synthetic("views/severed.bin", 9, 8 << 20, "doc");
    let op = home.store_object(NodeId(1), obj, StorePolicy::ForceHome, true);
    home.run_until_complete(op).expect_ok();
    home.run_until_idle();

    let op = home.fetch_object(NodeId(0), "views/severed.bin");
    home.run_for(Duration::from_millis(400));
    home.crash_node(NodeId(1));
    let report = home.run_until_complete(op);
    report.expect_ok();
    assert!(report.failovers >= 1, "the crash must redirect the fetch");
    assert!(
        report
            .ledger
            .iter()
            .any(|e| e.kind.label() == "transfer.failed"),
        "the crash must land mid-transfer: {:?}",
        report.stages
    );
    assert!(
        span_count(&report, "fetch.flow_home") >= 2,
        "one severed and one completed transfer: {:?}",
        report.stages
    );
    assert_views_agree(&report);
}
